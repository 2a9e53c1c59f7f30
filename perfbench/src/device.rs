//! The benchmark's device wrapper: times every block access the program
//! makes, from outside the program.
//!
//! `TimedDevice` sits under the database's own `TrackedDevice` (it is
//! applied through `DeviceSet::map` / `ShardedDb::open_dir_mapped`), so it
//! sees exactly the raw device reads, writes and syncs each layer above
//! issues. Timing is off until [`set_tracing`] turns it on; while off the
//! wrapper costs one relaxed atomic load per access.
//!
//! Spans go to one process-wide list tagged with the calling client's id.
//! Threads the program spawns itself (the sharded engine's gather
//! workers) carry tag 0; the sharded workload has a single client, so
//! those spans belong to the operation in flight.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ir2tree::storage::{BlockDevice, BlockId, Result, BLOCK_SIZE};

/// Which structure a device stores, from the role names `DeviceSet::map`
/// passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Objects,
    RTree,
    Ir2,
    Mir2,
    Inverted,
    Catalog,
}

impl Role {
    pub fn from_name(name: &str) -> Role {
        match name {
            "objects" => Role::Objects,
            "rtree" => Role::RTree,
            "ir2" => Role::Ir2,
            "mir2" => Role::Mir2,
            "inverted" => Role::Inverted,
            _ => Role::Catalog,
        }
    }

    /// Devices whose blocks hold sealed tree nodes.
    pub fn is_tree(self) -> bool {
        matches!(self, Role::RTree | Role::Ir2 | Role::Mir2)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Read,
    Write,
    Sync,
}

/// One timed device access.
#[derive(Debug, Clone, Copy)]
pub struct DevSpan {
    pub client: u32,
    pub shard: usize,
    pub role: Role,
    pub block: BlockId,
    pub access: Access,
    /// Start, in nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl DevSpan {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

static TRACING: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<DevSpan>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static CLIENT: Cell<u32> = const { Cell::new(0) };
    /// While set, accesses are replays made by the benchmark itself: they
    /// are summed into `REPLAY_NS` instead of being recorded as spans.
    static REPLAYING: Cell<bool> = const { Cell::new(false) };
    static REPLAY_NS: Cell<u64> = const { Cell::new(0) };
}

pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::SeqCst);
}

pub fn set_client(id: u32) {
    CLIENT.with(|c| c.set(id));
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Removes and returns the spans of the calling client (and of untagged
/// program-spawned threads).
pub fn take_spans() -> Vec<DevSpan> {
    let me = CLIENT.with(Cell::get);
    let mut all = SPANS
        .lock()
        .expect("span list poisoned by a panicking client");
    let (mine, rest): (Vec<DevSpan>, Vec<DevSpan>) =
        all.drain(..).partition(|s| s.client == me || s.client == 0);
    *all = rest;
    mine
}

/// Runs `f` as a replay: its device time is returned instead of recorded.
pub fn replay<T>(f: impl FnOnce() -> T) -> (T, u64) {
    REPLAYING.with(|r| r.set(true));
    REPLAY_NS.with(|n| n.set(0));
    let out = f();
    REPLAYING.with(|r| r.set(false));
    (out, REPLAY_NS.with(Cell::get))
}

/// A block device that times the accesses of the device it wraps.
pub struct TimedDevice<D> {
    inner: Arc<D>,
    shard: usize,
    role: Role,
}

impl<D> Clone for TimedDevice<D> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
            shard: self.shard,
            role: self.role,
        }
    }
}

impl<D: BlockDevice> TimedDevice<D> {
    pub fn new(inner: D, shard: usize, role: Role) -> Self {
        Self {
            inner: Arc::new(inner),
            shard,
            role,
        }
    }

    pub fn shard(&self) -> usize {
        self.shard
    }

    pub fn role(&self) -> Role {
        self.role
    }

    /// Reads a block without timing it (for replays).
    pub fn read_raw(&self, id: BlockId, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
        self.inner.read_block(id, buf)
    }

    fn timed<T>(&self, block: BlockId, access: Access, f: impl FnOnce() -> T) -> T {
        if !TRACING.load(Ordering::Relaxed) {
            return f();
        }
        let start_ns = now_ns();
        let out = f();
        let dur_ns = now_ns() - start_ns;
        if REPLAYING.with(Cell::get) {
            REPLAY_NS.with(|n| n.set(n.get() + dur_ns));
        } else {
            let span = DevSpan {
                client: CLIENT.with(Cell::get),
                shard: self.shard,
                role: self.role,
                block,
                access,
                start_ns,
                dur_ns,
            };
            SPANS
                .lock()
                .expect("span list poisoned by a panicking client")
                .push(span);
        }
        out
    }
}

impl<D: BlockDevice> BlockDevice for TimedDevice<D> {
    fn read_block(&self, id: BlockId, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
        self.timed(id, Access::Read, || self.inner.read_block(id, buf))
    }

    fn write_block(&self, id: BlockId, data: &[u8; BLOCK_SIZE]) -> Result<()> {
        self.timed(id, Access::Write, || self.inner.write_block(id, data))
    }

    fn allocate(&self, n: u64) -> Result<BlockId> {
        self.inner.allocate(n)
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn sync(&self) -> Result<()> {
        self.timed(0, Access::Sync, || self.inner.sync())
    }
}
