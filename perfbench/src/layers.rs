//! The traced run's per-layer view, measured from outside the program.
//!
//! For each traced operation the benchmark holds three records: the
//! operation's wall time, the device spans `TimedDevice` took while it
//! ran, and (for the query paths that accept one) the events a
//! [`SpanSink`] received. After the operation returns — outside its wall
//! time — the layer functions the program ran are replayed on the exact
//! blocks, nodes and object pointers the operation touched:
//! `storage::page::verify` on every tree block read, `NodeBuf::decode` on
//! every node read from a device, `SignatureBlock::from_payloads` +
//! `matches_mask_into` on every visited node, and `ObjectSource::load` on
//! every fetched object. Replay times stand in for the in-operation times
//! of those layers; what is left of the wall time is the traversal's own
//! work (`irtree.self_us`).

use ir2tree::irtree::{SigPayload, TraceEvent, TraceSink};
use ir2tree::model::{ObjPtr, ObjectSource};
use ir2tree::rtree::{Node, NodeBuf, PayloadOps};
use ir2tree::sigfile::{EntryMask, Signature, SignatureBlock};
use ir2tree::storage::{page, BlockDevice, PAGE_PAYLOAD};
use ir2tree::SpatialKeywordDb;

use crate::device::{self, Access, DevSpan, Role, TimedDevice};

/// Each replay runs this many times and keeps the fastest time, which
/// filters out preemption and other noise the replay meets and the
/// operation did not.
const REPLAYS: usize = 3;

/// Runs `f` [`REPLAYS`] times; returns the last output and the fastest
/// time in nanoseconds.
fn fastest<T>(mut f: impl FnMut() -> T) -> (T, u64) {
    let mut best = u64::MAX;
    let mut out = None;
    for _ in 0..REPLAYS {
        let t0 = device::now_ns();
        out = Some(f());
        best = best.min(device::now_ns() - t0);
    }
    (out.expect("at least one replay"), best)
}

/// The benchmark's trace sink: keeps the events the replays and the
/// traversal counts need.
#[derive(Default)]
pub struct SpanSink {
    /// `(node, level, entries, heap size)` per visited node.
    nodes: Vec<(u64, u16, usize, usize)>,
    sig_tests: u64,
    sig_matched: u64,
    /// `(object pointer, verified)` per fetched object.
    fetched: Vec<(u64, bool)>,
}

impl TraceSink for SpanSink {
    fn record(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::NodeVisited {
                node,
                level,
                entries,
                heap_size,
                ..
            } => self.nodes.push((node, level, entries, heap_size)),
            TraceEvent::SignatureTest { matched, .. } => {
                self.sig_tests += 1;
                self.sig_matched += matched as u64;
            }
            TraceEvent::ObjectFetched { ptr, matched, .. } => self.fetched.push((ptr, matched)),
        }
    }
}

/// What the signature kernel tested a node's entries against.
pub enum QuerySigs {
    /// No kernel replay (writes, and window queries, which test entries
    /// one by one).
    None,
    /// One conjunctive signature of all keywords (distance-first).
    All(Vec<String>),
    /// One signature per keyword (the ranked algorithm's matched subset).
    Each(Vec<String>),
}

/// Per-layer figures of one traced operation.
#[derive(Debug, Default, Clone)]
pub struct Sample {
    pub wall_ns: u64,
    pub read_ns: u64,
    pub write_ns: u64,
    pub verify_ns: u64,
    pub decode_ns: u64,
    pub mask_ns: u64,
    pub node_reads: u64,
    pub object_reads: u64,
    pub reads: u64,
    pub random_reads: u64,
    pub block_writes: u64,
    pub nodes_visited: u64,
    /// `(hits, visits)` where the sink reports every visit.
    pub cache: Option<(u64, u64)>,
    pub sig_tests: u64,
    pub sig_matched: u64,
    pub entries_scanned: u64,
    pub max_heap: Option<u64>,
    /// `(loads, false positives, replayed load ns)` where the sink names
    /// the fetched objects.
    pub objects: Option<(u64, u64, u64)>,
    /// Attributed time of the slowest shard (the critical path).
    pub attributed_ns: u64,
    /// Device-active window of each shard.
    pub shard_windows: Vec<u64>,
}

/// Replays layer functions on the devices of every shard.
pub struct Tracer<X: BlockDevice + 'static> {
    pub devices: Vec<TimedDevice<X>>,
}

/// One database per shard (one for a monolithic database).
type Shards<'a, X> = [&'a SpatialKeywordDb<TimedDevice<X>>];

/// A node read from a device or visited from the cache.
struct NodeImage {
    node: NodeBuf<2>,
    role: Role,
}

impl<X: BlockDevice + 'static> Tracer<X> {
    fn device(&self, shard: usize, role: Role) -> &TimedDevice<X> {
        self.devices
            .iter()
            .find(|d| d.shard() == shard && d.role() == role)
            .expect("every shard has every device role")
    }

    fn entry_size(db: &SpatialKeywordDb<TimedDevice<X>>, role: Role, level: u16) -> usize {
        match role {
            Role::RTree => db.rtree().ops().entry_size(level),
            Role::Mir2 => db.mir2_tree().ops().entry_size(level),
            _ => db.ir2_tree().ops().entry_size(level),
        }
    }

    fn read_raw(
        &self,
        shard: usize,
        role: Role,
        id: u64,
    ) -> Box<[u8; ir2tree::storage::BLOCK_SIZE]> {
        let mut buf = ir2tree::storage::zeroed_block();
        self.device(shard, role)
            .read_raw(id, &mut buf)
            .expect("replayed block was readable during the operation");
        buf
    }

    /// Reads node `id` of a monolithic database untimed (for cache-hit
    /// visits, which only the sink reports).
    fn load_node(
        &self,
        db: &SpatialKeywordDb<TimedDevice<X>>,
        role: Role,
        id: u64,
    ) -> Option<NodeBuf<2>> {
        let shard = 0;
        let first = self.read_raw(shard, role, id);
        let (level, _, nblocks) = Node::<2>::decode_header(&first[..PAGE_PAYLOAD]).ok()?;
        let mut buf = first[..PAGE_PAYLOAD].to_vec();
        for b in 1..nblocks.max(1) as u64 {
            buf.extend_from_slice(&self.read_raw(shard, role, id + b)[..PAGE_PAYLOAD]);
        }
        NodeBuf::decode(id, buf, Self::entry_size(db, role, level)).ok()
    }

    fn signatures(db: &SpatialKeywordDb<TimedDevice<X>>, sigs: &QuerySigs) -> Vec<Signature> {
        let scheme = db.ir2_tree().ops().scheme_at(0);
        match sigs {
            QuerySigs::None => Vec::new(),
            QuerySigs::All(kws) => vec![scheme.sign_terms(kws.iter().map(String::as_str))],
            QuerySigs::Each(kws) => kws.iter().map(|k| scheme.sign_term(k)).collect(),
        }
    }

    /// Times the kernel over one node: the block build (only when the
    /// operation built it, i.e. the node was not cached) plus one
    /// `matches_mask_into` per query signature. Returns `(ns, tests,
    /// matched)`.
    fn mask(node: &NodeBuf<2>, bits: usize, sigs: &[Signature], build: bool) -> (u64, u64, u64) {
        let (block, build_ns) = fastest(|| SignatureBlock::from_payloads(bits, node.payloads()));
        let mut ns = if build { build_ns } else { 0 };
        let mut mask = EntryMask::new();
        let (mut tests, mut matched) = (0, 0);
        for sig in sigs {
            ns += fastest(|| block.matches_mask_into(sig, &mut mask)).1;
            tests += block.len() as u64;
            matched += (0..block.len()).filter(|&i| mask.get(i)).count() as u64;
        }
        (ns, tests, matched)
    }

    /// Builds the per-layer sample of one finished operation.
    pub fn analyze(
        &self,
        dbs: &Shards<'_, X>,
        spans: &[DevSpan],
        sink: Option<&SpanSink>,
        sigs: QuerySigs,
        wall_ns: u64,
    ) -> Sample {
        let shards = dbs.len();
        let mut s = Sample {
            wall_ns,
            ..Sample::default()
        };
        let mut attributed = vec![0u64; shards];
        let mut window = vec![(u64::MAX, 0u64); shards];
        let mut last_block: Vec<(usize, Role, u64)> = Vec::new();
        for sp in spans {
            let w = &mut window[sp.shard];
            *w = (w.0.min(sp.start_ns), w.1.max(sp.end_ns()));
            attributed[sp.shard] += sp.dur_ns;
            match sp.access {
                Access::Read => {
                    s.read_ns += sp.dur_ns;
                    s.reads += 1;
                    if sp.role == Role::Objects {
                        s.object_reads += 1;
                    } else if sp.role.is_tree() {
                        s.node_reads += 1;
                    }
                    let prev = last_block
                        .iter_mut()
                        .find(|(sh, r, _)| *sh == sp.shard && *r == sp.role);
                    match prev {
                        Some(p) => {
                            s.random_reads += (sp.block != p.2 + 1) as u64;
                            p.2 = sp.block;
                        }
                        None => {
                            s.random_reads += 1;
                            last_block.push((sp.shard, sp.role, sp.block));
                        }
                    }
                }
                Access::Write => {
                    s.write_ns += sp.dur_ns;
                    s.block_writes += 1;
                }
                Access::Sync => s.write_ns += sp.dur_ns,
            }
        }
        s.shard_windows = window.iter().map(|&(a, b)| b.saturating_sub(a)).collect();

        // Nodes read from devices: every tree block is verified; the first
        // block of each extent starts a node that is decoded (and, on the
        // IR²-Tree, tested by the kernel).
        let mut read_nodes: Vec<(usize, u64)> = Vec::new();
        for shard in 0..shards {
            let db = dbs[shard];
            let qsigs = Self::signatures(db, &sigs);
            let bits = db.ir2_tree().ops().scheme_at(0).bits();
            let replayed_before = s.verify_ns + s.decode_ns + s.mask_ns;
            let mut rest = 0u64;
            let mut next = 0u64;
            let mut current: Option<(u64, Role, Vec<u8>)> = None;
            let reads = spans
                .iter()
                .filter(|sp| sp.shard == shard && sp.access == Access::Read && sp.role.is_tree());
            let mut nodes: Vec<NodeImage> = Vec::new();
            let finish =
                |cur: Option<(u64, Role, Vec<u8>)>, s: &mut Sample, nodes: &mut Vec<NodeImage>| {
                    if let Some((id, role, buf)) = cur {
                        let Ok((level, _, _)) = Node::<2>::decode_header(&buf) else {
                            return;
                        };
                        let size = Self::entry_size(db, role, level);
                        let mut copies = vec![buf; REPLAYS];
                        let (node, ns) = fastest(|| {
                            let buf = copies.pop().expect("one copy per replay");
                            NodeBuf::<2>::decode(id, buf, size)
                        });
                        s.decode_ns += ns;
                        if let Ok(node) = node {
                            nodes.push(NodeImage { node, role });
                        }
                    }
                };
            for sp in reads {
                let block = self.read_raw(shard, sp.role, sp.block);
                let (ok, ns) = fastest(|| page::verify(&block).is_ok());
                s.verify_ns += ns;
                if !ok {
                    continue;
                }
                let continues = current
                    .as_ref()
                    .is_some_and(|(_, role, _)| *role == sp.role && rest > 0 && sp.block == next);
                if continues {
                    let cur = current.as_mut().expect("checked above");
                    cur.2.extend_from_slice(&block[..PAGE_PAYLOAD]);
                    rest -= 1;
                    next += 1;
                    continue;
                }
                finish(current.take(), &mut s, &mut nodes);
                let Ok((_, _, nblocks)) = Node::<2>::decode_header(&block[..PAGE_PAYLOAD]) else {
                    continue;
                };
                rest = nblocks.max(1) as u64 - 1;
                next = sp.block + 1;
                current = Some((sp.block, sp.role, block[..PAGE_PAYLOAD].to_vec()));
            }
            finish(current.take(), &mut s, &mut nodes);
            for n in &nodes {
                if n.role == Role::Ir2 {
                    read_nodes.push((shard, n.node.id()));
                    if sink.is_none() {
                        s.nodes_visited += 1;
                        s.entries_scanned += n.node.len() as u64;
                    }
                    if !qsigs.is_empty() {
                        let (ns, tests, matched) = Self::mask(&n.node, bits, &qsigs, true);
                        s.mask_ns += ns;
                        if sink.is_none() {
                            s.sig_tests += tests;
                            s.sig_matched += matched;
                        }
                    }
                }
            }
            attributed[shard] += s.verify_ns + s.decode_ns + s.mask_ns - replayed_before;
        }

        if let Some(sink) = sink {
            // Visits the sink saw but no device served were cache hits:
            // they skip verify, decode and the block build, not the kernel.
            let db = dbs[0];
            let qsigs = Self::signatures(db, &sigs);
            let bits = db.ir2_tree().ops().scheme_at(0).bits();
            let mut hits = 0;
            for &(id, _, _, _) in &sink.nodes {
                if read_nodes.contains(&(0, id)) {
                    continue;
                }
                hits += 1;
                if let (Some(node), false) = (self.load_node(db, Role::Ir2, id), qsigs.is_empty()) {
                    let (ns, _, _) = Self::mask(&node, bits, &qsigs, false);
                    s.mask_ns += ns;
                    attributed[0] += ns;
                }
            }
            s.nodes_visited = sink.nodes.len() as u64;
            s.cache = Some((hits, sink.nodes.len() as u64));
            s.sig_tests = sink.sig_tests;
            s.sig_matched = sink.sig_matched;
            s.entries_scanned = sink.nodes.iter().map(|n| n.2 as u64).sum();
            s.max_heap = Some(sink.nodes.iter().map(|n| n.3 as u64).max().unwrap_or(0));
            let store = db.object_store();
            let mut load_ns = 0;
            for &(ptr, _) in &sink.fetched {
                // The device read is already a span; only the record's
                // checksum and decode are added to the attributed time.
                let (mut total, mut own) = (u64::MAX, u64::MAX);
                for _ in 0..REPLAYS {
                    let t0 = device::now_ns();
                    let (_, dev_ns) = device::replay(|| store.load(ObjPtr(ptr)));
                    let dt = device::now_ns() - t0;
                    total = total.min(dt);
                    own = own.min(dt.saturating_sub(dev_ns));
                }
                load_ns += total;
                attributed[0] += own;
            }
            let fp = sink.fetched.iter().filter(|f| !f.1).count() as u64;
            s.objects = Some((sink.fetched.len() as u64, fp, load_ns));
        }
        s.attributed_ns = attributed.into_iter().max().unwrap_or(0);
        s
    }
}
