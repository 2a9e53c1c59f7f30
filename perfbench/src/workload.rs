//! The four workloads: set-up, the closed loop, and the answer checks.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use ir2_datagen::DatasetSpec;
use ir2tree::geo::Rect;
use ir2tree::irtree::{general_topk_traced, GeneralQuery};
use ir2tree::model::{DistanceFirstQuery, QueryLimits, SpatialObject};
use ir2tree::storage::{BlockDevice, FileDevice, MemDevice};
use ir2tree::text::{LinearRank, SaturatingTfIdf};
use ir2tree::{Algorithm, DbConfig, DeviceSet, QueryReport, ShardedDb, SpatialKeywordDb};

use crate::data::{self, Reference, Rng};
use crate::device::{self, Role, TimedDevice};
use crate::layers::{QuerySigs, Sample, SpanSink, Tracer};

/// Objects in the Restaurants- and Hotels-statistics datasets at scale 1.
pub const RESTAURANT_OBJECTS: usize = 9_125;
pub const HOTEL_OBJECTS: usize = 9_052;
/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// Node-cache capacity per tree where a workload caches the whole tree.
pub const WHOLE_TREE_CACHE: usize = 1 << 14;
/// `save_catalog` commits after every this many writes in `write_mix`.
pub const COMMIT_EVERY: usize = 16;
/// Fresh objects available to `write_mix`'s inserts (a run stops early if
/// it uses them all).
const FRESH_OBJECTS: usize = 8192;
/// `write_mix` measures space after this many committed inserts, so that
/// `space_amp` does not depend on how many inserts a run had time for.
const SPACE_AT_INSERTS: usize = 128;
pub const SHARDS: usize = 2;
/// Distinct queries per pool: about as many top-k queries as a run issues,
/// so each runs about once; ranked and window pools are smaller because
/// their expected answers cost more to compute.
pub const TOPK_POOL: usize = 4096;
pub const SIDE_POOL: usize = 512;

pub const WORKLOADS: [&str; 4] = ["cold_topk", "warm_mixed", "write_mix", "sharded_topk"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Topk,
    Ranked,
    Window,
    Insert,
    Commit,
}

/// What an operation returned, kept for the checks after the loop.
pub enum Answer {
    None,
    /// `(id, distance)` in returned order.
    Dist(Vec<(u64, f64)>),
    /// `(id, score)` in returned order.
    Scored(Vec<(u64, f64)>),
    Ids(Vec<u64>),
}

/// One completed (or failed) operation.
pub struct OpRec {
    pub kind: Kind,
    pub client: u32,
    /// Index into the workload's pool (query) or insert list (writes).
    pub item: usize,
    pub start_ns: u64,
    pub lat_ns: u64,
    pub ok: bool,
    pub answer: Answer,
    /// `(blocks, simulated ns, object loads, false positives)` of a top-k
    /// query.
    pub io: Option<(u64, u64, u64, u64)>,
    pub sample: Option<Sample>,
}

/// Everything one run measured.
pub struct RunOut {
    pub traced: bool,
    pub setup_s: Vec<f64>,
    /// Untimed phase of a traced run (the overhead baseline).
    pub baseline: Vec<OpRec>,
    pub ops: Vec<OpRec>,
    pub elapsed_s: f64,
    pub mismatches: Vec<String>,
    pub device_bytes: u64,
    pub live_bytes: u64,
    pub facts: Vec<(String, String)>,
}

pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    pub traced: bool,
    pub dir: PathBuf,
}

impl Params {
    fn objects(&self, full: usize) -> usize {
        ((full as f64 * self.scale) as usize).max(64)
    }

    /// A traced run splits its time into an untraced and a traced half.
    fn phase_seconds(&self) -> f64 {
        if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Bytes of the object file and every index structure.
fn structure_bytes<D: BlockDevice + 'static>(db: &SpatialKeywordDb<D>) -> u64 {
    let s = db.index_sizes();
    s.objects + s.rtree + s.ir2 + s.mir2 + s.iio
}

fn io_of(r: &QueryReport) -> (u64, u64, u64, u64) {
    (
        r.io.total(),
        r.simulated.as_nanos() as u64,
        r.object_loads,
        r.counters.false_positives,
    )
}

fn dists(r: &QueryReport) -> Vec<(u64, f64)> {
    r.results.iter().map(|(o, d)| (o.id, *d)).collect()
}

/// Where a client is in each of the workload's query pools. Clients walk
/// the pools in order from evenly spaced starting points, so a run issues
/// each query about equally often.
pub struct Cursor {
    client: u32,
    clients: usize,
    next: [usize; 3],
}

impl Cursor {
    fn new(client: u32, clients: usize) -> Self {
        Cursor {
            client,
            clients,
            next: [0; 3],
        }
    }

    /// The next index into pool `which` of length `len`.
    fn take(&mut self, which: usize, len: usize) -> usize {
        let start = (self.client as usize - 1) * len / self.clients;
        let i = (start + self.next[which]) % len;
        self.next[which] += 1;
        i
    }
}

/// Runs `clients` closed-loop clients for `seconds`: each issues its next
/// operation when the previous one returns.
fn closed_loop(
    clients: usize,
    seconds: f64,
    seed: u64,
    phase: u64,
    op: impl Fn(&mut Rng, &mut Cursor) -> OpRec + Sync,
) -> (Vec<OpRec>, f64) {
    let barrier = Barrier::new(clients);
    let (recs, ends): (Vec<Vec<OpRec>>, Vec<u64>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, op) = (&barrier, &op);
                scope.spawn(move || {
                    let client = c as u32 + 1;
                    device::set_client(client);
                    let mut rng = Rng::new(seed, 100 + 16 * phase + client as u64);
                    let mut cursor = Cursor::new(client, clients);
                    let mut out = Vec::new();
                    barrier.wait();
                    let t0 = Instant::now();
                    let start = device::now_ns();
                    while t0.elapsed().as_secs_f64() < seconds {
                        out.push(op(&mut rng, &mut cursor));
                    }
                    (out, device::now_ns() - start)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .unzip()
    });
    let elapsed = ends.into_iter().max().unwrap_or(0) as f64 / 1e9;
    (recs.into_iter().flatten().collect(), elapsed)
}

/// Analyses one traced operation after it returned: given the database
/// it ran on (none for the sharded engine, whose tracer holds its
/// shards), the sink it filled, its query signatures and its wall time.
type TraceFn<'a, D> =
    dyn Fn(Option<&SpatialKeywordDb<D>>, Option<&SpanSink>, QuerySigs, u64) -> Sample + Sync + 'a;
type Trace<'a, D> = Option<&'a TraceFn<'a, D>>;

/// Times one operation; `(result, sink, start, latency)`.
fn timed<T>(f: impl FnOnce(&mut SpanSink) -> T) -> (T, SpanSink, u64, u64) {
    let mut sink = SpanSink::default();
    let start_ns = device::now_ns();
    let t0 = Instant::now();
    let out = f(&mut sink);
    (out, sink, start_ns, since(t0))
}

/// The tracer callback of a monolithic database.
fn mono_tracer<X: BlockDevice + 'static>(tracer: &Tracer<X>) -> Box<TraceFn<'_, TimedDevice<X>>> {
    Box::new(move |db, sink, sigs, wall| {
        let spans = device::take_spans();
        let db = db.expect("monolithic operations pass their database");
        tracer.analyze(&[db], &spans, sink, sigs, wall)
    })
}

/// The read operations on one (monolithic) database.
struct Reads<'a, D: BlockDevice + 'static> {
    db: &'a SpatialKeywordDb<D>,
    topk: &'a [DistanceFirstQuery<2>],
    ranked: &'a [GeneralQuery<2>],
    window: &'a [(Rect<2>, Vec<String>)],
}

impl<D: BlockDevice + 'static> Reads<'_, D> {
    fn topk(&self, i: usize, client: u32, traced: Trace<'_, D>) -> OpRec {
        let q = &self.topk[i];
        let (r, sink, start_ns, lat_ns) = timed(|sink| match traced {
            Some(_) => self.db.distance_first_traced(Algorithm::Ir2, q, sink),
            None => self
                .db
                .distance_first_limited(Algorithm::Ir2, q, QueryLimits::none()),
        });
        let sample = traced.map(|t| {
            t(
                Some(self.db),
                Some(&sink),
                QuerySigs::All(q.keywords.clone()),
                lat_ns,
            )
        });
        rec(Kind::Topk, client, i, start_ns, lat_ns, sample, r, |r| {
            (Answer::Dist(dists(r)), Some(io_of(r)))
        })
    }

    fn ranked(&self, i: usize, client: u32, traced: Trace<'_, D>) -> OpRec {
        let q = &self.ranked[i];
        let rank = LinearRank::default();
        let (r, sink, start_ns, lat_ns) = timed(|sink| match traced {
            Some(_) => general_topk_traced(
                self.db.ir2_tree(),
                self.db.object_store(),
                self.db.vocab(),
                &SaturatingTfIdf,
                &rank,
                q,
                sink,
            ),
            None => self
                .db
                .general_ranked(Algorithm::Ir2, q, &SaturatingTfIdf, &rank)
                .map(|r| r.results),
        });
        let sample = traced.map(|t| {
            t(
                Some(self.db),
                Some(&sink),
                QuerySigs::Each(q.keywords.clone()),
                lat_ns,
            )
        });
        rec(Kind::Ranked, client, i, start_ns, lat_ns, sample, r, |r| {
            let scored = r.iter().map(|s| (s.object.id, s.score)).collect();
            (Answer::Scored(scored), None)
        })
    }

    fn window(&self, i: usize, client: u32, traced: Trace<'_, D>) -> OpRec {
        let (rect, kws) = &self.window[i];
        let (r, _, start_ns, lat_ns) = timed(|_| self.db.keyword_window(Algorithm::Ir2, rect, kws));
        // The window query takes no sink: its nodes come from device spans.
        // It tests entry payloads one by one, not through the batched
        // kernel, so no kernel is replayed for it.
        let sample = traced.map(|t| t(Some(self.db), None, QuerySigs::None, lat_ns));
        rec(Kind::Window, client, i, start_ns, lat_ns, sample, r, |r| {
            let mut ids: Vec<u64> = r.iter().map(|o| o.id).collect();
            ids.sort_unstable();
            (Answer::Ids(ids), None)
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn rec<T>(
    kind: Kind,
    client: u32,
    item: usize,
    start_ns: u64,
    lat_ns: u64,
    sample: Option<Sample>,
    r: ir2tree::storage::Result<T>,
    f: impl FnOnce(&T) -> (Answer, Option<(u64, u64, u64, u64)>),
) -> OpRec {
    let (ok, (answer, io)) = match &r {
        Ok(v) => (true, f(v)),
        Err(_) => (false, (Answer::None, None)),
    };
    OpRec {
        kind,
        client,
        item,
        start_ns,
        lat_ns,
        ok,
        answer,
        io,
        sample,
    }
}

/// Checks read answers against precomputed expectations.
struct Expected {
    topk: Vec<Vec<(u64, f64)>>,
    ranked: Vec<Vec<(u64, f64)>>,
    window: Vec<Vec<u64>>,
}

fn check_reads(ops: &[OpRec], exp: &Expected, out: &mut Vec<String>) {
    for op in ops.iter().filter(|o| o.ok) {
        let good = match (&op.answer, op.kind) {
            (Answer::Dist(a), Kind::Topk) => *a == exp.topk[op.item],
            (Answer::Scored(a), Kind::Ranked) => same_ranking(a, &exp.ranked[op.item]),
            (Answer::Ids(a), Kind::Window) => *a == exp.window[op.item],
            _ => true,
        };
        if !good {
            out.push(format!("{:?} query {} answered wrongly", op.kind, op.item));
        }
    }
}

/// Ranked answers agree when their score sequences are bitwise equal and
/// every score group above the last (which `k` may cut) holds the same ids.
fn same_ranking(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    if a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.1.to_bits() != y.1.to_bits()) {
        return false;
    }
    let Some(last) = a.last().map(|x| x.1.to_bits()) else {
        return true;
    };
    let ids = |v: &[(u64, f64)]| {
        let mut ids: Vec<(u64, u64)> = v
            .iter()
            .filter(|x| x.1.to_bits() != last)
            .map(|x| (x.1.to_bits(), x.0))
            .collect();
        ids.sort_unstable();
        ids
    };
    ids(a) == ids(b)
}

/// Expected answers: brute force for top-k and window queries, the
/// MIR²-Tree's answer for ranked ones. Computed outside every timed
/// section.
fn expect<D: BlockDevice + 'static>(
    reference: &Reference,
    db: Option<&SpatialKeywordDb<D>>,
    topk: &[DistanceFirstQuery<2>],
    ranked: &[GeneralQuery<2>],
    window: &[(Rect<2>, Vec<String>)],
    mismatches: &mut Vec<String>,
) -> Expected {
    for q in topk.iter().take(8) {
        if !reference.agrees_with_oracle(q) {
            mismatches.push("the reference disagrees with ir2-oracle".into());
        }
    }
    let rank = LinearRank::default();
    Expected {
        topk: topk.iter().map(|q| reference.topk(q)).collect(),
        ranked: ranked
            .iter()
            .map(|q| {
                let db = db.expect("ranked queries run on a monolithic database");
                match db.general_ranked(Algorithm::Mir2, q, &SaturatingTfIdf, &rank) {
                    Ok(r) => r.results.iter().map(|s| (s.object.id, s.score)).collect(),
                    Err(e) => {
                        mismatches.push(format!("MIR2 reference query failed: {e}"));
                        Vec::new()
                    }
                }
            })
            .collect(),
        window: window.iter().map(|(r, k)| reference.window(r, k)).collect(),
    }
}

/// Fills the IR²-Tree's node cache with every node.
fn fill_cache<D: BlockDevice + 'static>(db: &SpatialKeywordDb<D>) -> ir2tree::storage::Result<()> {
    let tree = db.ir2_tree();
    let mut stack: Vec<u64> = tree.root().into_iter().collect();
    while let Some(id) = stack.pop() {
        let (node, _) = tree.read_node_cached(id)?;
        if !node.is_leaf() {
            stack.extend(node.children());
        }
    }
    Ok(())
}

fn timed_setup<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f(rep));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

fn wrap_devices<X: BlockDevice>(
    set: DeviceSet<X>,
    shard: usize,
    registry: &mut Vec<TimedDevice<X>>,
) -> DeviceSet<TimedDevice<X>> {
    set.map(|role, d| {
        let t = TimedDevice::new(d, shard, Role::from_name(role));
        registry.push(t.clone());
        t
    })
}

fn facts_of<D: BlockDevice + 'static>(
    db: &SpatialKeywordDb<D>,
    cache: usize,
) -> Vec<(String, String)> {
    let s = db.index_sizes();
    vec![
        ("objects".into(), db.build_stats().objects.to_string()),
        ("objects_bytes".into(), s.objects.to_string()),
        ("ir2_bytes".into(), s.ir2.to_string()),
        ("mir2_bytes".into(), s.mir2.to_string()),
        ("rtree_bytes".into(), s.rtree.to_string()),
        ("inverted_bytes".into(), s.iio.to_string()),
        ("node_cache_nodes".into(), cache.to_string()),
        ("sig_bytes".into(), db.config().sig_bytes.to_string()),
    ]
}

// ----------------------------------------------------------------------
// cold_topk
// ----------------------------------------------------------------------

pub fn cold_topk(p: &Params) -> RunOut {
    let (spec, objs) = data::dataset(DatasetSpec::restaurants(), p.objects(RESTAURANT_OBJECTS));
    let pool = data::topk_pool(&spec, &objs, TOPK_POOL, p.seed);
    let reference = Reference::new(&objs);
    let dir = p.dir.join("cold");
    // Built into a directory, then reopened: the node cache stays off.
    let build = || {
        let _ = std::fs::remove_dir_all(&dir);
        let set = DeviceSet::create_in_dir(&dir).expect("create database files");
        drop(
            SpatialKeywordDb::build(set, objs.iter().cloned(), DbConfig::restaurants())
                .expect("build"),
        );
        DeviceSet::open_dir(&dir).expect("open database files")
    };
    let mut out = RunOut::new(p.traced, data::live_bytes(objs.iter()));
    let exp = expect::<FileDevice>(&reference, None, &pool, &[], &[], &mut out.mismatches);
    if !p.traced {
        let (db, times) = timed_setup(SETUP_REPS, |_| {
            SpatialKeywordDb::open(build()).expect("reopen")
        });
        out.setup_s = times;
        out.facts = facts_of(&db, 0);
        out.device_bytes = structure_bytes(&db);
        let reads = Reads {
            db: &db,
            topk: &pool,
            ranked: &[],
            window: &[],
        };
        let (ops, elapsed) = closed_loop(1, p.seconds, p.seed, 0, |_, cur| {
            reads.topk(cur.take(0, pool.len()), cur.client, None)
        });
        out.push_phase(false, ops, elapsed);
    } else {
        let mut tracer = Tracer {
            devices: Vec::new(),
        };
        let (db, times) = timed_setup(1, |_| {
            SpatialKeywordDb::open(wrap_devices(build(), 0, &mut tracer.devices)).expect("reopen")
        });
        out.setup_s = times;
        out.facts = facts_of(&db, 0);
        out.device_bytes = structure_bytes(&db);
        let t = mono_tracer(&tracer);
        let reads = Reads {
            db: &db,
            topk: &pool,
            ranked: &[],
            window: &[],
        };
        for traced in [false, true] {
            device::set_tracing(traced);
            let cb: Trace<'_, TimedDevice<FileDevice>> = traced.then_some(&*t);
            let (ops, elapsed) =
                closed_loop(1, p.phase_seconds(), p.seed, traced as u64, |_, cur| {
                    reads.topk(cur.take(0, pool.len()), cur.client, cb)
                });
            out.push_phase(traced, ops, elapsed);
        }
        device::set_tracing(false);
    }
    out.check_reads(&exp);
    out
}

// ----------------------------------------------------------------------
// warm_mixed
// ----------------------------------------------------------------------

const WARM_CLIENTS: usize = 2;

/// 80 % top-k, 15 % ranked, 5 % keyword-window.
fn warm_op<D: BlockDevice + 'static>(
    reads: &Reads<'_, D>,
    rng: &mut Rng,
    cur: &mut Cursor,
    traced: Trace<'_, D>,
) -> OpRec {
    match rng.below(100) {
        0..80 => reads.topk(cur.take(0, reads.topk.len()), cur.client, traced),
        80..95 => reads.ranked(cur.take(1, reads.ranked.len()), cur.client, traced),
        _ => reads.window(cur.take(2, reads.window.len()), cur.client, traced),
    }
}

fn mem_set() -> DeviceSet<Arc<MemDevice>> {
    DeviceSet::in_memory().map(|_, d| Arc::new(d))
}

pub fn warm_mixed(p: &Params) -> RunOut {
    let (spec, objs) = data::dataset(DatasetSpec::hotels(), p.objects(HOTEL_OBJECTS));
    let topk = data::topk_pool(&spec, &objs, TOPK_POOL, p.seed);
    let ranked = data::ranked_pool(&spec, &objs, SIDE_POOL, p.seed);
    let window = data::window_pool(&spec, &objs, SIDE_POOL, p.seed);
    let reference = Reference::new(&objs);
    let cfg = DbConfig::hotels().with_node_cache(WHOLE_TREE_CACHE);
    // Built in memory; filling the cache with every node is set-up work.
    fn build<D: BlockDevice + 'static>(
        set: DeviceSet<D>,
        objs: &[SpatialObject<2>],
        cfg: &DbConfig,
    ) -> SpatialKeywordDb<D> {
        let db = SpatialKeywordDb::build(set, objs.iter().cloned(), cfg.clone()).expect("build");
        fill_cache(&db).expect("fill the node cache");
        db
    }
    let mut out = RunOut::new(p.traced, data::live_bytes(objs.iter()));
    let set = mem_set();
    if !p.traced {
        let (db, times) = timed_setup(SETUP_REPS, |rep| {
            build(
                if rep + 1 == SETUP_REPS {
                    set.clone()
                } else {
                    mem_set()
                },
                &objs,
                &cfg,
            )
        });
        out.setup_s = times;
        out.facts = facts_of(&db, WHOLE_TREE_CACHE);
        out.device_bytes = structure_bytes(&db);
        let exp = expect(
            &reference,
            Some(&db),
            &topk,
            &ranked,
            &window,
            &mut out.mismatches,
        );
        let reads = Reads {
            db: &db,
            topk: &topk,
            ranked: &ranked,
            window: &window,
        };
        let (ops, elapsed) = closed_loop(WARM_CLIENTS, p.seconds, p.seed, 0, |rng, cur| {
            warm_op(&reads, rng, cur, None)
        });
        out.push_phase(false, ops, elapsed);
        out.check_reads(&exp);
    } else {
        let mut tracer = Tracer {
            devices: Vec::new(),
        };
        let (db, times) = timed_setup(1, |_| {
            build(
                wrap_devices(set.clone(), 0, &mut tracer.devices),
                &objs,
                &cfg,
            )
        });
        out.setup_s = times;
        out.facts = facts_of(&db, WHOLE_TREE_CACHE);
        out.device_bytes = structure_bytes(&db);
        let exp = expect(
            &reference,
            Some(&db),
            &topk,
            &ranked,
            &window,
            &mut out.mismatches,
        );
        let t = mono_tracer(&tracer);
        let reads = Reads {
            db: &db,
            topk: &topk,
            ranked: &ranked,
            window: &window,
        };
        for traced in [false, true] {
            device::set_tracing(traced);
            let cb: Trace<'_, TimedDevice<Arc<MemDevice>>> = traced.then_some(&*t);
            let (ops, elapsed) = closed_loop(
                WARM_CLIENTS,
                p.phase_seconds(),
                p.seed,
                traced as u64,
                |rng, cur| warm_op(&reads, rng, cur, cb),
            );
            out.push_phase(traced, ops, elapsed);
        }
        device::set_tracing(false);
        out.check_reads(&exp);
    }
    out
}

// ----------------------------------------------------------------------
// write_mix
// ----------------------------------------------------------------------

/// The write_mix client: 90 % top-k, 10 % inserts of fresh objects, and a
/// commit after every `COMMIT_EVERY` inserts. Deletes are left out: one
/// delete can dissolve an internal node and reinsert thousands of objects
/// one by one (see `METHOD.md`), which makes a run's time and memory
/// unbounded.
struct Writer<'a> {
    pool: &'a [DistanceFirstQuery<2>],
    fresh: &'a [SpatialObject<2>],
    next_fresh: usize,
    /// Structure bytes when the `SPACE_AT_INSERTS`-th insert committed.
    space_bytes: Option<u64>,
}

impl Writer<'_> {
    fn step<D: BlockDevice + 'static>(
        &mut self,
        db: &mut SpatialKeywordDb<D>,
        rng: &mut Rng,
        cur: &mut Cursor,
        traced: Trace<'_, D>,
        ops: &mut Vec<OpRec>,
    ) {
        if rng.below(10) != 0 {
            let reads = Reads {
                db: &*db,
                topk: self.pool,
                ranked: &[],
                window: &[],
            };
            ops.push(reads.topk(cur.take(0, self.pool.len()), 1, traced));
            return;
        }
        let i = self.next_fresh;
        self.next_fresh += 1;
        let (r, _, start_ns, lat_ns) = timed(|_| db.insert(&self.fresh[i]));
        let sample = traced.map(|t| t(Some(&*db), None, QuerySigs::None, lat_ns));
        ops.push(rec(Kind::Insert, 1, i, start_ns, lat_ns, sample, r, |_| {
            (Answer::None, None)
        }));
        if self.next_fresh.is_multiple_of(COMMIT_EVERY) {
            ops.push(commit(db, traced));
            if self.next_fresh == SPACE_AT_INSERTS {
                self.space_bytes = Some(structure_bytes(db));
            }
        }
    }
}

fn commit<D: BlockDevice + 'static>(db: &SpatialKeywordDb<D>, traced: Trace<'_, D>) -> OpRec {
    let (r, _, start_ns, lat_ns) = timed(|_| db.save_catalog());
    let sample = traced.map(|t| t(Some(db), None, QuerySigs::None, lat_ns));
    rec(Kind::Commit, 1, 0, start_ns, lat_ns, sample, r, |_| {
        (Answer::None, None)
    })
}

/// Runs write_mix's phases on `db`, ending with a final commit.
fn write_phases<D: BlockDevice + 'static>(
    p: &Params,
    db: &mut SpatialKeywordDb<D>,
    writer: &mut Writer<'_>,
    tracer: Trace<'_, D>,
    out: &mut RunOut,
) {
    device::set_client(1);
    let mut cur = Cursor::new(1, 1);
    let phases: &[bool] = if p.traced { &[false, true] } else { &[false] };
    for &traced in phases {
        device::set_tracing(traced);
        let cb = if traced { tracer } else { None };
        let mut rng = Rng::new(p.seed, 100 + traced as u64);
        let mut ops = Vec::new();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < p.phase_seconds()
            && writer.next_fresh < writer.fresh.len()
        {
            writer.step(db, &mut rng, &mut cur, cb, &mut ops);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        out.push_phase(traced, ops, elapsed);
    }
    device::set_tracing(false);
    let last = commit(db, None);
    if !last.ok {
        out.mismatches.push("the final commit failed".into());
    }
}

pub fn write_mix(p: &Params) -> RunOut {
    let (spec, objs) = data::dataset(DatasetSpec::restaurants(), p.objects(RESTAURANT_OBJECTS));
    let pool = data::topk_pool(&spec, &objs, TOPK_POOL, p.seed);
    let fresh = data::fresh_objects(&spec, FRESH_OBJECTS, p.seed, 1 << 40);
    let cfg = DbConfig::restaurants().with_node_cache(WHOLE_TREE_CACHE);
    let mut reference = Reference::new(&objs);
    let mut out = RunOut::new(p.traced, 0);
    if !pool.iter().take(8).all(|q| reference.agrees_with_oracle(q)) {
        out.mismatches
            .push("the reference disagrees with ir2-oracle".into());
    }
    let mut writer = Writer {
        pool: &pool,
        fresh: &fresh,
        next_fresh: 0,
        space_bytes: None,
    };
    let set = mem_set();
    if !p.traced {
        let (mut db, times) = timed_setup(SETUP_REPS, |rep| {
            let devs = if rep + 1 == SETUP_REPS {
                set.clone()
            } else {
                mem_set()
            };
            SpatialKeywordDb::build(devs, objs.iter().cloned(), cfg.clone()).expect("build")
        });
        out.setup_s = times;
        out.facts = facts_of(&db, WHOLE_TREE_CACHE);
        write_phases(p, &mut db, &mut writer, None, &mut out);
    } else {
        let mut tracer = Tracer {
            devices: Vec::new(),
        };
        let (mut db, times) = timed_setup(1, |_| {
            let devs = wrap_devices(set.clone(), 0, &mut tracer.devices);
            SpatialKeywordDb::build(devs, objs.iter().cloned(), cfg.clone()).expect("build")
        });
        out.setup_s = times;
        out.facts = facts_of(&db, WHOLE_TREE_CACHE);
        let t = mono_tracer(&tracer);
        let cb: Trace<'_, TimedDevice<Arc<MemDevice>>> = Some(&*t);
        write_phases(p, &mut db, &mut writer, cb, &mut out);
    }

    // Replay the log in time order against the reference: each top-k
    // answer must equal the brute-force answer over the objects live then.
    let mut log: Vec<&OpRec> = out
        .baseline
        .iter()
        .chain(&out.ops)
        .filter(|o| o.ok)
        .collect();
    log.sort_by_key(|o| o.start_ns);
    let mut wrong = 0usize;
    for op in log {
        match (op.kind, &op.answer) {
            (Kind::Insert, _) => reference.insert(fresh[op.item].clone()),
            (Kind::Topk, Answer::Dist(a)) => {
                wrong += (*a != reference.topk(&pool[op.item])) as usize
            }
            _ => {}
        }
    }
    if wrong > 0 {
        out.mismatches
            .push(format!("{wrong} top-k answers disagree with the reference"));
    }

    // Durability: after the final commit, reopen from the same devices;
    // every committed insert must show in the checked queries — the pool,
    // plus one query at each inserted object for its own word.
    match SpatialKeywordDb::open(set.clone()) {
        Ok(db) => {
            let mut qs = pool.clone();
            for o in &fresh[..writer.next_fresh] {
                if let Some(w) = ir2tree::text::tokenize(&o.text).next() {
                    qs.push(DistanceFirstQuery::new(o.point, &[w], data::K));
                }
            }
            for q in &qs {
                match db.distance_first(Algorithm::Ir2, q) {
                    Ok(r) if dists(&r) == reference.topk(q) => {}
                    Ok(_) => out
                        .mismatches
                        .push("a committed write is not visible after reopening".into()),
                    Err(e) => out
                        .mismatches
                        .push(format!("a query after reopening failed: {e}")),
                }
            }
        }
        Err(e) => out
            .mismatches
            .push(format!("reopening after the final commit failed: {e}")),
    }
    // Space after `SPACE_AT_INSERTS` inserts, or at the end of a run too
    // short to reach them (the smoke test).
    match writer.space_bytes {
        Some(bytes) => {
            out.device_bytes = bytes;
            out.live_bytes = data::live_bytes(objs.iter().chain(&fresh[..SPACE_AT_INSERTS]));
        }
        None => {
            out.device_bytes =
                structure_bytes(&SpatialKeywordDb::open(set.clone()).expect("reopen"));
            out.live_bytes = data::live_bytes(reference.live());
        }
    }
    out
}

// ----------------------------------------------------------------------
// sharded_topk
// ----------------------------------------------------------------------

const GATHER_WORKERS: usize = 2;

fn sharded_op<D: BlockDevice + 'static>(
    db: &ShardedDb<D>,
    pool: &[DistanceFirstQuery<2>],
    i: usize,
    client: u32,
    traced: Trace<'_, D>,
) -> OpRec {
    let q = &pool[i];
    let (r, _, start_ns, lat_ns) =
        timed(|_| db.distance_first_parallel(Algorithm::Ir2, q, GATHER_WORKERS));
    let sample = traced.map(|t| t(None, None, QuerySigs::All(q.keywords.clone()), lat_ns));
    rec(Kind::Topk, client, i, start_ns, lat_ns, sample, r, |r| {
        (Answer::Dist(dists(r)), Some(io_of(r)))
    })
}

pub fn sharded_topk(p: &Params) -> RunOut {
    let (spec, objs) = data::dataset(DatasetSpec::restaurants(), p.objects(RESTAURANT_OBJECTS));
    let pool = data::topk_pool(&spec, &objs, TOPK_POOL, p.seed);
    let reference = Reference::new(&objs);
    let dir = p.dir.join("sharded");
    // Built on disk as shards, then reopened.
    let create = || {
        let _ = std::fs::remove_dir_all(&dir);
        let db =
            ShardedDb::create_in_dir(&dir, objs.iter().cloned(), DbConfig::restaurants(), SHARDS);
        drop(db.expect("build shards"));
    };
    let mut out = RunOut::new(p.traced, data::live_bytes(objs.iter()));
    let exp = expect::<FileDevice>(&reference, None, &pool, &[], &[], &mut out.mismatches);
    out.facts = vec![
        ("objects".into(), objs.len().to_string()),
        ("shards".into(), SHARDS.to_string()),
        ("replicas".into(), "1".into()),
        ("gather_workers".into(), GATHER_WORKERS.to_string()),
        ("node_cache_nodes".into(), "0".into()),
    ];
    if !p.traced {
        let (db, times) = timed_setup(SETUP_REPS, |_| {
            create();
            ShardedDb::open_dir(&dir).expect("open shards")
        });
        out.setup_s = times;
        out.device_bytes = db.shards().map(structure_bytes).sum();
        let (ops, elapsed) = closed_loop(1, p.seconds, p.seed, 0, |_, cur| {
            sharded_op(&db, &pool, cur.take(0, pool.len()), cur.client, None)
        });
        out.push_phase(false, ops, elapsed);
    } else {
        let mut tracer = Tracer {
            devices: Vec::new(),
        };
        let (db, times) = timed_setup(1, |_| {
            create();
            let mut shard = 0usize;
            let mut first = true;
            ShardedDb::open_dir_mapped(&dir, |role, d| {
                // Roles arrive in `DeviceSet::map` order, shard by shard,
                // each shard starting with its object file.
                if role == "objects" && !std::mem::take(&mut first) {
                    shard += 1;
                }
                let t = TimedDevice::new(d, shard, Role::from_name(role));
                tracer.devices.push(t.clone());
                t
            })
            .expect("open shards")
        });
        out.setup_s = times;
        out.device_bytes = db.shards().map(structure_bytes).sum();
        let shards: Vec<_> = db.shards().collect();
        // The sharded engine takes no sink; its shards come from the tracer.
        let t: Box<TraceFn<'_, TimedDevice<FileDevice>>> = Box::new(|_, _, sigs, wall| {
            tracer.analyze(&shards, &device::take_spans(), None, sigs, wall)
        });
        for traced in [false, true] {
            device::set_tracing(traced);
            let cb: Trace<'_, TimedDevice<FileDevice>> = traced.then_some(&*t);
            let (ops, elapsed) =
                closed_loop(1, p.phase_seconds(), p.seed, traced as u64, |_, cur| {
                    sharded_op(&db, &pool, cur.take(0, pool.len()), cur.client, cb)
                });
            out.push_phase(traced, ops, elapsed);
        }
        device::set_tracing(false);
    }
    out.check_reads(&exp);
    out
}

impl RunOut {
    fn new(traced: bool, live_bytes: u64) -> Self {
        RunOut {
            traced,
            setup_s: Vec::new(),
            baseline: Vec::new(),
            ops: Vec::new(),
            elapsed_s: 0.0,
            mismatches: Vec::new(),
            device_bytes: 0,
            live_bytes,
            facts: Vec::new(),
        }
    }

    /// Files a phase's records: a traced run's untraced phase is the
    /// overhead baseline; every other phase is the measured one.
    fn push_phase(&mut self, phase_traced: bool, ops: Vec<OpRec>, elapsed: f64) {
        if self.traced && !phase_traced {
            self.baseline = ops;
        } else {
            self.ops = ops;
            self.elapsed_s = elapsed;
        }
    }

    fn check_reads(&mut self, exp: &Expected) {
        let mut wrong = Vec::new();
        check_reads(&self.ops, exp, &mut wrong);
        check_reads(&self.baseline, exp, &mut wrong);
        self.mismatches.extend(wrong);
    }

    pub fn setup_median(&self) -> f64 {
        median(self.setup_s.clone())
    }
}
