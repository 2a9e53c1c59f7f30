//! Warm-path speedup guard for the decoded-node cache.
//!
//! Runs one distance-first workload against two otherwise identical
//! in-memory databases — one bare, one with a decoded-node cache — and
//! reports two numbers:
//!
//! * **warm speedup**: repeat-pass wall time, bare vs cached. A warm
//!   cached visit skips the page checksum and the entry deserialization
//!   entirely, so this is the tentpole's payoff (target ≥ 1.5×;
//!   `--assert-min-speedup X` turns it into a hard gate).
//! * **cold overhead**: first-touch pass on a freshly reset cache vs
//!   bare. Every visit misses, so this prices the cache bookkeeping
//!   (shard lock + LRU insert) on the path that gains nothing (target
//!   ≤ 2%; `--assert-max-cold PCT` gates it).
//!
//! Results are asserted byte-identical between the two databases on every
//! pass — the cache may change where bytes come from, never the answer.
//!
//! Usage:
//!   warm_topk [--scale F] [--queries N] [--k K] [--reps R]
//!             [--sig-bytes B] [--cache NODES]
//!             [--assert-min-speedup X] [--assert-max-cold PCT] [--out FILE]

use std::time::Instant;

use ir2_bench::workload;
use ir2_datagen::DatasetSpec;
use ir2tree::model::DistanceFirstQuery;
use ir2tree::{Algorithm, DbConfig, DeviceSet, SpatialKeywordDb};

struct Args {
    scale: f64,
    queries: usize,
    k: usize,
    reps: usize,
    sig_bytes: usize,
    cache: usize,
    assert_min_speedup: Option<f64>,
    assert_max_cold: Option<f64>,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.02,
        queries: 96,
        k: 10,
        reps: 5,
        sig_bytes: 32,
        cache: 4096,
        assert_min_speedup: None,
        assert_max_cold: None,
        out: "BENCH_warm_topk.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut next = |what: &str| it.next().unwrap_or_else(|| panic!("{arg} needs {what}"));
        match arg.as_str() {
            "--scale" => args.scale = next("F").parse().expect("scale factor"),
            "--queries" => args.queries = next("N").parse().expect("query count"),
            "--k" => args.k = next("K").parse().expect("k"),
            "--reps" => args.reps = next("R").parse().expect("rep count"),
            "--sig-bytes" => args.sig_bytes = next("B").parse().expect("signature bytes"),
            "--cache" => args.cache = next("NODES").parse().expect("cache size"),
            "--assert-min-speedup" => {
                args.assert_min_speedup = Some(next("X").parse().expect("speedup factor"))
            }
            "--assert-max-cold" => {
                args.assert_max_cold = Some(next("PCT").parse().expect("percent"))
            }
            "--out" => args.out = next("FILE"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    args
}

type MemDb = SpatialKeywordDb<ir2tree::storage::MemDevice>;

/// One full pass; returns wall seconds and asserts results match `truth`
/// when given.
fn one_pass(
    db: &MemDb,
    queries: &[DistanceFirstQuery<2>],
    truth: Option<&[Vec<(u64, u64)>]>,
) -> f64 {
    let t0 = Instant::now();
    for (i, q) in queries.iter().enumerate() {
        let r = db.distance_first(Algorithm::Ir2, q).expect("query");
        if let Some(truth) = truth {
            let got: Vec<(u64, u64)> = r.results.iter().map(|(o, d)| (o.id, d.to_bits())).collect();
            assert_eq!(got, truth[i], "cached answer diverged on query {i}");
        }
        std::hint::black_box(r.results.len());
    }
    t0.elapsed().as_secs_f64()
}

/// Best-of-R warm passes (cache state persists across reps).
fn measure_warm(
    db: &MemDb,
    queries: &[DistanceFirstQuery<2>],
    reps: usize,
    truth: Option<&[Vec<(u64, u64)>]>,
) -> f64 {
    one_pass(db, queries, truth); // warm-up
    (0..reps.max(1))
        .map(|_| one_pass(db, queries, truth))
        .fold(f64::INFINITY, f64::min)
}

/// Best-of-R cold passes: the cache is cleared before **every query**
/// with the timer stopped, so each timed query sees an empty cache and
/// every node visit misses (a distance-first traversal visits each node
/// at most once). This prices the per-visit miss tax — lookup, `Arc`
/// wrap, LRU insert — without the amortizable wipe bookkeeping.
fn measure_cold(db: &MemDb, queries: &[DistanceFirstQuery<2>], reps: usize) -> f64 {
    let cache = db.ir2_tree().node_cache().expect("cache attached").clone();
    let cold_pass = || {
        let mut total = 0.0;
        for q in queries {
            cache.clear(); // untimed: invalidation cost is the writer's
            let t0 = Instant::now();
            let r = db.distance_first(Algorithm::Ir2, q).expect("query");
            total += t0.elapsed().as_secs_f64();
            std::hint::black_box(r.results.len());
        }
        total
    };
    cold_pass(); // warm-up (branch predictors, allocator)
    let best = (0..reps.max(1))
        .map(|_| cold_pass())
        .fold(f64::INFINITY, f64::min);
    cache.clear(); // leave no pre-measurement state behind
    best
}

fn main() {
    let args = parse_args();
    let spec = DatasetSpec::restaurants().scaled(args.scale);
    let config = DbConfig {
        sig_bytes: args.sig_bytes,
        ..DbConfig::default()
    };
    eprintln!(
        "[build] {} ({} objects) twice…",
        spec.name, spec.num_objects
    );
    let bare = SpatialKeywordDb::build(DeviceSet::in_memory(), spec.generate(), config.clone())
        .expect("bare build");
    let cached = SpatialKeywordDb::build(
        DeviceSet::in_memory(),
        spec.generate(),
        config.with_node_cache(args.cache),
    )
    .expect("cached build");
    let queries = workload(&spec, args.queries, 2, args.k);

    // Ground truth from the bare database, compared on every cached pass.
    let truth: Vec<Vec<(u64, u64)>> = queries
        .iter()
        .map(|q| {
            bare.distance_first(Algorithm::Ir2, q)
                .expect("query")
                .results
                .iter()
                .map(|(o, d)| (o.id, d.to_bits()))
                .collect()
        })
        .collect();

    let t_bare = measure_warm(&bare, &queries, args.reps, None);
    let t_cold = measure_cold(&cached, &queries, args.reps);
    let t_warm = measure_warm(&cached, &queries, args.reps, Some(&truth));

    let speedup = t_bare / t_warm;
    let cold_pct = (t_cold / t_bare - 1.0) * 100.0;
    let (hits, misses) = cached
        .node_cache_stats()
        .iter()
        .find(|(t, _, _)| *t == "ir2")
        .map(|&(_, h, m)| (h, m))
        .unwrap_or((0, 0));

    println!(
        "# decoded-node cache warm/cold paths ({} queries x k={}, sig {} B, cache {} nodes, best of {} reps)",
        queries.len(),
        args.k,
        args.sig_bytes,
        args.cache,
        args.reps
    );
    println!("{:>14} | {:>10} | {:>9}", "path", "wall (ms)", "vs bare");
    println!("{}", "-".repeat(40));
    println!("{:>14} | {:>10.2} | {:>9}", "bare", t_bare * 1e3, "—");
    println!(
        "{:>14} | {:>10.2} | {:>+8.1}%",
        "cached (cold)",
        t_cold * 1e3,
        cold_pct
    );
    println!(
        "{:>14} | {:>10.2} | {:>8.2}x",
        "cached (warm)",
        t_warm * 1e3,
        speedup
    );
    println!(
        "# ir2 cache totals this process: {hits} hits / {misses} misses ({:.1}% hit rate)",
        100.0 * hits as f64 / (hits + misses).max(1) as f64
    );

    let json = format!(
        "{{\n  \"benchmark\": \"warm_topk\",\n  \"dataset\": \"{}\",\n  \"objects\": {},\n  \"queries\": {},\n  \"k\": {},\n  \"reps\": {},\n  \"sig_bytes\": {},\n  \"cache_nodes\": {},\n  \"wall_ms\": {{\"bare\": {:.3}, \"cached_cold\": {:.3}, \"cached_warm\": {:.3}}},\n  \"warm_speedup\": {:.3},\n  \"cold_overhead_pct\": {:.2},\n  \"cache\": {{\"hits\": {hits}, \"misses\": {misses}}}\n}}\n",
        spec.name,
        spec.num_objects,
        queries.len(),
        args.k,
        args.reps,
        args.sig_bytes,
        args.cache,
        t_bare * 1e3,
        t_cold * 1e3,
        t_warm * 1e3,
        speedup,
        cold_pct,
    );
    std::fs::write(&args.out, json).expect("write json");
    eprintln!("[out] wrote {}", args.out);

    if let Some(min) = args.assert_min_speedup {
        assert!(
            speedup >= min,
            "warm speedup {speedup:.2}x is below the {min}x floor"
        );
        eprintln!("[gate] warm speedup {speedup:.2}x ≥ {min}x — ok");
    }
    if let Some(max) = args.assert_max_cold {
        assert!(
            cold_pct <= max,
            "cold-path overhead {cold_pct:.1}% exceeds the {max}% budget"
        );
        eprintln!("[gate] cold overhead {cold_pct:.1}% ≤ {max}% — ok");
    }
}
