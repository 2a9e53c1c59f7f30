//! The benchmark of record for the ir2tree workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>]
//! ```
//!
//! Runs one workload (see `METHOD.md` for why each exists), checks every
//! answer, and prints as its last line one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics measured from
//! outside the program (`--trace 1`). `--scale` shrinks the datasets for
//! the smoke test. A wrong answer, a failed durability check or a trace
//! that does not reconcile exits with status 1.

mod data;
mod device;
mod layers;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;

use workload::{Kind, OpRec, Params, RunOut};

/// End-to-end metrics: name, unit.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("topk_p50_ms", "ms"),
    ("topk_p99_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("qps", "1/s"),
    ("blocks_per_query", "count"),
    ("sim_ms_per_query", "ms"),
    ("objects_per_query", "count"),
    ("peak_rss_mb", "MB"),
    ("space_amp", "ratio"),
];

/// Per-layer metrics (per traced operation): name, unit.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("storage.read_us", "us"),
    ("storage.verify_us", "us"),
    ("storage.node_reads", "count"),
    ("storage.object_reads", "count"),
    ("storage.random_share", "ratio"),
    ("storage.block_writes", "count"),
    ("storage.write_us", "us"),
    ("rtree.nodes_read", "count"),
    ("rtree.decode_us", "us"),
    ("rtree.cache_hit_ratio", "ratio"),
    ("sigfile.mask_us", "us"),
    ("sigfile.sig_tests", "count"),
    ("sigfile.prune_ratio", "ratio"),
    ("irtree.entries_scanned", "count"),
    ("irtree.max_heap", "count"),
    ("irtree.self_us", "us"),
    ("model.object_loads", "count"),
    ("model.load_us", "us"),
    ("model.false_positive_ratio", "ratio"),
    ("core.shard_max_us", "us"),
    ("core.gather_us", "us"),
    ("core.shard_skew", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_share", "ratio"),
];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--scale <f>]",
        workload::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value for {flag}: {value}")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace, mut scale) =
        (None, 1u64, 10.0f64, false, 1.0f64);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = parse(&flag, &value),
            "--seconds" => seconds = parse(&flag, &value),
            "--trace" => trace = parse::<u8>(&flag, &value) != 0,
            "--scale" => scale = parse(&flag, &value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let name = name.unwrap_or_else(|| usage("--workload is required"));
    let run: fn(&Params) -> RunOut = match name.as_str() {
        "cold_topk" => workload::cold_topk,
        "warm_mixed" => workload::warm_mixed,
        "write_mix" => workload::write_mix,
        "sharded_topk" => workload::sharded_topk,
        _ => usage(&format!("unknown workload {name}")),
    };
    if !(seconds > 0.0 && scale > 0.0) {
        usage("--seconds and --scale must be positive");
    }

    // Scratch space inside the checkout, next to the build output.
    let base = PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
    );
    let dir = base.join(format!("perfbench-run-{}", std::process::id()));
    let params = Params {
        seed,
        seconds,
        scale,
        traced: trace,
        dir: dir.clone(),
    };
    let out = run(&params);
    let _ = std::fs::remove_dir_all(&dir);

    let mut mismatches = out.mismatches.clone();
    let metrics = if trace {
        let (m, problems) = per_layer(&out);
        mismatches.extend(problems);
        if let Err(e) = write_spans(
            &base.join(format!("perfbench-trace-{name}-seed{seed}.jsonl")),
            &out,
        ) {
            mismatches.push(format!("writing the span log failed: {e}"));
        }
        m
    } else {
        end_to_end(&out)
    };
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };

    println!(
        "workload {name} seed {seed} seconds {seconds} trace {}",
        trace as u8
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let facts: Vec<String> = std::iter::once(format!("host_cores={cores}"))
        .chain(out.facts.iter().map(|(k, v)| format!("{k}={v}")))
        .collect();
    println!("facts {}", facts.join(" "));
    for (k, v) in &metrics {
        let unit = table.iter().find(|m| m.0 == *k).map_or("", |m| m.1);
        println!("  {k:<28} {:>14.4} {unit}", v + 0.0);
    }
    if !trace {
        for line in op_breakdown(&out) {
            println!("  {line}");
        }
    }
    for m in mismatches.iter().take(20) {
        eprintln!("perfbench: CHECK FAILED: {m}");
    }
    if mismatches.len() > 20 {
        eprintln!(
            "perfbench: … and {} more failed checks",
            mismatches.len() - 20
        );
    }

    let attempted = out.ops.len().max(1);
    let failed = out.ops.iter().filter(|o| !o.ok).count();
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        mismatches.is_empty()
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let v = metrics.iter().find(|m| m.0 == *name).map_or(0.0, |m| m.1);
        // `+ 0.0` turns an empty sum's -0.0 into 0.
        let v = if v.is_finite() { v + 0.0 } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    if !mismatches.is_empty() {
        std::process::exit(1);
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn latencies_ms<'a>(ops: impl Iterator<Item = &'a OpRec>) -> Vec<f64> {
    let mut v: Vec<f64> = ops
        .filter(|o| o.ok)
        .map(|o| o.lat_ns as f64 / 1e6)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

fn of_kind(ops: &[OpRec], kind: Kind) -> Vec<f64> {
    latencies_ms(ops.iter().filter(|o| o.kind == kind))
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The timed window is cut into this many equal slices for the tail
/// percentiles: each slice's 99th percentile is computed and the median
/// slice is reported, so a burst of noise from the rest of the host that
/// touches one or two slices does not decide the tail. At 20 s a slice
/// holds over a thousand operations on every workload.
const SLICES: usize = 5;

/// The median over the run's time slices of `f(slice's ops)`.
fn per_slice(out: &RunOut, f: impl Fn(&[&OpRec]) -> f64) -> f64 {
    let t0 = out.ops.iter().map(|o| o.start_ns).min().unwrap_or(0);
    let width = (out.elapsed_s * 1e9 / SLICES as f64).max(1.0);
    let mut slices: Vec<Vec<&OpRec>> = vec![Vec::new(); SLICES];
    for o in &out.ops {
        let i = ((o.start_ns - t0) as f64 / width) as usize;
        slices[i.min(SLICES - 1)].push(o);
    }
    let mut values: Vec<f64> = slices.iter().map(|ops| f(ops)).collect();
    values.sort_by(f64::total_cmp);
    values[SLICES / 2]
}

fn end_to_end(out: &RunOut) -> Vec<(&'static str, f64)> {
    let tail = |ops: &[&OpRec], kind: Option<Kind>| {
        let ops = ops
            .iter()
            .copied()
            .filter(|o| kind.is_none_or(|k| o.kind == k));
        percentile(&latencies_ms(ops), 0.99)
    };
    // The paper's counts, over each distinct query's first run, so they do
    // not depend on how many queries the time allowed.
    let mut seen = std::collections::HashSet::new();
    let firsts: Vec<(u64, u64, u64, u64)> = out
        .ops
        .iter()
        .filter(|o| o.kind == Kind::Topk && seen.insert(o.item))
        .filter_map(|o| o.io)
        .collect();
    let mean = |f: fn(&(u64, u64, u64, u64)) -> u64| {
        firsts.iter().map(|x| f(x) as f64).sum::<f64>() / firsts.len().max(1) as f64
    };
    vec![
        ("setup_s", out.setup_median()),
        (
            "topk_p50_ms",
            percentile(&of_kind(&out.ops, Kind::Topk), 0.50),
        ),
        (
            "topk_p99_ms",
            per_slice(out, |ops| tail(ops, Some(Kind::Topk))),
        ),
        ("op_p99_ms", per_slice(out, |ops| tail(ops, None))),
        (
            "qps",
            out.ops.iter().filter(|o| o.ok).count() as f64 / out.elapsed_s.max(1e-9),
        ),
        ("blocks_per_query", mean(|x| x.0)),
        ("sim_ms_per_query", mean(|x| x.1) / 1e6),
        ("objects_per_query", mean(|x| x.2)),
        ("peak_rss_mb", peak_rss_mb()),
        (
            "space_amp",
            out.device_bytes as f64 / out.live_bytes.max(1) as f64,
        ),
    ]
}

/// Per-kind latencies the workload's mix has (human-readable lines).
fn op_breakdown(out: &RunOut) -> Vec<String> {
    let mut lines = Vec::new();
    let kinds = [
        ("topk", Kind::Topk),
        ("ranked", Kind::Ranked),
        ("window", Kind::Window),
        ("insert", Kind::Insert),
        ("commit", Kind::Commit),
    ];
    for (label, kind) in kinds {
        let v = of_kind(&out.ops, kind);
        if !v.is_empty() {
            lines.push(format!(
                "{label:<7} n={:<7} p50_ms={:.4} p99_ms={:.4}",
                v.len(),
                percentile(&v, 0.5),
                percentile(&v, 0.99)
            ));
        }
    }
    let failed = out.ops.iter().filter(|o| !o.ok).count();
    lines.push(format!(
        "error_rate {}",
        failed as f64 / out.ops.len().max(1) as f64
    ));
    lines
}

/// Replay times stand in for in-operation times and carry their own noise.
/// Where one layer does nearly all of an operation's work (the checksum
/// in a window query), attributed time lands within a few percent of the
/// wall time either side.
const RECONCILE_TOLERANCE: f64 = 0.10;

/// Per-layer metrics of the traced phase, and any reconciliation problem.
fn per_layer(out: &RunOut) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let traced: Vec<(&OpRec, &layers::Sample)> = out
        .ops
        .iter()
        .filter_map(|o| o.sample.as_ref().map(|s| (o, s)))
        .collect();
    let n = traced.len().max(1) as f64;
    let mean =
        |f: &dyn Fn(&layers::Sample) -> f64| traced.iter().map(|(_, s)| f(s)).sum::<f64>() / n;
    let us = |ns: u64| ns as f64 / 1e3;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // A ratio of sums over the operations that report both parts.
    let pooled = |f: &dyn Fn(&layers::Sample) -> Option<(f64, f64)>| {
        let (a, b) = traced
            .iter()
            .filter_map(|(_, s)| f(s))
            .fold((0.0, 0.0), |acc, x| (acc.0 + x.0, acc.1 + x.1));
        ratio(a, b)
    };

    // Object loads: the sink's fetch list, else the engine's own count.
    let objects: Vec<(f64, f64, Option<f64>)> = traced
        .iter()
        .filter_map(|(o, s)| match (s.objects, o.io) {
            (Some((loads, fp, ns)), _) => Some((loads as f64, fp as f64, Some(ns as f64))),
            (None, Some(io)) => Some((io.2 as f64, io.3 as f64, None)),
            _ => None,
        })
        .collect();
    let loads: f64 = objects.iter().map(|x| x.0).sum();
    let fps: f64 = objects.iter().map(|x| x.1).sum();
    let load_ns: Vec<f64> = objects.iter().filter_map(|x| x.2).collect();
    let heaps: Vec<f64> = traced
        .iter()
        .filter_map(|(_, s)| s.max_heap.map(|h| h as f64))
        .collect();
    let cache_hits = pooled(&|s| s.cache.map(|(h, v)| (h as f64, v as f64)));
    let pruned = pooled(&|s| {
        Some((
            s.sig_tests.saturating_sub(s.sig_matched) as f64,
            s.sig_tests as f64,
        ))
    });
    let random = pooled(&|s| Some((s.random_reads as f64, s.reads as f64)));
    let windows = |s: &layers::Sample| s.shard_windows.iter().copied().max().unwrap_or(0);
    let skews: Vec<f64> = traced
        .iter()
        .filter_map(|(_, s)| {
            let total: u64 = s.shard_windows.iter().sum();
            (total > 0).then(|| windows(s) as f64 * s.shard_windows.len() as f64 / total as f64)
        })
        .collect();
    let mut unattributed: Vec<f64> = traced
        .iter()
        .map(|(_, s)| {
            ratio(
                s.wall_ns.saturating_sub(s.attributed_ns) as f64,
                s.wall_ns as f64,
            )
        })
        .collect();
    unattributed.sort_by(f64::total_cmp);
    let p50 = |ops: &[OpRec]| percentile(&of_kind(ops, Kind::Topk), 0.5);
    let overhead = (ratio(p50(&out.ops), p50(&out.baseline)) - 1.0) * 100.0;
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

    let metrics = vec![
        ("storage.read_us", mean(&|s| us(s.read_ns))),
        ("storage.verify_us", mean(&|s| us(s.verify_ns))),
        ("storage.node_reads", mean(&|s| s.node_reads as f64)),
        ("storage.object_reads", mean(&|s| s.object_reads as f64)),
        ("storage.random_share", random),
        ("storage.block_writes", mean(&|s| s.block_writes as f64)),
        ("storage.write_us", mean(&|s| us(s.write_ns))),
        ("rtree.nodes_read", mean(&|s| s.nodes_visited as f64)),
        ("rtree.decode_us", mean(&|s| us(s.decode_ns))),
        ("rtree.cache_hit_ratio", cache_hits),
        ("sigfile.mask_us", mean(&|s| us(s.mask_ns))),
        ("sigfile.sig_tests", mean(&|s| s.sig_tests as f64)),
        ("sigfile.prune_ratio", pruned),
        (
            "irtree.entries_scanned",
            mean(&|s| s.entries_scanned as f64),
        ),
        ("irtree.max_heap", avg(&heaps)),
        (
            "irtree.self_us",
            mean(&|s| us(s.wall_ns.saturating_sub(s.attributed_ns))),
        ),
        ("model.object_loads", loads / objects.len().max(1) as f64),
        ("model.load_us", avg(&load_ns) / 1e3),
        ("model.false_positive_ratio", ratio(fps, loads)),
        ("core.shard_max_us", mean(&|s| us(windows(s)))),
        (
            "core.gather_us",
            mean(&|s| us(s.wall_ns.saturating_sub(windows(s)))),
        ),
        ("core.shard_skew", avg(&skews)),
        ("trace.overhead_pct", overhead),
        ("trace.unattributed_share", percentile(&unattributed, 0.5)),
    ];

    // Reconciliation: for each operation kind, the median operation's
    // attributed time may not exceed its traced wall time by more than
    // the tolerance. The median keeps one replay slowed by the host from
    // failing a run.
    let mut problems = Vec::new();
    if traced.is_empty() {
        problems.push("the traced phase completed no operation".into());
    }
    for kind in [
        Kind::Topk,
        Kind::Ranked,
        Kind::Window,
        Kind::Insert,
        Kind::Commit,
    ] {
        let mut shares: Vec<f64> = traced
            .iter()
            .filter(|(o, _)| o.kind == kind)
            .map(|(_, s)| s.attributed_ns as f64 / s.wall_ns.max(1) as f64)
            .collect();
        shares.sort_by(f64::total_cmp);
        let median = percentile(&shares, 0.5);
        if median > 1.0 + RECONCILE_TOLERANCE {
            problems.push(format!(
                "{kind:?}: the median operation's attributed layer time is {median:.3}× its traced wall time"
            ));
        }
    }
    (metrics, problems)
}

/// Writes every traced operation's span record, one JSON object a line.
fn write_spans(path: &std::path::Path, out: &RunOut) -> std::io::Result<()> {
    let mut text = String::new();
    for o in &out.ops {
        let Some(s) = &o.sample else { continue };
        let _ = writeln!(
            text,
            "{{\"kind\": \"{:?}\", \"client\": {}, \"start_ns\": {}, \"wall_ns\": {}, \"attributed_ns\": {}, \
             \"read_ns\": {}, \"write_ns\": {}, \"verify_ns\": {}, \"decode_ns\": {}, \"mask_ns\": {}, \
             \"node_reads\": {}, \"object_reads\": {}, \"nodes_visited\": {}, \"shard_windows_ns\": {:?}}}",
            o.kind,
            o.client,
            o.start_ns,
            s.wall_ns,
            s.attributed_ns,
            s.read_ns,
            s.write_ns,
            s.verify_ns,
            s.decode_ns,
            s.mask_ns,
            s.node_reads,
            s.object_reads,
            s.nodes_visited,
            s.shard_windows
        );
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, text)
}
