//! Observability integration: the trace-derived statistics, the
//! algorithms' own counters, and the storage layer's I/O attribution must
//! all tell the same story — solo or inside the concurrent batch engine —
//! and the metrics registry must aggregate them faithfully.

use std::sync::Barrier;
use std::time::Duration;

use ir2tree::irtree::{GeneralQuery, NopSink};
use ir2tree::model::{DistanceFirstQuery, QueryRegion, SpatialObject};
use ir2tree::storage::testing::StallDevice;
use ir2tree::storage::IoSnapshot;
use ir2tree::text::{LinearRank, SaturatingTfIdf};
use ir2tree::{Algorithm, DbConfig, DeviceSet, SpatialKeywordDb};

fn small_config() -> DbConfig {
    DbConfig {
        capacity: Some(8),
        sig_bytes: 8,
        ..DbConfig::default()
    }
}

fn town(n: usize) -> Vec<SpatialObject<2>> {
    let themes = [
        "coffee wifi pastry",
        "pizza delivery late",
        "gym sauna pool",
        "books coffee quiet",
        "bar live music",
        "pharmacy open sunday",
    ];
    (0..n)
        .map(|i| {
            let x = (i % 25) as f64;
            let y = (i / 25) as f64;
            SpatialObject::new(i as u64, [x, y], themes[i % themes.len()])
        })
        .collect()
}

fn queries() -> Vec<DistanceFirstQuery<2>> {
    let kws: [&[&str]; 3] = [&["coffee"], &["coffee", "wifi"], &["pool"]];
    (0..12)
        .map(|i| {
            DistanceFirstQuery::new(
                [(i % 7) as f64 * 3.0, (i % 5) as f64 * 2.0],
                kws[i % kws.len()],
                4,
            )
        })
        .collect()
}

/// The heart of the observability contract, across all four algorithms:
///
/// * trace statistics are definitionally consistent with the algorithm's
///   own `SearchCounters`;
/// * the trace's object-fetch count equals the `CountingSource` /
///   object-store load count the report attributes to the query;
/// * a query reports *bit-for-bit identical* measurements whether it runs
///   alone or inside the concurrent batch engine (both attribute through
///   an `IoScope` and a `CountingSource`).
#[test]
fn solo_and_batch_reports_are_identical_for_every_algorithm() {
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), town(250), small_config()).unwrap();
    db.reset_io();
    let qs = queries();

    for alg in Algorithm::ALL {
        let solo: Vec<_> = qs
            .iter()
            .map(|q| db.distance_first(alg, q).unwrap())
            .collect();
        let batch = db.batch_topk(alg, &qs, 4).unwrap();
        assert_eq!(solo.len(), batch.len());

        for (i, (s, b)) in solo.iter().zip(&batch).enumerate() {
            let ctx = format!("{} query {i}", alg.label());
            // Internal consistency of each report.
            assert!(
                s.pruning.matches_counters(&s.counters),
                "{ctx}: trace/counter divergence {:?} vs {:?}",
                s.pruning,
                s.counters
            );
            assert!(b.pruning.matches_counters(&b.counters), "{ctx} (batch)");
            if alg != Algorithm::Iio {
                // Every object fetch the algorithm performed is one load on
                // the object store — the trace and the I/O layer agree.
                assert_eq!(s.pruning.objects_fetched, s.object_loads, "{ctx}");
            }
            // Solo and concurrent execution agree on everything measured,
            // down to the random/sequential split: both classify against a
            // per-query disk-arm position.
            assert_eq!(s.counters, b.counters, "{ctx}");
            assert_eq!(s.pruning, b.pruning, "{ctx}");
            assert_eq!(s.object_loads, b.object_loads, "{ctx}");
            assert_eq!(s.index_io, b.index_io, "{ctx}");
            assert_eq!(s.object_io, b.object_io, "{ctx}");
            assert_eq!(s.results.len(), b.results.len(), "{ctx}");
            for (x, y) in s.results.iter().zip(&b.results) {
                assert_eq!(x.0.id, y.0.id, "{ctx}");
                assert_eq!(x.1, y.1, "{ctx}");
            }
        }
    }
}

#[test]
fn batch_report_histograms_summarize_the_per_query_reports() {
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), town(250), small_config()).unwrap();
    db.reset_io();
    let qs = queries();

    let per_query = db.batch_topk(Algorithm::Ir2, &qs, 3).unwrap();
    let batch = db.batch_distance_first(Algorithm::Ir2, &qs, 3).unwrap();

    assert_eq!(batch.io_per_query.count, qs.len() as u64);
    assert_eq!(batch.loads_per_query.count, qs.len() as u64);
    assert_eq!(
        batch.io_per_query.sum,
        per_query.iter().map(|r| r.io.total()).sum::<u64>()
    );
    assert_eq!(
        batch.loads_per_query.sum,
        per_query.iter().map(|r| r.object_loads).sum::<u64>()
    );
    assert!(batch.io_per_query.max >= batch.io_per_query.mean() as u64);
    assert!(batch.io_per_query.mean().is_finite());

    let mut merged_tests = 0u64;
    let mut merged_fetched = 0u64;
    for r in &per_query {
        merged_tests += r.pruning.sig_tests;
        merged_fetched += r.pruning.objects_fetched;
    }
    assert_eq!(batch.pruning.sig_tests, merged_tests);
    assert_eq!(batch.pruning.objects_fetched, merged_fetched);
    assert!(batch.pruning.sig_tests > 0, "IR2 queries test signatures");
}

#[test]
fn metrics_registry_aggregates_query_counters_exactly() {
    let db = SpatialKeywordDb::build(DeviceSet::in_memory(), town(250), small_config()).unwrap();
    db.reset_io();
    let qs = queries();
    let before = db.metrics().snapshot();

    let solo: Vec<_> = qs
        .iter()
        .map(|q| db.distance_first(Algorithm::Mir2, q).unwrap())
        .collect();
    let _batch = db.batch_topk(Algorithm::Mir2, &qs, 4).unwrap();

    let delta = db.metrics().snapshot().delta(&before);
    // Solo pass + batch pass: every query counted exactly once each.
    assert_eq!(
        delta.counter("queries_total{alg=\"mir2\"}"),
        2 * qs.len() as u64
    );
    let expect_tests: u64 = solo.iter().map(|r| r.pruning.sig_tests).sum();
    assert_eq!(
        delta.counter("signature_tests_total{alg=\"mir2\"}"),
        2 * expect_tests,
        "solo and batch runs of identical queries test identical signatures"
    );
    let expect_io: u64 = solo.iter().map(|r| r.io.total()).sum();
    assert_eq!(
        delta.counter("io_random_reads_total{alg=\"mir2\"}")
            + delta.counter("io_sequential_reads_total{alg=\"mir2\"}"),
        2 * expect_io,
        "registry I/O counters match the reports' snapshots"
    );

    // The untouched algorithms saw nothing.
    assert_eq!(delta.counter("queries_total{alg=\"rtree\"}"), 0);

    // And the text exposition is well-formed: finite numbers only.
    let text = db.metrics_prometheus();
    assert!(text.contains("queries_total{alg=\"mir2\"}"));
    assert!(text.contains("query_io_blocks_sum{alg=\"mir2\"}"));
    assert!(text.contains("device_read_blocks{device=\"mir2\"}"));
    assert!(!text.contains("NaN"), "no NaN may ever be exported");
    assert!(!text.contains("inf"), "no infinity may ever be exported");
}

/// Two queries that overlap in time each report only their own I/O and
/// object loads: the same numbers as when each runs alone. Every device
/// operation stalls for a millisecond, so the two queries' reads are
/// certain to interleave — a report built from before/after snapshots of
/// the shared counters would also count the other query's reads.
#[test]
fn overlapping_queries_report_only_their_own_io() {
    let stalled =
        DeviceSet::in_memory().map(|_, d| StallDevice::new(d, 1.0, Duration::from_millis(1), 11));
    let db = SpatialKeywordDb::build(stalled, town(120), small_config()).unwrap();
    let rank = LinearRank::default();
    let area = ir2tree::geo::Rect::from_corners([2.0, 1.0].into(), [6.0, 3.0].into());
    let kws = vec!["coffee".to_string()];
    // One runner per facade method; each returns what its report attributes.
    let run = |which: usize| -> (IoSnapshot, u64) {
        match which {
            0 => {
                let q = DistanceFirstQuery::new([3.0, 2.0], &["coffee"], 4);
                let r = db.distance_first(Algorithm::Ir2, &q).unwrap();
                (r.io, r.object_loads)
            }
            1 => {
                let q = GeneralQuery::new([20.0, 3.0], &["music", "pool"], 4);
                let r = db
                    .general_ranked(Algorithm::Ir2, &q, &SaturatingTfIdf, &rank)
                    .unwrap();
                (r.io, r.object_loads)
            }
            2 => {
                let region = QueryRegion::Area(area);
                let r = db
                    .distance_first_region(Algorithm::Mir2, region, &kws, 5)
                    .unwrap();
                (r.io, r.object_loads)
            }
            _ => {
                let q = DistanceFirstQuery::new([10.0, 4.0], &["pizza"], 3);
                let r = db
                    .distance_first_traced(Algorithm::RTree, &q, NopSink)
                    .unwrap();
                (r.io, r.object_loads)
            }
        }
    };
    for (a, b) in [(0, 1), (2, 3), (0, 3)] {
        let alone = (run(a), run(b));
        assert!(alone.0 .0.total() > 0 && alone.1 .0.total() > 0);
        let barrier = Barrier::new(2);
        let together = std::thread::scope(|s| {
            let ta = s.spawn(|| {
                barrier.wait();
                run(a)
            });
            let tb = s.spawn(|| {
                barrier.wait();
                run(b)
            });
            (ta.join().unwrap(), tb.join().unwrap())
        });
        assert_eq!(together, alone, "queries {a} and {b} overlapping");
    }
}
