//! Integration tests for the sharded serving layer (DESIGN.md §7) and the
//! offline sweep harness invariants it builds on.
//!
//! The load-bearing test is the acceptance invariant: on a seeded CI-scale
//! dataset, the sharded serve path must return **identical** top-k to the
//! single-index path. At exhaustive beam width both sides degenerate to
//! exact ADC top-k with deterministic (dist, id) tie-breaking, so equality
//! is id-for-id — any partitioning, id-mapping, or merge bug breaks it.

use std::sync::Arc;

use rpq_anns::serve::{ServeConfig, ServeEngine, ShardedIndex};
use rpq_anns::stream::StreamingConfig;
use rpq_anns::{sweep, DiskIndex, DiskIndexConfig, InMemoryIndex};
use rpq_bench::Scale;
use rpq_data::brute_force_knn;
use rpq_data::synth::DatasetKind;
use rpq_data::Dataset;
use rpq_graph::{
    beam_search, DistanceEstimator, ExactEstimator, HnswConfig, ProximityGraph, SearchScratch,
    VamanaConfig,
};
use rpq_quant::{PqConfig, ProductQuantizer, VectorCompressor};

#[path = "../crates/anns/tests/support/test_store.rs"]
mod test_store;
use test_store::TestStore;

fn ci_bench(n_extra_queries: usize, seed: u64) -> (Dataset, Dataset, ProductQuantizer) {
    let s = Scale::ci();
    let (base, queries) = DatasetKind::Sift.generate(s.n_base, n_extra_queries, seed);
    let pq = ProductQuantizer::train(
        &PqConfig {
            m: 8,
            k: 32,
            seed,
            ..Default::default()
        },
        &base,
    );
    (base, queries, pq)
}

fn hnsw(part: &Dataset) -> ProximityGraph {
    HnswConfig {
        m: 16,
        ef_construction: 100,
        seed: 5,
    }
    .build(part)
}

#[test]
fn sharded_top_k_identical_to_single_index_on_seeded_ci_dataset() {
    let (base, queries, pq) = ci_bench(25, 42);
    let single = InMemoryIndex::build(pq.clone(), &base, hnsw(&base));
    let ef = base.len(); // exhaustive: beam covers every reachable vertex
    let mut scratch = SearchScratch::new();

    for n_shards in [2usize, 4] {
        let index = Arc::new(ShardedIndex::build_in_memory(&pq, &base, n_shards, hnsw));
        let engine = ServeEngine::new(Arc::clone(&index), ServeConfig::default());
        let (batch, _) = engine.serve_batch(&queries, ef, 10);
        for (qi, got) in batch.iter().enumerate() {
            let (want, _) = single.search(queries.get(qi), ef, 10, &mut scratch);
            assert_eq!(
                got.iter().map(|n| n.id).collect::<Vec<_>>(),
                want.iter().map(|n| n.id).collect::<Vec<_>>(),
                "{n_shards}-shard serve diverged from single index on query {qi}",
            );
        }
    }
}

#[test]
fn concurrent_engine_agrees_with_sequential_fanout_at_operating_beam() {
    // At realistic (non-exhaustive) beam widths the sharded result is not
    // necessarily the single-index result — but the concurrent engine must
    // still agree exactly with the sequential reference merge.
    let (base, queries, pq) = ci_bench(20, 7);
    let index = Arc::new(ShardedIndex::build_in_memory(&pq, &base, 3, hnsw));
    let engine = ServeEngine::new(Arc::clone(&index), ServeConfig::default());
    let (batch, report) = engine.serve_batch(&queries, 40, 10);
    let mut scratch = SearchScratch::new();
    for (qi, got) in batch.iter().enumerate() {
        let (want, _) = index.search(queries.get(qi), 40, 10, &mut scratch);
        assert_eq!(
            got.iter().map(|n| n.id).collect::<Vec<_>>(),
            want.iter().map(|n| n.id).collect::<Vec<_>>(),
        );
    }
    assert_eq!(report.latency.count, queries.len());
    assert!(report.latency.p50_us > 0.0);
    assert!(report.latency.p50_us <= report.latency.p95_us);
    assert!(report.latency.p95_us <= report.latency.p99_us);
}

#[test]
fn disk_backed_shards_serve_with_io_accounting() {
    let (base, queries, pq) = ci_bench(10, 13);
    let store = TestStore::new("serving");
    let cfg = DiskIndexConfig::new(store.path());
    let index = Arc::new(
        ShardedIndex::build_on_disk(&pq, &base, None, 2, &cfg, |part| {
            VamanaConfig {
                r: 16,
                l: 40,
                ..Default::default()
            }
            .build(part)
        })
        .unwrap(),
    );
    let engine = ServeEngine::new(Arc::clone(&index), ServeConfig::default());
    let (batch, report) = engine.serve_batch(&queries, 40, 10);
    assert_eq!(batch.len(), queries.len());
    assert!(report.mean_io_ms > 0.0, "disk shards must charge I/O time");

    let gt = brute_force_knn(&base, &queries, 10);
    let ids: Vec<Vec<u32>> = batch
        .iter()
        .map(|r| r.iter().map(|n| n.id).collect())
        .collect();
    assert!(gt.recall(&ids) > 0.6, "reranked disk shards lost recall");
}

#[test]
fn memory_sweep_invariants_hold_at_ci_scale() {
    let (base, queries, pq) = ci_bench(15, 3);
    let gt = brute_force_knn(&base, &queries, 10);
    let index = InMemoryIndex::build(pq, &base, hnsw(&base));
    let points = sweep(&index, &queries, &gt, 10, &[10, 40, 120]);
    assert_eq!(points.len(), 3);
    for p in &points {
        assert!(
            (0.0..=1.0).contains(&p.recall),
            "recall out of [0,1]: {}",
            p.recall
        );
        assert_eq!(p.io_ms, 0.0, "in-memory sweep must report zero I/O");
        assert!(p.hops > 0.0, "sweep must route through the graph");
        assert!(p.qps > 0.0);
    }
    // Under ADC a wide beam is not a recall knob past exhaustive ADC's own
    // top k: a narrow beam returns vertices near its path, which may beat
    // the estimator's ranking, and a wide one converges on that ranking.
    // So the widest beam reaches the exhaustive-ADC recall, and with exact
    // distances the widest beam does not lose to the narrowest.
    let exhaustive: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| {
            let est = index.compressor().estimator(index.codes(), q);
            let mut all: Vec<(f32, u32)> = (0..base.len() as u32)
                .map(|v| (est.distance(v), v))
                .collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            all.iter().take(10).map(|&(_, v)| v).collect()
        })
        .collect();
    let ceiling = gt.recall(&exhaustive);
    assert!(
        points[2].recall >= ceiling - 0.01,
        "ef 120 {} vs exhaustive ADC {ceiling}: {points:?}",
        points[2].recall
    );
    let exact_recall = |ef: usize| {
        let mut scratch = SearchScratch::new();
        let results: Vec<Vec<u32>> = queries
            .iter()
            .map(|q| {
                let est = ExactEstimator::new(&base, q);
                let (res, _) = beam_search(index.graph(), &est, ef, 10, &mut scratch);
                res.iter().map(|n| n.id).collect()
            })
            .collect();
        gt.recall(&results)
    };
    assert!(exact_recall(120) >= exact_recall(10));
}

#[test]
fn disk_sweep_invariants_hold_at_ci_scale() {
    let (base, queries, pq) = ci_bench(10, 4);
    let gt = brute_force_knn(&base, &queries, 10);
    let graph = VamanaConfig {
        r: 16,
        l: 40,
        ..Default::default()
    }
    .build(&base);
    let store = TestStore::new("sweep-invariants");
    let index = DiskIndex::build(pq, &base, &graph, DiskIndexConfig::new(store.path())).unwrap();
    let points = sweep(&index, &queries, &gt, 10, &[10, 40]);
    for p in &points {
        assert!((0.0..=1.0).contains(&p.recall));
        assert!(p.io_ms > 0.0, "hybrid sweep must charge I/O time");
        assert!(p.hops > 0.0);
        assert!(p.qps > 0.0);
    }
}

#[test]
fn tombstoned_points_never_appear_in_sharded_results() {
    // Acceptance invariant for the streaming serve path: once a global id
    // is removed, no query may return it — not while it sits tombstoned in
    // its shard, and not after consolidation compacts it away.
    let (base, queries, pq) = ci_bench(12, 31);
    let mut index = ShardedIndex::build_streaming(&pq, &base, None, 3, StreamingConfig::default());
    let mut scratch = SearchScratch::new();

    let removed: Vec<u32> = (0..base.len() as u32).step_by(9).collect();
    for &g in &removed {
        assert!(index.remove(g), "removing live global id {g}");
    }
    assert_eq!(index.live_len(), base.len() - removed.len());

    let assert_clean = |index: &ShardedIndex, scratch: &mut SearchScratch| {
        for qi in 0..queries.len() {
            // Exhaustive beam: every live point is reachable and ranked.
            let (top, _) = index.search(queries.get(qi), base.len(), 10, scratch);
            assert_eq!(top.len(), 10);
            for n in &top {
                assert!(
                    !removed.contains(&n.id),
                    "tombstoned global id {} surfaced on query {qi}",
                    n.id
                );
            }
        }
    };
    assert_clean(&index, &mut scratch);

    let reclaimed = index.consolidate(true);
    assert_eq!(reclaimed, removed.len(), "every tombstone reclaimed");
    assert_eq!(index.live_len(), base.len() - removed.len());
    assert_clean(&index, &mut scratch);

    // Removed ids are gone for good: a second remove is refused.
    assert!(removed.iter().all(|&g| !index.remove(g)));
}

#[test]
fn examples_and_experiments_route_workers_through_serve_config_defaults() {
    // Audit (DESIGN.md §11): user-facing code must not hardcode a worker
    // count — `ServeConfig::default()` routes through `default_workers()`,
    // which respects RPQ_THREADS and the machine's cores. A literal like
    // `workers: 4` in an example silently pins benchmarks to the author's
    // laptop, so this test greps for it.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut offenders = Vec::new();
    let mut audited = 0usize;
    let mut stack = vec![root.join("examples"), root.join("crates/bench/src")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("audit dir must exist") {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            audited += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            for (ln, line) in text.lines().enumerate() {
                let Some(pos) = line.find("workers:") else {
                    continue;
                };
                let rest = line[pos + "workers:".len()..].trim_start();
                if rest.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                    offenders.push(format!("{}:{}: {}", path.display(), ln + 1, line.trim()));
                }
            }
        }
    }
    assert!(audited > 5, "audit scanned too few files ({audited})");
    assert!(
        offenders.is_empty(),
        "hardcoded worker counts found — route through ServeConfig::default():\n{}",
        offenders.join("\n")
    );
}

#[test]
fn serve_config_default_workers_respect_the_environment() {
    // The default every example and experiment inherits: worker count
    // comes from `default_workers()` (RPQ_THREADS-aware), never a literal.
    let cfg = ServeConfig::default();
    assert_eq!(cfg.workers, rpq_anns::serve::default_workers());
    assert!(cfg.workers >= 1);
}

#[test]
fn shard_merge_matches_brute_force_over_the_partition() {
    // Merge correctness at the system level: for every query, the union of
    // exhaustive per-shard results merged to top-k equals the exact ADC
    // top-k over the whole base — computed here independently by brute
    // force over the shared compressor's estimator.
    let (base, queries, pq) = ci_bench(8, 21);
    use rpq_quant::VectorCompressor;
    let codes = pq.encode_dataset(&base);
    let index = Arc::new(ShardedIndex::build_in_memory(&pq, &base, 3, hnsw));
    let mut scratch = SearchScratch::new();
    for qi in 0..queries.len() {
        let q = queries.get(qi);
        let est = pq.estimator(&codes, q);
        let mut exact: Vec<(f32, u32)> = (0..base.len() as u32)
            .map(|i| (rpq_graph::DistanceEstimator::distance(&est, i), i))
            .collect();
        exact.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let want: Vec<u32> = exact.iter().take(10).map(|&(_, i)| i).collect();
        let (got, _) = index.search(q, base.len(), 10, &mut scratch);
        assert_eq!(got.iter().map(|n| n.id).collect::<Vec<_>>(), want);
    }
}
