//! Cross-crate contracts of the pipelined disk engine (DESIGN.md §10):
//! width-1 bit-equality against `beam_search` plus an exact rerank for
//! every estimator family (PQ, OPQ, and a tie-dense coarse PQ), the recall
//! envelope at wide `io_width`, and trace-driven cache admission beating
//! the BFS warm-up on a skewed workload.

use std::sync::Arc;

use rpq_anns::{DiskIndex, DiskIndexConfig, FilterStrategy};
use rpq_bench::setup::{make_bench, Bench, Method};
use rpq_bench::Scale;
use rpq_data::synth::DatasetKind;
use rpq_data::{LabelPredicate, Labels};
use rpq_graph::{beam_search, Neighbor, ProximityGraph, SearchScratch, SearchStats, VamanaConfig};
use rpq_linalg::distance::sq_l2;
use rpq_quant::{PqConfig, ProductQuantizer, VectorCompressor};

#[path = "../crates/anns/tests/support/test_store.rs"]
mod test_store;
use test_store::TestStore;

fn prepare(n_base: usize, n_query: usize, seed: u64) -> (Bench, ProximityGraph) {
    let bench = make_bench(DatasetKind::Sift, n_base, n_query, 10, seed);
    let graph = VamanaConfig {
        r: 24,
        l: 48,
        ..Default::default()
    }
    .build(&bench.base);
    (bench, graph)
}

/// Label 0 on every vector, label 1 on every third: `single(0)` is a
/// filter that rejects nothing, `single(1)` one that rejects most.
fn every_and_every_third(n: usize) -> Labels {
    Labels::from_masks(
        2,
        (0..n)
            .map(|i| 1 | u32::from(i.is_multiple_of(3)) << 1)
            .collect(),
    )
}

/// The width-1 reference, assembled from parts pinned elsewhere:
/// `beam_search` (pinned against the three-heap oracle by `beam.rs`'s
/// tie-heavy proptest) over the index's graph with the index's own ADC
/// estimator, keeping the best `min(ef, rerank)` (each clamped up to `k`),
/// then exact distances sorted by `(dist, id)` and cut to `k`.
fn reference<C: VectorCompressor>(
    index: &DiskIndex<C>,
    graph: &ProximityGraph,
    bench: &Bench,
    rerank: usize,
    q: &[f32],
    ef: usize,
    k: usize,
) -> (Vec<Neighbor>, SearchStats) {
    let est = index.compressor().estimator(index.codes(), q);
    let keep = ef.max(k).min(rerank.max(k));
    let (routed, stats) = beam_search(graph, &est, ef, keep, &mut SearchScratch::new());
    let mut exact: Vec<Neighbor> = routed
        .iter()
        .map(|n| Neighbor {
            id: n.id,
            dist: sq_l2(q, bench.base.get(n.id as usize)),
        })
        .collect();
    exact.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
    exact.truncate(k);
    (exact, stats)
}

/// Runs every query through the index at `io_width = 1` and demands the
/// reference's ids and distance bits, its hops and distance computations,
/// and one block read per store lookup. The engine routes with the
/// candidate pool behind `pop_batch`, the reference with `beam_search`'s
/// `pop_closest` loop (DESIGN.md §9.5).
///
/// The filtered engine is pinned through what the filter must not touch:
/// under a predicate every vector satisfies, the accepted pool has to
/// reproduce the reference bit for bit; under a selective one, routing
/// (hops, distance computations) has to stay the reference's and every
/// answer has to match.
fn assert_width1_matches_reference<C: VectorCompressor>(
    index: &DiskIndex<C>,
    graph: &ProximityGraph,
    bench: &Bench,
    cfg: &DiskIndexConfig,
    ef: usize,
) {
    let labels = index.labels().expect("labels attached");
    let sectors_per_block = index.disk_bytes() / index.len() / cfg.sector_bytes;
    let mut scratch = SearchScratch::new();
    for (qi, q) in bench.queries.iter().enumerate() {
        let (want, w_stats) = reference(index, graph, bench, cfg.rerank, q, ef, 10);
        let (piped, p_stats) = index.search_with_scratch(q, ef, 10, &mut scratch);
        let (all, a_stats) = index.search_filtered(
            q,
            LabelPredicate::single(0),
            FilterStrategy::DuringTraversal,
            ef,
            10,
            &mut scratch,
        );
        for (tag, res, stats) in [
            ("pipelined", &piped, &p_stats),
            ("match-all", &all, &a_stats),
        ] {
            assert_eq!(want.len(), res.len(), "query {qi} {tag}: result count");
            for (a, b) in want.iter().zip(res.iter()) {
                assert_eq!(a.id, b.id, "query {qi} {tag}: ids diverge");
                assert_eq!(
                    a.dist.to_bits(),
                    b.dist.to_bits(),
                    "query {qi} {tag}: distance bits diverge"
                );
            }
            assert_eq!(w_stats.hops, stats.hops, "query {qi} {tag}: hops");
            assert_eq!(
                w_stats.dist_comps, stats.dist_comps,
                "query {qi} {tag}: distance computations"
            );
            assert_eq!(
                stats.io_reads,
                stats.cache_misses * sectors_per_block,
                "query {qi} {tag}: one block read per store lookup"
            );
        }

        let third = LabelPredicate::single(1);
        let (some, f_stats) = index.search_filtered(
            q,
            third,
            FilterStrategy::DuringTraversal,
            ef,
            10,
            &mut scratch,
        );
        assert_eq!(w_stats.hops, f_stats.hops, "query {qi} filtered: hops");
        assert_eq!(
            w_stats.dist_comps, f_stats.dist_comps,
            "query {qi} filtered: distance computations"
        );
        assert!(!some.is_empty(), "query {qi} filtered: no answer");
        assert!(some.iter().all(|n| labels.matches(n.id as usize, third)));
        assert!(some
            .windows(2)
            .all(|w| (w[0].dist, w[0].id) < (w[1].dist, w[1].id)));
    }
}

/// Width-1 bit-equality against `beam_search` plus an exact rerank must
/// hold for every estimator family the engine
/// routes with (PQ, OPQ) and for a deliberately coarse PQ (M=4, K=16: at
/// most 65 536 distinct codes, so equal ADC distances at the pool boundary
/// are routine).
#[test]
fn width1_is_bit_identical_for_pq_opq_and_tie_dense_estimators() {
    let scale = Scale::ci();
    let (bench, graph) = prepare(700, 12, 31);
    let arc = Arc::new(graph);

    let compressors: Vec<(&str, Box<dyn VectorCompressor>)> = vec![
        ("pq", Method::Pq.build(&bench.base, &arc, &scale)),
        ("opq", Method::Opq.build(&bench.base, &arc, &scale)),
        (
            "pq-m4k16",
            Box::new(ProductQuantizer::train(
                &PqConfig {
                    m: 4,
                    k: 16,
                    seed: 31,
                    ..Default::default()
                },
                &bench.base,
            )),
        ),
    ];
    for (tag, c) in compressors {
        let store = TestStore::new(&format!("bitexact-{tag}"));
        let cfg = DiskIndexConfig::new(store.path());
        let mut index =
            DiskIndex::build(c, &bench.base, &arc, cfg.clone()).expect("disk index build failed");
        index.set_labels(every_and_every_third(bench.base.len()));
        for ef in [10, 40] {
            assert_width1_matches_reference(&index, &arc, &bench, &cfg, ef);
        }
    }
}

/// Wider frontiers read speculatively but may only *grow* the explored
/// region: recall at `io_width ∈ {4, 8}` stays within 0.02 of the serial
/// engine at the same ef. The modeled device time of a pass depends only
/// on the sectors it read — never on a clock — so it repeats bit for bit.
#[test]
fn wide_io_widths_stay_inside_the_recall_envelope() {
    let scale = Scale::ci();
    let (bench, graph) = prepare(700, 20, 32);
    let arc = Arc::new(graph);
    let index_at = |width: usize, store: &TestStore| {
        let cfg = DiskIndexConfig {
            io_width: width,
            ..DiskIndexConfig::new(store.path())
        };
        let compressor = Method::Pq.build(&bench.base, &arc, &scale);
        DiskIndex::build(compressor, &bench.base, &arc, cfg).expect("disk index build failed")
    };

    // Recall and summed modeled device seconds of one pass over the queries.
    let pass = |index: &DiskIndex<_>, ef: usize| {
        let mut io_seconds = 0.0f64;
        let mut scratch = SearchScratch::new();
        let ids: Vec<Vec<u32>> = bench
            .queries
            .iter()
            .map(|q| {
                let (res, stats) = index.search_with_scratch(q, ef, 10, &mut scratch);
                io_seconds += f64::from(stats.io_seconds);
                res.iter().map(|n| n.id).collect()
            })
            .collect();
        (bench.gt.recall(&ids), io_seconds)
    };

    let serial_store = TestStore::new("envelope-1");
    let serial = index_at(1, &serial_store);
    for width in [4, 8] {
        let store = TestStore::new(&format!("envelope-{width}"));
        let wide = index_at(width, &store);
        for ef in [10, 30] {
            let (serial_recall, _) = pass(&serial, ef);
            let (recall, io) = pass(&wide, ef);
            let (_, io_again) = pass(&wide, ef);
            assert!(
                recall >= serial_recall - 0.02,
                "ef {ef} width {width}: recall {recall} fell more than 0.02 below serial {serial_recall}"
            );
            assert_eq!(
                io.to_bits(),
                io_again.to_bits(),
                "ef {ef} width {width}: modeled io_seconds differs between two passes"
            );
        }
    }
}

/// A deterministic LCG-driven Zipf(s≈1.1) sampler over `0..n`.
struct Zipf {
    cdf: Vec<f64>,
    state: u64,
}

impl Zipf {
    fn new(n: usize, seed: u64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(1.1);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        Self { cdf, state: seed }
    }

    fn next(&mut self) -> usize {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (self.state >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    fn draw(&mut self, count: usize) -> Vec<usize> {
        (0..count).map(|_| self.next()).collect()
    }
}

/// Frequency-based (trace-driven) cache admission must serve a skewed
/// workload at least as well as the BFS-from-entry warm-up: the BFS cache
/// pins the entry region regardless of traffic, while the trace cache pins
/// exactly the blocks the hot queries touch.
#[test]
fn trace_admission_beats_bfs_warmup_on_a_zipf_workload() {
    let scale = Scale::ci();
    let (bench, graph) = prepare(900, 5, 33);
    let arc = Arc::new(graph);
    let store = TestStore::new("zipf");
    let mut index = DiskIndex::build(
        Method::Pq.build(&bench.base, &arc, &scale),
        &bench.base,
        &arc,
        DiskIndexConfig {
            cache_nodes: 120,
            ..DiskIndexConfig::new(store.path())
        },
    )
    .expect("disk index build failed");

    // Warm-up and evaluation traffic drawn from one Zipf stream: same
    // skew, disjoint draws (continuing the stream), so trace admission is
    // predictive, not self-fulfilling.
    let mut zipf = Zipf::new(bench.base.len(), 7);
    let warm = bench.base.subset(&zipf.draw(60));
    let eval = bench.base.subset(&zipf.draw(40));

    let hit_rate = |index: &DiskIndex<_>| {
        let (mut hits, mut misses) = (0usize, 0usize);
        let mut scratch = SearchScratch::new();
        for q in eval.iter() {
            let (_, stats) = index.search_with_scratch(q, 30, 10, &mut scratch);
            hits += stats.cache_hits;
            misses += stats.cache_misses;
        }
        hits as f64 / (hits + misses).max(1) as f64
    };

    let bfs_rate = hit_rate(&index); // cache as built: BFS from the entry
    let pinned = index.warm_cache_by_trace(&warm, 30);
    assert!(pinned > 0, "trace warm-up pinned nothing");
    let trace_rate = hit_rate(&index);

    assert!(
        trace_rate >= bfs_rate,
        "trace admission ({trace_rate:.3}) lost to BFS warm-up ({bfs_rate:.3})"
    );
    assert!(
        trace_rate > 0.0,
        "a skewed workload over a warmed cache must hit"
    );
}
