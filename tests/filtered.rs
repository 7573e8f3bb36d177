//! Filtered search across the stack (DESIGN.md §12): recall against
//! filtered exact ground truth on the selectivity ladder, strategy
//! agreement at exhaustive beam width, the §7.3 exact-merge contract per
//! predicate, predicate soundness under streaming churn, and the cache
//! economics of Zipf-skewed traffic on the disk backend; and that the
//! serving door and each index's own search methods are one read.
//!
//! The corpora use `generate_labeled`, which derives each point's label
//! from its generating cluster — matching points are geometrically
//! clumped, the hard case for a filtered traversal.

use std::panic::AssertUnwindSafe;

use proptest::prelude::*;

use rpq_anns::serve::{ArrivalSchedule, FilteredQuery, ReplicaFault, ShardedIndex};
use rpq_anns::stream::{StreamingConfig, StreamingIndex};
use rpq_anns::{
    DiskIndex, DiskIndexConfig, FilterStrategy, InMemoryIndex, ShardBackend, ShardQueryStats,
};
use rpq_data::synth::{SynthConfig, ValueTransform};
use rpq_data::{brute_force_knn_filtered, Dataset, LabelPredicate, Labels};
use rpq_graph::{HnswConfig, Neighbor, ProximityGraph, SearchScratch};
use rpq_quant::{PqConfig, ProductQuantizer};

#[path = "../crates/anns/tests/support/test_store.rs"]
mod test_store;
use test_store::TestStore;

/// Clustered corpus with cluster-correlated labels: 64 generating
/// clusters folded into a vocabulary of 8 gives the selectivity ladder
/// label 0 ≈ 50%, label 2 ≈ 12%, label 5 ≈ 2%.
fn labeled_data(n: usize, seed: u64) -> (Dataset, Labels) {
    SynthConfig {
        dim: 12,
        intrinsic_dim: 6,
        clusters: 64,
        cluster_std: 0.7,
        noise_std: 0.05,
        transform: ValueTransform::Identity,
    }
    .generate_labeled(n, seed, 8)
}

fn hnsw(data: &Dataset) -> ProximityGraph {
    HnswConfig {
        m: 12,
        ef_construction: 60,
        seed: 0,
    }
    .build(data)
}

fn pq(data: &Dataset) -> ProductQuantizer {
    ProductQuantizer::train(
        &PqConfig {
            m: 4,
            k: 16,
            ..Default::default()
        },
        data,
    )
}

struct Fixture {
    base: Dataset,
    queries: Dataset,
    labels: Labels,
    index: InMemoryIndex<ProductQuantizer>,
}

fn fixture() -> Fixture {
    let (all, all_labels) = labeled_data(960, 42);
    let (base, queries) = all.split_at(900);
    let labels = all_labels.subset(&(0..900).collect::<Vec<_>>());
    let index = InMemoryIndex::build(pq(&base), &base, hnsw(&base)).with_labels(labels.clone());
    Fixture {
        base,
        queries,
        labels,
        index,
    }
}

/// The selectivity ladder the asserts sweep: ~50% / ~12% / ~2%.
const LADDER: [usize; 3] = [0, 2, 5];

/// Filtered recall against filtered exact ground truth at three
/// selectivities. In-traversal keeps admitting matches at unchanged
/// routing cost, so a generous beam must clear a recall floor even for
/// the ~2% predicate — and every returned id must satisfy the predicate.
/// "Unchanged routing cost" is pinned too: in-traversal never expands
/// more vertices than post-filter's inflated beam at the same `ef`.
#[test]
fn filtered_recall_tracks_exact_filtered_ground_truth_across_selectivities() {
    let f = fixture();
    let mut scratch = SearchScratch::new();
    for label in LADDER {
        let pred = LabelPredicate::single(label);
        let sel = f.labels.selectivity(pred);
        assert!(
            f.labels.count_matching(pred) >= 10,
            "label {label} matches fewer points than k at this scale"
        );
        let gt = brute_force_knn_filtered(&f.base, &f.queries, 10, &f.labels, pred);
        let mut hops = Vec::new();
        for strategy in [
            FilterStrategy::DuringTraversal,
            FilterStrategy::PostFilter { inflation: 4 },
        ] {
            let mut strategy_hops = 0;
            let ids: Vec<Vec<u32>> = f
                .queries
                .iter()
                .map(|q| {
                    let (res, stats) =
                        f.index
                            .search_filtered(q, pred, strategy, 120, 10, &mut scratch);
                    strategy_hops += stats.hops;
                    for n in &res {
                        assert!(
                            f.labels.matches(n.id as usize, pred),
                            "{} returned id {} violating label-{label} predicate",
                            strategy.name(),
                            n.id
                        );
                    }
                    res.iter().map(|n| n.id).collect()
                })
                .collect();
            hops.push(strategy_hops);
            let recall = gt.recall(&ids);
            // In-traversal holds a floor at every rung; post-filter is only
            // gated where the inflated beam still covers the matches.
            let floor = match strategy {
                FilterStrategy::DuringTraversal if sel >= 0.05 => 0.55,
                // The ~2% rung is the hard case: ADC-only ranking over a
                // handful of matches. The floor still proves the beam
                // finds the clump rather than starving.
                FilterStrategy::DuringTraversal => 0.45,
                FilterStrategy::PostFilter { .. } if sel >= 0.3 => 0.55,
                FilterStrategy::PostFilter { .. } => 0.0,
            };
            assert!(
                recall >= floor,
                "{} recall {recall:.3} under floor {floor} at selectivity {sel:.3}",
                strategy.name()
            );
        }
        let (in_traversal, post_filter) = (hops[0], hops[1]);
        assert!(
            in_traversal <= post_filter,
            "in-traversal expanded {in_traversal} vertices, post-filter {post_filter} \
             at selectivity {sel:.3}"
        );
    }
}

/// At exhaustive beam width the two strategies must agree bit-for-bit:
/// both reduce to "top-k matching points by estimator distance".
#[test]
fn strategies_agree_bit_for_bit_at_exhaustive_ef() {
    let f = fixture();
    let mut scratch = SearchScratch::new();
    let ef = f.base.len();
    for label in LADDER {
        let pred = LabelPredicate::single(label);
        for q in f.queries.iter() {
            let (in_trav, _) = f.index.search_filtered(
                q,
                pred,
                FilterStrategy::DuringTraversal,
                ef,
                10,
                &mut scratch,
            );
            let (post, _) = f.index.search_filtered(
                q,
                pred,
                FilterStrategy::PostFilter { inflation: 2 },
                ef,
                10,
                &mut scratch,
            );
            let a: Vec<(u32, u32)> = in_trav.iter().map(|n| (n.id, n.dist.to_bits())).collect();
            let b: Vec<(u32, u32)> = post.iter().map(|n| (n.id, n.dist.to_bits())).collect();
            assert_eq!(
                a, b,
                "strategies disagree at exhaustive ef for label {label}"
            );
        }
    }
}

/// §7.3 per predicate: the sharded filtered merge at exhaustive ef equals
/// the single-index filtered answer id-for-id (the matching set is
/// partitioned exactly like the base set, so per-shard filtered top-k
/// lists merge into the global filtered top-k).
#[test]
fn sharded_filtered_merge_equals_single_index_per_predicate() {
    let f = fixture();
    let compressor = pq(&f.base);
    let sharded =
        ShardedIndex::build_in_memory_labeled(&compressor, &f.base, &f.labels, 3, |part| {
            hnsw(part)
        });
    let mut scratch = SearchScratch::new();
    let ef = f.base.len();
    for label in LADDER {
        let pred = LabelPredicate::single(label);
        for strategy in [
            FilterStrategy::DuringTraversal,
            FilterStrategy::PostFilter { inflation: 2 },
        ] {
            for q in f.queries.iter() {
                let (single, _) = f
                    .index
                    .search_filtered(q, pred, strategy, ef, 10, &mut scratch);
                let (merged, _) = sharded.search_filtered(q, pred, strategy, ef, 10, &mut scratch);
                let a: Vec<u32> = single.iter().map(|n| n.id).collect();
                let b: Vec<u32> = merged.iter().map(|n| n.id).collect();
                assert_eq!(
                    a,
                    b,
                    "sharded filtered merge diverged for label {label} ({})",
                    strategy.name()
                );
            }
        }
    }
}

/// The disk engine's filtered search reranks matches with exact
/// distances, so at a generous beam it must beat the ADC-only floor —
/// and, like everywhere else, never return a non-matching id.
#[test]
fn disk_filtered_search_reranks_matches_and_respects_the_predicate() {
    let f = fixture();
    let store = TestStore::new("rerank");
    let mut index = DiskIndex::build(
        pq(&f.base),
        &f.base,
        &hnsw(&f.base),
        DiskIndexConfig::new(store.path()),
    )
    .expect("disk index build failed");
    index.set_labels(f.labels.clone());
    let mut scratch = SearchScratch::new();
    for label in LADDER {
        let pred = LabelPredicate::single(label);
        let gt = brute_force_knn_filtered(&f.base, &f.queries, 10, &f.labels, pred);
        let ids: Vec<Vec<u32>> = f
            .queries
            .iter()
            .map(|q| {
                let (res, _) = index.search_filtered(
                    q,
                    pred,
                    FilterStrategy::DuringTraversal,
                    120,
                    10,
                    &mut scratch,
                );
                for n in &res {
                    assert!(
                        f.labels.matches(n.id as usize, pred),
                        "disk filtered search returned id {} violating label {label}",
                        n.id
                    );
                }
                res.iter().map(|n| n.id).collect()
            })
            .collect();
        let recall = gt.recall(&ids);
        let floor = if f.labels.selectivity(pred) >= 0.05 {
            0.6
        } else {
            0.5
        };
        assert!(
            recall >= floor,
            "disk in-traversal recall {recall:.3} under {floor} at label {label}"
        );
    }
}

/// Zipf-skewed query selection raises the NodeCache hit rate over uniform
/// traffic on the disk backend: trace-driven admission pins the blocks the
/// head queries touch, and a skewed stream keeps re-touching exactly
/// those, while uniform traffic spreads over paths the cache never saw.
#[test]
fn zipf_traffic_raises_node_cache_hit_rate_over_uniform_on_disk() {
    let f = fixture();
    let store = TestStore::new("zipfcache");
    let mut index = DiskIndex::build(
        pq(&f.base),
        &f.base,
        &hnsw(&f.base),
        DiskIndexConfig {
            cache_nodes: 96,
            ..DiskIndexConfig::new(store.path())
        },
    )
    .expect("disk index build failed");

    // Warm by trace on one Zipf draw, evaluate on a *different* draw of
    // the same skew (predictive admission, not self-fulfilling) and on a
    // uniform stream of the same length.
    let nq = f.queries.len();
    let warm_idx: Vec<usize> = ArrivalSchedule::open_loop_zipf(3 * nq, 1_000.0, nq, 1, 7, 1.2)
        .requests
        .iter()
        .map(|r| r.query as usize)
        .collect();
    let zipf_idx: Vec<usize> = ArrivalSchedule::open_loop_zipf(3 * nq, 1_000.0, nq, 1, 8, 1.2)
        .requests
        .iter()
        .map(|r| r.query as usize)
        .collect();
    let uniform_idx: Vec<usize> = (0..3 * nq).map(|i| i % nq).collect();

    let pinned = index.warm_cache_by_trace(&f.queries.subset(&warm_idx), 30);
    assert!(pinned > 0, "trace warm-up pinned nothing");

    let hit_rate = |idx: &[usize]| {
        let mut scratch = SearchScratch::new();
        let (mut hits, mut misses) = (0usize, 0usize);
        for &qi in idx {
            let (_, stats) = index.search_with_scratch(f.queries.get(qi), 30, 10, &mut scratch);
            hits += stats.cache_hits;
            misses += stats.cache_misses;
        }
        hits as f64 / (hits + misses).max(1) as f64
    };

    let zipf_rate = hit_rate(&zipf_idx);
    let uniform_rate = hit_rate(&uniform_idx);
    assert!(
        zipf_rate > uniform_rate,
        "Zipf stream hit rate {zipf_rate:.3} not above uniform {uniform_rate:.3}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under arbitrary insert/remove churn with a forced consolidation in
    /// the middle, filtered results (both strategies) only ever return
    /// live points whose label satisfies the predicate — checked against
    /// an *external* mirror of the masks carried through the compaction
    /// remap, which also pins that the internal label store stays in
    /// lock-step with it.
    #[test]
    fn filtered_results_satisfy_predicate_under_churn(
        seed in 0u64..1_000,
        n_ops in 30usize..80,
        remove_every in 2usize..5,
    ) {
        let data = SynthConfig {
            dim: 8,
            intrinsic_dim: 4,
            clusters: 8,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        }
        .generate(260, seed);
        let (seed_set, pool) = data.split_at(140);
        let (inserts, queries) = pool.split_at(100);
        let vocab = 4usize;
        let mask_for = |i: usize| 1u32 << ((i.wrapping_mul(7).wrapping_add(seed as usize)) % vocab);

        let seed_labels = Labels::from_masks(
            vocab,
            (0..seed_set.len()).map(mask_for).collect(),
        );
        let mut mirror: Vec<u32> = (0..seed_set.len()).map(mask_for).collect();
        let mut index = StreamingIndex::build_labeled(
            pq(&seed_set),
            &seed_set,
            seed_labels,
            StreamingConfig {
                r: 8,
                l: 16,
                ..Default::default()
            },
        );
        let mut scratch = SearchScratch::new();

        for i in 0..n_ops {
            let mask = mask_for(seed_set.len() + i);
            index.insert_labeled(inserts.get(i % inserts.len()), mask, &mut scratch);
            mirror.push(mask);
            if i % remove_every == 0 {
                index.remove(((i * 13) % index.len()) as u32);
            }
            if i == n_ops / 2 {
                if let Some(report) = index.consolidate(true) {
                    mirror = report
                        .survivors
                        .iter()
                        .map(|&old| mirror[old as usize])
                        .collect();
                }
            }
        }

        for label in 0..vocab {
            let pred = LabelPredicate::single(label);
            for strategy in [
                FilterStrategy::DuringTraversal,
                FilterStrategy::PostFilter { inflation: 3 },
            ] {
                for qi in 0..queries.len().min(6) {
                    let (res, _) =
                        index.search_filtered(queries.get(qi), pred, strategy, 60, 10, &mut scratch);
                    for n in &res {
                        prop_assert!(
                            !index.is_tombstoned(n.id),
                            "returned a tombstoned id {}", n.id
                        );
                        prop_assert!(
                            pred.matches(mirror[n.id as usize]),
                            "id {} violates label-{label} predicate after churn", n.id
                        );
                        prop_assert_eq!(
                            index.labels().get(n.id as usize),
                            mirror[n.id as usize],
                            "internal label store diverged from the external mirror"
                        );
                    }
                }
            }
        }
    }
}

/// One read's answer, compared as ids with distance bits plus every stats
/// field.
fn assert_same_read(
    got: (Vec<Neighbor>, ShardQueryStats),
    want: (Vec<Neighbor>, ShardQueryStats),
    ctx: &str,
) {
    let bits = |res: &[Neighbor]| -> Vec<(u32, u32)> {
        res.iter().map(|n| (n.id, n.dist.to_bits())).collect()
    };
    assert_eq!(bits(&got.0), bits(&want.0), "{ctx}: answers differ");
    assert_eq!(got.1, want.1, "{ctx}: stats differ");
}

/// The serving door (`ShardBackend::search_local`) and each index's own
/// search methods are one read: with no filter, filtering during traversal
/// and post-filtering, at a narrow, a middling and an exhaustive beam, all
/// three indexes answer the same ids, distance bits and stats either way.
#[test]
fn shard_reads_equal_each_index_own_methods() {
    let (all, all_labels) = labeled_data(640, 11);
    let (base, queries) = all.split_at(600);
    let labels = all_labels.subset(&(0..600).collect::<Vec<_>>());
    let graph = hnsw(&base);
    let memory = InMemoryIndex::build(pq(&base), &base, graph.clone()).with_labels(labels.clone());
    let store = TestStore::new("shard-read");
    let mut disk = DiskIndex::build(pq(&base), &base, &graph, DiskIndexConfig::new(store.path()))
        .expect("disk index build failed");
    disk.set_labels(labels.clone());
    let stream =
        StreamingIndex::build_labeled(pq(&base), &base, labels, StreamingConfig::default());
    let pred = LabelPredicate::single(2);
    let strategies = [
        None,
        Some(FilterStrategy::DuringTraversal),
        Some(FilterStrategy::PostFilter { inflation: 4 }),
    ];
    let mut scratch = SearchScratch::new();
    for ef in [10, 40, base.len()] {
        for strategy in strategies {
            let filter = strategy.map(|strategy| FilteredQuery { pred, strategy });
            for (qi, q) in queries.iter().enumerate() {
                let ctx = |index: &str| format!("{index}, ef {ef}, {strategy:?}, query {qi}");

                let (res, stats) = match strategy {
                    None => memory.search(q, ef, 10, &mut scratch),
                    Some(s) => memory.search_filtered(q, pred, s, ef, 10, &mut scratch),
                };
                let got = memory.search_local(q, filter, ef, 10, &mut scratch);
                assert_same_read(got.unwrap(), (res, stats.into()), &ctx("memory"));

                let want = match strategy {
                    None => disk.search_with_scratch(q, ef, 10, &mut scratch),
                    Some(s) => disk.search_filtered(q, pred, s, ef, 10, &mut scratch),
                };
                let got = disk.search_local(q, filter, ef, 10, &mut scratch);
                assert_same_read(got.unwrap(), want, &ctx("disk"));

                let (res, stats) = match strategy {
                    None => stream.search(q, ef, 10, &mut scratch),
                    Some(s) => stream.search_filtered(q, pred, s, ef, 10, &mut scratch),
                };
                let got = stream.search_local(q, filter, ef, 10, &mut scratch);
                assert_same_read(got.unwrap(), (res, stats.into()), &ctx("streaming"));
            }
        }
    }
}

/// A predicate sent to an index without labels is a `NoLabels` fault at
/// the serving door and a "requires labels" panic from `search_filtered`,
/// under either strategy, on both frozen indexes.
#[test]
fn label_less_indexes_refuse_filtered_reads() {
    let (base, _) = labeled_data(300, 12);
    let graph = hnsw(&base);
    let memory = InMemoryIndex::build(pq(&base), &base, graph.clone());
    let store = TestStore::new("no-labels");
    let disk = DiskIndex::build(pq(&base), &base, &graph, DiskIndexConfig::new(store.path()))
        .expect("disk index build failed");
    let backends: [(&str, &dyn ShardBackend); 2] = [("memory", &memory), ("disk", &disk)];
    let (q, pred) = (base.get(0), LabelPredicate::single(0));
    let mut scratch = SearchScratch::new();
    for strategy in [
        FilterStrategy::DuringTraversal,
        FilterStrategy::PostFilter { inflation: 4 },
    ] {
        let filter = Some(FilteredQuery { pred, strategy });
        for (name, backend) in backends {
            assert!(
                matches!(
                    backend.search_local(q, filter, 40, 10, &mut scratch),
                    Err(ReplicaFault::NoLabels)
                ),
                "{name}, {strategy:?}: a label-less read must fault"
            );
        }
        let panics = [
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                memory.search_filtered(q, pred, strategy, 40, 10, &mut SearchScratch::new());
            })),
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                disk.search_filtered(q, pred, strategy, 40, 10, &mut SearchScratch::new());
            })),
        ];
        for ((name, _), caught) in backends.iter().zip(panics) {
            let payload = caught.expect_err("search_filtered without labels must panic");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.contains("requires labels"),
                "{name}, {strategy:?}: panic message {message:?}"
            );
        }
    }
}
