//! Thread-count determinism: every build and search path must produce
//! **bit-identical** results whether the rayon pool runs 1 worker or
//! many. This is the contract that makes multi-threaded QPS numbers
//! comparable to single-threaded ones (same work, same results, less
//! wall-clock) and keeps seeded experiments reproducible on any machine.
//!
//! The vendored rayon's `with_num_threads` pins the pool width for a
//! scope on the calling thread, so both widths run inside one process.

use rpq_anns::serve::{
    AdmissionConfig, ArrivalSchedule, ClusterEngine, ClusterIndex, CostModel, LoadBalancePolicy,
    RejectReason, RequestOutcome, ShardedIndex, TokenBucketConfig,
};
use rpq_anns::stream::{StreamingConfig, StreamingIndex};
use rpq_anns::{sweep, InMemoryIndex};
use rpq_data::synth::{SynthConfig, ValueTransform};
use rpq_data::{brute_force_knn, Dataset};
use rpq_graph::{build_nsg, nn_descent, HnswConfig, SearchScratch, VamanaConfig};
use rpq_quant::{PqConfig, ProductQuantizer, VectorCompressor};

const THREAD_COUNTS: [usize; 2] = [1, 4];

fn ci_data(n: usize, seed: u64) -> Dataset {
    SynthConfig {
        dim: 12,
        intrinsic_dim: 5,
        clusters: 6,
        cluster_std: 0.7,
        noise_std: 0.05,
        transform: ValueTransform::Identity,
    }
    .generate(n, seed)
}

/// Runs `f` under each thread count and asserts every run returns the
/// same value as the single-threaded reference.
fn assert_thread_invariant<T: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn() -> T) -> T {
    let reference = rayon::with_num_threads(THREAD_COUNTS[0], &f);
    for &threads in &THREAD_COUNTS[1..] {
        let got = rayon::with_num_threads(threads, &f);
        assert!(
            got == reference,
            "{what}: result under {threads} threads diverged from the \
             single-threaded reference"
        );
    }
    reference
}

#[test]
fn ground_truth_is_thread_invariant() {
    let data = ci_data(500, 42);
    let (base, queries) = data.split_at(470);
    let gt = assert_thread_invariant("brute_force_knn", || {
        brute_force_knn(&base, &queries, 10).neighbors
    });
    assert_eq!(gt.len(), queries.len());
    assert!(gt.iter().all(|l| l.len() == 10));
}

/// Vamana and HNSW build in batches (Vamana's fixed chunks of 512, HNSW's
/// doubling batches up to 256), so their corpus is wide enough to span
/// several: a fault in how one batch's results reach the next shows only
/// there.
#[test]
fn graph_builds_are_thread_invariant() {
    let batched = ci_data(1_300, 7);
    let data = ci_data(300, 7);
    let adjacency = |g: &rpq_graph::ProximityGraph| -> Vec<Vec<u32>> {
        (0..g.len() as u32)
            .map(|v| g.neighbors(v).to_vec())
            .collect()
    };
    assert_thread_invariant("vamana build", || {
        adjacency(
            &VamanaConfig {
                r: 8,
                l: 16,
                ..Default::default()
            }
            .build(&batched),
        )
    });
    // The whole graph: the base layer, the entry and the upper levels.
    assert_thread_invariant("hnsw build", || {
        HnswConfig {
            m: 8,
            ef_construction: 32,
            seed: 7,
        }
        .build(&batched)
    });
    assert_thread_invariant("nsg build", || adjacency(&build_nsg(&data, 0)));
    // NN-Descent's local join runs as parallel propose / sequential
    // apply precisely so this holds.
    assert_thread_invariant("nn_descent", || nn_descent(&data, 0));
}

/// The bits of every codeword, codeword by codeword in `[m][k][dsub]`
/// order.
fn codebook_bits(pq: &ProductQuantizer) -> Vec<u32> {
    let cb = pq.codebook();
    let mut bits = Vec::with_capacity(cb.m() * cb.k() * cb.dsub());
    let mut word = vec![0.0f32; cb.dsub()];
    for j in 0..cb.m() {
        for ki in 0..cb.k() {
            cb.codeword(j, ki, &mut word);
            bits.extend(word.iter().map(|v| v.to_bits()));
        }
    }
    bits
}

/// PQ training runs its sub-space k-means side by side, each one
/// sequential: the codebook bits cannot depend on the pool width. The
/// fingerprint was recorded from the row-major, parallel-inside-k-means
/// trainer the column kernel replaced, so any drift in the training
/// arithmetic fails here.
#[test]
fn pq_training_is_thread_invariant_and_pinned() {
    let data = SynthConfig {
        dim: 32,
        intrinsic_dim: 8,
        clusters: 6,
        cluster_std: 0.7,
        noise_std: 0.05,
        transform: ValueTransform::Identity,
    }
    .generate(2_000, 7);
    let cfg = PqConfig {
        m: 8,
        k: 64,
        seed: 7,
        ..Default::default()
    };
    let bits = assert_thread_invariant("PQ codebook bits", || {
        codebook_bits(&ProductQuantizer::train(&cfg, &data))
    });
    // FNV-1a over the little-endian bytes of those bits.
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for b in bits.iter().flat_map(|v| v.to_le_bytes()) {
        fingerprint ^= b as u64;
        fingerprint = fingerprint.wrapping_mul(0x0000_0100_0000_01b3);
    }
    assert_eq!(fingerprint, 0x2560_6f72_c799_1d7f);
}

#[test]
fn memory_sweep_is_thread_invariant() {
    let data = ci_data(640, 3);
    let (base, queries) = data.split_at(600);
    let gt = brute_force_knn(&base, &queries, 10);
    let graph = HnswConfig {
        m: 8,
        ef_construction: 40,
        seed: 0,
    }
    .build(&base);
    let pq = ProductQuantizer::train(
        &PqConfig {
            m: 4,
            k: 16,
            ..Default::default()
        },
        &base,
    );
    let index = InMemoryIndex::build(pq, &base, graph);

    // Per-query top-k ids through the parallel harness path
    // (into_par_iter + map_init scratch), bit-identical across widths.
    let ids = assert_thread_invariant("per-query top-k ids", || {
        use rayon::prelude::*;
        (0..queries.len())
            .into_par_iter()
            .map_init(SearchScratch::new, |scratch, qi| {
                let (res, _) = index.search(queries.get(qi), 40, 10, scratch);
                res.iter().map(|n| n.id).collect::<Vec<u32>>()
            })
            .collect::<Vec<Vec<u32>>>()
    });
    assert_eq!(ids.len(), queries.len());

    // Recall (and hops) off the full sweep; QPS legitimately varies with
    // the width, so compare the deterministic fields only.
    let points = assert_thread_invariant("sweep recall/hops", || {
        sweep(&index, &queries, &gt, 10, &[10, 40])
            .into_iter()
            .map(|p| (p.ef, p.recall.to_bits(), p.hops.to_bits()))
            .collect::<Vec<_>>()
    });
    assert_eq!(points.len(), 2);
}

/// The index's own search (DESIGN.md §9): thread-invariant like everything
/// else, *and* bit-identical to `beam_search` driven by an explicit
/// `estimator(index.codes(), q)` — the index adds nothing between its one
/// code store and the beam kernel.
#[test]
fn index_beam_search_is_thread_invariant_and_equals_explicit_estimator() {
    use rpq_graph::beam_search;

    let data = ci_data(540, 17);
    let (base, queries) = data.split_at(500);
    let graph = HnswConfig {
        m: 8,
        ef_construction: 40,
        seed: 0,
    }
    .build(&base);
    let pq = ProductQuantizer::train(
        &PqConfig {
            m: 4,
            k: 16,
            ..Default::default()
        },
        &base,
    );
    let index = InMemoryIndex::build(pq, &base, graph);

    // Index searches across pool widths: bit-identical ids and distances.
    let indexed = assert_thread_invariant("index per-query results", || {
        use rayon::prelude::*;
        (0..queries.len())
            .into_par_iter()
            .map_init(SearchScratch::new, |scratch, qi| {
                let (res, _) = index.search(queries.get(qi), 40, 10, scratch);
                res.iter()
                    .map(|n| (n.id, n.dist.to_bits()))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<Vec<_>>>()
    });

    // The same queries through the explicit scalar estimator over the same
    // graph and codes: the index results must match bit for bit.
    let mut scratch = SearchScratch::new();
    for (qi, indexed_res) in indexed.iter().enumerate() {
        let q = queries.get(qi);
        let est = index.compressor().estimator(index.codes(), q);
        let (res, _) = beam_search(index.graph(), &est, 40, 10, &mut scratch);
        let scalar: Vec<(u32, u32)> = res.iter().map(|n| (n.id, n.dist.to_bits())).collect();
        assert_eq!(
            *indexed_res, scalar,
            "query {qi}: index top-k diverged from the explicit scalar estimator"
        );
    }
}

#[test]
fn streaming_lifecycle_is_thread_invariant() {
    // A scripted insert/delete/consolidate schedule must leave bit-identical
    // graphs, survivor lists, and search results at every pool width: the
    // initial batch build is the only parallel stage, and PR-3's regime
    // makes it order-deterministic.
    let data = ci_data(400, 11);
    let (seed_set, pool) = data.split_at(280);
    let (inserts, queries) = pool.split_at(100);

    let (adjacency, survivors, ids) =
        assert_thread_invariant("streaming insert/delete/consolidate", || {
            let pq = ProductQuantizer::train(
                &PqConfig {
                    m: 4,
                    k: 16,
                    ..Default::default()
                },
                &seed_set,
            );
            let mut index = StreamingIndex::build(
                pq,
                &seed_set,
                StreamingConfig {
                    r: 8,
                    l: 16,
                    ..Default::default()
                },
            );
            let mut scratch = SearchScratch::new();
            for i in 0..inserts.len() {
                index.insert(inserts.get(i), &mut scratch);
                if i % 3 == 1 {
                    // Deterministic victim; double-removal is a no-op.
                    index.remove(((i * 7) % index.len()) as u32);
                }
            }
            let survivors = index
                .consolidate(true)
                .map(|r| r.survivors)
                .unwrap_or_default();
            // A post-compaction wave exercises insertion into the shrunken
            // id space.
            for i in 0..20 {
                index.insert(inserts.get(i), &mut scratch);
            }
            let adjacency: Vec<Vec<u32>> = (0..index.len() as u32)
                .map(|v| index.graph().neighbors(v).to_vec())
                .collect();
            let ids: Vec<Vec<(u32, u32)>> = (0..queries.len())
                .map(|qi| {
                    let (res, _) = index.search(queries.get(qi), 40, 10, &mut scratch);
                    res.iter().map(|n| (n.id, n.dist.to_bits())).collect()
                })
                .collect();
            (adjacency, survivors, ids)
        });
    assert!(!adjacency.is_empty());
    assert!(!survivors.is_empty());
    assert_eq!(ids.len(), queries.len());
    assert!(ids.iter().all(|l| !l.is_empty()));
}

#[test]
fn cluster_serving_with_rebalance_is_thread_invariant() {
    // The whole serving control plane on the virtual clock — replicated
    // reads, admission (queue + deadline + quota), and a live rebalance
    // between two open-loop runs — must be bit-identical at every pool
    // width. This is what licenses reading the cluster's goodput and p99
    // numbers on any machine.
    let data = ci_data(360, 23);
    let (base, queries) = data.split_at(320);
    let cfg = StreamingConfig {
        r: 8,
        l: 16,
        ..Default::default()
    };

    type Encoded = Vec<(u8, Vec<(u32, u32)>, u32)>;
    let encode = |outcomes: &[RequestOutcome]| -> Encoded {
        outcomes
            .iter()
            .map(|o| match o {
                RequestOutcome::Completed {
                    neighbors,
                    latency_us,
                } => (
                    u8::MAX,
                    neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect(),
                    latency_us.to_bits(),
                ),
                RequestOutcome::Rejected { reason } => (
                    match reason {
                        RejectReason::QueueFull => 0,
                        RejectReason::DeadlineExceeded => 1,
                        RejectReason::QuotaExceeded => 2,
                        RejectReason::ShardUnavailable => 3,
                        RejectReason::NoLabels => 4,
                    },
                    Vec::new(),
                    0,
                ),
            })
            .collect()
    };

    let (before, after) = assert_thread_invariant("cluster open-loop with rebalance", || {
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let cluster =
            ClusterIndex::build_streaming(&pq, &base, 2, 2, LoadBalancePolicy::QueueAware, cfg);
        let engine = ClusterEngine::new(
            cluster,
            AdmissionConfig {
                queue_cap: 8,
                deadline_us: Some(5_000.0),
                quota: Some(TokenBucketConfig {
                    rate_per_sec: 2_000.0,
                    burst: 4.0,
                }),
            },
            CostModel::default(),
        );
        let schedule = ArrivalSchedule::open_loop(200, 4_000.0, queries.len(), 2, 77);
        let (before, _) = engine.serve_open_loop(&queries, &schedule, 40, 10);
        // A membership change between runs: third shard joins, replicas
        // grow — the rebalance itself must be thread-invariant too.
        engine.reconfigure(|c| {
            let mut scratch = SearchScratch::new();
            c.add_shard(Box::new(StreamingIndex::new(pq.clone(), cfg)), &mut scratch);
            c.set_replicas(3);
        });
        let (after, _) = engine.serve_open_loop(&queries, &schedule, 40, 10);
        (encode(&before), encode(&after))
    });
    assert_eq!(before.len(), 200);
    assert_eq!(after.len(), 200);
    assert!(before.iter().any(|(tag, ..)| *tag == u8::MAX));
    assert!(after.iter().any(|(tag, ..)| *tag == u8::MAX));
}

#[test]
fn sharded_search_is_thread_invariant() {
    let data = ci_data(440, 5);
    let (base, queries) = data.split_at(400);
    let pq = ProductQuantizer::train(
        &PqConfig {
            m: 4,
            k: 16,
            ..Default::default()
        },
        &base,
    );
    let index = ShardedIndex::build_in_memory(&pq, &base, 3, |part| {
        HnswConfig {
            m: 8,
            ef_construction: 40,
            seed: 0,
        }
        .build(part)
    });
    let ids = assert_thread_invariant("sharded per-query top-k ids", || {
        use rayon::prelude::*;
        (0..queries.len())
            .into_par_iter()
            .map_init(SearchScratch::new, |scratch, qi| {
                let (res, _) = index.search(queries.get(qi), 40, 10, scratch);
                res.iter()
                    .map(|n| (n.id, n.dist.to_bits()))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<Vec<_>>>()
    });
    assert_eq!(ids.len(), queries.len());
    assert!(ids.iter().all(|l| !l.is_empty()));
}

#[test]
fn filtered_sharded_search_is_thread_invariant() {
    // The predicate layer inherits the thread-invariance guarantee: the
    // filtered fan-out + merge must produce bit-identical ids and
    // distances at every pool width, for both filter strategies.
    use rpq_anns::FilterStrategy;
    use rpq_data::{LabelPredicate, Labels};

    let data = ci_data(440, 19);
    let (base, queries) = data.split_at(400);
    let labels = Labels::from_masks(4, (0..base.len()).map(|i| 1u32 << (i % 4)).collect());
    let pq = ProductQuantizer::train(
        &PqConfig {
            m: 4,
            k: 16,
            ..Default::default()
        },
        &base,
    );
    let index = ShardedIndex::build_in_memory_labeled(&pq, &base, &labels, 3, |part| {
        HnswConfig {
            m: 8,
            ef_construction: 40,
            seed: 0,
        }
        .build(part)
    });
    for strategy in [
        FilterStrategy::DuringTraversal,
        FilterStrategy::PostFilter { inflation: 3 },
    ] {
        let ids = assert_thread_invariant("filtered sharded per-query top-k", || {
            use rayon::prelude::*;
            (0..queries.len())
                .into_par_iter()
                .map_init(SearchScratch::new, |scratch, qi| {
                    let pred = LabelPredicate::single(qi % 4);
                    let (res, _) =
                        index.search_filtered(queries.get(qi), pred, strategy, 40, 10, scratch);
                    res.iter()
                        .map(|n| (n.id, n.dist.to_bits()))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<Vec<_>>>()
        });
        assert_eq!(ids.len(), queries.len());
        assert!(ids.iter().all(|l| !l.is_empty()));
    }
}

#[test]
fn zipf_filtered_cluster_serving_is_thread_invariant() {
    // Zipf-skewed query selection plus predicate-carrying requests through
    // the replicated cluster on the virtual clock: outcomes (top-k ids,
    // distance bits, latencies, reject reasons) must be bit-identical at
    // every pool width, skewed and filtered traffic included.
    use rpq_anns::serve::FilteredQuery;
    use rpq_anns::FilterStrategy;
    use rpq_data::{LabelPredicate, Labels};

    let data = ci_data(360, 29);
    let (base, queries) = data.split_at(320);
    let labels = Labels::from_masks(4, (0..base.len()).map(|i| 1u32 << (i % 4)).collect());

    let outcomes = assert_thread_invariant("zipf filtered cluster open-loop", || {
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let table = ShardedIndex::build_in_memory_labeled(&pq, &base, &labels, 2, |part| {
            HnswConfig {
                m: 8,
                ef_construction: 40,
                seed: 0,
            }
            .build(part)
        });
        let cluster = ClusterIndex::new(table.with_replicas(2), LoadBalancePolicy::QueueAware);
        let engine = ClusterEngine::new(
            cluster,
            AdmissionConfig {
                queue_cap: 8,
                ..Default::default()
            },
            CostModel::default(),
        );
        let schedule = ArrivalSchedule::open_loop_zipf(160, 4_000.0, queries.len(), 2, 53, 1.1)
            .with_filters(&[
                FilteredQuery {
                    pred: LabelPredicate::single(0),
                    strategy: FilterStrategy::DuringTraversal,
                },
                FilteredQuery {
                    pred: LabelPredicate::single(1),
                    strategy: FilterStrategy::PostFilter { inflation: 3 },
                },
            ]);
        let (outcomes, _) = engine.serve_open_loop(&queries, &schedule, 40, 10);
        outcomes
            .iter()
            .map(|o| match o {
                RequestOutcome::Completed {
                    neighbors,
                    latency_us,
                } => (
                    true,
                    neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect(),
                    latency_us.to_bits(),
                ),
                RequestOutcome::Rejected { .. } => (false, Vec::new(), 0),
            })
            .collect::<Vec<(bool, Vec<(u32, u32)>, u32)>>()
    });
    assert_eq!(outcomes.len(), 160);
    assert!(outcomes.iter().any(|(done, ..)| *done));
}
