//! End-to-end integration tests spanning every crate: data generation →
//! graph construction → quantizer training → PQ-integrated search →
//! recall, in both deployment scenarios.

use std::sync::Arc;

use rpq_anns::{sweep, DiskIndex, DiskIndexConfig, InMemoryIndex};
use rpq_bench::setup::rpq_config;
use rpq_bench::Scale;
use rpq_core::{train_rpq, TrainingMode};
use rpq_data::brute_force_knn;
use rpq_data::synth::DatasetKind;
use rpq_graph::{HnswConfig, ProximityGraph, VamanaConfig};
use rpq_quant::{PqConfig, ProductQuantizer, VectorCompressor};

#[path = "../crates/anns/tests/support/test_store.rs"]
mod test_store;
use test_store::TestStore;

fn scale() -> Scale {
    Scale::ci()
}

#[test]
fn full_pipeline_in_memory_rpq_not_worse_than_pq() {
    let s = scale();
    let (base, queries) = DatasetKind::Sift.generate(1500, 40, 9);
    let gt = brute_force_knn(&base, &queries, s.k);
    let graph = Arc::new(HnswConfig::default().build(&base));

    let pq: Box<dyn VectorCompressor> = Box::new(ProductQuantizer::train(
        &PqConfig {
            m: 8,
            k: 64,
            ..Default::default()
        },
        &base,
    ));
    let cfg = rpq_config(TrainingMode::Full, &s, 8, 64);
    let rpq: Box<dyn VectorCompressor> = Box::new(train_rpq(&cfg, &base, &graph).0);

    let efs = [20usize, 60];
    let pq_idx = InMemoryIndex::build(pq, &base, ProximityGraph::clone(&graph));
    let rpq_idx = InMemoryIndex::build(rpq, &base, ProximityGraph::clone(&graph));
    let pq_pts = sweep(&pq_idx, &queries, &gt, s.k, &efs);
    let rpq_pts = sweep(&rpq_idx, &queries, &gt, s.k, &efs);

    // At the largest beam, the learned quantizer must not lose (noticeable
    // margin allowed for noise at this tiny scale).
    let pq_best = pq_pts.iter().map(|p| p.recall).fold(0.0f32, f32::max);
    let rpq_best = rpq_pts.iter().map(|p| p.recall).fold(0.0f32, f32::max);
    assert!(
        rpq_best >= pq_best - 0.05,
        "RPQ recall regressed: {rpq_best} vs PQ {pq_best}"
    );
    assert!(rpq_best > 0.35, "RPQ recall implausibly low: {rpq_best}");
}

#[test]
fn full_pipeline_hybrid_reranking_beats_adc_only() {
    let s = scale();
    let (base, queries) = DatasetKind::Deep.generate(1200, 30, 10);
    let gt = brute_force_knn(&base, &queries, s.k);
    let vamana = Arc::new(
        VamanaConfig {
            r: 16,
            l: 32,
            ..Default::default()
        }
        .build(&base),
    );

    let pq_for_mem: Box<dyn VectorCompressor> = Box::new(ProductQuantizer::train(
        &PqConfig {
            m: 8,
            k: 32,
            ..Default::default()
        },
        &base,
    ));
    let pq_for_disk: Box<dyn VectorCompressor> = Box::new(ProductQuantizer::train(
        &PqConfig {
            m: 8,
            k: 32,
            ..Default::default()
        },
        &base,
    ));

    let mem_idx = InMemoryIndex::build(pq_for_mem, &base, ProximityGraph::clone(&vamana));
    let store = TestStore::new("hybrid");
    let disk_idx = DiskIndex::build(
        pq_for_disk,
        &base,
        &vamana,
        DiskIndexConfig::new(store.path()),
    )
    .unwrap();

    let efs = [40usize];
    let mem = sweep(&mem_idx, &queries, &gt, s.k, &efs);
    let disk = sweep(&disk_idx, &queries, &gt, s.k, &efs);
    // The hybrid scenario reranks with exact distances: at equal beam width
    // it must reach at least the ADC-only recall.
    assert!(
        disk[0].recall >= mem[0].recall - 1e-3,
        "rerank lost recall: disk {} vs mem {}",
        disk[0].recall,
        mem[0].recall
    );
    assert!(disk[0].io_ms > 0.0, "hybrid search reported no I/O");
}

#[test]
fn ablation_ordering_is_sane() {
    // Full RPQ should not be materially worse than either single-feature
    // variant (paper Tables 6-7 show Full >= w/N >= w/R).
    let s = scale();
    let (base, queries) = DatasetKind::Ukbench.generate(1200, 30, 11);
    let gt = brute_force_knn(&base, &queries, s.k);
    let graph = Arc::new(
        VamanaConfig {
            r: 16,
            l: 32,
            ..Default::default()
        }
        .build(&base),
    );
    let mut recalls = Vec::new();
    for mode in [
        TrainingMode::Full,
        TrainingMode::NeighborOnly,
        TrainingMode::RoutingOnly,
    ] {
        let cfg = rpq_config(mode, &s, 8, 32);
        let (rpq, _) = train_rpq(&cfg, &base, &graph);
        let idx = InMemoryIndex::build(
            Box::new(rpq) as Box<dyn VectorCompressor>,
            &base,
            ProximityGraph::clone(&graph),
        );
        let pts = sweep(&idx, &queries, &gt, s.k, &[60]);
        recalls.push((mode.label(), pts[0].recall));
    }
    let full = recalls[0].1;
    for (label, r) in &recalls[1..] {
        assert!(full >= r - 0.08, "Full ({full}) far below {label} ({r})");
    }
}

#[test]
fn graph_serialization_roundtrip_preserves_search() {
    let (base, queries) = DatasetKind::Sift.generate(800, 5, 12);
    let graph = HnswConfig::default().build(&base);
    let mut buf = Vec::new();
    graph.write_to(&mut buf).unwrap();
    let back = ProximityGraph::read_from(&mut buf.as_slice()).unwrap();
    assert_eq!(back, graph);

    use rpq_graph::{beam_search, ExactEstimator, SearchScratch};
    let mut scratch = SearchScratch::new();
    for q in queries.iter() {
        let est = ExactEstimator::new(&base, q);
        let (a, _) = beam_search(&graph, &est, 30, 5, &mut scratch);
        let (b, _) = beam_search(&back, &est, 30, 5, &mut scratch);
        assert_eq!(
            a.iter().map(|n| n.id).collect::<Vec<_>>(),
            b.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }
}

#[test]
fn memory_budget_in_memory_scenario() {
    // Codes + model must come in far below raw vectors (the scenario's
    // reason to exist), and the full index accounting must add up.
    let (base, _) = DatasetKind::Gist.generate(800, 0, 13);
    let graph = HnswConfig::default().build(&base);
    let graph_bytes = graph.memory_bytes();
    let pq = ProductQuantizer::train(
        &PqConfig {
            m: 8,
            k: 64,
            ..Default::default()
        },
        &base,
    );
    let idx = InMemoryIndex::build(pq, &base, graph);
    let resident = idx.memory_bytes();
    assert!(resident > graph_bytes, "accounting must include the graph");
    let quant_part = resident - graph_bytes;
    assert!(
        quant_part * 8 < base.memory_bytes(),
        "quantized footprint {quant_part} not < 1/8 of raw {}",
        base.memory_bytes()
    );
}
