//! Workspace smoke test: drives the CI-scale experiment setup path end to
//! end (synthetic data → ground truth → graph → quantizer → in-memory
//! search → JSON report) in a few seconds. Its job is catching workspace
//! wiring regressions — a broken manifest, re-export, or shim anywhere in
//! the linalg → quant/graph → anns → bench chain fails this test under a
//! plain `cargo test -q` without running the full experiment suite.

use rpq_bench::setup::{build_graph, make_bench, GraphKind, Method};
use rpq_bench::{Report, Scale};
use rpq_data::ground_truth::recall_at_k;
use rpq_data::synth::DatasetKind;
use rpq_graph::SearchScratch;
use std::sync::Arc;

#[test]
fn ci_scale_setup_path_works() {
    let scale = Scale::ci();
    let bench = make_bench(
        DatasetKind::Sift,
        scale.n_base,
        scale.n_query,
        scale.k,
        scale.seed,
    );
    assert_eq!(bench.base.len(), scale.n_base);
    assert_eq!(bench.queries.len(), scale.n_query);
    assert_eq!(bench.gt.neighbors.len(), scale.n_query);

    // One graph + one cheap method is enough to cross every crate boundary.
    let graph = Arc::new(build_graph(GraphKind::Hnsw, &bench.base, scale.seed));
    assert_eq!(graph.len(), scale.n_base);
    let compressor = Method::Pq.build(&bench.base, &graph, &scale);

    let index = rpq_anns::InMemoryIndex::build(compressor, &bench.base, (*graph).clone());
    let mut scratch = SearchScratch::new();
    let ef = *scale.efs.last().expect("ci scale has beam widths");
    let mut recall_sum = 0.0;
    for qi in 0..bench.queries.len() {
        let (res, _) = index.search(bench.queries.get(qi), ef, scale.k, &mut scratch);
        let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
        recall_sum += recall_at_k(&ids, &bench.gt.neighbors[qi], scale.k);
    }
    let recall = recall_sum / bench.queries.len() as f32;
    assert!(recall > 0.3, "CI-scale recall collapsed: {recall}");

    // JSON reporting path (serde shims + bench_results dir).
    let mut report = Report::new("smoke-test", "Smoke", &scale.label(), &["Recall@10"]);
    report.push_row(vec![recall.into()]);
    let path = report.write_json();
    assert!(path.exists());
    std::fs::remove_file(path).ok();
}
