//! Side-by-side comparison of all five quantizers on one dataset: PQ, OPQ,
//! Catalyst, L&C and RPQ, in the in-memory scenario over HNSW — a
//! miniature of the paper's Figure 6.
//!
//! ```text
//! cargo run -p rpq-bench --release --example compare_quantizers
//! ```

use std::sync::Arc;

use rpq_anns::{sweep, InMemoryIndex};
use rpq_bench::setup::{build_graph, make_bench, GraphKind, Method};
use rpq_bench::Scale;
use rpq_data::synth::DatasetKind;
use rpq_graph::ProximityGraph;

fn main() {
    let scale = Scale::from_env().expect("RPQ_SCALE");
    let bench = make_bench(DatasetKind::Sift, scale.n_base, scale.n_query, scale.k, 3);
    println!(
        "SIFT-like, {} base / {} queries — in-memory over HNSW\n",
        bench.base.len(),
        bench.queries.len()
    );
    let graph = Arc::new(build_graph(GraphKind::Hnsw, &bench.base, 0));

    println!(
        "{:<10} {:>10} {:>12} {:>10} {:>10} {:>10}",
        "method", "train s", "model KiB", "recall@10", "qps", "hops"
    );
    for method in Method::MEMORY_HNSW {
        let compressor = method.build(&bench.base, &graph, &scale);
        let name = compressor.name();
        let train_s = compressor.train_seconds();
        let model_kib = compressor.model_bytes() / 1024;
        let index = InMemoryIndex::build(compressor, &bench.base, ProximityGraph::clone(&graph));
        let pts = sweep(&index, &bench.queries, &bench.gt, scale.k, &[80]);
        let p = pts[0];
        println!(
            "{:<10} {:>10.1} {:>12} {:>10.3} {:>10.0} {:>10.1}",
            name, train_s, model_kib, p.recall, p.qps, p.hops
        );
    }
    println!("\n(RPQ should match or beat the baselines on recall at equal ef; L&C\ntrades QPS for recall by decoding neighbors on the fly.)");
}
