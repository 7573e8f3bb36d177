//! RAG / semantic-retrieval scenario (the paper's LLM-motivation in §1): an
//! embedding store that must fit a strict memory budget. Demonstrates the
//! **in-memory** deployment — compact codes + codebook replace the full
//! embedding matrix — under the paper's f = 1/32 (~3%) budget rule, and
//! shows what that costs in recall with PQ vs RPQ.
//!
//! ```text
//! cargo run -p rpq-bench --release --example rag_memory_budget
//! ```

use std::sync::Arc;

use rpq_anns::{sweep, InMemoryIndex};
use rpq_bench::setup::rpq_config;
use rpq_core::{train_rpq, TrainingMode};
use rpq_data::brute_force_knn;
use rpq_data::synth::DatasetKind;
use rpq_graph::{HnswConfig, ProximityGraph};
use rpq_quant::{PqConfig, ProductQuantizer, VectorCompressor};

fn main() {
    let scale = rpq_bench::Scale::from_env().expect("RPQ_SCALE");
    // Deep-like: normalised CNN/encoder embeddings — the shape of text
    // embedding stores.
    let (base, queries) = DatasetKind::Deep.generate(scale.n_base, scale.n_query, 11);
    let gt = brute_force_knn(&base, &queries, 10);
    let raw = base.memory_bytes();
    println!(
        "embedding store: {} × {}-dim = {} KiB of raw vectors",
        base.len(),
        base.dim(),
        raw / 1024
    );

    let graph = Arc::new(HnswConfig::default().build(&base));
    let budget = (raw + graph.memory_bytes()) / 32;
    println!(
        "memory budget (paper's f = 1/32 of data+graph): {} KiB for codes + model",
        budget / 1024
    );

    for which in ["PQ", "RPQ"] {
        let compressor: Box<dyn VectorCompressor> = if which == "PQ" {
            Box::new(ProductQuantizer::train(
                &PqConfig {
                    m: 8,
                    k: scale.kk,
                    ..Default::default()
                },
                &base,
            ))
        } else {
            let cfg = rpq_config(TrainingMode::Full, &scale, 8, scale.kk);
            Box::new(train_rpq(&cfg, &base, &graph).0)
        };
        let index = InMemoryIndex::build(compressor, &base, ProximityGraph::clone(&graph));
        let quant_resident = index.codes().memory_bytes() + index.compressor().model_bytes();
        println!(
            "\n{which}: codes+model resident = {} KiB ({} budget)",
            quant_resident / 1024,
            if quant_resident <= budget {
                "WITHIN"
            } else {
                "OVER"
            },
        );
        let points = sweep(&index, &queries, &gt, 10, &[20, 60, 180]);
        for p in &points {
            println!(
                "  ef={:<4} recall@10={:.3} qps={:.0}",
                p.ef, p.recall, p.qps
            );
        }
    }
    println!("\n(The gap between the two recall columns at equal ef is the value of\nrouting-guided learning under the same memory budget.)");
}
