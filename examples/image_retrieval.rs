//! Image-retrieval scenario (the paper's SIFT/BigANN motivation): a
//! billion-scale image descriptor collection cannot keep full vectors in
//! RAM, so the index runs in the SSD+memory **hybrid** mode — compact codes
//! in RAM for routing, descriptors + graph on disk for reranking.
//!
//! Compares DiskANN-PQ against DiskANN-RPQ at matched recall, reporting the
//! paper's Figure 5 metrics (QPS, hops, disk I/O) at miniature scale.
//!
//! ```text
//! cargo run -p rpq-bench --release --example image_retrieval
//! ```

use std::sync::Arc;

use rpq_anns::{qps_at_recall, sweep, DiskIndex, DiskIndexConfig};
use rpq_bench::setup::{rpq_config, store_path};
use rpq_core::{train_rpq, TrainingMode};
use rpq_data::brute_force_knn;
use rpq_data::synth::DatasetKind;
use rpq_graph::VamanaConfig;
use rpq_quant::{PqConfig, ProductQuantizer, VectorCompressor};

fn main() {
    let scale = rpq_bench::Scale::from_env().expect("RPQ_SCALE");
    let (base, queries) = DatasetKind::Sift.generate(scale.n_base, scale.n_query, 7);
    let gt = brute_force_knn(&base, &queries, 10);
    println!(
        "image corpus: {} SIFT-like descriptors ({} dims), {} queries",
        base.len(),
        base.dim(),
        queries.len()
    );

    // DiskANN substrate: Vamana graph, node-per-sector store.
    let graph = Arc::new(VamanaConfig::default().build(&base));

    let efs = [10usize, 20, 40, 80, 160];
    let mut curves = Vec::new();
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
        println!(
            "\nDiskANN-{which}: model {} KiB resident alongside {} KiB of codes",
            compressor.model_bytes() / 1024,
            base.len() * 8 / 1024,
        );
        let store = store_path(&format!("example-image-{which}"));
        let index = DiskIndex::build(compressor, &base, &graph, DiskIndexConfig::new(&store))
            .expect("store build failed");
        println!(
            "  resident/disk = {} KiB / {} KiB ({:.1}% in RAM)",
            index.resident_bytes() / 1024,
            index.disk_bytes() / 1024,
            100.0 * index.resident_bytes() as f32 / index.disk_bytes() as f32
        );
        let points = sweep(&index, &queries, &gt, 10, &efs);
        drop(index);
        std::fs::remove_file(&store).expect("remove store");
        for p in &points {
            println!(
                "  ef={:<4} recall@10={:.3} qps={:<8.0} hops={:<6.1} io={:.2} ms/query",
                p.ef, p.recall, p.qps, p.hops, p.io_ms
            );
        }
        curves.push((which, points));
    }

    let target = curves
        .iter()
        .map(|(_, pts)| pts.iter().map(|p| p.recall).fold(0.0f32, f32::max))
        .fold(f32::INFINITY, f32::min)
        * 0.98;
    println!("\nQPS at matched recall {target:.3}:");
    for (which, pts) in &curves {
        println!(
            "  DiskANN-{which}: {:.0}",
            qps_at_recall(pts, target).unwrap_or(0.0)
        );
    }
}
