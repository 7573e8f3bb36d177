//! Operational features: persist a trained quantizer to disk and serve a
//! hybrid index with DiskANN-style cached beam search.
//!
//! Train once, save the model (rotation + codebook, a few hundred KiB),
//! reload it in a serving process, and pin the entry region of the graph in
//! RAM to cut per-query disk reads.
//!
//! ```text
//! cargo run -p rpq-bench --release --example persist_and_cache
//! ```

use std::sync::Arc;

use rpq_anns::{DiskIndex, DiskIndexConfig};
use rpq_bench::setup::{rpq_config, store_path};
use rpq_core::{train_rpq, TrainingMode};
use rpq_data::synth::DatasetKind;
use rpq_graph::{SearchScratch, VamanaConfig};
use rpq_quant::{read_rotated_pq, write_rotated_pq, VectorCompressor};

fn main() {
    let scale = rpq_bench::Scale::from_env().expect("RPQ_SCALE");
    let (base, queries) = DatasetKind::Sift.generate(scale.n_base.min(4000), 20, 99);
    let graph = Arc::new(VamanaConfig::default().build(&base));

    // --- training process: fit RPQ and persist the model ------------------
    let cfg = rpq_config(TrainingMode::Full, &scale, 8, scale.kk);
    let (rpq, stats) = train_rpq(&cfg, &base, &graph);
    let model_path = std::env::temp_dir().join("rpq-example-model.bin");
    {
        let mut f = std::fs::File::create(&model_path).expect("create model file");
        write_rotated_pq(&mut f, &rpq).expect("persist model");
    }
    let size = std::fs::metadata(&model_path).unwrap().len();
    println!(
        "trained RPQ in {:.1}s, persisted {} KiB model to {}",
        stats.seconds,
        size / 1024,
        model_path.display()
    );

    // --- serving process: reload the model, build cached + uncached indexes
    let loaded = {
        let mut f = std::fs::File::open(&model_path).expect("open model file");
        read_rotated_pq(&mut f).expect("load model")
    };
    println!(
        "reloaded model: dim {}, {} KiB resident",
        loaded.dim(),
        loaded.model_bytes() / 1024
    );

    let (plain_store, cached_store) = (
        store_path("example-persist-plain"),
        store_path("example-persist-cached"),
    );
    let plain = DiskIndex::build(
        read_model(&model_path),
        &base,
        &graph,
        DiskIndexConfig::new(&plain_store),
    )
    .expect("build plain index");
    let cached = DiskIndex::build(
        loaded,
        &base,
        &graph,
        DiskIndexConfig {
            cache_nodes: base.len() / 10, // pin ~10% of nodes around the entry
            ..DiskIndexConfig::new(&cached_store)
        },
    )
    .expect("build cached index");

    let (mut io_plain, mut io_cached) = (0usize, 0usize);
    let mut scratch = SearchScratch::new();
    for q in queries.iter() {
        io_plain += plain
            .search_with_scratch(q, 60, 10, &mut scratch)
            .1
            .io_reads;
        io_cached += cached
            .search_with_scratch(q, 60, 10, &mut scratch)
            .1
            .io_reads;
    }
    let n = queries.len();
    println!(
        "disk reads/query: {} uncached vs {} with cached beam search ({:.0}% hit rate)",
        io_plain / n,
        io_cached / n,
        cached.cache_stats().hit_rate() * 100.0
    );
    drop((plain, cached));
    for path in [plain_store, cached_store, model_path] {
        std::fs::remove_file(path).expect("remove store");
    }
}

fn read_model(path: &std::path::Path) -> rpq_quant::OptimizedProductQuantizer {
    let mut f = std::fs::File::open(path).expect("open model file");
    read_rotated_pq(&mut f).expect("load model")
}
