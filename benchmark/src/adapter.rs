//! The **frozen surface**: every call `rpq-perf` makes into the library
//! lives in this file, and nowhere else in the benchmark. A later change
//! that renames, merges or re-types one of these library functions must be
//! preceded by a benchmark change that ports this file — the signatures
//! used here are listed in `benchmark/README.md`.
//!
//! Each wrapper also opens the benchmark-side trace span for its layer
//! (`memory.search`, `disk.search`, `stream.insert`, …); the spans are
//! no-ops unless a traced phase turned recording on.
//!
//! Beyond the functions below the benchmark uses only plain accessors of
//! the re-exported data types (`Dataset::{len, dim, get, iter, subset,
//! split_at}`, `Labels::{len, get, subset, matches, count_matching}`,
//! `GroundTruth::recall`, `CompactCodes::{len, code, memory_bytes}`,
//! `SoaCodes::memory_bytes`), the `VectorCompressor` and `DistanceEstimator`
//! trait methods, the size/accounting getters of the indexes
//! (`memory_bytes`, `resident_bytes`, `disk_bytes`, `cache_stats`, `len`,
//! `live_len`, `tombstone_fraction`, `graph`, `vectors`),
//! `LatencyRecorder::{new, record_us, snapshot}` and the public fields of the
//! stats and report structs.

use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::trace::{span, Name};

pub use rpq_anns::serve::{
    AdmissionConfig, ArrivalSchedule, ClusterEngine, ClusterIndex, ClusterReport, CostModel,
    LatencyRecorder, LoadBalancePolicy, RequestOutcome, ServeConfig, ServeEngine, ShardQueryStats,
    ShardedIndex,
};
pub use rpq_anns::{
    ConsolidateReport, DiskIndex, DiskIndexConfig, DiskSearchStats, FilterStrategy, InMemoryIndex,
    SsdModel, StreamingConfig, StreamingIndex,
};
pub use rpq_core::{
    DiffQuantizerConfig, RoutingSamplerConfig, RpqCompressor, RpqTrainerConfig, TrainStats,
    TrainingMode,
};
pub use rpq_data::{Dataset, GroundTruth, LabelPredicate, Labels};
pub use rpq_graph::{
    DistanceEstimator, GraphView, Neighbor, ProximityGraph, SearchScratch, SearchStats,
};
pub use rpq_quant::{CompactCodes, ProductQuantizer, SoaCodes, VectorCompressor};

/// Beam width of every search in the benchmark.
pub const EF: usize = 80;
/// Neighbors requested by every search.
pub const K: usize = 10;
/// Label vocabulary of the generated corpora.
pub const VOCAB: usize = 8;
/// Shards (and cluster groups) of the serving workload.
pub const SHARDS: usize = 2;

/// The predicate of every filtered search: label 2, selectivity ≈ 0.12.
pub fn predicate() -> LabelPredicate {
    LabelPredicate::single(2)
}

// ---------------------------------------------------------------- rpq-data

/// `n` Sift-like 128-d vectors with one geometric label each.
pub fn generate_labeled(n: usize, seed: u64) -> (Dataset, Labels) {
    rpq_data::DatasetKind::Sift
        .config()
        .generate_labeled(n, seed, VOCAB)
}

pub fn ground_truth(base: &Dataset, queries: &Dataset) -> GroundTruth {
    rpq_data::brute_force_knn(base, queries, K)
}

pub fn ground_truth_filtered(base: &Dataset, queries: &Dataset, labels: &Labels) -> GroundTruth {
    rpq_data::brute_force_knn_filtered(base, queries, K, labels, predicate())
}

// -------------------------------------------------------------- rpq-linalg

pub fn sq_l2(a: &[f32], b: &[f32]) -> f32 {
    rpq_linalg::distance::sq_l2(a, b)
}

// --------------------------------------------------------------- rpq-graph

pub fn build_hnsw(data: &Dataset, seed: u64) -> ProximityGraph {
    let _s = span(Name::GraphBuild);
    rpq_graph::HnswConfig {
        m: 16,
        ef_construction: 100,
        seed,
    }
    .build(data)
}

pub fn build_vamana(data: &Dataset, seed: u64) -> ProximityGraph {
    let _s = span(Name::GraphBuild);
    rpq_graph::VamanaConfig {
        r: 32,
        l: 64,
        seed,
        ..Default::default()
    }
    .build(data)
}

/// The routing kernel under any estimator (the layer probes replay it with
/// a recording estimator to capture the batches a real search scores).
pub fn beam_search<G: GraphView>(
    graph: &G,
    est: &impl DistanceEstimator,
    scratch: &mut SearchScratch,
) -> (Vec<Neighbor>, SearchStats) {
    rpq_graph::beam_search(graph, est, EF, K, scratch)
}

/// The routing kernel with exact distances: what graph construction and
/// the streaming insert run, and a control no quantizer change can move.
pub fn beam_exact<G: GraphView>(
    graph: &G,
    data: &Dataset,
    query: &[f32],
    scratch: &mut SearchScratch,
) -> (Vec<Neighbor>, SearchStats) {
    beam_search(graph, &rpq_graph::ExactEstimator::new(data, query), scratch)
}

// --------------------------------------------------------------- rpq-quant

pub fn train_pq(data: &Dataset, m: usize, k: usize, seed: u64) -> ProductQuantizer {
    let _s = span(Name::QuantTrain);
    ProductQuantizer::train(
        &rpq_quant::PqConfig {
            m,
            k,
            seed,
            ..Default::default()
        },
        data,
    )
}

pub fn soa_from(codes: &CompactCodes) -> SoaCodes {
    SoaCodes::from_compact(codes)
}

// ---------------------------------------------------------------- rpq-anns

pub fn mem_build<C: VectorCompressor>(
    compressor: C,
    base: &Dataset,
    graph: ProximityGraph,
    labels: Labels,
) -> InMemoryIndex<C> {
    InMemoryIndex::build(compressor, base, graph).with_labels(labels)
}

pub fn mem_search<C: VectorCompressor>(
    index: &InMemoryIndex<C>,
    query: &[f32],
    scratch: &mut SearchScratch,
) -> (Vec<Neighbor>, SearchStats) {
    let _s = span(Name::MemorySearch);
    index.search(query, EF, K, scratch)
}

pub fn mem_search_filtered<C: VectorCompressor>(
    index: &InMemoryIndex<C>,
    query: &[f32],
    strategy: FilterStrategy,
    scratch: &mut SearchScratch,
) -> (Vec<Neighbor>, SearchStats) {
    let _s = span(Name::FilterSearch);
    index.search_filtered(query, predicate(), strategy, EF, K, scratch)
}

/// The hybrid index of `disk-search`: rerank 80, eight-wide I/O stages, a
/// node cache of n/20, the fixed 100 µs/sector device model.
pub fn disk_build<C: VectorCompressor>(
    compressor: C,
    base: &Dataset,
    graph: &ProximityGraph,
    labels: Labels,
    store: &Path,
) -> io::Result<DiskIndex<C>> {
    let cfg = DiskIndexConfig {
        rerank: 80,
        io_width: 8,
        cache_nodes: base.len() / 20,
        ssd: SsdModel::fixed(100.0),
        ..DiskIndexConfig::new(store)
    };
    let mut index = DiskIndex::build(compressor, base, graph, cfg)?;
    index.set_labels(labels);
    Ok(index)
}

pub fn disk_search<C: VectorCompressor>(
    index: &DiskIndex<C>,
    query: &[f32],
    scratch: &mut SearchScratch,
) -> (Vec<Neighbor>, DiskSearchStats) {
    let _s = span(Name::DiskSearch);
    index.search_with_scratch(query, EF, K, scratch)
}

pub fn disk_search_filtered<C: VectorCompressor>(
    index: &DiskIndex<C>,
    query: &[f32],
    scratch: &mut SearchScratch,
) -> (Vec<Neighbor>, DiskSearchStats) {
    let _s = span(Name::FilterSearch);
    index.search_filtered(
        query,
        predicate(),
        FilterStrategy::DuringTraversal,
        EF,
        K,
        scratch,
    )
}

/// Replaces the BFS-warmed cache by trace-driven admission; returns the
/// number of pinned nodes.
pub fn disk_warm_cache_by_trace<C: VectorCompressor>(
    index: &mut DiskIndex<C>,
    queries: &Dataset,
) -> usize {
    index.warm_cache_by_trace(queries, EF)
}

pub fn stream_build<C: VectorCompressor>(
    compressor: C,
    seed_set: &Dataset,
    labels: Labels,
    seed: u64,
) -> StreamingIndex<C> {
    let cfg = StreamingConfig {
        seed,
        ..StreamingConfig::default()
    };
    StreamingIndex::build_labeled(compressor, seed_set, labels, cfg)
}

pub fn stream_insert<C: VectorCompressor>(
    index: &mut StreamingIndex<C>,
    v: &[f32],
    mask: u32,
    scratch: &mut SearchScratch,
) -> u32 {
    let _s = span(Name::StreamInsert);
    index.insert_labeled(v, mask, scratch)
}

pub fn stream_remove<C: VectorCompressor>(index: &mut StreamingIndex<C>, id: u32) -> bool {
    let _s = span(Name::StreamRemove);
    index.remove(id)
}

pub fn stream_search<C: VectorCompressor>(
    index: &StreamingIndex<C>,
    query: &[f32],
    scratch: &mut SearchScratch,
) -> (Vec<Neighbor>, SearchStats) {
    let _s = span(Name::StreamSearch);
    index.search(query, EF, K, scratch)
}

pub fn stream_search_filtered<C: VectorCompressor>(
    index: &StreamingIndex<C>,
    query: &[f32],
    scratch: &mut SearchScratch,
) -> (Vec<Neighbor>, SearchStats) {
    let _s = span(Name::FilterSearch);
    index.search_filtered(
        query,
        predicate(),
        FilterStrategy::DuringTraversal,
        EF,
        K,
        scratch,
    )
}

/// Threshold-gated consolidation (`force = false`).
pub fn stream_consolidate<C: VectorCompressor>(
    index: &mut StreamingIndex<C>,
) -> Option<ConsolidateReport> {
    let _s = span(Name::StreamConsolidate);
    index.consolidate(false)
}

/// Two round-robin in-memory shards, one HNSW per shard. `graph_seconds`
/// receives the time spent inside the graph builder.
pub fn sharded_build<C: VectorCompressor + Clone + 'static>(
    compressor: &C,
    base: &Dataset,
    labels: &Labels,
    seed: u64,
    graph_seconds: &std::cell::Cell<f64>,
) -> ShardedIndex {
    ShardedIndex::build_in_memory_labeled(compressor, base, labels, SHARDS, |part| {
        let t = std::time::Instant::now();
        let g = build_hnsw(part, seed);
        graph_seconds.set(graph_seconds.get() + t.elapsed().as_secs_f64());
        g
    })
}

/// Sequential fan-out + merge: the reference the engine must agree with.
pub fn sharded_search(
    index: &ShardedIndex,
    query: &[f32],
    scratch: &mut SearchScratch,
) -> (Vec<Neighbor>, ShardQueryStats) {
    index.search(query, EF, K, scratch)
}

pub fn sharded_search_shard(
    index: &ShardedIndex,
    shard: usize,
    query: &[f32],
    scratch: &mut SearchScratch,
) -> (Vec<Neighbor>, ShardQueryStats) {
    let _s = span(Name::ServeShardSearch);
    index.search_shard(shard, query, EF, K, scratch)
}

pub fn merge_top_k(partials: &[Vec<Neighbor>]) -> Vec<Neighbor> {
    let _s = span(Name::ServeMerge);
    rpq_anns::serve::merge_top_k(partials, K)
}

/// Two workers (= `nproc` on the sizing box), 64 queries per wave.
pub fn engine_new(index: Arc<ShardedIndex>) -> ServeEngine {
    ServeEngine::new(
        index,
        ServeConfig {
            workers: SHARDS,
            max_batch: 64,
        },
    )
}

/// Closed loop, 64 in flight.
pub fn engine_serve_batch(engine: &ServeEngine, queries: &Dataset) -> Vec<Vec<Neighbor>> {
    engine.serve_batch(queries, EF, K).0
}

pub fn engine_search(engine: &ServeEngine, query: &[f32]) -> (Vec<Neighbor>, ShardQueryStats) {
    let _s = span(Name::EngineSearch);
    engine.search(query, EF, K)
}

pub fn engine_search_filtered(
    engine: &ServeEngine,
    query: &[f32],
) -> (Vec<Neighbor>, ShardQueryStats) {
    let _s = span(Name::FilterSearch);
    engine.search_filtered(query, predicate(), FilterStrategy::DuringTraversal, EF, K)
}

/// The admission gate of the open-loop phase.
pub fn admission() -> AdmissionConfig {
    AdmissionConfig {
        queue_cap: 64,
        deadline_us: Some(2000.0),
        quota: None,
    }
}

/// Two groups × one replica over the same partition and graphs as
/// [`sharded_build`], least-outstanding balancing, default cost model.
pub fn cluster_build<C: VectorCompressor + Clone + 'static>(
    compressor: &C,
    base: &Dataset,
    seed: u64,
) -> ClusterEngine {
    let cluster = ClusterIndex::build_in_memory(
        compressor,
        base,
        SHARDS,
        1,
        LoadBalancePolicy::LeastOutstanding,
        |part| build_hnsw(part, seed),
    );
    ClusterEngine::new(cluster, admission(), CostModel::default())
}

/// One read through `ClusterIndex::search` (no schedule, no admission).
pub fn cluster_search(
    engine: &ClusterEngine,
    query: &[f32],
    scratch: &mut SearchScratch,
) -> Option<(Vec<Neighbor>, ShardQueryStats)> {
    engine.with_read(|c| c.search(query, EF, K, scratch)).ok()
}

/// `n` seeded Poisson arrivals at `offered_qps` over `n_queries` queries.
pub fn poisson_schedule(
    n: usize,
    offered_qps: f64,
    n_queries: usize,
    seed: u64,
) -> ArrivalSchedule {
    ArrivalSchedule::open_loop(n, offered_qps, n_queries, 1, seed)
}

pub fn cluster_open_loop(
    engine: &ClusterEngine,
    queries: &Dataset,
    schedule: &ArrivalSchedule,
) -> (Vec<RequestOutcome>, ClusterReport) {
    let _s = span(Name::ClusterOpenLoop);
    engine.serve_open_loop(queries, schedule, EF, K)
}

/// Modeled service time of one replica read, from exact work counters.
pub fn modeled_service_us(stats: &ShardQueryStats) -> f64 {
    CostModel::default().service_us(stats)
}

// ---------------------------------------------------------------- rpq-core

/// The trainer's own RNG seed, pinned to a stream known to be clean.
///
/// `vendor/rand`'s `gen_range(f32::EPSILON..1.0)` rounds to exactly `1.0`
/// about once in 2^24 draws; the Gumbel sampler turns that draw into `+inf`
/// noise, the step's gradient into NaN, and the next `expm` into "singular
/// matrix in expm Padé solve". A training at this shape consumes between 3.9
/// and 4.9 million draws, so one seed in four panics (7, 13, 18 and 19 of
/// the first twenty), and M = 16 / K = 256 — four times the draws per step —
/// panics on nearly every seed. That is ROADMAP item 5's bug, not the
/// benchmark's to fix: seed 6's stream has its first such draw at position
/// 38 380 087, eight times further than a training reads.
const TRAINER_SEED: u64 = 6;

/// The trainer shape of `train-rpq`: M = 8, K = 64, three epochs of fifteen
/// steps.
pub fn trainer_config(seed: u64) -> RpqTrainerConfig {
    RpqTrainerConfig {
        quantizer: DiffQuantizerConfig {
            m: 8,
            k: 64,
            seed,
            ..Default::default()
        },
        mode: TrainingMode::Full,
        epochs: 3,
        steps_per_epoch: 15,
        triplet_batch: 32,
        decision_batch: 8,
        routing_sampler: RoutingSamplerConfig {
            n_queries: 16,
            h: 8,
            ..Default::default()
        },
        seed: TRAINER_SEED,
        ..Default::default()
    }
}

pub fn train_rpq(
    cfg: &RpqTrainerConfig,
    base: &Dataset,
    graph: &ProximityGraph,
) -> (RpqCompressor, TrainStats) {
    let _s = span(Name::CoreTrain);
    rpq_core::train_rpq(cfg, base, graph)
}

/// One epoch's worth of triplets through the public sampler; returns how
/// many it produced.
pub fn sample_triplets(cfg: &RpqTrainerConfig, base: &Dataset, graph: &ProximityGraph) -> usize {
    let want = cfg.steps_per_epoch * cfg.triplet_batch;
    rpq_core::sample_triplets(graph, base, &cfg.triplet_sampler, want).len()
}

/// One epoch's worth of routing features through the public sampler, routed
/// by `compressor`'s scalar estimator as the trainer does.
pub fn sample_routing<C: VectorCompressor>(
    cfg: &RpqTrainerConfig,
    base: &Dataset,
    graph: &ProximityGraph,
    compressor: &C,
    codes: &CompactCodes,
) -> usize {
    rpq_core::sample_routing_features(
        graph,
        base,
        &|q| compressor.estimator(codes, q),
        &cfg.routing_sampler,
    )
    .len()
}
