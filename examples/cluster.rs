//! Cluster serving: replicas, admission control, and live reconfiguration.
//!
//! ```text
//! cargo run --release -p rpq --example cluster
//! ```
//!
//! Pipeline (DESIGN.md §11): shard a dataset and replicate each shard →
//! replay one open-loop Poisson arrival schedule against 1/2/4 replicas
//! and watch goodput climb while shed fraction falls → then grow the
//! cluster live (a third shard joins, points rebalance) and verify the
//! answers never change.

use rpq_anns::serve::{
    AdmissionConfig, ArrivalSchedule, ClusterEngine, ClusterIndex, CostModel, LoadBalancePolicy,
};
use rpq_anns::stream::{StreamingConfig, StreamingIndex};
use rpq_data::synth::DatasetKind;
use rpq_graph::{HnswConfig, SearchScratch};
use rpq_quant::{PqConfig, ProductQuantizer, VectorCompressor};

fn main() {
    // 1. Data and one shared compressor (shard-invariant ADC distances
    //    keep the cross-shard merge exact, replicated or not).
    let (base, queries) = DatasetKind::Sift.generate(4000, 60, 42);
    let pq = ProductQuantizer::train(
        &PqConfig {
            m: 8,
            k: 64,
            ..Default::default()
        },
        &base,
    );
    println!(
        "dataset: {} base vectors ({} dims), compressor: {}",
        base.len(),
        base.dim(),
        pq.name()
    );

    // 2. Probe single-replica capacity, then hold the offered load FIXED
    //    at 2.5x that while the replica count grows. Arrivals, service
    //    times, and queue waits all live on a virtual clock, so these
    //    numbers are reproducible on any machine.
    let mk_engine = |replicas: usize| {
        let index = ClusterIndex::build_in_memory(
            &pq,
            &base,
            2,
            replicas,
            LoadBalancePolicy::QueueAware,
            |part| {
                HnswConfig {
                    m: 16,
                    ef_construction: 100,
                    seed: 7,
                }
                .build(part)
            },
        );
        ClusterEngine::new(
            index,
            AdmissionConfig {
                queue_cap: 64,
                ..Default::default()
            },
            CostModel::default(),
        )
    };
    let probe = ArrivalSchedule::open_loop(128, 1.0, queries.len(), 1, 1);
    let e1 = mk_engine(1);
    let (_, unloaded) = e1.serve_open_loop(&queries, &probe, 60, 10);
    let capacity = 1e6 / unloaded.latency.mean_us as f64;
    let offered = ArrivalSchedule::open_loop(4000, 2.5 * capacity, queries.len(), 1, 2);
    println!("\nsingle-replica capacity ~{capacity:.0} QPS; offering 2.5x that to every cluster:");
    for replicas in [1usize, 2, 4] {
        let engine = mk_engine(replicas);
        let (_, r) = engine.serve_open_loop(&queries, &offered, 60, 10);
        println!(
            "replicas={replicas} | goodput {:>7.0} QPS | shed {:>5.1}% | \
             p50 {:>6.0}µs p99 {:>6.0}µs",
            r.goodput_qps,
            100.0 * r.shed as f32 / r.offered as f32,
            r.latency.p50_us,
            r.latency.p99_us,
        );
    }

    // 3. Live reconfiguration on a mutable cluster: a third shard joins
    //    and points rebalance to the g % n_shards rule — while answer
    //    *quality* never moves. At exhaustive beam width both sides are
    //    the exact ADC top-k over the same live set, so the per-rank
    //    distance profile is bit-identical; ids are only free to permute
    //    within exactly-tied distances (at this quantization scale many
    //    points share a code). tests/cluster.rs pins the stricter
    //    id-for-id form where ties are controlled.
    let cfg = StreamingConfig::default();
    let cluster =
        ClusterIndex::build_streaming(&pq, &base, 2, 2, LoadBalancePolicy::RoundRobin, cfg);
    let engine = ClusterEngine::new(cluster, AdmissionConfig::default(), CostModel::default());
    let mut scratch = SearchScratch::new();
    let ef = base.len();
    let profile = |engine: &ClusterEngine, scratch: &mut SearchScratch| -> Vec<Vec<u32>> {
        (0..queries.len())
            .map(|qi| {
                engine
                    .search(queries.get(qi), None, ef, 10, scratch)
                    .expect("healthy cluster")
                    .iter()
                    .map(|n| n.dist.to_bits())
                    .collect()
            })
            .collect()
    };
    let before = profile(&engine, &mut scratch);
    engine.reconfigure(|c| {
        let mut scratch = SearchScratch::new();
        c.add_shard(Box::new(StreamingIndex::new(pq.clone(), cfg)), &mut scratch);
    });
    let (n_shards, live) = engine.with_read(|c| (c.n_shards(), c.live_len()));
    let after = profile(&engine, &mut scratch);
    let unchanged = before.iter().zip(&after).filter(|(b, a)| b == a).count();
    println!(
        "\nlive reconfig: 2 -> {n_shards} shards, {live} live points, \
         {unchanged}/{} exact distance profiles unchanged",
        queries.len()
    );
    assert_eq!(
        unchanged,
        queries.len(),
        "rebalance must not change answer quality"
    );

    println!("\ngoodput scales with replicas; overload sheds instead of stalling.");
}
