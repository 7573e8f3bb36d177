//! Integration tests for the replicated serving cluster (DESIGN.md §11):
//! fault injection, live reconfiguration, and the admission-accounting
//! properties.
//!
//! The load-bearing claims, each pinned here:
//!
//! 1. **Failures degrade, never corrupt.** With a replica hard-down, every
//!    request that completes returns the *exact* top-k a single index
//!    would (at exhaustive beam width both are exact ADC top-k, so
//!    equality is id-for-id). Goodput drops and shedding rises — but no
//!    completed answer is ever partial or wrong, and with the whole group
//!    down requests are rejected with a typed reason rather than
//!    half-answered.
//! 2. **Overload sheds, never stalls.** An injected latency spike makes
//!    the admission gate shed with `DeadlineExceeded` instead of queueing
//!    without bound, and the fault counters prove shed requests were
//!    never executed.
//! 3. **Reconfiguration is invisible to results.** An add-shard → churn →
//!    remove-shard sequence leaves results id-for-id identical to a
//!    cluster that saw the same writes and no reconfiguration, and
//!    concurrent readers never observe a torn membership view.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use rpq_anns::serve::{
    partition_round_robin, AdmissionConfig, ArrivalSchedule, ClusterEngine, ClusterGroup,
    ClusterIndex, CostModel, FlakyBackend, LoadBalancePolicy, RejectReason, Replica, ReplicaSet,
    RequestOutcome, ShardBackend, ShardedIndex, TokenBucketConfig,
};
use rpq_anns::stream::{StreamingConfig, StreamingIndex};
use rpq_anns::InMemoryIndex;
use rpq_data::synth::DatasetKind;
use rpq_data::Dataset;
use rpq_graph::{HnswConfig, ProximityGraph, SearchScratch};
use rpq_quant::{PqConfig, ProductQuantizer};

const K: usize = 10;

fn hnsw(part: &Dataset) -> ProximityGraph {
    HnswConfig {
        m: 16,
        ef_construction: 100,
        seed: 5,
    }
    .build(part)
}

/// One dataset + trained compressor + per-partition frozen backends,
/// built once and `Arc`-shared across every test and proptest case —
/// graph construction dominates otherwise.
struct Fixture {
    base: Dataset,
    queries: Dataset,
    pq: ProductQuantizer,
    /// Round-robin partition backends with their global id maps.
    parts: Vec<(Arc<dyn ShardBackend>, Vec<u32>)>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let (base, queries) = DatasetKind::Sift.generate(240, 16, 42);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 8,
                k: 32,
                seed: 42,
                ..Default::default()
            },
            &base,
        );
        let parts = partition_round_robin(base.len(), 2)
            .into_iter()
            .map(|ids| {
                let local: Vec<usize> = ids.iter().map(|&g| g as usize).collect();
                let part = base.subset(&local);
                let graph = hnsw(&part);
                let backend: Arc<dyn ShardBackend> =
                    Arc::new(InMemoryIndex::build(pq.clone(), &part, graph));
                (backend, ids)
            })
            .collect();
        Fixture {
            base,
            queries,
            pq,
            parts,
        }
    })
}

/// A cluster over the fixture's frozen backends, wrapped per replica in
/// fresh [`FlakyBackend`]s. Returns the cluster plus the fault switches,
/// `switches[group][replica]`.
fn flaky_cluster(
    replicas: usize,
    policy: LoadBalancePolicy,
) -> (ClusterIndex, Vec<Vec<Arc<FlakyBackend>>>) {
    let fx = fixture();
    let mut switches = Vec::new();
    let groups = fx
        .parts
        .iter()
        .map(|(backend, ids)| {
            let row: Vec<Arc<FlakyBackend>> = (0..replicas)
                .map(|_| Arc::new(FlakyBackend::new(Box::new(Arc::clone(backend)))))
                .collect();
            let set = ReplicaSet::new(row.iter().map(|f| Replica::frozen(f.clone())).collect());
            switches.push(row);
            ClusterGroup::new(set, ids.clone())
        })
        .collect();
    (
        ClusterIndex::new(ShardedIndex::from_groups(groups, fx.base.dim()), policy),
        switches,
    )
}

/// A plain frozen cluster over the fixture's shared backends.
fn frozen_cluster(replicas: usize, policy: LoadBalancePolicy) -> ClusterIndex {
    let fx = fixture();
    let groups = fx
        .parts
        .iter()
        .map(|(backend, ids)| {
            let set = ReplicaSet::new(
                (0..replicas)
                    .map(|_| Replica::frozen(Arc::clone(backend)))
                    .collect(),
            );
            ClusterGroup::new(set, ids.clone())
        })
        .collect();
    ClusterIndex::new(ShardedIndex::from_groups(groups, fx.base.dim()), policy)
}

/// Exhaustive-beam reference: the single-index exact ADC top-k every
/// completed cluster answer must equal, id for id.
fn reference_top_k() -> Vec<Vec<u32>> {
    static REFERENCE: OnceLock<Vec<Vec<u32>>> = OnceLock::new();
    REFERENCE
        .get_or_init(|| {
            let fx = fixture();
            let single = InMemoryIndex::build(fx.pq.clone(), &fx.base, hnsw(&fx.base));
            let mut scratch = SearchScratch::new();
            fx.queries
                .iter()
                .map(|q| {
                    let (res, _) = single.search(q, fx.base.len(), K, &mut scratch);
                    res.iter().map(|n| n.id).collect()
                })
                .collect()
        })
        .clone()
}

/// Asserts every completed outcome matches the exhaustive single-index
/// reference for its scheduled query. Returns how many completed.
fn assert_no_corruption(outcomes: &[RequestOutcome], schedule: &ArrivalSchedule) -> usize {
    let want = reference_top_k();
    let mut completed = 0;
    for (outcome, request) in outcomes.iter().zip(&schedule.requests) {
        if let Some(neighbors) = outcome.neighbors() {
            completed += 1;
            let got: Vec<u32> = neighbors.iter().map(|n| n.id).collect();
            assert_eq!(
                got, want[request.query as usize],
                "completed answer diverged from the exact reference on query {}",
                request.query
            );
        }
    }
    completed
}

#[test]
fn replica_failure_degrades_goodput_but_never_corrupts_top_k() {
    let fx = fixture();
    let ef = fx.base.len();
    let (cluster, switches) = flaky_cluster(2, LoadBalancePolicy::QueueAware);
    let engine = ClusterEngine::new(
        cluster,
        AdmissionConfig {
            queue_cap: 64,
            ..Default::default()
        },
        CostModel::default(),
    );

    // Probe unloaded latency, then offer 1.5x the SINGLE-replica capacity:
    // two healthy replicas per group absorb it, one cannot.
    let probe = ArrivalSchedule::open_loop(64, 1.0, fx.queries.len(), 1, 70);
    let (_, unloaded) = engine.serve_open_loop(&fx.queries, &probe, ef, K);
    let offered = ArrivalSchedule::open_loop(
        600,
        1.5 * 1e6 / unloaded.latency.mean_us as f64,
        fx.queries.len(),
        1,
        71,
    );

    let (healthy_outcomes, healthy) = engine.serve_open_loop(&fx.queries, &offered, ef, K);
    assert_eq!(assert_no_corruption(&healthy_outcomes, &offered), 600);
    assert_eq!(
        healthy.shed, 0,
        "two replicas per group absorb 1.5x: {healthy:?}"
    );

    // Kill one replica of group 0 and replay the same schedule.
    switches[0][0].set_down(true);
    let failed_before = switches[0][0].failed();
    let (down_outcomes, down) = engine.serve_open_loop(&fx.queries, &offered, ef, K);
    assert_no_corruption(&down_outcomes, &offered);
    assert!(
        switches[0][0].failed() > failed_before,
        "the downed replica must have been tried and failed over"
    );
    assert!(
        down.shed > 0,
        "1.5x single-replica capacity on one surviving replica must shed: {down:?}"
    );
    assert!(
        down.goodput_qps < healthy.goodput_qps,
        "losing a replica must cost goodput: {} vs {}",
        down.goodput_qps,
        healthy.goodput_qps
    );

    // Kill the WHOLE group: typed rejection, never a partial top-k.
    switches[0][1].set_down(true);
    let (dead_outcomes, dead) = engine.serve_open_loop(&fx.queries, &offered, ef, K);
    assert_eq!(dead.completed, 0);
    assert!(dead_outcomes.iter().all(|o| !o.is_completed()));
    assert!(
        dead.shed_unavailable > 0,
        "full group loss must surface as ShardUnavailable: {dead:?}"
    );

    // Recovery: flip both switches back and the replay is bit-identical
    // to the healthy run (virtual runtime resets per run; nothing leaks).
    switches[0][0].set_down(false);
    switches[0][1].set_down(false);
    let (recovered_outcomes, recovered) = engine.serve_open_loop(&fx.queries, &offered, ef, K);
    assert_eq!(
        recovered_outcomes, healthy_outcomes,
        "recovery must restore the baseline bit for bit"
    );
    assert_eq!(recovered.latency, healthy.latency);
    assert_eq!(recovered.goodput_qps, healthy.goodput_qps);
}

#[test]
fn latency_spike_sheds_rather_than_stalls() {
    let fx = fixture();
    let (cluster, switches) = flaky_cluster(2, LoadBalancePolicy::QueueAware);
    let engine = ClusterEngine::new(
        cluster,
        AdmissionConfig {
            queue_cap: 64,
            deadline_us: Some(5_000.0),
            ..Default::default()
        },
        CostModel::default(),
    );
    let offered = ArrivalSchedule::open_loop(400, 20_000.0, fx.queries.len(), 1, 72);

    // Healthy: the deadline never binds.
    let (_, healthy) = engine.serve_open_loop(&fx.queries, &offered, 40, K);
    assert_eq!(healthy.shed_deadline, 0, "{healthy:?}");

    // One replica per group stalls 50ms per read: queue-aware routing
    // shifts traffic to the healthy replicas after the first hit, so the
    // system degrades instead of stalling on the sick replica. Counters
    // accumulate across runs, so compare per-run deltas.
    for row in &switches {
        row[0].set_stall_us(50_000.0);
    }
    let before: Vec<Vec<usize>> = switches
        .iter()
        .map(|row| row.iter().map(|f| f.reads()).collect())
        .collect();
    let (_, spiked) = engine.serve_open_loop(&fx.queries, &offered, 40, K);
    assert!(
        spiked.completed > 0,
        "healthy replicas must keep serving through the spike: {spiked:?}"
    );
    for (row, prev) in switches.iter().zip(&before) {
        let stalled = row[0].reads() - prev[0];
        let healthy_reads = row[1].reads() - prev[1];
        assert!(
            healthy_reads > stalled,
            "queue-aware routing must shift load off the stalled replica \
             ({stalled} stalled vs {healthy_reads} healthy reads)"
        );
    }

    // Spike EVERY replica: now the backlog estimate blows past the
    // deadline and the gate sheds instead of queueing without bound —
    // and the read counters prove shed requests were never executed.
    for row in &switches {
        row[1].set_stall_us(50_000.0);
    }
    let reads_before_full: usize = switches.iter().flatten().map(|f| f.reads()).sum();
    let (outcomes, full) = engine.serve_open_loop(&fx.queries, &offered, 40, K);
    assert!(
        full.shed_deadline > 0,
        "a cluster-wide stall must shed on deadline: {full:?}"
    );
    assert_eq!(full.completed + full.shed, full.offered);
    let executed_reads: usize =
        switches.iter().flatten().map(|f| f.reads()).sum::<usize>() - reads_before_full;
    // Healthy replicas never fail here, so each executed request costs
    // exactly one read per group — shed requests cost zero.
    assert_eq!(
        executed_reads,
        full.admitted * switches.len(),
        "shed requests must never reach a backend"
    );
    for (outcome, _) in outcomes.iter().zip(&offered.requests) {
        if let RequestOutcome::Rejected { reason } = outcome {
            assert!(
                matches!(
                    reason,
                    RejectReason::DeadlineExceeded | RejectReason::QueueFull
                ),
                "unexpected shed reason {reason:?}"
            );
        }
    }
}

#[test]
fn add_shard_churn_remove_shard_is_invisible_to_results() {
    // The live-reconfiguration acceptance invariant: a cluster that goes
    // through add-shard → churn → remove-shard answers id-for-id like a
    // reference that saw the same churn and never reconfigured.
    let (all, queries) = DatasetKind::Sift.generate(200, 12, 21);
    let (initial, reserve) = all.split_at(150);
    let pq = ProductQuantizer::train(
        &PqConfig {
            m: 8,
            k: 32,
            seed: 21,
            ..Default::default()
        },
        &initial,
    );
    let cfg = StreamingConfig {
        r: 16,
        l: 40,
        ..Default::default()
    };
    let mut cluster =
        ClusterIndex::build_streaming(&pq, &initial, 2, 2, LoadBalancePolicy::RoundRobin, cfg);
    let mut reference = ShardedIndex::build_streaming(&pq, &initial, None, 2, cfg);
    let mut scratch = SearchScratch::new();

    // Membership change mid-life: a third (empty) shard joins.
    let gi = cluster.add_shard(Box::new(StreamingIndex::new(pq.clone(), cfg)), &mut scratch);
    assert_eq!(gi, 2);

    // Churn on the 3-shard cluster and the 2-shard reference alike.
    for v in reserve.iter() {
        assert_eq!(
            cluster.insert(v, &mut scratch),
            reference.insert(v, &mut scratch)
        );
    }
    for g in (0..200u32).step_by(7) {
        assert_eq!(cluster.remove(g), reference.remove(g), "remove({g})");
    }
    cluster.consolidate(true);
    reference.consolidate(true);

    // The joined shard leaves again, points redistribute.
    cluster.remove_shard(1, &mut scratch);
    assert_eq!(cluster.n_shards(), 2);
    assert_eq!(cluster.live_len(), reference.live_len());

    // Every surviving point sits where g % n_groups says it should — no
    // torn membership after the dance.
    for (idx, group) in cluster.groups().iter().enumerate() {
        for &g in group.global_ids() {
            assert_eq!(g as usize % 2, idx, "global {g} misplaced");
        }
    }

    // Exhaustive beam: exact ADC top-k over identical live sets, id for id.
    let ef = 250;
    for (qi, q) in queries.iter().enumerate() {
        let (got, _) = cluster.search(q, ef, K, &mut scratch).unwrap();
        let (want, _) = reference.search(q, ef, K, &mut scratch);
        assert_eq!(
            got.iter().map(|n| n.id).collect::<Vec<_>>(),
            want.iter().map(|n| n.id).collect::<Vec<_>>(),
            "query {qi} diverged after reconfiguration"
        );
    }
}

#[test]
fn concurrent_readers_never_observe_a_torn_membership_view() {
    // Readers hammer the engine while the writer adds/removes shards and
    // changes replication. Every read must see a complete, consistent
    // cluster: full-length result, no duplicate ids, ids within range.
    let (base, queries) = DatasetKind::Sift.generate(120, 8, 33);
    let pq = ProductQuantizer::train(
        &PqConfig {
            m: 8,
            k: 32,
            seed: 33,
            ..Default::default()
        },
        &base,
    );
    let cfg = StreamingConfig {
        r: 8,
        l: 16,
        ..Default::default()
    };
    let cluster =
        ClusterIndex::build_streaming(&pq, &base, 2, 2, LoadBalancePolicy::RoundRobin, cfg);
    let engine = ClusterEngine::new(cluster, AdmissionConfig::default(), CostModel::default());
    let n_points = base.len() as u32;

    std::thread::scope(|scope| {
        for t in 0..3 {
            let engine = &engine;
            let queries = &queries;
            scope.spawn(move || {
                let mut scratch = SearchScratch::new();
                for i in 0..40 {
                    let q = queries.get((t * 13 + i) % queries.len());
                    let res = engine
                        .search(q, None, 60, K, &mut scratch)
                        .expect("no fault injected, reads must succeed");
                    assert_eq!(res.len(), K, "torn view returned a short top-k");
                    let mut ids: Vec<u32> = res.iter().map(|n| n.id).collect();
                    assert!(ids.iter().all(|&g| g < n_points), "id out of range");
                    ids.sort_unstable();
                    ids.dedup();
                    assert_eq!(ids.len(), K, "torn view returned duplicate ids");
                }
            });
        }
        // The writer reconfigures concurrently under the write lock.
        let pq = &pq;
        let engine = &engine;
        scope.spawn(move || {
            let mut scratch = SearchScratch::new();
            for round in 0..3 {
                engine.reconfigure(|c| {
                    c.add_shard(Box::new(StreamingIndex::new(pq.clone(), cfg)), &mut scratch);
                    c.set_replicas(3);
                });
                engine.reconfigure(|c| {
                    c.remove_shard(1 + round % 2, &mut scratch);
                    c.set_replicas(2);
                });
            }
        });
    });

    // After the dust settles the membership rule still holds exactly.
    engine.with_read(|c| {
        assert_eq!(c.live_len(), base.len());
        for (idx, group) in c.groups().iter().enumerate() {
            for &g in group.global_ids() {
                assert_eq!(g as usize % c.n_shards(), idx);
            }
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Admission bookkeeping conserves requests under any configuration,
    /// and a replayed run is bit-identical (the determinism half of the
    /// overload story).
    #[test]
    fn admission_conserves_requests_and_replays(
        queue_cap in 1usize..24,
        rate_scale in 1u32..40,
        deadline_us in (0u8..2u8, 200.0f32..20_000.0)
            .prop_map(|(has, v)| (has == 1).then_some(v)),
        seed in 0u64..500,
    ) {
        let fx = fixture();
        let mk = || ClusterEngine::new(
            frozen_cluster(2, LoadBalancePolicy::QueueAware),
            AdmissionConfig { queue_cap, deadline_us, quota: None },
            CostModel::default(),
        );
        let schedule = ArrivalSchedule::open_loop(
            150,
            1_000.0 * rate_scale as f64,
            fx.queries.len(),
            3,
            seed,
        );
        let (o1, r1) = mk().serve_open_loop(&fx.queries, &schedule, 40, K);
        prop_assert_eq!(r1.completed + r1.shed, r1.offered);
        // No faults injected, so everything admitted also completed.
        prop_assert_eq!(r1.admitted, r1.completed);
        prop_assert_eq!(r1.shed_unavailable, 0);
        // Tenant tallies partition the totals exactly.
        let (mut off, mut adm, mut shed) = (0, 0, 0);
        for t in &r1.tenants {
            off += t.offered;
            adm += t.admitted;
            shed += t.shed;
            prop_assert_eq!(t.offered, t.admitted + t.shed);
        }
        prop_assert_eq!(off, r1.offered);
        prop_assert_eq!(adm, r1.admitted);
        prop_assert_eq!(shed, r1.shed);
        // Replay on a fresh engine: bit-identical outcomes.
        let (o2, _) = mk().serve_open_loop(&fx.queries, &schedule, 40, K);
        prop_assert_eq!(o1, o2);
    }

    /// Per-tenant token buckets bound each tenant's admits by its refill
    /// budget over the schedule span, regardless of offered load.
    #[test]
    fn tenant_quota_bounds_admits(
        rate_per_sec in 100.0f32..5_000.0,
        burst in 1.0f32..8.0,
        rate_scale in 5u32..60,
        seed in 0u64..500,
    ) {
        let fx = fixture();
        let engine = ClusterEngine::new(
            frozen_cluster(1, LoadBalancePolicy::RoundRobin),
            AdmissionConfig {
                queue_cap: 1_000_000,
                deadline_us: None,
                quota: Some(TokenBucketConfig { rate_per_sec, burst }),
            },
            CostModel::default(),
        );
        let schedule = ArrivalSchedule::open_loop(
            200,
            1_000.0 * rate_scale as f64,
            fx.queries.len(),
            4,
            seed,
        );
        let (_, report) = engine.serve_open_loop(&fx.queries, &schedule, 40, K);
        let span_s = schedule.span_us() as f32 / 1e6;
        let bound = burst + rate_per_sec * span_s + 1.0;
        for t in &report.tenants {
            prop_assert!(
                (t.admitted as f32) <= bound + 1e-3,
                "tenant {} admitted {} > bucket bound {bound}",
                t.tenant, t.admitted
            );
        }
        prop_assert_eq!(report.completed + report.shed, report.offered);
    }

    /// A deadline-shed request is never executed: the gate rejects before
    /// any backend sees it, proven by the fault wrapper's read counters.
    #[test]
    fn deadline_shed_requests_are_never_executed(
        deadline_us in 50.0f32..2_000.0,
        rate_scale in 20u32..80,
        seed in 0u64..500,
    ) {
        let fx = fixture();
        let (cluster, switches) = flaky_cluster(1, LoadBalancePolicy::RoundRobin);
        let n_groups = switches.len();
        let engine = ClusterEngine::new(
            cluster,
            AdmissionConfig {
                queue_cap: 1_000_000,
                deadline_us: Some(deadline_us),
                quota: None,
            },
            CostModel::default(),
        );
        let schedule = ArrivalSchedule::open_loop(
            150,
            1_000.0 * rate_scale as f64,
            fx.queries.len(),
            1,
            seed,
        );
        let (outcomes, report) = engine.serve_open_loop(&fx.queries, &schedule, 40, K);
        // Healthy flaky wrappers never fail, so executed requests cost
        // exactly one read per group; shed requests must cost zero.
        let reads: usize = switches.iter().flatten().map(|f| f.reads()).sum();
        prop_assert_eq!(reads, report.admitted * n_groups);
        for outcome in &outcomes {
            if let RequestOutcome::Rejected { reason } = outcome {
                prop_assert!(matches!(
                    reason,
                    RejectReason::DeadlineExceeded | RejectReason::QueueFull
                ));
            }
        }
        prop_assert_eq!(report.completed + report.shed, report.offered);
    }
}
