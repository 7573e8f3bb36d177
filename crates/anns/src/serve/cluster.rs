//! Replicated, admission-controlled serving with live reconfiguration
//! (DESIGN.md §11).
//!
//! The partition table ([`ShardedIndex`]) scales reads with *partitions*
//! and already holds every slot as a [`ReplicaSet`]; this module adds what
//! only a cluster needs around that table and makes the result
//! service-shaped:
//!
//! - **Replication**: each slot holds N bit-identical replicas of one
//!   backend behind a pluggable [`LoadBalancePolicy`]. Frozen backends are
//!   `Arc`-shared; mutable backends are forked
//!   ([`MutableShardBackend::fork_local`]) and kept identical by
//!   state-machine replication — every write applies to every replica in
//!   the same order. Because replicas are bit-identical, *any* replica
//!   choice returns the same top-k and the §7.3 exact-merge contract
//!   survives replication unchanged. A read tries replicas in policy
//!   order and fails over past faulted ones.
//! - **Admission control** ([`super::AdmissionConfig`]): every request is
//!   admitted or shed with a typed [`RejectReason`] before execution;
//!   the queue is bounded, deadlines shed early, tenants have quotas.
//! - **Live reconfiguration**: [`ClusterIndex::add_shard`] /
//!   [`ClusterIndex::remove_shard`] / [`ShardedIndex::set_replicas`]
//!   rebalance by the same `g % n_shards` round-robin rule the builders
//!   use, moving points through `MutableShardBackend` remove+insert.
//!   [`ClusterEngine`] wraps the index in a `RwLock`, so every query sees
//!   one atomic membership view — never a torn one.
//!
//! Time is virtual: arrivals come from an [`ArrivalSchedule`], service
//! times from a [`CostModel`] over deterministic work counters, and queue
//! waits from per-replica virtual timelines. On
//! this 1-core container that is the honest way to measure goodput and p99
//! under overload (DESIGN.md §11.4); it also makes every run
//! bit-reproducible, which is what lets tests/determinism.rs pin the whole
//! serving path across `RPQ_THREADS` settings.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;
use std::sync::RwLock;
use std::time::Instant;

use rpq_data::{Dataset, LabelPredicate};
use rpq_graph::{Neighbor, ProximityGraph, SearchScratch};
use rpq_quant::VectorCompressor;

use super::admission::{AdmissionConfig, AdmissionState, RejectReason};
use super::balance::LoadBalancePolicy;
use super::fault::ReplicaFault;
use super::loadgen::{ArrivalSchedule, CostModel, FilteredQuery};
use super::metrics::LatencySummary;
use super::{
    recover, slot, MutableShardBackend, Replica, ReplicaSet, ShardQueryStats, ShardedIndex,
};
use crate::filter::FilterStrategy;
use crate::stream::StreamingConfig;

impl Replica {
    /// Requests admitted to this replica and not yet complete at `now_us`.
    fn outstanding_at(&self, now_us: f64) -> usize {
        let mut v = recover(self.outstanding.lock());
        v.retain(|&done| done > now_us);
        v.len()
    }

    /// Reserves `service_us` of modeled service on this replica's timeline
    /// for a read arriving at `now_us`; returns its virtual completion time.
    fn reserve(&self, now_us: f64, service_us: f64) -> f64 {
        let wait_us = self.clock.reserve_at(now_us, service_us);
        let completion_us = now_us + wait_us + service_us;
        recover(self.outstanding.lock()).push(completion_us);
        completion_us
    }
}

impl ReplicaSet {
    /// Preference order over replicas for one read at virtual time
    /// `now_us`: the policy ranks enabled replicas (ties toward the lower
    /// index), then disabled ones trail as a last resort — a *disabled*
    /// replica still answers correctly, whereas a faulted one cannot.
    fn order(&self, policy: LoadBalancePolicy, now_us: f64) -> Vec<usize> {
        let mut on: Vec<usize> = (0..self.replicas.len())
            .filter(|&i| self.replicas[i].is_enabled())
            .collect();
        match policy {
            LoadBalancePolicy::RoundRobin => {
                if !on.is_empty() {
                    let cursor = self.rr.fetch_add(1, Ordering::Relaxed) % on.len();
                    on.rotate_left(cursor);
                }
            }
            LoadBalancePolicy::LeastOutstanding => {
                on.sort_by_key(|&i| (self.replicas[i].outstanding_at(now_us), i));
            }
            LoadBalancePolicy::QueueAware => {
                on.sort_by(|&a, &b| {
                    self.replicas[a]
                        .clock
                        .backlog_us(now_us)
                        .total_cmp(&self.replicas[b].clock.backlog_us(now_us))
                        .then(a.cmp(&b))
                });
            }
        }
        on.extend((0..self.replicas.len()).filter(|&i| !self.replicas[i].is_enabled()));
        on
    }

    /// Least backlog across enabled replicas (falling back to all
    /// replicas when the whole set is drained, since drained replicas
    /// still answer as a last resort) — the admission gate's estimate of
    /// how long a request admitted now would wait to start.
    fn min_backlog_us(&self, now_us: f64) -> f64 {
        let best = self
            .replicas
            .iter()
            .filter(|r| r.is_enabled())
            .map(|r| r.clock.backlog_us(now_us))
            .fold(f64::INFINITY, f64::min);
        if best.is_finite() {
            return best;
        }
        self.replicas
            .iter()
            .map(|r| r.clock.backlog_us(now_us))
            .fold(f64::INFINITY, f64::min)
    }
}

/// A replicated, dynamically re-shardable index: the data-plane state
/// behind a [`ClusterEngine`]. It *is* a [`ShardedIndex`] — the one
/// partition table, reachable through `Deref` for everything the two
/// views share (`len`, `live_len`, `insert`, `remove`, `consolidate`,
/// `groups`, `resident_bytes`, …) — plus what only a cluster has: a
/// balance policy, failover, virtual-time reservation and live
/// reconfiguration. Mutating methods take `&mut self`; the engine
/// serializes them behind its `RwLock` so reads always see an atomic
/// membership view.
pub struct ClusterIndex {
    table: ShardedIndex,
    policy: LoadBalancePolicy,
}

impl Deref for ClusterIndex {
    type Target = ShardedIndex;

    fn deref(&self) -> &ShardedIndex {
        &self.table
    }
}

impl DerefMut for ClusterIndex {
    fn deref_mut(&mut self) -> &mut ShardedIndex {
        &mut self.table
    }
}

impl ClusterIndex {
    /// Puts a partition table behind a balance policy. Any table works —
    /// in-memory, disk or streaming shards, at whatever replication
    /// [`ShardedIndex::with_replicas`] gave it.
    pub fn new(table: ShardedIndex, policy: LoadBalancePolicy) -> Self {
        assert!(table.n_shards() >= 1, "a cluster needs >= 1 shard");
        Self { table, policy }
    }

    /// Round-robin partitions `data` into `n_shards` frozen in-memory
    /// shards of `replicas` replicas each. Each shard builds its backend
    /// **once** and `Arc`-shares it — replication of frozen shards costs
    /// pointers, not memory.
    pub fn build_in_memory<C>(
        compressor: &C,
        data: &Dataset,
        n_shards: usize,
        replicas: usize,
        policy: LoadBalancePolicy,
        build_graph: impl Fn(&Dataset) -> ProximityGraph,
    ) -> Self
    where
        C: VectorCompressor + Clone + 'static,
    {
        let table = ShardedIndex::build_in_memory(compressor, data, n_shards, build_graph);
        Self::new(table.with_replicas(replicas), policy)
    }

    /// Round-robin partitions `data` into `n_shards` **mutable** streaming
    /// shards of `replicas` forked replicas each — the configuration live
    /// reconfiguration needs.
    pub fn build_streaming<C>(
        compressor: &C,
        data: &Dataset,
        n_shards: usize,
        replicas: usize,
        policy: LoadBalancePolicy,
        cfg: StreamingConfig,
    ) -> Self
    where
        C: VectorCompressor + Clone + 'static,
    {
        let table = ShardedIndex::build_streaming(compressor, data, None, n_shards, cfg);
        Self::new(table.with_replicas(replicas), policy)
    }

    /// The active balance policy.
    pub fn policy(&self) -> LoadBalancePolicy {
        self.policy
    }

    /// The admission gate's start-wait estimate: a query fans out to all
    /// shards, so it starts when the *most backlogged* shard's best
    /// replica frees up.
    fn est_start_wait_us(&self, now_us: f64) -> f64 {
        self.table
            .groups
            .iter()
            .map(|g| g.set.min_backlog_us(now_us))
            .fold(0.0, f64::max)
    }

    /// One read at virtual time `now_us`, under `filter` when given: fan
    /// out to every shard, each answered by the first replica in policy
    /// order that does not fault, with the read's modeled service time
    /// reserved on that replica's timeline; merge exactly (§7.3 — per
    /// predicate too). Returns the global top-k, fan-out stats, and the
    /// query's virtual completion time (the slowest shard's). `Err` if any
    /// shard has no answering replica — a partial top-k would be silent
    /// corruption.
    #[allow(clippy::too_many_arguments)]
    fn search_at(
        &self,
        query: &[f32],
        filter: Option<FilteredQuery>,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
        now_us: f64,
        cost: &CostModel,
    ) -> Result<(Vec<Neighbor>, ShardQueryStats, f64), RejectReason> {
        assert_eq!(query.len(), self.dim(), "query dimension mismatch");
        let mut completion_us = now_us;
        let (res, total) = self.table.fan_out(k, |group| {
            let mut fault = ReplicaFault::Unavailable;
            for idx in group.set.order(self.policy, now_us) {
                match group.search(idx, query, filter, ef, k, scratch) {
                    Ok((res, stats)) => {
                        let done = group.set.replicas[idx].reserve(now_us, cost.service_us(&stats));
                        completion_us = completion_us.max(done);
                        return Ok((res, stats));
                    }
                    Err(e) => fault = e,
                }
            }
            Err(match fault {
                ReplicaFault::Unavailable => RejectReason::ShardUnavailable,
                ReplicaFault::NoLabels => RejectReason::NoLabels,
            })
        })?;
        Ok((res, total, completion_us))
    }

    /// One read outside any schedule (virtual time 0, default costs):
    /// the plain correctness-facing entry point.
    pub fn search(
        &self,
        query: &[f32],
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<(Vec<Neighbor>, ShardQueryStats), RejectReason> {
        self.search_at(query, None, ef, k, scratch, 0.0, &CostModel::default())
            .map(|(res, stats, _)| (res, stats))
    }

    /// One filtered read outside any schedule (virtual time 0, default
    /// costs).
    pub fn search_filtered(
        &self,
        query: &[f32],
        pred: LabelPredicate,
        strategy: FilterStrategy,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<(Vec<Neighbor>, ShardQueryStats), RejectReason> {
        let filter = Some(FilteredQuery { pred, strategy });
        self.search_at(query, filter, ef, k, scratch, 0.0, &CostModel::default())
            .map(|(res, stats, _)| (res, stats))
    }

    /// Re-homes every live point to its round-robin shard — the invariant
    /// the builders establish and membership changes disturb. Consolidates
    /// first (tombstones don't deserve a move), then walks shards and
    /// locals in ascending order (deterministic), tombstoning each
    /// misplaced point at its source and re-inserting its vector at its
    /// target, and finally consolidates again to compact the sources.
    fn rebalance(&mut self, scratch: &mut SearchScratch) {
        self.consolidate(true);
        let mut moves: Vec<(u32, Vec<f32>, u32)> = Vec::new();
        for gi in 0..self.table.groups.len() {
            for local in 0..self.table.groups[gi].global_ids.len() as u32 {
                let g = self.table.groups[gi].global_ids[local as usize];
                if self.table.home(g) == gi {
                    continue;
                }
                let set = &mut self.table.groups[gi].set;
                let backend = set.primary().expect("rebalance requires mutable shards");
                moves.push((
                    g,
                    backend.vector_local(local).to_vec(),
                    backend.label_local(local),
                ));
                set.replicate(|b| b.remove_local(local));
            }
        }
        for (g, v, mask) in moves {
            let home = self.table.home(g);
            self.table.groups[home].insert(g, &v, mask, scratch);
        }
        // Compact the tombstones the moves left behind at their sources.
        self.consolidate(true);
    }

    /// Adds an (empty, mutable) shard and rebalances live points onto it
    /// by the round-robin rule. The new shard gets the same replication
    /// factor as shard 0. Returns the new shard's index. Requires every
    /// existing shard to be mutable (points must move).
    pub fn add_shard(
        &mut self,
        backend: Box<dyn MutableShardBackend>,
        scratch: &mut SearchScratch,
    ) -> usize {
        assert_eq!(
            backend.shard_len(),
            0,
            "a joining shard must start empty; its points arrive by rebalance"
        );
        let mut joining = slot(Replica::mutable(backend), Vec::new());
        joining.set.set_replicas(self.table.groups[0].set.len());
        self.table.groups.push(joining);
        self.rebalance(scratch);
        self.table.groups.len() - 1
    }

    /// Removes shard `gi`, redistributing its live points across the
    /// survivors, then rebalances everyone to the new round-robin rule.
    /// Panics when it is the last shard.
    pub fn remove_shard(&mut self, gi: usize, scratch: &mut SearchScratch) {
        assert!(self.n_shards() > 1, "cannot remove the last shard");
        // Compact the departing shard so only live points travel.
        let mut departing = self.table.groups.remove(gi);
        departing.consolidate(true);
        let backend = departing
            .set
            .primary()
            .expect("remove_shard requires a mutable departing shard");
        for (local, &g) in departing.global_ids.iter().enumerate() {
            let home = self.table.home(g);
            self.table.groups[home].insert(
                g,
                backend.vector_local(local as u32),
                backend.label_local(local as u32),
                scratch,
            );
        }
        // Survivors' own points may now be misplaced under the new rule.
        self.rebalance(scratch);
    }

    /// Clears all virtual-time runtime state (device horizons,
    /// outstanding completions, round-robin cursors) so measurement runs
    /// are independent of each other.
    fn reset_virtual_time(&self) {
        for group in &self.table.groups {
            group.set.rr.store(0, Ordering::Relaxed);
            for replica in &group.set.replicas {
                replica.clock.reset();
                recover(replica.outstanding.lock()).clear();
            }
        }
    }
}

/// What happened to one scheduled request.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestOutcome {
    /// Executed: the exact merged top-k and the virtual end-to-end
    /// latency (queue wait + service on the slowest group).
    Completed {
        neighbors: Vec<Neighbor>,
        latency_us: f32,
    },
    /// Shed before execution (or failed on every replica of a group).
    Rejected { reason: RejectReason },
}

impl RequestOutcome {
    pub fn is_completed(&self) -> bool {
        matches!(self, RequestOutcome::Completed { .. })
    }

    /// The top-k, when completed.
    pub fn neighbors(&self) -> Option<&[Neighbor]> {
        match self {
            RequestOutcome::Completed { neighbors, .. } => Some(neighbors),
            RequestOutcome::Rejected { .. } => None,
        }
    }
}

/// Per-tenant admission accounting for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantTally {
    pub tenant: u32,
    /// Requests this tenant offered.
    pub offered: usize,
    /// Requests admitted (and executed).
    pub admitted: usize,
    /// Requests shed, any reason.
    pub shed: usize,
}

/// What one open-loop run measured. Counters satisfy
/// `completed + shed == offered` and `admitted == completed +
/// shed_unavailable + shed_no_labels` (those two rejections happen
/// *after* admission — the request was executed but some shard could not
/// answer it).
#[derive(Clone, Debug, Default)]
pub struct ClusterReport {
    /// Requests in the schedule.
    pub offered: usize,
    /// Requests past the admission gate.
    pub admitted: usize,
    /// Requests that returned a top-k.
    pub completed: usize,
    /// Requests shed, any reason.
    pub shed: usize,
    pub shed_queue_full: usize,
    pub shed_deadline: usize,
    pub shed_quota: usize,
    pub shed_unavailable: usize,
    /// Requests carrying a predicate some shard had no labels for.
    pub shed_no_labels: usize,
    /// Offered arrival rate over the schedule's span.
    pub offered_qps: f32,
    /// Completed requests per second of virtual time.
    pub goodput_qps: f32,
    /// Virtual end-to-end latency over completed requests.
    pub latency: LatencySummary,
    /// Mean distance evaluations per completed request.
    pub mean_dist_comps: f32,
    /// Wall-clock seconds the run took to simulate (not a latency).
    pub wall_seconds: f32,
    /// Per-tenant tallies, ascending tenant id (deterministic order).
    pub tenants: Vec<TenantTally>,
}

/// The serving control plane: a [`ClusterIndex`] behind a `RwLock` (reads
/// share, reconfiguration excludes — each request sees one atomic
/// membership view), an admission gate, and the virtual cost clock.
pub struct ClusterEngine {
    cluster: RwLock<ClusterIndex>,
    admission: AdmissionConfig,
    cost: CostModel,
    epoch: Instant,
}

impl ClusterEngine {
    pub fn new(cluster: ClusterIndex, admission: AdmissionConfig, cost: CostModel) -> Self {
        Self {
            cluster: RwLock::new(cluster),
            admission,
            cost,
            epoch: Instant::now(),
        }
    }

    /// Runs `f` under the read lock — a consistent membership snapshot.
    pub fn with_read<R>(&self, f: impl FnOnce(&ClusterIndex) -> R) -> R {
        let cluster = recover(self.cluster.read());
        f(&cluster)
    }

    /// Runs a reconfiguration under the write lock: no read overlaps it,
    /// so no query ever observes a half-applied membership change.
    pub fn reconfigure<R>(&self, f: impl FnOnce(&mut ClusterIndex) -> R) -> R {
        let mut cluster = recover(self.cluster.write());
        f(&mut cluster)
    }

    /// One interactive read, under `filter` when given (wall-clock arrival
    /// time, no admission gate beyond what the shards can answer).
    pub fn search(
        &self,
        query: &[f32],
        filter: Option<FilteredQuery>,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<Vec<Neighbor>, RejectReason> {
        let now_us = self.epoch.elapsed().as_nanos() as f64 / 1e3;
        let cluster = recover(self.cluster.read());
        cluster
            .search_at(query, filter, ef, k, scratch, now_us, &self.cost)
            .map(|(res, _, _)| res)
    }

    /// Replays a fixed arrival schedule against the cluster in virtual
    /// time — the open-loop measurement loop (DESIGN.md §11.4). Per
    /// request: estimate start wait, ask the admission gate, then either
    /// execute (reserving modeled service on the chosen replicas'
    /// timelines) or record a typed rejection. Returns one outcome per
    /// request, in schedule order, plus the run's report.
    ///
    /// Virtual runtime state is reset at the start, so runs are
    /// independent and reproducible; schedules must be sorted by arrival.
    pub fn serve_open_loop(
        &self,
        queries: &Dataset,
        schedule: &ArrivalSchedule,
        ef: usize,
        k: usize,
    ) -> (Vec<RequestOutcome>, ClusterReport) {
        let cluster = recover(self.cluster.read());
        assert_eq!(queries.dim(), cluster.dim(), "query dimension mismatch");
        assert!(!queries.is_empty(), "need queries to serve");
        cluster.reset_virtual_time();
        let mut scratch = SearchScratch::new();
        let mut admission = AdmissionState::new();
        let mut outcomes = Vec::with_capacity(schedule.len());
        let mut latencies_us: Vec<f32> = Vec::new();
        let mut tallies: BTreeMap<u32, TenantTally> = BTreeMap::new();
        let mut report = ClusterReport {
            offered: schedule.len(),
            ..Default::default()
        };
        let mut total_dists = 0usize;
        let mut horizon_us = schedule.span_us();
        let t0 = Instant::now();

        let mut prev_arrival = 0.0f64;
        for request in &schedule.requests {
            assert!(
                request.arrival_us >= prev_arrival,
                "schedule must be sorted by arrival"
            );
            prev_arrival = request.arrival_us;
            let tally = tallies.entry(request.tenant).or_insert(TenantTally {
                tenant: request.tenant,
                ..Default::default()
            });
            tally.offered += 1;

            let est_wait_us = cluster.est_start_wait_us(request.arrival_us);
            let admitted = admission.admit(
                &self.admission,
                request.tenant,
                request.arrival_us,
                est_wait_us,
            );
            let outcome = match admitted {
                Err(reason) => RequestOutcome::Rejected { reason },
                Ok(()) => {
                    report.admitted += 1;
                    tally.admitted += 1;
                    let q = queries.get(request.query as usize % queries.len());
                    match cluster.search_at(
                        q,
                        request.filter,
                        ef,
                        k,
                        &mut scratch,
                        request.arrival_us,
                        &self.cost,
                    ) {
                        Ok((neighbors, stats, completion_us)) => {
                            admission.started(completion_us);
                            total_dists += stats.dist_comps;
                            horizon_us = horizon_us.max(completion_us);
                            let latency_us = (completion_us - request.arrival_us) as f32;
                            latencies_us.push(latency_us);
                            RequestOutcome::Completed {
                                neighbors,
                                latency_us,
                            }
                        }
                        Err(reason) => RequestOutcome::Rejected { reason },
                    }
                }
            };
            if let RequestOutcome::Rejected { reason } = &outcome {
                report.shed += 1;
                tally.shed += 1;
                match reason {
                    RejectReason::QueueFull => report.shed_queue_full += 1,
                    RejectReason::DeadlineExceeded => report.shed_deadline += 1,
                    RejectReason::QuotaExceeded => report.shed_quota += 1,
                    RejectReason::ShardUnavailable => report.shed_unavailable += 1,
                    RejectReason::NoLabels => report.shed_no_labels += 1,
                }
            }
            outcomes.push(outcome);
        }

        report.completed = latencies_us.len();
        debug_assert_eq!(report.completed + report.shed, report.offered);
        debug_assert_eq!(
            report.admitted,
            report.completed + report.shed_unavailable + report.shed_no_labels
        );
        let span_s = (schedule.span_us() / 1e6).max(1e-9);
        let horizon_s = (horizon_us / 1e6).max(1e-9);
        report.offered_qps = (report.offered as f64 / span_s) as f32;
        report.goodput_qps = (report.completed as f64 / horizon_s) as f32;
        report.latency = LatencySummary::from_samples(&latencies_us);
        report.mean_dist_comps = total_dists as f32 / report.completed.max(1) as f32;
        report.wall_seconds = t0.elapsed().as_secs_f32();
        report.tenants = tallies.into_values().collect();
        (outcomes, report)
    }

    /// A closed-loop-shaped convenience: every query arrives at t=0 from
    /// one tenant. The queue bound binds immediately, making this the
    /// smallest demonstration of bounded admission.
    pub fn serve_batch(
        &self,
        queries: &Dataset,
        ef: usize,
        k: usize,
    ) -> (Vec<RequestOutcome>, ClusterReport) {
        let schedule = ArrivalSchedule::burst(queries.len(), queries.len());
        self.serve_open_loop(queries, &schedule, ef, k)
    }
}

#[cfg(test)]
mod tests {
    use super::super::ClusterHandle;
    use super::*;
    use crate::stream::StreamingIndex;
    use crate::test_store::TestStore;
    use rpq_data::synth::{SynthConfig, ValueTransform};
    use rpq_data::Labels;
    use rpq_graph::HnswConfig;
    use rpq_quant::{PqConfig, ProductQuantizer};
    use std::sync::Arc;

    use crate::disk::DiskIndexConfig;

    fn setup(n: usize, seed: u64) -> (Dataset, Dataset) {
        let data = SynthConfig {
            dim: 8,
            intrinsic_dim: 4,
            clusters: 4,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        }
        .generate(n + 12, seed);
        data.split_at(n)
    }

    fn graph_builder(part: &Dataset) -> ProximityGraph {
        HnswConfig {
            m: 8,
            ef_construction: 40,
            seed: 5,
        }
        .build(part)
    }

    fn pq(base: &Dataset) -> ProductQuantizer {
        ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            base,
        )
    }

    /// The backend kinds a partition table can hold — the extra input the
    /// sharded-vs-cluster pins take.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Kind {
        Memory,
        Streaming,
        Disk,
    }

    const KINDS: [Kind; 3] = [Kind::Memory, Kind::Streaming, Kind::Disk];

    /// A labeled two-shard partition table of `kind` over `base`; a disk
    /// table keeps its shards at `store`.
    fn table(
        kind: Kind,
        pq: &ProductQuantizer,
        base: &Dataset,
        labels: &Labels,
        store: &TestStore,
    ) -> ShardedIndex {
        match kind {
            Kind::Memory => {
                ShardedIndex::build_in_memory_labeled(pq, base, labels, 2, graph_builder)
            }
            Kind::Streaming => {
                let cfg = StreamingConfig {
                    r: 16,
                    l: 40,
                    ..Default::default()
                };
                ShardedIndex::build_streaming(pq, base, Some(labels), 2, cfg)
            }
            Kind::Disk => {
                let cfg = DiskIndexConfig::new(store.path());
                ShardedIndex::build_on_disk(pq, base, Some(labels), 2, &cfg, graph_builder).unwrap()
            }
        }
    }

    /// The cluster view and the plain view of two identically-built tables
    /// must agree at a finite `ef` — neighbors bit for bit and every work
    /// counter, modeled I/O included (disk shards run at `io_width` 1, so
    /// their stall is the full device bill) — unfiltered and under each
    /// predicate × strategy. Replica choice, failover order and
    /// virtual-time bookkeeping are the only things the cluster view adds,
    /// and none of them may show.
    fn assert_views_agree(
        cluster: &ClusterIndex,
        reference: &ShardedIndex,
        queries: &Dataset,
        ef: usize,
    ) {
        let mut scratch = SearchScratch::new();
        for (qi, q) in queries.iter().enumerate() {
            let (got, got_stats) = cluster.search(q, ef, 10, &mut scratch).unwrap();
            let (want, want_stats) = reference.search(q, ef, 10, &mut scratch);
            assert_eq!(got, want, "query {qi} diverged unfiltered");
            assert_eq!(got_stats, want_stats, "query {qi}");
            for strategy in [
                FilterStrategy::DuringTraversal,
                FilterStrategy::PostFilter { inflation: 4 },
            ] {
                let pred = LabelPredicate::single(qi % 4);
                let (got, got_stats) = cluster
                    .search_filtered(q, pred, strategy, ef, 10, &mut scratch)
                    .unwrap();
                let (want, want_stats) =
                    reference.search_filtered(q, pred, strategy, ef, 10, &mut scratch);
                assert_eq!(got, want, "query {qi} diverged under {}", strategy.name());
                assert_eq!(got_stats, want_stats, "query {qi}");
            }
        }
    }

    #[test]
    fn frozen_replicas_share_memory() {
        let (base, _) = setup(160, 31);
        let pq = pq(&base);
        let r1 = ClusterIndex::build_in_memory(
            &pq,
            &base,
            2,
            1,
            LoadBalancePolicy::RoundRobin,
            graph_builder,
        );
        let r4 = ClusterIndex::build_in_memory(
            &pq,
            &base,
            2,
            4,
            LoadBalancePolicy::RoundRobin,
            graph_builder,
        );
        assert_eq!(r1.groups()[0].replica_set().len(), 1);
        assert_eq!(r4.groups()[0].replica_set().len(), 4);
        // All four replicas of a frozen group must point at ONE backend
        // allocation — replication of frozen shards costs pointers.
        let set = r4.groups()[0].replica_set();
        let ptrs: Vec<*const ()> = set
            .replicas()
            .iter()
            .map(|r| match &r.handle {
                ClusterHandle::Frozen(b) => Arc::as_ptr(b) as *const (),
                _ => unreachable!(),
            })
            .collect();
        assert!(ptrs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn every_policy_returns_identical_results() {
        let (base, queries) = setup(200, 32);
        let pq = pq(&base);
        let mut scratch = SearchScratch::new();
        let mut reference: Option<Vec<Vec<u32>>> = None;
        for policy in LoadBalancePolicy::all() {
            for replicas in [1, 3] {
                let cluster =
                    ClusterIndex::build_in_memory(&pq, &base, 2, replicas, policy, graph_builder);
                let got: Vec<Vec<u32>> = queries
                    .iter()
                    .map(|q| {
                        let (res, _) = cluster.search(q, 60, 8, &mut scratch).unwrap();
                        res.iter().map(|n| n.id).collect()
                    })
                    .collect();
                match &reference {
                    None => reference = Some(got),
                    Some(want) => assert_eq!(&got, want, "{} x{replicas} diverged", policy.name()),
                }
            }
        }
    }

    #[test]
    fn round_robin_spreads_and_queue_aware_balances() {
        let (base, queries) = setup(160, 33);
        let pq = pq(&base);
        let cluster = ClusterIndex::build_in_memory(
            &pq,
            &base,
            1,
            3,
            LoadBalancePolicy::RoundRobin,
            graph_builder,
        );
        let mut scratch = SearchScratch::new();
        let cost = CostModel::default();
        for (i, q) in queries.iter().enumerate() {
            cluster
                .search_at(q, None, 40, 5, &mut scratch, i as f64, &cost)
                .unwrap();
        }
        let loads: Vec<usize> = cluster.groups()[0]
            .replica_set()
            .replicas()
            .iter()
            .map(|r| r.outstanding.lock().unwrap().len())
            .collect();
        let (min, max) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
        assert!(
            max - min <= 1,
            "round robin must spread evenly, got {loads:?}"
        );

        // Queue-aware: all traffic at t=0 still spreads, because each
        // reservation grows the chosen replica's backlog.
        let cluster = ClusterIndex::new(cluster.table, LoadBalancePolicy::QueueAware);
        cluster.reset_virtual_time();
        for q in queries.iter() {
            cluster
                .search_at(q, None, 40, 5, &mut scratch, 0.0, &cost)
                .unwrap();
        }
        let loads: Vec<usize> = cluster.groups()[0]
            .replica_set()
            .replicas()
            .iter()
            .map(|r| r.outstanding.lock().unwrap().len())
            .collect();
        let (min, max) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
        assert!(
            max - min <= 2,
            "queue-aware must balance backlog, got {loads:?}"
        );
    }

    #[test]
    fn replica_scaling_increases_goodput_at_fixed_offered_load() {
        let (base, queries) = setup(200, 34);
        let pq = pq(&base);
        let mk_engine = |replicas: usize| {
            let cluster = ClusterIndex::build_in_memory(
                &pq,
                &base,
                2,
                replicas,
                LoadBalancePolicy::QueueAware,
                graph_builder,
            );
            ClusterEngine::new(
                cluster,
                AdmissionConfig {
                    queue_cap: 32,
                    ..Default::default()
                },
                CostModel::default(),
            )
        };
        // Probe the single-replica capacity, then offer 2.5x it.
        let e1 = mk_engine(1);
        let probe = ArrivalSchedule::open_loop(64, 1.0, queries.len(), 1, 40);
        let (_, unloaded) = e1.serve_open_loop(&queries, &probe, 40, 5);
        let capacity_qps = 1e6 / unloaded.latency.mean_us as f64;
        let offered = ArrivalSchedule::open_loop(800, 2.5 * capacity_qps, queries.len(), 1, 41);
        let (_, r1) = e1.serve_open_loop(&queries, &offered, 40, 5);
        let e2 = mk_engine(2);
        let (_, r2) = e2.serve_open_loop(&queries, &offered, 40, 5);
        assert!(
            r1.shed > 0,
            "2.5x overload must shed on one replica: {r1:?}"
        );
        assert!(
            r2.goodput_qps > r1.goodput_qps,
            "2 replicas must outrun 1 at the same offered load: {} vs {}",
            r2.goodput_qps,
            r1.goodput_qps
        );
        assert_eq!(r1.completed + r1.shed, r1.offered);
        assert_eq!(r2.completed + r2.shed, r2.offered);
    }

    #[test]
    fn burst_batch_respects_queue_bound_with_typed_rejections() {
        let (base, queries) = setup(160, 35);
        let pq = pq(&base);
        let cluster = ClusterIndex::build_in_memory(
            &pq,
            &base,
            2,
            1,
            LoadBalancePolicy::RoundRobin,
            graph_builder,
        );
        let engine = ClusterEngine::new(
            cluster,
            AdmissionConfig {
                queue_cap: 4,
                ..Default::default()
            },
            CostModel::default(),
        );
        let (outcomes, report) = engine.serve_batch(&queries, 40, 5);
        assert_eq!(outcomes.len(), queries.len());
        // Everything arrives at t=0: exactly queue_cap requests fit.
        assert_eq!(report.admitted, 4);
        assert_eq!(report.shed, queries.len() - 4);
        assert!(outcomes.iter().skip(4).all(|o| matches!(
            o,
            RequestOutcome::Rejected {
                reason: RejectReason::QueueFull
            }
        )));
    }

    #[test]
    fn streaming_cluster_replicates_writes_and_matches_sharded_reference() {
        let (base, queries) = setup(180, 36);
        let (initial, reserve) = base.split_at(150);
        let labels = Labels::from_masks(4, (0..150).map(|i| 1u32 << (i % 4)).collect());
        let pq = pq(&base);
        for kind in KINDS {
            let mutable = kind == Kind::Streaming;
            let stores = [
                TestStore::new("writes-cluster"),
                TestStore::new("writes-ref"),
            ];
            let mut cluster = ClusterIndex::new(
                table(kind, &pq, &initial, &labels, &stores[0]).with_replicas(2),
                LoadBalancePolicy::LeastOutstanding,
            );
            let mut reference = table(kind, &pq, &initial, &labels, &stores[1]);
            let mut scratch = SearchScratch::new();
            // Frozen kinds refuse every write on both views alike; the
            // streaming kind applies each one to both replicas.
            if mutable {
                for v in reserve.iter() {
                    let g1 = cluster.insert(v, &mut scratch);
                    let g2 = reference.insert(v, &mut scratch);
                    assert_eq!(g1, g2);
                }
            }
            for g in (0..180u32).step_by(9) {
                assert_eq!(
                    cluster.remove(g),
                    reference.remove(g),
                    "{kind:?} remove({g})"
                );
            }
            assert_eq!(cluster.live_len(), reference.live_len());
            let reclaimed = cluster.consolidate(true);
            assert_eq!(reclaimed > 0, mutable, "{kind:?} reclaimed {reclaimed}");
            assert_eq!(reclaimed, reference.consolidate(true));
            assert_eq!(cluster.live_len(), reference.live_len());
            // Exhaustive ef: exact top-k over identical live sets must agree.
            let ef = 200;
            for q in queries.iter() {
                let (got, _) = cluster.search(q, ef, 10, &mut scratch).unwrap();
                let (want, _) = reference.search(q, ef, 10, &mut scratch);
                assert_eq!(
                    got.iter().map(|n| n.id).collect::<Vec<_>>(),
                    want.iter().map(|n| n.id).collect::<Vec<_>>(),
                    "{kind:?}",
                );
            }
            assert_views_agree(&cluster, &reference, &queries, 40);
        }
    }

    #[test]
    fn set_replicas_forks_and_drops_without_changing_results() {
        let (base, queries) = setup(140, 37);
        let pq = pq(&base);
        let mut cluster = ClusterIndex::build_streaming(
            &pq,
            &base,
            2,
            1,
            LoadBalancePolicy::RoundRobin,
            StreamingConfig::default(),
        );
        let mut scratch = SearchScratch::new();
        let before: Vec<Vec<u32>> = queries
            .iter()
            .map(|q| {
                let (res, _) = cluster.search(q, 60, 5, &mut scratch).unwrap();
                res.iter().map(|n| n.id).collect()
            })
            .collect();
        cluster.set_replicas(3);
        assert!(cluster.groups().iter().all(|g| g.replica_set().len() == 3));
        let tripled: Vec<Vec<u32>> = queries
            .iter()
            .map(|q| {
                let (res, _) = cluster.search(q, 60, 5, &mut scratch).unwrap();
                res.iter().map(|n| n.id).collect()
            })
            .collect();
        assert_eq!(before, tripled, "forked replicas must answer identically");
        cluster.set_replicas(1);
        assert!(cluster.groups().iter().all(|g| g.replica_set().len() == 1));
    }

    #[test]
    fn disabled_replicas_take_no_traffic_until_reenabled() {
        let (base, queries) = setup(120, 38);
        let pq = pq(&base);
        let cluster = ClusterIndex::build_in_memory(
            &pq,
            &base,
            1,
            2,
            LoadBalancePolicy::RoundRobin,
            graph_builder,
        );
        let mut scratch = SearchScratch::new();
        let cost = CostModel::default();
        cluster.groups()[0].replica_set().replicas()[0].set_enabled(false);
        for (i, q) in queries.iter().enumerate() {
            cluster
                .search_at(q, None, 30, 5, &mut scratch, i as f64, &cost)
                .unwrap();
        }
        let set = cluster.groups()[0].replica_set();
        assert_eq!(set.replicas()[0].outstanding.lock().unwrap().len(), 0);
        assert_eq!(
            set.replicas()[1].outstanding.lock().unwrap().len(),
            queries.len()
        );
        set.replicas()[0].set_enabled(true);
        cluster.reset_virtual_time();
        for (i, q) in queries.iter().enumerate() {
            cluster
                .search_at(q, None, 30, 5, &mut scratch, i as f64, &cost)
                .unwrap();
        }
        assert!(!set.replicas()[0].outstanding.lock().unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "must start empty")]
    fn add_shard_rejects_prepopulated_backends() {
        let (base, _) = setup(80, 39);
        let pq = pq(&base);
        let mut cluster = ClusterIndex::build_streaming(
            &pq,
            &base,
            2,
            1,
            LoadBalancePolicy::RoundRobin,
            StreamingConfig::default(),
        );
        let mut scratch = SearchScratch::new();
        let full = StreamingIndex::build(pq.clone(), &base, StreamingConfig::default());
        cluster.add_shard(Box::new(full), &mut scratch);
    }

    #[test]
    fn add_and_remove_shard_preserve_membership_rule() {
        let (base, _) = setup(120, 42);
        let pq = pq(&base);
        let mut cluster = ClusterIndex::build_streaming(
            &pq,
            &base,
            2,
            2,
            LoadBalancePolicy::RoundRobin,
            StreamingConfig::default(),
        );
        let mut scratch = SearchScratch::new();
        let gi = cluster.add_shard(
            Box::new(StreamingIndex::new(pq.clone(), StreamingConfig::default())),
            &mut scratch,
        );
        assert_eq!(gi, 2);
        assert_eq!(cluster.n_shards(), 3);
        assert_eq!(cluster.live_len(), 120);
        // Every live point now satisfies g % 3 == its group index, and the
        // new group inherited the cluster's replication factor.
        for (idx, group) in cluster.groups().iter().enumerate() {
            assert_eq!(group.replica_set().len(), 2);
            assert!(!group.global_ids().is_empty());
            for &g in group.global_ids() {
                assert_eq!(g as usize % 3, idx, "global {g} misplaced");
            }
        }
        cluster.remove_shard(1, &mut scratch);
        assert_eq!(cluster.n_shards(), 2);
        assert_eq!(cluster.live_len(), 120);
        for (idx, group) in cluster.groups().iter().enumerate() {
            for &g in group.global_ids() {
                assert_eq!(g as usize % 2, idx, "global {g} misplaced after remove");
            }
        }
    }

    #[test]
    fn filtered_cluster_search_matches_sharded_reference_per_predicate() {
        let cfg = SynthConfig {
            dim: 8,
            intrinsic_dim: 4,
            clusters: 8,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        };
        let (all, labels) = cfg.generate_labeled(212, 45, 4);
        let (base, queries) = all.split_at(200);
        let base_labels = labels.subset(&(0..200).collect::<Vec<_>>());
        let pq = pq(&base);
        for kind in KINDS {
            let stores = [
                TestStore::new("filtered-cluster"),
                TestStore::new("filtered-ref"),
            ];
            let cluster = ClusterIndex::new(
                table(kind, &pq, &base, &base_labels, &stores[0]).with_replicas(2),
                LoadBalancePolicy::QueueAware,
            );
            let reference = table(kind, &pq, &base, &base_labels, &stores[1]);
            let mut scratch = SearchScratch::new();
            // Exhaustive ef: the §7.3 exact-merge contract must hold per
            // predicate, replica choice and strategy notwithstanding.
            for strategy in [
                FilterStrategy::DuringTraversal,
                FilterStrategy::PostFilter { inflation: 4 },
            ] {
                for (qi, q) in queries.iter().enumerate() {
                    let pred = LabelPredicate::single(qi % 4);
                    let (got, _) = cluster
                        .search_filtered(q, pred, strategy, 200, 10, &mut scratch)
                        .unwrap();
                    let (want, _) =
                        reference.search_filtered(q, pred, strategy, 200, 10, &mut scratch);
                    assert_eq!(
                        got.iter().map(|n| n.id).collect::<Vec<_>>(),
                        want.iter().map(|n| n.id).collect::<Vec<_>>(),
                        "{kind:?} query {qi} diverged under {}",
                        strategy.name(),
                    );
                    assert!(got.iter().all(|n| base_labels.matches(n.id as usize, pred)));
                }
            }
            assert_views_agree(&cluster, &reference, &queries, 40);
        }
    }

    #[test]
    fn zipf_filtered_open_loop_returns_only_matching_ids() {
        let cfg = SynthConfig {
            dim: 8,
            intrinsic_dim: 4,
            clusters: 8,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        };
        let (all, labels) = cfg.generate_labeled(190, 46, 4);
        let (base, queries) = all.split_at(180);
        let base_labels = labels.subset(&(0..180).collect::<Vec<_>>());
        let pq = pq(&base);
        let mk = || {
            let table =
                ShardedIndex::build_in_memory_labeled(&pq, &base, &base_labels, 2, graph_builder);
            let cluster = ClusterIndex::new(table.with_replicas(2), LoadBalancePolicy::QueueAware);
            ClusterEngine::new(cluster, AdmissionConfig::default(), CostModel::default())
        };
        let filters = [
            FilteredQuery {
                pred: LabelPredicate::single(0),
                strategy: FilterStrategy::DuringTraversal,
            },
            FilteredQuery {
                pred: LabelPredicate::single(1),
                strategy: FilterStrategy::PostFilter { inflation: 4 },
            },
        ];
        let schedule = ArrivalSchedule::open_loop_zipf(300, 5_000.0, queries.len(), 2, 47, 1.1)
            .with_filters(&filters);
        let eng = mk();
        let (outcomes, report) = eng.serve_open_loop(&queries, &schedule, 40, 5);
        assert!(report.completed > 0, "healthy cluster must complete work");
        for (i, outcome) in outcomes.iter().enumerate() {
            let Some(neighbors) = outcome.neighbors() else {
                continue;
            };
            let pred = filters[i % filters.len()].pred;
            assert!(
                neighbors
                    .iter()
                    .all(|n| base_labels.matches(n.id as usize, pred)),
                "request {i} returned a non-matching id"
            );
            assert!(!neighbors.is_empty());
        }
        // And the run replays bit-identically on a fresh engine.
        let (again, _) = mk().serve_open_loop(&queries, &schedule, 40, 5);
        assert_eq!(outcomes, again);
    }

    #[test]
    fn predicate_on_a_label_less_cluster_is_a_counted_rejection() {
        let (base, queries) = setup(140, 49);
        let pq = pq(&base);
        let cluster = ClusterIndex::build_in_memory(
            &pq,
            &base,
            2,
            2,
            LoadBalancePolicy::QueueAware,
            graph_builder,
        );
        let engine = ClusterEngine::new(cluster, AdmissionConfig::default(), CostModel::default());
        let filter = FilteredQuery {
            pred: LabelPredicate::single(0),
            strategy: FilterStrategy::DuringTraversal,
        };
        // Every other request carries a predicate no shard can evaluate.
        let mut schedule = ArrivalSchedule::open_loop(120, 5_000.0, queries.len(), 2, 50);
        for request in schedule.requests.iter_mut().step_by(2) {
            request.filter = Some(filter);
        }
        let (outcomes, report) = engine.serve_open_loop(&queries, &schedule, 40, 5);
        for (outcome, request) in outcomes.iter().zip(&schedule.requests) {
            match request.filter {
                Some(_) => assert_eq!(
                    outcome,
                    &RequestOutcome::Rejected {
                        reason: RejectReason::NoLabels
                    }
                ),
                None => assert!(outcome.is_completed(), "unfiltered requests still complete"),
            }
        }
        assert_eq!(report.shed_no_labels, 60);
        assert_eq!(report.completed, 60);
        assert_eq!(report.completed + report.shed, report.offered);
        assert_eq!(
            report.admitted,
            report.completed + report.shed_unavailable + report.shed_no_labels
        );
        // The read lock was released normally: the engine keeps serving.
        let mut scratch = SearchScratch::new();
        let q = queries.get(0);
        assert!(engine.search(q, None, 40, 5, &mut scratch).is_ok());
        assert_eq!(
            engine.search(q, Some(filter), 40, 5, &mut scratch),
            Err(RejectReason::NoLabels)
        );
    }

    #[test]
    fn labels_survive_reconfiguration_moves() {
        let cfg = SynthConfig {
            dim: 8,
            intrinsic_dim: 4,
            clusters: 8,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        };
        let (all, labels) = cfg.generate_labeled(130, 48, 4);
        let (base, queries) = all.split_at(120);
        let base_labels = labels.subset(&(0..120).collect::<Vec<_>>());
        let pq = pq(&base);
        let mut cluster = ClusterIndex::new(
            ShardedIndex::build_streaming(
                &pq,
                &base,
                Some(&base_labels),
                2,
                StreamingConfig::default(),
            ),
            LoadBalancePolicy::RoundRobin,
        );
        let mut scratch = SearchScratch::new();
        // Force moves: add a third shard, then drop the middle one.
        cluster.add_shard(
            Box::new(StreamingIndex::new(pq.clone(), StreamingConfig::default())),
            &mut scratch,
        );
        cluster.remove_shard(1, &mut scratch);
        assert_eq!(cluster.live_len(), 120);
        // Per-group mask census must match the original corpus: moves
        // carried each point's mask to its new home.
        let mut census: Vec<u32> = Vec::new();
        for group in cluster.groups() {
            let backend = group.replica_set().primary().unwrap();
            for (local, &g) in group.global_ids().iter().enumerate() {
                assert_eq!(
                    backend.label_local(local as u32),
                    base_labels.get(g as usize),
                    "global {g} lost its mask in a move"
                );
                census.push(g);
            }
        }
        census.sort_unstable();
        assert_eq!(census, (0..120).collect::<Vec<_>>());
        // Filtered reads still agree with a never-reconfigured reference.
        let reference =
            ShardedIndex::build_in_memory_labeled(&pq, &base, &base_labels, 2, graph_builder);
        for q in queries.iter() {
            let pred = LabelPredicate::single(0);
            let (got, _) = cluster
                .search_filtered(
                    q,
                    pred,
                    FilterStrategy::DuringTraversal,
                    150,
                    8,
                    &mut scratch,
                )
                .unwrap();
            let (want, _) = reference.search_filtered(
                q,
                pred,
                FilterStrategy::DuringTraversal,
                150,
                8,
                &mut scratch,
            );
            assert_eq!(
                got.iter().map(|n| n.id).collect::<Vec<_>>(),
                want.iter().map(|n| n.id).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn open_loop_run_is_reproducible() {
        let (base, queries) = setup(140, 43);
        let labels = Labels::from_masks(4, (0..140).map(|i| 1u32 << (i % 4)).collect());
        let pq = pq(&base);
        let schedule = ArrivalSchedule::open_loop(400, 20_000.0, queries.len(), 3, 44);
        for kind in [Kind::Memory, Kind::Disk] {
            let stores = [1, 2, 3].map(|i| TestStore::new(&format!("replay-{i}")));
            let mk = |store: &TestStore| {
                ClusterEngine::new(
                    ClusterIndex::new(
                        table(kind, &pq, &base, &labels, store).with_replicas(2),
                        LoadBalancePolicy::QueueAware,
                    ),
                    AdmissionConfig {
                        queue_cap: 8,
                        deadline_us: Some(10_000.0),
                        ..Default::default()
                    },
                    CostModel::default(),
                )
            };
            let (o1, r1) = mk(&stores[0]).serve_open_loop(&queries, &schedule, 40, 5);
            let (o2, r2) = mk(&stores[1]).serve_open_loop(&queries, &schedule, 40, 5);
            assert_eq!(
                o1, o2,
                "{kind:?}: same schedule, same outcomes, bit for bit"
            );
            assert_eq!(r1.latency, r2.latency, "{kind:?}");
            assert_eq!(r1.tenants, r2.tenants, "{kind:?}");
            // Not an all-shed run, which would replay trivially.
            assert!(r1.completed > 0, "{kind:?}: nothing completed");
            // And a third run on the SAME engine (reset_virtual_time) agrees.
            let eng = mk(&stores[2]);
            let (o3, _) = eng.serve_open_loop(&queries, &schedule, 40, 5);
            let (o4, _) = eng.serve_open_loop(&queries, &schedule, 40, 5);
            assert_eq!(o3, o4, "{kind:?}: virtual state must reset between runs");
        }
    }

    /// A disk shard's modeled I/O is a function of what the query read:
    /// the same query twice reports the same counters, and the admission
    /// gate prices it the same.
    #[test]
    fn repeated_disk_reads_report_equal_stats_and_cost() {
        let (base, queries) = setup(140, 45);
        let labels = Labels::from_masks(4, (0..140).map(|i| 1u32 << (i % 4)).collect());
        let store = TestStore::new("repeat");
        let table = table(Kind::Disk, &pq(&base), &base, &labels, &store);
        let cost = CostModel::default();
        let mut scratch = SearchScratch::new();
        for q in queries.iter() {
            let (first_ids, first) = table.search(q, 40, 10, &mut scratch);
            let (second_ids, second) = table.search(q, 40, 10, &mut scratch);
            assert_eq!(first_ids, second_ids);
            assert_eq!(first, second);
            assert!(first.io_stall_seconds > 0.0);
            assert_eq!(
                cost.service_us(&first).to_bits(),
                cost.service_us(&second).to_bits()
            );
        }
    }

    /// A reconfiguration that panics poisons the engine's `RwLock`; the
    /// serving lock policy (`serve::recover`) takes the membership back,
    /// so the same engine answers every read after the panic exactly as
    /// before it — ids, distance bits and stats.
    #[test]
    fn a_panicking_reconfiguration_leaves_reads_unchanged() {
        let (base, queries) = setup(160, 53);
        let pq = pq(&base);
        let cluster = ClusterIndex::build_in_memory(
            &pq,
            &base,
            2,
            2,
            LoadBalancePolicy::RoundRobin,
            graph_builder,
        );
        let engine = ClusterEngine::new(cluster, AdmissionConfig::default(), CostModel::default());
        let bits = |res: &[Neighbor]| -> Vec<(u32, u32)> {
            res.iter().map(|n| (n.id, n.dist.to_bits())).collect()
        };
        let mut scratch = SearchScratch::new();
        let mut answers = || -> Vec<_> {
            queries
                .iter()
                .map(|q| {
                    let (read, stats) = engine
                        .with_read(|c| c.search(q, 40, 5, &mut scratch))
                        .unwrap();
                    let served = engine.search(q, None, 40, 5, &mut scratch).unwrap();
                    (bits(&read), stats, bits(&served))
                })
                .collect()
        };
        let before = answers();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.reconfigure(|_| panic!("boom"))
        }));
        assert!(caught.is_err(), "the reconfiguration must have panicked");
        assert!(
            engine.cluster.is_poisoned(),
            "the panic must poison the lock"
        );
        assert_eq!(answers(), before);
    }
}
