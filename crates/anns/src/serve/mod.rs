//! Sharded concurrent serving layer (DESIGN.md §7, §11).
//!
//! The offline [`crate::harness`] answers "how good is one index"; this
//! module answers "how do we serve it". There is **one data plane**: a
//! partition table ([`ShardedIndex`]) whose slots are replica sets of one
//! or more bit-identical backends ([`InMemoryIndex`], [`DiskIndex`] or
//! [`StreamingIndex`] over the slot's partition), each slot carrying the
//! map from its local ids back to global ids. Every query fans out to all
//! slots and the per-slot top-k lists are merged into a global top-k.
//!
//! Two views read that table. [`ShardedIndex`] itself is the plain view:
//! replica 0 of every slot, no runtime state — what [`ServeEngine`] drives
//! through a persistent [`WorkerPool`] with request batching and a
//! latency/QPS collector. [`ClusterIndex`] wraps the same table with a
//! load-balance policy, failover and virtual-time accounting, and
//! [`ClusterEngine`] adds admission control and live reconfiguration.
//!
//! Sharding preserves the result contract: all shards share one trained
//! compressor, so a vector's ADC distance is identical wherever it lives,
//! and merging per-shard top-k lists over a disjoint partition is exactly
//! the global top-k of the union (DESIGN.md §7.3). The integration tests
//! pin this down by checking sharded == unsharded results at exhaustive
//! beam widths.

pub mod admission;
pub mod balance;
pub mod cluster;
pub mod engine;
pub mod fault;
pub mod loadgen;
pub mod metrics;
pub mod pool;

pub use admission::{AdmissionConfig, RejectReason, TokenBucketConfig};
pub use balance::LoadBalancePolicy;
pub use cluster::{ClusterEngine, ClusterIndex, ClusterReport, RequestOutcome, TenantTally};
pub use engine::{BatchReport, ServeConfig, ServeEngine};
pub use fault::{FlakyBackend, ReplicaFault};
pub use loadgen::{ArrivalSchedule, CostModel, FilteredQuery, Request};
pub use metrics::{LatencyRecorder, LatencySummary};
pub use pool::{default_workers, WorkerPool};

use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, LockResult, Mutex, PoisonError};

use rpq_data::{Dataset, LabelPredicate, Labels};
use rpq_graph::{Neighbor, ProximityGraph, SearchScratch};
use rpq_quant::VectorCompressor;

use crate::disk::{DiskIndex, DiskIndexConfig, DiskSearchStats};
use crate::filter::FilterStrategy;
use crate::memory::InMemoryIndex;
use crate::stream::{StreamingConfig, StreamingIndex};
use balance::VirtualClock;

/// The serving layer's one lock policy: a lock poisoned by a panicking
/// holder is recovered, not propagated, so one panic does not fail every
/// later request. The scratch stash, latency window, job queue and
/// completion lists change only through calls that cannot panic midway;
/// the cluster membership is left as far as a panicking
/// `ClusterEngine::reconfigure` closure got (its caller sees the panic).
pub(crate) fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Per-shard, per-query cost counters: the hybrid scenario's stats, which
/// are a superset of the in-memory ones (`From<SearchStats>` leaves the I/O
/// columns zero), so both backends fit one serving path.
pub type ShardQueryStats = DiskSearchStats;

/// One searchable partition: anything that can answer a top-k query over
/// its local id space. Implemented by every deployment scenario's index so
/// a [`ShardedIndex`] can mix them.
pub trait ShardBackend: Send + Sync {
    /// Top-`k` under beam width `ef`, ids local to this shard; with
    /// `Some(filter)`, top-`k` among the local vectors satisfying its
    /// predicate (DESIGN.md §12). All scenarios route with `scratch`
    /// (visited epochs, staging buffers and the disk engine's
    /// exact-distance memo all live there). The filter is a concrete
    /// `Copy` type so this trait stays object-safe (the serving layers
    /// hold shards as `dyn ShardBackend`).
    ///
    /// The one read method is fallible: a predicate sent to a backend that
    /// carries no labels is [`ReplicaFault::NoLabels`], and a wrapper such
    /// as [`FlakyBackend`] may report [`ReplicaFault::Unavailable`]. The
    /// caller decides what a fault means — the cluster fails over, the
    /// plain sharded read panics.
    fn search_local(
        &self,
        query: &[f32],
        filter: Option<FilteredQuery>,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<(Vec<Neighbor>, ShardQueryStats), ReplicaFault>;

    /// Vectors indexed by this shard.
    fn shard_len(&self) -> usize;

    /// RAM held by this shard (codes + model + graph or cache).
    fn resident_bytes(&self) -> usize;
}

/// The mutation extension of [`ShardBackend`]: a shard whose corpus changes
/// in place (DESIGN.md §8). Split from the read path so the frozen
/// backends ([`InMemoryIndex`], [`DiskIndex`]) stay exactly what they were
/// and only shards that opt into mutability pay for it.
///
/// Local ids are positional: `insert_local` must return the previous
/// [`ShardBackend::shard_len`], and tombstoned ids keep their slot (and
/// stay counted by `shard_len`) until `consolidate_local` compacts them —
/// that positional stability is what keeps the sharded layer's local→global
/// id maps an index-aligned `Vec<u32>`.
pub trait MutableShardBackend: ShardBackend {
    /// Inserts one vector with its label bitmask (mask 0 = unlabeled, so
    /// streamed points stay searchable under predicates); returns its local
    /// id (== `shard_len` before the call).
    fn insert_local(&mut self, v: &[f32], mask: u32, scratch: &mut SearchScratch) -> u32;

    /// Tombstones a local id. False when out of range or already dead.
    fn remove_local(&mut self, local_id: u32) -> bool;

    /// Reclaims tombstones (threshold-gated unless `force`); returns the
    /// survivors' old local ids when a pass ran, so the caller can remap
    /// its id tables. New local id `i` was `survivors[i]`.
    fn consolidate_local(&mut self, force: bool) -> Option<Vec<u32>>;

    /// Resident minus tombstoned points.
    fn live_len(&self) -> usize;

    /// A deep copy of this backend for replication (DESIGN.md §11.1): the
    /// fork must be bit-identical — same graph, codes, and tombstones — so
    /// that replicas created from it answer queries identically and stay
    /// identical as long as they apply the same writes in the same order.
    fn fork_local(&self) -> Box<dyn MutableShardBackend>;

    /// The stored vector behind a local id, tombstoned slots included —
    /// what live reconfiguration reads when a point moves to another shard.
    fn vector_local(&self, local_id: u32) -> &[f32];

    /// The label mask behind a local id — read alongside
    /// [`MutableShardBackend::vector_local`] when reconfiguration moves a
    /// point, so predicates keep matching it at its new home.
    fn label_local(&self, local_id: u32) -> u32;
}

/// Frozen backends can be shared between replicas by reference counting:
/// one built index, N replicas pointing at it (DESIGN.md §11.1).
impl<T: ShardBackend + ?Sized> ShardBackend for Arc<T> {
    fn search_local(
        &self,
        query: &[f32],
        filter: Option<FilteredQuery>,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<(Vec<Neighbor>, ShardQueryStats), ReplicaFault> {
        (**self).search_local(query, filter, ef, k, scratch)
    }

    fn shard_len(&self) -> usize {
        (**self).shard_len()
    }

    fn resident_bytes(&self) -> usize {
        (**self).resident_bytes()
    }
}

impl<C: VectorCompressor> ShardBackend for StreamingIndex<C> {
    fn search_local(
        &self,
        query: &[f32],
        filter: Option<FilteredQuery>,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<(Vec<Neighbor>, ShardQueryStats), ReplicaFault> {
        let read = self.read(query, filter, ef, k, scratch);
        read.map(|(res, stats)| (res, stats.into()))
    }

    fn shard_len(&self) -> usize {
        self.len()
    }

    fn resident_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

impl<C: VectorCompressor + Clone + 'static> MutableShardBackend for StreamingIndex<C> {
    fn insert_local(&mut self, v: &[f32], mask: u32, scratch: &mut SearchScratch) -> u32 {
        self.insert_labeled(v, mask, scratch)
    }

    fn remove_local(&mut self, local_id: u32) -> bool {
        self.remove(local_id)
    }

    fn consolidate_local(&mut self, force: bool) -> Option<Vec<u32>> {
        self.consolidate(force).map(|r| r.survivors)
    }

    fn live_len(&self) -> usize {
        StreamingIndex::live_len(self)
    }

    fn fork_local(&self) -> Box<dyn MutableShardBackend> {
        Box::new(self.clone())
    }

    fn vector_local(&self, local_id: u32) -> &[f32] {
        self.vectors().get(local_id as usize)
    }

    fn label_local(&self, local_id: u32) -> u32 {
        self.labels().get(local_id as usize)
    }
}

impl<C: VectorCompressor> ShardBackend for InMemoryIndex<C> {
    fn search_local(
        &self,
        query: &[f32],
        filter: Option<FilteredQuery>,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<(Vec<Neighbor>, ShardQueryStats), ReplicaFault> {
        let read = self.read(query, filter, ef, k, scratch);
        read.map(|(res, stats)| (res, stats.into()))
    }

    fn shard_len(&self) -> usize {
        self.len()
    }

    fn resident_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

impl<C: VectorCompressor> ShardBackend for DiskIndex<C> {
    fn search_local(
        &self,
        query: &[f32],
        filter: Option<FilteredQuery>,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<(Vec<Neighbor>, ShardQueryStats), ReplicaFault> {
        self.read(query, filter, ef, k, scratch)
    }

    fn shard_len(&self) -> usize {
        self.len()
    }

    fn resident_bytes(&self) -> usize {
        self.resident_bytes()
    }
}

/// One replica's backend. Frozen backends are shareable (`Arc`) so N
/// replicas of a built index cost pointers, not copies — and so a test can
/// keep a clone of a [`FlakyBackend`] it installed and flip its fault
/// switches mid-run. Mutable backends are exclusively owned and forked per
/// replica.
enum ClusterHandle {
    /// A frozen backend, shareable across replicas.
    Frozen(Arc<dyn ShardBackend>),
    /// A mutable backend, exclusively owned (forked per replica).
    Mutable(Box<dyn MutableShardBackend>),
}

impl ClusterHandle {
    /// The read path every replica has.
    fn read(&self) -> &dyn ShardBackend {
        match self {
            ClusterHandle::Frozen(b) => &**b,
            ClusterHandle::Mutable(b) => &**b,
        }
    }

    /// The write path, when this replica has one.
    fn mutable(&mut self) -> Option<&mut dyn MutableShardBackend> {
        match self {
            ClusterHandle::Frozen(_) => None,
            ClusterHandle::Mutable(b) => Some(&mut **b),
        }
    }

    fn as_mutable(&self) -> Option<&dyn MutableShardBackend> {
        match self {
            ClusterHandle::Frozen(_) => None,
            ClusterHandle::Mutable(b) => Some(&**b),
        }
    }

    /// A new replica of this backend: frozen backends share, mutable
    /// backends deep-fork (bit-identical by contract).
    fn fork(&self) -> ClusterHandle {
        match self {
            ClusterHandle::Frozen(b) => ClusterHandle::Frozen(Arc::clone(b)),
            ClusterHandle::Mutable(b) => ClusterHandle::Mutable(b.fork_local()),
        }
    }
}

/// One replica: a backend plus the runtime state the cluster view keeps
/// per replica — a virtual device timeline, the completions outstanding on
/// it, and an enable switch (drained replicas stay resident but take no
/// traffic). The plain [`ShardedIndex`] reads never touch that state, and
/// none of it counts toward [`ShardedIndex::resident_bytes`].
pub struct Replica {
    handle: ClusterHandle,
    clock: VirtualClock,
    /// Virtual completion times of requests this replica is serving.
    outstanding: Mutex<Vec<f64>>,
    enabled: AtomicBool,
}

impl Replica {
    fn new(handle: ClusterHandle) -> Self {
        Self {
            handle,
            clock: VirtualClock::default(),
            outstanding: Mutex::new(Vec::new()),
            enabled: AtomicBool::new(true),
        }
    }

    /// A replica over a shared frozen backend.
    pub fn frozen(backend: Arc<dyn ShardBackend>) -> Self {
        Self::new(ClusterHandle::Frozen(backend))
    }

    /// A replica over an exclusively-owned mutable backend.
    pub fn mutable(backend: Box<dyn MutableShardBackend>) -> Self {
        Self::new(ClusterHandle::Mutable(backend))
    }

    /// Takes the replica in or out of rotation (resident either way).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }
}

/// N ≥ 1 bit-identical replicas of one shard. Frozen replicas `Arc`-share
/// one backend; mutable replicas are forks kept identical by state-machine
/// replication — every write applies to every replica in the same order.
pub struct ReplicaSet {
    replicas: Vec<Replica>,
    /// Round-robin cursor (advances only when that policy runs).
    rr: AtomicUsize,
}

impl ReplicaSet {
    /// Wraps replicas; they must exist and agree on shard length.
    pub fn new(replicas: Vec<Replica>) -> Self {
        assert!(!replicas.is_empty(), "a replica set needs >= 1 replica");
        let len = replicas[0].handle.read().shard_len();
        for r in &replicas {
            assert_eq!(
                r.handle.read().shard_len(),
                len,
                "replicas diverged in length"
            );
        }
        Self {
            replicas,
            rr: AtomicUsize::new(0),
        }
    }

    /// Replication factor.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Vectors per replica (tombstones included).
    pub fn shard_len(&self) -> usize {
        self.replicas[0].handle.read().shard_len()
    }

    /// The replicas, for enable switches and inspection.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// Grows or shrinks to `n` replicas: new ones fork replica 0, excess
    /// ones drop from the tail. Panics on `n == 0`.
    fn set_replicas(&mut self, n: usize) {
        assert!(n >= 1, "a shard cannot have zero replicas");
        self.replicas.truncate(n);
        while self.replicas.len() < n {
            let fork = self.replicas[0].handle.fork();
            self.replicas.push(Replica::new(fork));
        }
    }

    /// Replica 0's write face (`None` for a frozen shard) — what reads of
    /// replicated state (`live_len`, stored vectors, masks) go through,
    /// since replicas are bit-identical.
    fn primary(&self) -> Option<&dyn MutableShardBackend> {
        self.replicas[0].handle.as_mutable()
    }

    /// State-machine replication: applies one write to **every** replica;
    /// all must agree on its outcome. Panics on a frozen shard.
    fn replicate<R: PartialEq + std::fmt::Debug>(
        &mut self,
        mut write: impl FnMut(&mut dyn MutableShardBackend) -> R,
    ) -> R {
        let mut outcomes = self.replicas.iter_mut().map(|replica| {
            write(
                replica
                    .handle
                    .mutable()
                    .expect("write routed to a frozen shard; build with build_streaming"),
            )
        });
        let first = outcomes.next().expect("replica set is never empty");
        for other in outcomes {
            assert_eq!(other, first, "replicas diverged on a write");
        }
        first
    }
}

/// One slot of the partition table: a replica set plus the positional
/// local→global id map shared by all its replicas (local id `i` is
/// `global_ids[i]`, tombstoned slots included).
pub struct ClusterGroup {
    set: ReplicaSet,
    global_ids: Vec<u32>,
}

impl ClusterGroup {
    /// Wraps a replica set with its id map.
    pub fn new(set: ReplicaSet, global_ids: Vec<u32>) -> Self {
        assert_eq!(
            set.shard_len(),
            global_ids.len(),
            "id map must cover the shard"
        );
        Self { set, global_ids }
    }

    /// The replica set (enable switches etc.).
    pub fn replica_set(&self) -> &ReplicaSet {
        &self.set
    }

    /// Global ids resident in this slot (tombstones included).
    pub fn global_ids(&self) -> &[u32] {
        &self.global_ids
    }

    /// The per-slot read both views share: one replica answers, ids come
    /// back global.
    fn search(
        &self,
        replica: usize,
        query: &[f32],
        filter: Option<FilteredQuery>,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<(Vec<Neighbor>, ShardQueryStats), ReplicaFault> {
        let backend = self.set.replicas[replica].handle.read();
        let (mut res, stats) = backend.search_local(query, filter, ef, k, scratch)?;
        for n in &mut res {
            n.id = self.global_ids[n.id as usize];
        }
        Ok((res, stats))
    }

    /// Inserts `v` as global id `g` on every replica.
    fn insert(&mut self, g: u32, v: &[f32], mask: u32, scratch: &mut SearchScratch) {
        let local = self.set.replicate(|b| b.insert_local(v, mask, scratch));
        assert_eq!(
            local as usize,
            self.global_ids.len(),
            "mutable backend broke positional id alignment"
        );
        self.global_ids.push(g);
    }

    /// Consolidates every replica (threshold-gated unless `force`) and
    /// remaps the id map through the survivor list. Returns reclaimed
    /// points; 0 for a frozen slot or when no pass ran.
    fn consolidate(&mut self, force: bool) -> usize {
        if self.set.primary().is_none() {
            return 0;
        }
        let Some(survivors) = self.set.replicate(|b| b.consolidate_local(force)) else {
            return 0;
        };
        let reclaimed = self.global_ids.len() - survivors.len();
        self.global_ids = survivors
            .iter()
            .map(|&old| self.global_ids[old as usize])
            .collect();
        reclaimed
    }
}

/// Round-robin assignment of `n` global ids to `n_shards` partitions —
/// deterministic, balanced to within one vector, and cluster-agnostic (a
/// hash-partition stand-in that keeps tests seedable).
pub fn partition_round_robin(n: usize, n_shards: usize) -> Vec<Vec<u32>> {
    let n_shards = n_shards.max(1);
    let mut parts = vec![Vec::with_capacity(n.div_ceil(n_shards)); n_shards];
    for i in 0..n {
        parts[i % n_shards].push(i as u32);
    }
    parts
}

/// The partition step every builder shares: round-robin ids, the matching
/// vector subset, and — when the corpus is labeled — the label subset
/// under the same positional discipline. Rejects empty partitions here, at
/// the misuse site, instead of deep inside a graph constructor.
fn partition_parts<'a>(
    data: &'a Dataset,
    labels: Option<&'a Labels>,
    n_shards: usize,
) -> impl Iterator<Item = (Vec<u32>, Dataset, Option<Labels>)> + 'a {
    assert!(
        n_shards >= 1 && n_shards <= data.len(),
        "cannot split {} vectors into {n_shards} non-empty shards",
        data.len()
    );
    if let Some(labels) = labels {
        assert_eq!(labels.len(), data.len(), "labels/dataset size mismatch");
    }
    partition_round_robin(data.len(), n_shards)
        .into_iter()
        .map(move |ids| {
            let local: Vec<usize> = ids.iter().map(|&g| g as usize).collect();
            (ids, data.subset(&local), labels.map(|l| l.subset(&local)))
        })
}

/// A fresh single-replica slot.
fn slot(replica: Replica, global_ids: Vec<u32>) -> ClusterGroup {
    ClusterGroup::new(ReplicaSet::new(vec![replica]), global_ids)
}

/// Merges per-shard top-k lists (already in global ids, each sorted or
/// not) into the global top-`k`. Over a disjoint partition this equals the
/// top-`k` of the union — the shard-merge invariant the serving tests pin.
pub fn merge_top_k(partials: &[Vec<Neighbor>], k: usize) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = partials.iter().flatten().copied().collect();
    all.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
    all.truncate(k);
    all
}

/// A dataset partitioned across independent single-machine indexes.
///
/// This is the serving stack's one partition table: every slot is a
/// replica set of ≥ 1 bit-identical backends plus its local→global id
/// map, and everything that depends on the partition — the disjointness
/// check, write routing, remove-by-global-id, consolidate-and-remap,
/// fan-out + merge — lives here once. Reads through this type are the
/// plain view (replica 0, no failover, no runtime state); [`ClusterIndex`]
/// wraps the same table with a balance policy and virtual-time accounting.
///
/// Build one with [`ShardedIndex::build_in_memory`] /
/// [`ShardedIndex::build_on_disk`] / [`ShardedIndex::build_streaming`]
/// (round-robin partition, shared compressor, one graph per shard) or
/// assemble arbitrary backends with [`ShardedIndex::from_groups`]. Query it
/// directly with [`ShardedIndex::search`], or concurrently through a
/// [`ServeEngine`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use rpq_anns::serve::{ServeConfig, ServeEngine, ShardedIndex};
/// use rpq_data::synth::{SynthConfig, ValueTransform};
/// use rpq_graph::HnswConfig;
/// use rpq_quant::{PqConfig, ProductQuantizer};
///
/// let data = SynthConfig {
///     dim: 8,
///     intrinsic_dim: 4,
///     clusters: 2,
///     cluster_std: 0.5,
///     noise_std: 0.05,
///     transform: ValueTransform::Identity,
/// }
/// .generate(130, 3);
/// let (base, queries) = data.split_at(120);
/// // One compressor shared by all shards keeps ADC distances
/// // shard-invariant, which is what makes the cross-shard merge exact.
/// let pq = ProductQuantizer::train(
///     &PqConfig { m: 4, k: 16, ..Default::default() },
///     &base,
/// );
/// let index = Arc::new(ShardedIndex::build_in_memory(&pq, &base, 2, |part| {
///     HnswConfig { m: 8, ef_construction: 32, seed: 0 }.build(part)
/// }));
/// assert_eq!(index.len(), 120);
///
/// let engine = ServeEngine::new(Arc::clone(&index), ServeConfig::default());
/// let (results, report) = engine.serve_batch(&queries, 32, 5);
/// assert_eq!(results.len(), queries.len());
/// assert!(report.qps > 0.0);
/// assert!(report.latency.p50_us <= report.latency.p99_us);
/// ```
pub struct ShardedIndex {
    groups: Vec<ClusterGroup>,
    dim: usize,
    /// Next global id to hand out on insert. Global ids are never reused —
    /// a consolidated-away id stays dead forever, so callers can cache ids
    /// across consolidations.
    next_global: u32,
}

impl ShardedIndex {
    /// Assembles a partition table from prepared slots. Panics if their
    /// global ids overlap.
    pub fn from_groups(groups: Vec<ClusterGroup>, dim: usize) -> Self {
        let total = groups.iter().map(|g| g.global_ids.len()).sum();
        let mut seen = std::collections::HashSet::with_capacity(total);
        let mut next_global = 0u32;
        for group in &groups {
            for &g in &group.global_ids {
                assert!(seen.insert(g), "global id {g} appears in two shards");
                next_global = next_global.max(g + 1);
            }
        }
        Self {
            groups,
            dim,
            next_global,
        }
    }

    /// Partitions `data` round-robin into `n_shards` in-memory shards.
    /// Every shard gets a clone of the same trained `compressor` (so ADC
    /// distances are shard-invariant) and its own proximity graph from
    /// `build_graph`. Panics if `n_shards` exceeds the dataset size (an
    /// empty shard cannot carry a graph).
    pub fn build_in_memory<C>(
        compressor: &C,
        data: &Dataset,
        n_shards: usize,
        build_graph: impl Fn(&Dataset) -> ProximityGraph,
    ) -> Self
    where
        C: VectorCompressor + Clone + 'static,
    {
        Self::in_memory(compressor, data, None, n_shards, build_graph)
    }

    /// [`ShardedIndex::build_in_memory`] with per-vector labels: each shard
    /// gets the label subset matching its partition (the same positional
    /// discipline as the vectors), enabling
    /// [`ShardedIndex::search_filtered`].
    pub fn build_in_memory_labeled<C>(
        compressor: &C,
        data: &Dataset,
        labels: &Labels,
        n_shards: usize,
        build_graph: impl Fn(&Dataset) -> ProximityGraph,
    ) -> Self
    where
        C: VectorCompressor + Clone + 'static,
    {
        Self::in_memory(compressor, data, Some(labels), n_shards, build_graph)
    }

    fn in_memory<C>(
        compressor: &C,
        data: &Dataset,
        labels: Option<&Labels>,
        n_shards: usize,
        build_graph: impl Fn(&Dataset) -> ProximityGraph,
    ) -> Self
    where
        C: VectorCompressor + Clone + 'static,
    {
        let groups = partition_parts(data, labels, n_shards)
            .map(|(ids, part, labels)| {
                let graph = build_graph(&part);
                let mut index = InMemoryIndex::build(compressor.clone(), &part, graph);
                if let Some(labels) = labels {
                    index = index.with_labels(labels);
                }
                slot(Replica::frozen(Arc::new(index)), ids)
            })
            .collect();
        Self::from_groups(groups, data.dim())
    }

    /// Partitions `data` round-robin into `n_shards` hybrid (disk) shards,
    /// each carrying its partition's subset of `labels` (in RAM, next to
    /// the codes) when given. Each shard's store file is `cfg.path` with
    /// `.shard<i>` appended. Panics if `n_shards` exceeds the dataset
    /// size.
    pub fn build_on_disk<C>(
        compressor: &C,
        data: &Dataset,
        labels: Option<&Labels>,
        n_shards: usize,
        cfg: &DiskIndexConfig,
        build_graph: impl Fn(&Dataset) -> ProximityGraph,
    ) -> io::Result<Self>
    where
        C: VectorCompressor + Clone + 'static,
    {
        let groups = partition_parts(data, labels, n_shards)
            .enumerate()
            .map(|(i, (ids, part, labels))| {
                let graph = build_graph(&part);
                let mut shard_cfg = cfg.clone();
                let mut os = shard_cfg.path.into_os_string();
                os.push(format!(".shard{i}"));
                shard_cfg.path = os.into();
                let mut index = DiskIndex::build(compressor.clone(), &part, &graph, shard_cfg)?;
                if let Some(labels) = labels {
                    index.set_labels(labels);
                }
                Ok(slot(Replica::frozen(Arc::new(index)), ids))
            })
            .collect::<io::Result<_>>()?;
        Ok(Self::from_groups(groups, data.dim()))
    }

    /// Partitions `data` round-robin into `n_shards` *mutable* streaming
    /// shards (DESIGN.md §8.4): each shard is a [`StreamingIndex`] over its
    /// partition (and its subset of `labels`, when given), sharing the one
    /// trained `compressor`, so the §7.3 exact-merge contract holds under
    /// churn exactly as it does frozen — tombstones are excluded from every
    /// shard's top-k before the merge. Inserts and deletes route through
    /// [`ShardedIndex::insert`] / [`ShardedIndex::remove`]; streamed
    /// inserts carry their mask through [`ShardedIndex::insert_labeled`]
    /// and consolidation compacts each shard's labels in lock-step.
    pub fn build_streaming<C>(
        compressor: &C,
        data: &Dataset,
        labels: Option<&Labels>,
        n_shards: usize,
        cfg: StreamingConfig,
    ) -> Self
    where
        C: VectorCompressor + Clone + 'static,
    {
        let groups = partition_parts(data, labels, n_shards)
            .map(|(ids, part, labels)| {
                let index = match labels {
                    Some(labels) => {
                        StreamingIndex::build_labeled(compressor.clone(), &part, labels, cfg)
                    }
                    None => StreamingIndex::build(compressor.clone(), &part, cfg),
                };
                slot(Replica::mutable(Box::new(index)), ids)
            })
            .collect();
        Self::from_groups(groups, data.dim())
    }

    /// Sets every slot's replication factor: new replicas fork replica 0
    /// (frozen backends `Arc`-share, mutable ones deep-copy), excess ones
    /// drop from the tail. Replication changes who *can* answer, never the
    /// answer.
    pub fn set_replicas(&mut self, n: usize) {
        for group in &mut self.groups {
            group.set.set_replicas(n);
        }
    }

    /// [`ShardedIndex::set_replicas`], by value — for builder chains.
    pub fn with_replicas(mut self, n: usize) -> Self {
        self.set_replicas(n);
        self
    }

    /// The shard the round-robin rule assigns global id `g` to — the rule
    /// [`partition_round_robin`] applied at build time, inserts continue,
    /// and live reconfiguration restores.
    fn home(&self, g: u32) -> usize {
        g as usize % self.groups.len()
    }

    /// Inserts one vector, routing by round-robin on the fresh global id
    /// and applying it to every replica of the target shard. Returns the
    /// global id. Panics if the chosen shard is not mutable.
    pub fn insert(&mut self, v: &[f32], scratch: &mut SearchScratch) -> u32 {
        self.insert_labeled(v, 0, scratch)
    }

    /// [`ShardedIndex::insert`] with a label bitmask (mask 0 = unlabeled,
    /// matches no predicate).
    pub fn insert_labeled(&mut self, v: &[f32], mask: u32, scratch: &mut SearchScratch) -> u32 {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let g = self.next_global;
        self.next_global += 1;
        let home = self.home(g);
        self.groups[home].insert(g, v, mask, scratch);
        g
    }

    /// Tombstones a global id on every replica of its shard. Returns
    /// `false` when the id is unknown (or already consolidated away),
    /// already tombstoned, or lives in a frozen shard.
    pub fn remove(&mut self, global_id: u32) -> bool {
        for group in &mut self.groups {
            // Linear scan, not binary search: live reconfiguration moves
            // points between shards, so id maps are not sorted after one.
            if let Some(local) = group.global_ids.iter().position(|&g| g == global_id) {
                return group.set.primary().is_some()
                    && group.set.replicate(|b| b.remove_local(local as u32));
            }
        }
        false
    }

    /// Runs a consolidation pass on every mutable shard (threshold-gated
    /// per shard unless `force`), remapping the global-id tables through
    /// each shard's survivor list. Returns the total number of reclaimed
    /// points.
    pub fn consolidate(&mut self, force: bool) -> usize {
        self.groups.iter_mut().map(|g| g.consolidate(force)).sum()
    }

    /// Points that are resident and not tombstoned, across all shards
    /// (frozen shards are all-live by definition).
    pub fn live_len(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.set.primary().map_or(g.global_ids.len(), |b| b.live_len()))
            .sum()
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.groups.len()
    }

    /// The shard slots, for replica switches and inspection.
    pub fn groups(&self) -> &[ClusterGroup] {
        &self.groups
    }

    /// Total resident vectors (tombstones included) across shards, counting
    /// each point once regardless of replication.
    pub fn len(&self) -> usize {
        self.groups.iter().map(|g| g.global_ids.len()).sum()
    }

    /// True when no shard indexes anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Query dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Largest shard size — what serving workers size their scratch to.
    pub fn max_shard_len(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.global_ids.len())
            .max()
            .unwrap_or(0)
    }

    /// Total RAM held across shards: one id map per shard plus every
    /// replica's backend (replica runtime state is not index memory).
    pub fn resident_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| {
                g.global_ids.len() * std::mem::size_of::<u32>()
                    + g.set
                        .replicas
                        .iter()
                        .map(|r| r.handle.read().resident_bytes())
                        .sum::<usize>()
            })
            .sum()
    }

    /// The fan-out both views share: `read` answers one slot (ids already
    /// global), the partials merge exactly (§7.3). A slot with no points —
    /// a freshly-joined shard before rebalance lands any — is skipped:
    /// nothing to search, nothing to reserve.
    fn fan_out<E>(
        &self,
        k: usize,
        mut read: impl FnMut(&ClusterGroup) -> Result<(Vec<Neighbor>, ShardQueryStats), E>,
    ) -> Result<(Vec<Neighbor>, ShardQueryStats), E> {
        let mut partials = Vec::with_capacity(self.groups.len());
        let mut total = ShardQueryStats::default();
        for group in self.groups.iter().filter(|g| !g.global_ids.is_empty()) {
            let (part, stats) = read(group)?;
            total.merge(&stats);
            partials.push(part);
        }
        Ok((merge_top_k(&partials, k), total))
    }

    /// The plain read of one shard (replica 0, no runtime state); returned
    /// ids are global. What [`ServeEngine`]'s workers run, so a fault
    /// travels back to the caller as a value.
    fn read_shard(
        &self,
        shard: usize,
        query: &[f32],
        filter: Option<FilteredQuery>,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<(Vec<Neighbor>, ShardQueryStats), ReplicaFault> {
        self.groups[shard].search(0, query, filter, ef, k, scratch)
    }

    /// Searches one shard; returned ids are global.
    pub fn search_shard(
        &self,
        shard: usize,
        query: &[f32],
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> (Vec<Neighbor>, ShardQueryStats) {
        self.read_shard(shard, query, None, ef, k, scratch)
            .unwrap_or_else(|fault| panic!("shard {shard}: {fault}"))
    }

    /// Sequential fan-out + merge on the calling thread, with no failover:
    /// a faulting shard panics.
    fn read(
        &self,
        query: &[f32],
        filter: Option<FilteredQuery>,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> (Vec<Neighbor>, ShardQueryStats) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        self.fan_out(k, |group| group.search(0, query, filter, ef, k, scratch))
            .unwrap_or_else(|fault| panic!("sharded search: {fault}"))
    }

    /// Fans one query out to every shard **sequentially** on the calling
    /// thread and merges: the reference implementation the concurrent
    /// [`ServeEngine`] must agree with.
    pub fn search(
        &self,
        query: &[f32],
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> (Vec<Neighbor>, ShardQueryStats) {
        self.read(query, None, ef, k, scratch)
    }

    /// Filtered fan-out + merge, sequential on the calling thread — the
    /// reference the concurrent filtered paths must agree with. The §7.3
    /// exact-merge argument carries over per predicate: the matching set is
    /// partitioned exactly like the base set, so merging per-shard filtered
    /// top-k lists at exhaustive `ef` equals the single-index filtered
    /// top-k. Panics when a shard carries no labels.
    pub fn search_filtered(
        &self,
        query: &[f32],
        pred: LabelPredicate,
        strategy: FilterStrategy,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> (Vec<Neighbor>, ShardQueryStats) {
        self.read(
            query,
            Some(FilteredQuery { pred, strategy }),
            ef,
            k,
            scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_store::TestStore;
    use rpq_data::brute_force_knn;
    use rpq_data::synth::{SynthConfig, ValueTransform};
    use rpq_graph::HnswConfig;
    use rpq_quant::{PqConfig, ProductQuantizer};

    fn setup(n: usize, seed: u64) -> (Dataset, Dataset) {
        let data = SynthConfig {
            dim: 8,
            intrinsic_dim: 4,
            clusters: 4,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        }
        .generate(n + 10, seed);
        data.split_at(n)
    }

    fn graph_builder(part: &Dataset) -> ProximityGraph {
        HnswConfig {
            m: 8,
            ef_construction: 40,
            seed: 7,
        }
        .build(part)
    }

    #[test]
    fn round_robin_partition_is_disjoint_and_complete() {
        for n_shards in [1, 2, 3, 5] {
            let parts = partition_round_robin(103, n_shards);
            assert_eq!(parts.len(), n_shards);
            let mut all: Vec<u32> = parts.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..103).collect::<Vec<u32>>(), "{n_shards} shards");
            let (min, max) = parts.iter().fold((usize::MAX, 0), |(lo, hi), p| {
                (lo.min(p.len()), hi.max(p.len()))
            });
            assert!(max - min <= 1, "unbalanced: {min}..{max}");
        }
    }

    #[test]
    fn merge_equals_global_sort_of_union() {
        let partials = vec![
            vec![Neighbor { id: 3, dist: 0.5 }, Neighbor { id: 9, dist: 1.5 }],
            vec![Neighbor { id: 4, dist: 0.2 }, Neighbor { id: 1, dist: 0.5 }],
            vec![],
        ];
        let merged = merge_top_k(&partials, 3);
        let ids: Vec<u32> = merged.iter().map(|n| n.id).collect();
        // 0.2 first; the two 0.5s tie-break by id.
        assert_eq!(ids, vec![4, 1, 3]);
    }

    #[test]
    fn sharded_exhaustive_search_matches_single_index() {
        let (base, queries) = setup(240, 11);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let single = InMemoryIndex::build(pq.clone(), &base, graph_builder(&base));
        let sharded = ShardedIndex::build_in_memory(&pq, &base, 3, graph_builder);
        assert_eq!(sharded.len(), base.len());
        assert_eq!(sharded.n_shards(), 3);

        // ef >= n makes beam search exhaustive on a connected graph, so
        // both sides return the exact ADC top-k and must agree id-for-id.
        let ef = base.len();
        let mut scratch = SearchScratch::new();
        for q in queries.iter() {
            let (want, _) = single.search(q, ef, 10, &mut scratch);
            let (got, stats) = sharded.search(q, ef, 10, &mut scratch);
            assert_eq!(
                got.iter().map(|n| n.id).collect::<Vec<_>>(),
                want.iter().map(|n| n.id).collect::<Vec<_>>(),
            );
            assert!(stats.hops > 0);
            assert_eq!(stats.io_reads, 0, "in-memory shards must not do I/O");
        }
    }

    #[test]
    fn disk_shards_report_io_and_find_neighbors() {
        let (base, queries) = setup(200, 12);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let store = TestStore::new("sharded");
        let cfg = DiskIndexConfig::new(store.path());
        let sharded =
            ShardedIndex::build_on_disk(&pq, &base, None, 2, &cfg, graph_builder).unwrap();
        let gt = brute_force_knn(&base, &queries, 5);
        let mut scratch = SearchScratch::new();
        let mut results = Vec::new();
        for q in queries.iter() {
            let (res, stats) = sharded.search(q, 60, 5, &mut scratch);
            assert!(stats.io_reads > 0, "disk shards must hit the store");
            assert!(stats.io_seconds > 0.0);
            results.push(res.iter().map(|n| n.id).collect::<Vec<_>>());
        }
        assert!(gt.recall(&results) > 0.7);
    }

    #[test]
    #[should_panic(expected = "non-empty shards")]
    fn more_shards_than_vectors_rejected_up_front() {
        let (base, _) = setup(4, 15);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 4,
                ..Default::default()
            },
            &base,
        );
        let _ = ShardedIndex::build_in_memory(&pq, &base, 5, graph_builder);
    }

    #[test]
    #[should_panic(expected = "appears in two shards")]
    fn overlapping_ids_rejected() {
        let (base, _) = setup(40, 13);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let mk = |ids: Vec<u32>| {
            let local: Vec<usize> = ids.iter().map(|&g| g as usize).collect();
            let part = base.subset(&local);
            let graph = graph_builder(&part);
            slot(
                Replica::frozen(Arc::new(InMemoryIndex::build(pq.clone(), &part, graph))),
                ids,
            )
        };
        let a = mk((0..30).collect());
        let b = mk((25..40).collect());
        let _ = ShardedIndex::from_groups(vec![a, b], base.dim());
    }

    #[test]
    fn streaming_shards_insert_remove_consolidate() {
        let (base, queries) = setup(180, 16);
        let (initial, reserve) = base.split_at(150);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let mut index = ShardedIndex::build_streaming(
            &pq,
            &initial,
            None,
            3,
            crate::stream::StreamingConfig::default(),
        );
        assert_eq!(index.len(), 150);
        assert_eq!(index.live_len(), 150);
        let mut scratch = SearchScratch::new();

        // Inserts continue the round-robin assignment and global id space.
        for (i, v) in reserve.iter().enumerate() {
            let g = index.insert(v, &mut scratch);
            assert_eq!(g as usize, 150 + i);
        }
        assert_eq!(index.len(), 180);

        // Deletes: removed globals never show up again.
        let removed: Vec<u32> = (0..180u32).step_by(5).collect();
        for &g in &removed {
            assert!(index.remove(g), "remove({g})");
            assert!(!index.remove(g), "double remove({g})");
        }
        assert_eq!(index.live_len(), 180 - removed.len());
        let check_clean = |index: &ShardedIndex, scratch: &mut SearchScratch| {
            for q in queries.iter() {
                let (res, _) = index.search(q, 180, 10, scratch);
                assert_eq!(res.len(), 10);
                for n in &res {
                    assert!(
                        !removed.contains(&n.id),
                        "tombstoned global {} returned",
                        n.id
                    );
                }
            }
        };
        check_clean(&index, &mut scratch);

        // Consolidation reclaims them everywhere and keeps ids stable.
        let reclaimed = index.consolidate(true);
        assert_eq!(reclaimed, removed.len());
        assert_eq!(index.len(), index.live_len());
        check_clean(&index, &mut scratch);
        // Globals handed out after consolidation don't collide.
        let g = index.insert(reserve.get(0), &mut scratch);
        assert_eq!(g, 180);
    }

    #[test]
    fn streaming_sharded_exhaustive_matches_single_streaming_index() {
        // The §7.3 exact-merge contract under churn: with a shared
        // compressor and exhaustive beams, the sharded live index must
        // return exactly the single index's results over the same
        // surviving points.
        let (base, queries) = setup(120, 17);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let cfg = crate::stream::StreamingConfig {
            r: 16,
            l: 40,
            ..Default::default()
        };
        let mut sharded = ShardedIndex::build_streaming(&pq, &base, None, 2, cfg);
        let mut single = crate::stream::StreamingIndex::build(pq.clone(), &base, cfg);
        let mut scratch = SearchScratch::new();
        for id in (0..120u32).step_by(7) {
            assert!(sharded.remove(id));
            assert!(single.remove(id));
        }
        sharded.consolidate(true);
        single.consolidate(true).unwrap();
        // Map the single index's post-consolidation local ids back to
        // globals: survivors keep ascending order, so local i == the i-th
        // surviving original id.
        let survivors: Vec<u32> = (0..120u32).filter(|g| g % 7 != 0).collect();
        for q in queries.iter() {
            let (got, _) = sharded.search(q, 120, 10, &mut scratch);
            let (want, _) = single.search(q, 120, 10, &mut scratch);
            assert_eq!(
                got.iter().map(|n| n.id).collect::<Vec<_>>(),
                want.iter()
                    .map(|n| survivors[n.id as usize])
                    .collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    #[should_panic(expected = "frozen shard")]
    fn insert_into_frozen_shards_panics() {
        let (base, _) = setup(60, 18);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let mut index = ShardedIndex::build_in_memory(&pq, &base, 2, graph_builder);
        let mut scratch = SearchScratch::new();
        let _ = index.insert(base.get(0), &mut scratch);
    }

    #[test]
    fn remove_on_frozen_shard_is_refused() {
        let (base, _) = setup(60, 19);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let mut index = ShardedIndex::build_in_memory(&pq, &base, 2, graph_builder);
        assert!(!index.remove(3));
        assert!(!index.remove(999), "unknown id");
        assert_eq!(index.consolidate(true), 0, "nothing mutable to reclaim");
        assert_eq!(index.live_len(), 60);
    }

    #[test]
    fn resident_bytes_cover_all_shards() {
        let (base, _) = setup(120, 14);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let sharded = ShardedIndex::build_in_memory(&pq, &base, 2, graph_builder);
        // At minimum the id maps plus per-shard codes must show up.
        assert!(sharded.resident_bytes() > base.len() * std::mem::size_of::<u32>());
        assert!(sharded.max_shard_len() == 60);
    }
}
