//! Streaming mutable index (DESIGN.md §8): the FreshDiskANN-style live
//! lifecycle over the Vamana graph + PQ compressor.
//!
//! * **insert** (§8.1) — greedy Vamana insert: beam-search the new vector,
//!   RobustPrune the expanded set into its out-neighbors, patch back-edges
//!   under the degree bound; the code store appends one code.
//! * **delete** (§8.2) — a tombstone bitmap. Search *traverses* tombstoned
//!   vertices but never returns them, so graph connectivity survives
//!   arbitrarily many deletes with zero graph edits.
//! * **consolidate** (§8.3) — once the tombstone fraction crosses a
//!   threshold, deleted vertices are reclaimed: their neighborhoods are
//!   re-linked, ids compacted, the entry re-centred, and reachability
//!   repaired capacity-aware.
//!
//! Full-precision vectors are retained (FreshDiskANN does the same): the
//! graph-patching distance computations need them, and codes alone cannot
//! re-derive them. Queries still rank purely by ADC over the compact codes,
//! so search behaviour matches the frozen in-memory scenario.

use rpq_data::{labels::MAX_VOCAB, Dataset, LabelPredicate, Labels};
use rpq_graph::{
    beam_search_filtered, DynamicGraph, Neighbor, SearchScratch, SearchStats, VamanaConfig,
    VertexFilter,
};
use rpq_quant::{CompactCodes, VectorCompressor};

use crate::filter::{self, FilterStrategy};
use crate::serve::{FilteredQuery, ReplicaFault};

/// Parameters of the streaming lifecycle.
#[derive(Clone, Copy, Debug)]
pub struct StreamingConfig {
    /// Maximum out-degree R of the live graph.
    pub r: usize,
    /// Beam width L for insert-time searches (and the initial build).
    pub l: usize,
    /// Pruning slack α.
    pub alpha: f32,
    /// Tombstone fraction above which [`StreamingIndex::consolidate`]
    /// actually runs (unless forced).
    pub reclaim_threshold: f32,
    pub seed: u64,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        Self {
            r: 32,
            l: 64,
            alpha: 1.2,
            reclaim_threshold: 0.2,
            seed: 0,
        }
    }
}

impl StreamingConfig {
    fn vamana(&self) -> VamanaConfig {
        VamanaConfig {
            r: self.r,
            l: self.l,
            alpha: self.alpha,
            seed: self.seed,
        }
    }
}

/// What a consolidation pass did.
#[derive(Clone, Debug)]
pub struct ConsolidateReport {
    /// Tombstoned vertices reclaimed (removed from the graph and stores).
    pub reclaimed: usize,
    /// Old local ids of the survivors, ascending; new local id `i` was
    /// `survivors[i]` before the pass.
    pub survivors: Vec<u32>,
}

/// A mutable PQ-integrated index over a [`DynamicGraph`].
///
/// Ids are positional and dense over everything currently resident —
/// including tombstoned points, which keep their slot (and their graph
/// vertex) until a consolidation pass compacts them away. After
/// consolidation all local ids shift; callers holding external id maps
/// remap them through [`ConsolidateReport::survivors`] (the sharded layer
/// does exactly this with its global-id maps).
///
/// # Example
///
/// ```
/// use rpq_anns::stream::{StreamingConfig, StreamingIndex};
/// use rpq_data::synth::{SynthConfig, ValueTransform};
/// use rpq_graph::SearchScratch;
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
/// .generate(140, 0);
/// let (base, rest) = data.split_at(120);
/// let pq = ProductQuantizer::train(
///     &PqConfig { m: 4, k: 16, ..Default::default() },
///     &base,
/// );
/// let mut index = StreamingIndex::build(pq, &base, StreamingConfig::default());
/// let mut scratch = SearchScratch::new();
/// let id = index.insert(rest.get(0), &mut scratch);
/// index.remove(3);
/// let (top, _) = index.search(rest.get(1), 32, 5, &mut scratch);
/// assert!(top.iter().all(|n| n.id != 3), "tombstoned point returned");
/// assert_eq!(id, 120);
/// ```
#[derive(Clone)]
pub struct StreamingIndex<C: VectorCompressor> {
    compressor: C,
    graph: DynamicGraph,
    vectors: Dataset,
    codes: CompactCodes,
    tombstones: Vec<bool>,
    /// Per-point label sets, kept in lock-step with the code store through
    /// insert and consolidation (DESIGN.md §12). Unlabeled points carry
    /// mask 0 and match no predicate.
    labels: Labels,
    live: usize,
    cfg: StreamingConfig,
}

impl<C: VectorCompressor> StreamingIndex<C> {
    /// An empty index; the corpus arrives entirely through
    /// [`StreamingIndex::insert`]. The compressor must already be trained.
    pub fn new(compressor: C, cfg: StreamingConfig) -> Self {
        // Encoding an empty dataset yields an empty code store with the
        // compressor's chunk count — the one thing the trait doesn't expose
        // directly.
        let codes = compressor.encode_dataset(&Dataset::new(compressor.dim()));
        Self {
            vectors: Dataset::new(compressor.dim()),
            codes,
            tombstones: Vec::new(),
            labels: Labels::new(MAX_VOCAB),
            live: 0,
            graph: DynamicGraph::new(),
            compressor,
            cfg,
        }
    }

    /// Batch-builds over an initial corpus (the efficient path when the
    /// starting set is known), then streams from there. The graph is the
    /// standard Vamana build plus a reachability repair, so exhaustive
    /// searches see every live point.
    pub fn build(compressor: C, data: &Dataset, cfg: StreamingConfig) -> Self {
        let labels = Labels::from_masks(MAX_VOCAB, vec![0; data.len()]);
        Self::build_labeled(compressor, data, labels, cfg)
    }

    /// [`StreamingIndex::build`] with per-point labels for filtered search
    /// (DESIGN.md §12). `labels` must cover `data` one-to-one.
    pub fn build_labeled(
        compressor: C,
        data: &Dataset,
        labels: Labels,
        cfg: StreamingConfig,
    ) -> Self {
        assert_eq!(compressor.dim(), data.dim(), "compressor dim mismatch");
        assert_eq!(labels.len(), data.len(), "labels/dataset size mismatch");
        let codes = compressor.encode_dataset(data);
        let mut graph = DynamicGraph::from_graph(&cfg.vamana().build(data));
        cfg.vamana().repair_reachability(&mut graph, data);
        Self {
            vectors: data.clone(),
            codes,
            tombstones: vec![false; data.len()],
            labels,
            live: data.len(),
            graph,
            compressor,
            cfg,
        }
    }

    /// Inserts one vector and returns its local id (always the previous
    /// [`StreamingIndex::len`]). The scratch is the same one
    /// [`StreamingIndex::search`] uses and may be sized for any epoch.
    pub fn insert(&mut self, v: &[f32], scratch: &mut SearchScratch) -> u32 {
        self.insert_labeled(v, 0, scratch)
    }

    /// [`StreamingIndex::insert`] with a label bitmask; the labels store
    /// appends in lock-step with the vectors, codes, and tombstone bitmap.
    /// Mask 0 means unlabeled (matches no predicate).
    pub fn insert_labeled(&mut self, v: &[f32], mask: u32, scratch: &mut SearchScratch) -> u32 {
        let p = self.vectors.len() as u32;
        self.vectors.push(v);
        let mut code = vec![0u8; self.codes.m()];
        self.compressor.encode_one(v, &mut code);
        self.codes.push(&code);
        self.tombstones.push(false);
        self.labels.push(mask);
        self.cfg
            .vamana()
            .insert_point(&mut self.graph, &self.vectors, p, scratch);
        self.live += 1;
        p
    }

    /// Tombstones a point: O(1), no graph edits. Returns `false` when the
    /// id is out of range or already tombstoned. The point stops appearing
    /// in results immediately but keeps carrying search traffic until a
    /// consolidation pass reclaims it (DESIGN.md §8.2).
    pub fn remove(&mut self, id: u32) -> bool {
        match self.tombstones.get_mut(id as usize) {
            Some(slot) if !*slot => {
                *slot = true;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// ADC beam search over the live points: tombstoned vertices are
    /// traversed but filtered from the results, so every returned id is
    /// live. Ids are local.
    pub fn search(
        &self,
        query: &[f32],
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> (Vec<Neighbor>, SearchStats) {
        filter::answer(self.read(query, None, ef, k, scratch))
    }

    /// Beam search restricted to live points satisfying `pred`
    /// (DESIGN.md §12). The tombstone filter always composes in — a
    /// returned id is live *and* matching regardless of `strategy`.
    pub fn search_filtered(
        &self,
        query: &[f32],
        pred: LabelPredicate,
        strategy: FilterStrategy,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> (Vec<Neighbor>, SearchStats) {
        let filter = Some(FilteredQuery { pred, strategy });
        filter::answer(self.read(query, filter, ef, k, scratch))
    }

    /// The index's one read path ([`filter::read`]), under the tombstone
    /// filter. Never faults: a streaming index always carries a label store
    /// (all-zero masks unless built or fed labeled points).
    pub(crate) fn read(
        &self,
        query: &[f32],
        filter: Option<FilteredQuery>,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<(Vec<Neighbor>, SearchStats), ReplicaFault> {
        let base = VertexFilter::tombstones(&self.tombstones);
        filter::read(Some(&self.labels), base, filter, ef, k, |vf, ef, k| {
            let est = self.compressor.estimator(&self.codes, query);
            beam_search_filtered(&self.graph, &est, ef, k, scratch, vf)
        })
    }

    /// Reclaims tombstones if their fraction has reached
    /// `cfg.reclaim_threshold` (or unconditionally with `force`), returning
    /// what happened — `None` means the pass didn't run (below threshold,
    /// or nothing to reclaim). Afterwards local ids are compacted dense
    /// over the survivors; see [`ConsolidateReport::survivors`] for the
    /// remap.
    pub fn consolidate(&mut self, force: bool) -> Option<ConsolidateReport> {
        let dead = self.len() - self.live;
        if dead == 0 || (!force && self.tombstone_fraction() < self.cfg.reclaim_threshold) {
            return None;
        }
        let survivors =
            self.cfg
                .vamana()
                .consolidate(&mut self.graph, &self.vectors, &self.tombstones);
        let idx: Vec<usize> = survivors.iter().map(|&v| v as usize).collect();
        self.vectors = self.vectors.subset(&idx);
        self.codes = self.codes.compact(&survivors);
        self.labels = self.labels.compact(&survivors);
        self.tombstones = vec![false; survivors.len()];
        debug_assert_eq!(self.live, survivors.len());
        Some(ConsolidateReport {
            reclaimed: dead,
            survivors,
        })
    }

    /// Resident points, including tombstoned ones (the local id space).
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Points that are resident and not tombstoned.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Fraction of resident points that are tombstoned.
    pub fn tombstone_fraction(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            (self.len() - self.live) as f32 / self.len() as f32
        }
    }

    /// Whether `id` is currently tombstoned.
    pub fn is_tombstoned(&self, id: u32) -> bool {
        self.tombstones.get(id as usize).copied().unwrap_or(false)
    }

    /// The live graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The compact codes (one per resident point, tombstoned included).
    pub fn codes(&self) -> &CompactCodes {
        &self.codes
    }

    /// The retained full-precision vectors.
    pub fn vectors(&self) -> &Dataset {
        &self.vectors
    }

    /// The per-point label sets (mask 0 for unlabeled points).
    pub fn labels(&self) -> &Labels {
        &self.labels
    }

    /// The compressor.
    pub fn compressor(&self) -> &C {
        &self.compressor
    }

    /// The lifecycle parameters.
    pub fn config(&self) -> &StreamingConfig {
        &self.cfg
    }

    /// Resident bytes: graph + codes + model + retained vectors + bitmap.
    /// The vectors dominate — the price of mutability (DESIGN.md §8).
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
            + self.codes.memory_bytes()
            + self.compressor.model_bytes()
            + self.vectors.memory_bytes()
            + self.labels.memory_bytes()
            + self.tombstones.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_data::brute_force_knn;
    use rpq_data::synth::{SynthConfig, ValueTransform};
    use rpq_graph::GraphView;
    use rpq_quant::{PqConfig, ProductQuantizer};

    fn toy(n: usize, seed: u64) -> Dataset {
        SynthConfig {
            dim: 16,
            intrinsic_dim: 6,
            clusters: 6,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        }
        .generate(n, seed)
    }

    fn pq_for(data: &Dataset, seed: u64) -> ProductQuantizer {
        ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 32,
                seed,
                ..Default::default()
            },
            data,
        )
    }

    #[test]
    fn grows_from_empty() {
        let data = toy(150, 1);
        let pq = pq_for(&data, 1);
        let mut index = StreamingIndex::new(pq, StreamingConfig::default());
        assert!(index.is_empty());
        let mut scratch = SearchScratch::new();
        for i in 0..data.len() {
            assert_eq!(index.insert(data.get(i), &mut scratch), i as u32);
        }
        assert_eq!(index.len(), 150);
        assert_eq!(index.live_len(), 150);
        let (res, stats) = index.search(data.get(7), 40, 5, &mut scratch);
        assert_eq!(res.len(), 5);
        assert!(stats.hops > 0);
    }

    #[test]
    fn tombstoned_points_never_returned() {
        let data = toy(200, 2);
        let pq = pq_for(&data, 2);
        let mut index = StreamingIndex::build(pq, &data, StreamingConfig::default());
        let mut scratch = SearchScratch::new();
        for id in (0..200u32).step_by(3) {
            assert!(index.remove(id));
            assert!(!index.remove(id), "double remove must be a no-op");
        }
        assert_eq!(index.live_len(), 200 - 67);
        // Exhaustive beam: every live point is reachable, every tombstone
        // filtered.
        for qi in [0usize, 50, 199] {
            let (res, _) = index.search(data.get(qi), 200, 10, &mut scratch);
            assert_eq!(res.len(), 10);
            assert!(res.iter().all(|n| !index.is_tombstoned(n.id)));
        }
    }

    #[test]
    fn consolidate_respects_threshold_and_compacts() {
        let data = toy(160, 3);
        let pq = pq_for(&data, 3);
        let cfg = StreamingConfig {
            reclaim_threshold: 0.25,
            ..Default::default()
        };
        let mut index = StreamingIndex::build(pq, &data, cfg);
        for id in 0..20u32 {
            index.remove(id);
        }
        // 20/160 = 12.5% < 25%: below threshold, nothing happens.
        assert!(index.consolidate(false).is_none());
        assert_eq!(index.len(), 160);
        // Forced: reclaims regardless.
        let report = index.consolidate(true).expect("forced pass must run");
        assert_eq!(report.reclaimed, 20);
        assert_eq!(report.survivors, (20..160).collect::<Vec<u32>>());
        assert_eq!(index.len(), 140);
        assert_eq!(index.live_len(), 140);
        assert_eq!(index.tombstone_fraction(), 0.0);
        assert_eq!(index.graph().reachable_from_entry(), 140);
        // Nothing left to reclaim.
        assert!(index.consolidate(true).is_none());
    }

    #[test]
    fn recall_survives_churn_with_consolidation() {
        let data = toy(300, 4);
        let (base, reserve) = data.split_at(220);
        let pq = pq_for(&data, 4);
        let mut index = StreamingIndex::build(pq, &base, StreamingConfig::default());
        let mut scratch = SearchScratch::new();
        // Delete every 4th original point, insert the reserve.
        for id in (0..220u32).step_by(4) {
            index.remove(id);
        }
        for v in reserve.iter() {
            index.insert(v, &mut scratch);
        }
        index.consolidate(true).expect("55/300 > default threshold");
        assert_eq!(index.live_len(), index.len());

        // Ground truth over exactly the surviving vectors.
        let live = index.vectors().clone();
        let queries = live.subset(&[3usize, 77, 150, 201]);
        let gt = brute_force_knn(&live, &queries, 5);
        let mut results = Vec::new();
        for q in queries.iter() {
            let (res, _) = index.search(q, 80, 5, &mut scratch);
            results.push(res.iter().map(|n| n.id).collect::<Vec<_>>());
        }
        let recall = gt.recall(&results);
        // ADC-only ranking: same floor the frozen in-memory tests use.
        assert!(recall > 0.6, "post-churn recall too low: {recall}");
    }

    #[test]
    fn labels_stay_in_lock_step_through_churn_and_consolidation() {
        let data = toy(200, 6);
        let (base, reserve) = data.split_at(150);
        let pq = pq_for(&data, 6);
        // Even local ids label 0, odd label 1.
        let base_labels = Labels::from_masks(2, (0..base.len()).map(|i| 1 << (i % 2)).collect());
        let mut index =
            StreamingIndex::build_labeled(pq, &base, base_labels, StreamingConfig::default());
        let mut scratch = SearchScratch::new();
        // Remove a swath, insert the reserve alternating labels, reclaim.
        for id in (0..150u32).step_by(3) {
            index.remove(id);
        }
        for (i, v) in reserve.iter().enumerate() {
            index.insert_labeled(v, 1 << (i % 2), &mut scratch);
        }
        index.consolidate(true).expect("over threshold");
        assert_eq!(
            index.labels().len(),
            index.len(),
            "labels must track the compacted id space"
        );
        // Every filtered result is live and matches, for both predicates
        // and both strategies.
        for label in [0usize, 1] {
            let pred = LabelPredicate::single(label);
            for strategy in [
                FilterStrategy::DuringTraversal,
                FilterStrategy::PostFilter { inflation: 4 },
            ] {
                let (res, _) =
                    index.search_filtered(data.get(10), pred, strategy, 60, 10, &mut scratch);
                assert!(!res.is_empty());
                for n in &res {
                    assert!(!index.is_tombstoned(n.id));
                    assert!(
                        index.labels().matches(n.id as usize, pred),
                        "{strategy:?} returned id {} without label {label}",
                        n.id
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_fully_tombstoned_searches() {
        let data = toy(30, 5);
        let pq = pq_for(&data, 5);
        let mut index = StreamingIndex::new(pq, StreamingConfig::default());
        let mut scratch = SearchScratch::new();
        let (res, _) = index.search(data.get(0), 10, 3, &mut scratch);
        assert!(res.is_empty(), "empty index must return nothing");
        for i in 0..5 {
            index.insert(data.get(i), &mut scratch);
        }
        for id in 0..5u32 {
            index.remove(id);
        }
        let (res, _) = index.search(data.get(0), 10, 3, &mut scratch);
        assert!(res.is_empty(), "all-tombstoned index must return nothing");
        // Reclaim everything, then keep living.
        let report = index.consolidate(true).unwrap();
        assert_eq!(report.reclaimed, 5);
        assert!(index.is_empty());
        let id = index.insert(data.get(9), &mut scratch);
        assert_eq!(id, 0);
        let (res, _) = index.search(data.get(9), 10, 1, &mut scratch);
        assert_eq!(res[0].id, 0);
    }
}
