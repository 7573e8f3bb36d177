//! The in-memory scenario (paper §7): graph + compact codes + codebook in
//! RAM, original vectors discarded, routing and result ranking both driven
//! purely by ADC distances.

use rpq_data::{Dataset, LabelPredicate, Labels};
use rpq_graph::{
    beam_search_filtered, Neighbor, ProximityGraph, SearchScratch, SearchStats, VertexFilter,
};
use rpq_quant::{CompactCodes, VectorCompressor};

use crate::filter::{self, FilterStrategy};
use crate::serve::{FilteredQuery, ReplicaFault};

/// An in-memory PQ-integrated index over a proximity graph.
///
/// # Example
///
/// ```
/// use rpq_anns::InMemoryIndex;
/// use rpq_data::synth::{SynthConfig, ValueTransform};
/// use rpq_graph::{HnswConfig, SearchScratch};
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
/// .generate(120, 0);
/// let (base, queries) = data.split_at(100);
/// let graph = HnswConfig { m: 8, ef_construction: 32, seed: 0 }.build(&base);
/// let pq = ProductQuantizer::train(
///     &PqConfig { m: 4, k: 16, ..Default::default() },
///     &base,
/// );
///
/// let index = InMemoryIndex::build(pq, &base, graph);
/// let mut scratch = SearchScratch::new();
/// let (top, stats) = index.search(queries.get(0), 32, 5, &mut scratch);
/// assert_eq!(top.len(), 5);
/// assert!(stats.hops > 0);
/// ```
pub struct InMemoryIndex<C: VectorCompressor> {
    graph: ProximityGraph,
    codes: CompactCodes,
    compressor: C,
    /// Per-vector label sets for filtered search (DESIGN.md §12); absent
    /// unless attached via [`InMemoryIndex::with_labels`].
    labels: Option<Labels>,
}

impl<C: VectorCompressor> InMemoryIndex<C> {
    /// Encodes `data` with `compressor` and takes ownership of the graph.
    /// The original vectors are *not* retained — that is the scenario's
    /// definition.
    pub fn build(compressor: C, data: &Dataset, graph: ProximityGraph) -> Self {
        assert_eq!(graph.len(), data.len(), "graph/dataset size mismatch");
        assert_eq!(compressor.dim(), data.dim(), "compressor dim mismatch");
        let codes = compressor.encode_dataset(data);
        Self {
            graph,
            codes,
            compressor,
            labels: None,
        }
    }

    /// Attaches per-vector labels, enabling [`InMemoryIndex::search_filtered`].
    pub fn with_labels(mut self, labels: Labels) -> Self {
        assert_eq!(labels.len(), self.graph.len(), "labels/graph size mismatch");
        self.labels = Some(labels);
        self
    }

    /// The attached labels, if any.
    pub fn labels(&self) -> Option<&Labels> {
        self.labels.as_ref()
    }

    /// Beam search with ADC-only distances; returns top-`k` ids with their
    /// estimated distances.
    pub fn search(
        &self,
        query: &[f32],
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> (Vec<Neighbor>, SearchStats) {
        filter::answer(self.read(query, None, ef, k, scratch))
    }

    /// Beam search restricted to vectors satisfying `pred` (DESIGN.md §12),
    /// pushed into the search by `strategy` ([`FilterStrategy`]). Panics
    /// unless labels were attached with [`InMemoryIndex::with_labels`].
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

    /// The index's one read path ([`filter::read`]).
    pub(crate) fn read(
        &self,
        query: &[f32],
        filter: Option<FilteredQuery>,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<(Vec<Neighbor>, SearchStats), ReplicaFault> {
        let base = VertexFilter::all();
        filter::read(self.labels.as_ref(), base, filter, ef, k, |vf, ef, k| {
            let est = self.compressor.estimator(&self.codes, query);
            beam_search_filtered(&self.graph, &est, ef, k, scratch, vf)
        })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &ProximityGraph {
        &self.graph
    }

    /// The compact codes.
    pub fn codes(&self) -> &CompactCodes {
        &self.codes
    }

    /// The compressor.
    pub fn compressor(&self) -> &C {
        &self.compressor
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// True when empty (unreachable for built indexes; API symmetry).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total resident bytes: graph + codes (`M` bytes per vector) + model —
    /// the quantity the paper's in-memory scenario budgets (memory
    /// constraint `f`·dataset).
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
            + self.codes.memory_bytes()
            + self.compressor.model_bytes()
            + self.labels.as_ref().map_or(0, |l| l.memory_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_data::ground_truth::brute_force_knn;
    use rpq_data::synth::{SynthConfig, ValueTransform};
    use rpq_graph::HnswConfig;
    use rpq_quant::{PqConfig, ProductQuantizer};

    fn setup(n: usize, seed: u64) -> (Dataset, Dataset) {
        let data = SynthConfig {
            dim: 16,
            intrinsic_dim: 6,
            clusters: 8,
            cluster_std: 0.8,
            noise_std: 0.03,
            transform: ValueTransform::Identity,
        }
        .generate(n + 20, seed);
        let (base, queries) = data.split_at(n);
        (base, queries)
    }

    #[test]
    fn search_finds_reasonable_neighbors() {
        let (base, queries) = setup(600, 1);
        let graph = HnswConfig::default().build(&base);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 64,
                ..Default::default()
            },
            &base,
        );
        let index = InMemoryIndex::build(pq, &base, graph);
        let gt = brute_force_knn(&base, &queries, 10);
        let mut scratch = SearchScratch::new();
        let mut results = Vec::new();
        for q in queries.iter() {
            let (res, stats) = index.search(q, 60, 10, &mut scratch);
            assert!(stats.hops > 0);
            results.push(res.iter().map(|n| n.id).collect::<Vec<_>>());
        }
        let recall = gt.recall(&results);
        assert!(recall > 0.6, "ADC-only recall too low: {recall}");
    }

    #[test]
    fn larger_beam_does_not_reduce_recall() {
        let (base, queries) = setup(500, 2);
        let graph = HnswConfig::default().build(&base);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 64,
                ..Default::default()
            },
            &base,
        );
        let index = InMemoryIndex::build(pq, &base, graph);
        let gt = brute_force_knn(&base, &queries, 10);
        let mut scratch = SearchScratch::new();
        let mut recalls = Vec::new();
        for ef in [10usize, 40, 120] {
            let mut results = Vec::new();
            for q in queries.iter() {
                let (res, _) = index.search(q, ef, 10, &mut scratch);
                results.push(res.iter().map(|n| n.id).collect::<Vec<_>>());
            }
            recalls.push(gt.recall(&results));
        }
        assert!(
            recalls[2] >= recalls[0] - 0.02,
            "recall should not degrade with beam width: {recalls:?}"
        );
    }

    #[test]
    fn memory_accounting_is_far_below_raw_vectors() {
        let (base, _) = setup(500, 3);
        let graph = HnswConfig::default().build(&base);
        let graph_bytes = graph.memory_bytes();
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let index = InMemoryIndex::build(pq, &base, graph);
        let raw = base.memory_bytes();
        let resident = index.memory_bytes() - graph_bytes; // codes + model
        assert!(
            resident * 2 < raw,
            "codes+model ({resident}) should be far below raw vectors ({raw})"
        );
    }

    #[test]
    fn filtered_search_returns_only_matching_ids() {
        let (base, queries) = setup(500, 6);
        let graph = HnswConfig::default().build(&base);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 64,
                ..Default::default()
            },
            &base,
        );
        // Alternate two labels over ids.
        let labels =
            rpq_data::Labels::from_masks(2, (0..base.len()).map(|i| 1 << (i % 2)).collect());
        let index = InMemoryIndex::build(pq, &base, graph).with_labels(labels.clone());
        let pred = rpq_data::LabelPredicate::single(1);
        let mut scratch = SearchScratch::new();
        for strategy in [
            crate::filter::FilterStrategy::DuringTraversal,
            crate::filter::FilterStrategy::PostFilter { inflation: 4 },
        ] {
            for q in queries.iter() {
                let (res, _) = index.search_filtered(q, pred, strategy, 40, 10, &mut scratch);
                assert!(!res.is_empty(), "{strategy:?} returned nothing");
                for n in &res {
                    assert!(
                        labels.matches(n.id as usize, pred),
                        "{strategy:?} returned non-matching id {}",
                        n.id
                    );
                }
            }
        }
    }

    #[test]
    fn filtered_search_with_all_predicate_matches_unfiltered() {
        let (base, queries) = setup(400, 7);
        let graph = HnswConfig::default().build(&base);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 64,
                ..Default::default()
            },
            &base,
        );
        let labels = rpq_data::Labels::from_masks(2, vec![1; base.len()]);
        let index = InMemoryIndex::build(pq, &base, graph).with_labels(labels);
        let pred = rpq_data::LabelPredicate::single(0);
        let mut scratch = SearchScratch::new();
        for q in queries.iter() {
            let (plain, _) = index.search(q, 40, 10, &mut scratch);
            let (filtered, _) = index.search_filtered(
                q,
                pred,
                crate::filter::FilterStrategy::DuringTraversal,
                40,
                10,
                &mut scratch,
            );
            let a: Vec<u32> = plain.iter().map(|n| n.id).collect();
            let b: Vec<u32> = filtered.iter().map(|n| n.id).collect();
            assert_eq!(a, b, "all-matching filter must not change results");
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_graph_panics() {
        let (base, _) = setup(100, 4);
        let (other, _) = setup(50, 5);
        let graph = HnswConfig::default().build(&other);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let _ = InMemoryIndex::build(pq, &base, graph);
    }
}
