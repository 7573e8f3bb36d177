//! Filtered-search strategy selection (DESIGN.md §12).
//!
//! Two ways to push a predicate into graph search, both from the
//! filtered-ANN literature:
//!
//! * **Filter during traversal** (Filtered-DiskANN style): the shared
//!   expansion step (`SearchScratch::expand` under a `VertexFilter`) keeps
//!   traversing non-matching vertices (so the routing path survives) while
//!   only admitting matches to the accepted pool. One pass, no wasted
//!   candidates; at very low selectivity the accepted pool fills slowly and
//!   the traversal runs longer.
//! * **Post-filter with ef inflation** (ACORN style): run the *unfiltered*
//!   search with the beam widened by an inflation factor, then drop
//!   non-matching results and truncate to `k`. Simple and
//!   predicate-agnostic, but pays for every non-matching candidate it
//!   routes — the nodes-expanded gap `tests/filtered.rs` pins.

use rpq_data::{LabelPredicate, Labels};
use rpq_graph::Neighbor;

/// How a [`LabelPredicate`] is pushed into beam search.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FilterStrategy {
    /// Evaluate the predicate inside the traversal (the accepted pool of
    /// `SearchScratch::expand`): non-matching vertices route but are never
    /// returned.
    DuringTraversal,
    /// Search unfiltered with `ef × inflation`, then filter the results
    /// and truncate to `k`. `inflation` < 1 is clamped to 1.
    PostFilter {
        /// Beam-width multiplier compensating for results lost to the
        /// filter. A rule of thumb is ~`1/selectivity`, capped by cost.
        inflation: u32,
    },
}

impl FilterStrategy {
    /// The post-filter beam width for a requested `ef`.
    fn inflated_ef(&self, ef: usize) -> usize {
        match self {
            FilterStrategy::DuringTraversal => ef,
            FilterStrategy::PostFilter { inflation } => {
                ef.saturating_mul((*inflation).max(1) as usize)
            }
        }
    }

    /// The post-filter arm every index shares: `search` is the index's
    /// unfiltered search, asked for its top `ef' = inflated_ef(ef)` at beam
    /// width `ef'`; results `pred` rejects are dropped, the rest cut to `k`.
    pub(crate) fn post_filter<S>(
        &self,
        labels: &Labels,
        pred: LabelPredicate,
        ef: usize,
        k: usize,
        search: impl FnOnce(usize) -> (Vec<Neighbor>, S),
    ) -> (Vec<Neighbor>, S) {
        let (mut res, stats) = search(self.inflated_ef(ef));
        res.retain(|n| labels.matches(n.id as usize, pred));
        res.truncate(k);
        (res, stats)
    }

    /// Short name for reports and JSON rows.
    pub fn name(&self) -> &'static str {
        match self {
            FilterStrategy::DuringTraversal => "in-traversal",
            FilterStrategy::PostFilter { .. } => "post-filter",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflation_scales_ef_and_clamps() {
        assert_eq!(FilterStrategy::DuringTraversal.inflated_ef(40), 40);
        assert_eq!(
            FilterStrategy::PostFilter { inflation: 4 }.inflated_ef(40),
            160
        );
        assert_eq!(
            FilterStrategy::PostFilter { inflation: 0 }.inflated_ef(40),
            40
        );
    }
}
