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

use rpq_data::Labels;
use rpq_graph::{Neighbor, VertexFilter};

use crate::serve::{FilteredQuery, ReplicaFault};

/// How a [`LabelPredicate`](rpq_data::LabelPredicate) is pushed into beam search.
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

    /// Short name for reports and JSON rows.
    pub fn name(&self) -> &'static str {
        match self {
            FilterStrategy::DuringTraversal => "in-traversal",
            FilterStrategy::PostFilter { .. } => "post-filter",
        }
    }
}

/// Every index's read (DESIGN.md §12.1). `search(filter, ef, k)` is the
/// index's beam search, `base` the filter of its unfiltered search. A
/// predicate without `labels` is [`ReplicaFault::NoLabels`];
/// `DuringTraversal` narrows `base` by it, `PostFilter` searches `base` at
/// [`FilterStrategy::inflated_ef`] and keeps the first `k` matches.
pub(crate) fn read<S>(
    labels: Option<&Labels>,
    base: VertexFilter<'_>,
    filter: Option<FilteredQuery>,
    ef: usize,
    k: usize,
    search: impl FnOnce(VertexFilter<'_>, usize, usize) -> (Vec<Neighbor>, S),
) -> Result<(Vec<Neighbor>, S), ReplicaFault> {
    let Some(FilteredQuery { pred, strategy }) = filter else {
        return Ok(search(base, ef, k));
    };
    let labels = labels.ok_or(ReplicaFault::NoLabels)?;
    Ok(match strategy {
        FilterStrategy::DuringTraversal => {
            let accept = labels.accept_fn(pred);
            search(base.and_predicate(&accept), ef, k)
        }
        FilterStrategy::PostFilter { .. } => {
            let ef = strategy.inflated_ef(ef);
            let (mut res, stats) = search(base, ef, ef);
            res.retain(|n| labels.matches(n.id as usize, pred));
            res.truncate(k);
            (res, stats)
        }
    })
}

/// A frozen search method's answer: the read's, or a panic with its fault.
pub(crate) fn answer<T>(read: Result<T, ReplicaFault>) -> T {
    read.unwrap_or_else(|fault| panic!("{fault}"))
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
