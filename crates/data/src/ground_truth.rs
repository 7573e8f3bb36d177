//! Exact k-nearest-neighbor ground truth and recall@k (paper Eq. 1).

use rayon::prelude::*;
use rpq_linalg::distance::{sq_l2, sq_l2_8};

use crate::dataset::Dataset;
use crate::labels::{LabelPredicate, Labels};

/// Exact nearest neighbors for a query set: `neighbors[q]` holds the ids of
/// the `k` base vectors closest to query `q`, ascending by distance.
#[derive(Clone, Debug)]
pub struct GroundTruth {
    pub k: usize,
    pub neighbors: Vec<Vec<u32>>,
}

impl GroundTruth {
    /// Recall@k of `results[q]` (any order, any length ≥ 0) against this
    /// ground truth, averaged over queries — Eq. 1 of the paper.
    pub fn recall(&self, results: &[Vec<u32>]) -> f32 {
        assert_eq!(results.len(), self.neighbors.len(), "query count mismatch");
        if self.neighbors.is_empty() {
            return 1.0;
        }
        let mut total = 0.0f64;
        for (res, truth) in results.iter().zip(&self.neighbors) {
            total += overlap(res, truth) as f64 / self.k as f64;
        }
        (total / self.neighbors.len() as f64) as f32
    }
}

fn overlap(res: &[u32], truth: &[u32]) -> usize {
    res.iter().filter(|id| truth.contains(id)).count()
}

/// Computes exact top-`k` neighbors of every query by parallel brute force.
///
/// Panics if `base` is empty, `k` is zero or the dimensions disagree; `k` is
/// clamped to the base size.
pub fn brute_force_knn(base: &Dataset, queries: &Dataset, k: usize) -> GroundTruth {
    assert!(k > 0, "k must be positive");
    assert!(!base.is_empty(), "ground truth needs a non-empty base set");
    assert_eq!(base.dim(), queries.dim(), "dimension mismatch");
    let k = k.min(base.len());
    let neighbors = grouped_top_k(base, queries, k, |_| true);
    GroundTruth { k, neighbors }
}

/// Exact top-`k` neighbors **among base vectors satisfying `pred`** — the
/// filtered-search ground truth (DESIGN.md §12). Ids are global (base
/// positions), so filtered index results compare directly. `k` is clamped
/// to the predicate's matching count; panics when `k` is zero or nothing
/// matches.
pub fn brute_force_knn_filtered(
    base: &Dataset,
    queries: &Dataset,
    k: usize,
    labels: &Labels,
    pred: LabelPredicate,
) -> GroundTruth {
    assert!(k > 0, "k must be positive");
    assert!(!base.is_empty(), "ground truth needs a non-empty base set");
    assert_eq!(base.dim(), queries.dim(), "dimension mismatch");
    assert_eq!(labels.len(), base.len(), "labels must cover the base set");
    let matching = labels.count_matching(pred);
    assert!(matching > 0, "predicate matches no base vectors");
    let k = k.min(matching);
    let neighbors = grouped_top_k(base, queries, k, |v| labels.matches(v as usize, pred));
    GroundTruth { k, neighbors }
}

/// Queries per pass over the base: the width of [`sq_l2_8`].
const GROUP: usize = 8;

/// [`top_k_scan`] of every query, [`GROUP`] queries per pass over the base
/// and the groups in parallel.
fn grouped_top_k(
    base: &Dataset,
    queries: &Dataset,
    k: usize,
    accept: impl Fn(u32) -> bool + Sync,
) -> Vec<Vec<u32>> {
    let mut neighbors = vec![Vec::new(); queries.len()];
    neighbors
        .par_chunks_mut(GROUP)
        .enumerate()
        .for_each(|(g, out)| {
            let group: Vec<&[f32]> = (0..out.len()).map(|j| queries.get(g * GROUP + j)).collect();
            for (o, ids) in out.iter_mut().zip(top_k_scan(base, &group, k, &accept)) {
                *o = ids;
            }
        });
    neighbors
}

/// A scan candidate, ordered by `(distance, id)`.
#[derive(PartialEq)]
struct Entry(f32, u32);
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// Exact top-`k` ids of each of the (at most [`GROUP`]) queries in
/// `group` among base vectors accepted by `accept`, ascending by
/// `(distance, id)`: one pass over the base, a bounded max-heap per query.
/// A group of several runs [`sq_l2_8`], padded with its last query, whose
/// distances are [`sq_l2`]'s bit for bit; a single query runs [`sq_l2`].
fn top_k_scan(
    base: &Dataset,
    group: &[&[f32]],
    k: usize,
    accept: impl Fn(u32) -> bool,
) -> Vec<Vec<u32>> {
    use std::collections::BinaryHeap;

    assert!(
        (1..=GROUP).contains(&group.len()),
        "group size out of range"
    );
    let k = k.max(1);
    let padded: [&[f32]; GROUP] = std::array::from_fn(|j| group[j.min(group.len() - 1)]);
    let mut heaps: Vec<BinaryHeap<Entry>> = group
        .iter()
        .map(|_| BinaryHeap::with_capacity(k + 1))
        .collect();
    for (i, v) in base.iter().enumerate() {
        if !accept(i as u32) {
            continue;
        }
        let dists = if group.len() == 1 {
            [sq_l2(group[0], v); GROUP]
        } else {
            sq_l2_8(&padded, v)
        };
        for (heap, &d) in heaps.iter_mut().zip(&dists) {
            if heap.len() < k {
                heap.push(Entry(d, i as u32));
            } else if d < heap.peek().unwrap().0 {
                heap.pop();
                heap.push(Entry(d, i as u32));
            }
        }
    }
    heaps
        .into_iter()
        .map(|heap| heap.into_sorted_vec().into_iter().map(|e| e.1).collect())
        .collect()
}

/// Exact top-`k` ids among base vectors accepted by `accept`, ascending by
/// `(distance, id)` — the one-query case of the ground-truth scan.
pub fn top_k_ids_filtered(
    base: &Dataset,
    query: &[f32],
    k: usize,
    accept: impl Fn(u32) -> bool,
) -> Vec<u32> {
    let mut one = top_k_scan(base, &[query], k, accept);
    one.pop().expect("one query, one result")
}

/// Exact top-`k` ids for one query vector, ascending by `(distance, id)`.
pub fn top_k_ids(base: &Dataset, query: &[f32], k: usize) -> Vec<u32> {
    top_k_ids_filtered(base, query, k.min(base.len()), |_| true)
}

/// Convenience: recall@k between a single result list and a single truth
/// list.
pub fn recall_at_k(result: &[u32], truth: &[u32], k: usize) -> f32 {
    assert!(k > 0, "k must be positive");
    let truth = &truth[..k.min(truth.len())];
    overlap(&result[..k.min(result.len())], truth) as f32 / k as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_dataset(n: usize) -> Dataset {
        let mut d = Dataset::new(1);
        for i in 0..n {
            d.push(&[i as f32]);
        }
        d
    }

    /// The per-query heap scan the grouped one replaced: one [`sq_l2`] per
    /// accepted row, one pass over the base per query. The oracle the
    /// grouped scan must equal id for id.
    fn oracle_top_k(
        base: &Dataset,
        query: &[f32],
        k: usize,
        accept: impl Fn(u32) -> bool,
    ) -> Vec<u32> {
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(k + 1);
        for (i, v) in base.iter().enumerate() {
            if !accept(i as u32) {
                continue;
            }
            let d = sq_l2(query, v);
            if heap.len() < k {
                heap.push(Entry(d, i as u32));
            } else if d < heap.peek().unwrap().0 {
                heap.pop();
                heap.push(Entry(d, i as u32));
            }
        }
        let mut sorted: Vec<Entry> = heap.into_vec();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        sorted.into_iter().map(|e| e.1).collect()
    }

    #[test]
    fn grouped_ground_truth_equals_the_per_query_scan() {
        const N: usize = 40;
        // Rows `r` and `r + 13` are equal, and coordinates repeat across
        // rows, so distances tie between ids.
        let row = |r: usize, d: usize| ((r % 13 * 7 + d * 3) % 5) as f32 - 2.0;
        // Every third id carries label 1: 14 of 40 match it.
        let labels = Labels::from_masks(2, (0..N).map(|i| 1 + u32::from(i % 3 == 0)).collect());
        let pred = LabelPredicate::single(1);
        let matching = |v: u32| labels.matches(v as usize, pred);
        for dim in 1..=17usize {
            let mut base = Dataset::new(dim);
            for r in 0..N {
                base.push(&(0..dim).map(|d| row(r, d)).collect::<Vec<_>>());
            }
            // Every group remainder: 1..=17 queries, some equal to a row.
            for nq in 1..=17usize {
                let mut queries = Dataset::new(dim);
                for q in 0..nq {
                    let v: Vec<f32> = if q % 4 == 3 {
                        (0..dim).map(|d| row(q, d)).collect()
                    } else {
                        (0..dim)
                            .map(|d| ((q * 5 + d) % 7) as f32 * 0.5 - 1.5)
                            .collect()
                    };
                    queries.push(&v);
                }
                // k = 20 exceeds the 14 matching ids; k = 50 the base.
                for k in [1usize, 3, 10, 20, 50] {
                    let gt = brute_force_knn(&base, &queries, k);
                    let fgt = brute_force_knn_filtered(&base, &queries, k, &labels, pred);
                    for (q, v) in queries.iter().enumerate() {
                        let want = oracle_top_k(&base, v, k.min(N), |_| true);
                        assert_eq!(gt.neighbors[q], want, "dim {dim}, {nq} queries, k {k}");
                        let want = oracle_top_k(&base, v, k.min(14), matching);
                        assert_eq!(fgt.neighbors[q], want, "filtered, dim {dim}, k {k}");
                        assert_eq!(top_k_ids_filtered(&base, v, k.min(14), matching), want);
                    }
                }
            }
        }
    }

    #[test]
    fn knn_on_a_line() {
        let base = line_dataset(10);
        let mut queries = Dataset::new(1);
        queries.push(&[3.1]);
        let gt = brute_force_knn(&base, &queries, 3);
        assert_eq!(gt.neighbors[0], vec![3, 4, 2]);
    }

    #[test]
    fn knn_k_clamped_to_base() {
        let base = line_dataset(2);
        let mut queries = Dataset::new(1);
        queries.push(&[0.0]);
        let gt = brute_force_knn(&base, &queries, 10);
        assert_eq!(gt.k, 2);
        assert_eq!(gt.neighbors[0].len(), 2);
    }

    #[test]
    fn perfect_recall() {
        let base = line_dataset(20);
        let mut queries = Dataset::new(1);
        queries.push(&[5.0]);
        queries.push(&[15.0]);
        let gt = brute_force_knn(&base, &queries, 5);
        let results: Vec<Vec<u32>> = gt.neighbors.clone();
        assert_eq!(gt.recall(&results), 1.0);
    }

    #[test]
    fn partial_recall() {
        let gt = GroundTruth {
            k: 4,
            neighbors: vec![vec![0, 1, 2, 3]],
        };
        let recall = gt.recall(&[vec![0, 1, 9, 8]]);
        assert!((recall - 0.5).abs() < 1e-6);
    }

    #[test]
    fn recall_ignores_result_order() {
        let gt = GroundTruth {
            k: 3,
            neighbors: vec![vec![5, 6, 7]],
        };
        assert_eq!(gt.recall(&[vec![7, 5, 6]]), 1.0);
    }

    #[test]
    fn recall_at_k_single() {
        assert_eq!(recall_at_k(&[1, 2, 3], &[3, 2, 9], 3), 2.0 / 3.0);
    }

    #[test]
    #[should_panic(expected = "non-empty base")]
    fn empty_base_panics() {
        let base = Dataset::new(1);
        let queries = line_dataset(1);
        let _ = brute_force_knn(&base, &queries, 1);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_is_rejected_not_divided_by() {
        let base = line_dataset(3);
        let _ = brute_force_knn(&base, &base, 0);
    }

    #[test]
    fn filtered_gt_only_returns_matching_ids() {
        let base = line_dataset(20);
        let mut queries = Dataset::new(1);
        queries.push(&[7.2]);
        // Even ids get label 0, odd ids label 1.
        let labels = Labels::from_masks(2, (0..20).map(|i| 1 << (i % 2)).collect());
        let even = LabelPredicate::single(0);
        let gt = brute_force_knn_filtered(&base, &queries, 3, &labels, even);
        assert_eq!(gt.neighbors[0], vec![8, 6, 10]);
        let odd = LabelPredicate::single(1);
        let gt = brute_force_knn_filtered(&base, &queries, 3, &labels, odd);
        assert_eq!(gt.neighbors[0], vec![7, 9, 5]);
    }

    #[test]
    fn filtered_gt_clamps_k_to_matching_count() {
        let base = line_dataset(10);
        let mut queries = Dataset::new(1);
        queries.push(&[0.0]);
        let mut masks = vec![1u32; 10];
        masks[3] = 2;
        masks[7] = 2;
        let labels = Labels::from_masks(2, masks);
        let gt = brute_force_knn_filtered(&base, &queries, 5, &labels, LabelPredicate::single(1));
        assert_eq!(gt.k, 2);
        assert_eq!(gt.neighbors[0], vec![3, 7]);
    }

    #[test]
    fn filtered_gt_with_all_matching_equals_unfiltered() {
        let base = line_dataset(15);
        let mut queries = Dataset::new(1);
        queries.push(&[11.3]);
        let labels = Labels::from_masks(1, vec![1; 15]);
        let filtered =
            brute_force_knn_filtered(&base, &queries, 4, &labels, LabelPredicate::single(0));
        let plain = brute_force_knn(&base, &queries, 4);
        assert_eq!(filtered.neighbors, plain.neighbors);
    }

    #[test]
    fn ties_resolved_deterministically() {
        let mut base = Dataset::new(1);
        base.push(&[1.0]);
        base.push(&[1.0]);
        base.push(&[1.0]);
        let q = [1.0f32];
        let a = top_k_ids(&base, &q, 2);
        let b = top_k_ids(&base, &q, 2);
        assert_eq!(a, b);
    }
}
