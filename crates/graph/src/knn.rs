//! k-NN graph construction: exact brute force (small n) and NN-Descent
//! (Dong et al., WWW'11) for larger sets. NSG consumes these as its
//! initialisation graph.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use rpq_data::ground_truth::brute_force_knn;
use rpq_data::Dataset;
use rpq_linalg::distance::sq_l2;

/// Exact k-NN graph (excluding self edges): rpq-data's grouped ground-truth
/// scan of the data against itself at `k + 1`, each row without its own id
/// and cut to `k`, ascending by `(distance, id)`; `k ≥ 1` is clamped to
/// `n − 1`. Top-`(k + 1)` minus the node is top-`k` of the others.
pub fn brute_force_knn_graph(data: &Dataset, k: usize) -> Vec<Vec<u32>> {
    let n = data.len();
    assert!(n > 0, "empty dataset");
    let k = k.min(n - 1);
    let mut rows = brute_force_knn(data, data, k + 1).neighbors;
    for (i, row) in rows.iter_mut().enumerate() {
        row.retain(|&j| j as usize != i);
        row.truncate(k);
    }
    rows
}

/// Neighbors per node of the k-NN graph NSG is initialised from, exact or
/// by NN-Descent: the same 32 as the final graphs' degree budget (NSG's and
/// Vamana's R).
pub(crate) const KNN_K: usize = 32;

/// Maximum local-join iterations.
const MAX_ITERS: usize = 12;
/// Cap on join candidates per node per iteration.
const SAMPLE: usize = 40;
/// Convergence threshold: stop when updates < `DELTA * n * k`.
const DELTA: f32 = 0.002;

/// Bounded, sorted neighbor list used during NN-Descent.
struct NeighborList {
    entries: Vec<(f32, u32)>, // ascending by distance
    cap: usize,
}

impl NeighborList {
    fn worst(&self) -> f32 {
        if self.entries.len() < self.cap {
            f32::INFINITY
        } else {
            self.entries.last().map(|e| e.0).unwrap_or(f32::INFINITY)
        }
    }

    /// Inserts if improving; returns true when the list changed.
    fn insert(&mut self, d: f32, id: u32) -> bool {
        if d >= self.worst() || self.entries.iter().any(|e| e.1 == id) {
            return false;
        }
        let pos = self.entries.partition_point(|e| e.0 <= d);
        self.entries.insert(pos, (d, id));
        self.entries.truncate(self.cap);
        true
    }
}

/// Pools per propose/apply round: bounds the proposal buffer (at most
/// `POOL_BATCH · sample²` candidate edges in flight) while leaving plenty
/// of parallelism inside each batch.
const POOL_BATCH: usize = 512;

/// Approximate `KNN_K`-NN graph by NN-Descent local joins, seeded by
/// `seed`.
///
/// Each iteration gathers, for every node, a sampled set of forward and
/// reverse neighbors, then tries every pair inside that set against each
/// other's lists. Converges in a handful of iterations on clustered data.
///
/// The local join runs as parallel **propose** / sequential **apply**
/// batches: workers score candidate pairs against a frozen snapshot of
/// the lists (the expensive distance computations), then the proposals
/// are applied in pool order on one thread. Unlike a locked in-place
/// join, this keeps the result bit-identical for a given seed at every
/// thread count — the determinism contract the whole build pipeline
/// (and `tests/determinism.rs`) relies on.
pub fn nn_descent(data: &Dataset, seed: u64) -> Vec<Vec<u32>> {
    let n = data.len();
    assert!(n > 0, "empty dataset");
    let k = KNN_K.min(n.saturating_sub(1));
    if k == 0 {
        return vec![Vec::new(); n];
    }
    let mut rng = SmallRng::seed_from_u64(seed);

    // Random initialisation.
    let mut lists: Vec<NeighborList> = (0..n)
        .map(|i| {
            let mut entries = Vec::with_capacity(k);
            let mut chosen = std::collections::HashSet::new();
            while entries.len() < k {
                let j = rng.gen_range(0..n);
                if j != i && chosen.insert(j) {
                    entries.push((sq_l2(data.get(i), data.get(j)), j as u32));
                }
            }
            entries.sort_by(|a, b| a.0.total_cmp(&b.0));
            NeighborList { entries, cap: k }
        })
        .collect();

    for _iter in 0..MAX_ITERS {
        // Candidate pools: forward neighbors + reverse neighbors, capped.
        let mut pools: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, list) in lists.iter().enumerate() {
            for &(_, j) in &list.entries {
                pools[i].push(j);
                pools[j as usize].push(i as u32);
            }
        }
        for pool in &mut pools {
            pool.sort_unstable();
            pool.dedup();
            if pool.len() > SAMPLE {
                // Deterministic thinning keeps the pass reproducible.
                let stride = pool.len() as f32 / SAMPLE as f32;
                let thinned: Vec<u32> = (0..SAMPLE)
                    .map(|t| pool[(t as f32 * stride) as usize])
                    .collect();
                *pool = thinned;
            }
        }

        // Local join: every pair inside a pool proposes each other.
        let mut updates = 0usize;
        for batch in pools.chunks(POOL_BATCH) {
            // Propose (parallel, read-only): score pairs against the list
            // state as of the batch start. The snapshot `worst()` filter
            // only prunes; apply re-checks every proposal.
            let proposals: Vec<Vec<(u32, f32, u32)>> = batch
                .par_iter()
                .map(|pool| {
                    let mut local = Vec::new();
                    for ai in 0..pool.len() {
                        for bi in (ai + 1)..pool.len() {
                            let (a, b) = (pool[ai], pool[bi]);
                            if a == b {
                                continue;
                            }
                            let d = sq_l2(data.get(a as usize), data.get(b as usize));
                            if d < lists[a as usize].worst() {
                                local.push((a, d, b));
                            }
                            if d < lists[b as usize].worst() {
                                local.push((b, d, a));
                            }
                        }
                    }
                    local
                })
                .collect();
            // Apply (sequential, in pool order): deterministic inserts.
            for (target, d, id) in proposals.into_iter().flatten() {
                if lists[target as usize].insert(d, id) {
                    updates += 1;
                }
            }
        }

        if (updates as f32) < DELTA * (n * k) as f32 {
            break;
        }
    }

    lists
        .into_iter()
        .map(|l| l.entries.into_iter().map(|(_, j)| j).collect())
        .collect()
}

/// Recall of an approximate k-NN graph against the exact one (diagnostic
/// used by tests and DESIGN.md ablations).
pub fn knn_graph_recall(approx: &[Vec<u32>], exact: &[Vec<u32>]) -> f32 {
    assert_eq!(approx.len(), exact.len());
    let mut hit = 0usize;
    let mut total = 0usize;
    for (a, e) in approx.iter().zip(exact) {
        total += e.len();
        hit += e.iter().filter(|id| a.contains(id)).count();
    }
    if total == 0 {
        1.0
    } else {
        hit as f32 / total as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_data::synth::{SynthConfig, ValueTransform};

    fn toy_data(n: usize, seed: u64) -> Dataset {
        SynthConfig {
            dim: 12,
            intrinsic_dim: 4,
            clusters: 6,
            cluster_std: 0.6,
            noise_std: 0.02,
            transform: ValueTransform::Identity,
        }
        .generate(n, seed)
    }

    #[test]
    fn brute_force_graph_is_exact() {
        let data = toy_data(60, 1);
        let g = brute_force_knn_graph(&data, 5);
        assert_eq!(g.len(), 60);
        for (i, nbrs) in g.iter().enumerate() {
            assert_eq!(nbrs.len(), 5);
            assert!(!nbrs.contains(&(i as u32)), "self edge at {i}");
            // First neighbor really is the closest other point.
            let mut best = (f32::INFINITY, 0u32);
            for j in 0..60 {
                if j != i {
                    let d = sq_l2(data.get(i), data.get(j));
                    if d < best.0 {
                        best = (d, j as u32);
                    }
                }
            }
            assert_eq!(nbrs[0], best.1, "node {i}");
        }
    }

    /// The graph's former body, kept as the oracle: every other node
    /// scored, all `n − 1` sorted by `(distance, id)`, cut to `k`.
    fn sorted_rows(data: &Dataset, k: usize) -> Vec<Vec<u32>> {
        let n = data.len();
        let k = k.min(n - 1);
        (0..n)
            .map(|i| {
                let mut scored: Vec<(f32, u32)> = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| (sq_l2(data.get(i), data.get(j)), j as u32))
                    .collect();
                scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                scored.truncate(k);
                scored.into_iter().map(|(_, j)| j).collect()
            })
            .collect()
    }

    #[test]
    fn brute_force_graph_equals_the_full_sort_on_a_tie_dense_grid() {
        // Points of a 9 × 9 × 3 integer grid, shuffled by a fixed stride:
        // every node has many neighbors at each distance, so the rows hold
        // long runs of ties that only the id order breaks.
        let mut data = Dataset::new(3);
        let cells = 9 * 9 * 3;
        for c in (0..cells).map(|c| (c * 97) % cells) {
            data.push(&[(c % 9) as f32, ((c / 9) % 9) as f32, (c / 81) as f32]);
        }
        for k in [1, 6, 32, cells] {
            assert_eq!(
                brute_force_knn_graph(&data, k),
                sorted_rows(&data, k),
                "k {k}"
            );
        }
    }

    #[test]
    fn brute_force_k_clamped() {
        let data = toy_data(4, 2);
        let g = brute_force_knn_graph(&data, 100);
        assert!(g.iter().all(|l| l.len() == 3));
    }

    #[test]
    fn nn_descent_recovers_most_true_neighbors() {
        let data = toy_data(600, 3);
        let exact = brute_force_knn_graph(&data, KNN_K);
        let approx = nn_descent(&data, 0);
        let recall = knn_graph_recall(&approx, &exact);
        assert!(recall > 0.85, "nn-descent recall too low: {recall}");
    }

    #[test]
    fn nn_descent_no_self_edges_and_bounded() {
        let data = toy_data(120, 4);
        let g = nn_descent(&data, 0);
        for (i, l) in g.iter().enumerate() {
            assert!(l.len() <= KNN_K);
            assert!(!l.contains(&(i as u32)));
            let mut dd = l.clone();
            dd.sort_unstable();
            dd.dedup();
            assert_eq!(dd.len(), l.len(), "duplicates at node {i}");
        }
    }

    #[test]
    fn nn_descent_tiny_dataset() {
        let data = toy_data(3, 5);
        let g = nn_descent(&data, 0);
        assert!(g.iter().all(|l| l.len() == 2));
    }
}
