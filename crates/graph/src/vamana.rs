//! Vamana graph construction — the proximity graph inside DiskANN
//! (Jayaram Subramanya et al., NeurIPS'19), which the paper's hybrid
//! scenario builds on (§7, §8.1).
//!
//! Construction: random R-regular initialisation, then two passes (α = 1,
//! then α = cfg.alpha) where each point is re-linked by greedy search from
//! the medoid followed by RobustPrune, with pruned back-edges. Searches
//! within a batch run in parallel against a snapshot (the standard batched
//! build); updates apply sequentially.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use rpq_data::Dataset;
use rpq_linalg::distance::sq_l2;

use crate::beam::SearchScratch;
use crate::construction::{
    medoid, medoid_subset, repair_connectivity, robust_prune, search_adj, Scored,
};
use crate::dynamic::DynamicGraph;
use crate::pg::ProximityGraph;

/// Vamana build parameters (paper/DiskANN defaults).
#[derive(Clone, Copy, Debug)]
pub struct VamanaConfig {
    /// Maximum out-degree R.
    pub r: usize,
    /// Construction beam width L.
    pub l: usize,
    /// Pruning slack α for the second pass.
    pub alpha: f32,
    pub seed: u64,
}

/// Batch size for the parallel search phase.
const BATCH: usize = 512;

impl Default for VamanaConfig {
    fn default() -> Self {
        Self {
            r: 32,
            l: 64,
            alpha: 1.2,
            seed: 0,
        }
    }
}

impl VamanaConfig {
    /// Builds the Vamana graph for `data`; the entry vertex is the medoid.
    pub fn build(&self, data: &Dataset) -> ProximityGraph {
        let n = data.len();
        assert!(n > 0, "cannot build a graph over an empty dataset");
        let r = self.r.max(1).min(n.saturating_sub(1).max(1));
        if n == 1 {
            return ProximityGraph::from_adjacency(vec![Vec::new()], 0);
        }
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let entry = medoid(data);

        // Random R-regular initialisation.
        let mut adj: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let mut nbrs = Vec::with_capacity(r);
                while nbrs.len() < r {
                    let j = rng.gen_range(0..n) as u32;
                    if j as usize != i && !nbrs.contains(&j) {
                        nbrs.push(j);
                    }
                }
                nbrs
            })
            .collect();

        let mut order: Vec<u32> = (0..n as u32).collect();
        for pass_alpha in [1.0f32, self.alpha.max(1.0)] {
            // Random insertion order per pass.
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for chunk in order.chunks(BATCH) {
                // Parallel search phase against the current snapshot.
                let searched: Vec<(u32, Vec<Scored>)> = chunk
                    .par_iter()
                    .map_init(SearchScratch::new, |scratch, &p| {
                        let q = data.get(p as usize);
                        let (_, expanded) =
                            search_adj(&adj, data, q, entry, self.l.max(r), scratch);
                        (p, expanded)
                    })
                    .collect();
                // Sequential update phase.
                for (p, mut cands) in searched {
                    for &u in &adj[p as usize] {
                        cands.push((sq_l2(data.get(p as usize), data.get(u as usize)), u));
                    }
                    let selected = robust_prune(p, cands, data, pass_alpha, r);
                    adj[p as usize] = selected.clone();
                    link_back(&mut adj, data, p, &selected, pass_alpha, r);
                }
            }
        }
        ProximityGraph::from_adjacency(adj, entry)
    }

    /// FreshDiskANN-style greedy insert into a live graph (DESIGN.md §8.1):
    /// beam-search the new point's vector from the entry, RobustPrune the
    /// expanded set into its out-neighbors, then patch back-edges — any
    /// in-neighbor pushed over the degree bound `r` is re-pruned, exactly
    /// the batch builder's rule.
    ///
    /// Ids are dense: `p` must equal `graph.len()` and `data` must already
    /// hold the vector at index `p`. The scratch is shared with
    /// [`crate::beam_search`] and may be sized for a previous epoch; the
    /// search grows it as needed.
    pub fn insert_point(
        &self,
        graph: &mut DynamicGraph,
        data: &Dataset,
        p: u32,
        scratch: &mut SearchScratch,
    ) {
        assert_eq!(
            graph.len(),
            p as usize,
            "insert ids are dense: expected {}, got {p}",
            graph.len()
        );
        assert!((p as usize) < data.len(), "vector for {p} not in dataset");
        if graph.is_empty() {
            graph.push_vertex(Vec::new());
            graph.set_entry(0);
            return;
        }
        let r = self.r.max(1);
        let alpha = self.alpha.max(1.0);
        let (_, expanded) = search_adj(
            graph.adj(),
            data,
            data.get(p as usize),
            graph.entry(),
            self.l.max(r),
            scratch,
        );
        let selected = robust_prune(p, expanded, data, alpha, r);
        let id = graph.push_vertex(selected.clone());
        debug_assert_eq!(id, p);
        link_back(graph.adj_mut(), data, p, &selected, alpha, r);
    }

    /// Batch tombstone reclamation (DESIGN.md §8.3): re-links every live
    /// vertex that pointed at a deleted one (candidates = its live neighbors
    /// plus the live neighbors of its deleted neighbors, RobustPruned),
    /// compacts the graph to the survivors (ids remapped to be dense,
    /// ascending in old-id order), re-centres the entry on the survivors'
    /// medoid, and repairs reachability capacity-aware.
    ///
    /// `deleted` is positional over the current graph; `data` is the
    /// *old-id-space* dataset. Returns the survivors' old ids — new id `i`
    /// is old id `survivors[i]`, the order side stores compact by.
    pub fn consolidate(
        &self,
        graph: &mut DynamicGraph,
        data: &Dataset,
        deleted: &[bool],
    ) -> Vec<u32> {
        let n = graph.len();
        assert_eq!(deleted.len(), n, "tombstone bitmap size mismatch");
        let r = self.r.max(1);
        let alpha = self.alpha.max(1.0);

        // Re-link around tombstones while old ids are still valid.
        for u in 0..n as u32 {
            if deleted[u as usize] {
                continue;
            }
            if !graph.neighbors(u).iter().any(|&x| deleted[x as usize]) {
                continue;
            }
            let uv = data.get(u as usize);
            let mut cands: Vec<Scored> = Vec::new();
            for &x in graph.neighbors(u) {
                if deleted[x as usize] {
                    for &y in graph.neighbors(x) {
                        if !deleted[y as usize] && y != u {
                            cands.push((sq_l2(uv, data.get(y as usize)), y));
                        }
                    }
                } else {
                    cands.push((sq_l2(uv, data.get(x as usize)), x));
                }
            }
            graph.set_neighbors(u, robust_prune(u, cands, data, alpha, r));
        }

        // Compact: drop tombstoned vertices and remap the survivors dense.
        let survivors: Vec<u32> = (0..n as u32).filter(|&v| !deleted[v as usize]).collect();
        let mut remap = vec![u32::MAX; n];
        for (new, &old) in survivors.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        let old_adj = std::mem::take(graph.adj_mut());
        let new_adj: Vec<Vec<u32>> = survivors
            .iter()
            .map(|&old| {
                old_adj[old as usize]
                    .iter()
                    .filter(|&&x| !deleted[x as usize])
                    .map(|&x| remap[x as usize])
                    .collect()
            })
            .collect();
        *graph.adj_mut() = new_adj;
        if survivors.is_empty() {
            // Entry is meaningless on an empty graph; searches short-circuit.
            return survivors;
        }
        graph.set_entry(remap[medoid_subset(data, &survivors) as usize]);

        let idx: Vec<usize> = survivors.iter().map(|&v| v as usize).collect();
        let compacted = data.subset(&idx);
        self.repair_reachability(graph, &compacted);
        survivors
    }

    /// Makes every vertex reachable from the entry again after incremental
    /// edits, using each vertex's own adjacency snapshot as attach
    /// candidates (capacity-aware: the shared NSG repair rule, PR-1 fix).
    /// `data` must be in the graph's current id space.
    pub fn repair_reachability(&self, graph: &mut DynamicGraph, data: &Dataset) {
        assert_eq!(graph.len(), data.len(), "graph/dataset size mismatch");
        if graph.len() <= 1 {
            return;
        }
        let knn: Vec<Vec<u32>> = graph.adj().to_vec();
        let entry = graph.entry();
        repair_connectivity(graph.adj_mut(), data, &knn, entry, self.r.max(1));
    }
}

/// Patches the back-edges of `p`'s freshly selected out-neighbors: pushes `p`
/// into `N(j)` for every `j` in `selected` that lacks it, and re-prunes any
/// `j` the push takes over the degree bound `r`.
fn link_back(adj: &mut [Vec<u32>], data: &Dataset, p: u32, selected: &[u32], alpha: f32, r: usize) {
    for &j in selected {
        let list = &mut adj[j as usize];
        if list.contains(&p) {
            continue;
        }
        list.push(p);
        if list.len() > r {
            let jv = data.get(j as usize);
            let jc: Vec<Scored> = list
                .iter()
                .map(|&u| (sq_l2(jv, data.get(u as usize)), u))
                .collect();
            adj[j as usize] = robust_prune(j, jc, data, alpha, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beam::{beam_search, ExactEstimator, SearchScratch};
    use crate::pg::GraphView;
    use rpq_data::ground_truth::brute_force_knn;
    use rpq_data::synth::{SynthConfig, ValueTransform};

    fn toy(n: usize, seed: u64) -> Dataset {
        SynthConfig {
            dim: 16,
            intrinsic_dim: 6,
            clusters: 8,
            cluster_std: 0.7,
            noise_std: 0.03,
            transform: ValueTransform::Identity,
        }
        .generate(n, seed)
    }

    #[test]
    fn degrees_bounded_by_r() {
        let data = toy(300, 1);
        let g = VamanaConfig {
            r: 12,
            l: 32,
            ..Default::default()
        }
        .build(&data);
        assert!(g.max_degree() <= 12, "max degree {}", g.max_degree());
    }

    #[test]
    fn graph_is_navigable() {
        let data = toy(500, 2);
        let g = VamanaConfig::default().build(&data);
        let (base_q, queries) = data.split_at(480);
        // Search for held-out points' neighbors within the built graph.
        let gt = brute_force_knn(&data, &queries, 10);
        let mut scratch = SearchScratch::new();
        let mut results = Vec::new();
        for q in queries.iter() {
            let est = ExactEstimator::new(&data, q);
            let (res, _) = beam_search(&g, &est, 50, 10, &mut scratch);
            results.push(res.iter().map(|n| n.id).collect::<Vec<_>>());
        }
        let recall = gt.recall(&results);
        assert!(recall > 0.9, "vamana recall too low: {recall}");
        drop(base_q);
    }

    #[test]
    fn reachability_is_high() {
        let data = toy(400, 3);
        let g = VamanaConfig::default().build(&data);
        let reach = g.reachable_from_entry();
        assert!(reach as f32 > 0.99 * 400.0, "only {reach}/400 reachable");
    }

    #[test]
    fn single_point_dataset() {
        let mut data = Dataset::new(2);
        data.push(&[1.0, 2.0]);
        let g = VamanaConfig::default().build(&data);
        assert_eq!(g.len(), 1);
        assert_eq!(g.entry(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = toy(150, 4);
        let a = VamanaConfig {
            seed: 9,
            ..Default::default()
        }
        .build(&data);
        let b = VamanaConfig {
            seed: 9,
            ..Default::default()
        }
        .build(&data);
        assert_eq!(a, b);
    }

    #[test]
    fn incremental_insert_is_navigable() {
        // Grow a graph one point at a time from empty; it must stay within
        // the degree bound and find inserted points by exact search.
        let data = toy(250, 11);
        let cfg = VamanaConfig {
            r: 12,
            l: 32,
            ..Default::default()
        };
        let mut g = crate::DynamicGraph::new();
        let mut scratch = SearchScratch::new();
        for p in 0..data.len() as u32 {
            cfg.insert_point(&mut g, &data, p, &mut scratch);
        }
        assert_eq!(g.len(), data.len());
        assert!(g.max_degree() <= 12, "max degree {}", g.max_degree());
        let gt = brute_force_knn(&data, &data, 1);
        let mut hits = 0;
        for (qi, q) in data.iter().enumerate() {
            let est = crate::ExactEstimator::new(&data, q);
            let (res, _) = beam_search(&g, &est, 32, 1, &mut scratch);
            if res.first().map(|n| n.id) == Some(gt.neighbors[qi][0]) {
                hits += 1;
            }
        }
        let recall = hits as f32 / data.len() as f32;
        assert!(recall > 0.9, "self-recall after pure inserts: {recall}");
    }

    #[test]
    fn consolidate_compacts_and_repairs() {
        let data = toy(200, 13);
        let cfg = VamanaConfig {
            r: 10,
            l: 24,
            ..Default::default()
        };
        let mut g = crate::DynamicGraph::from_graph(&cfg.build(&data));
        let mut deleted = vec![false; 200];
        for i in (0..200).step_by(4) {
            deleted[i] = true;
        }
        let survivors = cfg.consolidate(&mut g, &data, &deleted);
        assert_eq!(survivors.len(), 150);
        assert!(survivors.iter().all(|&v| !deleted[v as usize]));
        assert!(survivors.windows(2).all(|w| w[0] < w[1]), "ascending ids");
        assert_eq!(g.len(), 150);
        assert_eq!(g.reachable_from_entry(), 150, "repair must reconnect");
        // Degree bound with the repair slack (cap = r + 2).
        assert!(g.max_degree() <= 12, "max degree {}", g.max_degree());
    }

    #[test]
    fn consolidate_everything_leaves_empty_graph() {
        let data = toy(40, 14);
        let cfg = VamanaConfig::default();
        let mut g = crate::DynamicGraph::from_graph(&cfg.build(&data));
        let survivors = cfg.consolidate(&mut g, &data, &[true; 40]);
        assert!(survivors.is_empty());
        assert!(g.is_empty());
    }
}
