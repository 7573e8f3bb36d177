//! NSG construction (Fu et al., VLDB'19): monotonic-path graph built by
//! MRNG-style edge selection over candidate pools gathered from an initial
//! k-NN graph, navigated from a fixed medoid, with a connectivity repair
//! pass so every vertex is reachable from the entry.

use rayon::prelude::*;
use rpq_data::Dataset;
use rpq_linalg::distance::sq_l2;

use crate::beam::SearchScratch;
use crate::construction::{medoid, repair_connectivity, search_adj, select_diverse};
use crate::knn::{brute_force_knn_graph, nn_descent, KNN_K};
use crate::pg::ProximityGraph;

/// Maximum out-degree R: the degree budget of the Vamana graphs (R 32) and
/// of HNSW's base layer (2·M, M 16) it is compared with, so the graph
/// types differ in which edges they keep, not how many.
const R: usize = 32;
/// Search pool width L when gathering candidates — Vamana's build L.
const L: usize = 64;
/// Up to this size the k-NN init is exact brute force; above it,
/// NN-Descent.
const BRUTE_FORCE_THRESHOLD: usize = 4000;

/// Builds the NSG over `data` (`seed` drives NN-Descent's initialisation on
/// large sets); the entry vertex is the medoid and every vertex is
/// guaranteed reachable from it.
pub fn build_nsg(data: &Dataset, seed: u64) -> ProximityGraph {
    let n = data.len();
    assert!(n > 0, "cannot build a graph over an empty dataset");
    if n == 1 {
        return ProximityGraph::from_adjacency(vec![Vec::new()], 0);
    }
    let knn = if n <= BRUTE_FORCE_THRESHOLD {
        brute_force_knn_graph(data, KNN_K)
    } else {
        nn_descent(data, seed)
    };
    build_from_knn(data, &knn)
}

/// Builds the NSG from a pre-computed k-NN graph.
fn build_from_knn(data: &Dataset, knn: &[Vec<u32>]) -> ProximityGraph {
    let n = data.len();
    assert_eq!(knn.len(), n, "knn graph size mismatch");
    let entry = medoid(data);

    // Per-node candidate pool: visited set of a search for the node's own
    // vector on the kNN graph, plus its kNN list; then MRNG selection.
    let mut adj: Vec<Vec<u32>> = (0..n as u32)
        .into_par_iter()
        .map_init(SearchScratch::new, |scratch, v| {
            let q = data.get(v as usize);
            let (results, expanded) = search_adj(knn, data, q, entry, L, scratch);
            let mut pool: Vec<(f32, u32)> =
                Vec::with_capacity(results.len() + expanded.len() + knn[v as usize].len());
            pool.extend(results);
            pool.extend(expanded);
            for &u in &knn[v as usize] {
                pool.push((sq_l2(q, data.get(u as usize)), u));
            }
            pool.retain(|&(_, u)| u != v);
            pool.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            pool.dedup_by_key(|&mut (_, u)| u);
            // MRNG edge selection: `v→p` is dropped when a kept `q`
            // makes `v→q→p` the shorter detour.
            select_diverse(&pool, data, R, false)
        })
        .collect();
    repair_connectivity(&mut adj, data, knn, entry, R);
    ProximityGraph::from_adjacency(adj, entry)
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
    fn degrees_bounded() {
        let data = toy(300, 1);
        let g = build_nsg(&data, 0);
        // +slack for connectivity-repair edges
        assert!(g.max_degree() <= R + 4, "max degree {}", g.max_degree());
    }

    #[test]
    fn full_reachability_guaranteed() {
        let data = toy(400, 2);
        let g = build_nsg(&data, 0);
        assert_eq!(g.reachable_from_entry(), 400);
    }

    #[test]
    fn nsg_is_navigable() {
        let data = toy(500, 3);
        let g = build_nsg(&data, 0);
        let (_, queries) = data.split_at(480);
        let gt = brute_force_knn(&data, &queries, 10);
        let mut scratch = SearchScratch::new();
        let mut results = Vec::new();
        for q in queries.iter() {
            let est = ExactEstimator::new(&data, q);
            let (res, _) = beam_search(&g, &est, 50, 10, &mut scratch);
            results.push(res.iter().map(|n| n.id).collect::<Vec<_>>());
        }
        let recall = gt.recall(&results);
        assert!(recall > 0.9, "nsg recall too low: {recall}");
    }

    #[test]
    fn tiny_datasets() {
        for n in [1usize, 2, 4] {
            let data = toy(n, 20 + n as u64);
            let g = build_nsg(&data, 0);
            assert_eq!(g.len(), n);
            assert_eq!(g.reachable_from_entry(), n);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = toy(150, 4);
        let a = build_nsg(&data, 0);
        let b = build_nsg(&data, 0);
        assert_eq!(a, b);
    }
}
