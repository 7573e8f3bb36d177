//! HNSW construction (Malkov & Yashunin, TPAMI'18), flattened to its base
//! layer for the common [`ProximityGraph`] abstraction (see crate docs).
//!
//! The insert procedure is the standard one: sample a level from a
//! geometric distribution, greedily descend the upper layers, then at each
//! level ≤ the node's level run an `ef_construction` search and select
//! `M` neighbors with the *heuristic* selection rule (keep a candidate only
//! if it is closer to the new node than to every already-selected
//! neighbor), linking bidirectionally with degree capping.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rpq_data::Dataset;
use rpq_linalg::distance::sq_l2;

use crate::beam::SearchScratch;
use crate::construction::{search_adj, select_diverse, Scored};
use crate::pg::ProximityGraph;

/// HNSW build parameters.
#[derive(Clone, Copy, Debug)]
pub struct HnswConfig {
    /// Target degree M (upper layers); the base layer allows 2M.
    pub m: usize,
    /// Construction beam width.
    pub ef_construction: usize,
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 100,
            seed: 0,
        }
    }
}

impl HnswConfig {
    /// Builds the layered graph and returns its base layer, with the global
    /// entry point as the PG entry vertex.
    pub fn build(&self, data: &Dataset) -> ProximityGraph {
        let n = data.len();
        assert!(n > 0, "cannot build a graph over an empty dataset");
        let m = self.m.max(2);
        let m0 = 2 * m;
        let ml = 1.0 / (m as f64).ln();
        let mut rng = SmallRng::seed_from_u64(self.seed);

        // layers[l] is an adjacency list over all node ids (empty for nodes
        // absent from that layer). Level 0 always contains everyone.
        let mut layers: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); n]];
        let mut levels: Vec<usize> = Vec::with_capacity(n);
        let mut entry: u32 = 0;
        let mut top_level: usize = 0;

        let mut scratch = SearchScratch::new();

        for i in 0..n as u32 {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let level = ((-u.ln() * ml) as usize).min(32);
            levels.push(level);
            while layers.len() <= level {
                layers.push(vec![Vec::new(); n]);
            }
            if i == 0 {
                entry = 0;
                top_level = level;
                continue;
            }

            let q = data.get(i as usize);
            let mut ep = entry;
            // Greedy descent through layers above the node's level.
            let start = top_level.min(layers.len() - 1);
            for l in ((level + 1)..=start).rev() {
                ep = greedy_closest(&layers[l], data, q, ep);
            }
            // Insert into each layer from min(level, top) down to 0.
            for l in (0..=level.min(top_level)).rev() {
                let (results, _) =
                    search_adj(&layers[l], data, q, ep, self.ef_construction, &mut scratch);
                let cap = if l == 0 { m0 } else { m };
                let selected = select_diverse(&results, data, m, true);
                for &s in &selected {
                    layers[l][i as usize].push(s);
                    let list = &mut layers[l][s as usize];
                    list.push(i);
                    if list.len() > cap {
                        let sc: Vec<Scored> = list
                            .iter()
                            .map(|&u2| (sq_l2(data.get(s as usize), data.get(u2 as usize)), u2))
                            .collect();
                        let mut sorted = sc;
                        sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                        *layers[l].get_mut(s as usize).unwrap() =
                            select_diverse(&sorted, data, cap, true);
                    }
                }
                if let Some(&(_, best)) = results.first() {
                    ep = best;
                }
            }
            if level > top_level {
                top_level = level;
                entry = i;
            }
        }

        ProximityGraph::from_adjacency(layers.swap_remove(0), entry)
    }
}

/// Greedy 1-NN walk within one layer (used for the upper-layer descent).
fn greedy_closest(layer: &[Vec<u32>], data: &Dataset, q: &[f32], mut cur: u32) -> u32 {
    let mut cur_d = sq_l2(q, data.get(cur as usize));
    loop {
        let mut improved = false;
        for &u in &layer[cur as usize] {
            let d = sq_l2(q, data.get(u as usize));
            if d < cur_d {
                cur_d = d;
                cur = u;
                improved = true;
            }
        }
        if !improved {
            return cur;
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
    fn base_layer_degrees_bounded() {
        let data = toy(300, 1);
        let g = HnswConfig {
            m: 8,
            ef_construction: 40,
            seed: 0,
        }
        .build(&data);
        assert!(g.max_degree() <= 16, "max degree {}", g.max_degree());
    }

    #[test]
    fn hnsw_is_navigable() {
        let data = toy(500, 2);
        let g = HnswConfig::default().build(&data);
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
        assert!(recall > 0.9, "hnsw recall too low: {recall}");
    }

    #[test]
    fn connectivity_near_total() {
        let data = toy(400, 3);
        let g = HnswConfig::default().build(&data);
        assert!(g.reachable_from_entry() as f32 > 0.99 * 400.0);
    }

    #[test]
    fn handles_tiny_datasets() {
        for n in [1usize, 2, 3, 5] {
            let data = toy(n, 10 + n as u64);
            let g = HnswConfig::default().build(&data);
            assert_eq!(g.len(), n);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = toy(150, 4);
        let a = HnswConfig {
            seed: 5,
            ..Default::default()
        }
        .build(&data);
        let b = HnswConfig {
            seed: 5,
            ..Default::default()
        }
        .build(&data);
        assert_eq!(a, b);
    }
}
