//! HNSW construction (Malkov & Yashunin, TPAMI'18) into the common
//! [`ProximityGraph`]: the base layer as its CSR, the layers above it as
//! the levels a search descends before its base-layer beam (see crate
//! docs).
//!
//! Each node's insert is the standard one: sample a level from a geometric
//! distribution, greedily descend the upper layers, then at each level ≤
//! the node's level run an `ef_construction` search and select `M`
//! neighbors with the *heuristic* selection rule (keep a candidate only if
//! it is closer to the new node than to every already-selected neighbor),
//! linking bidirectionally with degree capping.
//!
//! Nodes go in by batches (ParlayANN, Manohar et al., PPoPP'24): every
//! level is drawn up front, and each batch holds as many nodes as are
//! already in, up to `BATCH_CAP`; a node that raises the top level goes in
//! alone. A batch's nodes search the frozen layers in parallel; then their
//! out-lists are set, their back-edges are grouped by target, and every
//! target pushed over its cap is re-pruned once over its old list and all
//! its additions. The batches depend only on the seed and the levels, so
//! the graph is the same at every pool width.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use rpq_data::Dataset;
use rpq_linalg::distance::sq_l2;

use crate::beam::{greedy_closest, DistanceEstimator, ExactEstimator, SearchScratch};
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

/// Most nodes one insert batch holds. Batches double with the graph (each
/// holds as many nodes as are already in), up to this cap: the nodes of a
/// batch cannot link to each other, so a wide batch over a small graph
/// would leave it sparse.
const BATCH_CAP: usize = 256;

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
    /// Builds the layered graph: its base layer with the global entry point
    /// as the PG entry vertex, and its upper layers as the graph's levels.
    pub fn build(&self, data: &Dataset) -> ProximityGraph {
        let (layers, levels, entry) = self.build_layers(data);
        ProximityGraph::from_layers(layers, &levels, entry)
    }

    /// The batched insert: every layer's adjacency over all node ids (empty
    /// for nodes absent from it), each node's level, and the entry point.
    fn build_layers(&self, data: &Dataset) -> (Vec<Vec<Vec<u32>>>, Vec<usize>, u32) {
        let n = data.len();
        assert!(n > 0, "cannot build a graph over an empty dataset");
        let m = self.m.max(2);
        let ml = 1.0 / (m as f64).ln();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let levels: Vec<usize> = (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                ((-u.ln() * ml) as usize).min(32)
            })
            .collect();

        // layers[l] is an adjacency list over all node ids (empty for nodes
        // absent from that layer). Level 0 always contains everyone.
        let top = *levels.iter().max().expect("n > 0 draws a level");
        let mut layers = vec![vec![Vec::<u32>::new(); n]; top + 1];
        let mut entry: u32 = 0;
        let mut top_level = levels[0];

        let mut start = 1;
        while start < n {
            // Prefix doubling; a node that raises the top level goes alone.
            let mut end = start + 1;
            if levels[start] <= top_level {
                while end < n && end - start < start.min(BATCH_CAP) && levels[end] <= top_level {
                    end += 1;
                }
            }
            // Each node's out-lists, top layer first, against the frozen layers.
            let found: Vec<Vec<Vec<u32>>> = (start..end)
                .into_par_iter()
                .map_init(SearchScratch::new, |scratch, i| {
                    let q = data.get(i);
                    let est = ExactEstimator::new(data, q);
                    let mut ep = entry;
                    let mut ep_d = est.distance(ep);
                    for l in (levels[i] + 1..=top_level).rev() {
                        (ep, ep_d, _) = greedy_closest(&est, |v| &layers[l][v as usize], ep, ep_d);
                    }
                    let mut lists = Vec::new();
                    for layer in layers[..=levels[i].min(top_level)].iter().rev() {
                        let (results, _) =
                            search_adj(layer, data, q, ep, self.ef_construction, scratch);
                        lists.push(select_diverse(&results, data, m, true));
                        ep = results.first().map_or(ep, |&(_, best)| best);
                    }
                    lists
                })
                .collect();

            let mut back: Vec<(usize, u32, u32)> = Vec::new();
            for (i, lists) in (start..end).zip(found) {
                for (l, list) in (0..lists.len()).rev().zip(lists) {
                    back.extend(list.iter().map(|&s| (l, s, i as u32)));
                    layers[l][i] = list;
                }
                if levels[i] > top_level {
                    top_level = levels[i];
                    entry = i as u32;
                }
            }
            // Each target's back-edges at once: a list over its cap is
            // re-pruned once over its old entries and all of the additions.
            back.sort_unstable();
            let groups: Vec<&[(usize, u32, u32)]> =
                back.chunk_by(|a, b| a.0 == b.0 && a.1 == b.1).collect();
            let updated: Vec<Vec<u32>> = groups
                .par_iter()
                .map(|group| {
                    let (l, s) = (group[0].0, group[0].1);
                    let mut list = layers[l][s as usize].clone();
                    list.extend(group.iter().map(|e| e.2));
                    let cap = if l == 0 { 2 * m } else { m };
                    if list.len() <= cap {
                        return list;
                    }
                    let sv = data.get(s as usize);
                    let mut sc: Vec<Scored> = list
                        .iter()
                        .map(|&u| (sq_l2(sv, data.get(u as usize)), u))
                        .collect();
                    sc.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    select_diverse(&sc, data, cap, true)
                })
                .collect();
            for (group, list) in groups.iter().zip(updated) {
                layers[group[0].0][group[0].1 as usize] = list;
            }
            start = end;
        }

        (layers, levels, entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beam::{beam_search, ExactEstimator, SearchScratch};
    use crate::pg::GraphView;
    use rpq_data::ground_truth::brute_force_knn;
    use rpq_data::synth::{DatasetKind, SynthConfig, ValueTransform};

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

    /// FNV-1a over the entry and every base-layer row (degree, then ids).
    fn base_layer_checksum(g: &ProximityGraph) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u32| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(g.entry());
        for v in 0..g.len() as u32 {
            eat(g.neighbors(v).len() as u32);
            g.neighbors(v).iter().for_each(|&u| eat(u));
        }
        h
    }

    #[test]
    fn base_layer_is_pinned() {
        // The batched insert's graph: prefix-doubling batches up to
        // `BATCH_CAP`, back-edges re-pruned once per target and batch. It
        // is the same at every pool width, since the batches depend only on
        // the drawn levels, and any change to the batch schedule, the
        // upper-layer walk or the re-prune moves it. At efc 100 the
        // construction beam absorbs a changed walk, so the narrow efc 16
        // build is the one that would show it.
        let data = DatasetKind::Sift.config().generate(2_000, 42);
        for (m, ef_construction, entry, edges, sum) in [
            (16, 100, 159, 49_976, 0x3678_928a_7bb0_da4b),
            (8, 16, 1427, 24_624, 0x7d35_3a43_6d22_cc8b),
        ] {
            let g = HnswConfig {
                m,
                ef_construction,
                seed: 42,
            }
            .build(&data);
            assert_eq!((g.entry(), g.edge_count()), (entry, edges), "m {m}");
            assert_eq!(base_layer_checksum(&g), sum, "m {m}");
        }
    }

    #[test]
    fn levels_hold_exactly_the_nodes_drawn_for_them() {
        let data = DatasetKind::Sift.config().generate(2_000, 42);
        let cfg = HnswConfig {
            m: 8,
            ef_construction: 40,
            seed: 7,
        };
        let (layers, node_levels, entry) = cfg.build_layers(&data);
        let g = ProximityGraph::from_layers(layers.clone(), &node_levels, entry);
        let top = *node_levels.iter().max().unwrap();
        assert!(top >= 2, "want several levels, got {top}");
        assert_eq!(g.levels.len(), top);
        assert_eq!(
            node_levels[entry as usize], top,
            "entry is on the top level"
        );
        for (level, l) in g.levels.iter().zip(1..) {
            assert!(level.members.iter().all(|&v| node_levels[v as usize] >= l));
            let drawn = node_levels.iter().filter(|&&nl| nl >= l).count();
            assert_eq!(level.members.len(), drawn, "level {l}");
            for &v in &level.members {
                assert_eq!(level.row(v), layers[l][v as usize].as_slice());
            }
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
