//! The sampling-based feature extractor (paper §5).
//!
//! **Neighborhood features** (Alg. 1, "n-propagation sampling"): for a
//! vertex `v`, collect its n-hop neighborhood `N_n(v)`, rank it by distance
//! to `v`'s original vector, and draw a positive from the top `k_pos` and a
//! negative from the next `k_neg` — the hard-negative band that makes the
//! triplets informative (Def. 4–5).
//!
//! **Routing features** (Alg. 2): run the index's own beam search with the
//! *current learned quantizer* on sampled queries and record every ranked
//! candidate set `b_i`. Each decision is labelled with the candidate that is
//! truly closest to the query (exact distance) — the correct next hop the
//! routing loss (Eq. 9–10) teaches the quantizer to rank first.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rpq_data::Dataset;
use rpq_graph::{DistanceEstimator, GraphView, ProximityGraph, SearchScratch, VertexFilter};
use rpq_linalg::distance::sq_l2;

/// A contrastive triplet of vertex ids (paper Def. 4–5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Triplet {
    pub anchor: u32,
    pub pos: u32,
    pub neg: u32,
}

/// Propagation depth n of Alg. 1: anchors rank their two-hop
/// neighbourhood, which at the experiments' degree (R 32) holds far more
/// than the `k_pos + k_neg` ≤ 25 vertices any sampler setting keeps.
const N_HOPS: usize = 2;

/// Alg. 1 parameters.
#[derive(Clone, Copy, Debug)]
pub struct TripletSamplerConfig {
    /// Positive-scope size k_pos.
    pub k_pos: usize,
    /// Negative-scope size k_neg.
    pub k_neg: usize,
    pub seed: u64,
}

impl Default for TripletSamplerConfig {
    fn default() -> Self {
        Self {
            k_pos: 8,
            k_neg: 16,
            seed: 0,
        }
    }
}

/// Samples `count` triplets by n-propagation (paper Alg. 1). Anchors are
/// drawn uniformly; vertices whose n-hop neighborhood is too small to
/// provide both scopes are skipped.
pub fn sample_triplets(
    graph: &ProximityGraph,
    data: &Dataset,
    cfg: &TripletSamplerConfig,
    count: usize,
) -> Vec<Triplet> {
    assert_eq!(graph.len(), data.len(), "graph/dataset size mismatch");
    assert!(
        cfg.k_pos >= 1,
        "k_pos must be >= 1 (paper: k_pos ∈ [1, |N_n(v)|))"
    );
    assert!(cfg.k_neg >= 1, "k_neg must be >= 1");
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let n = graph.len();
    let mut out = Vec::with_capacity(count);
    let mut attempts = 0usize;
    let max_attempts = count.saturating_mul(20).max(64);
    while out.len() < count && attempts < max_attempts {
        attempts += 1;
        let v = rng.gen_range(0..n) as u32;
        // Lines 2–10: collect N_n(v).
        let mut hood = graph.n_hop_neighborhood(v, N_HOPS);
        if hood.len() < 2 {
            continue;
        }
        // Line 11: ascending by distance to the anchor's original vector.
        let anchor_vec = data.get(v as usize);
        hood.sort_by(|&a, &b| {
            sq_l2(anchor_vec, data.get(a as usize))
                .total_cmp(&sq_l2(anchor_vec, data.get(b as usize)))
                .then(a.cmp(&b))
        });
        // Line 12: resize to k_pos + k_neg.
        hood.truncate(cfg.k_pos + cfg.k_neg);
        let k_pos_eff = cfg.k_pos.min(hood.len().saturating_sub(1)).max(1);
        if hood.len() <= k_pos_eff {
            continue;
        }
        // Lines 14–19: positive from the top scope, negative from the rest.
        let pos = hood[rng.gen_range(0..k_pos_eff)];
        let neg = hood[rng.gen_range(k_pos_eff..hood.len())];
        out.push(Triplet {
            anchor: v,
            pos,
            neg,
        });
    }
    out
}

/// One routing decision with its supervision label.
#[derive(Clone, Debug)]
pub struct RoutingFeature {
    /// Id of the query vector (an index into the dataset; Alg. 2 line 1
    /// samples queries from the dataset itself).
    pub query: u32,
    /// Ranked candidate ids (the recorded `b_i`), exactly `h` of them.
    pub candidates: Vec<u32>,
    /// Index into `candidates` of the truly closest vertex to the query —
    /// the correct next-hop choice the loss maximises (Eq. 9).
    pub best: usize,
}

/// Decisions recorded per sampled query: the walk stops at this many, so a
/// long walk does not dominate an epoch's routing features.
const MAX_DECISIONS_PER_QUERY: usize = 24;

/// Alg. 2 parameters.
#[derive(Clone, Copy, Debug)]
pub struct RoutingSamplerConfig {
    /// Number of query samples.
    pub n_queries: usize,
    /// Beam width h (the size of every recorded candidate set).
    pub h: usize,
    pub seed: u64,
}

impl Default for RoutingSamplerConfig {
    fn default() -> Self {
        Self {
            n_queries: 16,
            h: 8,
            seed: 0,
        }
    }
}

/// Samples routing features by running the paper's Alg. 2 with the supplied
/// estimator factory (the *current* learned quantizer's ADC distances) and
/// labelling each recorded decision with the exact-distance best candidate.
///
/// `make_estimator` receives a query vector (borrowed from `data`) and
/// returns the estimator the beam search routes with — this is what makes
/// the features reflect the quantizer being trained rather than ideal
/// routing.
///
/// Each walk makes the calls [`rpq_graph::beam_search`] makes —
/// [`GraphView::start_vertex`], [`SearchScratch::start`] at `ef = h`, then
/// pop / expand — and records the pool's best `h` at each pop where it
/// holds `h`, stopping after `MAX_DECISIONS_PER_QUERY` decisions.
pub fn sample_routing_features<'a>(
    graph: &ProximityGraph,
    data: &'a Dataset,
    make_estimator: &dyn Fn(&'a [f32]) -> Box<dyn DistanceEstimator + 'a>,
    cfg: &RoutingSamplerConfig,
) -> Vec<RoutingFeature> {
    assert_eq!(graph.len(), data.len(), "graph/dataset size mismatch");
    assert!(cfg.h >= 2, "beam width h must be >= 2 to rank anything");
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let n = data.len();
    let all = VertexFilter::all();
    let mut scratch = SearchScratch::new();
    let mut out = Vec::new();
    for _ in 0..cfg.n_queries {
        let qid = rng.gen_range(0..n) as u32;
        let q = data.get(qid as usize);
        let est = make_estimator(q);
        let (start, d0, _) = graph.start_vertex(&est, &all);
        scratch.start(n, cfg.h, start, d0, &all);
        let mut kept = 0;
        while let Some((_, v)) = scratch.pop_closest() {
            // Only full beams: the loss batches decisions as fixed h-way
            // softmaxes.
            if scratch.best(false).len() == cfg.h {
                let candidates: Vec<u32> = scratch.best(false).map(|(_, id)| id).collect();
                // Label: the candidate truly closest to the query.
                let best = candidates
                    .iter()
                    .map(|&c| sq_l2(q, data.get(c as usize)))
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.total_cmp(b))
                    .map(|(i, _)| i)
                    .expect("a full beam is non-empty");
                out.push(RoutingFeature {
                    query: qid,
                    candidates,
                    best,
                });
                kept += 1;
                if kept == MAX_DECISIONS_PER_QUERY {
                    break;
                }
            }
            scratch.expand(graph.neighbors(v), &est, &all);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_data::synth::{SynthConfig, ValueTransform};
    use rpq_graph::{beam_search, DistanceEstimator, ExactEstimator, HnswConfig, VamanaConfig};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn setup(n: usize, seed: u64) -> (Dataset, ProximityGraph) {
        let data = SynthConfig {
            dim: 16,
            intrinsic_dim: 6,
            clusters: 6,
            cluster_std: 0.8,
            noise_std: 0.03,
            transform: ValueTransform::Identity,
        }
        .generate(n, seed);
        let graph = VamanaConfig {
            r: 8,
            l: 24,
            ..Default::default()
        }
        .build(&data);
        (data, graph)
    }

    #[test]
    fn triplets_respect_scopes() {
        let (data, graph) = setup(400, 1);
        let cfg = TripletSamplerConfig {
            k_pos: 4,
            k_neg: 8,
            seed: 0,
        };
        let triplets = sample_triplets(&graph, &data, &cfg, 50);
        assert!(!triplets.is_empty());
        for t in &triplets {
            assert_ne!(t.anchor, t.pos);
            assert_ne!(t.pos, t.neg);
            // Scope check: pos must rank before neg in the anchor's sorted
            // n-hop neighborhood.
            let mut hood = graph.n_hop_neighborhood(t.anchor, N_HOPS);
            let av = data.get(t.anchor as usize);
            hood.sort_by(|&a, &b| {
                sq_l2(av, data.get(a as usize))
                    .total_cmp(&sq_l2(av, data.get(b as usize)))
                    .then(a.cmp(&b))
            });
            let pos_rank = hood.iter().position(|&x| x == t.pos).unwrap();
            let neg_rank = hood.iter().position(|&x| x == t.neg).unwrap();
            assert!(pos_rank < cfg.k_pos, "pos outside scope: rank {pos_rank}");
            assert!(neg_rank >= cfg.k_pos, "neg inside positive scope");
            assert!(neg_rank < cfg.k_pos + cfg.k_neg, "neg outside k_neg scope");
        }
    }

    #[test]
    fn positive_is_closer_than_negative_usually() {
        // By construction pos ranks above neg; distances must agree.
        let (data, graph) = setup(400, 2);
        let triplets = sample_triplets(&graph, &data, &TripletSamplerConfig::default(), 60);
        for t in &triplets {
            let av = data.get(t.anchor as usize);
            let dp = sq_l2(av, data.get(t.pos as usize));
            let dn = sq_l2(av, data.get(t.neg as usize));
            assert!(dp <= dn, "triplet ordering violated: {dp} > {dn}");
        }
    }

    #[test]
    fn triplet_count_is_bounded_by_request() {
        let (data, graph) = setup(200, 3);
        let triplets = sample_triplets(&graph, &data, &TripletSamplerConfig::default(), 10);
        assert!(triplets.len() <= 10);
    }

    #[test]
    fn routing_features_have_valid_labels() {
        let (data, graph) = setup(400, 4);
        let cfg = RoutingSamplerConfig {
            n_queries: 8,
            h: 8,
            ..Default::default()
        };
        let feats = sample_routing_features(
            &graph,
            &data,
            &|q| Box::new(ExactEstimator::new(&data, q)) as Box<dyn DistanceEstimator>,
            &cfg,
        );
        assert!(!feats.is_empty(), "no routing features extracted");
        for f in &feats {
            assert_eq!(f.candidates.len(), 8);
            assert!(f.best < 8);
            // The labelled best truly minimises the exact distance.
            let qv = data.get(f.query as usize);
            let best_d = sq_l2(qv, data.get(f.candidates[f.best] as usize));
            for &c in &f.candidates {
                assert!(best_d <= sq_l2(qv, data.get(c as usize)) + 1e-6);
            }
        }
    }

    #[test]
    fn routing_with_exact_estimator_ranks_best_first() {
        // When routing uses exact distances, the recorded sets are already
        // correctly ranked, so the best label is (almost always) index 0.
        let (data, graph) = setup(300, 5);
        let cfg = RoutingSamplerConfig {
            n_queries: 6,
            h: 6,
            ..Default::default()
        };
        let feats = sample_routing_features(
            &graph,
            &data,
            &|q| Box::new(ExactEstimator::new(&data, q)) as Box<dyn DistanceEstimator>,
            &cfg,
        );
        let zero_frac = feats.iter().filter(|f| f.best == 0).count() as f32 / feats.len() as f32;
        assert!(
            zero_frac > 0.9,
            "exact routing should rank best first ({zero_frac})"
        );
    }

    #[test]
    fn triplet_sampler_handles_star_graph() {
        // A hub-and-spoke graph: every vertex's 1-hop neighborhood is tiny,
        // so the sampler must either skip or produce valid in-scope pairs.
        let mut data = Dataset::new(2);
        for i in 0..6 {
            data.push(&[i as f32, 0.0]);
        }
        let adj: Vec<Vec<u32>> = (0..6)
            .map(|i| if i == 0 { (1..6).collect() } else { vec![0] })
            .collect();
        let graph = rpq_graph::ProximityGraph::from_adjacency(adj, 0);
        let cfg = TripletSamplerConfig {
            k_pos: 2,
            k_neg: 4,
            seed: 0,
        };
        let triplets = sample_triplets(&graph, &data, &cfg, 20);
        for t in &triplets {
            assert_ne!(t.pos, t.neg);
            assert_ne!(t.anchor, t.pos);
        }
    }

    #[test]
    fn routing_sampler_skips_underfull_beams() {
        // With h larger than the number of reachable vertices, no decision
        // ever fills the beam, so the sampler returns nothing (rather than
        // ragged batches).
        let (data, graph) = setup(40, 7);
        let cfg = RoutingSamplerConfig {
            n_queries: 4,
            h: 64,
            ..Default::default()
        };
        let feats = sample_routing_features(
            &graph,
            &data,
            &|q| Box::new(ExactEstimator::new(&data, q)) as Box<dyn DistanceEstimator>,
            &cfg,
        );
        assert!(
            feats.is_empty(),
            "{} features from underfull beams",
            feats.len()
        );
    }

    #[test]
    #[should_panic(expected = "k_pos must be >= 1")]
    fn zero_k_pos_rejected() {
        let (data, graph) = setup(50, 8);
        let cfg = TripletSamplerConfig {
            k_pos: 0,
            k_neg: 4,
            seed: 0,
        };
        let _ = sample_triplets(&graph, &data, &cfg, 1);
    }

    #[test]
    fn decisions_per_query_capped() {
        // At h 32 a walk over 1 500 points passes far more than the cap's
        // full-beam pops; a query's decisions are pushed contiguously, one
        // run per query, and the walk stops at the cap.
        let (data, graph) = setup(1_500, 6);
        let cfg = RoutingSamplerConfig {
            n_queries: 3,
            h: 32,
            seed: 1,
        };
        let feats = sample_routing_features(
            &graph,
            &data,
            &|q| Box::new(ExactEstimator::new(&data, q)) as Box<dyn DistanceEstimator>,
            &cfg,
        );
        let runs: Vec<usize> = feats
            .chunk_by(|a, b| a.query == b.query)
            .map(|run| run.len())
            .collect();
        assert!(
            runs.iter().all(|&r| r <= MAX_DECISIONS_PER_QUERY),
            "{runs:?}"
        );
        assert!(
            runs.contains(&MAX_DECISIONS_PER_QUERY),
            "the cap never binds: {runs:?}"
        );
    }

    /// Exact distance floored to `grid`, so that distances tie as ADC
    /// distances do; logs every vertex it scores, in order.
    struct Gridded<'a> {
        exact: ExactEstimator<'a>,
        grid: f32,
        scored: Rc<RefCell<Vec<u32>>>,
    }

    impl DistanceEstimator for Gridded<'_> {
        fn distance(&self, node: u32) -> f32 {
            self.scored.borrow_mut().push(node);
            (self.exact.distance(node) / self.grid).floor() * self.grid
        }
    }

    #[test]
    fn routing_sampler_walks_the_index_beam() {
        // Each walk must score what `beam_search` at ef = h scores for the
        // same query, in the same order, up to where the cap stops it:
        // same start (an HNSW walk scores the descent first), and under
        // ties the pool's admission and tie tail rather than a second
        // beam's. The coarser the grid, the more distances tie.
        let (data, vamana) = setup(1_500, 9);
        let hnsw = HnswConfig {
            m: 8,
            ef_construction: 40,
            seed: 9,
        }
        .build(&data);
        for (name, graph) in [("vamana", &vamana), ("hnsw", &hnsw)] {
            for grid in [0.5f32, 2.0, 8.0] {
                let walks = RefCell::new(Vec::new());
                let cfg = RoutingSamplerConfig {
                    n_queries: 64,
                    h: 8,
                    seed: 3,
                };
                let feats = sample_routing_features(
                    graph,
                    &data,
                    &|q| {
                        let scored = Rc::default();
                        walks.borrow_mut().push((q.to_vec(), Rc::clone(&scored)));
                        Box::new(Gridded {
                            exact: ExactEstimator::new(&data, q),
                            grid,
                            scored,
                        })
                    },
                    &cfg,
                );
                assert!(!feats.is_empty(), "{name}, grid {grid}: no features");
                let mut scratch = SearchScratch::new();
                let diverged = walks
                    .into_inner()
                    .into_iter()
                    .filter(|(q, walk)| {
                        let scored = Rc::default();
                        let est = Gridded {
                            exact: ExactEstimator::new(&data, q),
                            grid,
                            scored: Rc::clone(&scored),
                        };
                        beam_search(graph, &est, cfg.h, 1, &mut scratch);
                        let search = scored.borrow();
                        !search.starts_with(&walk.borrow())
                    })
                    .count();
                assert_eq!(diverged, 0, "{name}, grid {grid}: walks off the beam");
            }
        }
    }
}
