//! Shared helpers for graph builders: greedy beam search over a mutable
//! adjacency-list graph, medoid selection, and DiskANN's RobustPrune.

use rpq_data::Dataset;
use rpq_linalg::distance::sq_l2;

use crate::beam::{DistanceEstimator, ExactEstimator, SearchScratch, VertexFilter};
use crate::pg::reachable;

/// A `(distance, id)` pair ascending-ordered by distance.
pub(crate) type Scored = (f32, u32);

/// Greedy beam search over adjacency lists with exact distances.
///
/// Returns `(results, expanded)`: the best `l` vertices found (ascending)
/// and every vertex that was expanded, with distances — the candidate set
/// DiskANN's RobustPrune consumes.
pub(crate) fn search_adj(
    adj: &[Vec<u32>],
    data: &Dataset,
    query: &[f32],
    entry: u32,
    l: usize,
    scratch: &mut SearchScratch,
) -> (Vec<Scored>, Vec<Scored>) {
    let est = ExactEstimator::new(data, query);
    let all = VertexFilter::all();
    scratch.start(adj.len(), l, entry, est.distance(entry), &all);
    let mut expanded: Vec<Scored> = Vec::new();
    while let Some((d, v)) = scratch.pop_closest() {
        expanded.push((d, v));
        scratch.expand(&adj[v as usize], &est, &all);
    }
    (scratch.best(false).collect(), expanded)
}

/// Index of the vector closest to the dataset mean (the medoid both Vamana
/// and NSG use as their fixed entry vertex).
pub(crate) fn medoid(data: &Dataset) -> u32 {
    medoid_subset(data, &(0..data.len() as u32).collect::<Vec<_>>())
}

/// Medoid restricted to a subset: the member of `ids` closest to the mean
/// of the vectors in `ids`. Consolidation re-centres the entry vertex on the
/// survivors with this (DESIGN.md §8.3).
pub(crate) fn medoid_subset(data: &Dataset, ids: &[u32]) -> u32 {
    assert!(!ids.is_empty(), "medoid of an empty set");
    let d = data.dim();
    let mut mean = vec![0.0f64; d];
    for &i in ids {
        for (m, &x) in mean.iter_mut().zip(data.get(i as usize)) {
            *m += x as f64;
        }
    }
    let mean: Vec<f32> = mean
        .iter()
        .map(|&m| (m / ids.len() as f64) as f32)
        .collect();
    let mut best = (f32::INFINITY, ids[0]);
    for &i in ids {
        let dist = sq_l2(&mean, data.get(i as usize));
        if dist < best.0 {
            best = (dist, i);
        }
    }
    best.1
}

/// Makes every vertex reachable from `entry`: repeatedly BFS, then attach
/// each unreachable vertex from its nearest reachable candidate in `knn`
/// (or directly from the entry as a last resort). Attach points with spare
/// capacity (< r + 2 edges) are preferred so repair edges spread out instead
/// of piling onto one boundary hub and blowing the degree bound. Shared by
/// the NSG builder and the streaming consolidation pass (DESIGN.md §8.3).
pub(crate) fn repair_connectivity(
    adj: &mut [Vec<u32>],
    data: &Dataset,
    knn: &[Vec<u32>],
    entry: u32,
    r: usize,
) {
    let n = adj.len();
    let cap = r + 2;
    loop {
        let mut seen = reachable(n, entry, |v| &adj[v as usize]);
        let unreachable: Vec<u32> = (0..n as u32).filter(|&v| !seen[v as usize]).collect();
        if unreachable.is_empty() {
            return;
        }
        let mut progressed = false;
        for &u in &unreachable {
            // Nearest reachable vertex among u's kNN, preferring vertices
            // that still have repair capacity.
            let mut best: Option<(f32, u32)> = None;
            let mut best_full: Option<(f32, u32)> = None;
            for &c in &knn[u as usize] {
                if seen[c as usize] {
                    let d = sq_l2(data.get(u as usize), data.get(c as usize));
                    let slot = if adj[c as usize].len() < cap {
                        &mut best
                    } else {
                        &mut best_full
                    };
                    if slot.map(|(bd, _)| d < bd).unwrap_or(true) {
                        *slot = Some((d, c));
                    }
                }
            }
            if let Some((_, c)) = best.or(best_full) {
                if !adj[c as usize].contains(&u) {
                    adj[c as usize].push(u);
                    // Mark immediately so later repairs in this pass can
                    // chain through `u` instead of all funnelling into the
                    // same boundary vertices.
                    seen[u as usize] = true;
                    progressed = true;
                }
            }
        }
        if !progressed {
            // Last resort: wire the first unreachable vertex from the entry.
            let u = unreachable[0];
            if !adj[entry as usize].contains(&u) {
                adj[entry as usize].push(u);
            } else {
                return; // cannot make progress; avoid an infinite loop
            }
        }
    }
}

/// DiskANN's RobustPrune (Jayaram Subramanya et al., NeurIPS'19): greedily
/// keeps the closest candidate and discards every other candidate `v` that
/// is `alpha`-dominated by it (`alpha · δ(p*, v) ≤ δ(p, v)`), until `r`
/// neighbors are selected.
///
/// `candidates` are `(distance to p, id)` pairs; `p` itself and duplicates
/// are removed here.
pub(crate) fn robust_prune(
    p: u32,
    mut candidates: Vec<Scored>,
    data: &Dataset,
    alpha: f32,
    r: usize,
) -> Vec<u32> {
    candidates.retain(|&(_, v)| v != p);
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    candidates.dedup_by_key(|&mut (_, v)| v);
    let mut selected: Vec<u32> = Vec::with_capacity(r);
    while let Some(&(_, pstar)) = candidates.first() {
        selected.push(pstar);
        if selected.len() >= r {
            break;
        }
        let pstar_vec = data.get(pstar as usize);
        candidates.retain(|&(d_pv, v)| {
            if v == pstar {
                return false;
            }
            let d_cv = sq_l2(pstar_vec, data.get(v as usize));
            alpha * d_cv > d_pv
        });
    }
    selected
}

/// The relative-neighborhood selection rule HNSW's heuristic (Malkov &
/// Yashunin, TPAMI'18) and NSG's MRNG edge selection (Fu et al., VLDB'19)
/// share: scanning `candidates` ascending by distance to the vertex being
/// linked, keep `c` unless an already-kept `s` occludes it
/// (`δ(c, s) < δ(c, vertex)`, i.e. the edge is shadowed by the path through
/// `s`), until `m` are kept. With `top_up` — HNSW's keepPrunedConnections —
/// a list the rule starved is filled with the closest remaining candidates.
///
/// Unlike [`robust_prune`] the comparison is not strict-dominance with
/// slack, so the two are kept apart: an exact tie would choose differently.
pub(crate) fn select_diverse(
    candidates: &[Scored],
    data: &Dataset,
    m: usize,
    top_up: bool,
) -> Vec<u32> {
    let mut selected: Vec<u32> = Vec::with_capacity(m);
    for &(d, c) in candidates {
        if selected.len() >= m {
            break;
        }
        let cv = data.get(c as usize);
        let occluded = selected
            .iter()
            .any(|&s| sq_l2(cv, data.get(s as usize)) < d);
        if !occluded {
            selected.push(c);
        }
    }
    if top_up {
        for &(_, c) in candidates {
            if selected.len() >= m {
                break;
            }
            if !selected.contains(&c) {
                selected.push(c);
            }
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> Dataset {
        let mut d = Dataset::new(1);
        for i in 0..n {
            d.push(&[i as f32]);
        }
        d
    }

    fn seeded(n: usize, seed: u64) -> Dataset {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut d = Dataset::new(6);
        for _ in 0..n {
            let v: Vec<f32> = (0..6).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            d.push(&v);
        }
        d
    }

    #[test]
    fn medoid_of_line_is_middle() {
        let d = line(9);
        assert_eq!(medoid(&d), 4);
    }

    #[test]
    fn medoid_is_medoid_subset_over_every_id() {
        // The pre-merge full-dataset body, kept here as the oracle.
        fn medoid_oracle(data: &Dataset) -> u32 {
            let n = data.len();
            let mut mean = vec![0.0f64; data.dim()];
            for v in data.iter() {
                for (m, &x) in mean.iter_mut().zip(v) {
                    *m += x as f64;
                }
            }
            let mean: Vec<f32> = mean.iter().map(|&m| (m / n as f64) as f32).collect();
            let mut best = (f32::INFINITY, 0u32);
            for (i, v) in data.iter().enumerate() {
                let dist = sq_l2(&mean, v);
                if dist < best.0 {
                    best = (dist, i as u32);
                }
            }
            best.1
        }
        for seed in 0..5 {
            let data = seeded(257, seed);
            let all: Vec<u32> = (0..257).collect();
            assert_eq!(medoid(&data), medoid_subset(&data, &all), "seed {seed}");
            assert_eq!(medoid(&data), medoid_oracle(&data), "seed {seed}");
        }
    }

    /// NSG's pre-merge MRNG selection, verbatim: the no-top-up oracle.
    fn mrng_select(pool: &[Scored], data: &Dataset, r: usize) -> Vec<u32> {
        let mut selected: Vec<u32> = Vec::with_capacity(r);
        for &(d_vp, p) in pool {
            if selected.len() >= r {
                break;
            }
            let pv = data.get(p as usize);
            let occluded = selected
                .iter()
                .any(|&q| sq_l2(pv, data.get(q as usize)) < d_vp);
            if !occluded {
                selected.push(p);
            }
        }
        selected
    }

    /// HNSW's pre-merge heuristic selection, verbatim: the top-up oracle.
    fn select_heuristic(candidates: &[Scored], data: &Dataset, m: usize) -> Vec<u32> {
        let mut selected: Vec<u32> = Vec::with_capacity(m);
        for &(d_q, c) in candidates {
            if selected.len() >= m {
                break;
            }
            let cv = data.get(c as usize);
            let ok = selected
                .iter()
                .all(|&s| sq_l2(cv, data.get(s as usize)) >= d_q);
            if ok {
                selected.push(c);
            }
        }
        if selected.len() < m {
            for &(_, c) in candidates {
                if selected.len() >= m {
                    break;
                }
                if !selected.contains(&c) {
                    selected.push(c);
                }
            }
        }
        selected
    }

    #[test]
    fn select_diverse_equals_both_pre_merge_selection_rules() {
        for seed in 0..5 {
            let data = seeded(200, 40 + seed);
            // Every other vertex as a candidate of vertex 0, ascending.
            let mut cands: Vec<Scored> = (1..200u32)
                .step_by(2)
                .map(|v| (sq_l2(data.get(0), data.get(v as usize)), v))
                .collect();
            cands.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for m in [1usize, 4, 16, 64, 200] {
                assert_eq!(
                    select_diverse(&cands, &data, m, false),
                    mrng_select(&cands, &data, m),
                    "seed {seed} m {m}"
                );
                let topped = select_diverse(&cands, &data, m, true);
                assert_eq!(
                    topped,
                    select_heuristic(&cands, &data, m),
                    "seed {seed} m {m}"
                );
                assert_eq!(topped.len(), m.min(cands.len()), "top-up fills the list");
            }
        }
    }

    #[test]
    fn search_adj_walks_path() {
        let d = line(20);
        let adj: Vec<Vec<u32>> = (0..20)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push((i - 1) as u32);
                }
                if i + 1 < 20 {
                    v.push((i + 1) as u32);
                }
                v
            })
            .collect();
        let mut scratch = SearchScratch::new();
        let (res, expanded) = search_adj(&adj, &d, &[13.2], 0, 4, &mut scratch);
        assert_eq!(res[0].1, 13);
        assert!(expanded.len() >= 13);
    }

    #[test]
    fn search_adj_equals_beam_search_over_the_same_adjacency() {
        use crate::beam::beam_search;
        use crate::dynamic::DynamicGraph;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        // 300 seeded points; a ring (so everything is reachable) plus five
        // random out-edges per vertex.
        let n = 300u32;
        let mut rng = SmallRng::seed_from_u64(19);
        let mut point = || {
            (0..8)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect::<Vec<_>>()
        };
        let mut data = Dataset::new(8);
        for _ in 0..n {
            data.push(&point());
        }
        let queries: Vec<Vec<f32>> = (0..20).map(|_| point()).collect();
        let adj: Vec<Vec<u32>> = (0..n)
            .map(|v| {
                let mut nbrs = vec![(v + 1) % n];
                nbrs.extend((0..5).map(|_| rng.gen_range(0..n)).filter(|&u| u != v));
                nbrs
            })
            .collect();
        let entry = 17;
        let graph = DynamicGraph::from_adjacency(adj.clone(), entry);

        let mut scratch = SearchScratch::new();
        for q in &queries {
            for l in [1usize, 8, 40] {
                let (res, expanded) = search_adj(&adj, &data, q, entry, l, &mut scratch);
                let est = ExactEstimator::new(&data, q);
                let (want, stats) = beam_search(&graph, &est, l, l, &mut scratch);
                assert_eq!(
                    res.iter()
                        .map(|&(d, v)| (v, d.to_bits()))
                        .collect::<Vec<_>>(),
                    want.iter()
                        .map(|n| (n.id, n.dist.to_bits()))
                        .collect::<Vec<_>>(),
                    "l {l}"
                );
                assert_eq!(expanded.len(), stats.hops, "l {l}");
            }
        }
    }

    #[test]
    fn robust_prune_respects_degree_and_diversity() {
        // Near-duplicates at 1.0/1.1/1.2 on one side and a point at -50 on
        // the other: pruning with alpha=1 from p=0 keeps the nearest and the
        // opposite-direction point, drops the dominated near-duplicates
        // (they are closer to the kept neighbor than to p).
        let mut data = Dataset::new(1);
        for x in [0.0f32, 1.0, 1.1, 1.2, -50.0] {
            data.push(&[x]);
        }
        let cands: Vec<Scored> = (1..5u32)
            .map(|v| (sq_l2(data.get(0), data.get(v as usize)), v))
            .collect();
        let sel = robust_prune(0, cands, &data, 1.0, 4);
        assert!(sel.contains(&1), "closest kept");
        assert!(sel.contains(&4), "opposite-direction point kept: {sel:?}");
        assert!(
            !sel.contains(&2) && !sel.contains(&3),
            "dominated dropped: {sel:?}"
        );
    }

    #[test]
    fn robust_prune_removes_self_and_caps() {
        let mut data = Dataset::new(1);
        for x in 0..10 {
            data.push(&[x as f32]);
        }
        let cands: Vec<Scored> = (0..10u32).map(|v| (v as f32 * v as f32, v)).collect();
        let sel = robust_prune(0, cands, &data, 2.0, 3);
        assert!(sel.len() <= 3);
        assert!(!sel.contains(&0));
    }
}
