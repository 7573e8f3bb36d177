//! Beam-search routing over a proximity graph (paper §3.1), generic over the
//! distance oracle.
//!
//! Alg. 2's loop body — gather a vertex's unvisited neighbors, score them,
//! offer them to the sorted candidate set — exists once, as
//! [`SearchScratch::expand`]. [`beam_search`] / [`beam_search_filtered`]
//! (exact or ADC estimator over a [`GraphView`]), the graph builders'
//! `search_adj` and `rpq-anns`' disk engine are each
//! [`SearchScratch::start`], then pop / expand until the pool runs dry, with
//! their own work between the two calls. So is `rpq-core`'s routing-feature
//! sampler, which records the ranked candidate set `bᵢ` at each pop of the
//! same loop and stops after a fixed number of decisions.

use rpq_data::Dataset;
use rpq_linalg::distance::sq_l2;

use crate::pg::GraphView;
use crate::pool::CandidatePool;

/// A distance oracle from an implicit query to any graph vertex. One value
/// per `(query, index)` pair — implementations capture the query on
/// construction (e.g. an ADC lookup table is built once per query).
pub trait DistanceEstimator {
    /// Estimated distance from the captured query to vertex `node`.
    fn distance(&self, node: u32) -> f32;

    /// Scores a batch of vertices into `out` (same length as `nodes`).
    ///
    /// [`SearchScratch::expand`] routes every expansion's unvisited neighbors
    /// through this method. The default loops over
    /// [`DistanceEstimator::distance`], and that loop is what every index's
    /// ADC estimator runs; an estimator with a block kernel (the SoA scan
    /// kernel in `rpq-quant`, which no index routes through) may override it.
    ///
    /// Contract: implementations must return **bit-identical** values to
    /// per-node `distance` calls — batching is a layout/throughput
    /// optimisation, never a numerical one — so search results are
    /// independent of how candidates happen to be blocked.
    fn distance_batch(&self, nodes: &[u32], out: &mut [f32]) {
        debug_assert_eq!(nodes.len(), out.len(), "nodes/out length mismatch");
        for (o, &n) in out.iter_mut().zip(nodes) {
            *o = self.distance(n);
        }
    }
}

/// Exact squared-Euclidean distances against the original vectors.
pub struct ExactEstimator<'a> {
    data: &'a Dataset,
    query: &'a [f32],
}

impl<'a> ExactEstimator<'a> {
    pub fn new(data: &'a Dataset, query: &'a [f32]) -> Self {
        assert_eq!(data.dim(), query.len(), "query dimension mismatch");
        Self { data, query }
    }
}

impl DistanceEstimator for ExactEstimator<'_> {
    #[inline]
    fn distance(&self, node: u32) -> f32 {
        sq_l2(self.query, self.data.get(node as usize))
    }
}

impl<T: DistanceEstimator + ?Sized> DistanceEstimator for &T {
    #[inline]
    fn distance(&self, node: u32) -> f32 {
        (**self).distance(node)
    }
    #[inline]
    fn distance_batch(&self, nodes: &[u32], out: &mut [f32]) {
        (**self).distance_batch(nodes, out)
    }
}

impl<T: DistanceEstimator + ?Sized> DistanceEstimator for Box<T> {
    #[inline]
    fn distance(&self, node: u32) -> f32 {
        (**self).distance(node)
    }
    #[inline]
    fn distance_batch(&self, nodes: &[u32], out: &mut [f32]) {
        (**self).distance_batch(nodes, out)
    }
}

/// The one predicate type of the search stack: decides which vertices may
/// appear in a result set. Rejected vertices are still traversed (scored,
/// kept in the working beam, expanded), so graph connectivity survives any
/// filter — see [`SearchScratch::expand`].
///
/// It composes the two predicate sources every index has: a tombstone
/// bitmap (deleted-but-not-yet-consolidated vertices, DESIGN.md §8.2) and
/// an arbitrary user predicate (label filters, DESIGN.md §12). Tombstones
/// are thereby *one instance* of vertex filtering, not a special case:
/// `VertexFilter::tombstones(t)` behaves bit-identically to
/// `VertexFilter::predicate(&|v| !t[v as usize])`.
///
/// An empty filter ([`VertexFilter::all`]) accepts everything and keeps
/// [`beam_search_filtered`] bit-identical to [`beam_search`].
#[derive(Clone, Copy, Default)]
pub struct VertexFilter<'a> {
    tombstones: Option<&'a [bool]>,
    predicate: Option<&'a dyn Fn(u32) -> bool>,
}

impl<'a> VertexFilter<'a> {
    /// Accepts every vertex — the unfiltered path.
    pub fn all() -> Self {
        Self::default()
    }

    /// Accepts vertices whose tombstone slot is `false`.
    pub fn tombstones(tombstones: &'a [bool]) -> Self {
        Self {
            tombstones: Some(tombstones),
            predicate: None,
        }
    }

    /// Accepts vertices satisfying `predicate`.
    pub fn predicate(predicate: &'a dyn Fn(u32) -> bool) -> Self {
        Self {
            tombstones: None,
            predicate: Some(predicate),
        }
    }

    /// This filter further restricted by a user predicate.
    pub fn and_predicate(mut self, predicate: &'a dyn Fn(u32) -> bool) -> Self {
        self.predicate = Some(predicate);
        self
    }

    /// True when no tombstone map and no predicate is attached — the
    /// filter cannot reject anything, so a search keeps no accepted set
    /// beside its candidate pool and never evaluates the filter.
    #[inline]
    pub fn is_all(&self) -> bool {
        self.tombstones.is_none() && self.predicate.is_none()
    }

    /// Whether vertex `v` may be returned as a result.
    #[inline]
    fn accept(&self, v: u32) -> bool {
        if let Some(t) = self.tombstones {
            if t[v as usize] {
                return false;
            }
        }
        match self.predicate {
            Some(p) => p(v),
            None => true,
        }
    }
}

/// A scored vertex.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    pub id: u32,
    pub dist: f32,
}

/// Routing statistics: `hops` is the number of next-hop selections (vertex
/// expansions) and `dist_comps` the number of estimator invocations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    pub hops: usize,
    pub dist_comps: usize,
}

/// Reusable per-thread search state and the traversal step over it: an
/// epoch-stamped visited map, the candidate pools and the gather buffers,
/// driven by every beam loop through [`SearchScratch::start`] /
/// [`SearchScratch::pop_closest`] / [`SearchScratch::expand`]
/// (DESIGN.md §9.5). A warmed scratch makes a query allocate nothing but
/// its result `Vec` (perf-book: reuse workhorse collections).
///
/// The visited map holds one byte per vertex: a vertex is visited when its
/// stamp equals the current epoch. [`SearchScratch::reset`] starts a new
/// epoch by bumping it, and clears the map only when the one-byte epoch
/// wraps — once every 255 searches — so a query pays nothing per vertex it
/// touched (hnswlib's `VisitedList`). The exact-distance memo is stamped
/// from the same epoch.
pub struct SearchScratch {
    /// Per-vertex stamp; `== epoch` means visited in the running search.
    visited: Vec<u8>,
    /// The running search's stamp. Never 0, so freshly grown slots
    /// (stamp 0) read unvisited.
    epoch: u8,
    /// The routing state of the running search: the global candidate set
    /// `b` of Alg. 2, regardless of filter — it drives admission and
    /// termination.
    pool: CandidatePool,
    /// The best `ef` accepted vertices of a filtered search — what the
    /// caller gets; used only when the filter can reject something.
    accepted: CandidatePool,
    /// Gather buffer, at least as long as the longest neighbor row seen:
    /// an expansion writes every neighbor and keeps the unvisited ones as
    /// a prefix, so the estimator can score them as one batch.
    frontier: Vec<u32>,
    /// Their batch-scored distances (parallel to `frontier`).
    dists: Vec<f32>,
    /// Flat per-vertex f32 slot map stamped from the visited map's epoch —
    /// external engines memoise exact distances here instead of in a
    /// per-query `HashMap`.
    memo_vals: Vec<f32>,
    memo_stamps: Vec<u8>,
    /// The memoised vertices in first-insert order ([`SearchScratch::memo_keys`]).
    memo_keys: Vec<u32>,
}

impl Default for SearchScratch {
    fn default() -> Self {
        Self {
            visited: Vec::new(),
            epoch: 1,
            pool: CandidatePool::default(),
            accepted: CandidatePool::default(),
            frontier: Vec::new(),
            dists: Vec::new(),
            memo_vals: Vec::new(),
            memo_stamps: Vec::new(),
            memo_keys: Vec::new(),
        }
    }
}

impl SearchScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch whose visited map is pre-sized for graphs of up to `n`
    /// vertices, so even the first query allocates nothing. Long-lived
    /// search workers (e.g. the serving layer's thread pool, DESIGN.md §7)
    /// size their scratch to the largest index they route to.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            visited: vec![0; n],
            frontier: Vec::with_capacity(64),
            dists: Vec::with_capacity(64),
            ..Self::default()
        }
    }

    /// Heap bytes currently held — the per-worker memory cost of keeping a
    /// scratch alive between queries.
    pub fn memory_bytes(&self) -> usize {
        self.visited.capacity() * std::mem::size_of::<u8>()
            + self.frontier.capacity() * std::mem::size_of::<u32>()
            + self.dists.capacity() * std::mem::size_of::<f32>()
            + self.pool.memory_bytes()
            + self.accepted.memory_bytes()
            + self.memo_vals.capacity() * std::mem::size_of::<f32>()
            + self.memo_stamps.capacity() * std::mem::size_of::<u8>()
            + self.memo_keys.capacity() * std::mem::size_of::<u32>()
    }

    /// Forgets all visited marks and memoised values without releasing
    /// memory: starts a new epoch, clearing the stamp maps only when the
    /// epoch wraps. [`SearchScratch::start`] resets on entry, so calling
    /// this between queries is optional; it exists for callers that want a
    /// scratch handed to a new index in a known-clean state.
    ///
    /// Epoch safety: a scratch outlives index mutations (DESIGN.md §8). The
    /// index may have *grown* since the marks were made (new slots carry
    /// stamp 0, which no epoch uses) or *shrunk* after a consolidation pass
    /// (the map keeps its length; slots past the index are never read).
    pub fn reset(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visited.fill(0);
            self.memo_stamps.fill(0);
            self.epoch = 1;
        }
        self.memo_keys.clear();
    }

    fn prepare(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        self.reset();
    }

    /// Begins a traversal over a graph of `n` vertices with beam width
    /// `ef`: sizes the visited map, starts a new epoch (forgetting visits
    /// and the memo), resets the routing pool and — only when `filter` can
    /// reject — the accepted pool, then marks and offers the entry vertex
    /// at distance `d0`.
    #[inline]
    pub fn start(&mut self, n: usize, ef: usize, entry: u32, d0: f32, filter: &VertexFilter<'_>) {
        self.prepare(n);
        self.visit(entry);
        self.pool.reset(ef);
        self.pool.offer(d0, entry);
        if !filter.is_all() {
            self.accepted.reset(ef);
            if filter.accept(entry) {
                self.accepted.offer(d0, entry);
            }
        }
    }

    /// The frontier-expansion step of Alg. 2, the only one in the
    /// repository: gathers the unvisited members of `nbrs`, scores them
    /// with one [`DistanceEstimator::distance_batch`] call, and offers each
    /// to the routing pool in neighbor order. Returns how many were scored.
    ///
    /// The gather has no data-dependent branch: every neighbor is stamped
    /// and written to the next frontier slot, and the frontier's length
    /// advances by one only when the neighbor was unvisited.
    ///
    /// Gather-then-score cannot change any result, only the memory access
    /// pattern: distances never depend on pool state, and admission runs in
    /// the same neighbor order with the same (bit-identical, per the
    /// estimator contract) values a score-as-you-go loop would see.
    ///
    /// Vertices failing `filter` are **traversed but never returned** —
    /// scored, kept in the routing pool (tie tail included,
    /// [`CandidatePool::offer`]) and expanded exactly as if unfiltered, so
    /// graph connectivity and the routing path survive intact; only the
    /// accepted pool, which [`SearchScratch::best`] reads for a filtered
    /// search, skips them. This is the tombstone semantics of the streaming
    /// index (DESIGN.md §8.2): deleted points keep carrying traffic until a
    /// consolidation pass re-links their neighborhoods.
    #[inline]
    pub fn expand(
        &mut self,
        nbrs: &[u32],
        est: &impl DistanceEstimator,
        filter: &VertexFilter<'_>,
    ) -> usize {
        if self.frontier.len() < nbrs.len() {
            self.frontier.resize(nbrs.len(), 0);
            self.dists.resize(nbrs.len(), 0.0);
        }
        let mut len = 0;
        for &u in nbrs {
            let fresh = self.visit(u);
            self.frontier[len] = u;
            len += fresh as usize;
        }
        let frontier = &self.frontier[..len];
        let dists = &mut self.dists[..len];
        est.distance_batch(frontier, dists);
        let filtering = !filter.is_all();
        for (&u, &du) in frontier.iter().zip(dists.iter()) {
            self.pool.offer(du, u);
            if filtering && filter.accept(u) {
                self.accepted.offer(du, u);
            }
        }
        len
    }

    /// The closest not-yet-expanded routing candidate, marked expanded;
    /// `None` ends the search ([`CandidatePool::pop_closest`]).
    #[inline]
    pub fn pop_closest(&mut self) -> Option<(f32, u32)> {
        self.pool.pop_closest()
    }

    /// Up to `width` closest unexpanded routing candidates — one pipeline
    /// stage of the disk engine ([`CandidatePool::pop_batch`]).
    #[inline]
    pub fn pop_batch(&mut self, width: usize, out: &mut Vec<(f32, u32)>) {
        self.pool.pop_batch(width, out)
    }

    /// The best `ef` vertices of the running search, ascending by
    /// `(dist, id)`: the accepted pool's when `filtered`, else the routing
    /// pool's.
    #[inline]
    pub fn best(&self, filtered: bool) -> impl ExactSizeIterator<Item = (f32, u32)> + '_ {
        if filtered { &self.accepted } else { &self.pool }.best()
    }

    /// Marks `v` visited; `true` when it was unvisited (first sight).
    /// Valid between [`SearchScratch::start`] and the next reset. The stamp
    /// is written unconditionally, so the call has no branch on the answer.
    #[inline]
    fn visit(&mut self, v: u32) -> bool {
        let slot = &mut self.visited[v as usize];
        let fresh = *slot != self.epoch;
        *slot = self.epoch;
        fresh
    }

    /// Memoises a per-vertex f32 (the disk engine's exact distances) in the
    /// flat slot map. Overwrites any value from the same epoch. The map
    /// sizes itself to the visited map on the first insert beyond it.
    #[inline]
    pub fn memo_insert(&mut self, v: u32, val: f32) {
        let i = v as usize;
        if i >= self.memo_stamps.len() {
            let n = self.visited.len().max(i + 1);
            self.memo_vals.resize(n, 0.0);
            self.memo_stamps.resize(n, 0);
        }
        if self.memo_stamps[i] != self.epoch {
            self.memo_stamps[i] = self.epoch;
            self.memo_keys.push(v);
        }
        self.memo_vals[i] = val;
    }

    /// The vertices memoised this epoch, each once, in first-insert order —
    /// for the disk engine, the node blocks the last search touched.
    #[inline]
    pub fn memo_keys(&self) -> &[u32] {
        &self.memo_keys
    }

    /// The value memoised for `v` this epoch, if any.
    #[inline]
    pub fn memo_get(&self, v: u32) -> Option<f32> {
        let i = v as usize;
        (self.memo_stamps.get(i) == Some(&self.epoch)).then(|| self.memo_vals[i])
    }
}

/// Beam search from the graph's start vertex ([`GraphView::start_vertex`]:
/// the entry, or where the descent through an HNSW graph's levels ends):
/// returns the top-`k` vertices by estimated distance (ascending) plus
/// routing statistics. `ef` is the beam width `h` (clamped up to `k`);
/// `dist_comps` counts the descent's estimator calls too, `hops` only
/// base-layer expansions.
pub fn beam_search<G: GraphView>(
    graph: &G,
    est: &impl DistanceEstimator,
    ef: usize,
    k: usize,
    scratch: &mut SearchScratch,
) -> (Vec<Neighbor>, SearchStats) {
    beam_search_filtered(graph, est, ef, k, scratch, VertexFilter::all())
}

/// [`beam_search`] with a result filter: vertices failing `filter` are
/// traversed but never returned ([`SearchScratch::expand`]).
///
/// A filter that can reject starts at the entry vertex, never at the end
/// of an HNSW descent (DESIGN.md §12.3). From the same start, an
/// all-accepting filter gives a result bit-identical to [`beam_search`]:
/// the accepted set would then contain exactly the candidate pool's best
/// `ef` (a vertex rejected by a full pool at visit time can never re-enter,
/// since the pool's bound only decreases) — so a filter whose
/// [`VertexFilter::is_all`] says so gets no accepted set at all.
///
/// This two-pool variant is the *filter-during-traversal* strategy of
/// DESIGN.md §12; the post-filter-with-ef-inflation alternative is built
/// on [`beam_search`] at the index layer.
pub fn beam_search_filtered<G: GraphView>(
    graph: &G,
    est: &impl DistanceEstimator,
    ef: usize,
    k: usize,
    scratch: &mut SearchScratch,
    filter: VertexFilter<'_>,
) -> (Vec<Neighbor>, SearchStats) {
    let ef = ef.max(k).max(1);
    let mut stats = SearchStats::default();
    if graph.is_empty() {
        return (Vec::new(), stats);
    }
    let (start, d0, comps) = graph.start_vertex(est, &filter);
    scratch.start(graph.len(), ef, start, d0, &filter);
    stats.dist_comps += comps;
    while let Some((_, v)) = scratch.pop_closest() {
        stats.hops += 1;
        stats.dist_comps += scratch.expand(graph.neighbors(v), est, &filter);
    }
    let out = scratch
        .best(!filter.is_all())
        .take(k)
        .map(|(dist, id)| Neighbor { id, dist })
        .collect();
    (out, stats)
}

/// Greedy 1-NN walk over one layer's adjacency from `cur` at estimated
/// distance `cur_d`: each step scores every neighbor of the current vertex
/// and moves to the closest one strictly nearer than it, until none is.
/// Returns the vertex reached, its distance and the estimator calls made.
/// HNSW's build descends its upper layers with it (under an
/// [`ExactEstimator`]) and so does every search that starts at a
/// [`ProximityGraph`](crate::ProximityGraph) with levels
/// ([`GraphView::start_vertex`]).
pub(crate) fn greedy_closest<'a>(
    est: &impl DistanceEstimator,
    neighbors: impl Fn(u32) -> &'a [u32],
    mut cur: u32,
    mut cur_d: f32,
) -> (u32, f32, usize) {
    let mut comps = 0;
    loop {
        let from = cur;
        let row = neighbors(from);
        for &u in row {
            let d = est.distance(u);
            if d < cur_d {
                cur_d = d;
                cur = u;
            }
        }
        comps += row.len();
        if cur == from {
            return (cur, cur_d, comps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pg::ProximityGraph;
    use rpq_data::Dataset;

    /// A 1-D line dataset with a bidirectional path graph: routing from
    /// entry 0 must walk monotonically toward the query.
    fn line_world(n: usize) -> (Dataset, ProximityGraph) {
        let mut ds = Dataset::new(1);
        for i in 0..n {
            ds.push(&[i as f32]);
        }
        let adj: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push((i - 1) as u32);
                }
                if i + 1 < n {
                    v.push((i + 1) as u32);
                }
                v
            })
            .collect();
        (ds, ProximityGraph::from_adjacency(adj, 0))
    }

    #[test]
    fn finds_nearest_on_line() {
        let (ds, g) = line_world(50);
        let q = [37.2f32];
        let est = ExactEstimator::new(&ds, &q);
        let mut scratch = SearchScratch::new();
        let (res, stats) = beam_search(&g, &est, 8, 3, &mut scratch);
        assert_eq!(res[0].id, 37);
        assert_eq!(res[1].id, 38);
        assert_eq!(res[2].id, 36);
        assert!(
            stats.hops >= 37,
            "must walk the line, got {} hops",
            stats.hops
        );
        assert!(stats.dist_comps >= stats.hops);
    }

    #[test]
    fn k_larger_than_ef_is_honoured() {
        let (ds, g) = line_world(20);
        let q = [0.0f32];
        let est = ExactEstimator::new(&ds, &q);
        let mut scratch = SearchScratch::new();
        let (res, _) = beam_search(&g, &est, 1, 5, &mut scratch);
        assert_eq!(res.len(), 5);
    }

    #[test]
    fn results_sorted_ascending() {
        let (ds, g) = line_world(30);
        let q = [14.0f32];
        let est = ExactEstimator::new(&ds, &q);
        let mut scratch = SearchScratch::new();
        let (res, _) = beam_search(&g, &est, 10, 10, &mut scratch);
        for w in res.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn scratch_reuse_across_queries() {
        let (ds, g) = line_world(40);
        let mut scratch = SearchScratch::new();
        for target in [5.0f32, 35.0, 20.0] {
            let q = [target];
            let est = ExactEstimator::new(&ds, &q);
            let (res, _) = beam_search(&g, &est, 8, 1, &mut scratch);
            assert_eq!(res[0].id, target as u32);
        }
    }

    #[test]
    fn presized_scratch_matches_default_scratch() {
        let (ds, g) = line_world(40);
        let q = [23.0f32];
        let est = ExactEstimator::new(&ds, &q);
        let mut fresh = SearchScratch::new();
        let mut sized = SearchScratch::with_capacity(40);
        assert!(sized.memory_bytes() >= 40);
        let (a, _) = beam_search(&g, &est, 8, 3, &mut fresh);
        let (b, _) = beam_search(&g, &est, 8, 3, &mut sized);
        assert_eq!(
            a.iter().map(|n| n.id).collect::<Vec<_>>(),
            b.iter().map(|n| n.id).collect::<Vec<_>>()
        );
        sized.reset();
        let (c, _) = beam_search(&g, &est, 8, 3, &mut sized);
        assert_eq!(
            b.iter().map(|n| n.id).collect::<Vec<_>>(),
            c.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn filtered_all_accepting_is_bit_identical() {
        let (ds, g) = line_world(60);
        for target in [3.0f32, 41.5, 58.0] {
            let q = [target];
            let est = ExactEstimator::new(&ds, &q);
            let mut s1 = SearchScratch::new();
            let mut s2 = SearchScratch::new();
            let (plain, st1) = beam_search(&g, &est, 8, 5, &mut s1);
            let (filt, st2) =
                beam_search_filtered(&g, &est, 8, 5, &mut s2, VertexFilter::predicate(&|_| true));
            assert_eq!(st1, st2);
            assert_eq!(
                plain
                    .iter()
                    .map(|n| (n.id, n.dist.to_bits()))
                    .collect::<Vec<_>>(),
                filt.iter()
                    .map(|n| (n.id, n.dist.to_bits()))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn filtered_traverses_rejected_vertices() {
        // Reject the exact nearest vertex: the search must still route
        // *through* it and return its live neighbors instead.
        let (ds, g) = line_world(50);
        let q = [30.0f32];
        let est = ExactEstimator::new(&ds, &q);
        let mut scratch = SearchScratch::new();
        let not_30 = |v: u32| v != 30;
        let (res, _) = beam_search_filtered(
            &g,
            &est,
            8,
            3,
            &mut scratch,
            VertexFilter::predicate(&not_30),
        );
        let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
        assert!(!ids.contains(&30), "rejected vertex returned: {ids:?}");
        assert!(
            ids.contains(&29) && ids.contains(&31),
            "search must pass through the rejected vertex to both sides: {ids:?}"
        );
    }

    #[test]
    fn vertex_filter_all_is_bit_identical_to_unfiltered() {
        let (ds, g) = line_world(60);
        for target in [3.0f32, 41.5, 58.0] {
            let q = [target];
            let est = ExactEstimator::new(&ds, &q);
            let mut s1 = SearchScratch::new();
            let mut s2 = SearchScratch::new();
            let (plain, st1) = beam_search(&g, &est, 8, 5, &mut s1);
            assert!(VertexFilter::all().is_all());
            let (filt, st2) = beam_search_filtered(&g, &est, 8, 5, &mut s2, VertexFilter::all());
            assert_eq!(st1, st2);
            assert_eq!(
                plain
                    .iter()
                    .map(|n| (n.id, n.dist.to_bits()))
                    .collect::<Vec<_>>(),
                filt.iter()
                    .map(|n| (n.id, n.dist.to_bits()))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn vertex_filter_tombstones_match_the_hand_rolled_closure() {
        // VertexFilter::tombstones must be bit-identical to the
        // `|v| !tombstones[v]` predicate: tombstones are one instance of the
        // filter layer, not a special case.
        let (ds, g) = line_world(50);
        let mut tomb = vec![false; 50];
        for v in [28usize, 30, 31, 44] {
            tomb[v] = true;
        }
        for target in [30.0f32, 45.0] {
            let q = [target];
            let est = ExactEstimator::new(&ds, &q);
            let mut s1 = SearchScratch::new();
            let mut s2 = SearchScratch::new();
            let live = |v: u32| !tomb[v as usize];
            let (a, st_a) =
                beam_search_filtered(&g, &est, 8, 5, &mut s1, VertexFilter::predicate(&live));
            let (b, st_b) =
                beam_search_filtered(&g, &est, 8, 5, &mut s2, VertexFilter::tombstones(&tomb));
            assert_eq!(st_a, st_b);
            assert_eq!(
                a.iter()
                    .map(|n| (n.id, n.dist.to_bits()))
                    .collect::<Vec<_>>(),
                b.iter()
                    .map(|n| (n.id, n.dist.to_bits()))
                    .collect::<Vec<_>>()
            );
            assert!(b.iter().all(|n| !tomb[n.id as usize]));
        }
    }

    #[test]
    fn vertex_filter_composes_tombstones_and_predicate() {
        let (ds, g) = line_world(40);
        let mut tomb = vec![false; 40];
        tomb[20] = true;
        let even = |v: u32| v.is_multiple_of(2);
        let q = [20.0f32];
        let est = ExactEstimator::new(&ds, &q);
        let mut scratch = SearchScratch::new();
        let filter = VertexFilter::tombstones(&tomb).and_predicate(&even);
        assert!(!filter.is_all());
        let (res, _) = beam_search_filtered(&g, &est, 10, 5, &mut scratch, filter);
        assert!(!res.is_empty());
        for n in &res {
            assert!(n.id % 2 == 0, "predicate violated: {}", n.id);
            assert!(!tomb[n.id as usize], "tombstone violated: {}", n.id);
        }
        // 20 is the nearest vertex but tombstoned; 22 and 18 are the
        // nearest even live vertices and must both be found through it.
        let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
        assert!(ids.contains(&18) && ids.contains(&22), "{ids:?}");
    }

    #[test]
    fn scratch_survives_index_growth_and_shrink() {
        // Epoch safety (DESIGN.md §8): one scratch, three index sizes.
        let (small_ds, small_g) = line_world(10);
        let (big_ds, big_g) = line_world(80);
        let mut scratch = SearchScratch::with_capacity(10);
        let q = [7.0f32];
        let est_small = ExactEstimator::new(&small_ds, &q);
        let (a, _) = beam_search(&small_g, &est_small, 4, 1, &mut scratch);
        assert_eq!(a[0].id, 7);
        // Grow: the index now has 8x the points the scratch was sized for.
        let q_big = [63.0f32];
        let est_big = ExactEstimator::new(&big_ds, &q_big);
        let (b, _) = beam_search(&big_g, &est_big, 8, 1, &mut scratch);
        assert_eq!(b[0].id, 63);
        // Back to the small index: the marks the big search left past its
        // end must not panic or leak into the next search.
        let (c, _) = beam_search(&small_g, &est_small, 4, 1, &mut scratch);
        assert_eq!(c[0].id, 7);
        let mut fresh = SearchScratch::new();
        let (d, _) = beam_search(&small_g, &est_small, 4, 1, &mut fresh);
        assert_eq!(
            c.iter().map(|n| n.id).collect::<Vec<_>>(),
            d.iter().map(|n| n.id).collect::<Vec<_>>(),
            "reused scratch diverged from a fresh one"
        );
    }

    #[test]
    fn empty_graph_returns_nothing() {
        use crate::dynamic::DynamicGraph;
        let ds = Dataset::new(1);
        let g = DynamicGraph::new();
        let mut scratch = SearchScratch::new();
        let q = [0.0f32];
        let est = ExactEstimator::new(&ds, &q);
        let (res, stats) = beam_search(&g, &est, 4, 2, &mut scratch);
        assert!(res.is_empty());
        assert_eq!(stats.dist_comps, 0);
    }

    #[test]
    fn disconnected_component_unreachable() {
        let mut ds = Dataset::new(1);
        for i in 0..4 {
            ds.push(&[i as f32]);
        }
        // {0,1} connected, {2,3} separate island; query sits on the island.
        let adj = vec![vec![1], vec![0], vec![3], vec![2]];
        let g = ProximityGraph::from_adjacency(adj, 0);
        let q = [3.0f32];
        let est = ExactEstimator::new(&ds, &q);
        let mut scratch = SearchScratch::new();
        let (res, _) = beam_search(&g, &est, 4, 1, &mut scratch);
        assert_eq!(res[0].id, 1, "search cannot leave the entry component");
    }

    /// The three-heap kernel this crate shipped before the candidate pool,
    /// verbatim: frontier min-heap, bounded max-heap, accepted max-heap. The
    /// pool-driven [`beam_search_filtered`] must equal it for every input.
    mod heap_oracle {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        use super::super::*;

        /// Ordered f32 wrapper for heaps.
        #[derive(PartialEq)]
        struct Scored(f32, u32);
        impl Eq for Scored {}
        impl PartialOrd for Scored {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Scored {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
            }
        }

        pub fn beam_search_filtered<G: GraphView>(
            graph: &G,
            est: &impl DistanceEstimator,
            ef: usize,
            k: usize,
            scratch: &mut SearchScratch,
            accept: impl Fn(u32) -> bool,
        ) -> (Vec<Neighbor>, SearchStats) {
            let ef = ef.max(k).max(1);
            let mut stats = SearchStats::default();
            if graph.is_empty() {
                return (Vec::new(), stats);
            }
            scratch.prepare(graph.len());

            let entry = graph.entry();
            scratch.visit(entry);
            let d0 = est.distance(entry);
            stats.dist_comps += 1;

            // `candidates`: min-heap of frontier vertices; `working`: bounded
            // max-heap of the best `ef` seen regardless of filter (the global
            // candidate set of Alg. 2 — it drives admission and termination);
            // `accepted`: bounded max-heap of the best `ef` accepted vertices,
            // which is what the caller gets.
            let mut candidates: BinaryHeap<Reverse<Scored>> = BinaryHeap::new();
            let mut working: BinaryHeap<Scored> = BinaryHeap::with_capacity(ef + 1);
            let mut accepted: BinaryHeap<Scored> = BinaryHeap::with_capacity(ef + 1);
            candidates.push(Reverse(Scored(d0, entry)));
            working.push(Scored(d0, entry));
            if accept(entry) {
                accepted.push(Scored(d0, entry));
            }

            // The expansion's unvisited neighbors are gathered first and scored as
            // one `distance_batch` call (the SoA ADC kernels turn this into a
            // block-processed table pass, DESIGN.md §9). Distances never depend on
            // heap state, and admission below runs in the same neighbor order with
            // the same (bit-identical, per the estimator contract) values — so this
            // restructure cannot change any result, only the memory access pattern.
            let mut frontier = std::mem::take(&mut scratch.frontier);
            let mut dists = std::mem::take(&mut scratch.dists);
            while let Some(Reverse(Scored(d, v))) = candidates.pop() {
                let worst = working.peek().map(|s| s.0).unwrap_or(f32::INFINITY);
                if working.len() == ef && d > worst {
                    break;
                }
                stats.hops += 1;
                frontier.clear();
                for &u in graph.neighbors(v) {
                    if scratch.visit(u) {
                        frontier.push(u);
                    }
                }
                dists.clear();
                dists.resize(frontier.len(), 0.0);
                est.distance_batch(&frontier, &mut dists);
                stats.dist_comps += frontier.len();
                for (&u, &du) in frontier.iter().zip(dists.iter()) {
                    let worst = working.peek().map(|s| s.0).unwrap_or(f32::INFINITY);
                    if working.len() < ef || du < worst {
                        candidates.push(Reverse(Scored(du, u)));
                        working.push(Scored(du, u));
                        if working.len() > ef {
                            working.pop();
                        }
                    }
                    if accept(u) {
                        let worst_a = accepted.peek().map(|s| s.0).unwrap_or(f32::INFINITY);
                        if accepted.len() < ef || du < worst_a {
                            accepted.push(Scored(du, u));
                            if accepted.len() > ef {
                                accepted.pop();
                            }
                        }
                    }
                }
            }
            scratch.frontier = frontier;
            scratch.dists = dists;

            let mut out: Vec<Neighbor> = accepted
                .into_iter()
                .map(|Scored(d, id)| Neighbor { id, dist: d })
                .collect();
            out.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
            out.truncate(k);
            (out, stats)
        }
    }

    /// Distances looked up from a table, so tests choose them exactly.
    struct TableEstimator(Vec<f32>);

    impl DistanceEstimator for TableEstimator {
        fn distance(&self, node: u32) -> f32 {
            self.0[node as usize]
        }
    }

    fn bits(res: &[Neighbor]) -> Vec<(u32, u32)> {
        res.iter().map(|n| (n.id, n.dist.to_bits())).collect()
    }

    #[test]
    fn evicted_tie_that_is_the_only_route_is_still_expanded() {
        // ef = 2. Expanding entry 0 admits 9, then 1 (both at distance 3,
        // pushing 0 out), then 2 (distance 2), which pushes (3, 9) out of
        // the best two — but 9 *ties* the bound, the search stops only at a
        // candidate strictly farther than it, and 9 is the only way to 5.
        let adj = vec![
            vec![9, 1, 2],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![5],
        ];
        let g = ProximityGraph::from_adjacency(adj, 0);
        let mut table = vec![100.0f32; 10];
        table[0] = 5.0;
        table[9] = 3.0;
        table[1] = 3.0;
        table[2] = 2.0;
        table[5] = 1.0;
        let est = TableEstimator(table);
        let mut scratch = SearchScratch::new();
        let (res, stats) = beam_search(&g, &est, 2, 2, &mut scratch);
        assert_eq!(
            res.iter().map(|n| n.id).collect::<Vec<_>>(),
            vec![5, 2],
            "a pool truncated at ef drops (3, 9) and never reaches 5"
        );
        assert_eq!(stats.hops, 5);
        let (want, want_stats) =
            heap_oracle::beam_search_filtered(&g, &est, 2, 2, &mut scratch, |_| true);
        assert_eq!(bits(&res), bits(&want));
        assert_eq!(stats, want_stats);
    }

    mod pool_equals_heaps {
        use super::*;
        use proptest::prelude::*;

        /// The distances a vertex may get: five integers, so that ties at
        /// the pool boundary are the common case, and the values where
        /// `f32` comparison and `total_cmp` part ways or a packed key could
        /// misorder — a negative value, `-0.0` beside `0.0`, `+inf` and
        /// NaN — so the pool is held to the heaps' order on them too.
        const DISTS: [f32; 9] = [0.0, 1.0, 2.0, 3.0, 4.0, -1.0, -0.0, f32::INFINITY, f32::NAN];

        /// A random directed graph over 2..=20 vertices (no connectivity
        /// promise), a random entry, and distances drawn from [`DISTS`].
        fn world() -> impl Strategy<Value = (ProximityGraph, TableEstimator)> {
            (2usize..=20).prop_flat_map(|n| {
                (
                    proptest::collection::vec(proptest::collection::vec(0u32..n as u32, 0..6), n),
                    proptest::collection::vec(0..DISTS.len(), n),
                    0u32..n as u32,
                )
                    .prop_map(|(mut adj, dists, entry)| {
                        for (v, list) in adj.iter_mut().enumerate() {
                            list.retain(|&u| u as usize != v);
                        }
                        (
                            ProximityGraph::from_adjacency(adj, entry),
                            TableEstimator(dists.into_iter().map(|d| DISTS[d]).collect()),
                        )
                    })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn on_tie_heavy_inputs(
                (graph, est) in world(),
                ef in 1usize..=12,
                k in 1usize..=12,
                // 0: accept all, 1: reject all, else: a random subset.
                mode in 0u32..6,
                mask in proptest::collection::vec(0u32..2, 20),
            ) {
                let k = k.min(ef);
                let accept = |v: u32| match mode {
                    0 => true,
                    1 => false,
                    _ => mask[v as usize] == 1,
                };
                let mut scratch = SearchScratch::new();
                let mut oracle_scratch = SearchScratch::new();

                let (got, got_stats) = beam_search_filtered(
                    &graph, &est, ef, k, &mut scratch, VertexFilter::predicate(&accept),
                );
                let (want, want_stats) = heap_oracle::beam_search_filtered(
                    &graph, &est, ef, k, &mut oracle_scratch, accept,
                );
                prop_assert_eq!(bits(&got), bits(&want));
                prop_assert_eq!(got_stats, want_stats);

                // The unfiltered fast path (no accepted pool) against the
                // oracle's all-accepting filter, on the same warm scratch.
                let (got, got_stats) = beam_search(&graph, &est, ef, k, &mut scratch);
                let (want, want_stats) = heap_oracle::beam_search_filtered(
                    &graph, &est, ef, k, &mut oracle_scratch, |_| true,
                );
                prop_assert_eq!(bits(&got), bits(&want));
                prop_assert_eq!(got_stats, want_stats);
            }
        }
    }

    #[test]
    fn one_scratch_across_beam_widths_and_graphs_matches_fresh_ones() {
        let (big_ds, big_g) = line_world(300);
        let (small_ds, small_g) = line_world(40);
        let odd = |v: u32| v % 2 == 1;
        let mut reused = SearchScratch::new();
        for (ds, g, target) in [(&big_ds, &big_g, 211.3f32), (&small_ds, &small_g, 17.8)] {
            let q = [target];
            let est = ExactEstimator::new(ds, &q);
            for ef in [80usize, 10, 200, 10] {
                let (a, st_a) = beam_search(g, &est, ef, 10, &mut reused);
                let (b, st_b) = beam_search(g, &est, ef, 10, &mut SearchScratch::new());
                assert_eq!(bits(&a), bits(&b), "unfiltered, ef {ef}");
                assert_eq!(st_a, st_b);
                let odd = VertexFilter::predicate(&odd);
                let (a, st_a) = beam_search_filtered(g, &est, ef, 10, &mut reused, odd);
                let (b, st_b) =
                    beam_search_filtered(g, &est, ef, 10, &mut SearchScratch::new(), odd);
                assert_eq!(bits(&a), bits(&b), "filtered, ef {ef}");
                assert_eq!(st_a, st_b);
            }
        }
    }

    #[test]
    fn one_scratch_across_epoch_wraps_matches_fresh_ones() {
        // Three cycles of the one-byte epoch (255 searches each), filtered
        // and unfiltered, then a shrink, then a larger graph. The far query
        // recurs exactly one cycle after it last ran, with only near
        // queries in between: a wrap that kept the stale stamps would see
        // its whole walk past the near region as already visited.
        const CYCLE: usize = u8::MAX as usize;
        fn same_as_fresh(
            g: &ProximityGraph,
            ds: &Dataset,
            target: f32,
            filtered: bool,
            reused: &mut SearchScratch,
        ) {
            let q = [target];
            let est = ExactEstimator::new(ds, &q);
            let odd = |v: u32| v % 2 == 1;
            let filter = if filtered {
                VertexFilter::predicate(&odd)
            } else {
                VertexFilter::all()
            };
            let (a, st_a) = beam_search_filtered(g, &est, 10, 5, reused, filter);
            let (b, st_b) = beam_search_filtered(g, &est, 10, 5, &mut SearchScratch::new(), filter);
            assert_eq!(bits(&a), bits(&b), "target {target}, filtered {filtered}");
            assert_eq!(st_a, st_b, "target {target}, filtered {filtered}");
        }
        let (ds, g) = line_world(300);
        let (small_ds, small_g) = line_world(40);
        let (big_ds, big_g) = line_world(600);
        let mut reused = SearchScratch::new();
        for i in 0..3 * CYCLE {
            let target = if i % CYCLE == 0 {
                290.3
            } else {
                (i % 23) as f32 + 0.4
            };
            same_as_fresh(&g, &ds, target, i % 2 == 1, &mut reused);
        }
        for i in 0..20 {
            same_as_fresh(
                &small_g,
                &small_ds,
                (i * 7 % 40) as f32,
                i % 3 == 0,
                &mut reused,
            );
        }
        for (i, target) in [590.2f32, 310.7, 12.0, 599.0].into_iter().enumerate() {
            same_as_fresh(&big_g, &big_ds, target, i % 2 == 0, &mut reused);
        }
    }

    #[test]
    fn memory_bytes_counts_the_pools() {
        let (ds, g) = line_world(120);
        let q = [90.0f32];
        let est = ExactEstimator::new(&ds, &q);
        let mut scratch = SearchScratch::new();
        let thirds = |v: u32| v.is_multiple_of(3);
        beam_search_filtered(
            &g,
            &est,
            64,
            5,
            &mut scratch,
            VertexFilter::predicate(&thirds),
        );
        let with_pools = scratch.memory_bytes();
        let pool = std::mem::take(&mut scratch.pool);
        let accepted = std::mem::take(&mut scratch.accepted);
        assert!(pool.memory_bytes() >= 64 * 9 && accepted.memory_bytes() > 0);
        assert_eq!(
            with_pools - scratch.memory_bytes(),
            pool.memory_bytes() + accepted.memory_bytes()
        );
        assert!(pool.best().len() > 0 && accepted.best().len() > 0);
    }

    #[test]
    fn memo_slot_map_is_epoch_reset() {
        let mut scratch = SearchScratch::new();
        scratch.prepare(10);
        assert_eq!(scratch.memo_get(3), None);
        scratch.memo_insert(3, 1.5);
        scratch.memo_insert(7, 2.5);
        scratch.memo_insert(3, 9.5); // overwrite within the epoch
        assert_eq!(scratch.memo_get(3), Some(9.5));
        assert_eq!(scratch.memo_get(7), Some(2.5));
        assert_eq!(scratch.memo_get(4), None);
        // A new epoch forgets everything without reallocating.
        scratch.prepare(10);
        assert_eq!(scratch.memo_get(3), None);
        assert_eq!(scratch.memo_get(7), None);
    }

    #[test]
    fn visit_matches_private_mark_semantics() {
        let mut scratch = SearchScratch::new();
        scratch.prepare(5);
        assert!(scratch.visit(2));
        assert!(!scratch.visit(2));
        assert!(scratch.visit(4));
        scratch.prepare(5);
        assert!(scratch.visit(2), "prepare must reset visited marks");
    }

    #[test]
    fn single_vertex_graph() {
        let mut ds = Dataset::new(1);
        ds.push(&[0.0]);
        let g = ProximityGraph::from_adjacency(vec![vec![]], 0);
        let q = [1.0f32];
        let est = ExactEstimator::new(&ds, &q);
        let mut scratch = SearchScratch::new();
        let (res, stats) = beam_search(&g, &est, 4, 2, &mut scratch);
        assert_eq!(res.len(), 1);
        assert_eq!(stats.dist_comps, 1);
    }
}
