//! Hot-node cache for the hybrid index — DiskANN's "cached beam search".
//!
//! DiskANN pins the nodes closest to the entry point (the ones every query
//! traverses) in RAM, cutting the I/Os per query by the depth of the cached
//! region. This implementation caches whole node blocks (adjacency + full
//! vector) for a configurable number of nodes, selected by BFS distance
//! from the entry vertex — the standard warm-up heuristic — and counts hits
//! and misses so experiments can report the I/O reduction. It holds them in
//! `Nodes`, the disk engine's one decoded layout (batch reads use it too).

use std::sync::atomic::{AtomicU64, Ordering};

use rpq_data::Dataset;
use rpq_graph::ProximityGraph;

/// Decoded nodes, ids ascending, in CSR form — the layout of `rpq-graph`'s
/// HNSW levels: node `i` is `ids[i]`, its neighbors
/// `neighbors[offsets[i]..offsets[i + 1]]`, its vector
/// `vectors[i·dim..(i + 1)·dim]`. A lookup is a binary search.
#[derive(Default)]
pub(crate) struct Nodes {
    ids: Vec<u32>,
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    vectors: Vec<f32>,
    dim: usize,
}

impl Nodes {
    /// Room for `nodes` nodes of `dim` floats with `edges` neighbor ids in
    /// all, so filling it allocates nothing.
    pub(crate) fn with_capacity(nodes: usize, edges: usize, dim: usize) -> Self {
        let mut out = Self {
            ids: Vec::with_capacity(nodes),
            offsets: Vec::with_capacity(nodes + 1),
            neighbors: Vec::with_capacity(edges),
            vectors: Vec::with_capacity(nodes * dim),
            dim,
        };
        out.clear(dim);
        out
    }

    /// Drops every node, keeping the buffers, for nodes of `dim` floats.
    pub(crate) fn clear(&mut self, dim: usize) {
        self.ids.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.neighbors.clear();
        self.vectors.clear();
        self.dim = dim;
    }

    /// Appends node `id`, which must exceed every id already held.
    pub(crate) fn push(
        &mut self,
        id: u32,
        nbrs: impl Iterator<Item = u32>,
        vector: impl Iterator<Item = f32>,
    ) {
        debug_assert!(self.ids.last().is_none_or(|&last| last < id));
        self.ids.push(id);
        self.neighbors.extend(nbrs);
        let end = u32::try_from(self.neighbors.len()).expect("edges overflow the u32 offsets");
        self.offsets.push(end);
        self.vectors.extend(vector);
    }

    /// The adjacency and vector of node `id`, if held.
    pub(crate) fn get(&self, id: u32) -> Option<(&[u32], &[f32])> {
        let i = self.ids.binary_search(&id).ok()?;
        let row = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        let vector = &self.vectors[i * self.dim..][..self.dim];
        Some((&self.neighbors[row], vector))
    }
}

/// A read-only cache of node blocks (neighbors + vector), pre-populated at
/// build time with the nodes nearest (in hops) to the entry.
pub struct NodeCache {
    nodes: Nodes,
    /// Nodes marked during the warm-up BFS (cached nodes + the frontier
    /// enqueued while filling) — the measure of warm-up work.
    warm_work: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Cache effectiveness counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from RAM.
    pub fn hit_rate(&self) -> f32 {
        self.hits as f32 / (self.hits + self.misses).max(1) as f32
    }
}

impl NodeCache {
    /// Caches the `capacity` nodes closest to the entry by BFS, copying
    /// their adjacency and vectors.
    ///
    /// Warm-up work is bounded by the cached region's frontier: once the
    /// cache is full no further neighbors are marked or enqueued, so the
    /// BFS touches at most `capacity · (max_degree + 1)` nodes however
    /// large the graph is.
    pub fn warm(graph: &ProximityGraph, data: &Dataset, capacity: usize) -> Self {
        assert_eq!(graph.len(), data.len(), "graph/dataset size mismatch");
        let mut cached = Vec::with_capacity(capacity.min(graph.len()));
        let mut warm_work = 0usize;
        let mut seen = vec![false; graph.len()];
        let mut queue = std::collections::VecDeque::new();
        if capacity > 0 {
            queue.push_back(graph.entry());
            seen[graph.entry() as usize] = true;
            warm_work += 1;
        }
        while let Some(v) = queue.pop_front() {
            cached.push((v, graph.neighbors(v), data.get(v as usize)));
            if cached.len() >= capacity {
                break; // full: stop expanding, leave the frontier alone
            }
            for &u in graph.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    warm_work += 1;
                    queue.push_back(u);
                }
            }
        }
        Self {
            warm_work,
            ..Self::pin(cached)
        }
    }

    /// Pins an explicit set of node blocks (unique ids, any order), copied
    /// into exactly sized buffers — what the BFS warm-up and
    /// **trace-driven admission** (`DiskIndex::warm_cache_by_trace`, which
    /// ranks nodes by observed access frequency) both fill a cache with.
    pub fn pin<'a>(nodes: impl IntoIterator<Item = (u32, &'a [u32], &'a [f32])>) -> Self {
        let mut lent: Vec<_> = nodes.into_iter().collect();
        lent.sort_unstable_by_key(|&(v, _, _)| v);
        let edges = lent.iter().map(|(_, nbrs, _)| nbrs.len()).sum();
        let dim = lent.first().map_or(0, |(_, _, vector)| vector.len());
        let mut nodes = Nodes::with_capacity(lent.len(), edges, dim);
        for (v, nbrs, vector) in lent {
            nodes.push(v, nbrs.iter().copied(), vector.iter().copied());
        }
        Self {
            warm_work: nodes.ids.len(),
            nodes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Nodes marked during the warm-up BFS — cached nodes plus the
    /// frontier enqueued while the cache was still filling. Bounded by
    /// `capacity · (max_degree + 1)` regardless of graph size. For a
    /// [`NodeCache::pin`] cache this is simply the pinned count.
    pub fn warm_work(&self) -> usize {
        self.warm_work
    }

    /// Number of cached nodes.
    pub fn len(&self) -> usize {
        self.nodes.ids.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes (counted against the RAM budget): the capacities of
    /// the four buffers, the heap the cache holds byte for byte.
    pub fn memory_bytes(&self) -> usize {
        let n = &self.nodes;
        4 * (n.ids.capacity()
            + n.offsets.capacity()
            + n.neighbors.capacity()
            + n.vectors.capacity())
    }

    /// Looks up a node; `Some` is a RAM hit (no disk I/O).
    pub fn get(&self, v: u32) -> Option<(&[u32], &[f32])> {
        let hit = self.nodes.get(v);
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_data::synth::{SynthConfig, ValueTransform};
    use rpq_graph::{GraphView, VamanaConfig};

    fn setup(n: usize) -> (Dataset, ProximityGraph) {
        let data = SynthConfig {
            dim: 8,
            intrinsic_dim: 4,
            clusters: 4,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        }
        .generate(n, 5);
        let graph = VamanaConfig {
            r: 8,
            l: 16,
            ..Default::default()
        }
        .build(&data);
        (data, graph)
    }

    #[test]
    fn warm_cache_contains_entry_region() {
        let (data, graph) = setup(200);
        let cache = NodeCache::warm(&graph, &data, 50);
        assert_eq!(cache.len(), 50);
        assert!(cache.get(graph.entry()).is_some(), "entry must be cached");
    }

    #[test]
    fn cache_returns_correct_content() {
        let (data, graph) = setup(100);
        let cache = NodeCache::warm(&graph, &data, 100);
        for v in [0u32, 42, 99] {
            let (nbrs, vec) = cache.get(v).expect("fully cached");
            assert_eq!(nbrs, graph.neighbors(v));
            assert_eq!(vec, data.get(v as usize));
        }
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let (data, graph) = setup(100);
        let cache = NodeCache::warm(&graph, &data, 10);
        let mut hits = 0;
        let mut misses = 0;
        for v in 0..100u32 {
            if cache.get(v).is_some() {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        let s = cache.stats();
        assert_eq!(s.hits, hits);
        assert_eq!(s.misses, misses);
        assert!(s.hit_rate() > 0.0 && s.hit_rate() < 1.0);
    }

    #[test]
    fn warm_work_is_bounded_by_the_capacity_frontier() {
        let (data, graph) = setup(400);
        let max_degree = (0..graph.len() as u32)
            .map(|v| graph.neighbors(v).len())
            .max()
            .unwrap();
        for capacity in [1usize, 10, 50] {
            let cache = NodeCache::warm(&graph, &data, capacity);
            assert_eq!(cache.len(), capacity);
            // Marked nodes = cached nodes + their enqueued frontier; never
            // the whole graph for a small cache.
            assert!(
                cache.warm_work() <= capacity * (max_degree + 1),
                "capacity {capacity}: warm-up marked {} nodes (max degree {max_degree})",
                cache.warm_work()
            );
        }
        // Capacity 1 is the sharpest case: the entry is cached and nothing
        // is expanded at all (the old code marked the entry's whole
        // neighborhood before noticing it was full).
        let one = NodeCache::warm(&graph, &data, 1);
        assert_eq!(one.warm_work(), 1, "a full cache must not expand");
    }

    #[test]
    fn capacity_larger_than_graph_is_fine() {
        let (data, graph) = setup(30);
        let cache = NodeCache::warm(&graph, &data, 10_000);
        assert_eq!(cache.len(), graph.reachable_from_entry());
    }

    #[test]
    fn pinned_cache_serves_exactly_the_given_entries() {
        let (data, graph) = setup(100);
        let ids = [3u32, 57, 90];
        let cache = NodeCache::pin(
            ids.iter()
                .map(|&v| (v, graph.neighbors(v), data.get(v as usize))),
        );
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.warm_work(), 3);
        for &v in &ids {
            let (nbrs, vec) = cache.get(v).expect("pinned");
            assert_eq!(nbrs, graph.neighbors(v));
            assert_eq!(vec, data.get(v as usize));
        }
        assert!(cache.get(0).is_none(), "unpinned node must miss");
        assert_eq!(cache.stats().hits, 3);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn zero_capacity_cache() {
        let (data, graph) = setup(30);
        let cache = NodeCache::warm(&graph, &data, 0);
        assert!(cache.is_empty());
        assert!(cache.get(graph.entry()).is_none());
    }
}
