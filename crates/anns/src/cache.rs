//! Hot-node cache for the hybrid index — DiskANN's "cached beam search".
//!
//! DiskANN pins the nodes closest to the entry point (the ones every query
//! traverses) in RAM, cutting the I/Os per query by the depth of the cached
//! region. This implementation caches whole node blocks (adjacency + full
//! vector) for a configurable number of nodes, selected by BFS distance
//! from the entry vertex — the standard warm-up heuristic — and counts hits
//! and misses so experiments can report the I/O reduction.

use std::collections::HashMap;

use rpq_data::Dataset;
use rpq_graph::ProximityGraph;

/// A read-only cache of node blocks (neighbors + vector), pre-populated at
/// build time with the nodes nearest (in hops) to the entry.
pub struct NodeCache {
    entries: HashMap<u32, CachedNode>,
    /// Nodes marked during the warm-up BFS (cached nodes + the frontier
    /// enqueued while filling) — the measure of warm-up work.
    warm_work: usize,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

struct CachedNode {
    neighbors: Vec<u32>,
    vector: Vec<f32>,
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
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f32 / total as f32
        }
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
        let mut entries = HashMap::with_capacity(capacity.min(graph.len()));
        let mut warm_work = 0usize;
        let mut seen = vec![false; graph.len()];
        let mut queue = std::collections::VecDeque::new();
        if capacity > 0 {
            queue.push_back(graph.entry());
            seen[graph.entry() as usize] = true;
            warm_work += 1;
        }
        while let Some(v) = queue.pop_front() {
            entries.insert(
                v,
                CachedNode {
                    neighbors: graph.neighbors(v).to_vec(),
                    vector: data.get(v as usize).to_vec(),
                },
            );
            if entries.len() >= capacity {
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
            entries,
            warm_work,
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Pins an explicit set of node blocks — the constructor behind
    /// **trace-driven admission** (`DiskIndex::warm_cache_by_trace`): the
    /// caller ranks nodes by observed access frequency and hands over the
    /// winners' adjacency + vectors. Duplicate ids keep the last entry.
    pub fn pin(entries: impl IntoIterator<Item = (u32, Vec<u32>, Vec<f32>)>) -> Self {
        let entries: HashMap<u32, CachedNode> = entries
            .into_iter()
            .map(|(v, neighbors, vector)| (v, CachedNode { neighbors, vector }))
            .collect();
        let warm_work = entries.len();
        Self {
            entries,
            warm_work,
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
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
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate resident bytes (counted against the RAM budget).
    pub fn memory_bytes(&self) -> usize {
        self.entries
            .values()
            .map(|e| e.neighbors.len() * 4 + e.vector.len() * 4 + 16)
            .sum()
    }

    /// Looks up a node; `Some` is a RAM hit (no disk I/O).
    pub fn get(&self, v: u32) -> Option<(&[u32], &[f32])> {
        use std::sync::atomic::Ordering;
        match self.entries.get(&v) {
            Some(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((&e.neighbors, &e.vector))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        use std::sync::atomic::Ordering;
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
        let cache = NodeCache::pin(ids.iter().map(|&v| {
            (
                v,
                graph.neighbors(v).to_vec(),
                data.get(v as usize).to_vec(),
            )
        }));
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
