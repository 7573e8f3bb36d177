//! Mutable adjacency-list graph for the streaming index (DESIGN.md §8).
//!
//! [`ProximityGraph`] is a frozen CSR — cheap to route over, impossible to
//! patch. `DynamicGraph` is the editable counterpart: plain adjacency lists
//! plus an entry vertex, implementing [`GraphView`] so [`crate::beam_search`]
//! routes over it unchanged. The Vamana incremental operations
//! ([`crate::VamanaConfig::insert_point`] and friends) mutate it in place.

use crate::pg::{GraphView, ProximityGraph};

/// An editable proximity graph: per-vertex neighbor lists and an entry
/// vertex. Unlike [`ProximityGraph`] it may be empty (a streaming index
/// starts with no points), in which case the entry is meaningless until the
/// first vertex arrives.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DynamicGraph {
    adj: Vec<Vec<u32>>,
    entry: u32,
}

impl DynamicGraph {
    /// An empty graph; [`DynamicGraph::push_vertex`] grows it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Thaws a frozen graph into editable adjacency lists.
    pub fn from_graph(g: &ProximityGraph) -> Self {
        let adj = (0..g.len() as u32)
            .map(|v| g.neighbors(v).to_vec())
            .collect();
        Self {
            adj,
            entry: g.entry(),
        }
    }

    /// Wraps existing adjacency lists. Panics on out-of-range neighbors or
    /// entry (mirrors [`ProximityGraph::from_adjacency`], minus the
    /// no-empty-graph restriction).
    pub fn from_adjacency(adj: Vec<Vec<u32>>, entry: u32) -> Self {
        let n = adj.len();
        assert!(
            n == 0 || (entry as usize) < n,
            "entry {entry} out of range ({n} vertices)"
        );
        for (v, list) in adj.iter().enumerate() {
            for &u in list {
                assert!((u as usize) < n, "neighbor {u} of {v} out of range");
            }
        }
        Self { adj, entry }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when there are no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// The entry vertex routing starts from.
    #[inline]
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Re-designates the entry vertex (consolidation re-centres it on the
    /// medoid of the survivors).
    pub fn set_entry(&mut self, entry: u32) {
        assert!((entry as usize) < self.adj.len(), "entry out of range");
        self.entry = entry;
    }

    /// Out-neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// Appends a vertex with the given out-neighbors and returns its id.
    pub fn push_vertex(&mut self, neighbors: Vec<u32>) -> u32 {
        let id = self.adj.len() as u32;
        for &u in &neighbors {
            assert!(u < id, "neighbor {u} of new vertex {id} out of range");
        }
        self.adj.push(neighbors);
        id
    }

    /// Replaces the out-neighbor list of `v`.
    pub fn set_neighbors(&mut self, v: u32, neighbors: Vec<u32>) {
        let n = self.adj.len();
        for &u in &neighbors {
            assert!((u as usize) < n && u != v, "bad neighbor {u} for {v}");
        }
        self.adj[v as usize] = neighbors;
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Vec<u32>>() * self.adj.capacity()
            + self.adj.iter().map(|l| l.capacity() * 4).sum::<usize>()
    }

    /// The raw adjacency lists, for the crate-internal Vamana patch
    /// operations (which share `robust_prune`/`search_adj` with the batch
    /// builder).
    pub(crate) fn adj(&self) -> &[Vec<u32>] {
        &self.adj
    }

    pub(crate) fn adj_mut(&mut self) -> &mut Vec<Vec<u32>> {
        &mut self.adj
    }
}

impl GraphView for DynamicGraph {
    fn len(&self) -> usize {
        DynamicGraph::len(self)
    }

    fn entry(&self) -> u32 {
        DynamicGraph::entry(self)
    }

    fn neighbors(&self, v: u32) -> &[u32] {
        DynamicGraph::neighbors(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thaw_freeze_roundtrip() {
        let adj = vec![vec![1, 2], vec![0], vec![0, 1]];
        let g = ProximityGraph::from_adjacency(adj, 2);
        let dynamic = DynamicGraph::from_graph(&g);
        assert_eq!(dynamic.len(), 3);
        assert_eq!(dynamic.entry(), 2);
        assert_eq!(dynamic.neighbors(0), &[1, 2]);
        let frozen = ProximityGraph::from_adjacency(dynamic.adj().to_vec(), dynamic.entry());
        assert_eq!(frozen, g);
    }

    #[test]
    fn push_and_rewire() {
        let mut g = DynamicGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.push_vertex(vec![]), 0);
        assert_eq!(g.push_vertex(vec![0]), 1);
        assert_eq!(g.push_vertex(vec![0, 1]), 2);
        g.set_neighbors(0, vec![2]);
        g.set_entry(1);
        assert_eq!(g.neighbors(0), &[2]);
        assert_eq!(g.entry(), 1);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.reachable_from_entry(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_vertex_rejects_forward_edge() {
        let mut g = DynamicGraph::new();
        g.push_vertex(vec![1]);
    }

    #[test]
    #[should_panic(expected = "bad neighbor")]
    fn set_neighbors_rejects_self_loop() {
        let mut g = DynamicGraph::from_adjacency(vec![vec![], vec![0]], 0);
        g.set_neighbors(1, vec![1]);
    }
}
