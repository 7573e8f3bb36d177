//! The frozen proximity-graph representation shared by all builders.

use std::io::{self, Read, Write};

/// The read surface beam search routes over: any adjacency structure with a
/// designated entry vertex. Implemented by the frozen CSR
/// [`ProximityGraph`] and by the mutable [`crate::DynamicGraph`] the
/// streaming index patches in place (DESIGN.md §8), so one search routine
/// serves both the build-once and the live-corpus paths.
pub trait GraphView {
    /// Number of vertices.
    fn len(&self) -> usize;

    /// True when there are no vertices.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry vertex routing starts from.
    fn entry(&self) -> u32;

    /// Out-neighbors of `v`.
    fn neighbors(&self, v: u32) -> &[u32];

    /// Number of vertices reachable from the entry (a connectivity
    /// diagnostic; NSG's repair step guarantees this equals `len()`).
    fn reachable_from_entry(&self) -> usize {
        if self.is_empty() {
            return 0;
        }
        let seen = reachable(self.len(), self.entry(), |v| self.neighbors(v));
        seen.iter().filter(|&&s| s).count()
    }
}

/// Depth-first reachability over `n` vertices from `entry`: `seen[v]` is
/// true iff a directed path `entry → v` exists. The one traversal behind
/// [`GraphView::reachable_from_entry`] and the builders' connectivity
/// repair.
pub(crate) fn reachable<'a>(
    n: usize,
    entry: u32,
    neighbors: impl Fn(u32) -> &'a [u32],
) -> Vec<bool> {
    let mut seen = vec![false; n];
    let mut stack = vec![entry];
    seen[entry as usize] = true;
    while let Some(v) = stack.pop() {
        for &u in neighbors(v) {
            if !seen[u as usize] {
                seen[u as usize] = true;
                stack.push(u);
            }
        }
    }
    seen
}

impl GraphView for ProximityGraph {
    fn len(&self) -> usize {
        ProximityGraph::len(self)
    }

    fn entry(&self) -> u32 {
        ProximityGraph::entry(self)
    }

    fn neighbors(&self, v: u32) -> &[u32] {
        ProximityGraph::neighbors(self, v)
    }
}

/// A proximity graph (paper Def. 2): one vertex per dataset vector, CSR
/// adjacency, and a designated entry vertex for routing.
#[derive(Clone, Debug, PartialEq)]
pub struct ProximityGraph {
    offsets: Vec<u64>,
    neighbors: Vec<u32>,
    entry: u32,
}

impl ProximityGraph {
    /// Freezes an adjacency-list representation into CSR. Panics if any
    /// neighbor id is out of range or `entry` is not a vertex.
    pub fn from_adjacency(adj: Vec<Vec<u32>>, entry: u32) -> Self {
        let n = adj.len();
        assert!(n > 0, "graph must have at least one vertex");
        assert!(
            (entry as usize) < n,
            "entry {entry} out of range ({n} vertices)"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let total: usize = adj.iter().map(Vec::len).sum();
        let mut neighbors = Vec::with_capacity(total);
        for (v, list) in adj.iter().enumerate() {
            for &u in list {
                assert!((u as usize) < n, "neighbor {u} of {v} out of range");
                debug_assert!(u as usize != v, "self loop at {v}");
                neighbors.push(u);
            }
            offsets.push(neighbors.len() as u64);
        }
        Self {
            offsets,
            neighbors,
            entry,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when there are no vertices (never constructible; kept for API
    /// symmetry).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry vertex routing starts from.
    #[inline]
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Out-neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        debug_assert!(v < self.len());
        &self.neighbors[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f32 {
        self.edge_count() as f32 / self.len() as f32
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        (0..self.len())
            .map(|v| self.neighbors(v as u32).len())
            .max()
            .unwrap_or(0)
    }

    /// Approximate in-memory footprint in bytes (what the in-memory
    /// scenario's budget accounting charges for the graph).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * 8 + self.neighbors.len() * 4
    }

    /// Collects the n-hop neighborhood `N_n(v)` of `v` — Alg. 1 lines 2-10
    /// of the paper: `n` rounds of propagation from `v`'s direct neighbors,
    /// excluding `v` itself, without duplicates.
    pub fn n_hop_neighborhood(&self, v: u32, n_hops: usize) -> Vec<u32> {
        let mut seen = vec![false; self.len()];
        seen[v as usize] = true;
        let mut result: Vec<u32> = Vec::new();
        let mut frontier: Vec<u32> = self.neighbors(v).to_vec();
        for hop in 0..n_hops {
            let mut next = Vec::new();
            for &u in &frontier {
                if seen[u as usize] {
                    continue;
                }
                seen[u as usize] = true;
                result.push(u);
                if hop + 1 < n_hops {
                    next.extend_from_slice(self.neighbors(u));
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        result
    }

    /// Serialises to a simple length-prefixed little-endian binary format.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(b"RPQG")?;
        w.write_all(&(self.len() as u64).to_le_bytes())?;
        w.write_all(&(self.neighbors.len() as u64).to_le_bytes())?;
        w.write_all(&self.entry.to_le_bytes())?;
        for &o in &self.offsets {
            w.write_all(&o.to_le_bytes())?;
        }
        for &nb in &self.neighbors {
            w.write_all(&nb.to_le_bytes())?;
        }
        Ok(())
    }

    /// Deserialises the format written by [`ProximityGraph::write_to`].
    pub fn read_from(r: &mut impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != b"RPQG" {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
        }
        let mut b8 = [0u8; 8];
        r.read_exact(&mut b8)?;
        let n = u64::from_le_bytes(b8) as usize;
        r.read_exact(&mut b8)?;
        let e = u64::from_le_bytes(b8) as usize;
        let mut b4 = [0u8; 4];
        r.read_exact(&mut b4)?;
        let entry = u32::from_le_bytes(b4);
        if n == 0 || entry as usize >= n {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad header"));
        }
        let mut offsets = Vec::with_capacity(n + 1);
        for _ in 0..=n {
            r.read_exact(&mut b8)?;
            offsets.push(u64::from_le_bytes(b8));
        }
        if offsets[0] != 0 || offsets[n] as usize != e || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad offsets"));
        }
        let mut neighbors = Vec::with_capacity(e);
        for _ in 0..e {
            r.read_exact(&mut b4)?;
            let nb = u32::from_le_bytes(b4);
            if nb as usize >= n {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "neighbor out of range",
                ));
            }
            neighbors.push(nb);
        }
        Ok(Self {
            offsets,
            neighbors,
            entry,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> ProximityGraph {
        // 0 - 1 - 2 - ... - (n-1), bidirectional
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
        ProximityGraph::from_adjacency(adj, 0)
    }

    #[test]
    fn csr_basics() {
        let g = path_graph(4);
        assert_eq!(g.len(), 4);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn n_hop_neighborhood_expands() {
        let g = path_graph(7);
        let h1 = g.n_hop_neighborhood(3, 1);
        assert_eq!(sorted(h1), vec![2, 4]);
        let h2 = g.n_hop_neighborhood(3, 2);
        assert_eq!(sorted(h2), vec![1, 2, 4, 5]);
        let h10 = g.n_hop_neighborhood(3, 10);
        assert_eq!(sorted(h10), vec![0, 1, 2, 4, 5, 6]);
    }

    #[test]
    fn n_hop_excludes_self() {
        let g = path_graph(3);
        assert!(!g.n_hop_neighborhood(1, 5).contains(&1));
    }

    #[test]
    fn reachability() {
        let g = path_graph(5);
        assert_eq!(g.reachable_from_entry(), 5);
        // Disconnected: vertex 2 isolated.
        let adj = vec![vec![1], vec![0], vec![]];
        let g2 = ProximityGraph::from_adjacency(adj, 0);
        assert_eq!(g2.reachable_from_entry(), 2);
    }

    #[test]
    fn serialization_roundtrip() {
        let g = path_graph(6);
        let mut buf = Vec::new();
        g.write_to(&mut buf).unwrap();
        let back = ProximityGraph::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(ProximityGraph::read_from(&mut &b"NOPE"[..]).is_err());
        let g = path_graph(3);
        let mut buf = Vec::new();
        g.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(ProximityGraph::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    #[should_panic(expected = "entry 9 out of range")]
    fn bad_entry_panics() {
        let _ = ProximityGraph::from_adjacency(vec![vec![]], 9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_neighbor_panics() {
        let _ = ProximityGraph::from_adjacency(vec![vec![5]], 0);
    }

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v
    }
}
