//! The frozen proximity-graph representation shared by all builders.

use std::io::{self, Read, Write};

use crate::beam::{greedy_closest, DistanceEstimator, VertexFilter};

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

    /// Where a search under `filter` starts its base-layer beam: the start
    /// vertex, its estimated distance, and the estimator calls spent
    /// finding it. The default is the entry vertex at one call; a
    /// [`ProximityGraph`] with HNSW levels descends them first
    /// (DESIGN.md §6.2).
    #[inline]
    fn start_vertex(
        &self,
        est: &impl DistanceEstimator,
        _filter: &VertexFilter<'_>,
    ) -> (u32, f32, usize) {
        let entry = self.entry();
        (entry, est.distance(entry), 1)
    }

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

    /// Descends the HNSW levels from the entry, top level first, with one
    /// greedy walk per level (Malkov & Yashunin, Alg. 5); a flat graph, or a
    /// search whose filter can reject, starts at the entry (DESIGN.md §6.2,
    /// §12.3).
    #[inline]
    fn start_vertex(
        &self,
        est: &impl DistanceEstimator,
        filter: &VertexFilter<'_>,
    ) -> (u32, f32, usize) {
        let mut start = (self.entry, est.distance(self.entry), 1);
        if filter.is_all() {
            for level in self.levels.iter().rev() {
                let (v, d, comps) = greedy_closest(est, |u| level.row(u), start.0, start.1);
                start = (v, d, start.2 + comps);
            }
        }
        start
    }
}

/// A proximity graph (paper Def. 2): one vertex per dataset vector, CSR
/// adjacency, and a designated entry vertex for routing. An HNSW graph
/// also keeps its levels above the base layer, which
/// [`GraphView::start_vertex`] descends; every other builder's graph is
/// flat.
#[derive(Clone, Debug, PartialEq)]
pub struct ProximityGraph {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    entry: u32,
    /// HNSW levels 1, 2, … bottom-up; empty for a flat graph.
    pub(crate) levels: Vec<Level>,
}

/// One HNSW level above the base layer: a CSR over its members only —
/// about n/m vertices at level 1, n/m² at level 2.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Level {
    /// Member vertex ids, ascending.
    pub(crate) members: Vec<u32>,
    /// `members.len() + 1` row bounds into `neighbors`.
    offsets: Vec<u32>,
    /// Out-neighbors as vertex ids, each a member of this level.
    neighbors: Vec<u32>,
}

impl Level {
    /// Out-neighbors of member `v` (found by binary search over the
    /// members).
    #[inline]
    pub(crate) fn row(&self, v: u32) -> &[u32] {
        let i = self.members.partition_point(|&m| m < v);
        debug_assert_eq!(self.members.get(i), Some(&v), "{v} is not a member");
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    fn memory_bytes(&self) -> usize {
        (self.members.len() + self.offsets.len() + self.neighbors.len()) * 4
    }
}

/// Packs adjacency rows into CSR `(offsets, neighbors)`. Panics if the
/// edge count does not fit the `u32` offsets.
fn pack<'a>(rows: impl ExactSizeIterator<Item = &'a [u32]> + Clone) -> (Vec<u32>, Vec<u32>) {
    let total: usize = rows.clone().map(<[u32]>::len).sum();
    assert!(
        u32::try_from(total).is_ok(),
        "{total} edges overflow the u32 offsets"
    );
    let mut offsets = Vec::with_capacity(rows.len() + 1);
    offsets.push(0);
    let mut neighbors = Vec::with_capacity(total);
    for row in rows {
        neighbors.extend_from_slice(row);
        offsets.push(neighbors.len() as u32);
    }
    (offsets, neighbors)
}

/// CSR offsets over `e` edges: start at 0, never decrease, end at `e`.
fn check_offsets(offsets: &[u32], e: usize) -> Result<(), &'static str> {
    if offsets[0] != 0
        || *offsets.last().unwrap() as usize != e
        || offsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err("bad offsets");
    }
    Ok(())
}

/// The invariants the descent relies on: each level's members ascend,
/// are vertices, and sit on the level below; each level's neighbors are
/// its own members; the entry is on the top level.
fn check_levels(n: usize, entry: u32, levels: &[Level]) -> Result<(), &'static str> {
    let is_member = |level: &Level, v: &u32| level.members.binary_search(v).is_ok();
    for (i, level) in levels.iter().enumerate() {
        let m = &level.members;
        if m.is_empty()
            || m.windows(2).any(|w| w[0] >= w[1])
            || *m.last().unwrap() as usize >= n
            || (i > 0 && !m.iter().all(|v| is_member(&levels[i - 1], v)))
        {
            return Err("bad level members");
        }
        if level.offsets.len() != m.len() + 1 {
            return Err("bad level offsets");
        }
        check_offsets(&level.offsets, level.neighbors.len())?;
        if !level.neighbors.iter().all(|v| is_member(level, v)) {
            return Err("level neighbor off its level");
        }
    }
    match levels.last() {
        Some(top) if !is_member(top, &entry) => Err("entry not on the top level"),
        _ => Ok(()),
    }
}

impl ProximityGraph {
    /// Freezes an adjacency-list representation into a flat CSR graph.
    /// Panics if any neighbor id is out of range, `entry` is not a vertex,
    /// or the edge count overflows `u32`.
    pub fn from_adjacency(adj: Vec<Vec<u32>>, entry: u32) -> Self {
        let n = adj.len();
        assert!(n > 0, "graph must have at least one vertex");
        assert!(
            (entry as usize) < n,
            "entry {entry} out of range ({n} vertices)"
        );
        for (v, list) in adj.iter().enumerate() {
            for &u in list {
                assert!((u as usize) < n, "neighbor {u} of {v} out of range");
                debug_assert!(u as usize != v, "self loop at {v}");
            }
        }
        let (offsets, neighbors) = pack(adj.iter().map(Vec::as_slice));
        Self {
            offsets,
            neighbors,
            entry,
            levels: Vec::new(),
        }
    }

    /// Freezes HNSW's layers: `layers[0]` becomes the base CSR and each
    /// `layers[l]`, l ≥ 1, a level over the vertices whose `node_levels`
    /// entry is at least `l`. Panics unless the levels keep
    /// [`check_levels`]' invariants.
    pub(crate) fn from_layers(
        mut layers: Vec<Vec<Vec<u32>>>,
        node_levels: &[usize],
        entry: u32,
    ) -> Self {
        let upper = layers.split_off(1);
        let mut graph = Self::from_adjacency(layers.swap_remove(0), entry);
        graph.levels = upper
            .iter()
            .zip(1..)
            .map(|(layer, l)| {
                let members: Vec<u32> = (0..graph.len() as u32)
                    .filter(|&v| node_levels[v as usize] >= l)
                    .collect();
                let (offsets, neighbors) =
                    pack(members.iter().map(|&v| layer[v as usize].as_slice()));
                Level {
                    members,
                    offsets,
                    neighbors,
                }
            })
            .collect();
        if let Err(e) = check_levels(graph.len(), entry, &graph.levels) {
            panic!("HNSW levels: {e}");
        }
        graph
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
        (self.offsets.len() + self.neighbors.len()) * 4
            + self.levels.iter().map(Level::memory_bytes).sum::<usize>()
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

    /// Serialises to the version-2 `RPQG` format: little-endian, with the
    /// HNSW levels after the base layer (DESIGN.md §6.2).
    ///
    /// `"RPQG"`, `u64::MAX` (where version 1 has its vertex count), `u32`
    /// version 2, then `u64 n`, `u64 e`, `u32 entry`, `n + 1` `u32`
    /// offsets, `e` `u32` neighbors, `u32` level count, and per level
    /// bottom-up `u64` member count `m`, `u64` edge count `e_l`, `m`
    /// members, `m + 1` offsets, `e_l` neighbors.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(b"RPQG")?;
        w.write_all(&VERSIONED.to_le_bytes())?;
        w.write_all(&2u32.to_le_bytes())?;
        w.write_all(&(self.len() as u64).to_le_bytes())?;
        w.write_all(&(self.neighbors.len() as u64).to_le_bytes())?;
        w.write_all(&self.entry.to_le_bytes())?;
        write_u32s(w, &self.offsets)?;
        write_u32s(w, &self.neighbors)?;
        w.write_all(&(self.levels.len() as u32).to_le_bytes())?;
        for level in &self.levels {
            w.write_all(&(level.members.len() as u64).to_le_bytes())?;
            w.write_all(&(level.neighbors.len() as u64).to_le_bytes())?;
            write_u32s(w, &level.members)?;
            write_u32s(w, &level.offsets)?;
            write_u32s(w, &level.neighbors)?;
        }
        Ok(())
    }

    /// Deserialises either `RPQG` version: version 2 as written by
    /// [`ProximityGraph::write_to`], or version 1 — no version field,
    /// `u64` offsets, no levels — as a flat graph.
    pub fn read_from(r: &mut impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != b"RPQG" {
            return Err(invalid("bad magic"));
        }
        let mut head = read_u64(r)?;
        let version = if head == VERSIONED {
            let version = read_u32(r)?;
            head = read_u64(r)?;
            version
        } else {
            1
        };
        if version != 1 && version != 2 {
            return Err(invalid("unknown version"));
        }
        let n = head as usize;
        let e = read_u64(r)? as usize;
        let entry = read_u32(r)?;
        if n == 0 || n > 1 << 32 || entry as usize >= n {
            return Err(invalid("bad header"));
        }
        let offsets = if version == 1 {
            read_vec(r, n + 1, |r| {
                u32::try_from(read_u64(r)?).map_err(|_| invalid("offset overflows u32"))
            })?
        } else {
            read_vec(r, n + 1, read_u32)?
        };
        check_offsets(&offsets, e).map_err(invalid)?;
        let neighbors = read_vec(r, e, read_u32)?;
        if neighbors.iter().any(|&nb| nb as usize >= n) {
            return Err(invalid("neighbor out of range"));
        }
        let mut levels = Vec::new();
        if version == 2 {
            for _ in 0..read_u32(r)? {
                let m = read_u64(r)? as usize;
                let e_l = read_u64(r)? as usize;
                if m == 0 || m > n {
                    return Err(invalid("bad level header"));
                }
                let members = read_vec(r, m, read_u32)?;
                let offsets = read_vec(r, m + 1, read_u32)?;
                check_offsets(&offsets, e_l).map_err(invalid)?;
                let neighbors = read_vec(r, e_l, read_u32)?;
                levels.push(Level {
                    members,
                    offsets,
                    neighbors,
                });
            }
            check_levels(n, entry, &levels).map_err(invalid)?;
        }
        Ok(Self {
            offsets,
            neighbors,
            entry,
            levels,
        })
    }
}

/// What version 2 writes where version 1 has its vertex count; no graph
/// with `u32` vertex ids has that many vertices.
const VERSIONED: u64 = u64::MAX;

fn invalid(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn write_u32s(w: &mut impl Write, values: &[u32]) -> io::Result<()> {
    values
        .iter()
        .try_for_each(|v| w.write_all(&v.to_le_bytes()))
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// `len` values read by `item`. The up-front reservation is capped, so a
/// corrupt length runs out of input instead of memory.
fn read_vec<R: Read>(
    r: &mut R,
    len: usize,
    mut item: impl FnMut(&mut R) -> io::Result<u32>,
) -> io::Result<Vec<u32>> {
    let mut out = Vec::with_capacity(len.min(1 << 16));
    for _ in 0..len {
        out.push(item(r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beam::{beam_search, ExactEstimator, SearchScratch};
    use crate::hnsw::HnswConfig;
    use rpq_data::synth::DatasetKind;
    use rpq_data::Dataset;

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

    /// The bytes the version-1 writer produced: no version field, `u64`
    /// offsets, the base layer only.
    fn write_v1(g: &ProximityGraph) -> Vec<u8> {
        let mut buf = b"RPQG".to_vec();
        buf.extend((g.len() as u64).to_le_bytes());
        buf.extend((g.edge_count() as u64).to_le_bytes());
        buf.extend(g.entry.to_le_bytes());
        g.offsets
            .iter()
            .for_each(|&o| buf.extend(u64::from(o).to_le_bytes()));
        g.neighbors
            .iter()
            .for_each(|&u| buf.extend(u.to_le_bytes()));
        buf
    }

    fn hnsw_world() -> (Dataset, Dataset, ProximityGraph) {
        let (base, queries) = DatasetKind::Sift.generate(1_500, 20, 9);
        let g = HnswConfig {
            m: 8,
            ef_construction: 40,
            seed: 9,
        }
        .build(&base);
        assert!(g.levels.len() >= 2, "{} levels", g.levels.len());
        (base, queries, g)
    }

    /// FNV-1a over every query's result ids, distance bits and stats.
    fn answers_checksum(g: &ProximityGraph, base: &Dataset, queries: &Dataset) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u32| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        let mut scratch = SearchScratch::new();
        for q in queries.iter() {
            let est = ExactEstimator::new(base, q);
            let (res, stats) = beam_search(g, &est, 40, 10, &mut scratch);
            res.iter().for_each(|n| {
                eat(n.id);
                eat(n.dist.to_bits())
            });
            eat(stats.hops as u32);
            eat(stats.dist_comps as u32);
        }
        h
    }

    #[test]
    fn version_1_reads_flat_with_its_old_answers() {
        let (base, queries, g) = hnsw_world();
        let back = ProximityGraph::read_from(&mut write_v1(&g).as_slice()).unwrap();
        assert!(back.levels.is_empty());
        let flat = ProximityGraph {
            levels: Vec::new(),
            ..g.clone()
        };
        assert_eq!(back, flat);
        // What the same file answered when every search started at the
        // entry vertex.
        assert_eq!(
            answers_checksum(&back, &base, &queries),
            0x3a4a_9f3e_4b41_e61e
        );
        assert_ne!(answers_checksum(&g, &base, &queries), 0x3a4a_9f3e_4b41_e61e);
    }

    #[test]
    fn version_1_offset_past_u32_is_invalid_data() {
        let mut buf = b"RPQG".to_vec();
        buf.extend(2u64.to_le_bytes());
        buf.extend(1u64.to_le_bytes());
        buf.extend(0u32.to_le_bytes());
        for o in [0u64, 1 << 32, 1] {
            buf.extend(o.to_le_bytes());
        }
        buf.extend(1u32.to_le_bytes());
        let err = ProximityGraph::read_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn version_2_roundtrips_the_levels() {
        let (base, queries, g) = hnsw_world();
        let mut buf = Vec::new();
        g.write_to(&mut buf).unwrap();
        let back = ProximityGraph::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, g);
        assert_eq!(
            answers_checksum(&back, &base, &queries),
            answers_checksum(&g, &base, &queries)
        );
    }

    #[test]
    fn version_2_truncated_inside_a_level_is_an_error() {
        let (_, _, g) = hnsw_world();
        let mut buf = Vec::new();
        g.write_to(&mut buf).unwrap();
        // Magic, marker, version, n, e, entry, base CSR, level count.
        let base_end = 4 + 8 + 4 + 8 + 8 + 4 + 4 * (g.len() + 1) + 4 * g.edge_count() + 4;
        assert!(buf.len() > base_end);
        for cut in (base_end..buf.len()).step_by(7) {
            assert!(
                ProximityGraph::read_from(&mut &buf[..cut]).is_err(),
                "cut at {cut} of {}",
                buf.len()
            );
        }
    }

    #[test]
    fn version_2_rejects_a_level_neighbor_off_its_level() {
        let (_, _, mut g) = hnsw_world();
        let outsider = (0..g.len() as u32)
            .find(|v| g.levels[0].members.binary_search(v).is_err())
            .unwrap();
        g.levels[0].neighbors[0] = outsider;
        let mut buf = Vec::new();
        g.write_to(&mut buf).unwrap();
        let err = ProximityGraph::read_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
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
