//! The SSD+memory hybrid scenario (paper §7): a DiskANN-style index with a
//! pipelined, batch-issue I/O engine.
//!
//! Layout: one sector-aligned block per node in a single file,
//! `[degree u32][neighbor ids u32 × R][vector f32 × D]`, mirroring
//! DiskANN's node-per-sector packing. In RAM: compact codes + codebook
//! (+ the lookup table per query). Routing ranks candidates with ADC; every
//! expansion fetches the node's block (counted I/O) which also yields the
//! full vector for exact-distance reranking — DiskANN's
//! "PQ distance to route, full precision to rerank" recipe.
//!
//! The search loop is staged (DESIGN.md §10): each iteration pops up to
//! [`DiskIndexConfig::io_width`] frontier candidates (DiskANN's beam width
//! `W`), issues their block reads as one batch (`SectorStore::read_batch`)
//! — which coalesces adjacent blocks into single modeled I/O commands — and
//! charges only the I/O time **not hidden** by the previous stage's ADC
//! scoring (`max(io, compute)` pipeline model, tracked as
//! [`DiskSearchStats::io_stall_seconds`]). At `io_width = 1` the traversal
//! is [`rpq_graph::beam_search`]'s, expansion for expansion, followed by an
//! exact rerank of the best candidates (the tests pin that equality bit for
//! bit); wider widths trade extra speculative reads for stage-level overlap.
//!
//! A read moves only what the engine uses (DESIGN.md §10.1): each coalesced
//! run is copied up to the end of its last node, so a block's trailing
//! sector padding stays in the page cache, and the nodes decode in bulk
//! into the node cache's layout, with buffers sized once per query. The
//! counters and the device model still charge whole sectors, exactly as
//! before.
//!
//! Substitution (DESIGN.md §4.2, §10): instead of a datacenter SSD we use a
//! real file plus a per-sector read latency ([`SsdModel`]); reported "disk
//! I/O time" is modeled, never read off a clock, and QPS charges the
//! modeled stall alongside measured compute. The trade-off curves (Figure
//! 5) are governed by the number of I/Os per query, which is counted
//! exactly (raw sectors and coalesced commands both).

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use rpq_data::{Dataset, LabelPredicate, Labels};
use rpq_graph::{Neighbor, ProximityGraph, SearchScratch, SearchStats, VertexFilter};
use rpq_linalg::distance::sq_l2;
use rpq_quant::{CompactCodes, VectorCompressor};

use crate::cache::{CacheStats, NodeCache, Nodes};
use crate::filter::{self, FilterStrategy};
use crate::serve::{FilteredQuery, ReplicaFault};

#[cfg(unix)]
use std::os::unix::fs::FileExt;

/// The simulated device (DESIGN.md §10.3): every sector read costs one
/// fixed latency, so a batch costs its raw sectors times that latency.
/// There is no device timeline — a query's modeled I/O is a function of
/// what it read, never of when it ran or what else was running.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SsdModel {
    /// Modeled latency of one sector read, µs.
    pub per_sector_us: f32,
}

impl SsdModel {
    /// A device whose every sector read takes `per_sector_us` µs.
    pub fn fixed(per_sector_us: f32) -> Self {
        Self { per_sector_us }
    }

    /// Modeled time of a batch reading `sectors` raw sectors, µs.
    fn batch_us(&self, sectors: usize) -> f32 {
        sectors as f32 * self.per_sector_us
    }
}

/// Hybrid-index configuration.
#[derive(Clone, Debug)]
pub struct DiskIndexConfig {
    /// Sector size the store aligns blocks to (SSD page, 4 KiB).
    pub sector_bytes: usize,
    /// How many top-ADC candidates get exact-distance reranking at the end
    /// (DiskANN reranks the search list; extra reads are charged for
    /// candidates not already fetched).
    pub rerank: usize,
    /// Where the store file lives.
    pub path: PathBuf,
    /// Nodes to pin in RAM (DiskANN's cached beam search; 0 disables the
    /// cache). Warmed by BFS from the entry at build time; replaceable with
    /// trace-driven admission via [`DiskIndex::warm_cache_by_trace`].
    pub cache_nodes: usize,
    /// Frontier candidates fetched per pipeline stage (DiskANN's beam
    /// width `W`). 1 = the serial best-first engine, expanding exactly
    /// what [`rpq_graph::beam_search`] expands.
    pub io_width: usize,
    /// The simulated device (DESIGN.md §10.3); the default is 100 µs per
    /// sector.
    pub ssd: SsdModel,
}

impl DiskIndexConfig {
    /// Defaults with a caller-chosen store path.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            sector_bytes: 4096,
            rerank: 32,
            path: path.into(),
            cache_nodes: 0,
            io_width: 1,
            ssd: SsdModel::fixed(100.0),
        }
    }
}

/// Per-query statistics for the hybrid scenario.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DiskSearchStats {
    /// Next-hop selections.
    pub hops: usize,
    /// ADC estimator invocations.
    pub dist_comps: usize,
    /// Raw sector reads issued (coalescing does not change this count).
    pub io_reads: usize,
    /// Modeled I/O commands after coalescing adjacent blocks — what the
    /// device actually services.
    pub coalesced_ios: usize,
    /// Raw sector reads attributable to the final rerank (candidates never
    /// fetched during routing); included in `io_reads`.
    pub rerank_reads: usize,
    /// Node lookups served from the RAM cache.
    pub cache_hits: usize,
    /// Node lookups that went to the store (or would have, with no cache).
    pub cache_misses: usize,
    /// Modeled device time for all commands, in seconds.
    pub io_seconds: f32,
    /// The part of `io_seconds` **not hidden** behind ADC compute by the
    /// stage pipeline — what the query actually waits for. Equals
    /// `io_seconds` at `io_width = 1` (no overlap in the serial engine).
    pub io_stall_seconds: f32,
}

impl DiskSearchStats {
    /// Accumulates another shard's counters (fan-out totals per query).
    pub fn merge(&mut self, other: &DiskSearchStats) {
        self.hops += other.hops;
        self.dist_comps += other.dist_comps;
        self.io_reads += other.io_reads;
        self.coalesced_ios += other.coalesced_ios;
        self.rerank_reads += other.rerank_reads;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.io_seconds += other.io_seconds;
        self.io_stall_seconds += other.io_stall_seconds;
    }

    /// Fraction of node lookups served from the RAM node cache (0 with no
    /// lookups: cache disabled, or an in-memory search).
    pub fn cache_hit_rate(&self) -> f32 {
        CacheStats {
            hits: self.cache_hits as u64,
            misses: self.cache_misses as u64,
        }
        .hit_rate()
    }
}

/// An in-memory search's stats: the I/O columns stay zero.
impl From<SearchStats> for DiskSearchStats {
    fn from(stats: SearchStats) -> Self {
        Self {
            hops: stats.hops,
            dist_comps: stats.dist_comps,
            ..Default::default()
        }
    }
}

/// A node's adjacency and vector.
type Node<'a> = (&'a [u32], &'a [f32]);

/// The buffers of [`DiskIndex::fetch`], sized once per query: the ids of
/// the last fetch in request order, each with its cache hit (`None` on a
/// miss), the misses, and the batch they were read into.
struct Fetch<'a> {
    plan: Vec<(u32, Option<Node<'a>>)>,
    misses: Vec<u32>,
    batch: BatchRead,
}

impl Fetch<'_> {
    /// Buffers for fetches of up to `width` nodes from `store`.
    fn with_capacity(store: &SectorStore, width: usize) -> Self {
        Self {
            plan: Vec::with_capacity(width),
            misses: Vec::with_capacity(width),
            batch: BatchRead {
                nodes: Nodes::with_capacity(width, width * store.max_degree, store.dim),
                bytes: Vec::with_capacity(store.run_bytes(width)),
                ..BatchRead::default()
            },
        }
    }

    /// The last fetch's nodes in request order: `(id, neighbors, vector)`.
    fn nodes(&self) -> impl Iterator<Item = (u32, &[u32], &[f32])> {
        self.plan.iter().map(|&(v, cached)| {
            let node = cached.or_else(|| self.batch.nodes.get(v));
            let (nbrs, vector) = node.expect("id not in batch read");
            (v, nbrs, vector)
        })
    }
}

/// Reusable result of a [`SectorStore::read_batch`]: the requested nodes,
/// decoded, plus the I/O counts.
#[derive(Default)]
struct BatchRead {
    nodes: Nodes,
    /// Coalesced commands: runs of adjacent requested blocks.
    runs: usize,
    /// Total raw sectors read.
    raw_sectors: usize,
    bytes: Vec<u8>,
}

/// Little-endian 4-byte words, decoded in bulk.
fn le_words(bytes: &[u8]) -> impl Iterator<Item = [u8; 4]> + '_ {
    bytes.as_chunks::<4>().0.iter().copied()
}

/// Sector-aligned on-disk node store.
struct SectorStore {
    file: File,
    block_bytes: usize,
    sectors_per_block: usize,
    max_degree: usize,
    dim: usize,
    n: usize,
}

impl SectorStore {
    fn build(
        path: &Path,
        data: &Dataset,
        graph: &ProximityGraph,
        sector_bytes: usize,
    ) -> io::Result<Self> {
        let n = data.len();
        let dim = data.dim();
        let max_degree = graph.max_degree().max(1);
        let raw = 4 + 4 * max_degree + 4 * dim;
        let block_bytes = raw.div_ceil(sector_bytes) * sector_bytes;
        let mut f = File::create(path)?;
        let mut block = vec![0u8; block_bytes];
        for i in 0..n {
            block.iter_mut().for_each(|b| *b = 0);
            let nbrs = graph.neighbors(i as u32);
            block[0..4].copy_from_slice(&(nbrs.len() as u32).to_le_bytes());
            for (s, &u) in nbrs.iter().enumerate() {
                block[4 + s * 4..8 + s * 4].copy_from_slice(&u.to_le_bytes());
            }
            let voff = 4 + 4 * max_degree;
            for (s, &x) in data.get(i).iter().enumerate() {
                block[voff + s * 4..voff + s * 4 + 4].copy_from_slice(&x.to_le_bytes());
            }
            f.write_all(&block)?;
        }
        f.flush()?;
        let file = File::open(path)?;
        Ok(Self {
            file,
            block_bytes,
            sectors_per_block: block_bytes / sector_bytes,
            max_degree,
            dim,
            n,
        })
    }

    fn read_exact_at_off(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        #[cfg(unix)]
        return self.file.read_exact_at(buf, off);
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut f = self.file.try_clone()?;
            f.seek(SeekFrom::Start(off))?;
            f.read_exact(buf)
        }
    }

    /// Bytes of a block the node occupies: `[degree][ids × R][vector × D]`;
    /// the rest of the block is sector padding.
    fn node_bytes(&self) -> usize {
        4 + 4 * self.max_degree + 4 * self.dim
    }

    /// Bytes a run of `len ≥ 1` adjacent blocks is read as: every block
    /// but the last whole, the last only up to the end of its node.
    fn run_bytes(&self, len: usize) -> usize {
        len.saturating_sub(1) * self.block_bytes + self.node_bytes()
    }

    /// Reads the blocks of `ids` (ascending, unique) as a batch, coalescing
    /// runs of adjacent blocks into single commands: one pread per run,
    /// billed as `run length × sectors_per_block` sectors. Coalescing
    /// changes the command count, never the raw sector count. The pread
    /// copies only up to the end of the run's last node
    /// ([`SectorStore::run_bytes`]): the trailing padding is never read,
    /// while the counters and the device model still charge whole sectors.
    /// A stored degree above `R` is read as `R`.
    fn read_batch(&self, ids: &[u32], out: &mut BatchRead) -> io::Result<()> {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        let r = self.max_degree;
        out.nodes.clear(self.dim);
        out.runs = 0;
        out.raw_sectors = 0;
        let in_range = ids.last().is_none_or(|&v| (v as usize) < self.n);
        assert!(in_range, "node out of range");
        let mut run_start = 0usize;
        while run_start < ids.len() {
            let mut run_end = run_start + 1;
            while run_end < ids.len() && ids[run_end] == ids[run_end - 1] + 1 {
                run_end += 1;
            }
            let run_len = run_end - run_start;
            out.bytes.resize(self.run_bytes(run_len), 0);
            let off = (ids[run_start] as u64) * (self.block_bytes as u64);
            self.read_exact_at_off(&mut out.bytes, off)?;
            for (j, &id) in ids[run_start..run_end].iter().enumerate() {
                let node = &out.bytes[j * self.block_bytes..][..self.node_bytes()];
                let degree = u32::from_le_bytes(node[..4].try_into().unwrap()) as usize;
                let (nbrs, vector) = node[4..].split_at(4 * r);
                let nbrs = &nbrs[..4 * degree.min(r)];
                out.nodes.push(
                    id,
                    le_words(nbrs).map(u32::from_le_bytes),
                    le_words(vector).map(f32::from_le_bytes),
                );
            }
            out.runs += 1;
            out.raw_sectors += run_len * self.sectors_per_block;
            run_start = run_end;
        }
        Ok(())
    }

    fn file_bytes(&self) -> usize {
        self.n * self.block_bytes
    }
}

/// A DiskANN-style hybrid index.
///
/// # Example
///
/// ```
/// use rpq_anns::{DiskIndex, DiskIndexConfig};
/// use rpq_data::synth::{SynthConfig, ValueTransform};
/// use rpq_graph::{SearchScratch, VamanaConfig};
/// use rpq_quant::{PqConfig, ProductQuantizer};
///
/// let data = SynthConfig {
///     dim: 8,
///     intrinsic_dim: 4,
///     clusters: 2,
///     cluster_std: 0.5,
///     noise_std: 0.05,
///     transform: ValueTransform::Identity,
/// }
/// .generate(120, 1);
/// let (base, queries) = data.split_at(100);
/// let graph = VamanaConfig { r: 8, l: 16, ..Default::default() }.build(&base);
/// let pq = ProductQuantizer::train(
///     &PqConfig { m: 4, k: 16, ..Default::default() },
///     &base,
/// );
///
/// // Unique per-process path: concurrent test runs must not share stores.
/// let store = std::env::temp_dir().join(format!("rpq-doctest-{}.store", std::process::id()));
/// let index = DiskIndex::build(pq, &base, &graph, DiskIndexConfig::new(&store)).unwrap();
/// let mut scratch = SearchScratch::new();
/// let (top, stats) = index.search_with_scratch(queries.get(0), 32, 5, &mut scratch);
/// assert_eq!(top.len(), 5);
/// assert!(stats.io_reads > 0); // routing fetched blocks from the store
/// assert!(stats.coalesced_ios <= stats.io_reads);
/// std::fs::remove_file(&store).unwrap();
/// ```
pub struct DiskIndex<C: VectorCompressor> {
    store: SectorStore,
    compressor: C,
    codes: CompactCodes,
    entry: u32,
    cache: Option<NodeCache>,
    /// Per-vector label sets for filtered search (DESIGN.md §12); labels
    /// live in RAM next to the codes — one u32 per vector.
    labels: Option<Labels>,
    cfg: DiskIndexConfig,
}

impl<C: VectorCompressor> DiskIndex<C> {
    /// Writes the node store to `cfg.path` and keeps codes + codebook in
    /// memory.
    pub fn build(
        compressor: C,
        data: &Dataset,
        graph: &ProximityGraph,
        cfg: DiskIndexConfig,
    ) -> io::Result<Self> {
        assert_eq!(graph.len(), data.len(), "graph/dataset size mismatch");
        assert_eq!(compressor.dim(), data.dim(), "compressor dim mismatch");
        let store = SectorStore::build(&cfg.path, data, graph, cfg.sector_bytes.max(512))?;
        let codes = compressor.encode_dataset(data);
        let cache = (cfg.cache_nodes > 0).then(|| NodeCache::warm(graph, data, cfg.cache_nodes));
        Ok(Self {
            store,
            compressor,
            codes,
            entry: graph.entry(),
            cache,
            labels: None,
            cfg,
        })
    }

    /// Attaches per-vector labels, enabling [`DiskIndex::search_filtered`].
    /// Labels stay resident (one `u32` per vector, next to the codes).
    pub fn set_labels(&mut self, labels: Labels) {
        assert_eq!(labels.len(), self.store.n, "labels/index size mismatch");
        self.labels = Some(labels);
    }

    /// The attached labels, if any.
    pub fn labels(&self) -> Option<&Labels> {
        self.labels.as_ref()
    }

    /// The compact codes routing ranks by.
    pub fn codes(&self) -> &CompactCodes {
        &self.codes
    }

    /// The compressor.
    pub fn compressor(&self) -> &C {
        &self.compressor
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.store.n
    }

    /// True when empty (unreachable for built indexes; API symmetry).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident (RAM) bytes: compact codes + model + node cache + labels.
    /// The graph and vectors are on disk.
    pub fn resident_bytes(&self) -> usize {
        self.codes.memory_bytes()
            + self.compressor.model_bytes()
            + self.cache.as_ref().map_or(0, NodeCache::memory_bytes)
            + self.labels.as_ref().map_or(0, Labels::memory_bytes)
    }

    /// Cache hit/miss counters (zeros when the cache is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map(NodeCache::stats)
            .unwrap_or_default()
    }

    /// Bytes of the on-disk store (graph + full vectors) — the denominator
    /// of the paper's memory-fraction constraint.
    pub fn disk_bytes(&self) -> usize {
        self.store.file_bytes()
    }

    /// Replaces the BFS-warmed cache with **frequency-based admission**:
    /// runs `queries` as warm-up traffic, counts every node-block access
    /// (cache hits included, rerank fetches included), and pins the
    /// `cfg.cache_nodes` most-accessed nodes — ties broken by id for
    /// determinism. Returns the number of pinned nodes. Hit/miss counters
    /// start fresh; warm-up reads are not charged to any query's stats.
    pub fn warm_cache_by_trace(&mut self, queries: &Dataset, ef: usize) -> usize {
        let capacity = self.cfg.cache_nodes;
        if capacity == 0 || queries.is_empty() {
            return self.cache.as_ref().map(NodeCache::len).unwrap_or(0);
        }
        let mut counts = vec![0u64; self.store.n];
        let mut scratch = SearchScratch::with_capacity(self.store.n);
        let k = ef.clamp(1, 10);
        for q in queries.iter() {
            let _ = self.search_with_scratch(q, ef, k, &mut scratch);
            // Every block a search touches has its exact distance memoised,
            // once: the memo's keys are the query's access trace.
            for &v in scratch.memo_keys() {
                counts[v as usize] += 1;
            }
        }
        let mut ranked: Vec<(u64, u32)> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (c, i as u32))
            .collect();
        // Most-frequent first; ascending id on ties keeps admission
        // deterministic.
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ranked.truncate(capacity);
        let mut fetch = Fetch::with_capacity(&self.store, ranked.len());
        let ids = ranked.iter().map(|&(_, v)| v);
        self.fetch(ids, &mut fetch, &mut DiskSearchStats::default());
        let cache = NodeCache::pin(fetch.nodes());
        let pinned = cache.len();
        self.cache = Some(cache);
        pinned
    }

    /// DiskANN beam search, the index's one unfiltered entry point:
    /// ADC-ranked candidates, staged batch block fetches
    /// ([`DiskIndexConfig::io_width`] per stage), exact rerank of the final
    /// list through the same fetch step. At `io_width = 1` the answer is
    /// [`rpq_graph::beam_search`]'s best `min(ef, rerank)` candidates
    /// reranked by exact distance, bit for bit.
    pub fn search_with_scratch(
        &self,
        query: &[f32],
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> (Vec<Neighbor>, DiskSearchStats) {
        filter::answer(self.read(query, None, ef, k, scratch))
    }

    /// DiskANN beam search restricted to vectors satisfying `pred`
    /// (DESIGN.md §12), pushed into the search by `strategy`
    /// ([`FilterStrategy`]); the matches rerank as usual. Panics unless
    /// labels were attached with [`DiskIndex::set_labels`].
    pub fn search_filtered(
        &self,
        query: &[f32],
        pred: LabelPredicate,
        strategy: FilterStrategy,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> (Vec<Neighbor>, DiskSearchStats) {
        let filter = Some(FilteredQuery { pred, strategy });
        filter::answer(self.read(query, filter, ef, k, scratch))
    }

    /// The index's one read path ([`filter::read`]).
    pub(crate) fn read(
        &self,
        query: &[f32],
        filter: Option<FilteredQuery>,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<(Vec<Neighbor>, DiskSearchStats), ReplicaFault> {
        let base = VertexFilter::all();
        filter::read(self.labels.as_ref(), base, filter, ef, k, |vf, ef, k| {
            self.search_impl(query, ef, k, scratch, vf)
        })
    }

    /// Fetches the nodes `ids` (unique) into `fetch`: each id probes the
    /// node cache once, and the misses are read, ascending, as one
    /// coalesced batch. Counts the hits, misses, raw sectors, commands and
    /// modeled seconds into `stats`; returns the batch's modeled µs.
    fn fetch<'a>(
        &'a self,
        ids: impl IntoIterator<Item = u32>,
        fetch: &mut Fetch<'a>,
        stats: &mut DiskSearchStats,
    ) -> f32 {
        fetch.plan.clear();
        fetch.misses.clear();
        for v in ids {
            let hit = self.cache.as_ref().and_then(|c| c.get(v));
            if hit.is_some() {
                stats.cache_hits += 1;
            } else {
                stats.cache_misses += 1;
                fetch.misses.push(v);
            }
            fetch.plan.push((v, hit));
        }
        fetch.misses.sort_unstable();
        self.store
            .read_batch(&fetch.misses, &mut fetch.batch)
            .expect("disk store read failed");
        stats.io_reads += fetch.batch.raw_sectors;
        stats.coalesced_ios += fetch.batch.runs;
        let io_us = self.cfg.ssd.batch_us(fetch.batch.raw_sectors);
        stats.io_seconds += io_us * 1e-6;
        io_us
    }

    fn search_impl(
        &self,
        query: &[f32],
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
        filter: VertexFilter<'_>,
    ) -> (Vec<Neighbor>, DiskSearchStats) {
        let ef = ef.max(k).max(1);
        let io_width = self.cfg.io_width.max(1);
        let mut stats = DiskSearchStats::default();
        let est = self.compressor.estimator(&self.codes, query);

        let d0 = est.distance(self.entry);
        scratch.start(self.store.n, ef, self.entry, d0, &filter);
        stats.dist_comps += 1;

        // Per-query buffers, sized once for a full stage: no read grows them.
        let mut stage: Vec<(f32, u32)> = Vec::with_capacity(io_width);
        let mut fetch = Fetch::with_capacity(&self.store, io_width);
        // Compute seconds of the previous stage — the budget this stage's
        // modeled I/O can hide behind (max(io, compute) pipeline model).
        let mut prev_compute = 0.0f32;

        loop {
            scratch.pop_batch(io_width, &mut stage);
            if stage.is_empty() {
                break;
            }
            stats.hops += stage.len();
            // Stage nodes are unique by the visited discipline.
            let stage_io_us = self.fetch(stage.iter().map(|&(_, v)| v), &mut fetch, &mut stats);

            // Score and admit through the shared expansion step, in popped
            // (distance) order — `beam_search`'s loop at io_width = 1.
            let t0 = Instant::now();
            for (v, nbrs, vector) in fetch.nodes() {
                scratch.memo_insert(v, sq_l2(query, vector));
                stats.dist_comps += scratch.expand(nbrs, &est, &filter);
            }
            let stage_compute = t0.elapsed().as_secs_f32();

            // Pipeline time model: a stage's reads overlap the previous
            // stage's scoring. The serial engine (width 1) cannot overlap —
            // it blocks on every read.
            let stall_us = if io_width == 1 {
                stage_io_us
            } else {
                (stage_io_us - prev_compute * 1e6).max(0.0)
            };
            stats.io_stall_seconds += stall_us * 1e-6;
            prev_compute = stage_compute;
        }

        // Final rerank: top candidates by ADC get exact distances; those
        // not fetched during routing go through the same fetch step, and
        // their reads are also counted apart. Filtered traversal reranks
        // the accepted set instead — matches that routed past without
        // expansion get fetched here.
        let candidates: Vec<(f32, u32)> = scratch
            .best(!filter.is_all())
            .take(self.cfg.rerank.max(k))
            .collect();
        let unread = candidates
            .iter()
            .map(|&(_, v)| v)
            .filter(|&v| scratch.memo_get(v).is_none());
        let io_us = self.fetch(unread, &mut fetch, &mut stats);
        stats.rerank_reads += fetch.batch.raw_sectors;
        // Nothing overlaps the tail rerank: charge it in full.
        stats.io_stall_seconds += io_us * 1e-6;
        for (v, _, vector) in fetch.nodes() {
            scratch.memo_insert(v, sq_l2(query, vector));
        }
        let mut reranked: Vec<Neighbor> = candidates
            .into_iter()
            .map(|(_, v)| Neighbor {
                id: v,
                dist: scratch.memo_get(v).expect("reranked candidate memoised"),
            })
            .collect();
        reranked.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        reranked.truncate(k);
        (reranked, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_store::TestStore;
    use rpq_data::ground_truth::brute_force_knn;
    use rpq_data::synth::{SynthConfig, ValueTransform};
    use rpq_graph::{beam_search, VamanaConfig};
    use rpq_quant::{PqConfig, ProductQuantizer};

    fn setup(n: usize, seed: u64) -> (Dataset, Dataset) {
        let data = SynthConfig {
            dim: 16,
            intrinsic_dim: 6,
            clusters: 8,
            cluster_std: 0.8,
            noise_std: 0.03,
            transform: ValueTransform::Identity,
        }
        .generate(n + 20, seed);
        data.split_at(n)
    }

    /// The default configuration over `store`.
    fn cfg(store: &TestStore) -> DiskIndexConfig {
        DiskIndexConfig::new(store.path())
    }

    /// A corpus with its queries, Vamana graph and trained PQ — what every
    /// index of a test is built from, so differently configured indexes
    /// share one graph and one code set.
    struct Parts {
        base: Dataset,
        queries: Dataset,
        graph: ProximityGraph,
        pq: ProductQuantizer,
    }

    impl Parts {
        fn new(n: usize, seed: u64) -> Self {
            let (base, queries) = setup(n, seed);
            let graph = VamanaConfig {
                r: 8,
                l: 32,
                ..Default::default()
            }
            .build(&base);
            let pq = ProductQuantizer::train(
                &PqConfig {
                    m: 4,
                    k: 64,
                    ..Default::default()
                },
                &base,
            );
            Self {
                base,
                queries,
                graph,
                pq,
            }
        }

        fn index(&self, cfg: DiskIndexConfig) -> DiskIndex<ProductQuantizer> {
            DiskIndex::build(self.pq.clone(), &self.base, &self.graph, cfg).unwrap()
        }

        /// The width-1 reference, assembled from parts pinned elsewhere:
        /// [`beam_search`] (pinned against the three-heap oracle in
        /// `beam.rs`) over the same graph with the index's own ADC
        /// estimator, keeping the best `min(ef, rerank)` (each clamped up to
        /// `k`), then exact distances sorted by `(dist, id)` and cut to `k`.
        fn reference(
            &self,
            index: &DiskIndex<ProductQuantizer>,
            q: &[f32],
            ef: usize,
            k: usize,
        ) -> (Vec<Neighbor>, SearchStats) {
            let est = index.compressor.estimator(&index.codes, q);
            let keep = ef.max(k).min(index.cfg.rerank.max(k));
            let (routed, stats) =
                beam_search(&self.graph, &est, ef, keep, &mut SearchScratch::new());
            let mut exact: Vec<Neighbor> = routed
                .iter()
                .map(|n| Neighbor {
                    id: n.id,
                    dist: sq_l2(q, self.base.get(n.id as usize)),
                })
                .collect();
            exact.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
            exact.truncate(k);
            (exact, stats)
        }

        /// Runs `q` through a width-1 `index` and demands the reference's
        /// ids and distance bits, its hops and distance computations, and
        /// one block read per store lookup. Returns the search's stats.
        fn assert_matches_reference(
            &self,
            index: &DiskIndex<ProductQuantizer>,
            q: &[f32],
            ef: usize,
            ctx: &str,
        ) -> DiskSearchStats {
            let (got, stats) = index.search_with_scratch(q, ef, 10, &mut SearchScratch::new());
            let (want, want_stats) = self.reference(index, q, ef, 10);
            assert_bit_identical(&got, &want, ctx);
            assert_eq!(stats.hops, want_stats.hops, "{ctx}: hop counts diverge");
            assert_eq!(
                stats.dist_comps, want_stats.dist_comps,
                "{ctx}: distance computations diverge"
            );
            assert_eq!(
                stats.io_reads,
                stats.cache_misses * index.store.sectors_per_block,
                "{ctx}: every store lookup reads one block"
            );
            stats
        }
    }

    /// An index over a fresh store, returned with the store's guard: bind
    /// it to a name, so the store outlives the test's searches.
    fn build_index(
        n: usize,
        seed: u64,
        tag: &str,
    ) -> (TestStore, DiskIndex<ProductQuantizer>, Dataset, Dataset) {
        let parts = Parts::new(n, seed);
        let store = TestStore::new(tag);
        let index = parts.index(cfg(&store));
        (store, index, parts.base, parts.queries)
    }

    fn ids(res: &[Neighbor]) -> Vec<u32> {
        res.iter().map(|n| n.id).collect()
    }

    fn assert_bit_identical(a: &[Neighbor], b: &[Neighbor], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: result lengths differ");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.id, y.id, "{ctx}: ids diverge");
            assert_eq!(
                x.dist.to_bits(),
                y.dist.to_bits(),
                "{ctx}: distances not bit-identical ({} vs {})",
                x.dist,
                y.dist
            );
        }
    }

    #[test]
    fn fixed_model_matches_legacy_per_sector_accounting() {
        // Billing a batch as raw sectors × latency equals billing each of
        // its coalesced commands and summing: at 100 µs/sector every partial
        // sum is an exact f32, so how reads coalesce cannot change a bit.
        let m = SsdModel::fixed(100.0);
        let commands = [1usize, 1, 3, 2, 8];
        let summed = commands.iter().fold(0.0f32, |acc, &s| acc + m.batch_us(s));
        let total = m.batch_us(commands.iter().sum());
        assert_eq!(total.to_bits(), summed.to_bits());
        assert_eq!(total, 1500.0);
    }

    #[test]
    fn rerank_makes_results_exact_quality() {
        let (_store, index, base, queries) = build_index(600, 1, "rerank");
        let gt = brute_force_knn(&base, &queries, 10);
        let mut results = Vec::new();
        for q in queries.iter() {
            let (res, stats) = index.search_with_scratch(q, 60, 10, &mut SearchScratch::new());
            assert!(stats.io_reads > 0, "hybrid search must hit the disk");
            assert!(stats.io_seconds > 0.0);
            results.push(res.iter().map(|n| n.id).collect::<Vec<_>>());
        }
        let recall = gt.recall(&results);
        // Reranking with exact distances should beat pure-ADC quality.
        assert!(recall > 0.8, "hybrid recall too low: {recall}");
    }

    #[test]
    fn exact_distances_are_reported() {
        let (_store, index, base, queries) = build_index(300, 2, "exactd");
        let q = queries.get(0);
        let (res, _) = index.search_with_scratch(q, 40, 5, &mut SearchScratch::new());
        for n in &res {
            let expect = sq_l2(q, base.get(n.id as usize));
            assert!((n.dist - expect).abs() < 1e-4, "{} vs {expect}", n.dist);
        }
    }

    #[test]
    fn io_grows_with_beam_width() {
        let (_store, index, _, queries) = build_index(600, 3, "iobeam");
        let q = queries.get(0);
        let (_, s_small) = index.search_with_scratch(q, 8, 4, &mut SearchScratch::new());
        let (_, s_large) = index.search_with_scratch(q, 80, 4, &mut SearchScratch::new());
        assert!(
            s_large.io_reads > s_small.io_reads,
            "wider beam must read more: {} vs {}",
            s_large.io_reads,
            s_small.io_reads
        );
    }

    #[test]
    fn resident_memory_is_a_fraction_of_disk() {
        let (_store, index, _, _) = build_index(500, 4, "memfrac");
        let resident = index.resident_bytes();
        let disk = index.disk_bytes();
        assert!(
            resident * 4 < disk,
            "codes+model ({resident}) should be far below the store ({disk})"
        );
    }

    #[test]
    fn node_cache_cuts_io_without_changing_results() {
        let parts = Parts::new(500, 6);
        let stores = [TestStore::new("nocache"), TestStore::new("cache")];
        let plain = parts.index(cfg(&stores[0]));
        let cached = parts.index(DiskIndexConfig {
            cache_nodes: 200,
            ..cfg(&stores[1])
        });
        let q = parts.queries.get(0);
        let (r_plain, s_plain) = plain.search_with_scratch(q, 40, 10, &mut SearchScratch::new());
        let (r_cached, s_cached) = cached.search_with_scratch(q, 40, 10, &mut SearchScratch::new());
        assert_eq!(
            ids(&r_plain),
            ids(&r_cached),
            "cache must not change results"
        );
        assert!(
            s_cached.io_reads < s_plain.io_reads,
            "cache should cut I/O: {} vs {}",
            s_cached.io_reads,
            s_plain.io_reads
        );
        assert!(s_cached.cache_hits > 0, "per-query hit counter must move");
        assert!(cached.cache_stats().hits > 0);
    }

    #[test]
    fn store_roundtrips_vectors_and_adjacency() {
        let (base, _) = setup(100, 5);
        let graph = VamanaConfig {
            r: 6,
            l: 16,
            ..Default::default()
        }
        .build(&base);
        let file = TestStore::new("roundtrip");
        let store = SectorStore::build(file.path(), &base, &graph, 4096).unwrap();
        let mut batch = BatchRead::default();
        store.read_batch(&[0, 50, 99], &mut batch).unwrap();
        for i in [0u32, 50, 99] {
            assert_eq!(
                batch.nodes.get(i),
                Some((graph.neighbors(i), base.get(i as usize)))
            );
        }
    }

    #[test]
    fn batch_read_coalesces_adjacent_blocks() {
        let (base, _) = setup(120, 8);
        let graph = VamanaConfig {
            r: 6,
            l: 16,
            ..Default::default()
        }
        .build(&base);
        let file = TestStore::new("coalesce");
        let store = SectorStore::build(file.path(), &base, &graph, 4096).unwrap();
        let spb = store.sectors_per_block;

        // Four adjacent blocks collapse into one command spanning 4×spb
        // sectors; raw sectors are unchanged.
        let mut batch = BatchRead::default();
        store.read_batch(&[10, 11, 12, 13], &mut batch).unwrap();
        assert_eq!(batch.runs, 1, "adjacent run must coalesce");
        assert_eq!(batch.raw_sectors, 4 * spb);

        // Disjoint blocks stay separate commands.
        store.read_batch(&[1, 5, 9], &mut batch).unwrap();
        assert_eq!((batch.runs, batch.raw_sectors), (3, 3 * spb));

        // Mixed: two runs.
        store.read_batch(&[3, 4, 90], &mut batch).unwrap();
        assert_eq!((batch.runs, batch.raw_sectors), (2, 3 * spb));

        // A coalesced read still parses every block as its own node.
        for id in [3u32, 4, 90] {
            assert_eq!(
                batch.nodes.get(id),
                Some((graph.neighbors(id), base.get(id as usize)))
            );
        }
    }

    #[cfg(unix)]
    #[test]
    fn block_padding_is_never_read() {
        // Every block's padding is overwritten with 0xFF through a second
        // handle; neither a read nor a search may see a byte of it.
        let parts = Parts::new(300, 18);
        let mut scratch = (SearchScratch::new(), SearchScratch::new());
        for io_width in [1usize, 8] {
            let stores = [TestStore::new("padding"), TestStore::new("padding-dirty")];
            let pristine = parts.index(DiskIndexConfig {
                io_width,
                ..cfg(&stores[0])
            });
            let dirty = parts.index(DiskIndexConfig {
                io_width,
                ..cfg(&stores[1])
            });
            let store = &dirty.store;
            let pad = vec![0xFFu8; store.block_bytes - store.node_bytes()];
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(stores[1].path())
                .unwrap();
            for i in 0..store.n {
                let off = i * store.block_bytes + store.node_bytes();
                f.write_all_at(&pad, off as u64).unwrap();
            }

            let mut batch = BatchRead::default();
            for ids in [&[7u32][..], &[10, 11, 12, 13], &[0, 150, 299]] {
                store.read_batch(ids, &mut batch).unwrap();
                for &i in ids {
                    let want = (parts.graph.neighbors(i), parts.base.get(i as usize));
                    assert_eq!(batch.nodes.get(i), Some(want), "node {i} of batch {ids:?}");
                }
            }

            for (qi, q) in parts.queries.iter().enumerate() {
                let ctx = format!("width {io_width}, query {qi}");
                let (want, mut want_stats) =
                    pristine.search_with_scratch(q, 40, 10, &mut scratch.0);
                let (got, mut got_stats) = dirty.search_with_scratch(q, 40, 10, &mut scratch.1);
                assert_bit_identical(&got, &want, &ctx);
                if io_width > 1 {
                    // The stall subtracts measured compute: a clock reading.
                    want_stats.io_stall_seconds = 0.0;
                    got_stats.io_stall_seconds = 0.0;
                }
                assert_eq!(got_stats, want_stats, "{ctx}: stats diverge");
            }
        }
    }

    #[test]
    fn truncated_store_fails_only_inside_node_bytes() {
        let (base, _) = setup(50, 19);
        let graph = VamanaConfig {
            r: 6,
            l: 16,
            ..Default::default()
        }
        .build(&base);
        let file = TestStore::new("truncated");
        let store = SectorStore::build(file.path(), &base, &graph, 4096).unwrap();
        let last = (store.n - 1) as u32;
        let node_end = last as usize * store.block_bytes + store.node_bytes();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(file.path())
            .unwrap();
        let mut batch = BatchRead::default();

        // Cut inside the last block's padding: every node byte survives.
        f.set_len(node_end as u64 + 10).unwrap();
        store.read_batch(&[last - 1, last], &mut batch).unwrap();
        for i in [last - 1, last] {
            assert_eq!(
                batch.nodes.get(i),
                Some((graph.neighbors(i), base.get(i as usize)))
            );
        }

        // Cut inside the last node's vector: an `UnexpectedEof`, alone or
        // at the end of a coalesced run; nodes before the cut still read.
        f.set_len(node_end as u64 - 4).unwrap();
        for ids in [&[last][..], &[last - 2, last - 1, last]] {
            let err = store.read_batch(ids, &mut batch).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "batch {ids:?}");
        }
        store.read_batch(&[0, last - 1], &mut batch).unwrap();
        assert_eq!(
            batch.nodes.get(last - 1),
            Some((graph.neighbors(last - 1), base.get(last as usize - 1)))
        );
    }

    #[cfg(unix)]
    #[test]
    fn a_stored_degree_above_r_is_read_as_r() {
        let (base, _) = setup(50, 20);
        let graph = VamanaConfig {
            r: 6,
            l: 16,
            ..Default::default()
        }
        .build(&base);
        let file = TestStore::new("degree");
        let store = SectorStore::build(file.path(), &base, &graph, 4096).unwrap();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(file.path())
            .unwrap();
        let v = 7u32;
        let off = v as usize * store.block_bytes;
        f.write_all_at(&u32::MAX.to_le_bytes(), off as u64).unwrap();
        let mut batch = BatchRead::default();
        store.read_batch(&[v - 1, v, v + 1], &mut batch).unwrap();
        // All R slots: the stored row, then the block's zero padding.
        let mut row = graph.neighbors(v).to_vec();
        row.resize(store.max_degree, 0);
        let want = (&row[..], base.get(v as usize));
        assert_eq!(batch.nodes.get(v), Some(want));
        for u in [v - 1, v + 1] {
            let want = (graph.neighbors(u), base.get(u as usize));
            assert_eq!(batch.nodes.get(u), Some(want), "node {u}");
        }
    }

    #[test]
    fn width1_is_bit_identical_to_the_serial_oracle() {
        let parts = Parts::new(600, 9);
        let store = TestStore::new("bitident");
        let index = parts.index(cfg(&store));
        for (qi, q) in parts.queries.iter().enumerate() {
            let stats = parts.assert_matches_reference(&index, q, 50, &format!("query {qi}"));
            // The fixed model bills every sector read at 100 µs; the
            // per-stage f32 sums may round differently from one product.
            assert!(
                (stats.io_seconds - stats.io_reads as f32 * 100e-6).abs() < 1e-6,
                "query {qi}: modeled io time {} for {} sectors",
                stats.io_seconds,
                stats.io_reads
            );
        }
    }

    #[test]
    fn width1_is_bit_identical_with_a_cache() {
        let parts = Parts::new(600, 10);
        let store = TestStore::new("bitident-cache");
        let index = parts.index(DiskIndexConfig {
            cache_nodes: 150,
            ..cfg(&store)
        });
        let mut hits = 0usize;
        for (qi, q) in parts.queries.iter().enumerate() {
            hits += parts
                .assert_matches_reference(&index, q, 50, &format!("cached {qi}"))
                .cache_hits;
        }
        assert!(hits > 0, "the BFS-warmed cache must serve some lookups");
    }

    #[test]
    fn rerank_never_rereads_routed_candidates() {
        // The rerank double-read fix: every reranked candidate comes out of
        // the bounded pool, and every pool survivor is expanded (hence
        // fetched and memoised) before the bound can end the search — a
        // frontier entry with d ≤ worst always pops before one with
        // d > worst. The separate counter pins that invariant at zero;
        // would-be extra reads go through the batch API and would show up
        // here instead of inflating io_reads silently.
        let (_store, index, _, queries) = build_index(600, 11, "rerankreads");
        for q in queries.iter() {
            for ef in [10usize, 60] {
                let (_, stats) = index.search_with_scratch(q, ef, 10, &mut SearchScratch::new());
                assert_eq!(
                    stats.rerank_reads, 0,
                    "routing already fetched every reranked candidate"
                );
            }
        }
    }

    #[test]
    fn pipeline_hides_io_behind_compute() {
        let parts = Parts::new(600, 12);
        let q = parts.queries.get(0);
        let stores = [TestStore::new("pipeline"), TestStore::new("pipeline-wide")];

        // Serial semantics: every modeled microsecond stalls the query.
        let (_, s1) =
            parts
                .index(cfg(&stores[0]))
                .search_with_scratch(q, 60, 10, &mut SearchScratch::new());
        assert!(
            (s1.io_stall_seconds - s1.io_seconds).abs() < 1e-9,
            "width 1 cannot overlap: stall {} vs io {}",
            s1.io_stall_seconds,
            s1.io_seconds
        );

        // Wider stages overlap reads with the previous stage's scoring and
        // coalesce adjacent blocks: the stall can only shrink.
        let wide = parts.index(DiskIndexConfig {
            io_width: 8,
            ..cfg(&stores[1])
        });
        let (_, s8) = wide.search_with_scratch(q, 60, 10, &mut SearchScratch::new());
        assert!(
            s8.io_stall_seconds <= s8.io_seconds + 1e-9,
            "stall must never exceed modeled io"
        );
        assert!(s8.coalesced_ios <= s8.io_reads, "commands ≤ raw sectors");
    }

    #[test]
    fn wider_io_width_reads_more_but_keeps_quality() {
        let parts = Parts::new(600, 13);
        let gt = brute_force_knn(&parts.base, &parts.queries, 10);
        let pass = |index: &DiskIndex<ProductQuantizer>| {
            let mut reads = 0usize;
            let results: Vec<Vec<u32>> = parts
                .queries
                .iter()
                .map(|q| {
                    let (res, stats) =
                        index.search_with_scratch(q, 60, 10, &mut SearchScratch::new());
                    reads += stats.io_reads;
                    ids(&res)
                })
                .collect();
            (reads, gt.recall(&results))
        };
        let stores = [TestStore::new("width"), TestStore::new("width-8")];
        let (reads1, r1) = pass(&parts.index(cfg(&stores[0])));
        let (reads8, r8) = pass(&parts.index(DiskIndexConfig {
            io_width: 8,
            ..cfg(&stores[1])
        }));
        assert!(
            reads8 >= reads1,
            "speculative width-8 frontier cannot read less: {reads8} vs {reads1}"
        );
        assert!(
            r8 >= r1 - 0.02,
            "width 8 must stay within the recall envelope: {r8} vs {r1}"
        );
    }

    #[test]
    fn trace_warming_pins_hot_nodes_and_preserves_results() {
        let parts = Parts::new(600, 14);
        let store = TestStore::new("tracewarm");
        let mut index = parts.index(DiskIndexConfig {
            cache_nodes: 150,
            ..cfg(&store)
        });
        let (warm, eval) = parts.queries.split_at(10);

        let pinned = index.warm_cache_by_trace(&warm, 50);
        assert!(pinned > 0, "warm-up traffic must pin something");
        assert!(pinned <= 150, "admission respects capacity");

        let mut hits = 0usize;
        for (qi, q) in eval.iter().enumerate() {
            let stats = parts.assert_matches_reference(&index, q, 50, &format!("warmed {qi}"));
            hits += stats.cache_hits;
        }
        assert!(
            hits > 0,
            "a frequency-admitted cache must hit on like-distributed traffic"
        );
    }

    #[test]
    fn filtered_search_returns_only_matching_and_reranks_exactly() {
        let (_store, mut index, base, queries) = build_index(600, 16, "filtered");
        let labels = Labels::from_masks(2, (0..base.len()).map(|i| 1 << (i % 2)).collect());
        index.set_labels(labels.clone());
        let pred = LabelPredicate::single(0);
        let mut scratch = SearchScratch::with_capacity(base.len());
        for strategy in [
            FilterStrategy::DuringTraversal,
            FilterStrategy::PostFilter { inflation: 4 },
        ] {
            for q in queries.iter() {
                let (res, stats) = index.search_filtered(q, pred, strategy, 40, 10, &mut scratch);
                assert!(!res.is_empty(), "{strategy:?} returned nothing");
                assert!(stats.io_reads > 0);
                for n in &res {
                    assert!(
                        labels.matches(n.id as usize, pred),
                        "{strategy:?} returned non-matching id {}",
                        n.id
                    );
                    // Reranked: reported distances are exact.
                    let expect = sq_l2(q, base.get(n.id as usize));
                    assert!((n.dist - expect).abs() < 1e-4);
                }
            }
        }
    }

    #[test]
    fn filtered_with_all_matching_equals_unfiltered() {
        let (_store, mut index, base, queries) = build_index(400, 17, "filtered-all");
        index.set_labels(Labels::from_masks(1, vec![1; base.len()]));
        let mut scratch = SearchScratch::with_capacity(base.len());
        for q in queries.iter() {
            let (plain, _) = index.search_with_scratch(q, 40, 10, &mut scratch);
            let (filtered, _) = index.search_filtered(
                q,
                LabelPredicate::single(0),
                FilterStrategy::DuringTraversal,
                40,
                10,
                &mut scratch,
            );
            assert_bit_identical(&plain, &filtered, "all-matching filter");
        }
    }
}
