//! # rpq-anns
//!
//! PQ-integrated graph-based ANNS engines for the paper's two deployment
//! scenarios (§7):
//!
//! * [`memory::InMemoryIndex`] — **in-memory scenario**: compact codes and
//!   the codebook replace the original vectors in RAM next to the PG; the
//!   search relies on PQ (ADC) distances only, with no reranking.
//! * [`disk::DiskIndex`] — **SSD+memory hybrid scenario** (DiskANN-style):
//!   only the compact codes and codebook stay in RAM; the graph adjacency
//!   and full vectors live in a sector-aligned on-disk node store. Beam
//!   search ranks candidates by ADC and fetches each expanded node's block
//!   from disk, then reranks the final candidates with exact distances from
//!   the fetched vectors.
//!
//! [`harness`] runs query batches in parallel and produces the
//! QPS / recall@k / hops / disk-I/O curves every figure in the paper's §8
//! is built from. Disk latency is a per-sector model ([`SsdModel`]): the
//! modeled stall a query's reads cost is charged beside measured compute
//! time, never read off a clock (DESIGN.md §4.2 substitution: simulated
//! SSD).
//!
//! [`serve`] is the online counterpart of the offline harness: a sharded
//! concurrent serving layer — round-robin partitions over independent
//! shard indexes, a persistent worker pool with per-worker reusable
//! scratch, cross-shard top-k merging, request batching, and p50/p95/p99
//! latency metrics (DESIGN.md §7).
//!
//! [`stream`] is the live-corpus path (DESIGN.md §8): a FreshDiskANN-style
//! [`stream::StreamingIndex`] with greedy graph inserts, tombstoned
//! deletes, and threshold-gated consolidation, pluggable into the sharded
//! layer through the [`serve::MutableShardBackend`] extension.

pub mod cache;
pub mod disk;
pub mod filter;
pub mod harness;
pub mod memory;
pub mod serve;
pub mod stream;

pub use cache::{CacheStats, NodeCache};
pub use disk::{DiskIndex, DiskIndexConfig, DiskSearchStats, SsdModel};
pub use filter::FilterStrategy;
pub use harness::{hybrid_qps, qps_at_recall, sweep, SweepPoint};
pub use memory::InMemoryIndex;
pub use serve::{
    BatchReport, LatencySummary, MutableShardBackend, ServeConfig, ServeEngine, ShardBackend,
    ShardQueryStats, ShardedIndex, WorkerPool,
};
pub use stream::{ConsolidateReport, StreamingConfig, StreamingIndex};

#[cfg(test)]
#[path = "../tests/support/test_store.rs"]
mod test_store;
