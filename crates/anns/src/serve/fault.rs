//! Fault injection for the serving cluster (DESIGN.md §11.5).
//!
//! [`FlakyBackend`] wraps any frozen [`ShardBackend`] and misbehaves on
//! command: hard-down or injected latency stalls. The switches are atomics
//! behind an `Arc`, so a test holds one handle, hands a clone to the
//! cluster, and flips failure modes while requests are in flight — that is
//! how tests/cluster.rs pins "a replica failure degrades goodput but never
//! corrupts top-k". Nothing is wall-clock driven, so every fault scenario
//! replays bit-identically.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

use rpq_graph::{Neighbor, SearchScratch};

use super::loadgen::FilteredQuery;
use super::{ShardBackend, ShardQueryStats};

/// Why a replica read did not produce a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaFault {
    /// The replica failed the read (it is down); another replica of the
    /// same shard may still answer.
    Unavailable,
    /// The request carried a predicate but the backend has no labels —
    /// every replica of the shard answers the same, so failover can't help.
    NoLabels,
}

impl std::fmt::Display for ReplicaFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReplicaFault::Unavailable => "replica read failed",
            ReplicaFault::NoLabels => "filtered search requires labels on every shard",
        })
    }
}

/// A [`ShardBackend`] that fails or stalls reads on command.
pub struct FlakyBackend {
    inner: Box<dyn ShardBackend>,
    /// Hard-down switch: every read fails while set.
    down: AtomicBool,
    /// Extra modeled latency injected per read, in µs (f32 bits). Charged
    /// to `io_stall_seconds` so the admission cost model sees the spike.
    stall_us_bits: AtomicU32,
    /// Reads attempted (failed or not) — lets tests prove shed requests
    /// were never executed.
    reads: AtomicUsize,
    /// Reads that failed (while down).
    failed: AtomicUsize,
}

impl FlakyBackend {
    /// Wraps `inner`; starts healthy (no failures, no stall).
    pub fn new(inner: Box<dyn ShardBackend>) -> Self {
        Self {
            inner,
            down: AtomicBool::new(false),
            stall_us_bits: AtomicU32::new(0.0f32.to_bits()),
            reads: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
        }
    }

    /// Hard-fails every read while `on` (a crashed / partitioned replica).
    pub fn set_down(&self, on: bool) {
        self.down.store(on, Ordering::Relaxed);
    }

    /// Injects `stall_us` of modeled latency into every successful read
    /// (a degraded device / overloaded replica, not a dead one).
    pub fn set_stall_us(&self, stall_us: f32) {
        self.stall_us_bits
            .store(stall_us.max(0.0).to_bits(), Ordering::Relaxed);
    }

    /// Reads attempted so far (successful or failed).
    pub fn reads(&self) -> usize {
        self.reads.load(Ordering::Relaxed)
    }

    /// Reads that failed so far.
    pub fn failed(&self) -> usize {
        self.failed.load(Ordering::Relaxed)
    }
}

impl ShardBackend for FlakyBackend {
    /// Every read, filtered or not, counts once. On success the result is
    /// exactly the inner backend's (never truncated or reordered —
    /// corruption is not one of the simulated faults; DESIGN.md §11.5 says
    /// why), with any injected stall charged to the stats' modeled stall
    /// column.
    fn search_local(
        &self,
        query: &[f32],
        filter: Option<FilteredQuery>,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<(Vec<Neighbor>, ShardQueryStats), ReplicaFault> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        if self.down.load(Ordering::Relaxed) {
            self.failed.fetch_add(1, Ordering::Relaxed);
            return Err(ReplicaFault::Unavailable);
        }
        let (res, mut stats) = self.inner.search_local(query, filter, ef, k, scratch)?;
        let stall_us = f32::from_bits(self.stall_us_bits.load(Ordering::Relaxed));
        if stall_us > 0.0 {
            stats.io_stall_seconds += stall_us / 1e6;
        }
        Ok((res, stats))
    }

    fn shard_len(&self) -> usize {
        self.inner.shard_len()
    }

    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Stub;
    impl ShardBackend for Stub {
        fn search_local(
            &self,
            _query: &[f32],
            _filter: Option<FilteredQuery>,
            _ef: usize,
            k: usize,
            _scratch: &mut SearchScratch,
        ) -> Result<(Vec<Neighbor>, ShardQueryStats), ReplicaFault> {
            let res = (0..k as u32)
                .map(|id| Neighbor {
                    id,
                    dist: id as f32,
                })
                .collect();
            Ok((res, ShardQueryStats::default()))
        }
        fn shard_len(&self) -> usize {
            8
        }
        fn resident_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn down_switch_fails_everything_and_recovers() {
        let flaky = FlakyBackend::new(Box::new(Stub));
        let mut scratch = SearchScratch::new();
        assert!(flaky.search_local(&[], None, 4, 2, &mut scratch).is_ok());
        flaky.set_down(true);
        assert!(flaky.search_local(&[], None, 4, 2, &mut scratch).is_err());
        flaky.set_down(false);
        assert!(flaky.search_local(&[], None, 4, 2, &mut scratch).is_ok());
        assert_eq!(flaky.reads(), 3);
        assert_eq!(flaky.failed(), 1);
    }

    #[test]
    fn stall_charges_queue_seconds_without_touching_results() {
        let flaky = FlakyBackend::new(Box::new(Stub));
        let mut scratch = SearchScratch::new();
        let (clean, base) = flaky.search_local(&[], None, 4, 3, &mut scratch).unwrap();
        flaky.set_stall_us(2_000.0);
        let (stalled, stats) = flaky.search_local(&[], None, 4, 3, &mut scratch).unwrap();
        assert_eq!(clean, stalled, "stall must not change results");
        assert!((stats.io_stall_seconds - base.io_stall_seconds - 2e-3).abs() < 1e-6);
    }
}
