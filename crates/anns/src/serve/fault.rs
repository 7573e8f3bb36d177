//! Fault injection for the serving cluster (DESIGN.md §11.5).
//!
//! [`FlakyBackend`] wraps any frozen [`ShardBackend`] and misbehaves on
//! command: hard-down, seeded random read failures, or injected latency
//! stalls. The switches are atomics behind an `Arc`, so a test holds one
//! handle, hands a clone to the cluster, and flips failure modes while
//! requests are in flight — that is how tests/cluster.rs pins "a replica
//! failure degrades goodput but never corrupts top-k".
//!
//! Failure schedules are seeded (SplitMix64 over a read counter), never
//! wall-clock driven, so every fault scenario replays bit-identically.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

use rpq_graph::{Neighbor, SearchScratch};

use super::loadgen::FilteredQuery;
use super::{ShardBackend, ShardQueryStats};

/// Why a replica read did not produce a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaFault {
    /// The replica failed the read (down, or a seeded injected failure);
    /// another replica of the same shard may still answer.
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

/// SplitMix64 — the same tiny generator the vendored `rand` seeds with;
/// one step per read gives an i.i.d. failure schedule from one seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A [`ShardBackend`] that fails or stalls reads on a seeded schedule.
pub struct FlakyBackend {
    inner: Box<dyn ShardBackend>,
    seed: u64,
    /// Hard-down switch: every read fails while set.
    down: AtomicBool,
    /// Probability in [0, 1] (f32 bits) that a given read fails.
    fail_rate_bits: AtomicU32,
    /// Extra modeled latency injected per read, in µs (f32 bits). Charged
    /// to `io_stall_seconds` so the admission cost model sees the spike.
    stall_us_bits: AtomicU32,
    /// Reads attempted (failed or not) — lets tests prove shed requests
    /// were never executed.
    reads: AtomicUsize,
    /// Reads that failed (down or seeded).
    failed: AtomicUsize,
}

impl FlakyBackend {
    /// Wraps `inner`; starts healthy (no failures, no stall).
    pub fn new(inner: Box<dyn ShardBackend>, seed: u64) -> Self {
        Self {
            inner,
            seed,
            down: AtomicBool::new(false),
            fail_rate_bits: AtomicU32::new(0.0f32.to_bits()),
            stall_us_bits: AtomicU32::new(0.0f32.to_bits()),
            reads: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
        }
    }

    /// Hard-fails every read while `on` (a crashed / partitioned replica).
    pub fn set_down(&self, on: bool) {
        self.down.store(on, Ordering::Relaxed);
    }

    /// True while the hard-down switch is set.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::Relaxed)
    }

    /// Fails each read independently with probability `rate` (clamped to
    /// [0, 1]), on the seeded schedule.
    pub fn set_fail_rate(&self, rate: f32) {
        self.fail_rate_bits
            .store(rate.clamp(0.0, 1.0).to_bits(), Ordering::Relaxed);
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
    /// One ticket of the seeded fault schedule per read, filtered or not.
    /// On success the result is exactly the inner backend's (never
    /// truncated or reordered — corruption is not one of the simulated
    /// faults; DESIGN.md §11.5 says why), with any injected stall charged
    /// to the stats' modeled stall column.
    fn search_local(
        &self,
        query: &[f32],
        filter: Option<FilteredQuery>,
        ef: usize,
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Result<(Vec<Neighbor>, ShardQueryStats), ReplicaFault> {
        let ticket = self.reads.fetch_add(1, Ordering::Relaxed);
        if self.down.load(Ordering::Relaxed) {
            self.failed.fetch_add(1, Ordering::Relaxed);
            return Err(ReplicaFault::Unavailable);
        }
        let rate = f32::from_bits(self.fail_rate_bits.load(Ordering::Relaxed));
        if rate > 0.0 {
            // Map the ticket through SplitMix64 to a uniform in [0, 1).
            let u = (splitmix64(self.seed ^ ticket as u64) >> 11) as f64 / (1u64 << 53) as f64;
            if (u as f32) < rate {
                self.failed.fetch_add(1, Ordering::Relaxed);
                return Err(ReplicaFault::Unavailable);
            }
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
        let flaky = FlakyBackend::new(Box::new(Stub), 1);
        let mut scratch = SearchScratch::new();
        assert!(flaky.search_local(&[], None, 4, 2, &mut scratch).is_ok());
        flaky.set_down(true);
        assert!(flaky.is_down());
        assert!(flaky.search_local(&[], None, 4, 2, &mut scratch).is_err());
        flaky.set_down(false);
        assert!(flaky.search_local(&[], None, 4, 2, &mut scratch).is_ok());
        assert_eq!(flaky.reads(), 3);
        assert_eq!(flaky.failed(), 1);
    }

    #[test]
    fn seeded_fail_rate_is_reproducible_and_roughly_calibrated() {
        let schedule = |seed: u64| -> Vec<bool> {
            let flaky = FlakyBackend::new(Box::new(Stub), seed);
            flaky.set_fail_rate(0.3);
            let mut scratch = SearchScratch::new();
            (0..500)
                .map(|_| flaky.search_local(&[], None, 4, 2, &mut scratch).is_err())
                .collect()
        };
        let a = schedule(42);
        assert_eq!(a, schedule(42), "same seed must replay identically");
        let fails = a.iter().filter(|&&f| f).count();
        assert!(
            (100..200).contains(&fails),
            "rate 0.3 of 500 reads, got {fails}"
        );
        assert_ne!(a, schedule(43), "different seed, different schedule");
    }

    #[test]
    fn stall_charges_queue_seconds_without_touching_results() {
        let flaky = FlakyBackend::new(Box::new(Stub), 1);
        let mut scratch = SearchScratch::new();
        let (clean, base) = flaky.search_local(&[], None, 4, 3, &mut scratch).unwrap();
        flaky.set_stall_us(2_000.0);
        let (stalled, stats) = flaky.search_local(&[], None, 4, 3, &mut scratch).unwrap();
        assert_eq!(clean, stalled, "stall must not change results");
        assert!((stats.io_stall_seconds - base.io_stall_seconds - 2e-3).abs() < 1e-6);
    }
}
