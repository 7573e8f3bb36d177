//! Queue-depth-aware simulated SSD (DESIGN.md §10).
//!
//! The hybrid scenario models its device instead of requiring a datacenter
//! SSD (DESIGN.md §4.2). PR 3's model was a constant per-sector latency,
//! which cannot express the two effects that dominate real NVMe behaviour:
//! command overhead amortised by coalescing adjacent sectors, and queue
//! wait growing with outstanding depth until the device saturates.
//! [`SsdModel`] captures both with three parameters:
//!
//! * `service_us` — fixed per-command cost (submission, FTL lookup, NAND
//!   access setup). Paid once per I/O regardless of size, which is what
//!   makes coalescing `r` adjacent blocks into one command cheaper than
//!   `r` commands.
//! * `transfer_us_per_sector` — payload cost, linear in sectors.
//! * `channels` — internal parallelism `c`: how many commands the device
//!   services concurrently. Queue depth beyond `c` waits.
//!
//! Service time of one I/O of `b` sectors: `s(b) = service_us +
//! b · transfer_us_per_sector`. A batch issued together at queue depth
//! `qd` completes in `max(maxᵢ sᵢ, Σ sᵢ / min(qd, c))`: bounded below by
//! its largest member and by total work over effective parallelism.
//!
//! [`SsdModel::fixed`] reproduces the old constant-latency model bit for
//! bit (zero service cost, one channel), so legacy configurations and the
//! pinned accounting tests are unchanged. Queue wait under concurrent load
//! comes from reservations on a shared timeline ([`VirtualClock`]), not
//! from a closed-form queueing formula.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Parameters of the simulated device. See the module docs for the model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SsdModel {
    /// Fixed per-command cost in microseconds.
    pub service_us: f32,
    /// Payload cost per sector in microseconds.
    pub transfer_us_per_sector: f32,
    /// Commands serviced concurrently (internal parallelism `c`).
    pub channels: usize,
}

impl SsdModel {
    /// The legacy fixed-latency model: every sector costs
    /// `per_sector_latency_us`, no command overhead, no parallelism. An
    /// I/O of `b` sectors takes `b · per_sector_latency_us` at any queue
    /// depth of 1, matching the pre-queueing model exactly.
    pub fn fixed(per_sector_latency_us: f32) -> Self {
        Self {
            service_us: 0.0,
            transfer_us_per_sector: per_sector_latency_us,
            channels: 1,
        }
    }

    /// An NVMe-class device: 80 µs command overhead, 8 µs per 4 KiB
    /// sector, 8 concurrent channels — command overhead dominates
    /// single-sector reads, so coalescing and depth both pay off visibly.
    pub fn nvme() -> Self {
        Self {
            service_us: 80.0,
            transfer_us_per_sector: 8.0,
            channels: 8,
        }
    }

    /// Service time of one I/O of `sectors` sectors, µs (no queueing).
    pub fn service_time_us(&self, sectors: usize) -> f32 {
        self.service_us + sectors as f32 * self.transfer_us_per_sector
    }

    /// Completion time of a batch of I/Os issued together at queue depth
    /// `qd`: `max(maxᵢ sᵢ, Σ sᵢ / p)` with effective parallelism
    /// `p = min(qd, channels, batch size)`. At `qd = 1` this is the serial
    /// sum — the legacy model's bill for the same reads.
    pub fn batch_us<I: IntoIterator<Item = usize>>(&self, sector_counts: I, qd: usize) -> f32 {
        let mut work = 0.0f32;
        let mut smax = 0.0f32;
        let mut count = 0usize;
        for sectors in sector_counts {
            let s = self.service_time_us(sectors);
            work += s;
            smax = smax.max(s);
            count += 1;
        }
        if count == 0 {
            return 0.0;
        }
        let p = qd.max(1).min(self.channels.max(1)).min(count) as f32;
        smax.max(work / p)
    }
}

/// A busy-until horizon over a time base: the one timeline type under both
/// the disk shards' shared device (wall-clock arrivals,
/// [`VirtualClock::reserve_now`]) and the serving cluster's per-replica
/// timelines (virtual arrivals from an open-loop schedule, DESIGN.md §11,
/// [`VirtualClock::reserve_at`]). A reservation of `service_us` starts at
/// `max(now, busy_until)` and the returned wait is `start − now`; when
/// `now` is supplied by the caller, a schedule of arrivals produces
/// bit-reproducible waits on any machine.
pub struct VirtualClock {
    /// Busy-until horizon in nanoseconds on the time base.
    busy_until_ns: AtomicU64,
    /// Zero of the wall-clock time base [`VirtualClock::reserve_now`] uses.
    epoch: Instant,
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl VirtualClock {
    pub fn new() -> Self {
        Self {
            busy_until_ns: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Reserves `service_us` of occupancy starting no earlier than
    /// `now_us`; returns the queue wait in µs (0 when idle).
    pub fn reserve_at(&self, now_us: f64, service_us: f64) -> f64 {
        let now_ns = (now_us.max(0.0) * 1e3) as u64;
        let add_ns = (service_us.max(0.0) * 1e3) as u64;
        let mut busy = self.busy_until_ns.load(Ordering::Relaxed);
        loop {
            let start = busy.max(now_ns);
            match self.busy_until_ns.compare_exchange_weak(
                busy,
                start + add_ns,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return (start - now_ns) as f64 / 1e3,
                Err(actual) => busy = actual,
            }
        }
    }

    /// [`VirtualClock::reserve_at`] the wall-clock time since this clock
    /// was created. Every disk shard of a [`crate::serve::ShardedIndex`]
    /// reserves its batch occupancy on one clock this way, so queries
    /// arriving while the device is busy observe queue wait — what
    /// saturates p99 once offered load exceeds the device's `channels`.
    /// Arrivals are real; the *cost* of each reservation is fully modeled.
    pub fn reserve_now(&self, service_us: f64) -> f64 {
        let now_us = self.epoch.elapsed().as_nanos() as f64 / 1e3;
        self.reserve_at(now_us, service_us)
    }

    /// Backlog still queued at `now_us`: `max(busy_until − now, 0)` in µs.
    /// What the queue-aware load balancer ranks replicas by.
    pub fn backlog_us(&self, now_us: f64) -> f64 {
        let now_ns = (now_us.max(0.0) * 1e3) as u64;
        let busy = self.busy_until_ns.load(Ordering::Relaxed);
        busy.saturating_sub(now_ns) as f64 / 1e3
    }

    /// Clears the horizon so independent measurement runs don't observe
    /// each other's backlog.
    pub fn reset(&self) {
        self.busy_until_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_model_matches_legacy_per_sector_accounting() {
        // QD=1 closed form: no queue wait, and an I/O of b sectors costs
        // exactly b × latency — the pre-queueing model.
        let m = SsdModel::fixed(100.0);
        for sectors in [1usize, 2, 7] {
            assert_eq!(m.service_time_us(sectors), sectors as f32 * 100.0);
        }
        // A batch at QD=1 serialises: the sum of its members, i.e. the
        // legacy bill of `total sectors × latency`.
        let batch = m.batch_us([1usize, 1, 3], 1);
        assert_eq!(batch, 5.0 * 100.0);
    }

    #[test]
    fn batch_completion_shrinks_with_depth_until_channels_bind() {
        let m = SsdModel::nvme();
        let reads = [1usize; 16];
        let serial = m.batch_us(reads, 1);
        let qd4 = m.batch_us(reads, 4);
        let qd8 = m.batch_us(reads, 8);
        let qd32 = m.batch_us(reads, 32);
        assert!(qd4 < serial, "{qd4} vs {serial}");
        assert!(qd8 < qd4);
        // Depth beyond the device's channels buys nothing.
        assert_eq!(qd32, qd8);
        // Never below the slowest member.
        assert!(qd8 >= m.service_time_us(1));
    }

    #[test]
    fn coalescing_beats_separate_commands() {
        // One 4-sector command vs four 1-sector commands: the fixed
        // per-command cost is paid once instead of four times.
        let m = SsdModel::nvme();
        let one = m.batch_us([4usize], 1);
        let four = m.batch_us([1usize; 4], 1);
        assert!(one < four, "{one} vs {four}");
        assert_eq!(four - one, 3.0 * m.service_us);
    }

    #[test]
    fn clock_reserves_serialise_and_report_wait() {
        let clock = VirtualClock::new();
        // First reservation on an idle device: no wait.
        let w0 = clock.reserve_now(50_000.0);
        assert_eq!(w0, 0.0);
        // Immediately following reservations queue behind it; each waits
        // at least the remaining occupancy of the previous ones.
        let w1 = clock.reserve_now(50_000.0);
        assert!(w1 > 40_000.0, "second reservation must queue: {w1}");
        let w2 = clock.reserve_now(0.0);
        assert!(w2 > w1, "horizon keeps advancing: {w2} vs {w1}");
    }
}
