//! Replica selection policies (DESIGN.md §11.2) and the per-replica
//! virtual timeline they read (`VirtualClock`, DESIGN.md §11.3).
//!
//! A policy never changes *what* a query returns — every replica of a
//! group is bit-identical, so the §7.3 exact-merge contract holds under
//! any policy (pinned by tests/cluster.rs). It only changes *where* the
//! modeled service time lands, i.e. queue waits, goodput, and tails.
//!
//! All three policies are deterministic functions of the cluster's
//! virtual-time state (cursor positions, outstanding completions, busy
//! horizons), never of wall-clock arrival order, so an open-loop run is
//! bit-reproducible on any machine and at any `RPQ_THREADS`.

use std::sync::atomic::{AtomicU64, Ordering};

/// How a [`super::ReplicaSet`] picks which replica serves a read.
///
/// Ties always break toward the lowest replica index; disabled replicas
/// are never chosen. The preference is an *order*, not a single pick:
/// when the preferred replica fails (fault injection, DESIGN.md §11.5)
/// the set fails over to the next replica in the same order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LoadBalancePolicy {
    /// Cycle through the replicas with a per-set cursor. Oblivious to
    /// load, optimal when every request costs the same.
    #[default]
    RoundRobin,
    /// Fewest requests admitted-but-not-yet-completed (in virtual time)
    /// at decision time. Adapts to uneven request cost without needing a
    /// cost model at the balancer.
    LeastOutstanding,
    /// Earliest busy-until horizon on the replicas' virtual timelines.
    /// Sees the *size* of queued work, not just its count, so it routes
    /// around a stalled replica fastest.
    QueueAware,
}

impl LoadBalancePolicy {
    /// Every policy, for "pinned under all policies" test sweeps.
    pub fn all() -> [LoadBalancePolicy; 3] {
        [
            LoadBalancePolicy::RoundRobin,
            LoadBalancePolicy::LeastOutstanding,
            LoadBalancePolicy::QueueAware,
        ]
    }

    /// Stable name for reports and JSON rows.
    pub fn name(&self) -> &'static str {
        match self {
            LoadBalancePolicy::RoundRobin => "round_robin",
            LoadBalancePolicy::LeastOutstanding => "least_outstanding",
            LoadBalancePolicy::QueueAware => "queue_aware",
        }
    }
}

/// One replica's busy-until horizon in virtual time. A reservation of
/// `service_us` arriving at `now_us` starts at `max(now, busy_until)` and
/// the returned wait is `start − now`. Every `now` comes from the caller —
/// an open-loop schedule's arrivals — so a schedule produces the same waits
/// on any machine.
#[derive(Default)]
pub(crate) struct VirtualClock {
    /// Busy-until horizon in nanoseconds of virtual time.
    busy_until_ns: AtomicU64,
}

impl VirtualClock {
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
    fn clock_reserves_serialise_and_report_wait() {
        let clock = VirtualClock::default();
        // First reservation on an idle timeline: no wait.
        assert_eq!(clock.reserve_at(0.0, 50_000.0), 0.0);
        // A reservation arriving while the first is in service queues for
        // exactly the remaining occupancy; the horizon keeps advancing.
        assert_eq!(clock.reserve_at(10_000.0, 50_000.0), 40_000.0);
        assert_eq!(clock.reserve_at(20_000.0, 0.0), 80_000.0);
        assert_eq!(clock.backlog_us(20_000.0), 80_000.0);
        // One arriving after the horizon drained waits for nothing.
        assert_eq!(clock.reserve_at(200_000.0, 1.0), 0.0);
        clock.reset();
        assert_eq!(clock.backlog_us(0.0), 0.0);
    }
}
