//! Replica selection policies (DESIGN.md §11.2).
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
    /// Earliest busy-until horizon on the replicas' virtual device
    /// timelines ([`crate::ssd::VirtualClock`] on caller-supplied time —
    /// the deterministic use of the type the disk shards' shared device
    /// drives off the wall clock). Sees the *size* of queued work, not
    /// just its count, so it routes around a stalled replica fastest.
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
