//! Admission control and backpressure (DESIGN.md §11.3).
//!
//! The cluster's open-loop server decides, per arriving request and
//! *before* executing anything: admit, or shed with a typed
//! [`RejectReason`]. Three gates compose, cheapest first:
//!
//! 1. **Bounded queue** — at most `queue_cap` requests admitted but not
//!    yet completed (in virtual time). Beyond that the system is
//!    saturated and queueing further work only grows tail latency, so
//!    the request is shed as [`RejectReason::QueueFull`].
//! 2. **Deadline shedding** — if the *estimated* start wait (the least
//!    busy replica's backlog) already exceeds the deadline, the request
//!    cannot possibly be useful; shed as
//!    [`RejectReason::DeadlineExceeded`] without executing it.
//! 3. **Per-tenant token buckets** — each tenant drains one token per
//!    admitted request from a bucket refilled at `rate_per_sec` up to
//!    `burst`; an empty bucket sheds as [`RejectReason::QuotaExceeded`].
//!
//! Order matters for the accounting invariants the proptests pin: a
//! token is only consumed when every earlier gate passed, so quota
//! tenants aren't charged for requests the queue would have shed anyway.
//! All state advances on the schedule's virtual clock — admission
//! decisions are bit-reproducible for a given schedule.

use std::collections::BTreeMap;

/// A per-tenant token bucket: `burst` capacity, refilled continuously at
/// `rate_per_sec`. One admitted request costs one token.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TokenBucketConfig {
    /// Sustained admitted-requests-per-second per tenant.
    pub rate_per_sec: f32,
    /// Bucket capacity: the largest burst admitted from a cold start.
    pub burst: f32,
}

/// What the admission gate enforces. `Default` is a bounded queue of 64
/// with no deadline and no quotas.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionConfig {
    /// Max requests admitted but not yet completed. Saturation backstop —
    /// must be at least 1.
    pub queue_cap: usize,
    /// Shed requests whose estimated start wait exceeds this (µs).
    pub deadline_us: Option<f32>,
    /// Per-tenant token-bucket quota; `None` admits all tenants equally.
    pub quota: Option<TokenBucketConfig>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            queue_cap: 64,
            deadline_us: None,
            quota: None,
        }
    }
}

/// Why a request was shed instead of executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RejectReason {
    /// The bounded admission queue was full.
    QueueFull,
    /// Estimated start wait exceeded the request deadline.
    DeadlineExceeded,
    /// The tenant's token bucket was empty.
    QuotaExceeded,
    /// Every replica of some required shard group failed the read.
    ShardUnavailable,
    /// The request carried a predicate and some shard holds no labels to
    /// evaluate it against.
    NoLabels,
}

impl RejectReason {
    /// Stable name for reports and JSON rows.
    pub fn name(&self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::DeadlineExceeded => "deadline_exceeded",
            RejectReason::QuotaExceeded => "quota_exceeded",
            RejectReason::ShardUnavailable => "shard_unavailable",
            RejectReason::NoLabels => "no_labels",
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Bucket {
    tokens: f64,
    last_us: f64,
}

/// Virtual-time admission bookkeeping for one open-loop run. `BTreeMap`
/// (not `HashMap`) so tenant iteration order — and therefore every
/// report derived from it — is deterministic.
#[derive(Debug, Default)]
pub(super) struct AdmissionState {
    /// Virtual completion times of admitted-but-unfinished requests.
    inflight: Vec<f64>,
    buckets: BTreeMap<u32, Bucket>,
}

impl AdmissionState {
    pub fn new() -> Self {
        Self::default()
    }

    /// Decides admission for a request from `tenant` arriving at `now_us`
    /// with an engine-estimated start wait of `est_wait_us`. Mutates state
    /// (prunes completed in-flight entries, refills and possibly drains
    /// the tenant's bucket) and returns `Err(reason)` on shed.
    pub fn admit(
        &mut self,
        cfg: &AdmissionConfig,
        tenant: u32,
        now_us: f64,
        est_wait_us: f64,
    ) -> Result<(), RejectReason> {
        assert!(cfg.queue_cap >= 1, "queue_cap must admit something");
        self.inflight.retain(|&done| done > now_us);
        if self.inflight.len() >= cfg.queue_cap {
            return Err(RejectReason::QueueFull);
        }
        if let Some(deadline) = cfg.deadline_us {
            if est_wait_us > deadline as f64 {
                return Err(RejectReason::DeadlineExceeded);
            }
        }
        if let Some(quota) = cfg.quota {
            let bucket = self.buckets.entry(tenant).or_insert(Bucket {
                tokens: quota.burst as f64,
                last_us: now_us,
            });
            let dt_us = (now_us - bucket.last_us).max(0.0);
            bucket.tokens =
                (bucket.tokens + dt_us * quota.rate_per_sec as f64 / 1e6).min(quota.burst as f64);
            bucket.last_us = now_us;
            if bucket.tokens < 1.0 {
                return Err(RejectReason::QuotaExceeded);
            }
            bucket.tokens -= 1.0;
        }
        Ok(())
    }

    /// Records an admitted request's virtual completion time.
    pub fn started(&mut self, completion_us: f64) {
        self.inflight.push(completion_us);
    }

    /// Requests admitted but not completed at `now_us`.
    #[cfg(test)]
    pub fn outstanding(&self, now_us: f64) -> usize {
        self.inflight.iter().filter(|&&done| done > now_us).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_bound_is_enforced_and_drains() {
        let cfg = AdmissionConfig {
            queue_cap: 2,
            ..Default::default()
        };
        let mut st = AdmissionState::new();
        assert!(st.admit(&cfg, 0, 0.0, 0.0).is_ok());
        st.started(100.0);
        assert!(st.admit(&cfg, 0, 1.0, 0.0).is_ok());
        st.started(200.0);
        assert_eq!(st.outstanding(2.0), 2);
        assert_eq!(st.admit(&cfg, 0, 2.0, 0.0), Err(RejectReason::QueueFull));
        // Once one completes (t > 100), a slot frees up.
        assert!(st.admit(&cfg, 0, 101.0, 0.0).is_ok());
    }

    #[test]
    fn deadline_sheds_on_estimated_wait_only() {
        let cfg = AdmissionConfig {
            deadline_us: Some(50.0),
            ..Default::default()
        };
        let mut st = AdmissionState::new();
        assert!(st.admit(&cfg, 0, 0.0, 49.0).is_ok());
        assert_eq!(
            st.admit(&cfg, 0, 0.0, 51.0),
            Err(RejectReason::DeadlineExceeded)
        );
    }

    #[test]
    fn token_bucket_burst_then_refill() {
        let cfg = AdmissionConfig {
            queue_cap: usize::MAX >> 1,
            quota: Some(TokenBucketConfig {
                rate_per_sec: 1000.0, // one token per ms
                burst: 3.0,
            }),
            ..Default::default()
        };
        let mut st = AdmissionState::new();
        // Burst of 3 at t=0, then empty.
        for _ in 0..3 {
            assert!(st.admit(&cfg, 7, 0.0, 0.0).is_ok());
        }
        assert_eq!(
            st.admit(&cfg, 7, 0.0, 0.0),
            Err(RejectReason::QuotaExceeded)
        );
        // Another tenant has its own bucket.
        assert!(st.admit(&cfg, 8, 0.0, 0.0).is_ok());
        // 1ms later one token has refilled — exactly one more admit.
        assert!(st.admit(&cfg, 7, 1_000.0, 0.0).is_ok());
        assert_eq!(
            st.admit(&cfg, 7, 1_000.0, 0.0),
            Err(RejectReason::QuotaExceeded)
        );
    }

    #[test]
    fn quota_not_charged_when_queue_sheds_first() {
        let cfg = AdmissionConfig {
            queue_cap: 1,
            quota: Some(TokenBucketConfig {
                rate_per_sec: 0.0,
                burst: 1.0,
            }),
            ..Default::default()
        };
        let mut st = AdmissionState::new();
        assert!(st.admit(&cfg, 0, 0.0, 0.0).is_ok());
        st.started(f64::MAX);
        // Queue full: shed before the bucket is touched...
        assert_eq!(st.admit(&cfg, 0, 1.0, 0.0), Err(RejectReason::QueueFull));
        // ...so the tenant's last token is still there for a later slot.
        assert_eq!(st.buckets[&0].tokens, 0.0, "first admit took the token");
    }
}
