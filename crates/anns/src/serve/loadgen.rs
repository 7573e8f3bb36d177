//! Open-loop load generation and the modeled service-cost clock
//! (DESIGN.md §11.4).
//!
//! Closed-loop batches (`ServeEngine::serve_batch`) can never show
//! overload: the client waits for completions, so offered load
//! self-throttles to capacity. An **open-loop** generator fixes the
//! arrival schedule up front — requests keep arriving whether or not the
//! system keeps up — which is the honest way to measure goodput, shed
//! fraction, and p99 past saturation. On this 1-core container the
//! schedule drives a deterministic virtual-time simulation (arrivals in
//! µs from t=0, service times from [`CostModel`]), so goodput and shed
//! curves are bit-reproducible; wall-clock concurrency stays the
//! closed-loop engine's job.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rpq_data::LabelPredicate;

use super::ShardQueryStats;
use crate::filter::FilterStrategy;

/// The filtered half of a request: which predicate constrains the results
/// and how the engine should push it into the search (DESIGN.md §12).
/// `Copy` (12 bytes) so scheduled requests carry it by value through every
/// serving layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FilteredQuery {
    /// The label predicate results must satisfy.
    pub pred: LabelPredicate,
    /// How the predicate is pushed into beam search.
    pub strategy: FilterStrategy,
}

/// One scheduled request: who asks what, when — and under which predicate,
/// if any.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// Arrival on the virtual clock, µs from the schedule start.
    pub arrival_us: f64,
    /// Tenant id, for per-tenant quotas and tallies.
    pub tenant: u32,
    /// Index into the query set served with the schedule.
    pub query: u32,
    /// Predicate constraint, `None` for unfiltered requests.
    pub filter: Option<FilteredQuery>,
}

/// A fixed arrival schedule, sorted by arrival time.
#[derive(Clone, Debug, Default)]
pub struct ArrivalSchedule {
    pub requests: Vec<Request>,
}

impl ArrivalSchedule {
    /// Poisson arrivals: `n` requests at `offered_qps` mean rate —
    /// exponential inter-arrival gaps from the seeded generator, tenant
    /// and query drawn uniformly. Same seed, same schedule, any machine.
    pub fn open_loop(
        n: usize,
        offered_qps: f64,
        n_queries: usize,
        tenants: u32,
        seed: u64,
    ) -> Self {
        assert!(offered_qps > 0.0, "offered load must be positive");
        assert!(n_queries > 0, "need at least one query to schedule");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut t_us = 0.0f64;
        let requests = (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                t_us += -u.ln() * 1e6 / offered_qps;
                Request {
                    arrival_us: t_us,
                    tenant: if tenants <= 1 {
                        0
                    } else {
                        rng.gen_range(0..tenants)
                    },
                    query: rng.gen_range(0..n_queries as u32),
                    filter: None,
                }
            })
            .collect();
        Self { requests }
    }

    /// [`ArrivalSchedule::open_loop`] with **Zipf-skewed query selection**:
    /// query index `q` is drawn with probability ∝ `1/(q+1)^s` (index 0
    /// hottest), via a precomputed rank CDF and binary search — seeded and
    /// bit-reproducible like everything else here. `s = 0` degenerates to
    /// uniform (but through the CDF path, so the RNG stream differs from
    /// [`ArrivalSchedule::open_loop`]'s). Skewed traffic is what makes
    /// trace-warmed node caches pay off: a heavy head re-touches the same
    /// graph neighborhoods, so hit rates climb with `s`.
    pub fn open_loop_zipf(
        n: usize,
        offered_qps: f64,
        n_queries: usize,
        tenants: u32,
        seed: u64,
        s: f64,
    ) -> Self {
        assert!(offered_qps > 0.0, "offered load must be positive");
        assert!(n_queries > 0, "need at least one query to schedule");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        // Rank CDF over query indices: weights 1/(r+1)^s, cumulative,
        // normalized to [0, 1].
        let mut cdf = Vec::with_capacity(n_queries);
        let mut acc = 0.0f64;
        for r in 0..n_queries {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut t_us = 0.0f64;
        let requests = (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                t_us += -u.ln() * 1e6 / offered_qps;
                let tenant = if tenants <= 1 {
                    0
                } else {
                    rng.gen_range(0..tenants)
                };
                let z: f64 = rng.gen_range(0.0..1.0);
                let query = cdf.partition_point(|&c| c < z).min(n_queries - 1) as u32;
                Request {
                    arrival_us: t_us,
                    tenant,
                    query,
                    filter: None,
                }
            })
            .collect();
        Self { requests }
    }

    /// Stamps request `i` with `filters[i % filters.len()]` — mixed-
    /// predicate traffic from one schedule (deterministic round-robin over
    /// the predicate set).
    pub fn with_filters(mut self, filters: &[FilteredQuery]) -> Self {
        assert!(!filters.is_empty(), "need at least one filter to stamp");
        for (i, r) in self.requests.iter_mut().enumerate() {
            r.filter = Some(filters[i % filters.len()]);
        }
        self
    }

    /// Every request at t=0 — what a closed-loop batch looks like to the
    /// admission gate (the queue bound binds immediately).
    pub fn burst(n: usize, n_queries: usize) -> Self {
        assert!(n_queries > 0, "need at least one query to schedule");
        let requests = (0..n)
            .map(|i| Request {
                arrival_us: 0.0,
                tenant: 0,
                query: (i % n_queries) as u32,
                filter: None,
            })
            .collect();
        Self { requests }
    }

    pub fn len(&self) -> usize {
        self.requests.len()
    }

    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Last arrival time (µs) — the horizon offered load is measured over.
    pub fn span_us(&self) -> f64 {
        self.requests.last().map_or(0.0, |r| r.arrival_us)
    }
}

/// Converts a query's deterministic work counters into modeled service
/// time. Distance evaluations and hops are the thread-invariant cost
/// drivers (DESIGN.md §7.6); the modeled I/O stall passes through as-is,
/// which is how a disk shard's device time and an injected stall
/// (fault.rs) reach the admission gate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Per-request overhead, µs.
    pub fixed_us: f32,
    /// Cost per distance-estimator invocation, µs.
    pub per_dist_us: f32,
    /// Cost per next-hop selection, µs.
    pub per_hop_us: f32,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            fixed_us: 2.0,
            per_dist_us: 0.02,
            per_hop_us: 0.1,
        }
    }
}

impl CostModel {
    /// Modeled service time (µs) for a query that did `stats` worth of
    /// work on one replica.
    pub fn service_us(&self, stats: &ShardQueryStats) -> f64 {
        self.fixed_us as f64
            + self.per_dist_us as f64 * stats.dist_comps as f64
            + self.per_hop_us as f64 * stats.hops as f64
            + stats.io_stall_seconds as f64 * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_schedule_is_seeded_sorted_and_rate_calibrated() {
        let a = ArrivalSchedule::open_loop(2000, 500.0, 16, 3, 9);
        let b = ArrivalSchedule::open_loop(2000, 500.0, 16, 3, 9);
        assert_eq!(a.requests, b.requests, "same seed, same schedule");
        let c = ArrivalSchedule::open_loop(2000, 500.0, 16, 3, 10);
        assert_ne!(a.requests, c.requests, "seed must matter");
        assert!(a
            .requests
            .windows(2)
            .all(|w| w[0].arrival_us <= w[1].arrival_us));
        // 2000 arrivals at 500 QPS should span ~4 s of virtual time.
        let span_s = a.span_us() / 1e6;
        assert!((3.0..5.0).contains(&span_s), "span {span_s:.2}s");
        assert!(a.requests.iter().any(|r| r.tenant == 2));
        assert!(a.requests.iter().all(|r| r.tenant < 3 && r.query < 16));
    }

    #[test]
    fn zipf_schedule_is_seeded_and_skews_toward_the_head() {
        let a = ArrivalSchedule::open_loop_zipf(4000, 500.0, 32, 2, 7, 1.1);
        let b = ArrivalSchedule::open_loop_zipf(4000, 500.0, 32, 2, 7, 1.1);
        assert_eq!(a.requests, b.requests, "same seed, same schedule");
        assert!(a
            .requests
            .windows(2)
            .all(|w| w[0].arrival_us <= w[1].arrival_us));
        assert!(a.requests.iter().all(|r| r.query < 32 && r.tenant < 2));
        // Head query share under Zipf(1.1) over 32 ranks is ~24%; uniform
        // would be ~3%. The top-4 head must dominate a uniform draw.
        let head = a.requests.iter().filter(|r| r.query < 4).count() as f64 / 4000.0;
        assert!(head > 0.35, "Zipf head share too small: {head:.3}");
        let uniform = ArrivalSchedule::open_loop_zipf(4000, 500.0, 32, 2, 7, 0.0);
        let head_u = uniform.requests.iter().filter(|r| r.query < 4).count() as f64 / 4000.0;
        assert!(
            (head_u - 4.0 / 32.0).abs() < 0.04,
            "s=0 must be uniform: {head_u:.3}"
        );
    }

    #[test]
    fn filter_stamping_covers_every_request() {
        let f0 = FilteredQuery {
            pred: LabelPredicate::single(0),
            strategy: FilterStrategy::DuringTraversal,
        };
        let f1 = FilteredQuery {
            pred: LabelPredicate::single(1),
            strategy: FilterStrategy::PostFilter { inflation: 4 },
        };
        let s = ArrivalSchedule::open_loop(10, 100.0, 4, 1, 3).with_filters(&[f0]);
        assert!(s.requests.iter().all(|r| r.filter == Some(f0)));
        let s = ArrivalSchedule::open_loop(10, 100.0, 4, 1, 3).with_filters(&[f0, f1]);
        assert_eq!(s.requests[0].filter, Some(f0));
        assert_eq!(s.requests[1].filter, Some(f1));
        assert_eq!(s.requests[2].filter, Some(f0));
    }

    #[test]
    fn burst_schedule_arrives_all_at_once() {
        let s = ArrivalSchedule::burst(5, 2);
        assert_eq!(s.len(), 5);
        assert_eq!(s.span_us(), 0.0);
        assert!(s.requests.iter().all(|r| r.arrival_us == 0.0));
    }

    #[test]
    fn cost_model_charges_counters_and_modeled_waits() {
        let cost = CostModel {
            fixed_us: 1.0,
            per_dist_us: 0.5,
            per_hop_us: 2.0,
        };
        let stats = ShardQueryStats {
            hops: 3,
            dist_comps: 10,
            io_stall_seconds: 3e-6,
            ..Default::default()
        };
        // 1 + 0.5*10 + 2*3 + 3 = 15 (f32 stats, so micro-µs slack)
        assert!((cost.service_us(&stats) - 15.0).abs() < 1e-4);
    }
}
