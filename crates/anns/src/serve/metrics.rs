//! Latency/throughput accounting for the serving layer (DESIGN.md §7.4).
//!
//! Every served query records one wall-clock latency sample; snapshots
//! reduce the samples to the operational readouts a serving dashboard
//! would plot: QPS, mean, and the p50/p95/p99 tail percentiles.

use std::sync::Mutex;

use super::recover;

/// Reduced view over a set of latency samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Samples reduced.
    pub count: usize,
    /// Mean latency, microseconds.
    pub mean_us: f32,
    /// Median latency, microseconds.
    pub p50_us: f32,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f32,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f32,
    /// Worst observed latency, microseconds.
    pub max_us: f32,
}

impl LatencySummary {
    /// Reduces raw microsecond samples (nearest-rank percentiles).
    pub fn from_samples(samples: &[f32]) -> Self {
        Self::reduce(samples.to_vec())
    }

    /// Sorts the owned samples in place and reduces them.
    fn reduce(mut sorted: Vec<f32>) -> Self {
        if sorted.is_empty() {
            return Self::default();
        }
        sorted.sort_by(f32::total_cmp);
        let pct = |p: f32| -> f32 {
            let rank = ((p / 100.0) * sorted.len() as f32).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        Self {
            count: sorted.len(),
            mean_us: sorted.iter().sum::<f32>() / sorted.len() as f32,
            p50_us: pct(50.0),
            p95_us: pct(95.0),
            p99_us: pct(99.0),
            max_us: *sorted.last().unwrap(),
        }
    }
}

/// Samples the default recorder window holds — large enough for stable
/// p99s, small enough that a long-lived engine's memory stays flat.
const DEFAULT_WINDOW: usize = 65_536;

/// Thread-safe accumulator of per-query latency samples over a **sliding
/// window** of the most recent queries. One recorder lives for the whole
/// lifetime of a [`crate::serve::ServeEngine`]; bounding the window keeps
/// a production engine's memory flat and every snapshot O(window) instead
/// of O(lifetime queries). Per-batch summaries are computed from the
/// batch's own samples, not the recorder.
pub struct LatencyRecorder {
    inner: Mutex<Window>,
}

/// Ring buffer of recent samples plus the lifetime total.
struct Window {
    samples_us: Vec<f32>,
    capacity: usize,
    next: usize,
    total: u64,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::with_window(DEFAULT_WINDOW)
    }
}

impl LatencyRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder keeping the most recent `window` samples (≥ 1).
    fn with_window(window: usize) -> Self {
        Self {
            inner: Mutex::new(Window {
                samples_us: Vec::new(),
                capacity: window.max(1),
                next: 0,
                total: 0,
            }),
        }
    }

    /// Records one query's wall-clock latency in microseconds, evicting
    /// the oldest sample once the window is full.
    pub fn record_us(&self, us: f32) {
        let mut w = recover(self.inner.lock());
        if w.samples_us.len() < w.capacity {
            w.samples_us.push(us);
        } else {
            let slot = w.next;
            w.samples_us[slot] = us;
        }
        w.next = (w.next + 1) % w.capacity;
        w.total += 1;
    }

    /// Lifetime total of samples recorded (not capped by the window).
    pub fn count(&self) -> usize {
        recover(self.inner.lock()).total as usize
    }

    /// Percentile summary over the current window. The lock is held only
    /// for the copy: the `O(w log w)` sort runs after the guard is dropped,
    /// so concurrent [`LatencyRecorder::record_us`] calls never wait on it.
    pub fn snapshot(&self) -> LatencySummary {
        let window = recover(self.inner.lock()).samples_us.clone();
        LatencySummary::reduce(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zero() {
        let s = LatencySummary::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_us, 0.0);
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let samples: Vec<f32> = (1..=1000).map(|i| i as f32).collect();
        let s = LatencySummary::from_samples(&samples);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50_us, 500.0);
        assert_eq!(s.p95_us, 950.0);
        assert_eq!(s.p99_us, 990.0);
        assert_eq!(s.max_us, 1000.0);
        assert!(s.p50_us <= s.p95_us && s.p95_us <= s.p99_us && s.p99_us <= s.max_us);
    }

    #[test]
    fn single_sample_percentiles_collapse() {
        let s = LatencySummary::from_samples(&[42.0]);
        assert_eq!(s.p50_us, 42.0);
        assert_eq!(s.p99_us, 42.0);
        assert_eq!(s.mean_us, 42.0);
    }

    #[test]
    fn recorder_accumulates_across_calls() {
        let r = LatencyRecorder::new();
        r.record_us(100.0);
        r.record_us(300.0);
        assert_eq!(r.count(), 2);
        let s = r.snapshot();
        assert_eq!(s.count, 2);
        assert!((s.mean_us - 200.0).abs() < 1.0);
    }

    #[test]
    fn summary_unaffected_by_sample_order() {
        let a = LatencySummary::from_samples(&[3.0, 1.0, 2.0]);
        let b = LatencySummary::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn window_evicts_oldest_but_keeps_lifetime_count() {
        let r = LatencyRecorder::with_window(4);
        for us in [1.0f32, 2.0, 3.0, 4.0, 100.0, 200.0] {
            r.record_us(us);
        }
        assert_eq!(r.count(), 6, "lifetime total must not be window-capped");
        let s = r.snapshot();
        assert_eq!(s.count, 4, "window holds the most recent 4");
        // 1.0 and 2.0 were evicted; the window is {3, 4, 100, 200}.
        assert_eq!(s.max_us, 200.0);
        assert!(s.mean_us > 75.0, "evicted samples still in window: {s:?}");
    }
}
