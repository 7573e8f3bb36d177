//! The estimator every timing in this benchmark goes through.
//!
//! A measured phase is one untimed warm-up pass plus P timed passes over
//! the same operations, spread over the whole measuring window. Each
//! statistic (pass wall time, per-operation p50, per-operation p99) is
//! computed *per pass*; the run reports the **fastest pass's** value.
//! Interference from co-tenants only ever adds time and comes in episodes of
//! seconds, so the fastest of fifty 0.1 s passes spread over ten seconds is
//! the machine's quiet behaviour, where a mean, a median or even a lower
//! quartile tracks whoever else was running (README, "The estimator").

/// Nearest-rank quantile of an ascending slice: the smallest element with
/// at least `q·n` elements at or below it. `q = 0.99` over 1 000 samples is
/// `sorted[989]`, which leaves ten samples beyond it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The smallest of unsorted values: the pass (round, replay, cycle) that
/// met the least interference.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of an empty sample");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median (nearest rank) of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Mean of unsorted values (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One timed pass: its wall time and the per-operation percentiles inside
/// it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PassSample {
    pub wall_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Reduces one pass's per-operation latencies (nanoseconds, any order).
pub fn pass_sample(wall_s: f64, lat_ns: &[u64]) -> PassSample {
    let mut us: Vec<f64> = lat_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    us.sort_by(f64::total_cmp);
    PassSample {
        wall_s,
        p50_us: quantile(&us, 0.5),
        p99_us: quantile(&us, 0.99),
    }
}

/// What a phase reports: each statistic from the pass where it was best.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseSummary {
    /// Timed passes (the warm-up pass is not counted).
    pub passes: usize,
    /// Operations per pass (the per-pass sample count behind p50/p99).
    pub ops_per_pass: usize,
    /// `ops_per_pass` over the fastest pass wall time.
    pub ops_per_s: f64,
    /// Fastest pass wall time over `ops_per_pass`, microseconds.
    pub mean_us: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// The fastest value of every per-pass statistic.
pub fn summarize(samples: &[PassSample], ops_per_pass: usize) -> PhaseSummary {
    let pick = |f: fn(&PassSample) -> f64| fastest(&samples.iter().map(f).collect::<Vec<_>>());
    let wall_s = pick(|s| s.wall_s);
    PhaseSummary {
        passes: samples.len(),
        ops_per_pass,
        ops_per_s: ops_per_pass as f64 / wall_s,
        mean_us: wall_s * 1e6 / ops_per_pass as f64,
        p50_us: pick(|s| s.p50_us),
        p99_us: pick(|s| s.p99_us),
    }
}

/// Exact-count comparison: counts and recalls must repeat bit-for-bit for a
/// seed, so "equal" means the same `f64`, not "close".
pub fn exact_equal(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Whether every value in `values` is the same `f64`.
pub fn all_exact_equal(values: &[f64]) -> bool {
    values.windows(2).all(|w| exact_equal(w[0], w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.99), 990.0);
        assert_eq!(sorted.iter().filter(|&&x| x > 990.0).count(), 10);
        assert_eq!(quantile(&sorted, 0.5), 500.0);
    }

    #[test]
    fn quantile_index_maths_at_the_edges() {
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.25), 1.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.0), 1.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
    }

    #[test]
    fn fastest_ignores_slow_passes() {
        // Most passes hit interference; the estimate does not move.
        let quiet = [110.0, 111.0, 109.0, 112.0, 110.5];
        let mut noisy = vec![160.0, 158.0, 171.0, 149.0, 152.0, 166.0, 140.0];
        noisy.extend(quiet);
        assert_eq!(fastest(&quiet), 109.0);
        assert_eq!(fastest(&noisy), 109.0);
        assert!(mean(&noisy) > 135.0 && median(&noisy) > 135.0);
    }

    #[test]
    fn pass_sample_reduces_nanoseconds_to_microsecond_percentiles() {
        let lat: Vec<u64> = (1..=100).rev().map(|i| i * 1000).collect();
        let s = pass_sample(0.5, &lat);
        assert_eq!(s.p50_us, 50.0);
        assert_eq!(s.p99_us, 99.0);
        assert_eq!(s.wall_s, 0.5);
    }

    #[test]
    fn summary_takes_each_statistic_from_its_own_best_pass() {
        let samples = [
            PassSample {
                wall_s: 0.4,
                p50_us: 90.0,
                p99_us: 300.0,
            },
            PassSample {
                wall_s: 0.1,
                p50_us: 95.0,
                p99_us: 200.0,
            },
            PassSample {
                wall_s: 0.2,
                p50_us: 80.0,
                p99_us: 250.0,
            },
            PassSample {
                wall_s: 0.3,
                p50_us: 85.0,
                p99_us: 400.0,
            },
        ];
        let s = summarize(&samples, 1000);
        assert_eq!(s.passes, 4);
        assert_eq!(s.ops_per_s, 10_000.0);
        assert_eq!(s.mean_us, 100.0);
        // Not all from one pass: wall from the second, p50 from the third.
        assert_eq!(s.p50_us, 80.0);
        assert_eq!(s.p99_us, 200.0);
    }

    #[test]
    fn exact_counts_compare_bitwise() {
        assert!(exact_equal(0.3367, 0.3367));
        assert!(!exact_equal(0.3367, 0.3367 + f64::EPSILON));
        assert!(all_exact_equal(&[742.0, 742.0, 742.0]));
        assert!(!all_exact_equal(&[742.0, 742.0, 743.0]));
        assert!(all_exact_equal(&[]));
    }
}
