//! Local intrinsic dimensionality (LID) estimation.
//!
//! The paper characterises each dataset by its LID (Table 3, citing Facco et
//! al. / Amsaleg et al.). We implement the classical maximum-likelihood
//! estimator: for a point with distances `r₁ ≤ … ≤ r_k` to its k nearest
//! neighbors,
//!
//! ```text
//! LID ≈ − ( (1/k) · Σᵢ ln(rᵢ / r_k) )⁻¹
//! ```
//!
//! and the dataset-level figure is the average over sampled points. The
//! tests use it to pin that the synthetic generators reproduce Table 3's
//! LID *ordering* (Ukbench < Sift < Deep < Gist), each at 0.4–0.9× its
//! target. The MLE reading rises with n, so at laptop scale it sits below
//! the full-scale targets (DESIGN.md §4.1).

use rayon::prelude::*;
use rpq_linalg::distance::sq_l2;

use crate::dataset::Dataset;

/// Estimates the dataset's average LID from `sample` query points, each using
/// its `k` nearest neighbors. Returns `None` for degenerate inputs (fewer
/// than `k + 1` points or `k < 2`).
pub fn estimate_lid(ds: &Dataset, sample: usize, k: usize, seed: u64) -> Option<f32> {
    if ds.len() < k + 1 || k < 2 {
        return None;
    }
    // Deterministic sample: stride over the dataset starting at seed offset.
    let n = ds.len();
    let sample = sample.min(n);
    let stride = (n / sample).max(1);
    let start = (seed as usize) % stride.max(1);
    let points: Vec<usize> = (0..sample).map(|i| (start + i * stride) % n).collect();

    let lids: Vec<f32> = points
        .par_iter()
        .filter_map(|&qi| {
            let q = ds.get(qi);
            // Exact kNN distances (squared), excluding the point itself.
            let mut dists: Vec<f32> = Vec::with_capacity(n - 1);
            for j in 0..n {
                if j != qi {
                    dists.push(sq_l2(q, ds.get(j)));
                }
            }
            dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
            dists.truncate(k);
            let rk = dists[k - 1].max(f32::MIN_POSITIVE).sqrt();
            let mut acc = 0.0f64;
            let mut cnt = 0usize;
            for &d in &dists[..k - 1] {
                let r = d.sqrt();
                if r > 0.0 {
                    acc += (r as f64 / rk as f64).ln();
                    cnt += 1;
                }
            }
            if cnt == 0 || acc >= 0.0 {
                return None;
            }
            Some((-(cnt as f64) / acc) as f32)
        })
        .collect();

    if lids.is_empty() {
        None
    } else {
        Some(lids.iter().sum::<f32>() / lids.len() as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{DatasetKind, SynthConfig, ValueTransform};

    fn gaussian_config(dim: usize, intrinsic: usize) -> SynthConfig {
        SynthConfig {
            dim,
            intrinsic_dim: intrinsic,
            clusters: 1,
            cluster_std: 1.0,
            noise_std: 0.0,
            transform: ValueTransform::Identity,
        }
    }

    #[test]
    fn lid_tracks_intrinsic_dimension() {
        // A single full-rank Gaussian in d dims has LID ≈ d.
        let low = gaussian_config(32, 4).generate(2000, 1);
        let high = gaussian_config(32, 20).generate(2000, 2);
        let lid_low = estimate_lid(&low, 100, 20, 0).unwrap();
        let lid_high = estimate_lid(&high, 100, 20, 0).unwrap();
        assert!(
            lid_low < lid_high,
            "lid_low {lid_low} vs lid_high {lid_high}"
        );
        assert!(lid_low > 1.5 && lid_low < 10.0, "lid_low {lid_low}");
        assert!(lid_high > 10.0, "lid_high {lid_high}");
    }

    /// DESIGN.md §4.1's evidence: at n 5 000 the four generators' MLE LID
    /// keeps Table 3's order and sits at 0.4–0.9× each target (the reading
    /// rises with n, so laptop-scale corpora read below the full-scale
    /// column).
    #[test]
    fn generators_keep_table3_lid_order_at_paper_proportions() {
        let table3 = [
            (DatasetKind::Ukbench, 8.3f32),
            (DatasetKind::Sift, 16.6),
            (DatasetKind::Deep, 17.6),
            (DatasetKind::Gist, 35.0),
        ];
        for seed in 1..=3u64 {
            let lids: Vec<f32> = table3
                .iter()
                .map(|&(kind, target)| {
                    let data = kind.config().generate(5_000, seed);
                    let lid = estimate_lid(&data, 200, 20, seed).unwrap();
                    assert!(
                        (0.4 * target..=0.9 * target).contains(&lid),
                        "{} seed {seed}: LID {lid} outside [0.4, 0.9] x {target}",
                        kind.name()
                    );
                    lid
                })
                .collect();
            assert!(
                lids.windows(2).all(|w| w[0] < w[1]),
                "seed {seed}: {lids:?} breaks Table 3's order Ukbench < Sift < Deep < Gist"
            );
        }
    }

    #[test]
    fn degenerate_inputs_return_none() {
        let tiny = gaussian_config(4, 2).generate(3, 3);
        assert!(estimate_lid(&tiny, 10, 10, 0).is_none());
        assert!(estimate_lid(&tiny, 10, 1, 0).is_none());
    }

    #[test]
    fn duplicate_points_do_not_panic() {
        let mut ds = Dataset::new(2);
        for _ in 0..20 {
            ds.push(&[1.0, 1.0]);
        }
        // All-zero distances: estimator should decline, not panic.
        assert!(estimate_lid(&ds, 5, 5, 0).is_none());
    }
}
