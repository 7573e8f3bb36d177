//! Parallel Lloyd's k-means with k-means++ seeding — the codebook trainer
//! every PQ variant shares (paper Def. 3 step 2 cites the Lloyd quantizer).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use rpq_linalg::distance::{sq_l2, sq_l2_rows};

/// k-means parameters.
#[derive(Clone, Copy, Debug)]
pub struct KMeansConfig {
    /// Number of clusters (codewords per sub-codebook; paper uses K = 256).
    pub k: usize,
    /// Lloyd iteration cap.
    pub max_iters: usize,
    pub seed: u64,
}

/// Relative inertia improvement below which iteration stops.
const TOL: f32 = 1e-4;

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 256,
            max_iters: 20,
            seed: 0,
        }
    }
}

/// The Lloyd quantizer's argmin: index of, and squared distance to, the row
/// of `rows` (`buf.len()` rows of `x.len()` floats) nearest to `x`; the
/// first such row on a tie. `buf` is scratch for the row distances.
pub(crate) fn nearest_row(x: &[f32], rows: &[f32], buf: &mut [f32]) -> (usize, f32) {
    sq_l2_rows(x, rows, buf);
    let mut best = (0usize, f32::INFINITY);
    for (i, &d) in buf.iter().enumerate() {
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

/// Result of a k-means run.
pub struct KMeansResult {
    /// `k × dim` centroid matrix (flat, row-major).
    pub centroids: Vec<f32>,
    /// Cluster id per input point.
    pub assignments: Vec<u32>,
    /// Final sum of squared distances to assigned centroids.
    pub inertia: f32,
    /// Effective number of clusters (≤ k when there are few points).
    pub k: usize,
}

/// Runs k-means over `n = data.len()/dim` points of dimension `dim`.
///
/// `k` is clamped to the number of points. Empty clusters are re-seeded from
/// the points currently worst-served by their centroid.
pub fn kmeans(data: &[f32], dim: usize, cfg: KMeansConfig) -> KMeansResult {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(data.len() % dim, 0, "data length not a multiple of dim");
    let n = data.len() / dim;
    assert!(n > 0, "k-means needs at least one point");
    let k = cfg.k.min(n).max(1);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    let point = |i: usize| &data[i * dim..(i + 1) * dim];

    // k-means++ seeding.
    let mut centroids: Vec<f32> = Vec::with_capacity(k * dim);
    let first = rng.gen_range(0..n);
    centroids.extend_from_slice(point(first));
    let mut min_d2: Vec<f32> = (0..n).map(|i| sq_l2(point(i), point(first))).collect();
    while centroids.len() / dim < k {
        let total: f64 = min_d2.iter().map(|&d| d as f64).sum();
        let pick = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &d) in min_d2.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        let c = centroids.len() / dim;
        centroids.extend_from_slice(point(pick));
        let new_c = &centroids[c * dim..(c + 1) * dim].to_vec();
        min_d2.par_iter_mut().enumerate().for_each(|(i, d)| {
            let nd = sq_l2(point(i), new_c);
            if nd < *d {
                *d = nd;
            }
        });
    }

    let mut assignments = vec![0u32; n];
    let mut prev_inertia = f32::INFINITY;
    let mut inertia = f32::INFINITY;

    for _ in 0..cfg.max_iters.max(1) {
        // Assignment step (parallel).
        let stats: Vec<(u32, f32)> = (0..n)
            .into_par_iter()
            .map_init(
                || vec![0.0f32; k],
                |buf, i| {
                    let (c, d) = nearest_row(point(i), &centroids, buf);
                    (c as u32, d)
                },
            )
            .collect();
        inertia = stats.iter().map(|s| s.1 as f64).sum::<f64>() as f32;
        for (a, s) in assignments.iter_mut().zip(&stats) {
            *a = s.0;
        }

        // Update step.
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0usize; k];
        for (i, &(c, _)) in stats.iter().enumerate() {
            counts[c as usize] += 1;
            let row = &mut sums[c as usize * dim..(c as usize + 1) * dim];
            for (s, &x) in row.iter_mut().zip(point(i)) {
                *s += x as f64;
            }
        }
        // Re-seed empty clusters from the worst-served points.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| stats[b].1.total_cmp(&stats[a].1));
        let mut worst_iter = order.into_iter();
        for c in 0..k {
            if counts[c] == 0 {
                if let Some(w) = worst_iter.next() {
                    centroids[c * dim..(c + 1) * dim].copy_from_slice(point(w));
                }
            } else {
                let inv = 1.0 / counts[c] as f64;
                for (dst, &s) in centroids[c * dim..(c + 1) * dim]
                    .iter_mut()
                    .zip(&sums[c * dim..(c + 1) * dim])
                {
                    *dst = (s * inv) as f32;
                }
            }
        }

        if prev_inertia.is_finite() && (prev_inertia - inertia).abs() <= TOL * prev_inertia {
            break;
        }
        prev_inertia = inertia;
    }

    KMeansResult {
        centroids,
        assignments,
        inertia,
        k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> (Vec<f32>, usize) {
        let mut data = Vec::new();
        for i in 0..50 {
            data.extend_from_slice(&[0.0 + (i % 5) as f32 * 0.01, 0.0]);
            data.extend_from_slice(&[10.0 + (i % 5) as f32 * 0.01, 10.0]);
        }
        (data, 2)
    }

    #[test]
    fn separates_two_blobs() {
        let (data, dim) = two_blobs();
        let res = kmeans(
            &data,
            dim,
            KMeansConfig {
                k: 2,
                ..Default::default()
            },
        );
        assert_eq!(res.k, 2);
        // Points alternate blob A / blob B; assignments must alternate too.
        let a = res.assignments[0];
        let b = res.assignments[1];
        assert_ne!(a, b);
        for (i, &asn) in res.assignments.iter().enumerate() {
            assert_eq!(asn, if i % 2 == 0 { a } else { b }, "point {i}");
        }
        assert!(res.inertia < 1.0, "inertia {}", res.inertia);
    }

    #[test]
    fn k_clamped_to_n() {
        let data = vec![0.0f32, 1.0, 2.0];
        let res = kmeans(
            &data,
            1,
            KMeansConfig {
                k: 100,
                ..Default::default()
            },
        );
        assert_eq!(res.k, 3);
        assert!(res.inertia < 1e-6);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let (data, dim) = two_blobs();
        let r1 = kmeans(
            &data,
            dim,
            KMeansConfig {
                k: 1,
                ..Default::default()
            },
        );
        let r4 = kmeans(
            &data,
            dim,
            KMeansConfig {
                k: 4,
                ..Default::default()
            },
        );
        assert!(r4.inertia < r1.inertia);
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, dim) = two_blobs();
        let a = kmeans(
            &data,
            dim,
            KMeansConfig {
                k: 4,
                seed: 3,
                ..Default::default()
            },
        );
        let b = kmeans(
            &data,
            dim,
            KMeansConfig {
                k: 4,
                seed: 3,
                ..Default::default()
            },
        );
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn duplicate_points_do_not_crash() {
        let data = vec![1.0f32; 40]; // 20 identical 2-D points
        let res = kmeans(
            &data,
            2,
            KMeansConfig {
                k: 5,
                ..Default::default()
            },
        );
        assert!(res.inertia < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_input_panics() {
        let _ = kmeans(&[], 4, KMeansConfig::default());
    }
}
