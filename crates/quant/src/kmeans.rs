//! Lloyd's k-means with k-means++ seeding — the codebook trainer every PQ
//! variant shares (paper Def. 3 step 2 cites the Lloyd quantizer).
//!
//! One run is sequential: PQ training runs its `M` independent sub-space
//! runs side by side instead ([`crate::pq`]), so a run's result never
//! depends on the pool width.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rpq_linalg::distance::{nearest_column, sq_l2_columns, to_columns};

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
    let mut centroids = plus_plus_seeds(data, dim, k, cfg.seed);
    let point = |i: usize| &data[i * dim..(i + 1) * dim];

    let mut assignments = vec![0u32; n];
    let mut dists = vec![0.0f32; n];
    // The centroids transposed to `dim × k`, the layout the column kernel
    // reads; rebuilt once per iteration.
    let mut cols = vec![0.0f32; dim * k];
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0usize; k];
    let mut prev_inertia = f32::INFINITY;
    let mut inertia = f32::INFINITY;

    for _ in 0..cfg.max_iters.max(1) {
        // Assignment step.
        to_columns(&centroids, dim, &mut cols);
        for (i, (a, dist)) in assignments.iter_mut().zip(&mut dists).enumerate() {
            let (c, d) = nearest_column(point(i), &cols, k);
            *a = c as u32;
            *dist = d;
        }
        inertia = dists.iter().map(|&d| d as f64).sum::<f64>() as f32;

        // Update step.
        sums.fill(0.0);
        counts.fill(0);
        for (i, &c) in assignments.iter().enumerate() {
            counts[c as usize] += 1;
            let row = &mut sums[c as usize * dim..(c as usize + 1) * dim];
            for (s, &x) in row.iter_mut().zip(point(i)) {
                *s += x as f64;
            }
        }
        // Re-seed empty clusters from the worst-served points; the
        // worst-first order is only built when some cluster is empty.
        let mut worst = Vec::new();
        if counts.contains(&0) {
            worst = (0..n).collect();
            worst.sort_by(|&a, &b| dists[b].total_cmp(&dists[a]));
        }
        let mut worst_iter = worst.into_iter();
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

/// k-means++ seeding from `seed`: `k` of the `n` points, each drawn with
/// probability proportional to its squared distance to the nearest centre
/// drawn so far. Every point's distance to a new centre is one
/// column-kernel pass over the points transposed to `dim × n`; each
/// distance is `sq_l2` of the point and the centre bit for bit (the kernel
/// subtracts the other way round, and the square drops the sign). The
/// transposed copy is freed on return, before Lloyd's loop starts.
fn plus_plus_seeds(data: &[f32], dim: usize, k: usize, seed: u64) -> Vec<f32> {
    let n = data.len() / dim;
    let mut rng = SmallRng::seed_from_u64(seed);
    let point = |i: usize| &data[i * dim..(i + 1) * dim];
    let mut point_cols = vec![0.0f32; dim * n];
    to_columns(data, dim, &mut point_cols);
    let mut centroids: Vec<f32> = Vec::with_capacity(k * dim);
    let first = rng.gen_range(0..n);
    centroids.extend_from_slice(point(first));
    let mut min_d2 = vec![0.0f32; n];
    sq_l2_columns(point(first), &point_cols, &mut min_d2);
    let mut new_d2 = vec![0.0f32; n];
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
        centroids.extend_from_slice(point(pick));
        sq_l2_columns(point(pick), &point_cols, &mut new_d2);
        for (d, &nd) in min_d2.iter_mut().zip(&new_d2) {
            if nd < *d {
                *d = nd;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference k-means in its plainest form: row-major centroids, a
    /// strict-`<` scan of one [`sq_l2`] per centroid row, and a worst-first
    /// sort of every point on every Lloyd iteration. [`kmeans`] must equal
    /// it bit for bit.
    mod oracle {
        use super::*;
        use rpq_linalg::distance::sq_l2;

        pub(super) fn kmeans(data: &[f32], dim: usize, cfg: KMeansConfig) -> KMeansResult {
            let n = data.len() / dim;
            let k = cfg.k.min(n).max(1);
            let mut rng = SmallRng::seed_from_u64(cfg.seed);
            let point = |i: usize| &data[i * dim..(i + 1) * dim];

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
                let new_c = centroids[c * dim..(c + 1) * dim].to_vec();
                for (i, d) in min_d2.iter_mut().enumerate() {
                    let nd = sq_l2(point(i), &new_c);
                    if nd < *d {
                        *d = nd;
                    }
                }
            }

            let mut assignments = vec![0u32; n];
            let mut prev_inertia = f32::INFINITY;
            let mut inertia = f32::INFINITY;
            for _ in 0..cfg.max_iters.max(1) {
                let stats: Vec<(u32, f32)> = (0..n)
                    .map(|i| {
                        let mut best = (0u32, f32::INFINITY);
                        for (c, row) in centroids.chunks_exact(dim).enumerate() {
                            let d = sq_l2(point(i), row);
                            if d < best.1 {
                                best = (c as u32, d);
                            }
                        }
                        best
                    })
                    .collect();
                inertia = stats.iter().map(|s| s.1 as f64).sum::<f64>() as f32;
                for (a, s) in assignments.iter_mut().zip(&stats) {
                    *a = s.0;
                }

                let mut sums = vec![0.0f64; k * dim];
                let mut counts = vec![0usize; k];
                for (i, &(c, _)) in stats.iter().enumerate() {
                    counts[c as usize] += 1;
                    let row = &mut sums[c as usize * dim..(c as usize + 1) * dim];
                    for (s, &x) in row.iter_mut().zip(point(i)) {
                        *s += x as f64;
                    }
                }
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

                if prev_inertia.is_finite() && (prev_inertia - inertia).abs() <= TOL * prev_inertia
                {
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
    }

    /// `(dim, points)`: up to 60 points on a grid of 1–40 levels per
    /// coordinate, so coarse grids produce duplicate points (and empty
    /// clusters to re-seed) and fine ones distinct points.
    fn grid_points() -> impl Strategy<Value = (usize, Vec<f32>)> {
        (1usize..=12, 1usize..=60, 1i32..=40).prop_flat_map(|(dim, n, levels)| {
            (
                Just(dim),
                proptest::collection::vec(0..levels, n * dim)
                    .prop_map(|v| v.into_iter().map(|x| x as f32 * 0.75 - 3.0).collect()),
            )
        })
    }

    /// Centroids, assignments and inertia equal the oracle's bit for bit.
    fn assert_matches_oracle(data: &[f32], dim: usize, cfg: KMeansConfig) {
        let got = kmeans(data, dim, cfg);
        let want = oracle::kmeans(data, dim, cfg);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.k, want.k);
        assert_eq!(bits(&got.centroids), bits(&want.centroids));
        assert_eq!(got.assignments, want.assignments);
        assert_eq!(got.inertia.to_bits(), want.inertia.to_bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `k` up to 40, often above `n`; duplicate points leave clusters
        /// empty to re-seed.
        #[test]
        fn kmeans_equals_the_oracle_bit_for_bit((dim, data) in grid_points(),
                                                k in 1usize..=40,
                                                max_iters in 1usize..=8,
                                                seed in 0u64..1000) {
            assert_matches_oracle(&data, dim, KMeansConfig { k, max_iters, seed });
        }
    }

    /// Duplicate points only empty a cluster when every point sits on a
    /// centroid, where worst-first is index order. Here a Lloyd update
    /// empties a cluster while distances differ, so the re-seed must take
    /// the worst-served point.
    #[test]
    fn lloyd_emptied_cluster_matches_the_oracle() {
        let data = [
            -2.4912033,
            -2.20927,
            -1.6628568,
            -1.332989,
            -2.8641222,
            -1.698662,
            -1.7050354,
            -1.2873042,
            -0.17925644,
            2.2223697,
            0.736624,
            1.6979756,
            1.5157428,
            0.8537502,
            -1.098398,
            1.6786261,
            2.9646769,
            0.7174187,
            -1.225594,
            2.603334,
        ];
        let cfg = KMeansConfig {
            k: 3,
            max_iters: 20,
            seed: 271,
        };
        assert_matches_oracle(&data, 2, cfg);
    }

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
