//! Synthetic dataset generators standing in for the paper's five evaluation
//! datasets (Table 3). BigANN, the billion-scale SIFT, shares the Sift
//! stand-in, so there are four generators.
//!
//! The substitution rationale (DESIGN.md §4): for PQ-integrated graph ANNS
//! the behaviour-relevant properties of a dataset are its dimensionality,
//! its **local intrinsic dimensionality** (LID) and its cluster structure —
//! not the provenance of the vectors. Each generator draws from a mixture
//! of clusters that live on random low-dimensional subspaces (subspace
//! dimension ≈ target LID) embedded in the ambient space, plus small
//! isotropic noise, then applies a dataset-specific value transform:
//!
//! | Kind      | dim  | target LID | transform                       |
//! |-----------|------|-----------|----------------------------------|
//! | `Sift`    | 128  | ~16.6     | non-negative, byte-quantised     |
//! | `Deep`    | 96   | ~17.6     | L2-normalised rows               |
//! | `Gist`    | 160* | ~35       | correlated dims, unit scale      |
//! | `Ukbench` | 128  | ~8.3      | non-negative                     |
//!
//! *Gist is generated at 160 dims by default instead of the original 960 so
//! the full experiment suite stays laptop-scale; the dimension is a
//! parameter.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rpq_linalg::distance::normalize;

use crate::dataset::Dataset;
use crate::labels::Labels;

/// Which of the paper's datasets to emulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    Sift,
    Deep,
    Gist,
    Ukbench,
}

impl DatasetKind {
    /// All four generators, in the order the paper's tables list them.
    pub const ALL: [DatasetKind; 4] = [
        DatasetKind::Deep,
        DatasetKind::Gist,
        DatasetKind::Sift,
        DatasetKind::Ukbench,
    ];

    /// Human-readable name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Sift => "Sift",
            DatasetKind::Deep => "Deep",
            DatasetKind::Gist => "Gist",
            DatasetKind::Ukbench => "Ukbench",
        }
    }

    /// Default generator configuration for this dataset kind.
    pub fn config(&self) -> SynthConfig {
        match self {
            DatasetKind::Sift => SynthConfig {
                dim: 128,
                intrinsic_dim: 16,
                clusters: 64,
                cluster_std: 1.0,
                noise_std: 0.08,
                transform: ValueTransform::ByteQuantised {
                    scale: 24.0,
                    offset: 60.0,
                },
            },
            DatasetKind::Deep => SynthConfig {
                dim: 96,
                intrinsic_dim: 18,
                clusters: 64,
                cluster_std: 1.0,
                noise_std: 0.10,
                transform: ValueTransform::Normalised,
            },
            DatasetKind::Gist => SynthConfig {
                dim: 160,
                intrinsic_dim: 36,
                clusters: 32,
                cluster_std: 1.0,
                noise_std: 0.12,
                transform: ValueTransform::Identity,
            },
            DatasetKind::Ukbench => SynthConfig {
                dim: 128,
                intrinsic_dim: 8,
                clusters: 96,
                cluster_std: 1.0,
                noise_std: 0.05,
                transform: ValueTransform::NonNegative {
                    scale: 20.0,
                    offset: 50.0,
                },
            },
        }
    }

    /// Generates `n` base vectors plus `n_query` held-out queries drawn from
    /// the same distribution, with a deterministic seed.
    pub fn generate(&self, n: usize, n_query: usize, seed: u64) -> (Dataset, Dataset) {
        let cfg = self.config();
        let all = cfg.generate(n + n_query, seed);
        let (base, query) = all.split_at(n);
        (base, query)
    }
}

/// Post-processing applied to raw mixture samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ValueTransform {
    /// Leave values as sampled.
    Identity,
    /// Shift/scale then clamp to `[0, 255]` and round (SIFT-style
    /// descriptors are non-negative bytes).
    ByteQuantised { scale: f32, offset: f32 },
    /// Shift/scale then clamp below at 0.
    NonNegative { scale: f32, offset: f32 },
    /// L2-normalise each vector (Deep descriptors are normalised CNN
    /// activations).
    Normalised,
}

/// Parameters of the clustered-subspace generator.
#[derive(Clone, Copy, Debug)]
pub struct SynthConfig {
    /// Ambient dimensionality.
    pub dim: usize,
    /// Subspace dimensionality per cluster (≈ target LID).
    pub intrinsic_dim: usize,
    /// Number of mixture components.
    pub clusters: usize,
    /// Within-cluster standard deviation along subspace directions.
    pub cluster_std: f32,
    /// Isotropic ambient noise standard deviation.
    pub noise_std: f32,
    /// Value transform applied at the end.
    pub transform: ValueTransform,
}

impl SynthConfig {
    /// Generates `n` vectors.
    pub fn generate(&self, n: usize, seed: u64) -> Dataset {
        self.generate_impl(n, seed, |_| {})
    }

    /// Generates `n` vectors **plus** per-vector labels correlated with the
    /// cluster geometry — the hard, realistic filtered-search case
    /// (DESIGN.md §12): a predicate's matching points are geometrically
    /// clumped, so an unfiltered traversal can wander regions with no
    /// matches at all.
    ///
    /// Every point gets exactly one label derived from its (already drawn)
    /// cluster id with **no extra RNG draws**, so the returned vectors are
    /// bit-identical to [`SynthConfig::generate`] with the same `(n, seed)`
    /// — labelling a corpus never perturbs it. The cluster→label map is
    /// geometric: label `j` covers ~`2^-(j+1)` of the clusters
    /// (`j = trailing_zeros(c + 1)`, clamped to the vocabulary), giving
    /// single-label selectivities of ~0.5, 0.25, …, down to ~`2^-vocab` —
    /// a selectivity axis to sweep without needing per-selectivity corpora.
    pub fn generate_labeled(&self, n: usize, seed: u64, vocab: usize) -> (Dataset, Labels) {
        let mut labels = Labels::new(vocab);
        let data = self.generate_impl(n, seed, |c| {
            let label = ((c as u32 + 1).trailing_zeros() as usize).min(vocab - 1);
            labels.push_label(label);
        });
        (data, labels)
    }

    fn generate_impl(&self, n: usize, seed: u64, mut on_cluster: impl FnMut(usize)) -> Dataset {
        assert!(
            self.dim > 0 && self.intrinsic_dim > 0,
            "dimensions must be positive"
        );
        assert!(
            self.intrinsic_dim <= self.dim,
            "intrinsic_dim must be <= dim"
        );
        assert!(self.clusters > 0, "need at least one cluster");
        let mut rng = SmallRng::seed_from_u64(seed);
        let d = self.dim;
        let s = self.intrinsic_dim;

        // Cluster centres: spread out so clusters are separated relative to
        // their internal std.
        let centre_scale = 4.0 * self.cluster_std * (s as f32).sqrt();
        let centres: Vec<Vec<f32>> = (0..self.clusters)
            .map(|_| {
                (0..d)
                    .map(|_| normal(&mut rng) * centre_scale / (d as f32).sqrt())
                    .collect()
            })
            .collect();

        // Per-cluster random subspace bases: `s` random unit directions.
        // (Not orthonormalised — mild correlation between directions only
        // *lowers* effective LID slightly, which the noise term offsets.)
        let bases: Vec<Vec<f32>> = (0..self.clusters)
            .map(|_| {
                let mut b: Vec<f32> = (0..s * d).map(|_| normal(&mut rng)).collect();
                for row in b.chunks_mut(d) {
                    normalize(row);
                }
                b
            })
            .collect();

        let mut out = Dataset::with_capacity(d, n);
        let mut v = vec![0.0f32; d];
        for _ in 0..n {
            let c = rng.gen_range(0..self.clusters);
            on_cluster(c);
            v.copy_from_slice(&centres[c]);
            let basis = &bases[c];
            for dir in 0..s {
                let coeff = normal(&mut rng) * self.cluster_std;
                let row = &basis[dir * d..(dir + 1) * d];
                for (vv, &bv) in v.iter_mut().zip(row) {
                    *vv += coeff * bv;
                }
            }
            for vv in v.iter_mut() {
                *vv += normal(&mut rng) * self.noise_std;
            }
            apply_transform(&mut v, self.transform);
            out.push(&v);
        }
        out
    }
}

fn apply_transform(v: &mut [f32], t: ValueTransform) {
    match t {
        ValueTransform::Identity => {}
        ValueTransform::ByteQuantised { scale, offset } => {
            for x in v.iter_mut() {
                *x = (*x * scale + offset).clamp(0.0, 255.0).round();
            }
        }
        ValueTransform::NonNegative { scale, offset } => {
            for x in v.iter_mut() {
                *x = (*x * scale + offset).max(0.0);
            }
        }
        ValueTransform::Normalised => normalize(v),
    }
}

/// Standard normal via Box–Muller.
fn normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let cfg = DatasetKind::Sift.config();
        let a = cfg.generate(50, 7);
        let b = cfg.generate(50, 7);
        assert_eq!(a, b);
        let c = cfg.generate(50, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn labeled_generation_is_bit_identical_to_unlabeled() {
        let cfg = SynthConfig {
            dim: 12,
            intrinsic_dim: 5,
            clusters: 16,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        };
        let plain = cfg.generate(300, 11);
        let (labeled, labels) = cfg.generate_labeled(300, 11, 4);
        assert_eq!(plain, labeled, "labelling must never perturb the vectors");
        assert_eq!(labels.len(), 300);
        // Same seed, same labels.
        let (_, labels2) = cfg.generate_labeled(300, 11, 4);
        assert_eq!(labels, labels2);
    }

    #[test]
    fn labels_follow_the_geometric_selectivity_ladder() {
        let cfg = SynthConfig {
            dim: 8,
            intrinsic_dim: 4,
            clusters: 64,
            cluster_std: 0.6,
            noise_std: 0.02,
            transform: ValueTransform::Identity,
        };
        let (_, labels) = cfg.generate_labeled(4000, 3, 8);
        use crate::labels::LabelPredicate;
        // Label j covers ~2^-(j+1) of the clusters (uniform cluster draw),
        // so measured selectivities track the geometric ladder.
        for (label, want) in [(0usize, 0.5f32), (1, 0.25), (2, 0.125)] {
            let got = labels.selectivity(LabelPredicate::single(label));
            assert!(
                (got - want).abs() < 0.08,
                "label {label}: selectivity {got} far from {want}"
            );
        }
        // The tail label exists but is rare.
        let tail = labels.selectivity(LabelPredicate::single(5));
        assert!(tail > 0.0 && tail < 0.06, "tail selectivity {tail}");
        // Points in one cluster share one label: selectivities over all
        // single labels sum to 1 (each point has exactly one label).
        let total: f32 = (0..8)
            .map(|l| labels.selectivity(LabelPredicate::single(l)))
            .sum();
        assert!((total - 1.0).abs() < 1e-5, "labels must partition: {total}");
    }

    #[test]
    fn shapes_match_config() {
        for kind in DatasetKind::ALL {
            let (base, query) = kind.generate(40, 10, 1);
            assert_eq!(base.len(), 40, "{}", kind.name());
            assert_eq!(query.len(), 10);
            assert_eq!(base.dim(), kind.config().dim);
            assert_eq!(query.dim(), base.dim());
        }
    }

    #[test]
    fn sift_like_values_are_bytes() {
        let (base, _) = DatasetKind::Sift.generate(100, 0, 3);
        for v in base.iter() {
            for &x in v {
                assert!((0.0..=255.0).contains(&x), "value {x} outside byte range");
                assert_eq!(x, x.round(), "value {x} not integral");
            }
        }
    }

    #[test]
    fn deep_like_rows_are_normalised() {
        let (base, _) = DatasetKind::Deep.generate(50, 0, 4);
        for v in base.iter() {
            let n = rpq_linalg::distance::norm(v);
            assert!((n - 1.0).abs() < 1e-4, "norm {n}");
        }
    }

    #[test]
    fn ukbench_like_is_non_negative() {
        let (base, _) = DatasetKind::Ukbench.generate(50, 0, 5);
        assert!(base.as_flat().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn clusters_create_structure() {
        // With strong cluster separation, average within-dataset distance to
        // the nearest other point must be far below distance to a random
        // point.
        let cfg = SynthConfig {
            dim: 16,
            intrinsic_dim: 4,
            clusters: 8,
            cluster_std: 0.5,
            noise_std: 0.01,
            transform: ValueTransform::Identity,
        };
        let ds = cfg.generate(200, 9);
        let mut nn_sum = 0.0;
        let mut rand_sum = 0.0;
        for i in 0..50 {
            let mut best = f32::INFINITY;
            for j in 0..ds.len() {
                if i == j {
                    continue;
                }
                best = best.min(rpq_linalg::distance::sq_l2(ds.get(i), ds.get(j)));
            }
            nn_sum += best;
            rand_sum += rpq_linalg::distance::sq_l2(ds.get(i), ds.get((i + 97) % ds.len()));
        }
        assert!(
            nn_sum * 3.0 < rand_sum,
            "no cluster structure: nn {nn_sum} vs rand {rand_sum}"
        );
    }

    #[test]
    #[should_panic(expected = "intrinsic_dim must be <= dim")]
    fn invalid_config_panics() {
        let cfg = SynthConfig {
            dim: 4,
            intrinsic_dim: 8,
            clusters: 1,
            cluster_std: 1.0,
            noise_std: 0.0,
            transform: ValueTransform::Identity,
        };
        let _ = cfg.generate(1, 0);
    }
}
