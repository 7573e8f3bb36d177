//! The differentiable quantizer (paper §4).
//!
//! Two pieces make the discrete PQ pipeline differentiable:
//!
//! 1. **Adaptive vector decomposition**: instead of a fixed vertical split,
//!    vectors are rotated by a learned orthonormal `R`, moved as
//!    `R ← R · exp(W − Wᵀ)` for a skew step built from a learnable `W`
//!    (dynamic trivialization, DESIGN §4.8). Orthogonality is kept by
//!    construction (`exp(A)ᵀ = exp(−A) = exp(A)⁻¹`); `R` is a plain tape
//!    leaf, and [`DiffQuantizer::skew_grad`] maps its gradient to `W`'s at
//!    `W = 0`, where the derivative of `exp` is the identity.
//! 2. **Differentiable quantization**: codeword assignment probabilities
//!    `p(c_jk | R x_j) = softmax(−δ(R x_j, c_jk)/τ_a)` (Eq. 6, with the
//!    sign corrected — see DESIGN.md §4) are pushed through Gumbel-Softmax
//!    (Eq. 7), and the "quantized" training-time vector is the
//!    probability-weighted codeword mixture, which converges to hard
//!    assignment as the temperature anneals.
//!
//! At inference the quantizer is exported as a hard rotation + codebook
//! ([`DiffQuantizer::export_pq`]) served identically to OPQ.

use rand::Rng;
use rpq_autodiff::{Tape, Var};
use rpq_linalg::{mul_expm, Matrix};
use rpq_quant::{Codebook, OptimizedProductQuantizer, ProductQuantizer};

/// Mean of a matrix's entries, floored away from zero — the stop-gradient
/// normaliser that makes the temperatures scale-free.
pub(crate) fn batch_mean(m: &Matrix) -> f32 {
    let n = (m.rows * m.cols).max(1) as f32;
    (m.data.iter().map(|&v| v as f64).sum::<f64>() as f32 / n).max(1e-12)
}

/// Assignment-probability temperature τ_a (Eq. 6), applied to
/// batch-mean-normalised distances (scale-free). Fixed, not annealed, as in
/// paper §6; only the Gumbel temperature anneals.
const TAU_ASSIGN: f32 = 0.1;

/// Structural parameters of the differentiable quantizer.
#[derive(Clone, Copy, Debug)]
pub struct DiffQuantizerConfig {
    /// Number of chunks M (must divide the dimension).
    pub m: usize,
    /// Codewords per sub-codebook K (≤ 256).
    pub k: usize,
    pub seed: u64,
}

impl Default for DiffQuantizerConfig {
    fn default() -> Self {
        Self {
            m: 8,
            k: 256,
            seed: 0,
        }
    }
}

/// Tape handles for one training step.
pub struct QuantizerVars {
    /// The rotation `R`, a leaf: its gradient feeds
    /// [`DiffQuantizer::skew_grad`].
    pub rotation: Var,
    /// One learnable `K × dsub` codebook per chunk.
    pub codebooks: Vec<Var>,
    /// `Rᵀ` (as a tape node), the right-multiplier that rotates row
    /// vectors: `x_rot = x_row · Rᵀ`.
    pub rot_t: Var,
}

/// The learnable state of RPQ's quantizer.
#[derive(Clone)]
pub struct DiffQuantizer {
    cfg: DiffQuantizerConfig,
    /// The current `D × D` rotation `R`, re-based by
    /// [`DiffQuantizer::rebase`] after every step.
    pub rotation: Matrix,
    /// Learnable codebooks, one `K × dsub` matrix per chunk.
    pub codebooks: Vec<Matrix>,
    dim: usize,
    dsub: usize,
}

impl DiffQuantizer {
    /// Builds a quantizer from an existing codebook (warm start), with the
    /// learned rotation at identity.
    pub fn from_codebook(cfg: DiffQuantizerConfig, codebook: &Codebook) -> Self {
        let d = codebook.dim();
        assert_eq!(cfg.m, codebook.m(), "chunk count mismatch");
        let dsub = codebook.dsub();
        let codebooks = (0..cfg.m)
            .map(|j| Matrix::from_vec(codebook.k(), dsub, codebook.sub_codebook_rows(j)))
            .collect();
        Self {
            cfg,
            rotation: Matrix::identity(d),
            codebooks,
            dim: d,
            dsub,
        }
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Effective K (may be below `cfg.k` for tiny training sets).
    pub fn k(&self) -> usize {
        self.codebooks[0].rows
    }

    /// Chunk count M.
    pub fn m(&self) -> usize {
        self.cfg.m
    }

    /// Registers the learnable parameters on a tape and computes `Rᵀ` once.
    pub fn begin(&self, t: &mut Tape) -> QuantizerVars {
        let rotation = t.param(self.rotation.clone());
        let rot_t = t.transpose(rotation);
        let codebooks = self.codebooks.iter().map(|c| t.param(c.clone())).collect();
        QuantizerVars {
            rotation,
            codebooks,
            rot_t,
        }
    }

    /// Given `G = ∂L/∂R`, the gradient at `W = 0` of
    /// `W ↦ L(R · exp(W − Wᵀ))`: `RᵀG − GᵀR`.
    pub fn skew_grad(&self, g: &Matrix) -> Matrix {
        let rtg = self.rotation.matmul_tn(g);
        rtg.sub(&rtg.transpose())
    }

    /// Moves the rotation by the step `W`: `R ← R · exp(W − Wᵀ)`, the
    /// product taken in `f64` so `R` stays orthonormal over many steps.
    pub fn rebase(&mut self, w: &Matrix) {
        self.rotation = mul_expm(&self.rotation, &w.sub(&w.transpose()));
    }

    /// Rotates a constant batch on the tape: `X · Rᵀ`.
    pub fn rotate(&self, t: &mut Tape, vars: &QuantizerVars, x: Var) -> Var {
        t.matmul(x, vars.rot_t)
    }

    /// Differentiable quantization of an already-rotated batch: per chunk,
    /// soft codeword assignment via Gumbel-Softmax and the probability-
    /// weighted codeword mixture (paper Eq. 6–7). `tau_gumbel` anneals over
    /// training.
    pub fn quantize_rotated<R: Rng + ?Sized>(
        &self,
        t: &mut Tape,
        vars: &QuantizerVars,
        xr: Var,
        tau_gumbel: f32,
        rng: &mut R,
    ) -> Var {
        let mut parts = Vec::with_capacity(self.cfg.m);
        for (j, &cj) in vars.codebooks.iter().enumerate() {
            let xj = t.slice_cols(xr, j * self.dsub, (j + 1) * self.dsub);
            let d2 = t.pairwise_sq_dist(xj, cj);
            // Eq. 6 (sign-corrected): p ∝ exp(−δ/τ_a). The raw squared
            // distances are dataset-scale-dependent (SIFT bytes put them at
            // ~1e4), so τ_a is applied to distances normalised by the batch
            // mean (a stop-gradient normaliser): without this the softmax
            // saturates to a constant one-hot and training gets no signal.
            let mean = batch_mean(t.value(d2));
            let logits = t.scale(d2, -1.0 / (TAU_ASSIGN * mean));
            let q = t.gumbel_softmax(logits, tau_gumbel, rng);
            let xqj = t.matmul(q, cj);
            parts.push(xqj);
        }
        t.concat_cols(&parts)
    }

    /// Convenience: rotate + quantize a raw constant batch.
    pub fn quantize<R: Rng + ?Sized>(
        &self,
        t: &mut Tape,
        vars: &QuantizerVars,
        x: Var,
        tau_gumbel: f32,
        rng: &mut R,
    ) -> Var {
        let xr = self.rotate(t, vars, x);
        self.quantize_rotated(t, vars, xr, tau_gumbel, rng)
    }

    /// The current rotation `R`.
    pub fn rotation(&self) -> &Matrix {
        &self.rotation
    }

    /// The learned codebooks with every codeword multiplied by `scale`.
    fn scaled_codebook(&self, scale: f32) -> Codebook {
        let rows = self
            .codebooks
            .iter()
            .flat_map(|c| c.data.iter().map(|&v| v * scale))
            .collect();
        Codebook::new(self.cfg.m, self.k(), self.dsub, rows)
    }

    /// Exports the learned quantizer for serving: a rotation + hard-argmin
    /// codebook, packaged in the same machinery OPQ uses (right-multiplying
    /// rows by `Rᵀ` realises the paper's `R x`). Every codeword is
    /// multiplied by `scale`: the trainer optimises in a unit-scale
    /// normalised space (so Adam's step size is meaningful for codebooks
    /// regardless of the dataset's value range) and rescales at export;
    /// `1.0` exports the space as it is.
    pub fn export_pq(&self, train_seconds: f32, scale: f32) -> OptimizedProductQuantizer {
        let cb = self.scaled_codebook(scale);
        let pq = ProductQuantizer::from_codebook(cb, train_seconds);
        OptimizedProductQuantizer::from_parts(self.rotation().transpose(), pq, train_seconds)
    }

    /// Bytes of learnable state (paper Table 5's "model size" for RPQ:
    /// the rotation plus codebooks).
    pub fn model_bytes(&self) -> usize {
        (self.rotation.data.len() + self.codebooks.iter().map(|c| c.data.len()).sum::<usize>()) * 4
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rpq_data::synth::{SynthConfig, ValueTransform};
    use rpq_data::Dataset;
    use rpq_linalg::{expm, is_orthonormal};
    use rpq_quant::{PqConfig, VectorCompressor};

    /// The trainer's warm start without the OPQ rotation: PQ codebooks,
    /// identity rotation.
    pub(crate) fn warm_start(cfg: DiffQuantizerConfig, data: &Dataset) -> DiffQuantizer {
        let mut pq = PqConfig::default();
        (pq.m, pq.k, pq.seed) = (cfg.m, cfg.k, cfg.seed);
        DiffQuantizer::from_codebook(cfg, ProductQuantizer::train(&pq, data).codebook())
    }

    fn toy(n: usize, dim: usize, seed: u64) -> Dataset {
        SynthConfig {
            dim,
            intrinsic_dim: dim / 2,
            clusters: 6,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        }
        .generate(n, seed)
    }

    fn small_quantizer(data: &Dataset) -> DiffQuantizer {
        warm_start(
            DiffQuantizerConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            data,
        )
    }

    #[test]
    fn rotation_starts_at_identity_and_stays_orthonormal() {
        let data = toy(200, 16, 1);
        let mut q = small_quantizer(&data);
        let r0 = q.rotation();
        let i = Matrix::identity(16);
        for (a, b) in r0.data.iter().zip(&i.data) {
            assert!((a - b).abs() < 1e-5);
        }
        // Re-base by an arbitrary W: the rotation must remain orthonormal.
        let mut rng = SmallRng::seed_from_u64(7);
        q.rebase(&Matrix::random_uniform(16, 16, 1.0, &mut rng));
        assert!(is_orthonormal(q.rotation(), 1e-3));
    }

    /// An orthonormal rotation away from identity: `exp` of a random skew.
    pub(crate) fn random_rotation(dim: usize, scale: f32, seed: u64) -> Matrix {
        let w = Matrix::random_uniform(dim, dim, scale, &mut SmallRng::seed_from_u64(seed));
        expm(&w.sub(&w.transpose()))
    }

    #[test]
    fn skew_grad_matches_finite_difference_of_rebase() {
        // The loss of the old skew-parameterisation gradcheck, rotated rows
        // against a target, through `begin`/`rotate`: `skew_grad(∂L/∂R)`
        // must be the central difference of `W ↦ L(R · exp(W − Wᵀ))` at 0.
        let data = toy(200, 8, 8);
        let mut q = warm_start(
            DiffQuantizerConfig {
                m: 2,
                k: 8,
                ..Default::default()
            },
            &data,
        );
        q.rotation = random_rotation(8, 0.3, 9);
        let mut rng = SmallRng::seed_from_u64(10);
        let x = Matrix::random_uniform(6, 8, 1.0, &mut rng);
        let target = Matrix::random_uniform(6, 8, 1.0, &mut rng);
        let loss = |r: &Matrix| {
            let diff = x.matmul_nt(r).sub(&target);
            diff.data.iter().map(|v| v * v).sum::<f32>() / diff.data.len() as f32
        };

        let mut t = Tape::new();
        let vars = q.begin(&mut t);
        let xc = t.constant(x.clone());
        let xr = q.rotate(&mut t, &vars, xc);
        let tg = t.constant(target.clone());
        let diff = t.sub(xr, tg);
        let sq = t.square(diff);
        let l = t.mean_all(sq);
        assert!((t.value(l)[(0, 0)] - loss(&q.rotation)).abs() < 1e-6);
        let analytic = q.skew_grad(t.backward(l).get(vars.rotation).unwrap());

        let h = 1e-3f32;
        let mut w = Matrix::zeros(8, 8);
        for i in 0..w.data.len() {
            let mut at = |v: f32| {
                w.data[i] = v;
                let mut moved = q.clone();
                moved.rebase(&w);
                loss(moved.rotation())
            };
            let fd = (at(h) - at(-h)) / (2.0 * h);
            w.data[i] = 0.0;
            let an = analytic.data[i];
            assert!(
                (an - fd).abs() <= 1e-2 * an.abs().max(fd.abs()).max(1.0),
                "entry {i}: analytic {an}, finite-diff {fd}"
            );
        }
    }

    #[test]
    fn soft_quantization_approaches_hard_at_low_temperature() {
        // At a low Gumbel temperature every chunk of the soft output is
        // (nearly) one codeword drawn from softmax(−δ/τ_a), whose mode is
        // the hard argmin codeword: over repeated draws, the most frequent
        // codeword is the one hard assignment picks.
        let data = toy(300, 16, 2);
        let q = small_quantizer(&data);
        let mut rng = SmallRng::seed_from_u64(3);
        let nearest = |cb: &Matrix, v: &[f32]| {
            (0..cb.rows)
                .min_by(|&a, &b| {
                    let da = rpq_linalg::distance::sq_l2(v, cb.row(a));
                    da.total_cmp(&rpq_linalg::distance::sq_l2(v, cb.row(b)))
                })
                .unwrap()
        };

        let mut t = Tape::new();
        let vars = q.begin(&mut t);
        let x = t.constant(data.to_matrix(0, 8));
        let xr = q.rotate(&mut t, &vars, x);
        let rotated = t.value(xr).clone();
        let draws: Vec<Matrix> = (0..1024)
            .map(|_| {
                let xq = q.quantize_rotated(&mut t, &vars, xr, 0.05, &mut rng);
                t.value(xq).clone()
            })
            .collect();
        let mut agree = 0;
        for i in 0..8 {
            for (j, cb) in q.codebooks.iter().enumerate() {
                let chunk = |m: &Matrix| m.row(i)[j * 4..(j + 1) * 4].to_vec();
                let hard = nearest(cb, &chunk(&rotated));
                let mut tally = vec![0usize; cb.rows];
                for d in &draws {
                    tally[nearest(cb, &chunk(d))] += 1;
                }
                let top = *tally.iter().max().unwrap();
                // Near-tied codewords may swap places by sampling noise
                // (three standard deviations of a count difference); the
                // sign-flipped Eq. 6 would make the hard codeword the rarest.
                let noise = 3.0 * (2.0 * top as f32).sqrt();
                assert!(
                    (top - tally[hard]) as f32 <= noise,
                    "row {i} chunk {j}: hard codeword drawn {} times, mode {top}",
                    tally[hard]
                );
                agree += usize::from(tally[hard] == top);
            }
        }
        assert!(
            agree >= 24,
            "hard codeword is the mode in only {agree}/32 chunks"
        );
    }

    #[test]
    fn quantize_is_differentiable_wrt_all_params() {
        let data = toy(200, 8, 3);
        let mut q = warm_start(
            DiffQuantizerConfig {
                m: 2,
                k: 8,
                ..Default::default()
            },
            &data,
        );
        let mut rng = SmallRng::seed_from_u64(4);
        q.rotation = random_rotation(8, 0.1, 4);
        let mut t = Tape::new();
        let vars = q.begin(&mut t);
        let x = t.constant(data.to_matrix(0, 16));
        let xq = q.quantize(&mut t, &vars, x, 1.0, &mut rng);
        let sq = t.square(xq);
        let loss = t.mean_all(sq);
        let grads = t.backward(loss);
        let gr = grads.get(vars.rotation).expect("no gradient for R");
        assert!(gr.frob_norm() > 0.0, "zero gradient for R");
        for (j, &cv) in vars.codebooks.iter().enumerate() {
            let g = grads
                .get(cv)
                .unwrap_or_else(|| panic!("no grad for codebook {j}"));
            assert!(g.frob_norm() > 0.0, "zero gradient for codebook {j}");
        }
    }

    #[test]
    fn export_distances_match_decoded_distances() {
        let data = toy(300, 16, 5);
        let q = small_quantizer(&data);
        let exported = q.export_pq(0.0, 1.0);
        let codes = exported.encode_dataset(&data);
        let query = data.get(9);
        let lut = exported.lookup_table(query);
        let est = exported.estimator(&codes, query);
        for i in (0..300).step_by(41) {
            assert!((lut.distance(codes.code(i)) - est.distance(i as u32)).abs() < 1e-4);
        }
    }

    #[test]
    fn model_bytes_counts_w_and_codebooks() {
        let data = toy(100, 16, 6);
        let q = small_quantizer(&data);
        assert_eq!(q.model_bytes(), (16 * 16 + 4 * 16 * 4) * 4);
    }

    #[test]
    #[should_panic(expected = "must divide the dimension")]
    fn bad_m_rejected() {
        let data = toy(50, 10, 7);
        let _ = warm_start(
            DiffQuantizerConfig {
                m: 3,
                ..Default::default()
            },
            &data,
        );
    }
}
