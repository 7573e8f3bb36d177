//! Matrix decompositions: one-sided Jacobi SVD and the orthogonal-Procrustes
//! solver OPQ's alternating optimisation needs (Ge et al., CVPR'13).
//!
//! Both accumulate in `f64` internally; the matrices involved are at most a
//! few hundred on a side (rotation matrices), so `O(n³)` Jacobi sweeps are
//! more than fast enough and far easier to verify than
//! bidiagonalisation-based LAPACK ports.

use crate::matrix::Matrix;

/// Result of a singular value decomposition `A = U diag(σ) Vᵀ`.
pub struct Svd {
    /// Left singular vectors (columns).
    pub u: Matrix,
    /// Singular values in descending order.
    pub sigma: Vec<f32>,
    /// Right singular vectors (columns), i.e. `V`, not `Vᵀ`.
    pub v: Matrix,
}

/// One-sided Jacobi SVD `A = U diag(σ) Vᵀ` for an `m×n` matrix with `m ≥ n`.
pub fn svd(a: &Matrix) -> Svd {
    let (m, n) = (a.rows, a.cols);
    assert!(m >= n, "svd requires rows >= cols, got {m}x{n}");
    // Column-major working copy of A (f64).
    let mut u: Vec<f64> = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            u[j * m + i] = a[(i, j)] as f64;
        }
    }
    let mut v: Vec<f64> = vec![0.0; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    let max_sweeps = 60;
    for _ in 0..max_sweeps {
        let mut converged = true;
        for p in 0..n {
            for q in (p + 1)..n {
                let colp = p * m;
                let colq = q * m;
                let mut alpha = 0.0;
                let mut beta = 0.0;
                let mut gamma = 0.0;
                for i in 0..m {
                    let up = u[colp + i];
                    let uq = u[colq + i];
                    alpha += up * up;
                    beta += uq * uq;
                    gamma += up * uq;
                }
                if gamma.abs() <= 1e-14 * (alpha * beta).sqrt() || gamma == 0.0 {
                    continue;
                }
                converged = false;
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let up = u[colp + i];
                    let uq = u[colq + i];
                    u[colp + i] = c * up - s * uq;
                    u[colq + i] = s * up + c * uq;
                }
                for i in 0..n {
                    let vp = v[p * n + i];
                    let vq = v[q * n + i];
                    v[p * n + i] = c * vp - s * vq;
                    v[q * n + i] = s * vp + c * vq;
                }
            }
        }
        if converged {
            break;
        }
    }
    // Singular values = column norms; normalise U columns.
    let mut sv: Vec<(f64, usize)> = (0..n)
        .map(|j| {
            let norm: f64 = (0..m)
                .map(|i| u[j * m + i] * u[j * m + i])
                .sum::<f64>()
                .sqrt();
            (norm, j)
        })
        .collect();
    sv.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let mut u_out = Matrix::zeros(m, n);
    let mut v_out = Matrix::zeros(n, n);
    let mut sigma = Vec::with_capacity(n);
    for (dst, &(norm, src)) in sv.iter().enumerate() {
        sigma.push(norm as f32);
        let inv = if norm > 1e-30 { 1.0 / norm } else { 0.0 };
        for i in 0..m {
            u_out[(i, dst)] = (u[src * m + i] * inv) as f32;
        }
        for i in 0..n {
            v_out[(i, dst)] = v[src * n + i] as f32;
        }
    }
    Svd {
        u: u_out,
        sigma,
        v: v_out,
    }
}

/// Solves the orthogonal Procrustes problem: the orthonormal `R` minimising
/// `‖X R − Y‖_F` is `R = U Vᵀ` where `Xᵀ Y = U Σ Vᵀ`.
///
/// `g` must be the `d×d` correlation matrix `Xᵀ Y`. This is the update OPQ's
/// non-parametric alternation performs each round.
pub fn procrustes(g: &Matrix) -> Matrix {
    assert_eq!(
        g.rows, g.cols,
        "procrustes expects a square correlation matrix"
    );
    let Svd { u, v, .. } = svd(g);
    u.matmul(&v.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{expm, is_orthonormal};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A random orthonormal matrix: `exp` of a random skew.
    fn random_rotation(n: usize, rng: &mut SmallRng) -> Matrix {
        let w = Matrix::random_uniform(n, n, 1.0, rng);
        expm(&w.sub(&w.transpose()))
    }

    #[test]
    fn svd_reconstructs() {
        let mut rng = SmallRng::seed_from_u64(13);
        let a = Matrix::random_uniform(7, 5, 1.0, &mut rng);
        let s = svd(&a);
        let mut sig = Matrix::zeros(5, 5);
        for i in 0..5 {
            sig[(i, i)] = s.sigma[i];
        }
        let rec = s.u.matmul(&sig).matmul(&s.v.transpose());
        for (x, y) in rec.data.iter().zip(&a.data) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
        // Descending singular values.
        for w in s.sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-6);
        }
    }

    #[test]
    fn svd_of_orthonormal_has_unit_sigma() {
        let mut rng = SmallRng::seed_from_u64(14);
        let q = random_rotation(6, &mut rng);
        let s = svd(&q);
        for sv in &s.sigma {
            assert!((sv - 1.0).abs() < 1e-4, "{sv}");
        }
    }

    #[test]
    fn procrustes_recovers_rotation() {
        // If Y = X R0 for orthonormal R0, procrustes(XᵀY) should recover R0.
        let mut rng = SmallRng::seed_from_u64(15);
        let x = Matrix::random_uniform(50, 6, 1.0, &mut rng);
        let r0 = random_rotation(6, &mut rng);
        let y = x.matmul(&r0);
        let g = x.transpose().matmul(&y);
        let r = procrustes(&g);
        assert!(is_orthonormal(&r, 1e-3));
        for (a, b) in r.data.iter().zip(&r0.data) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }
}
