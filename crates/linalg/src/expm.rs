//! Matrix exponential, forward only.
//!
//! RPQ parameterises its learned rotation as `R = exp(A)` with `A`
//! skew-symmetric (paper §4): orthogonality follows from
//! `exp(A)ᵀ = exp(−A) = exp(A)⁻¹`. The trainer never differentiates `exp`:
//! it re-bases `R ← R · exp(A)` after every step (DESIGN §4.8), so all it
//! needs is the forward map and the re-base product [`mul_expm`].
//!
//! `exp` is scaling-and-squaring with the degree-13 Padé approximant
//! (Higham 2005), in `f64` internally.

use crate::matrix::Matrix;

/// Internal f64 square matrix helper.
struct Mat64 {
    n: usize,
    d: Vec<f64>,
}

impl Mat64 {
    fn zeros(n: usize) -> Self {
        Self {
            n,
            d: vec![0.0; n * n],
        }
    }

    fn from_f32(m: &Matrix) -> Self {
        assert_eq!(m.rows, m.cols, "expm requires a square matrix");
        Self {
            n: m.rows,
            d: m.data.iter().map(|&v| v as f64).collect(),
        }
    }

    fn to_f32(&self) -> Matrix {
        Matrix::from_vec(self.n, self.n, self.d.iter().map(|&v| v as f32).collect())
    }

    fn matmul(&self, o: &Mat64) -> Mat64 {
        use rayon::prelude::*;
        let n = self.n;
        let mut out = Mat64::zeros(n);
        let body = |(i, orow): (usize, &mut [f64])| {
            for k in 0..n {
                let aik = self.d[i * n + k];
                if aik == 0.0 {
                    continue;
                }
                let brow = &o.d[k * n..(k + 1) * n];
                for (ov, bv) in orow.iter_mut().zip(brow) {
                    *ov += aik * bv;
                }
            }
        };
        if n >= 96 {
            out.d.par_chunks_mut(n).enumerate().for_each(body);
        } else {
            out.d.chunks_mut(n).enumerate().for_each(body);
        }
        out
    }

    fn add(&self, o: &Mat64) -> Mat64 {
        Mat64 {
            n: self.n,
            d: self.d.iter().zip(&o.d).map(|(a, b)| a + b).collect(),
        }
    }

    fn sub(&self, o: &Mat64) -> Mat64 {
        Mat64 {
            n: self.n,
            d: self.d.iter().zip(&o.d).map(|(a, b)| a - b).collect(),
        }
    }

    fn scale(&self, s: f64) -> Mat64 {
        Mat64 {
            n: self.n,
            d: self.d.iter().map(|v| v * s).collect(),
        }
    }

    fn add_scaled_identity(&self, s: f64) -> Mat64 {
        let mut out = Mat64 {
            n: self.n,
            d: self.d.clone(),
        };
        for i in 0..self.n {
            out.d[i * self.n + i] += s;
        }
        out
    }

    fn norm_1(&self) -> f64 {
        let n = self.n;
        (0..n)
            .map(|j| (0..n).map(|i| self.d[i * n + j].abs()).sum::<f64>())
            .fold(0.0f64, f64::max)
    }

    /// Solves `self * X = B` in place via LU with partial pivoting;
    /// returns `X`. Panics on a singular system (cannot happen for the
    /// Padé denominator when scaling is chosen correctly).
    fn solve(&self, b: &Mat64) -> Mat64 {
        let n = self.n;
        let mut lu = self.d.clone();
        let mut x = b.d.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Pivot.
            let mut pmax = k;
            let mut vmax = lu[piv[k] * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[piv[i] * n + k].abs();
                if v > vmax {
                    vmax = v;
                    pmax = i;
                }
            }
            assert!(vmax > 1e-300, "singular matrix in expm Padé solve");
            piv.swap(k, pmax);
            let pk = piv[k];
            let diag = lu[pk * n + k];
            #[allow(clippy::needless_range_loop)]
            for i in (k + 1)..n {
                let pi = piv[i];
                let f = lu[pi * n + k] / diag;
                lu[pi * n + k] = f;
                for j in (k + 1)..n {
                    lu[pi * n + j] -= f * lu[pk * n + j];
                }
                for j in 0..n {
                    x[pi * n + j] -= f * x[pk * n + j];
                }
            }
        }
        // Back substitution.
        let mut out = vec![0.0f64; n * n];
        for j in 0..n {
            for irow in (0..n).rev() {
                let pi = piv[irow];
                let mut s = x[pi * n + j];
                for k2 in (irow + 1)..n {
                    s -= lu[pi * n + k2] * out[k2 * n + j];
                }
                out[irow * n + j] = s / lu[pi * n + irow];
            }
        }
        Mat64 { n, d: out }
    }
}

/// Degree-13 Padé coefficients (Higham 2005).
const PADE13: [f64; 14] = [
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
];

fn expm64(a: &Mat64) -> Mat64 {
    let theta13 = 5.371920351148152f64;
    let norm = a.norm_1();
    let s = if norm > theta13 {
        (norm / theta13).log2().ceil().max(0.0) as u32
    } else {
        0
    };
    let a = a.scale(1.0 / f64::powi(2.0, s as i32));
    let b = &PADE13;
    let a2 = a.matmul(&a);
    let a4 = a2.matmul(&a2);
    let a6 = a2.matmul(&a4);
    // U = A (A6 (b13 A6 + b11 A4 + b9 A2) + b7 A6 + b5 A4 + b3 A2 + b1 I)
    let w1 = a6.scale(b[13]).add(&a4.scale(b[11])).add(&a2.scale(b[9]));
    let w2 = a6
        .scale(b[7])
        .add(&a4.scale(b[5]))
        .add(&a2.scale(b[3]))
        .add_scaled_identity(b[1]);
    let u = a.matmul(&a6.matmul(&w1).add(&w2));
    // V = A6 (b12 A6 + b10 A4 + b8 A2) + b6 A6 + b4 A4 + b2 A2 + b0 I
    let z1 = a6.scale(b[12]).add(&a4.scale(b[10])).add(&a2.scale(b[8]));
    let z2 = a6
        .scale(b[6])
        .add(&a4.scale(b[4]))
        .add(&a2.scale(b[2]))
        .add_scaled_identity(b[0]);
    let v = a6.matmul(&z1).add(&z2);
    // R = (V - U)^{-1} (V + U), then square s times.
    let mut r = v.sub(&u).solve(&v.add(&u));
    for _ in 0..s {
        r = r.matmul(&r);
    }
    r
}

/// Matrix exponential `exp(A)` of a square matrix.
pub fn expm(a: &Matrix) -> Matrix {
    expm64(&Mat64::from_f32(a)).to_f32()
}

/// The re-base product `B · exp(A)` of two square matrices, taken in `f64`
/// and rounded to `f32` once. Rounding `exp(A)` first and multiplying in
/// `f32` lets a rotation re-based every step drift from orthonormal
/// (≈ 5e-5 after 45 steps at D = 128, against ≈ 1e-6 here).
pub fn mul_expm(b: &Matrix, a: &Matrix) -> Matrix {
    assert_eq!(b.cols, a.rows, "mul_expm shape mismatch");
    Mat64::from_f32(b)
        .matmul(&expm64(&Mat64::from_f32(a)))
        .to_f32()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_orthonormal;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn expm_zero_is_identity() {
        let r = expm(&Matrix::zeros(4, 4));
        let i = Matrix::identity(4);
        for (x, y) in r.data.iter().zip(&i.data) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn expm_diagonal() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let r = expm(&a);
        assert!((r[(0, 0)] - 1.0f32.exp()).abs() < 1e-4);
        assert!((r[(1, 1)] - 2.0f32.exp()).abs() < 1e-3);
        assert!(r[(0, 1)].abs() < 1e-6);
    }

    #[test]
    fn expm_rotation_2d() {
        // exp([[0, -t], [t, 0]]) = [[cos t, -sin t], [sin t, cos t]]
        let t = 0.7f32;
        let a = Matrix::from_rows(&[&[0.0, -t], &[t, 0.0]]);
        let r = expm(&a);
        assert!((r[(0, 0)] - t.cos()).abs() < 1e-5);
        assert!((r[(0, 1)] + t.sin()).abs() < 1e-5);
        assert!((r[(1, 0)] - t.sin()).abs() < 1e-5);
        assert!((r[(1, 1)] - t.cos()).abs() < 1e-5);
    }

    #[test]
    fn expm_of_skew_is_orthonormal() {
        let mut rng = SmallRng::seed_from_u64(42);
        for dim in [2, 3, 8, 16, 33] {
            let w = Matrix::random_uniform(dim, dim, 1.5, &mut rng);
            let a = w.sub(&w.transpose());
            let r = expm(&a);
            assert!(is_orthonormal(&r, 2e-3), "dim {dim} not orthonormal");
        }
    }

    #[test]
    fn expm_large_norm_scaling() {
        // Norm well above theta13 exercises the squaring phase.
        let t = 25.0f32;
        let a = Matrix::from_rows(&[&[0.0, -t], &[t, 0.0]]);
        let r = expm(&a);
        assert!((r[(0, 0)] - t.cos()).abs() < 1e-3);
        assert!((r[(1, 0)] - t.sin()).abs() < 1e-3);
    }

    #[test]
    fn rebased_rotation_stays_orthonormal() {
        // The trainer's re-base at the benchmark's shape and step count:
        // D = 128, 45 steps from identity, each a skew step at Adam's scale
        // for the rotation (lr 1e-3 × 0.1 per entry of W) in one direction,
        // as momentum makes it. The f32 product drifts to ≈ 3e-5; this one
        // stays near 1e-6.
        let w = Matrix::random_uniform(128, 128, 1e-4, &mut SmallRng::seed_from_u64(9));
        let step = w.sub(&w.transpose());
        let mut rot = Matrix::identity(128);
        for _ in 0..45 {
            rot = mul_expm(&rot, &step);
        }
        assert!(is_orthonormal(&rot, 1e-5));
    }
}
