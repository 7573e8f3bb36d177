//! # rpq-linalg
//!
//! Dense linear-algebra substrate for the RPQ reproduction.
//!
//! The RPQ paper's differentiable quantizer learns an orthonormal rotation
//! `R = exp(A)` with `A` skew-symmetric (paper §4, "adaptive vector
//! decomposition"). Training it end-to-end requires:
//!
//! * a dense [`Matrix`] type with fast multiplication ([`matrix`]),
//! * the matrix exponential and the `f64` re-base product `R · exp(A)`
//!   the trainer moves the rotation with ([`mod@expm`]),
//! * the SVD behind OPQ's Procrustes step ([`decomp`]),
//! * tight squared-Euclidean distance kernels — the inner loop of every
//!   ANNS component ([`distance`]).
//!
//! Everything is `f32` at the API surface (matching vector datasets); the
//! numerically delicate routines (expm, LU solves) run in `f64` internally.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod decomp;
pub mod distance;
pub mod expm;
pub mod matrix;

pub use decomp::{procrustes, svd, Svd};
pub use expm::{expm, mul_expm};
pub use matrix::Matrix;

/// Numerical tolerance used across tests and orthonormality checks.
pub const EPS: f32 = 1e-4;

/// Returns `true` when `m` is orthonormal to tolerance `tol`
/// (i.e. `mᵀ m ≈ I`).
pub fn is_orthonormal(m: &Matrix, tol: f32) -> bool {
    if m.rows != m.cols {
        return false;
    }
    let prod = m.transpose().matmul(m);
    for i in 0..prod.rows {
        for j in 0..prod.cols {
            let expect = if i == j { 1.0 } else { 0.0 };
            if (prod[(i, j)] - expect).abs() > tol {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_orthonormal() {
        assert!(is_orthonormal(&Matrix::identity(5), 1e-6));
    }

    #[test]
    fn non_square_is_not_orthonormal() {
        assert!(!is_orthonormal(&Matrix::zeros(2, 3), 1e-6));
    }

    #[test]
    fn scaled_identity_is_not_orthonormal() {
        let mut m = Matrix::identity(4);
        m[(0, 0)] = 2.0;
        assert!(!is_orthonormal(&m, 1e-3));
    }
}
