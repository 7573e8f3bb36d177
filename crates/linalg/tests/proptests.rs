//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use rpq_linalg::{distance, expm, is_orthonormal, svd, Matrix};

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn expm_of_skew_is_always_orthonormal(w in small_matrix(6, 6)) {
        let a = w.sub(&w.transpose());
        let r = expm(&a);
        prop_assert!(is_orthonormal(&r, 5e-3));
    }

    #[test]
    fn rotation_preserves_distances(w in small_matrix(5, 5),
                                    x in proptest::collection::vec(-3.0f32..3.0, 5),
                                    y in proptest::collection::vec(-3.0f32..3.0, 5)) {
        let a = w.sub(&w.transpose());
        let r = expm(&a);
        let xm = Matrix::from_vec(1, 5, x.clone());
        let ym = Matrix::from_vec(1, 5, y.clone());
        let xr = xm.matmul(&r);
        let yr = ym.matmul(&r);
        let before = distance::sq_l2(&x, &y);
        let after = distance::sq_l2(&xr.data, &yr.data);
        prop_assert!((before - after).abs() <= 1e-2 * before.max(1.0),
                     "rotation changed distance: {before} vs {after}");
    }

    #[test]
    fn matmul_distributes_over_add(a in small_matrix(4, 3),
                                   b in small_matrix(3, 5),
                                   c in small_matrix(3, 5)) {
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in lhs.data.iter().zip(&rhs.data) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_of_product(a in small_matrix(4, 3), b in small_matrix(3, 2)) {
        // (AB)ᵀ = Bᵀ Aᵀ
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.data.iter().zip(&rhs.data) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn svd_sigma_sorted_nonnegative(a in small_matrix(6, 4)) {
        let s = svd(&a);
        for w in s.sigma.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-5);
        }
        prop_assert!(s.sigma.iter().all(|&v| v >= -1e-6));
    }

    #[test]
    fn sq_l2_axioms(x in proptest::collection::vec(-5.0f32..5.0, 9),
                    y in proptest::collection::vec(-5.0f32..5.0, 9)) {
        // Symmetry and identity of indiscernibles (squared form).
        prop_assert!((distance::sq_l2(&x, &y) - distance::sq_l2(&y, &x)).abs() < 1e-4);
        prop_assert_eq!(distance::sq_l2(&x, &x), 0.0);
        prop_assert!(distance::sq_l2(&x, &y) >= 0.0);
    }

    #[test]
    fn dot_is_bilinear(x in proptest::collection::vec(-2.0f32..2.0, 6),
                       y in proptest::collection::vec(-2.0f32..2.0, 6),
                       s in -3.0f32..3.0) {
        let sx: Vec<f32> = x.iter().map(|v| v * s).collect();
        let lhs = distance::dot(&sx, &y);
        let rhs = s * distance::dot(&x, &y);
        prop_assert!((lhs - rhs).abs() < 1e-2 * rhs.abs().max(1.0));
    }
}
