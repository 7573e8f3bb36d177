//! Squared-Euclidean distance kernels.
//!
//! The paper (Def. 1 footnote, Table 1) adopts **squared** Euclidean distance
//! everywhere because it avoids the square root while preserving order; we do
//! the same. These functions are the hottest loops in the whole workspace —
//! every beam-search hop and every k-means assignment runs through them — so
//! they are unrolled four-wide, which LLVM turns into vector code.

/// Squared Euclidean distance `‖a − b‖²`. Panics in debug builds if the
/// lengths differ.
#[inline]
pub fn sq_l2(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    let (ah, at) = a.split_at(chunks * 4);
    let (bh, bt) = b.split_at(chunks * 4);
    for (ac, bc) in ah.chunks_exact(4).zip(bh.chunks_exact(4)) {
        let d0 = ac[0] - bc[0];
        let d1 = ac[1] - bc[1];
        let d2 = ac[2] - bc[2];
        let d3 = ac[3] - bc[3];
        acc[0] += d0 * d0;
        acc[1] += d1 * d1;
        acc[2] += d2 * d2;
        acc[3] += d3 * d3;
    }
    let mut tail = 0.0f32;
    for (x, y) in at.iter().zip(bt) {
        let d = x - y;
        tail += d * d;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Squared distances from `x` to each of the `out.len()` contiguous rows of
/// `rows` (row-major, `x.len()` floats each): `out[i] = sq_l2(x, rows[i])`,
/// one [`sq_l2`] per row in row order, so every entry is bit-identical to
/// the scalar call. The one sub-codebook distance loop: ADC and SDC table
/// builds, the encoder's argmin and the k-means assignment step all run it,
/// so a layout or kernel change for that loop is made here.
#[inline]
pub fn sq_l2_rows(x: &[f32], rows: &[f32], out: &mut [f32]) {
    assert_eq!(rows.len(), out.len() * x.len(), "rows/out size mismatch");
    for (o, row) in out.iter_mut().zip(rows.chunks_exact(x.len())) {
        *o = sq_l2(x, row);
    }
}

/// Dot product `⟨a, b⟩`.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    let (ah, at) = a.split_at(chunks * 4);
    let (bh, bt) = b.split_at(chunks * 4);
    for (ac, bc) in ah.chunks_exact(4).zip(bh.chunks_exact(4)) {
        acc[0] += ac[0] * bc[0];
        acc[1] += ac[1] * bc[1];
        acc[2] += ac[2] * bc[2];
        acc[3] += ac[3] * bc[3];
    }
    let mut tail = 0.0f32;
    for (x, y) in at.iter().zip(bt) {
        tail += x * y;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Squared norm `‖a‖²`.
#[inline]
pub fn sq_norm(a: &[f32]) -> f32 {
    dot(a, a)
}

/// Euclidean norm `‖a‖`.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    sq_norm(a).sqrt()
}

/// Normalises `a` to unit length in place; leaves the zero vector untouched.
pub fn normalize(a: &mut [f32]) {
    let n = norm(a);
    if n > 0.0 {
        let inv = 1.0 / n;
        for v in a {
            *v *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sq_l2_rows_is_one_sq_l2_per_row_bit_for_bit() {
        // Widths on both sides of the four-wide unroll, tail included.
        for d in [1usize, 3, 4, 8, 11] {
            let x: Vec<f32> = (0..d).map(|i| (i as f32 * 0.37).sin()).collect();
            let rows: Vec<f32> = (0..7 * d).map(|i| (i as f32 * 0.11).cos()).collect();
            let mut out = [0.0f32; 7];
            sq_l2_rows(&x, &rows, &mut out);
            for (i, o) in out.iter().enumerate() {
                assert_eq!(o.to_bits(), sq_l2(&x, &rows[i * d..(i + 1) * d]).to_bits());
            }
        }
    }

    #[test]
    fn sq_l2_known() {
        assert_eq!(sq_l2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn sq_l2_zero_on_equal() {
        let v = [1.5, -2.0, 3.25, 0.0, 9.0];
        assert_eq!(sq_l2(&v, &v), 0.0);
    }

    #[test]
    fn sq_l2_handles_tail_lengths() {
        for len in 0..9 {
            let a: Vec<f32> = (0..len).map(|i| i as f32).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32) + 1.0).collect();
            assert_eq!(sq_l2(&a, &b), len as f32, "len={len}");
        }
    }

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..13).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..13).map(|i| 1.0 - i as f32 * 0.25).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-4);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_vector_noop() {
        let mut v = vec![0.0, 0.0];
        normalize(&mut v);
        assert_eq!(v, vec![0.0, 0.0]);
    }
}
