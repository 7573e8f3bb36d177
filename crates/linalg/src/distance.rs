//! Squared-Euclidean distance kernels.
//!
//! The paper (Def. 1 footnote, Table 1) adopts **squared** Euclidean distance
//! everywhere because it avoids the square root while preserving order; we do
//! the same. These functions are the hottest loops in the whole workspace —
//! every beam-search hop and every k-means assignment runs through them — so
//! they are unrolled four-wide, which LLVM turns into vector code; the
//! sub-codebook column kernels ([`sq_l2_columns`], [`nearest_column`]) run
//! the same arithmetic four columns per SSE2 register on x86_64.

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

/// Squared distances from `x` to every column of the dimension-major
/// matrix `cols`: `x.len()` rows of `k = out.len()` floats, so
/// `cols[d * k + c]` is coordinate `d` of column `c`. `out[c]` is
/// bit-identical to [`sq_l2`] of `x` and column `c`: each lane repeats its
/// operation order (four chunk accumulators, a separate tail,
/// `a0 + a1 + a2 + a3 + tail`).
/// The one sub-codebook distance loop: the ADC and SDC table builds run it,
/// and [`nearest_column`] is the same loop with the argmin fused in.
///
/// On x86_64, four columns at a time run in SSE2 lanes (part of the
/// x86_64 baseline, so no runtime detection); the `k % 4` columns left
/// over, and every column on other targets, take the portable loop.
pub fn sq_l2_columns(x: &[f32], cols: &[f32], out: &mut [f32]) {
    assert_eq!(cols.len(), x.len() * out.len(), "cols/out size mismatch");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `cols` holds `x.len()` rows of `out.len()` floats, asserted
    // above.
    let done = unsafe { sse2::columns(x, cols, out) };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    portable_columns(x, cols, out, done);
}

/// The Lloyd quantizer's argmin over the columns of `cols` (laid out as in
/// [`sq_l2_columns`], `k` columns): index of, and squared distance to, the
/// column nearest `x` — the first one on a tie, found by a strict-`<` scan
/// from `(0, +inf)`, so NaN distances never win and `(0, +inf)` comes back
/// when no distance is below `+inf`.
pub fn nearest_column(x: &[f32], cols: &[f32], k: usize) -> (usize, f32) {
    assert_eq!(cols.len(), x.len() * k, "cols/k size mismatch");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `cols` holds `x.len()` rows of `k` floats, asserted above.
    let (best, done) = unsafe { sse2::nearest(x, cols, k) };
    #[cfg(not(target_arch = "x86_64"))]
    let (best, done) = ((0, f32::INFINITY), 0);
    portable_nearest(x, cols, k, done, best)
}

/// [`sq_l2`] of `x` and column `c` of the `k`-column matrix `cols`, in
/// [`sq_l2`]'s operation order.
#[inline]
fn sq_l2_column(x: &[f32], cols: &[f32], k: usize, c: usize) -> f32 {
    let head = x.len() / 4 * 4;
    let mut acc = [0.0f32; 4];
    for (d, xc) in x[..head].chunks_exact(4).enumerate() {
        for (l, (a, &xv)) in acc.iter_mut().zip(xc).enumerate() {
            let t = xv - cols[(d * 4 + l) * k + c];
            *a += t * t;
        }
    }
    let mut tail = 0.0f32;
    for (d, &xv) in x.iter().enumerate().skip(head) {
        let t = xv - cols[d * k + c];
        tail += t * t;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Portable [`sq_l2_columns`] over the columns `from..`.
fn portable_columns(x: &[f32], cols: &[f32], out: &mut [f32], from: usize) {
    let k = out.len();
    for (c, o) in out.iter_mut().enumerate().skip(from) {
        *o = sq_l2_column(x, cols, k, c);
    }
}

/// Portable [`nearest_column`] over the columns `from..`, continuing the
/// scan from `best`.
fn portable_nearest(
    x: &[f32],
    cols: &[f32],
    k: usize,
    from: usize,
    mut best: (usize, f32),
) -> (usize, f32) {
    for c in from..k {
        let d = sq_l2_column(x, cols, k, c);
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use core::arch::x86_64::*;

    /// Squared distances from `x` to the four columns `c..c + 4`, one
    /// column per lane, each in [`super::sq_l2`]'s operation order.
    ///
    /// # Safety
    /// `cols.len() == x.len() * k` and `c + 4 <= k`, so every load
    /// `cols[d * k + c .. d * k + c + 4]` with `d < x.len()` is in bounds.
    #[inline(always)]
    unsafe fn block(x: &[f32], cols: &[f32], k: usize, c: usize) -> __m128 {
        let xp = x.as_ptr();
        let cp = cols.as_ptr().add(c);
        let head = x.len() / 4 * 4;
        let (mut a0, mut a1, mut a2, mut a3) = (
            _mm_setzero_ps(),
            _mm_setzero_ps(),
            _mm_setzero_ps(),
            _mm_setzero_ps(),
        );
        let mut d = 0;
        while d < head {
            let xv = _mm_loadu_ps(xp.add(d));
            let t0 = _mm_sub_ps(_mm_shuffle_ps(xv, xv, 0x00), _mm_loadu_ps(cp.add(d * k)));
            let t1 = _mm_sub_ps(
                _mm_shuffle_ps(xv, xv, 0x55),
                _mm_loadu_ps(cp.add((d + 1) * k)),
            );
            let t2 = _mm_sub_ps(
                _mm_shuffle_ps(xv, xv, 0xAA),
                _mm_loadu_ps(cp.add((d + 2) * k)),
            );
            let t3 = _mm_sub_ps(
                _mm_shuffle_ps(xv, xv, 0xFF),
                _mm_loadu_ps(cp.add((d + 3) * k)),
            );
            a0 = _mm_add_ps(a0, _mm_mul_ps(t0, t0));
            a1 = _mm_add_ps(a1, _mm_mul_ps(t1, t1));
            a2 = _mm_add_ps(a2, _mm_mul_ps(t2, t2));
            a3 = _mm_add_ps(a3, _mm_mul_ps(t3, t3));
            d += 4;
        }
        let mut tail = _mm_setzero_ps();
        while d < x.len() {
            let t = _mm_sub_ps(_mm_set1_ps(*xp.add(d)), _mm_loadu_ps(cp.add(d * k)));
            tail = _mm_add_ps(tail, _mm_mul_ps(t, t));
            d += 1;
        }
        _mm_add_ps(_mm_add_ps(_mm_add_ps(_mm_add_ps(a0, a1), a2), a3), tail)
    }

    /// [`super::sq_l2_columns`] over the first `out.len() / 4 * 4`
    /// columns; returns that count.
    ///
    /// # Safety
    /// `cols.len() == x.len() * out.len()`.
    pub(super) unsafe fn columns(x: &[f32], cols: &[f32], out: &mut [f32]) -> usize {
        let k = out.len();
        let done = k / 4 * 4;
        for c in (0..done).step_by(4) {
            _mm_storeu_ps(out.as_mut_ptr().add(c), block(x, cols, k, c));
        }
        done
    }

    /// [`super::nearest_column`] over the first `k / 4 * 4` columns: each
    /// lane keeps its own strict-`<` first minimum, and the lanes reduce to
    /// the smallest distance, then the smallest index — the column a
    /// sequential strict-`<` scan would keep. Returns it (or `(0, +inf)`)
    /// and the number of columns scanned.
    ///
    /// # Safety
    /// `cols.len() == x.len() * k`.
    pub(super) unsafe fn nearest(x: &[f32], cols: &[f32], k: usize) -> ((usize, f32), usize) {
        let done = k / 4 * 4;
        let mut best_v = _mm_set1_ps(f32::INFINITY);
        let mut best_i = _mm_setzero_si128();
        let mut idx = _mm_setr_epi32(0, 1, 2, 3);
        for c in (0..done).step_by(4) {
            let v = block(x, cols, k, c);
            let lt = _mm_cmplt_ps(v, best_v);
            best_v = _mm_or_ps(_mm_and_ps(lt, v), _mm_andnot_ps(lt, best_v));
            let lt = _mm_castps_si128(lt);
            best_i = _mm_or_si128(_mm_and_si128(lt, idx), _mm_andnot_si128(lt, best_i));
            idx = _mm_add_epi32(idx, _mm_set1_epi32(4));
        }
        let mut vs = [0.0f32; 4];
        let mut is = [0i32; 4];
        _mm_storeu_ps(vs.as_mut_ptr(), best_v);
        _mm_storeu_si128(is.as_mut_ptr().cast(), best_i);
        let mut best = (0usize, f32::INFINITY);
        for (&v, &i) in vs.iter().zip(&is) {
            let i = i as usize;
            if v < best.1 || (v == best.1 && i < best.0) {
                best = (i, v);
            }
        }
        (best, done)
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

    /// Transposes `k` row-major rows of `dim` floats into the `dim × k`
    /// column layout the column kernels read.
    fn to_columns(rows: &[f32], dim: usize, k: usize) -> Vec<f32> {
        let mut cols = vec![0.0f32; dim * k];
        for c in 0..k {
            for d in 0..dim {
                cols[d * k + c] = rows[c * dim + d];
            }
        }
        cols
    }

    /// Asserts that both column-kernel forms, dispatched and portable,
    /// equal one [`sq_l2`] per row bit for bit, and that both argmins
    /// equal a strict-`<` first-minimum scan over those distances.
    fn assert_kernels_match_sq_l2(x: &[f32], rows: &[f32], k: usize) {
        let dim = x.len();
        let cols = to_columns(rows, dim, k);
        let want: Vec<f32> = rows.chunks_exact(dim).map(|r| sq_l2(x, r)).collect();
        let mut want_best = (0usize, f32::INFINITY);
        for (c, &d) in want.iter().enumerate() {
            if d < want_best.1 {
                want_best = (c, d);
            }
        }
        let bits = |v: &[f32]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        let mut out = vec![0.0f32; k];
        sq_l2_columns(x, &cols, &mut out);
        assert_eq!(bits(&out), bits(&want), "dim {dim}, k {k}");
        let mut out = vec![0.0f32; k];
        portable_columns(x, &cols, &mut out, 0);
        assert_eq!(bits(&out), bits(&want), "portable, dim {dim}, k {k}");
        for (what, got) in [
            ("dispatched", nearest_column(x, &cols, k)),
            (
                "portable",
                portable_nearest(x, &cols, k, 0, (0, f32::INFINITY)),
            ),
        ] {
            assert_eq!(got.0, want_best.0, "{what} argmin, dim {dim}, k {k}");
            assert_eq!(got.1.to_bits(), want_best.1.to_bits(), "{what}, dim {dim}");
        }
    }

    const COLUMN_COUNTS: [usize; 7] = [1, 3, 4, 5, 63, 255, 256];

    #[test]
    fn column_kernels_are_one_sq_l2_per_column_bit_for_bit() {
        // Every tail length (dim 1..=17) on both sides of the four-wide
        // unroll, and column counts with and without SIMD leftovers.
        for dim in 1..=17usize {
            for k in COLUMN_COUNTS {
                let x: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
                let rows: Vec<f32> = (0..k * dim)
                    .map(|i| (i as f32 * 0.11).cos() * (1.0 + (i % 7) as f32))
                    .collect();
                assert_kernels_match_sq_l2(&x, &rows, k);
            }
        }
    }

    #[test]
    fn nearest_column_returns_the_first_of_tied_columns() {
        for dim in [1usize, 4, 7] {
            for k in COLUMN_COUNTS {
                // A few distinct codewords repeated: every distance value
                // occurs in several columns, across lanes and leftovers.
                let rows: Vec<f32> = (0..k * dim).map(|i| ((i / dim) % 3) as f32).collect();
                for target in [0.0f32, 1.0, 2.0, 0.5] {
                    assert_kernels_match_sq_l2(&vec![target; dim], &rows, k);
                }
                // All columns equal: the first one wins.
                let same = vec![1.5f32; k * dim];
                let cols = to_columns(&same, dim, k);
                assert_eq!(nearest_column(&vec![0.0; dim], &cols, k).0, 0);
            }
        }
    }

    #[test]
    fn nearest_column_skips_non_finite_distances_like_a_strict_scan() {
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e30, -1e30];
        for dim in [1usize, 3, 5, 8] {
            for k in COLUMN_COUNTS {
                let x: Vec<f32> = (0..dim).map(|i| i as f32 * 0.5).collect();
                let mut rows: Vec<f32> = (0..k * dim).map(|i| (i as f32 * 0.3).sin()).collect();
                // Poison a spread of columns: +inf, NaN and overflowing
                // distances, including the nearest column's neighbours.
                for (n, c) in (0..k).step_by(2).enumerate() {
                    rows[c * dim + n % dim] = specials[n % specials.len()];
                }
                assert_kernels_match_sq_l2(&x, &rows, k);
                // Every distance +inf or NaN: the scan keeps (0, +inf).
                for poison in [f32::INFINITY, f32::NAN] {
                    let bad = vec![poison; k * dim];
                    assert_kernels_match_sq_l2(&x, &bad, k);
                    let cols = to_columns(&bad, dim, k);
                    let (i, d) = nearest_column(&x, &cols, k);
                    assert_eq!((i, d.to_bits()), (0, f32::INFINITY.to_bits()));
                }
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
