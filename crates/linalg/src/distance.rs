//! Squared-Euclidean distance kernels.
//!
//! The paper (Def. 1 footnote, Table 1) adopts **squared** Euclidean distance
//! everywhere because it avoids the square root while preserving order; we do
//! the same. These functions are the hottest loops in the whole workspace —
//! every beam-search hop and every k-means assignment runs through them — so
//! they are unrolled four-wide, which LLVM turns into vector code. The
//! sub-codebook column kernels ([`sq_l2_columns`], [`nearest_column`]) run
//! the same arithmetic one column per lane: on x86_64 sixteen columns per
//! AVX-512 register when the CPU has it (detected at run time), four per
//! SSE2 register otherwise and for the leftovers. Each lane is its own
//! column, so the width changes no bit. [`sq_l2_8`] is [`sq_l2`] for eight
//! queries against one row, the exact ground truth's grouped scan.

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

/// [`sq_l2`] of each of eight queries and one row: `out[j]` is
/// `sq_l2(queries[j], row)` bit for bit, each query summed in its own
/// accumulators in [`sq_l2`]'s operation order. The exact ground-truth scan
/// runs it so that one pass over the base serves eight queries.
///
/// On x86_64 the four-wide chunks of all eight queries run in SSE2
/// registers against one load of the row; other targets call [`sq_l2`]
/// eight times. Panics if a query's length differs from the row's.
pub fn sq_l2_8(queries: &[&[f32]; 8], row: &[f32]) -> [f32; 8] {
    assert!(
        queries.iter().all(|q| q.len() == row.len()),
        "query/row length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: every query is `row.len()` long, asserted above.
    return unsafe { sse2::eight(queries, row) };
    #[cfg(not(target_arch = "x86_64"))]
    portable_eight(queries, row)
}

/// Portable [`sq_l2_8`]: one [`sq_l2`] per query.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn portable_eight(queries: &[&[f32]; 8], row: &[f32]) -> [f32; 8] {
    queries.map(|q| sq_l2(q, row))
}

/// Squared distances from `x` to every column of the dimension-major
/// matrix `cols`: `x.len()` rows of `k = out.len()` floats, so
/// `cols[d * k + c]` is coordinate `d` of column `c`. `out[c]` is
/// bit-identical to [`sq_l2`] of `x` and column `c`: each lane repeats its
/// operation order (four chunk accumulators, a separate tail,
/// `a0 + a1 + a2 + a3 + tail`), so a wider register changes no bit.
/// The one sub-codebook distance loop: the ADC and SDC table builds and
/// k-means++ seeding run it, and [`nearest_column`] is the same loop with
/// the argmin fused in.
///
/// The columns run in the widest registers the CPU has: on x86_64 sixteen
/// per AVX-512 register when the CPU reports `avx512f`, then four per SSE2
/// register (part of the x86_64 baseline); the columns left over, and
/// every column on other targets, take the portable loop.
pub fn sq_l2_columns(x: &[f32], cols: &[f32], out: &mut [f32]) {
    assert_eq!(cols.len(), x.len() * out.len(), "cols/out size mismatch");
    // SAFETY: the size is asserted above and `detected` runs here.
    unsafe { columns_on(Simd::detected(), x, cols, out) }
}

/// Writes the row-major rows of `dim` floats in `rows` into `cols` in the
/// column kernels' dimension-major layout: with `n = rows.len() / dim`
/// rows, `cols[d * n + c]` is coordinate `d` of row `c`.
pub fn to_columns(rows: &[f32], dim: usize, cols: &mut [f32]) {
    assert_eq!(rows.len(), cols.len(), "rows/cols size mismatch");
    let n = rows.len() / dim;
    for (c, row) in rows.chunks_exact(dim).enumerate() {
        for (d, &v) in row.iter().enumerate() {
            cols[d * n + c] = v;
        }
    }
}

/// The Lloyd quantizer's argmin over the columns of `cols` (laid out as in
/// [`sq_l2_columns`], `k` columns): index of, and squared distance to, the
/// column nearest `x` — the first one on a tie, found by a strict-`<` scan
/// from `(0, +inf)`, so NaN distances never win and `(0, +inf)` comes back
/// when no distance is below `+inf`. Runs on the same tiers.
pub fn nearest_column(x: &[f32], cols: &[f32], k: usize) -> (usize, f32) {
    assert_eq!(cols.len(), x.len() * k, "cols/k size mismatch");
    // SAFETY: the size is asserted above and `detected` runs here.
    unsafe { nearest_on(Simd::detected(), x, cols, k) }
}

/// The instruction-set tiers of the column kernels, widest first. Each
/// tier scans the columns it has whole registers for and hands the rest to
/// the next, so every tier returns the same bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Simd {
    /// Sixteen columns per `__m512`, then [`Simd::Sse2`].
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// Four columns per `__m128`, then [`Simd::Portable`].
    #[cfg(target_arch = "x86_64")]
    Sse2,
    /// One column at a time.
    Portable,
}

impl Simd {
    /// The widest tier this CPU runs. `is_x86_feature_detected!` caches
    /// its probe, so after the first call this is one load and a test.
    #[inline]
    fn detected() -> Self {
        #[cfg(target_arch = "x86_64")]
        return if is_x86_feature_detected!("avx512f") {
            Simd::Avx512
        } else {
            Simd::Sse2
        };
        #[cfg(not(target_arch = "x86_64"))]
        Simd::Portable
    }
}

/// [`sq_l2_columns`] on the tier `simd`.
///
/// # Safety
/// `cols.len() == x.len() * out.len()`, and the CPU runs `simd`.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
unsafe fn columns_on(simd: Simd, x: &[f32], cols: &[f32], out: &mut [f32]) {
    #[allow(unused_mut)]
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    {
        if simd == Simd::Avx512 {
            done = avx512::columns(x, cols, out);
        }
        if simd != Simd::Portable {
            done = sse2::columns(x, cols, out, done);
        }
    }
    portable_columns(x, cols, out, done);
}

/// [`nearest_column`] on the tier `simd`.
///
/// # Safety
/// `cols.len() == x.len() * k`, and the CPU runs `simd`.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
unsafe fn nearest_on(simd: Simd, x: &[f32], cols: &[f32], k: usize) -> (usize, f32) {
    #[allow(unused_mut)]
    let (mut best, mut done) = ((0, f32::INFINITY), 0);
    #[cfg(target_arch = "x86_64")]
    {
        if simd == Simd::Avx512 {
            (best, done) = avx512::nearest(x, cols, k);
        }
        if simd != Simd::Portable {
            (best, done) = sse2::nearest(x, cols, k, done, best);
        }
    }
    portable_nearest(x, cols, k, done, best)
}

/// Folds per-lane first minima into `best`, which covers columns before
/// every lane's: the smallest distance wins, then the smallest index —
/// the column a sequential strict-`<` scan would keep. A lane still at
/// `(_, +inf)` never wins.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn reduce_lanes(vs: &[f32], is: &[i32], mut best: (usize, f32)) -> (usize, f32) {
    for (&v, &i) in vs.iter().zip(is) {
        let i = i as usize;
        if v < best.1 || (v == best.1 && i < best.0) {
            best = (i, v);
        }
    }
    best
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

    /// [`super::sq_l2_columns`] over the columns `from..`, four at a time
    /// while four are left; returns the first column not written.
    ///
    /// # Safety
    /// `cols.len() == x.len() * out.len()` and `from <= out.len()`.
    pub(super) unsafe fn columns(x: &[f32], cols: &[f32], out: &mut [f32], from: usize) -> usize {
        let k = out.len();
        let done = from + (k - from) / 4 * 4;
        for c in (from..done).step_by(4) {
            _mm_storeu_ps(out.as_mut_ptr().add(c), block(x, cols, k, c));
        }
        done
    }

    /// [`super::nearest_column`] over the columns `from..`, four at a time
    /// while four are left, continuing the scan from `best`: each lane
    /// keeps its own strict-`<` first minimum, and [`super::reduce_lanes`]
    /// folds them into `best`. Returns the result and the first column not
    /// scanned.
    ///
    /// # Safety
    /// `cols.len() == x.len() * k` and `from <= k`.
    pub(super) unsafe fn nearest(
        x: &[f32],
        cols: &[f32],
        k: usize,
        from: usize,
        best: (usize, f32),
    ) -> ((usize, f32), usize) {
        let done = from + (k - from) / 4 * 4;
        let mut best_v = _mm_set1_ps(f32::INFINITY);
        let mut best_i = _mm_setzero_si128();
        let mut idx = _mm_add_epi32(_mm_setr_epi32(0, 1, 2, 3), _mm_set1_epi32(from as i32));
        for c in (from..done).step_by(4) {
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
        (super::reduce_lanes(&vs, &is, best), done)
    }

    /// [`super::sq_l2_8`]: per query one `__m128` of chunk accumulators
    /// (lane `l` sums coordinates `d ≡ l mod 4`, as [`super::sq_l2`]'s
    /// `acc[l]`), fed from one load of each row chunk; then each query's
    /// scalar tail and `a0 + a1 + a2 + a3 + tail`.
    ///
    /// # Safety
    /// Every query is `row.len()` long.
    pub(super) unsafe fn eight(queries: &[&[f32]; 8], row: &[f32]) -> [f32; 8] {
        let head = row.len() / 4 * 4;
        let rp = row.as_ptr();
        let qp = queries.map(|q| q.as_ptr());
        let mut acc = [_mm_setzero_ps(); 8];
        let mut d = 0;
        while d < head {
            let r = _mm_loadu_ps(rp.add(d));
            for (a, q) in acc.iter_mut().zip(qp) {
                let t = _mm_sub_ps(_mm_loadu_ps(q.add(d)), r);
                *a = _mm_add_ps(*a, _mm_mul_ps(t, t));
            }
            d += 4;
        }
        let mut out = [0.0f32; 8];
        for ((o, a), q) in out.iter_mut().zip(acc).zip(queries) {
            let mut l = [0.0f32; 4];
            _mm_storeu_ps(l.as_mut_ptr(), a);
            let mut tail = 0.0f32;
            for (x, y) in q[head..].iter().zip(&row[head..]) {
                let t = x - y;
                tail += t * t;
            }
            *o = l[0] + l[1] + l[2] + l[3] + tail;
        }
        out
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use core::arch::x86_64::*;

    /// Squared distances from `x` to the sixteen columns `c..c + 16`, one
    /// column per lane, each in [`super::sq_l2`]'s operation order (the
    /// SSE2 block's arithmetic, four times as wide).
    ///
    /// # Safety
    /// The CPU runs avx512f, `cols.len() == x.len() * k` and
    /// `c + 16 <= k`, so every load `cols[d * k + c .. d * k + c + 16]`
    /// with `d < x.len()` is in bounds.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn block(x: &[f32], cols: &[f32], k: usize, c: usize) -> __m512 {
        let xp = x.as_ptr();
        let cp = cols.as_ptr().add(c);
        let head = x.len() / 4 * 4;
        let (mut a0, mut a1, mut a2, mut a3) = (
            _mm512_setzero_ps(),
            _mm512_setzero_ps(),
            _mm512_setzero_ps(),
            _mm512_setzero_ps(),
        );
        let mut d = 0;
        while d < head {
            let t0 = _mm512_sub_ps(_mm512_set1_ps(*xp.add(d)), _mm512_loadu_ps(cp.add(d * k)));
            let t1 = _mm512_sub_ps(
                _mm512_set1_ps(*xp.add(d + 1)),
                _mm512_loadu_ps(cp.add((d + 1) * k)),
            );
            let t2 = _mm512_sub_ps(
                _mm512_set1_ps(*xp.add(d + 2)),
                _mm512_loadu_ps(cp.add((d + 2) * k)),
            );
            let t3 = _mm512_sub_ps(
                _mm512_set1_ps(*xp.add(d + 3)),
                _mm512_loadu_ps(cp.add((d + 3) * k)),
            );
            a0 = _mm512_add_ps(a0, _mm512_mul_ps(t0, t0));
            a1 = _mm512_add_ps(a1, _mm512_mul_ps(t1, t1));
            a2 = _mm512_add_ps(a2, _mm512_mul_ps(t2, t2));
            a3 = _mm512_add_ps(a3, _mm512_mul_ps(t3, t3));
            d += 4;
        }
        let mut tail = _mm512_setzero_ps();
        while d < x.len() {
            let t = _mm512_sub_ps(_mm512_set1_ps(*xp.add(d)), _mm512_loadu_ps(cp.add(d * k)));
            tail = _mm512_add_ps(tail, _mm512_mul_ps(t, t));
            d += 1;
        }
        _mm512_add_ps(
            _mm512_add_ps(_mm512_add_ps(_mm512_add_ps(a0, a1), a2), a3),
            tail,
        )
    }

    /// [`super::sq_l2_columns`] over the first `out.len() / 16 * 16`
    /// columns; returns that count.
    ///
    /// # Safety
    /// The CPU runs avx512f and `cols.len() == x.len() * out.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn columns(x: &[f32], cols: &[f32], out: &mut [f32]) -> usize {
        let k = out.len();
        let done = k / 16 * 16;
        for c in (0..done).step_by(16) {
            _mm512_storeu_ps(out.as_mut_ptr().add(c), block(x, cols, k, c));
        }
        done
    }

    /// [`super::nearest_column`] over the first `k / 16 * 16` columns, from
    /// `(0, +inf)`: each lane keeps its own strict-`<` first minimum and
    /// [`super::reduce_lanes`] folds them. Returns the result and the
    /// number of columns scanned.
    ///
    /// # Safety
    /// The CPU runs avx512f and `cols.len() == x.len() * k`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn nearest(x: &[f32], cols: &[f32], k: usize) -> ((usize, f32), usize) {
        let done = k / 16 * 16;
        let mut best_v = _mm512_set1_ps(f32::INFINITY);
        let mut best_i = _mm512_setzero_si512();
        let mut idx = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        for c in (0..done).step_by(16) {
            let v = block(x, cols, k, c);
            let lt = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(v, best_v);
            best_v = _mm512_mask_mov_ps(best_v, lt, v);
            best_i = _mm512_mask_mov_epi32(best_i, lt, idx);
            idx = _mm512_add_epi32(idx, _mm512_set1_epi32(16));
        }
        let mut vs = [0.0f32; 16];
        let mut is = [0i32; 16];
        _mm512_storeu_ps(vs.as_mut_ptr(), best_v);
        _mm512_storeu_epi32(is.as_mut_ptr(), best_i);
        (super::reduce_lanes(&vs, &is, (0, f32::INFINITY)), done)
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

    /// [`to_columns`] into a new buffer. The kernel tests compare against
    /// [`sq_l2`] of the rows themselves, so they pin the transpose too.
    fn columns_of(rows: &[f32], dim: usize) -> Vec<f32> {
        let mut cols = vec![0.0f32; rows.len()];
        to_columns(rows, dim, &mut cols);
        cols
    }

    /// The column-kernel tiers this CPU runs, widest first: AVX-512 only
    /// where the CPU reports avx512f, so a box without it still pins SSE2.
    fn tiers() -> Vec<Simd> {
        let mut tiers = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                tiers.push(Simd::Avx512);
            }
            tiers.push(Simd::Sse2);
        }
        tiers.push(Simd::Portable);
        println!("column-kernel tiers run: {tiers:?}");
        tiers
    }

    /// [`nearest_on`] for a tier [`tiers`] returned.
    fn nearest_via(simd: Simd, x: &[f32], cols: &[f32], k: usize) -> (usize, f32) {
        assert_eq!(cols.len(), x.len() * k);
        // SAFETY: the size is asserted above and `tiers` only lists what
        // the CPU runs.
        unsafe { nearest_on(simd, x, cols, k) }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|d| d.to_bits()).collect()
    }

    /// Asserts that the column kernels, dispatched and on every tier in
    /// `tiers`, equal one [`sq_l2`] per row bit for bit, and that every
    /// argmin equals a strict-`<` first-minimum scan over those distances.
    fn assert_kernels_match_sq_l2(tiers: &[Simd], x: &[f32], rows: &[f32], k: usize) {
        let dim = x.len();
        let cols = columns_of(rows, dim);
        let want: Vec<f32> = rows.chunks_exact(dim).map(|r| sq_l2(x, r)).collect();
        let mut want_best = (0usize, f32::INFINITY);
        for (c, &d) in want.iter().enumerate() {
            if d < want_best.1 {
                want_best = (c, d);
            }
        }
        let mut out = vec![0.0f32; k];
        sq_l2_columns(x, &cols, &mut out);
        assert_eq!(bits(&out), bits(&want), "dispatched, dim {dim}, k {k}");
        let got = nearest_column(x, &cols, k);
        assert_eq!(got.0, want_best.0, "dispatched argmin, dim {dim}, k {k}");
        assert_eq!(
            got.1.to_bits(),
            want_best.1.to_bits(),
            "dispatched, dim {dim}"
        );
        for &simd in tiers {
            let mut out = vec![f32::NAN; k];
            // SAFETY: `cols` is `dim × k`, and `tiers` only lists what the
            // CPU runs.
            unsafe { columns_on(simd, x, &cols, &mut out) };
            assert_eq!(bits(&out), bits(&want), "{simd:?}, dim {dim}, k {k}");
            let got = nearest_via(simd, x, &cols, k);
            assert_eq!(got.0, want_best.0, "{simd:?} argmin, dim {dim}, k {k}");
            assert_eq!(
                got.1.to_bits(),
                want_best.1.to_bits(),
                "{simd:?}, dim {dim}"
            );
        }
    }

    /// Below, at and above one and several AVX-512 and SSE2 registers, so
    /// every mix of 16-wide blocks, 4-wide blocks and portable leftovers.
    const COLUMN_COUNTS: [usize; 13] = [1, 3, 4, 5, 15, 16, 17, 31, 33, 63, 64, 255, 256];

    #[test]
    fn column_kernels_are_one_sq_l2_per_column_bit_for_bit() {
        // Every tail length (dim 1..=17) on both sides of the four-wide
        // unroll, on every tier the CPU runs.
        let tiers = tiers();
        for dim in 1..=17usize {
            for k in COLUMN_COUNTS {
                let x: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
                let rows: Vec<f32> = (0..k * dim)
                    .map(|i| (i as f32 * 0.11).cos() * (1.0 + (i % 7) as f32))
                    .collect();
                assert_kernels_match_sq_l2(&tiers, &x, &rows, k);
            }
        }
    }

    #[test]
    fn nearest_column_returns_the_first_of_tied_columns() {
        let tiers = tiers();
        for dim in 1..=17usize {
            for k in COLUMN_COUNTS {
                // A few distinct codewords repeated: every distance value
                // occurs in several columns, across lanes, registers and
                // leftovers.
                let rows: Vec<f32> = (0..k * dim).map(|i| ((i / dim) % 3) as f32).collect();
                for target in [0.0f32, 1.0, 2.0, 0.5] {
                    assert_kernels_match_sq_l2(&tiers, &vec![target; dim], &rows, k);
                }
                // The nearest codeword only in the last column and in one
                // lane of a later register than a tie: the smaller index
                // still wins.
                let mut rows: Vec<f32> = (0..k * dim).map(|i| 5.0 + (i % 2) as f32).collect();
                for c in [k - 1, k / 2, 17.min(k - 1), 1.min(k - 1)] {
                    rows[c * dim..(c + 1) * dim].fill(0.25);
                }
                assert_kernels_match_sq_l2(&tiers, &vec![0.0; dim], &rows, k);
                // All columns equal: the first one wins.
                let cols = columns_of(&vec![1.5f32; k * dim], dim);
                for &simd in &tiers {
                    assert_eq!(nearest_via(simd, &vec![0.0; dim], &cols, k).0, 0);
                }
            }
        }
    }

    #[test]
    fn nearest_column_skips_non_finite_distances_like_a_strict_scan() {
        let tiers = tiers();
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e30, -1e30];
        for dim in 1..=17usize {
            for k in COLUMN_COUNTS {
                let x: Vec<f32> = (0..dim).map(|i| i as f32 * 0.5).collect();
                let mut rows: Vec<f32> = (0..k * dim).map(|i| (i as f32 * 0.3).sin()).collect();
                // Poison a spread of columns: +inf, NaN and overflowing
                // distances, including the nearest column's neighbours.
                for (n, c) in (0..k).step_by(2).enumerate() {
                    rows[c * dim + n % dim] = specials[n % specials.len()];
                }
                assert_kernels_match_sq_l2(&tiers, &x, &rows, k);
                // Every distance +inf or NaN: the scan keeps (0, +inf).
                for poison in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                    let bad = vec![poison; k * dim];
                    assert_kernels_match_sq_l2(&tiers, &x, &bad, k);
                    let cols = columns_of(&bad, dim);
                    for &simd in &tiers {
                        let (i, d) = nearest_via(simd, &x, &cols, k);
                        assert_eq!((i, d.to_bits()), (0, f32::INFINITY.to_bits()));
                    }
                }
            }
        }
    }

    #[test]
    fn sq_l2_8_is_one_sq_l2_per_query_bit_for_bit() {
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e30, -0.0];
        for dim in 0..=17usize {
            let row: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.7).cos() * 2.0).collect();
            let mut queries: Vec<Vec<f32>> = (0..8)
                .map(|j| {
                    (0..dim)
                        .map(|i| ((i + 3 * j) as f32 * 0.29).sin() * 4.0)
                        .collect()
                })
                .collect();
            // Query 7 is the row itself (distance 0); with a coordinate to
            // poison, queries 5 and 6 carry a non-finite or huge one.
            queries[7].clone_from(&row);
            if dim > 0 {
                queries[5][dim - 1] = specials[dim % specials.len()];
                queries[6][dim / 2] = specials[(dim + 2) % specials.len()];
            }
            let refs: [&[f32]; 8] = std::array::from_fn(|j| queries[j].as_slice());
            let want: Vec<f32> = refs.iter().map(|q| sq_l2(q, &row)).collect();
            assert_eq!(bits(&sq_l2_8(&refs, &row)), bits(&want), "dim {dim}");
            assert_eq!(bits(&portable_eight(&refs, &row)), bits(&want), "dim {dim}");
            #[cfg(target_arch = "x86_64")]
            // SAFETY: every query is `dim` long.
            let sse2 = unsafe { sse2::eight(&refs, &row) };
            #[cfg(target_arch = "x86_64")]
            assert_eq!(bits(&sse2), bits(&want), "sse2, dim {dim}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sq_l2_8_rejects_a_short_query() {
        let row = [1.0f32; 4];
        let mut refs: [&[f32]; 8] = [&row; 8];
        refs[3] = &row[..3];
        let _ = sq_l2_8(&refs, &row);
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
