//! Row-major dense `f32` matrix with the operations the RPQ stack needs.
//!
//! This is deliberately not a general-purpose linear-algebra library: the
//! shapes involved (rotation matrices up to a few hundred columns, data
//! batches of a few thousand rows) are small enough that a cache-friendly
//! `ikj` multiply is within a small factor of optimised BLAS, and keeping
//! the type simple makes the autodiff tape above it easy to audit.

use std::fmt;
use std::ops::{Index, IndexMut};

use rand::Rng;

/// Row-major dense matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for i in 0..show {
            let cs = self.cols.min(8);
            let row: Vec<String> = (0..cs).map(|j| format!("{:9.4}", self[(i, j)])).collect();
            writeln!(
                f,
                "  [{}{}]",
                row.join(", "),
                if self.cols > cs { ", …" } else { "" }
            )?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n×n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major vector. Panics if the length does not
    /// equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Self { rows, cols, data }
    }

    /// Builds a matrix from a slice of rows. Panics on ragged input.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Samples a matrix with i.i.d. entries uniform in `[-scale, scale]`.
    pub fn random_uniform<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        scale: f32,
        rng: &mut R,
    ) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..=scale))
            .collect();
        Self { rows, cols, data }
    }

    /// Samples a matrix with i.i.d. standard-normal entries scaled by `std`
    /// (Box–Muller; avoids a distribution dependency).
    pub fn random_normal<R: Rng + ?Sized>(rows: usize, cols: usize, std: f32, rng: &mut R) -> Self {
        let n = rows * cols;
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Self { rows, cols, data }
    }

    /// Returns the `i`-th row as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns the `i`-th row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix multiplication `self * other` with an `ikj` loop order so the
    /// innermost loop streams both output and `other` rows sequentially.
    /// Rows are processed in parallel above a small threshold (the matrix
    /// exponential's Padé evaluation and RPQ's batch rotations live here).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        use rayon::prelude::*;
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        let n = other.cols;
        let work = self.rows * self.cols * n;
        let body = |(i, orow): (usize, &mut [f32])| {
            let arow = self.row(i);
            for (k, &aik) in arow.iter().enumerate() {
                let brow = &other.data[k * n..(k + 1) * n];
                axpy(aik, brow, orow);
            }
        };
        if work >= 1 << 18 && self.rows >= 8 {
            out.data.par_chunks_mut(n).enumerate().for_each(body);
        } else {
            out.data.chunks_mut(n).enumerate().for_each(body);
        }
        out
    }

    /// Computes `self * otherᵀ` without materialising the transpose; each
    /// output element is a dot product of two rows, which is the natural
    /// layout for distance tables (`X · Cᵀ`).
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let arow = self.row(i);
            let orow = out.row_mut(i);
            for (j, o) in orow.iter_mut().enumerate() {
                *o = crate::distance::dot(arow, other.row(j));
            }
        }
        out
    }

    /// Computes `selfᵀ * other` without materialising the transpose.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        let n = other.cols;
        for k in 0..self.rows {
            let arow = self.row(k);
            let brow = other.row(k);
            for (i, &aki) in arow.iter().enumerate() {
                let orow = &mut out.data[i * n..(i + 1) * n];
                axpy(aki, brow, orow);
            }
        }
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a * b)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        let data = self.data.iter().map(|v| v * s).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Applies `f` element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&v| f(v)).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    fn zip_with(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place `self += other * s`.
    pub fn add_scaled_inplace(&mut self, other: &Matrix, s: f32) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * s;
        }
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|v| (*v as f64) * (*v as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Extracts the sub-matrix of columns `[c0, c1)`.
    pub fn slice_cols(&self, c0: usize, c1: usize) -> Matrix {
        assert!(c0 <= c1 && c1 <= self.cols, "column slice out of range");
        let w = c1 - c0;
        let mut out = Matrix::zeros(self.rows, w);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[c0..c1]);
        }
        out
    }

    /// Extracts the sub-matrix of rows `[r0, r1)`.
    pub fn slice_rows(&self, r0: usize, r1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "row slice out of range");
        Matrix {
            rows: r1 - r0,
            cols: self.cols,
            data: self.data[r0 * self.cols..r1 * self.cols].to_vec(),
        }
    }

    /// Gathers rows by index into a new matrix.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            assert!(
                src < self.rows,
                "gather index {src} out of range ({} rows)",
                self.rows
            );
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Concatenates matrices with equal row counts side by side.
    pub fn hstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hstack of nothing");
        let rows = parts[0].rows;
        let cols = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            let mut off = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "hstack row mismatch");
                out.row_mut(i)[off..off + p.cols].copy_from_slice(p.row(i));
                off += p.cols;
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        &mut self.data[i * self.cols + j]
    }
}

/// `y += a * x`, the kernel inside [`Matrix::matmul`].
#[inline]
fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    if a == 0.0 {
        return;
    }
    let chunks = x.len() / 4;
    let (xh, xt) = x.split_at(chunks * 4);
    let (yh, yt) = y.split_at_mut(chunks * 4);
    for (xc, yc) in xh.chunks_exact(4).zip(yh.chunks_exact_mut(4)) {
        yc[0] += a * xc[0];
        yc[1] += a * xc[1];
        yc[2] += a * xc[2];
        yc[3] += a * xc[3];
    }
    for (yv, xv) in yt.iter_mut().zip(xt) {
        *yv += a * xv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.rows == b.rows
            && a.cols == b.cols
            && a.data
                .iter()
                .zip(&b.data)
                .all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn matmul_identity() {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = Matrix::random_uniform(4, 4, 1.0, &mut rng);
        let i = Matrix::identity(4);
        assert!(approx_eq(&a.matmul(&i), &a, 1e-6));
        assert!(approx_eq(&i.matmul(&a), &a, 1e-6));
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[1.0], &[1.0]]);
        let c = a.matmul(&b);
        assert_eq!((c.rows, c.cols), (1, 1));
        assert_eq!(c.data[0], 3.0);
    }

    #[test]
    fn matmul_nt_matches_transpose() {
        let mut rng = SmallRng::seed_from_u64(2);
        let a = Matrix::random_uniform(3, 5, 1.0, &mut rng);
        let b = Matrix::random_uniform(4, 5, 1.0, &mut rng);
        assert!(approx_eq(&a.matmul_nt(&b), &a.matmul(&b.transpose()), 1e-5));
    }

    #[test]
    fn matmul_tn_matches_transpose() {
        let mut rng = SmallRng::seed_from_u64(3);
        let a = Matrix::random_uniform(5, 3, 1.0, &mut rng);
        let b = Matrix::random_uniform(5, 4, 1.0, &mut rng);
        assert!(approx_eq(&a.matmul_tn(&b), &a.transpose().matmul(&b), 1e-5));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = SmallRng::seed_from_u64(4);
        let a = Matrix::random_uniform(3, 7, 1.0, &mut rng);
        assert!(approx_eq(&a.transpose().transpose(), &a, 0.0));
    }

    #[test]
    fn slice_and_stack_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(5);
        let a = Matrix::random_uniform(4, 6, 1.0, &mut rng);
        let left = a.slice_cols(0, 3);
        let right = a.slice_cols(3, 6);
        assert!(approx_eq(&Matrix::hstack(&[&left, &right]), &a, 0.0));
        let top = a.slice_rows(0, 2);
        let bot = a.slice_rows(2, 4);
        assert_eq!([top.data, bot.data].concat(), a.data);
    }

    #[test]
    fn gather_rows_selects() {
        let a = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data, vec![2.0, 0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn random_normal_has_reasonable_moments() {
        let mut rng = SmallRng::seed_from_u64(7);
        let m = Matrix::random_normal(100, 100, 1.0, &mut rng);
        let mean: f32 = m.data.iter().sum::<f32>() / m.data.len() as f32;
        let var: f32 =
            m.data.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / m.data.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
