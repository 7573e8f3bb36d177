//! Differentiable operations: forward construction methods on [`Tape`] and
//! the reverse-mode rules for each op.
//!
//! Conventions:
//! * every op validates shapes eagerly with a panic message naming the op,
//! * backward receives the node's own index (so it can read its cached
//!   output, e.g. softmax) and a sink that accumulates per-input gradients.

use rand::Rng;
use rpq_linalg::Matrix;

use crate::tape::{Tape, Var};

#[allow(dead_code)] // scalar payloads kept for tape debugging/introspection
pub(crate) enum Op {
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var, f32),
    Neg(Var),
    MatMul(Var, Var),
    Transpose(Var),
    Exp(Var),
    Relu(Var),
    Square(Var),
    RowSoftmax(Var),
    RowLogSumExp(Var),
    SumCols(Var),
    SumAll(Var),
    MeanAll(Var),
    AddColBroadcast(Var, Var),
    AddRowBroadcast(Var, Var),
    SliceCols(Var, usize, usize),
    SliceRows(Var, usize, usize),
    ConcatCols(Vec<Var>),
    Reshape(Var),
    GatherRows(Var, Vec<usize>),
    SelectPerRow(Var, Vec<usize>),
}

impl Op {
    /// Propagates the upstream gradient `g` of node `idx` to its inputs via
    /// `sink(input, contribution)`.
    pub(crate) fn backward(
        &self,
        tape: &Tape,
        idx: usize,
        g: &Matrix,
        sink: &mut dyn FnMut(Var, Matrix),
    ) {
        match self {
            Op::Leaf => {}
            Op::Add(a, b) => {
                sink(*a, g.clone());
                sink(*b, g.clone());
            }
            Op::Sub(a, b) => {
                sink(*a, g.clone());
                sink(*b, g.scale(-1.0));
            }
            Op::Mul(a, b) => {
                sink(*a, g.hadamard(tape.value(*b)));
                sink(*b, g.hadamard(tape.value(*a)));
            }
            Op::Scale(a, s) => sink(*a, g.scale(*s)),
            Op::AddScalar(a, _) => sink(*a, g.clone()),
            Op::Neg(a) => sink(*a, g.scale(-1.0)),
            Op::MatMul(a, b) => {
                // C = A B  =>  Ā = Ḡ Bᵀ,  B̄ = Aᵀ Ḡ
                sink(*a, g.matmul_nt(tape.value(*b)));
                sink(*b, tape.value(*a).matmul_tn(g));
            }
            Op::Transpose(a) => sink(*a, g.transpose()),
            Op::Exp(a) => sink(*a, g.hadamard(&tape.nodes[idx].value)),
            Op::Relu(a) => {
                let x = tape.value(*a);
                sink(*a, g.hadamard(&x.map(|v| if v > 0.0 { 1.0 } else { 0.0 })));
            }
            Op::Square(a) => {
                let x = tape.value(*a);
                sink(*a, g.hadamard(&x.scale(2.0)));
            }
            Op::RowSoftmax(a) => {
                // y = softmax(x) rowwise; x̄ = y ⊙ (ḡ − rowsum(ḡ ⊙ y))
                let y = &tape.nodes[idx].value;
                let mut out = Matrix::zeros(y.rows, y.cols);
                for i in 0..y.rows {
                    let yr = y.row(i);
                    let gr = g.row(i);
                    let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
                    for (o, (yv, gv)) in out.row_mut(i).iter_mut().zip(yr.iter().zip(gr)) {
                        *o = yv * (gv - dot);
                    }
                }
                sink(*a, out);
            }
            Op::RowLogSumExp(a) => {
                // out[i] = lse(x[i,:]); x̄[i,j] = ḡ[i] · softmax(x)[i,j]
                let x = tape.value(*a);
                let mut out = Matrix::zeros(x.rows, x.cols);
                for i in 0..x.rows {
                    let row = x.row(i);
                    let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let denom: f32 = row.iter().map(|v| (v - m).exp()).sum();
                    let gi = g[(i, 0)];
                    for (o, v) in out.row_mut(i).iter_mut().zip(row) {
                        *o = gi * (v - m).exp() / denom;
                    }
                }
                sink(*a, out);
            }
            Op::SumCols(a) => {
                let x = tape.value(*a);
                let mut out = Matrix::zeros(x.rows, x.cols);
                for i in 0..x.rows {
                    let gi = g[(i, 0)];
                    for o in out.row_mut(i) {
                        *o = gi;
                    }
                }
                sink(*a, out);
            }
            Op::SumAll(a) => {
                let x = tape.value(*a);
                sink(*a, Matrix::full(x.rows, x.cols, g[(0, 0)]));
            }
            Op::MeanAll(a) => {
                let x = tape.value(*a);
                let n = (x.rows * x.cols) as f32;
                sink(*a, Matrix::full(x.rows, x.cols, g[(0, 0)] / n));
            }
            Op::AddColBroadcast(a, b) => {
                sink(*a, g.clone());
                let mut gb = Matrix::zeros(g.rows, 1);
                for i in 0..g.rows {
                    gb[(i, 0)] = g.row(i).iter().sum();
                }
                sink(*b, gb);
            }
            Op::AddRowBroadcast(a, b) => {
                sink(*a, g.clone());
                let mut gb = Matrix::zeros(1, g.cols);
                for i in 0..g.rows {
                    for (o, v) in gb.row_mut(0).iter_mut().zip(g.row(i)) {
                        *o += v;
                    }
                }
                sink(*b, gb);
            }
            Op::SliceCols(a, c0, _c1) => {
                let x = tape.value(*a);
                let mut out = Matrix::zeros(x.rows, x.cols);
                for i in 0..g.rows {
                    out.row_mut(i)[*c0..*c0 + g.cols].copy_from_slice(g.row(i));
                }
                sink(*a, out);
            }
            Op::SliceRows(a, r0, _r1) => {
                let x = tape.value(*a);
                let mut out = Matrix::zeros(x.rows, x.cols);
                for i in 0..g.rows {
                    out.row_mut(r0 + i).copy_from_slice(g.row(i));
                }
                sink(*a, out);
            }
            Op::ConcatCols(parts) => {
                let mut off = 0;
                for p in parts {
                    let w = tape.value(*p).cols;
                    sink(*p, g.slice_cols(off, off + w));
                    off += w;
                }
            }
            Op::Reshape(a) => {
                let x = tape.value(*a);
                sink(*a, Matrix::from_vec(x.rows, x.cols, g.data.clone()));
            }
            Op::GatherRows(a, indices) => {
                let x = tape.value(*a);
                let mut out = Matrix::zeros(x.rows, x.cols);
                for (src, &dst) in indices.iter().enumerate() {
                    for (o, v) in out.row_mut(dst).iter_mut().zip(g.row(src)) {
                        *o += v;
                    }
                }
                sink(*a, out);
            }
            Op::SelectPerRow(a, indices) => {
                let x = tape.value(*a);
                let mut out = Matrix::zeros(x.rows, x.cols);
                for (i, &j) in indices.iter().enumerate() {
                    out[(i, j)] += g[(i, 0)];
                }
                sink(*a, out);
            }
        }
    }
}

impl Tape {
    fn same_shape(&self, a: Var, b: Var, op: &str) {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(
            (va.rows, va.cols),
            (vb.rows, vb.cols),
            "{op}: shape mismatch {}x{} vs {}x{}",
            va.rows,
            va.cols,
            vb.rows,
            vb.cols
        );
    }

    /// Element-wise `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.same_shape(a, b, "add");
        let v = self.value(a).add(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Add(a, b), ng)
    }

    /// Element-wise `a − b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.same_shape(a, b, "sub");
        let v = self.value(a).sub(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Sub(a, b), ng)
    }

    /// Element-wise (Hadamard) `a ⊙ b`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.same_shape(a, b, "mul");
        let v = self.value(a).hadamard(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Mul(a, b), ng)
    }

    /// Scalar multiple `a * s`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).scale(s);
        let ng = self.needs(a);
        self.push(v, Op::Scale(a, s), ng)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).map(|x| x + s);
        let ng = self.needs(a);
        self.push(v, Op::AddScalar(a, s), ng)
    }

    /// Negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = self.value(a).scale(-1.0);
        let ng = self.needs(a);
        self.push(v, Op::Neg(a), ng)
    }

    /// Matrix product `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::MatMul(a, b), ng)
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        let ng = self.needs(a);
        self.push(v, Op::Transpose(a), ng)
    }

    /// Element-wise `exp`.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::exp);
        let ng = self.needs(a);
        self.push(v, Op::Exp(a), ng)
    }

    /// Element-wise `max(0, x)`.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0));
        let ng = self.needs(a);
        self.push(v, Op::Relu(a), ng)
    }

    /// Element-wise square.
    pub fn square(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x * x);
        let ng = self.needs(a);
        self.push(v, Op::Square(a), ng)
    }

    /// Row-wise softmax (numerically stabilised).
    pub fn row_softmax(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let mut v = Matrix::zeros(x.rows, x.cols);
        for i in 0..x.rows {
            let row = x.row(i);
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for (o, &xv) in v.row_mut(i).iter_mut().zip(row) {
                *o = (xv - m).exp();
                denom += *o;
            }
            let inv = 1.0 / denom;
            for o in v.row_mut(i) {
                *o *= inv;
            }
        }
        let ng = self.needs(a);
        self.push(v, Op::RowSoftmax(a), ng)
    }

    /// Row-wise log-sum-exp, producing an `r×1` column.
    pub fn row_logsumexp(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let mut v = Matrix::zeros(x.rows, 1);
        for i in 0..x.rows {
            let row = x.row(i);
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let s: f32 = row.iter().map(|&xv| (xv - m).exp()).sum();
            v[(i, 0)] = m + s.ln();
        }
        let ng = self.needs(a);
        self.push(v, Op::RowLogSumExp(a), ng)
    }

    /// Sums each row, producing an `r×1` column.
    pub fn sum_cols(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let mut v = Matrix::zeros(x.rows, 1);
        for i in 0..x.rows {
            v[(i, 0)] = x.row(i).iter().sum();
        }
        let ng = self.needs(a);
        self.push(v, Op::SumCols(a), ng)
    }

    /// Sums all elements into a 1×1 scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let s: f32 = x.data.iter().sum();
        let ng = self.needs(a);
        self.push(Matrix::from_vec(1, 1, vec![s]), Op::SumAll(a), ng)
    }

    /// Mean of all elements into a 1×1 scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let s: f32 = x.data.iter().sum::<f32>() / (x.rows * x.cols) as f32;
        let ng = self.needs(a);
        self.push(Matrix::from_vec(1, 1, vec![s]), Op::MeanAll(a), ng)
    }

    /// Broadcast add of an `r×1` column `b` to each column of `a` (`r×c`).
    pub fn add_col_broadcast(&mut self, a: Var, b: Var) -> Var {
        let (x, y) = (self.value(a), self.value(b));
        assert_eq!(y.cols, 1, "add_col_broadcast: b must be a column");
        assert_eq!(x.rows, y.rows, "add_col_broadcast: row mismatch");
        let mut v = x.clone();
        for i in 0..v.rows {
            let bi = y[(i, 0)];
            for o in v.row_mut(i) {
                *o += bi;
            }
        }
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::AddColBroadcast(a, b), ng)
    }

    /// Broadcast add of a `1×c` row `b` to each row of `a` (`r×c`).
    pub fn add_row_broadcast(&mut self, a: Var, b: Var) -> Var {
        let (x, y) = (self.value(a), self.value(b));
        assert_eq!(y.rows, 1, "add_row_broadcast: b must be a row");
        assert_eq!(x.cols, y.cols, "add_row_broadcast: col mismatch");
        let mut v = x.clone();
        for i in 0..v.rows {
            for (o, bv) in v.row_mut(i).iter_mut().zip(y.row(0)) {
                *o += bv;
            }
        }
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::AddRowBroadcast(a, b), ng)
    }

    /// Column slice `[c0, c1)`.
    pub fn slice_cols(&mut self, a: Var, c0: usize, c1: usize) -> Var {
        let v = self.value(a).slice_cols(c0, c1);
        let ng = self.needs(a);
        self.push(v, Op::SliceCols(a, c0, c1), ng)
    }

    /// Row slice `[r0, r1)`.
    pub fn slice_rows(&mut self, a: Var, r0: usize, r1: usize) -> Var {
        let v = self.value(a).slice_rows(r0, r1);
        let ng = self.needs(a);
        self.push(v, Op::SliceRows(a, r0, r1), ng)
    }

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let values: Vec<&Matrix> = parts.iter().map(|p| self.value(*p)).collect();
        let v = Matrix::hstack(&values);
        let ng = parts.iter().any(|p| self.needs(*p));
        self.push(v, Op::ConcatCols(parts.to_vec()), ng)
    }

    /// Reshapes to `rows×cols` (element count must match; row-major order
    /// preserved).
    pub fn reshape(&mut self, a: Var, rows: usize, cols: usize) -> Var {
        let x = self.value(a);
        assert_eq!(
            x.rows * x.cols,
            rows * cols,
            "reshape: element count mismatch"
        );
        let v = Matrix::from_vec(rows, cols, x.data.clone());
        let ng = self.needs(a);
        self.push(v, Op::Reshape(a), ng)
    }

    /// Gathers rows of `a` by index (duplicates allowed; backward scatters
    /// with accumulation).
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let v = self.value(a).gather_rows(indices);
        let ng = self.needs(a);
        self.push(v, Op::GatherRows(a, indices.to_vec()), ng)
    }

    /// Selects one element per row: output `r×1` with `out[i] = a[i, idx[i]]`.
    pub fn select_per_row(&mut self, a: Var, indices: &[usize]) -> Var {
        let x = self.value(a);
        assert_eq!(
            indices.len(),
            x.rows,
            "select_per_row: index count must equal rows"
        );
        let mut v = Matrix::zeros(x.rows, 1);
        for (i, &j) in indices.iter().enumerate() {
            assert!(j < x.cols, "select_per_row: column index {j} out of range");
            v[(i, 0)] = x[(i, j)];
        }
        let ng = self.needs(a);
        self.push(v, Op::SelectPerRow(a, indices.to_vec()), ng)
    }

    // ---- composites -------------------------------------------------------

    /// Squared norm of each row, as an `r×1` column.
    pub fn row_sq_norm(&mut self, a: Var) -> Var {
        let sq = self.square(a);
        self.sum_cols(sq)
    }

    /// All-pairs squared Euclidean distances between the rows of `x` (`n×d`)
    /// and the rows of `c` (`k×d`), as an `n×k` matrix:
    /// `‖x‖² − 2 x·cᵀ + ‖c‖²`.
    pub fn pairwise_sq_dist(&mut self, x: Var, c: Var) -> Var {
        let xc_t = self.transpose(c);
        let cross = self.matmul(x, xc_t);
        let m2 = self.scale(cross, -2.0);
        let xn = self.row_sq_norm(x);
        let with_x = self.add_col_broadcast(m2, xn);
        let cn = self.row_sq_norm(c);
        let cn_row = self.transpose(cn);
        self.add_row_broadcast(with_x, cn_row)
    }

    /// Gumbel-Softmax over rows: `softmax((logits + gumbel_noise) / τ)`
    /// (Jang et al. 2016; paper Eq. 7). The noise is sampled here and enters
    /// the tape as a constant, so gradients flow only through `logits`.
    pub fn gumbel_softmax<R: Rng + ?Sized>(&mut self, logits: Var, tau: f32, rng: &mut R) -> Var {
        assert!(tau > 0.0, "gumbel_softmax: temperature must be positive");
        let l = self.value(logits);
        let noise = Matrix::from_vec(
            l.rows,
            l.cols,
            (0..l.rows * l.cols)
                .map(|_| {
                    let u: f32 = rng.gen_range(f32::EPSILON..1.0);
                    -(-(u.ln())).ln()
                })
                .collect(),
        );
        let z = self.constant(noise);
        let shifted = self.add(logits, z);
        let scaled = self.scale(shifted, 1.0 / tau);
        self.row_softmax(scaled)
    }
}
