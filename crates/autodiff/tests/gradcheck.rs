//! Finite-difference gradient checks for every differentiable op.
//!
//! Strategy: for each op, build a scalar loss `L(θ)` through the op, compute
//! the analytic gradient with the tape, then compare against central
//! differences `(L(θ+h) − L(θ−h)) / 2h` element by element.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rpq_autodiff::{Tape, Var};
use rpq_linalg::Matrix;

/// Builds a loss from a single parameter matrix and returns (loss value,
/// analytic gradient).
fn analytic(param: &Matrix, build: &dyn Fn(&mut Tape, Var) -> Var) -> (f32, Matrix) {
    let mut t = Tape::new();
    let p = t.param(param.clone());
    let loss = build(&mut t, p);
    let lv = t.value(loss)[(0, 0)];
    let grads = t.backward(loss);
    let g = grads
        .get(p)
        .expect("parameter must receive a gradient")
        .clone();
    (lv, g)
}

fn loss_value(param: &Matrix, build: &dyn Fn(&mut Tape, Var) -> Var) -> f32 {
    let mut t = Tape::new();
    let p = t.param(param.clone());
    let loss = build(&mut t, p);
    t.value(loss)[(0, 0)]
}

/// Central-difference gradient check with mixed absolute/relative tolerance.
fn grad_check(param: &Matrix, build: &dyn Fn(&mut Tape, Var) -> Var, h: f32, tol: f32) {
    let (_, g) = analytic(param, build);
    let mut perturbed = param.clone();
    for i in 0..param.data.len() {
        let orig = perturbed.data[i];
        perturbed.data[i] = orig + h;
        let lp = loss_value(&perturbed, build);
        perturbed.data[i] = orig - h;
        let lm = loss_value(&perturbed, build);
        perturbed.data[i] = orig;
        let fd = (lp - lm) / (2.0 * h);
        let an = g.data[i];
        let scale = an.abs().max(fd.abs()).max(1.0);
        assert!(
            (an - fd).abs() <= tol * scale,
            "grad mismatch at {i}: analytic {an}, finite-diff {fd}"
        );
    }
}

fn rng() -> SmallRng {
    SmallRng::seed_from_u64(0xC0FFEE)
}

#[test]
fn grad_add_sub_mul_chain() {
    let mut r = rng();
    let p = Matrix::random_uniform(3, 4, 1.0, &mut r);
    let c = Matrix::random_uniform(3, 4, 1.0, &mut r);
    grad_check(
        &p,
        &move |t, x| {
            let k = t.constant(c.clone());
            let a = t.add(x, k);
            let s = t.sub(a, x);
            let m = t.mul(s, x);
            t.sum_all(m)
        },
        1e-3,
        1e-2,
    );
}

#[test]
fn grad_matmul_both_sides() {
    let mut r = rng();
    let p = Matrix::random_uniform(3, 3, 1.0, &mut r);
    let c = Matrix::random_uniform(3, 3, 1.0, &mut r);
    let c2 = c.clone();
    // Left operand.
    grad_check(
        &p,
        &move |t, x| {
            let k = t.constant(c.clone());
            let y = t.matmul(x, k);
            let sq = t.square(y);
            t.sum_all(sq)
        },
        1e-3,
        1e-2,
    );
    // Right operand.
    grad_check(
        &p,
        &move |t, x| {
            let k = t.constant(c2.clone());
            let y = t.matmul(k, x);
            let sq = t.square(y);
            t.sum_all(sq)
        },
        1e-3,
        1e-2,
    );
}

#[test]
fn grad_transpose() {
    let mut r = rng();
    let p = Matrix::random_uniform(2, 5, 1.0, &mut r);
    grad_check(
        &p,
        &|t, x| {
            let xt = t.transpose(x);
            let y = t.matmul(x, xt);
            t.sum_all(y)
        },
        1e-3,
        1e-2,
    );
}

#[test]
fn grad_exp() {
    let mut r = rng();
    let p = Matrix::random_uniform(2, 3, 0.5, &mut r).map(|v| v + 1.5);
    grad_check(
        &p,
        &|t, x| {
            let e = t.exp(x);
            let m = t.mul(e, x);
            t.sum_all(m)
        },
        1e-3,
        1e-2,
    );
}

#[test]
fn grad_relu() {
    // Values away from the kink.
    let p = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[-0.7, 3.0, -1.1]]);
    grad_check(
        &p,
        &|t, x| {
            let y = t.relu(x);
            let sq = t.square(y);
            t.sum_all(sq)
        },
        1e-4,
        1e-2,
    );
}

#[test]
fn grad_row_softmax() {
    let mut r = rng();
    let p = Matrix::random_uniform(3, 5, 2.0, &mut r);
    let w = Matrix::random_uniform(3, 5, 1.0, &mut r);
    grad_check(
        &p,
        &move |t, x| {
            let sm = t.row_softmax(x);
            let k = t.constant(w.clone());
            let weighted = t.mul(sm, k);
            t.sum_all(weighted)
        },
        1e-3,
        2e-2,
    );
}

#[test]
fn grad_row_logsumexp() {
    let mut r = rng();
    let p = Matrix::random_uniform(4, 3, 2.0, &mut r);
    grad_check(
        &p,
        &|t, x| {
            let lse = t.row_logsumexp(x);
            let sq = t.square(lse);
            t.sum_all(sq)
        },
        1e-3,
        1e-2,
    );
}

#[test]
fn grad_sum_and_mean() {
    let mut r = rng();
    let p = Matrix::random_uniform(3, 3, 1.0, &mut r);
    grad_check(
        &p,
        &|t, x| {
            let sc = t.sum_cols(x);
            let sq = t.square(sc);
            t.mean_all(sq)
        },
        1e-3,
        1e-2,
    );
}

#[test]
fn grad_broadcasts() {
    let mut r = rng();
    let p = Matrix::random_uniform(3, 1, 1.0, &mut r);
    let base = Matrix::random_uniform(3, 4, 1.0, &mut r);
    grad_check(
        &p,
        &move |t, x| {
            let b = t.constant(base.clone());
            let y = t.add_col_broadcast(b, x);
            let sq = t.square(y);
            t.sum_all(sq)
        },
        1e-3,
        1e-2,
    );
    let mut r = rng();
    let p_row = Matrix::random_uniform(1, 4, 1.0, &mut r);
    let base2 = Matrix::random_uniform(3, 4, 1.0, &mut r);
    grad_check(
        &p_row,
        &move |t, x| {
            let b = t.constant(base2.clone());
            let y = t.add_row_broadcast(b, x);
            let sq = t.square(y);
            t.sum_all(sq)
        },
        1e-3,
        1e-2,
    );
}

#[test]
fn grad_slice_concat_reshape() {
    let mut r = rng();
    let p = Matrix::random_uniform(4, 6, 1.0, &mut r);
    grad_check(
        &p,
        &|t, x| {
            let left = t.slice_cols(x, 0, 3);
            let right = t.slice_cols(x, 3, 6);
            let back = t.concat_cols(&[&right, &left].map(|v| *v));
            let top = t.slice_rows(back, 0, 2);
            let bot = t.slice_rows(back, 2, 4);
            let flat_bot = t.reshape(bot, 1, 12);
            let flat_top = t.reshape(top, 1, 12);
            let m = t.mul(flat_bot, flat_top);
            t.sum_all(m)
        },
        1e-3,
        1e-2,
    );
}

#[test]
fn grad_gather_and_select() {
    let mut r = rng();
    let p = Matrix::random_uniform(5, 3, 1.0, &mut r);
    grad_check(
        &p,
        &|t, x| {
            let g = t.gather_rows(x, &[0, 2, 2, 4]);
            let sel = t.select_per_row(g, &[1, 0, 2, 1]);
            let sq = t.square(sel);
            t.sum_all(sq)
        },
        1e-3,
        1e-2,
    );
}

#[test]
fn grad_pairwise_sq_dist() {
    let mut r = rng();
    let p = Matrix::random_uniform(4, 3, 1.0, &mut r);
    let c = Matrix::random_uniform(5, 3, 1.0, &mut r);
    // Gradient w.r.t. the query side.
    let c2 = c.clone();
    grad_check(
        &p,
        &move |t, x| {
            let cb = t.constant(c.clone());
            let d = t.pairwise_sq_dist(x, cb);
            t.sum_all(d)
        },
        1e-3,
        2e-2,
    );
    // Gradient w.r.t. the codebook side.
    grad_check(
        &p,
        &move |t, cvar| {
            let xc = t.constant(c2.clone());
            let d = t.pairwise_sq_dist(xc, cvar);
            let sq = t.square(d);
            t.sum_all(sq)
        },
        1e-3,
        2e-2,
    );
}

#[test]
fn pairwise_sq_dist_matches_direct() {
    let mut r = rng();
    let x = Matrix::random_uniform(4, 6, 1.0, &mut r);
    let c = Matrix::random_uniform(3, 6, 1.0, &mut r);
    let mut t = Tape::new();
    let xv = t.constant(x.clone());
    let cv = t.constant(c.clone());
    let d = t.pairwise_sq_dist(xv, cv);
    let dv = t.value(d);
    for i in 0..4 {
        for j in 0..3 {
            let expect = rpq_linalg::distance::sq_l2(x.row(i), c.row(j));
            assert!(
                (dv[(i, j)] - expect).abs() < 1e-3,
                "{} vs {expect}",
                dv[(i, j)]
            );
        }
    }
}

#[test]
fn gumbel_softmax_rows_sum_to_one() {
    /// The top of the uniform stream: the draw that used to round to
    /// `u = 1.0` and turn the Gumbel noise into `+inf`.
    struct Max;
    impl rand::RngCore for Max {
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }
    let mut r = rng();
    let init = Matrix::random_uniform(6, 8, 2.0, &mut r);
    let noise_sources: [&mut dyn rand::RngCore; 2] = [&mut r, &mut Max];
    for noise in noise_sources {
        let mut t = Tape::new();
        let logits = t.param(init.clone());
        let y = t.gumbel_softmax(logits, 0.5, noise);
        let v = t.value(y);
        for i in 0..v.rows {
            let s: f32 = v.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row {i} sums to {s}");
            assert!(v.row(i).iter().all(|&p| p >= 0.0));
        }
        // And the whole thing is differentiable end to end.
        let sq = t.square(y);
        let loss = t.sum_all(sq);
        let grads = t.backward(loss);
        assert!(grads.get(logits).is_some());
    }
}

#[test]
fn constants_receive_no_gradient() {
    let mut t = Tape::new();
    let c = t.constant(Matrix::from_rows(&[&[1.0, 2.0]]));
    let p = t.param(Matrix::from_rows(&[&[3.0, 4.0]]));
    let y = t.mul(c, p);
    let loss = t.sum_all(y);
    let grads = t.backward(loss);
    assert!(grads.get(c).is_none());
    assert_eq!(grads.get(p).unwrap().data, vec![1.0, 2.0]);
}

#[test]
fn fan_out_accumulates() {
    // x used twice: d/dx (x·x + x·x) summed = 4x
    let mut t = Tape::new();
    let p = t.param(Matrix::from_rows(&[&[2.0]]));
    let a = t.mul(p, p);
    let b = t.mul(p, p);
    let s = t.add(a, b);
    let loss = t.sum_all(s);
    let grads = t.backward(loss);
    assert_eq!(grads.get(p).unwrap().data, vec![8.0]);
}

#[test]
#[should_panic(expected = "backward requires a scalar")]
fn backward_rejects_non_scalar() {
    let mut t = Tape::new();
    let p = t.param(Matrix::zeros(2, 2));
    let y = t.square(p);
    let _ = t.backward(y);
}
