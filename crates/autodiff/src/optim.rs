//! Optimizers and learning-rate schedules.
//!
//! The paper trains with mini-batch Adam and a one-cycle learning-rate
//! schedule ("LR = 1e-3, decay rate = 0.2", §6). Parameters live *outside*
//! the tape as plain matrices; each training step rebuilds the tape, runs
//! backward, and feeds `(param, grad)` pairs to the optimizer.

use rpq_linalg::Matrix;

/// Moment decay rates and the denominator floor, at the values of Kingma &
/// Ba (2014), Alg. 1.
const BETA1: f32 = 0.9;
const BETA2: f32 = 0.999;
const EPS: f32 = 1e-8;

/// Adam optimizer (Kingma & Ba 2014), one slot of first/second-moment state
/// per parameter tensor.
pub struct Adam {
    lr: f32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    /// Per-parameter-slot multiplier on the learning rate (all 1 by
    /// default). Used to move global parameters (e.g. a rotation) more
    /// conservatively than local ones (codebooks).
    lr_scales: Vec<f32>,
    t: u64,
}

impl Adam {
    /// Creates the optimizer for a fixed set of parameter shapes (element
    /// counts). The order of `sizes` must match the order in which
    /// `(param, grad)` pairs are later passed to [`Adam::step`].
    pub fn new(lr: f32, sizes: &[usize]) -> Self {
        Self {
            lr,
            m: sizes.iter().map(|&s| vec![0.0; s]).collect(),
            v: sizes.iter().map(|&s| vec![0.0; s]).collect(),
            lr_scales: vec![1.0; sizes.len()],
            t: 0,
        }
    }

    /// Like [`Adam::new`] with a per-slot learning-rate multiplier.
    pub fn with_lr_scales(lr: f32, sizes: &[usize], scales: &[f32]) -> Self {
        assert_eq!(sizes.len(), scales.len(), "one scale per parameter slot");
        let mut adam = Self::new(lr, sizes);
        adam.lr_scales = scales.to_vec();
        adam
    }

    /// Overrides the learning rate (used by schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update. `updates` pairs each mutable parameter with its
    /// gradient; a `None` gradient (parameter unused this batch) is skipped
    /// but still consumes its moment slot.
    pub fn step(&mut self, updates: &mut [(&mut Matrix, Option<&Matrix>)]) {
        assert_eq!(
            updates.len(),
            self.m.len(),
            "Adam: parameter count mismatch"
        );
        self.t += 1;
        let b1t = 1.0 - BETA1.powi(self.t as i32);
        let b2t = 1.0 - BETA2.powi(self.t as i32);
        for (slot, (param, grad)) in updates.iter_mut().enumerate() {
            let Some(grad) = grad else { continue };
            let lr = self.lr * self.lr_scales[slot];
            assert_eq!(
                param.data.len(),
                grad.data.len(),
                "Adam: param/grad size mismatch in slot {slot}"
            );
            let m = &mut self.m[slot];
            let v = &mut self.v[slot];
            assert_eq!(
                m.len(),
                param.data.len(),
                "Adam: state size mismatch in slot {slot}"
            );
            for i in 0..param.data.len() {
                let g = grad.data[i];
                m[i] = BETA1 * m[i] + (1.0 - BETA1) * g;
                v[i] = BETA2 * v[i] + (1.0 - BETA2) * g * g;
                let mhat = m[i] / b1t;
                let vhat = v[i] / b2t;
                param.data[i] -= lr * mhat / (vhat.sqrt() + EPS);
            }
        }
    }
}

/// One-cycle learning rate (Smith 2018): linear warm-up to `max_lr` for the
/// first `pct_start` of training, then cosine annealing down to
/// `max_lr * final_decay`.
#[derive(Clone, Copy, Debug)]
pub struct OneCycleLr {
    pub max_lr: f32,
    pub total_steps: usize,
    pub pct_start: f32,
    /// LR at step 0 is `max_lr / div_factor`.
    pub div_factor: f32,
    /// Final LR is `max_lr * final_decay` (paper: decay rate 0.2).
    pub final_decay: f32,
}

impl OneCycleLr {
    /// Schedule with the paper's hyper-parameters: max LR 1e-3, final decay
    /// 0.2, 30% warm-up.
    pub fn paper_defaults(total_steps: usize) -> Self {
        Self {
            max_lr: 1e-3,
            total_steps: total_steps.max(1),
            pct_start: 0.3,
            div_factor: 10.0,
            final_decay: 0.2,
        }
    }

    /// The learning rate at `step` (clamped to the last step).
    pub fn lr_at(&self, step: usize) -> f32 {
        let total = self.total_steps.max(1);
        let step = step.min(total - 1);
        let warm = ((total as f32) * self.pct_start).max(1.0);
        if (step as f32) < warm {
            let frac = step as f32 / warm;
            let lo = self.max_lr / self.div_factor;
            lo + frac * (self.max_lr - lo)
        } else {
            let span = (total as f32 - warm).max(1.0);
            let frac = (step as f32 - warm) / span;
            let lo = self.max_lr * self.final_decay;
            lo + 0.5 * (self.max_lr - lo) * (1.0 + (std::f32::consts::PI * frac).cos())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimises_quadratic() {
        // minimise f(x) = ||x - target||^2
        let target = Matrix::from_rows(&[&[3.0, -2.0, 0.5]]);
        let mut x = Matrix::zeros(1, 3);
        let mut adam = Adam::new(0.1, &[3]);
        for _ in 0..400 {
            let grad = x.sub(&target).scale(2.0);
            adam.step(&mut [(&mut x, Some(&grad))]);
        }
        for (a, b) in x.data.iter().zip(&target.data) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn adam_skips_missing_grads() {
        let mut x = Matrix::from_rows(&[&[1.0]]);
        let mut adam = Adam::new(1e-3, &[1]);
        adam.step(&mut [(&mut x, None)]);
        assert_eq!(x.data[0], 1.0);
    }

    #[test]
    fn one_cycle_shape() {
        let sched = OneCycleLr::paper_defaults(100);
        let start = sched.lr_at(0);
        let peak = sched.lr_at(30);
        let end = sched.lr_at(99);
        assert!(start < peak, "warm-up should increase: {start} vs {peak}");
        assert!(
            (peak - 1e-3).abs() < 1e-4,
            "peak should be max_lr, got {peak}"
        );
        assert!(end < peak, "should anneal down");
        assert!(end >= 1e-3 * 0.2 - 1e-6, "end {end} not below final floor");
    }

    #[test]
    fn one_cycle_handles_tiny_totals() {
        let sched = OneCycleLr::paper_defaults(1);
        assert!(sched.lr_at(0).is_finite());
        assert!(sched.lr_at(5).is_finite());
    }
}
