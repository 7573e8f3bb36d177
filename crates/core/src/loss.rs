//! The feature-aware losses (paper §6).
//!
//! * [`neighborhood_loss`] — triplet margin loss in quantized space
//!   (Eq. 8): pull `⟨x'_v, x'_{v+}⟩` together, push `⟨x'_v, x'_{v−}⟩`
//!   apart.
//! * [`routing_loss`] — listwise next-hop log-likelihood (Eq. 9–10): at
//!   every recorded decision, maximise the probability (softmax over the
//!   candidate set, ADC distances, temperature τ) of selecting the truly
//!   closest candidate.
//! * [`combine`] — Eq. 11's combination. A raw learnable positive
//!   multiplier on a non-negative loss collapses to zero, so "learnable α"
//!   is realised as homoscedastic uncertainty weighting (Kendall & Gal;
//!   DESIGN.md §4).

use rand::Rng;
use rpq_autodiff::{Tape, Var};
use rpq_data::Dataset;
use rpq_linalg::Matrix;

use crate::features::{RoutingFeature, Triplet};
use crate::quantizer::{DiffQuantizer, QuantizerVars};

/// Builds the neighborhood triplet loss (Eq. 8) for a batch of triplets.
/// Quantizes `[anchors; positives; negatives]` in one pass and returns the
/// mean hinge `max(0, σ + δ(x'_v, x'_{v+}) − δ(x'_v, x'_{v−}))`.
#[allow(clippy::too_many_arguments)]
pub fn neighborhood_loss<R: Rng + ?Sized>(
    t: &mut Tape,
    dq: &DiffQuantizer,
    vars: &QuantizerVars,
    data: &Dataset,
    triplets: &[Triplet],
    sigma: f32,
    tau_gumbel: f32,
    rng: &mut R,
) -> Var {
    assert!(
        !triplets.is_empty(),
        "neighborhood loss needs at least one triplet"
    );
    let b = triplets.len();
    let d = data.dim();
    let mut rows = Vec::with_capacity(3 * b * d);
    for tr in triplets {
        rows.extend_from_slice(data.get(tr.anchor as usize));
    }
    for tr in triplets {
        rows.extend_from_slice(data.get(tr.pos as usize));
    }
    for tr in triplets {
        rows.extend_from_slice(data.get(tr.neg as usize));
    }
    let x = t.constant(Matrix::from_vec(3 * b, d, rows));
    let xq = dq.quantize(t, vars, x, tau_gumbel, rng);
    let a = t.slice_rows(xq, 0, b);
    let p = t.slice_rows(xq, b, 2 * b);
    let n = t.slice_rows(xq, 2 * b, 3 * b);
    let ap = t.sub(a, p);
    let d_ap = t.row_sq_norm(ap);
    let an = t.sub(a, n);
    let d_an = t.row_sq_norm(an);
    // Scale-free margin: distances are normalised by their batch mean
    // (stop-gradient), so σ is a relative margin and the hinge gradient
    // magnitude is dataset-independent.
    let norm = 0.5
        * (crate::quantizer::batch_mean(t.value(d_ap))
            + crate::quantizer::batch_mean(t.value(d_an)));
    let gap = t.sub(d_ap, d_an);
    let gap = t.scale(gap, 1.0 / norm);
    let shifted = t.add_scalar(gap, sigma);
    let hinge = t.relu(shifted);
    t.mean_all(hinge)
}

/// Builds the routing loss (Eq. 9–10) for a batch of recorded decisions.
///
/// All candidates are quantized (differentiably); queries are only rotated
/// (ADC: the query stays unquantized). Per decision, the negative
/// log-likelihood of the correct candidate under
/// `softmax(−δ(x'_c, q)/τ)` is averaged.
#[allow(clippy::too_many_arguments)]
pub fn routing_loss<R: Rng + ?Sized>(
    t: &mut Tape,
    dq: &DiffQuantizer,
    vars: &QuantizerVars,
    data: &Dataset,
    decisions: &[RoutingFeature],
    tau_route: f32,
    tau_gumbel: f32,
    rng: &mut R,
) -> Var {
    assert!(
        !decisions.is_empty(),
        "routing loss needs at least one decision"
    );
    let b = decisions.len();
    let h = decisions[0].candidates.len();
    assert!(h >= 2, "decisions must have at least two candidates");
    let d = data.dim();

    let mut cand_rows = Vec::with_capacity(b * h * d);
    let mut query_rows = Vec::with_capacity(b * d);
    let mut best = Vec::with_capacity(b);
    let mut rep_idx = Vec::with_capacity(b * h);
    for (i, dec) in decisions.iter().enumerate() {
        assert_eq!(dec.candidates.len(), h, "ragged decision batch");
        assert!(dec.best < h, "best index out of range");
        for &c in &dec.candidates {
            cand_rows.extend_from_slice(data.get(c as usize));
            rep_idx.push(i);
        }
        query_rows.extend_from_slice(data.get(dec.query as usize));
        best.push(dec.best);
    }

    let cands = t.constant(Matrix::from_vec(b * h, d, cand_rows));
    let xq = dq.quantize(t, vars, cands, tau_gumbel, rng);
    let queries = t.constant(Matrix::from_vec(b, d, query_rows));
    let qr = dq.rotate(t, vars, queries);
    let qrep = t.gather_rows(qr, &rep_idx);
    let diff = t.sub(xq, qrep);
    let dists = t.row_sq_norm(diff);
    let per_decision = t.reshape(dists, b, h);
    // Scale-free temperature (see neighborhood_loss): candidate distances
    // are normalised by their batch mean before the softmax.
    let norm = crate::quantizer::batch_mean(t.value(per_decision));
    let logits = t.scale(per_decision, -1.0 / (tau_route * norm));
    let lse = t.row_logsumexp(logits);
    let correct = t.select_per_row(logits, &best);
    let nll = t.sub(lse, correct);
    t.mean_all(nll)
}

/// Reconstruction anchor: mean squared distortion of the differentiable
/// quantization, normalised by the batch's mean squared norm (scale-free).
///
/// The ranking losses (Eq. 8–10) are invariant to drifting the whole
/// quantized space away from the data manifold; this term realises the
/// paper's problem objective (Eq. 2: quantized vectors close to queries in
/// *absolute* distance) and keeps codebooks faithful while the feature
/// losses reshape their fine structure.
pub fn reconstruction_loss<R: Rng + ?Sized>(
    t: &mut Tape,
    dq: &DiffQuantizer,
    vars: &QuantizerVars,
    data: &Dataset,
    ids: &[u32],
    tau_gumbel: f32,
    rng: &mut R,
) -> Var {
    assert!(
        !ids.is_empty(),
        "reconstruction loss needs at least one vector"
    );
    let d = data.dim();
    let mut rows = Vec::with_capacity(ids.len() * d);
    for &i in ids {
        rows.extend_from_slice(data.get(i as usize));
    }
    let x = t.constant(Matrix::from_vec(ids.len(), d, rows));
    let xr = dq.rotate(t, vars, x);
    let xq = dq.quantize_rotated(t, vars, xr, tau_gumbel, rng);
    let diff = t.sub(xq, xr);
    let d2 = t.row_sq_norm(diff);
    let norms = t.row_sq_norm(xr);
    let scale = crate::quantizer::batch_mean(t.value(norms));
    let normed = t.scale(d2, 1.0 / scale);
    t.mean_all(normed)
}

/// Combines the two losses into Eq. 11 with learnable homoscedastic
/// weighting, `L = e^{−s₁} L_routing + s₁ + e^{−s₂} L_neighborhood + s₂`;
/// a lone loss passes through. `s1` and `s2` are registered 1×1 parameters.
pub fn combine(
    t: &mut Tape,
    l_routing: Option<Var>,
    l_neighborhood: Option<Var>,
    s1: Var,
    s2: Var,
) -> Var {
    match (l_routing, l_neighborhood) {
        (Some(lr), Some(ln)) => {
            let w1 = {
                let n = t.neg(s1);
                t.exp(n)
            };
            let w2 = {
                let n = t.neg(s2);
                t.exp(n)
            };
            let t1 = t.mul(w1, lr);
            let t2 = t.mul(w2, ln);
            let a = t.add(t1, s1);
            let bsum = t.add(t2, s2);
            t.add(a, bsum)
        }
        (Some(lr), None) => lr,
        (None, Some(ln)) => ln,
        (None, None) => panic!("combine called with no losses"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantizer::DiffQuantizerConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rpq_data::synth::{SynthConfig, ValueTransform};

    fn toy(n: usize, seed: u64) -> Dataset {
        SynthConfig {
            dim: 8,
            intrinsic_dim: 4,
            clusters: 4,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        }
        .generate(n, seed)
    }

    fn small_dq(data: &Dataset) -> DiffQuantizer {
        let mut dq = crate::quantizer::tests::warm_start(
            DiffQuantizerConfig {
                m: 2,
                k: 8,
                ..Default::default()
            },
            data,
        );
        dq.rotation = crate::quantizer::tests::random_rotation(8, 0.05, 0);
        dq
    }

    #[test]
    fn neighborhood_loss_is_finite_and_differentiable() {
        let data = toy(100, 1);
        let dq = small_dq(&data);
        let mut rng = SmallRng::seed_from_u64(2);
        let triplets = vec![
            Triplet {
                anchor: 0,
                pos: 1,
                neg: 50,
            },
            Triplet {
                anchor: 3,
                pos: 4,
                neg: 70,
            },
        ];
        let mut t = Tape::new();
        let vars = dq.begin(&mut t);
        let loss = neighborhood_loss(&mut t, &dq, &vars, &data, &triplets, 0.5, 0.5, &mut rng);
        let lv = t.value(loss)[(0, 0)];
        assert!(lv.is_finite() && lv >= 0.0, "loss {lv}");
        let grads = t.backward(loss);
        assert!(grads.get(vars.rotation).is_some());
    }

    #[test]
    fn routing_loss_is_finite_and_differentiable() {
        let data = toy(100, 3);
        let dq = small_dq(&data);
        let mut rng = SmallRng::seed_from_u64(4);
        let decisions = vec![
            RoutingFeature {
                query: 0,
                candidates: vec![1, 2, 3, 4],
                best: 0,
            },
            RoutingFeature {
                query: 5,
                candidates: vec![10, 11, 12, 13],
                best: 2,
            },
        ];
        let mut t = Tape::new();
        let vars = dq.begin(&mut t);
        let loss = routing_loss(&mut t, &dq, &vars, &data, &decisions, 1.0, 0.5, &mut rng);
        let lv = t.value(loss)[(0, 0)];
        // NLL over 4 candidates is at most ln(4) + slack, at least ~0.
        assert!(lv.is_finite() && lv >= 0.0, "loss {lv}");
        let grads = t.backward(loss);
        assert!(grads.get(vars.rotation).is_some());
        for &c in &vars.codebooks {
            assert!(grads.get(c).is_some());
        }
    }

    #[test]
    fn routing_loss_lower_when_best_is_truly_closest() {
        // A decision whose label matches the quantized ranking should score
        // a lower NLL than one whose label is the farthest candidate.
        let data = toy(100, 5);
        let dq = small_dq(&data);
        let mut rng = SmallRng::seed_from_u64(6);
        // Query 0; candidate 0's own vector is closest to it (itself!).
        let aligned = vec![RoutingFeature {
            query: 0,
            candidates: vec![0, 40, 60, 80],
            best: 0,
        }];
        let misaligned = vec![RoutingFeature {
            query: 0,
            candidates: vec![0, 40, 60, 80],
            best: 3,
        }];
        let eval = |feats: &[RoutingFeature], rng: &mut SmallRng| {
            let mut t = Tape::new();
            let vars = dq.begin(&mut t);
            let loss = routing_loss(&mut t, &dq, &vars, &data, feats, 1.0, 0.1, rng);
            t.value(loss)[(0, 0)]
        };
        let la = eval(&aligned, &mut rng);
        let lm = eval(&misaligned, &mut rng);
        assert!(la < lm, "aligned {la} should beat misaligned {lm}");
    }

    #[test]
    fn combine_uncertainty_is_differentiable_in_s() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::from_vec(1, 1, vec![2.0]));
        let b = t.constant(Matrix::from_vec(1, 1, vec![3.0]));
        let s1 = t.param(Matrix::zeros(1, 1));
        let s2 = t.param(Matrix::zeros(1, 1));
        let c = combine(&mut t, Some(a), Some(b), s1, s2);
        // e^0·2 + 0 + e^0·3 + 0 = 5
        assert!((t.value(c)[(0, 0)] - 5.0).abs() < 1e-5);
        let grads = t.backward(c);
        // d/ds1 = −e^{−s1}·L + 1 = −2 + 1 = −1
        assert!((grads.get(s1).unwrap()[(0, 0)] + 1.0).abs() < 1e-5);
    }

    #[test]
    fn combine_single_loss_passthrough() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::from_vec(1, 1, vec![7.0]));
        let s = t.param(Matrix::zeros(1, 1));
        let c = combine(&mut t, Some(a), None, s, s);
        assert_eq!(t.value(c)[(0, 0)], 7.0);
    }

    #[test]
    #[should_panic(expected = "no losses")]
    fn combine_nothing_panics() {
        let mut t = Tape::new();
        let s = t.param(Matrix::zeros(1, 1));
        let _ = combine(&mut t, None, None, s, s);
    }
}
