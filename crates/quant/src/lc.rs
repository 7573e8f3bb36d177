//! L&C-style baseline — "Link and Code" (Douze et al., CVPR'18): refine PQ
//! reconstructions using the graph structure.
//!
//! Substitution note (DESIGN.md §4): the original learns per-entry
//! regression codebooks over neighbor reconstructions. We keep its defining
//! property — the graph refines *reconstruction accuracy* (not routing) at
//! the cost of extra per-distance work — with a two-coefficient global
//! regression fitted by least squares:
//!
//! ```text
//! x̂ = β₀ · decode(code(x)) + β₁ · mean_{u ∈ N(x)} decode(code(u))
//! ```
//!
//! Distances are computed from the refined reconstruction on the fly, which
//! is why L&C trades QPS for recall in the paper's Figure 6.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use rpq_data::Dataset;
use rpq_graph::{DistanceEstimator, ProximityGraph};
use rpq_linalg::distance::sq_l2;

use crate::codebook::CompactCodes;
use crate::compressor::VectorCompressor;
use crate::pq::{PqConfig, ProductQuantizer};

/// Vectors the two regression coefficients are fitted over: an evenly
/// strided sample of about this many (every vector of a smaller corpus).
/// The reproduction's choice, not a published value — the original fits
/// per-entry codebooks (DESIGN.md §4.4).
const FIT_SAMPLE: usize = 2000;

/// A trained L&C compressor: PQ + graph-neighbor regression refinement.
pub struct LinkAndCode {
    pq: ProductQuantizer,
    graph: Arc<ProximityGraph>,
    beta0: f32,
    beta1: f32,
    train_seconds: f32,
}

impl LinkAndCode {
    /// Trains PQ (`cfg`), encodes `data`, and fits `(β₀, β₁)` by least
    /// squares over a sample of reconstruction targets.
    pub fn train(cfg: &PqConfig, data: &Dataset, graph: Arc<ProximityGraph>) -> Self {
        let start = Instant::now();
        assert_eq!(graph.len(), data.len(), "graph and dataset size mismatch");
        let pq = ProductQuantizer::train(cfg, data);
        let codes = pq.encode_dataset(data);
        let d = data.dim();

        // Normal equations for x ≈ β₀ a + β₁ b accumulated over samples:
        // [aa ab; ab bb] [β₀; β₁] = [ax; bx]
        let (mut aa, mut ab, mut bb, mut ax, mut bx) = (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let mut a = vec![0.0f32; d];
        let mut b = vec![0.0f32; d];
        let mut nb = vec![0.0f32; d];
        let n = data.len();
        let step = (n / FIT_SAMPLE).max(1);
        for i in (0..n).step_by(step) {
            pq.decode_into(codes.code(i), &mut a);
            let neighbors = graph.neighbors(i as u32);
            if neighbors.is_empty() {
                continue;
            }
            b.iter_mut().for_each(|v| *v = 0.0);
            for &u in neighbors {
                pq.decode_into(codes.code(u as usize), &mut nb);
                for (acc, &v) in b.iter_mut().zip(&nb) {
                    *acc += v;
                }
            }
            let inv = 1.0 / neighbors.len() as f32;
            b.iter_mut().for_each(|v| *v *= inv);
            let x = data.get(i);
            for j in 0..d {
                aa += (a[j] * a[j]) as f64;
                ab += (a[j] * b[j]) as f64;
                bb += (b[j] * b[j]) as f64;
                ax += (a[j] * x[j]) as f64;
                bx += (b[j] * x[j]) as f64;
            }
        }
        let det = aa * bb - ab * ab;
        let (beta0, beta1) = if det.abs() < 1e-9 {
            (1.0, 0.0)
        } else {
            (
                ((bb * ax - ab * bx) / det) as f32,
                ((aa * bx - ab * ax) / det) as f32,
            )
        };
        Self {
            pq,
            graph,
            beta0,
            beta1,
            train_seconds: start.elapsed().as_secs_f32(),
        }
    }

    /// Refined reconstruction of vertex `i` given the full code set.
    pub fn refine_into(&self, codes: &CompactCodes, i: u32, out: &mut [f32]) {
        let d = self.pq.code_dim();
        assert_eq!(out.len(), d);
        let mut own = vec![0.0f32; d];
        self.pq.decode_into(codes.code(i as usize), &mut own);
        let neighbors = self.graph.neighbors(i);
        if neighbors.is_empty() {
            out.copy_from_slice(&own);
            return;
        }
        let mut avg = vec![0.0f32; d];
        let mut nb = vec![0.0f32; d];
        for &u in neighbors {
            self.pq.decode_into(codes.code(u as usize), &mut nb);
            for (acc, &v) in avg.iter_mut().zip(&nb) {
                *acc += v;
            }
        }
        let inv = 1.0 / neighbors.len() as f32;
        for ((o, &ow), &av) in out.iter_mut().zip(&own).zip(&avg) {
            *o = self.beta0 * ow + self.beta1 * av * inv;
        }
    }
}

impl VectorCompressor for LinkAndCode {
    fn name(&self) -> String {
        "L&C".to_string()
    }

    fn dim(&self) -> usize {
        self.pq.dim()
    }

    fn code_dim(&self) -> usize {
        self.pq.code_dim()
    }

    fn model_bytes(&self) -> usize {
        self.pq.model_bytes() + 2 * 4
    }

    fn train_seconds(&self) -> f32 {
        self.train_seconds
    }

    fn encode_dataset(&self, data: &Dataset) -> CompactCodes {
        self.pq.encode_dataset(data)
    }

    fn encode_one(&self, v: &[f32], out: &mut [u8]) {
        self.pq.encode_one(v, out);
    }

    fn decode_into(&self, code: &[u8], out: &mut [f32]) {
        self.pq.decode_into(code, out);
    }

    // `batch_estimator` stays at the default `None`: L&C's estimator refines
    // reconstructions from graph neighborhoods per distance, so it has no
    // table-driven batched kernel.
    fn estimator<'a>(
        &'a self,
        codes: &'a CompactCodes,
        query: &'a [f32],
    ) -> Box<dyn DistanceEstimator + 'a> {
        Box::new(LcEstimator {
            lc: self,
            codes,
            query: query.to_vec(),
            scratch: RefCell::new(LcScratch {
                own: vec![0.0; self.code_dim()],
                avg: vec![0.0; self.code_dim()],
                nb: vec![0.0; self.code_dim()],
            }),
        })
    }
}

struct LcScratch {
    own: Vec<f32>,
    avg: Vec<f32>,
    nb: Vec<f32>,
}

/// Per-query estimator that refines reconstructions on the fly — slower per
/// distance than an ADC table by design (mirrors L&C's compute/recall
/// trade).
struct LcEstimator<'a> {
    lc: &'a LinkAndCode,
    codes: &'a CompactCodes,
    query: Vec<f32>,
    scratch: RefCell<LcScratch>,
}

impl DistanceEstimator for LcEstimator<'_> {
    fn distance(&self, node: u32) -> f32 {
        let mut s = self.scratch.borrow_mut();
        let LcScratch { own, avg, nb } = &mut *s;
        self.lc.pq.decode_into(self.codes.code(node as usize), own);
        let neighbors = self.lc.graph.neighbors(node);
        if neighbors.is_empty() {
            return sq_l2(&self.query, own);
        }
        avg.iter_mut().for_each(|v| *v = 0.0);
        for &u in neighbors {
            self.lc.pq.decode_into(self.codes.code(u as usize), nb);
            for (acc, &v) in avg.iter_mut().zip(nb.iter()) {
                *acc += v;
            }
        }
        let inv = 1.0 / neighbors.len() as f32;
        let b0 = self.lc.beta0;
        let b1 = self.lc.beta1 * inv;
        let mut acc = 0.0f32;
        for ((&o, &a), &q) in own.iter().zip(avg.iter()).zip(&self.query) {
            let r = b0 * o + b1 * a;
            let dd = q - r;
            acc += dd * dd;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_data::synth::{SynthConfig, ValueTransform};
    use rpq_graph::VamanaConfig;

    fn setup(n: usize, seed: u64) -> (Dataset, Arc<ProximityGraph>) {
        let data = SynthConfig {
            dim: 16,
            intrinsic_dim: 6,
            clusters: 6,
            cluster_std: 0.8,
            noise_std: 0.03,
            transform: ValueTransform::Identity,
        }
        .generate(n, seed);
        let graph = Arc::new(
            VamanaConfig {
                r: 8,
                l: 24,
                ..Default::default()
            }
            .build(&data),
        );
        (data, graph)
    }

    fn lc_cfg() -> PqConfig {
        PqConfig {
            m: 4,
            k: 16,
            ..Default::default()
        }
    }

    #[test]
    fn refinement_reduces_reconstruction_error() {
        let (data, graph) = setup(500, 1);
        let lc = LinkAndCode::train(&lc_cfg(), &data, graph);
        let codes = lc.encode_dataset(&data);
        let mut plain = vec![0.0f32; 16];
        let mut refined = vec![0.0f32; 16];
        let (mut err_plain, mut err_refined) = (0.0f64, 0.0f64);
        for i in 0..data.len() {
            lc.decode_into(codes.code(i), &mut plain);
            lc.refine_into(&codes, i as u32, &mut refined);
            err_plain += sq_l2(data.get(i), &plain) as f64;
            err_refined += sq_l2(data.get(i), &refined) as f64;
        }
        assert!(
            err_refined <= err_plain * 1.001,
            "refinement must not hurt: {err_refined} vs {err_plain}"
        );
    }

    #[test]
    fn betas_are_finite_and_dominated_by_own_code() {
        let (data, graph) = setup(400, 2);
        let lc = LinkAndCode::train(&lc_cfg(), &data, graph);
        let (b0, b1) = (lc.beta0, lc.beta1);
        assert!(b0.is_finite() && b1.is_finite());
        assert!(b0 > 0.5, "own reconstruction should dominate, b0 = {b0}");
        assert!(b0.abs() > b1.abs(), "b0 {b0} vs b1 {b1}");
    }

    #[test]
    fn estimator_matches_refined_reconstruction() {
        let (data, graph) = setup(300, 3);
        let lc = LinkAndCode::train(&lc_cfg(), &data, graph);
        let codes = lc.encode_dataset(&data);
        let q = data.get(0).to_vec();
        let est = lc.estimator(&codes, &q);
        let mut refined = vec![0.0f32; 16];
        for i in [3u32, 57, 200] {
            lc.refine_into(&codes, i, &mut refined);
            let expect = sq_l2(&q, &refined);
            let got = est.distance(i);
            assert!(
                (got - expect).abs() < 1e-3 * expect.max(1.0),
                "{got} vs {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn graph_size_mismatch_panics() {
        let (data, _) = setup(100, 4);
        let (_, other_graph) = setup(50, 5);
        let _ = LinkAndCode::train(&lc_cfg(), &data, other_graph);
    }
}
