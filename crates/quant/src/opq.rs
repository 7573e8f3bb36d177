//! Optimized Product Quantization (Ge et al., CVPR'13), non-parametric
//! variant: alternate between (a) training PQ on the rotated data and
//! (b) updating the rotation by solving an orthogonal Procrustes problem
//! against the reconstructions.

use std::time::Instant;

use rpq_data::Dataset;
use rpq_graph::DistanceEstimator;
use rpq_linalg::{procrustes, Matrix};

use crate::codebook::{encode_dataset_with, CompactCodes, LookupTable};
use crate::compressor::{AdcEstimator, VectorCompressor};
use crate::pq::{subsample, PqConfig, ProductQuantizer};

/// Alternating optimisation rounds (PQ fit, then Procrustes rotation
/// update) of Ge et al.'s non-parametric OPQ: the round count of the OPQ
/// baseline and of the RPQ trainer's OPQ warm start alike.
const OPQ_ITERS: usize = 6;

/// A trained OPQ: orthonormal rotation (applied as `x_row · R`) plus PQ in
/// the rotated space.
#[derive(Clone)]
pub struct OptimizedProductQuantizer {
    rotation: Matrix,
    pq: ProductQuantizer,
    train_seconds: f32,
    /// What [`VectorCompressor::name`] reports: the method that learned the
    /// parts.
    label: &'static str,
}

impl OptimizedProductQuantizer {
    /// Trains with the non-parametric alternation (`OPQ_ITERS` rounds),
    /// `cfg` setting the inner PQ.
    pub fn train(cfg: &PqConfig, data: &Dataset) -> Self {
        let start = Instant::now();
        let d = data.dim();
        assert!(!data.is_empty(), "cannot train OPQ on an empty dataset");
        let train = subsample(data, cfg.train_size.min(20_000), cfg.seed);
        let x = train.to_matrix(0, train.len());

        let mut rotation = Matrix::identity(d);
        for _ in 0..OPQ_ITERS {
            // (a) PQ on rotated data.
            let xr = x.matmul(&rotation);
            let rotated = Dataset::from_matrix(&xr);
            let pq = ProductQuantizer::train(cfg, &rotated);
            // (b) Rotation update: R = argmin ‖X R − Y‖ with Y the PQ
            // reconstructions of X R; solution U Vᵀ from svd(Xᵀ Y).
            let codes = pq.encode_dataset(&rotated);
            let mut y = Matrix::zeros(xr.rows, d);
            let mut rec = vec![0.0f32; d];
            for i in 0..xr.rows {
                pq.decode_into(codes.code(i), &mut rec);
                y.row_mut(i).copy_from_slice(&rec);
            }
            let g = x.matmul_tn(&y);
            rotation = procrustes(&g);
        }
        // Final codebook fit against the final rotation.
        let xr = x.matmul(&rotation);
        let pq = ProductQuantizer::train(cfg, &Dataset::from_matrix(&xr));
        Self::from_parts(rotation, pq, start.elapsed().as_secs_f32())
    }

    /// Builds an OPQ-style compressor from externally learned parts (RPQ's
    /// export path re-uses this serving machinery).
    pub fn from_parts(rotation: Matrix, pq: ProductQuantizer, train_seconds: f32) -> Self {
        assert_eq!(rotation.rows, rotation.cols, "rotation must be square");
        assert_eq!(rotation.rows, pq.dim(), "rotation/codebook dim mismatch");
        Self {
            rotation,
            pq,
            train_seconds,
            label: "OPQ",
        }
    }

    /// Names the method that learned the parts (RPQ's training mode).
    pub fn with_label(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    /// The learned rotation (applied as `x_row · R`).
    pub fn rotation(&self) -> &Matrix {
        &self.rotation
    }

    /// The inner product quantizer.
    pub fn pq(&self) -> &ProductQuantizer {
        &self.pq
    }

    /// Rotates a full dataset: `X · R`.
    pub fn rotate_dataset(&self, data: &Dataset) -> Dataset {
        let x = data.to_matrix(0, data.len());
        Dataset::from_matrix(&x.matmul(&self.rotation))
    }

    fn rotate_query(&self, query: &[f32]) -> Vec<f32> {
        let q = Matrix::from_vec(1, query.len(), query.to_vec());
        q.matmul(&self.rotation).data
    }

    /// Lookup table in the rotated space for a raw query.
    pub fn lookup_table(&self, query: &[f32]) -> LookupTable {
        self.pq.lookup_table(&self.rotate_query(query))
    }
}

impl VectorCompressor for OptimizedProductQuantizer {
    fn name(&self) -> String {
        self.label.to_string()
    }

    fn dim(&self) -> usize {
        self.rotation.rows
    }

    fn code_dim(&self) -> usize {
        self.pq.code_dim()
    }

    fn model_bytes(&self) -> usize {
        self.rotation.data.len() * 4 + self.pq.model_bytes()
    }

    fn train_seconds(&self) -> f32 {
        self.train_seconds
    }

    fn encode_dataset(&self, data: &Dataset) -> CompactCodes {
        let rotated = self.rotate_dataset(data);
        encode_dataset_with(self.pq.codebook(), &rotated)
    }

    fn decode_into(&self, code: &[u8], out: &mut [f32]) {
        // Reconstruction stays in the rotated space; distances are
        // rotation-invariant so search never needs to rotate back.
        self.pq.decode_into(code, out);
    }

    fn estimator<'a>(
        &'a self,
        codes: &'a CompactCodes,
        query: &'a [f32],
    ) -> Box<dyn DistanceEstimator + 'a> {
        Box::new(AdcEstimator::new(self.lookup_table(query), codes))
    }

    fn batch_estimator<'a>(
        &'a self,
        codes: &'a crate::soa::SoaCodes,
        query: &'a [f32],
    ) -> Option<Box<dyn DistanceEstimator + 'a>> {
        // `lookup_table` rotates the query, so the SoA kernel sees the same
        // table as the scalar path.
        Some(Box::new(crate::soa::BatchAdcEstimator::new(
            self.lookup_table(query),
            codes,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_data::synth::{SynthConfig, ValueTransform};
    use rpq_linalg::is_orthonormal;

    /// Data with deliberately imbalanced per-chunk information: the first
    /// dimensions carry all the variance — the failure mode OPQ's rotation
    /// fixes (paper Fig. 4 motivation).
    fn imbalanced(n: usize, dim: usize, seed: u64) -> Dataset {
        let base = SynthConfig {
            dim,
            intrinsic_dim: dim / 2,
            clusters: 6,
            cluster_std: 1.0,
            noise_std: 0.02,
            transform: ValueTransform::Identity,
        }
        .generate(n, seed);
        let mut out = Dataset::new(dim);
        let mut v = vec![0.0f32; dim];
        for row in base.iter() {
            for (i, (dst, &src)) in v.iter_mut().zip(row).enumerate() {
                // Exponentially decaying scale across dimensions.
                *dst = src * (1.0 / (1.0 + i as f32)).sqrt() * 4.0;
            }
            out.push(&v);
        }
        out
    }

    #[test]
    fn rotation_is_orthonormal() {
        let data = imbalanced(400, 16, 1);
        let opq = OptimizedProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &data,
        );
        assert!(is_orthonormal(opq.rotation(), 1e-2));
    }

    #[test]
    fn opq_beats_pq_on_imbalanced_data() {
        let data = imbalanced(800, 16, 2);
        let pqc = PqConfig {
            m: 4,
            k: 16,
            ..Default::default()
        };
        let pq = ProductQuantizer::train(&pqc, &data);
        let opq = OptimizedProductQuantizer::train(&pqc, &data);
        let pq_mse = pq.reconstruction_mse(&data);
        let rotated = opq.rotate_dataset(&data);
        let opq_mse = opq.pq().reconstruction_mse(&rotated);
        assert!(
            opq_mse < pq_mse,
            "OPQ should reduce distortion: OPQ {opq_mse} vs PQ {pq_mse}"
        );
    }

    #[test]
    fn adc_matches_decoded_distance_in_rotated_space() {
        let data = imbalanced(300, 8, 3);
        let opq = OptimizedProductQuantizer::train(
            &PqConfig {
                m: 2,
                k: 16,
                ..Default::default()
            },
            &data,
        );
        let codes = opq.encode_dataset(&data);
        let q = data.get(5);
        let lut = opq.lookup_table(q);
        let qr = {
            let m = Matrix::from_vec(1, 8, q.to_vec());
            m.matmul(opq.rotation()).data
        };
        let mut rec = vec![0.0f32; 8];
        for i in (0..300).step_by(29) {
            opq.decode_into(codes.code(i), &mut rec);
            let expect = rpq_linalg::distance::sq_l2(&qr, &rec);
            let got = lut.distance(codes.code(i));
            assert!(
                (got - expect).abs() < 1e-3 * expect.max(1.0),
                "{got} vs {expect}"
            );
        }
    }

    #[test]
    fn distances_are_rotation_invariant() {
        // δ(Rx, Rq) == δ(x, q): search in rotated space is equivalent.
        let data = imbalanced(100, 8, 4);
        let opq = OptimizedProductQuantizer::train(
            &PqConfig {
                m: 2,
                k: 8,
                ..Default::default()
            },
            &data,
        );
        let rot = opq.rotate_dataset(&data);
        let d_orig = rpq_linalg::distance::sq_l2(data.get(0), data.get(1));
        let d_rot = rpq_linalg::distance::sq_l2(rot.get(0), rot.get(1));
        assert!(
            (d_orig - d_rot).abs() < 1e-2 * d_orig.max(1.0),
            "{d_orig} vs {d_rot}"
        );
    }
}
