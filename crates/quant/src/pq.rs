//! Plain product quantization (Jégou et al., TPAMI'11) — paper Def. 3 and
//! the default quantizer inside DiskANN.

use std::borrow::Cow;
use std::time::Instant;

use rayon::prelude::*;

use rpq_data::Dataset;
use rpq_graph::DistanceEstimator;

use crate::codebook::{encode_dataset_with, Codebook, CompactCodes, LookupTable};
use crate::compressor::{AdcEstimator, VectorCompressor};
use crate::kmeans::{kmeans, KMeansConfig};

/// Lloyd iterations per sub-codebook k-means: a fixed budget (as Faiss's
/// PQ training has), the reproduction's value for PQ and every method
/// built on it (OPQ, Catalyst, L&C, RPQ's warm start).
const KMEANS_ITERS: usize = 15;

/// PQ training parameters.
#[derive(Clone, Copy, Debug)]
pub struct PqConfig {
    /// Number of chunks M (must divide the vector dimension).
    pub m: usize,
    /// Codewords per sub-codebook K (≤ 256; paper uses 256).
    pub k: usize,
    /// Cap on training vectors (the paper trains on a 500K subset).
    pub train_size: usize,
    pub seed: u64,
}

impl Default for PqConfig {
    fn default() -> Self {
        Self {
            m: 8,
            k: 256,
            train_size: 100_000,
            seed: 0,
        }
    }
}

/// A trained product quantizer.
#[derive(Clone, Debug)]
pub struct ProductQuantizer {
    codebook: Codebook,
    train_seconds: f32,
}

impl ProductQuantizer {
    /// Trains one k-means per chunk over (a subsample of) `data`.
    pub fn train(cfg: &PqConfig, data: &Dataset) -> Self {
        let start = Instant::now();
        let d = data.dim();
        assert!(cfg.m > 0, "M must be positive");
        assert_eq!(d % cfg.m, 0, "M = {} must divide the dimension {d}", cfg.m);
        assert!(!data.is_empty(), "cannot train PQ on an empty dataset");
        let dsub = d / cfg.m;
        let train = subsample(data, cfg.train_size, cfg.seed);
        let k_eff = cfg.k.min(train.len());

        // The M sub-space k-means are independent: run them side by side,
        // each sequential and seeded by its chunk, collected in chunk order.
        let sub_codebooks: Vec<Vec<f32>> = (0..cfg.m)
            .into_par_iter()
            .map(|j| {
                // Gather the j-th sub-vectors contiguously.
                let mut sub = Vec::with_capacity(train.len() * dsub);
                for v in train.iter() {
                    sub.extend_from_slice(&v[j * dsub..(j + 1) * dsub]);
                }
                kmeans(
                    &sub,
                    dsub,
                    KMeansConfig {
                        k: k_eff,
                        max_iters: KMEANS_ITERS,
                        seed: cfg.seed.wrapping_add(j as u64),
                    },
                )
                .centroids
            })
            .collect();
        let codewords = sub_codebooks.concat();
        let codebook = Codebook::new(cfg.m, k_eff, dsub, codewords);
        Self {
            codebook,
            train_seconds: start.elapsed().as_secs_f32(),
        }
    }

    /// Wraps an existing codebook (used by RPQ's export path).
    pub fn from_codebook(codebook: Codebook, train_seconds: f32) -> Self {
        Self {
            codebook,
            train_seconds,
        }
    }

    /// The underlying codebook.
    pub fn codebook(&self) -> &Codebook {
        &self.codebook
    }

    /// Encodes a single vector.
    pub fn encode_one(&self, v: &[f32], out: &mut [u8]) {
        self.codebook.encode_one(v, out);
    }

    /// Builds an ADC lookup table for a query.
    pub fn lookup_table(&self, query: &[f32]) -> LookupTable {
        self.codebook.lookup_table(query)
    }

    /// Mean squared reconstruction error over a dataset (the distortion PQ
    /// minimises; used by tests and the OPQ alternation).
    pub fn reconstruction_mse(&self, data: &Dataset) -> f32 {
        let mut code = vec![0u8; self.codebook.m()];
        let mut rec = vec![0.0f32; self.codebook.dim()];
        let mut total = 0.0f64;
        for v in data.iter() {
            self.codebook.encode_one(v, &mut code);
            self.codebook.decode(&code, &mut rec);
            total += rpq_linalg::distance::sq_l2(v, &rec) as f64;
        }
        (total / data.len().max(1) as f64) as f32
    }
}

impl VectorCompressor for ProductQuantizer {
    fn name(&self) -> String {
        "PQ".to_string()
    }

    fn dim(&self) -> usize {
        self.codebook.dim()
    }

    fn code_dim(&self) -> usize {
        self.codebook.dim()
    }

    fn model_bytes(&self) -> usize {
        self.codebook.memory_bytes()
    }

    fn train_seconds(&self) -> f32 {
        self.train_seconds
    }

    fn encode_dataset(&self, data: &Dataset) -> CompactCodes {
        encode_dataset_with(&self.codebook, data)
    }

    fn encode_one(&self, v: &[f32], out: &mut [u8]) {
        self.codebook.encode_one(v, out);
    }

    fn decode_into(&self, code: &[u8], out: &mut [f32]) {
        self.codebook.decode(code, out);
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
        Some(Box::new(crate::soa::BatchAdcEstimator::new(
            self.lookup_table(query),
            codes,
        )))
    }
}

/// Deterministic stride subsample of up to `cap` vectors; borrows `data`
/// when it already fits.
pub(crate) fn subsample(data: &Dataset, cap: usize, seed: u64) -> Cow<'_, Dataset> {
    let n = data.len();
    if n <= cap {
        return Cow::Borrowed(data);
    }
    let stride = n as f64 / cap as f64;
    let offset = (seed as usize) % stride.ceil().max(1.0) as usize;
    let indices: Vec<usize> = (0..cap)
        .map(|i| ((i as f64 * stride) as usize + offset) % n)
        .collect();
    Cow::Owned(data.subset(&indices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_data::synth::{SynthConfig, ValueTransform};

    fn toy(n: usize, dim: usize, seed: u64) -> Dataset {
        SynthConfig {
            dim,
            intrinsic_dim: (dim / 4).max(2),
            clusters: 8,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        }
        .generate(n, seed)
    }

    #[test]
    fn adc_equals_decoded_distance() {
        let data = toy(400, 16, 1);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &data,
        );
        let codes = pq.encode_dataset(&data);
        let q = data.get(7);
        let lut = pq.lookup_table(q);
        let mut rec = vec![0.0f32; 16];
        for i in (0..400).step_by(37) {
            pq.decode_into(codes.code(i), &mut rec);
            let expect = rpq_linalg::distance::sq_l2(q, &rec);
            let got = lut.distance(codes.code(i));
            assert!(
                (got - expect).abs() < 1e-3 * expect.max(1.0),
                "{got} vs {expect}"
            );
        }
    }

    #[test]
    fn more_codewords_reduce_distortion() {
        let data = toy(600, 16, 2);
        let small = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 4,
                ..Default::default()
            },
            &data,
        );
        let large = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 64,
                ..Default::default()
            },
            &data,
        );
        assert!(
            large.reconstruction_mse(&data) < small.reconstruction_mse(&data),
            "K=64 must beat K=4"
        );
    }

    #[test]
    fn more_chunks_reduce_distortion() {
        let data = toy(600, 16, 3);
        let m2 = ProductQuantizer::train(
            &PqConfig {
                m: 2,
                k: 16,
                ..Default::default()
            },
            &data,
        );
        let m8 = ProductQuantizer::train(
            &PqConfig {
                m: 8,
                k: 16,
                ..Default::default()
            },
            &data,
        );
        assert!(m8.reconstruction_mse(&data) < m2.reconstruction_mse(&data));
    }

    #[test]
    fn lossless_when_codewords_cover_points() {
        // 4 distinct points, K=4 per chunk: reconstruction must be exact.
        let mut data = Dataset::new(4);
        data.push(&[0.0, 0.0, 0.0, 0.0]);
        data.push(&[1.0, 1.0, 1.0, 1.0]);
        data.push(&[2.0, 2.0, 2.0, 2.0]);
        data.push(&[3.0, 3.0, 3.0, 3.0]);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 2,
                k: 4,
                ..Default::default()
            },
            &data,
        );
        assert!(pq.reconstruction_mse(&data) < 1e-6);
    }

    #[test]
    fn k_clamped_when_training_set_small() {
        let data = toy(10, 8, 4);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 2,
                k: 256,
                ..Default::default()
            },
            &data,
        );
        assert_eq!(pq.codebook().k(), 10);
    }

    #[test]
    #[should_panic(expected = "must divide the dimension")]
    fn indivisible_m_rejected() {
        let data = toy(10, 10, 5);
        let _ = ProductQuantizer::train(
            &PqConfig {
                m: 3,
                ..Default::default()
            },
            &data,
        );
    }

    #[test]
    fn subsample_respects_cap() {
        let data = toy(100, 8, 6);
        let sub = subsample(&data, 25, 3);
        assert_eq!(sub.len(), 25);
        let all = subsample(&data, 1000, 3);
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn trait_encode_one_matches_encode_dataset() {
        let data = toy(50, 16, 8);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &data,
        );
        let codes = pq.encode_dataset(&data);
        let mut one = vec![0u8; 4];
        for i in [0usize, 17, 49] {
            VectorCompressor::encode_one(&pq, data.get(i), &mut one);
            assert_eq!(&one[..], codes.code(i), "vector {i}");
        }
    }

    #[test]
    fn compressor_trait_surface() {
        let data = toy(200, 16, 7);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &data,
        );
        assert_eq!(pq.name(), "PQ");
        assert_eq!(pq.dim(), 16);
        assert_eq!(pq.code_dim(), 16);
        assert!(pq.model_bytes() > 0);
        let codes = pq.encode_dataset(&data);
        let q = data.get(0).to_vec();
        let est = pq.estimator(&codes, &q);
        // Distance to self is the quantization distortion: small but >= 0.
        let d = est.distance(0);
        assert!((0.0..50.0).contains(&d), "self distance {d}");
    }
}
