//! Catalyst baseline — "spreading vectors for similarity search"
//! (Sablayrolles et al., ICLR'19), the learned-but-graph-agnostic
//! competitor in the paper's evaluation.
//!
//! Substitution note (DESIGN.md §4): the original couples a deep net with a
//! lattice quantizer. We keep its *defining property for this comparison* —
//! a neighborhood-rank-preserving learned embedding trained **without any
//! knowledge of the proximity graph or routing**, followed by product
//! quantization — as a 3-layer MLP (D → h → h → d_out) trained with a
//! triplet rank loss plus the paper's spreading regulariser (λ = 0.005
//! pushing embeddings toward the unit sphere; paper §8.1 lists
//! d_out = 40, λ = 0.005).

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rpq_autodiff::{Adam, Tape};
use rpq_data::ground_truth::top_k_ids;
use rpq_data::Dataset;
use rpq_graph::DistanceEstimator;
use rpq_linalg::Matrix;

use crate::codebook::{encode_dataset_with, CompactCodes, LookupTable};
use crate::compressor::{AdcEstimator, VectorCompressor};
use crate::pq::{subsample, PqConfig, ProductQuantizer};

/// Spreading regulariser weight; the paper (Sablayrolles et al., ICLR'19)
/// uses 0.005.
const LAMBDA: f32 = 0.005;
/// Triplet margin.
const MARGIN: f32 = 0.2;

// Training settings: the original's deep net and schedule scaled to a
// CPU-trainable MLP (DESIGN.md §4.3). These are the reproduction's values,
// not published ones; every experiment runs them.
/// Hidden width of the MLP (D → HIDDEN → HIDDEN → d_out).
const HIDDEN: usize = 256;
/// Training epochs over the mined triplet set.
const EPOCHS: usize = 4;
/// Triplets per Adam step.
const BATCH: usize = 128;
/// Subsample the triplets are mined from (exact kNN over it is
/// quadratic in its size).
const MINE_SIZE: usize = 1500;
/// Positives per anchor: an anchor's `K_POS` exact nearest neighbours in
/// the mined subsample.
const K_POS: usize = 10;

/// Catalyst training parameters.
#[derive(Clone, Copy, Debug)]
pub struct CatalystConfig {
    /// Output (embedding) dimensionality; paper uses 40.
    pub d_out: usize,
    /// Inner PQ settings (m must divide `d_out`).
    pub pq: PqConfig,
    pub seed: u64,
}

impl Default for CatalystConfig {
    fn default() -> Self {
        Self {
            d_out: 40,
            pq: PqConfig {
                m: 8,
                k: 256,
                ..Default::default()
            },
            seed: 0,
        }
    }
}

/// A trained Catalyst compressor: MLP projection + PQ in the embedding
/// space.
pub struct Catalyst {
    w1: Matrix,
    b1: Matrix,
    w2: Matrix,
    b2: Matrix,
    w3: Matrix,
    b3: Matrix,
    pq: ProductQuantizer,
    dim_in: usize,
    train_seconds: f32,
}

impl Catalyst {
    /// Mines triplets from exact kNN on a subsample, trains the MLP with
    /// Adam, then fits PQ in the embedding space.
    pub fn train(cfg: &CatalystConfig, data: &Dataset) -> Self {
        let start = Instant::now();
        assert!(
            !data.is_empty(),
            "cannot train Catalyst on an empty dataset"
        );
        assert_eq!(cfg.d_out % cfg.pq.m, 0, "PQ m must divide d_out");
        let d = data.dim();
        let h = HIDDEN;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);

        // Xavier-ish init.
        let mut w1 = Matrix::random_normal(d, h, (2.0 / d as f32).sqrt(), &mut rng);
        let mut b1 = Matrix::zeros(1, h);
        let mut w2 = Matrix::random_normal(h, h, (2.0 / h as f32).sqrt(), &mut rng);
        let mut b2 = Matrix::zeros(1, h);
        let mut w3 = Matrix::random_normal(h, cfg.d_out, (2.0 / h as f32).sqrt(), &mut rng);
        let mut b3 = Matrix::zeros(1, cfg.d_out);

        // Triplet mining on a subsample: positives from exact kNN, negatives
        // uniform outside the positive set.
        let mine = subsample(data, MINE_SIZE, cfg.seed);
        let n = mine.len();
        let k_pos = K_POS.min(n.saturating_sub(1)).max(1);
        let knn: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let mut ids = top_k_ids(&mine, mine.get(i), k_pos + 1);
                ids.retain(|&id| id as usize != i);
                ids.truncate(k_pos);
                ids
            })
            .collect();

        let sizes = [
            w1.data.len(),
            b1.data.len(),
            w2.data.len(),
            b2.data.len(),
            w3.data.len(),
            b3.data.len(),
        ];
        let mut adam = Adam::new(1e-3, &sizes);

        let steps_per_epoch = (n / BATCH).max(1);
        for _epoch in 0..EPOCHS {
            for _step in 0..steps_per_epoch {
                // Assemble the triplet batch as [anchors; positives;
                // negatives] so one forward pass embeds all three roles.
                let b = BATCH.min(n);
                let mut rows: Vec<f32> = Vec::with_capacity(3 * b * d);
                let mut pos_rows: Vec<f32> = Vec::with_capacity(b * d);
                let mut neg_rows: Vec<f32> = Vec::with_capacity(b * d);
                for _ in 0..b {
                    let a = rng.gen_range(0..n);
                    let p = knn[a][rng.gen_range(0..knn[a].len())] as usize;
                    let mut neg = rng.gen_range(0..n);
                    while neg == a || knn[a].contains(&(neg as u32)) {
                        neg = rng.gen_range(0..n);
                    }
                    rows.extend_from_slice(mine.get(a));
                    pos_rows.extend_from_slice(mine.get(p));
                    neg_rows.extend_from_slice(mine.get(neg));
                }
                rows.extend_from_slice(&pos_rows);
                rows.extend_from_slice(&neg_rows);
                let x = Matrix::from_vec(3 * b, d, rows);

                // Forward + backward.
                let mut t = Tape::new();
                let vw1 = t.param(w1.clone());
                let vb1 = t.param(b1.clone());
                let vw2 = t.param(w2.clone());
                let vb2 = t.param(b2.clone());
                let vw3 = t.param(w3.clone());
                let vb3 = t.param(b3.clone());
                let xin = t.constant(x);
                let z1 = t.matmul(xin, vw1);
                let z1b = t.add_row_broadcast(z1, vb1);
                let h1 = t.relu(z1b);
                let z2 = t.matmul(h1, vw2);
                let z2b = t.add_row_broadcast(z2, vb2);
                let h2 = t.relu(z2b);
                let z3 = t.matmul(h2, vw3);
                let out = t.add_row_broadcast(z3, vb3);

                let a_emb = t.slice_rows(out, 0, b);
                let p_emb = t.slice_rows(out, b, 2 * b);
                let n_emb = t.slice_rows(out, 2 * b, 3 * b);
                let ap = t.sub(a_emb, p_emb);
                let d_ap = t.row_sq_norm(ap);
                let an = t.sub(a_emb, n_emb);
                let d_an = t.row_sq_norm(an);
                let gap = t.sub(d_ap, d_an);
                let shifted = t.add_scalar(gap, MARGIN);
                let hinge = t.relu(shifted);
                let trip = t.mean_all(hinge);
                // Spreading regulariser: embeddings toward the unit sphere.
                let norms = t.row_sq_norm(a_emb);
                let centered = t.add_scalar(norms, -1.0);
                let sq = t.square(centered);
                let reg_m = t.mean_all(sq);
                let reg = t.scale(reg_m, LAMBDA);
                let loss = t.add(trip, reg);

                let grads = t.backward(loss);
                adam.step(&mut [
                    (&mut w1, grads.get(vw1)),
                    (&mut b1, grads.get(vb1)),
                    (&mut w2, grads.get(vw2)),
                    (&mut b2, grads.get(vb2)),
                    (&mut w3, grads.get(vw3)),
                    (&mut b3, grads.get(vb3)),
                ]);
            }
        }

        // PQ in the embedding space.
        let me = Self {
            w1,
            b1,
            w2,
            b2,
            w3,
            b3,
            pq: ProductQuantizer::from_codebook(
                crate::codebook::Codebook::new(1, 1, cfg.d_out, vec![0.0; cfg.d_out]),
                0.0,
            ),
            dim_in: d,
            train_seconds: 0.0,
        };
        let projected = me.project_dataset(data);
        let pq = ProductQuantizer::train(&cfg.pq, &projected);
        Self {
            pq,
            train_seconds: start.elapsed().as_secs_f32(),
            ..me
        }
    }

    /// Applies the MLP to a row-matrix of vectors.
    fn project(&self, x: &Matrix) -> Matrix {
        let mut h1 = x.matmul(&self.w1);
        add_bias_relu(&mut h1, &self.b1, true);
        let mut h2 = h1.matmul(&self.w2);
        add_bias_relu(&mut h2, &self.b2, true);
        let mut out = h2.matmul(&self.w3);
        add_bias_relu(&mut out, &self.b3, false);
        out
    }

    /// Projects a full dataset into the embedding space.
    fn project_dataset(&self, data: &Dataset) -> Dataset {
        let x = data.to_matrix(0, data.len());
        Dataset::from_matrix(&self.project(&x))
    }

    fn project_query(&self, query: &[f32]) -> Vec<f32> {
        let q = Matrix::from_vec(1, query.len(), query.to_vec());
        self.project(&q).data
    }

    /// Lookup table in the embedding space for a raw query.
    pub fn lookup_table(&self, query: &[f32]) -> LookupTable {
        self.pq.lookup_table(&self.project_query(query))
    }
}

fn add_bias_relu(x: &mut Matrix, bias: &Matrix, relu: bool) {
    for i in 0..x.rows {
        for (v, &b) in x.row_mut(i).iter_mut().zip(bias.row(0)) {
            *v += b;
            if relu && *v < 0.0 {
                *v = 0.0;
            }
        }
    }
}

impl VectorCompressor for Catalyst {
    fn name(&self) -> String {
        "Catalyst".to_string()
    }

    fn dim(&self) -> usize {
        self.dim_in
    }

    fn code_dim(&self) -> usize {
        self.pq.code_dim()
    }

    fn model_bytes(&self) -> usize {
        let mlp = self.w1.data.len()
            + self.b1.data.len()
            + self.w2.data.len()
            + self.b2.data.len()
            + self.w3.data.len()
            + self.b3.data.len();
        mlp * 4 + self.pq.model_bytes()
    }

    fn train_seconds(&self) -> f32 {
        self.train_seconds
    }

    fn encode_dataset(&self, data: &Dataset) -> CompactCodes {
        let projected = self.project_dataset(data);
        encode_dataset_with(self.pq.codebook(), &projected)
    }

    fn decode_into(&self, code: &[u8], out: &mut [f32]) {
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
        // `lookup_table` projects the query through the MLP first, so the
        // SoA kernel sees the same table as the scalar path.
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

    fn toy(n: usize, seed: u64) -> Dataset {
        SynthConfig {
            dim: 24,
            intrinsic_dim: 8,
            clusters: 6,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        }
        .generate(n, seed)
    }

    fn small_cfg() -> CatalystConfig {
        CatalystConfig {
            d_out: 8,
            pq: PqConfig {
                m: 2,
                k: 16,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn projection_shape_and_encode() {
        let data = toy(300, 1);
        let cat = Catalyst::train(&small_cfg(), &data);
        let projected = cat.project_dataset(&data);
        assert_eq!(projected.dim(), 8);
        assert_eq!(projected.len(), 300);
        let codes = cat.encode_dataset(&data);
        assert_eq!(codes.len(), 300);
        assert_eq!(codes.m(), 2);
    }

    #[test]
    fn embedding_preserves_neighborhood_better_than_random() {
        // After training, a point's true nearest neighbor should usually be
        // nearer than a random point in the embedding space.
        let data = toy(300, 2);
        let cat = Catalyst::train(&small_cfg(), &data);
        let emb = cat.project_dataset(&data);
        let mut good = 0;
        let total = 80;
        for i in 0..total {
            let true_nn = top_k_ids(&data, data.get(i), 2)[1] as usize;
            let rand_j = (i * 131 + 17) % 300;
            let d_nn = rpq_linalg::distance::sq_l2(emb.get(i), emb.get(true_nn));
            let d_rand = rpq_linalg::distance::sq_l2(emb.get(i), emb.get(rand_j));
            if d_nn < d_rand {
                good += 1;
            }
        }
        assert!(good * 10 >= total * 7, "only {good}/{total} rank-preserved");
    }

    #[test]
    fn adc_consistency_in_embedding_space() {
        let data = toy(200, 3);
        let cat = Catalyst::train(&small_cfg(), &data);
        let codes = cat.encode_dataset(&data);
        let q = data.get(0);
        let lut = cat.lookup_table(q);
        let qp = {
            let m = Matrix::from_vec(1, 24, q.to_vec());
            cat.project(&m).data
        };
        let mut rec = vec![0.0f32; 8];
        cat.decode_into(codes.code(10), &mut rec);
        let expect = rpq_linalg::distance::sq_l2(&qp, &rec);
        let got = lut.distance(codes.code(10));
        assert!(
            (got - expect).abs() < 1e-2 * expect.max(1.0),
            "{got} vs {expect}"
        );
    }

    #[test]
    fn model_bytes_counts_mlp() {
        let data = toy(150, 4);
        let cat = Catalyst::train(&small_cfg(), &data);
        // At least the three weight matrices.
        assert!(cat.model_bytes() > (24 * HIDDEN + HIDDEN * HIDDEN + HIDDEN * 8) * 4);
    }

    #[test]
    #[should_panic(expected = "m must divide d_out")]
    fn invalid_pq_m_rejected() {
        let data = toy(50, 5);
        let cfg = CatalystConfig {
            d_out: 10,
            pq: PqConfig {
                m: 4,
                ..Default::default()
            },
            ..small_cfg()
        };
        let _ = Catalyst::train(&cfg, &data);
    }
}
