//! # rpq-core
//!
//! The paper's primary contribution: **Routing-guided learned Product
//! Quantization (RPQ)** for graph-based ANNS, end to end.
//!
//! The pipeline (paper Fig. 2) is implemented in three modules mirroring the
//! paper's three components:
//!
//! * [`quantizer`] — the **differentiable quantizer** (§4): adaptive vector
//!   decomposition by a learned orthonormal rotation `R`, moved by
//!   `R ← R · exp(W − Wᵀ)` each step, and
//!   differentiable codeword assignment by Gumbel-Softmax, expressed on the
//!   `rpq-autodiff` tape so the whole quantization path back-propagates;
//! * [`features`] — the **sampling-based feature extractor** (§5): Alg. 1's
//!   n-propagation triplet sampling (neighborhood features) and Alg. 2's
//!   beam-search decision recording (routing features);
//! * [`loss`] + [`trainer`] — the **multi-feature joint training module**
//!   (§6): the triplet margin loss (Eq. 8), the next-hop log-likelihood loss
//!   (Eq. 9–10), their joint combination (Eq. 11), minimised with mini-batch
//!   Adam under a one-cycle LR schedule.
//!
//! Training produces an [`RpqCompressor`] — a rotation + codebook servable
//! through the exact machinery the baselines use (`rpq-quant`'s
//! [`rpq_quant::VectorCompressor`]), so the ANNS engines in `rpq-anns`
//! consume RPQ and the baselines interchangeably.
//!
//! Ablation variants of the paper's Tables 6–7 are selected by
//! [`trainer::TrainingMode`]: `Full` (RPQ), `NeighborOnly` (RPQ w/ N),
//! `RoutingOnly` (RPQ w/ R), and `PathImitation` (RPQ w/ L2R — imitates
//! optimal routing paths of seen queries instead of learning per-decision
//! ranking, the straw-man of paper Challenge II).

pub mod features;
pub mod loss;
pub mod quantizer;
pub mod trainer;

pub use features::{
    sample_routing_features, sample_triplets, RoutingFeature, RoutingSamplerConfig, Triplet,
    TripletSamplerConfig,
};
pub use quantizer::{DiffQuantizer, DiffQuantizerConfig};
pub use trainer::{train_rpq, RpqCompressor, RpqTrainerConfig, TrainStats, TrainingMode};
