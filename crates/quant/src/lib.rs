//! # rpq-quant
//!
//! Quantization substrate and the paper's baseline quantizers:
//!
//! * [`mod@kmeans`] — Lloyd's algorithm with k-means++ seeding (the
//!   codebook trainer inside every PQ variant, paper Def. 3),
//! * [`codebook`] — codebooks, compact codes, ADC/SDC lookup tables
//!   (paper §2.1's lookup-table query machinery),
//! * [`pq`] — **PQ** (Jégou et al., TPAMI'11): vertical split + per-chunk
//!   k-means; DiskANN's default quantizer,
//! * [`opq`] — **OPQ** (Ge et al., CVPR'13): non-parametric alternation of
//!   PQ and an orthogonal Procrustes rotation update,
//! * [`catalyst`] — **Catalyst** (Sablayrolles et al., "spreading vectors"):
//!   a learned graph-agnostic projection trained with a rank-preserving
//!   triplet loss before PQ (see DESIGN.md §4 for the substitution note),
//! * [`lc`] — **L&C** (Douze et al., CVPR'18): PQ refined with a learned
//!   regression over graph-neighbor reconstructions (simplified; DESIGN.md
//!   §4),
//! * [`compressor`] — the [`VectorCompressor`] trait the ANNS engines
//!   consume: every quantizer (including RPQ in `rpq-core`) exposes compact
//!   codes plus a per-query [`rpq_graph::DistanceEstimator`],
//! * [`soa`] — chunk-major (SoA) code layout and the batched ADC scan
//!   kernel, bit-identical to scalar ADC; no index routes through it
//!   (DESIGN.md §9).

pub mod catalyst;
pub mod codebook;
pub mod compressor;
pub mod kmeans;
pub mod lc;
pub mod opq;
pub mod persist;
pub mod pq;
pub mod soa;

pub use codebook::{Codebook, CompactCodes, LookupTable};
pub use compressor::{AdcEstimator, SdcEstimator, VectorCompressor};
pub use kmeans::{kmeans, KMeansConfig, KMeansResult};
pub use opq::OptimizedProductQuantizer;
pub use persist::{read_codebook, read_rotated_pq, write_codebook, write_rotated_pq};
pub use pq::{PqConfig, ProductQuantizer};
pub use soa::{BatchAdcEstimator, SoaCodes, ADC_BLOCK};
