//! Shared experiment setup: benchmark datasets, graph builders, and the
//! method zoo (PQ / OPQ / Catalyst / L&C / RPQ variants).

use std::path::PathBuf;
use std::sync::Arc;

use rpq_core::{train_rpq, DiffQuantizerConfig, RpqTrainerConfig, TrainingMode};
use rpq_data::synth::DatasetKind;
use rpq_data::{brute_force_knn, Dataset, GroundTruth};
use rpq_graph::{build_nsg, HnswConfig, ProximityGraph, VamanaConfig};
use rpq_quant::catalyst::{Catalyst, CatalystConfig};
use rpq_quant::lc::LinkAndCode;
use rpq_quant::{OptimizedProductQuantizer, PqConfig, ProductQuantizer, VectorCompressor};

use crate::scale::Scale;

/// A prepared benchmark: base set, queries, exact ground truth.
pub struct Bench {
    pub kind: DatasetKind,
    pub base: Dataset,
    pub queries: Dataset,
    pub gt: GroundTruth,
}

/// Generates a dataset at the given size with exact ground truth.
pub fn make_bench(kind: DatasetKind, n_base: usize, n_query: usize, k: usize, seed: u64) -> Bench {
    let (base, queries) = kind.generate(n_base, n_query, seed);
    let gt = brute_force_knn(&base, &queries, k);
    Bench {
        kind,
        base,
        queries,
        gt,
    }
}

/// Which proximity graph to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphKind {
    /// Vamana (the hybrid/DiskANN scenario's graph).
    Vamana,
    Hnsw,
    Nsg,
}

/// Builds the requested graph with experiment defaults.
pub fn build_graph(kind: GraphKind, data: &Dataset, seed: u64) -> ProximityGraph {
    match kind {
        GraphKind::Vamana => VamanaConfig {
            r: 32,
            l: 64,
            seed,
            ..Default::default()
        }
        .build(data),
        GraphKind::Hnsw => HnswConfig {
            m: 16,
            ef_construction: 100,
            seed,
        }
        .build(data),
        GraphKind::Nsg => build_nsg(data, seed),
    }
}

/// The quantization methods compared across the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    Pq,
    Opq,
    Catalyst,
    /// L&C (in-memory HNSW comparison only, as in the paper's Figure 6).
    Lc,
    Rpq(TrainingMode),
}

impl Method {
    /// The paper's label for this method.
    pub fn name(&self) -> String {
        match self {
            Method::Pq => "PQ".into(),
            Method::Opq => "OPQ".into(),
            Method::Catalyst => "Catalyst".into(),
            Method::Lc => "L&C".into(),
            Method::Rpq(mode) => mode.label().into(),
        }
    }

    /// Methods of the hybrid-scenario comparison (paper Figure 5).
    pub const HYBRID: [Method; 4] = [
        Method::Pq,
        Method::Opq,
        Method::Catalyst,
        Method::Rpq(TrainingMode::Full),
    ];

    /// Methods of the in-memory HNSW comparison (paper Figure 6).
    pub const MEMORY_HNSW: [Method; 5] = [
        Method::Pq,
        Method::Opq,
        Method::Lc,
        Method::Catalyst,
        Method::Rpq(TrainingMode::Full),
    ];

    /// Methods of the in-memory NSG comparison (paper Figure 7).
    pub const MEMORY_NSG: [Method; 4] = [
        Method::Pq,
        Method::Opq,
        Method::Catalyst,
        Method::Rpq(TrainingMode::Full),
    ];

    /// Trains this method on `data` over `graph` at the scale's M and K.
    pub fn build(
        &self,
        data: &Dataset,
        graph: &Arc<ProximityGraph>,
        scale: &Scale,
    ) -> Box<dyn VectorCompressor> {
        let (m, kk) = (scale.m, scale.kk);
        let pq_cfg = PqConfig {
            m,
            k: kk,
            seed: scale.seed,
            ..Default::default()
        };
        match *self {
            Method::Pq => Box::new(ProductQuantizer::train(&pq_cfg, data)),
            Method::Opq => Box::new(OptimizedProductQuantizer::train(&pq_cfg, data)),
            Method::Catalyst => {
                // d_out must be divisible by m; 40 works for m=8, fall back to
                // m·5 otherwise.
                let d_out = if 40 % m == 0 { 40 } else { m * 5 };
                let cfg = CatalystConfig {
                    d_out,
                    pq: PqConfig {
                        m,
                        k: kk,
                        seed: scale.seed,
                        ..Default::default()
                    },
                    seed: scale.seed,
                };
                Box::new(Catalyst::train(&cfg, data))
            }
            Method::Lc => Box::new(LinkAndCode::train(&pq_cfg, data, Arc::clone(graph))),
            Method::Rpq(mode) => {
                let cfg = rpq_config(mode, scale, m, kk);
                let (rpq, _) = train_rpq(&cfg, data, graph);
                Box::new(rpq)
            }
        }
    }
}

/// The RPQ trainer configuration used by experiments.
pub fn rpq_config(mode: TrainingMode, scale: &Scale, m: usize, kk: usize) -> RpqTrainerConfig {
    RpqTrainerConfig {
        quantizer: DiffQuantizerConfig {
            m,
            k: kk,
            seed: scale.seed,
        },
        mode,
        epochs: scale.rpq_epochs,
        steps_per_epoch: scale.rpq_steps,
        seed: scale.seed,
        ..Default::default()
    }
}

/// A store path for a hybrid index, unique per process and `tag` (per
/// experiment and method): `$TMPDIR/rpq-bench-<pid>-<tag>.store`.
pub fn store_path(tag: &str) -> PathBuf {
    let name = format!("rpq-bench-{}-{tag}.store", std::process::id());
    std::env::temp_dir().join(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_has_consistent_shapes() {
        let b = make_bench(DatasetKind::Ukbench, 300, 10, 5, 1);
        assert_eq!(b.base.len(), 300);
        assert_eq!(b.queries.len(), 10);
        assert_eq!(b.gt.neighbors.len(), 10);
        assert_eq!(b.gt.k, 5);
    }

    #[test]
    fn all_graph_kinds_build() {
        let b = make_bench(DatasetKind::Deep, 250, 5, 5, 2);
        for kind in [GraphKind::Vamana, GraphKind::Hnsw, GraphKind::Nsg] {
            let g = build_graph(kind, &b.base, 0);
            assert_eq!(g.len(), 250, "{kind:?}");
        }
    }

    #[test]
    fn every_method_trains_at_tiny_scale() {
        let scale = Scale::ci();
        let b = make_bench(DatasetKind::Sift, 400, 5, 5, 3);
        let graph = Arc::new(build_graph(GraphKind::Hnsw, &b.base, 0));
        for method in [
            Method::Pq,
            Method::Opq,
            Method::Catalyst,
            Method::Lc,
            Method::Rpq(TrainingMode::Full),
        ] {
            let c = method.build(&b.base, &graph, &scale);
            let codes = c.encode_dataset(&b.base);
            assert_eq!(codes.len(), 400, "{}", method.name());
            assert!(c.model_bytes() > 0);
        }
    }
}
