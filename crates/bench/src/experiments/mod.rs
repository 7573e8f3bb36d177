//! One module per paper artifact (DESIGN.md §5 maps ids to tables/figures).

pub mod ablation;
pub mod artifacts;
pub mod curves;
pub mod sensitivity;

use std::sync::Arc;

use rpq_anns::{qps_at_recall, sweep, DiskIndex, DiskIndexConfig, InMemoryIndex, SweepPoint};
use rpq_core::{train_rpq, RpqTrainerConfig};
use rpq_graph::ProximityGraph;
use rpq_quant::VectorCompressor;

use crate::scale::Scale;
use crate::setup::{build_graph, store_path, Bench, GraphKind};

/// Sweeps a single already-trained compressor in the hybrid scenario. The
/// store lives at `store_path(tag)` only for the sweep.
pub fn hybrid_sweep(
    bench: &Bench,
    graph: &Arc<ProximityGraph>,
    compressor: Box<dyn VectorCompressor>,
    scale: &Scale,
    tag: &str,
) -> Vec<SweepPoint> {
    let path = store_path(tag);
    let index = DiskIndex::build(compressor, &bench.base, graph, DiskIndexConfig::new(&path))
        .expect("disk index build failed");
    let points = sweep(&index, &bench.queries, &bench.gt, scale.k, &scale.efs);
    drop(index);
    std::fs::remove_file(&path).expect("cannot remove store");
    points
}

/// Sweeps a single already-trained compressor in the in-memory scenario.
pub fn memory_sweep(
    bench: &Bench,
    graph: &Arc<ProximityGraph>,
    compressor: Box<dyn VectorCompressor>,
    scale: &Scale,
) -> Vec<SweepPoint> {
    let index = InMemoryIndex::build(compressor, &bench.base, ProximityGraph::clone(graph));
    sweep(&index, &bench.queries, &bench.gt, scale.k, &scale.efs)
}

/// QPS of compared sweeps at one common recall: the highest recall every
/// sweep reaches (×0.98), capped at the paper's 95% — its absolute target
/// is out of reach at reproduction scale.
pub(crate) struct AtCommonRecall {
    pub target: f32,
    /// Per sweep, in order; 0 where a sweep never reaches `target`.
    pub qps: Vec<f32>,
}

impl AtCommonRecall {
    pub fn of(sweeps: &[Vec<SweepPoint>]) -> Self {
        let weakest = sweeps
            .iter()
            .map(|pts| pts.iter().map(|p| p.recall).fold(0.0f32, f32::max))
            .fold(f32::INFINITY, f32::min);
        let target = (weakest * 0.98).min(0.95);
        let qps = sweeps
            .iter()
            .map(|pts| qps_at_recall(pts, target).unwrap_or(0.0))
            .collect();
        Self { target, qps }
    }
}

/// RPQ variants compared in both scenarios (Tables 6–7, Figs. 8–10).
pub(crate) struct Comparison {
    pub hybrid: AtCommonRecall,
    pub memory: AtCommonRecall,
    /// The in-memory sweeps, in variant order.
    pub memory_sweeps: Vec<Vec<SweepPoint>>,
}

/// Trains one RPQ per `(config, store tag)`, in order, on the bench's
/// Vamana graph, and sweeps each in the hybrid scenario over Vamana (one
/// store per tag) and in memory over HNSW.
pub(crate) fn compare_rpq(
    bench: &Bench,
    scale: &Scale,
    variants: &[(RpqTrainerConfig, String)],
) -> Comparison {
    let vamana = Arc::new(build_graph(GraphKind::Vamana, &bench.base, scale.seed));
    let hnsw = Arc::new(build_graph(GraphKind::Hnsw, &bench.base, scale.seed));
    let (mut hybrid, mut memory) = (Vec::new(), Vec::new());
    for (cfg, tag) in variants {
        let (rpq, _) = train_rpq(cfg, &bench.base, &vamana);
        hybrid.push(hybrid_sweep(
            bench,
            &vamana,
            Box::new(rpq.clone()),
            scale,
            tag,
        ));
        memory.push(memory_sweep(bench, &hnsw, Box::new(rpq), scale));
    }
    Comparison {
        hybrid: AtCommonRecall::of(&hybrid),
        memory: AtCommonRecall::of(&memory),
        memory_sweeps: memory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{make_bench, Method};
    use rpq_data::synth::DatasetKind;

    #[test]
    fn hybrid_sweep_removes_its_store() {
        let scale = Scale::ci();
        let bench = make_bench(DatasetKind::Sift, 300, 5, scale.k, scale.seed);
        let graph = Arc::new(build_graph(GraphKind::Vamana, &bench.base, scale.seed));
        let pq = Method::Pq.build(&bench.base, &graph, &scale);
        let tag = format!("unit-test-sweep-{}", std::process::id());
        let points = hybrid_sweep(&bench, &graph, pq, &scale, &tag);
        assert_eq!(points.len(), scale.efs.len());
        assert!(points.iter().all(|p| p.io_ms > 0.0));
        assert!(!store_path(&tag).exists());
    }

    #[test]
    fn common_recall_is_the_weakest_best_capped() {
        let point = |recall: f32, qps: f32| SweepPoint {
            ef: 10,
            recall,
            qps,
            hops: 0.0,
            io_ms: 0.0,
            io_stall_ms: 0.0,
            coalesced_ios: 0.0,
            cache_hit_rate: 0.0,
        };
        let strong = vec![point(0.5, 2000.0), point(1.0, 1000.0)];
        let weak = vec![point(0.5, 900.0)];
        let at = AtCommonRecall::of(&[strong.clone(), weak]);
        assert_eq!(at.target, 0.5 * 0.98);
        assert_eq!(at.qps, vec![2000.0, 900.0]);
        let at = AtCommonRecall::of(&[strong.clone(), strong]);
        assert_eq!(at.target, 0.95);
        assert!(at.qps[0] > 1000.0 && at.qps[0] < 2000.0);
    }
}
