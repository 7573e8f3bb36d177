//! One module per paper artifact (DESIGN.md §5 maps ids to tables/figures).

pub mod ablation;
pub mod artifacts;
pub mod curves;
pub mod sensitivity;

use std::sync::Arc;

use serde::Serialize;

use rpq_anns::{sweep, DiskIndex, DiskIndexConfig, InMemoryIndex, SweepPoint};
use rpq_graph::ProximityGraph;
use rpq_quant::VectorCompressor;

use crate::scale::Scale;
use crate::setup::{store_path, Bench, Method};

/// JSON-friendly sweep point.
#[derive(Serialize, Clone, Copy, Debug)]
pub struct PointJson {
    pub ef: usize,
    pub recall: f32,
    pub qps: f32,
    pub hops: f32,
    pub io_ms: f32,
    /// Unhidden (QPS-charged) modelled I/O per query, ms.
    pub io_stall_ms: f32,
    /// Coalesced I/O commands per query.
    pub coalesced_ios: f32,
    /// Fraction of node lookups served from the RAM node cache.
    pub cache_hit_rate: f32,
}

impl From<SweepPoint> for PointJson {
    fn from(p: SweepPoint) -> Self {
        Self {
            ef: p.ef,
            recall: p.recall,
            qps: p.qps,
            hops: p.hops,
            io_ms: p.io_ms,
            io_stall_ms: p.io_stall_ms,
            coalesced_ios: p.coalesced_ios,
            cache_hit_rate: p.cache_hit_rate,
        }
    }
}

/// One method's QPS-vs-recall curve.
#[derive(Serialize, Clone, Debug)]
pub struct Curve {
    pub method: String,
    pub points: Vec<PointJson>,
}

/// Trains each method on the shared graph and sweeps it: in memory, or —
/// given a store tag — in the hybrid (DiskANN-style) scenario, one store
/// per method under that tag.
pub fn run_methods(
    bench: &Bench,
    graph: &Arc<ProximityGraph>,
    methods: &[Method],
    scale: &Scale,
    hybrid_tag: Option<&str>,
) -> Vec<(String, Vec<SweepPoint>)> {
    methods
        .iter()
        .map(|m| {
            let compressor = m.build(&bench.base, graph, scale);
            let points = match hybrid_tag {
                None => memory_sweep(bench, graph, compressor, scale),
                Some(tag) => {
                    let tag = format!("{tag}-{}", sanitize(&m.name()));
                    hybrid_sweep(bench, graph, compressor, scale, &tag)
                }
            };
            (m.name(), points)
        })
        .collect()
}

/// Sweeps a single already-trained compressor in the hybrid scenario.
pub fn hybrid_sweep(
    bench: &Bench,
    graph: &Arc<ProximityGraph>,
    compressor: Box<dyn VectorCompressor>,
    scale: &Scale,
    tag: &str,
) -> Vec<SweepPoint> {
    let index = DiskIndex::build(
        compressor,
        &bench.base,
        graph,
        DiskIndexConfig::new(store_path(tag)),
    )
    .expect("disk index build failed");
    sweep(&index, &bench.queries, &bench.gt, scale.k, &scale.efs)
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

/// The highest recall every method in a comparison can reach, capped —
/// used as the common "QPS at the same recall" operating point when the
/// paper's absolute target (95%) is out of reach at reproduction scale.
pub fn common_target(curves: &[(String, Vec<SweepPoint>)], cap: f32) -> f32 {
    let weakest = curves
        .iter()
        .map(|(_, pts)| pts.iter().map(|p| p.recall).fold(0.0f32, f32::max))
        .fold(f32::INFINITY, f32::min);
    (weakest * 0.98).min(cap)
}

/// Converts sweeps into JSON curves.
pub fn to_curves(sweeps: &[(String, Vec<SweepPoint>)]) -> Vec<Curve> {
    sweeps
        .iter()
        .map(|(name, pts)| Curve {
            method: name.clone(),
            points: pts.iter().map(|&p| p.into()).collect(),
        })
        .collect()
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect()
}
