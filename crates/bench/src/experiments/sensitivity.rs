//! Figures 9–10 (K and M sensitivity grids) and Figures 11–12
//! (scalability over dataset size).

use std::sync::Arc;

use rpq_core::TrainingMode;
use rpq_data::synth::DatasetKind;

use crate::experiments::{compare_rpq, hybrid_sweep, memory_sweep, AtCommonRecall};
use crate::report::{Cell, Report};
use crate::scale::Scale;
use crate::setup::{build_graph, make_bench, rpq_config, GraphKind, Method};

/// **Figures 9 & 10**: effect of K (codewords) and M (chunks) on hybrid QPS
/// (Fig. 9) and on the in-memory recall ceiling (Fig. 10), for RPQ.
pub fn fig910(scale: &Scale) -> [Report; 2] {
    let ks = [64usize, 128, 256];
    let ms = [8usize, 16, 32];
    let mut f9 = Report::new(
        "fig9",
        "Effect of K and M, hybrid scenario: QPS at common recall (paper Fig. 9)",
        &scale.label(),
        &["Dataset", "K", "M=8", "M=16", "M=32"],
    );
    let mut f10 = Report::new(
        "fig10",
        "Effect of K and M, in-memory: max Recall@10 (paper Fig. 10)",
        &scale.label(),
        &["Dataset", "K", "M=8", "M=16", "M=32"],
    );
    // A faster trainer for the 27-cell grid.
    let mut grid_scale = scale.clone();
    grid_scale.rpq_epochs = grid_scale.rpq_epochs.min(2);
    grid_scale.rpq_steps = grid_scale.rpq_steps.min(10);
    for kind in [DatasetKind::Sift, DatasetKind::Deep, DatasetKind::Gist] {
        let bench = make_bench(kind, scale.n_base, scale.n_query, scale.k, scale.seed);
        let variants: Vec<_> = ks
            .iter()
            .flat_map(|&kk| {
                ms.map(|m| {
                    let cfg = rpq_config(TrainingMode::Full, &grid_scale, m, kk);
                    (cfg, format!("fig9-{}-{kk}-{m}", kind.name()))
                })
            })
            .collect();
        let cmp = compare_rpq(&bench, scale, &variants);
        let qps_rows = cmp.hybrid.qps.chunks(ms.len());
        for ((&kk, qps), sweeps) in ks
            .iter()
            .zip(qps_rows)
            .zip(cmp.memory_sweeps.chunks(ms.len()))
        {
            let mut row9: Vec<Cell> = vec![kind.name().into(), kk.into()];
            let mut row10 = row9.clone();
            row9.extend(qps.iter().map(|&q| Cell::from(q)));
            row10.extend(
                sweeps
                    .iter()
                    .map(|pts| Cell::from(pts.iter().map(|p| p.recall).fold(0.0f32, f32::max))),
            );
            f9.push_row(row9);
            f10.push_row(row10);
        }
    }
    [f9, f10]
}

/// **Figure 11**: scalability of DiskANN-PQ vs DiskANN-RPQ (hybrid) over
/// dataset size — QPS at a common recall operating point per size.
pub fn fig11(scale: &Scale) -> Report {
    let mut report = Report::new(
        "fig11",
        "Scalability, hybrid: QPS at common recall vs scale (paper Fig. 11)",
        &scale.label(),
        &["Dataset", "n", "DiskANN-PQ", "DiskANN-RPQ"],
    );
    for kind in [DatasetKind::Sift, DatasetKind::Deep] {
        for &n in &scale.scalability_sizes {
            let bench = make_bench(kind, n, scale.n_query, scale.k, scale.seed);
            let vamana = Arc::new(build_graph(GraphKind::Vamana, &bench.base, scale.seed));
            let sweeps: Vec<_> = [Method::Pq, Method::Rpq(TrainingMode::Full)]
                .iter()
                .map(|method| {
                    let compressor = method.build(&bench.base, &vamana, scale);
                    let name = method.name().replace(['&', ' ', '/'], "");
                    let tag = format!("fig11-{}-{n}-{name}", kind.name());
                    hybrid_sweep(&bench, &vamana, compressor, scale, &tag)
                })
                .collect();
            let mut row: Vec<Cell> = vec![kind.name().into(), n.into()];
            row.extend(AtCommonRecall::of(&sweeps).qps.into_iter().map(Cell::from));
            report.push_row(row);
        }
    }
    report
}

/// **Figure 12**: scalability of HNSW-PQ vs HNSW-RPQ (in-memory) — QPS at a
/// fixed beam width with the achieved recall annotated (the paper's bar
/// labels).
pub fn fig12(scale: &Scale) -> Report {
    let mut report = Report::new(
        "fig12",
        "Scalability, in-memory: QPS (recall annotated) vs scale (paper Fig. 12)",
        &scale.label(),
        &[
            "Dataset",
            "n",
            "HNSW-PQ QPS",
            "PQ recall",
            "HNSW-RPQ QPS",
            "RPQ recall",
        ],
    );
    let one = Scale {
        efs: vec![64],
        ..scale.clone()
    };
    for kind in [DatasetKind::Sift, DatasetKind::Deep] {
        for &n in &scale.scalability_sizes {
            let bench = make_bench(kind, n, scale.n_query, scale.k, scale.seed);
            let hnsw = Arc::new(build_graph(GraphKind::Hnsw, &bench.base, scale.seed));
            let mut row: Vec<Cell> = vec![kind.name().into(), n.into()];
            for method in [Method::Pq, Method::Rpq(TrainingMode::Full)] {
                let compressor = method.build(&bench.base, &hnsw, scale);
                let p = memory_sweep(&bench, &hnsw, compressor, &one)[0];
                row.extend([p.qps.into(), p.recall.into()]);
            }
            report.push_row(row);
        }
    }
    report
}
