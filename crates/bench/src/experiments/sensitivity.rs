//! Figures 9–10 (K and M sensitivity grids) and Figures 11–12
//! (scalability over dataset size).

use std::sync::Arc;

use serde::Serialize;

use rpq_core::{train_rpq, TrainingMode};
use rpq_data::synth::DatasetKind;

use crate::experiments::{common_target, hybrid_sweep, memory_sweep};
use crate::report::{fmt, write_json, Report};
use crate::scale::Scale;
use crate::setup::{build_graph, build_method, make_bench, rpq_config, GraphKind, Method};

/// **Figures 9 & 10**: effect of K (codewords) and M (chunks) on hybrid QPS
/// (Fig. 9) and on the in-memory recall ceiling (Fig. 10), for RPQ.
pub fn fig910(scale: &Scale) -> (Report, Report) {
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
    #[derive(Serialize)]
    struct Out {
        dataset: String,
        k: usize,
        m: usize,
        hybrid_qps: f32,
        memory_max_recall: f32,
    }
    let mut outs = Vec::new();
    // A faster trainer for the 27-cell grid.
    let mut grid_scale = scale.clone();
    grid_scale.rpq_epochs = grid_scale.rpq_epochs.min(2);
    grid_scale.rpq_steps = grid_scale.rpq_steps.min(10);
    for kind in [DatasetKind::Sift, DatasetKind::Deep, DatasetKind::Gist] {
        let bench = make_bench(kind, scale.n_base, scale.n_query, scale.k, scale.seed);
        let vamana = Arc::new(build_graph(GraphKind::Vamana, &bench.base, scale.seed));
        let hnsw = Arc::new(build_graph(GraphKind::Hnsw, &bench.base, scale.seed));
        let mut cells = Vec::new(); // (k, m, hybrid sweep, memory sweep)
        for &kk in &ks {
            for &m in &ms {
                let cfg = rpq_config(TrainingMode::Full, &grid_scale, m, kk);
                let (rpq, _) = train_rpq(&cfg, &bench.base, &vamana);
                let hyb = hybrid_sweep(
                    &bench,
                    &vamana,
                    Box::new(rpq.clone()),
                    scale,
                    &format!("fig9-{}-{kk}-{m}", kind.name()),
                );
                let mem = memory_sweep(&bench, &hnsw, Box::new(rpq), scale);
                cells.push((kk, m, hyb, mem));
            }
        }
        let named: Vec<(String, Vec<rpq_anns::SweepPoint>)> = cells
            .iter()
            .map(|(kk, m, h, _)| (format!("K{kk}M{m}"), h.clone()))
            .collect();
        let target = common_target(&named, 0.95);
        for &kk in &ks {
            let mut row9 = vec![kind.name().to_string(), kk.to_string()];
            let mut row10 = vec![kind.name().to_string(), kk.to_string()];
            for &m in &ms {
                let (_, _, hyb, mem) = cells
                    .iter()
                    .find(|(ck, cm, _, _)| *ck == kk && *cm == m)
                    .unwrap();
                let qps = rpq_anns::qps_at_recall(hyb, target).unwrap_or(0.0);
                let max_recall = mem.iter().map(|p| p.recall).fold(0.0f32, f32::max);
                row9.push(fmt(qps));
                row10.push(fmt(max_recall));
                outs.push(Out {
                    dataset: kind.name().into(),
                    k: kk,
                    m,
                    hybrid_qps: qps,
                    memory_max_recall: max_recall,
                });
            }
            f9.push_row(row9);
            f10.push_row(row10);
        }
    }
    write_json("fig9_fig10", &outs);
    (f9, f10)
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
    #[derive(Serialize)]
    struct Out {
        dataset: String,
        n: usize,
        pq_qps: f32,
        rpq_qps: f32,
    }
    let mut outs = Vec::new();
    for kind in [DatasetKind::Sift, DatasetKind::Deep] {
        for &n in &scale.scalability_sizes {
            let bench = make_bench(kind, n, scale.n_query, scale.k, scale.seed);
            let vamana = Arc::new(build_graph(GraphKind::Vamana, &bench.base, scale.seed));
            let mut sweeps = Vec::new();
            for method in [Method::Pq, Method::Rpq(TrainingMode::Full)] {
                let compressor =
                    build_method(method, &bench.base, &vamana, scale, scale.m, scale.kk);
                let pts = hybrid_sweep(
                    &bench,
                    &vamana,
                    compressor,
                    scale,
                    &format!(
                        "fig11-{}-{n}-{}",
                        kind.name(),
                        method.name().replace(['&', ' ', '/'], "")
                    ),
                );
                sweeps.push((method.name(), pts));
            }
            let target = common_target(&sweeps, 0.95);
            let pq_qps = rpq_anns::qps_at_recall(&sweeps[0].1, target).unwrap_or(0.0);
            let rpq_qps = rpq_anns::qps_at_recall(&sweeps[1].1, target).unwrap_or(0.0);
            report.push_row(vec![
                kind.name().into(),
                n.to_string(),
                fmt(pq_qps),
                fmt(rpq_qps),
            ]);
            outs.push(Out {
                dataset: kind.name().into(),
                n,
                pq_qps,
                rpq_qps,
            });
        }
    }
    write_json("fig11", &outs);
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
    #[derive(Serialize)]
    struct Out {
        dataset: String,
        n: usize,
        pq_qps: f32,
        pq_recall: f32,
        rpq_qps: f32,
        rpq_recall: f32,
    }
    let ef = 64usize;
    let mut outs = Vec::new();
    for kind in [DatasetKind::Sift, DatasetKind::Deep] {
        for &n in &scale.scalability_sizes {
            let bench = make_bench(kind, n, scale.n_query, scale.k, scale.seed);
            let hnsw = Arc::new(build_graph(GraphKind::Hnsw, &bench.base, scale.seed));
            let mut cells = Vec::new();
            for method in [Method::Pq, Method::Rpq(TrainingMode::Full)] {
                let compressor = build_method(method, &bench.base, &hnsw, scale, scale.m, scale.kk);
                let one = crate::scale::Scale {
                    efs: vec![ef],
                    ..scale.clone()
                };
                let pts = memory_sweep(&bench, &hnsw, compressor, &one);
                cells.push(pts[0]);
            }
            report.push_row(vec![
                kind.name().into(),
                n.to_string(),
                fmt(cells[0].qps),
                fmt(cells[0].recall),
                fmt(cells[1].qps),
                fmt(cells[1].recall),
            ]);
            outs.push(Out {
                dataset: kind.name().into(),
                n,
                pq_qps: cells[0].qps,
                pq_recall: cells[0].recall,
                rpq_qps: cells[1].qps,
                rpq_recall: cells[1].recall,
            });
        }
    }
    write_json("fig12", &outs);
    report
}
