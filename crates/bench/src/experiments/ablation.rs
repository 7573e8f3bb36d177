//! Tables 6–7 (feature/loss ablation) and Figure 8 (k_pos/k_neg ratio).

use std::sync::Arc;

use serde::Serialize;

use rpq_core::{train_rpq, TrainingMode};
use rpq_data::synth::DatasetKind;

use crate::experiments::{common_target, hybrid_sweep, memory_sweep};
use crate::report::{fmt, write_json, Report};
use crate::scale::Scale;
use crate::setup::{build_graph, make_bench, rpq_config, GraphKind};

const MODES: [TrainingMode; 4] = [
    TrainingMode::Full,
    TrainingMode::NeighborOnly,
    TrainingMode::RoutingOnly,
    TrainingMode::PathImitation,
];

/// **Tables 6 & 7**: QPS at a common recall operating point for the four
/// RPQ variants, in the hybrid (Table 6) and in-memory (Table 7)
/// scenarios. One training per (dataset, mode); the same learned quantizer
/// serves both scenarios (it is scenario-agnostic by construction).
pub fn tables67(scale: &Scale) -> (Report, Report) {
    let mut t6 = Report::new(
        "table6",
        "Ablation, hybrid scenario: QPS at common recall (paper Table 6, 95%)",
        &scale.label(),
        &["Method", "Deep", "Gist", "Sift", "Ukbench"],
    );
    let mut t7 = Report::new(
        "table7",
        "Ablation, in-memory scenario: QPS at common recall (paper Table 7)",
        &scale.label(),
        &["Method", "Deep", "Gist", "Sift", "Ukbench"],
    );
    #[derive(Serialize)]
    struct Out {
        dataset: String,
        mode: String,
        hybrid_qps: f32,
        memory_qps: f32,
        hybrid_target: f32,
        memory_target: f32,
    }
    let kinds = [
        DatasetKind::Deep,
        DatasetKind::Gist,
        DatasetKind::Sift,
        DatasetKind::Ukbench,
    ];
    // rows[mode][dataset]
    let mut hybrid_cells = vec![Vec::new(); MODES.len()];
    let mut memory_cells = vec![Vec::new(); MODES.len()];
    let mut outs = Vec::new();
    for kind in kinds {
        let bench = make_bench(kind, scale.n_base, scale.n_query, scale.k, scale.seed);
        let vamana = Arc::new(build_graph(GraphKind::Vamana, &bench.base, scale.seed));
        let hnsw = Arc::new(build_graph(GraphKind::Hnsw, &bench.base, scale.seed));
        let mut hybrid_sweeps = Vec::new();
        let mut memory_sweeps = Vec::new();
        for mode in MODES {
            let cfg = rpq_config(mode, scale, scale.m, scale.kk);
            let (rpq, _) = train_rpq(&cfg, &bench.base, &vamana);
            let hyb = hybrid_sweep(
                &bench,
                &vamana,
                Box::new(rpq.clone()),
                scale,
                &format!(
                    "t67-{}-{}",
                    kind.name(),
                    mode.label().replace([' ', '/'], "")
                ),
            );
            let mem = memory_sweep(&bench, &hnsw, Box::new(rpq), scale);
            hybrid_sweeps.push((mode.label().to_string(), hyb));
            memory_sweeps.push((mode.label().to_string(), mem));
        }
        let ht = common_target(&hybrid_sweeps, 0.95);
        let mt = common_target(&memory_sweeps, 0.95);
        for (i, mode) in MODES.iter().enumerate() {
            let hq = rpq_anns::qps_at_recall(&hybrid_sweeps[i].1, ht).unwrap_or(0.0);
            let mq = rpq_anns::qps_at_recall(&memory_sweeps[i].1, mt).unwrap_or(0.0);
            hybrid_cells[i].push(hq);
            memory_cells[i].push(mq);
            outs.push(Out {
                dataset: kind.name().into(),
                mode: mode.label().into(),
                hybrid_qps: hq,
                memory_qps: mq,
                hybrid_target: ht,
                memory_target: mt,
            });
        }
    }
    for (i, mode) in MODES.iter().enumerate() {
        let mut row6 = vec![mode.label().to_string()];
        row6.extend(hybrid_cells[i].iter().map(|&v| fmt(v)));
        t6.push_row(row6);
        let mut row7 = vec![mode.label().to_string()];
        row7.extend(memory_cells[i].iter().map(|&v| fmt(v)));
        t7.push_row(row7);
    }
    write_json("table6_table7", &outs);
    (t6, t7)
}

/// **Figure 8**: effect of the k_pos/k_neg ratio on QPS in both scenarios
/// (Sift-like and Deep-like).
pub fn fig8(scale: &Scale) -> Report {
    let ratios = [0.02f32, 0.2, 0.5, 0.8, 0.98];
    let total = 25usize;
    let mut report = Report::new(
        "fig8",
        "Effect of k_pos/k_neg on QPS at common recall (paper Fig. 8)",
        &scale.label(),
        &["Dataset", "Scenario", "ratio", "k_pos", "k_neg", "QPS"],
    );
    #[derive(Serialize)]
    struct Out {
        dataset: String,
        ratio: f32,
        k_pos: usize,
        k_neg: usize,
        hybrid_qps: f32,
        memory_qps: f32,
    }
    let mut outs = Vec::new();
    for kind in [DatasetKind::Sift, DatasetKind::Deep] {
        let bench = make_bench(kind, scale.n_base, scale.n_query, scale.k, scale.seed);
        let vamana = Arc::new(build_graph(GraphKind::Vamana, &bench.base, scale.seed));
        let hnsw = Arc::new(build_graph(GraphKind::Hnsw, &bench.base, scale.seed));
        let mut hyb_sweeps = Vec::new();
        let mut mem_sweeps = Vec::new();
        let mut combos = Vec::new();
        for &r in &ratios {
            let k_pos = ((total as f32 * r / (1.0 + r)).round() as usize).clamp(1, total - 1);
            let k_neg = total - k_pos;
            let mut cfg = rpq_config(TrainingMode::Full, scale, scale.m, scale.kk);
            cfg.triplet_sampler.k_pos = k_pos;
            cfg.triplet_sampler.k_neg = k_neg;
            let (rpq, _) = train_rpq(&cfg, &bench.base, &vamana);
            let hyb = hybrid_sweep(
                &bench,
                &vamana,
                Box::new(rpq.clone()),
                scale,
                &format!("fig8-{}-{}", kind.name(), (r * 100.0) as u32),
            );
            let mem = memory_sweep(&bench, &hnsw, Box::new(rpq), scale);
            hyb_sweeps.push((format!("r={r}"), hyb));
            mem_sweeps.push((format!("r={r}"), mem));
            combos.push((r, k_pos, k_neg));
        }
        let ht = common_target(&hyb_sweeps, 0.95);
        let mt = common_target(&mem_sweeps, 0.95);
        for (i, &(r, k_pos, k_neg)) in combos.iter().enumerate() {
            let hq = rpq_anns::qps_at_recall(&hyb_sweeps[i].1, ht).unwrap_or(0.0);
            let mq = rpq_anns::qps_at_recall(&mem_sweeps[i].1, mt).unwrap_or(0.0);
            report.push_row(vec![
                kind.name().into(),
                "hybrid".into(),
                fmt(r),
                k_pos.to_string(),
                k_neg.to_string(),
                fmt(hq),
            ]);
            report.push_row(vec![
                kind.name().into(),
                "in-memory".into(),
                fmt(r),
                k_pos.to_string(),
                k_neg.to_string(),
                fmt(mq),
            ]);
            outs.push(Out {
                dataset: kind.name().into(),
                ratio: r,
                k_pos,
                k_neg,
                hybrid_qps: hq,
                memory_qps: mq,
            });
        }
    }
    write_json("fig8", &outs);
    report
}
