//! Tables 6–7 (feature/loss ablation) and Figure 8 (k_pos/k_neg ratio).

use rpq_core::TrainingMode;
use rpq_data::synth::DatasetKind;

use crate::experiments::compare_rpq;
use crate::report::{Cell, Report};
use crate::scale::Scale;
use crate::setup::{make_bench, rpq_config};

const MODES: [TrainingMode; 4] = [
    TrainingMode::Full,
    TrainingMode::NeighborOnly,
    TrainingMode::RoutingOnly,
    TrainingMode::PathImitation,
];

/// **Tables 6 & 7**: QPS at a common recall operating point for the four
/// RPQ variants, in the hybrid (Table 6) and in-memory (Table 7)
/// scenarios, with each dataset's target in the last row. One training per
/// (dataset, mode); the same learned quantizer serves both scenarios (it
/// is scenario-agnostic by construction).
pub fn tables67(scale: &Scale) -> [Report; 2] {
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
    let labels = MODES
        .iter()
        .map(|mode| mode.label())
        .chain(["common recall target"]);
    // rows[mode][dataset], the target last.
    let mut rows6: Vec<Vec<Cell>> = labels.clone().map(|l| vec![l.into()]).collect();
    let mut rows7: Vec<Vec<Cell>> = labels.map(|l| vec![l.into()]).collect();
    for kind in [
        DatasetKind::Deep,
        DatasetKind::Gist,
        DatasetKind::Sift,
        DatasetKind::Ukbench,
    ] {
        let bench = make_bench(kind, scale.n_base, scale.n_query, scale.k, scale.seed);
        let variants = MODES.map(|mode| {
            let tag = mode.label().replace([' ', '/'], "");
            (
                rpq_config(mode, scale, scale.m, scale.kk),
                format!("t67-{}-{tag}", kind.name()),
            )
        });
        let cmp = compare_rpq(&bench, scale, &variants);
        for (rows, at) in [(&mut rows6, cmp.hybrid), (&mut rows7, cmp.memory)] {
            for (row, v) in rows.iter_mut().zip(at.qps.into_iter().chain([at.target])) {
                row.push(v.into());
            }
        }
    }
    rows6.into_iter().for_each(|r| t6.push_row(r));
    rows7.into_iter().for_each(|r| t7.push_row(r));
    [t6, t7]
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
    for kind in [DatasetKind::Sift, DatasetKind::Deep] {
        let bench = make_bench(kind, scale.n_base, scale.n_query, scale.k, scale.seed);
        let combos = ratios.map(|r| {
            let k_pos = ((total as f32 * r / (1.0 + r)).round() as usize).clamp(1, total - 1);
            (r, k_pos, total - k_pos)
        });
        let variants = combos.map(|(r, k_pos, k_neg)| {
            let mut cfg = rpq_config(TrainingMode::Full, scale, scale.m, scale.kk);
            cfg.triplet_sampler.k_pos = k_pos;
            cfg.triplet_sampler.k_neg = k_neg;
            (cfg, format!("fig8-{}-{}", kind.name(), (r * 100.0) as u32))
        });
        let cmp = compare_rpq(&bench, scale, &variants);
        for (i, (r, k_pos, k_neg)) in combos.into_iter().enumerate() {
            for (scenario, qps) in [("hybrid", &cmp.hybrid.qps), ("in-memory", &cmp.memory.qps)] {
                report.push_row(vec![
                    kind.name().into(),
                    scenario.into(),
                    r.into(),
                    k_pos.into(),
                    k_neg.into(),
                    qps[i].into(),
                ]);
            }
        }
    }
    report
}
