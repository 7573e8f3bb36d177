//! Figures 5–7: the headline QPS / Hops / Disk-I/O vs Recall@10 curves for
//! both deployment scenarios.

use std::sync::Arc;

use serde::Serialize;

use rpq_data::synth::DatasetKind;

use crate::experiments::{run_methods, to_curves, Curve};
use crate::report::{fmt, write_json, Report};
use crate::scale::Scale;
use crate::setup::{build_graph, make_bench, GraphKind, Method};

#[derive(Serialize)]
struct DatasetCurves {
    dataset: String,
    curves: Vec<Curve>,
}

/// **Figure 5**: hybrid (DiskANN) scenario — QPS, Hops and Disk-I/O time vs
/// Recall@10 for PQ / OPQ / Catalyst / RPQ on every dataset.
pub fn fig5(scale: &Scale) -> Report {
    let mut report = Report::new(
        "fig5",
        "Hybrid scenario: QPS / Hops / IO vs Recall@10 (paper Fig. 5)",
        &scale.label(),
        &[
            "Dataset",
            "Method",
            "ef",
            "Recall@10",
            "QPS",
            "Hops",
            "IO ms/query",
        ],
    );
    let mut outs = Vec::new();
    for kind in DatasetKind::ALL {
        let bench = make_bench(kind, scale.n_base, scale.n_query, scale.k, scale.seed);
        let graph = Arc::new(build_graph(GraphKind::Vamana, &bench.base, scale.seed));
        let tag = format!("fig5-{}", kind.name());
        let sweeps = run_methods(&bench, &graph, &Method::HYBRID, scale, Some(&tag));
        for (method, pts) in &sweeps {
            for p in pts {
                report.push_row(vec![
                    kind.name().into(),
                    method.clone(),
                    p.ef.to_string(),
                    fmt(p.recall),
                    fmt(p.qps),
                    fmt(p.hops),
                    fmt(p.io_ms),
                ]);
            }
        }
        outs.push(DatasetCurves {
            dataset: kind.name().into(),
            curves: to_curves(&sweeps),
        });
    }
    write_json("fig5", &outs);
    report
}

/// **Figure 6**: in-memory scenario over HNSW — QPS and Hops vs Recall@10
/// for PQ / OPQ / L&C / Catalyst / RPQ.
pub fn fig6(scale: &Scale) -> Report {
    memory_figure(
        scale,
        "fig6",
        GraphKind::Hnsw,
        &Method::MEMORY_HNSW,
        "paper Fig. 6 (HNSW)",
    )
}

/// **Figure 7**: in-memory scenario over NSG — PQ / OPQ / Catalyst / RPQ.
pub fn fig7(scale: &Scale) -> Report {
    memory_figure(
        scale,
        "fig7",
        GraphKind::Nsg,
        &Method::MEMORY_NSG,
        "paper Fig. 7 (NSG)",
    )
}

fn memory_figure(
    scale: &Scale,
    id: &str,
    graph_kind: GraphKind,
    methods: &[Method],
    title: &str,
) -> Report {
    let mut report = Report::new(
        id,
        &format!("In-memory scenario: QPS / Hops vs Recall@10 — {title}"),
        &scale.label(),
        &["Dataset", "Method", "ef", "Recall@10", "QPS", "Hops"],
    );
    let mut outs = Vec::new();
    for kind in DatasetKind::ALL {
        let bench = make_bench(kind, scale.n_base, scale.n_query, scale.k, scale.seed);
        let graph = Arc::new(build_graph(graph_kind, &bench.base, scale.seed));
        let sweeps = run_methods(&bench, &graph, methods, scale, None);
        for (method, pts) in &sweeps {
            for p in pts {
                report.push_row(vec![
                    kind.name().into(),
                    method.clone(),
                    p.ef.to_string(),
                    fmt(p.recall),
                    fmt(p.qps),
                    fmt(p.hops),
                ]);
            }
        }
        outs.push(DatasetCurves {
            dataset: kind.name().into(),
            curves: to_curves(&sweeps),
        });
    }
    write_json(id, &outs);
    report
}
