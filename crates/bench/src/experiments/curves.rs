//! Figures 5–7: the headline QPS / Hops / Disk-I/O vs Recall@10 curves for
//! both deployment scenarios.

use std::sync::Arc;

use rpq_data::synth::DatasetKind;

use crate::experiments::{hybrid_sweep, memory_sweep};
use crate::report::{Cell, Report};
use crate::scale::Scale;
use crate::setup::{build_graph, make_bench, GraphKind, Method};

/// **Figure 5**: hybrid (DiskANN) scenario — QPS, Hops and Disk-I/O time vs
/// Recall@10 for PQ / OPQ / Catalyst / RPQ on every dataset.
pub fn fig5(scale: &Scale) -> Report {
    curve_figure(
        scale,
        "fig5",
        "Hybrid scenario: QPS / Hops / IO vs Recall@10 (paper Fig. 5)",
        GraphKind::Vamana,
        &Method::HYBRID,
        true,
    )
}

/// **Figure 6**: in-memory scenario over HNSW — QPS and Hops vs Recall@10
/// for PQ / OPQ / L&C / Catalyst / RPQ.
pub fn fig6(scale: &Scale) -> Report {
    curve_figure(
        scale,
        "fig6",
        "In-memory scenario: QPS / Hops vs Recall@10 — paper Fig. 6 (HNSW)",
        GraphKind::Hnsw,
        &Method::MEMORY_HNSW,
        false,
    )
}

/// **Figure 7**: in-memory scenario over NSG — PQ / OPQ / Catalyst / RPQ.
pub fn fig7(scale: &Scale) -> Report {
    curve_figure(
        scale,
        "fig7",
        "In-memory scenario: QPS / Hops vs Recall@10 — paper Fig. 7 (NSG)",
        GraphKind::Nsg,
        &Method::MEMORY_NSG,
        false,
    )
}

/// Trains each method on one shared graph per dataset and sweeps it: in
/// memory, or in the hybrid scenario (one store per dataset and method,
/// plus the I/O columns).
fn curve_figure(
    scale: &Scale,
    id: &str,
    title: &str,
    graph_kind: GraphKind,
    methods: &[Method],
    hybrid: bool,
) -> Report {
    let mut columns = vec!["Dataset", "Method", "ef", "Recall@10", "QPS", "Hops"];
    if hybrid {
        columns.extend([
            "IO ms/query",
            "IO stall ms/query",
            "coalesced IOs/query",
            "cache hit rate",
        ]);
    }
    let mut report = Report::new(id, title, &scale.label(), &columns);
    for kind in DatasetKind::ALL {
        let bench = make_bench(kind, scale.n_base, scale.n_query, scale.k, scale.seed);
        let graph = Arc::new(build_graph(graph_kind, &bench.base, scale.seed));
        for method in methods {
            let compressor = method.build(&bench.base, &graph, scale);
            let points = if hybrid {
                let tag = format!("{id}-{}-{}", kind.name(), sanitize(&method.name()));
                hybrid_sweep(&bench, &graph, compressor, scale, &tag)
            } else {
                memory_sweep(&bench, &graph, compressor, scale)
            };
            for p in points {
                let mut row: Vec<Cell> = vec![
                    kind.name().into(),
                    method.name().into(),
                    p.ef.into(),
                    p.recall.into(),
                    p.qps.into(),
                    p.hops.into(),
                ];
                if hybrid {
                    row.extend(
                        [p.io_ms, p.io_stall_ms, p.coalesced_ios, p.cache_hit_rate].map(Cell::from),
                    );
                }
                report.push_row(row);
            }
        }
    }
    report
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect()
}
