//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p rpq-bench --release --bin experiments -- all
//! cargo run -p rpq-bench --release --bin experiments -- fig5 table6
//! RPQ_SCALE=ci cargo run -p rpq-bench --release --bin experiments -- table2
//! ```
//!
//! Each artifact prints as a markdown table and persists, as the same
//! record, to `bench_results/<id>.json`.

use std::time::Instant;

use rpq_bench::experiments::{ablation, artifacts, curves, sensitivity};
use rpq_bench::Scale;

const ALL: &[&str] = &[
    "table2", "fig4", "fig5", "fig6", "fig7", "table4", "table5", "table6", "table7", "fig8",
    "fig9", "fig10", "fig11", "fig12",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: experiments <id>... | all");
        eprintln!("ids: {}", ALL.join(", "));
        eprintln!("scale via RPQ_SCALE=ci|small|full (default small)");
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!("# RPQ experiment run ({})", scale.label());

    let mut wanted: Vec<&str> = if args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    for id in &wanted {
        if !ALL.contains(id) {
            eprintln!("unknown experiment id: {id}");
            std::process::exit(2);
        }
    }
    // Paired experiments run once for both ids.
    dedup_pairs(&mut wanted);

    for id in wanted {
        let start = Instant::now();
        let reports = match id {
            "table2" => vec![artifacts::table2(&scale)],
            "fig4" => vec![artifacts::fig4(&scale)],
            "fig5" => vec![curves::fig5(&scale)],
            "fig6" => vec![curves::fig6(&scale)],
            "fig7" => vec![curves::fig7(&scale)],
            "table4" | "table5" => artifacts::tables45(&scale).into(),
            "table6" | "table7" => ablation::tables67(&scale).into(),
            "fig8" => vec![ablation::fig8(&scale)],
            "fig9" | "fig10" => sensitivity::fig910(&scale).into(),
            "fig11" => vec![sensitivity::fig11(&scale)],
            "fig12" => vec![sensitivity::fig12(&scale)],
            _ => unreachable!(),
        };
        for report in reports {
            report.print();
            report.write_json();
        }
        eprintln!("[{id}] done in {:.1}s", start.elapsed().as_secs_f32());
    }
}

/// table4/table5, table6/table7 and fig9/fig10 are produced together; keep
/// only the first of each pair.
fn dedup_pairs(ids: &mut Vec<&str>) {
    let pairs = [
        ("table5", "table4"),
        ("table7", "table6"),
        ("fig10", "fig9"),
    ];
    for (dup, canonical) in pairs {
        if ids.contains(&dup) && ids.contains(&canonical) {
            ids.retain(|x| *x != dup);
        }
    }
    let mut seen = std::collections::HashSet::new();
    ids.retain(|x| seen.insert(*x));
}
