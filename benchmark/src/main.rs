//! `rpq-perf` — the performance benchmark of the RPQ workspace.
//!
//! ```text
//! rpq-perf run --workload <name|all> --seed N [--seconds S] [--trace 0|1] [--runs N] [--out FILE]
//! rpq-perf compare A.json B.json
//! ```
//!
//! `run --workload <name>` runs one workload in this process, prints every
//! metric by name with unit, direction and bound, and ends its standard
//! output with the one-line JSON result `BENCHMARK.json`'s driver reads.
//! `run --workload all` runs every workload `--runs` times round-robin, each
//! run a fresh child process, and saves the set for `compare`.
//! See `benchmark/README.md`.

mod adapter;
mod checks;
mod estimator;
mod metrics;
mod set;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Report, RunCfg};

const USAGE: &str = "usage:
  rpq-perf run --workload <mem-search|disk-search|stream-churn|serve-fanout|train-rpq|all>
               --seed N [--seconds S] [--trace 0|1] [--runs N] [--out FILE]
  rpq-perf compare A.json B.json";

/// `--key value` pairs after the subcommand.
fn flag<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.windows(2).find(|w| w[0] == key).map(|w| w[1].as_str())
}

fn parse<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match flag(args, key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("{key}: cannot read {raw:?}")),
    }
}

fn run_workload(name: &str, cfg: &RunCfg) -> Option<Report> {
    Some(match name {
        "mem-search" => workloads::mem_search::run(cfg),
        "disk-search" => workloads::disk_search::run(cfg),
        "stream-churn" => workloads::stream_churn::run(cfg),
        "serve-fanout" => workloads::serve_fanout::run(cfg),
        "train-rpq" => workloads::train_rpq::run(cfg),
        _ => return None,
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    let seed: u64 = parse(args, "--seed", 42)?;
    let seconds: f64 = parse(args, "--seconds", 10.0)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let trace = match flag(args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };

    if workload == "all" {
        let runs: usize = parse(args, "--runs", 3)?;
        let set = set::run_all(seed, seconds, runs.max(1), trace)?;
        let default_out =
            workloads::out_dir().join(format!("set-seed{seed}-{}.json", std::process::id()));
        let out = flag(args, "--out").map_or(default_out, PathBuf::from);
        set::save(&set, &out)?;
        let all_correct = set::print_summary(&set);
        println!("set saved to {}", out.display());
        return Ok(if all_correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let cfg = RunCfg {
        seed,
        seconds,
        trace,
    };
    if trace {
        // From the start, so set-up's `graph.build` / `quant.train` spans are
        // in the span file; the phases switch recording off and on themselves.
        trace::enable();
    }
    let report =
        run_workload(workload, &cfg).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    set::print_report(&report);
    let to_line = |v: &serde_json::Value| serde_json::to_string(v).map_err(|e| e.to_string());
    println!(
        "{}{}",
        set::RESULT_PREFIX,
        to_line(&set::run_json(&report, seed, seconds, trace))?
    );
    // Last line: the driver's contract. A run that cannot fill it in (an
    // operation failed so early that a metric is missing) has no result.
    println!("{}", to_line(&set::contract_json(&report, trace)?)?);
    Ok(ExitCode::SUCCESS)
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two set files".into());
    };
    let (a, b) = (set::load(&PathBuf::from(a))?, set::load(&PathBuf::from(b))?);
    let (regressions, _) = set::compare(&a, &b);
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("rpq-perf: {msg}");
            ExitCode::from(2)
        }
    }
}
