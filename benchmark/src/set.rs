//! Sets of runs: the round-robin driver that produces one, the file format
//! it is saved in, the summary table, and `compare` between two sets.
//!
//! A set is what `run --workload all --runs N` produces: every workload run
//! N times, round-robin (`w1 w2 … w5 w1 …`) so that a slow episode of the
//! box cannot land on all runs of one workload, each run a fresh child
//! process (sequential, never concurrent) so `peak_rss_mb` and allocator
//! state are per run.

use std::path::Path;
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::estimator::{all_exact_equal, median};
use crate::metrics::{Better, EndToEnd, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::Report;

/// Marks the line of a run's stdout that carries its full result.
pub const RESULT_PREFIX: &str = "RESULT ";

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metrics_obj(values: &[(&'static str, f64)]) -> Value {
    obj(values.iter().map(|&(k, v)| (k, Value::Number(v))).collect())
}

/// A run's full result: what the driver collects into a set.
pub fn run_json(report: &Report, seed: u64, seconds: f64, trace: bool) -> Value {
    obj(vec![
        ("workload", Value::String(report.workload.into())),
        ("seed", Value::Number(seed as f64)),
        ("seconds", Value::Number(seconds)),
        ("trace", Value::Bool(trace)),
        ("correct", Value::Bool(report.tally.failed == 0)),
        ("attempted", Value::Number(report.tally.attempted as f64)),
        ("failed", Value::Number(report.tally.failed as f64)),
        ("end_to_end", metrics_obj(&report.e2e)),
        ("per_layer", metrics_obj(&report.layer)),
    ])
}

/// The result line of the driver's contract: `correct`, `attempted`,
/// `failed` and `metrics` — every `end_to_end` metric of `BENCHMARK.json`
/// on an untraced run, every `per_layer` metric on a traced one (0 for a
/// layer the workload does not exercise).
pub fn contract_json(report: &Report, trace: bool) -> Result<Value, String> {
    let lookup = |values: &[(&'static str, f64)], name: &str| {
        values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    };
    let entry = |name: &str, unit: &str, value: f64| {
        (
            name.to_string(),
            obj(vec![
                ("value", Value::Number(value)),
                ("unit", Value::String(unit.into())),
            ]),
        )
    };
    let metrics: Vec<(String, Value)> = if trace {
        PER_LAYER
            .iter()
            .map(|m| entry(m.name, m.unit, lookup(&report.layer, m.name).unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.in_contract())
            .map(|m| {
                lookup(&report.e2e, m.name)
                    .filter(|v| v.is_finite() && *v != 0.0)
                    .map(|v| entry(m.name, m.unit, v))
                    .ok_or_else(|| {
                        format!("{} has no non-zero value for {}", report.workload, m.name)
                    })
            })
            .collect::<Result<_, _>>()?
    };
    Ok(obj(vec![
        ("correct", Value::Bool(report.tally.failed == 0)),
        (
            "attempted",
            Value::Number(report.tally.attempted.max(1) as f64),
        ),
        ("failed", Value::Number(report.tally.failed as f64)),
        ("metrics", Value::Object(metrics)),
    ]))
}

/// Prints one run: every metric by name with unit, direction and bound.
pub fn print_report(report: &Report) {
    println!("== {} ==", report.workload);
    for &(name, value) in &report.e2e {
        let m = crate::metrics::end_to_end(name).expect("registered end-to-end metric");
        let kind = if m.exact { "exact" } else { "timed" };
        let bound = if m.in_contract() {
            format!("{} {kind} (driver {})", m.bound, m.driver_bound)
        } else {
            format!("{} {kind}", m.bound)
        };
        println!(
            "  {name:<24} {value:>16.6} {:<9} better {:<6} bound {bound}",
            m.unit,
            m.better.as_str()
        );
    }
    for &(name, value) in &report.layer {
        let m = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .expect("registered per-layer metric");
        let modeled = if m.modeled { " [modeled]" } else { "" };
        println!(
            "  {name:<34} {value:>16.6} {:<9} better {:<6}{modeled} -> {}",
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
    for note in &report.notes {
        println!("  # {note}");
    }
    println!(
        "  # {} operations and invariants attempted, {} failed",
        report.tally.attempted, report.tally.failed
    );
    for msg in &report.tally.messages {
        println!("  ! {msg}");
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine facts every set file records.
fn facts(seed: u64, seconds: f64, runs: usize, trace: bool) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        (
            "git_sha",
            Value::String(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rustc",
            Value::String(command_line("rustc", &["--version"])),
        ),
        ("nproc", Value::Number(nproc as f64)),
        (
            "rayon_width",
            Value::Number(rayon::current_num_threads() as f64),
        ),
        ("seed", Value::Number(seed as f64)),
        ("seconds", Value::Number(seconds)),
        ("runs", Value::Number(runs as f64)),
        ("trace", Value::Bool(trace)),
    ])
}

/// Runs every workload `runs` times round-robin, each as a child process of
/// this executable, and returns the set.
pub fn run_all(seed: u64, seconds: f64, runs: usize, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for run in 0..runs {
        for workload in WORKLOADS {
            eprintln!("[run {}/{runs}] {workload}", run + 1);
            let out = Command::new(&exe)
                .args(["run", "--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout
                .lines()
                .find_map(|l| l.strip_prefix(RESULT_PREFIX))
                .ok_or_else(|| format!("{workload} exited with {} and no result", out.status))?;
            let mut result = serde_json::from_str(line).map_err(|e| e.to_string())?;
            if let Value::Object(fields) = &mut result {
                fields.push(("run".into(), Value::Number(run as f64)));
            }
            results.push(result);
        }
    }
    Ok(obj(vec![
        ("facts", facts(seed, seconds, runs, trace)),
        ("results", Value::Array(results)),
    ]))
}

pub fn save(set: &Value, path: &Path) -> Result<(), String> {
    let text = serde_json::to_string_pretty(set).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every value a set has for one workload's metric, in run order.
fn values(set: &Value, workload: &str, section: &str, metric: &str) -> Vec<f64> {
    set["results"]
        .as_array()
        .map(|results| {
            results
                .iter()
                .filter(|r| r["workload"] == workload)
                .filter_map(|r| r[section][metric].as_f64())
                .collect()
        })
        .unwrap_or_default()
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// Median of a set of runs with min and max beside it, per workload and
/// metric; returns whether every run was correct.
pub fn print_summary(set: &Value) -> bool {
    println!(
        "facts: {}",
        serde_json::to_string(&set["facts"]).unwrap_or_default()
    );
    let mut all_correct = true;
    for workload in WORKLOADS {
        println!("== {workload} ==");
        for m in &END_TO_END {
            let v = values(set, workload, "end_to_end", m.name);
            if v.is_empty() {
                continue;
            }
            let (lo, hi) = min_max(&v);
            let kind = if m.exact { "exact" } else { "timed" };
            println!(
                "  {:<24} median {:>14.6} [min {:.6}, max {:.6}] {:<9} better {:<6} bound {:<5} {kind}  n = {}",
                m.name,
                median(&v),
                lo,
                hi,
                m.unit,
                m.better.as_str(),
                m.bound,
                v.len()
            );
            if m.exact && !all_exact_equal(&v) {
                println!(
                    "  ! {} is exact but did not repeat across runs of one seed",
                    m.name
                );
                all_correct = false;
            }
        }
        for m in &PER_LAYER {
            let v = values(set, workload, "per_layer", m.name);
            if v.is_empty() {
                continue;
            }
            let (lo, hi) = min_max(&v);
            let modeled = if m.modeled { " [modeled]" } else { "" };
            println!(
                "  {:<34} median {:>14.6} [min {:.6}, max {:.6}] {:<9} better {:<6}{modeled} n = {}",
                m.name,
                median(&v),
                lo,
                hi,
                m.unit,
                m.better.as_str(),
                v.len()
            );
        }
    }
    if let Some(results) = set["results"].as_array() {
        for r in results {
            if r["correct"] != Value::Bool(true) {
                println!(
                    "! {} run {}: {} of {} failed",
                    r["workload"].as_str().unwrap_or("?"),
                    r["run"].as_f64().unwrap_or(-1.0),
                    r["failed"].as_f64().unwrap_or(-1.0),
                    r["attempted"].as_f64().unwrap_or(-1.0)
                );
                all_correct = false;
            }
        }
    }
    all_correct
}

/// What `compare` concluded for one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Exact metric, every run of both sets reads the same.
    Identical,
    /// Exact metric that moved, by no more than the bound in the bad
    /// direction.
    Changed,
    Unchanged,
    Improved,
    /// A set's own min–max spread is wider than the bound, so the two
    /// medians cannot be told apart: not "unchanged".
    Unresolved,
    Regression,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_frac(m: &EndToEnd, a: f64, b: f64) -> f64 {
    let delta = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let worse = worse_frac(m, median(a), median(b));
    if m.exact {
        let mut all = a.to_vec();
        all.extend_from_slice(b);
        return if all_exact_equal(&all) {
            Verdict::Identical
        } else if worse > m.bound {
            Verdict::Regression
        } else {
            Verdict::Changed
        };
    }
    let spread = |v: &[f64]| {
        let (lo, hi) = min_max(v);
        (hi - lo) / median(v).abs()
    };
    if spread(a).max(spread(b)) > m.bound {
        // Resolved all the same when the two sets do not overlap at all.
        let (a_lo, a_hi) = min_max(a);
        let (b_lo, b_hi) = min_max(b);
        let (b_all_better, b_all_worse) = match m.better {
            Better::Lower => (b_hi < a_lo, b_lo > a_hi),
            Better::Higher => (b_lo > a_hi, b_hi < a_lo),
        };
        return if b_all_better {
            Verdict::Improved
        } else if b_all_worse && worse > m.bound {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        };
    }
    if worse > m.bound {
        Verdict::Regression
    } else if worse < -m.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Prints the comparison of two sets and returns (regressions, unresolved).
pub fn compare(a: &Value, b: &Value) -> (usize, usize) {
    println!(
        "A: {}",
        serde_json::to_string(&a["facts"]).unwrap_or_default()
    );
    println!(
        "B: {}",
        serde_json::to_string(&b["facts"]).unwrap_or_default()
    );
    if a["facts"]["seed"] != b["facts"]["seed"] || a["facts"]["seconds"] != b["facts"]["seconds"] {
        println!("! the sets differ in seed or seconds: exact metrics are expected to differ");
    }
    let (mut regressions, mut unresolved) = (0, 0);
    for workload in WORKLOADS {
        println!("== {workload} ==");
        for m in &END_TO_END {
            let va = values(a, workload, "end_to_end", m.name);
            let vb = values(b, workload, "end_to_end", m.name);
            if va.is_empty() || vb.is_empty() {
                if m.applies_to(workload) {
                    println!("  {:<24} missing from a set", m.name);
                }
                continue;
            }
            let verdict = judge(m, &va, &vb);
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "  {:<24} A {:>14.6}  B {:>14.6}  {:+8.3} % worse  bound {:>5.1} %  {:<9} {:?}",
                m.name,
                ma,
                mb,
                worse_frac(m, ma, mb) * 100.0,
                m.bound * 100.0,
                m.unit,
                verdict
            );
            match verdict {
                Verdict::Regression => regressions += 1,
                Verdict::Unresolved => unresolved += 1,
                _ => {}
            }
        }
    }
    println!("{regressions} regressions, {unresolved} unresolved");
    (regressions, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn set(seed: f64, runs: &[(&str, &[(&str, f64)])]) -> Value {
        let results = runs
            .iter()
            .map(|(w, metrics)| {
                obj(vec![
                    ("workload", Value::String((*w).into())),
                    ("correct", Value::Bool(true)),
                    (
                        "end_to_end",
                        obj(metrics
                            .iter()
                            .map(|&(k, v)| (k, Value::Number(v)))
                            .collect()),
                    ),
                    ("per_layer", obj(vec![])),
                ])
            })
            .collect();
        obj(vec![
            (
                "facts",
                obj(vec![
                    ("seed", Value::Number(seed)),
                    ("seconds", Value::Number(10.0)),
                ]),
            ),
            ("results", Value::Array(results)),
        ])
    }

    #[test]
    fn timed_metric_within_bound_is_unchanged_beyond_is_regression() {
        let qps = end_to_end("qps").unwrap();
        assert_eq!(
            judge(qps, &[9000.0, 9100.0, 9050.0], &[8900.0, 9000.0, 8950.0]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(qps, &[9000.0, 9100.0, 9050.0], &[7000.0, 7100.0, 7050.0]),
            Verdict::Regression
        );
        assert_eq!(
            judge(qps, &[9000.0, 9100.0, 9050.0], &[10900.0, 11000.0, 10950.0]),
            Verdict::Improved
        );
        // Direction: for a latency, larger is worse.
        let p50 = end_to_end("p50_us").unwrap();
        assert_eq!(
            judge(p50, &[100.0, 101.0, 102.0], &[130.0, 131.0, 129.0]),
            Verdict::Regression
        );
        assert_eq!(
            judge(p50, &[100.0, 101.0, 102.0], &[80.0, 81.0, 79.0]),
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let qps = end_to_end("qps").unwrap();
        // A's own runs span 20 % of its median: wider than the 10 % bound.
        let a = [9000.0, 10000.0, 8000.0];
        assert_eq!(
            judge(qps, &a, &[9000.0, 9050.0, 8950.0]),
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A,
        assert_eq!(
            judge(qps, &a, &[10500.0, 10600.0, 10700.0]),
            Verdict::Improved
        );
        // ... or loses to every run of A by more than the bound.
        assert_eq!(
            judge(qps, &a, &[6000.0, 6100.0, 6200.0]),
            Verdict::Regression
        );
    }

    #[test]
    fn exact_metric_must_repeat_bit_for_bit() {
        let recall = end_to_end("recall_at_10").unwrap();
        assert_eq!(
            judge(recall, &[0.3367, 0.3367], &[0.3367, 0.3367]),
            Verdict::Identical
        );
        assert_eq!(
            judge(recall, &[0.3367, 0.3367], &[0.3366, 0.3366]),
            Verdict::Changed
        );
        assert_eq!(
            judge(recall, &[0.3367, 0.3367], &[0.30, 0.30]),
            Verdict::Regression
        );
        assert_eq!(
            judge(recall, &[0.3367, 0.3367], &[0.40, 0.40]),
            Verdict::Changed
        );
    }

    #[test]
    fn compare_counts_regressions_and_unresolved_on_hand_made_sets() {
        let a = set(
            42.0,
            &[
                (
                    "mem-search",
                    &[("qps", 9000.0), ("recall_at_10", 0.3367), ("p99_us", 200.0)],
                ),
                (
                    "mem-search",
                    &[("qps", 9100.0), ("recall_at_10", 0.3367), ("p99_us", 300.0)],
                ),
                (
                    "disk-search",
                    &[("qps", 5000.0), ("io_sectors_per_query", 104.5)],
                ),
                (
                    "disk-search",
                    &[("qps", 5050.0), ("io_sectors_per_query", 104.5)],
                ),
            ],
        );
        let same = compare(&a, &a);
        assert_eq!(same, (0, 1), "p99_us spans 40 % of its median: unresolved");
        let b = set(
            42.0,
            &[
                (
                    "mem-search",
                    &[("qps", 7000.0), ("recall_at_10", 0.3367), ("p99_us", 200.0)],
                ),
                (
                    "mem-search",
                    &[("qps", 7100.0), ("recall_at_10", 0.3367), ("p99_us", 300.0)],
                ),
                (
                    "disk-search",
                    &[("qps", 5000.0), ("io_sectors_per_query", 120.0)],
                ),
                (
                    "disk-search",
                    &[("qps", 5050.0), ("io_sectors_per_query", 120.0)],
                ),
            ],
        );
        assert_eq!(
            compare(&a, &b),
            (2, 1),
            "qps on mem-search, sectors on disk-search"
        );
        assert_eq!(
            values(&a, "disk-search", "end_to_end", "qps"),
            vec![5000.0, 5050.0]
        );
    }
}
