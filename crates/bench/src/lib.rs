//! # rpq-bench
//!
//! Experiment drivers that regenerate **every table and figure** of the
//! paper's evaluation (§8), at a laptop scale controlled by
//! [`scale::Scale`] (env var `RPQ_SCALE=ci|small|full`). Each experiment:
//!
//! 1. builds the datasets/graphs/compressors it needs through [`setup`],
//! 2. runs the measurement through `rpq-anns`' harness,
//! 3. returns one [`Report`] per artifact, which the binary prints as a
//!    paper-style table and writes, unchanged, to `bench_results/<id>.json`
//!    (`{id, title, scale, columns, rows}`, numbers at full `f32`
//!    precision).
//!
//! Run them with `cargo run -p rpq-bench --release --bin experiments -- all`
//! (or a specific id: `table2`, `fig4` … `fig12`). The mapping from paper
//! artifact to experiment id is DESIGN.md §5. The repo's own subsystems
//! (disk, streaming, serving, filtering) are measured by `rpq-perf`
//! (`benchmark/README.md`), not here.

pub mod experiments;
pub mod report;
pub mod scale;
pub mod setup;

pub use report::Report;
pub use scale::Scale;
pub use setup::{build_graph, make_bench, Bench, GraphKind, Method};
