//! `train-rpq` — the paper's contribution: `train_rpq(Full, M=8, K=64,
//! 3 epochs × 15 steps)` over a 6 000-point Vamana graph, run twice with
//! identical seeds; the learned compressor is then searched in memory next to
//! a plain PQ of the same shape.
//!
//! Why: `rpq-core`, `rpq-autodiff` and `rpq-linalg::expm` do all the work and
//! search almost none, so trainer work is not buried in other workloads'
//! `setup_s`. The shape is forced: at M=16/K=256 the trainer panics today
//! with "singular matrix in expm Padé solve" (ROADMAP item 5's bug).
//!
//! The two trainings are fixed work (about 12 s on the sizing box), so this
//! workload's measuring time is theirs plus what `--seconds` leaves for the
//! search phases (never less than their minimum passes).

use std::time::Instant;

use crate::adapter::{self, RpqCompressor, TrainStats, VectorCompressor};
use crate::trace::{self, Traced};

use super::mem_search::{mem_phases, report_mem_layers};
use super::{
    corpus, probe_adc, probe_beam_exact_us, probe_encode, recall, report_reads, PhaseCfg, Report,
    RunCfg, Setup, CORPUS_SEED,
};

const N: usize = 6_000;

/// One guarded training: the compressor, its telemetry and the wall time.
fn train(
    cfg: &adapter::RpqTrainerConfig,
    corpus: &super::Corpus,
    graph: &adapter::ProximityGraph,
    report: &mut Report,
) -> Option<(RpqCompressor, TrainStats, f64)> {
    let t = Instant::now();
    let out = report
        .tally
        .guard("train_rpq", || adapter::train_rpq(cfg, &corpus.base, graph))?;
    let secs = t.elapsed().as_secs_f64();
    let finite = out.1.epoch_losses.iter().all(|l| l.is_finite());
    report.tally.record(
        "train_rpq",
        if finite && !out.1.epoch_losses.is_empty() {
            Ok(())
        } else {
            Err(format!("epoch losses {:?}", out.1.epoch_losses))
        },
    );
    Some((out.0, out.1, secs))
}

pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::new("train-rpq");
    let mut setup = Setup::default();
    let corpus = corpus(N, cfg.seed, &mut setup);
    let graph = setup.stage("graph", || adapter::build_vamana(&corpus.base, CORPUS_SEED));
    let pq = setup.stage("train_pq", || {
        adapter::train_pq(&corpus.base, 8, 64, CORPUS_SEED)
    });
    let trainer = adapter::trainer_config(CORPUS_SEED);

    let started = Instant::now();
    let first = train(&trainer, &corpus, &graph, &mut report);
    let second = train(&trainer, &corpus, &graph, &mut report);
    trace::disable();
    let (Some((rpq_a, _, secs_a)), Some((rpq_b, stats, secs_b))) = (first, second) else {
        return report;
    };
    let codes_a = rpq_a.encode_dataset(&corpus.base);
    let deterministic = codes_a == rpq_b.encode_dataset(&corpus.base);
    report
        .tally
        .invariant("both trainings give identical codes", deterministic);
    let left = (cfg.seconds - started.elapsed().as_secs_f64()).max(0.0);

    if !cfg.trace {
        let index = setup.stage("index", || {
            adapter::mem_build(rpq_a, &corpus.base, graph.clone(), corpus.labels.clone())
        });
        let cfg_timed = PhaseCfg::timed(left, cfg.min_passes(30));
        let phases = mem_phases(&index, &corpus, cfg_timed, &mut report);
        report_reads(&mut report, &corpus, &phases.main, &phases.filtered);
        report.e2e("bytes_per_vector", index.memory_bytes() as f64 / N as f64);
        report.e2e("train_s", secs_a.min(secs_b));
        report.notes.push(format!(
            "two trainings: {secs_a:.3} s and {secs_b:.3} s (the faster is train_s)"
        ));
        report.finish_end_to_end(&setup);
        return report;
    }

    let index = adapter::mem_build(rpq_a, &corpus.base, graph.clone(), corpus.labels.clone());
    let cfg_untraced = PhaseCfg::timed(left * 0.7, cfg.min_passes(10));
    let untraced = mem_phases(&index, &corpus, cfg_untraced, &mut report);
    let traced_index = adapter::mem_build(
        Traced(rpq_b),
        &corpus.base,
        graph.clone(),
        corpus.labels.clone(),
    );
    report_mem_layers(&mut report, &corpus, &untraced, &index, &traced_index);

    // The plain PQ of the same shape on the same graph.
    let t = Instant::now();
    let pq_index = adapter::mem_build(
        pq.clone(),
        &corpus.base,
        graph.clone(),
        corpus.labels.clone(),
    );
    report.layer("memory.build_s", t.elapsed().as_secs_f64());
    report.layer("memory.bytes", pq_index.memory_bytes() as f64);
    let baseline = mem_phases(&pq_index, &corpus, PhaseCfg::rounds(1), &mut report);
    report.layer(
        "quant.pq_recall_at_10",
        recall(&corpus.gt, &baseline.main.reference),
    );

    report.layer("graph.vamana_build_s", setup.get("graph"));
    report.layer("quant.pq_train_s", setup.get("train_pq"));
    report.layer("core.train_s", secs_a.min(secs_b));
    report.layer("core.deterministic", f64::from(u8::from(deterministic)));
    report.layer(
        "core.final_loss",
        f64::from(*stats.epoch_losses.last().expect("checked non-empty")),
    );
    let t = Instant::now();
    let triplets = adapter::sample_triplets(&trainer, &corpus.base, &graph);
    report.layer("core.sample_triplets_s", t.elapsed().as_secs_f64());
    let enc = probe_encode(traced_index.compressor(), &corpus.base);
    let t = Instant::now();
    let decisions = adapter::sample_routing(
        &trainer,
        &corpus.base,
        &graph,
        &traced_index.compressor().0,
        &enc.codes,
    );
    report.layer("core.sample_routing_s", t.elapsed().as_secs_f64());
    report.tally.invariant(
        "the public samplers produce features",
        triplets > 0 && decisions > 0,
    );
    report.layer("quant.encode_us_per_vector", enc.encode_us_per_vector);
    report.layer("quant.encode_one_us", enc.encode_one_us);
    report.layer("quant.code_bytes_per_vector", enc.code_bytes_per_vector);
    report.layer(
        "graph.beam_exact_us",
        probe_beam_exact_us(&graph, &corpus.base, &corpus.queries),
    );
    // The ADC kernels at the trainer's shape (M = 8, K = 64).
    let pq_codes = pq.encode_dataset(&corpus.base);
    if let Some(adc) = probe_adc(&pq, &pq_codes, &graph, &corpus.queries) {
        report.layer("quant.adc_gather_mcps", adc.gather_mcps);
        report.layer("quant.adc_scan_mcps", adc.scan_mcps);
        report.layer("quant.adc_scalar_mcps", adc.scalar_mcps);
    }
    report.notes.push(format!(
        "two trainings: {secs_a:.3} s and {secs_b:.3} s; {triplets} triplets and {decisions} routing decisions through the public samplers"
    ));
    report
}
