//! `serve-fanout` — both serving stacks over the `mem-search` corpus, two
//! round-robin shards. Phase A: `ServeEngine::serve_batch` (2 workers, closed
//! loop, 64 in flight). Phase B: one client calling `ServeEngine::search`,
//! and `search_filtered`. Phase C: `ClusterEngine::serve_open_loop` over
//! 2 500 seeded Poisson arrivals at 0.5× and 1.5× the *modeled* capacity
//! (derived from exact work counters, so the schedule is bit-reproducible);
//! the 0.5× schedule is replayed as the phase's passes. The phases take
//! turns, round by round, so each spans the whole measuring window.
//!
//! Why: thread fan-out, channel dispatch, cross-shard merge and admission on
//! top of the unchanged `mem-search` kernel — engine overhead is the
//! difference — and both stacks are pinned before anything merges them. On
//! two cores phase A saturates at ≤ 2× sequential and its tail is queue
//! position inside a 64-query wave, not service time.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use crate::adapter::{
    self, ArrivalSchedule, ClusterEngine, ClusterReport, LatencyRecorder, Neighbor, RequestOutcome,
    SearchScratch, ServeEngine, ShardedIndex, SHARDS,
};
use crate::checks::{check_same, check_top_k, Tally};
use crate::estimator::{fastest, pass_sample};
use crate::trace::{self, Name, Traced};

use super::{
    check_filtered, check_traced_equal, corpus, fastest_of, finish_trace, interleave, measure,
    overhead_frac, recall, self_us, traced_pair, Corpus, Phase, PhaseCfg, QueryPhase, Report,
    RunCfg, Setup, CORPUS_SEED, QUERIES,
};

const N: usize = 20_000;
/// Arrivals per open-loop schedule.
const ARRIVALS: usize = 2500;

/// Structure, and the answer equals the sequential reference.
fn check_against<'a>(
    reference: &'a [Vec<Neighbor>],
) -> impl Fn(usize, &[Neighbor]) -> Result<(), String> + 'a {
    move |qi, res| {
        check_top_k(res, adapter::K, N, true)?;
        check_same(res, &reference[qi])
    }
}

/// Phase A: whole-batch passes; the first is the warm-up.
struct BatchPhase<'a> {
    engine: &'a ServeEngine,
    corpus: &'a Corpus,
    reference: &'a [Vec<Neighbor>],
    warmed: bool,
    walls: Vec<f64>,
}

impl BatchPhase<'_> {
    fn pass(&mut self, tally: &mut Tally) {
        let t = Instant::now();
        let answers = tally.guard("ServeEngine::serve_batch", || {
            adapter::engine_serve_batch(self.engine, &self.corpus.queries)
        });
        let wall_s = t.elapsed().as_secs_f64();
        if let Some(answers) = answers {
            let same = answers.len() == self.reference.len()
                && answers
                    .iter()
                    .zip(self.reference)
                    .all(|(a, b)| check_same(a, b).is_ok());
            tally.record(
                "ServeEngine::serve_batch",
                if same {
                    Ok(())
                } else {
                    Err("batch answers differ from ShardedIndex::search".into())
                },
            );
        }
        if self.warmed {
            self.walls.push(wall_s);
        }
        self.warmed = true;
    }
}

/// One open-loop run must account for every arrival.
fn account(rep: &ClusterReport, offered: usize, tally: &mut Tally) {
    tally.record(
        "ClusterEngine::serve_open_loop",
        if rep.offered == offered && rep.completed + rep.shed == rep.offered {
            Ok(())
        } else {
            Err(format!(
                "completed {} + shed {} != offered {}",
                rep.completed, rep.shed, rep.offered
            ))
        },
    );
}

/// Phase C at 0.5×: replays of one schedule; the first is the warm-up and
/// the reference every later replay's outcomes must equal.
struct ReplayPhase<'a> {
    cluster: &'a ClusterEngine,
    corpus: &'a Corpus,
    schedule: ArrivalSchedule,
    first: Option<(Vec<RequestOutcome>, ClusterReport)>,
    walls: Vec<f64>,
}

impl ReplayPhase<'_> {
    fn pass(&mut self, tally: &mut Tally) {
        let t = Instant::now();
        let out = tally.guard("ClusterEngine::serve_open_loop", || {
            adapter::cluster_open_loop(self.cluster, &self.corpus.queries, &self.schedule)
        });
        let wall_s = t.elapsed().as_secs_f64();
        let Some((outcomes, rep)) = out else {
            return;
        };
        account(&rep, self.schedule.len(), tally);
        match &self.first {
            None => self.first = Some((outcomes, rep)),
            Some((reference, _)) => {
                tally.invariant(
                    "open-loop replay reproduces the first replay's outcomes",
                    *reference == outcomes,
                );
                self.walls.push(wall_s);
            }
        }
    }

    /// Fastest replay's wall microseconds per offered request.
    fn us_per_request(&self) -> f64 {
        if self.walls.is_empty() {
            0.0
        } else {
            fastest(&self.walls) * 1e6 / self.schedule.len() as f64
        }
    }
}

/// Mean modeled service time of a single replica read, from the exact
/// counters of the sequential per-shard searches; the modeled capacity the
/// open-loop rates are multiples of is one over it.
fn mean_modeled_service_us(sharded: &ShardedIndex, corpus: &Corpus) -> f64 {
    let mut scratch = SearchScratch::with_capacity(N);
    let mut service_us = 0.0;
    for q in corpus.queries.iter() {
        for shard in 0..SHARDS {
            let (_, stats) = adapter::sharded_search_shard(sharded, shard, q, &mut scratch);
            service_us += adapter::modeled_service_us(&stats);
        }
    }
    service_us / (QUERIES * SHARDS) as f64
}

/// The 1.5× run: once, for its exact counts.
fn overload(
    cluster: &ClusterEngine,
    corpus: &Corpus,
    capacity_qps: f64,
    seed: u64,
    tally: &mut Tally,
) -> ClusterReport {
    let schedule = adapter::poisson_schedule(ARRIVALS, capacity_qps * 1.5, QUERIES, seed);
    let rep = tally
        .guard("ClusterEngine::serve_open_loop", || {
            adapter::cluster_open_loop(cluster, &corpus.queries, &schedule).1
        })
        .unwrap_or_default();
    account(&rep, ARRIVALS, tally);
    rep
}

/// Sequential per-shard searches and the merge, each timed on its own.
struct ShardTimes {
    /// Mean time of one shard's search.
    shard_us: f64,
    /// Median over queries of the slower shard's time.
    max_shard_p50_us: f64,
    merge_ns: f64,
}

fn shard_times(sharded: &ShardedIndex, corpus: &Corpus, passes: usize) -> ShardTimes {
    let mut scratch = SearchScratch::with_capacity(N);
    let (mut shard, mut slowest, mut merge) = (Vec::new(), Vec::new(), Vec::new());
    for pass in 0..=passes {
        let mut max_ns = vec![0u64; QUERIES];
        let (mut shard_ns, mut merge_ns) = (0u64, 0u64);
        for (qi, slot) in max_ns.iter_mut().enumerate() {
            let q = corpus.queries.get(qi);
            let mut partials = Vec::with_capacity(SHARDS);
            for s in 0..SHARDS {
                let t = Instant::now();
                partials.push(adapter::sharded_search_shard(sharded, s, q, &mut scratch).0);
                let ns = t.elapsed().as_nanos() as u64;
                shard_ns += ns;
                *slot = (*slot).max(ns);
            }
            let t = Instant::now();
            std::hint::black_box(adapter::merge_top_k(&partials));
            merge_ns += t.elapsed().as_nanos() as u64;
        }
        if pass > 0 {
            shard.push(shard_ns as f64 / 1e3 / (QUERIES * SHARDS) as f64);
            slowest.push(pass_sample(0.0, &max_ns).p50_us);
            merge.push(merge_ns as f64 / QUERIES as f64);
        }
    }
    ShardTimes {
        shard_us: fastest(&shard),
        max_shard_p50_us: fastest(&slowest),
        merge_ns: fastest(&merge),
    }
}

/// The sequential fan-out + merge through the benchmark's own
/// `serve.shard_search` / `serve.merge` spans.
fn sequential_phase<'a>(
    sharded: &'a ShardedIndex,
    corpus: &'a Corpus,
    reference: &'a [Vec<Neighbor>],
    scratch: &'a mut SearchScratch,
) -> QueryPhase<'a> {
    QueryPhase::new(
        &corpus.queries,
        "ShardedIndex::search_shard + merge_top_k",
        move |q| {
            let partials: Vec<Vec<Neighbor>> = (0..SHARDS)
                .map(|s| adapter::sharded_search_shard(sharded, s, q, scratch).0)
                .collect();
            adapter::merge_top_k(&partials)
        },
        check_against(reference),
    )
}

/// What the interleaved phases measured.
struct Served {
    batch_wall_s: f64,
    batches: usize,
    single: Phase,
    filtered: Phase,
    us_per_request: f64,
    replays: usize,
    half: ClusterReport,
}

/// Phases A, B (plain and filtered) and C at 0.5×, in turn: per round two
/// batches, three single-client passes, two filtered passes and one replay —
/// about 1.4 s. The single-client passes get the most turns because their
/// tail (`p99_us`) is the statistic here that co-tenants disturb most.
#[allow(clippy::too_many_arguments)]
fn serve_phases(
    engine: &ServeEngine,
    cluster: &ClusterEngine,
    corpus: &Corpus,
    reference: &[Vec<Neighbor>],
    capacity_qps: f64,
    seed: u64,
    cfg: PhaseCfg,
    report: &mut Report,
) -> Served {
    let mut batch = BatchPhase {
        engine,
        corpus,
        reference,
        warmed: false,
        walls: Vec::new(),
    };
    let mut single = QueryPhase::new(
        &corpus.queries,
        "ServeEngine::search",
        |q| adapter::engine_search(engine, q).0,
        check_against(reference),
    );
    let mut filtered = QueryPhase::new(
        &corpus.queries,
        "ServeEngine::search_filtered",
        |q| adapter::engine_search_filtered(engine, q).0,
        check_filtered(&corpus.labels),
    );
    let mut replay = ReplayPhase {
        cluster,
        corpus,
        schedule: adapter::poisson_schedule(ARRIVALS, capacity_qps * 0.5, QUERIES, seed),
        first: None,
        walls: Vec::new(),
    };
    interleave(
        cfg,
        &mut report.tally,
        &mut [
            (2, &mut |t| batch.pass(t)),
            (3, &mut |t| single.pass(t)),
            (2, &mut |t| filtered.pass(t)),
            (1, &mut |t| replay.pass(t)),
        ],
    );
    Served {
        batch_wall_s: if batch.walls.is_empty() {
            0.0
        } else {
            fastest(&batch.walls)
        },
        batches: batch.walls.len(),
        single: single.finish(),
        filtered: filtered.finish(),
        us_per_request: replay.us_per_request(),
        replays: replay.walls.len(),
        half: replay.first.map(|(_, rep)| rep).unwrap_or_default(),
    }
}

pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::new("serve-fanout");
    let mut setup = Setup::default();
    let corpus = corpus(N, cfg.seed, &mut setup);
    let pq = setup.stage("train", || {
        adapter::train_pq(&corpus.base, 16, 256, CORPUS_SEED)
    });
    let graph_s = Cell::new(0.0);
    let sharded = Arc::new(setup.stage("index", || {
        adapter::sharded_build(&pq, &corpus.base, &corpus.labels, CORPUS_SEED, &graph_s)
    }));
    let cluster = setup.stage("cluster", || {
        adapter::cluster_build(&pq, &corpus.base, CORPUS_SEED)
    });
    let engine = adapter::engine_new(Arc::clone(&sharded));

    // The sequential reference every concurrent answer must equal.
    let mut scratch = SearchScratch::with_capacity(N);
    let reference: Vec<Vec<Neighbor>> = corpus
        .queries
        .iter()
        .map(|q| adapter::sharded_search(&sharded, q, &mut scratch).0)
        .collect();
    let mean_service_us = mean_modeled_service_us(&sharded, &corpus);
    let capacity_qps = 1e6 / mean_service_us;

    if !cfg.trace {
        let served = serve_phases(
            &engine,
            &cluster,
            &corpus,
            &reference,
            capacity_qps,
            cfg.seed,
            PhaseCfg::timed(cfg.seconds, cfg.min_passes(8)),
            &mut report,
        );
        let over = overload(&cluster, &corpus, capacity_qps, cfg.seed, &mut report.tally);
        report.e2e("qps", QUERIES as f64 / served.batch_wall_s);
        report.e2e("p50_us", served.single.summary.p50_us);
        report.e2e("p99_us", served.single.summary.p99_us);
        report.e2e("recall_at_10", recall(&corpus.gt, &served.single.reference));
        report.e2e("filtered_qps", served.filtered.summary.ops_per_s);
        report.e2e(
            "filtered_recall_at_10",
            recall(&corpus.gt_filtered, &served.filtered.reference),
        );
        report.e2e(
            "bytes_per_vector",
            sharded.resident_bytes() as f64 / N as f64,
        );
        report.e2e("cluster_us_per_request", served.us_per_request);
        report.e2e(
            "overload_goodput_frac",
            over.completed as f64 / over.offered.max(1) as f64,
        );
        report.notes.push(format!(
            "phase A: {} timed batches x {QUERIES} queries, 64 in flight, {SHARDS} workers (fastest batch)",
            served.batches
        ));
        report.note_phase("phase B (one client)", &served.single.summary);
        report.note_phase("phase B filtered", &served.filtered.summary);
        report.notes.push(format!(
            "phase C: {} timed replays x {ARRIVALS} arrivals at 0.5x modeled capacity ({capacity_qps:.0} req/s), one at 1.5x (fastest replay)",
            served.replays
        ));
        report.finish_end_to_end(&setup);
        return report;
    }

    // Untraced references for the layer metrics.
    let served = serve_phases(
        &engine,
        &cluster,
        &corpus,
        &reference,
        capacity_qps,
        cfg.seed,
        PhaseCfg::timed(cfg.seconds * 0.3, cfg.min_passes(4)),
        &mut report,
    );
    let over = overload(&cluster, &corpus, capacity_qps, cfg.seed, &mut report.tally);
    let times = shard_times(&sharded, &corpus, cfg.min_passes(5));
    let mut cluster_scratch = SearchScratch::with_capacity(N);
    let cluster_reads = measure(
        &corpus.queries,
        PhaseCfg::timed(cfg.seconds * 0.05, 3),
        &mut report.tally,
        "ClusterIndex::search",
        |q| {
            adapter::cluster_search(&cluster, q, &mut cluster_scratch)
                .map(|(res, _)| res)
                .unwrap_or_default()
        },
        check_against(&reference),
    );
    drop(engine);

    // The same stacks over the traced compressor.
    let traced_pq = Traced(pq.clone());
    let unused = Cell::new(0.0);
    let traced_sharded = Arc::new(adapter::sharded_build(
        &traced_pq,
        &corpus.base,
        &corpus.labels,
        CORPUS_SEED,
        &unused,
    ));
    let traced_cluster = adapter::cluster_build(&traced_pq, &corpus.base, CORPUS_SEED);
    let traced_engine = adapter::engine_new(Arc::clone(&traced_sharded));
    let (mut s0, mut s1, mut s2) = (
        SearchScratch::with_capacity(N),
        SearchScratch::with_capacity(N),
        SearchScratch::with_capacity(N),
    );
    let mut sequential = sequential_phase(&sharded, &corpus, &reference, &mut s0);
    interleave(
        PhaseCfg::timed(cfg.seconds * 0.15, cfg.min_passes(8)),
        &mut report.tally,
        &mut [(1, &mut |t| sequential.pass(t))],
    );
    let sequential = sequential.finish();
    // Two recorded passes (each is two shard searches per query), paired
    // with untraced ones for the overhead.
    let (paired_plain, traced_sequential) = traced_pair(
        &mut report.tally,
        2,
        sequential_phase(&sharded, &corpus, &reference, &mut s1),
        sequential_phase(&traced_sharded, &corpus, &reference, &mut s2),
    );
    // One recorded pass: `engine.search` spans on the client, the shards'
    // `quant.*` spans on the two workers.
    let mut traced_single = QueryPhase::new(
        &corpus.queries,
        "ServeEngine::search",
        |q| adapter::engine_search(&traced_engine, q).0,
        check_against(&reference),
    )
    .recorded();
    interleave(
        PhaseCfg::rounds(1),
        &mut report.tally,
        &mut [(1, &mut |t| traced_single.pass(t))],
    );
    let traced_single = traced_single.finish();
    check_traced_equal(
        &mut report.tally,
        "traced == untraced",
        &sequential,
        &traced_sequential,
    );
    check_traced_equal(
        &mut report.tally,
        "traced == untraced (engine)",
        &served.single,
        &traced_single,
    );
    // A fifth of the arrivals is enough to compare outcomes and keeps the
    // open loop's 150 spans per request from crowding the span file.
    let schedule = adapter::poisson_schedule(ARRIVALS / 5, capacity_qps * 0.5, QUERIES, cfg.seed);
    let mut open_loop = |engine: &ClusterEngine, what: &str| {
        report.tally.guard(what, || {
            adapter::cluster_open_loop(engine, &corpus.queries, &schedule).0
        })
    };
    let untraced_outcomes = open_loop(&cluster, "ClusterEngine::serve_open_loop");
    trace::enable();
    let traced_outcomes = open_loop(&traced_cluster, "ClusterEngine::serve_open_loop (traced)");
    trace::disable();
    report.tally.invariant(
        "traced open loop == untraced open loop",
        traced_outcomes.is_some() && traced_outcomes == untraced_outcomes,
    );
    // Joins the traced engine's workers, which hands their spans in.
    drop(traced_engine);
    let threads = finish_trace(&mut report);
    report.layer(
        "quant.lut_build_us",
        self_us(&threads, &traced_sequential, Name::QuantLutBuild),
    );
    report.layer(
        "quant.adc_score_us",
        self_us(&threads, &traced_sequential, Name::QuantAdcScore),
    );
    report.layer(
        "graph.traverse_us",
        self_us(&threads, &traced_sequential, Name::ServeShardSearch),
    );
    report.layer("trace.untraced_us_per_query", sequential.summary.mean_us);
    report.layer(
        "trace.overhead_frac",
        overhead_frac(&paired_plain, &traced_sequential),
    );

    report.layer("graph.hnsw_build_s", graph_s.get());
    report.layer("quant.pq_train_s", setup.get("train"));
    report.layer("serve.build_s", setup.get("index"));
    report.layer("serve.sharded_search_us", sequential.summary.mean_us);
    report.layer("serve.shard_search_us", times.shard_us);
    report.layer("serve.merge_ns", times.merge_ns);
    report.layer(
        "engine.overhead_us",
        served.single.summary.p50_us - times.max_shard_p50_us - times.merge_ns / 1e3,
    );
    report.layer(
        "engine.speedup_vs_sequential",
        QUERIES as f64 / served.batch_wall_s * sequential.summary.mean_us / 1e6,
    );
    report.layer(
        "filter.overhead_frac",
        served.filtered.summary.mean_us / served.single.summary.mean_us - 1.0,
    );
    let recorder = LatencyRecorder::new();
    let record_s = fastest_of(3, || {
        for i in 0..65_536u32 {
            recorder.record_us(i as f32);
        }
    });
    report.layer("metrics.record_ns", record_s * 1e9 / 65_536.0);
    let snapshot_s = fastest_of(3, || {
        std::hint::black_box(recorder.snapshot());
    });
    report.layer("metrics.snapshot_us", snapshot_s * 1e6);
    report.layer("cluster.search_us", cluster_reads.summary.mean_us);
    report.layer("cluster.us_per_request", served.us_per_request);
    report.layer(
        "cluster.overload_goodput_frac",
        over.completed as f64 / over.offered.max(1) as f64,
    );
    report.layer("cluster.shed_queue_full", over.shed_queue_full as f64);
    report.layer("cluster.shed_deadline", over.shed_deadline as f64);
    report.layer(
        "cluster.virtual_p99_us",
        f64::from(served.half.latency.p99_us),
    );
    report.layer(
        "cluster.cost_model_ratio",
        served.us_per_request / mean_service_us,
    );
    report.note_phase("untraced sequential fan-out", &sequential.summary);
    report.note_phase("traced sequential fan-out", &traced_sequential.summary);
    report
}
