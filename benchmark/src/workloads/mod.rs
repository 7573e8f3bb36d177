//! The five workloads and what they share: the corpus, the setup stopwatch,
//! the pass loop that applies the estimator, and the layer probes more than
//! one workload reports.

use std::cell::RefCell;
use std::io::BufWriter;
use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::adapter::{
    self, CompactCodes, Dataset, DistanceEstimator, GraphView, GroundTruth, Labels, Neighbor,
    SearchScratch, VectorCompressor, K,
};
use crate::checks::{check_same, Tally};
use crate::estimator::{fastest, pass_sample, summarize, PassSample, PhaseSummary};
use crate::trace::{self, Name, Span};

pub mod disk_search;
pub mod mem_search;
pub mod serve_fanout;
pub mod stream_churn;
pub mod train_rpq;

/// Held-out queries of every workload; one pass is one sweep over them.
pub const QUERIES: usize = 1000;

/// Timed passes recorded by a traced phase: about 130 000 spans per pass of
/// an in-memory search (one per hop), so three passes keep the span file
/// near 50 MB and well inside the preallocated buffers.
pub const TRACED_PASSES: usize = 3;

/// What the command line asked for.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// Measuring time the run aims for. Phases split it; a phase never runs
    /// fewer than its minimum passes, so slow machines overshoot.
    pub seconds: f64,
    /// Per-layer run: untraced reference phases, the same phases with the
    /// traced compressor, and the layer probes.
    pub trace: bool,
}

impl RunCfg {
    /// Minimum timed passes (or rounds) of a phase: `at_ten` of them at the
    /// manifest's ten seconds, proportionally fewer on shorter smoke runs.
    pub fn min_passes(&self, at_ten: usize) -> usize {
        ((at_ten as f64 * self.seconds / 10.0).ceil() as usize).clamp(3, at_ten)
    }
}

/// One workload run's results.
pub struct Report {
    pub workload: &'static str,
    pub e2e: Vec<(&'static str, f64)>,
    pub layer: Vec<(&'static str, f64)>,
    pub tally: Tally,
    /// Sample counts and setup stages, printed beside the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            e2e: Vec::new(),
            layer: Vec::new(),
            tally: Tally::default(),
            notes: Vec::new(),
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.push((name, value));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.push((name, value));
    }

    pub fn note_phase(&mut self, what: &str, s: &PhaseSummary) {
        self.notes.push(format!(
            "{what}: {} timed passes x {} operations (fastest pass)",
            s.passes, s.ops_per_pass
        ));
    }

    /// Recall far below what the shape always gives means the index or the
    /// ground truth is broken, not slow.
    pub fn recall_floor(&mut self, recall: f64, floor: f64) {
        let verdict = if recall >= floor {
            Ok(())
        } else {
            Err(format!("recall@10 {recall} < {floor}"))
        };
        self.tally.record("recall floor", verdict);
    }

    /// The metrics every workload derives the same way, once its own are in.
    pub fn finish_end_to_end(&mut self, setup: &Setup) {
        self.e2e("setup_s", setup.total());
        self.e2e("peak_rss_mb", peak_rss_mb());
        self.e2e("failed_frac", self.tally.failed_frac());
        self.notes
            .push(format!("setup stages: {}", setup.describe()));
    }
}

/// Stopwatch over named setup stages; `setup_s` is their sum.
#[derive(Default)]
pub struct Setup {
    stages: Vec<(&'static str, f64)>,
}

impl Setup {
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.stages.push((name, t.elapsed().as_secs_f64()));
        out
    }

    /// Seconds of one stage (summed if it ran more than once).
    pub fn get(&self, name: &str) -> f64 {
        self.stages
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .sum()
    }

    pub fn total(&self) -> f64 {
        self.stages.iter().map(|(_, s)| s).sum()
    }

    fn describe(&self) -> String {
        self.stages
            .iter()
            .map(|(n, s)| format!("{n} {s:.3} s"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// A labeled base set, held-out queries and both exact ground truths.
pub struct Corpus {
    pub base: Dataset,
    pub labels: Labels,
    pub queries: Dataset,
    pub gt: GroundTruth,
    pub gt_filtered: GroundTruth,
}

/// Seed of everything a workload builds once: the corpus, the graphs, the
/// codebooks. `--seed` does not reach it — see [`corpus`].
pub const CORPUS_SEED: u64 = 42;

/// Held-out vectors a run's 1 000 queries are drawn from.
pub const QUERY_POOL: usize = 5000;

/// `take` distinct ids out of `ids`, in seeded-random order.
pub fn draw(ids: std::ops::Range<usize>, take: usize, seed: u64) -> Vec<usize> {
    let mut ids: Vec<usize> = ids.collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..take {
        let j = rng.gen_range(i..ids.len());
        ids.swap(i, j);
    }
    ids.truncate(take);
    ids
}

/// The workload's corpus: `n` base vectors that are the same for every seed,
/// and 1 000 queries that `seed` draws out of 5 000 held-out vectors, with
/// ground truth.
///
/// The seed is the *traffic*, not the corpus. Sizing runs that regenerated
/// or re-drew the base set per seed (and seeded the graph and the codebooks
/// with it) gave every seed its own index, and the indexes differ by more
/// than any change this benchmark is meant to resolve: 622 to 791 distance
/// computations per query at the same ef, so `qps` from 8 000 to 11 500 —
/// bimodal, and the same to within 2 % when a seed was run again — and
/// `recall_at_10` from 0.31 to 0.38. That is a property of which graph the
/// builder happened to draw, not of the code under test. With one corpus,
/// one graph and one codebook, ten seeds are ten query sets over the same
/// index.
pub fn corpus(n: usize, seed: u64, setup: &mut Setup) -> Corpus {
    let (base, labels, queries) = setup.stage("generate", || {
        let (all, labels) = adapter::generate_labeled(n + QUERY_POOL, CORPUS_SEED);
        let base_ids: Vec<usize> = (0..n).collect();
        let query_ids = draw(n..n + QUERY_POOL, QUERIES, seed);
        (
            all.subset(&base_ids),
            labels.subset(&base_ids),
            all.subset(&query_ids),
        )
    });
    let (gt, gt_filtered) = setup.stage("ground_truth", || {
        (
            adapter::ground_truth(&base, &queries),
            adapter::ground_truth_filtered(&base, &queries, &labels),
        )
    });
    Corpus {
        base,
        labels,
        queries,
        gt,
        gt_filtered,
    }
}

/// How long and how often interleaved phases run.
#[derive(Clone, Copy, Debug)]
pub struct PhaseCfg {
    pub budget_s: f64,
    /// Timed rounds: every phase gets its weight in passes per round.
    pub min_rounds: usize,
    pub max_rounds: usize,
}

impl PhaseCfg {
    pub fn timed(budget_s: f64, min_rounds: usize) -> Self {
        Self {
            budget_s,
            min_rounds,
            max_rounds: usize::MAX,
        }
    }

    /// Exactly `rounds` timed rounds after the warm-up.
    pub fn rounds(rounds: usize) -> Self {
        Self {
            budget_s: 0.0,
            min_rounds: rounds,
            max_rounds: rounds,
        }
    }
}

/// One phase's turn in an interleaved run: a pass (or batch, or replay).
pub type Turn<'t> = &'t mut dyn FnMut(&mut Tally);

/// Runs tasks round-robin: one warm-up call of each, then rounds in which
/// each task runs `weight` times, until the budget and the minimum round
/// count are both met. A run's phases are interleaved like this, rather than
/// run one after the other, so that each phase's passes span the whole
/// measuring window: interference comes in episodes of seconds, and a phase
/// that lasts three seconds can sit inside one from start to end.
pub fn interleave(cfg: PhaseCfg, tally: &mut Tally, tasks: &mut [(usize, Turn<'_>)]) {
    // Recording is a phase's own business (`QueryPhase::recorded`); what a
    // traced run's set-up left switched on must not leak into the passes.
    trace::disable();
    for (_, task) in tasks.iter_mut() {
        task(tally);
    }
    let started = Instant::now();
    let mut rounds = 0;
    loop {
        for (weight, task) in tasks.iter_mut() {
            for _ in 0..*weight {
                task(tally);
            }
        }
        rounds += 1;
        let enough = rounds >= cfg.min_rounds && started.elapsed().as_secs_f64() >= cfg.budget_s;
        if enough || rounds >= cfg.max_rounds {
            break;
        }
    }
}

/// A measured phase: the estimator's summary, the warm-up pass's answers
/// (every later pass must reproduce them) and the timed passes' windows on
/// the trace clock.
pub struct Phase {
    pub summary: PhaseSummary,
    pub reference: Vec<Vec<Neighbor>>,
    pub windows: Vec<(u64, u64)>,
}

type SearchOp<'a> = Box<dyn FnMut(&[f32]) -> Vec<Neighbor> + 'a>;
type AnswerCheck<'a> = Box<dyn Fn(usize, &[Neighbor]) -> Result<(), String> + 'a>;

/// One search operation swept over the held-out queries, pass by pass:
/// single client, closed loop. Every call is one attempt in the tally: a
/// panic, a warm-up answer failing `check`, or a later answer differing from
/// the warm-up's is a failure.
pub struct QueryPhase<'a> {
    queries: &'a Dataset,
    what: &'a str,
    op: SearchOp<'a>,
    check: AnswerCheck<'a>,
    /// Record spans during the timed passes (not the warm-up).
    record: bool,
    lat_ns: Vec<u64>,
    reference: Vec<Vec<Neighbor>>,
    samples: Vec<PassSample>,
    windows: Vec<(u64, u64)>,
}

impl<'a> QueryPhase<'a> {
    pub fn new(
        queries: &'a Dataset,
        what: &'a str,
        op: impl FnMut(&[f32]) -> Vec<Neighbor> + 'a,
        check: impl Fn(usize, &[Neighbor]) -> Result<(), String> + 'a,
    ) -> Self {
        Self {
            queries,
            what,
            op: Box::new(op),
            check: Box::new(check),
            record: false,
            lat_ns: vec![0; queries.len()],
            reference: Vec::new(),
            samples: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// The traced run's phases: spans are recorded during the timed passes.
    pub fn recorded(mut self) -> Self {
        self.record = true;
        self
    }

    /// One pass over the queries; the first is the untimed warm-up.
    pub fn pass(&mut self, tally: &mut Tally) {
        let warm_up = self.reference.is_empty();
        if self.record && !warm_up {
            trace::enable();
        }
        let mut answers: Vec<Option<Vec<Neighbor>>> = Vec::with_capacity(self.queries.len());
        let w0 = trace::now_ns();
        let t_pass = Instant::now();
        for (qi, slot) in self.lat_ns.iter_mut().enumerate() {
            trace::set_query(qi as u32);
            let q = self.queries.get(qi);
            let op = &mut self.op;
            let t = Instant::now();
            let answer = tally.guard(self.what, || op(q));
            *slot = t.elapsed().as_nanos() as u64;
            answers.push(answer);
        }
        let wall_s = t_pass.elapsed().as_secs_f64();
        let w1 = trace::now_ns();
        trace::disable();
        trace::set_query(trace::NONE);
        for (qi, answer) in answers.iter().enumerate() {
            // A panicked call was already counted by `guard`.
            if let Some(answer) = answer {
                let verdict = if warm_up {
                    (self.check)(qi, answer)
                } else {
                    check_same(answer, &self.reference[qi])
                };
                tally.record(self.what, verdict);
            }
        }
        if warm_up {
            self.reference = answers.into_iter().map(Option::unwrap_or_default).collect();
        } else {
            self.samples.push(pass_sample(wall_s, &self.lat_ns));
            self.windows.push((w0, w1));
        }
    }

    pub fn finish(self) -> Phase {
        Phase {
            summary: summarize(&self.samples, self.queries.len()),
            reference: self.reference,
            windows: self.windows,
        }
    }
}

/// One phase on its own: warm-up, then timed passes under `cfg`.
pub fn measure<'a>(
    queries: &'a Dataset,
    cfg: PhaseCfg,
    tally: &mut Tally,
    what: &'a str,
    op: impl FnMut(&[f32]) -> Vec<Neighbor> + 'a,
    check: impl Fn(usize, &[Neighbor]) -> Result<(), String> + 'a,
) -> Phase {
    let mut phase = QueryPhase::new(queries, what, op, check);
    interleave(cfg, tally, &mut [(1, &mut |t| phase.pass(t))]);
    phase.finish()
}

/// The traced run's pairing: `rounds` rounds of one untraced and one recorded
/// pass of the same search, turn by turn, so that `trace.overhead_frac`
/// compares passes a fraction of a second apart instead of phases that a
/// co-tenant's episode can separate. Returns (untraced, traced).
pub fn traced_pair(
    tally: &mut Tally,
    rounds: usize,
    mut plain: QueryPhase,
    traced: QueryPhase,
) -> (Phase, Phase) {
    let mut traced = traced.recorded();
    interleave(
        PhaseCfg::rounds(rounds),
        tally,
        &mut [(1, &mut |t| plain.pass(t)), (1, &mut |t| traced.pass(t))],
    );
    (plain.finish(), traced.finish())
}

/// Traced over untraced mean time of a [`traced_pair`], minus one.
pub fn overhead_frac(plain: &Phase, traced: &Phase) -> f64 {
    traced.summary.mean_us / plain.summary.mean_us - 1.0
}

/// The end-to-end read metrics of a workload whose headline phase is a
/// single-client search and whose answers are ids into the corpus.
pub fn report_reads(report: &mut Report, corpus: &Corpus, main: &Phase, filtered: &Phase) {
    report.e2e("qps", main.summary.ops_per_s);
    report.e2e("p50_us", main.summary.p50_us);
    report.e2e("p99_us", main.summary.p99_us);
    report.e2e("recall_at_10", recall(&corpus.gt, &main.reference));
    report.e2e("filtered_qps", filtered.summary.ops_per_s);
    report.e2e(
        "filtered_recall_at_10",
        recall(&corpus.gt_filtered, &filtered.reference),
    );
    report.note_phase("search", &main.summary);
    report.note_phase("filtered search", &filtered.summary);
}

/// Traced answers must equal untraced answers id for id (and, the traced
/// compressor being a pure wrapper, distance bit for bit).
pub fn check_traced_equal(tally: &mut Tally, what: &str, untraced: &Phase, traced: &Phase) {
    for (a, b) in traced.reference.iter().zip(&untraced.reference) {
        tally.record(what, check_same(a, b));
    }
}

/// Recall@10 of a phase's answers against a ground truth.
pub fn recall(gt: &GroundTruth, answers: &[Vec<Neighbor>]) -> f64 {
    f64::from(gt.recall(&crate::checks::ids(answers)))
}

/// `name`'s self time per operation in the traced pass where it was
/// smallest, microseconds.
pub fn self_us(threads: &[Vec<Span>], phase: &Phase, name: Name) -> f64 {
    let per_pass: Vec<f64> = trace::totals_per_window(threads, &phase.windows)
        .iter()
        .map(|t| t.self_us_per(name, phase.summary.ops_per_pass))
        .collect();
    fastest(&per_pass)
}

/// Where the benchmark writes: `benchmark/out/` of the checkout the binary
/// was built in.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("cannot create benchmark/out");
    dir
}

/// Stops recording, writes `out/trace-<workload>.jsonl` and hands the spans
/// back for the self-time maths. A dropped span is a failed invariant.
pub fn finish_trace(report: &mut Report) -> Vec<Vec<Span>> {
    trace::disable();
    let (threads, dropped) = trace::collect();
    report
        .tally
        .invariant("trace buffers held every span", dropped == 0);
    let path = out_dir().join(format!("trace-{}.jsonl", report.workload));
    let written = std::fs::File::create(&path).and_then(|f| {
        let mut w = BufWriter::new(f);
        trace::write_jsonl(&threads, &mut w)?;
        std::io::Write::flush(&mut w)
    });
    report.tally.record(
        "span file written",
        written.map_err(|e| format!("{}: {e}", path.display())),
    );
    let spans: usize = threads.iter().map(Vec::len).sum();
    report
        .notes
        .push(format!("{spans} spans written to {}", path.display()));
    threads
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times `reps` repetitions of `f` and returns the fastest, in seconds.
/// For layer probes whose work is fixed and whose noise is one-sided.
pub fn fastest_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// `linalg.sq_l2_ns`: `sq_l2` at the corpus dimension over a strided walk of
/// base vectors against one query.
pub fn probe_sq_l2_ns(base: &Dataset, query: &[f32]) -> f64 {
    let n = base.len().min(4096);
    let secs = fastest_of(5, || {
        let mut acc = 0.0f32;
        for i in 0..n {
            acc += adapter::sq_l2(std::hint::black_box(query), base.get(i));
        }
        std::hint::black_box(acc);
    });
    secs * 1e9 / n as f64
}

/// `graph.beam_exact_us`: the beam kernel with exact distances, one pass
/// over the queries, fastest of three.
pub fn probe_beam_exact_us<G: GraphView>(graph: &G, data: &Dataset, queries: &Dataset) -> f64 {
    let mut scratch = SearchScratch::with_capacity(data.len());
    let secs = fastest_of(3, || {
        for q in queries.iter() {
            std::hint::black_box(adapter::beam_exact(graph, data, q, &mut scratch));
        }
    });
    secs * 1e6 / queries.len() as f64
}

/// The encode-side probes of a compressor.
pub struct EncodeProbe {
    pub codes: CompactCodes,
    pub encode_us_per_vector: f64,
    pub encode_one_us: f64,
    pub code_bytes_per_vector: f64,
}

/// `quant.encode_us_per_vector` (`encode_dataset` over the base set),
/// `quant.encode_one_us` (1 000 `encode_one` calls) and
/// `quant.code_bytes_per_vector` (AoS codes + their SoA mirror).
pub fn probe_encode<C: VectorCompressor>(compressor: &C, base: &Dataset) -> EncodeProbe {
    let t = Instant::now();
    let codes = compressor.encode_dataset(base);
    let encode_s = t.elapsed().as_secs_f64();
    let mut code = vec![0u8; codes.code(0).len()];
    let n_one = base.len().min(1000);
    let one_s = fastest_of(3, || {
        for i in 0..n_one {
            compressor.encode_one(base.get(i), &mut code);
            std::hint::black_box(&code);
        }
    });
    let soa = adapter::soa_from(&codes);
    EncodeProbe {
        encode_us_per_vector: encode_s * 1e6 / base.len() as f64,
        encode_one_us: one_s * 1e6 / n_one as f64,
        code_bytes_per_vector: (codes.memory_bytes() + soa.memory_bytes()) as f64
            / base.len() as f64,
        codes,
    }
}

/// Throughput of the ADC kernels in millions of codes per second.
pub struct AdcProbe {
    pub gather_mcps: f64,
    pub scan_mcps: f64,
    pub scalar_mcps: f64,
}

/// Records the node batches beam search hands to `distance_batch`.
struct Recording<'a> {
    inner: Box<dyn DistanceEstimator + 'a>,
    batches: RefCell<Vec<Vec<u32>>>,
}

impl DistanceEstimator for Recording<'_> {
    fn distance(&self, node: u32) -> f32 {
        self.inner.distance(node)
    }
    fn distance_batch(&self, nodes: &[u32], out: &mut [f32]) {
        self.batches.borrow_mut().push(nodes.to_vec());
        self.inner.distance_batch(nodes, out)
    }
}

/// `quant.adc_{gather,scan,scalar}_mcps`. *gather* replays the batched SoA
/// kernel over the batches real searches scored (random ids, at most one
/// graph degree per call); *scan* is the same kernel over ids `0..n` in one
/// call (what the `hotpath` experiment reports); *scalar* is the AoS
/// `distance` oracle over the recorded ids.
pub fn probe_adc<C: VectorCompressor, G: GraphView>(
    compressor: &C,
    codes: &CompactCodes,
    graph: &G,
    queries: &Dataset,
) -> Option<AdcProbe> {
    let soa = adapter::soa_from(codes);
    let n_q = queries.len().min(200);
    let mut scratch = SearchScratch::with_capacity(codes.len());
    let mut recorded: Vec<Vec<Vec<u32>>> = Vec::with_capacity(n_q);
    for qi in 0..n_q {
        let rec = Recording {
            inner: compressor.batch_estimator(&soa, queries.get(qi))?,
            batches: RefCell::new(Vec::new()),
        };
        adapter::beam_search(graph, &rec, &mut scratch);
        recorded.push(rec.batches.into_inner());
    }
    let gathered: usize = recorded.iter().flatten().map(Vec::len).sum();
    let mut out = vec![0.0f32; codes.len()];

    // Estimators are built before timing, so the rates are the kernels'.
    let batched: Vec<_> = (0..n_q)
        .map(|qi| compressor.batch_estimator(&soa, queries.get(qi)))
        .collect::<Option<_>>()?;
    let gather_s = fastest_of(5, || {
        for (est, batches) in batched.iter().zip(&recorded) {
            for b in batches {
                est.distance_batch(b, &mut out[..b.len()]);
            }
        }
        std::hint::black_box(&out);
    });
    let scalar: Vec<_> = (0..n_q)
        .map(|qi| compressor.estimator(codes, queries.get(qi)))
        .collect();
    let scalar_s = fastest_of(5, || {
        for (est, batches) in scalar.iter().zip(&recorded) {
            for b in batches {
                for (slot, &id) in out.iter_mut().zip(b) {
                    *slot = est.distance(id);
                }
            }
        }
        std::hint::black_box(&out);
    });
    let all: Vec<u32> = (0..codes.len() as u32).collect();
    let scan_queries = 8.min(n_q);
    let scan_s = fastest_of(3, || {
        for est in &batched[..scan_queries] {
            est.distance_batch(&all, &mut out);
        }
        std::hint::black_box(&out);
    });
    let mcps = |codes: usize, secs: f64| codes as f64 / secs.max(1e-9) / 1e6;
    Some(AdcProbe {
        gather_mcps: mcps(gathered, gather_s),
        scan_mcps: mcps(codes.len() * scan_queries, scan_s),
        scalar_mcps: mcps(gathered, scalar_s),
    })
}

/// The structure check of an unfiltered answer over `n` vectors.
pub fn check_plain(n: usize) -> impl Fn(usize, &[Neighbor]) -> Result<(), String> {
    move |_, res| crate::checks::check_top_k(res, K, n, true)
}

/// The check of a filtered answer: structure (it may be short when the beam
/// met fewer than `k` matches) and the predicate on every id.
pub fn check_filtered(labels: &Labels) -> impl Fn(usize, &[Neighbor]) -> Result<(), String> + '_ {
    move |_, res| {
        crate::checks::check_top_k(res, K, labels.len(), false)?;
        match res
            .iter()
            .find(|r| !labels.matches(r.id as usize, adapter::predicate()))
        {
            Some(r) => Err(format!("id {} does not satisfy the predicate", r.id)),
            None => Ok(()),
        }
    }
}
