//! `mem-search` — the paper's in-memory scenario: HNSW(m 16, efc 100) over
//! 20 000 vectors, PQ M=16/K=256, `InMemoryIndex::search`, and the same
//! queries under a label predicate of selectivity ≈ 0.12.
//!
//! Why: LUT build, beam traversal and gathered ADC do all the work — no I/O,
//! no threads, no serving — so a kernel or traversal change shows here
//! undiluted, and the filter's per-neighbor predicate cost shows as the
//! filtered / unfiltered ratio.

use crate::adapter::{self, FilterStrategy, InMemoryIndex, SearchScratch, VectorCompressor};
use crate::trace::{Name, Traced};

use super::{
    check_filtered, check_plain, check_traced_equal, corpus, finish_trace, interleave, measure,
    overhead_frac, probe_adc, probe_beam_exact_us, probe_encode, probe_sq_l2_ns, recall,
    report_reads, self_us, traced_pair, Corpus, Phase, PhaseCfg, QueryPhase, Report, RunCfg, Setup,
    CORPUS_SEED, TRACED_PASSES,
};

const N: usize = 20_000;
/// ADC-only recall sits near 0.33 at this shape.
const RECALL_FLOOR: f64 = 0.25;

/// Exact work counters of a search phase, per query.
#[derive(Clone, Copy, Default)]
pub struct Work {
    calls: usize,
    hops: usize,
    dist_comps: usize,
}

impl Work {
    pub fn add(&mut self, hops: usize, dist_comps: usize) {
        self.calls += 1;
        self.hops += hops;
        self.dist_comps += dist_comps;
    }
    pub fn hops_per_query(&self) -> f64 {
        self.hops as f64 / self.calls.max(1) as f64
    }
    pub fn dist_comps_per_query(&self) -> f64 {
        self.dist_comps as f64 / self.calls.max(1) as f64
    }
}

fn search_phase<'a, C: VectorCompressor>(
    index: &'a InMemoryIndex<C>,
    corpus: &'a Corpus,
    scratch: &'a mut SearchScratch,
    work: &'a mut Work,
) -> QueryPhase<'a> {
    QueryPhase::new(
        &corpus.queries,
        "InMemoryIndex::search",
        move |q| {
            let (res, stats) = adapter::mem_search(index, q, scratch);
            work.add(stats.hops, stats.dist_comps);
            res
        },
        check_plain(index.len()),
    )
}

fn filtered_phase<'a, C: VectorCompressor>(
    index: &'a InMemoryIndex<C>,
    corpus: &'a Corpus,
    scratch: &'a mut SearchScratch,
) -> QueryPhase<'a> {
    QueryPhase::new(
        &corpus.queries,
        "InMemoryIndex::search_filtered",
        move |q| adapter::mem_search_filtered(index, q, FilterStrategy::DuringTraversal, scratch).0,
        check_filtered(&corpus.labels),
    )
}

/// The unfiltered and filtered search phases over an in-memory index, pass
/// by pass in turn (also the read side of `train-rpq`).
pub struct MemPhases {
    pub main: Phase,
    pub filtered: Phase,
    pub work: Work,
}

pub fn mem_phases<C: VectorCompressor>(
    index: &InMemoryIndex<C>,
    corpus: &Corpus,
    cfg: PhaseCfg,
    report: &mut Report,
) -> MemPhases {
    let mut scratch = SearchScratch::with_capacity(index.len());
    let mut filtered_scratch = SearchScratch::with_capacity(index.len());
    let mut work = Work::default();
    let mut main = search_phase(index, corpus, &mut scratch, &mut work);
    let mut filtered = filtered_phase(index, corpus, &mut filtered_scratch);
    interleave(
        cfg,
        &mut report.tally,
        &mut [(1, &mut |t| main.pass(t)), (1, &mut |t| filtered.pass(t))],
    );
    let (main, filtered) = (main.finish(), filtered.finish());
    MemPhases {
        main,
        filtered,
        work,
    }
}

/// The traced half of an in-memory workload: the search through `Traced<C>`
/// paired pass by pass with the untraced one, answers compared with the
/// untraced run's, self times split.
pub fn report_mem_layers<C: VectorCompressor>(
    report: &mut Report,
    corpus: &Corpus,
    untraced: &MemPhases,
    index: &InMemoryIndex<C>,
    traced_index: &InMemoryIndex<Traced<C>>,
) {
    let (mut s1, mut s2) = (
        SearchScratch::with_capacity(index.len()),
        SearchScratch::with_capacity(index.len()),
    );
    let (mut w1, mut w2) = (Work::default(), Work::default());
    let (plain, traced) = traced_pair(
        &mut report.tally,
        TRACED_PASSES,
        search_phase(index, corpus, &mut s1, &mut w1),
        search_phase(traced_index, corpus, &mut s2, &mut w2),
    );
    // No layer metric reads filtered spans, so they are not recorded; the
    // answers still come through the traced compressor.
    let mut scratch = SearchScratch::with_capacity(index.len());
    let mut traced_filtered = filtered_phase(traced_index, corpus, &mut scratch);
    interleave(
        PhaseCfg::rounds(1),
        &mut report.tally,
        &mut [(1, &mut |t| traced_filtered.pass(t))],
    );
    let traced_filtered = traced_filtered.finish();
    check_traced_equal(
        &mut report.tally,
        "traced == untraced",
        &untraced.main,
        &traced,
    );
    check_traced_equal(
        &mut report.tally,
        "traced == untraced (filtered)",
        &untraced.filtered,
        &traced_filtered,
    );
    let threads = finish_trace(report);
    report.layer(
        "quant.lut_build_us",
        self_us(&threads, &traced, Name::QuantLutBuild),
    );
    report.layer(
        "quant.adc_score_us",
        self_us(&threads, &traced, Name::QuantAdcScore),
    );
    report.layer(
        "graph.traverse_us",
        self_us(&threads, &traced, Name::MemorySearch),
    );
    report.layer("graph.hops_per_query", untraced.work.hops_per_query());
    report.layer(
        "graph.dist_comps_per_query",
        untraced.work.dist_comps_per_query(),
    );
    report.layer("trace.untraced_us_per_query", untraced.main.summary.mean_us);
    report.layer("trace.overhead_frac", overhead_frac(&plain, &traced));
    report.layer(
        "filter.overhead_frac",
        untraced.filtered.summary.mean_us / untraced.main.summary.mean_us - 1.0,
    );
    report.note_phase("untraced search", &untraced.main.summary);
    report.note_phase("traced search (paired with untraced)", &traced.summary);
}

pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::new("mem-search");
    let mut setup = Setup::default();
    let corpus = corpus(N, cfg.seed, &mut setup);
    let graph = setup.stage("graph", || adapter::build_hnsw(&corpus.base, CORPUS_SEED));
    let pq = setup.stage("train", || {
        adapter::train_pq(&corpus.base, 16, 256, CORPUS_SEED)
    });
    let index = setup.stage("index", || {
        adapter::mem_build(pq.clone(), &corpus.base, graph, corpus.labels.clone())
    });

    if !cfg.trace {
        let phases = mem_phases(
            &index,
            &corpus,
            PhaseCfg::timed(cfg.seconds, cfg.min_passes(30)),
            &mut report,
        );
        report_reads(&mut report, &corpus, &phases.main, &phases.filtered);
        report.recall_floor(recall(&corpus.gt, &phases.main.reference), RECALL_FLOOR);
        report.e2e("bytes_per_vector", index.memory_bytes() as f64 / N as f64);
        report.finish_end_to_end(&setup);
        return report;
    }

    let untraced = mem_phases(
        &index,
        &corpus,
        PhaseCfg::timed(cfg.seconds * 0.4, cfg.min_passes(10)),
        &mut report,
    );
    let traced_index = adapter::mem_build(
        Traced(pq.clone()),
        &corpus.base,
        index.graph().clone(),
        corpus.labels.clone(),
    );
    report_mem_layers(&mut report, &corpus, &untraced, &index, &traced_index);
    drop(traced_index);

    let mut scratch = SearchScratch::with_capacity(N);
    let post = measure(
        &corpus.queries,
        PhaseCfg::timed(cfg.seconds * 0.05, 3),
        &mut report.tally,
        "InMemoryIndex::search_filtered (post-filter)",
        |q| {
            let strategy = FilterStrategy::PostFilter { inflation: 4 };
            adapter::mem_search_filtered(&index, q, strategy, &mut scratch).0
        },
        check_filtered(&corpus.labels),
    );
    report.layer("filter.post_filter_us", post.summary.mean_us);

    report.layer("graph.hnsw_build_s", setup.get("graph"));
    report.layer("quant.pq_train_s", setup.get("train"));
    report.layer("memory.build_s", setup.get("index"));
    report.layer("memory.bytes", index.memory_bytes() as f64);
    report.layer(
        "graph.beam_exact_us",
        probe_beam_exact_us(index.graph(), &corpus.base, &corpus.queries),
    );
    report.layer(
        "linalg.sq_l2_ns",
        probe_sq_l2_ns(&corpus.base, corpus.queries.get(0)),
    );
    let enc = probe_encode(&pq, &corpus.base);
    report.layer("quant.encode_us_per_vector", enc.encode_us_per_vector);
    report.layer("quant.encode_one_us", enc.encode_one_us);
    report.layer("quant.code_bytes_per_vector", enc.code_bytes_per_vector);
    if let Some(adc) = probe_adc(&pq, &enc.codes, index.graph(), &corpus.queries) {
        report.layer("quant.adc_gather_mcps", adc.gather_mcps);
        report.layer("quant.adc_scan_mcps", adc.scan_mcps);
        report.layer("quant.adc_scalar_mcps", adc.scalar_mcps);
    }
    report
}
