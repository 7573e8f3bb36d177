//! `disk-search` — the paper's SSD + memory hybrid scenario: Vamana(r 32,
//! l 64) over the same 20 000 vectors, `DiskIndex` with rerank 80, eight-wide
//! I/O stages and a node cache of n/20, an 82 MB store file under
//! `benchmark/out/`, `search_with_scratch`.
//!
//! Why: cache probe, `pread` + block parse and exact rerank are about half
//! the query, the working set is 20× the node cache, and recall is 0.95
//! instead of the 0.33 ADC ceiling — an ADC gain should show *less* here and
//! a disk-path gain *only* here. Reads come from the OS page cache:
//! latencies are the sandbox's, not a device's, and the device model's time
//! is reported as `disk.modeled_*`, never added to a measured number.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::adapter::{self, DiskIndex, DiskSearchStats, Neighbor, SearchScratch, VectorCompressor};
use crate::checks::check_top_k;
use crate::trace::{Name, Traced};

use super::{
    check_filtered, check_traced_equal, corpus, fastest_of, finish_trace, interleave, out_dir,
    overhead_frac, probe_beam_exact_us, probe_encode, probe_sq_l2_ns, recall, report_reads,
    self_us, traced_pair, Corpus, Phase, PhaseCfg, QueryPhase, Report, RunCfg, Setup, CORPUS_SEED,
    TRACED_PASSES,
};

const N: usize = 20_000;
/// Exact rerank of 80 candidates gives ≈ 0.95 at this shape.
const RECALL_FLOOR: f64 = 0.85;

/// A per-process store path, removed when the run ends.
struct StoreFile(PathBuf);

impl StoreFile {
    fn new(tag: &str) -> Self {
        Self(out_dir().join(format!("disk-{}-{tag}.store", std::process::id())))
    }
}

impl Drop for StoreFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Sums of the per-query stats over every call of a phase.
#[derive(Default)]
struct DiskWork {
    calls: usize,
    hops: usize,
    dist_comps: usize,
    io_reads: usize,
    coalesced_ios: usize,
    rerank_reads: usize,
    modeled_io_s: f64,
    modeled_stall_s: f64,
}

impl DiskWork {
    fn add(&mut self, s: &DiskSearchStats) {
        self.calls += 1;
        self.hops += s.hops;
        self.dist_comps += s.dist_comps;
        self.io_reads += s.io_reads;
        self.coalesced_ios += s.coalesced_ios;
        self.rerank_reads += s.rerank_reads;
        self.modeled_io_s += f64::from(s.io_seconds);
        self.modeled_stall_s += f64::from(s.io_stall_seconds);
    }

    fn per_query(&self, total: usize) -> f64 {
        total as f64 / self.calls.max(1) as f64
    }
}

struct DiskPhases {
    main: Phase,
    filtered: Phase,
    work: DiskWork,
}

/// Structure, and every returned distance is the exact one, bit for bit.
fn check_exact<'a>(corpus: &'a Corpus) -> impl Fn(usize, &[Neighbor]) -> Result<(), String> + 'a {
    move |qi, res| {
        check_top_k(res, adapter::K, corpus.base.len(), true)?;
        let q = corpus.queries.get(qi);
        match res.iter().find(|r| {
            adapter::sq_l2(q, corpus.base.get(r.id as usize)).to_bits() != r.dist.to_bits()
        }) {
            Some(r) => Err(format!(
                "distance of id {} is not sq_l2(query, base[id])",
                r.id
            )),
            None => Ok(()),
        }
    }
}

fn search_phase<'a, C: VectorCompressor>(
    index: &'a DiskIndex<C>,
    corpus: &'a Corpus,
    scratch: &'a mut SearchScratch,
    work: &'a mut DiskWork,
) -> QueryPhase<'a> {
    QueryPhase::new(
        &corpus.queries,
        "DiskIndex::search_with_scratch",
        move |q| {
            let (res, stats) = adapter::disk_search(index, q, scratch);
            work.add(&stats);
            res
        },
        check_exact(corpus),
    )
}

fn filtered_phase<'a, C: VectorCompressor>(
    index: &'a DiskIndex<C>,
    corpus: &'a Corpus,
    scratch: &'a mut SearchScratch,
) -> QueryPhase<'a> {
    QueryPhase::new(
        &corpus.queries,
        "DiskIndex::search_filtered",
        move |q| adapter::disk_search_filtered(index, q, scratch).0,
        check_filtered(&corpus.labels),
    )
}

/// The unfiltered and the filtered phase, pass by pass in turn.
fn disk_phases<C: VectorCompressor>(
    index: &DiskIndex<C>,
    corpus: &Corpus,
    cfg: PhaseCfg,
    report: &mut Report,
) -> DiskPhases {
    let mut scratch = SearchScratch::with_capacity(index.len());
    let mut filtered_scratch = SearchScratch::with_capacity(index.len());
    let mut work = DiskWork::default();
    let mut main = search_phase(index, corpus, &mut scratch, &mut work);
    let mut filtered = filtered_phase(index, corpus, &mut filtered_scratch);
    interleave(
        cfg,
        &mut report.tally,
        &mut [(1, &mut |t| main.pass(t)), (1, &mut |t| filtered.pass(t))],
    );
    let (main, filtered) = (main.finish(), filtered.finish());
    DiskPhases {
        main,
        filtered,
        work,
    }
}

/// `disk.pread_probe_us`: `read_exact_at` of as many store blocks as a query
/// reads, at seeded-random block offsets, per query.
fn probe_pread_us(store: &StoreFile, block_bytes: usize, blocks_per_query: f64, seed: u64) -> f64 {
    let Ok(file) = File::open(&store.0) else {
        return 0.0;
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let queries = 200;
    let reads = (blocks_per_query * queries as f64).round() as usize;
    let offsets: Vec<u64> = (0..reads)
        .map(|_| rng.gen_range(0..N as u64) * block_bytes as u64)
        .collect();
    let mut buf = vec![0u8; block_bytes];
    let secs = fastest_of(3, || {
        for &off in &offsets {
            file.read_exact_at(&mut buf, off).expect("store read");
            std::hint::black_box(&buf);
        }
    });
    secs * 1e6 / queries as f64
}

pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::new("disk-search");
    let mut setup = Setup::default();
    let corpus = corpus(N, cfg.seed, &mut setup);
    let graph = setup.stage("graph", || adapter::build_vamana(&corpus.base, CORPUS_SEED));
    let pq = setup.stage("train", || {
        adapter::train_pq(&corpus.base, 16, 256, CORPUS_SEED)
    });
    let store = StoreFile::new("plain");
    let built = setup.stage("index", || {
        adapter::disk_build(
            pq.clone(),
            &corpus.base,
            &graph,
            corpus.labels.clone(),
            &store.0,
        )
    });
    let mut index = match built {
        Ok(index) => index,
        Err(e) => {
            report.tally.record("DiskIndex::build", Err(e.to_string()));
            return report;
        }
    };

    if !cfg.trace {
        // A filtered disk search costs more than an unfiltered one, so at
        // one pass each per round twenty rounds fill the ten seconds.
        let cfg_timed = PhaseCfg::timed(cfg.seconds, cfg.min_passes(20));
        let phases = disk_phases(&index, &corpus, cfg_timed, &mut report);
        report_reads(&mut report, &corpus, &phases.main, &phases.filtered);
        report.recall_floor(recall(&corpus.gt, &phases.main.reference), RECALL_FLOOR);
        report.e2e("bytes_per_vector", index.resident_bytes() as f64 / N as f64);
        report.e2e(
            "io_sectors_per_query",
            phases.work.per_query(phases.work.io_reads),
        );
        report.finish_end_to_end(&setup);
        return report;
    }

    let cfg_untraced = PhaseCfg::timed(cfg.seconds * 0.4, cfg.min_passes(8));
    let untraced = disk_phases(&index, &corpus, cfg_untraced, &mut report);
    let hit_rate = f64::from(index.cache_stats().hit_rate());

    let traced_store = StoreFile::new("traced");
    match adapter::disk_build(
        Traced(pq.clone()),
        &corpus.base,
        &graph,
        corpus.labels.clone(),
        &traced_store.0,
    ) {
        Ok(traced_index) => {
            let (mut s1, mut s2) = (
                SearchScratch::with_capacity(N),
                SearchScratch::with_capacity(N),
            );
            let (mut w1, mut w2) = (DiskWork::default(), DiskWork::default());
            let (plain, traced) = traced_pair(
                &mut report.tally,
                TRACED_PASSES,
                search_phase(&index, &corpus, &mut s1, &mut w1),
                search_phase(&traced_index, &corpus, &mut s2, &mut w2),
            );
            // Filtered answers come through the traced compressor too, but
            // no layer metric reads their spans, so they are not recorded.
            let mut scratch = SearchScratch::with_capacity(N);
            let mut traced_filtered = filtered_phase(&traced_index, &corpus, &mut scratch);
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
            let threads = finish_trace(&mut report);
            report.layer(
                "quant.lut_build_us",
                self_us(&threads, &traced, Name::QuantLutBuild),
            );
            report.layer(
                "quant.adc_score_us",
                self_us(&threads, &traced, Name::QuantAdcScore),
            );
            report.layer("disk.self_us", self_us(&threads, &traced, Name::DiskSearch));
            report.layer("trace.overhead_frac", overhead_frac(&plain, &traced));
            report.note_phase("traced search (paired with untraced)", &traced.summary);
        }
        Err(e) => report
            .tally
            .record("DiskIndex::build (traced)", Err(e.to_string())),
    }
    drop(traced_store);

    let w = &untraced.work;
    report.layer("trace.untraced_us_per_query", untraced.main.summary.mean_us);
    report.layer(
        "filter.overhead_frac",
        untraced.filtered.summary.mean_us / untraced.main.summary.mean_us - 1.0,
    );
    report.layer("graph.hops_per_query", w.per_query(w.hops));
    report.layer("graph.dist_comps_per_query", w.per_query(w.dist_comps));
    report.layer("disk.io_sectors_per_query", w.per_query(w.io_reads));
    report.layer("disk.coalesced_ios_per_query", w.per_query(w.coalesced_ios));
    report.layer("disk.rerank_reads_per_query", w.per_query(w.rerank_reads));
    report.layer(
        "disk.modeled_io_us_per_query",
        w.modeled_io_s * 1e6 / w.calls as f64,
    );
    report.layer(
        "disk.modeled_stall_us_per_query",
        w.modeled_stall_s * 1e6 / w.calls as f64,
    );
    report.layer("cache.hit_rate", hit_rate);
    report.layer("graph.vamana_build_s", setup.get("graph"));
    report.layer("quant.pq_train_s", setup.get("train"));
    report.layer("disk.build_s", setup.get("index"));
    report.layer("disk.store_bytes", index.disk_bytes() as f64);
    let block_bytes = index.disk_bytes() / N;
    let blocks_per_query = w.per_query(w.io_reads) * 4096.0 / block_bytes as f64;
    report.layer(
        "disk.pread_probe_us",
        probe_pread_us(&store, block_bytes, blocks_per_query, cfg.seed),
    );
    report.layer(
        "graph.beam_exact_us",
        probe_beam_exact_us(&graph, &corpus.base, &corpus.queries),
    );
    report.layer(
        "linalg.sq_l2_ns",
        probe_sq_l2_ns(&corpus.base, corpus.queries.get(0)),
    );
    let enc = probe_encode(&pq, &corpus.base);
    report.layer("quant.encode_us_per_vector", enc.encode_us_per_vector);
    report.layer("quant.encode_one_us", enc.encode_one_us);
    report.layer("quant.code_bytes_per_vector", enc.code_bytes_per_vector);
    report.note_phase("untraced search", &untraced.main.summary);

    // Last, because it replaces the cache the phases above measured.
    let t = Instant::now();
    let pinned = adapter::disk_warm_cache_by_trace(&mut index, &corpus.queries);
    report.layer("cache.trace_warm_s", t.elapsed().as_secs_f64());
    report
        .tally
        .invariant("trace warming pinned cache_nodes", pinned == N / 20);
    let mut scratch = SearchScratch::with_capacity(N);
    for q in corpus.queries.iter() {
        std::hint::black_box(adapter::disk_search(&index, q, &mut scratch));
    }
    report.layer(
        "cache.trace_hit_rate",
        f64::from(index.cache_stats().hit_rate()),
    );
    report
}
