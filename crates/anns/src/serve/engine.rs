//! The concurrent query engine: fan-out over shards through the worker
//! pool, request batching, and latency accounting (DESIGN.md §7.2–§7.4).
//!
//! Every query becomes `n_shards` jobs. The calling thread hands all of a
//! wave's jobs but the last to the pool, where an idle worker picks each up
//! and answers it with its own reusable scratch; it runs the last job
//! itself, with a scratch from the engine's stash, and then merges: it
//! drains partial results as they complete, merges each query's top-k as
//! soon as its last shard reports, and stamps the query's wall-clock
//! latency at that moment. A single query over two shards therefore pays
//! one thread handoff instead of two, and over one shard none. That
//! submit-run-drain loop exists once (`ServeEngine::wave`): a batch runs it
//! per window, a single query is a wave of one, and every job — the
//! caller's included — sends its shard's typed `Result` back so a fault
//! surfaces on the calling thread with its reason. Batching bounds how many
//! queries are in flight at once (`max_batch × n_shards` jobs), which is
//! what keeps tail latency meaningful under load instead of queueing an
//! entire dataset behind the first queries.

use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use rpq_data::{Dataset, LabelPredicate};
use rpq_graph::{Neighbor, SearchScratch};

use super::metrics::{LatencyRecorder, LatencySummary};
use super::pool::{default_workers, WorkerPool};
use super::{merge_top_k, recover, FilteredQuery, ShardQueryStats, ShardedIndex};
use crate::filter::FilterStrategy;
use crate::harness::QueryMeans;

/// Engine sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads besides the calling thread, which runs the last
    /// shard job of every wave itself (default: one per available core).
    pub workers: usize,
    /// Queries in flight per batching wave (default 64).
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: default_workers(),
            max_batch: 64,
        }
    }
}

/// What one [`ServeEngine::serve_batch`] call measured.
#[derive(Clone, Copy, Debug)]
pub struct BatchReport {
    /// Queries answered. The closed-loop engine admits everything (the
    /// client self-throttles, so overload can't happen here); the cluster's
    /// open-loop server reports real admission decisions in its own
    /// [`crate::serve::ClusterReport`] (DESIGN.md §11.3–§11.4).
    pub queries: usize,
    /// Shards each query fanned out to.
    pub shards: usize,
    /// Worker threads that served the batch.
    pub workers: usize,
    /// End-to-end wall time for the whole batch, seconds.
    pub wall_seconds: f32,
    /// Throughput: `queries / wall_seconds`.
    pub qps: f32,
    /// Per-query latency percentiles for this batch: measured wall time
    /// only. Disk shards' modelled device time is reported beside it
    /// (`mean_io_ms`, `mean_stall_ms`), never added into it.
    pub latency: LatencySummary,
    /// Mean next-hop selections per query (summed across shards).
    pub mean_hops: f32,
    /// Mean modelled device time per query, milliseconds (0 when all
    /// shards are in-memory).
    pub mean_io_ms: f32,
    /// Mean modelled unhidden-I/O stall per query, milliseconds.
    pub mean_stall_ms: f32,
    /// Mean coalesced I/O commands per query.
    pub mean_coalesced_ios: f32,
    /// Fraction of node lookups served from shard RAM caches (0 with
    /// caches disabled or all-memory shards).
    pub cache_hit_rate: f32,
}

/// A concurrent serving front-end over a [`ShardedIndex`].
///
/// The engine owns a persistent [`WorkerPool`]; constructing one is cheap
/// relative to index build, and it can serve any number of batches. Results
/// are bit-identical to [`ShardedIndex::search`] — concurrency changes
/// only *when* shard searches run, never their outcome.
pub struct ServeEngine {
    index: Arc<ShardedIndex>,
    pool: WorkerPool,
    /// Scratches for the jobs calling threads run themselves; the lock is
    /// held only to pop and push, so concurrent callers never wait on it.
    stash: Mutex<Vec<SearchScratch>>,
    max_batch: usize,
    recorder: LatencyRecorder,
}

impl ServeEngine {
    /// Spins up the worker pool (scratches pre-sized to the largest shard).
    pub fn new(index: Arc<ShardedIndex>, cfg: ServeConfig) -> Self {
        let pool = WorkerPool::new(cfg.workers, index.max_shard_len());
        Self {
            index,
            pool,
            stash: Mutex::new(Vec::new()),
            max_batch: cfg.max_batch.max(1),
            recorder: LatencyRecorder::new(),
        }
    }

    /// The underlying sharded index.
    pub fn index(&self) -> &ShardedIndex {
        &self.index
    }

    /// Worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Queries answered over the engine's lifetime: the latency recorder's
    /// lifetime count, one sample per query whose last shard reported.
    pub fn queries_served(&self) -> usize {
        self.recorder.count()
    }

    /// Latency percentiles over every query the engine ever answered.
    pub fn metrics(&self) -> LatencySummary {
        self.recorder.snapshot()
    }

    /// Answers one query: fan out to all shards, merge, record latency.
    pub fn search(&self, query: &[f32], ef: usize, k: usize) -> (Vec<Neighbor>, ShardQueryStats) {
        self.search_one(query, None, ef, k)
    }

    /// [`ServeEngine::search`] under a predicate: the same fan-out/merge,
    /// with every shard running its filtered search. Results match
    /// [`ShardedIndex::search_filtered`] id-for-id — the sequential
    /// reference the concurrent path is tested against. Panics (on the
    /// calling thread) when a shard carries no labels.
    pub fn search_filtered(
        &self,
        query: &[f32],
        pred: LabelPredicate,
        strategy: FilterStrategy,
        ef: usize,
        k: usize,
    ) -> (Vec<Neighbor>, ShardQueryStats) {
        self.search_one(query, Some(FilteredQuery { pred, strategy }), ef, k)
    }

    /// A wave of one: the query's merged top-`k` and its stats summed
    /// across shards.
    fn search_one(
        &self,
        query: &[f32],
        filter: Option<FilteredQuery>,
        ef: usize,
        k: usize,
    ) -> (Vec<Neighbor>, ShardQueryStats) {
        let mut answer = None;
        self.wave(std::iter::once(query), filter, ef, k, |_, res, stats, _| {
            answer = Some((res, stats))
        });
        answer.expect("a wave of one completes its query")
    }

    /// The engine's one submit-run-drain loop. Every query of `window`
    /// becomes one job per shard. All but the window's last job go to the
    /// pool; the calling thread runs the last one itself, then merges as
    /// jobs report and calls `done(position in window, top-k, stats summed
    /// across shards, latency µs)` the moment a query's last shard does. A
    /// query's latency is the wall time since its submission.
    ///
    /// The filter is `Copy`, so each job carries it by value, and each job
    /// sends its shard's `Result` back — a typed fault surfaces here, on
    /// the caller's thread, with its own message, whoever ran the job.
    fn wave<'q>(
        &self,
        window: impl Iterator<Item = &'q [f32]>,
        filter: Option<FilteredQuery>,
        ef: usize,
        k: usize,
        mut done: impl FnMut(usize, Vec<Neighbor>, ShardQueryStats, f32),
    ) {
        struct InFlight {
            submitted: Instant,
            pending: usize,
            partials: Vec<Vec<Neighbor>>,
            stats: ShardQueryStats,
        }
        let n_shards = self.index.n_shards();
        let (tx, rx) = mpsc::channel();
        let mut in_flight = Vec::with_capacity(window.size_hint().0);
        // A job goes to the pool only once the next one exists, so the job
        // still held when the window ends is the caller's.
        let mut held: Option<(usize, usize, Arc<[f32]>)> = None;
        for (w, query) in window.enumerate() {
            assert_eq!(query.len(), self.index.dim(), "query dimension mismatch");
            let query: Arc<[f32]> = query.into();
            in_flight.push(InFlight {
                submitted: Instant::now(),
                pending: n_shards,
                partials: Vec::with_capacity(n_shards),
                stats: ShardQueryStats::default(),
            });
            for s in 0..n_shards {
                if let Some((w, s, query)) = held.replace((w, s, Arc::clone(&query))) {
                    let index = Arc::clone(&self.index);
                    let tx = tx.clone();
                    self.pool.submit(move |scratch| {
                        let _ = tx.send((w, index.read_shard(s, &query, filter, ef, k, scratch)));
                    });
                }
            }
        }
        if let Some((w, s, query)) = held {
            // A panic here drops the popped scratch; the stash's lock is
            // not held while the job runs, so nothing is poisoned.
            let mut scratch = recover(self.stash.lock())
                .pop()
                .unwrap_or_else(|| SearchScratch::with_capacity(self.index.max_shard_len()));
            let out = self
                .index
                .read_shard(s, &query, filter, ef, k, &mut scratch);
            recover(self.stash.lock()).push(scratch);
            let _ = tx.send((w, out));
        }
        drop(tx);
        for (w, out) in rx {
            let (part, stats) = out.unwrap_or_else(|fault| panic!("shard search failed: {fault}"));
            let q = &mut in_flight[w];
            q.stats.merge(&stats);
            q.partials.push(part);
            q.pending -= 1;
            if q.pending == 0 {
                let us = q.submitted.elapsed().as_secs_f32() * 1e6;
                self.recorder.record_us(us);
                let merged = merge_top_k(&std::mem::take(&mut q.partials), k);
                done(w, merged, q.stats, us);
            }
        }
        // Every sender is gone once rx closes; unfinished queries mean
        // shard jobs died (panicked) without reporting. Returning a top-k
        // missing a shard would be silently wrong — fail loudly.
        let lost: usize = in_flight.iter().map(|q| q.pending).sum();
        assert_eq!(lost, 0, "{lost} shard search job(s) panicked");
    }

    /// Answers a batch of queries concurrently, at most
    /// [`ServeConfig::max_batch`] in flight at a time. Returns per-query
    /// global top-`k` results (in query order) and the batch's measurements.
    pub fn serve_batch(
        &self,
        queries: &Dataset,
        ef: usize,
        k: usize,
    ) -> (Vec<Vec<Neighbor>>, BatchReport) {
        let n_queries = queries.len();
        let mut results: Vec<Vec<Neighbor>> = (0..n_queries).map(|_| Vec::new()).collect();
        let mut latencies_us: Vec<f32> = Vec::with_capacity(n_queries);
        let mut total = ShardQueryStats::default();
        let t_batch = Instant::now();
        for wave_start in (0..n_queries).step_by(self.max_batch) {
            let wave_end = (wave_start + self.max_batch).min(n_queries);
            let window = (wave_start..wave_end).map(|qi| queries.get(qi));
            self.wave(window, None, ef, k, |w, res, stats, us| {
                results[wave_start + w] = res;
                total.merge(&stats);
                latencies_us.push(us);
            });
        }
        let wall = t_batch.elapsed().as_secs_f32().max(1e-9);
        let means = QueryMeans::of(&total, n_queries);
        let report = BatchReport {
            queries: n_queries,
            shards: self.index.n_shards(),
            workers: self.pool.workers(),
            wall_seconds: wall,
            qps: n_queries as f32 / wall,
            latency: LatencySummary::from_samples(&latencies_us),
            mean_hops: means.hops,
            mean_io_ms: means.io_ms,
            mean_stall_ms: means.stall_ms,
            mean_coalesced_ios: means.coalesced_ios,
            cache_hit_rate: means.cache_hit_rate,
        };
        (results, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_data::synth::{SynthConfig, ValueTransform};
    use rpq_graph::{HnswConfig, ProximityGraph, SearchScratch};
    use rpq_quant::{PqConfig, ProductQuantizer};

    fn setup(n: usize, seed: u64) -> (Dataset, Dataset) {
        let data = SynthConfig {
            dim: 8,
            intrinsic_dim: 4,
            clusters: 4,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        }
        .generate(n + 16, seed);
        data.split_at(n)
    }

    fn graph_builder(part: &Dataset) -> ProximityGraph {
        HnswConfig {
            m: 8,
            ef_construction: 40,
            seed: 3,
        }
        .build(part)
    }

    fn engine(n: usize, seed: u64, shards: usize, cfg: ServeConfig) -> (ServeEngine, Dataset) {
        let (base, queries) = setup(n, seed);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let index = Arc::new(ShardedIndex::build_in_memory(
            &pq,
            &base,
            shards,
            graph_builder,
        ));
        (ServeEngine::new(index, cfg), queries)
    }

    #[test]
    fn concurrent_results_match_sequential_reference() {
        let (eng, queries) = engine(300, 21, 3, ServeConfig::default());
        let mut scratch = SearchScratch::new();
        let (batch, report) = eng.serve_batch(&queries, 40, 8);
        assert_eq!(batch.len(), queries.len());
        for (qi, got) in batch.iter().enumerate() {
            let (want, _) = eng.index().search(queries.get(qi), 40, 8, &mut scratch);
            assert_eq!(
                got.iter().map(|n| n.id).collect::<Vec<_>>(),
                want.iter().map(|n| n.id).collect::<Vec<_>>(),
                "query {qi} diverged",
            );
        }
        assert_eq!(report.queries, queries.len());
        assert!(report.qps > 0.0);
        assert!(report.mean_hops > 0.0);
        assert_eq!(report.mean_io_ms, 0.0);
    }

    /// Ids with distance bits: what "bit-identical results" compares.
    fn bits(res: &[Neighbor]) -> Vec<(u32, u32)> {
        res.iter().map(|n| (n.id, n.dist.to_bits())).collect()
    }

    fn labeled_engine(serve: ServeConfig) -> (ServeEngine, Dataset) {
        let cfg = SynthConfig {
            dim: 8,
            intrinsic_dim: 4,
            clusters: 8,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        };
        let (all, labels) = cfg.generate_labeled(316, 27, 4);
        let (base, queries) = all.split_at(300);
        let base_labels = labels.subset(&(0..300).collect::<Vec<_>>());
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let index = Arc::new(ShardedIndex::build_in_memory_labeled(
            &pq,
            &base,
            &base_labels,
            3,
            graph_builder,
        ));
        (ServeEngine::new(index, serve), queries)
    }

    #[test]
    fn concurrent_filtered_search_matches_sequential_reference() {
        let (eng, queries) = labeled_engine(ServeConfig::default());
        let index = eng.index();
        let mut scratch = SearchScratch::new();
        for strategy in [
            FilterStrategy::DuringTraversal,
            FilterStrategy::PostFilter { inflation: 4 },
        ] {
            for qi in 0..queries.len() {
                let q = queries.get(qi);
                let pred = LabelPredicate::single(qi % 3);
                let (got, stats) = eng.search_filtered(q, pred, strategy, 40, 8);
                let (want, _) = index.search_filtered(q, pred, strategy, 40, 8, &mut scratch);
                assert_eq!(
                    got.iter().map(|n| n.id).collect::<Vec<_>>(),
                    want.iter().map(|n| n.id).collect::<Vec<_>>(),
                    "query {qi} diverged under {}",
                    strategy.name(),
                );
                assert!(stats.hops > 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires labels")]
    fn predicate_on_label_less_shards_panics_on_the_caller_with_the_reason() {
        let (eng, queries) = engine(120, 28, 2, ServeConfig::default());
        let _ = eng.search_filtered(
            queries.get(0),
            LabelPredicate::single(0),
            FilterStrategy::DuringTraversal,
            20,
            5,
        );
    }

    #[test]
    fn single_query_matches_batch_of_one() {
        let (eng, queries) = engine(200, 22, 2, ServeConfig::default());
        let q = queries.get(0);
        let (one, stats) = eng.search(q, 30, 5);
        let single = queries.subset(&[0]);
        let (batch, report) = eng.serve_batch(&single, 30, 5);
        assert_eq!(bits(&one), bits(&batch[0]));
        // A batch of one's means are that query's own counters.
        assert!(stats.hops > 0);
        assert_eq!(stats.hops as f32, report.mean_hops);
        let mut scratch = SearchScratch::new();
        let (want, want_stats) = eng.index().search(q, 30, 5, &mut scratch);
        assert_eq!(bits(&one), bits(&want));
        assert_eq!(
            (stats.hops, stats.dist_comps, stats.io_reads),
            (want_stats.hops, want_stats.dist_comps, want_stats.io_reads),
        );
    }

    #[test]
    fn single_filtered_query_matches_sequential_reference_bit_for_bit() {
        let (eng, queries) = labeled_engine(ServeConfig::default());
        let mut scratch = SearchScratch::new();
        let q = queries.get(0);
        let pred = LabelPredicate::single(1);
        let strategy = FilterStrategy::DuringTraversal;
        let (one, stats) = eng.search_filtered(q, pred, strategy, 30, 5);
        let (want, want_stats) =
            eng.index()
                .search_filtered(q, pred, strategy, 30, 5, &mut scratch);
        assert_eq!(bits(&one), bits(&want));
        assert_eq!(
            (stats.hops, stats.dist_comps, stats.io_reads),
            (want_stats.hops, want_stats.dist_comps, want_stats.io_reads),
        );
    }

    /// One shard whose only replica is a [`FlakyBackend`] that is down.
    fn down_engine() -> (ServeEngine, Dataset) {
        use super::super::{ClusterGroup, FlakyBackend, Replica, ReplicaSet};
        use crate::memory::InMemoryIndex;
        let (base, queries) = setup(120, 29);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let shard = InMemoryIndex::build(pq, &base, graph_builder(&base));
        let flaky = FlakyBackend::new(Box::new(shard));
        flaky.set_down(true);
        let group = ClusterGroup::new(
            ReplicaSet::new(vec![Replica::frozen(Arc::new(flaky))]),
            (0..120).collect(),
        );
        let index = Arc::new(ShardedIndex::from_groups(vec![group], base.dim()));
        (ServeEngine::new(index, ServeConfig::default()), queries)
    }

    #[test]
    #[should_panic(expected = "replica read failed")]
    fn a_faulting_shard_in_a_batch_panics_on_the_caller_with_the_reason() {
        let (eng, queries) = down_engine();
        let _ = eng.serve_batch(&queries, 20, 5);
    }

    #[test]
    #[should_panic(expected = "replica read failed")]
    fn a_fault_in_the_job_the_caller_runs_panics_with_the_reason() {
        // One shard: the calling thread runs the query's only job.
        let (eng, queries) = down_engine();
        let _ = eng.search(queries.get(0), 20, 5);
    }

    #[test]
    fn a_panic_on_the_caller_leaves_the_engine_serving() {
        let (eng, queries) = engine(150, 30, 2, ServeConfig::default());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eng.search_filtered(
                queries.get(0),
                LabelPredicate::single(0),
                FilterStrategy::DuringTraversal,
                20,
                5,
            )
        }));
        let payload = caught.expect_err("a predicate on label-less shards panics");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            message.contains("requires labels"),
            "panic said {message:?}"
        );

        let (batch, _) = eng.serve_batch(&queries, 20, 5);
        let mut scratch = SearchScratch::new();
        for (qi, from_batch) in batch.iter().enumerate() {
            let q = queries.get(qi);
            let (one, stats) = eng.search(q, 20, 5);
            let (want, want_stats) = eng.index().search(q, 20, 5, &mut scratch);
            assert_eq!(bits(&one), bits(&want), "query {qi} diverged");
            assert_eq!(
                bits(from_batch),
                bits(&want),
                "query {qi} diverged in the batch"
            );
            assert_eq!(
                (stats.hops, stats.dist_comps),
                (want_stats.hops, want_stats.dist_comps),
            );
        }
        // The failed query never completed, so it is not counted.
        assert_eq!(eng.queries_served(), 2 * queries.len());
    }

    #[test]
    fn concurrent_clients_get_the_sequential_answers() {
        // Two workers, three shards: each query's first two jobs go to the
        // pool and its third runs on the client's own thread.
        let serve = ServeConfig {
            workers: 2,
            max_batch: 64,
        };
        let (eng, queries) = labeled_engine(serve);
        let pred = LabelPredicate::single(2);
        let strategy = FilterStrategy::DuringTraversal;
        let mut scratch = SearchScratch::new();
        let want: Vec<_> = (0..queries.len())
            .map(|qi| {
                let q = queries.get(qi);
                let (plain, plain_stats) = eng.index().search(q, 30, 5, &mut scratch);
                let (filtered, filtered_stats) =
                    eng.index()
                        .search_filtered(q, pred, strategy, 30, 5, &mut scratch);
                (
                    (bits(&plain), plain_stats),
                    (bits(&filtered), filtered_stats),
                )
            })
            .collect();
        std::thread::scope(|clients| {
            for _ in 0..4 {
                clients.spawn(|| {
                    for (qi, (plain, filtered)) in want.iter().enumerate() {
                        let q = queries.get(qi);
                        let (got, stats) = eng.search(q, 30, 5);
                        assert_eq!((&bits(&got), &stats), (&plain.0, &plain.1), "query {qi}");
                        let (got, stats) = eng.search_filtered(q, pred, strategy, 30, 5);
                        assert_eq!(
                            (&bits(&got), &stats),
                            (&filtered.0, &filtered.1),
                            "filtered query {qi}",
                        );
                    }
                });
            }
        });
        assert_eq!(eng.queries_served(), 4 * 2 * queries.len());
    }

    #[test]
    fn batching_waves_preserve_order_and_coverage() {
        let cfg = ServeConfig {
            workers: 2,
            max_batch: 3, // force multiple waves over the query set
        };
        let (eng, queries) = engine(200, 23, 2, cfg);
        let (batch, report) = eng.serve_batch(&queries, 30, 5);
        assert_eq!(batch.len(), queries.len());
        assert!(batch.iter().all(|r| !r.is_empty()));
        assert_eq!(report.latency.count, queries.len());
        assert!(report.latency.p50_us <= report.latency.p99_us);
    }

    #[test]
    fn engine_metrics_accumulate_across_batches() {
        let (eng, queries) = engine(150, 24, 2, ServeConfig::default());
        assert_eq!(eng.queries_served(), 0);
        let _ = eng.serve_batch(&queries, 20, 5);
        let _ = eng.search(queries.get(0), 20, 5);
        assert_eq!(eng.queries_served(), queries.len() + 1);
        assert_eq!(eng.metrics().count, queries.len() + 1);
    }

    #[test]
    fn empty_batch_reports_zeroes() {
        let (eng, queries) = engine(120, 25, 2, ServeConfig::default());
        let empty = Dataset::new(queries.dim());
        let (results, report) = eng.serve_batch(&empty, 20, 5);
        assert!(results.is_empty());
        assert_eq!(report.queries, 0);
        assert_eq!(report.latency.count, 0);
    }
}
