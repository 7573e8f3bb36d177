//! Batched query execution and the QPS / recall@k sweep machinery behind
//! every evaluation figure.
//!
//! There is one sweep, [`sweep`], over anything that answers
//! [`ShardBackend::search_local`] — the in-memory index, the hybrid (disk)
//! index, a streaming index, an `Arc` of any of them. Queries run in
//! parallel over the rayon pool (the paper evaluates with 8 search threads;
//! the pool width comes from `RPQ_THREADS` or the machine's available
//! parallelism). Each query's modelled disk stall is added to the measured
//! compute wall-time divided by the number of workers that **actually
//! executed the batch** (`rayon::execution_width`, never more) — so modelled
//! I/O overlaps across query threads exactly like compute does, a
//! single-threaded sweep charges the full I/O bill, and a backend that does
//! no I/O is charged nothing (see [`hybrid_qps`]).

use rayon::prelude::*;
use rpq_data::{Dataset, GroundTruth};
use rpq_graph::SearchScratch;

use crate::disk::DiskSearchStats;
use crate::serve::ShardBackend;

/// One point on a QPS-vs-recall curve.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Beam width used.
    pub ef: usize,
    /// Recall@k against the supplied ground truth.
    pub recall: f32,
    /// Queries per second (all threads).
    pub qps: f32,
    /// Mean next-hop selections per query.
    pub hops: f32,
    /// Mean modelled disk-I/O device time per query, in milliseconds (0 for
    /// the in-memory scenario).
    pub io_ms: f32,
    /// Mean modelled I/O time per query **not hidden** behind compute by
    /// the pipelined engine, in milliseconds — what QPS actually charges.
    /// Equals `io_ms` at `io_width = 1`.
    pub io_stall_ms: f32,
    /// Mean coalesced I/O commands per query (0 in-memory).
    pub coalesced_ios: f32,
    /// Fraction of node lookups served from the RAM node cache (0 with the
    /// cache disabled, and in-memory).
    pub cache_hit_rate: f32,
}

/// Per-query means of a batch's summed counters: the one fold from
/// [`DiskSearchStats`] totals to a report, behind both [`SweepPoint`] and
/// [`crate::serve::BatchReport`].
pub(crate) struct QueryMeans {
    pub hops: f32,
    pub io_ms: f32,
    pub stall_ms: f32,
    pub coalesced_ios: f32,
    pub cache_hit_rate: f32,
}

impl QueryMeans {
    /// `total` summed over `n_queries` queries (an empty batch divides by 1).
    pub(crate) fn of(total: &DiskSearchStats, n_queries: usize) -> Self {
        let n = n_queries.max(1) as f32;
        Self {
            hops: total.hops as f32 / n,
            io_ms: total.io_seconds * 1e3 / n,
            stall_ms: total.io_stall_seconds * 1e3 / n,
            coalesced_ios: total.coalesced_ios as f32 / n,
            cache_hit_rate: total.cache_hit_rate(),
        }
    }
}

/// Sweeps beam widths over any index: each query is one unfiltered
/// [`ShardBackend::search_local`], each worker reusing one
/// [`SearchScratch`] across its queries. QPS charges the modelled I/O
/// **stall** time — the part of device time the pipelined engine could not
/// hide behind compute (equal to the full device time at `io_width = 1`,
/// zero in memory): `total = wall_compute + Σ io_stall_seconds / workers`,
/// where `workers` is the executed parallel width (see [`hybrid_qps`]).
///
/// An unfiltered read of a built index cannot fault; one that does (a
/// [`crate::serve::FlakyBackend`]) panics with the fault's message.
///
/// # Example
///
/// ```
/// use rpq_anns::{sweep, InMemoryIndex};
/// use rpq_data::brute_force_knn;
/// use rpq_data::synth::{SynthConfig, ValueTransform};
/// use rpq_graph::HnswConfig;
/// use rpq_quant::{PqConfig, ProductQuantizer};
///
/// let data = SynthConfig {
///     dim: 8,
///     intrinsic_dim: 4,
///     clusters: 2,
///     cluster_std: 0.5,
///     noise_std: 0.05,
///     transform: ValueTransform::Identity,
/// }
/// .generate(110, 2);
/// let (base, queries) = data.split_at(100);
/// let gt = brute_force_knn(&base, &queries, 5);
/// let graph = HnswConfig { m: 8, ef_construction: 32, seed: 0 }.build(&base);
/// let pq = ProductQuantizer::train(
///     &PqConfig { m: 4, k: 16, ..Default::default() },
///     &base,
/// );
/// let index = InMemoryIndex::build(pq, &base, graph);
///
/// let points = sweep(&index, &queries, &gt, 5, &[8, 32]);
/// assert_eq!(points.len(), 2);
/// assert!(points.iter().all(|p| (0.0..=1.0).contains(&p.recall)));
/// assert!(points.iter().all(|p| p.io_ms == 0.0)); // in-memory: no I/O
/// ```
pub fn sweep<B: ShardBackend + ?Sized>(
    index: &B,
    queries: &Dataset,
    gt: &GroundTruth,
    k: usize,
    efs: &[usize],
) -> Vec<SweepPoint> {
    // The executor's own width for this batch (pool width capped by its
    // chunk count), never more.
    let workers = rayon::execution_width(queries.len());
    efs.iter()
        .map(|&ef| {
            let start = std::time::Instant::now();
            let per_query: Vec<(Vec<u32>, DiskSearchStats)> = (0..queries.len())
                .into_par_iter()
                .map_init(SearchScratch::new, |scratch, qi| {
                    let (res, stats) = index
                        .search_local(queries.get(qi), None, ef, k, scratch)
                        .unwrap_or_else(|fault| panic!("sweep query {qi}: {fault}"));
                    (res.iter().map(|n| n.id).collect(), stats)
                })
                .collect();
            let wall = start.elapsed().as_secs_f32().max(1e-9);
            let mut total = DiskSearchStats::default();
            let mut results = Vec::with_capacity(per_query.len());
            for (ids, stats) in per_query {
                total.merge(&stats);
                results.push(ids);
            }
            let means = QueryMeans::of(&total, queries.len());
            SweepPoint {
                ef,
                recall: gt.recall(&results),
                qps: hybrid_qps(queries.len(), wall, total.io_stall_seconds, workers),
                hops: means.hops,
                io_ms: means.io_ms,
                io_stall_ms: means.stall_ms,
                coalesced_ios: means.coalesced_ios,
                cache_hit_rate: means.cache_hit_rate,
            }
        })
        .collect()
}

/// The QPS model of [`sweep`]: modelled I/O time overlaps across the
/// `overlap_workers` query threads that executed the batch, on top of the
/// measured compute wall-time:
/// `qps = n_queries / (wall_seconds + io_total_seconds / overlap_workers)`.
///
/// With one worker the full I/O bill is charged — dividing by anything
/// larger than the executed worker count would silently inflate QPS by
/// that factor (the bug this function exists to pin down). With no I/O it
/// is `n_queries / wall_seconds`, the in-memory scenario's QPS.
pub fn hybrid_qps(
    n_queries: usize,
    wall_seconds: f32,
    io_total_seconds: f32,
    overlap_workers: usize,
) -> f32 {
    let denom = wall_seconds.max(1e-9) + io_total_seconds / overlap_workers.max(1) as f32;
    n_queries as f32 / denom
}

/// Interpolates the QPS a method achieves at a target recall (the "QPS at
/// the same Recall@10 of 95%" readout of Tables 6–7 and Figures 8–11).
/// Returns `None` if the sweep never reaches the target.
pub fn qps_at_recall(points: &[SweepPoint], target: f32) -> Option<f32> {
    let mut sorted: Vec<&SweepPoint> = points.iter().collect();
    sorted.sort_by(|a, b| a.recall.total_cmp(&b.recall));
    if sorted.is_empty() || sorted.last().unwrap().recall < target {
        return None;
    }
    if sorted[0].recall >= target {
        // Already above target at the cheapest setting: best QPS among
        // qualifying points.
        return sorted
            .iter()
            .filter(|p| p.recall >= target)
            .map(|p| p.qps)
            .fold(None, |acc: Option<f32>, q| {
                Some(acc.map_or(q, |a| a.max(q)))
            });
    }
    // Linear interpolation between the bracketing points.
    for w in sorted.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if lo.recall < target && hi.recall >= target {
            let frac = (target - lo.recall) / (hi.recall - lo.recall).max(1e-9);
            return Some(lo.qps + frac * (hi.qps - lo.qps));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryIndex;
    use crate::test_store::TestStore;
    use rpq_data::brute_force_knn;
    use rpq_data::synth::{SynthConfig, ValueTransform};
    use rpq_graph::HnswConfig;
    use rpq_quant::{PqConfig, ProductQuantizer};

    #[test]
    fn memory_sweep_end_to_end() {
        let data = SynthConfig {
            dim: 8,
            intrinsic_dim: 4,
            clusters: 4,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        }
        .generate(320, 1);
        let (base, queries) = data.split_at(300);
        let gt = brute_force_knn(&base, &queries, 5);
        let graph = HnswConfig {
            m: 8,
            ef_construction: 40,
            seed: 0,
        }
        .build(&base);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let index = InMemoryIndex::build(pq, &base, graph);
        let points = sweep(&index, &queries, &gt, 5, &[5, 20, 60]);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.qps > 0.0);
            assert!((0.0..=1.0).contains(&p.recall));
            assert!(p.hops > 0.0);
            assert_eq!(p.io_ms, 0.0, "in-memory sweep must report zero I/O");
            assert_eq!(p.io_stall_ms, 0.0);
            assert_eq!(p.coalesced_ios, 0.0);
            assert_eq!(p.cache_hit_rate, 0.0);
        }
        // Wider beams cost work.
        assert!(points[0].hops <= points[2].hops, "{points:?}");
    }

    #[test]
    fn streaming_sweep_skips_tombstones() {
        // The backend the memory / disk pair could not take: a live index
        // with a third of its points tombstoned.
        use crate::stream::{StreamingConfig, StreamingIndex};
        use rpq_data::ground_truth::top_k_ids_filtered;
        let data = SynthConfig {
            dim: 8,
            intrinsic_dim: 4,
            clusters: 4,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        }
        .generate(320, 3);
        let (base, queries) = data.split_at(300);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let mut index = StreamingIndex::build(pq, &base, StreamingConfig::default());
        let dead: Vec<u32> = (0..300).step_by(3).collect();
        for &v in &dead {
            assert!(index.remove(v));
        }
        let gt_of = |accept: &dyn Fn(u32) -> bool, k| GroundTruth {
            k,
            neighbors: queries
                .iter()
                .map(|q| top_k_ids_filtered(&base, q, k, accept))
                .collect(),
        };
        let live = sweep(&index, &queries, &gt_of(&|v| v % 3 != 0, 5), 5, &[40]);
        assert!(live[0].recall > 0.3, "{live:?}");
        assert_eq!(live[0].io_ms, 0.0);
        // Against a truth listing every tombstoned id, any overlap at all
        // is a tombstone in some top-k.
        let all_dead = gt_of(&|v| v % 3 == 0, dead.len());
        let none = sweep(&index, &queries, &all_dead, 5, &[40]);
        assert_eq!(none[0].recall, 0.0, "a tombstoned id was returned");
    }

    #[test]
    fn disk_sweep_end_to_end() {
        use crate::disk::{DiskIndex, DiskIndexConfig};
        use rpq_graph::VamanaConfig;
        let data = SynthConfig {
            dim: 8,
            intrinsic_dim: 4,
            clusters: 4,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        }
        .generate(320, 2);
        let (base, queries) = data.split_at(300);
        let gt = brute_force_knn(&base, &queries, 5);
        let graph = VamanaConfig {
            r: 8,
            l: 16,
            ..Default::default()
        }
        .build(&base);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let store = TestStore::new("sweep");
        let index =
            DiskIndex::build(pq, &base, &graph, DiskIndexConfig::new(store.path())).unwrap();
        let points = sweep(&index, &queries, &gt, 5, &[5, 30]);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.io_ms > 0.0, "hybrid sweep must report I/O time");
            // Serial width: nothing is hidden, so the stall is the full
            // device time (modulo f32 summation order).
            assert!(
                (p.io_stall_ms - p.io_ms).abs() < 1e-3,
                "width 1 must charge all I/O: {p:?}"
            );
            assert!(p.coalesced_ios > 0.0, "commands must be counted");
            assert_eq!(p.cache_hit_rate, 0.0, "no cache configured");
        }
        // Reranked recall should be strong even at modest beams.
        assert!(points[1].recall > 0.8, "{points:?}");
    }

    #[test]
    fn hybrid_qps_charges_full_io_on_one_worker() {
        // 100 queries, 0.1 s of compute, 0.4 s of modelled I/O.
        let sequential = hybrid_qps(100, 0.1, 0.4, 1);
        assert!((sequential - 100.0 / 0.5).abs() < 1e-3, "{sequential}");
        // Four workers overlap the I/O: 0.1 + 0.4/4.
        let parallel = hybrid_qps(100, 0.1, 0.4, 4);
        assert!((parallel - 100.0 / 0.2).abs() < 1e-3, "{parallel}");
        // Zero workers is clamped, not a division by zero.
        assert_eq!(hybrid_qps(100, 0.1, 0.4, 0), sequential);
    }

    #[test]
    fn single_thread_sweep_charges_full_io_time() {
        // Regression test for the divisor bug: the hybrid sweep used to divide
        // the modelled I/O by `current_num_threads()` even when execution
        // was sequential, inflating QPS by the machine's core count. Under
        // one worker, QPS is bounded by the pure-I/O rate
        // `1000 / io_ms_per_query` — a bound the buggy accounting breaks
        // by ~the thread count whenever I/O dominates.
        use crate::disk::{DiskIndex, DiskIndexConfig};
        use rpq_graph::VamanaConfig;
        let data = SynthConfig {
            dim: 8,
            intrinsic_dim: 4,
            clusters: 4,
            cluster_std: 0.8,
            noise_std: 0.05,
            transform: ValueTransform::Identity,
        }
        .generate(320, 9);
        let (base, queries) = data.split_at(300);
        let gt = brute_force_knn(&base, &queries, 5);
        let graph = VamanaConfig {
            r: 8,
            l: 16,
            ..Default::default()
        }
        .build(&base);
        let pq = ProductQuantizer::train(
            &PqConfig {
                m: 4,
                k: 16,
                ..Default::default()
            },
            &base,
        );
        let store = TestStore::new("sweep-one-worker");
        let index =
            DiskIndex::build(pq, &base, &graph, DiskIndexConfig::new(store.path())).unwrap();
        let points = rayon::with_num_threads(1, || sweep(&index, &queries, &gt, 5, &[20]));
        let p = &points[0];
        assert!(p.io_ms > 0.0, "hybrid sweep must model I/O");
        let io_bound_qps = 1000.0 / p.io_ms;
        assert!(
            p.qps <= io_bound_qps * 1.001,
            "sequential sweep must charge full I/O: qps={} exceeds the \
             one-worker I/O bound {io_bound_qps}",
            p.qps
        );
    }

    fn pt(recall: f32, qps: f32) -> SweepPoint {
        SweepPoint {
            ef: 0,
            recall,
            qps,
            hops: 0.0,
            io_ms: 0.0,
            io_stall_ms: 0.0,
            coalesced_ios: 0.0,
            cache_hit_rate: 0.0,
        }
    }

    #[test]
    fn qps_interpolates_between_points() {
        let points = vec![pt(0.90, 1000.0), pt(0.96, 400.0)];
        let q = qps_at_recall(&points, 0.95).unwrap();
        assert!(q > 400.0 && q < 1000.0, "interpolated {q}");
        // 5/6 of the way from 0.90 to 0.96.
        assert!((q - (1000.0 + (400.0 - 1000.0) * (0.05 / 0.06))).abs() < 1.0);
    }

    #[test]
    fn qps_none_when_unreachable() {
        let points = vec![pt(0.5, 100.0), pt(0.8, 50.0)];
        assert!(qps_at_recall(&points, 0.95).is_none());
    }

    #[test]
    fn qps_best_when_all_above_target() {
        let points = vec![pt(0.97, 800.0), pt(0.99, 500.0)];
        assert_eq!(qps_at_recall(&points, 0.95), Some(800.0));
    }

    #[test]
    fn qps_empty_points() {
        assert!(qps_at_recall(&[], 0.9).is_none());
    }
}
