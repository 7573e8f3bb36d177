//! `stream-churn` — writes beside reads: PQ trained on a 15 000-point seed
//! set, `StreamingIndex::build`, then rounds of {1 000 inserts of fresh
//! vectors, 1 000 removes of seeded-random live ids, 1 000 searches, 1 000
//! filtered searches, `consolidate(false)`}. At threshold 0.2 every fourth
//! round consolidates.
//!
//! Why: the same beam kernel and code stores are used for writes (insert =
//! `encode_one` + greedy exact-distance search + prune; every read pays the
//! tombstone filter). A read-side gain that costs appends, SoA `push` /
//! `compact` or consolidation shows here and nowhere else.
//!
//! The round count is a function of `--seconds` (three per second), not of
//! the clock, so the final live set — and with it recall — repeats exactly
//! for a seed.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::adapter::{
    self, Dataset, Labels, Neighbor, SearchScratch, StreamingIndex, VectorCompressor, K,
};
use crate::checks::{check_same, check_top_k, ids, Tally};
use crate::estimator::{fastest, mean, median, pass_sample, summarize, PassSample};
use crate::trace::{self, Name, Traced};

use super::{
    draw, finish_trace, probe_beam_exact_us, probe_encode, probe_sq_l2_ns, Phase, Report, RunCfg,
    Setup, CORPUS_SEED, QUERIES, QUERY_POOL,
};

const SEED_SET: usize = 15_000;
/// Inserts, removes, searches and filtered searches per round.
const OPS: usize = 1000;

/// The benchmark's own record of what the index must contain: for every
/// resident local id, which generated vector it is and whether it is dead.
struct Mirror {
    key: Vec<u32>,
    dead: Vec<bool>,
    live: usize,
}

impl Mirror {
    fn live_ids(&self) -> Vec<u32> {
        (0..self.key.len() as u32)
            .filter(|&i| !self.dead[i as usize])
            .collect()
    }
}

/// What one round measured.
struct Round {
    search: PassSample,
    filtered_wall_s: f64,
    insert_s: f64,
    remove_s: f64,
    /// Duration and reclaimed count, when the threshold let the pass run.
    consolidate: Option<(f64, usize)>,
    tombstone_frac: f64,
    /// The search section on the trace clock.
    window: (u64, u64),
    answers: Vec<Vec<Neighbor>>,
}

/// What a run feeds the index. Generated vectors `[0, SEED_SET)` seed the
/// index and are the same for every seed (see `corpus`); `--seed` draws the
/// queries out of the next 5 000, orders the fresh vectors after those, and
/// picks the removals.
struct Script {
    data: Dataset,
    labels: Labels,
    /// Ids into `data` of the 1 000 queries.
    queries: Vec<usize>,
    /// Ids into `data` of the fresh vectors, in insertion order.
    fresh: Vec<usize>,
    seed: u64,
}

impl Script {
    fn new(rounds: usize, seed: u64) -> Self {
        let fresh_from = SEED_SET + QUERY_POOL;
        let fresh_to = fresh_from + rounds * OPS;
        let (data, labels) = adapter::generate_labeled(fresh_to, CORPUS_SEED);
        Self {
            data,
            labels,
            queries: draw(SEED_SET..fresh_from, QUERIES, seed),
            fresh: draw(fresh_from..fresh_to, rounds * OPS, seed ^ 0xF5E5),
            seed,
        }
    }

    fn query(&self, qi: usize) -> &[f32] {
        self.data.get(self.queries[qi])
    }

    fn query_set(&self) -> Dataset {
        self.data.subset(&self.queries)
    }
}

struct Churn<'a, C: VectorCompressor> {
    index: StreamingIndex<C>,
    script: &'a Script,
    mirror: Mirror,
    rng: SmallRng,
    scratch: SearchScratch,
    inserted: usize,
}

impl<'a, C: VectorCompressor> Churn<'a, C> {
    fn new(index: StreamingIndex<C>, script: &'a Script) -> Self {
        Self {
            index,
            script,
            mirror: Mirror {
                key: (0..SEED_SET as u32).collect(),
                dead: vec![false; SEED_SET],
                live: SEED_SET,
            },
            rng: SmallRng::seed_from_u64(script.seed ^ 0xC0FFEE),
            scratch: SearchScratch::new(),
            inserted: 0,
        }
    }

    /// A live answer over the current id space: structure plus "no
    /// tombstoned id" (and the predicate, for filtered reads).
    fn check_answer(&self, res: &[Neighbor], filtered: bool) -> Result<(), String> {
        check_top_k(res, K, self.mirror.key.len(), !filtered)?;
        for r in res {
            if self.mirror.dead[r.id as usize] {
                return Err(format!("tombstoned id {} returned", r.id));
            }
            let key = self.mirror.key[r.id as usize] as usize;
            if filtered && !self.script.labels.matches(key, adapter::predicate()) {
                return Err(format!("id {} does not satisfy the predicate", r.id));
            }
        }
        Ok(())
    }

    fn searches(&mut self, tally: &mut Tally, filtered: bool) -> (PassSample, Vec<Vec<Neighbor>>) {
        let what = if filtered {
            "StreamingIndex::search_filtered"
        } else {
            "StreamingIndex::search"
        };
        let mut lat_ns = vec![0u64; OPS];
        let mut answers = Vec::with_capacity(OPS);
        let t_pass = Instant::now();
        for (qi, slot) in lat_ns.iter_mut().enumerate() {
            trace::set_query(qi as u32);
            let q = self.script.query(qi);
            let (index, scratch) = (&self.index, &mut self.scratch);
            let t = Instant::now();
            let answer = tally.guard(what, || {
                if filtered {
                    adapter::stream_search_filtered(index, q, scratch).0
                } else {
                    adapter::stream_search(index, q, scratch).0
                }
            });
            *slot = t.elapsed().as_nanos() as u64;
            answers.push(answer);
        }
        let wall_s = t_pass.elapsed().as_secs_f64();
        trace::set_query(trace::NONE);
        let answers: Vec<Vec<Neighbor>> = answers
            .into_iter()
            .map(|a| {
                if let Some(res) = &a {
                    tally.record(what, self.check_answer(res, filtered));
                }
                a.unwrap_or_default()
            })
            .collect();
        (pass_sample(wall_s, &lat_ns), answers)
    }

    fn round(&mut self, tally: &mut Tally, traced: bool) -> Round {
        let t = Instant::now();
        for _ in 0..OPS {
            let key = self.script.fresh[self.inserted];
            self.inserted += 1;
            let (v, mask) = (self.script.data.get(key), self.script.labels.get(key));
            let (index, scratch) = (&mut self.index, &mut self.scratch);
            if let Some(id) = tally.guard("StreamingIndex::insert", || {
                adapter::stream_insert(index, v, mask, scratch)
            }) {
                let expected = self.mirror.key.len() as u32;
                self.mirror.key.push(key as u32);
                self.mirror.dead.push(false);
                self.mirror.live += 1;
                tally.record(
                    "StreamingIndex::insert",
                    if id == expected {
                        Ok(())
                    } else {
                        Err(format!("returned id {id}, expected {expected}"))
                    },
                );
            }
        }
        let insert_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        for _ in 0..OPS {
            // Tombstones stay under the 0.2 threshold, so redraws are rare.
            let id = loop {
                let id = self.rng.gen_range(0..self.mirror.key.len() as u32);
                if !self.mirror.dead[id as usize] {
                    break id;
                }
            };
            let index = &mut self.index;
            if let Some(removed) = tally.guard("StreamingIndex::remove", || {
                adapter::stream_remove(index, id)
            }) {
                self.mirror.dead[id as usize] = true;
                self.mirror.live -= 1;
                tally.record(
                    "StreamingIndex::remove",
                    if removed {
                        Ok(())
                    } else {
                        Err(format!("live id {id} was not removed"))
                    },
                );
            }
        }
        let remove_s = t.elapsed().as_secs_f64();
        tally.invariant(
            "live_len matches the mirror",
            self.index.live_len() == self.mirror.live && self.index.len() == self.mirror.key.len(),
        );
        let tombstone_frac = f64::from(self.index.tombstone_fraction());

        let w0 = trace::now_ns();
        let (search, answers) = self.searches(tally, false);
        let w1 = trace::now_ns();
        // The filtered reads are not recorded: no layer metric reads their
        // spans and the span buffer is sized for the unfiltered ones.
        if traced {
            trace::disable();
        }
        let (filtered, _) = self.searches(tally, true);
        if traced {
            trace::enable();
        }

        let t = Instant::now();
        let index = &mut self.index;
        let outcome = tally.guard("StreamingIndex::consolidate", || {
            adapter::stream_consolidate(index)
        });
        let consolidate_s = t.elapsed().as_secs_f64();
        let consolidate = match outcome {
            Some(Some(done)) => {
                let expected = self.mirror.live_ids();
                let dead = self.mirror.key.len() - expected.len();
                tally.record(
                    "StreamingIndex::consolidate",
                    if done.survivors == expected && done.reclaimed == dead {
                        Ok(())
                    } else {
                        Err("survivors differ from the mirror's live ids".into())
                    },
                );
                self.mirror.key = expected
                    .iter()
                    .map(|&i| self.mirror.key[i as usize])
                    .collect();
                self.mirror.dead = vec![false; self.mirror.key.len()];
                Some((consolidate_s, done.reclaimed))
            }
            Some(None) => {
                tally.record("StreamingIndex::consolidate", Ok(()));
                None
            }
            None => None,
        };
        Round {
            search,
            filtered_wall_s: filtered.wall_s,
            insert_s,
            remove_s,
            consolidate,
            tombstone_frac,
            window: (w0, w1),
            answers,
        }
    }

    /// Recall@10 of one last pass against brute force over the live set the
    /// mirror says the index holds, unfiltered and filtered.
    fn final_recalls(&mut self, tally: &mut Tally) -> (f64, f64) {
        let live = self.mirror.live_ids();
        let keys: Vec<usize> = live
            .iter()
            .map(|&i| self.mirror.key[i as usize] as usize)
            .collect();
        let live_data = self.script.data.subset(&keys);
        let live_labels = self.script.labels.subset(&keys);
        let queries = self.script.query_set();
        let gt = adapter::ground_truth(&live_data, &queries);
        let gt_filtered = adapter::ground_truth_filtered(&live_data, &queries, &live_labels);
        // Ground-truth ids are positions in the live list; answers are local
        // ids. Map answers into positions.
        let mut position = vec![u32::MAX; self.mirror.key.len()];
        for (pos, &id) in live.iter().enumerate() {
            position[id as usize] = pos as u32;
        }
        let to_positions = |answers: &[Vec<Neighbor>]| -> Vec<Vec<u32>> {
            ids(answers)
                .into_iter()
                .map(|a| a.into_iter().map(|id| position[id as usize]).collect())
                .collect()
        };
        let (_, plain) = self.searches(tally, false);
        let (_, filtered) = self.searches(tally, true);
        (
            f64::from(gt.recall(&to_positions(&plain))),
            f64::from(gt_filtered.recall(&to_positions(&filtered))),
        )
    }
}

/// Write-path time per cycle (the rounds up to and including one that
/// consolidated): inserts + removes + consolidation, and the operations it
/// covered.
fn write_cycles(rounds: &[Round]) -> Vec<(f64, usize)> {
    let mut cycles = Vec::new();
    let (mut secs, mut ops) = (0.0, 0);
    for r in rounds {
        secs += r.insert_s + r.remove_s;
        ops += 2 * OPS;
        if let Some((consolidate_s, _)) = r.consolidate {
            cycles.push((secs + consolidate_s, ops));
            (secs, ops) = (0.0, 0);
        }
    }
    cycles
}

fn run_rounds<C: VectorCompressor>(
    churn: &mut Churn<'_, C>,
    rounds: usize,
    tally: &mut Tally,
    traced: bool,
) -> Vec<Round> {
    if traced {
        trace::enable();
    }
    let out = (0..rounds).map(|_| churn.round(tally, traced)).collect();
    trace::disable();
    out
}

fn search_phase(rounds: &[Round]) -> Phase {
    let samples: Vec<PassSample> = rounds.iter().map(|r| r.search).collect();
    Phase {
        summary: summarize(&samples, OPS),
        reference: Vec::new(),
        windows: rounds.iter().map(|r| r.window).collect(),
    }
}

pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::new("stream-churn");
    let per_second = if cfg.trace { 0.8 } else { 3.0 };
    let rounds = ((cfg.seconds * per_second).round() as usize).max(4);
    let mut setup = Setup::default();
    let script = setup.stage("generate", || Script::new(rounds, cfg.seed));
    let seed_ids: Vec<usize> = (0..SEED_SET).collect();
    let seed_set = script.data.subset(&seed_ids);
    let seed_labels = script.labels.subset(&seed_ids);
    let pq = setup.stage("train", || {
        adapter::train_pq(&seed_set, 16, 256, CORPUS_SEED)
    });
    let index = setup.stage("index", || {
        adapter::stream_build(pq.clone(), &seed_set, seed_labels.clone(), CORPUS_SEED)
    });
    let mut churn = Churn::new(index, &script);
    let measured = run_rounds(&mut churn, rounds, &mut report.tally, false);
    let reads = search_phase(&measured);
    let consolidations: Vec<(f64, usize)> = measured.iter().filter_map(|r| r.consolidate).collect();
    report.tally.invariant(
        "the churn crossed the consolidation threshold",
        !consolidations.is_empty(),
    );
    let consolidate_ms: Vec<f64> = consolidations.iter().map(|(s, _)| s * 1e3).collect();
    // Seconds per write, per consolidation cycle.
    let cycle_rates: Vec<f64> = write_cycles(&measured)
        .iter()
        .map(|&(secs, ops)| secs / ops as f64)
        .collect();

    if !cfg.trace {
        let filtered_walls: Vec<f64> = measured.iter().map(|r| r.filtered_wall_s).collect();
        let (recall, filtered_recall) = churn.final_recalls(&mut report.tally);
        report.e2e("qps", reads.summary.ops_per_s);
        report.e2e("p50_us", reads.summary.p50_us);
        report.e2e("p99_us", reads.summary.p99_us);
        report.e2e("recall_at_10", recall);
        report.e2e("filtered_qps", OPS as f64 / fastest(&filtered_walls));
        report.e2e("filtered_recall_at_10", filtered_recall);
        report.e2e(
            "bytes_per_vector",
            churn.index.memory_bytes() as f64 / churn.index.len() as f64,
        );
        if !cycle_rates.is_empty() {
            report.e2e("writes_per_s", 1.0 / fastest(&cycle_rates));
            report.e2e("consolidate_p50_ms", median(&consolidate_ms));
        }
        report.notes.push(format!(
            "{rounds} rounds x {OPS} inserts, removes, searches, filtered searches; {} consolidations; \
             reads: fastest round; writes: fastest of {} consolidation cycles",
            consolidations.len(),
            cycle_rates.len()
        ));
        report.notes.push(format!(
            "consolidations (ms): {}",
            consolidate_ms
                .iter()
                .map(|ms| format!("{ms:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        report.finish_end_to_end(&setup);
        return report;
    }

    // The same script again through the traced compressor: every round's
    // answers must match the untraced run's.
    let traced_index =
        adapter::stream_build(Traced(pq.clone()), &seed_set, seed_labels, CORPUS_SEED);
    let mut traced_churn = Churn::new(traced_index, &script);
    let traced = run_rounds(&mut traced_churn, rounds, &mut report.tally, true);
    for (t, u) in traced.iter().zip(&measured) {
        for (a, b) in t.answers.iter().zip(&u.answers) {
            report.tally.record("traced == untraced", check_same(a, b));
        }
    }
    let traced_reads = search_phase(&traced);
    let threads = finish_trace(&mut report);
    let self_us = |name| super::self_us(&threads, &traced_reads, name);
    report.layer("quant.lut_build_us", self_us(Name::QuantLutBuild));
    report.layer("quant.adc_score_us", self_us(Name::QuantAdcScore));
    report.layer("graph.traverse_us", self_us(Name::StreamSearch));
    report.layer("trace.untraced_us_per_query", reads.summary.mean_us);
    // Rounds differ in tombstone fraction and index size, so the overhead is
    // taken round against the same round, and the median of those ratios.
    let ratios: Vec<f64> = traced
        .iter()
        .zip(&measured)
        .map(|(t, u)| t.search.wall_s / u.search.wall_s)
        .collect();
    report.layer("trace.overhead_frac", median(&ratios) - 1.0);

    let per_op =
        |f: fn(&Round) -> f64| fastest(&measured.iter().map(f).collect::<Vec<_>>()) / OPS as f64;
    report.layer("stream.build_s", setup.get("index"));
    report.layer("stream.insert_us", per_op(|r| r.insert_s) * 1e6);
    report.layer("stream.remove_ns", per_op(|r| r.remove_s) * 1e9);
    report.layer("stream.search_us", reads.summary.mean_us);
    report.layer(
        "filter.overhead_frac",
        per_op(|r| r.filtered_wall_s) * 1e6 / reads.summary.mean_us - 1.0,
    );
    if !cycle_rates.is_empty() {
        report.layer("stream.writes_per_s", 1.0 / fastest(&cycle_rates));
        report.layer("stream.consolidate_ms", mean(&consolidate_ms));
        report.layer("stream.consolidate_p50_ms", median(&consolidate_ms));
        report.layer(
            "stream.reclaimed_per_consolidate",
            mean(
                &consolidations
                    .iter()
                    .map(|&(_, n)| n as f64)
                    .collect::<Vec<_>>(),
            ),
        );
    }
    report.layer(
        "stream.tombstone_frac_mean",
        mean(
            &measured
                .iter()
                .map(|r| r.tombstone_frac)
                .collect::<Vec<_>>(),
        ),
    );
    report.layer("quant.pq_train_s", setup.get("train"));
    report.layer(
        "graph.beam_exact_us",
        probe_beam_exact_us(
            churn.index.graph(),
            churn.index.vectors(),
            &script.query_set(),
        ),
    );
    report.layer(
        "linalg.sq_l2_ns",
        probe_sq_l2_ns(&seed_set, script.query(0)),
    );
    let enc = probe_encode(&pq, &seed_set);
    report.layer("quant.encode_us_per_vector", enc.encode_us_per_vector);
    report.layer("quant.encode_one_us", enc.encode_one_us);
    report.layer("quant.code_bytes_per_vector", enc.code_bytes_per_vector);
    report.notes.push(format!(
        "{rounds} untraced + {rounds} traced rounds x {OPS} operations"
    ));
    report
}
