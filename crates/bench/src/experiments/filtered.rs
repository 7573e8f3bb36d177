//! The `filtered` experiment: filtered-ANN recall, QPS, and traversal
//! work vs predicate selectivity, for both filter strategies
//! (DESIGN.md §12 — no paper counterpart; this measures the repo's
//! predicate layer).
//!
//! The corpus is SIFT-like with one label per point derived from its
//! cluster (`generate_labeled`), so a predicate's matching points are
//! geometrically clumped — the hard case, where an unfiltered traversal
//! can wander regions with no matches at all. The label ladder in
//! [`Scale::filter_labels`] sweeps selectivity ~50% → ~2%; at every
//! rung both strategies answer the same queries through the disk engine
//! (PQ routing + exact rerank, so recall reflects the strategy rather
//! than the ADC quantization floor):
//!
//! - **in-traversal** (Filtered-DiskANN-style): the beam routes through
//!   non-matching vertices but only admits matches to the accepted pool.
//! - **post-filter** (ACORN-style): an unfiltered search at
//!   `ef × inflation`, filtered and truncated afterwards.
//!
//! Recall is measured against *filtered* exact ground truth
//! (`brute_force_knn_filtered`). The expected shape: at high selectivity
//! the strategies tie; as the predicate sharpens, post-filter pays
//! `inflation×` the traversal and I/O work and still loses recall once
//! the inflated beam holds fewer than `k` matches, while in-traversal
//! keeps collecting admissible candidates at unchanged routing cost.

use serde::Serialize;

use rpq_anns::{hybrid_qps, DiskIndex, DiskIndexConfig, FilterStrategy};
use rpq_data::synth::DatasetKind;
use rpq_data::{brute_force_knn_filtered, LabelPredicate};
use rpq_graph::{HnswConfig, SearchScratch};
use rpq_quant::{PqConfig, ProductQuantizer};

use crate::report::{fmt, write_json, Report};
use crate::scale::Scale;
use crate::setup::store_path;

/// One (selectivity, strategy, beam width) operating point.
#[derive(Serialize, Clone, Debug)]
pub struct FilteredPoint {
    /// The swept label (predicate = `LabelPredicate::single(label)`).
    pub label: usize,
    /// Fraction of the base set the predicate matches.
    pub selectivity: f32,
    /// `in-traversal` or `post-filter`.
    pub strategy: String,
    pub ef: usize,
    /// recall@k against filtered exact ground truth.
    pub recall_filtered: f32,
    /// Throughput charging the modelled I/O stall (see `hybrid_qps`).
    pub qps: f32,
    /// Mean next-hop selections per query — the traversal-work axis.
    pub hops: f32,
    /// Mean distance evaluations per query.
    pub dist_comps: f32,
    /// Mean unhidden (QPS-charged) modelled I/O per query, ms.
    pub io_stall_ms: f32,
}

/// **filtered**: recall/QPS/work vs selectivity for both strategies.
pub fn filtered(scale: &Scale) -> Report {
    let mut report = Report::new(
        "filtered",
        "Filtered search: recall and traversal work vs predicate selectivity",
        &scale.label(),
        &[
            "Label",
            "Selectivity",
            "Strategy",
            "ef",
            "Recall@10 (filt)",
            "QPS",
            "Hops",
            "Dists",
            "IO stall ms",
        ],
    );
    // Labeled SIFT-like corpus: same generator configuration as the other
    // experiments' `DatasetKind::Sift`, plus the geometric cluster→label
    // map (the vectors are bit-identical to the unlabeled draw).
    let cfg = DatasetKind::Sift.config();
    let (all, all_labels) =
        cfg.generate_labeled(scale.n_base + scale.n_query, scale.seed, scale.label_vocab);
    let (base, queries) = all.split_at(scale.n_base);
    let labels = all_labels.subset(&(0..scale.n_base).collect::<Vec<_>>());
    let pq = ProductQuantizer::train(
        &PqConfig {
            m: scale.m,
            k: scale.kk,
            seed: scale.seed,
            ..Default::default()
        },
        &base,
    );
    let graph = HnswConfig {
        m: 16,
        ef_construction: 100,
        seed: scale.seed,
    }
    .build(&base);
    let mut index = DiskIndex::build(
        pq,
        &base,
        &graph,
        DiskIndexConfig::new(store_path("filtered")),
    )
    .expect("disk index build failed");
    index.set_labels(labels.clone());
    let strategies = [
        FilterStrategy::DuringTraversal,
        FilterStrategy::PostFilter {
            inflation: scale.filter_inflation,
        },
    ];

    let mut points = Vec::new();
    let mut scratch = SearchScratch::new();
    for &label in &scale.filter_labels {
        let pred = LabelPredicate::single(label);
        let selectivity = labels.selectivity(pred);
        assert!(
            labels.count_matching(pred) > 0,
            "label {label} matches nothing at this scale; shrink filter_labels"
        );
        let gt = brute_force_knn_filtered(&base, &queries, scale.k, &labels, pred);
        for strategy in strategies {
            for &ef in &scale.efs {
                let mut ids: Vec<Vec<u32>> = Vec::with_capacity(queries.len());
                let mut hops = 0usize;
                let mut dists = 0usize;
                let mut stall = 0.0f32;
                let t0 = std::time::Instant::now();
                for q in queries.iter() {
                    let (res, stats) =
                        index.search_filtered(q, pred, strategy, ef, scale.k, &mut scratch);
                    hops += stats.hops;
                    dists += stats.dist_comps;
                    stall += stats.io_stall_seconds;
                    ids.push(res.iter().map(|n| n.id).collect());
                }
                let wall = t0.elapsed().as_secs_f32().max(1e-9);
                let n = queries.len().max(1) as f32;
                let point = FilteredPoint {
                    label,
                    selectivity,
                    strategy: strategy.name().to_string(),
                    ef,
                    recall_filtered: gt.recall(&ids),
                    qps: hybrid_qps(queries.len(), wall, stall, 1),
                    hops: hops as f32 / n,
                    dist_comps: dists as f32 / n,
                    io_stall_ms: stall * 1e3 / n,
                };
                report.push_row(vec![
                    point.label.to_string(),
                    fmt(point.selectivity),
                    point.strategy.clone(),
                    point.ef.to_string(),
                    fmt(point.recall_filtered),
                    fmt(point.qps),
                    fmt(point.hops),
                    fmt(point.dist_comps),
                    fmt(point.io_stall_ms),
                ]);
                points.push(point);
            }
        }
    }
    write_json("filtered", &points);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_labels_form_a_selectivity_ladder_at_every_preset() {
        for scale in [Scale::ci(), Scale::small(), Scale::full()] {
            assert!(scale.filter_labels.len() >= 3, "need >= 3 selectivities");
            assert!(
                scale.filter_labels.windows(2).all(|w| w[0] < w[1]),
                "labels must be ascending (descending selectivity)"
            );
            assert!(scale.filter_labels.iter().all(|&l| l < scale.label_vocab));
            assert!(scale.filter_inflation >= 2);
            assert!(scale.zipf_s > 0.0);
        }
    }
}
