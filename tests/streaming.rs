//! Integration tests for the streaming mutable index (DESIGN.md §8).
//!
//! The load-bearing test is the sequential baseline: after every cycle of
//! a scripted wave of interleaved inserts and deletes plus a consolidation
//! pass, the streamed index's recall on seeded CI data must stay within a
//! pinned floor of a from-scratch rebuild over the same surviving points —
//! churn may cost a little graph quality, but never an epoch's worth.

use rpq_anns::stream::{StreamingConfig, StreamingIndex};
use rpq_bench::Scale;
use rpq_data::synth::DatasetKind;
use rpq_data::{brute_force_knn, Dataset, GroundTruth};
use rpq_graph::SearchScratch;
use rpq_quant::{PqConfig, ProductQuantizer, VectorCompressor};

/// recall@10 of `index` against ground truth whose ids are the index's own
/// local ids (both sides built over the same dataset in the same order).
fn recall_at_10<C: VectorCompressor>(
    index: &StreamingIndex<C>,
    queries: &Dataset,
    gt: &GroundTruth,
    ef: usize,
) -> f32 {
    let mut scratch = SearchScratch::new();
    let mut hits = 0usize;
    let mut total = 0usize;
    for (qi, q) in queries.iter().enumerate() {
        let (top, _) = index.search(q, ef, 10, &mut scratch);
        let got: Vec<u32> = top.iter().map(|n| n.id).collect();
        let want = &gt.neighbors[qi];
        total += want.len();
        hits += want.iter().filter(|id| got.contains(id)).count();
    }
    hits as f32 / total.max(1) as f32
}

#[test]
fn churned_index_tracks_from_scratch_rebuild() {
    let s = Scale::ci();
    let (base, queries) = DatasetKind::Sift.generate(s.n_base, 25, s.seed);
    let initial = 800;
    let pool = base.len() - initial;
    let (seed_set, _) = base.split_at(initial);
    let pq = ProductQuantizer::train(
        &PqConfig {
            m: 8,
            k: 32,
            seed: s.seed,
            ..Default::default()
        },
        &seed_set,
    );
    let cfg = StreamingConfig {
        seed: s.seed,
        ..Default::default()
    };

    // Scripted churn in four cycles: each streams in a quarter of the
    // reserve, tombstoning a deterministic spread of earlier points along
    // the way, then consolidates. After every cycle the streamed index is
    // held against the baseline: a from-scratch batch build over exactly
    // the surviving points, in the streamed index's own local-id order,
    // with the same compressor. Ground-truth ids are then local ids for
    // both indexes.
    let mut index = StreamingIndex::build(pq.clone(), &seed_set, cfg);
    let mut scratch = SearchScratch::new();
    let mut source: Vec<usize> = (0..initial).collect();
    let cycles = 4;
    let mut reclaimed = 0;
    let mut streamed = 0.0;
    for cycle in 0..cycles {
        for i in cycle * pool / cycles..(cycle + 1) * pool / cycles {
            index.insert(base.get(initial + i), &mut scratch);
            source.push(initial + i);
            if i % 3 == 0 {
                let victim = (i * 11) % index.len();
                index.remove(victim as u32);
            }
        }
        let report = index.consolidate(true).expect("churn left tombstones");
        reclaimed += report.reclaimed;
        source = report
            .survivors
            .iter()
            .map(|&old| source[old as usize])
            .collect();
        assert_eq!(index.live_len(), source.len());

        let survivors = base.subset(&source);
        let rebuilt = StreamingIndex::build(pq.clone(), &survivors, cfg);
        let gt = brute_force_knn(&survivors, &queries, 10);

        let ef = 90;
        streamed = recall_at_10(&index, &queries, &gt, ef);
        let fresh = recall_at_10(&rebuilt, &queries, &gt, ef);
        assert!(
            streamed >= fresh - 0.1,
            "cycle {cycle}: churned index fell more than the pinned floor below \
             a rebuild: streamed {streamed} vs rebuilt {fresh}"
        );
    }
    assert!(reclaimed > 50, "script tombstoned over 100 points");
    assert!(
        streamed >= 0.55,
        "churned index lost absolute recall: {streamed}"
    );
}

#[test]
fn one_scratch_survives_build_growth_and_consolidation() {
    // Integration-level regression for epoch-safe scratch reuse: a single
    // SearchScratch crosses a small build, growth far past the initial
    // point count, a compaction that shrinks the id space, and more growth.
    let (base, queries) = DatasetKind::Ukbench.generate(600, 5, 9);
    let (seed_set, _) = base.split_at(150);
    let pq = ProductQuantizer::train(
        &PqConfig {
            m: 8,
            k: 16,
            seed: 9,
            ..Default::default()
        },
        &seed_set,
    );
    let mut index = StreamingIndex::build(pq, &seed_set, StreamingConfig::default());
    let mut scratch = SearchScratch::new();
    let (warm, _) = index.search(queries.get(0), 40, 10, &mut scratch);
    assert_eq!(warm.len(), 10);

    // Grow 3x past the capacity that first search sized the scratch for.
    for i in 150..600 {
        index.insert(base.get(i), &mut scratch);
    }
    assert_eq!(index.len(), 600);
    for i in (0..600).step_by(2) {
        index.remove(i as u32);
    }
    index.consolidate(true).expect("half the index tombstoned");
    assert_eq!(index.len(), 300);

    // The same scratch keeps producing full, live-only result sets in the
    // shrunken id space, and after renewed growth.
    for qi in 0..queries.len() {
        let (top, _) = index.search(queries.get(qi), 60, 10, &mut scratch);
        assert_eq!(top.len(), 10);
        assert!(top.iter().all(|n| (n.id as usize) < index.len()));
    }
    for i in 0..50 {
        index.insert(base.get(i), &mut scratch);
    }
    let (top, _) = index.search(queries.get(0), 60, 10, &mut scratch);
    assert_eq!(top.len(), 10);
}

/// The predicate-layer refactor's integration pin: the unfiltered search
/// (whose tombstone masking now rides the same `VertexFilter` as user
/// predicates) must be **bit-identical** to a filtered search whose
/// predicate accepts every point, at every stage of a churn cycle —
/// inserts, tombstones, and a consolidation. If threading the predicate
/// through perturbed the tombstone path in any way, ids or distance bits
/// would diverge here.
#[test]
fn tombstone_path_is_bit_identical_to_an_all_accepting_predicate() {
    use rpq_anns::FilterStrategy;
    use rpq_data::{LabelPredicate, Labels};

    let (base, queries) = DatasetKind::Sift.generate(700, 30, 9);
    let (seed_set, reserve) = base.split_at(500);
    let pq = ProductQuantizer::train(
        &PqConfig {
            m: 8,
            k: 32,
            ..Default::default()
        },
        &seed_set,
    );
    // Every point carries label 0, so `single(0)` accepts everything and
    // the composed filter reduces to the tombstone check alone.
    let labels = Labels::from_masks(32, vec![1u32; seed_set.len()]);
    let mut index =
        StreamingIndex::build_labeled(pq, &seed_set, labels, StreamingConfig::default());
    let mut scratch = SearchScratch::new();

    let assert_stage = |index: &StreamingIndex<ProductQuantizer>,
                        scratch: &mut SearchScratch,
                        stage: &str| {
        for qi in 0..queries.len() {
            let (plain, _) = index.search(queries.get(qi), 60, 10, scratch);
            let (filtered, _) = index.search_filtered(
                queries.get(qi),
                LabelPredicate::single(0),
                FilterStrategy::DuringTraversal,
                60,
                10,
                scratch,
            );
            let a: Vec<(u32, u32)> = plain.iter().map(|n| (n.id, n.dist.to_bits())).collect();
            let b: Vec<(u32, u32)> = filtered.iter().map(|n| (n.id, n.dist.to_bits())).collect();
            assert_eq!(a, b, "tombstone path diverged after {stage} (query {qi})");
        }
    };

    assert_stage(&index, &mut scratch, "batch build");
    for i in 0..reserve.len() {
        index.insert_labeled(reserve.get(i), 1, &mut scratch);
        if i % 3 == 0 {
            index.remove(((i * 11) % index.len()) as u32);
        }
    }
    assert_stage(&index, &mut scratch, "insert/tombstone churn");
    index.consolidate(true).expect("churn left tombstones");
    assert_stage(&index, &mut scratch, "consolidation");
}
