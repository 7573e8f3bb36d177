//! Exactness harness for the ADC hot path (DESIGN.md §9).
//!
//! The batched SoA scan kernel is only allowed to exist because it is
//! **bit-identical** to the scalar LUT walk — these tests pin that
//! contract end to end with *trained* quantizers (the in-crate unit tests
//! cover synthetic tables): odd candidate counts that straddle block
//! boundaries and every PQ shape the repo runs. The streaming test pins
//! the index side: the one code store stays in step with the graph through
//! remove → consolidate → insert (no tombstone returned, every distance
//! the scalar LUT's bits).

use rpq_anns::stream::{StreamingConfig, StreamingIndex};
use rpq_data::synth::{SynthConfig, ValueTransform};
use rpq_data::Dataset;
use rpq_graph::{DistanceEstimator, SearchScratch};
use rpq_quant::{
    BatchAdcEstimator, PqConfig, ProductQuantizer, SoaCodes, VectorCompressor, ADC_BLOCK,
};

fn world(n: usize, dim: usize, seed: u64) -> Dataset {
    SynthConfig {
        dim,
        intrinsic_dim: (dim / 2).max(2),
        clusters: 6,
        cluster_std: 0.8,
        noise_std: 0.05,
        transform: ValueTransform::Identity,
    }
    .generate(n, seed)
}

fn train(data: &Dataset, m: usize, k: usize) -> ProductQuantizer {
    ProductQuantizer::train(
        &PqConfig {
            m,
            k,
            ..Default::default()
        },
        data,
    )
}

/// Bit-for-bit scalar/batched agreement over every repo PQ shape and over
/// candidate counts that are *not* multiples of the block: partial tail
/// blocks must run the same f32 operation order as full ones.
#[test]
fn batched_bit_equals_scalar_across_shapes_and_odd_sizes() {
    // n = 37 + ADC_BLOCK * 3 is never block-aligned (ADC_BLOCK = 32).
    let n = ADC_BLOCK * 3 + 37;
    for &(m, k) in &[(1usize, 16usize), (4, 16), (8, 16), (8, 256), (16, 256)] {
        let dim = (m * 2).max(8);
        let data = world(n + 5, dim, 7 + m as u64);
        let (base, queries) = data.split_at(n);
        let pq = train(&base, m, k);
        let codes = pq.encode_dataset(&base);
        let soa = SoaCodes::from_compact(&codes);
        for qi in 0..queries.len() {
            let q = queries.get(qi);
            let lut = pq.lookup_table(q);
            let est = BatchAdcEstimator::new(pq.lookup_table(q), &soa);
            // Odd slice lengths: 1, block-1, block+1, and everything.
            for count in [1usize, ADC_BLOCK - 1, ADC_BLOCK + 1, n] {
                let ids: Vec<u32> = (0..count as u32).collect();
                let mut out = vec![0.0f32; count];
                est.distance_batch(&ids, &mut out);
                for (&id, &got) in ids.iter().zip(&out) {
                    let expect = lut.distance(codes.code(id as usize));
                    assert_eq!(
                        got.to_bits(),
                        expect.to_bits(),
                        "m={m} k={k} count={count} id={id}: batched {got} != scalar {expect}"
                    );
                }
            }
        }
    }
}

/// The SoA transposition is lossless on trained codes, both directions,
/// for block-aligned and unaligned stores.
#[test]
fn soa_roundtrip_lossless_on_trained_codes() {
    for &(m, k, n) in &[(4usize, 16usize, 64usize), (8, 256, 65), (16, 16, 37)] {
        let data = world(n, (m * 2).max(8), 31 + n as u64);
        let pq = train(&data, m, k);
        let codes = pq.encode_dataset(&data);
        let back = SoaCodes::from_compact(&codes).to_compact();
        assert_eq!(back.len(), codes.len());
        for i in 0..codes.len() {
            assert_eq!(back.code(i), codes.code(i), "m={m} k={k} code {i}");
        }
    }
}

/// The streaming lifecycle: tombstoned points are never returned, every
/// returned distance is bit-identical to the scalar LUT's over the index's
/// own code store, and inserts after a consolidation keep both properties.
#[test]
fn streaming_search_respects_tombstones_and_scalar_bits() {
    let data = world(300, 16, 13);
    let (base, rest) = data.split_at(240);
    let (inserts, queries) = rest.split_at(40);
    let pq = train(&base, 4, 16);
    let mut index = StreamingIndex::build(
        pq,
        &base,
        StreamingConfig {
            r: 8,
            l: 16,
            ..Default::default()
        },
    );
    let mut scratch = SearchScratch::new();
    for id in (0..240u32).step_by(5) {
        index.remove(id);
    }

    let check = |index: &StreamingIndex<ProductQuantizer>, scratch: &mut SearchScratch| {
        for qi in 0..queries.len() {
            let q = queries.get(qi);
            let (res, _) = index.search(q, 50, 10, scratch);
            assert!(!res.is_empty());
            let lut = index.compressor().lookup_table(q);
            for n in &res {
                assert!(
                    !index.is_tombstoned(n.id),
                    "tombstoned id {} returned",
                    n.id
                );
                let scalar = lut.distance(index.codes().code(n.id as usize));
                assert_eq!(
                    n.dist.to_bits(),
                    scalar.to_bits(),
                    "streaming distance for id {} diverged from scalar",
                    n.id
                );
            }
        }
    };
    check(&index, &mut scratch);

    // Consolidate (compacts the code store), then keep inserting — the
    // store must stay in step with the graph through both mutations.
    index.consolidate(true).expect("tombstones above threshold");
    for i in 0..inserts.len() {
        index.insert(inserts.get(i), &mut scratch);
    }
    check(&index, &mut scratch);
}
