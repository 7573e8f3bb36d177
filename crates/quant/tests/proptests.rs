//! Property-based tests for the quantization substrate: the ADC identity,
//! codec round-trips, SDC symmetry, and k-means invariants.

use proptest::prelude::*;
use rpq_data::Dataset;
use rpq_graph::DistanceEstimator;
use rpq_linalg::distance::sq_l2;
use rpq_quant::{
    kmeans, BatchAdcEstimator, Codebook, KMeansConfig, PqConfig, ProductQuantizer, SoaCodes,
    VectorCompressor,
};

fn dataset(n: usize, dim: usize) -> impl Strategy<Value = Dataset> {
    proptest::collection::vec(-4.0f32..4.0, n * dim)
        .prop_map(move |data| Dataset::from_flat(dim, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fundamental ADC identity: the lookup-table distance equals the
    /// exact distance between the query and the decoded reconstruction.
    #[test]
    fn adc_equals_decoded_distance(ds in dataset(40, 8),
                                   q in proptest::collection::vec(-4.0f32..4.0, 8)) {
        let pq = ProductQuantizer::train(
            &PqConfig { m: 4, k: 8, ..Default::default() },
            &ds,
        );
        let codes = pq.encode_dataset(&ds);
        let lut = pq.lookup_table(&q);
        let mut rec = vec![0.0f32; 8];
        for i in 0..ds.len() {
            pq.decode_into(codes.code(i), &mut rec);
            let expect = sq_l2(&q, &rec);
            let got = lut.distance(codes.code(i));
            prop_assert!((got - expect).abs() <= 1e-3 * expect.max(1.0),
                         "ADC {got} vs decoded {expect}");
        }
    }

    /// Encoding a decoded codeword vector returns the same code
    /// (quantization is idempotent on its own reconstructions).
    #[test]
    fn quantization_is_idempotent(ds in dataset(30, 6)) {
        let pq = ProductQuantizer::train(
            &PqConfig { m: 3, k: 8, ..Default::default() },
            &ds,
        );
        let codes = pq.encode_dataset(&ds);
        let mut rec = vec![0.0f32; 6];
        let mut code2 = vec![0u8; 3];
        for i in 0..ds.len() {
            pq.decode_into(codes.code(i), &mut rec);
            pq.encode_one(&rec, &mut code2);
            let mut rec2 = vec![0.0f32; 6];
            pq.decode_into(&code2, &mut rec2);
            // Codes may differ under exact ties, but reconstructions must
            // agree.
            prop_assert!(sq_l2(&rec, &rec2) < 1e-6);
        }
    }

    /// SDC tables are symmetric with zero diagonal blocks.
    #[test]
    fn sdc_is_symmetric(ds in dataset(30, 6)) {
        let pq = ProductQuantizer::train(
            &PqConfig { m: 3, k: 4, ..Default::default() },
            &ds,
        );
        let sdc = pq.codebook().sdc_table();
        let codes = pq.encode_dataset(&ds);
        for i in (0..ds.len()).step_by(7) {
            for j in (0..ds.len()).step_by(5) {
                let ab = sdc.distance(codes.code(i), codes.code(j));
                let ba = sdc.distance(codes.code(j), codes.code(i));
                prop_assert!((ab - ba).abs() < 1e-4);
            }
            prop_assert!(sdc.distance(codes.code(i), codes.code(i)) < 1e-6);
        }
    }

    /// Reconstruction error never exceeds the distance to the farthest
    /// codeword combination and is zero when the dataset has at most K
    /// distinct sub-vectors.
    #[test]
    fn kmeans_assigns_to_nearest(data in proptest::collection::vec(-3.0f32..3.0, 60)) {
        let res = kmeans(&data, 2, KMeansConfig { k: 4, max_iters: 8, ..Default::default() });
        let point = |i: usize| &data[i * 2..(i + 1) * 2];
        let centroid = |c: usize| &res.centroids[c * 2..(c + 1) * 2];
        for i in 0..30 {
            let assigned = res.assignments[i] as usize;
            let da = sq_l2(point(i), centroid(assigned));
            for c in 0..res.k {
                prop_assert!(da <= sq_l2(point(i), centroid(c)) + 1e-4,
                             "point {i} assigned to non-nearest centroid");
            }
        }
    }

    /// The batched SoA kernel returns the same bits as the scalar LUT walk
    /// for arbitrary trained quantizers and arbitrary (odd-sized,
    /// duplicated, unordered) candidate lists — the contract every index
    /// relies on when it routes searches through `distance_batch`.
    #[test]
    fn batched_adc_bit_equals_scalar(ds in dataset(45, 8),
                                     q in proptest::collection::vec(-4.0f32..4.0, 8),
                                     picks in proptest::collection::vec(0usize..45, 1..70)) {
        let pq = ProductQuantizer::train(
            &PqConfig { m: 4, k: 8, ..Default::default() },
            &ds,
        );
        let codes = pq.encode_dataset(&ds);
        let soa = SoaCodes::from_compact(&codes);
        let lut = pq.lookup_table(&q);
        let est = BatchAdcEstimator::new(pq.lookup_table(&q), &soa);
        let ids: Vec<u32> = picks.iter().map(|&i| i as u32).collect();
        let mut out = vec![0.0f32; ids.len()];
        est.distance_batch(&ids, &mut out);
        for (&id, &got) in ids.iter().zip(&out) {
            let expect = lut.distance(codes.code(id as usize));
            prop_assert_eq!(got.to_bits(), expect.to_bits(),
                            "batched {} vs scalar {} at id {}", got, expect, id);
        }
    }

    /// SoA transposition is lossless: `from_compact` → `to_compact` is the
    /// identity on any code store.
    #[test]
    fn soa_roundtrip_identity(rows in proptest::collection::vec(
        proptest::collection::vec(0u8..=255, 5), 0..40)) {
        let mut codes = rpq_quant::CompactCodes::new(0, 5, Vec::new());
        for row in &rows {
            codes.push(row);
        }
        let back = SoaCodes::from_compact(&codes).to_compact();
        prop_assert_eq!(back.len(), codes.len());
        for i in 0..codes.len() {
            prop_assert_eq!(back.code(i), codes.code(i));
        }
    }

    /// Codebook decode writes every output element (no stale data).
    #[test]
    fn decode_overwrites_output(code0 in 0u8..4, code1 in 0u8..4) {
        let cb = Codebook::new(2, 4, 2, (0..16).map(|v| v as f32).collect());
        let mut out = vec![f32::NAN; 4];
        cb.decode(&[code0, code1], &mut out);
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }
}
