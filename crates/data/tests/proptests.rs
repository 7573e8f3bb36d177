//! Property-based tests for the data substrate: IO round-trips on
//! arbitrary payloads, recall bounds, dataset algebra.

use proptest::prelude::*;
use rpq_data::ground_truth::{recall_at_k, top_k_ids, top_k_ids_filtered};
use rpq_data::io::{parse_fvecs_bytes, write_fvecs};
use rpq_data::{brute_force_knn, Dataset};

fn dataset(max_n: usize, dim: usize) -> impl Strategy<Value = Dataset> {
    (1..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec(-1e4f32..1e4, n * dim)
            .prop_map(move |d| Dataset::from_flat(dim, d))
    })
}

/// A file of this process's own directly under `$TMPDIR`; each case
/// removes it again.
fn temp_file(tag: &str) -> std::path::PathBuf {
    let name = format!("rpq-proptest-io-{}-{tag}.fvecs", std::process::id());
    std::env::temp_dir().join(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fvecs_roundtrip_any_payload(ds in dataset(20, 5)) {
        let path = temp_file("case");
        write_fvecs(&path, &ds).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let back = parse_fvecs_bytes(&bytes, None).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back, ds);
    }

    #[test]
    fn arbitrary_truncation_never_panics(ds in dataset(8, 3), cut in 1usize..50) {
        let path = temp_file("trunc");
        write_fvecs(&path, &ds).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let cut = cut.min(bytes.len());
        bytes.truncate(bytes.len() - cut);
        // Any prefix is either valid (ends on a record boundary) or a
        // clean error — never a panic.
        let _ = parse_fvecs_bytes(&bytes, None);
    }

    #[test]
    fn ground_truth_is_sorted_and_self_first(ds in dataset(30, 4)) {
        let gt = brute_force_knn(&ds, &ds, 3.min(ds.len()));
        for (qi, nbrs) in gt.neighbors.iter().enumerate() {
            // Distances ascending.
            let d: Vec<f32> = nbrs
                .iter()
                .map(|&j| rpq_linalg::distance::sq_l2(ds.get(qi), ds.get(j as usize)))
                .collect();
            for w in d.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-3);
            }
            // The query itself (distance 0) must head the list unless a
            // duplicate ties it.
            prop_assert!(d[0] <= 1e-3f32.max(d.last().cloned().unwrap_or(0.0) * 1e-6),
                         "self not first: d0 = {}", d[0]);
        }
    }

    #[test]
    fn recall_is_bounded(res in proptest::collection::vec(0u32..100, 0..10),
                         truth in proptest::collection::vec(0u32..100, 1..10)) {
        let k = truth.len();
        let r = recall_at_k(&res, &truth, k);
        prop_assert!((0.0..=1.0).contains(&r));
    }

    #[test]
    fn top_k_consistent_with_full_sort(ds in dataset(25, 3), k in 1usize..8) {
        let q = ds.get(0).to_vec();
        let ids = top_k_ids(&ds, &q, k);
        let mut all: Vec<(f32, u32)> = (0..ds.len())
            .map(|i| (rpq_linalg::distance::sq_l2(&q, ds.get(i)), i as u32))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let kk = k.min(ds.len());
        // Same multiset of distances (ids may differ under exact ties).
        for (got, expect) in ids.iter().zip(all.iter().take(kk)) {
            let dg = rpq_linalg::distance::sq_l2(&q, ds.get(*got as usize));
            prop_assert!((dg - expect.0).abs() <= 1e-3 * expect.0.max(1.0));
        }
    }

    #[test]
    fn top_k_on_ties_is_the_dist_then_id_order_of_the_accept_all_scan(
        vals in proptest::collection::vec(0u8..4, 1..25),
        k in 1usize..8,
    ) {
        let ds = Dataset::from_flat(1, vals.iter().map(|&v| v as f32).collect());
        let q = [1.0f32];
        let mut all: Vec<(f32, u32)> = (0..ds.len())
            .map(|i| (rpq_linalg::distance::sq_l2(&q, ds.get(i)), i as u32))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let kk = k.min(ds.len());
        let expect: Vec<u32> = all.iter().take(kk).map(|e| e.1).collect();
        prop_assert_eq!(&top_k_ids(&ds, &q, k), &expect);
        prop_assert_eq!(&top_k_ids_filtered(&ds, &q, kk, |_| true), &expect);
    }

    #[test]
    fn split_preserves_content(ds in dataset(20, 4), at_frac in 0.0f32..1.0) {
        let at = ((ds.len() as f32 * at_frac) as usize).min(ds.len());
        let (head, tail) = ds.split_at(at);
        prop_assert_eq!(head.len() + tail.len(), ds.len());
        let mut rebuilt = head.into_flat();
        rebuilt.extend_from_slice(tail.as_flat());
        prop_assert_eq!(rebuilt, ds.as_flat().to_vec());
    }
}
