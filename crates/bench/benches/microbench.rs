//! Criterion micro-benchmarks for the hot paths behind each paper artifact.
//!
//! Mapping to the evaluation (see DESIGN.md §5):
//! * `adc_lookup` — the per-distance cost dominating in-memory QPS
//!   (Figures 6, 7, 10, 12),
//! * `adc_batched` — the batched SoA scan kernel over the same codes
//!   (DESIGN.md §9; no index routes through it),
//! * `sdc_vs_adc` — the ranking-term ablation's two comparators (Table 2),
//! * `beam_search_memory` — one in-memory query (Figures 6–7),
//! * `disk_search` — one hybrid query incl. store reads (Figures 5, 11),
//! * `kmeans_subspace` — codebook training cost (Table 4, Figure 9 grid),
//! * `rotation_expm` / `rotation_cayley` — the two rotation
//!   parameterisations, fwd + backward (DESIGN.md ablation, Table 4),
//! * `rpq_training_step` — one joint-loss optimisation step (Table 4),
//! * `encode_dataset` — (re-)encoding cost paid at every routing-feature
//!   refresh (Table 4) and index build.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use rpq_anns::{DiskIndex, DiskIndexConfig, InMemoryIndex};
use rpq_autodiff::Tape;
use rpq_core::{
    loss::{combine, neighborhood_loss, routing_loss, LossWeighting},
    sample_routing_features, sample_triplets, DiffQuantizer, DiffQuantizerConfig,
    RoutingSamplerConfig, TripletSamplerConfig,
};
use rpq_data::synth::DatasetKind;
use rpq_graph::{beam_search, HnswConfig, SearchScratch, VamanaConfig};
use rpq_linalg::{cayley, cayley_vjp, expm, expm_vjp, Matrix};
use rpq_quant::{kmeans, KMeansConfig, PqConfig, ProductQuantizer, SdcEstimator, VectorCompressor};

fn bench_all(c: &mut Criterion) {
    let (base, queries) = DatasetKind::Sift.generate(2000, 8, 7);
    let pq = ProductQuantizer::train(
        &PqConfig {
            m: 8,
            k: 64,
            ..Default::default()
        },
        &base,
    );
    let codes = pq.encode_dataset(&base);
    let q = queries.get(0).to_vec();

    // adc_lookup: table build + 1k distance estimates.
    c.bench_function("adc_lookup_1k", |b| {
        let lut = pq.lookup_table(&q);
        b.iter(|| {
            let mut acc = 0.0f32;
            for i in 0..1000 {
                acc += lut.distance(codes.code(i));
            }
            std::hint::black_box(acc)
        })
    });

    // adc_batched: the same 1k distances through the SoA block kernel
    // (bit-identical to adc_lookup_1k by contract, DESIGN.md §9).
    let soa = rpq_quant::SoaCodes::from_compact(&codes);
    let ids: Vec<u32> = (0..1000).collect();
    c.bench_function("adc_batched_1k", |b| {
        use rpq_graph::DistanceEstimator;
        let est = rpq_quant::BatchAdcEstimator::new(pq.lookup_table(&q), &soa);
        let mut out = vec![0.0f32; ids.len()];
        b.iter(|| {
            est.distance_batch(&ids, &mut out);
            std::hint::black_box(out[0])
        })
    });

    // sdc_vs_adc (Table 2 comparators).
    c.bench_function("sdc_lookup_1k", |b| {
        let est = SdcEstimator::new(pq.codebook(), &codes, &q);
        use rpq_graph::DistanceEstimator;
        b.iter(|| {
            let mut acc = 0.0f32;
            for i in 0..1000u32 {
                acc += est.distance(i);
            }
            std::hint::black_box(acc)
        })
    });

    // beam_search_memory (Figures 6-7).
    let hnsw = HnswConfig {
        m: 8,
        ef_construction: 60,
        seed: 0,
    }
    .build(&base);
    let mem_index = InMemoryIndex::build(pq.clone(), &base, hnsw);
    c.bench_function("beam_search_memory_ef40", |b| {
        let mut scratch = SearchScratch::new();
        b.iter(|| std::hint::black_box(mem_index.search(&q, 40, 10, &mut scratch)))
    });

    // disk_search (Figure 5).
    let vamana = Arc::new(
        VamanaConfig {
            r: 16,
            l: 32,
            ..Default::default()
        }
        .build(&base),
    );
    let store = std::env::temp_dir().join("rpq-criterion.store");
    let disk_index =
        DiskIndex::build(pq.clone(), &base, &vamana, DiskIndexConfig::new(&store)).unwrap();
    c.bench_function("disk_search_ef40", |b| {
        b.iter(|| std::hint::black_box(disk_index.search(&q, 40, 10)))
    });

    // kmeans_subspace (Table 4 / Figure 9 grid).
    c.bench_function("kmeans_k64_d16_n2000", |b| {
        let sub: Vec<f32> = base.iter().flat_map(|v| v[0..16].to_vec()).collect();
        b.iter(|| {
            std::hint::black_box(kmeans(
                &sub,
                16,
                KMeansConfig {
                    k: 64,
                    max_iters: 3,
                    ..Default::default()
                },
            ))
        })
    });

    // rotation_expm vs rotation_cayley (DESIGN.md ablation: the two
    // parameterisations of the learned orthonormal rotation, D=64).
    c.bench_function("rotation_expm_fwd_bwd_d64", |b| {
        let mut rng = SmallRng::seed_from_u64(1);
        let w = Matrix::random_uniform(64, 64, 0.5, &mut rng);
        let a = w.sub(&w.transpose());
        let g = Matrix::random_uniform(64, 64, 1.0, &mut rng);
        b.iter(|| {
            let r = expm(&a);
            let ga = expm_vjp(&a, &g);
            std::hint::black_box((r, ga))
        })
    });
    c.bench_function("rotation_cayley_fwd_bwd_d64", |b| {
        let mut rng = SmallRng::seed_from_u64(1);
        let w = Matrix::random_uniform(64, 64, 0.5, &mut rng);
        let a = w.sub(&w.transpose());
        let g = Matrix::random_uniform(64, 64, 1.0, &mut rng);
        b.iter(|| {
            let r = cayley(&a);
            let ga = cayley_vjp(&a, &g);
            std::hint::black_box((r, ga))
        })
    });

    // rpq_training_step (one joint step at small scale, Table 4).
    let graph = vamana;
    let dq = DiffQuantizer::init(
        DiffQuantizerConfig {
            m: 8,
            k: 32,
            ..Default::default()
        },
        &base,
    );
    let triplets = sample_triplets(&graph, &base, &TripletSamplerConfig::default(), 16);
    let exported = dq.export_pq(0.0);
    let ecodes = exported.encode_dataset(&base);
    let decisions = sample_routing_features(
        &graph,
        &base,
        &|qv| exported.estimator(&ecodes, qv),
        &RoutingSamplerConfig {
            n_queries: 4,
            h: 8,
            ..Default::default()
        },
    );
    c.bench_function("rpq_training_step", |b| {
        let mut rng = SmallRng::seed_from_u64(2);
        b.iter_batched(
            Tape::new,
            |mut t| {
                let vars = dq.begin(&mut t);
                let ln =
                    neighborhood_loss(&mut t, &dq, &vars, &base, &triplets, 1.0, 0.5, &mut rng);
                let lr = if decisions.is_empty() {
                    None
                } else {
                    Some(routing_loss(
                        &mut t,
                        &dq,
                        &vars,
                        &base,
                        &decisions[..decisions.len().min(4)],
                        1.0,
                        0.5,
                        &mut rng,
                    ))
                };
                let loss = combine(&mut t, LossWeighting::Fixed(1.0), lr, Some(ln), None, None);
                std::hint::black_box(t.backward(loss));
            },
            BatchSize::SmallInput,
        )
    });

    // encode_dataset (routing-feature refresh cost).
    c.bench_function("encode_dataset_2k", |b| {
        b.iter(|| std::hint::black_box(pq.encode_dataset(&base)))
    });

    // exact beam search reference (the uncompressed baseline all figures
    // implicitly compare against).
    c.bench_function("beam_search_exact_ef40", |b| {
        let mut scratch = SearchScratch::new();
        let est_graph = mem_index.graph();
        b.iter(|| {
            let est = rpq_graph::ExactEstimator::new(&base, &q);
            std::hint::black_box(beam_search(est_graph, &est, 40, 10, &mut scratch))
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_all
}
criterion_main!(benches);
