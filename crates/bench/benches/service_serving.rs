//! Service-layer kernel benchmarks: encoding and decoding a fitted service's
//! `DSSD` container in memory (`persistence`), medication-use prediction for
//! one patient and for a 16-patient batch (`prediction`), the explanation
//! memo's hit and its insert into a full memo (`explanation_memo`), and the
//! dense matrix kernels under inference and the CRC-32 that seals every wire
//! frame and container (`tensor_kernels`).
//!
//! Serving cost end to end — suggestion, batched suggestion and
//! prescription critique through a live gateway — is measured by the
//! open-loop benchmark, `bash perfbench/run.sh`, over the workloads in
//! `BENCHMARK.json`, not here.
#![allow(clippy::unwrap_used, clippy::indexing_slicing)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use dssddi_bench::BenchWorld;
use dssddi_core::{
    DecisionService, ExplanationCache, ExplanationIndex, MsModuleConfig,
    DEFAULT_EXPLANATION_CACHE_CAPACITY,
};
use dssddi_tensor::serde::crc32;
use dssddi_tensor::Matrix;

/// The container codec alone, with no file or disk sync in the timing: the
/// bytes `save` writes and a `ReloadModel` frame carries, and the load a
/// gateway shard runs on them.
fn bench_container_codec(c: &mut Criterion) {
    let world = BenchWorld::new(120, 11);
    let service = world.fitted_service(90, 13);
    let container = service.to_container_bytes();
    let mut group = c.benchmark_group("persistence");
    group.sample_size(500);
    group.bench_function("encode_fitted_service", |b| {
        b.iter(|| black_box(&service).to_container_bytes())
    });
    group.bench_function("decode_fitted_service", |b| {
        b.iter(|| {
            DecisionService::load_with_embedded_registry_bytes(black_box(&container)).unwrap()
        })
    });
    group.finish();
}

fn bench_prediction(c: &mut Criterion) {
    let world = BenchWorld::new(120, 11);
    let service = world.fitted_service(90, 13);
    // Held-out patients: the ones a suggestion scores.
    let features = world.cohort.features();
    let one = features.select_rows(&[100]);
    let batch = features.select_rows(&(100..116).collect::<Vec<_>>());
    let mut group = c.benchmark_group("prediction");
    group.sample_size(200);
    group.bench_function("predict_scores_1", |b| {
        b.iter(|| service.predict_scores(black_box(&one)).unwrap())
    });
    group.bench_function("predict_scores_16", |b| {
        b.iter(|| service.predict_scores(black_box(&batch)).unwrap())
    });
    group.finish();
}

/// The memo as a suggestion meets it, on the demo-sized graph: a hit
/// rebuilds a cached explanation, and a miss into a full memo evicts the
/// least recently used set and stores a new one. Both start from the
/// canonical key, as a suggestion does. The sets are seeded random sets of
/// 1–5 drugs, more distinct ones than the memo holds, so that every insert
/// in the cycle below meets a full memo that lacks its set.
fn bench_explanation_memo(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let world = BenchWorld::new(120, 11);
    let index = ExplanationIndex::build(&world.ddi);
    let config = MsModuleConfig::default();
    let mut rng = StdRng::seed_from_u64(17);
    let mut keys: Vec<Vec<usize>> = Vec::new();
    while keys.len() < DEFAULT_EXPLANATION_CACHE_CAPACITY + 64 {
        let size = rng.gen_range(1..=5);
        let drugs: Vec<usize> = (0..size)
            .map(|_| rng.gen_range(0..world.ddi.node_count()))
            .collect();
        let key = ExplanationCache::canonical_key(&drugs);
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    let explained: Vec<_> = keys
        .iter()
        .map(|key| (key, index.explain(&world.ddi, key, &config).unwrap()))
        .collect();
    let mut group = c.benchmark_group("explanation_memo");
    let mut memo = ExplanationCache::new();
    for (key, explanation) in &explained {
        memo.insert(key, explanation);
    }
    let mut next = explained.iter().cycle();
    group.sample_size(2000);
    group.bench_function("miss_at_capacity", |b| {
        b.iter(|| {
            let (drugs, explanation) = next.next().unwrap();
            let key = ExplanationCache::canonical_key(black_box(drugs));
            memo.insert(&key, explanation);
        })
    });
    assert_eq!(memo.len(), DEFAULT_EXPLANATION_CACHE_CAPACITY);
    let cached: Vec<&Vec<usize>> = keys.iter().filter(|k| memo.lookup(k).is_some()).collect();
    let mut next = cached.iter().cycle();
    group.sample_size(20_000);
    group.bench_function("hit", |b| {
        b.iter(|| {
            let key = ExplanationCache::canonical_key(black_box(next.next().unwrap()));
            memo.lookup(&key).unwrap()
        })
    });
    group.finish();
}

fn bench_tensor_kernels(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    let mut rng = StdRng::seed_from_u64(5);
    let a = Matrix::rand_uniform(256, 256, -1.0, 1.0, &mut rng);
    let b = Matrix::rand_uniform(256, 256, -1.0, 1.0, &mut rng);
    let mut group = c.benchmark_group("tensor_kernels");
    group.sample_size(10);
    group.bench_function("matmul_256", |b2| b2.iter(|| a.matmul(&b).unwrap()));
    let mut out = Matrix::zeros(256, 256);
    group.bench_function("matmul_into_256", |b2| {
        b2.iter(|| a.matmul_into(&mut out, &b).unwrap())
    });
    group.bench_function("transpose_256", |b2| b2.iter(|| a.transpose()));
    // The decoder's two layers for one patient over the 86-drug formulary
    // at hidden width 16: `[h_i ⊙ h'_v, T_iv]` into the hidden layer, and
    // the hidden layer into one logit per drug.
    group.sample_size(2000);
    for (name, (m, k, n)) in [
        ("matmul_86x17x16", (86, 17, 16)),
        ("matmul_86x16x1", (86, 16, 1)),
    ] {
        let lhs = Matrix::rand_uniform(m, k, -1.0, 1.0, &mut rng);
        let rhs = Matrix::rand_uniform(k, n, -1.0, 1.0, &mut rng);
        let mut out = Matrix::zeros(m, n);
        group.bench_function(name, |b2| {
            b2.iter(|| lhs.matmul_into(&mut out, black_box(&rhs)).unwrap())
        });
    }
    // About the sizes of a suggestion answer, a 16-request batch answer or
    // the `chronic` model container, and twice that; divide ns/iter by the
    // size for ns/byte.
    let bytes: Vec<u8> = (0..64 << 10).map(|_| rng.next_u32() as u8).collect();
    group.sample_size(200);
    for (name, len) in [
        ("crc32_1k", 1 << 10),
        ("crc32_32k", 32 << 10),
        ("crc32_64k", 64 << 10),
    ] {
        let input = &bytes[..len];
        group.bench_function(name, |b2| b2.iter(|| crc32(black_box(input))));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_container_codec,
    bench_prediction,
    bench_explanation_memo,
    bench_tensor_kernels
);
criterion_main!(benches);
