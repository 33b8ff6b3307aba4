//! Service-layer kernel benchmarks: encoding and decoding a fitted service's
//! `DSSD` container in memory (`persistence`), medication-use prediction for
//! one patient and for a 16-patient batch (`prediction`), and the dense
//! matrix kernels under inference and the CRC-32 that seals every wire frame
//! and container (`tensor_kernels`).
//!
//! Serving cost end to end — suggestion, batched suggestion and
//! prescription critique through a live gateway — is measured by the
//! open-loop benchmark, `bash perfbench/run.sh`, over the workloads in
//! `BENCHMARK.json`, not here.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use dssddi_bench::BenchWorld;
use dssddi_core::DecisionService;
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
    bench_tensor_kernels
);
criterion_main!(benches);
