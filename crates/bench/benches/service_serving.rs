//! Service-layer kernel benchmarks: save/load throughput of the `DSSD`
//! container (`persistence`), and the dense matrix kernels under inference
//! and the CRC-32 that seals every wire frame and container
//! (`tensor_kernels`).
//!
//! Serving cost end to end — suggestion, batched suggestion and
//! prescription critique through a live gateway — is measured by the
//! open-loop benchmark, `bash perfbench/run.sh`, over the workloads in
//! `BENCHMARK.json`, not here.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use dssddi_bench::BenchWorld;
use dssddi_tensor::serde::crc32;
use dssddi_tensor::Matrix;

fn bench_save_load(c: &mut Criterion) {
    let world = BenchWorld::new(120, 11);
    let service = world.fitted_service(90, 13);
    let dir = std::env::temp_dir().join("dssddi_bench_save_load");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("service.dssd");

    let mut group = c.benchmark_group("persistence");
    group.sample_size(10);
    group.bench_function("save_fitted_service", |b| {
        b.iter(|| service.save(&path).unwrap())
    });
    service.save(&path).unwrap();
    let registry = world.registry.clone();
    group.bench_function("load_fitted_service", |b| {
        b.iter(|| {
            dssddi_core::DecisionService::load(&path, registry.clone()).unwrap();
        })
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
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
    // About the sizes of a suggestion answer, a 16-request batch answer and
    // the `chronic` model container; divide ns/iter by the size for ns/byte.
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

criterion_group!(benches, bench_save_load, bench_tensor_kernels);
criterion_main!(benches);
