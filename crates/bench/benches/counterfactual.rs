//! Benchmarks of the causal-augmentation machinery of the Medical Decision
//! module: treatment matrix construction (Section IV-B1) and the
//! counterfactual nearest-neighbour search (Eq. 7).
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use dssddi_bench::BenchWorld;
use dssddi_core::counterfactual::CounterfactualIndex;
use dssddi_core::TreatmentMatrix;
use dssddi_ml::fit_kmeans;
use dssddi_tensor::Matrix;

fn bench_counterfactual(c: &mut Criterion) {
    let world = BenchWorld::new(300, 6);
    let observed: Vec<usize> = (0..300).collect();
    let features = world.cohort.features().select_rows(&observed);
    let graph = world.cohort.bipartite_graph(&observed).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let kmeans = fit_kmeans(&features, 16, 30, &mut rng).unwrap();
    let treatment = TreatmentMatrix::build(&graph, kmeans.assignments(), &world.ddi).unwrap();
    let labels = Matrix::from_fn(graph.left_count(), graph.right_count(), |p, d| {
        if graph.has_edge(p, d) {
            1.0
        } else {
            0.0
        }
    });
    let pairs: Vec<(usize, usize)> = graph.edges();
    let pair_patients: Vec<usize> = pairs.iter().map(|&(p, _)| p).collect();
    let pair_drugs: Vec<usize> = pairs.iter().map(|&(_, d)| d).collect();

    let mut group = c.benchmark_group("counterfactual_links");
    group.sample_size(10);
    group.bench_function("kmeans_300_patients_k16", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(8);
            fit_kmeans(&features, 16, 30, &mut rng).unwrap()
        })
    });
    group.bench_function("treatment_matrix_300x86", |b| {
        b.iter(|| TreatmentMatrix::build(&graph, kmeans.assignments(), &world.ddi).unwrap())
    });
    group.bench_function("counterfactual_index_build", |b| {
        b.iter(|| CounterfactualIndex::build(&features, &world.drug_features, 2.0, 2.0, 16))
    });
    let index = CounterfactualIndex::build(&features, &world.drug_features, 2.0, 2.0, 16);
    group.bench_function("counterfactual_search_all_observed_links", |b| {
        b.iter(|| index.find_links(&pair_patients, &pair_drugs, &treatment, &labels))
    });
    group.finish();
}

criterion_group!(benches, bench_counterfactual);
criterion_main!(benches);
