//! Benchmarks of one training epoch of DDIGCN (per backbone) and MDGCN —
//! the model cost behind Tables I, II and IV.
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use dssddi_bench::BenchWorld;
use dssddi_core::{train_relation_embeddings, Backbone, DdiModuleConfig, MdModule, MdModuleConfig};

fn bench_ddigcn(c: &mut Criterion) {
    let world = BenchWorld::new(50, 2);
    let mut group = c.benchmark_group("ddigcn_training");
    group.sample_size(10);
    for backbone in Backbone::ALL {
        let config = DdiModuleConfig {
            hidden_dim: 32,
            layers: 2,
            epochs: 5,
            backbone,
            ..Default::default()
        };
        group.bench_function(format!("five_epochs_{}", backbone.name()), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(3);
                train_relation_embeddings(&world.ddi, &config, &mut rng).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_mdgcn(c: &mut Criterion) {
    let world = BenchWorld::new(200, 4);
    let observed: Vec<usize> = (0..150).collect();
    let features = world.cohort.features().select_rows(&observed);
    let graph = world.cohort.bipartite_graph(&observed).unwrap();
    let mut group = c.benchmark_group("mdgcn_training");
    group.sample_size(10);
    for (label, counterfactual) in [
        ("with_counterfactual", true),
        ("without_counterfactual", false),
    ] {
        let config = MdModuleConfig {
            hidden_dim: 32,
            epochs: 5,
            use_ddi_embeddings: false,
            use_counterfactual: counterfactual,
            ..Default::default()
        };
        group.bench_function(format!("five_epochs_{label}_150_patients"), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(5);
                MdModule::fit(
                    &features,
                    &graph,
                    &world.drug_features,
                    &world.ddi,
                    None,
                    &config,
                    &mut rng,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ddigcn, bench_mdgcn);
criterion_main!(benches);
