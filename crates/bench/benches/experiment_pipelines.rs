//! Macro benchmarks shaped like the evaluation artifacts: data generation
//! (Fig. 2/3), test-set scoring and metric computation (Tables I/II/IV) and
//! Suggestion Satisfaction scoring (Table III, Fig. 8).
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use dssddi_baselines::{LightGcnRecommender, Recommender, UserSim};
use dssddi_bench::BenchWorld;
use dssddi_core::{DssddiConfig, ExplanationIndex, MsModuleConfig, ServiceBuilder};
use dssddi_data::{generate_chronic_cohort, generate_mimic_dataset, ChronicConfig, MimicConfig};
use dssddi_ml::{ndcg_at_k, precision_at_k, recall_at_k, top_k_indices};

fn bench_data_generation(c: &mut Criterion) {
    let world = BenchWorld::new(10, 9);
    let mut group = c.benchmark_group("data_generation");
    group.sample_size(10);
    group.bench_function("chronic_cohort_500_patients_fig2_fig3", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(10);
            generate_chronic_cohort(
                &world.registry,
                &world.ddi,
                &ChronicConfig {
                    n_patients: 500,
                    ..Default::default()
                },
                &mut rng,
            )
            .unwrap()
        })
    });
    group.bench_function("mimic_dataset_500_patients_table4", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(11);
            generate_mimic_dataset(
                &MimicConfig {
                    n_patients: 500,
                    ..Default::default()
                },
                &mut rng,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_scoring_pipelines(c: &mut Criterion) {
    let world = BenchWorld::new(260, 12);
    let observed: Vec<usize> = (0..200).collect();
    let held_out: Vec<usize> = (200..260).collect();
    let train_x = world.cohort.features().select_rows(&observed);
    let train_y = world.cohort.labels().select_rows(&observed);
    let train_graph = world.cohort.bipartite_graph(&observed).unwrap();
    let test_x = world.cohort.features().select_rows(&held_out);
    let test_y = world.cohort.labels().select_rows(&held_out);

    // Fit the models once; the benchmark measures the evaluation pipeline.
    let mut config = DssddiConfig::fast();
    config.ddi.hidden_dim = 16;
    config.md.hidden_dim = 16;
    config.ddi.epochs = 30;
    config.md.epochs = 30;
    let mut rng = StdRng::seed_from_u64(13);
    let dssddi = ServiceBuilder::new()
        .config(config)
        .fit_chronic(
            &world.cohort,
            &observed,
            &world.drug_features,
            &world.ddi,
            &mut rng,
        )
        .unwrap();
    let lightgcn = LightGcnRecommender::fit(
        &train_x,
        &train_graph,
        &dssddi_baselines::graph_models::GraphBaselineConfig {
            hidden_dim: 16,
            epochs: 30,
            ..Default::default()
        },
        &mut rng,
    )
    .unwrap();
    let usersim = UserSim::fit(&train_x, &train_y).unwrap();

    let mut group = c.benchmark_group("table_pipelines");
    group.sample_size(10);
    group.bench_function("table1_dssddi_score_60_test_patients", |b| {
        b.iter(|| dssddi.predict_scores(&test_x).unwrap())
    });
    group.bench_function("table1_lightgcn_score_60_test_patients", |b| {
        b.iter(|| lightgcn.predict_scores(&test_x).unwrap())
    });
    group.bench_function("table1_usersim_score_60_test_patients", |b| {
        b.iter(|| usersim.predict_scores(&test_x).unwrap())
    });

    let scores = dssddi.predict_scores(&test_x).unwrap();
    group.bench_function("table1_metrics_precision_recall_ndcg_k6", |b| {
        b.iter(|| {
            (
                precision_at_k(&scores, &test_y, 6).unwrap(),
                recall_at_k(&scores, &test_y, 6).unwrap(),
                ndcg_at_k(&scores, &test_y, 6).unwrap(),
            )
        })
    });
    let ms = MsModuleConfig::default();
    group.bench_function("table3_suggestion_satisfaction_60_patients_k4", |b| {
        b.iter(|| {
            let index = ExplanationIndex::build(&world.ddi);
            let mut total = 0.0;
            for p in 0..scores.rows() {
                let top = top_k_indices(scores.row(p), 4);
                total += index
                    .explain(&world.ddi, &top, &ms)
                    .unwrap()
                    .suggestion_satisfaction;
            }
            total
        })
    });
    group.bench_function("fig8_single_explanation_k3", |b| {
        b.iter(|| {
            ExplanationIndex::build(&world.ddi)
                .explain(&world.ddi, &[46, 47, 59], &ms)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_data_generation, bench_scoring_pipelines);
criterion_main!(benches);
