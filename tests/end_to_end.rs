//! Cross-crate integration tests: the full DSSDDI pipeline from synthetic
//! data generation through training, suggestion, explanation and evaluation,
//! through the typed [`DecisionService`] API and the research-level
//! [`fit_dssddi`] training function behind it.
#![allow(clippy::unwrap_used)]

use dssddi::core::{ExplanationIndex, MsModuleConfig};
use dssddi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct World {
    registry: DrugRegistry,
    ddi: SignedGraph,
    cohort: ChronicCohort,
    drug_features: Matrix,
    split: Split,
}

fn build_world(n_patients: usize, seed: u64) -> World {
    let registry = DrugRegistry::standard();
    let mut rng = StdRng::seed_from_u64(seed);
    let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
    let cohort = generate_chronic_cohort(
        &registry,
        &ddi,
        &ChronicConfig {
            n_patients,
            ..Default::default()
        },
        &mut rng,
    )
    .unwrap();
    let drug_features = pretrained_drug_embeddings(
        &registry,
        &DrkgConfig {
            dim: 16,
            epochs: 10,
            ..Default::default()
        },
        &mut rng,
    )
    .unwrap();
    let split = split_patients(cohort.n_patients(), (5, 3, 2), &mut rng).unwrap();
    World {
        registry,
        ddi,
        cohort,
        drug_features,
        split,
    }
}

fn tiny_config() -> DssddiConfig {
    let mut config = DssddiConfig::fast();
    config.ddi.hidden_dim = 16;
    config.ddi.epochs = 40;
    config.md.hidden_dim = 16;
    config.md.epochs = 50;
    config
}

#[test]
fn decision_service_end_to_end() {
    let world = build_world(120, 1);
    let mut rng = StdRng::seed_from_u64(2);

    // Build through the validating builder.
    let service = ServiceBuilder::fast()
        .hidden_dim(16)
        .epochs(40, 50)
        .fit_chronic(
            &world.cohort,
            &world.split.train,
            &world.drug_features,
            &world.ddi,
            &mut rng,
        )
        .expect("service training");

    // Batched suggestion: one request per held-out patient.
    let requests: Vec<SuggestRequest> = world
        .split
        .test
        .iter()
        .map(|&p| {
            SuggestRequest::new(
                PatientId::new(p),
                world.cohort.features().row(p).to_vec(),
                4,
            )
        })
        .collect();
    let responses = service
        .suggest_batch_with_kb(&requests, None)
        .expect("suggest_batch");
    assert_eq!(responses.len(), world.split.test.len());
    for (request, response) in requests.iter().zip(&responses) {
        assert_eq!(response.patient, request.patient);
        assert_eq!(response.drugs.len(), 4);
        for drug in &response.drugs {
            // Responses carry registry-resolved drug *names*, not indices.
            assert_eq!(
                drug.name,
                world.registry.drug(drug.id.index()).unwrap().name,
                "drug names must come from the registry"
            );
            assert!((0.0..=1.0).contains(&drug.score));
            assert!(response.explanation.community.contains(drug.id.index()));
        }
        assert!(response.suggestion_satisfaction >= 0.0);
    }

    // Prescription critique flags the paper's known antagonistic pair.
    let check = CheckPrescriptionRequest::new(vec![
        service.resolve_drug("Gabapentin").unwrap(),
        service.resolve_drug("Isosorbide Mononitrate").unwrap(),
    ]);
    let report = service
        .check_prescription_with_kb(&check, None)
        .expect("check_prescription");
    assert!(!report.is_safe());
    assert_eq!(report.antagonistic.len(), 1);
    assert_eq!(report.antagonistic[0].a_name, "Gabapentin");
    assert!(report.explanation.community.contains(61));

    // Filters: a patient already taking Isosorbide Mononitrate must not be
    // suggested any of its antagonists.
    let taken = service.resolve_drug("Isosorbide Mononitrate").unwrap();
    let filtered = service
        .suggest_with_kb(
            &SuggestRequest::new(
                PatientId::new(world.split.test[0]),
                world.cohort.features().row(world.split.test[0]).to_vec(),
                4,
            )
            .with_filters(SuggestFilters {
                avoid_antagonists_of: vec![taken],
                ..Default::default()
            }),
            None,
        )
        .expect("filtered suggestion");
    for drug in &filtered.drugs {
        assert_ne!(
            world.ddi.interaction(taken.index(), drug.id.index()),
            Some(Interaction::Antagonistic)
        );
    }
}

#[test]
fn full_pipeline_fit_suggest_explain_evaluate() {
    let world = build_world(120, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let system = ServiceBuilder::new()
        .config(tiny_config())
        .fit_chronic(
            &world.cohort,
            &world.split.train,
            &world.drug_features,
            &world.ddi,
            &mut rng,
        )
        .unwrap();

    let test_features = world.cohort.features().select_rows(&world.split.test);
    let test_labels = world.cohort.labels().select_rows(&world.split.test);

    // Suggestions carry scores, explanations and valid drug IDs.
    let requests: Vec<SuggestRequest> = world
        .split
        .test
        .iter()
        .map(|&p| {
            SuggestRequest::new(
                PatientId::new(p),
                world.cohort.features().row(p).to_vec(),
                4,
            )
        })
        .collect();
    let suggestions = system.suggest_batch_with_kb(&requests, None).unwrap();
    assert_eq!(suggestions.len(), world.split.test.len());
    for suggestion in &suggestions {
        assert_eq!(suggestion.drugs.len(), 4);
        for s in &suggestion.drugs {
            assert!(s.id.index() < world.registry.len());
            assert!((0.0..=1.0).contains(&s.score));
        }
        assert!(suggestion.explanation.suggestion_satisfaction >= 0.0);
    }

    // Evaluation metrics are bounded and the system is clearly better than
    // chance on recall.
    let scores = system.predict_scores(&test_features).unwrap();
    let metrics = ranking_metrics(&scores, &test_labels, 6).unwrap();
    assert!(metrics.precision > 0.0 && metrics.precision <= 1.0);
    assert!(
        metrics.recall > 0.1,
        "recall@6 unexpectedly low: {}",
        metrics.recall
    );
    assert!(metrics.ndcg > 0.1);
}

#[test]
fn dssddi_is_clearly_better_than_chance_and_competitive_with_usersim() {
    let world = build_world(150, 3);
    let mut config = tiny_config();
    config.md.epochs = 250;
    config.md.hidden_dim = 32;
    config.ddi.hidden_dim = 32;
    let mut rng = StdRng::seed_from_u64(4);
    let system = ServiceBuilder::new()
        .config(config)
        .fit_chronic(
            &world.cohort,
            &world.split.train,
            &world.drug_features,
            &world.ddi,
            &mut rng,
        )
        .unwrap();

    let train_x = world.cohort.features().select_rows(&world.split.train);
    let train_y = world.cohort.labels().select_rows(&world.split.train);
    let test_x = world.cohort.features().select_rows(&world.split.test);
    let test_y = world.cohort.labels().select_rows(&world.split.test);

    let usersim = UserSim::fit(&train_x, &train_y).unwrap();
    let ours = ndcg_at_k(&system.predict_scores(&test_x).unwrap(), &test_y, 6).unwrap();
    let theirs = ndcg_at_k(&usersim.predict_scores(&test_x).unwrap(), &test_y, 6).unwrap();
    let random = ndcg_at_k(
        &Matrix::rand_uniform(test_y.rows(), test_y.cols(), 0.0, 1.0, &mut rng),
        &test_y,
        6,
    )
    .unwrap();
    // At this deliberately tiny training scale (integration-test budget) we
    // only require DSSDDI to be far better than chance and in UserSim's
    // league; the full-scale comparison is exercised by the experiment
    // binaries (Table I) where DSSDDI is trained for hundreds of epochs.
    assert!(
        ours > 2.0 * random,
        "DSSDDI NDCG@6 ({ours:.3}) should be well above chance ({random:.3})"
    );
    assert!(
        ours > 0.6 * theirs,
        "DSSDDI NDCG@6 ({ours:.3}) should be competitive with UserSim ({theirs:.3})"
    );
}

#[test]
fn training_is_deterministic_for_a_fixed_seed() {
    let world = build_world(80, 5);
    let fit = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let service = ServiceBuilder::new()
            .config(tiny_config())
            .fit_chronic(
                &world.cohort,
                &world.split.train,
                &world.drug_features,
                &world.ddi,
                &mut rng,
            )
            .unwrap();
        let test_features = world.cohort.features().select_rows(&world.split.test[..5]);
        service.predict_scores(&test_features).unwrap()
    };
    let a = fit(9);
    let b = fit(9);
    assert_eq!(a.data(), b.data(), "same seed must give identical scores");
}

#[test]
fn suggestion_satisfaction_prefers_paper_synergy_pairs() {
    let mut rng = StdRng::seed_from_u64(6);
    let registry = DrugRegistry::standard();
    let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
    let ms = MsModuleConfig::default();
    // Simvastatin + Atorvastatin (synergistic) vs Gabapentin + Isosorbide
    // Mononitrate (antagonistic) — the Fig. 8 comparison.
    let index = ExplanationIndex::build(&ddi);
    let good = index.explain(&ddi, &[46, 47], &ms).unwrap();
    let bad = index.explain(&ddi, &[61, 59], &ms).unwrap();
    assert!(good.suggestion_satisfaction > bad.suggestion_satisfaction);
    assert!(good.internal_synergy >= 1);
    assert!(bad.internal_antagonism >= 1);
}

#[test]
fn mimic_like_pipeline_with_gin_backbone() {
    let mut rng = StdRng::seed_from_u64(8);
    let mimic = generate_mimic_dataset(
        &MimicConfig {
            n_patients: 150,
            ..Default::default()
        },
        &mut rng,
    )
    .unwrap();
    let split = split_patients(mimic.n_patients(), (5, 3, 2), &mut rng).unwrap();
    let train_x = mimic.features().select_rows(&split.train);
    let test_x = mimic.features().select_rows(&split.test);
    let test_y = mimic.labels().select_rows(&split.test);
    let pairs: Vec<(usize, usize)> = split
        .train
        .iter()
        .enumerate()
        .flat_map(|(row, &p)| mimic.drugs_of(p).into_iter().map(move |d| (row, d)))
        .collect();
    let train_graph =
        BipartiteGraph::from_pairs(split.train.len(), mimic.n_drugs(), &pairs).unwrap();

    let mut config = tiny_config();
    config.ddi.backbone = Backbone::Gin;
    config.md.drug_features = dssddi::core::config::DrugFeatureSource::OneHot;
    let placeholder = Matrix::identity(mimic.n_drugs());
    let system = fit_dssddi(
        &train_x,
        &train_graph,
        &placeholder,
        mimic.ddi(),
        None,
        &config,
        &mut rng,
    )
    .unwrap();
    let scores = system.predict_scores(&test_x).unwrap();
    let metrics = ranking_metrics(&scores, &test_y, 8).unwrap();
    // MIMIC-like labels are dense (8-15 drugs), so precision is high even for
    // a lightly trained model.
    assert!(
        metrics.precision > 0.2,
        "precision@8 too low: {}",
        metrics.precision
    );
}

#[test]
fn baselines_and_dssddi_share_the_same_interface_shapes() {
    let world = build_world(80, 10);
    let mut rng = StdRng::seed_from_u64(11);
    let train_x = world.cohort.features().select_rows(&world.split.train);
    let train_y = world.cohort.labels().select_rows(&world.split.train);
    let train_graph = world.cohort.bipartite_graph(&world.split.train).unwrap();
    let test_x = world.cohort.features().select_rows(&world.split.test);
    let n_test = world.split.test.len();
    let n_drugs = world.registry.len();

    let graph_cfg = dssddi::baselines::graph_models::GraphBaselineConfig {
        hidden_dim: 16,
        epochs: 20,
        ..Default::default()
    };
    let neural_cfg = dssddi::baselines::neural::NeuralConfig {
        hidden_dim: 16,
        epochs: 20,
        ..Default::default()
    };

    let recommenders: Vec<Box<dyn Recommender>> = vec![
        Box::new(UserSim::fit(&train_x, &train_y).unwrap()),
        Box::new(
            SvmRecommender::fit(
                &train_x,
                &train_y,
                &dssddi::ml::SvmConfig {
                    epochs: 10,
                    ..Default::default()
                },
            )
            .unwrap(),
        ),
        Box::new(GcmcRecommender::fit(&train_x, &train_graph, &graph_cfg, &mut rng).unwrap()),
        Box::new(LightGcnRecommender::fit(&train_x, &train_graph, &graph_cfg, &mut rng).unwrap()),
        Box::new(BiparGcnRecommender::fit(&train_x, &train_graph, &graph_cfg, &mut rng).unwrap()),
        Box::new(
            SafeDrugRecommender::fit(&train_x, &train_y, &world.ddi, 0.05, &neural_cfg, &mut rng)
                .unwrap(),
        ),
        Box::new(CauseRecRecommender::fit(&train_x, &train_y, 0.2, &neural_cfg, &mut rng).unwrap()),
    ];
    for recommender in &recommenders {
        let scores = recommender.predict_scores(&test_x).unwrap();
        assert_eq!(
            scores.shape(),
            (n_test, n_drugs),
            "{} shape",
            recommender.name()
        );
        assert!(
            scores.all_finite(),
            "{} produced non-finite scores",
            recommender.name()
        );
    }
}
