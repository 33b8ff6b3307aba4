//! Validation on the MIMIC-III-like EHR data (the Section V-E protocol):
//! diagnosis/procedure codes of earlier visits are the features, the
//! last-visit prescription is the label, and only antagonistic DDI pairs are
//! available, so the service is built with the GIN backbone.
//!
//! The MIMIC generator now produces an anonymised [`DrugRegistry`] alongside
//! the dataset, so the whole pipeline runs through the typed
//! [`DecisionService`] API — train, evaluate, request typed suggestions, and
//! (because any fitted service persists to a `DSSD` file) the resulting
//! model can be served by the `dssddi-serve` gateway like the chronic one.
//!
//! Run with: `cargo run --release --example mimic_validation`
#![allow(clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use dssddi::core::config::DrugFeatureSource;
use dssddi::prelude::*;
use dssddi::serving::{Request, Response};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(21);
    let mimic = generate_mimic_dataset(
        &MimicConfig {
            n_patients: 800,
            ..Default::default()
        },
        &mut rng,
    )
    .expect("MIMIC-like data");
    println!(
        "MIMIC-like EHR: {} patients, {} drugs, mean {:.1} drugs per last visit, {} antagonistic DDI pairs",
        mimic.n_patients(),
        mimic.n_drugs(),
        mimic.mean_drugs_per_patient(),
        mimic.ddi().antagonistic_count()
    );

    let split = split_patients(mimic.n_patients(), (5, 3, 2), &mut rng).expect("split");
    let train_x = mimic.features().select_rows(&split.train);
    let train_y = mimic.labels().select_rows(&split.train);
    let test_x = mimic.features().select_rows(&split.test);
    let test_y = mimic.labels().select_rows(&split.test);

    // Training bipartite graph over the observed patients.
    let pairs: Vec<(usize, usize)> = split
        .train
        .iter()
        .enumerate()
        .flat_map(|(row, &p)| mimic.drugs_of(p).into_iter().map(move |d| (row, d)))
        .collect();
    let train_graph =
        BipartiteGraph::from_pairs(split.train.len(), mimic.n_drugs(), &pairs).expect("graph");

    // The generated registry covers the anonymised label space, so the
    // typed service API fits MIMIC end to end — no more engine-level
    // fallback. Only antagonistic interactions exist, hence GIN; drug
    // features are one-hot because MIMIC drugs have no KG embeddings.
    let mut builder = ServiceBuilder::fast()
        .backbone(Backbone::Gin)
        .hidden_dim(32)
        .epochs(60, 80)
        .registry(mimic.registry().clone());
    let mut config = builder.peek_config().clone();
    config.md.drug_features = DrugFeatureSource::OneHot;
    builder = builder.config(config);
    let placeholder = Matrix::identity(mimic.n_drugs());
    let service = builder
        .fit(&train_x, &train_graph, &placeholder, mimic.ddi(), &mut rng)
        .expect("DSSDDI(GIN) service");

    // A simple baseline for reference.
    let usersim = UserSim::fit(&train_x, &train_y).expect("UserSim");

    println!(
        "\n{:<14} {:>8} {:>8} {:>8}",
        "Method", "P@8", "R@8", "NDCG@8"
    );
    for (name, scores) in [
        (
            "DSSDDI(GIN)",
            service.predict_scores(&test_x).expect("scores"),
        ),
        ("UserSim", usersim.predict_scores(&test_x).expect("scores")),
    ] {
        let m = ranking_metrics(&scores, &test_y, 8).expect("metrics");
        println!(
            "{name:<14} {:>8.3} {:>8.3} {:>8.3}",
            m.precision, m.recall, m.ndcg
        );
    }
    println!("\n(The paper's Table IV reports the same ordering at k = 4, 6, 8.)");

    // Typed requests resolve anonymised names through the MIMIC registry.
    let requests: Vec<SuggestRequest> = split.test[..3]
        .iter()
        .map(|&p| SuggestRequest::new(PatientId::new(p), mimic.features().row(p).to_vec(), 8))
        .collect();
    println!("\nTyped suggestions for three held-out ICU patients:");
    for response in service
        .suggest_batch_with_kb(&requests, None)
        .expect("suggest")
    {
        let top: Vec<String> = response
            .drugs
            .iter()
            .take(3)
            .map(|d| format!("{} ({:.3})", d.name, d.score))
            .collect();
        println!(
            "  {}: {} ... | SS {:.3}",
            response.patient,
            top.join(", "),
            response.suggestion_satisfaction
        );
    }

    // The fitted MIMIC service persists like any other, so the serving
    // gateway can shard it next to the chronic model:
    //   service.save("mimic.dssd")  →  dssddi-serve mimic=mimic.dssd
    let dir = std::env::temp_dir().join("dssddi-mimic-example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("mimic.dssd");
    service.save(&path).expect("save MIMIC service");
    let mut catalog = ModelCatalog::new();
    catalog
        .load_file(ModelKey::new("mimic").expect("key"), &path)
        .expect("load MIMIC model into the gateway catalog");
    let router = Router::new(catalog);
    let routed = match router.serve(&Request::SuggestBatch {
        model: ModelKey::new("mimic").expect("key"),
        requests,
    }) {
        Response::SuggestBatch(responses) => responses,
        other => panic!("routed suggestions failed: {other:?}"),
    };
    println!(
        "\nServed through the gateway router: {} responses, model list: {:?}",
        routed.len(),
        router
            .list_models()
            .iter()
            .map(|m| format!("{} ({} drugs)", m.key, m.n_drugs))
            .collect::<Vec<_>>()
    );
    std::fs::remove_file(&path).ok();
}
