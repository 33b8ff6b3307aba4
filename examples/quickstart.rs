//! Quickstart: build the synthetic chronic-disease world, train a
//! [`DecisionService`] through the [`ServiceBuilder`], and serve typed
//! suggestion requests plus a prescription check for a few held-out patients.
//!
//! Run with: `cargo run --release --example quickstart`

use dssddi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // 1. Data: the 86-drug formulary, the signed DDI graph and a cohort.
    let registry = DrugRegistry::standard();
    let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).expect("ddi");
    let cohort = generate_chronic_cohort(
        &registry,
        &ddi,
        &ChronicConfig {
            n_patients: 400,
            ..Default::default()
        },
        &mut rng,
    )
    .expect("cohort");
    let drug_features = pretrained_drug_embeddings(
        &registry,
        &DrkgConfig {
            dim: 32,
            epochs: 20,
            ..Default::default()
        },
        &mut rng,
    )
    .expect("TransE embeddings");
    let split = split_patients(cohort.n_patients(), (5, 3, 2), &mut rng).expect("split");
    println!(
        "Cohort: {} patients, {} drugs, {} synergistic / {} antagonistic interactions",
        cohort.n_patients(),
        registry.len(),
        ddi.synergistic_count(),
        ddi.antagonistic_count()
    );

    // 2. Build the decision service: the builder validates the configuration
    // before any training time is spent.
    let service = ServiceBuilder::fast()
        .hidden_dim(32)
        .fit_chronic(&cohort, &split.train, &drug_features, &ddi, &mut rng)
        .expect("DSSDDI training");
    println!(
        "Trained DecisionService({}) on {} observed patients\n",
        service.config().ddi.backbone.name(),
        split.train.len()
    );

    // 3. Suggest medications for three held-out patients. The batch shares
    // one model forward pass, and repeated explanations are memoized.
    let patients = &split.test[..3];
    let requests: Vec<SuggestRequest> = patients
        .iter()
        .map(|&p| SuggestRequest::new(PatientId::new(p), cohort.features().row(p).to_vec(), 3))
        .collect();
    let responses = service
        .suggest_batch_with_kb(&requests, None)
        .expect("suggestions");
    for response in &responses {
        let patient = response.patient.index();
        println!("{}", response.patient);
        println!(
            "  diseases       : {:?}",
            cohort.diseases()[patient]
                .iter()
                .map(|d| d.name())
                .collect::<Vec<_>>()
        );
        println!(
            "  actually taking: {:?}",
            cohort
                .drugs_of(patient)
                .iter()
                .map(|&d| registry.name_of(d).unwrap())
                .collect::<Vec<_>>()
        );
        for drug in &response.drugs {
            println!(
                "  suggest {:<24} ({:>6}) score {:.3}",
                drug.name, drug.id, drug.score
            );
        }
        let exp = &response.explanation;
        println!(
            "  explanation: {} drugs in the DDI subgraph, {} synergistic / {} antagonistic internal edges, SS = {:.3}\n",
            exp.community.node_count(),
            exp.internal_synergy,
            exp.internal_antagonism,
            response.suggestion_satisfaction
        );
    }

    // 4. Critique an existing prescription against the signed DDI graph —
    // the paper's Fig. 8 antagonistic pair, by name.
    let check = CheckPrescriptionRequest::new(vec![
        service.resolve_drug("Gabapentin").expect("known drug"),
        service
            .resolve_drug("Isosorbide Mononitrate")
            .expect("known drug"),
    ]);
    let report = service
        .check_prescription_with_kb(&check, None)
        .expect("prescription check");
    println!(
        "Prescription check (Gabapentin + Isosorbide Mononitrate): {}",
        if report.is_safe() {
            "no antagonism found"
        } else {
            "antagonism found"
        }
    );
    for pair in &report.antagonistic {
        println!(
            "  warning: {} <-> {} is antagonistic",
            pair.a_name, pair.b_name
        );
    }

    // 5. Evaluate against the held-out prescriptions.
    let test_features = cohort.features().select_rows(&split.test);
    let test_labels = cohort.labels().select_rows(&split.test);
    let scores = service.predict_scores(&test_features).expect("scores");
    let metrics = ranking_metrics(&scores, &test_labels, 6).expect("metrics");
    println!(
        "\nHeld-out performance: Precision@6 {:.3}, Recall@6 {:.3}, NDCG@6 {:.3}",
        metrics.precision, metrics.recall, metrics.ndcg
    );
}
