//! A clinic-style workflow on the chronic cohort: compare the DSSDDI
//! decision service against the simple baselines a clinic could deploy
//! (UserSim and SVM), and show how the Suggestion Satisfaction measure and
//! the service's prescription checks separate them even when the accuracy
//! gap is small.
//!
//! Run with: `cargo run --release --example chronic_clinic`

use dssddi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let registry = DrugRegistry::standard();
    let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).expect("ddi");
    let cohort = generate_chronic_cohort(
        &registry,
        &ddi,
        &ChronicConfig {
            n_patients: 600,
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
    .expect("embeddings");
    let split = split_patients(cohort.n_patients(), (5, 3, 2), &mut rng).expect("split");

    let train_x = cohort.features().select_rows(&split.train);
    let train_y = cohort.labels().select_rows(&split.train);
    let test_x = cohort.features().select_rows(&split.test);
    let test_y = cohort.labels().select_rows(&split.test);

    // Fit the decision service and two deployable baselines.
    let service = ServiceBuilder::fast()
        .hidden_dim(32)
        .epochs(60, 100)
        .fit_chronic(&cohort, &split.train, &drug_features, &ddi, &mut rng)
        .expect("DSSDDI service");
    let usersim = UserSim::fit(&train_x, &train_y).expect("UserSim");
    let svm =
        SvmRecommender::fit(&train_x, &train_y, &dssddi::ml::SvmConfig::default()).expect("SVM");

    let methods: Vec<(&str, Matrix)> = vec![
        ("DSSDDI", service.predict_scores(&test_x).expect("scores")),
        ("UserSim", usersim.predict_scores(&test_x).expect("scores")),
        ("SVM", svm.predict_scores(&test_x).expect("scores")),
    ];

    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8}",
        "Method", "P@4", "R@4", "NDCG@4", "SS@4"
    );
    for (name, scores) in &methods {
        let m = ranking_metrics(scores, &test_y, 4).expect("metrics");
        let mut ss = 0.0;
        for p in 0..scores.rows() {
            let top: Vec<DrugId> = top_k_indices(scores.row(p), 4)
                .into_iter()
                .map(DrugId::new)
                .collect();
            ss += service
                .check_prescription_with_kb(&CheckPrescriptionRequest::new(top), None)
                .expect("prescription check")
                .suggestion_satisfaction;
        }
        ss /= scores.rows() as f64;
        println!(
            "{name:<10} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            m.precision, m.recall, m.ndcg, ss
        );
    }

    // How often does each method co-suggest an antagonistic pair? The
    // service's InteractionReport answers this directly.
    println!("\nAntagonistic co-suggestions in the top-4 (lower is safer):");
    for (name, scores) in &methods {
        let mut conflicts = 0usize;
        for p in 0..scores.rows() {
            let top: Vec<DrugId> = top_k_indices(scores.row(p), 4)
                .into_iter()
                .map(DrugId::new)
                .collect();
            let report = service
                .check_prescription_with_kb(&CheckPrescriptionRequest::new(top), None)
                .expect("prescription check");
            if !report.is_safe() {
                conflicts += 1;
            }
        }
        println!(
            "  {name:<10} {conflicts}/{} patients ({:.1}%)",
            scores.rows(),
            100.0 * conflicts as f64 / scores.rows() as f64
        );
    }
}
