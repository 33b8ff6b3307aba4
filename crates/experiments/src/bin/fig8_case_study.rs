//! Fig. 8 — explanation case study for a cardiovascular patient: the
//! Medical Support subgraphs (closest truss communities) behind the top-3
//! suggestions of DSSDDI, LightGCN, GCMC, SVM and ECC.

use dssddi_core::{Backbone, ExplanationIndex, MsModuleConfig, PatientId, SuggestRequest};
use dssddi_data::Disease;
use dssddi_experiments::{
    format_drugs, run_chronic_baselines, run_dssddi_variant, ChronicWorld, RunOptions,
};
use dssddi_ml::top_k_indices;

#[expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "test patients index the cohort, the test split is non-empty, and a research binary stops on a failed step"
)]
fn main() {
    let opts = RunOptions::from_args();
    println!("Fig. 8 — medication-suggestion case study for a cardiovascular patient\n");
    let world = ChronicWorld::generate(&opts).unwrap_or_else(|error| {
        eprintln!("fig8: {error}");
        std::process::exit(1);
    });

    // Pick the first test patient suffering from cardiovascular disease.
    let patient = world
        .split
        .test
        .iter()
        .copied()
        .find(|&p| world.cohort.diseases()[p].contains(&Disease::CardiovascularEvents))
        .unwrap_or(world.split.test[0]);
    println!(
        "Patient #{patient}: diseases = {:?}, actually taking: {}",
        world.cohort.diseases()[patient]
            .iter()
            .map(|d| d.name())
            .collect::<Vec<_>>(),
        format_drugs(&world.registry, &world.cohort.drugs_of(patient))
    );

    let ms = MsModuleConfig::default();
    let k = 3;

    // DSSDDI, through the typed decision service.
    let (_, service) = run_dssddi_variant(&world, &opts, Backbone::Sgcn).unwrap_or_else(|error| {
        eprintln!("fig8: {error}");
        std::process::exit(1);
    });
    let request = SuggestRequest::new(
        PatientId::new(patient),
        world.cohort.features().row(patient).to_vec(),
        k,
    );
    let response = service
        .suggest_with_kb(&request, None)
        .expect("DSSDDI suggestion");
    print_case(
        "DSSDDI",
        &world,
        &response.explanation.suggested,
        &response.explanation,
    );

    // Baselines (LightGCN, GCMC, SVM, ECC as in the figure).
    let baselines = run_chronic_baselines(&world, &opts).unwrap_or_else(|error| {
        eprintln!("fig8: {error}");
        std::process::exit(1);
    });
    let index = ExplanationIndex::build(&world.ddi);
    // The test feature matrix row index of this patient.
    let row = world
        .split
        .test
        .iter()
        .position(|&p| p == patient)
        .unwrap_or(0);
    for wanted in ["LightGCN", "GCMC", "SVM", "ECC"] {
        if let Some(method) = baselines.iter().find(|m| m.name == wanted) {
            let top = top_k_indices(method.scores.row(row), k);
            let explanation = index.explain(&world.ddi, &top, &ms).expect("explanation");
            print_case(wanted, &world, &top, &explanation);
        }
    }
    println!("\nPaper reference: DSSDDI suggests Simvastatin+Atorvastatin (synergistic) and");
    println!("avoids Gabapentin because of its antagonism with Isosorbide; the baselines'");
    println!("suggestions have no synergistic interactions (ECC even contains antagonism).");
}

fn print_case(
    name: &str,
    world: &ChronicWorld,
    suggested: &[usize],
    exp: &dssddi_core::Explanation,
) {
    println!("\n--- {name} ---");
    println!("Suggested: {}", format_drugs(&world.registry, suggested));
    println!(
        "Explanation subgraph: {} drugs, {} interactions (trussness {}), SS = {:.4}",
        exp.community.node_count(),
        exp.edges.len(),
        exp.community.trussness,
        exp.suggestion_satisfaction
    );
    let synergy = exp.synergy_pairs();
    if synergy.is_empty() {
        println!("  Synergism among suggested drugs: none");
    } else {
        for (u, v) in synergy {
            println!("  Synergism: {}", format_drugs(&world.registry, &[u, v]));
        }
    }
    let antagonism = exp.antagonism_pairs();
    if antagonism.is_empty() {
        println!("  Antagonism touching suggested drugs: none");
    } else {
        for (u, v) in antagonism {
            println!("  Antagonism: {}", format_drugs(&world.registry, &[u, v]));
        }
    }
}
