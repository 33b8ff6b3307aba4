//! Fig. 9 — four case studies showing how the DDI module changes the ranking
//! produced by the Medical Decision module:
//!
//! 1. a synergistic partner (Perindopril next to Indapamide) is promoted,
//! 2. an antagonistic pair (Theophylline / Enalapril) is pushed apart,
//! 3. drugs with many shared antagonists (Amlodipine / Felodipine) obtain
//!    similar representations and are ranked together,
//! 4. a ground-truth antagonistic co-prescription (Metformin with Isosorbide)
//!    is deliberately demoted.

use dssddi_core::Backbone;
use dssddi_experiments::{format_drugs, run_dssddi_variant, ChronicWorld, RunOptions};
use dssddi_tensor::Matrix;

/// 1-based rank of a drug in a score row (1 = highest score).
fn rank_of(scores: &Matrix, row: usize, drug: usize) -> usize {
    let r = scores.row(row);
    #[expect(
        clippy::indexing_slicing,
        reason = "`drug` indexes the formulary, the row's width"
    )]
    let better = r.iter().filter(|&&s| s > r[drug]).count();
    better + 1
}

fn main() {
    let opts = RunOptions::from_args();
    println!(
        "Fig. 9 — effect of the DDI module on individual rankings ({} patients)\n",
        opts.n_patients
    );
    let world = ChronicWorld::generate(&opts).unwrap_or_else(|error| {
        eprintln!("fig9: {error}");
        std::process::exit(1);
    });

    // With DDI (full DSSDDI) and without DDI (ablated) score matrices.
    let (with_ddi, _) = run_dssddi_variant(&world, &opts, Backbone::Sgcn).unwrap_or_else(|error| {
        eprintln!("fig9: {error}");
        std::process::exit(1);
    });
    #[expect(
        clippy::expect_used,
        reason = "a research binary stops on a failed step"
    )]
    let without_ddi = {
        let mut config = opts.dssddi_config();
        config.md.use_ddi_embeddings = false;
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(opts.seed + 2);
        let service = dssddi_core::ServiceBuilder::new()
            .config(config)
            .fit_chronic(
                &world.cohort,
                &world.split.train,
                &world.drug_features,
                &world.ddi,
                &mut rng,
            )
            .expect("w/o DDI system");
        service
            .predict_scores(&world.test_features())
            .expect("scores")
    };
    let test_labels = world.test_labels();

    // Case 1: synergy promotion — a patient taking Indapamide (10) and
    // Perindopril (5), which interact synergistically.
    report_case(
        &world, &with_ddi.scores, &without_ddi, &test_labels,
        "Case 1 — drug-drug synergistic interaction",
        &[10, 5],
        5,
        "Perindopril (DID 5) should be ranked higher when DDI is used, because of its synergy with Indapamide (DID 10).",
    );

    // Case 2: antagonism demotion — Theophylline (83) vs Enalapril (3).
    report_case(
        &world, &with_ddi.scores, &without_ddi, &test_labels,
        "Case 2 — drug-drug antagonistic interaction",
        &[3],
        83,
        "Theophylline (DID 83) is antagonistic to Enalapril (DID 3) and should be demoted when DDI is used.",
    );

    // Case 3: indirect interaction — Amlodipine (8) and Felodipine (32)
    // share four antagonists and should be ranked similarly with DDI.
    report_case(
        &world, &with_ddi.scores, &without_ddi, &test_labels,
        "Case 3 — indirect drug-drug interaction",
        &[32],
        8,
        "Amlodipine (DID 8) shares its antagonists with Felodipine (DID 32); message passing should pull their ranks together.",
    );

    // Case 4: deviation from ground truth — Metformin (48) with Isosorbide
    // Dinitrate (58) is an antagonistic co-prescription the system demotes.
    report_case(
        &world, &with_ddi.scores, &without_ddi, &test_labels,
        "Case 4 — deviation from the ground truth",
        &[48, 58],
        48,
        "Metformin (DID 48) is taken together with Isosorbide Dinitrate (DID 58) in the ground truth, but the DDI-aware model demotes it because the pair is antagonistic.",
    );
}

/// Finds a test patient whose ground-truth medications include all of
/// `required`, then prints how the rank of `focus` changes with/without DDI.
fn report_case(
    world: &ChronicWorld,
    with_ddi: &Matrix,
    without_ddi: &Matrix,
    test_labels: &Matrix,
    title: &str,
    required: &[usize],
    focus: usize,
    narrative: &str,
) {
    println!("== {title} ==");
    println!("   {narrative}");
    let row =
        (0..test_labels.rows()).find(|&r| required.iter().all(|&d| test_labels.get(r, d) > 0.5));
    match row {
        None => {
            println!(
                "   (no test patient takes {} in this synthetic draw; rerun with --patients 4157 or another --seed)\n",
                format_drugs(&world.registry, required)
            );
        }
        Some(r) => {
            #[expect(clippy::indexing_slicing, reason = "`r` is a row of the test split")]
            let patient = world.split.test[r];
            println!(
                "   Patient #{patient} takes {}",
                format_drugs(&world.registry, &world.cohort.drugs_of(patient))
            );
            let rank_with = rank_of(with_ddi, r, focus);
            let rank_without = rank_of(without_ddi, r, focus);
            let direction = if rank_with < rank_without {
                "promoted"
            } else if rank_with > rank_without {
                "demoted"
            } else {
                "unchanged"
            };
            println!(
                "   Rank of {}: w/o DDI = {rank_without}, with DDI = {rank_with} ({direction})\n",
                format_drugs(&world.registry, &[focus])
            );
        }
    }
}
