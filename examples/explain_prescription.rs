//! Deep dive into the Medical Support module through the service API:
//! critique arbitrary prescriptions (including the paper's Fig. 8 / Fig. 9
//! drug sets) with closest-truss-community subgraphs and Suggestion
//! Satisfaction scores — no model training required, thanks to the
//! support-only service built by `ServiceBuilder::build_support`.
//!
//! Run with: `cargo run --release --example explain_prescription`

use dssddi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(3);
    let registry = DrugRegistry::standard();
    let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).expect("ddi");

    // A support-only service: prescription critique works without any
    // trained model.
    let service = ServiceBuilder::fast()
        .build_support(&ddi)
        .expect("support service");

    let cases: Vec<(&str, Vec<&str>)> = vec![
        (
            "Fig. 8 DSSDDI suggestion: Simvastatin + Atorvastatin + Isosorbide Mononitrate",
            vec!["Simvastatin", "Atorvastatin", "Isosorbide Mononitrate"],
        ),
        (
            "Fig. 8 counter-example: Gabapentin + Isosorbide Mononitrate (antagonistic)",
            vec!["Gabapentin", "Isosorbide Mononitrate"],
        ),
        (
            "Fig. 9 case 1: Indapamide + Perindopril (synergistic)",
            vec!["Indapamide", "Perindopril"],
        ),
        (
            "Fig. 9 case 4: Metformin + Isosorbide Dinitrate (antagonistic)",
            vec!["Metformin", "Isosorbide Dinitrate"],
        ),
        (
            "A hypertension triple therapy: Perindopril + Indapamide + Amlodipine",
            vec!["Perindopril", "Indapamide", "Amlodipine"],
        ),
    ];

    for (title, names) in cases {
        let drugs: Vec<DrugId> = names
            .iter()
            .map(|name| service.resolve_drug(name).expect("drug in the formulary"))
            .collect();
        let report = service
            .check_prescription_with_kb(&CheckPrescriptionRequest::new(drugs), None)
            .expect("prescription check");
        println!("== {title} ==");
        println!(
            "  drugs: {}",
            report
                .drugs
                .iter()
                .map(|d| format!("{} ({})", d.name, d.id))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let exp = &report.explanation;
        println!(
            "  community: {} drugs, {} edges, trussness {}, diameter {}",
            exp.community.node_count(),
            exp.edges.len(),
            exp.community.trussness,
            if exp.community.diameter == usize::MAX {
                "inf".to_string()
            } else {
                exp.community.diameter.to_string()
            }
        );
        println!(
            "  internal synergy {} | internal antagonism {} | external antagonism {}",
            exp.internal_synergy, exp.internal_antagonism, exp.external_antagonism
        );
        for pair in &report.antagonistic {
            println!(
                "  DANGER: {} <-> {} is antagonistic",
                pair.a_name, pair.b_name
            );
        }
        for pair in &report.synergistic {
            println!(
                "  good:   {} <-> {} is synergistic",
                pair.a_name, pair.b_name
            );
        }
        println!(
            "  Suggestion Satisfaction = {:.4}\n",
            report.suggestion_satisfaction
        );
    }

    // Show that SS prefers the synergistic statin pair over the antagonistic
    // nitrate/anticonvulsant pair, exactly the behaviour Table III relies on.
    let ss = |a: &str, b: &str| {
        service
            .check_prescription_with_kb(
                &CheckPrescriptionRequest::new(vec![
                    service.resolve_drug(a).unwrap(),
                    service.resolve_drug(b).unwrap(),
                ]),
                None,
            )
            .unwrap()
            .suggestion_satisfaction
    };
    let good = ss("Simvastatin", "Atorvastatin");
    let bad = ss("Gabapentin", "Isosorbide Mononitrate");
    println!(
        "SS(Simvastatin, Atorvastatin) = {good:.4} > SS(Gabapentin, Isosorbide) = {bad:.4}: {}",
        if good > bad {
            "as expected"
        } else {
            "UNEXPECTED"
        }
    );
}
