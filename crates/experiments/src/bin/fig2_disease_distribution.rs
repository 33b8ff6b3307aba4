//! Fig. 2 — the proportion of patients with various diseases.
//!
//! Regenerates the disease-prevalence pie chart of the paper as a text
//! table/bar chart over the synthetic cohort.

use dssddi_experiments::{ChronicWorld, RunOptions};

fn main() {
    let opts = RunOptions::from_args();
    let world = ChronicWorld::generate(&opts).unwrap_or_else(|error| {
        eprintln!("fig2: {error}");
        std::process::exit(1);
    });
    println!("Fig. 2 — proportion of patients with various diseases");
    println!(
        "(cohort of {} interview records, seed {})\n",
        opts.n_patients, opts.seed
    );
    let mut prevalence = world.cohort.disease_prevalence();
    prevalence.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "{:<28} {:>8}  {:<40} {:>8}",
        "Disease", "Measured", "", "Paper"
    );
    let paper: &[(&str, f64)] = &[
        ("Hypertension", 0.49),
        ("Cardiovascular Events", 0.22),
        ("Type 2 Diabetes Mellitus", 0.11),
        ("Gastric or Duodenal Ulcer", 0.06),
        ("Arthritis", 0.03),
        ("Prostatic Hyperplasia", 0.02),
        ("Diabetic Nephropathy", 0.02),
        ("Myocardial Infarction", 0.01),
        ("Asthma", 0.01),
        ("Other Diseases", 0.03),
    ];
    for (disease, measured) in prevalence {
        let bar = "#".repeat((measured * 80.0).round() as usize);
        let paper_value = paper
            .iter()
            .find(|(name, _)| *name == disease.name())
            .map(|(_, v)| format!("{:.2}", v))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<28} {:>7.1}%  {:<40} {:>8}",
            disease.name(),
            measured * 100.0,
            bar,
            paper_value
        );
    }
}
