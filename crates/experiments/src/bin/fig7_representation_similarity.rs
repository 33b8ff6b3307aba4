//! Fig. 7 — cosine-similarity structure of the patient and drug
//! representations learned by DSSDDI vs. LightGCN.
//!
//! The paper samples 100 test patients and shows that LightGCN's patient
//! representations are nearly identical to one another (over-smoothing)
//! while DSSDDI's stay distinguishable, and that DSSDDI's drug
//! representations group drugs that treat the same disease while LightGCN's
//! are mutually dissimilar. This binary reports the same quantities as
//! summary statistics and coarse text heatmaps.

use dssddi_baselines::LightGcnRecommender;
use dssddi_core::Backbone;
use dssddi_experiments::{run_dssddi_variant, ChronicWorld, RunOptions};
use dssddi_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mean_offdiagonal_cosine(reprs: &Matrix) -> f64 {
    #[expect(
        clippy::expect_used,
        reason = "a research binary stops on a failed step"
    )]
    let sim = reprs.cosine_similarity_matrix(reprs).expect("similarity");
    let n = sim.rows();
    let mut total = 0.0f64;
    let mut count = 0usize;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                total += sim.get(i, j) as f64;
                count += 1;
            }
        }
    }
    total / count.max(1) as f64
}

fn coarse_heatmap(reprs: &Matrix, cells: usize) -> Vec<String> {
    #[expect(
        clippy::expect_used,
        reason = "a research binary stops on a failed step"
    )]
    let sim = reprs.cosine_similarity_matrix(reprs).expect("similarity");
    let n = sim.rows();
    let step = (n / cells).max(1);
    let mut rows = Vec::new();
    for bi in 0..cells.min(n) {
        let mut line = String::new();
        for bj in 0..cells.min(n) {
            let mut total = 0.0f32;
            let mut count = 0usize;
            for i in (bi * step)..((bi + 1) * step).min(n) {
                for j in (bj * step)..((bj + 1) * step).min(n) {
                    total += sim.get(i, j);
                    count += 1;
                }
            }
            let avg = total / count.max(1) as f32;
            let symbol = match avg {
                a if a > 0.8 => '█',
                a if a > 0.6 => '▓',
                a if a > 0.4 => '▒',
                a if a > 0.2 => '░',
                _ => ' ',
            };
            line.push(symbol);
        }
        rows.push(line);
    }
    rows
}

#[expect(
    clippy::expect_used,
    reason = "a research binary stops on a failed step"
)]
fn main() {
    let opts = RunOptions::from_args();
    println!(
        "Fig. 7 — representation similarity: DSSDDI vs LightGCN ({} patients)",
        opts.n_patients
    );
    let world = ChronicWorld::generate(&opts).unwrap_or_else(|error| {
        eprintln!("fig7: {error}");
        std::process::exit(1);
    });

    let (_, dssddi) = run_dssddi_variant(&world, &opts, Backbone::Sgcn).unwrap_or_else(|error| {
        eprintln!("fig7: {error}");
        std::process::exit(1);
    });
    let graph_cfg = dssddi_baselines::graph_models::GraphBaselineConfig {
        hidden_dim: if opts.full { 64 } else { 32 },
        epochs: if opts.full { 300 } else { 120 },
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(opts.seed + 11);
    let lightgcn = LightGcnRecommender::fit(
        &world.train_features(),
        &world.train_graph().unwrap_or_else(|error| {
            eprintln!("fig7: {error}");
            std::process::exit(1);
        }),
        &graph_cfg,
        &mut rng,
    )
    .expect("LightGCN");

    // 100 sampled test patients (or all of them if fewer).
    let sample: Vec<usize> = world.split.test.iter().copied().take(100).collect();
    let sample_features = world.cohort.features().select_rows(&sample);

    let md_module = dssddi.md_module().expect("fitted service");
    let dssddi_patients = md_module
        .patient_representations(&sample_features)
        .expect("DSSDDI patient representations");
    let lightgcn_patients = lightgcn
        .patient_representations(&sample_features)
        .expect("LightGCN patient representations");

    println!("\n(a) Patient representations — mean pairwise cosine similarity");
    println!(
        "    DSSDDI   : {:.3}  (paper: low, patients stay distinguishable)",
        mean_offdiagonal_cosine(&dssddi_patients)
    );
    println!(
        "    LightGCN : {:.3}  (paper: close to 1.0, over-smoothed)",
        mean_offdiagonal_cosine(&lightgcn_patients)
    );
    println!("\n    DSSDDI patient similarity (10x10 block heatmap)");
    for row in coarse_heatmap(&dssddi_patients, 10) {
        println!("      {row}");
    }
    println!("    LightGCN patient similarity (10x10 block heatmap)");
    for row in coarse_heatmap(&lightgcn_patients, 10) {
        println!("      {row}");
    }

    let dssddi_drugs = md_module.drug_representations();
    let lightgcn_drugs = lightgcn.drug_representations();
    println!("\n(b) Drug representations (86 drugs) — mean pairwise cosine similarity");
    println!(
        "    DSSDDI   : {:.3}  (paper: block structure by treated disease)",
        mean_offdiagonal_cosine(dssddi_drugs)
    );
    println!(
        "    LightGCN : {:.3}  (paper: uniformly low similarity)",
        mean_offdiagonal_cosine(lightgcn_drugs)
    );

    // Within-class vs cross-class similarity for DSSDDI's drug embeddings.
    let statins = [46usize, 47, 49, 50, 51];
    let mut within = 0.0f64;
    let mut wcount = 0usize;
    for (a, &u) in statins.iter().enumerate() {
        for &v in statins.iter().skip(a + 1) {
            within += dssddi_drugs.row_cosine(u, dssddi_drugs, v) as f64;
            wcount += 1;
        }
    }
    let cross_pairs = [(46usize, 61usize), (47, 83), (49, 40), (50, 72)];
    let mut cross = 0.0f64;
    for &(u, v) in &cross_pairs {
        cross += dssddi_drugs.row_cosine(u, dssddi_drugs, v) as f64;
    }
    println!(
        "    DSSDDI statin-statin similarity {:.3} vs statin-unrelated {:.3}",
        within / wcount as f64,
        cross / cross_pairs.len() as f64
    );
}
