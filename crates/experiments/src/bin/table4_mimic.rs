//! Table IV — medication suggestion on the MIMIC-III-like data set:
//! Precision/Recall/NDCG at k = 4, 6, 8 for every baseline and DSSDDI(GIN)
//! (only the GIN backbone applies, because the public MIMIC DDI pairs are
//! antagonistic-only).

use dssddi_baselines::{
    BiparGcnRecommender, CauseRecRecommender, EccRecommender, GcmcRecommender, LightGcnRecommender,
    Recommender, SafeDrugRecommender, SvmRecommender, UserSim,
};
use dssddi_core::{config::DrugFeatureSource, Backbone, Dssddi};
use dssddi_experiments::{print_metric_table, MethodScores, RunOptions};
use dssddi_graph::BipartiteGraph;
use dssddi_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    if let Err(message) = run() {
        eprintln!("table4_mimic: {message}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let opts = RunOptions::from_args();
    let n_patients = if opts.full {
        6350
    } else {
        opts.n_patients.min(1500)
    };
    println!(
        "Table IV — MIMIC-III-like data set, {} patients ({} configuration)",
        n_patients,
        if opts.full { "paper" } else { "reduced" }
    );

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mimic = dssddi_data::generate_mimic_dataset(
        &dssddi_data::MimicConfig {
            n_patients,
            ..Default::default()
        },
        &mut rng,
    )
    .map_err(|e| format!("MIMIC-like generation: {e}"))?;
    let split = dssddi_data::split_patients(mimic.n_patients(), (5, 3, 2), &mut rng)
        .map_err(|e| format!("split: {e}"))?;

    let train_x = mimic.features().select_rows(&split.train);
    let train_y = mimic.labels().select_rows(&split.train);
    let test_x = mimic.features().select_rows(&split.test);
    let test_y = mimic.labels().select_rows(&split.test);
    let train_pairs: Vec<(usize, usize)> = (0..split.train.len())
        .flat_map(|row| {
            #[expect(
                clippy::indexing_slicing,
                reason = "`row` ranges over the training split"
            )]
            let patient = split.train[row];
            mimic
                .drugs_of(patient)
                .into_iter()
                .map(move |d| (row, d))
                .collect::<Vec<_>>()
        })
        .collect();
    let train_graph = BipartiteGraph::from_pairs(split.train.len(), mimic.n_drugs(), &train_pairs)
        .map_err(|e| format!("train graph: {e}"))?;

    let epochs = if opts.full { 300 } else { 100 };
    let graph_cfg = dssddi_baselines::graph_models::GraphBaselineConfig {
        hidden_dim: if opts.full { 64 } else { 32 },
        epochs,
        ..Default::default()
    };
    let neural_cfg = dssddi_baselines::neural::NeuralConfig {
        hidden_dim: if opts.full { 64 } else { 32 },
        epochs,
        ..Default::default()
    };

    let mut methods: Vec<MethodScores> = Vec::new();
    let usersim = UserSim::fit(&train_x, &train_y).map_err(|e| format!("UserSim fit: {e}"))?;
    methods.push(MethodScores {
        name: "UserSim".into(),
        scores: usersim
            .predict_scores(&test_x)
            .map_err(|e| format!("UserSim predict: {e}"))?,
    });
    let ecc = EccRecommender::fit(
        &train_x,
        &train_y,
        &dssddi_ml::EccConfig {
            n_chains: 2,
            ..Default::default()
        },
        &mut rng,
    )
    .map_err(|e| format!("ECC fit: {e}"))?;
    methods.push(MethodScores {
        name: "ECC".into(),
        scores: ecc
            .predict_scores(&test_x)
            .map_err(|e| format!("ECC predict: {e}"))?,
    });
    let svm = SvmRecommender::fit(
        &train_x,
        &train_y,
        &dssddi_ml::SvmConfig {
            epochs: 30,
            ..Default::default()
        },
    )
    .map_err(|e| format!("SVM fit: {e}"))?;
    methods.push(MethodScores {
        name: "SVM".into(),
        scores: svm
            .predict_scores(&test_x)
            .map_err(|e| format!("SVM predict: {e}"))?,
    });
    let gcmc = GcmcRecommender::fit(&train_x, &train_graph, &graph_cfg, &mut rng)
        .map_err(|e| format!("GCMC fit: {e}"))?;
    methods.push(MethodScores {
        name: "GCMC".into(),
        scores: gcmc
            .predict_scores(&test_x)
            .map_err(|e| format!("GCMC predict: {e}"))?,
    });
    let lightgcn = LightGcnRecommender::fit(&train_x, &train_graph, &graph_cfg, &mut rng)
        .map_err(|e| format!("LightGCN fit: {e}"))?;
    methods.push(MethodScores {
        name: "LightGCN".into(),
        scores: lightgcn
            .predict_scores(&test_x)
            .map_err(|e| format!("LightGCN predict: {e}"))?,
    });
    let safedrug =
        SafeDrugRecommender::fit(&train_x, &train_y, mimic.ddi(), 0.05, &neural_cfg, &mut rng)
            .map_err(|e| format!("SafeDrug fit: {e}"))?;
    methods.push(MethodScores {
        name: "SafeDrug".into(),
        scores: safedrug
            .predict_scores(&test_x)
            .map_err(|e| format!("SafeDrug predict: {e}"))?,
    });
    let bipar = BiparGcnRecommender::fit(&train_x, &train_graph, &graph_cfg, &mut rng)
        .map_err(|e| format!("Bipar-GCN fit: {e}"))?;
    methods.push(MethodScores {
        name: "Bipar-GCN".into(),
        scores: bipar
            .predict_scores(&test_x)
            .map_err(|e| format!("Bipar-GCN predict: {e}"))?,
    });
    let causerec = CauseRecRecommender::fit(&train_x, &train_y, 0.2, &neural_cfg, &mut rng)
        .map_err(|e| format!("CauseRec fit: {e}"))?;
    methods.push(MethodScores {
        name: "CauseRec".into(),
        scores: causerec
            .predict_scores(&test_x)
            .map_err(|e| format!("CauseRec predict: {e}"))?,
    });

    // DSSDDI(GIN): antagonism-only DDI graph, one-hot drug features.
    let mut config = opts.dssddi_config();
    config.ddi.backbone = Backbone::Gin;
    config.md.drug_features = DrugFeatureSource::OneHot;
    let placeholder_drug_features = Matrix::identity(mimic.n_drugs());
    let system = Dssddi::fit(
        &train_x,
        &train_graph,
        &placeholder_drug_features,
        mimic.ddi(),
        &config,
        &mut rng,
    )
    .map_err(|e| format!("DSSDDI(GIN) fit on MIMIC: {e}"))?;
    methods.push(MethodScores {
        name: "DSSDDI(GIN)".into(),
        scores: system
            .predict_scores(&test_x)
            .map_err(|e| format!("DSSDDI(GIN) predict: {e}"))?,
    });

    print_metric_table("Table IV (k = 4, 6, 8)", &methods, &test_y, &[4, 6, 8]);
    println!("\nPaper reference: all methods score much higher than on the chronic data");
    println!("(8-15 drugs per patient); DSSDDI(GIN) is best, LightGCN/SafeDrug follow.");
    Ok(())
}
