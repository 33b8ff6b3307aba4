//! Shared harness for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation section has a dedicated
//! binary under `src/bin/`; this library provides the common machinery:
//! world generation (registry, DDI graph, cohort, KG drug features, 5:3:2
//! split), method training, metric tables and Suggestion Satisfaction
//! scoring. All binaries accept:
//!
//! * `--patients <N>` — cohort size (default 1200; the paper uses 4157),
//! * `--seed <S>` — random seed (default 7),
//! * `--full` — paper-scale configuration (4157 patients unless `--patients`
//!   says otherwise, 400/1000 epochs, hidden size 64); without it a reduced
//!   configuration is used so every experiment finishes in minutes on a
//!   laptop.
//!
//! Any other argument, a missing value or one that does not parse stops the
//! binary with exit code 2.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use dssddi_baselines::{
    BiparGcnRecommender, CauseRecRecommender, EccRecommender, GcmcRecommender, LightGcnRecommender,
    Recommender, SafeDrugRecommender, SvmRecommender, UserSim,
};
use dssddi_core::{
    fit_dssddi, Backbone, DecisionService, DssddiConfig, ExplanationIndex, MsModuleConfig,
    ServiceBuilder,
};
use dssddi_data::{
    generate_chronic_cohort, generate_ddi_graph, pretrained_drug_embeddings, split_patients,
    ChronicCohort, ChronicConfig, DdiConfig, DrkgConfig, DrugRegistry, Split,
};
use dssddi_graph::{BipartiteGraph, SignedGraph};
use dssddi_ml::{ndcg_at_k, precision_at_k, recall_at_k, top_k_indices};
use dssddi_tensor::Matrix;

/// A failed experiment-harness stage: which stage, and the underlying
/// error's message. Experiment binaries print it and exit non-zero instead
/// of panicking mid-table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentError {
    /// The stage that failed (e.g. `"DDI generation"`, `"GCMC training"`).
    pub stage: &'static str,
    /// The underlying error, rendered.
    pub message: String,
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} failed: {}", self.stage, self.message)
    }
}

impl std::error::Error for ExperimentError {}

/// Maps an underlying error into an [`ExperimentError`] naming its stage.
fn stage<E: std::fmt::Display>(stage: &'static str) -> impl FnOnce(E) -> ExperimentError {
    move |error| ExperimentError {
        stage,
        message: error.to_string(),
    }
}

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Number of cohort patients to generate.
    pub n_patients: usize,
    /// Base random seed.
    pub seed: u64,
    /// Paper-scale configuration (slow) instead of the reduced one.
    pub full: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            n_patients: 1200,
            seed: 7,
            full: false,
        }
    }
}

/// What an experiment binary prints after a bad argument.
const USAGE: &str = "options: --patients N (default 1200) --seed S (default 7) \
                     --full (paper scale: 4157 patients unless --patients says otherwise)";

impl RunOptions {
    /// Parses `--patients`, `--seed` and `--full` from the process
    /// arguments. On a bad argument it prints the error and the usage to
    /// stderr and exits with code 2, so no experiment runs at a scale it was
    /// not asked for.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|error| {
            eprintln!("{error}\n{USAGE}");
            std::process::exit(2);
        })
    }

    /// Parses the arguments after the program name. An unknown flag, a
    /// missing value or one that does not parse is an error naming it.
    /// `--full` selects the paper's 4157 patients unless `--patients` names
    /// a size, in either order.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut patients = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--patients" => patients = Some(flag_value(&flag, args.next())?),
                "--seed" => opts.seed = flag_value(&flag, args.next())?,
                "--full" => opts.full = true,
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        opts.n_patients = patients.unwrap_or(if opts.full { 4157 } else { opts.n_patients });
        Ok(opts)
    }

    /// The DSSDDI configuration matching the requested scale.
    pub fn dssddi_config(&self) -> DssddiConfig {
        if self.full {
            DssddiConfig::paper()
        } else {
            let mut config = DssddiConfig::default();
            config.ddi.hidden_dim = 32;
            config.ddi.epochs = 200;
            config.md.hidden_dim = 32;
            config.md.epochs = 400;
            config
        }
    }
}

/// Parses the value that follows `flag` on the command line.
fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

/// The generated chronic-disease evaluation world.
pub struct ChronicWorld {
    /// The 86-drug formulary.
    pub registry: DrugRegistry,
    /// The signed DDI graph (97 synergistic + 243 antagonistic pairs).
    pub ddi: SignedGraph,
    /// The synthetic cohort.
    pub cohort: ChronicCohort,
    /// Pre-trained (TransE) drug features used as original drug features.
    pub drug_features: Matrix,
    /// The 5:3:2 patient split.
    pub split: Split,
}

impl ChronicWorld {
    /// Generates the chronic-disease world for the given options.
    pub fn generate(opts: &RunOptions) -> Result<Self, ExperimentError> {
        let registry = DrugRegistry::standard();
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng)
            .map_err(stage("DDI generation"))?;
        let cohort = generate_chronic_cohort(
            &registry,
            &ddi,
            &ChronicConfig {
                n_patients: opts.n_patients,
                ..Default::default()
            },
            &mut rng,
        )
        .map_err(stage("cohort generation"))?;
        let kg_dim = if opts.full { 64 } else { 32 };
        let drug_features = pretrained_drug_embeddings(
            &registry,
            &DrkgConfig {
                dim: kg_dim,
                epochs: if opts.full { 60 } else { 25 },
                ..Default::default()
            },
            &mut rng,
        )
        .map_err(stage("TransE pre-training"))?;
        let split = split_patients(cohort.n_patients(), (5, 3, 2), &mut rng)
            .map_err(stage("patient split"))?;
        Ok(Self {
            registry,
            ddi,
            cohort,
            drug_features,
            split,
        })
    }

    /// Features of the observed (training) patients.
    pub fn train_features(&self) -> Matrix {
        self.cohort.features().select_rows(&self.split.train)
    }

    /// Labels of the observed (training) patients.
    pub fn train_labels(&self) -> Matrix {
        self.cohort.labels().select_rows(&self.split.train)
    }

    /// The training medication-use bipartite graph.
    pub fn train_graph(&self) -> Result<BipartiteGraph, ExperimentError> {
        self.cohort
            .bipartite_graph(&self.split.train)
            .map_err(stage("training graph construction"))
    }

    /// Features of the held-out test patients.
    pub fn test_features(&self) -> Matrix {
        self.cohort.features().select_rows(&self.split.test)
    }

    /// Labels of the held-out test patients.
    pub fn test_labels(&self) -> Matrix {
        self.cohort.labels().select_rows(&self.split.test)
    }
}

/// A named score matrix produced by one method on the test patients.
pub struct MethodScores {
    /// Method name (row label of the tables).
    pub name: String,
    /// Score matrix (test patients × drugs).
    pub scores: Matrix,
}

/// Trains and evaluates every baseline of Table I on the chronic world.
pub fn run_chronic_baselines(
    world: &ChronicWorld,
    opts: &RunOptions,
) -> Result<Vec<MethodScores>, ExperimentError> {
    let train_x = world.train_features();
    let train_y = world.train_labels();
    let train_graph = world.train_graph()?;
    let test_x = world.test_features();
    let epochs = if opts.full { 300 } else { 120 };
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
    let mut out = Vec::new();
    let mut rng = StdRng::seed_from_u64(opts.seed + 1);

    let usersim = UserSim::fit(&train_x, &train_y).map_err(stage("UserSim training"))?;
    out.push(MethodScores {
        name: "UserSim".into(),
        scores: usersim
            .predict_scores(&test_x)
            .map_err(stage("UserSim scoring"))?,
    });

    let ecc = EccRecommender::fit(
        &train_x,
        &train_y,
        &dssddi_ml::EccConfig::default(),
        &mut rng,
    )
    .map_err(stage("ECC training"))?;
    out.push(MethodScores {
        name: "ECC".into(),
        scores: ecc.predict_scores(&test_x).map_err(stage("ECC scoring"))?,
    });

    let svm = SvmRecommender::fit(
        &train_x,
        &train_y,
        &dssddi_ml::SvmConfig {
            epochs: 40,
            ..Default::default()
        },
    )
    .map_err(stage("SVM training"))?;
    out.push(MethodScores {
        name: "SVM".into(),
        scores: svm.predict_scores(&test_x).map_err(stage("SVM scoring"))?,
    });

    let gcmc = GcmcRecommender::fit(&train_x, &train_graph, &graph_cfg, &mut rng)
        .map_err(stage("GCMC training"))?;
    out.push(MethodScores {
        name: "GCMC".into(),
        scores: gcmc
            .predict_scores(&test_x)
            .map_err(stage("GCMC scoring"))?,
    });

    let lightgcn = LightGcnRecommender::fit(&train_x, &train_graph, &graph_cfg, &mut rng)
        .map_err(stage("LightGCN training"))?;
    out.push(MethodScores {
        name: "LightGCN".into(),
        scores: lightgcn
            .predict_scores(&test_x)
            .map_err(stage("LightGCN scoring"))?,
    });

    let safedrug =
        SafeDrugRecommender::fit(&train_x, &train_y, &world.ddi, 0.05, &neural_cfg, &mut rng)
            .map_err(stage("SafeDrug training"))?;
    out.push(MethodScores {
        name: "SafeDrug".into(),
        scores: safedrug
            .predict_scores(&test_x)
            .map_err(stage("SafeDrug scoring"))?,
    });

    let bipar = BiparGcnRecommender::fit(&train_x, &train_graph, &graph_cfg, &mut rng)
        .map_err(stage("Bipar-GCN training"))?;
    out.push(MethodScores {
        name: "Bipar-GCN".into(),
        scores: bipar
            .predict_scores(&test_x)
            .map_err(stage("Bipar-GCN scoring"))?,
    });

    let causerec = CauseRecRecommender::fit(&train_x, &train_y, 0.2, &neural_cfg, &mut rng)
        .map_err(stage("CauseRec training"))?;
    out.push(MethodScores {
        name: "CauseRec".into(),
        scores: causerec
            .predict_scores(&test_x)
            .map_err(stage("CauseRec scoring"))?,
    });

    Ok(out)
}

/// Trains a DSSDDI variant with the given backbone and returns its scores on
/// the test patients, together with the fitted decision service.
pub fn run_dssddi_variant(
    world: &ChronicWorld,
    opts: &RunOptions,
    backbone: Backbone,
) -> Result<(MethodScores, DecisionService), ExperimentError> {
    let mut rng = StdRng::seed_from_u64(opts.seed + 2);
    let service = ServiceBuilder::new()
        .config(opts.dssddi_config())
        .backbone(backbone)
        .fit_chronic(
            &world.cohort,
            &world.split.train,
            &world.drug_features,
            &world.ddi,
            &mut rng,
        )
        .map_err(stage("DSSDDI training"))?;
    let scores = service
        .predict_scores(&world.test_features())
        .map_err(stage("DSSDDI scoring"))?;
    Ok((
        MethodScores {
            name: format!("DSSDDI({})", backbone.name()),
            scores,
        },
        service,
    ))
}

/// Trains the Table II ablation variants (w/o DDI, one-hot, KG, DDIGCN) and
/// returns their scores on the test patients.
pub fn run_ablation_variants(
    world: &ChronicWorld,
    opts: &RunOptions,
) -> Result<Vec<MethodScores>, ExperimentError> {
    let mut out = Vec::new();
    let hidden = opts.dssddi_config().md.hidden_dim;
    let n_drugs = world.registry.len();

    // w/o DDI: no relation embeddings at all.
    let mut config = opts.dssddi_config();
    config.md.use_ddi_embeddings = false;
    let mut rng = StdRng::seed_from_u64(opts.seed + 3);
    let service = ServiceBuilder::new()
        .config(config)
        .fit_chronic(
            &world.cohort,
            &world.split.train,
            &world.drug_features,
            &world.ddi,
            &mut rng,
        )
        .map_err(stage("w/o DDI variant training"))?;
    out.push(MethodScores {
        name: "w/o DDI".into(),
        scores: service
            .predict_scores(&world.test_features())
            .map_err(stage("w/o DDI variant scoring"))?,
    });

    // One-hot relation embeddings (identity truncated/padded to hidden dim).
    let one_hot = Matrix::from_fn(
        n_drugs,
        hidden,
        |r, c| if r % hidden == c { 1.0 } else { 0.0 },
    );
    out.push(run_override_variant(world, opts, "One-hot", &one_hot)?);

    // KG pre-trained relation embeddings (TransE, padded to hidden dim).
    let kg = pad_to_width(&world.drug_features, hidden);
    out.push(run_override_variant(world, opts, "KG", &kg)?);

    // Full DDIGCN (SGCN backbone, the best of Table I).
    let (ddigcn, _) = run_dssddi_variant(world, opts, Backbone::Sgcn)?;
    out.push(MethodScores {
        name: "DDIGCN".into(),
        scores: ddigcn.scores,
    });

    Ok(out)
}

fn run_override_variant(
    world: &ChronicWorld,
    opts: &RunOptions,
    name: &str,
    embeddings: &Matrix,
) -> Result<MethodScores, ExperimentError> {
    let config = opts.dssddi_config();
    let mut rng = StdRng::seed_from_u64(opts.seed + 4);
    let train_features = world.train_features();
    let train_graph = world.train_graph()?;
    let system = fit_dssddi(
        &train_features,
        &train_graph,
        &world.drug_features,
        &world.ddi,
        Some(embeddings),
        &config,
        &mut rng,
    )
    .map_err(stage("ablation variant training"))?;
    Ok(MethodScores {
        name: name.into(),
        scores: system
            .predict_scores(&world.test_features())
            .map_err(stage("ablation variant scoring"))?,
    })
}

/// Pads (with zeros) or truncates a matrix to the requested number of columns.
pub fn pad_to_width(m: &Matrix, width: usize) -> Matrix {
    Matrix::from_fn(m.rows(), width, |r, c| {
        if c < m.cols() {
            m.get(r, c)
        } else {
            0.0
        }
    })
}

/// Prints a Table I/II/IV-style block: Precision@k, Recall@k and NDCG@k for
/// every method at every cutoff in `ks`.
pub fn print_metric_table(title: &str, methods: &[MethodScores], labels: &Matrix, ks: &[usize]) {
    println!("\n=== {title} ===");
    let mut header = format!("{:<16}", "Method");
    for &k in ks {
        header.push_str(&format!("  P@{k:<5} R@{k:<5} N@{k:<5}"));
    }
    println!("{header}");
    for method in methods {
        let mut row = format!("{:<16}", method.name);
        for &k in ks {
            let p = precision_at_k(&method.scores, labels, k).unwrap_or(0.0);
            let r = recall_at_k(&method.scores, labels, k).unwrap_or(0.0);
            let n = ndcg_at_k(&method.scores, labels, k).unwrap_or(0.0);
            row.push_str(&format!("  {p:.4} {r:.4} {n:.4}"));
        }
        println!("{row}");
    }
}

/// Mean Suggestion Satisfaction at `k` over the test patients for one score
/// matrix (the quantity reported in Table III).
pub fn mean_ss_at_k(scores: &Matrix, ddi: &SignedGraph, k: usize, alpha: f64) -> f64 {
    let ms = MsModuleConfig {
        alpha,
        ..Default::default()
    };
    let index = ExplanationIndex::build(ddi);
    let mut total = 0.0f64;
    let mut count = 0usize;
    for p in 0..scores.rows() {
        let top = top_k_indices(scores.row(p), k);
        if let Ok(explanation) = index.explain(ddi, &top, &ms) {
            total += explanation.suggestion_satisfaction;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Prints a Table III-style Suggestion Satisfaction block.
pub fn print_ss_table(title: &str, methods: &[MethodScores], ddi: &SignedGraph, ks: &[usize]) {
    println!("\n=== {title} ===");
    let mut header = format!("{:<16}", "Method");
    for &k in ks {
        header.push_str(&format!("  SS@{k:<6}"));
    }
    println!("{header}");
    for method in methods {
        let mut row = format!("{:<16}", method.name);
        for &k in ks {
            row.push_str(&format!(
                "  {:.4}  ",
                mean_ss_at_k(&method.scores, ddi, k, 0.5)
            ));
        }
        println!("{row}");
    }
}

/// Formats a drug list with names for the case-study figures.
pub fn format_drugs(registry: &DrugRegistry, drugs: &[usize]) -> String {
    drugs
        .iter()
        .map(|&d| {
            registry
                .drug(d)
                .map(|drug| format!("{} (DID {d})", drug.name))
                .unwrap_or_else(|| format!("DID {d}"))
        })
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> RunOptions {
        RunOptions {
            n_patients: 60,
            seed: 3,
            full: false,
        }
    }

    fn parse(args: &[&str]) -> Result<RunOptions, String> {
        RunOptions::parse(args.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn bad_arguments_are_errors_that_name_them() {
        for (args, named) in [
            (&["--patients", "abc"][..], "\"abc\""),
            (&["--patient", "200"][..], "\"--patient\""),
            (&["--patients"][..], "--patients needs a value"),
            (&["--seed", "-1"][..], "--seed: cannot parse \"-1\""),
        ] {
            let error = parse(args).unwrap_err();
            assert!(error.contains(named), "{args:?}: {error}");
        }
    }

    #[test]
    fn patients_wins_over_full_in_either_order() {
        for args in [
            ["--full", "--patients", "200"],
            ["--patients", "200", "--full"],
        ] {
            let opts = parse(&args).unwrap();
            assert_eq!((opts.n_patients, opts.full), (200, true), "{args:?}");
            let paper = format!("{:?}", DssddiConfig::paper());
            assert_eq!(format!("{:?}", opts.dssddi_config()), paper);
        }
        let opts = parse(&["--full", "--seed", "3"]).unwrap();
        assert_eq!((opts.n_patients, opts.seed), (4157, 3));
        assert_eq!(parse(&[]).unwrap().n_patients, 1200);
    }

    #[test]
    fn world_generation_and_split_shapes() {
        let world = ChronicWorld::generate(&tiny_opts()).expect("world");
        assert_eq!(world.cohort.n_patients(), 60);
        assert_eq!(world.split.len(), 60);
        assert_eq!(world.train_features().rows(), world.split.train.len());
        assert_eq!(world.test_labels().rows(), world.split.test.len());
        assert_eq!(world.drug_features.rows(), 86);
    }

    #[test]
    fn pad_to_width_pads_and_truncates() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let wide = pad_to_width(&m, 4);
        assert_eq!(wide.shape(), (2, 4));
        assert_eq!(wide.get(0, 3), 0.0);
        let narrow = pad_to_width(&m, 1);
        assert_eq!(narrow.shape(), (2, 1));
        assert_eq!(narrow.get(1, 0), 3.0);
    }

    #[test]
    fn mean_ss_is_in_range() {
        let world = ChronicWorld::generate(&tiny_opts()).expect("world");
        let scores = Matrix::rand_uniform(5, 86, 0.0, 1.0, &mut StdRng::seed_from_u64(1));
        let ss = mean_ss_at_k(&scores, &world.ddi, 3, 0.5);
        assert!((0.0..=1.5).contains(&ss));
    }

    #[test]
    fn format_drugs_uses_registry_names() {
        let registry = DrugRegistry::standard();
        let s = format_drugs(&registry, &[46, 47]);
        assert!(s.contains("Simvastatin"));
        assert!(s.contains("Atorvastatin"));
    }
}
