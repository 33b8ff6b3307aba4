//! The end-to-end decision support system (Fig. 4 of the paper).
//!
//! [`Dssddi`] wires the three modules together: it trains DDIGCN on the DDI
//! graph, shares the learned drug relation embeddings with MDGCN, trains
//! MDGCN on the observed patients with counterfactual augmentation, and at
//! inference time predicts medication-use scores for new patients and
//! explains drug sets through the Medical Support module. DDIGCN is a
//! training step: MDGCN adds its embeddings into the drug representations,
//! and the fitted system keeps only the MD module. Ranked, explained
//! suggestions are served by [`crate::service::DecisionService`], which owns
//! the DDI graph, the configuration and the fitted engine.

// Like the service layer, the engine's serving path returns typed errors
// instead of panicking; see `service.rs` for the rationale. The panic-policy
// denies are inherited from `[workspace.lints]`.

use rand::Rng;

use dssddi_data::ChronicCohort;
use dssddi_graph::{BipartiteGraph, SignedGraph};
use dssddi_tensor::serde::{ByteReader, ByteWriter, SerdeError};
use dssddi_tensor::Matrix;

use crate::config::{DrugFeatureSource, DssddiConfig};
use crate::ddi_module::DdiModule;
use crate::md_module::MdModule;
use crate::persist::{self, section};
use crate::CoreError;

/// The fitted decision support system: its trained Medical Decision module.
/// DDIGCN is a training step whose embeddings the MD module absorbs at fit
/// time, so it is not kept. The DDI graph and the configuration the system
/// was fitted with belong to the [`crate::service::DecisionService`] that
/// holds it.
pub struct Dssddi {
    md_module: MdModule,
}

impl Dssddi {
    /// Fits the full system.
    ///
    /// * `train_features` — features of the observed (training) patients,
    /// * `train_graph` — their medication use,
    /// * `drug_features` — original drug features (typically KG pre-trained
    ///   embeddings); replaced by one-hot identities when the configuration
    ///   selects [`DrugFeatureSource::OneHot`],
    /// * `ddi_graph` — the signed drug-drug interaction graph.
    pub fn fit(
        train_features: &Matrix,
        train_graph: &BipartiteGraph,
        drug_features: &Matrix,
        ddi_graph: &SignedGraph,
        config: &DssddiConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, CoreError> {
        Self::fit_with_relation_embeddings(
            train_features,
            train_graph,
            drug_features,
            ddi_graph,
            None,
            config,
            rng,
        )
    }

    /// Like [`Dssddi::fit`], but allows overriding the drug relation
    /// embeddings added to the final drug representations — used by the
    /// Table II ablation (one-hot / KG / none instead of DDIGCN).
    pub fn fit_with_relation_embeddings(
        train_features: &Matrix,
        train_graph: &BipartiteGraph,
        drug_features: &Matrix,
        ddi_graph: &SignedGraph,
        relation_embeddings_override: Option<&Matrix>,
        config: &DssddiConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, CoreError> {
        let n_drugs = train_graph.right_count();
        if ddi_graph.node_count() != n_drugs {
            return Err(CoreError::invalid_input(
                "DDI graph and medication-use graph disagree on the number of drugs",
            ));
        }

        // Resolve the original drug features for the MD encoder.
        let resolved_drug_features = match config.md.drug_features {
            DrugFeatureSource::KnowledgeGraph => drug_features.clone(),
            DrugFeatureSource::OneHot => Matrix::identity(n_drugs),
        };

        // Train the DDI module unless the ablation removes it entirely. Its
        // embeddings are all the MD module takes from it, so it is dropped
        // here.
        let relation_embeddings = if !config.md.use_ddi_embeddings {
            None
        } else if let Some(embeddings) = relation_embeddings_override {
            Some(embeddings.clone())
        } else {
            let trained = DdiModule::train(ddi_graph, &config.ddi, rng)?;
            Some(trained.embeddings().clone())
        };

        let md_module = MdModule::fit(
            train_features,
            train_graph,
            &resolved_drug_features,
            ddi_graph,
            relation_embeddings.as_ref(),
            &config.md,
            rng,
        )?;

        Ok(Self { md_module })
    }

    /// Fits the system on a subset (the observed patients) of a generated
    /// chronic cohort; the implementation behind
    /// [`crate::service::ServiceBuilder::fit_chronic`].
    pub(crate) fn fit_chronic_inner(
        cohort: &ChronicCohort,
        observed_patients: &[usize],
        drug_features: &Matrix,
        ddi_graph: &SignedGraph,
        config: &DssddiConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, CoreError> {
        if let Some(&bad) = observed_patients
            .iter()
            .find(|&&p| p >= cohort.n_patients())
        {
            return Err(CoreError::invalid_input(format!(
                "observed patient index {bad} is out of range for a cohort of {} patients",
                cohort.n_patients()
            )));
        }
        let train_features = cohort.features().select_rows(observed_patients);
        let train_graph = cohort.bipartite_graph(observed_patients)?;
        Self::fit(
            &train_features,
            &train_graph,
            drug_features,
            ddi_graph,
            config,
            rng,
        )
    }

    /// Predicted medication-use scores for unobserved patients
    /// (one row per patient, one column per drug). Runs the tape-free
    /// inference fast path (see [`MdModule::predict_scores`]).
    pub fn predict_scores(&self, features: &Matrix) -> Result<Matrix, CoreError> {
        self.md_module.predict_scores(features)
    }

    /// Serializes the fitted system into a payload: the engine section tag
    /// followed by the MD module.
    pub(crate) fn write_into(&self, w: &mut ByteWriter) {
        persist::put_section(w, section::ENGINE);
        self.md_module.write_into(w);
    }

    /// Reconstructs a fitted system written by [`Dssddi::write_into`].
    pub(crate) fn read_from(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
        persist::expect_section(r, section::ENGINE, "engine")?;
        Ok(Self {
            md_module: MdModule::read_from(r)?,
        })
    }

    /// The trained Medical Decision module.
    pub fn md_module(&self) -> &MdModule {
        &self.md_module
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Backbone, DssddiConfig};
    use crate::service::{PatientId, ServiceBuilder, SuggestRequest};
    use dssddi_data::{
        generate_chronic_cohort, generate_ddi_graph, ChronicConfig, DdiConfig, DrugRegistry,
    };
    use dssddi_ml::{ndcg_at_k, recall_at_k};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_world(n_patients: usize, seed: u64) -> (ChronicCohort, SignedGraph, Matrix) {
        let registry = DrugRegistry::standard();
        let mut rng = StdRng::seed_from_u64(seed);
        let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
        let cohort = generate_chronic_cohort(
            &registry,
            &ddi,
            &ChronicConfig {
                n_patients,
                ..Default::default()
            },
            &mut rng,
        )
        .unwrap();
        let drug_features = Matrix::rand_uniform(registry.len(), 16, -0.1, 0.1, &mut rng);
        (cohort, ddi, drug_features)
    }

    /// One top-`k` request per cohort patient in `patients`.
    fn requests(cohort: &ChronicCohort, patients: &[usize], k: usize) -> Vec<SuggestRequest> {
        patients
            .iter()
            .map(|&p| SuggestRequest::new(PatientId::new(p), cohort.features().row(p).to_vec(), k))
            .collect()
    }

    fn tiny_config() -> DssddiConfig {
        let mut config = DssddiConfig::fast();
        config.ddi.epochs = 30;
        config.ddi.hidden_dim = 16;
        config.ddi.layers = 2;
        config.ddi.backbone = Backbone::Sgcn;
        config.md.hidden_dim = 16;
        config.md.epochs = 40;
        config
    }

    #[test]
    fn end_to_end_fit_suggest_and_explain() {
        let (cohort, ddi, drug_features) = small_world(80, 0);
        let observed: Vec<usize> = (0..60).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let service = ServiceBuilder::new()
            .config(tiny_config())
            .fit_chronic(&cohort, &observed, &drug_features, &ddi, &mut rng)
            .unwrap();

        let test_patients: Vec<usize> = (60..80).collect();
        let suggestions = service
            .suggest_batch_with_kb(&requests(&cohort, &test_patients, 3), None)
            .unwrap();
        assert_eq!(suggestions.len(), 20);
        for s in &suggestions {
            assert_eq!(s.drugs.len(), 3);
            // Scores are probabilities in descending order.
            assert!(s.drugs[0].score >= s.drugs[1].score);
            assert!(s.drugs.iter().all(|d| (0.0..=1.0).contains(&d.score)));
            assert!(s.explanation.suggestion_satisfaction >= 0.0);
            for d in &s.drugs {
                assert!(s.explanation.community.contains(d.id.index()));
            }
        }
    }

    #[test]
    fn dssddi_beats_random_scores_on_held_out_patients() {
        let (cohort, ddi, drug_features) = small_world(120, 2);
        let observed: Vec<usize> = (0..90).collect();
        let held_out: Vec<usize> = (90..120).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let system = ServiceBuilder::new()
            .config(tiny_config())
            .fit_chronic(&cohort, &observed, &drug_features, &ddi, &mut rng)
            .unwrap();
        let test_features = cohort.features().select_rows(&held_out);
        let test_labels = cohort.labels().select_rows(&held_out);
        let scores = system.predict_scores(&test_features).unwrap();
        let random =
            Matrix::rand_uniform(test_labels.rows(), test_labels.cols(), 0.0, 1.0, &mut rng);
        let ours = recall_at_k(&scores, &test_labels, 6).unwrap();
        let baseline = recall_at_k(&random, &test_labels, 6).unwrap();
        assert!(
            ours > baseline,
            "DSSDDI recall@6 {ours:.3} should beat random {baseline:.3}"
        );
        let ndcg = ndcg_at_k(&scores, &test_labels, 6).unwrap();
        assert!(ndcg > 0.05);
    }

    #[test]
    fn mismatched_drug_counts_are_rejected() {
        let (cohort, _, drug_features) = small_world(40, 4);
        let wrong_ddi = SignedGraph::new(10);
        let observed: Vec<usize> = (0..30).collect();
        let mut rng = StdRng::seed_from_u64(5);
        // A registry sized to the DDI graph gets past the builder, so the
        // engine's own drug-count check is the one that rejects the fit.
        let registry = DrugRegistry::from_names((0..10).map(|d| format!("drug {d}"))).unwrap();
        assert!(ServiceBuilder::new()
            .config(tiny_config())
            .registry(registry)
            .fit_chronic(&cohort, &observed, &drug_features, &wrong_ddi, &mut rng)
            .is_err());
    }

    #[test]
    fn ablation_without_ddi_embeddings_still_works() {
        let (cohort, ddi, drug_features) = small_world(60, 6);
        let observed: Vec<usize> = (0..45).collect();
        let mut config = tiny_config();
        config.md.use_ddi_embeddings = false;
        let mut rng = StdRng::seed_from_u64(7);
        let service = ServiceBuilder::new()
            .config(config)
            .fit_chronic(&cohort, &observed, &drug_features, &ddi, &mut rng)
            .unwrap();
        let suggestions = service
            .suggest_batch_with_kb(&requests(&cohort, &[50, 51], 2), None)
            .unwrap();
        assert_eq!(suggestions.len(), 2);
    }

    #[test]
    fn relation_embedding_override_is_used() {
        let (cohort, ddi, drug_features) = small_world(60, 8);
        let observed: Vec<usize> = (0..45).collect();
        let config = tiny_config();
        let mut rng = StdRng::seed_from_u64(9);
        let train_features = cohort.features().select_rows(&observed);
        let train_graph = cohort.bipartite_graph(&observed).unwrap();
        let override_embeddings =
            Matrix::rand_uniform(ddi.node_count(), config.md.hidden_dim, -0.1, 0.1, &mut rng);
        let seeded_fit = |config: &DssddiConfig, embeddings| {
            let mut rng = StdRng::seed_from_u64(10);
            Dssddi::fit_with_relation_embeddings(
                &train_features,
                &train_graph,
                &drug_features,
                &ddi,
                embeddings,
                config,
                &mut rng,
            )
            .unwrap()
        };
        let system = seeded_fit(&config, Some(&override_embeddings));
        // The override reaches the drug representations: the same seeded fit
        // without relation embeddings differs.
        let mut plain_config = config.clone();
        plain_config.md.use_ddi_embeddings = false;
        let plain = seeded_fit(&plain_config, None);
        assert_ne!(
            system.md_module().drug_representations().data(),
            plain.md_module().drug_representations().data()
        );
    }

    #[test]
    fn a_fitted_engine_holds_no_ddi_embeddings() {
        let (cohort, ddi, drug_features) = small_world(60, 12);
        let observed: Vec<usize> = (0..45).collect();
        let config = tiny_config();
        let train_features = cohort.features().select_rows(&observed);
        let train_graph = cohort.bipartite_graph(&observed).unwrap();
        let seed = 13;

        // `fit` trains DDIGCN first on its RNG, so training it here and then
        // passing its embeddings on the same, advanced RNG reproduces `fit`.
        let mut rng = StdRng::seed_from_u64(seed);
        let ddi_module = DdiModule::train(&ddi, &config.ddi, &mut rng).unwrap();
        let embeddings = ddi_module.embeddings();
        let reproduced = Dssddi::fit_with_relation_embeddings(
            &train_features,
            &train_graph,
            &drug_features,
            &ddi,
            Some(embeddings),
            &config,
            &mut rng,
        )
        .unwrap();
        let fitted = Dssddi::fit(
            &train_features,
            &train_graph,
            &drug_features,
            &ddi,
            &config,
            &mut StdRng::seed_from_u64(seed),
        )
        .unwrap();
        let bits = |system: &Dssddi| -> Vec<u32> {
            let repr = system.md_module().drug_representations();
            repr.data().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&reproduced), bits(&fitted));

        // The drug representations are all the fit keeps of DDIGCN: the
        // engine's bytes do not hold its embeddings.
        let mut w = ByteWriter::new();
        fitted.write_into(&mut w);
        let needle: Vec<u8> = embeddings
            .data()
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let copies = w
            .as_bytes()
            .windows(needle.len())
            .filter(|window| *window == needle.as_slice())
            .count();
        assert_eq!(copies, 0, "the fitted engine stores the DDI embeddings");
    }

    #[test]
    fn zero_k_suggestion_is_rejected() {
        let (cohort, ddi, drug_features) = small_world(50, 10);
        let observed: Vec<usize> = (0..40).collect();
        let mut rng = StdRng::seed_from_u64(11);
        let system = ServiceBuilder::new()
            .config(tiny_config())
            .fit_chronic(&cohort, &observed, &drug_features, &ddi, &mut rng)
            .unwrap();
        assert!(system
            .suggest_batch_with_kb(&requests(&cohort, &[45], 0), None)
            .is_err());
    }
}
