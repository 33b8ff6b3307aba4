//! The clinical decision service: a typed request/response API over the
//! DSSDDI system.
//!
//! The research-style [`Dssddi`] facade works in raw `usize` drug indices and
//! positional [`Matrix`] arguments. Deployed prescription-critiquing systems
//! are organised differently: a doctor-facing service accepts *typed clinical
//! requests* and returns *structured, explanation-carrying responses*. This
//! module provides that layer:
//!
//! * [`DrugId`] / [`PatientId`] — typed identifiers with registry-backed name
//!   resolution instead of bare indices,
//! * [`ServiceBuilder`] — validates and assembles a [`DssddiConfig`] before
//!   any training starts, returning contextual errors,
//! * [`SuggestRequest`] → [`SuggestResponse`] — top-k medication suggestion
//!   for one patient, with per-request filters and named, scored drugs,
//! * [`CheckPrescriptionRequest`] → [`InteractionReport`] — critique of an
//!   existing drug set against the signed DDI graph, no model required.
//!
//! A service answers through three entry points, each taking the clinical
//! [`KnowledgeBase`] that grades its findings (`None` grades by the DDI
//! graph's signs alone): [`DecisionService::suggest_with_kb`] for one patient,
//! [`DecisionService::suggest_batch_with_kb`] for many patients in one
//! score-prediction pass with memoized explanations, and
//! [`DecisionService::check_prescription_with_kb`] for a critique.
//!
//! ```no_run
//! use dssddi_core::{ServiceBuilder, SuggestRequest, PatientId};
//! # use dssddi_data::{generate_chronic_cohort, generate_ddi_graph,
//! #     pretrained_drug_embeddings, split_patients, ChronicConfig, DdiConfig,
//! #     DrkgConfig, DrugRegistry};
//! # use rand::SeedableRng;
//! # let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! # let registry = DrugRegistry::standard();
//! # let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
//! # let cohort = generate_chronic_cohort(&registry, &ddi, &ChronicConfig::default(), &mut rng).unwrap();
//! # let features = pretrained_drug_embeddings(&registry, &DrkgConfig::default(), &mut rng).unwrap();
//! # let split = split_patients(cohort.n_patients(), (5, 3, 2), &mut rng).unwrap();
//! let service = ServiceBuilder::fast()
//!     .fit_chronic(&cohort, &split.train, &features, &ddi, &mut rng)
//!     .unwrap();
//! let request = SuggestRequest::new(
//!     PatientId::new(0),
//!     cohort.features().row(split.test[0]).to_vec(),
//!     3,
//! );
//! let response = service.suggest_with_kb(&request, None).unwrap();
//! for drug in &response.drugs {
//!     println!("{} ({}): {:.3}", drug.name, drug.id, drug.score);
//! }
//! ```

// The serving path must degrade into typed errors, never panics: a malformed
// request or file is routine input for a long-lived service. The
// `unwrap_used`/`expect_used` denies live in `[workspace.lints]` (every
// serving-path crate inherits them); vetted invariants may be locally
// allowed with a justification.

use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rand::Rng;

use dssddi_data::{ChronicCohort, DrugRegistry};
use dssddi_graph::{BipartiteGraph, Interaction, SignedGraph};
use dssddi_kb::{AlertPolicy, KnowledgeBase, Severity};
use dssddi_ml::top_k_indices;
use dssddi_tensor::serde::{self as tserde, ByteReader, ByteWriter};
use dssddi_tensor::Matrix;

use crate::config::{Backbone, DssddiConfig};
use crate::ms_module::{Explanation, ExplanationEngine};
use crate::persist::{self, section};
use crate::system::Dssddi;
use crate::CoreError;

/// A typed drug identifier (the paper's DID): an index into the service's
/// [`DrugRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DrugId(usize);

impl DrugId {
    /// Wraps a raw DID.
    pub fn new(id: usize) -> Self {
        DrugId(id)
    }

    /// The raw index into the formulary.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for DrugId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DID {}", self.0)
    }
}

impl From<usize> for DrugId {
    fn from(id: usize) -> Self {
        DrugId(id)
    }
}

/// A typed patient identifier, echoed back in responses so batched callers
/// can correlate requests with results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatientId(usize);

impl PatientId {
    /// Wraps a raw patient identifier.
    pub fn new(id: usize) -> Self {
        PatientId(id)
    }

    /// The raw identifier.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for PatientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "patient #{}", self.0)
    }
}

impl From<usize> for PatientId {
    fn from(id: usize) -> Self {
        PatientId(id)
    }
}

/// One suggested drug: typed identifier, resolved name and prediction score.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredDrug {
    /// Typed drug identifier.
    pub id: DrugId,
    /// Generic name from the registry.
    pub name: String,
    /// Predicted medication-use probability.
    pub score: f32,
}

/// Per-request constraints on which drugs may be suggested.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SuggestFilters {
    /// Drugs that must never appear in the suggestion (allergies,
    /// contraindications, drugs already tried).
    pub exclude: Vec<DrugId>,
    /// Drugs the patient is already taking: any candidate with an
    /// antagonistic DDI against one of these is dropped.
    pub avoid_antagonists_of: Vec<DrugId>,
    /// Drugs the patient is already taking, checked against the clinical
    /// knowledge base: any candidate whose interaction with one of these is
    /// graded [`Severity::Contraindicated`] is dropped. Needs a
    /// [`KnowledgeBase`] on the serving path
    /// ([`DecisionService::suggest_batch_with_kb`] or a gateway shard's KB);
    /// without one no grade can reach `Contraindicated` and the filter
    /// passes everything.
    pub exclude_contraindicated_with: Vec<DrugId>,
}

impl SuggestFilters {
    /// No constraints.
    pub fn none() -> Self {
        Self::default()
    }

    /// Returns true when the filters reject candidate drug `d`.
    fn rejects(&self, d: usize, ddi: &SignedGraph, kb: Option<&KnowledgeBase>) -> bool {
        if self.exclude.iter().any(|x| x.index() == d) {
            return true;
        }
        if self
            .avoid_antagonists_of
            .iter()
            .any(|taken| ddi.interaction(taken.index(), d) == Some(Interaction::Antagonistic))
        {
            return true;
        }
        if let Some(kb) = kb {
            // A contraindication fires on the KB fact alone — a curated
            // hard stop must hold even for pairs the DDI graph has no
            // signed edge for.
            return self.exclude_contraindicated_with.iter().any(|taken| {
                kb.lookup(taken.index(), d)
                    .is_some_and(|fact| fact.severity == Severity::Contraindicated)
            });
        }
        false
    }
}

/// A medication-suggestion request for one patient.
#[derive(Debug, Clone, PartialEq)]
pub struct SuggestRequest {
    /// Caller-side patient identifier, echoed in the response.
    pub patient: PatientId,
    /// The patient's feature vector (same layout as the training features).
    pub features: Vec<f32>,
    /// Number of drugs to suggest.
    pub k: usize,
    /// Constraints on the suggestion.
    pub filters: SuggestFilters,
}

impl SuggestRequest {
    /// A request with no filters.
    pub fn new(patient: PatientId, features: Vec<f32>, k: usize) -> Self {
        Self {
            patient,
            features,
            k,
            filters: SuggestFilters::none(),
        }
    }

    /// Adds filters to the request.
    pub fn with_filters(mut self, filters: SuggestFilters) -> Self {
        self.filters = filters;
        self
    }
}

/// The service's answer to a [`SuggestRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct SuggestResponse {
    /// The patient the suggestion is for.
    pub patient: PatientId,
    /// Suggested drugs in descending score order, with resolved names.
    pub drugs: Vec<ScoredDrug>,
    /// The DDI-based explanation subgraph shown to the doctor.
    pub explanation: Explanation,
    /// The Suggestion Satisfaction score (Eq. 19), copied out of the
    /// explanation for convenience.
    pub suggestion_satisfaction: f64,
}

/// A request to critique an existing prescription against the DDI graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckPrescriptionRequest {
    /// Optional patient the prescription belongs to.
    pub patient: Option<PatientId>,
    /// The prescribed drugs.
    pub drugs: Vec<DrugId>,
    /// Which severity grades the report includes. The default reports
    /// everything; a busy clinic raises the threshold to fight alert
    /// fatigue. Contraindicated findings always fire.
    pub policy: AlertPolicy,
}

impl CheckPrescriptionRequest {
    /// A prescription check without patient attribution, reporting every
    /// severity grade.
    pub fn new(drugs: Vec<DrugId>) -> Self {
        Self {
            patient: None,
            drugs,
            policy: AlertPolicy::default(),
        }
    }

    /// Attributes the prescription to a patient.
    pub fn for_patient(mut self, patient: PatientId) -> Self {
        self.patient = Some(patient);
        self
    }

    /// Sets the alert policy gating which findings the report carries.
    pub fn with_policy(mut self, policy: AlertPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// One annotated drug-drug interaction inside a prescription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairInteraction {
    /// First drug.
    pub a: DrugId,
    /// First drug's name.
    pub a_name: String,
    /// Second drug.
    pub b: DrugId,
    /// Second drug's name.
    pub b_name: String,
    /// The DDI graph's sign for the pair. [`Interaction::None`] marks a
    /// finding that comes from a knowledge-base fact alone — the graph has
    /// no signed edge, but the curated fact still fires.
    pub interaction: Interaction,
    /// Clinical severity grade: the knowledge base's fact when one is
    /// attached to the serving path, otherwise the sign-derived default
    /// ([`Severity::default_for`] — antagonistic edges of unknown severity
    /// grade `Moderate`).
    pub severity: Severity,
    /// The knowledge base's management hint ("monitor INR", "separate
    /// doses"), when it has one for this pair.
    pub management: Option<String>,
}

/// The critique of a prescription: every pairwise interaction among the
/// prescribed drugs that passes the request's [`AlertPolicy`], plus the
/// community explanation and its SS score.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionReport {
    /// The patient the prescription belongs to, when given.
    pub patient: Option<PatientId>,
    /// The prescribed drugs with resolved names (scores are not applicable
    /// and set to the neutral 1.0).
    pub drugs: Vec<ScoredDrug>,
    /// The hazards a doctor must review before signing off: antagonistic
    /// pairs among the prescribed drugs, plus knowledge-base facts for
    /// pairs the DDI graph has no signed edge for (their
    /// [`PairInteraction::interaction`] is [`Interaction::None`]).
    pub antagonistic: Vec<PairInteraction>,
    /// Synergistic pairs among the prescribed drugs.
    pub synergistic: Vec<PairInteraction>,
    /// The community explanation around the prescription.
    pub explanation: Explanation,
    /// The Suggestion Satisfaction score of the prescription.
    pub suggestion_satisfaction: f64,
    /// Version of the knowledge base that graded the findings, when one was
    /// attached (`None` means sign-derived default grades).
    pub kb_version: Option<u64>,
}

impl InteractionReport {
    /// True when no antagonistic pair was found among the prescribed drugs
    /// (under the request's alert policy).
    pub fn is_safe(&self) -> bool {
        self.antagonistic.is_empty()
    }

    /// The most severe grade among the reported findings, when any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.antagonistic
            .iter()
            .chain(&self.synergistic)
            .map(|p| p.severity)
            .max()
    }

    /// True when a reported finding is graded [`Severity::Contraindicated`].
    pub fn has_contraindicated(&self) -> bool {
        self.max_severity() == Some(Severity::Contraindicated)
    }
}

/// Validates and assembles a [`DssddiConfig`] into a [`DecisionService`].
///
/// The builder replaces the ad-hoc `DssddiConfig` struct mutation that every
/// example and test used to do, and rejects inconsistent configurations
/// *before* spending any training time, with messages naming the offending
/// value.
#[derive(Debug, Clone, Default)]
pub struct ServiceBuilder {
    config: DssddiConfig,
    registry: Option<DrugRegistry>,
}

impl ServiceBuilder {
    /// A builder starting from the paper's default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder starting from [`DssddiConfig::fast`] — right for examples,
    /// tests and interactive use.
    pub fn fast() -> Self {
        Self {
            config: DssddiConfig::fast(),
            registry: None,
        }
    }

    /// A builder starting from the paper's full training schedule.
    pub fn paper() -> Self {
        Self {
            config: DssddiConfig::paper(),
            registry: None,
        }
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, config: DssddiConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the DDIGCN backbone.
    pub fn backbone(mut self, backbone: Backbone) -> Self {
        self.config.ddi.backbone = backbone;
        self
    }

    /// Sets the hidden dimension shared by the DDI and MD modules.
    pub fn hidden_dim(mut self, dim: usize) -> Self {
        self.config.ddi.hidden_dim = dim;
        self.config.md.hidden_dim = dim;
        self
    }

    /// Sets the training epochs of the DDI and MD modules.
    pub fn epochs(mut self, ddi: usize, md: usize) -> Self {
        self.config.ddi.epochs = ddi;
        self.config.md.epochs = md;
        self
    }

    /// Enables or disables counterfactual augmentation.
    pub fn counterfactual(mut self, enabled: bool) -> Self {
        self.config.md.use_counterfactual = enabled;
        self
    }

    /// Sets the Suggestion Satisfaction balance α (must lie in `[0, 1]`).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.config.ms.alpha = alpha;
        self
    }

    /// Uses a custom drug registry instead of [`DrugRegistry::standard`].
    pub fn registry(mut self, registry: DrugRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// The assembled configuration (after validation it is safe to train).
    pub fn peek_config(&self) -> &DssddiConfig {
        &self.config
    }

    /// Checks the assembled configuration, returning a contextual error for
    /// the first inconsistency found.
    pub fn validate(&self) -> Result<(), CoreError> {
        let c = &self.config;
        if c.ddi.hidden_dim == 0 {
            return Err(CoreError::invalid_config("ddi.hidden_dim must be positive"));
        }
        if matches!(c.ddi.backbone, Backbone::Sgcn | Backbone::Sigat)
            && !c.ddi.hidden_dim.is_multiple_of(2)
        {
            return Err(CoreError::invalid_config(format!(
                "ddi.hidden_dim = {} must be even for the {} backbone (its output is a \
                 sign-wise concatenation of two halves)",
                c.ddi.hidden_dim,
                c.ddi.backbone.name()
            )));
        }
        if c.ddi.layers == 0 {
            return Err(CoreError::invalid_config("ddi.layers must be at least 1"));
        }
        if c.ddi.epochs == 0 || c.md.epochs == 0 {
            return Err(CoreError::invalid_config(format!(
                "training epochs must be positive (ddi.epochs = {}, md.epochs = {})",
                c.ddi.epochs, c.md.epochs
            )));
        }
        for (name, lr) in [("ddi", c.ddi.learning_rate), ("md", c.md.learning_rate)] {
            if !(lr.is_finite() && lr > 0.0) {
                return Err(CoreError::invalid_config(format!(
                    "{name}.learning_rate = {lr} must be a positive finite number"
                )));
            }
        }
        if c.md.hidden_dim == 0 {
            return Err(CoreError::invalid_config("md.hidden_dim must be positive"));
        }
        if c.md.use_ddi_embeddings && c.ddi.hidden_dim != c.md.hidden_dim {
            return Err(CoreError::invalid_config(format!(
                "ddi.hidden_dim = {} must equal md.hidden_dim = {} while \
                 md.use_ddi_embeddings is on (DDIGCN's embeddings are added into the MD \
                 module's drug representations)",
                c.ddi.hidden_dim, c.md.hidden_dim
            )));
        }
        if c.md.propagation_layers == 0 {
            return Err(CoreError::invalid_config(
                "md.propagation_layers must be at least 1",
            ));
        }
        if c.md.n_clusters == 0 {
            return Err(CoreError::invalid_config(
                "md.n_clusters must be positive (the paper uses the number of chronic diseases)",
            ));
        }
        if !(0.0..=1.0).contains(&c.ms.alpha) {
            return Err(CoreError::invalid_config(format!(
                "ms.alpha = {} must lie in [0, 1] (it balances internal synergy against \
                 external antagonism in SS)",
                c.ms.alpha
            )));
        }
        Ok(())
    }

    fn registry_for(&self, ddi_graph: &SignedGraph) -> Result<DrugRegistry, CoreError> {
        let registry = self.registry.clone().unwrap_or_default();
        if registry.len() != ddi_graph.node_count() {
            return Err(CoreError::invalid_input(format!(
                "registry has {} drugs but the DDI graph has {} nodes; the service needs \
                 one registry entry per DDI node to resolve names",
                registry.len(),
                ddi_graph.node_count()
            )));
        }
        Ok(registry)
    }

    /// Builds a *support-only* service around a DDI graph: prescription
    /// critique and explanations work, suggestion requires a fitted model
    /// and returns [`CoreError::NotFitted`]. No training happens.
    pub fn build_support(self, ddi_graph: &SignedGraph) -> Result<DecisionService, CoreError> {
        self.validate()?;
        let registry = self.registry_for(ddi_graph)?;
        Ok(DecisionService::assemble(
            registry,
            ddi_graph.clone(),
            self.config,
            None,
        ))
    }

    /// Validates, then fits the full system on explicit training matrices.
    pub fn fit(
        self,
        train_features: &Matrix,
        train_graph: &BipartiteGraph,
        drug_features: &Matrix,
        ddi_graph: &SignedGraph,
        rng: &mut impl Rng,
    ) -> Result<DecisionService, CoreError> {
        self.validate()?;
        let registry = self.registry_for(ddi_graph)?;
        let engine = Dssddi::fit(
            train_features,
            train_graph,
            drug_features,
            ddi_graph,
            &self.config,
            rng,
        )?;
        Ok(DecisionService::assemble(
            registry,
            ddi_graph.clone(),
            self.config,
            Some(Box::new(engine)),
        ))
    }

    /// Validates, then fits the full system on the observed subset of a
    /// generated chronic cohort.
    pub fn fit_chronic(
        self,
        cohort: &ChronicCohort,
        observed_patients: &[usize],
        drug_features: &Matrix,
        ddi_graph: &SignedGraph,
        rng: &mut impl Rng,
    ) -> Result<DecisionService, CoreError> {
        self.validate()?;
        let registry = self.registry_for(ddi_graph)?;
        let engine = Dssddi::fit_chronic_inner(
            cohort,
            observed_patients,
            drug_features,
            ddi_graph,
            &self.config,
            rng,
        )?;
        Ok(DecisionService::assemble(
            registry,
            ddi_graph.clone(),
            self.config,
            Some(Box::new(engine)),
        ))
    }
}

/// The doctor-facing decision service: typed suggestion and prescription
/// critique over a fitted DSSDDI system and its drug registry.
///
/// The service owns the registry, the configuration and, when fitted, the
/// trained engine, which holds only its trained modules. The DDI graph
/// lives in the service's [`ExplanationEngine`], with the MS configuration,
/// the explanation index and the memo. The engine sits behind an `Arc`, so
/// services over an equal graph and MS configuration can share it
/// ([`DecisionService::adopt_explanation_engine`]), whichever model ranks
/// their drugs. The service is `Sync`: one instance serves concurrent
/// request handlers through `&self`.
pub struct DecisionService {
    registry: DrugRegistry,
    config: DssddiConfig,
    /// The trained engine, absent for [`ServiceBuilder::build_support`]
    /// services (critique only).
    engine: Option<Box<Dssddi>>,
    /// The DDI graph, its explanation index and the memo, possibly shared
    /// with other services. Its MS configuration equals `config.ms`.
    explainer: Arc<ExplanationEngine>,
    /// This service's suggestion explanations the memo answered and those
    /// that ran a community search. Kept per service, not in the shared
    /// memo, so they count this service's lookups alone and start at zero
    /// when a reload installs a new service, even one that keeps the memo.
    explanation_hits: AtomicUsize,
    explanation_misses: AtomicUsize,
}

/// Magic bytes opening every `DSSD` service container.
pub const DSSD_MAGIC: [u8; 4] = *b"DSSD";

/// Current `DSSD` container format version.
///
/// Version 3 stores only what prediction and explanation read: the DDI
/// graph and the configuration once, at the service level, and a fitted
/// engine as its MD module alone, with the per-cluster treatment table in
/// place of the training treatment matrix it is derived from. Version 2 also
/// stored the trained DDI module (its embeddings, which the MD module's drug
/// representations already hold, and its loss trace), and version 1 repeated
/// the graph and the configuration inside the engine. Both are refused with
/// [`SerdeError::UnsupportedVersion`](dssddi_tensor::serde::SerdeError::UnsupportedVersion).
pub const DSSD_FORMAT_VERSION: u16 = 3;

/// Reads a container file, naming the path in the I/O error.
fn read_container_file(path: &Path) -> Result<Vec<u8>, tserde::SerdeError> {
    std::fs::read(path).map_err(|e| tserde::SerdeError::Io {
        what: format!("reading {}: {e}", path.display()),
    })
}

impl fmt::Debug for DecisionService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecisionService")
            .field("drugs", &self.registry.len())
            .field("ddi_edges", &self.ddi_graph().edge_count())
            .field("fitted", &self.engine().is_some())
            .finish_non_exhaustive()
    }
}

impl DecisionService {
    /// Assembles a service around a fresh explanation engine for its DDI
    /// graph and MS configuration.
    fn assemble(
        registry: DrugRegistry,
        ddi_graph: SignedGraph,
        config: DssddiConfig,
        engine: Option<Box<Dssddi>>,
    ) -> Self {
        let explainer = Arc::new(ExplanationEngine::new(ddi_graph, config.ms.clone()));
        Self {
            registry,
            config,
            engine,
            explainer,
            explanation_hits: AtomicUsize::new(0),
            explanation_misses: AtomicUsize::new(0),
        }
    }

    /// Serves explanations from `other`'s [`ExplanationEngine`], memo
    /// included, when the two engines explain alike
    /// ([`ExplanationEngine::explains_like`]: an equal DDI graph and MS
    /// configuration), and returns whether this service now shares it.
    /// Responses do not change, since every explanation is the same either
    /// way. A serving catalog calls this as it inserts or reloads a shard,
    /// so shards and successive models over one graph share one index and
    /// one warm memo.
    pub fn adopt_explanation_engine(&mut self, other: &DecisionService) -> bool {
        let alike = self.explainer.explains_like(&other.explainer);
        if alike {
            self.explainer = Arc::clone(&other.explainer);
        }
        alike
    }

    /// The explanation engine this service explains through, shared with
    /// every service that adopted it.
    pub fn explanation_engine(&self) -> &Arc<ExplanationEngine> {
        &self.explainer
    }

    /// Saves the service to a `DSSD` container file: the registry identity,
    /// the configuration and — for fitted services — every trained parameter
    /// set, so the service can be reloaded on a serving host and produce
    /// byte-identical suggestions. The file is written crash-safely with
    /// [`dssddi_tensor::serde::atomic_write`]; see
    /// [`DecisionService::to_container_bytes`] for the bytes.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CoreError> {
        tserde::atomic_write(path, &self.to_container_bytes())?;
        Ok(())
    }

    /// Serializes the service to an in-memory `DSSD` container: the
    /// payload sealed in a frame ([`dssddi_tensor::serde`]) under
    /// [`DSSD_MAGIC`] and [`DSSD_FORMAT_VERSION`], with a CRC-32 trailer.
    /// [`DecisionService::save`] writes these bytes to disk, and
    /// replication ships them peer-to-peer. The inverse of
    /// [`DecisionService::load_with_embedded_registry_bytes`].
    ///
    /// The version 3 payload holds, once each: the registry's digest and
    /// DID-ordered names, the signed DDI graph, the configuration, and a
    /// flag followed, for a fitted service, by the engine: its section tag,
    /// then the MD module's parameters, decoder, k-means model, per-cluster
    /// treatment table and drug representations.
    pub fn to_container_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        persist::put_section(&mut w, section::SERVICE);
        // Registry identity: digest plus the DID-ordered names, so a
        // mismatch on load can name the offending drug.
        w.put_u64(self.registry.digest());
        let names = self.registry.names();
        w.put_usize(names.len());
        for name in names {
            w.put_str(name);
        }
        persist::write_signed_graph(&mut w, self.ddi_graph());
        persist::write_config(&mut w, &self.config);
        w.put_bool(self.engine.is_some());
        if let Some(engine) = &self.engine {
            engine.write_into(&mut w);
        }
        tserde::seal_frame(DSSD_MAGIC, DSSD_FORMAT_VERSION, w.as_bytes())
    }

    /// Loads a service saved by [`DecisionService::save`], reattaching the
    /// caller's [`DrugRegistry`] after verifying it is the registry the
    /// service was persisted with (same drugs, same DIDs) — otherwise the
    /// typed [`DrugId`]s baked into the trained parameters would silently
    /// resolve to different drugs.
    ///
    /// Truncated, corrupt or version-mismatched files produce a typed
    /// [`CoreError::Persistence`]; loading never panics.
    pub fn load(path: impl AsRef<Path>, registry: DrugRegistry) -> Result<Self, CoreError> {
        Self::from_container(&read_container_file(path.as_ref())?, Some(registry))
    }

    /// Loads a service saved by [`DecisionService::save`], reconstructing
    /// the [`DrugRegistry`] from the DID-ordered name list embedded in the
    /// file instead of requiring the caller to supply one.
    ///
    /// This is what a serving host that only receives `DSSD` files — such as
    /// the `dssddi-serve` gateway — uses: the embedded names identify the
    /// formulary completely (the stored digest is still verified against
    /// them), but the reconstructed registry carries no class or indication
    /// metadata. When the caller *does* hold the original registry, prefer
    /// [`DecisionService::load`], which cross-checks it name by name.
    pub fn load_with_embedded_registry(path: impl AsRef<Path>) -> Result<Self, CoreError> {
        Self::from_container(&read_container_file(path.as_ref())?, None)
    }

    /// [`DecisionService::load_with_embedded_registry`] over an in-memory
    /// `DSSD` container — what a serving gateway uses when a re-trained
    /// model arrives *over the wire* (hot reload) instead of from a file.
    /// The same validation applies: damaged bytes are typed errors.
    pub fn load_with_embedded_registry_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        Self::from_container(bytes, None)
    }

    /// Decodes a `DSSD` container. With `Some(registry)` the embedded name
    /// list is verified against the provided registry (same drugs, same
    /// DIDs); with `None` the registry is rebuilt from the embedded names.
    fn from_container(bytes: &[u8], provided: Option<DrugRegistry>) -> Result<Self, CoreError> {
        let (_, payload) = tserde::open_frame(DSSD_MAGIC, &[DSSD_FORMAT_VERSION], bytes)?;
        let mut r = ByteReader::new(payload);
        persist::expect_section(&mut r, section::SERVICE, "service")?;
        let digest = r.take_u64("service.registry_digest")?;
        let n_names = r.take_usize("service.registry_len")?;
        if let Some(registry) = &provided {
            if n_names != registry.len() {
                return Err(CoreError::persistence(format!(
                    "service was persisted with {n_names} drugs but the provided registry has {}",
                    registry.len()
                )));
            }
        }
        // Collected only when reconstructing; every name read is individually
        // bounds-checked, and no allocation is sized from the untrusted
        // n_names count.
        let mut stored_names: Vec<String> = Vec::new();
        for did in 0..n_names {
            let stored = r.take_str("service.registry_name")?;
            match &provided {
                Some(registry) => {
                    let provided_name = registry.name_of(did).unwrap_or("<missing>");
                    if stored != provided_name {
                        return Err(CoreError::persistence(format!(
                            "registry mismatch at DID {did}: service was persisted with \
                             {stored:?} but the provided registry has {provided_name:?}"
                        )));
                    }
                }
                None => stored_names.push(stored),
            }
        }
        let registry = match provided {
            Some(registry) => registry,
            None => DrugRegistry::from_names(stored_names).map_err(|e| {
                CoreError::persistence(format!("embedded registry names are invalid: {e}"))
            })?,
        };
        if digest != registry.digest() {
            return Err(CoreError::persistence(
                "registry digest mismatch: the provided registry is not the one the \
                 service was persisted with",
            ));
        }
        // The node count is untrusted: check it before the explanation
        // index, or anything else, is sized by it.
        let ddi_graph = persist::read_signed_graph(&mut r)?;
        if ddi_graph.node_count() != registry.len() {
            return Err(CoreError::persistence(format!(
                "persisted DDI graph has {} nodes but the registry has {} drugs",
                ddi_graph.node_count(),
                registry.len()
            )));
        }
        let config = persist::read_config(&mut r)?;
        let engine = if r.take_bool("service.fitted")? {
            Some(Box::new(Dssddi::read_from(&mut r)?))
        } else {
            None
        };
        if let Some(md) = engine.as_ref().map(|e| e.md_module()) {
            if md.n_drugs() != ddi_graph.node_count() {
                return Err(CoreError::persistence(format!(
                    "persisted MD module covers {} drugs but the DDI graph has {} nodes",
                    md.n_drugs(),
                    ddi_graph.node_count()
                )));
            }
        }
        if !r.is_exhausted() {
            return Err(CoreError::persistence(format!(
                "{} unexpected trailing bytes after the service state",
                r.remaining()
            )));
        }
        Ok(Self::assemble(registry, ddi_graph, config, engine))
    }

    /// Cumulative `(hits, misses)` of this service's suggestion
    /// explanations in the memo — a serving-side observability hook for how
    /// often community searches are collapsed. Counted per service: a
    /// service that adopted a shared engine starts from zero, and another
    /// service's lookups in the same memo do not count here.
    pub fn explanation_cache_stats(&self) -> (usize, usize) {
        (
            self.explanation_hits.load(Ordering::Relaxed),
            self.explanation_misses.load(Ordering::Relaxed),
        )
    }

    /// Resolves a free-form drug reference (name, `"48"`, `"DID 48"`).
    pub fn resolve_drug(&self, query: &str) -> Result<DrugId, CoreError> {
        self.registry
            .resolve(query)
            .map(DrugId::new)
            .ok_or_else(|| CoreError::unknown_drug(query))
    }

    /// The generic name behind a typed drug identifier.
    pub fn drug_name(&self, id: DrugId) -> Result<&str, CoreError> {
        self.registry
            .name_of(id.index())
            .ok_or_else(|| CoreError::unknown_drug(id.to_string()))
    }

    /// The drug registry backing name resolution.
    pub fn registry(&self) -> &DrugRegistry {
        &self.registry
    }

    /// The signed DDI graph the service critiques prescriptions against.
    pub fn ddi_graph(&self) -> &SignedGraph {
        self.explainer.graph()
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &DssddiConfig {
        &self.config
    }

    /// The underlying fitted system, when the service was built by training
    /// (absent for [`ServiceBuilder::build_support`] services).
    pub fn engine(&self) -> Option<&Dssddi> {
        self.engine.as_deref()
    }

    /// True when the service carries a trained model (suggestion works);
    /// false for support-only services (critique only).
    pub fn is_fitted(&self) -> bool {
        self.engine.is_some()
    }

    /// Length of the patient feature vectors the trained model expects (the
    /// input width of its patient projection), or `None` for support-only
    /// services. Serving gateways surface this in their model listings so
    /// remote callers can size requests without holding the training data.
    pub fn n_features(&self) -> Option<usize> {
        self.engine().map(|e| e.md_module().n_features())
    }

    fn fitted(&self, operation: &str) -> Result<&Dssddi, CoreError> {
        self.engine()
            .ok_or_else(|| CoreError::not_fitted(operation))
    }

    /// Raw medication-use scores (one row per patient, one column per drug)
    /// for externally assembled feature matrices.
    pub fn predict_scores(&self, features: &Matrix) -> Result<Matrix, CoreError> {
        self.fitted("predict_scores")?.predict_scores(features)
    }

    /// Checks that an attached knowledge base grades this service's
    /// formulary before any of its grades are trusted.
    fn validate_kb(&self, kb: Option<&KnowledgeBase>) -> Result<(), CoreError> {
        if let Some(kb) = kb {
            if kb.n_drugs() != self.registry.len() || kb.registry_digest() != self.registry.digest()
            {
                return Err(CoreError::invalid_input(format!(
                    "knowledge base grades a {}-drug formulary (digest {:#018x}) but the \
                     service holds {} drugs (digest {:#018x})",
                    kb.n_drugs(),
                    kb.registry_digest(),
                    self.registry.len(),
                    self.registry.digest()
                )));
            }
        }
        Ok(())
    }

    /// Serves one suggestion request. With a clinical knowledge base,
    /// candidates whose interaction with a drug named in
    /// [`SuggestFilters::exclude_contraindicated_with`] is graded
    /// [`Severity::Contraindicated`] are dropped; `None` passes that filter.
    pub fn suggest_with_kb(
        &self,
        request: &SuggestRequest,
        kb: Option<&KnowledgeBase>,
    ) -> Result<SuggestResponse, CoreError> {
        self.suggest_batch_with_kb(std::slice::from_ref(request), kb)?
            .pop()
            .ok_or_else(|| CoreError::invalid_input("suggest_batch returned no response"))
    }

    /// Serves a batch of suggestion requests, with the knowledge base
    /// grading each request's filters as in
    /// [`DecisionService::suggest_with_kb`].
    ///
    /// The whole batch is served on the calling thread. Score prediction
    /// is amortised: the patients' feature vectors are stacked into one
    /// matrix and pushed through the tape-free inference path in a single
    /// pass, and explanations are memoized per distinct suggested drug set
    /// in the size-bounded memo of the service's [`ExplanationEngine`] —
    /// with homogeneous cohorts most patients share a handful of
    /// communities, and because an explanation depends only on the DDI
    /// graph and the MS configuration the memo keeps paying off across
    /// batches and across models that share the engine. The memo is locked
    /// for a lookup or an insert only, never during a community search, so
    /// cold explanations overlap across connection threads. Responses come
    /// back in request order, each identical to serving its request alone:
    /// patients are scored independently.
    pub fn suggest_batch_with_kb(
        &self,
        requests: &[SuggestRequest],
        kb: Option<&KnowledgeBase>,
    ) -> Result<Vec<SuggestResponse>, CoreError> {
        // An empty batch is an empty answer — before any model check, so
        // pollers draining an empty queue don't error on support-only
        // services.
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        self.validate_kb(kb)?;
        let engine = self.fitted("suggest_batch")?;
        let n_features = engine.md_module().n_features();
        let n_drugs = self.ddi_graph().node_count();
        for (i, request) in requests.iter().enumerate() {
            if request.features.len() != n_features {
                return Err(CoreError::invalid_input(format!(
                    "request {i} ({}) carries {} features but the model was trained on {}",
                    request.patient,
                    request.features.len(),
                    n_features
                )));
            }
            if let Some(f) = request.features.iter().position(|v| !v.is_finite()) {
                return Err(CoreError::invalid_input(format!(
                    "request {i} ({}) carries a non-finite value at feature {f}",
                    request.patient
                )));
            }
            if request.k == 0 {
                return Err(CoreError::invalid_input(format!(
                    "request {i} ({}) asks for k = 0 suggestions",
                    request.patient
                )));
            }
            for id in request
                .filters
                .exclude
                .iter()
                .chain(&request.filters.avoid_antagonists_of)
                .chain(&request.filters.exclude_contraindicated_with)
            {
                if id.index() >= n_drugs {
                    return Err(CoreError::unknown_drug(id.to_string()));
                }
            }
        }

        let stacked: Vec<f32> = requests
            .iter()
            .flat_map(|r| r.features.iter().copied())
            .collect();
        let features = Matrix::from_vec(requests.len(), n_features, stacked)?;
        let scores = engine.predict_scores(&features)?;
        let mut responses = Vec::with_capacity(requests.len());
        for (row, request) in requests.iter().enumerate() {
            let ranked = self.ranked_candidates(scores.row(row), request, kb)?;
            let suggested: Vec<usize> = ranked.iter().map(|d| d.id.index()).collect();
            let (explanation, hit) = self.explainer.explain_memoized(&suggested)?;
            let counter = if hit {
                &self.explanation_hits
            } else {
                &self.explanation_misses
            };
            counter.fetch_add(1, Ordering::Relaxed);
            let suggestion_satisfaction = explanation.suggestion_satisfaction;
            responses.push(SuggestResponse {
                patient: request.patient,
                drugs: ranked,
                explanation,
                suggestion_satisfaction,
            });
        }
        Ok(responses)
    }

    /// Ranks one patient's scores in [`top_k_indices`] order, the order the
    /// paper's Precision@k and Recall@k evaluate, and keeps the first `k`
    /// drugs the request's filters pass.
    fn ranked_candidates(
        &self,
        scores: &[f32],
        request: &SuggestRequest,
        kb: Option<&KnowledgeBase>,
    ) -> Result<Vec<ScoredDrug>, CoreError> {
        // `k` comes off the wire: size nothing by it.
        let mut ranked = Vec::with_capacity(request.k.min(scores.len()));
        for d in top_k_indices(scores, scores.len()) {
            if ranked.len() == request.k {
                break;
            }
            // `top_k_indices` ranks indices into `scores`, so `get` finds each.
            let Some(&score) = scores.get(d) else {
                continue;
            };
            if request.filters.rejects(d, self.ddi_graph(), kb) {
                continue;
            }
            ranked.push(ScoredDrug {
                id: DrugId::new(d),
                name: self.drug_name(DrugId::new(d))?.to_string(),
                score,
            });
        }
        if ranked.len() < request.k {
            let filters_active = !request.filters.exclude.is_empty()
                || !request.filters.avoid_antagonists_of.is_empty()
                || !request.filters.exclude_contraindicated_with.is_empty();
            return Err(CoreError::invalid_input(if filters_active {
                format!(
                    "filters for {} leave only {} candidate drugs but k = {}",
                    request.patient,
                    ranked.len(),
                    request.k
                )
            } else {
                format!(
                    "k = {} exceeds the {} drugs in the formulary (request for {})",
                    request.k,
                    ranked.len(),
                    request.patient
                )
            }));
        }
        Ok(ranked)
    }

    /// Critiques an existing prescription against the signed DDI graph:
    /// classifies every pairwise interaction and attaches the community
    /// explanation with its Suggestion Satisfaction score.
    ///
    /// Works on every service, including support-only ones — no fitted
    /// model is needed to check a prescription. With a clinical knowledge
    /// base, every finding is graded by the KB's severity facts (pairs the
    /// KB has no fact for fall back to the sign default), carries the KB's
    /// management hint, and the request's [`AlertPolicy`] filters findings
    /// *at the source* — a `Major`-and-up policy never materialises the
    /// `Minor` chatter it would suppress. With `None`, findings carry
    /// sign-derived default grades ([`Severity::default_for`]).
    pub fn check_prescription_with_kb(
        &self,
        request: &CheckPrescriptionRequest,
        kb: Option<&KnowledgeBase>,
    ) -> Result<InteractionReport, CoreError> {
        self.validate_kb(kb)?;
        if request.drugs.is_empty() {
            return Err(CoreError::invalid_input(
                "cannot check an empty prescription",
            ));
        }
        let n_drugs = self.ddi_graph().node_count();
        for id in &request.drugs {
            if id.index() >= n_drugs {
                return Err(CoreError::unknown_drug(id.to_string()));
            }
        }
        // A prescription is a drug *set*: deduplicate (keeping first-seen
        // order) so a repeated drug cannot double-report its interactions.
        let mut drugs: Vec<ScoredDrug> = Vec::with_capacity(request.drugs.len());
        for &id in &request.drugs {
            if drugs.iter().any(|d| d.id == id) {
                continue;
            }
            drugs.push(ScoredDrug {
                id,
                name: self.drug_name(id)?.to_string(),
                score: 1.0,
            });
        }
        let mut antagonistic = Vec::new();
        let mut synergistic = Vec::new();
        for (i, a) in drugs.iter().enumerate() {
            for b in drugs.iter().skip(i + 1) {
                let graph_sign = self.ddi_graph().interaction(a.id.index(), b.id.index());
                let signed = graph_sign.filter(|&sign| sign != Interaction::None);
                let fact = kb.and_then(|kb| kb.lookup(a.id.index(), b.id.index()));
                let (interaction, severity, management) = match (signed, fact) {
                    (Some(sign), Some(fact)) => (
                        sign,
                        fact.severity,
                        fact.management_hint().map(str::to_string),
                    ),
                    (Some(sign), None) => (sign, Severity::default_for(sign), None),
                    // The knowledge base knows a hazard the graph has no
                    // signed edge for — a curated fact outranks an absent
                    // (or explicitly "no interaction") edge, so it must
                    // still fire. The pair keeps the graph's (non-)sign.
                    (None, Some(fact)) => (
                        graph_sign.unwrap_or(Interaction::None),
                        fact.severity,
                        fact.management_hint().map(str::to_string),
                    ),
                    // Neither the graph nor the KB knows the pair, or the
                    // graph explicitly recorded no interaction: nothing
                    // worth surfacing to the doctor.
                    (None, None) => continue,
                };
                if !request.policy.reports(severity) {
                    continue;
                }
                let pair = PairInteraction {
                    a: a.id,
                    a_name: a.name.clone(),
                    b: b.id,
                    b_name: b.name.clone(),
                    interaction,
                    severity,
                    management,
                };
                match interaction {
                    Interaction::Synergistic => synergistic.push(pair),
                    // KB-only facts (graph sign None) are hazards to
                    // review: they join the antagonistic list.
                    Interaction::Antagonistic | Interaction::None => antagonistic.push(pair),
                }
            }
        }
        // The explanation is of the drug set, explained on the canonical
        // key that `suggest` explains too, without the memo.
        let indices: Vec<usize> = drugs.iter().map(|d| d.id.index()).collect();
        let explanation = self.explainer.explain(&indices)?;
        let suggestion_satisfaction = explanation.suggestion_satisfaction;
        Ok(InteractionReport {
            patient: request.patient,
            drugs,
            antagonistic,
            synergistic,
            explanation,
            suggestion_satisfaction,
            kb_version: kb.map(KnowledgeBase::version),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssddi_data::{
        generate_chronic_cohort, generate_ddi_graph, ChronicConfig, DdiConfig, DrugRegistry,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fitted_service(seed: u64) -> (DecisionService, ChronicCohort, Vec<usize>) {
        let (service, cohort) = fit_small(seed, |_| {}, |_| {});
        (service.unwrap(), cohort, (55..70).collect())
    }

    /// Trains on 55 patients of a seeded 70-patient cohort, after `tune`
    /// edits the configuration and `poison` the drug features.
    fn fit_small(
        seed: u64,
        tune: impl FnOnce(&mut DssddiConfig),
        poison: impl FnOnce(&mut Matrix),
    ) -> (Result<DecisionService, CoreError>, ChronicCohort) {
        let registry = DrugRegistry::standard();
        let mut rng = StdRng::seed_from_u64(seed);
        let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
        let cohort = generate_chronic_cohort(
            &registry,
            &ddi,
            &ChronicConfig {
                n_patients: 70,
                ..Default::default()
            },
            &mut rng,
        )
        .unwrap();
        let mut drug_features = Matrix::rand_uniform(registry.len(), 16, -0.1, 0.1, &mut rng);
        poison(&mut drug_features);
        let mut config = ServiceBuilder::fast()
            .hidden_dim(16)
            .epochs(25, 30)
            .peek_config()
            .clone();
        tune(&mut config);
        let observed: Vec<usize> = (0..55).collect();
        let service = ServiceBuilder::fast().config(config).fit_chronic(
            &cohort,
            &observed,
            &drug_features,
            &ddi,
            &mut rng,
        );
        (service, cohort)
    }

    fn support_service(seed: u64) -> DecisionService {
        let registry = DrugRegistry::standard();
        let mut rng = StdRng::seed_from_u64(seed);
        let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
        ServiceBuilder::fast().build_support(&ddi).unwrap()
    }

    #[test]
    fn decision_service_is_send_and_sync() {
        // The gateway shares one fitted service across its connection
        // threads; losing these bounds is a regression.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DecisionService>();
    }

    #[test]
    fn typed_ids_display_and_round_trip() {
        assert_eq!(DrugId::new(48).to_string(), "DID 48");
        assert_eq!(PatientId::new(3).to_string(), "patient #3");
        assert_eq!(DrugId::from(7).index(), 7);
        assert_eq!(PatientId::from(9).index(), 9);
    }

    #[test]
    fn builder_rejects_odd_hidden_dim_for_sign_concatenating_backbones() {
        let err = ServiceBuilder::fast()
            .backbone(Backbone::Sgcn)
            .hidden_dim(15)
            .validate();
        match err {
            Err(CoreError::InvalidConfig { what }) => {
                assert!(
                    what.contains("15") && what.contains("SGCN"),
                    "uncontextual: {what}"
                )
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // GIN has no sign-wise concatenation, so odd dims are fine.
        ServiceBuilder::fast()
            .backbone(Backbone::Gin)
            .hidden_dim(15)
            .validate()
            .unwrap();
    }

    #[test]
    fn builder_rejects_degenerate_values_with_context() {
        assert!(matches!(
            ServiceBuilder::fast().epochs(0, 10).validate(),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            ServiceBuilder::fast().alpha(1.5).validate(),
            Err(CoreError::InvalidConfig { .. })
        ));
        let mut negative_rate = DssddiConfig::fast();
        negative_rate.md.learning_rate = -0.5;
        // DDIGCN's embeddings are added into MD-width drug representations,
        // so its width must be the MD module's, not merely even for SGCN.
        let mut mismatched_widths = DssddiConfig::fast();
        mismatched_widths.ddi.backbone = Backbone::Sgcn;
        mismatched_widths.ddi.hidden_dim = 16;
        mismatched_widths.md.hidden_dim = 15;
        for (config, named) in [
            (negative_rate, &["-0.5"][..]),
            (
                mismatched_widths,
                &["ddi.hidden_dim = 16", "md.hidden_dim = 15"][..],
            ),
        ] {
            match ServiceBuilder::new().config(config).validate() {
                Err(CoreError::InvalidConfig { what }) => assert!(
                    named.iter().all(|n| what.contains(n)),
                    "message should name the values: {what}"
                ),
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn builder_rejects_registry_ddi_size_mismatch() {
        let mut rng = StdRng::seed_from_u64(1);
        let registry = DrugRegistry::standard();
        let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
        let small = SignedGraph::new(5);
        assert!(matches!(
            ServiceBuilder::fast().build_support(&small),
            Err(CoreError::InvalidInput { .. })
        ));
        ServiceBuilder::fast().build_support(&ddi).unwrap();
    }

    #[test]
    fn support_service_checks_prescriptions_but_cannot_suggest() {
        let service = support_service(2);
        let report = service
            .check_prescription_with_kb(
                &CheckPrescriptionRequest::new(vec![DrugId::new(61), DrugId::new(59)]),
                None,
            )
            .unwrap();
        // Gabapentin (61) + Isosorbide Mononitrate (59) is the paper's
        // Fig. 8 antagonistic pair; the generator always includes it.
        assert!(!report.is_safe());
        assert_eq!(report.antagonistic.len(), 1);
        assert_eq!(report.antagonistic[0].a_name, "Gabapentin");
        assert_eq!(report.antagonistic[0].b_name, "Isosorbide Mononitrate");

        let request = SuggestRequest::new(PatientId::new(0), vec![0.0; 71], 3);
        assert!(matches!(
            service.suggest_with_kb(&request, None),
            Err(CoreError::NotFitted { .. })
        ));
    }

    #[test]
    fn resolve_drug_reports_unknown_queries() {
        let service = support_service(3);
        assert_eq!(service.resolve_drug("Metformin").unwrap(), DrugId::new(48));
        assert_eq!(service.resolve_drug("DID 48").unwrap(), DrugId::new(48));
        match service.resolve_drug("Unobtainium") {
            Err(CoreError::UnknownDrug { query }) => assert_eq!(query, "Unobtainium"),
            other => panic!("expected UnknownDrug, got {other:?}"),
        }
        assert!(service.drug_name(DrugId::new(999)).is_err());
    }

    #[test]
    fn suggest_batch_returns_named_ranked_drugs_with_explanations() {
        let (service, cohort, held_out) = fitted_service(5);
        let requests: Vec<SuggestRequest> = held_out
            .iter()
            .map(|&p| SuggestRequest::new(PatientId::new(p), cohort.features().row(p).to_vec(), 3))
            .collect();
        let responses = service.suggest_batch_with_kb(&requests, None).unwrap();
        assert_eq!(responses.len(), requests.len());
        for (request, response) in requests.iter().zip(&responses) {
            assert_eq!(response.patient, request.patient);
            assert_eq!(response.drugs.len(), 3);
            for pair in response.drugs.windows(2) {
                assert!(pair[0].score >= pair[1].score, "ranking must be descending");
            }
            for drug in &response.drugs {
                assert_eq!(
                    drug.name,
                    service.registry().name_of(drug.id.index()).unwrap(),
                    "names must come from the registry"
                );
                assert!(response.explanation.community.contains(drug.id.index()));
            }
            assert!(response.suggestion_satisfaction >= 0.0);
        }
    }

    #[test]
    fn filters_exclude_and_avoid_antagonists() {
        let (service, cohort, held_out) = fitted_service(7);
        let patient = held_out[0];
        let features = cohort.features().row(patient).to_vec();

        let baseline = service
            .suggest_with_kb(
                &SuggestRequest::new(PatientId::new(patient), features.clone(), 4),
                None,
            )
            .unwrap();
        let top: Vec<DrugId> = baseline.drugs.iter().map(|d| d.id).collect();

        // Excluding the top drug must remove it from the new suggestion.
        let filtered = service
            .suggest_with_kb(
                &SuggestRequest::new(PatientId::new(patient), features.clone(), 4).with_filters(
                    SuggestFilters {
                        exclude: vec![top[0]],
                        ..Default::default()
                    },
                ),
                None,
            )
            .unwrap();
        assert!(filtered.drugs.iter().all(|d| d.id != top[0]));

        // Avoiding antagonists of a drug removes all its antagonists.
        let taken = DrugId::new(59); // Isosorbide Mononitrate
        let safe = service
            .suggest_with_kb(
                &SuggestRequest::new(PatientId::new(patient), features, 4).with_filters(
                    SuggestFilters {
                        avoid_antagonists_of: vec![taken],
                        ..Default::default()
                    },
                ),
                None,
            )
            .unwrap();
        for drug in &safe.drugs {
            assert_ne!(
                service
                    .ddi_graph()
                    .interaction(taken.index(), drug.id.index()),
                Some(Interaction::Antagonistic),
                "{} is antagonistic with the drug the patient already takes",
                drug.name
            );
        }
    }

    #[test]
    fn over_constrained_filters_error_contextually() {
        let (service, cohort, held_out) = fitted_service(9);
        let patient = held_out[0];
        let exclude: Vec<DrugId> = (0..service.registry().len()).map(DrugId::new).collect();
        let request = SuggestRequest::new(
            PatientId::new(patient),
            cohort.features().row(patient).to_vec(),
            2,
        )
        .with_filters(SuggestFilters {
            exclude,
            ..Default::default()
        });
        match service.suggest_with_kb(&request, None) {
            Err(CoreError::InvalidInput { what }) => {
                assert!(what.contains("k = 2"), "message lacks context: {what}")
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        // A k off the wire may be anything; it is an error, not an allocation.
        let request = SuggestRequest::new(
            PatientId::new(patient),
            cohort.features().row(patient).to_vec(),
            usize::MAX,
        );
        match service.suggest_with_kb(&request, None) {
            Err(CoreError::InvalidInput { what }) => {
                assert!(what.contains("exceeds the 86 drugs"), "got: {what}")
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn wrong_feature_length_is_rejected_with_patient_context() {
        let (service, cohort, held_out) = fitted_service(11);
        let request = SuggestRequest::new(PatientId::new(42), vec![0.0; 3], 2);
        match service.suggest_with_kb(&request, None) {
            Err(CoreError::InvalidInput { what }) => {
                assert!(
                    what.contains("patient #42") && what.contains("3"),
                    "got: {what}"
                )
            }
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        // The wire carries raw f32 bits, so a NaN or infinite feature must
        // be refused rather than ranked on NaN scores.
        let features = cohort.features().row(held_out[0]).to_vec();
        let valid = SuggestRequest::new(PatientId::new(7), features.clone(), 3);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in [0, features.len() / 2, features.len() - 1] {
                let mut poisoned = features.clone();
                poisoned[at] = bad;
                let request = SuggestRequest::new(PatientId::new(42), poisoned, 3);
                match service.suggest_batch_with_kb(&[valid.clone(), request], None) {
                    Err(CoreError::InvalidInput { what }) => assert!(
                        what.contains("request 1")
                            && what.contains("patient #42")
                            && what.contains(&format!("feature {at}")),
                        "got: {what}"
                    ),
                    other => panic!("expected InvalidInput for {bad} at {at}, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn explanation_cache_is_shared_across_batches() {
        let (service, cohort, held_out) = fitted_service(19);
        let requests: Vec<SuggestRequest> = held_out[..6]
            .iter()
            .map(|&p| SuggestRequest::new(PatientId::new(p), cohort.features().row(p).to_vec(), 3))
            .collect();
        let first = service.suggest_batch_with_kb(&requests, None).unwrap();
        let (h1, m1) = service.explanation_cache_stats();
        assert!(
            m1 >= 1,
            "first batch must run at least one community search"
        );
        // Serving the same batch again answers every explanation from the
        // service-owned cache: zero new community searches.
        let second = service.suggest_batch_with_kb(&requests, None).unwrap();
        let (h2, m2) = service.explanation_cache_stats();
        assert_eq!(m2, m1, "second batch must not search again");
        assert_eq!(h2, h1 + requests.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.suggestion_satisfaction, b.suggestion_satisfaction);
        }
    }

    #[test]
    fn services_share_an_explanation_engine_only_over_an_equal_graph_and_ms_configuration() {
        let registry = DrugRegistry::standard();
        let mut rng = StdRng::seed_from_u64(3);
        let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
        let build = |graph: &SignedGraph, tune: &dyn Fn(&mut DssddiConfig)| {
            let mut config = ServiceBuilder::fast().peek_config().clone();
            tune(&mut config);
            ServiceBuilder::fast()
                .config(config)
                .build_support(graph)
                .unwrap()
        };
        let first = build(&ddi, &|_| {});
        let mut same = build(&ddi, &|_| {});
        assert!(same.adopt_explanation_engine(&first));
        assert!(Arc::ptr_eq(
            same.explanation_engine(),
            first.explanation_engine()
        ));
        // Sharing changes no answer and no byte.
        let fresh = build(&ddi, &|_| {});
        let check = CheckPrescriptionRequest::new(vec![DrugId::new(61), DrugId::new(59)]);
        assert_eq!(
            same.check_prescription_with_kb(&check, None).unwrap(),
            fresh.check_prescription_with_kb(&check, None).unwrap()
        );
        assert_eq!(same.to_container_bytes(), fresh.to_container_bytes());

        // Another α, another CTC parameter or one flipped sign: no sharing.
        let (u, v, _) = ddi
            .interactions()
            .find(|&(_, _, sign)| sign == Interaction::Synergistic)
            .unwrap();
        let mut flipped = ddi.clone();
        flipped
            .add_interaction(u, v, Interaction::Antagonistic)
            .unwrap();
        for mut other in [
            build(&ddi, &|c| c.ms.alpha = 0.25),
            build(&ddi, &|c| c.ms.ctc.expansion_size += 1),
            build(&flipped, &|_| {}),
        ] {
            assert!(!other.adopt_explanation_engine(&first));
            assert!(!Arc::ptr_eq(
                other.explanation_engine(),
                first.explanation_engine()
            ));
        }
    }

    #[test]
    fn explanation_counts_are_per_service_over_a_shared_memo() {
        let (first, cohort, held_out) = fitted_service(19);
        let (mut second, _, _) = fitted_service(19);
        assert!(second.adopt_explanation_engine(&first));
        let requests: Vec<SuggestRequest> = held_out[..6]
            .iter()
            .map(|&p| SuggestRequest::new(PatientId::new(p), cohort.features().row(p).to_vec(), 3))
            .collect();
        let served = first.suggest_batch_with_kb(&requests, None).unwrap();
        let (hits, misses) = first.explanation_cache_stats();
        assert_eq!(hits + misses, requests.len());
        let memo_len = first.explanation_engine().memo_len();
        assert_eq!(memo_len, misses);
        // The adopting service finds every set in the shared memo; the
        // counts of the service that filled it do not move.
        assert_eq!(
            second.suggest_batch_with_kb(&requests, None).unwrap(),
            served
        );
        assert_eq!(second.explanation_cache_stats(), (requests.len(), 0));
        assert_eq!(first.explanation_cache_stats(), (hits, misses));
        assert_eq!(second.explanation_engine().memo_len(), memo_len);
    }

    #[test]
    fn batch_amortisation_matches_single_requests() {
        let (service, cohort, held_out) = fitted_service(13);
        let requests: Vec<SuggestRequest> = held_out[..4]
            .iter()
            .map(|&p| SuggestRequest::new(PatientId::new(p), cohort.features().row(p).to_vec(), 3))
            .collect();
        let batched = service.suggest_batch_with_kb(&requests, None).unwrap();
        for (request, batch_response) in requests.iter().zip(&batched) {
            let single = service.suggest_with_kb(request, None).unwrap();
            let batch_ids: Vec<DrugId> = batch_response.drugs.iter().map(|d| d.id).collect();
            let single_ids: Vec<DrugId> = single.drugs.iter().map(|d| d.id).collect();
            assert_eq!(batch_ids, single_ids);
        }
    }

    #[test]
    fn nan_scores_rank_last_without_panicking() {
        // Distinct finite scores with every fifth one NaN: on this row a
        // comparator that is not a total order makes the standard library
        // sort panic.
        let service = support_service(21);
        let scores: Vec<f32> = (0..86)
            .map(|i| {
                if i % 5 == 0 {
                    f32::NAN
                } else {
                    ((i * 37) % 86) as f32 / 86.0
                }
            })
            .collect();
        let request = SuggestRequest::new(PatientId::new(0), Vec::new(), scores.len());
        let ranked = service.ranked_candidates(&scores, &request, None).unwrap();
        assert_eq!(ranked.len(), 86);
        let (finite, nan) = ranked.split_at(86 - 18);
        assert!(finite.windows(2).all(|w| w[0].score > w[1].score));
        assert!(nan.iter().all(|d| d.score.is_nan()));
    }

    #[test]
    fn training_that_leaves_a_non_finite_parameter_returns_a_typed_error() {
        // `ServiceBuilder::validate` accepts both, and loading would refuse
        // both models: every weight overflows within an epoch, or one NaN
        // drug feature spreads through the encoder.
        let (diverged, _) = fit_small(
            5,
            |c| {
                c.md.learning_rate = 1e30;
                c.ddi.learning_rate = 1e30;
            },
            |_| {},
        );
        let (poisoned, _) = fit_small(5, |_| {}, |features| features.set(3, 7, f32::NAN));
        for trained in [diverged, poisoned] {
            match trained {
                Err(CoreError::InvalidInput { what }) => assert!(
                    what.contains("md.") && what.contains("NaN or infinite"),
                    "uncontextual: {what}"
                ),
                Err(other) => panic!("expected InvalidInput, got {other:?}"),
                Ok(_) => panic!("a model with non-finite parameters left training"),
            }
        }
    }

    #[test]
    fn empty_batch_returns_empty_without_workers_or_model() {
        // Fitted: empty in, empty out.
        let (service, _, _) = fitted_service(31);
        assert_eq!(service.suggest_batch_with_kb(&[], None).unwrap(), vec![]);
        // Support-only: an empty batch needs no model, so it must not be a
        // NotFitted error — a poller draining an empty queue is routine.
        let support = support_service(31);
        assert_eq!(support.suggest_batch_with_kb(&[], None).unwrap(), vec![]);
    }

    #[test]
    fn check_prescription_grades_with_kb_and_filters_by_policy() {
        use dssddi_kb::{EvidenceLevel, KbFact};
        let service = support_service(41);
        let mut kb =
            KnowledgeBase::from_ddi_graph(service.ddi_graph(), service.registry()).unwrap();
        // Upgrade the Fig. 8 pair to a contraindication with a hint.
        kb.upsert(
            61,
            59,
            KbFact {
                severity: Severity::Contraindicated,
                evidence: EvidenceLevel::Established,
                mechanism: "nitrate potentiation".to_string(),
                management: "do not combine".to_string(),
            },
        )
        .unwrap();
        let drugs = vec![
            DrugId::new(61),
            DrugId::new(59),
            DrugId::new(10),
            DrugId::new(5),
        ];

        // Default policy: everything reported, graded by the KB.
        let full = service
            .check_prescription_with_kb(&CheckPrescriptionRequest::new(drugs.clone()), Some(&kb))
            .unwrap();
        assert_eq!(full.kb_version, Some(kb.version()));
        assert!(full.has_contraindicated());
        assert_eq!(full.max_severity(), Some(Severity::Contraindicated));
        let hard_stop = full
            .antagonistic
            .iter()
            .find(|p| p.severity == Severity::Contraindicated)
            .expect("the upgraded pair is reported");
        assert_eq!(hard_stop.management.as_deref(), Some("do not combine"));
        // Graph-seeded facts grade by sign and carry no hint.
        for pair in &full.synergistic {
            assert_eq!(pair.severity, Severity::Minor);
            assert_eq!(pair.management, None);
        }

        // A Major-and-up policy filters the routine findings at the source
        // but the contraindication still fires.
        let gated = service
            .check_prescription_with_kb(
                &CheckPrescriptionRequest::new(drugs.clone())
                    .with_policy(AlertPolicy::at_least(Severity::Major)),
                Some(&kb),
            )
            .unwrap();
        assert_eq!(gated.antagonistic.len(), 1);
        assert_eq!(gated.antagonistic[0].severity, Severity::Contraindicated);
        assert!(gated.synergistic.is_empty(), "Minor synergies are muted");
        // The explanation is computed over the full drug set either way.
        assert_eq!(gated.explanation, full.explanation);

        // Without a KB, grades fall back to the sign defaults and no KB
        // version is recorded.
        let ungraded = service
            .check_prescription_with_kb(&CheckPrescriptionRequest::new(drugs), None)
            .unwrap();
        assert_eq!(ungraded.kb_version, None);
        for pair in &ungraded.antagonistic {
            assert_eq!(pair.severity, Severity::Moderate);
        }
    }

    #[test]
    fn kb_facts_without_graph_edges_still_fire() {
        use dssddi_kb::{EvidenceLevel, KbFact};
        let service = support_service(53);
        // Find a drug pair the DDI graph records nothing about.
        let n = service.registry().len();
        let (a, b) = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .find(|&(a, b)| service.ddi_graph().interaction(a, b).is_none())
            .expect("the paper graph is sparse; an unrecorded pair exists");
        let mut kb =
            KnowledgeBase::from_ddi_graph(service.ddi_graph(), service.registry()).unwrap();
        kb.upsert(
            a,
            b,
            KbFact {
                severity: Severity::Contraindicated,
                evidence: EvidenceLevel::Established,
                mechanism: "post-marketing signal".to_string(),
                management: "do not combine".to_string(),
            },
        )
        .unwrap();
        // Without the KB the pair is invisible; with it, the curated hard
        // stop fires even though the graph has no edge.
        let request = CheckPrescriptionRequest::new(vec![DrugId::new(a), DrugId::new(b)]);
        let ungraded = service.check_prescription_with_kb(&request, None).unwrap();
        assert!(ungraded.is_safe());
        let graded = service
            .check_prescription_with_kb(&request, Some(&kb))
            .unwrap();
        assert!(!graded.is_safe());
        assert!(graded.has_contraindicated());
        assert_eq!(graded.antagonistic.len(), 1);
        assert_eq!(
            graded.antagonistic[0].interaction,
            Interaction::None,
            "a KB-only finding keeps the graph's (non-)sign"
        );
        assert_eq!(
            graded.antagonistic[0].management.as_deref(),
            Some("do not combine")
        );
        // The suggest-side contraindication filter holds on the KB fact
        // alone too: candidate `b` is dropped when the patient takes `a`.
        let (fitted, cohort, held_out) = fitted_service(53);
        let patient = held_out[0];
        let features = cohort.features().row(patient).to_vec();
        let filters = SuggestFilters {
            exclude_contraindicated_with: vec![DrugId::new(a)],
            ..Default::default()
        };
        let mut fitted_kb =
            KnowledgeBase::from_ddi_graph(fitted.ddi_graph(), fitted.registry()).unwrap();
        fitted_kb
            .upsert(
                a,
                b,
                KbFact {
                    severity: Severity::Contraindicated,
                    evidence: EvidenceLevel::Established,
                    mechanism: String::new(),
                    management: String::new(),
                },
            )
            .unwrap();
        let safe = fitted
            .suggest_with_kb(
                &SuggestRequest::new(PatientId::new(patient), features, n - 1)
                    .with_filters(filters),
                Some(&fitted_kb),
            )
            .unwrap();
        assert!(safe.drugs.iter().all(|d| d.id.index() != b));
    }

    #[test]
    fn kb_over_a_foreign_formulary_is_rejected() {
        let service = support_service(43);
        let foreign = DrugRegistry::from_names(vec!["A".to_string(), "B".to_string()]).unwrap();
        let kb = KnowledgeBase::new(&foreign);
        assert!(matches!(
            service.check_prescription_with_kb(
                &CheckPrescriptionRequest::new(vec![DrugId::new(1)]),
                Some(&kb),
            ),
            Err(CoreError::InvalidInput { .. })
        ));
        let (fitted, cohort, held_out) = fitted_service(43);
        let request = SuggestRequest::new(
            PatientId::new(held_out[0]),
            cohort.features().row(held_out[0]).to_vec(),
            3,
        );
        assert!(matches!(
            fitted.suggest_with_kb(&request, Some(&kb)),
            Err(CoreError::InvalidInput { .. })
        ));
    }

    #[test]
    fn contraindicated_candidates_are_excluded_from_suggestions() {
        use dssddi_kb::{EvidenceLevel, KbFact};
        let (service, cohort, held_out) = fitted_service(47);
        // Take a real antagonistic edge and upgrade it to a contraindication.
        let (taken, candidate) = service.ddi_graph().edges_of(Interaction::Antagonistic)[0];
        let mut kb =
            KnowledgeBase::from_ddi_graph(service.ddi_graph(), service.registry()).unwrap();
        kb.upsert(
            taken,
            candidate,
            KbFact {
                severity: Severity::Contraindicated,
                evidence: EvidenceLevel::Established,
                mechanism: String::new(),
                management: "never together".to_string(),
            },
        )
        .unwrap();
        let patient = held_out[0];
        let features = cohort.features().row(patient).to_vec();
        let n = service.registry().len();

        // Unfiltered, every drug is rankable (k = n succeeds).
        let all = service
            .suggest_with_kb(
                &SuggestRequest::new(PatientId::new(patient), features.clone(), n),
                None,
            )
            .unwrap();
        assert!(all.drugs.iter().any(|d| d.id.index() == candidate));

        let filters = SuggestFilters {
            exclude_contraindicated_with: vec![DrugId::new(taken)],
            ..Default::default()
        };
        // With the KB, the contraindicated candidate is gone.
        let safe = service
            .suggest_with_kb(
                &SuggestRequest::new(PatientId::new(patient), features.clone(), n - 1)
                    .with_filters(filters.clone()),
                Some(&kb),
            )
            .unwrap();
        assert!(safe.drugs.iter().all(|d| d.id.index() != candidate));
        // Without a KB no grade can reach Contraindicated: the same filter
        // passes everything and the candidate ranks again.
        let ungraded = service
            .suggest_with_kb(
                &SuggestRequest::new(PatientId::new(patient), features, n - 1)
                    .with_filters(filters),
                None,
            )
            .unwrap();
        assert!(ungraded.drugs.iter().any(|d| d.id.index() == candidate));
    }

    #[test]
    fn check_prescription_classifies_paper_pairs() {
        let service = support_service(17);
        // Fig. 9 case 1: Indapamide (10) + Perindopril (5) is synergistic.
        let report = service
            .check_prescription_with_kb(
                &CheckPrescriptionRequest::new(vec![DrugId::new(10), DrugId::new(5)])
                    .for_patient(PatientId::new(1)),
                None,
            )
            .unwrap();
        assert!(report.is_safe());
        assert_eq!(report.synergistic.len(), 1);
        assert_eq!(report.patient, Some(PatientId::new(1)));
        assert!(report.suggestion_satisfaction > 0.0);

        // A duplicated drug must not double-report its interactions.
        let dup = service
            .check_prescription_with_kb(
                &CheckPrescriptionRequest::new(vec![
                    DrugId::new(10),
                    DrugId::new(5),
                    DrugId::new(10),
                ]),
                None,
            )
            .unwrap();
        assert_eq!(dup.drugs.len(), 2, "prescription is a set");
        assert_eq!(dup.synergistic.len(), 1);

        // Reordering the same drugs keeps their first-seen order in the
        // report but cannot change the explanation. (Explained in request
        // order, these two orders gave SS 0.378 and 0.417.)
        let ids = |order: [usize; 3]| order.map(DrugId::new).to_vec();
        let forward = service
            .check_prescription_with_kb(&CheckPrescriptionRequest::new(ids([10, 5, 50])), None)
            .unwrap();
        let backward = service
            .check_prescription_with_kb(&CheckPrescriptionRequest::new(ids([50, 5, 10])), None)
            .unwrap();
        assert_eq!(forward.drugs[0].id, DrugId::new(10));
        assert_eq!(backward.drugs[0].id, DrugId::new(50));
        assert_eq!(forward.explanation, backward.explanation);
        assert_eq!(
            forward.suggestion_satisfaction.to_bits(),
            backward.suggestion_satisfaction.to_bits()
        );

        assert!(service
            .check_prescription_with_kb(&CheckPrescriptionRequest::new(vec![]), None)
            .is_err());
        assert!(matches!(
            service.check_prescription_with_kb(
                &CheckPrescriptionRequest::new(vec![DrugId::new(999)]),
                None
            ),
            Err(CoreError::UnknownDrug { .. })
        ));
    }
}
