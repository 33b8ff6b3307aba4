//! # dssddi-core
//!
//! The DSSDDI decision support system of Bian et al. (ICDE 2023):
//!
//! * [`ddi_module`] — the Drug-Drug Interaction module: DDIGCN learns drug
//!   relation embeddings from the signed DDI graph by edge regression
//!   (Section IV-A), with GIN / SGCN / SiGAT / SNEA backbones. It is a
//!   training step: fitting adds its embeddings into the MD module's drug
//!   representations, and the fitted engine does not keep it.
//! * [`md_module`] — the Medical Decision module: counterfactual link
//!   construction over the patient–drug bipartite graph (Section IV-B1) and
//!   MDGCN, a LightGCN-style encoder with a personalised patient branch and
//!   an MLP decoder conditioned on the treatment variable (Eq. 9–18).
//! * [`ms_module`] — the Medical Support module: closest-truss-community
//!   explanation subgraphs and the Suggestion Satisfaction measure
//!   (Section IV-C, Eq. 19), served through one [`ExplanationEngine`] per
//!   DDI graph and MS configuration.
//! * [`system`] — the end-to-end [`Dssddi`] engine: train DDIGCN on the DDI
//!   graph and MDGCN on observed patients, keep the MD module, predict
//!   medication-use scores for new patients, and explain drug sets.
//! * [`service`] — the doctor-facing [`DecisionService`]: typed suggestion
//!   and prescription-critique requests over a fitted engine.

#![warn(missing_docs)]

pub mod config;
pub mod counterfactual;
pub mod ddi_module;
pub mod md_module;
pub mod ms_module;
mod persist;
pub mod service;
pub mod sync;
pub mod system;

pub use config::{Backbone, DdiModuleConfig, DssddiConfig, MdModuleConfig, MsModuleConfig};
pub use counterfactual::{CounterfactualLinks, TreatmentMatrix};
pub use ddi_module::DdiModule;
pub use md_module::MdModule;
pub use ms_module::{
    suggestion_satisfaction, Explanation, ExplanationCache, ExplanationEngine, ExplanationIndex,
    SignedEdge, DEFAULT_EXPLANATION_CACHE_CAPACITY,
};
pub use service::{
    CheckPrescriptionRequest, DecisionService, DrugId, InteractionReport, PairInteraction,
    PatientId, ScoredDrug, ServiceBuilder, SuggestFilters, SuggestRequest, SuggestResponse,
    DSSD_FORMAT_VERSION, DSSD_MAGIC,
};
pub use system::Dssddi;

// The clinical knowledge-base types travel with the request/response types
// they annotate (`CheckPrescriptionRequest.policy`, `PairInteraction.severity`),
// so re-export them here for single-crate consumers.
pub use dssddi_kb::{AlertPolicy, KbError, KbInfo, KnowledgeBase, Severity};

use dssddi_data::DataError;
use dssddi_graph::GraphError;
use dssddi_ml::MlError;
use dssddi_tensor::TensorError;

/// The single error type produced everywhere in the DSSDDI system, from data
/// assembly through training to clinical requests.
///
/// Contextual variants carry owned, formatted messages so callers see *which*
/// value was wrong, not just that one was. The enum is `#[non_exhaustive]`:
/// new failure modes may be added without a breaking change, so downstream
/// matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A tensor/autodiff operation failed (almost always a shape bug).
    Tensor(TensorError),
    /// A graph operation failed.
    Graph(GraphError),
    /// A classical ML component failed.
    Ml(MlError),
    /// A data generator or registry operation failed.
    Data(DataError),
    /// A configuration value is invalid for the requested operation.
    InvalidConfig {
        /// Description of the invalid configuration.
        what: String,
    },
    /// The module has not been fitted yet or its inputs are inconsistent.
    InvalidInput {
        /// Description of the problem.
        what: String,
    },
    /// A drug referenced by name or ID is not in the service's registry.
    UnknownDrug {
        /// The name or ID the caller asked for.
        query: String,
    },
    /// A clinical request needs a fitted model the service was built without.
    NotFitted {
        /// The operation that was requested.
        operation: String,
    },
    /// Saving or loading persisted model state failed (truncated, corrupt or
    /// version-mismatched file, or a registry that does not match the one the
    /// service was persisted with).
    Persistence {
        /// Description of the failure.
        what: String,
    },
}

impl CoreError {
    /// A [`CoreError::InvalidConfig`] with a contextual message.
    pub fn invalid_config(what: impl Into<String>) -> Self {
        CoreError::InvalidConfig { what: what.into() }
    }

    /// A [`CoreError::InvalidInput`] with a contextual message.
    pub fn invalid_input(what: impl Into<String>) -> Self {
        CoreError::InvalidInput { what: what.into() }
    }

    /// A [`CoreError::UnknownDrug`] for a failed registry lookup.
    pub fn unknown_drug(query: impl Into<String>) -> Self {
        CoreError::UnknownDrug {
            query: query.into(),
        }
    }

    /// A [`CoreError::NotFitted`] for an operation requiring a trained model.
    pub fn not_fitted(operation: impl Into<String>) -> Self {
        CoreError::NotFitted {
            operation: operation.into(),
        }
    }

    /// A [`CoreError::Persistence`] with a contextual message.
    pub fn persistence(what: impl Into<String>) -> Self {
        CoreError::Persistence { what: what.into() }
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Tensor(e) => write!(f, "tensor error: {e}"),
            CoreError::Graph(e) => write!(f, "graph error: {e}"),
            CoreError::Ml(e) => write!(f, "ml error: {e}"),
            CoreError::Data(e) => write!(f, "data error: {e}"),
            CoreError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            CoreError::InvalidInput { what } => write!(f, "invalid input: {what}"),
            CoreError::UnknownDrug { query } => {
                write!(f, "unknown drug {query:?}: not in the service's formulary")
            }
            CoreError::NotFitted { operation } => {
                write!(
                    f,
                    "{operation} requires a fitted model; this service was built without one"
                )
            }
            CoreError::Persistence { what } => write!(f, "persistence error: {what}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Tensor(e) => Some(e),
            CoreError::Graph(e) => Some(e),
            CoreError::Ml(e) => Some(e),
            CoreError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for CoreError {
    fn from(e: DataError) -> Self {
        CoreError::Data(e)
    }
}

impl From<TensorError> for CoreError {
    fn from(e: TensorError) -> Self {
        CoreError::Tensor(e)
    }
}

impl From<GraphError> for CoreError {
    fn from(e: GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<MlError> for CoreError {
    fn from(e: MlError) -> Self {
        CoreError::Ml(e)
    }
}

impl From<dssddi_tensor::serde::SerdeError> for CoreError {
    fn from(e: dssddi_tensor::serde::SerdeError) -> Self {
        CoreError::Persistence {
            what: e.to_string(),
        }
    }
}
