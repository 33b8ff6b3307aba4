//! # dssddi-ml
//!
//! Classical machine-learning substrate for the DSSDDI reproduction:
//! k-means clustering (used by the Medical Decision module to define
//! treatments), logistic regression and linear SVMs (baselines), Ensemble
//! Classifier Chains (the ECC baseline) and the ranking metrics of the
//! paper's evaluation (Precision@k, Recall@k, NDCG@k).

#![warn(missing_docs)]

pub mod ecc;
pub mod kmeans;
pub mod logistic;
pub mod metrics;
pub mod svm;

pub use ecc::{EccConfig, EnsembleClassifierChain};
pub use kmeans::{fit_kmeans, KMeans};
pub use logistic::{LogisticConfig, LogisticRegression};
pub use metrics::{
    ndcg_at_k, precision_at_k, ranking_metrics, recall_at_k, top_k_indices, RankingMetrics,
};
pub use svm::{LinearSvm, SvmConfig};

/// Errors produced by the classical ML models and metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlError {
    /// The input collection was empty.
    EmptyInput {
        /// Description of the missing input.
        what: &'static str,
    },
    /// Two inputs that must agree in size do not.
    DimensionMismatch {
        /// Expected size.
        expected: usize,
        /// Size found.
        found: usize,
        /// Description of the mismatching quantity.
        what: &'static str,
    },
    /// A hyperparameter or argument was invalid.
    InvalidArgument {
        /// Description of the invalid argument.
        what: &'static str,
    },
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::EmptyInput { what } => write!(f, "empty input: {what}"),
            MlError::DimensionMismatch {
                expected,
                found,
                what,
            } => {
                write!(
                    f,
                    "dimension mismatch for {what}: expected {expected}, found {found}"
                )
            }
            MlError::InvalidArgument { what } => write!(f, "invalid argument: {what}"),
        }
    }
}

impl std::error::Error for MlError {}
