//! # dssddi-serving
//!
//! The multi-tenant serving gateway around [`dssddi_core::DecisionService`]:
//! the paper's decision support system is meant to sit inside a clinical
//! workflow and critique prescriptions for many patients across many chronic
//! conditions, so the real deployment surface is a *server*, not an
//! in-process struct. This crate redesigns the serving API around that
//! story:
//!
//! * [`router`] — [`ModelCatalog`] owns several fitted services keyed by a
//!   [`ModelKey`] (a disease/cohort shard), loaded from `DSSD` files;
//!   [`Router`] routes typed requests to the right shard and keeps per-model
//!   serving statistics (requests served, cache hit rate, p50/p99 latency).
//!   The catalog owns the gateway's metrics registry, the one store of
//!   those counts.
//! * [`wire`] — a versioned, dependency-free binary wire protocol built on
//!   [`dssddi_tensor::serde`]'s `ByteWriter`/`ByteReader`: framed
//!   `Suggest` / `SuggestBatch` / `CheckPrescription` / `ListModels` /
//!   `Stats` request/response messages with magic bytes, protocol version,
//!   payload length and CRC-32. Malformed, truncated or version-mismatched
//!   frames produce typed errors and never panic.
//! * [`server`] — `dssddi-serve`'s engine: a `std::net::TcpListener`
//!   thread-per-connection [`Server`] that serves each frame, batches
//!   included, on its connection's thread.
//! * [`client`] — a blocking [`Client`] speaking the same wire protocol.
//! * [`telemetry`] — every hot point (per-model counts, admission sheds,
//!   queue wait, per-stage serving latency, severity-graded findings,
//!   replica sync, transport counters) counts into the gateway's
//!   [`dssddi_obs`] metrics registry; `Stats` reads it back and
//!   `dssddi-serve --metrics-listen` serves it.
//!   Requests carry an optional wire-propagated trace ID and the slowest
//!   recent requests land in a per-router exemplar ring, dumpable over the
//!   wire with [`Client::trace_dump`].
//!
//! The quickstart story becomes *train → save → serve → query over the
//! network*:
//!
//! ```no_run
//! use dssddi_core::{DecisionService, SuggestRequest, PatientId};
//! use dssddi_serving::{Client, ModelCatalog, ModelKey, Router, Server};
//!
//! // Serving host: load trained DSSD files into a catalog and serve them.
//! let mut catalog = ModelCatalog::new();
//! catalog.load_file(ModelKey::new("chronic")?, "chronic.dssd")?;
//! let server = Server::bind("127.0.0.1:0", Router::new(catalog))?;
//! let addr = server.local_addr()?;
//! std::thread::spawn(move || server.run());
//!
//! // Clinical client: typed requests over the wire, typed responses back.
//! let mut client = Client::connect(addr)?;
//! for model in client.list_models()? {
//!     println!("{} (fitted: {})", model.key, model.fitted);
//! }
//! let request = SuggestRequest::new(PatientId::new(0), vec![0.0; 25], 3);
//! let response = client.suggest(&ModelKey::new("chronic")?, &request)?;
//! for drug in &response.drugs {
//!     println!("{}: {:.3}", drug.name, drug.score);
//! }
//! # Ok::<(), dssddi_serving::ServingError>(())
//! ```
//!
//! Responses are **byte-identical** to calling the fitted service
//! in-process: scores and suggestion-satisfaction values round-trip as
//! IEEE-754 bit patterns, and the integration tests assert bit-equality
//! between `Client` responses and `DecisionService`'s `_with_kb` entry
//! points for every message type.

#![warn(missing_docs)]
// The serving path must degrade into typed errors, never panics: malformed
// frames, unknown models and damaged files are routine input for a
// long-lived gateway. The `unwrap_used`/`expect_used` denies are inherited
// from `[workspace.lints]`.

use std::fmt;

use dssddi_core::CoreError;
use dssddi_kb::KbError;

pub mod admission;
pub mod client;
pub mod demo;
pub mod router;
pub mod server;
pub mod telemetry;
pub mod wire;

pub use admission::{AdmissionConfig, RateLimit, TokenBucket};
pub use client::{Client, RetryPolicy};
pub use dssddi_kb::{AlertPolicy, KbInfo, KnowledgeBase, Severity};
pub use dssddi_obs::trace::TraceExemplar;
pub use router::{
    GatewayStats, KeyVersions, ModelCatalog, ModelInfo, ModelKey, ModelStats, ReplicaStats, Router,
    StatsReport,
};
pub use server::{Server, ServerConfig};
pub use telemetry::ReplicaState;
pub use wire::{ErrorCode, Request, Response, SyncArtifact, WireError};

/// The single error type of the serving gateway, covering routing, wire
/// protocol and transport failures on both ends of a connection.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServingError {
    /// A model key failed validation.
    InvalidKey {
        /// Description of the offending key.
        what: String,
    },
    /// A model was registered under a key the catalog already holds.
    DuplicateModel {
        /// The contested key.
        key: String,
    },
    /// A request named a model the catalog does not hold.
    UnknownModel {
        /// The key the caller asked for.
        key: String,
        /// The keys the catalog actually serves.
        available: Vec<String>,
    },
    /// A hot-reload artifact (model or knowledge base) describes a
    /// different formulary than the live shard it would replace.
    FormularyMismatch {
        /// The shard key the reload targeted.
        key: String,
        /// Description of the mismatch.
        what: String,
    },
    /// A knowledge-base operation failed (malformed TSV, damaged `DSKB`
    /// container, foreign formulary).
    Kb(KbError),
    /// The routed service rejected the request (or failed to load).
    Core(CoreError),
    /// A wire frame could not be written, read or decoded.
    Wire(WireError),
    /// Admission control shed the request before it reached a model: the
    /// shard's token bucket or quota was exhausted, or the gateway's
    /// bounded request queue was full. The request never executed, so
    /// retrying after a backoff is safe (see [`client::RetryPolicy`]).
    Overloaded {
        /// The shard the request targeted ("*" for the global queue).
        key: String,
        /// Which limit shed the request.
        what: String,
    },
    /// A socket-level failure outside frame I/O (bind, connect, accept).
    Io {
        /// Description including the underlying error.
        what: String,
    },
    /// The server answered with a typed error frame.
    Remote {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable server-side message.
        message: String,
    },
    /// The peer violated the protocol (e.g. answered a `Suggest` request
    /// with a `Stats` response).
    Protocol {
        /// Description of the violation.
        what: String,
    },
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::InvalidKey { what } => write!(f, "invalid model key: {what}"),
            ServingError::DuplicateModel { key } => {
                write!(f, "model key {key:?} is already registered in the catalog")
            }
            ServingError::UnknownModel { key, available } => write!(
                f,
                "unknown model {key:?}; this gateway serves: {}",
                if available.is_empty() {
                    "(no models)".to_string()
                } else {
                    available.join(", ")
                }
            ),
            ServingError::FormularyMismatch { key, what } => {
                write!(f, "reload rejected for model {key:?}: {what}")
            }
            ServingError::Kb(e) => write!(f, "knowledge base error: {e}"),
            ServingError::Core(e) => write!(f, "service error: {e}"),
            ServingError::Wire(e) => write!(f, "wire protocol error: {e}"),
            ServingError::Overloaded { key, what } => {
                write!(f, "overloaded: request for model {key:?} shed ({what})")
            }
            ServingError::Io { what } => write!(f, "i/o error: {what}"),
            ServingError::Remote { code, message } => {
                write!(f, "server error ({code}): {message}")
            }
            ServingError::Protocol { what } => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ServingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServingError::Core(e) => Some(e),
            ServingError::Wire(e) => Some(e),
            ServingError::Kb(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServingError {
    fn from(e: CoreError) -> Self {
        ServingError::Core(e)
    }
}

impl From<KbError> for ServingError {
    fn from(e: KbError) -> Self {
        ServingError::Kb(e)
    }
}

impl From<WireError> for ServingError {
    fn from(e: WireError) -> Self {
        ServingError::Wire(e)
    }
}
