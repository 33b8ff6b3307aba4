//! The versioned binary wire protocol of the serving gateway.
//!
//! Every message travels in the frame of [`dssddi_tensor::serde`], the
//! shape of the `DSSD` and `DSKB` containers, under its own magic bytes and
//! versions so a model file can never be confused with a network frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic bytes WIRE_MAGIC
//! 4       2     protocol version (little-endian u16): WIRE_VERSION, or
//!               WIRE_VERSION_TRACED for a traced frame
//! 6       8     payload length in bytes (little-endian u64)
//! 14      n     payload: the extension block (traced frames only), then
//!               the tagged message
//! 14+n    4     CRC-32 (IEEE) of the payload (little-endian u32)
//! ```
//!
//! The tagged message opens with a one-byte tag followed by the message
//! body, encoded with the same bounds-checked `ByteWriter`/`ByteReader`
//! primitives the model container uses. [`RequestTag`] and [`ResponseTag`]
//! are the tag registry: each value is written once, as an enum
//! discriminant, so the compiler rejects a duplicate, and the encoder and
//! decoder both match exhaustively on the enum. `f32`/`f64` values travel
//! as their IEEE-754 bit patterns, so scores and suggestion-satisfaction
//! values are **bit-identical** after a round trip — a remote client sees
//! exactly the numbers an in-process caller would.
//!
//! Message bodies have grown appended fields without a version bump, so a
//! peer from an older build reports `Malformed` decode errors rather than
//! a version mismatch: both ends of a deployment run the same build. A
//! change that needs mixed-version interop bumps the version instead.
//!
//! ## Traced frames
//!
//! A frame carrying a request trace ID seals under [`WIRE_VERSION_TRACED`]
//! and its payload opens with an *extension block* before the tagged
//! message. Untraced frames are byte-identical to builds without tracing.
//!
//! ```text
//! offset  size  field
//! 0       1     extension count (u8)
//! —  per extension, repeated `count` times —
//! +0      1     extension type (u8), e.g. EXT_TRACE_ID
//! +1      1     extension value length in bytes (u8)
//! +2      len   extension value
//! ```
//!
//! Unknown extension types are skipped on decode, so the block can grow
//! without another version bump. [`EXT_TRACE_ID`] carries the request
//! trace ID, minted at the client edge (or by the gateway when absent) and
//! threaded through the serving pipeline into per-stage [`SpanRecorder`]
//! breakdowns.
//!
//! Decoding is fully defensive: truncated frames, flipped bits (caught by
//! the CRC), foreign magic bytes, future protocol versions, unknown message
//! tags and oversized declared lengths all produce typed [`WireError`]s —
//! never a panic, and never an allocation sized from an unvalidated length.
//!
//! [`SpanRecorder`]: dssddi_obs::SpanRecorder

use std::fmt;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

use dssddi_core::{
    CheckPrescriptionRequest, DrugId, Explanation, InteractionReport, PairInteraction, PatientId,
    ScoredDrug, SignedEdge, SuggestFilters, SuggestRequest, SuggestResponse,
};
use dssddi_graph::{Community, Interaction};
use dssddi_kb::{AlertPolicy, KbInfo, Severity};
use dssddi_obs::trace::{TraceExemplar, STAGE_COUNT};
use dssddi_tensor::serde::{
    open_frame, parse_frame_header, seal_frame, ByteReader, ByteWriter, SerdeError,
    FRAME_HEADER_LEN,
};

use crate::router::{
    GatewayStats, KeyVersions, ModelInfo, ModelKey, ModelStats, ReplicaStats, StatsReport,
};
use crate::ServingError;

/// Magic bytes opening every wire frame ("DSsddi WiRe").
pub const WIRE_MAGIC: [u8; 4] = *b"DSWR";

/// Wire protocol version of untraced frames — the default.
pub const WIRE_VERSION: u16 = 1;

/// Wire protocol version of *traced* frames: the payload opens with the
/// extension block (carrying the request trace ID) before the tagged
/// message. Both versions are accepted on decode; old peers that only
/// speak version 1 interoperate with any peer that leaves tracing off.
pub const WIRE_VERSION_TRACED: u16 = 2;

/// Every protocol version this build decodes.
const WIRE_SUPPORTED_VERSIONS: [u16; 2] = [WIRE_VERSION, WIRE_VERSION_TRACED];

/// Frame-extension type carrying the 8-byte little-endian u64 request
/// trace ID in a traced frame's extension block.
pub const EXT_TRACE_ID: u8 = 1;

/// Upper bound on a frame's declared payload length. A 64-request batch
/// with wide feature vectors is a few hundred kilobytes; 16 MiB leaves two
/// orders of magnitude of headroom while keeping a malicious length prefix
/// from turning into a giant allocation.
pub const MAX_FRAME_PAYLOAD: usize = 16 << 20;

/// Most bytes [`read_frame`] adds to its buffer at a time while a frame
/// arrives, so a peer that declares a large payload and then stalls pins
/// at most this much beyond what it sent. Suggestion, batch and critique
/// frames fit in one step.
const READ_STEP: usize = 64 << 10;

/// Declares a one-byte wire value space as a fieldless `#[repr(u8)]` enum
/// whose discriminants are the wire bytes. Each value is written once, so
/// rustc rejects a duplicate (E0081); `ALL` and `from_u8` are derived from
/// the same declaration.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$variant_meta:meta])* $variant:ident = $value:literal, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum $name {
            $( $(#[$variant_meta])* $variant = $value, )+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: [$name; [$($value),+].len()] = [$($name::$variant),+];

            /// The variant whose wire byte is `byte`, if one is assigned.
            pub fn from_u8(byte: u8) -> Option<Self> {
                match byte {
                    $( $value => Some($name::$variant), )+
                    _ => None,
                }
            }
        }
    };
}

wire_enum! {
    /// The tag opening a request's tagged message. Tags are assigned once
    /// and never reused. Tag 7 is retired: an early protocol draft assigned
    /// it and never shipped it, so it stays unassigned and a stale build can
    /// never misparse a current frame.
    #[non_exhaustive]
    pub enum RequestTag {
        /// [`Request::Suggest`].
        Suggest = 1,
        /// [`Request::SuggestBatch`].
        SuggestBatch = 2,
        /// [`Request::CheckPrescription`].
        CheckPrescription = 3,
        /// [`Request::ListModels`].
        ListModels = 4,
        /// [`Request::Stats`].
        Stats = 5,
        /// [`Request::Shutdown`].
        Shutdown = 6,
        /// [`Request::ReloadModel`].
        ReloadModel = 8,
        /// [`Request::ReloadKb`].
        ReloadKb = 9,
        /// [`Request::KbInfo`].
        KbInfo = 10,
        /// [`Request::Ping`].
        Ping = 11,
        /// [`Request::PeerStatus`].
        PeerStatus = 12,
        /// [`Request::PeerSync`].
        PeerSync = 13,
        /// [`Request::TraceDump`].
        TraceDump = 14,
    }
}

wire_enum! {
    /// The tag opening a response's tagged message. A response reuses the
    /// value of the request it answers, except that `ShuttingDown` takes the
    /// value after `Shutdown`'s; `Error` answers a failed request of any kind.
    #[non_exhaustive]
    pub enum ResponseTag {
        /// [`Response::Error`].
        Error = 0,
        /// [`Response::Suggest`].
        Suggest = 1,
        /// [`Response::SuggestBatch`].
        SuggestBatch = 2,
        /// [`Response::CheckPrescription`].
        CheckPrescription = 3,
        /// [`Response::ListModels`].
        ListModels = 4,
        /// [`Response::Stats`].
        Stats = 5,
        /// [`Response::ShuttingDown`], the answer to [`Request::Shutdown`].
        ShuttingDown = 7,
        /// [`Response::ModelReloaded`], the answer to [`Request::ReloadModel`].
        ModelReloaded = 8,
        /// [`Response::KbReloaded`], the answer to [`Request::ReloadKb`].
        KbReloaded = 9,
        /// [`Response::KbInfo`].
        KbInfo = 10,
        /// [`Response::Pong`], the answer to [`Request::Ping`].
        Pong = 11,
        /// [`Response::PeerStatus`].
        PeerStatus = 12,
        /// [`Response::PeerSync`].
        PeerSync = 13,
        /// [`Response::TraceDump`].
        TraceDump = 14,
    }
}

/// Errors produced while reading, writing or decoding wire frames.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The frame or its payload failed validation (bad magic, version
    /// mismatch, truncation, CRC mismatch, unknown tag, corrupt field).
    Decode(SerdeError),
    /// The frame header declared a payload larger than [`MAX_FRAME_PAYLOAD`].
    Oversized {
        /// Length the header declared.
        declared: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// The peer closed the connection cleanly between frames.
    ConnectionClosed,
    /// A read timeout fired before any byte of a frame arrived — the
    /// connection is idle, not broken. Only produced when the caller has
    /// set a read timeout on the stream; servers use it to poll their
    /// shutdown flag between requests.
    IdleTimeout,
    /// A read timeout fired *mid-frame*, or while a client was waiting for
    /// the response to a request it had already sent: the peer stalled.
    /// Only produced when the caller has set a read timeout on the stream
    /// (see `Client::connect_timeout` / `Client::set_read_timeout`).
    Timeout,
    /// A socket read or write failed mid-frame.
    Io {
        /// Description including the underlying error.
        what: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Decode(e) => write!(f, "frame decode error: {e}"),
            WireError::Oversized { declared, max } => write!(
                f,
                "frame declares a {declared}-byte payload, above the {max}-byte limit"
            ),
            WireError::ConnectionClosed => write!(f, "connection closed by peer"),
            WireError::IdleTimeout => write!(f, "read timed out with no frame in flight"),
            WireError::Timeout => write!(f, "peer did not complete a frame within the timeout"),
            WireError::Io { what } => write!(f, "frame i/o error: {what}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SerdeError> for WireError {
    fn from(e: SerdeError) -> Self {
        WireError::Decode(e)
    }
}

wire_enum! {
    /// Machine-readable classification of a server-side failure, carried in
    /// [`Response::Error`] frames so remote callers can branch on the
    /// failure class without parsing messages. The codes are numbered
    /// densely from 1, and [`ErrorCode::ALL`] lists them in that order —
    /// the per-model error breakdown iterates it.
    #[non_exhaustive]
    pub enum ErrorCode {
        /// The request frame or payload could not be decoded.
        Malformed = 1,
        /// The request named a model the gateway does not serve.
        UnknownModel = 2,
        /// A drug reference fell outside the routed model's formulary.
        UnknownDrug = 3,
        /// The routed service rejected the request's content.
        InvalidInput = 4,
        /// The request needs a fitted model and the routed shard has none.
        NotFitted = 5,
        /// Any other server-side failure.
        Internal = 6,
        /// A persisted artifact (`DSSD` model or `DSKB` knowledge base) was
        /// damaged, version-mismatched or described the wrong formulary —
        /// the reload failure class.
        Persistence = 7,
        /// Admission control shed the request: the gateway (or the routed
        /// shard) is at its configured rate limit, quota or queue bound.
        /// The request was never executed — retrying after a backoff is
        /// safe and is what `Client`'s opt-in retry policy does.
        Overloaded = 8,
    }
}

impl ErrorCode {
    /// Position of this code in [`ErrorCode::ALL`] (dense counter index).
    pub(crate) fn index(self) -> usize {
        self as usize - 1
    }

    /// The error class a [`ServingError`] reports as — what `Error` frames
    /// carry and what the per-model error breakdown counts.
    pub fn classify(error: &ServingError) -> ErrorCode {
        use dssddi_core::CoreError;
        match error {
            ServingError::UnknownModel { .. } => ErrorCode::UnknownModel,
            ServingError::Wire(_) | ServingError::Protocol { .. } => ErrorCode::Malformed,
            ServingError::Kb(_) | ServingError::FormularyMismatch { .. } => ErrorCode::Persistence,
            ServingError::Overloaded { .. } => ErrorCode::Overloaded,
            ServingError::Core(CoreError::UnknownDrug { .. }) => ErrorCode::UnknownDrug,
            ServingError::Core(CoreError::NotFitted { .. }) => ErrorCode::NotFitted,
            ServingError::Core(CoreError::Persistence { .. }) => ErrorCode::Persistence,
            ServingError::Core(CoreError::InvalidInput { .. })
            | ServingError::Core(CoreError::InvalidConfig { .. }) => ErrorCode::InvalidInput,
            _ => ErrorCode::Internal,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnknownModel => "unknown-model",
            ErrorCode::UnknownDrug => "unknown-drug",
            ErrorCode::InvalidInput => "invalid-input",
            ErrorCode::NotFitted => "not-fitted",
            ErrorCode::Persistence => "persistence",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Internal => "internal",
        };
        f.write_str(name)
    }
}

wire_enum! {
    /// Which replicated artifact a [`Request::PeerSync`] pull targets: the
    /// trained model (`DSSD` container) or the knowledge base (`DSKB`
    /// container) behind a shard key.
    pub enum SyncArtifact {
        /// The shard's trained model, shipped as a complete `DSSD` container.
        Model = 0,
        /// The shard's knowledge base, shipped as a complete `DSKB` container.
        Kb = 1,
    }
}

impl fmt::Display for SyncArtifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SyncArtifact::Model => "model",
            SyncArtifact::Kb => "kb",
        })
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Request {
    /// Top-k medication suggestion for one patient on one model shard.
    Suggest {
        /// The shard to route to.
        model: ModelKey,
        /// The typed suggestion request.
        request: SuggestRequest,
    },
    /// A batch of suggestion requests served by one model shard in a single
    /// sharded prediction pass.
    SuggestBatch {
        /// The shard to route to.
        model: ModelKey,
        /// The typed suggestion requests.
        requests: Vec<SuggestRequest>,
    },
    /// Critique of an existing prescription against one shard's DDI graph.
    CheckPrescription {
        /// The shard to route to.
        model: ModelKey,
        /// The typed prescription-check request.
        request: CheckPrescriptionRequest,
    },
    /// Hot-swap the model behind a live key with a re-trained `DSSD`
    /// container shipped in the frame. The replacement must serve the same
    /// formulary; in-flight requests finish on the old model.
    ReloadModel {
        /// The shard to swap.
        model: ModelKey,
        /// A complete `DSSD` container (as produced by
        /// `DecisionService::save`).
        container: Vec<u8>,
    },
    /// Hot-swap the knowledge base paired with a live key with a `DSKB`
    /// container shipped in the frame.
    ReloadKb {
        /// The shard whose KB to swap.
        model: ModelKey,
        /// A complete `DSKB` container (as produced by
        /// `KnowledgeBase::save`).
        container: Vec<u8>,
    },
    /// Summary of the knowledge base paired with one shard.
    KbInfo {
        /// The shard to describe.
        model: ModelKey,
    },
    /// Enumerate the models the gateway serves.
    ListModels,
    /// Per-model serving statistics.
    Stats,
    /// Control-plane liveness check: answered with [`Response::Pong`]
    /// without touching any shard and without passing admission control.
    Ping,
    /// Replica-to-replica version-vector exchange: the requester reports
    /// the per-key `(model_version, kb_version)` pairs it holds and the
    /// responder answers with its own, so one round trip tells both sides
    /// who is ahead (gossip-style anti-entropy probe).
    PeerStatus {
        /// The requester's per-key artifact versions.
        versions: Vec<KeyVersions>,
    },
    /// Replica-to-replica artifact pull: ask a peer that is ahead for one
    /// shard's complete container, answered with
    /// [`Response::PeerSync`] carrying the bytes and the version they
    /// certify. Idempotent — pulling twice converges to the same state.
    PeerSync {
        /// The shard to pull.
        model: ModelKey,
        /// Which artifact (model or knowledge base) to ship.
        artifact: SyncArtifact,
    },
    /// Dump the gateway's ring of slowest-request trace exemplars
    /// (control-plane: answered without passing admission control, like
    /// `Stats`).
    TraceDump {
        /// Maximum exemplars to return (`0` means all retained).
        limit: u64,
    },
    /// Ask the server to stop accepting connections and exit its run loop.
    Shutdown,
}

impl Request {
    /// Whether re-sending this request after a transport fault is safe:
    /// read-only requests never change gateway state, so a duplicate
    /// execution is harmless. Reloads swap live artifacts and `Shutdown`
    /// stops the gateway — a client must never retry those on its own,
    /// because the first send may have executed before the fault.
    pub fn is_idempotent(&self) -> bool {
        match self {
            Request::Suggest { .. }
            | Request::SuggestBatch { .. }
            | Request::CheckPrescription { .. }
            | Request::KbInfo { .. }
            | Request::ListModels
            | Request::Stats
            | Request::Ping
            // Peer messages are reads: a status exchange reports versions
            // and a sync pull ships a container without mutating the
            // responder, so the anti-entropy loop may retry them freely.
            | Request::PeerStatus { .. }
            | Request::PeerSync { .. }
            // Dumping trace exemplars reads a ring without mutating it.
            | Request::TraceDump { .. } => true,
            Request::ReloadModel { .. } | Request::ReloadKb { .. } | Request::Shutdown => false,
        }
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// Answer to [`Request::Suggest`].
    Suggest(SuggestResponse),
    /// Answer to [`Request::SuggestBatch`], in request order.
    SuggestBatch(Vec<SuggestResponse>),
    /// Answer to [`Request::CheckPrescription`].
    CheckPrescription(InteractionReport),
    /// Answer to [`Request::ReloadModel`]: the swapped shard's new listing.
    ModelReloaded(ModelInfo),
    /// Answer to [`Request::ReloadKb`]: the new knowledge base's summary.
    KbReloaded(KbInfo),
    /// Answer to [`Request::KbInfo`].
    KbInfo(KbInfo),
    /// Answer to [`Request::ListModels`].
    ListModels(Vec<ModelInfo>),
    /// Answer to [`Request::Stats`].
    Stats(StatsReport),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::PeerStatus`]: the responder's own per-key
    /// version vector.
    PeerStatus {
        /// The responder's per-key artifact versions.
        versions: Vec<KeyVersions>,
    },
    /// Answer to [`Request::PeerSync`]: one shard's complete artifact
    /// container plus the version the bytes certify.
    PeerSync {
        /// The shard the container belongs to.
        model: ModelKey,
        /// Which artifact the container holds.
        artifact: SyncArtifact,
        /// The version the shipped container certifies; the puller adopts
        /// it for the key after applying the container.
        version: u64,
        /// The complete `DSSD` or `DSKB` container bytes.
        container: Vec<u8>,
    },
    /// Answer to [`Request::TraceDump`]: the slowest-request exemplars
    /// retained by the gateway, slowest first.
    TraceDump(Vec<TraceExemplar>),
    /// Acknowledgement of [`Request::Shutdown`].
    ShuttingDown,
    /// A typed server-side failure.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Field codecs. Every `take_*` below reads through the bounds-checked
// `ByteReader`, so a truncated or corrupt body surfaces as a typed
// `SerdeError` from the primitive it failed in.
// ---------------------------------------------------------------------------

/// Reads one registry byte, rejecting values the registry does not assign:
/// a missing byte is truncation at `field`, an unassigned one is reported
/// as an unknown `kind`.
fn take_enum<T>(
    r: &mut ByteReader<'_>,
    field: &'static str,
    kind: &str,
    from_u8: fn(u8) -> Option<T>,
) -> Result<T, SerdeError> {
    let byte = r.take_u8(field)?;
    from_u8(byte).ok_or_else(|| SerdeError::Corrupt {
        what: format!("unknown {kind} {byte}"),
    })
}

fn put_interaction(w: &mut ByteWriter, i: Interaction) {
    w.put_u8(match i {
        Interaction::None => 0,
        Interaction::Synergistic => 1,
        Interaction::Antagonistic => 2,
    });
}

fn take_interaction(r: &mut ByteReader<'_>) -> Result<Interaction, SerdeError> {
    Ok(match r.take_u8("interaction")? {
        0 => Interaction::None,
        1 => Interaction::Synergistic,
        2 => Interaction::Antagonistic,
        other => {
            return Err(SerdeError::Corrupt {
                what: format!("unknown interaction sign {other}"),
            })
        }
    })
}

fn put_severity(w: &mut ByteWriter, severity: Severity) {
    w.put_u8(severity.to_u8());
}

fn take_severity(r: &mut ByteReader<'_>) -> Result<Severity, SerdeError> {
    take_enum(r, "severity", "severity byte", Severity::from_u8)
}

fn put_alert_policy(w: &mut ByteWriter, policy: &AlertPolicy) {
    put_severity(w, policy.min_severity);
    w.put_bool(policy.contraindicated_always_fires);
}

fn take_alert_policy(r: &mut ByteReader<'_>) -> Result<AlertPolicy, SerdeError> {
    Ok(AlertPolicy {
        min_severity: take_severity(r)?,
        contraindicated_always_fires: r.take_bool("policy.contraindicated_always_fires")?,
    })
}

/// Writes an optional field: a presence flag, then the value if present.
fn put_opt<T>(w: &mut ByteWriter, value: Option<T>, put: impl FnOnce(&mut ByteWriter, T)) {
    w.put_bool(value.is_some());
    if let Some(value) = value {
        put(w, value);
    }
}

/// Reads an optional field written by [`put_opt`].
fn take_opt<'a, T>(
    r: &mut ByteReader<'a>,
    what: &'static str,
    take: impl FnOnce(&mut ByteReader<'a>) -> Result<T, SerdeError>,
) -> Result<Option<T>, SerdeError> {
    if r.take_bool(what)? {
        take(r).map(Some)
    } else {
        Ok(None)
    }
}

/// Writes a sequence: its length, then each item.
fn put_seq<T>(w: &mut ByteWriter, items: &[T], mut put: impl FnMut(&mut ByteWriter, &T)) {
    w.put_usize(items.len());
    for item in items {
        put(w, item);
    }
}

/// Reads a sequence written by [`put_seq`]; `what` labels its length.
/// The length is not trusted for allocation: items are pushed as they
/// decode, so a lying length fails on truncation instead.
fn take_seq<'a, T>(
    r: &mut ByteReader<'a>,
    what: &'static str,
    mut take: impl FnMut(&mut ByteReader<'a>) -> Result<T, SerdeError>,
) -> Result<Vec<T>, SerdeError> {
    let len = r.take_usize(what)?;
    let mut items = Vec::new();
    for _ in 0..len {
        items.push(take(r)?);
    }
    Ok(items)
}

fn take_sync_artifact(r: &mut ByteReader<'_>) -> Result<SyncArtifact, SerdeError> {
    take_enum(r, "sync.artifact", "sync artifact", SyncArtifact::from_u8)
}

fn put_kb_info(w: &mut ByteWriter, info: &KbInfo) {
    w.put_u64(info.version);
    w.put_usize(info.n_facts);
    for count in info.facts_by_severity {
        w.put_usize(count);
    }
    w.put_u64(info.registry_digest);
    w.put_usize(info.n_drugs);
}

fn take_kb_info(r: &mut ByteReader<'_>) -> Result<KbInfo, SerdeError> {
    let version = r.take_u64("kb_info.version")?;
    let n_facts = r.take_usize("kb_info.n_facts")?;
    let mut facts_by_severity = [0usize; 4];
    for count in &mut facts_by_severity {
        *count = r.take_usize("kb_info.facts_by_severity")?;
    }
    Ok(KbInfo {
        version,
        n_facts,
        facts_by_severity,
        registry_digest: r.take_u64("kb_info.registry_digest")?,
        n_drugs: r.take_usize("kb_info.n_drugs")?,
    })
}

fn put_model_key(w: &mut ByteWriter, key: &ModelKey) {
    w.put_str(key.as_str());
}

fn take_model_key(r: &mut ByteReader<'_>) -> Result<ModelKey, SerdeError> {
    let raw = r.take_str("model_key")?;
    ModelKey::new(&raw).map_err(|e| SerdeError::Corrupt {
        what: format!("invalid model key on the wire: {e}"),
    })
}

fn put_drug_ids(w: &mut ByteWriter, drugs: &[DrugId]) {
    let ids: Vec<usize> = drugs.iter().map(|d| d.index()).collect();
    w.put_usize_slice(&ids);
}

fn take_drug_ids(r: &mut ByteReader<'_>, what: &'static str) -> Result<Vec<DrugId>, SerdeError> {
    Ok(r.take_usize_vec(what)?
        .into_iter()
        .map(DrugId::new)
        .collect())
}

fn put_suggest_filters(w: &mut ByteWriter, filters: &SuggestFilters) {
    put_drug_ids(w, &filters.exclude);
    put_drug_ids(w, &filters.avoid_antagonists_of);
    put_drug_ids(w, &filters.exclude_contraindicated_with);
}

fn take_suggest_filters(r: &mut ByteReader<'_>) -> Result<SuggestFilters, SerdeError> {
    Ok(SuggestFilters {
        exclude: take_drug_ids(r, "filters.exclude")?,
        avoid_antagonists_of: take_drug_ids(r, "filters.avoid_antagonists_of")?,
        exclude_contraindicated_with: take_drug_ids(r, "filters.exclude_contraindicated_with")?,
    })
}

fn put_suggest_request(w: &mut ByteWriter, request: &SuggestRequest) {
    w.put_usize(request.patient.index());
    w.put_f32_slice(&request.features);
    w.put_usize(request.k);
    put_suggest_filters(w, &request.filters);
}

fn take_suggest_request(r: &mut ByteReader<'_>) -> Result<SuggestRequest, SerdeError> {
    let patient = PatientId::new(r.take_usize("request.patient")?);
    let features = r.take_f32_vec("request.features")?;
    let k = r.take_usize("request.k")?;
    let filters = take_suggest_filters(r)?;
    Ok(SuggestRequest::new(patient, features, k).with_filters(filters))
}

fn put_scored_drug(w: &mut ByteWriter, drug: &ScoredDrug) {
    w.put_usize(drug.id.index());
    w.put_str(&drug.name);
    w.put_f32(drug.score);
}

fn take_scored_drug(r: &mut ByteReader<'_>) -> Result<ScoredDrug, SerdeError> {
    Ok(ScoredDrug {
        id: DrugId::new(r.take_usize("drug.id")?),
        name: r.take_str("drug.name")?,
        score: r.take_f32("drug.score")?,
    })
}

fn put_community(w: &mut ByteWriter, community: &Community) {
    let nodes: Vec<usize> = community.nodes.iter().copied().collect();
    w.put_usize_slice(&nodes);
    put_seq(w, &community.edges, |w, &(u, v)| {
        w.put_usize(u);
        w.put_usize(v);
    });
    w.put_usize(community.trussness);
    w.put_usize(community.diameter);
}

fn take_community(r: &mut ByteReader<'_>) -> Result<Community, SerdeError> {
    let nodes = r.take_usize_vec("community.nodes")?;
    let edges = take_seq(r, "community.edges.len", |r| {
        Ok((
            r.take_usize("community.edge.u")?,
            r.take_usize("community.edge.v")?,
        ))
    })?;
    Ok(Community {
        nodes: nodes.into_iter().collect(),
        edges,
        trussness: r.take_usize("community.trussness")?,
        diameter: r.take_usize("community.diameter")?,
    })
}

fn put_explanation(w: &mut ByteWriter, explanation: &Explanation) {
    w.put_usize_slice(&explanation.suggested);
    put_community(w, &explanation.community);
    put_seq(w, &explanation.edges, |w, edge| {
        w.put_usize(edge.u);
        w.put_usize(edge.v);
        put_interaction(w, edge.interaction);
    });
    w.put_usize(explanation.internal_synergy);
    w.put_usize(explanation.internal_antagonism);
    w.put_usize(explanation.external_antagonism);
    w.put_f64(explanation.suggestion_satisfaction);
}

fn take_explanation(r: &mut ByteReader<'_>) -> Result<Explanation, SerdeError> {
    let suggested = r.take_usize_vec("explanation.suggested")?;
    let community = take_community(r)?;
    let edges = take_seq(r, "explanation.edges.len", |r| {
        Ok(SignedEdge {
            u: r.take_usize("explanation.edge.u")?,
            v: r.take_usize("explanation.edge.v")?,
            interaction: take_interaction(r)?,
        })
    })?;
    Ok(Explanation {
        suggested,
        community,
        edges,
        internal_synergy: r.take_usize("explanation.internal_synergy")?,
        internal_antagonism: r.take_usize("explanation.internal_antagonism")?,
        external_antagonism: r.take_usize("explanation.external_antagonism")?,
        suggestion_satisfaction: r.take_f64("explanation.ss")?,
    })
}

fn put_suggest_response(w: &mut ByteWriter, response: &SuggestResponse) {
    w.put_usize(response.patient.index());
    put_seq(w, &response.drugs, put_scored_drug);
    put_explanation(w, &response.explanation);
    w.put_f64(response.suggestion_satisfaction);
}

fn take_suggest_response(r: &mut ByteReader<'_>) -> Result<SuggestResponse, SerdeError> {
    Ok(SuggestResponse {
        patient: PatientId::new(r.take_usize("response.patient")?),
        drugs: take_seq(r, "drugs.len", take_scored_drug)?,
        explanation: take_explanation(r)?,
        suggestion_satisfaction: r.take_f64("response.ss")?,
    })
}

fn put_opt_patient(w: &mut ByteWriter, patient: Option<PatientId>) {
    put_opt(w, patient, |w, p| w.put_usize(p.index()));
}

fn take_opt_patient(r: &mut ByteReader<'_>) -> Result<Option<PatientId>, SerdeError> {
    take_opt(r, "patient.present", |r| {
        r.take_usize("patient.id").map(PatientId::new)
    })
}

fn put_check_request(w: &mut ByteWriter, request: &CheckPrescriptionRequest) {
    put_opt_patient(w, request.patient);
    put_drug_ids(w, &request.drugs);
    put_alert_policy(w, &request.policy);
}

fn take_check_request(r: &mut ByteReader<'_>) -> Result<CheckPrescriptionRequest, SerdeError> {
    let patient = take_opt_patient(r)?;
    let drugs = take_drug_ids(r, "check.drugs")?;
    let policy = take_alert_policy(r)?;
    let mut request = CheckPrescriptionRequest::new(drugs).with_policy(policy);
    if let Some(p) = patient {
        request = request.for_patient(p);
    }
    Ok(request)
}

fn put_pair(w: &mut ByteWriter, pair: &PairInteraction) {
    w.put_usize(pair.a.index());
    w.put_str(&pair.a_name);
    w.put_usize(pair.b.index());
    w.put_str(&pair.b_name);
    put_interaction(w, pair.interaction);
    put_severity(w, pair.severity);
    put_opt(w, pair.management.as_deref(), ByteWriter::put_str);
}

fn take_pair(r: &mut ByteReader<'_>) -> Result<PairInteraction, SerdeError> {
    Ok(PairInteraction {
        a: DrugId::new(r.take_usize("pair.a")?),
        a_name: r.take_str("pair.a_name")?,
        b: DrugId::new(r.take_usize("pair.b")?),
        b_name: r.take_str("pair.b_name")?,
        interaction: take_interaction(r)?,
        severity: take_severity(r)?,
        management: take_opt(r, "pair.management", |r| r.take_str("pair.management"))?,
    })
}

fn put_report(w: &mut ByteWriter, report: &InteractionReport) {
    put_opt_patient(w, report.patient);
    put_seq(w, &report.drugs, put_scored_drug);
    put_seq(w, &report.antagonistic, put_pair);
    put_seq(w, &report.synergistic, put_pair);
    put_explanation(w, &report.explanation);
    w.put_f64(report.suggestion_satisfaction);
    put_opt(w, report.kb_version, ByteWriter::put_u64);
}

fn take_report(r: &mut ByteReader<'_>) -> Result<InteractionReport, SerdeError> {
    Ok(InteractionReport {
        patient: take_opt_patient(r)?,
        drugs: take_seq(r, "drugs.len", take_scored_drug)?,
        antagonistic: take_seq(r, "pairs.len", take_pair)?,
        synergistic: take_seq(r, "pairs.len", take_pair)?,
        explanation: take_explanation(r)?,
        suggestion_satisfaction: r.take_f64("report.ss")?,
        kb_version: take_opt(r, "report.kb_version", |r| r.take_u64("report.kb_version"))?,
    })
}

fn put_model_info(w: &mut ByteWriter, info: &ModelInfo) {
    put_model_key(w, &info.key);
    w.put_bool(info.fitted);
    w.put_usize(info.n_drugs);
    put_opt(w, info.n_features, ByteWriter::put_usize);
    w.put_u64(info.registry_digest);
    w.put_str(&info.backbone);
    w.put_u64(info.kb_version);
}

fn take_model_info(r: &mut ByteReader<'_>) -> Result<ModelInfo, SerdeError> {
    Ok(ModelInfo {
        key: take_model_key(r)?,
        fitted: r.take_bool("model.fitted")?,
        n_drugs: r.take_usize("model.n_drugs")?,
        n_features: take_opt(r, "model.n_features.present", |r| {
            r.take_usize("model.n_features")
        })?,
        registry_digest: r.take_u64("model.registry_digest")?,
        backbone: r.take_str("model.backbone")?,
        kb_version: r.take_u64("model.kb_version")?,
    })
}

fn put_model_stats(w: &mut ByteWriter, stats: &ModelStats) {
    w.put_u64(stats.requests);
    w.put_u64(stats.errors);
    put_seq(w, &stats.errors_by_code, |w, &(code, count)| {
        w.put_u8(code as u8);
        w.put_u64(count);
    });
    w.put_u64(stats.cache_hits);
    w.put_u64(stats.cache_misses);
    w.put_f64(stats.p50_ms);
    w.put_f64(stats.p99_ms);
    w.put_u64(stats.shed_requests);
    w.put_u64(stats.in_flight);
    w.put_u64(stats.queue_depth_hwm);
    // Appended by the observability work: how many latency samples back
    // the percentiles, so dashboards can tell "no traffic" from "fast
    // traffic" (both report p50/p99 of zero when no sample is recorded).
    w.put_u64(stats.samples);
}

fn take_model_stats(r: &mut ByteReader<'_>) -> Result<ModelStats, SerdeError> {
    let requests = r.take_u64("stats.requests")?;
    let errors = r.take_u64("stats.errors")?;
    let errors_by_code = take_seq(r, "stats.errors_by_code.len", |r| {
        let code = take_enum(r, "stats.error_code", "error code", ErrorCode::from_u8)?;
        Ok((code, r.take_u64("stats.error_count")?))
    })?;
    Ok(ModelStats {
        requests,
        errors,
        errors_by_code,
        cache_hits: r.take_u64("stats.cache_hits")?,
        cache_misses: r.take_u64("stats.cache_misses")?,
        p50_ms: r.take_f64("stats.p50_ms")?,
        p99_ms: r.take_f64("stats.p99_ms")?,
        shed_requests: r.take_u64("stats.shed_requests")?,
        in_flight: r.take_u64("stats.in_flight")?,
        queue_depth_hwm: r.take_u64("stats.queue_depth_hwm")?,
        samples: r.take_u64("stats.samples")?,
    })
}

fn put_trace_exemplar(w: &mut ByteWriter, exemplar: &TraceExemplar) {
    w.put_u64(exemplar.trace_id);
    w.put_str(&exemplar.model);
    w.put_str(&exemplar.op);
    w.put_u64(exemplar.total_micros);
    for &micros in &exemplar.stage_micros {
        w.put_u64(micros);
    }
}

fn take_trace_exemplar(r: &mut ByteReader<'_>) -> Result<TraceExemplar, SerdeError> {
    let trace_id = r.take_u64("trace.id")?;
    let model = r.take_str("trace.model")?;
    let op = r.take_str("trace.op")?;
    let total_micros = r.take_u64("trace.total_micros")?;
    let mut stage_micros = [0u64; STAGE_COUNT];
    for micros in &mut stage_micros {
        *micros = r.take_u64("trace.stage_micros")?;
    }
    Ok(TraceExemplar {
        trace_id,
        model,
        op,
        total_micros,
        stage_micros,
    })
}

fn put_gateway_stats(w: &mut ByteWriter, gateway: &GatewayStats) {
    w.put_u64(gateway.connections_accepted);
    w.put_u64(gateway.connections_active);
    w.put_u64(gateway.connections_shed);
    w.put_u64(gateway.stalled_reaped);
}

fn take_gateway_stats(r: &mut ByteReader<'_>) -> Result<GatewayStats, SerdeError> {
    Ok(GatewayStats {
        connections_accepted: r.take_u64("gateway.connections_accepted")?,
        connections_active: r.take_u64("gateway.connections_active")?,
        connections_shed: r.take_u64("gateway.connections_shed")?,
        stalled_reaped: r.take_u64("gateway.stalled_reaped")?,
    })
}

fn put_version_vector(w: &mut ByteWriter, versions: &[KeyVersions]) {
    put_seq(w, versions, |w, entry| {
        put_model_key(w, &entry.key);
        w.put_u64(entry.model_version);
        w.put_u64(entry.kb_version);
    });
}

fn take_version_vector(r: &mut ByteReader<'_>) -> Result<Vec<KeyVersions>, SerdeError> {
    take_seq(r, "versions.len", |r| {
        Ok(KeyVersions {
            key: take_model_key(r)?,
            model_version: r.take_u64("versions.model_version")?,
            kb_version: r.take_u64("versions.kb_version")?,
        })
    })
}

fn put_replica_stats(w: &mut ByteWriter, replica: &ReplicaStats) {
    w.put_usize(replica.peers);
    w.put_u64(replica.syncs);
    w.put_u64(replica.bytes_shipped);
    w.put_u64(replica.max_lag);
    put_version_vector(w, &replica.versions);
}

fn take_replica_stats(r: &mut ByteReader<'_>) -> Result<ReplicaStats, SerdeError> {
    Ok(ReplicaStats {
        peers: r.take_usize("replica.peers")?,
        syncs: r.take_u64("replica.syncs")?,
        bytes_shipped: r.take_u64("replica.bytes_shipped")?,
        max_lag: r.take_u64("replica.max_lag")?,
        versions: take_version_vector(r)?,
    })
}

// ---------------------------------------------------------------------------
// Message codecs.
// ---------------------------------------------------------------------------

/// Starts a frame payload. A traced frame's payload opens with the
/// extension block carrying `trace`; the returned version is the one the
/// frame seals under.
fn start_payload(trace: Option<u64>) -> (ByteWriter, u16) {
    let mut w = ByteWriter::new();
    match trace {
        None => (w, WIRE_VERSION),
        Some(id) => {
            w.put_u8(1); // extension count
            w.put_u8(EXT_TRACE_ID);
            w.put_u8(8); // extension value length
            w.put_u64(id);
            (w, WIRE_VERSION_TRACED)
        }
    }
}

/// Rejects bytes left over after a message body.
fn expect_end(r: &ByteReader<'_>, message: &str) -> Result<(), SerdeError> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(SerdeError::Corrupt {
            what: format!("{} trailing bytes after the {message} body", r.remaining()),
        })
    }
}

/// Encodes a request into a complete, sealed wire frame.
pub fn encode_request(request: &Request) -> Vec<u8> {
    encode_request_traced(request, None)
}

/// [`encode_request`], traced when `trace` is set. `None` produces the
/// version-1 frame, so untraced clients interoperate with old peers.
pub fn encode_request_traced(request: &Request, trace: Option<u64>) -> Vec<u8> {
    let (mut w, version) = start_payload(trace);
    match request {
        Request::Suggest { model, request } => {
            w.put_u8(RequestTag::Suggest as u8);
            put_model_key(&mut w, model);
            put_suggest_request(&mut w, request);
        }
        Request::SuggestBatch { model, requests } => {
            w.put_u8(RequestTag::SuggestBatch as u8);
            put_model_key(&mut w, model);
            put_seq(&mut w, requests, put_suggest_request);
        }
        Request::CheckPrescription { model, request } => {
            w.put_u8(RequestTag::CheckPrescription as u8);
            put_model_key(&mut w, model);
            put_check_request(&mut w, request);
        }
        Request::ReloadModel { model, container } => {
            w.put_u8(RequestTag::ReloadModel as u8);
            put_model_key(&mut w, model);
            w.put_u8_slice(container);
        }
        Request::ReloadKb { model, container } => {
            w.put_u8(RequestTag::ReloadKb as u8);
            put_model_key(&mut w, model);
            w.put_u8_slice(container);
        }
        Request::KbInfo { model } => {
            w.put_u8(RequestTag::KbInfo as u8);
            put_model_key(&mut w, model);
        }
        Request::ListModels => w.put_u8(RequestTag::ListModels as u8),
        Request::Stats => w.put_u8(RequestTag::Stats as u8),
        Request::Ping => w.put_u8(RequestTag::Ping as u8),
        Request::PeerStatus { versions } => {
            w.put_u8(RequestTag::PeerStatus as u8);
            put_version_vector(&mut w, versions);
        }
        Request::PeerSync { model, artifact } => {
            w.put_u8(RequestTag::PeerSync as u8);
            put_model_key(&mut w, model);
            w.put_u8(*artifact as u8);
        }
        Request::TraceDump { limit } => {
            w.put_u8(RequestTag::TraceDump as u8);
            w.put_u64(*limit);
        }
        Request::Shutdown => w.put_u8(RequestTag::Shutdown as u8),
    }
    seal_frame(WIRE_MAGIC, version, w.as_bytes())
}

/// Decodes a request from a validated frame payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, SerdeError> {
    let mut r = ByteReader::new(payload);
    let request = match take_enum(&mut r, "request.tag", "request tag", RequestTag::from_u8)? {
        RequestTag::Suggest => Request::Suggest {
            model: take_model_key(&mut r)?,
            request: take_suggest_request(&mut r)?,
        },
        RequestTag::SuggestBatch => Request::SuggestBatch {
            model: take_model_key(&mut r)?,
            requests: take_seq(&mut r, "batch.len", take_suggest_request)?,
        },
        RequestTag::CheckPrescription => Request::CheckPrescription {
            model: take_model_key(&mut r)?,
            request: take_check_request(&mut r)?,
        },
        RequestTag::ReloadModel => Request::ReloadModel {
            model: take_model_key(&mut r)?,
            container: r.take_u8_vec("reload.container")?,
        },
        RequestTag::ReloadKb => Request::ReloadKb {
            model: take_model_key(&mut r)?,
            container: r.take_u8_vec("reload.container")?,
        },
        RequestTag::KbInfo => Request::KbInfo {
            model: take_model_key(&mut r)?,
        },
        RequestTag::ListModels => Request::ListModels,
        RequestTag::Stats => Request::Stats,
        RequestTag::Ping => Request::Ping,
        RequestTag::PeerStatus => Request::PeerStatus {
            versions: take_version_vector(&mut r)?,
        },
        RequestTag::PeerSync => Request::PeerSync {
            model: take_model_key(&mut r)?,
            artifact: take_sync_artifact(&mut r)?,
        },
        RequestTag::TraceDump => Request::TraceDump {
            limit: r.take_u64("trace.limit")?,
        },
        RequestTag::Shutdown => Request::Shutdown,
    };
    expect_end(&r, "request")?;
    Ok(request)
}

/// Encodes a response into a complete, sealed wire frame.
pub fn encode_response(response: &Response) -> Vec<u8> {
    encode_response_traced(response, None)
}

/// [`encode_response`], traced when `trace` is set, mirroring
/// [`encode_request_traced`].
pub fn encode_response_traced(response: &Response, trace: Option<u64>) -> Vec<u8> {
    let (mut w, version) = start_payload(trace);
    match response {
        Response::Suggest(response) => {
            w.put_u8(ResponseTag::Suggest as u8);
            put_suggest_response(&mut w, response);
        }
        Response::SuggestBatch(responses) => {
            w.put_u8(ResponseTag::SuggestBatch as u8);
            put_seq(&mut w, responses, put_suggest_response);
        }
        Response::CheckPrescription(report) => {
            w.put_u8(ResponseTag::CheckPrescription as u8);
            put_report(&mut w, report);
        }
        Response::ListModels(models) => {
            w.put_u8(ResponseTag::ListModels as u8);
            put_seq(&mut w, models, put_model_info);
        }
        Response::Stats(report) => {
            w.put_u8(ResponseTag::Stats as u8);
            put_seq(&mut w, &report.models, |w, (key, stats)| {
                put_model_key(w, key);
                put_model_stats(w, stats);
            });
            put_gateway_stats(&mut w, &report.gateway);
            // The replica section is absent on gateways that run without a
            // replica agent.
            put_opt(&mut w, report.replica.as_ref(), put_replica_stats);
        }
        Response::ModelReloaded(info) => {
            w.put_u8(ResponseTag::ModelReloaded as u8);
            put_model_info(&mut w, info);
        }
        Response::KbReloaded(info) => {
            w.put_u8(ResponseTag::KbReloaded as u8);
            put_kb_info(&mut w, info);
        }
        Response::KbInfo(info) => {
            w.put_u8(ResponseTag::KbInfo as u8);
            put_kb_info(&mut w, info);
        }
        Response::Pong => w.put_u8(ResponseTag::Pong as u8),
        Response::PeerStatus { versions } => {
            w.put_u8(ResponseTag::PeerStatus as u8);
            put_version_vector(&mut w, versions);
        }
        Response::PeerSync {
            model,
            artifact,
            version,
            container,
        } => {
            w.put_u8(ResponseTag::PeerSync as u8);
            put_model_key(&mut w, model);
            w.put_u8(*artifact as u8);
            w.put_u64(*version);
            w.put_u8_slice(container);
        }
        Response::TraceDump(exemplars) => {
            w.put_u8(ResponseTag::TraceDump as u8);
            put_seq(&mut w, exemplars, put_trace_exemplar);
        }
        Response::ShuttingDown => w.put_u8(ResponseTag::ShuttingDown as u8),
        Response::Error { code, message } => {
            w.put_u8(ResponseTag::Error as u8);
            w.put_u8(*code as u8);
            w.put_str(message);
        }
    }
    seal_frame(WIRE_MAGIC, version, w.as_bytes())
}

/// Decodes a response from a validated frame payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, SerdeError> {
    let mut r = ByteReader::new(payload);
    let response = match take_enum(&mut r, "response.tag", "response tag", ResponseTag::from_u8)? {
        ResponseTag::Suggest => Response::Suggest(take_suggest_response(&mut r)?),
        ResponseTag::SuggestBatch => {
            Response::SuggestBatch(take_seq(&mut r, "batch.len", take_suggest_response)?)
        }
        ResponseTag::CheckPrescription => Response::CheckPrescription(take_report(&mut r)?),
        ResponseTag::ListModels => {
            Response::ListModels(take_seq(&mut r, "models.len", take_model_info)?)
        }
        ResponseTag::Stats => {
            let models = take_seq(&mut r, "stats.len", |r| {
                Ok((take_model_key(r)?, take_model_stats(r)?))
            })?;
            let gateway = take_gateway_stats(&mut r)?;
            let replica = take_opt(&mut r, "stats.replica.present", take_replica_stats)?;
            Response::Stats(StatsReport {
                models,
                gateway,
                replica,
            })
        }
        ResponseTag::ModelReloaded => Response::ModelReloaded(take_model_info(&mut r)?),
        ResponseTag::KbReloaded => Response::KbReloaded(take_kb_info(&mut r)?),
        ResponseTag::KbInfo => Response::KbInfo(take_kb_info(&mut r)?),
        ResponseTag::Pong => Response::Pong,
        ResponseTag::PeerStatus => Response::PeerStatus {
            versions: take_version_vector(&mut r)?,
        },
        ResponseTag::PeerSync => Response::PeerSync {
            model: take_model_key(&mut r)?,
            artifact: take_sync_artifact(&mut r)?,
            version: r.take_u64("sync.version")?,
            container: r.take_u8_vec("sync.container")?,
        },
        ResponseTag::TraceDump => {
            Response::TraceDump(take_seq(&mut r, "trace.len", take_trace_exemplar)?)
        }
        ResponseTag::ShuttingDown => Response::ShuttingDown,
        ResponseTag::Error => Response::Error {
            code: take_enum(&mut r, "error.code", "error code", ErrorCode::from_u8)?,
            message: r.take_str("error.message")?,
        },
    };
    expect_end(&r, "response")?;
    Ok(response)
}

/// Splits a traced payload into its trace ID (if the block carries one)
/// and the tagged message that follows. Unknown extension types — and
/// known types with unexpected lengths — are skipped, so the block can
/// grow without another version bump.
fn strip_extensions(payload: &[u8]) -> Result<(Option<u64>, &[u8]), SerdeError> {
    let mut r = ByteReader::new(payload);
    let mut trace = None;
    for _ in 0..r.take_u8("frame extension block")? {
        let ext_type = r.take_u8("frame extension block")?;
        let len = r.take_u8("frame extension block")?;
        if ext_type == EXT_TRACE_ID && len == 8 {
            let id = r.take_u64("frame extension value")?;
            if id != 0 {
                trace = Some(id);
            }
        } else {
            for _ in 0..len {
                r.take_u8("frame extension value")?;
            }
        }
    }
    let consumed = payload.len() - r.remaining();
    Ok((trace, payload.get(consumed..).unwrap_or_default()))
}

/// Checks a frame header and returns its declared payload length.
fn declared_payload_len(header: &[u8]) -> Result<usize, WireError> {
    let (_, declared) = parse_frame_header(WIRE_MAGIC, &WIRE_SUPPORTED_VERSIONS, header)?;
    if declared > MAX_FRAME_PAYLOAD {
        return Err(WireError::Oversized {
            declared,
            max: MAX_FRAME_PAYLOAD,
        });
    }
    Ok(declared)
}

/// Validates a complete frame (as produced by [`encode_request`] /
/// [`encode_response`]) and returns its payload, discarding any trace ID.
/// This is the non-streaming entry point used by tests and benchmarks;
/// sockets go through [`read_frame`], or [`read_raw_frame`] and then
/// [`open_wire_frame_traced`].
pub fn open_wire_frame(frame: &[u8]) -> Result<&[u8], WireError> {
    open_wire_frame_traced(frame).map(|(_, payload)| payload)
}

/// [`open_wire_frame`] keeping the trace ID a traced frame carries (`None`
/// for untraced frames and traced frames without a trace ID).
pub fn open_wire_frame_traced(frame: &[u8]) -> Result<(Option<u64>, &[u8]), WireError> {
    declared_payload_len(frame)?;
    let (version, payload) = open_frame(WIRE_MAGIC, &WIRE_SUPPORTED_VERSIONS, frame)?;
    if version == WIRE_VERSION_TRACED {
        Ok(strip_extensions(payload)?)
    } else {
        Ok((None, payload))
    }
}

/// Writes a sealed frame to a stream.
pub fn write_frame(stream: &mut impl Write, frame: &[u8]) -> Result<(), WireError> {
    stream.write_all(frame).map_err(|e| WireError::Io {
        what: format!("writing frame: {e}"),
    })?;
    stream.flush().map_err(|e| WireError::Io {
        what: format!("flushing frame: {e}"),
    })
}

/// Reads one frame from a stream and returns its trace ID (`None` for an
/// untraced frame) and its validated tagged message: [`read_raw_frame`]
/// followed by [`open_wire_frame_traced`], with the same errors.
pub fn read_frame(
    stream: &mut impl Read,
    max_stalls: u32,
    frame_deadline: Option<Duration>,
) -> Result<(Option<u64>, Vec<u8>), WireError> {
    let frame = read_raw_frame(stream, max_stalls, frame_deadline)?;
    let (trace, payload) = open_wire_frame_traced(&frame)?;
    Ok((trace, payload.to_vec()))
}

/// Reads the bytes of one whole frame (header, payload and CRC-32 trailer)
/// from a stream without opening it. The header's magic, version and
/// declared length are checked as it arrives; the checksum and the trace
/// extension are left to [`open_wire_frame_traced`], so a server can time
/// them with the rest of the request's decode.
///
/// A clean end-of-stream *between* frames is [`WireError::ConnectionClosed`];
/// end-of-stream *inside* a frame is a truncation error. The declared
/// payload length is checked against [`MAX_FRAME_PAYLOAD`] before the
/// buffer grows past the header; it then grows by at most 64 KiB at a
/// time as bytes arrive, so its memory follows the bytes received, not
/// the length a peer declared.
///
/// Read timeouts are interpreted against the stream's armed read timeout.
/// One that fires before the first frame byte is [`WireError::IdleTimeout`]:
/// the connection is idle, and servers use it to poll their shutdown flag.
/// Mid-frame, up to `max_stalls` *consecutive* expiries are tolerated (the
/// count resets whenever bytes arrive; clamped to at least 1) before a
/// typed [`WireError::Timeout`]. A client passes 1, so its armed timeout is
/// the response deadline; a server polling its shutdown flag every 250 ms
/// passes more, so one TCP retransmission stall does not sever a
/// multi-megabyte reload upload.
///
/// Because every arriving byte resets the stall count, a slow-loris peer
/// trickling a byte per poll would never time out. `frame_deadline` bounds
/// the whole frame instead: the clock starts at its first byte, and a frame
/// still incomplete when it passes fails with [`WireError::Timeout`].
pub fn read_raw_frame(
    stream: &mut impl Read,
    max_stalls: u32,
    frame_deadline: Option<Duration>,
) -> Result<Vec<u8>, WireError> {
    let max_stalls = max_stalls.max(1);
    let mut stalls = 0u32;
    let mut deadline = None;
    let overdue =
        |deadline: Option<Instant>| deadline.is_some_and(|at: Instant| Instant::now() >= at);
    // The buffer holds the header until it is complete, then grows toward
    // the whole frame as bytes arrive, so opening it (length + CRC) is the
    // container code path.
    let mut frame = vec![0u8; FRAME_HEADER_LEN];
    let mut frame_len = FRAME_HEADER_LEN;
    let mut pos = 0usize;
    while pos < frame_len {
        if pos == frame.len() {
            frame.resize(frame_len.min(pos + READ_STEP), 0);
        }
        let part = if pos < FRAME_HEADER_LEN {
            "frame header"
        } else {
            "frame payload"
        };
        match stream.read(frame.get_mut(pos..).unwrap_or_default()) {
            Ok(0) if pos == 0 => return Err(WireError::ConnectionClosed),
            Ok(0) => return Err(WireError::Decode(SerdeError::Truncated { what: part })),
            Ok(n) => {
                if pos == 0 {
                    deadline = frame_deadline.map(|d| Instant::now() + d);
                }
                pos += n;
                stalls = 0;
                if pos == FRAME_HEADER_LEN {
                    frame_len = FRAME_HEADER_LEN + declared_payload_len(&frame)? + 4;
                }
                if pos < frame_len && overdue(deadline) {
                    return Err(WireError::Timeout);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // A read timeout surfaces as WouldBlock on Unix (SO_RCVTIMEO)
            // and TimedOut on Windows.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if pos == 0 {
                    return Err(WireError::IdleTimeout);
                }
                stalls += 1;
                if overdue(deadline) || stalls >= max_stalls {
                    return Err(WireError::Timeout);
                }
            }
            Err(e) => {
                return Err(WireError::Io {
                    what: format!("reading {part}: {e}"),
                })
            }
        }
    }
    Ok(frame)
}

/// Maps a routing/service error to the typed error frame the server sends
/// back, so remote callers see the same failure classes in-process callers
/// match on.
pub fn error_response(error: &ServingError) -> Response {
    Response::Error {
        code: ErrorCode::classify(error),
        message: error.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request::Suggest {
            model: ModelKey::new("chronic").unwrap(),
            request: SuggestRequest::new(PatientId::new(3), vec![0.5, -1.25, f32::NAN], 4)
                .with_filters(SuggestFilters {
                    exclude: vec![DrugId::new(1)],
                    avoid_antagonists_of: vec![DrugId::new(59)],
                    exclude_contraindicated_with: vec![DrugId::new(61)],
                }),
        }
    }

    #[test]
    fn request_frames_round_trip() {
        let request = sample_request();
        let frame = encode_request(&request);
        let payload = open_wire_frame(&frame).unwrap();
        let back = decode_request(payload).unwrap();
        // NaN features break derived equality; compare the pieces.
        match (&request, &back) {
            (
                Request::Suggest {
                    model: m1,
                    request: r1,
                },
                Request::Suggest {
                    model: m2,
                    request: r2,
                },
            ) => {
                assert_eq!(m1, m2);
                assert_eq!(r1.patient, r2.patient);
                assert_eq!(r1.k, r2.k);
                assert_eq!(r1.filters, r2.filters);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&r1.features), bits(&r2.features));
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn control_messages_round_trip() {
        let versions = vec![
            KeyVersions {
                key: ModelKey::new("chronic").unwrap(),
                model_version: 3,
                kb_version: 7,
            },
            KeyVersions {
                key: ModelKey::new("critique").unwrap(),
                model_version: 1,
                kb_version: 1,
            },
        ];
        for request in [
            Request::ListModels,
            Request::Stats,
            Request::Ping,
            Request::PeerStatus {
                versions: versions.clone(),
            },
            Request::PeerSync {
                model: ModelKey::new("chronic").unwrap(),
                artifact: SyncArtifact::Kb,
            },
            Request::Shutdown,
        ] {
            let frame = encode_request(&request);
            let payload = open_wire_frame(&frame).unwrap();
            assert_eq!(decode_request(payload).unwrap(), request);
        }
        let replicated = StatsReport {
            replica: Some(ReplicaStats {
                peers: 2,
                syncs: 5,
                bytes_shipped: 40_960,
                max_lag: 1,
                versions: versions.clone(),
            }),
            ..StatsReport::default()
        };
        for response in [
            Response::ShuttingDown,
            Response::Error {
                code: ErrorCode::UnknownModel,
                message: "no such shard".into(),
            },
            Response::ListModels(vec![]),
            Response::Stats(StatsReport::default()),
            Response::Stats(replicated),
            Response::Pong,
            Response::PeerStatus { versions },
            Response::PeerSync {
                model: ModelKey::new("chronic").unwrap(),
                artifact: SyncArtifact::Model,
                version: 4,
                container: vec![0xDE, 0xAD, 0xBE, 0xEF],
            },
        ] {
            let frame = encode_response(&response);
            let payload = open_wire_frame(&frame).unwrap();
            assert_eq!(decode_response(payload).unwrap(), response);
        }
    }

    #[test]
    fn foreign_and_future_frames_are_typed_errors() {
        let frame = encode_request(&Request::ListModels);
        // Foreign magic: a DSSD model file is not a wire frame.
        let mut bad = frame.clone();
        bad[..4].copy_from_slice(b"DSSD");
        assert!(matches!(
            open_wire_frame(&bad),
            Err(WireError::Decode(SerdeError::BadMagic {
                expected: WIRE_MAGIC,
                found: [b'D', b'S', b'S', b'D'],
            }))
        ));
        // Future protocol version (one past the traced version, which is
        // the highest this build decodes).
        let mut bad = frame.clone();
        bad[4..6].copy_from_slice(&3u16.to_le_bytes());
        assert!(matches!(
            open_wire_frame(&bad),
            Err(WireError::Decode(SerdeError::UnsupportedVersion {
                found: 3,
                supported: WIRE_VERSION_TRACED,
            }))
        ));
        // Oversized declared payload is rejected before allocation.
        let mut bad = frame.clone();
        bad[6..14].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(matches!(
            open_wire_frame(&bad),
            Err(WireError::Oversized { .. })
        ));
        // Flipped payload bit: CRC catches it.
        let mut bad = frame.clone();
        let payload_byte = FRAME_HEADER_LEN;
        bad[payload_byte] ^= 0x10;
        assert!(matches!(
            open_wire_frame(&bad),
            Err(WireError::Decode(SerdeError::ChecksumMismatch { .. }))
        ));
        // Truncation anywhere is an error, never a panic.
        for cut in 0..frame.len() {
            assert!(open_wire_frame(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_tags_are_corrupt() {
        assert!(matches!(
            decode_request(&[0xEE]),
            Err(SerdeError::Corrupt { .. })
        ));
        assert!(matches!(
            decode_response(&[0xEE]),
            Err(SerdeError::Corrupt { .. })
        ));
        // Trailing bytes after a well-formed body are rejected.
        let mut w = ByteWriter::new();
        w.put_u8(RequestTag::ListModels as u8);
        w.put_u8(0);
        assert!(matches!(
            decode_request(w.as_bytes()),
            Err(SerdeError::Corrupt { .. })
        ));
    }

    #[test]
    fn timeouts_are_idle_only_before_the_first_frame_byte() {
        // A reader that yields `prefix` and then times out, like a socket
        // with SO_RCVTIMEO on an idle (or stalled) peer.
        struct StallAfter {
            prefix: Vec<u8>,
            pos: usize,
        }
        impl Read for StallAfter {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pos < self.prefix.len() {
                    let n = buf.len().min(self.prefix.len() - self.pos);
                    buf[..n].copy_from_slice(&self.prefix[self.pos..self.pos + n]);
                    self.pos += n;
                    Ok(n)
                } else {
                    Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
                }
            }
        }
        // No bytes at all: the connection is idle.
        let mut idle = StallAfter {
            prefix: vec![],
            pos: 0,
        };
        assert!(matches!(
            read_frame(&mut idle, 1, None),
            Err(WireError::IdleTimeout)
        ));
        // A stall mid-frame is a stalled peer, not idleness: typed Timeout.
        let frame = encode_request(&Request::ListModels);
        let mut stalled = StallAfter {
            prefix: frame[..7].to_vec(),
            pos: 0,
        };
        assert!(matches!(
            read_frame(&mut stalled, 1, None),
            Err(WireError::Timeout)
        ));
        // A stall inside the payload (header complete) is a Timeout too.
        let mut stalled = StallAfter {
            prefix: frame[..FRAME_HEADER_LEN + 1].to_vec(),
            pos: 0,
        };
        assert!(matches!(
            read_frame(&mut stalled, 1, None),
            Err(WireError::Timeout)
        ));
        // A stall budget tolerates consecutive expiries mid-frame but still
        // terminates; before the first byte it is always IdleTimeout.
        let mut stalled = StallAfter {
            prefix: frame[..7].to_vec(),
            pos: 0,
        };
        assert!(matches!(
            read_frame(&mut stalled, 5, None),
            Err(WireError::Timeout)
        ));
        let mut idle = StallAfter {
            prefix: vec![],
            pos: 0,
        };
        assert!(matches!(
            read_frame(&mut idle, 5, None),
            Err(WireError::IdleTimeout)
        ));
    }

    #[test]
    fn the_frame_buffer_grows_with_the_bytes_received() {
        // A reader that yields `prefix` at most `chunk` bytes per call and
        // then times out, recording the largest buffer it was handed.
        struct Trickle {
            prefix: Vec<u8>,
            pos: usize,
            chunk: usize,
            largest_buffer: usize,
        }
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.largest_buffer = self.largest_buffer.max(buf.len());
                if self.pos < self.prefix.len() {
                    let n = buf.len().min(self.chunk).min(self.prefix.len() - self.pos);
                    buf[..n].copy_from_slice(&self.prefix[self.pos..self.pos + n]);
                    self.pos += n;
                    Ok(n)
                } else {
                    Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
                }
            }
        }
        // A header declaring the largest payload, then a stall: the stalled
        // frame is a typed Timeout, and the reader never saw a buffer larger
        // than one step.
        let mut header = encode_request(&Request::ListModels)[..FRAME_HEADER_LEN].to_vec();
        header[6..].copy_from_slice(&(MAX_FRAME_PAYLOAD as u64).to_le_bytes());
        let mut stalled = Trickle {
            prefix: header,
            pos: 0,
            chunk: usize::MAX,
            largest_buffer: 0,
        };
        assert!(matches!(
            read_frame(&mut stalled, 1, None),
            Err(WireError::Timeout)
        ));
        assert!(
            stalled.largest_buffer <= READ_STEP,
            "a 14-byte header made read_frame allocate {} bytes",
            stalled.largest_buffer
        );
        // A frame of several steps, a few bytes per read, still round-trips.
        let request = Request::ReloadModel {
            model: ModelKey::new("chronic").unwrap(),
            container: (0..5 * READ_STEP / 2).map(|i| (i % 251) as u8).collect(),
        };
        let frame = encode_request(&request);
        let mut trickle = Trickle {
            prefix: frame.clone(),
            pos: 0,
            chunk: 7,
            largest_buffer: 0,
        };
        let (trace, payload) = read_frame(&mut trickle, 1, None).unwrap();
        assert_eq!(trace, None);
        assert_eq!(payload, open_wire_frame(&frame).unwrap());
        assert_eq!(decode_request(&payload).unwrap(), request);
        assert!(trickle.largest_buffer <= READ_STEP);
    }

    #[test]
    fn traced_frames_round_trip_and_untraced_frames_are_bit_identical() {
        let request = sample_request();
        // No trace: the traced encoder is byte-for-byte the v1 encoder.
        assert_eq!(
            encode_request_traced(&request, None),
            encode_request(&request)
        );
        let response = Response::Pong;
        assert_eq!(
            encode_response_traced(&response, None),
            encode_response(&response),
        );
        // With a trace: a v2 frame whose payload decodes identically and
        // whose trace ID survives both open paths.
        let traced = encode_request_traced(&request, Some(0xDEAD_BEEF));
        let (trace, payload) = open_wire_frame_traced(&traced).unwrap();
        assert_eq!(trace, Some(0xDEAD_BEEF));
        assert!(matches!(
            decode_request(payload).unwrap(),
            Request::Suggest { .. }
        ));
        // The trace-discarding entry point still opens the same frame.
        assert_eq!(open_wire_frame(&traced).unwrap(), payload);
        let mut stream = std::io::Cursor::new(traced.clone());
        let (trace, streamed) = read_frame(&mut stream, 1, None).unwrap();
        assert_eq!(trace, Some(0xDEAD_BEEF));
        assert_eq!(streamed, payload);
        // Traced responses too.
        let exemplars = vec![TraceExemplar {
            trace_id: 7,
            model: "chronic".into(),
            op: "suggest".into(),
            total_micros: 1_234,
            stage_micros: [10, 2, 0, 1_200, 22],
        }];
        let frame = encode_response_traced(&Response::TraceDump(exemplars.clone()), Some(7));
        let (trace, payload) = open_wire_frame_traced(&frame).unwrap();
        assert_eq!(trace, Some(7));
        assert_eq!(
            decode_response(payload).unwrap(),
            Response::TraceDump(exemplars)
        );
    }

    #[test]
    fn unknown_extensions_are_skipped_and_torn_blocks_are_typed_errors() {
        let payload_v1 = {
            let frame = encode_request(&Request::ListModels);
            open_wire_frame(&frame).unwrap().to_vec()
        };
        // Three extensions: an unknown type, a trace ID, and an unknown
        // type with a weird length. Only the trace ID is interpreted.
        let mut ext = vec![3u8];
        ext.extend_from_slice(&[0xEE, 2, 0xAA, 0xBB]); // unknown type 0xEE
        ext.push(EXT_TRACE_ID);
        ext.push(8);
        ext.extend_from_slice(&99u64.to_le_bytes());
        ext.extend_from_slice(&[0x7F, 1, 0x00]); // unknown type 0x7F
        ext.extend_from_slice(&payload_v1);
        let frame = seal_frame(WIRE_MAGIC, WIRE_VERSION_TRACED, &ext);
        let (trace, payload) = open_wire_frame_traced(&frame).unwrap();
        assert_eq!(trace, Some(99));
        assert_eq!(decode_request(payload).unwrap(), Request::ListModels);
        // A v2 frame whose extension block runs past the payload is a
        // typed truncation, never a panic.
        let torn = seal_frame(WIRE_MAGIC, WIRE_VERSION_TRACED, &[5u8, EXT_TRACE_ID, 200]);
        assert!(matches!(
            open_wire_frame_traced(&torn),
            Err(WireError::Decode(SerdeError::Truncated { .. }))
        ));
        // A trace extension with the wrong length is skipped, not trusted.
        let mut short = vec![1u8, EXT_TRACE_ID, 4, 1, 2, 3, 4];
        short.extend_from_slice(&payload_v1);
        let frame = seal_frame(WIRE_MAGIC, WIRE_VERSION_TRACED, &short);
        let (trace, payload) = open_wire_frame_traced(&frame).unwrap();
        assert_eq!(trace, None);
        assert_eq!(decode_request(payload).unwrap(), Request::ListModels);
    }

    #[test]
    fn trace_dump_messages_round_trip() {
        let request = Request::TraceDump { limit: 16 };
        let frame = encode_request(&request);
        assert_eq!(
            decode_request(open_wire_frame(&frame).unwrap()).unwrap(),
            request
        );
        let response = Response::TraceDump(vec![
            TraceExemplar {
                trace_id: 1,
                model: "chronic".into(),
                op: "suggest".into(),
                total_micros: 900,
                stage_micros: [1, 2, 3, 890, 4],
            },
            TraceExemplar {
                trace_id: 2,
                model: String::new(),
                op: "stats".into(),
                total_micros: 10,
                stage_micros: [10, 0, 0, 0, 0],
            },
        ]);
        let frame = encode_response(&response);
        assert_eq!(
            decode_response(open_wire_frame(&frame).unwrap()).unwrap(),
            response
        );
    }

    #[test]
    fn only_reads_are_idempotent() {
        let model = || ModelKey::new("chronic").unwrap();
        let table = [
            (sample_request(), true),
            (
                Request::SuggestBatch {
                    model: model(),
                    requests: Vec::new(),
                },
                true,
            ),
            (
                Request::CheckPrescription {
                    model: model(),
                    request: CheckPrescriptionRequest::new(vec![DrugId::new(1)]),
                },
                true,
            ),
            (Request::KbInfo { model: model() }, true),
            (Request::ListModels, true),
            (Request::Stats, true),
            (Request::Ping, true),
            (
                Request::PeerStatus {
                    versions: Vec::new(),
                },
                true,
            ),
            (
                Request::PeerSync {
                    model: model(),
                    artifact: SyncArtifact::Model,
                },
                true,
            ),
            (Request::TraceDump { limit: 0 }, true),
            (
                Request::ReloadModel {
                    model: model(),
                    container: Vec::new(),
                },
                false,
            ),
            (
                Request::ReloadKb {
                    model: model(),
                    container: Vec::new(),
                },
                false,
            ),
            (Request::Shutdown, false),
        ];
        for (request, idempotent) in &table {
            assert_eq!(request.is_idempotent(), *idempotent, "{request:?}");
        }
        // The table names every request message once.
        let mut tags: Vec<u8> = table
            .iter()
            .map(|(request, _)| open_wire_frame(&encode_request(request)).unwrap()[0])
            .collect();
        tags.sort_unstable();
        let mut all: Vec<u8> = RequestTag::ALL.iter().map(|&tag| tag as u8).collect();
        all.sort_unstable();
        assert_eq!(tags, all);
    }

    #[test]
    fn streamed_frames_round_trip_through_read_frame() {
        let request = sample_request();
        let frame = encode_request(&request);
        let mut stream = std::io::Cursor::new(frame.clone());
        let (trace, payload) = read_frame(&mut stream, 1, None).unwrap();
        assert_eq!(trace, None);
        assert_eq!(payload, open_wire_frame(&frame).unwrap());
        // A clean EOF between frames is ConnectionClosed ...
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(Vec::<u8>::new()), 1, None),
            Err(WireError::ConnectionClosed)
        ));
        // ... but EOF inside a frame is a truncation error.
        let mut cut = std::io::Cursor::new(frame[..frame.len() - 2].to_vec());
        assert!(matches!(
            read_frame(&mut cut, 1, None),
            Err(WireError::Decode(SerdeError::Truncated { .. }))
        ));
    }

    #[test]
    fn error_codes_are_numbered_densely_in_all_order() {
        // `index()` turns a code into a counter slot, which needs the codes
        // to be exactly 1..=N in `ALL` order.
        for (slot, &code) in ErrorCode::ALL.iter().enumerate() {
            assert_eq!(code as usize, slot + 1, "{code:?}");
            assert_eq!(code.index(), slot);
            assert_eq!(ErrorCode::from_u8(code as u8), Some(code));
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        assert_eq!(ErrorCode::from_u8(ErrorCode::ALL.len() as u8 + 1), None);
    }

    #[test]
    fn retired_request_tag_stays_unassigned() {
        // Request tag 7 was assigned in an early protocol draft and never
        // shipped; a stale build may still send it, so it must never come
        // back as a new message.
        assert_eq!(RequestTag::from_u8(7), None);
        assert!(matches!(
            decode_request(&[7]),
            Err(SerdeError::Corrupt { what }) if what == "unknown request tag 7"
        ));
    }

    #[test]
    fn container_magics_are_distinct() {
        // A model file, a knowledge base and a network frame must never be
        // mistaken for one another.
        let magics = [WIRE_MAGIC, dssddi_core::DSSD_MAGIC, dssddi_kb::KB_MAGIC];
        for (i, a) in magics.iter().enumerate() {
            for b in &magics[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
