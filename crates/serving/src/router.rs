//! The model catalog and router: several fitted services behind one typed
//! serving surface.
//!
//! A production deployment of the paper's system shards by disease, cohort
//! or region: each shard is one fitted [`DecisionService`] persisted to a
//! `DSSD` file, *paired with* a clinical [`KnowledgeBase`] (`DSKB` file)
//! that grades its interaction findings. [`ModelCatalog`] owns the loaded
//! shards keyed by [`ModelKey`]; [`Router`] dispatches typed requests to
//! the right shard and keeps per-model serving statistics — requests
//! served, error counts broken down by [`ErrorCode`], explanation-cache
//! hit rate, and p50/p99 latency — surfaced locally via
//! [`Router::stats_report`] and remotely via the `Stats` wire message. The counts live in the
//! catalog's [`MetricsRegistry`] (see [`crate::telemetry`]), the same cells
//! `GET /metrics` renders.
//!
//! ## Hot reload
//!
//! A shard's service, its knowledge base and its model version sit
//! together in one `RwLock` swap slot. [`ModelCatalog::install`] is the one
//! path that swaps a sealed artifact into it after insert: a re-trained
//! model (wire `ReloadModel`) or an updated knowledge base (wire
//! `ReloadKb`, `dssddi-serve --kb`) from an operator, or either one pulled
//! from a peer replica. Swaps happen *under a live key with zero dropped
//! connections*: requests in flight finish on the `Arc`s they cloned, new
//! requests pick up the replacement, and the shard's serving counters
//! survive the swap. A replacement must describe the same formulary
//! (registry digest) as the shard it replaces — a gateway that silently
//! swapped formularies under a live key would resolve the same DIDs to
//! different drugs.
//!
//! An explanation depends only on the DDI graph and the MS configuration,
//! not on the model that ranked the drugs. So shards over an equal graph
//! and configuration share one [`ExplanationEngine`](dssddi_core::ExplanationEngine)
//! (index and memo), and a replacement model over the same graph and
//! configuration keeps its shard's engine: the memo stays warm across the
//! reload. A replacement with another graph or another α gets a fresh
//! engine and an empty memo. The shard's explanation hit and miss counts
//! are those of its current service, so they restart on every model swap.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use dssddi_core::{sync, DecisionService};
use dssddi_kb::{KbError, KbInfo, KnowledgeBase};
use dssddi_obs::trace::{next_trace_id, SpanRecorder, Stage, TraceExemplar, TraceRing};
use dssddi_obs::MetricsRegistry;

use crate::admission::{AdmissionConfig, GlobalQueue, TokenBucket};
use crate::telemetry::{GatewayMetrics, ModelMetrics, ReplicaState};
use crate::wire::{self, ErrorCode, Request, Response, SyncArtifact};
use crate::ServingError;

/// Maximum length of a model key, in bytes.
pub const MAX_MODEL_KEY_LEN: usize = 64;

/// Slow-request exemplars the gateway keeps (top-K by end-to-end latency),
/// served by the `TraceDump` wire message. Small enough that the snapshot a
/// dump clones is negligible next to one model call.
const TRACE_RING_CAPACITY: usize = 64;

/// Identifies one model shard in the catalog (e.g. `chronic`,
/// `mimic/icu`, `region-hk.hypertension`).
///
/// Keys are non-empty, at most [`MAX_MODEL_KEY_LEN`] bytes, and restricted
/// to ASCII alphanumerics plus `-`, `_`, `.` and `/` — a charset that
/// survives command lines, file names and log lines unescaped.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelKey(String);

impl ModelKey {
    /// Validates and wraps a key.
    pub fn new(key: impl Into<String>) -> Result<Self, ServingError> {
        let key = key.into();
        if key.is_empty() {
            return Err(ServingError::InvalidKey {
                what: "model keys must be non-empty".to_string(),
            });
        }
        if key.len() > MAX_MODEL_KEY_LEN {
            return Err(ServingError::InvalidKey {
                what: format!(
                    "model key is {} bytes, above the {MAX_MODEL_KEY_LEN}-byte limit",
                    key.len()
                ),
            });
        }
        if let Some(bad) = key
            .chars()
            .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | '/')))
        {
            return Err(ServingError::InvalidKey {
                what: format!(
                    "model key {key:?} contains {bad:?}; allowed are ASCII alphanumerics \
                     and '-', '_', '.', '/'"
                ),
            });
        }
        Ok(ModelKey(key))
    }

    /// The key as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ModelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for ModelKey {
    type Err = ServingError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ModelKey::new(s)
    }
}

/// What a gateway advertises about one shard in `ListModels` responses:
/// enough for a remote caller to pick a shard and size requests for it
/// without holding the training data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// The shard's routing key.
    pub key: ModelKey,
    /// True when the shard carries a trained model (suggestion works);
    /// false for support-only shards (prescription critique only).
    pub fitted: bool,
    /// Number of drugs in the shard's formulary.
    pub n_drugs: usize,
    /// Length of the feature vectors the shard's model expects
    /// (`None` for support-only shards).
    pub n_features: Option<usize>,
    /// FNV digest of the shard's DID-ordered drug names — lets a caller
    /// verify it holds the same formulary before trusting returned DIDs.
    pub registry_digest: u64,
    /// The DDIGCN backbone the shard was configured with.
    pub backbone: String,
    /// Version of the shard's clinical knowledge base.
    pub kb_version: u64,
}

/// Per-model serving statistics, read from the shard's
/// `dssddi_model_*{model="<key>"}` series in the gateway's registry.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStats {
    /// Individual requests served (a batch of 16 counts 16).
    pub requests: u64,
    /// Requests that ended in an error.
    pub errors: u64,
    /// Errors broken down by wire [`ErrorCode`], in code order; codes with
    /// no occurrence are omitted.
    pub errors_by_code: Vec<(ErrorCode, u64)>,
    /// Suggestion explanations the memo answered for the shard's current
    /// service. Counted per service, so the count restarts when a model
    /// swap installs a new one, even when the new service keeps the
    /// shard's memo, and it leaves out other shards sharing that memo.
    pub cache_hits: u64,
    /// Suggestion explanations that ran a community search for the shard's
    /// current service (counted as `cache_hits` is).
    pub cache_misses: u64,
    /// Median routed-call latency in milliseconds, estimated from the
    /// shard's log-bucket histogram (`dssddi_model_latency_micros`) over
    /// every sample since the shard was inserted, to within about 3% — the
    /// estimator `/metrics` renders. On the network path the sample covers
    /// response encoding too (the frame a client waits for), not just the
    /// model call.
    pub p50_ms: f64,
    /// 99th-percentile routed-call latency in milliseconds, from the same
    /// histogram.
    pub p99_ms: f64,
    /// Individual requests shed by admission control (rate limit, in-flight
    /// quota or full gateway queue) before reaching the model. Shed
    /// requests never executed, so they count neither as `requests` nor as
    /// `errors`.
    pub shed_requests: u64,
    /// Routed calls currently executing (or queued) against this shard — a
    /// gauge, not a counter.
    pub in_flight: u64,
    /// Most callers ever observed waiting in the gateway's bounded request
    /// queue when a call for this shard was admitted.
    pub queue_depth_hwm: u64,
    /// Latency samples ever recorded for this shard (the histogram's exact
    /// count), so a dashboard polling `Stats` can weight and diff
    /// percentile snapshots between scrapes.
    pub samples: u64,
}

impl ModelStats {
    /// Fraction of explanation lookups answered from the cache
    /// (0.0 when nothing has been looked up yet).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Gateway-wide transport statistics — connection-level accounting the
/// per-model counters cannot see. Served in `Stats` responses next to the
/// per-model entries; an in-process router with no network server attached
/// reports zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Connections the server ever accepted.
    pub connections_accepted: u64,
    /// Connections currently being served — a gauge, not a counter.
    pub connections_active: u64,
    /// Connections refused at accept because the server's connection bound
    /// was reached (each got a typed `Overloaded` error frame, then close).
    pub connections_shed: u64,
    /// Connections reaped because a peer stalled mid-frame past the
    /// server's per-frame deadline — the slow-loris defense.
    pub stalled_reaped: u64,
}

/// One shard's artifact versions, as exchanged between replicas by the
/// `PeerStatus` wire message and reported in [`ReplicaStats`]: the monotone
/// model version the gateway assigns on every swap, and the knowledge
/// base's own version (which travels inside the `DSKB` container).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyVersions {
    /// The shard's routing key.
    pub key: ModelKey,
    /// Monotone version of the shard's trained model (starts at 1; bumped
    /// on every hot reload; adopted from the source on anti-entropy sync).
    pub model_version: u64,
    /// Version of the shard's knowledge base.
    pub kb_version: u64,
}

/// Replication statistics a replicated gateway appends to its `Stats`
/// response: how many peers it gossips with, what its anti-entropy loop has
/// pulled, and the per-key versions it currently certifies. Absent
/// (`None` in [`StatsReport`]) on gateways running without a replica agent.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplicaStats {
    /// Number of peer gateways in the replica group (not counting this one).
    pub peers: usize,
    /// Containers this replica's anti-entropy loop pulled from peers and
    /// applied locally.
    pub syncs: u64,
    /// Total bytes of those pulled containers.
    pub bytes_shipped: u64,
    /// Largest per-key version gap behind any peer observed by the most
    /// recent anti-entropy round, *before* that round's pulls (0 = fully
    /// converged when last polled).
    pub max_lag: u64,
    /// The per-key `(model_version, kb_version)` pairs this gateway holds,
    /// in key order.
    pub versions: Vec<KeyVersions>,
}

/// Everything a `Stats` request reports: per-model serving statistics plus
/// the gateway's transport-level counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReport {
    /// Per-model statistics, in key order.
    pub models: Vec<(ModelKey, ModelStats)>,
    /// Gateway-wide transport counters (zeros for in-process routers).
    pub gateway: GatewayStats,
    /// Replication statistics (`None` on unreplicated gateways).
    pub replica: Option<ReplicaStats>,
}

// Every serving lock is a leaf: a thread holds at most one at a time and
// takes it only through `dssddi_core::sync`, which recovers a poisoned lock
// (each guarded value stays valid whatever state a panicking thread left it
// in) and, in debug builds, panics on a nested acquisition. The five:
//
//   ModelEntry.artifacts        hot-swap slot; readers clone it and let go,
//                               installs compare versions and swap under
//                               one write guard
//   ExplanationEngine.memo      explanation memo, shared by every service
//                               over one graph; it holds memoized results only
//   ModelEntry.bucket           per-model token bucket, checked on admission
//   GlobalQueue.state           global queue counters; waiting on its condvar
//                               releases the lock
//   Router.traces               slow-request exemplar ring
//
/// What one hot swap replaces: a shard's service, its paired knowledge
/// base and its model version, read and swapped together so a version
/// always names the artifact installed with it.
#[derive(Clone)]
struct Artifacts {
    service: Arc<DecisionService>,
    kb: Arc<KnowledgeBase>,
    /// Monotone version of the shard's model: 1 on insert, bumped on every
    /// hot reload, adopted from the source replica on anti-entropy sync.
    /// (The knowledge base needs no twin — its version travels inside the
    /// `DSKB` container itself.)
    model_version: u64,
}

/// One shard: its swap slot and its serving counters. Requests in flight
/// finish on the `Arc`s they cloned from the slot; the counters are
/// registry cells *outside* the slot and survive every swap.
struct ModelEntry {
    artifacts: RwLock<Artifacts>,
    metrics: ModelMetrics,
    /// Token bucket of the shard's rate limit (`None` = unlimited),
    /// configured by [`Router::with_admission`].
    bucket: Mutex<Option<TokenBucket>>,
    /// In-flight quota of the shard (`None` = unlimited), configured by
    /// [`Router::with_admission`].
    quota: Option<u64>,
}

impl ModelEntry {
    /// The shard's current artifacts (requests in flight keep the `Arc`s
    /// they cloned across a concurrent swap).
    fn artifacts(&self) -> Artifacts {
        sync::read(&self.artifacts).clone()
    }

    fn info(&self, key: &ModelKey) -> ModelInfo {
        let Artifacts { service, kb, .. } = self.artifacts();
        ModelInfo {
            key: key.clone(),
            fitted: service.is_fitted(),
            n_drugs: service.registry().len(),
            n_features: service.n_features(),
            registry_digest: service.registry().digest(),
            backbone: service.config().ddi.backbone.name().to_string(),
            kb_version: kb.version(),
        }
    }
}

/// Pairs a service with the knowledge base a new shard starts from: seeded
/// from the shard's own DDI graph, so every gateway critique is
/// severity-graded from the first request (antagonistic edges of unknown
/// severity default to `Moderate`).
fn default_kb(service: &DecisionService) -> Result<KnowledgeBase, ServingError> {
    KnowledgeBase::from_ddi_graph(service.ddi_graph(), service.registry()).map_err(ServingError::Kb)
}

/// Checks that a replacement (service or KB) describes the same formulary
/// as the shard it replaces.
fn check_digest(key: &ModelKey, current: u64, replacement: u64) -> Result<(), ServingError> {
    if current != replacement {
        return Err(ServingError::FormularyMismatch {
            key: key.as_str().to_string(),
            what: format!(
                "shard serves registry digest {current:#018x} but the replacement \
                 describes {replacement:#018x}"
            ),
        });
    }
    Ok(())
}

/// Owns the loaded model shards of a gateway, keyed by [`ModelKey`], and
/// the gateway's [`MetricsRegistry`], where each shard's series are
/// registered as it is inserted.
#[derive(Default)]
pub struct ModelCatalog {
    models: BTreeMap<ModelKey, ModelEntry>,
    registry: Arc<MetricsRegistry>,
}

impl ModelCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered shards.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no shard is registered.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The registered keys, in sorted order.
    pub fn keys(&self) -> Vec<&ModelKey> {
        self.models.keys().collect()
    }

    /// The service behind a key, when registered. The returned `Arc` is a
    /// snapshot: a concurrent [`ModelCatalog::install`] does not change it.
    pub fn service(&self, key: &ModelKey) -> Option<Arc<DecisionService>> {
        self.models.get(key).map(|entry| entry.artifacts().service)
    }

    /// The knowledge base paired with a key, when registered (snapshot
    /// semantics as for [`ModelCatalog::service`]).
    pub fn kb(&self, key: &ModelKey) -> Option<Arc<KnowledgeBase>> {
        self.models.get(key).map(|entry| entry.artifacts().kb)
    }

    /// Registers an in-process service under a key, paired with a knowledge
    /// base seeded from its DDI graph. Each key routes to exactly one
    /// shard; re-registering is a typed error — replacing a live shard's
    /// artifact is an explicit [`ModelCatalog::install`], never an
    /// accidental insert.
    pub fn insert(&mut self, key: ModelKey, service: DecisionService) -> Result<(), ServingError> {
        let kb = default_kb(&service)?;
        self.insert_with_kb(key, service, kb)
    }

    /// Registers a service under a key with an explicit knowledge base,
    /// which must grade the service's formulary. A service over the DDI
    /// graph and MS configuration of a registered shard adopts that shard's
    /// explanation engine, so the two share one index and one memo.
    pub fn insert_with_kb(
        &mut self,
        key: ModelKey,
        mut service: DecisionService,
        kb: KnowledgeBase,
    ) -> Result<(), ServingError> {
        if self.models.contains_key(&key) {
            return Err(ServingError::DuplicateModel {
                key: key.as_str().to_string(),
            });
        }
        check_digest(&key, service.registry().digest(), kb.registry_digest())?;
        for entry in self.models.values() {
            if service.adopt_explanation_engine(&entry.artifacts().service) {
                break;
            }
        }
        let entry = ModelEntry {
            artifacts: RwLock::new(Artifacts {
                service: Arc::new(service),
                kb: Arc::new(kb),
                model_version: 1,
            }),
            metrics: ModelMetrics::register(&self.registry, &key),
            bucket: Mutex::new(None),
            quota: None,
        };
        self.models.insert(key, entry);
        Ok(())
    }

    /// Loads a `DSSD` file into the catalog, reconstructing the formulary
    /// from the registry embedded in the file
    /// ([`DecisionService::load_with_embedded_registry`]) — the usual path
    /// for a serving host that receives only trained artifacts.
    pub fn load_file(&mut self, key: ModelKey, path: impl AsRef<Path>) -> Result<(), ServingError> {
        let service = DecisionService::load_with_embedded_registry(path)?;
        self.insert(key, service)
    }

    /// Loads a `DSKB` file as the knowledge base of an already registered
    /// shard, replacing the seeded (or previously loaded) one through
    /// [`ModelCatalog::install`].
    pub fn load_kb_file(&self, key: &ModelKey, path: impl AsRef<Path>) -> Result<(), ServingError> {
        let path = path.as_ref();
        let container = std::fs::read(path).map_err(|e| KbError::Io {
            what: format!("reading {}: {e}", path.display()),
        })?;
        self.install(key, SyncArtifact::Kb, &container, None)
            .map(drop)
    }

    fn entry(&self, key: &ModelKey) -> Result<&ModelEntry, ServingError> {
        self.models
            .get(key)
            .ok_or_else(|| ServingError::UnknownModel {
                key: key.as_str().to_string(),
                available: self.models.keys().map(|k| k.as_str().to_string()).collect(),
            })
    }

    /// Installs a sealed artifact — a `DSSD` model or a `DSKB` knowledge
    /// base container — into a live shard, and returns whether it did.
    ///
    /// `pulled` names the caller:
    /// - `None` is an operator reload. It always installs; a model's
    ///   version is bumped, making this gateway the artifact's new source.
    /// - `Some(version)` is a replica pull. It installs only what is newer
    ///   than the shard holds — a model at `version`, a knowledge base at
    ///   the version its container carries — so a pulled artifact never
    ///   re-propagates as fresh, and a stale or duplicate pull is a no-op
    ///   returning `false`.
    ///
    /// The container is decoded first, before the key is looked up and
    /// outside the slot's lock, so readers never wait on a decode. A model
    /// over the shard's DDI graph and MS configuration then adopts the
    /// shard's explanation engine, still outside the write guard; adoption
    /// holds against any service with an equal graph and configuration, so
    /// a racing install cannot make it wrong. The replacement must describe
    /// the shard's formulary (registry digest); its paired artifact and the
    /// shard's serving counters carry over. Versions are compared and the
    /// artifact installed under one write guard, so a concurrent install
    /// cannot slip in between. Requests in flight finish on the artifact
    /// they started with, new requests route to the replacement.
    pub fn install(
        &self,
        key: &ModelKey,
        artifact: SyncArtifact,
        container: &[u8],
        pulled: Option<u64>,
    ) -> Result<bool, ServingError> {
        match artifact {
            SyncArtifact::Model => {
                let mut service = DecisionService::load_with_embedded_registry_bytes(container)?;
                let entry = self.entry(key)?;
                service.adopt_explanation_engine(&entry.artifacts().service);
                let mut slot = sync::write(&entry.artifacts);
                check_digest(
                    key,
                    slot.service.registry().digest(),
                    service.registry().digest(),
                )?;
                let newer = pulled.is_none_or(|version| version > slot.model_version);
                if newer {
                    slot.service = Arc::new(service);
                    slot.model_version = pulled.unwrap_or(slot.model_version.saturating_add(1));
                }
                Ok(newer)
            }
            SyncArtifact::Kb => {
                let kb = KnowledgeBase::from_container_bytes(container)?;
                let mut slot = sync::write(&self.entry(key)?.artifacts);
                check_digest(key, slot.service.registry().digest(), kb.registry_digest())?;
                let newer = pulled.is_none() || kb.version() > slot.kb.version();
                if newer {
                    slot.kb = Arc::new(kb);
                }
                Ok(newer)
            }
        }
    }

    /// The per-key `(model_version, kb_version)` pairs this catalog holds,
    /// in key order — the version vector `PeerStatus` exchanges.
    pub fn version_vector(&self) -> Vec<KeyVersions> {
        self.models
            .iter()
            .map(|(key, entry)| {
                let slot = entry.artifacts();
                KeyVersions {
                    key: key.clone(),
                    model_version: slot.model_version,
                    kb_version: slot.kb.version(),
                }
            })
            .collect()
    }
}

impl fmt::Debug for ModelCatalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelCatalog")
            .field("models", &self.keys())
            .finish()
    }
}

/// Releases a routed call's admission state when the call finishes (or the
/// calling thread unwinds): decrements the shard's in-flight gauge and
/// frees the gateway queue slot the call held.
struct AdmissionGuard<'a> {
    entry: &'a ModelEntry,
    queue: Option<&'a GlobalQueue>,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.entry.metrics.in_flight.dec();
        if let Some(queue) = self.queue {
            queue.release();
        }
    }
}

/// Routes typed requests to the right catalog shard and records per-model
/// serving statistics. The router is `Sync`: one instance serves all
/// connection threads of a gateway, including the hot-reload operations.
///
/// Admission control (see [`crate::admission`]) is opt-in through
/// [`Router::with_admission`]: data-plane requests (`Suggest`,
/// `SuggestBatch`, `CheckPrescription`) pass the shard's token bucket, the
/// shard's in-flight quota and the gateway's bounded request queue before
/// they execute, and are shed with a typed
/// [`ServingError::Overloaded`] otherwise. Control-plane messages
/// (`ListModels`, `Stats`, reloads, `KbInfo`, `Shutdown`) bypass admission
/// so operators can always observe and repair an overloaded gateway.
#[derive(Debug)]
pub struct Router {
    catalog: ModelCatalog,
    /// Bounded gateway-wide request queue (`None` = unbounded).
    queue: Option<GlobalQueue>,
    /// Epoch of the token buckets' timestamps.
    origin: Instant,
    /// The gateway-wide series of the catalog's registry.
    pub(crate) metrics: GatewayMetrics,
    /// Whether a replica agent syncs this gateway (see
    /// [`Router::attach_replica`]); unreplicated routers omit the `Stats`
    /// replica section.
    replicated: bool,
    /// Top-K slowest-request exemplars, served by the `TraceDump` wire
    /// message. Touched once per data-plane frame, after the response is
    /// encoded and with no other serving lock held.
    traces: Mutex<TraceRing>,
}

impl Router {
    /// A router over a catalog with no admission limits (every request is
    /// admitted; the in-flight gauge is still maintained).
    pub fn new(catalog: ModelCatalog) -> Self {
        Self::with_admission(catalog, AdmissionConfig::default())
    }

    /// A router over a catalog with admission control: per-model token
    /// buckets and in-flight quotas from `config`, plus the bounded global
    /// request queue when `config.max_in_flight` is set.
    pub fn with_admission(mut catalog: ModelCatalog, config: AdmissionConfig) -> Self {
        for (key, entry) in catalog.models.iter_mut() {
            entry.bucket = Mutex::new(config.rate_for(key).map(|limit| TokenBucket::new(limit, 0)));
            entry.quota = config.quota_for(key);
        }
        let queue = config
            .max_in_flight
            .map(|slots| GlobalQueue::new(slots, config.max_queue_depth, config.queue_wait));
        Self {
            metrics: GatewayMetrics::register(&catalog.registry),
            catalog,
            queue,
            origin: Instant::now(),
            replicated: false,
            traces: Mutex::new(TraceRing::new(TRACE_RING_CAPACITY)),
        }
    }

    /// Arms the replication section of `Stats` responses and returns the
    /// replica counters for the agent that syncs this gateway to write.
    /// Call it while the router is still exclusively owned (before
    /// `Server::bind` shares it).
    pub fn attach_replica(&mut self) -> ReplicaState {
        self.replicated = true;
        self.metrics.replica.clone()
    }

    /// The catalog behind the router.
    pub fn catalog(&self) -> &ModelCatalog {
        &self.catalog
    }

    /// The gateway's registry, the one store of every count `Stats`
    /// reports — what `dssddi-serve --metrics-listen` serves.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.catalog.registry
    }

    /// Nanoseconds since the router's construction — the timestamp domain
    /// of its token buckets.
    fn origin_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Admits (or sheds) one routed call of `n_requests` individual
    /// requests against a shard. On admission the returned guard holds the
    /// shard's in-flight slot and the gateway queue slot until dropped; on
    /// shed the shard's `shed_requests` counter grows by `n_requests` and
    /// the caller gets a typed [`ServingError::Overloaded`]. The admission
    /// decision and any queue wait are recorded into `span` (and the
    /// gateway-wide shed/queue-wait metric families).
    fn admit<'a>(
        &'a self,
        key: &ModelKey,
        entry: &'a ModelEntry,
        n_requests: u64,
        span: &mut SpanRecorder,
    ) -> Result<AdmissionGuard<'a>, ServingError> {
        let (metrics, shard) = (&self.metrics, &entry.metrics);
        let admit_start = Instant::now();
        let shed = |what: &str| {
            shard.shed.add(n_requests);
            Err(ServingError::Overloaded {
                key: key.as_str().to_string(),
                what: what.to_string(),
            })
        };
        if let Some(bucket) = sync::lock(&entry.bucket).as_mut() {
            if !bucket.try_acquire_at(n_requests as f64, self.origin_nanos()) {
                span.record(Stage::Admit, elapsed_micros(admit_start));
                metrics.shed_rate.add(n_requests);
                return shed("per-model rate limit exhausted");
            }
        }
        let prior = shard.in_flight.inc();
        if entry.quota.is_some_and(|quota| prior >= quota) {
            shard.in_flight.dec();
            span.record(Stage::Admit, elapsed_micros(admit_start));
            metrics.shed_quota.add(n_requests);
            return shed("per-model in-flight quota exhausted");
        }
        span.record(Stage::Admit, elapsed_micros(admit_start));
        if let Some(queue) = &self.queue {
            let queue_start = Instant::now();
            let outcome = queue.acquire();
            let wait = elapsed_micros(queue_start);
            span.record(Stage::Queue, wait);
            metrics.queue_wait.observe(wait);
            match outcome {
                Ok(depth) => shard.queue_hwm.raise_to(depth as u64),
                Err(()) => {
                    shard.in_flight.dec();
                    metrics.shed_queue.add(n_requests);
                    return shed("gateway request queue full");
                }
            }
        }
        Ok(AdmissionGuard {
            entry,
            queue: self.queue.as_ref(),
        })
    }

    /// Runs one call on the shard behind `key` once admission control lets
    /// it through, recording request count and outcome (with its error
    /// class) — no latency sample; the caller owns the sample point. Shed
    /// calls never reach the shard and record neither requests nor latency.
    fn routed_core<T>(
        &self,
        key: &ModelKey,
        n_requests: u64,
        span: &mut SpanRecorder,
        call: impl FnOnce(&DecisionService, &KnowledgeBase) -> Result<T, dssddi_core::CoreError>,
    ) -> Result<T, ServingError> {
        let entry = self.catalog.entry(key)?;
        let _guard = self.admit(key, entry, n_requests, span)?;
        let Artifacts { service, kb, .. } = entry.artifacts();
        let result = call(&service, &kb).map_err(ServingError::Core);
        let error = result.as_ref().err().map(ErrorCode::classify);
        self.metrics
            .record_outcome(&entry.metrics, n_requests, error);
        result
    }

    /// Serves a `PeerSync` pull: one shard's complete container plus the
    /// version the bytes certify, both from one snapshot of the swap slot.
    fn peer_sync(&self, key: &ModelKey, artifact: SyncArtifact) -> Result<Response, ServingError> {
        let slot = self.catalog.entry(key)?.artifacts();
        let (version, container) = match artifact {
            SyncArtifact::Model => (slot.model_version, slot.service.to_container_bytes()),
            SyncArtifact::Kb => (slot.kb.version(), slot.kb.to_container_bytes()),
        };
        Ok(Response::PeerSync {
            model: key.clone(),
            artifact,
            version,
            container,
        })
    }

    /// The summary of the knowledge base paired with a shard.
    pub fn kb_info(&self, key: &ModelKey) -> Result<KbInfo, ServingError> {
        Ok(self.catalog.entry(key)?.artifacts().kb.info())
    }

    /// Advertises every shard, in key order.
    pub fn list_models(&self) -> Vec<ModelInfo> {
        self.catalog
            .models
            .iter()
            .map(|(key, entry)| entry.info(key))
            .collect()
    }

    /// The full statistics report a wire `Stats` request answers with:
    /// per-model entries in key order plus the gateway transport counters
    /// (zeros when no network server fronts this router), read from the
    /// same registry cells `/metrics` renders.
    pub fn stats_report(&self) -> StatsReport {
        let connections = &self.metrics.connections;
        let model_stats = |(key, entry): (&ModelKey, &ModelEntry)| {
            let cache = entry.artifacts().service.explanation_cache_stats();
            (key.clone(), entry.metrics.stats(cache))
        };
        StatsReport {
            models: self.catalog.models.iter().map(model_stats).collect(),
            gateway: GatewayStats {
                connections_accepted: connections.accepted.get(),
                connections_active: connections.active.get(),
                connections_shed: connections.shed.get(),
                stalled_reaped: connections.stalled.get(),
            },
            replica: self
                .replicated
                .then(|| self.metrics.replica.stats(self.catalog.version_vector())),
        }
    }

    /// Maps one decoded request to its response, converting routing/service
    /// errors into typed error frames — request counts and error classes
    /// recorded, but *no* latency sample: the caller owns the sample point.
    /// Reload operations are control-plane calls and do not count toward a
    /// shard's request statistics. The request's span is threaded through
    /// admission, so shed/queue time lands on the caller's trace.
    fn dispatch_traced(&self, request: &Request, span: &mut SpanRecorder) -> Response {
        let result = match request {
            Request::Suggest { model, request } => self
                .routed_core(model, 1, span, |service, kb| {
                    service.suggest_with_kb(request, Some(kb))
                })
                .map(Response::Suggest),
            Request::SuggestBatch { model, requests } => self
                .routed_core(model, requests.len() as u64, span, |service, kb| {
                    service.suggest_batch_with_kb(requests, Some(kb))
                })
                .map(Response::SuggestBatch),
            Request::CheckPrescription { model, request } => self
                .routed_core(model, 1, span, |service, kb| {
                    service.check_prescription_with_kb(request, Some(kb))
                })
                .map(|report| {
                    self.metrics.count_severities(&report);
                    Response::CheckPrescription(report)
                }),
            Request::ReloadModel { model, container } => self
                .catalog
                .install(model, SyncArtifact::Model, container, None)
                .and_then(|_| {
                    Ok(Response::ModelReloaded(
                        self.catalog.entry(model)?.info(model),
                    ))
                }),
            Request::ReloadKb { model, container } => self
                .catalog
                .install(model, SyncArtifact::Kb, container, None)
                .and_then(|_| self.kb_info(model).map(Response::KbReloaded)),
            Request::KbInfo { model } => self.kb_info(model).map(Response::KbInfo),
            Request::ListModels => Ok(Response::ListModels(self.list_models())),
            Request::Stats => Ok(Response::Stats(self.stats_report())),
            // Ping is pure control-plane liveness: it touches no shard and
            // bypasses admission, so health checks keep answering while the
            // data plane sheds load.
            Request::Ping => Ok(Response::Pong),
            // Peer messages are replication control plane: they bypass
            // admission (a loaded gateway must still converge) and count
            // toward no shard's request statistics. The requester's vector
            // is gossip — this side answers with its own and lets each
            // agent pull what it lags on.
            Request::PeerStatus { versions: _ } => Ok(Response::PeerStatus {
                versions: self.catalog.version_vector(),
            }),
            Request::PeerSync { model, artifact } => self.peer_sync(model, *artifact),
            // Trace dumps are observability control plane: they bypass
            // admission so a saturated gateway can still be inspected.
            Request::TraceDump { limit } => Ok(Response::TraceDump(
                self.trace_exemplars(usize::try_from(*limit).unwrap_or(usize::MAX)),
            )),
            Request::Shutdown => Ok(Response::ShuttingDown),
        };
        result.unwrap_or_else(|error| wire::error_response(&error))
    }

    /// The slowest recently served data-plane requests, slowest first —
    /// what a wire `TraceDump` answers with. `limit` of zero returns the
    /// whole exemplar ring.
    pub fn trace_exemplars(&self, limit: usize) -> Vec<TraceExemplar> {
        sync::lock(&self.traces).snapshot(limit)
    }

    /// Records one latency sample against the shard a data-plane request
    /// was admitted to. Control-plane messages are not clinical serving
    /// latency, and a call admission control shed never reached the shard.
    fn record_request_latency(&self, request: &Request, response: &Response, start: Instant) {
        let shed = matches!(
            response,
            Response::Error {
                code: ErrorCode::Overloaded,
                ..
            }
        );
        let shard = Self::data_plane(request).and_then(|(key, _)| self.catalog.models.get(key));
        if let Some(entry) = shard.filter(|_| !shed) {
            entry.metrics.latency.observe(elapsed_micros(start));
        }
    }

    /// Maps one decoded request to its response, converting routing/service
    /// errors into typed error frames. Admitted data-plane requests record
    /// exactly one latency sample covering the routed call.
    pub fn serve(&self, request: &Request) -> Response {
        let start = Instant::now();
        let response = self.dispatch_traced(request, &mut SpanRecorder::new(0));
        self.record_request_latency(request, &response, start);
        response
    }

    /// [`Router::serve`] plus response encoding, returning the sealed frame,
    /// with the request's wire trace threaded through: `trace` is the trace
    /// ID the client propagated (the gateway mints one when the client sent
    /// none, so untraced traffic still fills the exemplar ring) and
    /// `decode_micros` is the time the transport spent opening the request
    /// frame it had read (checksum and trace extension) and decoding its
    /// body.
    ///
    /// This is the network server's entry point, and where the shard's
    /// latency sample is taken — exactly one per admitted request,
    /// covering the routed call *and* the wire encode, so the p50/p99 a
    /// `Stats` caller sees is the time a client actually waits between
    /// frames: encoding a batch of explanation subgraphs is real serving
    /// cost, not free.
    ///
    /// Stage accounting is exact by construction: `infer` is the dispatch
    /// time net of admission and queueing, so the five stage values sum to
    /// the recorded end-to-end latency (up to microsecond truncation).
    pub fn serve_framed_traced(
        &self,
        request: &Request,
        trace: Option<u64>,
        decode_micros: u64,
    ) -> Vec<u8> {
        let metrics = &self.metrics;
        let mut span = SpanRecorder::new(trace.unwrap_or_else(next_trace_id));
        span.record(Stage::Decode, decode_micros);
        let start = Instant::now();
        let response = self.dispatch_traced(request, &mut span);
        let dispatch_micros = elapsed_micros(start);
        let encode_start = Instant::now();
        let frame = wire::encode_response_traced(&response, trace);
        span.record(Stage::Encode, elapsed_micros(encode_start));
        self.record_request_latency(request, &response, start);
        let admission = span
            .stage_micros(Stage::Admit)
            .saturating_add(span.stage_micros(Stage::Queue));
        span.record(Stage::Infer, dispatch_micros.saturating_sub(admission));
        let total = decode_micros
            .saturating_add(dispatch_micros)
            .saturating_add(span.stage_micros(Stage::Encode));
        metrics.latency.observe(total);
        for (stage, histogram) in Stage::ALL.into_iter().zip(&metrics.stages) {
            histogram.observe(span.stage_micros(stage));
        }
        if let Some((model, op)) = Self::data_plane(request) {
            let exemplar = span.into_exemplar(model.to_string(), op.to_string(), total);
            sync::lock(&self.traces).offer(exemplar);
        }
        frame
    }

    /// The shard key and operation name of a data-plane request — the
    /// requests that take a shard's latency sample and are eligible for
    /// the slow-request exemplar ring.
    fn data_plane(request: &Request) -> Option<(&ModelKey, &'static str)> {
        match request {
            Request::Suggest { model, .. } => Some((model, "suggest")),
            Request::SuggestBatch { model, .. } => Some((model, "suggest_batch")),
            Request::CheckPrescription { model, .. } => Some((model, "check_prescription")),
            Request::ReloadModel { .. }
            | Request::ReloadKb { .. }
            | Request::KbInfo { .. }
            | Request::ListModels
            | Request::Stats
            | Request::Ping
            | Request::PeerStatus { .. }
            | Request::PeerSync { .. }
            | Request::TraceDump { .. }
            | Request::Shutdown => None,
        }
    }
}

fn elapsed_micros(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_keys_validate_charset_and_length() {
        for good in ["chronic", "mimic/icu", "region-hk.hypertension_v2", "a"] {
            assert_eq!(ModelKey::new(good).unwrap().as_str(), good);
        }
        for bad in ["", "white space", "naïve", "semi;colon", "tab\there"] {
            assert!(matches!(
                ModelKey::new(bad),
                Err(ServingError::InvalidKey { .. })
            ));
        }
        assert!(ModelKey::new("k".repeat(MAX_MODEL_KEY_LEN)).is_ok());
        assert!(ModelKey::new("k".repeat(MAX_MODEL_KEY_LEN + 1)).is_err());
        let parsed: ModelKey = "chronic".parse().unwrap();
        assert_eq!(parsed.to_string(), "chronic");
    }

    /// Each round races a replica pull (`install(.., Some(version))`)
    /// against an operator reload (`install(.., None)`) and a concurrent
    /// `PeerSync`. The pull offers what is newer than the round's starting
    /// state but older than the reload, so whichever order they land in, the
    /// acknowledged reload must be what stays live, and every `PeerSync` must
    /// ship the artifact installed at the version it reports.
    #[test]
    fn a_racing_pull_never_undoes_an_acknowledged_reload() {
        use crate::demo::{demo_world, DEMO_SEED};
        use crate::wire::SyncArtifact::{Kb, Model};

        let world = demo_world(DEMO_SEED).unwrap();
        let support = |alpha| {
            let builder = dssddi_core::ServiceBuilder::fast().alpha(alpha);
            builder.build_support(&world.ddi).unwrap()
        };
        let key = ModelKey::new("critique").unwrap();
        let mut catalog = ModelCatalog::new();
        catalog.insert(key.clone(), support(0.5)).unwrap();
        let router = Router::new(catalog);
        // Reloads alternate between two models; the peer offers a third.
        let reloads = [support(0.2), support(0.4)].map(|s| s.to_container_bytes());
        let pulled = support(0.6).to_container_bytes();
        assert_ne!(reloads[0], reloads[1]);
        let seeded = router.catalog().kb(&key).unwrap();
        let fact = seeded.facts().next().unwrap().1.clone();
        let mut kb = KnowledgeBase::new(&world.registry);
        let peer_sync = |artifact| match router.peer_sync(&key, artifact).unwrap() {
            Response::PeerSync {
                version, container, ..
            } => (version, container),
            other => panic!("PeerSync answered {other:?}"),
        };
        for round in 1..=200u64 {
            let (before, live) = peer_sync(Model);
            let reload = &reloads[round as usize % 2];
            // The peer offers KB version 2 * round - 1; the reload is one newer.
            kb.upsert(0, 1, fact.clone()).unwrap();
            let pulled_kb = kb.to_container_bytes();
            kb.upsert(0, 1, fact.clone()).unwrap();
            let reloaded_kb = kb.to_container_bytes();
            let barrier = std::sync::Barrier::new(3);
            let pulled_model = std::thread::scope(|scope| {
                let peer = scope.spawn(|| {
                    barrier.wait();
                    let catalog = router.catalog();
                    catalog
                        .install(&key, Kb, &pulled_kb, Some(2 * round - 1))
                        .unwrap();
                    catalog
                        .install(&key, Model, &pulled, Some(before + 1))
                        .unwrap()
                });
                let observer = scope.spawn(|| {
                    barrier.wait();
                    let legal = [
                        (before, &live),
                        (before + 1, &pulled),
                        (before + 1, reload),
                        (before + 2, reload),
                    ];
                    // Poll until the reload is live; once live it stays.
                    for _ in 0..100_000 {
                        let (version, container) = peer_sync(Model);
                        let installed = legal.contains(&(version, &container));
                        assert!(installed, "round {round}: v{version} shipped another model");
                        if container == *reload {
                            break;
                        }
                    }
                });
                barrier.wait();
                let catalog = router.catalog();
                catalog.install(&key, Kb, &reloaded_kb, None).unwrap();
                catalog.install(&key, Model, reload, None).unwrap();
                observer.join().unwrap();
                peer.join().unwrap()
            });
            let live_kb = (2 * round, reloaded_kb);
            assert_eq!(peer_sync(Kb), live_kb, "round {round}: reloaded KB lost");
            let live_model = (before + 1 + u64::from(pulled_model), reload.clone());
            assert_eq!(
                peer_sync(Model),
                live_model,
                "round {round}: reloaded model lost"
            );
        }
    }

    #[test]
    fn cache_hit_rate_handles_zero_lookups() {
        let stats = ModelStats {
            requests: 0,
            errors: 0,
            errors_by_code: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
            p50_ms: 0.0,
            p99_ms: 0.0,
            shed_requests: 0,
            in_flight: 0,
            queue_depth_hwm: 0,
            samples: 0,
        };
        assert_eq!(stats.cache_hit_rate(), 0.0);
        let stats = ModelStats {
            cache_hits: 3,
            cache_misses: 1,
            ..stats
        };
        assert_eq!(stats.cache_hit_rate(), 0.75);
    }
}
