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
//! hit rate, and p50/p99 latency over a sliding window — surfaced locally
//! via [`Router::stats`] and remotely via the `Stats` wire message.
//!
//! ## Hot reload
//!
//! Both halves of a shard sit behind their own `RwLock<Arc<...>>`, so a
//! re-trained model ([`ModelCatalog::replace`], wire `ReloadModel`) or an
//! updated knowledge base ([`ModelCatalog::replace_kb`], wire `ReloadKb`)
//! can be swapped in *under a live key with zero dropped connections*:
//! requests in flight finish on the `Arc` they cloned, new requests pick up
//! the replacement, and the shard's serving counters survive the swap. A
//! replacement must describe the same formulary (registry digest) as the
//! shard it replaces — a gateway that silently swapped formularies under a
//! live key would resolve the same DIDs to different drugs.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use dssddi_core::DecisionService;
use dssddi_data::DrugRegistry;
use dssddi_kb::{KbInfo, KnowledgeBase};
use dssddi_obs::trace::{next_trace_id, SpanRecorder, Stage, TraceExemplar, TraceRing};

use crate::admission::{AdmissionConfig, GlobalQueue, TokenBucket};
use crate::telemetry;
use crate::wire::{self, ErrorCode, Request, Response};
use crate::ServingError;

/// Maximum length of a model key, in bytes.
pub const MAX_MODEL_KEY_LEN: usize = 64;

/// Latency samples kept per model for the percentile estimates: enough for
/// stable p99 figures, small enough that a long-lived gateway's stats stay
/// O(1) per shard.
const LATENCY_WINDOW: usize = 1024;

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

/// Per-model serving statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStats {
    /// Individual requests served (a batch of 16 counts 16).
    pub requests: u64,
    /// Requests that ended in an error.
    pub errors: u64,
    /// Errors broken down by wire [`ErrorCode`], in code order; codes with
    /// no occurrence are omitted.
    pub errors_by_code: Vec<(ErrorCode, u64)>,
    /// Cumulative explanation-cache hits of the shard's service.
    pub cache_hits: u64,
    /// Cumulative explanation-cache misses of the shard's service.
    pub cache_misses: u64,
    /// Median routed-call latency in milliseconds over the sliding window.
    /// On the network path the sample covers response encoding too (the
    /// frame a client waits for), not just the model call.
    pub p50_ms: f64,
    /// 99th-percentile routed-call latency in milliseconds over the window.
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
    /// Latency samples ever recorded for this shard. Unlike `p50_ms`/
    /// `p99_ms` (which cover only the sliding window), this counts every
    /// sample, so a dashboard polling `Stats` can weight and diff
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

/// Live replication counters, shared between the replica agent (which
/// updates them after every anti-entropy round) and the router (which
/// serves them on `Stats`). Mirrors the transport-counter pattern: the
/// agent's host attaches the state via [`Router::attach_replica`] while it
/// still owns the router exclusively, then hands the same `Arc` to the
/// agent — no lock joins the serving path.
#[derive(Debug, Default)]
pub struct ReplicaState {
    peers: AtomicU64,
    syncs: AtomicU64,
    bytes_shipped: AtomicU64,
    max_lag: AtomicU64,
}

impl ReplicaState {
    /// Records the replica group's peer count (excluding the local member).
    pub fn set_peers(&self, peers: usize) {
        self.peers.store(peers as u64, Ordering::Relaxed);
        telemetry::handles().replica_peers.set(peers as u64);
    }

    /// Records one pulled-and-applied container of `bytes` bytes.
    pub fn record_sync(&self, bytes: u64) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.bytes_shipped.fetch_add(bytes, Ordering::Relaxed);
        let metrics = telemetry::handles();
        metrics.replica_syncs.inc();
        metrics.replica_bytes.add(bytes);
    }

    /// Records the largest version gap behind any peer observed by the most
    /// recent anti-entropy round (0 when fully converged).
    pub fn set_lag(&self, lag: u64) {
        self.max_lag.store(lag, Ordering::Relaxed);
        telemetry::handles().replica_lag.set(lag);
    }

    /// The counters as a [`ReplicaStats`] skeleton (versions left empty —
    /// the router fills them from its catalog).
    fn snapshot(&self) -> ReplicaStats {
        ReplicaStats {
            peers: self.peers.load(Ordering::Relaxed) as usize,
            syncs: self.syncs.load(Ordering::Relaxed),
            bytes_shipped: self.bytes_shipped.load(Ordering::Relaxed),
            max_lag: self.max_lag.load(Ordering::Relaxed),
            versions: Vec::new(),
        }
    }
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

/// Sliding window of routed-call latencies (microseconds).
struct LatencyWindow {
    samples: Vec<u64>,
    /// Next slot to overwrite once the window is full.
    next: usize,
    /// Samples ever recorded, including those the window has since evicted.
    recorded: u64,
}

impl LatencyWindow {
    fn new() -> Self {
        Self {
            samples: Vec::with_capacity(LATENCY_WINDOW),
            next: 0,
            recorded: 0,
        }
    }

    fn record(&mut self, micros: u64) {
        self.recorded += 1;
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(micros);
        } else {
            self.samples[self.next] = micros;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        }
    }

    /// `(p50_ms, p99_ms)` over the window (zeros before the first sample).
    fn percentiles_ms(&self) -> (f64, f64) {
        if self.samples.is_empty() {
            return (0.0, 0.0);
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = |pct: f64| {
            let idx = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
            sorted[idx.min(sorted.len() - 1)] as f64 / 1e3
        };
        (rank(50.0), rank(99.0))
    }
}

/// Recovers a lock from poisoning: every guarded structure here (latency
/// window, swap slots) is valid whatever state a panicking thread left it
/// in, so serving continues.
fn relock<T>(result: Result<T, std::sync::PoisonError<T>>) -> T {
    result.unwrap_or_else(|poisoned| poisoned.into_inner())
}

// LOCK ORDER: the canonical nesting order for every lock on the serving
// path, outermost first. A lock may only be acquired while holding locks
// that appear EARLIER in this list. `dssddi-analyze` re-derives the
// acquisition graph from source and enforces this block: LOCK005 flags an
// edge against the order, LOCK003 a lock missing from the list, LOCK004 a
// stale entry. (The `GlobalQueue.freed` condvar is exempt: waiting on it
// atomically releases `GlobalQueue.state`.)
//
//   1. ModelEntry.latencies          stats() reads the window, then the service
//   2. ModelEntry.service            hot-swap slot, guards are short-lived clones
//   3. ModelEntry.kb                 hot-swap slot, taken after service in info()
//   4. DecisionService.explanations  explanation memo, leaf on the request path
//   5. ModelEntry.bucket             rate-limit check entering admission
//   6. GlobalQueue.state             global queue slots, innermost lock
//   7. Router.traces                 slow-request exemplar ring; taken with
//                                    no other serving lock held
//
/// One shard: the service, its paired knowledge base and its serving
/// counters. Service and KB each sit behind `RwLock<Arc<...>>` so hot
/// reload swaps the `Arc` while requests in flight finish on the one they
/// cloned; the counters live *outside* the locks and survive every swap.
struct ModelEntry {
    service: RwLock<Arc<DecisionService>>,
    kb: RwLock<Arc<KnowledgeBase>>,
    /// Monotone version of the shard's model: 1 on insert, bumped on every
    /// hot reload, adopted from the source replica on anti-entropy sync.
    /// (The knowledge base needs no twin — its version travels inside the
    /// `DSKB` container itself.)
    model_version: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    errors_by_code: [AtomicU64; ErrorCode::ALL.len()],
    latencies: Mutex<LatencyWindow>,
    /// Individual requests shed by admission control before execution.
    shed: AtomicU64,
    /// Routed calls currently executing (or queued) against this shard.
    in_flight: AtomicU64,
    /// High-water mark of the gateway queue depth observed by this shard's
    /// admitted calls.
    queue_hwm: AtomicU64,
    /// Token bucket of the shard's rate limit (`None` = unlimited),
    /// configured by [`Router::with_admission`].
    bucket: Mutex<Option<TokenBucket>>,
    /// In-flight quota of the shard (`None` = unlimited), configured by
    /// [`Router::with_admission`].
    quota: Option<u64>,
}

impl ModelEntry {
    fn new(service: DecisionService, kb: KnowledgeBase) -> Self {
        Self {
            service: RwLock::new(Arc::new(service)),
            kb: RwLock::new(Arc::new(kb)),
            model_version: AtomicU64::new(1),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            errors_by_code: std::array::from_fn(|_| AtomicU64::new(0)),
            latencies: Mutex::new(LatencyWindow::new()),
            shed: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            queue_hwm: AtomicU64::new(0),
            bucket: Mutex::new(None),
            quota: None,
        }
    }

    /// The shard's current service (requests in flight keep the `Arc` they
    /// cloned across a concurrent swap).
    fn service(&self) -> Arc<DecisionService> {
        relock(self.service.read()).clone()
    }

    /// The shard's current knowledge base.
    fn kb(&self) -> Arc<KnowledgeBase> {
        relock(self.kb.read()).clone()
    }

    /// Records one routed call's outcome: `n_requests` individual requests,
    /// and the error class when it failed.
    fn record_outcome(&self, n_requests: u64, error: Option<ErrorCode>) {
        let metrics = telemetry::handles();
        self.requests.fetch_add(n_requests, Ordering::Relaxed);
        metrics.requests.add(n_requests);
        if let Some(code) = error {
            self.errors.fetch_add(n_requests, Ordering::Relaxed);
            self.errors_by_code[code.index()].fetch_add(n_requests, Ordering::Relaxed);
            metrics.errors.add(n_requests);
        }
    }

    /// Records one latency sample for the percentile window.
    fn record_latency(&self, elapsed_micros: u64) {
        relock(self.latencies.lock()).record(elapsed_micros);
    }

    fn stats(&self) -> ModelStats {
        let (p50_ms, p99_ms, samples) = {
            let window = relock(self.latencies.lock());
            let (p50_ms, p99_ms) = window.percentiles_ms();
            (p50_ms, p99_ms, window.recorded)
        };
        let (cache_hits, cache_misses) = self.service().explanation_cache_stats();
        let errors_by_code = ErrorCode::ALL
            .iter()
            .filter_map(|&code| {
                let count = self.errors_by_code[code.index()].load(Ordering::Relaxed);
                (count > 0).then_some((code, count))
            })
            .collect();
        ModelStats {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            errors_by_code,
            cache_hits: cache_hits as u64,
            cache_misses: cache_misses as u64,
            p50_ms,
            p99_ms,
            shed_requests: self.shed.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            queue_depth_hwm: self.queue_hwm.load(Ordering::Relaxed),
            samples,
        }
    }

    fn info(&self, key: &ModelKey) -> ModelInfo {
        let service = self.service();
        ModelInfo {
            key: key.clone(),
            fitted: service.is_fitted(),
            n_drugs: service.registry().len(),
            n_features: service.n_features(),
            registry_digest: service.registry().digest(),
            backbone: service.config().ddi.backbone.name().to_string(),
            kb_version: self.kb().version(),
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

/// Owns the loaded model shards of a gateway, keyed by [`ModelKey`].
#[derive(Default)]
pub struct ModelCatalog {
    models: BTreeMap<ModelKey, ModelEntry>,
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
    /// snapshot: a concurrent [`ModelCatalog::replace`] does not change it.
    pub fn service(&self, key: &ModelKey) -> Option<Arc<DecisionService>> {
        self.models.get(key).map(ModelEntry::service)
    }

    /// The knowledge base paired with a key, when registered (snapshot
    /// semantics as for [`ModelCatalog::service`]).
    pub fn kb(&self, key: &ModelKey) -> Option<Arc<KnowledgeBase>> {
        self.models.get(key).map(ModelEntry::kb)
    }

    /// Registers an in-process service under a key, paired with a knowledge
    /// base seeded from its DDI graph. Each key routes to exactly one
    /// shard; re-registering is a typed error — replacing a live shard is
    /// an explicit [`ModelCatalog::replace`], never an accidental insert.
    pub fn insert(&mut self, key: ModelKey, service: DecisionService) -> Result<(), ServingError> {
        let kb = default_kb(&service)?;
        self.insert_with_kb(key, service, kb)
    }

    /// Registers a service under a key with an explicit knowledge base,
    /// which must grade the service's formulary.
    pub fn insert_with_kb(
        &mut self,
        key: ModelKey,
        service: DecisionService,
        kb: KnowledgeBase,
    ) -> Result<(), ServingError> {
        if self.models.contains_key(&key) {
            return Err(ServingError::DuplicateModel {
                key: key.as_str().to_string(),
            });
        }
        check_digest(&key, service.registry().digest(), kb.registry_digest())?;
        self.models.insert(key, ModelEntry::new(service, kb));
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

    /// Loads a `DSSD` file into the catalog, verifying it against a
    /// caller-held registry name by name ([`DecisionService::load`]).
    pub fn load_file_with_registry(
        &mut self,
        key: ModelKey,
        path: impl AsRef<Path>,
        registry: DrugRegistry,
    ) -> Result<(), ServingError> {
        let service = DecisionService::load(path, registry)?;
        self.insert(key, service)
    }

    /// Loads a `DSKB` file as the knowledge base of an already registered
    /// shard, replacing the seeded (or previously loaded) one.
    pub fn load_kb_file(&self, key: &ModelKey, path: impl AsRef<Path>) -> Result<(), ServingError> {
        let kb = KnowledgeBase::load(path).map_err(ServingError::Kb)?;
        self.replace_kb(key, kb)
    }

    fn entry(&self, key: &ModelKey) -> Result<&ModelEntry, ServingError> {
        self.models
            .get(key)
            .ok_or_else(|| ServingError::UnknownModel {
                key: key.as_str().to_string(),
                available: self.models.keys().map(|k| k.as_str().to_string()).collect(),
            })
    }

    /// Hot-swaps the service behind a live key. The replacement must serve
    /// the same formulary (registry digest) as the shard it replaces; its
    /// paired knowledge base and the shard's serving counters carry over.
    /// Requests in flight finish on the service they started with, new
    /// requests route to the replacement — no connection is dropped.
    pub fn replace(&self, key: &ModelKey, service: DecisionService) -> Result<(), ServingError> {
        let entry = self.entry(key)?;
        check_digest(
            key,
            entry.service().registry().digest(),
            service.registry().digest(),
        )?;
        *relock(entry.service.write()) = Arc::new(service);
        entry.model_version.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Adopts a peer replica's model for a live key at the peer's version —
    /// the anti-entropy apply path. Unlike [`ModelCatalog::replace`] (which
    /// *bumps* the local version, making the local gateway the new source
    /// of truth), a sync sets the version to the source's, so a pulled
    /// artifact never re-propagates as fresh. Versions only move forward: a
    /// stale or duplicate pull (`version` at or below the current one) is a
    /// no-op returning `false`.
    pub fn sync_model(
        &self,
        key: &ModelKey,
        service: DecisionService,
        version: u64,
    ) -> Result<bool, ServingError> {
        let entry = self.entry(key)?;
        check_digest(
            key,
            entry.service().registry().digest(),
            service.registry().digest(),
        )?;
        if entry.model_version.load(Ordering::Relaxed) >= version {
            return Ok(false);
        }
        *relock(entry.service.write()) = Arc::new(service);
        entry.model_version.store(version, Ordering::Relaxed);
        Ok(true)
    }

    /// Adopts a peer replica's knowledge base for a live key — the
    /// anti-entropy apply path. The version travels inside the `DSKB`
    /// container, so adopting the bytes adopts the version; versions only
    /// move forward (a stale or duplicate pull is a no-op returning
    /// `false`).
    pub fn sync_kb(&self, key: &ModelKey, kb: KnowledgeBase) -> Result<bool, ServingError> {
        let entry = self.entry(key)?;
        check_digest(
            key,
            entry.service().registry().digest(),
            kb.registry_digest(),
        )?;
        if entry.kb().version() >= kb.version() {
            return Ok(false);
        }
        *relock(entry.kb.write()) = Arc::new(kb);
        Ok(true)
    }

    /// The per-key `(model_version, kb_version)` pairs this catalog holds,
    /// in key order — the version vector `PeerStatus` exchanges.
    pub fn version_vector(&self) -> Vec<KeyVersions> {
        self.models
            .iter()
            .map(|(key, entry)| KeyVersions {
                key: key.clone(),
                model_version: entry.model_version.load(Ordering::Relaxed),
                kb_version: entry.kb().version(),
            })
            .collect()
    }

    /// Hot-swaps the knowledge base paired with a live key. The replacement
    /// must grade the shard's formulary.
    pub fn replace_kb(&self, key: &ModelKey, kb: KnowledgeBase) -> Result<(), ServingError> {
        let entry = self.entry(key)?;
        check_digest(
            key,
            entry.service().registry().digest(),
            kb.registry_digest(),
        )?;
        *relock(entry.kb.write()) = Arc::new(kb);
        Ok(())
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
        self.entry.in_flight.fetch_sub(1, Ordering::Relaxed);
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
    /// Transport counters of the network server fronting this router,
    /// attached by `Server::bind` before the router is shared. In-process
    /// routers have none and report zeroed [`GatewayStats`].
    transport: Option<Arc<crate::server::TransportStats>>,
    /// Replication counters of the replica agent syncing this gateway,
    /// attached by the agent's host before the router is shared.
    /// Unreplicated routers have none and omit the `Stats` replica section.
    replica: Option<Arc<ReplicaState>>,
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
            catalog,
            queue,
            origin: Instant::now(),
            transport: None,
            replica: None,
            traces: Mutex::new(TraceRing::new(TRACE_RING_CAPACITY)),
        }
    }

    /// Attaches the network server's transport counters so `Stats`
    /// responses carry them. Called by `Server::bind` while it still owns
    /// the router exclusively.
    pub(crate) fn attach_transport(&mut self, transport: Arc<crate::server::TransportStats>) {
        self.transport = Some(transport);
    }

    /// Attaches a replica agent's counters so `Stats` responses carry the
    /// replication section. Like [`Router::attach_transport`], this must
    /// happen while the caller still owns the router exclusively (before
    /// `Server::bind` shares it); the same `Arc` then goes to the agent.
    pub fn attach_replica(&mut self, replica: Arc<ReplicaState>) {
        self.replica = Some(replica);
    }

    /// The catalog behind the router.
    pub fn catalog(&self) -> &ModelCatalog {
        &self.catalog
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
        let metrics = telemetry::handles();
        let admit_start = Instant::now();
        let shed = |what: &str| {
            entry.shed.fetch_add(n_requests, Ordering::Relaxed);
            Err(ServingError::Overloaded {
                key: key.as_str().to_string(),
                what: what.to_string(),
            })
        };
        if let Some(bucket) = relock(entry.bucket.lock()).as_mut() {
            if !bucket.try_acquire_at(n_requests as f64, self.origin_nanos()) {
                span.record(Stage::Admit, elapsed_micros(admit_start));
                metrics.shed_rate.add(n_requests);
                return shed("per-model rate limit exhausted");
            }
        }
        let prior = entry.in_flight.fetch_add(1, Ordering::Relaxed);
        if entry.quota.is_some_and(|quota| prior >= quota) {
            entry.in_flight.fetch_sub(1, Ordering::Relaxed);
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
                Ok(depth) => {
                    entry.queue_hwm.fetch_max(depth as u64, Ordering::Relaxed);
                }
                Err(()) => {
                    entry.in_flight.fetch_sub(1, Ordering::Relaxed);
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
        let (service, kb) = (entry.service(), entry.kb());
        let result = call(&service, &kb).map_err(ServingError::Core);
        entry.record_outcome(n_requests, result.as_ref().err().map(ErrorCode::classify));
        result
    }

    /// Hot-swaps the service behind a live key (see
    /// [`ModelCatalog::replace`]) and reports the shard's new listing.
    pub fn reload_model(
        &self,
        key: &ModelKey,
        service: DecisionService,
    ) -> Result<ModelInfo, ServingError> {
        self.catalog.replace(key, service)?;
        Ok(self.catalog.entry(key)?.info(key))
    }

    /// [`Router::reload_model`] from in-memory `DSSD` container bytes — the
    /// wire `ReloadModel` entry point.
    pub fn reload_model_bytes(
        &self,
        key: &ModelKey,
        container: &[u8],
    ) -> Result<ModelInfo, ServingError> {
        let service = DecisionService::load_with_embedded_registry_bytes(container)?;
        self.reload_model(key, service)
    }

    /// Hot-swaps the knowledge base paired with a live key (see
    /// [`ModelCatalog::replace_kb`]) and reports the new KB's summary.
    pub fn reload_kb(&self, key: &ModelKey, kb: KnowledgeBase) -> Result<KbInfo, ServingError> {
        self.catalog.replace_kb(key, kb)?;
        Ok(self.catalog.entry(key)?.kb().info())
    }

    /// [`Router::reload_kb`] from in-memory `DSKB` container bytes — the
    /// wire `ReloadKb` entry point.
    pub fn reload_kb_bytes(
        &self,
        key: &ModelKey,
        container: &[u8],
    ) -> Result<KbInfo, ServingError> {
        let kb = KnowledgeBase::from_container_bytes(container).map_err(ServingError::Kb)?;
        self.reload_kb(key, kb)
    }

    /// [`ModelCatalog::sync_model`] from in-memory `DSSD` container bytes —
    /// what a replica agent applies after a `PeerSync` pull. Returns
    /// whether the shard actually moved forward.
    pub fn sync_model_bytes(
        &self,
        key: &ModelKey,
        version: u64,
        container: &[u8],
    ) -> Result<bool, ServingError> {
        let service = DecisionService::load_with_embedded_registry_bytes(container)?;
        self.catalog.sync_model(key, service, version)
    }

    /// [`ModelCatalog::sync_kb`] from in-memory `DSKB` container bytes —
    /// what a replica agent applies after a `PeerSync` pull. Returns
    /// whether the shard actually moved forward.
    pub fn sync_kb_bytes(&self, key: &ModelKey, container: &[u8]) -> Result<bool, ServingError> {
        let kb = KnowledgeBase::from_container_bytes(container).map_err(ServingError::Kb)?;
        self.catalog.sync_kb(key, kb)
    }

    /// The per-key version vector this gateway holds (see
    /// [`ModelCatalog::version_vector`]).
    pub fn version_vector(&self) -> Vec<KeyVersions> {
        self.catalog.version_vector()
    }

    /// Serves a `PeerSync` pull: one shard's complete container plus the
    /// version the bytes certify. The version is read *before* the artifact
    /// `Arc` is cloned, so a concurrent reload can only make the shipped
    /// bytes newer than the claimed version — the puller then re-pulls on
    /// its next round and still converges monotonically.
    fn peer_sync(
        &self,
        key: &ModelKey,
        artifact: wire::SyncArtifact,
    ) -> Result<Response, ServingError> {
        let entry = self.catalog.entry(key)?;
        let (version, container) = match artifact {
            wire::SyncArtifact::Model => {
                let version = entry.model_version.load(Ordering::Relaxed);
                (version, entry.service().to_container_bytes())
            }
            wire::SyncArtifact::Kb => {
                let kb = entry.kb();
                (kb.version(), kb.to_container_bytes())
            }
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
        Ok(self.catalog.entry(key)?.kb().info())
    }

    /// Advertises every shard, in key order.
    pub fn list_models(&self) -> Vec<ModelInfo> {
        self.catalog
            .models
            .iter()
            .map(|(key, entry)| entry.info(key))
            .collect()
    }

    /// Per-model serving statistics, in key order.
    pub fn stats(&self) -> Vec<(ModelKey, ModelStats)> {
        self.catalog
            .models
            .iter()
            .map(|(key, entry)| (key.clone(), entry.stats()))
            .collect()
    }

    /// The gateway's transport-level counters (zeros when no network
    /// server is attached to this router).
    pub fn gateway_stats(&self) -> GatewayStats {
        self.transport
            .as_deref()
            .map(crate::server::TransportStats::snapshot)
            .unwrap_or_default()
    }

    /// The full statistics report a wire `Stats` request answers with:
    /// per-model entries plus the gateway transport counters.
    pub fn stats_report(&self) -> StatsReport {
        StatsReport {
            models: self.stats(),
            gateway: self.gateway_stats(),
            replica: self.replica.as_ref().map(|state| ReplicaStats {
                versions: self.version_vector(),
                ..state.snapshot()
            }),
        }
    }

    /// Maps one decoded request to its response, converting routing/service
    /// errors into typed error frames — request counts and error classes
    /// recorded, but *no* latency sample: the caller owns the sample point.
    /// Reload operations are control-plane calls and do not count toward a
    /// shard's request statistics.
    fn dispatch_core(&self, request: &Request) -> Response {
        let mut span = SpanRecorder::new(0);
        self.dispatch_traced(request, &mut span)
    }

    /// [`Router::dispatch_core`] with the request's span threaded through
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
                    telemetry::count_report_severities(&report);
                    Response::CheckPrescription(report)
                }),
            Request::ReloadModel { model, container } => self
                .reload_model_bytes(model, container)
                .map(Response::ModelReloaded),
            Request::ReloadKb { model, container } => self
                .reload_kb_bytes(model, container)
                .map(Response::KbReloaded),
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
                versions: self.version_vector(),
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
        relock(self.traces.lock()).snapshot(limit)
    }

    /// Records one latency sample against the shard a data-plane request
    /// was admitted to. Control-plane messages are not clinical serving
    /// latency, and a call admission control shed never reached the shard.
    fn record_request_latency(&self, request: &Request, response: &Response, start: Instant) {
        if let Response::Error {
            code: ErrorCode::Overloaded,
            ..
        } = response
        {
            return;
        }
        let model = match request {
            Request::Suggest { model, .. }
            | Request::SuggestBatch { model, .. }
            | Request::CheckPrescription { model, .. } => Some(model),
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
        };
        if let Some(entry) = model.and_then(|key| self.catalog.models.get(key)) {
            entry.record_latency(elapsed_micros(start));
        }
    }

    /// Maps one decoded request to its response, converting routing/service
    /// errors into typed error frames. Admitted data-plane requests record
    /// exactly one latency sample covering the routed call.
    pub fn serve(&self, request: &Request) -> Response {
        let start = Instant::now();
        let response = self.dispatch_core(request);
        self.record_request_latency(request, &response, start);
        response
    }

    /// [`Router::serve`] plus response encoding, returning the sealed frame.
    ///
    /// This is the network server's entry point, and where the shard's
    /// latency sample is taken — exactly one per admitted request,
    /// covering the routed call *and* the wire encode, so the p50/p99 a
    /// `Stats` caller sees is the time a client actually waits between
    /// frames: encoding a batch of explanation subgraphs is real serving
    /// cost, not free.
    pub fn serve_framed(&self, request: &Request) -> Vec<u8> {
        self.serve_framed_traced(request, None, 0)
    }

    /// [`Router::serve_framed`] with the request's wire trace threaded
    /// through: `trace` is the trace ID the client propagated (the gateway
    /// mints one when the client sent none, so untraced traffic still fills
    /// the exemplar ring) and `decode_micros` is the time the transport
    /// spent reading and decoding the request frame.
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
        let metrics = telemetry::handles();
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
        for stage in Stage::ALL {
            metrics.observe_stage(stage, span.stage_micros(stage));
        }
        if let Some((model, op)) = Self::data_plane_target(request) {
            relock(self.traces.lock()).offer(span.into_exemplar(model, op.to_string(), total));
        }
        frame
    }

    /// The shard key and operation name of a data-plane request — the
    /// requests eligible for the slow-request exemplar ring.
    fn data_plane_target(request: &Request) -> Option<(String, &'static str)> {
        match request {
            Request::Suggest { model, .. } => Some((model.as_str().to_string(), "suggest")),
            Request::SuggestBatch { model, .. } => {
                Some((model.as_str().to_string(), "suggest_batch"))
            }
            Request::CheckPrescription { model, .. } => {
                Some((model.as_str().to_string(), "check_prescription"))
            }
            _ => None,
        }
    }
}

fn elapsed_micros(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
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

    #[test]
    fn latency_window_slides_and_ranks() {
        let mut window = LatencyWindow::new();
        assert_eq!(window.percentiles_ms(), (0.0, 0.0));
        for micros in [1000u64, 2000, 3000, 4000, 5000] {
            window.record(micros);
        }
        let (p50, p99) = window.percentiles_ms();
        assert_eq!(p50, 3.0);
        assert_eq!(p99, 5.0);
        // Overflowing the window overwrites the oldest samples.
        for _ in 0..LATENCY_WINDOW {
            window.record(7000);
        }
        let (p50, p99) = window.percentiles_ms();
        assert_eq!((p50, p99), (7.0, 7.0));
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
