//! The blocking gateway client.
//!
//! [`Client`] speaks the [`crate::wire`] protocol over one TCP connection:
//! each method writes one framed request and blocks for the framed
//! response. Responses carry exactly the bytes the server's in-process
//! `DecisionService` produced — scores and satisfaction values are
//! IEEE-754 bit-identical to a local call on the same fitted service.
//!
//! Server-side failures come back as [`ServingError::Remote`] with the
//! machine-readable [`crate::ErrorCode`], so callers can branch on the
//! failure class (`UnknownModel` vs `InvalidInput` vs `NotFitted` ...)
//! without parsing messages.
//!
//! ## Retrying shed requests
//!
//! A gateway under admission control answers excess load with typed
//! [`ErrorCode::Overloaded`] frames. Those requests never executed, so
//! retrying is safe — and because the error arrives as a well-formed frame
//! the connection stays aligned, so the retry reuses the same socket. A
//! client opts in with [`Client::set_retry_policy`]; retries back off
//! exponentially with jitter (so a fleet of rejected clients does not
//! return in lock-step) and give up after a bounded number of attempts.
//!
//! ## Retrying connection faults, and failing over
//!
//! With [`RetryPolicy::retry_connection_faults`] armed, transport-level
//! failures — a reset, a response timeout, a torn or corrupt frame — are
//! also retried, but **only for idempotent requests** (suggestions,
//! critiques, listings, stats, pings: read-only, so a duplicate execution
//! is harmless). Non-idempotent messages (`ReloadModel`, `ReloadKb`,
//! `Shutdown`) are never retried on a transport fault: the first send may
//! have executed before the connection died, and re-applying a reload is
//! not the client's call to make. The failed socket is always discarded
//! before a retry — a fresh connection can never deliver a stale response
//! to the wrong request.
//!
//! A client built with [`Client::connect_any`] holds several gateway
//! endpoints with per-endpoint health memory: an endpoint that keeps
//! failing enters an exponentially growing cooldown and reconnects prefer
//! the healthiest endpoint, so when one gateway of a replica set dies
//! mid-run, armed retries land on a live one and the caller sees nothing
//! but a slower call.
//!
//! Without connection-fault retries armed, a transport failure poisons the
//! connection (the historical behavior): a late response could answer the
//! wrong request, so every later call fails fast until the caller
//! reconnects.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use dssddi_core::{CheckPrescriptionRequest, InteractionReport, SuggestRequest, SuggestResponse};
use dssddi_kb::KbInfo;
use dssddi_obs::trace::{next_trace_id, TraceExemplar};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::router::{KeyVersions, ModelInfo, ModelKey, ModelStats, StatsReport};
use crate::wire::{self, ErrorCode, RequestRef, Response, SyncArtifact, WireError};
use crate::ServingError;

/// First cooldown after an endpoint failure; doubles per consecutive
/// failure up to [`ENDPOINT_COOLDOWN_MAX`].
const ENDPOINT_COOLDOWN_BASE: Duration = Duration::from_millis(250);

/// Upper bound on an endpoint's failure cooldown.
const ENDPOINT_COOLDOWN_MAX: Duration = Duration::from_secs(8);

/// Bounded, jittered exponential backoff for retrying `Overloaded`
/// rejections — and, when [`RetryPolicy::retry_connection_faults`] is
/// armed, idempotent requests hit by connection-level faults (opt-in via
/// [`Client::set_retry_policy`]).
///
/// Attempt `k` (1-based) sleeps `min(max_delay, base_delay * 2^(k-1))`
/// scaled by a uniform jitter factor in `[0.5, 1.0)` before retrying.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (so `1` disables retrying;
    /// clamped to at least 1).
    pub max_attempts: u32,
    /// Backoff before the first retry (pre-jitter).
    pub base_delay: Duration,
    /// Upper bound on any single backoff (pre-jitter).
    pub max_delay: Duration,
    /// Whether transport-level faults (reset, timeout, short read) are
    /// retried too — idempotent requests only; see the module docs.
    pub connection_faults: bool,
}

impl RetryPolicy {
    /// A policy with the given bounds (`max_attempts` counts the first
    /// attempt and is clamped to at least 1). Retries `Overloaded`
    /// rejections only; extend to transport faults with
    /// [`RetryPolicy::retry_connection_faults`].
    pub fn new(max_attempts: u32, base_delay: Duration, max_delay: Duration) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            base_delay,
            max_delay,
            connection_faults: false,
        }
    }

    /// Extends (or restricts) this policy to also retry connection-level
    /// faults — resets, response timeouts and short reads — for idempotent
    /// requests, reconnecting (and failing over, with
    /// [`Client::connect_any`]) before each retry.
    pub fn retry_connection_faults(mut self, on: bool) -> Self {
        self.connection_faults = on;
        self
    }

    /// The jittered backoff before retry number `attempt` (1-based: the
    /// retry after the first failed attempt is `attempt == 1`).
    fn backoff(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let exp = attempt.saturating_sub(1).min(32);
        let uncapped = self
            .base_delay
            .saturating_mul(2u32.saturating_pow(exp))
            .min(self.max_delay);
        let jitter = rng.gen_range(0.5f64..1.0);
        Duration::from_secs_f64(uncapped.as_secs_f64() * jitter)
    }
}

/// One gateway address plus its health memory.
#[derive(Debug, Clone)]
struct Endpoint {
    addr: SocketAddr,
    /// Consecutive failures since the last success on this endpoint.
    failures: u32,
    /// Reconnects avoid this endpoint until the cooldown passes (unless
    /// every endpoint is cooling down — then the least-recently-failed one
    /// is tried anyway: a client with work to do never refuses to try).
    cooldown_until: Option<Instant>,
}

impl Endpoint {
    fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            failures: 0,
            cooldown_until: None,
        }
    }

    fn cooling_down(&self, now: Instant) -> bool {
        self.cooldown_until.is_some_and(|until| until > now)
    }

    fn note_failure(&mut self, now: Instant) {
        self.failures = self.failures.saturating_add(1);
        let exp = self.failures.saturating_sub(1).min(16);
        let cooldown = ENDPOINT_COOLDOWN_BASE
            .saturating_mul(2u32.saturating_pow(exp))
            .min(ENDPOINT_COOLDOWN_MAX);
        self.cooldown_until = Some(now + cooldown);
    }

    fn note_success(&mut self) {
        self.failures = 0;
        self.cooldown_until = None;
    }
}

/// A blocking connection to a `dssddi-serve` gateway (or, with
/// [`Client::connect_any`], to the healthiest of several).
#[derive(Debug)]
pub struct Client {
    /// The live connection; `None` after a transport fault dropped it (a
    /// later call reconnects when connection-fault retries are armed).
    stream: Option<TcpStream>,
    /// Known gateway endpoints with health memory; never empty.
    endpoints: Vec<Endpoint>,
    /// Index into `endpoints` of the connection currently (or last) held.
    current: usize,
    /// Deadline for (re)connect attempts (`None` = the OS default).
    connect_timeout: Option<Duration>,
    /// Armed response timeout, re-applied on every reconnect.
    read_timeout: Option<Duration>,
    /// Set after a transport-level failure when connection-fault retries
    /// are NOT armed. The stream may then hold a late or partial response,
    /// so reading the *next* frame could deliver a stale answer to the
    /// wrong request — every later call fails fast instead of risking
    /// that. (With retries armed the stream is dropped instead, which
    /// removes the hazard without poisoning.)
    poisoned: bool,
    /// Retry policy plus the jitter RNG (`None` = fail fast, the default).
    retry: Option<(RetryPolicy, StdRng)>,
    /// Whether requests carry a fresh wire-propagated trace ID (see
    /// [`Client::set_tracing`]); off by default — untraced frames are
    /// bit-identical to the pre-tracing protocol.
    tracing: bool,
}

impl Client {
    /// Connects to a gateway with no timeouts: connecting blocks as long as
    /// the OS allows, and a hung server blocks every call forever. Prefer
    /// [`Client::connect_timeout`] anywhere a human or a request deadline
    /// is waiting.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServingError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| ServingError::Io {
                what: format!("resolving gateway address: {e}"),
            })?
            .collect();
        let mut client = Self::from_endpoints(&addrs, None, None)?;
        client.ensure_connected()?;
        Ok(client)
    }

    /// Connects to a gateway with an overall connect deadline (shared by
    /// every address the name resolves to — trying a dead IPv6 address
    /// first cannot multiply the wait), and arms the same duration as the
    /// per-call response timeout (tune it afterwards with
    /// [`Client::set_read_timeout`]). A server that accepts but never
    /// answers then fails the pending call with a typed
    /// [`WireError::Timeout`] instead of blocking the caller forever.
    ///
    /// The deadline covers the TCP connection attempts; name resolution
    /// itself goes through the blocking OS resolver (`std` offers no
    /// timeout there), so a hostname behind an unresponsive resolver can
    /// still stall before the deadline starts. Pass a socket address to
    /// skip resolution entirely.
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Self, ServingError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| ServingError::Io {
                what: format!("resolving gateway address: {e}"),
            })?
            .collect();
        let mut client = Self::from_endpoints(&addrs, Some(timeout), Some(timeout))?;
        client.ensure_connected()?;
        Ok(client)
    }

    /// Connects to the first healthy endpoint of a replica set, remembering
    /// all of them: every later reconnect — including the automatic ones a
    /// connection-fault [`RetryPolicy`] performs — prefers the endpoint
    /// with the best health record, so a dead or black-holed gateway is
    /// routed around after its first failure. `timeout` bounds each
    /// connect attempt and arms the per-call response timeout, exactly as
    /// [`Client::connect_timeout`] does.
    pub fn connect_any(addrs: &[SocketAddr], timeout: Duration) -> Result<Self, ServingError> {
        let mut client = Self::from_endpoints(addrs, Some(timeout), Some(timeout))?;
        client.ensure_connected()?;
        Ok(client)
    }

    fn from_endpoints(
        addrs: &[SocketAddr],
        connect_timeout: Option<Duration>,
        read_timeout: Option<Duration>,
    ) -> Result<Self, ServingError> {
        if addrs.is_empty() {
            return Err(ServingError::Io {
                what: "gateway address resolved to no socket addresses".to_string(),
            });
        }
        Ok(Self {
            stream: None,
            endpoints: addrs.iter().copied().map(Endpoint::new).collect(),
            current: 0,
            connect_timeout,
            read_timeout,
            poisoned: false,
            retry: None,
            tracing: false,
        })
    }

    /// Turns wire-propagated request tracing on or off. A tracing client
    /// stamps every request frame with a fresh trace ID (version-2 frames;
    /// old gateways that only speak version 1 will reject them), which the
    /// gateway echoes on the response and attaches to its slow-request
    /// exemplars — correlate with [`Client::trace_dump`].
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Endpoint indices in the order a reconnect should try them: healthy
    /// endpoints first (fewest consecutive failures), then cooling-down
    /// ones by soonest cooldown expiry — a client with work to do never
    /// refuses to try every address it knows.
    fn endpoint_order(&self, now: Instant) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.endpoints.len()).collect();
        order.sort_by_key(|&i| {
            self.endpoints
                .get(i)
                .map(|e| {
                    let cooling = e.cooling_down(now);
                    let expiry = e
                        .cooldown_until
                        .map(|until| until.saturating_duration_since(now))
                        .unwrap_or(Duration::ZERO);
                    (cooling, e.failures, expiry)
                })
                .unwrap_or((true, u32::MAX, Duration::MAX))
        });
        order
    }

    /// Establishes a connection if none is held, trying endpoints in
    /// health order and recording per-endpoint outcomes.
    fn ensure_connected(&mut self) -> Result<(), ServingError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let now = Instant::now();
        let mut last_error: Option<String> = None;
        for index in self.endpoint_order(now) {
            let Some(endpoint) = self.endpoints.get(index) else {
                continue;
            };
            let addr = endpoint.addr;
            let attempt = match self.connect_timeout {
                Some(timeout) => TcpStream::connect_timeout(&addr, timeout),
                None => TcpStream::connect(addr),
            };
            match attempt {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    stream.set_read_timeout(self.read_timeout).ok();
                    self.stream = Some(stream);
                    self.current = index;
                    return Ok(());
                }
                Err(e) => {
                    last_error = Some(format!("{addr}: {e}"));
                    if let Some(endpoint) = self.endpoints.get_mut(index) {
                        endpoint.note_failure(Instant::now());
                    }
                }
            }
        }
        Err(ServingError::Io {
            what: match last_error {
                Some(e) => format!("connecting to gateway: {e}"),
                None => "no gateway endpoint to connect to".to_string(),
            },
        })
    }

    /// The address of the endpoint currently (or most recently) connected
    /// — which gateway of a replica set answered the last call. Any
    /// reconnect (including the automatic ones connection-fault retries
    /// perform) can move it; multi-endpoint load generators use it to
    /// attribute outcomes per gateway.
    pub fn last_endpoint(&self) -> Option<SocketAddr> {
        self.endpoints.get(self.current).map(|e| e.addr)
    }

    /// Arms (or with `None` disarms) the response timeout: a call whose
    /// response does not arrive in time fails with
    /// [`WireError::Timeout`] instead of blocking forever. `Some(0)` is
    /// rejected by the OS; pass `None` to disable. The setting survives
    /// reconnects.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ServingError> {
        self.read_timeout = timeout;
        match &self.stream {
            Some(stream) => stream
                .set_read_timeout(timeout)
                .map_err(|e| ServingError::Io {
                    what: format!("arming read timeout: {e}"),
                }),
            None => Ok(()),
        }
    }

    /// Arms (or with `None` disarms) retrying with jittered exponential
    /// backoff: `Overloaded` rejections always, connection-level faults
    /// too when the policy says so (see
    /// [`RetryPolicy::retry_connection_faults`]). `seed` drives the
    /// jitter: fixed in tests for reproducible schedules, distinct per
    /// client in a fleet so rejected clients do not retry in lock-step.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>, seed: u64) {
        self.retry = policy.map(|p| (p, StdRng::seed_from_u64(seed)));
    }

    /// Whether the armed policy retries transport faults.
    fn connection_faults_armed(&self) -> bool {
        self.retry
            .as_ref()
            .is_some_and(|(policy, _)| policy.connection_faults)
    }

    /// Records the current endpoint's outcome in its health memory.
    fn note_endpoint(&mut self, ok: bool) {
        if let Some(endpoint) = self.endpoints.get_mut(self.current) {
            if ok {
                endpoint.note_success();
            } else {
                endpoint.note_failure(Instant::now());
            }
        }
    }

    /// One request/response exchange; remote error frames become
    /// [`ServingError::Remote`]. The borrowed view means no request payload
    /// (feature vectors included) is ever cloned just to be encoded.
    ///
    /// Transport-fault handling depends on the armed [`RetryPolicy`]:
    ///
    /// - Policy retries connection faults: the dead socket is dropped (so
    ///   no stale response can ever be read), the endpoint's health memory
    ///   is charged, and — for idempotent requests within the attempt
    ///   budget — the call reconnects (failing over under
    ///   [`Client::connect_any`]) and retries after a jittered backoff.
    ///   Non-idempotent requests (`ReloadModel`, `ReloadKb`, `Shutdown`)
    ///   are **never** retried: the first send may have executed.
    /// - Otherwise: the connection is poisoned — a timed-out response may
    ///   still arrive later, and delivering it as the answer to the *next*
    ///   request would silently return wrong clinical results. A poisoned
    ///   client fails every call; reconnect to recover.
    ///
    /// `Overloaded` rejections are retried on the same connection whenever
    /// a policy is armed (the typed error frame kept the stream aligned
    /// and the request never executed).
    fn call(&mut self, request: RequestRef<'_>) -> Result<Response, ServingError> {
        if self.poisoned {
            return Err(ServingError::Protocol {
                what: "connection is poisoned by an earlier transport failure (a late \
                       response could answer the wrong request); reconnect"
                    .to_string(),
            });
        }
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let (result, exchanged) = match self.ensure_connected() {
                Ok(()) => (self.exchange(request), true),
                Err(e) => (Err(e), false),
            };
            let transport_fault = matches!(
                result,
                Err(ServingError::Wire(_)) | Err(ServingError::Io { .. })
            );
            if transport_fault && exchanged {
                // Never reuse a stream a fault tore mid-exchange.
                self.stream = None;
                self.note_endpoint(false);
            } else if !transport_fault {
                // Any well-formed answer (including typed Remote errors)
                // proves the endpoint healthy.
                self.note_endpoint(true);
            }
            let overloaded = matches!(
                result,
                Err(ServingError::Remote {
                    code: ErrorCode::Overloaded,
                    ..
                })
            );
            let retry_transport =
                transport_fault && request.is_idempotent() && self.connection_faults_armed();
            match self.retry.as_mut() {
                Some((policy, rng))
                    if (overloaded || retry_transport) && attempt < policy.max_attempts =>
                {
                    let backoff = policy.backoff(attempt, rng);
                    std::thread::sleep(backoff);
                }
                _ => {
                    if transport_fault && !self.connection_faults_armed() {
                        self.poisoned = true;
                    }
                    return result;
                }
            }
        }
    }

    fn exchange(&mut self, request: RequestRef<'_>) -> Result<Response, ServingError> {
        // The armed read timeout doubles as a wall-clock deadline for the
        // whole response frame: a peer trickling bytes faster than the
        // socket timeout but never completing the frame (slow loris) must
        // still fail with a typed timeout, not block the caller forever.
        let frame_deadline = self.read_timeout;
        let trace = self.tracing.then(next_trace_id);
        let Some(stream) = self.stream.as_mut() else {
            return Err(ServingError::Io {
                what: "no gateway connection".to_string(),
            });
        };
        wire::write_frame(stream, &wire::encode_request_ref_traced(request, trace))?;
        let (_trace, payload) = wire::read_frame(stream, 1, frame_deadline).map_err(|e| {
            match e {
                // For a client a frame is always in flight once the
                // request is written, so "idle" timeouts are the server
                // failing to answer.
                WireError::IdleTimeout => WireError::Timeout,
                other => other,
            }
        })?;
        let response = wire::decode_response(&payload).map_err(WireError::Decode)?;
        match response {
            Response::Error { code, message } => Err(ServingError::Remote { code, message }),
            other => Ok(other),
        }
    }

    /// Asks one model shard for a top-k suggestion.
    pub fn suggest(
        &mut self,
        model: &ModelKey,
        request: &SuggestRequest,
    ) -> Result<SuggestResponse, ServingError> {
        match self.call(RequestRef::Suggest { model, request })? {
            Response::Suggest(response) => Ok(response),
            other => Err(unexpected("Suggest", &other)),
        }
    }

    /// Sends a whole batch in one frame; the server answers it with one
    /// sharded prediction pass, responses in request order.
    pub fn suggest_batch(
        &mut self,
        model: &ModelKey,
        requests: &[SuggestRequest],
    ) -> Result<Vec<SuggestResponse>, ServingError> {
        match self.call(RequestRef::SuggestBatch { model, requests })? {
            Response::SuggestBatch(responses) => Ok(responses),
            other => Err(unexpected("SuggestBatch", &other)),
        }
    }

    /// Critiques an existing prescription against one shard's DDI graph.
    pub fn check_prescription(
        &mut self,
        model: &ModelKey,
        request: &CheckPrescriptionRequest,
    ) -> Result<InteractionReport, ServingError> {
        match self.call(RequestRef::CheckPrescription { model, request })? {
            Response::CheckPrescription(report) => Ok(report),
            other => Err(unexpected("CheckPrescription", &other)),
        }
    }

    /// Checks that a reload artifact fits in one wire frame *before* any
    /// byte is written: failing after a multi-megabyte upload would waste
    /// the transfer and poison the connection, and the server would reject
    /// the oversized frame anyway.
    fn check_reload_fits(model: &ModelKey, container: &[u8]) -> Result<(), ServingError> {
        // Frame overhead around the container: message tag, key, two
        // length prefixes — bounded well below this slack.
        let budget = wire::MAX_FRAME_PAYLOAD - model.as_str().len() - 64;
        if container.len() > budget {
            return Err(ServingError::Wire(WireError::Oversized {
                declared: container.len(),
                max: budget,
            }));
        }
        Ok(())
    }

    /// Ships a `DSSD` container to the gateway and hot-swaps it in under a
    /// live key (see `ModelCatalog::replace`); returns the shard's new
    /// listing. The artifact must serve the shard's formulary and fit in
    /// one wire frame ([`wire::MAX_FRAME_PAYLOAD`], 16 MiB) — larger
    /// artifacts reach the gateway as files (`dssddi-serve` arguments /
    /// `ModelCatalog::load_file`). Never retried on transport faults.
    pub fn reload_model(
        &mut self,
        model: &ModelKey,
        container: &[u8],
    ) -> Result<ModelInfo, ServingError> {
        Self::check_reload_fits(model, container)?;
        match self.call(RequestRef::ReloadModel { model, container })? {
            Response::ModelReloaded(info) => Ok(info),
            other => Err(unexpected("ReloadModel", &other)),
        }
    }

    /// Ships a `DSKB` container to the gateway and hot-swaps the knowledge
    /// base paired with a live key; returns the new KB's summary. The
    /// artifact must fit in one wire frame ([`wire::MAX_FRAME_PAYLOAD`],
    /// 16 MiB) — larger knowledge bases reach the gateway as files
    /// (`dssddi-serve --kb` / `ModelCatalog::load_kb_file`). Never retried
    /// on transport faults.
    pub fn reload_kb(
        &mut self,
        model: &ModelKey,
        container: &[u8],
    ) -> Result<KbInfo, ServingError> {
        Self::check_reload_fits(model, container)?;
        match self.call(RequestRef::ReloadKb { model, container })? {
            Response::KbReloaded(info) => Ok(info),
            other => Err(unexpected("ReloadKb", &other)),
        }
    }

    /// Fetches the summary of the knowledge base paired with one shard.
    pub fn kb_info(&mut self, model: &ModelKey) -> Result<KbInfo, ServingError> {
        match self.call(RequestRef::KbInfo { model })? {
            Response::KbInfo(info) => Ok(info),
            other => Err(unexpected("KbInfo", &other)),
        }
    }

    /// Lists the models the gateway serves.
    pub fn list_models(&mut self) -> Result<Vec<ModelInfo>, ServingError> {
        match self.call(RequestRef::ListModels)? {
            Response::ListModels(models) => Ok(models),
            other => Err(unexpected("ListModels", &other)),
        }
    }

    /// Fetches per-model serving statistics (the per-model half of
    /// [`Client::stats_report`]).
    pub fn stats(&mut self) -> Result<Vec<(ModelKey, ModelStats)>, ServingError> {
        Ok(self.stats_report()?.models)
    }

    /// Fetches the full statistics report: per-model serving statistics
    /// plus the gateway's transport counters (connections accepted /
    /// active / shed, stalled peers reaped).
    pub fn stats_report(&mut self) -> Result<StatsReport, ServingError> {
        match self.call(RequestRef::Stats)? {
            Response::Stats(report) => Ok(report),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Fetches the gateway's slow-request exemplars — the slowest recently
    /// served data-plane requests, slowest first, each with its trace ID
    /// and per-stage latency breakdown (decode / admit / queue / infer /
    /// encode, in microseconds). `limit` of zero returns the whole ring.
    /// Idempotent, and answered even by a gateway shedding load (trace
    /// dumps bypass admission).
    pub fn trace_dump(&mut self, limit: u64) -> Result<Vec<TraceExemplar>, ServingError> {
        match self.call(RequestRef::TraceDump { limit })? {
            Response::TraceDump(exemplars) => Ok(exemplars),
            other => Err(unexpected("TraceDump", &other)),
        }
    }

    /// Control-plane liveness check: sends a `Ping` frame and returns the
    /// round-trip time. Pings bypass admission control on the gateway, so
    /// health probes keep answering while the data plane sheds load.
    pub fn ping(&mut self) -> Result<Duration, ServingError> {
        let start = Instant::now();
        match self.call(RequestRef::Ping)? {
            Response::Pong => Ok(start.elapsed()),
            other => Err(unexpected("Ping", &other)),
        }
    }

    /// Replica-to-replica version exchange: reports `versions` (the
    /// caller's per-key artifact versions) and returns the peer's own
    /// vector, so one round trip tells both sides who is ahead. Idempotent
    /// — retried across transport faults when retries are armed.
    pub fn peer_status(
        &mut self,
        versions: &[KeyVersions],
    ) -> Result<Vec<KeyVersions>, ServingError> {
        match self.call(RequestRef::PeerStatus { versions })? {
            Response::PeerStatus { versions } => Ok(versions),
            other => Err(unexpected("PeerStatus", &other)),
        }
    }

    /// Replica-to-replica artifact pull: fetches one shard's complete
    /// `DSSD` or `DSKB` container from a peer that is ahead, plus the
    /// version the bytes certify. Idempotent.
    pub fn peer_sync(
        &mut self,
        model: &ModelKey,
        artifact: SyncArtifact,
    ) -> Result<(u64, Vec<u8>), ServingError> {
        match self.call(RequestRef::PeerSync { model, artifact })? {
            Response::PeerSync {
                model: got_model,
                artifact: got_artifact,
                version,
                container,
            } => {
                if &got_model != model || got_artifact != artifact {
                    return Err(ServingError::Protocol {
                        what: format!(
                            "asked to sync {artifact} of {model}, server answered with \
                             {got_artifact} of {got_model}"
                        ),
                    });
                }
                Ok((version, container))
            }
            other => Err(unexpected("PeerSync", &other)),
        }
    }

    /// Asks the gateway to shut down cleanly, consuming the client. Returns
    /// once the server has acknowledged. Never retried on transport faults.
    pub fn shutdown(mut self) -> Result<(), ServingError> {
        match self.call(RequestRef::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("Shutdown", &other)),
        }
    }
}

fn unexpected(asked: &str, got: &Response) -> ServingError {
    // Name only the variant: the payload can be large and is not the point.
    let got = match got {
        Response::Suggest(_) => "Suggest",
        Response::SuggestBatch(_) => "SuggestBatch",
        Response::CheckPrescription(_) => "CheckPrescription",
        Response::ModelReloaded(_) => "ModelReloaded",
        Response::KbReloaded(_) => "KbReloaded",
        Response::KbInfo(_) => "KbInfo",
        Response::ListModels(_) => "ListModels",
        Response::Stats(_) => "Stats",
        Response::Pong => "Pong",
        Response::PeerStatus { .. } => "PeerStatus",
        Response::PeerSync { .. } => "PeerSync",
        Response::TraceDump(_) => "TraceDump",
        Response::ShuttingDown => "ShuttingDown",
        Response::Error { .. } => "Error",
    };
    ServingError::Protocol {
        what: format!("asked for {asked}, server answered {got}"),
    }
}
