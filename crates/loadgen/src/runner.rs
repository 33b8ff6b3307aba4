//! The open-loop run engine.
//!
//! Each connection is driven by its own worker thread with a Poisson
//! arrival process: inter-arrival gaps are drawn from the exponential
//! distribution via inverse-CDF (`-ln(1-u)/λ`), accumulated into an
//! *absolute* schedule, and every request's latency is measured from its
//! **scheduled** start — not from when the worker got around to sending
//! it. A closed-loop generator silently stops offering load exactly when
//! the server slows down (coordinated omission); anchoring the schedule
//! before the run makes queueing delay show up in the recorded
//! percentiles instead of disappearing.
//!
//! Workers never panic on rejections: a typed `Overloaded` frame is the
//! admission-control contract working as designed and is tallied as a
//! shed. By default any transport-level failure (dropped connection,
//! protocol error) aborts the run with an error — a gateway under test
//! must never degrade that way. In fault-tolerant mode
//! ([`LoadgenConfig::fault_tolerant`], used by chaos runs where faults
//! are *injected* on purpose) connection faults are instead tallied per
//! kind — resets, timeouts, short reads, corrupt frames, all distinct
//! from sheds — and the worker reconnects and keeps its schedule.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dssddi_core::{CheckPrescriptionRequest, DrugId, PatientId, SuggestRequest};
use dssddi_obs::histogram::Histogram;
use dssddi_serving::demo::demo_world;
use dssddi_serving::{Client, ErrorCode, ModelKey, RetryPolicy, ServingError, WireError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::{OpKind, WorkloadMix, Zipf};

/// Everything one load-generation run needs to know.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Gateway endpoints, `HOST:PORT` each. One entry is the classic
    /// single-gateway run. Several entries (the `--target` list) drive a
    /// whole replica group: workers are spread round-robin across the
    /// endpoints, any endpoint can serve any worker after a fail-over,
    /// and [`LoadgenReport::by_target`] breaks outcomes down per
    /// endpoint.
    pub targets: Vec<String>,
    /// Number of concurrent client connections (one worker thread each).
    pub connections: usize,
    /// Total offered frame rate across all connections, frames/second.
    /// (A `SuggestBatch` frame carries `batch_size` requests.)
    pub rate: f64,
    /// Length of the run.
    pub duration: Duration,
    /// Master seed; every worker derives its own stream from it, so runs
    /// are reproducible per (seed, connections).
    pub seed: u64,
    /// Hot-shard skew exponent for shard choice (0 = uniform).
    pub zipf_exponent: f64,
    /// Requests per `SuggestBatch` frame.
    pub batch_size: usize,
    /// Operation mix of the generated traffic.
    pub mix: WorkloadMix,
    /// The p99 latency objective (milliseconds) the report's SLO verdict
    /// is judged against.
    pub slo_p99_ms: f64,
    /// Seed of the demo world whose knowledge base `ReloadKb` frames
    /// ship. Only shards whose `registry_digest` matches that formulary
    /// receive reloads.
    pub reload_seed: u64,
    /// Tolerate connection-level faults instead of aborting the run:
    /// resets, response timeouts, short reads and corrupt frames are
    /// tallied per kind in [`LoadgenReport::conn_faults`] (distinct from
    /// typed `Overloaded` sheds) and the worker reconnects and carries
    /// on. This is the mode chaos runs (`dssddi-loadgen --chaos`) use; a
    /// plain benchmark keeps the default `false`, where any transport
    /// fault still fails the run — a gateway under test must never
    /// degrade that way on its own.
    pub fault_tolerant: bool,
}

impl LoadgenConfig {
    /// A moderate default workload against `addr`: 4 connections offering
    /// 200 frames/s for 5 seconds.
    pub fn new(addr: impl Into<String>) -> Self {
        LoadgenConfig {
            targets: vec![addr.into()],
            connections: 4,
            rate: 200.0,
            duration: Duration::from_secs(5),
            seed: 17,
            zipf_exponent: 1.1,
            batch_size: 16,
            mix: WorkloadMix::default(),
            slo_p99_ms: 50.0,
            reload_seed: dssddi_serving::demo::DEMO_SEED,
            fault_tolerant: false,
        }
    }

    fn validate(&self) -> Result<(), String> {
        if self.connections == 0 {
            return Err("need at least one connection".to_string());
        }
        if self.targets.is_empty() {
            return Err("need at least one target endpoint".to_string());
        }
        if self.targets.iter().any(|t| t.is_empty()) {
            return Err("target endpoints must be non-empty".to_string());
        }
        if !self.rate.is_finite() || self.rate <= 0.0 {
            return Err(format!("rate must be finite and > 0, got {}", self.rate));
        }
        if self.duration.is_zero() {
            return Err("duration must be positive".to_string());
        }
        if self.batch_size == 0 {
            return Err("batch size must be at least 1".to_string());
        }
        if !self.slo_p99_ms.is_finite() || self.slo_p99_ms <= 0.0 {
            return Err(format!(
                "SLO must be finite and > 0 ms, got {}",
                self.slo_p99_ms
            ));
        }
        Ok(())
    }
}

/// Per-operation-kind outcome counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindTally {
    /// Frames sent.
    pub frames: u64,
    /// Frames answered normally.
    pub ok: u64,
    /// Frames rejected with a typed `Overloaded` error.
    pub shed: u64,
    /// Frames answered with any other typed error.
    pub errors: u64,
    /// Frames lost to a connection-level fault (fault-tolerant runs).
    pub faults: u64,
}

/// Connection-level fault counts, by kind — kept strictly separate from
/// typed `Overloaded` sheds, which are the admission-control contract
/// working as designed, not a fault.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnFaults {
    /// Sockets torn by the peer or the path (reset, broken pipe, refused
    /// reconnect) — any I/O-level failure that is not one of the more
    /// specific kinds below.
    pub resets: u64,
    /// Responses that never arrived inside the armed read timeout.
    pub timeouts: u64,
    /// Connections the peer closed cleanly while a response was owed.
    pub short_reads: u64,
    /// Frames that arrived but failed validation (bad magic, CRC
    /// mismatch, truncated payload, oversized declaration).
    pub corrupt_frames: u64,
}

impl ConnFaults {
    /// Total faults across all kinds.
    pub fn total(&self) -> u64 {
        self.resets + self.timeouts + self.short_reads + self.corrupt_frames
    }

    fn merge(&mut self, other: &ConnFaults) {
        self.resets += other.resets;
        self.timeouts += other.timeouts;
        self.short_reads += other.short_reads;
        self.corrupt_frames += other.corrupt_frames;
    }

    fn record(&mut self, kind: ConnFaultKind) {
        match kind {
            ConnFaultKind::Reset => self.resets += 1,
            ConnFaultKind::Timeout => self.timeouts += 1,
            ConnFaultKind::ShortRead => self.short_reads += 1,
            ConnFaultKind::Corrupt => self.corrupt_frames += 1,
        }
    }
}

/// Per-endpoint outcome counts (frame granularity) — the multi-target
/// view: which replica of a group served how much, and where the faults
/// landed. An exchange is attributed to the endpoint the client was
/// connected to when it finished, so a frame retried across a fail-over
/// counts against the endpoint that finally answered (or faulted).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TargetTally {
    /// The endpoint, as given in [`LoadgenConfig::targets`].
    pub target: String,
    /// Frames exchanged against this endpoint.
    pub frames: u64,
    /// Frames answered normally.
    pub ok: u64,
    /// Frames rejected with a typed `Overloaded` error.
    pub shed: u64,
    /// Frames answered with any other typed error.
    pub errors: u64,
    /// Frames lost to a connection-level fault (fault-tolerant runs).
    pub faults: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnFaultKind {
    Reset,
    Timeout,
    ShortRead,
    Corrupt,
}

/// Classifies a transport-level failure into its fault kind; `None` for
/// failures that are not connection faults (routing errors, protocol
/// violations) — those always abort the run.
fn conn_fault_kind(error: &ServingError) -> Option<ConnFaultKind> {
    match error {
        ServingError::Wire(WireError::Timeout) | ServingError::Wire(WireError::IdleTimeout) => {
            Some(ConnFaultKind::Timeout)
        }
        ServingError::Wire(WireError::ConnectionClosed) => Some(ConnFaultKind::ShortRead),
        ServingError::Wire(WireError::Decode(_))
        | ServingError::Wire(WireError::Oversized { .. }) => Some(ConnFaultKind::Corrupt),
        ServingError::Wire(WireError::Io { .. }) | ServingError::Io { .. } => {
            Some(ConnFaultKind::Reset)
        }
        _ => None,
    }
}

/// The merged outcome of one run.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Connections driven.
    pub connections: usize,
    /// Configured offered frame rate (frames/second, all connections).
    pub offered_rps: f64,
    /// Configured run length, seconds.
    pub duration_s: f64,
    /// Actual wall-clock from first schedule to last worker exit.
    pub elapsed_s: f64,
    /// Frames sent (one wire exchange each).
    pub frames: u64,
    /// Requests sent; a `SuggestBatch` frame counts its batch size, which
    /// is also how the gateway's admission control charges it.
    pub requests: u64,
    /// Requests answered normally.
    pub ok_requests: u64,
    /// Requests rejected with typed `Overloaded` frames.
    pub shed_requests: u64,
    /// Requests answered with any other typed error.
    pub error_requests: u64,
    /// Requests lost to connection-level faults (fault-tolerant runs
    /// only; plain runs abort on the first such fault).
    pub fault_requests: u64,
    /// Connection-fault breakdown by kind — resets, timeouts, short
    /// reads and corrupt frames, all distinct from `shed_requests`.
    pub conn_faults: ConnFaults,
    /// Outcomes by operation kind, indexed by [`OpKind::index`].
    pub by_kind: [KindTally; 4],
    /// Outcomes by target endpoint, in [`LoadgenConfig::targets`] order —
    /// one entry per configured endpoint, zeros included.
    pub by_target: Vec<TargetTally>,
    /// Latency of normally-answered frames, **microseconds**, measured
    /// from each frame's scheduled start (coordinated-omission safe).
    pub latency: Histogram,
    /// The p99 objective the run was judged against, milliseconds.
    pub slo_p99_ms: f64,
    /// `shed_requests` summed over the gateway's own `Stats` counters
    /// after the run — cross-checks the client-side tally.
    pub server_shed_requests: u64,
    /// `requests` summed over the gateway's `Stats` after the run.
    pub server_requests: u64,
}

impl LoadgenReport {
    /// Answered throughput: normally-answered requests per second of
    /// actual run time.
    pub fn achieved_rps(&self) -> f64 {
        if self.elapsed_s <= 0.0 {
            0.0
        } else {
            self.ok_requests as f64 / self.elapsed_s
        }
    }

    /// p50 of admitted-frame latency, milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.latency.value_at_quantile(0.50) as f64 / 1e3
    }

    /// p90 of admitted-frame latency, milliseconds.
    pub fn p90_ms(&self) -> f64 {
        self.latency.value_at_quantile(0.90) as f64 / 1e3
    }

    /// p99 of admitted-frame latency, milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.latency.value_at_quantile(0.99) as f64 / 1e3
    }

    /// Worst admitted-frame latency, milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.latency.max() as f64 / 1e3
    }

    /// The SLO verdict: admitted traffic met the p99 objective, nothing
    /// failed with unexpected errors, and something was actually served.
    pub fn slo_met(&self) -> bool {
        self.ok_requests > 0 && self.error_requests == 0 && self.p99_ms() <= self.slo_p99_ms
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "connections {:>4}  offered {:>9.1} frames/s  ran {:.2}s\n",
            self.connections, self.offered_rps, self.elapsed_s
        ));
        out.push_str(&format!(
            "  sent {} frames / {} requests: {} ok, {} shed, {} errors, {} conn faults\n",
            self.frames,
            self.requests,
            self.ok_requests,
            self.shed_requests,
            self.error_requests,
            self.fault_requests
        ));
        for kind in OpKind::ALL {
            #[expect(
                clippy::indexing_slicing,
                reason = "`OpKind::index` is below `OpKind::ALL.len()`, the tally's length"
            )]
            let t = &self.by_kind[kind.index()];
            if t.frames > 0 {
                out.push_str(&format!(
                    "    {:<20} {:>7} frames  {:>7} ok  {:>7} shed\n",
                    kind.name(),
                    t.frames,
                    t.ok,
                    t.shed
                ));
            }
        }
        if self.by_target.len() > 1 {
            for t in &self.by_target {
                out.push_str(&format!(
                    "  target {:<21} {:>7} frames  {:>7} ok  {:>7} shed  {:>5} errors  {:>5} faults\n",
                    t.target, t.frames, t.ok, t.shed, t.errors, t.faults
                ));
            }
        }
        if self.conn_faults.total() > 0 {
            out.push_str(&format!(
                "  conn faults: {} resets, {} timeouts, {} short reads, {} corrupt frames\n",
                self.conn_faults.resets,
                self.conn_faults.timeouts,
                self.conn_faults.short_reads,
                self.conn_faults.corrupt_frames
            ));
        }
        out.push_str(&format!(
            "  achieved {:.1} req/s  p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms  max {:.3} ms\n",
            self.achieved_rps(),
            self.p50_ms(),
            self.p90_ms(),
            self.p99_ms(),
            self.max_ms()
        ));
        out.push_str(&format!(
            "  gateway accounting: {} requests, {} shed\n",
            self.server_requests, self.server_shed_requests
        ));
        out.push_str(&format!(
            "  SLO p99 <= {:.1} ms: {}\n",
            self.slo_p99_ms,
            if self.slo_met() { "MET" } else { "MISSED" }
        ));
        out
    }
}

/// One routable shard, as discovered from `ListModels`.
#[derive(Clone, Debug)]
struct TargetPlan {
    key: ModelKey,
    n_drugs: usize,
    /// `Some` for fitted shards (suggestion-capable).
    n_features: Option<usize>,
}

/// Immutable run state shared by every worker.
struct SharedPlan {
    /// Target endpoints: the spec string (for reporting) and the address
    /// it resolved to (for connecting and attributing outcomes).
    endpoints: Vec<(String, SocketAddr)>,
    plans: Vec<TargetPlan>,
    /// Indices into `plans` of suggestion-capable shards.
    fitted: Vec<usize>,
    /// Indices into `plans` of shards accepting the prepared KB reload.
    reloadable: Vec<usize>,
    zipf_all: Zipf,
    zipf_fitted: Option<Zipf>,
    zipf_reload: Option<Zipf>,
    mix: WorkloadMix,
    /// Pre-generated synthetic patients, one pool per distinct feature
    /// width the fitted shards expect.
    pools: Vec<(usize, Vec<dssddi_baselines::SimPatient>)>,
    /// The DSKB container `ReloadKb` frames ship.
    reload_bytes: Vec<u8>,
    batch_size: usize,
}

/// Patients pre-generated per feature width — enough that per-worker
/// cursors starting at different offsets do not all replay one patient.
const POOL_PATIENTS: usize = 128;

enum CallOutcome {
    Ok,
    Shed,
    RemoteError,
    ConnFault(ConnFaultKind),
}

fn classify<T>(
    result: Result<T, ServingError>,
    fault_tolerant: bool,
) -> Result<CallOutcome, String> {
    match result {
        Ok(_) => Ok(CallOutcome::Ok),
        Err(ServingError::Remote {
            code: ErrorCode::Overloaded,
            ..
        }) => Ok(CallOutcome::Shed),
        Err(ServingError::Remote { .. }) => Ok(CallOutcome::RemoteError),
        Err(other) => match conn_fault_kind(&other) {
            Some(kind) if fault_tolerant => Ok(CallOutcome::ConnFault(kind)),
            _ => Err(format!("connection degraded: {other}")),
        },
    }
}

struct WorkerTally {
    frames: u64,
    requests: u64,
    ok_requests: u64,
    shed_requests: u64,
    error_requests: u64,
    fault_requests: u64,
    conn_faults: ConnFaults,
    by_kind: [KindTally; 4],
    by_target: Vec<TargetTally>,
    hist: Histogram,
}

/// Connect deadline (and armed response timeout) of multi-target workers.
/// Single-target runs keep the legacy no-timeout connect; with several
/// replicas a worker must not hang on one dead endpoint when it could
/// fail over.
const MULTI_TARGET_TIMEOUT: Duration = Duration::from_secs(5);

fn worker_run(
    config: &LoadgenConfig,
    plan: &SharedPlan,
    worker: usize,
) -> Result<WorkerTally, String> {
    // Spread workers round-robin across the targets; each worker still
    // knows the whole set, so reconnects prefer its own endpoint but fail
    // over to the healthiest other replica.
    let mut order: Vec<SocketAddr> = plan.endpoints.iter().map(|(_, addr)| *addr).collect();
    if !order.is_empty() {
        let shift = worker % order.len();
        order.rotate_left(shift);
    }
    let mut client = if order.len() > 1 {
        Client::connect_any(&order, MULTI_TARGET_TIMEOUT)
    } else {
        Client::connect(order.as_slice())
    }
    .map_err(|e| format!("worker {worker}: connect {:?}: {e}", config.targets))?;
    if config.fault_tolerant {
        // One attempt (no in-client retries — the run wants to *observe*
        // every fault), but with connection-fault handling armed: a
        // transport fault drops the dead socket instead of poisoning the
        // client, so the next scheduled frame reconnects transparently.
        client.set_retry_policy(
            Some(
                RetryPolicy::new(1, Duration::from_millis(1), Duration::from_millis(1))
                    .retry_connection_faults(true),
            ),
            config.seed ^ worker as u64,
        );
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .map_err(|e| format!("worker {worker}: arm read timeout: {e}"))?;
    }
    let mut rng = StdRng::seed_from_u64(
        config.seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA076_1D64_78BD_642F,
    );
    let per_worker_rate = config.rate / config.connections as f64;
    let mut tally = WorkerTally {
        frames: 0,
        requests: 0,
        ok_requests: 0,
        shed_requests: 0,
        error_requests: 0,
        fault_requests: 0,
        conn_faults: ConnFaults::default(),
        by_kind: [KindTally::default(); 4],
        by_target: plan
            .endpoints
            .iter()
            .map(|(spec, _)| TargetTally {
                target: spec.clone(),
                ..TargetTally::default()
            })
            .collect(),
        hist: Histogram::new(),
    };
    // Per-pool cursors, offset per worker so the workers replay different
    // slices of the shared populations.
    let mut cursors: Vec<usize> = plan.pools.iter().map(|_| worker * 7).collect();

    let start = Instant::now();
    let mut next = Duration::ZERO;
    loop {
        // Poisson arrivals: exponential gap via inverse CDF. The vendored
        // rand has no Exp distribution; -ln(1-u)/λ needs only a uniform.
        let u: f64 = rng.gen();
        let gap = -(1.0 - u).ln() / per_worker_rate;
        next += Duration::from_secs_f64(gap.max(0.0));
        if next >= config.duration {
            break;
        }
        let now = start.elapsed();
        if next > now {
            std::thread::sleep(next - now);
        }
        let kind = plan.mix.sample(&mut rng);
        let n_requests = if kind == OpKind::SuggestBatch {
            plan.batch_size as u64
        } else {
            1
        };
        let outcome = issue(
            &mut client,
            plan,
            kind,
            &mut rng,
            &mut cursors,
            config.fault_tolerant,
        )
        .map_err(|e| format!("worker {worker}: {e}"))?;
        let latency = start.elapsed().saturating_sub(next);
        tally.frames += 1;
        tally.requests += n_requests;
        #[expect(
            clippy::indexing_slicing,
            reason = "`OpKind::index` is below `OpKind::ALL.len()`, the tally's length"
        )]
        let per_kind = &mut tally.by_kind[kind.index()];
        per_kind.frames += 1;
        // Attribute the exchange to the endpoint the client ended up on —
        // after a fail-over that is the replica that actually answered.
        let target_idx = client
            .last_endpoint()
            .and_then(|addr| plan.endpoints.iter().position(|(_, a)| *a == addr))
            .unwrap_or(0);
        let mut per_target = tally.by_target.get_mut(target_idx);
        if let Some(t) = per_target.as_mut() {
            t.frames += 1;
        }
        match outcome {
            CallOutcome::Ok => {
                tally.ok_requests += n_requests;
                per_kind.ok += 1;
                if let Some(t) = per_target.as_mut() {
                    t.ok += 1;
                }
                tally
                    .hist
                    .record(latency.as_micros().min(u128::from(u64::MAX)) as u64);
            }
            CallOutcome::Shed => {
                tally.shed_requests += n_requests;
                per_kind.shed += 1;
                if let Some(t) = per_target.as_mut() {
                    t.shed += 1;
                }
            }
            CallOutcome::RemoteError => {
                tally.error_requests += n_requests;
                per_kind.errors += 1;
                if let Some(t) = per_target.as_mut() {
                    t.errors += 1;
                }
            }
            CallOutcome::ConnFault(kind) => {
                tally.fault_requests += n_requests;
                tally.conn_faults.record(kind);
                per_kind.faults += 1;
                if let Some(t) = per_target.as_mut() {
                    t.faults += 1;
                }
            }
        }
    }
    Ok(tally)
}

#[expect(
    clippy::indexing_slicing,
    reason = "shard lists and samplers index `plan.plans`, there is one cursor per pool, and a request list holds at least one request"
)]
fn issue(
    client: &mut Client,
    plan: &SharedPlan,
    kind: OpKind,
    rng: &mut StdRng,
    cursors: &mut [usize],
    fault_tolerant: bool,
) -> Result<CallOutcome, String> {
    match kind {
        OpKind::Suggest | OpKind::SuggestBatch => {
            let (zipf, shards) = match (&plan.zipf_fitted, &plan.fitted) {
                (Some(zipf), shards) if !shards.is_empty() => (zipf, shards),
                _ => return Err("suggest sampled with no fitted shard".to_string()),
            };
            let target = &plan.plans[shards[zipf.sample(rng)]];
            let width = target.n_features.unwrap_or(0);
            let (pool_idx, pool) = plan
                .pools
                .iter()
                .enumerate()
                .find(|(_, (w, _))| *w == width)
                .map(|(i, (_, p))| (i, p.as_slice()))
                .ok_or_else(|| format!("no patient pool for {width} features"))?;
            let n = if kind == OpKind::SuggestBatch {
                plan.batch_size
            } else {
                1
            };
            let mut requests = Vec::with_capacity(n);
            for _ in 0..n {
                let patient = &pool[cursors[pool_idx] % pool.len()];
                cursors[pool_idx] += 1;
                requests.push(SuggestRequest::new(
                    PatientId::new(patient.id as usize),
                    patient.features.clone(),
                    rng.gen_range(1usize..=5),
                ));
            }
            if kind == OpKind::SuggestBatch {
                classify(client.suggest_batch(&target.key, &requests), fault_tolerant)
            } else {
                classify(client.suggest(&target.key, &requests[0]), fault_tolerant)
            }
        }
        OpKind::CheckPrescription => {
            let target = &plan.plans[plan.zipf_all.sample(rng)];
            let n_drugs = target.n_drugs.max(2);
            let want = rng.gen_range(2usize..=4).min(n_drugs);
            let mut drugs: Vec<DrugId> = Vec::with_capacity(want);
            while drugs.len() < want {
                let id = DrugId::new(rng.gen_range(0usize..n_drugs));
                if !drugs.contains(&id) {
                    drugs.push(id);
                }
            }
            classify(
                client.check_prescription(&target.key, &CheckPrescriptionRequest::new(drugs)),
                fault_tolerant,
            )
        }
        OpKind::ReloadKb => {
            let (zipf, shards) = match (&plan.zipf_reload, &plan.reloadable) {
                (Some(zipf), shards) if !shards.is_empty() => (zipf, shards),
                _ => return Err("reload sampled with no reloadable shard".to_string()),
            };
            let target = &plan.plans[shards[zipf.sample(rng)]];
            classify(
                client.reload_kb(&target.key, &plan.reload_bytes),
                fault_tolerant,
            )
        }
    }
}

/// Runs one open-loop load generation against a live gateway and returns
/// the merged report. Discovers shards via `ListModels`, degrades the mix
/// when the gateway cannot serve a kind (no fitted shard, no
/// formulary-compatible reload target), and cross-checks the gateway's
/// own shed accounting afterwards.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, String> {
    config.validate()?;
    let mut endpoints: Vec<(String, SocketAddr)> = Vec::with_capacity(config.targets.len());
    for target in &config.targets {
        let addr = target
            .to_socket_addrs()
            .map_err(|e| format!("resolving target {target:?}: {e}"))?
            .next()
            .ok_or_else(|| format!("target {target:?} resolved to no addresses"))?;
        endpoints.push((target.clone(), addr));
    }
    let first_target = config
        .targets
        .first()
        .ok_or("need at least one target endpoint")?;
    let mut probe = Client::connect(first_target.as_str())
        .map_err(|e| format!("connect {first_target}: {e}"))?;
    if config.fault_tolerant {
        // The probe's discovery and final stats calls must survive
        // injected faults too: retry with reconnect-and-failover armed.
        probe.set_retry_policy(
            Some(
                RetryPolicy::new(6, Duration::from_millis(20), Duration::from_millis(200))
                    .retry_connection_faults(true),
            ),
            config.seed ^ 0x70B3,
        );
        probe
            .set_read_timeout(Some(Duration::from_secs(2)))
            .map_err(|e| format!("arm probe read timeout: {e}"))?;
    }
    let mut models = probe
        .list_models()
        .map_err(|e| format!("list models: {e}"))?;
    if models.is_empty() {
        return Err("gateway serves no models".to_string());
    }
    // Popularity rank = lexicographic key order: deterministic across
    // runs and across gateways regardless of listing order.
    models.sort_by(|a, b| a.key.as_str().cmp(b.key.as_str()));

    let plans: Vec<TargetPlan> = models
        .iter()
        .map(|info| TargetPlan {
            key: info.key.clone(),
            n_drugs: info.n_drugs,
            n_features: if info.fitted { info.n_features } else { None },
        })
        .collect();
    let fitted: Vec<usize> = plans
        .iter()
        .enumerate()
        .filter(|(_, p)| p.n_features.is_some())
        .map(|(i, _)| i)
        .collect();

    let mut mix = config.mix.clone();
    if fitted.is_empty() {
        mix.fold_into_check(OpKind::Suggest);
        mix.fold_into_check(OpKind::SuggestBatch);
    }

    // Prepare the ReloadKb payload and find shards whose formulary digest
    // accepts it; skip reload traffic (with the rate folded into
    // critiques) when none match.
    let mut reloadable = Vec::new();
    let mut reload_bytes = Vec::new();
    if mix.weight(OpKind::ReloadKb) > 0.0 {
        let world =
            demo_world(config.reload_seed).map_err(|e| format!("build reload world: {e}"))?;
        let kb = dssddi_kb::KnowledgeBase::from_ddi_graph(&world.ddi, &world.registry)
            .map_err(|e| format!("build reload KB: {e}"))?;
        let digest = kb.registry_digest();
        reloadable = models
            .iter()
            .enumerate()
            .filter(|(_, info)| info.registry_digest == digest)
            .map(|(i, _)| i)
            .collect();
        if reloadable.is_empty() {
            mix.fold_into_check(OpKind::ReloadKb);
        } else {
            reload_bytes = kb.to_container_bytes();
        }
    }

    // Synthetic patient pools, one per distinct feature width.
    #[expect(
        clippy::indexing_slicing,
        reason = "`fitted` lists indices into `plans`"
    )]
    let mut widths: Vec<usize> = fitted.iter().filter_map(|&i| plans[i].n_features).collect();
    widths.sort_unstable();
    widths.dedup();
    let pools: Vec<(usize, Vec<dssddi_baselines::SimPatient>)> = widths
        .into_iter()
        .map(|width| {
            let spec = dssddi_baselines::PopulationSpec::new(config.seed, width);
            (width, spec.patients().take(POOL_PATIENTS).collect())
        })
        .collect();

    let shared = Arc::new(SharedPlan {
        zipf_all: Zipf::new(plans.len(), config.zipf_exponent)?,
        zipf_fitted: if fitted.is_empty() {
            None
        } else {
            Some(Zipf::new(fitted.len(), config.zipf_exponent)?)
        },
        zipf_reload: if reloadable.is_empty() {
            None
        } else {
            Some(Zipf::new(reloadable.len(), config.zipf_exponent)?)
        },
        endpoints: endpoints.clone(),
        plans,
        fitted,
        reloadable,
        mix,
        pools,
        reload_bytes,
        batch_size: config.batch_size,
    });

    let started = Instant::now();
    let workers: Vec<_> = (0..config.connections)
        .map(|worker| {
            let config = config.clone();
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_run(&config, &shared, worker))
        })
        .collect();

    let mut frames = 0u64;
    let mut requests = 0u64;
    let mut ok_requests = 0u64;
    let mut shed_requests = 0u64;
    let mut error_requests = 0u64;
    let mut fault_requests = 0u64;
    let mut conn_faults = ConnFaults::default();
    let mut by_kind = [KindTally::default(); 4];
    let mut by_target: Vec<TargetTally> = endpoints
        .iter()
        .map(|(spec, _)| TargetTally {
            target: spec.clone(),
            ..TargetTally::default()
        })
        .collect();
    let mut latency = Histogram::new();
    let mut failure: Option<String> = None;
    for handle in workers {
        match handle.join() {
            Ok(Ok(tally)) => {
                frames += tally.frames;
                requests += tally.requests;
                ok_requests += tally.ok_requests;
                shed_requests += tally.shed_requests;
                error_requests += tally.error_requests;
                fault_requests += tally.fault_requests;
                conn_faults.merge(&tally.conn_faults);
                for (merged, kind) in by_kind.iter_mut().zip(tally.by_kind) {
                    merged.frames += kind.frames;
                    merged.ok += kind.ok;
                    merged.shed += kind.shed;
                    merged.errors += kind.errors;
                    merged.faults += kind.faults;
                }
                for (merged, target) in by_target.iter_mut().zip(tally.by_target) {
                    merged.frames += target.frames;
                    merged.ok += target.ok;
                    merged.shed += target.shed;
                    merged.errors += target.errors;
                    merged.faults += target.faults;
                }
                latency.merge(&tally.hist);
            }
            Ok(Err(e)) => failure = failure.or(Some(e)),
            Err(_) => failure = failure.or_else(|| Some("worker thread panicked".to_string())),
        }
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    if let Some(e) = failure {
        return Err(e);
    }

    // Gateway-side cross-check. Single target: through the probe (which
    // may sit behind a chaos proxy and has its retries armed). Several
    // targets: each replica counts only the traffic it served, so the
    // totals are summed across all of them — a replica killed mid-run
    // takes its counters with it, which fault-tolerant runs accept.
    let (server_shed_requests, server_requests) = if endpoints.len() == 1 {
        let stats = probe.stats().map_err(|e| format!("final stats: {e}"))?;
        (
            stats.iter().map(|(_, s)| s.shed_requests).sum(),
            stats.iter().map(|(_, s)| s.requests).sum(),
        )
    } else {
        let mut shed = 0u64;
        let mut served = 0u64;
        for (spec, addr) in &endpoints {
            match Client::connect_timeout(addr, Duration::from_secs(2))
                .and_then(|mut client| client.stats())
            {
                Ok(stats) => {
                    shed += stats.iter().map(|(_, s)| s.shed_requests).sum::<u64>();
                    served += stats.iter().map(|(_, s)| s.requests).sum::<u64>();
                }
                Err(_) if config.fault_tolerant => {}
                Err(e) => return Err(format!("final stats from {spec}: {e}")),
            }
        }
        (shed, served)
    };

    Ok(LoadgenReport {
        connections: config.connections,
        offered_rps: config.rate,
        duration_s: config.duration.as_secs_f64(),
        elapsed_s,
        frames,
        requests,
        ok_requests,
        shed_requests,
        error_requests,
        fault_requests,
        conn_faults,
        by_kind,
        by_target,
        latency,
        slo_p99_ms: config.slo_p99_ms,
        server_shed_requests,
        server_requests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validates() {
        let good = LoadgenConfig::new("127.0.0.1:1");
        assert!(good.validate().is_ok());
        let mut bad = good.clone();
        bad.connections = 0;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.rate = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.duration = Duration::ZERO;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.batch_size = 0;
        assert!(bad.validate().is_err());
        let mut bad = good;
        bad.slo_p99_ms = f64::NAN;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn run_refuses_unreachable_gateway() {
        // A port from the discard range that nothing listens on: the run
        // reports a connection error instead of hanging or panicking.
        let mut config = LoadgenConfig::new("127.0.0.1:9");
        config.duration = Duration::from_millis(50);
        assert!(run(&config).is_err());
    }

    #[test]
    fn report_math_is_consistent() {
        let mut latency = Histogram::new();
        for micros in [500u64, 1_000, 2_000, 40_000] {
            latency.record(micros);
        }
        let report = LoadgenReport {
            connections: 2,
            offered_rps: 100.0,
            duration_s: 1.0,
            elapsed_s: 2.0,
            frames: 6,
            requests: 10,
            ok_requests: 4,
            shed_requests: 6,
            error_requests: 0,
            fault_requests: 0,
            conn_faults: ConnFaults::default(),
            by_kind: [KindTally::default(); 4],
            by_target: vec![
                TargetTally {
                    target: "127.0.0.1:4641".to_string(),
                    frames: 4,
                    ok: 3,
                    shed: 1,
                    ..TargetTally::default()
                },
                TargetTally {
                    target: "127.0.0.1:4642".to_string(),
                    frames: 2,
                    ok: 1,
                    shed: 1,
                    ..TargetTally::default()
                },
            ],
            latency,
            slo_p99_ms: 50.0,
            server_shed_requests: 6,
            server_requests: 4,
        };
        assert_eq!(report.achieved_rps(), 2.0);
        assert!(report.p99_ms() >= report.p50_ms());
        assert!(report.max_ms() >= report.p99_ms());
        assert!(report.slo_met(), "41 ms max is inside the 50 ms SLO");
        let rendered = report.render();
        assert!(rendered.contains("MET"));
        assert!(rendered.contains("6 shed"));
        assert!(
            rendered.contains("target 127.0.0.1:4642"),
            "multi-target runs render the per-endpoint breakdown"
        );
    }

    #[test]
    fn multi_target_config_validates() {
        let mut config = LoadgenConfig::new("127.0.0.1:1");
        config.targets = vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()];
        assert!(config.validate().is_ok());
        config.targets.clear();
        assert!(config.validate().is_err(), "no targets is rejected");
        config.targets = vec![String::new()];
        assert!(config.validate().is_err(), "empty target is rejected");
    }
}
