//! # dssddi
//!
//! A from-scratch Rust reproduction of **"Decision Support System for
//! Chronic Diseases Based on Drug-Drug Interactions"** (Bian et al.,
//! ICDE 2023).
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`tensor`] — dense matrices, sparse products and reverse-mode autodiff,
//! * [`graph`] — signed/bipartite graphs, truss decomposition, Steiner trees
//!   and closest-truss-community search,
//! * [`data`] — synthetic chronic cohort, DrugCombDB-like DDI, MIMIC-like
//!   EHR, DRKG/TransE substrates,
//! * [`ml`] — k-means, logistic regression, SVMs, classifier chains and
//!   ranking metrics,
//! * [`gnn`] — GIN / SGCN / SiGAT / SNEA / LightGCN building blocks,
//! * [`kb`] — the clinical knowledge base: severity-graded DDI facts
//!   (`Minor`..`Contraindicated`), evidence levels, alert policies, TSV
//!   ingestion, the versioned `DSKB` container and typed KB diffs,
//! * [`core`] — the DSSDDI system itself (DDI, Medical Decision and Medical
//!   Support modules) and the clinical [`DecisionService`](core::DecisionService) API,
//! * [`serving`] — the multi-tenant network gateway: a
//!   [`ModelCatalog`](serving::ModelCatalog)/[`Router`](serving::Router) over
//!   several fitted services, a versioned binary wire protocol, the
//!   `dssddi-serve` server binary and a blocking [`Client`](serving::Client),
//! * [`replica`] — replica groups and catalog replication: a seeded
//!   anti-entropy agent ([`ReplicaAgent`](replica::ReplicaAgent)) keeps N
//!   gateway processes converged per shard via version vectors, so a
//!   reload sent to one replica reaches them all,
//! * [`loadgen`] — the open-loop traffic generator (`dssddi-loadgen`
//!   binary): Poisson arrivals of mixed clinical traffic with Zipf
//!   hot-shard skew, replayed against a live gateway with an
//!   achieved-throughput-vs-SLO report,
//! * [`obs`] — the unified observability layer: a per-gateway metrics
//!   registry rendered as Prometheus text over `GET /metrics`, the shared
//!   log-bucketed latency histogram, and per-request tracing
//!   ([`SpanRecorder`](obs::SpanRecorder)/[`TraceRing`](obs::TraceRing))
//!   whose IDs ride the wire protocol's version-2 frame extension,
//! * [`baselines`] — the comparison methods of the paper's evaluation.
//!
//! ## Quickstart
//!
//! The public API is the service layer: build a
//! [`DecisionService`](core::DecisionService) with
//! [`ServiceBuilder`](core::ServiceBuilder), then exchange typed requests and responses —
//! suggestions come back as named, scored drugs with a DDI explanation, and
//! existing prescriptions can be critiqued against the signed DDI graph.
//!
//! ```no_run
//! use dssddi::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let registry = DrugRegistry::standard();
//! let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
//! let cohort = generate_chronic_cohort(
//!     &registry,
//!     &ddi,
//!     &ChronicConfig { n_patients: 400, ..Default::default() },
//!     &mut rng,
//! )
//! .unwrap();
//! let drug_features =
//!     pretrained_drug_embeddings(&registry, &DrkgConfig::default(), &mut rng).unwrap();
//! let split = split_patients(cohort.n_patients(), (5, 3, 2), &mut rng).unwrap();
//!
//! // Validate the configuration and train the service.
//! let service = ServiceBuilder::fast()
//!     .hidden_dim(32)
//!     .fit_chronic(&cohort, &split.train, &drug_features, &ddi, &mut rng)
//!     .unwrap();
//!
//! // Suggest three drugs for a new patient; one prediction pass serves the
//! // whole batch and repeated explanations are memoized.
//! let requests: Vec<SuggestRequest> = split.test[..3]
//!     .iter()
//!     .map(|&p| SuggestRequest::new(PatientId::new(p), cohort.features().row(p).to_vec(), 3))
//!     .collect();
//! for response in service.suggest_batch_with_kb(&requests, None).unwrap() {
//!     for drug in &response.drugs {
//!         println!("{}: {} ({}) score {:.3}", response.patient, drug.name, drug.id, drug.score);
//!     }
//!     println!("suggestion satisfaction: {:.3}", response.suggestion_satisfaction);
//! }
//!
//! // Critique an existing prescription against the DDI graph.
//! let check = CheckPrescriptionRequest::new(vec![
//!     service.resolve_drug("Gabapentin").unwrap(),
//!     service.resolve_drug("Isosorbide Mononitrate").unwrap(),
//! ]);
//! let report = service.check_prescription_with_kb(&check, None).unwrap();
//! if !report.is_safe() {
//!     for pair in &report.antagonistic {
//!         println!("warning: {} is antagonistic with {}", pair.a_name, pair.b_name);
//!     }
//! }
//!
//! // Persist the fitted service and reload it on a serving host. The
//! // reloaded service produces byte-identical suggestions; damaged files
//! // are rejected with typed errors.
//! service.save("dssddi.dssd").unwrap();
//! let reloaded = DecisionService::load("dssddi.dssd", DrugRegistry::standard()).unwrap();
//! assert_eq!(
//!     reloaded.suggest_batch_with_kb(&requests, None).unwrap().len(),
//!     requests.len(),
//! );
//!
//! // Serve the saved model over the network: load it into a catalog under
//! // a routing key, bind the gateway, and query it with the blocking
//! // client. Remote responses are byte-identical to in-process calls.
//! let mut catalog = ModelCatalog::new();
//! catalog.load_file(ModelKey::new("chronic").unwrap(), "dssddi.dssd").unwrap();
//! let server = Server::bind("127.0.0.1:0", Router::new(catalog)).unwrap();
//! let addr = server.local_addr().unwrap();
//! std::thread::spawn(move || server.run());
//! let mut client = Client::connect(addr).unwrap();
//! let remote = client
//!     .suggest_batch(&ModelKey::new("chronic").unwrap(), &requests)
//!     .unwrap();
//! assert_eq!(remote.len(), requests.len());
//! client.shutdown().unwrap();
//! ```
//!
//! The same gateway runs stand-alone as the `dssddi-serve` binary
//! (`cargo run --release -p dssddi-replica --bin dssddi-serve -- --demo`);
//! see the [`serving`] crate docs for the wire protocol's frame layout
//! (magic `DSWR`, version, payload length, CRC-32) and the
//! `serve_client` example for the full network round trip.
//!
//! ## Replication and deployment
//!
//! One gateway process is a single point of failure; the [`replica`] crate
//! turns N of them into one logical deployment. Each replica lists every
//! *other* replica as a peer, and a seeded anti-entropy agent converges
//! the group — a three-replica demo deployment is three processes:
//!
//! ```text
//! dssddi-serve --listen 127.0.0.1:4641 --demo \
//!     --peer 127.0.0.1:4642 --peer 127.0.0.1:4643 &
//! dssddi-serve --listen 127.0.0.1:4642 --demo \
//!     --peer 127.0.0.1:4641 --peer 127.0.0.1:4643 &
//! dssddi-serve --listen 127.0.0.1:4643 --demo \
//!     --peer 127.0.0.1:4641 --peer 127.0.0.1:4642 &
//! ```
//!
//! **Version semantics.** Every shard carries a monotone
//! `(model_version, kb_version)` pair: the model version is assigned by
//! the gateway (1 at load, bumped on every hot-swap), while the KB version
//! travels inside the `DSKB` container itself. Each agent round exchanges
//! these vectors with every peer (`PeerStatus`), pulls whole `DSSD`/`DSKB`
//! containers wherever a peer is ahead (`PeerSync`), and applies them
//! through [`ModelCatalog::install`](serving::ModelCatalog::install), the
//! one install path a direct
//! [`Client::reload_model`](serving::Client)/`reload_kb` reaches too — so a
//! synced replica serves **byte-identical** responses to the reloaded one,
//! and sync is monotone: a shard never moves backwards, making rounds
//! idempotent and concurrent reloads benign. Per-replica progress (peers,
//! syncs, bytes shipped, per-key versions, lag) is reported in
//! [`ReplicaStats`](serving::ReplicaStats) on the `Stats` response.
//!
//! Reload any one replica — for example the first — and within a few sync
//! intervals (default 500 ms, jittered) all three report the same
//! `kb_version` via `Stats` and critique identically.
//!
//! **Failure modes.** An unreachable peer costs the agent one bounded
//! timeout per round and is retried next round; it cannot stall serving.
//! A replica killed mid-traffic is routed around by a
//! [`Client`](serving::Client) connected with `connect_any` over the
//! group and a [`RetryPolicy`](serving::RetryPolicy) that retries
//! connection faults (reads retry over the healthiest endpoint; the chaos
//! drill asserts ≥99% client success with one of three replicas down),
//! and on restart it pulls every artifact it
//! missed on its first sync round — convergence is eventual, bounded by
//! the sync interval, and never requires operator action. Reloads forward
//! to *one* replica and are never retried on transport faults; if the
//! forwarding connection dies mid-reload, check `Stats` versions before
//! resending.
//!
//! ## Admission control and traffic simulation
//!
//! A gateway facing open-loop traffic (arrivals that do not slow down
//! when the server does) must shed load *before* its queues collapse.
//! `dssddi-serve` arms admission control with
//! [`AdmissionConfig`](serving::AdmissionConfig)-backed flags — per-model
//! token-bucket rate limits (`--rate-default RPS[:BURST]`,
//! `--rate KEY=RPS[:BURST]`), per-model in-flight quotas
//! (`--quota KEY=N`) and a bounded gateway-wide execution queue
//! (`--max-in-flight N`, `--queue-depth N`, `--queue-wait-ms MS`).
//! Rejected requests fail fast with the typed
//! [`ErrorCode::Overloaded`](serving::ErrorCode) wire error — the
//! connection survives, admitted traffic keeps its latency, and every
//! shed is counted in [`ModelStats`](serving::ModelStats)
//! (`shed_requests`, alongside the `in_flight` gauge and
//! `queue_depth_hwm` high-water mark). Clients opt into bounded,
//! jitter-backed retries with
//! [`Client::set_retry_policy`](serving::Client::set_retry_policy)
//! ([`RetryPolicy`](serving::RetryPolicy)); only `Overloaded` rejections
//! are retried — the request never executed, so a retry is safe.
//!
//! The other half is traffic: `dssddi-loadgen` (the [`loadgen`]
//! crate) drives a live gateway with an open-loop Poisson schedule —
//! latency measured from each request's *scheduled* start so
//! coordinated omission cannot hide queueing — over a mixed workload
//! (suggestions, batches, critiques, rare KB reloads) with Zipf
//! hot-shard skew across the catalog:
//!
//! ```text
//! dssddi-serve --listen 127.0.0.1:4547 --demo --rate-default 400:100 &
//! dssddi-loadgen --addr 127.0.0.1:4547 --connections 1,64,256 \
//!     --rate 800 --duration-s 5 --slo-p99-ms 50
//! ```
//!
//! Each run prints the shed/ok accounting per operation kind
//! (cross-checked against the gateway's own `Stats` counters), the
//! admitted-frame percentiles from a log-bucketed histogram, and an
//! SLO verdict. CI drives its traffic, chaos and replica smoke runs with
//! it; serving cost is measured by the benchmark under
//! [Serving performance](#serving-performance).
//!
//! ## Observability
//!
//! Every count a gateway keeps lives in one
//! [`MetricsRegistry`](obs::MetricsRegistry), created with its
//! [`ModelCatalog`](serving::ModelCatalog) and reachable through
//! [`Router::registry`](serving::Router::registry). The router, the
//! server's accept loop, admission control and the replica agent write
//! into it; [`Router::stats_report`](serving::Router::stats_report) (the
//! `Stats` wire message) reads its cells, and `dssddi-serve
//! --metrics-listen ADDR` renders the same cells as Prometheus text — no
//! external crates, no agent:
//!
//! ```text
//! dssddi-serve --listen 127.0.0.1:4641 --demo \
//!     --metrics-listen 127.0.0.1:9641 &
//! curl -s http://127.0.0.1:9641/metrics | grep dssddi_serving_requests_total
//! ```
//!
//! Metric names follow `dssddi_<subsystem>_<name>[_total]`: the serving
//! family (`dssddi_serving_requests_total`, `dssddi_serving_latency_micros`,
//! per-stage `dssddi_serving_stage_micros{stage="decode"|"admit"|"queue"|
//! "infer"|"encode"}`), one shard's counts
//! (`dssddi_model_requests_total{model=...}`,
//! `dssddi_model_errors_total{model=...,code=...}`,
//! `dssddi_model_shed_total`, `dssddi_model_in_flight`,
//! `dssddi_model_queue_depth_hwm`, `dssddi_model_latency_micros`, read
//! back as [`ModelStats`](serving::ModelStats)), admission control
//! (`dssddi_admission_shed_total{reason=...}`,
//! `dssddi_admission_queue_wait_micros`), clinical critique outcomes
//! (`dssddi_kb_severity_total{grade=...}`), replication progress
//! (`dssddi_replica_syncs_total`, `dssddi_replica_max_lag`) and gateway
//! transport counters (`dssddi_gateway_connections_total`, read back as
//! [`GatewayStats`](serving::GatewayStats)).
//!
//! Per-request tracing rides the same wire protocol: a client that opts in
//! with [`Client::set_tracing`](serving::Client::set_tracing) stamps every
//! request with a `u64` trace ID carried in a version-2 frame extension
//! (untraced clients still emit version-1 frames bit-identically, so old
//! peers interoperate). The gateway times each request's
//! decode → admit → queue → infer → encode stages into a
//! [`SpanRecorder`](obs::SpanRecorder) and keeps the slowest exemplars in a
//! bounded [`TraceRing`](obs::TraceRing), dumpable over the wire with
//! [`Client::trace_dump`](serving::Client::trace_dump) — the `dssddi-top`
//! example renders them as a live per-model/per-stage console view:
//!
//! ```text
//! cargo run --release -p dssddi-replica --example dssddi-top -- \
//!     127.0.0.1:4641 --iterations 5 --interval-ms 1000
//! ```
//!
//! ## Resilience and fault injection
//!
//! Networks fail in more ways than "overloaded", and a clinical gateway
//! has to degrade into *typed errors*, never panics or silent hangs. The
//! [`chaos`] crate ships a deterministic, dependency-free fault-injecting
//! TCP proxy ([`ChaosProxy`](chaos::ChaosProxy)): a seeded
//! [`FaultPlan`](chaos::FaultPlan) assigns each accepted connection a
//! scheduled fault — delay (fixed or jittered), truncate-after-N-bytes,
//! corrupt-byte (breaks the CRC), reset, slow-loris stall, black-hole —
//! with typed per-fault counters, so every failure mode is reproducible
//! from a seed.
//!
//! Both ends are hardened against what the proxy injects. The gateway
//! enforces a wall-clock per-frame deadline
//! ([`ServerConfig::frame_deadline`](serving::ServerConfig)) that reaps
//! stalled *and* byte-trickling peers with a typed timeout (counted in
//! [`GatewayStats`](serving::GatewayStats), reported through `Stats`),
//! bounds its concurrent connections
//! ([`ServerConfig::max_connections`](serving::ServerConfig)) with a
//! typed `Overloaded` shed, and drains cleanly on `Shutdown` under live
//! traffic. The client fails over across gateway replicas
//! ([`Client::connect_any`](serving::Client::connect_any)) with
//! per-endpoint health memory and cooldowns, answers `Ping` liveness
//! probes that bypass admission control
//! ([`Client::ping`](serving::Client::ping)), and — with
//! [`RetryPolicy::retry_connection_faults`](serving::RetryPolicy::retry_connection_faults)
//! armed — retries resets, timeouts and short reads with jittered
//! backoff for **idempotent requests only**; a reload is never resent
//! across a transport fault, because the first send may have executed.
//! Model and knowledge-base saves are crash-safe (temp file + atomic
//! rename), so a writer killed mid-save can never leave a torn artifact.
//!
//! ```text
//! # drive a live gateway through a deterministic fault schedule and
//! # report resets/timeouts/short-reads distinct from admission sheds
//! dssddi-loadgen --addr 127.0.0.1:4547 --chaos 7:mixed --smoke
//! ```
//!
//! ## Clinical knowledge base (`DSKB` files, severity-graded critique)
//!
//! Interaction *edges* say two drugs interact; the [`kb`] subsystem says how
//! badly and what to do about it. The workflow is *ingest → save → serve →
//! reload*:
//!
//! ```no_run
//! use dssddi::prelude::*;
//!
//! # let registry = DrugRegistry::standard();
//! # let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
//! # let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
//! # let service = ServiceBuilder::fast().build_support(&ddi).unwrap();
//! // Ingest: seed every DDI edge with its sign default (antagonistic edges
//! // of unknown severity grade Moderate), then overlay curated TSV facts
//! // (drug_a  drug_b  severity  evidence  mechanism  management).
//! let mut kb = KnowledgeBase::from_ddi_graph(&ddi, &registry)?;
//! kb.ingest_tsv(&std::fs::read_to_string("examples/data/ddi_kb.tsv").unwrap(), &registry)?;
//!
//! // Critique with clinical grades; the AlertPolicy filters findings at
//! // the source (min severity; Contraindicated always fires).
//! let request = CheckPrescriptionRequest::new(vec![
//!     service.resolve_drug("Gabapentin").unwrap(),
//!     service.resolve_drug("Isosorbide Mononitrate").unwrap(),
//! ])
//! .with_policy(AlertPolicy::at_least(Severity::Major));
//! let report = service.check_prescription_with_kb(&request, Some(&kb)).unwrap();
//! for pair in &report.antagonistic {
//!     println!("[{}] {} + {}: {:?}", pair.severity, pair.a_name, pair.b_name, pair.management);
//! }
//!
//! // Persist to the CRC-framed DSKB container (same frame shape as DSSD
//! // model files, own magic) and ship it to a serving host; versions are
//! // monotone and `KnowledgeBase::diff` reviews an update before shipping.
//! kb.save("clinic.dskb")?;
//! # Ok::<(), dssddi::kb::KbError>(())
//! ```
//!
//! In the gateway every shard pairs its service with a knowledge base
//! (seeded from the shard's DDI graph unless `dssddi-serve` was given
//! `--kb KEY=PATH.dskb`), and both halves hot-reload *under a live key with
//! zero dropped requests*: `Client::reload_kb` / `Client::reload_model`
//! ship the new `DSKB`/`DSSD` container over the wire, in-flight requests
//! finish on the artifact they started with, and the shard's serving
//! counters survive the swap. `Client::kb_info` reports the live KB
//! version. Suggestion filters can also consult the KB:
//! [`SuggestFilters::exclude_contraindicated_with`](core::SuggestFilters)
//! drops candidates whose interaction with a drug the patient already takes
//! is graded `Contraindicated`. See `examples/kb_critique.rs` for the whole
//! workflow.
//!
//! ## Persistence (`DSSD` files)
//!
//! A fitted [`DecisionService`](core::DecisionService) can be saved to a
//! versioned, dependency-free binary container and reloaded in a fresh
//! process — `save(path)` / `load(path, registry)`. The on-disk layout is 4
//! magic bytes `"DSSD"`, a little-endian `u16` format version (currently 3),
//! a `u64` payload length, the payload, and a CRC-32 checksum of the payload
//! (see [`tensor::serde`]). The payload records, once each, the registry's
//! drug names (so typed [`DrugId`](core::DrugId)s survive reload and a wrong
//! registry is refused), the DDI graph, the configuration, and the fitted
//! MD module (MDGCN weights, the drug representations, which hold the DDIGCN
//! embeddings added at fit time, and the per-cluster treatment table).
//! DDIGCN itself is a training step and is not stored. Loading is fully
//! bounds-checked: truncated, corrupt or version-mismatched files return
//! [`CoreError::Persistence`](core::CoreError::Persistence), never panic.
//! See `examples/save_load.rs` for the end-to-end round trip.
//!
//! Serving also memoizes explanation subgraphs in a size-bounded LRU memo
//! (default
//! [`DEFAULT_EXPLANATION_CACHE_CAPACITY`](core::DEFAULT_EXPLANATION_CACHE_CAPACITY)
//! = 1024 drug sets, each packed into one allocation of a few hundred bytes),
//! shared across `suggest_batch_with_kb` calls. An explanation depends only
//! on the DDI graph and the MS configuration, so the memo lives in an
//! [`ExplanationEngine`](core::ExplanationEngine) that every service over
//! an equal graph and configuration can share: a gateway's shards over one
//! graph share one index and one memo, and a retrained model reloaded over
//! an unchanged graph keeps the memo warm.
//!
//! ## Serving performance
//!
//! Inference never touches the autodiff tape: `suggest_batch_with_kb` runs
//! through a dedicated tape-free path (the decoder's `Mlp::infer` in
//! [`gnn::infer`]) built on fused, cache-blocked kernels in [`tensor`] that
//! write into a reusable [`ScratchPool`](tensor::ScratchPool) — no per-op
//! allocation in steady state, and **bit-identical** outputs to the taped
//! training-time forward pass. The taped scoring path is a test reference
//! only: it is compiled under `#[cfg(test)]`, where a test asserts the
//! tape-free scores match it bit for bit. Scratch-pool rules: whoever
//! `take`s a buffer `recycle`s it when done; a taken buffer has
//! *unspecified contents* and must be fully overwritten (every `*_into`
//! kernel does — use `take_zeroed` otherwise); buffers never cross threads
//! — each prediction pass owns its own pool.
//!
//! A batch is served on the thread that asked for it: in the gateway, the
//! connection thread that decoded its frame, so one admitted frame runs on
//! one thread. The service is `Sync`, and connection threads share its
//! explanation memo, which is locked only for lookup/insert — never during
//! a community search — so cold explanations overlap across connections.
//! Responses are always in request order, each identical to serving its
//! request alone.
//!
//! Serving cost is measured by one benchmark, declared in
//! `BENCHMARK.json` and run from the repository root:
//!
//! ```text
//! bash perfbench/run.sh --workload critique --seed 1 --seconds 20 --trace 0
//! ```
//!
//! It builds `dssddi-serve` from source, drives it open loop on loopback
//! with the `critique`, `suggest` and `clinic_mixed` workloads, and prints
//! one JSON object per run. `--trace 0` reports the end-to-end metrics
//! (`setup_s`, `rss_mb`, `cpu_ms_per_req.light`); `--trace 1` replays the
//! same requests through each layer and reports per-layer ones (wire codec,
//! router, service, explanation search, inference, KB lookup). See
//! `perfbench/README.md`. The criterion benches in `crates/bench` time
//! kernels only: graph algorithms, tensor kernels, persistence and the
//! research training pipelines (`cargo bench -p dssddi-bench`). CI
//! smoke-runs each of them once with `cargo bench -p dssddi-bench -- --test`.
//!
//! ## Static checks
//!
//! The compiler and the test suites hold the workspace's invariants:
//!
//! - **Panic policy.** The serving path answers with typed errors and never
//!   panics. `[workspace.lints.clippy]` denies `unwrap_used`, `expect_used`,
//!   `indexing_slicing`, `panic`, `unreachable`, `todo` and `unimplemented`,
//!   and every crate outside `vendor/` inherits that table, so
//!   `cargo clippy --workspace --all-targets -- -D warnings` fails on a new
//!   site. A site whose bound is proven locally carries
//!   `#[expect(clippy::indexing_slicing, reason = "...")]` on the narrowest
//!   `let` or item around it, its `reason` stating the bound; clippy also
//!   fails on an expectation whose site is gone, so the marks can only be
//!   removed, never left stale. Unit tests may panic (`clippy.toml`);
//!   integration tests, benches and examples opt out with file-level allows.
//! - **Leaf locks.** A thread holds at most one serving lock at a time, so
//!   no two can deadlock. Every serving lock is taken through
//!   [`core::sync`], which recovers a poisoned lock and, in debug builds,
//!   panics on a nested acquisition; the debug test suites run every site.
//! - **Kernel contract.** Each `*_into` kernel takes its output buffer first
//!   and fully overwrites it. `crates/tensor/tests/kernel_equivalence.rs`
//!   checks the contract by behaviour: the matmul, fused-linear and CSR
//!   kernels write into NaN-filled outputs and must match their references.
//!
//! The wire registry is checked by the compiler instead: `DSWR` message
//! tags, error codes and sync artifacts are `#[repr(u8)]` enums
//! ([`serving::wire::RequestTag`], [`serving::wire::ResponseTag`],
//! [`serving::ErrorCode`]), so a duplicate value does not compile and the
//! encoder and decoder match on them exhaustively. The serving crate's
//! tests pin what the compiler cannot see: golden frames, the retired
//! request tag and distinct container magics.

#![warn(missing_docs)]

pub use dssddi_baselines as baselines;
pub use dssddi_chaos as chaos;
pub use dssddi_core as core;
pub use dssddi_data as data;
pub use dssddi_gnn as gnn;
pub use dssddi_graph as graph;
pub use dssddi_kb as kb;
pub use dssddi_loadgen as loadgen;
pub use dssddi_ml as ml;
pub use dssddi_obs as obs;
pub use dssddi_replica as replica;
pub use dssddi_serving as serving;
pub use dssddi_tensor as tensor;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use dssddi_baselines::{
        BiparGcnRecommender, CauseRecRecommender, EccRecommender, GcmcRecommender,
        LightGcnRecommender, Recommender, SafeDrugRecommender, SvmRecommender, UserSim,
    };
    pub use dssddi_chaos::{ChaosProxy, FaultPlan};
    pub use dssddi_core::{
        Backbone, CheckPrescriptionRequest, CoreError, DecisionService, DrugId, Dssddi,
        DssddiConfig, Explanation, InteractionReport, MdModuleConfig, MsModuleConfig,
        PairInteraction, PatientId, ScoredDrug, ServiceBuilder, SuggestFilters, SuggestRequest,
        SuggestResponse,
    };
    pub use dssddi_data::{
        generate_chronic_cohort, generate_ddi_graph, generate_mimic_dataset,
        pretrained_drug_embeddings, split_patients, ChronicCohort, ChronicConfig, DdiConfig,
        Disease, DrkgConfig, DrugRegistry, MimicConfig, Split,
    };
    pub use dssddi_graph::{BipartiteGraph, Interaction, SignedGraph};
    pub use dssddi_kb::{
        AlertPolicy, EvidenceLevel, KbDiff, KbError, KbFact, KbInfo, KnowledgeBase, Severity,
    };
    pub use dssddi_loadgen::{LoadgenConfig, LoadgenReport, WorkloadMix};
    pub use dssddi_ml::{ndcg_at_k, precision_at_k, ranking_metrics, recall_at_k, top_k_indices};
    pub use dssddi_obs::{Histogram, MetricsRegistry, MetricsServer, TraceExemplar};
    pub use dssddi_replica::{ReplicaAgent, ReplicaGroup};
    pub use dssddi_serving::{
        AdmissionConfig, Client, GatewayStats, KeyVersions, ModelCatalog, ModelInfo, ModelKey,
        ModelStats, RateLimit, ReplicaState, ReplicaStats, RetryPolicy, Router, Server,
        ServerConfig, ServingError, StatsReport,
    };
    pub use dssddi_tensor::Matrix;
}
