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
//!   gateway processes converged per shard via version vectors, and
//!   [`ReplicaClient`](replica::ReplicaClient) gives callers read fan-out
//!   with fail-over plus write forwarding,
//! * [`loadgen`] — the open-loop traffic generator (`dssddi-loadgen`
//!   binary): Poisson arrivals of mixed clinical traffic with Zipf
//!   hot-shard skew, replayed against a live gateway with an
//!   achieved-throughput-vs-SLO report,
//! * [`obs`] — the unified observability layer: a process-wide metrics
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
//! for response in service.suggest_batch(&requests).unwrap() {
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
//! let report = service.check_prescription(&check).unwrap();
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
//!     reloaded.suggest_batch(&requests).unwrap().len(),
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
//! through the same hot-reload machinery a direct
//! [`Client::reload_model`](serving::Client)/`reload_kb` uses — so a
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
//! A replica killed mid-traffic is routed around by
//! [`ReplicaClient`](replica::ReplicaClient) (reads retry over the
//! healthiest endpoint; the chaos drill asserts ≥99% client success with
//! one of three replicas down), and on restart it pulls every artifact it
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
//! The other half is measurement: `dssddi-loadgen` (the [`loadgen`]
//! crate) drives a live gateway with an open-loop Poisson schedule —
//! latency measured from each request's *scheduled* start so
//! coordinated omission cannot hide queueing — over a mixed workload
//! (suggestions, batches, critiques, rare KB reloads) with Zipf
//! hot-shard skew across the catalog:
//!
//! ```text
//! dssddi-serve --listen 127.0.0.1:4547 --demo --rate-default 400:100 &
//! dssddi-loadgen --addr 127.0.0.1:4547 --connections 1,64,256 \
//!     --rate 800 --duration-s 5 --slo-p99-ms 50 --append BENCH_serving.json
//! ```
//!
//! Each run prints the shed/ok accounting per operation kind
//! (cross-checked against the gateway's own `Stats` counters), the
//! admitted-frame percentiles from a log-bucketed histogram, and an
//! SLO verdict; `--append` splices `loadgen_c{N}` entries into
//! `BENCH_serving.json` under the existing schema.
//!
//! ## Observability
//!
//! Every serving-path subsystem publishes into one process-wide
//! [`MetricsRegistry`](obs::MetricsRegistry) ([`obs::global()`](obs::global)),
//! and `dssddi-serve --metrics-listen ADDR` exposes it as Prometheus
//! text — no external crates, no agent:
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
//! "infer"|"encode"}`), admission control
//! (`dssddi_admission_shed_total{reason=...}`,
//! `dssddi_admission_queue_wait_micros`), clinical critique outcomes
//! (`dssddi_kb_severity_total{grade=...}`), replication progress
//! (`dssddi_replica_syncs_total`, `dssddi_replica_max_lag`), gateway
//! transport counters and chaos-proxy fault injection
//! (`dssddi_chaos_faults_total{kind=...}`).
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
//! A fitted [`DecisionService`](core::DecisionService) (or engine-level
//! [`Dssddi`](core::Dssddi)) can be saved to a versioned, dependency-free
//! binary container and reloaded in a fresh process —
//! `save(path)` / `load(path, registry)`. The on-disk layout is 4 magic
//! bytes `"DSSD"`, a little-endian `u16` format version (currently 1), a
//! `u64` payload length, the payload, and a CRC-32 checksum of the payload
//! (see [`tensor::serde`]). The payload records the registry's drug names
//! (so typed [`DrugId`](core::DrugId)s survive reload and a wrong registry
//! is refused), the configuration, and every trained parameter set
//! (MDGCN weights, DDIGCN embeddings, treatment clusters). Loading is fully
//! bounds-checked: truncated, corrupt or version-mismatched files return
//! [`CoreError::Persistence`](core::CoreError::Persistence), never panic.
//! See `examples/save_load.rs` for the end-to-end round trip.
//!
//! Serving also memoizes explanation subgraphs in a service-owned,
//! size-bounded LRU cache (default
//! [`DEFAULT_EXPLANATION_CACHE_CAPACITY`](core::DEFAULT_EXPLANATION_CACHE_CAPACITY)
//! = 1024 drug sets), shared across `suggest_batch` calls — the DDI graph is
//! immutable after fit, so cached community searches stay valid for the
//! service's lifetime while memory use stays flat.
//!
//! ## Serving performance
//!
//! Inference never touches the autodiff tape: `suggest_batch` runs through
//! a dedicated tape-free path (`Mlp::infer` and friends in [`gnn::infer`])
//! built on fused, cache-blocked kernels in [`tensor`] that write into a
//! reusable [`ScratchPool`](tensor::ScratchPool) — no per-op allocation in
//! steady state, and **bit-identical** outputs to the taped training-time
//! forward pass (asserted by property tests; the taped reference survives
//! as `predict_scores_taped`). Scratch-pool rules: whoever `take`s a buffer
//! `recycle`s it when done; a taken buffer has *unspecified contents* and
//! must be fully overwritten (every `*_into` kernel does — use
//! `take_zeroed` otherwise); buffers never cross threads — each serving
//! worker owns its own pool.
//!
//! Large batches are sharded across scoped worker threads automatically
//! (the service is `Sync`;
//! [`suggest_batch_sharded`](core::DecisionService::suggest_batch_sharded)
//! controls the shard count explicitly). The shared explanation memo is
//! locked only for lookup/insert — never during a community search — so
//! cold explanations overlap across shards. Responses are always in
//! request order with scores identical to serial serving.
//!
//! The serving performance trajectory is tracked in `BENCH_serving.json`
//! at the repository root, written by
//! `cargo run --release -p dssddi-experiments --bin bench_report`. Each
//! entry reports `throughput_rps` (requests per second over the whole
//! run), and `p50_ms`/`p99_ms` latency percentiles per *batch* call for a
//! named workload at a given `batch_size` — compare `suggest_batch_cold`
//! (explanation cache cleared before every batch) against
//! `suggest_batch_memoized` (steady state), and `predict_scores_taped`
//! against `predict_scores_tape_free` for the pure model-inference
//! speedup. The `loadgen_c{N}` entries are different in kind: produced
//! by the open-loop generator against an admission-limited gateway at
//! ~2x capacity, they record *delivered* throughput and admitted-frame
//! percentiles while the excess is shed with typed `Overloaded`
//! rejections. Criterion benches covering the same paths live in
//! `crates/bench/benches/service_serving.rs`
//! (`cargo bench -p dssddi-bench`); CI smoke-runs them with
//! `cargo bench -- --test`.
//!
//! ## Static analysis
//!
//! The workspace ships its own analysis gate, [`analysis`]
//! (`dssddi-analyze`), run by CI on every push:
//!
//! ```text
//! cargo run --release -p dssddi-analyze --bin dssddi-analyze -- --deny-new --deny-stale
//! ```
//!
//! It walks the workspace sources with a dependency-free lexer and
//! enforces three invariant families no compiler checks: the canonical lock
//! nesting order of the serving path (`LOCK00x` — acquisition-graph cycles,
//! read→write upgrades, drift against the `LOCK ORDER:` block in
//! `crates/serving/src/router.rs`), the panic policy (`PANIC00x` —
//! `unwrap`/`expect`/`panic!`/indexing outside tests, ratcheted per file in
//! `analysis/baseline.toml`), and the scratch-pool kernel convention
//! (`KERNEL00x` — `*_into` kernels take their output first and declare
//! `fully overwrites`). `dssddi-analyze --list` enumerates the codes;
//! `--explain CODE` prints the rationale and the fix; `--update-baseline`
//! tightens the ratchet after cleanups.
//!
//! The wire registry is checked by the compiler instead: `DSWR` message
//! tags, error codes and sync artifacts are `#[repr(u8)]` enums
//! ([`serving::wire::RequestTag`], [`serving::wire::ResponseTag`],
//! [`serving::ErrorCode`]), so a duplicate value does not compile and the
//! encoder and decoder match on them exhaustively. The serving crate's
//! tests pin what the compiler cannot see: golden frames, the retired
//! request tag and distinct container magics.
//!
//! ## Migrating from the research facade
//!
//! The pre-service entry points still compile but are deprecated:
//! `Dssddi::fit_chronic` is replaced by
//! [`ServiceBuilder::fit_chronic`](core::ServiceBuilder::fit_chronic) (which
//! validates the configuration first), and `Dssddi::suggest` by
//! [`DecisionService::suggest_batch`](core::DecisionService::suggest_batch)
//! (which resolves drug names, supports per-request filters and memoizes
//! explanations). The engine-level `Dssddi::fit` remains available for
//! research code that needs raw matrices, and a fitted engine is reachable
//! through `DecisionService::engine`.

#![warn(missing_docs)]

pub use dssddi_analyze as analysis;
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
        SuggestResponse, Suggestion,
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
    pub use dssddi_replica::{ReplicaAgent, ReplicaClient, ReplicaGroup};
    pub use dssddi_serving::{
        AdmissionConfig, Client, GatewayStats, KeyVersions, ModelCatalog, ModelInfo, ModelKey,
        ModelStats, RateLimit, ReplicaState, ReplicaStats, RetryPolicy, Router, Server,
        ServerConfig, ServingError, StatsReport,
    };
    pub use dssddi_tensor::Matrix;
}
