//! # dssddi-loadgen
//!
//! Open-loop traffic generator for the DSSDDI serving gateway — the
//! measurement side of the admission-control story. It replays synthetic
//! chronic-disease patient populations
//! ([`PopulationSpec`](dssddi_baselines::PopulationSpec)) against a live
//! gateway over the `DSWR` wire protocol and reports what the gateway
//! actually delivered against a latency SLO.
//!
//! What makes it a *traffic simulator* rather than a benchmark loop:
//!
//! * **Open loop.** Arrivals are a Poisson process at a configured rate,
//!   scheduled in absolute time before the run. Latency is measured from
//!   each request's *scheduled* start, so server-side queueing cannot
//!   hide in the generator's own back-pressure (coordinated omission).
//! * **Hot-shard skew.** Shard choice is Zipf-distributed ([`Zipf`]):
//!   a configurable head of the model catalog receives most traffic,
//!   exercising per-shard rate limits and quotas unevenly.
//! * **Mixed clinical workload.** Single suggestions, batched
//!   suggestions, prescription critiques and rare knowledge-base reloads,
//!   in configurable proportions ([`WorkloadMix`]).
//! * **Typed shed accounting.** `Overloaded` rejections are tallied
//!   separately from successes and from unexpected errors, and
//!   cross-checked against the gateway's own `Stats` counters.
//! * **Replica-group targets.** `--target` takes a comma-separated
//!   endpoint list: workers spread round-robin across the replicas, fail
//!   over to the healthiest endpoint on reconnect, and the report breaks
//!   outcomes down per endpoint ([`TargetTally`]) with the gateway-side
//!   cross-check summed across the group.
//!
//! The `dssddi-loadgen` binary drives connection-count sweeps and prints
//! one report per run; [`run`] is the library entry point. It is a traffic
//! and resilience driver (CI smoke runs, chaos and replica drills). The
//! serving benchmark with per-layer attribution is `bash perfbench/run.sh`
//! over the workloads in `BENCHMARK.json`.

#![warn(missing_docs)]

pub mod runner;
pub mod workload;

pub use runner::{run, ConnFaults, KindTally, LoadgenConfig, LoadgenReport, TargetTally};
pub use workload::{OpKind, WorkloadMix, Zipf};
