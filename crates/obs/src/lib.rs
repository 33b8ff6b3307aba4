//! Unified observability layer for the DSSDDI deployment.
//!
//! Everything the serving path measures flows through this crate:
//!
//! - [`metrics`] — a dependency-free [`MetricsRegistry`] of named
//!   counters, gauges, and log-bucketed histograms, rendered in Prometheus
//!   text exposition format. Each gateway owns one registry, the only store
//!   of its serving counts. Metric names follow the convention
//!   `dssddi_<subsystem>_<name>` (e.g. `dssddi_serving_requests_total`,
//!   `dssddi_replica_sync_bytes_total`).
//! - [`histogram`] — the HDR-style log₂ [`Histogram`] shared by the load
//!   generator and the registry itself.
//! - [`trace`] — per-request trace IDs and [`SpanRecorder`] stage
//!   breakdowns, collected into a fixed-size [`TraceRing`] of slow-request
//!   exemplars (top-K by end-to-end latency).
//! - [`scrape`] — [`MetricsServer`], a minimal hand-rolled HTTP/1.0
//!   responder serving `GET /metrics` from a gateway's registry, so a stock
//!   Prometheus scraper (or plain `curl`) can read a live gateway.
//!
//! The crate is intentionally dependency-free and panic-free: it sits on
//! the serving path, where a broken metric must never take a request down
//! with it.

#![warn(missing_docs)]

pub mod histogram;
pub mod metrics;
pub mod scrape;
pub mod trace;

pub use histogram::Histogram;
pub use metrics::{Counter, Gauge, HistogramHandle, MetricsRegistry};
pub use scrape::MetricsServer;
pub use trace::{next_trace_id, SpanRecorder, Stage, TraceExemplar, TraceRing, STAGE_COUNT};
