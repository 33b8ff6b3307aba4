//! Serving-path metrics: every count a gateway keeps lives in one
//! [`MetricsRegistry`], created with its [`crate::ModelCatalog`]. The
//! `Stats` wire message ([`crate::Router::stats_report`]) and `GET /metrics`
//! read the same cells, and each gateway's registry is its own, so several
//! routers in one process keep their counts apart.
//!
//! Families follow the `dssddi_<subsystem>_<name>` convention, counters
//! suffixed `_total`, durations in microseconds:
//!
//! * `dssddi_serving_requests_total` / `dssddi_serving_errors_total` —
//!   individual requests served / failed (a batch of 16 counts 16).
//! * `dssddi_serving_latency_micros` — end-to-end per-frame latency
//!   (decode through encode), as a quantile summary.
//! * `dssddi_serving_stage_micros{stage=...}` — the same latency broken
//!   down per pipeline [`Stage`] (decode, admit, queue, infer, encode).
//! * `dssddi_model_requests_total{model}`,
//!   `dssddi_model_errors_total{model,code}`, `dssddi_model_shed_total{model}`,
//!   `dssddi_model_in_flight{model}`, `dssddi_model_queue_depth_hwm{model}`
//!   and `dssddi_model_latency_micros{model}` — one shard's counts, read
//!   back as its [`ModelStats`].
//! * `dssddi_admission_shed_total{reason=...}` — requests shed before
//!   execution, by which limit fired (`rate_limit`, `quota`, `queue_full`).
//! * `dssddi_admission_queue_wait_micros` — time admitted calls spent in
//!   the bounded gateway queue.
//! * `dssddi_kb_severity_total{grade=...}` — severity-graded interaction
//!   findings served in prescription critiques, per [`Severity`] grade.
//! * `dssddi_replica_*` — anti-entropy sync rounds, bytes shipped, peer
//!   count and version lag, written through [`ReplicaState`] and read back
//!   as [`ReplicaStats`].
//! * `dssddi_gateway_connections_total`, `dssddi_gateway_connections_active`,
//!   `dssddi_gateway_connections_shed_total` and
//!   `dssddi_gateway_stalled_reaped_total` — transport counters the server
//!   writes, read back as [`crate::GatewayStats`].
//!
//! Handles are resolved once, when a shard is inserted or a router is
//! built, so a scrape lists every family at zero before the first request
//! and the hot path pays one relaxed atomic per increment.

use dssddi_core::InteractionReport;
use dssddi_kb::Severity;
use dssddi_obs::trace::{Stage, STAGE_COUNT};
use dssddi_obs::{Counter, Gauge, HistogramHandle, MetricsRegistry};

use crate::router::{KeyVersions, ModelKey, ModelStats, ReplicaStats};
use crate::wire::ErrorCode;

/// The gateway-wide handles of one router.
#[derive(Debug)]
pub(crate) struct GatewayMetrics {
    /// `dssddi_serving_requests_total`.
    requests: Counter,
    /// `dssddi_serving_errors_total`.
    errors: Counter,
    /// `dssddi_serving_latency_micros`.
    pub(crate) latency: HistogramHandle,
    /// `dssddi_serving_stage_micros{stage=...}`, in [`Stage::ALL`] order.
    pub(crate) stages: [HistogramHandle; STAGE_COUNT],
    /// `dssddi_admission_shed_total{reason="rate_limit"}`.
    pub(crate) shed_rate: Counter,
    /// `dssddi_admission_shed_total{reason="quota"}`.
    pub(crate) shed_quota: Counter,
    /// `dssddi_admission_shed_total{reason="queue_full"}`.
    pub(crate) shed_queue: Counter,
    /// `dssddi_admission_queue_wait_micros`.
    pub(crate) queue_wait: HistogramHandle,
    /// `dssddi_kb_severity_total{grade=...}`, indexed by [`Severity::to_u8`].
    severities: [Counter; Severity::ALL.len()],
    /// `dssddi_replica_*`.
    pub(crate) replica: ReplicaState,
    /// `dssddi_gateway_*`.
    pub(crate) connections: ConnectionMetrics,
}

impl GatewayMetrics {
    /// Registers every gateway-wide family in `registry`.
    pub(crate) fn register(registry: &MetricsRegistry) -> Self {
        let shed = |reason| {
            registry.counter_with(
                "dssddi_admission_shed_total",
                "Requests shed by admission control, by which limit fired",
                &[("reason", reason)],
            )
        };
        Self {
            requests: registry.counter(
                "dssddi_serving_requests_total",
                "Individual requests served (a batch of 16 counts 16)",
            ),
            errors: registry.counter(
                "dssddi_serving_errors_total",
                "Individual requests that ended in an error",
            ),
            latency: registry.histogram(
                "dssddi_serving_latency_micros",
                "End-to-end per-frame serving latency in microseconds",
            ),
            stages: Stage::ALL.map(|stage| {
                registry.histogram_with(
                    "dssddi_serving_stage_micros",
                    "Per-frame serving latency broken down by pipeline stage",
                    &[("stage", stage.as_str())],
                )
            }),
            shed_rate: shed("rate_limit"),
            shed_quota: shed("quota"),
            shed_queue: shed("queue_full"),
            queue_wait: registry.histogram(
                "dssddi_admission_queue_wait_micros",
                "Time admitted calls spent waiting in the bounded gateway queue",
            ),
            severities: Severity::ALL.map(|severity| {
                registry.counter_with(
                    "dssddi_kb_severity_total",
                    "Severity-graded interaction findings served in critiques",
                    &[("grade", severity.name())],
                )
            }),
            replica: ReplicaState {
                peers: registry.gauge(
                    "dssddi_replica_peers",
                    "Peer gateways in the replica group (excluding this one)",
                ),
                syncs: registry.counter(
                    "dssddi_replica_syncs_total",
                    "Containers pulled from peers and applied by anti-entropy",
                ),
                bytes_shipped: registry.counter(
                    "dssddi_replica_sync_bytes_total",
                    "Total bytes of containers pulled from peers",
                ),
                max_lag: registry.gauge(
                    "dssddi_replica_max_lag",
                    "Largest per-key version gap behind any peer at the last round",
                ),
            },
            connections: ConnectionMetrics {
                accepted: registry.counter(
                    "dssddi_gateway_connections_total",
                    "Connections the gateway server ever accepted",
                ),
                active: registry.gauge(
                    "dssddi_gateway_connections_active",
                    "Connections currently being served",
                ),
                shed: registry.counter(
                    "dssddi_gateway_connections_shed_total",
                    "Connections refused at accept because the bound was reached",
                ),
                stalled: registry.counter(
                    "dssddi_gateway_stalled_reaped_total",
                    "Connections reaped because a peer stalled mid-frame",
                ),
            },
        }
    }

    /// Counts one routed call's `n` individual requests on its shard and
    /// gateway-wide, as errors of class `error` when it failed.
    pub(crate) fn record_outcome(&self, shard: &ModelMetrics, n: u64, error: Option<ErrorCode>) {
        shard.requests.add(n);
        self.requests.add(n);
        if let Some(code) = error {
            self.errors.add(n);
            if let Some(counter) = shard.errors.get(code.index()) {
                counter.add(n);
            }
        }
    }

    /// Counts the severity-graded findings of one served critique.
    pub(crate) fn count_severities(&self, report: &InteractionReport) {
        for finding in report.antagonistic.iter().chain(&report.synergistic) {
            if let Some(counter) = self.severities.get(usize::from(finding.severity.to_u8())) {
                counter.inc();
            }
        }
    }
}

/// One shard's handles, the `dssddi_model_*{model="<key>"}` series.
#[derive(Debug)]
pub(crate) struct ModelMetrics {
    requests: Counter,
    /// Indexed by [`ErrorCode::index`].
    errors: [Counter; ErrorCode::ALL.len()],
    /// Individual requests shed by admission control before execution.
    pub(crate) shed: Counter,
    /// Routed calls currently executing (or queued) against the shard.
    pub(crate) in_flight: Gauge,
    /// High-water mark of the gateway queue depth observed by the shard's
    /// admitted calls.
    pub(crate) queue_hwm: Gauge,
    /// Routed-call latency of the shard's admitted data-plane requests.
    pub(crate) latency: HistogramHandle,
}

impl ModelMetrics {
    /// Registers the series of the shard `key` in `registry`.
    pub(crate) fn register(registry: &MetricsRegistry, key: &ModelKey) -> Self {
        let model = [("model", key.as_str())];
        let counter = |name, help| registry.counter_with(name, help, &model);
        let gauge = |name, help| registry.gauge_with(name, help, &model);
        Self {
            requests: counter("dssddi_model_requests_total", "Requests one shard served"),
            errors: ErrorCode::ALL.map(|code| {
                registry.counter_with(
                    "dssddi_model_errors_total",
                    "Requests of one shard that failed, by error code",
                    &[("model", key.as_str()), ("code", &code.to_string())],
                )
            }),
            shed: counter("dssddi_model_shed_total", "Requests of one shard shed"),
            in_flight: gauge("dssddi_model_in_flight", "Calls in flight on one shard"),
            queue_hwm: gauge("dssddi_model_queue_depth_hwm", "Peak queue depth seen"),
            latency: registry.histogram_with(
                "dssddi_model_latency_micros",
                "Routed-call latency of one shard in microseconds",
                &model,
            ),
        }
    }

    /// The shard's statistics, read from its series. The explanation-cache
    /// counts belong to the shard's current service, which keeps them.
    pub(crate) fn stats(&self, (cache_hits, cache_misses): (usize, usize)) -> ModelStats {
        let latency = self.latency.snapshot();
        let errors_by_code: Vec<(ErrorCode, u64)> = ErrorCode::ALL
            .iter()
            .zip(&self.errors)
            .map(|(&code, counter)| (code, counter.get()))
            .filter(|&(_, count)| count > 0)
            .collect();
        ModelStats {
            requests: self.requests.get(),
            errors: errors_by_code.iter().map(|&(_, count)| count).sum(),
            errors_by_code,
            cache_hits: cache_hits as u64,
            cache_misses: cache_misses as u64,
            p50_ms: latency.value_at_quantile(0.5) as f64 / 1e3,
            p99_ms: latency.value_at_quantile(0.99) as f64 / 1e3,
            shed_requests: self.shed.get(),
            in_flight: self.in_flight.get(),
            queue_depth_hwm: self.queue_hwm.get(),
            samples: latency.count(),
        }
    }
}

/// Transport counters: the server's accept loop and connection handlers
/// write them, and `Stats` reads them back as [`crate::GatewayStats`]. A
/// router no server fronts reports them at zero.
#[derive(Debug)]
pub(crate) struct ConnectionMetrics {
    pub(crate) accepted: Counter,
    pub(crate) active: Gauge,
    pub(crate) shed: Counter,
    pub(crate) stalled: Counter,
}

/// Replication counters, handles into a router's registry: the replica
/// agent updates them after every anti-entropy round and the router serves
/// them on `Stats` as [`ReplicaStats`]. Obtained from
/// [`crate::Router::attach_replica`], which also arms the `Stats` replica
/// section.
#[derive(Debug, Clone)]
pub struct ReplicaState {
    peers: Gauge,
    syncs: Counter,
    bytes_shipped: Counter,
    max_lag: Gauge,
}

impl ReplicaState {
    /// Records the replica group's peer count (excluding the local member).
    pub fn set_peers(&self, peers: usize) {
        self.peers.set(peers as u64);
    }

    /// Records one pulled-and-applied container of `bytes` bytes.
    pub fn record_sync(&self, bytes: u64) {
        self.syncs.inc();
        self.bytes_shipped.add(bytes);
    }

    /// Records the largest version gap behind any peer observed by the most
    /// recent anti-entropy round (0 when fully converged).
    pub fn set_lag(&self, lag: u64) {
        self.max_lag.set(lag);
    }

    /// The counters as [`ReplicaStats`] around the catalog's `versions`.
    pub(crate) fn stats(&self, versions: Vec<KeyVersions>) -> ReplicaStats {
        ReplicaStats {
            peers: self.peers.get() as usize,
            syncs: self.syncs.get(),
            bytes_shipped: self.bytes_shipped.get(),
            max_lag: self.max_lag.get(),
            versions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_families_render() {
        let registry = MetricsRegistry::new();
        let metrics = GatewayMetrics::register(&registry);
        let again = GatewayMetrics::register(&registry);
        again.connections.accepted.inc();
        assert_eq!(metrics.connections.accepted.get(), 1);
        let text = registry.render();
        for family in [
            "dssddi_serving_requests_total",
            "dssddi_serving_stage_micros",
            "dssddi_admission_shed_total",
            "dssddi_kb_severity_total",
            "dssddi_replica_syncs_total",
            "dssddi_gateway_connections_total",
        ] {
            assert!(text.contains(family), "missing family {family}: {text}");
        }
        // All four severity grades render even before any finding fired.
        for grade in Severity::ALL {
            assert!(text.contains(&format!("grade=\"{}\"", grade.name())));
        }
    }
}
