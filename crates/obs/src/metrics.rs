//! The metrics registry.
//!
//! A [`MetricsRegistry`] maps metric names (plus an optional fixed label
//! set) to live instruments: monotonically increasing [`Counter`]s,
//! set-to-latest [`Gauge`]s, and log-bucketed [`HistogramHandle`]s.
//! Registration is idempotent — asking for the same `(name, labels)` pair
//! twice returns handles to the same underlying cell, so independent
//! subsystems can instrument the same family without coordination.
//!
//! Handles are cheap `Arc` clones over atomics; incrementing a counter on
//! the serving hot path is one relaxed `fetch_add`, with no lock. The
//! registry's internal map is only locked when registering or rendering.
//!
//! Names follow the convention `dssddi_<subsystem>_<name>`, with counters
//! suffixed `_total` (e.g. `dssddi_admission_shed_total`). [`render`]
//! produces Prometheus text exposition format; histograms are rendered as
//! `summary` families with `quantile` labels plus `_sum`/`_count`.
//!
//! [`render`]: MetricsRegistry::render

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::Histogram;

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge holding the latest observed value.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Replaces the value.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds one (for gauges tracking a live population) and returns the
    /// value before the increment, so a caller can admit against a bound.
    pub fn inc(&self) -> u64 {
        self.cell.fetch_add(1, Ordering::Relaxed)
    }

    /// Raises the value to `v` if it is lower (for high-water marks).
    pub fn raise_to(&self, v: u64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Subtracts one, saturating at zero.
    pub fn dec(&self) {
        // fetch_update never fails with a Some-returning closure.
        let _ = self
            .cell
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A handle to a registered log-bucketed histogram.
#[derive(Debug, Clone)]
pub struct HistogramHandle {
    cell: Arc<Mutex<Histogram>>,
}

impl HistogramHandle {
    /// Records one sample (microseconds, by convention).
    pub fn observe(&self, v: u64) {
        self.lock().record(v);
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> Histogram {
        self.lock().clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Histogram> {
        self.cell
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// One registered instrument.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Mutex<Histogram>>),
}

impl Instrument {
    fn type_name(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "summary",
        }
    }
}

/// Key in the registry map: family name plus the rendered label set, so
/// `BTreeMap` ordering groups every series of a family together.
type SeriesKey = (String, String);

#[derive(Default)]
struct Inner {
    series: BTreeMap<SeriesKey, Instrument>,
    help: BTreeMap<String, &'static str>,
}

/// A registry of named counters, gauges, and histograms. Each gateway owns
/// one, so several gateways in one process keep their counts apart.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("MetricsRegistry")
            .field("series", &inner.series.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &'static str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or finds) a counter with a fixed label set.
    pub fn counter_with(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Counter {
        let cell = self.register(name, help, labels, || {
            Instrument::Counter(Arc::new(AtomicU64::new(0)))
        });
        match cell {
            Instrument::Counter(cell) => Counter { cell },
            // The name is already registered as another type; hand back a
            // detached cell rather than panicking on the serving path.
            _ => Counter {
                cell: Arc::new(AtomicU64::new(0)),
            },
        }
    }

    /// Registers (or finds) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &'static str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or finds) a gauge with a fixed label set.
    pub fn gauge_with(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Gauge {
        let cell = self.register(name, help, labels, || {
            Instrument::Gauge(Arc::new(AtomicU64::new(0)))
        });
        match cell {
            Instrument::Gauge(cell) => Gauge { cell },
            _ => Gauge {
                cell: Arc::new(AtomicU64::new(0)),
            },
        }
    }

    /// Registers (or finds) an unlabelled histogram.
    pub fn histogram(&self, name: &str, help: &'static str) -> HistogramHandle {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or finds) a histogram with a fixed label set.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> HistogramHandle {
        let cell = self.register(name, help, labels, || {
            Instrument::Histogram(Arc::new(Mutex::new(Histogram::new())))
        });
        match cell {
            Instrument::Histogram(cell) => HistogramHandle { cell },
            _ => HistogramHandle {
                cell: Arc::new(Mutex::new(Histogram::new())),
            },
        }
    }

    fn register(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let key = (name.to_string(), render_labels(labels));
        let mut inner = self.lock();
        inner.help.entry(name.to_string()).or_insert(help);
        inner.series.entry(key).or_insert_with(make).clone()
    }

    /// Renders every registered series in Prometheus text exposition
    /// format: `# HELP`/`# TYPE` per family, one sample line per series,
    /// histograms as `summary` families with `quantile` labels plus
    /// `_sum` and `_count`.
    pub fn render(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        let mut last_family = "";
        for ((name, labels), instrument) in &inner.series {
            if name != last_family {
                let help = inner.help.get(name).copied().unwrap_or("");
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} {}", instrument.type_name());
            }
            match instrument {
                Instrument::Counter(cell) | Instrument::Gauge(cell) => {
                    let _ = writeln!(out, "{name}{labels} {}", cell.load(Ordering::Relaxed));
                }
                Instrument::Histogram(cell) => {
                    let h = cell
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .clone();
                    for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                        let with_q = merge_quantile(labels, label);
                        let _ = writeln!(out, "{name}{with_q} {}", h.value_at_quantile(q));
                    }
                    let _ = writeln!(out, "{name}_sum{labels} {}", h.sum());
                    let _ = writeln!(out, "{name}_count{labels} {}", h.count());
                }
            }
            last_family = name;
        }
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Renders a label set as `{k="v",...}` (empty string for no labels), with
/// label values escaped per the exposition format.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

/// Splices a `quantile="q"` label into an already-rendered label set.
fn merge_quantile(rendered: &str, q: &str) -> String {
    if rendered.is_empty() {
        format!("{{quantile=\"{q}\"}}")
    } else {
        // rendered is `{...}`; insert before the closing brace.
        let body = rendered
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .unwrap_or("");
        format!("{{{body},quantile=\"{q}\"}}")
    }
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("dssddi_test_total", "test counter");
        let b = reg.counter("dssddi_test_total", "test counter");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "both handles share one cell");
    }

    #[test]
    fn labelled_series_are_distinct() {
        let reg = MetricsRegistry::new();
        let a = reg.counter_with("dssddi_test_total", "t", &[("stage", "decode")]);
        let b = reg.counter_with("dssddi_test_total", "t", &[("stage", "encode")]);
        a.inc();
        assert_eq!(a.get(), 1);
        assert_eq!(b.get(), 0);
    }

    #[test]
    fn kind_mismatch_degrades_to_a_detached_cell() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("dssddi_test_total", "t");
        c.add(7);
        // Same name as a gauge: must not panic, must not corrupt.
        let g = reg.gauge("dssddi_test_total", "t");
        g.set(99);
        assert_eq!(c.get(), 7, "the registered counter is untouched");
    }

    #[test]
    fn gauge_inc_returns_the_prior_value_and_raise_to_keeps_the_max() {
        let g = MetricsRegistry::new().gauge("dssddi_g", "t");
        assert_eq!(g.inc(), 0);
        assert_eq!(g.inc(), 1);
        g.raise_to(7);
        g.raise_to(3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn render_emits_prometheus_text() {
        let reg = MetricsRegistry::new();
        reg.counter("dssddi_a_total", "a counter").add(5);
        reg.gauge("dssddi_b", "a gauge").set(2);
        let h = reg.histogram_with("dssddi_c_micros", "a histogram", &[("stage", "infer")]);
        h.observe(10);
        h.observe(20);
        let text = reg.render();
        assert!(text.contains("# HELP dssddi_a_total a counter"));
        assert!(text.contains("# TYPE dssddi_a_total counter"));
        assert!(text.contains("dssddi_a_total 5"));
        assert!(text.contains("# TYPE dssddi_b gauge"));
        assert!(text.contains("dssddi_b 2"));
        assert!(text.contains("# TYPE dssddi_c_micros summary"));
        assert!(text.contains("dssddi_c_micros{stage=\"infer\",quantile=\"0.5\"}"));
        assert!(text.contains("dssddi_c_micros_count{stage=\"infer\"} 2"));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
            value.parse::<f64>().expect("value parses as a number");
        }
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter_with("dssddi_e_total", "t", &[("model", "a\"b\\c")])
            .inc();
        let text = reg.render();
        assert!(text.contains("model=\"a\\\"b\\\\c\""));
    }
}
