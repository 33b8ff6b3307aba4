//! Per-request tracing: trace IDs, stage spans, and slow-request exemplars.
//!
//! Every data-plane request gets a u64 **trace ID** — generated at the
//! client edge and carried in the DSWR frame's trace extension, or minted
//! at the gateway when the client did not send one. As the request moves
//! through the serving pipeline, a [`SpanRecorder`] accumulates wall time
//! per [`Stage`] (decode → admit → queue → infer → encode). The finished
//! breakdown is offered to a [`TraceRing`], which keeps the top-K slowest
//! requests as [`TraceExemplar`]s; the `TraceDump` wire message exposes
//! the ring so operators can ask a live gateway "where did my slow
//! requests spend their time?" without attaching a profiler.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of serving pipeline stages a trace is broken into.
pub const STAGE_COUNT: usize = 5;

/// One stage of the serving pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Opening a received wire frame (checksum, trace extension) and
    /// decoding its body on the gateway.
    Decode,
    /// Admission decision (shed / pass / enqueue).
    Admit,
    /// Time spent waiting in the admission queue.
    Queue,
    /// Routing plus model/KB inference.
    Infer,
    /// Response encoding back into a wire frame.
    Encode,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Decode,
        Stage::Admit,
        Stage::Queue,
        Stage::Infer,
        Stage::Encode,
    ];

    /// Stable lower-case name (used as a metric label value).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Admit => "admit",
            Stage::Queue => "queue",
            Stage::Infer => "infer",
            Stage::Encode => "encode",
        }
    }

    /// Position in [`Stage::ALL`] (and in a stage-micros array).
    pub fn index(self) -> usize {
        match self {
            Stage::Decode => 0,
            Stage::Admit => 1,
            Stage::Queue => 2,
            Stage::Infer => 3,
            Stage::Encode => 4,
        }
    }
}

/// Mints a fresh, process-unique trace ID (never zero).
///
/// The process ID seeds the generator so two replicas minting IDs at the
/// same rate do not collide; the result is mixed through SplitMix64 so
/// IDs look random rather than sequential.
pub fn next_trace_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let raw = (u64::from(std::process::id()) << 32) ^ n;
    let mixed = splitmix64(raw);
    if mixed == 0 {
        1
    } else {
        mixed
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Accumulates per-stage wall time for one in-flight request.
#[derive(Debug, Clone)]
pub struct SpanRecorder {
    trace_id: u64,
    stages: [u64; STAGE_COUNT],
}

impl SpanRecorder {
    /// A recorder for the given trace ID with all stages at zero.
    pub fn new(trace_id: u64) -> Self {
        Self {
            trace_id,
            stages: [0; STAGE_COUNT],
        }
    }

    /// The request's trace ID.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Adds `micros` to `stage` (stages may be recorded in pieces).
    pub fn record(&mut self, stage: Stage, micros: u64) {
        if let Some(slot) = self.stages.get_mut(stage.index()) {
            *slot = slot.saturating_add(micros);
        }
    }

    /// The per-stage breakdown, indexed by [`Stage::index`].
    pub fn stages(&self) -> &[u64; STAGE_COUNT] {
        &self.stages
    }

    /// The accumulated time of one stage.
    pub fn stage_micros(&self, stage: Stage) -> u64 {
        self.stages.get(stage.index()).copied().unwrap_or(0)
    }

    /// Sum of all recorded stage times.
    pub fn total_micros(&self) -> u64 {
        self.stages.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Freezes the recorder into an exemplar for the ring.
    pub fn into_exemplar(self, model: String, op: String, total_micros: u64) -> TraceExemplar {
        TraceExemplar {
            trace_id: self.trace_id,
            model,
            op,
            total_micros,
            stage_micros: self.stages,
        }
    }
}

/// The frozen stage breakdown of one completed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceExemplar {
    /// The request's trace ID (client-supplied or gateway-minted).
    pub trace_id: u64,
    /// Model key the request was routed to (empty for control-plane ops).
    pub model: String,
    /// Operation name (`suggest`, `check`, ...).
    pub op: String,
    /// End-to-end serving latency as recorded by the gateway.
    pub total_micros: u64,
    /// Wall micros per stage, indexed by [`Stage::index`].
    pub stage_micros: [u64; STAGE_COUNT],
}

/// Fixed-capacity ring of the slowest requests seen so far (top-K by
/// [`TraceExemplar::total_micros`]).
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<TraceExemplar>,
    capacity: usize,
}

impl TraceRing {
    /// An empty ring keeping at most `capacity` exemplars.
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Offers an exemplar: kept while the ring has room, otherwise it
    /// replaces the current fastest entry if this one is slower.
    pub fn offer(&mut self, exemplar: TraceExemplar) {
        if self.capacity == 0 {
            return;
        }
        if self.slots.len() < self.capacity {
            self.slots.push(exemplar);
            return;
        }
        if let Some(fastest) = self.slots.iter_mut().min_by_key(|e| e.total_micros) {
            if exemplar.total_micros > fastest.total_micros {
                *fastest = exemplar;
            }
        }
    }

    /// Number of exemplars currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no exemplar has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slowest `limit` exemplars, slowest first (`limit == 0` means
    /// all).
    pub fn snapshot(&self, limit: usize) -> Vec<TraceExemplar> {
        let mut out = self.slots.clone();
        out.sort_by_key(|e| std::cmp::Reverse(e.total_micros));
        if limit > 0 {
            out.truncate(limit);
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    fn exemplar(id: u64, total: u64) -> TraceExemplar {
        TraceExemplar {
            trace_id: id,
            model: "m".to_string(),
            op: "suggest".to_string(),
            total_micros: total,
            stage_micros: [0; STAGE_COUNT],
        }
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_trace_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "trace IDs must not repeat");
        }
    }

    #[test]
    fn span_recorder_accumulates_per_stage() {
        let mut span = SpanRecorder::new(42);
        span.record(Stage::Decode, 10);
        span.record(Stage::Infer, 100);
        span.record(Stage::Infer, 50);
        assert_eq!(span.trace_id(), 42);
        assert_eq!(span.stages()[Stage::Infer.index()], 150);
        assert_eq!(span.total_micros(), 160);
        let ex = span.into_exemplar("m".into(), "suggest".into(), 170);
        assert_eq!(ex.total_micros, 170);
        assert_eq!(ex.stage_micros[0], 10);
    }

    #[test]
    fn ring_keeps_the_slowest_k() {
        let mut ring = TraceRing::new(3);
        for (id, total) in [(1, 10), (2, 50), (3, 30), (4, 40), (5, 5), (6, 60)] {
            ring.offer(exemplar(id, total));
        }
        let snap = ring.snapshot(0);
        let totals: Vec<u64> = snap.iter().map(|e| e.total_micros).collect();
        assert_eq!(totals, vec![60, 50, 40], "top-3 by latency, slowest first");
        let top1 = ring.snapshot(1);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1.first().map(|e| e.trace_id), Some(6));
    }

    #[test]
    fn stage_table_is_consistent() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        let names: std::collections::HashSet<&str> =
            Stage::ALL.iter().map(|s| s.as_str()).collect();
        assert_eq!(names.len(), STAGE_COUNT, "stage names are distinct");
    }
}
