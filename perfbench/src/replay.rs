//! The traced in-process replay and the spans it records.
//!
//! Each frame of the traced phase goes through the public entry points in
//! pipeline order — `encode_request`, `open_wire_frame` + `decode_request`,
//! `Router::serve`, `encode_response`, `open_wire_frame` +
//! `decode_response` — one span each. The routed call's children are timed
//! on the same inputs right after it: the `DecisionService` entry point on
//! a twin service that has seen the same frames (so its explanation cache
//! is in the state the router's was in), then `predict_scores`, the
//! knowledge-base lookups, and `ExplanationIndex::explain` with the graph
//! kernels below it, the latter only for cache lookups that missed. A
//! span's self time is its duration minus its direct children's.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

use dssddi_core::{
    CheckPrescriptionRequest, DecisionService, ExplanationCache, ExplanationIndex, KnowledgeBase,
    SuggestRequest,
};
use dssddi_graph::{
    closest_truss_community_with, steiner_tree, truss_decomposition, TrussDecomposition, UnGraph,
};
use dssddi_serving::wire::{
    decode_request, decode_response, encode_request, encode_response, open_wire_frame,
};
use dssddi_serving::{ModelCatalog, ModelKey, Request, Response, Router};
use dssddi_tensor::Matrix;

use crate::fixture::{Fixtures, FITTED_KEY, SUPPORT_KEY};
use crate::traffic::{Frame, Planned};

/// Request id of the spans of the replayed gateway set-up.
const SETUP_REQUEST: u64 = 0;

/// One timed call.
pub struct Span {
    pub parent: Option<usize>,
    pub request: u64,
    pub name: String,
    pub start: Duration,
    pub end: Duration,
}

/// Spans in recording order; a span's id is its index.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span whose times were taken elsewhere; returns its id.
    pub fn push(
        &mut self,
        name: String,
        parent: Option<usize>,
        request: u64,
        start: Duration,
        end: Duration,
    ) -> usize {
        self.spans.push(Span {
            parent,
            request,
            name,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span; returns its result and the span's id.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.origin.elapsed();
        let out = black_box(f());
        let end = self.origin.elapsed();
        (
            out,
            self.push(name.to_string(), parent, request, start, end),
        )
    }

    /// Durations and self times in microseconds, per span name.
    pub fn by_name(&self) -> HashMap<&str, Timings> {
        let micros = |s: &Span| (s.end - s.start).as_secs_f64() * 1e6;
        let mut children = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(slot) = span.parent.and_then(|p| children.get_mut(p)) {
                *slot += micros(span);
            }
        }
        let mut by_name: HashMap<&str, Timings> = HashMap::new();
        for (span, children) in self.spans.iter().zip(children) {
            let timings = by_name.entry(span.name.as_str()).or_default();
            timings.durations.push(micros(span));
            timings.self_times.push(micros(span) - children);
        }
        by_name
    }

    /// The spans as tab-separated lines (times in nanoseconds from the
    /// start of the recorder that took them).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\trequest\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{id}\t{parent}\t{}\t{}\t{}\t{}\n",
                s.request,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            ));
        }
        out
    }
}

/// Span durations and self times of one span name, microseconds.
#[derive(Default)]
pub struct Timings {
    pub durations: Vec<f64>,
    pub self_times: Vec<f64>,
}

/// The in-process pipeline the traced frames are replayed through.
pub struct Replay<'f> {
    fixtures: &'f Fixtures,
    router: Router,
    /// Mirrors the routed shard's service: same container, same frames.
    twin: DecisionService,
    twin_kb: KnowledgeBase,
    index: ExplanationIndex,
    structural: UnGraph,
    decomposition: TrussDecomposition,
    /// Drug sets the twin's explanation cache has been asked for since its
    /// last (re)load: a first-seen set is where a counted miss happened.
    seen: HashSet<Vec<usize>>,
    pub spans: Spans,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub community_nodes: Vec<f64>,
    pub response_bytes: Vec<f64>,
}

impl<'f> Replay<'f> {
    /// A router over the same catalog the gateway loads, plus the twin of
    /// the shard `shard`.
    pub fn new(fixtures: &'f Fixtures, shard: &ModelKey) -> Result<Self, String> {
        let mut catalog = ModelCatalog::new();
        for (key, service) in [
            (FITTED_KEY, fixtures.fitted_service()?),
            (SUPPORT_KEY, fixtures.support_service()?),
        ] {
            let key = ModelKey::new(key).map_err(|e| e.to_string())?;
            catalog
                .insert_with_kb(key, service, fixtures.knowledge_base()?)
                .map_err(|e| e.to_string())?;
        }
        let twin = if shard.as_str() == FITTED_KEY {
            fixtures.fitted_service()?
        } else {
            fixtures.support_service()?
        };
        let structural = twin.ddi_graph().structural_graph();
        Ok(Self {
            fixtures,
            router: Router::new(catalog),
            index: ExplanationIndex::build(twin.ddi_graph()),
            decomposition: truss_decomposition(&structural),
            structural,
            twin,
            twin_kb: fixtures.knowledge_base()?,
            seen: HashSet::new(),
            spans: Spans::new(),
            cache_hits: 0,
            cache_misses: 0,
            community_nodes: Vec::new(),
            response_bytes: Vec::new(),
        })
    }

    /// Drops what was recorded so far (after replaying the warm-up).
    pub fn clear(&mut self) {
        self.spans = Spans::new();
        self.cache_hits = 0;
        self.cache_misses = 0;
        self.community_nodes.clear();
        self.response_bytes.clear();
    }

    /// Replays the gateway's set-up decoding `rounds` times: both model
    /// containers (index and truss build included) and the knowledge base.
    pub fn setup(&mut self, rounds: usize) -> Result<(), String> {
        let fixtures = self.fixtures;
        for _ in 0..rounds {
            for container in [&fixtures.fitted, &fixtures.support] {
                self.load_model(None, SETUP_REQUEST, container)?;
            }
            self.load_kb(None, SETUP_REQUEST)?;
        }
        Ok(())
    }

    /// Replays one frame routed to `shard`.
    pub fn frame(&mut self, shard: &ModelKey, planned: &Planned) -> Result<(), String> {
        let id = planned.id;
        let fixtures = self.fixtures;
        let request = match &planned.frame {
            Frame::Suggest(request) => Request::Suggest {
                model: shard.clone(),
                request: request.clone(),
            },
            Frame::SuggestBatch(requests) => Request::SuggestBatch {
                model: shard.clone(),
                requests: requests.clone(),
            },
            Frame::Check(request) => Request::CheckPrescription {
                model: shard.clone(),
                request: request.clone(),
            },
            Frame::ReloadModel => Request::ReloadModel {
                model: shard.clone(),
                container: fixtures.fitted.clone(),
            },
            Frame::ReloadKb => Request::ReloadKb {
                model: shard.clone(),
                container: fixtures.kb.clone(),
            },
        };
        let (bytes, _) = self
            .spans
            .time("wire.encode_request", None, id, || encode_request(&request));
        let (decoded, _) = self.spans.time("wire.decode_request", None, id, || {
            let payload = open_wire_frame(&bytes).map_err(|e| e.to_string())?;
            decode_request(payload).map_err(|e| e.to_string())
        });
        let decoded = decoded?;
        let router = &self.router;
        let (response, serve) = self
            .spans
            .time("router.serve", None, id, || router.serve(&decoded));
        if let Response::Error { code, message } = &response {
            return Err(format!(
                "replayed {} failed ({code}): {message}",
                planned.frame.op()
            ));
        }
        match &planned.frame {
            Frame::Suggest(request) => {
                self.suggest("service.suggest", serve, id, std::slice::from_ref(request))?
            }
            Frame::SuggestBatch(requests) => {
                self.suggest("service.suggest_batch", serve, id, requests)?
            }
            Frame::Check(request) => self.check(serve, id, request)?,
            Frame::ReloadModel => {
                self.twin = self.load_model(Some(serve), id, &fixtures.fitted)?;
                self.seen.clear();
            }
            Frame::ReloadKb => self.twin_kb = self.load_kb(Some(serve), id)?,
        }
        let (frame, _) = self.spans.time("wire.encode_response", None, id, || {
            encode_response(&response)
        });
        let (round_trip, _) = self.spans.time("wire.decode_response", None, id, || {
            let payload = open_wire_frame(&frame).map_err(|e| e.to_string())?;
            decode_response(payload).map_err(|e| e.to_string())
        });
        if round_trip? != response {
            return Err(format!(
                "{} response changed in a wire round trip",
                planned.frame.op()
            ));
        }
        self.response_bytes.push(frame.len() as f64);
        Ok(())
    }

    fn suggest(
        &mut self,
        name: &str,
        parent: usize,
        id: u64,
        requests: &[SuggestRequest],
    ) -> Result<(), String> {
        let (twin, kb) = (&self.twin, &self.twin_kb);
        let (hits, misses) = twin.explanation_cache_stats();
        let (responses, service) = self.spans.time(name, Some(parent), id, || {
            twin.suggest_batch_with_kb(requests, Some(kb))
        });
        let responses = responses.map_err(|e| e.to_string())?;
        let (hits_after, misses_after) = twin.explanation_cache_stats();
        self.cache_hits += (hits_after - hits) as u64;
        self.cache_misses += (misses_after - misses) as u64;
        let width = requests.first().map_or(0, |r| r.features.len());
        let stacked: Vec<f32> = requests
            .iter()
            .flat_map(|r| r.features.iter().copied())
            .collect();
        let features =
            Matrix::from_vec(requests.len(), width, stacked).map_err(|e| e.to_string())?;
        let (scores, _) = self.spans.time("gnn.predict", Some(service), id, || {
            twin.predict_scores(&features)
        });
        scores.map_err(|e| e.to_string())?;
        let mut missed = misses_after - misses;
        for response in &responses {
            let drugs: Vec<usize> = response.drugs.iter().map(|d| d.id.index()).collect();
            let key = ExplanationCache::canonical_key(&drugs);
            if self.seen.insert(key.clone()) && missed > 0 {
                missed -= 1;
                self.explain(service, id, &key)?;
            }
        }
        Ok(())
    }

    fn check(
        &mut self,
        parent: usize,
        id: u64,
        request: &CheckPrescriptionRequest,
    ) -> Result<(), String> {
        let (twin, kb) = (&self.twin, &self.twin_kb);
        let (report, service) = self.spans.time("service.check", Some(parent), id, || {
            twin.check_prescription_with_kb(request, Some(kb))
        });
        report.map_err(|e| e.to_string())?;
        // The service deduplicates the prescription in first-seen order and
        // explains it in that order.
        let mut drugs: Vec<usize> = Vec::with_capacity(request.drugs.len());
        for d in &request.drugs {
            if !drugs.contains(&d.index()) {
                drugs.push(d.index());
            }
        }
        self.spans.time("kb.lookup", Some(service), id, || {
            for (i, &a) in drugs.iter().enumerate() {
                for &b in &drugs[i + 1..] {
                    black_box(kb.lookup(a, b));
                }
            }
        });
        self.explain(service, id, &drugs)
    }

    fn explain(&mut self, parent: usize, id: u64, drugs: &[usize]) -> Result<(), String> {
        let (twin, index) = (&self.twin, &self.index);
        let (structural, decomposition) = (&self.structural, &self.decomposition);
        let config = &twin.config().ms;
        let (explanation, explain) = self.spans.time("ms.explain", Some(parent), id, || {
            index.explain(twin.ddi_graph(), drugs, config)
        });
        explanation.map_err(|e| e.to_string())?;
        let (community, ctc) = self.spans.time("graph.ctc", Some(explain), id, || {
            closest_truss_community_with(structural, decomposition, drugs, &config.ctc)
        });
        let community = community.map_err(|e| e.to_string())?;
        self.community_nodes.push(community.node_count() as f64);
        let (tree, _) = self.spans.time("graph.steiner", Some(ctc), id, || {
            steiner_tree(structural, drugs, decomposition)
        });
        tree.map_err(|e| e.to_string())?;
        Ok(())
    }

    fn load_model(
        &mut self,
        parent: Option<usize>,
        id: u64,
        container: &[u8],
    ) -> Result<DecisionService, String> {
        let (service, load) = self.spans.time("persist.load_model", parent, id, || {
            DecisionService::load_with_embedded_registry_bytes(container)
        });
        let service = service.map_err(|e| e.to_string())?;
        let (_, build) = self.spans.time("ms.index_build", Some(load), id, || {
            ExplanationIndex::build(service.ddi_graph())
        });
        let structural = service.ddi_graph().structural_graph();
        self.spans.time("graph.truss", Some(build), id, || {
            truss_decomposition(&structural)
        });
        Ok(service)
    }

    fn load_kb(&mut self, parent: Option<usize>, id: u64) -> Result<KnowledgeBase, String> {
        let fixtures = self.fixtures;
        let (kb, _) = self.spans.time("kb.load", parent, id, || {
            KnowledgeBase::from_container_bytes(&fixtures.kb)
        });
        kb.map_err(|e| e.to_string())
    }
}
