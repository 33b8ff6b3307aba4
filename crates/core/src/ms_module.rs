//! The Medical Support module (Section IV-C): explanation subgraphs and the
//! Suggestion Satisfaction measure.
//!
//! Given the drugs suggested by the Medical Decision module, the MS module
//! finds the closest truss community containing them in the DDI graph
//! (Algorithm 1), classifies the interactions inside and around the
//! suggestion, and scores the suggestion with SS (Eq. 19): good suggestions
//! have many synergistic interactions among the suggested drugs and leave
//! the antagonistic interactions pointing at non-suggested drugs.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

use dssddi_graph::{
    closest_truss_community_with, truss_decomposition, Community, Interaction, SignedGraph,
    TrussDecomposition, UnGraph,
};

use crate::config::MsModuleConfig;
use crate::sync;
use crate::CoreError;

/// An interaction edge annotated with its sign, for display to the doctor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignedEdge {
    /// First drug ID.
    pub u: usize,
    /// Second drug ID.
    pub v: usize,
    /// Interaction sign.
    pub interaction: Interaction,
}

/// The explanation produced for a set of suggested drugs.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The suggested drugs the explanation is about.
    pub suggested: Vec<usize>,
    /// The closest truss community around the suggestion.
    pub community: Community,
    /// Interactions inside the community, with signs.
    pub edges: Vec<SignedEdge>,
    /// Synergistic interactions among the suggested drugs (`r^in_pos`).
    pub internal_synergy: usize,
    /// Antagonistic interactions among the suggested drugs (`r^in_neg`).
    pub internal_antagonism: usize,
    /// Antagonistic interactions between suggested and non-suggested
    /// community drugs (`r^out_neg`).
    pub external_antagonism: usize,
    /// The Suggestion Satisfaction score (Eq. 19).
    pub suggestion_satisfaction: f64,
}

impl Explanation {
    /// Synergistic edges among the suggested drugs, for display.
    pub fn synergy_pairs(&self) -> Vec<(usize, usize)> {
        self.edges
            .iter()
            .filter(|e| {
                e.interaction == Interaction::Synergistic
                    && self.suggested.contains(&e.u)
                    && self.suggested.contains(&e.v)
            })
            .map(|e| (e.u, e.v))
            .collect()
    }

    /// Antagonistic edges touching at least one suggested drug, for display.
    pub fn antagonism_pairs(&self) -> Vec<(usize, usize)> {
        self.edges
            .iter()
            .filter(|e| {
                e.interaction == Interaction::Antagonistic
                    && (self.suggested.contains(&e.u) || self.suggested.contains(&e.v))
            })
            .map(|e| (e.u, e.v))
            .collect()
    }
}

/// Computes Suggestion Satisfaction (Eq. 19) from the counted interactions.
///
/// * `k` — number of suggested drugs,
/// * `community_size` — number of drugs `n'` in the explanation subgraph,
/// * `internal_synergy` / `internal_antagonism` — interactions among the
///   suggested drugs,
/// * `external_antagonism` — antagonistic interactions between suggested and
///   non-suggested community drugs,
/// * `alpha` — balance between the two terms.
pub fn suggestion_satisfaction(
    k: usize,
    community_size: usize,
    internal_synergy: usize,
    internal_antagonism: usize,
    external_antagonism: usize,
    alpha: f64,
) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let k_f = k as f64;
    let first = 2.0 * (internal_synergy as f64 + 1.0)
        / ((internal_antagonism as f64 + 1.0) * (k_f * (k_f - 1.0) + 2.0));
    let outside = community_size.saturating_sub(k);
    let second = if outside == 0 {
        0.0
    } else {
        external_antagonism as f64 / (k_f * outside as f64)
    };
    alpha * first + (1.0 - alpha) * second
}

/// Default number of distinct drug sets an [`ExplanationCache`] retains.
///
/// The bound matters in practice: one 20-second `suggest` run of the
/// benchmark misses the memo 947 times in its two measured phases (seed 1),
/// each miss a set the memo did not hold, so a long-lived gateway fills it.
/// That is why its entries are packed (see [`ExplanationCache`]).
pub const DEFAULT_EXPLANATION_CACHE_CAPACITY: usize = 1024;

/// Words of a packed entry's header, before its community nodes.
const HEADER_WORDS: usize = 8;

/// Bit position of an edge's sign in the second word of the edge.
const SIGN_SHIFT: u32 = 30;

/// The bits of that word below the sign: the drug ID. Every ID a packed
/// entry holds stays within it.
const ID_MASK: u32 = (1 << SIGN_SHIFT) - 1;

/// Memoizes [`ExplanationIndex::explain`] results keyed by the canonical
/// (sorted, deduplicated) suggested drug set, evicting the
/// least-recently-used entry once a fixed capacity is reached.
///
/// Suggestion batches are highly repetitive: patients with the same chronic
/// profile receive the same top-k drugs, and the closest-truss-community
/// search is by far the most expensive part of serving a suggestion. An
/// explanation depends only on the DDI graph, the MS configuration and the
/// drug set, so the memo stays valid for as long as those do — across
/// batches, and across MD models (see [`ExplanationEngine`]) — while the
/// capacity bound keeps a long-lived memo's memory flat.
///
/// ## Packed entries
///
/// Each entry is one `Box<[u32]>`, 237 bytes on average over 2,000 seeded
/// sets of 1–5 drugs on the demo graph:
///
/// | words | content |
/// |---|---|
/// | 8 | header: trussness, diameter (`u32::MAX` standing for `usize::MAX`), `internal_synergy`, `internal_antagonism`, `external_antagonism`, the low and high words of the SS bits, and the community's node count `n` |
/// | `n` | the community nodes, ascending |
/// | 2 per edge | each signed edge, in order: `u`, then `v` with the sign in its top two bits |
///
/// A hit rebuilds the [`Explanation`]. Its `suggested` is the key, which it
/// already equals, because [`ExplanationIndex::explain`] returns the
/// canonical key of the drugs it explains as `suggested`. Its
/// `community.edges` are the signed edges' pairs. That rebuild is exact by
/// construction: [`SignedGraph::structural_graph`] keeps exactly the
/// graph's synergistic and antagonistic edges, and
/// [`ExplanationIndex::explain`] keeps every community edge, in order, each
/// with its sign. An explanation that breaks this, whose `suggested` is not
/// its key, or that holds an ID of 2^30 or more is not cached:
/// [`ExplanationCache::insert`] leaves the memo as it was.
#[derive(Debug)]
pub struct ExplanationCache {
    entries: HashMap<Box<[usize]>, PackedExplanation>,
    capacity: usize,
    clock: u64,
}

#[derive(Debug)]
struct PackedExplanation {
    words: Box<[u32]>,
    last_used: u64,
}

impl Default for ExplanationCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ExplanationCache {
    /// An empty cache bounded at [`DEFAULT_EXPLANATION_CACHE_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_EXPLANATION_CACHE_CAPACITY)
    }

    /// An empty cache retaining at most `capacity` distinct drug sets
    /// (clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            clock: 0,
        }
    }

    /// The canonical cache key of a suggested drug set: sorted, deduplicated
    /// indices (a prescription is a set; order must not fragment the memo).
    pub fn canonical_key(suggested: &[usize]) -> Vec<usize> {
        let mut key: Vec<usize> = suggested.to_vec();
        key.sort_unstable();
        key.dedup();
        key
    }

    /// The cached explanation under a canonical key
    /// ([`ExplanationCache::canonical_key`]), if present (refreshes the
    /// entry's recency). Separated from [`ExplanationCache::insert`] so
    /// concurrent serving threads can run the expensive community search
    /// *outside* the cache lock: lock → `lookup`, miss → search unlocked,
    /// lock → `insert`.
    pub fn lookup(&mut self, key: &[usize]) -> Option<Explanation> {
        self.clock += 1;
        let cached = self.entries.get_mut(key)?;
        cached.last_used = self.clock;
        unpack(key, &cached.words)
    }

    /// Records a freshly computed explanation under its canonical key,
    /// evicting the least-recently-used entry when at capacity. An
    /// explanation the packed layout cannot hold exactly (see
    /// [`ExplanationCache`]) is not recorded. If two threads raced on the
    /// same key, the later insert harmlessly overwrites the earlier with an
    /// identical explanation (community search is deterministic for a fixed
    /// graph and key).
    pub fn insert(&mut self, key: &[usize], explanation: &Explanation) {
        self.clock += 1;
        let Some(words) = pack(key, explanation) else {
            return;
        };
        if !self.entries.contains_key(key) && self.entries.len() >= self.capacity {
            // O(len) scan for the least-recently-used entry. It runs only on
            // a miss into a full memo; a linked recency list would cost
            // bookkeeping on every hit instead.
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&lru);
            }
        }
        self.entries.insert(
            key.into(),
            PackedExplanation {
                words,
                last_used: self.clock,
            },
        );
    }

    /// Number of drug sets currently cached (never exceeds the capacity).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of drug sets the cache retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// The top two bits of an edge's second word.
fn sign_bits(interaction: Interaction) -> u32 {
    match interaction {
        Interaction::Synergistic => 0,
        Interaction::Antagonistic => 1,
        Interaction::None => 2,
    }
}

/// Packs `explanation` into the layout documented on [`ExplanationCache`],
/// or `None` when the layout cannot hold it exactly.
fn pack(key: &[usize], explanation: &Explanation) -> Option<Box<[u32]>> {
    let Explanation {
        suggested,
        community,
        edges,
        ..
    } = explanation;
    if suggested.as_slice() != key
        || !key.is_sorted_by(|a, b| a < b)
        || community.edges.len() != edges.len()
    {
        return None;
    }
    let word = |value: usize| u32::try_from(value).ok();
    let id = |drug: usize| word(drug).filter(|&d| d <= ID_MASK);
    let diameter = match community.diameter {
        usize::MAX => Some(u32::MAX),
        d => word(d).filter(|&d| d != u32::MAX),
    };
    let ss = explanation.suggestion_satisfaction.to_bits();
    let mut words = Vec::with_capacity(HEADER_WORDS + community.nodes.len() + 2 * edges.len());
    words.extend([
        word(community.trussness)?,
        diameter?,
        word(explanation.internal_synergy)?,
        word(explanation.internal_antagonism)?,
        word(explanation.external_antagonism)?,
        ss as u32,
        (ss >> 32) as u32,
        word(community.nodes.len())?,
    ]);
    for &node in &community.nodes {
        words.push(id(node)?);
    }
    for (edge, &pair) in edges.iter().zip(&community.edges) {
        if (edge.u, edge.v) != pair {
            return None;
        }
        words.push(id(edge.u)?);
        words.push(id(edge.v)? | sign_bits(edge.interaction) << SIGN_SHIFT);
    }
    Some(words.into_boxed_slice())
}

/// Rebuilds the explanation [`pack`] stored under `key`.
fn unpack(key: &[usize], words: &[u32]) -> Option<Explanation> {
    let (header, rest) = words.split_first_chunk::<HEADER_WORDS>()?;
    let &[trussness, diameter, synergy, antagonism, external, ss_low, ss_high, n] = header;
    let (nodes, edge_words) = rest.split_at_checked(n as usize)?;
    let pairs = edge_words.chunks_exact(2);
    if !pairs.remainder().is_empty() {
        return None;
    }
    let mut community_edges = Vec::with_capacity(pairs.len());
    let mut edges = Vec::with_capacity(pairs.len());
    for pair in pairs {
        let &[u, signed_v] = pair else {
            return None;
        };
        let interaction = match signed_v >> SIGN_SHIFT {
            0 => Interaction::Synergistic,
            1 => Interaction::Antagonistic,
            2 => Interaction::None,
            _ => return None,
        };
        let (u, v) = (u as usize, (signed_v & ID_MASK) as usize);
        community_edges.push((u, v));
        edges.push(SignedEdge { u, v, interaction });
    }
    Some(Explanation {
        suggested: key.to_vec(),
        community: Community {
            nodes: nodes.iter().map(|&node| node as usize).collect(),
            edges: community_edges,
            trussness: trussness as usize,
            diameter: match diameter {
                u32::MAX => usize::MAX,
                d => d as usize,
            },
        },
        edges,
        internal_synergy: synergy as usize,
        internal_antagonism: antagonism as usize,
        external_antagonism: external as usize,
        suggestion_satisfaction: f64::from_bits(u64::from(ss_high) << 32 | u64::from(ss_low)),
    })
}

/// Precomputed structural view of an immutable DDI graph: the unsigned
/// structural graph plus its full truss decomposition (line 1 of
/// Algorithm 1). A serving layer builds the index once per fitted graph and
/// amortises both over every explanation it serves. The decomposition also
/// memoises the shortest-path tree of each drug a search starts from, so
/// the index grows by up to 16 bytes per ordered drug pair as new drugs are
/// explained (118 KB for 86 drugs).
#[derive(Debug, Clone)]
pub struct ExplanationIndex {
    structural: UnGraph,
    decomposition: TrussDecomposition,
}

impl ExplanationIndex {
    /// Builds the index for a DDI graph (one structural projection + one
    /// truss decomposition).
    pub fn build(ddi: &SignedGraph) -> Self {
        let structural = ddi.structural_graph();
        let decomposition = truss_decomposition(&structural);
        Self {
            structural,
            decomposition,
        }
    }

    /// Builds the explanation for a set of suggested drugs: finds the
    /// closest truss community around them in the DDI graph, annotates its
    /// edges with interaction signs, and computes Suggestion Satisfaction.
    /// `ddi` must be the graph the index was built from.
    ///
    /// The explanation is of the set: any order or repeats of the same
    /// drugs give the same explanation, whose `suggested` is the
    /// [canonical key](ExplanationCache::canonical_key). An empty set or a
    /// drug outside the graph is the graph search's typed error.
    pub fn explain(
        &self,
        ddi: &SignedGraph,
        suggested: &[usize],
        config: &MsModuleConfig,
    ) -> Result<Explanation, CoreError> {
        let suggested = ExplanationCache::canonical_key(suggested);
        let community = closest_truss_community_with(
            &self.structural,
            &self.decomposition,
            &suggested,
            &config.ctc,
        )?;

        let edges: Vec<SignedEdge> = community
            .edges
            .iter()
            .filter_map(|&(u, v)| {
                ddi.interaction(u, v)
                    .map(|interaction| SignedEdge { u, v, interaction })
            })
            .collect();

        let is_suggested = |d: usize| suggested.binary_search(&d).is_ok();
        let mut internal_synergy = 0usize;
        let mut internal_antagonism = 0usize;
        let mut external_antagonism = 0usize;
        for e in &edges {
            match (e.interaction, is_suggested(e.u), is_suggested(e.v)) {
                (Interaction::Synergistic, true, true) => internal_synergy += 1,
                (Interaction::Antagonistic, true, true) => internal_antagonism += 1,
                (Interaction::Antagonistic, true, false)
                | (Interaction::Antagonistic, false, true) => external_antagonism += 1,
                _ => {}
            }
        }
        let ss = suggestion_satisfaction(
            suggested.len(),
            community.node_count(),
            internal_synergy,
            internal_antagonism,
            external_antagonism,
            config.alpha,
        );
        Ok(Explanation {
            suggested,
            community,
            edges,
            internal_synergy,
            internal_antagonism,
            external_antagonism,
            suggestion_satisfaction: ss,
        })
    }
}

/// The Medical Support module as a service serves it: one DDI graph, one MS
/// configuration, the [`ExplanationIndex`] built from the graph, and the
/// explanation memo.
///
/// An explanation depends on nothing else (Section IV-C): not on the MD
/// model that ranked the drugs. So services over an equal graph and MS
/// configuration share one engine behind an `Arc`
/// ([`ExplanationEngine::explains_like`] decides), and a retrained model
/// swapped in over an unchanged graph keeps the memo warm. The index is
/// built by the engine's first explanation, so an engine that a reload
/// creates and then drops for a shared one never builds it.
#[derive(Debug)]
pub struct ExplanationEngine {
    graph: SignedGraph,
    config: MsModuleConfig,
    /// Built on first use, never while the memo lock is held.
    index: OnceLock<ExplanationIndex>,
    /// Suggested sets already explained. A leaf lock, held for one lookup
    /// or one insert and never during a community search, so cold
    /// explanations overlap across the threads that share the engine.
    memo: Mutex<ExplanationCache>,
}

impl ExplanationEngine {
    /// Creates the engine for a DDI graph and MS configuration, with an
    /// empty memo of [`DEFAULT_EXPLANATION_CACHE_CAPACITY`] sets. The index
    /// (one structural projection and one truss decomposition) waits for
    /// the first explanation.
    pub fn new(graph: SignedGraph, config: MsModuleConfig) -> Self {
        Self {
            graph,
            config,
            index: OnceLock::new(),
            memo: Mutex::new(ExplanationCache::new()),
        }
    }

    /// The signed DDI graph the engine explains over.
    pub fn graph(&self) -> &SignedGraph {
        &self.graph
    }

    /// True when `other` explains every drug set exactly as this engine
    /// does: it is this engine, or it holds an equal DDI graph and an equal
    /// MS configuration. The one test of whether two services may share an
    /// engine.
    pub fn explains_like(&self, other: &ExplanationEngine) -> bool {
        std::ptr::eq(self, other) || (self.config == other.config && self.graph == other.graph)
    }

    /// Explains a drug set without the memo — what a prescription critique
    /// runs.
    pub fn explain(&self, drugs: &[usize]) -> Result<Explanation, CoreError> {
        self.index().explain(&self.graph, drugs, &self.config)
    }

    /// Explains a suggested drug set through the memo, and says whether the
    /// memo answered (`true`) or a community search ran (`false`). The
    /// answer equals [`ExplanationEngine::explain`]'s either way.
    pub fn explain_memoized(&self, suggested: &[usize]) -> Result<(Explanation, bool), CoreError> {
        let key = ExplanationCache::canonical_key(suggested);
        // Bound to a variable so the guard drops before the search.
        let cached = self.lock_memo().lookup(&key);
        if let Some(hit) = cached {
            return Ok((hit, true));
        }
        // Two threads may race on the same set and search it twice; the
        // search is deterministic, so either insert wins harmlessly.
        let computed = self.index().explain(&self.graph, suggested, &self.config)?;
        self.lock_memo().insert(&key, &computed);
        Ok((computed, false))
    }

    /// The explanation index, built by the first call. Concurrent first
    /// calls wait for one build.
    fn index(&self) -> &ExplanationIndex {
        self.index
            .get_or_init(|| ExplanationIndex::build(&self.graph))
    }

    /// Number of drug sets the memo holds.
    pub fn memo_len(&self) -> usize {
        self.lock_memo().len()
    }

    /// Locks the memo. It holds only memoized results, so whatever a
    /// panicking thread left is still a valid memo.
    fn lock_memo(&self) -> sync::Guard<MutexGuard<'_, ExplanationCache>> {
        sync::lock(&self.memo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One explanation through a freshly built index.
    fn explain(
        g: &SignedGraph,
        drugs: &[usize],
        cfg: &MsModuleConfig,
    ) -> Result<Explanation, CoreError> {
        ExplanationIndex::build(g).explain(g, drugs, cfg)
    }

    /// `lookup`, and on a miss a search and an `insert` under the
    /// canonical key — the memo protocol the engine runs around its memo
    /// lock. Says whether the lookup hit.
    fn cached(cache: &mut ExplanationCache, g: &SignedGraph, drugs: &[usize]) -> bool {
        let key = ExplanationCache::canonical_key(drugs);
        if cache.lookup(&key).is_some() {
            return true;
        }
        let explanation = explain(g, drugs, &MsModuleConfig::default()).unwrap();
        cache.insert(&key, &explanation);
        false
    }

    /// A DDI graph with a synergistic triangle {0,1,2}, antagonism from the
    /// triangle to {3,4}, and an unrelated antagonistic pair {5,6}.
    fn ddi() -> SignedGraph {
        let mut g = SignedGraph::new(8);
        for (u, v) in [(0, 1), (1, 2), (0, 2)] {
            g.add_interaction(u, v, Interaction::Synergistic).unwrap();
        }
        for (u, v) in [(0, 3), (1, 3), (2, 4), (3, 4), (5, 6)] {
            g.add_interaction(u, v, Interaction::Antagonistic).unwrap();
        }
        g
    }

    #[test]
    fn ss_formula_matches_hand_computation() {
        // k = 2, n' = 4, rin_pos = 1, rin_neg = 0, rout_neg = 3, α = 0.5.
        let ss = suggestion_satisfaction(2, 4, 1, 0, 3, 0.5);
        let expected = 0.5 * (2.0 * 2.0 / (1.0 * 4.0)) + 0.5 * (3.0 / (2.0 * 2.0));
        assert!((ss - expected).abs() < 1e-12);
    }

    #[test]
    fn ss_rewards_synergy_and_penalises_internal_antagonism() {
        let good = suggestion_satisfaction(3, 6, 3, 0, 2, 0.5);
        let bad = suggestion_satisfaction(3, 6, 0, 3, 2, 0.5);
        assert!(good > bad);
    }

    #[test]
    fn ss_edge_cases() {
        assert_eq!(suggestion_satisfaction(0, 5, 1, 1, 1, 0.5), 0.0);
        // Community equal to the suggestion: the external term vanishes.
        let ss = suggestion_satisfaction(2, 2, 1, 0, 0, 0.5);
        assert!(ss > 0.0);
        // k = 1 suggestion is still scored.
        let single = suggestion_satisfaction(1, 3, 0, 0, 2, 0.5);
        assert!(single > 0.0);
    }

    #[test]
    fn explanation_counts_interactions_correctly() {
        let g = ddi();
        let exp = explain(&g, &[0, 1, 2], &MsModuleConfig::default()).unwrap();
        assert_eq!(exp.internal_synergy, 3);
        assert_eq!(exp.internal_antagonism, 0);
        // External antagonism is only counted when the community search pulls
        // non-suggested drugs into the explanation subgraph.
        if exp.community.contains(3) || exp.community.contains(4) {
            assert!(exp.external_antagonism >= 1);
        } else {
            assert_eq!(exp.external_antagonism, 0);
        }
        assert!(exp.suggestion_satisfaction > 0.0);
        assert!(
            exp.community.contains(0) && exp.community.contains(1) && exp.community.contains(2)
        );
        // The unrelated pair {5,6} must not be pulled into the explanation.
        assert!(!exp.community.contains(5) && !exp.community.contains(6));
        assert_eq!(exp.synergy_pairs().len(), 3);
    }

    #[test]
    fn antagonistic_suggestion_scores_lower_than_synergistic_one() {
        let g = ddi();
        let cfg = MsModuleConfig::default();
        let synergistic = explain(&g, &[0, 1], &cfg).unwrap();
        let antagonistic = explain(&g, &[3, 4], &cfg).unwrap();
        assert!(
            synergistic.suggestion_satisfaction > antagonistic.suggestion_satisfaction,
            "SS must prefer the synergistic suggestion ({} vs {})",
            synergistic.suggestion_satisfaction,
            antagonistic.suggestion_satisfaction
        );
    }

    #[test]
    fn invalid_suggestions_error() {
        let g = ddi();
        let cfg = MsModuleConfig::default();
        assert!(explain(&g, &[], &cfg).is_err());
        assert!(explain(&g, &[99], &cfg).is_err());
    }

    #[test]
    fn explanation_cache_deduplicates_equivalent_suggestions() {
        let g = ddi();
        let cfg = MsModuleConfig::default();
        let engine = ExplanationEngine::new(g.clone(), cfg.clone());
        let (a, hit) = engine.explain_memoized(&[0, 1, 2]).unwrap();
        assert!(!hit);
        // Same set in a different order, and with a duplicate: both hits.
        let (b, b_hit) = engine.explain_memoized(&[2, 0, 1]).unwrap();
        let (c, c_hit) = engine.explain_memoized(&[1, 0, 2, 2]).unwrap();
        assert!(b_hit && c_hit);
        assert_eq!(engine.memo_len(), 1);
        assert_eq!((&a, &a), (&b, &c));
        // A genuinely different set misses.
        assert!(!engine.explain_memoized(&[3, 4]).unwrap().1);
        assert_eq!(engine.memo_len(), 2);
        // Cached results agree with the uncached path.
        assert_eq!(a, explain(&g, &[0, 1, 2], &cfg).unwrap());
    }

    #[test]
    fn explanation_cache_is_size_bounded_with_lru_eviction() {
        let g = ddi();
        let mut cache = ExplanationCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        assert!(!cached(&mut cache, &g, &[0, 1]));
        assert!(!cached(&mut cache, &g, &[3, 4]));
        assert_eq!(cache.len(), 2);
        // Touch {0,1} so {3,4} becomes the least recently used entry...
        assert!(cached(&mut cache, &g, &[0, 1]));
        // ...then insert a third set: the cache must stay at capacity.
        assert!(!cached(&mut cache, &g, &[5, 6]));
        assert_eq!(cache.len(), 2);
        // {0,1} survived the eviction, {3,4} did not.
        assert!(cache.lookup(&[0, 1]).is_some());
        assert!(
            cache.lookup(&[3, 4]).is_none(),
            "evicted set must be recomputed"
        );
        assert!(cache.lookup(&[5, 6]).is_some());
        // A zero capacity is clamped so the cache still functions.
        assert_eq!(ExplanationCache::with_capacity(0).capacity(), 1);
    }

    #[test]
    fn isolated_suggested_drug_is_still_explained() {
        let g = ddi();
        let exp = explain(&g, &[7], &MsModuleConfig::default()).unwrap();
        assert!(exp.community.contains(7));
        assert_eq!(exp.internal_synergy, 0);
        assert_eq!(exp.edges.len(), 0);
    }

    /// `count` seeded drug sets of 1–5 drugs over `n` nodes, each in a
    /// shuffled order with its first drug repeated one time in three.
    fn sampled_sets(n: usize, count: usize, seed: u64) -> Vec<Vec<usize>> {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let size = rng.gen_range(1..=5);
                let mut drugs: Vec<usize> = (0..size).map(|_| rng.gen_range(0..n)).collect();
                drugs.shuffle(&mut rng);
                if rng.gen_range(0..3) == 0 {
                    drugs.push(drugs[0]);
                }
                drugs
            })
            .collect()
    }

    /// The demo formulary's DDI graph (the demo catalog's seed), and a
    /// seeded 150-node graph holding all three signs, explicit "no
    /// interaction" edges included.
    fn sample_graphs() -> Vec<SignedGraph> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let registry = dssddi_data::DrugRegistry::standard();
        let mut rng = StdRng::seed_from_u64(7);
        let demo = dssddi_data::generate_ddi_graph(
            &registry,
            &dssddi_data::DdiConfig::default(),
            &mut rng,
        )
        .unwrap();
        let mut synthetic = SignedGraph::new(150);
        for _ in 0..900 {
            let (u, v) = (rng.gen_range(0..150), rng.gen_range(0..150));
            let sign = match rng.gen_range(0..5) {
                0 | 1 => Interaction::Synergistic,
                2 | 3 => Interaction::Antagonistic,
                _ => Interaction::None,
            };
            if u != v {
                synthetic.add_interaction(u, v, sign).unwrap();
            }
        }
        vec![demo, synthetic]
    }

    /// Asserts two explanations equal field for field, SS bit for bit.
    fn assert_identical(got: &Explanation, want: &Explanation, what: &str) {
        assert_eq!(got.suggested, want.suggested, "{what}: suggested");
        assert_eq!(got.community, want.community, "{what}: community");
        assert_eq!(got.edges, want.edges, "{what}: edges");
        assert_eq!(got.internal_synergy, want.internal_synergy, "{what}");
        assert_eq!(got.internal_antagonism, want.internal_antagonism, "{what}");
        assert_eq!(got.external_antagonism, want.external_antagonism, "{what}");
        assert_eq!(
            got.suggestion_satisfaction.to_bits(),
            want.suggestion_satisfaction.to_bits(),
            "{what}: SS"
        );
    }

    #[test]
    fn packed_entries_round_trip_every_sampled_explanation() {
        let cfg = MsModuleConfig::default();
        for (g, seed) in sample_graphs().iter().zip([11, 12]) {
            let index = ExplanationIndex::build(g);
            let mut none_edges = 0;
            for drugs in sampled_sets(g.node_count(), 2000, seed) {
                let key = ExplanationCache::canonical_key(&drugs);
                let explanation = index.explain(g, &key, &cfg).unwrap();
                let words = pack(&key, &explanation).expect("explain output packs");
                assert_eq!(
                    words.len(),
                    HEADER_WORDS + explanation.community.node_count() + 2 * explanation.edges.len()
                );
                let unpacked = unpack(&key, &words).expect("packed words unpack");
                assert_identical(&unpacked, &explanation, &format!("{key:?}"));
                assert_eq!(unpacked, explanation);
                none_edges += g
                    .interactions()
                    .filter(|&(u, v, i)| {
                        i == Interaction::None && key.contains(&u) && key.contains(&v)
                    })
                    .count();
            }
            if g.node_count() == 150 {
                assert!(none_edges > 0, "the sample never met a no-interaction edge");
            }
        }
    }

    #[test]
    fn memo_hits_return_what_the_index_explains_on_the_canonical_key() {
        for (g, seed) in sample_graphs().into_iter().zip([21, 22]) {
            let index = ExplanationIndex::build(&g);
            let cfg = MsModuleConfig::default();
            let engine = ExplanationEngine::new(g.clone(), cfg.clone());
            let mut reversed = 0;
            for drugs in sampled_sets(g.node_count(), 2000, seed) {
                let key = ExplanationCache::canonical_key(&drugs);
                let want = index.explain(&g, &key, &cfg).unwrap();
                let (first, _) = engine.explain_memoized(&drugs).unwrap();
                assert_identical(&first, &want, &format!("{drugs:?} first"));
                // The same set in another order is a hit on the same entry.
                let mut other_order = drugs.clone();
                other_order.reverse();
                reversed += usize::from(other_order != drugs);
                let (again, hit) = engine.explain_memoized(&other_order).unwrap();
                assert!(hit, "{drugs:?} was just explained");
                assert_identical(&again, &want, &format!("{drugs:?} hit"));
                assert_identical(&engine.explain(&drugs).unwrap(), &want, "unmemoized");
            }
            assert!(reversed > 1000);
            assert!(engine.memo_len() <= DEFAULT_EXPLANATION_CACHE_CAPACITY);
        }
    }

    #[test]
    fn the_index_explains_the_set_whatever_the_order_or_repeats() {
        for (g, seed) in sample_graphs().into_iter().zip([31, 32]) {
            let index = ExplanationIndex::build(&g);
            let cfg = MsModuleConfig::default();
            let engine = ExplanationEngine::new(g.clone(), cfg.clone());
            let mut unsorted = 0;
            for drugs in sampled_sets(g.node_count(), 500, seed) {
                let mut sorted = drugs.clone();
                sorted.sort_unstable();
                sorted.dedup();
                unsorted += usize::from(drugs != sorted);
                let got = index.explain(&g, &drugs, &cfg).unwrap();
                assert!(got.suggested.is_sorted_by(|a, b| a < b), "{drugs:?}");
                let want = engine.explain(&sorted).unwrap();
                assert_identical(&got, &want, &format!("{drugs:?}"));
            }
            assert!(
                unsorted > 250,
                "only {unsorted} of 500 sets were out of order"
            );
        }
    }

    #[test]
    fn the_index_is_built_by_the_first_explanation() {
        let engine = ExplanationEngine::new(ddi(), MsModuleConfig::default());
        assert!(engine.index.get().is_none(), "a new engine built its index");
        engine.explain_memoized(&[0, 1]).unwrap();
        assert!(engine.index.get().is_some());
    }

    /// An explanation of {0, 1, 2} over the test graph, for hand edits.
    fn hand_built() -> (Vec<usize>, Explanation) {
        let key = vec![0, 1, 2];
        let explanation = explain(&ddi(), &key, &MsModuleConfig::default()).unwrap();
        assert!(!explanation.edges.is_empty());
        (key, explanation)
    }

    #[test]
    fn explanations_the_layout_cannot_hold_are_served_but_not_cached() {
        let mut edited = Vec::new();
        // Community edges that are not the signed edges' pairs.
        let (key, mut explanation) = hand_built();
        explanation.community.edges.reverse();
        edited.push((key, explanation));
        let (key, mut explanation) = hand_built();
        explanation.community.edges.pop();
        edited.push((key, explanation));
        // A drug ID of 2^30, in the community and in an edge.
        let (key, mut explanation) = hand_built();
        explanation.community.nodes.insert(1 << 30);
        edited.push((key, explanation));
        let (key, mut explanation) = hand_built();
        explanation.edges[0].v = 1 << 30;
        explanation.community.edges[0].1 = 1 << 30;
        edited.push((key, explanation));
        // A `suggested` that is not the key.
        let (key, mut explanation) = hand_built();
        explanation.suggested.reverse();
        edited.push((key, explanation));
        for (key, explanation) in edited {
            let mut cache = ExplanationCache::new();
            cache.insert(&key, &explanation);
            assert_eq!(cache.len(), 0, "{explanation:?} was cached");
            assert!(cache.lookup(&key).is_none());
        }
        // The unedited explanation is cached, and a non-canonical key is not.
        let (key, explanation) = hand_built();
        let mut cache = ExplanationCache::new();
        cache.insert(&key, &explanation);
        assert_eq!(cache.len(), 1);
        let mut reversed = explanation.clone();
        reversed.suggested.reverse();
        cache.insert(&reversed.suggested.clone(), &reversed);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn packed_entries_hold_every_sign_and_a_disconnected_diameter() {
        let (key, mut explanation) = hand_built();
        explanation.community.diameter = usize::MAX;
        explanation.edges[0].interaction = Interaction::None;
        explanation.edges[1].interaction = Interaction::Antagonistic;
        explanation.suggestion_satisfaction = -0.0;
        let mut cache = ExplanationCache::new();
        cache.insert(&key, &explanation);
        let hit = cache.lookup(&key).expect("cached");
        assert_identical(&hit, &explanation, "hand-built");
    }
}
