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

use dssddi_graph::{
    closest_truss_community_with, truss_decomposition, Community, Interaction, SignedGraph,
    TrussDecomposition, UnGraph,
};

use crate::config::MsModuleConfig;
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
/// With the paper's 86-drug formulary and top-k suggestions there are far
/// fewer *observed* distinct suggestion sets than this, so in practice the
/// bound only matters for adversarial or very long-lived workloads.
pub const DEFAULT_EXPLANATION_CACHE_CAPACITY: usize = 1024;

/// Memoizes [`ExplanationIndex::explain`] results keyed by the (sorted,
/// deduplicated) suggested drug set, evicting the least-recently-used entry
/// once a fixed capacity is reached.
///
/// Suggestion batches are highly repetitive: patients with the same chronic
/// profile receive the same top-k drugs, and the closest-truss-community
/// search is by far the most expensive part of serving a suggestion. The DDI
/// graph is immutable after fit, so a service-owned cache stays valid across
/// batches and collapses repeated community searches for the whole lifetime
/// of the service — while the capacity bound keeps a long-lived service's
/// memory use flat.
#[derive(Debug)]
pub struct ExplanationCache {
    entries: HashMap<Vec<usize>, CachedExplanation>,
    capacity: usize,
    clock: u64,
    hits: usize,
    misses: usize,
}

#[derive(Debug)]
struct CachedExplanation {
    explanation: Explanation,
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
            hits: 0,
            misses: 0,
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

    /// The cached explanation for `suggested`, if present (counts a hit and
    /// refreshes the entry's recency). Separated from [`ExplanationCache::insert`]
    /// so concurrent serving shards can run the expensive community search
    /// *outside* the cache lock: lock → `lookup`, miss → search unlocked,
    /// lock → `insert`.
    pub fn lookup(&mut self, suggested: &[usize]) -> Option<Explanation> {
        let key = Self::canonical_key(suggested);
        self.clock += 1;
        match self.entries.get_mut(&key) {
            Some(cached) => {
                cached.last_used = self.clock;
                self.hits += 1;
                Some(cached.explanation.clone())
            }
            None => None,
        }
    }

    /// Records a freshly computed explanation for `suggested`, counting a
    /// miss and evicting the least-recently-used entry when at capacity.
    /// If two shards raced on the same key, the later insert harmlessly
    /// overwrites the earlier with an identical explanation (community
    /// search is deterministic for a fixed graph and key).
    pub fn insert(&mut self, suggested: &[usize], explanation: Explanation) {
        let key = Self::canonical_key(suggested);
        self.misses += 1;
        self.clock += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            // O(len) scan for the least-recently-used entry; the capacity is
            // small enough that a linked recency list is not worth the
            // bookkeeping.
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
            key,
            CachedExplanation {
                explanation,
                last_used: self.clock,
            },
        );
    }

    /// How many lookups were answered from the cache.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// How many lookups required a fresh community search.
    pub fn misses(&self) -> usize {
        self.misses
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

/// Precomputed structural view of an immutable DDI graph: the unsigned
/// structural graph plus its full truss decomposition (line 1 of
/// Algorithm 1). A serving layer builds the index once per fitted graph and
/// amortises both over every explanation it serves.
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
    pub fn explain(
        &self,
        ddi: &SignedGraph,
        suggested: &[usize],
        config: &MsModuleConfig,
    ) -> Result<Explanation, CoreError> {
        if suggested.is_empty() {
            return Err(CoreError::invalid_input(
                "cannot explain an empty suggestion",
            ));
        }
        for &d in suggested {
            if d >= ddi.node_count() {
                return Err(CoreError::invalid_input(
                    "suggested drug ID outside the DDI graph",
                ));
            }
        }
        let community = closest_truss_community_with(
            &self.structural,
            &self.decomposition,
            suggested,
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

        let is_suggested = |d: usize| suggested.contains(&d);
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
        let k = {
            let mut unique: Vec<usize> = suggested.to_vec();
            unique.sort_unstable();
            unique.dedup();
            unique.len()
        };
        let ss = suggestion_satisfaction(
            k,
            community.node_count(),
            internal_synergy,
            internal_antagonism,
            external_antagonism,
            config.alpha,
        );
        Ok(Explanation {
            suggested: suggested.to_vec(),
            community,
            edges,
            internal_synergy,
            internal_antagonism,
            external_antagonism,
            suggestion_satisfaction: ss,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
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

    /// `lookup`, and on a miss a search under the canonical key and an
    /// `insert` — the memo protocol the service runs around its cache lock.
    fn cached(cache: &mut ExplanationCache, g: &SignedGraph, drugs: &[usize]) -> Explanation {
        cache.lookup(drugs).unwrap_or_else(|| {
            let key = ExplanationCache::canonical_key(drugs);
            let explanation = explain(g, &key, &MsModuleConfig::default()).unwrap();
            cache.insert(&key, explanation.clone());
            explanation
        })
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
        let mut cache = ExplanationCache::new();
        let a = cached(&mut cache, &g, &[0, 1, 2]);
        // Same set in a different order, and with a duplicate: both hits.
        let b = cached(&mut cache, &g, &[2, 0, 1]);
        let c = cached(&mut cache, &g, &[1, 0, 2, 2]);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(a.suggestion_satisfaction, b.suggestion_satisfaction);
        assert_eq!(a.internal_synergy, c.internal_synergy);
        // A genuinely different set misses.
        cached(&mut cache, &g, &[3, 4]);
        assert_eq!(cache.misses(), 2);
        // Cached results agree with the uncached path.
        let direct = explain(&g, &[0, 1, 2], &cfg).unwrap();
        assert_eq!(a.suggestion_satisfaction, direct.suggestion_satisfaction);
        assert_eq!(a.edges.len(), direct.edges.len());
    }

    #[test]
    fn explanation_cache_is_size_bounded_with_lru_eviction() {
        let g = ddi();
        let mut cache = ExplanationCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        cached(&mut cache, &g, &[0, 1]);
        cached(&mut cache, &g, &[3, 4]);
        assert_eq!(cache.len(), 2);
        // Touch {0,1} so {3,4} becomes the least recently used entry...
        cached(&mut cache, &g, &[0, 1]);
        assert_eq!(cache.hits(), 1);
        // ...then insert a third set: the cache must stay at capacity.
        cached(&mut cache, &g, &[5, 6]);
        assert_eq!(cache.len(), 2);
        // {0,1} survived the eviction, {3,4} did not.
        cached(&mut cache, &g, &[0, 1]);
        assert_eq!(cache.hits(), 2);
        cached(&mut cache, &g, &[3, 4]);
        assert_eq!(cache.misses(), 4, "evicted set must be recomputed");
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
}
