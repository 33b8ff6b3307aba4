//! Closest Truss Community (CTC) search — Algorithm 1 of the paper.
//!
//! Given the DDI graph and the set of suggested drugs (the *query*), the
//! Medical Support module extracts a connected, dense subgraph that contains
//! every suggested drug and has small diameter. The procedure follows the
//! paper: truss decomposition → Steiner tree over the query → expansion into
//! a dense neighbourhood → maximal connected p-truss → iterative shrinking
//! by removing the furthest nodes while maintaining the truss property.
//!
//! # Data layout
//!
//! Lines 1–7 run on the full graph's [`TrussDecomposition`], a CSR store of
//! neighbour slots (see [`crate::truss`]). The Steiner tree is Dijkstra over
//! those slots, and the expansion marks candidate nodes in one flat array.
//! The candidate `G′₀` is then remapped to dense local ids `0..c`, in
//! ascending global-id order, and lines 8–15 run on bitset rows: one row of
//! `⌈c / 64⌉` words per node for the adjacency, one more row for the node
//! set `G′`. Each edge's support is kept current as edges are cut, so
//! restoring the p-truss after a deletion only revisits the triangles the
//! deleted edges closed.
//!
//! Each state of the shrink loop runs one bitset BFS per query node and
//! keeps what it found as level sets, one row each: level `d` holds the
//! nodes of `G′` whose largest hop distance to a query node is at least `d`
//! (level 0 is `G′` itself), and one more row the nodes some query node
//! cannot reach. The next node to delete is the lowest non-query bit of the
//! unreachable row or, failing that, of the highest level that has one;
//! `dist(G′, Q)` is the highest non-empty level (`usize::MAX` while any
//! node is unreachable); and the query is connected while its first node is
//! not unreachable.
//!
//! # Ordering invariants
//!
//! The search answers for the query set: it runs on the query's distinct
//! nodes in ascending order (the canonical sequence), so the caller's order
//! and repeats cannot change the answer. On that canonical sequence it
//! returns the same community, edge order, trussness and diameter as the
//! node-set implementation it replaced, which the tests keep as an oracle
//! and feed the canonical sequence. Three facts make that hold:
//!
//! * Truss numbers and the p-truss fixpoint do not depend on the order in
//!   which edges are peeled, so queue peeling and incremental supports reach
//!   the same edges as batch recounts.
//! * Dijkstra's equal-distance ties follow the heap's push order. The slots
//!   keep neighbours ascending and carry the same `f64` weight expression,
//!   so the pushes, and with them the Steiner paths, are unchanged.
//! * A tie for the furthest node goes to the smallest id. Local ids ascend
//!   with global ids, so the smallest local id is the smallest global id,
//!   and edges listed by ascending local pair are in ascending global order.

use std::collections::BTreeSet;

use crate::steiner::{distinct_query, tree};
use crate::truss::{truss_decomposition, TrussDecomposition};
use crate::ungraph::norm_edge;
use crate::{GraphError, UnGraph};

/// A dense explanation subgraph around a set of query drugs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Community {
    /// Nodes of the community (always a superset of the reachable query nodes).
    pub nodes: BTreeSet<usize>,
    /// Edges of the community as normalised `(min, max)` pairs.
    pub edges: Vec<(usize, usize)>,
    /// Trussness `p` the community satisfies (every edge has support ≥ p − 2).
    pub trussness: usize,
    /// Hop diameter of the community (`usize::MAX` if it is a forest of parts).
    pub diameter: usize,
}

impl Community {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True when the community contains the node.
    pub fn contains(&self, v: usize) -> bool {
        self.nodes.contains(&v)
    }
}

/// Configuration of the CTC search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtcConfig {
    /// Target size for the expanded candidate subgraph `G'₀`
    /// (`n₀` in Algorithm 1).
    pub expansion_size: usize,
    /// Maximum number of shrink iterations (defensive bound; the loop also
    /// stops when the query would become disconnected).
    pub max_shrink_iterations: usize,
}

impl Default for CtcConfig {
    fn default() -> Self {
        Self {
            expansion_size: 30,
            max_shrink_iterations: 100,
        }
    }
}

/// Runs the closest-truss-community search of Algorithm 1.
///
/// The community is of the query *set*: the search runs on its distinct
/// nodes in ascending order, so every order and repetition of the same
/// nodes gives the same community. An empty query is a
/// [`GraphError::EmptyQuery`], and a node outside the graph a
/// [`GraphError::NodeOutOfRange`] naming the smallest such node.
///
/// Query nodes that are isolated in `graph` are kept in the result (the MS
/// module still has to display them) but cannot contribute interactions.
pub fn closest_truss_community(
    graph: &UnGraph,
    query: &[usize],
    config: &CtcConfig,
) -> Result<Community, GraphError> {
    // Line 1: truss decomposition on the full graph.
    let decomposition = truss_decomposition(graph);
    closest_truss_community_with(graph, &decomposition, query, config)
}

/// [`closest_truss_community`] with a caller-provided truss decomposition of
/// `graph` (line 1 of Algorithm 1 hoisted out). Serving layers whose graph
/// is immutable decompose once and amortise it over every explanation; the
/// result is identical to recomputing per call, and like it answers for
/// the query set whatever order or repeats the caller passes.
///
/// A decomposition with a different node or edge count than `graph` is a
/// [`GraphError::DecompositionMismatch`].
pub fn closest_truss_community_with(
    graph: &UnGraph,
    decomposition: &TrussDecomposition,
    query: &[usize],
    config: &CtcConfig,
) -> Result<Community, GraphError> {
    let query = distinct_query(graph, decomposition, query)?;

    // Line 2: Steiner tree containing the suggested drugs.
    let (tree_nodes, tree_edges) = tree(decomposition, &query);

    // Lines 3-4: seed subgraph and its minimum truss level p'.
    let p_seed = tree_edges
        .iter()
        .filter_map(|&(u, v)| decomposition.truss(u, v))
        .min()
        .unwrap_or(2);

    // Lines 5-7: the candidate G'0 on dense local ids.
    let (ids, candidate) = expand_candidate(
        decomposition,
        tree_nodes,
        &tree_edges,
        p_seed,
        config.expansion_size,
    );
    // From here on the query is in local ids (the tree holds every node).
    let query: Vec<usize> = query
        .iter()
        .filter_map(|q| ids.binary_search(q).ok())
        .collect();

    // Lines 8-9: maximum connected p-truss containing the query. Without
    // one, the query has no triangles around it at all and the candidate
    // itself is the (2-truss) explanation.
    let (p, mut start) = max_connected_p_truss(&candidate, &query).unwrap_or((2, candidate));
    // Query nodes with no interactions stay visible in the explanation.
    for &q in &query {
        set_bit(&mut start.bits.nodes, q);
    }

    // Lines 10-15: iterative shrinking.
    let best = shrink(start, p, &query, config.max_shrink_iterations);
    let global = |v: usize| ids.get(v).copied();
    Ok(Community {
        nodes: ones(&best.nodes).filter_map(global).collect(),
        edges: best
            .edges()
            .filter_map(|(a, b)| Some((global(a)?, global(b)?)))
            .collect(),
        trussness: p,
        diameter: best.diameter(),
    })
}

/// Lines 5-7 of Algorithm 1: grows the Steiner tree breadth first along
/// edges of (global) truss at least `p_seed` until it has `target` nodes.
///
/// Returns the candidate's nodes ascending, whose positions are the local
/// ids, and the candidate on those ids. Its edges are every edge of truss at
/// least `p_seed` among its nodes, because the expansion closes those
/// triangles, or only the tree's when the tree already has `target` nodes.
fn expand_candidate(
    decomposition: &TrussDecomposition,
    mut ids: Vec<usize>,
    tree_edges: &[(usize, usize)],
    p_seed: usize,
    target: usize,
) -> (Vec<usize>, Local) {
    const ABSENT: usize = usize::MAX;
    // Global id -> local id; members are marked 0 until the ids are known.
    let mut local = vec![ABSENT; decomposition.node_count()];
    for &v in &ids {
        if let Some(l) = local.get_mut(v) {
            *l = 0;
        }
    }
    let close_triangles = ids.len() < target;
    let mut frontier = ids.clone();
    'grow: while ids.len() < target {
        let mut next = Vec::new();
        for &u in &frontier {
            for slot in decomposition.slots(u) {
                if slot.truss < p_seed {
                    continue;
                }
                if let Some(l) = local.get_mut(slot.node).filter(|l| **l == ABSENT) {
                    *l = 0;
                    ids.push(slot.node);
                    next.push(slot.node);
                    if ids.len() >= target {
                        break 'grow;
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }

    ids.sort_unstable();
    for (i, &v) in ids.iter().enumerate() {
        if let Some(l) = local.get_mut(v) {
            *l = i;
        }
    }
    let mut candidate = Bits::new(ids.len());
    for v in 0..ids.len() {
        set_bit(&mut candidate.nodes, v);
    }
    if close_triangles {
        for (a, &u) in ids.iter().enumerate() {
            let row = candidate.row_mut(a);
            for slot in decomposition.slots(u) {
                match local.get(slot.node) {
                    Some(&b) if b != ABSENT && slot.truss >= p_seed => set_bit(row, b),
                    _ => {}
                }
            }
        }
    } else {
        for &(u, v) in tree_edges {
            if let (Some(&a), Some(&b)) = (local.get(u), local.get(v)) {
                candidate.link(a, b);
            }
        }
    }
    (ids, Local::new(candidate))
}

/// Line 9 of Algorithm 1: the connected p-truss with the largest `p` that
/// still contains every query node (restricted to the candidate), with
/// that `p`.
fn max_connected_p_truss(candidate: &Local, query: &[usize]) -> Option<(usize, Local)> {
    // Line 8: truss decomposition on the candidate subgraph.
    let truss = candidate.truss_numbers();
    let max_p = truss.iter().copied().max().unwrap_or(0);
    let &first = query.first()?;
    let mut scratch = candidate.bits.scratch();
    for p in (2..=max_p.max(2)).rev() {
        let mut sub = Bits::new(candidate.bits.len());
        for (&(a, b), _) in candidate.edges.iter().zip(&truss).filter(|(_, &t)| t >= p) {
            sub.link(a, b);
        }
        // Search inside the nodes with an edge in the p-truss.
        for row in sub.rows.chunks_exact(sub.words) {
            for (w, &x) in sub.nodes.iter_mut().zip(row) {
                *w |= x;
            }
        }
        let component = sub.bfs(first, &mut scratch, |_, _, _| {});
        if query.iter().all(|&q| bit(component, q)) {
            // Keep the query's component.
            sub.nodes = component.to_vec();
            for (v, row) in sub.rows.chunks_exact_mut(sub.words).enumerate() {
                if !bit(&sub.nodes, v) {
                    row.fill(0);
                }
            }
            return Some((p, Local::new(sub)));
        }
    }
    None
}

/// Lines 10-15 of Algorithm 1: deletes the non-query node furthest from the
/// query, restores the p-truss, and repeats while the query stays
/// connected. Returns the state with the smallest `dist(G′, Q)`, the latest
/// of equals.
fn shrink(mut current: Local, p: usize, query: &[usize], max_iterations: usize) -> Bits {
    let mut scratch = current.bits.scratch();
    let (mut levels, mut queue) = (Levels::default(), Vec::new());
    levels.fill(&current.bits, query, &mut scratch);
    let mut best = (levels.query_distance(), current.bits.clone());
    for _ in 0..max_iterations {
        let Some(victim) = levels.furthest(query) else {
            break;
        };
        current.remove_node(victim, p, query, &mut queue);
        levels.fill(&current.bits, query, &mut scratch);
        // The query is connected when one query node reaches all the others,
        // that is, when every query node reaches it.
        let connected = query.first().is_some_and(|&q| !bit(&levels.unreachable, q));
        if !connected && query.len() > 1 {
            break;
        }
        let d = levels.query_distance();
        if d <= best.0 {
            best.0 = d;
            best.1.rows.clone_from(&current.bits.rows);
            best.1.nodes.clone_from(&current.bits.nodes);
        }
        if ones(&current.bits.nodes).count() <= query.len() {
            break;
        }
    }
    best.1
}

/// The level sets of one shrink state `G′` (see the module docs).
#[derive(Debug, Default)]
struct Levels {
    words: usize,
    /// Level `d` is `sets[d * words..(d + 1) * words]`: the nodes of `G′`
    /// whose largest hop distance to a query node is at least `d`.
    sets: Vec<u64>,
    /// The nodes of `G′` some query node cannot reach.
    unreachable: Vec<u64>,
}

impl Levels {
    /// Recomputes the sets for `G′` with one BFS per query node.
    fn fill(&mut self, bits: &Bits, query: &[usize], scratch: &mut [u64]) {
        let words = bits.words;
        self.words = words;
        self.sets.clone_from(&bits.nodes);
        self.unreachable.clear();
        self.unreachable.resize(words, 0);
        let Levels {
            sets, unreachable, ..
        } = self;
        for &q in query {
            // The nodes at least `d` hops from `q` are those it reaches at
            // `d` and those it has not reached by then.
            let reached = bits.bfs(q, scratch, |d, level, reached| {
                let end = (d + 1) * words;
                if sets.len() < end {
                    sets.resize(end, 0);
                }
                let Some(set) = sets.get_mut(d * words..end) else {
                    return;
                };
                for (((x, &l), &r), &m) in set.iter_mut().zip(level).zip(reached).zip(&bits.nodes) {
                    *x |= m & (l | !r);
                }
            });
            for ((u, &r), &m) in unreachable.iter_mut().zip(reached).zip(&bits.nodes) {
                *u |= m & !r;
            }
        }
    }

    /// The rows from level 0 up.
    fn levels(&self) -> std::slice::ChunksExact<'_, u64> {
        self.sets.chunks_exact(self.words.max(1))
    }

    /// The non-query node furthest from the query, ties to the smallest id:
    /// the lowest non-query bit of the unreachable set, or else of the
    /// highest level that has one.
    fn furthest(&self, query: &[usize]) -> Option<usize> {
        let non_query = |set: &[u64]| ones(set).find(|v| !query.contains(v));
        non_query(&self.unreachable).or_else(|| self.levels().rev().find_map(non_query))
    }

    /// `dist(G′, Q)`, the objective minimised on line 15 of Algorithm 1: the
    /// largest hop distance between a query node and a node of `G′`, which
    /// is the highest non-empty level (`usize::MAX` when one cannot reach
    /// the other).
    fn query_distance(&self) -> usize {
        if self.unreachable.iter().any(|&w| w != 0) {
            return usize::MAX;
        }
        self.levels()
            .rposition(|set| set.iter().any(|&w| w != 0))
            .unwrap_or(0)
    }
}

/// A subgraph on dense local ids `0..len`: adjacency rows of `words` words
/// each, and the node set `G′` as one more row.
#[derive(Debug, Clone)]
struct Bits {
    words: usize,
    rows: Vec<u64>,
    nodes: Vec<u64>,
}

impl Bits {
    /// `len` nodes, no edges, an empty node set.
    fn new(len: usize) -> Self {
        let words = len.div_ceil(64).max(1);
        Bits {
            words,
            rows: vec![0; len * words],
            nodes: vec![0; words],
        }
    }

    fn len(&self) -> usize {
        self.rows.len() / self.words
    }

    fn row(&self, v: usize) -> &[u64] {
        let words = self.words;
        self.rows
            .get(v * words..(v + 1) * words)
            .unwrap_or_default()
    }

    fn row_mut(&mut self, v: usize) -> &mut [u64] {
        let words = self.words;
        self.rows
            .get_mut(v * words..(v + 1) * words)
            .unwrap_or_default()
    }

    fn link(&mut self, a: usize, b: usize) {
        set_bit(self.row_mut(a), b);
        set_bit(self.row_mut(b), a);
    }

    /// The edges as ascending local pairs, in ascending order.
    fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rows
            .chunks_exact(self.words)
            .enumerate()
            .flat_map(|(a, row)| ones(row).filter(move |&b| b > a).map(move |b| (a, b)))
    }

    /// Scratch space for [`Bits::bfs`].
    fn scratch(&self) -> Vec<u64> {
        vec![0; 3 * self.words]
    }

    /// Breadth-first search from `source` inside `G′`, level by level on
    /// bitsets: calls `visit` with each hop distance `d` that has nodes, the
    /// set of nodes at `d` and the set reached so far (up to `d`), and
    /// returns the set reached (a row of `scratch`).
    fn bfs<'s>(
        &self,
        source: usize,
        scratch: &'s mut [u64],
        mut visit: impl FnMut(usize, &[u64], &[u64]),
    ) -> &'s [u64] {
        let mut parts = scratch.chunks_exact_mut(self.words);
        let (Some(reached), Some(mut frontier), Some(mut next)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return &[];
        };
        reached.fill(0);
        if !bit(&self.nodes, source) {
            return reached;
        }
        frontier.fill(0);
        set_bit(reached, source);
        set_bit(frontier, source);
        visit(0, frontier, reached);
        for d in 1.. {
            next.fill(0);
            for v in ones(frontier) {
                for (x, &r) in next.iter_mut().zip(self.row(v)) {
                    *x |= r;
                }
            }
            let mut grew = false;
            for ((x, &m), r) in next.iter_mut().zip(&self.nodes).zip(reached.iter_mut()) {
                *x &= m & !*r;
                *r |= *x;
                grew |= *x != 0;
            }
            if !grew {
                break;
            }
            visit(d, next, reached);
            std::mem::swap(&mut frontier, &mut next);
        }
        reached
    }

    /// Hop diameter of `G′` (0 for empty or singleton sets, `usize::MAX` if
    /// it is disconnected).
    fn diameter(&self) -> usize {
        let mut scratch = self.scratch();
        let mut best = 0usize;
        for v in ones(&self.nodes) {
            let reached = self.bfs(v, &mut scratch, |d, _, _| best = best.max(d));
            if self.nodes.iter().zip(reached).any(|(&m, &r)| m & !r != 0) {
                return usize::MAX;
            }
        }
        best
    }
}

/// A [`Bits`] subgraph with the support of every edge it started with,
/// kept current as edges are cut.
#[derive(Debug, Clone)]
struct Local {
    bits: Bits,
    /// The edges the subgraph started with, ascending; an edge is live
    /// while its bits are set.
    edges: Vec<(usize, usize)>,
    /// Support of each edge of `edges` while it is live.
    support: Vec<usize>,
}

impl Local {
    fn new(bits: Bits) -> Self {
        let edges: Vec<(usize, usize)> = bits.edges().collect();
        let support = edges
            .iter()
            .map(|&(a, b)| {
                bits.row(a)
                    .iter()
                    .zip(bits.row(b))
                    .map(|(x, y)| (x & y).count_ones() as usize)
                    .sum()
            })
            .collect();
        Local {
            bits,
            edges,
            support,
        }
    }

    /// Cuts the live edge `{a, b}`. Each triangle it closed lowers its two
    /// other edges' supports, and an edge whose support falls below `p − 2`
    /// is queued.
    fn cut(&mut self, a: usize, b: usize, p: usize, queue: &mut Vec<usize>) {
        clear_bit(self.bits.row_mut(a), b);
        clear_bit(self.bits.row_mut(b), a);
        let Local {
            bits,
            edges,
            support,
        } = self;
        for w in common(bits.row(a), bits.row(b)) {
            for end in [a, b] {
                let Ok(e) = edges.binary_search(&norm_edge(end, w)) else {
                    continue;
                };
                if let Some(s) = support.get_mut(e) {
                    *s = s.saturating_sub(1);
                    if *s + 2 < p {
                        queue.push(e);
                    }
                }
            }
        }
    }

    /// Cuts every queued edge that is live with support below `p − 2`, and
    /// every edge that falls below it in turn, reporting each cut to
    /// `on_cut`. If the subgraph was a p-truss apart from the queued edges,
    /// it ends as the maximal p-truss inside it.
    fn cascade(&mut self, p: usize, queue: &mut Vec<usize>, mut on_cut: impl FnMut(usize)) {
        while let Some(e) = queue.pop() {
            let (Some(&(a, b)), Some(&s)) = (self.edges.get(e), self.support.get(e)) else {
                continue;
            };
            if s + 2 < p && bit(self.bits.row(a), b) {
                self.cut(a, b, p, queue);
                on_cut(e);
            }
        }
    }

    /// The truss number of every edge of `edges` within the subgraph, by
    /// queue peeling on a copy.
    fn truss_numbers(&self) -> Vec<usize> {
        let mut work = self.clone();
        let mut truss = vec![0usize; self.edges.len()];
        let mut left = self.edges.len();
        let mut queue = Vec::new();
        let mut k = 2;
        while left > 0 {
            queue.extend(
                truss
                    .iter()
                    .zip(&work.support)
                    .enumerate()
                    .filter(|&(_, (&t, &s))| t == 0 && s + 2 <= k)
                    .map(|(e, _)| e),
            );
            work.cascade(k + 1, &mut queue, |e| {
                if let Some(t) = truss.get_mut(e) {
                    *t = k;
                }
                left -= 1;
            });
            k += 1;
        }
        truss
    }

    /// Lines 12-13 of Algorithm 1: deletes node `v` with its edges,
    /// restores the p-truss, and drops from `G′` the non-query nodes left
    /// without an edge.
    fn remove_node(&mut self, v: usize, p: usize, query: &[usize], queue: &mut Vec<usize>) {
        loop {
            let Some(u) = ones(self.bits.row(v)).next() else {
                break;
            };
            self.cut(v, u, p, queue);
        }
        self.cascade(p, queue, |_| {});
        for u in 0..self.bits.len() {
            if !query.contains(&u) && self.bits.row(u).iter().all(|&w| w == 0) {
                clear_bit(&mut self.bits.nodes, u);
            }
        }
    }
}

fn bit(set: &[u64], i: usize) -> bool {
    set.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
}

fn set_bit(set: &mut [u64], i: usize) {
    if let Some(w) = set.get_mut(i / 64) {
        *w |= 1 << (i % 64);
    }
}

fn clear_bit(set: &mut [u64], i: usize) {
    if let Some(w) = set.get_mut(i / 64) {
        *w &= !(1 << (i % 64));
    }
}

/// The members of a bitset, ascending.
fn ones(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter()
        .enumerate()
        .flat_map(|(k, &word)| word_ones(k, word))
}

/// The members common to two bitsets, ascending.
fn common<'a>(a: &'a [u64], b: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
    a.iter()
        .zip(b)
        .enumerate()
        .flat_map(|(k, (&x, &y))| word_ones(k, x & y))
}

/// The set bits of word `k` of a bitset, as member ids.
fn word_ones(k: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            k * 64 + b
        })
    })
}

/// The node-set implementation of lines 1-15 that the compact search
/// replaced, kept verbatim as the reference the differential tests compare
/// against.
#[cfg(test)]
pub(crate) mod oracle {
    use std::collections::{BTreeSet, BinaryHeap, HashMap};

    use super::{Community, CtcConfig};
    use crate::steiner::SteinerTree;
    use crate::traversal::{all_connected, bfs, component_of, diameter, reconstruct_path};
    use crate::ungraph::norm_edge;
    use crate::{GraphError, UnGraph};

    /// Result of a truss decomposition: the truss number of every edge.
    #[derive(Debug, Clone, Default)]
    pub struct TrussDecomposition {
        truss: HashMap<(usize, usize), usize>,
        // Cached at construction: the truss-aware Steiner distance evaluates
        // `max_truss` once per edge relaxation, and a per-call scan of the edge
        // map used to dominate the whole community search.
        max_truss: usize,
    }

    impl TrussDecomposition {
        /// Truss number of edge `{u, v}`; `None` if the edge is not present.
        pub fn truss(&self, u: usize, v: usize) -> Option<usize> {
            self.truss.get(&norm_edge(u, v)).copied()
        }

        /// Largest truss number over all edges (2 for a triangle-free graph,
        /// 0 for an edgeless graph). O(1): computed once at decomposition time.
        pub fn max_truss(&self) -> usize {
            self.max_truss
        }

        /// Smallest truss number over all edges (0 for an edgeless graph).
        pub fn min_truss(&self) -> usize {
            self.truss.values().copied().min().unwrap_or(0)
        }

        /// Iterator over `((u, v), truss)` entries.
        pub fn iter(&self) -> impl Iterator<Item = (&(usize, usize), &usize)> {
            self.truss.iter()
        }

        /// Number of edges covered by the decomposition.
        pub fn len(&self) -> usize {
            self.truss.len()
        }
    }

    /// Computes the truss number of every edge by iterative peeling: repeatedly
    /// remove the edge with the smallest support and record its truss number as
    /// `support at removal + 2`.
    pub fn truss_decomposition(graph: &UnGraph) -> TrussDecomposition {
        let mut work = graph.clone();
        let mut support: HashMap<(usize, usize), usize> = HashMap::new();
        for (u, v) in work.edges() {
            support.insert((u, v), work.edge_support(u, v));
        }
        let mut truss: HashMap<(usize, usize), usize> = HashMap::new();
        let mut k = 2usize;

        while !support.is_empty() {
            // Peel every edge whose support is <= k - 2 at the current level.
            loop {
                let to_remove: Vec<(usize, usize)> = support
                    .iter()
                    .filter(|(_, &s)| s + 2 <= k)
                    .map(|(&e, _)| e)
                    .collect();
                if to_remove.is_empty() {
                    break;
                }
                for (u, v) in to_remove {
                    if support.remove(&(u, v)).is_none() {
                        continue;
                    }
                    truss.insert((u, v), k);
                    // Removing (u, v) destroys one triangle per common neighbour.
                    let common = work.common_neighbors(u, v);
                    work.remove_edge(u, v);
                    for w in common {
                        for e in [norm_edge(u, w), norm_edge(v, w)] {
                            if let Some(s) = support.get_mut(&e) {
                                *s = s.saturating_sub(1);
                            }
                        }
                    }
                }
            }
            k += 1;
        }
        let max_truss = truss.values().copied().max().unwrap_or(0);
        TrussDecomposition { truss, max_truss }
    }

    /// Repeatedly removes edges whose support inside `sub` has fallen below
    /// `p - 2`, restoring the p-truss property after node/edge deletions
    /// (line 13 of Algorithm 1). Nodes left isolated are dropped from `nodes`.
    pub fn maintain_p_truss(sub: &mut UnGraph, nodes: &mut BTreeSet<usize>, p: usize) {
        loop {
            let violating: Vec<(usize, usize)> = sub
                .edges()
                .into_iter()
                .filter(|&(u, v)| sub.edge_support(u, v) + 2 < p)
                .collect();
            if violating.is_empty() {
                break;
            }
            for (u, v) in violating {
                sub.remove_edge(u, v);
            }
        }
        nodes.retain(|&v| sub.degree(v) > 0);
    }

    /// Truss-aware edge weight: an edge in a denser truss is cheaper to cross.
    /// Weight is `1 + (k_max − truss(e)) / (k_max + 1)` so every edge costs at
    /// least 1 hop and at most 2.
    pub fn truss_distance_weight(decomposition: &TrussDecomposition, u: usize, v: usize) -> f64 {
        let k_max = decomposition.max_truss().max(2) as f64;
        let t = decomposition.truss(u, v).unwrap_or(2) as f64;
        1.0 + (k_max - t).max(0.0) / (k_max + 1.0)
    }

    /// Computes an approximate minimum Steiner tree connecting `query` in
    /// `graph`, using Mehlhorn's construction: build the complete distance graph
    /// over the query nodes, take its minimum spanning tree, expand each MST
    /// edge into the underlying shortest path, and prune non-query leaves.
    ///
    /// Query nodes in different connected components yield a forest containing
    /// each reachable part (no error), because the MS module must still explain
    /// drug suggestions whose DDI neighbourhoods are disconnected.
    pub fn steiner_tree(
        graph: &UnGraph,
        query: &[usize],
        decomposition: &TrussDecomposition,
    ) -> Result<SteinerTree, GraphError> {
        let n = graph.node_count();
        let mut unique_query: Vec<usize> = Vec::new();
        for &q in query {
            if q >= n {
                return Err(GraphError::NodeOutOfRange { node: q, nodes: n });
            }
            if !unique_query.contains(&q) {
                unique_query.push(q);
            }
        }
        if unique_query.is_empty() {
            return Err(GraphError::EmptyQuery);
        }
        let mut nodes: BTreeSet<usize> = unique_query.iter().copied().collect();
        let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        if unique_query.len() == 1 {
            return Ok(SteinerTree {
                nodes,
                edges: vec![],
            });
        }

        // Shortest paths from every query node under the truss-aware metric.
        let weight = |u: usize, v: usize| truss_distance_weight(decomposition, u, v);
        let per_query: Vec<(Vec<f64>, Vec<usize>)> = unique_query
            .iter()
            .map(|&q| dijkstra(graph, q, weight))
            .collect();

        // Prim's MST over the complete distance graph on the query nodes.
        let q = unique_query.len();
        let mut in_tree = vec![false; q];
        let mut best_cost = vec![f64::INFINITY; q];
        let mut best_from = vec![usize::MAX; q];
        in_tree[0] = true;
        for j in 1..q {
            best_cost[j] = per_query[0].0[unique_query[j]];
            best_from[j] = 0;
        }
        for _ in 1..q {
            let mut pick = usize::MAX;
            let mut pick_cost = f64::INFINITY;
            for j in 0..q {
                if !in_tree[j] && best_cost[j] < pick_cost {
                    pick = j;
                    pick_cost = best_cost[j];
                }
            }
            if pick == usize::MAX {
                break; // remaining query nodes are unreachable; leave them isolated
            }
            in_tree[pick] = true;
            // Expand the MST edge (best_from[pick] -> pick) into its shortest path.
            let from = best_from[pick];
            let (_, parents) = &per_query[from];
            if let Some(path) = reconstruct_path(parents, unique_query[from], unique_query[pick]) {
                for window in path.windows(2) {
                    nodes.insert(window[0]);
                    nodes.insert(window[1]);
                    edges.insert(crate::ungraph::norm_edge(window[0], window[1]));
                }
            }
            for j in 0..q {
                if !in_tree[j] {
                    let c = per_query[pick].0[unique_query[j]];
                    if c < best_cost[j] {
                        best_cost[j] = c;
                        best_from[j] = pick;
                    }
                }
            }
        }

        // Prune non-query leaves repeatedly (Mehlhorn's final clean-up).
        let mut tree = UnGraph::new(n);
        for &(u, v) in &edges {
            tree.add_edge(u, v)?;
        }
        loop {
            let leaves: Vec<usize> = nodes
                .iter()
                .copied()
                .filter(|&v| tree.degree(v) == 1 && !unique_query.contains(&v))
                .collect();
            if leaves.is_empty() {
                break;
            }
            for v in leaves {
                tree.detach_node(v);
                nodes.remove(&v);
            }
        }
        let final_edges: Vec<(usize, usize)> = tree.edges();
        Ok(SteinerTree {
            nodes,
            edges: final_edges,
        })
    }

    /// Weighted single-source shortest paths (Dijkstra). `weight(u, v)` must be
    /// non-negative; distances are `f64::INFINITY` for unreachable nodes.
    pub fn dijkstra(
        graph: &UnGraph,
        source: usize,
        weight: impl Fn(usize, usize) -> f64,
    ) -> (Vec<f64>, Vec<usize>) {
        let n = graph.node_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut parent = vec![usize::MAX; n];
        if source >= n {
            return (dist, parent);
        }
        // Max-heap on reversed ordering of (dist, node).
        #[derive(PartialEq)]
        struct Entry(f64, usize);
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other
                    .0
                    .partial_cmp(&self.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut heap = BinaryHeap::new();
        dist[source] = 0.0;
        heap.push(Entry(0.0, source));
        while let Some(Entry(d, u)) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for v in graph.neighbors(u) {
                let w = weight(u, v);
                let nd = d + w.max(0.0);
                if nd < dist[v] {
                    dist[v] = nd;
                    parent[v] = u;
                    heap.push(Entry(nd, v));
                }
            }
        }
        (dist, parent)
    }

    /// Sum of hop distances from every community node to its furthest query node
    /// — the `dist(G', Q)` objective minimised on line 15 of Algorithm 1.
    fn community_query_distance(
        graph: &UnGraph,
        nodes: &BTreeSet<usize>,
        query: &[usize],
    ) -> usize {
        let mut total = 0usize;
        for &q in query {
            if !nodes.contains(&q) {
                return usize::MAX;
            }
            let res = bfs(graph, q, Some(nodes));
            for &v in nodes {
                match res.dist[v] {
                    usize::MAX => return usize::MAX,
                    d => total = total.max(d),
                }
            }
        }
        total
    }

    /// [`closest_truss_community`] with a caller-provided truss decomposition of
    /// `graph` (line 1 of Algorithm 1 hoisted out). Serving layers whose graph
    /// is immutable decompose once and amortise it over every explanation; the
    /// result is identical to recomputing per call.
    pub fn closest_truss_community_with(
        graph: &UnGraph,
        decomposition: &TrussDecomposition,
        query: &[usize],
        config: &CtcConfig,
    ) -> Result<Community, GraphError> {
        let n = graph.node_count();
        let mut unique_query: Vec<usize> = Vec::new();
        for &q in query {
            if q >= n {
                return Err(GraphError::NodeOutOfRange { node: q, nodes: n });
            }
            if !unique_query.contains(&q) {
                unique_query.push(q);
            }
        }
        if unique_query.is_empty() {
            return Err(GraphError::EmptyQuery);
        }

        // Line 2: Steiner tree containing the suggested drugs.
        let tree = steiner_tree(graph, &unique_query, decomposition)?;

        // Lines 3-4: seed subgraph and its minimum truss level p'.
        let mut nodes: BTreeSet<usize> = tree.nodes.clone();
        let mut sub = UnGraph::new(n);
        for &(u, v) in &tree.edges {
            sub.add_edge(u, v)?;
        }
        let p_seed = tree
            .edges
            .iter()
            .filter_map(|&(u, v)| decomposition.truss(u, v))
            .min()
            .unwrap_or(2);

        // Lines 5-7: grow the subgraph with adjacent edges of truss >= p'.
        expand_candidate(
            graph,
            decomposition,
            &mut sub,
            &mut nodes,
            p_seed,
            config.expansion_size,
        );

        // Line 8: truss decomposition on the candidate subgraph.
        let local = truss_decomposition(&sub);

        // Line 9: maximum connected p-truss containing the query.
        let (mut p, mut best_nodes, mut best_sub) = max_connected_p_truss(&local, &unique_query, n);
        if best_nodes.is_empty() {
            // The query has no triangles around it at all; fall back to the
            // Steiner tree itself as a (2-truss) explanation.
            p = 2;
            best_nodes = nodes.clone();
            best_sub = sub.clone();
        }
        // Query nodes with no interactions stay visible in the explanation.
        for &q in &unique_query {
            best_nodes.insert(q);
        }

        // Lines 10-15: iterative shrinking, keeping the candidate with the
        // smallest query distance. The candidate state is mutated in place (a
        // rejected step only ever precedes a `break`, so no rollback is needed)
        // and the furthest node is found with |Q| BFS passes from the query
        // nodes instead of one BFS per community node — hop distances are
        // symmetric, so the selected victim is identical.
        let mut best_candidate = (
            community_query_distance(&best_sub, &best_nodes, &unique_query),
            best_nodes.clone(),
            best_sub.clone(),
        );
        let mut cur_nodes = best_nodes;
        let mut cur_sub = best_sub;
        for _ in 0..config.max_shrink_iterations {
            // Find the non-query node furthest from the query (max over query
            // nodes of the hop distance, unreachable counting as infinite —
            // exactly `traversal::query_distance`, batched).
            let from_query: Vec<crate::traversal::BfsResult> = unique_query
                .iter()
                .map(|&q| bfs(&cur_sub, q, Some(&cur_nodes)))
                .collect();
            let mut furthest: Option<(usize, usize)> = None;
            for &v in &cur_nodes {
                if unique_query.contains(&v) {
                    continue;
                }
                let d = from_query.iter().map(|res| res.dist[v]).max().unwrap_or(0);
                if furthest.is_none_or(|(fd, _)| d > fd) {
                    furthest = Some((d, v));
                }
            }
            let Some((_, victim)) = furthest else { break };
            cur_sub.detach_node(victim);
            cur_nodes.remove(&victim);
            maintain_p_truss(&mut cur_sub, &mut cur_nodes, p);
            for &q in &unique_query {
                cur_nodes.insert(q);
            }
            if !all_connected(&cur_sub, &unique_query, &cur_nodes) && unique_query.len() > 1 {
                break;
            }
            let d = community_query_distance(&cur_sub, &cur_nodes, &unique_query);
            if d <= best_candidate.0 {
                best_candidate = (d, cur_nodes.clone(), cur_sub.clone());
            }
            if cur_nodes.len() <= unique_query.len() {
                break;
            }
        }

        let (_, final_nodes, final_sub) = best_candidate;
        let edges: Vec<(usize, usize)> = final_sub
            .edges()
            .into_iter()
            .filter(|&(u, v)| final_nodes.contains(&u) && final_nodes.contains(&v))
            .collect();
        let diam = diameter(&final_sub, &final_nodes);
        Ok(Community {
            nodes: final_nodes,
            edges,
            trussness: p,
            diameter: diam,
        })
    }

    /// Lines 5-7 of Algorithm 1: breadth-first expansion of the seed subgraph by
    /// adjacent edges whose (global) truss number is at least `p_seed`.
    fn expand_candidate(
        graph: &UnGraph,
        decomposition: &TrussDecomposition,
        sub: &mut UnGraph,
        nodes: &mut BTreeSet<usize>,
        p_seed: usize,
        target_size: usize,
    ) {
        let mut frontier: Vec<usize> = nodes.iter().copied().collect();
        while nodes.len() < target_size {
            let mut added_any = false;
            let mut next_frontier = Vec::new();
            for &u in &frontier {
                for v in graph.neighbors(u) {
                    let t = decomposition.truss(u, v).unwrap_or(0);
                    if t >= p_seed {
                        if !sub.has_edge(u, v) {
                            let _ = sub.add_edge(u, v);
                            added_any = true;
                        }
                        if nodes.insert(v) {
                            next_frontier.push(v);
                            added_any = true;
                            if nodes.len() >= target_size {
                                break;
                            }
                        }
                    }
                }
                if nodes.len() >= target_size {
                    break;
                }
            }
            // Also close triangles among the current node set so the local truss
            // decomposition sees the full induced density.
            let snapshot: Vec<usize> = nodes.iter().copied().collect();
            for &u in &snapshot {
                for v in graph.neighbors(u) {
                    if nodes.contains(&v) && !sub.has_edge(u, v) {
                        let t = decomposition.truss(u, v).unwrap_or(0);
                        if t >= p_seed {
                            let _ = sub.add_edge(u, v);
                            added_any = true;
                        }
                    }
                }
            }
            if !added_any {
                break;
            }
            frontier = next_frontier;
            if frontier.is_empty() {
                break;
            }
        }
    }

    /// Line 9 of Algorithm 1: the connected p-truss with the largest `p` that
    /// still contains every query node (restricted to the candidate subgraph).
    fn max_connected_p_truss(
        local: &TrussDecomposition,
        query: &[usize],
        n: usize,
    ) -> (usize, BTreeSet<usize>, UnGraph) {
        let max_p = local.max_truss();
        for p in (2..=max_p.max(2)).rev() {
            let mut candidate = UnGraph::new(n);
            for (&(u, v), &t) in local.iter() {
                if t >= p {
                    let _ = candidate.add_edge(u, v);
                }
            }
            let within: BTreeSet<usize> = candidate.non_isolated_nodes().into_iter().collect();
            if query.iter().all(|q| within.contains(q)) && all_connected(&candidate, query, &within)
            {
                let comp = component_of(&candidate, query[0], Some(&within));
                let pruned = candidate.induced_subgraph(&comp);
                return (p, comp, pruned);
            }
        }
        (2, BTreeSet::new(), UnGraph::new(n))
    }

    #[test]
    fn maintain_p_truss_removes_broken_edges_and_isolated_nodes() {
        // Two triangles sharing an edge plus a pendant vertex.
        let g = UnGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        let d = crate::truss::truss_decomposition(&g);
        let mut sub = crate::truss::p_truss_subgraph(&g, &d, 3);
        let mut nodes: BTreeSet<usize> = sub.non_isolated_nodes().into_iter().collect();
        // Remove node 0: edges (1,2),(1,3),(2,3) still form a triangle (3-truss).
        sub.detach_node(0);
        nodes.remove(&0);
        maintain_p_truss(&mut sub, &mut nodes, 3);
        assert_eq!(nodes, [1, 2, 3].into_iter().collect());
        assert_eq!(sub.edge_count(), 3);
        // Now remove node 3; remaining edge (1,2) has no triangle and must go.
        sub.detach_node(3);
        nodes.remove(&3);
        maintain_p_truss(&mut sub, &mut nodes, 3);
        assert!(nodes.is_empty());
        assert_eq!(sub.edge_count(), 0);
    }

    #[test]
    fn dijkstra_prefers_lighter_paths() {
        // 0-1-2 with cheap edges, 0-2 expensive direct edge.
        let g = UnGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let (dist, parent) = dijkstra(&g, 0, |u, v| {
            if (u, v) == (0, 2) || (u, v) == (2, 0) {
                10.0
            } else {
                1.0
            }
        });
        assert!((dist[2] - 2.0).abs() < 1e-9);
        assert_eq!(reconstruct_path(&parent, 0, 2).unwrap(), vec![0, 1, 2]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steiner::steiner_tree;
    use crate::traversal::all_connected;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A graph with a dense 4-clique {0,1,2,3}, a triangle {4,5,6} bridged to
    /// the clique, and a long sparse path 7-8-9.
    fn test_graph() -> UnGraph {
        UnGraph::from_edges(
            10,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3), // clique
                (3, 4),
                (4, 5),
                (4, 6),
                (5, 6), // bridge + triangle
                (6, 7),
                (7, 8),
                (8, 9), // sparse tail
            ],
        )
        .unwrap()
    }

    #[test]
    fn community_contains_all_query_nodes() {
        let g = test_graph();
        let c = closest_truss_community(&g, &[0, 2], &CtcConfig::default()).unwrap();
        assert!(c.contains(0) && c.contains(2));
        assert!(c.trussness >= 3);
        assert!(c.edge_count() >= 1);
    }

    #[test]
    fn dense_clique_query_yields_clique_community() {
        let g = test_graph();
        let c = closest_truss_community(&g, &[0, 1, 2, 3], &CtcConfig::default()).unwrap();
        assert_eq!(c.trussness, 4);
        assert!(c.nodes.is_superset(&[0, 1, 2, 3].into_iter().collect()));
        // The sparse tail must not be dragged in.
        assert!(!c.contains(8) && !c.contains(9));
    }

    #[test]
    fn cross_cluster_query_stays_connected() {
        let g = test_graph();
        let c = closest_truss_community(&g, &[1, 5], &CtcConfig::default()).unwrap();
        let within = c.nodes.clone();
        let sub = UnGraph::from_edges(10, &c.edges).unwrap();
        assert!(all_connected(&sub, &[1, 5], &within));
        assert_ne!(c.diameter, usize::MAX);
    }

    #[test]
    fn isolated_query_node_is_preserved() {
        let mut g = test_graph();
        g.detach_node(9);
        let c = closest_truss_community(&g, &[0, 9], &CtcConfig::default()).unwrap();
        assert!(c.contains(9));
        assert!(c.contains(0));
    }

    #[test]
    fn empty_and_out_of_range_queries_error() {
        let g = test_graph();
        assert!(matches!(
            closest_truss_community(&g, &[], &CtcConfig::default()),
            Err(GraphError::EmptyQuery)
        ));
        assert!(matches!(
            closest_truss_community(&g, &[42], &CtcConfig::default()),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn single_node_query_returns_local_community() {
        let g = test_graph();
        let c = closest_truss_community(&g, &[0], &CtcConfig::default()).unwrap();
        assert!(c.contains(0));
        // Node 0 lives in the 4-clique, so its community should be dense.
        assert!(c.trussness >= 3);
    }

    #[test]
    fn every_edge_satisfies_trussness_invariant() {
        let g = test_graph();
        let c = closest_truss_community(&g, &[0, 1, 2, 3], &CtcConfig::default()).unwrap();
        let sub = UnGraph::from_edges(10, &c.edges).unwrap();
        if c.trussness > 2 {
            for &(u, v) in &c.edges {
                assert!(
                    sub.edge_support(u, v) + 2 >= c.trussness,
                    "edge ({u},{v}) violates {}-truss",
                    c.trussness
                );
            }
        }
    }

    #[test]
    fn triangle_free_graph_falls_back_to_steiner_tree() {
        let g = UnGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let c = closest_truss_community(&g, &[0, 4], &CtcConfig::default()).unwrap();
        assert!(c.contains(0) && c.contains(4));
        assert_eq!(c.trussness, 2);
    }

    #[test]
    fn decomposition_of_another_graph_is_a_typed_error() {
        let g = test_graph();
        let mut other = g.clone();
        other.remove_edge(8, 9);
        let d = truss_decomposition(&other);
        assert_eq!(
            closest_truss_community_with(&g, &d, &[0, 9], &CtcConfig::default()),
            Err(GraphError::DecompositionMismatch {
                nodes: 10,
                edges: 13,
                decomposition_nodes: 10,
                decomposition_edges: 12,
            })
        );
        // A decomposition of a smaller graph would index past its arrays.
        let small = truss_decomposition(&UnGraph::from_edges(3, &[(0, 1)]).unwrap());
        assert!(matches!(
            closest_truss_community_with(&g, &small, &[0, 9], &CtcConfig::default()),
            Err(GraphError::DecompositionMismatch { .. })
        ));
    }

    /// A seeded random graph on `n` nodes with about `edges` edges, most of
    /// them inside blocks of eight consecutive nodes so that dense trusses
    /// form, and with a few nodes left isolated.
    fn clustered_graph(n: usize, edges: usize, seed: u64) -> UnGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = UnGraph::new(n);
        let mut added = 0;
        for _ in 0..edges * 4 {
            if added == edges {
                break;
            }
            let u = rng.gen_range(0..n);
            let v = if rng.gen_bool(0.6) {
                (u / 8 * 8 + rng.gen_range(0..8)).min(n - 1)
            } else {
                rng.gen_range(0..n)
            };
            if u != v && !g.has_edge(u, v) {
                g.add_edge(u, v).unwrap();
                added += 1;
            }
        }
        for _ in 0..rng.gen_range(0..3) {
            g.detach_node(rng.gen_range(0..n));
        }
        g
    }

    /// The canonical sequence of a query: its distinct nodes, ascending.
    fn canonical(query: &[usize]) -> Vec<usize> {
        let mut set = query.to_vec();
        set.sort_unstable();
        set.dedup();
        set
    }

    /// Asserts that the decomposition equals the oracle's, and that the
    /// Steiner tree and the community of every query equal the oracle's
    /// answers for the query's canonical sequence.
    fn assert_matches_oracle(g: &UnGraph, queries: &[Vec<usize>], config: &CtcConfig) {
        let (new, old) = (truss_decomposition(g), oracle::truss_decomposition(g));
        assert_eq!(
            (new.len(), new.max_truss(), new.min_truss()),
            (old.len(), old.max_truss(), old.min_truss())
        );
        let mut want: Vec<((usize, usize), usize)> = old.iter().map(|(&e, &t)| (e, t)).collect();
        want.sort_unstable();
        assert_eq!(new.iter().collect::<Vec<_>>(), want);
        for query in queries {
            let sequence = canonical(query);
            let tree = steiner_tree(g, query, &new).map(|t| (t.nodes, t.edges));
            let want_tree = oracle::steiner_tree(g, &sequence, &old).map(|t| (t.nodes, t.edges));
            assert_eq!(tree, want_tree, "Steiner tree of {query:?}");
            assert_eq!(
                closest_truss_community_with(g, &new, query, config),
                oracle::closest_truss_community_with(g, &old, &sequence, config),
                "community of {query:?} under {config:?}"
            );
        }
    }

    /// Every ordering of `items`, one per choice of first item and ordering
    /// of the rest, so `n!` of them even when items repeat.
    fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        (0..items.len())
            .flat_map(|i| {
                let mut rest = items.to_vec();
                let first = rest.remove(i);
                permutations(&rest).into_iter().map(move |mut order| {
                    order.insert(0, first);
                    order
                })
            })
            .collect()
    }

    /// Queries from raw draws: a node id modulo `n + 2`, so that some fall
    /// out of range, with the first node repeated in every other query.
    fn queries_from(draws: &[Vec<usize>], n: usize) -> Vec<Vec<usize>> {
        draws
            .iter()
            .map(|picks| {
                let mut query: Vec<usize> = picks.iter().map(|&p| p % (n + 2)).collect();
                if let Some(&first) = query.first().filter(|_| picks.len() % 2 == 0) {
                    query.push(first);
                }
                query
            })
            .collect()
    }

    /// `count` seeded queries of 1-5 nodes of a graph on `n` nodes.
    fn seeded_queries(n: usize, count: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                (0..rng.gen_range(1..6))
                    .map(|_| rng.gen_range(0..n))
                    .collect()
            })
            .collect()
    }

    /// The Steiner tree and the community of `query`.
    type Answer = (
        Result<(BTreeSet<usize>, Vec<(usize, usize)>), GraphError>,
        Result<Community, GraphError>,
    );

    fn answer(g: &UnGraph, d: &TrussDecomposition, query: &[usize]) -> Answer {
        (
            steiner_tree(g, query, d).map(|t| (t.nodes, t.edges)),
            closest_truss_community_with(g, d, query, &CtcConfig::default()),
        )
    }

    #[test]
    fn answers_do_not_depend_on_which_queries_filled_the_memo() {
        for seed in 0..6 {
            let g = clustered_graph(86, 340, seed);
            let queries = seeded_queries(86, 16, seed);
            let (forward, backward) = (truss_decomposition(&g), truss_decomposition(&g));
            let first: Vec<Answer> = queries.iter().map(|q| answer(&g, &forward, q)).collect();
            let mut second: Vec<Answer> = queries
                .iter()
                .rev()
                .map(|q| answer(&g, &backward, q))
                .collect();
            second.reverse();
            assert_eq!(first, second, "seed {seed}");
            // Both filled the same rows, each with the whole tree of the
            // node-set implementation's Dijkstra.
            let old = oracle::truss_decomposition(&g);
            let mut filled = 0;
            for u in 0..g.node_count() {
                let row = forward.memoized_tree(u);
                assert_eq!(row, backward.memoized_tree(u), "row {u}, seed {seed}");
                if let Some(row) = row {
                    let weight = |a, b| oracle::truss_distance_weight(&old, a, b);
                    let (dist, parent) = oracle::dijkstra(&g, u, weight);
                    assert_eq!((&row.dist, &row.parent), (&dist, &parent), "row {u}");
                    filled += 1;
                }
            }
            assert!(filled > 0, "seed {seed} filled no row");
        }
    }

    #[test]
    fn threads_sharing_one_memo_get_the_single_threaded_answers() {
        let g = clustered_graph(86, 340, 11);
        let queries = seeded_queries(86, 24, 11);
        let fresh = truss_decomposition(&g);
        let want: Vec<Answer> = queries.iter().map(|q| answer(&g, &fresh, q)).collect();
        let shared = truss_decomposition(&g);
        let start = std::sync::Barrier::new(4);
        let got: Vec<Vec<Answer>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        queries.iter().map(|q| answer(&g, &shared, q)).collect()
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("query thread panicked"))
                .collect()
        });
        for answers in got {
            assert_eq!(answers, want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random graphs of 2-120 nodes, sparse to dense, under varied
        /// search configurations.
        #[test]
        fn compact_search_matches_the_oracle(
            n in 2usize..=120,
            mean_degree in 0usize..=16,
            seed in any::<u64>(),
            draws in proptest::collection::vec(proptest::collection::vec(any::<usize>(), 0..6), 6),
            expansion_size in 0usize..=60,
            max_shrink_iterations in 0usize..=120,
        ) {
            let g = clustered_graph(n, n * mean_degree / 2, seed);
            let config = CtcConfig { expansion_size, max_shrink_iterations };
            assert_matches_oracle(&g, &queries_from(&draws, n), &config);
        }

        /// Graphs of the DDI fixture's size (86 drugs, 340 interactions)
        /// under the serving configuration.
        #[test]
        fn compact_search_matches_the_oracle_at_fixture_density(
            seed in any::<u64>(),
            draws in proptest::collection::vec(proptest::collection::vec(any::<usize>(), 1..6), 24),
        ) {
            let g = clustered_graph(86, 340, seed);
            assert_matches_oracle(&g, &queries_from(&draws, 86), &CtcConfig::default());
        }

        /// Every ordering of a query with a repeated node gets the Steiner
        /// tree and the community of its ascending distinct set, and two
        /// nodes outside the graph are refused naming the smaller.
        #[test]
        fn searches_answer_for_the_query_set(
            n in 2usize..=120,
            mean_degree in 0usize..=16,
            seed in any::<u64>(),
            picks in proptest::collection::vec(any::<usize>(), 1..5),
            repeat in any::<usize>(),
            beyond in (0usize..4, 1usize..4),
        ) {
            let g = clustered_graph(n, n * mean_degree / 2, seed);
            let d = truss_decomposition(&g);
            let mut query: Vec<usize> = picks.iter().map(|&p| p % n).collect();
            query.push(query[repeat % query.len()]);
            let want = answer(&g, &d, &canonical(&query));
            assert!(want.0.is_ok() && want.1.is_ok(), "{query:?}: {want:?}");
            let orders = permutations(&query);
            assert_eq!(orders.len(), (1..=query.len()).product::<usize>());
            for order in orders {
                assert_eq!(answer(&g, &d, &order), want, "order {order:?}");
            }
            let (low, high) = (n + beyond.0, n + beyond.0 + beyond.1);
            let refused = Err(GraphError::NodeOutOfRange { node: low, nodes: n });
            for outside in [vec![high, query[0], low], vec![low, high], vec![high, low, high]] {
                let (tree, community) = answer(&g, &d, &outside);
                assert_eq!(tree.map(|_| ()), refused, "{outside:?}");
                assert_eq!(community.map(|_| ()), refused, "{outside:?}");
            }
        }
    }
}
