//! Truss decomposition (Wang & Cheng, PVLDB 2012).
//!
//! The *support* of an edge is the number of triangles containing it. A
//! subgraph is a *p-truss* when every edge has support at least `p − 2`
//! inside the subgraph. The *truss number* of an edge is the largest `p`
//! such that the edge belongs to a p-truss. The Medical Support module uses
//! these quantities to find dense, well-connected explanation subgraphs
//! around the suggested drugs (Definition 5 and Algorithm 1 of the paper).
//!
//! # Layout
//!
//! A [`TrussDecomposition`] is one compressed-sparse-row (CSR) store of the
//! graph it was built from. Node `u`'s neighbours occupy the slots
//! `offsets[u]..offsets[u + 1]` in ascending order. Each slot carries the
//! neighbour, the edge's id (its rank among the normalised edges `(u, v)`,
//! `u < v`, in ascending order), the edge's truss number and its
//! truss-aware Steiner weight ([`crate::steiner`]). The two slots of an edge
//! carry the same id, truss number and weight. An edge lookup is a binary
//! search in one node's slots. Dijkstra and the candidate expansion of
//! Algorithm 1 walk the slots directly.
//!
//! The decomposition also memoises shortest paths: one [`OnceLock`] slot per
//! node, filled on the first Steiner query that starts a Dijkstra there,
//! holds that node's whole shortest-path tree under the Steiner weights (a
//! distance and a parent per node, see [`crate::steiner`]). The graph and
//! its weights are fixed once the decomposition is built, so a filled row
//! never changes, and every later query from that node reads it instead of
//! rerunning Dijkstra. A row holds `2n` entries, so the memo grows to at
//! most `n²` distances and `n²` parents when every node has been queried:
//! 118 KB on the 86-drug graph. It lives and dies with the decomposition; a
//! clone copies the rows filled so far.
//!
//! # Peeling
//!
//! Truss numbers are computed by queue peeling over edge ids. At level `k`
//! every edge whose support has fallen to `k − 2` or below is removed and
//! numbered `k`, and each triangle it closed lowers its two other edges'
//! supports, which may queue them too. An edge's truss number is the largest
//! `k` whose maximal k-truss contains it, and a maximal k-truss is the
//! fixpoint of removing under-supported edges in any order. So the numbers
//! do not depend on the order edges are peeled in.

use std::sync::OnceLock;

use crate::steiner::{shortest_paths, steiner_weight, PathTree};
use crate::UnGraph;

/// One neighbour slot of the CSR store: a neighbour and the edge to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Slot {
    /// The neighbour.
    pub(crate) node: usize,
    /// The edge's rank among the graph's normalised edges, ascending.
    pub(crate) edge: usize,
    /// The edge's truss number.
    pub(crate) truss: usize,
    /// The edge's truss-aware Steiner weight.
    pub(crate) weight: f64,
}

/// Result of a truss decomposition: the graph's adjacency with the truss
/// number of every edge (see the module docs for the layout).
#[derive(Debug, Clone, Default)]
pub struct TrussDecomposition {
    /// `offsets[u]..offsets[u + 1]` are node `u`'s slots (`n + 1` entries,
    /// none for the default, node-less decomposition).
    offsets: Vec<usize>,
    slots: Vec<Slot>,
    // Cached at construction: the Steiner weights need it, and so does
    // every caller of `max_truss`.
    max_truss: usize,
    /// `trees[u]` is node `u`'s shortest-path tree, filled on first use.
    trees: Vec<OnceLock<PathTree>>,
}

impl TrussDecomposition {
    /// Truss number of edge `{u, v}`; `None` if the edge is not present.
    pub fn truss(&self, u: usize, v: usize) -> Option<usize> {
        self.slot(u, v).map(|s| s.truss)
    }

    /// Largest truss number over all edges (2 for a triangle-free graph,
    /// 0 for an edgeless graph). O(1): computed once at decomposition time.
    pub fn max_truss(&self) -> usize {
        self.max_truss
    }

    /// Smallest truss number over all edges (0 for an edgeless graph).
    pub fn min_truss(&self) -> usize {
        self.slots.iter().map(|s| s.truss).min().unwrap_or(0)
    }

    /// Iterator over `((u, v), truss)` entries, `u < v`, in ascending edge
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), usize)> + '_ {
        (0..self.node_count()).flat_map(move |u| {
            self.slots(u)
                .iter()
                .filter(move |s| s.node > u)
                .map(move |s| ((u, s.node), s.truss))
        })
    }

    /// Number of edges covered by the decomposition.
    pub fn len(&self) -> usize {
        self.slots.len() / 2
    }

    /// True when the decomposition covers no edges.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of nodes of the decomposed graph.
    pub(crate) fn node_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Node `u`'s slots, ascending by neighbour (empty when `u` is out of
    /// range).
    pub(crate) fn slots(&self, u: usize) -> &[Slot] {
        match (self.offsets.get(u), self.offsets.get(u + 1)) {
            (Some(&start), Some(&end)) => self.slots.get(start..end).unwrap_or_default(),
            _ => &[],
        }
    }

    /// Node `u`'s shortest-path tree under the Steiner weights, computed on
    /// the first call and read from the memo afterwards (`None` when `u` is
    /// out of range).
    pub(crate) fn path_tree(&self, u: usize) -> Option<&PathTree> {
        let memo = self.trees.get(u)?;
        Some(memo.get_or_init(|| shortest_paths(self, u)))
    }

    /// Node `u`'s shortest-path tree if a query has already filled it.
    #[cfg(test)]
    pub(crate) fn memoized_tree(&self, u: usize) -> Option<&PathTree> {
        self.trees.get(u).and_then(OnceLock::get)
    }

    /// The slot of edge `{u, v}` on `u`'s side.
    fn slot(&self, u: usize, v: usize) -> Option<&Slot> {
        let slots = self.slots(u);
        let at = slots.binary_search_by_key(&v, |s| s.node).ok()?;
        slots.get(at)
    }
}

/// Computes the truss number of every edge by queue peeling (see the module
/// docs).
pub fn truss_decomposition(graph: &UnGraph) -> TrussDecomposition {
    let n = graph.node_count();
    let mut store = TrussDecomposition {
        offsets: Vec::with_capacity(n + 1),
        slots: Vec::new(),
        max_truss: 0,
        trees: std::iter::repeat_with(OnceLock::new).take(n).collect(),
    };
    store.offsets.push(0);
    // Nodes are laid out in ascending order, so a smaller neighbour's slots
    // are complete, and hold the id of the edge to `u`, when `u` is reached.
    let mut ends: Vec<(usize, usize)> = Vec::new();
    for u in 0..n {
        for node in graph.neighbors(u) {
            let edge = if node < u {
                store.slot(node, u).map_or(usize::MAX, |s| s.edge)
            } else {
                ends.push((u, node));
                ends.len() - 1
            };
            store.slots.push(Slot {
                node,
                edge,
                truss: 0,
                weight: 0.0,
            });
        }
        store.offsets.push(store.slots.len());
    }

    let mut support: Vec<usize> = ends
        .iter()
        .map(|&(u, v)| {
            let mut triangles = 0;
            common_neighbors(store.slots(u), store.slots(v), |_, _| triangles += 1);
            triangles
        })
        .collect();
    // 0 marks an edge not yet peeled; peeled edges get their level (>= 2).
    let mut truss = vec![0usize; ends.len()];
    let mut left = ends.len();
    let mut queue: Vec<usize> = Vec::new();
    let mut k = 2;
    while left > 0 {
        queue.extend(
            truss
                .iter()
                .zip(&support)
                .enumerate()
                .filter(|&(_, (&t, &s))| t == 0 && s + 2 <= k)
                .map(|(e, _)| e),
        );
        while let Some(e) = queue.pop() {
            match truss.get_mut(e) {
                Some(t) if *t == 0 => *t = k,
                _ => continue,
            }
            left -= 1;
            let Some(&(u, v)) = ends.get(e) else { continue };
            // Removing `e` destroys every triangle it closed with two
            // unpeeled edges.
            common_neighbors(store.slots(u), store.slots(v), |a, b| {
                if truss.get(a.edge) != Some(&0) || truss.get(b.edge) != Some(&0) {
                    return;
                }
                for f in [a.edge, b.edge] {
                    if let Some(s) = support.get_mut(f) {
                        *s = s.saturating_sub(1);
                        if *s + 2 <= k {
                            queue.push(f);
                        }
                    }
                }
            });
        }
        k += 1;
    }

    store.max_truss = truss.iter().copied().max().unwrap_or(0);
    let max_truss = store.max_truss;
    for slot in &mut store.slots {
        slot.truss = truss.get(slot.edge).copied().unwrap_or(0);
        slot.weight = steiner_weight(max_truss, slot.truss);
    }
    store
}

/// Calls `f` with the pair of slots of every neighbour common to the two
/// ascending slot lists.
fn common_neighbors(a: &[Slot], b: &[Slot], mut f: impl FnMut(&Slot, &Slot)) {
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
        match x.node.cmp(&y.node) {
            std::cmp::Ordering::Less => {
                a.next();
            }
            std::cmp::Ordering::Greater => {
                b.next();
            }
            std::cmp::Ordering::Equal => {
                f(x, y);
                a.next();
                b.next();
            }
        }
    }
}

/// Returns the subgraph formed by all edges whose truss number is at least
/// `p` (node indices are preserved).
pub fn p_truss_subgraph(graph: &UnGraph, decomposition: &TrussDecomposition, p: usize) -> UnGraph {
    let mut sub = UnGraph::new(graph.node_count());
    for ((u, v), t) in decomposition.iter() {
        if t >= p {
            let _ = sub.add_edge(u, v);
        }
    }
    sub
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two triangles sharing an edge plus a pendant vertex.
    fn diamond_with_tail() -> UnGraph {
        UnGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn truss_numbers_of_known_graph() {
        let g = diamond_with_tail();
        let d = truss_decomposition(&g);
        // Every triangle edge is in a 3-truss; the shared edge (1,2) has
        // support 2 but is still only a 3-truss because its triangles are
        // not mutually reinforcing after peeling. The pendant edge is a 2-truss.
        assert_eq!(d.truss(3, 4), Some(2));
        assert_eq!(d.truss(0, 1), Some(3));
        assert_eq!(d.truss(1, 2), Some(3));
        assert_eq!(d.max_truss(), 3);
        assert_eq!(d.min_truss(), 2);
        assert_eq!(d.len(), g.edge_count());
    }

    #[test]
    fn four_clique_is_a_four_truss() {
        let g = UnGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let d = truss_decomposition(&g);
        for (u, v) in g.edges() {
            assert_eq!(d.truss(u, v), Some(4), "edge ({u},{v})");
        }
    }

    #[test]
    fn triangle_free_graph_has_truss_two() {
        let g = UnGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let d = truss_decomposition(&g);
        assert_eq!(d.max_truss(), 2);
        assert_eq!(d.min_truss(), 2);
    }

    #[test]
    fn empty_graph_decomposition() {
        let g = UnGraph::new(3);
        let d = truss_decomposition(&g);
        assert!(d.is_empty());
        assert_eq!(d.max_truss(), 0);
    }

    #[test]
    fn p_truss_subgraph_keeps_only_dense_edges() {
        let g = diamond_with_tail();
        let d = truss_decomposition(&g);
        let sub = p_truss_subgraph(&g, &d, 3);
        assert!(!sub.has_edge(3, 4));
        assert!(sub.has_edge(0, 1));
        assert_eq!(sub.edge_count(), 5);
    }

    #[test]
    fn decomposition_is_invariant_to_edge_insertion_order() {
        let edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)];
        let mut reversed = edges;
        reversed.reverse();
        let a = truss_decomposition(&UnGraph::from_edges(5, &edges).unwrap());
        let b = truss_decomposition(&UnGraph::from_edges(5, &reversed).unwrap());
        for (u, v) in UnGraph::from_edges(5, &edges).unwrap().edges() {
            assert_eq!(a.truss(u, v), b.truss(u, v));
        }
    }

    #[test]
    fn slots_mirror_each_edge_in_ascending_order() {
        let g = diamond_with_tail();
        let d = truss_decomposition(&g);
        assert_eq!(d.node_count(), 5);
        let entries: Vec<((usize, usize), usize)> = d.iter().collect();
        let edges: Vec<(usize, usize)> = entries.iter().map(|&(e, _)| e).collect();
        assert_eq!(edges, g.edges());
        for (id, &((u, v), t)) in entries.iter().enumerate() {
            for (from, to) in [(u, v), (v, u)] {
                let slot = d.slot(from, to).unwrap();
                assert_eq!((slot.edge, slot.truss), (id, t));
                assert_eq!(slot.weight, steiner_weight(d.max_truss(), t));
            }
        }
        assert!(d.slots(5).is_empty());
        assert_eq!(d.truss(0, 4), None);
        assert_eq!(d.truss(9, 0), None);
    }
}
