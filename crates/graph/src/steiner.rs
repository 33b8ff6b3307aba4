//! Approximate Steiner trees (Mehlhorn-style 2-approximation).
//!
//! The closest-truss-community search starts from a Steiner tree connecting
//! the suggested drugs in the DDI graph (line 2 of Algorithm 1). Following
//! the paper, path lengths use a *truss-aware distance*: edges belonging to
//! denser trusses are cheaper, so the tree prefers routing through strongly
//! interacting drug clusters.
//!
//! Shortest paths run Dijkstra over the truss decomposition's neighbour
//! slots, whose precomputed weights are the truss-aware distance. Which of
//! several equal-distance entries leaves the heap first depends only on the
//! sequence of pushes and pops, so the slots' ascending neighbour order and
//! the weight expression of `steiner_weight` fix which of several
//! shortest paths the tree takes.
//!
//! Each Dijkstra runs until the heap is empty, not only until the query
//! nodes settle, and its tree is memoised in the decomposition (see the
//! layout in [`crate::truss`]), so any later query from the same node reads
//! it. The full run keeps the tie order of a run that stops early: it makes
//! the same pushes and pops up to the point where that run would stop, and
//! only adds pops after it. Every weight is at least 1 and the heap pops
//! distances in ascending order, so a later relaxation of a settled node
//! offers a strictly longer distance and is refused: a node's distance and
//! its whole parent chain are final once it is popped. So a tree does not
//! depend on which query filled a row, or in which order rows were filled.

use std::collections::{BTreeSet, BinaryHeap};

use crate::traversal::reconstruct_path;
use crate::truss::TrussDecomposition;
use crate::ungraph::norm_edge;
use crate::{GraphError, UnGraph};

/// A tree (or forest, if the query is disconnected) embedded in the host graph.
#[derive(Debug, Clone)]
pub struct SteinerTree {
    /// Nodes spanned by the tree, including the query nodes.
    pub nodes: BTreeSet<usize>,
    /// Edges of the tree as normalised `(min, max)` pairs.
    pub edges: Vec<(usize, usize)>,
}

impl SteinerTree {
    /// Total number of edges in the tree.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Materialises the tree as an [`UnGraph`] over the host graph's node space.
    pub fn to_graph(&self, n: usize) -> Result<UnGraph, GraphError> {
        UnGraph::from_edges(n, &self.edges)
    }
}

/// Truss-aware edge weight: `1 + (k_max − truss) / (k_max + 1)`, where
/// `k_max` is the graph's largest truss number (at least 2), so every edge
/// costs at least 1 hop and at most 2 and an edge in a denser truss is
/// cheaper to cross.
pub(crate) fn steiner_weight(max_truss: usize, truss: usize) -> f64 {
    let k_max = max_truss.max(2) as f64;
    let t = truss as f64;
    1.0 + (k_max - t).max(0.0) / (k_max + 1.0)
}

/// The query as a set: its distinct nodes in ascending order, once
/// `decomposition` is known to fit `graph` and every node to be in range.
///
/// Every search checks and orders its query here and nowhere else, so it
/// answers for the set whatever order or repeats the caller passed, and a
/// node outside the graph is reported as the smallest such node. A
/// decomposition fits when it has the graph's node and edge counts; the
/// search reads only the decomposition's adjacency after this check.
pub(crate) fn distinct_query(
    graph: &UnGraph,
    decomposition: &TrussDecomposition,
    query: &[usize],
) -> Result<Vec<usize>, GraphError> {
    let (nodes, edges) = (graph.node_count(), graph.edge_count());
    if decomposition.node_count() != nodes || decomposition.len() != edges {
        return Err(GraphError::DecompositionMismatch {
            nodes,
            edges,
            decomposition_nodes: decomposition.node_count(),
            decomposition_edges: decomposition.len(),
        });
    }
    let mut set = query.to_vec();
    set.sort_unstable();
    set.dedup();
    if let Some(&node) = set.iter().find(|&&q| q >= nodes) {
        return Err(GraphError::NodeOutOfRange { node, nodes });
    }
    if set.is_empty() {
        return Err(GraphError::EmptyQuery);
    }
    Ok(set)
}

/// Computes an approximate minimum Steiner tree connecting `query` in
/// `graph`, using Mehlhorn's construction: build the complete distance graph
/// over the query nodes, take its minimum spanning tree, expand each MST
/// edge into the underlying shortest path, and prune non-query leaves.
///
/// The tree is of the query *set*: the construction runs on its distinct
/// nodes in ascending order (Prim's root is the smallest), so every order
/// and repetition of the same nodes gives the same tree. An empty query is
/// a [`GraphError::EmptyQuery`], and a node outside the graph a
/// [`GraphError::NodeOutOfRange`] naming the smallest such node.
///
/// Query nodes in different connected components yield a forest containing
/// each reachable part (no error), because the MS module must still explain
/// drug suggestions whose DDI neighbourhoods are disconnected.
///
/// `decomposition` must be the truss decomposition of `graph`; one with a
/// different node or edge count is a [`GraphError::DecompositionMismatch`].
pub fn steiner_tree(
    graph: &UnGraph,
    query: &[usize],
    decomposition: &TrussDecomposition,
) -> Result<SteinerTree, GraphError> {
    let query = distinct_query(graph, decomposition, query)?;
    let (nodes, edges) = tree(decomposition, &query);
    Ok(SteinerTree {
        nodes: nodes.into_iter().collect(),
        edges,
    })
}

/// [`steiner_tree`] over a checked query set (ascending, distinct): the
/// tree's nodes and normalised edges, both ascending.
pub(crate) fn tree(
    decomposition: &TrussDecomposition,
    query: &[usize],
) -> (Vec<usize>, Vec<(usize, usize)>) {
    let mut nodes = query.to_vec();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    if query.len() < 2 {
        return (nodes, edges);
    }

    // Shortest paths from every query node under the truss-aware metric.
    let paths: Vec<Option<&PathTree>> = query.iter().map(|&q| decomposition.path_tree(q)).collect();
    let cost = |from: usize, to: usize| {
        paths
            .get(from)
            .copied()
            .flatten()
            .and_then(|tree| tree.dist.get(to))
            .copied()
            .unwrap_or(f64::INFINITY)
    };

    // Prim's MST over the complete distance graph on the query nodes:
    // (joined, cheapest known cost, query index it comes from).
    let mut terminals: Vec<(bool, f64, usize)> = query
        .iter()
        .enumerate()
        .map(|(j, &q)| (j == 0, if j == 0 { f64::INFINITY } else { cost(0, q) }, 0))
        .collect();
    for _ in 1..query.len() {
        let mut pick: Option<(usize, f64)> = None;
        for (j, &(joined, c, _)) in terminals.iter().enumerate() {
            if !joined && c < pick.map_or(f64::INFINITY, |(_, best)| best) {
                pick = Some((j, c));
            }
        }
        // Remaining query nodes are unreachable; leave them isolated.
        let Some((pick, _)) = pick else { break };
        let Some(from) = terminals.get_mut(pick).map(|t| {
            t.0 = true;
            t.2
        }) else {
            break;
        };
        // Expand the MST edge (from -> pick) into its shortest path.
        let ends = (query.get(from), query.get(pick));
        if let (Some(Some(tree)), (Some(&source), Some(&target))) = (paths.get(from), ends) {
            if let Some(path) = reconstruct_path(&tree.parent, source, target) {
                nodes.extend_from_slice(&path);
                edges.extend(path.windows(2).filter_map(|w| match w {
                    &[a, b] => Some(norm_edge(a, b)),
                    _ => None,
                }));
            }
        }
        for (t, &q) in terminals.iter_mut().zip(query) {
            let c = cost(pick, q);
            if !t.0 && c < t.1 {
                t.1 = c;
                t.2 = pick;
            }
        }
    }
    nodes.sort_unstable();
    nodes.dedup();
    edges.sort_unstable();
    edges.dedup();
    prune_leaves(&mut nodes, &mut edges, query);
    (nodes, edges)
}

/// One node's shortest-path tree under the Steiner weights.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PathTree {
    /// Distance from the source to every node (`f64::INFINITY` when
    /// unreachable).
    pub(crate) dist: Vec<f64>,
    /// Every node's predecessor on its shortest path (`usize::MAX` for the
    /// source and unreachable nodes).
    pub(crate) parent: Vec<usize>,
}

/// Dijkstra from `source` over the decomposition's slots, run until the
/// heap is empty (see the module docs for why its ties match a run that
/// stops early).
pub(crate) fn shortest_paths(decomposition: &TrussDecomposition, source: usize) -> PathTree {
    let n = decomposition.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![usize::MAX; n];
    // Max-heap on reversed ordering of the distance alone: equal distances
    // pop in an order set by the push sequence. Distances are finite and at
    // least +0.0, where `total_cmp` agrees with the numeric order.
    #[derive(PartialEq)]
    struct Entry(f64, usize);
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other.0.total_cmp(&self.0)
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    let mut heap = BinaryHeap::new();
    if let Some(d) = dist.get_mut(source) {
        *d = 0.0;
        heap.push(Entry(0.0, source));
    }
    while let Some(Entry(d, u)) = heap.pop() {
        if dist.get(u).is_some_and(|&best| d > best) {
            continue;
        }
        for slot in decomposition.slots(u) {
            let nd = d + slot.weight;
            if let (Some(dv), Some(pv)) = (dist.get_mut(slot.node), parent.get_mut(slot.node)) {
                if nd < *dv {
                    *dv = nd;
                    *pv = u;
                    heap.push(Entry(nd, slot.node));
                }
            }
        }
    }
    PathTree { dist, parent }
}

/// Mehlhorn's final clean-up: removes every non-query leaf, round after
/// round, until none is left. `nodes`, `edges` and `query` are ascending.
fn prune_leaves(nodes: &mut Vec<usize>, edges: &mut Vec<(usize, usize)>, query: &[usize]) {
    loop {
        let mut degree = vec![0usize; nodes.len()];
        for &(u, v) in edges.iter() {
            for end in [u, v] {
                if let Some(d) = nodes
                    .binary_search(&end)
                    .ok()
                    .and_then(|i| degree.get_mut(i))
                {
                    *d += 1;
                }
            }
        }
        let leaves: Vec<usize> = nodes
            .iter()
            .zip(&degree)
            .filter(|&(v, &d)| d == 1 && query.binary_search(v).is_err())
            .map(|(&v, _)| v)
            .collect();
        if leaves.is_empty() {
            break;
        }
        let is_leaf = |v: &usize| leaves.binary_search(v).is_ok();
        edges.retain(|(u, v)| !is_leaf(u) && !is_leaf(v));
        nodes.retain(|v| !is_leaf(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truss::truss_decomposition;

    fn grid_graph() -> UnGraph {
        // 0-1-2
        // |   |
        // 3-4-5   plus a dense triangle 1-4-6 to attract truss-aware paths
        UnGraph::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (0, 3),
                (2, 5),
                (3, 4),
                (4, 5),
                (1, 4),
                (1, 6),
                (4, 6),
            ],
        )
        .unwrap()
    }

    #[test]
    fn steiner_tree_connects_all_query_nodes() {
        let g = grid_graph();
        let d = truss_decomposition(&g);
        let t = steiner_tree(&g, &[0, 5, 6], &d).unwrap();
        let tree_graph = t.to_graph(g.node_count()).unwrap();
        let within = t.nodes.clone();
        assert!(crate::traversal::all_connected(
            &tree_graph,
            &[0, 5, 6],
            &within
        ));
        // A tree has |nodes| - 1 edges when connected.
        assert_eq!(t.edge_count(), t.nodes.len() - 1);
    }

    #[test]
    fn single_query_node_yields_trivial_tree() {
        let g = grid_graph();
        let d = truss_decomposition(&g);
        let t = steiner_tree(&g, &[3], &d).unwrap();
        assert_eq!(t.nodes.len(), 1);
        assert_eq!(t.edge_count(), 0);
    }

    #[test]
    fn duplicate_query_nodes_are_deduplicated() {
        let g = grid_graph();
        let d = truss_decomposition(&g);
        let t = steiner_tree(&g, &[2, 2, 2], &d).unwrap();
        assert_eq!(t.nodes.len(), 1);
    }

    #[test]
    fn empty_query_is_an_error_and_out_of_range_is_an_error() {
        let g = grid_graph();
        let d = truss_decomposition(&g);
        assert!(matches!(
            steiner_tree(&g, &[], &d),
            Err(GraphError::EmptyQuery)
        ));
        assert!(matches!(
            steiner_tree(&g, &[99], &d),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn disconnected_query_produces_partial_forest_without_error() {
        let g = UnGraph::from_edges(5, &[(0, 1), (2, 3)]).unwrap();
        let d = truss_decomposition(&g);
        let t = steiner_tree(&g, &[0, 1, 4], &d).unwrap();
        assert!(t.nodes.contains(&0) && t.nodes.contains(&1) && t.nodes.contains(&4));
        assert_eq!(t.edge_count(), 1);
    }

    #[test]
    fn truss_distance_prefers_dense_edges() {
        let g = grid_graph();
        let d = truss_decomposition(&g);
        let weight = |u: usize, v: usize| {
            let slots = d.slots(u);
            slots.iter().find(|s| s.node == v).unwrap().weight
        };
        // (1,4) belongs to the triangle 1-4-6 (3-truss), (0,1) does not.
        assert!(weight(1, 4) < weight(0, 1));
        // Every edge costs between 1 and 2 hops.
        assert!((0..7).all(|u| d.slots(u).iter().all(|s| (1.0..=2.0).contains(&s.weight))));
    }

    #[test]
    fn steiner_tree_has_no_superfluous_leaves() {
        let g = grid_graph();
        let d = truss_decomposition(&g);
        let t = steiner_tree(&g, &[0, 2], &d).unwrap();
        let tree_graph = t.to_graph(g.node_count()).unwrap();
        for &v in &t.nodes {
            if v != 0 && v != 2 {
                assert!(tree_graph.degree(v) >= 2, "non-query leaf {v} left in tree");
            }
        }
    }

    #[test]
    fn decomposition_of_another_graph_is_a_typed_error() {
        let g = grid_graph();
        let smaller = truss_decomposition(&UnGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap());
        assert_eq!(
            steiner_tree(&g, &[0, 6], &smaller).unwrap_err(),
            GraphError::DecompositionMismatch {
                nodes: 7,
                edges: 9,
                decomposition_nodes: 3,
                decomposition_edges: 2,
            }
        );
        let mut fewer_edges = g.clone();
        fewer_edges.remove_edge(1, 6);
        let d = truss_decomposition(&fewer_edges);
        assert!(matches!(
            steiner_tree(&g, &[0, 6], &d),
            Err(GraphError::DecompositionMismatch { .. })
        ));
        assert!(steiner_tree(&g, &[0, 6], &TrussDecomposition::default()).is_err());
    }
}
