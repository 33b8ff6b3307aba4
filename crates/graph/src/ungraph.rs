//! Simple undirected graphs with deterministic iteration order.
//!
//! [`UnGraph`] is the structural backbone used by the Medical Support
//! module: truss decomposition, Steiner tree computation and the closest
//! truss community search all operate on it. Node identifiers are dense
//! `usize` indices (drug IDs in the DDI graph).

use std::collections::BTreeSet;

use crate::GraphError;

/// An undirected simple graph over nodes `0..n`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnGraph {
    adj: Vec<BTreeSet<usize>>,
}

/// Normalises an edge so the smaller endpoint comes first.
#[inline]
pub fn norm_edge(u: usize, v: usize) -> (usize, usize) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

impl UnGraph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Self {
            adj: vec![BTreeSet::new(); n],
        }
    }

    /// Builds a graph from an edge list.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        let mut g = Self::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Number of nodes (including isolated ones).
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(BTreeSet::len).sum::<usize>() / 2
    }

    /// Adds an undirected edge. Self-loops are rejected; duplicate edges are
    /// ignored (simple graph).
    #[expect(
        clippy::indexing_slicing,
        reason = "both endpoints are checked against the node count above"
    )]
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        let n = self.node_count();
        if u >= n || v >= n {
            return Err(GraphError::NodeOutOfRange {
                node: u.max(v),
                nodes: n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        self.adj[u].insert(v);
        self.adj[v].insert(u);
        Ok(())
    }

    /// Removes an edge if present; returns whether it existed.
    #[expect(
        clippy::indexing_slicing,
        reason = "node ids below the node count are the caller's bound, as for every adjacency query"
    )]
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        let a = self.adj[u].remove(&v);
        let b = self.adj[v].remove(&u);
        a && b
    }

    /// Removes a node by detaching all its incident edges (the node index
    /// remains valid but isolated).
    #[expect(
        clippy::indexing_slicing,
        reason = "node ids below the node count are the caller's bound"
    )]
    pub fn detach_node(&mut self, v: usize) {
        let neighbours: Vec<usize> = self.adj[v].iter().copied().collect();
        for u in neighbours {
            self.remove_edge(u, v);
        }
    }

    /// True when the edge `{u, v}` exists.
    #[expect(
        clippy::indexing_slicing,
        reason = "`u` is checked against the node count first"
    )]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.node_count() && self.adj[u].contains(&v)
    }

    /// Neighbours of `v` in ascending order.
    #[expect(
        clippy::indexing_slicing,
        reason = "node ids below the node count are the caller's bound"
    )]
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[v].iter().copied()
    }

    /// Degree of `v`.
    #[expect(
        clippy::indexing_slicing,
        reason = "node ids below the node count are the caller's bound"
    )]
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// All edges as normalised `(min, max)` pairs in ascending order.
    #[expect(clippy::indexing_slicing, reason = "`u` ranges over the node count")]
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.edge_count());
        for u in 0..self.node_count() {
            for &v in &self.adj[u] {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// Nodes that have at least one incident edge.
    pub fn non_isolated_nodes(&self) -> Vec<usize> {
        (0..self.node_count())
            .filter(|&v| self.degree(v) > 0)
            .collect()
    }

    /// Number of triangles containing the edge `{u, v}` (its *support*).
    #[expect(
        clippy::indexing_slicing,
        reason = "`has_edge` above proved both endpoints are nodes"
    )]
    pub fn edge_support(&self, u: usize, v: usize) -> usize {
        if !self.has_edge(u, v) {
            return 0;
        }
        self.adj[u].intersection(&self.adj[v]).count()
    }

    /// Common neighbours of `u` and `v`.
    #[expect(
        clippy::indexing_slicing,
        reason = "node ids below the node count are the caller's bound"
    )]
    pub fn common_neighbors(&self, u: usize, v: usize) -> Vec<usize> {
        self.adj[u].intersection(&self.adj[v]).copied().collect()
    }

    /// Induced subgraph on `nodes` (other nodes become isolated; indices are
    /// preserved so drug IDs stay meaningful).
    #[expect(
        clippy::indexing_slicing,
        reason = "`nodes` holds node ids of this graph, the caller's bound"
    )]
    pub fn induced_subgraph(&self, nodes: &BTreeSet<usize>) -> UnGraph {
        let mut g = UnGraph::new(self.node_count());
        for &u in nodes {
            for &v in &self.adj[u] {
                if u < v && nodes.contains(&v) {
                    // Indices already validated by construction.
                    let _ = g.add_edge(u, v);
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> UnGraph {
        // 0-1, 1-2, 0-2 triangle; 2-3 tail.
        UnGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn edge_addition_and_counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.degree(2), 3);
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut g = UnGraph::new(2);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 0).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_and_out_of_range_are_rejected() {
        let mut g = UnGraph::new(2);
        assert!(matches!(g.add_edge(0, 0), Err(GraphError::SelfLoop { .. })));
        assert!(matches!(
            g.add_edge(0, 5),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn remove_and_detach() {
        let mut g = triangle_plus_tail();
        assert!(g.remove_edge(2, 3));
        assert!(!g.remove_edge(2, 3));
        assert_eq!(g.edge_count(), 3);
        g.detach_node(2);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn support_counts_triangles() {
        let g = triangle_plus_tail();
        assert_eq!(g.edge_support(0, 1), 1); // triangle 0-1-2
        assert_eq!(g.edge_support(2, 3), 0);
        assert_eq!(g.common_neighbors(0, 1), vec![2]);
    }

    #[test]
    fn induced_subgraph_preserves_indices() {
        let g = triangle_plus_tail();
        let nodes: BTreeSet<usize> = [0, 1, 2].into_iter().collect();
        let sub = g.induced_subgraph(&nodes);
        assert_eq!(sub.edge_count(), 3);
        assert!(!sub.has_edge(2, 3));
        assert_eq!(sub.node_count(), 4);
    }

    #[test]
    fn edges_are_normalised_and_sorted() {
        let g = triangle_plus_tail();
        assert_eq!(g.edges(), vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
        assert_eq!(norm_edge(5, 2), (2, 5));
    }
}
