//! Property-based invariants for the graph algorithms used by the Medical
//! Support module: truss decomposition, Steiner trees and the closest truss
//! community search.
#![allow(clippy::expect_used, clippy::indexing_slicing)]

use std::collections::BTreeSet;

use dssddi_graph::{
    closest_truss_community, diameter, steiner_tree, truss_decomposition, CtcConfig, UnGraph,
};
use proptest::prelude::*;

/// Random undirected graph on `n` nodes with edge probability derived from a
/// bit vector, plus a guaranteed spanning path so the graph is connected.
fn arbitrary_connected_graph(max_n: usize) -> impl Strategy<Value = UnGraph> {
    (3usize..max_n).prop_flat_map(|n| {
        let max_pairs = n * (n - 1) / 2;
        proptest::collection::vec(any::<bool>(), max_pairs).prop_map(move |bits| {
            let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
            let mut k = 0;
            for u in 0..n {
                for v in (u + 1)..n {
                    if bits[k] {
                        edges.push((u, v));
                    }
                    k += 1;
                }
            }
            UnGraph::from_edges(n, &edges).expect("valid edges")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every edge's truss number is at least 2 and at most its support + 2.
    #[test]
    fn truss_numbers_are_bounded_by_support(g in arbitrary_connected_graph(12)) {
        let d = truss_decomposition(&g);
        prop_assert_eq!(d.len(), g.edge_count());
        for (u, v) in g.edges() {
            let t = d.truss(u, v).expect("edge must have a truss number");
            prop_assert!(t >= 2);
            prop_assert!(t <= g.edge_support(u, v) + 2,
                "edge ({},{}) truss {} exceeds support {} + 2", u, v, t, g.edge_support(u, v));
        }
    }

    /// The subgraph formed by edges with truss number >= p is itself a p-truss:
    /// every surviving edge has at least p - 2 triangles inside the subgraph.
    #[test]
    fn p_truss_subgraph_satisfies_support_invariant(g in arbitrary_connected_graph(12)) {
        let d = truss_decomposition(&g);
        let p = d.max_truss();
        if p >= 3 {
            let sub = dssddi_graph::p_truss_subgraph(&g, &d, p);
            for (u, v) in sub.edges() {
                prop_assert!(sub.edge_support(u, v) + 2 >= p,
                    "edge ({},{}) support {} violates {}-truss", u, v, sub.edge_support(u, v), p);
            }
        }
    }

    /// The Steiner tree spans all query nodes, is acyclic (|E| = |V| - #components),
    /// and only uses edges of the host graph.
    #[test]
    fn steiner_tree_spans_query_with_host_edges(
        g in arbitrary_connected_graph(12),
        picks in proptest::collection::vec(any::<prop::sample::Index>(), 2..5),
    ) {
        let n = g.node_count();
        let query: Vec<usize> = picks.iter().map(|i| i.index(n)).collect();
        let d = truss_decomposition(&g);
        let t = steiner_tree(&g, &query, &d).expect("steiner tree");
        for q in &query {
            prop_assert!(t.nodes.contains(q));
        }
        for &(u, v) in &t.edges {
            prop_assert!(g.has_edge(u, v), "tree edge ({u},{v}) not in host graph");
        }
        // Connected host graph => the tree spans the query in one component.
        prop_assert_eq!(t.edges.len(), t.nodes.len().saturating_sub(1));
    }

    /// The closest truss community always contains the query, only uses host
    /// edges, and satisfies its reported trussness.
    #[test]
    fn ctc_contains_query_and_satisfies_trussness(
        g in arbitrary_connected_graph(11),
        picks in proptest::collection::vec(any::<prop::sample::Index>(), 1..4),
    ) {
        let n = g.node_count();
        let query: Vec<usize> = picks.iter().map(|i| i.index(n)).collect();
        let c = closest_truss_community(&g, &query, &CtcConfig::default()).expect("ctc");
        for q in &query {
            prop_assert!(c.contains(*q), "community misses query node {q}");
        }
        for &(u, v) in &c.edges {
            prop_assert!(g.has_edge(u, v));
        }
        if c.trussness > 2 && c.edge_count() > 0 {
            let sub = UnGraph::from_edges(n, &c.edges).unwrap();
            for &(u, v) in &c.edges {
                prop_assert!(sub.edge_support(u, v) + 2 >= c.trussness);
            }
        }
    }

    /// Diameter is monotone: a community's diameter never exceeds the
    /// diameter of the whole (connected) graph.
    #[test]
    fn community_diameter_not_larger_than_graph_diameter(
        g in arbitrary_connected_graph(10),
        pick in any::<prop::sample::Index>(),
    ) {
        let n = g.node_count();
        let all: BTreeSet<usize> = (0..n).collect();
        let full = diameter(&g, &all);
        let q = pick.index(n);
        let c = closest_truss_community(&g, &[q], &CtcConfig::default()).expect("ctc");
        if c.diameter != usize::MAX && full != usize::MAX {
            // The community is denser than the graph, so its internal paths
            // cannot be longer than the graph diameter plus detours removed
            // by the truss constraint; allow equality.
            prop_assert!(c.diameter <= full + 1,
                "community diameter {} much larger than graph diameter {}", c.diameter, full);
        }
    }
}
