//! # dssddi-graph
//!
//! Graph data structures and algorithms backing the DSSDDI reproduction:
//!
//! * [`UnGraph`] — simple undirected graphs with deterministic iteration,
//! * [`SignedGraph`] — the drug-drug interaction graph of Definition 2
//!   (synergistic / antagonistic / explicit no-interaction edges),
//! * [`BipartiteGraph`] — the patient–drug medication-use graph of
//!   Definition 3,
//! * [`truss`] — truss decomposition (Wang & Cheng, PVLDB 2012),
//! * [`steiner`] — Mehlhorn-style approximate Steiner trees under a
//!   truss-aware distance,
//! * [`ctc`] — the Closest Truss Community search of Algorithm 1, used by
//!   the Medical Support module to produce explanation subgraphs.

#![warn(missing_docs)]

pub mod bipartite;
pub mod ctc;
pub mod signed;
pub mod steiner;
pub mod traversal;
pub mod truss;
mod ungraph;

pub use bipartite::BipartiteGraph;
pub use ctc::{closest_truss_community, closest_truss_community_with, Community, CtcConfig};
pub use signed::{Interaction, SignedGraph};
pub use steiner::{steiner_tree, SteinerTree};
pub use traversal::{bfs, connected_components, diameter, BfsResult};
pub use truss::{p_truss_subgraph, truss_decomposition, TrussDecomposition};
pub use ungraph::{norm_edge, UnGraph};

/// Errors produced by graph construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node index is outside the graph's node range.
    NodeOutOfRange {
        /// Offending node index.
        node: usize,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// Self-loops are not allowed in interaction graphs.
    SelfLoop {
        /// The node that would have been connected to itself.
        node: usize,
    },
    /// A community/Steiner query contained no nodes.
    EmptyQuery,
    /// A truss decomposition was passed alongside a graph it was not built
    /// from (their node or edge counts differ).
    DecompositionMismatch {
        /// Number of nodes in the graph.
        nodes: usize,
        /// Number of edges in the graph.
        edges: usize,
        /// Number of nodes the decomposition covers.
        decomposition_nodes: usize,
        /// Number of edges the decomposition covers.
        decomposition_edges: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range for graph with {nodes} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self loop on node {node} is not allowed"),
            GraphError::EmptyQuery => write!(f, "query node set is empty"),
            GraphError::DecompositionMismatch {
                nodes,
                edges,
                decomposition_nodes,
                decomposition_edges,
            } => write!(
                f,
                "truss decomposition of a graph with {decomposition_nodes} nodes and \
                 {decomposition_edges} edges used with a graph of {nodes} nodes and {edges} edges"
            ),
        }
    }
}

impl std::error::Error for GraphError {}
