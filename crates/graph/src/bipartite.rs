//! Patient–drug bipartite interaction graphs.
//!
//! The Medical Decision module represents observed medication use as a
//! bipartite graph between patients and drugs (Definition 3). This module
//! stores the interactions, exposes per-side adjacency, and converts the
//! graph into the edge lists and adjacency operators the GNN layers consume.

use std::collections::BTreeSet;

use crate::GraphError;

/// A bipartite graph between `n_left` patients and `n_right` drugs.
#[derive(Debug, Clone, Default)]
pub struct BipartiteGraph {
    n_left: usize,
    n_right: usize,
    left_adj: Vec<BTreeSet<usize>>,
    right_adj: Vec<BTreeSet<usize>>,
}

impl BipartiteGraph {
    /// Creates an empty bipartite graph.
    pub fn new(n_left: usize, n_right: usize) -> Self {
        Self {
            n_left,
            n_right,
            left_adj: vec![BTreeSet::new(); n_left],
            right_adj: vec![BTreeSet::new(); n_right],
        }
    }

    /// Builds a bipartite graph from `(patient, drug)` pairs.
    pub fn from_pairs(
        n_left: usize,
        n_right: usize,
        pairs: &[(usize, usize)],
    ) -> Result<Self, GraphError> {
        let mut g = Self::new(n_left, n_right);
        for &(l, r) in pairs {
            g.add_edge(l, r)?;
        }
        Ok(g)
    }

    /// Number of patients (left side).
    pub fn left_count(&self) -> usize {
        self.n_left
    }

    /// Number of drugs (right side).
    pub fn right_count(&self) -> usize {
        self.n_right
    }

    /// Number of patient–drug links.
    pub fn edge_count(&self) -> usize {
        self.left_adj.iter().map(BTreeSet::len).sum()
    }

    /// Adds a patient–drug link (duplicates are ignored).
    #[expect(
        clippy::indexing_slicing,
        reason = "both endpoints are checked against the side sizes above"
    )]
    pub fn add_edge(&mut self, left: usize, right: usize) -> Result<(), GraphError> {
        if left >= self.n_left {
            return Err(GraphError::NodeOutOfRange {
                node: left,
                nodes: self.n_left,
            });
        }
        if right >= self.n_right {
            return Err(GraphError::NodeOutOfRange {
                node: right,
                nodes: self.n_right,
            });
        }
        self.left_adj[left].insert(right);
        self.right_adj[right].insert(left);
        Ok(())
    }

    /// True when the patient takes the drug.
    #[expect(
        clippy::indexing_slicing,
        reason = "`left` is checked against the patient count first"
    )]
    pub fn has_edge(&self, left: usize, right: usize) -> bool {
        left < self.n_left && self.left_adj[left].contains(&right)
    }

    /// Drugs taken by a patient, in ascending drug index order.
    #[expect(
        clippy::indexing_slicing,
        reason = "a patient index below the patient count is the caller's bound"
    )]
    pub fn drugs_of(&self, left: usize) -> Vec<usize> {
        self.left_adj[left].iter().copied().collect()
    }

    /// Patients taking a drug, in ascending patient index order.
    #[expect(
        clippy::indexing_slicing,
        reason = "a drug index below the drug count is the caller's bound"
    )]
    pub fn patients_of(&self, right: usize) -> Vec<usize> {
        self.right_adj[right].iter().copied().collect()
    }

    /// Degree of a patient node.
    #[expect(
        clippy::indexing_slicing,
        reason = "a patient index below the patient count is the caller's bound"
    )]
    pub fn left_degree(&self, left: usize) -> usize {
        self.left_adj[left].len()
    }

    /// Degree of a drug node.
    #[expect(
        clippy::indexing_slicing,
        reason = "a drug index below the drug count is the caller's bound"
    )]
    pub fn right_degree(&self, right: usize) -> usize {
        self.right_adj[right].len()
    }

    /// All `(patient, drug)` links in deterministic order.
    #[expect(clippy::indexing_slicing, reason = "`l` ranges over the patient count")]
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.edge_count());
        for l in 0..self.n_left {
            for &r in &self.left_adj[l] {
                out.push((l, r));
            }
        }
        out
    }

    /// Dense 0/1 medication-use matrix `Y` with one row per patient.
    #[expect(
        clippy::indexing_slicing,
        reason = "`edges` yields only in-range pairs, and `y` is patients by drugs"
    )]
    pub fn to_label_matrix(&self) -> Vec<Vec<f32>> {
        let mut y = vec![vec![0.0; self.n_right]; self.n_left];
        for (l, r) in self.edges() {
            y[l][r] = 1.0;
        }
        y
    }

    /// Average number of drugs per patient (0.0 when there are no patients).
    pub fn mean_left_degree(&self) -> f32 {
        if self.n_left == 0 {
            0.0
        } else {
            self.edge_count() as f32 / self.n_left as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BipartiteGraph {
        BipartiteGraph::from_pairs(3, 4, &[(0, 0), (0, 2), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn construction_and_counts() {
        let g = small();
        assert_eq!(g.left_count(), 3);
        assert_eq!(g.right_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(2, 0));
    }

    #[test]
    fn adjacency_queries() {
        let g = small();
        assert_eq!(g.drugs_of(0), vec![0, 2]);
        assert_eq!(g.patients_of(2), vec![0, 1]);
        assert_eq!(g.left_degree(0), 2);
        assert_eq!(g.right_degree(1), 0);
        assert!((g.mean_left_degree() - 4.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn duplicate_edges_are_idempotent() {
        let mut g = small();
        g.add_edge(0, 0).unwrap();
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn out_of_range_edges_error() {
        let mut g = BipartiteGraph::new(2, 2);
        assert!(g.add_edge(2, 0).is_err());
        assert!(g.add_edge(0, 5).is_err());
        assert!(BipartiteGraph::from_pairs(1, 1, &[(0, 3)]).is_err());
    }

    #[test]
    fn label_matrix_matches_edges() {
        let g = small();
        let y = g.to_label_matrix();
        assert_eq!(y.len(), 3);
        assert_eq!(y[0][2], 1.0);
        assert_eq!(y[1][0], 0.0);
        let total: f32 = y.iter().flatten().sum();
        assert_eq!(total, 4.0);
    }

    #[test]
    fn edges_are_deterministically_ordered() {
        let g = small();
        assert_eq!(g.edges(), vec![(0, 0), (0, 2), (1, 2), (2, 3)]);
    }
}
