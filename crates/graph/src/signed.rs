//! Signed interaction graphs.
//!
//! The drug-drug interaction graph of the paper (Definition 2) is a signed
//! graph: an edge labelled `+1` records a synergistic effect, `−1` an
//! antagonistic effect, and `0` an explicitly sampled "no interaction" pair
//! used as a negative class when training DDIGCN.

use std::collections::BTreeMap;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::ungraph::norm_edge;
use crate::{GraphError, UnGraph};

/// Qualitative effect of a drug pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interaction {
    /// The drugs reinforce each other (edge label `+1`).
    Synergistic,
    /// The drugs counteract each other or cause adverse effects (`−1`).
    Antagonistic,
    /// An explicitly recorded absence of interaction (`0`).
    None,
}

impl Interaction {
    /// Numeric edge label used as the regression target of DDIGCN.
    pub fn label(self) -> f32 {
        match self {
            Interaction::Synergistic => 1.0,
            Interaction::Antagonistic => -1.0,
            Interaction::None => 0.0,
        }
    }
}

/// An undirected graph whose edges carry an [`Interaction`] sign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SignedGraph {
    n: usize,
    edges: BTreeMap<(usize, usize), Interaction>,
}

impl SignedGraph {
    /// Creates a signed graph over `n` nodes with no edges.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            edges: BTreeMap::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of signed edges (including explicit "no interaction" edges).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds (or overwrites) the interaction between two distinct drugs.
    pub fn add_interaction(
        &mut self,
        u: usize,
        v: usize,
        interaction: Interaction,
    ) -> Result<(), GraphError> {
        if u >= self.n || v >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: u.max(v),
                nodes: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        self.edges.insert(norm_edge(u, v), interaction);
        Ok(())
    }

    /// Interaction between two drugs, if recorded.
    pub fn interaction(&self, u: usize, v: usize) -> Option<Interaction> {
        self.edges.get(&norm_edge(u, v)).copied()
    }

    /// All recorded edges as `(u, v, interaction)` with `u < v`.
    pub fn interactions(&self) -> impl Iterator<Item = (usize, usize, Interaction)> + '_ {
        self.edges.iter().map(|(&(u, v), &i)| (u, v, i))
    }

    /// Edges restricted to one interaction kind.
    pub fn edges_of(&self, kind: Interaction) -> Vec<(usize, usize)> {
        self.interactions()
            .filter(|&(_, _, i)| i == kind)
            .map(|(u, v, _)| (u, v))
            .collect()
    }

    /// Number of synergistic edges.
    pub fn synergistic_count(&self) -> usize {
        self.edges_of(Interaction::Synergistic).len()
    }

    /// Number of antagonistic edges.
    pub fn antagonistic_count(&self) -> usize {
        self.edges_of(Interaction::Antagonistic).len()
    }

    /// Neighbours of `v` restricted to one interaction kind.
    pub fn neighbors_of(&self, v: usize, kind: Interaction) -> Vec<usize> {
        self.interactions()
            .filter(|&(a, b, i)| i == kind && (a == v || b == v))
            .map(|(a, b, _)| if a == v { b } else { a })
            .collect()
    }

    /// Neighbours of `v` with any synergistic or antagonistic interaction
    /// (explicit "no interaction" edges are not neighbours in the GNN sense).
    pub fn interacting_neighbors(&self, v: usize) -> Vec<usize> {
        self.interactions()
            .filter(|&(a, b, i)| i != Interaction::None && (a == v || b == v))
            .map(|(a, b, _)| if a == v { b } else { a })
            .collect()
    }

    /// The unsigned structural view containing only synergistic and
    /// antagonistic edges — the graph the Medical Support module queries.
    pub fn structural_graph(&self) -> UnGraph {
        let mut g = UnGraph::new(self.n);
        for (u, v, i) in self.interactions() {
            if i != Interaction::None {
                // Bounds were validated on insertion.
                let _ = g.add_edge(u, v);
            }
        }
        g
    }

    /// Signed edge list `(u, v, label)` used as the DDIGCN regression targets.
    pub fn labelled_edges(&self) -> Vec<(usize, usize, f32)> {
        self.interactions()
            .map(|(u, v, i)| (u, v, i.label()))
            .collect()
    }

    /// Samples `count` drug pairs with no recorded interaction and adds them
    /// as explicit [`Interaction::None`] edges (Section IV-A1 of the paper).
    /// Returns the number of pairs actually added (the graph may saturate).
    pub fn sample_no_interaction_edges(&mut self, count: usize, rng: &mut impl Rng) -> usize {
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                if !self.edges.contains_key(&(u, v)) {
                    candidates.push((u, v));
                }
            }
        }
        candidates.shuffle(rng);
        let take = count.min(candidates.len());
        for &(u, v) in candidates.iter().take(take) {
            self.edges.insert((u, v), Interaction::None);
        }
        take
    }

    /// Count of drugs that participate in at least one synergistic or
    /// antagonistic interaction.
    pub fn interacting_drug_count(&self) -> usize {
        (0..self.n)
            .filter(|&v| !self.interacting_neighbors(v).is_empty())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_ddi() -> SignedGraph {
        let mut g = SignedGraph::new(5);
        g.add_interaction(0, 1, Interaction::Synergistic).unwrap();
        g.add_interaction(0, 2, Interaction::Antagonistic).unwrap();
        g.add_interaction(1, 2, Interaction::Antagonistic).unwrap();
        g.add_interaction(2, 3, Interaction::Antagonistic).unwrap();
        g
    }

    #[test]
    fn interaction_labels() {
        assert_eq!(Interaction::Synergistic.label(), 1.0);
        assert_eq!(Interaction::Antagonistic.label(), -1.0);
        assert_eq!(Interaction::None.label(), 0.0);
    }

    #[test]
    fn add_and_query_interactions() {
        let g = small_ddi();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.interaction(1, 0), Some(Interaction::Synergistic));
        assert_eq!(g.interaction(3, 2), Some(Interaction::Antagonistic));
        assert_eq!(g.interaction(0, 4), None);
        assert_eq!(g.synergistic_count(), 1);
        assert_eq!(g.antagonistic_count(), 3);
    }

    #[test]
    fn rejects_self_loops_and_out_of_range() {
        let mut g = SignedGraph::new(3);
        assert!(g.add_interaction(1, 1, Interaction::Synergistic).is_err());
        assert!(g.add_interaction(0, 7, Interaction::None).is_err());
    }

    #[test]
    fn neighbor_queries_respect_kind() {
        let g = small_ddi();
        assert_eq!(g.neighbors_of(2, Interaction::Antagonistic), vec![0, 1, 3]);
        assert_eq!(g.neighbors_of(0, Interaction::Synergistic), vec![1]);
        assert_eq!(g.interacting_neighbors(4), Vec::<usize>::new());
        assert_eq!(g.interacting_drug_count(), 4);
    }

    #[test]
    fn structural_graph_drops_none_edges() {
        let mut g = small_ddi();
        let mut rng = StdRng::seed_from_u64(0);
        let added = g.sample_no_interaction_edges(3, &mut rng);
        assert_eq!(added, 3);
        let s = g.structural_graph();
        assert_eq!(s.edge_count(), 4);
        assert_eq!(g.edge_count(), 7);
    }

    #[test]
    fn no_interaction_sampling_saturates() {
        let mut g = SignedGraph::new(3);
        g.add_interaction(0, 1, Interaction::Synergistic).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        // Only (0,2) and (1,2) remain free.
        assert_eq!(g.sample_no_interaction_edges(10, &mut rng), 2);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn labelled_edges_align_with_interactions() {
        let g = small_ddi();
        let labels = g.labelled_edges();
        assert_eq!(labels.len(), 4);
        assert!(labels.contains(&(0, 1, 1.0)));
        assert!(labels.contains(&(0, 2, -1.0)));
    }

    #[test]
    fn overwriting_an_interaction_keeps_single_edge() {
        let mut g = SignedGraph::new(3);
        g.add_interaction(0, 1, Interaction::Synergistic).unwrap();
        g.add_interaction(1, 0, Interaction::Antagonistic).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.interaction(0, 1), Some(Interaction::Antagonistic));
    }
}
