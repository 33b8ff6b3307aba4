//! LightGCN-style propagation (He et al., SIGIR 2020).
//!
//! The MDGCN encoder of the paper (Eq. 11–13) abandons feature
//! transformations and non-linearities inside the graph convolution: it
//! propagates patient/drug embeddings over the symmetrically normalised
//! bipartite adjacency and combines the per-layer representations with
//! fixed weights β_t. The same propagation is reused for the LightGCN
//! baseline.

use std::rc::Rc;

use dssddi_graph::BipartiteGraph;
use dssddi_tensor::{CsrMatrix, Tape, TensorError, Var};

/// Symmetrically normalised adjacency of a patient–drug bipartite graph,
/// with patients occupying rows `0..n_patients` and drugs the rest.
pub fn bipartite_adjacency(graph: &BipartiteGraph) -> Result<Rc<CsrMatrix>, TensorError> {
    let adj =
        CsrMatrix::bipartite_normalized(graph.left_count(), graph.right_count(), &graph.edges())?;
    Ok(Rc::new(adj))
}

/// The layer-combination weights `β_t = 1 / (t + 2)` used by the paper
/// (Section V-A3) for `t = 0..=layers`.
pub fn paper_layer_weights(layers: usize) -> Vec<f32> {
    (0..=layers).map(|t| 1.0 / (t as f32 + 2.0)).collect()
}

/// Propagates stacked patient+drug embeddings `x` (shape
/// `(n_patients + n_drugs) x d`) through `layers` LightGCN convolutions and
/// returns the weighted combination `Σ_t β_t · h^(t)`.
///
/// `betas` must have `layers + 1` entries (including the weight of the input
/// layer `t = 0`).
pub fn lightgcn_propagate(
    tape: &mut Tape,
    adjacency: &Rc<CsrMatrix>,
    x: Var,
    layers: usize,
    betas: &[f32],
) -> Result<Var, TensorError> {
    if betas.len() != layers + 1 {
        return Err(TensorError::InvalidArgument {
            what: "betas must have one weight per layer plus the input layer",
        });
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "`betas` holds `layers + 1 >= 1` weights, checked above"
    )]
    let mut combined = tape.scale(x, betas[0]);
    let mut h = x;
    for (t, &beta) in betas.iter().enumerate().skip(1) {
        h = tape.spmm(adjacency, h)?;
        let weighted = tape.scale(h, beta);
        combined = tape.add(combined, weighted)?;
        let _ = t;
    }
    Ok(combined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssddi_tensor::Matrix;

    fn graph() -> BipartiteGraph {
        BipartiteGraph::from_pairs(3, 2, &[(0, 0), (1, 0), (1, 1), (2, 1)]).unwrap()
    }

    #[test]
    fn adjacency_has_combined_dimension() {
        let adj = bipartite_adjacency(&graph()).unwrap();
        assert_eq!(adj.rows(), 5);
        assert_eq!(adj.cols(), 5);
        assert!(adj.nnz() >= 8);
    }

    #[test]
    fn paper_weights_decay_with_depth() {
        let betas = paper_layer_weights(2);
        assert_eq!(betas.len(), 3);
        assert!((betas[0] - 0.5).abs() < 1e-6);
        assert!(betas[0] > betas[1] && betas[1] > betas[2]);
    }

    #[test]
    fn propagation_mixes_connected_nodes() {
        let g = graph();
        let adj = bipartite_adjacency(&g).unwrap();
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::identity(5));
        let out = lightgcn_propagate(&mut tape, &adj, x, 2, &paper_layer_weights(2)).unwrap();
        let v = tape.value(out);
        assert_eq!(v.shape(), (5, 5));
        // Patient 1 is connected to both drugs, so after propagation its row
        // must have mass on the drug columns (3 and 4).
        assert!(v.get(1, 3) > 0.0 && v.get(1, 4) > 0.0);
        // Patient 0 and patient 1 are two hops apart (they share drug 0), so
        // with 2 layers some of patient 1's identity mass reaches patient 0.
        assert!(v.get(0, 1) > 0.0);
    }

    #[test]
    fn beta_length_mismatch_is_rejected() {
        let adj = bipartite_adjacency(&graph()).unwrap();
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::identity(5));
        assert!(lightgcn_propagate(&mut tape, &adj, x, 2, &[0.5, 0.3]).is_err());
    }

    #[test]
    fn zero_layers_returns_scaled_input() {
        let adj = bipartite_adjacency(&graph()).unwrap();
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::identity(5));
        let out = lightgcn_propagate(&mut tape, &adj, x, 0, &[1.0]).unwrap();
        assert_eq!(tape.value(out).data(), Matrix::identity(5).data());
    }
}
