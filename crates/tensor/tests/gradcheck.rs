//! Property-based gradient verification.
//!
//! Every differentiable operation is checked against central finite
//! differences on randomly generated inputs: if the tape computes
//! `dL/dx`, then perturbing `x[i]` by ±ε must change the loss by
//! approximately `dL/dx[i] · 2ε`.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use std::rc::Rc;

use dssddi_tensor::{CsrMatrix, Matrix, Tape, TensorError, Var};
use proptest::prelude::*;

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

/// Builds a loss from an input leaf using `f`, returning (loss value, grad of leaf).
fn loss_and_grad<F: Fn(&mut Tape, Var) -> Result<Var, TensorError>>(
    input: &Matrix,
    f: &F,
) -> (f32, Matrix) {
    let mut tape = Tape::new();
    let x = tape.leaf(input.clone());
    let out = f(&mut tape, x).expect("forward failed");
    let loss = tape.mean_all(out);
    tape.backward(loss).expect("backward failed");
    (
        tape.value(loss).get(0, 0),
        tape.grad(x)
            .cloned()
            .unwrap_or_else(|| Matrix::zeros(input.rows(), input.cols())),
    )
}

/// Central finite-difference check of the analytic gradient.
fn check_gradient<F: Fn(&mut Tape, Var) -> Result<Var, TensorError>>(input: &Matrix, f: F) {
    let (_, grad) = loss_and_grad(input, &f);
    for i in 0..input.len() {
        let mut plus = input.clone();
        plus.data_mut()[i] += EPS;
        let (lp, _) = loss_and_grad(&plus, &f);
        let mut minus = input.clone();
        minus.data_mut()[i] -= EPS;
        let (lm, _) = loss_and_grad(&minus, &f);
        let numeric = (lp - lm) / (2.0 * EPS);
        let analytic = grad.data()[i];
        let denom = numeric.abs().max(analytic.abs()).max(1.0);
        assert!(
            (numeric - analytic).abs() / denom < TOL,
            "gradient mismatch at {i}: numeric={numeric}, analytic={analytic}"
        );
    }
}

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn grad_of_sigmoid(m in small_matrix(3, 4)) {
        check_gradient(&m, |t, x| Ok(t.sigmoid(x)));
    }

    #[test]
    fn grad_of_tanh(m in small_matrix(3, 4)) {
        check_gradient(&m, |t, x| Ok(t.tanh(x)));
    }

    #[test]
    fn grad_of_leaky_relu(m in small_matrix(3, 4)) {
        // Keep inputs away from the kink at 0 for numerical stability.
        let shifted = m.map(|v| if v.abs() < 0.1 { v + 0.2 } else { v });
        check_gradient(&shifted, |t, x| Ok(t.leaky_relu(x, 0.1)));
    }

    #[test]
    fn grad_of_matmul(m in small_matrix(3, 4)) {
        let w = Matrix::from_fn(4, 2, |r, c| 0.3 * (r as f32 + 1.0) - 0.2 * c as f32);
        check_gradient(&m, move |t, x| {
            let wv = t.constant(w.clone());
            t.matmul(x, wv)
        });
    }

    #[test]
    fn grad_of_matmul_rhs(m in small_matrix(4, 2)) {
        let a = Matrix::from_fn(3, 4, |r, c| 0.1 * (r as f32) + 0.2 * (c as f32) - 0.3);
        check_gradient(&m, move |t, x| {
            let av = t.constant(a.clone());
            t.matmul(av, x)
        });
    }

    #[test]
    fn grad_of_hadamard_and_concat(m in small_matrix(3, 3)) {
        let other = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32 * 0.1 - 0.4);
        check_gradient(&m, move |t, x| {
            let o = t.constant(other.clone());
            let h = t.mul(x, o)?;
            t.concat_cols(h, x)
        });
    }

    #[test]
    fn grad_of_broadcast_bias(m in small_matrix(1, 4)) {
        let base = Matrix::from_fn(5, 4, |r, c| 0.05 * (r as f32) - 0.1 * (c as f32));
        check_gradient(&m, move |t, bias| {
            let b = t.constant(base.clone());
            let y = t.add_broadcast_row(b, bias)?;
            Ok(t.sigmoid(y))
        });
    }

    #[test]
    fn grad_of_broadcast_scale(m in small_matrix(1, 4)) {
        let base = Matrix::from_fn(5, 4, |r, c| 0.3 + 0.05 * (r as f32) - 0.1 * (c as f32));
        check_gradient(&m, move |t, gamma| {
            let b = t.constant(base.clone());
            t.mul_broadcast_row(b, gamma)
        });
    }

    #[test]
    fn grad_of_spmm(m in small_matrix(4, 3)) {
        let adj = CsrMatrix::normalized_adjacency(4, &[(0, 1), (1, 2), (2, 3), (0, 3)], true).unwrap();
        let adj = Rc::new(adj);
        check_gradient(&m, move |t, x| t.spmm(&adj, x));
    }

    #[test]
    fn grad_of_select_rows(m in small_matrix(5, 3)) {
        check_gradient(&m, |t, x| {
            let s = t.select_rows(x, &[0, 2, 2, 4])?;
            Ok(t.tanh(s))
        });
    }

    #[test]
    fn grad_of_mse_loss(m in small_matrix(4, 2)) {
        let target = Matrix::from_fn(4, 2, |r, c| (r + c) as f32 * 0.2);
        check_gradient(&m, move |t, x| t.mse_loss(x, &target));
    }

    #[test]
    fn grad_of_bce_with_logits(m in small_matrix(4, 2)) {
        let target = Matrix::from_fn(4, 2, |r, c| ((r + c) % 2) as f32);
        check_gradient(&m, move |t, x| t.bce_with_logits(x, &target));
    }

    #[test]
    fn grad_of_standardize_cols(m in small_matrix(5, 3)) {
        check_gradient(&m, |t, x| Ok(t.standardize_cols(x, 1e-5)));
    }

    #[test]
    fn grad_of_mul_scalar_var(m in small_matrix(1, 1)) {
        let base = Matrix::from_fn(3, 3, |r, c| 0.1 * (r as f32) + 0.2 * (c as f32) - 0.3);
        check_gradient(&m, move |t, s| {
            let b = t.constant(base.clone());
            t.mul_scalar_var(b, s)
        });
    }

    #[test]
    fn grad_of_segment_softmax_attention(m in small_matrix(6, 1)) {
        // Six edges into three segments, attention weights aggregate constant features.
        let segments = Rc::new(vec![0usize, 0, 1, 1, 2, 2]);
        let edges = Rc::new(vec![(0usize, 0usize), (1, 0), (2, 1), (3, 1), (4, 2), (5, 2)]);
        let features = Matrix::from_fn(6, 2, |r, c| 0.2 * (r as f32) - 0.3 * (c as f32) + 0.1);
        check_gradient(&m, move |t, logits| {
            let att = t.segment_softmax(logits, &segments)?;
            let x = t.constant(features.clone());
            t.spmm_edge_weighted(&edges, att, x, 3)
        });
    }

    #[test]
    fn grad_flows_to_features_through_edge_weighted_aggregation(m in small_matrix(4, 2)) {
        let edges = Rc::new(vec![(0usize, 1usize), (1, 0), (2, 3), (3, 2), (0, 3)]);
        let weights = Matrix::from_fn(5, 1, |r, _| 0.2 + 0.1 * r as f32);
        check_gradient(&m, move |t, x| {
            let w = t.constant(weights.clone());
            t.spmm_edge_weighted(&edges, w, x, 4)
        });
    }
}

#[test]
fn two_layer_mlp_gradcheck() {
    // A deterministic end-to-end check through an MLP with every common op.
    let x = Matrix::from_fn(4, 3, |r, c| 0.3 * (r as f32) - 0.2 * (c as f32) + 0.1);
    check_gradient(&x, |t, x| {
        let w1 = t.constant(Matrix::from_fn(3, 5, |r, c| {
            0.1 * (r as f32 + 1.0) - 0.05 * c as f32
        }));
        let b1 = t.constant(Matrix::from_fn(1, 5, |_, c| 0.01 * c as f32));
        let w2 = t.constant(Matrix::from_fn(5, 1, |r, _| 0.2 - 0.05 * r as f32));
        let h = t.matmul(x, w1)?;
        let h = t.add_broadcast_row(h, b1)?;
        let h = t.leaky_relu(h, 0.01);
        let out = t.matmul(h, w2)?;
        Ok(t.sigmoid(out))
    });
}
