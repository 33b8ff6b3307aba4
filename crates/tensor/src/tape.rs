//! Reverse-mode automatic differentiation on a tape.
//!
//! A [`Tape`] records every differentiable operation of one forward pass as
//! a node holding its value and its producing operation. Calling
//! [`Tape::backward`] seeds the loss gradient and walks the tape in reverse
//! topological (i.e. insertion) order, accumulating gradients into every
//! node that `requires_grad`. Model parameters live outside the tape in a
//! [`ParamSet`](crate::ParamSet) and are re-inserted as leaves on every
//! training step, exactly like a define-by-run framework.

use std::rc::Rc;

use crate::ops::Op;
use crate::{Matrix, TensorError};

/// Handle to a node on the [`Tape`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

pub(crate) struct Node {
    // Values are reference-counted so that (a) large constant inputs can be
    // shared onto many tapes without copying (`Tape::constant_shared` — one
    // feature matrix serves every training epoch) and (b) the backward pass
    // can hold a node's output while mutating the node table without
    // cloning the matrix.
    value: Rc<Matrix>,
    grad: Option<Matrix>,
    op: Op,
    requires_grad: bool,
}

/// A single-pass computation graph with reverse-mode differentiation.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Inserts a differentiable leaf (typically a model parameter).
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push_with_grad(value, Op::Leaf, true)
    }

    /// Inserts a non-differentiable constant (input data).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push_with_grad(value, Op::Constant, false)
    }

    /// Inserts a non-differentiable constant without copying it: the tape
    /// shares the caller's reference-counted matrix. Training loops that
    /// re-feed the same features every epoch (and would otherwise clone a
    /// full feature matrix per step) should build the `Rc` once and pass
    /// clones of it here.
    pub fn constant_shared(&mut self, value: Rc<Matrix>) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op: Op::Constant,
            requires_grad: false,
        });
        Var(self.nodes.len() - 1)
    }

    /// Value held by a variable.
    #[expect(
        clippy::indexing_slicing,
        reason = "a `Var` is only issued by this tape's `push`, so it indexes a recorded node"
    )]
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Value held by a node index (internal).
    #[expect(
        clippy::indexing_slicing,
        reason = "node indices come from `Var`s and op inputs this tape recorded"
    )]
    pub(crate) fn node_value(&self, i: usize) -> &Matrix {
        &self.nodes[i].value
    }

    /// Gradient accumulated for a variable by the last [`Tape::backward`]
    /// call, if any.
    #[expect(
        clippy::indexing_slicing,
        reason = "a `Var` is only issued by this tape's `push`, so it indexes a recorded node"
    )]
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Records a node whose `requires_grad` flag is inherited from its inputs.
    pub(crate) fn push(&mut self, value: Matrix, op: Op) -> Var {
        let requires = self.op_requires_grad(&op);
        self.push_with_grad(value, op, requires)
    }

    fn push_with_grad(&mut self, value: Matrix, op: Op, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            value: Rc::new(value),
            grad: None,
            op,
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "an op's inputs are `Var`s recorded on this tape before it"
    )]
    fn op_requires_grad(&self, op: &Op) -> bool {
        self.op_inputs(op)
            .iter()
            .any(|&i| self.nodes[i].requires_grad)
    }

    fn op_inputs(&self, op: &Op) -> Vec<usize> {
        match op {
            Op::Leaf | Op::Constant => vec![],
            Op::Add(a, b)
            | Op::AddBroadcastRow(a, b)
            | Op::MulBroadcastRow(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::MatMul(a, b)
            | Op::MulScalarVar(a, b)
            | Op::ConcatCols(a, b) => vec![*a, *b],
            Op::Scale(x, _)
            | Op::AddScalar(x, _)
            | Op::Relu(x)
            | Op::LeakyRelu(x, _)
            | Op::Sigmoid(x)
            | Op::Tanh(x)
            | Op::SumAll(x)
            | Op::MeanAll(x)
            | Op::SumCols(x)
            | Op::SelectRows(x, _)
            | Op::Spmm(_, x)
            | Op::StandardizeCols { x, .. } => vec![*x],
            Op::SpmmEdgeWeighted { weights, x, .. } => vec![*weights, *x],
            Op::SegmentSoftmax { logits, .. } => vec![*logits],
            Op::MseLoss { pred, .. } => vec![*pred],
            Op::BceWithLogits { logits, .. } => vec![*logits],
        }
    }

    /// Runs reverse-mode differentiation from `loss`, which must hold a
    /// `1 x 1` value. Gradients of all contributing nodes become available
    /// through [`Tape::grad`].
    #[expect(
        clippy::indexing_slicing,
        reason = "`loss` is a `Var` of this tape, and every op input was recorded before the node that uses it"
    )]
    pub fn backward(&mut self, loss: Var) -> Result<(), TensorError> {
        let loss_shape = self.nodes[loss.0].value.shape();
        if loss_shape != (1, 1) {
            return Err(TensorError::ShapeMismatch {
                expected: (1, 1),
                found: loss_shape,
                op: "backward (loss must be scalar)",
            });
        }
        for node in &mut self.nodes {
            node.grad = None;
        }
        self.nodes[loss.0].grad = Some(Matrix::ones(1, 1));

        for id in (0..=loss.0).rev() {
            let (op, grad, out) = {
                let node = &self.nodes[id];
                if !node.requires_grad {
                    continue;
                }
                match &node.grad {
                    None => continue,
                    // Cloning the Rc keeps the node's output alive across the
                    // mutable gradient updates below without copying it.
                    Some(g) => (node.op.clone(), g.clone(), Rc::clone(&node.value)),
                }
            };
            let contributions = self.backward_contributions(&op, &grad, &out)?;
            for (input, contribution) in contributions {
                if !self.nodes[input].requires_grad {
                    continue;
                }
                let slot = &mut self.nodes[input].grad;
                match slot {
                    Some(existing) => existing.add_assign(&contribution)?,
                    None => *slot = Some(contribution),
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_nodes_do_not_receive_gradients() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]).unwrap());
        let c = tape.constant(Matrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap());
        let y = tape.mul(x, c).unwrap();
        let loss = tape.sum_all(y);
        tape.backward(loss).unwrap();
        assert!(tape.grad(c).is_none());
        assert_eq!(tape.grad(x).unwrap().data(), &[3.0, 4.0]);
    }

    #[test]
    fn backward_requires_scalar_loss() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::ones(2, 2));
        assert!(tape.backward(x).is_err());
    }

    #[test]
    fn chain_rule_through_matmul_and_sigmoid() {
        // f(W) = sum(sigmoid(x W)); check against hand-derived gradient.
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_vec(1, 2, vec![1.0, -1.0]).unwrap());
        let w = tape.leaf(Matrix::from_vec(2, 1, vec![0.5, 0.25]).unwrap());
        let z = tape.matmul(x, w).unwrap();
        let s = tape.sigmoid(z);
        let loss = tape.sum_all(s);
        tape.backward(loss).unwrap();
        // x = [1, -1] against W = [0.5, 0.25]^T.
        let zval = 0.5 - 0.25;
        let sig = 1.0 / (1.0 + (-zval as f32).exp());
        let expected = [sig * (1.0 - sig), -(sig * (1.0 - sig))];
        let grad = tape.grad(w).unwrap();
        assert!((grad.get(0, 0) - expected[0]).abs() < 1e-5);
        assert!((grad.get(1, 0) - expected[1]).abs() < 1e-5);
    }

    #[test]
    fn gradients_accumulate_over_reused_variables() {
        // y = x ⊙ x; dy/dx = 2x via two contributions through Mul.
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]).unwrap());
        let y = tape.mul(x, x).unwrap();
        let loss = tape.sum_all(y);
        tape.backward(loss).unwrap();
        assert_eq!(tape.grad(x).unwrap().data(), &[2.0, -4.0, 6.0]);
    }

    #[test]
    fn second_backward_resets_gradients() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::from_vec(1, 1, vec![2.0]).unwrap());
        let y = tape.scale(x, 3.0);
        let loss = tape.sum_all(y);
        tape.backward(loss).unwrap();
        tape.backward(loss).unwrap();
        assert_eq!(tape.grad(x).unwrap().get(0, 0), 3.0);
    }
}
