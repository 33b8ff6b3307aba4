//! Differentiable operations recorded on the [`Tape`](crate::Tape).
//!
//! Every operation has a forward constructor (a method on `Tape` that pushes
//! a node and returns a [`Var`](crate::Var)) and a backward rule implemented
//! in [`Tape::backward_contributions`]. The set of operations is exactly
//! what the DSSDDI models need: dense linear algebra, element-wise
//! non-linearities, sparse propagation over graphs, edge-weighted
//! aggregation with a segment softmax (for the attention backbones), and
//! fused, numerically stable losses.

use std::rc::Rc;

use crate::tape::Tape;
use crate::{CsrMatrix, Matrix, TensorError, Var};

/// The operation that produced a tape node, together with its inputs
/// (referenced by node index).
#[derive(Clone)]
#[allow(dead_code)] // some stored scalars (e.g. AddScalar's constant) are only used in forward
pub(crate) enum Op {
    /// A differentiable input (parameter) with no producer.
    Leaf,
    /// A non-differentiable input (data); gradients are not propagated into it.
    Constant,
    /// Element-wise `a + b`.
    Add(usize, usize),
    /// `x + bias` where `bias` is a `1 x d` row broadcast over the rows of `x`.
    AddBroadcastRow(usize, usize),
    /// `x ⊙ gamma` where `gamma` is a `1 x d` row broadcast over the rows of `x`.
    MulBroadcastRow(usize, usize),
    /// Element-wise `a - b`.
    Sub(usize, usize),
    /// Element-wise (Hadamard) `a ⊙ b`.
    Mul(usize, usize),
    /// Dense matrix product `a · b`.
    MatMul(usize, usize),
    /// `x * s` for a constant scalar `s`.
    Scale(usize, f32),
    /// `x + s` for a constant scalar `s`.
    AddScalar(usize, f32),
    /// `x * s` where `s` is a `1 x 1` tape variable (e.g. GIN's `1 + ε`).
    MulScalarVar(usize, usize),
    /// Rectified linear unit.
    Relu(usize),
    /// Leaky rectified linear unit with the given negative slope.
    LeakyRelu(usize, f32),
    /// Logistic sigmoid.
    Sigmoid(usize),
    /// Hyperbolic tangent.
    Tanh(usize),
    /// Horizontal concatenation `[a, b]`.
    ConcatCols(usize, usize),
    /// Sum of all entries, producing a `1 x 1` matrix.
    SumAll(usize),
    /// Mean of all entries, producing a `1 x 1` matrix.
    MeanAll(usize),
    /// Row-wise sum, producing an `n x 1` matrix.
    SumCols(usize),
    /// Gathers rows of `x` by index (rows may repeat).
    SelectRows(usize, Rc<Vec<usize>>),
    /// Sparse–dense product `A · x` with a constant CSR matrix `A`.
    Spmm(Rc<CsrMatrix>, usize),
    /// Edge-weighted aggregation: `out[dst] += w_e · x[src]` for each edge.
    SpmmEdgeWeighted {
        edges: Rc<Vec<(usize, usize)>>,
        weights: usize,
        x: usize,
        n_out: usize,
    },
    /// Softmax of edge logits grouped by destination segment.
    SegmentSoftmax {
        logits: usize,
        segments: Rc<Vec<usize>>,
    },
    /// Per-column standardisation `(x - μ) / sqrt(σ² + eps)`.
    StandardizeCols { x: usize, eps: f32 },
    /// Mean squared error against a constant target.
    MseLoss { pred: usize, target: Rc<Matrix> },
    /// Numerically stable binary cross-entropy on logits against constant targets.
    BceWithLogits { logits: usize, targets: Rc<Matrix> },
}

impl Tape {
    /// Element-wise sum of two same-shape variables.
    pub fn add(&mut self, a: Var, b: Var) -> Result<Var, TensorError> {
        let value = self.value(a).add(self.value(b))?;
        Ok(self.push(value, Op::Add(a.0, b.0)))
    }

    /// Adds a `1 x d` bias row to every row of `x`.
    pub fn add_broadcast_row(&mut self, x: Var, bias: Var) -> Result<Var, TensorError> {
        let xv = self.value(x);
        let bv = self.value(bias);
        if bv.rows() != 1 || bv.cols() != xv.cols() {
            return Err(TensorError::ShapeMismatch {
                expected: (1, xv.cols()),
                found: bv.shape(),
                op: "add_broadcast_row",
            });
        }
        let mut out = xv.clone();
        for r in 0..out.rows() {
            for c in 0..out.cols() {
                out.add_at(r, c, bv.get(0, c));
            }
        }
        Ok(self.push(out, Op::AddBroadcastRow(x.0, bias.0)))
    }

    /// Multiplies every row of `x` element-wise by a `1 x d` row `gamma`.
    pub fn mul_broadcast_row(&mut self, x: Var, gamma: Var) -> Result<Var, TensorError> {
        let xv = self.value(x);
        let gv = self.value(gamma);
        if gv.rows() != 1 || gv.cols() != xv.cols() {
            return Err(TensorError::ShapeMismatch {
                expected: (1, xv.cols()),
                found: gv.shape(),
                op: "mul_broadcast_row",
            });
        }
        let mut out = xv.clone();
        for r in 0..out.rows() {
            for c in 0..out.cols() {
                out.set(r, c, out.get(r, c) * gv.get(0, c));
            }
        }
        Ok(self.push(out, Op::MulBroadcastRow(x.0, gamma.0)))
    }

    /// Element-wise difference of two same-shape variables.
    pub fn sub(&mut self, a: Var, b: Var) -> Result<Var, TensorError> {
        let value = self.value(a).sub(self.value(b))?;
        Ok(self.push(value, Op::Sub(a.0, b.0)))
    }

    /// Element-wise (Hadamard) product of two same-shape variables.
    pub fn mul(&mut self, a: Var, b: Var) -> Result<Var, TensorError> {
        let value = self.value(a).hadamard(self.value(b))?;
        Ok(self.push(value, Op::Mul(a.0, b.0)))
    }

    /// Dense matrix product `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Result<Var, TensorError> {
        let value = self.value(a).matmul(self.value(b))?;
        Ok(self.push(value, Op::MatMul(a.0, b.0)))
    }

    /// Multiplies a variable by a constant scalar.
    pub fn scale(&mut self, x: Var, s: f32) -> Var {
        let value = self.value(x).scale(s);
        self.push(value, Op::Scale(x.0, s))
    }

    /// Adds a constant scalar to every entry.
    pub fn add_scalar(&mut self, x: Var, s: f32) -> Var {
        let value = self.value(x).map(|v| v + s);
        self.push(value, Op::AddScalar(x.0, s))
    }

    /// Multiplies `x` by a learnable `1 x 1` scalar variable.
    pub fn mul_scalar_var(&mut self, x: Var, s: Var) -> Result<Var, TensorError> {
        let sv = self.value(s);
        if sv.shape() != (1, 1) {
            return Err(TensorError::ShapeMismatch {
                expected: (1, 1),
                found: sv.shape(),
                op: "mul_scalar_var",
            });
        }
        let scalar = sv.get(0, 0);
        let value = self.value(x).scale(scalar);
        Ok(self.push(value, Op::MulScalarVar(x.0, s.0)))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Var {
        let value = self.value(x).map(|v| v.max(0.0));
        self.push(value, Op::Relu(x.0))
    }

    /// Leaky rectified linear unit.
    pub fn leaky_relu(&mut self, x: Var, slope: f32) -> Var {
        let value = self.value(x).map(|v| if v > 0.0 { v } else { slope * v });
        self.push(value, Op::LeakyRelu(x.0, slope))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let value = self.value(x).map(stable_sigmoid);
        self.push(value, Op::Sigmoid(x.0))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        let value = self.value(x).map(f32::tanh);
        self.push(value, Op::Tanh(x.0))
    }

    /// Horizontal concatenation of two variables with the same row count.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Result<Var, TensorError> {
        let value = self.value(a).concat_cols(self.value(b))?;
        Ok(self.push(value, Op::ConcatCols(a.0, b.0)))
    }

    /// Sum of all entries as a `1 x 1` variable.
    pub fn sum_all(&mut self, x: Var) -> Var {
        let value = Matrix::full(1, 1, self.value(x).sum());
        self.push(value, Op::SumAll(x.0))
    }

    /// Mean of all entries as a `1 x 1` variable.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let value = Matrix::full(1, 1, self.value(x).mean());
        self.push(value, Op::MeanAll(x.0))
    }

    /// Row-wise sum as an `n x 1` variable.
    pub fn sum_cols(&mut self, x: Var) -> Var {
        let value = self.value(x).sum_cols();
        self.push(value, Op::SumCols(x.0))
    }

    /// Gathers the rows of `x` named by `indices` (repeats allowed).
    pub fn select_rows(&mut self, x: Var, indices: &[usize]) -> Result<Var, TensorError> {
        let xv = self.value(x);
        for &i in indices {
            if i >= xv.rows() {
                return Err(TensorError::IndexOutOfBounds {
                    index: (i, 0),
                    shape: xv.shape(),
                });
            }
        }
        let value = xv.select_rows(indices);
        Ok(self.push(value, Op::SelectRows(x.0, Rc::new(indices.to_vec()))))
    }

    /// Sparse–dense product `A · x` with a constant adjacency `A`.
    pub fn spmm(&mut self, a: &Rc<CsrMatrix>, x: Var) -> Result<Var, TensorError> {
        let value = a.matmul_dense(self.value(x))?;
        Ok(self.push(value, Op::Spmm(Rc::clone(a), x.0)))
    }

    /// Edge-weighted aggregation `out[dst] += w_e · x[src]` over a fixed edge
    /// list. `weights` must be an `E x 1` variable aligned with `edges`.
    pub fn spmm_edge_weighted(
        &mut self,
        edges: &Rc<Vec<(usize, usize)>>,
        weights: Var,
        x: Var,
        n_out: usize,
    ) -> Result<Var, TensorError> {
        let wv = self.value(weights);
        let xv = self.value(x);
        if wv.shape() != (edges.len(), 1) {
            return Err(TensorError::ShapeMismatch {
                expected: (edges.len(), 1),
                found: wv.shape(),
                op: "spmm_edge_weighted",
            });
        }
        for &(src, dst) in edges.iter() {
            if src >= xv.rows() || dst >= n_out {
                return Err(TensorError::IndexOutOfBounds {
                    index: (src, dst),
                    shape: (xv.rows(), n_out),
                });
            }
        }
        let mut out = Matrix::zeros(n_out, xv.cols());
        for (e, &(src, dst)) in edges.iter().enumerate() {
            let w = wv.get(e, 0);
            for c in 0..xv.cols() {
                out.add_at(dst, c, w * xv.get(src, c));
            }
        }
        Ok(self.push(
            out,
            Op::SpmmEdgeWeighted {
                edges: Rc::clone(edges),
                weights: weights.0,
                x: x.0,
                n_out,
            },
        ))
    }

    /// Softmax over edge logits grouped by segment (typically the edge's
    /// destination node), producing normalised attention coefficients.
    #[expect(
        clippy::indexing_slicing,
        reason = "every segment id is at most the maximum, so below `n_seg`; `e` enumerates `segments`, which `exps` matches in length"
    )]
    pub fn segment_softmax(
        &mut self,
        logits: Var,
        segments: &Rc<Vec<usize>>,
    ) -> Result<Var, TensorError> {
        let lv = self.value(logits);
        if lv.shape() != (segments.len(), 1) {
            return Err(TensorError::ShapeMismatch {
                expected: (segments.len(), 1),
                found: lv.shape(),
                op: "segment_softmax",
            });
        }
        let n_seg = segments.iter().copied().max().map_or(0, |m| m + 1);
        let mut max_per_seg = vec![f32::NEG_INFINITY; n_seg];
        for (e, &s) in segments.iter().enumerate() {
            max_per_seg[s] = max_per_seg[s].max(lv.get(e, 0));
        }
        let mut sum_per_seg = vec![0.0f32; n_seg];
        let mut exps = vec![0.0f32; segments.len()];
        for (e, &s) in segments.iter().enumerate() {
            let x = (lv.get(e, 0) - max_per_seg[s]).exp();
            exps[e] = x;
            sum_per_seg[s] += x;
        }
        let mut out = Matrix::zeros(segments.len(), 1);
        for (e, &s) in segments.iter().enumerate() {
            out.set(e, 0, exps[e] / sum_per_seg[s].max(f32::MIN_POSITIVE));
        }
        Ok(self.push(
            out,
            Op::SegmentSoftmax {
                logits: logits.0,
                segments: Rc::clone(segments),
            },
        ))
    }

    /// Per-column standardisation (zero mean, unit variance), the
    /// normalisation step of a batch-norm layer.
    pub fn standardize_cols(&mut self, x: Var, eps: f32) -> Var {
        let xv = self.value(x);
        let (n, d) = xv.shape();
        let mut out = Matrix::zeros(n, d);
        for c in 0..d {
            let mut mean = 0.0f32;
            for r in 0..n {
                mean += xv.get(r, c);
            }
            mean /= n.max(1) as f32;
            let mut var = 0.0f32;
            for r in 0..n {
                let diff = xv.get(r, c) - mean;
                var += diff * diff;
            }
            var /= n.max(1) as f32;
            let std = (var + eps).sqrt();
            for r in 0..n {
                out.set(r, c, (xv.get(r, c) - mean) / std);
            }
        }
        self.push(out, Op::StandardizeCols { x: x.0, eps })
    }

    /// Mean squared error between a prediction variable and a constant target.
    pub fn mse_loss(&mut self, pred: Var, target: &Matrix) -> Result<Var, TensorError> {
        let pv = self.value(pred);
        if pv.shape() != target.shape() {
            return Err(TensorError::ShapeMismatch {
                expected: pv.shape(),
                found: target.shape(),
                op: "mse_loss",
            });
        }
        let diff = pv.sub(target)?;
        let loss = diff.hadamard(&diff)?.mean();
        Ok(self.push(
            Matrix::full(1, 1, loss),
            Op::MseLoss {
                pred: pred.0,
                target: Rc::new(target.clone()),
            },
        ))
    }

    /// Numerically stable binary cross-entropy with logits against constant
    /// `{0, 1}` targets, averaged over all entries.
    pub fn bce_with_logits(&mut self, logits: Var, targets: &Matrix) -> Result<Var, TensorError> {
        let lv = self.value(logits);
        if lv.shape() != targets.shape() {
            return Err(TensorError::ShapeMismatch {
                expected: lv.shape(),
                found: targets.shape(),
                op: "bce_with_logits",
            });
        }
        let mut total = 0.0f32;
        for (z, y) in lv.data().iter().zip(targets.data().iter()) {
            total += z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln();
        }
        let loss = total / lv.len().max(1) as f32;
        Ok(self.push(
            Matrix::full(1, 1, loss),
            Op::BceWithLogits {
                logits: logits.0,
                targets: Rc::new(targets.clone()),
            },
        ))
    }

    /// Computes the gradient contributions of a single node to its inputs.
    ///
    /// Returns `(input_node_index, contribution)` pairs; the backward driver
    /// accumulates them. `grad` is the upstream gradient and `out` the value
    /// produced in the forward pass.
    #[expect(
        clippy::indexing_slicing,
        reason = "`a_cols` is at most the concatenated row's width; segment ids are below `n_seg`, their maximum plus one"
    )]
    pub(crate) fn backward_contributions(
        &self,
        op: &Op,
        grad: &Matrix,
        out: &Matrix,
    ) -> Result<Vec<(usize, Matrix)>, TensorError> {
        let val = |i: usize| self.node_value(i);
        let mut contributions = Vec::new();
        match op {
            Op::Leaf | Op::Constant => {}
            Op::Add(a, b) => {
                contributions.push((*a, grad.clone()));
                contributions.push((*b, grad.clone()));
            }
            Op::AddBroadcastRow(x, bias) => {
                contributions.push((*x, grad.clone()));
                contributions.push((*bias, grad.sum_rows()));
            }
            Op::MulBroadcastRow(x, gamma) => {
                let xv = self.node_value(*x);
                let gv = self.node_value(*gamma);
                let mut dx = grad.clone();
                for r in 0..dx.rows() {
                    for c in 0..dx.cols() {
                        dx.set(r, c, dx.get(r, c) * gv.get(0, c));
                    }
                }
                let mut dgamma = Matrix::zeros(1, gv.cols());
                for r in 0..grad.rows() {
                    for c in 0..grad.cols() {
                        dgamma.add_at(0, c, grad.get(r, c) * xv.get(r, c));
                    }
                }
                contributions.push((*x, dx));
                contributions.push((*gamma, dgamma));
            }
            Op::Sub(a, b) => {
                contributions.push((*a, grad.clone()));
                contributions.push((*b, grad.scale(-1.0)));
            }
            Op::Mul(a, b) => {
                contributions.push((*a, grad.hadamard(val(*b))?));
                contributions.push((*b, grad.hadamard(val(*a))?));
            }
            Op::MatMul(a, b) => {
                contributions.push((*a, grad.matmul(&self.node_value(*b).transpose())?));
                contributions.push((*b, self.node_value(*a).transpose().matmul(grad)?));
            }
            Op::Scale(x, s) => contributions.push((*x, grad.scale(*s))),
            Op::AddScalar(x, _) => contributions.push((*x, grad.clone())),
            Op::MulScalarVar(x, s) => {
                let scalar = self.node_value(*s).get(0, 0);
                contributions.push((*x, grad.scale(scalar)));
                let ds = grad.hadamard(val(*x))?.sum();
                contributions.push((*s, Matrix::full(1, 1, ds)));
            }
            Op::Relu(x) => {
                let xv = self.node_value(*x);
                let mask = xv.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                contributions.push((*x, grad.hadamard(&mask)?));
            }
            Op::LeakyRelu(x, slope) => {
                let xv = self.node_value(*x);
                let mask = xv.map(|v| if v > 0.0 { 1.0 } else { *slope });
                contributions.push((*x, grad.hadamard(&mask)?));
            }
            Op::Sigmoid(x) => {
                let d = out.map(|o| o * (1.0 - o));
                contributions.push((*x, grad.hadamard(&d)?));
            }
            Op::Tanh(x) => {
                let d = out.map(|o| 1.0 - o * o);
                contributions.push((*x, grad.hadamard(&d)?));
            }
            Op::ConcatCols(a, b) => {
                let a_cols = self.node_value(*a).cols();
                let (rows, total) = grad.shape();
                let mut da = Matrix::zeros(rows, a_cols);
                let mut db = Matrix::zeros(rows, total - a_cols);
                for r in 0..rows {
                    da.row_mut(r).copy_from_slice(&grad.row(r)[..a_cols]);
                    db.row_mut(r).copy_from_slice(&grad.row(r)[a_cols..]);
                }
                contributions.push((*a, da));
                contributions.push((*b, db));
            }
            Op::SumAll(x) => {
                let g = grad.get(0, 0);
                let shape = self.node_value(*x).shape();
                contributions.push((*x, Matrix::full(shape.0, shape.1, g)));
            }
            Op::MeanAll(x) => {
                let shape = self.node_value(*x).shape();
                let n = (shape.0 * shape.1).max(1) as f32;
                let g = grad.get(0, 0) / n;
                contributions.push((*x, Matrix::full(shape.0, shape.1, g)));
            }
            Op::SumCols(x) => {
                let shape = self.node_value(*x).shape();
                let mut dx = Matrix::zeros(shape.0, shape.1);
                for r in 0..shape.0 {
                    let g = grad.get(r, 0);
                    for c in 0..shape.1 {
                        dx.set(r, c, g);
                    }
                }
                contributions.push((*x, dx));
            }
            Op::SelectRows(x, indices) => {
                let shape = self.node_value(*x).shape();
                let mut dx = Matrix::zeros(shape.0, shape.1);
                for (out_row, &src_row) in indices.iter().enumerate() {
                    for c in 0..shape.1 {
                        dx.add_at(src_row, c, grad.get(out_row, c));
                    }
                }
                contributions.push((*x, dx));
            }
            Op::Spmm(a, x) => {
                contributions.push((*x, a.transpose_matmul_dense(grad)?));
            }
            Op::SpmmEdgeWeighted {
                edges,
                weights,
                x,
                n_out: _,
            } => {
                let wv = self.node_value(*weights);
                let xv = self.node_value(*x);
                let mut dw = Matrix::zeros(edges.len(), 1);
                let mut dx = Matrix::zeros(xv.rows(), xv.cols());
                for (e, &(src, dst)) in edges.iter().enumerate() {
                    let w = wv.get(e, 0);
                    let mut dot = 0.0f32;
                    for c in 0..xv.cols() {
                        let g = grad.get(dst, c);
                        dot += g * xv.get(src, c);
                        dx.add_at(src, c, w * g);
                    }
                    dw.set(e, 0, dot);
                }
                contributions.push((*weights, dw));
                contributions.push((*x, dx));
            }
            Op::SegmentSoftmax { logits, segments } => {
                // d l_e = out_e * (g_e - sum_{e' in seg(e)} g_{e'} out_{e'})
                let n_seg = segments.iter().copied().max().map_or(0, |m| m + 1);
                let mut seg_dot = vec![0.0f32; n_seg];
                for (e, &s) in segments.iter().enumerate() {
                    seg_dot[s] += grad.get(e, 0) * out.get(e, 0);
                }
                let mut dl = Matrix::zeros(segments.len(), 1);
                for (e, &s) in segments.iter().enumerate() {
                    dl.set(e, 0, out.get(e, 0) * (grad.get(e, 0) - seg_dot[s]));
                }
                contributions.push((*logits, dl));
            }
            Op::StandardizeCols { x, eps } => {
                let xv = self.node_value(*x);
                let (n, d) = xv.shape();
                let nf = n.max(1) as f32;
                let mut dx = Matrix::zeros(n, d);
                for c in 0..d {
                    let mut mean = 0.0f32;
                    for r in 0..n {
                        mean += xv.get(r, c);
                    }
                    mean /= nf;
                    let mut var = 0.0f32;
                    for r in 0..n {
                        let diff = xv.get(r, c) - mean;
                        var += diff * diff;
                    }
                    var /= nf;
                    let std = (var + eps).sqrt();
                    let mut g_mean = 0.0f32;
                    let mut gy_mean = 0.0f32;
                    for r in 0..n {
                        g_mean += grad.get(r, c);
                        gy_mean += grad.get(r, c) * out.get(r, c);
                    }
                    g_mean /= nf;
                    gy_mean /= nf;
                    for r in 0..n {
                        let v = (grad.get(r, c) - g_mean - out.get(r, c) * gy_mean) / std;
                        dx.set(r, c, v);
                    }
                }
                contributions.push((*x, dx));
            }
            Op::MseLoss { pred, target } => {
                let pv = self.node_value(*pred);
                let n = pv.len().max(1) as f32;
                let scale = grad.get(0, 0) * 2.0 / n;
                let dpred = pv.sub(target)?.scale(scale);
                contributions.push((*pred, dpred));
            }
            Op::BceWithLogits { logits, targets } => {
                let lv = self.node_value(*logits);
                let n = lv.len().max(1) as f32;
                let scale = grad.get(0, 0) / n;
                let mut dl = Matrix::zeros(lv.rows(), lv.cols());
                for r in 0..lv.rows() {
                    for c in 0..lv.cols() {
                        let z = lv.get(r, c);
                        let y = targets.get(r, c);
                        dl.set(r, c, scale * (stable_sigmoid(z) - y));
                    }
                }
                contributions.push((*logits, dl));
            }
        }
        Ok(contributions)
    }
}

/// Overflow-safe logistic sigmoid.
pub fn stable_sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_sigmoid_extremes() {
        assert!(stable_sigmoid(100.0) > 0.999);
        assert!(stable_sigmoid(-100.0) < 1e-3);
        assert!((stable_sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(stable_sigmoid(1000.0).is_finite());
        assert!(stable_sigmoid(-1000.0).is_finite());
    }
}
