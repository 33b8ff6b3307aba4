//! Tape-free inference for the serving path.
//!
//! Training needs the autodiff [`Tape`](dssddi_tensor::Tape): every
//! operation allocates a node, clones activations and remembers enough to
//! run backwards. Serving needs none of that — a suggestion request only
//! ever runs forwards, through the MD module's decoder. [`Mlp::infer`]
//! re-expresses the decoder's forward pass directly over the fused kernels
//! of `dssddi_tensor`, writing every intermediate into a caller-provided
//! [`ScratchPool`] so a serving loop performs no steady-state allocation at
//! all. It is the one tape-free path: everything that runs once per fit,
//! such as DDIGCN's embedding extraction, uses the taped forward pass.
//!
//! ## Bit-identical by construction
//!
//! The tape-free path is not merely "numerically close" to the taped one;
//! it produces the same bits. Each taped op is replaced by a kernel with the
//! identical floating-point evaluation order:
//!
//! * `Tape::matmul` and [`fused_linear_into`] share the same blocked,
//!   `k`-ascending accumulation (both call `Matrix::matmul_into`),
//! * the fused bias-plus-activation pass performs the same single addition
//!   as `Tape::add_broadcast_row` followed by the same scalar activation
//!   function.
//!
//! The equivalence tests in `tests/infer_equivalence.rs` assert exact
//! equality between [`Mlp::forward`] and [`Mlp::infer`] on randomized
//! shapes, depths, weights and activations.

use dssddi_tensor::{
    fused_linear_into, ActivationKind, Matrix, ParamSet, ScratchPool, TensorError,
};

use crate::mlp::{Activation, Mlp};

/// The scalar kernel activation that evaluates a tape-level [`Activation`].
fn activation_kind(activation: Activation) -> ActivationKind {
    match activation {
        Activation::Relu => ActivationKind::Relu,
        // The taped path applies leaky ReLU with slope 0.01 (see
        // `apply_activation`); the tape-free path must match it exactly.
        Activation::LeakyRelu => ActivationKind::LeakyRelu(0.01),
        Activation::Tanh => ActivationKind::Tanh,
        Activation::Sigmoid => ActivationKind::Sigmoid,
        Activation::Identity => ActivationKind::Identity,
    }
}

impl Mlp {
    /// Tape-free forward pass over `x` (shape `n x input_dim`), bit-identical
    /// to [`Mlp::forward`] on a tape.
    ///
    /// Intermediates come from (and retire back into) `pool`; callers may
    /// [`ScratchPool::recycle`] the returned matrix once they are done with
    /// it, making a serving loop allocation-free after warm-up.
    pub fn infer(
        &self,
        params: &ParamSet,
        x: &Matrix,
        pool: &mut ScratchPool,
    ) -> Result<Matrix, TensorError> {
        let mut cur: Option<Matrix> = None;
        for (i, &(w, b)) in self.layers.iter().enumerate() {
            let act = if i + 1 == self.layers.len() {
                self.output_activation
            } else {
                self.hidden_activation
            };
            let input = cur.as_ref().unwrap_or(x);
            #[expect(
                clippy::indexing_slicing,
                reason = "`dims` holds one more entry than `layers`, and `i` enumerates `layers`"
            )]
            let mut out = pool.take(input.rows(), self.dims[i + 1]);
            fused_linear_into(
                &mut out,
                input,
                params.get(w),
                params.get(b),
                activation_kind(act),
            )?;
            if let Some(prev) = cur.replace(out) {
                pool.recycle(prev);
            }
        }
        // Construction asserts `dims.len() >= 2`, so at least one layer ran;
        // an (impossible) zero-layer MLP is the identity.
        Ok(cur.unwrap_or_else(|| x.clone()))
    }
}
