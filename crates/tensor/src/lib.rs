//! # dssddi-tensor
//!
//! Dense linear algebra, sparse adjacency products and a tape-based
//! reverse-mode automatic differentiation engine — the numerical substrate
//! on which the DSSDDI reproduction trains its graph neural networks.
//!
//! The crate replaces the role PyTorch plays in the original paper. It is a
//! deliberately small, CPU-only `f32` engine: the paper's models operate on
//! 86 drugs and a few thousand patients with hidden dimension 64, so a
//! straightforward dense implementation reproduces the training dynamics.
//!
//! ## Quick tour
//!
//! ```
//! use dssddi_tensor::{Adam, Binder, Matrix, Optimizer, ParamSet, Tape};
//! use rand::SeedableRng;
//!
//! // A one-layer logistic regression trained with Adam.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let x = Matrix::rand_uniform(8, 3, -1.0, 1.0, &mut rng);
//! let y = Matrix::from_fn(8, 1, |r, _| if x.get(r, 0) > 0.0 { 1.0 } else { 0.0 });
//!
//! let mut params = ParamSet::new();
//! let w = params.add("w", dssddi_tensor::init::xavier_uniform(3, 1, &mut rng));
//! let mut opt = Adam::new(0.05);
//! for _ in 0..200 {
//!     let mut tape = Tape::new();
//!     let mut binder = Binder::new();
//!     let xv = tape.constant(x.clone());
//!     let wv = binder.bind(&mut tape, &params, w);
//!     let logits = tape.matmul(xv, wv).unwrap();
//!     let loss = tape.bce_with_logits(logits, &y).unwrap();
//!     tape.backward(loss).unwrap();
//!     let grads = binder.grads(&tape, &params);
//!     opt.step(&mut params, &grads).unwrap();
//! }
//! ```

#![warn(missing_docs)]

use std::sync::OnceLock;

pub mod init;
mod kernels;
mod matrix;
mod ops;
mod optim;
mod params;
mod scratch;
pub mod serde;
mod sparse;
mod tape;

pub use kernels::{fused_linear_into, ActivationKind};
pub use matrix::Matrix;
pub use ops::stable_sigmoid;
pub use optim::{Adam, Optimizer, Sgd};
pub use params::{clip_grad_norm, Binder, ParamId, ParamSet};
pub use scratch::ScratchPool;
pub use sparse::CsrMatrix;
pub use tape::{Tape, Var};

/// Errors produced by tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands (or an operand and a declared shape) disagree.
    ShapeMismatch {
        /// Shape the operation expected.
        expected: (usize, usize),
        /// Shape that was actually provided.
        found: (usize, usize),
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// An index lies outside the matrix shape.
    IndexOutOfBounds {
        /// Offending `(row, col)` index.
        index: (usize, usize),
        /// Shape of the indexed matrix.
        shape: (usize, usize),
    },
    /// A scalar argument was invalid (e.g. non-positive clip norm).
    InvalidArgument {
        /// Description of the invalid argument.
        what: &'static str,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch {
                expected,
                found,
                op,
            } => write!(
                f,
                "shape mismatch in {op}: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            TensorError::IndexOutOfBounds { index, shape } => write!(
                f,
                "index ({}, {}) out of bounds for shape {}x{}",
                index.0, index.1, shape.0, shape.1
            ),
            TensorError::InvalidArgument { what } => write!(f, "invalid argument: {what}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// How many threads this process may run at once, read once per process.
///
/// `std::thread::available_parallelism` re-reads the affinity mask and the
/// cgroup quota on every call, tens of microseconds each time. The count
/// only decides how work is sharded, never what it computes, so the first
/// answer is kept for the life of the process. Falls back to 1 when the
/// platform cannot tell.
pub fn available_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}
