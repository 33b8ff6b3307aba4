//! A pool of reusable matrix buffers for the tape-free inference path.
//!
//! Serving a batch of patients runs the same small forward pass thousands of
//! times; allocating fresh activation matrices for every layer of every
//! patient dominates the cost once the tape is gone. A [`ScratchPool`] keeps
//! the backing `Vec<f32>` allocations alive between uses:
//! [`ScratchPool::take`] hands out a matrix of the requested shape (reusing
//! a retired buffer's allocation when one is available) and
//! [`ScratchPool::recycle`] returns a matrix's storage to the pool.
//!
//! Reuse rules:
//!
//! * **Contents are unspecified** — a recycled buffer still holds its old
//!   values. Every kernel that writes into pooled buffers
//!   ([`Matrix::matmul_into`](crate::Matrix::matmul_into),
//!   [`fused_linear_into`](crate::fused_linear_into),
//!   `CsrMatrix::matmul_dense_into`) fully overwrites its output, so no
//!   caller pays a redundant zeroing pass; code that fills a buffer by hand
//!   must write every element.
//! * Whoever `take`s a buffer `recycle`s it once done with it; after
//!   warm-up a steady-state serving loop performs no allocation.
//! * The pool is deliberately not thread-safe: each serving worker owns its
//!   own pool (buffers never cross threads), which keeps `take`/`recycle`
//!   at the cost of a `Vec` push/pop.

use crate::Matrix;

/// A reusable pool of matrix buffers. See the module docs.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Vec<Vec<f32>>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A `rows x cols` matrix with **unspecified contents**, backed by a
    /// recycled allocation when the pool has one (most recently recycled
    /// first, so tight loops keep hitting the same cache-warm buffers).
    /// Callers must fully overwrite the buffer — all the `*_into` kernels
    /// do.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let need = rows * cols;
        let mut buf = self.free.pop().unwrap_or_default();
        if buf.len() >= need {
            buf.truncate(need);
        } else {
            // New capacity is zero-filled by `resize`; reused capacity
            // keeps whatever the previous user wrote.
            buf.resize(need, 0.0);
        }
        Matrix::from_parts(rows, cols, buf)
    }

    /// Returns a matrix's backing storage to the pool for later reuse.
    pub fn recycle(&mut self, m: Matrix) {
        self.free.push(m.into_vec());
    }

    /// Number of idle buffers currently held.
    pub fn idle_buffers(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_matrices_of_the_right_shape() {
        let mut pool = ScratchPool::new();
        let m = pool.take(3, 4);
        assert_eq!(m.shape(), (3, 4));
        pool.recycle(m);
        assert_eq!(pool.idle_buffers(), 1);
        let again = pool.take(2, 5);
        assert_eq!(pool.idle_buffers(), 0);
        assert_eq!(again.shape(), (2, 5));
    }

    #[test]
    fn recycled_allocation_is_reused_when_it_fits() {
        let mut pool = ScratchPool::new();
        let m = pool.take(10, 10);
        let ptr = m.data().as_ptr();
        pool.recycle(m);
        let again = pool.take(4, 6); // smaller: same allocation serves it
        assert_eq!(again.data().as_ptr(), ptr);
    }

    #[test]
    fn kernels_fully_overwrite_dirty_recycled_buffers() {
        let mut pool = ScratchPool::new();
        let mut dirty = pool.take(4, 4);
        dirty.data_mut().fill(f32::NAN);
        pool.recycle(dirty);
        let a = Matrix::identity(4);
        let b = Matrix::full(4, 4, 2.0);
        let mut out = pool.take(4, 4);
        a.matmul_into(&mut out, &b).unwrap();
        assert_eq!(out, b, "matmul_into must overwrite stale contents");
    }
}
