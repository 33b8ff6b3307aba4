//! Compressed sparse row (CSR) matrices.
//!
//! Graph convolutions in the DDI and MD modules are expressed as products
//! of a (constant) normalised adjacency matrix with a dense feature matrix.
//! [`CsrMatrix`] stores that adjacency once and provides the sparse–dense
//! product used by the autodiff tape (forward: `A · X`, backward:
//! `Aᵀ · dL/dY`).

use crate::{Matrix, TensorError};

/// Minimum number of multiply-adds (`nnz * dense_cols`) before
/// `matmul_dense` shards rows across threads: below this, spawning costs
/// more than it saves (the paper-sized graphs fall well under it, so
/// training stays single-threaded and deterministic in timing).
const PAR_MIN_WORK: usize = 1 << 16;

/// A sparse matrix in compressed sparse row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from COO triplets `(row, col, value)`.
    ///
    /// Duplicate `(row, col)` entries are summed. Entries outside the
    /// declared shape produce an error.
    #[expect(
        clippy::indexing_slicing,
        reason = "every triplet is checked against the shape above, so `r + 1 <= rows` indexes `row_ptr` of length `rows + 1`"
    )]
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f32)],
    ) -> Result<Self, TensorError> {
        for &(r, c, _) in triplets {
            if r >= rows || c >= cols {
                return Err(TensorError::IndexOutOfBounds {
                    index: (r, c),
                    shape: (rows, cols),
                });
            }
        }
        let mut sorted: Vec<(usize, usize, f32)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));

        // Merge duplicate (row, col) entries by summing their values.
        let mut merged: Vec<(usize, usize, f32)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match merged.last_mut() {
                Some(&mut (lr, lc, ref mut lv)) if lr == r && lc == c => *lv += v,
                _ => merged.push((r, c, v)),
            }
        }

        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(merged.len());
        let mut values = Vec::with_capacity(merged.len());
        for &(r, c, v) in &merged {
            row_ptr[r + 1] += 1;
            col_idx.push(c);
            values.push(v);
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        Ok(Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structural) non-zero entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterator over the stored entries of row `r` as `(col, value)` pairs.
    #[expect(
        clippy::indexing_slicing,
        reason = "`r < rows` is the caller's bound; `row_ptr` has `rows + 1` monotone offsets into `col_idx` and `values`"
    )]
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let start = self.row_ptr[r];
        let end = self.row_ptr[r + 1];
        self.col_idx[start..end]
            .iter()
            .copied()
            .zip(self.values[start..end].iter().copied())
    }

    /// Sparse–dense product `self * dense`.
    pub fn matmul_dense(&self, dense: &Matrix) -> Result<Matrix, TensorError> {
        let mut out = Matrix::zeros(self.rows, dense.cols());
        self.matmul_dense_into(&mut out, dense)?;
        Ok(out)
    }

    /// Sparse–dense product `self * dense` written into a caller-provided
    /// buffer (typically from a [`crate::ScratchPool`]). Like every `*_into`
    /// kernel, it takes its output buffer as the first argument and fully
    /// overwrites it.
    ///
    /// `out` must already have shape `(self.rows, dense.cols())`; the
    /// kernel fully overwrites it. Rows of the output are
    /// independent, so when the total work (`nnz * dense_cols`) is large
    /// enough the row range is sharded across scoped threads, one per
    /// worker the process may run ([`crate::available_workers`], read once
    /// per process); each row is still accumulated by exactly one thread in
    /// the same entry order as the serial loop, so results are
    /// bit-identical regardless of the thread count.
    pub fn matmul_dense_into(&self, out: &mut Matrix, dense: &Matrix) -> Result<(), TensorError> {
        if self.cols != dense.rows() {
            return Err(TensorError::ShapeMismatch {
                expected: (self.cols, dense.cols()),
                found: dense.shape(),
                op: "CsrMatrix::matmul_dense",
            });
        }
        if out.shape() != (self.rows, dense.cols()) {
            return Err(TensorError::ShapeMismatch {
                expected: (self.rows, dense.cols()),
                found: out.shape(),
                op: "CsrMatrix::matmul_dense_into",
            });
        }
        let cols = dense.cols();
        out.data_mut().fill(0.0);
        if cols == 0 || self.rows == 0 {
            return Ok(());
        }
        let threads = crate::available_workers().min(self.rows.max(1));
        if threads > 1 && self.nnz().saturating_mul(cols) >= PAR_MIN_WORK {
            let rows_per_shard = self.rows.div_ceil(threads);
            std::thread::scope(|s| {
                for (shard, chunk) in out.data_mut().chunks_mut(rows_per_shard * cols).enumerate() {
                    let first_row = shard * rows_per_shard;
                    s.spawn(move || self.accumulate_rows(dense, first_row, chunk, cols));
                }
            });
        } else {
            self.accumulate_rows(dense, 0, out.data_mut(), cols);
        }
        Ok(())
    }

    /// Serial kernel over the row range starting at `first_row` whose output
    /// slice is `chunk` (`chunk.len() / cols` rows).
    fn accumulate_rows(&self, dense: &Matrix, first_row: usize, chunk: &mut [f32], cols: usize) {
        for (local, dst) in chunk.chunks_mut(cols).enumerate() {
            for (c, v) in self.row_entries(first_row + local) {
                let src = dense.row(c);
                for (d, s) in dst.iter_mut().zip(src.iter()) {
                    *d += v * s;
                }
            }
        }
    }

    /// Transposed sparse–dense product `selfᵀ * dense` (used in backward).
    pub fn transpose_matmul_dense(&self, dense: &Matrix) -> Result<Matrix, TensorError> {
        if self.rows != dense.rows() {
            return Err(TensorError::ShapeMismatch {
                expected: (self.rows, dense.cols()),
                found: dense.shape(),
                op: "CsrMatrix::transpose_matmul_dense",
            });
        }
        let mut out = Matrix::zeros(self.cols, dense.cols());
        for r in 0..self.rows {
            let src = dense.row(r);
            for (c, v) in self.row_entries(r) {
                let dst = out.row_mut(c);
                for (d, s) in dst.iter_mut().zip(src.iter()) {
                    *d += v * s;
                }
            }
        }
        Ok(out)
    }

    /// Materialises the sparse matrix as a dense [`Matrix`] (tests / small graphs).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                out.add_at(r, c, v);
            }
        }
        out
    }

    /// Builds the symmetrically normalised adjacency `D^{-1/2} (A) D^{-1/2}`
    /// over an undirected edge list (each pair added in both directions),
    /// optionally with self-loops — the propagation operator used by
    /// LightGCN-style layers (Eq. 11–12 of the paper).
    #[expect(
        clippy::indexing_slicing,
        reason = "every endpoint is checked against `n` above and `i < n`, so each indexes `deg` of length `n`"
    )]
    pub fn normalized_adjacency(
        n: usize,
        edges: &[(usize, usize)],
        self_loops: bool,
    ) -> Result<Self, TensorError> {
        let mut deg = vec![0usize; n];
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(edges.len() * 2 + n);
        for &(u, v) in edges {
            if u >= n || v >= n {
                return Err(TensorError::IndexOutOfBounds {
                    index: (u, v),
                    shape: (n, n),
                });
            }
            pairs.push((u, v));
            pairs.push((v, u));
            deg[u] += 1;
            deg[v] += 1;
        }
        if self_loops {
            for i in 0..n {
                pairs.push((i, i));
                deg[i] += 1;
            }
        }
        let triplets: Vec<(usize, usize, f32)> = pairs
            .into_iter()
            .map(|(u, v)| {
                let du = deg[u].max(1) as f32;
                let dv = deg[v].max(1) as f32;
                (u, v, 1.0 / (du.sqrt() * dv.sqrt()))
            })
            .collect();
        Self::from_triplets(n, n, &triplets)
    }

    /// Builds the row-normalised (mean aggregation) adjacency `D^{-1} A`
    /// over an undirected edge list, used by the GIN-style neighbour mean in
    /// Eq. (1) of the paper.
    #[expect(
        clippy::indexing_slicing,
        reason = "every endpoint is checked against `n` above, so each indexes `deg` of length `n`"
    )]
    pub fn mean_adjacency(n: usize, edges: &[(usize, usize)]) -> Result<Self, TensorError> {
        let mut deg = vec![0usize; n];
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            if u >= n || v >= n {
                return Err(TensorError::IndexOutOfBounds {
                    index: (u, v),
                    shape: (n, n),
                });
            }
            pairs.push((u, v));
            pairs.push((v, u));
            deg[u] += 1;
            deg[v] += 1;
        }
        let triplets: Vec<(usize, usize, f32)> = pairs
            .into_iter()
            .map(|(u, v)| (u, v, 1.0 / deg[u].max(1) as f32))
            .collect();
        Self::from_triplets(n, n, &triplets)
    }

    /// Builds the normalised adjacency of a bipartite interaction graph with
    /// `n_left + n_right` nodes from `(left, right)` interaction pairs.
    /// Left nodes occupy indices `0..n_left`, right nodes
    /// `n_left..n_left+n_right`.
    pub fn bipartite_normalized(
        n_left: usize,
        n_right: usize,
        interactions: &[(usize, usize)],
    ) -> Result<Self, TensorError> {
        let edges: Result<Vec<(usize, usize)>, TensorError> = interactions
            .iter()
            .map(|&(l, r)| {
                if l >= n_left || r >= n_right {
                    Err(TensorError::IndexOutOfBounds {
                        index: (l, r),
                        shape: (n_left, n_right),
                    })
                } else {
                    Ok((l, n_left + r))
                }
            })
            .collect();
        Self::normalized_adjacency(n_left + n_right, &edges?, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_triplets_and_dense_round_trip() {
        let t = vec![(0, 1, 2.0), (1, 0, 3.0), (2, 2, 4.0)];
        let csr = CsrMatrix::from_triplets(3, 3, &t).unwrap();
        assert_eq!(csr.nnz(), 3);
        let d = csr.to_dense();
        assert_eq!(d.get(0, 1), 2.0);
        assert_eq!(d.get(1, 0), 3.0);
        assert_eq!(d.get(2, 2), 4.0);
        assert_eq!(d.get(0, 0), 0.0);
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]).is_err());
    }

    #[test]
    fn duplicate_triplets_are_summed() {
        let csr = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.5)]).unwrap();
        assert_eq!(csr.to_dense().get(0, 1), 3.5);
    }

    #[test]
    fn matmul_dense_matches_dense_matmul() {
        let t = vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, -1.0), (2, 0, 0.5)];
        let csr = CsrMatrix::from_triplets(3, 3, &t).unwrap();
        let x = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let sparse_result = csr.matmul_dense(&x).unwrap();
        let dense_result = csr.to_dense().matmul(&x).unwrap();
        for (a, b) in sparse_result.data().iter().zip(dense_result.data().iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_matmul_matches_explicit_transpose() {
        let t = vec![(0, 1, 1.5), (1, 2, -2.0), (2, 0, 3.0)];
        let csr = CsrMatrix::from_triplets(3, 3, &t).unwrap();
        let x = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
        let a = csr.transpose_matmul_dense(&x).unwrap();
        let b = csr.to_dense().transpose().matmul(&x).unwrap();
        for (p, q) in a.data().iter().zip(b.data().iter()) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn shape_mismatch_errors() {
        let csr = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).unwrap();
        assert!(csr.matmul_dense(&Matrix::zeros(2, 2)).is_err());
        assert!(csr.transpose_matmul_dense(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn normalized_adjacency_rows_of_connected_graph() {
        // Path graph 0-1-2 with self loops: known GCN normalisation.
        let adj = CsrMatrix::normalized_adjacency(3, &[(0, 1), (1, 2)], true).unwrap();
        let d = adj.to_dense();
        // Node 0 degree 2, node 1 degree 3 (with self loops).
        assert!((d.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((d.get(0, 1) - 1.0 / (2.0f32.sqrt() * 3.0f32.sqrt())).abs() < 1e-6);
        assert_eq!(d.get(0, 2), 0.0);
    }

    #[test]
    fn mean_adjacency_rows_sum_to_one_for_nonisolated_nodes() {
        let adj = CsrMatrix::mean_adjacency(4, &[(0, 1), (0, 2), (0, 3), (2, 3)]).unwrap();
        let d = adj.to_dense();
        for r in 0..4 {
            let s: f32 = (0..4).map(|c| d.get(r, c)).sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    #[test]
    fn bipartite_normalized_offsets_right_nodes() {
        let adj = CsrMatrix::bipartite_normalized(2, 3, &[(0, 0), (1, 2)]).unwrap();
        assert_eq!(adj.rows(), 5);
        let d = adj.to_dense();
        assert!(d.get(0, 2) > 0.0); // left 0 <-> right 0 (index 2)
        assert!(d.get(4, 1) > 0.0); // right 2 (index 4) <-> left 1
        assert!(CsrMatrix::bipartite_normalized(2, 3, &[(5, 0)]).is_err());
    }

    #[test]
    fn empty_rows_are_handled() {
        let csr = CsrMatrix::from_triplets(4, 4, &[(3, 3, 1.0)]).unwrap();
        let x = Matrix::ones(4, 2);
        let y = csr.matmul_dense(&x).unwrap();
        assert_eq!(y.row(0), &[0.0, 0.0]);
        assert_eq!(y.row(3), &[1.0, 1.0]);
    }
}
