//! Dense row-major `f32` matrices.
//!
//! [`Matrix`] is the storage type used throughout the DSSDDI reproduction:
//! model parameters, node feature tables, activation buffers and gradients
//! are all dense matrices. The type is deliberately simple (a `Vec<f32>`
//! plus a shape) so that the autodiff tape in [`crate::tape`] can clone and
//! accumulate values cheaply and predictably.

use std::fmt;

use rand::Rng;

use crate::TensorError;

/// Inner-dimension block size of the dense matmul kernel: `MATMUL_K_BLOCK`
/// rows of `rhs` form the panel kept hot in L1/L2. Blocks are visited in
/// ascending order, so every output element still accumulates its `k` terms
/// in exactly the order of the textbook i-k-j loop — the blocking changes
/// memory traffic, never floating-point results.
const MATMUL_K_BLOCK: usize = 64;

/// Output columns the dense matmul kernel accumulates together in one local
/// `[f32; MATMUL_J_BLOCK]` across a `k` block (two SSE or one AVX register).
const MATMUL_J_BLOCK: usize = 8;

/// Two column blocks taken in one pass over a `k` block: their accumulators
/// are independent, so each term's additions overlap instead of waiting on
/// the previous term's, and the pass loads each `a_ik` once for both.
const MATMUL_J_PAIR: usize = 2 * MATMUL_J_BLOCK;

/// Tile side of the blocked transpose (a 32x32 f32 tile is 4 KiB, i.e. two
/// tiles fit in L1 comfortably).
const TRANSPOSE_BLOCK: usize = 32;

/// A dense, row-major matrix of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![1.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Internal constructor for callers that have already established
    /// `data.len() == rows * cols` (the scratch pool).
    pub(crate) fn from_parts(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        Self { rows, cols, data }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                expected: (rows, cols),
                found: (data.len(), 1),
                op: "Matrix::from_vec",
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a single-column matrix from a slice.
    pub fn col_vector(values: &[f32]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix with entries drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.gen_range(lo..hi))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the entry at `(r, c)`.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds (programmer error).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the entry at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = value;
    }

    /// Adds `value` to the entry at `(r, c)`.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, value: f32) {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] += value;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Column `c` as an owned vector.
    pub fn col_to_vec(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Builds a new matrix from the rows selected by `indices`
    /// (rows may repeat).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// Returns an error when the inner dimensions do not agree.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, TensorError> {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(&mut out, rhs)?;
        Ok(out)
    }

    /// Matrix product `self * rhs` written into a caller-provided buffer
    /// (typically from a [`crate::ScratchPool`]) — the allocation-free kernel
    /// behind [`Matrix::matmul`]. Like every `*_into` kernel, it takes its
    /// output buffer as the first argument and fully overwrites it.
    ///
    /// `out` must already have shape `(self.rows, rhs.cols)`; the kernel
    /// fully overwrites it, so recycled scratch buffers need no prior
    /// zeroing.
    ///
    /// The kernel is register-blocked. Each output row is cleared, then
    /// filled one panel of `MATMUL_K_BLOCK` `rhs` rows at a time. Within a
    /// panel, every pair of 8-column blocks is loaded into a local
    /// `[f32; 16]`, takes the panel's `k` terms there, and is stored once
    /// per panel instead of once per term. A last 8-column block does the
    /// same in a `[f32; 8]`, and the last `cols % 8` columns (all of them
    /// for a single-column output layer) each in a scalar. A zero `a_ik`
    /// skips its term, so one-hot and other row-sparse inputs cost only
    /// their non-zeros. Panels are visited in ascending order, so every
    /// output element still sums its `k` terms in plain ascending order,
    /// starting from `0.0`: the textbook i-k-j loop's result, bit for bit,
    /// whatever the block sizes.
    pub fn matmul_into(&self, out: &mut Matrix, rhs: &Matrix) -> Result<(), TensorError> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                expected: (self.cols, self.cols),
                found: (rhs.rows, rhs.cols),
                op: "matmul",
            });
        }
        if out.shape() != (self.rows, rhs.cols) {
            return Err(TensorError::ShapeMismatch {
                expected: (self.rows, rhs.cols),
                found: out.shape(),
                op: "matmul_into",
            });
        }
        let (depth, n) = (self.cols, rhs.cols);
        if depth == 0 || n == 0 {
            out.data.fill(0.0);
            return Ok(());
        }
        let out_rows = out.data.chunks_exact_mut(n);
        for (a_row, out_row) in self.data.chunks_exact(depth).zip(out_rows) {
            out_row.fill(0.0);
            let panels = rhs.data.chunks(MATMUL_K_BLOCK * n);
            for (a_panel, b_panel) in a_row.chunks(MATMUL_K_BLOCK).zip(panels) {
                let (pairs, rest) = out_row.as_chunks_mut::<MATMUL_J_PAIR>();
                add_panel(pairs, 0, a_panel, b_panel, n);
                let first_block = (n - rest.len()) / MATMUL_J_BLOCK;
                let (blocks, tail) = rest.as_chunks_mut::<MATMUL_J_BLOCK>();
                add_panel(blocks, first_block, a_panel, b_panel, n);
                let first_column = n - tail.len();
                let columns = tail.as_chunks_mut::<1>().0;
                add_panel(columns, first_column, a_panel, b_panel, n);
            }
        }
        Ok(())
    }

    /// Transpose (cache-blocked: both the source rows and the destination
    /// rows of a `TRANSPOSE_BLOCK`-squared tile stay resident while it is moved).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for rr in (0..self.rows).step_by(TRANSPOSE_BLOCK) {
            let r_end = (rr + TRANSPOSE_BLOCK).min(self.rows);
            for cc in (0..self.cols).step_by(TRANSPOSE_BLOCK) {
                let c_end = (cc + TRANSPOSE_BLOCK).min(self.cols);
                for r in rr..r_end {
                    let src = &self.data[r * self.cols..(r + 1) * self.cols];
                    for c in cc..c_end {
                        out.data[c * self.rows + r] = src[c];
                    }
                }
            }
        }
        out
    }

    /// Element-wise addition.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix, TensorError> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix, TensorError> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix, TensorError> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    /// In-place element-wise addition (used for gradient accumulation).
    pub fn add_assign(&mut self, rhs: &Matrix) -> Result<(), TensorError> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape(),
                found: rhs.shape(),
                op: "add_assign",
            });
        }
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += *b;
        }
        Ok(())
    }

    /// Element-wise combination of two same-shape matrices.
    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Matrix, TensorError> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape(),
                found: rhs.shape(),
                op,
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every entry in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Multiplies every entry by a scalar.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all entries (0.0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum entry (negative infinity for an empty matrix).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum entry (positive infinity for an empty matrix).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Sum over columns, producing an `(rows, 1)` matrix.
    pub fn sum_cols(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.set(r, 0, self.row(r).iter().sum());
        }
        out
    }

    /// Sum over rows, producing a `(1, cols)` matrix.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.add_at(0, c, self.get(r, c));
            }
        }
        out
    }

    /// Horizontally concatenates `self` and `rhs` (same number of rows).
    pub fn concat_cols(&self, rhs: &Matrix) -> Result<Matrix, TensorError> {
        if self.rows != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                expected: (self.rows, rhs.cols),
                found: rhs.shape(),
                op: "concat_cols",
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(rhs.row(r));
        }
        Ok(out)
    }

    /// Dot product between two rows of (possibly different) matrices.
    pub fn row_dot(&self, r: usize, other: &Matrix, o: usize) -> f32 {
        self.row(r)
            .iter()
            .zip(other.row(o).iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Cosine similarity between row `r` of `self` and row `o` of `other`.
    ///
    /// Returns 0.0 when either row has a zero norm.
    pub fn row_cosine(&self, r: usize, other: &Matrix, o: usize) -> f32 {
        let dot = self.row_dot(r, other, o);
        let na = self.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb = other.row(o).iter().map(|x| x * x).sum::<f32>().sqrt();
        if na <= f32::EPSILON || nb <= f32::EPSILON {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    /// Euclidean distance between row `r` of `self` and row `o` of `other`.
    pub fn row_euclidean(&self, r: usize, other: &Matrix, o: usize) -> f32 {
        self.row(r)
            .iter()
            .zip(other.row(o).iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt()
    }

    /// Pairwise cosine-similarity matrix between the rows of `self` and the
    /// rows of `other` (result is `self.rows x other.rows`).
    pub fn cosine_similarity_matrix(&self, other: &Matrix) -> Result<Matrix, TensorError> {
        if self.cols != other.cols {
            return Err(TensorError::ShapeMismatch {
                expected: (other.rows, self.cols),
                found: other.shape(),
                op: "cosine_similarity_matrix",
            });
        }
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            for j in 0..other.rows {
                out.set(i, j, self.row_cosine(i, other, j));
            }
        }
        Ok(out)
    }

    /// True when all entries are finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// Adds one panel's terms to `blocks`, consecutive `W`-column blocks of an
/// output row that start at the row's block `first`: `a_panel` is the row's
/// slice of the panel's `k` range, and `b_panel` those rows of `rhs`, `n`
/// (at least 1) columns wide. Each block is loaded into a local `[f32; W]`
/// that the compiler keeps in registers, takes its terms in ascending `k`
/// order, and is stored once.
fn add_panel<const W: usize>(
    blocks: &mut [[f32; W]],
    first: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    n: usize,
) {
    for (jb, block) in (first..).zip(blocks) {
        let mut acc = *block;
        for (&a_ik, b_row) in a_panel.iter().zip(b_panel.chunks_exact(n)) {
            // One well-predicted branch per term: one-hot and other
            // row-sparse inputs (DDIGCN identity features, binary patient
            // features) skip it, while the update below stays branch-free.
            if a_ik == 0.0 {
                continue;
            }
            if let Some(b_block) = b_row.as_chunks::<W>().0.get(jb) {
                for (s, &b_kj) in acc.iter_mut().zip(b_block) {
                    *s += a_ik * b_kj;
                }
            }
        }
        *block = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_ones_full_shapes() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert_eq!(z.sum(), 0.0);
        let o = Matrix::ones(2, 2);
        assert_eq!(o.sum(), 4.0);
        let f = Matrix::full(2, 3, 0.5);
        assert!((f.sum() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn matmul_small_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(0, 1), 64.0);
        assert_eq!(c.get(1, 0), 139.0);
        assert_eq!(c.get(1, 1), 154.0);
    }

    #[test]
    fn matmul_dimension_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::rand_uniform(4, 4, -1.0, 1.0, &mut rng);
        let i = Matrix::identity(4);
        let ai = a.matmul(&i).unwrap();
        for (x, y) in a.data().iter().zip(ai.data().iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.hadamard(&b).unwrap().data(), &[4.0, 10.0, 18.0]);
        assert!(a.add(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.sum_cols().data(), &[3.0, 7.0]);
        assert_eq!(a.sum_rows().data(), &[4.0, 6.0]);
    }

    #[test]
    fn concat_cols_and_rows() {
        let a = Matrix::ones(2, 2);
        let b = Matrix::zeros(2, 3);
        let c = a.concat_cols(&b).unwrap();
        assert_eq!(c.shape(), (2, 5));
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(0, 4), 0.0);
        assert!(a.concat_cols(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn select_rows_repeats_allowed() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let s = a.select_rows(&[2, 0, 2]);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
        assert_eq!(s.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn cosine_similarity_properties() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 0.0, 0.0, 0.0, 2.0, 0.0]).unwrap();
        assert!((a.row_cosine(0, &a, 0) - 1.0).abs() < 1e-6);
        assert!(a.row_cosine(0, &a, 1).abs() < 1e-6);
        let zero = Matrix::zeros(1, 3);
        assert_eq!(zero.row_cosine(0, &a, 0), 0.0);
        let sim = a.cosine_similarity_matrix(&a).unwrap();
        assert_eq!(sim.shape(), (2, 2));
        assert!((sim.get(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn random_constructors_are_seed_deterministic() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = Matrix::rand_uniform(3, 3, -1.0, 1.0, &mut r1);
        let b = Matrix::rand_uniform(3, 3, -1.0, 1.0, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn row_euclidean_distance() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 0.0, 3.0, 4.0]).unwrap();
        assert!((a.row_euclidean(0, &a, 1) - 5.0).abs() < 1e-6);
    }
}
