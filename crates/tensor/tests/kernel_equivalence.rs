//! The blocked/fused kernels must agree with their straightforward
//! textbook formulations — exactly, not approximately: the serving path's
//! bit-identity guarantee is built on these kernels.
#![allow(clippy::indexing_slicing)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dssddi_tensor::{fused_linear_into, ActivationKind, CsrMatrix, Matrix, ScratchPool};

/// Textbook i-k-j matmul with no blocking — the reference the cache-blocked
/// kernel must reproduce bit-for-bit (same ascending-`k` accumulation).
fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let a_ik = a.get(i, k);
            for j in 0..b.cols() {
                out.add_at(i, j, a_ik * b.get(k, j));
            }
        }
    }
    out
}

/// Rows of `rhs` per panel of the kernel below. The register-blocked kernel
/// keeps the same panel size, so `k` above it crosses panel boundaries in
/// both.
const MATMUL_K_BLOCK: usize = 64;

/// The panel-blocked kernel `Matrix::matmul_into` ran before it was
/// register-blocked, kept verbatim (the matrices' fields read through their
/// public accessors) as the reference the register-blocked kernel must
/// reproduce bit for bit, including its skip of zero `a_ik` terms.
fn panel_blocked_matmul_into(a: &Matrix, out: &mut Matrix, rhs: &Matrix) {
    const MATMUL_I_BLOCK: usize = 32;
    let (rows, cols) = a.shape();
    let (a_data, rhs_data) = (a.data(), rhs.data());
    let out_data = out.data_mut();
    out_data.fill(0.0);
    let n = rhs.cols();
    for ii in (0..rows).step_by(MATMUL_I_BLOCK) {
        let i_end = (ii + MATMUL_I_BLOCK).min(rows);
        for kk in (0..cols).step_by(MATMUL_K_BLOCK) {
            let k_end = (kk + MATMUL_K_BLOCK).min(cols);
            for i in ii..i_end {
                let a_row = &a_data[i * cols..(i + 1) * cols];
                let out_row = &mut out_data[i * n..(i + 1) * n];
                for (k, &a_ik) in a_row[kk..k_end].iter().enumerate() {
                    // One well-predicted branch per `k`, amortised over
                    // the whole `j` loop: one-hot and other row-sparse
                    // inputs (DDIGCN identity features, binary patient
                    // features) skip the entire panel row, while the
                    // inner loop below stays branch-free and
                    // autovectorizable for dense inputs.
                    if a_ik == 0.0 {
                        continue;
                    }
                    let b_row = &rhs_data[(kk + k) * n..(kk + k + 1) * n];
                    for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                        *o += a_ik * b_kj;
                    }
                }
            }
        }
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// Output widths for the register-blocked kernel, which takes a row's
/// columns in 16-wide pairs of 8-wide blocks, then at most one 8-wide
/// block, then single columns: every width up to one pair and a column
/// (1..=17), and wider rows mixing one or two pairs, a block or none, and
/// 0, 1 or 7 single columns.
const WIDTHS: [usize; 23] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 23, 24, 31, 33, 40, 47,
];

/// A `rows x cols` left operand whose zeros follow `pattern`: 0 dense,
/// 1 about half exact zeros, 2 one-hot rows, 3 every other row all zero.
fn sparse_lhs(rows: usize, cols: usize, pattern: usize, rng: &mut StdRng) -> Matrix {
    let mut a = Matrix::rand_uniform(rows, cols, -3.0, 3.0, rng);
    for r in 0..rows {
        let hot = rng.gen_range(0..cols);
        for c in 0..cols {
            let zero = match pattern {
                1 => rng.gen_range(0..2) == 0,
                2 => c != hot,
                3 => r % 2 == 1,
                _ => false,
            };
            if zero {
                a.set(r, c, 0.0);
            } else if pattern == 2 {
                a.set(r, c, 1.0);
            }
        }
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_matmul_matches_reference_bitwise(
        seed in 0u64..1_000_000,
        m in 1usize..70,
        k in 1usize..70,
        n in 1usize..70,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::rand_uniform(m, k, -3.0, 3.0, &mut rng);
        let b = Matrix::rand_uniform(k, n, -3.0, 3.0, &mut rng);
        let blocked = a.matmul(&b).unwrap();
        prop_assert_eq!(bits(&blocked), bits(&reference_matmul(&a, &b)));

        // matmul_into overwrites dirty buffers and matches too.
        let mut pool = ScratchPool::new();
        let mut dirty = pool.take(m, n);
        dirty.data_mut().fill(f32::NAN);
        a.matmul_into(&mut dirty, &b).unwrap();
        prop_assert_eq!(bits(&dirty), bits(&blocked));
    }

    /// The register-blocked kernel against the panel-blocked one it
    /// replaced, over every tail width, depths across several panels, and
    /// left operands with exact zeros, into an output it must overwrite.
    #[test]
    fn register_blocked_matmul_matches_the_panel_blocked_kernel_bitwise(
        seed in 0u64..1_000_000,
        m in 1usize..40,
        k in 1usize..=150,
        width in 0usize..WIDTHS.len(),
        pattern in 0usize..4,
    ) {
        let n = WIDTHS[width];
        let mut rng = StdRng::seed_from_u64(seed);
        let a = sparse_lhs(m, k, pattern, &mut rng);
        let b = Matrix::rand_uniform(k, n, -3.0, 3.0, &mut rng);

        let mut reference = Matrix::full(m, n, f32::NAN);
        panel_blocked_matmul_into(&a, &mut reference, &b);
        let mut out = Matrix::full(m, n, f32::NAN);
        a.matmul_into(&mut out, &b).unwrap();
        prop_assert_eq!(bits(&out), bits(&reference), "{}x{} * {}x{}", m, k, k, n);
        prop_assert_eq!(bits(&a.matmul(&b).unwrap()), bits(&reference));
    }

    #[test]
    fn blocked_transpose_round_trips(
        seed in 0u64..1_000_000,
        rows in 1usize..80,
        cols in 1usize..80,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::rand_uniform(rows, cols, -1.0, 1.0, &mut rng);
        let t = a.transpose();
        prop_assert_eq!(t.shape(), (cols, rows));
        for r in 0..rows.min(8) {
            for c in 0..cols.min(8) {
                prop_assert_eq!(a.get(r, c).to_bits(), t.get(c, r).to_bits());
            }
        }
        prop_assert_eq!(bits(&t.transpose()), bits(&a));
    }

    /// The fused layer matches the unfused sequence, into an output it must
    /// overwrite.
    #[test]
    fn fused_linear_matches_matmul_bias_activation_bitwise(
        seed in 0u64..1_000_000,
        n in 1usize..40,
        d_in in 1usize..20,
        d_out in 1usize..20,
        act_idx in 0usize..5,
    ) {
        let act = [
            ActivationKind::Relu,
            ActivationKind::LeakyRelu(0.01),
            ActivationKind::Tanh,
            ActivationKind::Sigmoid,
            ActivationKind::Identity,
        ][act_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Matrix::rand_uniform(n, d_in, -2.0, 2.0, &mut rng);
        let w = Matrix::rand_uniform(d_in, d_out, -1.0, 1.0, &mut rng);
        let bias = Matrix::rand_uniform(1, d_out, -0.5, 0.5, &mut rng);

        let mut fused = Matrix::full(n, d_out, f32::NAN);
        fused_linear_into(&mut fused, &x, &w, &bias, act).unwrap();

        let mut unfused = x.matmul(&w).unwrap();
        for r in 0..n {
            for c in 0..d_out {
                unfused.set(r, c, act.apply(unfused.get(r, c) + bias.get(0, c)));
            }
        }
        prop_assert_eq!(bits(&fused), bits(&unfused));
    }

    /// The (potentially row-parallel) CSR product matches a dense reference
    /// regardless of where the parallel threshold lands, into an output it
    /// must overwrite.
    #[test]
    fn csr_matmul_dense_matches_dense_reference(
        seed in 0u64..1_000_000,
        n_rows in 1usize..30,
        n_cols in 1usize..30,
        dense_cols in 1usize..16,
        nnz in 0usize..120,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let triplets: Vec<(usize, usize, f32)> = (0..nnz)
            .map(|_| {
                (
                    rng.gen_range(0..n_rows),
                    rng.gen_range(0..n_cols),
                    rng.gen_range(-1.0f32..1.0),
                )
            })
            .collect();
        let csr = CsrMatrix::from_triplets(n_rows, n_cols, &triplets).unwrap();
        let x = Matrix::rand_uniform(n_cols, dense_cols, -1.0, 1.0, &mut rng);
        let mut sparse = Matrix::full(n_rows, dense_cols, f32::NAN);
        csr.matmul_dense_into(&mut sparse, &x).unwrap();
        let dense = csr.to_dense().matmul(&x).unwrap();
        for (a, b) in sparse.data().iter().zip(dense.data().iter()) {
            prop_assert!((a - b).abs() <= 1e-5, "{a} vs {b}");
        }
    }
}

/// An empty inner or outer dimension is a product of zeros (or of nothing),
/// and the kernel still overwrites whatever the output held.
#[test]
fn matmul_over_an_empty_dimension_overwrites_the_output() {
    for (m, k, n) in [(3, 0, 4), (3, 2, 0), (0, 2, 3), (0, 0, 0)] {
        let a = Matrix::full(m, k, 1.5);
        let b = Matrix::full(k, n, -2.0);
        let mut out = Matrix::full(m, n, f32::NAN);
        a.matmul_into(&mut out, &b).unwrap();
        assert_eq!(out, Matrix::zeros(m, n), "{m}x{k} * {k}x{n}");
    }
}

/// Force the parallel row-sharded path (work above the threshold) and check
/// it is bit-identical to the serial per-row accumulation.
#[test]
fn parallel_csr_product_is_bit_identical_to_serial_rows() {
    let mut rng = StdRng::seed_from_u64(9);
    let n = 600;
    let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let csr = CsrMatrix::normalized_adjacency(n, &edges, true).unwrap();
    let x = Matrix::rand_uniform(n, 64, -1.0, 1.0, &mut rng);
    // nnz * cols = (2*(n-1)+n) * 64 > 65536 => parallel path engages.
    assert!(csr.nnz() * x.cols() > 1 << 16);
    let parallel = csr.matmul_dense(&x).unwrap();

    // Serial reference: accumulate each row in entry order.
    let mut serial = Matrix::zeros(n, 64);
    for r in 0..n {
        for (c, v) in csr.row_entries(r) {
            let src = x.row(c).to_vec();
            let dst = serial.row_mut(r);
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d += v * s;
            }
        }
    }
    let pb: Vec<u32> = parallel.data().iter().map(|v| v.to_bits()).collect();
    let sb: Vec<u32> = serial.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(pb, sb);
}
