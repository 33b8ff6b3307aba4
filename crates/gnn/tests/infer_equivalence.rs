//! The one tape-free inference path, the decoder's [`Mlp::infer`], must be
//! *bit-identical* to the taped [`Mlp::forward`]: the serving fast path
//! (`dssddi_core`) relies on it, and any drift would silently change
//! clinical suggestions between training-time evaluation and deployment.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dssddi_gnn::{Activation, Mlp};
use dssddi_tensor::{Binder, Matrix, ParamSet, ScratchPool, Tape};

const ACTIVATIONS: [Activation; 5] = [
    Activation::Relu,
    Activation::LeakyRelu,
    Activation::Tanh,
    Activation::Sigmoid,
    Activation::Identity,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Mlp::infer` equals `Mlp::forward` bit-for-bit on random shapes,
    /// depths, activations and inputs.
    #[test]
    fn mlp_infer_matches_taped_forward_bitwise(
        seed in 0u64..1_000_000,
        n_rows in 1usize..24,
        d_in in 1usize..12,
        d_hidden in 1usize..16,
        d_out in 1usize..8,
        depth in 0usize..3,
        hidden_act in 0usize..5,
        output_act in 0usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dims = vec![d_in];
        for _ in 0..depth {
            dims.push(d_hidden);
        }
        dims.push(d_out);
        let mut params = ParamSet::new();
        let mlp = Mlp::new(
            "m",
            &dims,
            ACTIVATIONS[hidden_act],
            ACTIVATIONS[output_act],
            &mut params,
            &mut rng,
        );
        let x = Matrix::rand_uniform(n_rows, d_in, -2.0, 2.0, &mut rng);

        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let xv = tape.constant(x.clone());
        let taped = mlp.forward(&mut tape, &params, &mut binder, xv).unwrap();

        let mut pool = ScratchPool::new();
        let tape_free = mlp.infer(&params, &x, &mut pool).unwrap();

        prop_assert_eq!(tape.value(taped).shape(), tape_free.shape());
        prop_assert_eq!(
            tape.value(taped).data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            tape_free.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}

/// Stacked tape-free MLP inference reuses pool buffers instead of growing
/// the pool per call.
#[test]
fn repeated_inference_is_allocation_free_after_warmup() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut params = ParamSet::new();
    let mlp = Mlp::new(
        "m",
        &[8, 16, 16, 4],
        Activation::Relu,
        Activation::Identity,
        &mut params,
        &mut rng,
    );
    let x = Matrix::rand_uniform(10, 8, -1.0, 1.0, &mut rng);
    let mut pool = ScratchPool::new();
    let first = mlp.infer(&params, &x, &mut pool).unwrap();
    pool.recycle(first);
    let after_warmup = pool.idle_buffers();
    for _ in 0..5 {
        let out = mlp.infer(&params, &x, &mut pool).unwrap();
        pool.recycle(out);
        assert_eq!(pool.idle_buffers(), after_warmup, "pool must not grow");
    }
}
