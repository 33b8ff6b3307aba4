//! Multi-layer perceptrons on the autodiff tape.
//!
//! Both DDIGCN (Eq. 1, the `f_Θ1` update) and the MDGCN decoder (Eq. 14–15,
//! `f_Θ2`) are MLPs; this module provides a small reusable implementation
//! whose parameters live in a shared [`ParamSet`].

use rand::Rng;

use dssddi_tensor::serde::{ByteReader, ByteWriter, SerdeError};
use dssddi_tensor::{init, Binder, ParamId, ParamSet, Tape, TensorError, Var};

/// Activation applied between (and optionally after) MLP layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with slope 0.01 (the paper's choice for MDGCN).
    LeakyRelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// No activation.
    Identity,
}

impl Activation {
    /// Stable on-disk tag of the activation.
    pub fn tag(self) -> u8 {
        match self {
            Activation::Relu => 0,
            Activation::LeakyRelu => 1,
            Activation::Tanh => 2,
            Activation::Sigmoid => 3,
            Activation::Identity => 4,
        }
    }

    /// Inverse of [`Activation::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Activation::Relu),
            1 => Some(Activation::LeakyRelu),
            2 => Some(Activation::Tanh),
            3 => Some(Activation::Sigmoid),
            4 => Some(Activation::Identity),
            _ => None,
        }
    }
}

/// A fully connected network `x W₁ + b₁ → act → … → x Wₗ + bₗ`.
#[derive(Debug, Clone)]
pub struct Mlp {
    pub(crate) layers: Vec<(ParamId, ParamId)>,
    pub(crate) dims: Vec<usize>,
    pub(crate) hidden_activation: Activation,
    pub(crate) output_activation: Activation,
}

impl Mlp {
    /// Creates an MLP with the given layer dimensions, e.g. `[64, 64, 1]`
    /// builds two linear layers. Parameters are registered in `params` under
    /// names derived from `name`.
    pub fn new(
        name: &str,
        dims: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        params: &mut ParamSet,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least an input and an output dimension"
        );
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            #[expect(
                clippy::indexing_slicing,
                reason = "`i + 1 < dims.len()` by the loop bound"
            )]
            let w = params.add(
                format!("{name}.w{i}"),
                init::xavier_uniform(dims[i], dims[i + 1], rng),
            );
            #[expect(
                clippy::indexing_slicing,
                reason = "`i + 1 < dims.len()` by the loop bound"
            )]
            let b = params.add(format!("{name}.b{i}"), init::zeros(1, dims[i + 1]));
            layers.push((w, b));
        }
        Self {
            layers,
            dims: dims.to_vec(),
            hidden_activation,
            output_activation,
        }
    }

    /// Input dimension.
    #[expect(
        clippy::indexing_slicing,
        reason = "every constructor keeps at least two dims"
    )]
    pub fn input_dim(&self) -> usize {
        self.dims[0]
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.dims.last().copied().unwrap_or(0)
    }

    /// Number of linear layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Serializes the MLP's structure (layer parameter ids, dimensions and
    /// activations). Parameter *values* live in the shared [`ParamSet`] and
    /// are serialized with it, not here.
    pub fn write_into(&self, w: &mut ByteWriter) {
        w.put_usize(self.layers.len());
        for &(wid, bid) in &self.layers {
            w.put_param_id(wid);
            w.put_param_id(bid);
        }
        w.put_usize_slice(&self.dims);
        w.put_u8(self.hidden_activation.tag());
        w.put_u8(self.output_activation.tag());
    }

    /// Reconstructs an MLP written by [`Mlp::write_into`], validating every
    /// parameter id and layer shape against `params` so a corrupt file can
    /// never produce an MLP that panics at inference time.
    pub fn read_from(r: &mut ByteReader<'_>, params: &ParamSet) -> Result<Self, SerdeError> {
        let n_layers = r.take_usize("mlp.layers")?;
        let mut layers = Vec::new();
        for _ in 0..n_layers {
            let wid = r.take_param_id(params, "mlp.layer.w")?;
            let bid = r.take_param_id(params, "mlp.layer.b")?;
            layers.push((wid, bid));
        }
        let dims = r.take_usize_vec("mlp.dims")?;
        if dims.len() < 2 || dims.len() != n_layers + 1 {
            return Err(SerdeError::Corrupt {
                what: format!("mlp: {} dims do not match {} layers", dims.len(), n_layers),
            });
        }
        for (i, &(wid, bid)) in layers.iter().enumerate() {
            #[expect(
                clippy::indexing_slicing,
                reason = "`dims` holds `n_layers + 1` entries, checked above, and `i` enumerates the layers"
            )]
            let (expect_in, expect_out) = (dims[i], dims[i + 1]);
            if params.get(wid).shape() != (expect_in, expect_out)
                || params.get(bid).shape() != (1, expect_out)
            {
                return Err(SerdeError::Corrupt {
                    what: format!(
                        "mlp: layer {i} parameters do not have the declared \
                         {expect_in}->{expect_out} shape"
                    ),
                });
            }
        }
        let hidden = r.take_u8("mlp.hidden_activation")?;
        let output = r.take_u8("mlp.output_activation")?;
        let decode = |tag: u8| {
            Activation::from_tag(tag).ok_or_else(|| SerdeError::Corrupt {
                what: format!("mlp: unknown activation tag {tag}"),
            })
        };
        Ok(Self {
            layers,
            dims,
            hidden_activation: decode(hidden)?,
            output_activation: decode(output)?,
        })
    }

    /// Runs the MLP on `x` (shape `n x input_dim`), binding its parameters
    /// onto `tape` through `binder`.
    pub fn forward(
        &self,
        tape: &mut Tape,
        params: &ParamSet,
        binder: &mut Binder,
        x: Var,
    ) -> Result<Var, TensorError> {
        let mut h = x;
        for (i, &(w, b)) in self.layers.iter().enumerate() {
            let wv = binder.bind(tape, params, w);
            let bv = binder.bind(tape, params, b);
            h = tape.matmul(h, wv)?;
            h = tape.add_broadcast_row(h, bv)?;
            let act = if i + 1 == self.layers.len() {
                self.output_activation
            } else {
                self.hidden_activation
            };
            h = apply_activation(tape, h, act);
        }
        Ok(h)
    }
}

/// Applies an [`Activation`] to a tape variable.
pub fn apply_activation(tape: &mut Tape, x: Var, activation: Activation) -> Var {
    match activation {
        Activation::Relu => tape.relu(x),
        Activation::LeakyRelu => tape.leaky_relu(x, 0.01),
        Activation::Tanh => tape.tanh(x),
        Activation::Sigmoid => tape.sigmoid(x),
        Activation::Identity => x,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssddi_tensor::{Adam, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_and_parameter_count() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(
            "m",
            &[4, 8, 2],
            Activation::Relu,
            Activation::Identity,
            &mut params,
            &mut rng,
        );
        assert_eq!(mlp.input_dim(), 4);
        assert_eq!(mlp.output_dim(), 2);
        assert_eq!(mlp.n_layers(), 2);
        assert_eq!(params.len(), 4); // two weights + two biases
        assert_eq!(params.num_scalars(), 4 * 8 + 8 + 8 * 2 + 2);

        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let x = tape.constant(Matrix::ones(5, 4));
        let y = mlp.forward(&mut tape, &params, &mut binder, x).unwrap();
        assert_eq!(tape.value(y).shape(), (5, 2));
    }

    #[test]
    fn mlp_can_learn_xor() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(
            "xor",
            &[2, 16, 1],
            Activation::Tanh,
            Activation::Identity,
            &mut params,
            &mut rng,
        );
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]).unwrap();
        let y = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let mut opt = Adam::new(0.05);
        let mut last = f32::INFINITY;
        for _ in 0..400 {
            let mut tape = Tape::new();
            let mut binder = Binder::new();
            let xv = tape.constant(x.clone());
            let logits = mlp.forward(&mut tape, &params, &mut binder, xv).unwrap();
            let loss = tape.bce_with_logits(logits, &y).unwrap();
            tape.backward(loss).unwrap();
            let grads = binder.grads(&tape, &params);
            opt.step(&mut params, &grads).unwrap();
            last = tape.value(loss).get(0, 0);
        }
        assert!(last < 0.1, "XOR not learned, loss {last}");
    }

    #[test]
    fn mlp_round_trips_through_serde() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(9);
        let mlp = Mlp::new(
            "m",
            &[3, 5, 2],
            Activation::LeakyRelu,
            Activation::Sigmoid,
            &mut params,
            &mut rng,
        );
        let mut w = ByteWriter::new();
        mlp.write_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = Mlp::read_from(&mut r, &params).unwrap();
        assert_eq!(back.input_dim(), 3);
        assert_eq!(back.output_dim(), 2);
        assert_eq!(back.n_layers(), 2);

        // The reloaded MLP computes the same outputs with the same ParamSet.
        let x = Matrix::rand_uniform(4, 3, -1.0, 1.0, &mut rng);
        let mut t1 = Tape::new();
        let mut b1 = Binder::new();
        let x1 = t1.constant(x.clone());
        let y1 = mlp.forward(&mut t1, &params, &mut b1, x1).unwrap();
        let mut t2 = Tape::new();
        let mut b2 = Binder::new();
        let x2 = t2.constant(x);
        let y2 = back.forward(&mut t2, &params, &mut b2, x2).unwrap();
        assert_eq!(t1.value(y1), t2.value(y2));

        // A reader over an empty ParamSet rejects the parameter ids.
        let mut r = ByteReader::new(&bytes);
        assert!(Mlp::read_from(&mut r, &ParamSet::new()).is_err());
        // Truncation errors instead of panicking.
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(Mlp::read_from(&mut r, &params).is_err());
        }
    }

    #[test]
    fn every_activation_is_applied_without_panic() {
        for act in [
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Identity,
        ] {
            let mut tape = Tape::new();
            let x = tape.constant(Matrix::from_vec(1, 2, vec![-1.0, 1.0]).unwrap());
            let y = apply_activation(&mut tape, x, act);
            assert!(tape.value(y).all_finite());
        }
    }
}
