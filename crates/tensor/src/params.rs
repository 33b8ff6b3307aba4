//! Model parameter storage and binding onto the autodiff tape.
//!
//! Parameters persist across training steps in a [`ParamSet`] (just named
//! matrices). Each forward pass binds the parameters it uses onto a fresh
//! [`Tape`](crate::Tape) through a [`Binder`], which also remembers the
//! `(ParamId, Var)` association so that after `backward()` the gradients can
//! be pulled out and handed to an optimizer.

use crate::{Matrix, Tape, TensorError, Var};

/// Identifier of a parameter inside a [`ParamSet`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

/// A named collection of trainable matrices.
#[derive(Default)]
pub struct ParamSet {
    values: Vec<Matrix>,
    names: Vec<String>,
}

impl ParamSet {
    /// Creates an empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new parameter and returns its identifier.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.values.push(value);
        self.names.push(name.into());
        ParamId(self.values.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Current value of a parameter.
    #[expect(
        clippy::indexing_slicing,
        reason = "a `ParamId` is only issued by `ParamSet::add`, so it indexes a registered parameter"
    )]
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable access to a parameter (used by optimizers).
    #[expect(
        clippy::indexing_slicing,
        reason = "a `ParamId` is only issued by `ParamSet::add`, so it indexes a registered parameter"
    )]
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// Name a parameter was registered under.
    #[expect(
        clippy::indexing_slicing,
        reason = "a `ParamId` is only issued by `ParamSet::add`, so it indexes a registered name"
    )]
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterator over all `(ParamId, &Matrix)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.values.iter().enumerate().map(|(i, m)| (ParamId(i), m))
    }

    /// Total number of scalar parameters across all matrices.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }
}

/// Records which tape variable each parameter was bound to during one
/// forward pass.
#[derive(Default)]
pub struct Binder {
    pairs: Vec<(ParamId, Var)>,
}

impl Binder {
    /// Creates an empty binder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts the current value of `id` as a differentiable leaf on `tape`
    /// and remembers the association.
    pub fn bind(&mut self, tape: &mut Tape, params: &ParamSet, id: ParamId) -> Var {
        let var = tape.leaf(params.get(id).clone());
        self.pairs.push((id, var));
        var
    }

    /// Bound `(ParamId, Var)` associations.
    pub fn pairs(&self) -> &[(ParamId, Var)] {
        &self.pairs
    }

    /// Collects the gradients computed by the last `tape.backward()` call.
    ///
    /// Parameters that did not contribute to the loss get a zero gradient of
    /// the right shape, so optimizers can treat all parameters uniformly.
    pub fn grads(&self, tape: &Tape, params: &ParamSet) -> Vec<(ParamId, Matrix)> {
        self.pairs
            .iter()
            .map(|&(id, var)| {
                let grad = tape
                    .grad(var)
                    .cloned()
                    .unwrap_or_else(|| Matrix::zeros(params.get(id).rows(), params.get(id).cols()));
                (id, grad)
            })
            .collect()
    }

    /// Global L2 norm of all bound parameter gradients (for diagnostics and
    /// gradient clipping).
    pub fn grad_norm(&self, tape: &Tape) -> f32 {
        self.pairs
            .iter()
            .filter_map(|&(_, var)| tape.grad(var))
            .map(|g| g.data().iter().map(|x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }
}

/// Clips each gradient so that the global L2 norm does not exceed `max_norm`.
pub fn clip_grad_norm(grads: &mut [(ParamId, Matrix)], max_norm: f32) -> Result<f32, TensorError> {
    if max_norm <= 0.0 {
        return Err(TensorError::InvalidArgument {
            what: "max_norm must be positive",
        });
    }
    let total: f32 = grads
        .iter()
        .map(|(_, g)| g.data().iter().map(|x| x * x).sum::<f32>())
        .sum::<f32>()
        .sqrt();
    if total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        for (_, g) in grads.iter_mut() {
            g.map_inplace(|x| x * scale);
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_registration_and_lookup() {
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::ones(2, 3));
        let b = params.add("b", Matrix::zeros(1, 3));
        assert_eq!(params.len(), 2);
        assert_eq!(params.name(w), "w");
        assert_eq!(params.get(b).shape(), (1, 3));
        assert_eq!(params.num_scalars(), 9);
    }

    #[test]
    fn binder_collects_gradients_and_zero_fills_unused() {
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::from_vec(1, 2, vec![1.0, 2.0]).unwrap());
        let unused = params.add("unused", Matrix::ones(2, 2));

        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let wv = binder.bind(&mut tape, &params, w);
        let _uv = binder.bind(&mut tape, &params, unused);
        let loss = tape.sum_all(wv);
        tape.backward(loss).unwrap();

        let grads = binder.grads(&tape, &params);
        assert_eq!(grads.len(), 2);
        assert_eq!(grads[0].1.data(), &[1.0, 1.0]);
        assert_eq!(grads[1].1.sum(), 0.0);
        assert!(binder.grad_norm(&tape) > 0.0);
    }

    #[test]
    fn clip_grad_norm_scales_down_large_gradients() {
        let mut grads = vec![(ParamId(0), Matrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap())];
        let norm = clip_grad_norm(&mut grads, 1.0).unwrap();
        assert!((norm - 5.0).abs() < 1e-6);
        let clipped: f32 = grads[0].1.data().iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((clipped - 1.0).abs() < 1e-5);
        assert!(clip_grad_norm(&mut grads, 0.0).is_err());
    }

    #[test]
    fn clip_grad_norm_leaves_small_gradients_untouched() {
        let mut grads = vec![(ParamId(0), Matrix::from_vec(1, 2, vec![0.3, 0.4]).unwrap())];
        clip_grad_norm(&mut grads, 10.0).unwrap();
        assert_eq!(grads[0].1.data(), &[0.3, 0.4]);
    }
}
