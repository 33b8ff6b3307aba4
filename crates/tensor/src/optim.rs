//! First-order optimizers (SGD and Adam).
//!
//! The paper trains MDGCN and DDIGCN with Adam (learning rates 0.01 and
//! 0.001 respectively); SGD is provided for the classical baselines and for
//! tests that need a closed-form-checkable update.

use std::collections::HashMap;

use crate::{Matrix, ParamId, ParamSet, TensorError};

/// A gradient-based parameter update rule.
pub trait Optimizer {
    /// Applies one update step given `(parameter, gradient)` pairs.
    fn step(
        &mut self,
        params: &mut ParamSet,
        grads: &[(ParamId, Matrix)],
    ) -> Result<(), TensorError>;

    /// Learning rate currently in use.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent with optional L2 weight decay.
pub struct Sgd {
    lr: f32,
    weight_decay: f32,
}

impl Sgd {
    /// Creates an SGD optimizer with the given learning rate and no decay.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            weight_decay: 0.0,
        }
    }

    /// Adds L2 weight decay.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }
}

impl Optimizer for Sgd {
    fn step(
        &mut self,
        params: &mut ParamSet,
        grads: &[(ParamId, Matrix)],
    ) -> Result<(), TensorError> {
        for (id, grad) in grads {
            let value = params.get_mut(*id);
            if value.shape() != grad.shape() {
                return Err(TensorError::ShapeMismatch {
                    expected: value.shape(),
                    found: grad.shape(),
                    op: "Sgd::step",
                });
            }
            for (w, g) in value.data_mut().iter_mut().zip(grad.data().iter()) {
                *w -= self.lr * (g + self.weight_decay * *w);
            }
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam optimizer (Kingma & Ba, 2014), the optimizer used throughout the
/// paper's experiments.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    first_moment: HashMap<ParamId, Matrix>,
    second_moment: HashMap<ParamId, Matrix>,
}

impl Adam {
    /// Creates an Adam optimizer with standard hyperparameters
    /// (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            first_moment: HashMap::new(),
            second_moment: HashMap::new(),
        }
    }

    /// Adds L2 weight decay.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    /// Number of update steps applied so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    #[expect(
        clippy::indexing_slicing,
        reason = "`i < grad.len()`, and the value and both moments have the gradient's shape"
    )]
    fn step(
        &mut self,
        params: &mut ParamSet,
        grads: &[(ParamId, Matrix)],
    ) -> Result<(), TensorError> {
        self.t += 1;
        let t = self.t as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        for (id, grad) in grads {
            let value = params.get_mut(*id);
            if value.shape() != grad.shape() {
                return Err(TensorError::ShapeMismatch {
                    expected: value.shape(),
                    found: grad.shape(),
                    op: "Adam::step",
                });
            }
            let m = self
                .first_moment
                .entry(*id)
                .or_insert_with(|| Matrix::zeros(grad.rows(), grad.cols()));
            let v = self
                .second_moment
                .entry(*id)
                .or_insert_with(|| Matrix::zeros(grad.rows(), grad.cols()));
            for i in 0..grad.len() {
                let g = grad.data()[i] + self.weight_decay * value.data()[i];
                let mi = self.beta1 * m.data()[i] + (1.0 - self.beta1) * g;
                let vi = self.beta2 * v.data()[i] + (1.0 - self.beta2) * g * g;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let m_hat = mi / bias1;
                let v_hat = vi / bias2;
                value.data_mut()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Binder, Tape};

    fn quadratic_step(opt: &mut dyn Optimizer, params: &mut ParamSet, w: ParamId) -> f32 {
        // loss = sum(w ⊙ w), minimum at w = 0.
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let wv = binder.bind(&mut tape, params, w);
        let sq = tape.mul(wv, wv).unwrap();
        let loss = tape.sum_all(sq);
        tape.backward(loss).unwrap();
        let grads = binder.grads(&tape, params);
        opt.step(params, &grads).unwrap();
        tape.value(loss).get(0, 0)
    }

    #[test]
    fn sgd_matches_hand_computed_update() {
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::from_vec(1, 1, vec![2.0]).unwrap());
        let mut opt = Sgd::new(0.1);
        quadratic_step(&mut opt, &mut params, w);
        // grad = 2*2 = 4, update = 2 - 0.1*4 = 1.6
        assert!((params.get(w).get(0, 0) - 1.6).abs() < 1e-6);
    }

    #[test]
    fn sgd_weight_decay_shrinks_parameters_without_gradient() {
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::from_vec(1, 1, vec![1.0]).unwrap());
        let mut opt = Sgd::new(0.5).with_weight_decay(0.1);
        opt.step(&mut params, &[(w, Matrix::zeros(1, 1))]).unwrap();
        assert!((params.get(w).get(0, 0) - 0.95).abs() < 1e-6);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::from_vec(1, 3, vec![5.0, -3.0, 1.0]).unwrap());
        let mut opt = Adam::new(0.1);
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            last = quadratic_step(&mut opt, &mut params, w);
        }
        assert!(last < 1e-2, "Adam failed to converge, final loss {last}");
        assert_eq!(opt.steps(), 300);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::from_vec(1, 2, vec![4.0, -4.0]).unwrap());
        let mut opt = Sgd::new(0.1);
        let mut last = f32::INFINITY;
        for _ in 0..100 {
            last = quadratic_step(&mut opt, &mut params, w);
        }
        assert!(last < 1e-3);
    }

    #[test]
    fn optimizer_rejects_mismatched_gradient_shape() {
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::zeros(2, 2));
        let mut sgd = Sgd::new(0.1);
        assert!(sgd.step(&mut params, &[(w, Matrix::zeros(1, 1))]).is_err());
        let mut adam = Adam::new(0.1);
        assert!(adam.step(&mut params, &[(w, Matrix::zeros(3, 3))]).is_err());
    }

    #[test]
    fn learning_rate_can_be_adjusted() {
        let mut adam = Adam::new(0.1);
        adam.set_learning_rate(0.01);
        assert!((adam.learning_rate() - 0.01).abs() < 1e-9);
    }
}
