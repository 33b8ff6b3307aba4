//! The Adam optimizer.
//!
//! The paper trains MDGCN and DDIGCN with Adam (learning rates 0.01 and
//! 0.001 respectively), and every trained model here uses it.

use std::collections::HashMap;

use crate::{Matrix, ParamId, ParamSet, TensorError};

/// Adam optimizer (Kingma & Ba, 2014), the optimizer used throughout the
/// paper's experiments.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
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
            t: 0,
            first_moment: HashMap::new(),
            second_moment: HashMap::new(),
        }
    }

    /// Applies one update step given `(parameter, gradient)` pairs.
    pub fn step(
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
            let moments = m.data_mut().iter_mut().zip(v.data_mut().iter_mut());
            let entries = value.data_mut().iter_mut().zip(grad.data());
            for ((w, &g), (mi, vi)) in entries.zip(moments) {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let m_hat = *mi / bias1;
                let v_hat = *vi / bias2;
                *w -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Binder, Tape};

    fn quadratic_step(opt: &mut Adam, params: &mut ParamSet, w: ParamId) -> f32 {
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
    fn adam_matches_hand_computed_update() {
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::from_vec(1, 1, vec![2.0]).unwrap());
        let mut opt = Adam::new(0.1);
        // grad = 4: m̂ = 4 and v̂ = 16 after bias correction, so the first
        // step moves w by lr * 4 / (4 + ε).
        quadratic_step(&mut opt, &mut params, w);
        assert!((params.get(w).get(0, 0) - 1.9).abs() < 1e-6);
        // grad = 3.8: m = 0.74 and v = 0.030424, over bias terms 0.19 and
        // 0.001999.
        quadratic_step(&mut opt, &mut params, w);
        assert!((params.get(w).get(0, 0) - 1.800_166_5).abs() < 1e-5);
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
    }

    #[test]
    fn optimizer_rejects_mismatched_gradient_shape() {
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::zeros(2, 2));
        let mut adam = Adam::new(0.1);
        assert!(adam.step(&mut params, &[(w, Matrix::zeros(3, 3))]).is_err());
    }
}
