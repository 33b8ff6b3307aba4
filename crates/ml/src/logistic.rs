//! Binary logistic regression trained with mini-batch-free SGD.
//!
//! Used as the base classifier of the Ensemble Classifier Chain baseline
//! (Section V-A1) and as a simple per-drug scorer in tests.

use dssddi_tensor::{stable_sigmoid, Matrix};

use crate::MlError;

/// Training hyperparameters for logistic regression.
#[derive(Debug, Clone)]
pub struct LogisticConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// L2 regularisation strength.
    pub l2: f32,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            learning_rate: 0.1,
            l2: 1e-4,
        }
    }
}

/// A fitted binary logistic regression model.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f32>,
    bias: f32,
}

impl LogisticRegression {
    /// Fits the model on features `x` and binary targets `y` (values in {0, 1}).
    pub fn fit(x: &Matrix, y: &[f32], config: &LogisticConfig) -> Result<Self, MlError> {
        if x.rows() == 0 {
            return Err(MlError::EmptyInput {
                what: "logistic regression requires samples",
            });
        }
        if x.rows() != y.len() {
            return Err(MlError::DimensionMismatch {
                expected: x.rows(),
                found: y.len(),
                what: "number of targets",
            });
        }
        let n = x.rows();
        let d = x.cols();
        let mut weights = vec![0.0f32; d];
        let mut bias = 0.0f32;
        for _ in 0..config.epochs {
            for i in 0..n {
                let row = x.row(i);
                let z: f32 = row
                    .iter()
                    .zip(weights.iter())
                    .map(|(a, b)| a * b)
                    .sum::<f32>()
                    + bias;
                let p = stable_sigmoid(z);
                #[expect(
                    clippy::indexing_slicing,
                    reason = "`y` has one label per row, checked above"
                )]
                let err = p - y[i];
                for (w, &xv) in weights.iter_mut().zip(row.iter()) {
                    *w -= config.learning_rate * (err * xv + config.l2 * *w);
                }
                bias -= config.learning_rate * err;
            }
        }
        Ok(Self { weights, bias })
    }

    /// Probability that the sample belongs to the positive class.
    pub fn predict_proba_row(&self, row: &[f32]) -> f32 {
        let z: f32 = row
            .iter()
            .zip(self.weights.iter())
            .map(|(a, b)| a * b)
            .sum::<f32>()
            + self.bias;
        stable_sigmoid(z)
    }

    /// Positive-class probabilities for every row of `x`.
    pub fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        (0..x.rows())
            .map(|r| self.predict_proba_row(x.row(r)))
            .collect()
    }

    /// Hard 0/1 predictions at threshold 0.5.
    pub fn predict(&self, x: &Matrix) -> Vec<f32> {
        self.predict_proba(x)
            .into_iter()
            .map(|p| if p >= 0.5 { 1.0 } else { 0.0 })
            .collect()
    }

    /// Learned weight vector.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Learned bias.
    pub fn bias(&self) -> f32 {
        self.bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn linearly_separable(n: usize, seed: u64) -> (Matrix, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Matrix::from_fn(n, 2, |_, _| rng.gen_range(-1.0..1.0f32));
        let y: Vec<f32> = (0..n)
            .map(|i| {
                if x.get(i, 0) + 0.5 * x.get(i, 1) > 0.0 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        (x, y)
    }

    #[test]
    fn learns_a_separable_problem() {
        let (x, y) = linearly_separable(200, 0);
        let model = LogisticRegression::fit(&x, &y, &LogisticConfig::default()).unwrap();
        let pred = model.predict(&x);
        let acc = pred.iter().zip(y.iter()).filter(|(a, b)| a == b).count() as f32 / y.len() as f32;
        assert!(acc > 0.95, "accuracy {acc} too low");
    }

    #[test]
    fn probabilities_are_in_unit_interval() {
        let (x, y) = linearly_separable(50, 1);
        let model = LogisticRegression::fit(&x, &y, &LogisticConfig::default()).unwrap();
        for p in model.predict_proba(&x) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn mismatched_targets_error() {
        let x = Matrix::ones(4, 2);
        assert!(LogisticRegression::fit(&x, &[1.0, 0.0], &LogisticConfig::default()).is_err());
        assert!(
            LogisticRegression::fit(&Matrix::zeros(0, 2), &[], &LogisticConfig::default()).is_err()
        );
    }

    #[test]
    fn constant_labels_predict_constant() {
        let x = Matrix::ones(20, 3);
        let y = vec![1.0; 20];
        let model = LogisticRegression::fit(&x, &y, &LogisticConfig::default()).unwrap();
        for p in model.predict_proba(&x) {
            assert!(p > 0.8);
        }
    }

    #[test]
    fn l2_regularisation_shrinks_weights() {
        let (x, y) = linearly_separable(100, 2);
        let free = LogisticRegression::fit(
            &x,
            &y,
            &LogisticConfig {
                l2: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        let reg = LogisticRegression::fit(
            &x,
            &y,
            &LogisticConfig {
                l2: 0.5,
                ..Default::default()
            },
        )
        .unwrap();
        let norm = |w: &[f32]| w.iter().map(|v| v * v).sum::<f32>();
        assert!(norm(reg.weights()) < norm(free.weights()));
    }
}
