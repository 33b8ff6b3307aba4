//! Linear support vector machine trained with SGD on the hinge loss
//! (Pegasos-style updates).
//!
//! Bao & Jiang's medicine recommender baseline (the "SVM" rows of Tables I,
//! III and IV) scores every drug with an independent one-vs-rest linear SVM
//! over the patient features.

use dssddi_tensor::Matrix;

use crate::MlError;

/// Training hyperparameters of the linear SVM.
#[derive(Debug, Clone)]
pub struct SvmConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// L2 regularisation strength.
    pub l2: f32,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            learning_rate: 0.05,
            l2: 1e-3,
        }
    }
}

/// A fitted linear SVM (binary, one-vs-rest).
#[derive(Debug, Clone)]
pub struct LinearSvm {
    weights: Vec<f32>,
    bias: f32,
}

impl LinearSvm {
    /// Fits the SVM on features `x` and targets `y` given in {0, 1}
    /// (internally mapped to {−1, +1}).
    pub fn fit(x: &Matrix, y: &[f32], config: &SvmConfig) -> Result<Self, MlError> {
        if x.rows() == 0 {
            return Err(MlError::EmptyInput {
                what: "SVM requires samples",
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
                #[expect(
                    clippy::indexing_slicing,
                    reason = "`y` has one label per row, checked above"
                )]
                let target = if y[i] > 0.5 { 1.0 } else { -1.0 };
                let row = x.row(i);
                let margin: f32 = target
                    * (row
                        .iter()
                        .zip(weights.iter())
                        .map(|(a, b)| a * b)
                        .sum::<f32>()
                        + bias);
                if margin < 1.0 {
                    for (w, &xv) in weights.iter_mut().zip(row.iter()) {
                        *w -= config.learning_rate * (config.l2 * *w - target * xv);
                    }
                    bias += config.learning_rate * target;
                } else {
                    for w in weights.iter_mut() {
                        *w -= config.learning_rate * config.l2 * *w;
                    }
                }
            }
        }
        Ok(Self { weights, bias })
    }

    /// Signed distance to the separating hyperplane (the drug score).
    pub fn decision_function_row(&self, row: &[f32]) -> f32 {
        row.iter()
            .zip(self.weights.iter())
            .map(|(a, b)| a * b)
            .sum::<f32>()
            + self.bias
    }

    /// Decision values for every row of `x`.
    pub fn decision_function(&self, x: &Matrix) -> Vec<f32> {
        (0..x.rows())
            .map(|r| self.decision_function_row(x.row(r)))
            .collect()
    }

    /// Hard 0/1 predictions.
    pub fn predict(&self, x: &Matrix) -> Vec<f32> {
        self.decision_function(x)
            .into_iter()
            .map(|v| if v >= 0.0 { 1.0 } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn separable(n: usize, seed: u64) -> (Matrix, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Matrix::from_fn(n, 3, |_, _| rng.gen_range(-1.0..1.0f32));
        let y: Vec<f32> = (0..n)
            .map(|i| {
                if 2.0 * x.get(i, 0) - x.get(i, 2) > 0.1 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        (x, y)
    }

    #[test]
    fn separable_problem_is_learned() {
        let (x, y) = separable(300, 0);
        let svm = LinearSvm::fit(&x, &y, &SvmConfig::default()).unwrap();
        let pred = svm.predict(&x);
        let acc = pred.iter().zip(y.iter()).filter(|(a, b)| a == b).count() as f32 / y.len() as f32;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn decision_values_rank_positives_above_negatives() {
        let (x, y) = separable(200, 1);
        let svm = LinearSvm::fit(&x, &y, &SvmConfig::default()).unwrap();
        let scores = svm.decision_function(&x);
        let mean_pos: f32 = scores
            .iter()
            .zip(y.iter())
            .filter(|(_, &t)| t > 0.5)
            .map(|(s, _)| *s)
            .sum::<f32>()
            / y.iter().filter(|&&t| t > 0.5).count().max(1) as f32;
        let mean_neg: f32 = scores
            .iter()
            .zip(y.iter())
            .filter(|(_, &t)| t < 0.5)
            .map(|(s, _)| *s)
            .sum::<f32>()
            / y.iter().filter(|&&t| t < 0.5).count().max(1) as f32;
        assert!(mean_pos > mean_neg);
    }

    #[test]
    fn invalid_inputs_error() {
        assert!(LinearSvm::fit(&Matrix::zeros(0, 2), &[], &SvmConfig::default()).is_err());
        assert!(LinearSvm::fit(&Matrix::ones(3, 2), &[1.0], &SvmConfig::default()).is_err());
    }

    #[test]
    fn all_negative_labels_yield_negative_scores() {
        let x = Matrix::ones(30, 2);
        let y = vec![0.0; 30];
        let svm = LinearSvm::fit(&x, &y, &SvmConfig::default()).unwrap();
        assert!(svm.decision_function_row(&[1.0, 1.0]) <= 0.0);
    }
}
