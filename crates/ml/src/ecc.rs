//! Ensemble Classifier Chains for multi-label classification
//! (Read et al., ECML-PKDD 2009).
//!
//! The "ECC" baseline of the paper feeds each binary classifier both the
//! patient features and the predictions of the previous classifiers in the
//! chain, and averages several chains with different label orders. Logistic
//! regression is used as the base classifier, as in Section V-A1.

use rand::seq::SliceRandom;
use rand::Rng;

use dssddi_tensor::Matrix;

use crate::logistic::{LogisticConfig, LogisticRegression};
use crate::MlError;

/// Configuration of the classifier-chain ensemble.
#[derive(Debug, Clone)]
pub struct EccConfig {
    /// Number of chains in the ensemble.
    pub n_chains: usize,
    /// Configuration of each logistic-regression base classifier.
    pub base: LogisticConfig,
}

impl Default for EccConfig {
    fn default() -> Self {
        Self {
            n_chains: 3,
            base: LogisticConfig {
                epochs: 40,
                ..Default::default()
            },
        }
    }
}

/// One chain: a label order and one classifier per label.
struct Chain {
    order: Vec<usize>,
    classifiers: Vec<LogisticRegression>,
}

/// A fitted ensemble of classifier chains.
pub struct EnsembleClassifierChain {
    chains: Vec<Chain>,
    n_labels: usize,
}

impl EnsembleClassifierChain {
    /// Fits the ensemble on features `x` and a multi-label matrix `y`
    /// (`n x n_labels`, entries in {0, 1}).
    pub fn fit(
        x: &Matrix,
        y: &Matrix,
        config: &EccConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, MlError> {
        if x.rows() == 0 {
            return Err(MlError::EmptyInput {
                what: "ECC requires samples",
            });
        }
        if x.rows() != y.rows() {
            return Err(MlError::DimensionMismatch {
                expected: x.rows(),
                found: y.rows(),
                what: "label matrix rows",
            });
        }
        if config.n_chains == 0 {
            return Err(MlError::InvalidArgument {
                what: "n_chains must be positive",
            });
        }
        let n_labels = y.cols();
        let mut chains = Vec::with_capacity(config.n_chains);
        for _ in 0..config.n_chains {
            let mut order: Vec<usize> = (0..n_labels).collect();
            order.shuffle(rng);
            let mut classifiers = Vec::with_capacity(n_labels);
            // Augmented feature matrix grows by one column per chained label.
            let mut augmented = x.clone();
            for &label in &order {
                let targets = y.col_to_vec(label);
                let clf = LogisticRegression::fit(&augmented, &targets, &config.base)?;
                // Chain the *true* labels during training (teacher forcing),
                // as in the original ECC formulation.
                let label_col = Matrix::col_vector(&targets);
                augmented =
                    augmented
                        .concat_cols(&label_col)
                        .map_err(|_| MlError::InvalidArgument {
                            what: "failed to chain label column",
                        })?;
                classifiers.push(clf);
            }
            chains.push(Chain { order, classifiers });
        }
        Ok(Self { chains, n_labels })
    }

    /// Predicts per-label scores for every row of `x`, averaged over chains.
    #[expect(
        clippy::indexing_slicing,
        clippy::expect_used,
        reason = "each chain has one classifier per position and appends one column per label; both score matrices have one shape"
    )]
    pub fn predict_scores(&self, x: &Matrix) -> Matrix {
        let mut scores = Matrix::zeros(x.rows(), self.n_labels);
        for chain in &self.chains {
            let mut augmented = x.clone();
            let mut chain_scores = Matrix::zeros(x.rows(), self.n_labels);
            for (pos, &label) in chain.order.iter().enumerate() {
                let probs = chain.classifiers[pos].predict_proba(&augmented);
                for (r, &p) in probs.iter().enumerate() {
                    chain_scores.set(r, label, p);
                }
                let col = Matrix::col_vector(&probs);
                augmented = augmented
                    .concat_cols(&col)
                    .expect("augmented feature width is consistent by construction");
            }
            for i in 0..scores.len() {
                scores.data_mut()[i] += chain_scores.data()[i];
            }
        }
        scores.scale(1.0 / self.chains.len() as f32)
    }

    /// Number of labels the ensemble was trained on.
    pub fn n_labels(&self) -> usize {
        self.n_labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two features decide two correlated labels; the third label equals the
    /// logical AND of the first two, which a chain can exploit.
    fn multilabel_data(n: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Matrix::from_fn(n, 2, |_, _| rng.gen_range(-1.0..1.0f32));
        let y = Matrix::from_fn(n, 3, |r, c| {
            let a = x.get(r, 0) > 0.0;
            let b = x.get(r, 1) > 0.0;
            match c {
                0 => a as u8 as f32,
                1 => b as u8 as f32,
                _ => (a && b) as u8 as f32,
            }
        });
        (x, y)
    }

    #[test]
    fn fits_and_ranks_correlated_labels() {
        let (x, y) = multilabel_data(300, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let ecc = EnsembleClassifierChain::fit(&x, &y, &EccConfig::default(), &mut rng).unwrap();
        let scores = ecc.predict_scores(&x);
        assert_eq!(scores.shape(), (300, 3));
        // Average score of true labels must beat false labels.
        let mut pos = 0.0f32;
        let mut npos = 0;
        let mut neg = 0.0f32;
        let mut nneg = 0;
        for r in 0..300 {
            for c in 0..3 {
                if y.get(r, c) > 0.5 {
                    pos += scores.get(r, c);
                    npos += 1;
                } else {
                    neg += scores.get(r, c);
                    nneg += 1;
                }
            }
        }
        assert!(pos / npos as f32 > neg / nneg as f32 + 0.2);
    }

    #[test]
    fn scores_are_probabilities() {
        let (x, y) = multilabel_data(100, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let ecc = EnsembleClassifierChain::fit(&x, &y, &EccConfig::default(), &mut rng).unwrap();
        for &s in ecc.predict_scores(&x).data() {
            assert!((0.0..=1.0).contains(&s));
        }
        assert_eq!(ecc.n_labels(), 3);
    }

    #[test]
    fn invalid_inputs_error() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Matrix::ones(5, 2);
        let y = Matrix::ones(4, 3);
        assert!(EnsembleClassifierChain::fit(&x, &y, &EccConfig::default(), &mut rng).is_err());
        assert!(EnsembleClassifierChain::fit(
            &Matrix::zeros(0, 2),
            &Matrix::zeros(0, 3),
            &EccConfig::default(),
            &mut rng
        )
        .is_err());
        let zero_chains = EccConfig {
            n_chains: 0,
            ..Default::default()
        };
        assert!(
            EnsembleClassifierChain::fit(&x, &Matrix::ones(5, 3), &zero_chains, &mut rng).is_err()
        );
    }
}
