//! Neural multi-label baselines: SafeDrug and CauseRec.
//!
//! Both originals consume multi-visit patient histories (GRU encoders over
//! past visits). The chronic cohort has a single interview record per
//! patient, so — as discussed in DESIGN.md — the sequence encoders reduce to
//! feed-forward encoders over the patient features while the components that
//! define each method are kept: SafeDrug's DDI-controlled loss that
//! penalises co-recommending antagonistic drugs, and CauseRec's
//! counterfactual sequence (here: feature) perturbation with a consistency
//! objective.

use rand::Rng;

use dssddi_core::CoreError;
use dssddi_gnn::{Activation, Mlp};
use dssddi_graph::{Interaction, SignedGraph};
use dssddi_tensor::{Adam, Binder, Matrix, ParamSet, Tape};

use crate::Recommender;

/// Hyperparameters shared by the neural baselines.
#[derive(Debug, Clone)]
pub struct NeuralConfig {
    /// Hidden dimension of the MLP encoder.
    pub hidden_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
}

impl Default for NeuralConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 64,
            epochs: 150,
            learning_rate: 0.01,
        }
    }
}

/// A feature → drugs multi-label MLP used as the shared encoder.
struct MultiLabelMlp {
    params: ParamSet,
    mlp: Mlp,
}

impl MultiLabelMlp {
    fn new(in_dim: usize, hidden: usize, n_drugs: usize, rng: &mut impl Rng) -> Self {
        let mut params = ParamSet::new();
        let mlp = Mlp::new(
            "baseline.mlp",
            &[in_dim, hidden, n_drugs],
            Activation::Relu,
            Activation::Identity,
            &mut params,
            rng,
        );
        Self { params, mlp }
    }

    fn scores(&self, features: &Matrix) -> Result<Matrix, CoreError> {
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let x = tape.constant(features.clone());
        let logits = self.mlp.forward(&mut tape, &self.params, &mut binder, x)?;
        let probs = tape.sigmoid(logits);
        Ok(tape.value(probs).clone())
    }
}

/// SafeDrug (Yang et al., IJCAI 2021), simplified to the single-visit
/// setting: an MLP recommender trained with binary cross-entropy plus a DDI
/// loss that penalises jointly recommending antagonistic drug pairs.
pub struct SafeDrugRecommender {
    model: MultiLabelMlp,
    losses: Vec<f32>,
}

impl SafeDrugRecommender {
    /// Fits the model on the observed patients.
    ///
    /// `ddi_weight` controls the strength of the antagonistic-pair penalty
    /// (0.05 is a reasonable default).
    pub fn fit(
        observed_features: &Matrix,
        observed_labels: &Matrix,
        ddi: &SignedGraph,
        ddi_weight: f32,
        config: &NeuralConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, CoreError> {
        validate(observed_features, observed_labels)?;
        let n_drugs = observed_labels.cols();
        let mut model =
            MultiLabelMlp::new(observed_features.cols(), config.hidden_dim, n_drugs, rng);
        let antagonistic: Vec<(usize, usize)> = ddi
            .edges_of(Interaction::Antagonistic)
            .into_iter()
            .filter(|&(u, v)| u < n_drugs && v < n_drugs)
            .collect();
        let mut optimizer = Adam::new(config.learning_rate);
        let mut losses = Vec::with_capacity(config.epochs);
        for _ in 0..config.epochs {
            let mut tape = Tape::new();
            let mut binder = Binder::new();
            let x = tape.constant(observed_features.clone());
            let logits = model
                .mlp
                .forward(&mut tape, &model.params, &mut binder, x)?;
            let bce = tape.bce_with_logits(logits, observed_labels)?;
            // DDI loss: mean over antagonistic pairs of the product of the
            // predicted probabilities (both high => penalty).
            let loss = if antagonistic.is_empty() || ddi_weight == 0.0 {
                bce
            } else {
                let probs = tape.sigmoid(logits);
                // Select the two columns of every antagonistic pair via a
                // constant selection matrix: P_u = probs · S_u.
                let mut select_u = Matrix::zeros(n_drugs, antagonistic.len());
                let mut select_v = Matrix::zeros(n_drugs, antagonistic.len());
                for (idx, &(u, v)) in antagonistic.iter().enumerate() {
                    select_u.set(u, idx, 1.0);
                    select_v.set(v, idx, 1.0);
                }
                let su = tape.constant(select_u);
                let sv = tape.constant(select_v);
                let pu = tape.matmul(probs, su)?;
                let pv = tape.matmul(probs, sv)?;
                let joint = tape.mul(pu, pv)?;
                let ddi_loss = tape.mean_all(joint);
                let weighted = tape.scale(ddi_loss, ddi_weight);
                tape.add(bce, weighted)?
            };
            tape.backward(loss)?;
            let grads = binder.grads(&tape, &model.params);
            optimizer.step(&mut model.params, &grads)?;
            losses.push(tape.value(loss).get(0, 0));
        }
        Ok(Self { model, losses })
    }

    /// Per-epoch training loss.
    pub fn training_losses(&self) -> &[f32] {
        &self.losses
    }
}

impl Recommender for SafeDrugRecommender {
    fn name(&self) -> &'static str {
        "SafeDrug"
    }

    fn predict_scores(&self, features: &Matrix) -> Result<Matrix, CoreError> {
        self.model.scores(features)
    }
}

/// CauseRec (Zhang et al., SIGIR 2021), simplified to the single-visit
/// setting: the patient encoder is trained on both the original features and
/// counterfactual feature perturbations (random replacement of feature
/// blocks), with the perturbed views trained toward the same outcomes.
pub struct CauseRecRecommender {
    model: MultiLabelMlp,
    losses: Vec<f32>,
}

impl CauseRecRecommender {
    /// Fits the model; `perturbation` is the fraction of feature columns
    /// replaced when constructing each counterfactual view.
    pub fn fit(
        observed_features: &Matrix,
        observed_labels: &Matrix,
        perturbation: f32,
        config: &NeuralConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, CoreError> {
        validate(observed_features, observed_labels)?;
        let mut model = MultiLabelMlp::new(
            observed_features.cols(),
            config.hidden_dim,
            observed_labels.cols(),
            rng,
        );
        let mut optimizer = Adam::new(config.learning_rate);
        let mut losses = Vec::with_capacity(config.epochs);
        for _ in 0..config.epochs {
            // Counterfactual view: replace a random subset of columns with
            // the values of a randomly chosen other patient.
            let mut counterfactual = observed_features.clone();
            for c in 0..counterfactual.cols() {
                if rng.gen::<f32>() < perturbation {
                    let donor_shift = rng.gen_range(1..counterfactual.rows().max(2));
                    for r in 0..counterfactual.rows() {
                        let donor = (r + donor_shift) % counterfactual.rows();
                        counterfactual.set(r, c, observed_features.get(donor, c));
                    }
                }
            }
            let mut tape = Tape::new();
            let mut binder = Binder::new();
            let x = tape.constant(observed_features.clone());
            let logits = model
                .mlp
                .forward(&mut tape, &model.params, &mut binder, x)?;
            let factual_loss = tape.bce_with_logits(logits, observed_labels)?;
            let x_cf = tape.constant(counterfactual);
            let logits_cf = model
                .mlp
                .forward(&mut tape, &model.params, &mut binder, x_cf)?;
            let cf_loss = tape.bce_with_logits(logits_cf, observed_labels)?;
            let cf_weighted = tape.scale(cf_loss, 0.5);
            let loss = tape.add(factual_loss, cf_weighted)?;
            tape.backward(loss)?;
            let grads = binder.grads(&tape, &model.params);
            optimizer.step(&mut model.params, &grads)?;
            losses.push(tape.value(loss).get(0, 0));
        }
        Ok(Self { model, losses })
    }

    /// Per-epoch training loss.
    pub fn training_losses(&self) -> &[f32] {
        &self.losses
    }
}

impl Recommender for CauseRecRecommender {
    fn name(&self) -> &'static str {
        "CauseRec"
    }

    fn predict_scores(&self, features: &Matrix) -> Result<Matrix, CoreError> {
        self.model.scores(features)
    }
}

fn validate(features: &Matrix, labels: &Matrix) -> Result<(), CoreError> {
    if features.rows() == 0 {
        return Err(CoreError::invalid_input(
            "baseline requires observed patients",
        ));
    }
    if features.rows() != labels.rows() {
        return Err(CoreError::invalid_input(
            "labels must have one row per observed patient",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> (Matrix, Matrix, SignedGraph) {
        let x = Matrix::from_fn(60, 3, |r, c| if (r % 3) == c { 1.0 } else { 0.0 });
        let y = Matrix::from_fn(60, 4, |r, c| if (r % 3) == c { 1.0 } else { 0.0 });
        let mut ddi = SignedGraph::new(4);
        ddi.add_interaction(0, 3, Interaction::Antagonistic)
            .unwrap();
        (x, y, ddi)
    }

    fn quick() -> NeuralConfig {
        NeuralConfig {
            hidden_dim: 16,
            epochs: 80,
            learning_rate: 0.05,
        }
    }

    #[test]
    fn safedrug_learns_and_loss_decreases() {
        let (x, y, ddi) = toy();
        let mut rng = StdRng::seed_from_u64(0);
        let model = SafeDrugRecommender::fit(&x, &y, &ddi, 0.05, &quick(), &mut rng).unwrap();
        assert!(model.training_losses().last().unwrap() < model.training_losses().first().unwrap());
        let new = Matrix::from_vec(1, 3, vec![1.0, 0.0, 0.0]).unwrap();
        let scores = model.predict_scores(&new).unwrap();
        assert!(scores.get(0, 0) > scores.get(0, 1));
        assert_eq!(model.name(), "SafeDrug");
    }

    #[test]
    fn safedrug_ddi_penalty_lowers_antagonistic_joint_probability() {
        let (x, mut y, ddi) = toy();
        // Force drug 3 to be taken together with drug 0 in the labels so the
        // unconstrained model would recommend both.
        for r in 0..y.rows() {
            if y.get(r, 0) > 0.5 {
                y.set(r, 3, 1.0);
            }
        }
        let mut rng = StdRng::seed_from_u64(1);
        let unconstrained =
            SafeDrugRecommender::fit(&x, &y, &ddi, 0.0, &quick(), &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let constrained = SafeDrugRecommender::fit(&x, &y, &ddi, 5.0, &quick(), &mut rng).unwrap();
        let probe = Matrix::from_vec(1, 3, vec![1.0, 0.0, 0.0]).unwrap();
        let joint = |m: &SafeDrugRecommender| {
            let s = m.predict_scores(&probe).unwrap();
            s.get(0, 0) * s.get(0, 3)
        };
        assert!(joint(&constrained) < joint(&unconstrained));
    }

    #[test]
    fn causerec_learns_under_perturbation() {
        let (x, y, _) = toy();
        let mut rng = StdRng::seed_from_u64(2);
        let model = CauseRecRecommender::fit(&x, &y, 0.2, &quick(), &mut rng).unwrap();
        let new = Matrix::from_vec(1, 3, vec![0.0, 1.0, 0.0]).unwrap();
        let scores = model.predict_scores(&new).unwrap();
        assert!(scores.get(0, 1) > scores.get(0, 2));
        assert_eq!(model.name(), "CauseRec");
        assert!(model.training_losses().len() == 80);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let (x, y, ddi) = toy();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(SafeDrugRecommender::fit(
            &Matrix::zeros(0, 3),
            &Matrix::zeros(0, 4),
            &ddi,
            0.1,
            &quick(),
            &mut rng
        )
        .is_err());
        assert!(
            CauseRecRecommender::fit(&x, &Matrix::zeros(10, 4), 0.2, &quick(), &mut rng).is_err()
        );
        let _ = y;
    }
}
