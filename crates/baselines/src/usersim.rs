//! The UserSim baseline (Eq. 20 of the paper): suggestion scores for an
//! unobserved patient are the medication-use rows of the observed patients,
//! weighted by cosine feature similarity — plus the synthetic patient
//! *populations* built on the same user-similarity idea, which the
//! `dssddi-loadgen` traffic generator replays against a live gateway.
//!
//! A population is specified by a [`ConditionMix`] (weights over the
//! chronic diseases of the Hong Kong cohort, defaulting to the prevalences
//! of Fig. 2) and generated by a [`PopulationIter`]: an infinite,
//! deterministic, seeded stream of [`SimPatient`]s whose feature vectors
//! are per-disease prototypes plus patient noise. Two iterators with the
//! same spec yield bit-identical patients, so load-generation runs are
//! reproducible run-to-run.

use dssddi_core::CoreError;
use dssddi_data::Disease;
use dssddi_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Recommender;

/// Feature-similarity weighted medication use.
pub struct UserSim {
    observed_features: Matrix,
    observed_labels: Matrix,
}

impl UserSim {
    /// Stores the observed patients' features and medication use.
    pub fn fit(observed_features: &Matrix, observed_labels: &Matrix) -> Result<Self, CoreError> {
        if observed_features.rows() != observed_labels.rows() {
            return Err(CoreError::invalid_input(
                "UserSim needs one label row per observed patient",
            ));
        }
        if observed_features.rows() == 0 {
            return Err(CoreError::invalid_input(
                "UserSim needs at least one observed patient",
            ));
        }
        Ok(Self {
            observed_features: observed_features.clone(),
            observed_labels: observed_labels.clone(),
        })
    }
}

impl Recommender for UserSim {
    fn name(&self) -> &'static str {
        "UserSim"
    }

    fn predict_scores(&self, features: &Matrix) -> Result<Matrix, CoreError> {
        if features.cols() != self.observed_features.cols() {
            return Err(CoreError::invalid_input(
                "feature dimension differs from the observed patients",
            ));
        }
        // Y_U = cosine_similarity(X_U, X_O) · Y_O  (Eq. 20).
        let similarity = features.cosine_similarity_matrix(&self.observed_features)?;
        Ok(similarity.matmul(&self.observed_labels)?)
    }
}

/// Weights over the chronic conditions of the cohort, normalised at
/// sampling time. Drives which diseases a synthetic population presents
/// with — and therefore which formulary regions its traffic exercises.
#[derive(Debug, Clone)]
pub struct ConditionMix {
    weights: Vec<(Disease, f64)>,
}

impl ConditionMix {
    /// A mix from explicit weights. Weights must be finite and
    /// non-negative with a positive total; diseases absent from the list
    /// are never drawn.
    pub fn new(weights: Vec<(Disease, f64)>) -> Result<Self, CoreError> {
        if weights.is_empty() {
            return Err(CoreError::invalid_input(
                "a condition mix needs at least one disease",
            ));
        }
        let mut total = 0.0;
        for &(disease, w) in &weights {
            if !w.is_finite() || w < 0.0 {
                return Err(CoreError::invalid_input(format!(
                    "condition weight for {} must be finite and non-negative, got {w}",
                    disease.name()
                )));
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(CoreError::invalid_input(
                "condition mix weights must not all be zero",
            ));
        }
        Ok(Self { weights })
    }

    /// The cohort's empirical mix: every disease weighted by its Fig. 2
    /// prevalence, so synthetic traffic skews toward hypertension and
    /// cardiovascular patients exactly like the interview cohort.
    pub fn prevalence() -> Self {
        Self {
            weights: Disease::ALL.iter().map(|&d| (d, d.prevalence())).collect(),
        }
    }

    /// Every disease equally likely — stresses the cold corners of the
    /// formulary a prevalence-weighted run rarely touches.
    pub fn uniform() -> Self {
        Self {
            weights: Disease::ALL.iter().map(|&d| (d, 1.0)).collect(),
        }
    }

    /// Draws one disease, weight-proportionally.
    pub fn sample(&self, rng: &mut StdRng) -> Disease {
        let total: f64 = self.weights.iter().map(|&(_, w)| w).sum();
        let mut pick = rng.gen_range(0.0..total);
        for &(disease, w) in &self.weights {
            if pick < w {
                return disease;
            }
            pick -= w;
        }
        // Floating-point edge: the last positively weighted disease.
        self.weights
            .iter()
            .rev()
            .find(|&&(_, w)| w > 0.0)
            .map(|&(d, _)| d)
            .unwrap_or(Disease::OtherDiseases)
    }
}

/// Specification of a synthetic patient population — everything a
/// reproducible load-generation run needs to rebuild the same stream.
#[derive(Debug, Clone)]
pub struct PopulationSpec {
    /// Seed of the whole stream: same seed, same patients, bit for bit.
    pub seed: u64,
    /// Condition weights (see [`ConditionMix`]).
    pub mix: ConditionMix,
    /// Probability of each *additional* comorbid condition: after the
    /// primary draw, further conditions are drawn while a biased coin
    /// keeps landing heads. 0.0 = single-condition patients.
    pub comorbidity: f64,
    /// Length of the generated feature vectors; must match the serving
    /// model's expectation (71 for cohort-trained demo shards).
    pub n_features: usize,
}

impl PopulationSpec {
    /// A prevalence-mixed population with the cohort's 71 features and a
    /// mild comorbidity rate.
    pub fn new(seed: u64, n_features: usize) -> Self {
        Self {
            seed,
            mix: ConditionMix::prevalence(),
            comorbidity: 0.25,
            n_features,
        }
    }

    /// The infinite deterministic patient stream for this spec.
    pub fn patients(&self) -> PopulationIter {
        PopulationIter::new(self.clone())
    }
}

/// One synthetic patient of a load-generation population.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPatient {
    /// Position in the stream (also usable as a wire patient ID).
    pub id: u64,
    /// The patient's chronic conditions (primary first, deduplicated).
    pub conditions: Vec<Disease>,
    /// Feature vector: mean of the per-condition prototypes plus patient
    /// noise, ready for a `SuggestRequest`.
    pub features: Vec<f32>,
}

/// Infinite, deterministic iterator over a [`PopulationSpec`]'s patients.
///
/// Each disease gets a prototype feature vector derived from the spec's
/// seed alone; each patient averages the prototypes of its conditions and
/// adds small per-patient noise. The same user-similarity structure the
/// [`UserSim`] baseline exploits therefore holds inside the synthetic
/// population: patients sharing conditions have similar features.
#[derive(Debug, Clone)]
pub struct PopulationIter {
    spec: PopulationSpec,
    prototypes: Vec<Vec<f32>>,
    rng: StdRng,
    next_id: u64,
}

impl PopulationIter {
    fn new(spec: PopulationSpec) -> Self {
        // Prototypes depend only on (seed, disease, n_features) — never on
        // how many patients were drawn before.
        let prototypes = Disease::ALL
            .iter()
            .map(|&d| {
                let mut proto_rng = StdRng::seed_from_u64(
                    spec.seed ^ (0x9E37_79B9 + d.index() as u64 * 0x85EB_CA6B),
                );
                (0..spec.n_features)
                    .map(|_| proto_rng.gen_range(-1.0f32..1.0))
                    .collect()
            })
            .collect();
        let rng = StdRng::seed_from_u64(spec.seed);
        Self {
            spec,
            prototypes,
            rng,
            next_id: 0,
        }
    }

    /// The spec this stream was built from.
    pub fn spec(&self) -> &PopulationSpec {
        &self.spec
    }
}

impl Iterator for PopulationIter {
    type Item = SimPatient;

    #[expect(
        clippy::indexing_slicing,
        reason = "`Condition::index` is below the number of prototypes, one per condition"
    )]
    fn next(&mut self) -> Option<SimPatient> {
        let id = self.next_id;
        self.next_id += 1;
        let mut conditions = vec![self.spec.mix.sample(&mut self.rng)];
        let comorbidity = self.spec.comorbidity.clamp(0.0, 0.95);
        while conditions.len() < Disease::ALL.len() && self.rng.gen_bool(comorbidity) {
            let extra = self.spec.mix.sample(&mut self.rng);
            if !conditions.contains(&extra) {
                conditions.push(extra);
            }
        }
        let mut features = vec![0.0f32; self.spec.n_features];
        for &condition in &conditions {
            for (f, p) in features.iter_mut().zip(&self.prototypes[condition.index()]) {
                *f += *p / conditions.len() as f32;
            }
        }
        for f in features.iter_mut() {
            *f += self.rng.gen_range(-0.1f32..0.1);
        }
        Some(SimPatient {
            id,
            conditions,
            features,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn similar_patients_inherit_medications() {
        let observed_features = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let observed_labels = Matrix::from_vec(2, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0]).unwrap();
        let model = UserSim::fit(&observed_features, &observed_labels).unwrap();
        // A patient identical to observed patient 0.
        let new = Matrix::from_vec(1, 2, vec![1.0, 0.0]).unwrap();
        let scores = model.predict_scores(&new).unwrap();
        assert!(scores.get(0, 0) > scores.get(0, 1));
        assert!(scores.get(0, 0) > scores.get(0, 2));
        assert_eq!(model.name(), "UserSim");
    }

    #[test]
    fn dimension_mismatches_error() {
        let x = Matrix::ones(2, 2);
        let y = Matrix::ones(3, 4);
        assert!(UserSim::fit(&x, &y).is_err());
        let model = UserSim::fit(&x, &Matrix::ones(2, 4)).unwrap();
        assert!(model.predict_scores(&Matrix::ones(1, 5)).is_err());
    }

    #[test]
    fn empty_observed_set_is_rejected() {
        assert!(UserSim::fit(&Matrix::zeros(0, 2), &Matrix::zeros(0, 3)).is_err());
    }

    #[test]
    fn condition_mixes_validate() {
        assert!(ConditionMix::new(Vec::new()).is_err());
        assert!(ConditionMix::new(vec![(Disease::Hypertension, -1.0)]).is_err());
        assert!(ConditionMix::new(vec![(Disease::Hypertension, f64::NAN)]).is_err());
        assert!(ConditionMix::new(vec![(Disease::Hypertension, 0.0)]).is_err());
        assert!(ConditionMix::new(vec![(Disease::Hypertension, 1.0)]).is_ok());
    }

    #[test]
    fn population_is_deterministic_per_seed() {
        let spec = PopulationSpec::new(42, 71);
        let a: Vec<SimPatient> = spec.patients().take(25).collect();
        let b: Vec<SimPatient> = spec.patients().take(25).collect();
        assert_eq!(a, b, "same spec must replay bit-identically");
        assert_eq!(a[0].id, 0);
        assert_eq!(a[24].id, 24);
        for p in &a {
            assert_eq!(p.features.len(), 71);
            assert!(!p.conditions.is_empty());
            // Conditions are deduplicated.
            let mut seen = p.conditions.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), p.conditions.len());
        }
        let other: Vec<SimPatient> = PopulationSpec::new(43, 71).patients().take(25).collect();
        assert_ne!(a, other, "different seeds must diverge");
    }

    #[test]
    fn prevalence_mix_skews_toward_hypertension() {
        let spec = PopulationSpec {
            comorbidity: 0.0,
            ..PopulationSpec::new(7, 8)
        };
        let mut counts = [0usize; Disease::ALL.len()];
        for patient in spec.patients().take(2000) {
            counts[patient.conditions[0].index()] += 1;
        }
        let hyp = counts[Disease::Hypertension.index()];
        assert!(
            (800..1200).contains(&hyp),
            "hypertension drawn {hyp}/2000, expected ~49% of the mass"
        );
        assert!(hyp > counts[Disease::Type2Diabetes.index()]);
    }

    #[test]
    fn shared_conditions_mean_similar_features() {
        // The user-similarity structure UserSim exploits must hold inside
        // the synthetic population: two single-condition hypertension
        // patients are closer to each other than to an asthma patient.
        let mix_hyp = ConditionMix::new(vec![(Disease::Hypertension, 1.0)]).unwrap();
        let mix_asthma = ConditionMix::new(vec![(Disease::Asthma, 1.0)]).unwrap();
        let base = PopulationSpec::new(5, 16);
        let hyp: Vec<SimPatient> = PopulationSpec {
            mix: mix_hyp,
            comorbidity: 0.0,
            ..base.clone()
        }
        .patients()
        .take(2)
        .collect();
        let asthma: Vec<SimPatient> = PopulationSpec {
            mix: mix_asthma,
            comorbidity: 0.0,
            ..base
        }
        .patients()
        .take(1)
        .collect();
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f32>()
        };
        let within = dist(&hyp[0].features, &hyp[1].features);
        let across = dist(&hyp[0].features, &asthma[0].features);
        assert!(
            within < across,
            "within-condition distance {within} not below cross-condition {across}"
        );
    }
}
