//! Synthetic Hong Kong Chronic Disease Study cohort.
//!
//! The original cohort (Section II-A of the paper) is private clinical data:
//! 4157 questionnaire interview records of subjects aged 65+, with 71
//! features spanning demographics, clinical history, psychological
//! assessment and physical examination, and the 86-drug medication-use
//! labels. This generator reproduces the *statistical structure* the paper
//! reports — the disease prevalences of Fig. 2, the per-disease formulary of
//! Fig. 3, feature↔disease↔drug dependence, and a realistic rate of
//! antagonistic co-prescriptions (Fig. 9, case 4) — so that the relative
//! behaviour of the recommenders is preserved.

use rand::seq::SliceRandom;
use rand::Rng;

use dssddi_graph::{BipartiteGraph, Interaction, SignedGraph};
use dssddi_tensor::Matrix;

use crate::drugs::{Disease, DrugRegistry};
use crate::DataError;

/// Number of questionnaire + examination features (Section II-A).
pub const NUM_FEATURES: usize = 71;

/// Configuration of the cohort generator.
#[derive(Debug, Clone)]
pub struct ChronicConfig {
    /// Number of interview records to generate (4157 in the paper:
    /// 2254 male + 1903 female).
    pub n_patients: usize,
    /// Probability that an antagonistic drug pair prescribed to the same
    /// patient is kept instead of being replaced (the paper observes such
    /// prescriptions in practice; Fig. 9 case 4).
    pub antagonism_tolerance: f64,
    /// Probability of adding a synergistic partner drug when one member of a
    /// synergistic pair has been prescribed and the partner is indicated.
    pub synergy_boost: f64,
}

impl Default for ChronicConfig {
    fn default() -> Self {
        Self {
            n_patients: 4157,
            antagonism_tolerance: 0.12,
            synergy_boost: 0.55,
        }
    }
}

/// A generated cohort: features, medication-use labels and per-patient
/// disease lists.
#[derive(Debug, Clone)]
pub struct ChronicCohort {
    features: Matrix,
    labels: Matrix,
    diseases: Vec<Vec<Disease>>,
    feature_names: Vec<String>,
}

impl ChronicCohort {
    /// Patient feature matrix `X` (one row per patient, 71 columns).
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Medication-use label matrix `Y` (one row per patient, 86 columns,
    /// entries in {0, 1}).
    pub fn labels(&self) -> &Matrix {
        &self.labels
    }

    /// Diseases assigned to each patient.
    pub fn diseases(&self) -> &[Vec<Disease>] {
        &self.diseases
    }

    /// Names of the 71 features, aligned with the columns of
    /// [`features`](Self::features).
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Number of patients.
    pub fn n_patients(&self) -> usize {
        self.features.rows()
    }

    /// Number of drugs in the label space.
    pub fn n_drugs(&self) -> usize {
        self.labels.cols()
    }

    /// Drugs taken by one patient.
    pub fn drugs_of(&self, patient: usize) -> Vec<usize> {
        (0..self.labels.cols())
            .filter(|&d| self.labels.get(patient, d) > 0.5)
            .collect()
    }

    /// The medication-use bipartite graph over a subset of patients
    /// (indices into this cohort), re-indexed to `0..subset.len()` on the
    /// patient side.
    pub fn bipartite_graph(&self, subset: &[usize]) -> Result<BipartiteGraph, DataError> {
        let mut g = BipartiteGraph::new(subset.len(), self.n_drugs());
        for (row, &patient) in subset.iter().enumerate() {
            for drug in self.drugs_of(patient) {
                g.add_edge(row, drug).map_err(DataError::Graph)?;
            }
        }
        Ok(g)
    }

    /// Empirical prevalence of each disease in the generated cohort.
    pub fn disease_prevalence(&self) -> Vec<(Disease, f64)> {
        let n = self.n_patients().max(1) as f64;
        Disease::ALL
            .iter()
            .map(|&d| {
                let count = self.diseases.iter().filter(|ds| ds.contains(&d)).count();
                (d, count as f64 / n)
            })
            .collect()
    }

    /// Mean number of drugs per patient.
    pub fn mean_drugs_per_patient(&self) -> f64 {
        let total: f32 = self.labels.data().iter().sum();
        total as f64 / self.n_patients().max(1) as f64
    }

    /// Number of patients whose prescriptions contain at least one
    /// antagonistic pair according to `ddi`.
    pub fn patients_with_antagonistic_prescriptions(&self, ddi: &SignedGraph) -> usize {
        (0..self.n_patients())
            .filter(|&p| {
                let drugs = self.drugs_of(p);
                drugs.iter().enumerate().any(|(i, &u)| {
                    drugs
                        .iter()
                        .skip(i + 1)
                        .any(|&v| ddi.interaction(u, v) == Some(Interaction::Antagonistic))
                })
            })
            .count()
    }
}

/// The names of the 71 features, grouped as in the questionnaire described
/// in Section II-A.
pub fn feature_names() -> Vec<String> {
    let mut names: Vec<String> = vec![
        "age".into(),
        "is_male".into(),
        "bmi".into(),
        "systolic_bp".into(),
        "diastolic_bp".into(),
        "heart_rate".into(),
        "gds_score".into(),
        "smoker".into(),
        "alcohol_use".into(),
        "exercise_days_per_week".into(),
    ];
    for d in Disease::ALL {
        names.push(format!(
            "history_{}",
            d.name().to_lowercase().replace(' ', "_")
        ));
    }
    for class in [
        "alpha_blocker",
        "ace_inhibitor",
        "arb",
        "calcium_channel_blocker",
        "diuretic",
        "beta_blocker",
        "statin",
        "nitrate",
        "antithrombotic",
        "antidiabetic",
        "gastrointestinal",
        "anti_inflammatory",
        "anticonvulsant",
        "respiratory",
        "psychotropic",
        "urological",
    ] {
        names.push(format!("ever_taken_{class}"));
    }
    for i in 0..15 {
        names.push(format!("psych_item_{i}"));
    }
    for lab in [
        "glucose",
        "hba1c",
        "creatinine",
        "egfr",
        "total_cholesterol",
        "ldl",
        "hdl",
        "triglycerides",
        "hemoglobin",
        "potassium",
        "sodium",
        "urea",
        "albumin",
        "uric_acid",
    ] {
        names.push(format!("lab_{lab}"));
    }
    debug_assert_eq!(names.len(), NUM_FEATURES);
    names
}

/// Generates a synthetic chronic-disease cohort.
pub fn generate_chronic_cohort(
    registry: &DrugRegistry,
    ddi: &SignedGraph,
    config: &ChronicConfig,
    rng: &mut impl Rng,
) -> Result<ChronicCohort, DataError> {
    if config.n_patients == 0 {
        return Err(DataError::InvalidConfig {
            what: "n_patients must be positive",
        });
    }
    let n = config.n_patients;
    let n_drugs = registry.len();
    let mut features = Matrix::zeros(n, NUM_FEATURES);
    let mut labels = Matrix::zeros(n, n_drugs);
    let mut diseases: Vec<Vec<Disease>> = Vec::with_capacity(n);

    // Per-drug popularity: earlier drugs within a disease's formulary are
    // prescribed more often, mirroring first-line / second-line practice.
    let popularity = |rank: usize| -> f64 { 1.0 / (1.0 + rank as f64) };

    for p in 0..n {
        // --- diseases -----------------------------------------------------
        let mut ds: Vec<Disease> = Vec::new();
        for d in Disease::ALL {
            let mut prob = d.prevalence();
            // Comorbidity structure: hypertension raises cardiovascular risk,
            // diabetes raises nephropathy risk.
            if d == Disease::CardiovascularEvents && ds.contains(&Disease::Hypertension) {
                prob += 0.15;
            }
            if d == Disease::DiabeticNephropathy && ds.contains(&Disease::Type2Diabetes) {
                prob += 0.20;
            }
            if d == Disease::MyocardialInfarction && ds.contains(&Disease::CardiovascularEvents) {
                prob += 0.05;
            }
            if rng.gen_bool(prob.min(0.95)) {
                ds.push(d);
            }
        }
        if ds.is_empty() {
            // Every interviewed subject suffers from at least one chronic
            // condition; fall back to a prevalence-weighted draw.
            let weights: Vec<f64> = Disease::ALL.iter().map(|d| d.prevalence()).collect();
            let total: f64 = weights.iter().sum();
            let mut pick = rng.gen_range(0.0..total);
            let mut chosen = Disease::Hypertension;
            for (d, w) in Disease::ALL.iter().zip(weights.iter()) {
                if pick < *w {
                    chosen = *d;
                    break;
                }
                pick -= *w;
            }
            ds.push(chosen);
        }

        // --- demographics & vitals ----------------------------------------
        let is_male = p % 4157 < 2254; // 2254 male, 1903 female interview records
        let age = rng.gen_range(65.0..95.0f32);
        let bmi = 23.0 + rng.gen_range(-4.0..6.0f32);
        let hypertensive = ds.contains(&Disease::Hypertension);
        let diabetic = ds.contains(&Disease::Type2Diabetes);
        let depressed = ds.contains(&Disease::AnxietyDisorder);
        let systolic = if hypertensive {
            rng.gen_range(140.0..185.0)
        } else {
            rng.gen_range(105.0..140.0)
        };
        let diastolic = systolic * 0.6 + rng.gen_range(-5.0..5.0f32);
        let heart_rate = rng.gen_range(55.0..95.0f32);
        let gds = if depressed {
            rng.gen_range(8.0..15.0)
        } else {
            rng.gen_range(0.0..8.0f32)
        };

        features.set(p, 0, (age - 65.0) / 30.0);
        features.set(p, 1, if is_male { 1.0 } else { 0.0 });
        features.set(p, 2, (bmi - 15.0) / 25.0);
        features.set(p, 3, (systolic - 90.0) / 100.0);
        features.set(p, 4, (diastolic - 50.0) / 70.0);
        features.set(p, 5, (heart_rate - 40.0) / 80.0);
        features.set(p, 6, gds / 15.0);
        features.set(
            p,
            7,
            if rng.gen_bool(if is_male { 0.3 } else { 0.05 }) {
                1.0
            } else {
                0.0
            },
        );
        features.set(p, 8, if rng.gen_bool(0.2) { 1.0 } else { 0.0 });
        features.set(p, 9, rng.gen_range(0.0..7.0f32) / 7.0);

        // Disease history flags (with 5% reporting noise).
        for d in Disease::ALL {
            let has = ds.contains(&d);
            let reported = if rng.gen_bool(0.05) { !has } else { has };
            features.set(p, 10 + d.index(), if reported { 1.0 } else { 0.0 });
        }

        // --- medication assignment ----------------------------------------
        let mut prescribed: Vec<usize> = Vec::new();
        for &d in &ds {
            let options = registry.drugs_for(d);
            if options.is_empty() {
                continue;
            }
            let how_many = 1 + usize::from(rng.gen_bool(0.35));
            let mut weighted: Vec<(usize, f64)> = options
                .iter()
                .enumerate()
                .map(|(rank, &drug)| (drug, popularity(rank)))
                .collect();
            for _ in 0..how_many {
                if weighted.is_empty() {
                    break;
                }
                let total: f64 = weighted.iter().map(|(_, w)| w).sum();
                let mut pick = rng.gen_range(0.0..total);
                let mut idx = 0;
                for (i, (_, w)) in weighted.iter().enumerate() {
                    if pick < *w {
                        idx = i;
                        break;
                    }
                    pick -= *w;
                }
                let (drug, _) = weighted.remove(idx);
                if !prescribed.contains(&drug) {
                    prescribed.push(drug);
                }
            }
        }
        // Synergy boost: co-prescribe synergistic partners that are indicated.
        let snapshot = prescribed.clone();
        for &drug in &snapshot {
            for partner in ddi.neighbors_of(drug, Interaction::Synergistic) {
                let indicated = registry
                    .drug(partner)
                    .map(|pd| pd.treats.iter().any(|t| ds.contains(t)))
                    .unwrap_or(false);
                if indicated && !prescribed.contains(&partner) && rng.gen_bool(config.synergy_boost)
                {
                    prescribed.push(partner);
                }
            }
        }
        // Antagonism avoidance: doctors usually replace one member of an
        // antagonistic pair, but not always (case 4 of the paper).
        let mut kept: Vec<usize> = Vec::new();
        for &drug in &prescribed {
            let conflicts = kept
                .iter()
                .any(|&k| ddi.interaction(drug, k) == Some(Interaction::Antagonistic));
            if !conflicts || rng.gen_bool(config.antagonism_tolerance) {
                kept.push(drug);
            }
        }
        kept.sort_unstable();
        for &drug in &kept {
            labels.set(p, drug, 1.0);
        }

        // Drug-family history flags correlate with the prescription classes.
        let class_cols: Vec<(crate::drugs::DrugClass, usize)> = vec![
            (crate::drugs::DrugClass::AlphaBlocker, 26),
            (crate::drugs::DrugClass::AceInhibitor, 27),
            (crate::drugs::DrugClass::Arb, 28),
            (crate::drugs::DrugClass::CalciumChannelBlocker, 29),
            (crate::drugs::DrugClass::Diuretic, 30),
            (crate::drugs::DrugClass::BetaBlocker, 31),
            (crate::drugs::DrugClass::Statin, 32),
            (crate::drugs::DrugClass::Nitrate, 33),
            (crate::drugs::DrugClass::Antithrombotic, 34),
            (crate::drugs::DrugClass::Antidiabetic, 35),
            (crate::drugs::DrugClass::Gastrointestinal, 36),
            (crate::drugs::DrugClass::AntiInflammatory, 37),
            (crate::drugs::DrugClass::Anticonvulsant, 38),
            (crate::drugs::DrugClass::Respiratory, 39),
            (crate::drugs::DrugClass::Psychotropic, 40),
            (crate::drugs::DrugClass::Urological, 41),
        ];
        for (class, col) in class_cols {
            let takes_class = kept.iter().any(|&drug| {
                registry
                    .drug(drug)
                    .map(|d| d.class == class)
                    .unwrap_or(false)
            });
            let history = takes_class && rng.gen_bool(0.8) || rng.gen_bool(0.03);
            features.set(p, col, if history { 1.0 } else { 0.0 });
        }

        // Psychological questionnaire items correlate with the GDS score.
        for i in 0..15 {
            let base = gds / 15.0;
            let answer = rng.gen_bool((0.1 + 0.8 * base as f64).clamp(0.0, 1.0));
            features.set(p, 42 + i, if answer { 1.0 } else { 0.0 });
        }

        // Laboratory values conditioned on the disease profile.
        let glucose = if diabetic {
            rng.gen_range(7.5..15.0)
        } else {
            rng.gen_range(4.0..7.0f32)
        };
        let hba1c = if diabetic {
            rng.gen_range(7.0..11.0)
        } else {
            rng.gen_range(4.5..6.5f32)
        };
        let nephropathy = ds.contains(&Disease::DiabeticNephropathy);
        let creatinine = if nephropathy {
            rng.gen_range(150.0..400.0)
        } else {
            rng.gen_range(50.0..110.0f32)
        };
        let egfr = if nephropathy {
            rng.gen_range(15.0..45.0)
        } else {
            rng.gen_range(60.0..110.0f32)
        };
        let cardiovascular = ds.contains(&Disease::CardiovascularEvents)
            || ds.contains(&Disease::MyocardialInfarction);
        let cholesterol = if cardiovascular {
            rng.gen_range(5.2..8.0)
        } else {
            rng.gen_range(3.5..5.5f32)
        };
        let ldl = cholesterol * 0.6 + rng.gen_range(-0.3..0.3f32);
        let hdl = rng.gen_range(0.8..2.0f32);
        let triglycerides = rng.gen_range(0.8..3.5f32);
        let labs = [
            glucose / 20.0,
            hba1c / 15.0,
            creatinine / 500.0,
            egfr / 120.0,
            cholesterol / 10.0,
            ldl / 6.0,
            hdl / 3.0,
            triglycerides / 5.0,
            rng.gen_range(9.0..16.0f32) / 20.0,     // hemoglobin
            rng.gen_range(3.2..5.4f32) / 6.0,       // potassium
            rng.gen_range(132.0..146.0f32) / 150.0, // sodium
            rng.gen_range(3.0..12.0f32) / 15.0,     // urea
            rng.gen_range(30.0..50.0f32) / 60.0,    // albumin
            rng.gen_range(0.2..0.6f32),             // uric acid (already ~normalised)
        ];
        for (i, v) in labs.into_iter().enumerate() {
            features.set(p, 57 + i, v);
        }

        diseases.push(ds);
    }

    Ok(ChronicCohort {
        features,
        labels,
        diseases,
        feature_names: feature_names(),
    })
}

/// Convenience: shuffled patient indices for sampling case-study patients.
pub fn sample_patients(n_patients: usize, count: usize, rng: &mut impl Rng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n_patients).collect();
    idx.shuffle(rng);
    idx.truncate(count);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddi::{generate_ddi_graph, DdiConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_cohort(n: usize, seed: u64) -> (DrugRegistry, SignedGraph, ChronicCohort) {
        let registry = DrugRegistry::standard();
        let mut rng = StdRng::seed_from_u64(seed);
        let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
        let cohort = generate_chronic_cohort(
            &registry,
            &ddi,
            &ChronicConfig {
                n_patients: n,
                ..Default::default()
            },
            &mut rng,
        )
        .unwrap();
        (registry, ddi, cohort)
    }

    #[test]
    fn shapes_match_paper_dimensions() {
        let (_, _, cohort) = small_cohort(200, 0);
        assert_eq!(cohort.features().shape(), (200, 71));
        assert_eq!(cohort.labels().shape(), (200, 86));
        assert_eq!(cohort.feature_names().len(), 71);
        assert_eq!(cohort.diseases().len(), 200);
    }

    #[test]
    fn every_patient_takes_at_least_one_drug() {
        let (_, _, cohort) = small_cohort(300, 1);
        for p in 0..cohort.n_patients() {
            assert!(
                !cohort.drugs_of(p).is_empty(),
                "patient {p} has no medications"
            );
        }
        let mean = cohort.mean_drugs_per_patient();
        assert!(
            (1.0..=8.0).contains(&mean),
            "unrealistic mean drugs/patient {mean}"
        );
    }

    #[test]
    fn hypertension_is_the_most_prevalent_disease() {
        let (_, _, cohort) = small_cohort(800, 2);
        let prev = cohort.disease_prevalence();
        let hyp = prev
            .iter()
            .find(|(d, _)| *d == Disease::Hypertension)
            .unwrap()
            .1;
        assert!(
            hyp > 0.35 && hyp < 0.65,
            "hypertension prevalence {hyp} off target"
        );
        for (d, p) in prev {
            if d != Disease::Hypertension {
                assert!(
                    p <= hyp + 0.05,
                    "{} more prevalent than hypertension",
                    d.name()
                );
            }
        }
    }

    #[test]
    fn features_are_finite_and_mostly_normalised() {
        let (_, _, cohort) = small_cohort(100, 3);
        assert!(cohort.features().all_finite());
        assert!(cohort.features().max() <= 2.0);
        assert!(cohort.features().min() >= -1.0);
    }

    #[test]
    fn prescriptions_follow_disease_indications() {
        let (registry, _, cohort) = small_cohort(300, 4);
        // Most prescribed drugs should treat one of the patient's diseases.
        let mut indicated = 0usize;
        let mut total = 0usize;
        for p in 0..cohort.n_patients() {
            let ds = &cohort.diseases()[p];
            for drug in cohort.drugs_of(p) {
                total += 1;
                if registry
                    .drug(drug)
                    .unwrap()
                    .treats
                    .iter()
                    .any(|t| ds.contains(t))
                {
                    indicated += 1;
                }
            }
        }
        let ratio = indicated as f64 / total.max(1) as f64;
        assert!(
            ratio > 0.8,
            "only {ratio:.2} of prescriptions are indicated"
        );
    }

    #[test]
    fn antagonistic_prescriptions_are_rare_but_present() {
        let (_, ddi, cohort) = small_cohort(600, 5);
        let with_conflicts = cohort.patients_with_antagonistic_prescriptions(&ddi);
        let rate = with_conflicts as f64 / cohort.n_patients() as f64;
        assert!(rate < 0.35, "too many antagonistic prescriptions: {rate}");
    }

    #[test]
    fn generation_is_deterministic() {
        let (_, _, a) = small_cohort(50, 9);
        let (_, _, b) = small_cohort(50, 9);
        assert_eq!(a.features().data(), b.features().data());
        assert_eq!(a.labels().data(), b.labels().data());
    }

    #[test]
    fn zero_patients_is_an_error() {
        let registry = DrugRegistry::standard();
        let mut rng = StdRng::seed_from_u64(0);
        let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
        let bad = ChronicConfig {
            n_patients: 0,
            ..Default::default()
        };
        assert!(generate_chronic_cohort(&registry, &ddi, &bad, &mut rng).is_err());
    }

    #[test]
    fn bipartite_graph_reindexes_subset() {
        let (_, _, cohort) = small_cohort(40, 6);
        let subset = vec![5, 17, 23];
        let g = cohort.bipartite_graph(&subset).unwrap();
        assert_eq!(g.left_count(), 3);
        assert_eq!(g.right_count(), 86);
        assert_eq!(g.drugs_of(0), cohort.drugs_of(5));
    }

    #[test]
    fn sample_patients_returns_unique_indices() {
        let mut rng = StdRng::seed_from_u64(8);
        let s = sample_patients(100, 10, &mut rng);
        assert_eq!(s.len(), 10);
        let set: std::collections::BTreeSet<usize> = s.iter().copied().collect();
        assert_eq!(set.len(), 10);
        assert!(s.iter().all(|&i| i < 100));
    }
}
