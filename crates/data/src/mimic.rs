//! Synthetic MIMIC-III-like electronic health records.
//!
//! Section V-E of the paper validates DSSDDI on MIMIC-III: 6350 patients
//! with at least two ICU stays, where the diagnosis and procedure codes of
//! the earlier visits serve as patient features and the medications of the
//! last visit are the prediction labels. MIMIC-III is a restricted-access
//! database, so this module generates an EHR with the same structure:
//! multi-visit patients, ICD-like diagnosis codes, procedure codes, a
//! last-visit medication list with the paper's label cardinality (8–15
//! drugs), and an *antagonism-only* DDI graph over anonymised drugs — which
//! is why the paper can only run the GIN backbone on this data set.

use rand::seq::SliceRandom;
use rand::Rng;

use dssddi_graph::{Interaction, SignedGraph};
use dssddi_tensor::Matrix;

use crate::drugs::DrugRegistry;
use crate::DataError;

/// Configuration of the synthetic MIMIC-like generator.
#[derive(Debug, Clone)]
pub struct MimicConfig {
    /// Number of patients (6350 in the paper).
    pub n_patients: usize,
    /// Number of distinct diagnosis codes.
    pub n_diagnosis_codes: usize,
    /// Number of distinct procedure codes.
    pub n_procedure_codes: usize,
    /// Number of anonymised drugs in the label space.
    pub n_drugs: usize,
    /// Number of latent conditions that tie codes to medications.
    pub n_conditions: usize,
    /// Number of antagonistic drug pairs to sample for the DDI graph.
    pub n_antagonistic_pairs: usize,
}

impl Default for MimicConfig {
    fn default() -> Self {
        Self {
            n_patients: 6350,
            n_diagnosis_codes: 120,
            n_procedure_codes: 40,
            n_drugs: 90,
            n_conditions: 20,
            n_antagonistic_pairs: 200,
        }
    }
}

/// A generated multi-visit EHR data set.
#[derive(Debug, Clone)]
pub struct MimicDataset {
    features: Matrix,
    labels: Matrix,
    visits: Vec<usize>,
    ddi: SignedGraph,
    registry: DrugRegistry,
    n_diagnosis_codes: usize,
    n_procedure_codes: usize,
}

impl MimicDataset {
    /// Patient features: multi-hot diagnosis + procedure codes from the
    /// visits preceding the last one.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Last-visit medication labels (one row per patient, {0,1} entries).
    pub fn labels(&self) -> &Matrix {
        &self.labels
    }

    /// Number of visits per patient (each at least 2).
    pub fn visits(&self) -> &[usize] {
        &self.visits
    }

    /// The antagonism-only DDI graph over the anonymised drugs.
    pub fn ddi(&self) -> &SignedGraph {
        &self.ddi
    }

    /// The anonymised drug registry over the label space (`MIMIC drug 000`,
    /// `MIMIC drug 001`, …): one entry per DDI node, so the typed
    /// `DecisionService` API — and therefore the serving gateway — can
    /// cover the MIMIC workload instead of falling back to the engine-level
    /// one. The names carry no class or indication metadata, mirroring the
    /// anonymised public MIMIC drug identifiers.
    pub fn registry(&self) -> &DrugRegistry {
        &self.registry
    }

    /// Number of patients.
    pub fn n_patients(&self) -> usize {
        self.features.rows()
    }

    /// Number of feature columns (diagnosis + procedure codes).
    pub fn n_features(&self) -> usize {
        self.features.cols()
    }

    /// Number of drugs in the label space.
    pub fn n_drugs(&self) -> usize {
        self.labels.cols()
    }

    /// Number of diagnosis code columns (prefix of the feature space).
    pub fn n_diagnosis_codes(&self) -> usize {
        self.n_diagnosis_codes
    }

    /// Number of procedure code columns (suffix of the feature space).
    pub fn n_procedure_codes(&self) -> usize {
        self.n_procedure_codes
    }

    /// Drugs prescribed to a patient on the last visit.
    pub fn drugs_of(&self, patient: usize) -> Vec<usize> {
        (0..self.labels.cols())
            .filter(|&d| self.labels.get(patient, d) > 0.5)
            .collect()
    }

    /// Mean number of drugs in the last-visit prescriptions.
    pub fn mean_drugs_per_patient(&self) -> f64 {
        let total: f32 = self.labels.data().iter().sum();
        total as f64 / self.n_patients().max(1) as f64
    }
}

/// Latent condition: the codes it produces and the drugs it is treated with.
struct Condition {
    diagnosis: Vec<usize>,
    procedures: Vec<usize>,
    drugs: Vec<usize>,
}

/// Generates a synthetic MIMIC-III-like data set.
#[expect(
    clippy::indexing_slicing,
    reason = "each patient's conditions are indices into `conditions`"
)]
pub fn generate_mimic_dataset(
    config: &MimicConfig,
    rng: &mut impl Rng,
) -> Result<MimicDataset, DataError> {
    if config.n_patients == 0 || config.n_conditions == 0 || config.n_drugs == 0 {
        return Err(DataError::InvalidConfig {
            what: "n_patients, n_conditions and n_drugs must be positive",
        });
    }
    if config.n_diagnosis_codes < config.n_conditions {
        return Err(DataError::InvalidConfig {
            what: "need at least one diagnosis code per latent condition",
        });
    }

    // Build latent conditions. Each owns a handful of diagnosis codes,
    // procedure codes and medications; overlaps are allowed and create the
    // co-prescription structure the recommenders exploit.
    let conditions: Vec<Condition> = (0..config.n_conditions)
        .map(|_| {
            let n_dx = rng.gen_range(3..=8usize);
            let n_proc = rng.gen_range(1..=4usize);
            let n_drugs = rng.gen_range(4..=8usize);
            let mut dx: Vec<usize> = (0..config.n_diagnosis_codes).collect();
            dx.shuffle(rng);
            dx.truncate(n_dx);
            let mut proc: Vec<usize> = (0..config.n_procedure_codes).collect();
            proc.shuffle(rng);
            proc.truncate(n_proc);
            let mut drugs: Vec<usize> = (0..config.n_drugs).collect();
            drugs.shuffle(rng);
            drugs.truncate(n_drugs);
            Condition {
                diagnosis: dx,
                procedures: proc,
                drugs,
            }
        })
        .collect();

    let n_features = config.n_diagnosis_codes + config.n_procedure_codes;
    let mut features = Matrix::zeros(config.n_patients, n_features);
    let mut labels = Matrix::zeros(config.n_patients, config.n_drugs);
    let mut visits = Vec::with_capacity(config.n_patients);

    for p in 0..config.n_patients {
        let n_visits = rng.gen_range(2..=5usize);
        visits.push(n_visits);
        let n_conditions = rng.gen_range(1..=3usize);
        let mut my_conditions: Vec<usize> = (0..config.n_conditions).collect();
        my_conditions.shuffle(rng);
        my_conditions.truncate(n_conditions);

        // Earlier visits populate the feature codes (with per-visit noise).
        for _visit in 0..n_visits - 1 {
            for &c in &my_conditions {
                for &dx in &conditions[c].diagnosis {
                    if rng.gen_bool(0.7) {
                        features.set(p, dx, 1.0);
                    }
                }
                for &proc in &conditions[c].procedures {
                    if rng.gen_bool(0.5) {
                        features.set(p, config.n_diagnosis_codes + proc, 1.0);
                    }
                }
            }
            // Sporadic unrelated codes.
            if rng.gen_bool(0.4) {
                let dx = rng.gen_range(0..config.n_diagnosis_codes);
                features.set(p, dx, 1.0);
            }
        }

        // Last visit: medications for the patient's conditions plus a few
        // ICU-stay staples, giving the 8-15 drug label cardinality of MIMIC.
        for &c in &my_conditions {
            for &drug in &conditions[c].drugs {
                if rng.gen_bool(0.85) {
                    labels.set(p, drug, 1.0);
                }
            }
        }
        let staples = rng.gen_range(2..=4usize);
        for _ in 0..staples {
            let drug = rng.gen_range(0..config.n_drugs.min(10));
            labels.set(p, drug, 1.0);
        }
        if labels.row(p).iter().sum::<f32>() == 0.0 {
            labels.set(p, rng.gen_range(0..config.n_drugs), 1.0);
        }
    }

    // Antagonism-only DDI graph over anonymised drugs (the public download
    // the paper uses contains only antagonistic interactions).
    let mut ddi = SignedGraph::new(config.n_drugs);
    let mut all_pairs: Vec<(usize, usize)> = Vec::new();
    for u in 0..config.n_drugs {
        for v in (u + 1)..config.n_drugs {
            all_pairs.push((u, v));
        }
    }
    all_pairs.shuffle(rng);
    for &(u, v) in all_pairs
        .iter()
        .take(config.n_antagonistic_pairs.min(all_pairs.len()))
    {
        ddi.add_interaction(u, v, Interaction::Antagonistic)
            .map_err(DataError::Graph)?;
    }

    // Anonymised registry over the label space: the public MIMIC download
    // identifies drugs only by index, so the names are synthetic but stable,
    // giving the typed service API (and the serving gateway) a formulary to
    // resolve against.
    let registry =
        DrugRegistry::from_names((0..config.n_drugs).map(|d| format!("MIMIC drug {d:03}")))?;

    Ok(MimicDataset {
        features,
        labels,
        visits,
        ddi,
        registry,
        n_diagnosis_codes: config.n_diagnosis_codes,
        n_procedure_codes: config.n_procedure_codes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small(n: usize, seed: u64) -> MimicDataset {
        let cfg = MimicConfig {
            n_patients: n,
            ..Default::default()
        };
        generate_mimic_dataset(&cfg, &mut StdRng::seed_from_u64(seed)).unwrap()
    }

    #[test]
    fn shapes_and_visit_counts() {
        let d = small(150, 0);
        assert_eq!(d.n_patients(), 150);
        assert_eq!(d.n_features(), 160);
        assert_eq!(d.n_drugs(), 90);
        assert_eq!(d.visits().len(), 150);
        assert!(d.visits().iter().all(|&v| (2..=5).contains(&v)));
    }

    #[test]
    fn label_cardinality_matches_mimic_scale() {
        let d = small(400, 1);
        let mean = d.mean_drugs_per_patient();
        assert!(
            (5.0..=20.0).contains(&mean),
            "mean drugs/patient {mean} out of range"
        );
        for p in 0..d.n_patients() {
            assert!(!d.drugs_of(p).is_empty());
        }
    }

    #[test]
    fn ddi_graph_is_antagonism_only() {
        let d = small(50, 2);
        assert_eq!(d.ddi().synergistic_count(), 0);
        assert_eq!(d.ddi().antagonistic_count(), 200);
    }

    #[test]
    fn registry_covers_the_label_space() {
        let d = small(40, 6);
        assert_eq!(d.registry().len(), d.n_drugs());
        assert_eq!(d.registry().len(), d.ddi().node_count());
        assert_eq!(d.registry().resolve("MIMIC drug 007"), Some(7));
        assert_eq!(d.registry().name_of(0), Some("MIMIC drug 000"));
        // Deterministic identity: the same config yields the same digest.
        assert_eq!(d.registry().digest(), small(10, 9).registry().digest());
    }

    #[test]
    fn features_are_binary_multi_hot() {
        let d = small(80, 3);
        for &x in d.features().data() {
            assert!(x == 0.0 || x == 1.0);
        }
        // At least some features must be set (patients have history).
        assert!(d.features().sum() > 0.0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small(60, 4);
        let b = small(60, 4);
        assert_eq!(a.features().data(), b.features().data());
        assert_eq!(a.labels().data(), b.labels().data());
    }

    #[test]
    fn invalid_configs_error() {
        let mut rng = StdRng::seed_from_u64(0);
        let zero = MimicConfig {
            n_patients: 0,
            ..Default::default()
        };
        assert!(generate_mimic_dataset(&zero, &mut rng).is_err());
        let few_codes = MimicConfig {
            n_diagnosis_codes: 2,
            n_conditions: 10,
            ..Default::default()
        };
        assert!(generate_mimic_dataset(&few_codes, &mut rng).is_err());
    }

    #[test]
    fn features_correlate_with_labels() {
        // Patients sharing a latent condition share drugs; verify by checking
        // that patients with overlapping features share more labels than
        // disjoint ones on average.
        let d = small(200, 5);
        let mut sim_shared = 0.0f64;
        let mut sim_count = 0usize;
        let mut dis_shared = 0.0f64;
        let mut dis_count = 0usize;
        for a in 0..50 {
            for b in (a + 1)..50 {
                let fa = d.features().row(a);
                let fb = d.features().row(b);
                let overlap: f32 = fa.iter().zip(fb).map(|(x, y)| x * y).sum();
                let la = d.drugs_of(a);
                let lb = d.drugs_of(b);
                let shared = la.iter().filter(|x| lb.contains(x)).count() as f64;
                if overlap >= 3.0 {
                    sim_shared += shared;
                    sim_count += 1;
                } else {
                    dis_shared += shared;
                    dis_count += 1;
                }
            }
        }
        if sim_count > 0 && dis_count > 0 {
            assert!(
                sim_shared / sim_count as f64 >= dis_shared / dis_count as f64,
                "feature overlap does not predict label overlap"
            );
        }
    }
}
