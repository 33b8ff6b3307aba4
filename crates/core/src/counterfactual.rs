//! Treatment definition and counterfactual link construction
//! (Section IV-B1 of the paper).
//!
//! The causal model treats the patient and drug representations as context,
//! a *treatment* variable derived from the graph structure as treatment, and
//! medication use as outcome. The treatment matrix is built in three steps:
//! observed links, propagation within K-means patient clusters, and
//! propagation along synergistic DDI edges. For every training pair the
//! counterfactual link is the nearest (patient, drug) pair with the opposite
//! treatment (Eq. 7), whose observed outcome becomes the counterfactual
//! training target (Eq. 8).

use dssddi_graph::{BipartiteGraph, Interaction, SignedGraph};
use dssddi_tensor::Matrix;

use crate::CoreError;

/// The treatment matrix `T` over observed patients and drugs.
#[derive(Debug, Clone)]
pub struct TreatmentMatrix {
    matrix: Matrix,
}

impl TreatmentMatrix {
    /// Builds the treatment matrix in the three steps of Section IV-B1:
    ///
    /// 1. `T_iv = 1` for every observed medication-use link,
    /// 2. `T_jv = 1` whenever some patient in the same K-means cluster as
    ///    `j` has `T_iv = 1`,
    /// 3. `T_iu = 1` whenever `T_iv = 1` and drugs `u`, `v` interact
    ///    synergistically in the DDI graph.
    #[expect(
        clippy::indexing_slicing,
        reason = "`clusters` has one entry per patient (checked above), each below `n_clusters`, its maximum plus one; rows of `cluster_drugs` span the drugs"
    )]
    pub fn build(
        graph: &BipartiteGraph,
        clusters: &[usize],
        ddi: &SignedGraph,
    ) -> Result<Self, CoreError> {
        let m = graph.left_count();
        let n = graph.right_count();
        if clusters.len() != m {
            return Err(CoreError::invalid_input(
                "cluster assignment length must equal the number of observed patients",
            ));
        }
        let mut t = Matrix::zeros(m, n);
        // Step 1: observed links.
        for (p, d) in graph.edges() {
            t.set(p, d, 1.0);
        }
        // Step 2: cluster propagation. Collect, per cluster, the union of
        // treated drugs, then broadcast it to every member.
        let n_clusters = clusters.iter().copied().max().map_or(0, |c| c + 1);
        let mut cluster_drugs = vec![vec![false; n]; n_clusters];
        for p in 0..m {
            for d in 0..n {
                if t.get(p, d) > 0.5 {
                    cluster_drugs[clusters[p]][d] = true;
                }
            }
        }
        for p in 0..m {
            for d in 0..n {
                if cluster_drugs[clusters[p]][d] {
                    t.set(p, d, 1.0);
                }
            }
        }
        // Step 3: synergy propagation over the DDI graph.
        let synergy = ddi.edges_of(Interaction::Synergistic);
        for p in 0..m {
            for &(u, v) in &synergy {
                if u < n && v < n {
                    if t.get(p, u) > 0.5 {
                        t.set(p, v, 1.0);
                    }
                    if t.get(p, v) > 0.5 {
                        t.set(p, u, 1.0);
                    }
                }
            }
        }
        Ok(Self { matrix: t })
    }

    /// Treatment value for a patient–drug pair.
    pub fn get(&self, patient: usize, drug: usize) -> f32 {
        self.matrix.get(patient, drug)
    }

    /// The underlying matrix (`patients x drugs`).
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// The treatment row of an *unobserved* patient in each of `n_clusters`
    /// K-means clusters, as a `n_clusters x drugs` matrix: row `c` is the
    /// union of the treatments of cluster `c`'s patients (step 2) followed
    /// by one pass of synergy propagation in DDI edge order (step 3). A new
    /// patient's row depends only on its cluster, so fitting builds this
    /// table once per model, the model container persists it, and serving
    /// reads one row per patient. Patients whose cluster is `n_clusters` or
    /// above contribute nothing.
    pub(crate) fn cluster_rows(
        &self,
        n_clusters: usize,
        clusters: &[usize],
        ddi: &SignedGraph,
    ) -> Matrix {
        let n = self.matrix.cols();
        let mut table = Matrix::zeros(n_clusters, n);
        if n == 0 {
            return table;
        }
        for (&c, patient) in clusters.iter().zip(self.matrix.data().chunks_exact(n)) {
            if c >= n_clusters {
                continue;
            }
            for (t, &p) in table.row_mut(c).iter_mut().zip(patient) {
                if p > 0.5 {
                    *t = 1.0;
                }
            }
        }
        let synergy = ddi.edges_of(Interaction::Synergistic);
        for row in table.data_mut().chunks_exact_mut(n) {
            for &(u, v) in &synergy {
                if u < n && v < n {
                    propagate(row, u, v);
                    propagate(row, v, u);
                }
            }
        }
        table
    }

    /// Treatment row derived for an *unobserved* patient: the union of the
    /// treatments of its cluster (step 2) followed by synergy propagation
    /// (step 3). The per-patient formulation that [`Self::cluster_rows`]
    /// replaced, kept as the reference its rows are checked against.
    #[cfg(test)]
    pub(crate) fn for_new_patient(
        &self,
        cluster_of_new: usize,
        clusters: &[usize],
        ddi: &SignedGraph,
    ) -> Vec<f32> {
        let n = self.matrix.cols();
        let mut row = vec![0.0f32; n];
        for (p, &c) in clusters.iter().enumerate() {
            if c == cluster_of_new {
                for d in 0..n {
                    if self.matrix.get(p, d) > 0.5 {
                        row[d] = 1.0;
                    }
                }
            }
        }
        for (u, v) in ddi.edges_of(Interaction::Synergistic) {
            if u < n && v < n {
                if row[u] > 0.5 {
                    row[v] = 1.0;
                }
                if row[v] > 0.5 {
                    row[u] = 1.0;
                }
            }
        }
        row
    }
}

/// Step 3 for one synergistic pair: drug `to` is treated once drug `from`
/// is.
fn propagate(row: &mut [f32], from: usize, to: usize) {
    if row.get(from).is_some_and(|&t| t > 0.5) {
        if let Some(t) = row.get_mut(to) {
            *t = 1.0;
        }
    }
}

/// Counterfactual treatments and outcomes for a set of training pairs.
#[derive(Debug, Clone, Default)]
pub struct CounterfactualLinks {
    /// Counterfactual treatment `T^CF` per pair.
    pub treatments: Vec<f32>,
    /// Counterfactual outcome `y^CF` per pair.
    pub outcomes: Vec<f32>,
    /// Number of pairs for which a genuine opposite-treatment neighbour was
    /// found (the rest fall back to the factual values, per Eq. 8).
    pub matched: usize,
}

/// Precomputed nearest-neighbour candidate lists used by the counterfactual
/// search.
pub struct CounterfactualIndex {
    patient_neighbors: Vec<Vec<usize>>,
    drug_neighbors: Vec<Vec<usize>>,
}

impl CounterfactualIndex {
    /// Builds candidate lists: for every patient the closest patients within
    /// `gamma_patient` (Euclidean, capped at `max_candidates`), and likewise
    /// for drugs with `gamma_drug`.
    pub fn build(
        patient_features: &Matrix,
        drug_features: &Matrix,
        gamma_patient: f32,
        gamma_drug: f32,
        max_candidates: usize,
    ) -> Self {
        let patient_neighbors = nearest_within(patient_features, gamma_patient, max_candidates);
        let drug_neighbors = nearest_within(drug_features, gamma_drug, max_candidates);
        Self {
            patient_neighbors,
            drug_neighbors,
        }
    }

    /// Finds counterfactual links for the given `(patient, drug)` training
    /// pairs: the nearest pair `(j, u)` (by summed feature distance, subject
    /// to the γ thresholds) whose treatment is opposite, whose observed
    /// outcome then serves as the counterfactual target.
    #[expect(
        clippy::indexing_slicing,
        reason = "the neighbour lists are built over the same patients and drugs the pairs index"
    )]
    pub fn find_links(
        &self,
        pairs_patients: &[usize],
        pairs_drugs: &[usize],
        treatment: &TreatmentMatrix,
        labels: &Matrix,
    ) -> CounterfactualLinks {
        let mut out = CounterfactualLinks::default();
        for (&i, &v) in pairs_patients.iter().zip(pairs_drugs.iter()) {
            let factual_t = treatment.get(i, v);
            let target_t = 1.0 - factual_t;
            let mut found: Option<(usize, usize)> = None;
            'search: for &j in &self.patient_neighbors[i] {
                for &u in &self.drug_neighbors[v] {
                    if (treatment.get(j, u) - target_t).abs() < 0.5 {
                        found = Some((j, u));
                        break 'search;
                    }
                }
            }
            match found {
                Some((j, u)) => {
                    out.treatments.push(target_t);
                    out.outcomes.push(labels.get(j, u));
                    out.matched += 1;
                }
                None => {
                    out.treatments.push(factual_t);
                    out.outcomes.push(labels.get(i, v));
                }
            }
        }
        out
    }
}

/// For every row, the indices of the other rows within `threshold` Euclidean
/// distance, sorted by increasing distance and truncated to `max_candidates`.
/// The row itself is always the first candidate (distance 0).
fn nearest_within(features: &Matrix, threshold: f32, max_candidates: usize) -> Vec<Vec<usize>> {
    let n = features.rows();
    let mut result = Vec::with_capacity(n);
    for i in 0..n {
        let mut dists: Vec<(f32, usize)> = (0..n)
            .map(|j| (features.row_euclidean(i, features, j), j))
            .filter(|&(d, _)| d <= threshold)
            .collect();
        // `d <= threshold` drops NaN, and distances over non-empty rows are
        // at least +0.0, where `total_cmp` is the numeric order.
        dists.sort_by(|a, b| a.0.total_cmp(&b.0));
        result.push(
            dists
                .into_iter()
                .map(|(_, j)| j)
                .take(max_candidates.max(1))
                .collect(),
        );
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssddi_ml::fit_kmeans;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (BipartiteGraph, Vec<usize>, SignedGraph, Matrix, Matrix) {
        // 4 patients, 5 drugs. Patients 0/1 are cluster 0; 2/3 cluster 1.
        let graph = BipartiteGraph::from_pairs(4, 5, &[(0, 0), (1, 1), (2, 3), (3, 4)]).unwrap();
        let clusters = vec![0, 0, 1, 1];
        let mut ddi = SignedGraph::new(5);
        ddi.add_interaction(1, 2, Interaction::Synergistic).unwrap();
        ddi.add_interaction(0, 3, Interaction::Antagonistic)
            .unwrap();
        let patient_features =
            Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.1, 0.0, 5.0, 5.0, 5.1, 5.0]).unwrap();
        let drug_features = Matrix::identity(5);
        (graph, clusters, ddi, patient_features, drug_features)
    }

    #[test]
    fn treatment_matrix_builds_in_three_steps() {
        let (graph, clusters, ddi, _, _) = setup();
        let t = TreatmentMatrix::build(&graph, &clusters, &ddi).unwrap();
        // Step 1: observed links.
        assert_eq!(t.get(0, 0), 1.0);
        // Step 2: cluster propagation: patient 1 is in patient 0's cluster.
        assert_eq!(t.get(1, 0), 1.0);
        assert_eq!(t.get(0, 1), 1.0);
        // Step 3: synergy 1-2 propagates treatment to drug 2.
        assert_eq!(t.get(0, 2), 1.0);
        assert_eq!(t.get(1, 2), 1.0);
        // Antagonistic edge 0-3 must NOT propagate.
        assert_eq!(t.get(0, 3), 0.0);
        // Different cluster remains untouched by cluster 0's drugs.
        assert_eq!(t.get(2, 0), 0.0);
    }

    #[test]
    fn cluster_length_mismatch_errors() {
        let (graph, _, ddi, _, _) = setup();
        assert!(TreatmentMatrix::build(&graph, &[0, 1], &ddi).is_err());
    }

    #[test]
    fn new_patient_treatment_unions_its_cluster() {
        let (graph, clusters, ddi, _, _) = setup();
        let t = TreatmentMatrix::build(&graph, &clusters, &ddi).unwrap();
        let row = t.for_new_patient(0, &clusters, &ddi);
        assert_eq!(row[0], 1.0);
        assert_eq!(row[1], 1.0);
        assert_eq!(row[2], 1.0); // synergy propagation
        assert_eq!(row[3], 0.0);
        let other = t.for_new_patient(1, &clusters, &ddi);
        assert_eq!(other[0], 0.0);
        assert_eq!(other[3], 1.0);
        // The one-pass table holds both rows, and an empty third cluster
        // treats nothing.
        let table = t.cluster_rows(3, &clusters, &ddi);
        assert_eq!(table.shape(), (3, 5));
        assert_eq!(table.row(0), row.as_slice());
        assert_eq!(table.row(1), other.as_slice());
        assert_eq!(
            table.row(2),
            t.for_new_patient(2, &clusters, &ddi).as_slice()
        );
        assert!(table.row(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn counterfactual_links_flip_treatment_when_a_neighbour_exists() {
        let (graph, clusters, ddi, patient_features, drug_features) = setup();
        let t = TreatmentMatrix::build(&graph, &clusters, &ddi).unwrap();
        let labels = Matrix::from_fn(4, 5, |p, d| if graph.has_edge(p, d) { 1.0 } else { 0.0 });
        let index = CounterfactualIndex::build(&patient_features, &drug_features, 1.0, 2.0, 5);
        let pairs_p = vec![0, 2];
        let pairs_d = vec![0, 0];
        let cf = index.find_links(&pairs_p, &pairs_d, &t, &labels);
        assert_eq!(cf.treatments.len(), 2);
        // Pair (0,0) has treatment 1; a counterfactual requires treatment 0,
        // available at e.g. (0 or 1, some untreated drug) within γ_d=2
        // (identity drug features are √2 apart).
        assert!(cf.matched >= 1);
        for (idx, &tcf) in cf.treatments.iter().enumerate() {
            let factual = t.get(pairs_p[idx], pairs_d[idx]);
            // Either flipped (matched) or equal (fallback).
            assert!(tcf == 1.0 - factual || tcf == factual);
        }
    }

    #[test]
    fn counterfactual_falls_back_to_factual_when_no_neighbour_qualifies() {
        let (graph, clusters, ddi, patient_features, drug_features) = setup();
        let t = TreatmentMatrix::build(&graph, &clusters, &ddi).unwrap();
        let labels = Matrix::zeros(4, 5);
        // Impossible thresholds: only the pair itself is a candidate.
        let index = CounterfactualIndex::build(&patient_features, &drug_features, 0.0, 0.0, 1);
        let cf = index.find_links(&[0], &[0], &t, &labels);
        assert_eq!(cf.matched, 0);
        assert_eq!(cf.treatments[0], t.get(0, 0));
        assert_eq!(cf.outcomes[0], labels.get(0, 0));
    }

    #[test]
    fn treatment_works_with_kmeans_clusters() {
        let (graph, _, ddi, patient_features, _) = setup();
        let mut rng = StdRng::seed_from_u64(0);
        let km = fit_kmeans(&patient_features, 2, 20, &mut rng).unwrap();
        let t = TreatmentMatrix::build(&graph, km.assignments(), &ddi).unwrap();
        assert_eq!(t.matrix().shape(), (4, 5));
        // Patients 0 and 1 are close, so they land in the same cluster and
        // share treatments.
        assert_eq!(km.assignments()[0], km.assignments()[1]);
        assert_eq!(t.get(1, 0), 1.0);
    }
}
