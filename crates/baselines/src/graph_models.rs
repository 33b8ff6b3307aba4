//! Graph-learning baselines: GCMC, LightGCN and Bipar-GCN.
//!
//! All three operate on the observed patient–drug bipartite graph. To match
//! the paper's evaluation protocol (scores for *unobserved* patients who have
//! no links), every model keeps an inductive patient branch:
//!
//! * **GCMC** and **Bipar-GCN** encode patients from their features with a
//!   fully connected layer followed by graph convolutions over the observed
//!   graph; unobserved patients use the feature branch directly.
//! * **LightGCN** is transductive (free ID embeddings propagated over the
//!   graph); unobserved patients are represented by the similarity-weighted
//!   average of the observed patients' final embeddings, which is exactly
//!   the over-smoothed behaviour the paper analyses in Fig. 7.

use std::rc::Rc;

use rand::Rng;

use dssddi_core::CoreError;
use dssddi_gnn::{sample_link_batch, Activation, GcnLayer, Mlp};
use dssddi_graph::BipartiteGraph;
use dssddi_tensor::{init, Adam, Binder, CsrMatrix, Matrix, ParamSet, Tape, Var};

use crate::Recommender;

/// Hyperparameters shared by the graph baselines.
#[derive(Debug, Clone)]
pub struct GraphBaselineConfig {
    /// Embedding / hidden dimension.
    pub hidden_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Number of propagation layers.
    pub layers: usize,
}

impl Default for GraphBaselineConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 64,
            epochs: 200,
            learning_rate: 0.01,
            layers: 2,
        }
    }
}

/// Bipartite propagation operators (patients→drugs, drugs→patients).
struct Operators {
    patient_from_drug: Rc<CsrMatrix>,
    drug_from_patient: Rc<CsrMatrix>,
}

fn build_operators(graph: &BipartiteGraph) -> Result<Operators, CoreError> {
    let m = graph.left_count();
    let n = graph.right_count();
    let mut pd = Vec::new();
    let mut dp = Vec::new();
    for (p, d) in graph.edges() {
        let norm = 1.0
            / ((graph.left_degree(p).max(1) as f32).sqrt()
                * (graph.right_degree(d).max(1) as f32).sqrt());
        pd.push((p, d, norm));
        dp.push((d, p, norm));
    }
    Ok(Operators {
        patient_from_drug: Rc::new(CsrMatrix::from_triplets(m, n, &pd)?),
        drug_from_patient: Rc::new(CsrMatrix::from_triplets(n, m, &dp)?),
    })
}

fn validate(features: &Matrix, graph: &BipartiteGraph) -> Result<(), CoreError> {
    if graph.left_count() == 0 || graph.right_count() == 0 {
        return Err(CoreError::invalid_input("training graph is empty"));
    }
    if features.rows() != graph.left_count() {
        return Err(CoreError::invalid_input(
            "feature rows must equal the number of observed patients",
        ));
    }
    Ok(())
}

/// Decodes patient/drug representation pairs into logits via inner products.
fn inner_product_logits(
    tape: &mut Tape,
    hp: Var,
    hd: Var,
    patients: &[usize],
    drugs: &[usize],
) -> Result<Var, CoreError> {
    let hi = tape.select_rows(hp, patients)?;
    let hv = tape.select_rows(hd, drugs)?;
    let prod = tape.mul(hi, hv)?;
    Ok(tape.sum_cols(prod))
}

// ---------------------------------------------------------------------------
// GCMC
// ---------------------------------------------------------------------------

/// Graph Convolutional Matrix Completion (Berg et al., 2017), adapted to the
/// inductive medication-suggestion protocol.
pub struct GcmcRecommender {
    params: ParamSet,
    patient_encoder: Mlp,
    drug_repr: Matrix,
}

impl GcmcRecommender {
    /// Fits GCMC on the observed patients.
    pub fn fit(
        observed_features: &Matrix,
        graph: &BipartiteGraph,
        config: &GraphBaselineConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, CoreError> {
        validate(observed_features, graph)?;
        let n_drugs = graph.right_count();
        let h = config.hidden_dim;
        let mut params = ParamSet::new();
        let patient_encoder = Mlp::new(
            "gcmc.patient",
            &[observed_features.cols(), h],
            Activation::Relu,
            Activation::Relu,
            &mut params,
            rng,
        );
        let drug_embedding =
            params.add("gcmc.drug_embedding", init::xavier_uniform(n_drugs, h, rng));
        let drug_conv = GcnLayer::new("gcmc.drug_conv", h, h, Activation::Relu, &mut params, rng);
        let operators = build_operators(graph)?;
        let mut optimizer = Adam::new(config.learning_rate);

        for _ in 0..config.epochs {
            let batch = sample_link_batch(graph, 1, rng);
            let mut tape = Tape::new();
            let mut binder = Binder::new();
            let x = tape.constant(observed_features.clone());
            let hp = patient_encoder.forward(&mut tape, &params, &mut binder, x)?;
            let hd0 = binder.bind(&mut tape, &params, drug_embedding);
            // Drug representations aggregate the connected patients' encodings.
            let hd = drug_conv.forward_with_input(
                &mut tape,
                &params,
                &mut binder,
                &operators.drug_from_patient,
                hp,
                hd0,
            )?;
            let logits = inner_product_logits(&mut tape, hp, hd, &batch.patients, &batch.drugs)?;
            let targets = Matrix::from_vec(batch.targets.len(), 1, batch.targets.clone())?;
            let loss = tape.bce_with_logits(logits, &targets)?;
            tape.backward(loss)?;
            let grads = binder.grads(&tape, &params);
            optimizer.step(&mut params, &grads)?;
        }

        // Cache the final drug representations.
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let x = tape.constant(observed_features.clone());
        let hp = patient_encoder.forward(&mut tape, &params, &mut binder, x)?;
        let hd0 = binder.bind(&mut tape, &params, drug_embedding);
        let hd = drug_conv.forward_with_input(
            &mut tape,
            &params,
            &mut binder,
            &operators.drug_from_patient,
            hp,
            hd0,
        )?;
        let drug_repr = tape.value(hd).clone();
        Ok(Self {
            params,
            patient_encoder,
            drug_repr,
        })
    }
}

/// Helper extension: a GCN layer whose propagation input differs from the
/// self-features it is combined with (`act((Â x) W + x_self W + b)`),
/// used to aggregate patient encodings into drug representations.
trait GcnLayerExt {
    #[allow(clippy::too_many_arguments)]
    fn forward_with_input(
        &self,
        tape: &mut Tape,
        params: &ParamSet,
        binder: &mut Binder,
        adjacency: &Rc<CsrMatrix>,
        propagated_input: Var,
        self_input: Var,
    ) -> Result<Var, CoreError>;
}

impl GcnLayerExt for GcnLayer {
    fn forward_with_input(
        &self,
        tape: &mut Tape,
        params: &ParamSet,
        binder: &mut Binder,
        adjacency: &Rc<CsrMatrix>,
        propagated_input: Var,
        self_input: Var,
    ) -> Result<Var, CoreError> {
        let aggregated = self.forward(tape, params, binder, adjacency, propagated_input)?;
        Ok(tape.add(aggregated, self_input)?)
    }
}

impl Recommender for GcmcRecommender {
    fn name(&self) -> &'static str {
        "GCMC"
    }

    fn predict_scores(&self, features: &Matrix) -> Result<Matrix, CoreError> {
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let x = tape.constant(features.clone());
        let hp = self
            .patient_encoder
            .forward(&mut tape, &self.params, &mut binder, x)?;
        let hp = tape.value(hp).clone();
        Ok(hp.matmul(&self.drug_repr.transpose())?)
    }
}

// ---------------------------------------------------------------------------
// LightGCN
// ---------------------------------------------------------------------------

/// LightGCN (He et al., SIGIR 2020): free patient/drug ID embeddings
/// propagated over the bipartite graph without transformations.
pub struct LightGcnRecommender {
    observed_features: Matrix,
    patient_repr: Matrix,
    drug_repr: Matrix,
}

impl LightGcnRecommender {
    /// Fits LightGCN on the observed patients.
    pub fn fit(
        observed_features: &Matrix,
        graph: &BipartiteGraph,
        config: &GraphBaselineConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, CoreError> {
        validate(observed_features, graph)?;
        let m = graph.left_count();
        let n = graph.right_count();
        let h = config.hidden_dim;
        let mut params = ParamSet::new();
        let patient_embedding = params.add("lightgcn.patients", init::xavier_uniform(m, h, rng));
        let drug_embedding = params.add("lightgcn.drugs", init::xavier_uniform(n, h, rng));
        let operators = build_operators(graph)?;
        let betas: Vec<f32> = (0..=config.layers)
            .map(|t| 1.0 / (t as f32 + 2.0))
            .collect();
        let mut optimizer = Adam::new(config.learning_rate);

        #[expect(
            clippy::indexing_slicing,
            reason = "`betas` holds `layers + 1 >= 1` weights"
        )]
        let propagate = |tape: &mut Tape, p0: Var, d0: Var| -> Result<(Var, Var), CoreError> {
            let mut cur_p = p0;
            let mut cur_d = d0;
            let mut comb_p = tape.scale(p0, betas[0]);
            let mut comb_d = tape.scale(d0, betas[0]);
            for &beta in betas.iter().skip(1) {
                let next_p = tape.spmm(&operators.patient_from_drug, cur_d)?;
                let next_d = tape.spmm(&operators.drug_from_patient, cur_p)?;
                cur_p = next_p;
                cur_d = next_d;
                let wp = tape.scale(cur_p, beta);
                let wd = tape.scale(cur_d, beta);
                comb_p = tape.add(comb_p, wp)?;
                comb_d = tape.add(comb_d, wd)?;
            }
            Ok((comb_p, comb_d))
        };

        for _ in 0..config.epochs {
            let batch = sample_link_batch(graph, 1, rng);
            let mut tape = Tape::new();
            let mut binder = Binder::new();
            let p0 = binder.bind(&mut tape, &params, patient_embedding);
            let d0 = binder.bind(&mut tape, &params, drug_embedding);
            let (hp, hd) = propagate(&mut tape, p0, d0)?;
            let logits = inner_product_logits(&mut tape, hp, hd, &batch.patients, &batch.drugs)?;
            let targets = Matrix::from_vec(batch.targets.len(), 1, batch.targets.clone())?;
            let loss = tape.bce_with_logits(logits, &targets)?;
            tape.backward(loss)?;
            let grads = binder.grads(&tape, &params);
            optimizer.step(&mut params, &grads)?;
        }

        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let p0 = binder.bind(&mut tape, &params, patient_embedding);
        let d0 = binder.bind(&mut tape, &params, drug_embedding);
        let (hp, hd) = propagate(&mut tape, p0, d0)?;
        let patient_repr = tape.value(hp).clone();
        let drug_repr = tape.value(hd).clone();
        Ok(Self {
            observed_features: observed_features.clone(),
            patient_repr,
            drug_repr,
        })
    }

    /// Final (propagated) representations of unobserved patients: the cosine
    /// similarity-weighted average of the observed patients' embeddings.
    /// This is the quantity compared against DSSDDI in Fig. 7(a).
    pub fn patient_representations(&self, features: &Matrix) -> Result<Matrix, CoreError> {
        let similarity = features.cosine_similarity_matrix(&self.observed_features)?;
        // Row-normalise the similarity so each new patient is a convex-ish
        // combination of observed patients.
        let mut weights = similarity;
        for r in 0..weights.rows() {
            let sum: f32 = weights.row(r).iter().map(|v| v.max(0.0)).sum();
            if sum > 1e-6 {
                for v in weights.row_mut(r) {
                    *v = v.max(0.0) / sum;
                }
            }
        }
        Ok(weights.matmul(&self.patient_repr)?)
    }

    /// Final (propagated) drug representations, compared in Fig. 7(b).
    pub fn drug_representations(&self) -> &Matrix {
        &self.drug_repr
    }
}

impl Recommender for LightGcnRecommender {
    fn name(&self) -> &'static str {
        "LightGCN"
    }

    fn predict_scores(&self, features: &Matrix) -> Result<Matrix, CoreError> {
        let hp = self.patient_representations(features)?;
        Ok(hp.matmul(&self.drug_repr.transpose())?)
    }
}

// ---------------------------------------------------------------------------
// Bipar-GCN
// ---------------------------------------------------------------------------

/// Bipar-GCN (Jin et al., ICDE 2020): two structurally identical towers —
/// a patient-oriented network and a drug-oriented network — trained jointly
/// with a link-prediction objective.
pub struct BiparGcnRecommender {
    params: ParamSet,
    patient_tower: Mlp,
    drug_repr: Matrix,
}

impl BiparGcnRecommender {
    /// Fits Bipar-GCN on the observed patients.
    pub fn fit(
        observed_features: &Matrix,
        graph: &BipartiteGraph,
        config: &GraphBaselineConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, CoreError> {
        validate(observed_features, graph)?;
        let n_drugs = graph.right_count();
        let h = config.hidden_dim;
        let mut params = ParamSet::new();
        // Patient-oriented tower: features -> hidden -> hidden.
        let patient_tower = Mlp::new(
            "bipar.patient",
            &[observed_features.cols(), h, h],
            Activation::LeakyRelu,
            Activation::Identity,
            &mut params,
            rng,
        );
        // Drug-oriented tower: free embeddings refined by aggregating the
        // patient-tower outputs of connected patients.
        let drug_embedding = params.add(
            "bipar.drug_embedding",
            init::xavier_uniform(n_drugs, h, rng),
        );
        let drug_conv = GcnLayer::new(
            "bipar.drug_conv",
            h,
            h,
            Activation::LeakyRelu,
            &mut params,
            rng,
        );
        let operators = build_operators(graph)?;
        let mut optimizer = Adam::new(config.learning_rate);

        let forward = |tape: &mut Tape,
                       binder: &mut Binder,
                       params: &ParamSet|
         -> Result<(Var, Var), CoreError> {
            let x = tape.constant(observed_features.clone());
            let hp = patient_tower.forward(tape, params, binder, x)?;
            let hd0 = binder.bind(tape, params, drug_embedding);
            let aggregated =
                drug_conv.forward(tape, params, binder, &operators.drug_from_patient, hp)?;
            let hd = tape.add(aggregated, hd0)?;
            Ok((hp, hd))
        };

        for _ in 0..config.epochs {
            let batch = sample_link_batch(graph, 1, rng);
            let mut tape = Tape::new();
            let mut binder = Binder::new();
            let (hp, hd) = forward(&mut tape, &mut binder, &params)?;
            let logits = inner_product_logits(&mut tape, hp, hd, &batch.patients, &batch.drugs)?;
            let targets = Matrix::from_vec(batch.targets.len(), 1, batch.targets.clone())?;
            let loss = tape.bce_with_logits(logits, &targets)?;
            tape.backward(loss)?;
            let grads = binder.grads(&tape, &params);
            optimizer.step(&mut params, &grads)?;
        }

        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let (_, hd) = forward(&mut tape, &mut binder, &params)?;
        let drug_repr = tape.value(hd).clone();
        Ok(Self {
            params,
            patient_tower,
            drug_repr,
        })
    }
}

impl Recommender for BiparGcnRecommender {
    fn name(&self) -> &'static str {
        "Bipar-GCN"
    }

    fn predict_scores(&self, features: &Matrix) -> Result<Matrix, CoreError> {
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let x = tape.constant(features.clone());
        let hp = self
            .patient_tower
            .forward(&mut tape, &self.params, &mut binder, x)?;
        let hp = tape.value(hp).clone();
        Ok(hp.matmul(&self.drug_repr.transpose())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two groups of patients with distinct features and distinct drugs.
    fn toy() -> (Matrix, BipartiteGraph) {
        let features = Matrix::from_fn(30, 4, |r, c| {
            let group = r / 15;
            if (c < 2) == (group == 0) {
                1.0
            } else {
                0.0
            }
        });
        let mut pairs = Vec::new();
        for p in 0..30 {
            if p / 15 == 0 {
                pairs.push((p, 0));
                pairs.push((p, 1));
            } else {
                pairs.push((p, 3));
                pairs.push((p, 4));
            }
        }
        (features, BipartiteGraph::from_pairs(30, 5, &pairs).unwrap())
    }

    fn quick() -> GraphBaselineConfig {
        GraphBaselineConfig {
            hidden_dim: 8,
            epochs: 60,
            learning_rate: 0.05,
            layers: 2,
        }
    }

    fn group0_probe() -> Matrix {
        Matrix::from_vec(1, 4, vec![1.0, 1.0, 0.0, 0.0]).unwrap()
    }

    #[test]
    fn gcmc_ranks_group_drugs_higher() {
        let (x, g) = toy();
        let mut rng = StdRng::seed_from_u64(0);
        let model = GcmcRecommender::fit(&x, &g, &quick(), &mut rng).unwrap();
        let scores = model.predict_scores(&group0_probe()).unwrap();
        assert!(scores.get(0, 0) > scores.get(0, 3));
        assert_eq!(model.name(), "GCMC");
    }

    #[test]
    fn lightgcn_ranks_group_drugs_higher_and_oversmooths_patients() {
        let (x, g) = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let model = LightGcnRecommender::fit(&x, &g, &quick(), &mut rng).unwrap();
        let scores = model.predict_scores(&group0_probe()).unwrap();
        assert!(scores.get(0, 0) > scores.get(0, 3));
        // Representations of two different unseen patients are highly similar
        // (the over-smoothing phenomenon of Fig. 7a): both are averages of
        // the same pool of observed embeddings.
        let probes = Matrix::from_vec(2, 4, vec![1.0, 1.0, 0.0, 0.0, 1.0, 0.9, 0.0, 0.1]).unwrap();
        let reprs = model.patient_representations(&probes).unwrap();
        assert!(reprs.row_cosine(0, &reprs, 1) > 0.9);
        assert_eq!(model.drug_representations().rows(), 5);
        assert_eq!(model.name(), "LightGCN");
    }

    #[test]
    fn bipar_gcn_ranks_group_drugs_higher() {
        let (x, g) = toy();
        let mut rng = StdRng::seed_from_u64(2);
        let model = BiparGcnRecommender::fit(&x, &g, &quick(), &mut rng).unwrap();
        let scores = model.predict_scores(&group0_probe()).unwrap();
        assert!(scores.get(0, 1) > scores.get(0, 4));
        assert_eq!(model.name(), "Bipar-GCN");
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let (x, g) = toy();
        let mut rng = StdRng::seed_from_u64(3);
        let bad_features = Matrix::zeros(5, 4);
        assert!(GcmcRecommender::fit(&bad_features, &g, &quick(), &mut rng).is_err());
        assert!(LightGcnRecommender::fit(&bad_features, &g, &quick(), &mut rng).is_err());
        assert!(BiparGcnRecommender::fit(&bad_features, &g, &quick(), &mut rng).is_err());
        let _ = x;
    }
}
