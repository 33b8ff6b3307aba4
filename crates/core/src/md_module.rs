//! The Medical Decision module (Section IV-B): MDGCN with counterfactual
//! link augmentation.
//!
//! The encoder maps patient features and drug features into a shared hidden
//! space with two fully connected layers (Eq. 9–10), propagates them over
//! the observed patient–drug bipartite graph with LightGCN-style weighted
//! sums (Eq. 11–13), and adds the DDI relation embeddings learned by the DDI
//! module to the final drug representations. The decoder predicts medication
//! use from `[h_i ⊙ h'_v, T_iv]` (Eq. 14–15). Training optimises the
//! factual cross-entropy plus δ times the counterfactual cross-entropy
//! (Eq. 16–18). Crucially, the *pre-propagation* patient representation is
//! used in the decoder, which avoids the over-smoothing the paper observes
//! in LightGCN (Fig. 7).

use std::rc::Rc;

use rand::Rng;

use dssddi_gnn::{sample_link_batch, Activation, Mlp};
use dssddi_graph::{BipartiteGraph, SignedGraph};
use dssddi_ml::fit_kmeans;
use dssddi_ml::KMeans;
use dssddi_tensor::serde::{ByteReader, ByteWriter, SerdeError};
use dssddi_tensor::{
    fused_linear_into, init, stable_sigmoid, ActivationKind, Adam, Binder, CsrMatrix, Matrix,
    Optimizer, ParamId, ParamSet, ScratchPool, Tape, Var,
};

use crate::config::MdModuleConfig;
use crate::counterfactual::{CounterfactualIndex, TreatmentMatrix};
use crate::persist::{self, section};
use crate::CoreError;

/// A fitted Medical Decision module: only what
/// [`MdModule::predict_scores`] reads, plus the training trace.
pub struct MdModule {
    params: ParamSet,
    patient_w: ParamId,
    patient_b: ParamId,
    decoder: Mlp,
    kmeans: KMeans,
    /// The treatment row of a new patient in each k-means cluster
    /// (`k x n_drugs`), derived from the training treatment matrix and the
    /// DDI graph when the module is fitted, and persisted in its place.
    cluster_treatment: Matrix,
    drug_repr: Matrix,
    losses: Vec<f32>,
    counterfactual_match_rate: f64,
}

/// The two bipartite propagation operators: patients→drugs and drugs→patients.
struct BipartiteOperators {
    patient_from_drug: Rc<CsrMatrix>,
    drug_from_patient: Rc<CsrMatrix>,
}

fn bipartite_operators(graph: &BipartiteGraph) -> Result<BipartiteOperators, CoreError> {
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
    Ok(BipartiteOperators {
        patient_from_drug: Rc::new(CsrMatrix::from_triplets(m, n, &pd)?),
        drug_from_patient: Rc::new(CsrMatrix::from_triplets(n, m, &dp)?),
    })
}

/// Layer-combination weights β_t = 1/(t+2) (Section V-A3).
fn layer_betas(layers: usize) -> Vec<f32> {
    (0..=layers).map(|t| 1.0 / (t as f32 + 2.0)).collect()
}

impl MdModule {
    /// Trains MDGCN on the observed patients.
    ///
    /// * `train_features` — features of the observed patients (`m x d1`),
    /// * `train_graph` — their medication use as a bipartite graph,
    /// * `drug_features` — original drug features (`n x d2`; KG embeddings
    ///   or one-hot identities depending on the ablation),
    /// * `ddi_graph` — the signed DDI graph (used for treatment propagation),
    /// * `ddi_embeddings` — drug relation embeddings from the DDI module
    ///   (`n x hidden_dim`), required unless
    ///   [`MdModuleConfig::use_ddi_embeddings`] is false.
    pub fn fit(
        train_features: &Matrix,
        train_graph: &BipartiteGraph,
        drug_features: &Matrix,
        ddi_graph: &SignedGraph,
        ddi_embeddings: Option<&Matrix>,
        config: &MdModuleConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, CoreError> {
        let m = train_graph.left_count();
        let n = train_graph.right_count();
        if m == 0 || n == 0 {
            return Err(CoreError::invalid_input(
                "training graph has no patients or drugs",
            ));
        }
        if train_features.rows() != m {
            return Err(CoreError::invalid_input(
                "train_features rows must equal the number of observed patients",
            ));
        }
        if drug_features.rows() != n {
            return Err(CoreError::invalid_input(
                "drug_features rows must equal the number of drugs",
            ));
        }
        if config.hidden_dim == 0 || config.epochs == 0 {
            return Err(CoreError::invalid_config(
                "MDGCN needs a positive hidden dimension and at least one epoch",
            ));
        }
        let ddi_embeddings = if config.use_ddi_embeddings {
            let emb = ddi_embeddings.ok_or_else(|| {
                CoreError::invalid_input(
                    "use_ddi_embeddings is enabled but no DDI embeddings were provided",
                )
            })?;
            if emb.shape() != (n, config.hidden_dim) {
                return Err(CoreError::invalid_input(
                    "DDI embeddings must have shape (n_drugs, hidden_dim)",
                ));
            }
            Some(emb)
        } else {
            None
        };

        // Parameters.
        let mut params = ParamSet::new();
        let h = config.hidden_dim;
        let patient_w = params.add(
            "md.patient_w",
            init::xavier_uniform(train_features.cols(), h, rng),
        );
        let patient_b = params.add("md.patient_b", init::zeros(1, h));
        let drug_w = params.add(
            "md.drug_w",
            init::xavier_uniform(drug_features.cols(), h, rng),
        );
        let drug_b = params.add("md.drug_b", init::zeros(1, h));
        let decoder = Mlp::new(
            "md.decoder",
            &[h + 1, h, 1],
            Activation::LeakyRelu,
            Activation::Identity,
            &mut params,
            rng,
        );

        // Treatment matrix: K-means clusters + observed links + DDI synergy.
        let n_clusters = config.n_clusters.max(1).min(m);
        let kmeans = fit_kmeans(train_features, n_clusters, 50, rng)?;
        let clusters = kmeans.assignments();
        let treatment = TreatmentMatrix::build(train_graph, clusters, ddi_graph)?;
        let cluster_treatment = treatment.cluster_rows(kmeans.k(), clusters, ddi_graph);
        let labels = Matrix::from_fn(
            m,
            n,
            |p, d| if train_graph.has_edge(p, d) { 1.0 } else { 0.0 },
        );
        let cf_index = if config.use_counterfactual {
            Some(CounterfactualIndex::build(
                train_features,
                drug_features,
                config.gamma_patient,
                config.gamma_drug,
                16,
            ))
        } else {
            None
        };

        let operators = bipartite_operators(train_graph)?;
        let betas = layer_betas(config.propagation_layers);

        // The encoder re-feeds the same matrices every epoch; share them
        // with the tapes through `Rc` so no epoch pays a full copy.
        let patient_features_rc = Rc::new(train_features.clone());
        let drug_features_rc = Rc::new(drug_features.clone());
        let ddi_embeddings_rc = ddi_embeddings.map(|m| Rc::new(m.clone()));

        let mut optimizer = Adam::new(config.learning_rate);
        let mut losses = Vec::with_capacity(config.epochs);
        let mut matched = 0usize;
        let mut total_cf = 0usize;

        for _ in 0..config.epochs {
            let batch = sample_link_batch(train_graph, config.negatives_per_positive, rng);
            if batch.is_empty() {
                return Err(CoreError::invalid_input("training graph has no links"));
            }
            let factual_t: Vec<f32> = batch
                .patients
                .iter()
                .zip(batch.drugs.iter())
                .map(|(&p, &d)| treatment.get(p, d))
                .collect();
            let counterfactual = cf_index
                .as_ref()
                .map(|idx| idx.find_links(&batch.patients, &batch.drugs, &treatment, &labels));
            if let Some(cf) = &counterfactual {
                matched += cf.matched;
                total_cf += cf.treatments.len();
            }

            let mut tape = Tape::new();
            let mut binder = Binder::new();
            let (hp, hd) = encoder_forward(
                &mut tape,
                &params,
                &mut binder,
                patient_w,
                patient_b,
                drug_w,
                drug_b,
                &patient_features_rc,
                &drug_features_rc,
                &operators,
                &betas,
                ddi_embeddings_rc.as_ref(),
            )?;

            let targets = Matrix::from_vec(batch.targets.len(), 1, batch.targets.clone())?;
            let factual_logits = decode_pairs(
                &mut tape,
                &params,
                &mut binder,
                &decoder,
                hp,
                hd,
                &batch.patients,
                &batch.drugs,
                &factual_t,
            )?;
            let factual_loss = tape.bce_with_logits(factual_logits, &targets)?;

            let loss = if let Some(cf) = &counterfactual {
                let cf_targets = Matrix::from_vec(cf.outcomes.len(), 1, cf.outcomes.clone())?;
                let cf_logits = decode_pairs(
                    &mut tape,
                    &params,
                    &mut binder,
                    &decoder,
                    hp,
                    hd,
                    &batch.patients,
                    &batch.drugs,
                    &cf.treatments,
                )?;
                let cf_loss = tape.bce_with_logits(cf_logits, &cf_targets)?;
                let weighted = tape.scale(cf_loss, config.delta);
                tape.add(factual_loss, weighted)?
            } else {
                factual_loss
            };

            tape.backward(loss)?;
            let grads = binder.grads(&tape, &params);
            optimizer.step(&mut params, &grads)?;
            losses.push(tape.value(loss).get(0, 0));
        }

        // Cache the final drug representations for inference.
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let (_, hd) = encoder_forward(
            &mut tape,
            &params,
            &mut binder,
            patient_w,
            patient_b,
            drug_w,
            drug_b,
            &patient_features_rc,
            &drug_features_rc,
            &operators,
            &betas,
            ddi_embeddings_rc.as_ref(),
        )?;
        let drug_repr = tape.value(hd).clone();
        let counterfactual_match_rate = if total_cf == 0 {
            0.0
        } else {
            matched as f64 / total_cf as f64
        };

        let module = Self {
            params,
            patient_w,
            patient_b,
            decoder,
            kmeans,
            cluster_treatment,
            drug_repr,
            losses,
            counterfactual_match_rate,
        };
        // A model loading would refuse must not leave training either.
        if let Some(name) = module.non_finite_part() {
            return Err(CoreError::invalid_input(format!(
                "training left {name} with a NaN or infinite value (a non-finite input \
                 or a diverging learning rate)"
            )));
        }
        Ok(module)
    }

    /// Serializes the fitted module: the full parameter set, the decoder
    /// structure, the k-means model, the per-cluster treatment table and
    /// the cached drug representations — everything
    /// [`MdModule::predict_scores`] touches — plus the training trace.
    pub(crate) fn write_into(&self, w: &mut ByteWriter) {
        persist::put_section(w, section::MD_MODULE);
        w.put_param_set(&self.params);
        w.put_param_id(self.patient_w);
        w.put_param_id(self.patient_b);
        self.decoder.write_into(w);
        persist::write_kmeans(w, &self.kmeans);
        w.put_matrix(&self.cluster_treatment);
        w.put_matrix(&self.drug_repr);
        w.put_f32_slice(&self.losses);
        w.put_f64(self.counterfactual_match_rate);
    }

    /// Reconstructs a fitted module written by [`MdModule::write_into`],
    /// validating the cross-field consistency the serving path relies on so
    /// a decoded module can never panic inside `predict_scores`. The
    /// treatment table is read as persisted, not derived again.
    pub(crate) fn read_from(r: &mut ByteReader<'_>) -> Result<Self, SerdeError> {
        persist::expect_section(r, section::MD_MODULE, "md_module")?;
        let params = r.take_param_set("md_module.params")?;
        let patient_w = r.take_param_id(&params, "md_module.patient_w")?;
        let patient_b = r.take_param_id(&params, "md_module.patient_b")?;
        let decoder = Mlp::read_from(r, &params)?;
        let kmeans = persist::read_kmeans(r)?;
        let cluster_treatment = r.take_matrix("md_module.cluster_treatment")?;
        let drug_repr = r.take_matrix("md_module.drug_repr")?;
        let losses = r.take_f32_vec("md_module.losses")?;
        let counterfactual_match_rate = r.take_f64("md_module.counterfactual_match_rate")?;

        let corrupt = |what: String| SerdeError::Corrupt { what };
        if cluster_treatment.shape() != (kmeans.k(), drug_repr.rows()) {
            return Err(corrupt(format!(
                "treatment table is {}x{} but the model has {} k-means clusters and {} drug \
                 representations",
                cluster_treatment.rows(),
                cluster_treatment.cols(),
                kmeans.k(),
                drug_repr.rows()
            )));
        }
        let patient_features = params.get(patient_w).rows();
        if kmeans.centroids().cols() != patient_features {
            return Err(corrupt(format!(
                "k-means centroids are {} features wide but the patient projection takes {} \
                 features",
                kmeans.centroids().cols(),
                patient_features
            )));
        }
        let patient_hidden = params.get(patient_w).cols();
        if params.get(patient_b).shape() != (1, patient_hidden) {
            return Err(corrupt(
                "patient bias shape disagrees with the patient projection".into(),
            ));
        }
        if decoder.input_dim() != patient_hidden + 1 {
            return Err(corrupt(format!(
                "decoder expects {} inputs but the encoder produces {} (+1 treatment)",
                decoder.input_dim(),
                patient_hidden
            )));
        }
        if decoder.output_dim() != 1 {
            return Err(corrupt(format!(
                "decoder produces {} outputs but medication-use prediction needs exactly 1",
                decoder.output_dim()
            )));
        }
        if drug_repr.cols() != patient_hidden {
            return Err(corrupt(
                "drug representation width disagrees with the patient hidden width".into(),
            ));
        }
        let module = Self {
            params,
            patient_w,
            patient_b,
            decoder,
            kmeans,
            cluster_treatment,
            drug_repr,
            losses,
            counterfactual_match_rate,
        };
        if let Some(name) = module.non_finite_part() {
            return Err(corrupt(format!(
                "persisted {name} holds a NaN or infinite value"
            )));
        }
        Ok(module)
    }

    /// The name of the first value prediction reads that holds a NaN or
    /// infinity, if any. Such a weight would rank drugs on NaN scores, so
    /// neither training nor loading may hand the module out. The training
    /// losses are only a trace that prediction never reads.
    fn non_finite_part(&self) -> Option<&str> {
        self.params
            .iter()
            .map(|(id, m)| (self.params.name(id), m))
            .chain([
                ("drug_repr", &self.drug_repr),
                ("cluster_treatment", &self.cluster_treatment),
                ("kmeans.centroids", self.kmeans.centroids()),
            ])
            .find(|(_, m)| !m.all_finite())
            .map(|(name, _)| name)
    }

    /// Per-epoch training loss trace.
    pub fn training_losses(&self) -> &[f32] {
        &self.losses
    }

    /// Fraction of counterfactual searches that found an opposite-treatment
    /// neighbour within the γ thresholds.
    pub fn counterfactual_match_rate(&self) -> f64 {
        self.counterfactual_match_rate
    }

    /// The final drug representations `h'_v` (+ DDI embeddings if enabled).
    pub fn drug_representations(&self) -> &Matrix {
        &self.drug_repr
    }

    /// The pre-propagation patient representations `h_i` (Eq. 9) for a set of
    /// patients — the personalised embeddings the decoder consumes, and the
    /// quantity compared against LightGCN in Fig. 7(a).
    ///
    /// Runs tape-free (one fused kernel), producing the same bits as the
    /// taped `matmul → add_broadcast_row → leaky_relu` chain used in
    /// training.
    pub fn patient_representations(&self, features: &Matrix) -> Result<Matrix, CoreError> {
        let hidden = self.params.get(self.patient_w).cols();
        let mut out = Matrix::zeros(features.rows(), hidden);
        fused_linear_into(
            &mut out,
            features,
            self.params.get(self.patient_w),
            self.params.get(self.patient_b),
            ActivationKind::LeakyRelu(0.01),
        )?;
        Ok(out)
    }

    /// Treatment row `T_i` for a previously unseen patient (one entry per
    /// drug): the row of the patient's nearest K-means cluster in the table
    /// built when the module was fitted and persisted with it. Each table
    /// row is the union of the cluster's observed treatments followed by one
    /// pass of synergy propagation over the DDI graph (Section IV-B1), so a
    /// request pays for the cluster assignment and nothing else.
    pub fn treatment_for(&self, features_row: &[f32]) -> &[f32] {
        self.cluster_treatment
            .row(self.kmeans.predict_row(features_row))
    }

    /// Predicts medication-use scores (probabilities) for unobserved
    /// patients, one row per patient and one column per drug.
    ///
    /// This is the serving fast path: no [`Tape`], no per-op allocation.
    /// The patient projection (Eq. 9) runs once for the whole batch through
    /// one fused kernel. Each patient then reads its treatment row from the
    /// per-cluster table ([`MdModule::treatment_for`]), its decoder input is
    /// assembled directly into a scratch buffer reused across the batch,
    /// and the decoder runs through [`Mlp::infer`]. Every dense product
    /// goes through the register-blocked [`Matrix::matmul_into`]. Produces
    /// bit-identical scores to the taped training-time forward pass, kept
    /// as a `#[cfg(test)]` reference that a test compares against.
    pub fn predict_scores(&self, features: &Matrix) -> Result<Matrix, CoreError> {
        if features.cols() != self.n_features() {
            return Err(CoreError::invalid_input(
                "patient feature dimension differs from the fitted model",
            ));
        }
        let hp = self.patient_representations(features)?;
        let n_drugs = self.drug_repr.rows();
        let hidden = self.drug_repr.cols();
        let mut pool = ScratchPool::new();
        let mut scores = Matrix::zeros(features.rows(), n_drugs);
        for p in 0..features.rows() {
            let treat = self.treatment_for(features.row(p));
            // Decoder input rows: `[h_i ⊙ h'_v, T_iv]` (Eq. 14).
            let mut input = pool.take(n_drugs, hidden + 1);
            let hp_row = hp.row(p);
            let drug_rows = (0..n_drugs).map(|d| self.drug_repr.row(d));
            let input_rows = input.data_mut().chunks_mut(hidden + 1);
            for ((row, hd_row), &t) in input_rows.zip(drug_rows).zip(treat) {
                if let Some((t_cell, product)) = row.split_last_mut() {
                    for ((x, &h), &hd) in product.iter_mut().zip(hp_row).zip(hd_row) {
                        *x = h * hd;
                    }
                    *t_cell = t;
                }
            }
            let logits = self.decoder.infer(&self.params, &input, &mut pool)?;
            for (score, &logit) in scores.row_mut(p).iter_mut().zip(logits.data()) {
                *score = stable_sigmoid(logit);
            }
            pool.recycle(input);
            pool.recycle(logits);
        }
        Ok(scores)
    }

    /// Reference scoring path running every forward pass through the full
    /// autodiff [`Tape`] — the pre-optimization implementation, kept only
    /// so tests can assert the fast path is bit-identical. It reads the same
    /// treatment table row, so it is the reference for the tape-free
    /// projection and decoder; the table has its own reference test.
    #[cfg(test)]
    fn predict_scores_taped(&self, features: &Matrix) -> Result<Matrix, CoreError> {
        if features.cols() != self.n_features() {
            return Err(CoreError::invalid_input(
                "patient feature dimension differs from the fitted model",
            ));
        }
        // Taped Eq. 9 projection (the historical `patient_representations`).
        let hp = {
            let mut tape = Tape::new();
            let mut binder = Binder::new();
            let x = tape.constant(features.clone());
            let w = binder.bind(&mut tape, &self.params, self.patient_w);
            let b = binder.bind(&mut tape, &self.params, self.patient_b);
            let lin = tape.matmul(x, w)?;
            let lin = tape.add_broadcast_row(lin, b)?;
            let h = tape.leaky_relu(lin, 0.01);
            tape.value(h).clone()
        };
        let n_drugs = self.drug_repr.rows();
        let mut scores = Matrix::zeros(features.rows(), n_drugs);
        let all_drugs: Vec<usize> = (0..n_drugs).collect();
        for p in 0..features.rows() {
            let treat = self.treatment_for(features.row(p));
            let mut tape = Tape::new();
            let mut binder = Binder::new();
            let hp_var = tape.constant(hp.select_rows(&vec![p; n_drugs]));
            let hd_var = tape.constant(self.drug_repr.clone());
            let hd_sel = tape.select_rows(hd_var, &all_drugs)?;
            let prod = tape.mul(hp_var, hd_sel)?;
            let t_col = tape.constant(Matrix::col_vector(treat));
            let cat = tape.concat_cols(prod, t_col)?;
            let logits = self
                .decoder
                .forward(&mut tape, &self.params, &mut binder, cat)?;
            let probs = tape.sigmoid(logits);
            let values = tape.value(probs);
            for d in 0..n_drugs {
                scores.set(p, d, values.get(d, 0));
            }
        }
        Ok(scores)
    }

    /// Number of drugs the module was trained on.
    pub fn n_drugs(&self) -> usize {
        self.drug_repr.rows()
    }

    /// Length of the patient feature vectors the module scores: the input
    /// width of the patient projection (Eq. 9).
    pub fn n_features(&self) -> usize {
        self.params.get(self.patient_w).rows()
    }
}

/// Runs the MDGCN encoder: FC layers, bipartite propagation with layer
/// combination, and addition of the DDI relation embeddings.
#[allow(clippy::too_many_arguments)]
fn encoder_forward(
    tape: &mut Tape,
    params: &ParamSet,
    binder: &mut Binder,
    patient_w: ParamId,
    patient_b: ParamId,
    drug_w: ParamId,
    drug_b: ParamId,
    patient_features: &Rc<Matrix>,
    drug_features: &Rc<Matrix>,
    operators: &BipartiteOperators,
    betas: &[f32],
    ddi_embeddings: Option<&Rc<Matrix>>,
) -> Result<(Var, Var), CoreError> {
    // Eq. 9-10: project both sides into the shared hidden space.
    let xp = tape.constant_shared(Rc::clone(patient_features));
    let wp = binder.bind(tape, params, patient_w);
    let bp = binder.bind(tape, params, patient_b);
    let hp_lin = tape.matmul(xp, wp)?;
    let hp_lin = tape.add_broadcast_row(hp_lin, bp)?;
    let hp = tape.leaky_relu(hp_lin, 0.01);

    let xd = tape.constant_shared(Rc::clone(drug_features));
    let wd = binder.bind(tape, params, drug_w);
    let bd = binder.bind(tape, params, drug_b);
    let hd_lin = tape.matmul(xd, wd)?;
    let hd_lin = tape.add_broadcast_row(hd_lin, bd)?;
    let hd = tape.leaky_relu(hd_lin, 0.01);

    // Eq. 11-13: alternate propagation across the bipartite graph and
    // combine the per-layer drug representations with the β weights.
    let (&beta_0, later_betas) = betas.split_first().ok_or_else(|| {
        CoreError::invalid_config("layer combination needs the weight of layer 0")
    })?;
    let mut cur_p = hp;
    let mut cur_d = hd;
    let mut combined_d = tape.scale(hd, beta_0);
    for &beta in later_betas {
        let next_p = tape.spmm(&operators.patient_from_drug, cur_d)?;
        let next_d = tape.spmm(&operators.drug_from_patient, cur_p)?;
        cur_p = next_p;
        cur_d = next_d;
        let weighted = tape.scale(cur_d, beta);
        combined_d = tape.add(combined_d, weighted)?;
    }

    // Share the DDI relation embeddings: h'_v = h'_v + z_v.
    let final_d = match ddi_embeddings {
        Some(z) => {
            let zv = tape.constant_shared(Rc::clone(z));
            tape.add(combined_d, zv)?
        }
        None => combined_d,
    };
    Ok((hp, final_d))
}

/// Decodes a batch of patient–drug pairs into link logits (Eq. 14–15).
#[allow(clippy::too_many_arguments)]
fn decode_pairs(
    tape: &mut Tape,
    params: &ParamSet,
    binder: &mut Binder,
    decoder: &Mlp,
    hp: Var,
    hd: Var,
    patients: &[usize],
    drugs: &[usize],
    treatments: &[f32],
) -> Result<Var, CoreError> {
    let hi = tape.select_rows(hp, patients)?;
    let hv = tape.select_rows(hd, drugs)?;
    let prod = tape.mul(hi, hv)?;
    let t_col = tape.constant(Matrix::col_vector(treatments));
    let cat = tape.concat_cols(prod, t_col)?;
    Ok(decoder.forward(tape, params, binder, cat)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DecisionService, ServiceBuilder};
    use dssddi_data::{
        generate_chronic_cohort, generate_ddi_graph, ChronicConfig, DdiConfig, DrugRegistry,
    };
    use dssddi_graph::Interaction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A toy world: two patient groups with distinct features, each group
    /// taking a distinct pair of drugs; one synergy edge inside each pair.
    fn toy() -> (Matrix, BipartiteGraph, Matrix, SignedGraph) {
        let mut pairs = Vec::new();
        let features = Matrix::from_fn(20, 4, |p, c| {
            let group = p / 10;
            if c < 2 {
                if group == 0 {
                    1.0
                } else {
                    0.0
                }
            } else if group == 1 {
                1.0
            } else {
                0.0
            }
        });
        for p in 0..20 {
            if p / 10 == 0 {
                pairs.push((p, 0));
                pairs.push((p, 1));
            } else {
                pairs.push((p, 4));
                pairs.push((p, 5));
            }
        }
        let graph = BipartiteGraph::from_pairs(20, 6, &pairs).unwrap();
        let drug_features = Matrix::identity(6);
        let mut ddi = SignedGraph::new(6);
        ddi.add_interaction(0, 1, Interaction::Synergistic).unwrap();
        ddi.add_interaction(4, 5, Interaction::Synergistic).unwrap();
        ddi.add_interaction(1, 4, Interaction::Antagonistic)
            .unwrap();
        (features, graph, drug_features, ddi)
    }

    fn quick_config() -> MdModuleConfig {
        MdModuleConfig {
            hidden_dim: 8,
            epochs: 80,
            n_clusters: 2,
            gamma_patient: 3.0,
            gamma_drug: 2.0,
            use_ddi_embeddings: false,
            ..Default::default()
        }
    }

    #[test]
    fn training_reduces_loss_and_learns_group_preferences() {
        let (features, graph, drug_features, ddi) = toy();
        let mut rng = StdRng::seed_from_u64(0);
        let module = MdModule::fit(
            &features,
            &graph,
            &drug_features,
            &ddi,
            None,
            &quick_config(),
            &mut rng,
        )
        .unwrap();
        let losses = module.training_losses();
        assert!(losses.last().unwrap() < losses.first().unwrap());

        // A new patient with group-0 features should rank drugs 0/1 above 4/5.
        let new_patient = Matrix::from_vec(1, 4, vec![1.0, 1.0, 0.0, 0.0]).unwrap();
        let scores = module.predict_scores(&new_patient).unwrap();
        assert_eq!(scores.shape(), (1, 6));
        assert!(scores.get(0, 0) > scores.get(0, 4));
        assert!(scores.get(0, 1) > scores.get(0, 5));
    }

    #[test]
    fn ddi_embeddings_are_validated_and_used() {
        let (features, graph, drug_features, ddi) = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let mut config = quick_config();
        config.use_ddi_embeddings = true;
        // Missing embeddings -> error.
        assert!(MdModule::fit(
            &features,
            &graph,
            &drug_features,
            &ddi,
            None,
            &config,
            &mut rng
        )
        .is_err());
        // Wrong shape -> error.
        let bad = Matrix::zeros(6, 3);
        assert!(MdModule::fit(
            &features,
            &graph,
            &drug_features,
            &ddi,
            Some(&bad),
            &config,
            &mut rng
        )
        .is_err());
        // Correct shape -> trains, and the embeddings reach the drug
        // representations: the same seeded fit without them differs.
        let good = Matrix::rand_uniform(6, 8, -0.1, 0.1, &mut rng);
        let seeded_fit = |config: &MdModuleConfig, embeddings| {
            let mut rng = StdRng::seed_from_u64(11);
            MdModule::fit(
                &features,
                &graph,
                &drug_features,
                &ddi,
                embeddings,
                config,
                &mut rng,
            )
            .unwrap()
        };
        let with = seeded_fit(&config, Some(&good));
        config.use_ddi_embeddings = false;
        let without = seeded_fit(&config, None);
        assert_ne!(
            bits(with.drug_representations().data()),
            bits(without.drug_representations().data())
        );
    }

    #[test]
    fn treatment_for_new_patient_reflects_cluster_medication() {
        let (features, graph, drug_features, ddi) = toy();
        let mut rng = StdRng::seed_from_u64(2);
        let module = MdModule::fit(
            &features,
            &graph,
            &drug_features,
            &ddi,
            None,
            &quick_config(),
            &mut rng,
        )
        .unwrap();
        let group0 = module.treatment_for(&[1.0, 1.0, 0.0, 0.0]);
        assert_eq!(group0[0], 1.0);
        assert_eq!(group0[1], 1.0);
        assert_eq!(group0[4], 0.0);
        let group1 = module.treatment_for(&[0.0, 0.0, 1.0, 1.0]);
        assert_eq!(group1[4], 1.0);
        assert_eq!(group1[0], 0.0);
    }

    #[test]
    fn patient_representations_are_personalised() {
        let (features, graph, drug_features, ddi) = toy();
        let mut rng = StdRng::seed_from_u64(3);
        let module = MdModule::fit(
            &features,
            &graph,
            &drug_features,
            &ddi,
            None,
            &quick_config(),
            &mut rng,
        )
        .unwrap();
        let reprs = module.patient_representations(&features).unwrap();
        assert_eq!(reprs.shape(), (20, 8));
        // Patients from different groups must not collapse to the same vector.
        let cross = reprs.row_cosine(0, &reprs, 15);
        let within = reprs.row_cosine(0, &reprs, 1);
        assert!(
            within > cross,
            "within-group similarity {within} <= cross-group {cross}"
        );
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let (features, graph, drug_features, ddi) = toy();
        let mut rng = StdRng::seed_from_u64(4);
        // Mismatched feature rows.
        let bad_features = Matrix::zeros(5, 4);
        assert!(MdModule::fit(
            &bad_features,
            &graph,
            &drug_features,
            &ddi,
            None,
            &quick_config(),
            &mut rng
        )
        .is_err());
        // Mismatched drug feature rows.
        let bad_drugs = Matrix::zeros(3, 6);
        assert!(MdModule::fit(
            &features,
            &graph,
            &bad_drugs,
            &ddi,
            None,
            &quick_config(),
            &mut rng
        )
        .is_err());
        // Zero epochs.
        let mut cfg = quick_config();
        cfg.epochs = 0;
        assert!(MdModule::fit(
            &features,
            &graph,
            &drug_features,
            &ddi,
            None,
            &cfg,
            &mut rng
        )
        .is_err());
        // Prediction with wrong feature width.
        let module = MdModule::fit(
            &features,
            &graph,
            &drug_features,
            &ddi,
            None,
            &quick_config(),
            &mut rng,
        )
        .unwrap();
        assert!(module.predict_scores(&Matrix::zeros(1, 9)).is_err());
    }

    #[test]
    fn tape_free_scores_are_bit_identical_to_taped_scores() {
        let (features, graph, drug_features, ddi) = toy();
        let mut rng = StdRng::seed_from_u64(21);
        let module = MdModule::fit(
            &features,
            &graph,
            &drug_features,
            &ddi,
            None,
            &quick_config(),
            &mut rng,
        )
        .unwrap();
        let query = Matrix::rand_uniform(7, 4, -1.0, 1.0, &mut rng);
        let fast = module.predict_scores(&query).unwrap();
        let taped = module.predict_scores_taped(&query).unwrap();
        assert_eq!(fast.shape(), taped.shape());
        let fast_bits: Vec<u32> = fast.data().iter().map(|v| v.to_bits()).collect();
        let taped_bits: Vec<u32> = taped.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            fast_bits, taped_bits,
            "serving fast path drifted from the taped reference"
        );
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Writes the module's section and reads it back, as a `DSSD` load does.
    fn round_trip(module: &MdModule) -> Result<MdModule, SerdeError> {
        let mut w = ByteWriter::new();
        module.write_into(&mut w);
        MdModule::read_from(&mut ByteReader::new(w.as_bytes()))
    }

    /// Every row of the cluster table against the per-patient reference
    /// it replaced, rebuilt from the training data and the module's k-means
    /// assignments.
    fn assert_table_matches_for_new_patient(
        module: &MdModule,
        train_graph: &BipartiteGraph,
        ddi: &SignedGraph,
    ) {
        let k = module.kmeans.k();
        assert_eq!(
            module.cluster_treatment.shape(),
            (k, module.n_drugs()),
            "one row per cluster, one column per drug"
        );
        let clusters = module.kmeans.assignments();
        let treatment = TreatmentMatrix::build(train_graph, clusters, ddi).unwrap();
        for c in 0..k {
            let reference = treatment.for_new_patient(c, clusters, ddi);
            assert_eq!(
                bits(module.cluster_treatment.row(c)),
                bits(&reference),
                "cluster {c} of {k}"
            );
        }
    }

    #[test]
    fn cluster_treatment_rows_are_bit_identical_to_for_new_patient() {
        let (features, graph, drug_features, ddi) = toy();
        let mut rng = StdRng::seed_from_u64(6);
        let toy = MdModule::fit(
            &features,
            &graph,
            &drug_features,
            &ddi,
            None,
            &quick_config(),
            &mut rng,
        )
        .unwrap();
        assert_table_matches_for_new_patient(&toy, &graph, &ddi);
        assert_table_matches_for_new_patient(&round_trip(&toy).unwrap(), &graph, &ddi);

        // A service on the 86-drug formulary, whose synergy edges chain, and
        // the same service after its `DSSD` container is reloaded.
        let registry = DrugRegistry::standard();
        let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
        let config = ChronicConfig {
            n_patients: 70,
            ..Default::default()
        };
        let cohort = generate_chronic_cohort(&registry, &ddi, &config, &mut rng).unwrap();
        let drug_features = Matrix::rand_uniform(registry.len(), 16, -0.1, 0.1, &mut rng);
        let observed: Vec<usize> = (0..55).collect();
        let train_graph = cohort.bipartite_graph(&observed).unwrap();
        let service = ServiceBuilder::fast()
            .hidden_dim(16)
            .epochs(25, 30)
            .fit_chronic(&cohort, &observed, &drug_features, &ddi, &mut rng)
            .unwrap();
        let fitted = service.engine().unwrap().md_module();
        assert!(fitted.kmeans.k() > 2, "{} clusters", fitted.kmeans.k());
        assert_table_matches_for_new_patient(fitted, &train_graph, &ddi);
        let reloaded =
            DecisionService::load_with_embedded_registry_bytes(&service.to_container_bytes())
                .unwrap();
        let reloaded_md = reloaded.engine().unwrap().md_module();
        assert_table_matches_for_new_patient(reloaded_md, &train_graph, &ddi);
        assert_eq!(
            bits(reloaded_md.cluster_treatment.data()),
            bits(fitted.cluster_treatment.data())
        );
    }

    #[test]
    fn a_loaded_model_with_kmeans_wider_than_the_features_is_refused() {
        let (features, graph, drug_features, ddi) = toy();
        let mut rng = StdRng::seed_from_u64(8);
        let mut module = MdModule::fit(
            &features,
            &graph,
            &drug_features,
            &ddi,
            None,
            &quick_config(),
            &mut rng,
        )
        .unwrap();
        let centroids = module.kmeans.centroids();
        let (k, width) = centroids.shape();
        assert_eq!(width, features.cols());
        let wider = Matrix::from_fn(k, width + 1, |r, c| {
            if c < width {
                centroids.get(r, c)
            } else {
                0.5
            }
        });
        module.kmeans = KMeans::from_parts(
            wider,
            module.kmeans.assignments().to_vec(),
            module.kmeans.inertia(),
        )
        .unwrap();
        match round_trip(&module) {
            Err(SerdeError::Corrupt { what }) => {
                assert!(
                    what.contains("k-means centroids are 5 features wide")
                        && what.contains("patient projection takes 4"),
                    "{what}"
                );
            }
            Err(other) => panic!("expected a Corrupt error, got {other}"),
            Ok(_) => panic!("a model whose k-means is wider than its features loaded"),
        }
    }

    #[test]
    fn counterfactual_training_matches_some_pairs() {
        let (features, graph, drug_features, ddi) = toy();
        let mut rng = StdRng::seed_from_u64(5);
        let module = MdModule::fit(
            &features,
            &graph,
            &drug_features,
            &ddi,
            None,
            &quick_config(),
            &mut rng,
        )
        .unwrap();
        assert!(module.counterfactual_match_rate() > 0.0);
        // Disabling counterfactuals trains too and reports a zero match rate.
        let mut cfg = quick_config();
        cfg.use_counterfactual = false;
        let module2 = MdModule::fit(
            &features,
            &graph,
            &drug_features,
            &ddi,
            None,
            &cfg,
            &mut rng,
        )
        .unwrap();
        assert_eq!(module2.counterfactual_match_rate(), 0.0);
    }
}
