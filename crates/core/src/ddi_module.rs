//! The Drug-Drug Interaction module (Section IV-A).
//!
//! DDIGCN treats the signed DDI graph as an edge-regression problem: drug
//! representations are produced by a GNN backbone from one-hot drug ID
//! features, the score of an edge is the inner product of its endpoint
//! representations (Eq. 5), and the model is trained with MSE against the
//! edge labels +1 (synergy), −1 (antagonism) and 0 (explicitly sampled
//! non-interactions) — Eq. 6. The learned drug relation embeddings are
//! shared with the Medical Decision module.
//!
//! The module is a training step: [`crate::system::Dssddi::fit`] trains it,
//! hands its embeddings to [`crate::md_module::MdModule::fit`], which adds
//! them into the drug representations, and drops it. Prediction never reads
//! it, so neither the fitted engine nor a `DSSD` container holds it.

use std::rc::Rc;

use rand::Rng;

use dssddi_gnn::{GinConv, SgcnLayer, SigatLayer, SignedGraphContext, SneaLayer};
use dssddi_graph::SignedGraph;
use dssddi_tensor::{init, Adam, Binder, Matrix, Optimizer, ParamSet, Tape, Var};

use crate::config::{Backbone, DdiModuleConfig};
use crate::CoreError;

/// The GNN stack of a particular backbone.
enum BackboneNet {
    Gin(Vec<GinConv>),
    Sgcn(Vec<SgcnLayer>),
    Sigat(Vec<SigatLayer>),
    Snea(Vec<SneaLayer>),
}

impl BackboneNet {
    fn build(
        backbone: Backbone,
        input_dim: usize,
        hidden_dim: usize,
        layers: usize,
        params: &mut ParamSet,
        rng: &mut impl Rng,
    ) -> Result<Self, CoreError> {
        if hidden_dim == 0 || layers == 0 {
            return Err(CoreError::invalid_config(
                "DDIGCN needs a positive hidden dimension and at least one layer",
            ));
        }
        match backbone {
            Backbone::Gin => {
                let mut convs = Vec::with_capacity(layers);
                let mut dim = input_dim;
                for l in 0..layers {
                    convs.push(GinConv::new(
                        &format!("ddigcn.gin{l}"),
                        dim,
                        hidden_dim,
                        true,
                        params,
                        rng,
                    ));
                    dim = hidden_dim;
                }
                Ok(BackboneNet::Gin(convs))
            }
            Backbone::Sgcn => {
                if !hidden_dim.is_multiple_of(2) {
                    return Err(CoreError::invalid_config(
                        "SGCN backbone requires an even hidden dimension",
                    ));
                }
                let half = hidden_dim / 2;
                let mut convs = Vec::with_capacity(layers);
                let mut dim = input_dim;
                for l in 0..layers {
                    convs.push(SgcnLayer::new(
                        &format!("ddigcn.sgcn{l}"),
                        dim,
                        half,
                        params,
                        rng,
                    ));
                    dim = half;
                }
                Ok(BackboneNet::Sgcn(convs))
            }
            Backbone::Sigat => {
                if !hidden_dim.is_multiple_of(2) {
                    return Err(CoreError::invalid_config(
                        "SiGAT backbone requires an even hidden dimension",
                    ));
                }
                let half = hidden_dim / 2;
                let mut convs = Vec::with_capacity(layers);
                let mut dim = input_dim;
                for l in 0..layers {
                    convs.push(SigatLayer::new(
                        &format!("ddigcn.sigat{l}"),
                        dim,
                        half,
                        params,
                        rng,
                    ));
                    dim = hidden_dim;
                }
                Ok(BackboneNet::Sigat(convs))
            }
            Backbone::Snea => {
                let mut convs = Vec::with_capacity(layers);
                let mut dim = input_dim;
                for l in 0..layers {
                    convs.push(SneaLayer::new(
                        &format!("ddigcn.snea{l}"),
                        dim,
                        hidden_dim,
                        params,
                        rng,
                    ));
                    dim = hidden_dim;
                }
                Ok(BackboneNet::Snea(convs))
            }
        }
    }

    fn forward(
        &self,
        tape: &mut Tape,
        params: &ParamSet,
        binder: &mut Binder,
        ctx: &SignedGraphContext,
        x: Var,
    ) -> Result<Var, CoreError> {
        match self {
            BackboneNet::Gin(convs) => {
                let mut h = x;
                for conv in convs {
                    h = conv.forward(tape, params, binder, ctx, h)?;
                }
                Ok(h)
            }
            BackboneNet::Sgcn(convs) => {
                let mut balanced = x;
                let mut unbalanced = x;
                for conv in convs {
                    let (b, u) = conv.forward(tape, params, binder, ctx, balanced, unbalanced)?;
                    balanced = b;
                    unbalanced = u;
                }
                Ok(SgcnLayer::combine(tape, balanced, unbalanced)?)
            }
            BackboneNet::Sigat(convs) => {
                let mut h = x;
                for conv in convs {
                    h = conv.forward(tape, params, binder, ctx, h)?;
                }
                Ok(h)
            }
            BackboneNet::Snea(convs) => {
                let mut h = x;
                for conv in convs {
                    h = conv.forward(tape, params, binder, ctx, h)?;
                }
                Ok(h)
            }
        }
    }
}

/// A trained DDI module holding the learned drug relation embeddings.
pub struct DdiModule {
    embeddings: Matrix,
    losses: Vec<f32>,
}

impl DdiModule {
    /// Trains DDIGCN on a signed DDI graph. Explicit no-interaction edges
    /// are sampled automatically when the graph does not already contain
    /// them (Section IV-A1).
    pub fn train(
        graph: &SignedGraph,
        config: &DdiModuleConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, CoreError> {
        let n = graph.node_count();
        if n == 0 {
            return Err(CoreError::invalid_input("DDI graph has no drugs"));
        }
        // Ensure the training edge set contains explicit non-interactions.
        let mut graph = graph.clone();
        let real = graph.synergistic_count() + graph.antagonistic_count();
        let explicit_none = graph.edge_count() - real;
        let wanted_none = config.negative_edges.unwrap_or(real);
        if explicit_none < wanted_none {
            graph.sample_no_interaction_edges(wanted_none - explicit_none, rng);
        }
        let ctx = SignedGraphContext::new(&graph)?;
        if ctx.labelled_edges.is_empty() {
            return Err(CoreError::invalid_input(
                "DDI graph has no edges to regress on",
            ));
        }

        let mut params = ParamSet::new();
        let net = BackboneNet::build(
            config.backbone,
            n,
            config.hidden_dim,
            config.layers,
            &mut params,
            rng,
        )?;

        let edge_u: Vec<usize> = ctx.labelled_edges.iter().map(|&(u, _, _)| u).collect();
        let edge_v: Vec<usize> = ctx.labelled_edges.iter().map(|&(_, v, _)| v).collect();
        let labels = Matrix::from_vec(
            ctx.labelled_edges.len(),
            1,
            ctx.labelled_edges.iter().map(|&(_, _, l)| l).collect(),
        )?;

        let mut optimizer = Adam::new(config.learning_rate);
        let mut losses = Vec::with_capacity(config.epochs);
        // The one-hot identity features are built exactly once and shared
        // with every epoch's tape (an `n x n` matrix used to be cloned per
        // epoch and again for the final extraction pass).
        let one_hot = Rc::new(init::one_hot_ids(n));
        for _ in 0..config.epochs {
            let mut tape = Tape::new();
            let mut binder = Binder::new();
            let x = tape.constant_shared(Rc::clone(&one_hot));
            let z = net.forward(&mut tape, &params, &mut binder, &ctx, x)?;
            let zu = tape.select_rows(z, &edge_u)?;
            let zv = tape.select_rows(z, &edge_v)?;
            let prod = tape.mul(zu, zv)?;
            let scores = tape.sum_cols(prod);
            let loss = tape.mse_loss(scores, &labels)?;
            tape.backward(loss)?;
            let grads = binder.grads(&tape, &params);
            optimizer.step(&mut params, &grads)?;
            losses.push(tape.value(loss).get(0, 0));
        }

        // One more pass of the same taped forward extracts the learned
        // embeddings; it runs once per fit, so it needs no tape-free twin.
        let mut tape = Tape::new();
        let mut binder = Binder::new();
        let x = tape.constant_shared(one_hot);
        let z = net.forward(&mut tape, &params, &mut binder, &ctx, x)?;
        let embeddings = tape.value(z).clone();

        Ok(Self { embeddings, losses })
    }

    /// The learned drug relation embeddings (`n_drugs x hidden_dim`).
    pub fn embeddings(&self) -> &Matrix {
        &self.embeddings
    }

    /// Per-epoch training loss trace.
    pub fn training_losses(&self) -> &[f32] {
        &self.losses
    }

    /// Predicted interaction score for a drug pair (inner product of the
    /// learned embeddings, Eq. 5): positive values lean synergistic,
    /// negative values antagonistic.
    pub fn interaction_score(&self, u: usize, v: usize) -> Option<f32> {
        if u >= self.embeddings.rows() || v >= self.embeddings.rows() {
            return None;
        }
        Some(self.embeddings.row_dot(u, &self.embeddings, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssddi_graph::Interaction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_ddi() -> SignedGraph {
        let mut g = SignedGraph::new(10);
        // Two synergy cliques and antagonism across them.
        for (u, v) in [(0, 1), (1, 2), (0, 2), (5, 6), (6, 7)] {
            g.add_interaction(u, v, Interaction::Synergistic).unwrap();
        }
        for (u, v) in [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9), (2, 5)] {
            g.add_interaction(u, v, Interaction::Antagonistic).unwrap();
        }
        g
    }

    fn quick(backbone: Backbone) -> DdiModuleConfig {
        DdiModuleConfig {
            hidden_dim: 8,
            layers: 2,
            epochs: 120,
            learning_rate: 0.01,
            backbone,
            negative_edges: Some(6),
        }
    }

    #[test]
    fn training_reduces_loss_for_every_backbone() {
        for backbone in Backbone::ALL {
            let mut rng = StdRng::seed_from_u64(0);
            let module = DdiModule::train(&toy_ddi(), &quick(backbone), &mut rng).unwrap();
            let losses = module.training_losses();
            let first = losses[..10.min(losses.len())].iter().sum::<f32>() / 10.0;
            let last = losses[losses.len().saturating_sub(10)..]
                .iter()
                .sum::<f32>()
                / 10.0;
            assert!(
                last < first,
                "{}: loss did not decrease ({first} -> {last})",
                backbone.name()
            );
            assert_eq!(module.embeddings().shape(), (10, 8));
            assert!(module.embeddings().all_finite());
        }
    }

    #[test]
    fn synergistic_pairs_score_above_antagonistic_pairs() {
        let mut rng = StdRng::seed_from_u64(1);
        let module = DdiModule::train(&toy_ddi(), &quick(Backbone::Sgcn), &mut rng).unwrap();
        let syn = module.interaction_score(0, 1).unwrap();
        let ant = module.interaction_score(0, 5).unwrap();
        assert!(
            syn > ant,
            "synergy score {syn} should exceed antagonism score {ant}"
        );
    }

    #[test]
    fn odd_hidden_dim_is_rejected_for_sign_concatenating_backbones() {
        let mut rng = StdRng::seed_from_u64(2);
        let bad = DdiModuleConfig {
            hidden_dim: 7,
            backbone: Backbone::Sgcn,
            ..quick(Backbone::Sgcn)
        };
        assert!(DdiModule::train(&toy_ddi(), &bad, &mut rng).is_err());
        let bad2 = DdiModuleConfig {
            hidden_dim: 7,
            backbone: Backbone::Sigat,
            ..quick(Backbone::Sigat)
        };
        assert!(DdiModule::train(&toy_ddi(), &bad2, &mut rng).is_err());
        // GIN accepts odd dimensions.
        let ok = DdiModuleConfig {
            hidden_dim: 7,
            epochs: 5,
            backbone: Backbone::Gin,
            ..quick(Backbone::Gin)
        };
        assert!(DdiModule::train(&toy_ddi(), &ok, &mut rng).is_ok());
    }

    #[test]
    fn empty_graph_is_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let empty = SignedGraph::new(0);
        assert!(DdiModule::train(&empty, &quick(Backbone::Gin), &mut rng).is_err());
    }

    #[test]
    fn interaction_score_bounds_check() {
        let mut rng = StdRng::seed_from_u64(4);
        let module = DdiModule::train(&toy_ddi(), &quick(Backbone::Gin), &mut rng).unwrap();
        assert!(module.interaction_score(0, 99).is_none());
        assert!(module.interaction_score(0, 1).is_some());
    }
}
