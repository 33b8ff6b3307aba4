//! Configuration of the three DSSDDI modules.
//!
//! Defaults follow Section V-A3 of the paper: hidden size 64, 3 DDIGCN
//! layers trained for 400 epochs with Adam at learning rate 0.001, 2 MDGCN
//! propagation layers trained for 1000 epochs with Adam at learning rate
//! 0.01, layer-combination weights β_t = 1/(t+2), counterfactual loss weight
//! δ = 1, and SS balance α = 0.5.

use dssddi_graph::CtcConfig;

/// GNN backbone of DDIGCN (Table I compares the four variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backbone {
    /// Graph Isomorphism Network (used on MIMIC-III, where only antagonistic
    /// interactions are available).
    Gin,
    /// Signed GCN — the best-performing backbone on the chronic data set.
    Sgcn,
    /// Signed graph attention (SiGAT).
    Sigat,
    /// Signed network embedding via attention (SNEA).
    Snea,
}

impl Backbone {
    /// Human-readable name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Backbone::Gin => "GIN",
            Backbone::Sgcn => "SGCN",
            Backbone::Sigat => "SiGAT",
            Backbone::Snea => "SNEA",
        }
    }

    /// All backbones in the order of Table I.
    pub const ALL: [Backbone; 4] = [
        Backbone::Sigat,
        Backbone::Snea,
        Backbone::Gin,
        Backbone::Sgcn,
    ];
}

/// Configuration of the DDI module (DDIGCN).
#[derive(Debug, Clone)]
pub struct DdiModuleConfig {
    /// Output embedding dimension (64 in the paper). Must be even for the
    /// SGCN and SiGAT backbones, whose outputs are sign-wise concatenations,
    /// and equal to [`MdModuleConfig::hidden_dim`] while
    /// [`MdModuleConfig::use_ddi_embeddings`] is on.
    pub hidden_dim: usize,
    /// Number of graph convolution layers (3 in the paper).
    pub layers: usize,
    /// Training epochs (400 in the paper).
    pub epochs: usize,
    /// Adam learning rate (0.001 in the paper).
    pub learning_rate: f32,
    /// Backbone architecture.
    pub backbone: Backbone,
    /// Number of explicit "no interaction" edges to sample for training.
    /// `None` samples as many as there are real interactions.
    pub negative_edges: Option<usize>,
}

impl Default for DdiModuleConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 64,
            layers: 3,
            epochs: 400,
            learning_rate: 0.001,
            backbone: Backbone::Sgcn,
            negative_edges: None,
        }
    }
}

/// Which initial drug features the MD module uses (the Table II ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrugFeatureSource {
    /// Pre-trained knowledge-graph (TransE/DRKG) embeddings — the paper's default.
    KnowledgeGraph,
    /// One-hot drug identities.
    OneHot,
}

/// Configuration of the Medical Decision module (MDGCN + counterfactuals).
#[derive(Debug, Clone)]
pub struct MdModuleConfig {
    /// Hidden dimension shared by patients and drugs (64 in the paper).
    pub hidden_dim: usize,
    /// Number of LightGCN-style propagation layers (2 in the paper).
    pub propagation_layers: usize,
    /// Training epochs (1000 in the paper; experiments may lower this).
    pub epochs: usize,
    /// Adam learning rate (0.01 in the paper).
    pub learning_rate: f32,
    /// Weight δ of the counterfactual loss (1.0 in the paper).
    pub delta: f32,
    /// Whether counterfactual links are constructed and trained on at all
    /// (disabling this removes the causal component).
    pub use_counterfactual: bool,
    /// Whether the DDI relation embeddings are added to the final drug
    /// representations ("w/o DDI" ablation of Table II sets this to false).
    pub use_ddi_embeddings: bool,
    /// Initial drug feature source (Table II ablation).
    pub drug_features: DrugFeatureSource,
    /// Number of K-means patient clusters used to define the treatment
    /// (the paper sets it to the number of chronic diseases).
    pub n_clusters: usize,
    /// Maximum feature distance γ_p for two patients to count as similar in
    /// the counterfactual nearest-neighbour search.
    pub gamma_patient: f32,
    /// Maximum feature distance γ_d for two drugs to count as similar.
    pub gamma_drug: f32,
    /// Negative patient–drug pairs sampled per observed link (1 in the paper).
    pub negatives_per_positive: usize,
}

impl Default for MdModuleConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 64,
            propagation_layers: 2,
            epochs: 200,
            learning_rate: 0.01,
            delta: 1.0,
            use_counterfactual: true,
            use_ddi_embeddings: true,
            drug_features: DrugFeatureSource::KnowledgeGraph,
            n_clusters: 16,
            gamma_patient: 2.0,
            gamma_drug: 2.0,
            negatives_per_positive: 1,
        }
    }
}

/// Configuration of the Medical Support module.
#[derive(Debug, Clone)]
pub struct MsModuleConfig {
    /// Balance α between internal synergy and external antagonism in the
    /// Suggestion Satisfaction measure (Eq. 19).
    pub alpha: f64,
    /// Closest-truss-community search parameters.
    pub ctc: CtcConfig,
}

impl Default for MsModuleConfig {
    fn default() -> Self {
        Self {
            alpha: 0.5,
            ctc: CtcConfig::default(),
        }
    }
}

/// Top-level configuration of the decision support system.
#[derive(Debug, Clone, Default)]
pub struct DssddiConfig {
    /// DDI module (DDIGCN) configuration.
    pub ddi: DdiModuleConfig,
    /// Medical Decision module configuration.
    pub md: MdModuleConfig,
    /// Medical Support module configuration.
    pub ms: MsModuleConfig,
}

impl DssddiConfig {
    /// A configuration scaled down for fast tests and examples: smaller
    /// hidden sizes and far fewer epochs, same structure.
    pub fn fast() -> Self {
        Self {
            ddi: DdiModuleConfig {
                hidden_dim: 16,
                layers: 2,
                epochs: 60,
                ..Default::default()
            },
            md: MdModuleConfig {
                hidden_dim: 16,
                epochs: 60,
                ..Default::default()
            },
            ms: MsModuleConfig::default(),
        }
    }

    /// The paper's full configuration (slow: 400 + 1000 epochs).
    pub fn paper() -> Self {
        Self {
            ddi: DdiModuleConfig {
                epochs: 400,
                ..Default::default()
            },
            md: MdModuleConfig {
                epochs: 1000,
                ..Default::default()
            },
            ms: MsModuleConfig::default(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = DssddiConfig::default();
        assert_eq!(c.ddi.hidden_dim, 64);
        assert_eq!(c.ddi.layers, 3);
        assert!((c.ddi.learning_rate - 0.001).abs() < 1e-9);
        assert_eq!(c.md.propagation_layers, 2);
        assert!((c.md.learning_rate - 0.01).abs() < 1e-9);
        assert!((c.md.delta - 1.0).abs() < 1e-9);
        assert!((c.ms.alpha - 0.5).abs() < 1e-12);
        assert_eq!(c.ddi.backbone, Backbone::Sgcn);
    }

    #[test]
    fn fast_config_is_smaller_than_paper_config() {
        let fast = DssddiConfig::fast();
        let paper = DssddiConfig::paper();
        assert!(fast.ddi.epochs < paper.ddi.epochs);
        assert!(fast.md.epochs < paper.md.epochs);
        assert!(fast.ddi.hidden_dim < paper.ddi.hidden_dim);
    }

    #[test]
    fn backbone_names_and_order() {
        assert_eq!(Backbone::Sgcn.name(), "SGCN");
        assert_eq!(Backbone::ALL.len(), 4);
        assert_eq!(Backbone::ALL[3], Backbone::Sgcn);
    }
}
