//! # dssddi-gnn
//!
//! Graph neural network building blocks for the DSSDDI reproduction:
//!
//! * [`mlp`] — multi-layer perceptrons (the `f_Θ` blocks of DDIGCN / MDGCN),
//! * [`context`] — precomputed adjacency operators of a signed DDI graph,
//! * [`gin`] — Graph Isomorphism Network convolution (default backbone),
//! * [`sgcn`] — Signed GCN layer (best backbone on the chronic data set),
//! * [`attention`] — the SiGAT and SNEA attention backbones,
//! * [`lightgcn`] — LightGCN-style propagation used by the MDGCN encoder and
//!   the LightGCN baseline,
//! * [`gcn`] — a generic GCN layer used by the GCMC / Bipar-GCN baselines,
//! * [`sampling`] — 1:1 negative sampling over patient–drug links,
//! * [`infer`] — the one tape-free path, the decoder's `Mlp::infer` over
//!   scratch buffers for serving (bit-identical to the taped forward pass).

#![warn(missing_docs)]

pub mod attention;
pub mod context;
pub mod gcn;
pub mod gin;
pub mod infer;
pub mod lightgcn;
pub mod mlp;
pub mod sampling;
pub mod sgcn;

pub use attention::{SigatLayer, SneaLayer};
pub use context::SignedGraphContext;
pub use gcn::GcnLayer;
pub use gin::GinConv;
pub use lightgcn::{bipartite_adjacency, lightgcn_propagate, paper_layer_weights};
pub use mlp::{apply_activation, Activation, Mlp};
pub use sampling::{sample_link_batch, LinkBatch};
pub use sgcn::SgcnLayer;
