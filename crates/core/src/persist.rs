//! Shared helpers for persisting DSSDDI state: configurations, signed
//! graphs and k-means models, written with the byte reader and writer of
//! [`dssddi_tensor::serde`] into the `DSSD` container payload.
//!
//! Every reader validates what it decodes and returns a
//! [`SerdeError`](dssddi_tensor::serde::SerdeError) (surfaced as
//! [`CoreError::Persistence`](crate::CoreError::Persistence)) on truncated,
//! corrupt or inconsistent input — loading never panics. Each block starts
//! with a one-byte section tag so misaligned reads fail with a clear error
//! instead of silently decoding garbage that happens to type-check.

use dssddi_graph::{CtcConfig, Interaction, SignedGraph};
use dssddi_ml::KMeans;
use dssddi_tensor::serde::{ByteReader, ByteWriter, SerdeError};

use crate::config::{
    Backbone, DdiModuleConfig, DrugFeatureSource, DssddiConfig, MdModuleConfig, MsModuleConfig,
};

/// Section tags marking the start of each persisted block.
pub(crate) mod section {
    pub const CONFIG: u8 = 0xC0;
    pub const SIGNED_GRAPH: u8 = 0xC1;
    pub const KMEANS: u8 = 0xC2;
    pub const MD_MODULE: u8 = 0xC4;
    pub const ENGINE: u8 = 0xC5;
    pub const SERVICE: u8 = 0xC6;
}

/// Writes a section tag.
pub(crate) fn put_section(w: &mut ByteWriter, tag: u8) {
    w.put_u8(tag);
}

/// Reads and checks a section tag.
pub(crate) fn expect_section(
    r: &mut ByteReader<'_>,
    tag: u8,
    what: &'static str,
) -> Result<(), SerdeError> {
    let found = r.take_u8(what)?;
    if found != tag {
        return Err(SerdeError::Corrupt {
            what: format!("{what}: expected section tag {tag:#04x}, found {found:#04x}"),
        });
    }
    Ok(())
}

fn backbone_tag(b: Backbone) -> u8 {
    match b {
        Backbone::Gin => 0,
        Backbone::Sgcn => 1,
        Backbone::Sigat => 2,
        Backbone::Snea => 3,
    }
}

fn read_backbone(r: &mut ByteReader<'_>) -> Result<Backbone, SerdeError> {
    match r.take_u8("config.backbone")? {
        0 => Ok(Backbone::Gin),
        1 => Ok(Backbone::Sgcn),
        2 => Ok(Backbone::Sigat),
        3 => Ok(Backbone::Snea),
        other => Err(SerdeError::Corrupt {
            what: format!("unknown backbone tag {other}"),
        }),
    }
}

fn write_ddi_config(w: &mut ByteWriter, c: &DdiModuleConfig) {
    w.put_usize(c.hidden_dim);
    w.put_usize(c.layers);
    w.put_usize(c.epochs);
    w.put_f32(c.learning_rate);
    w.put_u8(backbone_tag(c.backbone));
    match c.negative_edges {
        Some(n) => {
            w.put_bool(true);
            w.put_usize(n);
        }
        None => w.put_bool(false),
    }
}

fn read_ddi_config(r: &mut ByteReader<'_>) -> Result<DdiModuleConfig, SerdeError> {
    Ok(DdiModuleConfig {
        hidden_dim: r.take_usize("ddi_config.hidden_dim")?,
        layers: r.take_usize("ddi_config.layers")?,
        epochs: r.take_usize("ddi_config.epochs")?,
        learning_rate: r.take_f32("ddi_config.learning_rate")?,
        backbone: read_backbone(r)?,
        negative_edges: if r.take_bool("ddi_config.negative_edges")? {
            Some(r.take_usize("ddi_config.negative_edges")?)
        } else {
            None
        },
    })
}

fn write_md_config(w: &mut ByteWriter, c: &MdModuleConfig) {
    w.put_usize(c.hidden_dim);
    w.put_usize(c.propagation_layers);
    w.put_usize(c.epochs);
    w.put_f32(c.learning_rate);
    w.put_f32(c.delta);
    w.put_bool(c.use_counterfactual);
    w.put_bool(c.use_ddi_embeddings);
    w.put_u8(match c.drug_features {
        DrugFeatureSource::KnowledgeGraph => 0,
        DrugFeatureSource::OneHot => 1,
    });
    w.put_usize(c.n_clusters);
    w.put_f32(c.gamma_patient);
    w.put_f32(c.gamma_drug);
    w.put_usize(c.negatives_per_positive);
}

fn read_md_config(r: &mut ByteReader<'_>) -> Result<MdModuleConfig, SerdeError> {
    Ok(MdModuleConfig {
        hidden_dim: r.take_usize("md_config.hidden_dim")?,
        propagation_layers: r.take_usize("md_config.propagation_layers")?,
        epochs: r.take_usize("md_config.epochs")?,
        learning_rate: r.take_f32("md_config.learning_rate")?,
        delta: r.take_f32("md_config.delta")?,
        use_counterfactual: r.take_bool("md_config.use_counterfactual")?,
        use_ddi_embeddings: r.take_bool("md_config.use_ddi_embeddings")?,
        drug_features: match r.take_u8("md_config.drug_features")? {
            0 => DrugFeatureSource::KnowledgeGraph,
            1 => DrugFeatureSource::OneHot,
            other => {
                return Err(SerdeError::Corrupt {
                    what: format!("unknown drug feature source tag {other}"),
                })
            }
        },
        n_clusters: r.take_usize("md_config.n_clusters")?,
        gamma_patient: r.take_f32("md_config.gamma_patient")?,
        gamma_drug: r.take_f32("md_config.gamma_drug")?,
        negatives_per_positive: r.take_usize("md_config.negatives_per_positive")?,
    })
}

fn write_ms_config(w: &mut ByteWriter, c: &MsModuleConfig) {
    w.put_f64(c.alpha);
    w.put_usize(c.ctc.expansion_size);
    w.put_usize(c.ctc.max_shrink_iterations);
}

fn read_ms_config(r: &mut ByteReader<'_>) -> Result<MsModuleConfig, SerdeError> {
    Ok(MsModuleConfig {
        alpha: r.take_f64("ms_config.alpha")?,
        ctc: CtcConfig {
            expansion_size: r.take_usize("ms_config.ctc.expansion_size")?,
            max_shrink_iterations: r.take_usize("ms_config.ctc.max_shrink_iterations")?,
        },
    })
}

/// Writes a full [`DssddiConfig`].
pub(crate) fn write_config(w: &mut ByteWriter, c: &DssddiConfig) {
    put_section(w, section::CONFIG);
    write_ddi_config(w, &c.ddi);
    write_md_config(w, &c.md);
    write_ms_config(w, &c.ms);
}

/// Reads a full [`DssddiConfig`].
pub(crate) fn read_config(r: &mut ByteReader<'_>) -> Result<DssddiConfig, SerdeError> {
    expect_section(r, section::CONFIG, "config")?;
    Ok(DssddiConfig {
        ddi: read_ddi_config(r)?,
        md: read_md_config(r)?,
        ms: read_ms_config(r)?,
    })
}

fn interaction_tag(i: Interaction) -> u8 {
    match i {
        Interaction::Synergistic => 0,
        Interaction::Antagonistic => 1,
        Interaction::None => 2,
    }
}

/// Writes a [`SignedGraph`] as node count plus signed edge list.
pub(crate) fn write_signed_graph(w: &mut ByteWriter, g: &SignedGraph) {
    put_section(w, section::SIGNED_GRAPH);
    w.put_usize(g.node_count());
    w.put_usize(g.edge_count());
    for (u, v, i) in g.interactions() {
        w.put_usize(u);
        w.put_usize(v);
        w.put_u8(interaction_tag(i));
    }
}

/// Reads a [`SignedGraph`]; out-of-range endpoints or self loops surface as
/// corrupt-input errors.
pub(crate) fn read_signed_graph(r: &mut ByteReader<'_>) -> Result<SignedGraph, SerdeError> {
    expect_section(r, section::SIGNED_GRAPH, "signed_graph")?;
    let n = r.take_usize("signed_graph.nodes")?;
    let edges = r.take_usize("signed_graph.edges")?;
    // Each edge occupies at least 17 bytes; reject absurd counts up front.
    if edges.checked_mul(17).is_none_or(|b| b > r.remaining()) {
        return Err(SerdeError::Truncated {
            what: "signed_graph.edges",
        });
    }
    let mut g = SignedGraph::new(n);
    for _ in 0..edges {
        let u = r.take_usize("signed_graph.edge.u")?;
        let v = r.take_usize("signed_graph.edge.v")?;
        let interaction = match r.take_u8("signed_graph.edge.sign")? {
            0 => Interaction::Synergistic,
            1 => Interaction::Antagonistic,
            2 => Interaction::None,
            other => {
                return Err(SerdeError::Corrupt {
                    what: format!("unknown interaction tag {other}"),
                })
            }
        };
        g.add_interaction(u, v, interaction)
            .map_err(|e| SerdeError::Corrupt {
                what: format!("signed graph edge ({u}, {v}) is invalid: {e}"),
            })?;
    }
    Ok(g)
}

/// Writes a fitted [`KMeans`] model.
pub(crate) fn write_kmeans(w: &mut ByteWriter, km: &KMeans) {
    put_section(w, section::KMEANS);
    w.put_matrix(km.centroids());
    w.put_usize_slice(km.assignments());
    w.put_f32(km.inertia());
}

/// Reads a fitted [`KMeans`] model, re-validating it through
/// [`KMeans::from_parts`].
pub(crate) fn read_kmeans(r: &mut ByteReader<'_>) -> Result<KMeans, SerdeError> {
    expect_section(r, section::KMEANS, "kmeans")?;
    let centroids = r.take_matrix("kmeans.centroids")?;
    let assignments = r.take_usize_vec("kmeans.assignments")?;
    let inertia = r.take_f32("kmeans.inertia")?;
    KMeans::from_parts(centroids, assignments, inertia).map_err(|e| SerdeError::Corrupt {
        what: format!("persisted k-means model is inconsistent: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trip_preserves_every_field() {
        let mut config = DssddiConfig::fast();
        config.ddi.backbone = Backbone::Sigat;
        config.ddi.negative_edges = Some(12);
        config.md.drug_features = DrugFeatureSource::OneHot;
        config.md.use_counterfactual = false;
        config.ms.alpha = 0.25;
        config.ms.ctc.expansion_size = 17;

        let mut w = ByteWriter::new();
        write_config(&mut w, &config);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = read_config(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.ddi.backbone, Backbone::Sigat);
        assert_eq!(back.ddi.negative_edges, Some(12));
        assert_eq!(back.ddi.hidden_dim, config.ddi.hidden_dim);
        assert_eq!(back.md.drug_features, DrugFeatureSource::OneHot);
        assert!(!back.md.use_counterfactual);
        assert_eq!(back.md.n_clusters, config.md.n_clusters);
        assert_eq!(back.ms.alpha, 0.25);
        assert_eq!(back.ms.ctc.expansion_size, 17);
    }

    #[test]
    fn signed_graph_round_trip_and_corruption_detection() {
        let mut g = SignedGraph::new(6);
        g.add_interaction(0, 1, Interaction::Synergistic).unwrap();
        g.add_interaction(2, 3, Interaction::Antagonistic).unwrap();
        g.add_interaction(4, 5, Interaction::None).unwrap();

        let mut w = ByteWriter::new();
        write_signed_graph(&mut w, &g);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = read_signed_graph(&mut r).unwrap();
        assert_eq!(back.node_count(), 6);
        assert_eq!(back.edge_count(), 3);
        assert_eq!(back.interaction(0, 1), Some(Interaction::Synergistic));
        assert_eq!(back.interaction(2, 3), Some(Interaction::Antagonistic));
        assert_eq!(back.interaction(4, 5), Some(Interaction::None));

        // Truncation at every prefix errors instead of panicking.
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(read_signed_graph(&mut r).is_err(), "cut at {cut}");
        }
        // A wrong section tag is caught immediately.
        let mut wrong = bytes.clone();
        wrong[0] = section::KMEANS;
        assert!(read_signed_graph(&mut ByteReader::new(&wrong)).is_err());
    }
}
