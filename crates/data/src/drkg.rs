//! Synthetic Drug Repurposing Knowledge Graph (DRKG) and TransE embeddings.
//!
//! The paper initialises the MD module's drug features with 400-dimensional
//! TransE embeddings pre-trained on DRKG (Section II-B) and uses them as an
//! ablation baseline ("KG" row of Table II). DRKG is an external artifact,
//! so this module builds a small heterogeneous knowledge graph from the drug
//! registry (drug–treats–disease, drug–targets–gene, disease–associated–gene,
//! drug–same-class–drug triples) and trains TransE from scratch with margin
//! ranking loss and negative sampling to produce pre-trained drug embeddings
//! of configurable dimension.

use rand::Rng;

use dssddi_tensor::Matrix;

use crate::drugs::DrugRegistry;
use crate::DataError;

/// Relations of the synthetic knowledge graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// Drug treats disease.
    Treats,
    /// Drug targets gene.
    Targets,
    /// Disease is associated with gene.
    AssociatedWith,
    /// Two drugs share a pharmacological class.
    SameClass,
}

impl Relation {
    /// Dense relation index.
    pub fn index(self) -> usize {
        match self {
            Relation::Treats => 0,
            Relation::Targets => 1,
            Relation::AssociatedWith => 2,
            Relation::SameClass => 3,
        }
    }

    /// Number of relation types.
    pub const COUNT: usize = 4;
}

/// A `(head, relation, tail)` triple over dense entity indices.
pub type Triple = (usize, Relation, usize);

/// Configuration of the synthetic knowledge graph and TransE training.
#[derive(Debug, Clone)]
pub struct DrkgConfig {
    /// Number of synthetic gene entities.
    pub n_genes: usize,
    /// Embedding dimension (the paper uses 400; 64 is the default here to
    /// keep experiments fast — the ablation only needs "externally
    /// pre-trained, relation-agnostic" embeddings).
    pub dim: usize,
    /// Training epochs over the triple set.
    pub epochs: usize,
    /// Learning rate of the TransE SGD updates.
    pub learning_rate: f32,
    /// Margin of the ranking loss.
    pub margin: f32,
}

impl Default for DrkgConfig {
    fn default() -> Self {
        Self {
            n_genes: 60,
            dim: 64,
            epochs: 50,
            learning_rate: 0.05,
            margin: 1.0,
        }
    }
}

/// The synthetic knowledge graph: entity layout and triples.
#[derive(Debug, Clone)]
pub struct KnowledgeGraph {
    /// Number of drug entities (occupying indices `0..n_drugs`).
    pub n_drugs: usize,
    /// Number of disease entities (following the drugs).
    pub n_diseases: usize,
    /// Number of gene entities (following the diseases).
    pub n_genes: usize,
    /// All triples.
    pub triples: Vec<Triple>,
}

impl KnowledgeGraph {
    /// Total number of entities.
    pub fn n_entities(&self) -> usize {
        self.n_drugs + self.n_diseases + self.n_genes
    }
}

/// Builds the synthetic knowledge graph from the drug registry.
pub fn build_knowledge_graph(
    registry: &DrugRegistry,
    config: &DrkgConfig,
    rng: &mut impl Rng,
) -> KnowledgeGraph {
    let n_drugs = registry.len();
    let n_diseases = crate::drugs::Disease::ALL.len();
    let n_genes = config.n_genes;
    let mut triples = Vec::new();

    // Drug-treats-disease triples straight from the registry.
    for drug in registry.iter() {
        for &disease in &drug.treats {
            triples.push((drug.id, Relation::Treats, n_drugs + disease.index()));
        }
    }
    // Same-class triples connect drugs within a pharmacological class.
    for a in registry.iter() {
        for b in registry.iter() {
            if a.id < b.id && a.class == b.class {
                triples.push((a.id, Relation::SameClass, b.id));
            }
        }
    }
    // Drug-targets-gene: each class targets a coherent block of genes,
    // with a little noise, so the gene layer adds class-level signal.
    for drug in registry.iter() {
        let class_seed = drug.class as usize;
        for k in 0..3 {
            let gene = (class_seed * 3 + k) % n_genes.max(1);
            triples.push((drug.id, Relation::Targets, n_drugs + n_diseases + gene));
        }
        if rng.gen_bool(0.5) {
            let gene = rng.gen_range(0..n_genes.max(1));
            triples.push((drug.id, Relation::Targets, n_drugs + n_diseases + gene));
        }
    }
    // Disease-associated-gene triples.
    for d in 0..n_diseases {
        for _ in 0..4 {
            let gene = rng.gen_range(0..n_genes.max(1));
            triples.push((
                n_drugs + d,
                Relation::AssociatedWith,
                n_drugs + n_diseases + gene,
            ));
        }
    }
    KnowledgeGraph {
        n_drugs,
        n_diseases,
        n_genes,
        triples,
    }
}

/// TransE embeddings for every entity and relation of a knowledge graph.
#[derive(Debug, Clone)]
pub struct TransEModel {
    entity: Matrix,
    relation: Matrix,
}

impl TransEModel {
    /// Embedding of an entity.
    pub fn entity_embedding(&self, e: usize) -> &[f32] {
        self.entity.row(e)
    }

    /// TransE plausibility score of a triple (negative L2 distance; larger
    /// means more plausible).
    pub fn score(&self, (h, r, t): Triple) -> f32 {
        let mut dist = 0.0f32;
        for d in 0..self.entity.cols() {
            let diff =
                self.entity.get(h, d) + self.relation.get(r.index(), d) - self.entity.get(t, d);
            dist += diff * diff;
        }
        -dist.sqrt()
    }
}

/// Trains TransE with margin ranking loss and uniform negative sampling.
pub fn train_transe(
    kg: &KnowledgeGraph,
    config: &DrkgConfig,
    rng: &mut impl Rng,
) -> Result<TransEModel, DataError> {
    if kg.triples.is_empty() {
        return Err(DataError::InvalidConfig {
            what: "knowledge graph has no triples",
        });
    }
    if config.dim == 0 {
        return Err(DataError::InvalidConfig {
            what: "embedding dimension must be positive",
        });
    }
    let n_e = kg.n_entities();
    let dim = config.dim;
    let bound = 6.0 / (dim as f32).sqrt();
    let mut entity = Matrix::rand_uniform(n_e, dim, -bound, bound, rng);
    let mut relation = Matrix::rand_uniform(Relation::COUNT, dim, -bound, bound, rng);
    normalize_rows(&mut relation);

    for _ in 0..config.epochs {
        normalize_rows(&mut entity);
        for &(h, r, t) in &kg.triples {
            // Corrupt head or tail uniformly.
            let corrupt_head = rng.gen_bool(0.5);
            let corrupted = rng.gen_range(0..n_e);
            let (nh, nt) = if corrupt_head {
                (corrupted, t)
            } else {
                (h, corrupted)
            };

            let pos = l2_parts(&entity, &relation, h, r.index(), t);
            let neg = l2_parts(&entity, &relation, nh, r.index(), nt);
            let loss = config.margin + pos.0 - neg.0;
            if loss <= 0.0 {
                continue;
            }
            // Gradient of ||h + r - t||_2 w.r.t. h is (h + r - t)/dist.
            let lr = config.learning_rate;
            for d in 0..dim {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "`pos.1` and `neg.1` hold `dim` entries"
                )]
                let gp = pos.1[d] / pos.0.max(1e-6);
                #[expect(
                    clippy::indexing_slicing,
                    reason = "`pos.1` and `neg.1` hold `dim` entries"
                )]
                let gn = neg.1[d] / neg.0.max(1e-6);
                // Positive triple: decrease distance.
                entity.add_at(h, d, -lr * gp);
                entity.add_at(t, d, lr * gp);
                relation.add_at(r.index(), d, -lr * gp);
                // Negative triple: increase distance.
                entity.add_at(nh, d, lr * gn);
                entity.add_at(nt, d, -lr * gn);
                relation.add_at(r.index(), d, lr * gn);
            }
        }
    }
    normalize_rows(&mut entity);
    Ok(TransEModel { entity, relation })
}

/// Convenience wrapper: builds the knowledge graph, trains TransE and
/// returns the pre-trained embeddings of the drugs only (the "KG" features
/// of Table II).
pub fn pretrained_drug_embeddings(
    registry: &DrugRegistry,
    config: &DrkgConfig,
    rng: &mut impl Rng,
) -> Result<Matrix, DataError> {
    let kg = build_knowledge_graph(registry, config, rng);
    let model = train_transe(&kg, config, rng)?;
    let mut out = Matrix::zeros(registry.len(), config.dim);
    for drug in 0..registry.len() {
        out.row_mut(drug)
            .copy_from_slice(model.entity_embedding(drug));
    }
    Ok(out)
}

fn normalize_rows(m: &mut Matrix) {
    for r in 0..m.rows() {
        let norm = m.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 1e-9 {
            for v in m.row_mut(r) {
                *v /= norm;
            }
        }
    }
}

/// Returns `(||h + r - t||, h + r - t)` for gradient computation.
#[expect(clippy::indexing_slicing, reason = "`diff` holds `dim` entries")]
fn l2_parts(entity: &Matrix, relation: &Matrix, h: usize, r: usize, t: usize) -> (f32, Vec<f32>) {
    let dim = entity.cols();
    let mut diff = vec![0.0f32; dim];
    let mut sq = 0.0f32;
    for d in 0..dim {
        let v = entity.get(h, d) + relation.get(r, d) - entity.get(t, d);
        diff[d] = v;
        sq += v * v;
    }
    (sq.sqrt(), diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drugs::Disease;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_config() -> DrkgConfig {
        DrkgConfig {
            dim: 16,
            epochs: 15,
            ..Default::default()
        }
    }

    #[test]
    fn knowledge_graph_covers_all_drugs_and_diseases() {
        let registry = DrugRegistry::standard();
        let mut rng = StdRng::seed_from_u64(0);
        let kg = build_knowledge_graph(&registry, &quick_config(), &mut rng);
        assert_eq!(kg.n_drugs, 86);
        assert_eq!(kg.n_diseases, Disease::ALL.len());
        assert!(kg.triples.len() > 300);
        assert!(kg.n_entities() > 86 + 16);
        // Every drug appears as the head of at least one Treats triple.
        for drug in 0..kg.n_drugs {
            assert!(kg
                .triples
                .iter()
                .any(|&(h, r, _)| h == drug && r == Relation::Treats));
        }
    }

    #[test]
    fn transe_training_separates_true_from_corrupted_triples() {
        let registry = DrugRegistry::standard();
        let mut rng = StdRng::seed_from_u64(1);
        let kg = build_knowledge_graph(&registry, &quick_config(), &mut rng);
        let model = train_transe(&kg, &quick_config(), &mut rng).unwrap();
        // On average, true triples must score higher than random corruptions.
        let mut better = 0usize;
        let mut total = 0usize;
        for &(h, r, t) in kg.triples.iter().take(200) {
            let fake_t = (t + 7) % kg.n_entities();
            if fake_t == t {
                continue;
            }
            total += 1;
            if model.score((h, r, t)) > model.score((h, r, fake_t)) {
                better += 1;
            }
        }
        let rate = better as f64 / total as f64;
        assert!(
            rate > 0.7,
            "TransE separates only {rate:.2} of corrupted triples"
        );
    }

    #[test]
    fn drug_embeddings_have_requested_shape_and_are_normalised() {
        let registry = DrugRegistry::standard();
        let mut rng = StdRng::seed_from_u64(2);
        let emb = pretrained_drug_embeddings(&registry, &quick_config(), &mut rng).unwrap();
        assert_eq!(emb.shape(), (86, 16));
        assert!(emb.all_finite());
        for r in 0..emb.rows() {
            let norm: f32 = emb.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-3, "row {r} norm {norm}");
        }
    }

    #[test]
    fn same_class_drugs_embed_closer_than_random_pairs() {
        let registry = DrugRegistry::standard();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = DrkgConfig {
            dim: 24,
            epochs: 40,
            ..Default::default()
        };
        let emb = pretrained_drug_embeddings(&registry, &cfg, &mut rng).unwrap();
        // Statins (46, 47, 49, 50, 51) vs a cross-class pair.
        let statin_sim = emb.row_cosine(46, &emb, 47);
        let cross_sim = emb.row_cosine(46, &emb, 61); // statin vs gabapentin
        assert!(
            statin_sim > cross_sim,
            "statin pair similarity {statin_sim} not above cross-class {cross_sim}"
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let registry = DrugRegistry::standard();
        let mut rng = StdRng::seed_from_u64(4);
        let kg = build_knowledge_graph(&registry, &quick_config(), &mut rng);
        let zero_dim = DrkgConfig {
            dim: 0,
            ..Default::default()
        };
        assert!(train_transe(&kg, &zero_dim, &mut rng).is_err());
        let empty = KnowledgeGraph {
            n_drugs: 0,
            n_diseases: 0,
            n_genes: 0,
            triples: vec![],
        };
        assert!(train_transe(&empty, &quick_config(), &mut rng).is_err());
    }
}
