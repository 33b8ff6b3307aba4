//! Deterministic demo fixtures: a small trained gateway for examples, CI
//! smoke tests and `dssddi-serve --demo`.
//!
//! Server and client are separate processes, so they share fixtures by
//! *reconstruction*: both sides derive the same cohort from [`DEMO_SEED`],
//! which lets the client example send real held-out patient features to a
//! `--demo` server it has never exchanged training data with.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dssddi_core::{PatientId, ServiceBuilder, SuggestRequest};
use dssddi_data::{
    generate_chronic_cohort, generate_ddi_graph, ChronicCohort, ChronicConfig, DdiConfig,
    DrugRegistry,
};
use dssddi_tensor::Matrix;

use crate::router::{ModelCatalog, ModelKey};
use crate::ServingError;

/// Seed both sides of a demo derive their fixtures from.
pub const DEMO_SEED: u64 = 7;

/// Key of the fitted chronic-cohort shard in the demo catalog.
pub const DEMO_FITTED_KEY: &str = "chronic";

/// Key of the support-only (critique) shard in the demo catalog.
pub const DEMO_SUPPORT_KEY: &str = "critique";

/// Patients in the demo cohort; the tail beyond the observed split is
/// held out for querying.
const DEMO_PATIENTS: usize = 70;
const DEMO_OBSERVED: usize = 55;

/// The shared demo world: formulary, DDI graph and synthetic cohort.
pub struct DemoWorld {
    /// The standard 86-drug formulary.
    pub registry: DrugRegistry,
    /// The paper-sized signed DDI graph.
    pub ddi: dssddi_graph::SignedGraph,
    /// The synthetic chronic cohort.
    pub cohort: ChronicCohort,
    /// Random drug features standing in for the KG embeddings.
    pub drug_features: Matrix,
    /// Patients not seen in training — what the client example queries.
    pub held_out: Vec<usize>,
}

/// Builds the demo world deterministically from a seed.
pub fn demo_world(seed: u64) -> Result<DemoWorld, ServingError> {
    let registry = DrugRegistry::standard();
    let mut rng = StdRng::seed_from_u64(seed);
    let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng)
        .map_err(dssddi_core::CoreError::Data)?;
    let cohort = generate_chronic_cohort(
        &registry,
        &ddi,
        &ChronicConfig {
            n_patients: DEMO_PATIENTS,
            ..Default::default()
        },
        &mut rng,
    )
    .map_err(dssddi_core::CoreError::Data)?;
    let drug_features = Matrix::rand_uniform(registry.len(), 16, -0.1, 0.1, &mut rng);
    Ok(DemoWorld {
        registry,
        ddi,
        cohort,
        drug_features,
        held_out: (DEMO_OBSERVED..DEMO_PATIENTS).collect(),
    })
}

/// Trains the demo catalog: a fitted `chronic` shard and a support-only
/// `critique` shard over the same DDI graph. Deterministic in `seed`.
pub fn demo_catalog(seed: u64) -> Result<(ModelCatalog, DemoWorld), ServingError> {
    let world = demo_world(seed)?;
    let observed: Vec<usize> = (0..DEMO_OBSERVED).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let fitted = ServiceBuilder::fast()
        .hidden_dim(16)
        .epochs(25, 30)
        .fit_chronic(
            &world.cohort,
            &observed,
            &world.drug_features,
            &world.ddi,
            &mut rng,
        )?;
    let support = ServiceBuilder::fast().build_support(&world.ddi)?;
    let mut catalog = ModelCatalog::new();
    catalog.insert(ModelKey::new(DEMO_FITTED_KEY)?, fitted)?;
    catalog.insert(ModelKey::new(DEMO_SUPPORT_KEY)?, support)?;
    Ok((catalog, world))
}

/// Top-`k` suggestion requests for the first `n` held-out demo patients.
pub fn demo_requests(world: &DemoWorld, n: usize, k: usize) -> Vec<SuggestRequest> {
    world
        .held_out
        .iter()
        .take(n)
        .map(|&p| {
            SuggestRequest::new(
                PatientId::new(p),
                world.cohort.features().row(p).to_vec(),
                k,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_catalog_is_deterministic_and_two_sharded() {
        let (catalog, world) = demo_catalog(DEMO_SEED).unwrap();
        assert_eq!(catalog.len(), 2);
        let fitted_key = ModelKey::new(DEMO_FITTED_KEY).unwrap();
        let support_key = ModelKey::new(DEMO_SUPPORT_KEY).unwrap();
        assert!(catalog.service(&fitted_key).unwrap().is_fitted());
        assert!(!catalog.service(&support_key).unwrap().is_fitted());
        let requests = demo_requests(&world, 3, 3);
        assert_eq!(requests.len(), 3);
        // Rebuilding the world reproduces the same features bit for bit —
        // the property the out-of-process client example relies on.
        let again = demo_world(DEMO_SEED).unwrap();
        assert_eq!(
            world.cohort.features().data(),
            again.cohort.features().data()
        );
    }
}
