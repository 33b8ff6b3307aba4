//! Shared fixtures for the Criterion benchmarks.
//!
//! The benchmarks cover the computational kernels behind every table and
//! figure of the paper: the Medical Support graph algorithms (truss
//! decomposition, Steiner trees, closest truss community), DDIGCN / MDGCN
//! training epochs, counterfactual link construction, the scoring
//! pipelines of the experiment tables, model persistence and the dense
//! matrix kernels. Serving cost through the gateway is measured by the
//! open-loop benchmark (`bash perfbench/run.sh`), not by these benches.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dssddi_core::{DecisionService, ServiceBuilder};
use dssddi_data::{
    generate_chronic_cohort, generate_ddi_graph, ChronicCohort, ChronicConfig, DdiConfig,
    DrugRegistry,
};
use dssddi_graph::SignedGraph;
use dssddi_tensor::Matrix;

/// A small but realistic benchmark world: the 86-drug formulary, the
/// paper-sized DDI graph and a cohort of `n_patients` synthetic patients.
pub struct BenchWorld {
    /// Drug formulary.
    pub registry: DrugRegistry,
    /// Signed DDI graph (97 + 243 interactions).
    pub ddi: SignedGraph,
    /// Synthetic chronic cohort.
    pub cohort: ChronicCohort,
    /// Random drug features standing in for the KG embeddings.
    pub drug_features: Matrix,
}

impl BenchWorld {
    /// Builds the benchmark world deterministically.
    pub fn new(n_patients: usize, seed: u64) -> Self {
        let registry = DrugRegistry::standard();
        let mut rng = StdRng::seed_from_u64(seed);
        let ddi =
            generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).expect("DDI generation");
        let cohort = generate_chronic_cohort(
            &registry,
            &ddi,
            &ChronicConfig {
                n_patients,
                ..Default::default()
            },
            &mut rng,
        )
        .expect("cohort generation");
        let drug_features = Matrix::rand_uniform(registry.len(), 32, -0.1, 0.1, &mut rng);
        Self {
            registry,
            ddi,
            cohort,
            drug_features,
        }
    }

    /// Fits a small but realistic [`DecisionService`] on the first
    /// `n_observed` patients of the world — the fixture of the persistence
    /// bench.
    pub fn fitted_service(&self, n_observed: usize, seed: u64) -> DecisionService {
        let observed: Vec<usize> = (0..n_observed.min(self.cohort.n_patients())).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        ServiceBuilder::fast()
            .hidden_dim(16)
            .epochs(25, 30)
            .fit_chronic(
                &self.cohort,
                &observed,
                &self.drug_features,
                &self.ddi,
                &mut rng,
            )
            .expect("service fitting")
    }
}
