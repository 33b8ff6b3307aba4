//! Parallel batch serving must be observationally identical to serial
//! serving: responses in request order, every score bit-identical, every
//! ranking unchanged. The service is `Sync` by design, which is exactly
//! what sharded serving relies on.

use dssddi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The auto-sharding entry point matches one-at-a-time serving on a batch
/// large enough to engage multiple workers on multi-core hosts. (The
/// service's own tests compare every explicit shard count with the serial
/// path.)
#[test]
fn auto_sharded_batch_matches_serial() {
    let registry = DrugRegistry::standard();
    let mut rng = StdRng::seed_from_u64(41);
    let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
    let cohort = generate_chronic_cohort(
        &registry,
        &ddi,
        &ChronicConfig {
            n_patients: 90,
            ..Default::default()
        },
        &mut rng,
    )
    .unwrap();
    let drug_features = Matrix::rand_uniform(registry.len(), 16, -0.1, 0.1, &mut rng);
    let observed: Vec<usize> = (0..60).collect();
    let service = ServiceBuilder::fast()
        .hidden_dim(16)
        .epochs(20, 25)
        .fit_chronic(&cohort, &observed, &drug_features, &ddi, &mut rng)
        .unwrap();

    let requests: Vec<SuggestRequest> = (60..90)
        .cycle()
        .take(64)
        .map(|p| SuggestRequest::new(PatientId::new(p), cohort.features().row(p).to_vec(), 3))
        .collect();
    let auto = service.suggest_batch_with_kb(&requests, None).unwrap();
    assert_eq!(requests.len(), auto.len());
    for (request, b) in requests.iter().zip(&auto) {
        let a = service.suggest_with_kb(request, None).unwrap();
        assert_eq!(a.patient, b.patient);
        let sa: Vec<(usize, u32)> = a
            .drugs
            .iter()
            .map(|d| (d.id.index(), d.score.to_bits()))
            .collect();
        let sb: Vec<(usize, u32)> = b
            .drugs
            .iter()
            .map(|d| (d.id.index(), d.score.to_bits()))
            .collect();
        assert_eq!(sa, sb);
        assert_eq!(
            a.suggestion_satisfaction.to_bits(),
            b.suggestion_satisfaction.to_bits()
        );
    }
}
