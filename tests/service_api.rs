//! Integration tests for the typed service API surface as seen through the
//! `dssddi` facade prelude: builder validation, identifier round-trips,
//! filter semantics and prescription critique.

use dssddi::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ddi_world(seed: u64) -> (DrugRegistry, SignedGraph) {
    let registry = DrugRegistry::standard();
    let mut rng = StdRng::seed_from_u64(seed);
    let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
    (registry, ddi)
}

#[test]
fn builder_validation_errors_are_contextual() {
    let (_, ddi) = ddi_world(1);

    // Odd hidden dims are invalid for sign-concatenating backbones.
    let err = ServiceBuilder::fast()
        .backbone(Backbone::Sgcn)
        .hidden_dim(9)
        .build_support(&ddi)
        .unwrap_err();
    let message = err.to_string();
    assert!(
        message.contains('9') && message.contains("SGCN"),
        "uncontextual error: {message}"
    );

    // Zero epochs are caught before any training.
    assert!(ServiceBuilder::fast()
        .epochs(10, 0)
        .build_support(&ddi)
        .is_err());

    // α outside [0, 1] is rejected.
    assert!(ServiceBuilder::fast()
        .alpha(-0.1)
        .build_support(&ddi)
        .is_err());

    // A valid builder goes through.
    ServiceBuilder::fast()
        .backbone(Backbone::Gin)
        .hidden_dim(9)
        .build_support(&ddi)
        .unwrap();
}

#[test]
fn drug_ids_round_trip_through_the_registry() {
    let (registry, ddi) = ddi_world(2);
    let service = ServiceBuilder::fast().build_support(&ddi).unwrap();

    for drug in registry.iter() {
        // name -> id -> name round-trip for the whole formulary.
        let id = service.resolve_drug(&drug.name).unwrap();
        assert_eq!(id.index(), drug.id);
        assert_eq!(service.drug_name(id).unwrap(), drug.name);
        // Display form resolves too ("DID 48").
        assert_eq!(service.resolve_drug(&id.to_string()).unwrap(), id);
    }
    assert!(matches!(
        service.resolve_drug("definitely-not-a-drug"),
        Err(CoreError::UnknownDrug { .. })
    ));
}

#[test]
fn check_prescription_flags_known_adverse_pair_by_name() {
    let (_, ddi) = ddi_world(3);
    let service = ServiceBuilder::fast().build_support(&ddi).unwrap();

    // Metformin + Isosorbide Dinitrate is a Fig. 9 antagonistic case the
    // generator always includes.
    let report = service
        .check_prescription_with_kb(
            &CheckPrescriptionRequest::new(vec![
                service.resolve_drug("Metformin").unwrap(),
                service.resolve_drug("Isosorbide Dinitrate").unwrap(),
            ]),
            None,
        )
        .unwrap();
    assert!(!report.is_safe());
    assert_eq!(report.antagonistic.len(), 1);
    let pair = &report.antagonistic[0];
    assert_eq!(pair.a_name, "Metformin");
    assert_eq!(pair.b_name, "Isosorbide Dinitrate");
    assert_eq!(pair.interaction, Interaction::Antagonistic);

    // The synergistic Fig. 9 pair passes as safe.
    let safe = service
        .check_prescription_with_kb(
            &CheckPrescriptionRequest::new(vec![
                service.resolve_drug("Indapamide").unwrap(),
                service.resolve_drug("Perindopril").unwrap(),
            ]),
            None,
        )
        .unwrap();
    assert!(safe.is_safe());
    assert_eq!(safe.synergistic.len(), 1);
    assert!(safe.suggestion_satisfaction > 0.0);
}

#[test]
fn filter_semantics_on_a_fitted_service() {
    let registry = DrugRegistry::standard();
    let mut rng = StdRng::seed_from_u64(4);
    let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
    let cohort = generate_chronic_cohort(
        &registry,
        &ddi,
        &ChronicConfig {
            n_patients: 80,
            ..Default::default()
        },
        &mut rng,
    )
    .unwrap();
    let drug_features = Matrix::rand_uniform(registry.len(), 16, -0.1, 0.1, &mut rng);
    let observed: Vec<usize> = (0..60).collect();
    let service = ServiceBuilder::fast()
        .hidden_dim(16)
        .epochs(25, 30)
        .fit_chronic(&cohort, &observed, &drug_features, &ddi, &mut rng)
        .unwrap();

    let patient = 70;
    let features = cohort.features().row(patient).to_vec();
    let unfiltered = service
        .suggest_with_kb(
            &SuggestRequest::new(PatientId::new(patient), features.clone(), 5),
            None,
        )
        .unwrap();
    let banned: Vec<DrugId> = unfiltered.drugs[..2].iter().map(|d| d.id).collect();

    let filtered = service
        .suggest_with_kb(
            &SuggestRequest::new(PatientId::new(patient), features, 5).with_filters(
                SuggestFilters {
                    exclude: banned.clone(),
                    ..Default::default()
                },
            ),
            None,
        )
        .unwrap();
    for drug in &filtered.drugs {
        assert!(
            !banned.contains(&drug.id),
            "excluded drug {} was suggested",
            drug.name
        );
    }
    // Still k drugs, ranked descending, with names.
    assert_eq!(filtered.drugs.len(), 5);
    for pair in filtered.drugs.windows(2) {
        assert!(pair[0].score >= pair[1].score);
    }
}

#[test]
fn batch_and_single_suggestions_agree() {
    let registry = DrugRegistry::standard();
    let mut rng = StdRng::seed_from_u64(5);
    let ddi = generate_ddi_graph(&registry, &DdiConfig::default(), &mut rng).unwrap();
    let cohort = generate_chronic_cohort(
        &registry,
        &ddi,
        &ChronicConfig {
            n_patients: 70,
            ..Default::default()
        },
        &mut rng,
    )
    .unwrap();
    let drug_features = Matrix::rand_uniform(registry.len(), 16, -0.1, 0.1, &mut rng);
    let observed: Vec<usize> = (0..55).collect();
    let service = ServiceBuilder::fast()
        .hidden_dim(16)
        .epochs(25, 30)
        .fit_chronic(&cohort, &observed, &drug_features, &ddi, &mut rng)
        .unwrap();

    let requests: Vec<SuggestRequest> = (55..70)
        .map(|p| SuggestRequest::new(PatientId::new(p), cohort.features().row(p).to_vec(), 3))
        .collect();
    let batched = service.suggest_batch_with_kb(&requests, None).unwrap();
    for (request, from_batch) in requests.iter().zip(&batched) {
        let single = service.suggest_with_kb(request, None).unwrap();
        assert_eq!(
            from_batch.drugs.iter().map(|d| d.id).collect::<Vec<_>>(),
            single.drugs.iter().map(|d| d.id).collect::<Vec<_>>(),
        );
        assert_eq!(
            from_batch.suggestion_satisfaction,
            single.suggestion_satisfaction
        );
    }
    // Empty batches are a no-op, not an error.
    assert!(service.suggest_batch_with_kb(&[], None).unwrap().is_empty());
}
