//! Persistence integration tests: a service fitted in one process must be
//! savable, loadable against the same registry, and produce byte-identical
//! suggestion rankings and explanations for the same requests — while
//! corrupt, truncated or version-mismatched files produce typed
//! [`CoreError`]s, never panics.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;

use dssddi::core::{DSSD_FORMAT_VERSION, DSSD_MAGIC};
use dssddi::prelude::*;
use dssddi::tensor::serde::{open_frame, seal_frame};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A unique temp path per test so parallel tests never collide.
fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dssddi-save-load-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{name}-{}.dssd", std::process::id()))
}

struct World {
    registry: DrugRegistry,
    ddi: SignedGraph,
    cohort: ChronicCohort,
    drug_features: Matrix,
}

fn build_world(seed: u64) -> World {
    let registry = DrugRegistry::standard();
    let mut rng = StdRng::seed_from_u64(seed);
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
    World {
        registry,
        ddi,
        cohort,
        drug_features,
    }
}

fn fitted_service(world: &World, seed: u64) -> DecisionService {
    let mut rng = StdRng::seed_from_u64(seed);
    let observed: Vec<usize> = (0..60).collect();
    ServiceBuilder::fast()
        .hidden_dim(16)
        .epochs(25, 30)
        .fit_chronic(
            &world.cohort,
            &observed,
            &world.drug_features,
            &world.ddi,
            &mut rng,
        )
        .unwrap()
}

#[test]
fn reloaded_service_returns_identical_responses() {
    let world = build_world(11);
    let service = fitted_service(&world, 12);
    let path = temp_path("identical-responses");
    service.save(&path).unwrap();
    let reloaded = DecisionService::load(&path, DrugRegistry::standard()).unwrap();
    std::fs::remove_file(&path).ok();

    let requests: Vec<SuggestRequest> = (60..80)
        .map(|p| {
            SuggestRequest::new(
                PatientId::new(p),
                world.cohort.features().row(p).to_vec(),
                4,
            )
        })
        .collect();
    let original = service.suggest_batch_with_kb(&requests, None).unwrap();
    let restored = reloaded.suggest_batch_with_kb(&requests, None).unwrap();
    assert_eq!(original.len(), restored.len());
    for (a, b) in original.iter().zip(&restored) {
        assert_eq!(a.patient, b.patient);
        // Rankings are byte-identical: same drugs, same order, same bits.
        let ids_a: Vec<_> = a.drugs.iter().map(|d| d.id).collect();
        let ids_b: Vec<_> = b.drugs.iter().map(|d| d.id).collect();
        assert_eq!(ids_a, ids_b);
        for (da, db) in a.drugs.iter().zip(&b.drugs) {
            assert_eq!(da.score.to_bits(), db.score.to_bits());
            assert_eq!(da.name, db.name);
        }
        // Explanations agree structurally and numerically.
        assert_eq!(a.explanation.community.nodes, b.explanation.community.nodes);
        assert_eq!(a.explanation.edges, b.explanation.edges);
        assert_eq!(
            a.suggestion_satisfaction.to_bits(),
            b.suggestion_satisfaction.to_bits()
        );
    }

    // Raw score matrices agree bit-for-bit as well.
    let features = world
        .cohort
        .features()
        .select_rows(&(60..80).collect::<Vec<_>>());
    let s1 = service.predict_scores(&features).unwrap();
    let s2 = reloaded.predict_scores(&features).unwrap();
    let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&s1), bits(&s2));
}

#[test]
fn embedded_registry_load_matches_registry_backed_load() {
    // A serving host that only receives the DSSD file can reconstruct the
    // registry from the embedded name list and still serve byte-identical
    // suggestions — this is what the dssddi-serve gateway relies on.
    let world = build_world(41);
    let service = fitted_service(&world, 42);
    let path = temp_path("embedded-registry");
    service.save(&path).unwrap();
    let embedded = DecisionService::load_with_embedded_registry(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(embedded.registry().len(), service.registry().len());
    assert_eq!(embedded.registry().digest(), service.registry().digest());
    assert_eq!(embedded.registry().names(), service.registry().names());
    assert!(embedded.is_fitted());
    assert_eq!(embedded.n_features(), service.n_features());

    let requests: Vec<SuggestRequest> = (60..70)
        .map(|p| {
            SuggestRequest::new(
                PatientId::new(p),
                world.cohort.features().row(p).to_vec(),
                4,
            )
        })
        .collect();
    let original = service.suggest_batch_with_kb(&requests, None).unwrap();
    let restored = embedded.suggest_batch_with_kb(&requests, None).unwrap();
    for (a, b) in original.iter().zip(&restored) {
        assert_eq!(a, b, "embedded-registry load must serve identically");
        for (da, db) in a.drugs.iter().zip(&b.drugs) {
            assert_eq!(da.score.to_bits(), db.score.to_bits());
        }
    }
    assert!(matches!(
        DecisionService::load_with_embedded_registry(temp_path("no-such-file")),
        Err(CoreError::Persistence { .. })
    ));
}

#[test]
fn support_only_service_round_trips() {
    let world = build_world(21);
    let service = ServiceBuilder::fast().build_support(&world.ddi).unwrap();
    let path = temp_path("support-only");
    service.save(&path).unwrap();
    let reloaded = DecisionService::load(&path, world.registry.clone()).unwrap();
    std::fs::remove_file(&path).ok();

    let request = CheckPrescriptionRequest::new(vec![DrugId::new(61), DrugId::new(59)]);
    let a = service.check_prescription_with_kb(&request, None).unwrap();
    let b = reloaded.check_prescription_with_kb(&request, None).unwrap();
    assert_eq!(a.is_safe(), b.is_safe());
    assert_eq!(a.antagonistic, b.antagonistic);
    assert_eq!(
        a.suggestion_satisfaction.to_bits(),
        b.suggestion_satisfaction.to_bits()
    );
    // A support-only service still refuses to suggest after reload.
    let suggest = SuggestRequest::new(PatientId::new(0), vec![0.0; 4], 2);
    assert!(matches!(
        reloaded.suggest_with_kb(&suggest, None),
        Err(CoreError::NotFitted { .. })
    ));
}

#[test]
fn corrupt_truncated_and_mismatched_files_error_without_panics() {
    let world = build_world(31);
    let service = fitted_service(&world, 32);
    let path = temp_path("corruption");
    service.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();

    // Truncation at a spread of prefixes: always a typed error.
    for cut in [0, 3, 4, 13, 14, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(
            matches!(
                DecisionService::load(&path, DrugRegistry::standard()),
                Err(CoreError::Persistence { .. })
            ),
            "truncation at {cut} must be a persistence error"
        );
    }

    // A flipped payload byte fails the checksum.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x20;
    std::fs::write(&path, &corrupt).unwrap();
    assert!(matches!(
        DecisionService::load(&path, DrugRegistry::standard()),
        Err(CoreError::Persistence { .. })
    ));

    // A bumped format version is refused with a typed error, and so is the
    // current payload resealed as version 1, whose layout stored the DDI
    // graph and the configuration twice, or as version 2, whose engine also
    // stored the trained DDI module.
    let mut wrong_version = bytes.clone();
    wrong_version[4] = 0xEE;
    let (_, payload) = open_frame(DSSD_MAGIC, &[DSSD_FORMAT_VERSION], &bytes).unwrap();
    let as_version_1 = seal_frame(DSSD_MAGIC, 1, payload);
    let as_version_2 = seal_frame(DSSD_MAGIC, 2, payload);
    for (wrong_version, named) in [
        (wrong_version, &["version"][..]),
        (as_version_1, &["version 1", "version 3"][..]),
        (as_version_2, &["version 2", "version 3"][..]),
    ] {
        std::fs::write(&path, &wrong_version).unwrap();
        match DecisionService::load(&path, DrugRegistry::standard()) {
            Err(CoreError::Persistence { what }) => assert!(
                named.iter().all(|n| what.contains(n)),
                "uncontextual error: {what}"
            ),
            other => panic!("expected Persistence error, got {other:?}"),
        }
    }

    // A missing file is an I/O persistence error, not a panic.
    std::fs::remove_file(&path).ok();
    assert!(matches!(
        DecisionService::load(&path, DrugRegistry::standard()),
        Err(CoreError::Persistence { .. })
    ));
}
