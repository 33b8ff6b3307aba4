//! Hot-reload coverage: a gateway shard's knowledge base and model are
//! swapped *under live concurrent traffic* with zero dropped or failed
//! requests, serving counters survive the swap, and foreign or damaged
//! reload artifacts are typed errors that leave the shard serving.
//!
//! This closes the ROADMAP's "hot model reload/swap under a live key"
//! follow-up: the loopback test below reloads mid-traffic and asserts no
//! request errors on any connection.

// Tests and examples may panic freely; the workspace-level panic-policy
// denies target library and binary code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dssddi_core::{
    CheckPrescriptionRequest, CoreError, DecisionService, DrugId, ServiceBuilder, SuggestFilters,
    SuggestRequest, DSSD_FORMAT_VERSION, DSSD_MAGIC,
};
use dssddi_kb::{EvidenceLevel, KbFact, KnowledgeBase, Severity};
use dssddi_serving::demo::{
    demo_catalog, demo_requests, DemoWorld, DEMO_FITTED_KEY, DEMO_SEED, DEMO_SUPPORT_KEY,
};
use dssddi_serving::{
    Client, ErrorCode, ModelCatalog, ModelKey, Request, Response, Router, Server, ServingError,
    SyncArtifact, WireError,
};
use dssddi_tensor::serde::{open_frame, seal_frame};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn spawn_server(
    catalog: ModelCatalog,
) -> (
    SocketAddr,
    std::thread::JoinHandle<Result<(), ServingError>>,
) {
    let server = Server::bind("127.0.0.1:0", Router::new(catalog)).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// Trains a second fitted service over the same demo world (same formulary,
/// different training seed) — the "re-trained model" a reload ships.
fn retrained_service_bytes(world: &DemoWorld) -> Vec<u8> {
    retrained_with(world, ServiceBuilder::fast())
}

/// [`retrained_service_bytes`], configured from `builder`.
fn retrained_with(world: &DemoWorld, builder: ServiceBuilder) -> Vec<u8> {
    let observed: Vec<usize> = (0..55).collect();
    let mut rng = StdRng::seed_from_u64(DEMO_SEED ^ 0xdead);
    let retrained = builder
        .hidden_dim(16)
        .epochs(25, 30)
        .fit_chronic(
            &world.cohort,
            &observed,
            &world.drug_features,
            &world.ddi,
            &mut rng,
        )
        .expect("retrain");
    let dir = std::env::temp_dir().join("dssddi-reload-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("retrained-{}.dssd", std::process::id()));
    retrained.save(&path).expect("save retrained");
    let bytes = std::fs::read(&path).expect("read retrained");
    std::fs::remove_file(&path).ok();
    bytes
}

/// Offsets in a `DSSD` payload of every signed DDI graph section over the
/// 86-drug formulary: the `0xC1` section tag followed by the node count 86
/// as a little-endian `u64`.
fn graph_sections(payload: &[u8]) -> Vec<usize> {
    let mut header = vec![0xC1];
    header.extend_from_slice(&86u64.to_le_bytes());
    payload
        .windows(header.len())
        .enumerate()
        .filter(|(_, window)| *window == header.as_slice())
        .map(|(at, _)| at)
        .collect()
}

/// `container` resealed with its one DDI graph section declaring `nodes`
/// nodes instead of 86.
fn with_graph_node_count(container: &[u8], nodes: u64) -> Vec<u8> {
    let (_, payload) =
        open_frame(DSSD_MAGIC, &[DSSD_FORMAT_VERSION], container).expect("valid container");
    let mut payload = payload.to_vec();
    let sections = graph_sections(&payload);
    assert_eq!(sections.len(), 1, "one graph section");
    let at = sections[0] + 1;
    payload[at..at + 8].copy_from_slice(&nodes.to_le_bytes());
    seal_frame(DSSD_MAGIC, DSSD_FORMAT_VERSION, &payload)
}

/// Graph node counts a sender may put in a resealed container: one past the
/// formulary, 2^32, and one whose per-node allocation overflows.
const FOREIGN_NODE_COUNTS: [u64; 3] = [87, 1 << 32, u64::MAX / 2];

#[test]
fn kb_and_model_hot_reload_under_concurrent_traffic() {
    let (catalog, world) = demo_catalog(DEMO_SEED).expect("demo catalog");
    let key = ModelKey::new("chronic").expect("key");
    let retrained_bytes = retrained_service_bytes(&world);

    // The updated KB an operator ships: the Fig. 8 pair becomes a
    // contraindication with a management hint.
    let mut new_kb =
        KnowledgeBase::from_ddi_graph(&world.ddi, &world.registry).expect("kb from graph");
    new_kb
        .upsert(
            61,
            59,
            KbFact {
                severity: Severity::Contraindicated,
                evidence: EvidenceLevel::Established,
                mechanism: "nitrate potentiation".to_string(),
                management: "do not combine".to_string(),
            },
        )
        .expect("upsert");
    let new_kb_bytes = new_kb.to_container_bytes();
    let old_kb_version = 1; // graph-seeded KB

    let (addr, handle) = spawn_server(catalog);

    // Concurrent clinical traffic: every worker alternates suggestions and
    // prescription checks on its own connection until told to stop, and
    // fails the test on the first error it sees.
    let stop = Arc::new(AtomicBool::new(false));
    let requests = demo_requests(&world, 4, 3);
    let check = CheckPrescriptionRequest::new(vec![DrugId::new(61), DrugId::new(59)]);
    let workers: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let key = key.clone();
            let requests = requests.clone();
            let check = check.clone();
            std::thread::spawn(move || -> Result<u64, String> {
                let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                let mut served = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    client
                        .suggest_batch(&key, &requests)
                        .map_err(|e| format!("suggest_batch during reload: {e}"))?;
                    client
                        .check_prescription(&key, &check)
                        .map_err(|e| format!("check_prescription during reload: {e}"))?;
                    served += requests.len() as u64 + 1;
                }
                Ok(served)
            })
        })
        .collect();

    let mut ops = Client::connect(addr).expect("ops client");
    // Let traffic flow before the first swap.
    std::thread::sleep(Duration::from_millis(150));
    let stats_before = ops.stats().expect("stats before reload");
    let before = &stats_before
        .iter()
        .find(|(k, _)| k == &key)
        .expect("chronic stats")
        .1;
    assert!(before.requests > 0, "traffic must be flowing before reload");

    // --- KB hot reload mid-traffic --------------------------------------
    let kb_info = ops.reload_kb(&key, &new_kb_bytes).expect("reload kb");
    assert_eq!(kb_info.version, new_kb.version());
    assert!(kb_info.version > old_kb_version);
    assert_eq!(
        kb_info.facts_by_severity[Severity::Contraindicated.to_u8() as usize],
        1
    );

    // New critiques immediately see the upgraded grade and hint.
    let graded = ops.check_prescription(&key, &check).expect("graded check");
    assert_eq!(graded.kb_version, Some(new_kb.version()));
    assert!(graded.has_contraindicated());
    assert_eq!(
        graded.antagonistic[0].management.as_deref(),
        Some("do not combine")
    );

    // --- Model hot swap mid-traffic -------------------------------------
    std::thread::sleep(Duration::from_millis(100));
    let info = ops
        .reload_model(&key, &retrained_bytes)
        .expect("reload model");
    assert!(info.fitted);
    assert_eq!(info.registry_digest, world.registry.digest());
    assert_eq!(
        info.kb_version,
        new_kb.version(),
        "the paired KB survives a model swap"
    );

    // The swapped-in model serves bit-identically to loading the same
    // artifact in-process.
    let reloaded_reference =
        dssddi_core::DecisionService::load_with_embedded_registry_bytes(&retrained_bytes)
            .expect("reference reload");
    let local = reloaded_reference
        .suggest_batch_with_kb(&requests, None)
        .expect("local batch");
    let remote = ops.suggest_batch(&key, &requests).expect("remote batch");
    assert_eq!(local.len(), remote.len());
    for (a, b) in local.iter().zip(&remote) {
        assert_eq!(a, b, "post-swap responses differ from the artifact");
        for (da, db) in a.drugs.iter().zip(&b.drugs) {
            assert_eq!(da.score.to_bits(), db.score.to_bits());
        }
    }

    // Let the workers hammer the swapped shard a little longer, then stop.
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::SeqCst);
    let mut total_served = 0u64;
    for worker in workers {
        total_served += worker
            .join()
            .expect("worker must not panic")
            .expect("zero failed requests across both reloads");
    }
    assert!(
        total_served > 0,
        "workers must actually have served traffic"
    );

    // Serving counters survived both swaps: the totals kept growing and
    // no error was recorded for the clinical traffic.
    let stats_after = ops.stats().expect("stats after reload");
    let after = &stats_after
        .iter()
        .find(|(k, _)| k == &key)
        .expect("chronic stats")
        .1;
    assert!(
        after.requests > before.requests,
        "stats reset across reload: {} -> {}",
        before.requests,
        after.requests
    );
    assert_eq!(after.errors, 0, "breakdown: {:?}", after.errors_by_code);

    ops.shutdown().expect("clean shutdown");
    handle.join().expect("no panic").expect("clean exit");
}

#[test]
fn foreign_or_damaged_reload_artifacts_are_typed_errors() {
    let (catalog, world) = demo_catalog(DEMO_SEED).expect("demo catalog");
    let key = ModelKey::new("chronic").expect("key");
    let dssd = catalog.service(&key).expect("model").to_container_bytes();
    let dskb = catalog.kb(&key).expect("kb").to_container_bytes();
    let support_key = ModelKey::new(DEMO_SUPPORT_KEY).expect("key");
    let support_dssd = catalog
        .service(&support_key)
        .expect("model")
        .to_container_bytes();
    let (addr, handle) = spawn_server(catalog);
    let mut client = Client::connect(addr).expect("connect");

    // Damaged DSKB bytes: typed Persistence error.
    match client.reload_kb(&key, b"not a DSKB container") {
        Err(ServingError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Persistence),
        other => panic!("expected Remote Persistence, got {other:?}"),
    }
    // A KB over a foreign formulary: typed Persistence error.
    let foreign_registry =
        dssddi_data::DrugRegistry::from_names(vec!["A".to_string(), "B".to_string()])
            .expect("registry");
    let foreign_kb = KnowledgeBase::new(&foreign_registry);
    match client.reload_kb(&key, &foreign_kb.to_container_bytes()) {
        Err(ServingError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::Persistence);
            assert!(message.contains("digest"), "got: {message}");
        }
        other => panic!("expected Remote Persistence, got {other:?}"),
    }
    // Damaged DSSD bytes: typed Persistence error.
    match client.reload_model(&key, b"not a DSSD container") {
        Err(ServingError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Persistence),
        other => panic!("expected Remote Persistence, got {other:?}"),
    }
    // A valid container of the other artifact: the error names the magic
    // the reload expects and the one it found.
    for (reply, expected, found) in [
        (client.reload_kb(&key, &dssd).map(drop), "DSKB", "DSSD"),
        (client.reload_model(&key, &dskb).map(drop), "DSSD", "DSKB"),
    ] {
        match reply {
            Err(ServingError::Remote { code, message }) => {
                assert_eq!(code, ErrorCode::Persistence);
                let named = format!("expected {expected:?}, found {found:?}");
                assert!(message.contains(&named), "got: {message}");
            }
            other => panic!("expected Remote Persistence, got {other:?}"),
        }
    }
    // A resealed container whose DDI graph declares a node count other than
    // the formulary's: typed Persistence error, on either shard.
    for (shard, container) in [(&key, &dssd), (&support_key, &support_dssd)] {
        for nodes in FOREIGN_NODE_COUNTS {
            match client.reload_model(shard, &with_graph_node_count(container, nodes)) {
                Err(ServingError::Remote { code, message }) => {
                    assert_eq!(code, ErrorCode::Persistence);
                    assert!(
                        message.contains(&format!("{nodes} nodes")),
                        "got: {message}"
                    );
                }
                other => panic!("expected Remote Persistence, got {other:?}"),
            }
        }
    }
    // Unknown shard: typed UnknownModel error.
    match client.kb_info(&ModelKey::new("nope").expect("key")) {
        Err(ServingError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownModel),
        other => panic!("expected Remote UnknownModel, got {other:?}"),
    }

    // After all the rejected reloads both shards still serve, on the KB they
    // started with.
    for shard in [&key, &support_key] {
        let report = client
            .check_prescription(
                shard,
                &CheckPrescriptionRequest::new(vec![DrugId::new(61), DrugId::new(59)]),
            )
            .expect("shard still serves");
        assert_eq!(report.kb_version, Some(1));
    }
    drop(world);

    client.shutdown().expect("clean shutdown");
    handle.join().expect("no panic").expect("clean exit");
}

/// A resealed container passes the CRC, so a model whose weights hold a NaN
/// must be refused by the loader itself, and the shard keeps serving the
/// model it had.
#[test]
fn a_model_with_a_nan_weight_is_refused_and_the_shard_keeps_serving() {
    let (catalog, world) = demo_catalog(DEMO_SEED).expect("demo catalog");
    let key = ModelKey::new(DEMO_FITTED_KEY).expect("key");
    let service = catalog.service(&key).expect("fitted shard");
    let container = service.to_container_bytes();
    let repr = service.md_module().expect("fitted").drug_representations();
    let pattern: Vec<u8> = repr.data().iter().flat_map(|v| v.to_le_bytes()).collect();
    let (_, payload) =
        open_frame(DSSD_MAGIC, &[DSSD_FORMAT_VERSION], &container).expect("valid container");
    let mut payload = payload.to_vec();
    let found: Vec<usize> = payload
        .windows(pattern.len())
        .enumerate()
        .filter(|(_, window)| *window == pattern.as_slice())
        .map(|(at, _)| at)
        .collect();
    assert_eq!(found.len(), 1, "the drug representations occur once");
    let at = found[0] + 4 * repr.cols(); // the second drug's first entry
    payload[at..at + 4].copy_from_slice(&f32::NAN.to_le_bytes());
    let poisoned = seal_frame(DSSD_MAGIC, DSSD_FORMAT_VERSION, &payload);

    match DecisionService::load_with_embedded_registry_bytes(&poisoned) {
        Err(CoreError::Persistence { what }) => {
            assert!(what.contains("drug_repr"), "uncontextual error: {what}")
        }
        other => panic!("expected a Persistence error, got {other:?}"),
    }

    let router = Router::new(catalog);
    let batch = Request::SuggestBatch {
        model: key.clone(),
        requests: demo_requests(&world, 16, 3),
    };
    let before = router.serve(&batch);
    assert!(matches!(before, Response::SuggestBatch(_)), "{before:?}");
    match router.serve(&Request::ReloadModel {
        model: key,
        container: poisoned,
    }) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Persistence),
        other => panic!("expected a Persistence error frame, got {other:?}"),
    }
    assert_eq!(router.serve(&batch), before);
}

/// The graph's node count comes off the wire: a load must compare it with
/// the registry before the explanation index, or anything else, allocates
/// per node.
#[test]
fn a_graph_node_count_other_than_the_formulary_is_refused_before_it_sizes_anything() {
    let (catalog, _world) = demo_catalog(DEMO_SEED).expect("demo catalog");
    for shard in [DEMO_SUPPORT_KEY, DEMO_FITTED_KEY] {
        let key = ModelKey::new(shard).expect("key");
        let container = catalog.service(&key).expect("shard").to_container_bytes();
        for nodes in FOREIGN_NODE_COUNTS {
            let resealed = with_graph_node_count(&container, nodes);
            match DecisionService::load_with_embedded_registry_bytes(&resealed) {
                Err(CoreError::Persistence { what }) => assert!(
                    what.contains(&format!("{nodes} nodes")) && what.contains("86 drugs"),
                    "{shard} with {nodes} nodes: {what}"
                ),
                other => panic!("{shard} with {nodes} nodes: expected Persistence, got {other:?}"),
            }
        }
    }
}

/// The fitted container stores the DDI graph once, at the service level, as
/// the support-only container does.
#[test]
fn the_fitted_container_holds_the_ddi_graph_section_once() {
    let (catalog, world) = demo_catalog(DEMO_SEED).expect("demo catalog");
    let payload_of = |shard: &str| {
        let key = ModelKey::new(shard).expect("key");
        let container = catalog.service(&key).expect("shard").to_container_bytes();
        let (_, payload) =
            open_frame(DSSD_MAGIC, &[DSSD_FORMAT_VERSION], &container).expect("valid container");
        payload.to_vec()
    };
    let support = payload_of(DEMO_SUPPORT_KEY);
    let fitted = payload_of(DEMO_FITTED_KEY);
    // Tag, node count and edge count, then 17 bytes per signed edge.
    let at = graph_sections(&support)[0];
    let section = &support[at..at + 17 + 17 * world.ddi.edge_count()];
    let copies = |payload: &[u8]| {
        payload
            .windows(section.len())
            .filter(|window| *window == section)
            .count()
    };
    assert_eq!(copies(&support), 1);
    assert_eq!(copies(&fitted), 1, "the fitted container repeats the graph");
}

#[test]
fn in_process_replace_validates_keys_and_formularies() {
    let (catalog, world) = demo_catalog(DEMO_SEED).expect("demo catalog");
    let key = ModelKey::new("chronic").expect("key");
    let missing = ModelKey::new("missing").expect("key");

    // Unknown keys are typed errors.
    let kb = KnowledgeBase::from_ddi_graph(&world.ddi, &world.registry)
        .expect("kb")
        .to_container_bytes();
    assert!(matches!(
        catalog.install(&missing, SyncArtifact::Kb, &kb, None),
        Err(ServingError::UnknownModel { .. })
    ));
    // A foreign formulary is refused with a typed mismatch.
    let foreign_registry =
        dssddi_data::DrugRegistry::from_names(vec!["A".to_string(), "B".to_string()])
            .expect("registry");
    let foreign = KnowledgeBase::new(&foreign_registry).to_container_bytes();
    assert!(matches!(
        catalog.install(&key, SyncArtifact::Kb, &foreign, None),
        Err(ServingError::FormularyMismatch { .. })
    ));
    // A matching KB swaps in (install is `&self`: no exclusive catalog
    // access needed, which is what lets the gateway do this live).
    assert!(catalog
        .install(&key, SyncArtifact::Kb, &kb, None)
        .expect("swap kb"));
    assert_eq!(catalog.kb(&key).expect("kb").version(), 1);
}

/// A suggestion whose drug set any model must pick: every drug but three
/// is excluded.
fn pinned_suggestion(world: &DemoWorld) -> SuggestRequest {
    let keep = [59, 60, 61];
    let exclude = (0..world.registry.len())
        .filter(|d| !keep.contains(d))
        .map(DrugId::new)
        .collect();
    let mut request = demo_requests(world, 1, 3).remove(0);
    request.filters = SuggestFilters {
        exclude,
        ..SuggestFilters::none()
    };
    request
}

/// The `(cache_hits, cache_misses)` a shard's `Stats` entry reports.
fn cache_counts(router: &Router, key: &ModelKey) -> (u64, u64) {
    match router.serve(&Request::Stats) {
        Response::Stats(report) => {
            let (_, stats) = report
                .models
                .iter()
                .find(|(k, _)| k == key)
                .expect("shard stats");
            (stats.cache_hits, stats.cache_misses)
        }
        other => panic!("expected Stats, got {other:?}"),
    }
}

/// Serves the pinned suggestion, reloads the fitted shard with `container`,
/// serves it again, and returns both answers.
fn suggest_around_a_reload(
    router: &Router,
    world: &DemoWorld,
    container: &[u8],
) -> (Response, Response) {
    let key = ModelKey::new(DEMO_FITTED_KEY).expect("key");
    let suggest = Request::Suggest {
        model: key.clone(),
        request: pinned_suggestion(world),
    };
    let before = router.serve(&suggest);
    assert!(matches!(before, Response::Suggest(_)), "{before:?}");
    assert_eq!(cache_counts(router, &key), (0, 1), "a cold memo misses");
    let reloaded = router.serve(&Request::ReloadModel {
        model: key.clone(),
        container: container.to_vec(),
    });
    assert!(
        matches!(reloaded, Response::ModelReloaded(_)),
        "{reloaded:?}"
    );
    assert_eq!(
        cache_counts(router, &key),
        (0, 0),
        "the counts are the new service's"
    );
    (before, router.serve(&suggest))
}

/// What `container` answers to the pinned suggestion when loaded alone.
fn served_cold(container: &[u8], world: &DemoWorld) -> Response {
    let service = DecisionService::load_with_embedded_registry_bytes(container).expect("load");
    Response::Suggest(
        service
            .suggest_with_kb(&pinned_suggestion(world), None)
            .expect("suggest"),
    )
}

#[test]
fn a_model_reloaded_over_the_same_graph_keeps_the_explanation_memo() {
    let (catalog, world) = demo_catalog(DEMO_SEED).expect("demo catalog");
    let key = ModelKey::new(DEMO_FITTED_KEY).expect("key");
    let engine = Arc::clone(catalog.service(&key).expect("shard").explanation_engine());
    let router = Router::new(catalog);
    let retrained = retrained_service_bytes(&world);
    let (before, after) = suggest_around_a_reload(&router, &world, &retrained);
    assert_eq!(
        cache_counts(&router, &key),
        (1, 0),
        "the repeated suggestion must be answered from the kept memo"
    );
    let service = router.catalog().service(&key).expect("shard");
    assert!(Arc::ptr_eq(service.explanation_engine(), &engine));
    // The kept memo answers exactly what the new model explains cold.
    assert_eq!(after, served_cold(&retrained, &world));
    let explanation = |response: &Response| match response {
        Response::Suggest(answer) => answer.explanation.clone(),
        other => panic!("expected Suggest, got {other:?}"),
    };
    assert_eq!(explanation(&after), explanation(&before));
}

#[test]
fn a_model_reloaded_with_another_alpha_gets_a_fresh_engine() {
    let (catalog, world) = demo_catalog(DEMO_SEED).expect("demo catalog");
    let key = ModelKey::new(DEMO_FITTED_KEY).expect("key");
    let engine = Arc::clone(catalog.service(&key).expect("shard").explanation_engine());
    let router = Router::new(catalog);
    let retrained = retrained_with(&world, ServiceBuilder::fast().alpha(0.3));
    let (before, after) = suggest_around_a_reload(&router, &world, &retrained);
    assert_eq!(
        cache_counts(&router, &key),
        (0, 1),
        "another α must not be answered from the old memo"
    );
    let service = router.catalog().service(&key).expect("shard");
    assert!(!Arc::ptr_eq(service.explanation_engine(), &engine));
    assert_eq!(after, served_cold(&retrained, &world));
    let ss = |response: &Response| match response {
        Response::Suggest(answer) => answer.suggestion_satisfaction,
        other => panic!("expected Suggest, got {other:?}"),
    };
    assert_ne!(ss(&after), ss(&before), "α moved the SS of the same set");
}

#[test]
fn shards_over_one_graph_share_one_explanation_engine() {
    let (catalog, _world) = demo_catalog(DEMO_SEED).expect("demo catalog");
    let keys = [DEMO_FITTED_KEY, DEMO_SUPPORT_KEY].map(|k| ModelKey::new(k).expect("key"));
    let [fitted, support] = keys
        .clone()
        .map(|key| catalog.service(&key).expect("shard"));
    assert!(Arc::ptr_eq(
        fitted.explanation_engine(),
        support.explanation_engine()
    ));
    // The same holds for shards a gateway loads from their containers.
    let mut loaded = ModelCatalog::new();
    for (key, service) in keys.iter().zip([&fitted, &support]) {
        let container = service.to_container_bytes();
        let service = DecisionService::load_with_embedded_registry_bytes(&container).expect("load");
        loaded.insert(key.clone(), service).expect("insert");
    }
    let [fitted, support] = keys.map(|key| loaded.service(&key).expect("shard"));
    assert!(Arc::ptr_eq(
        fitted.explanation_engine(),
        support.explanation_engine()
    ));
}

#[test]
fn a_replica_pull_keeps_the_engine_as_an_operator_reload_does() {
    let (catalog, world) = demo_catalog(DEMO_SEED).expect("demo catalog");
    let key = ModelKey::new(DEMO_FITTED_KEY).expect("key");
    let engine = |catalog: &ModelCatalog| {
        Arc::clone(catalog.service(&key).expect("shard").explanation_engine())
    };
    let original = engine(&catalog);
    let suggest = |catalog: &ModelCatalog| {
        let service = catalog.service(&key).expect("shard");
        service
            .suggest_with_kb(&pinned_suggestion(&world), None)
            .expect("suggest");
        service.explanation_cache_stats()
    };
    assert_eq!(suggest(&catalog), (0, 1));
    let retrained = retrained_service_bytes(&world);
    assert!(catalog
        .install(&key, SyncArtifact::Model, &retrained, Some(5))
        .expect("pull"));
    assert!(Arc::ptr_eq(&engine(&catalog), &original));
    assert_eq!(suggest(&catalog), (1, 0), "the pulled model keeps the memo");
    // Another α: a stale pull changes nothing, a newer one a fresh engine.
    let other_alpha = retrained_with(&world, ServiceBuilder::fast().alpha(0.3));
    assert!(!catalog
        .install(&key, SyncArtifact::Model, &other_alpha, Some(5))
        .expect("stale pull"));
    assert!(Arc::ptr_eq(&engine(&catalog), &original));
    assert!(catalog
        .install(&key, SyncArtifact::Model, &other_alpha, Some(6))
        .expect("pull"));
    let fresh = engine(&catalog);
    assert!(!Arc::ptr_eq(&fresh, &original));
    assert_eq!(fresh.memo_len(), 0);
    // A pulled model over the α it now serves keeps that engine.
    let again = retrained_with(&world, ServiceBuilder::fast().alpha(0.3));
    assert!(catalog
        .install(&key, SyncArtifact::Model, &again, Some(7))
        .expect("pull"));
    assert!(Arc::ptr_eq(&engine(&catalog), &fresh));
}

#[test]
fn client_timeouts_turn_a_hung_server_into_typed_errors() {
    // A listener that accepts connections and never answers: without
    // timeouts every call would block forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let hold = std::thread::spawn(move || {
        // Keep accepted sockets alive (but silent) until the test ends.
        let mut streams = Vec::new();
        for stream in listener.incoming() {
            match stream {
                Ok(stream) => streams.push(stream),
                Err(_) => break,
            }
        }
    });

    let timeout = Duration::from_millis(200);
    let mut client = Client::connect_timeout(addr, timeout).expect("connects fine");
    let start = std::time::Instant::now();
    match client.list_models() {
        Err(ServingError::Wire(WireError::Timeout)) => {}
        other => panic!("expected Wire Timeout, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "timeout must fire promptly, took {:?}",
        start.elapsed()
    );
    // The timed-out response may still be in flight, so the connection is
    // poisoned: the next call fails fast with a typed error instead of
    // risking a stale frame being delivered as the wrong request's answer.
    match client.stats() {
        Err(ServingError::Protocol { what }) => {
            assert!(what.contains("poisoned"), "got: {what}")
        }
        other => panic!("expected a poisoned-connection error, got {other:?}"),
    }
    drop(client);

    // A typed *remote error frame* does not poison: the stream stays
    // frame-aligned, so the connection keeps working (the gateway tests
    // exercise this continuously); only transport failures poison.
    drop(hold); // detached; the OS reclaims the listener with the process
}
