//! End-to-end gateway coverage over loopback TCP.
//!
//! The acceptance bar of the serving redesign: a [`Client`] talking to a
//! server must return rankings, scores and explanations **byte-identical**
//! to calling `DecisionService::suggest_batch` in-process on the same
//! fitted service, for every message type; corrupt, oversized or
//! version-mismatched frames must produce typed errors on both ends while
//! the server stays up; and shutdown must be clean.

// Tests and examples may panic freely; the workspace-level panic-policy
// denies target library and binary code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

use dssddi_core::{CheckPrescriptionRequest, DecisionService, DrugId};
use dssddi_serving::demo::{demo_catalog, demo_requests, demo_world, DemoWorld, DEMO_SEED};
use dssddi_serving::wire::{decode_response, encode_request, read_frame, WIRE_MAGIC, WIRE_VERSION};
use dssddi_serving::{
    Client, ErrorCode, ModelCatalog, ModelKey, Request, Response, Router, Server, ServingError,
};
use dssddi_tensor::serde::seal_frame;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dssddi-gateway-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{name}-{}.dssd", std::process::id()))
}

/// Spawns a server over the given catalog; returns its address and the
/// join handle of the accept loop.
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

/// Builds the trained demo gateway *through the DSSD file path*: the fitted
/// shard is saved and reloaded from disk exactly like a production serving
/// host would, and the same file backs the in-process reference service.
fn file_backed_world() -> (ModelCatalog, DecisionService, DemoWorld) {
    let (trained, world) = demo_catalog(DEMO_SEED).expect("demo catalog");
    let fitted_key = ModelKey::new("chronic").expect("key");
    let path = temp_path("fitted-shard");
    trained
        .service(&fitted_key)
        .expect("fitted shard present")
        .save(&path)
        .expect("save fitted shard");
    let reference = DecisionService::load_with_embedded_registry(&path).expect("reference load");
    let mut catalog = ModelCatalog::new();
    catalog
        .load_file(fitted_key, &path)
        .expect("load fitted shard from file");
    // Keep the support-only shard in the gateway too (insert path).
    let support_key = ModelKey::new("critique").expect("key");
    let support = dssddi_core::ServiceBuilder::fast()
        .build_support(&world.ddi)
        .expect("support shard");
    catalog.insert(support_key, support).expect("insert");
    std::fs::remove_file(&path).ok();
    (catalog, reference, world)
}

#[test]
fn every_message_type_is_byte_identical_to_in_process_serving() {
    let (catalog, reference, world) = file_backed_world();
    let (addr, handle) = spawn_server(catalog);
    let mut client = Client::connect(addr).expect("connect");
    let fitted_key = ModelKey::new("chronic").expect("key");
    let support_key = ModelKey::new("critique").expect("key");

    // --- ListModels ---------------------------------------------------
    let models = client.list_models().expect("list models");
    assert_eq!(models.len(), 2);
    assert_eq!(models[0].key, fitted_key);
    assert!(models[0].fitted);
    assert_eq!(models[0].n_drugs, reference.registry().len());
    assert_eq!(models[0].n_features, reference.n_features());
    assert_eq!(models[0].registry_digest, reference.registry().digest());
    assert_eq!(models[0].backbone, reference.config().ddi.backbone.name());
    assert_eq!(models[1].key, support_key);
    assert!(!models[1].fitted);
    assert_eq!(models[1].n_features, None);

    // --- Suggest / SuggestBatch ---------------------------------------
    let requests = demo_requests(&world, 8, 3);
    let local = reference.suggest_batch(&requests).expect("local batch");
    let remote = client
        .suggest_batch(&fitted_key, &requests)
        .expect("remote batch");
    assert_eq!(local.len(), remote.len());
    for (a, b) in local.iter().zip(&remote) {
        assert_eq!(a, b, "remote batch response differs from in-process");
        for (da, db) in a.drugs.iter().zip(&b.drugs) {
            assert_eq!(da.score.to_bits(), db.score.to_bits(), "score bits differ");
        }
        assert_eq!(
            a.suggestion_satisfaction.to_bits(),
            b.suggestion_satisfaction.to_bits(),
            "satisfaction bits differ"
        );
    }
    let single_local = reference.suggest(&requests[0]).expect("local single");
    let single_remote = client
        .suggest(&fitted_key, &requests[0])
        .expect("remote single");
    assert_eq!(single_local, single_remote);
    for (da, db) in single_local.drugs.iter().zip(&single_remote.drugs) {
        assert_eq!(da.score.to_bits(), db.score.to_bits());
    }

    // --- CheckPrescription (on both shard kinds) -----------------------
    // A gateway shard critiques against its knowledge base (seeded from the
    // shard's DDI graph); the in-process reference attaches the same KB, so
    // severity-graded findings must be bit-identical under the same policy.
    let reference_kb =
        dssddi_serving::KnowledgeBase::from_ddi_graph(reference.ddi_graph(), reference.registry())
            .expect("reference kb");
    let check = CheckPrescriptionRequest::new(vec![
        DrugId::new(61),
        DrugId::new(59),
        DrugId::new(10),
        DrugId::new(5),
    ]);
    let local_report = reference
        .check_prescription_with_kb(&check, Some(&reference_kb))
        .expect("local check");
    let remote_report = client
        .check_prescription(&fitted_key, &check)
        .expect("remote check");
    assert_eq!(local_report, remote_report);
    assert_eq!(
        local_report.suggestion_satisfaction.to_bits(),
        remote_report.suggestion_satisfaction.to_bits()
    );
    assert_eq!(remote_report.kb_version, Some(reference_kb.version()));
    assert!(
        remote_report
            .antagonistic
            .iter()
            .all(|p| p.severity == dssddi_serving::Severity::Moderate),
        "graph-seeded antagonistic facts grade Moderate"
    );
    // The same request under a Major-and-up policy mutes every graph-seeded
    // finding — filtered at the source, identically on both ends.
    let gated = check
        .clone()
        .with_policy(dssddi_serving::AlertPolicy::at_least(
            dssddi_serving::Severity::Major,
        ));
    let local_gated = reference
        .check_prescription_with_kb(&gated, Some(&reference_kb))
        .expect("local gated check");
    let remote_gated = client
        .check_prescription(&fitted_key, &gated)
        .expect("remote gated check");
    assert_eq!(local_gated, remote_gated);
    assert!(remote_gated.antagonistic.is_empty() && remote_gated.synergistic.is_empty());
    // The support-only shard critiques too (no fitted model needed).
    let support_report = client
        .check_prescription(&support_key, &check)
        .expect("support check");
    assert!(!support_report.is_safe());

    // --- KbInfo ---------------------------------------------------------
    let kb_info = client.kb_info(&fitted_key).expect("kb info");
    assert_eq!(kb_info.version, reference_kb.version());
    assert_eq!(kb_info.n_facts, reference_kb.len());
    assert_eq!(kb_info.registry_digest, reference.registry().digest());
    let models_again = client.list_models().expect("list models again");
    assert_eq!(models_again[0].kb_version, kb_info.version);

    // --- Typed remote errors for every failure class --------------------
    match client.suggest_batch(&ModelKey::new("nope").expect("key"), &requests) {
        Err(ServingError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::UnknownModel);
            assert!(message.contains("nope") && message.contains("chronic"));
        }
        other => panic!("expected Remote UnknownModel, got {other:?}"),
    }
    match client.suggest(&support_key, &requests[0]) {
        Err(ServingError::Remote { code, .. }) => assert_eq!(code, ErrorCode::NotFitted),
        other => panic!("expected Remote NotFitted, got {other:?}"),
    }
    match client.check_prescription(
        &fitted_key,
        &CheckPrescriptionRequest::new(vec![DrugId::new(9999)]),
    ) {
        Err(ServingError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownDrug),
        other => panic!("expected Remote UnknownDrug, got {other:?}"),
    }
    let mut bad_request = requests[0].clone();
    bad_request.features.pop();
    match client.suggest(&fitted_key, &bad_request) {
        Err(ServingError::Remote { code, .. }) => assert_eq!(code, ErrorCode::InvalidInput),
        other => panic!("expected Remote InvalidInput, got {other:?}"),
    }

    // --- Stats ----------------------------------------------------------
    let stats = client.stats().expect("stats");
    assert_eq!(stats.len(), 2);
    let (_, fitted_stats) = &stats[0];
    // 8 batch + 1 single + 1 check + the four error probes that reached the
    // fitted shard (unknown model never reaches a shard).
    assert!(
        fitted_stats.requests >= 10,
        "fitted shard saw {} requests",
        fitted_stats.requests
    );
    assert!(fitted_stats.errors >= 2);
    // The error breakdown accounts for every error and names the classes
    // the probes above triggered.
    let broken_down: u64 = fitted_stats.errors_by_code.iter().map(|(_, n)| n).sum();
    assert_eq!(broken_down, fitted_stats.errors);
    let codes: Vec<ErrorCode> = fitted_stats
        .errors_by_code
        .iter()
        .map(|&(code, _)| code)
        .collect();
    assert!(codes.contains(&ErrorCode::UnknownDrug));
    assert!(codes.contains(&ErrorCode::InvalidInput));
    assert!(fitted_stats.cache_hits + fitted_stats.cache_misses > 0);
    assert!(fitted_stats.p50_ms >= 0.0 && fitted_stats.p99_ms >= fitted_stats.p50_ms);
    // Every served request left a latency sample behind, and the sample
    // count travelled over the wire explicitly (it is no longer inferred
    // from `requests` client-side).
    assert!(
        fitted_stats.samples > 0,
        "latency window is empty after {} requests",
        fitted_stats.requests
    );
    assert!(fitted_stats.samples <= fitted_stats.requests);
    let rate = fitted_stats.cache_hit_rate();
    assert!((0.0..=1.0).contains(&rate));
    // Admission-control fields: no limits are configured on this gateway,
    // so nothing was shed and no queueing happened — and with this client
    // idle, nothing is in flight when Stats is served.
    assert_eq!(fitted_stats.shed_requests, 0);
    assert_eq!(fitted_stats.in_flight, 0);
    assert_eq!(fitted_stats.queue_depth_hwm, 0);

    // --- Clean shutdown -------------------------------------------------
    client.shutdown().expect("clean shutdown");
    handle
        .join()
        .expect("accept loop must not panic")
        .expect("accept loop exits cleanly");
}

#[test]
fn second_connection_sees_stats_of_the_first() {
    // Stats aggregate across connections because the router is shared.
    let world = demo_world(DEMO_SEED).expect("demo world");
    let support = dssddi_core::ServiceBuilder::fast()
        .build_support(&world.ddi)
        .expect("support");
    let mut catalog = ModelCatalog::new();
    let key = ModelKey::new("critique").expect("key");
    catalog.insert(key.clone(), support).expect("insert");
    let (addr, handle) = spawn_server(catalog);

    let mut first = Client::connect(addr).expect("connect");
    let check = CheckPrescriptionRequest::new(vec![DrugId::new(61), DrugId::new(59)]);
    first.check_prescription(&key, &check).expect("check");
    drop(first); // closing a connection must not disturb the gateway

    let mut second = Client::connect(addr).expect("connect again");
    let stats = second.stats().expect("stats");
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].1.requests, 1, "first connection's call is counted");
    second.shutdown().expect("shutdown");
    handle.join().expect("no panic").expect("clean exit");
}

#[test]
fn trace_dump_exemplars_account_for_the_full_request_latency() {
    // A traced client exercises the data plane; the gateway keeps the
    // slowest exemplars with a per-stage breakdown whose sum must match
    // the recorded end-to-end latency (the ISSUE bar: within 10% — the
    // stage accounting is constructed to make it exact up to µs rounding).
    let (catalog, _, world) = file_backed_world();
    let (addr, handle) = spawn_server(catalog);
    let mut client = Client::connect(addr).expect("connect");
    client.set_tracing(true);
    let fitted_key = ModelKey::new("chronic").expect("key");
    let requests = demo_requests(&world, 6, 3);
    for request in &requests {
        client.suggest(&fitted_key, request).expect("suggest");
    }
    client
        .check_prescription(
            &fitted_key,
            &CheckPrescriptionRequest::new(vec![DrugId::new(61), DrugId::new(59)]),
        )
        .expect("check");

    let dump = client.trace_dump(32).expect("trace dump");
    assert!(
        dump.len() >= requests.len(),
        "expected >= {} exemplars, got {}",
        requests.len(),
        dump.len()
    );
    // Slowest first, and every exemplar is internally consistent.
    let mut previous = u64::MAX;
    for exemplar in &dump {
        assert!(exemplar.trace_id != 0, "trace IDs are non-zero");
        assert!(
            exemplar.total_micros <= previous,
            "exemplars must be sorted slowest-first"
        );
        previous = exemplar.total_micros;
        assert!(
            ["suggest", "suggest_batch", "check_prescription"].contains(&exemplar.op.as_str()),
            "only data-plane ops are traced, got {:?}",
            exemplar.op
        );
        let stage_sum: u64 = exemplar.stage_micros.iter().sum();
        let tolerance = exemplar.total_micros / 10;
        assert!(
            stage_sum.abs_diff(exemplar.total_micros) <= tolerance,
            "stage sum {} vs total {} drifts more than 10%",
            stage_sum,
            exemplar.total_micros
        );
    }
    // The dump honours its limit.
    let top = client.trace_dump(2).expect("bounded trace dump");
    assert_eq!(top.len(), 2);
    assert_eq!(top[0].trace_id, dump[0].trace_id);

    client.shutdown().expect("shutdown");
    handle.join().expect("no panic").expect("clean exit");
}

/// Sends raw bytes on a fresh connection and returns the decoded response
/// frame (if the server answers before closing).
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> Option<Response> {
    let mut stream = TcpStream::connect(addr).expect("connect raw");
    stream.write_all(bytes).expect("write raw");
    stream.flush().expect("flush raw");
    // Half-close so a server waiting for more header bytes sees EOF.
    stream.shutdown(std::net::Shutdown::Write).ok();
    let (_, payload) = read_frame(&mut stream, 1, None).ok()?;
    decode_response(&payload).ok()
}

#[test]
fn hostile_frames_get_typed_errors_and_the_server_stays_up() {
    // Support-only catalog: cheap to build, full protocol surface.
    let world = demo_world(DEMO_SEED).expect("demo world");
    let support = dssddi_core::ServiceBuilder::fast()
        .build_support(&world.ddi)
        .expect("support");
    let mut catalog = ModelCatalog::new();
    catalog
        .insert(ModelKey::new("critique").expect("key"), support)
        .expect("insert");
    let (addr, handle) = spawn_server(catalog);

    // 1. Garbage bytes: typed Malformed error (bad magic), connection ends.
    match send_raw(addr, b"GET / HTTP/1.1\r\n\r\n") {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed error frame, got {other:?}"),
    }

    // 2. Version-mismatched frame: typed Malformed error. (`+ 1` is the
    //    live traced version, so the first unknown version is `+ 2`.)
    let future = seal_frame(WIRE_MAGIC, WIRE_VERSION + 2, &[4u8]);
    match send_raw(addr, &future) {
        Some(Response::Error { code, message }) => {
            assert_eq!(code, ErrorCode::Malformed);
            assert!(message.contains("version"), "got: {message}");
        }
        other => panic!("expected version error frame, got {other:?}"),
    }

    // 3. Oversized declared length: typed Malformed error, no allocation.
    let mut oversized = encode_request(&Request::ListModels);
    oversized[6..14].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    match send_raw(addr, &oversized[..14]) {
        Some(Response::Error { code, message }) => {
            assert_eq!(code, ErrorCode::Malformed);
            assert!(message.contains("payload"), "got: {message}");
        }
        other => panic!("expected oversize error frame, got {other:?}"),
    }

    // 4. CRC-corrupt frame: typed Malformed error.
    let mut corrupt = encode_request(&Request::ListModels);
    let last = corrupt.len() - 5; // inside the payload, before the CRC
    corrupt[last] ^= 0xFF;
    match send_raw(addr, &corrupt) {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected CRC error frame, got {other:?}"),
    }

    // 5. Valid frame, malformed body: typed error *and* the connection
    //    survives for the next request.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let bad_body = seal_frame(WIRE_MAGIC, WIRE_VERSION, &[0xEE, 1, 2, 3]);
    stream.write_all(&bad_body).expect("write");
    let (_, payload) = read_frame(&mut stream, 1, None).expect("error frame");
    match decode_response(&payload).expect("decodes") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected error frame, got {other:?}"),
    }
    stream
        .write_all(&encode_request(&Request::ListModels))
        .expect("write valid request on the same connection");
    let (_, payload) = read_frame(&mut stream, 1, None).expect("list models frame");
    match decode_response(&payload).expect("decodes") {
        Response::ListModels(models) => assert_eq!(models.len(), 1),
        other => panic!("expected ListModels, got {other:?}"),
    }
    drop(stream);

    // 6. After all that abuse, a fresh client still gets full service: the
    //    gateway never went down.
    let mut client = Client::connect(addr).expect("connect after abuse");
    let models = client.list_models().expect("list models");
    assert_eq!(models.len(), 1);
    client.shutdown().expect("clean shutdown");
    handle.join().expect("no panic").expect("clean exit");

    // 7. And after shutdown, the port is actually closed.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let gone = TcpStream::connect_timeout(&addr, std::time::Duration::from_millis(200)).and_then(
        |mut s| {
            s.write_all(&encode_request(&Request::ListModels))?;
            let mut buf = [0u8; 1];
            let n = s.read(&mut buf)?;
            Ok(n)
        },
    );
    assert!(
        matches!(gone, Err(_) | Ok(0)),
        "server still answering after shutdown"
    );
}

#[test]
fn shutdown_drains_and_is_not_blocked_by_idle_connections() {
    let world = demo_world(DEMO_SEED).expect("demo world");
    let support = dssddi_core::ServiceBuilder::fast()
        .build_support(&world.ddi)
        .expect("support");
    let mut catalog = ModelCatalog::new();
    let key = ModelKey::new("critique").expect("key");
    catalog.insert(key.clone(), support).expect("insert");
    let (addr, handle) = spawn_server(catalog);

    // An idle keep-alive connection (request served, then silence) must not
    // block the post-shutdown drain: its handler polls the shutdown flag.
    let mut idle = Client::connect(addr).expect("idle client");
    let check = CheckPrescriptionRequest::new(vec![DrugId::new(61), DrugId::new(59)]);
    idle.check_prescription(&key, &check).expect("warm idle");

    let shutter = Client::connect(addr).expect("shutter");
    let start = std::time::Instant::now();
    shutter.shutdown().expect("shutdown ack");
    handle
        .join()
        .expect("accept loop must not panic")
        .expect("clean exit");
    // Bounded drain: one idle-poll interval plus scheduling slack, far
    // below a "hangs forever" failure.
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "drain took {:?}",
        start.elapsed()
    );
    drop(idle);
}

#[test]
fn duplicate_and_invalid_catalog_entries_are_typed_errors() {
    let world = demo_world(DEMO_SEED).expect("demo world");
    let mut catalog = ModelCatalog::new();
    let key = ModelKey::new("critique").expect("key");
    let support = dssddi_core::ServiceBuilder::fast()
        .build_support(&world.ddi)
        .expect("support");
    catalog.insert(key.clone(), support).expect("insert");
    let support2 = dssddi_core::ServiceBuilder::fast()
        .build_support(&world.ddi)
        .expect("support");
    assert!(matches!(
        catalog.insert(key, support2),
        Err(ServingError::DuplicateModel { .. })
    ));
    // Loading a non-DSSD file is a typed Core/Persistence error.
    let path = temp_path("not-a-model");
    std::fs::write(&path, b"definitely not a DSSD container").expect("write junk");
    assert!(matches!(
        catalog.load_file(ModelKey::new("junk").expect("key"), &path),
        Err(ServingError::Core(
            dssddi_core::CoreError::Persistence { .. }
        ))
    ));
    std::fs::remove_file(&path).ok();
}
