//! Deployment-level loopback coverage for replica groups, over real TCP:
//!
//! * a `ReloadKb` (and a model reload) sent to **one** replica converges
//!   on all three — identical `(model_version, kb_version)` pairs via
//!   `Stats` and bit-identical clinical responses from every peer;
//! * killing one replica mid-traffic sustains ≥ 99 % client success
//!   through a fail-over `Client` (`connect_any` plus connection-fault
//!   retries), and the replica restarted on
//!   the same address pulls itself back to the group's versions in one
//!   anti-entropy round.

// Tests and examples may panic freely; the workspace-level panic-policy
// denies target library and binary code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use dssddi_core::{CheckPrescriptionRequest, DrugId, ServiceBuilder};
use dssddi_kb::{EvidenceLevel, KbFact, KnowledgeBase, Severity};
use dssddi_replica::{ReplicaAgent, ReplicaGroup, ReplicaState};
use dssddi_serving::demo::{demo_catalog, demo_requests, DemoWorld, DEMO_SEED};
use dssddi_serving::{Client, KeyVersions, ModelKey, RetryPolicy, Router, Server, ServingError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One live gateway of the replica group under test.
struct Gateway {
    addr: SocketAddr,
    router: Arc<Router>,
    state: ReplicaState,
    thread: std::thread::JoinHandle<Result<(), ServingError>>,
}

impl Gateway {
    /// Binds a fresh demo-catalog gateway on `addr` with replication
    /// counters attached (`"127.0.0.1:0"` for an ephemeral port).
    fn spawn(addr: &str) -> Result<Gateway, ServingError> {
        let (catalog, _world) = demo_catalog(DEMO_SEED).expect("demo catalog");
        let mut router = Router::new(catalog);
        let state = router.attach_replica();
        let server = Server::bind(addr, router)?;
        let addr = server.local_addr()?;
        let router = server.router_arc();
        let thread = std::thread::spawn(move || server.run());
        Ok(Gateway {
            addr,
            router,
            state,
            thread,
        })
    }

    /// The anti-entropy agent this gateway would run, syncing from `peers`.
    fn agent(&self, peers: &[SocketAddr]) -> ReplicaAgent {
        let group = ReplicaGroup::new(peers.to_vec())
            .with_peer_timeout(Duration::from_secs(2))
            .with_sync_interval(Duration::from_millis(50));
        ReplicaAgent::new(group, Arc::clone(&self.router), self.state.clone())
    }

    /// This gateway's `(model_version, kb_version)` vector as reported on
    /// the wire by `Stats`.
    fn reported_version_vector(&self) -> Vec<KeyVersions> {
        let mut client = Client::connect(self.addr).expect("connect for stats");
        let report = client.stats_report().expect("stats report");
        report.replica.expect("replicated gateway").versions
    }

    fn shutdown(self) {
        let client = Client::connect(self.addr).expect("connect for shutdown");
        client.shutdown().expect("shutdown ack");
        self.thread.join().expect("no panic").expect("clean exit");
    }
}

/// Trains a second fitted service over the same demo world (same
/// formulary, different training seed) — the "re-trained model" a reload
/// ships to one replica and anti-entropy carries to the rest.
fn retrained_service_bytes(world: &DemoWorld) -> Vec<u8> {
    let observed: Vec<usize> = (0..55).collect();
    let mut rng = StdRng::seed_from_u64(DEMO_SEED ^ 0xbeef);
    let retrained = ServiceBuilder::fast()
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
    let dir = std::env::temp_dir().join("dssddi-replica-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("retrained-{}.dssd", std::process::id()));
    retrained.save(&path).expect("save retrained");
    let bytes = std::fs::read(&path).expect("read retrained");
    std::fs::remove_file(&path).ok();
    bytes
}

/// The upgraded KB an operator ships: the demo's nitrate pair becomes a
/// managed contraindication, bumping the embedded KB version.
fn upgraded_kb(world: &DemoWorld) -> KnowledgeBase {
    let mut kb = KnowledgeBase::from_ddi_graph(&world.ddi, &world.registry).expect("kb from graph");
    kb.upsert(
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
    kb
}

#[test]
fn a_reload_sent_to_one_replica_converges_on_all_three() {
    let (_catalog, world) = demo_catalog(DEMO_SEED).expect("demo world");
    let key = ModelKey::new("chronic").expect("key");

    let a = Gateway::spawn("127.0.0.1:0").expect("gateway a");
    let b = Gateway::spawn("127.0.0.1:0").expect("gateway b");
    let c = Gateway::spawn("127.0.0.1:0").expect("gateway c");
    let agent_a = a.agent(&[b.addr, c.addr]);
    let agent_b = b.agent(&[a.addr, c.addr]);
    let agent_c = c.agent(&[a.addr, b.addr]);

    // Ship the upgraded KB to replica A only.
    let new_kb = upgraded_kb(&world);
    let mut ops = Client::connect(a.addr).expect("ops client");
    let kb_info = ops
        .reload_kb(&key, &new_kb.to_container_bytes())
        .expect("reload kb");
    assert_eq!(kb_info.version, new_kb.version());
    assert!(kb_info.version > 1, "upgrade must move the KB version");

    // Ship a retrained model to replica B only.
    let retrained = retrained_service_bytes(&world);
    let mut ops_b = Client::connect(b.addr).expect("ops client b");
    let info = ops_b.reload_model(&key, &retrained).expect("reload model");
    assert!(info.fitted);

    // One anti-entropy round per agent: A pulls B's model, B pulls A's
    // KB, C pulls both.
    let round_a = agent_a.sync_round();
    let round_b = agent_b.sync_round();
    let round_c = agent_c.sync_round();
    assert_eq!(round_a.peers_polled, 2);
    assert_eq!(
        round_a.pulls_failed + round_b.pulls_failed + round_c.pulls_failed,
        0
    );
    assert!(
        round_a.pulls_applied + round_b.pulls_applied + round_c.pulls_applied >= 3,
        "a: {round_a:?}, b: {round_b:?}, c: {round_c:?}"
    );

    // All three replicas now report the same version vector over Stats.
    let versions_a = a.reported_version_vector();
    let chronic = versions_a
        .iter()
        .find(|entry| entry.key == key)
        .expect("chronic entry")
        .clone();
    assert_eq!(chronic.kb_version, new_kb.version());
    assert_eq!(
        chronic.model_version, 2,
        "one reload on top of the seed model"
    );
    assert_eq!(versions_a, b.reported_version_vector());
    assert_eq!(versions_a, c.reported_version_vector());

    // Converged replicas answer bit-identically: the same critique and
    // the same suggestion scores, from every peer.
    let check = CheckPrescriptionRequest::new(vec![DrugId::new(61), DrugId::new(59)]);
    let requests = demo_requests(&world, 4, 3);
    let mut baseline = None;
    for gateway in [&a, &b, &c] {
        let mut client = Client::connect(gateway.addr).expect("connect");
        let critique = client.check_prescription(&key, &check).expect("critique");
        assert_eq!(critique.kb_version, Some(new_kb.version()));
        assert!(critique.has_contraindicated());
        let suggested = client.suggest_batch(&key, &requests).expect("batch");
        let bits: Vec<Vec<u32>> = suggested
            .iter()
            .map(|response| response.drugs.iter().map(|d| d.score.to_bits()).collect())
            .collect();
        match &baseline {
            None => baseline = Some((critique, bits)),
            Some((first_critique, first_bits)) => {
                assert_eq!(
                    &critique, first_critique,
                    "critiques differ across replicas"
                );
                assert_eq!(
                    &bits, first_bits,
                    "suggestion scores differ across replicas"
                );
            }
        }
    }

    // A converged group goes quiet: the next round plans nothing and the
    // reported lag is zero.
    let quiet = agent_a.sync_round();
    assert_eq!(quiet.pulls_planned, 0);
    assert_eq!(quiet.max_lag, 0);
    let report = Client::connect(a.addr)
        .expect("connect")
        .stats_report()
        .expect("stats");
    let replica = report.replica.expect("replica section");
    assert_eq!(replica.peers, 2);
    assert_eq!(replica.max_lag, 0);

    drop((agent_a, agent_b, agent_c));
    a.shutdown();
    b.shutdown();
    c.shutdown();
}

#[test]
fn killing_one_replica_mid_traffic_sustains_clients_and_restart_catches_up() {
    let (_catalog, world) = demo_catalog(DEMO_SEED).expect("demo world");
    let key = ModelKey::new("chronic").expect("key");

    let a = Gateway::spawn("127.0.0.1:0").expect("gateway a");
    let b = Gateway::spawn("127.0.0.1:0").expect("gateway b");
    let c = Gateway::spawn("127.0.0.1:0").expect("gateway c");
    let victim_addr = c.addr;
    let agent_b = b.agent(&[a.addr, victim_addr]);
    let mut victim_thread = Some(c.thread);

    // The clinical client starts on the victim, so the kill lands on a
    // live connection and fail-over has to actually happen.
    let mut client = Client::connect_any(&[victim_addr, a.addr, b.addr], Duration::from_secs(2))
        .expect("group client");
    let fail_over = RetryPolicy::new(4, Duration::from_millis(25), Duration::from_millis(400))
        .retry_connection_faults(true);
    client.set_retry_policy(Some(fail_over), 7);

    let check = CheckPrescriptionRequest::new(vec![DrugId::new(61), DrugId::new(59)]);
    let total = 300u32;
    let mut ok = 0u32;
    let mut failed = 0u32;
    for frame in 0..total {
        if frame == total / 3 {
            // Kill replica C mid-run — the traffic loop keeps going.
            let victim = Client::connect(victim_addr).expect("connect victim");
            victim.shutdown().expect("victim shutdown ack");
            if let Some(thread) = victim_thread.take() {
                thread.join().expect("no panic").expect("clean exit");
            }
        }
        match client.check_prescription(&key, &check) {
            Ok(report) => {
                assert_eq!(report.kb_version, Some(1));
                ok += 1;
            }
            Err(_) => failed += 1,
        }
    }
    assert!(victim_thread.is_none(), "kill point must have been reached");
    assert_eq!(ok + failed, total);
    assert!(
        u64::from(ok) * 100 >= u64::from(total) * 99,
        "client success dropped below 99%: {ok}/{total} ok, {failed} failed"
    );

    // With C dead, ship the upgraded KB to A; B converges by anti-entropy
    // (the unreachable peer costs one bounded timeout, nothing else).
    let new_kb = upgraded_kb(&world);
    let mut ops = Client::connect(a.addr).expect("ops client");
    ops.reload_kb(&key, &new_kb.to_container_bytes())
        .expect("reload kb");
    let round_b = agent_b.sync_round();
    assert_eq!(
        round_b.peers_unreachable, 1,
        "dead C costs one unreachable peer"
    );
    assert_eq!(round_b.pulls_applied, 1, "B pulls the new KB from A");

    // Restart the killed replica on the same address: a fresh process with
    // the seed catalog (KB v1), which must sync itself back to the group.
    let restarted = respawn(victim_addr);
    let agent_c = restarted.agent(&[a.addr, b.addr]);
    let round_c = agent_c.sync_round();
    assert_eq!(round_c.peers_polled, 2);
    assert!(
        round_c.pulls_applied >= 1,
        "restart must pull the missed KB: {round_c:?}"
    );
    assert_eq!(round_c.pulls_failed, 0);

    let chronic = restarted
        .reported_version_vector()
        .into_iter()
        .find(|entry| entry.key == key)
        .expect("chronic entry");
    assert_eq!(
        chronic.kb_version,
        new_kb.version(),
        "restarted replica caught up"
    );
    let chronic_a = a
        .reported_version_vector()
        .into_iter()
        .find(|entry| entry.key == key)
        .expect("chronic entry");
    assert_eq!(chronic.kb_version, chronic_a.kb_version);

    // And it serves the upgraded critique, bit-identically to A.
    let mut back = Client::connect(restarted.addr).expect("connect restarted");
    let critique = back.check_prescription(&key, &check).expect("critique");
    assert_eq!(critique.kb_version, Some(new_kb.version()));
    assert!(critique.has_contraindicated());

    drop((agent_b, agent_c, client));
    a.shutdown();
    b.shutdown();
    restarted.shutdown();
}

/// Rebinds a gateway on the exact address a killed replica vacated. The
/// kernel may briefly hold the port, so bind is retried for a bounded
/// window before giving up.
fn respawn(addr: SocketAddr) -> Gateway {
    let spec = addr.to_string();
    for _attempt in 0..50 {
        match Gateway::spawn(&spec) {
            Ok(gateway) => return gateway,
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
    panic!("could not rebind {spec} within 5s");
}
