//! Kill-one-replica drill: a three-gateway replica group where one
//! replica's network path runs through the chaos proxy.
//!
//! Black-holing that path mid-run is the deployment's "replica killed"
//! event as the rest of the system sees it: clinical traffic through
//! a fail-over `Client` fails over and sustains ≥ 99 % success, the two
//! surviving replicas keep converging reloads between themselves (the
//! dark peer costs each anti-entropy round one bounded timeout, nothing
//! else), and when the path comes back the stale replica pulls itself
//! up to the group's versions in a single round.

// Tests may panic freely; the workspace-level panic policy denies library
// and binary code only.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use dssddi_chaos::{ChaosProxy, FaultPlan};
use dssddi_core::{CheckPrescriptionRequest, DrugId};
use dssddi_kb::{EvidenceLevel, KbFact, KnowledgeBase, Severity};
use dssddi_replica::{ReplicaAgent, ReplicaGroup, ReplicaState};
use dssddi_serving::demo::{demo_catalog, DemoWorld, DEMO_SEED};
use dssddi_serving::{Client, ModelKey, RetryPolicy, Router, Server, ServingError};

struct Gateway {
    addr: SocketAddr,
    router: Arc<Router>,
    state: ReplicaState,
    thread: std::thread::JoinHandle<Result<(), ServingError>>,
}

fn spawn_gateway() -> Gateway {
    let (catalog, _world) = demo_catalog(DEMO_SEED).expect("demo catalog");
    let mut router = Router::new(catalog);
    let state = router.attach_replica();
    let server = Server::bind("127.0.0.1:0", router).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let router = server.router_arc();
    let thread = std::thread::spawn(move || server.run());
    Gateway {
        addr,
        router,
        state,
        thread,
    }
}

fn agent_for(gateway: &Gateway, peers: &[SocketAddr]) -> ReplicaAgent {
    let group = ReplicaGroup::new(peers.to_vec())
        .with_peer_timeout(Duration::from_millis(300))
        .with_sync_interval(Duration::from_millis(50));
    ReplicaAgent::new(group, Arc::clone(&gateway.router), gateway.state.clone())
}

fn kb_version_of(addr: SocketAddr, key: &ModelKey) -> u64 {
    let mut client = Client::connect(addr).expect("connect for stats");
    let report = client.stats_report().expect("stats report");
    report
        .replica
        .expect("replicated gateway")
        .versions
        .into_iter()
        .find(|entry| &entry.key == key)
        .expect("key present")
        .kb_version
}

fn stop_gateway(gateway: Gateway) {
    Client::connect(gateway.addr)
        .expect("shutdown client")
        .shutdown()
        .expect("shutdown ack");
    gateway.thread.join().expect("no panic").expect("clean run");
}

#[test]
fn black_holed_replica_drill_sustains_clients_and_repairs_on_recovery() {
    let key = ModelKey::new("chronic").expect("key");
    let (_catalog, world): (_, DemoWorld) = demo_catalog(DEMO_SEED).expect("demo world");

    let a = spawn_gateway();
    let b = spawn_gateway();
    let c = spawn_gateway();

    // Replica C is reachable only through the chaos proxy — by clients
    // *and* by its peers' anti-entropy agents.
    let listen: SocketAddr = "127.0.0.1:0".parse().expect("listen addr");
    let proxy = ChaosProxy::bind(listen, c.addr, FaultPlan::clean(11))
        .expect("bind proxy")
        .spawn()
        .expect("spawn proxy");
    let c_public = proxy.addr();

    let agent_a = agent_for(&a, &[b.addr, c_public]);
    let agent_b = agent_for(&b, &[a.addr, c_public]);
    let agent_c = agent_for(&c, &[a.addr, b.addr]);

    // Clinical traffic enters on the victim so the black-hole lands on a
    // live connection and fail-over has to actually happen.
    let mut client = Client::connect_any(&[c_public, a.addr, b.addr], Duration::from_millis(400))
        .expect("group client");
    let fail_over = RetryPolicy::new(4, Duration::from_millis(25), Duration::from_millis(400))
        .retry_connection_faults(true);
    client.set_retry_policy(Some(fail_over), 9);
    let check = CheckPrescriptionRequest::new(vec![DrugId::new(61), DrugId::new(59)]);

    let total = 200u32;
    let mut ok = 0u32;
    for frame in 0..total {
        if frame == total / 4 {
            // The drill: replica C goes dark mid-run.
            proxy.set_black_hole(true);
        }
        if client.check_prescription(&key, &check).is_ok() {
            ok += 1;
        }
    }
    assert!(
        ok * 100 >= total * 99,
        "fail-over must sustain >=99% success, got {ok}/{total}"
    );

    // With C dark, a reload shipped to A still converges on B; the dark
    // peer costs the round exactly one bounded timeout.
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
    Client::connect(a.addr)
        .expect("ops client")
        .reload_kb(&key, &new_kb.to_container_bytes())
        .expect("reload kb");

    let round_b = agent_b.sync_round();
    assert_eq!(round_b.peers_unreachable, 1, "dark C: {round_b:?}");
    assert_eq!(round_b.pulls_applied, 1, "B pulls the new KB: {round_b:?}");
    assert_eq!(kb_version_of(b.addr, &key), new_kb.version());
    assert_eq!(
        kb_version_of(c.addr, &key),
        1,
        "dark C must still be on the seed KB"
    );

    // Recovery: the path comes back and the stale replica repairs itself
    // in one anti-entropy round.
    proxy.set_black_hole(false);
    let round_c = agent_c.sync_round();
    assert_eq!(round_c.peers_polled, 2);
    assert!(round_c.pulls_applied >= 1, "C must catch up: {round_c:?}");
    assert_eq!(kb_version_of(c.addr, &key), new_kb.version());

    // The healed group is quiet again.
    let quiet = agent_a.sync_round();
    assert_eq!(quiet.peers_unreachable, 0);
    assert_eq!(quiet.pulls_planned, 0);
    assert_eq!(quiet.max_lag, 0);

    drop((agent_a, agent_b, agent_c, client));
    proxy.shutdown();
    stop_gateway(a);
    stop_gateway(b);
    stop_gateway(c);
}
