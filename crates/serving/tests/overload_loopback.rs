//! Load-shed-before-collapse over loopback TCP: the acceptance bar of the
//! admission-control subsystem.
//!
//! A gateway driven well past its configured capacity must
//!
//! * answer every admitted request normally, with a bounded latency,
//! * reject the excess with typed [`ErrorCode::Overloaded`] frames — never
//!   stall callers, never drop a connection, never panic,
//! * account for every shed request in `Stats` (`shed_requests` matches
//!   the rejections clients observed), and
//! * return to a quiet state afterwards (`in_flight` back to zero).

// Tests and examples may panic freely; the workspace-level panic-policy
// denies target library and binary code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use dssddi_core::{CheckPrescriptionRequest, DrugId};
use dssddi_serving::demo::{demo_world, DEMO_SEED};
use dssddi_serving::{
    AdmissionConfig, Client, ErrorCode, ModelCatalog, ModelKey, RateLimit, Router, Server,
    ServingError,
};

/// A support-only catalog (cheap to build, full critique surface) under the
/// key `critique`.
fn support_catalog() -> (ModelCatalog, ModelKey) {
    let world = demo_world(DEMO_SEED).expect("demo world");
    let support = dssddi_core::ServiceBuilder::fast()
        .build_support(&world.ddi)
        .expect("support shard");
    let mut catalog = ModelCatalog::new();
    let key = ModelKey::new("critique").expect("key");
    catalog.insert(key.clone(), support).expect("insert");
    (catalog, key)
}

/// Per-thread tally of an overload run.
struct Tally {
    ok: u64,
    shed: u64,
    latencies: Vec<Duration>,
}

/// Drives `per_conn` check-prescription calls from each of `connections`
/// client threads as fast as they will go (far beyond any configured rate,
/// the open-loop "2x+ overload" of the acceptance criteria) and returns the
/// merged tally. Panics on any failure class other than a typed
/// `Overloaded` rejection — a dropped connection or protocol error fails
/// the test in the worker thread.
fn hammer(addr: std::net::SocketAddr, key: &ModelKey, connections: usize, per_conn: u64) -> Tally {
    let key = Arc::new(key.clone());
    let workers: Vec<_> = (0..connections)
        .map(|_| {
            let key = Arc::clone(&key);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect worker");
                // The same known-unsafe prescription the byte-identical
                // loopback test critiques.
                let check = CheckPrescriptionRequest::new(vec![
                    DrugId::new(61),
                    DrugId::new(59),
                    DrugId::new(10),
                    DrugId::new(5),
                ]);
                let mut tally = Tally {
                    ok: 0,
                    shed: 0,
                    latencies: Vec::with_capacity(per_conn as usize),
                };
                for _ in 0..per_conn {
                    let start = Instant::now();
                    match client.check_prescription(&key, &check) {
                        Ok(report) => {
                            tally.ok += 1;
                            tally.latencies.push(start.elapsed());
                            assert!(!report.is_safe(), "critique result must be intact");
                        }
                        Err(ServingError::Remote {
                            code: ErrorCode::Overloaded,
                            ..
                        }) => tally.shed += 1,
                        Err(other) => panic!("connection degraded under overload: {other}"),
                    }
                }
                // The connection survived the whole run: a control-plane
                // call (never shed) still works on the same socket.
                client.stats().expect("stats on the hammered connection");
                tally
            })
        })
        .collect();
    let mut merged = Tally {
        ok: 0,
        shed: 0,
        latencies: Vec::new(),
    };
    for worker in workers {
        let tally = worker.join().expect("worker must not panic");
        merged.ok += tally.ok;
        merged.shed += tally.shed;
        merged.latencies.extend(tally.latencies);
    }
    merged
}

fn p99(latencies: &mut [Duration]) -> Duration {
    assert!(!latencies.is_empty());
    latencies.sort_unstable();
    latencies[(latencies.len() - 1) * 99 / 100]
}

#[test]
fn rate_limited_gateway_sheds_typed_and_answers_admitted_within_bounds() {
    let (catalog, key) = support_catalog();
    // Capacity: 20 requests/second with a 5-token burst. Four tight-loop
    // connections offer hundreds per second — way past 2x. (The 400
    // offered requests would need ~20 s of earned tokens to all be
    // admitted; the tight loops finish far sooner, so shedding is
    // guaranteed without timing the run.)
    let config = AdmissionConfig {
        default_rate: Some(RateLimit::new(20.0, 5.0).expect("limit")),
        ..AdmissionConfig::default()
    };
    let server =
        Server::bind("127.0.0.1:0", Router::with_admission(catalog, config)).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());

    let mut tally = hammer(addr, &key, 4, 100);
    assert_eq!(tally.ok + tally.shed, 400, "every request got an answer");
    assert!(
        tally.shed > 0,
        "overload must shed (ok {}, shed {})",
        tally.ok,
        tally.shed
    );
    // The burst alone guarantees admissions; refills add more.
    assert!(tally.ok >= 5, "admitted only {}", tally.ok);
    // Admitted requests stay fast *while* the gateway rejects the excess:
    // shedding is cheap, so admitted p99 stays far below collapse. The
    // bound is generous for CI noise yet far below queue-collapse figures.
    let p99 = p99(&mut tally.latencies);
    assert!(
        p99 < Duration::from_secs(1),
        "admitted p99 degraded: {p99:?}"
    );

    // The gateway's accounting matches what the clients observed.
    let mut observer = Client::connect(addr).expect("observer connect");
    let stats = observer.stats().expect("stats");
    let (_, shard) = &stats[0];
    assert_eq!(
        shard.shed_requests, tally.shed,
        "shed accounting must match client-observed rejections"
    );
    assert_eq!(shard.requests, tally.ok, "only admitted requests count");
    assert_eq!(
        shard.samples, tally.ok,
        "only admitted requests feed the latency window"
    );
    assert_eq!(
        shard.errors, 0,
        "sheds are not errors — they never executed"
    );
    assert_eq!(shard.in_flight, 0, "gateway is quiet again");
    observer.shutdown().expect("clean shutdown");
    handle
        .join()
        .expect("accept loop must not panic")
        .expect("accept loop exits cleanly");
}

#[test]
fn bounded_queue_sheds_contention_without_dropping_connections() {
    let (catalog, key) = support_catalog();
    // One execution slot, no queueing: concurrent arrivals shed instantly.
    let config = AdmissionConfig {
        max_in_flight: Some(1),
        max_queue_depth: 0,
        queue_wait: Duration::from_millis(50),
        ..AdmissionConfig::default()
    };
    let server =
        Server::bind("127.0.0.1:0", Router::with_admission(catalog, config)).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());

    let tally = hammer(addr, &key, 8, 200);
    assert_eq!(tally.ok + tally.shed, 1600);
    assert!(tally.ok > 0, "the single slot keeps serving");
    assert!(
        tally.shed > 0,
        "8 tight-loop connections against one slot must collide"
    );

    let mut observer = Client::connect(addr).expect("observer connect");
    let stats = observer.stats().expect("stats");
    let (_, shard) = &stats[0];
    assert_eq!(shard.shed_requests, tally.shed);
    assert_eq!(shard.requests, tally.ok);
    assert_eq!(shard.in_flight, 0, "all slots released");
    observer.shutdown().expect("clean shutdown");
    handle.join().expect("no panic").expect("clean exit");
}

#[test]
fn in_flight_quota_sheds_and_releases() {
    let (catalog, key) = support_catalog();
    // Quota of 1 on the shard, with a generous queue so only the quota
    // ever sheds; contention between 8 threads trips it constantly.
    let config = AdmissionConfig {
        quotas: vec![(key.clone(), 1)],
        ..AdmissionConfig::default()
    };
    let server =
        Server::bind("127.0.0.1:0", Router::with_admission(catalog, config)).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());

    let tally = hammer(addr, &key, 8, 100);
    assert_eq!(tally.ok + tally.shed, 800);
    assert!(tally.ok > 0 && tally.shed > 0);

    let mut observer = Client::connect(addr).expect("observer connect");
    let stats = observer.stats().expect("stats");
    let (_, shard) = &stats[0];
    assert_eq!(shard.shed_requests, tally.shed);
    assert_eq!(shard.in_flight, 0, "quota slots all released");
    observer.shutdown().expect("clean shutdown");
    handle.join().expect("no panic").expect("clean exit");
}
