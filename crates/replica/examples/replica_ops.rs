//! Operator CLI for a running replica group — the tool the CI replication
//! smoke drives against three `dssddi-serve --demo` processes.
//!
//! ```text
//! # Per-replica version vectors, one line per replica and key:
//! cargo run --release -p dssddi-replica --example replica_ops -- \
//!     --versions 127.0.0.1:4641,127.0.0.1:4642,127.0.0.1:4643
//!
//! # Upgrade the demo knowledge base and ship it to ONE replica (the
//! # group's anti-entropy agents propagate it to the rest):
//! cargo run --release -p dssddi-replica --example replica_ops -- \
//!     --reload-demo-kb 127.0.0.1:4641
//!
//! # Block (bounded) until every replica reports the same kb_version for
//! # the demo key, then print it:
//! cargo run --release -p dssddi-replica --example replica_ops -- \
//!     --await-converge 127.0.0.1:4641,127.0.0.1:4642,127.0.0.1:4643
//! ```

// Tests and examples may panic freely; the workspace-level panic-policy
// denies target library and binary code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

use dssddi_kb::{EvidenceLevel, KbFact, KnowledgeBase, Severity};
use dssddi_serving::demo::{demo_world, DEMO_SEED};
use dssddi_serving::{Client, KeyVersions, ModelKey};

fn usage() -> ! {
    eprintln!(
        "usage: replica_ops --versions ADDR[,ADDR...]\n\
         \x20      replica_ops --reload-demo-kb ADDR\n\
         \x20      replica_ops --await-converge ADDR[,ADDR...]"
    );
    std::process::exit(2);
}

fn resolve(spec: &str) -> SocketAddr {
    spec.to_socket_addrs()
        .unwrap_or_else(|e| panic!("cannot resolve {spec}: {e}"))
        .next()
        .unwrap_or_else(|| panic!("no address for {spec}"))
}

fn resolve_list(spec: &str) -> Vec<(String, SocketAddr)> {
    spec.split(',')
        .map(|part| (part.trim().to_string(), resolve(part.trim())))
        .collect()
}

fn versions_of(addr: SocketAddr) -> Vec<KeyVersions> {
    let mut client = Client::connect_timeout(addr, Duration::from_secs(2)).expect("connect");
    let report = client.stats_report().expect("stats report");
    report
        .replica
        .expect("gateway is not replicated (no --peer flags?)")
        .versions
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match (args.first().map(String::as_str), args.get(1)) {
        (Some("--versions"), Some(list)) => {
            for (name, addr) in resolve_list(list) {
                for entry in versions_of(addr) {
                    println!(
                        "{name} {} model_version={} kb_version={}",
                        entry.key, entry.model_version, entry.kb_version
                    );
                }
            }
        }
        (Some("--reload-demo-kb"), Some(target)) => {
            // The upgraded KB an operator ships in the demo story: the
            // nitrate pair becomes a managed contraindication, which bumps
            // the container's embedded version past the graph-seeded v1.
            let world = demo_world(DEMO_SEED).expect("demo world");
            let mut kb = KnowledgeBase::from_ddi_graph(&world.ddi, &world.registry)
                .expect("kb from ddi graph");
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
            .expect("upsert demo fact");
            let key = ModelKey::new("chronic").expect("key");
            let mut client =
                Client::connect_timeout(resolve(target), Duration::from_secs(5)).expect("connect");
            let info = client
                .reload_kb(&key, &kb.to_container_bytes())
                .expect("reload kb");
            println!("reloaded {key} on {target}: kb_version={}", info.version);
        }
        (Some("--await-converge"), Some(list)) => {
            let replicas = resolve_list(list);
            let key = ModelKey::new("chronic").expect("key");
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let versions: Vec<(String, u64)> = replicas
                    .iter()
                    .map(|(name, addr)| {
                        let kb = versions_of(*addr)
                            .into_iter()
                            .find(|entry| entry.key == key)
                            .map_or(0, |entry| entry.kb_version);
                        (name.clone(), kb)
                    })
                    .collect();
                let first = versions.first().map_or(0, |(_, v)| *v);
                if first > 1 && versions.iter().all(|(_, v)| *v == first) {
                    println!("converged: kb_version={first}");
                    for (name, version) in &versions {
                        println!("  {name} kb_version={version}");
                    }
                    return;
                }
                if Instant::now() >= deadline {
                    eprintln!("replicas did not converge within 30s: {versions:?}");
                    std::process::exit(1);
                }
                std::thread::sleep(Duration::from_millis(200));
            }
        }
        _ => usage(),
    }
}
