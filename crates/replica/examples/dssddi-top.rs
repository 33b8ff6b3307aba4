//! `top` for a gateway (or replica group): polls `Stats` and `TraceDump`
//! over the wire and prints a per-model serving table plus the slowest
//! recent requests with their per-stage latency breakdown.
//!
//! ```text
//! cargo run --release -p dssddi-replica --example dssddi-top -- \
//!     127.0.0.1:4641,127.0.0.1:4642 [--iterations N] [--interval-ms MS] \
//!     [--exemplars K]
//! ```
//!
//! Each iteration prints, per endpoint:
//!
//! * one line per model — requests, errors, shed, samples, p50/p99 ms;
//! * the gateway transport counters;
//! * the top `--exemplars` slowest data-plane requests (slowest first),
//!   each with its trace ID and the decode / admit / queue / infer /
//!   encode stage times in microseconds.

// Tests and examples may panic freely; the workspace-level panic-policy
// denies target library and binary code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use dssddi_obs::trace::Stage;
use dssddi_serving::Client;

struct Args {
    targets: Vec<(String, SocketAddr)>,
    iterations: u32,
    interval: Duration,
    exemplars: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: dssddi-top ADDR[,ADDR...] [--iterations N] [--interval-ms MS] \
         [--exemplars K]"
    );
    std::process::exit(2);
}

fn resolve_list(spec: &str) -> Vec<(String, SocketAddr)> {
    spec.split(',')
        .map(|part| {
            let part = part.trim();
            let addr = part
                .to_socket_addrs()
                .unwrap_or_else(|e| panic!("cannot resolve {part}: {e}"))
                .next()
                .unwrap_or_else(|| panic!("no address for {part}"));
            (part.to_string(), addr)
        })
        .collect()
}

fn parse_args() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        targets: Vec::new(),
        iterations: 1,
        interval: Duration::from_millis(1000),
        exemplars: 5,
    };
    let mut i = 0;
    while let Some(arg) = raw.get(i) {
        match arg.as_str() {
            "--iterations" => {
                i += 1;
                args.iterations = raw
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--interval-ms" => {
                i += 1;
                let ms: u64 = raw
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                args.interval = Duration::from_millis(ms);
            }
            "--exemplars" => {
                i += 1;
                args.exemplars = raw
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            spec if !spec.starts_with('-') && args.targets.is_empty() => {
                args.targets = resolve_list(spec);
            }
            _ => usage(),
        }
        i += 1;
    }
    if args.targets.is_empty() {
        usage();
    }
    args
}

fn poll_endpoint(name: &str, addr: SocketAddr, exemplars: u64) {
    let mut client = match Client::connect_timeout(addr, Duration::from_secs(2)) {
        Ok(client) => client,
        Err(error) => {
            println!("## {name}: unreachable ({error})");
            return;
        }
    };
    let report = match client.stats_report() {
        Ok(report) => report,
        Err(error) => {
            println!("## {name}: stats failed ({error})");
            return;
        }
    };
    println!("## {name}");
    println!(
        "{:<24} {:>9} {:>7} {:>7} {:>9} {:>8} {:>8}",
        "MODEL", "REQUESTS", "ERRORS", "SHED", "SAMPLES", "P50_MS", "P99_MS"
    );
    for (key, stats) in &report.models {
        println!(
            "{:<24} {:>9} {:>7} {:>7} {:>9} {:>8.2} {:>8.2}",
            key.as_str(),
            stats.requests,
            stats.errors,
            stats.shed_requests,
            stats.samples,
            stats.p50_ms,
            stats.p99_ms,
        );
    }
    let gw = &report.gateway;
    println!(
        "gateway: conns accepted={} active={} shed={} stalled_reaped={}",
        gw.connections_accepted, gw.connections_active, gw.connections_shed, gw.stalled_reaped
    );
    if let Some(replica) = &report.replica {
        println!(
            "replica: peers={} syncs={} sync_bytes={} max_lag={}",
            replica.peers, replica.syncs, replica.bytes_shipped, replica.max_lag
        );
    }
    match client.trace_dump(exemplars) {
        Ok(dump) if dump.is_empty() => println!("traces: (none yet)"),
        Ok(dump) => {
            println!(
                "{:<18} {:<24} {:<18} {:>9}  stages(us)",
                "TRACE", "MODEL", "OP", "TOTAL_US"
            );
            for exemplar in dump {
                let stages: Vec<String> = Stage::ALL
                    .iter()
                    .map(|stage| {
                        format!(
                            "{}={}",
                            stage.as_str(),
                            exemplar
                                .stage_micros
                                .get(stage.index())
                                .copied()
                                .unwrap_or(0)
                        )
                    })
                    .collect();
                println!(
                    "{:<18x} {:<24} {:<18} {:>9}  {}",
                    exemplar.trace_id,
                    exemplar.model,
                    exemplar.op,
                    exemplar.total_micros,
                    stages.join(" ")
                );
            }
        }
        Err(error) => println!("traces: dump failed ({error})"),
    }
}

fn main() {
    let args = parse_args();
    for iteration in 0..args.iterations {
        if iteration > 0 {
            std::thread::sleep(args.interval);
        }
        println!("=== iteration {} ===", iteration + 1);
        for (name, addr) in &args.targets {
            poll_endpoint(name, *addr, args.exemplars);
        }
    }
}
