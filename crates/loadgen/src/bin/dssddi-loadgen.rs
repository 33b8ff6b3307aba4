//! `dssddi-loadgen` — open-loop traffic generator for a live DSSDDI
//! gateway.
//!
//! Sweeps one or more connection counts against the gateway, each run
//! offering a fixed Poisson arrival rate of mixed clinical traffic with
//! Zipf hot-shard skew, and prints an achieved-throughput-vs-SLO report.
//!
//! ```text
//! dssddi-serve --listen 127.0.0.1:4547 --demo &
//! dssddi-loadgen --addr 127.0.0.1:4547 --connections 1,64,256 \
//!     --rate 800 --duration-s 5
//! ```

use std::time::Duration;

use dssddi_loadgen::{LoadgenConfig, WorkloadMix};

fn usage() -> String {
    "usage: dssddi-loadgen --addr HOST:PORT [options]\n\
     \x20      dssddi-loadgen --target HOST:PORT[,HOST:PORT...] [options]\n\
     \n\
     options:\n\
     \x20 --addr HOST:PORT     gateway to drive (this or --target is required)\n\
     \x20 --target LIST        comma-separated replica endpoints to drive as one\n\
     \x20                      deployment: workers spread round-robin, fail over on\n\
     \x20                      reconnect, and the report breaks outcomes down per\n\
     \x20                      endpoint (incompatible with --chaos)\n\
     \x20 --fault-tolerant     tolerate connection-level faults (tallied per kind)\n\
     \x20                      instead of aborting — for runs that kill a replica\n\
     \x20                      on purpose; implied by --chaos\n\
     \x20 --connections LIST   comma-separated sweep of connection counts (default 4)\n\
     \x20 --rate RPS           offered frame rate across all connections (default 200)\n\
     \x20 --duration-s SECS    length of each run (default 5)\n\
     \x20 --seed N             master seed for reproducible traffic (default 17)\n\
     \x20 --zipf EXP           hot-shard skew exponent, 0 = uniform (default 1.1)\n\
     \x20 --batch N            requests per SuggestBatch frame (default 16)\n\
     \x20 --mix S:B:C:R        weights for suggest:batch:check:reload (default 55:20:24:1)\n\
     \x20 --slo-p99-ms MS      p99 objective for the SLO verdict (default 50)\n\
     \x20 --chaos SEED:SPEC    interpose a deterministic fault-injecting proxy in front of\n\
     \x20                      --addr and tolerate the injected faults; SPEC is a comma list\n\
     \x20                      of none|reset|blackhole|delay:MS[:JIT]|trunc:N|corrupt:N|\n\
     \x20                      stall[:N:MS]|mixed, each optionally @req/@resp/@both\n\
     \x20 --smoke              CI preset: 2 s runs over 1,4 connections\n\
     \x20 --shutdown           ask the gateway to exit after the sweep\n"
        .to_string()
}

struct Args {
    config: LoadgenConfig,
    connections: Vec<usize>,
    chaos: Option<dssddi_chaos::FaultPlan>,
    shutdown: bool,
}

fn parse_connections(spec: &str) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let n: usize = part
            .trim()
            .parse()
            .map_err(|e| format!("bad connection count {part:?}: {e}"))?;
        if n == 0 {
            return Err("connection counts must be at least 1".to_string());
        }
        out.push(n);
    }
    if out.is_empty() {
        return Err("empty connection sweep".to_string());
    }
    Ok(out)
}

fn parse_targets(spec: &str) -> Result<Vec<String>, String> {
    let out: Vec<String> = spec
        .split(',')
        .map(|part| part.trim().to_string())
        .collect();
    if out.is_empty() || out.iter().any(|t| t.is_empty()) {
        return Err(format!(
            "bad --target {spec:?}: expected a comma-separated list of HOST:PORT"
        ));
    }
    Ok(out)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut addr: Option<String> = None;
    let mut targets: Option<Vec<String>> = None;
    let mut fault_tolerant = false;
    let mut connections = vec![4usize];
    let mut rate = 200.0f64;
    let mut duration_s = 5.0f64;
    let mut seed = 17u64;
    let mut zipf = 1.1f64;
    let mut batch = 16usize;
    let mut mix = WorkloadMix::default();
    let mut slo_p99_ms = 50.0f64;
    let mut chaos = None;
    let mut smoke = false;
    let mut shutdown = false;

    let mut i = 0;
    while i < argv.len() {
        #[expect(
            clippy::indexing_slicing,
            reason = "`i < argv.len()` by the loop condition"
        )]
        let arg = argv[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg {
            "--addr" => addr = Some(value("--addr")?),
            "--target" => targets = Some(parse_targets(&value("--target")?)?),
            "--fault-tolerant" => fault_tolerant = true,
            "--connections" => connections = parse_connections(&value("--connections")?)?,
            "--rate" => {
                rate = value("--rate")?
                    .parse()
                    .map_err(|e| format!("bad --rate: {e}"))?;
            }
            "--duration-s" => {
                duration_s = value("--duration-s")?
                    .parse()
                    .map_err(|e| format!("bad --duration-s: {e}"))?;
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--zipf" => {
                zipf = value("--zipf")?
                    .parse()
                    .map_err(|e| format!("bad --zipf: {e}"))?;
            }
            "--batch" => {
                batch = value("--batch")?
                    .parse()
                    .map_err(|e| format!("bad --batch: {e}"))?;
            }
            "--mix" => mix = WorkloadMix::parse(&value("--mix")?)?,
            "--slo-p99-ms" => {
                slo_p99_ms = value("--slo-p99-ms")?
                    .parse()
                    .map_err(|e| format!("bad --slo-p99-ms: {e}"))?;
            }
            "--chaos" => {
                chaos = Some(
                    dssddi_chaos::FaultPlan::parse(&value("--chaos")?)
                        .map_err(|e| format!("bad --chaos: {e}"))?,
                );
            }
            "--smoke" => smoke = true,
            "--shutdown" => shutdown = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n\n{}", usage())),
        }
        i += 1;
    }
    let targets = match (addr, targets) {
        (Some(_), Some(_)) => {
            return Err(format!(
                "--addr and --target are mutually exclusive\n\n{}",
                usage()
            ))
        }
        (Some(addr), None) => vec![addr],
        (None, Some(targets)) => targets,
        (None, None) => return Err(format!("--addr or --target is required\n\n{}", usage())),
    };
    if chaos.is_some() && targets.len() > 1 {
        return Err(
            "--chaos interposes one proxy in front of one gateway; it cannot fan out \
             over a --target list"
                .to_string(),
        );
    }
    if smoke {
        connections = vec![1, 4];
        duration_s = 2.0;
    }
    if !(duration_s.is_finite() && duration_s > 0.0) {
        return Err(format!("--duration-s must be positive, got {duration_s}"));
    }
    let mut config = LoadgenConfig::new(String::new());
    config.targets = targets;
    config.rate = rate;
    config.duration = Duration::from_secs_f64(duration_s);
    config.seed = seed;
    config.zipf_exponent = zipf;
    config.batch_size = batch;
    config.mix = mix;
    config.slo_p99_ms = slo_p99_ms;
    config.fault_tolerant = fault_tolerant || chaos.is_some();
    Ok(Args {
        config,
        connections,
        chaos,
        shutdown,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };

    // The gateways' real addresses — kept for --shutdown so the requests
    // do not go through the chaos proxy (which might corrupt them).
    let direct_targets = args.config.targets.clone();
    let chaos_handle = match args.chaos.take() {
        Some(plan) => {
            use std::net::ToSocketAddrs;
            // parse_args rejects --chaos with more than one target.
            let direct_addr = direct_targets.first().cloned().unwrap_or_default();
            let upstream = match direct_addr
                .to_socket_addrs()
                .ok()
                .and_then(|mut addrs| addrs.next())
            {
                Some(addr) => addr,
                None => {
                    eprintln!("dssddi-loadgen: cannot resolve --addr {direct_addr}");
                    std::process::exit(2);
                }
            };
            let listen = match "127.0.0.1:0".parse() {
                Ok(listen) => listen,
                Err(e) => {
                    eprintln!("dssddi-loadgen: internal listen address: {e}");
                    std::process::exit(2);
                }
            };
            let seed = plan.seed();
            let handle = dssddi_chaos::ChaosProxy::bind(listen, upstream, plan)
                .and_then(dssddi_chaos::ChaosProxy::spawn);
            match handle {
                Ok(handle) => {
                    eprintln!(
                        "dssddi-loadgen: chaos proxy {} -> {} (seed {seed})",
                        handle.addr(),
                        upstream
                    );
                    args.config.targets = vec![handle.addr().to_string()];
                    Some(handle)
                }
                Err(e) => {
                    eprintln!("dssddi-loadgen: cannot start chaos proxy: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => None,
    };

    let mut all_slos_met = true;
    for &connections in &args.connections {
        let mut config = args.config.clone();
        config.connections = connections;
        eprintln!(
            "dssddi-loadgen: driving {} with {} connection(s) at {} frames/s for {:.1}s ...",
            config.targets.join(","),
            connections,
            config.rate,
            config.duration.as_secs_f64()
        );
        let report = match dssddi_loadgen::run(&config) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("dssddi-loadgen: run failed: {e}");
                std::process::exit(1);
            }
        };
        print!("{}", report.render());
        all_slos_met &= report.slo_met();
    }

    if let Some(handle) = chaos_handle {
        let counts = handle.counts();
        println!(
            "chaos proxy: {} connection(s), {} delays, {} truncations, {} corruptions, \
             {} resets, {} stalls, {} black-holed, {} upstream failures, {} bytes forwarded",
            counts.connections,
            counts.delays,
            counts.truncations,
            counts.corruptions,
            counts.resets,
            counts.stalls,
            counts.black_holes,
            counts.upstream_failures,
            counts.bytes_forwarded
        );
        handle.shutdown();
    }

    if args.shutdown {
        for target in &direct_targets {
            match dssddi_serving::Client::connect(target.as_str()) {
                Ok(client) => {
                    if let Err(e) = client.shutdown() {
                        eprintln!("dssddi-loadgen: shutdown request to {target} failed: {e}");
                        std::process::exit(1);
                    }
                    println!("gateway {target} acknowledged shutdown");
                }
                Err(e) => {
                    eprintln!("dssddi-loadgen: cannot reconnect to {target} for shutdown: {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    if !all_slos_met {
        eprintln!("dssddi-loadgen: at least one run missed its SLO");
    }
}
