//! The DSSDDI serving gateway binary.
//!
//! Loads one or more trained `DSSD` model files into a [`ModelCatalog`] and
//! serves them over TCP with the versioned wire protocol — the *train →
//! save → serve → query* deployment story of the decision support system.
//! With `--peer` flags the process becomes one replica of a group: a
//! seeded anti-entropy agent keeps its catalog converged with its peers
//! (see [`dssddi_replica`]).
//!
//! ```text
//! dssddi-serve [--listen ADDR] [--metrics-listen ADDR] [--demo] [--seed S]
//!              [--kb KEY=PATH.dskb ...]
//!              [--peer ADDR ...] [--sync-interval-ms MS]
//!              [--max-in-flight N] [--queue-depth N] [--queue-wait-ms MS]
//!              [--rate-default RPS[:BURST]] [--rate KEY=RPS[:BURST] ...]
//!              [--quota KEY=N ...] [KEY=PATH.dssd ...]
//!
//!   --listen ADDR   address to bind (default 127.0.0.1:7878; port 0 picks
//!                   an ephemeral port, printed on startup)
//!   --metrics-listen ADDR   also serve Prometheus-text metrics over HTTP
//!                   at `GET /metrics` on ADDR (off by default; port 0
//!                   picks an ephemeral port, printed on startup as
//!                   `dssddi-serve metrics listening on <addr>`)
//!   --demo          train and serve the deterministic demo catalog
//!                   (shards "chronic" and "critique") instead of, or in
//!                   addition to, loading files
//!   --seed S        demo training seed (default 7)
//!   --kb KEY=PATH   load PATH (a KnowledgeBase::save DSKB file) as the
//!                   clinical knowledge base of shard KEY; repeatable.
//!                   Shards without one critique against a KB seeded from
//!                   their own DDI graph (severity defaults by sign).
//!   KEY=PATH        load PATH (a DecisionService::save file) under the
//!                   routing key KEY; repeatable
//!
//! Replication (each replica lists every OTHER replica as a peer; the
//! group converges by pulling whole containers from whoever is ahead):
//!
//!   --peer ADDR             a peer replica's address; repeatable. Arms
//!                           the anti-entropy agent and the ReplicaStats
//!                           section of Stats responses.
//!   --sync-interval-ms MS   pause between anti-entropy rounds (default
//!                           500; jittered per replica so loops drift
//!                           apart instead of polling in lock-step)
//!
//! Admission control (all opt-in; excess load is shed with typed
//! `Overloaded` error frames instead of stalling or collapsing):
//!
//!   --max-in-flight N       at most N routed calls execute concurrently
//!                           across the gateway
//!   --queue-depth N         callers allowed to wait for a free slot when
//!                           all are busy (default 0: shed immediately)
//!   --queue-wait-ms MS      longest a queued caller waits before it is
//!                           shed (default 100 ms)
//!   --rate-default RPS[:BURST]  token-bucket rate limit for every shard
//!                           without an explicit --rate (BURST defaults to
//!                           one second of RPS)
//!   --rate KEY=RPS[:BURST]  per-shard rate limit; repeatable
//!   --quota KEY=N           at most N routed calls in flight for one
//!                           shard; repeatable
//! ```
//!
//! On startup the gateway prints exactly one line
//! `dssddi-serve listening on <addr>` to stdout, so wrappers (CI, scripts)
//! can scrape the ephemeral port. It exits cleanly when a client sends the
//! `Shutdown` message.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use dssddi_obs::scrape::MetricsServer;
use dssddi_replica::{ReplicaAgent, ReplicaGroup};
use dssddi_serving::demo::{demo_catalog, DEMO_SEED};
use dssddi_serving::{AdmissionConfig, ModelCatalog, ModelKey, RateLimit, Router, Server};

struct Args {
    listen: String,
    metrics_listen: Option<String>,
    demo: bool,
    seed: u64,
    models: Vec<(String, String)>,
    kbs: Vec<(String, String)>,
    peers: Vec<String>,
    sync_interval: Duration,
    admission: AdmissionConfig,
}

fn usage() -> &'static str {
    "usage: dssddi-serve [--listen ADDR] [--metrics-listen ADDR] [--demo] \
     [--seed S] [--kb KEY=PATH.dskb ...] [--peer ADDR ...] [--sync-interval-ms MS] \
     [--max-in-flight N] [--queue-depth N] \
     [--queue-wait-ms MS] [--rate-default RPS[:BURST]] \
     [--rate KEY=RPS[:BURST] ...] [--quota KEY=N ...] [KEY=PATH.dssd ...]\n\
     serve trained DSSD model files (or the --demo catalog) over TCP, each \
     paired with a clinical knowledge base (--kb, or seeded from the \
     shard's DDI graph); --peer flags make the process one replica of a \
     group kept converged by anti-entropy; admission flags shed excess \
     load with typed Overloaded errors instead of stalling; \
     --metrics-listen serves Prometheus metrics at GET /metrics"
}

/// Parses `RPS` or `RPS:BURST` into a validated rate limit (burst defaults
/// to one second of the rate).
fn parse_rate(spec: &str) -> Result<RateLimit, String> {
    let (rate, burst) = match spec.split_once(':') {
        Some((rate, burst)) => (
            rate.parse::<f64>()
                .map_err(|e| format!("invalid rate {rate:?}: {e}"))?,
            burst
                .parse::<f64>()
                .map_err(|e| format!("invalid burst {burst:?}: {e}"))?,
        ),
        None => {
            let rate = spec
                .parse::<f64>()
                .map_err(|e| format!("invalid rate {spec:?}: {e}"))?;
            (rate, rate)
        }
    };
    RateLimit::new(rate, burst).map_err(|e| e.to_string())
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        listen: "127.0.0.1:7878".to_string(),
        metrics_listen: None,
        demo: false,
        seed: DEMO_SEED,
        models: Vec::new(),
        kbs: Vec::new(),
        peers: Vec::new(),
        sync_interval: Duration::from_millis(500),
        admission: AdmissionConfig {
            queue_wait: Duration::from_millis(100),
            ..AdmissionConfig::default()
        },
    };
    let mut i = 0;
    while let Some(arg) = args.get(i) {
        match arg.as_str() {
            "--listen" => {
                i += 1;
                parsed.listen = args
                    .get(i)
                    .ok_or("--listen needs an address argument")?
                    .clone();
            }
            "--metrics-listen" => {
                i += 1;
                parsed.metrics_listen = Some(
                    args.get(i)
                        .ok_or("--metrics-listen needs an address argument")?
                        .clone(),
                );
            }
            "--kb" => {
                i += 1;
                let spec = args.get(i).ok_or("--kb needs a KEY=PATH.dskb argument")?;
                let (key, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("invalid --kb {spec:?} (expected KEY=PATH.dskb)"))?;
                parsed.kbs.push((key.to_string(), path.to_string()));
            }
            "--demo" => parsed.demo = true,
            "--seed" => {
                i += 1;
                parsed.seed = args
                    .get(i)
                    .ok_or("--seed needs a number argument")?
                    .parse()
                    .map_err(|e| format!("invalid --seed: {e}"))?;
            }
            "--peer" => {
                i += 1;
                let addr = args.get(i).ok_or("--peer needs an address argument")?;
                parsed.peers.push(addr.clone());
            }
            "--sync-interval-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .ok_or("--sync-interval-ms needs a number argument")?
                    .parse()
                    .map_err(|e| format!("invalid --sync-interval-ms: {e}"))?;
                if ms == 0 {
                    return Err("--sync-interval-ms must be at least 1".to_string());
                }
                parsed.sync_interval = Duration::from_millis(ms);
            }
            "--max-in-flight" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .ok_or("--max-in-flight needs a number argument")?
                    .parse()
                    .map_err(|e| format!("invalid --max-in-flight: {e}"))?;
                if n == 0 {
                    return Err("--max-in-flight must be at least 1".to_string());
                }
                parsed.admission.max_in_flight = Some(n);
            }
            "--queue-depth" => {
                i += 1;
                parsed.admission.max_queue_depth = args
                    .get(i)
                    .ok_or("--queue-depth needs a number argument")?
                    .parse()
                    .map_err(|e| format!("invalid --queue-depth: {e}"))?;
            }
            "--queue-wait-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .ok_or("--queue-wait-ms needs a number argument")?
                    .parse()
                    .map_err(|e| format!("invalid --queue-wait-ms: {e}"))?;
                parsed.admission.queue_wait = Duration::from_millis(ms);
            }
            "--rate-default" => {
                i += 1;
                let spec = args
                    .get(i)
                    .ok_or("--rate-default needs an RPS[:BURST] argument")?;
                parsed.admission.default_rate = Some(parse_rate(spec)?);
            }
            "--rate" => {
                i += 1;
                let spec = args
                    .get(i)
                    .ok_or("--rate needs a KEY=RPS[:BURST] argument")?;
                let (key, rate) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("invalid --rate {spec:?} (expected KEY=RPS[:BURST])"))?;
                let key = ModelKey::new(key).map_err(|e| e.to_string())?;
                parsed.admission.rates.push((key, parse_rate(rate)?));
            }
            "--quota" => {
                i += 1;
                let spec = args.get(i).ok_or("--quota needs a KEY=N argument")?;
                let (key, quota) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("invalid --quota {spec:?} (expected KEY=N)"))?;
                let key = ModelKey::new(key).map_err(|e| e.to_string())?;
                let quota: u64 = quota
                    .parse()
                    .map_err(|e| format!("invalid --quota count: {e}"))?;
                if quota == 0 {
                    return Err("--quota must be at least 1".to_string());
                }
                parsed.admission.quotas.push((key, quota));
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => {
                let (key, path) = other.split_once('=').ok_or_else(|| {
                    format!("unrecognised argument {other:?} (model files are KEY=PATH)")
                })?;
                parsed.models.push((key.to_string(), path.to_string()));
            }
        }
        i += 1;
    }
    Ok(parsed)
}

fn build_catalog(args: &Args) -> Result<ModelCatalog, String> {
    let mut catalog = if args.demo {
        eprintln!(
            "dssddi-serve: training demo catalog (seed {}) ...",
            args.seed
        );
        let (catalog, _world) =
            demo_catalog(args.seed).map_err(|e| format!("training demo catalog: {e}"))?;
        catalog
    } else {
        ModelCatalog::new()
    };
    for (key, path) in &args.models {
        let key = ModelKey::new(key.as_str()).map_err(|e| e.to_string())?;
        catalog
            .load_file(key.clone(), path)
            .map_err(|e| format!("loading {path:?} as {key}: {e}"))?;
        eprintln!("dssddi-serve: loaded {path:?} as model {key:?}");
    }
    if catalog.is_empty() {
        return Err(format!("no models to serve\n{}", usage()));
    }
    for (key, path) in &args.kbs {
        let key = ModelKey::new(key.as_str()).map_err(|e| e.to_string())?;
        catalog
            .load_kb_file(&key, path)
            .map_err(|e| format!("loading {path:?} as knowledge base of {key}: {e}"))?;
        eprintln!("dssddi-serve: loaded {path:?} as knowledge base of {key:?}");
    }
    Ok(catalog)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let catalog = match build_catalog(&args) {
        Ok(catalog) => catalog,
        Err(message) => {
            eprintln!("dssddi-serve: {message}");
            return ExitCode::from(2);
        }
    };
    let keys: Vec<String> = catalog.keys().iter().map(|k| k.to_string()).collect();
    if !args.admission.is_unlimited() {
        eprintln!(
            "dssddi-serve: admission control armed (max in flight {:?}, queue depth {}, \
             queue wait {:?}, default rate {:?}, {} per-shard rates, {} quotas)",
            args.admission.max_in_flight,
            args.admission.max_queue_depth,
            args.admission.queue_wait,
            args.admission.default_rate,
            args.admission.rates.len(),
            args.admission.quotas.len(),
        );
    }
    // The router registers every metric family as it is built, so an early
    // scrape already lists them (at zero).
    let mut router = Router::with_admission(catalog, args.admission.clone());
    let metrics_server = match args.metrics_listen.as_deref() {
        Some(addr) => match MetricsServer::bind(addr, Arc::clone(router.registry())) {
            Ok(server) => {
                println!("dssddi-serve metrics listening on {}", server.local_addr());
                Some(server)
            }
            Err(error) => {
                eprintln!("dssddi-serve: cannot bind metrics endpoint {addr}: {error}");
                return ExitCode::from(1);
            }
        },
        None => None,
    };
    let replica = if args.peers.is_empty() {
        None
    } else {
        let group = match ReplicaGroup::parse(&args.peers) {
            Ok(group) => group,
            Err(error) => {
                eprintln!("dssddi-serve: {error}");
                return ExitCode::from(2);
            }
        };
        // Seed the sync jitter from the listen address so co-deployed
        // replicas (which differ exactly there) drift apart.
        let seed = args
            .listen
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |acc, b| {
                (acc ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            });
        let group = group.with_sync_interval(args.sync_interval).with_seed(seed);
        Some((group, router.attach_replica()))
    };
    let server = match Server::bind(args.listen.as_str(), router) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("dssddi-serve: cannot bind {}: {error}", args.listen);
            return ExitCode::from(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            // The single scrape-able startup line; everything else goes to
            // stderr so wrappers can rely on stdout's shape.
            println!("dssddi-serve listening on {addr}");
            eprintln!("dssddi-serve: serving models: {}", keys.join(", "));
        }
        Err(error) => {
            eprintln!("dssddi-serve: cannot read bound address: {error}");
            return ExitCode::from(1);
        }
    }
    let agent = replica.map(|(group, state)| {
        eprintln!(
            "dssddi-serve: replica group armed ({} peers, sync interval {:?})",
            group.len(),
            group.sync_interval(),
        );
        ReplicaAgent::new(group, server.router_arc(), state).spawn()
    });
    let outcome = server.run();
    if let Some(agent) = agent {
        agent.stop();
    }
    drop(metrics_server); // joins the scrape thread before exit
    match outcome {
        Ok(()) => {
            eprintln!("dssddi-serve: shutdown complete");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("dssddi-serve: server failed: {error}");
            ExitCode::from(1)
        }
    }
}
