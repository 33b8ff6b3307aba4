//! Serving benchmark of the `dssddi-serve` gateway.
//!
//! ```text
//! perfbench --gateway PATH --work-dir DIR [--workload critique|suggest|clinic_mixed|all]
//!           [--seed N] [--seconds S] [--trace 0|1|both]
//! ```
//!
//! Starts the gateway binary on loopback from fixed fixture containers and
//! drives it open loop over two connections with seeded Poisson traffic.
//! `--trace 0` measures the end-to-end metrics (set-up time, peak memory,
//! gateway CPU per request) and reports latency at the workload's light and
//! heavy rates and write latency. `--trace 1` is the separate traced run: a
//! traced and an untraced phase at the light rate, then an in-process replay
//! of the traced phase that times every layer. Both check a seeded sample of
//! answers against the in-process service and print a report, ending with
//! one JSON line. The defaults run both passes of every workload with seed
//! 1 for 20 s each. `perfbench/run.sh` builds both binaries and runs this; see
//! `perfbench/README.md`.

mod fixture;
mod gateway;
mod openloop;
mod reference;
mod replay;
mod stats;
mod traffic;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dssddi_serving::{Client, ModelKey};

use crate::fixture::Fixtures;
use crate::gateway::{Gateway, HostCpu, Scrape, CLIENT_TIMEOUT};
use crate::openloop::{Failure, Sent};
use crate::reference::Reference;
use crate::replay::{Replay, Spans, Timings};
use crate::stats::{mean, median, quantile, ratio};
use crate::traffic::{Frame, Plan, TrafficGen, Workload};

const USAGE: &str = "usage: perfbench --gateway PATH --work-dir DIR \
     [--workload critique|suggest|clinic_mixed|all] [--seed N] [--seconds S] \
     [--trace 0|1|both]";

/// Gateway starts per untraced run; `setup_s` is their median. A start
/// takes about 5 ms, so a single host stall can double one; many starts
/// keep the median on the typical start.
const SETUP_ROUNDS: usize = 31;

/// Replays of the gateway's set-up decoding per traced run.
const SETUP_REPLAYS: usize = 5;

/// Untimed traffic at the phase rate before each timed phase.
const WARMUP: Duration = Duration::from_millis(1500);

const LEVELS: [&str; 2] = ["light", "heavy"];

/// Writes sent to an idle gateway after the phases of workloads that send
/// none in traffic, half of each kind.
const IDLE_WRITES: usize = 24;

/// Sequential pings behind `transport.ping_us.p50`.
const PINGS: usize = 2000;

const GATEWAY_REQUESTS: &str = "dssddi_serving_requests_total";
const GATEWAY_LATENCY: &str = "dssddi_serving_latency_micros";
const GATEWAY_STAGES: &str = "dssddi_serving_stage_micros";
const STAGES: [&str; 5] = ["decode", "admit", "queue", "infer", "encode"];

struct Args {
    gateway: PathBuf,
    work_dir: PathBuf,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// The passes to run: untraced (`false`), traced (`true`) or both.
    traces: Vec<bool>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str, default: Option<&'static str>| -> Result<String, String> {
        match argv.iter().position(|a| a == name) {
            Some(at) => argv
                .get(at + 1)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value")),
            None => default
                .map(str::to_string)
                .ok_or_else(|| format!("missing {name}")),
        }
    };
    let workloads = match flag("--workload", Some("all"))?.as_str() {
        "all" => Workload::ALL.to_vec(),
        name => vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?],
    };
    let seconds: f64 = flag("--seconds", Some("20"))?
        .parse()
        .map_err(|e| format!("invalid --seconds: {e}"))?;
    if !(2.0..=600.0).contains(&seconds) {
        return Err("--seconds must lie in 2..=600".to_string());
    }
    Ok(Args {
        gateway: PathBuf::from(flag("--gateway", None)?),
        work_dir: PathBuf::from(flag("--work-dir", None)?),
        workloads,
        seed: flag("--seed", Some("1"))?
            .parse()
            .map_err(|e| format!("invalid --seed: {e}"))?,
        seconds,
        traces: match flag("--trace", Some("both"))?.as_str() {
            "0" => vec![false],
            "1" => vec![true],
            "both" => vec![false, true],
            other => return Err(format!("--trace must be 0, 1 or both, not {other:?}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args).and_then(|outcome| outcome.json()) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one invocation reports: the JSON line's fields.
#[derive(Default)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn json(&self) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let fixtures = Fixtures::load_or_build(&args.work_dir.join("fixtures"))?;
    let reference = Reference::new(&fixtures)?;
    let mut total = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let passes = args
        .workloads
        .iter()
        .flat_map(|&w| args.traces.iter().map(move |&traced| (w, traced)));
    for (workload, traced) in passes {
        println!(
            "== workload {} (seed {}, trace {})",
            workload.name(),
            args.seed,
            u8::from(traced)
        );
        let outcome = if traced {
            traced_run(args, workload, &fixtures, &reference)?
        } else {
            untraced_run(args, workload, &fixtures, &reference)?
        };
        total.correct &= outcome.correct;
        total.attempted += outcome.attempted;
        total.failed += outcome.failed;
        for (name, value, unit) in outcome.metrics {
            let name = if args.workloads.len() > 1 {
                format!("{}.{name}", workload.name())
            } else {
                name
            };
            println!("metric {name} = {value} {unit}");
            total.metrics.push((name, value, unit));
        }
    }
    Ok(total)
}

/// Everything measured about one phase of open-loop traffic.
struct Phase<'p> {
    label: String,
    plan: &'p Plan,
    sent: Vec<Sent<'p>>,
    gateway_cpu_s: f64,
    steal_pct: f64,
    before: Scrape,
    after: Scrape,
    /// Explanation-cache `(hits, misses)` of the shard during the phase;
    /// `None` when a model reload restarted the counters.
    cache: Option<(u64, u64)>,
}

impl<'p> Phase<'p> {
    /// Runs `plan` against the gateway, bracketed by `/metrics` scrapes and
    /// CPU readings.
    fn run(
        label: String,
        gateway: &Gateway,
        shard: &ModelKey,
        fixtures: &Fixtures,
        plan: &'p Plan,
        traced: bool,
    ) -> Result<Self, String> {
        let cache_before = gateway.cache_counts(shard)?;
        let before = gateway.scrape()?;
        let (cpu, host) = (gateway.cpu_seconds()?, HostCpu::read()?);
        let sent = openloop::run(gateway.addr, shard, fixtures, plan, traced)?;
        let gateway_cpu_s = gateway.cpu_seconds()? - cpu;
        let steal_pct = HostCpu::read()?.steal_pct_since(&host);
        let after = gateway.scrape()?;
        let cache_after = gateway.cache_counts(shard)?;
        let reloaded = sent
            .iter()
            .any(|s| matches!(s.planned.frame, Frame::ReloadModel));
        let cache = (!reloaded).then(|| {
            (
                cache_after.0 - cache_before.0,
                cache_after.1 - cache_before.1,
            )
        });
        Ok(Self {
            label,
            plan,
            sent,
            gateway_cpu_s,
            steal_pct,
            before,
            after,
            cache,
        })
    }

    /// Data-plane requests the client attempted.
    fn requests(&self) -> u64 {
        self.sent.iter().map(|s| s.planned.frame.requests()).sum()
    }

    /// Gateway CPU per answered data-plane request, ms.
    fn cpu_ms_per_req(&self) -> f64 {
        1e3 * ratio(self.gateway_cpu_s, self.answered() as f64)
    }

    /// Data-plane requests answered without error.
    fn answered(&self) -> u64 {
        self.sent
            .iter()
            .filter(|s| s.outcome.is_ok())
            .map(|s| s.planned.frame.requests())
            .sum()
    }

    /// Latencies from the due time of the data-plane frames, ms; a failed
    /// frame counts as infinitely late.
    fn latencies_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .filter(|s| !s.planned.frame.is_write())
            .map(|s| match s.outcome {
                Ok(_) => s.latency.as_secs_f64() * 1e3,
                Err(_) => f64::INFINITY,
            })
            .collect()
    }

    /// Latencies of the answered writes of one kind, ms.
    fn write_latencies_ms(&self, model: bool) -> Vec<f64> {
        self.sent
            .iter()
            .filter(|s| s.outcome.is_ok())
            .filter(|s| match s.planned.frame {
                Frame::ReloadModel => model,
                Frame::ReloadKb => !model,
                _ => false,
            })
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect()
    }

    fn late_p99_ms(&self) -> f64 {
        let late: Vec<f64> = self
            .sent
            .iter()
            .map(|s| s.late.as_secs_f64() * 1e3)
            .collect();
        quantile(&late, 0.99)
    }

    /// Mean gateway time per frame of one stage, µs, from `/metrics` deltas.
    fn stage_us(&self, stage: &str) -> Result<f64, String> {
        self.after.mean_since(
            &self.before,
            GATEWAY_STAGES,
            &format!("{{stage=\"{stage}\"}}"),
        )
    }

    /// Client mean time from send to answer minus the gateway's own mean
    /// per-frame latency, µs: time spent outside the gateway's stages.
    fn outside_us(&self) -> Result<f64, String> {
        let client: Vec<f64> = self
            .sent
            .iter()
            .map(|s| s.service.as_secs_f64() * 1e6)
            .collect();
        Ok(mean(&client) - self.after.mean_since(&self.before, GATEWAY_LATENCY, "")?)
    }

    /// Checks the gateway's request counter against the client's count and
    /// prints the phase summary; returns whether the counts agree.
    fn report(&self) -> Result<bool, String> {
        let requests = self.requests();
        let counted = self.after.delta(&self.before, GATEWAY_REQUESTS)?;
        let failed = requests - self.answered();
        let latencies = self.latencies_ms();
        let mut line = format!(
            "phase {}: offered {}/s for {:.1} s; frames {}, requests sent {requests}, \
             succeeded {}, failed {failed}; p50 {:.4} ms, p99 {:.4} ms over {} frames; \
             gen.late_ms.p99 {:.4}; host.steal_pct {:.2}; gateway cpu {:.3} s; stages µs/frame:",
            self.label,
            self.plan.rate,
            self.plan.duration.as_secs_f64(),
            self.sent.len(),
            requests - failed,
            quantile(&latencies, 0.5),
            quantile(&latencies, 0.99),
            latencies.len(),
            self.late_p99_ms(),
            self.steal_pct,
            self.gateway_cpu_s,
        );
        for stage in STAGES {
            let _ = write!(line, " {stage} {:.2}", self.stage_us(stage)?);
        }
        if let Some((hits, misses)) = self.cache {
            let _ = write!(
                line,
                "; explanation cache {hits} hits of {} lookups",
                hits + misses
            );
        }
        let agrees = counted == requests as f64;
        let _ = write!(
            line,
            "; {GATEWAY_REQUESTS} delta {counted} {}",
            if agrees {
                "matches"
            } else {
                "DIFFERS from the client count"
            }
        );
        println!("{line}");
        Ok(agrees)
    }
}

/// Failed requests of a phase's frames: typed errors and transport faults
/// as counted by the client, plus answers that differ from the in-process
/// service.
fn failures(phase_sent: &[Sent], shard: &ModelKey, reference: &Reference) -> Result<u64, String> {
    let mut failed = 0;
    for sent in phase_sent {
        let weight = sent.planned.frame.requests().max(1);
        match &sent.outcome {
            Err(Failure::Typed(e)) | Err(Failure::Transport(e)) => {
                if failed == 0 {
                    println!("first failure: {} {e}", sent.planned.frame.op());
                }
                failed += weight;
            }
            Ok(Some(answer)) => {
                let (wrong, what) = reference.mismatches(shard, &sent.planned.frame, answer)?;
                if let (Some(what), 0) = (what, failed) {
                    println!("first mismatch: {what}");
                }
                failed += wrong;
            }
            Ok(None) => {}
        }
    }
    Ok(failed)
}

/// Requests attempted (a write frame counts as one) and failed over the
/// given frame records; prints both and their ratio.
fn tally(runs: &[&[Sent]], shard: &ModelKey, reference: &Reference) -> Result<(u64, u64), String> {
    let mut attempted = 0;
    let mut failed = 0;
    for sent in runs {
        attempted += sent
            .iter()
            .map(|s| s.planned.frame.requests().max(1))
            .sum::<u64>();
        failed += failures(sent, shard, reference)?;
    }
    println!(
        "requests: attempted {attempted}, failed {failed}, failed_frac {}",
        ratio(failed as f64, attempted as f64)
    );
    Ok((attempted, failed))
}

/// The shard a workload routes to and its seeded traffic source.
fn traffic<'f>(
    args: &Args,
    workload: Workload,
    fixtures: &'f Fixtures,
    reference: &Reference,
) -> Result<(ModelKey, TrafficGen<'f>), String> {
    let shard = ModelKey::new(workload.shard()).map_err(|e| e.to_string())?;
    let service = reference.fitted();
    let n_features = service.n_features().ok_or("fitted fixture has no model")?;
    let n_drugs = service.registry().len();
    let traffic = TrafficGen::new(workload, args.seed, n_features, n_drugs, &fixtures.regimens);
    Ok((shard, traffic))
}

fn untraced_run(
    args: &Args,
    workload: Workload,
    fixtures: &Fixtures,
    reference: &Reference,
) -> Result<Outcome, String> {
    let (shard, mut traffic) = traffic(args, workload, fixtures, reference)?;
    let phase_len = Duration::from_secs_f64(args.seconds / 2.0);
    let plans = workload
        .rates()
        .map(|rate| (traffic.plan(rate, WARMUP), traffic.plan(rate, phase_len)));

    let mut setup = Vec::with_capacity(SETUP_ROUNDS);
    let mut live = None;
    for round in 0..SETUP_ROUNDS {
        let log = args.work_dir.join("gateway.log");
        let (gateway, took) = Gateway::start(&args.gateway, &fixtures.gateway_args(), &log)?;
        setup.push(took.as_secs_f64());
        if round + 1 == SETUP_ROUNDS {
            live = Some(gateway);
        }
        // Otherwise dropping the gateway kills and reaps it.
    }
    let gateway = live.ok_or("no gateway was started")?;
    println!(
        "setup: {} gateway starts, spawn to first ping: median {:.4} s, quartiles {:.4}–{:.4} s",
        setup.len(),
        median(&setup),
        quantile(&setup, 0.25),
        quantile(&setup, 0.75)
    );

    let mut warm_sent = Vec::new();
    let mut phases = Vec::new();
    let mut correct = true;
    for ((warmup, plan), level) in plans.iter().zip(LEVELS) {
        warm_sent.extend(openloop::run(
            gateway.addr,
            &shard,
            fixtures,
            warmup,
            false,
        )?);
        let label = format!("{}/{level}", workload.name());
        let phase = Phase::run(label, &gateway, &shard, fixtures, plan, false)?;
        correct &= phase.report()?;
        phases.push(phase);
    }

    let writes = |model: bool| -> Vec<f64> {
        phases
            .iter()
            .flat_map(|p| p.write_latencies_ms(model))
            .collect()
    };
    let (mut model_writes, mut kb_writes) = (writes(true), writes(false));
    if model_writes.is_empty() {
        // Workloads without writes in their traffic time reloads of the
        // fitted shard on the idle gateway after the phases.
        let write_shard = ModelKey::new(fixture::FITTED_KEY).map_err(|e| e.to_string())?;
        let mut client = Client::connect_timeout(gateway.addr, CLIENT_TIMEOUT)
            .map_err(|e| format!("connecting for writes: {e}"))?;
        for _ in 0..IDLE_WRITES / 2 {
            for (frame, latencies) in [
                (Frame::ReloadModel, &mut model_writes),
                (Frame::ReloadKb, &mut kb_writes),
            ] {
                let started = Instant::now();
                let answer = openloop::send(&mut client, &write_shard, fixtures, &frame)
                    .map_err(|e| format!("idle {}: {e}", frame.op()))?;
                latencies.push(started.elapsed().as_secs_f64() * 1e3);
                if let (_, Some(what)) = reference.mismatches(&write_shard, &frame, &answer)? {
                    return Err(what);
                }
            }
        }
        println!("idle writes: {IDLE_WRITES} reloads after the phases");
    }
    let rss_mb = gateway.peak_rss_mb()?;
    gateway.stop()?;

    let mut runs: Vec<&[Sent]> = vec![&warm_sent];
    runs.extend(phases.iter().map(|p| &p.sent[..]));
    let (attempted, failed) = tally(&runs, &shard, reference)?;
    // Wall-clock latency is reported, not gated: on a shared 2-vCPU host it
    // moves with the hypervisor's CPU steal far more than any bound allows.
    // So does gateway CPU at the heavy rate, where the gateway's own load
    // drives steal up to 40%.
    for (phase, level) in phases.iter().zip(LEVELS) {
        if level == "heavy" {
            println!(
                "report cpu_ms_per_req.heavy = {} ms",
                phase.cpu_ms_per_req()
            );
        }
        let latencies = phase.latencies_ms();
        for (q, name) in [(0.5, "p50"), (0.99, "p99")] {
            println!(
                "report {name}_ms.{level} = {} ms over {} frames",
                quantile(&latencies, q),
                latencies.len()
            );
        }
    }
    println!(
        "report write_p50_ms = {} ms (median ReloadModel {} ms over {} frames, median \
         ReloadKb {} ms over {} frames)",
        (median(&model_writes) + median(&kb_writes)) / 2.0,
        median(&model_writes),
        model_writes.len(),
        median(&kb_writes),
        kb_writes.len()
    );

    let mut outcome = Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    outcome.metric("setup_s", median(&setup), "s");
    outcome.metric("rss_mb", rss_mb, "MB");
    outcome.metric("cpu_ms_per_req.light", phases[0].cpu_ms_per_req(), "ms");
    Ok(outcome)
}

fn traced_run(
    args: &Args,
    workload: Workload,
    fixtures: &Fixtures,
    reference: &Reference,
) -> Result<Outcome, String> {
    let (shard, mut traffic) = traffic(args, workload, fixtures, reference)?;
    let [rate, _] = workload.rates();
    let phase_len = Duration::from_secs_f64(args.seconds / 2.0);
    let warmup = traffic.plan(rate, WARMUP);
    let traced_plan = traffic.plan(rate, phase_len);
    let untraced_plan = traffic.plan(rate, phase_len);

    let log = args.work_dir.join("gateway.log");
    let (gateway, _) = Gateway::start(&args.gateway, &fixtures.gateway_args(), &log)?;
    let warm_sent = openloop::run(gateway.addr, &shard, fixtures, &warmup, false)?;
    let name = workload.name();
    let traced = Phase::run(
        format!("{name}/light traced"),
        &gateway,
        &shard,
        fixtures,
        &traced_plan,
        true,
    )?;
    let untraced = Phase::run(
        format!("{name}/light"),
        &gateway,
        &shard,
        fixtures,
        &untraced_plan,
        false,
    )?;
    let counts_agree = [traced.report()?, untraced.report()?];
    let mut client = Client::connect_timeout(gateway.addr, CLIENT_TIMEOUT)
        .map_err(|e| format!("connecting for pings: {e}"))?;
    let pings = (0..PINGS)
        .map(|_| client.ping().map(|rtt| rtt.as_secs_f64() * 1e6))
        .collect::<Result<Vec<f64>, _>>()
        .map_err(|e| format!("ping: {e}"))?;
    drop(client);
    gateway.stop()?;

    let mut replay = Replay::new(fixtures, &shard)?;
    for planned in warmup.merged() {
        replay.frame(&shard, planned)?;
    }
    replay.clear();
    replay.setup(SETUP_REPLAYS)?;
    for planned in traced_plan.merged() {
        replay.frame(&shard, planned)?;
    }
    let mut client_spans = Spans::new();
    for sent in &traced.sent {
        client_spans.push(
            format!("client.{}", sent.planned.frame.op()),
            None,
            sent.planned.id,
            sent.start,
            sent.start + sent.service,
        );
    }
    let spans_dir = args.work_dir.join("spans");
    let stem = format!("{name}-seed{}", args.seed);
    write_spans(&spans_dir, &format!("{stem}-client.tsv"), &client_spans)?;
    write_spans(&spans_dir, &format!("{stem}-replay.tsv"), &replay.spans)?;

    let (attempted, failed) = tally(
        &[&warm_sent, &traced.sent, &untraced.sent],
        &shard,
        reference,
    )?;

    let timings = replay.spans.by_name();
    let mut names: Vec<&&str> = timings.keys().collect();
    names.sort();
    for name in names {
        let t = &timings[*name];
        println!(
            "span {name}: {} calls, mean {:.3} µs, p99 {:.3} µs, mean self {:.3} µs",
            t.durations.len(),
            mean(&t.durations),
            quantile(&t.durations, 0.99),
            mean(&t.self_times)
        );
    }
    let durations = |name: &str| timings.get(name).map_or(&[][..], |t| &t.durations[..]);
    let total = |names: &[&str]| -> f64 { names.iter().flat_map(|n| durations(n)).sum() };
    let services = ["service.suggest", "service.suggest_batch", "service.check"];
    println!(
        "ms.explain covers {:.2}% of DecisionService time",
        100.0 * ratio(total(&["ms.explain"]), total(&services))
    );
    let lookups = replay.cache_hits + replay.cache_misses;
    let hit_ratio = ratio(replay.cache_hits as f64, lookups as f64);
    println!("ms.cache_hit_ratio {hit_ratio:.4} over {lookups} lookups");

    let mut outcome = Outcome {
        correct: counts_agree.iter().all(|&c| c) && failed == 0,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    let mean_of = |name: &str| mean(durations(name));
    let p99_of = |name: &str| quantile(durations(name), 0.99);
    let self_mean = |names: &[&str]| {
        let selves: Vec<f64> = names
            .iter()
            .filter_map(|n| timings.get(n))
            .flat_map(|t: &Timings| t.self_times.iter().copied())
            .collect();
        mean(&selves)
    };
    let phases = [&traced, &untraced];
    let worst = |f: &dyn Fn(&Phase) -> f64| phases.iter().map(|p| f(p)).fold(0.0, f64::max);
    outcome.metric("gen.late_ms.p99", worst(&|p| p.late_p99_ms()), "ms");
    outcome.metric("host.steal_pct", worst(&|p| p.steal_pct), "%");
    outcome.metric("transport.ping_us.p50", median(&pings), "us");
    outcome.metric("transport.outside_us.mean", untraced.outside_us()?, "us");
    for stage in ["decode", "infer", "encode"] {
        outcome.metric(
            &format!("gateway.{stage}_us.mean"),
            untraced.stage_us(stage)?,
            "us",
        );
    }
    outcome.metric(
        "gateway.requests",
        untraced.after.delta(&untraced.before, GATEWAY_REQUESTS)?,
        "count",
    );
    for (metric, span) in [
        ("wire.encode_request_us.mean", "wire.encode_request"),
        ("wire.decode_request_us.mean", "wire.decode_request"),
        ("wire.encode_response_us.mean", "wire.encode_response"),
        ("wire.decode_response_us.mean", "wire.decode_response"),
    ] {
        outcome.metric(metric, mean_of(span), "us");
    }
    outcome.metric(
        "wire.response_bytes.mean",
        mean(&replay.response_bytes),
        "bytes",
    );
    outcome.metric("router.self_us.mean", self_mean(&["router.serve"]), "us");
    // Batches are served by parallel shards, so their children do not
    // partition their time: service self time covers the unsharded calls.
    outcome.metric(
        "service.self_us.mean",
        self_mean(&["service.suggest", "service.check"]),
        "us",
    );
    outcome.metric("ms.explain_us.mean", mean_of("ms.explain"), "us");
    outcome.metric("ms.explain_us.p99", p99_of("ms.explain"), "us");
    outcome.metric("ms.cache_lookups", lookups as f64, "count");
    outcome.metric("ms.cache_hit_ratio", hit_ratio, "ratio");
    outcome.metric("ms.index_build_us.mean", mean_of("ms.index_build"), "us");
    outcome.metric("graph.ctc_us.mean", mean_of("graph.ctc"), "us");
    outcome.metric("graph.ctc_us.p99", p99_of("graph.ctc"), "us");
    outcome.metric("graph.steiner_us.mean", mean_of("graph.steiner"), "us");
    outcome.metric("graph.truss_us.mean", mean_of("graph.truss"), "us");
    outcome.metric(
        "graph.community_nodes.mean",
        mean(&replay.community_nodes),
        "count",
    );
    outcome.metric("gnn.predict_us.mean", mean_of("gnn.predict"), "us");
    outcome.metric("kb.load_us.mean", mean_of("kb.load"), "us");
    outcome.metric(
        "persist.load_model_us.mean",
        mean_of("persist.load_model"),
        "us",
    );
    let p50 = |p: &Phase| quantile(&p.latencies_ms(), 0.5);
    outcome.metric(
        "obs.trace_overhead_pct",
        100.0 * ratio(p50(&traced) - p50(&untraced), p50(&untraced)),
        "%",
    );
    Ok(outcome)
}

/// Writes spans to `dir/name` as tab-separated lines.
fn write_spans(dir: &Path, name: &str, spans: &Spans) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, spans.to_tsv()).map_err(|e| format!("writing {}: {e}", path.display()))
}
