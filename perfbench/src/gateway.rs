//! The gateway under test: a `dssddi-serve` child process on loopback,
//! observed only from outside — its `/proc` entries, its `/metrics`
//! endpoint and the client.

use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use dssddi_serving::{Client, ModelKey};

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Longest wait for a freshly spawned gateway to answer its first ping.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// Longest wait for a gateway to exit after `Shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// Connect and response deadline of every benchmark client.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// A running `dssddi-serve` process. Dropping it kills and reaps the
/// process if [`Gateway::stop`] did not already end it.
pub struct Gateway {
    child: Child,
    /// Held open so a late write to stdout never meets a closed pipe.
    stdout: BufReader<ChildStdout>,
    /// The data-plane address.
    pub addr: SocketAddr,
    metrics_addr: SocketAddr,
}

impl Gateway {
    /// Spawns `binary` on ephemeral loopback ports with `args`, sending its
    /// stderr to `log`, and returns it together with the set-up time: from
    /// spawn to the first answered `Ping`.
    pub fn start(binary: &Path, args: &[String], log: &Path) -> Result<(Self, Duration), String> {
        let log_file = File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        let spawned = Instant::now();
        let mut child = Command::new(binary)
            .args(["--listen", "127.0.0.1:0", "--metrics-listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut gateway = Gateway {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            metrics_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        // `dssddi-serve` prints its metrics address, then its data address.
        for (prefix, slot) in [
            (
                "dssddi-serve metrics listening on ",
                &mut gateway.metrics_addr,
            ),
            ("dssddi-serve listening on ", &mut gateway.addr),
        ] {
            let mut line = String::new();
            let read = gateway.stdout.read_line(&mut line);
            let addr = line
                .trim()
                .strip_prefix(prefix)
                .map(str::parse::<SocketAddr>);
            match (read, addr) {
                (Ok(_), Some(Ok(addr))) => *slot = addr,
                _ => {
                    return Err(format!(
                        "gateway did not print {prefix:?} (got {line:?}); see {}",
                        log.display()
                    ))
                }
            }
        }
        loop {
            let answered = Client::connect_timeout(gateway.addr, CLIENT_TIMEOUT)
                .and_then(|mut client| client.ping());
            match answered {
                Ok(_) => return Ok((gateway, spawned.elapsed())),
                Err(e) if spawned.elapsed() > READY_TIMEOUT => {
                    return Err(format!("gateway never answered a ping: {e}"))
                }
                Err(_) => thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// Gateway CPU time so far (user + system, every thread), seconds.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = read_proc(&format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name, from field 3 on.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let field = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        match (field(11), field(12)) {
            (Some(utime), Some(stime)) => Ok((utime + stime) / USER_HZ),
            _ => Err(format!("unparseable /proc stat line {stat:?}")),
        }
    }

    /// Peak resident memory of the gateway (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = read_proc(&format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// One `GET /metrics` scrape of the gateway's registry.
    pub fn scrape(&self) -> Result<Scrape, String> {
        let mut stream = TcpStream::connect_timeout(&self.metrics_addr, CLIENT_TIMEOUT)
            .map_err(|e| format!("connecting to /metrics: {e}"))?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT)).ok();
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .map_err(|e| format!("requesting /metrics: {e}"))?;
        let mut text = String::new();
        stream
            .read_to_string(&mut text)
            .map_err(|e| format!("reading /metrics: {e}"))?;
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, body)| body)
            .ok_or("malformed /metrics response")?;
        let values = body
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.rsplit_once(' '))
            .filter_map(|(series, v)| Some((series.to_string(), v.parse().ok()?)))
            .collect();
        Ok(Scrape(values))
    }

    /// Cumulative explanation-cache `(hits, misses)` of one shard's current
    /// service, from a `Stats` request.
    pub fn cache_counts(&self, shard: &ModelKey) -> Result<(u64, u64), String> {
        let stats = Client::connect_timeout(self.addr, CLIENT_TIMEOUT)
            .and_then(|mut client| client.stats())
            .map_err(|e| format!("fetching gateway stats: {e}"))?;
        stats
            .iter()
            .find(|(key, _)| key == shard)
            .map(|(_, s)| (s.cache_hits, s.cache_misses))
            .ok_or_else(|| format!("gateway stats lack shard {shard}"))
    }

    /// Sends `Shutdown` and waits for the process to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let acknowledged = Client::connect_timeout(self.addr, CLIENT_TIMEOUT)
            .and_then(|client| client.shutdown())
            .map_err(|e| format!("shutting the gateway down: {e}"));
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return acknowledged,
                Ok(Some(status)) => return Err(format!("gateway exited with {status}")),
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
                Ok(None) => return Err("gateway did not exit after Shutdown".to_string()),
                Err(e) => return Err(format!("waiting for the gateway: {e}")),
            }
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn read_proc(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// One scrape: series (name plus labels) to value.
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    /// The value of one series.
    pub fn get(&self, series: &str) -> Result<f64, String> {
        self.0
            .get(series)
            .copied()
            .ok_or_else(|| format!("/metrics has no series {series}"))
    }

    /// Change of a series since `before`.
    pub fn delta(&self, before: &Scrape, series: &str) -> Result<f64, String> {
        Ok(self.get(series)? - before.get(series)?)
    }

    /// Mean of the observations a summary family received since `before`,
    /// from its `_sum` and `_count` deltas; zero when none arrived.
    pub fn mean_since(&self, before: &Scrape, family: &str, labels: &str) -> Result<f64, String> {
        let sum = self.delta(before, &format!("{family}_sum{labels}"))?;
        let count = self.delta(before, &format!("{family}_count{labels}"))?;
        Ok(crate::stats::ratio(sum, count))
    }
}

/// Host CPU counters from the first line of `/proc/stat`, in ticks.
#[derive(Clone, Copy)]
pub struct HostCpu {
    steal: f64,
    total: f64,
}

impl HostCpu {
    /// Reads the host-wide counters.
    pub fn read() -> Result<Self, String> {
        let stat = read_proc("/proc/stat")?;
        let ticks: Vec<f64> = stat
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .map(|l| {
                l.split_whitespace()
                    .filter_map(|f| f.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        // user nice system idle iowait irq softirq steal (guest time is
        // already counted in user and nice).
        if ticks.len() < 8 {
            return Err(format!("unparseable /proc/stat cpu line in {stat:?}"));
        }
        Ok(Self {
            steal: ticks[7],
            total: ticks[..8].iter().sum(),
        })
    }

    /// Share of host CPU time stolen by the hypervisor since `before`, %.
    pub fn steal_pct_since(&self, before: &HostCpu) -> f64 {
        100.0 * crate::stats::ratio(self.steal - before.steal, self.total - before.total)
    }
}
