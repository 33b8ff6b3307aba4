//! `dssddi-chaos`: a deterministic fault-injecting TCP proxy.
//!
//! The proxy sits between any DSWR client and a gateway and injects the
//! transport failures a production deployment will eventually see — delays,
//! torn frames, corrupt bytes (which break the frame CRC), connection
//! resets, slow-loris stalls and black holes — on a reproducible, seeded
//! schedule. It is dependency-free (std only) and deliberately knows
//! nothing about the wire protocol: faults act on the byte stream, exactly
//! where a flaky network acts.
//!
//! ## Shape
//!
//! - [`Fault`] is one injectable failure; [`FaultSpec`] pairs it with the
//!   [`Direction`] it applies to (request bytes, response bytes, or both).
//! - [`FaultPlan`] is a seeded list of specs assigned round-robin to
//!   incoming connections, so connection `i` always gets the same fault
//!   for a given plan — tests can assert exactly what was injected.
//! - [`ChaosProxy::bind`] + [`ChaosProxy::spawn`] run the proxy on its own
//!   threads; [`ChaosHandle`] exposes the listen address, typed per-fault
//!   [`FaultCounts`], a global black-hole switch (for failover drills that
//!   kill an endpoint mid-run) and a bounded [`ChaosHandle::shutdown`].
//!
//! ## Spec strings
//!
//! [`FaultPlan::parse`] accepts the `--chaos` argument format of
//! `dssddi-loadgen`: `seed:spec,spec,...` where each spec is one of
//! `none`, `reset`, `blackhole`, `delay:<ms>[:<jitter_ms>]`,
//! `trunc:<bytes>`, `corrupt:<byte>`, `stall[:<bytes>:<pause_ms>]` or the
//! shorthand `mixed` (one of each fault kind). A spec may carry an
//! optional `@req`, `@resp` or `@both` direction suffix; byte-stream
//! faults default to the response direction (client-visible), `reset` and
//! `blackhole` always affect the whole connection.
//!
//! Determinism: the only randomness is delay jitter, drawn from a
//! splitmix64 stream seeded by `plan seed ^ connection index` — the same
//! plan against the same traffic injects the same faults.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often proxy threads wake from blocking reads/accepts to observe the
/// shutdown flag. Bounds `ChaosHandle::shutdown` latency.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Connect timeout for the upstream leg of each proxied connection.
const UPSTREAM_CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Errors produced by the chaos proxy itself (never by injected faults —
/// those surface as transport errors on the proxied peers).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChaosError {
    /// A socket operation on the proxy's own listener failed.
    Io {
        /// Description including the underlying error.
        what: String,
    },
    /// A fault-plan spec string could not be parsed.
    Spec {
        /// What was wrong with the spec.
        what: String,
    },
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::Io { what } => write!(f, "chaos proxy i/o error: {what}"),
            ChaosError::Spec { what } => write!(f, "bad fault spec: {what}"),
        }
    }
}

impl std::error::Error for ChaosError {}

/// One injectable transport fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// Forward bytes unmodified (the control case).
    None,
    /// Sleep before forwarding each chunk: a fixed base plus a uniformly
    /// drawn jitter in `[0, jitter_ms]`.
    Delay {
        /// Base delay per forwarded chunk, in milliseconds.
        ms: u64,
        /// Upper bound of the added jitter, in milliseconds.
        jitter_ms: u64,
    },
    /// Forward exactly `after` bytes in the faulted direction, then sever
    /// the connection — the peer sees a torn frame.
    Truncate {
        /// Bytes forwarded before the cut.
        after: u64,
    },
    /// Flip one bit of the byte at stream offset `at` in the faulted
    /// direction — the frame passes length checks and fails its CRC.
    CorruptByte {
        /// Zero-based offset of the corrupted byte.
        at: u64,
    },
    /// Abort the connection as soon as it is accepted, with request bytes
    /// left unread so the kernel answers with RST where it can.
    Reset,
    /// Slow-loris: forward `first` bytes at full speed, then trickle one
    /// byte per `pause_ms` — each byte arrives before an idle timeout
    /// would fire, so only a per-frame deadline reaps the connection.
    Stall {
        /// Bytes forwarded at full speed before the trickle starts.
        first: u64,
        /// Pause between trickled bytes, in milliseconds.
        pause_ms: u64,
    },
    /// Accept and read both directions forever, forwarding nothing.
    BlackHole,
}

/// Which half of a proxied connection a byte-stream fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client-to-server bytes (the request path).
    Request,
    /// Server-to-client bytes (the response path).
    Response,
    /// Both directions.
    Both,
}

impl Direction {
    fn applies_to_request(self) -> bool {
        matches!(self, Direction::Request | Direction::Both)
    }

    fn applies_to_response(self) -> bool {
        matches!(self, Direction::Response | Direction::Both)
    }
}

/// A fault plus the direction it acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The fault to inject.
    pub fault: Fault,
    /// The direction the fault applies to (ignored by [`Fault::Reset`] and
    /// [`Fault::BlackHole`], which affect the whole connection).
    pub direction: Direction,
}

impl FaultSpec {
    /// A spec acting on the response (client-visible) direction — the
    /// default for byte-stream faults.
    pub fn response(fault: Fault) -> Self {
        Self {
            fault,
            direction: Direction::Response,
        }
    }

    /// A spec acting on the request (server-visible) direction.
    pub fn request(fault: Fault) -> Self {
        Self {
            fault,
            direction: Direction::Request,
        }
    }
}

/// A seeded schedule assigning one [`FaultSpec`] to each accepted
/// connection, round-robin over the spec list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan cycling through `specs` per connection. An empty list
    /// behaves as [`FaultPlan::clean`].
    pub fn new(seed: u64, specs: Vec<FaultSpec>) -> Self {
        Self { seed, specs }
    }

    /// A plan that injects nothing — the proxy becomes a plain relay.
    pub fn clean(seed: u64) -> Self {
        Self::new(seed, vec![FaultSpec::response(Fault::None)])
    }

    /// One of each fault kind (interleaved with clean connections), the
    /// plan CI's chaos smoke uses: every injected failure class is
    /// exercised, yet enough traffic survives to prove the gateway serves
    /// through it.
    pub fn mixed(seed: u64) -> Self {
        Self::new(
            seed,
            vec![
                FaultSpec::response(Fault::None),
                FaultSpec::response(Fault::Delay {
                    ms: 5,
                    jitter_ms: 10,
                }),
                FaultSpec::response(Fault::None),
                FaultSpec::response(Fault::Truncate { after: 40 }),
                FaultSpec::response(Fault::None),
                FaultSpec::response(Fault::CorruptByte { at: 30 }),
                FaultSpec::response(Fault::None),
                FaultSpec::response(Fault::Reset),
                FaultSpec::response(Fault::Stall {
                    first: 20,
                    pause_ms: 200,
                }),
                FaultSpec::request(Fault::Truncate { after: 25 }),
                FaultSpec::response(Fault::None),
                FaultSpec::response(Fault::BlackHole),
                FaultSpec::response(Fault::None),
            ],
        )
    }

    /// Parses the `seed:spec,spec,...` string format (see the module docs
    /// for the grammar).
    pub fn parse(arg: &str) -> Result<Self, ChaosError> {
        let (seed_str, specs_str) = arg.split_once(':').ok_or_else(|| ChaosError::Spec {
            what: format!("expected seed:spec,... got {arg:?}"),
        })?;
        let seed: u64 = seed_str.trim().parse().map_err(|_| ChaosError::Spec {
            what: format!("seed must be a u64, got {seed_str:?}"),
        })?;
        if specs_str.trim() == "mixed" {
            return Ok(Self::mixed(seed));
        }
        let mut specs = Vec::new();
        for part in specs_str.split(',') {
            specs.push(parse_spec(part.trim())?);
        }
        if specs.is_empty() {
            return Err(ChaosError::Spec {
                what: "fault list is empty".to_string(),
            });
        }
        Ok(Self::new(seed, specs))
    }

    /// The seed driving delay jitter.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault assigned to connection number `index` (zero-based, in
    /// accept order).
    pub fn for_connection(&self, index: u64) -> FaultSpec {
        if self.specs.is_empty() {
            return FaultSpec::response(Fault::None);
        }
        let slot = (index % self.specs.len() as u64) as usize;
        self.specs
            .get(slot)
            .copied()
            .unwrap_or(FaultSpec::response(Fault::None))
    }
}

fn parse_spec(part: &str) -> Result<FaultSpec, ChaosError> {
    let (body, direction) = match part.rsplit_once('@') {
        Some((body, "req")) => (body, Some(Direction::Request)),
        Some((body, "resp")) => (body, Some(Direction::Response)),
        Some((body, "both")) => (body, Some(Direction::Both)),
        Some((_, other)) => {
            return Err(ChaosError::Spec {
                what: format!("unknown direction suffix @{other} (want @req/@resp/@both)"),
            })
        }
        None => (part, None),
    };
    let mut fields = body.split(':');
    let name = fields.next().unwrap_or("");
    let mut num = |what: &str, default: Option<u64>| -> Result<u64, ChaosError> {
        match fields.next() {
            Some(raw) => raw.parse().map_err(|_| ChaosError::Spec {
                what: format!("{what} must be a u64, got {raw:?}"),
            }),
            None => default.ok_or_else(|| ChaosError::Spec {
                what: format!("missing {what} in {part:?}"),
            }),
        }
    };
    let fault = match name {
        "none" => Fault::None,
        "reset" => Fault::Reset,
        "blackhole" => Fault::BlackHole,
        "delay" => Fault::Delay {
            ms: num("delay ms", None)?,
            jitter_ms: num("jitter ms", Some(0))?,
        },
        "trunc" => Fault::Truncate {
            after: num("truncate offset", None)?,
        },
        "corrupt" => Fault::CorruptByte {
            at: num("corrupt offset", None)?,
        },
        "stall" => Fault::Stall {
            first: num("stall offset", Some(20))?,
            pause_ms: num("stall pause ms", Some(150))?,
        },
        other => {
            return Err(ChaosError::Spec {
                what: format!("unknown fault {other:?}"),
            })
        }
    };
    Ok(FaultSpec {
        fault,
        direction: direction.unwrap_or(Direction::Response),
    })
}

/// Typed per-fault injection counters, snapshotted from a running proxy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Connections the proxy accepted.
    pub connections: u64,
    /// Connections whose upstream leg failed to connect.
    pub upstream_failures: u64,
    /// Connections that had at least one chunk delayed.
    pub delays: u64,
    /// Connections severed by [`Fault::Truncate`].
    pub truncations: u64,
    /// Connections with a byte corrupted by [`Fault::CorruptByte`].
    pub corruptions: u64,
    /// Connections aborted by [`Fault::Reset`].
    pub resets: u64,
    /// Connections degraded to a trickle by [`Fault::Stall`].
    pub stalls: u64,
    /// Connections eaten by [`Fault::BlackHole`] or the global black-hole
    /// switch.
    pub black_holes: u64,
    /// Total bytes forwarded (both directions, after faults).
    pub bytes_forwarded: u64,
}

#[derive(Default)]
struct StatsInner {
    connections: AtomicU64,
    upstream_failures: AtomicU64,
    delays: AtomicU64,
    truncations: AtomicU64,
    corruptions: AtomicU64,
    resets: AtomicU64,
    stalls: AtomicU64,
    black_holes: AtomicU64,
    bytes_forwarded: AtomicU64,
}

impl StatsInner {
    /// Counts one connection whose fault fired.
    fn count_fault(&self, fault: Fault) {
        let counter = match fault {
            Fault::None => return,
            Fault::Delay { .. } => &self.delays,
            Fault::Truncate { .. } => &self.truncations,
            Fault::CorruptByte { .. } => &self.corruptions,
            Fault::Reset => &self.resets,
            Fault::Stall { .. } => &self.stalls,
            Fault::BlackHole => &self.black_holes,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> FaultCounts {
        FaultCounts {
            connections: self.connections.load(Ordering::Relaxed),
            upstream_failures: self.upstream_failures.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            truncations: self.truncations.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            black_holes: self.black_holes.load(Ordering::Relaxed),
            bytes_forwarded: self.bytes_forwarded.load(Ordering::Relaxed),
        }
    }
}

/// A bound, not-yet-running chaos proxy.
pub struct ChaosProxy {
    listener: TcpListener,
    upstream: SocketAddr,
    plan: FaultPlan,
}

impl ChaosProxy {
    /// Binds the proxy's listening socket. Use port `0` for an ephemeral
    /// port and read it back with [`ChaosProxy::local_addr`]. Traffic is
    /// relayed to `upstream` with the plan's faults applied.
    pub fn bind(
        listen: SocketAddr,
        upstream: SocketAddr,
        plan: FaultPlan,
    ) -> Result<Self, ChaosError> {
        let listener = TcpListener::bind(listen).map_err(|e| ChaosError::Io {
            what: format!("binding chaos listener: {e}"),
        })?;
        Ok(Self {
            listener,
            upstream,
            plan,
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> Result<SocketAddr, ChaosError> {
        self.listener.local_addr().map_err(|e| ChaosError::Io {
            what: format!("reading chaos listener address: {e}"),
        })
    }

    /// Starts the accept loop on its own thread and returns the handle
    /// controlling the running proxy.
    pub fn spawn(self) -> Result<ChaosHandle, ChaosError> {
        let addr = self.local_addr()?;
        self.listener
            .set_nonblocking(true)
            .map_err(|e| ChaosError::Io {
                what: format!("arming nonblocking accept: {e}"),
            })?;
        let stats = Arc::new(StatsInner::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let black_hole = Arc::new(AtomicBool::new(false));
        let accept = {
            let stats = Arc::clone(&stats);
            let shutdown = Arc::clone(&shutdown);
            let black_hole = Arc::clone(&black_hole);
            std::thread::spawn(move || {
                accept_loop(
                    self.listener,
                    self.upstream,
                    self.plan,
                    stats,
                    shutdown,
                    black_hole,
                )
            })
        };
        Ok(ChaosHandle {
            addr,
            stats,
            shutdown,
            black_hole,
            accept: Some(accept),
        })
    }
}

/// A running chaos proxy. Dropping the handle without calling
/// [`ChaosHandle::shutdown`] leaves the proxy running for the process
/// lifetime; tests should shut it down so no threads leak.
pub struct ChaosHandle {
    addr: SocketAddr,
    stats: Arc<StatsInner>,
    shutdown: Arc<AtomicBool>,
    black_hole: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the typed per-fault counters.
    pub fn counts(&self) -> FaultCounts {
        self.stats.snapshot()
    }

    /// Turns the global black-hole switch on or off. While on, every
    /// proxied connection — existing and new — forwards nothing in either
    /// direction, exactly as if the endpoint behind the proxy died without
    /// closing its sockets. Failover drills flip this mid-run.
    pub fn set_black_hole(&self, on: bool) {
        self.black_hole.store(on, Ordering::SeqCst);
    }

    /// Stops accepting, severs every proxied connection and joins all
    /// proxy threads. Bounded: every thread polls the shutdown flag at
    /// least every [`POLL_INTERVAL`].
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ChaosHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosHandle")
            .field("addr", &self.addr)
            .field("counts", &self.stats.snapshot())
            .finish()
    }
}

fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    plan: FaultPlan,
    stats: Arc<StatsInner>,
    shutdown: Arc<AtomicBool>,
    black_hole: Arc<AtomicBool>,
) {
    let mut pumps: Vec<JoinHandle<()>> = Vec::new();
    let mut index = 0u64;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                stats.connections.fetch_add(1, Ordering::Relaxed);
                let spec = plan.for_connection(index);
                let seed = plan.seed() ^ index.wrapping_mul(0x9E3779B97F4A7C15);
                index += 1;
                pumps.retain(|p| !p.is_finished());
                let stats = Arc::clone(&stats);
                let shutdown = Arc::clone(&shutdown);
                let black_hole = Arc::clone(&black_hole);
                pumps.push(std::thread::spawn(move || {
                    serve_connection(client, upstream, spec, seed, stats, shutdown, black_hole);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
    // Pumps poll the shutdown flag between reads, so these joins are
    // bounded — no leaked threads after `ChaosHandle::shutdown`.
    for pump in pumps {
        let _ = pump.join();
    }
}

fn serve_connection(
    client: TcpStream,
    upstream: SocketAddr,
    spec: FaultSpec,
    seed: u64,
    stats: Arc<StatsInner>,
    shutdown: Arc<AtomicBool>,
    black_hole: Arc<AtomicBool>,
) {
    client.set_nodelay(true).ok();
    if matches!(spec.fault, Fault::Reset) {
        // Give the client a moment to write its request, then drop the
        // socket with those bytes unread: the kernel answers with RST,
        // surfacing as a typed I/O error (or a closed connection if the
        // request had not been written yet) on the client.
        stats.count_fault(Fault::Reset);
        std::thread::sleep(Duration::from_millis(30));
        let _ = client.shutdown(Shutdown::Both);
        return;
    }
    let server = match TcpStream::connect_timeout(&upstream, UPSTREAM_CONNECT_TIMEOUT) {
        Ok(server) => server,
        Err(_) => {
            stats.upstream_failures.fetch_add(1, Ordering::Relaxed);
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
    };
    server.set_nodelay(true).ok();
    let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
        let _ = client.shutdown(Shutdown::Both);
        let _ = server.shutdown(Shutdown::Both);
        return;
    };
    // One flag per connection: either pump failing (or a severing fault
    // firing) tears down both halves.
    let dead = Arc::new(AtomicBool::new(false));
    // Fault-fired latch shared by both pumps so a `Both`-direction fault
    // is counted once per connection, not once per direction.
    let fired = Arc::new(AtomicBool::new(false));
    let request_pump = {
        let fault = if spec.direction.applies_to_request() {
            spec.fault
        } else {
            Fault::None
        };
        let ctx = PumpCtx {
            fault,
            rng: seed,
            stats: Arc::clone(&stats),
            shutdown: Arc::clone(&shutdown),
            black_hole: Arc::clone(&black_hole),
            dead: Arc::clone(&dead),
            fired: Arc::clone(&fired),
        };
        std::thread::spawn(move || pump(client_r, server, ctx))
    };
    let response_fault = if spec.direction.applies_to_response() {
        spec.fault
    } else {
        Fault::None
    };
    let ctx = PumpCtx {
        fault: response_fault,
        rng: seed ^ 0xD1B5_4A32_D192_ED03,
        stats,
        shutdown,
        black_hole,
        dead,
        fired,
    };
    pump(server_r, client, ctx);
    let _ = request_pump.join();
}

struct PumpCtx {
    fault: Fault,
    rng: u64,
    stats: Arc<StatsInner>,
    shutdown: Arc<AtomicBool>,
    black_hole: Arc<AtomicBool>,
    dead: Arc<AtomicBool>,
    fired: Arc<AtomicBool>,
}

impl PumpCtx {
    /// Counts this connection's fault once, no matter which pump (or how
    /// many chunks) trigger it.
    fn count_once(&self) {
        if !self.fired.swap(true, Ordering::Relaxed) {
            self.stats.count_fault(self.fault);
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Relays one direction of a proxied connection, applying `ctx.fault` to
/// the byte stream. Returns when the source side reaches EOF, either side
/// fails, a severing fault fires, or the proxy shuts down.
fn pump(mut from: TcpStream, mut to: TcpStream, mut ctx: PumpCtx) {
    from.set_read_timeout(Some(POLL_INTERVAL)).ok();
    let mut buf = vec![0u8; 16 * 1024];
    let mut forwarded = 0u64;
    let mut blackholed = false;
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) || ctx.dead.load(Ordering::SeqCst) {
            sever(&from, &to, &ctx.dead);
            return;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => {
                // Clean EOF: half-close the forward side so the peer sees
                // the same EOF, and let the opposite pump drain.
                let _ = to.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                sever(&from, &to, &ctx.dead);
                return;
            }
        };
        let chunk: &[u8] = buf.get(..n).unwrap_or(&[]);
        // The global black-hole switch (failover drills) overrides the
        // scheduled fault: eat everything, both directions, all
        // connections.
        if ctx.black_hole.load(Ordering::SeqCst) || matches!(ctx.fault, Fault::BlackHole) {
            if !blackholed {
                blackholed = true;
                if matches!(ctx.fault, Fault::BlackHole) {
                    ctx.count_once();
                } else {
                    ctx.stats.black_holes.fetch_add(1, Ordering::Relaxed);
                }
            }
            forwarded += n as u64;
            continue;
        }
        match ctx.fault {
            Fault::None | Fault::BlackHole => {
                if forward(&mut to, chunk, &ctx.stats).is_err() {
                    sever(&from, &to, &ctx.dead);
                    return;
                }
            }
            Fault::Delay { ms, jitter_ms } => {
                ctx.count_once();
                let jitter = if jitter_ms == 0 {
                    0
                } else {
                    ctx.next_u64() % (jitter_ms + 1)
                };
                std::thread::sleep(Duration::from_millis(ms + jitter));
                if forward(&mut to, chunk, &ctx.stats).is_err() {
                    sever(&from, &to, &ctx.dead);
                    return;
                }
            }
            Fault::Truncate { after } => {
                let remaining = after.saturating_sub(forwarded);
                let keep = (remaining as usize).min(chunk.len());
                let kept: &[u8] = chunk.get(..keep).unwrap_or(&[]);
                let exhausted = keep < chunk.len();
                if forward(&mut to, kept, &ctx.stats).is_err() || exhausted {
                    if exhausted {
                        ctx.count_once();
                    }
                    sever(&from, &to, &ctx.dead);
                    return;
                }
            }
            Fault::CorruptByte { at } => {
                let end = forwarded + chunk.len() as u64;
                if at >= forwarded && at < end {
                    ctx.count_once();
                    let mut copy = chunk.to_vec();
                    if let Some(byte) = copy.get_mut((at - forwarded) as usize) {
                        *byte ^= 0x40;
                    }
                    if forward(&mut to, &copy, &ctx.stats).is_err() {
                        sever(&from, &to, &ctx.dead);
                        return;
                    }
                } else if forward(&mut to, chunk, &ctx.stats).is_err() {
                    sever(&from, &to, &ctx.dead);
                    return;
                }
            }
            Fault::Stall { first, pause_ms } => {
                let fast = first.saturating_sub(forwarded);
                let keep = (fast as usize).min(chunk.len());
                let (head, tail) = chunk.split_at(keep.min(chunk.len()));
                if forward(&mut to, head, &ctx.stats).is_err() {
                    sever(&from, &to, &ctx.dead);
                    return;
                }
                if !tail.is_empty() {
                    ctx.count_once();
                }
                // Trickle the remainder one byte at a time, observing the
                // shutdown flag between pauses so a hung-forever stall
                // still joins promptly.
                for byte in tail.iter() {
                    let mut slept = Duration::ZERO;
                    while slept < Duration::from_millis(pause_ms) {
                        if ctx.shutdown.load(Ordering::SeqCst) || ctx.dead.load(Ordering::SeqCst) {
                            sever(&from, &to, &ctx.dead);
                            return;
                        }
                        std::thread::sleep(POLL_INTERVAL.min(Duration::from_millis(pause_ms)));
                        slept += POLL_INTERVAL;
                    }
                    if forward(&mut to, std::slice::from_ref(byte), &ctx.stats).is_err() {
                        sever(&from, &to, &ctx.dead);
                        return;
                    }
                }
            }
            Fault::Reset => {
                // Handled at accept; unreachable here, forward as clean.
                if forward(&mut to, chunk, &ctx.stats).is_err() {
                    sever(&from, &to, &ctx.dead);
                    return;
                }
            }
        }
        forwarded += n as u64;
    }
}

fn forward(to: &mut TcpStream, chunk: &[u8], stats: &StatsInner) -> std::io::Result<()> {
    if chunk.is_empty() {
        return Ok(());
    }
    to.write_all(chunk)?;
    stats
        .bytes_forwarded
        .fetch_add(chunk.len() as u64, Ordering::Relaxed);
    Ok(())
}

/// Tears down both halves of a proxied connection and signals the sibling
/// pump via the shared `dead` flag.
fn sever(a: &TcpStream, b: &TcpStream, dead: &AtomicBool) {
    dead.store(true, Ordering::SeqCst);
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn plan_parses_the_loadgen_format() {
        let plan =
            FaultPlan::parse("7:none,delay:5:10,trunc:100@req,corrupt:30,reset,stall,blackhole")
                .unwrap();
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.for_connection(0).fault, Fault::None);
        assert_eq!(
            plan.for_connection(1).fault,
            Fault::Delay {
                ms: 5,
                jitter_ms: 10
            }
        );
        let trunc = plan.for_connection(2);
        assert_eq!(trunc.fault, Fault::Truncate { after: 100 });
        assert_eq!(trunc.direction, Direction::Request);
        assert_eq!(plan.for_connection(3).fault, Fault::CorruptByte { at: 30 });
        assert_eq!(plan.for_connection(4).fault, Fault::Reset);
        assert_eq!(
            plan.for_connection(5).fault,
            Fault::Stall {
                first: 20,
                pause_ms: 150
            }
        );
        assert_eq!(plan.for_connection(6).fault, Fault::BlackHole);
        // Round-robin wraps.
        assert_eq!(plan.for_connection(7).fault, Fault::None);
    }

    #[test]
    fn plan_parse_rejects_garbage() {
        assert!(FaultPlan::parse("no-seed").is_err());
        assert!(FaultPlan::parse("x:none").is_err());
        assert!(FaultPlan::parse("1:frob").is_err());
        assert!(FaultPlan::parse("1:delay").is_err());
        assert!(FaultPlan::parse("1:none@sideways").is_err());
        assert!(FaultPlan::parse("1:").is_err());
    }

    #[test]
    fn mixed_plan_covers_every_fault_kind() {
        let plan = FaultPlan::mixed(3);
        let kinds: std::collections::HashSet<_> = (0..12)
            .map(|i| std::mem::discriminant(&plan.for_connection(i).fault))
            .collect();
        // `Fault` has seven variants: `None` and the six injectable kinds.
        assert_eq!(kinds.len(), 7, "mixed plan misses a fault kind");
    }

    #[test]
    fn clean_proxy_relays_bytes_unmodified() {
        // An echo server behind a clean proxy: bytes come back identical.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut conn, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 64];
            loop {
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => conn.write_all(&buf[..n]).unwrap(),
                }
            }
        });
        let proxy = ChaosProxy::bind(
            "127.0.0.1:0".parse().unwrap(),
            upstream_addr,
            FaultPlan::clean(1),
        )
        .unwrap()
        .spawn()
        .unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        client.write_all(b"hello chaos").unwrap();
        let mut back = [0u8; 11];
        client.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"hello chaos");
        drop(client);
        echo.join().unwrap();
        let counts = proxy.counts();
        assert_eq!(counts.connections, 1);
        assert!(counts.bytes_forwarded >= 22);
        assert_eq!(counts.truncations + counts.resets + counts.black_holes, 0);
        proxy.shutdown();
    }

    #[test]
    fn truncate_severs_after_the_exact_offset() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut conn, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 64];
            let Ok(n) = conn.read(&mut buf) else { return };
            let _ = conn.write_all(&buf[..n]);
            // Keep the socket open; the proxy severs it for us.
            let _ = conn.read(&mut buf);
        });
        let plan = FaultPlan::new(1, vec![FaultSpec::response(Fault::Truncate { after: 4 })]);
        let proxy = ChaosProxy::bind("127.0.0.1:0".parse().unwrap(), upstream_addr, plan)
            .unwrap()
            .spawn()
            .unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        client.write_all(b"0123456789").unwrap();
        let mut got = Vec::new();
        client.read_to_end(&mut got).ok();
        assert_eq!(got, b"0123", "exactly 4 bytes must survive the cut");
        assert_eq!(proxy.counts().truncations, 1);
        proxy.shutdown();
        echo.join().unwrap();
    }

    #[test]
    fn shutdown_joins_all_threads_even_mid_stall() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut conn, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 64];
            let Ok(n) = conn.read(&mut buf) else { return };
            let _ = conn.write_all(&buf[..n]);
            let _ = conn.read(&mut buf);
        });
        let plan = FaultPlan::new(
            1,
            vec![FaultSpec::response(Fault::Stall {
                first: 2,
                pause_ms: 10_000,
            })],
        );
        let proxy = ChaosProxy::bind("127.0.0.1:0".parse().unwrap(), upstream_addr, plan)
            .unwrap()
            .spawn()
            .unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        client.write_all(b"0123456789").unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut buf = [0u8; 16];
        let _ = client.read(&mut buf); // first trickle bytes or timeout
        let started = std::time::Instant::now();
        proxy.shutdown(); // must not wait out the 10 s stall pause
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "shutdown must interrupt a mid-stall pump"
        );
        echo.join().unwrap();
    }
}
