//! The gateway server: a thread-per-connection TCP front-end over the
//! [`Router`].
//!
//! Each accepted connection gets its own handler thread that reads framed
//! requests, dispatches them through the shared router (so per-model stats
//! aggregate across connections) and writes framed responses back. Each
//! frame, a suggestion batch included, is served on its connection's
//! thread; the server adds only transport.
//!
//! Failure containment is the design center: a malformed or corrupt frame
//! produces a typed [`Response::Error`](crate::Response::Error) on that
//! connection — or, when the stream can no longer be trusted to be
//! frame-aligned, closes *that* connection — and never takes the gateway
//! down. A peer that stalls mid-frame (including a slow-loris trickling
//! bytes just under the idle timeout) is reaped by the per-frame deadline
//! and counted in the router's registry ([`crate::GatewayStats`]); a
//! configured connection bound sheds excess connections with a typed
//! `Overloaded` frame instead of letting handler threads grow without
//! limit. Only an explicit `Shutdown` message ends the accept loop, and the
//! drain then finishes every in-flight request before `run` returns.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dssddi_obs::Gauge;

use crate::router::Router;
use crate::wire::{self, Request, WireError};
use crate::ServingError;

/// Tuning knobs of a [`Server`], with production defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Upper bound on concurrently served connections. At the bound, new
    /// connections are answered with one typed `Overloaded` error frame
    /// and closed (a typed shed, counted in [`crate::GatewayStats`]) —
    /// handler threads can never grow without limit. `None` = unbounded.
    pub max_connections: Option<usize>,
    /// Wall-clock deadline for receiving one complete frame, measured from
    /// its first byte. A peer that has not completed a frame in time —
    /// stalled silent *or* trickling slow-loris bytes — is reaped with a
    /// typed timeout. Generous by default: multi-megabyte reload uploads
    /// are legitimate slow frames.
    pub frame_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: None,
            frame_deadline: FRAME_DEADLINE,
        }
    }
}

/// A bound, not-yet-running gateway server.
pub struct Server {
    listener: TcpListener,
    router: Arc<Router>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

impl Server {
    /// Binds the gateway to an address with default [`ServerConfig`]. Use
    /// port `0` for an ephemeral port and read the actual one back with
    /// [`Server::local_addr`].
    pub fn bind(addr: impl ToSocketAddrs, router: Router) -> Result<Self, ServingError> {
        Self::bind_with_config(addr, router, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit limits (connection bound, per-frame
    /// deadline).
    pub fn bind_with_config(
        addr: impl ToSocketAddrs,
        router: Router,
        config: ServerConfig,
    ) -> Result<Self, ServingError> {
        let listener = TcpListener::bind(addr).map_err(|e| ServingError::Io {
            what: format!("binding listener: {e}"),
        })?;
        Ok(Self {
            listener,
            router: Arc::new(router),
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> Result<SocketAddr, ServingError> {
        self.listener.local_addr().map_err(|e| ServingError::Io {
            what: format!("reading local address: {e}"),
        })
    }

    /// A shared handle to the router, for components that outlive the
    /// borrow — a replica agent applies anti-entropy pulls through this
    /// while the server's run loop owns `self`.
    pub fn router_arc(&self) -> Arc<Router> {
        Arc::clone(&self.router)
    }

    /// Runs the accept loop until a client sends `Shutdown`, then drains:
    /// handler threads finish the request they are serving (idle
    /// connections close within one poll interval) before `run` returns.
    /// Each connection is served by its own thread; a connection-level
    /// failure never ends the loop.
    pub fn run(self) -> Result<(), ServingError> {
        let local = self.local_addr()?;
        // The address the shutdown handler pokes to wake this loop out of
        // `accept`. A wildcard bind (0.0.0.0 / ::) is not connectable on
        // every platform, so poke the same port on the matching loopback.
        let wake = if local.ip().is_unspecified() {
            let loopback: std::net::IpAddr = match local {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            };
            SocketAddr::new(loopback, local.port())
        } else {
            local
        };
        // The router's transport counters, the cells `Stats` reads back.
        let connections = &self.router.metrics.connections;
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    connections.accepted.inc();
                    // Reap finished handlers so the list tracks live
                    // connections, not connection history.
                    handlers.retain(|handle| !handle.is_finished());
                    // Bounded connection count: at the cap, shed with one
                    // typed error frame instead of spawning a handler. The
                    // active gauge is incremented *here*, before the spawn,
                    // so a burst of accepts cannot overshoot the bound. The
                    // increment is one read-modify-write, so the prior value
                    // it returns is exact; the gauge publishes no other data.
                    let active = connections.active.inc();
                    if self
                        .config
                        .max_connections
                        .is_some_and(|cap| active as usize >= cap)
                    {
                        connections.active.dec();
                        connections.shed.inc();
                        shed_connection(stream, self.config.max_connections.unwrap_or(0));
                        continue;
                    }
                    let router = Arc::clone(&self.router);
                    let shutdown = Arc::clone(&self.shutdown);
                    let deadline = self.config.frame_deadline;
                    handlers.push(std::thread::spawn(move || {
                        // Balance the increment above whatever way the
                        // handler exits.
                        let _active = ActiveGuard(&router.metrics.connections.active);
                        handle_connection(stream, &router, &shutdown, wake, deadline);
                    }));
                }
                // A failed accept with the peer gone mid-handshake is
                // routine. But accept errors can also be persistent resource
                // exhaustion (EMFILE/ENFILE when fds run out) — without a
                // pause, `continue` would turn this loop into a busy spin
                // that starves the handlers that could release those fds.
                Err(_) => {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    continue;
                }
            }
        }
        // Drain: every handler observes the shutdown flag after its current
        // request, or on its next idle poll, so these joins are bounded.
        for handle in handlers {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// Decrements the active-connection gauge when a handler exits, however it
/// exits.
struct ActiveGuard<'a>(&'a Gauge);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// Answers a connection shed at the bound with one typed `Overloaded`
/// frame, then closes it. Best-effort: the peer may already be gone.
fn shed_connection(mut stream: TcpStream, cap: usize) {
    let error = ServingError::Overloaded {
        key: "gateway".to_string(),
        what: format!("connection limit of {cap} reached"),
    };
    let response = wire::error_response(&error);
    let _ = wire::write_frame(&mut stream, &wire::encode_response(&response));
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .field("models", &self.router.catalog().keys())
            .field("config", &self.config)
            .finish()
    }
}

/// How often an idle connection wakes from its blocking read to check the
/// shutdown flag. Bounds the post-shutdown drain time of idle keep-alive
/// connections without disturbing active ones.
const IDLE_POLL_INTERVAL: std::time::Duration = std::time::Duration::from_millis(250);

/// Consecutive idle-poll expiries tolerated *mid-frame* before the peer is
/// declared stalled and the connection dropped: 40 polls × 250 ms ≈ 10 s of
/// total silence. Multi-megabyte `ReloadModel`/`ReloadKb` uploads routinely
/// cross several poll intervals on real networks; one TCP retransmission
/// pause must not sever them. (This also bounds the post-shutdown drain
/// when a peer stalls mid-frame — at most the same ~10 s.)
const MID_FRAME_STALL_POLLS: u32 = 40;

/// Default wall-clock deadline for one complete frame, from its first byte
/// (see [`ServerConfig::frame_deadline`]). Matches the silent-stall bound:
/// 40 polls × 250 ms. Unlike the consecutive-stall budget, this also reaps
/// slow-loris peers whose trickle keeps resetting that counter.
const FRAME_DEADLINE: Duration = Duration::from_secs(10);

/// Serves one connection until it closes, fails, or the gateway shuts down.
fn handle_connection(
    mut stream: TcpStream,
    router: &Router,
    shutdown: &AtomicBool,
    wake: SocketAddr,
    frame_deadline: Duration,
) {
    // Frames are written in one piece; waiting for coalescing only adds
    // latency on the small request/response frames exchanged here.
    stream.set_nodelay(true).ok();
    // The read timeout makes idle waits poll the shutdown flag; a timeout
    // that fires *before any frame byte* surfaces as IdleTimeout, one that
    // fires mid-frame means the peer stalled and the connection is dropped.
    stream.set_read_timeout(Some(IDLE_POLL_INTERVAL)).ok();
    loop {
        let (trace, payload) =
            match wire::read_frame(&mut stream, MID_FRAME_STALL_POLLS, Some(frame_deadline)) {
                Ok(traced) => traced,
                Err(WireError::IdleTimeout) => {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    continue;
                }
                Err(WireError::ConnectionClosed) => return,
                Err(WireError::Timeout) => {
                    // The peer stalled mid-frame past the deadline (silent, or
                    // a slow-loris trickle): reap the connection and count it.
                    router.metrics.connections.stalled.inc();
                    return;
                }
                Err(WireError::Io { .. }) => return,
                Err(error) => {
                    // Bad magic, version mismatch, truncation, CRC failure or an
                    // oversized length: answer with a typed error, then close —
                    // after a framing failure the stream may no longer be
                    // frame-aligned, so continuing could misparse every later
                    // byte. The *gateway* stays up; only this connection ends.
                    let response = wire::error_response(&ServingError::Wire(error));
                    let _ = wire::write_frame(&mut stream, &wire::encode_response(&response));
                    return;
                }
            };
        let decode_start = Instant::now();
        let request = match wire::decode_request(&payload) {
            Ok(request) => request,
            Err(error) => {
                // The frame itself validated (length + CRC), so the stream
                // is still aligned: report the malformed body and keep the
                // connection alive.
                let response = wire::error_response(&ServingError::Wire(WireError::Decode(error)));
                if wire::write_frame(&mut stream, &wire::encode_response(&response)).is_err() {
                    return;
                }
                continue;
            }
        };
        let decode_micros = decode_start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let shutting_down = matches!(request, Request::Shutdown);
        // The router encodes the response itself so the per-model latency
        // sample covers the wire encode — the time a client actually waits.
        // The request's trace ID (if any) rides along into the router's
        // span recorder and back out on the response frame.
        let frame = router.serve_framed_traced(&request, trace, decode_micros);
        if wire::write_frame(&mut stream, &frame).is_err() {
            return;
        }
        if shutting_down {
            shutdown.store(true, Ordering::SeqCst);
            // The accept loop is parked in `accept`; poke it awake so it
            // observes the flag and exits.
            let _ = TcpStream::connect(wake);
            return;
        }
        // Drain semantics: once shutdown is requested, finish the request
        // that was already in flight (just answered above), then close
        // instead of taking new work from this connection.
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}
