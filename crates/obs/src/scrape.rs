//! Minimal HTTP/1.0 exposition endpoint for the metrics registry.
//!
//! [`MetricsServer`] binds a TCP listener and answers `GET /metrics` with
//! a [`MetricsRegistry`] rendered as Prometheus text exposition format —
//! enough for `curl` and a stock Prometheus scraper, and nothing more: no
//! keep-alive, no chunking, no TLS. Every response closes the connection.
//! Scrapes are rare (seconds apart) and tiny, so connections are handled
//! inline on the accept thread; a stalled scraper is cut off by a short
//! read timeout rather than holding the endpoint hostage.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::MetricsRegistry;

/// How often the accept loop polls the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Bound on reading one scrape request (headers included).
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Cap on the request head we are willing to buffer.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// A running scrape endpoint serving `GET /metrics`.
///
/// Dropping the server (or calling [`MetricsServer::shutdown`]) stops the
/// accept loop and joins its thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` and starts serving `registry`.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        registry: Arc<MetricsRegistry>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::spawn(move || accept_loop(listener, registry, thread_stop));
        Ok(Self {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The address scrapers should hit (`http://<addr>/metrics`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins its thread.
    pub fn shutdown(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.halt();
    }
}

fn accept_loop(listener: TcpListener, registry: Arc<MetricsRegistry>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => serve_scrape(stream, &registry),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Answers one scrape connection and closes it. All errors are swallowed:
/// a broken scraper must never disturb the gateway it is observing.
fn serve_scrape(mut stream: TcpStream, registry: &MetricsRegistry) {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
    stream.set_write_timeout(Some(READ_TIMEOUT)).ok();
    let Some(request_line) = read_request_line(&mut stream) else {
        return;
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let response = if method == "GET" && (path == "/metrics" || path == "/") {
        let body = registry.render();
        format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    } else {
        let body = "not found; try GET /metrics\n";
        format!(
            "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Reads up to the end of the request head and returns its first line.
fn read_request_line(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(chunk.get(..n)?);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > MAX_REQUEST_BYTES {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&buf);
    text.lines().next().map(|l| l.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn scrape_round_trip() {
        let registry = Arc::new(MetricsRegistry::new());
        registry
            .counter("dssddi_scrape_test_total", "scrape test")
            .add(3);
        let server = MetricsServer::bind("127.0.0.1:0", registry).unwrap();
        let response = http_get(server.local_addr(), "/metrics");
        assert!(response.starts_with("HTTP/1.0 200 OK"));
        assert!(response.contains("text/plain"));
        assert!(response.contains("dssddi_scrape_test_total 3"));
        let missing = http_get(server.local_addr(), "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"));
        server.shutdown();
    }
}
