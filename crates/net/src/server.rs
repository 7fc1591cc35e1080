//! The connection-handling server: per-core reactor shards over a
//! shared non-blocking listener.
//!
//! `workers` reactor threads each run an epoll readiness loop
//! ([`crate::reactor`]): every shard registers a clone of the listener,
//! accepts into its own connection slab (so a connection lives on the
//! shard that accepted it), and multiplexes reads, dispatch, and writes
//! over non-blocking sockets. Thread count is therefore a function of
//! configuration, not of open connections — 10k idle keep-alive sockets
//! cost table entries, not stacks.
//!
//! Shedding happens at accept: past `backlog` open connections per
//! shard, new arrivals get a best-effort `503` envelope with
//! `Retry-After: 1` and are closed, and every shed is observable.
//! Shutdown flips a flag and wakes every shard; each drops all of its
//! connections — idle keep-alive ones included — on the next loop turn,
//! so `ServerHandle::shutdown()` is bounded by a poll wakeup, not by
//! `read_timeout`.

use crate::epoll::{Poller, Waker};
use crate::http::Response;
use crate::parser::ParserConfig;
use crate::reactor::{self, ShardContext, LISTENER_TOKEN, WAKER_TOKEN};
use crate::router::Router;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-request timing measured by the connection loop, handed to the
/// [`RequestObserver`] alongside the request/response pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestTiming {
    /// Time spent parsing this request out of the receive buffer,
    /// accumulated across partial reads of a slow-trickling client.
    pub parse: Duration,
    /// Time spent in routing + handler.
    pub dispatch: Duration,
    /// Whether this connection had already served an earlier request —
    /// i.e. the request rode a reused keep-alive connection.
    pub reused: bool,
}

/// Observer invoked after every dispatched request (access logging,
/// metrics). Runs on the connection's reactor shard; keep it cheap.
pub type RequestObserver =
    Arc<dyn Fn(&crate::http::Request, &Response, &RequestTiming) + Send + Sync>;

/// Server tuning.
#[derive(Clone)]
pub struct ServerConfig {
    /// Reactor shards (threads) multiplexing connections.
    pub workers: usize,
    /// Request deadline and keep-alive idle timeout: a connection must
    /// complete a request within this much of accept (or of its last
    /// response) or it is closed. Partial bytes do not extend the
    /// deadline — the anti-slow-loris property.
    pub read_timeout: Duration,
    /// Parser limits.
    pub parser: ParserConfig,
    /// Maximum open connections per reactor shard; arrivals beyond the
    /// cap are shed with a best-effort 503 and counted in [`NetStats`].
    pub backlog: usize,
    /// Optional per-request observer (access log / metrics hook).
    pub observer: Option<RequestObserver>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("workers", &self.workers)
            .field("read_timeout", &self.read_timeout)
            .field("parser", &self.parser)
            .field("backlog", &self.backlog)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            read_timeout: Duration::from_secs(10),
            parser: ParserConfig::default(),
            backlog: 256,
            observer: None,
        }
    }
}

/// Live counters maintained by the reactor shards, exposed through
/// [`ServerHandle::stats`] so the metrics layer can publish
/// `loki_net_open_conns` / `loki_net_reactor_wakeups_total` gauges
/// without the hot path knowing about any metrics registry.
#[derive(Debug)]
pub struct NetStats {
    open: Vec<AtomicU64>,
    wakeups: Vec<AtomicU64>,
    // Per-shard like open/wakeups, so shard imbalance at the accept
    // gate (a hot listener shard, one shard shedding while others sit
    // idle) is visible in the `shard=` metric children, not averaged
    // away in a process-global total.
    accepted: Vec<AtomicU64>,
    shed: Vec<AtomicU64>,
}

impl NetStats {
    /// Creates a stats block for `shards` reactor shards.
    pub fn new(shards: usize) -> NetStats {
        let shards = shards.max(1);
        NetStats {
            open: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            wakeups: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            accepted: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            shed: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of reactor shards.
    pub fn shards(&self) -> usize {
        self.open.len()
    }

    /// Open connections across all shards.
    pub fn open_conns(&self) -> u64 {
        self.open.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Open connections on one shard (0 for out-of-range shards).
    pub fn open_conns_for(&self, shard: usize) -> u64 {
        self.open
            .get(shard)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Reactor loop wakeups across all shards.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Reactor loop wakeups on one shard.
    pub fn wakeups_for(&self, shard: usize) -> u64 {
        self.wakeups
            .get(shard)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Total connections accepted (admitted or shed), across all shards.
    pub fn accepted(&self) -> u64 {
        self.accepted.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Connections accepted by one shard (0 for out-of-range shards).
    pub fn accepted_for(&self, shard: usize) -> u64 {
        self.accepted
            .get(shard)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Total connections shed at the accept gate, across all shards.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Connections shed by one shard (0 for out-of-range shards).
    pub fn shed_for(&self, shard: usize) -> u64 {
        self.shed
            .get(shard)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    pub(crate) fn record_open(&self, shard: usize) {
        if let Some(c) = self.open.get(shard) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_close(&self, shard: usize) {
        if let Some(c) = self.open.get(shard) {
            c.fetch_sub(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_wakeup(&self, shard: usize) {
        if let Some(c) = self.wakeups.get(shard) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_accept(&self, shard: usize) {
        if let Some(c) = self.accepted.get(shard) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_shed(&self, shard: usize) {
        if let Some(c) = self.shed.get(shard) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A bound, running server.
#[derive(Debug)]
pub struct Server;

/// Handle to a running server: address, live stats, shutdown.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    shards: Vec<JoinHandle<()>>,
    wakers: Vec<Waker>,
    stats: Arc<NetStats>,
}

impl Server {
    /// Binds to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves `router` until the handle is shut down or dropped.
    pub fn spawn(
        addr: &str,
        router: Router,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let router = Arc::new(router);
        let shard_count = config.workers.max(1);
        let stats = Arc::new(NetStats::new(shard_count));

        let mut wakers = Vec::with_capacity(shard_count);
        let mut shards = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            let poller = Poller::new()?;
            let waker = Waker::new(&poller, WAKER_TOKEN)?;
            // Every shard polls its own clone of the listener fd
            // (level-triggered): accept races are resolved by the
            // kernel, and a connection stays on the shard that won it.
            let shard_listener = listener.try_clone()?;
            poller.add(shard_listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
            wakers.push(waker.clone());
            let ctx = ShardContext {
                shard,
                listener: shard_listener,
                poller,
                waker,
                router: Arc::clone(&router),
                config: config.clone(),
                shutdown: Arc::clone(&shutdown),
                stats: Arc::clone(&stats),
            };
            shards.push(
                std::thread::Builder::new()
                    .name(format!("loki-net-reactor-{shard}"))
                    .spawn(move || reactor::run(ctx))?,
            );
        }

        Ok(ServerHandle {
            addr: local,
            shutdown,
            shards,
            wakers,
            stats,
        })
    }
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Base URL for clients, e.g. `http://127.0.0.1:41234`.
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Live reactor counters (open connections, wakeups, sheds).
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.stats)
    }

    /// Number of reactor shards serving this listener — the server's
    /// whole thread count, independent of open connections.
    pub fn reactor_shards(&self) -> usize {
        self.stats.shards()
    }

    /// Requests shutdown and joins all shards. Bounded: shards drop
    /// idle keep-alive connections on the next wakeup instead of
    /// waiting out `read_timeout`.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for waker in &self.wakers {
            waker.wake();
        }
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
        self.wakers.clear();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.shards.is_empty() {
            self.shutdown_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::StatusCode;
    use crate::parser::ParserConfig;
    use std::io::{BufRead, Read, Write};
    use std::net::TcpStream;
    use std::time::Instant;

    fn demo_router() -> Router {
        let mut r = Router::new();
        r.get("/ping", |_, _| Response::text(StatusCode::OK, "pong"));
        r.post("/echo", |req, _| {
            Response::text(
                StatusCode::OK,
                String::from_utf8_lossy(&req.body).into_owned(),
            )
        });
        r
    }

    fn raw_roundtrip(addr: SocketAddr, request: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    /// Reads one response (status line + headers + Content-Length body)
    /// off a keep-alive connection.
    fn read_one_response(reader: &mut impl BufRead) -> (String, Vec<u8>) {
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut line = String::new();
        let mut content_length = 0usize;
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
            // An empty read is EOF: the peer closed mid-response.
            if line == "\r\n" || line.is_empty() {
                break;
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, body)
    }

    #[test]
    fn serves_and_shuts_down() {
        let h = Server::spawn("127.0.0.1:0", demo_router(), ServerConfig::default()).unwrap();
        let reply = raw_roundtrip(
            h.addr(),
            "GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.ends_with("pong"));
        h.shutdown();
    }

    #[test]
    fn echo_post_body() {
        let h = Server::spawn("127.0.0.1:0", demo_router(), ServerConfig::default()).unwrap();
        let reply = raw_roundtrip(
            h.addr(),
            "POST /echo HTTP/1.1\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello",
        );
        assert!(reply.ends_with("hello"), "{reply}");
        h.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests() {
        let h = Server::spawn("127.0.0.1:0", demo_router(), ServerConfig::default()).unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        for _ in 0..3 {
            s.write_all(b"GET /ping HTTP/1.1\r\n\r\n").unwrap();
            let mut reader = std::io::BufReader::new(&s);
            let (status, body) = read_one_response(&mut reader);
            assert!(status.starts_with("HTTP/1.1 200"), "{status}");
            assert_eq!(&body, b"pong");
        }
        h.shutdown();
    }

    #[test]
    fn pipelined_requests_all_answered() {
        let h = Server::spawn("127.0.0.1:0", demo_router(), ServerConfig::default()).unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        // Two requests in one segment; the second asks to close, so the
        // whole conversation is readable to EOF.
        s.write_all(
            b"GET /ping HTTP/1.1\r\n\r\nGET /ping HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert_eq!(out.matches("HTTP/1.1 200 OK").count(), 2, "{out}");
        assert!(out.ends_with("pong"));
        h.shutdown();
    }

    #[test]
    fn malformed_request_gets_400_and_close() {
        let h = Server::spawn("127.0.0.1:0", demo_router(), ServerConfig::default()).unwrap();
        let reply = raw_roundtrip(h.addr(), "NOT-HTTP\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        h.shutdown();
    }

    #[test]
    fn unknown_route_is_404() {
        let h = Server::spawn("127.0.0.1:0", demo_router(), ServerConfig::default()).unwrap();
        let reply = raw_roundtrip(h.addr(), "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 404"), "{reply}");
        h.shutdown();
    }

    #[test]
    fn http_1_0_closes_by_default() {
        let h = Server::spawn("127.0.0.1:0", demo_router(), ServerConfig::default()).unwrap();
        // No Connection header at all: 1.0 semantics close the socket,
        // so read_to_string terminates without our asking.
        let reply = raw_roundtrip(h.addr(), "GET /ping HTTP/1.0\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.contains("Connection: close\r\n"), "{reply}");
        assert!(reply.ends_with("pong"));
        h.shutdown();
    }

    #[test]
    fn http_1_0_keep_alive_is_honored() {
        let h = Server::spawn("127.0.0.1:0", demo_router(), ServerConfig::default()).unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        for _ in 0..2 {
            s.write_all(b"GET /ping HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                .unwrap();
            let mut reader = std::io::BufReader::new(&s);
            let (status, body) = read_one_response(&mut reader);
            assert!(status.starts_with("HTTP/1.1 200"), "{status}");
            assert_eq!(&body, b"pong");
        }
        h.shutdown();
    }

    #[test]
    fn connection_close_token_list_is_respected() {
        let h = Server::spawn("127.0.0.1:0", demo_router(), ServerConfig::default()).unwrap();
        // "keep-alive, close" — the buggy first-token-only reading kept
        // this open and the client would hang reading to EOF.
        let reply = raw_roundtrip(
            h.addr(),
            "GET /ping HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.ends_with("pong"));
        h.shutdown();
    }

    #[test]
    fn head_suppresses_body_but_keeps_content_length() {
        let h = Server::spawn("127.0.0.1:0", demo_router(), ServerConfig::default()).unwrap();
        let reply = raw_roundtrip(h.addr(), "HEAD /ping HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(
            reply.contains("Content-Length: 4\r\n"),
            "true GET length advertised: {reply}"
        );
        assert!(reply.ends_with("\r\n\r\n"), "no body octets: {reply:?}");
        h.shutdown();
    }

    #[test]
    fn concurrent_requests_across_workers() {
        let h = Arc::new(
            Server::spawn("127.0.0.1:0", demo_router(), ServerConfig::default()).unwrap(),
        );
        let addr = h.addr();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let reply = raw_roundtrip(
                            addr,
                            "GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n",
                        );
                        assert!(reply.ends_with("pong"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn oversized_body_rejected_with_413() {
        let config = ServerConfig {
            parser: ParserConfig {
                max_body: 8,
                ..ParserConfig::default()
            },
            ..ServerConfig::default()
        };
        let h = Server::spawn("127.0.0.1:0", demo_router(), config).unwrap();
        let reply = raw_roundtrip(
            h.addr(),
            "POST /echo HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789",
        );
        assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
        h.shutdown();
    }

    #[test]
    fn smuggling_shaped_content_length_is_rejected() {
        let h = Server::spawn("127.0.0.1:0", demo_router(), ServerConfig::default()).unwrap();
        let reply = raw_roundtrip(
            h.addr(),
            "POST /echo HTTP/1.1\r\nContent-Length: +5\r\nConnection: close\r\n\r\nhello",
        );
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        let reply = raw_roundtrip(
            h.addr(),
            "POST /echo HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!",
        );
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        h.shutdown();
    }

    #[test]
    fn observer_sees_every_request() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Mutex;
        let hits = Arc::new(AtomicUsize::new(0));
        let statuses = Arc::new(Mutex::new(Vec::new()));
        let config = ServerConfig {
            observer: Some({
                let hits = Arc::clone(&hits);
                let statuses = Arc::clone(&statuses);
                Arc::new(move |req, resp, timing| {
                    hits.fetch_add(1, Ordering::SeqCst);
                    statuses
                        .lock()
                        .unwrap()
                        .push((req.path.clone(), resp.status.0, *timing));
                })
            }),
            ..ServerConfig::default()
        };
        let h = Server::spawn("127.0.0.1:0", demo_router(), config).unwrap();
        raw_roundtrip(h.addr(), "GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n");
        raw_roundtrip(h.addr(), "GET /missing HTTP/1.1\r\nConnection: close\r\n\r\n");
        h.shutdown();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        let seen = statuses.lock().unwrap();
        assert!(seen.iter().any(|(p, s, _)| p == "/ping" && *s == 200));
        assert!(seen.iter().any(|(p, s, _)| p == "/missing" && *s == 404));
        for (_, _, timing) in seen.iter() {
            assert!(timing.parse > Duration::ZERO, "parse time measured");
            assert!(!timing.reused, "fresh connections are not reuses");
        }
    }

    #[test]
    fn panicking_handler_costs_one_request_not_the_connection() {
        use std::sync::Mutex;
        let statuses = Arc::new(Mutex::new(Vec::new()));
        let config = ServerConfig {
            observer: Some({
                let statuses = Arc::clone(&statuses);
                Arc::new(move |req, resp, _timing: &RequestTiming| {
                    statuses
                        .lock()
                        .unwrap()
                        .push((req.path.clone(), resp.status.0));
                })
            }),
            ..ServerConfig::default()
        };
        let mut router = demo_router();
        router.get("/boom", |_, _| panic!("handler bug"));
        router.set_error_renderer(|status, code, _message| {
            Response::json_bytes(
                status,
                format!("{{\"error\":{{\"code\":\"{code}\"}}}}").into_bytes(),
            )
        });
        let h = Server::spawn("127.0.0.1:0", router, config).unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        let mut reader = std::io::BufReader::new(s.try_clone().unwrap());
        s.write_all(b"GET /boom HTTP/1.1\r\n\r\n").unwrap();
        let (status, body) = read_one_response(&mut reader);
        assert!(status.starts_with("HTTP/1.1 500"), "{status}");
        assert_eq!(body, br#"{"error":{"code":"internal"}}"#);
        // Same connection, same reactor thread: still serving.
        s.write_all(b"GET /ping HTTP/1.1\r\n\r\n").unwrap();
        let (status, body) = read_one_response(&mut reader);
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert_eq!(body, b"pong");
        drop((s, reader));
        h.shutdown();
        let seen = statuses.lock().unwrap();
        assert_eq!(
            *seen,
            vec![("/boom".to_string(), 500), ("/ping".to_string(), 200)]
        );
    }

    #[test]
    fn observer_timing_marks_keepalive_reuse() {
        use std::sync::Mutex;
        let reuses = Arc::new(Mutex::new(Vec::new()));
        let config = ServerConfig {
            observer: Some({
                let reuses = Arc::clone(&reuses);
                Arc::new(move |_req, _resp, timing: &RequestTiming| {
                    reuses.lock().unwrap().push(timing.reused);
                })
            }),
            ..ServerConfig::default()
        };
        let h = Server::spawn("127.0.0.1:0", demo_router(), config).unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        for _ in 0..3 {
            s.write_all(b"GET /ping HTTP/1.1\r\n\r\n").unwrap();
            let mut reader = std::io::BufReader::new(&s);
            let _ = read_one_response(&mut reader);
        }
        drop(s);
        h.shutdown();
        assert_eq!(&*reuses.lock().unwrap(), &[false, true, true]);
    }

    #[test]
    fn sheds_are_counted_when_a_shard_is_at_its_cap() {
        // An application-style JSON renderer, to pin the envelope shape
        // a shed client actually receives.
        let mut router = demo_router();
        router.set_error_renderer(|status, code, _message| {
            Response::json_bytes(
                status,
                format!("{{\"error\":{{\"code\":\"{code}\"}}}}").into_bytes(),
            )
        });
        let config = ServerConfig {
            workers: 1,
            backlog: 1,
            read_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        };
        let h = Server::spawn("127.0.0.1:0", router, config).unwrap();
        // Occupy the single connection slot with a half-sent request.
        let mut stall = TcpStream::connect(h.addr()).unwrap();
        stall.write_all(b"GET /ping HTTP/1.1\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // Flood: every arrival past the cap must be shed — observably,
        // and with a 503 envelope rather than a silent RST.
        let flood: Vec<_> = (0..8)
            .map(|_| TcpStream::connect(h.addr()).unwrap())
            .collect();
        let mut envelopes = 0;
        for mut s in flood {
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut reply = String::new();
            if s.read_to_string(&mut reply).is_ok() && !reply.is_empty() {
                assert!(reply.starts_with("HTTP/1.1 503"), "{reply}");
                assert!(reply.contains("Retry-After: 1\r\n"), "{reply}");
                assert!(reply.contains("\"code\":\"shed\""), "{reply}");
                envelopes += 1;
            }
        }
        assert!(
            h.stats().shed_total() >= 1,
            "saturation left no trace: 0 sheds counted"
        );
        assert!(envelopes >= 1, "no shed client saw the 503 envelope");
        drop(stall);
        h.shutdown();
    }

    #[test]
    fn completed_requests_refresh_the_keepalive_deadline() {
        // The companion edge to the slow-loris rule: byte trickles never
        // refresh the deadline, but *completed* requests always do. Three
        // requests spaced just inside the timeout add up to well past it;
        // the connection must survive because each completion re-arms.
        let config = ServerConfig {
            workers: 1,
            read_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        };
        let h = Server::spawn("127.0.0.1:0", demo_router(), config).unwrap();
        let s = TcpStream::connect(h.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut writer = s.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(s);
        let started = Instant::now();
        for round in 0..3 {
            writer.write_all(b"GET /ping HTTP/1.1\r\n\r\n").unwrap();
            let (status, body) = read_one_response(&mut reader);
            assert!(status.contains("200"), "round {round}: {status}");
            assert_eq!(body, b"pong", "round {round}");
            std::thread::sleep(Duration::from_millis(220));
        }
        assert!(
            started.elapsed() > Duration::from_millis(600),
            "the rounds must outlive the 300ms idle deadline in total"
        );
        h.shutdown();
    }

    #[test]
    fn slow_loris_is_deadlined_without_blocking_others() {
        let config = ServerConfig {
            workers: 1,
            read_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        };
        let h = Server::spawn("127.0.0.1:0", demo_router(), config).unwrap();
        // The loris: a partial request line, then a trickle.
        let mut loris = TcpStream::connect(h.addr()).unwrap();
        loris.write_all(b"GET /ping HTTP/1.1\r\nX-Slow: ").unwrap();

        // With one shard and the loris pending, normal traffic must
        // still be served promptly — the old thread-per-connection
        // design parked its only worker here for read_timeout.
        let started = Instant::now();
        let reply = raw_roundtrip(h.addr(), "GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(reply.ends_with("pong"), "{reply}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "request behind a loris took {:?}",
            started.elapsed()
        );

        // Trickling bytes does NOT extend the deadline: only a completed
        // request does. The loris gets closed ~read_timeout after accept.
        for _ in 0..6 {
            let _ = loris.write(b"a");
            std::thread::sleep(Duration::from_millis(150));
        }
        loris
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut sink = Vec::new();
        let outcome = loris.read_to_end(&mut sink);
        assert!(
            outcome.is_ok(),
            "loris socket should be closed by deadline, got {outcome:?}"
        );
        h.shutdown();
    }

    #[test]
    fn shutdown_is_bounded_despite_idle_keepalive_conns() {
        // Default read_timeout is 10s; shutdown must not wait it out.
        let h = Server::spawn("127.0.0.1:0", demo_router(), ServerConfig::default()).unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"GET /ping HTTP/1.1\r\n\r\n").unwrap();
        let mut reader = std::io::BufReader::new(&s);
        let (status, _) = read_one_response(&mut reader);
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        // `s` now sits idle in a shard's slab.
        let started = Instant::now();
        h.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "shutdown stalled {:?} behind an idle keep-alive connection",
            started.elapsed()
        );
    }

    #[test]
    fn stats_track_open_connections() {
        let h = Server::spawn("127.0.0.1:0", demo_router(), ServerConfig::default()).unwrap();
        let stats = h.stats();
        assert_eq!(stats.shards(), 4);
        assert_eq!(stats.open_conns(), 0);
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"GET /ping HTTP/1.1\r\n\r\n").unwrap();
        let mut reader = std::io::BufReader::new(&s);
        let _ = read_one_response(&mut reader);
        assert_eq!(stats.open_conns(), 1, "keep-alive conn is counted");
        assert!(stats.accepted() >= 1);
        assert!(stats.wakeups() >= 1);
        drop(s);
        // The reactor notices the close on its next wakeup.
        let deadline = Instant::now() + Duration::from_secs(2);
        while stats.open_conns() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(stats.open_conns(), 0, "close was not accounted");
        h.shutdown();
    }

    #[test]
    fn parse_errors_render_through_the_router_error_renderer() {
        let mut router = demo_router();
        router.set_error_renderer(|status, code, message| {
            Response::text(status, format!("{code}: {message}"))
        });
        let config = ServerConfig {
            parser: ParserConfig {
                max_body: 8,
                ..ParserConfig::default()
            },
            ..ServerConfig::default()
        };
        let h = Server::spawn("127.0.0.1:0", router, config).unwrap();
        let reply = raw_roundtrip(
            h.addr(),
            "POST /echo HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789",
        );
        assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
        assert!(reply.contains("payload_too_large:"), "{reply}");
        h.shutdown();
    }

    #[test]
    fn bad_content_length_renders_its_own_code() {
        let mut router = demo_router();
        router.set_error_renderer(|status, code, message| {
            Response::text(status, format!("{code}: {message}"))
        });
        let h = Server::spawn("127.0.0.1:0", router, ServerConfig::default()).unwrap();
        let reply = raw_roundtrip(
            h.addr(),
            "POST /echo HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
        );
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(reply.contains("bad_content_length:"), "{reply}");
        h.shutdown();
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let addr;
        {
            let h = Server::spawn("127.0.0.1:0", demo_router(), ServerConfig::default()).unwrap();
            addr = h.addr();
            // handle dropped here
        }
        // After drop, connections should fail (give the OS a moment).
        std::thread::sleep(Duration::from_millis(50));
        let outcome = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        // Either refused outright, or accepted by a dying socket backlog —
        // but a subsequent request must not be served.
        if let Ok(mut s) = outcome {
            let _ = s.write_all(b"GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n");
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            assert!(!out.contains("pong"), "server still alive after drop");
        }
    }
}
