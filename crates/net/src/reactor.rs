//! Per-shard readiness loop: the evented replacement for
//! thread-per-connection.
//!
//! Each reactor shard owns a [`Poller`], a clone of the shared
//! non-blocking listener, and every connection it accepts, end to end.
//! A connection is a small state machine — reading → dispatching →
//! writing → keep-alive idle — driven by readiness events over the
//! existing incremental [`RequestParser`], so one thread multiplexes
//! thousands of idle keep-alive sockets instead of parking on one.
//!
//! A hashed timer wheel gives every connection a single deadline:
//! complete a request within `read_timeout` of accept (or of the last
//! served response) or be closed. Because the deadline only refreshes on
//! *completed* requests, a slow-loris client trickling header bytes
//! cannot extend it — the structural fix for the "one byte per 9 s pins
//! a worker forever" bug. The same mechanism bounds shutdown: the flag
//! flips, wakers fire, and each shard drops its connections (idle ones
//! included) on the next loop turn instead of stalling out a blocking
//! `read`.

use crate::epoll::{Event, Poller, Waker};
use crate::http::{Method, StatusCode};
use crate::parser::{ParseError, RequestParser};
use crate::router::Router;
use crate::server::{NetStats, RequestTiming, ServerConfig};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poller token for the shared listener.
pub(crate) const LISTENER_TOKEN: u64 = u64::MAX;
/// Poller token for the shard's waker.
pub(crate) const WAKER_TOKEN: u64 = u64::MAX - 1;

/// Timer wheel granularity. Deadlines fire up to one tick late, never
/// early.
const TICK: Duration = Duration::from_millis(100);
/// Timer wheel slots; horizon = TICK × SLOTS (51.2 s). Deadlines beyond
/// the horizon park at the last slot and re-insert on fire.
const WHEEL_SLOTS: usize = 512;
/// Per-readiness-event read budget (chunks of 4 KiB) so one firehose
/// client cannot starve the rest of the shard; level-triggered polling
/// re-delivers whatever is left.
const READ_CHUNKS_PER_EVENT: usize = 16;
/// Accepts drained per listener event, for the same fairness reason.
const ACCEPTS_PER_EVENT: usize = 256;

/// Everything a shard thread owns.
pub(crate) struct ShardContext {
    pub shard: usize,
    pub listener: TcpListener,
    pub poller: Poller,
    pub waker: Waker,
    pub router: Arc<Router>,
    pub config: ServerConfig,
    pub shutdown: Arc<AtomicBool>,
    pub stats: Arc<NetStats>,
}

fn pack(idx: u32, gen: u32) -> u64 {
    (u64::from(gen) << 32) | u64::from(idx)
}

fn unpack(token: u64) -> (u32, u32) {
    (token as u32, (token >> 32) as u32)
}

// ------------------------------------------------------------------ conn

/// One connection's state between readiness events.
struct Conn {
    stream: TcpStream,
    /// Receive buffer the incremental parser consumes from.
    buf: Vec<u8>,
    /// Serialized responses awaiting the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// Requests served (drives `RequestTiming::reused`).
    served: usize,
    /// Parse time accumulated across partial reads of the current
    /// request.
    parse_spent: Duration,
    /// Absolute deadline: complete a request by then or be closed.
    deadline: Instant,
    close_after_write: bool,
    peer_eof: bool,
    /// Whether the poller registration currently includes writability.
    want_write: bool,
}

impl Conn {
    fn new(stream: TcpStream, deadline: Instant) -> Conn {
        Conn {
            stream,
            buf: Vec::with_capacity(4096),
            out: Vec::new(),
            out_pos: 0,
            served: 0,
            parse_spent: Duration::ZERO,
            deadline,
            close_after_write: false,
            peer_eof: false,
            want_write: false,
        }
    }

    fn out_pending(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

// ------------------------------------------------------------------ slab

/// Generation-tagged connection slab: tokens carry `(index, generation)`
/// so a readiness event for a closed-and-reused slot is detected as
/// stale instead of driving the wrong connection.
struct Slab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn insert(&mut self, conn: Conn) -> (u32, u32) {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            if let Some(slot) = self.slots.get_mut(idx as usize) {
                slot.conn = Some(conn);
                return (idx, slot.gen);
            }
        }
        let idx = self.slots.len() as u32;
        self.slots.push(Slot {
            gen: 0,
            conn: Some(conn),
        });
        (idx, 0)
    }

    fn get_mut(&mut self, idx: u32, gen: u32) -> Option<&mut Conn> {
        let slot = self.slots.get_mut(idx as usize)?;
        if slot.gen != gen {
            return None;
        }
        slot.conn.as_mut()
    }

    /// Frees a slot, bumping its generation so in-flight tokens go
    /// stale.
    fn remove(&mut self, idx: u32) -> Option<Conn> {
        let slot = self.slots.get_mut(idx as usize)?;
        let conn = slot.conn.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        Some(conn)
    }

    fn drain(&mut self) -> Vec<Conn> {
        let mut out = Vec::with_capacity(self.live);
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            if let Some(conn) = slot.conn.take() {
                slot.gen = slot.gen.wrapping_add(1);
                self.free.push(idx as u32);
                out.push(conn);
            }
        }
        self.live = 0;
        out
    }
}

// ----------------------------------------------------------- timer wheel

/// Hashed timer wheel over fixed ticks. Entries are `(idx, gen)` hints:
/// on fire the connection's *actual* deadline is consulted, and entries
/// whose deadline moved (the connection served another request) or went
/// stale (closed slot) are re-inserted or dropped. Lazy re-insertion
/// keeps `schedule` O(1) with no removal bookkeeping.
struct TimerWheel {
    slots: Vec<Vec<(u32, u32)>>,
    tick: Duration,
    start: Instant,
    /// Next tick index not yet fired.
    cursor: u64,
}

impl TimerWheel {
    fn new(tick: Duration, nslots: usize, now: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..nslots.max(2)).map(|_| Vec::new()).collect(),
            tick,
            start: now,
            cursor: 0,
        }
    }

    fn tick_index(&self, at: Instant) -> u64 {
        let since = at.saturating_duration_since(self.start).as_nanos();
        (since / self.tick.as_nanos().max(1)) as u64
    }

    fn schedule(&mut self, idx: u32, gen: u32, deadline: Instant) {
        let n = self.slots.len() as u64;
        // +1: fire on the first tick boundary at-or-after the deadline.
        let mut t = self.tick_index(deadline) + 1;
        if t < self.cursor {
            t = self.cursor;
        }
        if t >= self.cursor + n {
            // Beyond the horizon: park at the last slot; the fire-time
            // deadline check re-inserts for the remainder.
            t = self.cursor + n - 1;
        }
        if let Some(slot) = self.slots.get_mut((t % n) as usize) {
            slot.push((idx, gen));
        }
    }

    /// Time until the next tick with entries, `None` when the wheel is
    /// empty (sleep until externally woken).
    fn next_wakeup(&self, now: Instant) -> Option<Duration> {
        let n = self.slots.len() as u64;
        let t = (0..n)
            .map(|off| self.cursor + off)
            .find(|t| {
                self.slots
                    .get((t % n) as usize)
                    .is_some_and(|s| !s.is_empty())
            })?;
        let fire_at = self.start + Duration::from_nanos((self.tick.as_nanos() as u64).saturating_mul(t));
        Some(fire_at.saturating_duration_since(now))
    }

    /// Fires every entry in ticks up to `now`.
    fn advance(&mut self, now: Instant, mut expired: impl FnMut(u32, u32)) {
        let target = self.tick_index(now);
        if target < self.cursor {
            return;
        }
        let n = self.slots.len() as u64;
        // A long sleep may skip more than a full rotation; each slot
        // only needs visiting once.
        let span = (target - self.cursor + 1).min(n);
        for i in 0..span {
            let t = self.cursor + i;
            if let Some(slot) = self.slots.get_mut((t % n) as usize) {
                for (idx, gen) in std::mem::take(slot) {
                    expired(idx, gen);
                }
            }
        }
        self.cursor = target + 1;
    }
}

// ------------------------------------------------------------- the loop

/// Runs one reactor shard until shutdown.
pub(crate) fn run(ctx: ShardContext) {
    let ShardContext {
        shard,
        listener,
        poller,
        waker,
        router,
        config,
        shutdown,
        stats,
    } = ctx;
    let mut slab = Slab::new();
    let mut wheel = TimerWheel::new(TICK, WHEEL_SLOTS, Instant::now());
    let mut events: Vec<Event> = Vec::with_capacity(256);
    // Continuous profiling: each shard thread is sampled by name; the
    // phase tags below split its wall-clock into epoll wait vs. accept
    // vs. connection I/O + dispatch vs. timer work.
    let _prof = loki_obs::prof::register_thread("net.reactor", shard.min(usize::from(u16::MAX)) as u16);

    loop {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let timeout = wheel.next_wakeup(Instant::now());
        events.clear();
        loki_obs::phase!("reactor.epoll_wait");
        if poller.wait(&mut events, timeout).is_err() {
            // A broken poller is unrecoverable for this shard; other
            // shards keep the listener served.
            break;
        }
        stats.record_wakeup(shard);
        if shutdown.load(Ordering::Acquire) {
            break;
        }

        for i in 0..events.len() {
            let Some(ev) = events.get(i).copied() else {
                break;
            };
            match ev.token {
                WAKER_TOKEN => waker.drain(),
                LISTENER_TOKEN => {
                    loki_obs::phase!("reactor.accept");
                    accept_burst(
                        &listener, &poller, &mut slab, &mut wheel, &router, &config, &stats,
                        shard,
                    );
                }
                token => {
                    let (idx, gen) = unpack(token);
                    // Covers reads, router dispatch and writes; the
                    // store's own tags refine it during a submit.
                    loki_obs::phase!("reactor.dispatch");
                    drive_conn(
                        &poller, &mut slab, &mut wheel, &router, &config, &shutdown, &stats,
                        shard, idx, gen, ev,
                    );
                }
            }
        }

        // Fire deadlines. Entries are hints: a connection whose deadline
        // moved since scheduling is re-armed for the remainder.
        loki_obs::phase!("reactor.timers");
        let now = Instant::now();
        let mut fired: Vec<(u32, u32)> = Vec::new();
        wheel.advance(now, |idx, gen| fired.push((idx, gen)));
        for (idx, gen) in fired {
            let deadline = match slab.get_mut(idx, gen) {
                Some(conn) => conn.deadline,
                None => continue,
            };
            if deadline <= now {
                close_conn(&poller, &mut slab, &stats, shard, idx);
            } else {
                wheel.schedule(idx, gen, deadline);
            }
        }
    }

    // Shutdown: drop every connection — including idle keep-alive ones,
    // which is what bounds `ServerHandle::shutdown()`.
    for conn in slab.drain() {
        poller.remove(conn.stream.as_raw_fd());
        stats.record_close(shard);
    }
}

/// Drains the accept queue: admit up to the per-shard cap, shed the
/// rest with a best-effort 503 envelope.
#[allow(clippy::too_many_arguments)]
fn accept_burst(
    listener: &TcpListener,
    poller: &Poller,
    slab: &mut Slab,
    wheel: &mut TimerWheel,
    router: &Router,
    config: &ServerConfig,
    stats: &NetStats,
    shard: usize,
) {
    for _ in 0..ACCEPTS_PER_EVENT {
        match listener.accept() {
            Ok((stream, _)) => {
                stats.record_accept(shard);
                if slab.len() >= config.backlog.max(1) {
                    shed(stream, router);
                    stats.record_shed(shard);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let deadline = Instant::now() + config.read_timeout;
                let fd = stream.as_raw_fd();
                let (idx, gen) = slab.insert(Conn::new(stream, deadline));
                if poller.add(fd, pack(idx, gen), true, false).is_err() {
                    slab.remove(idx);
                    continue;
                }
                wheel.schedule(idx, gen, deadline);
                stats.record_open(shard);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Sheds a connection at capacity: best-effort `503 Retry-After: 1`
/// through the router's error renderer, close. A silent RST would leave
/// clients guessing; the envelope tells them to back off briefly and
/// retry. The caller counts the shed in [`NetStats`].
fn shed(mut stream: TcpStream, router: &Router) {
    let mut response = router.render_error(
        StatusCode::SERVICE_UNAVAILABLE,
        "shed",
        "server at connection capacity",
    );
    response.headers.insert("Retry-After", "1");
    let bytes = response.serialize(true, false);
    // One non-blocking write: a fresh socket's send buffer takes a small
    // envelope essentially always, and a peer that can't is not worth
    // waiting on while at capacity.
    let _ = stream.set_nonblocking(true);
    let _ = stream.write(&bytes);
}

enum Flush {
    Done,
    Pending,
    Broken,
}

fn flush_out(conn: &mut Conn) -> Flush {
    while conn.out_pending() {
        let rest = conn.out.get(conn.out_pos..).unwrap_or_default();
        match conn.stream.write(rest) {
            Ok(0) => return Flush::Broken,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Flush::Pending,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Flush::Broken,
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    Flush::Done
}

/// Reads a bounded burst into the connection buffer. Returns `false` on
/// a fatal socket error.
fn read_burst(conn: &mut Conn) -> bool {
    let mut chunk = [0u8; 4096];
    for _ in 0..READ_CHUNKS_PER_EVENT {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.peer_eof = true;
                break;
            }
            Ok(n) => conn.buf.extend_from_slice(chunk.get(..n).unwrap_or(&chunk)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

/// Parses and dispatches every complete request in the buffer,
/// serializing responses into `out`. Returns whether any request
/// completed (which refreshes the deadline).
fn process_requests(
    conn: &mut Conn,
    parser: &RequestParser,
    router: &Router,
    config: &ServerConfig,
    shutdown: &AtomicBool,
) -> bool {
    let mut progressed = false;
    loop {
        let parse_started = Instant::now();
        let parsed = parser.parse(&mut conn.buf);
        conn.parse_spent += parse_started.elapsed();
        match parsed {
            Ok(Some(request)) => {
                // In-flight requests finish during shutdown, but their
                // connections don't outlive it.
                let close = request.wants_close() || shutdown.load(Ordering::Acquire);
                let head = request.method == Method::Head;
                let dispatch_started = Instant::now();
                let response = router.dispatch(&request);
                let timing = RequestTiming {
                    parse: conn.parse_spent,
                    dispatch: dispatch_started.elapsed(),
                    reused: conn.served > 0,
                };
                conn.parse_spent = Duration::ZERO;
                conn.served += 1;
                if let Some(observer) = &config.observer {
                    observer(&request, &response, &timing);
                }
                conn.out.extend_from_slice(&response.serialize(close, head));
                progressed = true;
                if close {
                    conn.close_after_write = true;
                    break;
                }
            }
            Ok(None) => break,
            Err(e) => {
                conn.parse_spent = Duration::ZERO;
                let response =
                    router.render_error(e.status(), parse_error_code(&e), &e.to_string());
                conn.out.extend_from_slice(&response.serialize(true, false));
                conn.close_after_write = true;
                break;
            }
        }
    }
    progressed
}

/// Machine-readable code for a parse-level error, fed to the router's
/// error renderer so parser rejections share the application's error
/// body shape.
pub(crate) fn parse_error_code(e: &ParseError) -> &'static str {
    match e {
        ParseError::BodyTooLarge => "payload_too_large",
        ParseError::HeadersTooLarge | ParseError::RequestLineTooLong => "headers_too_large",
        ParseError::BadContentLength => "bad_content_length",
        _ => "bad_request",
    }
}

/// Drives one connection through its state machine for one readiness
/// event.
#[allow(clippy::too_many_arguments)]
fn drive_conn(
    poller: &Poller,
    slab: &mut Slab,
    wheel: &mut TimerWheel,
    router: &Router,
    config: &ServerConfig,
    shutdown: &AtomicBool,
    stats: &NetStats,
    shard: usize,
    idx: u32,
    gen: u32,
    ev: Event,
) {
    let parser = RequestParser::new(config.parser);
    enum Verdict {
        Keep,
        Close,
    }
    let verdict = 'conn: {
        let Some(conn) = slab.get_mut(idx, gen) else {
            return; // stale token: slot was closed (and possibly reused)
        };

        if ev.writable && conn.out_pending() {
            if let Flush::Broken = flush_out(conn) {
                break 'conn Verdict::Close;
            }
        }

        // Backpressure: while a response is queued, the socket's read
        // side stays idle so a pipelining firehose can't balloon `out`.
        if ev.readable && !conn.peer_eof && !conn.out_pending() && !read_burst(conn) {
            break 'conn Verdict::Close;
        }

        if !conn.close_after_write && !conn.out_pending() {
            let progressed = process_requests(conn, &parser, router, config, shutdown);
            if progressed {
                conn.deadline = Instant::now() + config.read_timeout;
                wheel.schedule(idx, gen, conn.deadline);
            }
        }

        match flush_out(conn) {
            Flush::Broken => break 'conn Verdict::Close,
            Flush::Done => {
                if conn.close_after_write || conn.peer_eof {
                    break 'conn Verdict::Close;
                }
                if conn.want_write {
                    conn.want_write = false;
                    let fd = conn.stream.as_raw_fd();
                    if poller.modify(fd, pack(idx, gen), true, false).is_err() {
                        break 'conn Verdict::Close;
                    }
                }
            }
            Flush::Pending => {
                if !conn.want_write {
                    conn.want_write = true;
                    let fd = conn.stream.as_raw_fd();
                    if poller.modify(fd, pack(idx, gen), false, true).is_err() {
                        break 'conn Verdict::Close;
                    }
                }
            }
        }
        Verdict::Keep
    };
    if let Verdict::Close = verdict {
        close_conn(poller, slab, stats, shard, idx);
    }
}

fn close_conn(poller: &Poller, slab: &mut Slab, stats: &NetStats, shard: usize, idx: u32) {
    if let Some(conn) = slab.remove(idx) {
        poller.remove(conn.stream.as_raw_fd());
        stats.record_close(shard);
        // Dropping the stream closes the fd.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_conn(deadline: Instant) -> Conn {
        // A socket pair is overkill for slab bookkeeping tests; a bound
        // listener-backed stream is the cheapest real TcpStream.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        Conn::new(stream, deadline)
    }

    #[test]
    fn slab_reuses_slots_with_fresh_generations() {
        let mut slab = Slab::new();
        let deadline = Instant::now();
        let (i0, g0) = slab.insert(dummy_conn(deadline));
        assert_eq!((i0, g0), (0, 0));
        assert!(slab.get_mut(i0, g0).is_some());
        assert!(slab.get_mut(i0, g0 + 1).is_none(), "wrong gen is stale");

        slab.remove(i0).unwrap();
        assert_eq!(slab.len(), 0);
        assert!(slab.get_mut(i0, g0).is_none(), "freed slot is stale");

        let (i1, g1) = slab.insert(dummy_conn(deadline));
        assert_eq!(i1, i0, "slot reused");
        assert_eq!(g1, g0 + 1, "generation bumped");
        assert!(slab.get_mut(i0, g0).is_none(), "old token stays stale");
        assert!(slab.get_mut(i1, g1).is_some());
    }

    #[test]
    fn slab_drain_empties_everything() {
        let mut slab = Slab::new();
        let deadline = Instant::now();
        for _ in 0..5 {
            slab.insert(dummy_conn(deadline));
        }
        assert_eq!(slab.len(), 5);
        assert_eq!(slab.drain().len(), 5);
        assert_eq!(slab.len(), 0);
    }

    #[test]
    fn wheel_fires_after_deadline_not_before() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 16, t0);
        wheel.schedule(1, 0, t0 + Duration::from_millis(25));

        let mut fired = Vec::new();
        wheel.advance(t0 + Duration::from_millis(20), |i, g| fired.push((i, g)));
        assert!(fired.is_empty(), "not due yet");
        wheel.advance(t0 + Duration::from_millis(50), |i, g| fired.push((i, g)));
        assert_eq!(fired, vec![(1, 0)]);
    }

    #[test]
    fn wheel_parks_beyond_horizon_entries_at_the_rim() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 4, t0);
        // Horizon is 40ms; a 10s deadline must still fire eventually
        // (the caller re-inserts using the conn's real deadline).
        wheel.schedule(9, 3, t0 + Duration::from_secs(10));
        let mut fired = Vec::new();
        wheel.advance(t0 + Duration::from_millis(100), |i, g| fired.push((i, g)));
        assert_eq!(fired, vec![(9, 3)], "rim entry fires within one rotation");
    }

    #[test]
    fn wheel_next_wakeup_tracks_earliest_entry() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 64, t0);
        assert!(wheel.next_wakeup(t0).is_none(), "empty wheel sleeps forever");
        wheel.schedule(1, 0, t0 + Duration::from_millis(200));
        let wake = wheel.next_wakeup(t0).unwrap();
        assert!(wake >= Duration::from_millis(190), "{wake:?}");
        assert!(wake <= Duration::from_millis(220), "{wake:?}");
    }

    #[test]
    fn wheel_long_idle_fires_all_slots_once() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(1), 8, t0);
        for i in 0..8u32 {
            wheel.schedule(i, 0, t0 + Duration::from_millis(u64::from(i)));
        }
        // Sleep far past several full rotations.
        let mut fired = Vec::new();
        wheel.advance(t0 + Duration::from_secs(5), |i, _| fired.push(i));
        fired.sort_unstable();
        assert_eq!(fired, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn wheel_boundary_exact_deadline_fires_strictly_after_not_at() {
        // A deadline that lands *exactly* on a tick boundary must not
        // fire at that boundary: `schedule`'s +1 puts it on the first
        // boundary at-or-after the deadline, so a request finishing at
        // the instant its tick fires can never be evicted by the very
        // tick that saw it complete.
        let t0 = Instant::now();
        let tick = Duration::from_millis(10);
        let mut wheel = TimerWheel::new(tick, 16, t0);
        let boundary = t0 + tick * 3; // exactly tick index 3
        wheel.schedule(5, 0, boundary);

        let mut fired = Vec::new();
        wheel.advance(boundary, |i, g| fired.push((i, g)));
        assert!(fired.is_empty(), "fired at its own boundary: {fired:?}");
        wheel.advance(boundary + tick, |i, g| fired.push((i, g)));
        assert_eq!(fired, vec![(5, 0)], "fires on the next boundary");
    }

    #[test]
    fn completed_request_on_tick_boundary_rearms_without_eviction() {
        // Regression for the PR-8 keep-alive rule, replaying the event
        // loop's own fire-time check: a request completes exactly on a
        // wheel-tick boundary and refreshes `conn.deadline`; the stale
        // wheel entry later fires as a *hint*, and because the real
        // deadline moved, the loop re-arms instead of closing. Only the
        // connection's deadline is authoritative — never the hint.
        let t0 = Instant::now();
        let tick = Duration::from_millis(10);
        let timeout = tick * 4;
        let mut wheel = TimerWheel::new(tick, 16, t0);
        let mut slab = Slab::new();

        let first_deadline = t0 + timeout; // exactly tick index 4
        let (idx, gen) = slab.insert(dummy_conn(first_deadline));
        wheel.schedule(idx, gen, first_deadline);

        // The request completes exactly at the original deadline's
        // boundary; run() refreshes on completed requests only.
        let refreshed = first_deadline + timeout;
        slab.get_mut(idx, gen).unwrap().deadline = refreshed;
        wheel.schedule(idx, gen, refreshed);

        // The stale hint fires one tick after the old boundary; the
        // loop's check sees deadline > now and must keep the conn.
        let mut evicted = Vec::new();
        let mut fired = Vec::new();
        wheel.advance(first_deadline + tick, |i, g| fired.push((i, g)));
        assert!(!fired.is_empty(), "stale hint fires");
        for (i, g) in fired.drain(..) {
            let deadline = slab.get_mut(i, g).unwrap().deadline;
            let now = first_deadline + tick;
            if deadline <= now {
                evicted.push((i, g));
            } else {
                wheel.schedule(i, g, deadline);
            }
        }
        assert!(evicted.is_empty(), "spurious eviction: {evicted:?}");
        assert!(slab.get_mut(idx, gen).is_some(), "connection survives");

        // With no further requests, the refreshed deadline does evict —
        // trickling time (or bytes) past it never re-arms anything. The
        // hint may fire more than once (refresh + re-arm both scheduled
        // an entry); duplicates are harmless because the first close
        // leaves the slot stale for the rest.
        wheel.advance(refreshed + tick, |i, g| fired.push((i, g)));
        let due: Vec<_> = fired
            .drain(..)
            .filter(|&(i, g)| {
                slab.get_mut(i, g)
                    .is_some_and(|c| c.deadline <= refreshed + tick)
            })
            .collect();
        assert!(!due.is_empty(), "idle conn expires at the refreshed deadline");
        assert!(due.iter().all(|&e| e == (idx, gen)), "{due:?}");
    }

    #[test]
    fn token_packing_round_trips() {
        for (idx, gen) in [(0, 0), (1, 0), (0, 1), (77, 12345), (u32::MAX - 2, 7)] {
            assert_eq!(unpack(pack(idx, gen)), (idx, gen));
        }
        assert_ne!(pack(u32::MAX - 2, u32::MAX), LISTENER_TOKEN);
    }

    #[test]
    fn parse_error_codes_map() {
        assert_eq!(parse_error_code(&ParseError::BodyTooLarge), "payload_too_large");
        assert_eq!(parse_error_code(&ParseError::HeadersTooLarge), "headers_too_large");
        assert_eq!(
            parse_error_code(&ParseError::BadContentLength),
            "bad_content_length"
        );
        assert_eq!(parse_error_code(&ParseError::BadMethod), "bad_request");
    }
}
