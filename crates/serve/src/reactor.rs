//! Thread-per-core epoll reactor: the `--net epoll` serving path.
//!
//! N shards (default: one per core, capped at 8) each own an epoll
//! instance, a completion [`Mailbox`], and a slab of connections. The
//! listener is registered in every shard with `EPOLLEXCLUSIVE`, so the
//! kernel spreads accepts across shards (`SO_REUSEPORT`-style sharding
//! without rebinding the socket — `Server::bind` and every test keep
//! their single `TcpListener`). Each shard thread is best-effort pinned
//! to one CPU.
//!
//! Per connection the shard runs a small state machine:
//!
//! ```text
//! readable ─▶ RequestParser::feed ─▶ next_request loop (pipelining)
//!    ├─ non-embed route ┐→ response rendered immediately (or queued in
//!    ├─ embed cache hit ┘  order behind still-pending embeds)
//!    └─ embed miss       → admitted: park a Waiting reply slot; parsing
//!                          continues (up to PIPELINE_MAX embeds ride the
//!                          batcher concurrently per connection)
//! mailbox wake ─▶ render the matching slot ─▶ pump in-order slots into
//!                 the out buffer ─▶ resume pipelined parsing
//! writable ─▶ flush out buffer (writable interest only while nonempty)
//! ```
//!
//! Responses always leave in request order: each connection keeps an
//! ordered reply queue ([`ReplySlot`]), and only the contiguous
//! completed prefix is moved to the wire. Every buffer is bounded: the
//! parser enforces the 16 KiB / 8 MiB header/body caps, at most
//! [`PIPELINE_MAX`] requests are in flight per connection, and
//! pipelined parsing pauses while more than [`OUT_BACKPRESSURE_BYTES`]
//! of responses await the socket, with the read interest dropped so a
//! slow reader cannot balloon memory. Parsing resumes from the parser's
//! buffer as soon as a flush brings the backlog back under the bound —
//! the requests it holds were read already, so no socket event would.
//!
//! The timeout ladder (checked by a sweep each loop tick):
//! 1. slow header/body: a partial request older than
//!    `ServeConfig::header_timeout` → 408, close (slowloris shield);
//! 2. idle keep-alive: no partial, nothing in flight, quiet longer than
//!    `ServeConfig::idle_timeout` → silent close;
//! 3. reply guard: a parked embed older than deadline + 60 s → 500
//!    (mirrors the thread path's `recv_timeout` grace).
//!
//! Drain: shards deregister the listener, close idle connections, keep
//! serving parked/pipelined work (responses forced to `Connection:
//! close`), and exit once their slab is empty or a 30 s cap passes.
//! Admission control is untouched — shards feed the same `Queue`, the
//! same batcher answers, and measures stay byte-identical across both
//! net modes.

use crate::epoll::{
    pin_to_core, Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::http::{render_response, Request, RequestParser};
use crate::queue::{Mailbox, ReplyTo};
use crate::{
    embed_reply_outcome, log_slow, parse_error_reply, request_id, route_async, Outcome, Routed,
    Shared,
};
use observatory_obs as obs;
use observatory_obs::flight;
use observatory_obs::flight::FlightKind;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token for listener readiness events.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token for the shard's eventfd.
const TOKEN_WAKE: u64 = u64::MAX - 1;
/// Pause pipelined parsing while this many response bytes await flush.
const OUT_BACKPRESSURE_BYTES: usize = 1 << 20;
/// Compact the out buffer (drop its flushed prefix) once this many
/// consumed bytes accumulate without a full drain.
const OUT_COMPACT_BYTES: usize = 64 << 10;
/// Events drained per `epoll_wait`.
const MAX_EVENTS: usize = 256;
/// Read chunk size (stack buffer).
const READ_CHUNK: usize = 16 << 10;
/// Cap reads per readiness event so one firehose connection cannot
/// monopolize its shard; level-triggered epoll re-fires for the rest.
const MAX_READS_PER_EVENT: usize = 16;
/// In-flight pipelined requests per connection (parked embeds plus
/// responses queued behind them). Parsing pauses at the cap.
const PIPELINE_MAX: usize = 32;
/// Grace past the request deadline before a parked embed is answered
/// 500 (mirrors the thread path's `recv_timeout(deadline + 60s)`).
const REPLY_GRACE: Duration = Duration::from_secs(60);
/// How long a draining shard keeps flushing before force-closing.
const DRAIN_CAP: Duration = Duration::from_secs(30);

/// Running shard threads plus their wake handles.
pub(crate) struct ShardSet {
    handles: Vec<std::thread::JoinHandle<()>>,
    wakes: Vec<Arc<WakeFd>>,
}

impl ShardSet {
    /// Ring every shard's eventfd (e.g. after flipping the drain flag).
    pub fn wake_all(&self) {
        for w in &self.wakes {
            w.wake();
        }
    }

    /// Wake and join every shard.
    pub fn join(self) {
        self.wake_all();
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// Shard count: configured value, or one per core capped at 8.
pub(crate) fn effective_shards(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
    }
}

/// Spawn the shard event loops. Fails only if epoll/eventfd themselves
/// are unavailable.
pub(crate) fn spawn(
    shared: &Arc<Shared>,
    listener: &Arc<TcpListener>,
) -> std::io::Result<ShardSet> {
    let n = effective_shards(shared.config.net_shards);
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let mut handles = Vec::with_capacity(n);
    let mut wakes = Vec::with_capacity(n);
    for i in 0..n {
        let epoll = Epoll::new()?;
        let wake = Arc::new(WakeFd::new()?);
        let mb_wake = Arc::clone(&wake);
        let mailbox = Mailbox::new(Box::new(move || mb_wake.wake()));
        let shard = Shard {
            shared: Arc::clone(shared),
            listener: Arc::clone(listener),
            epoll,
            wake: Arc::clone(&wake),
            mailbox,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            accepting: false,
            drain_deadline: None,
        };
        wakes.push(wake);
        let core = i % cores;
        let h = std::thread::Builder::new()
            .name(format!("observatory-shard-{i}"))
            .spawn(move || {
                pin_to_core(core);
                shard.run();
            })
            .map_err(|e| std::io::Error::other(format!("spawn shard {i}: {e}")))?;
        handles.push(h);
    }
    Ok(ShardSet { handles, wakes })
}

/// A parked `/v1/embed` awaiting its batcher reply.
struct PendingWait {
    embed: crate::api::EmbedRequest,
    rid: Arc<str>,
    keep_alive: bool,
    req_start: Instant,
    submitted: Instant,
    deadline_in: Duration,
}

/// One entry in a connection's ordered reply queue. Requests enter in
/// parse order; a slot becomes `Ready` when its response is rendered,
/// and only the contiguous `Ready` prefix moves to the out buffer — so
/// pipelined responses leave in request order no matter how the
/// batcher reorders completions.
enum ReplySlot {
    /// A parked embed, keyed by its per-connection sequence number.
    Waiting(u16, PendingWait),
    /// A rendered response waiting for earlier slots; the flag is the
    /// response's keep-alive decision.
    Ready(Vec<u8>, bool),
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    fd: i32,
    parser: RequestParser,
    out: Vec<u8>,
    out_pos: usize,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// In-order reply queue (pipelining); empty in steady state.
    replies: VecDeque<ReplySlot>,
    /// Sequence source for `ReplySlot::Waiting` keys.
    next_seq: u16,
    /// First byte of the current partial request (slow-header clock).
    request_started: Option<Instant>,
    last_activity: Instant,
    /// The current response stream ends the connection once flushed.
    close_after_flush: bool,
    /// The kernel reported `EPOLLRDHUP`. Recorded so the interest can
    /// be dropped — level-triggered RDHUP re-fires on every wait while
    /// reads are paused (backpressure / pipeline cap), spinning the
    /// shard. `read()` still observes the EOF itself once reads resume.
    rdhup: bool,
    /// Peer shut down its write half (`read()` returned 0); serve what
    /// is parked, then close.
    peer_eof: bool,
    /// Unrecoverable socket error; tear down regardless of state.
    broken: bool,
    /// Counted in the `active` connection gauge (and `inflight`).
    active: bool,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn has_waiting(&self) -> bool {
        self.replies.iter().any(|r| matches!(r, ReplySlot::Waiting(..)))
    }

    /// The newest queued reply already decided to close the connection,
    /// so no further request may be parsed. `close_after_flush` itself
    /// is only set once the close response reaches the front of the
    /// line — earlier in-flight replies keep their own keep-alive
    /// decision.
    fn tail_closed(&self) -> bool {
        match self.replies.back() {
            Some(ReplySlot::Ready(_, keep)) => !keep,
            Some(ReplySlot::Waiting(_, p)) => !p.keep_alive,
            None => false,
        }
    }

    /// Whether another buffered request may be parsed and dispatched
    /// now: pipeline room, no pending close, backlog under the bound.
    fn can_dispatch(&self) -> bool {
        self.replies.len() < PIPELINE_MAX
            && !self.close_after_flush
            && !self.tail_closed()
            && !self.broken
            && self.backlog() < OUT_BACKPRESSURE_BYTES
    }

    fn wants_read(&self) -> bool {
        self.can_dispatch() && !self.peer_eof
    }

    fn busy(&self) -> bool {
        !self.replies.is_empty() || self.backlog() > 0 || self.parser.has_partial()
    }

    /// Whether the connection has nothing left to do and must go.
    fn finished(&self) -> bool {
        self.broken
            || (self.backlog() == 0
                && self.replies.is_empty()
                && (self.close_after_flush || self.peer_eof))
    }

    fn desired_interest(&self) -> u32 {
        // Once RDHUP has been observed the event has nothing more to
        // say; deregister it so it stops re-firing while reads pause.
        let mut m = if self.rdhup { 0 } else { EPOLLRDHUP };
        if self.wants_read() {
            m |= EPOLLIN;
        }
        if self.backlog() > 0 {
            m |= EPOLLOUT;
        }
        m
    }
}

struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

fn token_of(slot: usize, gen: u32) -> u64 {
    (slot as u64) | ((gen as u64) << 32)
}

/// Mailbox token: the epoll token's slot, the generation's low 16 bits,
/// and the request's sequence number. The truncated generation still
/// rejects stale completions — a collision would need 65k accept/close
/// cycles of one slot inside a single batcher round trip.
fn mailbox_token(conn_token: u64, seq: u16) -> u64 {
    (conn_token & 0xffff_ffff) | (((conn_token >> 32) & 0xffff) << 32) | ((seq as u64) << 48)
}

struct Shard {
    shared: Arc<Shared>,
    listener: Arc<TcpListener>,
    epoll: Epoll,
    wake: Arc<WakeFd>,
    mailbox: Arc<Mailbox>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    live: usize,
    accepting: bool,
    drain_deadline: Option<Instant>,
}

impl Shard {
    fn run(mut self) {
        if self.epoll.add(self.wake.fd(), EPOLLIN, TOKEN_WAKE).is_err() {
            return;
        }
        if self.epoll.add_listener(self.listener.as_raw_fd(), TOKEN_LISTENER).is_err() {
            return;
        }
        self.accepting = true;
        let mut events = vec![EpollEvent::new(0, 0); MAX_EVENTS];
        loop {
            let n = self.epoll.wait(&mut events, 50).unwrap_or(0);
            for ev in events.iter().take(n) {
                let (mask, token) = (ev.events(), ev.data());
                match token {
                    TOKEN_WAKE => self.wake.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    _ => self.conn_event(token, mask),
                }
            }
            self.deliver_completions();
            self.sweep(Instant::now());
            if self.shared.draining.load(Ordering::SeqCst) {
                if self.accepting {
                    let _ = self.epoll.del(self.listener.as_raw_fd());
                    self.accepting = false;
                    self.drain_deadline = Some(Instant::now() + DRAIN_CAP);
                }
                if self.live == 0 {
                    break;
                }
                if self.drain_deadline.is_some_and(|d| Instant::now() >= d) {
                    for slot in 0..self.slots.len() {
                        self.teardown(slot);
                    }
                    break;
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        if !self.accepting {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.register(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    obs::event_with(obs::Level::Error, "serve", "accept_error", || {
                        vec![("error", e.to_string())]
                    });
                    break;
                }
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot { gen: 0, conn: None });
            self.slots.len() - 1
        });
        let gen = self.slots[slot].gen;
        let fd = stream.as_raw_fd();
        let conn = Conn {
            stream,
            fd,
            parser: RequestParser::new(),
            out: Vec::new(),
            out_pos: 0,
            interest: EPOLLIN | EPOLLRDHUP,
            replies: VecDeque::new(),
            next_seq: 0,
            request_started: None,
            last_activity: Instant::now(),
            close_after_flush: false,
            rdhup: false,
            peer_eof: false,
            broken: false,
            active: false,
        };
        if self.epoll.add(fd, conn.interest, token_of(slot, gen)).is_err() {
            self.free.push(slot);
            return;
        }
        self.slots[slot].conn = Some(conn);
        self.live += 1;
        self.shared.metrics.record_accept();
        self.shared.metrics.conn_opened();
        flight::record(FlightKind::ConnAccept, "conn", [0; 5], token_of(slot, gen));
    }

    /// Look up a live connection by token (slot + generation); stale
    /// generations (the slot was recycled) are ignored.
    fn check(&self, token: u64) -> Option<usize> {
        let slot = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        (slot < self.slots.len() && self.slots[slot].gen == gen && self.slots[slot].conn.is_some())
            .then_some(slot)
    }

    fn conn_event(&mut self, token: u64, mask: u32) {
        let Some(slot) = self.check(token) else { return };
        {
            let conn = self.slots[slot].conn.as_mut().expect("checked");
            if mask & (EPOLLERR | EPOLLHUP) != 0 {
                // ERR is unrecoverable; HUP means both halves are gone
                // (reset/abort) so the peer can never read a reply —
                // and unlike RDHUP the event cannot be masked out, so
                // lingering would spin the shard until teardown anyway.
                conn.broken = true;
            } else {
                if mask & EPOLLRDHUP != 0 {
                    // Note the half-close; settle() then drops the
                    // RDHUP interest so the level-triggered event stops
                    // re-firing while reads are paused.
                    conn.rdhup = true;
                }
                if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
                    read_into(conn);
                    process_requests(conn, &self.shared, &self.mailbox, token);
                }
                if mask & EPOLLOUT != 0 {
                    try_flush(conn);
                }
            }
        }
        self.settle(slot, token);
    }

    /// Post-I/O bookkeeping for one connection: flush, gauge upkeep,
    /// interest re-registration, teardown when finished.
    fn settle(&mut self, slot: usize, token: u64) {
        let finished = {
            let conn = self.slots[slot].conn.as_mut().expect("live slot");
            loop {
                pump_replies(conn);
                try_flush(conn);
                // Complete requests may sit in the parser behind lifted
                // backpressure or freed pipeline room. Their bytes were
                // read long ago, so no EPOLLIN will ever resume them:
                // parse on here for as long as each pass consumes some.
                let buffered = conn.parser.buffered();
                if buffered == 0 || !conn.can_dispatch() {
                    break;
                }
                process_requests(conn, &self.shared, &self.mailbox, token);
                if conn.parser.buffered() >= buffered {
                    break;
                }
            }
            let busy = conn.busy();
            if busy != conn.active {
                conn.active = busy;
                if busy {
                    self.shared.metrics.conn_busy();
                    self.shared.inflight.fetch_add(1, Ordering::SeqCst);
                } else {
                    self.shared.metrics.conn_unbusy();
                    self.shared.inflight.fetch_sub(1, Ordering::SeqCst);
                }
            }
            if !conn.finished() {
                let want = conn.desired_interest();
                if want != conn.interest {
                    if self.epoll.modify(conn.fd, want, token).is_ok() {
                        conn.interest = want;
                    } else {
                        conn.broken = true;
                    }
                }
            }
            conn.finished()
        };
        if finished {
            self.teardown(slot);
        }
    }

    fn teardown(&mut self, slot: usize) {
        let Some(conn) = self.slots[slot].conn.take() else { return };
        let _ = self.epoll.del(conn.fd);
        if conn.active {
            self.shared.metrics.conn_unbusy();
            self.shared.inflight.fetch_sub(1, Ordering::SeqCst);
        }
        self.shared.metrics.conn_closed();
        self.slots[slot].gen = self.slots[slot].gen.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
    }

    /// Route batcher replies parked in the mailbox back to their
    /// connections (matching each to its `Waiting` slot by sequence
    /// number), pump in-order responses out, and resume parsing.
    fn deliver_completions(&mut self) {
        for (mtoken, reply) in self.mailbox.drain() {
            let slot = (mtoken & 0xffff_ffff) as usize;
            let gen16 = ((mtoken >> 32) & 0xffff) as u32;
            let seq = (mtoken >> 48) as u16;
            if slot >= self.slots.len()
                || self.slots[slot].gen & 0xffff != gen16
                || self.slots[slot].conn.is_none()
            {
                continue;
            }
            let token = token_of(slot, self.slots[slot].gen);
            {
                let conn = self.slots[slot].conn.as_mut().expect("checked");
                if !complete_waiting(conn, seq, &self.shared, reply) {
                    continue;
                }
                pump_replies(conn);
                process_requests(conn, &self.shared, &self.mailbox, token);
            }
            self.settle(slot, token);
        }
    }

    /// The timeout ladder, walked once per loop tick.
    fn sweep(&mut self, now: Instant) {
        let draining = self.shared.draining.load(Ordering::SeqCst);
        for slot in 0..self.slots.len() {
            let token = token_of(slot, self.slots[slot].gen);
            let mut kill_idle = false;
            let mut touched = false;
            if let Some(conn) = self.slots[slot].conn.as_mut() {
                if conn.has_waiting() {
                    // Reply guard: the batcher always answers; this fires
                    // only on a path we haven't imagined, exactly like
                    // the thread path's recv_timeout.
                    let mut fired = false;
                    for r in conn.replies.iter_mut() {
                        let ReplySlot::Waiting(_, p) = r else { continue };
                        if now.saturating_duration_since(p.submitted) > p.deadline_in + REPLY_GRACE
                        {
                            let outcome =
                                Outcome::error("embed", 500, "batcher dropped the request");
                            let mut buf = Vec::new();
                            render_reply(
                                &mut buf,
                                outcome,
                                &p.rid,
                                false,
                                p.req_start,
                                &self.shared,
                            );
                            *r = ReplySlot::Ready(buf, false);
                            fired = true;
                        }
                    }
                    // The 500 closes the connection when it reaches the
                    // front of the line (pump sets close_after_flush).
                    if fired {
                        touched = true;
                    }
                } else if let Some(started) = conn.request_started {
                    // Slowloris shield: a header (or body) trickling in
                    // for too long gets 408, then close.
                    if now.saturating_duration_since(started) > self.shared.config.header_timeout {
                        self.shared.metrics.record_conn_timeout();
                        flight::record(FlightKind::ConnTimeout, "conn", [0; 5], 408);
                        conn.request_started = None;
                        let outcome = Outcome::error(
                            "timeout",
                            408,
                            "timed out waiting for a complete request",
                        );
                        finish_response(conn, outcome, "slow-request", false, now, &self.shared);
                        touched = true;
                    }
                } else if conn.backlog() == 0
                    && conn.replies.is_empty()
                    && !conn.parser.has_partial()
                {
                    // Idle keep-alive connection; draining closes these
                    // immediately, otherwise the idle timeout applies.
                    let cap =
                        if draining { Duration::ZERO } else { self.shared.config.idle_timeout };
                    if now.saturating_duration_since(conn.last_activity) >= cap {
                        if !draining {
                            self.shared.metrics.record_conn_timeout();
                            flight::record(FlightKind::ConnTimeout, "conn", [0; 5], 0);
                        }
                        kill_idle = true;
                    }
                }
            }
            if kill_idle {
                self.teardown(slot);
            } else if touched {
                self.settle(slot, token);
            }
        }
    }
}

/// Pull whatever the socket has (bounded per event) into the parser.
fn read_into(conn: &mut Conn) {
    if !conn.wants_read() {
        // Reads are paused (backpressure / pipeline cap / pending
        // close). The rdhup flag set by conn_event keeps the EOF
        // notification from re-firing; read() sees the EOF when reads
        // resume, so nothing is lost by returning here.
        return;
    }
    let mut buf = [0u8; READ_CHUNK];
    for _ in 0..MAX_READS_PER_EVENT {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.peer_eof = true;
                break;
            }
            Ok(n) => {
                conn.parser.feed(&buf[..n]);
                conn.last_activity = Instant::now();
                if conn.request_started.is_none() {
                    conn.request_started = Some(conn.last_activity);
                }
                if n < buf.len() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.broken = true;
                break;
            }
        }
    }
}

/// Parse and dispatch as many pipelined requests as current state
/// allows (stops at the pipeline cap, backpressure, a pending close, or
/// a parse error; [`Shard::settle`] resumes it once that lifts).
fn process_requests(conn: &mut Conn, shared: &Shared, mailbox: &Arc<Mailbox>, token: u64) {
    while conn.can_dispatch() {
        match conn.parser.next_request() {
            Ok(Some(req)) => {
                handle_request(conn, req, shared, mailbox, token);
                // Stream each synchronous response (a cache hit, say) out
                // as it is rendered, not after the whole pipelined burst:
                // the client reads it and sends more meanwhile.
                if conn.backlog() > 0 {
                    try_flush(conn);
                }
            }
            Ok(None) => break,
            Err(e) => {
                let (status, msg) = parse_error_reply(e);
                let req_start = conn.request_started.take().unwrap_or_else(Instant::now);
                let outcome = Outcome::error("malformed", status, &msg);
                // Framing is lost after a parse error: answer, then close.
                finish_response(conn, outcome, "malformed", false, req_start, shared);
                break;
            }
        }
    }
    // Slow-header clock: runs exactly while a partial request is parked.
    if conn.parser.has_partial() {
        if conn.request_started.is_none() {
            conn.request_started = Some(Instant::now());
        }
    } else {
        conn.request_started = None;
    }
}

/// Dispatch one complete request: identity, routing, and either an
/// immediate response or a parked embed.
fn handle_request(
    conn: &mut Conn,
    req: Request,
    shared: &Shared,
    mailbox: &Arc<Mailbox>,
    token: u64,
) {
    let now = Instant::now();
    let req_start = conn.request_started.take().unwrap_or(now);
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let rid = match request_id(&req, id) {
        Ok(rid) => rid,
        Err(msg) => {
            let outcome = Outcome::error("malformed", 400, &msg);
            let keep = req.persist_connection();
            finish_response(conn, outcome, &format!("obs-{id}"), keep, req_start, shared);
            return;
        }
    };
    let keep_alive = req.persist_connection();
    let mut span = obs::span(obs::Level::Info, "serve", "request")
        .with("request", id)
        .with("rid", &rid)
        .with("method", &req.method)
        .with("path", &req.path);
    let seq = conn.next_seq;
    let reply = ReplyTo::Mailbox(Arc::clone(mailbox), mailbox_token(token, seq));
    match route_async(&req, id, &rid, &mut span, shared, reply) {
        Routed::Done(outcome) => {
            span.record("status", outcome.status);
            drop(span);
            finish_response(conn, outcome, &rid, keep_alive, req_start, shared);
        }
        Routed::Pending(p) => {
            // The span ends at admission; the batcher's span links back
            // via span_parent, so the trace stays connected.
            drop(span);
            conn.next_seq = seq.wrapping_add(1);
            conn.replies.push_back(ReplySlot::Waiting(
                seq,
                PendingWait {
                    embed: p.embed_req,
                    rid,
                    keep_alive,
                    req_start,
                    submitted: now,
                    deadline_in: p.deadline_in,
                },
            ));
        }
    }
}

/// Render one finished outcome as wire bytes into `buf` and account
/// for it (stage metrics, slow log, request counters).
fn render_reply(
    buf: &mut Vec<u8>,
    outcome: Outcome,
    rid: &str,
    keep: bool,
    req_start: Instant,
    shared: &Shared,
) {
    let mut headers = outcome.extra;
    headers.push(("x-request-id", rid.to_string()));
    if let Some(stages) = &outcome.stages {
        headers.push(("x-stage-us", stages.header_value()));
        shared.metrics.record_stages(stages);
    }
    render_response(
        buf,
        outcome.status,
        outcome.content_type,
        &headers,
        outcome.body.as_bytes(),
        keep,
    );
    let total = req_start.elapsed();
    if total >= shared.config.slow {
        log_slow(rid, outcome.route, outcome.status, total, outcome.stages);
    }
    shared.metrics.record_request(outcome.route, outcome.status, total);
}

/// A response that is ready right now: it streams straight into the
/// out buffer when nothing is queued ahead of it, otherwise it joins
/// the reply queue so responses leave in request order.
fn finish_response(
    conn: &mut Conn,
    outcome: Outcome,
    rid: &str,
    keep_alive: bool,
    req_start: Instant,
    shared: &Shared,
) {
    let keep = keep_alive && !conn.close_after_flush && !shared.draining.load(Ordering::SeqCst);
    if conn.replies.is_empty() {
        render_reply(&mut conn.out, outcome, rid, keep, req_start, shared);
        if !keep {
            conn.close_after_flush = true;
        }
    } else {
        // Queued behind in-flight embeds: the close decision (if any)
        // takes effect when this response reaches the front of the
        // line; until then `tail_closed` keeps the parser stopped.
        let mut buf = Vec::new();
        render_reply(&mut buf, outcome, rid, keep, req_start, shared);
        conn.replies.push_back(ReplySlot::Ready(buf, keep));
    }
}

/// Resolve one batcher completion: find the `Waiting` slot carrying
/// this sequence number and render its response in place. Returns
/// false when the slot is gone (connection closed early and the slab
/// entry was recycled within the same 16-bit generation, or the queue
/// was cleared by a close response ahead of it).
fn complete_waiting(
    conn: &mut Conn,
    seq: u16,
    shared: &Shared,
    reply: crate::queue::Reply,
) -> bool {
    let Some(idx) =
        conn.replies.iter().position(|r| matches!(r, ReplySlot::Waiting(s, _) if *s == seq))
    else {
        return false;
    };
    let placeholder = ReplySlot::Ready(Vec::new(), false);
    let ReplySlot::Waiting(_, p) = std::mem::replace(&mut conn.replies[idx], placeholder) else {
        unreachable!("position matched a Waiting slot");
    };
    let outcome = embed_reply_outcome(&p.embed, reply);
    let keep = p.keep_alive && !conn.close_after_flush && !shared.draining.load(Ordering::SeqCst);
    let mut buf = Vec::new();
    render_reply(&mut buf, outcome, &p.rid, keep, p.req_start, shared);
    conn.replies[idx] = ReplySlot::Ready(buf, keep);
    true
}

/// Move the contiguous `Ready` prefix of the reply queue into the out
/// buffer. A close response ends the stream: everything queued behind
/// it is dropped, and its completions will no longer find a `Waiting`
/// slot (they are ignored).
fn pump_replies(conn: &mut Conn) {
    while matches!(conn.replies.front(), Some(ReplySlot::Ready(..))) {
        let Some(ReplySlot::Ready(buf, keep)) = conn.replies.pop_front() else {
            unreachable!("front matched Ready");
        };
        conn.out.extend_from_slice(&buf);
        if !keep {
            conn.close_after_flush = true;
            conn.replies.clear();
            break;
        }
    }
}

/// Write as much of the out buffer as the socket takes.
///
/// Flushed bytes are reclaimed even when the buffer never fully drains:
/// the backpressure bound applies to the unwritten backlog, so without
/// compaction a client that reads just slowly enough to keep the buffer
/// nonempty while pipelining could grow `out` without limit.
fn try_flush(conn: &mut Conn) {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.broken = true;
                break;
            }
            Ok(n) => {
                conn.out_pos += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.broken = true;
                break;
            }
        }
    }
    if conn.out_pos >= conn.out.len() {
        if !conn.out.is_empty() {
            conn.out.clear();
            conn.out_pos = 0;
        }
    } else if conn.out_pos >= OUT_COMPACT_BYTES {
        // Partial drain: drop the consumed prefix once it is large
        // enough to amortize the memmove of the remaining backlog.
        conn.out.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
}
