//! The open-loop load generator: requests leave on a seeded Poisson
//! schedule over a fixed set of keep-alive connections, pipelined, one
//! pinned thread per connection.
//!
//! [`Client::saturate`] is the one closed loop: it keeps a fixed number
//! of requests in flight per connection, to measure throughput without
//! building an unbounded backlog.
//!
//! Every request is sent at its scheduled time whether or not earlier
//! responses have arrived; responses come back in order on each
//! connection. Latency runs from the scheduled send to the last byte of
//! the response, so a stall in the server shows in every request queued
//! behind it. The generator also records how late it got each request
//! onto its connection (`lag_ns`): when that lag grows, the run measures
//! the generator rather than the server.

use crate::sys;
use observatory_linalg::SplitMix64;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long a phase may run past its last scheduled send before the
/// generator gives up on outstanding responses.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Shot {
    /// Send time, nanoseconds after the phase starts.
    pub at_ns: u64,
    /// Index of the prepared request to send.
    pub req: usize,
}

/// What came back for one shot.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The prepared request that was sent.
    pub req: usize,
    /// HTTP status.
    pub status: u16,
    /// Scheduled send to last response byte.
    pub latency_ns: u64,
    /// How late the request was put on its connection.
    pub lag_ns: u64,
    /// The `x-stage-us` breakdown, when captured and present.
    pub stages: Option<[u64; 5]>,
    /// The response body, when asked to keep it.
    pub body: Option<Vec<u8>>,
}

/// Arrival offsets (ns) of a Poisson process at `rate` per second over
/// `secs` seconds.
pub fn poisson(rng: &mut SplitMix64, rate: f64, secs: f64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate * secs * 1.1) as usize + 1);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= secs {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// Block length of [`Zipf::quota`].
const QUOTA_BLOCK: usize = 100;

/// Zipf (s = 1) over ranks `0..n`: rank r has weight 1/(r+1).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n >= 1` ranks.
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }

    /// `n` ranks in Zipf proportions, exact (largest remainder) within
    /// every block of [`QUOTA_BLOCK`] and in a seeded order within it: the
    /// mix of any stretch of a phase does not vary with the seed.
    pub fn quota(&self, n: usize, rng: &mut SplitMix64) -> Vec<usize> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let mut block = self.exact(QUOTA_BLOCK.min(n - out.len()));
            for i in (1..block.len()).rev() {
                block.swap(i, rng.next_below(i + 1));
            }
            out.extend(block);
        }
        out
    }

    /// `n` ranks in exact Zipf proportions (largest remainder), sorted.
    fn exact(&self, n: usize) -> Vec<usize> {
        let mut prev = 0.0;
        let mut counts: Vec<(usize, f64)> = self
            .cdf
            .iter()
            .map(|&c| {
                let share = (c - prev) * n as f64;
                prev = c;
                (share.floor() as usize, share - share.floor())
            })
            .collect();
        let short = n.saturating_sub(counts.iter().map(|c| c.0).sum());
        let mut by_remainder: Vec<usize> = (0..counts.len()).collect();
        by_remainder.sort_by(|&a, &b| counts[b].1.total_cmp(&counts[a].1));
        for &r in by_remainder.iter().take(short) {
            counts[r].0 += 1;
        }
        counts.iter().enumerate().flat_map(|(r, &(c, _))| std::iter::repeat_n(r, c)).collect()
    }
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
}

impl Conn {
    /// Write what the socket takes of `out[*written..]`, then read
    /// everything available into `inbuf`. Never blocks.
    fn pump(
        &mut self,
        out: &mut Vec<u8>,
        written: &mut usize,
        chunk: &mut [u8],
    ) -> Result<(), String> {
        if *written < out.len() {
            match self.stream.write(&out[*written..]) {
                Ok(n) => *written += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(e) => return Err(format!("send: {e}")),
            }
            if *written == out.len() {
                out.clear();
                *written = 0;
            }
        }
        loop {
            match self.stream.read(chunk) {
                Ok(0) => return Err("the server closed a keep-alive connection".to_string()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
    }
}

/// What a closed-loop phase produced.
pub struct Closed {
    /// Completion times of the 200 responses, ns after the phase start.
    pub done_ns: Vec<u64>,
    /// Responses that were not 200.
    pub failed: u64,
}

/// A fixed set of keep-alive connections to one server.
pub struct Client {
    conns: Vec<Conn>,
}

impl Client {
    /// Open `n >= 1` nonblocking connections.
    pub fn connect(addr: SocketAddr, n: usize) -> Result<Client, String> {
        let conns = (0..n)
            .map(|_| {
                let stream =
                    TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
                stream.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
                Ok(Conn { stream, inbuf: Vec::new() })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Client { conns })
    }

    /// Send `shots` (ascending in time) on schedule, round-robin over
    /// the connections, and collect one outcome per shot, in shot order.
    /// `keep[i]` keeps shot `i`'s response body; `capture_stages` parses
    /// each response's `x-stage-us` header.
    pub fn run(
        &mut self,
        requests: &[Vec<u8>],
        shots: &[Shot],
        keep: &[bool],
        capture_stages: bool,
    ) -> Result<Vec<Outcome>, String> {
        let n = self.conns.len();
        // A short lead lets every lane start before the first send.
        let start = Instant::now() + Duration::from_millis(2);
        let per_lane = on_lanes(&mut self.conns, |conn, lane| {
            drive(conn, requests, shots, keep, capture_stages, start, lane, n)
        });
        let mut out = Vec::with_capacity(shots.len());
        for lane in per_lane {
            out.extend(lane?);
        }
        out.sort_by_key(|(i, _)| *i);
        Ok(out.into_iter().map(|(_, o)| o).collect())
    }
}

impl Client {
    /// Closed loop: keep `depth` requests in flight on every connection
    /// until `secs` have passed or `reqs` run out, then collect the
    /// outstanding responses. Lane `i` sends `reqs[i]`, `reqs[i + lanes]`,
    /// and so on.
    pub fn saturate(
        &mut self,
        requests: &[Vec<u8>],
        reqs: &[usize],
        depth: usize,
        secs: f64,
    ) -> Result<Closed, String> {
        let n = self.conns.len();
        let start = Instant::now();
        let stop = start + Duration::from_secs_f64(secs);
        let per_lane = on_lanes(&mut self.conns, |conn, lane| {
            drive_closed(conn, requests, reqs, depth, start, stop, lane, n)
        });
        let mut all = Closed { done_ns: Vec::new(), failed: 0 };
        for lane in per_lane {
            let lane = lane?;
            all.done_ns.extend(lane.done_ns);
            all.failed += lane.failed;
        }
        Ok(all)
    }
}

/// Run `drive` for every connection on a thread of its own and return
/// the lanes' results in lane order. Lane `i` is pinned to core
/// `nproc - 1 - i` (modulo `nproc`), so where the generator runs relative
/// to the server does not change from run to run, and its timed waits
/// wake on time.
fn on_lanes<T: Send>(
    conns: &mut [Conn],
    drive: impl Fn(&mut Conn, usize) -> Result<T, String> + Sync,
) -> Vec<Result<T, String>> {
    let cores = crate::env::nproc();
    let drive = &drive;
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(lane, conn)| {
                s.spawn(move || {
                    sys::pin_to_core(cores - 1 - lane % cores);
                    sys::tight_timers();
                    drive(conn, lane)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("generator thread panicked".into())))
            .collect()
    })
}

/// Drive lane `lane` of `lanes` in a closed loop.
#[allow(clippy::too_many_arguments)]
fn drive_closed(
    conn: &mut Conn,
    requests: &[Vec<u8>],
    reqs: &[usize],
    depth: usize,
    start: Instant,
    stop: Instant,
    lane: usize,
    lanes: usize,
) -> Result<Closed, String> {
    let mine: Vec<usize> = (lane..reqs.len()).step_by(lanes).map(|i| reqs[i]).collect();
    let fd = conn.stream.as_raw_fd();
    let (mut out, mut written) = (Vec::new(), 0usize);
    let (mut inflight, mut next) = (0usize, 0usize);
    let mut chunk = vec![0u8; 64 << 10];
    let mut result = Closed { done_ns: Vec::new(), failed: 0 };
    loop {
        let sending = Instant::now() < stop;
        while sending && inflight < depth && next < mine.len() {
            out.extend_from_slice(&requests[mine[next]]);
            next += 1;
            inflight += 1;
        }
        conn.pump(&mut out, &mut written, &mut chunk)?;
        let mut pos = 0;
        while let Some(r) = parse_response(&conn.inbuf[pos..], false)? {
            inflight =
                inflight.checked_sub(1).ok_or("a response arrived with no request in flight")?;
            if r.status == 200 {
                result.done_ns.push(ns_since(start));
            } else {
                result.failed += 1;
            }
            pos += r.len;
        }
        conn.inbuf.drain(..pos);
        if inflight == 0 && (!sending || next == mine.len()) {
            return Ok(result);
        }
        if Instant::now() > stop + DRAIN_LIMIT {
            return Err(format!("{inflight} responses outstanding after the drain limit"));
        }
        let events = sys::POLLIN | if written < out.len() { sys::POLLOUT } else { 0 };
        sys::poll_one(fd, events, 1_000_000);
    }
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(Instant::now().saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// Drive lane `lane` of `lanes`: shots `lane, lane + lanes, ...`.
#[allow(clippy::too_many_arguments)]
fn drive(
    conn: &mut Conn,
    requests: &[Vec<u8>],
    shots: &[Shot],
    keep: &[bool],
    capture: bool,
    start: Instant,
    lane: usize,
    lanes: usize,
) -> Result<Vec<(usize, Outcome)>, String> {
    let mine: Vec<usize> = (lane..shots.len()).step_by(lanes).collect();
    let fd = conn.stream.as_raw_fd();
    let mut out: Vec<u8> = Vec::new();
    let mut written = 0usize;
    let mut inflight: VecDeque<(usize, u64)> = VecDeque::new();
    let mut done = Vec::with_capacity(mine.len());
    let mut next = 0usize;
    let mut chunk = vec![0u8; 64 << 10];
    let last_ns = mine.last().map_or(0, |&i| shots[i].at_ns);
    let give_up = start + Duration::from_nanos(last_ns) + DRAIN_LIMIT;
    if let Some(lead) = start.checked_duration_since(Instant::now()) {
        std::thread::sleep(lead);
    }
    loop {
        let now = ns_since(start);
        while next < mine.len() && shots[mine[next]].at_ns <= now {
            let i = mine[next];
            out.extend_from_slice(&requests[shots[i].req]);
            inflight.push_back((i, now - shots[i].at_ns));
            next += 1;
        }
        conn.pump(&mut out, &mut written, &mut chunk)?;
        let read_ns = ns_since(start);
        let mut pos = 0;
        while let Some(r) = parse_response(&conn.inbuf[pos..], capture)? {
            let (i, lag_ns) =
                inflight.pop_front().ok_or("a response arrived with no request in flight")?;
            let sched_ns = shots[i].at_ns;
            let body = keep[i].then(|| conn.inbuf[pos + r.body_start..pos + r.len].to_vec());
            done.push((
                i,
                Outcome {
                    req: shots[i].req,
                    status: r.status,
                    latency_ns: read_ns.saturating_sub(sched_ns),
                    lag_ns,
                    stages: r.stages,
                    body,
                },
            ));
            pos += r.len;
        }
        conn.inbuf.drain(..pos);
        if next == mine.len() && inflight.is_empty() {
            return Ok(done);
        }
        if Instant::now() > give_up {
            return Err(format!("{} responses outstanding after the drain limit", inflight.len()));
        }
        let wait_ns = match mine.get(next) {
            Some(&i) => shots[i].at_ns.saturating_sub(ns_since(start)),
            None => 10_000_000,
        };
        if wait_ns > 0 {
            let events = sys::POLLIN | if written < out.len() { sys::POLLOUT } else { 0 };
            sys::poll_one(fd, events, wait_ns);
        }
    }
}

/// The framing of one complete response at the front of a buffer.
struct Framed {
    status: u16,
    body_start: usize,
    len: usize,
    stages: Option<[u64; 5]>,
}

fn parse_response(buf: &[u8], capture: bool) -> Result<Option<Framed>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| "response head is not UTF-8".to_string())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line '{status_line}'"))?;
    let mut content_length = None;
    let mut stages = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse::<usize>().ok();
        } else if capture && name.eq_ignore_ascii_case("x-stage-us") {
            stages = parse_stages(value.trim());
        }
    }
    let body_len = content_length.ok_or("response without Content-Length")?;
    let len = head_end + 4 + body_len;
    if buf.len() < len {
        return Ok(None);
    }
    Ok(Some(Framed { status, body_start: head_end + 4, len, stages }))
}

/// `queue=12;batch_wait=3;encode=190;store=0;write=0` → the five values
/// in that order.
fn parse_stages(v: &str) -> Option<[u64; 5]> {
    let mut out = [0u64; 5];
    let mut parts = v.split(';');
    for slot in &mut out {
        *slot = parts.next()?.split_once('=')?.1.parse().ok()?;
    }
    Some(out)
}
