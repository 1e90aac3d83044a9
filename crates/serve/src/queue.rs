//! Bounded admission queue between connection handlers and the
//! micro-batcher.
//!
//! Admission control is the queue's whole job: it has a hard depth bound
//! (set by `--queue-depth`), and [`Queue::push`] never blocks — when the
//! queue is full the caller gets [`Pushed::Full`] and sheds the request
//! with a `429 Retry-After`, which keeps tail latency bounded instead of
//! letting an overloaded server accumulate an unbounded backlog. During
//! drain the queue is [`Queue::close`]d: new pushes are refused
//! ([`Pushed::Closed`] → 503) while [`Queue::pop_batch`] keeps returning
//! the already-admitted jobs until the queue is empty, so every admitted
//! request is answered before the process exits.
//!
//! [`Queue::pop_batch`] implements the *dynamic micro-batching* policy:
//! it blocks for the first job, then keeps collecting until either
//! `max_batch` jobs are in hand or `batch_delay` has elapsed since the
//! first pop — under load batches fill instantly (no added latency), and
//! a lone request waits at most one delay window.

use crate::JobError;
use observatory_models::ModelEncoding;
use observatory_runtime::Fingerprint;
use observatory_table::Table;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The batcher's reply to one request: the shared encoding on success,
/// always paired with the per-stage timing breakdown (even failures
/// carry what was measured before the failure — a 408 still reports how
/// long the job sat in the queue).
pub type Reply = (Result<Arc<ModelEncoding>, JobError>, Stages);

/// Per-stage wall timings for one request, in microseconds. Field order
/// matches [`observatory_obs::STAGE_NAMES`]; [`Stages::as_array`]
/// produces the flight-recorder layout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stages {
    /// Admission (`Queue::push`) to batch pop (0 for a cache hit, which
    /// is answered at admission and never queued).
    pub queue_us: u64,
    /// Batch pop to the group's encode call (expiry sweep + grouping).
    pub batch_wait_us: u64,
    /// Model forward pass (0 on any cache hit).
    pub encode_us: u64,
    /// Tier-2 store read attempt at admission (0 when the LRU hit or no
    /// store).
    pub store_us: u64,
    /// Tier-2 write-through (0 on hits or no store).
    pub write_us: u64,
}

impl Stages {
    /// The five timings in [`observatory_obs::STAGE_NAMES`] order.
    pub fn as_array(&self) -> [u64; 5] {
        [self.queue_us, self.batch_wait_us, self.encode_us, self.store_us, self.write_us]
    }

    /// Sum of all stage timings, in microseconds.
    pub fn total_us(&self) -> u64 {
        self.as_array().iter().fold(0u64, |a, &v| a.saturating_add(v))
    }

    /// Compact `x-stage-us` header value:
    /// `queue=12;batch_wait=3;encode=190;store=0;write=0`.
    pub fn header_value(&self) -> String {
        format!(
            "queue={};batch_wait={};encode={};store={};write={}",
            self.queue_us, self.batch_wait_us, self.encode_us, self.store_us, self.write_us
        )
    }
}

/// Where the batcher's reply for one job goes.
///
/// The legacy thread path parks its connection thread on an mpsc
/// receiver ([`ReplyTo::Channel`]). The epoll reactor cannot block, so
/// its jobs carry a [`ReplyTo::Mailbox`]: the batcher deposits the reply
/// in the owning shard's completion mailbox and rings its eventfd, and
/// the shard finishes the response on its next wakeup.
pub enum ReplyTo {
    /// Blocking path: a per-request mpsc channel.
    Channel(mpsc::Sender<Reply>),
    /// Reactor path: the shard's completion mailbox plus an opaque
    /// connection token (slot + generation) routing the reply back to
    /// the right connection.
    Mailbox(Arc<Mailbox>, u64),
}

impl ReplyTo {
    /// Deliver the reply. Delivery failures (receiver dropped) are
    /// swallowed exactly like `mpsc::Sender::send` call sites did: the
    /// requester gave up; the work is already done.
    pub fn send(&self, reply: Reply) {
        match self {
            ReplyTo::Channel(tx) => {
                let _ = tx.send(reply);
            }
            ReplyTo::Mailbox(mb, token) => mb.push(*token, reply),
        }
    }
}

impl From<mpsc::Sender<Reply>> for ReplyTo {
    fn from(tx: mpsc::Sender<Reply>) -> Self {
        ReplyTo::Channel(tx)
    }
}

/// A shard's completion mailbox: batcher threads deposit `(token,
/// reply)` pairs and invoke the wake hook (an eventfd write on Linux) so
/// the shard's `epoll_wait` returns and drains the box.
pub struct Mailbox {
    items: Mutex<Vec<(u64, Reply)>>,
    wake: Box<dyn Fn() + Send + Sync>,
}

impl Mailbox {
    /// A mailbox whose `wake` hook interrupts the owning event loop.
    pub fn new(wake: Box<dyn Fn() + Send + Sync>) -> Arc<Self> {
        Arc::new(Self { items: Mutex::new(Vec::new()), wake })
    }

    /// Deposit one completion and wake the owner.
    pub fn push(&self, token: u64, reply: Reply) {
        self.items.lock().unwrap_or_else(|e| e.into_inner()).push((token, reply));
        (self.wake)();
    }

    /// Take everything deposited so far.
    pub fn drain(&self) -> Vec<(u64, Reply)> {
        std::mem::take(&mut *self.items.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// One admitted encode request, waiting in the queue.
pub struct Job {
    /// Server-assigned request id (monotone; used in traces).
    pub id: u64,
    /// Client-visible request id: the validated `x-request-id` header
    /// value, or a generated `obs-{id}` when the client sent none.
    pub rid: Arc<str>,
    /// Registry model name, validated against the zoo before admission.
    pub model: String,
    /// The table to encode.
    pub table: Table,
    /// Its content fingerprint, whose cache tiers admission already
    /// probed (and missed) — the batcher neither recomputes it nor
    /// counts a second lookup.
    pub fp: Fingerprint,
    /// Time the admission-side tier-2 probe took (the reply's
    /// `store_us`).
    pub store_us: u64,
    /// Admission time.
    pub enqueued: Instant,
    /// Absolute deadline; jobs still queued past it are expired (408)
    /// without ever being encoded.
    pub deadline: Instant,
    /// Where the batcher's answer goes (blocking channel or shard
    /// mailbox).
    pub reply: ReplyTo,
    /// Span id of the request's root span, for cross-thread trace edges.
    pub span_parent: Option<u64>,
}

/// Outcome of an admission attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Pushed {
    /// Admitted; `depth` is the queue length after the push.
    Ok {
        /// Queue length after the push.
        depth: usize,
    },
    /// Queue at capacity — shed (429).
    Full,
    /// Server draining — refused (503).
    Closed,
}

struct State {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Bounded, closable MPSC queue with batch-coalescing pop.
pub struct Queue {
    state: Mutex<State>,
    cond: Condvar,
    depth: usize,
    /// Mirror of the queue length for lock-free gauge reads.
    len: AtomicUsize,
}

impl Queue {
    /// A queue admitting at most `depth` jobs (`depth >= 1`).
    pub fn new(depth: usize) -> Self {
        Self {
            state: Mutex::new(State { jobs: VecDeque::new(), closed: false }),
            cond: Condvar::new(),
            depth: depth.max(1),
            len: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Recover from poisoning: the state is a request buffer; a
        // panicking thread must not wedge admission for the whole server.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Configured depth bound.
    pub fn capacity(&self) -> usize {
        self.depth
    }

    /// Current queue length (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking admission attempt.
    pub fn push(&self, job: Job) -> Pushed {
        let mut s = self.lock();
        if s.closed {
            return Pushed::Closed;
        }
        if s.jobs.len() >= self.depth {
            return Pushed::Full;
        }
        s.jobs.push_back(job);
        let depth = s.jobs.len();
        self.len.store(depth, Ordering::Relaxed);
        drop(s);
        self.cond.notify_one();
        Pushed::Ok { depth }
    }

    /// Refuse new admissions; already-queued jobs remain poppable.
    pub fn close(&self) {
        self.lock().closed = true;
        self.cond.notify_all();
    }

    /// Whether [`Queue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Block until at least one job is available, then coalesce up to
    /// `max_batch` jobs, waiting at most `batch_delay` after the first
    /// pop for stragglers. Returns `None` exactly once the queue is
    /// closed *and* empty — the batcher's exit signal. When the queue is
    /// closed the delay window is skipped so drain completes quickly.
    pub fn pop_batch(&self, max_batch: usize, batch_delay: Duration) -> Option<Vec<Job>> {
        let max_batch = max_batch.max(1);
        let mut s = self.lock();
        loop {
            if !s.jobs.is_empty() {
                break;
            }
            if s.closed {
                return None;
            }
            let (guard, _timeout) = self
                .cond
                .wait_timeout(s, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            s = guard;
        }
        let mut batch = Vec::with_capacity(max_batch.min(s.jobs.len()));
        while batch.len() < max_batch {
            match s.jobs.pop_front() {
                Some(j) => batch.push(j),
                None => break,
            }
        }
        if batch.len() < max_batch && !batch_delay.is_zero() && !s.closed {
            let window_end = Instant::now() + batch_delay;
            loop {
                let now = Instant::now();
                if now >= window_end || batch.len() >= max_batch || s.closed {
                    break;
                }
                let (guard, _timeout) =
                    self.cond.wait_timeout(s, window_end - now).unwrap_or_else(|e| e.into_inner());
                s = guard;
                while batch.len() < max_batch {
                    match s.jobs.pop_front() {
                        Some(j) => batch.push(j),
                        None => break,
                    }
                }
            }
        }
        self.len.store(s.jobs.len(), Ordering::Relaxed);
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use observatory_table::{Column, Value};
    use std::sync::Arc;

    fn job(id: u64) -> (Job, mpsc::Receiver<Reply>) {
        let (tx, rx) = mpsc::channel();
        let table =
            Table::new(format!("t{id}"), vec![Column::new("c", vec![Value::Int(id as i64)])]);
        let now = Instant::now();
        let j = Job {
            id,
            rid: format!("r{id}").into(),
            model: "bert".into(),
            table,
            fp: Fingerprint(u128::from(id)),
            store_us: 0,
            enqueued: now,
            deadline: now + Duration::from_secs(60),
            reply: tx.into(),
            span_parent: None,
        };
        (j, rx)
    }

    #[test]
    fn push_until_full_then_sheds() {
        let q = Queue::new(2);
        let (j1, _r1) = job(1);
        let (j2, _r2) = job(2);
        let (j3, _r3) = job(3);
        assert_eq!(q.push(j1), Pushed::Ok { depth: 1 });
        assert_eq!(q.push(j2), Pushed::Ok { depth: 2 });
        assert_eq!(q.push(j3), Pushed::Full);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_refuses_but_drains() {
        let q = Queue::new(4);
        let (j1, _r1) = job(1);
        assert!(matches!(q.push(j1), Pushed::Ok { .. }));
        q.close();
        let (j2, _r2) = job(2);
        assert_eq!(q.push(j2), Pushed::Closed);
        // Already-admitted jobs still drain...
        let batch = q.pop_batch(8, Duration::from_millis(50)).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id, 1);
        // ...and then the queue reports exhaustion.
        assert!(q.pop_batch(8, Duration::ZERO).is_none());
    }

    #[test]
    fn pop_coalesces_up_to_max_batch() {
        let q = Queue::new(16);
        let mut rxs = Vec::new();
        for i in 0..5 {
            let (j, r) = job(i);
            assert!(matches!(q.push(j), Pushed::Ok { .. }));
            rxs.push(r);
        }
        let batch = q.pop_batch(3, Duration::ZERO).unwrap();
        assert_eq!(batch.iter().map(|j| j.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        let batch = q.pop_batch(3, Duration::ZERO).unwrap();
        assert_eq!(batch.iter().map(|j| j.id).collect::<Vec<_>>(), vec![3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn delay_window_collects_stragglers() {
        let q = Arc::new(Queue::new(16));
        let (j, _r) = job(0);
        assert!(matches!(q.push(j), Pushed::Ok { .. }));
        let q2 = Arc::clone(&q);
        let feeder = std::thread::spawn(move || {
            // Arrives inside the 200ms delay window.
            std::thread::sleep(Duration::from_millis(30));
            let (j, r) = job(1);
            assert!(matches!(q2.push(j), Pushed::Ok { .. }));
            r
        });
        let batch = q.pop_batch(4, Duration::from_millis(200)).unwrap();
        let _r = feeder.join().unwrap();
        assert_eq!(batch.len(), 2, "straggler joined the forming batch");
    }

    #[test]
    fn full_batch_returns_without_waiting() {
        let q = Queue::new(16);
        let mut rxs = Vec::new();
        for i in 0..4 {
            let (j, r) = job(i);
            assert!(matches!(q.push(j), Pushed::Ok { .. }));
            rxs.push(r);
        }
        let start = Instant::now();
        let batch = q.pop_batch(4, Duration::from_secs(5)).unwrap();
        assert_eq!(batch.len(), 4);
        assert!(start.elapsed() < Duration::from_secs(1), "no delay once the batch is full");
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let q = Arc::new(Queue::new(4));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop_batch(2, Duration::ZERO).map(|b| b.len()));
        std::thread::sleep(Duration::from_millis(20));
        let (j, _r) = job(9);
        assert!(matches!(q.push(j), Pushed::Ok { .. }));
        assert_eq!(popper.join().unwrap(), Some(1));
    }

    #[test]
    fn mailbox_deposits_wake_and_drain() {
        use std::sync::atomic::AtomicUsize;
        let wakes = Arc::new(AtomicUsize::new(0));
        let w = Arc::clone(&wakes);
        let mb = Mailbox::new(Box::new(move || {
            w.fetch_add(1, Ordering::SeqCst);
        }));
        let sink = ReplyTo::Mailbox(Arc::clone(&mb), 7);
        sink.send((Err(crate::JobError::DeadlineExpired), Stages::default()));
        sink.send((Err(crate::JobError::Internal("x".into())), Stages::default()));
        assert_eq!(wakes.load(Ordering::SeqCst), 2, "every deposit rings the wake hook");
        let got = mb.drain();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|(tok, _)| *tok == 7));
        assert!(mb.drain().is_empty(), "drain takes everything");
    }

    #[test]
    fn close_wakes_blocked_pop() {
        let q = Arc::new(Queue::new(4));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop_batch(2, Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(popper.join().unwrap().is_none(), "close unblocks an idle batcher");
    }
}
