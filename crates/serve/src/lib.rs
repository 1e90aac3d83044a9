//! `observatory-serve`: the resident embedding service.
//!
//! Everything below is hand-rolled over `std` — the workspace admits no
//! external crates — and composes the existing layers instead of
//! duplicating them: tables come from `observatory-table`, models from
//! the zoo registry, encodes go through the shared
//! [`observatory_runtime::Engine`] (content-addressed cache + worker
//! pool), kNN through `observatory-search`, and every request is traced
//! with `observatory-obs` spans.
//!
//! ## Request path
//!
//! ```text
//! accept loop (nonblocking, polls shutdown+signal flags)
//!   └─ connection thread: read_request → parse → Engine::lookup
//!        ├─ LRU / store hit → 200 at once   (never queued, never shed)
//!        └─ miss → Queue::push
//!             ├─ Full   → 429 + Retry-After   (load shedding)
//!             ├─ Closed → 503                 (draining)
//!             └─ Ok     → block on the reply channel
//! batcher thread: Queue::pop_batch (dynamic micro-batching)
//!   └─ expire (408, never encoded) → group by model → Engine::encode_misses_timed
//! ```
//!
//! The epoll reactor (`--net epoll`) runs the same `embed` admission on
//! its shard threads, so both net modes share one fast path: a cache hit
//! never waits out the batcher's straggler window (`--batch-delay-us`
//! only shapes encode batches).
//!
//! The admission queue is the **only** coupling between connection
//! threads and the encoder: its depth bound keeps tail latency bounded
//! under overload (shed early, never backlog), and closing it is the
//! whole drain protocol — new work is refused while every admitted job
//! is still answered before [`Server::run`] returns.
//!
//! ## Endpoints
//!
//! | Route                    | Purpose                                      |
//! |--------------------------|----------------------------------------------|
//! | `POST /v1/embed`         | Encode one table, return embeddings          |
//! | `POST /v1/knn`           | Exact cosine kNN over request-supplied items |
//! | `GET /healthz`           | Liveness + drain state                       |
//! | `GET /metrics`           | Prometheus text (engine + server families)   |
//! | `GET /debug/flight`      | Flight-recorder ring as Chrome-trace JSON    |
//! | `GET /debug/profile`     | Profiler folded stacks (flamegraph input)    |
//! | `GET /debug/profile/top` | Profiler top-N self-time table               |
//! | `POST /admin/shutdown`   | Begin graceful drain (same as SIGTERM)       |
//!
//! ## Request identity and stage timings
//!
//! Every request gets an id: a client-supplied `x-request-id` header
//! (≤ 128 bytes of `[A-Za-z0-9._-]`; anything else is a 400) or a
//! generated `obs-{n}`. The id is echoed on every response, stamped on
//! flight-recorder events, and printed in the slow-request log line
//! (total latency ≥ `ServeConfig::slow`). Embed responses additionally
//! carry `x-stage-us`: the queue → batch-wait → encode → store → write
//! breakdown measured on monotonic clocks along the pipeline. A cache
//! hit reports `queue=0;batch_wait=0;encode=0;store=<µs>;write=0`, with
//! `store` its tier-2 read (0 on an LRU hit).

pub mod api;
pub mod batcher;
pub mod epoll;
pub mod http;
pub mod metrics;
pub mod queue;
#[cfg(target_os = "linux")]
mod reactor;
pub mod signal;

use crate::batcher::BatcherConfig;
use crate::http::{read_request, write_response, HttpError, Request};
use crate::metrics::{ServerMetrics, ServerTotals};
use crate::queue::{Job, Pushed, Queue, Reply, ReplyTo, Stages};
use observatory_jobs::{
    supported_property, AnalyzeSpec, JobConfig, JobScheduler, JobState, JobTotals, Submit,
    TableStore, SUPPORTED_PROPERTIES,
};
use observatory_models::registry::is_known_model;
use observatory_obs as obs;
use observatory_obs::flight;
use observatory_obs::flight::FlightKind;
use observatory_obs::json::{escape, Json};
use observatory_obs::Manifest;
use observatory_runtime::{fingerprint_table, Engine};
use observatory_search::{AnnIndex, HnswConfig, ShardedHnsw};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Why an admitted job was not answered with an encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The deadline passed before the job was encoded: already at
    /// admission, or while it sat in the queue (→ 408).
    DeadlineExpired,
    /// The encode failed server-side, e.g. a recovered panic (→ 500).
    Internal(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::DeadlineExpired => write!(f, "deadline expired while queued"),
            JobError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

/// How connections are served: a thread per connection, or the
/// thread-per-core epoll reactor (`--net`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetMode {
    /// One blocking thread per connection (one request per connection).
    Thread,
    /// Sharded epoll event loops with keep-alive and pipelining
    /// ([`crate::reactor`]); Linux only.
    Epoll,
}

impl NetMode {
    /// Parse a `--net` flag value.
    pub fn parse(s: &str) -> Option<NetMode> {
        match s {
            "thread" => Some(NetMode::Thread),
            "epoll" => Some(NetMode::Epoll),
            _ => None,
        }
    }

    /// The flag spelling, for banners and manifests.
    pub fn as_str(self) -> &'static str {
        match self {
            NetMode::Thread => "thread",
            NetMode::Epoll => "epoll",
        }
    }
}

/// Everything `observatory serve` can tune.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7700` (port 0 = ephemeral).
    pub addr: String,
    /// Largest micro-batch handed to `Engine::encode_batch`.
    pub max_batch: usize,
    /// How long a forming batch of cache misses waits for stragglers
    /// (cache hits are answered at admission and never wait).
    pub batch_delay: Duration,
    /// Admission queue bound; beyond it requests are shed with 429.
    pub queue_depth: usize,
    /// Default per-request deadline (clients may lower it with the
    /// `x-deadline-ms` header; overrides are capped at 5 minutes).
    pub deadline: Duration,
    /// Install SIGTERM/SIGINT handlers that trigger graceful drain.
    /// Tests leave this off; the CLI turns it on.
    pub handle_signals: bool,
    /// Requests slower than this get a structured `slow-request` log
    /// line on stderr (`--slow-ms`).
    pub slow: Duration,
    /// Run the span-sampling profiler for the server's lifetime; the
    /// report lands in [`DrainStats::profile`].
    pub profile: bool,
    /// Profiler sampling interval (`--profile-interval-ms`).
    pub profile_interval: Duration,
    /// Build a corpus ANN index from the attached store at startup
    /// (`--ann-warm`): every stored table-level encoding becomes an
    /// HNSW item keyed by its fingerprint hex, served by
    /// `/v1/knn {"corpus":true}`.
    pub ann_warm: bool,
    /// Shard count for the warm corpus index (`--ann-shards`).
    pub ann_shards: usize,
    /// Bound on queued analysis jobs; submits beyond it get 429
    /// (`--max-jobs`).
    pub max_jobs: usize,
    /// Deadline for analysis jobs that do not carry their own
    /// (`--job-deadline-ms`), measured from submission.
    pub job_deadline: Duration,
    /// Directory for job records and ingested tables (`<store-dir>/jobs`
    /// when a store is attached); `None` = in-memory only.
    pub jobs_dir: Option<std::path::PathBuf>,
    /// Connection-serving strategy (`--net`). Defaults to the epoll
    /// reactor where supported (Linux), threads elsewhere.
    pub net: NetMode,
    /// Reactor shard count (`--net-shards`); 0 = one per core, capped
    /// at 8. Ignored in thread mode.
    pub net_shards: usize,
    /// Epoll mode: close a keep-alive connection idle this long.
    pub idle_timeout: Duration,
    /// Epoll mode: a partial request older than this gets 408 and the
    /// connection is closed (slowloris shield).
    pub header_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7700".to_string(),
            max_batch: 16,
            batch_delay: Duration::from_micros(2000),
            queue_depth: 256,
            deadline: Duration::from_millis(5000),
            handle_signals: false,
            slow: Duration::from_secs(1),
            profile: false,
            profile_interval: Duration::from_millis(10),
            ann_warm: false,
            ann_shards: 4,
            max_jobs: 16,
            job_deadline: Duration::from_secs(300),
            jobs_dir: None,
            net: if epoll::supported() { NetMode::Epoll } else { NetMode::Thread },
            net_shards: 0,
            idle_timeout: Duration::from_secs(60),
            header_timeout: Duration::from_secs(10),
        }
    }
}

/// What the server did with its life, reported after drain.
#[derive(Debug, Clone)]
pub struct DrainStats {
    /// Frozen server counters.
    pub totals: ServerTotals,
    /// Wall time from bind to drain completion.
    pub uptime: Duration,
    /// Profiler report when [`ServeConfig::profile`] was on and this
    /// server owned the (process-global) profiler session.
    pub profile: Option<obs::ProfileReport>,
    /// Analysis-job accounting at drain: every admitted job must be
    /// covered by done + failed + cancelled (`outstanding() == 0`).
    pub jobs: JobTotals,
}

/// State shared by the accept loop, connection threads, and the batcher.
struct Shared {
    engine: Arc<Engine>,
    queue: Queue,
    metrics: ServerMetrics,
    /// Set by [`ServerHandle::shutdown`] or `POST /admin/shutdown`.
    shutdown: AtomicBool,
    /// Flipped once drain begins (exported as a gauge; healthz reports it).
    draining: AtomicBool,
    /// Connections currently being handled.
    inflight: AtomicUsize,
    /// Monotone request id source (spans + logs).
    next_id: AtomicU64,
    started: Instant,
    config: ServeConfig,
    manifest: Manifest,
    /// Warm-started corpus ANN index ([`ServeConfig::ann_warm`]); `None`
    /// when disabled, no store is attached, or the store was empty.
    ann: Option<observatory_search::ShardedHnsw>,
    /// Ingested tables (`POST /v1/tables`), shared with the scheduler.
    tables: Arc<TableStore>,
    /// The analysis-job scheduler behind `/v1/analyze` and `/v1/jobs`.
    jobs: JobScheduler,
}

/// Cloneable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin graceful drain: stop accepting, answer everything admitted.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether drain has started.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Live server counters (also available after `run` returns).
    pub fn totals(&self) -> ServerTotals {
        self.shared.metrics.totals()
    }
}

/// A bound (but not yet running) service.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    signal_flag: Option<&'static AtomicBool>,
}

impl Server {
    /// Bind the listen socket and assemble shared state. The engine is
    /// taken as a parameter (not `runtime::global()`) so tests can run
    /// several isolated servers in one process.
    pub fn bind(config: ServeConfig, engine: Arc<Engine>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let signal_flag = if config.handle_signals { Some(signal::install()) } else { None };
        let mut manifest = Manifest::for_run();
        manifest.set("command", "serve");
        manifest.set("max_batch", config.max_batch.to_string());
        manifest.set("queue_depth", config.queue_depth.to_string());
        manifest.set("simd", observatory_linalg::simd::decision().describe());
        match engine.store() {
            Some(store) => {
                manifest.set("store", "attached");
                manifest.set("store_generation", store.generation().to_string());
            }
            None => {
                manifest.set("store", "none");
            }
        }
        let ann = if config.ann_warm { build_corpus_ann(&engine, config.ann_shards) } else { None };
        match &ann {
            Some(idx) => {
                manifest.set("ann", "hnsw");
                manifest.set("ann_items", idx.len().to_string());
                manifest.set("ann_shards", idx.num_shards().to_string());
            }
            None => {
                manifest.set("ann", "none");
            }
        }
        // Jobs subsystem: ingested tables + the analysis scheduler share
        // the engine (and through it, the encoding cache and store tier).
        let tables =
            Arc::new(TableStore::open(config.jobs_dir.as_ref().map(|d| d.join("tables")))?);
        let jobs = JobScheduler::start(
            JobConfig {
                max_jobs: config.max_jobs,
                default_deadline: config.job_deadline,
                dir: config.jobs_dir.clone(),
                ..JobConfig::default()
            },
            Arc::clone(&engine),
            Arc::clone(&tables),
        )?;
        manifest.set("max_jobs", config.max_jobs.to_string());
        let shared = Arc::new(Shared {
            engine,
            queue: Queue::new(config.queue_depth),
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            started: Instant::now(),
            config,
            manifest,
            ann,
            tables,
            jobs,
        });
        Ok(Server { listener, shared, signal_flag })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// `(items, shards, dim)` of the warm corpus index, when one was
    /// built — for the startup banner.
    pub fn ann_summary(&self) -> Option<(usize, usize, usize)> {
        self.shared.ann.as_ref().map(|i| (i.len(), i.num_shards(), i.dim()))
    }

    /// A remote control usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// Serve until a shutdown is requested (handle, admin endpoint, or
    /// signal), then drain: refuse new admissions, answer every admitted
    /// job, wait for in-flight connections, and join the batcher.
    pub fn run(self) -> DrainStats {
        let shared = self.shared;
        let config = shared.config.clone();
        obs::event_with(obs::Level::Info, "serve", "listening", || {
            vec![("addr", format!("{:?}", config.addr)), ("net", config.net.as_str().to_string())]
        });
        // The profiler is process-global; only stop it on drain if this
        // server's start actually claimed the session.
        let profiling = config.profile && obs::profiler::start(config.profile_interval);

        // The single consumer of the admission queue.
        let batcher_shared = Arc::clone(&shared);
        let batcher = std::thread::Builder::new()
            .name("observatory-batcher".to_string())
            .spawn(move || {
                batcher::batcher_loop(
                    &batcher_shared.queue,
                    &batcher_shared.engine,
                    &batcher_shared.metrics,
                    BatcherConfig { max_batch: config.max_batch, batch_delay: config.batch_delay },
                );
            })
            .expect("spawn batcher thread");

        #[cfg(target_os = "linux")]
        if config.net == NetMode::Epoll {
            return run_epoll(shared, self.listener, self.signal_flag, batcher, profiling);
        }
        #[cfg(not(target_os = "linux"))]
        if config.net == NetMode::Epoll {
            // Requested but unsupported on this target: serve anyway.
            obs::event(obs::Level::Warn, "serve", "epoll_unsupported_thread_fallback");
        }
        run_threads(shared, self.listener, self.signal_flag, batcher, profiling)
    }
}

/// The classic serving path: one blocking thread per connection.
fn run_threads(
    shared: Arc<Shared>,
    listener: TcpListener,
    signal_flag: Option<&'static AtomicBool>,
    batcher: std::thread::JoinHandle<()>,
    profiling: bool,
) -> DrainStats {
    // Accept loop: nonblocking so shutdown flags are polled ~200×/s.
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst)
            || signal_flag.is_some_and(|f| f.load(Ordering::Relaxed))
        {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.inflight.fetch_add(1, Ordering::SeqCst);
                shared.metrics.record_accept();
                shared.metrics.conn_opened();
                // Thread mode serves one request per connection, so an
                // open connection is always an active one.
                shared.metrics.conn_busy();
                let conn_shared = Arc::clone(&shared);
                let h = std::thread::Builder::new()
                    .name("observatory-conn".to_string())
                    .spawn(move || {
                        handle_conn(stream, &conn_shared);
                        conn_shared.metrics.conn_unbusy();
                        conn_shared.metrics.conn_closed();
                        conn_shared.inflight.fetch_sub(1, Ordering::SeqCst);
                    })
                    .expect("spawn connection thread");
                conns.push(h);
                // Opportunistically reap finished threads so the vec
                // stays bounded on long runs.
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                obs::event_with(obs::Level::Error, "serve", "accept_error", || {
                    vec![("error", e.to_string())]
                });
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    shared.draining.store(true, Ordering::SeqCst);
    obs::event(obs::Level::Info, "serve", "drain_begin");
    flight::record(FlightKind::Drain, "drain", [0; 5], 0);
    // Stop accepting: drop the listener (closes the socket).
    drop(listener);
    let wait_shared = Arc::clone(&shared);
    drain_tail(&shared, batcher, profiling, move || {
        let shared = wait_shared;
        // Wait for connection threads to flush their responses.
        let wait_start = Instant::now();
        while shared.inflight.load(Ordering::SeqCst) > 0
            && wait_start.elapsed() < Duration::from_secs(30)
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        for h in conns {
            if h.is_finished() {
                let _ = h.join();
            }
        }
    })
}

/// The epoll serving path: shard event loops own the connections; this
/// thread only watches the shutdown flags and then conducts the drain.
#[cfg(target_os = "linux")]
fn run_epoll(
    shared: Arc<Shared>,
    listener: TcpListener,
    signal_flag: Option<&'static AtomicBool>,
    batcher: std::thread::JoinHandle<()>,
    profiling: bool,
) -> DrainStats {
    let listener = Arc::new(listener);
    let shards = reactor::spawn(&shared, &listener).expect("spawn epoll shards");
    loop {
        if shared.shutdown.load(Ordering::SeqCst)
            || signal_flag.is_some_and(|f| f.load(Ordering::Relaxed))
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    shared.draining.store(true, Ordering::SeqCst);
    obs::event(obs::Level::Info, "serve", "drain_begin");
    flight::record(FlightKind::Drain, "drain", [0; 5], 0);
    // Shards see the flag on their next tick: they deregister the
    // listener, close idle connections, and force `Connection: close`
    // on everything still flushing.
    shards.wake_all();
    drain_tail(&shared, batcher, profiling, move || {
        // Every parked embed has been answered into its shard mailbox by
        // now (the batcher exited); shards flush them and exit once their
        // connection slabs are empty (30 s cap).
        shards.join();
        // The last Arc closes the listen socket.
        drop(listener);
    })
}

/// The shared back half of the drain protocol, after accepting stopped.
fn drain_tail(
    shared: &Arc<Shared>,
    batcher: std::thread::JoinHandle<()>,
    profiling: bool,
    wait_conns: impl FnOnce(),
) -> DrainStats {
    // Refuse new admissions; admitted jobs remain poppable, and
    // pop_batch skips the straggler window once closed.
    shared.queue.close();
    // The batcher answers everything admitted, then exits.
    let _ = batcher.join();
    // Drain the job scheduler: queued jobs are cancelled before start, a
    // running job is cancelled cooperatively at its next checkpoint, and
    // every terminal record is persisted — an admitted job is never
    // lost, only finished or cancelled.
    let job_totals = shared.jobs.drain();
    // Everything the batcher acked is now in the tier-2 store's WAL (if
    // one is attached); fsync it so the corpus survives a machine
    // restart, not just this process exit.
    if let Err(e) = shared.engine.flush_store() {
        obs::event_with(obs::Level::Error, "serve", "store_flush_error", || {
            vec![("error", e.to_string())]
        });
    }
    // Let in-flight connections finish flushing their responses.
    wait_conns();
    let totals = shared.metrics.totals();
    obs::event_with(obs::Level::Info, "serve", "drain_complete", || {
        vec![
            ("requests", totals.requests.to_string()),
            ("shed", totals.shed.to_string()),
            ("expired", totals.expired.to_string()),
            ("batches", totals.batches.to_string()),
            ("accepted", totals.accepted.to_string()),
            ("timeouts", totals.timeouts.to_string()),
            ("jobs_submitted", job_totals.submitted.to_string()),
            ("jobs_outstanding", job_totals.outstanding().to_string()),
        ]
    });
    let profile = if profiling { obs::profiler::stop() } else { None };
    DrainStats { totals, uptime: shared.started.elapsed(), profile, jobs: job_totals }
}

/// Longest accepted `x-request-id` value, in bytes.
pub const MAX_REQUEST_ID_BYTES: usize = 128;

/// Request identity, shared by both net modes: the client's
/// `x-request-id`, or `obs-{id}` when there is none. A client id must be
/// non-empty, at most [`MAX_REQUEST_ID_BYTES`], charset `[A-Za-z0-9._-]`
/// (safe to echo in headers, log lines, and JSON without escaping);
/// otherwise `Err` holds the message of the 400 answer.
fn request_id(req: &Request, id: u64) -> Result<Arc<str>, String> {
    let Some(v) = req.header("x-request-id") else {
        return Ok(Arc::from(format!("obs-{id}")));
    };
    if v.len() > MAX_REQUEST_ID_BYTES {
        Err(format!("x-request-id exceeds {MAX_REQUEST_ID_BYTES} bytes"))
    } else if v.is_empty()
        || !v.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
    {
        Err("x-request-id must be non-empty [A-Za-z0-9._-]".to_string())
    } else {
        Ok(Arc::from(v))
    }
}

/// Status and message answering a request the parser rejected, shared
/// by both net modes (each then closes: framing is lost).
fn parse_error_reply(e: HttpError) -> (u16, String) {
    match e {
        HttpError::HeadersTooLarge => (431, "request header block exceeds limits".to_string()),
        HttpError::TooLarge => (413, "request exceeds size limits".to_string()),
        HttpError::Malformed(m) => (400, m),
        HttpError::Io(m) => (400, format!("read failed: {m}")),
        HttpError::Closed => (400, "connection closed".to_string()),
    }
}

/// Per-connection deadline override: `x-deadline-ms`, capped at 5 min.
fn request_deadline(req: &Request, default: Duration) -> Duration {
    match req.header("x-deadline-ms").and_then(|v| v.parse::<u64>().ok()) {
        Some(ms) => Duration::from_millis(ms.min(300_000)),
        None => default,
    }
}

/// A response ready to write: status, content type, extra headers, body,
/// and (for embed) the pipeline stage breakdown echoed as `x-stage-us`.
struct Outcome {
    route: &'static str,
    status: u16,
    content_type: &'static str,
    extra: Vec<(&'static str, String)>,
    body: String,
    stages: Option<Stages>,
}

impl Outcome {
    fn json(route: &'static str, status: u16, body: String) -> Self {
        Outcome {
            route,
            status,
            content_type: "application/json",
            extra: Vec::new(),
            body,
            stages: None,
        }
    }

    fn error(route: &'static str, status: u16, msg: &str) -> Self {
        Self::json(route, status, api::error_body(msg))
    }

    fn with_stages(mut self, stages: Stages) -> Self {
        self.stages = Some(stages);
        self
    }
}

/// Handle one connection: read a request, route it, write the response.
fn handle_conn(stream: TcpStream, shared: &Shared) {
    let start = Instant::now();
    // A dead or glacial client must not pin this thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    // One request per connection: Nagle only adds delayed-ACK stalls.
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut stream = stream;
    let req = match read_request(&mut reader) {
        Ok(r) => r,
        Err(HttpError::Closed) => return,
        Err(e) => {
            let (status, msg) = parse_error_reply(e);
            let body = api::error_body(&msg);
            let _ = write_response(&mut stream, status, "application/json", &[], body.as_bytes());
            shared.metrics.record_request("malformed", status, start.elapsed());
            return;
        }
    };
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let rid = match request_id(&req, id) {
        Ok(rid) => rid,
        Err(msg) => {
            let body = api::error_body(&msg);
            let _ = write_response(&mut stream, 400, "application/json", &[], body.as_bytes());
            shared.metrics.record_request("malformed", 400, start.elapsed());
            return;
        }
    };
    let mut span = obs::span(obs::Level::Info, "serve", "request")
        .with("request", id)
        .with("rid", &rid)
        .with("method", &req.method)
        .with("path", &req.path);
    let outcome = route(&req, id, &rid, &mut span, shared);
    span.record("status", outcome.status);
    let mut headers = outcome.extra;
    headers.push(("x-request-id", rid.to_string()));
    if let Some(stages) = &outcome.stages {
        headers.push(("x-stage-us", stages.header_value()));
        shared.metrics.record_stages(stages);
    }
    let _ = write_response(
        &mut stream,
        outcome.status,
        outcome.content_type,
        &headers,
        outcome.body.as_bytes(),
    );
    let total = start.elapsed();
    if total >= shared.config.slow {
        log_slow(&rid, outcome.route, outcome.status, total, outcome.stages);
    }
    shared.metrics.record_request(outcome.route, outcome.status, total);
}

/// The structured slow-request log line, shared by both net paths.
fn log_slow(rid: &str, route: &str, status: u16, total: Duration, stages: Option<Stages>) {
    let st = stages.unwrap_or_default();
    eprintln!(
        "slow-request id={} route={} status={} total_ms={:.1} queue_us={} batch_wait_us={} encode_us={} store_us={} write_us={}",
        rid,
        route,
        status,
        total.as_secs_f64() * 1e3,
        st.queue_us,
        st.batch_wait_us,
        st.encode_us,
        st.store_us,
        st.write_us,
    );
}

/// The method set a known path accepts, as an `Allow` header value;
/// `None` means the path itself is unknown (404 territory).
fn allowed_methods(path: &str) -> Option<&'static str> {
    match path {
        "/healthz" | "/metrics" | "/debug/flight" | "/debug/profile" | "/debug/profile/top" => {
            Some("GET")
        }
        "/v1/embed" | "/v1/knn" | "/v1/tables" | "/v1/analyze" | "/admin/shutdown" => Some("POST"),
        p if p.starts_with("/v1/jobs/") => Some("GET, DELETE"),
        _ => None,
    }
}

/// What routing produced: either a finished response, or an admitted
/// embed whose reply will arrive on the [`ReplyTo`] sink the caller
/// supplied (thread path: a channel it blocks on; epoll path: the
/// shard's mailbox).
enum Routed {
    Done(Outcome),
    Pending(PendingEmbed),
}

/// An admitted `/v1/embed` awaiting its batcher reply.
struct PendingEmbed {
    /// The parsed request, kept to render the response around the
    /// encoding once the reply lands.
    embed_req: api::EmbedRequest,
    /// The (possibly header-overridden) deadline, for the reply guard.
    deadline_in: Duration,
}

/// Dispatch one parsed request, blocking until the response is ready —
/// the thread path. Everything but an admitted embed completes inline;
/// for an admitted embed this parks on a rendezvous channel exactly as
/// the pre-reactor server did.
fn route(req: &Request, id: u64, rid: &Arc<str>, span: &mut obs::Span, shared: &Shared) -> Outcome {
    let (tx, rx) = mpsc::channel();
    match route_async(req, id, rid, span, shared, ReplyTo::from(tx)) {
        Routed::Done(outcome) => outcome,
        Routed::Pending(p) => {
            // The batcher always answers (reply, or drops the sender on a
            // path we haven't imagined — then recv errors and we 500).
            // The extra minute covers encode time after a met deadline.
            match rx.recv_timeout(p.deadline_in + Duration::from_secs(60)) {
                Ok(reply) => embed_reply_outcome(&p.embed_req, reply),
                Err(_) => Outcome::error("embed", 500, "batcher dropped the request"),
            }
        }
    }
}

/// Render the final embed outcome from a reply: the batcher's, or one
/// resolved at admission (a cache hit or an already-expired deadline).
fn embed_reply_outcome(embed_req: &api::EmbedRequest, reply: Reply) -> Outcome {
    match reply {
        (Ok(enc), stages) => {
            Outcome::json("embed", 200, api::render_embed_response(embed_req, &enc))
                .with_stages(stages)
        }
        (Err(JobError::DeadlineExpired), stages) => {
            Outcome::error("embed", 408, "deadline expired before encode").with_stages(stages)
        }
        (Err(JobError::Internal(m)), stages) => {
            Outcome::error("embed", 500, &m).with_stages(stages)
        }
    }
}

/// Dispatch one parsed request to its endpoint without ever blocking on
/// the batcher: an admitted embed comes back as [`Routed::Pending`] and
/// its reply is delivered to `reply`.
fn route_async(
    req: &Request,
    id: u64,
    rid: &Arc<str>,
    span: &mut obs::Span,
    shared: &Shared,
    reply: ReplyTo,
) -> Routed {
    if let ("POST", "/v1/embed") = (req.method.as_str(), req.path.as_str()) {
        return embed(req, id, rid, span, shared, reply);
    }
    Routed::Done(match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/metrics") => metrics_page(shared),
        ("GET", "/debug/flight") => flight_page(),
        ("GET", "/debug/profile") => profile_page(false),
        ("GET", "/debug/profile/top") => profile_page(true),
        ("POST", "/v1/knn") => knn(req, shared),
        ("POST", "/v1/tables") => tables_ingest(req, shared),
        ("POST", "/v1/analyze") => analyze(req, shared),
        (_, p) if p.starts_with("/v1/jobs/") => jobs_route(req, shared),
        ("POST", "/admin/shutdown") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Outcome::json("admin", 200, "{\"draining\":true}".to_string())
        }
        (method, path) => match allowed_methods(path) {
            // Known path, wrong verb: 405 with the honest Allow set.
            Some(allow) => {
                let mut o = Outcome::error(
                    "other",
                    405,
                    &format!("method {method} not allowed for '{path}'"),
                );
                o.extra.push(("Allow", allow.to_string()));
                o
            }
            // Unknown path: JSON 404, same error envelope as everything
            // else, so clients never have to parse a bare-text body.
            None => Outcome::error("other", 404, &format!("no route for '{path}'")),
        },
    })
}

/// `POST /v1/tables`: ingest a table (CSV or JSON), reply with its
/// content-addressed id. Re-ingesting identical content is idempotent:
/// 200 with the existing id instead of 201.
fn tables_ingest(req: &Request, shared: &Shared) -> Outcome {
    if req.header("content-length").is_none() {
        return Outcome::error("tables", 411, "POST /v1/tables requires Content-Length");
    }
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Outcome::error("tables", 400, "body must be UTF-8"),
    };
    let is_csv =
        req.header("content-type").is_some_and(|ct| ct.to_ascii_lowercase().contains("csv"));
    let table = if is_csv {
        // The table name participates in the content fingerprint, so an
        // `x-table-name` header lets a client reproduce the exact id the
        // CLI would compute for the same file path.
        let name = req.header("x-table-name").unwrap_or("upload");
        match observatory_table::csv::parse_csv(name, body) {
            Ok(t) => t,
            Err(e) => return Outcome::error("tables", 400, &format!("bad CSV: {e}")),
        }
    } else {
        let v = match obs::json::parse(body) {
            Ok(v) => v,
            Err(e) => return Outcome::error("tables", 400, &e),
        };
        match api::table_from_json(&v) {
            Ok(t) => t,
            Err(api::ApiError::TooLarge) => {
                return Outcome::error("tables", 413, &api::ApiError::TooLarge.to_string())
            }
            Err(api::ApiError::Bad(m)) => return Outcome::error("tables", 400, &m),
        }
    };
    if table.num_rows().saturating_mul(table.num_cols()) > api::MAX_CELLS {
        return Outcome::error("tables", 413, &api::ApiError::TooLarge.to_string());
    }
    let (name, rows, cols) = (table.name.clone(), table.num_rows(), table.num_cols());
    match shared.tables.add(table) {
        Ok((id, created)) => Outcome::json(
            "tables",
            if created { 201 } else { 200 },
            format!(
                "{{\"id\":\"{id}\",\"name\":\"{}\",\"rows\":{rows},\"cols\":{cols},\"created\":{created}}}",
                escape(&name)
            ),
        ),
        Err(e) => Outcome::error("tables", 500, &format!("persist failed: {e}")),
    }
}

/// `POST /v1/analyze`: validate the request, build an [`AnalyzeSpec`],
/// and submit it — 202 with the job id, or 429/503/404 from admission.
fn analyze(req: &Request, shared: &Shared) -> Outcome {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Outcome::error("analyze", 400, "body must be UTF-8 JSON"),
    };
    let v = match obs::json::parse(body) {
        Ok(v) => v,
        Err(e) => return Outcome::error("analyze", 400, &e),
    };
    let Some(table) = v.get("table").and_then(Json::as_str) else {
        return Outcome::error("analyze", 400, "missing string field 'table'");
    };
    let Some(props) = v.get("properties").and_then(Json::as_array) else {
        return Outcome::error("analyze", 400, "missing array field 'properties'");
    };
    if props.is_empty() {
        return Outcome::error("analyze", 400, "'properties' must not be empty");
    }
    let mut properties = Vec::with_capacity(props.len());
    for p in props {
        let Some(id) = p.as_str() else {
            return Outcome::error("analyze", 400, "'properties' entries must be strings");
        };
        if !supported_property(id) {
            return Outcome::error(
                "analyze",
                400,
                &format!(
                    "unsupported property '{id}' (supported: {})",
                    SUPPORTED_PROPERTIES.join(", ")
                ),
            );
        }
        properties.push(id.to_string());
    }
    let model = v.get("model").and_then(Json::as_str).unwrap_or("bert").to_string();
    if !is_known_model(&model) {
        return Outcome::error("analyze", 400, &format!("unknown model '{model}'"));
    }
    let defaults = AnalyzeSpec::default();
    let seed = match v.get("seed") {
        None => defaults.seed,
        Some(s) => match s.as_f64() {
            Some(n) if n >= 0.0 && n.fract() == 0.0 => n as u64,
            _ => return Outcome::error("analyze", 400, "'seed' must be a non-negative integer"),
        },
    };
    let permutations = match v.get("permutations") {
        None => defaults.permutations,
        Some(s) => match s.as_f64() {
            Some(n) if n >= 2.0 && n.fract() == 0.0 => n as usize,
            _ => return Outcome::error("analyze", 400, "'permutations' must be an integer >= 2"),
        },
    };
    let deadline = match v.get("deadline_ms") {
        None => shared.config.job_deadline,
        Some(s) => match s.as_f64() {
            // Cap at one hour: a job deadline bounds how long drain can
            // possibly wait on a runaway analysis.
            Some(n) if n >= 1.0 && n.fract() == 0.0 => {
                Duration::from_millis((n as u64).min(3_600_000))
            }
            _ => return Outcome::error("analyze", 400, "'deadline_ms' must be an integer >= 1"),
        },
    };
    let downstream = match v.get("downstream") {
        None => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Outcome::error("analyze", 400, "'downstream' must be a boolean"),
    };
    let spec = AnalyzeSpec {
        table: table.to_string(),
        model,
        properties,
        seed,
        permutations,
        deadline,
        downstream,
    };
    match shared.jobs.submit(spec) {
        Submit::Queued { id, depth } => Outcome::json(
            "analyze",
            202,
            format!("{{\"job\":\"{id}\",\"state\":\"queued\",\"depth\":{depth}}}"),
        ),
        Submit::Full => {
            flight::record(FlightKind::Shed, "analyze", [0; 5], 429);
            flight::dump("shed");
            let mut o = Outcome::error("analyze", 429, "job queue full, retry shortly");
            o.extra.push(("Retry-After", "1".to_string()));
            o
        }
        Submit::Closed => Outcome::error("analyze", 503, "server is draining"),
        Submit::UnknownTable => Outcome::error(
            "analyze",
            404,
            &format!("unknown table '{table}' (ingest it via POST /v1/tables)"),
        ),
    }
}

/// `/v1/jobs/<id>[/result]`: status (GET), result (GET …/result), and
/// cancellation (DELETE).
fn jobs_route(req: &Request, shared: &Shared) -> Outcome {
    let rest = &req.path["/v1/jobs/".len()..];
    let (id, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    match (req.method.as_str(), tail) {
        ("GET", None) => job_status(id, shared),
        ("GET", Some("result")) => job_result(id, shared),
        ("DELETE", None) => job_cancel(id, shared),
        (_, Some(t)) if t != "result" => {
            Outcome::error("jobs", 404, &format!("no route for '{}'", req.path))
        }
        (method, _) => {
            let mut o = Outcome::error(
                "jobs",
                405,
                &format!("method {method} not allowed for '{}'", req.path),
            );
            o.extra.push(("Allow", "GET, DELETE".to_string()));
            o
        }
    }
}

/// `GET /v1/jobs/<id>`: live status + progress + stage timings. The
/// stage breakdown reuses the request-path [`Stages`] vocabulary
/// (queue → encode → write), rendered in the same `x-stage-us` format.
fn job_status(id: &str, shared: &Shared) -> Outcome {
    let Some(s) = shared.jobs.status(id) else {
        return Outcome::error("jobs", 404, &format!("no such job '{id}'"));
    };
    let stages = Stages {
        queue_us: s.timings.queued_us,
        batch_wait_us: 0,
        encode_us: s.timings.run_us,
        store_us: 0,
        write_us: s.timings.persist_us,
    };
    let props: Vec<String> =
        s.spec.properties.iter().map(|p| format!("\"{}\"", escape(p))).collect();
    let error = match &s.error {
        Some(e) => format!("\"{}\"", escape(e)),
        None => "null".to_string(),
    };
    let body = format!(
        "{{\"job\":\"{}\",\"state\":\"{}\",\"progress\":{:.4},\"attempts\":{},\"table\":\"{}\",\"model\":\"{}\",\"properties\":[{}],\"seed\":{},\"permutations\":{},\"deadline_ms\":{},\"downstream\":{},\"error\":{},\"stage_us\":\"{}\"}}",
        escape(&s.id),
        s.state.as_str(),
        s.progress,
        s.attempts,
        escape(&s.spec.table),
        escape(&s.spec.model),
        props.join(","),
        s.spec.seed,
        s.spec.permutations,
        s.spec.deadline.as_millis(),
        s.spec.downstream,
        error,
        stages.header_value(),
    );
    Outcome::json("jobs", 200, body)
}

/// `GET /v1/jobs/<id>/result`: the persisted record, verbatim — exactly
/// the bytes that survive a restart. Only meaningful once `done`.
fn job_result(id: &str, shared: &Shared) -> Outcome {
    match shared.jobs.record_json(id) {
        None => Outcome::error("jobs", 404, &format!("no such job '{id}'")),
        Some((JobState::Done, json)) => Outcome::json("jobs", 200, json.as_ref().clone()),
        Some((state, _)) => Outcome::error(
            "jobs",
            409,
            &format!("job '{id}' is {}; result is only available once done", state.as_str()),
        ),
    }
}

/// `DELETE /v1/jobs/<id>`: cancel. Queued jobs cancel immediately (200);
/// a running job gets a cooperative request honored at its next
/// checkpoint (202 — poll the status to observe it land).
fn job_cancel(id: &str, shared: &Shared) -> Outcome {
    match shared.jobs.cancel(id) {
        observatory_jobs::Cancel::Unknown => {
            Outcome::error("jobs", 404, &format!("no such job '{id}'"))
        }
        observatory_jobs::Cancel::AlreadyTerminal(state) => {
            Outcome::error("jobs", 409, &format!("job '{id}' is already {}", state.as_str()))
        }
        observatory_jobs::Cancel::Cancelled => Outcome::json(
            "jobs",
            200,
            format!("{{\"job\":\"{}\",\"state\":\"cancelled\"}}", escape(id)),
        ),
        observatory_jobs::Cancel::Cancelling => Outcome::json(
            "jobs",
            202,
            format!("{{\"job\":\"{}\",\"state\":\"cancelling\"}}", escape(id)),
        ),
    }
}

/// `GET /debug/flight`: the current ring as Chrome-trace JSON, without
/// waiting for an anomaly.
fn flight_page() -> Outcome {
    Outcome::json("debug", 200, flight::render(None, "on-demand"))
}

/// `GET /debug/profile[/top]`: live profiler output, or 409 when no
/// profiling session is running.
fn profile_page(top: bool) -> Outcome {
    if !obs::profiler::is_running() {
        return Outcome::error(
            "debug",
            409,
            "profiler not running; start the server with --profile-out or --profile-interval-ms",
        );
    }
    let report = obs::profiler::report();
    Outcome {
        route: "debug",
        status: 200,
        content_type: "text/plain",
        extra: Vec::new(),
        body: if top { report.top } else { report.folded },
        stages: None,
    }
}

/// Build the corpus ANN index from the engine's attached store: every
/// live fingerprint's table-level readout becomes one item, keyed by
/// the fingerprint hex — the same key `/v1/embed` clients can compute
/// from their own content. No re-encoding happens here: vectors come
/// straight out of the persisted segments. Returns `None` when there is
/// no store or nothing usable in it (cold start, not an error).
fn build_corpus_ann(engine: &Engine, shards: usize) -> Option<ShardedHnsw> {
    let store = engine.store()?;
    let fingerprints = store.fingerprints();
    if fingerprints.is_empty() {
        return None;
    }
    let mut span = obs::span(obs::Level::Info, "serve", "ann_warm")
        .with("fingerprints", fingerprints.len())
        .with("shards", shards);
    let mut items: Vec<(String, Vec<f64>)> = Vec::with_capacity(fingerprints.len());
    let mut dim = None;
    let mut skipped = 0usize;
    for fp in fingerprints {
        // Unreadable records and non-table encodings are skipped, as are
        // dimension strays (mixed-model stores): the index only holds
        // mutually comparable vectors.
        let vector = match store.load(fp).and_then(|enc| enc.table()) {
            Some(v) if !v.is_empty() => v,
            _ => {
                skipped += 1;
                continue;
            }
        };
        match dim {
            None => dim = Some(vector.len()),
            Some(d) if d != vector.len() => {
                skipped += 1;
                continue;
            }
            Some(_) => {}
        }
        items.push((fp.to_hex(), vector));
    }
    span.record("items", items.len());
    span.record("skipped", skipped);
    let dim = dim?;
    Some(ShardedHnsw::build(dim, shards.max(1), HnswConfig::default(), &items, engine.jobs()))
}

fn healthz(shared: &Shared) -> Outcome {
    // Store sub-object so orchestration can check warm-restart readiness
    // from the same probe it already scrapes; `null` when serving
    // without persistence.
    let store = match shared.engine.store() {
        Some(store) => {
            let t = store.tier_stats();
            format!(
                "{{\"records\":{},\"segments\":{},\"generation\":{}}}",
                t.records, t.segments, t.generation
            )
        }
        None => "null".to_string(),
    };
    // ANN sub-object: which index kind `/v1/knn {"corpus":true}` would
    // hit, and how big it is. `null` until a warm start built one.
    let ann = match &shared.ann {
        Some(idx) => format!(
            "{{\"kind\":\"{}\",\"items\":{},\"shards\":{},\"dim\":{}}}",
            idx.kind(),
            idx.len(),
            idx.num_shards(),
            idx.dim(),
        ),
        None => "null".to_string(),
    };
    // Jobs sub-object: scheduler gauges, so the same probe covers the
    // async-analysis plane (queue depth, running, terminal tallies).
    let jc = shared.jobs.counts();
    let jobs = format!(
        "{{\"queued\":{},\"running\":{},\"done\":{},\"failed\":{},\"cancelled\":{},\"capacity\":{},\"tables\":{}}}",
        jc.queued,
        jc.running,
        jc.done,
        jc.failed,
        jc.cancelled,
        jc.capacity,
        shared.tables.len(),
    );
    // Connections sub-object: live gauges plus lifetime counters, in
    // both net modes (thread mode simply never has idle connections).
    let cs = shared.metrics.conn_snapshot();
    let connections = format!(
        "{{\"open\":{},\"idle\":{},\"active\":{},\"accepted\":{},\"timeouts\":{}}}",
        cs.open,
        cs.idle(),
        cs.active,
        cs.accepted,
        cs.timeouts,
    );
    let body = format!(
        "{{\"status\":\"ok\",\"draining\":{},\"net\":\"{}\",\"queue_depth\":{},\"queue_capacity\":{},\"uptime_seconds\":{:.3},\"workers\":{},\"connections\":{},\"jobs\":{},\"simd\":\"{}\",\"store\":{},\"ann\":{}}}",
        shared.draining.load(Ordering::SeqCst),
        shared.config.net.as_str(),
        shared.queue.len(),
        shared.queue.capacity(),
        shared.started.elapsed().as_secs_f64(),
        shared.engine.jobs(),
        connections,
        jobs,
        observatory_linalg::simd::decision().describe(),
        store,
        ann,
    );
    Outcome::json("healthz", 200, body)
}

fn metrics_page(shared: &Shared) -> Outcome {
    // Engine families first, then the server's own; both documents are
    // PromBuf-rendered so the concatenation validates as one exposition.
    let engine_text = observatory_runtime::prometheus_text(
        &shared.engine.metrics_snapshot(),
        &shared.engine.cache_stats(),
        &shared.manifest,
        None,
    );
    let server_text = shared.metrics.prometheus_text(
        shared.queue.len(),
        shared.queue.capacity(),
        shared.inflight.load(Ordering::SeqCst),
        shared.draining.load(Ordering::SeqCst),
        shared.jobs.counts(),
        shared.jobs.totals(),
    );
    let mut body = engine_text;
    body.push_str(&server_text);
    Outcome {
        route: "metrics",
        status: 200,
        content_type: "text/plain; version=0.0.4",
        extra: Vec::new(),
        body,
        stages: None,
    }
}

/// `POST /v1/embed`: validate, answer cache hits, admit misses.
///
/// A hit on either cache tier is answered right here, on the calling
/// thread (the reactor shard or the connection thread): it never
/// encodes, so it skips the queue, the straggler window and the
/// batcher, and it is never shed. Only misses are admitted — the only
/// async edge in the server: on `Pushed::Ok` the batcher owns the job
/// and will deliver its reply to the supplied [`ReplyTo`] sink.
fn embed(
    req: &Request,
    id: u64,
    rid: &Arc<str>,
    span: &mut obs::Span,
    shared: &Shared,
    reply: ReplyTo,
) -> Routed {
    if req.header("content-length").is_none() {
        return Routed::Done(Outcome::error(
            "embed",
            411,
            "POST /v1/embed requires Content-Length",
        ));
    }
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Routed::Done(Outcome::error("embed", 400, "body must be UTF-8 JSON")),
    };
    let parsed = {
        let mut parse_span = obs::span(obs::Level::Debug, "serve", "parse");
        let r = api::parse_embed(body);
        if let Err(e) = &r {
            parse_span.record("error", e);
        }
        r
    };
    let embed_req = match parsed {
        Ok(r) => r,
        Err(api::ApiError::TooLarge) => {
            return Routed::Done(Outcome::error("embed", 413, &api::ApiError::TooLarge.to_string()))
        }
        Err(api::ApiError::Bad(m)) => return Routed::Done(Outcome::error("embed", 400, &m)),
    };
    // Name check only — constructing the model here would regenerate its
    // weights on every request; the batcher builds and caches adapters.
    if !is_known_model(&embed_req.model) {
        return Routed::Done(Outcome::error(
            "embed",
            400,
            &format!("unknown model '{}'", embed_req.model),
        ));
    }
    span.record("model", &embed_req.model);
    span.record("rows", embed_req.table.num_rows());
    span.record("cols", embed_req.table.num_cols());
    // Drain refuses every new embed, hit or miss, exactly when the
    // queue stops admitting.
    if shared.queue.is_closed() {
        return draining(rid);
    }
    let deadline_in = request_deadline(req, shared.config.deadline);
    if deadline_in.is_zero() {
        // Already past its deadline: 408, never looked up or encoded.
        flight::record(FlightKind::Expired, rid, [0; 5], 408);
        flight::dump("deadline");
        return Routed::Done(embed_reply_outcome(
            &embed_req,
            (Err(JobError::DeadlineExpired), Stages::default()),
        ));
    }
    let fp = fingerprint_table(&embed_req.model, &embed_req.table);
    let (hit, probe) = shared.engine.lookup(fp, span.id());
    if let Some(enc) = hit {
        let stages = Stages { store_us: probe.store_us, ..Stages::default() };
        flight::record(FlightKind::Done, rid, stages.as_array(), 200);
        return Routed::Done(embed_reply_outcome(&embed_req, (Ok(enc), stages)));
    }
    let now = Instant::now();
    let job = Job {
        id,
        rid: Arc::clone(rid),
        model: embed_req.model.clone(),
        table: embed_req.table.clone(),
        fp,
        store_us: probe.store_us,
        enqueued: now,
        deadline: now + deadline_in,
        reply,
        span_parent: span.id(),
    };
    match shared.queue.push(job) {
        Pushed::Full => {
            obs::event_with(obs::Level::Info, "serve", "shed", || {
                vec![("request", id.to_string()), ("rid", rid.to_string())]
            });
            // Load shedding is an anomaly worth a flight dump: the ring
            // holds the admissions that filled the queue.
            flight::record(FlightKind::Shed, rid, [0; 5], 429);
            flight::dump("shed");
            let mut o = Outcome::error("embed", 429, "admission queue full, retry shortly");
            o.extra.push(("Retry-After", "1".to_string()));
            Routed::Done(o)
        }
        Pushed::Closed => draining(rid),
        Pushed::Ok { depth } => {
            span.record("queue_depth", depth);
            flight::record(FlightKind::Admit, rid, [0; 5], depth as u64);
            Routed::Pending(PendingEmbed { embed_req, deadline_in })
        }
    }
}

/// The 503 a draining server answers every new embed with.
fn draining(rid: &str) -> Routed {
    flight::record(FlightKind::Shed, rid, [0; 5], 503);
    flight::dump("shed");
    Routed::Done(Outcome::error("embed", 503, "server is draining"))
}

fn knn(req: &Request, shared: &Shared) -> Outcome {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Outcome::error("knn", 400, "body must be UTF-8 JSON"),
    };
    match api::parse_knn(body) {
        Ok(parsed) => {
            let mut span = obs::span(obs::Level::Debug, "serve", "knn")
                .with("items", parsed.items.len())
                .with("queries", parsed.queries.len())
                .with("mode", parsed.mode.as_str())
                .with("corpus", parsed.corpus)
                .with("k", parsed.k);
            let out = if parsed.corpus {
                let Some(index) = &shared.ann else {
                    return Outcome::error(
                        "knn",
                        409,
                        "no corpus index: start the server with --ann-warm and an attached store",
                    );
                };
                if let Some(q) = parsed.queries.first() {
                    if q.len() != index.dim() {
                        return Outcome::error(
                            "knn",
                            400,
                            &format!(
                                "corpus index has dim {}, queries have dim {}",
                                index.dim(),
                                q.len()
                            ),
                        );
                    }
                }
                api::run_knn_on(&parsed, index)
            } else {
                api::run_knn(&parsed, shared.engine.jobs())
            };
            span.record("bytes", out.len());
            Outcome::json("knn", 200, out)
        }
        Err(e) => Outcome::error("knn", 400, &e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use observatory_obs::json::parse as jparse;
    use observatory_runtime::EngineConfig;
    use std::io::Write;

    fn spawn_server(
        config: ServeConfig,
    ) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<DrainStats>) {
        let engine = Arc::new(Engine::new(EngineConfig { jobs: 2, cache_bytes: 1 << 22 }));
        let server = Server::bind(config, engine).expect("bind ephemeral");
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        (addr, handle, join)
    }

    fn ephemeral() -> ServeConfig {
        ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() }
    }

    /// One request over a fresh connection; returns (status, headers, body).
    fn send(addr: SocketAddr, raw: &str) -> (u16, String, String) {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(raw.as_bytes()).unwrap();
        let mut buf = String::new();
        use std::io::Read;
        s.read_to_string(&mut buf).expect("read response");
        let status: u16 = buf
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no status in {buf:?}"));
        let (head, body) = buf.split_once("\r\n\r\n").unwrap_or((buf.as_str(), ""));
        (status, head.to_string(), body.to_string())
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
        send(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
        post_with(addr, path, body, "")
    }

    fn post_with(addr: SocketAddr, path: &str, body: &str, extra: &str) -> (u16, String, String) {
        send(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n{extra}\r\n{body}",
                body.len()
            ),
        )
    }

    fn embed_body(tag: u64) -> String {
        format!(
            r#"{{"model":"bert","level":"column","id":"req-{tag}",
               "table":{{"name":"t{tag}","columns":[
                 {{"header":"id","values":[{tag},2,3]}},
                 {{"header":"name","values":["a-{tag}","b",null]}}]}}}}"#
        )
    }

    fn shutdown_and_join(
        handle: &ServerHandle,
        join: std::thread::JoinHandle<DrainStats>,
    ) -> DrainStats {
        handle.shutdown();
        join.join().expect("server thread")
    }

    #[test]
    fn healthz_embed_knn_metrics_round_trip() {
        let (addr, handle, join) = spawn_server(ephemeral());

        let (status, _, body) = get(addr, "/healthz");
        assert_eq!(status, 200, "{body}");
        let h = jparse(&body).unwrap();
        assert_eq!(h.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(h.get("draining"), Some(&observatory_obs::json::Json::Bool(false)));
        // The SIMD dispatch decision is part of liveness output so an
        // operator can confirm which kernel tier a replica is running.
        let simd = h.get("simd").unwrap().as_str().unwrap();
        assert_eq!(simd, observatory_linalg::simd::decision().describe());
        // No tier-2 store attached in unit tests: the probe reports that
        // explicitly rather than omitting the key.
        assert_eq!(h.get("store"), Some(&observatory_obs::json::Json::Null));

        let (status, _, body) = post(addr, "/v1/embed", &embed_body(7));
        assert_eq!(status, 200, "{body}");
        let v = jparse(&body).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("req-7"));
        assert_eq!(v.get("model").unwrap().as_str(), Some("bert"));
        assert_eq!(v.get("count").unwrap().as_f64(), Some(2.0));
        let embeddings = v.get("embeddings").unwrap().as_array().unwrap();
        assert_eq!(embeddings.len(), 2);
        assert!(!embeddings[0].as_array().unwrap().is_empty());

        let knn_body = r#"{"k":1,"items":[{"key":"a","vector":[1,0]},{"key":"b","vector":[0,1]}],"queries":[[0.9,0.1]]}"#;
        let (status, _, body) = post(addr, "/v1/knn", knn_body);
        assert_eq!(status, 200, "{body}");
        let v = jparse(&body).unwrap();
        let hits = v.get("results").unwrap().as_array().unwrap()[0].as_array().unwrap();
        assert_eq!(hits[0].get("key").unwrap().as_str(), Some("a"));

        let (status, _, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        let summary = observatory_obs::prom::validate(&body).expect("exposition validates");
        assert!(summary.has("observatory_encodes_total"), "engine families present");
        assert!(summary.has("observatory_server_requests_total"), "server families present");

        let stats = shutdown_and_join(&handle, join);
        assert!(stats.totals.requests >= 4);
        assert_eq!(stats.totals.shed, 0);
    }

    #[test]
    fn bad_requests_get_bad_statuses() {
        let (addr, handle, join) = spawn_server(ephemeral());
        // Unknown route and wrong method.
        assert_eq!(get(addr, "/nope").0, 404);
        assert_eq!(get(addr, "/v1/embed").0, 405);
        // Malformed JSON and unknown model.
        assert_eq!(post(addr, "/v1/embed", "{not json").0, 400);
        let body = embed_body(1).replace("bert", "no-such-model");
        let (status, _, resp) = post(addr, "/v1/embed", &body);
        assert_eq!(status, 400);
        assert!(resp.contains("unknown model"), "{resp}");
        // POST without Content-Length.
        assert_eq!(send(addr, "POST /v1/embed HTTP/1.1\r\nHost: t\r\n\r\n").0, 411);
        // Bad kNN.
        assert_eq!(post(addr, "/v1/knn", r#"{"k":0,"items":[],"queries":[]}"#).0, 400);
        shutdown_and_join(&handle, join);
    }

    #[test]
    fn zero_deadline_is_408_and_never_encoded() {
        let (addr, handle, join) = spawn_server(ephemeral());
        let (status, _, body) =
            post_with(addr, "/v1/embed", &embed_body(3), "x-deadline-ms: 0\r\n");
        assert_eq!(status, 408, "{body}");
        let stats = shutdown_and_join(&handle, join);
        assert_eq!(stats.totals.expired, 1);
    }

    #[test]
    fn draining_server_refuses_then_exits() {
        let (addr, handle, join) = spawn_server(ephemeral());
        assert_eq!(get(addr, "/healthz").0, 200);
        let (status, _, body) = post(addr, "/admin/shutdown", "");
        assert_eq!(status, 200);
        assert!(body.contains("draining"));
        let stats = join.join().expect("server thread drains and exits");
        assert!(stats.totals.requests >= 2);
        assert!(handle.is_draining());
        // The socket is closed: new connections fail or are reset.
        assert!(
            TcpStream::connect(addr)
                .map(|mut s| {
                    use std::io::Read;
                    let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
                    let mut out = String::new();
                    matches!(s.read_to_string(&mut out), Ok(0)) || out.is_empty()
                })
                .unwrap_or(true),
            "listener must be closed after drain"
        );
    }

    #[test]
    fn full_queue_sheds_with_429_and_never_hangs() {
        // Tiny queue + serial engine + non-trivial tables: concurrent
        // clients must overrun admission, and every one of them still
        // gets an answer (200 or 429 + Retry-After) promptly.
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_batch: 1,
            batch_delay: Duration::ZERO,
            queue_depth: 2,
            ..ServeConfig::default()
        };
        let engine = Arc::new(Engine::new(EngineConfig { jobs: 1, cache_bytes: 0 }));
        let server = Server::bind(config, engine).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());

        let values: Vec<String> = (0..400).map(|i| format!("\"cell-{i}\"")).collect();
        let clients: Vec<_> = (0..16)
            .map(|i| {
                let vals = values.join(",");
                std::thread::spawn(move || {
                    let body = format!(
                        r#"{{"model":"bert","table":{{"name":"big{i}","columns":[{{"header":"c","values":[{vals}]}}]}}}}"#
                    );
                    post(addr, "/v1/embed", &body).0
                })
            })
            .collect();
        let statuses: Vec<u16> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        assert!(
            statuses.iter().all(|s| *s == 200 || *s == 429),
            "only 200/429 expected, got {statuses:?}"
        );
        let stats = shutdown_and_join(&handle, join);
        assert_eq!(stats.totals.shed, statuses.iter().filter(|s| **s == 429).count() as u64);
        assert!(stats.totals.shed >= 1, "queue_depth=2 under 16 clients must shed");
    }

    #[test]
    fn retry_after_header_present_on_429() {
        // Drive the shed path deterministically through route().
        let engine = Arc::new(Engine::new(EngineConfig { jobs: 1, cache_bytes: 0 }));
        let server = Server::bind(
            ServeConfig { addr: "127.0.0.1:0".into(), queue_depth: 1, ..ServeConfig::default() },
            engine,
        )
        .unwrap();
        let shared = &server.shared;
        // Fill the queue directly (no batcher is draining it).
        let (tx, _rx) = mpsc::channel();
        let now = Instant::now();
        let table = api::parse_embed(&embed_body(1)).unwrap().table;
        assert!(matches!(
            shared.queue.push(Job {
                id: 1,
                rid: "r1".into(),
                model: "bert".into(),
                fp: fingerprint_table("bert", &table),
                table,
                store_us: 0,
                enqueued: now,
                deadline: now + Duration::from_secs(5),
                reply: tx.into(),
                span_parent: None,
            }),
            Pushed::Ok { .. }
        ));
        let body = embed_body(2);
        let raw = format!(
            "POST /v1/embed HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        let req = read_request(&mut BufReader::new(raw.as_bytes())).unwrap();
        let mut span = obs::span(obs::Level::Debug, "serve", "test");
        let rid: Arc<str> = "r2".into();
        let out = route(&req, 2, &rid, &mut span, shared);
        assert_eq!(out.status, 429);
        assert!(out.extra.iter().any(|(k, v)| *k == "Retry-After" && v == "1"));
    }

    /// Pull one header value (case-insensitive name) out of a raw head.
    fn header_value(head: &str, name: &str) -> Option<String> {
        head.lines().find_map(|l| {
            let (k, v) = l.split_once(':')?;
            (k.trim().eq_ignore_ascii_case(name)).then(|| v.trim().to_string())
        })
    }

    #[test]
    fn request_id_round_trips_and_stages_are_echoed() {
        let (addr, handle, join) = spawn_server(ephemeral());
        // Client-supplied id round-trips on the embed response, along
        // with the full five-stage breakdown.
        let (status, head, body) =
            post_with(addr, "/v1/embed", &embed_body(11), "x-request-id: cli-abc.123\r\n");
        assert_eq!(status, 200, "{body}");
        assert_eq!(header_value(&head, "x-request-id").as_deref(), Some("cli-abc.123"));
        let stages = header_value(&head, "x-stage-us").expect("stage header on embed");
        for key in ["queue=", "batch_wait=", "encode=", "store=", "write="] {
            assert!(stages.contains(key), "{key} missing in {stages}");
        }
        // Absent id → generated, echoed, and distinct per request.
        let (_, head_a, _) = get(addr, "/healthz");
        let (_, head_b, _) = get(addr, "/healthz");
        let a = header_value(&head_a, "x-request-id").expect("generated id");
        let b = header_value(&head_b, "x-request-id").expect("generated id");
        assert!(a.starts_with("obs-") && b.starts_with("obs-"), "{a} {b}");
        assert_ne!(a, b);
        // Non-embed routes carry the id but no stage header.
        assert!(header_value(&head_a, "x-stage-us").is_none());
        shutdown_and_join(&handle, join);
    }

    #[test]
    fn malformed_request_ids_are_rejected() {
        let (addr, handle, join) = spawn_server(ephemeral());
        let (status, _, body) =
            post_with(addr, "/v1/embed", &embed_body(1), "x-request-id: bad id with spaces\r\n");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("x-request-id"), "{body}");
        let long = "x".repeat(MAX_REQUEST_ID_BYTES + 1);
        let (status, _, body) =
            post_with(addr, "/v1/embed", &embed_body(1), &format!("x-request-id: {long}\r\n"));
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("exceeds"), "{body}");
        // Exactly at the limit is fine — even on a GET.
        let max = "y".repeat(MAX_REQUEST_ID_BYTES);
        let (status, head, _) =
            send(addr, &format!("GET /healthz HTTP/1.1\r\nHost: t\r\nx-request-id: {max}\r\n\r\n"));
        assert_eq!(status, 200);
        assert_eq!(header_value(&head, "x-request-id"), Some(max));
        shutdown_and_join(&handle, join);
    }

    /// Poll a job until it reaches a terminal state; returns the final
    /// status document.
    fn poll_terminal(addr: SocketAddr, job: &str) -> observatory_obs::json::Json {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (status, _, body) = get(addr, &format!("/v1/jobs/{job}"));
            assert_eq!(status, 200, "{body}");
            let s = jparse(&body).unwrap();
            let state = s.get("state").unwrap().as_str().unwrap();
            if matches!(state, "done" | "failed" | "cancelled") {
                return s;
            }
            assert!(Instant::now() < deadline, "job {job} stuck in '{state}'");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn tables_analyze_job_lifecycle() {
        let (addr, handle, join) = spawn_server(ephemeral());
        // CSV ingest with an explicit table name (part of the identity).
        let csv = "city,pop\nparis,2100000\nlyon,520000\nnice,340000\n";
        let hdr = "Content-Type: text/csv\r\nx-table-name: cities\r\n";
        let (status, _, body) = post_with(addr, "/v1/tables", csv, hdr);
        assert_eq!(status, 201, "{body}");
        let v = jparse(&body).unwrap();
        let table_id = v.get("id").unwrap().as_str().unwrap().to_string();
        assert!(table_id.starts_with("tbl-"), "{table_id}");
        assert_eq!(v.get("name").unwrap().as_str(), Some("cities"));
        assert_eq!(v.get("rows").unwrap().as_f64(), Some(3.0));
        // Re-ingesting identical content is idempotent: 200, same id.
        let (status, _, body) = post_with(addr, "/v1/tables", csv, hdr);
        assert_eq!(status, 200, "{body}");
        assert_eq!(jparse(&body).unwrap().get("id").unwrap().as_str(), Some(table_id.as_str()));

        let req =
            format!(r#"{{"table":"{table_id}","properties":["P1"],"seed":7,"permutations":4}}"#);
        let (status, _, body) = post(addr, "/v1/analyze", &req);
        assert_eq!(status, 202, "{body}");
        let job = jparse(&body).unwrap().get("job").unwrap().as_str().unwrap().to_string();
        assert!(job.starts_with("job-"), "{job}");

        let s = poll_terminal(addr, &job);
        assert_eq!(s.get("state").unwrap().as_str(), Some("done"), "{s:?}");
        assert_eq!(s.get("progress").unwrap().as_f64(), Some(1.0));
        assert!(s.get("stage_us").unwrap().as_str().unwrap().contains("encode="));

        let (status, _, body) = get(addr, &format!("/v1/jobs/{job}/result"));
        assert_eq!(status, 200, "{body}");
        let r = jparse(&body).unwrap();
        let reports = r.get("result").unwrap().get("reports").unwrap().as_array().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].get("property").unwrap().as_str(), Some("P1"));
        assert!(!reports[0].get("measures").unwrap().as_array().unwrap().is_empty());

        // The liveness probe now carries the jobs plane.
        let (_, _, hb) = get(addr, "/healthz");
        let h = jparse(&hb).unwrap();
        let jobs = h.get("jobs").unwrap();
        assert_eq!(jobs.get("done").unwrap().as_f64(), Some(1.0), "{hb}");
        assert_eq!(jobs.get("tables").unwrap().as_f64(), Some(1.0));
        assert!(h.get("workers").unwrap().as_f64().unwrap() >= 1.0);
        // And /metrics exports the job families.
        let (_, _, mb) = get(addr, "/metrics");
        assert!(mb.contains("observatory_server_jobs_submitted_total 1"), "job counters exported");

        let stats = shutdown_and_join(&handle, join);
        assert_eq!(stats.jobs.submitted, 1);
        assert_eq!(stats.jobs.done, 1);
        assert_eq!(stats.jobs.outstanding(), 0);
    }

    #[test]
    fn unknown_routes_404_json_and_wrong_methods_405_with_allow() {
        let (addr, handle, join) = spawn_server(ephemeral());
        // Unknown path: JSON error envelope, not bare text.
        let (status, head, body) = get(addr, "/v1/nope");
        assert_eq!(status, 404);
        assert!(header_value(&head, "content-type").unwrap().contains("application/json"));
        assert!(jparse(&body).unwrap().get("error").is_some(), "{body}");
        // Known paths with the wrong verb: 405 + honest Allow sets.
        let (status, head, _) = get(addr, "/v1/tables");
        assert_eq!(status, 405);
        assert_eq!(header_value(&head, "allow").as_deref(), Some("POST"));
        let (status, head, _) = send(addr, "DELETE /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 405);
        assert_eq!(header_value(&head, "allow").as_deref(), Some("GET"));
        let (status, head, _) = post(addr, "/v1/jobs/job-00000001", "");
        assert_eq!(status, 405);
        assert_eq!(header_value(&head, "allow").as_deref(), Some("GET, DELETE"));
        // Unknown job id and unknown job sub-path are 404, not 405.
        assert_eq!(get(addr, "/v1/jobs/job-ffffffff").0, 404);
        assert_eq!(get(addr, "/v1/jobs/job-ffffffff/nope").0, 404);
        assert_eq!(send(addr, "DELETE /v1/jobs/job-ffffffff HTTP/1.1\r\nHost: t\r\n\r\n").0, 404);
        shutdown_and_join(&handle, join);
    }

    #[test]
    fn analyze_validates_requests() {
        let (addr, handle, join) = spawn_server(ephemeral());
        // Unknown table id → 404.
        let (status, _, body) =
            post(addr, "/v1/analyze", r#"{"table":"tbl-missing","properties":["P1"]}"#);
        assert_eq!(status, 404, "{body}");
        let (status, _, body) =
            post(addr, "/v1/tables", r#"{"name":"j","columns":[{"header":"a","values":[1,2,3]}]}"#);
        assert_eq!(status, 201, "{body}");
        let id = jparse(&body).unwrap().get("id").unwrap().as_str().unwrap().to_string();
        for (req, frag) in [
            (format!(r#"{{"table":"{id}","properties":["P3"]}}"#), "unsupported property"),
            (format!(r#"{{"table":"{id}","properties":[]}}"#), "must not be empty"),
            (
                format!(r#"{{"table":"{id}","properties":["P1"],"model":"no-such"}}"#),
                "unknown model",
            ),
            (format!(r#"{{"table":"{id}","properties":["P1"],"permutations":1}}"#), "permutations"),
            (format!(r#"{{"table":"{id}","properties":["P1"],"deadline_ms":0}}"#), "deadline_ms"),
            ("{\"properties\":[\"P1\"]}".to_string(), "table"),
        ] {
            let (status, _, body) = post(addr, "/v1/analyze", &req);
            assert_eq!(status, 400, "{req} -> {body}");
            assert!(body.contains(frag), "{req} -> {body}");
        }
        shutdown_and_join(&handle, join);
    }

    #[test]
    fn job_cancellation_and_result_conflict() {
        let (addr, handle, join) = spawn_server(ephemeral());
        // A table big enough that one analysis takes real time, so the
        // second submit is still queued when we cancel it.
        let cols: Vec<String> = (0..6)
            .map(|c| {
                let vals: Vec<String> = (0..30).map(|r| format!("\"v-{c}-{r}\"")).collect();
                format!("{{\"header\":\"c{c}\",\"values\":[{}]}}", vals.join(","))
            })
            .collect();
        let table_json = format!("{{\"name\":\"slow\",\"columns\":[{}]}}", cols.join(","));
        let (status, _, body) = post(addr, "/v1/tables", &table_json);
        assert_eq!(status, 201, "{body}");
        let id = jparse(&body).unwrap().get("id").unwrap().as_str().unwrap().to_string();
        let req = format!(r#"{{"table":"{id}","properties":["P1","P2"],"permutations":24}}"#);
        let (status, _, _) = post(addr, "/v1/analyze", &req);
        assert_eq!(status, 202);
        let (status, _, body) = post(addr, "/v1/analyze", &req);
        assert_eq!(status, 202, "{body}");
        let job_b = jparse(&body).unwrap().get("job").unwrap().as_str().unwrap().to_string();
        // Cancel: 200 when still queued, 202 when the runner already
        // picked it up (then the cancel lands at the next checkpoint).
        let (status, _, body) =
            send(addr, &format!("DELETE /v1/jobs/{job_b} HTTP/1.1\r\nHost: t\r\n\r\n"));
        assert!(status == 200 || status == 202, "{status} {body}");
        let s = poll_terminal(addr, &job_b);
        assert_eq!(s.get("state").unwrap().as_str(), Some("cancelled"), "{s:?}");
        let err = s.get("error").unwrap().as_str().unwrap();
        assert!(err.contains("cancelled"), "{err}");
        // A cancelled job has no result, and cancelling again conflicts.
        let (status, _, body) = get(addr, &format!("/v1/jobs/{job_b}/result"));
        assert_eq!(status, 409, "{body}");
        assert!(body.contains("cancelled"), "{body}");
        let (status, _, _) =
            send(addr, &format!("DELETE /v1/jobs/{job_b} HTTP/1.1\r\nHost: t\r\n\r\n"));
        assert_eq!(status, 409);
        let stats = shutdown_and_join(&handle, join);
        assert_eq!(stats.jobs.submitted, 2);
        assert_eq!(stats.jobs.outstanding(), 0, "drain must never lose an admitted job");
    }

    #[test]
    fn debug_flight_returns_chrome_trace() {
        let (addr, handle, join) = spawn_server(ephemeral());
        // Generate at least one admitted request so the ring has events.
        assert_eq!(post(addr, "/v1/embed", &embed_body(21)).0, 200);
        let (status, _, body) = get(addr, "/debug/flight");
        assert_eq!(status, 200);
        let doc = jparse(&body).expect("flight page is JSON");
        assert!(doc.get("traceEvents").unwrap().as_array().is_some());
        // Wrong method is 405, not 404.
        assert_eq!(post(addr, "/debug/flight", "").0, 405);
        shutdown_and_join(&handle, join);
    }

    /// Read exactly one Content-Length-framed response off a persistent
    /// connection (keep-alive tests can't read to EOF).
    fn read_framed(s: &mut TcpStream) -> (u16, String, String) {
        let mut carry = Vec::new();
        read_framed_carry(s, &mut carry)
    }

    /// Read one Content-Length-framed response; over-read bytes (the start of
    /// the next pipelined response) stay in `carry` for the following call.
    fn read_framed_carry(s: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, String, String) {
        use std::io::Read;
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let header_end = loop {
            if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let mut chunk = [0u8; 1024];
            let n = s.read(&mut chunk).expect("read head");
            assert!(n > 0, "EOF before headers: {:?}", String::from_utf8_lossy(carry));
            carry.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&carry[..header_end]).to_string();
        let cl: usize = header_value(&head, "content-length")
            .and_then(|v| v.parse().ok())
            .expect("content-length on every response");
        while carry.len() < header_end + cl {
            let mut chunk = [0u8; 4096];
            let n = s.read(&mut chunk).expect("read body");
            assert!(n > 0, "EOF mid-body");
            carry.extend_from_slice(&chunk[..n]);
        }
        let status: u16 =
            head.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("status line");
        let body = String::from_utf8_lossy(&carry[header_end..header_end + cl]).to_string();
        carry.drain(..header_end + cl);
        (status, head, body)
    }

    /// Block until the peer closes the connection (and assert it does).
    fn expect_eof(s: &mut TcpStream) {
        use std::io::Read;
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut rest = Vec::new();
        match s.read_to_end(&mut rest) {
            Ok(n) => {
                assert_eq!(n, 0, "unexpected trailing bytes: {:?}", String::from_utf8_lossy(&rest))
            }
            Err(e) => panic!("expected clean close, got {e}"),
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn keep_alive_serves_many_requests_on_one_socket() {
        let (addr, handle, join) = spawn_server(ephemeral());
        let mut s = TcpStream::connect(addr).unwrap();
        for i in 0..3 {
            let body = embed_body(40 + i);
            s.write_all(
                format!(
                    "POST /v1/embed HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
            let (status, head, body) = read_framed(&mut s);
            assert_eq!(status, 200, "{body}");
            assert_eq!(header_value(&head, "connection").as_deref(), Some("keep-alive"));
            assert!(header_value(&head, "x-stage-us").is_some(), "embed carries stages");
        }
        // Without the keep-alive token the server closes after answering.
        s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (status, head, _) = read_framed(&mut s);
        assert_eq!(status, 200);
        assert_eq!(header_value(&head, "connection").as_deref(), Some("close"));
        expect_eof(&mut s);
        let stats = shutdown_and_join(&handle, join);
        assert!(stats.totals.requests >= 4);
        // Four requests rode a single accepted connection.
        assert_eq!(stats.totals.accepted, 1, "keep-alive must reuse the connection");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let (addr, handle, join) = spawn_server(ephemeral());
        let mut s = TcpStream::connect(addr).unwrap();
        // Three requests in one write; responses must come back in
        // request order even though the middle one crosses the batcher.
        let body = embed_body(50);
        let pipeline = format!(
            "GET /healthz HTTP/1.1\r\nHost: t\r\nx-request-id: first\r\nConnection: keep-alive\r\n\r\n\
             POST /v1/embed HTTP/1.1\r\nHost: t\r\nx-request-id: second\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}\
             GET /healthz HTTP/1.1\r\nHost: t\r\nx-request-id: third\r\n\r\n",
            body.len()
        );
        s.write_all(pipeline.as_bytes()).unwrap();
        let mut rids = Vec::new();
        let mut carry = Vec::new();
        for want in [200u16, 200, 200] {
            let (status, head, body) = read_framed_carry(&mut s, &mut carry);
            assert_eq!(status, want, "{body}");
            rids.push(header_value(&head, "x-request-id").unwrap());
        }
        assert_eq!(rids, ["first", "second", "third"], "responses in request order");
        expect_eof(&mut s);
        shutdown_and_join(&handle, join);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn half_close_after_pipelined_burst_still_serves_all_replies() {
        // Pipeline a burst of embeds, then shut down the client's write
        // half while they are still in flight. EPOLLRDHUP fires while
        // the replies are parked; the reactor must note the EOF without
        // re-firing the event (busy-spin regression) and still deliver
        // every response before closing.
        let (addr, handle, join) = spawn_server(ephemeral());
        let mut s = TcpStream::connect(addr).unwrap();
        const BURST: usize = 6;
        let mut pipeline = String::new();
        for i in 0..BURST {
            let body = embed_body(900 + i as u64);
            pipeline.push_str(&format!(
                "POST /v1/embed HTTP/1.1\r\nHost: t\r\nx-request-id: hc-{i}\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ));
        }
        s.write_all(pipeline.as_bytes()).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut carry = Vec::new();
        for i in 0..BURST {
            let (status, head, body) = read_framed_carry(&mut s, &mut carry);
            assert_eq!(status, 200, "reply {i}: {body}");
            assert_eq!(header_value(&head, "x-request-id").as_deref(), Some(&*format!("hc-{i}")));
        }
        expect_eof(&mut s);
        let stats = shutdown_and_join(&handle, join);
        assert!(stats.totals.requests >= BURST as u64);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn connection_header_conformance_over_the_wire() {
        let (addr, handle, join) = spawn_server(ephemeral());
        // HTTP/1.0 → close, even with nothing asked.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n").unwrap();
        let (status, head, _) = read_framed(&mut s);
        assert_eq!(status, 200);
        assert_eq!(header_value(&head, "connection").as_deref(), Some("close"));
        expect_eof(&mut s);
        // `Connection: keep-alive, close` → close wins.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: keep-alive, close\r\n\r\n")
            .unwrap();
        let (status, head, _) = read_framed(&mut s);
        assert_eq!(status, 200);
        assert_eq!(header_value(&head, "connection").as_deref(), Some("close"));
        expect_eof(&mut s);
        shutdown_and_join(&handle, join);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn oversized_headers_get_431_then_close() {
        let (addr, handle, join) = spawn_server(ephemeral());
        let mut s = TcpStream::connect(addr).unwrap();
        let huge = "x".repeat(http::MAX_HEADER_BYTES + 1024);
        s.write_all(
            format!("GET /healthz HTTP/1.1\r\nHost: t\r\nx-filler: {huge}\r\n\r\n").as_bytes(),
        )
        .unwrap();
        let (status, head, _) = read_framed(&mut s);
        assert_eq!(status, 431);
        assert_eq!(header_value(&head, "connection").as_deref(), Some("close"));
        expect_eof(&mut s);
        shutdown_and_join(&handle, join);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn slow_header_times_out_with_408_then_close() {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            header_timeout: Duration::from_millis(100),
            ..ServeConfig::default()
        };
        let (addr, handle, join) = spawn_server(config);
        let mut s = TcpStream::connect(addr).unwrap();
        // A slowloris: some header bytes, then silence.
        s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nx-tri").unwrap();
        let (status, head, _) = read_framed(&mut s);
        assert_eq!(status, 408);
        assert_eq!(header_value(&head, "connection").as_deref(), Some("close"));
        expect_eof(&mut s);
        let stats = shutdown_and_join(&handle, join);
        assert!(stats.totals.timeouts >= 1, "timeout counter must tick");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn idle_keep_alive_connection_is_reaped() {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            idle_timeout: Duration::from_millis(100),
            ..ServeConfig::default()
        };
        let (addr, handle, join) = spawn_server(config);
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n").unwrap();
        let (status, head, _) = read_framed(&mut s);
        assert_eq!(status, 200);
        assert_eq!(header_value(&head, "connection").as_deref(), Some("keep-alive"));
        // Parked and silent: the idle sweep closes it without a response.
        expect_eof(&mut s);
        let stats = shutdown_and_join(&handle, join);
        assert!(stats.totals.timeouts >= 1, "idle reap must tick the timeout counter");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pipelined_burst_past_backpressure_is_answered_in_full() {
        // More than OUT_BACKPRESSURE_BYTES of synchronous responses from
        // one write, read only after a pause so the unread backlog
        // crosses the bound: parsing pauses there and must resume from
        // the parser's buffer once the backlog flushes, because the
        // socket has nothing left to signal. A stall would surface as
        // the slow-header 408 after the (shortened) header timeout.
        let config = ServeConfig { header_timeout: Duration::from_secs(3), ..ephemeral() };
        let (addr, handle, join) = spawn_server(config);
        let mut s = TcpStream::connect(addr).unwrap();
        const BURST: usize = 1000;
        let one = "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n";
        s.write_all(one.repeat(BURST).as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        let mut carry = Vec::new();
        let mut bytes = 0;
        for i in 0..BURST {
            let (status, _, body) = read_framed_carry(&mut s, &mut carry);
            assert_eq!(status, 200, "response {i} of {BURST}: {body}");
            bytes += body.len();
        }
        assert!(bytes > 2 << 20, "the burst must cross the 1 MiB bound, got {bytes} bytes");
        let stats = shutdown_and_join(&handle, join);
        assert_eq!(stats.totals.timeouts, 0, "no connection may time out");
    }

    /// A counting tier-2 double: loads (every probe) and saves.
    #[derive(Default)]
    struct CountingStore {
        map: std::sync::Mutex<std::collections::HashMap<u128, observatory_models::ModelEncoding>>,
        loads: AtomicU64,
    }

    impl observatory_runtime::EmbeddingStore for CountingStore {
        fn load(
            &self,
            fp: observatory_runtime::Fingerprint,
        ) -> Option<Arc<observatory_models::ModelEncoding>> {
            self.loads.fetch_add(1, Ordering::SeqCst);
            self.map.lock().unwrap().get(&fp.0).cloned().map(Arc::new)
        }
        fn save(
            &self,
            fp: observatory_runtime::Fingerprint,
            enc: &observatory_models::ModelEncoding,
        ) {
            self.map.lock().unwrap().insert(fp.0, enc.clone());
        }
        fn flush(&self) -> std::io::Result<()> {
            Ok(())
        }
        fn tier_stats(&self) -> observatory_runtime::StoreTierStats {
            observatory_runtime::StoreTierStats::default()
        }
    }

    /// The `x-stage-us` of an embed answered on the fast path.
    fn is_hit_stages(v: &str) -> bool {
        v.strip_prefix("queue=0;batch_wait=0;encode=0;store=")
            .and_then(|rest| rest.strip_suffix(";write=0"))
            .is_some_and(|us| us.parse::<u64>().is_ok())
    }

    #[test]
    fn warm_embeds_skip_the_batcher_with_exact_counters() {
        for net in [NetMode::Thread, NetMode::Epoll] {
            let engine = Arc::new(Engine::new(EngineConfig { jobs: 2, cache_bytes: 1 << 22 }));
            let store = Arc::new(CountingStore::default());
            assert!(engine.attach_store(Arc::clone(&store) as _));
            let config = ServeConfig { net, ..ephemeral() };
            let server = Server::bind(config, Arc::clone(&engine)).unwrap();
            let addr = server.local_addr().unwrap();
            let handle = server.handle();
            let join = std::thread::spawn(move || server.run());

            // Cold: one LRU miss, one store probe, one batch, one encode.
            let (status, _, cold) = post(addr, "/v1/embed", &embed_body(70));
            assert_eq!(status, 200, "{cold}");
            let m = engine.metrics_snapshot();
            assert_eq!((m.cache_hits, m.cache_misses, m.tier2_misses, m.encodes), (0, 1, 1, 1));
            assert_eq!(store.loads.load(Ordering::SeqCst), 1, "the batcher must not re-probe");
            let batches = handle.totals().batches;
            assert_eq!(batches, 1);

            // Warm: N LRU hits, answered at admission.
            const N: u64 = 12;
            for _ in 0..N {
                let (status, head, body) = post(addr, "/v1/embed", &embed_body(70));
                assert_eq!(status, 200, "{body}");
                assert_eq!(body, cold, "a hit renders the same bytes ({net:?})");
                let stages = header_value(&head, "x-stage-us").unwrap();
                assert_eq!(stages, "queue=0;batch_wait=0;encode=0;store=0;write=0");
            }
            let m = engine.metrics_snapshot();
            assert_eq!(m.cache_hits + m.cache_misses, N + 1, "one LRU lookup per request");
            assert_eq!(m.cache_hits, N);
            assert_eq!(handle.totals().batches, batches, "hits add no batches ({net:?})");

            // Tier 2: an evicted table is read back from the store once.
            engine.clear_cache();
            let (status, head, body) = post(addr, "/v1/embed", &embed_body(70));
            assert_eq!(status, 200, "{body}");
            assert_eq!(body, cold);
            assert!(is_hit_stages(&header_value(&head, "x-stage-us").unwrap()), "{head}");
            let m = engine.metrics_snapshot();
            assert_eq!((m.tier2_hits, m.tier2_misses, m.encodes), (1, 1, 1));
            assert_eq!(store.loads.load(Ordering::SeqCst), 2);
            assert_eq!(handle.totals().batches, batches);

            // A hit whose deadline already passed is still a 408, and is
            // never looked up.
            let lookups = m.lookups();
            let (status, head, _) =
                post_with(addr, "/v1/embed", &embed_body(70), "x-deadline-ms: 0\r\n");
            assert_eq!(status, 408);
            assert!(header_value(&head, "x-stage-us").is_some());
            assert_eq!(engine.metrics_snapshot().lookups(), lookups);
            let stats = shutdown_and_join(&handle, join);
            assert_eq!(stats.totals.expired, 1);
            assert_eq!(stats.totals.shed, 0);
        }
    }

    #[test]
    fn draining_server_answers_503_even_for_a_hit() {
        let engine = Arc::new(Engine::new(EngineConfig { jobs: 1, cache_bytes: 1 << 22 }));
        let server = Server::bind(
            ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() },
            engine,
        )
        .unwrap();
        let shared = &server.shared;
        let body = embed_body(80);
        let raw = format!(
            "POST /v1/embed HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        let req = read_request(&mut BufReader::new(raw.as_bytes())).unwrap();
        // Warm the LRU directly; no batcher runs in this test.
        let table = api::parse_embed(&body).unwrap().table;
        let model = observatory_models::registry::model_by_name("bert").unwrap();
        shared.engine.encode_table(model.as_ref(), &table);
        let mut span = obs::span(obs::Level::Debug, "serve", "test");
        let rid: Arc<str> = "hit".into();
        let out = route(&req, 1, &rid, &mut span, shared);
        assert_eq!(out.status, 200, "a hit is answered without the batcher");
        assert_eq!(
            out.stages.map(|s| s.header_value()).as_deref(),
            Some("queue=0;batch_wait=0;encode=0;store=0;write=0")
        );
        shared.queue.close();
        let out = route(&req, 2, &rid, &mut span, shared);
        assert_eq!(out.status, 503, "draining refuses hits too");
    }

    #[test]
    fn hit_bodies_and_stage_shape_match_across_net_modes() {
        let mut seen: Vec<(String, String)> = Vec::new();
        for net in [NetMode::Thread, NetMode::Epoll] {
            let (addr, handle, join) = spawn_server(ServeConfig { net, ..ephemeral() });
            for _ in 0..2 {
                let (status, head, body) = post(addr, "/v1/embed", &embed_body(90));
                assert_eq!(status, 200, "{body}");
                seen.push((body, header_value(&head, "x-stage-us").unwrap()));
            }
            shutdown_and_join(&handle, join);
        }
        fn shape(v: &str) -> Vec<&str> {
            v.split(';').map(|kv| kv.split('=').next().unwrap()).collect()
        }
        for (body, stages) in &seen {
            assert_eq!(body, &seen[0].0, "byte-identical bodies in both modes");
            assert_eq!(shape(stages), ["queue", "batch_wait", "encode", "store", "write"]);
        }
        // The repeat in each mode is the hit.
        assert_eq!(seen[1].1, "queue=0;batch_wait=0;encode=0;store=0;write=0");
        assert_eq!(seen[3].1, seen[1].1);
    }

    #[test]
    fn thread_mode_still_serves_identically() {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            net: NetMode::Thread,
            ..ServeConfig::default()
        };
        let (addr, handle, join) = spawn_server(config);
        let (status, _, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"net\":\"thread\""), "{body}");
        let (status, _, body) = post(addr, "/v1/embed", &embed_body(60));
        assert_eq!(status, 200, "{body}");
        assert_eq!(get(addr, "/nope").0, 404);
        let stats = shutdown_and_join(&handle, join);
        assert!(stats.totals.requests >= 3);
        assert_eq!(stats.totals.accepted, 3, "thread mode accepts per request");
    }

    #[test]
    fn profile_endpoints_serve_folded_stacks_when_enabled() {
        // The profiler is process-global: this is the only serve test
        // that turns it on, and it stops it again via drain.
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            profile: true,
            profile_interval: Duration::from_millis(2),
            ..ServeConfig::default()
        };
        let (addr, handle, join) = spawn_server(config);
        // The profiler is started by run() on the server thread; give it
        // a moment rather than racing the spawn.
        let wait = Instant::now();
        while !obs::profiler::is_running() && wait.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(obs::profiler::is_running());
        // Hold a frame on this thread so the sampler deterministically
        // observes at least one non-empty stack during the run.
        let pushed = obs::profiler::push_frame("test", "serve_profile_hold");
        for i in 0..3 {
            assert_eq!(post(addr, "/v1/embed", &embed_body(30 + i)).0, 200);
        }
        std::thread::sleep(Duration::from_millis(20));
        let (status, _, _folded) = get(addr, "/debug/profile");
        assert_eq!(status, 200);
        if pushed {
            obs::profiler::pop_frame();
        }
        let (status, _, _top) = get(addr, "/debug/profile/top");
        assert_eq!(status, 200);
        let stats = shutdown_and_join(&handle, join);
        let report = stats.profile.expect("profile report after drain");
        assert!(report.samples > 0, "sampler ran during the server's lifetime");
    }
}
