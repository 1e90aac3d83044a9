//! The serving workloads, `embed_cold`, `embed_warm` and `knn_warm`:
//! traffic from [`crate::gen`] against an in-process server bound with
//! `observatory_serve::Server::bind`. A timed run sends the nominal phase
//! (latency, `slo_attain`) and the rate ladder (`max_rps_under_slo`)
//! open-loop, then measures `throughput_per_s` in a closed loop.

use crate::gen::{self, Client, Outcome, Shot, Zipf};
use crate::replay::{self, InSitu, ANN_SHARDS};
use crate::report::{line, RunResult, END_TO_END, PER_LAYER};
use crate::stats::{median, Samples};
use crate::workloads::{Kind, Serving, Workload, MAX_GEN_LAG_P99_MS};
use crate::{characterize, env, sys, wire};
use observatory_data::wikitables::WikiTablesConfig;
use observatory_linalg::SplitMix64;
use observatory_models::registry::{model_by_name, MODEL_NAMES};
use observatory_models::TableEncoder;
use observatory_runtime::{fingerprint_table, EmbeddingStore, Engine, EngineConfig};
use observatory_search::{HnswConfig, ShardedHnsw};
use observatory_serve::metrics::ServerTotals;
use observatory_serve::{api, DrainStats, ServeConfig, Server, ServerHandle};
use observatory_table::Table;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keep-alive connections (and generator threads). One: the reactor
/// serves each connection on the shard that accepted it, and which shard
/// the kernel hands a second connection to varies from run to run, so
/// with two the kNN figures were bimodal.
pub const CONNS: usize = 1;

/// Requests the closed-loop saturation phase keeps in flight per
/// connection: the reactor's pipelining limit.
const PIPELINE: usize = 32;

/// Distinct kNN request bodies of knn_warm, and the stored tables each
/// queries (Zipf-chosen, each excluding its own key).
const KNN_POOL: usize = 400;
const KNN_QUERIES: usize = 4;

/// Requests replayed layer by layer in a traced run.
const REPLAY_REQUESTS: usize = 200;

/// Shares of `--seconds` for the timed run's phases: nominal (latency),
/// ladder (knee) and saturation (throughput).
const NOMINAL_SHARE: f64 = 0.6;
const LADDER_SHARE: f64 = 0.3;
const SATURATION_SHARE: f64 = 0.1;

/// Shares of `--seconds` for the traced run's phases.
const UNTRACED_SHARE: f64 = 0.3;
const TRACED_SHARE: f64 = 0.5;

/// Prepared traffic: a JSON body and its raw HTTP request per index.
#[derive(Default)]
struct Traffic {
    bodies: Vec<String>,
    raw: Vec<Vec<u8>>,
    is_knn: Vec<bool>,
    /// Index of the embed request that carries this request's table.
    table: Vec<usize>,
}

impl Traffic {
    fn push(&mut self, knn: bool, body: String, table: Option<usize>) -> usize {
        let i = self.raw.len();
        self.raw.push(wire::post(if knn { "/v1/knn" } else { "/v1/embed" }, &body));
        self.bodies.push(body);
        self.is_knn.push(knn);
        self.table.push(table.unwrap_or(i));
        i
    }
}

/// A server running on a background thread.
struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    join: std::thread::JoinHandle<DrainStats>,
    engine: Arc<Engine>,
}

impl Running {
    /// Open the store (when given), bind, and wait for a good
    /// `/healthz`.
    fn start(cache_bytes: usize, store: Option<&Path>, ann_warm: bool) -> Result<Running, String> {
        let engine = Arc::new(Engine::new(EngineConfig { jobs: env::nproc(), cache_bytes }));
        if let Some(dir) = store {
            observatory_store::open_and_attach(dir, &engine)
                .map_err(|e| format!("open store {}: {e}", dir.display()))?;
        }
        let config =
            ServeConfig { addr: "127.0.0.1:0".to_string(), ann_warm, ..ServeConfig::default() };
        let server = Server::bind(config, Arc::clone(&engine)).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| format!("local addr: {e}"))?;
        let handle = server.handle();
        let join = std::thread::Builder::new()
            .name("perfbench-server".to_string())
            .spawn(move || server.run())
            .map_err(|e| format!("spawn server: {e}"))?;
        let running = Running { addr, handle, join, engine };
        if let Err(e) = healthz(addr) {
            let _ = running.stop();
            return Err(e);
        }
        Ok(running)
    }

    /// Drain and join the server.
    fn stop(self) -> Result<DrainStats, String> {
        self.handle.shutdown();
        self.join.join().map_err(|_| "the server thread panicked".to_string())
    }
}

/// One blocking `GET /healthz` on its own connection.
fn healthz(addr: SocketAddr) -> Result<(), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("healthz connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
    s.write_all(b"GET /healthz HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("healthz send: {e}"))?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).map_err(|e| format!("healthz receive: {e}"))?;
    if buf.starts_with(b"HTTP/1.1 200") {
        Ok(())
    } else {
        Err(format!("healthz answered: {}", String::from_utf8_lossy(&buf[..buf.len().min(80)])))
    }
}

/// Engine, cache, server and store counters at one instant.
struct Counters {
    hits: u64,
    misses: u64,
    tier2_hits: u64,
    encodes: u64,
    evictions: u64,
    totals: ServerTotals,
}

impl Counters {
    fn take(r: &Running) -> Counters {
        let m = r.engine.metrics_snapshot();
        Counters {
            hits: m.cache_hits,
            misses: m.cache_misses,
            tier2_hits: m.tier2_hits,
            encodes: m.encodes,
            evictions: r.engine.cache_stats().evictions,
            totals: r.handle.totals(),
        }
    }
}

/// What happened between two counter snapshots.
struct Delta {
    lookups: u64,
    hits: u64,
    tier2_hits: u64,
    encodes: u64,
    evictions: u64,
    batches: u64,
    batched_jobs: u64,
    shed: u64,
}

fn delta(a: &Counters, b: &Counters) -> Delta {
    Delta {
        lookups: (b.hits + b.misses) - (a.hits + a.misses),
        hits: b.hits - a.hits,
        tier2_hits: b.tier2_hits - a.tier2_hits,
        encodes: b.encodes - a.encodes,
        evictions: b.evictions - a.evictions,
        batches: b.totals.batches - a.totals.batches,
        batched_jobs: b.totals.batched_jobs - a.totals.batched_jobs,
        shed: b.totals.shed - a.totals.shed,
    }
}

/// `n / d`, or 0 when nothing was counted.
fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

fn shots(times: &[u64], reqs: &[usize]) -> Vec<Shot> {
    times.iter().zip(reqs).map(|(&at_ns, &req)| Shot { at_ns, req }).collect()
}

fn latency_ms(o: &Outcome) -> f64 {
    if o.status == 200 {
        o.latency_ns as f64 / 1e6
    } else {
        f64::INFINITY
    }
}

fn met_slo(o: &Outcome, slo_ms: f64) -> bool {
    o.status == 200 && o.latency_ns as f64 / 1e6 <= slo_ms
}

fn lag_p99_ms(outs: &[Outcome]) -> f64 {
    Samples::new(outs.iter().map(|o| o.lag_ns as f64 / 1e6).collect()).pct(0.99)
}

fn count_failures(result: &mut RunResult, outs: &[Outcome]) {
    result.count(outs.len() as u64, outs.iter().filter(|o| o.status != 200).count() as u64);
}

/// A ladder step passes when at least 99% of the requests sent meet the
/// SLO and the last quarter's p90 still does (the backlog is not
/// growing).
fn step_passes(outs: &[Outcome], slo_ms: f64) -> bool {
    if outs.is_empty() {
        return false;
    }
    let met = outs.iter().filter(|o| met_slo(o, slo_ms)).count();
    let tail = Samples::new(outs[outs.len() * 3 / 4..].iter().map(latency_ms).collect());
    met as f64 >= 0.99 * outs.len() as f64 && tail.pct(0.9) <= slo_ms
}

/// Completions per rate sample of `throughput_per_s`.
const SPAN: usize = 256;

/// The start of the saturation phase that `throughput_per_s` skips while
/// the closed loop fills the pipeline.
const RAMP_NS: u64 = 100_000_000;

/// Median, over spans of [`SPAN`] consecutive 200 responses (after
/// [`RAMP_NS`], overlapping by half), of the span's completions per
/// second: the rate the server sustains while it serves. Counted in
/// completions rather than fixed windows, a stall in which nothing
/// completes (a store rotation's fsync) touches at most two spans however
/// long it lasts: it costs tail latency, not this figure.
fn saturated_throughput(done_ns: &[u64]) -> f64 {
    let mut t: Vec<u64> = done_ns.iter().copied().filter(|&t| t >= RAMP_NS).collect();
    t.sort_unstable();
    let rates = (0..)
        .map(|i| i * SPAN / 2)
        .take_while(|&i| i + SPAN < t.len())
        .map(|i| SPAN as f64 * 1e9 / (t[i + SPAN] - t[i]).max(1) as f64);
    Samples::new(rates.collect()).median()
}

/// Every `stride`-th shot from a seeded offset, up to `n` of them.
fn sample_mask(len: usize, n: usize, rng: &mut SplitMix64) -> Vec<bool> {
    let mut keep = vec![false; len];
    if len == 0 || n == 0 {
        return keep;
    }
    let stride = (len / n).max(1);
    let mut i = rng.next_below(stride);
    while i < len {
        keep[i] = true;
        i += stride;
    }
    keep
}

/// Encode every stored table once with bert into a fresh store at
/// `dir`; returns each table's key and table vector, in input order.
fn fill_store(dir: &Path, bodies: &[&str]) -> Result<Vec<(String, Vec<f64>)>, String> {
    let engine = Engine::new(EngineConfig { jobs: env::nproc(), cache_bytes: 0 });
    let store = observatory_store::open_and_attach(dir, &engine)
        .map_err(|e| format!("open store {}: {e}", dir.display()))?;
    let model = model_by_name("bert").ok_or("bert is missing from the zoo")?;
    // Tables as the server will parse them, so the keys match.
    let tables = bodies
        .iter()
        .map(|b| api::parse_embed(b).map(|r| r.table).map_err(|e| e.to_string()))
        .collect::<Result<Vec<Table>, String>>()?;
    let mut items = Vec::with_capacity(tables.len());
    for chunk in tables.chunks(64) {
        for (t, enc) in chunk.iter().zip(engine.encode_batch(model.as_ref(), chunk)) {
            let v = enc.table().ok_or("bert exposes no table readout")?;
            items.push((fingerprint_table("bert", t).to_hex(), v));
        }
    }
    store.flush().map_err(|e| format!("flush store: {e}"))?;
    Ok(items)
}

/// The corpus index exactly as the server warm-builds it from `engine`'s
/// store (same keys, order, shards, config and jobs).
fn corpus_items(engine: &Engine) -> Vec<(String, Vec<f64>)> {
    let Some(store) = engine.store() else { return Vec::new() };
    let mut items: Vec<(String, Vec<f64>)> = Vec::new();
    for fp in store.fingerprints() {
        let Some(v) = store.load(fp).and_then(|e| e.table()).filter(|v| !v.is_empty()) else {
            continue;
        };
        if items.first().is_some_and(|(_, f)| f.len() != v.len()) {
            continue;
        }
        items.push((fp.to_hex(), v));
    }
    items
}

/// Byte-compare kept responses against the reference: embed bodies
/// against `render_embed_response` over a serial, uncached encode; kNN
/// bodies against `run_knn_on` over `index`. Every mismatch fails.
fn check_responses(
    traffic: &Traffic,
    outs: &[Outcome],
    index: Option<&ShardedHnsw>,
    result: &mut RunResult,
) -> Result<(), String> {
    let reference = Engine::new(EngineConfig::serial_uncached());
    let mut models: HashMap<String, Box<dyn TableEncoder>> = HashMap::new();
    for o in outs.iter().filter(|o| o.body.is_some()) {
        let body = &traffic.bodies[o.req];
        let want = if traffic.is_knn[o.req] {
            let index = index.ok_or("kNN traffic without a reference index")?;
            api::run_knn_on(&api::parse_knn(body).map_err(|e| e.to_string())?, index)
        } else {
            let req = api::parse_embed(body).map_err(|e| e.to_string())?;
            if !models.contains_key(&req.model) {
                let m = model_by_name(&req.model).ok_or("unknown model")?;
                models.insert(req.model.clone(), m);
            }
            let enc = reference.encode_table(models[&req.model].as_ref(), &req.table);
            api::render_embed_response(&req, &enc)
        };
        let same = o.status == 200 && o.body.as_deref() == Some(want.as_bytes());
        result.count(1, u64::from(!same));
        if !same {
            let route = if traffic.is_knn[o.req] { "knn" } else { "embed" };
            result.fail_check(format!("{route} request {} differs from the reference", o.req));
        }
    }
    Ok(())
}

/// One phase of a run: a rate and its arrival times. The saturation
/// phase is a closed loop with no schedule: `rate` is how many requests
/// per second of it are prepared, a cap on the throughput it can show.
struct Phase {
    name: String,
    rate: f64,
    secs: f64,
    times: Vec<u64>,
}

impl Phase {
    fn saturates(&self) -> bool {
        self.name == "saturation"
    }

    /// Requests the phase needs.
    fn len(&self) -> usize {
        if self.saturates() {
            (self.rate * self.secs).ceil() as usize
        } else {
            self.times.len()
        }
    }
}

fn phases(s: &Serving, seconds: f64, trace: bool, rng: &mut SplitMix64) -> Vec<Phase> {
    let mut out = Vec::new();
    let mut push = |name: String, rate: f64, secs: f64, rng: &mut SplitMix64| {
        let times = if name == "saturation" { Vec::new() } else { gen::poisson(rng, rate, secs) };
        out.push(Phase { name, rate, secs, times });
    };
    if trace {
        push("untraced".into(), s.nominal_rps, seconds * UNTRACED_SHARE, rng);
        push("traced".into(), s.nominal_rps, seconds * TRACED_SHARE, rng);
    } else {
        push("nominal".into(), s.nominal_rps, seconds * NOMINAL_SHARE, rng);
        let step = seconds * LADDER_SHARE / s.ladder_rps.len().max(1) as f64;
        for &r in s.ladder_rps {
            push(format!("ladder {r}"), r, step, rng);
        }
        push("saturation".into(), s.saturation_rps, seconds * SATURATION_SHARE, rng);
    }
    out
}

/// Make the workload's requests for every phase, filling the corpus
/// store first on the warm workloads. Returns the request indices per
/// phase and the set-up's warm-up requests.
fn make_traffic(
    wl: &Workload,
    s: &Serving,
    phases: &[Phase],
    corpus_dir: &Path,
    traffic: &mut Traffic,
    rng: &mut SplitMix64,
) -> Result<(Vec<Vec<usize>>, Vec<usize>), String> {
    if wl.kind == Kind::EmbedCold {
        let needed: usize = phases.iter().map(Phase::len).sum();
        let tables = WikiTablesConfig {
            num_tables: needed + MODEL_NAMES.len(),
            min_rows: wl.rows,
            max_rows: wl.rows,
            seed: rng.next_u64(),
        }
        .generate();
        let mut fresh = tables.iter().enumerate();
        let mut next_body = |model: &str, traffic: &mut Traffic| {
            let (i, t) = fresh.next().expect("one table per request");
            traffic.push(false, wire::embed_body(model, &format!("r{i}"), t), None)
        };
        // One request per model, so lazy adapter construction happens
        // during set-up.
        let warmup = MODEL_NAMES.iter().map(|m| next_body(m, traffic)).collect();
        let zipf = Zipf::new(MODEL_NAMES.len());
        let reqs = phases
            .iter()
            .map(|p| {
                zipf.quota(p.len(), rng)
                    .into_iter()
                    .map(|m| next_body(MODEL_NAMES[m], traffic))
                    .collect()
            })
            .collect();
        return Ok((reqs, warmup));
    }
    let tables = WikiTablesConfig {
        num_tables: s.corpus_tables,
        min_rows: wl.rows,
        max_rows: wl.rows,
        seed: rng.next_u64(),
    }
    .generate();
    let embed: Vec<usize> = tables
        .iter()
        .enumerate()
        .map(|(i, t)| traffic.push(false, wire::embed_body("bert", &format!("r{i}"), t), None))
        .collect();
    let bodies: Vec<&str> = embed.iter().map(|&i| traffic.bodies[i].as_str()).collect();
    let stored = fill_store(corpus_dir, &bodies)?;
    let zipf = Zipf::new(tables.len());
    let route: Vec<usize> = if wl.kind == Kind::KnnWarm {
        (0..KNN_POOL)
            .map(|_| {
                let picks: Vec<usize> = (0..KNN_QUERIES).map(|_| zipf.sample(rng)).collect();
                let queries: Vec<(&[f64], &str)> =
                    picks.iter().map(|&t| (stored[t].1.as_slice(), stored[t].0.as_str())).collect();
                traffic.push(true, wire::knn_body(&queries), Some(embed[picks[0]]))
            })
            .collect()
    } else {
        embed
    };
    let reqs = phases
        .iter()
        .map(|p| {
            (0..p.len())
                .map(|_| match wl.kind {
                    Kind::KnnWarm => route[rng.next_below(route.len())],
                    _ => route[zipf.sample(rng)],
                })
                .collect()
        })
        .collect();
    Ok((reqs, vec![route[0]]))
}

/// Start a server on `dir` (store open and recovery, bind with the ANN
/// warm build on knn_warm, the first good /healthz), connect the
/// generator and send the warm-up requests. Returns the server, its
/// connections and the seconds all that took.
fn set_up(
    wl: &Workload,
    s: &Serving,
    dir: &Path,
    traffic: &Traffic,
    warmup: &[usize],
) -> Result<(Running, Client, f64), String> {
    let t0 = Instant::now();
    let server = Running::start(s.cache_bytes, Some(dir), wl.kind == Kind::KnnWarm)?;
    let mut client = Client::connect(server.addr, CONNS)?;
    let shots: Vec<Shot> = warmup.iter().map(|&req| Shot { at_ns: 0, req }).collect();
    let outs = client.run(&traffic.raw, &shots, &vec![false; shots.len()], false)?;
    if let Some(bad) = outs.iter().find(|o| o.status != 200) {
        return Err(format!("warm-up request answered {}", bad.status));
    }
    Ok((server, client, t0.elapsed().as_secs_f64()))
}

/// The corpus index of the warm workloads, rebuilt from the store the
/// server opened, as the reference for kNN responses.
fn reference_index(server: &Running) -> ShardedHnsw {
    let items = corpus_items(&server.engine);
    let dim = items.first().map_or(0, |(_, v)| v.len());
    ShardedHnsw::build(dim, ANN_SHARDS, HnswConfig::default(), &items, env::nproc())
}

/// Run a serving workload: timed (`trace == false`) or traced.
pub fn run(
    wl: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Path,
) -> Result<RunResult, String> {
    let s = wl.serving.as_ref().expect("a serving workload");
    let warm = wl.kind != Kind::EmbedCold;
    let mut rng = SplitMix64::new(seed ^ wl.seed_salt);
    let phases = phases(s, seconds, trace, &mut rng);
    let mut traffic = Traffic::default();
    let corpus_dir = scratch.join("store");
    let (phase_reqs, warmup) = make_traffic(wl, s, &phases, &corpus_dir, &mut traffic, &mut rng)?;
    // The warm workloads reopen their filled store; embed_cold gets a
    // fresh one per server.
    let store_dir =
        |r: usize| if warm { corpus_dir.clone() } else { scratch.join(format!("store{r}")) };

    // Set-up, repeated; the last set-up's server serves the run.
    let repeats = if trace { 1 } else { wl.setup_repeats };
    let mut setups = Vec::with_capacity(repeats + 1);
    for r in 1..repeats {
        let (server, client, secs) = set_up(wl, s, &store_dir(r), &traffic, &warmup)?;
        setups.push(secs);
        drop(client);
        server.stop()?;
        if !warm {
            let _ = std::fs::remove_dir_all(store_dir(r));
        }
    }
    let (server, mut client, secs) = set_up(wl, s, &store_dir(0), &traffic, &warmup)?;
    setups.push(secs);
    if trace {
        return run_traced(
            wl,
            s,
            server,
            client,
            &traffic,
            &phases,
            &phase_reqs,
            seed,
            scratch,
            &mut rng,
        );
    }
    let mut result = RunResult::new();
    // peak_rss_mb covers the nominal phase: not the store fill, the
    // set-ups, the backlogs of the ladder and saturation, or the checks.
    sys::reset_peak_rss()?;
    let mut rss = f64::NAN;
    let before = Counters::take(&server);
    let mut deltas = Vec::new();
    let (mut answered, mut all_encodes) = (0, 0);
    let mut runs: Vec<(&Phase, Vec<Outcome>)> = Vec::new();
    let (open, saturation) = phases.split_at(phases.len() - 1);
    for (p, reqs) in open.iter().zip(&phase_reqs) {
        let keep = if p.name == "nominal" {
            sample_mask(p.times.len(), s.check_samples, &mut rng)
        } else {
            vec![false; p.times.len()]
        };
        runs.push((p, client.run(&traffic.raw, &shots(&p.times, reqs), &keep, false)?));
        if p.name == "nominal" {
            rss = sys::peak_rss_mb()?;
        }
    }
    // Saturation starts on a fresh server (one more set-up sample): on
    // embed_cold a store rotation the earlier phases left pending does
    // not land in it, and no workload inherits the ladder's backlog.
    deltas.push(delta(&before, &Counters::take(&server)));
    drop(client);
    all_encodes += server.engine.metrics_snapshot().encodes;
    answered += server.stop()?.totals.requests;
    if !warm {
        let _ = std::fs::remove_dir_all(store_dir(0));
    }
    let (server, mut client, secs) = set_up(wl, s, &store_dir(repeats), &traffic, &warmup)?;
    setups.push(secs);
    let before = Counters::take(&server);
    let saturation = &saturation[0];
    let closed =
        client.saturate(&traffic.raw, &phase_reqs[phases.len() - 1], PIPELINE, saturation.secs)?;
    deltas.push(delta(&before, &Counters::take(&server)));
    drop(client);
    all_encodes += server.engine.metrics_snapshot().encodes;
    let index = (wl.kind == Kind::KnnWarm).then(|| reference_index(&server));
    answered += server.stop()?.totals.requests;
    if !warm {
        let _ = std::fs::remove_dir_all(store_dir(repeats));
    }
    for (_, outs) in &runs {
        count_failures(&mut result, outs);
    }
    result.count(closed.done_ns.len() as u64 + closed.failed, closed.failed);
    let nominal = &runs[0].1;
    check_responses(&traffic, nominal, index.as_ref(), &mut result)?;
    let d = &deltas[0];
    self_checks(wl, s, d, all_encodes, &mut result);

    let lag = lag_p99_ms(nominal);
    let latency = Samples::new(nominal.iter().map(latency_ms).collect());
    let slo_attain = nominal.iter().filter(|o| met_slo(o, s.slo_ms)).count() as f64
        / nominal.len().max(1) as f64;
    let throughput = saturated_throughput(&closed.done_ns);
    let mut max_rps = 0.0f64;
    let mut ladder_notes = Vec::new();
    for (p, outs) in &runs[1..] {
        let pass = step_passes(outs, s.slo_ms);
        if pass {
            max_rps = max_rps.max(p.rate);
        }
        let met =
            outs.iter().filter(|o| met_slo(o, s.slo_ms)).count() as f64 / outs.len().max(1) as f64;
        ladder_notes.push(format!(
            "  ladder {:>6} req/s: {} (n={}, met {:.2}%, p50 {:.3} ms, lag p99 {:.3} ms)",
            p.rate,
            if pass { "pass" } else { "fail" },
            outs.len(),
            met * 100.0,
            Samples::new(outs.iter().map(latency_ms).collect()).median(),
            lag_p99_ms(outs),
        ));
    }
    let setup_s = median(&setups);
    let route = if wl.kind == Kind::KnnWarm { "knn" } else { "embed" };
    let n = &mut result.notes;
    n.push(format!(
        "{}: nominal {} req/s x {} requests; the servers answered {answered} requests",
        wl.name,
        s.nominal_rps,
        nominal.len(),
    ));
    n.push(line(&format!("setup_s (median of {})", setups.len()), setup_s, "s"));
    n.push(line(&format!("p50_ms ({route}_p50_ms)"), latency.median(), "ms"));
    n.push(format!("  {:<34} {}", format!("{route}_p99_ms"), latency.p99_text(1.0, "ms")));
    n.push(line("slo_attain", slo_attain, "ratio"));
    n.push(line("max_rps_under_slo", max_rps, "req/s"));
    n.push(line("throughput_per_s (saturation)", throughput, "req/s"));
    n.push(line("failed_ratio", result.failed as f64 / result.attempted.max(1) as f64, "ratio"));
    n.push(line("peak_rss_mb", rss, "MiB"));
    n.push(line("gen_lag_p99_ms", lag, "ms"));
    n.push(line("cache_hit_ratio", ratio(d.hits, d.lookups), "ratio"));
    n.push(line("tier2_hit_ratio", ratio(d.tier2_hits, d.lookups), "ratio"));
    n.push(line("encodes", deltas.iter().map(|d| d.encodes).sum::<u64>() as f64, "count"));
    n.extend(ladder_notes);
    if lag > MAX_GEN_LAG_P99_MS {
        result.invalid = Some(format!(
            "the generator ran {lag:.3} ms behind schedule at p99 (bound {MAX_GEN_LAG_P99_MS} ms)"
        ));
    }
    result.set_metrics(
        &END_TO_END,
        vec![
            ("setup_s", setup_s),
            ("p50_ms", latency.median()),
            ("slo_attain", slo_attain),
            ("throughput_per_s", throughput),
            ("peak_rss_mb", rss),
        ],
    );
    Ok(result)
}

/// Workload self-checks over the counters `d` of the nominal (or traced)
/// phase: fail a run that stopped being its workload.
fn self_checks(wl: &Workload, s: &Serving, d: &Delta, encodes: u64, result: &mut RunResult) {
    if wl.kind == Kind::EmbedCold {
        if d.hits != 0 {
            result.fail_check(format!(
                "embed_cold hit the LRU {} times; every table must be new",
                d.hits
            ));
        }
    } else if encodes != 0 {
        result.fail_check(format!("{} encoded {encodes} tables; it must encode none", wl.name));
    }
    if let Some((lo, hi)) = s.tier2_band {
        let share = ratio(d.tier2_hits, d.lookups);
        if !(lo..=hi).contains(&share) {
            result.fail_check(format!("tier-2 hit ratio {share:.3} is outside [{lo}, {hi}]"));
        }
    }
}

/// In-place layer statistics of a traced phase. A layer the phase's
/// traffic never reaches reports 0.
fn insitu(
    traffic: &Traffic,
    untraced: &[Outcome],
    traced: &[Outcome],
    d: &Delta,
    accepted: u64,
) -> InSitu {
    let route_mean_us = |knn: bool| {
        let v: Vec<f64> = traced
            .iter()
            .filter(|o| traffic.is_knn[o.req] == knn)
            .map(|o| o.latency_ns as f64 / 1e3)
            .collect();
        (!v.is_empty()).then(|| Samples::new(v).mean())
    };
    let stages: Vec<[u64; 5]> =
        traced.iter().filter(|o| !traffic.is_knn[o.req]).filter_map(|o| o.stages).collect();
    let queue = Samples::new(stages.iter().map(|s| s[0] as f64).collect());
    let mut stage_means_us = [0.0; 5];
    if !stages.is_empty() {
        for (i, m) in stage_means_us.iter_mut().enumerate() {
            *m = Samples::new(stages.iter().map(|s| s[i] as f64).collect()).mean();
        }
    }
    let p50 = |outs: &[Outcome]| Samples::new(outs.iter().map(latency_ms).collect()).median();
    InSitu {
        queue_us_p50: if stages.is_empty() { 0.0 } else { queue.median() },
        queue_us_p99: if stages.is_empty() { 0.0 } else { queue.pct(0.99) },
        batch_wait_us: stage_means_us[1],
        stage_means_us,
        embed_latency_mean_us: route_mean_us(false),
        knn_latency_mean_us: route_mean_us(true),
        gen_lag_p99_ms: lag_p99_ms(traced),
        // One /healthz probe plus the generator's own connections.
        reconnects: accepted.saturating_sub(1 + CONNS as u64) as f64,
        shed: d.shed as f64,
        batch_size_mean: ratio(d.batched_jobs, d.batches),
        cache_hit_ratio: ratio(d.hits, d.lookups),
        tier2_hit_ratio: ratio(d.tier2_hits, d.lookups),
        encodes: d.encodes as f64,
        evictions: d.evictions as f64,
        dedup_ratio: if d.batched_jobs == 0 { 0.0 } else { 1.0 - ratio(d.lookups, d.batched_jobs) },
        store_records: 0.0,
        store_segments: 0.0,
        trace_overhead: p50(traced) / p50(untraced),
    }
}

/// The traced run: an untraced and a traced phase at the nominal rate,
/// in-place statistics of the traced one, the layer replay over the
/// tables and queries it sent, and the core properties over a slice of
/// those tables.
#[allow(clippy::too_many_arguments)]
fn run_traced(
    wl: &Workload,
    s: &Serving,
    server: Running,
    mut client: Client,
    traffic: &Traffic,
    phases: &[Phase],
    phase_reqs: &[Vec<usize>],
    seed: u64,
    scratch: &Path,
    rng: &mut SplitMix64,
) -> Result<RunResult, String> {
    let mut result = RunResult::new();
    let (a, b) = (&phases[0].times, &phases[1].times);
    let untraced =
        client.run(&traffic.raw, &shots(a, &phase_reqs[0]), &vec![false; a.len()], false)?;
    let mid = Counters::take(&server);
    let keep = sample_mask(b.len(), s.check_samples / 3, rng);
    let traced = client.run(&traffic.raw, &shots(b, &phase_reqs[1]), &keep, true)?;
    let after = Counters::take(&server);
    drop(client);
    let d = delta(&mid, &after);
    let mut stats = insitu(traffic, &untraced, &traced, &d, after.totals.accepted);
    if let Some(store) = server.engine.store() {
        let t = store.tier_stats();
        stats.store_records = t.records as f64;
        stats.store_segments = t.segments as f64;
    }
    let warm = wl.kind != Kind::EmbedCold;
    let ann_items = warm.then(|| corpus_items(&server.engine));
    let index = (wl.kind == Kind::KnnWarm).then(|| reference_index(&server));
    server.stop()?;
    count_failures(&mut result, &untraced);
    count_failures(&mut result, &traced);
    check_responses(traffic, &traced, index.as_ref(), &mut result)?;
    self_checks(wl, s, &d, d.encodes, &mut result);
    // The tables the traced requests carried or queried, and the kNN
    // queries themselves, each once.
    let mut embed_bodies = Vec::new();
    let mut knn_bodies = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for o in &traced {
        if !seen.insert(o.req) {
            continue;
        }
        let table = traffic.table[o.req];
        if (table == o.req || seen.insert(table)) && embed_bodies.len() < REPLAY_REQUESTS {
            embed_bodies.push(traffic.bodies[table].clone());
        }
        if traffic.is_knn[o.req] && knn_bodies.len() < REPLAY_REQUESTS {
            knn_bodies.push(traffic.bodies[o.req].clone());
        }
    }
    let layers = replay::run(&embed_bodies, &knn_bodies, ann_items, scratch)?;
    result.count(layers.calls, 0);
    let slice: Vec<Table> = embed_bodies
        .iter()
        .take(4)
        .map(|b| api::parse_embed(b).map(|r| r.table).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let core = characterize::core_slice(&slice, seed, 24)?;
    if !warm {
        let _ = std::fs::remove_dir_all(scratch.join("store0"));
    }
    result.notes.push(format!(
        "{} traced: {} requests at {} req/s, replayed {} tables and {} knn queries",
        wl.name,
        traced.len(),
        s.nominal_rps,
        embed_bodies.len(),
        knn_bodies.len()
    ));
    result.set_metrics(&PER_LAYER, replay::per_layer(&stats, &layers, &core));
    Ok(result)
}

/// The characterize workload's serving pass: tables of the corpus's
/// shape sent once each with bert to a fresh store-less server,
/// untraced for `untraced_secs` and traced for `traced_secs` at `rate`.
pub struct ServingPass {
    pub insitu: InSitu,
    pub embed_bodies: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

/// Run a [`ServingPass`].
pub fn serving_pass(
    wl: &Workload,
    rate: f64,
    seed: u64,
    seconds: f64,
) -> Result<ServingPass, String> {
    let mut rng = SplitMix64::new(seed ^ 0x5e7e);
    let a = gen::poisson(&mut rng, rate, seconds * UNTRACED_SHARE);
    let b = gen::poisson(&mut rng, rate, seconds * TRACED_SHARE);
    let tables = WikiTablesConfig {
        num_tables: a.len() + b.len() + 1,
        min_rows: wl.rows,
        max_rows: wl.rows,
        seed: rng.next_u64(),
    }
    .generate();
    let mut traffic = Traffic::default();
    for (i, t) in tables.iter().enumerate() {
        traffic.push(false, wire::embed_body("bert", &format!("c{i}"), t), None);
    }
    let server = Running::start(observatory_runtime::DEFAULT_CACHE_BYTES, None, false)?;
    let mut client = Client::connect(server.addr, CONNS)?;
    let warm = client.run(&traffic.raw, &[Shot { at_ns: 0, req: 0 }], &[false], false)?;
    let reqs_a: Vec<usize> = (1..=a.len()).collect();
    let reqs_b: Vec<usize> = (a.len() + 1..=a.len() + b.len()).collect();
    let untraced = client.run(&traffic.raw, &shots(&a, &reqs_a), &vec![false; a.len()], false)?;
    let mid = Counters::take(&server);
    let traced = client.run(&traffic.raw, &shots(&b, &reqs_b), &vec![false; b.len()], true)?;
    let after = Counters::take(&server);
    drop(client);
    server.stop()?;
    let d = delta(&mid, &after);
    let outs = || warm.iter().chain(&untraced).chain(&traced);
    Ok(ServingPass {
        insitu: insitu(&traffic, &untraced, &traced, &d, after.totals.accepted),
        embed_bodies: reqs_b
            .iter()
            .take(REPLAY_REQUESTS)
            .map(|&i| traffic.bodies[i].clone())
            .collect(),
        attempted: outs().count() as u64,
        failed: outs().filter(|o| o.status != 200).count() as u64,
    })
}
