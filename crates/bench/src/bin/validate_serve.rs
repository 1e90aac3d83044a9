//! `validate_serve` — CI gate for the embedding service.
//!
//! ```text
//! validate_serve <host:port>
//! ```
//!
//! Runs a pure-Rust conformance pass against a live `observatory serve`
//! process (no curl/jq in the loop — responses are parsed with the
//! workspace's own JSON parser and Prometheus validator):
//!
//! 1. `GET /healthz` answers 200 with `status: "ok"` (polled, so the
//!    harness can start the server as a sibling process);
//! 2. `POST /v1/embed` round-trips a small table: 200, echoed `id`,
//!    correct `count`, non-empty finite vectors, and a repeat request is
//!    bit-identical (the engine cache and the encode path are
//!    deterministic end to end) and answered as a cache hit at admission:
//!    its `x-stage-us` reads `queue=0;batch_wait=0;encode=0;...`;
//! 3. `POST /v1/knn` ranks an obvious nearest neighbour first;
//! 4. malformed JSON answers 400, an unknown model answers 400, an
//!    unknown route answers 404 — errors are *answered*, never dropped;
//! 5. `GET /metrics` parses as a valid Prometheus exposition carrying
//!    both the engine families and the server families (including the
//!    connection gauges/counters);
//! 6. keep-alive conformance: a `Connection: keep-alive` client rides
//!    one TCP connection across many requests, pipelined requests come
//!    back in order, a request without the keep-alive token is answered
//!    `Connection: close` and the socket actually closes, and an
//!    HTTP/1.0 request defaults to close. A pipelined burst of cache
//!    hits whose responses total more than the reactor's 1 MiB
//!    backpressure bound is answered in full, with no 408;
//! 7. smuggling-shaped framing — a repeated or signed `Content-Length`,
//!    whitespace before a header colon, an obs-fold line, a bare LF —
//!    is answered with exactly one 400 and `Connection: close`, and the
//!    socket closes; the request hidden behind it is never answered.
//!
//! Exit code 0 on success; 1 with a diagnostic on the first failure.

use observatory_bench::httpc;
use observatory_obs::json::{parse, Json};
use std::net::SocketAddr;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(addr_raw) = args.first() else {
        eprintln!("usage: validate_serve <host:port>");
        std::process::exit(2);
    };
    let addr = match httpc::resolve(addr_raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("validate_serve: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(addr) {
        eprintln!("validate_serve: {e}");
        std::process::exit(1);
    }
    println!("validate_serve: ok");
}

const EMBED: &str = r#"{"model":"bert","level":"column","id":"smoke-1",
  "table":{"name":"smoke","columns":[
    {"header":"id","values":[1,2,3]},
    {"header":"name","values":["alpha","beta","gamma"]}]}}"#;

fn run(addr: SocketAddr) -> Result<(), String> {
    // 1. Liveness.
    let health = httpc::await_healthy(addr, Duration::from_secs(30))?;
    let h = parse(&health.body).map_err(|e| format!("healthz body invalid: {e}"))?;
    if h.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("healthz status not ok: {}", health.body));
    }
    println!("healthz: ok ({})", health.body.trim());

    // 2. Embed round trip + determinism.
    let first = embed_ok(addr)?;
    let second = embed_ok(addr)?;
    if first.body != second.body {
        return Err("repeated /v1/embed responses differ byte-for-byte".into());
    }
    // The repeat is a cache hit: answered at admission, never queued.
    let stages = second.header("x-stage-us").unwrap_or("");
    if !stages.starts_with("queue=0;batch_wait=0;encode=0;") {
        return Err(format!("repeated /v1/embed was not a fast-path hit: x-stage-us {stages:?}"));
    }
    println!("embed: ok (deterministic, {} bytes; repeat {stages})", first.body.len());

    // 3. kNN sanity.
    let knn = httpc::post(
        addr,
        "/v1/knn",
        r#"{"k":1,"items":[{"key":"x","vector":[1,0]},{"key":"y","vector":[0,1]}],"queries":[[0.95,0.05]]}"#,
        TIMEOUT,
    )?;
    if knn.status != 200 {
        return Err(format!("knn answered {}: {}", knn.status, knn.body));
    }
    let v = parse(&knn.body).map_err(|e| format!("knn body invalid: {e}"))?;
    let top = v
        .get("results")
        .and_then(Json::as_array)
        .and_then(|r| r.first())
        .and_then(Json::as_array)
        .and_then(|hits| hits.first())
        .and_then(|hit| hit.get("key"))
        .and_then(Json::as_str);
    if top != Some("x") {
        return Err(format!("knn ranked {top:?} first, expected 'x': {}", knn.body));
    }
    println!("knn: ok");

    // 4. Error paths are answered.
    for (path, body, want) in [
        ("/v1/embed", "{broken", 400u16),
        (
            "/v1/embed",
            r#"{"model":"no-such-model","table":{"columns":[{"header":"c","values":[1]}]}}"#,
            400,
        ),
        ("/v1/nope", "{}", 404),
    ] {
        let r = httpc::post(addr, path, body, TIMEOUT)?;
        if r.status != want {
            return Err(format!("POST {path} answered {} (wanted {want}): {}", r.status, r.body));
        }
    }
    println!("error paths: ok (400/400/404)");
    hostile_framing(addr)?;

    // 5. Metrics exposition.
    let metrics = httpc::get(addr, "/metrics", TIMEOUT)?;
    if metrics.status != 200 {
        return Err(format!("metrics answered {}", metrics.status));
    }
    let summary = observatory_obs::prom::validate(&metrics.body)
        .map_err(|e| format!("/metrics exposition invalid: {e}"))?;
    for family in [
        "observatory_run_info",
        "observatory_encodes_total",
        "observatory_cache_lookups_total",
        "observatory_server_requests_total",
        "observatory_server_queue_depth",
        "observatory_server_shed_total",
        "observatory_server_batches_total",
        "observatory_server_request_latency_seconds_bucket",
    ] {
        if !summary.has(family) {
            return Err(format!("/metrics missing family {family}"));
        }
    }
    for family in ["observatory_server_connections", "observatory_server_accepted_total"] {
        if !summary.has(family) {
            return Err(format!("/metrics missing connection family {family}"));
        }
    }
    println!("metrics: ok ({} families, {} samples)", summary.metrics.len(), summary.samples);

    // 6. Keep-alive, pipelining, and Connection-header conformance.
    keep_alive_conformance(addr)?;
    Ok(())
}

/// Over-the-wire checks for the HTTP/1.1 connection-management rules
/// both net modes must follow (the thread path answers every request
/// with `Connection: close`; the epoll path honours keep-alive — either
/// way the advertised header must match what the socket does).
fn keep_alive_conformance(addr: SocketAddr) -> Result<(), String> {
    // A keep-alive client: every response must echo its connection
    // decision, and when it says keep-alive the next request must reuse
    // the socket (Client counts reuse vs reconnect).
    let mut client = httpc::Client::new(addr, TIMEOUT);
    let mut kept = 0u32;
    for i in 0..5 {
        let r = client.get("/healthz")?;
        if r.status != 200 {
            return Err(format!("keep-alive healthz #{i} answered {}", r.status));
        }
        match r.header("connection") {
            Some("keep-alive") => kept += 1,
            Some("close") => {}
            other => return Err(format!("healthz #{i} connection header: {other:?}")),
        }
    }
    if kept > 0 && client.reused < u64::from(kept.saturating_sub(1)) {
        return Err(format!(
            "server advertised keep-alive {kept} times but only {} requests reused the \
             connection ({} reconnects)",
            client.reused, client.reconnects
        ));
    }
    println!(
        "keep-alive: ok ({kept}/5 kept, {} reused, {} reconnects)",
        client.reused, client.reconnects
    );

    // Pipelined embeds on one socket must come back in request order
    // (each response echoes the id its request carried). Only expected
    // when the server advertises keep-alive — the thread path closes
    // after every response, so there is no socket to pipeline on.
    if kept == 0 {
        client.close();
        println!("pipelining: skipped (server closes after every response)");
        expect_close_checks(addr)?;
        return Ok(());
    }
    let bodies: Vec<String> = (0..4)
        .map(|i| {
            format!(
                r#"{{"model":"bert","level":"table","id":"pipe-{i}","table":{{"name":"p{i}","columns":[{{"header":"c","values":[{i},{}]}}]}}}}"#,
                i + 1
            )
        })
        .collect();
    let refs: Vec<&str> = bodies.iter().map(String::as_str).collect();
    let responses = client.post_pipelined("/v1/embed", &refs)?;
    if responses.len() != refs.len() {
        return Err(format!("pipelined: {} responses to {} requests", responses.len(), refs.len()));
    }
    for (i, r) in responses.iter().enumerate() {
        if r.status != 200 {
            return Err(format!("pipelined #{i} answered {}: {}", r.status, r.body));
        }
        let v = parse(&r.body).map_err(|e| format!("pipelined #{i} body invalid: {e}"))?;
        let id = v.get("id").and_then(Json::as_str);
        if id != Some(format!("pipe-{i}").as_str()) {
            return Err(format!("pipelined response #{i} carries id {id:?} (out of order?)"));
        }
    }
    println!("pipelining: ok ({} in-order responses)", responses.len());
    pipelined_hit_burst(&mut client)?;
    client.close();
    expect_close_checks(addr)?;
    Ok(())
}

/// Several MiB of synchronous responses (repeated cache hits on a
/// 64-cell table, one vector per cell) from a few KB of pipelined
/// requests, read only after a pause: every request is already in the
/// server's parser when the unread backlog crosses the reactor's 1 MiB
/// backpressure bound, so nothing on the socket will wake it — it must
/// resume from its own buffer once the backlog flushes.
fn pipelined_hit_burst(client: &mut httpc::Client) -> Result<(), String> {
    const BURST_BYTES: usize = 8 << 20;
    let cells: Vec<String> = (0..64).map(|i| i.to_string()).collect();
    let body = format!(
        r#"{{"model":"bert","level":"cell","table":{{"name":"burst","columns":[{{"header":"n","values":[{}]}}]}}}}"#,
        cells.join(",")
    );
    let one = client.post("/v1/embed", &body)?;
    if one.status != 200 {
        return Err(format!("burst probe answered {}: {}", one.status, one.body));
    }
    let n = BURST_BYTES / one.body.len().max(1) + 1;
    // A fresh socket: reading the probe grew this one's receive buffer,
    // which would absorb more of the backlog in the kernel.
    client.close();
    let responses = client.post_pipelined_paused(
        "/v1/embed",
        &vec![body.as_str(); n],
        Duration::from_millis(300),
    )?;
    let mut bytes = 0;
    for (i, r) in responses.iter().enumerate() {
        if r.status != 200 || r.body != one.body {
            return Err(format!("burst response #{i} of {n} answered {}: {}", r.status, r.body));
        }
        bytes += r.body.len();
    }
    if responses.len() != n || bytes <= 1 << 20 {
        return Err(format!("burst: {} responses, {bytes} bytes to {n} requests", responses.len()));
    }
    println!("pipelined burst: ok ({n} hits, {bytes} bytes, no 408)");
    Ok(())
}

/// Both net modes: a request without the keep-alive token (or HTTP/1.0)
/// must be answered `Connection: close` and the socket must close.
fn expect_close_checks(addr: SocketAddr) -> Result<(), String> {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(TIMEOUT)).map_err(|e| e.to_string())?;
    s.write_all(b"GET /healthz HTTP/1.1\r\nHost: v\r\n\r\n").map_err(|e| e.to_string())?;
    let mut raw = String::new();
    s.read_to_string(&mut raw).map_err(|e| format!("socket left open after close: {e}"))?;
    expect_close_header(&raw, "200", "HTTP/1.1 without keep-alive")?;

    // HTTP/1.0 defaults to close even when nothing is specified.
    let mut s = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(TIMEOUT)).map_err(|e| e.to_string())?;
    s.write_all(b"GET /healthz HTTP/1.0\r\nHost: v\r\n\r\n").map_err(|e| e.to_string())?;
    let mut raw = String::new();
    s.read_to_string(&mut raw).map_err(|e| format!("socket left open after close: {e}"))?;
    expect_close_header(&raw, "200", "HTTP/1.0")?;
    println!("connection header: ok (close honoured on 1.1-no-token and 1.0)");
    Ok(())
}

/// Both net modes: header framing that two HTTP parsers could read two
/// ways (RFC 9112 §5.1, §6.3) gets one 400 and a close. Each probe is a
/// keep-alive `GET /healthz` (a lenient parser answers it 200) followed
/// by a second request that must never be answered.
fn hostile_framing(addr: SocketAddr) -> Result<(), String> {
    use std::io::{Read, Write};
    const HIDDEN: &str = "GET /healthz HTTP/1.1\r\nHost: v\r\n\r\n";
    let n = HIDDEN.len();
    let cases = [
        ("repeated content-length", format!("Content-Length: 0\r\nContent-Length: {n}")),
        ("signed content-length", format!("Content-Length: +{n}")),
        ("space before colon", format!("Content-Length : {n}")),
        ("obs-fold", " x-folded: 1".to_string()),
        ("bare LF", format!("X-A: a\nContent-Length: {n}")),
    ];
    for (what, bad) in cases {
        let mut s = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(TIMEOUT)).map_err(|e| e.to_string())?;
        let head = "GET /healthz HTTP/1.1\r\nHost: v\r\nConnection: keep-alive";
        s.write_all(format!("{head}\r\n{bad}\r\n\r\n{HIDDEN}").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut raw = String::new();
        s.read_to_string(&mut raw).map_err(|e| format!("{what}: socket left open: {e}"))?;
        expect_close_header(&raw, "400", what)?;
        if raw.matches("HTTP/1.1 ").count() != 1 {
            return Err(format!("{what}: the hidden request was answered: {raw:?}"));
        }
    }
    println!("hostile framing: ok (5 shapes answered 400 and closed)");
    Ok(())
}

fn expect_close_header(raw: &str, status: &str, what: &str) -> Result<(), String> {
    if !raw.starts_with(&format!("HTTP/1.1 {status}")) {
        let line = raw.lines().next().unwrap_or("");
        return Err(format!("{what}: status line {line:?}"));
    }
    let head = raw.split("\r\n\r\n").next().unwrap_or("");
    let conn = head.lines().skip(1).find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.trim().eq_ignore_ascii_case("connection").then(|| v.trim().to_string())
    });
    if conn.as_deref() != Some("close") {
        return Err(format!("{what}: connection header {conn:?}, wanted close"));
    }
    Ok(())
}

/// POST the fixed embed request; verify the schema; return the response.
fn embed_ok(addr: SocketAddr) -> Result<httpc::Response, String> {
    let r = httpc::post(addr, "/v1/embed", EMBED, TIMEOUT)?;
    if r.status != 200 {
        return Err(format!("embed answered {}: {}", r.status, r.body));
    }
    let v = parse(&r.body).map_err(|e| format!("embed body invalid: {e}"))?;
    if v.get("id").and_then(Json::as_str) != Some("smoke-1") {
        return Err(format!("embed did not echo the id: {}", r.body));
    }
    if v.get("count").and_then(Json::as_f64) != Some(2.0) {
        return Err(format!("embed count != 2: {}", r.body));
    }
    let embeddings = v
        .get("embeddings")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("embed has no embeddings array: {}", r.body))?;
    if embeddings.len() != 2 {
        return Err(format!("expected 2 column vectors, got {}", embeddings.len()));
    }
    for (i, vec) in embeddings.iter().enumerate() {
        let arr = vec
            .as_array()
            .ok_or_else(|| format!("embeddings[{i}] is not an array (null readout?)"))?;
        if arr.is_empty() {
            return Err(format!("embeddings[{i}] is empty"));
        }
        for x in arr {
            let f = x.as_f64().ok_or_else(|| format!("embeddings[{i}] holds a non-number"))?;
            if !f.is_finite() {
                return Err(format!("embeddings[{i}] holds a non-finite value"));
            }
        }
    }
    Ok(r)
}
