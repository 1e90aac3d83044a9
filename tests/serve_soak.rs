//! Soak and lifecycle tests for the embedding service.
//!
//! The soak test is the PR's correctness gate for the concurrent serving
//! path: 32 client threads × 50 requests against a live server on an
//! ephemeral port, with every response checked three ways —
//!
//! 1. **no losses**: every request is answered 200;
//! 2. **no cross-wiring**: the echoed `id` matches the request that
//!    carried it (a batcher that zips replies to the wrong jobs would
//!    fail here immediately);
//! 3. **bit-identical batching**: each response body equals, byte for
//!    byte, the body rendered from a serial uncached reference encode of
//!    the same table — dynamic micro-batching must be invisible in the
//!    numbers at any batch size.
//!
//! The lifecycle tests drive the installed binary: SIGTERM must drain
//! and exit 0 (satellite: graceful shutdown), and `--jobs` must be
//! honored by `characterize` regardless of flag position (satellite:
//! engine init before first encode).

use observatory::models::registry::model_by_name;
use observatory::runtime::{Engine, EngineConfig};
use observatory::serve::{api, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 32;
const REQUESTS_PER_CLIENT: usize = 50;
const DISTINCT_TABLES: usize = 64;

fn embed_body(id: &str, tag: usize) -> String {
    format!(
        r#"{{"model":"bert","level":"column","id":"{id}",
            "table":{{"name":"soak{tag}","columns":[
              {{"header":"id","values":[{},{},{}]}},
              {{"header":"name","values":["a-{tag}","b-{tag}","c-{tag}"]}},
              {{"header":"score","values":[{}.5,null,{}.25]}}]}}}}"#,
        tag,
        tag + 1,
        tag + 2,
        tag % 10,
        (tag + 3) % 10,
    )
}

/// One request over a fresh connection; returns (status, head, body).
/// The head keeps the raw response headers so tests can assert on
/// `x-request-id` / `x-stage-us` without a second client path.
fn post_embed_full(addr: SocketAddr, extra_headers: &str, body: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let raw = format!(
        "POST /v1/embed HTTP/1.1\r\nHost: t\r\n{extra_headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(raw.as_bytes()).unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    let status: u16 =
        buf.split_whitespace().nth(1).and_then(|x| x.parse().ok()).expect("status line");
    let (head, resp_body) = buf.split_once("\r\n\r\n").expect("header/body split");
    (status, head.to_string(), resp_body.to_string())
}

/// One request over a fresh connection; returns (status, body).
fn post_embed(addr: SocketAddr, body: &str) -> (u16, String) {
    let (status, _, body) = post_embed_full(addr, "", body);
    (status, body)
}

/// Value of a (lowercase) header in a raw response head, if present.
fn header_of(head: &str, name: &str) -> Option<String> {
    head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim().eq_ignore_ascii_case(name)).then(|| v.trim().to_string())
    })
}

#[test]
fn soak_32_clients_no_losses_no_crosswiring_bit_identical() {
    // Deep queue: this test is about correctness under concurrency, not
    // shedding, so nothing should be turned away.
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_batch: 8,
        batch_delay: Duration::from_micros(500),
        queue_depth: CLIENTS * REQUESTS_PER_CLIENT,
        deadline: Duration::from_secs(120),
        handle_signals: false,
        ..ServeConfig::default()
    };
    let engine = Arc::new(Engine::new(EngineConfig { jobs: 4, cache_bytes: 1 << 24 }));
    let server = Server::bind(config, Arc::clone(&engine)).expect("bind ephemeral");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    // Serial uncached reference: the expected response body for each of
    // the DISTINCT_TABLES payloads, rendered through the same code path
    // the server uses — any numeric drift from batching shows up as a
    // byte diff.
    let reference = Arc::new(Engine::new(EngineConfig::serial_uncached()));
    let model = model_by_name("bert").unwrap();
    let expected: Arc<Vec<String>> = Arc::new(
        (0..DISTINCT_TABLES)
            .map(|tag| {
                // The id is request-specific; render with a placeholder and
                // substitute per request below.
                let req = api::parse_embed(&embed_body("__ID__", tag)).unwrap();
                let enc = reference.encode_table(model.as_ref(), &req.table);
                api::render_embed_response(&req, &enc)
            })
            .collect(),
    );

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                for i in 0..REQUESTS_PER_CLIENT {
                    let tag = (c * REQUESTS_PER_CLIENT + i) % DISTINCT_TABLES;
                    let id = format!("c{c}-r{i}");
                    let (status, body) = post_embed(addr, &embed_body(&id, tag));
                    assert_eq!(status, 200, "client {c} request {i}: {body}");
                    let want = expected[tag].replace("__ID__", &id);
                    assert_eq!(
                        body, want,
                        "client {c} request {i} (table {tag}): batched response \
                         diverged from the serial reference or was cross-wired"
                    );
                }
            })
        })
        .collect();
    for (c, t) in clients.into_iter().enumerate() {
        t.join().unwrap_or_else(|_| panic!("client {c} panicked"));
    }

    handle.shutdown();
    let stats = server_thread.join().expect("server drains");
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    assert_eq!(stats.totals.requests, total, "every request answered exactly once");
    assert_eq!(stats.totals.shed, 0, "deep queue must not shed");
    assert_eq!(stats.totals.expired, 0);
    assert_eq!(stats.totals.panics, 0);
    // Cache hits are answered at admission and never reach the batcher;
    // every miss rides exactly one batch.
    let m = engine.metrics_snapshot();
    assert_eq!(m.cache_hits + m.cache_misses, total, "one cache lookup per request");
    assert_eq!(stats.totals.batched_jobs, m.cache_misses, "every miss carried by some batch");
    assert!(
        stats.totals.max_batch >= 2,
        "32 concurrent clients must produce at least one multi-request batch \
         (max seen: {})",
        stats.totals.max_batch
    );
}

#[test]
fn request_ids_and_stage_timings_round_trip_end_to_end() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_batch: 4,
        batch_delay: Duration::from_micros(500),
        queue_depth: 64,
        deadline: Duration::from_secs(120),
        handle_signals: false,
        ..ServeConfig::default()
    };
    let engine = Arc::new(Engine::new(EngineConfig { jobs: 2, cache_bytes: 1 << 24 }));
    let server = Server::bind(config, engine).expect("bind ephemeral");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    // A client-supplied x-request-id is echoed verbatim, and the stage
    // breakdown carries all five tiers with parseable values. The first
    // encode is cold, so the encode stage must have real time in it.
    let (status, head, body) =
        post_embed_full(addr, "x-request-id: soak-trace-1\r\n", &embed_body("e2e-1", 1));
    assert_eq!(status, 200, "{body}");
    assert_eq!(header_of(&head, "x-request-id").as_deref(), Some("soak-trace-1"));
    let stages = header_of(&head, "x-stage-us").expect("x-stage-us header on 200");
    let mut parsed = std::collections::BTreeMap::new();
    for part in stages.split(';') {
        let (k, v) = part.split_once('=').unwrap_or_else(|| panic!("bad stage '{part}'"));
        parsed.insert(k.to_string(), v.parse::<u64>().unwrap_or_else(|_| panic!("{stages}")));
    }
    for key in ["queue", "batch_wait", "encode", "store", "write"] {
        assert!(parsed.contains_key(key), "missing stage '{key}' in '{stages}'");
    }
    assert!(parsed["encode"] > 0, "cold encode must take measurable time: {stages}");

    // Requests without an id get distinct generated ones.
    let (_, head_a, _) = post_embed_full(addr, "", &embed_body("e2e-2", 2));
    let (_, head_b, _) = post_embed_full(addr, "", &embed_body("e2e-3", 3));
    let id_a = header_of(&head_a, "x-request-id").expect("generated id");
    let id_b = header_of(&head_b, "x-request-id").expect("generated id");
    assert!(id_a.starts_with("obs-"), "{id_a}");
    assert_ne!(id_a, id_b, "generated request ids must be distinct");

    // Malformed ids are rejected before admission.
    let (status, head_bad, _) =
        post_embed_full(addr, "x-request-id: not a valid id!\r\n", &embed_body("e2e-4", 4));
    assert_eq!(status, 400, "malformed x-request-id must be rejected");
    assert!(header_of(&head_bad, "x-stage-us").is_none(), "no stage timings on a 400");

    handle.shutdown();
    let stats = server_thread.join().expect("server drains");
    // The drain snapshot aggregates the same stages for the CLI report.
    for (name, h) in &stats.totals.stages {
        assert!(h.count >= 3, "stage '{name}' must have one sample per embed, got {}", h.count);
    }
}

// ---------------------------------------------------------------------
// Binary lifecycle tests (unix: signals + process spawning).
// ---------------------------------------------------------------------

#[cfg(unix)]
mod binary {
    use std::io::{BufRead, BufReader};
    use std::process::{Child, Command, Stdio};
    use std::time::{Duration, Instant};

    fn spawn_serve(extra: &[&str]) -> (Child, String) {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_observatory"));
        cmd.arg("serve").args(["--addr", "127.0.0.1:0"]).args(extra);
        cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
        let mut child = cmd.spawn().expect("spawn serve");
        // The first stdout line announces the resolved ephemeral address.
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read banner");
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in banner: {line:?}"))
            .to_string();
        // Keep draining stdout in the background so the child never
        // blocks on a full pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            let _ = std::io::Read::read_to_string(&mut reader.into_inner(), &mut sink);
        });
        (child, addr)
    }

    fn get(addr: &str, path: &str) -> (u16, String) {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        s.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes()).unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        let status = buf.split_whitespace().nth(1).and_then(|x| x.parse().ok()).unwrap_or(0);
        (status, buf)
    }

    #[test]
    fn sigterm_drains_and_exits_zero() {
        let (mut child, addr) = spawn_serve(&[]);
        assert_eq!(get(&addr, "/healthz").0, 200);
        // SIGTERM → graceful drain → exit code 0.
        let kill = Command::new("kill")
            .args(["-TERM", &child.id().to_string()])
            .status()
            .expect("kill runs");
        assert!(kill.success());
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(s) = child.try_wait().expect("try_wait") {
                break s;
            }
            assert!(Instant::now() < deadline, "server did not exit within 30s of SIGTERM");
            std::thread::sleep(Duration::from_millis(50));
        };
        assert_eq!(status.code(), Some(0), "graceful shutdown must exit 0");
    }

    #[test]
    fn jobs_flag_is_honored_regardless_of_position() {
        // Regression (engine-init ordering): --jobs used to be applied
        // after the corpus load; any future code path that touches the
        // engine earlier would silently ignore it. The note on stderr is
        // the tell.
        for args in [
            ["characterize", "--property", "P1", "--permutations", "2", "--jobs", "3"],
            ["characterize", "--jobs", "3", "--property", "P1", "--permutations", "2"],
        ] {
            let out = Command::new(env!("CARGO_BIN_EXE_observatory"))
                .args(args)
                .output()
                .expect("characterize runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "characterize failed:\n{stdout}\n{stderr}");
            assert!(
                !stderr.contains("--jobs ignored"),
                "--jobs must be applied before the engine first runs:\n{stderr}"
            );
            assert!(
                stdout.contains("-- runtime (3 jobs) --"),
                "runtime footer must report the requested worker count:\n{stdout}"
            );
        }
    }
}
