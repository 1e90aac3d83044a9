//! `observatory` — command-line interface to the characterization
//! framework.
//!
//! ```text
//! observatory models                          list the model zoo (Table 1)
//! observatory properties                      list properties + scope (Table 2)
//! observatory characterize --property P1 --model bert [--csv t.csv]...
//! observatory mine-fds --csv table.csv [--max-error 0.05]
//! observatory serve --addr 127.0.0.1:7700 --max-batch 16
//! ```
//!
//! With no `--csv`, `characterize` runs on the built-in WikiTables-like
//! demo corpus. Argument parsing is deliberately hand-rolled — the
//! workspace keeps a zero-dependency runtime.

use observatory::core::framework::{EvalContext, Property};
use observatory::core::props::col_order::ColumnOrderInsignificance;
use observatory::core::props::fd::FunctionalDependencies;
use observatory::core::props::hetero_context::HeterogeneousContext;
use observatory::core::props::perturbation::PerturbationRobustness;
use observatory::core::props::row_order::RowOrderInsignificance;
use observatory::core::props::sample_fidelity::SampleFidelity;
use observatory::core::report::{render_report, render_table};
use observatory::core::scope;
use observatory::data::wikitables::WikiTablesConfig;
use observatory::fd::approx::discover_approximate_unary_fds;
use observatory::models::registry::{model_by_name, specs, MODEL_NAMES};
use observatory::obs;
use observatory::runtime::{EmbeddingStore as _, EngineConfig};
use observatory::table::csv::parse_csv;
use observatory::table::Table;

fn main() {
    obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("models") => cmd_models(),
        Some("properties") => cmd_properties(),
        Some("characterize") => cmd_characterize(&args[1..]),
        Some("mine-fds") => cmd_mine_fds(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            0
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n");
            print_usage();
            2
        }
    };
    std::process::exit(code);
}

fn print_usage() {
    println!("observatory — characterize embeddings of relational tables\n");
    println!("USAGE:");
    println!("  observatory models");
    println!("  observatory properties");
    println!("  observatory characterize --property <P1..P8> [--model <name>]");
    println!("                           [--csv <file>]... [--seed <n>] [--permutations <n>]");
    println!("                           [--jobs <n>]       encode worker threads (also OBSERVATORY_JOBS)");
    println!("                           [--store-dir <dir>] persistent embedding store (reuses prior encodes)");
    println!("                           [--export <dir>]   write raw distributions as CSV");
    println!(
        "                           [--trace-out <file>]   Chrome trace-event JSON of the run"
    );
    println!(
        "                           [--metrics-out <file>] Prometheus text exposition of the run"
    );
    println!("  observatory mine-fds --csv <file> [--max-error <fraction>]");
    println!("  observatory serve [--addr <host:port>]    resident embedding service (HTTP/1.1)");
    println!("                    [--jobs <n>] [--max-batch <n>] [--batch-delay-us <n>]");
    println!("                    [--queue-depth <n>] [--deadline-ms <n>]");
    println!("                    [--net thread|epoll]  connection handling (default: epoll on");
    println!("                                          Linux — keep-alive + pipelining; thread");
    println!("                                          elsewhere)");
    println!(
        "                    [--net-shards <n>]   reactor event loops (default 0 = one per core)"
    );
    println!("                    [--max-jobs <n>]     analysis job queue bound (default 16)");
    println!(
        "                    [--job-deadline-ms <n>] default analysis deadline (default 300000)"
    );
    println!("                    [--store-dir <dir>]  persistent embedding store (warm restarts)");
    println!("                    [--ann-warm]         build the corpus ANN index from the store");
    println!(
        "                    [--ann-shards <n>]   HNSW shards for the corpus index (default 4)"
    );
    println!("                    [--trace-out <file>] [--metrics-out <file>]");
    println!("                    [--slow-ms <n>]      slow-request log threshold (default 1000)");
    println!("                    [--profile-out <file>] enable the span profiler; write folded");
    println!("                                           stacks here on drain");
    println!(
        "                    [--profile-interval-ms <n>] profiler sampling period (default 10)"
    );
    println!();
    println!("Without --csv, characterize uses a built-in demo corpus. See DESIGN.md");
    println!("for the full experiment harness (cargo run -p observatory-bench --bin ...).");
    println!();
    println!("OBSERVATORY_LOG=off|error|info|debug|trace controls span collection (default off;");
    println!("--trace-out raises it to at least debug so the trace is populated).");
    println!("OBSERVATORY_FLIGHT_DIR=<dir> makes the flight recorder dump a Chrome-trace JSON");
    println!("there on anomalies (shed / deadline / panic / quarantine).");
}

/// Extract every value of a repeatable `--flag value` option.
fn opt_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    args.windows(2).filter(|w| w[0] == flag).map(|w| w[1].as_str()).collect()
}

fn opt_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    opt_values(args, flag).into_iter().next()
}

/// Parse a numeric `--flag value`. A *malformed* value is a hard usage
/// error (the caller exits 2) — it must never be silently replaced by the
/// default, which would run the wrong experiment while looking correct.
fn parse_opt<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match opt_value(args, flag) {
        None => Ok(default),
        Some(raw) => raw.parse::<T>().map_err(|_| format!("invalid value '{raw}' for {flag}")),
    }
}

/// Apply `--jobs` to the global engine. Must run before *any* code path
/// that encodes (or otherwise initializes the engine) — `configure_global`
/// is first-wins, so a late call would be silently ignored. Returns the
/// process exit code on a usage error.
fn init_engine_from_flags(args: &[String]) -> Result<(), i32> {
    match opt_value(args, "--jobs") {
        None => Ok(()), // engine defaults: OBSERVATORY_JOBS, else available cores
        Some(raw) => match raw.parse::<usize>() {
            Ok(jobs) if jobs >= 1 => {
                let config = EngineConfig { jobs, ..EngineConfig::from_env() };
                if !observatory::runtime::configure_global(config) {
                    eprintln!("note: engine already initialized; --jobs ignored");
                }
                Ok(())
            }
            _ => {
                eprintln!("invalid value '{raw}' for --jobs (expected an integer >= 1)");
                Err(2)
            }
        },
    }
}

/// Validate `--store-dir` without side effects. A trailing `--store-dir`
/// with no value is a usage error — silently running without persistence
/// would look correct while quietly re-encoding everything.
fn store_dir_from_flags(args: &[String]) -> Result<Option<&str>, i32> {
    match opt_value(args, "--store-dir") {
        Some(dir) => Ok(Some(dir)),
        None if args.last().is_some_and(|a| a == "--store-dir") => {
            eprintln!("--store-dir requires a directory argument");
            Err(2)
        }
        None => Ok(None),
    }
}

/// Open the persistent tier-2 store and attach it to the global engine.
/// Must run after `init_engine_from_flags` (the engine is first-wins) and
/// before the first encode, or warm-start reads would be missed.
fn attach_store(dir: &str) -> Result<(), i32> {
    let engine = observatory::runtime::global();
    match observatory::store::open_and_attach(std::path::Path::new(dir), &engine) {
        Ok(store) => {
            let t = store.tier_stats();
            println!(
                "store: {dir} ({} records, {} segments, generation {})",
                t.records, t.segments, t.generation
            );
            Ok(())
        }
        Err(e) => {
            eprintln!("cannot open store at {dir}: {e}");
            Err(1)
        }
    }
}

fn cmd_models() -> i32 {
    let rows: Vec<Vec<String>> = specs()
        .into_iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                s.display.to_string(),
                s.input.to_string(),
                s.output_embedding.to_string(),
            ]
        })
        .collect();
    print!("{}", render_table(&["name", "display", "input", "output embedding"], &rows));
    0
}

fn cmd_properties() -> i32 {
    let names = [
        ("P1", "Row order insignificance"),
        ("P2", "Column order insignificance"),
        ("P3", "Join relationship"),
        ("P4", "Functional dependencies"),
        ("P5", "Sample fidelity"),
        ("P6", "Entity stability (pairwise API)"),
        ("P7", "Perturbation robustness"),
        ("P8", "Heterogeneous context"),
    ];
    let rows: Vec<Vec<String>> = names
        .iter()
        .map(|(id, name)| {
            vec![
                id.to_string(),
                name.to_string(),
                scope::dataset_for(id).to_string(),
                scope::models_in_scope(id).join(", "),
            ]
        })
        .collect();
    print!("{}", render_table(&["id", "property", "dataset", "models in scope"], &rows));
    0
}

fn load_corpus(args: &[String]) -> Result<Vec<Table>, String> {
    let files = opt_values(args, "--csv");
    if files.is_empty() {
        let seed = parse_opt(args, "--seed", 42u64)?;
        return Ok(WikiTablesConfig { num_tables: 4, min_rows: 5, max_rows: 8, seed }.generate());
    }
    files
        .into_iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            parse_csv(path, &text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

fn cmd_characterize(args: &[String]) -> i32 {
    let property_id = match opt_value(args, "--property") {
        Some(p) => p.to_uppercase(),
        None => {
            eprintln!("characterize requires --property <P1|P2|P4|P5|P7|P8>");
            return 2;
        }
    };
    let model_name = opt_value(args, "--model").unwrap_or("bert");
    let Some(model) = model_by_name(model_name) else {
        eprintln!("unknown model '{model_name}'; valid: {}", MODEL_NAMES.join(", "));
        return 2;
    };
    if !scope::in_scope(&property_id, model_name) {
        eprintln!(
            "note: {model_name} is outside the paper's Table 2 scope for {property_id}; running anyway"
        );
    }
    // Usage errors (malformed flag values) are checked before any I/O so
    // they always exit 2; unreadable corpus files exit 1 below.
    let (perms, seed) = match (|| {
        Ok::<_, String>((
            parse_opt(args, "--permutations", 24usize)?,
            parse_opt(args, "--seed", 42u64)?,
        ))
    })() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let store_dir = match store_dir_from_flags(args) {
        Ok(d) => d,
        Err(code) => return code,
    };
    // Engine init comes BEFORE anything that could touch the global
    // engine (corpus load, EvalContext construction): configuring after
    // first use would silently ignore --jobs (see configure_global).
    if let Err(code) = init_engine_from_flags(args) {
        return code;
    }
    // The store attaches right after: every encode below must see tier 2.
    if let Some(dir) = store_dir {
        if let Err(code) = attach_store(dir) {
            return code;
        }
    }
    let corpus = match load_corpus(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let trace_out = opt_value(args, "--trace-out").map(str::to_owned);
    let metrics_out = opt_value(args, "--metrics-out").map(str::to_owned);
    if trace_out.is_some() {
        // An empty trace file would be useless; make sure the property,
        // encode_batch and encode spans are actually collected.
        obs::raise_level(obs::Level::Debug);
    }
    let ctx = EvalContext::with_seed(seed);
    let started = std::time::Instant::now();

    let p1 = RowOrderInsignificance { max_permutations: perms };
    let p2 = ColumnOrderInsignificance { max_permutations: perms };
    let p4 = FunctionalDependencies::default();
    let p5 = SampleFidelity::default();
    let p7 = PerturbationRobustness::default();
    let p8 = HeterogeneousContext;
    let property: &dyn Property = match property_id.as_str() {
        "P1" => &p1,
        "P2" => &p2,
        "P4" => &p4,
        "P5" => &p5,
        "P7" => &p7,
        "P8" => &p8,
        "P3" | "P6" => {
            eprintln!(
                "{property_id} needs a specialized workload (join pairs / a model pair); \
                 use the bench harness: cargo run -p observatory-bench --bin table3_join_spearman \
                 or figure12_entity_stability"
            );
            return 2;
        }
        other => {
            eprintln!("unknown property '{other}'");
            return 2;
        }
    };
    let report = property.evaluate(model.as_ref(), &corpus, &ctx);
    if let Some(dir) = opt_value(args, "--export") {
        match observatory::core::export::write_bundle(
            std::path::Path::new(dir),
            std::slice::from_ref(&report),
        ) {
            Ok(n) => println!("exported {n} files to {dir}"),
            Err(e) => {
                eprintln!("export failed: {e}");
                return 1;
            }
        }
    }
    if report.records.is_empty() && report.scalars.is_empty() {
        println!(
            "{} produced no measurements for {} on this corpus (missing embedding level or \
             unmeasurable corpus)",
            property_id, model_name
        );
    } else {
        print!("{}", render_report(&report));
    }
    print_runtime_footer(&ctx.engine);
    if trace_out.is_some() || metrics_out.is_some() {
        let manifest = run_manifest(args, &property_id, model_name, perms, seed, &ctx, started);
        if let Err(e) = write_observability(&ctx.engine, &manifest, trace_out, metrics_out) {
            eprintln!("{e}");
            return 1;
        }
    }
    0
}

fn cmd_serve(args: &[String]) -> i32 {
    use observatory::serve::{NetMode, ServeConfig, Server};
    // Usage errors first (exit 2), before any side effects.
    let (
        max_batch,
        batch_delay_us,
        queue_depth,
        deadline_ms,
        slow_ms,
        profile_interval_ms,
        max_jobs,
        job_deadline_ms,
    ) = match (|| {
        Ok::<_, String>((
            parse_opt(args, "--max-batch", 16usize)?,
            parse_opt(args, "--batch-delay-us", 2000u64)?,
            parse_opt(args, "--queue-depth", 256usize)?,
            parse_opt(args, "--deadline-ms", 5000u64)?,
            parse_opt(args, "--slow-ms", 1000u64)?,
            parse_opt(args, "--profile-interval-ms", 10u64)?,
            parse_opt(args, "--max-jobs", 16usize)?,
            parse_opt(args, "--job-deadline-ms", 300_000u64)?,
        ))
    })() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if max_batch < 1 {
        eprintln!("invalid value '{max_batch}' for --max-batch (expected an integer >= 1)");
        return 2;
    }
    if queue_depth < 1 {
        eprintln!("invalid value '{queue_depth}' for --queue-depth (expected an integer >= 1)");
        return 2;
    }
    if max_jobs < 1 {
        eprintln!("invalid value '{max_jobs}' for --max-jobs (expected an integer >= 1)");
        return 2;
    }
    if job_deadline_ms < 1 {
        eprintln!(
            "invalid value '{job_deadline_ms}' for --job-deadline-ms (expected an integer >= 1)"
        );
        return 2;
    }
    if profile_interval_ms < 1 {
        eprintln!(
            "invalid value '{profile_interval_ms}' for --profile-interval-ms \
             (expected an integer >= 1)"
        );
        return 2;
    }
    // Like --store-dir: a trailing --profile-out must not silently run
    // without profiling when the user clearly asked for a profile.
    let profile_out = match opt_value(args, "--profile-out") {
        Some(path) => Some(path.to_owned()),
        None if args.last().is_some_and(|a| a == "--profile-out") => {
            eprintln!("--profile-out requires a file argument");
            return 2;
        }
        None => None,
    };
    let store_dir = match store_dir_from_flags(args) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let ann_warm = args.iter().any(|a| a == "--ann-warm");
    let ann_shards = match parse_opt(args, "--ann-shards", 4usize) {
        Ok(n) if (1..=64).contains(&n) => n,
        Ok(n) => {
            eprintln!("invalid value '{n}' for --ann-shards (expected an integer in 1..=64)");
            return 2;
        }
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // Net mode: the flag value is closed-set, so a typo is a usage
    // error — falling back to a default would silently bench the wrong
    // serving path.
    let net = match opt_value(args, "--net") {
        None => ServeConfig::default().net,
        Some(raw) => match NetMode::parse(raw) {
            Some(m) => m,
            None => {
                eprintln!("invalid value '{raw}' for --net (expected 'thread' or 'epoll')");
                return 2;
            }
        },
    };
    let net_shards = match parse_opt(args, "--net-shards", 0usize) {
        Ok(n) if n <= 64 => n,
        Ok(n) => {
            eprintln!("invalid value '{n}' for --net-shards (expected an integer in 0..=64)");
            return 2;
        }
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // A warm ANN index without a store would silently serve nothing:
    // refuse up front rather than answer corpus queries with 409 forever.
    if ann_warm && store_dir.is_none() {
        eprintln!("--ann-warm requires --store-dir (the index is built from store contents)");
        return 2;
    }
    // The serving engine is the global one, so --jobs must be applied
    // before the first encode — i.e. before the server starts.
    if let Err(code) = init_engine_from_flags(args) {
        return code;
    }
    // Job records and ingested tables live beside the embedding store,
    // so analysis results survive restarts whenever encodings do. The
    // `jobs/` name is outside the segment/WAL namespace the store scans.
    let jobs_dir = store_dir.map(|d| std::path::Path::new(d).join("jobs"));
    // Attach before bind: the serve manifest snapshots the store
    // generation, and the first admitted request must already hit tier 2.
    if let Some(dir) = store_dir {
        if let Err(code) = attach_store(dir) {
            return code;
        }
    }
    let trace_out = opt_value(args, "--trace-out").map(str::to_owned);
    let metrics_out = opt_value(args, "--metrics-out").map(str::to_owned);
    if trace_out.is_some() {
        obs::raise_level(obs::Level::Debug);
    }
    let config = ServeConfig {
        addr: opt_value(args, "--addr").unwrap_or("127.0.0.1:7700").to_string(),
        max_batch,
        batch_delay: std::time::Duration::from_micros(batch_delay_us),
        queue_depth,
        deadline: std::time::Duration::from_millis(deadline_ms),
        handle_signals: true,
        slow: std::time::Duration::from_millis(slow_ms),
        profile: profile_out.is_some(),
        profile_interval: std::time::Duration::from_millis(profile_interval_ms),
        ann_warm,
        ann_shards,
        max_jobs,
        job_deadline: std::time::Duration::from_millis(job_deadline_ms),
        jobs_dir,
        net,
        net_shards,
        ..ServeConfig::default()
    };
    let requested_addr = config.addr.clone();
    let engine = observatory::runtime::global();
    let server = match Server::bind(config, engine.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {requested_addr}: {e}");
            return 1;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot resolve listen address: {e}");
            return 1;
        }
    };
    if let Some((items, shards, dim)) = server.ann_summary() {
        println!("ann_warm: hnsw corpus index ({items} items, {shards} shards, dim {dim})");
    }
    // The smoke harness and tests scrape this line for the (possibly
    // ephemeral) port, so it goes out before the accept loop starts.
    println!(
        "serving on http://{addr} (jobs={}, max_batch={max_batch}, batch_delay={batch_delay_us}us, \
         queue_depth={queue_depth}, deadline={deadline_ms}ms, net={})",
        engine.jobs(),
        net.as_str()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let stats = server.run();

    println!(
        "drained: {} requests ({} shed, {} expired, {} panics), {} batches \
         (mean {:.2}, max {}), uptime {:.1}s",
        stats.totals.requests,
        stats.totals.shed,
        stats.totals.expired,
        stats.totals.panics,
        stats.totals.batches,
        stats.totals.mean_batch(),
        stats.totals.max_batch,
        stats.uptime.as_secs_f64(),
    );
    println!(
        "connections: {} accepted, {} timed out (net={})",
        stats.totals.accepted,
        stats.totals.timeouts,
        net.as_str(),
    );
    println!(
        "jobs: {} submitted, {} done, {} failed, {} cancelled, {} lost",
        stats.jobs.submitted,
        stats.jobs.done,
        stats.jobs.failed,
        stats.jobs.cancelled,
        stats.jobs.outstanding(),
    );
    print_stage_quantiles(&stats.totals.stages);
    if let Some(report) = &stats.profile {
        println!(
            "\n-- profiler ({} samples @ {}ms) --",
            report.samples,
            report.interval.as_millis()
        );
        print!("{}", report.top);
        if let Some(path) = &profile_out {
            if let Err(e) = std::fs::write(path, &report.folded) {
                eprintln!("cannot write {path}: {e}");
                return 1;
            }
            println!("profile: {} samples -> {path}", report.samples);
        }
    }
    print_runtime_footer(&engine);
    if trace_out.is_some() || metrics_out.is_some() {
        let mut manifest = obs::Manifest::for_run();
        manifest
            .set("command", "serve")
            .set("addr", addr.to_string())
            .set("jobs", engine.jobs().to_string())
            .set("net", net.as_str())
            .set("max_batch", max_batch.to_string())
            .set("queue_depth", queue_depth.to_string())
            .set("requests", stats.totals.requests.to_string())
            .set("batches", stats.totals.batches.to_string())
            .set("wall_ms", stats.uptime.as_millis().to_string())
            .set("simd", observatory::linalg::simd::decision().describe());
        if let (Some(dir), Some(store)) = (store_dir, engine.store()) {
            manifest.set("store_dir", dir).set("store_generation", store.generation().to_string());
        }
        if let Err(e) = write_observability(&engine, &manifest, trace_out, metrics_out) {
            eprintln!("{e}");
            return 1;
        }
    }
    0
}

/// Provenance manifest for `--trace-out` / `--metrics-out`: enough to
/// reproduce the run and attribute its outputs.
fn run_manifest(
    args: &[String],
    property_id: &str,
    model_name: &str,
    perms: usize,
    seed: u64,
    ctx: &EvalContext,
    started: std::time::Instant,
) -> obs::Manifest {
    let csvs = opt_values(args, "--csv");
    let dataset = if csvs.is_empty() { "wikitables-demo".to_string() } else { csvs.join(",") };
    let mut manifest = obs::Manifest::for_run();
    manifest
        .set("command", "characterize")
        .set("property", property_id)
        .set("models", model_name)
        .set("dataset", &dataset)
        .set("seed", seed.to_string())
        .set("permutations", perms.to_string())
        .set("jobs", ctx.engine.jobs().to_string())
        .set("cache_capacity_bytes", ctx.engine.cache_stats().capacity.to_string())
        .set("simd", observatory::linalg::simd::decision().describe())
        .set("wall_ms", started.elapsed().as_millis().to_string());
    if let (Some(dir), Some(store)) = (opt_value(args, "--store-dir"), ctx.engine.store()) {
        manifest.set("store_dir", dir).set("store_generation", store.generation().to_string());
    }
    manifest
}

/// Drain the collected trace once and render whichever exports were
/// requested. The span aggregates fold into the Prometheus text, so both
/// outputs come from the same drain.
fn write_observability(
    engine: &observatory::runtime::Engine,
    manifest: &obs::Manifest,
    trace_out: Option<String>,
    metrics_out: Option<String>,
) -> Result<(), String> {
    let trace = obs::drain();
    if let Some(path) = trace_out {
        let text = obs::chrome_trace(&trace, manifest);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("trace: {} spans -> {path}", trace.spans.len());
    }
    if let Some(path) = metrics_out {
        let text = observatory::runtime::prometheus_text(
            &engine.metrics_snapshot(),
            &engine.cache_stats(),
            manifest,
            Some(&trace),
        );
        std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("metrics -> {path}");
    }
    Ok(())
}

/// Per-stage latency quantiles for the serve drain report, plus an
/// all-stages aggregate merged across the five histograms. Stage
/// durations are recorded in microseconds, so the ns-valued snapshot
/// percentiles divide straight back down.
fn print_stage_quantiles(
    stages: &[(&'static str, observatory::runtime::metrics::HistogramSnapshot)],
) {
    let recorded: Vec<_> = stages.iter().filter(|(_, h)| h.count > 0).collect();
    if recorded.is_empty() {
        return;
    }
    println!("stage timings, us (p50/p95/p99):");
    let mut merged = observatory::runtime::metrics::HistogramSnapshot::default();
    for (name, h) in &recorded {
        println!(
            "  {name:<11} {:>8.0} / {:>8.0} / {:>8.0}  ({} samples)",
            h.p50_ns() / 1_000.0,
            h.p95_ns() / 1_000.0,
            h.p99_ns() / 1_000.0,
            h.count,
        );
        merged.merge(h);
    }
    println!(
        "  {:<11} {:>8.0} / {:>8.0} / {:>8.0}  ({} samples)",
        "all-stages",
        merged.p50_ns() / 1_000.0,
        merged.p95_ns() / 1_000.0,
        merged.p99_ns() / 1_000.0,
        merged.count,
    );
}

/// Post-run engine report: encode/cache counters, latency, cache bytes,
/// SIMD dispatch tier and workspace-pool effectiveness.
fn print_runtime_footer(engine: &observatory::runtime::Engine) {
    let snapshot = engine.metrics_snapshot();
    let cache = engine.cache_stats();
    println!("\n-- runtime ({} jobs) --", engine.jobs());
    print!("{}", snapshot.render());
    println!(
        "cache: {} live entries, {:.1} MiB used / {:.0} MiB capacity, {} evictions",
        cache.entries,
        cache.bytes as f64 / (1 << 20) as f64,
        cache.capacity as f64 / (1 << 20) as f64,
        cache.evictions,
    );
    // Tier-2 persistence, when attached: render() above already printed
    // hit/miss counters; this line is the on-disk inventory.
    if let Some(store) = engine.store() {
        let t = store.tier_stats();
        println!(
            "store: {} records, {} segments ({:.1} MiB) + {:.1} KiB WAL, generation {}",
            t.records,
            t.segments,
            t.segment_bytes as f64 / (1 << 20) as f64,
            t.wal_bytes as f64 / 1024.0,
            t.generation,
        );
    }
    let kernels = observatory::linalg::kernels::stats::snapshot();
    if kernels.total_calls() > 0 {
        println!("kernels: {}", kernels.render());
    }
    println!("simd: {}", observatory::linalg::simd::decision().describe());
    // Span records silently discarded once the collector cap is hit.
    // Anything nonzero means traces/profiles from this run have holes.
    let dropped = obs::dropped_total();
    if dropped > 0 {
        println!(
            "warning: observability collector dropped {dropped} span records (ring full); \
             traces and profiles are incomplete"
        );
    }
    // Main-thread view of the scratch pool; worker threads each keep
    // their own (per-thread free-lists, no shared state to sample).
    let ws = observatory::linalg::workspace::stats();
    if ws.hits + ws.misses > 0 {
        println!(
            "workspace: {} hits / {} misses, {:.1} MiB held in {} buffers (main thread)",
            ws.hits,
            ws.misses,
            ws.held_bytes as f64 / (1 << 20) as f64,
            ws.held_bufs,
        );
    }
}

fn cmd_mine_fds(args: &[String]) -> i32 {
    // Usage errors first (exit 2), I/O errors after (exit 1).
    let max_error: f64 = match parse_opt(args, "--max-error", 0.0) {
        Ok(v) if (0.0..=1.0).contains(&v) => v,
        Ok(v) => {
            eprintln!("invalid value '{v}' for --max-error (expected a fraction in [0, 1])");
            return 2;
        }
        Err(e) => {
            eprintln!("{e} (expected a fraction in [0, 1])");
            return 2;
        }
    };
    if let Err(e) = parse_opt::<u64>(args, "--seed", 42) {
        eprintln!("{e}");
        return 2;
    }
    let corpus = match load_corpus(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    for table in &corpus {
        println!("## {}", table.name);
        let fds = discover_approximate_unary_fds(table, max_error);
        if fds.is_empty() {
            println!("(no unary dependencies at g3 ≤ {max_error})\n");
            continue;
        }
        let rows: Vec<Vec<String>> = fds
            .iter()
            .map(|a| {
                vec![
                    table.columns[a.fd.determinant].header.clone(),
                    table.columns[a.fd.dependent].header.clone(),
                    format!("{:.4}", a.g3),
                ]
            })
            .collect();
        print!("{}", render_table(&["determinant", "dependent", "g3 error"], &rows));
        println!();
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn opt_parsing() {
        let a = args(&["--csv", "a.csv", "--seed", "7", "--csv", "b.csv"]);
        assert_eq!(opt_values(&a, "--csv"), vec!["a.csv", "b.csv"]);
        assert_eq!(opt_value(&a, "--seed"), Some("7"));
        assert_eq!(opt_value(&a, "--nope"), None);
    }

    #[test]
    fn demo_corpus_loads_without_csv() {
        let corpus = load_corpus(&args(&["--seed", "3"])).unwrap();
        assert_eq!(corpus.len(), 4);
    }

    #[test]
    fn missing_csv_is_an_error() {
        assert!(load_corpus(&args(&["--csv", "/nonexistent/x.csv"])).is_err());
    }

    #[test]
    fn parse_opt_uses_default_only_when_absent() {
        let a = args(&["--permutations", "8"]);
        assert_eq!(parse_opt(&a, "--permutations", 24usize), Ok(8));
        assert_eq!(parse_opt(&a, "--seed", 42u64), Ok(42));
    }

    #[test]
    fn parse_opt_rejects_malformed_values() {
        // The old behaviour silently fell back to the default; malformed
        // values must now surface as usage errors.
        for bad in ["abc", "12x", "", "-3"] {
            let a = args(&["--permutations", bad]);
            let r = parse_opt::<usize>(&a, "--permutations", 24);
            assert!(r.is_err(), "'{bad}' must be rejected, got {r:?}");
            assert!(r.unwrap_err().contains("--permutations"));
        }
        let a = args(&["--max-error", "zero"]);
        assert!(parse_opt::<f64>(&a, "--max-error", 0.0).is_err());
        let a = args(&["--seed", "4.5"]);
        assert!(parse_opt::<u64>(&a, "--seed", 42).is_err());
    }

    #[test]
    fn malformed_seed_fails_corpus_load() {
        let err = load_corpus(&args(&["--seed", "notanumber"])).unwrap_err();
        assert!(err.contains("--seed"));
    }

    #[test]
    fn malformed_flags_are_usage_errors_exit_2() {
        // Every malformed numeric flag must be a hard usage error (exit
        // code 2) on both subcommands, checked before any work happens.
        assert_eq!(cmd_characterize(&args(&["--property", "P1", "--seed", "xyz"])), 2);
        assert_eq!(cmd_characterize(&args(&["--property", "P1", "--permutations", "many"])), 2);
        assert_eq!(cmd_characterize(&args(&["--property", "P1", "--jobs", "0"])), 2);
        assert_eq!(cmd_characterize(&args(&["--property", "P1", "--jobs", "two"])), 2);
        assert_eq!(cmd_mine_fds(&args(&["--max-error", "lots"])), 2);
        assert_eq!(cmd_mine_fds(&args(&["--max-error", "2.0"])), 2, "out of [0,1] range");
        assert_eq!(cmd_mine_fds(&args(&["--seed", "x"])), 2);
    }

    #[test]
    fn malformed_serve_observability_flags_are_exit_2() {
        // The new tracing/profiling knobs follow the same convention as
        // every other numeric flag: malformed values are usage errors,
        // caught before the server binds anything.
        assert_eq!(cmd_serve(&args(&["--slow-ms", "fast"])), 2);
        assert_eq!(cmd_serve(&args(&["--profile-interval-ms", "often"])), 2);
        assert_eq!(cmd_serve(&args(&["--profile-interval-ms", "0"])), 2);
        assert_eq!(cmd_serve(&args(&["--profile-out"])), 2, "trailing --profile-out");
    }

    #[test]
    fn malformed_net_flags_are_exit_2() {
        // --net is a closed set and --net-shards is bounded; both are
        // usage errors caught before the server binds anything.
        assert_eq!(cmd_serve(&args(&["--net", "uring"])), 2);
        assert_eq!(cmd_serve(&args(&["--net", "EPOLL"])), 2, "flag values are case-sensitive");
        assert_eq!(cmd_serve(&args(&["--net-shards", "many"])), 2);
        assert_eq!(cmd_serve(&args(&["--net-shards", "65"])), 2, "out of 0..=64");
    }

    #[test]
    fn malformed_job_flags_are_exit_2() {
        // The analysis-job knobs follow the same usage-error convention,
        // caught before the server binds anything.
        assert_eq!(cmd_serve(&args(&["--max-jobs", "0"])), 2);
        assert_eq!(cmd_serve(&args(&["--max-jobs", "lots"])), 2);
        assert_eq!(cmd_serve(&args(&["--job-deadline-ms", "0"])), 2);
        assert_eq!(cmd_serve(&args(&["--job-deadline-ms", "soon"])), 2);
    }

    #[test]
    fn store_dir_without_value_is_exit_2() {
        // A trailing --store-dir must be a usage error on both commands,
        // not a silent run without persistence.
        assert_eq!(cmd_characterize(&args(&["--property", "P1", "--store-dir"])), 2);
        assert_eq!(cmd_serve(&args(&["--store-dir"])), 2);
        let a = args(&["--store-dir", "somewhere", "--seed", "1"]);
        assert_eq!(store_dir_from_flags(&a), Ok(Some("somewhere")));
        assert_eq!(store_dir_from_flags(&args(&["--seed", "1"])), Ok(None));
    }

    #[test]
    fn unopenable_store_dir_is_exit_1() {
        // The store root collides with a regular file: an I/O error (1),
        // distinct from usage (2). Checked via attach_store directly so
        // the failure never attaches anything to the global engine.
        let path = std::env::temp_dir().join(format!("obs-store-clash-{}", std::process::id()));
        std::fs::write(&path, b"not a directory").unwrap();
        assert_eq!(attach_store(path.to_str().unwrap()), Err(1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unreadable_csv_is_exit_1_not_2() {
        // I/O failures are runtime errors (1), distinct from usage (2).
        let a = args(&["--property", "P1", "--csv", "/nonexistent/x.csv"]);
        assert_eq!(cmd_characterize(&a), 1);
        assert_eq!(cmd_mine_fds(&args(&["--csv", "/nonexistent/x.csv"])), 1);
    }
}
