//! The `characterize` workload: the `observatory_core` calls
//! `observatory characterize` makes (one `Property::evaluate` and one
//! `render_report` per property), for P1, P2, P4, P5, P7 and P8 with
//! bert, from a loaded corpus to the last rendered report.

use crate::replay::{self, CoreTimes, InSitu};
use crate::report::{line, RunResult, END_TO_END};
use crate::stats::median;
use crate::workloads::{self, Workload};
use crate::{env, serving, sys};
use observatory_core::framework::{EvalContext, Property, RunControl};
use observatory_core::props::col_order::ColumnOrderInsignificance;
use observatory_core::props::fd::FunctionalDependencies;
use observatory_core::props::hetero_context::HeterogeneousContext;
use observatory_core::props::perturbation::PerturbationRobustness;
use observatory_core::props::row_order::RowOrderInsignificance;
use observatory_core::props::sample_fidelity::SampleFidelity;
use observatory_core::report::render_report;
use observatory_data::wikitables::WikiTablesConfig;
use observatory_models::registry::model_by_name;
use observatory_models::TableEncoder;
use observatory_obs as obs;
use observatory_runtime::{Engine, EngineConfig};
use observatory_table::Table;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The properties a round evaluates, in order.
pub const PROPERTIES: [&str; 6] = ["P1", "P2", "P4", "P5", "P7", "P8"];

/// One round: every property evaluated and rendered once.
pub struct Round {
    /// Rendered report per property.
    pub reports: Vec<String>,
    /// Wall seconds per property (evaluate + render).
    pub secs: Vec<f64>,
    /// Wall seconds of the whole round.
    pub total_s: f64,
    /// The round's engine, for its counters.
    pub engine: Arc<Engine>,
}

/// Evaluate every property over `corpus` with a fresh engine built
/// from `config`.
pub fn round(
    model: &dyn TableEncoder,
    corpus: &[Table],
    seed: u64,
    permutations: usize,
    config: EngineConfig,
) -> Round {
    let start = Instant::now();
    let engine = Arc::new(Engine::new(config));
    let ctx = EvalContext { seed, engine: Arc::clone(&engine), control: RunControl::default() };
    let p1 = RowOrderInsignificance { max_permutations: permutations };
    let p2 = ColumnOrderInsignificance { max_permutations: permutations };
    let p4 = FunctionalDependencies::default();
    let p5 = SampleFidelity::default();
    let p7 = PerturbationRobustness::default();
    let p8 = HeterogeneousContext;
    let properties: [&dyn Property; 6] = [&p1, &p2, &p4, &p5, &p7, &p8];
    let mut reports = Vec::with_capacity(properties.len());
    let mut secs = Vec::with_capacity(properties.len());
    for p in properties {
        let t = Instant::now();
        let report = p.evaluate(model, corpus, &ctx);
        reports.push(render_report(&report));
        secs.push(t.elapsed().as_secs_f64());
    }
    Round { reports, secs, total_s: start.elapsed().as_secs_f64(), engine }
}

/// The default engine `observatory characterize` builds: one worker per
/// core and the default cache.
pub fn engine_config() -> EngineConfig {
    EngineConfig { jobs: env::nproc(), ..EngineConfig::default() }
}

/// Property timings and engine counters of one round, for the per-layer
/// report.
pub fn core_times(r: &Round) -> CoreTimes {
    let snap = r.engine.metrics_snapshot();
    let encode_ns: u64 = snap.per_model.values().map(|m| m.encode_ns).sum();
    let busy_ns = r.secs.iter().sum::<f64>() * 1e9 * r.engine.jobs() as f64;
    CoreTimes {
        secs: r.secs.clone(),
        encode_share: encode_ns as f64 / busy_ns,
        residual_share: 1.0 - r.secs.iter().sum::<f64>() / r.total_s,
    }
}

/// Run the workload: timed (`trace == false`) or traced.
pub fn run(
    wl: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Path,
) -> Result<RunResult, String> {
    let c = wl.characterize.as_ref().expect("a characterize workload");
    let seed = seed ^ wl.seed_salt;
    let corpus_config =
        WikiTablesConfig { num_tables: c.tables, min_rows: wl.rows, max_rows: wl.rows, seed };
    // Set-up: corpus generation and context (model weights) set-up.
    let repeats = if trace { 1 } else { wl.setup_repeats };
    let mut setups = Vec::with_capacity(repeats);
    let mut loaded = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let corpus = corpus_config.generate();
        let model = model_by_name("bert").ok_or("bert is missing from the zoo")?;
        setups.push(t0.elapsed().as_secs_f64());
        loaded = Some((corpus, model));
    }
    let (corpus, model) = loaded.expect("at least one set-up");
    let mut result = RunResult::new();
    // The reference: a serial, uncached run of the same calls.
    let reference =
        round(model.as_ref(), &corpus, seed, c.permutations, EngineConfig::serial_uncached());
    let mut check = |reports: &[String], result: &mut RunResult| {
        for (i, (got, want)) in reports.iter().zip(&reference.reports).enumerate() {
            result.count(1, u64::from(got != want));
            if got != want {
                result.fail_check(format!(
                    "{} report differs from the serial uncached run",
                    PROPERTIES[i]
                ));
            }
        }
    };
    if trace {
        return traced(
            wl,
            c,
            seed,
            seconds,
            &corpus,
            model.as_ref(),
            setups[0],
            &mut check,
            scratch,
        );
    }
    let started = Instant::now();
    let mut rounds: Vec<f64> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    while rounds.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        // peak_rss_mb is the median over rounds of each round's own peak.
        sys::reset_peak_rss()?;
        let r = round(model.as_ref(), &corpus, seed, c.permutations, engine_config());
        peaks.push(sys::peak_rss_mb()?);
        check(&r.reports, &mut result);
        rounds.push(r.total_s);
    }
    let rss = median(&peaks);
    let run_s = median(&rounds);
    let within = rounds.iter().filter(|&&s| s * 1e3 <= c.slo_ms).count();
    let slo_attain = within as f64 / rounds.len() as f64;
    let throughput = (PROPERTIES.len() * rounds.len()) as f64 / rounds.iter().sum::<f64>();
    let setup_s = median(&setups);
    result.notes.push(format!(
        "characterize: {} rounds over {} tables",
        rounds.len(),
        corpus.len()
    ));
    result.notes.push(line("setup_s", setup_s, "s"));
    result.notes.push(line("p50_ms (run_s, median round)", run_s * 1e3, "ms"));
    result.notes.push(line("slo_attain", slo_attain, "ratio"));
    result.notes.push(line("throughput_per_s", throughput, "properties/s"));
    result.notes.push(line(
        "failed_ratio",
        result.failed as f64 / result.attempted as f64,
        "ratio",
    ));
    result.notes.push(line("peak_rss_mb", rss, "MiB"));
    result.set_metrics(
        &END_TO_END,
        vec![
            ("setup_s", setup_s),
            ("p50_ms", run_s * 1e3),
            ("slo_attain", slo_attain),
            ("throughput_per_s", throughput),
            ("peak_rss_mb", rss),
        ],
    );
    Ok(result)
}

/// The traced run: one untraced and one traced round, a serving pass
/// over tables of the corpus's shape, and the per-layer replay.
#[allow(clippy::too_many_arguments)]
fn traced(
    wl: &Workload,
    c: &workloads::Characterize,
    seed: u64,
    seconds: f64,
    corpus: &[Table],
    model: &dyn TableEncoder,
    setup_s: f64,
    check: &mut dyn FnMut(&[String], &mut RunResult),
    scratch: &Path,
) -> Result<RunResult, String> {
    let mut result = RunResult::new();
    let untraced = round(model, corpus, seed, c.permutations, engine_config());
    check(&untraced.reports, &mut result);
    // Span collection on: encode_batch spans carry the batch size and the
    // unique count, which give the in-batch dedup ratio.
    obs::set_level(obs::Level::Info);
    let _ = obs::drain();
    let traced_round = round(model, corpus, seed, c.permutations, engine_config());
    let spans = obs::drain();
    obs::set_level(obs::Level::Off);
    check(&traced_round.reports, &mut result);
    let (mut positions, mut unique) = (0u64, 0u64);
    for s in spans.spans.iter().filter(|s| s.name == "encode_batch") {
        let get = |k: &str| {
            s.fields.iter().find(|(n, _)| *n == k).and_then(|(_, v)| v.parse::<u64>().ok())
        };
        positions += get("tables").unwrap_or(0);
        unique += get("unique").unwrap_or(0);
    }
    let snap = traced_round.engine.metrics_snapshot();
    let cache = traced_round.engine.cache_stats();
    let lookups = (snap.cache_hits + snap.cache_misses).max(1) as f64;
    let core = core_times(&traced_round);
    // The serving layers on tables of this corpus's shape.
    let pass = serving::serving_pass(wl, c.traced_serving_rps, seed, seconds)?;
    result.count(pass.attempted, pass.failed);
    let mut insitu: InSitu = pass.insitu;
    insitu.trace_overhead = traced_round.total_s / untraced.total_s;
    insitu.cache_hit_ratio = snap.cache_hits as f64 / lookups;
    insitu.tier2_hit_ratio = snap.tier2_hits as f64 / lookups;
    insitu.encodes = snap.encodes as f64;
    insitu.evictions = cache.evictions as f64;
    insitu.dedup_ratio = if positions > 0 { 1.0 - unique as f64 / positions as f64 } else { 0.0 };
    let layers = replay::run(&pass.embed_bodies, &[], None, scratch)?;
    result.count(layers.calls, 0);
    result.notes.push(format!(
        "characterize traced: round {:.3} s untraced, {:.3} s traced; set-up {setup_s:.3} s",
        untraced.total_s, traced_round.total_s
    ));
    result.set_metrics(&crate::report::PER_LAYER, replay::per_layer(&insitu, &layers, &core));
    Ok(result)
}

/// The properties over `tables` with bert, for the serving workloads'
/// per-layer report.
pub fn core_slice(tables: &[Table], seed: u64, permutations: usize) -> Result<CoreTimes, String> {
    let model = model_by_name("bert").ok_or("bert is missing from the zoo")?;
    let r = round(model.as_ref(), tables, seed, permutations, engine_config());
    Ok(core_times(&r))
}
