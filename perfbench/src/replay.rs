//! The traced per-layer replay and the per-layer report.
//!
//! The replay sends a workload's generated requests, one at a time on
//! one thread in pipeline order, through each layer's public function
//! and times every call from outside: HTTP parse, API parse,
//! fingerprint, serialize, encode (with kernel-counter deltas), store
//! write and read, API and HTTP render, and for kNN the parse, the ANN
//! walk and the render. No instrumentation is added inside the crates.
//!
//! Every time metric is a mean per call on this workload's inputs, so a
//! layer the timed path does not use still reports what it would cost;
//! the counters (`runtime.encodes`, `store.records`, ...) come from the
//! timed path and show which layers the workload actually uses.

use crate::wire;
use observatory_linalg::kernels::stats;
use observatory_models::registry::model_by_name;
use observatory_models::serialize::{
    fit_rows, serialize_column_wise, serialize_row_template, serialize_row_wise, RowWiseOptions,
};
use observatory_models::zoo::base_config;
use observatory_models::TableEncoder;
use observatory_runtime::{fingerprint_table, EmbeddingStore};
use observatory_search::{AnnIndex, HnswConfig, SearchParams, ShardedHnsw};
use observatory_serve::{api, http};
use observatory_store::{MmapStore, StoreConfig};
use observatory_table::Table;
use observatory_tokenizer::Tokenizer;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Shard count of the server's warm corpus index (`ServeConfig` default).
pub const ANN_SHARDS: usize = 4;

/// Counters and stage timings of a served pass, measured in place.
#[derive(Debug, Clone, Default)]
pub struct InSitu {
    pub queue_us_p50: f64,
    pub queue_us_p99: f64,
    pub batch_wait_us: f64,
    /// Mean `x-stage-us` of embed responses, stage order.
    pub stage_means_us: [f64; 5],
    pub embed_latency_mean_us: Option<f64>,
    pub knn_latency_mean_us: Option<f64>,
    pub gen_lag_p99_ms: f64,
    pub reconnects: f64,
    pub shed: f64,
    pub batch_size_mean: f64,
    pub cache_hit_ratio: f64,
    pub tier2_hit_ratio: f64,
    pub encodes: f64,
    pub evictions: f64,
    pub dedup_ratio: f64,
    pub store_records: f64,
    pub store_segments: f64,
    pub trace_overhead: f64,
}

/// Per-property timings of one characterize round.
#[derive(Debug, Clone)]
pub struct CoreTimes {
    /// Seconds per property, in `characterize::PROPERTIES` order.
    pub secs: Vec<f64>,
    /// Engine encode time over worker capacity (wall × jobs).
    pub encode_share: f64,
    /// Round time not spent inside a property.
    pub residual_share: f64,
}

/// Mean per-call costs from the replay.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub http_parse_us: f64,
    pub http_render_us: f64,
    pub parse_embed_us: f64,
    pub render_embed_us: f64,
    pub embed_bytes: f64,
    pub parse_knn_us: f64,
    pub fingerprint_us: f64,
    pub store_read_us: f64,
    pub store_write_us: f64,
    pub serialize_us: f64,
    pub tokens_per_table: f64,
    pub encode_us: f64,
    pub non_kernel_us: f64,
    /// Per encode: matmul, linear_bias, linear_bias_gelu, attention.
    pub kernel_ns: [f64; 4],
    pub gemm_gflops: f64,
    pub ann_build_s: f64,
    pub ann_query_us: f64,
    pub knn_render_us: f64,
    /// Parse + walk + render of one kNN request.
    pub knn_total_us: f64,
    /// Layer calls made.
    pub calls: u64,
}

#[derive(Default)]
struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }
    fn add_since(&mut self, t: Instant) {
        self.add(t.elapsed().as_secs_f64() * 1e6);
    }
    fn get(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Sequence lengths `model` feeds its encoder for `table`: row-wise
/// models are approximated by the default row-wise options.
fn sequence_lengths(model: &str, table: &Table, tok: &Tokenizer, budget: usize) -> Vec<usize> {
    match model {
        "doduo" => {
            let rows =
                fit_rows(table.num_rows(), budget, |k| serialize_column_wise(table, tok, k).len());
            vec![serialize_column_wise(table, tok, rows).len()]
        }
        "taptap" => {
            (0..table.num_rows()).map(|i| serialize_row_template(table, tok, i).len()).collect()
        }
        _ => {
            let opts = RowWiseOptions::default();
            let rows = fit_rows(table.num_rows(), budget, |k| {
                serialize_row_wise(table, tok, k, &opts).len()
            });
            vec![serialize_row_wise(table, tok, rows, &opts).len()]
        }
    }
}

/// Multiply-adds ×2 of one encoder forward over a sequence of `n`
/// tokens: Q, K, V and output projections, attention scores and mix,
/// and the two feed-forward layers, per layer. Computed, not measured.
fn encoder_flops(n: usize) -> f64 {
    let c = base_config("flops");
    let (n, d, f) = (n as f64, c.dim as f64, c.ffn_dim as f64);
    c.n_layers as f64 * (8.0 * n * d * d + 4.0 * n * n * d + 4.0 * n * d * f)
}

fn kernel_totals() -> [u64; 4] {
    let s = stats::snapshot();
    let ns = |name: &str| s.kernels.iter().find(|(n, _)| *n == name).map_or(0, |(_, t)| t.total_ns);
    [ns("matmul"), ns("linear_bias"), ns("linear_bias_gelu"), ns("attention")]
}

/// Replay `embed_bodies` and `knn_bodies` through every layer. kNN
/// queries run against an index over `ann_items` when given, otherwise
/// over the table vectors the replay encoded (with kNN bodies built
/// from them when `knn_bodies` is empty).
pub fn run(
    embed_bodies: &[String],
    knn_bodies: &[String],
    ann_items: Option<Vec<(String, Vec<f64>)>>,
    scratch: &Path,
) -> Result<Replay, String> {
    let config = base_config("bert");
    let tok = Tokenizer::new(config.vocab_size as u32);
    let mut models: HashMap<String, Box<dyn TableEncoder>> = HashMap::new();
    let dir = scratch.join("replay_store");
    let store =
        MmapStore::open(StoreConfig::new(&dir)).map_err(|e| format!("replay store: {e}"))?;
    let (mut http_parse, mut http_render, mut parse_embed, mut render_embed) =
        (Mean::default(), Mean::default(), Mean::default(), Mean::default());
    let (mut bytes, mut fingerprint, mut serialize, mut tokens) =
        (Mean::default(), Mean::default(), Mean::default(), Mean::default());
    let (mut encode, mut write, mut read) = (Mean::default(), Mean::default(), Mean::default());
    let mut kernels = [0u64; 4];
    let mut flops = 0.0f64;
    let mut calls = 0u64;
    let mut saved = Vec::new();
    let mut vectors: Vec<(String, Vec<f64>)> = Vec::new();
    for body in embed_bodies {
        let raw = wire::post("/v1/embed", body);
        let t = Instant::now();
        let mut parser = http::RequestParser::new();
        parser.feed(&raw);
        let request =
            parser.next_request().map_err(|e| e.to_string())?.ok_or("incomplete request")?;
        http_parse.add_since(t);
        let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let req = api::parse_embed(text).map_err(|e| e.to_string())?;
        parse_embed.add_since(t);
        let t = Instant::now();
        let fp = fingerprint_table(&req.model, &req.table);
        fingerprint.add_since(t);
        let t = Instant::now();
        let lengths = sequence_lengths(&req.model, &req.table, &tok, config.max_len);
        serialize.add_since(t);
        tokens.add(lengths.iter().sum::<usize>() as f64);
        flops += lengths.iter().map(|&n| encoder_flops(n)).sum::<f64>();
        if !models.contains_key(&req.model) {
            let m =
                model_by_name(&req.model).ok_or_else(|| format!("unknown model {}", req.model))?;
            models.insert(req.model.clone(), m);
        }
        let model = models[&req.model].as_ref();
        let before = kernel_totals();
        let t = Instant::now();
        let enc = model.encode_table(&req.table);
        encode.add_since(t);
        let after = kernel_totals();
        for (k, (a, b)) in kernels.iter_mut().zip(after.iter().zip(before)) {
            *k += a - b;
        }
        let t = Instant::now();
        store.save(fp, &enc);
        write.add_since(t);
        saved.push(fp);
        let t = Instant::now();
        let out = api::render_embed_response(&req, &enc);
        render_embed.add_since(t);
        bytes.add(out.len() as f64);
        let t = Instant::now();
        let mut wire_out = Vec::with_capacity(out.len() + 256);
        http::render_response(&mut wire_out, 200, "application/json", &[], out.as_bytes(), true);
        http_render.add_since(t);
        if let Some(v) = enc.table().filter(|v| v.len() == config.dim) {
            vectors.push((fp.to_hex(), v));
        }
        calls += 9;
    }
    // Reads come from a reopened store, as after a server restart.
    drop(store);
    let store =
        MmapStore::open(StoreConfig::new(&dir)).map_err(|e| format!("replay store reopen: {e}"))?;
    for fp in &saved {
        let t = Instant::now();
        let loaded = store.load(*fp);
        read.add_since(t);
        if loaded.is_none() {
            return Err(format!("replay store lost record {}", fp.to_hex()));
        }
        calls += 1;
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    let items = ann_items.unwrap_or_else(|| vectors.clone());
    let built_knn: Vec<String>;
    let knn_bodies = if knn_bodies.is_empty() {
        built_knn = vectors.iter().map(|(fp, v)| wire::knn_body(&[(v, fp)])).collect();
        &built_knn[..]
    } else {
        knn_bodies
    };
    let (mut parse_knn, mut query, mut run_knn, mut rewalk) =
        (Mean::default(), Mean::default(), Mean::default(), Mean::default());
    let mut ann_build_s = 0.0;
    if let Some((_, first)) = items.first() {
        let t = Instant::now();
        let index = ShardedHnsw::build(
            first.len(),
            ANN_SHARDS,
            HnswConfig::default(),
            &items,
            crate::env::nproc(),
        );
        ann_build_s = t.elapsed().as_secs_f64();
        calls += 1;
        for body in knn_bodies {
            let raw = wire::post("/v1/knn", body);
            let t = Instant::now();
            let mut parser = http::RequestParser::new();
            parser.feed(&raw);
            parser.next_request().map_err(|e| e.to_string())?.ok_or("incomplete request")?;
            http_parse.add_since(t);
            let t = Instant::now();
            let req = api::parse_knn(body).map_err(|e| e.to_string())?;
            parse_knn.add_since(t);
            let walk = || {
                for (q, exclude) in req.queries.iter().zip(&req.exclude) {
                    std::hint::black_box(index.search(
                        q,
                        req.k,
                        exclude.as_deref(),
                        SearchParams { ef_search: req.ef_search },
                    ));
                }
            };
            let t = Instant::now();
            walk();
            query.add_since(t);
            // run_knn_on walks again and renders; its render self time is
            // its total minus a second, equally warm walk.
            let t = Instant::now();
            let out = api::run_knn_on(&req, &index);
            run_knn.add_since(t);
            let t = Instant::now();
            walk();
            rewalk.add_since(t);
            let t = Instant::now();
            let mut wire_out = Vec::with_capacity(out.len() + 256);
            http::render_response(
                &mut wire_out,
                200,
                "application/json",
                &[],
                out.as_bytes(),
                true,
            );
            http_render.add_since(t);
            calls += 6;
        }
    }
    let encodes = encode.n.max(1) as f64;
    let kernel_ns = kernels.map(|k| k as f64 / encodes);
    let kernel_total_ns: f64 = kernels.iter().sum::<u64>() as f64;
    let knn_render_us = (run_knn.get() - rewalk.get()).max(0.0);
    Ok(Replay {
        http_parse_us: http_parse.get(),
        http_render_us: http_render.get(),
        parse_embed_us: parse_embed.get(),
        render_embed_us: render_embed.get(),
        embed_bytes: bytes.get(),
        parse_knn_us: parse_knn.get(),
        fingerprint_us: fingerprint.get(),
        store_read_us: read.get(),
        store_write_us: write.get(),
        serialize_us: serialize.get(),
        tokens_per_table: tokens.get(),
        encode_us: encode.get(),
        non_kernel_us: encode.get() - serialize.get() - kernel_ns.iter().sum::<f64>() / 1e3,
        kernel_ns,
        gemm_gflops: if kernel_total_ns > 0.0 { flops / kernel_total_ns } else { 0.0 },
        ann_build_s,
        ann_query_us: query.get(),
        knn_render_us,
        knn_total_us: parse_knn.get() + run_knn.get(),
        calls,
    })
}

/// The per-layer metrics, named as in `report::PER_LAYER`.
pub fn per_layer(s: &InSitu, r: &Replay, core: &CoreTimes) -> Vec<(&'static str, f64)> {
    // Self times along each route; whatever they leave of the measured
    // end-to-end mean is the residual (socket, reactor, generator,
    // cache bookkeeping), reported and never dropped.
    let embed_layers = r.http_parse_us
        + r.parse_embed_us
        + r.fingerprint_us
        + s.stage_means_us.iter().sum::<f64>()
        + r.render_embed_us
        + r.http_render_us;
    let residual_embed = match s.embed_latency_mean_us {
        Some(total) => 1.0 - embed_layers / total,
        None => 0.0,
    };
    let residual_knn = match s.knn_latency_mean_us {
        Some(total) => 1.0 - (r.http_parse_us + r.knn_total_us + r.http_render_us) / total,
        None => 0.0,
    };
    let p = |i: usize| core.secs.get(i).copied().unwrap_or(0.0);
    vec![
        ("serve.http.parse_us", r.http_parse_us),
        ("serve.http.render_us", r.http_render_us),
        ("serve.conn.reconnects", s.reconnects),
        ("serve.api.parse_embed_us", r.parse_embed_us),
        ("serve.api.render_embed_us", r.render_embed_us),
        ("serve.api.embed_bytes", r.embed_bytes),
        ("serve.api.parse_knn_us", r.parse_knn_us),
        ("serve.queue_us_p50", s.queue_us_p50),
        ("serve.queue_us_p99", s.queue_us_p99),
        ("serve.batch_wait_us", s.batch_wait_us),
        ("serve.batch_size_mean", s.batch_size_mean),
        ("serve.shed", s.shed),
        ("runtime.fingerprint_us", r.fingerprint_us),
        ("runtime.cache_hit_ratio", s.cache_hit_ratio),
        ("runtime.tier2_hit_ratio", s.tier2_hit_ratio),
        ("runtime.encodes", s.encodes),
        ("runtime.evictions", s.evictions),
        ("runtime.dedup_ratio", s.dedup_ratio),
        ("store.read_us", r.store_read_us),
        ("store.write_us", r.store_write_us),
        ("store.records", s.store_records),
        ("store.segments", s.store_segments),
        ("models.serialize_us", r.serialize_us),
        ("models.tokens_per_table", r.tokens_per_table),
        ("transformer.encode_us", r.encode_us),
        ("transformer.non_kernel_us", r.non_kernel_us),
        ("linalg.matmul_ns", r.kernel_ns[0]),
        ("linalg.linear_bias_ns", r.kernel_ns[1]),
        ("linalg.linear_bias_gelu_ns", r.kernel_ns[2]),
        ("linalg.attention_ns", r.kernel_ns[3]),
        ("linalg.gemm_gflops", r.gemm_gflops),
        ("search.ann_build_s", r.ann_build_s),
        ("search.ann_query_us", r.ann_query_us),
        ("search.knn_render_us", r.knn_render_us),
        ("core.P1_s", p(0)),
        ("core.P2_s", p(1)),
        ("core.P4_s", p(2)),
        ("core.P5_s", p(3)),
        ("core.P7_s", p(4)),
        ("core.P8_s", p(5)),
        ("core.encode_share", core.encode_share),
        ("bench.gen_lag_p99_ms", s.gen_lag_p99_ms),
        ("bench.residual_share.embed", residual_embed),
        ("bench.residual_share.knn", residual_knn),
        ("bench.residual_share.characterize", core.residual_share),
        ("bench.trace_overhead", s.trace_overhead),
    ]
}
