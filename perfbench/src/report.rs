//! The result of one run and its printed forms.

use observatory_obs::json::escape;

/// The end-to-end metrics every timed run reports, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("slo_attain", "ratio"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with units, grouped
/// by layer. Each group notes the end-to-end metric it should move and
/// the workloads where the layer is a large share of the work.
pub const PER_LAYER: [(&str, &str); 46] = [
    // serve::http — p50_ms, throughput_per_s; large on embed_warm.
    ("serve.http.parse_us", "us"),
    ("serve.http.render_us", "us"),
    ("serve.conn.reconnects", "count"),
    // serve::api — p50_ms, throughput_per_s; large on embed_warm.
    ("serve.api.parse_embed_us", "us"),
    ("serve.api.render_embed_us", "us"),
    ("serve.api.embed_bytes", "bytes"),
    ("serve.api.parse_knn_us", "us"),
    // serve::queue + batcher — p50_ms on embed_warm, throughput_per_s on
    // embed_cold; large on both embed workloads.
    ("serve.queue_us_p50", "us"),
    ("serve.queue_us_p99", "us"),
    ("serve.batch_wait_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.shed", "count"),
    // runtime — p50_ms on embed_warm and characterize.
    ("runtime.fingerprint_us", "us"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("runtime.tier2_hit_ratio", "ratio"),
    ("runtime.encodes", "count"),
    ("runtime.evictions", "count"),
    ("runtime.dedup_ratio", "ratio"),
    // store — p50_ms on embed_warm (reads) and embed_cold (writes),
    // setup_s on embed_warm.
    ("store.read_us", "us"),
    ("store.write_us", "us"),
    ("store.records", "count"),
    ("store.segments", "count"),
    // models + tokenizer — p50_ms on embed_cold and characterize.
    ("models.serialize_us", "us"),
    ("models.tokens_per_table", "count"),
    // transformer + linalg — p50_ms and throughput_per_s on embed_cold,
    // p50_ms on characterize. GFLOP/s are computed from token counts and
    // the model shape, not measured.
    ("transformer.encode_us", "us"),
    ("transformer.non_kernel_us", "us"),
    ("linalg.matmul_ns", "ns"),
    ("linalg.linear_bias_ns", "ns"),
    ("linalg.linear_bias_gelu_ns", "ns"),
    ("linalg.attention_ns", "ns"),
    ("linalg.gemm_gflops", "GFLOP/s"),
    // search — the ANN walk behind /v1/knn; its per-call costs are
    // replayed on embed_warm's corpus.
    ("search.ann_build_s", "s"),
    ("search.ann_query_us", "us"),
    ("search.knn_render_us", "us"),
    // core (+ stats, fd) — p50_ms on characterize.
    ("core.P1_s", "s"),
    ("core.P2_s", "s"),
    ("core.P4_s", "s"),
    ("core.P5_s", "s"),
    ("core.P7_s", "s"),
    ("core.P8_s", "s"),
    ("core.encode_share", "ratio"),
    // Benchmark health: validity of the run, not a layer.
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.residual_share.embed", "ratio"),
    ("bench.residual_share.knn", "ratio"),
    ("bench.residual_share.characterize", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// What one run produced.
pub struct RunResult {
    /// Every correctness check and workload self-check passed so far.
    checks_passed: bool,
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Operations that were not 200, plus check mismatches.
    pub failed: u64,
    /// `(name, value)` in the order of [`END_TO_END`] or [`PER_LAYER`].
    metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Set when the run measured the generator instead of the server.
    pub invalid: Option<String>,
}

impl RunResult {
    /// An empty result.
    pub fn new() -> RunResult {
        RunResult {
            checks_passed: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            invalid: None,
        }
    }

    /// Record a failed check; the run is no longer correct.
    pub fn fail_check(&mut self, why: String) {
        self.checks_passed = false;
        self.notes.push(format!("CHECK FAILED: {why}"));
    }

    /// Count `n` operations, `bad` of which failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.checks_passed && self.failed == 0
    }

    /// Set the metrics from `(name, value)` pairs, in the order of
    /// `table`, which must name exactly the same metrics.
    pub fn set_metrics(&mut self, table: &[(&'static str, &str)], values: Vec<(&str, f64)>) {
        assert_eq!(values.len(), table.len(), "metric count drifted from the metric table");
        self.metrics = table
            .iter()
            .map(|(name, _)| {
                let v = values
                    .iter()
                    .find(|(n, _)| n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"))
                    .1;
                (*name, v)
            })
            .collect();
    }

    /// The final JSON line, or an error naming a metric the run could
    /// not measure (NaN or infinite): such a run has no result.
    pub fn json_line(&self, table: &[(&'static str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for (name, v) in &self.metrics {
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}; the run has no result"));
            }
            let unit = table.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
            metrics.push(format!(
                "\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
                escape(name),
                escape(unit)
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        ))
    }
}

/// One `name value unit` report line.
pub fn line(name: &str, value: f64, unit: &str) -> String {
    format!("  {name:<34} {value:>14.4} {unit}")
}
