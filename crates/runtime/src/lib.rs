//! # observatory-runtime
//!
//! The embedding engine: the single entry point through which every
//! property, downstream task, bench, and CLI run encodes tables.
//!
//! An [`Engine`] composes three pieces, each its own module:
//!
//! - [`fingerprint`] — stable 128-bit content hashes of (model, table,
//!   config) encode requests;
//! - [`cache`] — a sharded, byte-accounted LRU keyed by fingerprint, so
//!   re-encoding the *same bytes* (ablation sweeps, repeated properties on
//!   one corpus, downstream tasks revisiting tables) is a pointer clone;
//! - [`pool`] — a scoped worker pool whose batched results are returned in
//!   index order, making parallel encoding **bit-identical** to the serial
//!   loop at any `--jobs` value.
//!
//! Determinism guarantee: encoders in this workspace are pure functions of
//! (model weights, table bytes). The engine only ever (a) reorders *when*
//! encodes happen, never their inputs, and (b) substitutes a cached result
//! for a recompute of the same fingerprint. Both transformations preserve
//! exact `f64` equality of every result, which the cross-thread
//! determinism suite asserts model-by-model.
//!
//! [`metrics`] observes all of it with lock-free counters and fixed-bucket
//! latency histograms, rendered by the CLI as a post-run footer.

pub mod cache;
pub mod expose;
pub mod fingerprint;
pub mod metrics;
pub mod pool;
pub mod store;

pub use cache::{CacheSnapshot, CacheStats, EncodingCache, ShardOccupancy};
pub use expose::prometheus_text;
pub use fingerprint::{fingerprint_request, fingerprint_table, Fingerprint, FingerprintHasher};
pub use metrics::{Metrics, MetricsSnapshot, ModelStats};
pub use pool::{resolve_jobs, run_indexed};
pub use store::{EmbeddingStore, StoreTierStats};

use observatory_models::{ModelEncoding, TableEncoder};
use observatory_obs as obs;
use observatory_table::Table;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Engine construction parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads for [`Engine::encode_batch`] (1 = serial inline).
    pub jobs: usize,
    /// Encoding-cache capacity in bytes (0 disables caching).
    pub cache_bytes: usize,
}

/// Default cache budget: 256 MiB, a few thousand typical encodings.
pub const DEFAULT_CACHE_BYTES: usize = 256 << 20;

impl Default for EngineConfig {
    fn default() -> Self {
        Self { jobs: resolve_jobs(None), cache_bytes: DEFAULT_CACHE_BYTES }
    }
}

impl EngineConfig {
    /// Defaults overridden by `OBSERVATORY_JOBS` / `OBSERVATORY_CACHE_MB`.
    pub fn from_env() -> Self {
        let cache_bytes = std::env::var("OBSERVATORY_CACHE_MB")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map_or(DEFAULT_CACHE_BYTES, |mb| mb << 20);
        Self { jobs: resolve_jobs(None), cache_bytes }
    }

    /// Serial, cache-less engine — the reference configuration the
    /// determinism tests compare against.
    pub fn serial_uncached() -> Self {
        Self { jobs: 1, cache_bytes: 0 }
    }
}

/// The embedding engine: cache + pool + metrics behind one handle.
/// Cheap to share (`Arc<Engine>`); all methods take `&self`.
pub struct Engine {
    config: EngineConfig,
    cache: EncodingCache,
    metrics: Metrics,
    /// Optional tier-2 persistent store, attached at most once (before
    /// the first encode) through the [`EmbeddingStore`] port.
    store: OnceLock<Arc<dyn EmbeddingStore>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("jobs", &self.config.jobs)
            .field("cache_bytes", &self.config.cache_bytes)
            .finish_non_exhaustive()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl Engine {
    /// Build an engine from a config.
    pub fn new(config: EngineConfig) -> Self {
        Self {
            cache: EncodingCache::new(config.cache_bytes),
            metrics: Metrics::new(),
            config,
            store: OnceLock::new(),
        }
    }

    /// Attach a tier-2 persistent store behind the LRU. First-wins like
    /// [`configure_global`]: returns `false` (and changes nothing) if a
    /// store is already attached. Attach before the first encode, or
    /// earlier encodes simply won't have been written through.
    pub fn attach_store(&self, store: Arc<dyn EmbeddingStore>) -> bool {
        self.store.set(store).is_ok()
    }

    /// The attached tier-2 store, if any.
    pub fn store(&self) -> Option<&Arc<dyn EmbeddingStore>> {
        self.store.get()
    }

    /// Flush the tier-2 store's write-ahead log to stable storage
    /// (no-op without a store). The serve drain path calls this so an
    /// acked corpus survives machine restarts, not just process exits.
    pub fn flush_store(&self) -> std::io::Result<()> {
        match self.store.get() {
            Some(store) => store.flush(),
            None => Ok(()),
        }
    }

    /// Worker thread count used by [`Engine::encode_batch`].
    pub fn jobs(&self) -> usize {
        self.config.jobs
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Engine metrics registry (for recording; use
    /// [`Engine::metrics_snapshot`] to read).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Frozen metrics state.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Cache statistics across both tiers: the LRU's own counters plus
    /// the tier-2 (disk) hit/miss/write counters and, when a store is
    /// attached, its record count and generation.
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = self.cache.stats();
        let snap = self.metrics.snapshot();
        stats.tier2_hits = snap.tier2_hits;
        stats.tier2_misses = snap.tier2_misses;
        stats.tier2_writes = snap.tier2_writes;
        if let Some(store) = self.store.get() {
            let tier = store.tier_stats();
            stats.tier2_enabled = true;
            stats.tier2_records = tier.records;
            stats.tier2_generation = tier.generation;
        }
        stats
    }

    /// Drop all cached encodings (counters survive). Benches use this to
    /// measure cold-cache throughput on a warm process.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Encode one table through the cache. On a miss the model runs and
    /// the result is admitted; on a hit the model is never consulted.
    pub fn encode_table(&self, model: &dyn TableEncoder, table: &Table) -> Arc<ModelEncoding> {
        let fp = fingerprint_table(model.name(), table);
        self.encode_fingerprinted(model, table, fp, None)
    }

    /// `parent` is the batch span id when the call runs on a pool worker
    /// — the worker's thread-local span stack cannot see the caller's
    /// spans, so the edge is threaded explicitly.
    fn encode_fingerprinted(
        &self,
        model: &dyn TableEncoder,
        table: &Table,
        fp: Fingerprint,
        parent: Option<u64>,
    ) -> Arc<ModelEncoding> {
        self.encode_fingerprinted_timed(model, table, fp, parent).0
    }

    /// [`Engine::encode_fingerprinted`] plus per-stage wall timings, the
    /// basis of the serving path's request stage breakdown.
    fn encode_fingerprinted_timed(
        &self,
        model: &dyn TableEncoder,
        table: &Table,
        fp: Fingerprint,
        parent: Option<u64>,
    ) -> (Arc<ModelEncoding>, EncodeTiming) {
        match self.lookup(fp, parent) {
            (Some(hit), timing) => (hit, timing),
            (None, timing) => self.encode_miss(model, table, fp, parent, timing),
        }
    }

    /// Probe both cache tiers for `fp` — the one implementation of the
    /// tier logic. Counts exactly one LRU lookup (hit or miss) and, on an
    /// LRU miss with a store attached, exactly one tier-2 lookup; a
    /// verified store record is promoted into the LRU so repeats of the
    /// same key pay mmap+decode once. `None` means both tiers missed:
    /// the model must run, through [`Engine::encode_misses_timed`] so
    /// the lookup is not counted twice.
    pub fn lookup(
        &self,
        fp: Fingerprint,
        parent: Option<u64>,
    ) -> (Option<Arc<ModelEncoding>>, EncodeTiming) {
        let mut timing = EncodeTiming::default();
        if let Some(hit) = self.cache.get(fp) {
            self.metrics.record_hit();
            obs::event(obs::Level::Trace, "cache", "hit");
            timing.cache_hit = true;
            return (Some(hit), timing);
        }
        self.metrics.record_miss();
        if let Some(store) = self.store.get() {
            let mut span = obs::span(obs::Level::Debug, "store", "read").with_parent(parent);
            let start = Instant::now();
            let loaded = store.load(fp);
            timing.store_us = as_us(start.elapsed());
            if let Some(enc) = loaded {
                span.record("hit", 1u64);
                self.metrics.record_tier2_hit();
                self.cache.insert(fp, Arc::clone(&enc));
                timing.tier2_hit = true;
                return (Some(enc), timing);
            }
            span.record("hit", 0u64);
            self.metrics.record_tier2_miss();
        }
        (None, timing)
    }

    /// Run the model for a fingerprint both tiers missed, admit the
    /// result into the LRU and write it through to the store.
    fn encode_miss(
        &self,
        model: &dyn TableEncoder,
        table: &Table,
        fp: Fingerprint,
        parent: Option<u64>,
        mut timing: EncodeTiming,
    ) -> (Arc<ModelEncoding>, EncodeTiming) {
        let mut span = obs::span(obs::Level::Debug, "runtime", "encode")
            .with_parent(parent)
            .with("model", model.name())
            .with("rows", table.num_rows())
            .with("cols", table.num_cols());
        let start = Instant::now();
        let encoding = Arc::new(model.encode_table(table));
        let elapsed = start.elapsed();
        timing.encode_us = as_us(elapsed);
        self.metrics.record_encode(model.name(), elapsed, encoding.embeddings.rows());
        span.record("tokens", encoding.embeddings.rows());
        self.cache.insert(fp, Arc::clone(&encoding));
        if let Some(store) = self.store.get() {
            let _span = obs::span(obs::Level::Debug, "store", "write").with_parent(parent);
            let start = Instant::now();
            store.save(fp, &encoding);
            timing.write_us = as_us(start.elapsed());
            self.metrics.record_tier2_write();
        }
        (encoding, timing)
    }

    /// Encode a batch of tables on the worker pool. Results are in input
    /// order and bit-identical to calling [`Engine::encode_table`] in a
    /// serial loop, for any job count.
    ///
    /// Duplicate tables inside one batch (frequent in permutation sweeps,
    /// where the identity permutation reappears) are encoded once and the
    /// resulting `Arc` shared across their positions.
    pub fn encode_batch(
        &self,
        model: &dyn TableEncoder,
        tables: &[Table],
    ) -> Vec<Arc<ModelEncoding>> {
        self.encode_batch_timed(model, tables).0
    }

    /// [`Engine::encode_batch`] plus one [`EncodeTiming`] per input
    /// position. Duplicate tables share the timing of the position that
    /// actually encoded (they share the work, so they share its cost
    /// attribution).
    pub fn encode_batch_timed(
        &self,
        model: &dyn TableEncoder,
        tables: &[Table],
    ) -> (Vec<Arc<ModelEncoding>>, Vec<EncodeTiming>) {
        let fps: Vec<Fingerprint> =
            tables.iter().map(|t| fingerprint_table(model.name(), t)).collect();
        self.batch_timed(model, tables, &fps, |table, fp, parent| {
            self.encode_fingerprinted_timed(model, table, fp, parent)
        })
    }

    /// Encode tables whose fingerprints `fps` an earlier
    /// [`Engine::lookup`] already missed on both tiers: nothing is
    /// counted as a lookup again. Same ordering, deduplication and
    /// timing contract as [`Engine::encode_batch_timed`]. A table that an
    /// earlier encode admitted into the LRU since its lookup is taken
    /// from there instead of being encoded twice.
    pub fn encode_misses_timed(
        &self,
        model: &dyn TableEncoder,
        tables: &[Table],
        fps: &[Fingerprint],
    ) -> (Vec<Arc<ModelEncoding>>, Vec<EncodeTiming>) {
        assert_eq!(tables.len(), fps.len(), "one fingerprint per table");
        self.batch_timed(model, tables, fps, |table, fp, parent| match self.cache.peek(fp) {
            Some(hit) => (hit, EncodeTiming { cache_hit: true, ..EncodeTiming::default() }),
            None => self.encode_miss(model, table, fp, parent, EncodeTiming::default()),
        })
    }

    /// The batch scaffolding shared by both entry points: dedup by
    /// fingerprint, run `encode(table, fp, parent span)` once per unique
    /// table on the pool, fan results back out in input order.
    fn batch_timed(
        &self,
        model: &dyn TableEncoder,
        tables: &[Table],
        fps: &[Fingerprint],
        encode: impl Fn(&Table, Fingerprint, Option<u64>) -> (Arc<ModelEncoding>, EncodeTiming) + Sync,
    ) -> (Vec<Arc<ModelEncoding>>, Vec<EncodeTiming>) {
        self.metrics.record_batch();
        let mut batch_span = obs::span(obs::Level::Info, "runtime", "encode_batch")
            .with("model", model.name())
            .with("tables", tables.len())
            .with("jobs", self.config.jobs);
        // Deduplicate within the batch: map each input position to the
        // first position carrying its fingerprint.
        let mut first_of: HashMap<u128, usize> = HashMap::with_capacity(tables.len());
        let mut unique: Vec<usize> = Vec::with_capacity(tables.len());
        let mut unique_slot: Vec<usize> = Vec::with_capacity(tables.len());
        for (i, fp) in fps.iter().enumerate() {
            let slot = *first_of.entry(fp.0).or_insert_with(|| {
                unique.push(i);
                unique.len() - 1
            });
            unique_slot.push(slot);
        }
        batch_span.record("unique", unique.len());
        let parent = batch_span.id();
        let encoded: Vec<(Arc<ModelEncoding>, EncodeTiming)> =
            run_indexed(self.config.jobs, unique.len(), |u| {
                encode(&tables[unique[u]], fps[unique[u]], parent)
            });
        let timings = unique_slot.iter().map(|&slot| encoded[slot].1).collect();
        let out = unique_slot.into_iter().map(|slot| Arc::clone(&encoded[slot].0)).collect();
        (out, timings)
    }
}

/// Per-encode stage wall timings observed inside the engine, in
/// microseconds. Produced by [`Engine::encode_batch_timed`]; the serve
/// crate folds these into its per-request stage breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncodeTiming {
    /// Model forward time (zero on any cache or store hit).
    pub encode_us: u64,
    /// Tier-2 store read time (zero without a store, or on a tier-1 hit).
    pub store_us: u64,
    /// Tier-2 write-through time (zero when nothing was written).
    pub write_us: u64,
    /// Tier 1 (the LRU) answered.
    pub cache_hit: bool,
    /// Tier 2 (the store) answered.
    pub tier2_hit: bool,
}

/// Saturating whole microseconds.
fn as_us(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

static GLOBAL: OnceLock<Arc<Engine>> = OnceLock::new();

/// Install the process-wide engine. Returns `false` (and changes nothing)
/// if one was already installed — the CLI calls this exactly once, before
/// any encode, from `--jobs`/env flags.
pub fn configure_global(config: EngineConfig) -> bool {
    GLOBAL.set(Arc::new(Engine::new(config))).is_ok()
}

/// The process-wide engine, created from [`EngineConfig::from_env`] on
/// first use if [`configure_global`] was never called.
pub fn global() -> Arc<Engine> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(Engine::new(EngineConfig::from_env()))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use observatory_linalg::Matrix;
    use observatory_models::{Capabilities, Readout, TokenProvenance};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// A cheap deterministic encoder: embeddings are a pure function of
    /// the table's cell text, and an atomic counter observes real runs.
    struct StubModel {
        runs: AtomicU64,
    }

    impl StubModel {
        fn new() -> Self {
            Self { runs: AtomicU64::new(0) }
        }
    }

    impl TableEncoder for StubModel {
        fn name(&self) -> &str {
            "stub"
        }
        fn display_name(&self) -> &str {
            "Stub"
        }
        fn dim(&self) -> usize {
            4
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities::all()
        }
        fn encode_table(&self, table: &Table) -> ModelEncoding {
            self.runs.fetch_add(1, Ordering::SeqCst);
            let mut rows = Vec::new();
            let mut provenance = Vec::new();
            for (j, col) in table.columns.iter().enumerate() {
                for (i, v) in col.values.iter().enumerate() {
                    let s = v.to_text();
                    let h = s.bytes().fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64));
                    rows.push(vec![h as f64, i as f64, j as f64, s.len() as f64]);
                    provenance.push(TokenProvenance {
                        row: (i + 1) as u32,
                        col: (j + 1) as u32,
                        special: false,
                    });
                }
            }
            if rows.is_empty() {
                rows.push(vec![0.0; 4]);
                provenance.push(TokenProvenance { row: 0, col: 0, special: true });
            }
            ModelEncoding {
                embeddings: Matrix::from_rows(&rows),
                provenance,
                table_cls: None,
                column_cls: vec![None; table.num_cols()],
                rows_encoded: table.num_rows(),
                cols_encoded: table.num_cols(),
                column_readout: Readout::MeanPool,
                table_readout: Readout::MeanPool,
                capabilities: Capabilities::all(),
            }
        }
        fn encode_text(&self, text: &str) -> Vec<f64> {
            vec![text.len() as f64; 4]
        }
    }

    fn table(tag: i64) -> Table {
        use observatory_table::{Column, Value};
        Table::new(
            format!("t{tag}"),
            vec![
                Column::new("id", (0..6).map(|i| Value::Int(i + tag)).collect()),
                Column::new(
                    "name",
                    (0..6).map(|i| Value::text(format!("row {i} of {tag}"))).collect(),
                ),
            ],
        )
    }

    #[test]
    fn cache_hit_skips_model() {
        let engine = Engine::new(EngineConfig { jobs: 1, cache_bytes: 1 << 22 });
        let model = StubModel::new();
        let t = table(1);
        let a = engine.encode_table(&model, &t);
        let b = engine.encode_table(&model, &t);
        assert_eq!(model.runs.load(Ordering::SeqCst), 1, "second call must be a hit");
        assert_eq!(a.embeddings, b.embeddings);
        let s = engine.metrics_snapshot();
        assert_eq!((s.cache_hits, s.cache_misses, s.encodes), (1, 1, 1));
    }

    #[test]
    fn batch_matches_serial_at_any_jobs() {
        let tables: Vec<Table> = (0..12).map(table).collect();
        let reference: Vec<ModelEncoding> = {
            let model = StubModel::new();
            tables.iter().map(|t| model.encode_table(t)).collect()
        };
        for jobs in [1, 2, 4, 8] {
            let engine = Engine::new(EngineConfig { jobs, cache_bytes: 0 });
            let model = StubModel::new();
            let out = engine.encode_batch(&model, &tables);
            assert_eq!(out.len(), tables.len());
            for (got, want) in out.iter().zip(&reference) {
                assert_eq!(got.embeddings, want.embeddings, "jobs={jobs}");
                assert_eq!(got.provenance, want.provenance, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn batch_deduplicates_identical_tables() {
        let engine = Engine::new(EngineConfig { jobs: 2, cache_bytes: 1 << 22 });
        let model = StubModel::new();
        let t = table(7);
        let batch = vec![t.clone(), table(8), t.clone(), t.clone()];
        let out = engine.encode_batch(&model, &batch);
        assert_eq!(model.runs.load(Ordering::SeqCst), 2, "3 duplicates encode once");
        assert_eq!(out[0].embeddings, out[2].embeddings);
        assert!(Arc::ptr_eq(&out[0], &out[3]), "duplicates share one Arc");
    }

    #[test]
    fn batch_timings_reflect_tiers() {
        let engine = Engine::new(EngineConfig { jobs: 2, cache_bytes: 1 << 22 });
        let store = Arc::new(MapStore::default());
        assert!(engine.attach_store(Arc::clone(&store) as Arc<dyn EmbeddingStore>));
        let model = StubModel::new();
        let t = table(31);
        let batch = vec![t.clone(), table(32), t.clone()];
        let (out, timings) = engine.encode_batch_timed(&model, &batch);
        assert_eq!(out.len(), 3);
        assert_eq!(timings.len(), 3);
        for tm in &timings {
            assert!(!tm.cache_hit && !tm.tier2_hit, "cold batch misses both tiers: {tm:?}");
        }
        assert_eq!(timings[0], timings[2], "duplicates share the encoding position's timing");

        // Warm repeat: tier-1 hits, nothing encoded or touched on disk.
        let (_, warm) = engine.encode_batch_timed(&model, &batch);
        for tm in &warm {
            assert!(tm.cache_hit, "warm batch hits the LRU: {tm:?}");
            assert_eq!((tm.encode_us, tm.store_us, tm.write_us), (0, 0, 0));
        }

        // Evict tier 1: the store answers and the model never runs again.
        engine.clear_cache();
        let runs_before = model.runs.load(Ordering::SeqCst);
        let (_, disk) = engine.encode_batch_timed(&model, &batch);
        assert_eq!(model.runs.load(Ordering::SeqCst), runs_before, "tier-2 hits skip the model");
        for tm in &disk {
            assert!(tm.tier2_hit && !tm.cache_hit, "{tm:?}");
            assert_eq!((tm.encode_us, tm.write_us), (0, 0));
        }
    }

    #[test]
    fn disabled_cache_still_correct() {
        let engine = Engine::new(EngineConfig { jobs: 1, cache_bytes: 0 });
        let model = StubModel::new();
        let t = table(3);
        let a = engine.encode_table(&model, &t);
        let b = engine.encode_table(&model, &t);
        assert_eq!(model.runs.load(Ordering::SeqCst), 2);
        assert_eq!(a.embeddings, b.embeddings);
    }

    #[test]
    fn metrics_invariants_after_workload() {
        let engine = Engine::new(EngineConfig { jobs: 2, cache_bytes: 1 << 22 });
        let model = StubModel::new();
        let tables: Vec<Table> = (0..5).map(table).collect();
        engine.encode_batch(&model, &tables);
        engine.encode_batch(&model, &tables); // all hits
        let s = engine.metrics_snapshot();
        assert_eq!(s.lookups(), s.cache_hits + s.cache_misses);
        assert_eq!(s.encodes, s.cache_misses);
        assert_eq!(s.encode_latency.count, s.encodes);
        assert_eq!(s.cache_hits, 5);
        assert_eq!(s.batches, 2);
        assert_eq!(engine.cache_stats().hits, 5);
    }

    #[test]
    fn global_is_a_singleton() {
        let a = global();
        let b = global();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!configure_global(EngineConfig::default()), "already installed");
    }

    #[test]
    fn engine_debug_is_compact() {
        let engine = Engine::new(EngineConfig { jobs: 3, cache_bytes: 1024 });
        let s = format!("{engine:?}");
        assert!(s.contains("jobs: 3"));
    }

    /// Trait-level test double: a HashMap behind a mutex, cloning
    /// encodings on both sides of the boundary like a real disk store.
    #[derive(Default)]
    struct MapStore {
        map: Mutex<std::collections::HashMap<u128, ModelEncoding>>,
        reads: AtomicU64,
        writes: AtomicU64,
    }

    impl EmbeddingStore for MapStore {
        fn load(&self, fp: Fingerprint) -> Option<Arc<ModelEncoding>> {
            let hit = self.map.lock().unwrap().get(&fp.0).cloned().map(Arc::new);
            if hit.is_some() {
                self.reads.fetch_add(1, Ordering::SeqCst);
            }
            hit
        }
        fn save(&self, fp: Fingerprint, enc: &ModelEncoding) {
            self.writes.fetch_add(1, Ordering::SeqCst);
            self.map.lock().unwrap().insert(fp.0, enc.clone());
        }
        fn flush(&self) -> std::io::Result<()> {
            Ok(())
        }
        fn tier_stats(&self) -> StoreTierStats {
            StoreTierStats {
                records: self.map.lock().unwrap().len() as u64,
                generation: 7,
                ..Default::default()
            }
        }
    }

    #[test]
    fn tier2_hit_skips_model_and_counters_line_up() {
        let engine = Engine::new(EngineConfig { jobs: 1, cache_bytes: 1 << 22 });
        let store = Arc::new(MapStore::default());
        assert!(engine.attach_store(Arc::clone(&store) as Arc<dyn EmbeddingStore>));
        assert!(
            !engine.attach_store(Arc::clone(&store) as Arc<dyn EmbeddingStore>),
            "attach is first-wins"
        );
        let model = StubModel::new();
        let t = table(11);
        let a = engine.encode_table(&model, &t); // miss both tiers → encode + write-through
        assert_eq!(model.runs.load(Ordering::SeqCst), 1);
        assert_eq!(store.writes.load(Ordering::SeqCst), 1);

        // Evict tier 1 but keep the store: the next encode must be a
        // tier-2 hit that never runs the model and is bitwise identical.
        engine.clear_cache();
        let b = engine.encode_table(&model, &t);
        assert_eq!(model.runs.load(Ordering::SeqCst), 1, "tier-2 hit must skip the model");
        assert_eq!(a.embeddings, b.embeddings);
        assert_eq!(a.provenance, b.provenance);

        let c = engine.encode_table(&model, &t); // promoted → tier-1 hit
        assert!(Arc::ptr_eq(&b, &c), "tier-2 hit was promoted into the LRU");

        let s = engine.metrics_snapshot();
        assert_eq!((s.cache_hits, s.cache_misses), (1, 2));
        assert_eq!((s.tier2_hits, s.tier2_misses, s.tier2_writes), (1, 1, 1));
        assert_eq!(
            s.encodes,
            s.cache_misses - s.tier2_hits,
            "with a store, encodes == misses - tier2 hits"
        );

        let cs = engine.cache_stats();
        assert!(cs.tier2_enabled);
        assert_eq!((cs.tier2_hits, cs.tier2_misses, cs.tier2_writes), (1, 1, 1));
        assert_eq!(cs.tier2_records, 1);
        assert_eq!(cs.tier2_generation, 7);
        assert!(engine.flush_store().is_ok());
    }

    #[test]
    fn no_store_leaves_tier2_counters_zero() {
        let engine = Engine::new(EngineConfig { jobs: 1, cache_bytes: 1 << 22 });
        let model = StubModel::new();
        engine.encode_table(&model, &table(21));
        let cs = engine.cache_stats();
        assert!(!cs.tier2_enabled);
        assert_eq!((cs.tier2_hits, cs.tier2_misses, cs.tier2_writes), (0, 0, 0));
        let s = engine.metrics_snapshot();
        assert_eq!(s.encodes, s.cache_misses, "legacy invariant holds without a store");
    }
}
