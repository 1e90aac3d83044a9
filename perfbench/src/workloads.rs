//! The workload definitions. `BENCHMARK.json` names each workload and
//! says why it exists; this file holds everything else a run needs —
//! seed salt, table shapes, rates, SLO, request mix and LRU budget — so
//! one build always measures exactly these definitions.
//!
//! A run's inputs derive from `--seed ^ seed_salt`. Tables come from
//! `observatory_data::wikitables::WikiTablesConfig`.

/// Which code path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /v1/embed`, column level, Zipf over the 9-model zoo, every
    /// table new: LRU and store misses, encodes, write-through, evictions.
    EmbedCold,
    /// `POST /v1/embed` with bert over a store filled before the server
    /// starts, Zipf-popular tables: LRU and store reads, zero encodes.
    EmbedWarm,
    /// `POST /v1/knn {"corpus":true,"mode":"ann"}` against the warm index
    /// the server builds from a filled store, each query a stored table's
    /// bert vector excluding its own key: the ANN walk, zero encodes.
    /// Runs by name and under `all`, but `BENCHMARK.json` does not gate it:
    /// its sub-millisecond latency is bimodal with the reactor shard the
    /// kernel hands the connection to.
    KnnWarm,
    /// P1, P2, P4, P5, P7 and P8 with bert over a corpus, no HTTP.
    Characterize,
}

/// Open-loop traffic settings of a serving workload.
#[derive(Debug)]
pub struct Serving {
    /// Rate of the nominal phase, where latency is taken; below the knee.
    pub nominal_rps: f64,
    /// Rates of the ladder that places the knee (`max_rps_under_slo`).
    pub ladder_rps: &'static [f64],
    /// Requests prepared per second of the closed-loop saturation phase
    /// (`throughput_per_s`): a cap on the throughput it can show.
    pub saturation_rps: f64,
    /// Latency limit of `slo_attain` and the ladder.
    pub slo_ms: f64,
    /// The engine's LRU budget (`EngineConfig::cache_bytes`).
    pub cache_bytes: usize,
    /// Tables stored before the server starts; 0 for a fresh store.
    pub corpus_tables: usize,
    /// Allowed `[lo, hi]` share of embed lookups the store answers.
    pub tier2_band: Option<(f64, f64)>,
    /// Nominal-phase responses byte-compared against the reference.
    pub check_samples: usize,
}

/// Settings of the characterize workload.
#[derive(Debug)]
pub struct Characterize {
    /// Corpus size.
    pub tables: usize,
    /// P1/P2 permutation cap.
    pub permutations: usize,
    /// Round-time limit of `slo_attain`.
    pub slo_ms: f64,
    /// Rate of the traced run's serving pass, which measures the serving
    /// layers on tables of the corpus's shape.
    pub traced_serving_rps: f64,
}

/// One workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub seed_salt: u64,
    /// Data rows of every generated table.
    pub rows: usize,
    /// Set-ups per timed run; `setup_s` is their median.
    pub setup_repeats: usize,
    pub serving: Option<Serving>,
    pub characterize: Option<Characterize>,
}

/// A run whose generator ran later than this behind its schedule at
/// p99 measured the generator rather than the server: it is invalid.
pub const MAX_GEN_LAG_P99_MS: f64 = 5.0;

/// Every workload: the ones `BENCHMARK.json` gates, and knn_warm.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "embed_cold",
        kind: Kind::EmbedCold,
        seed_salt: 1,
        rows: 6,
        setup_repeats: 5,
        serving: Some(Serving {
            nominal_rps: 220.0,
            ladder_rps: &[150.0, 250.0, 350.0, 450.0],
            saturation_rps: 4000.0,
            slo_ms: 50.0,
            cache_bytes: 4 << 20,
            corpus_tables: 0,
            tier2_band: None,
            check_samples: 24,
        }),
        characterize: None,
    },
    Workload {
        name: "embed_warm",
        kind: Kind::EmbedWarm,
        seed_salt: 2,
        rows: 6,
        setup_repeats: 5,
        serving: Some(Serving {
            nominal_rps: 500.0,
            ladder_rps: &[2000.0, 5000.0, 10000.0, 15000.0],
            saturation_rps: 60000.0,
            slo_ms: 50.0,
            cache_bytes: 8 << 20,
            corpus_tables: 1600,
            tier2_band: Some((0.1, 0.8)),
            check_samples: 24,
        }),
        characterize: None,
    },
    Workload {
        name: "knn_warm",
        kind: Kind::KnnWarm,
        seed_salt: 4,
        rows: 6,
        setup_repeats: 5,
        serving: Some(Serving {
            nominal_rps: 500.0,
            ladder_rps: &[2000.0, 5000.0, 10000.0, 15000.0],
            saturation_rps: 60000.0,
            slo_ms: 50.0,
            cache_bytes: 8 << 20,
            corpus_tables: 1600,
            tier2_band: None,
            check_samples: 24,
        }),
        characterize: None,
    },
    Workload {
        name: "characterize",
        kind: Kind::Characterize,
        seed_salt: 3,
        rows: 6,
        setup_repeats: 5,
        serving: None,
        characterize: Some(Characterize {
            tables: 40,
            permutations: 24,
            slo_ms: 5000.0,
            traced_serving_rps: 200.0,
        }),
    },
];

/// The workload called `name`.
pub fn get(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
