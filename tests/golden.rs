//! Golden digests: pin the paper's numbers across commits.
//!
//! Every other determinism test compares two runs of the *same* build
//! (tiers, `--jobs`, shards, wire versus CLI). A kernel change that moves
//! the scalar reference and the SIMD tier together passes all of them
//! and still changes every figure. This suite compares against digests
//! committed in `tests/golden.digest`:
//!
//! - `embed/<model>`: a 128-bit FNV-1a hash of the f64 bits of every
//!   token, table, column, row and cell embedding that the model produces
//!   over a fixed seeded corpus, for each of the nine models;
//! - `report/<property>/<model>`: a hash of the `render_report` bytes
//!   and of the raw distribution and scalar bits of P1–P5, P7 and P8
//!   for every in-scope model over small fixed seeded corpora, and of
//!   one P6 stability value.
//!
//! A digest may change only with a stated reason (an intended change in
//! arithmetic). On a mismatch the failure message prints the complete
//! recomputed file, so an intended change can be committed from it.
//!
//! CI runs the suite under both `OBSERVATORY_SIMD` legs; the digests
//! are tier-independent because the tiers are bit-identical.

use observatory::core::framework::{
    run_property, EvalContext, PairwiseProperty, Property, RunControl,
};
use observatory::core::props::col_order::ColumnOrderInsignificance;
use observatory::core::props::entity_stability::EntityStability;
use observatory::core::props::fd::FunctionalDependencies;
use observatory::core::props::hetero_context::HeterogeneousContext;
use observatory::core::props::join_rel::{pairs_to_corpus, JoinRelationship};
use observatory::core::props::perturbation::PerturbationRobustness;
use observatory::core::props::row_order::RowOrderInsignificance;
use observatory::core::props::sample_fidelity::SampleFidelity;
use observatory::core::report::render_report;
use observatory::core::PropertyReport;
use observatory::data::entities::entity_domains;
use observatory::data::nextiajd::NextiaJdConfig;
use observatory::data::sotab::SotabConfig;
use observatory::data::spider::SpiderConfig;
use observatory::data::wikitables::WikiTablesConfig;
use observatory::models::registry::{all_models, model_by_name, MODEL_NAMES};
use observatory::runtime::{Engine, EngineConfig, FingerprintHasher};
use observatory::table::Table;
use std::collections::BTreeMap;
use std::sync::Arc;

const DIGEST_FILE: &str = "tests/golden.digest";

fn write_f64s(h: &mut FingerprintHasher, xs: &[f64]) {
    h.write(&(xs.len() as u64).to_le_bytes());
    for x in xs {
        h.write(&x.to_bits().to_le_bytes());
    }
}

fn write_opt(h: &mut FingerprintHasher, v: Option<Vec<f64>>) {
    match v {
        None => h.write(&[0]),
        Some(v) => {
            h.write(&[1]);
            write_f64s(h, &v);
        }
    }
}

fn embedding_corpus() -> Vec<Table> {
    let mut corpus =
        WikiTablesConfig { num_tables: 3, min_rows: 3, max_rows: 7, seed: 2024 }.generate();
    corpus.extend(SotabConfig { num_tables: 1, rows: 5, seed: 2024 }.generate());
    corpus
}

fn embedding_digest(model: &str, corpus: &[Table]) -> String {
    let model = model_by_name(model).expect("registry model");
    let mut h = FingerprintHasher::new();
    for table in corpus {
        let enc = model.encode_table(table);
        write_f64s(&mut h, enc.embeddings.as_slice());
        write_opt(&mut h, enc.table());
        for j in 0..table.num_cols() {
            write_opt(&mut h, enc.column(j));
        }
        for i in 0..table.num_rows() {
            write_opt(&mut h, enc.row(i));
            for j in 0..table.num_cols() {
                write_opt(&mut h, enc.cell(i, j));
            }
        }
    }
    h.finish().to_hex()
}

fn report_digest(report: &PropertyReport) -> String {
    let mut h = FingerprintHasher::new();
    h.write(render_report(report).as_bytes());
    for d in &report.records {
        h.write(d.label.as_bytes());
        write_f64s(&mut h, &d.values);
    }
    for (label, v) in &report.scalars {
        h.write(label.as_bytes());
        write_f64s(&mut h, &[*v]);
    }
    h.finish().to_hex()
}

fn report_digests(config: EngineConfig) -> BTreeMap<String, String> {
    let ctx = EvalContext {
        seed: 11,
        engine: Arc::new(Engine::new(config)),
        control: RunControl::default(),
    };
    let wiki = WikiTablesConfig { num_tables: 2, min_rows: 4, max_rows: 6, seed: 5 }.generate();
    let spider = SpiderConfig { num_tables: 1, rows: 12, seed: 7 }.generate().tables;
    let sotab = SotabConfig { num_tables: 2, rows: 5, seed: 23 }.generate();
    let joins = pairs_to_corpus(&NextiaJdConfig { num_pairs: 6, ..Default::default() }.generate());
    let p1 = RowOrderInsignificance { max_permutations: 4 };
    let p2 = ColumnOrderInsignificance { max_permutations: 4 };
    let p4 = FunctionalDependencies::default();
    let p5 = SampleFidelity { samples_per_ratio: 2, ..Default::default() };
    let p7 = PerturbationRobustness::default();
    let runs: [(&dyn Property, &[Table]); 7] = [
        (&p1, &wiki),
        (&p2, &wiki),
        (&JoinRelationship, &joins),
        (&p4, &spider),
        (&p5, &wiki),
        (&p7, &wiki),
        (&HeterogeneousContext, &sotab),
    ];
    let models = all_models();
    let mut out = BTreeMap::new();
    for (property, corpus) in runs {
        for report in run_property(property, &models, corpus, &ctx) {
            out.insert(
                format!("report/{}/{}", report.property, report.model),
                report_digest(&report),
            );
        }
    }
    let domain = &entity_domains(ctx.seed)[0];
    let p6 = EntityStability { k: 3, queries: domain.queries.clone() };
    let (a, b) = (&models[0], &models[1]);
    let v = p6.evaluate_pair(a.as_ref(), b.as_ref(), &domain.corpus, &ctx);
    let mut h = FingerprintHasher::new();
    write_opt(&mut h, v.map(|v| vec![v]));
    out.insert(format!("report/P6/{}-{}", a.name(), b.name()), h.finish().to_hex());
    out
}

fn committed() -> BTreeMap<String, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(DIGEST_FILE);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (k, v) = l.split_once(' ').unwrap_or_else(|| panic!("malformed line {l:?}"));
            (k.to_string(), v.trim().to_string())
        })
        .collect()
}

/// Compare the `prefix` section of the committed file with `got`.
fn assert_section(prefix: &str, got: &BTreeMap<String, String>) {
    let want: BTreeMap<String, String> =
        committed().into_iter().filter(|(k, _)| k.starts_with(prefix)).collect();
    if &want != got {
        let diff: Vec<String> = want
            .keys()
            .chain(got.keys())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .filter(|k| want.get(*k) != got.get(*k))
            .map(|k| format!("  {k}: committed {:?}, computed {:?}", want.get(k), got.get(k)))
            .collect();
        let file: String = got.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        panic!(
            "{prefix}* digests differ from {DIGEST_FILE}:\n{}\nrecomputed section:\n{file}",
            diff.join("\n")
        );
    }
}

#[test]
fn embeddings_match_golden() {
    let corpus = embedding_corpus();
    let got: BTreeMap<String, String> =
        MODEL_NAMES.iter().map(|m| (format!("embed/{m}"), embedding_digest(m, &corpus))).collect();
    assert_section("embed/", &got);
}

/// Two cached workers: the pooled `encode_batch` path the CLI runs.
#[test]
fn reports_match_golden() {
    assert_section("report/", &report_digests(EngineConfig { jobs: 2, ..EngineConfig::default() }));
}

/// One uncached worker: the same digests, so they do not depend on the
/// job count or on the cache.
#[test]
fn serial_uncached_reports_match_golden() {
    assert_section("report/", &report_digests(EngineConfig::serial_uncached()));
}
