//! Wire schema of the service: JSON request parsing (through
//! `observatory-obs`'s zero-dependency parser) and response rendering.
//!
//! ## `POST /v1/embed`
//!
//! ```json
//! {
//!   "model": "bert",
//!   "level": "table" | "column" | "row" | "cell",
//!   "table": {"name": "t", "columns": [{"header": "id", "values": [1, "a", null]}]},
//!   "id": "optional client correlation id, echoed back"
//! }
//! ```
//!
//! Cell values map deterministically: JSON strings → text, integral
//! numbers in the exact-`f64` integer range → ints, other numbers →
//! floats, `null` → null, booleans → bools. This mirrors what the CSV
//! loader would infer for the same lexical values, so a table served
//! over the wire fingerprints identically to the same table on disk.
//!
//! ## `POST /v1/knn`
//!
//! ```json
//! {"k": 3, "items": [{"key": "a", "vector": [..]}], "queries": [[..]],
//!  "exclude": ["a"],
//!  "mode": "flat" | "ann", "ef": 64, "shards": 4, "corpus": false}
//! ```
//!
//! `exclude[i]` (optional) is the key excluded from query `i`'s results
//! (self-match suppression, mirrors `KnnIndex::query`). `mode`
//! (default `"flat"`) selects the exact scan or the sharded HNSW index;
//! `ef` and `shards` tune the ANN path and are rejected under
//! `"mode":"flat"` so a typo cannot silently degrade an exact request.
//! `"corpus":true` queries the server's warm-started store-backed index
//! (keys are content fingerprints) instead of inline `items`.

use observatory_models::ModelEncoding;
use observatory_obs::json::{escape, parse, Json};
use observatory_search::ann::{AnnIndex, HnswConfig, SearchParams, ShardedHnsw};
use observatory_search::knn::KnnIndex;
use observatory_table::{Column, Table, Value};
use std::fmt::Write;

/// Hard cap on cells per served table: bounds worst-case encode cost per
/// admitted request (oversize → 413).
pub const MAX_CELLS: usize = 100_000;

/// Which readout of the encoding the response carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// One table vector.
    Table,
    /// One vector per column.
    Column,
    /// One vector per row.
    Row,
    /// One vector per cell, row-major.
    Cell,
}

impl Level {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Table => "table",
            Level::Column => "column",
            Level::Row => "row",
            Level::Cell => "cell",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "table" => Some(Level::Table),
            "column" => Some(Level::Column),
            "row" => Some(Level::Row),
            "cell" => Some(Level::Cell),
            _ => None,
        }
    }
}

/// A parsed `/v1/embed` request.
#[derive(Debug, Clone)]
pub struct EmbedRequest {
    /// Registry model name (validated against the zoo by the server).
    pub model: String,
    /// Requested readout level.
    pub level: Level,
    /// The table to encode.
    pub table: Table,
    /// Client correlation id, echoed in the response.
    pub id: Option<String>,
}

/// Why an embed request failed to parse.
#[derive(Debug, PartialEq, Eq)]
pub enum ApiError {
    /// Malformed JSON or schema violation → 400.
    Bad(String),
    /// Table exceeds [`MAX_CELLS`] → 413.
    TooLarge,
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::Bad(m) => write!(f, "{m}"),
            ApiError::TooLarge => write!(f, "table exceeds {MAX_CELLS} cells"),
        }
    }
}

fn bad(msg: impl Into<String>) -> ApiError {
    ApiError::Bad(msg.into())
}

/// Map one JSON cell to a table [`Value`] (see module docs).
fn value_from_json(v: &Json) -> Value {
    match v {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::Bool(*b),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
                Value::Int(*n as i64)
            } else {
                Value::Float(*n)
            }
        }
        Json::Str(s) => Value::text(s.clone()),
        // Nested containers have no cell meaning; keep their JSON text.
        other => Value::text(format!("{other:?}")),
    }
}

/// Parse a table object: `{"name": ..., "columns": [{"header", "values"}]}`.
pub fn table_from_json(v: &Json) -> Result<Table, ApiError> {
    let name = v.get("name").and_then(Json::as_str).unwrap_or("request").to_string();
    let cols = v
        .get("columns")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("table.columns must be an array"))?;
    if cols.is_empty() {
        return Err(bad("table needs at least one column"));
    }
    let mut columns = Vec::with_capacity(cols.len());
    let mut rows = None;
    let mut cells = 0usize;
    for (j, col) in cols.iter().enumerate() {
        let header = col
            .get("header")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| format!("col{j}"));
        let values = col
            .get("values")
            .and_then(Json::as_array)
            .ok_or_else(|| bad(format!("column {j} needs a values array")))?;
        match rows {
            None => rows = Some(values.len()),
            Some(r) if r != values.len() => {
                return Err(bad(format!(
                    "ragged table: column {j} has {} values, expected {r}",
                    values.len()
                )))
            }
            Some(_) => {}
        }
        cells += values.len();
        if cells > MAX_CELLS {
            return Err(ApiError::TooLarge);
        }
        columns.push(Column::new(header, values.iter().map(value_from_json).collect()));
    }
    Ok(Table::new(name, columns))
}

/// Parse a `/v1/embed` body.
pub fn parse_embed(body: &str) -> Result<EmbedRequest, ApiError> {
    let v = parse(body).map_err(bad)?;
    let model = v
        .get("model")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field 'model'"))?
        .to_string();
    let level = match v.get("level") {
        None => Level::Column,
        Some(l) => {
            let s = l.as_str().ok_or_else(|| bad("'level' must be a string"))?;
            Level::from_str(s)
                .ok_or_else(|| bad(format!("unknown level '{s}' (table|column|row|cell)")))?
        }
    };
    let table =
        table_from_json(v.get("table").ok_or_else(|| bad("missing object field 'table'"))?)?;
    let id = v.get("id").and_then(Json::as_str).map(str::to_string);
    Ok(EmbedRequest { model, level, table, id })
}

/// Append one f64 as JSON. `Display` for finite `f64` is shortest
/// round-trip, so the client parses back the bit-identical double;
/// non-finite values (unrepresentable in JSON) render as `null`. The
/// digits are formatted straight into `out`: no per-value allocation.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_vector(out: &mut String, v: Option<Vec<f64>>) {
    match v {
        None => out.push_str("null"),
        Some(vec) => {
            out.push('[');
            for (i, x) in vec.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_f64(out, *x);
            }
            out.push(']');
        }
    }
}

/// Render the `/v1/embed` response body for `enc` at `level`.
/// `embeddings` is always an array of vectors (or `null` slots where the
/// model does not expose that readout): 1 for `table`, `cols` for
/// `column`, `rows` for `row`, `rows*cols` row-major for `cell`.
pub fn render_embed_response(req: &EmbedRequest, enc: &ModelEncoding) -> String {
    let rows = enc.rows_encoded;
    let cols = enc.cols_encoded;
    let vectors: Vec<Option<Vec<f64>>> = match req.level {
        Level::Table => vec![enc.table()],
        Level::Column => (0..cols).map(|j| enc.column(j)).collect(),
        Level::Row => (0..rows).map(|i| enc.row(i)).collect(),
        Level::Cell => (0..rows)
            .flat_map(|i| (0..cols).map(move |j| (i, j)))
            .map(|(i, j)| enc.cell(i, j))
            .collect(),
    };
    // One allocation: ~22 bytes covers a shortest-round-trip f64 + comma.
    let values: usize = vectors.iter().flatten().map(Vec::len).sum();
    let mut out = String::with_capacity(128 + vectors.len() * 6 + values * 22);
    out.push('{');
    if let Some(id) = &req.id {
        let _ = write!(out, "\"id\":\"{}\",", escape(id));
    }
    let _ = write!(
        out,
        "\"model\":\"{}\",\"level\":\"{}\",\"dim\":{},\"rows\":{rows},\"cols\":{cols},\"count\":{},\"embeddings\":[",
        escape(&req.model),
        req.level.as_str(),
        enc.dim(),
        vectors.len(),
    );
    for (i, v) in vectors.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_vector(&mut out, v);
    }
    out.push_str("]}");
    out
}

/// Index selection for a `/v1/knn` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnMode {
    /// Exact brute-force scan (recall 1) — the default.
    Flat,
    /// Sharded HNSW with int8 traversal and exact f64 re-rank.
    Ann,
}

impl KnnMode {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            KnnMode::Flat => "flat",
            KnnMode::Ann => "ann",
        }
    }
}

/// A parsed `/v1/knn` request.
#[derive(Debug, Clone)]
pub struct KnnRequest {
    /// Neighbours per query.
    pub k: usize,
    /// Indexed (key, vector) pairs (empty in corpus mode).
    pub items: Vec<(String, Vec<f64>)>,
    /// Query vectors.
    pub queries: Vec<Vec<f64>>,
    /// Per-query excluded key (self-match suppression), if given.
    pub exclude: Vec<Option<String>>,
    /// Exact scan or ANN graph.
    pub mode: KnnMode,
    /// ANN beam width override (`"ef"`), `None` = index default.
    pub ef_search: Option<usize>,
    /// ANN shard count for inline items, `None` = 1.
    pub shards: Option<usize>,
    /// Query the server's warm store-backed index instead of `items`.
    pub corpus: bool,
}

fn vector_from_json(v: &Json, what: &str) -> Result<Vec<f64>, ApiError> {
    let arr = v.as_array().ok_or_else(|| bad(format!("{what} must be a number array")))?;
    arr.iter()
        .map(|x| x.as_f64().ok_or_else(|| bad(format!("{what} must contain only numbers"))))
        .collect()
}

/// Parse a positive-integer field in `[1, max]`, `None` when absent.
fn int_param(v: &Json, name: &str, max: f64) -> Result<Option<usize>, ApiError> {
    match v.get(name) {
        None => Ok(None),
        Some(j) => {
            let n = j.as_f64().ok_or_else(|| bad(format!("'{name}' must be a number")))?;
            if !(n.fract() == 0.0 && (1.0..=max).contains(&n)) {
                return Err(bad(format!("'{name}' must be an integer in [1, {max}]")));
            }
            Ok(Some(n as usize))
        }
    }
}

/// Parse a `/v1/knn` body.
pub fn parse_knn(body: &str) -> Result<KnnRequest, ApiError> {
    let v = parse(body).map_err(bad)?;
    let k = v.get("k").and_then(Json::as_f64).unwrap_or(10.0);
    if !(k.fract() == 0.0 && (1.0..=10_000.0).contains(&k)) {
        return Err(bad("'k' must be an integer in [1, 10000]"));
    }
    let mode = match v.get("mode").map(|m| m.as_str().ok_or(())) {
        None => KnnMode::Flat,
        Some(Ok("flat")) => KnnMode::Flat,
        Some(Ok("ann")) => KnnMode::Ann,
        _ => return Err(bad("'mode' must be \"flat\" or \"ann\"")),
    };
    let ef_search = int_param(&v, "ef", 100_000.0)?;
    let shards = int_param(&v, "shards", 64.0)?;
    if mode == KnnMode::Flat && (ef_search.is_some() || shards.is_some()) {
        // A typo'd mode must not silently degrade an exact request.
        return Err(bad("'ef' and 'shards' require \"mode\":\"ann\""));
    }
    let corpus = match v.get("corpus") {
        None => false,
        Some(j) => j.as_bool().ok_or_else(|| bad("'corpus' must be a boolean"))?,
    };
    let mut items = Vec::new();
    let mut dim = None;
    if corpus {
        // Corpus mode searches the server-side index; inline items would
        // be dead weight at best and ambiguity at worst.
        if v.get("items").is_some() {
            return Err(bad("'corpus':true cannot be combined with 'items'"));
        }
    } else {
        let items_json =
            v.get("items").and_then(Json::as_array).ok_or_else(|| bad("missing 'items' array"))?;
        if items_json.is_empty() {
            return Err(bad("'items' must be non-empty"));
        }
        items.reserve(items_json.len());
        for (i, item) in items_json.iter().enumerate() {
            let key = item
                .get("key")
                .and_then(Json::as_str)
                .ok_or_else(|| bad(format!("items[{i}] needs a string 'key'")))?
                .to_string();
            let vector = vector_from_json(
                item.get("vector").ok_or_else(|| bad(format!("items[{i}] needs a 'vector'")))?,
                &format!("items[{i}].vector"),
            )?;
            match dim {
                None => dim = Some(vector.len()),
                Some(d) if d != vector.len() => {
                    return Err(bad(format!(
                        "items[{i}].vector has dim {}, expected {d}",
                        vector.len()
                    )))
                }
                Some(_) => {}
            }
            items.push((key, vector));
        }
        if dim == Some(0) {
            return Err(bad("vectors must be non-empty"));
        }
    }
    let queries_json =
        v.get("queries").and_then(Json::as_array).ok_or_else(|| bad("missing 'queries' array"))?;
    let mut queries = Vec::with_capacity(queries_json.len());
    for (i, q) in queries_json.iter().enumerate() {
        let vector = vector_from_json(q, &format!("queries[{i}]"))?;
        if vector.is_empty() {
            return Err(bad("vectors must be non-empty"));
        }
        match dim {
            None => dim = Some(vector.len()),
            Some(d) if d != vector.len() => {
                return Err(bad(format!("queries[{i}] has dim {}, expected {d}", vector.len())))
            }
            Some(_) => {}
        }
        queries.push(vector);
    }
    let exclude = match v.get("exclude").and_then(Json::as_array) {
        None => vec![None; queries.len()],
        Some(arr) => {
            if arr.len() != queries.len() {
                return Err(bad("'exclude' must have one entry per query"));
            }
            arr.iter().map(|e| e.as_str().map(str::to_string)).collect()
        }
    };
    Ok(KnnRequest { k: k as usize, items, queries, exclude, mode, ef_search, shards, corpus })
}

/// Execute a kNN request against a freshly built index over its inline
/// items — exact or ANN according to `mode` — and render the response.
/// `jobs` bounds the ANN shard-build fan-out (the engine's worker
/// count). Corpus requests never reach here; the server routes them to
/// its warm index via [`run_knn_on`].
pub fn run_knn(req: &KnnRequest, jobs: usize) -> String {
    let dim = req.items[0].1.len();
    match req.mode {
        KnnMode::Flat => {
            let mut index = KnnIndex::new(dim);
            for (key, vector) in &req.items {
                index.insert(key.clone(), vector);
            }
            run_knn_on(req, &index)
        }
        KnnMode::Ann => {
            let index = ShardedHnsw::build(
                dim,
                req.shards.unwrap_or(1),
                HnswConfig::default(),
                &req.items,
                jobs,
            );
            run_knn_on(req, &index)
        }
    }
}

/// Run every query of `req` against an already-built index and render
/// the response body. The `mode`/`kind`/`shards` echo lets clients (and
/// the CI smoke) verify which path actually served them.
pub fn run_knn_on(req: &KnnRequest, index: &dyn AnnIndex) -> String {
    let params = SearchParams { ef_search: req.ef_search };
    let mut out = format!(
        "{{\"mode\":\"{}\",\"index\":\"{}\",\"shards\":{},\"results\":[",
        req.mode.as_str(),
        index.kind(),
        index.num_shards(),
    );
    for (i, q) in req.queries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        let hits = index.search(q, req.k, req.exclude[i].as_deref(), params);
        for (h, hit) in hits.iter().enumerate() {
            if h > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"key\":\"{}\",\"score\":", escape(&hit.key));
            push_f64(&mut out, hit.score);
            out.push('}');
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// Render a JSON error body: `{"error": "..."}`.
pub fn error_body(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}", escape(msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    const EMBED: &str = r#"{
        "model": "bert", "level": "column", "id": "req-1",
        "table": {"name": "t", "columns": [
            {"header": "id", "values": [1, 2, 3]},
            {"header": "name", "values": ["a", "b", null]}
        ]}
    }"#;

    #[test]
    fn parses_embed_request() {
        let r = parse_embed(EMBED).unwrap();
        assert_eq!(r.model, "bert");
        assert_eq!(r.level, Level::Column);
        assert_eq!(r.id.as_deref(), Some("req-1"));
        assert_eq!(r.table.num_rows(), 3);
        assert_eq!(r.table.num_cols(), 2);
        assert_eq!(r.table.cell(0, 0), &Value::Int(1));
        assert_eq!(r.table.cell(0, 1), &Value::text("a"));
        assert_eq!(r.table.cell(2, 1), &Value::Null);
    }

    #[test]
    fn level_defaults_to_column() {
        let body = r#"{"model":"bert","table":{"columns":[{"header":"c","values":["x"]}]}}"#;
        assert_eq!(parse_embed(body).unwrap().level, Level::Column);
    }

    #[test]
    fn rejects_bad_embed_requests() {
        for (body, needle) in [
            ("not json", "invalid literal"),
            (r#"{"table":{"columns":[{"header":"c","values":[1]}]}}"#, "model"),
            (r#"{"model":"bert"}"#, "table"),
            (r#"{"model":"bert","table":{"columns":[]}}"#, "at least one column"),
            (
                r#"{"model":"bert","level":"galaxy","table":{"columns":[{"header":"c","values":[1]}]}}"#,
                "galaxy",
            ),
            (
                r#"{"model":"bert","table":{"columns":[{"header":"a","values":[1,2]},{"header":"b","values":[1]}]}}"#,
                "ragged",
            ),
        ] {
            let err = parse_embed(body).unwrap_err();
            match err {
                ApiError::Bad(m) => assert!(m.contains(needle), "'{m}' should mention '{needle}'"),
                ApiError::TooLarge => panic!("unexpected TooLarge for {body}"),
            }
        }
    }

    #[test]
    fn oversized_table_is_413() {
        let values: Vec<String> = (0..(MAX_CELLS + 1)).map(|i| i.to_string()).collect();
        let body = format!(
            r#"{{"model":"bert","table":{{"columns":[{{"header":"c","values":[{}]}}]}}}}"#,
            values.join(",")
        );
        assert_eq!(parse_embed(&body).unwrap_err(), ApiError::TooLarge);
    }

    #[test]
    fn numeric_mapping_is_deterministic() {
        assert_eq!(value_from_json(&Json::Num(3.0)), Value::Int(3));
        assert_eq!(value_from_json(&Json::Num(3.5)), Value::Float(3.5));
        assert_eq!(value_from_json(&Json::Num(-0.25)), Value::Float(-0.25));
        assert_eq!(value_from_json(&Json::Null), Value::Null);
        assert_eq!(value_from_json(&Json::Bool(true)), Value::Bool(true));
    }

    #[test]
    fn f64_json_round_trips_bitwise() {
        use observatory_obs::json::parse as jparse;
        for v in [1.0 / 3.0, -2.718281828459045e-5, 1e300, f64::MIN_POSITIVE, 0.1 + 0.2] {
            let mut s = String::new();
            push_f64(&mut s, v);
            let back = jparse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} did not round-trip");
        }
        let mut s = String::new();
        push_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn f64_rendering_keeps_display_bytes() {
        // Responses are compared byte-for-byte against earlier renders:
        // the in-place formatting must print exactly what `Display` does.
        let mut s = String::from("[");
        let values = [0.0, -0.0, 1.0, 1e-7, 1e21, 123456789.0, 5e-324, -1.5e-300, 0.1 + 0.2];
        for v in values {
            push_f64(&mut s, v);
            s.push(',');
        }
        let want: String = values.iter().map(|v| format!("{v},")).collect();
        assert_eq!(s, format!("[{want}"));
    }

    #[test]
    fn knn_round_trip() {
        let body = r#"{
            "k": 2,
            "items": [
                {"key": "east", "vector": [1, 0]},
                {"key": "north", "vector": [0, 1]},
                {"key": "northeast", "vector": [1, 1]}
            ],
            "queries": [[1, 0.1]],
            "exclude": ["east"]
        }"#;
        let req = parse_knn(body).unwrap();
        assert_eq!(req.k, 2);
        let out = run_knn(&req, 2);
        let v = parse(&out).unwrap();
        let results = v.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 1);
        let hits = results[0].as_array().unwrap();
        assert_eq!(hits.len(), 2);
        // "east" is excluded, so the nearest is "northeast".
        assert_eq!(hits[0].get("key").unwrap().as_str(), Some("northeast"));
    }

    #[test]
    fn knn_multi_query_scores_match_single_query() {
        // Regression for hoisted candidate norms: `run_knn` builds ONE
        // index for the whole request, so item norms are computed once
        // and shared by every query. A 2-query request must render the
        // exact same scores (to the printed bit; push_f64 is shortest
        // round-trip) as two 1-query requests over the same items.
        let items = r#"[
            {"key": "a", "vector": [0.3, -1.2, 0.7]},
            {"key": "b", "vector": [2.0, 0.1, -0.4]},
            {"key": "c", "vector": [-0.5, 0.5, 1.5]}
        ]"#;
        let q1 = "[1, 0.2, -0.3]";
        let q2 = "[-0.7, 1.1, 0.9]";
        let both =
            parse_knn(&format!(r#"{{"k":3,"items":{items},"queries":[{q1},{q2}]}}"#)).unwrap();
        let out_both = run_knn(&both, 2);
        let v = parse(&out_both).unwrap();
        let results = v.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 2);
        for (i, q) in [q1, q2].iter().enumerate() {
            let single =
                parse_knn(&format!(r#"{{"k":3,"items":{items},"queries":[{q}]}}"#)).unwrap();
            let out_single = run_knn(&single, 2);
            let vs = parse(&out_single).unwrap();
            let only = &vs.get("results").unwrap().as_array().unwrap()[0];
            assert_eq!(
                format!("{:?}", results[i]),
                format!("{only:?}"),
                "query {i}: shared-index scores must equal fresh-index scores"
            );
        }
    }

    #[test]
    fn knn_ann_mode_matches_flat_at_full_beam() {
        // With ef covering the whole item set the ANN path re-ranks every
        // candidate exactly, so the rendered body differs from the flat
        // body only in the mode/index/shards echo — hits are identical to
        // the printed bit.
        let items = r#"[
            {"key": "a", "vector": [0.3, -1.2, 0.7]},
            {"key": "b", "vector": [2.0, 0.1, -0.4]},
            {"key": "c", "vector": [-0.5, 0.5, 1.5]},
            {"key": "d", "vector": [0.3, -1.2, 0.7]}
        ]"#;
        let queries = r#"[[1, 0.2, -0.3], [-0.7, 1.1, 0.9]]"#;
        let flat = parse_knn(&format!(r#"{{"k":4,"items":{items},"queries":{queries}}}"#)).unwrap();
        let ann = parse_knn(&format!(
            r#"{{"k":4,"items":{items},"queries":{queries},"mode":"ann","ef":16,"shards":2}}"#
        ))
        .unwrap();
        assert_eq!(ann.mode, KnnMode::Ann);
        let flat_out = run_knn(&flat, 2);
        let ann_out = run_knn(&ann, 2);
        let fv = parse(&flat_out).unwrap();
        let av = parse(&ann_out).unwrap();
        assert_eq!(fv.get("mode").unwrap().as_str(), Some("flat"));
        assert_eq!(av.get("mode").unwrap().as_str(), Some("ann"));
        assert_eq!(av.get("index").unwrap().as_str(), Some("hnsw"));
        assert_eq!(av.get("shards").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            format!("{:?}", fv.get("results")),
            format!("{:?}", av.get("results")),
            "full-beam ANN hits must equal flat hits bit-for-bit"
        );
    }

    #[test]
    fn knn_rejects_bad_mode_combinations() {
        let items = r#"[{"key":"a","vector":[1,0]}]"#;
        // ef/shards without ann mode: refuse rather than silently ignore.
        for body in [
            format!(r#"{{"items":{items},"queries":[[1,0]],"ef":8}}"#),
            format!(r#"{{"items":{items},"queries":[[1,0]],"shards":2}}"#),
            format!(r#"{{"items":{items},"queries":[[1,0]],"mode":"exact"}}"#),
            format!(r#"{{"items":{items},"queries":[[1,0]],"mode":"ann","ef":0}}"#),
            format!(r#"{{"items":{items},"queries":[[1,0]],"mode":"ann","shards":65}}"#),
            format!(r#"{{"items":{items},"queries":[[1,0]],"corpus":true}}"#),
            format!(r#"{{"queries":[[1,0]],"corpus":"yes"}}"#),
        ] {
            assert!(parse_knn(&body).is_err(), "{body}");
        }
        // Corpus mode: no items needed; queries set the dimension.
        let req = parse_knn(r#"{"queries":[[1,0],[0,1]],"corpus":true,"mode":"ann"}"#).unwrap();
        assert!(req.corpus);
        assert!(req.items.is_empty());
        assert_eq!(req.queries.len(), 2);
        // Mixed query dims are still rejected without items.
        assert!(parse_knn(r#"{"queries":[[1,0],[1]],"corpus":true}"#).is_err());
    }

    #[test]
    fn knn_rejects_dim_mismatch() {
        let body = r#"{"k":1,"items":[{"key":"a","vector":[1,0]},{"key":"b","vector":[1]}],"queries":[[1,0]]}"#;
        assert!(parse_knn(body).is_err());
        let body = r#"{"k":1,"items":[{"key":"a","vector":[1,0]}],"queries":[[1]]}"#;
        assert!(parse_knn(body).is_err());
    }

    #[test]
    fn error_body_escapes() {
        assert_eq!(error_body("bad \"x\""), "{\"error\":\"bad \\\"x\\\"\"}");
    }
}
