//! Request bodies in the service's wire schema, and their HTTP framing.

use observatory_obs::json::escape;
use observatory_table::{Table, Value};

/// A column-level `/v1/embed` body for `table` under `model`.
pub fn embed_body(model: &str, id: &str, table: &Table) -> String {
    let mut out = format!(
        "{{\"model\":\"{}\",\"level\":\"column\",\"id\":\"{}\",\"table\":{{\"name\":\"{}\",\"columns\":[",
        escape(model),
        escape(id),
        escape(&table.name)
    );
    for (j, col) in table.columns.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"header\":\"{}\",\"values\":[", escape(&col.header)));
        for (i, v) in col.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_value(&mut out, v);
        }
        out.push_str("]}");
    }
    out.push_str("]}}");
    out
}

fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) if f.is_finite() => out.push_str(&f.to_string()),
        Value::Float(_) => out.push_str("null"),
        other => {
            out.push('"');
            out.push_str(&escape(&other.to_text()));
            out.push('"');
        }
    }
}

/// A `/v1/knn` body querying the server's corpus index with each
/// `(vector, key)` of `queries`, excluding the key the vector came from.
pub fn knn_body(queries: &[(&[f64], &str)]) -> String {
    let vectors: Vec<String> = queries
        .iter()
        .map(|(v, _)| format!("[{}]", v.iter().map(f64::to_string).collect::<Vec<_>>().join(",")))
        .collect();
    let exclude: Vec<String> = queries.iter().map(|(_, k)| format!("\"{}\"", escape(k))).collect();
    format!(
        "{{\"k\":10,\"corpus\":true,\"mode\":\"ann\",\"queries\":[{}],\"exclude\":[{}]}}",
        vectors.join(","),
        exclude.join(",")
    )
}

/// A keep-alive HTTP/1.1 POST carrying `body`.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: keep-alive\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}
