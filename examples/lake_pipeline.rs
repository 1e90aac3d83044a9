//! A full data-lake pipeline over the substrates: generate a lake, embed
//! columns (with partitioning for the large tables), index them with HNSW,
//! discover a join for a query column, *execute* the discovered join with
//! the relational algebra, and sanity-check FDs of the result.
//!
//! ```sh
//! cargo run --release --example lake_pipeline
//! ```

use observatory::data::spider::SpiderConfig;
use observatory::fd::discovery::{discover_unary_fds, DiscoveryOptions};
use observatory::models::partitioned::encode_partitioned;
use observatory::models::registry::model_by_name;
use observatory::search::overlap::containment;
use observatory::search::{AnnIndex, HnswConfig, HnswIndex, SearchParams};
use observatory::table::algebra::{equijoin, group_count};
use observatory::table::Table;

fn main() {
    // 1. The lake: a dozen multi-domain tables.
    let lake: Vec<Table> = SpiderConfig { num_tables: 12, rows: 40, seed: 7 }.generate().tables;
    println!("lake: {} tables", lake.len());

    // 2. Embed every column of every table. Tables beyond the token budget
    //    go through the partitioned path (paper §7's large-table handling).
    let model = model_by_name("t5").unwrap();
    let mut index = HnswIndex::new(model.dim(), HnswConfig::default());
    let mut col_refs: Vec<(usize, usize)> = Vec::new();
    for (ti, table) in lake.iter().enumerate() {
        let enc = encode_partitioned(model.as_ref(), table, 8);
        for j in 0..table.num_cols() {
            if let Some(e) = enc.column(j) {
                index.insert(format!("{ti}:{j}"), &e, col_refs.len() as u64);
                col_refs.push((ti, j));
            }
        }
    }
    println!("indexed {} column embeddings (HNSW, default config)", index.len());

    // 3. Query: find join partners for geo_0.city across the lake.
    let (qt, qj) = (0usize, 0usize);
    let q_enc = encode_partitioned(model.as_ref(), &lake[qt], 8);
    let q_emb = q_enc.column(qj).expect("query column embeds");
    let hits = index.search(&q_emb, 6, Some(&format!("{qt}:{qj}")), SearchParams::default());
    println!("\njoin candidates for {}.{}:", lake[qt].name, lake[qt].columns[qj].header);
    let mut best: Option<(usize, usize, f64)> = None;
    for h in &hits {
        let (ti, j) = parse_key(&h.key);
        let c = containment(&lake[qt].columns[qj], &lake[ti].columns[j]);
        println!(
            "  {}.{}  cosine {:.3}  containment {:.2}",
            lake[ti].name, lake[ti].columns[j].header, h.score, c
        );
        if ti != qt && best.map_or(true, |(_, _, bc)| c > bc) {
            best = Some((ti, j, c));
        }
    }

    // 4. Execute the best cross-table join and aggregate.
    let (ti, j, c) = best.expect("a candidate exists");
    println!("\nexecuting: {} ⋈ {} on city (containment {:.2})", lake[qt].name, lake[ti].name, c);
    let joined = equijoin(&lake[qt], qj, &lake[ti], j);
    println!("joined rows: {}", joined.num_rows());
    let counts = group_count(&joined, 1); // by country
    println!("top groups by country:");
    for i in 0..counts.num_rows().min(4) {
        println!("  {:<14} {}", counts.cell(i, 0), counts.cell(i, 1));
    }

    // 5. Audit: do the FDs of the inputs survive the join?
    let fds = discover_unary_fds(&joined, DiscoveryOptions::default());
    println!("\nfunctional dependencies holding on the joined relation: {}", fds.len());
    for fd in fds.iter().take(5) {
        println!(
            "  {} → {}",
            joined.columns[fd.determinant].header, joined.columns[fd.dependent].header
        );
    }
}

fn parse_key(key: &str) -> (usize, usize) {
    let (a, b) = key.split_once(':').expect("key format");
    (a.parse().expect("table idx"), b.parse().expect("col idx"))
}
