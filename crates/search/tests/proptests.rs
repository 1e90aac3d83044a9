//! Property-based tests for overlap measures and the search indexes.

use observatory_search::ann::{AnnIndex, HnswConfig, HnswIndex, SearchParams, ShardedHnsw};
use observatory_search::knn::{neighbor_overlap, KnnIndex};
use observatory_search::overlap::{containment, jaccard, multiset_jaccard};
use observatory_table::{Column, Value};
use proptest::prelude::*;

fn arb_column() -> impl Strategy<Value = Column> {
    proptest::collection::vec(0u8..12, 1..30).prop_map(|vals| {
        Column::new("c", vals.into_iter().map(|v| Value::Int(i64::from(v))).collect())
    })
}

fn vectors(dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(-10.0f64..10.0, dim), 2..30)
}

/// Clustered corpora for the ANN gates: a handful of random unit-ish
/// centers with small jitter around each, the regime HNSW is built for
/// (and the shape of real table-embedding corpora).
fn clustered_corpus(dim: usize) -> impl Strategy<Value = Vec<(String, Vec<f64>)>> {
    let center = proptest::collection::vec(-3.0f64..3.0, dim);
    let centers = proptest::collection::vec(center, 2..5);
    (centers, 4usize..20, any::<u16>()).prop_map(move |(centers, per, jitter_seed)| {
        // Jitter from a cheap deterministic stream so shrinking stays
        // meaningful (proptest shrinks centers/per, not every component).
        let mut s = jitter_seed as u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let mut out = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for i in 0..per {
                let v: Vec<f64> = center.iter().map(|x| x + 0.2 * next()).collect();
                out.push((format!("c{c}_{i}"), v));
            }
        }
        out
    })
}

proptest! {
    /// Bounds, symmetry and subset laws of the overlap measures.
    #[test]
    fn overlap_laws(q in arb_column(), c in arb_column()) {
        let cont = containment(&q, &c);
        let jac = jaccard(&q, &c);
        let mjac = multiset_jaccard(&q, &c);
        prop_assert!((0.0..=1.0).contains(&cont));
        prop_assert!((0.0..=1.0).contains(&jac));
        prop_assert!((0.0..=0.5 + 1e-12).contains(&mjac));
        // Jaccard ≤ both containments (|Q∩C|/|Q∪C| ≤ |Q∩C|/|Q| and /|C|).
        prop_assert!(jac <= cont + 1e-12);
        prop_assert!(jac <= containment(&c, &q) + 1e-12);
        // Symmetric measures.
        prop_assert!((jac - jaccard(&c, &q)).abs() < 1e-12);
        prop_assert!((mjac - multiset_jaccard(&c, &q)).abs() < 1e-12);
    }

    /// Sub-column containment: a prefix of a column is always fully
    /// contained in it.
    #[test]
    fn prefix_fully_contained(c in arb_column(), cut in 1usize..30) {
        let cut = cut.min(c.len());
        let prefix = Column::new("p", c.values[..cut].to_vec());
        prop_assert!((containment(&prefix, &c) - 1.0).abs() < 1e-12);
    }

    /// kNN: top-1 of a query that equals an indexed vector is that vector
    /// (ties broken by insertion order still score 1.0).
    #[test]
    fn knn_self_retrieval(vs in vectors(6), pick in 0usize..30) {
        let nonzero: Vec<&Vec<f64>> =
            vs.iter().filter(|v| v.iter().any(|x| x.abs() > 1e-9)).collect();
        prop_assume!(!nonzero.is_empty());
        let mut idx = KnnIndex::new(6);
        for (i, v) in nonzero.iter().enumerate() {
            idx.insert(format!("v{i}"), v);
        }
        let q = nonzero[pick % nonzero.len()];
        let hits = idx.query(q, 1, None);
        prop_assert!((hits[0].score - 1.0).abs() < 1e-9);
    }

    /// kNN scores are sorted descending and within [−1, 1].
    #[test]
    fn knn_scores_sorted(vs in vectors(5)) {
        let mut idx = KnnIndex::new(5);
        for (i, v) in vs.iter().enumerate() {
            idx.insert(format!("v{i}"), v);
        }
        let hits = idx.query(&vs[0], vs.len(), None);
        for w in hits.windows(2) {
            prop_assert!(w[0].score + 1e-12 >= w[1].score);
        }
        prop_assert!(hits.iter().all(|h| (-1.0 - 1e-9..=1.0 + 1e-9).contains(&h.score)));
    }

    /// Neighbour overlap is bounded, reflexive, and symmetric — even
    /// with duplicated keys (both sides of the ratio deduplicate).
    #[test]
    fn neighbor_overlap_laws(
        keys in proptest::collection::vec("[a-d]", 0..8),
        other in proptest::collection::vec("[a-f]", 0..8),
    ) {
        let ks: Vec<String> = keys;
        let os: Vec<String> = other;
        let o = neighbor_overlap(&ks, &ks);
        prop_assert!((0.0..=1.0).contains(&o));
        // Any non-empty list fully overlaps itself, duplicates included.
        if !ks.is_empty() {
            prop_assert!((o - 1.0).abs() < 1e-12);
        }
        let cross = neighbor_overlap(&ks, &os);
        prop_assert!((0.0..=1.0).contains(&cross));
        prop_assert!((cross - neighbor_overlap(&os, &ks)).abs() < 1e-12);
    }

    /// ANN recall gate: at default ef_search, HNSW recall@10 against the
    /// flat oracle stays ≥ 0.95 on clustered corpora (averaged over the
    /// query sample, the same gate `bench_ann` and CI enforce at scale).
    #[test]
    fn hnsw_recall_gate_vs_flat_oracle(data in clustered_corpus(12)) {
        let dim = 12;
        let mut oracle = KnnIndex::new(dim);
        let mut graph = HnswIndex::new(dim, HnswConfig::default());
        for (i, (k, v)) in data.iter().enumerate() {
            oracle.insert(k.clone(), v);
            graph.insert(k.clone(), v, i as u64);
        }
        let queries = data.len().min(8);
        let mut recall = 0.0;
        for (k, v) in data.iter().take(queries) {
            let truth: std::collections::HashSet<String> =
                oracle.neighbor_keys(v, 10, Some(k)).into_iter().collect();
            if truth.is_empty() {
                recall += 1.0;
                continue;
            }
            let approx = graph.search(v, 10, Some(k), SearchParams::default());
            let hit = approx.iter().filter(|h| truth.contains(&h.key)).count();
            recall += hit as f64 / truth.len() as f64;
        }
        recall /= queries as f64;
        prop_assert!(recall >= 0.95, "recall@10 {} < 0.95 over {} items", recall, data.len());
    }

    /// Shard-merge determinism: with the beam covering each shard
    /// (ef_search ≥ n), 1-shard and 4-shard indexes built from the same
    /// seed return identical hits — same keys, same bit-exact scores,
    /// same order — because the re-rank merges on global insertion
    /// index exactly like the flat index.
    #[test]
    fn sharded_hnsw_merge_is_deterministic(data in clustered_corpus(8), k in 1usize..12) {
        let dim = 8;
        let params = SearchParams { ef_search: Some(data.len()) };
        let one = ShardedHnsw::build(dim, 1, HnswConfig::default(), &data, 1);
        let four = ShardedHnsw::build(dim, 4, HnswConfig::default(), &data, 2);
        let mut flat = KnnIndex::new(dim);
        for (key, v) in &data {
            flat.insert(key.clone(), v);
        }
        for (key, v) in data.iter().take(6) {
            let a = one.search(v, k, Some(key), params);
            let b = four.search(v, k, Some(key), params);
            prop_assert_eq!(&a, &b, "1-shard vs 4-shard hit sets differ");
            // Full coverage also means both equal the recall-1 oracle.
            let exact = flat.query(v, k, Some(key));
            prop_assert_eq!(&a, &exact, "full-coverage ANN must match flat");
        }
    }
}
