//! In-process lifecycle tests for `MmapStore`: warm reopen, rotation,
//! compaction, overwrite semantics, and WAL-tail recovery — everything
//! short of killing a real process (that lives in the workspace-level
//! `tests/store_recovery.rs` against the installed binary).

use observatory_linalg::Matrix;
use observatory_models::{Capabilities, ModelEncoding, Readout, TokenProvenance};
use observatory_runtime::{EmbeddingStore, Fingerprint};
use observatory_store::{MmapStore, StoreConfig};
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obs-store-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic encoding whose every field depends on `tag`.
fn encoding(tag: u64) -> ModelEncoding {
    let rows = 2 + (tag as usize % 3);
    let dim = 4;
    let data: Vec<f64> = (0..rows * dim).map(|i| (tag as f64) * 1000.0 + i as f64 * 0.5).collect();
    ModelEncoding {
        embeddings: Matrix::from_vec(rows, dim, data),
        provenance: (0..rows)
            .map(|i| TokenProvenance { row: i as u32, col: (tag % 7) as u32, special: i == 0 })
            .collect(),
        table_cls: if tag % 2 == 0 { Some(0) } else { None },
        column_cls: vec![None, Some(1)],
        rows_encoded: rows,
        cols_encoded: 2,
        column_readout: Readout::MeanPool,
        table_readout: Readout::HeaderBiasedMean { header_weight: 0.25 + tag as f64 * 0.01 },
        capabilities: Capabilities::all(),
    }
}

fn config(dir: &PathBuf) -> StoreConfig {
    let mut c = StoreConfig::new(dir.clone());
    // Deterministic tests: ignore any env overrides.
    c.rotate_bytes = 64 << 20;
    c.compact_threshold = 4;
    c
}

fn assert_bits_equal(a: &ModelEncoding, b: &ModelEncoding) {
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.embeddings), bits(&b.embeddings));
    assert_eq!(a.provenance, b.provenance);
    assert_eq!(a.table_cls, b.table_cls);
    assert_eq!(a.rows_encoded, b.rows_encoded);
}

#[test]
fn save_load_and_warm_reopen() {
    let dir = tmp_dir("reopen");
    {
        let store = MmapStore::open(config(&dir)).unwrap();
        for tag in 0..32u64 {
            store.save(Fingerprint(tag as u128 + 1), &encoding(tag));
        }
        for tag in 0..32u64 {
            let got = store.load(Fingerprint(tag as u128 + 1)).expect("hot load");
            assert_bits_equal(&got, &encoding(tag));
        }
        assert_eq!(store.load(Fingerprint(999)), None);
        let stats = store.tier_stats();
        assert_eq!(stats.writes, 32);
        assert_eq!(stats.records, 32);
        store.flush().unwrap();
    } // drop: clean shutdown
      // A brand-new process-equivalent: everything must come back from
      // disk, bit-identical.
    let store = MmapStore::open(config(&dir)).unwrap();
    let stats = store.tier_stats();
    assert_eq!(stats.records, 32, "all records recovered");
    for tag in 0..32u64 {
        let got = store.load(Fingerprint(tag as u128 + 1)).expect("warm load");
        assert_bits_equal(&got, &encoding(tag));
    }
    assert_eq!(store.tier_stats().read_errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overwrite_newest_wins_across_reopen() {
    let dir = tmp_dir("overwrite");
    {
        let store = MmapStore::open(config(&dir)).unwrap();
        store.save(Fingerprint(5), &encoding(1));
        store.save(Fingerprint(5), &encoding(2)); // replaces
        assert_bits_equal(&store.load(Fingerprint(5)).unwrap(), &encoding(2));
    }
    let store = MmapStore::open(config(&dir)).unwrap();
    assert_bits_equal(&store.load(Fingerprint(5)).unwrap(), &encoding(2));
    assert_eq!(store.tier_stats().records, 1, "one live record after overwrite");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rotation_moves_memtable_into_segments() {
    let dir = tmp_dir("rotate");
    let mut cfg = config(&dir);
    cfg.rotate_bytes = 4096; // force frequent rotations
    cfg.compact_threshold = 1000; // but no compaction
    let store = MmapStore::open(cfg).unwrap();
    for tag in 0..100u64 {
        store.save(Fingerprint(tag as u128 + 1), &encoding(tag));
    }
    store.quiesce();
    let stats = store.tier_stats();
    assert!(stats.rotations >= 1, "tiny threshold must rotate: {stats:?}");
    assert!(stats.segments >= 1);
    assert_eq!(stats.records, 100, "no records lost across rotation");
    assert!(!dir.join("wal-frozen.log").exists(), "frozen WAL retired after rotation");
    // Every record still loads, wherever it lives now.
    for tag in 0..100u64 {
        assert_bits_equal(&store.load(Fingerprint(tag as u128 + 1)).unwrap(), &encoding(tag));
    }
    drop(store);
    // And survives a reopen.
    let store = MmapStore::open(config(&dir)).unwrap();
    assert_eq!(store.tier_stats().records, 100);
    for tag in (0..100u64).rev() {
        assert_bits_equal(&store.load(Fingerprint(tag as u128 + 1)).unwrap(), &encoding(tag));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_merges_segments_newest_wins() {
    let dir = tmp_dir("compact");
    let mut cfg = config(&dir);
    cfg.rotate_bytes = 2048;
    cfg.compact_threshold = 2;
    cfg.jobs = 2;
    let store = MmapStore::open(cfg).unwrap();
    // Two generations of the same keys, each checkpointed into its own
    // segment: compaction must merge them keeping the newer.
    for round in 0..2u64 {
        for tag in 0..60u64 {
            store.save(Fingerprint(tag as u128 + 1), &encoding(tag + round * 100));
        }
        store.checkpoint();
    }
    let stats = store.tier_stats();
    assert!(stats.compactions >= 1, "threshold 2 must compact: {stats:?}");
    assert_eq!(stats.records, 60, "compaction deduplicates by fingerprint");
    assert!(stats.generation > 0);
    for tag in 0..60u64 {
        assert_bits_equal(&store.load(Fingerprint(tag as u128 + 1)).unwrap(), &encoding(tag + 100));
    }
    drop(store);
    let store = MmapStore::open(config(&dir)).unwrap();
    for tag in 0..60u64 {
        assert_bits_equal(&store.load(Fingerprint(tag as u128 + 1)).unwrap(), &encoding(tag + 100));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_loses_only_the_torn_record() {
    let dir = tmp_dir("torn");
    {
        let store = MmapStore::open(config(&dir)).unwrap();
        for tag in 0..10u64 {
            store.save(Fingerprint(tag as u128 + 1), &encoding(tag));
        }
    }
    // Tear the WAL mid-frame, as a crash during write(2) would.
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 11]).unwrap();
    let store = MmapStore::open(config(&dir)).unwrap();
    let stats = store.tier_stats();
    assert_eq!(stats.records, 9, "only the torn record is gone");
    assert_eq!(stats.recovery_dropped, 1);
    for tag in 0..9u64 {
        assert_bits_equal(&store.load(Fingerprint(tag as u128 + 1)).unwrap(), &encoding(tag));
    }
    assert_eq!(store.load(Fingerprint(10)), None);
    // The rewrite compacted the garbage away: a further save + reopen
    // must not resurrect or corrupt anything.
    store.save(Fingerprint(10), &encoding(9));
    drop(store);
    let store = MmapStore::open(config(&dir)).unwrap();
    assert_eq!(store.tier_stats().records, 10);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generation_is_monotone_across_restarts() {
    let dir = tmp_dir("gen");
    let mut cfg = config(&dir);
    cfg.rotate_bytes = 2048;
    let g1 = {
        let store = MmapStore::open(cfg.clone()).unwrap();
        for tag in 0..50u64 {
            store.save(Fingerprint(tag as u128 + 1), &encoding(tag));
        }
        store.quiesce();
        store.tier_stats().generation
    };
    let store = MmapStore::open(cfg).unwrap();
    assert!(
        store.tier_stats().generation >= g1,
        "generation must not regress across restart: {} < {g1}",
        store.tier_stats().generation
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flush_during_pending_rotation_then_reopen_keeps_every_record() {
    let dir = tmp_dir("flush-pending");
    std::fs::create_dir_all(&dir).unwrap();
    // Park the first rotation: its segment's scratch path is a directory,
    // so the compactor cannot write the segment and the frozen WAL stays.
    let blocker = dir.join("seg-000000.seg.tmp");
    std::fs::create_dir_all(&blocker).unwrap();
    let mut cfg = config(&dir);
    cfg.rotate_bytes = 4096;
    let mut saved = 0u64;
    {
        let store = MmapStore::open(cfg).unwrap();
        while !dir.join("wal-frozen.log").exists() {
            store.save(Fingerprint(saved as u128 + 1), &encoding(saved));
            saved += 1;
            assert!(saved < 1000, "a 4 KiB threshold must rotate");
        }
        // Further saves land in the fresh WAL behind the pending rotation.
        for _ in 0..8 {
            store.save(Fingerprint(saved as u128 + 1), &encoding(saved));
            saved += 1;
        }
        store.flush().expect("flush syncs the active and the frozen WAL");
        assert!(dir.join("wal-frozen.log").exists(), "the rotation is still pending");
        assert_eq!(store.tier_stats().rotations, 0);
    }
    std::fs::remove_dir(&blocker).unwrap();
    let store = MmapStore::open(config(&dir)).unwrap();
    assert_eq!(store.tier_stats().records, saved);
    for tag in 0..saved {
        assert_bits_equal(&store.load(Fingerprint(tag as u128 + 1)).unwrap(), &encoding(tag));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
