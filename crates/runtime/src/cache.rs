//! Sharded, byte-accounted LRU cache of encoding results.
//!
//! Keys are content [`Fingerprint`]s; values are `Arc<ModelEncoding>` so a
//! hit is a pointer clone, never a matrix copy. The map is split into 16
//! Mutex-striped shards selected by fingerprint high bits: encode workers
//! touching different tables then contend on different locks, and each
//! critical section is a few map operations — the transformer forward pass
//! (milliseconds) always runs *outside* any lock.
//!
//! Capacity is accounted in approximate heap bytes (embedding matrix +
//! provenance + fixed overhead), not entry counts, because encodings vary
//! by >100× in size across corpora. Each shard owns `capacity / n_shards`
//! bytes and evicts its own least-recently-used entries (recency is a
//! monotonically increasing global stamp, refreshed on every hit) until a
//! new entry fits. Values larger than a shard's budget are simply not
//! admitted — callers still get their encoding, it just isn't retained.

use crate::fingerprint::Fingerprint;
use observatory_models::{ModelEncoding, TokenProvenance};
use observatory_obs as obs;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lock a shard, recovering from poisoning. A worker that panics while
/// holding a shard lock (e.g. an allocation failure mid-insert) must not
/// wedge every later request on that shard — the protected state is a
/// cache, so the worst case after recovery is a stale or missing entry,
/// which the cache's contract (a hit is an optimization, never a
/// correctness requirement) already tolerates. The long-lived server
/// (`observatory serve`) relies on this to survive a panicking handler.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Number of independently locked shards. 16 keeps worst-case contention
/// (jobs ≤ 16) at ~1 waiter per lock while the per-shard maps stay large
/// enough for the stamp-scan eviction to be cheap.
pub const N_SHARDS: usize = 16;

/// Approximate heap footprint of one cached encoding, in bytes.
pub fn encoding_bytes(enc: &ModelEncoding) -> usize {
    std::mem::size_of::<ModelEncoding>()
        + enc.embeddings.rows() * enc.embeddings.cols() * std::mem::size_of::<f64>()
        + enc.provenance.len() * std::mem::size_of::<TokenProvenance>()
        + enc.column_cls.len() * std::mem::size_of::<Option<usize>>()
}

struct Entry {
    value: Arc<ModelEncoding>,
    bytes: usize,
    /// Last-touch stamp; smallest = least recently used.
    stamp: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u128, Entry>,
    bytes: usize,
}

/// Occupancy of one cache shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardOccupancy {
    /// Live entries in the shard.
    pub entries: usize,
    /// Approximate live bytes in the shard.
    pub bytes: usize,
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed (plus lookups while the cache is disabled).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Live entries.
    pub entries: usize,
    /// Approximate live bytes.
    pub bytes: usize,
    /// Configured capacity in bytes (0 = disabled).
    pub capacity: usize,
    /// Per-shard occupancy, index = shard number ([`N_SHARDS`] entries).
    /// Skew here means fingerprints are clustering (or one shard's
    /// working set is hot) — the signal the Prometheus export exposes
    /// per shard.
    pub shards: Vec<ShardOccupancy>,
    /// Largest total live-byte footprint ever observed (monotone across
    /// `clear`, approximate under concurrency).
    pub high_water_bytes: usize,
    /// Whether a tier-2 persistent store is attached. The LRU itself
    /// never sets the tier-2 fields — `Engine::cache_stats` fills them
    /// from the engine metrics and the attached store, so a bare
    /// `EncodingCache::stats()` always reports them zeroed.
    pub tier2_enabled: bool,
    /// LRU misses answered from the tier-2 (disk) store.
    pub tier2_hits: u64,
    /// Tier-2 consultations that found nothing usable (model ran).
    pub tier2_misses: u64,
    /// Write-throughs persisted to the tier-2 store.
    pub tier2_writes: u64,
    /// Live records addressable in the tier-2 store.
    pub tier2_records: u64,
    /// Tier-2 store generation (rotations + compactions).
    pub tier2_generation: u64,
}

/// Alias used by the observability layer: a frozen cache state.
pub type CacheSnapshot = CacheStats;

impl CacheStats {
    /// Fraction of lookups served from cache (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Content-addressed encoding cache. Thread-safe; all methods take `&self`.
pub struct EncodingCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte budget.
    shard_capacity: usize,
    capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
    /// Total live bytes across shards, maintained incrementally so the
    /// high-water mark can be tracked without locking every shard.
    total_bytes: AtomicU64,
    /// Largest `total_bytes` ever observed.
    high_water: AtomicU64,
}

impl EncodingCache {
    /// A cache holding at most ~`capacity_bytes` of encodings.
    /// `capacity_bytes == 0` disables caching entirely (all lookups miss,
    /// inserts are dropped).
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            shards: (0..N_SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: capacity_bytes / N_SHARDS,
            capacity: capacity_bytes,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            total_bytes: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        }
    }

    /// Whether the cache retains anything at all.
    pub fn enabled(&self) -> bool {
        self.shard_capacity > 0
    }

    fn shard(&self, fp: Fingerprint) -> &Mutex<Shard> {
        &self.shards[fp.shard(N_SHARDS)]
    }

    /// Look up a fingerprint, refreshing its recency on a hit.
    pub fn get(&self, fp: Fingerprint) -> Option<Arc<ModelEncoding>> {
        let hit = self.peek(fp);
        let counter = if hit.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Look up a fingerprint without counting a hit or a miss (recency
    /// is still refreshed on a hit): for a caller whose lookup was
    /// already counted and that only re-checks for an entry admitted
    /// since.
    pub(crate) fn peek(&self, fp: Fingerprint) -> Option<Arc<ModelEncoding>> {
        if !self.enabled() {
            return None;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = lock_recover(self.shard(fp));
        shard.map.get_mut(&fp.0).map(|e| {
            e.stamp = stamp;
            Arc::clone(&e.value)
        })
    }

    /// Insert an encoding, evicting least-recently-used entries in the
    /// same shard until it fits. Oversized values (> shard budget) are not
    /// admitted. Re-inserting an existing key refreshes its value.
    pub fn insert(&self, fp: Fingerprint, value: Arc<ModelEncoding>) {
        let bytes = encoding_bytes(&value);
        if !self.enabled() || bytes > self.shard_capacity {
            if self.enabled() {
                obs::event_with(obs::Level::Trace, "cache", "reject_oversized", || {
                    vec![("bytes", bytes.to_string())]
                });
            }
            return;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut evicted = 0u64;
        let mut freed = 0usize;
        {
            let mut shard = lock_recover(self.shard(fp));
            if let Some(old) = shard.map.remove(&fp.0) {
                shard.bytes -= old.bytes;
                freed += old.bytes;
            }
            while shard.bytes + bytes > self.shard_capacity {
                // Stamp scan: O(entries), but shards stay small (≤ 1/16 of
                // the working set) and eviction is rare relative to hits.
                let lru = shard
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(k, _)| *k)
                    .expect("non-empty: bytes > 0 implies entries exist");
                let old = shard.map.remove(&lru).unwrap();
                shard.bytes -= old.bytes;
                freed += old.bytes;
                evicted += 1;
            }
            shard.bytes += bytes;
            shard.map.insert(fp.0, Entry { value, bytes, stamp });
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if freed > 0 {
            self.total_bytes.fetch_sub(freed as u64, Ordering::Relaxed);
        }
        let live = self.total_bytes.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        self.high_water.fetch_max(live, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            obs::event_with(obs::Level::Debug, "cache", "evict", || {
                vec![("count", evicted.to_string()), ("freed_bytes", freed.to_string())]
            });
        }
    }

    /// Drop every entry (counters and the high-water mark are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = lock_recover(shard);
            s.map.clear();
            s.bytes = 0;
        }
        self.total_bytes.store(0, Ordering::Relaxed);
    }

    /// Current statistics snapshot, including per-shard occupancy and
    /// the high-water byte mark.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut bytes = 0;
        let mut shards = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let s = lock_recover(shard);
            entries += s.map.len();
            bytes += s.bytes;
            shards.push(ShardOccupancy { entries: s.map.len(), bytes: s.bytes });
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            entries,
            bytes,
            capacity: self.capacity,
            shards,
            high_water_bytes: self.high_water.load(Ordering::Relaxed) as usize,
            tier2_enabled: false,
            tier2_hits: 0,
            tier2_misses: 0,
            tier2_writes: 0,
            tier2_records: 0,
            tier2_generation: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use observatory_linalg::Matrix;
    use observatory_models::{Capabilities, Readout};

    fn encoding(rows: usize, dim: usize) -> Arc<ModelEncoding> {
        Arc::new(ModelEncoding {
            embeddings: Matrix::zeros(rows, dim),
            provenance: vec![TokenProvenance { row: 0, col: 0, special: true }; rows],
            table_cls: Some(0),
            column_cls: vec![],
            rows_encoded: rows,
            cols_encoded: 1,
            column_readout: Readout::MeanPool,
            table_readout: Readout::Cls,
            capabilities: Capabilities::all(),
        })
    }

    fn fp(n: u128) -> Fingerprint {
        // Spread across shards like real fingerprints do.
        Fingerprint((n << 64) | n)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = EncodingCache::new(1 << 20);
        assert!(cache.get(fp(1)).is_none());
        cache.insert(fp(1), encoding(4, 8));
        let hit = cache.get(fp(1)).expect("hit");
        assert_eq!(hit.rows_encoded, 4);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        // Single-shard capacity sized for exactly two entries.
        let one = encoding_bytes(&encoding(4, 8));
        let cache = EncodingCache::new((2 * one + one / 2) * N_SHARDS);
        // Same shard for all keys: identical high bits.
        let k = |n: u128| Fingerprint(n);
        cache.insert(k(1), encoding(4, 8));
        cache.insert(k(2), encoding(4, 8));
        // Touch 1 so 2 becomes LRU.
        assert!(cache.get(k(1)).is_some());
        cache.insert(k(3), encoding(4, 8));
        assert!(cache.get(k(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(k(1)).is_some(), "recently used survives");
        assert!(cache.get(k(3)).is_some(), "new entry present");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn byte_accounting_tracks_live_entries() {
        let cache = EncodingCache::new(1 << 24);
        let e = encoding(16, 32);
        let per = encoding_bytes(&e);
        cache.insert(fp(1), Arc::clone(&e));
        cache.insert(fp(2), Arc::clone(&e));
        assert_eq!(cache.stats().bytes, 2 * per);
        assert_eq!(cache.stats().entries, 2);
        // Re-inserting a key must not double-count.
        cache.insert(fp(1), e);
        assert_eq!(cache.stats().bytes, 2 * per);
        cache.clear();
        assert_eq!(cache.stats().bytes, 0);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn oversized_value_not_admitted() {
        let cache = EncodingCache::new(N_SHARDS * 64); // 64 bytes per shard
        cache.insert(fp(1), encoding(64, 64));
        assert!(cache.get(fp(1)).is_none());
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = EncodingCache::new(0);
        assert!(!cache.enabled());
        cache.insert(fp(1), encoding(4, 8));
        assert!(cache.get(fp(1)).is_none());
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn per_shard_occupancy_and_high_water() {
        let cache = EncodingCache::new(1 << 24);
        let e = encoding(16, 32);
        let per = encoding_bytes(&e);
        // fp() spreads keys across shards via the high bits.
        cache.insert(fp(1), Arc::clone(&e));
        cache.insert(fp(2), Arc::clone(&e));
        cache.insert(fp(3), Arc::clone(&e));
        let s = cache.stats();
        assert_eq!(s.shards.len(), N_SHARDS);
        let shard_entries: usize = s.shards.iter().map(|sh| sh.entries).sum();
        let shard_bytes: usize = s.shards.iter().map(|sh| sh.bytes).sum();
        assert_eq!(shard_entries, s.entries, "shard occupancies sum to the total");
        assert_eq!(shard_bytes, s.bytes);
        assert_eq!(s.high_water_bytes, 3 * per);
        // Clearing drops live bytes but the high-water mark survives.
        cache.clear();
        let after = cache.stats();
        assert_eq!(after.bytes, 0);
        assert!(after.shards.iter().all(|sh| sh.entries == 0 && sh.bytes == 0));
        assert_eq!(after.high_water_bytes, 3 * per, "high water is monotone");
        // Refilling less than before does not lower the mark.
        cache.insert(fp(9), e);
        assert_eq!(cache.stats().high_water_bytes, 3 * per);
    }

    #[test]
    fn high_water_tracks_peak_not_current_under_eviction() {
        // Capacity for two entries per shard; same-shard keys force
        // eviction, so live bytes never exceed 2×, and the peak equals
        // the pre-eviction maximum.
        let one = encoding_bytes(&encoding(4, 8));
        let cache = EncodingCache::new((2 * one + one / 2) * N_SHARDS);
        let k = |n: u128| Fingerprint(n);
        for n in 1..=4u128 {
            cache.insert(k(n), encoding(4, 8));
        }
        let s = cache.stats();
        assert!(s.evictions >= 2);
        assert_eq!(s.bytes, 2 * one);
        assert_eq!(s.high_water_bytes, 2 * one, "peak live footprint");
    }

    #[test]
    fn survives_poisoned_shard_mutexes() {
        // A thread that panics while holding a shard lock poisons it.
        // Every cache operation must keep working afterwards (the state
        // is a cache; recovery is always safe), or a single panicking
        // handler would wedge the whole server.
        let cache = Arc::new(EncodingCache::new(1 << 20));
        cache.insert(fp(1), encoding(4, 8));
        for i in 0..N_SHARDS {
            let c = Arc::clone(&cache);
            let _ = std::thread::spawn(move || {
                let _guard = c.shards[i].lock().unwrap();
                panic!("poison shard {i}");
            })
            .join();
        }
        // All shards are now poisoned; the cache must still serve.
        assert!(cache.get(fp(1)).is_some(), "pre-poison entry still readable");
        cache.insert(fp(2), encoding(4, 8));
        assert!(cache.get(fp(2)).is_some(), "post-poison insert works");
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn hit_rate() {
        let cache = EncodingCache::new(1 << 20);
        assert_eq!(cache.stats().hit_rate(), 0.0);
        cache.insert(fp(1), encoding(2, 2));
        cache.get(fp(1));
        cache.get(fp(1));
        cache.get(fp(9));
        let s = cache.stats();
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
