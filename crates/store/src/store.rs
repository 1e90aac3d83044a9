//! The mmap store adapter: LSM-lite over a memtable, a WAL, and
//! immutable segments, with a background compactor thread.
//!
//! ## Write path
//!
//! `save` appends the encoded record to the WAL (one `write(2)` — the
//! ack point) and inserts the payload into the in-memory memtable. When
//! the WAL crosses the rotation threshold, the memtable is *frozen*: the
//! WAL is renamed to `wal-frozen.log` and a fresh `wal.log` opens — the
//! only file work done under the store lock — and the frozen records are
//! handed to the compactor thread, which fsyncs the frozen WAL, writes
//! the records as an immutable segment (tmp → fsync → rename → dir
//! fsync) and only then deletes `wal-frozen.log`. At no point is a
//! record's only copy in volatile memory, and no reader waits on a disk
//! sync: `flush` also syncs outside the lock, on file handles taken
//! under it.
//!
//! ## Read path
//!
//! memtable → frozen memtable → segments newest-first. Segment payloads
//! are CRC-verified before decode; any failure reads as a miss, the
//! engine re-encodes, and the fresh write-through replaces the bad
//! record — corruption is self-healing.
//!
//! ## Recovery
//!
//! On open: sweep `*.tmp`/`wal.new` leftovers, open every segment
//! (falling back to a sequential scan when an index block is corrupt),
//! replay `wal-frozen.log` then `wal.log` (newest wins, torn tails
//! truncated), and — when anything was torn or a frozen WAL survived a
//! crash — rewrite a single compacted `wal.log` (via `wal.new` +
//! atomic rename) before deleting the frozen one. A crash at any point
//! of recovery itself leaves a state recovery handles again.
//!
//! ## Compaction
//!
//! When the segment count reaches the threshold, the compactor merges
//! all current segments newest-wins into one (per-record CRCs verified
//! in parallel on the worker pool) and atomically swaps the list.

use crate::format::{decode_payload, encode_payload};
use crate::segment::{parse_segment_id, Segment};
use crate::wal::{self, Wal};
use observatory_models::ModelEncoding;
use observatory_obs as obs;
use observatory_runtime::{run_indexed, EmbeddingStore, Fingerprint, StoreTierStats};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Active WAL file name.
const WAL: &str = "wal.log";
/// A WAL frozen at rotation, deleted once its segment is durable.
const WAL_FROZEN: &str = "wal-frozen.log";
/// Scratch name for the recovery rewrite (atomic-renamed over [`WAL`]).
const WAL_NEW: &str = "wal.new";

/// Tuning knobs for [`MmapStore`]. [`StoreConfig::new`] reads the
/// `OBSERVATORY_STORE_ROTATE_BYTES` and `OBSERVATORY_STORE_COMPACT_SEGMENTS`
/// environment overrides so tests and benches can force tiny thresholds.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the WAL and segment files (created if absent).
    pub dir: PathBuf,
    /// Rotate the memtable into a segment when the WAL reaches this size.
    pub rotate_bytes: u64,
    /// Merge all segments into one when their count reaches this.
    pub compact_threshold: usize,
    /// Worker count for parallel verification during compaction.
    pub jobs: usize,
}

impl StoreConfig {
    /// Defaults for `dir`: 64 MiB rotation, compact at 4 segments,
    /// workers from the environment.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        let env_u64 = |key: &str| std::env::var(key).ok().and_then(|v| v.parse::<u64>().ok());
        StoreConfig {
            dir: dir.into(),
            rotate_bytes: env_u64("OBSERVATORY_STORE_ROTATE_BYTES").unwrap_or(64 << 20),
            compact_threshold: env_u64("OBSERVATORY_STORE_COMPACT_SEGMENTS")
                .map_or(4, |v| v.max(2) as usize),
            jobs: observatory_runtime::resolve_jobs(None),
        }
    }
}

/// Lock-free statistic counters (relaxed: counts, not ordering).
#[derive(Default)]
struct Counters {
    reads: AtomicU64,
    writes: AtomicU64,
    read_errors: AtomicU64,
    rotations: AtomicU64,
    compactions: AtomicU64,
    recovery_dropped: AtomicU64,
    generation: AtomicU64,
}

/// Mutable store state behind one mutex: the lookup structures and the
/// WAL writer (a WAL append per save is the serialization point that
/// keeps log order identical to memtable order).
struct Inner {
    memtable: HashMap<u128, Arc<Vec<u8>>>,
    /// The rotation in flight, if any.
    frozen: Option<Frozen>,
    wal: Wal,
    /// Oldest → newest. Lookups scan in reverse.
    segments: Vec<Arc<Segment>>,
    next_seg_id: u64,
}

/// A rotation in flight: the frozen memtable, readable until its segment
/// is installed, and the frozen WAL's file, which `flush` syncs until then.
struct Frozen {
    memtable: HashMap<u128, Arc<Vec<u8>>>,
    wal: Arc<fs::File>,
}

struct Shared {
    config: StoreConfig,
    inner: Mutex<Inner>,
    stats: Counters,
}

/// Background work item: fsync the frozen WAL, write frozen-memtable
/// `records` as segment `seg_id`, install it, delete the frozen WAL.
/// Compaction runs inline on the same worker afterwards, so jobs stay
/// strictly ordered.
struct Job {
    records: Vec<(u128, Arc<Vec<u8>>)>,
    seg_id: u64,
    wal: Arc<fs::File>,
}

/// The memory-mapped tier-2 store. See the module docs for the design.
pub struct MmapStore {
    shared: Arc<Shared>,
    /// `None` after the worker has been stopped (Drop).
    tx: Mutex<Option<Sender<Job>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl MmapStore {
    /// Open (or create) the store at `config.dir`, running crash
    /// recovery, and start the background compactor.
    pub fn open(config: StoreConfig) -> io::Result<MmapStore> {
        fs::create_dir_all(&config.dir)?;
        let mut span = obs::span(obs::Level::Info, "store", "open")
            .with("dir", config.dir.display().to_string());
        let stats = Counters::default();

        // Sweep scratch files a crash may have left behind. A torn
        // `.tmp` segment was never renamed, so nothing references it.
        for entry in fs::read_dir(&config.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".tmp") || name == WAL_NEW {
                let _ = fs::remove_file(&path);
            }
        }

        // Open every segment, oldest first. A segment that cannot be
        // opened at all is quarantined (renamed aside) rather than
        // silently retried forever.
        let mut seg_paths: Vec<(u64, PathBuf)> = fs::read_dir(&config.dir)?
            .filter_map(|e| {
                let path = e.ok()?.path();
                let id = parse_segment_id(path.file_name()?.to_str()?)?;
                Some((id, path))
            })
            .collect();
        seg_paths.sort();
        let mut segments = Vec::with_capacity(seg_paths.len());
        let mut next_seg_id = 0;
        for (id, path) in seg_paths {
            next_seg_id = next_seg_id.max(id + 1);
            match Segment::open(&path) {
                Ok(seg) => {
                    if seg.recovered_by_scan {
                        obs::event(obs::Level::Error, "store", "segment_index_rebuilt");
                    }
                    segments.push(Arc::new(seg));
                }
                Err(_) => {
                    stats.recovery_dropped.fetch_add(1, Ordering::Relaxed);
                    obs::event(obs::Level::Error, "store", "segment_quarantined");
                    // Quarantine is an anomaly: snapshot the flight ring
                    // so the events leading up to the corruption survive.
                    obs::flight::record(obs::flight::FlightKind::Quarantine, "store", [0; 5], id);
                    obs::flight::dump("quarantine");
                    let _ = fs::rename(&path, path.with_extension("seg.corrupt"));
                }
            }
        }

        // Replay the WALs: frozen first (older), then active — a later
        // record for the same fingerprint wins.
        let frozen_path = config.dir.join(WAL_FROZEN);
        let wal_path = config.dir.join(WAL);
        let had_frozen = frozen_path.exists();
        let frozen_replay = wal::replay(&frozen_path)?;
        let active_replay = wal::replay(&wal_path)?;
        let torn = frozen_replay.dropped_bytes + active_replay.dropped_bytes;
        if torn > 0 {
            stats.recovery_dropped.fetch_add(1, Ordering::Relaxed);
            obs::event(obs::Level::Error, "store", "wal_tail_truncated");
        }
        let mut memtable: HashMap<u128, Arc<Vec<u8>>> = HashMap::new();
        for (fp, payload) in frozen_replay.records.into_iter().chain(active_replay.records) {
            memtable.insert(fp, Arc::new(payload));
        }

        // When a frozen WAL survived (crash mid-rotation) or a tail was
        // torn, rewrite one compacted active WAL: everything live, no
        // garbage, atomically swapped in before the frozen log goes away.
        if had_frozen || torn > 0 {
            let new_path = config.dir.join(WAL_NEW);
            {
                let mut new_wal = Wal::open(&new_path)?;
                let mut fps: Vec<&u128> = memtable.keys().collect();
                fps.sort();
                for fp in fps {
                    new_wal.append(*fp, &memtable[fp])?;
                }
                new_wal.sync()?;
            }
            fs::rename(&new_path, &wal_path)?;
            fs::File::open(&config.dir)?.sync_all()?;
            let _ = fs::remove_file(&frozen_path);
        }
        let wal = Wal::open(&wal_path)?;

        // The generation seeds from the segment id space so it stays
        // monotone across restarts (every rotation/compaction claims an
        // id and bumps it).
        stats.generation.store(next_seg_id, Ordering::Relaxed);
        span.record("segments", segments.len());
        span.record("recovered_records", memtable.len());

        let shared = Arc::new(Shared {
            config,
            inner: Mutex::new(Inner { memtable, frozen: None, wal, segments, next_seg_id }),
            stats,
        });
        let (tx, rx) = channel::<Job>();
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("store-compactor".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    worker_shared.finish_rotation(job);
                }
            })
            .map_err(io::Error::other)?;
        Ok(MmapStore { shared, tx: Mutex::new(Some(tx)), worker: Mutex::new(Some(worker)) })
    }

    /// Stop the background worker after it drains queued jobs. Called by
    /// Drop; idempotent.
    pub fn shutdown(&self) {
        let tx = self.tx.lock().unwrap_or_else(|e| e.into_inner()).take();
        drop(tx); // closes the channel; the worker drains and exits
        let worker = self.worker.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(handle) = worker {
            let _ = handle.join();
        }
    }

    /// Block until no rotation is mid-flight (all acked records are in
    /// the active WAL, the frozen memtable, or a durable segment —
    /// frozen implies its WAL file still exists). Test/bench helper.
    pub fn quiesce(&self) {
        loop {
            {
                let inner = self.shared.lock_inner();
                if inner.frozen.is_none() {
                    return;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    /// Force the current memtable into a durable segment regardless of
    /// the rotation threshold, and wait for it (and any compaction it
    /// triggers) to complete. Saves racing with the checkpoint may leave
    /// a fresh (small) memtable behind; records present when this was
    /// called are on disk in segment form when it returns.
    pub fn checkpoint(&self) {
        enum Step {
            Wait,
            Done,
            Failed,
            Submit(Job),
        }
        loop {
            let step = {
                let mut inner = self.shared.lock_inner();
                if inner.frozen.is_some() {
                    Step::Wait // a rotation is in flight; wait it out first
                } else if inner.memtable.is_empty() {
                    Step::Done
                } else {
                    match self.shared.freeze(&mut inner) {
                        Some(job) => Step::Submit(job),
                        None => Step::Failed, // disk trouble; stay degraded
                    }
                }
            };
            match step {
                Step::Done | Step::Failed => return,
                Step::Wait => self.quiesce(),
                Step::Submit(job) => {
                    self.submit(Some(job));
                    self.quiesce();
                }
            }
        }
    }

    fn submit(&self, job: Option<Job>) {
        if let Some(job) = job {
            if let Some(tx) = self.tx.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
                let _ = tx.send(job);
            }
        }
    }
}

impl Drop for MmapStore {
    fn drop(&mut self) {
        self.shutdown();
        // Best-effort final fsync so a clean exit is machine-durable.
        let _ = self.flush();
    }
}

impl Shared {
    fn lock_inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Recover from poisoning: all invariants are re-checked by
        // recovery anyway, and a wedged store would take serving down.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Freeze the memtable (caller holds the lock and has checked
    /// `frozen.is_none()`): rename the WAL, open a fresh one, and produce
    /// the rotation job for the compactor. The frozen WAL's fsync is the
    /// compactor's: a 64 MiB sync under the lock would stall every
    /// reader and writer of the store for seconds.
    fn freeze(&self, inner: &mut Inner) -> Option<Job> {
        let rotated = fs::rename(inner.wal.path(), self.config.dir.join(WAL_FROZEN))
            .and_then(|()| Wal::open(&self.config.dir.join(WAL)));
        match rotated {
            Ok(fresh) => {
                let wal = std::mem::replace(&mut inner.wal, fresh).handle();
                let memtable = std::mem::take(&mut inner.memtable);
                let records: Vec<(u128, Arc<Vec<u8>>)> =
                    memtable.iter().map(|(fp, p)| (*fp, Arc::clone(p))).collect();
                inner.frozen = Some(Frozen { memtable, wal: Arc::clone(&wal) });
                let seg_id = inner.next_seg_id;
                inner.next_seg_id += 1;
                Some(Job { records, seg_id, wal })
            }
            Err(_) => {
                obs::event(obs::Level::Error, "store", "wal_rotate_failed");
                None
            }
        }
    }

    /// Compactor half of a rotation: sync the frozen WAL, make the
    /// frozen memtable durable as a segment, then retire the frozen WAL.
    fn finish_rotation(&self, job: Job) {
        let Job { mut records, seg_id, wal } = job;
        let mut span =
            obs::span(obs::Level::Debug, "store", "rotate").with("records", records.len());
        if wal.sync_all().is_err() {
            obs::event(obs::Level::Error, "store", "wal_sync_failed");
        }
        records.sort_by_key(|(fp, _)| *fp);
        let refs: Vec<(u128, &[u8])> = records.iter().map(|(fp, p)| (*fp, p.as_slice())).collect();
        match Segment::create(&self.config.dir, seg_id, &refs) {
            Ok(seg) => {
                let compact = {
                    let mut inner = self.lock_inner();
                    inner.segments.push(Arc::new(seg));
                    inner.frozen = None;
                    let _ = fs::remove_file(self.config.dir.join(WAL_FROZEN));
                    self.stats.rotations.fetch_add(1, Ordering::Relaxed);
                    self.stats.generation.fetch_add(1, Ordering::Relaxed);
                    if inner.segments.len() >= self.config.compact_threshold {
                        let ids: Vec<u64> = inner.segments.iter().map(|s| s.id()).collect();
                        let id = inner.next_seg_id;
                        inner.next_seg_id += 1;
                        Some((ids, id))
                    } else {
                        None
                    }
                };
                span.record("segment", seg_id);
                if let Some((ids, id)) = compact {
                    // Run inline on this worker: jobs stay ordered.
                    self.run_compaction(&ids, id);
                }
            }
            Err(_) => {
                // Leave `frozen` and the frozen WAL in place: records
                // stay readable in memory now and via WAL replay after a
                // restart. Rotation is blocked until an operator frees
                // disk space — degraded, not lossy.
                obs::event(obs::Level::Error, "store", "rotation_failed");
            }
        }
    }

    /// Merge segments `ids` (a prefix of the list) newest-wins into one
    /// segment `seg_id` and swap it in.
    fn run_compaction(&self, ids: &[u64], seg_id: u64) {
        let sources: Vec<Arc<Segment>> = {
            let inner = self.lock_inner();
            inner.segments.iter().filter(|s| ids.contains(&s.id())).cloned().collect()
        };
        if sources.is_empty() {
            return;
        }
        let mut span =
            obs::span(obs::Level::Info, "store", "compact").with("segments", sources.len());
        // Parallel CRC verification: each segment's records are read
        // (and checksummed) on the worker pool.
        let verified: Vec<Vec<(u128, &[u8])>> =
            run_indexed(self.config.jobs, sources.len(), |i| sources[i].iter().collect());
        // Newest wins: later segments overwrite earlier fingerprints.
        let mut merged: HashMap<u128, &[u8]> = HashMap::new();
        for records in &verified {
            for &(fp, payload) in records {
                merged.insert(fp, payload);
            }
        }
        let mut records: Vec<(u128, &[u8])> = merged.into_iter().collect();
        records.sort_by_key(|(fp, _)| *fp);
        span.record("records", records.len());
        match Segment::create(&self.config.dir, seg_id, &records) {
            Ok(seg) => {
                let removed: Vec<PathBuf> = {
                    let mut inner = self.lock_inner();
                    let removed = inner
                        .segments
                        .iter()
                        .filter(|s| ids.contains(&s.id()))
                        .map(|s| s.path().to_path_buf())
                        .collect();
                    // The merged segment replaces the prefix it covers;
                    // segments rotated in meanwhile stay behind it (they
                    // are newer, and lookups scan from the back).
                    inner.segments.retain(|s| !ids.contains(&s.id()));
                    inner.segments.insert(0, Arc::new(seg));
                    self.stats.compactions.fetch_add(1, Ordering::Relaxed);
                    self.stats.generation.fetch_add(1, Ordering::Relaxed);
                    removed
                };
                for path in removed {
                    let _ = fs::remove_file(path);
                }
            }
            Err(_) => obs::event(obs::Level::Error, "store", "compaction_failed"),
        }
    }
}

impl EmbeddingStore for MmapStore {
    fn load(&self, fp: Fingerprint) -> Option<Arc<ModelEncoding>> {
        // Resolve the payload under the lock, decode outside it.
        enum Found {
            Bytes(Arc<Vec<u8>>),
            Seg(Arc<Segment>),
        }
        let found = {
            let inner = self.shared.lock_inner();
            if let Some(p) = inner.memtable.get(&fp.0) {
                Some(Found::Bytes(Arc::clone(p)))
            } else if let Some(p) = inner.frozen.as_ref().and_then(|f| f.memtable.get(&fp.0)) {
                Some(Found::Bytes(Arc::clone(p)))
            } else {
                inner
                    .segments
                    .iter()
                    .rev()
                    .find(|s| s.contains(fp.0))
                    .map(|s| Found::Seg(Arc::clone(s)))
            }
        }?;
        let decoded = match &found {
            Found::Bytes(p) => decode_payload(p),
            // `get` re-verifies the CRC against the mapped bytes.
            Found::Seg(seg) => seg.get(fp.0).and_then(decode_payload),
        };
        match decoded {
            Some(enc) => {
                self.shared.stats.reads.fetch_add(1, Ordering::Relaxed);
                Some(Arc::new(enc))
            }
            None => {
                // Indexed but unreadable: count it and report a miss so
                // the engine re-encodes and overwrites (self-healing).
                self.shared.stats.read_errors.fetch_add(1, Ordering::Relaxed);
                obs::event(obs::Level::Error, "store", "read_error");
                None
            }
        }
    }

    fn save(&self, fp: Fingerprint, enc: &ModelEncoding) {
        let payload = encode_payload(enc);
        let rotate = {
            let mut inner = self.shared.lock_inner();
            if let Err(e) = inner.wal.append(fp.0, &payload) {
                // Keep serving from memory; durability for this record is
                // lost but nothing else is. The event is the operator's
                // signal (disk full is the realistic cause).
                obs::event(obs::Level::Error, "store", "wal_append_failed");
                let _ = e;
            }
            inner.memtable.insert(fp.0, Arc::new(payload));
            self.shared.stats.writes.fetch_add(1, Ordering::Relaxed);
            if inner.wal.bytes() >= self.shared.config.rotate_bytes && inner.frozen.is_none() {
                self.shared.freeze(&mut inner)
            } else {
                None
            }
        };
        self.submit(rotate);
    }

    fn flush(&self) -> io::Result<()> {
        // Take the handles under the lock, sync outside it: a save or a
        // load never waits on the disk. A rotation still pending keeps
        // its frozen WAL the only durable copy, so it is synced too.
        let (active, frozen) = {
            let inner = self.shared.lock_inner();
            (inner.wal.handle(), inner.frozen.as_ref().map(|f| Arc::clone(&f.wal)))
        };
        if let Some(frozen) = frozen {
            frozen.sync_all()?;
        }
        active.sync_all()
    }

    fn tier_stats(&self) -> StoreTierStats {
        let inner = self.shared.lock_inner();
        let mut live: std::collections::HashSet<u128> = inner.memtable.keys().copied().collect();
        if let Some(frozen) = &inner.frozen {
            live.extend(frozen.memtable.keys());
        }
        for seg in &inner.segments {
            live.extend(seg.fingerprints());
        }
        let frozen_wal_bytes =
            fs::metadata(self.shared.config.dir.join(WAL_FROZEN)).map(|m| m.len()).unwrap_or(0);
        let s = &self.shared.stats;
        StoreTierStats {
            records: live.len() as u64,
            segments: inner.segments.len() as u64,
            segment_bytes: inner.segments.iter().map(|s| s.file_bytes()).sum(),
            wal_bytes: inner.wal.bytes() + frozen_wal_bytes,
            memtable_records: (inner.memtable.len()
                + inner.frozen.as_ref().map_or(0, |f| f.memtable.len()))
                as u64,
            generation: s.generation.load(Ordering::Relaxed),
            reads: s.reads.load(Ordering::Relaxed),
            writes: s.writes.load(Ordering::Relaxed),
            read_errors: s.read_errors.load(Ordering::Relaxed),
            rotations: s.rotations.load(Ordering::Relaxed),
            compactions: s.compactions.load(Ordering::Relaxed),
            recovery_dropped: s.recovery_dropped.load(Ordering::Relaxed),
        }
    }

    fn fingerprints(&self) -> Vec<Fingerprint> {
        // Union across tiers (memtable, frozen memtable, segments): a
        // fingerprint rewritten since the last rotation appears in more
        // than one tier, so dedup before handing the list out. Sorted
        // ascending to make warm-start index builds order-deterministic
        // regardless of rotation history.
        let inner = self.shared.lock_inner();
        let mut live: std::collections::HashSet<u128> = inner.memtable.keys().copied().collect();
        if let Some(frozen) = &inner.frozen {
            live.extend(frozen.memtable.keys());
        }
        for seg in &inner.segments {
            live.extend(seg.fingerprints());
        }
        drop(inner);
        let mut out: Vec<Fingerprint> = live.into_iter().map(Fingerprint).collect();
        out.sort_unstable_by_key(|fp| fp.0);
        out
    }
}

/// Open a store at `dir` with default tuning and attach it to `engine`.
/// Returns the store handle (the engine holds its own `Arc`). Fails if
/// another store is already attached.
pub fn open_and_attach(
    dir: &Path,
    engine: &observatory_runtime::Engine,
) -> io::Result<Arc<MmapStore>> {
    let store = Arc::new(MmapStore::open(StoreConfig::new(dir))?);
    if !engine.attach_store(Arc::clone(&store) as Arc<dyn EmbeddingStore>) {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            "an embedding store is already attached to the engine",
        ));
    }
    Ok(store)
}
