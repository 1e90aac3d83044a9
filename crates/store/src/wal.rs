//! The checksummed write-ahead log.
//!
//! Every `save` appends one framed record (see [`crate::format`]) to
//! `wal.log` with a single `write(2)` before the store acknowledges. A
//! single syscall per record means the bytes are in the kernel page
//! cache when `append` returns: the record survives `kill -9` of the
//! process. [`Wal::sync`] adds machine-crash durability (fsync); the
//! serve drain path calls it through `EmbeddingStore::flush`.
//!
//! Replay walks the frames front to back and stops at the first frame
//! that is incomplete or fails its CRC — everything after a torn write
//! is unreachable garbage by construction, so truncation is the only
//! correct recovery. Duplicate fingerprints keep the *latest* record
//! (append order is write order).

use crate::format::{frame_record, parse_record};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Append-only WAL writer.
pub struct Wal {
    /// Shared so a sync can run on a handle taken under the store lock
    /// after the lock is released ([`Wal::handle`]).
    file: Arc<File>,
    path: PathBuf,
    bytes: u64,
}

impl Wal {
    /// Open (creating if absent) `path` for appending.
    pub fn open(path: &Path) -> io::Result<Wal> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let bytes = file.metadata()?.len();
        Ok(Wal { file: Arc::new(file), path: path.to_path_buf(), bytes })
    }

    /// Append one record. The frame is assembled in memory and handed to
    /// the OS in one `write_all` — no user-space buffering survives this
    /// call, which is what makes ack-after-append `kill -9`-safe.
    pub fn append(&mut self, fp: u128, payload: &[u8]) -> io::Result<()> {
        let mut frame = Vec::with_capacity(crate::format::FRAME_HEADER + payload.len());
        frame_record(&mut frame, fp, payload);
        (&*self.file).write_all(&frame)?;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// fsync: make everything appended so far machine-crash durable.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_all()
    }

    /// The open log file, for an fsync that must not hold whatever lock
    /// guards appends (a sync covers every append before it started).
    pub fn handle(&self) -> Arc<File> {
        Arc::clone(&self.file)
    }

    /// Bytes appended (including any pre-existing content).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The file path this WAL appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Outcome of replaying one WAL file.
pub struct Replay {
    /// Verified records in append order (callers apply newest-wins).
    pub records: Vec<(u128, Vec<u8>)>,
    /// Bytes of torn/corrupt tail that were dropped.
    pub dropped_bytes: u64,
}

/// Replay `path`. A missing file is an empty log, not an error.
pub fn replay(path: &Path) -> io::Result<Replay> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(Replay { records: Vec::new(), dropped_bytes: 0 })
        }
        Err(e) => return Err(e),
    }
    let mut records = Vec::new();
    let mut pos = 0;
    while let Some((fp, payload, next)) = parse_record(&buf, pos) {
        records.push((fp, payload.to_vec()));
        pos = next;
    }
    Ok(Replay { records, dropped_bytes: (buf.len() - pos) as u64 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("obs-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn append_replay_roundtrip_newest_visible() {
        let path = tmp("rt");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(1, b"one").unwrap();
        wal.append(2, b"two").unwrap();
        wal.append(1, b"one-v2").unwrap();
        wal.sync().unwrap();
        let replay = replay(&path).unwrap();
        assert_eq!(replay.dropped_bytes, 0);
        assert_eq!(replay.records.len(), 3, "replay preserves append order");
        assert_eq!(replay.records[2], (1, b"one-v2".to_vec()));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmp("torn");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(7, b"intact").unwrap();
        drop(wal);
        // Simulate a torn write: append half a frame.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB; 9]).unwrap();
        drop(f);
        let replay = replay(&path).unwrap();
        assert_eq!(replay.records, vec![(7, b"intact".to_vec())]);
        assert_eq!(replay.dropped_bytes, 9);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn missing_file_is_empty_log() {
        let path = tmp("missing");
        let replay = replay(&path.join("nope")).unwrap();
        assert!(replay.records.is_empty());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let path = tmp("reopen");
        Wal::open(&path).unwrap().append(1, b"a").unwrap();
        let mut wal = Wal::open(&path).unwrap();
        assert!(wal.bytes() > 0, "reopen sees prior bytes");
        wal.append(2, b"b").unwrap();
        let replay = replay(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
