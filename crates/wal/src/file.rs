//! File-backed stable log for the real-time runtimes.
//!
//! Layout: a 16-byte header (`magic‖version‖low_water`) followed by
//! framed records (see [`crate::encode`]). Appends accumulate in a
//! process-memory buffer; a force (or flush) writes the buffer and
//! `sync_data`s the file. A crash before the flush therefore loses the
//! buffered records — matching [`crate::mem::MemLog`]'s semantics.
//!
//! Garbage collection ([`StableLog::truncate_prefix`]) rewrites the
//! retained suffix into a sibling file and renames it into place, so
//! reclaimed bytes are physically returned.

use crate::encode::{decode_frame, encode_frame_into, frame_len, FrameOutcome};
use crate::error::WalError;
use crate::record::{LogRecord, Lsn, WalStats};
use crate::StableLog;
use acp_types::LogPayload;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Header magic: "WALH".
const HEADER_MAGIC: u32 = 0x5741_4C48;
/// On-disk format version.
const VERSION: u32 = 1;
/// Header length in bytes.
pub(crate) const HEADER_LEN: u64 = 16;

pub(crate) fn encode_header(low_water: Lsn) -> [u8; 16] {
    let mut h = [0u8; 16];
    h[0..4].copy_from_slice(&HEADER_MAGIC.to_le_bytes());
    h[4..8].copy_from_slice(&VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&low_water.raw().to_le_bytes());
    h
}

/// Make a just-renamed (or just-created) directory entry durable by
/// fsyncing the parent directory. `rename(2)` alone only updates the
/// in-memory dentry cache: until the directory inode itself is synced, a
/// crash can resurrect the old entry — for GC that means records above
/// the low-water mark coming back from the dead.
fn sync_parent_dir(path: &Path) -> Result<(), WalError> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()?;
    Ok(())
}

/// Remove a stale `*.rewrite` sibling left by a crash between
/// `truncate_prefix`'s rewrite and its rename. The sibling is dead
/// weight at best; at worst a later GC opens it with `truncate(true)`
/// and silently discards whatever evidence a postmortem needed.
fn remove_stale_rewrite(path: &Path) -> Result<(), WalError> {
    let rewrite = path.with_extension("rewrite");
    match std::fs::metadata(&rewrite) {
        Ok(m) if m.is_file() => {
            std::fs::remove_file(&rewrite)?;
            sync_parent_dir(path)?;
            Ok(())
        }
        _ => Ok(()),
    }
}

pub(crate) fn decode_header(buf: &[u8]) -> Result<Lsn, WalError> {
    if buf.len() < HEADER_LEN as usize {
        return Err(WalError::Corrupt {
            offset: 0,
            detail: "short header".into(),
        });
    }
    let magic = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    if magic != HEADER_MAGIC {
        return Err(WalError::Corrupt {
            offset: 0,
            detail: "bad header magic".into(),
        });
    }
    let version = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(WalError::Corrupt {
            offset: 4,
            detail: format!("unsupported wal version {version}"),
        });
    }
    Ok(Lsn(u64::from_le_bytes(
        buf[8..16].try_into().expect("8 bytes"),
    )))
}

/// A stable log persisted to a single file.
#[derive(Debug)]
pub struct FileLog {
    path: PathBuf,
    file: File,
    /// Encoded frames not yet written+synced; lost if the process dies.
    buffer: Vec<u8>,
    /// Decoded view of everything durable (kept in memory for cheap
    /// `records()`; rebuilt on open).
    durable: Vec<LogRecord>,
    /// Records represented in `buffer`.
    pending: Vec<LogRecord>,
    low_water: Lsn,
    next: Lsn,
    stats: WalStats,
}

impl FileLog {
    /// Create a new, empty log file (truncating any existing file).
    pub fn create(path: impl Into<PathBuf>) -> Result<FileLog, WalError> {
        let path = path.into();
        remove_stale_rewrite(&path)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&encode_header(Lsn::ZERO))?;
        file.sync_data()?;
        sync_parent_dir(&path)?;
        Ok(FileLog {
            path,
            file,
            buffer: Vec::new(),
            durable: Vec::new(),
            pending: Vec::new(),
            low_water: Lsn::ZERO,
            next: Lsn::ZERO,
            stats: WalStats::default(),
        })
    }

    /// Open an existing log file, replaying its durable records.
    ///
    /// A torn record at the tail (from a crash mid-write) is truncated
    /// away; everything before it is recovered.
    pub fn open(path: impl Into<PathBuf>) -> Result<FileLog, WalError> {
        let path = path.into();
        remove_stale_rewrite(&path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut image = Vec::new();
        file.read_to_end(&mut image)?;
        let low_water = decode_header(&image)?;

        let mut durable = Vec::new();
        let mut offset = HEADER_LEN as usize;
        while offset < image.len() {
            match decode_frame(&image[offset..], offset as u64)? {
                FrameOutcome::Record(rec, consumed) => {
                    durable.push(rec);
                    offset += consumed;
                }
                FrameOutcome::Torn => break,
            }
        }
        // Physically drop the torn tail so future appends start clean.
        if (offset as u64) < image.len() as u64 {
            file.set_len(offset as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;

        let next = durable.last().map_or(low_water, |r| r.lsn.next());
        let durable_bytes = offset as u64 - HEADER_LEN;
        Ok(FileLog {
            path,
            file,
            buffer: Vec::new(),
            durable,
            pending: Vec::new(),
            low_water,
            next,
            stats: WalStats {
                durable_bytes,
                ..WalStats::default()
            },
        })
    }

    /// The file path backing this log.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Simulate a crash without dropping the value: buffered records are
    /// discarded and the durable image is re-read from disk. Returns the
    /// number of records lost. (A restarted socket node instead drops the
    /// whole `FileLog` and re-`open`s.)
    pub fn simulate_crash(&mut self) -> Result<usize, WalError> {
        let lost = self.pending.len();
        self.stats.lost_on_crash += lost as u64;
        self.buffer.clear();
        self.pending.clear();
        let reopened = FileLog::open(self.path.clone())?;
        self.durable = reopened.durable;
        self.low_water = reopened.low_water;
        self.next = reopened.next;
        Ok(lost)
    }

    /// Fault injection: swap the file for a read-only handle, so every
    /// later write fails the way a dead device's would. Hosts' tests use
    /// this to drive their force-error paths over a real `FileLog`.
    pub fn revoke_writes(&mut self) -> Result<(), WalError> {
        self.file = File::open(&self.path)?;
        Ok(())
    }

    fn write_out(&mut self) -> Result<(), WalError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.buffer)?;
        self.file.sync_data()?;
        self.stats.durable_bytes += self.buffer.len() as u64;
        self.buffer.clear();
        self.durable.append(&mut self.pending);
        Ok(())
    }
}

impl StableLog for FileLog {
    fn append(&mut self, payload: LogPayload, force: bool) -> Result<Lsn, WalError> {
        let lsn = self.next;
        self.next = self.next.next();
        self.stats.appends += 1;
        encode_frame_into(&mut self.buffer, lsn, force, &payload);
        self.pending.push(LogRecord {
            lsn,
            forced: force,
            payload,
        });
        if force {
            self.stats.forces += 1;
            self.write_out()?;
        }
        Ok(lsn)
    }

    fn flush(&mut self) -> Result<(), WalError> {
        self.stats.flushes += 1;
        self.write_out()
    }

    fn records(&self) -> Result<Vec<LogRecord>, WalError> {
        Ok(self.durable.clone())
    }

    fn for_each_record(&self, f: &mut dyn FnMut(&LogRecord)) -> Result<(), WalError> {
        self.durable.iter().for_each(f);
        Ok(())
    }

    fn truncate_prefix(&mut self, lsn: Lsn) -> Result<(), WalError> {
        let high = self.durable.last().map_or(self.low_water, |r| r.lsn.next());
        if lsn < self.low_water || lsn > high {
            return Err(WalError::BadTruncate {
                requested: lsn.raw(),
                low: self.low_water.raw(),
                high: high.raw(),
            });
        }
        // Rewrite the retained suffix to a sibling file, then swap. All
        // in-memory mutation is staged until the swap is durable: an I/O
        // error anywhere below must leave the log exactly as it was, or
        // memory and disk diverge and `records()` serves ghosts.
        let cut = self.durable.partition_point(|r| r.lsn < lsn);
        let retained = &self.durable[cut..];
        let frames: usize = retained.iter().map(|r| frame_len(&r.payload)).sum();
        let mut image = Vec::with_capacity(HEADER_LEN as usize + frames);
        image.extend_from_slice(&encode_header(lsn));
        for rec in retained {
            encode_frame_into(&mut image, rec.lsn, rec.forced, &rec.payload);
        }

        let tmp_path = self.path.with_extension("rewrite");
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(&image)?;
        tmp.sync_data()?;
        std::fs::rename(&tmp_path, &self.path)?;
        // The rename is only crash-durable once the directory entry is
        // synced; without this the pre-GC file can reappear after a
        // crash, resurrecting records above the low-water mark.
        sync_parent_dir(&self.path)?;
        tmp.seek(SeekFrom::End(0))?;

        // Commit: disk now holds the post-GC image.
        self.file = tmp;
        self.durable.drain(..cut);
        self.stats.truncated += cut as u64;
        self.low_water = lsn;
        Ok(())
    }

    fn low_water_mark(&self) -> Lsn {
        self.low_water
    }

    fn next_lsn(&self) -> Lsn {
        self.next
    }

    fn stats(&self) -> WalStats {
        self.stats
    }

    fn lose_unflushed(&mut self) -> Result<usize, WalError> {
        self.simulate_crash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use acp_types::TxnId;

    fn end(t: u64) -> LogPayload {
        LogPayload::End { txn: TxnId::new(t) }
    }

    #[test]
    fn create_append_reopen() {
        let dir = TempDir::new("filelog").unwrap();
        let path = dir.path().join("wal");
        {
            let mut log = FileLog::create(&path).unwrap();
            log.append(end(1), true).unwrap();
            log.append(end(2), false).unwrap();
            log.flush().unwrap();
        }
        let log = FileLog::open(&path).unwrap();
        let recs = log.records().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].payload, end(1));
        assert_eq!(log.next_lsn(), Lsn(2));
    }

    #[test]
    fn unflushed_records_lost_on_reopen() {
        let dir = TempDir::new("filelog").unwrap();
        let path = dir.path().join("wal");
        {
            let mut log = FileLog::create(&path).unwrap();
            log.append(end(1), true).unwrap();
            log.append(end(2), false).unwrap();
            // dropped without flush — record 2 was never written
        }
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.records().unwrap().len(), 1);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = TempDir::new("filelog").unwrap();
        let path = dir.path().join("wal");
        {
            let mut log = FileLog::create(&path).unwrap();
            log.append(end(1), true).unwrap();
            log.append(end(2), true).unwrap();
        }
        // Chop bytes off the tail to simulate a torn write.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let log = FileLog::open(&path).unwrap();
        let recs = log.records().unwrap();
        assert_eq!(recs.len(), 1, "torn second record dropped");
        assert_eq!(log.next_lsn(), Lsn(1));
    }

    #[test]
    fn simulate_crash_loses_pending() {
        let dir = TempDir::new("filelog").unwrap();
        let mut log = FileLog::create(dir.path().join("wal")).unwrap();
        log.append(end(1), true).unwrap();
        log.append(end(2), false).unwrap();
        assert_eq!(log.simulate_crash().unwrap(), 1);
        assert_eq!(log.records().unwrap().len(), 1);
        assert_eq!(log.next_lsn(), Lsn(1));
    }

    #[test]
    fn revoked_writes_fail_the_force_and_keep_the_record_pending() {
        let dir = TempDir::new("filelog-revoked").unwrap();
        let mut log = FileLog::create(dir.path().join("wal")).unwrap();
        log.append(end(1), true).unwrap();
        log.revoke_writes().unwrap();
        assert!(matches!(log.append(end(2), true), Err(WalError::Io(_))));
        assert_eq!(log.records().unwrap().len(), 1, "never reported durable");
    }

    #[test]
    fn truncate_physically_shrinks_file() {
        let dir = TempDir::new("filelog").unwrap();
        let path = dir.path().join("wal");
        let mut log = FileLog::create(&path).unwrap();
        for i in 0..20 {
            log.append(end(i), true).unwrap();
        }
        let big = std::fs::metadata(&path).unwrap().len();
        log.truncate_prefix(Lsn(15)).unwrap();
        let small = std::fs::metadata(&path).unwrap().len();
        assert!(small < big, "{small} !< {big}");
        assert_eq!(log.records().unwrap().len(), 5);

        // Low-water mark survives reopen.
        drop(log);
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.low_water_mark(), Lsn(15));
        assert_eq!(log.next_lsn(), Lsn(20));
    }

    #[test]
    fn stale_rewrite_sibling_is_removed_on_open() {
        // A crash between writing `wal.rewrite` and the rename leaves a
        // stale sibling. Before the fix, `open` ignored it and the next
        // GC opened it with truncate(true), silently discarding it.
        let dir = TempDir::new("filelog-stale").unwrap();
        let path = dir.path().join("wal");
        {
            let mut log = FileLog::create(&path).unwrap();
            for i in 0..6 {
                log.append(end(i), true).unwrap();
            }
        }
        // Fabricate the crash artifact: a half-written rewrite sibling.
        let stale = path.with_extension("rewrite");
        std::fs::write(&stale, b"half-written rewrite from a crashed GC").unwrap();

        let mut log = FileLog::open(&path).unwrap();
        assert!(!stale.exists(), "open must clear the stale .rewrite");
        assert_eq!(log.records().unwrap().len(), 6, "main log untouched");
        // GC proceeds normally with the sibling gone.
        log.truncate_prefix(Lsn(4)).unwrap();
        assert_eq!(log.records().unwrap().len(), 2);
        assert!(!stale.exists(), "successful GC leaves no sibling behind");
    }

    #[test]
    fn failed_truncate_leaves_memory_and_disk_consistent() {
        // Inject a rewrite failure by squatting a *directory* on the
        // `.rewrite` path: opening it as a file fails with EISDIR.
        // Before the fix, `durable`/`stats`/`low_water` were already
        // mutated by then, leaving memory claiming a GC that disk never
        // performed.
        let dir = TempDir::new("filelog-gcfail").unwrap();
        let path = dir.path().join("wal");
        let mut log = FileLog::create(&path).unwrap();
        for i in 0..8 {
            log.append(end(i), true).unwrap();
        }
        let before_stats = log.stats();
        std::fs::create_dir(path.with_extension("rewrite")).unwrap();

        let err = log.truncate_prefix(Lsn(5)).unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "expected I/O error, got {err:?}");
        // Nothing moved: the failed GC is invisible.
        assert_eq!(log.records().unwrap().len(), 8);
        assert_eq!(log.low_water_mark(), Lsn::ZERO);
        assert_eq!(log.stats().truncated, before_stats.truncated);
        // The log keeps working, and disk agrees with memory on reopen.
        log.append(end(100), true).unwrap();
        drop(log);
        std::fs::remove_dir(path.with_extension("rewrite")).unwrap();
        let mut log = FileLog::open(&path).unwrap();
        assert_eq!(log.records().unwrap().len(), 9);
        assert_eq!(log.low_water_mark(), Lsn::ZERO);
        // With the obstruction gone the retried GC succeeds.
        log.truncate_prefix(Lsn(5)).unwrap();
        assert_eq!(log.records().unwrap().len(), 4);
        assert_eq!(log.low_water_mark(), Lsn(5));
    }

    #[test]
    fn reopen_after_gc_sees_post_gc_image() {
        // End-to-end: GC, then a "crash" (drop without flush), then
        // reopen. The post-GC image — and only it — must be visible:
        // no resurrected pre-GC records, preserved low-water mark.
        let dir = TempDir::new("filelog-gcreopen").unwrap();
        let path = dir.path().join("wal");
        let mut log = FileLog::create(&path).unwrap();
        for i in 0..10 {
            log.append(end(i), true).unwrap();
        }
        log.truncate_prefix(Lsn(7)).unwrap();
        drop(log);
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.low_water_mark(), Lsn(7));
        let recs = log.records().unwrap();
        assert_eq!(recs.len(), 3);
        assert!(recs.iter().all(|r| r.lsn >= Lsn(7)), "no resurrected records");
    }

    #[test]
    fn appends_continue_after_truncate_and_reopen() {
        let dir = TempDir::new("filelog").unwrap();
        let path = dir.path().join("wal");
        let mut log = FileLog::create(&path).unwrap();
        for i in 0..5 {
            log.append(end(i), true).unwrap();
        }
        log.truncate_prefix(Lsn(5)).unwrap(); // empty log, low_water 5
        log.append(end(100), true).unwrap();
        drop(log);
        let log = FileLog::open(&path).unwrap();
        let recs = log.records().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].lsn, Lsn(5));
    }
}
