//! The file store: a [`FramedLog`] persisted to a single file, for the
//! real-time runtimes. [`Disk`] is the medium and nothing else — the
//! file handle, the `pread` that reads live frames back (the file is
//! the log's only copy of them), the `pwrite` + `fdatasync` of the
//! header's low-water field that is GC in place, and the `.rewrite`
//! sibling + `rename` + parent-directory fsync that make a compaction's
//! image swap atomic and crash-durable.

use crate::error::WalError;
use crate::framed::{encode_header, FramedLog, Store, LOW_WATER_AT};
use crate::record::Lsn;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

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
    if std::fs::metadata(&rewrite).is_ok_and(|m| m.is_file()) {
        std::fs::remove_file(&rewrite)?;
        sync_parent_dir(path)?;
    }
    Ok(())
}

/// A new (or emptied) file holding exactly `image`, synced, positioned
/// at its end.
fn write_new(path: &Path, image: &[u8]) -> Result<File, WalError> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    file.write_all(image)?;
    file.sync_data()?;
    Ok(file)
}

/// A single file as a log's medium. GC moves the header's low-water
/// mark with one positioned write and a data sync; a compaction writes a
/// sibling file and renames it over this one.
#[derive(Debug)]
pub struct Disk {
    path: PathBuf,
    /// Positioned at the end of the image between calls.
    file: File,
}

impl Store for Disk {
    fn restart(&mut self) -> Result<Vec<u8>, WalError> {
        remove_stale_rewrite(&self.path)?;
        let mut image = Vec::new();
        self.file.seek(SeekFrom::Start(0))?;
        self.file.read_to_end(&mut image)?;
        Ok(image)
    }

    fn read_at(&self, at: u64, buf: &mut [u8]) -> Result<(), WalError> {
        // Positioned: the append cursor stays at the end of the image.
        self.file.read_exact_at(buf, at)?;
        Ok(())
    }

    fn append_sync(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.file.write_all(bytes)?;
        self.file.sync_data()?;
        Ok(())
    }

    fn replace(&mut self, image: &[u8]) -> Result<(), WalError> {
        // Write the image to a sibling file, then swap.
        let tmp_path = self.path.with_extension("rewrite");
        let tmp = write_new(&tmp_path, image)?;
        std::fs::rename(&tmp_path, &self.path)?;
        // The rename is only crash-durable once the directory entry is
        // synced; without this the pre-GC file can reappear after a
        // crash, resurrecting records above the low-water mark.
        sync_parent_dir(&self.path)?;
        self.file = tmp;
        Ok(())
    }

    fn set_low_water(&mut self, lsn: Lsn) -> Result<(), WalError> {
        // Positioned: the append cursor stays at the end of the image.
        self.file
            .write_all_at(&lsn.raw().to_le_bytes(), LOW_WATER_AT as u64)?;
        self.file.sync_data()?;
        Ok(())
    }

    fn cut(&mut self, len: u64) -> Result<(), WalError> {
        self.file.set_len(len)?;
        self.file.sync_data()?;
        self.file.seek(SeekFrom::Start(len))?;
        Ok(())
    }
}

/// A stable log persisted to a single file.
pub type FileLog = FramedLog<Disk>;

impl FramedLog<Disk> {
    /// Create a new, empty log file (truncating any existing file).
    pub fn create(path: impl Into<PathBuf>) -> Result<FileLog, WalError> {
        let path = path.into();
        remove_stale_rewrite(&path)?;
        let file = write_new(&path, &encode_header(Lsn::ZERO))?;
        sync_parent_dir(&path)?;
        Ok(FramedLog::empty(Disk { path, file }))
    }

    /// Open an existing log file, replaying its durable records. A torn
    /// record at the tail (from a crash mid-write) is truncated away.
    pub fn open(path: impl Into<PathBuf>) -> Result<FileLog, WalError> {
        let path = path.into();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        FramedLog::recovered(Disk { path, file })
    }

    /// The file path backing this log.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.store.path
    }

    /// Fault injection: swap the file for a read-only handle, so every
    /// later write fails the way a dead device's would (hosts' tests
    /// drive their force-error paths over a real `FileLog` with it).
    pub fn revoke_writes(&mut self) -> Result<(), WalError> {
        self.store.file = File::open(&self.store.path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use crate::StableLog;
    use acp_types::{LogPayload, TxnId};

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
    fn recover_loses_pending() {
        let dir = TempDir::new("filelog").unwrap();
        let mut log = FileLog::create(dir.path().join("wal")).unwrap();
        log.append(end(1), true).unwrap();
        log.append(end(2), false).unwrap();
        assert_eq!(log.recover().unwrap().lost_buffered, 1);
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

    /// Records whose GC at [`ABOVE_FLOOR_CUT`] releases more dead bytes
    /// than the live suffix and the reclaim floor: it compacts.
    /// An `end` frame is 30 bytes, so the cut releases nearly twice the
    /// floor and keeps 50 records live.
    const ABOVE_FLOOR_CUT: Lsn = Lsn(crate::RECLAIM_FLOOR / 16);
    const ABOVE_FLOOR: u64 = ABOVE_FLOOR_CUT.0 + 50;

    fn forced_ends(path: &Path, n: u64) -> FileLog {
        let mut log = FileLog::create(path).unwrap();
        for i in 0..n {
            log.append(end(i), true).unwrap();
        }
        log
    }

    #[test]
    fn truncate_physically_shrinks_file() {
        let dir = TempDir::new("filelog").unwrap();
        let path = dir.path().join("wal");
        let mut log = forced_ends(&path, ABOVE_FLOOR);
        let big = std::fs::metadata(&path).unwrap().len();
        log.truncate_prefix(ABOVE_FLOOR_CUT).unwrap();
        let small = std::fs::metadata(&path).unwrap().len();
        assert!(small < big, "{small} !< {big}");
        assert_eq!(log.records().unwrap().len(), 50);

        // Low-water mark survives reopen.
        drop(log);
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.low_water_mark(), ABOVE_FLOOR_CUT);
        assert_eq!(log.next_lsn(), Lsn(ABOVE_FLOOR));
    }

    #[test]
    fn truncate_below_the_floor_moves_only_the_header_mark() {
        let dir = TempDir::new("filelog-inplace").unwrap();
        let path = dir.path().join("wal");
        let mut log = forced_ends(&path, 20);
        let before = std::fs::read(&path).unwrap();
        log.truncate_prefix(Lsn(15)).unwrap();
        let after = std::fs::read(&path).unwrap();
        assert_eq!(after.len(), before.len(), "no rewrite");
        assert_eq!(
            after[8..16],
            15u64.to_le_bytes(),
            "the header carries the mark"
        );
        assert_eq!(after[..8], before[..8]);
        assert_eq!(after[16..], before[16..], "every frame stays where it was");

        log.append(end(100), true).unwrap();
        drop(log);
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.low_water_mark(), Lsn(15));
        let lsns: Vec<u64> = log.records().unwrap().iter().map(|r| r.lsn.raw()).collect();
        assert_eq!(
            lsns,
            [15, 16, 17, 18, 19, 20],
            "the post-GC records, no more"
        );
    }

    #[test]
    fn a_failed_header_write_leaves_memory_and_disk_as_they_were() {
        let dir = TempDir::new("filelog-revoked-gc").unwrap();
        let path = dir.path().join("wal");
        let mut log = forced_ends(&path, 8);
        let before_stats = log.stats();
        log.revoke_writes().unwrap();

        let err = log.truncate_prefix(Lsn(5)).unwrap_err();
        assert!(
            matches!(err, WalError::Io(_)),
            "expected I/O error, got {err:?}"
        );
        assert_eq!(log.records().unwrap().len(), 8);
        assert_eq!(log.low_water_mark(), Lsn::ZERO);
        assert_eq!(log.stats(), before_stats);
        drop(log);
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.records().unwrap().len(), 8);
        assert_eq!(log.low_water_mark(), Lsn::ZERO);
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
        // Inject a compaction failure by squatting a *directory* on the
        // `.rewrite` path: opening it as a file fails with EISDIR.
        // Before the fix, `durable`/`stats`/`low_water` were already
        // mutated by then, leaving memory claiming a GC that disk never
        // performed.
        let dir = TempDir::new("filelog-gcfail").unwrap();
        let path = dir.path().join("wal");
        let mut log = forced_ends(&path, ABOVE_FLOOR);
        let before_stats = log.stats();
        std::fs::create_dir(path.with_extension("rewrite")).unwrap();

        let err = log.truncate_prefix(ABOVE_FLOOR_CUT).unwrap_err();
        assert!(
            matches!(err, WalError::Io(_)),
            "expected I/O error, got {err:?}"
        );
        // Nothing moved: the failed GC is invisible.
        assert_eq!(log.records().unwrap().len(), ABOVE_FLOOR as usize);
        assert_eq!(log.low_water_mark(), Lsn::ZERO);
        assert_eq!(log.stats().truncated, before_stats.truncated);
        // The log keeps working, and disk agrees with memory on reopen.
        log.append(end(1000), true).unwrap();
        drop(log);
        std::fs::remove_dir(path.with_extension("rewrite")).unwrap();
        let mut log = FileLog::open(&path).unwrap();
        assert_eq!(log.records().unwrap().len(), ABOVE_FLOOR as usize + 1);
        assert_eq!(log.low_water_mark(), Lsn::ZERO);
        // With the obstruction gone the retried GC succeeds.
        log.truncate_prefix(ABOVE_FLOOR_CUT).unwrap();
        assert_eq!(log.records().unwrap().len(), 51);
        assert_eq!(log.low_water_mark(), ABOVE_FLOOR_CUT);
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
