//! Fault-injecting stable log: the hostile-storage counterpart of
//! [`crate::mem::MemLog`].
//!
//! [`FaultyLog`] maintains the *exact byte image* a [`crate::file::FileLog`]
//! would have on disk — 16-byte header followed by CRC32-framed records —
//! but keeps it in memory so tests can corrupt it deterministically. Three
//! fault classes from the paper's §2 failure model are injectable:
//!
//! * **torn writes** ([`Fault::TornTail`]) — a crash mid-`write` leaves a
//!   truncated final record on disk;
//! * **partial fsyncs** ([`Fault::PartialFsync`]) — `fsync` reports
//!   success but only a prefix of the forced batch reached the platter
//!   (lying-disk / dropped-write omission failure);
//! * **bit corruption** ([`Fault::BitFlip`]) — a byte at a configurable
//!   offset is XOR-damaged while the site is down.
//!
//! Faults queue via [`FaultyLog::inject`] and take effect at the next
//! crash (torn tails, bit flips) or the next force/flush (partial
//! fsyncs). [`FaultyLog::crash_and_recover`] then re-runs exactly the
//! scan [`crate::file::FileLog::open`] performs: decode frames until the
//! first torn/corrupt one, keep the longest valid prefix, truncate the
//! rest. The proptest fuzzer in `tests/fuzz_wal.rs` proves that under
//! arbitrary combinations of these faults the scan never accepts a
//! corrupted record.

use crate::encode::{decode_frame, encode_frame_into, FrameOutcome};
use crate::error::WalError;
use crate::file::{decode_header, encode_header, HEADER_LEN};
use crate::record::{LogRecord, Lsn, WalStats};
use crate::StableLog;
use acp_types::LogPayload;
use std::collections::VecDeque;

/// A storage fault to inject into a [`FaultyLog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Truncate `bytes` off the end of the durable image at the next
    /// crash — a write torn mid-record. Clamped so the header survives
    /// (a torn record never damages previously-synced sectors).
    TornTail {
        /// Number of tail bytes lost.
        bytes: u64,
    },
    /// At the next force/flush, silently drop the last `drop_bytes` of
    /// the batch being written: the fsync returns success but the tail
    /// of the batch never becomes durable. The divergence is only
    /// observable after the next crash, exactly like real lying disks.
    PartialFsync {
        /// Number of batch-tail bytes that never reach stable storage.
        drop_bytes: u64,
    },
    /// XOR the durable byte at `offset` (from the start of the image,
    /// header included) with `mask` at the next crash. A zero mask or an
    /// out-of-range offset is a no-op.
    BitFlip {
        /// Absolute byte offset into the image.
        offset: u64,
        /// XOR mask; at least one set bit to have any effect.
        mask: u8,
    },
}

/// What a crash-plus-recovery observed: how much data the injected
/// faults destroyed and what survived the re-scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records buffered in volatile memory that the crash discarded.
    pub lost_buffered: usize,
    /// Durable records the fault damage destroyed (believed durable
    /// before the crash, absent after the re-scan).
    pub lost_durable: usize,
    /// Bytes truncated off the image by the re-scan (torn/corrupt tail).
    pub truncated_bytes: u64,
    /// Records that survived recovery.
    pub survivors: usize,
}

/// An in-memory stable log that stores the [`crate::file::FileLog`] byte
/// image and supports deterministic storage-fault injection.
#[derive(Clone, Debug)]
pub struct FaultyLog {
    /// Durable byte image: header + framed records, as FileLog would
    /// have them on disk after the last successful sync.
    image: Vec<u8>,
    /// Encoded frames appended but not yet forced/flushed.
    buffer: Vec<u8>,
    /// Decoded view of `image`'s records (what `records()` serves).
    durable: Vec<LogRecord>,
    /// Records represented in `buffer`.
    pending: Vec<LogRecord>,
    /// Faults waiting for their trigger point.
    queued: VecDeque<Fault>,
    low_water: Lsn,
    next: Lsn,
    stats: WalStats,
    faults_applied: u64,
    /// Model the parent-directory fsync after GC's `rename(tmp, path)`.
    /// `true` (the default) matches the fixed [`crate::file::FileLog`]:
    /// the post-GC image is crash-durable the moment `truncate_prefix`
    /// returns. `false` models the pre-fix bug: the rename lives only in
    /// the dentry cache, and a crash resurrects the pre-GC file.
    durable_gc_rename: bool,
    /// The pre-GC image that a crash would resurrect while the GC rename
    /// is still volatile (`durable_gc_rename == false`).
    pre_gc_image: Option<Vec<u8>>,
    /// When set, the next `truncate_prefix` fails with an injected I/O
    /// error *before* the image swap — the hostile-storage analogue of
    /// an `EIO` mid-rewrite.
    fail_next_gc_rewrite: bool,
}

impl Default for FaultyLog {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultyLog {
    /// An empty log with a fresh header and no queued faults.
    #[must_use]
    pub fn new() -> Self {
        FaultyLog {
            image: encode_header(Lsn::ZERO).to_vec(),
            buffer: Vec::new(),
            durable: Vec::new(),
            pending: Vec::new(),
            queued: VecDeque::new(),
            low_water: Lsn::ZERO,
            next: Lsn::ZERO,
            stats: WalStats::default(),
            faults_applied: 0,
            durable_gc_rename: true,
            pre_gc_image: None,
            fail_next_gc_rewrite: false,
        }
    }

    /// Model (or un-model) the missing parent-directory fsync after GC's
    /// rename. With `false`, a `truncate_prefix` followed by a crash
    /// resurrects the pre-GC image — the exact bug the directory sync in
    /// [`crate::file::FileLog::truncate_prefix`] exists to prevent.
    pub fn set_durable_gc_rename(&mut self, durable: bool) {
        self.durable_gc_rename = durable;
    }

    /// Make the next `truncate_prefix` fail with an injected I/O error
    /// before any state changes, so tests can prove the error path
    /// leaves memory and (simulated) disk consistent.
    pub fn fail_next_gc_rewrite(&mut self) {
        self.fail_next_gc_rewrite = true;
    }

    /// Queue a fault. Torn tails and bit flips fire at the next
    /// [`FaultyLog::crash_and_recover`]; partial fsyncs fire at the next
    /// force/flush.
    pub fn inject(&mut self, fault: Fault) {
        self.queued.push_back(fault);
    }

    /// Number of faults that have actually fired so far.
    #[must_use]
    pub fn faults_applied(&self) -> u64 {
        self.faults_applied
    }

    /// The durable byte image (exactly what a `FileLog` file would
    /// contain). Tests use this to cross-check against real file damage.
    #[must_use]
    pub fn image(&self) -> &[u8] {
        &self.image
    }

    fn take_partial_fsync(&mut self) -> u64 {
        let mut drop_total = 0;
        let mut rest = VecDeque::new();
        for f in self.queued.drain(..) {
            match f {
                Fault::PartialFsync { drop_bytes } => {
                    drop_total += drop_bytes;
                    self.faults_applied += 1;
                }
                other => rest.push_back(other),
            }
        }
        self.queued = rest;
        drop_total
    }

    fn write_out(&mut self) -> Result<(), WalError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let drop_bytes = self.take_partial_fsync();
        let keep = self.buffer.len().saturating_sub(
            usize::try_from(drop_bytes).unwrap_or(usize::MAX),
        );
        // The *caller* believes the whole batch is durable: bookkeeping
        // proceeds as if the sync succeeded. Only the image — what a
        // post-crash scan will see — is short.
        self.image.extend_from_slice(&self.buffer[..keep]);
        self.stats.durable_bytes += self.buffer.len() as u64;
        self.buffer.clear();
        self.durable.append(&mut self.pending);
        Ok(())
    }

    /// Crash the site: lose the volatile buffer, fire every queued torn
    /// tail and bit flip against the image, then recover by re-scanning
    /// for the longest valid record prefix (the same scan
    /// [`crate::file::FileLog::open`] runs). Errors only if the header
    /// itself was corrupted — recoverable damage is reported, not raised.
    pub fn crash_and_recover(&mut self) -> Result<RecoveryReport, WalError> {
        let lost_buffered = self.pending.len();
        self.stats.lost_on_crash += lost_buffered as u64;
        self.buffer.clear();
        self.pending.clear();

        // A GC rename that was never made durable by a directory sync is
        // undone by the crash: the directory still points at the pre-GC
        // file, so the scan below runs against it — resurrecting every
        // record GC believed reclaimed, *and* losing everything appended
        // to the post-rename file since.
        if let Some(old) = self.pre_gc_image.take() {
            self.image = old;
        }

        for f in self.queued.drain(..) {
            match f {
                Fault::TornTail { bytes } => {
                    let floor = HEADER_LEN.min(self.image.len() as u64);
                    let new_len = (self.image.len() as u64).saturating_sub(bytes).max(floor);
                    self.image.truncate(new_len as usize);
                    self.faults_applied += 1;
                }
                Fault::BitFlip { offset, mask } => {
                    if let Ok(off) = usize::try_from(offset) {
                        if off < self.image.len() {
                            self.image[off] ^= mask;
                        }
                    }
                    self.faults_applied += 1;
                }
                // A partial fsync queued but never triggered by a
                // force/flush has nothing to damage: the batch it would
                // have shortened was already lost with the buffer.
                Fault::PartialFsync { .. } => {
                    self.faults_applied += 1;
                }
            }
        }

        let believed = self.durable.len();
        self.low_water = decode_header(&self.image)?;
        let mut survivors = Vec::new();
        let mut offset = HEADER_LEN as usize;
        while offset < self.image.len() {
            match decode_frame(&self.image[offset..], offset as u64)? {
                FrameOutcome::Record(rec, consumed) => {
                    survivors.push(rec);
                    offset += consumed;
                }
                FrameOutcome::Torn => break,
            }
        }
        let truncated_bytes = (self.image.len() - offset) as u64;
        self.image.truncate(offset);
        self.durable = survivors;
        self.next = self
            .durable
            .last()
            .map_or(self.low_water, |r| r.lsn.next());
        Ok(RecoveryReport {
            lost_buffered,
            lost_durable: believed.saturating_sub(self.durable.len()),
            truncated_bytes,
            survivors: self.durable.len(),
        })
    }
}

impl StableLog for FaultyLog {
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
        for r in &self.durable {
            f(r);
        }
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
        if self.fail_next_gc_rewrite {
            self.fail_next_gc_rewrite = false;
            return Err(WalError::Io(std::io::Error::other(
                "injected gc rewrite failure",
            )));
        }
        // Stage the rewrite the way FileLog's truncate rewrites the file:
        // build the post-GC image first, commit in-memory state only
        // after the "swap" — an injected failure above must leave the
        // log untouched.
        let cut = self.durable.partition_point(|r| r.lsn < lsn);
        let mut new_image = encode_header(lsn).to_vec();
        for rec in &self.durable[cut..] {
            encode_frame_into(&mut new_image, rec.lsn, rec.forced, &rec.payload);
        }
        if !self.durable_gc_rename {
            // The rename happened but the directory entry was never
            // synced: remember the file a crash would bring back. Only
            // the oldest un-synced image matters — that is what the
            // directory still durably points at.
            if self.pre_gc_image.is_none() {
                self.pre_gc_image = Some(self.image.clone());
            }
        } else {
            self.pre_gc_image = None;
        }
        self.stats.truncated += cut as u64;
        self.image = new_image;
        self.durable.drain(..cut);
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
        Ok(self.crash_and_recover()?.lost_buffered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::FileLog;
    use crate::tempdir::TempDir;
    use acp_types::TxnId;
    use std::io::Write;

    fn end(t: u64) -> LogPayload {
        LogPayload::End { txn: TxnId::new(t) }
    }

    #[test]
    fn image_matches_file_log_bytes() {
        let dir = TempDir::new("faulty-fidelity").unwrap();
        let path = dir.path().join("wal");
        let mut file = FileLog::create(&path).unwrap();
        let mut faulty = FaultyLog::new();
        for i in 0..6 {
            file.append(end(i), i % 2 == 0).unwrap();
            faulty.append(end(i), i % 2 == 0).unwrap();
        }
        file.flush().unwrap();
        faulty.flush().unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(faulty.image(), &on_disk[..], "byte image diverged from FileLog");
    }

    #[test]
    fn torn_tail_matches_real_file_truncation() {
        // Apply the same damage to a FaultyLog image and a real FileLog
        // file; both recoveries must keep exactly the same records.
        for cut in [1u64, 5, 13, 21, 40] {
            let dir = TempDir::new("faulty-torn").unwrap();
            let path = dir.path().join("wal");
            let mut file = FileLog::create(&path).unwrap();
            let mut faulty = FaultyLog::new();
            for i in 0..4 {
                file.append(end(i), true).unwrap();
                faulty.append(end(i), true).unwrap();
            }
            drop(file);
            let len = std::fs::metadata(&path).unwrap().len();
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(len.saturating_sub(cut)).unwrap();
            drop(f);

            faulty.inject(Fault::TornTail { bytes: cut });
            let report = faulty.crash_and_recover().unwrap();
            let reopened = FileLog::open(&path).unwrap();
            assert_eq!(
                faulty.records().unwrap(),
                reopened.records().unwrap(),
                "cut={cut} diverged from FileLog recovery"
            );
            assert_eq!(report.survivors, reopened.records().unwrap().len());
        }
    }

    #[test]
    fn bit_flip_matches_real_file_corruption() {
        // Flip the same byte in both images; surviving prefixes agree.
        let offsets = [16u64, 20, 24, 33, 45, 60, 70];
        for &off in &offsets {
            let dir = TempDir::new("faulty-flip").unwrap();
            let path = dir.path().join("wal");
            let mut file = FileLog::create(&path).unwrap();
            let mut faulty = FaultyLog::new();
            for i in 0..3 {
                file.append(end(i), true).unwrap();
                faulty.append(end(i), true).unwrap();
            }
            drop(file);
            let mut bytes = std::fs::read(&path).unwrap();
            if (off as usize) < bytes.len() {
                bytes[off as usize] ^= 0x40;
                let mut f = std::fs::OpenOptions::new()
                    .write(true)
                    .truncate(true)
                    .open(&path)
                    .unwrap();
                f.write_all(&bytes).unwrap();
            }

            faulty.inject(Fault::BitFlip { offset: off, mask: 0x40 });
            faulty.crash_and_recover().unwrap();
            let reopened = FileLog::open(&path).unwrap();
            assert_eq!(
                faulty.records().unwrap(),
                reopened.records().unwrap(),
                "offset={off} diverged from FileLog recovery"
            );
        }
    }

    #[test]
    fn partial_fsync_drops_forced_batch_tail_only_after_crash() {
        let mut log = FaultyLog::new();
        log.append(end(1), true).unwrap();
        // The next force loses its last 4 bytes of framed data.
        log.inject(Fault::PartialFsync { drop_bytes: 4 });
        log.append(end(2), false).unwrap();
        log.append(end(3), true).unwrap();
        // Before the crash the log *believes* all three are durable —
        // that is the lie a partial fsync tells.
        assert_eq!(log.records().unwrap().len(), 3);

        let report = log.crash_and_recover().unwrap();
        // Record 3's frame lost its tail; record 2 (same batch, earlier
        // bytes) survives.
        assert_eq!(report.survivors, 2);
        assert_eq!(report.lost_durable, 1);
        let recs = log.records().unwrap();
        assert_eq!(recs.last().unwrap().payload, end(2));
        // Recovery is idempotent: a second crash with no new faults
        // changes nothing.
        let again = log.crash_and_recover().unwrap();
        assert_eq!(again.survivors, 2);
        assert_eq!(again.truncated_bytes, 0);
    }

    #[test]
    fn mid_log_bit_flip_truncates_to_longest_valid_prefix() {
        let mut log = FaultyLog::new();
        for i in 0..5 {
            log.append(end(i), true).unwrap();
        }
        // Damage the second record's payload region.
        let second_frame_start = HEADER_LEN + (log.image().len() as u64 - HEADER_LEN) / 5;
        log.inject(Fault::BitFlip {
            offset: second_frame_start + 10,
            mask: 0x01,
        });
        let report = log.crash_and_recover().unwrap();
        assert_eq!(report.survivors, 1, "only the first record is a valid prefix");
        assert_eq!(report.lost_durable, 4);
        assert!(report.truncated_bytes > 0);
        // Appends resume from the surviving tail.
        let lsn = log.append(end(99), true).unwrap();
        assert_eq!(lsn, Lsn(1));
    }

    #[test]
    fn lsns_continue_from_surviving_tail_after_faulty_recovery() {
        let mut log = FaultyLog::new();
        for i in 0..3 {
            log.append(end(i), true).unwrap();
        }
        log.inject(Fault::TornTail { bytes: 3 });
        log.crash_and_recover().unwrap();
        assert_eq!(log.next_lsn(), Lsn(2));
        assert_eq!(log.append(end(7), true).unwrap(), Lsn(2));
        let report = log.crash_and_recover().unwrap();
        assert_eq!(report.survivors, 3);
    }

    #[test]
    fn truncate_prefix_rewrites_image_consistently() {
        let mut log = FaultyLog::new();
        for i in 0..8 {
            log.append(end(i), true).unwrap();
        }
        let full = log.image().len();
        log.truncate_prefix(Lsn(5)).unwrap();
        assert!(log.image().len() < full);
        // The rewritten image must itself recover cleanly.
        let report = log.crash_and_recover().unwrap();
        assert_eq!(report.survivors, 3);
        assert_eq!(log.low_water_mark(), Lsn(5));
    }

    #[test]
    fn volatile_gc_rename_resurrects_pre_gc_records() {
        // The pre-fix FileLog bug, modelled: truncate_prefix renames the
        // rewritten file into place but never fsyncs the directory. A
        // crash then resurrects the pre-GC file — records above the
        // low-water mark come back, and post-GC appends are lost with
        // the orphaned post-rename inode.
        let mut log = FaultyLog::new();
        for i in 0..8 {
            log.append(end(i), true).unwrap();
        }
        log.set_durable_gc_rename(false);
        log.truncate_prefix(Lsn(5)).unwrap();
        assert_eq!(log.records().unwrap().len(), 3, "GC looks fine pre-crash");
        log.append(end(100), true).unwrap();

        let report = log.crash_and_recover().unwrap();
        // Resurrection: all 8 pre-GC records are back, the appended
        // record is gone, and the low-water mark rolled backwards.
        assert_eq!(report.survivors, 8);
        assert_eq!(log.low_water_mark(), Lsn::ZERO);
        assert!(log.records().unwrap().iter().all(|r| r.lsn < Lsn(8)));
    }

    #[test]
    fn durable_gc_rename_survives_crash() {
        // With the directory sync (the fix, and the default), a crash
        // right after truncate_prefix must see exactly the post-GC
        // image: same records a real FileLog reopen yields.
        let dir = TempDir::new("faulty-gc-crash").unwrap();
        let path = dir.path().join("wal");
        let mut file = FileLog::create(&path).unwrap();
        let mut faulty = FaultyLog::new();
        for i in 0..8 {
            file.append(end(i), true).unwrap();
            faulty.append(end(i), true).unwrap();
        }
        file.truncate_prefix(Lsn(5)).unwrap();
        faulty.truncate_prefix(Lsn(5)).unwrap();

        let report = faulty.crash_and_recover().unwrap();
        assert_eq!(report.survivors, 3);
        assert_eq!(report.lost_durable, 0);
        assert_eq!(faulty.low_water_mark(), Lsn(5));

        drop(file);
        let reopened = FileLog::open(&path).unwrap();
        assert_eq!(
            faulty.records().unwrap(),
            reopened.records().unwrap(),
            "post-GC crash recovery diverged from FileLog reopen"
        );
        assert_eq!(reopened.low_water_mark(), Lsn(5));
    }

    #[test]
    fn injected_gc_rewrite_failure_leaves_state_unchanged() {
        let mut log = FaultyLog::new();
        for i in 0..6 {
            log.append(end(i), true).unwrap();
        }
        let image_before = log.image().to_vec();
        let stats_before = log.stats();
        log.fail_next_gc_rewrite();
        let err = log.truncate_prefix(Lsn(4)).unwrap_err();
        assert!(matches!(err, WalError::Io(_)));
        assert_eq!(log.records().unwrap().len(), 6);
        assert_eq!(log.low_water_mark(), Lsn::ZERO);
        assert_eq!(log.image(), &image_before[..], "image untouched by failed GC");
        assert_eq!(log.stats().truncated, stats_before.truncated);
        // The failure is one-shot: the retry succeeds and recovers clean.
        log.truncate_prefix(Lsn(4)).unwrap();
        let report = log.crash_and_recover().unwrap();
        assert_eq!(report.survivors, 2);
        assert_eq!(log.low_water_mark(), Lsn(4));
    }

    #[test]
    fn header_corruption_is_fatal() {
        let mut log = FaultyLog::new();
        log.append(end(1), true).unwrap();
        log.inject(Fault::BitFlip { offset: 0, mask: 0xFF });
        assert!(log.crash_and_recover().is_err());
    }
}
