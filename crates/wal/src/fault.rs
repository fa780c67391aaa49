//! The faulty store: the hostile-storage counterpart of
//! [`crate::file::Disk`]. [`FaultyImage`] holds the *exact byte image* a
//! [`crate::file::FileLog`] has on disk, in memory, so tests can damage
//! it deterministically; [`FaultyLog`] is the one [`FramedLog`] over it,
//! so the append path, GC staging and recovery scan under every fault
//! are the code the runtimes commit through.
//!
//! [`Fault`]s queue via [`FaultyLog::inject`] and fire at the next crash
//! (torn tails, bit flips) or the next force/flush (partial fsyncs,
//! reported errors); [`FramedLog::recover`] then scans the damaged image
//! as it would a file. Before the crash the log reads its records back
//! from the image as written, the way a page cache returns a file's
//! bytes, so a partial fsync's lie shows only after it. The proptest
//! fuzzer in `tests/fuzz_wal.rs` proves that under arbitrary
//! combinations of the paper's §2 faults the scan never accepts a
//! corrupted record.

use crate::error::WalError;
use crate::framed::{encode_header, FramedLog, Store, HEADER_LEN, LOW_WATER_AT};
use crate::record::Lsn;
use std::collections::VecDeque;

pub use crate::framed::RecoveryReport;

/// A storage fault to inject into a [`FaultyLog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// **Torn write**: truncate `bytes` off the end of the durable image
    /// at the next crash. Clamped so the header survives (a torn record
    /// never damages previously-synced sectors).
    TornTail {
        /// Number of tail bytes lost.
        bytes: u64,
    },
    /// **Lying disk**: the next force/flush silently drops the last
    /// `drop_bytes` of its batch — the fsync returns success, and the
    /// loss is observable only after the next crash.
    PartialFsync {
        /// Number of batch-tail bytes that never reach stable storage.
        drop_bytes: u64,
    },
    /// **Bit corruption**: XOR the durable byte at `offset` (header
    /// included) with `mask` at the next crash. A zero mask or an
    /// out-of-range offset is a no-op.
    BitFlip {
        /// Absolute byte offset into the image.
        offset: u64,
        /// XOR mask; at least one set bit to have any effect.
        mask: u8,
    },
    /// **Short write**: the next force/flush fails (`ENOSPC`, `EIO`)
    /// after `after_bytes` of its batch reached the image.
    WriteError {
        /// Leading bytes of the batch that were written before the error.
        after_bytes: u64,
    },
    /// **Failed fsync**: the next force/flush writes its whole batch,
    /// then reports an error — the page state is unknown to the caller.
    SyncError,
}

/// The [`crate::file::FileLog`] byte image in memory, with
/// deterministic storage-fault injection.
#[derive(Clone, Debug, Default)]
pub struct FaultyImage {
    /// Header + framed records, as a file holds them after a sync.
    image: Vec<u8>,
    /// The image as written, where a lying sync
    /// ([`Fault::PartialFsync`]) left `image` short: what a read returns
    /// until the crash that exposes the lie, as a page cache serves it.
    /// `None` while the two agree.
    written: Option<Vec<u8>>,
    /// Faults waiting for their trigger point.
    queued: VecDeque<Fault>,
    faults_applied: u64,
    /// Un-model the sync that makes GC's last write durable on
    /// [`crate::file::Disk`]: the parent-directory fsync after a
    /// compaction's `rename(tmp, path)` (the pre-fix bug, where the
    /// rename lives only in the dentry cache), and the data sync after
    /// the header's in-place low-water write.
    volatile_gc_rename: bool,
    /// The pre-GC image a crash resurrects while the rename is volatile.
    pre_gc_image: Option<Vec<u8>>,
    /// The low-water field a crash restores while the header write is
    /// volatile.
    pre_gc_low_water: Option<[u8; 8]>,
    /// The next `replace` or `set_low_water` fails before it touches the
    /// image — an `EIO` from GC's write.
    fail_next_gc_rewrite: bool,
}

impl FaultyImage {
    fn injected_gc_failure(&mut self) -> Result<(), WalError> {
        if std::mem::take(&mut self.fail_next_gc_rewrite) {
            let what = "injected gc write failure";
            return Err(WalError::Io(std::io::Error::other(what)));
        }
        Ok(())
    }
}

impl Store for FaultyImage {
    fn append_sync(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        // Every queued write-out fault fires on this batch. `written` of
        // its bytes reach the page cache, `keep` of them the medium.
        let mut keep = bytes.len() as u64;
        let mut written = keep;
        let mut error = None;
        let queued = self.queued.len();
        self.queued.retain(|f| {
            match *f {
                // The *caller* believes the whole batch is durable: the
                // sync "succeeds". Only the image — what a post-crash
                // scan will see — is short.
                Fault::PartialFsync { drop_bytes } => keep = keep.saturating_sub(drop_bytes),
                Fault::WriteError { after_bytes } => {
                    keep = keep.min(after_bytes);
                    written = written.min(after_bytes);
                    error = Some("injected write error");
                }
                Fault::SyncError => error = error.or(Some("injected sync error")),
                Fault::TornTail { .. } | Fault::BitFlip { .. } => return true,
            }
            false
        });
        self.faults_applied += (queued - self.queued.len()) as u64;
        if keep < written && self.written.is_none() {
            self.written = Some(self.image.clone());
        }
        self.image.extend_from_slice(&bytes[..keep as usize]);
        if let Some(view) = &mut self.written {
            view.extend_from_slice(&bytes[..written as usize]);
        }
        match error {
            Some(what) => Err(WalError::Io(std::io::Error::other(what))),
            None => Ok(()),
        }
    }

    fn replace(&mut self, image: &[u8]) -> Result<(), WalError> {
        self.injected_gc_failure()?;
        self.written = None;
        let mut old = std::mem::replace(&mut self.image, image.to_vec());
        // The old file durably holds the low-water mark of its last
        // synced header write.
        if let Some(field) = self.pre_gc_low_water.take() {
            old[LOW_WATER_AT..HEADER_LEN as usize].copy_from_slice(&field);
        }
        if self.volatile_gc_rename {
            // The directory entry was never synced: remember the file a
            // crash brings back — the oldest un-synced image, which is
            // what the directory still durably points at.
            self.pre_gc_image.get_or_insert(old);
        } else {
            self.pre_gc_image = None;
        }
        Ok(())
    }

    fn set_low_water(&mut self, lsn: Lsn) -> Result<(), WalError> {
        self.injected_gc_failure()?;
        let mark = lsn.raw().to_le_bytes();
        if let Some(view) = &mut self.written {
            view[LOW_WATER_AT..HEADER_LEN as usize].copy_from_slice(&mark);
        }
        let field = &mut self.image[LOW_WATER_AT..HEADER_LEN as usize];
        let old: [u8; 8] = (&*field).try_into().expect("8 bytes");
        field.copy_from_slice(&mark);
        if self.volatile_gc_rename {
            self.pre_gc_low_water.get_or_insert(old);
        } else {
            self.pre_gc_low_water = None;
        }
        Ok(())
    }

    fn cut(&mut self, len: u64) -> Result<(), WalError> {
        self.image.truncate(len as usize);
        Ok(())
    }

    fn read_at(&self, at: u64, buf: &mut [u8]) -> Result<(), WalError> {
        let view = self.written.as_ref().unwrap_or(&self.image);
        let bytes = usize::try_from(at)
            .ok()
            .and_then(|at| view.get(at..at + buf.len()))
            .ok_or_else(|| WalError::Io(std::io::ErrorKind::UnexpectedEof.into()))?;
        buf.copy_from_slice(bytes);
        Ok(())
    }

    fn restart(&mut self) -> Result<Vec<u8>, WalError> {
        // A GC rename never made durable is undone by the crash: recovery
        // scans the pre-GC file — resurrecting every record GC believed
        // reclaimed *and* losing everything appended since. A header
        // write never made durable only rolls the mark back: the frames
        // it released are still in the image, and later appends stay.
        // A lying sync's dropped bytes are gone from what is read now.
        self.written = None;
        let low_water = self.pre_gc_low_water.take();
        if let Some(old) = self.pre_gc_image.take() {
            self.image = old;
        } else if let Some(field) = low_water {
            self.image[LOW_WATER_AT..HEADER_LEN as usize].copy_from_slice(&field);
        }
        for f in self.queued.drain(..) {
            match f {
                Fault::TornTail { bytes } => {
                    let floor = HEADER_LEN.min(self.image.len() as u64);
                    let new_len = (self.image.len() as u64).saturating_sub(bytes).max(floor);
                    self.image.truncate(new_len as usize);
                }
                Fault::BitFlip { offset, mask } => {
                    if let Ok(off) = usize::try_from(offset) {
                        if off < self.image.len() {
                            self.image[off] ^= mask;
                        }
                    }
                }
                // Never triggered by a force/flush: the batch it would
                // have hit was lost with the buffer.
                Fault::PartialFsync { .. } | Fault::WriteError { .. } | Fault::SyncError => {}
            }
            self.faults_applied += 1;
        }
        Ok(self.image.clone())
    }
}

/// The production log on a medium that misbehaves on cue.
pub type FaultyLog = FramedLog<FaultyImage>;

impl Default for FaultyLog {
    fn default() -> Self {
        Self::new()
    }
}

impl FramedLog<FaultyImage> {
    /// An empty log with a fresh header and no queued faults.
    #[must_use]
    pub fn new() -> Self {
        let image = encode_header(Lsn::ZERO).to_vec();
        FramedLog::empty(FaultyImage {
            image,
            ..FaultyImage::default()
        })
    }

    /// With `false`, a `truncate_prefix` followed by a crash resurrects
    /// the records it released: a compaction's whole pre-GC image — the
    /// bug the directory sync in [`crate::file::Disk`]'s `replace`
    /// exists to prevent — or, after a GC in place, the header's old
    /// low-water mark, with everything appended since kept.
    pub fn set_durable_gc_rename(&mut self, durable: bool) {
        self.store.volatile_gc_rename = !durable;
    }

    /// Make the next `truncate_prefix` fail with an injected I/O error
    /// before any state changes, whether it would compact or move the
    /// mark in place.
    pub fn fail_next_gc_rewrite(&mut self) {
        self.store.fail_next_gc_rewrite = true;
    }

    /// Queue a fault for its trigger point (see [`Fault`]).
    pub fn inject(&mut self, fault: Fault) {
        self.store.queued.push_back(fault);
    }

    /// Number of faults that have actually fired so far.
    #[must_use]
    pub fn faults_applied(&self) -> u64 {
        self.store.faults_applied
    }

    /// The durable byte image: exactly what a `FileLog` file contains.
    #[must_use]
    pub fn image(&self) -> &[u8] {
        &self.store.image
    }

    /// [`FramedLog::recover`], as the fuzzers and campaigns call it.
    pub fn crash_and_recover(&mut self) -> Result<RecoveryReport, WalError> {
        self.recover()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::FileLog;
    use crate::tempdir::TempDir;
    use crate::StableLog;
    use acp_types::{LogPayload, TxnId};
    use std::io::Write;

    fn end(t: u64) -> LogPayload {
        LogPayload::End { txn: TxnId::new(t) }
    }

    /// The same script through both stores: a real file and the image.
    fn on_both(tag: &str, script: fn(&mut dyn StableLog)) -> (TempDir, FileLog, FaultyLog) {
        let dir = TempDir::new(tag).unwrap();
        let mut file = FileLog::create(dir.path().join("wal")).unwrap();
        let mut faulty = FaultyLog::new();
        script(&mut file);
        script(&mut faulty);
        (dir, file, faulty)
    }

    fn forced(n: u64) -> impl Iterator<Item = (LogPayload, bool)> {
        (0..n).map(|i| (end(i), true))
    }

    #[test]
    fn image_matches_file_log_bytes() {
        let (_dir, file, faulty) = on_both("faulty-fidelity", |log| {
            for i in 0..6 {
                log.append(end(i), i % 2 == 0).unwrap();
            }
            log.flush().unwrap();
        });
        let on_disk = std::fs::read(file.path()).unwrap();
        assert_eq!(
            faulty.image(),
            &on_disk[..],
            "byte image diverged from FileLog"
        );
    }

    #[test]
    fn torn_tail_matches_real_file_truncation() {
        // Apply the same damage to the image and to a real file; both
        // recoveries must keep exactly the same records.
        for cut in [1u64, 5, 13, 21, 40] {
            let (_dir, file, mut faulty) = on_both("faulty-torn", |log| {
                for (payload, force) in forced(4) {
                    log.append(payload, force).unwrap();
                }
            });
            let path = file.path().to_owned();
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
            let (_dir, file, mut faulty) = on_both("faulty-flip", |log| {
                for (payload, force) in forced(3) {
                    log.append(payload, force).unwrap();
                }
            });
            let path = file.path().to_owned();
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

            faulty.inject(Fault::BitFlip {
                offset: off,
                mask: 0x40,
            });
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
    fn gc_mid_script_leaves_the_same_bytes_and_survivors() {
        // Appends, a GC in the middle, more appends: same bytes. Then
        // the same tear under both stores and a `recover` through each
        // store's own handle: same report, same survivors — and the
        // next append lands right behind the cut on both.
        let (_dir, mut file, mut faulty) = on_both("faulty-gc-mid", |log| {
            for (payload, force) in forced(5) {
                log.append(payload, force).unwrap();
            }
            log.append(end(5), false).unwrap();
            log.truncate_prefix(Lsn(3)).unwrap();
            log.append(end(6), true).unwrap();
            log.append(end(7), false).unwrap();
            log.flush().unwrap();
            log.append(end(8), false).unwrap(); // never flushed
        });
        let on_disk = std::fs::read(file.path()).unwrap();
        assert_eq!(faulty.image(), &on_disk[..]);

        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(file.path())
            .unwrap();
        f.set_len(on_disk.len() as u64 - 7).unwrap();
        drop(f);
        faulty.inject(Fault::TornTail { bytes: 7 });
        let report = faulty.recover().unwrap();
        assert_eq!(file.recover().unwrap(), report);
        assert_eq!(
            (report.lost_buffered, report.lost_durable, report.survivors),
            (1, 1, 4)
        );
        assert_eq!(file.records().unwrap(), faulty.records().unwrap());
        assert_eq!(file.low_water_mark(), Lsn(3));

        assert_eq!(file.append(end(9), true).unwrap(), Lsn(7));
        assert_eq!(faulty.append(end(9), true).unwrap(), Lsn(7));
        let on_disk = std::fs::read(file.path()).unwrap();
        assert_eq!(faulty.image(), &on_disk[..]);
        let reopened = FileLog::open(file.path()).unwrap();
        assert_eq!(reopened.records().unwrap(), file.records().unwrap());
    }

    /// The invariant a write-out error must not break, whatever the
    /// caller does next: nothing `records()` reports durable is missing
    /// after recovery, and no LSN is on the medium twice.
    #[test]
    fn a_retried_write_out_reports_nothing_durable_that_recovery_drops() {
        for fault in [Fault::WriteError { after_bytes: 5 }, Fault::SyncError] {
            let mut log = FaultyLog::new();
            log.append(end(1), true).unwrap();
            log.inject(fault);
            assert!(matches!(log.append(end(2), true), Err(WalError::Io(_))));
            // The device is "back": a caller that retries and assumes
            // durable would do exactly this.
            let _ = log.append(end(3), true);
            let _ = log.flush();

            let reported = log.records().unwrap();
            log.recover().unwrap();
            let recovered = log.records().unwrap();
            for rec in &reported {
                assert!(
                    recovered.contains(rec),
                    "{fault:?}: {rec} reported durable, then lost"
                );
            }
            assert!(
                recovered.windows(2).all(|w| w[0].lsn < w[1].lsn),
                "{fault:?}: duplicate lsn in {recovered:?}"
            );
        }
    }

    #[test]
    fn after_a_failed_write_out_the_log_refuses_until_recover() {
        let mut log = FaultyLog::new();
        log.append(end(1), true).unwrap();
        log.inject(Fault::SyncError);
        assert!(matches!(log.append(end(2), true), Err(WalError::Io(_))));
        assert_eq!(log.faults_applied(), 1);
        let image = log.image().to_vec();

        // Lazy appends still buffer; every force, flush and GC fails
        // without touching the medium.
        log.append(end(3), false).unwrap();
        assert!(matches!(log.append(end(4), true), Err(WalError::Io(_))));
        assert!(matches!(log.flush(), Err(WalError::Io(_))));
        assert!(matches!(log.truncate_prefix(Lsn(1)), Err(WalError::Io(_))));
        assert_eq!(
            log.records().unwrap().len(),
            1,
            "nothing more reported durable"
        );
        assert_eq!(log.image(), &image[..]);

        // The failed sync's bytes did reach the image: recovery finds
        // record 2, drops the three buffered since, and writes go on.
        let report = log.recover().unwrap();
        assert_eq!((report.lost_buffered, report.survivors), (3, 2));
        assert_eq!(log.append(end(5), true).unwrap(), Lsn(2));
        log.truncate_prefix(Lsn(1)).unwrap();
        assert_eq!(log.recover().unwrap().survivors, 2);
    }

    /// Before a crash the log reads its records back from the medium,
    /// so for every kind of fault a pre-crash `records()` must list
    /// exactly what the log reported durable: a lying sync's batch is
    /// in it (its bytes were written; only the crash loses them), and a
    /// failed write-out's batch is not (it was never reported). After
    /// `recover`, the survivors and the report are the scan's.
    #[test]
    fn a_pre_crash_read_lists_what_the_log_reported_durable_under_every_fault() {
        // Four 30-byte `end` frames at 16, 46, 76 and 106; the last two
        // go out together, in the one batch a write-out fault hits.
        let report = |lost_buffered, lost_durable, truncated_bytes, survivors| RecoveryReport {
            lost_buffered,
            lost_durable,
            truncated_bytes,
            survivors,
        };
        let cases = [
            (Fault::TornTail { bytes: 5 }, 4, report(0, 1, 25, 3)),
            (
                Fault::PartialFsync { drop_bytes: 4 },
                4,
                report(0, 1, 26, 3),
            ),
            (
                Fault::BitFlip {
                    offset: 56,
                    mask: 1,
                },
                4,
                report(0, 3, 90, 1),
            ),
            (Fault::WriteError { after_bytes: 5 }, 2, report(2, 0, 5, 2)),
            (Fault::SyncError, 2, report(2, 0, 0, 4)),
        ];
        for (fault, reported, expected) in cases {
            let mut log = forced_log(2);
            log.inject(fault);
            log.append(end(2), false).unwrap();
            let forced = log.append(end(3), true);
            assert_eq!(forced.is_ok(), reported == 4, "{fault:?}");
            // (LSN, payload) of what a read returns, and of the first `n`
            // records appended.
            let read = |log: &FaultyLog| -> Vec<(u64, LogPayload)> {
                let records = log.records().unwrap().into_iter();
                records.map(|r| (r.lsn.raw(), r.payload)).collect()
            };
            let first =
                |n: u64| -> Vec<(u64, LogPayload)> { (0..n).map(|i| (i, end(i))).collect() };
            assert_eq!(read(&log), first(reported), "{fault:?}: before the crash");

            assert_eq!(log.recover().unwrap(), expected, "{fault:?}");
            let survivors = expected.survivors as u64;
            assert_eq!(read(&log), first(survivors), "{fault:?}: after recovery");
            assert_eq!(log.next_lsn(), Lsn(expected.survivors as u64));
        }
    }

    /// A lying sync that drops whole frames leaves a hole the scan
    /// cannot see as damage: the frames of a later batch land right
    /// behind it, whole. The log's LSNs run on one by one, so a frame
    /// behind the hole is not part of the valid prefix: recovery keeps
    /// what precedes the hole and cuts the rest.
    #[test]
    fn a_frame_behind_a_hole_ends_the_valid_prefix() {
        let mut log = forced_log(1);
        log.inject(Fault::PartialFsync { drop_bytes: 30 });
        log.append(end(1), true).unwrap(); // the whole frame never lands
        log.append(end(2), true).unwrap(); // lands behind the hole
        assert_eq!(
            log.records().unwrap().len(),
            3,
            "all three reported durable"
        );

        let report = log.crash_and_recover().unwrap();
        assert_eq!(
            (
                report.survivors,
                report.lost_durable,
                report.truncated_bytes
            ),
            (1, 2, 30)
        );
        assert_eq!(log.records().unwrap()[0].payload, end(0));
        assert_eq!(log.append(end(9), true).unwrap(), Lsn(1));
        assert_eq!(log.crash_and_recover().unwrap().survivors, 2);
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
        assert_eq!(
            report.survivors, 1,
            "only the first record is a valid prefix"
        );
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

    /// Forced records whose GC at [`ABOVE_FLOOR_CUT`] releases more dead
    /// bytes than the live suffix and the reclaim floor: it compacts.
    /// An `end` frame is 30 bytes, so the cut releases nearly twice the
    /// floor and keeps 50 records live.
    const ABOVE_FLOOR_CUT: Lsn = Lsn(crate::RECLAIM_FLOOR / 16);
    const ABOVE_FLOOR: u64 = ABOVE_FLOOR_CUT.0 + 50;

    fn forced_log(n: u64) -> FaultyLog {
        let mut log = FaultyLog::new();
        for (payload, force) in forced(n) {
            log.append(payload, force).unwrap();
        }
        log
    }

    #[test]
    fn truncate_prefix_rewrites_image_consistently() {
        let mut log = forced_log(ABOVE_FLOOR);
        let full = log.image().len();
        log.truncate_prefix(ABOVE_FLOOR_CUT).unwrap();
        assert!(log.image().len() < full);
        // The rewritten image must itself recover cleanly.
        let report = log.crash_and_recover().unwrap();
        assert_eq!(report.survivors, 50);
        assert_eq!(log.low_water_mark(), ABOVE_FLOOR_CUT);
    }

    #[test]
    fn truncate_prefix_below_the_floor_rewrites_only_the_mark() {
        let mut log = forced_log(8);
        let before = log.image().to_vec();
        log.truncate_prefix(Lsn(5)).unwrap();
        assert_eq!(log.image()[8..16], 5u64.to_le_bytes());
        assert_eq!(log.image()[16..], before[16..]);
        let report = log.crash_and_recover().unwrap();
        assert_eq!((report.survivors, report.lost_durable), (3, 0));
        assert_eq!(log.low_water_mark(), Lsn(5));
    }

    #[test]
    fn a_flip_in_a_dead_frame_costs_no_live_record() {
        // The same damage as `mid_log_bit_flip_truncates_to_longest_valid_prefix`,
        // but in a frame below the mark: recovery resumes at the mark's
        // frame, cuts nothing, and the damaged bytes stay dead until a
        // compaction drops them.
        let mut log = forced_log(8);
        log.truncate_prefix(Lsn(5)).unwrap();
        let live = log.records().unwrap();
        let second_frame_start = HEADER_LEN + (log.image().len() as u64 - HEADER_LEN) / 8;
        log.inject(Fault::BitFlip {
            offset: second_frame_start + 10,
            mask: 0x01,
        });
        // The second crash meets the same damage, still in place.
        for _ in 0..2 {
            let report = log.crash_and_recover().unwrap();
            assert_eq!((report.lost_durable, report.truncated_bytes), (0, 0));
            assert_eq!(log.records().unwrap(), live);
            assert_eq!(log.next_lsn(), Lsn(8));
        }

        // With nothing live, the damaged frame and the dead ones behind
        // it are cut, and the mark still names the next LSN.
        log.truncate_prefix(Lsn(8)).unwrap();
        let report = log.crash_and_recover().unwrap();
        assert_eq!((report.survivors, report.lost_durable), (0, 0));
        assert_eq!(log.image().len() as u64, second_frame_start);
        assert_eq!((log.low_water_mark(), log.next_lsn()), (Lsn(8), Lsn(8)));
    }

    #[test]
    fn volatile_gc_rename_resurrects_pre_gc_records() {
        // The pre-fix FileLog bug, modelled: truncate_prefix renames the
        // rewritten file into place but never fsyncs the directory. A
        // crash then resurrects the pre-GC file — records above the
        // low-water mark come back, and post-GC appends are lost with
        // the orphaned post-rename inode.
        let mut log = forced_log(ABOVE_FLOOR);
        log.set_durable_gc_rename(false);
        log.truncate_prefix(ABOVE_FLOOR_CUT).unwrap();
        assert_eq!(log.records().unwrap().len(), 50, "GC looks fine pre-crash");
        log.append(end(1000), true).unwrap();

        let report = log.crash_and_recover().unwrap();
        // Resurrection: all pre-GC records are back, the appended
        // record is gone, and the low-water mark rolled backwards.
        assert_eq!(report.survivors, ABOVE_FLOOR as usize);
        assert_eq!(log.low_water_mark(), Lsn::ZERO);
        assert!(log
            .records()
            .unwrap()
            .iter()
            .all(|r| r.lsn < Lsn(ABOVE_FLOOR)));
    }

    #[test]
    fn volatile_gc_header_resurrects_pre_gc_records_and_keeps_later_ones() {
        // The in-place analogue: the header's new mark never reaches the
        // medium. A crash rolls the mark back over frames that are still
        // in the image, so the released records come back — the state of
        // a crash just before the GC — while the record appended after
        // it, synced on its own, stays.
        let mut log = forced_log(8);
        log.set_durable_gc_rename(false);
        log.truncate_prefix(Lsn(5)).unwrap();
        assert_eq!(log.records().unwrap().len(), 3, "GC looks fine pre-crash");
        log.append(end(100), true).unwrap();

        let report = log.crash_and_recover().unwrap();
        assert_eq!(report.survivors, 9);
        assert_eq!(log.low_water_mark(), Lsn::ZERO);
        assert_eq!(log.records().unwrap().last().unwrap().payload, end(100));
    }

    #[test]
    fn durable_gc_rename_survives_crash() {
        // With the syncs (the fix, and the default), a crash right after
        // truncate_prefix must see exactly the post-GC records, in place
        // or compacted: the same records a real FileLog reopen yields.
        fn in_place(log: &mut dyn StableLog) {
            for (payload, force) in forced(8) {
                log.append(payload, force).unwrap();
            }
            log.truncate_prefix(Lsn(5)).unwrap();
        }
        fn compacted(log: &mut dyn StableLog) {
            for (payload, force) in forced(ABOVE_FLOOR) {
                log.append(payload, force).unwrap();
            }
            log.truncate_prefix(ABOVE_FLOOR_CUT).unwrap();
        }
        let in_place = in_place as fn(&mut dyn StableLog);
        let cases = [(in_place, Lsn(5), 3), (compacted, ABOVE_FLOOR_CUT, 50)];
        for (script, low_water, survivors) in cases {
            let (_dir, file, mut faulty) = on_both("faulty-gc-crash", script);
            let path = file.path().to_owned();

            let report = faulty.crash_and_recover().unwrap();
            assert_eq!(report.survivors, survivors);
            assert_eq!(report.lost_durable, 0);
            assert_eq!(faulty.low_water_mark(), low_water);

            drop(file);
            let reopened = FileLog::open(&path).unwrap();
            assert_eq!(
                faulty.records().unwrap(),
                reopened.records().unwrap(),
                "post-GC crash recovery diverged from FileLog reopen"
            );
            assert_eq!(reopened.low_water_mark(), low_water);
        }
    }

    #[test]
    fn injected_gc_rewrite_failure_leaves_state_unchanged() {
        // Below the floor the failing write is the header's, above it
        // the compaction's.
        for (n, cut) in [(6, Lsn(4)), (ABOVE_FLOOR, ABOVE_FLOOR_CUT)] {
            let mut log = forced_log(n);
            let image_before = log.image().to_vec();
            let stats_before = log.stats();
            log.fail_next_gc_rewrite();
            let err = log.truncate_prefix(cut).unwrap_err();
            assert!(matches!(err, WalError::Io(_)));
            assert_eq!(log.records().unwrap().len(), n as usize);
            assert_eq!(log.low_water_mark(), Lsn::ZERO);
            assert_eq!(
                log.image(),
                &image_before[..],
                "image untouched by failed GC"
            );
            assert_eq!(log.stats().truncated, stats_before.truncated);
            // The failure is one-shot: the retry succeeds and recovers clean.
            log.truncate_prefix(cut).unwrap();
            let report = log.crash_and_recover().unwrap();
            assert_eq!(report.survivors as u64, n - cut.raw());
            assert_eq!(log.low_water_mark(), cut);
        }
    }

    #[test]
    fn header_corruption_is_fatal() {
        let mut log = FaultyLog::new();
        log.append(end(1), true).unwrap();
        log.inject(Fault::BitFlip {
            offset: 0,
            mask: 0xFF,
        });
        assert!(log.crash_and_recover().is_err());
    }
}
