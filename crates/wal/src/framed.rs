//! The one framed log: a 16-byte header (`magic‖version‖low_water`)
//! followed by CRC32-framed records ([`crate::encode`]), on a [`Store`].
//!
//! Appends accumulate in a process-memory buffer; a force (or flush)
//! hands the buffer to the store to append and sync, so a crash before
//! the flush loses the buffered records — [`crate::mem::MemLog`]'s
//! semantics. GC ([`StableLog::truncate_prefix`]) moves the header's
//! low-water mark in place — one aligned 8-byte write and a sync — and
//! leaves the released frames in the image as dead bytes. Once the dead
//! bytes reach the live ones (and at least [`RECLAIM_FLOOR`], 64 KiB),
//! the same call compacts instead: it stages the header and the
//! retained suffix as a whole new image for the store to swap in
//! atomically. So the image never exceeds twice its live frames plus
//! the floor and the header, and the rewrite's cost is amortized over
//! the collections that filled the floor. The floor is sized for the
//! logs that are never empty: a participant always holds the next
//! burst's `prepared` frames, which a compaction below a few KiB would
//! copy about as often as it reclaimed anything. Recovery ([`FramedLog::recover`]) skips the
//! frames below the low-water mark — resuming at the mark's frame if
//! one of them is damaged, so dead bytes never cost a live record —
//! keeps the longest valid prefix of live records, and cuts the torn or
//! corrupt tail. A [`Store`] is only what
//! the log asks of its medium — [`crate::file::Disk`] a file,
//! [`crate::fault::FaultyImage`] the same bytes in memory with scripted
//! damage — so every injected fault runs under the code that commits.

use crate::encode::{decode_frame, encode_frame_into, frame_len, FrameOutcome};
use crate::error::WalError;
use crate::record::{LogRecord, Lsn, WalStats};
use crate::StableLog;
use acp_types::LogPayload;

/// Header magic: "WALH".
const HEADER_MAGIC: u32 = 0x5741_4C48;
/// On-disk format version.
const VERSION: u32 = 1;
/// Header length in bytes.
pub(crate) const HEADER_LEN: u64 = 16;
/// Offset of the header's low-water field, the one field GC rewrites.
pub(crate) const LOW_WATER_AT: usize = 8;
/// Dead bytes a log may hold however small its live suffix: below this
/// a compaction would rewrite more than it returns. A participant's log
/// always holds the next burst's live `prepared` frames, which a floor
/// of a few KiB would have each compaction copy about as often as it
/// reclaims anything; at 64 KiB a compaction returns many times what it
/// copies.
pub const RECLAIM_FLOOR: u64 = 65_536;

pub(crate) fn encode_header(low_water: Lsn) -> [u8; 16] {
    let mut h = [0u8; 16];
    h[0..4].copy_from_slice(&HEADER_MAGIC.to_le_bytes());
    h[4..8].copy_from_slice(&VERSION.to_le_bytes());
    h[LOW_WATER_AT..].copy_from_slice(&low_water.raw().to_le_bytes());
    h
}

fn decode_header(buf: &[u8]) -> Result<Lsn, WalError> {
    let corrupt = |offset, detail: String| Err(WalError::Corrupt { offset, detail });
    if buf.len() < HEADER_LEN as usize {
        return corrupt(0, "short header".into());
    }
    let word = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
    if word(0) != HEADER_MAGIC {
        return corrupt(0, "bad header magic".into());
    }
    if word(4) != VERSION {
        return corrupt(4, format!("unsupported wal version {}", word(4)));
    }
    let field = &buf[LOW_WATER_AT..HEADER_LEN as usize];
    Ok(Lsn(u64::from_le_bytes(field.try_into().expect("8 bytes"))))
}

/// The bytes `records` take as frames.
fn frame_bytes(records: &[LogRecord]) -> u64 {
    records.iter().map(|r| frame_len(&r.payload) as u64).sum()
}

/// What a [`FramedLog`] asks of its medium: one byte image that
/// outlives the process.
pub trait Store {
    /// What a restarted site finds: the whole durable image, header
    /// included, after whatever a crash does to it on this medium.
    fn restart(&mut self) -> Result<Vec<u8>, WalError>;
    /// Append `bytes` and make them durable. After an error none, some
    /// or all of them may be in the image.
    fn append_sync(&mut self, bytes: &[u8]) -> Result<(), WalError>;
    /// Atomically and durably replace the whole image (GC's compaction).
    /// On error the old image is still the one a crash would find.
    fn replace(&mut self, image: &[u8]) -> Result<(), WalError>;
    /// Durably overwrite the header's low-water field with `lsn` (GC in
    /// place). The field is 8 aligned bytes in the first sector, so a
    /// crash finds the old mark or the new one, never a mix; after an
    /// error either may be the one it finds.
    fn set_low_water(&mut self, lsn: Lsn) -> Result<(), WalError>;
    /// Shorten the image to `len` bytes (recovery cutting a torn tail).
    fn cut(&mut self, len: u64) -> Result<(), WalError>;
}

/// What a crash-plus-recovery destroyed and what survived the re-scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Buffered records the crash discarded.
    pub lost_buffered: usize,
    /// Records believed durable before the crash, absent after it.
    pub lost_durable: usize,
    /// Torn/corrupt tail bytes the re-scan cut off the image.
    pub truncated_bytes: u64,
    /// Records that survived recovery.
    pub survivors: usize,
}

/// A stable log of framed records on a [`Store`].
#[derive(Clone, Debug)]
pub struct FramedLog<S> {
    pub(crate) store: S,
    /// Encoded frames not yet written+synced; lost if the process dies.
    buffer: Vec<u8>,
    /// Decoded view of everything durable, for cheap `records()`.
    durable: Vec<LogRecord>,
    /// Records represented in `buffer`.
    pending: Vec<LogRecord>,
    low_water: Lsn,
    next: Lsn,
    /// Bytes of the image's frames at or above `low_water`: the
    /// encoding of `durable`.
    frames: u64,
    /// Bytes of the image's frames below `low_water`: released, but on
    /// the medium until a compaction rewrites the image.
    dead: u64,
    stats: WalStats,
    /// A write-out failed, so the image may end in part of its frames,
    /// all of them or none. A retry would land behind a partial frame
    /// (the scan stops there and drops everything later) or a whole one
    /// (duplicate LSNs): nothing is written until `recover` re-reads.
    failed: bool,
}

impl<S: Store> FramedLog<S> {
    /// An empty log over a store whose image is a fresh header.
    pub(crate) fn empty(store: S) -> Self {
        FramedLog {
            store,
            buffer: Vec::new(),
            durable: Vec::new(),
            pending: Vec::new(),
            low_water: Lsn::ZERO,
            next: Lsn::ZERO,
            frames: 0,
            dead: 0,
            stats: WalStats::default(),
            failed: false,
        }
    }

    /// A log over a store that already holds an image.
    pub(crate) fn recovered(store: S) -> Result<Self, WalError> {
        let mut log = FramedLog::empty(store);
        let (kept, _) = log.load()?;
        log.stats.durable_bytes = kept - HEADER_LEN;
        Ok(log)
    }

    /// Crash the site and restart it without dropping the value: the
    /// volatile buffer is lost and the image is read back through the
    /// same store, after whatever its crash did. Errors only if the
    /// header is unreadable — recoverable damage is reported, not raised.
    pub fn recover(&mut self) -> Result<RecoveryReport, WalError> {
        let lost_buffered = self.pending.len();
        self.stats.lost_on_crash += lost_buffered as u64;
        self.buffer.clear();
        self.pending.clear();
        let believed = self.durable.len();
        let (_, truncated_bytes) = self.load()?;
        Ok(RecoveryReport {
            lost_buffered,
            lost_durable: believed.saturating_sub(self.durable.len()),
            truncated_bytes,
            survivors: self.durable.len(),
        })
    }

    /// Adopt the longest valid prefix of live records in the store's
    /// image and cut the rest. Frames below the header's low-water mark
    /// are dead and skipped; damage among them costs no live record,
    /// because the scan resumes at the frame that carries the mark.
    /// Returns the image bytes kept and the bytes cut.
    fn load(&mut self) -> Result<(u64, u64), WalError> {
        let image = self.store.restart()?;
        let low_water = decode_header(&image)?;
        let frame_at = |at: usize| decode_frame(&image[at..], at as u64);
        let mut survivors = Vec::new();
        let mut dead = 0;
        let mut offset = HEADER_LEN as usize;
        while offset < image.len() {
            match frame_at(offset)? {
                FrameOutcome::Record(rec, consumed) => {
                    if rec.lsn < low_water {
                        dead += consumed as u64;
                    } else {
                        survivors.push(rec);
                    }
                    offset += consumed;
                }
                // Before the first live frame a bad one may be dead
                // bytes no record needs: skip them if the live frames
                // follow. CRC-checked, damaged bytes cannot pass for the
                // frame that carries the mark.
                FrameOutcome::Torn if survivors.is_empty() => {
                    let carries_mark = |at: &usize| match frame_at(*at) {
                        Ok(FrameOutcome::Record(rec, _)) => rec.lsn == low_water,
                        _ => false,
                    };
                    match (offset + 1..image.len()).find(carries_mark) {
                        Some(live_at) => {
                            dead += (live_at - offset) as u64;
                            offset = live_at;
                        }
                        None => break,
                    }
                }
                FrameOutcome::Torn => break,
            }
        }
        // Physically drop the torn tail so future appends start clean.
        if offset < image.len() {
            self.store.cut(offset as u64)?;
        }
        self.low_water = low_water;
        self.durable = survivors;
        self.next = self.durable.last().map_or(self.low_water, |r| r.lsn.next());
        self.frames = offset as u64 - HEADER_LEN - dead;
        self.dead = dead;
        self.failed = false;
        Ok((offset as u64, (image.len() - offset) as u64))
    }

    fn check_writable(&self) -> Result<(), WalError> {
        if self.failed {
            let refused = "an earlier write-out failed: recover the log before writing";
            return Err(WalError::Io(std::io::Error::other(refused)));
        }
        Ok(())
    }

    fn write_out(&mut self) -> Result<(), WalError> {
        self.check_writable()?;
        if self.buffer.is_empty() {
            return Ok(());
        }
        if let Err(e) = self.store.append_sync(&self.buffer) {
            self.failed = true;
            return Err(e);
        }
        self.stats.durable_bytes += self.buffer.len() as u64;
        self.frames += self.buffer.len() as u64;
        self.buffer.clear();
        self.durable.append(&mut self.pending);
        Ok(())
    }
}

impl<S: Store> StableLog for FramedLog<S> {
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
        self.check_writable()?;
        let cut = self.durable.partition_point(|r| r.lsn < lsn);
        // Measure the shorter side of the cut, derive the other.
        debug_assert_eq!(self.frames, frame_bytes(&self.durable));
        let (released, live) = if cut <= self.durable.len() - cut {
            let released = frame_bytes(&self.durable[..cut]);
            (released, self.frames - released)
        } else {
            let live = frame_bytes(&self.durable[cut..]);
            (self.frames - live, live)
        };
        let dead = self.dead + released;
        // Memory changes only once the store's write is durable: an I/O
        // error must leave the log as it was.
        if dead < live.max(RECLAIM_FLOOR) {
            self.store.set_low_water(lsn)?;
            self.dead = dead;
        } else {
            // Compact: the header and the retained suffix, swapped in.
            let mut image = Vec::with_capacity((HEADER_LEN + live) as usize);
            image.extend_from_slice(&encode_header(lsn));
            for rec in &self.durable[cut..] {
                encode_frame_into(&mut image, rec.lsn, rec.forced, &rec.payload);
            }
            self.store.replace(&image)?;
            self.dead = 0;
        }
        self.frames = live;

        // Commit: the medium now holds the post-GC mark.
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
        Ok(self.recover()?.lost_buffered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_types::{Outcome, TxnId};

    /// A plain byte image that counts compactions.
    struct Counting {
        image: Vec<u8>,
        replaces: u64,
    }

    impl Store for Counting {
        fn restart(&mut self) -> Result<Vec<u8>, WalError> {
            Ok(self.image.clone())
        }
        fn append_sync(&mut self, bytes: &[u8]) -> Result<(), WalError> {
            self.image.extend_from_slice(bytes);
            Ok(())
        }
        fn replace(&mut self, image: &[u8]) -> Result<(), WalError> {
            self.replaces += 1;
            self.image = image.to_vec();
            Ok(())
        }
        fn set_low_water(&mut self, lsn: Lsn) -> Result<(), WalError> {
            self.image[LOW_WATER_AT..HEADER_LEN as usize].copy_from_slice(&lsn.raw().to_le_bytes());
            Ok(())
        }
        fn cut(&mut self, len: u64) -> Result<(), WalError> {
            self.image.truncate(len as usize);
            Ok(())
        }
    }

    /// Definition 1 on the medium at the kernel's cadence: one GC per
    /// finished transaction, which leaves nothing live. The image stays
    /// within twice its live bytes (none) plus the floor and the header,
    /// and a compaction comes once per floor's worth of released bytes.
    #[test]
    fn one_transaction_gcs_compact_once_per_floor_and_stay_bounded() {
        let image = encode_header(Lsn::ZERO).to_vec();
        let mut log = FramedLog::empty(Counting { image, replaces: 0 });
        let mut released = 0;
        // About sixteen floors' worth of released bytes (≥ 64 B a txn).
        let txns = RECLAIM_FLOOR / 4;
        for t in 0..txns {
            let txn = TxnId::new(t);
            let outcome = Outcome::Commit;
            let participants = Vec::new();
            for payload in [
                LogPayload::CoordDecision {
                    txn,
                    outcome,
                    participants,
                },
                LogPayload::End { txn },
            ] {
                released += frame_len(&payload) as u64;
                log.append(payload, true).unwrap();
            }
            log.truncate_prefix(log.next_lsn()).unwrap();
            let bound = RECLAIM_FLOOR + HEADER_LEN;
            assert!(log.store.image.len() as u64 <= bound, "after txn {t}");
        }
        let replaces = log.store.replaces;
        assert!(replaces > 0, "the floor was crossed");
        assert!(
            replaces <= released.div_ceil(RECLAIM_FLOOR) + 1,
            "{replaces} compactions for {released} released bytes"
        );
        log.recover().unwrap();
        assert_eq!(log.records().unwrap(), Vec::new());
        assert_eq!(log.low_water_mark(), Lsn(2 * txns));
    }

    /// The integration tests that bound an image by the floor
    /// (`tests/fuzz_wal.rs`, the host's Definition 1 tests) read it as
    /// `acp_wal::RECLAIM_FLOOR` and size their logs from it; a change of
    /// the value must still be a deliberate one.
    #[test]
    fn the_reclaim_floor_is_the_one_the_integration_tests_assume() {
        assert_eq!(RECLAIM_FLOOR, 65_536);
        assert_eq!(HEADER_LEN, 16);
    }
}
