//! The one framed log: a 16-byte header (`magic‖version‖low_water`)
//! followed by CRC32-framed records ([`crate::encode`]), on a [`Store`].
//!
//! The store is the only copy of the durable records. The log keeps its
//! encode buffer, its counters and one payload length (a `u32`) per live
//! record, from which a frame's place in the image is summed;
//! [`StableLog::records`] and [`StableLog::for_each_record`] read the
//! live frames back from the medium and decode them with the recovery
//! scan, so what a caller reads is what a restart would find (less a
//! lying sync's damage, which only a crash exposes).
//!
//! Appends are encoded at once into a process-memory buffer; a force
//! (or flush) hands the buffer to the store to append and sync, so a
//! crash before the flush loses the buffered records —
//! [`crate::mem::MemLog`]'s semantics. GC
//! ([`StableLog::truncate_prefix`]) sizes its cut from the lengths and
//! moves the header's low-water mark in place — one aligned 8-byte
//! write and a sync — leaving the released frames in the image as dead
//! bytes. Once the dead bytes reach the live ones (and at least
//! [`RECLAIM_FLOOR`], 64 KiB), the same call compacts instead: it reads
//! the retained frames back and stages them behind a new header as a
//! whole new image for the store to swap in atomically. So the image
//! never exceeds twice its live frames plus the floor and the header,
//! and the rewrite's cost is amortized over the collections that filled
//! the floor. The floor is sized for the logs that are never empty: a
//! participant always holds the next burst's `prepared` frames, which a
//! compaction below a few KiB would copy about as often as it reclaimed
//! anything. Recovery ([`FramedLog::recover`]) skips the frames below
//! the low-water mark — resuming at the mark's frame if one of them is
//! damaged, so dead bytes never cost a live record — keeps the longest
//! valid prefix of live records, and cuts the torn or corrupt tail. A
//! [`Store`] is only what the log asks of its medium —
//! [`crate::file::Disk`] a file, [`crate::fault::FaultyImage`] the same
//! bytes in memory with scripted damage — so every injected fault runs
//! under the code that commits.

use crate::encode::{decode_frame, encode_frame_into, FrameOutcome, FRAME_OVERHEAD};
use crate::error::WalError;
use crate::record::{LogRecord, Lsn, WalStats};
use crate::StableLog;
use acp_types::LogPayload;
use std::collections::VecDeque;

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

/// The recovery scan over `bytes`, the part of an image that starts at
/// image offset `base`. Frames below `low_water` are dead and skipped;
/// before the first live frame a bad one may be dead bytes no record
/// needs, so the scan resumes at the frame that carries the mark if one
/// follows (CRC-checked, damaged bytes cannot pass for it). Each live
/// record goes to `live` with its frame's length, for as long as
/// the frames are whole and their LSNs run on from `low_water` one by
/// one: a frame behind a hole (a lying sync dropped whole frames before
/// it) ends the valid prefix as a torn one does. Returns where the
/// valid frames end in `bytes` and the dead bytes before the first live
/// frame.
fn scan(
    bytes: &[u8],
    base: u64,
    low_water: Lsn,
    live: &mut dyn FnMut(LogRecord, usize),
) -> Result<(usize, u64), WalError> {
    let frame_at = |at: usize| decode_frame(&bytes[at..], base + at as u64);
    // The LSN the next live frame must carry.
    let mut expect = low_water;
    let mut dead = 0;
    let mut offset = 0;
    while offset < bytes.len() {
        let none_live = expect == low_water;
        match frame_at(offset)? {
            FrameOutcome::Record(rec, consumed) if none_live && rec.lsn < low_water => {
                dead += consumed as u64;
                offset += consumed;
            }
            FrameOutcome::Record(rec, consumed) if rec.lsn == expect => {
                expect = expect.next();
                live(rec, consumed);
                offset += consumed;
            }
            FrameOutcome::Record(..) => break,
            FrameOutcome::Torn if none_live => {
                let carries_mark = |at: &usize| match frame_at(*at) {
                    Ok(FrameOutcome::Record(rec, _)) => rec.lsn == low_water,
                    _ => false,
                };
                match (offset + 1..bytes.len()).find(carries_mark) {
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
    Ok((offset, dead))
}

/// What a [`FramedLog`] asks of its medium: one byte image that
/// outlives the process.
pub trait Store {
    /// What a restarted site finds: the whole durable image, header
    /// included, after whatever a crash does to it on this medium.
    fn restart(&mut self) -> Result<Vec<u8>, WalError>;
    /// Fill `buf` with the image's bytes from offset `at` as they were
    /// written — what a read returns before a crash, as a page cache
    /// serves it. The log reads only bytes it wrote and synced.
    fn read_at(&self, at: u64, buf: &mut [u8]) -> Result<(), WalError>;
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

/// A stable log of framed records on a [`Store`], which holds the only
/// copy of them.
#[derive(Clone, Debug)]
pub struct FramedLog<S> {
    pub(crate) store: S,
    /// Encoded frames not yet written+synced; lost if the process dies.
    buffer: Vec<u8>,
    /// The payload length of each live record's frame, in LSN order from
    /// `low_water`: the durable ones, then the buffered ones. A frame is
    /// its payload and `FRAME_OVERHEAD` bytes, and the live frames lie
    /// end to end from `live_start`, so a cut sums the lengths it drains
    /// and a compaction leaves them as they are.
    lens: VecDeque<u32>,
    /// How many records (the last of `lens`) are in `buffer`.
    buffered: usize,
    low_water: Lsn,
    next: Lsn,
    /// Bytes of the image's frames at or above `low_water`.
    frames: u64,
    /// Bytes of the image's frames below `low_water`: released, but on
    /// the medium until a compaction rewrites the image. The live frames
    /// start right behind them and the header.
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
            lens: VecDeque::new(),
            buffered: 0,
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
        let lost_buffered = self.buffered;
        self.stats.lost_on_crash += lost_buffered as u64;
        self.buffer.clear();
        let believed = self.durable();
        self.lens.truncate(believed);
        self.buffered = 0;
        let (_, truncated_bytes) = self.load()?;
        Ok(RecoveryReport {
            lost_buffered,
            lost_durable: believed.saturating_sub(self.lens.len()),
            truncated_bytes,
            survivors: self.lens.len(),
        })
    }

    /// Records that are durable (the rest of `lens` is buffered).
    fn durable(&self) -> usize {
        self.lens.len() - self.buffered
    }

    /// Image offset of the first live frame.
    fn live_start(&self) -> u64 {
        HEADER_LEN + self.dead
    }

    /// Image offset one past the last durable frame.
    fn frames_end(&self) -> u64 {
        self.live_start() + self.frames
    }

    /// Adopt the longest valid prefix of live records in the store's
    /// image ([`scan`]) and cut the rest. Returns the image bytes kept
    /// and the bytes cut.
    fn load(&mut self) -> Result<(u64, u64), WalError> {
        let image = self.store.restart()?;
        let low_water = decode_header(&image)?;
        let mut lens = VecDeque::new();
        let frames = &image[HEADER_LEN as usize..];
        let (valid, dead) = scan(frames, HEADER_LEN, low_water, &mut |_, len| {
            lens.push_back(payload_len(len));
        })?;
        let end = HEADER_LEN + valid as u64;
        // Physically drop the torn tail so future appends start clean.
        if valid < frames.len() {
            self.store.cut(end)?;
        }
        self.low_water = low_water;
        self.next = Lsn(low_water.raw() + lens.len() as u64);
        self.lens = lens;
        self.frames = end - HEADER_LEN - dead;
        self.dead = dead;
        self.failed = false;
        Ok((end, (frames.len() - valid) as u64))
    }

    /// Read the live frames back from the store and hand their records
    /// to `visit` in order.
    fn read_live(&self, visit: &mut dyn FnMut(LogRecord)) -> Result<(), WalError> {
        let start = self.live_start();
        let mut bytes = vec![0; self.frames as usize];
        self.store.read_at(start, &mut bytes)?;
        let (valid, _) = scan(&bytes, start, self.low_water, &mut |rec, _| visit(rec))?;
        if valid < bytes.len() {
            return Err(WalError::Corrupt {
                offset: start + valid as u64,
                detail: "a durable frame read back damaged".into(),
            });
        }
        Ok(())
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
        self.buffered = 0;
        Ok(())
    }
}

/// The payload length of a frame `len` bytes long. The encoder writes a
/// payload's length as a `u32`, so it fits one.
fn payload_len(len: usize) -> u32 {
    u32::try_from(len - FRAME_OVERHEAD).expect("a frame's payload length is a u32")
}

impl<S: Store> StableLog for FramedLog<S> {
    fn append_ref(&mut self, payload: &LogPayload, force: bool) -> Result<Lsn, WalError> {
        let lsn = self.next;
        self.next = self.next.next();
        self.stats.appends += 1;
        let start = self.buffer.len();
        encode_frame_into(&mut self.buffer, lsn, force, payload);
        self.lens.push_back(payload_len(self.buffer.len() - start));
        self.buffered += 1;
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
        let mut records = Vec::with_capacity(self.durable());
        self.read_live(&mut |rec| records.push(rec))?;
        Ok(records)
    }

    fn for_each_record(&self, f: &mut dyn FnMut(&LogRecord)) -> Result<(), WalError> {
        self.read_live(&mut |rec| f(&rec))
    }

    fn truncate_prefix(&mut self, lsn: Lsn) -> Result<(), WalError> {
        let high = self.durable_end();
        if lsn < self.low_water || lsn > high {
            return Err(WalError::BadTruncate {
                requested: lsn.raw(),
                low: self.low_water.raw(),
                high: high.raw(),
            });
        }
        self.check_writable()?;
        // The live LSNs run on from the mark one by one, so the cut is
        // an index, and the frames it releases are durable ones.
        let cut = (lsn.raw() - self.low_water.raw()) as usize;
        let released: u64 = (self.lens.iter().take(cut))
            .map(|&len| u64::from(len) + FRAME_OVERHEAD as u64)
            .sum();
        let at = self.live_start() + released;
        let live = self.frames_end() - at;
        let dead = self.dead + released;
        // Memory changes only once the store's write is durable: an I/O
        // error must leave the log as it was.
        if dead < live.max(RECLAIM_FLOOR) {
            self.store.set_low_water(lsn)?;
            self.dead = dead;
        } else {
            // Compact: the header and the retained frames as written,
            // read back and swapped in.
            let mut image = vec![0; (HEADER_LEN + live) as usize];
            image[..HEADER_LEN as usize].copy_from_slice(&encode_header(lsn));
            self.store.read_at(at, &mut image[HEADER_LEN as usize..])?;
            self.store.replace(&image)?;
            self.dead = 0;
        }
        self.frames = live;

        // Commit: the medium now holds the post-GC mark.
        self.lens.drain(..cut);
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

    fn durable_end(&self) -> Lsn {
        Lsn(self.next.raw() - self.buffered as u64)
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
    use crate::encode::frame_len;
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
        fn read_at(&self, at: u64, buf: &mut [u8]) -> Result<(), WalError> {
            buf.copy_from_slice(&self.image[at as usize..at as usize + buf.len()]);
            Ok(())
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
