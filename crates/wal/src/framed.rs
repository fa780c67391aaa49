//! The one framed log: a 16-byte header (`magic‖version‖low_water`)
//! followed by CRC32-framed records ([`crate::encode`]), on a [`Store`].
//!
//! Appends accumulate in a process-memory buffer; a force (or flush)
//! hands the buffer to the store to append and sync, so a crash before
//! the flush loses the buffered records — [`crate::mem::MemLog`]'s
//! semantics. GC ([`StableLog::truncate_prefix`]) stages the retained
//! suffix as a whole new image for the store to swap in atomically, so
//! reclaimed bytes are physically returned. Recovery
//! ([`FramedLog::recover`]) keeps the image's longest valid record
//! prefix and cuts the torn or corrupt tail. A [`Store`] is only what
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

pub(crate) fn encode_header(low_water: Lsn) -> [u8; 16] {
    let mut h = [0u8; 16];
    h[0..4].copy_from_slice(&HEADER_MAGIC.to_le_bytes());
    h[4..8].copy_from_slice(&VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&low_water.raw().to_le_bytes());
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
    Ok(Lsn(u64::from_le_bytes(
        buf[8..16].try_into().expect("8 bytes"),
    )))
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
    /// Atomically and durably replace the whole image (GC). On error
    /// the old image is still the one a crash would find.
    fn replace(&mut self, image: &[u8]) -> Result<(), WalError>;
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

    /// Adopt the longest valid record prefix of the store's image and
    /// cut the rest. Returns the image bytes kept and the bytes cut.
    fn load(&mut self) -> Result<(u64, u64), WalError> {
        let image = self.store.restart()?;
        let low_water = decode_header(&image)?;
        let mut survivors = Vec::new();
        let mut offset = HEADER_LEN as usize;
        while offset < image.len() {
            match decode_frame(&image[offset..], offset as u64)? {
                FrameOutcome::Record(rec, consumed) => {
                    survivors.push(rec);
                    offset += consumed;
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
        // Stage the post-GC image, then swap. Memory changes only once
        // the swap is durable: an I/O error must leave the log as it was.
        let cut = self.durable.partition_point(|r| r.lsn < lsn);
        let retained = &self.durable[cut..];
        let frames: usize = retained.iter().map(|r| frame_len(&r.payload)).sum();
        let mut image = Vec::with_capacity(HEADER_LEN as usize + frames);
        image.extend_from_slice(&encode_header(lsn));
        for rec in retained {
            encode_frame_into(&mut image, rec.lsn, rec.forced, &rec.payload);
        }
        self.store.replace(&image)?;

        // Commit: the medium now holds the post-GC image.
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
