//! In-memory stable log with explicit crash semantics, for the
//! deterministic simulator and the model checker.
//!
//! "Stable" here means: records survive [`MemLog::crash`]. A force (or
//! flush) moves buffered records to the durable region; a crash discards
//! whatever is still buffered — exactly the stable-storage model the
//! paper's proofs assume ("a force-write ensures that a log record is
//! written into a stable storage that survives system failures").

use crate::encode::{frame_len, CheckpointDelta};
use crate::error::WalError;
use crate::record::{LogRecord, Lsn, WalStats};
use crate::{CheckpointSink, StableLog};
use acp_types::LogPayload;
use std::collections::VecDeque;

/// An in-memory log with durable and volatile (buffered) regions.
#[derive(Clone, Debug, Default)]
pub struct MemLog {
    /// Durable records, oldest first. Front LSN equals `low_water`.
    durable: VecDeque<LogRecord>,
    /// Appended but not yet forced; lost on crash.
    buffered: Vec<LogRecord>,
    /// Smallest retained LSN.
    low_water: Lsn,
    /// LSN for the next append.
    next: Lsn,
    stats: WalStats,
}

impl MemLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulate a crash: every buffered (non-forced) record is lost.
    /// Returns how many records were lost.
    pub fn crash(&mut self) -> usize {
        let lost = self.buffered.len();
        self.stats.lost_on_crash += lost as u64;
        self.buffered.clear();
        // LSNs of lost records are reused: the writer that appended them
        // never learned they were durable, and after recovery appends
        // continue from the durable tail (as a real WAL would).
        self.next = self.durable.back().map_or(self.low_water, |r| r.lsn.next());
        lost
    }

    /// Number of durable records currently retained (not yet truncated).
    #[must_use]
    pub fn retained(&self) -> usize {
        self.durable.len()
    }

    /// Approximate bytes retained in the durable region, using the same
    /// framing overhead as the file log. This is the measurement used in
    /// the Theorem 2 experiment (log that can never be garbage
    /// collected).
    #[must_use]
    pub fn retained_bytes(&self) -> u64 {
        self.durable
            .iter()
            .map(|r| frame_len(&r.payload) as u64)
            .sum()
    }

    /// All records including the still-buffered (not yet durable) tail
    /// — an observational view for tests and trace assertions; recovery
    /// must use [`StableLog::records`] instead.
    #[must_use]
    pub fn all_records(&self) -> Vec<LogRecord> {
        self.durable
            .iter()
            .chain(self.buffered.iter())
            .cloned()
            .collect()
    }

    fn make_durable(&mut self) {
        for rec in self.buffered.drain(..) {
            self.stats.durable_bytes += frame_len(&rec.payload) as u64;
            self.durable.push_back(rec);
        }
    }
}

impl StableLog for MemLog {
    fn append_ref(&mut self, payload: &LogPayload, force: bool) -> Result<Lsn, WalError> {
        self.append(payload.clone(), force)
    }

    fn append(&mut self, payload: LogPayload, force: bool) -> Result<Lsn, WalError> {
        let lsn = self.next;
        self.next = self.next.next();
        self.stats.appends += 1;
        self.buffered.push(LogRecord {
            lsn,
            forced: force,
            payload,
        });
        if force {
            self.stats.forces += 1;
            self.make_durable();
        }
        Ok(lsn)
    }

    fn append_checkpoint(&mut self, delta: &CheckpointDelta, force: bool) -> Result<Lsn, WalError> {
        self.append(delta.to_payload(), force)
    }

    fn flush(&mut self) -> Result<(), WalError> {
        self.stats.flushes += 1;
        self.make_durable();
        Ok(())
    }

    fn records(&self) -> Result<Vec<LogRecord>, WalError> {
        Ok(self.durable.iter().cloned().collect())
    }

    fn for_each_record(&self, f: &mut dyn FnMut(&LogRecord)) -> Result<(), WalError> {
        for r in &self.durable {
            f(r);
        }
        Ok(())
    }

    fn read_checkpoints(&self, sink: &mut dyn CheckpointSink) -> Result<u64, WalError> {
        let entries = || {
            let records = self.durable.iter().filter_map(|r| match &r.payload {
                LogPayload::Checkpoint { entries } => Some(entries),
                _ => None,
            });
            records.flatten()
        };
        let (count, bytes) =
            entries().fold((0, 0), |(n, b), (k, v)| (n + 1, b + k.len() + v.len()));
        sink.reserve(count, bytes);
        for (key, value) in entries() {
            sink.entry(key, value);
        }
        Ok(self.retained_bytes())
    }

    fn truncate_prefix(&mut self, lsn: Lsn) -> Result<(), WalError> {
        let high = self.durable.back().map_or(self.low_water, |r| r.lsn.next());
        if lsn < self.low_water || lsn > high {
            return Err(WalError::BadTruncate {
                requested: lsn.raw(),
                low: self.low_water.raw(),
                high: high.raw(),
            });
        }
        while self.durable.front().is_some_and(|r| r.lsn < lsn) {
            self.durable.pop_front();
            self.stats.truncated += 1;
        }
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
        Lsn(self.next.raw() - self.buffered.len() as u64)
    }

    fn stats(&self) -> WalStats {
        self.stats
    }

    fn lose_unflushed(&mut self) -> Result<usize, WalError> {
        Ok(self.crash())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_types::TxnId;

    fn end(t: u64) -> LogPayload {
        LogPayload::End { txn: TxnId::new(t) }
    }

    #[test]
    fn forced_records_survive_crash_buffered_do_not() {
        let mut log = MemLog::new();
        log.append(end(1), true).unwrap();
        log.append(end(2), false).unwrap();
        log.append(end(3), false).unwrap();
        assert_eq!(log.crash(), 2);
        let recs = log.records().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].payload, end(1));
        assert_eq!(log.stats().lost_on_crash, 2);
    }

    #[test]
    fn force_flushes_earlier_buffered_records() {
        let mut log = MemLog::new();
        log.append(end(1), false).unwrap();
        log.append(end(2), true).unwrap(); // forces record 1 too
        assert_eq!(log.crash(), 0);
        assert_eq!(log.records().unwrap().len(), 2);
    }

    #[test]
    fn lsns_continue_after_crash_from_durable_tail() {
        let mut log = MemLog::new();
        let l0 = log.append(end(1), true).unwrap();
        let l1 = log.append(end(2), false).unwrap();
        assert_eq!(l1, l0.next());
        log.crash();
        let l1_again = log.append(end(3), true).unwrap();
        assert_eq!(l1_again, l0.next(), "lost LSN is reused after crash");
    }

    #[test]
    fn truncate_bounds_checked() {
        let mut log = MemLog::new();
        log.append(end(1), true).unwrap();
        log.append(end(2), true).unwrap();
        assert!(matches!(
            log.truncate_prefix(Lsn(5)),
            Err(WalError::BadTruncate { .. })
        ));
        log.truncate_prefix(Lsn(1)).unwrap();
        assert!(matches!(
            log.truncate_prefix(Lsn(0)),
            Err(WalError::BadTruncate { .. })
        ));
        assert_eq!(log.retained(), 1);
        // Truncating the whole log is allowed (lsn == next).
        log.truncate_prefix(Lsn(2)).unwrap();
        assert_eq!(log.retained(), 0);
    }

    #[test]
    fn retained_bytes_shrink_on_truncate() {
        let mut log = MemLog::new();
        for i in 0..10 {
            log.append(end(i), true).unwrap();
        }
        let full = log.retained_bytes();
        log.truncate_prefix(Lsn(5)).unwrap();
        assert!(log.retained_bytes() < full);
        assert_eq!(log.stats().truncated, 5);
    }

    #[test]
    fn stats_track_forces_and_flushes() {
        let mut log = MemLog::new();
        log.append(end(1), true).unwrap();
        log.append(end(2), false).unwrap();
        log.flush().unwrap();
        let s = log.stats();
        assert_eq!(s.appends, 2);
        assert_eq!(s.forces, 1);
        assert_eq!(s.flushes, 1);
        assert!(s.durable_bytes > 0);
    }
}
