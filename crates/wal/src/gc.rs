//! Garbage-collection tracking: which log prefix is reclaimable.
//!
//! A transaction's records become reclaimable once the site writes its
//! end record (coordinator) or participant-end record (participant).
//! Because the log is a sequence, only a *prefix* whose transactions are
//! all ended can be physically truncated; [`GcTracker`] computes the
//! largest such prefix.
//!
//! This is the executable form of requirements (2) and (3) of the
//! paper's operational correctness criterion (Definition 1): a protocol
//! is operationally correct only if this prefix keeps advancing. The
//! Theorem 2 experiment shows C2PC pinning it forever.

use crate::error::WalError;
use crate::record::{LogRecord, Lsn};
use crate::StableLog;
use acp_types::{LogPayload, TxnId};
use std::collections::BTreeMap;

/// Tracks the first LSN of each transaction that has not ended, and
/// derives the releasable log prefix. An ended transaction leaves no
/// entry.
#[derive(Clone, Debug, Default)]
pub struct GcTracker {
    /// First LSN per open (not yet ended) transaction.
    open: BTreeMap<TxnId, Lsn>,
    /// LSN one past the last record observed.
    tail: Lsn,
}

impl GcTracker {
    /// A tracker that has seen nothing.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a tracker from a scanned log (used after recovery).
    #[must_use]
    pub fn from_records(records: &[LogRecord]) -> Self {
        let mut t = Self::new();
        for r in records {
            t.note(r.lsn, &r.payload);
        }
        t
    }

    /// [`GcTracker::from_records`] over a log's durable records, read
    /// in place (no clone of the log).
    pub fn from_log<L: StableLog + ?Sized>(log: &L) -> Result<Self, WalError> {
        let mut t = Self::new();
        log.for_each_record(&mut |r| t.note(r.lsn, &r.payload))?;
        Ok(t)
    }

    /// Observe an appended record.
    pub fn note(&mut self, lsn: Lsn, payload: &LogPayload) {
        self.tail = self.tail.max(lsn.next());
        let txn = payload.txn();
        match payload {
            LogPayload::End { .. } | LogPayload::PartEnd { .. } => {
                self.open.remove(&txn);
            }
            // A checkpoint belongs to no transaction and never pins the
            // log (it is what makes the prefix before it reclaimable).
            LogPayload::Checkpoint { .. } => {}
            _ => {
                self.open.entry(txn).or_insert(lsn);
            }
        }
    }

    /// The largest LSN `l` such that every record below `l` belongs to an
    /// ended transaction: the log may be truncated to `l`.
    #[must_use]
    pub fn releasable(&self) -> Lsn {
        match self.open.values().min() {
            Some(&pin) => pin,
            None => self.tail,
        }
    }

    /// Transactions whose records are still pinned in the log (not
    /// ended). Under an operationally correct protocol this set drains;
    /// under C2PC it grows without bound.
    #[must_use]
    pub fn pinned(&self) -> Vec<TxnId> {
        self.open.keys().copied().collect()
    }

    /// Number of pinned (never-ending) transactions.
    #[must_use]
    pub fn pinned_count(&self) -> usize {
        self.open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end(t: u64) -> LogPayload {
        LogPayload::End { txn: TxnId::new(t) }
    }

    fn dec(t: u64) -> LogPayload {
        LogPayload::CoordDecision {
            txn: TxnId::new(t),
            outcome: acp_types::Outcome::Commit,
            participants: vec![],
        }
    }

    #[test]
    fn empty_tracker_releases_nothing_yet() {
        let t = GcTracker::new();
        assert_eq!(t.releasable(), Lsn(0));
        assert_eq!(t.pinned_count(), 0);
    }

    #[test]
    fn fully_ended_log_is_fully_releasable() {
        let mut t = GcTracker::new();
        t.note(Lsn(0), &dec(1));
        t.note(Lsn(1), &end(1));
        assert_eq!(t.releasable(), Lsn(2));
        assert!(t.pinned().is_empty());
    }

    #[test]
    fn open_transaction_pins_the_prefix() {
        let mut t = GcTracker::new();
        t.note(Lsn(0), &dec(1)); // open txn 1 at lsn 0
        t.note(Lsn(1), &dec(2));
        t.note(Lsn(2), &end(2)); // txn 2 ends, but txn 1 pins lsn 0
        assert_eq!(t.releasable(), Lsn(0));
        assert_eq!(t.pinned(), vec![TxnId::new(1)]);

        t.note(Lsn(3), &end(1));
        assert_eq!(t.releasable(), Lsn(4));
    }

    #[test]
    fn interleaved_transactions_release_oldest_first() {
        let mut t = GcTracker::new();
        t.note(Lsn(0), &dec(1));
        t.note(Lsn(1), &dec(2));
        t.note(Lsn(2), &end(1));
        // txn 2 still open at lsn 1.
        assert_eq!(t.releasable(), Lsn(1));
        t.note(Lsn(3), &end(2));
        assert_eq!(t.releasable(), Lsn(4));
    }

    #[test]
    fn from_records_equals_incremental() {
        use crate::record::LogRecord;
        let payloads = [dec(1), dec(2), end(1)];
        let records: Vec<LogRecord> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| LogRecord {
                lsn: Lsn(i as u64),
                forced: true,
                payload: p.clone(),
            })
            .collect();
        let a = GcTracker::from_records(&records);
        let mut b = GcTracker::new();
        for r in &records {
            b.note(r.lsn, &r.payload);
        }
        assert_eq!(a.releasable(), b.releasable());
        assert_eq!(a.pinned(), b.pinned());
    }

    #[test]
    fn end_without_prior_record_is_harmless() {
        // PrA coordinators write nothing for aborts; a later end record
        // (e.g. PrN-style cleanup) must not wedge the tracker.
        let mut t = GcTracker::new();
        t.note(Lsn(0), &end(9));
        assert_eq!(t.releasable(), Lsn(1));
    }
}
