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
//!
//! One collection rule serves every log: cut only what is durable, and
//! never flush to collect. An end record is written lazily, so it may
//! still be buffered when its transaction's earlier (forced) records
//! are durable. A cut through such a transaction would let a crash keep
//! its later records and lose both its end and its first records: a
//! coordinator would then recover a decision with no initiation. So a
//! transaction whose end is not yet durable keeps its first record
//! pinned ([`GcTracker::releasable_at`]), for the bounded while until
//! the next force makes the end durable.

use crate::error::WalError;
use crate::record::{LogRecord, Lsn};
use crate::StableLog;
use acp_types::{LogPayload, TxnId};
use std::collections::{BTreeMap, VecDeque};

/// Ended transactions [`GcTracker`] remembers while their end records
/// may still be buffered. Past this many, the two oldest merge into one
/// entry that pins the earlier first record until the later end is
/// durable: coarser, never unsafe.
pub const ENDING_CAP: usize = 256;

/// Tracks the first LSN of each transaction that has not ended, and
/// derives the releasable log prefix. An ended transaction leaves no
/// entry once its end record is known durable.
#[derive(Clone, Debug, Default)]
pub struct GcTracker {
    /// First LSN per open (not yet ended) transaction.
    open: BTreeMap<TxnId, Lsn>,
    /// Ended transactions whose end record may still be buffered, as
    /// (end LSN, first LSN) in end order; at most [`ENDING_CAP`].
    ending: VecDeque<(Lsn, Lsn)>,
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

    /// Observe a record whose end record, if it is one, is durable
    /// whenever a collection reads [`GcTracker::releasable`]: a record of
    /// a scanned log (all of it durable), or one written by a host that
    /// flushes before it collects.
    pub fn note(&mut self, lsn: Lsn, payload: &LogPayload) {
        self.observe(lsn, payload);
    }

    /// Observe an appended record that may still be buffered, the log
    /// durable below `durable`. An end record releases its transaction
    /// only once `durable` passes it ([`GcTracker::releasable_at`]).
    pub fn note_pending(&mut self, lsn: Lsn, payload: &LogPayload, durable: Lsn) {
        while self.ending.front().is_some_and(|&(end, _)| end < durable) {
            self.ending.pop_front();
        }
        let Some(first) = self.observe(lsn, payload) else {
            return;
        };
        if self.ending.len() == ENDING_CAP {
            let (_, oldest) = self.ending.pop_front().expect("full");
            let next = self.ending.front_mut().expect("cap > 1");
            next.1 = next.1.min(oldest);
        }
        self.ending.push_back((lsn, first));
    }

    /// Note the record; an end record returns its transaction's first
    /// LSN, if the transaction was open.
    fn observe(&mut self, lsn: Lsn, payload: &LogPayload) -> Option<Lsn> {
        self.tail = self.tail.max(lsn.next());
        let txn = payload.txn();
        match payload {
            LogPayload::End { .. } | LogPayload::PartEnd { .. } => {
                return self.open.remove(&txn);
            }
            // A checkpoint belongs to no transaction and never pins the
            // log (it is what makes the prefix before it reclaimable).
            LogPayload::Checkpoint { .. } => {}
            _ => {
                self.open.entry(txn).or_insert(lsn);
            }
        }
        None
    }

    /// The largest LSN `l` such that every record below `l` belongs to an
    /// ended transaction: the log may be truncated to `l` once every end
    /// record is durable.
    #[must_use]
    pub fn releasable(&self) -> Lsn {
        match self.open.values().min() {
            Some(&pin) => pin,
            None => self.tail,
        }
    }

    /// The largest LSN `l` at most `durable` such that every record below
    /// `l` belongs to a transaction whose end record is below `durable`:
    /// the cut a collection may make without flushing, the log durable
    /// below `durable`. A crash then keeps either all of a transaction's
    /// records above the cut or its durable end.
    #[must_use]
    pub fn releasable_at(&self, durable: Lsn) -> Lsn {
        let pending = self.ending.iter().rev();
        let pending = pending.take_while(|&&(end, _)| end >= durable);
        let pin = pending.map(|&(_, first)| first).min();
        pin.into_iter().fold(self.releasable().min(durable), Lsn::min)
    }

    /// Records of `log` below the cut [`GcTracker::collect`] would make
    /// now: the backlog a host's collection cadence measures.
    #[must_use]
    pub fn releasable_records<L: StableLog + ?Sized>(&self, log: &L) -> u64 {
        let cut = self.releasable_at(log.durable_end());
        cut.raw().saturating_sub(log.low_water_mark().raw())
    }

    /// Collect `log` by the one rule: truncate it at
    /// [`GcTracker::releasable_at`] its durable end, never flushing.
    /// Returns the number of records reclaimed. A failed GC write is
    /// returned and changes nothing: the log keeps its records and mark,
    /// and the next call releases the same prefix.
    pub fn collect<L: StableLog + ?Sized>(&self, log: &mut L) -> Result<usize, WalError> {
        let cut = self.releasable_at(log.durable_end());
        if cut <= log.low_water_mark() {
            return Ok(0);
        }
        let before = log.stats().truncated;
        log.truncate_prefix(cut)?;
        Ok((log.stats().truncated - before) as usize)
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

    /// T4 and T5 end while their end records are buffered, with T6
    /// open between their first records: the durable cut stops below T4
    /// until a force passes both ends, while `releasable` (every end
    /// durable) would already reach T6.
    #[test]
    fn a_buffered_end_pins_its_first_record() {
        let mut t = GcTracker::new();
        let durable = Lsn(7);
        for (lsn, p) in [(0, dec(1)), (1, end(1))] {
            t.note_pending(Lsn(lsn), &p, Lsn(0));
        }
        // init(T4), init(T5), init(T6), dec(T4), dec(T5): forced.
        for (lsn, p) in [(2, dec(4)), (3, dec(5)), (4, dec(6)), (5, dec(4)), (6, dec(5))] {
            t.note_pending(Lsn(lsn), &p, Lsn(lsn));
        }
        t.note_pending(Lsn(7), &end(4), durable);
        t.note_pending(Lsn(8), &end(5), durable);
        assert_eq!(t.releasable(), Lsn(4), "T6 pins once every end is durable");
        assert_eq!(t.releasable_at(durable), Lsn(2), "T4's end is buffered");
        assert_eq!(t.releasable_at(Lsn(8)), Lsn(3), "T5's end is buffered");
        assert_eq!(t.releasable_at(Lsn(9)), Lsn(4), "both ends are durable");
        assert_eq!(t.releasable_at(Lsn(1)), Lsn(1), "never past the durable end");
        assert_eq!(t.pinned(), vec![TxnId::new(6)]);
    }

    /// A durable end leaves the queue with the next record noted, and a
    /// scanned log (`note`) queues nothing.
    #[test]
    fn durable_ends_leave_the_queue() {
        let mut t = GcTracker::new();
        t.note_pending(Lsn(0), &dec(1), Lsn(0));
        t.note_pending(Lsn(1), &end(1), Lsn(1));
        assert_eq!(t.ending.len(), 1);
        t.note_pending(Lsn(2), &dec(2), Lsn(2));
        assert!(t.ending.is_empty());
        assert_eq!(t.releasable_at(Lsn(3)), Lsn(2));

        let mut scanned = GcTracker::new();
        scanned.note(Lsn(0), &dec(1));
        scanned.note(Lsn(1), &end(1));
        assert!(scanned.ending.is_empty());
        assert_eq!(scanned.releasable_at(Lsn(2)), Lsn(2));
    }

    /// The queue holds at most `ENDING_CAP` entries. Past that the two
    /// oldest merge: the merged entry pins the older first record until
    /// the younger end is durable (coarser, never a cut through a
    /// buffered end).
    #[test]
    fn the_queue_is_bounded_and_merging_stays_safe() {
        let mut t = GcTracker::new();
        let n = ENDING_CAP as u64 + 3;
        // T_i's decision at 2i (forced), its end at 2i + 1 (buffered).
        for i in 0..n {
            t.note_pending(Lsn(2 * i), &dec(i), Lsn(0));
            t.note_pending(Lsn(2 * i + 1), &end(i), Lsn(0));
            assert!(t.ending.len() <= ENDING_CAP);
        }
        assert_eq!(t.ending.len(), ENDING_CAP);
        assert_eq!(t.releasable(), Lsn(2 * n));
        // Ends below 2k + 1 durable: exactly, T_k pins. The first three
        // merges folded T_0 .. T_3 into one entry ending at 7.
        for k in 0..n {
            let durable = Lsn(2 * k + 1);
            let expect = if k <= 3 { 0 } else { 2 * k };
            assert_eq!(t.releasable_at(durable), Lsn(expect), "durable below {durable}");
        }
        assert_eq!(t.releasable_at(Lsn(2 * n)), Lsn(2 * n));
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
