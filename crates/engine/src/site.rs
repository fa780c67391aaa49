//! The site engine: store + locks + transactions + WAL + recovery.

use crate::error::EngineError;
use crate::lock::{LockMode, LockTable};
use crate::store::KvStore;
use crate::txn::{TxnContext, TxnPhase};
use acp_types::{LogPayload, Outcome, TxnId};
use acp_wal::scan::UpdateImage;
use acp_wal::{Lsn, StableLog};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// What recovery (driven by the commit-protocol layer) knows about a
/// transaction's fate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveredOutcome {
    /// Decision on record: enforce it.
    Decided(Outcome),
    /// Prepared but undecided: re-stage the write set, re-acquire locks,
    /// block until the protocol layer resolves it.
    InDoubt,
}

/// A transactional key-value engine for one site.
#[derive(Clone, Debug)]
pub struct SiteEngine<L: StableLog> {
    store: KvStore,
    locks: LockTable,
    /// The live (active or prepared) transactions. Nothing iterates it
    /// in an order that shows, and a hash map keeps its capacity as
    /// transactions come and go.
    txns: HashMap<TxnId, TxnContext>,
    /// Contexts of ended transactions, emptied with their capacity kept,
    /// for [`SiteEngine::begin`] to reuse. It never holds more than the
    /// peak number of live transactions, which the host's admission
    /// bounds.
    spare: Vec<TxnContext>,
    log: L,
}

impl<L: StableLog> SiteEngine<L> {
    /// A fresh engine over the given data log.
    pub fn new(log: L) -> Self {
        SiteEngine {
            store: KvStore::new(),
            locks: LockTable::new(),
            txns: HashMap::new(),
            spare: Vec::new(),
            log,
        }
    }

    /// Begin a local subtransaction, in an ended one's context if one is
    /// spare.
    pub fn begin(&mut self, txn: TxnId) {
        if let Entry::Vacant(slot) = self.txns.entry(txn) {
            let mut ctx = self.spare.pop().unwrap_or_else(|| TxnContext::new(txn));
            ctx.id = txn;
            slot.insert(ctx);
        }
    }

    /// Keep an ended transaction's context, emptied, for a later `begin`.
    fn retire(&mut self, mut ctx: TxnContext) {
        ctx.clear();
        self.spare.push(ctx);
    }

    /// Transactional read: shared lock, own writes visible.
    pub fn get(&mut self, txn: TxnId, key: &[u8]) -> Result<Option<Vec<u8>>, EngineError> {
        let ctx = self.txns.get(&txn).ok_or(EngineError::UnknownTxn(txn))?;
        if ctx.phase != TxnPhase::Active {
            return Err(EngineError::WrongPhase { txn, op: "get" });
        }
        self.locks.acquire(txn, key, LockMode::Shared)?;
        let ctx = self.txns.get_mut(&txn).expect("checked above");
        ctx.note_read(key);
        let value = match ctx.own_view(key) {
            Some(w) => w.after.as_deref(),
            None => self.store.get(key),
        };
        Ok(value.map(<[u8]>::to_vec))
    }

    /// Transactional write (upsert). The engine takes ownership of key
    /// and value: the write set holds these buffers, prepare lends them
    /// to the log records it appends, and a commit hands them to the
    /// store, so a `Vec` passed in is never copied. A borrowed slice is
    /// copied once, here.
    pub fn put(
        &mut self,
        txn: TxnId,
        key: impl Into<Vec<u8>>,
        value: impl Into<Vec<u8>>,
    ) -> Result<(), EngineError> {
        self.write(txn, key.into(), Some(value.into()))
    }

    /// Transactional delete.
    pub fn delete(&mut self, txn: TxnId, key: impl Into<Vec<u8>>) -> Result<(), EngineError> {
        self.write(txn, key.into(), None)
    }

    fn write(&mut self, txn: TxnId, key: Vec<u8>, after: Option<Vec<u8>>) -> Result<(), EngineError> {
        let ctx = self.txns.get(&txn).ok_or(EngineError::UnknownTxn(txn))?;
        if ctx.phase != TxnPhase::Active {
            return Err(EngineError::WrongPhase { txn, op: "write" });
        }
        self.locks.acquire(txn, &key, LockMode::Exclusive)?;
        let before = self.store.get(&key).map(<[u8]>::to_vec);
        let ctx = self.txns.get_mut(&txn).expect("checked above");
        ctx.buffer_write(key, before, after);
        Ok(())
    }

    /// Is the transaction read-only so far (eligible for the read-only
    /// vote)?
    pub fn is_read_only(&self, txn: TxnId) -> Result<bool, EngineError> {
        Ok(self
            .txns
            .get(&txn)
            .ok_or(EngineError::UnknownTxn(txn))?
            .is_read_only())
    }

    /// Prepare: append the write set to the data log with before/after
    /// images and force it. After this returns, the site may vote "Yes";
    /// the transaction can no longer be unilaterally aborted by the
    /// engine.
    pub fn prepare(&mut self, txn: TxnId) -> Result<(), EngineError> {
        self.stage_prepare(txn)?;
        self.log.flush()?; // one force for the whole write set
        self.txns.get_mut(&txn).expect("checked").phase = TxnPhase::Prepared;
        Ok(())
    }

    /// Like [`SiteEngine::prepare`], but leaves the write-set records
    /// in the log's volatile buffer instead of forcing them — for hosts
    /// that batch data-log durability across transactions (the reactor
    /// flushes once per tick). The caller must call
    /// [`SiteEngine::flush_log`] before externalizing a Yes vote whose
    /// write set was staged this way, or the force rule is violated.
    pub fn prepare_lazy(&mut self, txn: TxnId) -> Result<(), EngineError> {
        self.stage_prepare(txn)?;
        self.txns.get_mut(&txn).expect("checked").phase = TxnPhase::Prepared;
        Ok(())
    }

    fn stage_prepare(&mut self, txn: TxnId) -> Result<(), EngineError> {
        let ctx = self.txns.get_mut(&txn).ok_or(EngineError::UnknownTxn(txn))?;
        if ctx.phase != TxnPhase::Active {
            return Err(EngineError::WrongPhase { txn, op: "prepare" });
        }
        if !ctx.writes.is_empty() {
            ctx.first_lsn.get_or_insert_with(|| self.log.next_lsn());
        }
        // Each write lends its buffers to its update record for the
        // append and takes them back, whatever the append returns.
        for w in &mut ctx.writes {
            let update = LogPayload::Update {
                txn,
                key: std::mem::take(&mut w.key),
                before: w.before.take(),
                after: w.after.take(),
            };
            let appended = self.log.append_ref(&update, false);
            let LogPayload::Update {
                key, before, after, ..
            } = update
            else {
                unreachable!("built above")
            };
            (w.key, w.before, w.after) = (key, before, after);
            appended?;
        }
        Ok(())
    }

    /// Flush the data log's volatile buffer (no-op when it is empty).
    /// Pairs with [`SiteEngine::prepare_lazy`].
    pub fn flush_log(&mut self) -> Result<(), EngineError> {
        self.log.flush()?;
        Ok(())
    }

    /// Enforce the final outcome: apply (commit) or discard (abort) the
    /// write set, log the redo marker, release locks.
    ///
    /// Idempotent for unknown transactions (already resolved and
    /// forgotten — footnote 5's engine-side counterpart).
    pub fn resolve(&mut self, txn: TxnId, outcome: Outcome) -> Result<(), EngineError> {
        let Some(mut ctx) = self.txns.remove(&txn) else {
            return Ok(());
        };
        // Redo marker: which prepared write sets won (or lost).
        // Non-forced — if it is lost, the transaction is back in doubt
        // and the protocol layer re-resolves it after recovery.
        if ctx.phase == TxnPhase::Prepared && !ctx.writes.is_empty() {
            self.log
                .append(LogPayload::PartDecision { txn, outcome }, false)?;
        }
        self.release_locks(txn, &ctx);
        if outcome == Outcome::Commit {
            // The context is done with its write set: the store takes
            // the buffers over.
            for w in ctx.writes.drain(..) {
                self.store.install(w.key, w.after);
            }
        }
        self.retire(ctx);
        Ok(())
    }

    /// Release every lock `txn` holds: each is on a key it wrote or read.
    fn release_locks(&mut self, txn: TxnId, ctx: &TxnContext) {
        for key in ctx.writes.iter().map(|w| &w.key).chain(&ctx.reads) {
            self.locks.release(txn, key);
        }
    }

    /// Unilateral abort of an *active* (not prepared) transaction.
    pub fn abort_active(&mut self, txn: TxnId) -> Result<(), EngineError> {
        match self.txns.get(&txn) {
            None => Ok(()),
            Some(ctx) if ctx.phase == TxnPhase::Prepared => Err(EngineError::WrongPhase {
                txn,
                op: "unilateral abort",
            }),
            Some(_) => {
                let ctx = self.txns.remove(&txn).expect("just seen");
                self.release_locks(txn, &ctx);
                self.retire(ctx);
                Ok(())
            }
        }
    }

    /// Write a checkpoint — a forced snapshot of the committed store —
    /// and truncate the data log up to it (bounded by the oldest live
    /// transaction's first update record, whose redo information must
    /// survive until that transaction resolves). Returns the number of
    /// log records reclaimed.
    ///
    /// This is the storage-engine counterpart of the protocol-side end
    /// records: together they keep *both* logs of a site bounded, as
    /// Definition 1's requirement 3 demands.
    pub fn checkpoint(&mut self) -> Result<usize, EngineError> {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = self
            .store
            .iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        let checkpoint_lsn = self.log.next_lsn();
        self.log.append(LogPayload::Checkpoint { entries }, true)?;
        let barrier = self
            .txns
            .values()
            .filter_map(|ctx| ctx.first_lsn)
            .min()
            .unwrap_or(checkpoint_lsn)
            .min(checkpoint_lsn);
        let before = self.log.stats().truncated;
        if barrier > self.log.low_water_mark() {
            self.log.truncate_prefix(barrier)?;
        }
        Ok((self.log.stats().truncated - before) as usize)
    }

    /// Committed value, outside any transaction (for assertions).
    #[must_use]
    pub fn committed_get(&self, key: &[u8]) -> Option<&[u8]> {
        self.store.get(key)
    }

    /// The committed store (for whole-state assertions).
    #[must_use]
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// Borrow the data log.
    #[must_use]
    pub fn log(&self) -> &L {
        &self.log
    }

    /// Is the transaction currently prepared (holding locks, in doubt)?
    #[must_use]
    pub fn is_prepared(&self, txn: TxnId) -> bool {
        self.txns
            .get(&txn)
            .is_some_and(|c| c.phase == TxnPhase::Prepared)
    }

    /// Number of keys currently locked (a measure of blocking).
    #[must_use]
    pub fn locked_keys(&self) -> usize {
        self.locks.locked_keys()
    }

    /// Crash: volatile state (store cache, lock table, active
    /// transactions, spare contexts) is lost; only the forced log
    /// survives.
    pub fn crash(&mut self) {
        self.store = KvStore::new();
        self.locks = LockTable::new();
        self.txns = HashMap::new();
        self.spare = Vec::new();
        self.log.lose_unflushed().expect("log crash");
    }

    /// Redo recovery. `outcomes` gives, per transaction, what the commit
    /// protocol layer knows from *its* log (decided or in doubt);
    /// transactions absent from the map with updates but no redo marker
    /// are treated as aborted (they never got a decision, and the
    /// protocol log has no prepared record — they were never voted on,
    /// or their fate is abort by presumption).
    ///
    /// Rebuilds the store by applying committed transactions' write sets
    /// in commit-marker order (for marker-less commits given via
    /// `outcomes`, after all marked ones), then re-stages in-doubt
    /// transactions and re-acquires their exclusive locks.
    pub fn recover(
        &mut self,
        outcomes: &BTreeMap<TxnId, RecoveredOutcome>,
    ) -> Result<(), EngineError> {
        // One pass over the log, read back whole: the latest checkpoint,
        // per-txn updates (in log order, with positions) and marker
        // positions. Markers before that checkpoint are already
        // reflected in its snapshot and must not be redone (their
        // updates may predate the snapshot's values); they stay in the
        // list so phase 2 knows the transaction is resolved.
        let mut checkpoint = None;
        let mut updates: BTreeMap<TxnId, Vec<UpdateImage>> = BTreeMap::new();
        let mut first_positions: BTreeMap<TxnId, Lsn> = BTreeMap::new();
        let mut markers: Vec<(Lsn, TxnId, Outcome)> = Vec::new();
        for rec in self.log.records()? {
            match rec.payload {
                LogPayload::Checkpoint { entries } => checkpoint = Some((rec.lsn, entries)),
                LogPayload::Update {
                    txn,
                    key,
                    before,
                    after,
                } => {
                    first_positions.entry(txn).or_insert(rec.lsn);
                    updates.entry(txn).or_default().push((key, before, after));
                }
                LogPayload::PartDecision { txn, outcome } => markers.push((rec.lsn, txn, outcome)),
                _ => {}
            }
        }
        // Start from the latest checkpoint, if any.
        let checkpoint_lsn = checkpoint.as_ref().map(|&(lsn, _)| lsn);
        for (key, value) in checkpoint.map(|(_, entries)| entries).unwrap_or_default() {
            self.store.install(key, Some(value));
        }

        // Phase 1: redo committed transactions in commit order. Commits
        // whose marker precedes the checkpoint are already in the
        // snapshot; redoing them anyway is harmless (their write sets
        // cannot conflict with later-committed values under 2PL, and the
        // snapshot already includes any later value — so skip them to
        // keep replay minimal and provably ordered).
        let mut resolved: BTreeMap<TxnId, Outcome> = BTreeMap::new();
        for &(_, txn, outcome) in &markers {
            resolved.insert(txn, outcome);
        }
        // The store takes the decoded images over: each write set is
        // redone once, at its transaction's first commit marker.
        for &(lsn, txn, outcome) in &markers {
            if checkpoint_lsn.is_some_and(|c| lsn < c) {
                continue; // reflected in the snapshot
            }
            if outcome == Outcome::Commit {
                for (key, _, after) in updates.remove(&txn).unwrap_or_default() {
                    self.store.install(key, after);
                }
            }
        }
        // Marker-less transactions whose fate the protocol layer knows.
        for (&txn, &ro) in outcomes {
            if resolved.contains_key(&txn) {
                continue;
            }
            if let RecoveredOutcome::Decided(outcome) = ro {
                resolved.insert(txn, outcome);
                let Some(ws) = updates.remove(&txn) else {
                    continue;
                };
                if outcome == Outcome::Commit {
                    for (key, _, after) in ws {
                        self.store.install(key, after);
                    }
                }
                // Re-write the redo marker lost in the crash.
                self.log
                    .append(LogPayload::PartDecision { txn, outcome }, false)?;
            }
        }

        // Phase 2: re-stage in-doubt transactions and re-lock their keys.
        for (&txn, &ro) in outcomes {
            if ro == RecoveredOutcome::InDoubt && !resolved.contains_key(&txn) {
                let mut ctx = TxnContext::new(txn);
                ctx.phase = TxnPhase::Prepared;
                if let Some(ws) = updates.remove(&txn) {
                    for (key, before, after) in ws {
                        self.locks
                            .acquire(txn, &key, LockMode::Exclusive)
                            .expect("recovery lock acquisition cannot conflict");
                        ctx.buffer_write(key, before, after);
                    }
                    ctx.first_lsn = first_positions.get(&txn).copied();
                }
                self.txns.insert(txn, ctx);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_wal::MemLog;

    fn engine() -> SiteEngine<MemLog> {
        SiteEngine::new(MemLog::new())
    }

    fn t(n: u64) -> TxnId {
        TxnId::new(n)
    }

    #[test]
    fn read_your_own_writes_before_commit() {
        let mut e = engine();
        e.begin(t(1));
        e.put(t(1), b"k", b"v").unwrap();
        assert_eq!(e.get(t(1), b"k").unwrap().as_deref(), Some(b"v".as_slice()));
        assert_eq!(e.committed_get(b"k"), None, "no-steal: store untouched");
    }

    #[test]
    fn commit_applies_abort_discards() {
        let mut e = engine();
        e.begin(t(1));
        e.put(t(1), b"k", b"v").unwrap();
        e.prepare(t(1)).unwrap();
        e.resolve(t(1), Outcome::Commit).unwrap();
        assert_eq!(e.committed_get(b"k"), Some(b"v".as_slice()));

        e.begin(t(2));
        e.put(t(2), b"k", b"evil").unwrap();
        e.prepare(t(2)).unwrap();
        e.resolve(t(2), Outcome::Abort).unwrap();
        assert_eq!(e.committed_get(b"k"), Some(b"v".as_slice()));
    }

    #[test]
    fn writes_blocked_by_prepared_transaction() {
        let mut e = engine();
        e.begin(t(1));
        e.put(t(1), b"k", b"v").unwrap();
        e.prepare(t(1)).unwrap();
        // Another transaction cannot touch the key while T1 is in doubt —
        // the blocking behaviour that motivates all the GC/presumption
        // machinery.
        e.begin(t(2));
        assert!(matches!(
            e.get(t(2), b"k"),
            Err(EngineError::LockConflict { .. })
        ));
        e.resolve(t(1), Outcome::Commit).unwrap();
        assert_eq!(e.get(t(2), b"k").unwrap().as_deref(), Some(b"v".as_slice()));
    }

    #[test]
    fn prepared_transactions_cannot_write_or_unilaterally_abort() {
        let mut e = engine();
        e.begin(t(1));
        e.put(t(1), b"k", b"v").unwrap();
        e.prepare(t(1)).unwrap();
        assert!(matches!(
            e.put(t(1), b"j", b"x"),
            Err(EngineError::WrongPhase { .. })
        ));
        assert!(matches!(
            e.abort_active(t(1)),
            Err(EngineError::WrongPhase { .. })
        ));
    }

    #[test]
    fn active_transactions_abort_unilaterally() {
        let mut e = engine();
        e.begin(t(1));
        e.put(t(1), b"k", b"v").unwrap();
        e.abort_active(t(1)).unwrap();
        assert_eq!(e.locked_keys(), 0);
        assert_eq!(e.committed_get(b"k"), None);
    }

    #[test]
    fn read_only_detection_drives_the_read_only_vote() {
        let mut e = engine();
        e.begin(t(1));
        assert!(e.is_read_only(t(1)).unwrap());
        e.get(t(1), b"k").unwrap();
        assert!(e.is_read_only(t(1)).unwrap());
        e.put(t(1), b"k", b"v").unwrap();
        assert!(!e.is_read_only(t(1)).unwrap());
    }

    #[test]
    fn crash_loses_everything_recovery_redoes_committed() {
        let mut e = engine();
        e.begin(t(1));
        e.put(t(1), b"a", b"1").unwrap();
        e.prepare(t(1)).unwrap();
        e.resolve(t(1), Outcome::Commit).unwrap();
        // Make the redo marker durable by forcing via another prepare.
        e.begin(t(2));
        e.put(t(2), b"b", b"2").unwrap();
        e.prepare(t(2)).unwrap();

        e.crash();
        assert_eq!(e.committed_get(b"a"), None, "volatile store lost");

        let mut outcomes = BTreeMap::new();
        outcomes.insert(t(2), RecoveredOutcome::InDoubt);
        e.recover(&outcomes).unwrap();
        assert_eq!(
            e.committed_get(b"a"),
            Some(b"1".as_slice()),
            "committed data redone"
        );
        assert!(e.is_prepared(t(2)), "prepared txn re-staged in doubt");
        // Its keys are locked again.
        e.begin(t(3));
        assert!(e.get(t(3), b"b").is_err());

        // The protocol layer later resolves T2.
        e.resolve(t(2), Outcome::Commit).unwrap();
        assert_eq!(e.committed_get(b"b"), Some(b"2".as_slice()));
    }

    #[test]
    fn recovery_with_protocol_outcome_for_markerless_commit() {
        let mut e = engine();
        e.begin(t(1));
        e.put(t(1), b"a", b"1").unwrap();
        e.prepare(t(1)).unwrap();
        e.resolve(t(1), Outcome::Commit).unwrap();
        // Crash immediately: the (lazy) redo marker is lost.
        e.crash();
        let mut outcomes = BTreeMap::new();
        outcomes.insert(t(1), RecoveredOutcome::Decided(Outcome::Commit));
        e.recover(&outcomes).unwrap();
        assert_eq!(e.committed_get(b"a"), Some(b"1".as_slice()));
    }

    #[test]
    fn recovery_treats_unknown_prepared_writes_as_aborted() {
        let mut e = engine();
        e.begin(t(1));
        e.put(t(1), b"a", b"1").unwrap();
        e.prepare(t(1)).unwrap();
        e.crash();
        // Protocol layer says nothing about T1 (e.g. abort by
        // presumption already enforced and forgotten): not in doubt.
        e.recover(&BTreeMap::new()).unwrap();
        assert_eq!(e.committed_get(b"a"), None);
        assert!(!e.is_prepared(t(1)));
        assert_eq!(e.locked_keys(), 0);
    }

    #[test]
    fn commit_order_wins_over_prepare_order() {
        // T1 prepares first but T2 commits first on a disjoint key set;
        // then T1 commits. Same-key conflicts are impossible under 2PL,
        // but the marker ordering must still replay deterministically.
        let mut e = engine();
        e.begin(t(1));
        e.put(t(1), b"a", b"t1").unwrap();
        e.prepare(t(1)).unwrap();
        e.begin(t(2));
        e.put(t(2), b"b", b"t2").unwrap();
        e.prepare(t(2)).unwrap();
        e.resolve(t(2), Outcome::Commit).unwrap();
        e.resolve(t(1), Outcome::Commit).unwrap();
        // Force markers durable.
        e.begin(t(3));
        e.put(t(3), b"c", b"x").unwrap();
        e.prepare(t(3)).unwrap();
        e.crash();
        e.recover(&BTreeMap::new()).unwrap();
        assert_eq!(e.committed_get(b"a"), Some(b"t1".as_slice()));
        assert_eq!(e.committed_get(b"b"), Some(b"t2".as_slice()));
        assert_eq!(e.committed_get(b"c"), None);
    }

    #[test]
    fn resolve_is_idempotent_for_forgotten_transactions() {
        let mut e = engine();
        e.resolve(t(9), Outcome::Commit).unwrap();
        e.resolve(t(9), Outcome::Abort).unwrap();
    }

    /// A reused context starts empty: T2 begins in the context of T1,
    /// which read `a` and aborted, and T2's commit releases only its own
    /// `b`, not `a`, which T3 holds by then.
    #[test]
    fn a_reused_context_carries_nothing_of_its_last_transaction() {
        let mut e = engine();
        e.begin(t(1));
        e.get(t(1), b"a").unwrap();
        e.abort_active(t(1)).unwrap();
        assert_eq!(e.spare.len(), 1);

        e.begin(t(2));
        assert!(e.spare.is_empty(), "T2 reuses T1's context");
        let ctx = &e.txns[&t(2)];
        assert_eq!(ctx.id, t(2));
        assert_eq!(ctx.phase, TxnPhase::Active);
        assert!(ctx.writes.is_empty() && ctx.reads.is_empty());
        assert_eq!(ctx.first_lsn, None);
        e.put(t(2), b"b", b"2").unwrap();
        e.begin(t(3));
        e.put(t(3), b"a", b"3").unwrap();
        e.prepare(t(2)).unwrap();
        e.resolve(t(2), Outcome::Commit).unwrap();

        e.begin(t(4));
        assert!(matches!(
            e.get(t(4), b"a"),
            Err(EngineError::LockConflict { holder, .. }) if holder == t(3)
        ));
        assert_eq!(e.get(t(4), b"b").unwrap().as_deref(), Some(b"2".as_slice()));
        assert_eq!(e.locked_keys(), 2);
    }

    /// A reused context takes no log position along: a checkpoint after
    /// the prepared T1 ended truncates past T1's records, though T2, in
    /// T1's context, is live.
    #[test]
    fn a_reused_context_pins_no_log_position() {
        let mut e = engine();
        e.begin(t(1));
        e.put(t(1), b"a", b"1").unwrap();
        e.prepare(t(1)).unwrap();
        e.resolve(t(1), Outcome::Commit).unwrap();
        e.begin(t(2));
        e.get(t(2), b"a").unwrap();
        assert_eq!(e.txns[&t(2)].first_lsn, None);

        let checkpoint = e.log().next_lsn();
        e.checkpoint().unwrap();
        assert_eq!(e.log().low_water_mark(), checkpoint);
    }

    /// The spare contexts are volatile state: a crash drops them with the
    /// lock table's spare keys, and recovery starts from none.
    #[test]
    fn a_crash_drops_the_spare_contexts_and_keys() {
        let mut e = engine();
        for n in 1..=3 {
            e.begin(t(n));
            e.put(t(n), format!("k{n}"), b"v").unwrap();
        }
        for n in 1..=3 {
            e.prepare(t(n)).unwrap();
            e.resolve(t(n), Outcome::Commit).unwrap();
        }
        assert_eq!(e.spare.len(), 3);
        assert_eq!(e.locks.spare_keys().len(), 3);

        e.flush_log().unwrap();
        e.crash();
        assert!(e.spare.is_empty());
        assert_eq!(e.locks.spare_keys().len(), 0);
        e.recover(&BTreeMap::new()).unwrap();
        assert!(e.spare.is_empty());
        assert_eq!(e.committed_get(b"k3"), Some(b"v".as_slice()));
    }
}

#[cfg(test)]
mod lending_tests {
    use super::*;
    use acp_wal::{Fault, FaultyLog};

    fn t(n: u64) -> TxnId {
        TxnId::new(n)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A data log's bytes after a commit of `a`, then a prepare that
    /// writes `b` and rewrites `a` (a before image), as the engine
    /// wrote them when prepare still copied each write into its record.
    const PREPARED_IMAGE: &str = concat!(
        "484c4157010000000000000000000000", // header
        "524c4157150000000000000000000000000701000000000000000100000061000101000000311ccbcafe", // update(T1, a: none -> 1)
        "524c41570a00000001000000000000000005010000000000000000d4eb3fb9", // part-commit(T1)
        "524c41571a000000020000000000000000070200000000000000010000006101010000003101010000003397017572", // update(T2, a: 1 -> 3)
        "524c41571500000003000000000000000007020000000000000001000000620001010000003297f54402", // update(T2, b: none -> 2)
        "524c41570a00000004000000000000000005020000000000000000ab5a38be", // part-commit(T2)
    );

    #[test]
    fn a_refused_prepare_gives_the_write_set_back() {
        let mut e = SiteEngine::new(FaultyLog::new());
        e.log.inject(Fault::WriteError { after_bytes: 0 });
        e.begin(t(1));
        e.put(t(1), b"b".to_vec(), b"2".to_vec()).unwrap();
        e.put(t(1), b"a".to_vec(), b"1".to_vec()).unwrap();
        assert!(e.prepare(t(1)).is_err(), "the force was refused");
        assert_eq!(e.log.faults_applied(), 1);
        assert_eq!(e.get(t(1), b"a").unwrap().as_deref(), Some(b"1".as_slice()));
        assert_eq!(e.get(t(1), b"b").unwrap().as_deref(), Some(b"2".as_slice()));
        e.abort_active(t(1)).unwrap();
        assert_eq!(e.locked_keys(), 0);
    }

    #[test]
    fn a_prepare_writes_each_image_once_and_as_before() {
        let mut e = SiteEngine::new(FaultyLog::new());
        e.begin(t(1));
        e.put(t(1), b"a", b"1").unwrap();
        e.prepare(t(1)).unwrap();
        e.resolve(t(1), Outcome::Commit).unwrap();
        e.begin(t(2));
        e.put(t(2), b"b", b"2").unwrap();
        e.put(t(2), b"a", b"3").unwrap();
        e.prepare(t(2)).unwrap();
        e.resolve(t(2), Outcome::Commit).unwrap();
        e.flush_log().unwrap();
        assert_eq!(hex(e.log().image()), PREPARED_IMAGE);
        assert_eq!(e.committed_get(b"a"), Some(b"3".as_slice()));
        assert_eq!(e.committed_get(b"b"), Some(b"2".as_slice()));
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use acp_wal::MemLog;
    use std::collections::BTreeMap;

    fn t(n: u64) -> TxnId {
        TxnId::new(n)
    }

    fn commit_one(e: &mut SiteEngine<MemLog>, n: u64, key: &[u8], val: &[u8]) {
        e.begin(t(n));
        e.put(t(n), key, val).unwrap();
        e.prepare(t(n)).unwrap();
        e.resolve(t(n), Outcome::Commit).unwrap();
    }

    #[test]
    fn checkpoint_truncates_resolved_history() {
        let mut e = SiteEngine::new(MemLog::new());
        for i in 0..20 {
            commit_one(&mut e, i, format!("k{i}").as_bytes(), b"v");
        }
        let before = e.log().retained();
        let reclaimed = e.checkpoint().unwrap();
        assert!(reclaimed > 0);
        assert!(
            e.log().retained() < before,
            "{} !< {before}",
            e.log().retained()
        );
    }

    #[test]
    fn recovery_from_checkpoint_alone_restores_store() {
        let mut e = SiteEngine::new(MemLog::new());
        for i in 0..10 {
            commit_one(
                &mut e,
                i,
                format!("k{i}").as_bytes(),
                format!("v{i}").as_bytes(),
            );
        }
        e.checkpoint().unwrap();
        e.crash();
        e.recover(&BTreeMap::new()).unwrap();
        for i in 0..10 {
            assert_eq!(
                e.committed_get(format!("k{i}").as_bytes()),
                Some(format!("v{i}").as_bytes()),
                "k{i}"
            );
        }
    }

    #[test]
    fn post_checkpoint_commits_redo_on_top_of_snapshot() {
        let mut e = SiteEngine::new(MemLog::new());
        commit_one(&mut e, 1, b"a", b"old");
        e.checkpoint().unwrap();
        commit_one(&mut e, 2, b"a", b"new");
        commit_one(&mut e, 3, b"b", b"fresh");
        // Force the tail durable, then crash.
        e.begin(t(9));
        e.put(t(9), b"x", b"y").unwrap();
        e.prepare(t(9)).unwrap();
        e.crash();
        e.recover(&BTreeMap::new()).unwrap();
        assert_eq!(e.committed_get(b"a"), Some(b"new".as_slice()));
        assert_eq!(e.committed_get(b"b"), Some(b"fresh".as_slice()));
        assert_eq!(
            e.committed_get(b"x"),
            None,
            "unresolved prepared txn not applied"
        );
    }

    #[test]
    fn live_transactions_block_truncation_past_their_records() {
        let mut e = SiteEngine::new(MemLog::new());
        // A prepared (in-doubt) transaction whose records must survive.
        e.begin(t(1));
        e.put(t(1), b"doubt", b"d").unwrap();
        e.prepare(t(1)).unwrap();
        // Plenty of resolved history after it.
        for i in 2..12 {
            commit_one(&mut e, i, format!("k{i}").as_bytes(), b"v");
        }
        e.checkpoint().unwrap();
        // The prepared txn's update record is still in the log.
        let summaries = acp_wal::scan::analyze(&e.log().records().unwrap());
        assert!(
            summaries.get(&t(1)).is_some_and(|s| !s.updates.is_empty()),
            "in-doubt write set must survive the checkpoint"
        );
        // And crash+recovery can still commit it.
        e.crash();
        let mut outcomes = BTreeMap::new();
        outcomes.insert(t(1), RecoveredOutcome::InDoubt);
        e.recover(&outcomes).unwrap();
        e.resolve(t(1), Outcome::Commit).unwrap();
        assert_eq!(e.committed_get(b"doubt"), Some(b"d".as_slice()));
    }

    #[test]
    fn repeated_checkpoints_keep_log_bounded() {
        let mut e = SiteEngine::new(MemLog::new());
        let mut max_retained = 0;
        for round in 0..10 {
            for i in 0..20 {
                commit_one(&mut e, round * 100 + i, format!("k{i}").as_bytes(), b"v");
            }
            e.checkpoint().unwrap();
            max_retained = max_retained.max(e.log().retained());
        }
        // Bounded: never more than one round's records + snapshot.
        assert!(max_retained < 70, "retained grew to {max_retained}");
        e.crash();
        e.recover(&BTreeMap::new()).unwrap();
        assert_eq!(e.store().len(), 20);
    }

    #[test]
    fn pre_checkpoint_markers_are_not_redone_over_snapshot() {
        // k committed as "v1", then "v2", checkpoint, crash. If recovery
        // redid the pre-checkpoint commits over the snapshot in marker
        // order it would still end at "v2" — but the skip keeps replay
        // minimal; verify the end state either way.
        let mut e = SiteEngine::new(MemLog::new());
        commit_one(&mut e, 1, b"k", b"v1");
        commit_one(&mut e, 2, b"k", b"v2");
        e.checkpoint().unwrap();
        e.crash();
        e.recover(&BTreeMap::new()).unwrap();
        assert_eq!(e.committed_get(b"k"), Some(b"v2".as_slice()));
    }
}
