//! The site engine: store + locks + transactions + store file + recovery.
//! A write set's redo lives as long as its transaction, so it rides the
//! participant's protocol log; committed values outlive every
//! transaction, so they go to the engine's own log, the *store file*.

use crate::error::EngineError;
use crate::lock::{LockMode, LockTable};
use crate::store::KvStore;
use crate::txn::{TxnContext, TxnPhase};
use acp_types::{LogPayload, Outcome, TxnId};
use acp_wal::encode::frame_len;
use acp_wal::scan::Summaries;
use acp_wal::{StableLog, WalError, RECLAIM_FLOOR};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

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
    /// The store file.
    log: L,
    /// Copies of the values installed since the store file's last
    /// record, for the next [`SiteEngine::checkpoint_installed`]. A
    /// `Checkpoint` record owns its entries, so each is a copy, made
    /// into buffers the last checkpoint left in `spare_entries`.
    installed: Vec<(Vec<u8>, Vec<u8>)>,
    spare_entries: Vec<(Vec<u8>, Vec<u8>)>,
    /// Frame bytes of the store file's records since its last
    /// whole-store checkpoint, that one included.
    file_bytes: u64,
}

impl<L: StableLog> SiteEngine<L> {
    /// A fresh engine over the given store file.
    pub fn new(log: L) -> Self {
        SiteEngine {
            store: KvStore::new(),
            locks: LockTable::new(),
            txns: HashMap::new(),
            spare: Vec::new(),
            log,
            installed: Vec::new(),
            spare_entries: Vec::new(),
            file_bytes: 0,
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
    /// to the log records it stages, and a commit hands them to the
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

    fn write(
        &mut self,
        txn: TxnId,
        key: Vec<u8>,
        after: Option<Vec<u8>>,
    ) -> Result<(), EngineError> {
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

    /// Prepare: lend each write of the write set, as an `Update` record
    /// with its before and after images, to `stage`, which appends it to
    /// the caller's log ahead of the caller's prepared record; then the
    /// transaction is prepared, and the engine can no longer abort it
    /// unilaterally. The caller makes the records durable (the prepared
    /// record's force does) before it votes Yes, so one force covers the
    /// redo and the vote.
    ///
    /// A refused append gives the buffers back and leaves the
    /// transaction active.
    pub fn prepare(
        &mut self,
        txn: TxnId,
        stage: impl FnMut(&LogPayload) -> Result<(), WalError>,
    ) -> Result<(), EngineError> {
        stage_write_set(&mut self.txns, txn, stage)
    }

    /// [`SiteEngine::prepare`] into this engine's own log, unforced.
    /// Kept for the benchmark's engine probe, which measures staging
    /// without a protocol log; recovery reads no redo from the store
    /// file.
    pub fn prepare_lazy(&mut self, txn: TxnId) -> Result<(), EngineError> {
        let log = &mut self.log;
        stage_write_set(&mut self.txns, txn, |update| {
            log.append_ref(update, false).map(drop)
        })
    }

    /// Flush this engine's own log. Kept for the benchmark's engine
    /// probe, beside [`SiteEngine::prepare_lazy`].
    pub fn flush_log(&mut self) -> Result<(), EngineError> {
        self.log.flush()?;
        Ok(())
    }

    /// Enforce the final outcome: install (commit) or discard (abort)
    /// the write set, release locks.
    ///
    /// Idempotent for unknown transactions (already resolved and
    /// forgotten — footnote 5's engine-side counterpart).
    pub fn resolve(&mut self, txn: TxnId, outcome: Outcome) -> Result<(), EngineError> {
        let Some(mut ctx) = self.txns.remove(&txn) else {
            return Ok(());
        };
        self.release_locks(txn, &ctx);
        if outcome == Outcome::Commit {
            // The context is done with its write set: the store takes
            // the buffers over.
            for w in ctx.writes.drain(..) {
                self.install(w.key, w.after);
            }
        }
        self.retire(ctx);
        Ok(())
    }

    /// Install a committed value, noting it for the store file. Only a
    /// commit decision installs, so the store file holds nothing a
    /// transaction could still abort.
    fn install(&mut self, key: Vec<u8>, value: Option<Vec<u8>>) {
        match &value {
            Some(v) => {
                let (mut k, mut copy) = self.spare_entries.pop().unwrap_or_default();
                k.clear();
                k.extend_from_slice(&key);
                copy.clear();
                copy.extend_from_slice(v);
                self.installed.push((k, copy));
            }
            // A delta entry cannot delete: count the file all dead, so
            // the next checkpoint rewrites it whole.
            None => self.file_bytes = u64::MAX,
        }
        self.store.install(key, value);
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

    /// Make the values installed since the store file's last record
    /// durable there, as one forced `Checkpoint` record (recovery reads
    /// the records in order, later entries winning). A host calls this
    /// before it collects the protocol log that holds the redo: after
    /// the collection, the store file is the committed values' only
    /// copy. Once the file's dead bytes pass max(live,
    /// [`RECLAIM_FLOOR`]), it is rewritten as one whole-store
    /// checkpoint. A refused write keeps its entries for the next call.
    pub fn checkpoint_installed(&mut self) -> Result<(), EngineError> {
        if !self.installed.is_empty() {
            let entries = std::mem::take(&mut self.installed);
            let delta = LogPayload::Checkpoint { entries };
            let written = self.log.append_ref(&delta, true).map(|_| frame_len(&delta));
            let LogPayload::Checkpoint { entries } = delta else {
                unreachable!("built above")
            };
            self.installed = entries;
            self.file_bytes = self.file_bytes.saturating_add(written? as u64);
            self.spare_entries.append(&mut self.installed);
        }
        let live = self.store_frame_len();
        if self.file_bytes.saturating_sub(live) > live.max(RECLAIM_FLOOR) {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// The frame bytes of a checkpoint of the whole store: an empty
    /// one's, and per entry two 4-byte lengths, its key and its value.
    fn store_frame_len(&self) -> u64 {
        let empty = frame_len(&LogPayload::Checkpoint { entries: vec![] });
        (empty + 8 * self.store.len() + self.store.bytes()) as u64
    }

    /// Rewrite the store file as one forced checkpoint of the whole
    /// store, releasing every record before it (the file compacts once
    /// what is released passes its reclaim floor).
    fn checkpoint(&mut self) -> Result<(), EngineError> {
        let entries = self.store.iter();
        let entries = entries.map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        let whole = LogPayload::Checkpoint { entries };
        let len = frame_len(&whole) as u64;
        let at = self.log.append(whole, true)?;
        if at > self.log.low_water_mark() {
            self.log.truncate_prefix(at)?;
        }
        self.file_bytes = len;
        self.spare_entries.append(&mut self.installed);
        Ok(())
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

    /// Borrow the store file.
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
    /// transactions, spare contexts and entries) is lost; only what the
    /// logs made durable survives.
    pub fn crash(&mut self) {
        self.store = KvStore::new();
        self.locks = LockTable::new();
        self.txns = HashMap::new();
        self.spare = Vec::new();
        self.installed = Vec::new();
        self.spare_entries = Vec::new();
        self.file_bytes = 0;
        self.log.lose_unflushed().expect("log crash");
    }

    /// Redo recovery: load the store file's checkpoints in order, redo
    /// the committed write sets the participant's log still holds in the
    /// order of their decision records, and re-stage the ones
    /// [`TxnLogSummary::in_doubt`](acp_wal::scan::TxnLogSummary::in_doubt)
    /// names under their exclusive locks. `protocol` is that log's
    /// analysis, the one read of it a restart makes
    /// (`Participant::recover_into` returns it); its images are moved,
    /// not copied, and a write set without its prepared record never
    /// voted Yes, so it is neither redone nor re-staged.
    ///
    /// A value reaches the store file only after its transaction's
    /// commit decision ([`SiteEngine::resolve`]). So a transaction in
    /// doubt in `protocol` (a crash lost its lazy decision record) may
    /// already have its values in the store file: its locks keep them
    /// from readers, and the commit its inquiry learns installs them
    /// again. Installing an after-image is idempotent.
    pub fn recover(&mut self, protocol: Summaries) -> Result<(), EngineError> {
        for rec in self.log.records()? {
            self.file_bytes += frame_len(&rec.payload) as u64;
            if let LogPayload::Checkpoint { entries } = rec.payload {
                for (key, value) in entries {
                    self.store.install(key, Some(value));
                }
            }
        }
        let mut committed = Vec::new();
        for (txn, s) in protocol {
            if s.in_doubt() {
                let mut ctx = TxnContext::new(txn);
                ctx.phase = TxnPhase::Prepared;
                for (key, before, after) in s.updates {
                    self.locks
                        .acquire(txn, &key, LockMode::Exclusive)
                        .expect("recovery lock acquisition cannot conflict");
                    ctx.buffer_write(key, before, after);
                }
                self.txns.insert(txn, ctx);
            } else if let Some((Outcome::Commit, at)) = s.part_decision {
                committed.push((at, s.updates));
            }
        }
        committed.sort_unstable_by_key(|&(at, _)| at);
        for (key, _, after) in committed.into_iter().flat_map(|(_, images)| images) {
            self.install(key, after);
        }
        Ok(())
    }
}

/// The one staging path: lend each write of `txn`'s write set to
/// `stage` as an `Update` record, taking the buffers back whatever the
/// append returns, and mark the transaction prepared once all are in.
fn stage_write_set(
    txns: &mut HashMap<TxnId, TxnContext>,
    txn: TxnId,
    mut stage: impl FnMut(&LogPayload) -> Result<(), WalError>,
) -> Result<(), EngineError> {
    let ctx = txns.get_mut(&txn).ok_or(EngineError::UnknownTxn(txn))?;
    if ctx.phase != TxnPhase::Active {
        return Err(EngineError::WrongPhase { txn, op: "prepare" });
    }
    for w in &mut ctx.writes {
        let update = LogPayload::Update {
            txn,
            key: std::mem::take(&mut w.key),
            before: w.before.take(),
            after: w.after.take(),
        };
        let staged = stage(&update);
        let LogPayload::Update {
            key, before, after, ..
        } = update
        else {
            unreachable!("built above")
        };
        (w.key, w.before, w.after) = (key, before, after);
        staged?;
    }
    ctx.phase = TxnPhase::Prepared;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_types::SiteId;
    use acp_wal::MemLog;

    /// A storage engine and the protocol log a participant keeps beside
    /// it, written as a participant writes it: redo, then the forced
    /// prepared record; a decision record, then resolve.
    struct Site {
        e: SiteEngine<MemLog>,
        redo: MemLog,
    }

    impl Site {
        fn new() -> Self {
            Site {
                e: SiteEngine::new(MemLog::new()),
                redo: MemLog::new(),
            }
        }

        fn prepare(&mut self, txn: TxnId) {
            let redo = &mut self.redo;
            self.e
                .prepare(txn, |u| redo.append_ref(u, false).map(drop))
                .unwrap();
            let coordinator = SiteId::new(0);
            let prepared = LogPayload::Prepared { txn, coordinator };
            self.redo.append(prepared, true).unwrap();
        }

        /// Decide and enforce; `force` makes the decision record durable.
        fn decide(&mut self, txn: TxnId, outcome: Outcome, force: bool) {
            let decision = LogPayload::PartDecision { txn, outcome };
            self.redo.append(decision, force).unwrap();
            self.e.resolve(txn, outcome).unwrap();
        }

        fn commit(&mut self, txn: TxnId, key: &[u8], value: &[u8]) {
            self.e.begin(txn);
            self.e.put(txn, key, value).unwrap();
            self.prepare(txn);
            self.decide(txn, Outcome::Commit, true);
        }

        fn crash_and_recover(&mut self) {
            self.e.crash();
            self.redo.lose_unflushed().unwrap();
            assert!(self.e.store().is_empty(), "volatile store lost");
            let (protocol, _) = acp_wal::scan::analyze_log(&self.redo).unwrap();
            self.e.recover(protocol).unwrap();
        }
    }

    fn engine() -> SiteEngine<MemLog> {
        SiteEngine::new(MemLog::new())
    }

    /// Prepare with no log to keep the redo in.
    fn prepare(e: &mut SiteEngine<MemLog>, txn: TxnId) {
        e.prepare(txn, |_| Ok(())).unwrap();
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
        prepare(&mut e, t(1));
        e.resolve(t(1), Outcome::Commit).unwrap();
        assert_eq!(e.committed_get(b"k"), Some(b"v".as_slice()));

        e.begin(t(2));
        e.put(t(2), b"k", b"evil").unwrap();
        prepare(&mut e, t(2));
        e.resolve(t(2), Outcome::Abort).unwrap();
        assert_eq!(e.committed_get(b"k"), Some(b"v".as_slice()));
    }

    #[test]
    fn writes_blocked_by_prepared_transaction() {
        let mut e = engine();
        e.begin(t(1));
        e.put(t(1), b"k", b"v").unwrap();
        prepare(&mut e, t(1));
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
        prepare(&mut e, t(1));
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

    /// The redo rides the protocol log, ahead of the prepared record,
    /// and nothing reaches the store file on the commit path.
    #[test]
    fn prepare_lends_the_redo_to_the_callers_log_and_commit_writes_no_store_record() {
        let mut s = Site::new();
        s.commit(t(1), b"a", b"1");
        let records = s.redo.all_records();
        let kinds: Vec<_> = records.iter().map(|r| r.payload.kind_name()).collect();
        assert_eq!(kinds, ["update", "prepared", "part-commit"]);
        assert!(s.e.log().all_records().is_empty(), "no store record yet");
    }

    #[test]
    fn crash_loses_everything_recovery_redoes_committed() {
        let mut s = Site::new();
        s.commit(t(1), b"a", b"1");
        s.e.begin(t(2));
        s.e.put(t(2), b"b", b"2").unwrap();
        s.prepare(t(2));

        s.crash_and_recover();
        assert_eq!(s.e.committed_get(b"a"), Some(b"1".as_slice()), "redone");
        assert!(s.e.is_prepared(t(2)), "prepared txn re-staged in doubt");
        // Its keys are locked again.
        s.e.begin(t(3));
        assert!(s.e.get(t(3), b"b").is_err());

        // The protocol layer later resolves T2.
        s.e.resolve(t(2), Outcome::Commit).unwrap();
        assert_eq!(s.e.committed_get(b"b"), Some(b"2".as_slice()));
    }

    /// The store file holds T1's value, and the crash lost T1's lazily
    /// written decision record: T1 is in doubt again, holds its lock,
    /// and its commit installs the same value once more.
    #[test]
    fn a_stored_value_whose_decision_was_lost_is_in_doubt_and_reinstalled() {
        let mut s = Site::new();
        s.e.begin(t(1));
        s.e.put(t(1), b"a", b"1").unwrap();
        s.prepare(t(1));
        s.decide(t(1), Outcome::Commit, false);
        s.e.checkpoint_installed().unwrap();

        s.crash_and_recover();
        assert_eq!(s.e.committed_get(b"a"), Some(b"1".as_slice()), "stored");
        assert!(s.e.is_prepared(t(1)), "in doubt");
        s.e.begin(t(2));
        assert!(s.e.get(t(2), b"a").is_err(), "locked from readers");
        s.e.abort_active(t(2)).unwrap();
        s.e.resolve(t(1), Outcome::Commit).unwrap();
        assert_eq!(s.e.committed_get(b"a"), Some(b"1".as_slice()));
        assert_eq!(s.e.locked_keys(), 0);
    }

    #[test]
    fn a_write_set_without_its_prepared_record_is_not_restaged() {
        let mut s = Site::new();
        s.e.begin(t(1));
        s.e.put(t(1), b"a", b"1").unwrap();
        let redo = &mut s.redo;
        s.e.prepare(t(1), |u| redo.append_ref(u, true).map(drop))
            .unwrap();
        s.crash_and_recover();
        assert_eq!(s.e.committed_get(b"a"), None);
        assert!(!s.e.is_prepared(t(1)));
        assert_eq!(s.e.locked_keys(), 0);
    }

    /// Commits of one key are redone in decision order.
    #[test]
    fn redo_follows_the_decision_records() {
        let mut s = Site::new();
        s.commit(t(1), b"k", b"t1");
        s.commit(t(2), b"k", b"t2");
        s.e.begin(t(3));
        s.e.put(t(3), b"k", b"t3").unwrap();
        s.prepare(t(3));
        s.decide(t(3), Outcome::Abort, true);
        s.crash_and_recover();
        assert_eq!(s.e.committed_get(b"k"), Some(b"t2".as_slice()));
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
        e.put(t(2), b"b", b"2").unwrap();
        e.begin(t(3));
        e.put(t(3), b"a", b"3").unwrap();
        prepare(&mut e, t(2));
        e.resolve(t(2), Outcome::Commit).unwrap();

        e.begin(t(4));
        assert!(matches!(
            e.get(t(4), b"a"),
            Err(EngineError::LockConflict { holder, .. }) if holder == t(3)
        ));
        assert_eq!(e.get(t(4), b"b").unwrap().as_deref(), Some(b"2".as_slice()));
        assert_eq!(e.locked_keys(), 2);
    }

    /// The spare contexts and entries are volatile state: a crash drops
    /// them with the lock table's spare keys, and recovery starts from
    /// none.
    #[test]
    fn a_crash_drops_the_spare_contexts_and_keys() {
        let mut s = Site::new();
        for n in 1..=3 {
            s.e.begin(t(n));
            s.e.put(t(n), format!("k{n}"), b"v").unwrap();
        }
        for n in 1..=3 {
            s.prepare(t(n));
            s.decide(t(n), Outcome::Commit, true);
        }
        s.e.checkpoint_installed().unwrap();
        assert_eq!(s.e.spare.len(), 3);
        assert_eq!(s.e.spare_entries.len(), 3);
        assert_eq!(s.e.locks.spare_keys().len(), 3);

        s.crash_and_recover();
        assert!(s.e.spare.is_empty() && s.e.spare_entries.is_empty());
        assert_eq!(s.e.locks.spare_keys().len(), 0);
        assert_eq!(s.e.committed_get(b"k3"), Some(b"v".as_slice()));
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

    /// The update records of a commit of `a`, then of a prepare that
    /// writes `b` and rewrites `a` (a before image): the bodies the
    /// engine wrote when prepare still copied each write into its
    /// record, numbered without the decision markers it then wrote
    /// between them.
    const PREPARED_IMAGE: &str = concat!(
        "484c4157010000000000000000000000", // header
        "524c4157150000000000000000000000000701000000000000000100000061000101000000311ccbcafe", // update(T1, a: none -> 1)
        "524c41571a00000001000000000000000007020000000000000001000000610101000000310101000000338e3fa6f9", // update(T2, a: 1 -> 3)
        "524c4157150000000200000000000000000702000000000000000100000062000101000000329f16243e", // update(T2, b: none -> 2)
    );

    #[test]
    fn a_refused_prepare_gives_the_write_set_back() {
        let mut redo = FaultyLog::new();
        redo.inject(Fault::WriteError { after_bytes: 0 });
        let mut e = SiteEngine::new(FaultyLog::new());
        e.begin(t(1));
        e.put(t(1), b"b".to_vec(), b"2".to_vec()).unwrap();
        e.put(t(1), b"a".to_vec(), b"1".to_vec()).unwrap();
        let staged = e.prepare(t(1), |u| redo.append_ref(u, true).map(drop));
        assert!(staged.is_err(), "the force was refused");
        assert_eq!(redo.faults_applied(), 1);
        assert_eq!(e.get(t(1), b"a").unwrap().as_deref(), Some(b"1".as_slice()));
        assert_eq!(e.get(t(1), b"b").unwrap().as_deref(), Some(b"2".as_slice()));
        e.abort_active(t(1)).unwrap();
        assert_eq!(e.locked_keys(), 0);
    }

    #[test]
    fn a_prepare_writes_each_image_once_and_as_before() {
        let mut redo = FaultyLog::new();
        let mut e = SiteEngine::new(FaultyLog::new());
        let mut stage = |e: &mut SiteEngine<FaultyLog>, txn| {
            e.prepare(txn, |u| redo.append_ref(u, false).map(drop))
                .unwrap();
        };
        e.begin(t(1));
        e.put(t(1), b"a", b"1").unwrap();
        stage(&mut e, t(1));
        e.resolve(t(1), Outcome::Commit).unwrap();
        e.begin(t(2));
        e.put(t(2), b"b", b"2").unwrap();
        e.put(t(2), b"a", b"3").unwrap();
        stage(&mut e, t(2));
        e.resolve(t(2), Outcome::Commit).unwrap();
        redo.flush().unwrap();
        assert_eq!(hex(redo.image()), PREPARED_IMAGE);
        assert_eq!(e.committed_get(b"a"), Some(b"3".as_slice()));
        assert_eq!(e.committed_get(b"b"), Some(b"2".as_slice()));
    }
}

#[cfg(test)]
mod store_file_tests {
    use super::*;
    use acp_wal::MemLog;

    fn t(n: u64) -> TxnId {
        TxnId::new(n)
    }

    /// Commit `key = val` with no protocol log: the store file is all
    /// that recovers it.
    fn commit_one(e: &mut SiteEngine<MemLog>, n: u64, key: &[u8], val: &[u8]) {
        e.begin(t(n));
        e.put(t(n), key, val).unwrap();
        e.prepare(t(n), |_| Ok(())).unwrap();
        e.resolve(t(n), Outcome::Commit).unwrap();
    }

    fn recovered(e: &mut SiteEngine<MemLog>) {
        e.crash();
        e.recover(Summaries::new()).unwrap();
    }

    /// Each call appends the values installed since the last as one
    /// record, and later entries win.
    #[test]
    fn the_store_file_gets_one_delta_per_call_and_later_entries_win() {
        let mut e = SiteEngine::new(MemLog::new());
        commit_one(&mut e, 1, b"a", b"old");
        commit_one(&mut e, 2, b"b", b"1");
        e.checkpoint_installed().unwrap();
        e.checkpoint_installed().unwrap();
        commit_one(&mut e, 3, b"a", b"new");
        e.checkpoint_installed().unwrap();
        let records = e.log().all_records();
        let entries = |i: usize| match &records[i].payload {
            LogPayload::Checkpoint { entries } => entries.len(),
            other => panic!("{other:?}"),
        };
        assert_eq!((records.len(), entries(0), entries(1)), (2, 2, 1));
        assert!(records.iter().all(|r| r.forced));
        recovered(&mut e);
        assert_eq!(e.committed_get(b"a"), Some(b"new".as_slice()));
        assert_eq!(e.committed_get(b"b"), Some(b"1".as_slice()));
        assert_eq!(e.store().len(), 2);
    }

    /// A delete cannot ride a delta: the next record is the whole store,
    /// and what came before it is released.
    #[test]
    fn a_delete_makes_the_next_record_the_whole_store() {
        let mut e = SiteEngine::new(MemLog::new());
        commit_one(&mut e, 1, b"a", b"1");
        commit_one(&mut e, 2, b"b", b"2");
        e.checkpoint_installed().unwrap();
        e.begin(t(3));
        e.delete(t(3), b"a".to_vec()).unwrap();
        e.prepare(t(3), |_| Ok(())).unwrap();
        e.resolve(t(3), Outcome::Commit).unwrap();
        e.checkpoint_installed().unwrap();
        assert_eq!(e.log().records().unwrap().len(), 1);
        recovered(&mut e);
        assert_eq!(e.committed_get(b"a"), None);
        assert_eq!(e.committed_get(b"b"), Some(b"2".as_slice()));
    }

    /// The engine's own figure for a whole-store checkpoint is the
    /// codec's.
    #[test]
    fn the_store_frame_length_is_the_codecs() {
        let mut e = SiteEngine::new(MemLog::new());
        for i in 0..20u64 {
            let value = vec![7; i as usize];
            commit_one(&mut e, i, format!("key{i}").as_bytes(), &value);
        }
        let entries = e.store().iter().map(|(k, v)| (k.to_vec(), v.to_vec()));
        let whole = LogPayload::Checkpoint {
            entries: entries.collect(),
        };
        assert_eq!(e.store_frame_len(), frame_len(&whole) as u64);
    }

    /// One key rewritten over and over: the file compacts by
    /// supersession and stays within twice the store plus the floor,
    /// and recovers the last value.
    #[test]
    fn rewrites_of_a_bounded_keyspace_keep_the_store_file_bounded() {
        let mut e = SiteEngine::new(MemLog::new());
        let value = vec![1; 1000];
        let mut max_retained = 0;
        for n in 0..2_000 {
            commit_one(&mut e, n, format!("k{}", n % 8).as_bytes(), &value);
            e.checkpoint_installed().unwrap();
            let records = e.log().records().unwrap();
            let bytes: u64 = records.iter().map(|r| frame_len(&r.payload) as u64).sum();
            assert_eq!(bytes, e.file_bytes, "txn {n}");
            max_retained = max_retained.max(bytes);
        }
        assert!(e.log().stats().truncated > 0, "compacted");
        assert!(max_retained <= 2 * e.store_frame_len() + RECLAIM_FLOOR);
        recovered(&mut e);
        assert_eq!(e.store().len(), 8);
        assert_eq!(e.committed_get(b"k7"), Some(value.as_slice()));
    }

    /// After warm-up, noting a commit for the store file and writing it
    /// there refill buffers a checkpoint left behind.
    #[test]
    fn a_delta_reuses_the_last_ones_buffers() {
        let mut e = SiteEngine::new(MemLog::new());
        for n in 0..4 {
            commit_one(&mut e, n, format!("k{n}").as_bytes(), b"v");
        }
        e.checkpoint_installed().unwrap();
        let spare: Vec<*const u8> = e.spare_entries.iter().map(|(k, _)| k.as_ptr()).collect();
        for n in 4..8 {
            commit_one(&mut e, n, format!("k{n}").as_bytes(), b"v");
        }
        let mut reused: Vec<*const u8> = e.installed.iter().map(|(k, _)| k.as_ptr()).collect();
        reused.reverse();
        assert_eq!(reused, spare);
    }
}
