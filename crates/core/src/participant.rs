//! The participant-side state machine for PrN, PrA and PrC.
//!
//! A participant follows *its own site's* protocol regardless of what
//! the coordinator runs — that is the premise of the whole paper: in a
//! multidatabase system each autonomous site keeps its protocol, and the
//! coordinator must cope.
//!
//! Behaviour per the figures:
//!
//! | protocol | on commit decision            | on abort decision            |
//! |----------|-------------------------------|------------------------------|
//! | PrN      | force commit record, **ack**  | force abort record, **ack**  |
//! | PrA      | force commit record, **ack**  | lazy abort record, no ack    |
//! | PrC      | lazy commit record, no ack    | force abort record, **ack**  |
//!
//! All three force-write a prepared record before voting "Yes". A
//! participant that voted "No" (or read-only) drops out with no stable
//! trace. After a crash, prepared-but-undecided transactions are
//! *in doubt*: the participant holds their locks and periodically
//! inquires at the coordinator (§4.2).

use crate::action::{Action, TimerPurpose};
use acp_acta::ActaEvent;
use acp_types::{LogPayload, Outcome, Payload, ProtocolKind, SiteId, TxnId, Vote};
use acp_wal::{GcTracker, StableLog, WalError};
use std::collections::BTreeMap;

/// Maximum inquiry retries before the participant stops actively
/// retrying (it stays blocked and would resume on any new stimulus; the
/// bound guarantees simulated runs quiesce).
pub const MAX_INQUIRY_RETRIES: u32 = 64;

/// Volatile per-transaction participant state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum PartState {
    /// Voted "Yes", awaiting the decision; must not unilaterally abort.
    Prepared {
        coordinator: SiteId,
        inquiries_sent: u32,
    },
}

/// A prepared transaction's table entry: its protocol state, and the
/// token of its live inquiry timer so the decision can retire it
/// without scanning every armed timer. The token is host bookkeeping
/// (`timers` already carries it), so fingerprints read only `state`.
#[derive(Clone, Debug)]
struct ActiveTxn {
    state: PartState,
    inquiry_timer: Option<u64>,
}

impl ActiveTxn {
    /// A newly (re-)prepared entry; the arming that follows sets its
    /// timer.
    fn prepared(coordinator: SiteId, inquiries_sent: u32) -> Self {
        let state = PartState::Prepared {
            coordinator,
            inquiries_sent,
        };
        ActiveTxn {
            state,
            inquiry_timer: None,
        }
    }
}

/// A participant site's commit-protocol engine.
///
/// # Example
///
/// ```
/// use acp_core::participant::Participant;
/// use acp_types::{Outcome, Payload, ProtocolKind, SiteId, TxnId};
/// use acp_wal::MemLog;
///
/// let coordinator = SiteId::new(0);
/// let mut p = Participant::new(SiteId::new(1), ProtocolKind::PrC, MemLog::new());
///
/// let txn = TxnId::new(1);
/// p.on_message(coordinator, &Payload::Prepare { txn });
/// assert!(p.in_doubt(txn)); // prepared record forced, "Yes" vote sent
///
/// p.on_message(coordinator, &Payload::Decision { txn, outcome: Outcome::Commit });
/// assert_eq!(p.enforced(txn), Some(Outcome::Commit));
/// assert!(!p.in_doubt(txn)); // PrC: lazy commit record, no ack, forgotten
/// ```
#[derive(Clone, Debug)]
pub struct Participant<L: StableLog> {
    site: SiteId,
    protocol: ProtocolKind,
    log: L,
    /// Volatile protocol state (cleared on crash).
    active: BTreeMap<TxnId, ActiveTxn>,
    /// How this site will vote per transaction (application intent),
    /// set ahead by the harness, the explorer and tests. Defaults to
    /// `Yes`. Conceptually part of the application, not the protocol, so
    /// it survives crashes. The kernel passes each vote to
    /// [`Participant::on_prepare_into`] and leaves this empty.
    intents: BTreeMap<TxnId, Vote>,
    /// Observational record of enforced outcomes (mirrors what the data
    /// engine would hold after redo; used by tests and the atomicity
    /// experiments).
    enforced: BTreeMap<TxnId, Outcome>,
    /// GC bookkeeping over the own log.
    gc: GcTracker,
    /// Volatile timer-token bookkeeping.
    timers: BTreeMap<u64, TxnId>,
    next_token: u64,
    /// Eager timer retirement for hosts with a real timer wheel; off by
    /// default so the simulator/checker keep lazy expiry (see
    /// `Coordinator` for the rationale).
    track_cancellations: bool,
    /// Retired timer tokens not yet drained by the host.
    cancelled: Vec<u64>,
}

impl<L: StableLog> Participant<L> {
    /// Create a participant for `site` speaking `protocol`, over the
    /// given stable log.
    pub fn new(site: SiteId, protocol: ProtocolKind, log: L) -> Self {
        Participant {
            site,
            protocol,
            log,
            active: BTreeMap::new(),
            intents: BTreeMap::new(),
            enforced: BTreeMap::new(),
            gc: GcTracker::new(),
            timers: BTreeMap::new(),
            next_token: 0,
            track_cancellations: false,
            cancelled: Vec::new(),
        }
    }

    /// Enable (or disable) eager retirement of inquiry timers once the
    /// decision is learned; retired tokens surface through
    /// [`Participant::drain_cancelled_timers`]. Default off.
    pub fn set_track_cancellations(&mut self, on: bool) {
        self.track_cancellations = on;
    }

    /// Drain the timer tokens retired since the last call (empty unless
    /// [`Participant::set_track_cancellations`] enabled tracking). The
    /// buffer keeps its capacity.
    pub fn drain_cancelled_timers(&mut self) -> std::vec::Drain<'_, u64> {
        self.cancelled.drain(..)
    }

    /// Retire a decided transaction's live inquiry timer, recording it
    /// for the host. No-op unless tracking is enabled, or when the timer
    /// already fired.
    fn retire_timer(&mut self, token: Option<u64>) {
        if !self.track_cancellations {
            return;
        }
        if let Some(tok) = token.filter(|tok| self.timers.remove(tok).is_some()) {
            self.cancelled.push(tok);
        }
    }

    /// This site's id.
    #[must_use]
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// This site's commit protocol.
    #[must_use]
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// Set how this participant will vote for `txn` (default `Yes`) when
    /// its prepare arrives through [`Participant::on_message_into`] or
    /// [`Participant::on_prepare`]. Harness-only: the entry is kept for
    /// the participant's life, so a long-lived host passes each vote to
    /// [`Participant::on_prepare_into`] instead.
    pub fn set_intent(&mut self, txn: TxnId, vote: Vote) {
        self.intents.insert(txn, vote);
    }

    /// The votes set with [`Participant::set_intent`].
    #[must_use]
    pub fn intents(&self) -> &BTreeMap<TxnId, Vote> {
        &self.intents
    }

    /// The vote set for `txn`, or `Yes`.
    fn intent(&self, txn: TxnId) -> Vote {
        self.intents.get(&txn).copied().unwrap_or(Vote::Yes)
    }

    /// The outcome this participant enforced for `txn`, if any.
    #[must_use]
    pub fn enforced(&self, txn: TxnId) -> Option<Outcome> {
        self.enforced.get(&txn).copied()
    }

    /// All enforced outcomes (for atomicity assertions).
    #[must_use]
    pub fn enforced_all(&self) -> &BTreeMap<TxnId, Outcome> {
        &self.enforced
    }

    /// Is the participant in doubt about `txn` (prepared, no decision)?
    #[must_use]
    pub fn in_doubt(&self, txn: TxnId) -> bool {
        self.active.contains_key(&txn)
    }

    /// Transactions currently in doubt.
    #[must_use]
    pub fn in_doubt_txns(&self) -> Vec<TxnId> {
        self.active.keys().copied().collect()
    }

    /// Transactions still pinning this site's log.
    #[must_use]
    pub fn log_pinned(&self) -> Vec<TxnId> {
        self.gc.pinned()
    }

    /// Borrow the stable log (for assertions and GC inspection).
    #[must_use]
    pub fn log(&self) -> &L {
        &self.log
    }

    /// Mutable access to the stable log, for hosts that drive log-level
    /// machinery outside the engine's own actions (group-commit ticks
    /// and batch commits). Protocol records must still go through the
    /// engine, never be appended here directly.
    pub fn log_mut(&mut self) -> &mut L {
        &mut self.log
    }

    /// Canonical semantic-state rendering for the model checker (see
    /// `Coordinator::fingerprint`).
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut s = format!("part:{:?};", self.protocol);
        for (txn, st) in &self.active {
            s.push_str(&format!("{txn}={:?};", st.state));
        }
        s.push('|');
        for (txn, o) in &self.enforced {
            s.push_str(&format!("{txn}>{o};"));
        }
        s.push('|');
        for rec in self.log.records().expect("records") {
            s.push_str(&format!("{};", rec.payload));
        }
        s.push('|');
        for (tok, txn) in &self.timers {
            s.push_str(&format!("{tok}:{txn};"));
        }
        s
    }

    /// Hash the same semantic state as [`Participant::fingerprint`]
    /// directly into `h` without rendering strings or cloning the log
    /// (the model checker's hot path; see `Coordinator::hash_state`).
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        self.protocol.hash(h);
        for (txn, st) in &self.active {
            txn.hash(h);
            st.state.hash(h);
        }
        0xB1u8.hash(h);
        for (txn, o) in &self.enforced {
            (txn, o).hash(h);
        }
        0xB2u8.hash(h);
        self.log
            .for_each_record(&mut |rec| rec.payload.hash(h))
            .expect("records");
        0xB3u8.hash(h);
        for (tok, txn) in &self.timers {
            (tok, txn).hash(h);
        }
    }

    // -- internals ----------------------------------------------------

    fn append(&mut self, txn: TxnId, payload: LogPayload, force: bool, out: &mut Vec<Action>) {
        let kind = payload.kind_name();
        let lsn = self.log.next_lsn();
        self.gc.note(lsn, &payload);
        self.log
            .append(payload, force)
            .expect("participant log append");
        out.push(Action::Acta(ActaEvent::LogWrite {
            site: self.site,
            txn,
            kind,
            forced: force,
        }));
    }

    fn arm_inquiry_timer(&mut self, txn: TxnId, attempt: u32, out: &mut Vec<Action>) {
        let token = self.next_token;
        self.next_token += 1;
        self.timers.insert(token, txn);
        if let Some(st) = self.active.get_mut(&txn) {
            st.inquiry_timer = Some(token);
        }
        out.push(Action::SetTimer {
            token,
            purpose: TimerPurpose::InquiryRetry,
            attempt,
        });
    }

    // -- protocol input handlers ---------------------------------------

    /// Handle a `Prepare` request from the coordinator, voting the
    /// intent set for `txn`.
    pub fn on_prepare(&mut self, coordinator: SiteId, txn: TxnId) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_prepare_into(coordinator, txn, self.intent(txn), &mut out);
        out
    }

    /// Handle a `Prepare` request from the coordinator, voting `vote`,
    /// and append the actions to `out` — the entry point for hosts whose
    /// data side decides each vote when the prepare arrives, so the
    /// participant keeps none of them. A duplicate prepare is answered
    /// from the participant's own state, whatever `vote` says: Yes while
    /// prepared, nothing once ended.
    pub fn on_prepare_into(
        &mut self,
        coordinator: SiteId,
        txn: TxnId,
        vote: Vote,
        out: &mut Vec<Action>,
    ) {
        if self.enforced.contains_key(&txn) {
            // Already terminated here (e.g. duplicate prepare after a
            // slow network). Nothing sensible to vote; stay silent — the
            // coordinator's vote timeout covers it.
            return;
        }
        if let Some(st) = self.active.get(&txn) {
            // Duplicate prepare while prepared: re-vote Yes.
            let PartState::Prepared { coordinator: c, .. } = st.state;
            let vote = Vote::Yes;
            out.push(Action::send(c, Payload::Vote { txn, vote }));
            return;
        }
        match vote {
            Vote::Yes => {
                self.append(txn, LogPayload::Prepared { txn, coordinator }, true, out);
                out.push(Action::Acta(ActaEvent::Prepared {
                    participant: self.site,
                    txn,
                }));
                self.active.insert(txn, ActiveTxn::prepared(coordinator, 0));
                out.push(Action::send(coordinator, Payload::Vote { txn, vote }));
                self.arm_inquiry_timer(txn, 0, out);
            }
            Vote::No => {
                // Unilateral abort: no stable trace, no second phase.
                self.enforced.insert(txn, Outcome::Abort);
                out.push(Action::Enforce {
                    txn,
                    outcome: Outcome::Abort,
                });
                out.push(Action::send(coordinator, Payload::Vote { txn, vote }));
                out.push(Action::Acta(ActaEvent::ForgetPart {
                    participant: self.site,
                    txn,
                }));
            }
            Vote::ReadOnly => {
                // Read-only optimization: vote and drop out of phase two.
                out.push(Action::send(coordinator, Payload::Vote { txn, vote }));
                out.push(Action::Acta(ActaEvent::ForgetPart {
                    participant: self.site,
                    txn,
                }));
            }
        }
    }

    /// Handle a final decision (or an inquiry response, which carries the
    /// same information).
    pub fn on_decision(&mut self, txn: TxnId, outcome: Outcome) -> Vec<Action> {
        let mut out = Vec::new();
        self.decision(txn, outcome, &mut out);
        out
    }

    fn decision(&mut self, txn: TxnId, outcome: Outcome, out: &mut Vec<Action>) {
        // No memory of the transaction: the footnote-5 ack needs the
        // sender's address, which only `on_message` has — it handles
        // that case before calling here; a direct caller simply gets no
        // actions.
        let Some(st) = self.active.remove(&txn) else {
            return;
        };
        let PartState::Prepared { coordinator, .. } = st.state;
        // The decision resolves the in-doubt state; any pending
        // inquiry retry for this transaction is obsolete.
        self.retire_timer(st.inquiry_timer);
        let force = self.protocol.forces_decision(outcome);
        self.append(txn, LogPayload::PartDecision { txn, outcome }, force, out);
        self.enforced.insert(txn, outcome);
        out.push(Action::Enforce { txn, outcome });
        out.push(Action::Acta(ActaEvent::Enforce {
            participant: self.site,
            txn,
            outcome,
        }));
        if self.protocol.acks(outcome) {
            out.push(Action::send(coordinator, Payload::Ack { txn }));
        }
        self.append(txn, LogPayload::PartEnd { txn }, false, out);
        out.push(Action::Acta(ActaEvent::ForgetPart {
            participant: self.site,
            txn,
        }));
    }

    /// Route any incoming message to the right handler.
    pub fn on_message(&mut self, from: SiteId, payload: &Payload) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_message_into(from, payload, &mut out);
        out
    }

    /// [`Participant::on_message`], appending the actions to `out` — the
    /// entry point for hosts that reuse one action buffer.
    pub fn on_message_into(&mut self, from: SiteId, payload: &Payload, out: &mut Vec<Action>) {
        match payload {
            Payload::Prepare { txn } => self.on_prepare_into(from, *txn, self.intent(*txn), out),
            Payload::Decision { txn, outcome } | Payload::InquiryResponse { txn, outcome } => {
                if let Some(st) = self.active.get_mut(txn) {
                    // The decision's sender is the coordinator of record
                    // from here on: under Paxos Commit a failover leader
                    // (not the coordinator logged in the prepared
                    // record) may deliver the decision, and the ack must
                    // reach the site that is still collecting acks. For
                    // the classic protocols sender and logged
                    // coordinator coincide, so this is a no-op.
                    let PartState::Prepared { coordinator, .. } = &mut st.state;
                    *coordinator = from;
                    self.decision(*txn, *outcome, out);
                } else if self.protocol.acks(*outcome)
                    && matches!(payload, Payload::Decision { .. })
                {
                    // No memory (already enforced & forgotten, or never
                    // prepared): footnote 5 — just acknowledge.
                    out.push(Action::send(from, Payload::Ack { txn: *txn }));
                }
            }
            // Coordinator/acceptor-side messages; a participant ignores
            // them (§2: violations are ignored).
            Payload::Vote { .. }
            | Payload::Ack { .. }
            | Payload::Inquiry { .. }
            | Payload::PaxosBegin { .. }
            | Payload::Phase1a { .. }
            | Payload::Phase1b { .. }
            | Payload::Phase2a { .. }
            | Payload::Phase2b { .. }
            | Payload::PaxosForget { .. } => {}
        }
    }

    /// Timer callback.
    pub fn on_timer(&mut self, token: u64) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_timer_into(token, &mut out);
        out
    }

    /// [`Participant::on_timer`], appending the actions to `out`.
    pub fn on_timer_into(&mut self, token: u64, out: &mut Vec<Action>) {
        let Some(txn) = self.timers.remove(&token) else {
            return;
        };
        let Some(st) = self.active.get_mut(&txn) else {
            return;
        };
        let PartState::Prepared {
            coordinator,
            inquiries_sent,
        } = &mut st.state;
        let coordinator = *coordinator;
        *inquiries_sent += 1;
        let attempts = *inquiries_sent;
        let protocol = self.protocol;
        out.push(Action::Acta(ActaEvent::Inquire {
            participant: self.site,
            txn,
            protocol,
        }));
        out.push(Action::send(
            coordinator,
            Payload::Inquiry { txn, protocol },
        ));
        if attempts < MAX_INQUIRY_RETRIES {
            self.arm_inquiry_timer(txn, attempts, out);
        }
    }

    /// The site fail-stops: volatile state and unflushed log records are
    /// lost.
    pub fn crash(&mut self) {
        self.active.clear();
        self.timers.clear();
        self.cancelled.clear();
        self.log.lose_unflushed().expect("log crash");
        // Rebuild GC view from what actually survived.
        self.gc = GcTracker::from_log(&self.log).expect("records");
    }

    /// Restart: analyze the log; re-enter the prepared state for
    /// in-doubt transactions and inquire at their coordinators; close
    /// out transactions whose decision is on record but whose end record
    /// was lost.
    pub fn recover(&mut self) -> Vec<Action> {
        let mut out = Vec::new();
        self.recover_into(&mut out);
        out
    }

    /// [`Participant::recover`], appending the actions to `out`.
    pub fn recover_into(&mut self, out: &mut Vec<Action>) {
        self.gc = GcTracker::from_log(&self.log).expect("records");
        let summaries = acp_wal::scan::analyze_log(&self.log).expect("records");
        for (txn, s) in summaries {
            if s.part_ended {
                continue;
            }
            if s.in_doubt() {
                let coordinator = s.prepared.expect("in_doubt implies prepared");
                self.active.insert(txn, ActiveTxn::prepared(coordinator, 1));
                let protocol = self.protocol;
                out.push(Action::Acta(ActaEvent::Inquire {
                    participant: self.site,
                    txn,
                    protocol,
                }));
                out.push(Action::send(
                    coordinator,
                    Payload::Inquiry { txn, protocol },
                ));
                self.arm_inquiry_timer(txn, 1, out);
            } else if let Some(outcome) = s.part_decision {
                // Decision durable but end record lost in the crash: the
                // data engine re-enforces via redo; protocol-wise, close
                // out. A lost ack is re-triggered by the coordinator's
                // decision re-send (we will answer per footnote 5).
                self.enforced.entry(txn).or_insert(outcome);
                self.append(txn, LogPayload::PartEnd { txn }, false, out);
                out.push(Action::Acta(ActaEvent::ForgetPart {
                    participant: self.site,
                    txn,
                }));
            }
        }
    }

    /// Records below the releasable point that the log still holds,
    /// durable or buffered: what a collection could reclaim once the
    /// buffered ones are forced.
    #[must_use]
    pub fn releasable_records(&self) -> u64 {
        let (releasable, low) = (self.gc.releasable(), self.log.low_water_mark());
        releasable.raw().saturating_sub(low.raw())
    }

    /// Garbage-collect the *durable* part of the releasable log prefix.
    /// Returns the number of records reclaimed.
    ///
    /// Never flushes: a lazy record still in the volatile buffer (a
    /// PrC `part-commit`, any `part-end`) stays there until the site's
    /// next force, and its transaction is collected by the collection
    /// after that. So a collection costs no sync of its own beyond the
    /// log's GC write. A host that keeps a data log beside this one
    /// makes that log's redo markers durable first: once these records
    /// are gone, its recovery can learn a commit only from the marker.
    ///
    /// A failed GC write is returned, not raised, and changes nothing:
    /// the log keeps its records and mark, the tracker its view, and the
    /// next call releases the same prefix.
    pub fn collect_garbage(&mut self) -> Result<usize, WalError> {
        let up_to = self.gc.releasable().min(self.log.durable_end());
        if up_to <= self.log.low_water_mark() {
            return Ok(0);
        }
        let before = self.log.stats().truncated;
        self.log.truncate_prefix(up_to)?;
        Ok((self.log.stats().truncated - before) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_wal::{Lsn, MemLog};

    fn participant(p: ProtocolKind) -> Participant<MemLog> {
        Participant::new(SiteId::new(1), p, MemLog::new())
    }

    fn coord() -> SiteId {
        SiteId::new(0)
    }

    fn t() -> TxnId {
        TxnId::new(7)
    }

    fn log_kinds(p: &Participant<MemLog>) -> Vec<(String, bool)> {
        p.log()
            .all_records()
            .iter()
            .map(|r| (r.payload.kind_name().to_string(), r.forced))
            .collect()
    }

    #[test]
    fn yes_vote_forces_prepared_record_first() {
        let mut p = participant(ProtocolKind::PrA);
        let actions = p.on_prepare(coord(), t());
        let sends = crate::action::sent_payloads(&actions);
        assert_eq!(sends.len(), 1);
        assert!(matches!(
            sends[0].1,
            Payload::Vote {
                vote: Vote::Yes,
                ..
            }
        ));
        assert_eq!(log_kinds(&p), vec![("prepared".to_string(), true)]);
        assert!(p.in_doubt(t()));
    }

    #[test]
    fn no_vote_leaves_no_stable_trace() {
        let mut p = participant(ProtocolKind::PrN);
        p.set_intent(t(), Vote::No);
        let actions = p.on_prepare(coord(), t());
        let sends = crate::action::sent_payloads(&actions);
        assert!(matches!(sends[0].1, Payload::Vote { vote: Vote::No, .. }));
        assert!(log_kinds(&p).is_empty());
        assert_eq!(p.enforced(t()), Some(Outcome::Abort));
        assert!(!p.in_doubt(t()));
    }

    #[test]
    fn read_only_vote_drops_out_without_logging() {
        let mut p = participant(ProtocolKind::PrC);
        p.set_intent(t(), Vote::ReadOnly);
        let actions = p.on_prepare(coord(), t());
        let sends = crate::action::sent_payloads(&actions);
        assert!(matches!(
            sends[0].1,
            Payload::Vote {
                vote: Vote::ReadOnly,
                ..
            }
        ));
        assert!(log_kinds(&p).is_empty());
        assert_eq!(p.enforced(t()), None);
    }

    /// The full ack/force matrix of the three protocols (Figures 2–4).
    #[test]
    fn decision_handling_matrix() {
        for (proto, outcome, expect_ack, expect_force) in [
            (ProtocolKind::PrN, Outcome::Commit, true, true),
            (ProtocolKind::PrN, Outcome::Abort, true, true),
            (ProtocolKind::PrA, Outcome::Commit, true, true),
            (ProtocolKind::PrA, Outcome::Abort, false, false),
            (ProtocolKind::PrC, Outcome::Commit, false, false),
            (ProtocolKind::PrC, Outcome::Abort, true, true),
        ] {
            let mut p = participant(proto);
            p.on_prepare(coord(), t());
            let actions = p.on_message(coord(), &Payload::Decision { txn: t(), outcome });
            let acked = crate::action::sent_payloads(&actions)
                .iter()
                .any(|(_, pl)| matches!(pl, Payload::Ack { .. }));
            assert_eq!(acked, expect_ack, "{proto} {outcome} ack");
            let kinds = log_kinds(&p);
            // prepared + decision + end
            assert_eq!(kinds.len(), 3, "{proto} {outcome}: {kinds:?}");
            assert_eq!(kinds[1].1, expect_force, "{proto} {outcome} force");
            assert_eq!(p.enforced(t()), Some(outcome));
            assert!(!p.in_doubt(t()));
        }
    }

    #[test]
    fn unknown_decision_is_acked_per_footnote_5() {
        let mut p = participant(ProtocolKind::PrN);
        let actions = p.on_message(
            coord(),
            &Payload::Decision {
                txn: t(),
                outcome: Outcome::Commit,
            },
        );
        let sends = crate::action::sent_payloads(&actions);
        assert_eq!(sends.len(), 1);
        assert!(matches!(sends[0].1, Payload::Ack { .. }));
        assert!(
            log_kinds(&p).is_empty(),
            "no new records for a forgotten txn"
        );
    }

    #[test]
    fn unknown_decision_not_acked_when_protocol_never_acks_it() {
        // A PrC participant never acks commits, even per footnote 5.
        let mut p = participant(ProtocolKind::PrC);
        let actions = p.on_message(
            coord(),
            &Payload::Decision {
                txn: t(),
                outcome: Outcome::Commit,
            },
        );
        assert!(crate::action::sent_payloads(&actions).is_empty());
    }

    #[test]
    fn prepared_timer_sends_inquiry_with_own_protocol() {
        let mut p = participant(ProtocolKind::PrC);
        let actions = p.on_prepare(coord(), t());
        let token = actions
            .iter()
            .find_map(|a| match a {
                Action::SetTimer {
                    token,
                    purpose: TimerPurpose::InquiryRetry,
                    ..
                } => Some(*token),
                _ => None,
            })
            .expect("inquiry timer armed");
        let actions = p.on_timer(token);
        let sends = crate::action::sent_payloads(&actions);
        assert!(
            matches!(
                sends[0].1,
                Payload::Inquiry {
                    protocol: ProtocolKind::PrC,
                    ..
                }
            ),
            "{sends:?}"
        );
        // Re-armed for the next retry.
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                purpose: TimerPurpose::InquiryRetry,
                ..
            }
        )));
    }

    #[test]
    fn crash_in_prepared_state_recovers_in_doubt() {
        let mut p = participant(ProtocolKind::PrA);
        p.on_prepare(coord(), t());
        p.crash();
        assert!(!p.in_doubt(t()), "volatile state cleared");
        let actions = p.recover();
        assert!(p.in_doubt(t()), "log analysis re-entered prepared state");
        let sends = crate::action::sent_payloads(&actions);
        assert!(matches!(sends[0].1, Payload::Inquiry { .. }));
        assert_eq!(
            sends[0].0,
            coord(),
            "inquiry goes to the logged coordinator"
        );
    }

    #[test]
    fn crash_before_prepared_force_leaves_nothing() {
        // The prepared record is forced, so this can only happen if the
        // crash lands before the handler ran — i.e. the prepare message
        // was effectively lost. Simulate: no prepare processed, crash,
        // recover: no in-doubt state, no inquiry.
        let mut p = participant(ProtocolKind::PrN);
        p.crash();
        let actions = p.recover();
        assert!(actions.is_empty());
        assert!(p.in_doubt_txns().is_empty());
    }

    #[test]
    fn crash_after_decision_closes_out_on_recovery() {
        let mut p = participant(ProtocolKind::PrA);
        p.on_prepare(coord(), t());
        p.on_message(
            coord(),
            &Payload::Decision {
                txn: t(),
                outcome: Outcome::Commit,
            },
        );
        // The lazy PartEnd is still buffered; the crash loses it.
        p.crash();
        let kinds = log_kinds(&p);
        assert_eq!(kinds.len(), 2, "end record lost: {kinds:?}");
        let actions = p.recover();
        assert!(crate::action::sent_payloads(&actions).is_empty());
        let kinds = log_kinds(&p);
        assert_eq!(kinds.last().unwrap().0, "part-end", "end re-written");
        assert_eq!(p.enforced(t()), Some(Outcome::Commit));
    }

    #[test]
    fn inquiry_response_terminates_in_doubt_transaction() {
        let mut p = participant(ProtocolKind::PrC);
        p.on_prepare(coord(), t());
        p.crash();
        p.recover();
        let actions = p.on_message(
            coord(),
            &Payload::InquiryResponse {
                txn: t(),
                outcome: Outcome::Commit,
            },
        );
        assert_eq!(p.enforced(t()), Some(Outcome::Commit));
        assert!(!p.in_doubt(t()));
        // PrC does not ack commits — not even ones learned by inquiry.
        assert!(crate::action::sent_payloads(&actions).is_empty());
    }

    #[test]
    fn garbage_collection_reclaims_ended_transactions() {
        let mut p = participant(ProtocolKind::PrN);
        p.on_prepare(coord(), t());
        p.on_message(
            coord(),
            &Payload::Decision {
                txn: t(),
                outcome: Outcome::Commit,
            },
        );
        assert!(!p.log_pinned().contains(&t()));
        // Flush the lazy end record, then GC.
        // (collect_garbage only truncates durable prefixes.)
        let reclaimed = {
            // force durability of the lazy tail via another txn's force
            let t2 = TxnId::new(8);
            p.on_prepare(coord(), t2);
            p.collect_garbage().expect("gc")
        };
        assert_eq!(reclaimed, 3, "prepared+decision+end reclaimed");
    }

    /// A collection never flushes: it releases the durable part of the
    /// releasable prefix, and a lazy `part-end` still buffered stays in
    /// the log until the site's next force makes it durable, to be
    /// released by the collection after that.
    #[test]
    fn a_collection_never_flushes_and_keeps_a_buffered_part_end() {
        let mut p = participant(ProtocolKind::PrN);
        p.on_prepare(coord(), t());
        let outcome = Outcome::Commit;
        p.on_message(coord(), &Payload::Decision { txn: t(), outcome });
        assert_eq!(p.releasable_records(), 3, "prepared, commit, end");
        let flushes = p.log().stats().flushes;

        assert_eq!(p.collect_garbage().unwrap(), 2, "the forced two");
        assert_eq!(p.log().stats().flushes, flushes, "no flush");
        assert_eq!(p.log().low_water_mark(), Lsn(2));
        assert_eq!(p.releasable_records(), 1, "the buffered end");
        assert_eq!(p.collect_garbage().unwrap(), 0, "still buffered");

        // The next transaction's forced prepared record carries the end
        // to the medium; the next collection releases it.
        p.on_prepare(coord(), TxnId::new(8));
        assert_eq!(log_kinds(&p)[0], ("part-end".to_string(), false));
        assert_eq!(p.collect_garbage().unwrap(), 1);
        assert_eq!(p.log().stats().flushes, flushes, "still no flush");
        assert_eq!(p.log().low_water_mark(), Lsn(3));
    }

    /// A collection whose GC write fails is a value: the log keeps its
    /// records and mark, the tracker its view, and the next call
    /// releases the same prefix. Once on the in-place path (a header
    /// write) and once past the reclaim floor (a compaction).
    #[test]
    fn a_failed_collection_changes_nothing_and_the_next_releases_the_same_prefix() {
        // A transaction leaves ≥ 64 B of frames, so the second case
        // releases more than the floor.
        for (txns, compacts) in [(3, false), (acp_wal::RECLAIM_FLOOR / 64, true)] {
            let log = acp_wal::FaultyLog::new();
            let mut p = Participant::new(SiteId::new(1), ProtocolKind::PrN, log);
            let outcome = Outcome::Commit;
            for txn in (1..=txns).map(TxnId::new) {
                p.on_prepare(coord(), txn);
                p.on_message(coord(), &Payload::Decision { txn, outcome });
            }
            // A pinned transaction whose forced record makes every end
            // record before it durable.
            p.on_prepare(coord(), TxnId::new(txns + 1));
            let records = p.log().records().unwrap();
            let tracker = format!("{:?}", p.gc);
            let image = p.log().image().len();

            p.log_mut().fail_next_gc_rewrite();
            assert!(p.collect_garbage().is_err(), "{txns} txns");
            assert_eq!(p.log().records().unwrap(), records);
            assert_eq!(p.log().low_water_mark(), Lsn::ZERO);
            assert_eq!(format!("{:?}", p.gc), tracker);

            let released = p.collect_garbage().unwrap() as u64;
            assert_eq!(released, 3 * txns);
            assert_eq!(p.log().low_water_mark(), Lsn(3 * txns));
            assert_eq!(p.log().image().len() < image, compacts, "{txns} txns");
        }
    }

    #[test]
    fn duplicate_prepare_revotes_yes() {
        let mut p = participant(ProtocolKind::PrA);
        p.on_prepare(coord(), t());
        let actions = p.on_prepare(coord(), t());
        let sends = crate::action::sent_payloads(&actions);
        assert_eq!(sends.len(), 1);
        assert!(matches!(
            sends[0].1,
            Payload::Vote {
                vote: Vote::Yes,
                ..
            }
        ));
        assert_eq!(log_kinds(&p).len(), 1, "prepared record not duplicated");
    }

    #[test]
    fn costs_count_forces_and_messages() {
        let mut p = participant(ProtocolKind::PrN);
        let mut actions = p.on_prepare(coord(), t());
        actions.extend(p.on_message(
            coord(),
            &Payload::Decision {
                txn: t(),
                outcome: Outcome::Commit,
            },
        ));
        let log = p.log().stats();
        assert_eq!(log.forces, 2); // prepared + commit
        assert_eq!(log.appends, 3); // + lazy end
        let sends = crate::action::sent_payloads(&actions);
        let kinds: Vec<&str> = sends.iter().map(|(_, m)| m.kind_name()).collect();
        assert_eq!(kinds, ["vote", "ack"]);
    }
}
