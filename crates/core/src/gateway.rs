//! Simulated prepared state: integrating a *non-externalized* legacy
//! site (Figure 5's right subtree).
//!
//! The paper's appendix classifies sites that do not expose a commit
//! protocol at all, and the techniques for including them in global
//! transactions anyway. This module implements the **commitment-after
//! (redo)** family: a *gateway* in front of the legacy system
//!
//! 1. buffers the transaction's writes,
//! 2. at prepare time takes an **exclusive right reservation** on the
//!    written items (so no other *global* transaction can interleave)
//!    and force-writes the redo information and a prepared record to its
//!    own stable log — this *simulates* the prepared state the legacy
//!    system cannot hold,
//! 3. votes "Yes" and thereafter speaks its declared 2PC dialect on the
//!    wire (any of PrN/PrA/PrC — the coordinator cannot tell a gateway
//!    from a native participant),
//! 4. on commit, **retries** the buffered writes against the legacy
//!    system until they succeed (the system may be temporarily down —
//!    the redo log makes the outcome durable at the gateway
//!    regardless), releasing the reservation only when applied.
//!
//! The guarantee is *traditional* atomicity with respect to every
//! transaction routed through the gateway; purely local users of the
//! legacy system can observe the pre-commit state during the retry
//! window — the classical weakness of the approach, which the taxonomy
//! acknowledges by distinguishing semantic from traditional atomicity.

use crate::action::{Action, TimerPurpose};
use acp_acta::ActaEvent;
use acp_types::{LogPayload, Outcome, Payload, ProtocolKind, SiteId, TxnId, Vote};
use acp_wal::{GcTracker, StableLog};
use std::collections::BTreeMap;

/// A legacy data system: auto-commit key-value writes, no transactions,
/// no prepare state, and intermittent availability. A separate failure
/// domain from the gateway (it does not lose state when the gateway
/// crashes).
#[derive(Clone, Debug, Default, Hash)]
pub struct LegacyStore {
    data: BTreeMap<Vec<u8>, Vec<u8>>,
    available: bool,
}

impl LegacyStore {
    /// An empty, available store.
    #[must_use]
    pub fn new() -> Self {
        LegacyStore {
            data: BTreeMap::new(),
            available: true,
        }
    }

    /// Toggle availability (simulates the legacy system's own outages).
    pub fn set_available(&mut self, available: bool) {
        self.available = available;
    }

    /// Is the system currently reachable?
    #[must_use]
    pub fn is_available(&self) -> bool {
        self.available
    }

    /// Auto-commit write. Fails (without effect) when unavailable.
    pub fn write(&mut self, key: &[u8], value: &[u8]) -> Result<(), Unavailable> {
        if !self.available {
            return Err(Unavailable);
        }
        self.data.insert(key.to_vec(), value.to_vec());
        Ok(())
    }

    /// Read (available systems only; local reads are out of scope).
    #[must_use]
    pub fn read(&self, key: &[u8]) -> Option<&[u8]> {
        self.data.get(key).map(Vec::as_slice)
    }

    /// Snapshot all entries (reporting/assertions).
    #[must_use]
    pub fn entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.data
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

/// Error: the legacy system is down; retry later.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unavailable;

/// Per-transaction gateway state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum GatewayPhase {
    /// Buffering writes; nothing stable yet.
    Collecting,
    /// Redo info + prepared record forced; reservation held; waiting for
    /// the decision.
    SimulatedPrepared {
        coordinator: SiteId,
        inquiries_sent: u32,
    },
    /// Commit decided (durably); retrying the writes against the legacy
    /// system until they stick.
    Applying { next_write: usize },
}

#[derive(Clone, Debug, Hash)]
struct GatewayTxn {
    phase: GatewayPhase,
    writes: Vec<(Vec<u8>, Vec<u8>)>,
}

/// A participant-shaped adapter that lets a [`LegacyStore`] take part in
/// any of the 2PC variants.
///
/// # Example
///
/// ```
/// use acp_core::gateway::{GatewayParticipant, LegacyStore};
/// use acp_types::{Outcome, Payload, ProtocolKind, SiteId, TxnId};
/// use acp_wal::MemLog;
///
/// let mut g = GatewayParticipant::new(
///     SiteId::new(1),
///     ProtocolKind::PrA, // the dialect it speaks on the wire
///     MemLog::new(),
///     LegacyStore::new(),
/// );
/// let txn = TxnId::new(1);
/// g.stage_write(txn, b"order", b"42");
///
/// let coordinator = SiteId::new(0);
/// g.on_message(coordinator, &Payload::Prepare { txn }); // simulated prepared state
/// assert_eq!(g.legacy().read(b"order"), None); // nothing applied yet
///
/// g.on_message(coordinator, &Payload::Decision { txn, outcome: Outcome::Commit });
/// assert_eq!(g.legacy().read(b"order"), Some(b"42".as_slice()));
/// ```
#[derive(Clone, Debug)]
pub struct GatewayParticipant<L: StableLog> {
    site: SiteId,
    /// The 2PC dialect the gateway externalizes.
    declared: ProtocolKind,
    log: L,
    legacy: LegacyStore,
    /// Exclusive right reservations: keys pinned by simulated-prepared
    /// or applying transactions.
    reservations: BTreeMap<Vec<u8>, TxnId>,
    txns: BTreeMap<TxnId, GatewayTxn>,
    /// Observational enforcement record (as in `Participant`).
    enforced: BTreeMap<TxnId, Outcome>,
    gc: GcTracker,
    timers: BTreeMap<u64, TxnId>,
    next_token: u64,
}

impl<L: StableLog> GatewayParticipant<L> {
    /// Wrap a legacy system, externalizing the given protocol.
    pub fn new(site: SiteId, declared: ProtocolKind, log: L, legacy: LegacyStore) -> Self {
        GatewayParticipant {
            site,
            declared,
            log,
            legacy,
            reservations: BTreeMap::new(),
            txns: BTreeMap::new(),
            enforced: BTreeMap::new(),
            gc: GcTracker::new(),
            timers: BTreeMap::new(),
            next_token: 0,
        }
    }

    /// The protocol this gateway speaks on the wire.
    #[must_use]
    pub fn declared_protocol(&self) -> ProtocolKind {
        self.declared
    }

    /// The wrapped legacy system (e.g. to toggle availability in tests).
    pub fn legacy_mut(&mut self) -> &mut LegacyStore {
        &mut self.legacy
    }

    /// Read-through to the legacy system's committed data.
    #[must_use]
    pub fn legacy(&self) -> &LegacyStore {
        &self.legacy
    }

    /// Outcome enforced for `txn`, if any.
    #[must_use]
    pub fn enforced(&self, txn: TxnId) -> Option<Outcome> {
        self.enforced.get(&txn).copied()
    }

    /// All enforced outcomes (for atomicity assertions).
    #[must_use]
    pub fn enforced_all(&self) -> &BTreeMap<TxnId, Outcome> {
        &self.enforced
    }

    /// This site's id.
    #[must_use]
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Borrow the gateway's redo log.
    #[must_use]
    pub fn log(&self) -> &L {
        &self.log
    }

    /// Mutable access to the redo log (group-commit ticks only —
    /// protocol records must go through the gateway).
    pub fn log_mut(&mut self) -> &mut L {
        &mut self.log
    }

    /// Transactions still pinning the redo log.
    #[must_use]
    pub fn log_pinned(&self) -> Vec<TxnId> {
        self.gc.pinned()
    }

    /// Canonical semantic-state rendering for the model checker (see
    /// `Participant::fingerprint`): transactions with their phase and
    /// writes, reservations, enforced outcomes, redo log, armed timers
    /// and the legacy system.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let records = self.log.records().expect("records");
        let log: Vec<String> = records.iter().map(|r| r.payload.to_string()).collect();
        format!(
            "gw:{:?};{:?}|{:?}|{:?}|{}|{:?}|{:?}",
            self.declared,
            self.txns,
            self.reservations,
            self.enforced,
            log.join(";"),
            self.timers,
            self.legacy
        )
    }

    /// Hash the same semantic state as [`GatewayParticipant::fingerprint`]
    /// directly into `h` (the model checker's hot path).
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        (self.declared, &self.txns, &self.reservations, &self.enforced).hash(h);
        self.log
            .for_each_record(&mut |rec| rec.payload.hash(h))
            .expect("records");
        (0xC1u8, &self.timers, &self.legacy).hash(h);
    }

    /// Transactions whose writes are still awaiting application to the
    /// legacy system.
    #[must_use]
    pub fn applying(&self) -> Vec<TxnId> {
        self.txns
            .iter()
            .filter(|(_, t)| matches!(t.phase, GatewayPhase::Applying { .. }))
            .map(|(t, _)| *t)
            .collect()
    }

    /// Buffer a write for `txn` (the MDBS routes the operation through
    /// the gateway instead of the legacy interface — the "rerouting"
    /// leaf of the taxonomy). The gateway takes ownership of key and
    /// value, as the storage engine's `put` does: a `Vec` passed in is
    /// kept, not copied.
    pub fn stage_write(&mut self, txn: TxnId, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) {
        let t = self.txns.entry(txn).or_insert(GatewayTxn {
            phase: GatewayPhase::Collecting,
            writes: Vec::new(),
        });
        if t.phase == GatewayPhase::Collecting {
            t.writes.push((key.into(), value.into()));
        }
    }

    fn append(&mut self, txn: TxnId, payload: LogPayload, force: bool, out: &mut Vec<Action>) {
        let kind = payload.kind_name();
        let lsn = self.log.next_lsn();
        self.gc.note(lsn, &payload);
        self.log.append(payload, force).expect("gateway log append");
        out.push(Action::Acta(ActaEvent::LogWrite {
            site: self.site,
            txn,
            kind,
            forced: force,
        }));
    }

    fn arm_timer(&mut self, txn: TxnId, purpose: TimerPurpose, attempt: u32, out: &mut Vec<Action>) {
        let token = self.next_token;
        self.next_token += 1;
        self.timers.insert(token, txn);
        out.push(Action::SetTimer {
            token,
            purpose,
            attempt,
        });
    }

    /// Handle a prepare request: take the reservation, force the redo
    /// information, vote.
    fn on_prepare(&mut self, coordinator: SiteId, txn: TxnId, out: &mut Vec<Action>) {
        let Some(state) = self.txns.get(&txn) else {
            // No staged writes: read-only from the gateway's view.
            out.push(Action::send(
                coordinator,
                Payload::Vote {
                    txn,
                    vote: Vote::ReadOnly,
                },
            ));
            return;
        };
        match &state.phase {
            GatewayPhase::Collecting => {}
            GatewayPhase::SimulatedPrepared { .. } => {
                out.push(Action::send(
                    coordinator,
                    Payload::Vote {
                        txn,
                        vote: Vote::Yes,
                    },
                ));
                return;
            }
            GatewayPhase::Applying { .. } => return,
        }
        // Exclusive right reservation: refuse if any written key is
        // reserved by another transaction.
        let conflict = state.writes.iter().any(|(k, _)| {
            self.reservations
                .get(k)
                .is_some_and(|holder| *holder != txn)
        });
        if conflict {
            self.txns.remove(&txn);
            self.enforced.insert(txn, Outcome::Abort);
            out.push(Action::Enforce {
                txn,
                outcome: Outcome::Abort,
            });
            out.push(Action::send(
                coordinator,
                Payload::Vote {
                    txn,
                    vote: Vote::No,
                },
            ));
            out.push(Action::Acta(ActaEvent::ForgetPart {
                participant: self.site,
                txn,
            }));
            return;
        }
        // Reserve, force redo info + prepared record, vote Yes.
        let writes = state.writes.clone();
        for (k, _) in &writes {
            self.reservations.insert(k.clone(), txn);
        }
        for (key, value) in &writes {
            self.append(
                txn,
                LogPayload::Update {
                    txn,
                    key: key.clone(),
                    before: None,
                    after: Some(value.clone()),
                },
                false,
                out,
            );
        }
        self.append(txn, LogPayload::Prepared { txn, coordinator }, true, out);
        out.push(Action::Acta(ActaEvent::Prepared {
            participant: self.site,
            txn,
        }));
        self.txns.get_mut(&txn).expect("present").phase = GatewayPhase::SimulatedPrepared {
            coordinator,
            inquiries_sent: 0,
        };
        out.push(Action::send(
            coordinator,
            Payload::Vote {
                txn,
                vote: Vote::Yes,
            },
        ));
        self.arm_timer(txn, TimerPurpose::InquiryRetry, 0, out);
    }

    /// Try to push a committed transaction's writes into the legacy
    /// system; reschedule on unavailability.
    fn try_apply(&mut self, txn: TxnId, out: &mut Vec<Action>) {
        let Some(state) = self.txns.get_mut(&txn) else {
            return;
        };
        let GatewayPhase::Applying { next_write } = &mut state.phase else {
            return;
        };
        while *next_write < state.writes.len() {
            let (k, v) = &state.writes[*next_write];
            match self.legacy.write(k, v) {
                Ok(()) => *next_write += 1,
                Err(Unavailable) => {
                    // Commitment-after/redo: keep retrying. Availability
                    // is binary, so the retry interval stays flat
                    // (attempt 0) rather than backing off.
                    self.arm_timer(txn, TimerPurpose::ApplyRetry, 0, out);
                    return;
                }
            }
        }
        // Fully applied: release reservations, close out.
        let state = self.txns.remove(&txn).expect("present");
        for (k, _) in &state.writes {
            self.reservations.remove(k);
        }
        self.append(txn, LogPayload::PartEnd { txn }, false, out);
        out.push(Action::Acta(ActaEvent::ForgetPart {
            participant: self.site,
            txn,
        }));
    }

    fn on_decision(&mut self, from: SiteId, txn: TxnId, outcome: Outcome, out: &mut Vec<Action>) {
        let Some(state) = self.txns.get_mut(&txn) else {
            // Footnote 5: no memory ⇒ already enforced; just acknowledge.
            if self.declared.acks(outcome) {
                out.push(Action::send(from, Payload::Ack { txn }));
            }
            return;
        };
        let GatewayPhase::SimulatedPrepared { coordinator, .. } = state.phase else {
            return;
        };
        // Durable decision record: forced exactly when the declared
        // dialect acknowledges (the ack promises stability — same rule
        // as a native participant).
        let force = self.declared.forces_decision(outcome);
        self.append(txn, LogPayload::PartDecision { txn, outcome }, force, out);
        self.enforced.insert(txn, outcome);
        out.push(Action::Enforce { txn, outcome });
        out.push(Action::Acta(ActaEvent::Enforce {
            participant: self.site,
            txn,
            outcome,
        }));
        if self.declared.acks(outcome) {
            out.push(Action::send(coordinator, Payload::Ack { txn }));
        }
        match outcome {
            Outcome::Commit => {
                // The redo log makes the commit durable here; the legacy
                // application happens (and retries) asynchronously.
                self.txns.get_mut(&txn).expect("present").phase =
                    GatewayPhase::Applying { next_write: 0 };
                self.try_apply(txn, out);
            }
            Outcome::Abort => {
                let state = self.txns.remove(&txn).expect("present");
                for (k, _) in &state.writes {
                    self.reservations.remove(k);
                }
                self.append(txn, LogPayload::PartEnd { txn }, false, out);
                out.push(Action::Acta(ActaEvent::ForgetPart {
                    participant: self.site,
                    txn,
                }));
            }
        }
    }

    /// Route an incoming message.
    pub fn on_message(&mut self, from: SiteId, payload: &Payload) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_message_into(from, payload, &mut out);
        out
    }

    /// [`GatewayParticipant::on_message`], appending the actions to `out`.
    pub fn on_message_into(&mut self, from: SiteId, payload: &Payload, out: &mut Vec<Action>) {
        match payload {
            Payload::Prepare { txn } => self.on_prepare(from, *txn, out),
            Payload::Decision { txn, outcome } | Payload::InquiryResponse { txn, outcome } => {
                self.on_decision(from, *txn, *outcome, out);
            }
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

    /// Timer callback: inquiry retries while simulated-prepared, apply
    /// retries while applying.
    pub fn on_timer(&mut self, token: u64) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_timer_into(token, &mut out);
        out
    }

    /// [`GatewayParticipant::on_timer`], appending the actions to `out`.
    pub fn on_timer_into(&mut self, token: u64, out: &mut Vec<Action>) {
        let Some(txn) = self.timers.remove(&token) else {
            return;
        };
        match self.txns.get_mut(&txn).map(|t| &mut t.phase) {
            Some(GatewayPhase::SimulatedPrepared {
                coordinator,
                inquiries_sent,
            }) => {
                let coordinator = *coordinator;
                *inquiries_sent += 1;
                let attempts = *inquiries_sent;
                out.push(Action::Acta(ActaEvent::Inquire {
                    participant: self.site,
                    txn,
                    protocol: self.declared,
                }));
                let protocol = self.declared;
                out.push(Action::send(
                    coordinator,
                    Payload::Inquiry { txn, protocol },
                ));
                if attempts < crate::participant::MAX_INQUIRY_RETRIES {
                    self.arm_timer(txn, TimerPurpose::InquiryRetry, attempts, out);
                }
            }
            Some(GatewayPhase::Applying { .. }) => self.try_apply(txn, out),
            _ => {}
        }
    }

    /// Gateway crash: volatile state lost; the legacy system is a
    /// separate failure domain and keeps its data.
    pub fn crash(&mut self) {
        self.txns.clear();
        self.reservations.clear();
        self.timers.clear();
        self.log.lose_unflushed().expect("log crash");
        self.gc = GcTracker::from_log(&self.log).expect("records");
    }

    /// Recovery: rebuild simulated-prepared and applying transactions
    /// from the redo log.
    pub fn recover(&mut self) -> Vec<Action> {
        let mut out = Vec::new();
        self.recover_into(&mut out);
        out
    }

    /// [`GatewayParticipant::recover`], appending the actions to `out`.
    pub fn recover_into(&mut self, out: &mut Vec<Action>) {
        self.gc = GcTracker::from_log(&self.log).expect("records");
        let summaries = acp_wal::scan::analyze_log(&self.log).expect("records");
        for (txn, s) in summaries {
            if s.part_ended {
                continue;
            }
            let writes: Vec<(Vec<u8>, Vec<u8>)> = s
                .updates
                .iter()
                .filter_map(|(k, _, after)| after.clone().map(|v| (k.clone(), v)))
                .collect();
            if s.in_doubt() {
                let coordinator = s.prepared.expect("in doubt implies prepared");
                for (k, _) in &writes {
                    self.reservations.insert(k.clone(), txn);
                }
                self.txns.insert(
                    txn,
                    GatewayTxn {
                        phase: GatewayPhase::SimulatedPrepared {
                            coordinator,
                            inquiries_sent: 1,
                        },
                        writes,
                    },
                );
                out.push(Action::Acta(ActaEvent::Inquire {
                    participant: self.site,
                    txn,
                    protocol: self.declared,
                }));
                let protocol = self.declared;
                out.push(Action::send(
                    coordinator,
                    Payload::Inquiry { txn, protocol },
                ));
                self.arm_timer(txn, TimerPurpose::InquiryRetry, 1, out);
            } else if let Some(outcome) = s.part_decision {
                self.enforced.entry(txn).or_insert(outcome);
                if outcome == Outcome::Commit {
                    // Resume the redo application (idempotent: blind
                    // writes re-applied from position 0).
                    for (k, _) in &writes {
                        self.reservations.insert(k.clone(), txn);
                    }
                    self.txns.insert(
                        txn,
                        GatewayTxn {
                            phase: GatewayPhase::Applying { next_write: 0 },
                            writes,
                        },
                    );
                    self.try_apply(txn, out);
                } else {
                    self.append(txn, LogPayload::PartEnd { txn }, false, out);
                    out.push(Action::Acta(ActaEvent::ForgetPart {
                        participant: self.site,
                        txn,
                    }));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::sent_payloads;
    use acp_wal::MemLog;

    fn coord() -> SiteId {
        SiteId::new(0)
    }

    fn t() -> TxnId {
        TxnId::new(1)
    }

    fn gateway(declared: ProtocolKind) -> GatewayParticipant<MemLog> {
        GatewayParticipant::new(SiteId::new(1), declared, MemLog::new(), LegacyStore::new())
    }

    #[test]
    fn prepare_forces_redo_info_and_votes_yes() {
        let mut g = gateway(ProtocolKind::PrA);
        g.stage_write(t(), b"k", b"v");
        let a = g.on_message(coord(), &Payload::Prepare { txn: t() });
        let sends = sent_payloads(&a);
        assert!(matches!(
            sends[0].1,
            Payload::Vote {
                vote: Vote::Yes,
                ..
            }
        ));
        // Redo update record + forced prepared record are durable.
        let kinds: Vec<_> = g
            .log
            .records()
            .unwrap()
            .iter()
            .map(|r| r.payload.kind_name().to_string())
            .collect();
        assert_eq!(kinds, vec!["update", "prepared"]);
        // Nothing applied to the legacy system yet.
        assert_eq!(g.legacy().read(b"k"), None);
    }

    fn state_hash(g: &GatewayParticipant<MemLog>) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        g.hash_state(&mut h);
        h.finish()
    }

    /// The explorer's dedup key: two gateways fed the same inputs agree
    /// on it, and a collecting transaction is told apart from the same
    /// transaction in its simulated prepared state.
    #[test]
    fn hash_state_and_fingerprint_separate_collecting_from_simulated_prepared() {
        let (mut a, mut b) = (gateway(ProtocolKind::PrA), gateway(ProtocolKind::PrA));
        for g in [&mut a, &mut b] {
            g.stage_write(t(), b"k", b"v");
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(state_hash(&a), state_hash(&b));
        let collecting = (a.fingerprint(), state_hash(&a));

        a.on_message(coord(), &Payload::Prepare { txn: t() });
        assert!(a.fingerprint().contains("SimulatedPrepared"));
        assert_ne!(a.fingerprint(), collecting.0);
        assert_ne!(state_hash(&a), collecting.1);

        b.on_message(coord(), &Payload::Prepare { txn: t() });
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(state_hash(&a), state_hash(&b));
    }

    #[test]
    fn commit_applies_to_legacy_and_releases_reservation() {
        let mut g = gateway(ProtocolKind::PrA);
        g.stage_write(t(), b"k", b"v");
        g.on_message(coord(), &Payload::Prepare { txn: t() });
        let a = g.on_message(
            coord(),
            &Payload::Decision {
                txn: t(),
                outcome: Outcome::Commit,
            },
        );
        assert!(sent_payloads(&a)
            .iter()
            .any(|(_, p)| matches!(p, Payload::Ack { .. })));
        assert_eq!(g.legacy().read(b"k"), Some(b"v".as_slice()));
        assert!(g.applying().is_empty());
        assert_eq!(g.enforced(t()), Some(Outcome::Commit));
        // A new transaction can reserve the key again.
        let t2 = TxnId::new(2);
        g.stage_write(t2, b"k", b"w");
        let a = g.on_message(coord(), &Payload::Prepare { txn: t2 });
        assert!(matches!(
            sent_payloads(&a)[0].1,
            Payload::Vote {
                vote: Vote::Yes,
                ..
            }
        ));
    }

    #[test]
    fn abort_discards_without_touching_legacy() {
        let mut g = gateway(ProtocolKind::PrC);
        g.stage_write(t(), b"k", b"v");
        g.on_message(coord(), &Payload::Prepare { txn: t() });
        let a = g.on_message(
            coord(),
            &Payload::Decision {
                txn: t(),
                outcome: Outcome::Abort,
            },
        );
        // PrC dialect acks aborts.
        assert!(sent_payloads(&a)
            .iter()
            .any(|(_, p)| matches!(p, Payload::Ack { .. })));
        assert_eq!(g.legacy().read(b"k"), None);
        assert_eq!(g.enforced(t()), Some(Outcome::Abort));
    }

    #[test]
    fn commit_while_legacy_down_acks_then_retries_until_up() {
        let mut g = gateway(ProtocolKind::PrA);
        g.stage_write(t(), b"k", b"v");
        g.on_message(coord(), &Payload::Prepare { txn: t() });
        g.legacy_mut().set_available(false);
        let a = g.on_message(
            coord(),
            &Payload::Decision {
                txn: t(),
                outcome: Outcome::Commit,
            },
        );
        // The ack goes out immediately — the redo log made the commit
        // durable at the gateway.
        assert!(sent_payloads(&a)
            .iter()
            .any(|(_, p)| matches!(p, Payload::Ack { .. })));
        assert_eq!(g.legacy().read(b"k"), None, "not applied yet");
        assert_eq!(g.applying(), vec![t()]);
        // A retry timer was armed.
        let token = a
            .iter()
            .find_map(|x| match x {
                Action::SetTimer {
                    token,
                    purpose: TimerPurpose::ApplyRetry,
                    ..
                } => Some(*token),
                _ => None,
            })
            .expect("retry armed");
        // Retry while still down: re-arms.
        let a = g.on_timer(token);
        let token = a
            .iter()
            .find_map(|x| match x {
                Action::SetTimer {
                    token,
                    purpose: TimerPurpose::ApplyRetry,
                    ..
                } => Some(*token),
                _ => None,
            })
            .expect("re-armed");
        // Legacy comes back; retry succeeds.
        g.legacy_mut().set_available(true);
        g.on_timer(token);
        assert_eq!(g.legacy().read(b"k"), Some(b"v".as_slice()));
        assert!(g.applying().is_empty());
    }

    #[test]
    fn reservation_conflicts_vote_no() {
        let mut g = gateway(ProtocolKind::PrA);
        g.stage_write(t(), b"k", b"v1");
        g.on_message(coord(), &Payload::Prepare { txn: t() });
        let t2 = TxnId::new(2);
        g.stage_write(t2, b"k", b"v2");
        let a = g.on_message(coord(), &Payload::Prepare { txn: t2 });
        assert!(matches!(
            sent_payloads(&a)[0].1,
            Payload::Vote { vote: Vote::No, .. }
        ));
        assert_eq!(g.enforced(t2), Some(Outcome::Abort));
    }

    #[test]
    fn no_staged_writes_votes_read_only() {
        let mut g = gateway(ProtocolKind::PrN);
        let a = g.on_message(coord(), &Payload::Prepare { txn: t() });
        assert!(matches!(
            sent_payloads(&a)[0].1,
            Payload::Vote {
                vote: Vote::ReadOnly,
                ..
            }
        ));
    }

    #[test]
    fn gateway_crash_in_simulated_prepared_recovers_and_inquires() {
        let mut g = gateway(ProtocolKind::PrA);
        g.stage_write(t(), b"k", b"v");
        g.on_message(coord(), &Payload::Prepare { txn: t() });
        g.crash();
        let a = g.recover();
        let sends = sent_payloads(&a);
        assert!(matches!(
            sends[0].1,
            Payload::Inquiry {
                protocol: ProtocolKind::PrA,
                ..
            }
        ));
        // The inquiry response commits it; the redo info survived the
        // crash, so the legacy write still happens.
        g.on_message(
            coord(),
            &Payload::InquiryResponse {
                txn: t(),
                outcome: Outcome::Commit,
            },
        );
        assert_eq!(g.legacy().read(b"k"), Some(b"v".as_slice()));
    }

    #[test]
    fn gateway_crash_mid_apply_resumes_redo() {
        let mut g = gateway(ProtocolKind::PrN);
        g.stage_write(t(), b"a", b"1");
        g.stage_write(t(), b"b", b"2");
        g.on_message(coord(), &Payload::Prepare { txn: t() });
        g.legacy_mut().set_available(false);
        g.on_message(
            coord(),
            &Payload::Decision {
                txn: t(),
                outcome: Outcome::Commit,
            },
        );
        // Crash before any write applied. The decision record was forced
        // (PrN acks commits), so recovery resumes applying.
        g.crash();
        g.legacy_mut().set_available(true);
        let a = g.recover();
        let _ = a;
        assert_eq!(g.legacy().read(b"a"), Some(b"1".as_slice()));
        assert_eq!(g.legacy().read(b"b"), Some(b"2".as_slice()));
        assert!(g.applying().is_empty());
    }

    /// End-to-end: a coordinator, one native PrC participant and one
    /// PrA-dialect gateway commit a transaction together — the
    /// coordinator cannot tell the difference.
    #[test]
    fn interoperates_with_native_participants_under_prany() {
        use crate::coordinator::Coordinator;
        use crate::participant::Participant;
        use acp_types::{CoordinatorKind, SelectionPolicy};

        let mut c = Coordinator::new(
            coord(),
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            MemLog::new(),
        );
        c.register_site(SiteId::new(1), ProtocolKind::PrA); // the gateway's dialect
        c.register_site(SiteId::new(2), ProtocolKind::PrC);
        let mut g = gateway(ProtocolKind::PrA);
        let mut p = Participant::new(SiteId::new(2), ProtocolKind::PrC, MemLog::new());

        g.stage_write(t(), b"order", b"42");

        // Message pump: route every Send action to its destination, and
        // note the decision.
        let mut queue: Vec<(SiteId, SiteId, Payload)> = Vec::new();
        let mut decided = None;
        let mut push = |from: SiteId, actions: Vec<Action>, queue: &mut Vec<_>| {
            for a in actions {
                match a {
                    Action::Send { to, payload } => queue.push((from, to, payload)),
                    Action::Acta(ActaEvent::Decide { outcome, .. }) => decided = Some(outcome),
                    _ => {}
                }
            }
        };
        let a = c.begin_commit(t(), &[SiteId::new(1), SiteId::new(2)]);
        push(coord(), a, &mut queue);
        let mut hops = 0;
        while let Some((from, to, payload)) = queue.pop() {
            hops += 1;
            assert!(hops < 100, "message storm");
            let actions = match to.raw() {
                0 => c.on_message(from, &payload),
                1 => g.on_message(from, &payload),
                2 => p.on_message(from, &payload),
                _ => unreachable!(),
            };
            push(to, actions, &mut queue);
        }
        assert_eq!(decided, Some(Outcome::Commit));
        assert_eq!(g.enforced(t()), Some(Outcome::Commit));
        assert_eq!(p.enforced(t()), Some(Outcome::Commit));
        assert_eq!(g.legacy().read(b"order"), Some(b"42".as_slice()));
        assert_eq!(c.protocol_table_size(), 0, "coordinator forgot");
    }
}
