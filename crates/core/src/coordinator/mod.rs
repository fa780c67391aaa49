//! The coordinator engine.
//!
//! One engine executes every coordinator variant in the paper; the
//! differences between PrN, PrA, PrC, U2PC, C2PC and PrAny are entirely
//! contained in the per-transaction [`plan::CommitPlan`]. The engine
//! owns the participants' commit protocol (PCP) table — "a coordinator
//! records the 2PC protocol employed by each participant in a table
//! called participants' commit protocol (PCP) … kept on stable storage"
//! (§4) — a volatile protocol table, and the stable log.

pub mod plan;
pub mod recovery;
pub mod select;

use crate::action::{Action, TimerPurpose};
use plan::{CommitPlan, InquiryRule};

use acp_acta::ActaEvent;
use acp_types::{
    CoordinatorKind, LogPayload, Outcome, ParticipantEntry, Payload, ProtocolKind, SiteId, TxnId,
    Vote,
};
use acp_wal::{GcTracker, StableLog, WalError};
use std::collections::BTreeMap;

/// Maximum decision re-sends before the coordinator stops actively
/// retrying (it keeps the table entry — C2PC's "remember forever" is
/// about state, not about spamming the network; the bound also
/// guarantees simulated runs quiesce).
pub const MAX_DECISION_RESENDS: u32 = 16;

/// Volatile per-transaction coordinator state.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Phase {
    /// Collecting votes (into the entry's slots).
    Voting,
    /// Decision made; awaiting the acknowledgments the slots flag.
    Deciding {
        /// The decision.
        outcome: Outcome,
        /// Re-send attempts so far.
        resends: u32,
    },
}

/// One participant site's place in a transaction: its vote while the
/// coordinator collects them, and whether its acknowledgment is still
/// awaited once decided.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot {
    site: SiteId,
    vote: Option<Vote>,
    awaiting: bool,
}

/// A protocol-table entry.
#[derive(Clone, Debug)]
pub(crate) struct TxnState {
    /// The participant list in the client's order, which the initiation
    /// or decision record borrows for its append.
    pub(crate) participants: Vec<ParticipantEntry>,
    /// One slot per distinct participant site, in ascending `SiteId`
    /// order: the order resends, recovery's re-sends and the checker's
    /// state rendering walk them in.
    pub(crate) slots: Vec<Slot>,
    pub(crate) plan: CommitPlan,
    pub(crate) phase: Phase,
    /// Whether any log record was written for this transaction (decides
    /// whether an end record is due at completion).
    pub(crate) logged_any: bool,
    /// The transaction's most recently armed timer: the vote timeout
    /// while voting, the ack re-send once decided — what eager
    /// retirement cancels without scanning every armed timer.
    pub(crate) timer: Option<u64>,
}

impl TxnState {
    /// An entry over `participants`: one slot per distinct site, nothing
    /// voted or awaited, built in `slots` (emptied, capacity kept).
    pub(crate) fn new(
        participants: Vec<ParticipantEntry>,
        mut slots: Vec<Slot>,
        plan: CommitPlan,
        phase: Phase,
        logged_any: bool,
    ) -> Self {
        let slot = |p: &ParticipantEntry| Slot {
            site: p.site,
            vote: None,
            awaiting: false,
        };
        slots.clear();
        slots.extend(participants.iter().map(slot));
        slots.sort_unstable_by_key(|s| s.site);
        slots.dedup_by_key(|s| s.site);
        TxnState {
            participants,
            slots,
            plan,
            phase,
            logged_any,
            timer: None,
        }
    }

    fn slot(&self, site: SiteId) -> Option<&Slot> {
        let i = self.slots.binary_search_by_key(&site, |s| s.site).ok()?;
        Some(&self.slots[i])
    }

    fn slot_mut(&mut self, site: SiteId) -> Option<&mut Slot> {
        let i = self.slots.binary_search_by_key(&site, |s| s.site).ok()?;
        Some(&mut self.slots[i])
    }

    /// Is `site` in phase two? Everyone is except unilateral aborters
    /// (voted "No") and read-only voters, both of which dropped out of
    /// it. Participants whose vote has not arrived are *included*: they
    /// may be prepared, so the decision (and its acknowledgment
    /// bookkeeping) must reach them.
    fn in_phase_two(&self, site: SiteId) -> bool {
        let vote = self.slot(site).and_then(|s| s.vote);
        !matches!(vote, Some(Vote::No | Vote::ReadOnly))
    }

    /// Phase two's recipients, in list order.
    fn recipients(&self) -> impl Iterator<Item = &ParticipantEntry> {
        self.participants
            .iter()
            .filter(|p| self.in_phase_two(p.site))
    }

    /// Flag every phase-two recipient whose acknowledgment the plan
    /// awaits for `outcome`; returns whether any is awaited.
    fn await_acks(&mut self, outcome: Outcome) -> bool {
        let mut any = false;
        for i in 0..self.participants.len() {
            let p = self.participants[i];
            if self.in_phase_two(p.site) && self.plan.awaits_ack(outcome, &p) {
                self.slot_mut(p.site).expect("a slot per site").awaiting = true;
                any = true;
            }
        }
        any
    }

    /// The votes received, by ascending site.
    fn votes(&self) -> impl Iterator<Item = (SiteId, Vote)> + '_ {
        self.slots.iter().filter_map(|s| Some((s.site, s.vote?)))
    }

    /// The sites whose acknowledgment is awaited, ascending.
    fn awaited(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.slots.iter().filter(|s| s.awaiting).map(|s| s.site)
    }
}

/// Emptied entries of finished transactions, their buffers' capacity
/// kept for [`Coordinator::begin_commit_into`]: never more than were
/// open at once. No state rendering or hash reads them, and a clone
/// (the explorer's per-state copy) starts without.
#[derive(Debug, Default)]
pub(crate) struct Spare(pub(crate) Vec<TxnState>);

impl Clone for Spare {
    fn clone(&self) -> Self {
        Spare::default()
    }
}

/// The coordinator engine. See module docs.
///
/// # Example
///
/// Drive one PrAny commit over a mixed PrA + PrC population by hand
/// (the `harness` module does this inside the simulator; the engine is
/// sans-IO, so it can be driven from anything):
///
/// ```
/// use acp_acta::ActaEvent;
/// use acp_core::coordinator::Coordinator;
/// use acp_core::Action;
/// use acp_types::{
///     CoordinatorKind, Outcome, Payload, ProtocolKind, SelectionPolicy, SiteId, TxnId, Vote,
/// };
/// use acp_wal::MemLog;
///
/// let mut c = Coordinator::new(
///     SiteId::new(0),
///     CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
///     MemLog::new(),
/// );
/// c.register_site(SiteId::new(1), ProtocolKind::PrA);
/// c.register_site(SiteId::new(2), ProtocolKind::PrC);
///
/// let txn = TxnId::new(1);
/// let actions = c.begin_commit(txn, &[SiteId::new(1), SiteId::new(2)]);
/// assert!(!actions.is_empty()); // initiation force + prepares + vote timer
///
/// c.on_message(SiteId::new(1), &Payload::Vote { txn, vote: Vote::Yes });
/// let actions = c.on_message(SiteId::new(2), &Payload::Vote { txn, vote: Vote::Yes });
/// let decide = ActaEvent::Decide { coordinator: c.site(), txn, outcome: Outcome::Commit };
/// assert!(actions.contains(&Action::Acta(decide)));
///
/// // Only the PrA participant acknowledges commits; its ack completes
/// // the protocol and the coordinator forgets the transaction.
/// c.on_message(SiteId::new(1), &Payload::Ack { txn });
/// assert_eq!(c.protocol_table_size(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct Coordinator<L: StableLog> {
    pub(crate) site: SiteId,
    pub(crate) kind: CoordinatorKind,
    pub(crate) log: L,
    /// Participants' commit protocols (PCP). Conceptually on stable
    /// storage, updated only when sites join/leave — so it survives
    /// crashes.
    pub(crate) pcp: BTreeMap<SiteId, ProtocolKind>,
    /// The volatile protocol table (cleared on crash, rebuilt by §4.2
    /// log analysis), in transaction order: the order the checker's
    /// state rendering walks it in.
    pub(crate) table: BTreeMap<TxnId, TxnState>,
    pub(crate) gc: GcTracker,
    pub(crate) timers: BTreeMap<u64, (TxnId, TimerPurpose)>,
    pub(crate) next_token: u64,
    /// When set, timers made obsolete by protocol progress (a vote
    /// timeout once the decision is fixed, ack re-sends once the
    /// transaction finishes) are retired eagerly and their tokens
    /// buffered for [`Coordinator::drain_cancelled_timers`]. Off by
    /// default: the simulator and model checker keep the historical
    /// lazy-expiry behaviour (stale tokens are ignored when they fire),
    /// so their state spaces and traces are untouched.
    track_cancellations: bool,
    /// Retired timer tokens not yet drained by the host.
    cancelled: Vec<u64>,
    pub(crate) spare: Spare,
    /// Truncate the log automatically whenever the releasable prefix
    /// grows (on by default).
    pub auto_gc: bool,
}

impl<L: StableLog> Coordinator<L> {
    /// Create a coordinator of the given kind.
    pub fn new(site: SiteId, kind: CoordinatorKind, log: L) -> Self {
        Coordinator {
            site,
            kind,
            log,
            pcp: BTreeMap::new(),
            table: BTreeMap::new(),
            gc: GcTracker::new(),
            timers: BTreeMap::new(),
            next_token: 0,
            track_cancellations: false,
            cancelled: Vec::new(),
            spare: Spare::default(),
            auto_gc: true,
        }
    }

    /// Register a participant site's protocol in the PCP table ("the
    /// PCP is kept on stable storage and is updated when a new site
    /// joins or leaves the distributed environment", §4). Re-registering
    /// an existing site changes its protocol for *future* transactions;
    /// in-flight and recovered transactions keep the protocols recorded
    /// in their initiation/decision records.
    pub fn register_site(&mut self, site: SiteId, protocol: ProtocolKind) {
        self.pcp.insert(site, protocol);
    }

    /// Remove a departed site from the PCP. Refused while the site still
    /// participates in an in-flight transaction — the paper's model has
    /// sites leave the *environment*, not abscond mid-protocol.
    pub fn unregister_site(&mut self, site: SiteId) -> Result<(), acp_types::ProtocolViolation> {
        if let Some((&txn, _)) = self.table.iter().find(|(_, st)| st.slot(site).is_some()) {
            return Err(acp_types::ProtocolViolation::new(
                self.site,
                Some(txn),
                format!("{site} still participates in an in-flight transaction"),
            ));
        }
        self.pcp.remove(&site);
        Ok(())
    }

    /// The registered protocol of a site, if known.
    #[must_use]
    pub fn site_protocol(&self, site: SiteId) -> Option<ProtocolKind> {
        self.pcp.get(&site).copied()
    }

    /// This coordinator's site id.
    #[must_use]
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The coordinator variant this engine runs.
    #[must_use]
    pub fn kind(&self) -> CoordinatorKind {
        self.kind
    }

    /// Number of transactions currently in the protocol table.
    #[must_use]
    pub fn protocol_table_size(&self) -> usize {
        self.table.len()
    }

    /// Transactions currently in the protocol table.
    #[must_use]
    pub fn protocol_table_txns(&self) -> Vec<TxnId> {
        self.table.keys().copied().collect()
    }

    /// Is `txn` currently in the protocol table? O(log n) — use this
    /// instead of `protocol_table_txns().contains(..)`, which clones
    /// every key.
    #[must_use]
    pub fn in_flight(&self, txn: TxnId) -> bool {
        self.table.contains_key(&txn)
    }

    /// Enable (or disable) eager timer retirement: with tracking on,
    /// timers that protocol progress makes obsolete are removed from
    /// the engine's live set immediately and surfaced through
    /// [`Coordinator::drain_cancelled_timers`], so hosts with a real
    /// timer wheel (the reactor) can cancel the wheel entries instead
    /// of letting them fire into a no-op. Default off — see the field
    /// docs for why the simulator and checker stay on lazy expiry.
    pub fn set_track_cancellations(&mut self, on: bool) {
        self.track_cancellations = on;
    }

    /// Drain the timer tokens retired since the last call (empty unless
    /// [`Coordinator::set_track_cancellations`] enabled tracking). The
    /// buffer keeps its capacity.
    pub fn drain_cancelled_timers(&mut self) -> std::vec::Drain<'_, u64> {
        self.cancelled.drain(..)
    }

    /// Retire a transaction's live timer (`token`, from its table
    /// entry), recording it for the host. No-op unless tracking is
    /// enabled, or when the timer already fired.
    fn retire_timer(&mut self, token: Option<u64>) {
        if !self.track_cancellations {
            return;
        }
        if let Some(tok) = token.filter(|tok| self.timers.remove(tok).is_some()) {
            self.cancelled.push(tok);
        }
    }

    /// Is `txn` tabled and still collecting votes?
    fn voting(&self, txn: TxnId) -> bool {
        matches!(self.table.get(&txn).map(|s| s.phase), Some(Phase::Voting))
    }

    /// Transactions still pinning the log (no end record).
    #[must_use]
    pub fn log_pinned(&self) -> Vec<TxnId> {
        self.gc.surviving(&self.log).pinned()
    }

    /// Borrow the stable log.
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

    /// A canonical rendering of the engine's *semantic* state (protocol
    /// table, stable log, PCP, armed timers), used by the model checker
    /// to deduplicate explored states. Per table entry it renders the
    /// votes received while voting, and once decided the outcome, the
    /// awaited sites and the resend count. The spare entries are left
    /// out: they hold nothing of any transaction.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut s = format!("coord:{:?};", self.kind);
        for (txn, st) in &self.table {
            let phase = match st.phase {
                Phase::Voting => format!("Voting{:?}", st.votes().collect::<Vec<_>>()),
                Phase::Deciding { outcome, resends } => {
                    let awaited: Vec<_> = st.awaited().collect();
                    format!("Deciding({outcome:?}, {awaited:?}, {resends})")
                }
            };
            s.push_str(&format!("{txn}={phase}/{:?};", st.plan.mode));
        }
        s.push('|');
        for rec in self.log.records().expect("records") {
            s.push_str(&format!("{};", rec.payload));
        }
        s.push('|');
        for (tok, (txn, p)) in &self.timers {
            s.push_str(&format!("{tok}:{txn}:{p:?};"));
        }
        s
    }

    /// Hash the same semantic state as [`Coordinator::fingerprint`]
    /// directly into `h`, without rendering strings or cloning the log.
    /// This is the model checker's hot path: it runs once per explored
    /// state, so it must not allocate.
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        self.kind.hash(h);
        for (txn, st) in &self.table {
            txn.hash(h);
            match st.phase {
                Phase::Voting => {
                    0u8.hash(h);
                    st.votes().count().hash(h);
                    st.votes().for_each(|vote| vote.hash(h));
                }
                Phase::Deciding { outcome, resends } => {
                    1u8.hash(h);
                    outcome.hash(h);
                    st.awaited().count().hash(h);
                    st.awaited().for_each(|site| site.hash(h));
                    resends.hash(h);
                }
            }
            st.plan.mode.hash(h);
        }
        0xA1u8.hash(h); // section separator, mirrors the '|' in fingerprint()
        self.log
            .for_each_record(&mut |rec| rec.payload.hash(h))
            .expect("records");
        0xA2u8.hash(h);
        for (tok, (txn, p)) in &self.timers {
            (tok, txn, p).hash(h);
        }
    }

    /// The commit mode that would be selected for the given sites (for
    /// experiments and tests).
    #[must_use]
    pub fn mode_for(&self, sites: &[SiteId]) -> acp_types::CommitMode {
        CommitPlan::derive(self.kind, &self.entries(sites)).mode
    }

    // -- internals -----------------------------------------------------

    pub(crate) fn entries(&self, sites: &[SiteId]) -> Vec<ParticipantEntry> {
        sites.iter().map(|&site| self.entry(site)).collect()
    }

    fn entry(&self, site: SiteId) -> ParticipantEntry {
        let protocol = self.pcp.get(&site);
        let protocol = protocol.unwrap_or_else(|| panic!("site {site} not registered in PCP"));
        ParticipantEntry::new(site, *protocol)
    }

    /// Append `payload` to the log and record the write. The log
    /// encodes from the reference, so a caller may lend its own buffers
    /// to the payload and take them back afterwards, whatever this
    /// returns.
    pub(crate) fn append(
        &mut self,
        txn: TxnId,
        payload: &LogPayload,
        force: bool,
        out: &mut Vec<Action>,
    ) -> Result<(), WalError> {
        let kind = payload.kind_name();
        let lsn = self.log.next_lsn();
        self.gc.note_pending(lsn, payload, self.log.durable_end());
        self.log.append_ref(payload, force)?;
        out.push(Action::Acta(ActaEvent::LogWrite {
            site: self.site,
            txn,
            kind,
            forced: force,
        }));
        Ok(())
    }

    pub(crate) fn arm_timer(
        &mut self,
        txn: TxnId,
        purpose: TimerPurpose,
        attempt: u32,
        out: &mut Vec<Action>,
    ) {
        let token = self.next_token;
        self.next_token += 1;
        self.timers.insert(token, (txn, purpose));
        if let Some(state) = self.table.get_mut(&txn) {
            state.timer = Some(token);
        }
        out.push(Action::SetTimer {
            token,
            purpose,
            attempt,
        });
    }

    // -- protocol entry points ------------------------------------------

    /// Start commit processing for `txn` across the given participant
    /// sites: select the mode, write the initiation record if the plan
    /// requires one, and send the prepare-to-commit requests (the voting
    /// phase of Figure 1).
    pub fn begin_commit(&mut self, txn: TxnId, sites: &[SiteId]) -> Vec<Action> {
        let mut out = Vec::new();
        self.begin_commit_into(txn, sites, &mut out);
        out
    }

    /// [`Coordinator::begin_commit`], appending the actions to `out` —
    /// the entry point for hosts that reuse one action buffer.
    pub fn begin_commit_into(&mut self, txn: TxnId, sites: &[SiteId], out: &mut Vec<Action>) {
        assert!(
            !self.table.contains_key(&txn),
            "transaction {txn} already in the protocol table"
        );
        // A finished transaction's emptied entry lends its buffers.
        let spare = self.spare.0.pop().map(|st| (st.participants, st.slots));
        let (mut participants, slots) = spare.unwrap_or_default();
        participants.extend(sites.iter().map(|&site| self.entry(site)));
        let plan = CommitPlan::derive(self.kind, &participants);

        // The initiation record borrows the participant list for its
        // append; the table entry gets the list back before a refused
        // append panics.
        let initiation = LogPayload::Initiation {
            txn,
            participants,
            mode: plan.mode,
        };
        let appended = plan
            .write_initiation
            .then(|| self.append(txn, &initiation, true, out));
        let LogPayload::Initiation { participants, .. } = initiation else {
            unreachable!("built above")
        };
        let logged = plan.write_initiation;
        let state = TxnState::new(participants, slots, plan, Phase::Voting, logged);
        self.table.insert(txn, state);
        appended.transpose().expect("coordinator log append");

        for &site in sites {
            out.push(Action::send(site, Payload::Prepare { txn }));
        }
        self.arm_timer(txn, TimerPurpose::VoteTimeout, 0, out);
    }

    /// Fix the outcome and run the decision phase. Called when all votes
    /// are in, when a "No" vote arrives, or on vote timeout.
    fn decide(&mut self, txn: TxnId, outcome: Outcome, out: &mut Vec<Action>) {
        let state = self.table.get_mut(&txn).expect("decide on tabled txn");
        let Phase::Voting = state.phase else {
            unreachable!("decide called twice")
        };
        state.phase = Phase::Deciding {
            outcome,
            resends: 0,
        };
        let (plan, vote_timer) = (state.plan, state.timer.take());
        let any_recipient = state.recipients().next().is_some();

        out.push(Action::Acta(ActaEvent::Decide {
            coordinator: self.site,
            txn,
            outcome,
        }));
        // The decision supersedes the vote-collection timeout.
        self.retire_timer(vote_timer);

        // Decision record — skipped entirely when there is nobody left in
        // phase two (the read-only optimization: an all-read-only
        // transaction commits with no decision record and no decision
        // messages).
        let mut appended = Ok(());
        if any_recipient {
            if let Some(forced) = plan.decision_record(outcome) {
                // Without an initiation record the decision record lists
                // the participants: the list is lent to it for the append
                // and goes back to the entry whatever the append returns.
                let state = self.table.get_mut(&txn).expect("tabled");
                state.logged_any = true;
                let listed = if plan.write_initiation {
                    Vec::new()
                } else {
                    std::mem::take(&mut state.participants)
                };
                let record = LogPayload::CoordDecision {
                    txn,
                    outcome,
                    participants: listed,
                };
                appended = self.append(txn, &record, forced, out);
                if let LogPayload::CoordDecision { participants, .. } = record {
                    if !plan.write_initiation {
                        self.table.get_mut(&txn).expect("tabled").participants = participants;
                    }
                }
            }
        }
        let state = self.table.get_mut(&txn).expect("tabled");
        // A refused append panics below, so these are never carried out.
        for p in state.recipients() {
            out.push(Action::send(p.site, Payload::Decision { txn, outcome }));
        }
        let awaiting = state.await_acks(outcome);
        appended.expect("coordinator log append");
        if awaiting {
            self.arm_timer(txn, TimerPurpose::AckResend, 0, out);
        } else {
            self.finish(txn, out);
        }
    }

    /// All expected acknowledgments arrived (or none were expected):
    /// write the end record, delete the transaction from the protocol
    /// table (the `DeletePT` event of Definition 2) and garbage collect.
    /// The entry is emptied onto the spare list.
    pub(crate) fn finish(&mut self, txn: TxnId, out: &mut Vec<Action>) {
        let mut state = self.table.remove(&txn).expect("finish on tabled txn");
        // Any still-armed timer for a finished transaction (the ack
        // re-send, typically) is dead weight from here on.
        self.retire_timer(state.timer);
        if state.logged_any {
            self.append(txn, &LogPayload::End { txn }, false, out)
                .expect("coordinator log append");
        }
        state.participants.clear();
        state.slots.clear();
        self.spare.0.push(state);
        out.push(Action::Acta(ActaEvent::DeletePt {
            coordinator: self.site,
            txn,
        }));
        self.auto_collect(out);
    }

    /// Client-requested abort: if the transaction is still in its voting
    /// phase, decide abort now (the transaction's application gave up —
    /// the same decision path as a "No" vote or a vote timeout). Ignored
    /// once a decision exists and for unknown transactions.
    pub fn abort_request(&mut self, txn: TxnId) -> Vec<Action> {
        let mut out = Vec::new();
        if self.voting(txn) {
            self.decide(txn, Outcome::Abort, &mut out);
        }
        out
    }

    /// Handle an incoming message.
    pub fn on_message(&mut self, from: SiteId, payload: &Payload) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_message_into(from, payload, &mut out);
        out
    }

    /// [`Coordinator::on_message`], appending the actions to `out`.
    pub fn on_message_into(&mut self, from: SiteId, payload: &Payload, out: &mut Vec<Action>) {
        match payload {
            Payload::Vote { txn, vote } => self.on_vote(from, *txn, *vote, out),
            Payload::Ack { txn } => self.on_ack(from, *txn, out),
            Payload::Inquiry { txn, protocol } => {
                self.on_inquiry(from, *txn, *protocol, out);
            }
            // Coordinator-side protocol ignores everything else (§2) —
            // including the Paxos Commit vocabulary, which only the
            // `paxos` engines speak.
            Payload::Prepare { .. }
            | Payload::Decision { .. }
            | Payload::InquiryResponse { .. }
            | Payload::PaxosBegin { .. }
            | Payload::Phase1a { .. }
            | Payload::Phase1b { .. }
            | Payload::Phase2a { .. }
            | Payload::Phase2b { .. }
            | Payload::PaxosForget { .. } => {}
        }
    }

    fn on_vote(&mut self, from: SiteId, txn: TxnId, vote: Vote, out: &mut Vec<Action>) {
        // A vote for a transaction no longer in the table (the
        // coordinator decided and forgot while this vote was in flight).
        // A "Yes" voter is prepared and blocked, but its own inquiry
        // timer resolves that through the normal inquiry path — which,
        // unlike answering here, uses the inquirer's protocol from the
        // message itself. Ignore the vote.
        let Some(state) = self.table.get_mut(&txn) else {
            return;
        };
        if let Phase::Deciding { .. } = state.phase {
            // Late vote after the decision (it raced the timeout or a
            // client abort). Nothing to do: the decision was already
            // sent to every phase-two recipient — including
            // participants whose vote had not arrived — and the links
            // are FIFO, so it is ordered behind this vote's prepare.
            // Loss is covered by the ack-resend timer and by the
            // participant's recovery inquiry.
            return;
        }
        let Some(slot) = state.slot_mut(from) else {
            return; // not a participant of this transaction; ignore
        };
        slot.vote = Some(vote);
        if vote == Vote::No {
            self.decide(txn, Outcome::Abort, out);
        } else if state.votes().count() == state.participants.len() {
            self.decide(txn, Outcome::Commit, out);
        }
    }

    fn on_ack(&mut self, from: SiteId, txn: TxnId, out: &mut Vec<Action>) {
        // Duplicate or protocol-violating acks are ignored (§2), as are
        // acks during the voting phase.
        let Some(state) = self.table.get_mut(&txn) else {
            return;
        };
        if let Phase::Voting = state.phase {
            return;
        }
        if let Some(slot) = state.slot_mut(from) {
            slot.awaiting = false;
        }
        if state.awaited().next().is_none() {
            self.finish(txn, out);
        }
    }

    fn on_inquiry(
        &mut self,
        from: SiteId,
        txn: TxnId,
        protocol: ProtocolKind,
        out: &mut Vec<Action>,
    ) {
        let tabled = self.table.get(&txn).map(|state| match state.phase {
            Phase::Voting => None,
            Phase::Deciding { outcome, .. } => Some(outcome),
        });
        match tabled {
            Some(None) => {
                // No decision yet; the participant stays blocked and
                // will retry. (The vote timeout will resolve it.)
                return;
            }
            Some(Some(outcome)) => {
                out.push(Action::Acta(ActaEvent::Respond {
                    coordinator: self.site,
                    txn,
                    participant: from,
                    outcome,
                    by_presumption: false,
                }));
                out.push(Action::send(
                    from,
                    Payload::InquiryResponse { txn, outcome },
                ));
                return;
            }
            None => {}
        }
        let (outcome, by_presumption) = self.answer_unknown(txn, Some(protocol));
        out.push(Action::Acta(ActaEvent::Respond {
            coordinator: self.site,
            txn,
            participant: from,
            outcome,
            by_presumption,
        }));
        out.push(Action::send(
            from,
            Payload::InquiryResponse { txn, outcome },
        ));
    }

    /// Answer for a transaction with no protocol-table entry. Returns
    /// `(outcome, answered_by_presumption)`.
    fn answer_unknown(
        &self,
        txn: TxnId,
        inquirer_protocol: Option<ProtocolKind>,
    ) -> (Outcome, bool) {
        match self.unknown_inquiry_rule() {
            InquiryRule::FixedPresumption(o) => (o, true),
            InquiryRule::InquirerPresumption => {
                // §4.2: adopt the presumption of the inquiring
                // participant's protocol. For a PrN inquirer this is the
                // hidden abort presumption — Theorem 3's proof shows a
                // PrN (or PrA) inquiry about a *forgotten committed*
                // transaction is impossible, so abort is always
                // consistent here.
                let p = inquirer_protocol.unwrap_or(ProtocolKind::PrN);
                (p.presumption(), true)
            }
            InquiryRule::ConsultLog => {
                // Only this transaction's decision record is wanted, and
                // under C2PC the log never shrinks (Theorem 2): look for
                // it in place, summarizing nothing.
                let mut decision = None;
                let mut find = |rec: &acp_wal::LogRecord| match rec.payload {
                    LogPayload::CoordDecision {
                        txn: t, outcome, ..
                    } if t == txn => {
                        decision = Some(outcome);
                    }
                    _ => {}
                };
                self.log.for_each_record(&mut find).expect("records");
                match decision {
                    Some(o) => (o, false),
                    // Never decided (or the records were reclaimed after
                    // every ack arrived — in which case nobody can be
                    // left to inquire): abort is the only outcome the
                    // coordinator can still guarantee.
                    None => (Outcome::Abort, true),
                }
            }
        }
    }

    /// The unknown-transaction inquiry rule for this coordinator kind
    /// (population-independent).
    pub(crate) fn unknown_inquiry_rule(&self) -> InquiryRule {
        match self.kind {
            CoordinatorKind::Single(p) | CoordinatorKind::U2pc(p) => {
                InquiryRule::FixedPresumption(p.presumption())
            }
            CoordinatorKind::C2pc(_) => InquiryRule::ConsultLog,
            CoordinatorKind::PrAny(_) => InquiryRule::InquirerPresumption,
        }
    }

    /// Timer callback.
    pub fn on_timer(&mut self, token: u64) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_timer_into(token, &mut out);
        out
    }

    /// [`Coordinator::on_timer`], appending the actions to `out`.
    pub fn on_timer_into(&mut self, token: u64, out: &mut Vec<Action>) {
        let Some((txn, purpose)) = self.timers.remove(&token) else {
            return;
        };
        match purpose {
            TimerPurpose::VoteTimeout => {
                if self.voting(txn) {
                    // §4.2: failures are detected by timeouts — missing
                    // votes abort the transaction.
                    self.decide(txn, Outcome::Abort, out);
                }
            }
            TimerPurpose::AckResend => {
                let Some(state) = self.table.get_mut(&txn) else {
                    return;
                };
                let Phase::Deciding { outcome, resends } = &mut state.phase else {
                    return;
                };
                *resends += 1;
                let (attempts, outcome) = (*resends, *outcome);
                for to in state.awaited() {
                    out.push(Action::send(to, Payload::Decision { txn, outcome }));
                }
                if attempts < MAX_DECISION_RESENDS {
                    self.arm_timer(txn, TimerPurpose::AckResend, attempts, out);
                }
            }
            // Participant/gateway/paxos-side purposes: not ours.
            TimerPurpose::InquiryRetry
            | TimerPurpose::ApplyRetry
            | TimerPurpose::PaxosCompletion => {}
        }
    }

    /// The site fail-stops: the protocol table, its spare entries,
    /// timers and unflushed log records are lost; the PCP (stable
    /// configuration) and the forced log survive.
    pub fn crash(&mut self) {
        self.table.clear();
        self.spare.0.clear();
        self.timers.clear();
        self.cancelled.clear();
        self.log.lose_unflushed().expect("log crash");
        // The GC view is volatile too: the restart's one read of the
        // log rebuilds it.
        self.gc = GcTracker::lost();
    }

    /// Records below the durable releasable point that the log still
    /// holds: what [`Coordinator::collect_garbage`] would reclaim now.
    #[must_use]
    pub fn releasable_records(&self) -> u64 {
        self.gc.surviving(&self.log).releasable_records(&self.log)
    }

    /// Garbage-collect the *durable* part of the releasable log prefix
    /// ([`GcTracker::collect`]). Returns the number of records reclaimed.
    ///
    /// Never flushes: a lazy `end` record still in the volatile buffer
    /// rides the next force, and its transaction is collected by the
    /// collection after that. Until then the transaction keeps its
    /// first record pinned, so a crash cannot keep its decision record
    /// and lose its initiation record. The participant's cut is looser
    /// ([`Participant::collect_garbage`]).
    ///
    /// A failed GC write is returned, not raised, and changes nothing:
    /// the log keeps its records and mark, the tracker its view, and the
    /// next call releases the same prefix.
    ///
    /// [`Participant::collect_garbage`]: crate::Participant::collect_garbage
    pub fn collect_garbage(&mut self) -> Result<usize, WalError> {
        self.gc.collect(&mut self.log)
    }

    /// The engine's own collection after a transaction ends (`auto_gc`).
    fn auto_collect(&mut self, out: &mut Vec<Action>) {
        if self.auto_gc {
            flush_and_collect(&self.gc, &mut self.log, out);
        }
    }
}

/// The per-transaction collection of a coordinator or Paxos member with
/// `auto_gc` on: the one collection that flushes first. Its hosts (the
/// simulator harness and the explorer) have no turns and no later force
/// to wait for, so the transaction that just ended is collected now, as
/// the paper's schedules show it; a host with turns collects with
/// [`GcTracker::collect`] alone. A failed flush or GC write is left for
/// the next call to retry.
pub(crate) fn flush_and_collect<L: StableLog>(gc: &GcTracker, log: &mut L, out: &mut Vec<Action>) {
    if gc.releasable() <= log.low_water_mark() || log.flush().is_err() {
        return;
    }
    if let Ok(released @ 1..) = gc.collect(log) {
        out.push(Action::Gc {
            released_up_to: log.low_water_mark().0,
            records_released: released as u64,
        });
    }
}

#[cfg(test)]
mod tests;
