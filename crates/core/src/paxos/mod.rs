//! Paxos Commit (Gray & Lamport): a non-blocking replicated
//! coordinator beside the presumption engines.
//!
//! Two-phase commit is the `f = 0` degeneracy of Paxos Commit: one
//! acceptor, co-located with the leader, and the protocol's message and
//! force counts collapse onto PrN's. With `2f + 1` acceptors the
//! decision survives the permanent failure of the leader and up to `f`
//! acceptors — the classic 2PC in-doubt window closes.
//!
//! ## Roles
//!
//! Every [`PaxosNode`] is an *acceptor*; the node at
//! [`PaxosConfig::leader`] (acceptor rank 0) is additionally the
//! *initial leader* and drives the vote collection phase. Any acceptor
//! can later become a *failover candidate* when its completion watchdog
//! fires.
//!
//! One Paxos instance runs per participant (per RM, in the paper's
//! vocabulary), but acceptors bundle all instances of a transaction
//! into **one** forced log record ([`LogPayload::PaxosAccept`]) — the
//! bundling is what keeps the per-transaction force count at one per
//! acceptor site.
//!
//! ## Message flow (clean commit, `N` participants, `2f` remote acceptors)
//!
//! ```text
//! leader   -> remote acceptors : PaxosBegin        (2f)
//! leader   -> participants     : Prepare           (N)
//! part     -> leader           : Vote              (N)
//! leader   -> remote acceptors : Phase2a (bundled) (2f)
//! acceptor -> leader           : Phase2b (bundled) (2f)
//! leader   -> participants     : Decision          (N)
//! part     -> leader           : Ack               (N)
//! leader   -> remote acceptors : PaxosForget       (2f)
//! ```
//!
//! Total `4N + 8f` messages; at `f = 0` exactly PrN's `4N`.
//!
//! ## Failover rule
//!
//! Acceptors arm a [`TimerPurpose::PaxosCompletion`] watchdog when they
//! learn of a transaction, staggered by acceptor rank so the
//! lowest-ranked live acceptor fires first. On fire, the acceptor runs
//! phase 1 at a fresh ballot; with promises from `f + 1` acceptors
//! (itself included) it re-proposes the highest-ballot accepted value
//! per instance — and **Aborted** for instances with no accepted value
//! (the free choice Gray & Lamport prove safe). Abort is therefore the
//! default a crashed leader's transaction converges to unless a quorum
//! already accepted `Prepared` for every instance, in which case the
//! candidate re-drives the commit to completion.
//!
//! A `Phase1b { forgotten: true }` reply makes the candidate stand down:
//! the leader only sends [`Payload::PaxosForget`] after *every*
//! participant acknowledged the decision, so a forgotten transaction is
//! complete everywhere that matters.

use crate::action::{Action, TimerPurpose};
use crate::coordinator::MAX_DECISION_RESENDS;

use acp_acta::ActaEvent;
use acp_types::{LogPayload, Outcome, Payload, SiteId, TxnId, Vote};
use acp_wal::{GcTracker, StableLog};
use std::collections::{BTreeMap, BTreeSet};

/// Ballot numbers are `round * BALLOT_STRIDE + acceptor_rank`, so every
/// candidate draws from a disjoint arithmetic progression and a bumped
/// round always dominates every ballot of the previous one. The initial
/// leader proposes at ballot 0 (round 0, rank 0) without a phase 1.
pub const BALLOT_STRIDE: u64 = 1024;

/// Watchdog re-arms per transaction before an acceptor gives up driving
/// completion (the bound guarantees simulated runs quiesce even when a
/// quorum is permanently dead).
pub const MAX_PAXOS_ATTEMPTS: u32 = 24;

/// The static Paxos Commit cluster shape: `2f + 1` acceptor sites, the
/// first co-located with the initial leader.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaxosConfig {
    /// Acceptor sites; `acceptors[0]` is the initial leader's site.
    pub acceptors: Vec<SiteId>,
}

impl PaxosConfig {
    /// Build a configuration. Panics unless the acceptor count is odd
    /// and non-zero (`2f + 1` for some `f >= 0`).
    #[must_use]
    pub fn new(acceptors: Vec<SiteId>) -> Self {
        assert!(
            acceptors.len() % 2 == 1,
            "paxos needs 2f + 1 acceptors, got {}",
            acceptors.len()
        );
        PaxosConfig { acceptors }
    }

    /// The layout every whole-cluster host uses: the leader at site 0,
    /// `n_participants` participants at sites `1..=N`, and the `2f`
    /// remote acceptors at sites `N+1..=N+2f`.
    #[must_use]
    pub fn for_cluster(n_participants: usize, f: usize) -> Self {
        let n = n_participants as u32;
        let remote = (n + 1..=n + 2 * f as u32).map(SiteId::new);
        PaxosConfig::new(std::iter::once(SiteId::new(0)).chain(remote).collect())
    }

    /// The tolerated failure count `f`.
    #[must_use]
    pub fn f(&self) -> usize {
        (self.acceptors.len() - 1) / 2
    }

    /// Quorum size `f + 1`.
    #[must_use]
    pub fn quorum(&self) -> usize {
        self.f() + 1
    }

    /// The initial leader's site (acceptor rank 0).
    #[must_use]
    pub fn leader(&self) -> SiteId {
        self.acceptors[0]
    }

    /// The rank of `site` in the acceptor list, if it is one.
    #[must_use]
    pub fn rank(&self, site: SiteId) -> Option<usize> {
        self.acceptors.iter().position(|&a| a == site)
    }
}

/// Volatile per-transaction role state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Role {
    /// Passive acceptor: watching for completion.
    Idle,
    /// Initial leader collecting votes at ballot 0.
    Voting {
        votes: BTreeMap<SiteId, Vote>,
    },
    /// Failover candidate collecting phase-1b promises at `my_ballot`.
    Phase1 {
        /// Promiser -> accepted `(instance site, ballot, prepared)`.
        promises: BTreeMap<SiteId, Vec<(SiteId, u64, bool)>>,
    },
    /// Proposer (leader or candidate) collecting bundled phase-2b acks.
    Proposing {
        proposal: Vec<(SiteId, bool)>,
        complete: BTreeSet<SiteId>,
    },
    /// Decision fixed; delivering it and collecting participant acks.
    Deciding {
        outcome: Outcome,
        pending: BTreeSet<SiteId>,
        resends: u32,
    },
}

/// Per-transaction state (volatile; the stable part is the log).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct PaxosTxn {
    /// Participant roster (may be empty when learned from a bare
    /// phase 1a; filled in by phase-1b/2a traffic).
    participants: Vec<SiteId>,
    /// Participants excluded from phase two (voted No or ReadOnly).
    excluded: BTreeSet<SiteId>,
    /// Acceptor duty: highest ballot promised.
    promised: u64,
    /// Highest ballot made durable (promise or accepted bundle).
    logged_promise: u64,
    /// Acceptor duty: the accepted bundle `(ballot, instances)`.
    accepted: Option<(u64, Vec<(SiteId, bool)>)>,
    /// Ballot whose bundle is already forced to this site's log.
    forced_ballot: Option<u64>,
    /// Our proposer ballot (0 for the initial leader).
    my_ballot: u64,
    role: Role,
    /// Watchdog arms consumed (doubles as the backoff attempt).
    attempts: u32,
    /// Whether any log record was written (decides whether an end
    /// record is due at completion).
    logged_any: bool,
}

impl PaxosTxn {
    fn fresh(participants: Vec<SiteId>, attempts: u32) -> Self {
        PaxosTxn {
            participants,
            excluded: BTreeSet::new(),
            promised: 0,
            logged_promise: 0,
            accepted: None,
            forced_ballot: None,
            my_ballot: 0,
            role: Role::Idle,
            attempts,
            logged_any: false,
        }
    }

    /// Accepted bundle as phase-1b triples.
    fn accepted_triples(&self) -> Vec<(SiteId, u64, bool)> {
        match &self.accepted {
            Some((b, ins)) => ins.iter().map(|&(s, v)| (s, *b, v)).collect(),
            None => Vec::new(),
        }
    }
}

/// A Paxos Commit node: acceptor always, initial leader at rank 0,
/// failover candidate on watchdog fire. Sans-IO like every other engine
/// in this crate: inputs return [`Action`]s, stable state lives in the
/// owned [`StableLog`].
#[derive(Clone, Debug)]
pub struct PaxosNode<L: StableLog> {
    site: SiteId,
    config: PaxosConfig,
    log: L,
    gc: GcTracker,
    txns: BTreeMap<TxnId, PaxosTxn>,
    /// Transactions known complete (forget received or sent). Volatile —
    /// after a crash the end records still in the log rebuild it, and a
    /// lost memo only downgrades a `forgotten` phase-1b reply to a fresh
    /// promise, which is always safe.
    forgotten: BTreeSet<TxnId>,
    timers: BTreeMap<u64, (TxnId, TimerPurpose)>,
    next_token: u64,
    track_cancellations: bool,
    cancelled: Vec<u64>,
    /// Every decision this node concluded (survives a crash). Protocol
    /// state, not a memo for hosts: `on_inquiry` answers a concluded,
    /// forgotten transaction from it. One entry per decision, for ever.
    decisions: BTreeMap<TxnId, Outcome>,
    /// Truncate the log automatically whenever the releasable prefix
    /// grows (on by default).
    pub auto_gc: bool,
}

impl<L: StableLog> PaxosNode<L> {
    /// Create a node for `site` in the given cluster.
    pub fn new(site: SiteId, config: PaxosConfig, log: L) -> Self {
        PaxosNode {
            site,
            config,
            log,
            gc: GcTracker::new(),
            txns: BTreeMap::new(),
            forgotten: BTreeSet::new(),
            timers: BTreeMap::new(),
            next_token: 0,
            track_cancellations: false,
            cancelled: Vec::new(),
            decisions: BTreeMap::new(),
            auto_gc: true,
        }
    }

    /// This node's site id.
    #[must_use]
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The cluster configuration.
    #[must_use]
    pub fn config(&self) -> &PaxosConfig {
        &self.config
    }

    /// Number of transactions with live state on this node.
    #[must_use]
    pub fn protocol_table_size(&self) -> usize {
        self.txns.len()
    }

    /// Transactions with live state on this node, in id order.
    #[must_use]
    pub fn protocol_table_txns(&self) -> Vec<TxnId> {
        self.txns.keys().copied().collect()
    }

    /// Is `txn` currently live on this node?
    #[must_use]
    pub fn in_flight(&self, txn: TxnId) -> bool {
        self.txns.contains_key(&txn)
    }

    /// The decision this node concluded for `txn`, if any.
    #[must_use]
    pub fn decided(&self, txn: TxnId) -> Option<Outcome> {
        self.decisions.get(&txn).copied()
    }

    /// Borrow the stable log.
    #[must_use]
    pub fn log(&self) -> &L {
        &self.log
    }

    /// Mutable access to the stable log (group-commit ticks only —
    /// protocol records must go through the engine).
    pub fn log_mut(&mut self) -> &mut L {
        &mut self.log
    }

    /// Transactions still pinning the log (no end record).
    #[must_use]
    pub fn log_pinned(&self) -> Vec<TxnId> {
        self.gc.pinned()
    }

    /// Enable eager timer retirement (see
    /// [`crate::coordinator::Coordinator::set_track_cancellations`]).
    pub fn set_track_cancellations(&mut self, on: bool) {
        self.track_cancellations = on;
    }

    /// Drain timer tokens retired since the last call. The buffer
    /// keeps its capacity.
    pub fn drain_cancelled_timers(&mut self) -> std::vec::Drain<'_, u64> {
        self.cancelled.drain(..)
    }

    /// Canonical rendering of the semantic state (txn table, stable
    /// log, armed timers) for the model checker's dedup map.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut s = format!("paxos:{}:", self.site);
        for (txn, st) in &self.txns {
            s.push_str(&format!(
                "{txn}={:?}/b{}/p{}/a{:?};",
                st.role, st.my_ballot, st.promised, st.accepted
            ));
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

    /// Hash the same semantic state as [`PaxosNode::fingerprint`]
    /// without allocating (the checker's hot path).
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        self.site.hash(h);
        for (txn, st) in &self.txns {
            txn.hash(h);
            st.hash(h);
        }
        0xA1u8.hash(h);
        self.log
            .for_each_record(&mut |rec| rec.payload.hash(h))
            .expect("records");
        0xA2u8.hash(h);
        for (tok, (txn, p)) in &self.timers {
            (tok, txn, p).hash(h);
        }
    }

    // -- internals (the Coordinator idiom) ------------------------------

    fn append(&mut self, txn: TxnId, payload: LogPayload, force: bool, out: &mut Vec<Action>) {
        let kind = payload.kind_name();
        let lsn = self.log.next_lsn();
        self.gc.note(lsn, &payload);
        self.log.append(payload, force).expect("paxos log append");
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
        self.timers.insert(token, (txn, purpose));
        out.push(Action::SetTimer {
            token,
            purpose,
            attempt,
        });
    }

    fn retire_timers(&mut self, txn: TxnId, pred: impl Fn(TimerPurpose) -> bool) {
        if !self.track_cancellations {
            return;
        }
        // A node keeps up to three kinds of timer per transaction, so
        // this scans; retired tokens go straight to the host's buffer.
        let cancelled = &mut self.cancelled;
        self.timers.retain(|tok, (t, p)| {
            let retired = *t == txn && pred(*p);
            if retired {
                cancelled.push(*tok);
            }
            !retired
        });
    }

    /// Arm the completion watchdog with the per-transaction attempt
    /// counter (rank-staggered at the start, exponentially backed off
    /// thereafter), up to [`MAX_PAXOS_ATTEMPTS`].
    fn arm_watchdog(&mut self, txn: TxnId, out: &mut Vec<Action>) {
        let Some(st) = self.txns.get_mut(&txn) else {
            return;
        };
        if st.attempts >= MAX_PAXOS_ATTEMPTS {
            return;
        }
        let attempt = st.attempts;
        st.attempts += 1;
        self.arm_timer(txn, TimerPurpose::PaxosCompletion, attempt, out);
    }

    fn maybe_gc(&mut self, out: &mut Vec<Action>) {
        if self.auto_gc {
            let released = self.collect_garbage();
            if released > 0 {
                out.push(Action::Gc {
                    released_up_to: self.log.low_water_mark().0,
                    records_released: released as u64,
                });
            }
        }
    }

    /// Garbage-collect the releasable log prefix. Returns the number of
    /// records reclaimed.
    pub fn collect_garbage(&mut self) -> usize {
        let releasable = self.gc.releasable();
        if releasable > self.log.low_water_mark() {
            self.log.flush().expect("flush before gc");
            let before = self.log.stats().truncated;
            self.log.truncate_prefix(releasable).expect("truncate");
            (self.log.stats().truncated - before) as usize
        } else {
            0
        }
    }

    // -- protocol entry points ------------------------------------------

    /// Start commit processing for `txn` (initial leader only): announce
    /// the roster to the remote acceptors and send the prepare requests.
    /// No log write — the leader's durability *is* its acceptor bundle.
    pub fn begin_commit(&mut self, txn: TxnId, participants: &[SiteId]) -> Vec<Action> {
        let mut out = Vec::new();
        self.begin_commit_into(txn, participants, &mut out);
        out
    }

    /// [`PaxosNode::begin_commit`], appending the actions to `out` — the
    /// entry point for hosts that reuse one action buffer.
    pub fn begin_commit_into(
        &mut self,
        txn: TxnId,
        participants: &[SiteId],
        out: &mut Vec<Action>,
    ) {
        assert_eq!(
            self.site,
            self.config.leader(),
            "only the initial leader starts transactions"
        );
        assert!(
            !self.txns.contains_key(&txn),
            "transaction {txn} already begun"
        );
        for &a in &self.config.acceptors {
            if a != self.site {
                out.push(Action::send(
                    a,
                    Payload::PaxosBegin {
                        txn,
                        participants: participants.to_vec(),
                    },
                ));
            }
        }
        for &p in participants {
            out.push(Action::send(p, Payload::Prepare { txn }));
        }
        let mut st = PaxosTxn::fresh(participants.to_vec(), 0);
        st.role = Role::Voting {
            votes: BTreeMap::new(),
        };
        self.txns.insert(txn, st);
        self.arm_timer(txn, TimerPurpose::VoteTimeout, 0, out);
    }

    /// Client-requested abort: if still collecting votes, propose the
    /// all-Aborted bundle (abort, like commit, goes through consensus —
    /// that is what makes a failover candidate reach the same verdict).
    pub fn abort_request(&mut self, txn: TxnId) -> Vec<Action> {
        let mut out = Vec::new();
        if matches!(
            self.txns.get(&txn).map(|s| &s.role),
            Some(Role::Voting { .. })
        ) {
            let st = self.txns.remove(&txn).expect("just matched");
            let proposal: Vec<(SiteId, bool)> =
                st.participants.iter().map(|&p| (p, false)).collect();
            self.propose(txn, st, proposal, &mut out);
        }
        out
    }

    /// Handle an incoming message.
    pub fn on_message(&mut self, from: SiteId, payload: &Payload) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_message_into(from, payload, &mut out);
        out
    }

    /// [`PaxosNode::on_message`], appending the actions to `out`.
    pub fn on_message_into(&mut self, from: SiteId, payload: &Payload, out: &mut Vec<Action>) {
        match payload {
            Payload::Vote { txn, vote } => self.on_vote(from, *txn, *vote, out),
            Payload::Ack { txn } => self.on_ack(from, *txn, out),
            Payload::Inquiry { txn, .. } => self.on_inquiry(from, *txn, out),
            Payload::PaxosBegin { txn, participants } => {
                self.on_begin(*txn, participants, out);
            }
            Payload::Phase1a { txn, ballot } => self.on_phase1a(from, *txn, *ballot, out),
            Payload::Phase1b {
                txn,
                ballot,
                forgotten,
                participants,
                accepted,
            } => self.on_phase1b(from, *txn, *ballot, *forgotten, participants, accepted, out),
            Payload::Phase2a {
                txn,
                ballot,
                instances,
            } => self.on_phase2a(from, *txn, *ballot, instances, out),
            Payload::Phase2b {
                txn,
                ballot,
                instances: _,
            } => self.on_phase2b(from, *txn, *ballot, out),
            Payload::PaxosForget { txn } => self.on_forget(*txn, out),
            // Participant-side vocabulary: not ours.
            Payload::Prepare { .. }
            | Payload::Decision { .. }
            | Payload::InquiryResponse { .. } => {}
        }
    }

    /// Timer callback.
    pub fn on_timer(&mut self, token: u64) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_timer_into(token, &mut out);
        out
    }

    /// [`PaxosNode::on_timer`], appending the actions to `out`.
    pub fn on_timer_into(&mut self, token: u64, out: &mut Vec<Action>) {
        let Some((txn, purpose)) = self.timers.remove(&token) else {
            return;
        };
        match purpose {
            TimerPurpose::VoteTimeout => {
                if matches!(
                    self.txns.get(&txn).map(|s| &s.role),
                    Some(Role::Voting { .. })
                ) {
                    // §4.2: failures are detected by timeouts — the
                    // missing votes become Aborted instances.
                    self.propose_from_votes(txn, out);
                }
            }
            TimerPurpose::AckResend => {
                let resend = self.txns.get_mut(&txn).and_then(|st| {
                    if let Role::Deciding {
                        outcome,
                        pending,
                        resends,
                    } = &mut st.role
                    {
                        *resends += 1;
                        Some((*resends, *outcome, pending.iter().copied().collect::<Vec<_>>()))
                    } else {
                        None
                    }
                });
                if let Some((attempts, outcome, targets)) = resend {
                    for to in targets {
                        out.push(Action::send(to, Payload::Decision { txn, outcome }));
                    }
                    if attempts < MAX_DECISION_RESENDS {
                        self.arm_timer(txn, TimerPurpose::AckResend, attempts, out);
                    }
                }
            }
            TimerPurpose::PaxosCompletion => self.on_watchdog(txn, out),
            TimerPurpose::InquiryRetry | TimerPurpose::ApplyRetry => {}
        }
    }

    // -- leader ---------------------------------------------------------

    fn on_vote(&mut self, from: SiteId, txn: TxnId, vote: Vote, out: &mut Vec<Action>) {
        let Some(st) = self.txns.get_mut(&txn) else {
            return;
        };
        if !st.participants.contains(&from) {
            return;
        }
        let ready = match &mut st.role {
            Role::Voting { votes } => {
                votes.insert(from, vote);
                if matches!(vote, Vote::No | Vote::ReadOnly) {
                    st.excluded.insert(from);
                }
                vote == Vote::No || votes.len() == st.participants.len()
            }
            // Late or duplicate vote after the proposal went out: the
            // decision already includes this participant (unless it
            // voted No/ReadOnly in time) and FIFO links order the
            // decision behind its prepare.
            _ => false,
        };
        if ready {
            self.propose_from_votes(txn, out);
        }
    }

    /// Build the bundle from the votes seen so far (Yes/ReadOnly →
    /// Prepared, No or missing → Aborted) and propose it.
    fn propose_from_votes(&mut self, txn: TxnId, out: &mut Vec<Action>) {
        let st = self.txns.remove(&txn).expect("propose_from_votes on live txn");
        let proposal: Vec<(SiteId, bool)> = match &st.role {
            Role::Voting { votes } => st
                .participants
                .iter()
                .map(|&p| {
                    (
                        p,
                        matches!(votes.get(&p), Some(Vote::Yes) | Some(Vote::ReadOnly)),
                    )
                })
                .collect(),
            _ => unreachable!("propose_from_votes outside Voting"),
        };
        self.propose(txn, st, proposal, out);
    }

    /// Run phase 2 at `st.my_ballot`: accept the bundle locally (one
    /// forced record), relay it to the remote acceptors, and decide as
    /// soon as a quorum of bundles is complete.
    fn propose(
        &mut self,
        txn: TxnId,
        mut st: PaxosTxn,
        proposal: Vec<(SiteId, bool)>,
        out: &mut Vec<Action>,
    ) {
        self.retire_timers(txn, |p| p == TimerPurpose::VoteTimeout);
        let ballot = st.my_ballot;
        let mut complete = BTreeSet::new();
        // Local acceptor duty first: force-before-send by construction.
        if ballot >= st.promised {
            st.promised = ballot;
            st.accepted = Some((ballot, proposal.clone()));
            if st.forced_ballot != Some(ballot) {
                self.append(
                    txn,
                    LogPayload::PaxosAccept {
                        txn,
                        ballot,
                        instances: proposal.clone(),
                    },
                    true,
                    out,
                );
                st.forced_ballot = Some(ballot);
                st.logged_promise = st.logged_promise.max(ballot);
                st.logged_any = true;
            }
            complete.insert(self.site);
        }
        for &a in &self.config.acceptors {
            if a != self.site {
                out.push(Action::send(
                    a,
                    Payload::Phase2a {
                        txn,
                        ballot,
                        instances: proposal.clone(),
                    },
                ));
            }
        }
        let done = complete.len() >= self.config.quorum();
        st.role = Role::Proposing { proposal, complete };
        self.txns.insert(txn, st);
        if done {
            self.conclude(txn, out);
        } else {
            self.arm_watchdog(txn, out);
        }
    }

    fn on_phase2b(&mut self, from: SiteId, txn: TxnId, ballot: u64, out: &mut Vec<Action>) {
        let quorum = self.config.quorum();
        let Some(st) = self.txns.get_mut(&txn) else {
            return;
        };
        let done = match &mut st.role {
            Role::Proposing { complete, .. } if st.my_ballot == ballot => {
                complete.insert(from);
                complete.len() >= quorum
            }
            _ => false,
        };
        if done {
            self.conclude(txn, out);
        }
    }

    /// A quorum accepted every instance: the outcome is fixed. Commit
    /// iff every instance chose Prepared.
    fn conclude(&mut self, txn: TxnId, out: &mut Vec<Action>) {
        let mut st = self.txns.remove(&txn).expect("conclude on live txn");
        let outcome = match &st.role {
            Role::Proposing { proposal, .. } => {
                if proposal.iter().all(|&(_, v)| v) {
                    Outcome::Commit
                } else {
                    Outcome::Abort
                }
            }
            _ => unreachable!("conclude outside Proposing"),
        };
        self.decisions.insert(txn, outcome);
        out.push(Action::Acta(ActaEvent::Decide {
            coordinator: self.site,
            txn,
            outcome,
        }));
        self.retire_timers(txn, |p| {
            matches!(p, TimerPurpose::VoteTimeout | TimerPurpose::PaxosCompletion)
        });
        let recipients: Vec<SiteId> = st
            .participants
            .iter()
            .copied()
            .filter(|s| !st.excluded.contains(s))
            .collect();
        for &r in &recipients {
            out.push(Action::send(r, Payload::Decision { txn, outcome }));
        }
        let pending: BTreeSet<SiteId> = recipients.into_iter().collect();
        if pending.is_empty() {
            self.finish(txn, st, out);
        } else {
            st.role = Role::Deciding {
                outcome,
                pending,
                resends: 0,
            };
            self.txns.insert(txn, st);
            self.arm_timer(txn, TimerPurpose::AckResend, 0, out);
        }
    }

    fn on_ack(&mut self, from: SiteId, txn: TxnId, out: &mut Vec<Action>) {
        let Some(st) = self.txns.get_mut(&txn) else {
            return;
        };
        let finished = if let Role::Deciding { pending, .. } = &mut st.role {
            pending.remove(&from);
            pending.is_empty()
        } else {
            false
        };
        if finished {
            let st = self.txns.remove(&txn).expect("just matched");
            self.finish(txn, st, out);
        }
    }

    /// Every participant acknowledged: end record, DeletePT, and tell
    /// the other acceptors to forget. The forget-after-all-acks order is
    /// what makes a `forgotten` phase-1b reply safe.
    fn finish(&mut self, txn: TxnId, st: PaxosTxn, out: &mut Vec<Action>) {
        self.retire_timers(txn, |_| true);
        if st.logged_any {
            self.append(txn, LogPayload::End { txn }, false, out);
        }
        out.push(Action::Acta(ActaEvent::DeletePt {
            coordinator: self.site,
            txn,
        }));
        for &a in &self.config.acceptors {
            if a != self.site {
                out.push(Action::send(a, Payload::PaxosForget { txn }));
            }
        }
        self.forgotten.insert(txn);
        self.maybe_gc(out);
    }

    // -- acceptor -------------------------------------------------------

    fn on_begin(&mut self, txn: TxnId, participants: &[SiteId], out: &mut Vec<Action>) {
        if self.forgotten.contains(&txn) {
            return;
        }
        if let Some(st) = self.txns.get_mut(&txn) {
            if st.participants.is_empty() {
                st.participants = participants.to_vec();
            }
            return;
        }
        let rank = self
            .config
            .rank(self.site)
            .expect("paxos-begin delivered to a non-acceptor") as u32;
        self.txns
            .insert(txn, PaxosTxn::fresh(participants.to_vec(), rank));
        self.arm_watchdog(txn, out);
    }

    fn on_phase2a(
        &mut self,
        from: SiteId,
        txn: TxnId,
        ballot: u64,
        instances: &[(SiteId, bool)],
        out: &mut Vec<Action>,
    ) {
        if self.forgotten.contains(&txn) {
            return;
        }
        let mut st = match self.txns.remove(&txn) {
            Some(st) => st,
            None => {
                // Never saw the begin (lost or crashed away): the bundle
                // itself carries the roster. Arm the watchdog so this
                // acceptor can still drive completion later.
                let rank = self.config.rank(self.site).map_or(0, |r| r as u32);
                let st = PaxosTxn::fresh(instances.iter().map(|&(s, _)| s).collect(), rank);
                self.txns.insert(txn, st);
                self.arm_watchdog(txn, out);
                self.txns.remove(&txn).expect("just inserted")
            }
        };
        if st.participants.is_empty() {
            st.participants = instances.iter().map(|&(s, _)| s).collect();
        }
        if ballot >= st.promised {
            st.promised = ballot;
            st.accepted = Some((ballot, instances.to_vec()));
            if st.forced_ballot != Some(ballot) {
                self.append(
                    txn,
                    LogPayload::PaxosAccept {
                        txn,
                        ballot,
                        instances: instances.to_vec(),
                    },
                    true,
                    out,
                );
                st.forced_ballot = Some(ballot);
                st.logged_promise = st.logged_promise.max(ballot);
                st.logged_any = true;
            }
            if from != self.site {
                out.push(Action::send(
                    from,
                    Payload::Phase2b {
                        txn,
                        ballot,
                        instances: instances.to_vec(),
                    },
                ));
            }
        }
        self.txns.insert(txn, st);
    }

    fn on_forget(&mut self, txn: TxnId, out: &mut Vec<Action>) {
        self.forgotten.insert(txn);
        let Some(st) = self.txns.remove(&txn) else {
            return;
        };
        self.retire_timers(txn, |_| true);
        if st.logged_any {
            self.append(txn, LogPayload::End { txn }, false, out);
        }
        self.maybe_gc(out);
    }

    // -- failover candidate ---------------------------------------------

    fn on_watchdog(&mut self, txn: TxnId, out: &mut Vec<Action>) {
        let Some(st) = self.txns.get(&txn) else {
            return;
        };
        match &st.role {
            // Passive acceptor whose leader went quiet, or a candidate
            // whose phase 1 stalled (competing candidate, loss): run
            // phase 1 at the next ballot.
            Role::Idle | Role::Phase1 { .. } => self.start_phase1(txn, out),
            Role::Proposing { complete, proposal } => {
                if st.my_ballot == 0 {
                    // Initial leader: re-send phase 2a to the laggards.
                    let proposal = proposal.clone();
                    let complete = complete.clone();
                    let targets: Vec<SiteId> = self
                        .config
                        .acceptors
                        .iter()
                        .copied()
                        .filter(|a| *a != self.site && !complete.contains(a))
                        .collect();
                    for to in targets {
                        out.push(Action::send(
                            to,
                            Payload::Phase2a {
                                txn,
                                ballot: 0,
                                instances: proposal.clone(),
                            },
                        ));
                    }
                    self.arm_watchdog(txn, out);
                } else {
                    // Candidate: escalate past whoever outbid us.
                    self.start_phase1(txn, out);
                }
            }
            // Vote collection and ack collection have their own timers.
            Role::Voting { .. } | Role::Deciding { .. } => {}
        }
    }

    /// Become (or continue as) the failover candidate: pick a fresh
    /// ballot above everything seen, promise it to ourselves durably,
    /// and ask the other acceptors for their promises.
    fn start_phase1(&mut self, txn: TxnId, out: &mut Vec<Action>) {
        let Some(rank) = self.config.rank(self.site) else {
            return;
        };
        let mut st = self.txns.remove(&txn).expect("start_phase1 on live txn");
        let round = st.promised.max(st.my_ballot) / BALLOT_STRIDE + 1;
        let ballot = round * BALLOT_STRIDE + rank as u64;
        st.my_ballot = ballot;
        st.promised = ballot;
        // Phase-1 safety: our own promise must survive a crash before
        // anyone may act on it.
        if st.logged_promise < ballot {
            self.append(
                txn,
                LogPayload::PaxosAccept {
                    txn,
                    ballot,
                    instances: Vec::new(),
                },
                true,
                out,
            );
            st.logged_promise = ballot;
            st.logged_any = true;
        }
        let mut promises = BTreeMap::new();
        promises.insert(self.site, st.accepted_triples());
        st.role = Role::Phase1 { promises };
        self.txns.insert(txn, st);
        for &a in &self.config.acceptors {
            if a != self.site {
                out.push(Action::send(a, Payload::Phase1a { txn, ballot }));
            }
        }
        self.arm_watchdog(txn, out);
        self.maybe_resolve_phase1(txn, out);
    }

    fn on_phase1a(&mut self, from: SiteId, txn: TxnId, ballot: u64, out: &mut Vec<Action>) {
        if self.forgotten.contains(&txn) {
            // Complete everywhere that matters (forget is only sent
            // after all participant acks): tell the candidate to stand
            // down.
            out.push(Action::send(
                from,
                Payload::Phase1b {
                    txn,
                    ballot,
                    forgotten: true,
                    participants: Vec::new(),
                    accepted: Vec::new(),
                },
            ));
            return;
        }
        let mut st = match self.txns.remove(&txn) {
            Some(st) => st,
            None => {
                // Genuinely unknown (never began here, or crashed away
                // after GC): a fresh promise with no accepted values is
                // always safe. No watchdog — we have no roster to drive.
                PaxosTxn::fresh(Vec::new(), MAX_PAXOS_ATTEMPTS)
            }
        };
        if ballot > st.promised {
            st.promised = ballot;
            if st.logged_promise < ballot {
                self.append(
                    txn,
                    LogPayload::PaxosAccept {
                        txn,
                        ballot,
                        instances: Vec::new(),
                    },
                    true,
                    out,
                );
                st.logged_promise = ballot;
                st.logged_any = true;
            }
        }
        if ballot >= st.promised {
            let accepted = st.accepted_triples();
            let participants = st.participants.clone();
            out.push(Action::send(
                from,
                Payload::Phase1b {
                    txn,
                    ballot,
                    forgotten: false,
                    participants,
                    accepted,
                },
            ));
        }
        self.txns.insert(txn, st);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_phase1b(
        &mut self,
        from: SiteId,
        txn: TxnId,
        ballot: u64,
        forgotten: bool,
        participants: &[SiteId],
        accepted: &[(SiteId, u64, bool)],
        out: &mut Vec<Action>,
    ) {
        if forgotten {
            // Stand down quietly: no Decide, no DeletePT — the
            // transaction completed under someone else's leadership.
            self.forgotten.insert(txn);
            if let Some(st) = self.txns.remove(&txn) {
                self.retire_timers(txn, |_| true);
                if st.logged_any {
                    self.append(txn, LogPayload::End { txn }, false, out);
                }
                self.maybe_gc(out);
            }
            return;
        }
        let Some(st) = self.txns.get_mut(&txn) else {
            return;
        };
        if st.my_ballot != ballot {
            return;
        }
        let Role::Phase1 { promises } = &mut st.role else {
            return;
        };
        promises.insert(from, accepted.to_vec());
        for &p in participants {
            if !st.participants.contains(&p) {
                st.participants.push(p);
            }
        }
        st.participants.sort();
        self.maybe_resolve_phase1(txn, out);
    }

    /// With `f + 1` promises, re-propose the highest-ballot accepted
    /// value per instance; instances nobody accepted become Aborted
    /// (the free choice).
    fn maybe_resolve_phase1(&mut self, txn: TxnId, out: &mut Vec<Action>) {
        let quorum = self.config.quorum();
        let Some(st) = self.txns.get(&txn) else {
            return;
        };
        let Role::Phase1 { promises } = &st.role else {
            return;
        };
        if promises.len() < quorum || st.participants.is_empty() {
            return;
        }
        let proposal: Vec<(SiteId, bool)> = st
            .participants
            .iter()
            .map(|&p| {
                let mut best: Option<(u64, bool)> = None;
                for acc in promises.values() {
                    for &(s, b, v) in acc {
                        if s == p && best.is_none_or(|(bb, _)| b > bb) {
                            best = Some((b, v));
                        }
                    }
                }
                (p, best.is_some_and(|(_, v)| v))
            })
            .collect();
        let st = self.txns.remove(&txn).expect("resolve on live txn");
        self.propose(txn, st, proposal, out);
    }

    // -- inquiries ------------------------------------------------------

    fn on_inquiry(&mut self, from: SiteId, txn: TxnId, out: &mut Vec<Action>) {
        let outcome = if let Some(st) = self.txns.get(&txn) {
            match &st.role {
                Role::Deciding { outcome, .. } => Some((*outcome, false)),
                // In flight and undecided: stay silent, the participant
                // retries and the watchdog (or vote timeout) resolves it.
                _ => None,
            }
        } else if let Some(&o) = self.decisions.get(&txn) {
            Some((o, false))
        } else if self.config.acceptors.len() == 1 {
            // Never decided here and no live state: PrN's hidden abort
            // presumption. With a single acceptor the Theorem 3 argument
            // carries over verbatim — acks and inquiries share one FIFO
            // link, so a forgotten *committed* transaction was
            // acknowledged by every participant, which then cannot have
            // an inquiry still in flight.
            Some((Outcome::Abort, true))
        } else {
            // Replicated cluster: stay silent. After a failover the
            // participant acks the *deciding* acceptor, whose
            // `PaxosForget` races any stale inquiry to *this* acceptor
            // on a different link — FIFO no longer orders
            // inquiry-before-ack-before-forget, so a presumed-abort
            // answer here could contradict a committed decision.
            // Silence is safe and live: forget only follows every
            // participant's ack, so an inquiry arriving post-forget is
            // necessarily stale and its sender has already enforced.
            None
        };
        if let Some((outcome, by_presumption)) = outcome {
            out.push(Action::Acta(ActaEvent::Respond {
                coordinator: self.site,
                txn,
                participant: from,
                outcome,
                by_presumption,
            }));
            out.push(Action::send(from, Payload::InquiryResponse { txn, outcome }));
        }
    }

    // -- crash / recovery -----------------------------------------------

    /// The site fail-stops: volatile state and unflushed records are
    /// lost; the forced log survives.
    pub fn crash(&mut self) {
        self.txns.clear();
        self.forgotten.clear();
        self.timers.clear();
        self.cancelled.clear();
        self.log.lose_unflushed().expect("log crash");
        self.gc = GcTracker::from_log(&self.log).expect("records");
    }

    /// Rebuild acceptor state from the log's `paxos-accept` records and
    /// re-arm the completion watchdog for every unresolved transaction —
    /// recovery is just failover with ourselves as a candidate.
    pub fn recover(&mut self) -> Vec<Action> {
        let mut out = Vec::new();
        self.recover_into(&mut out);
        out
    }

    /// [`PaxosNode::recover`], appending the actions to `out`.
    pub fn recover_into(&mut self, out: &mut Vec<Action>) {
        let summaries = acp_wal::scan::analyze_log(&self.log).expect("records");
        let rank = self.config.rank(self.site).map_or(0, |r| r as u32);
        for (txn, s) in &summaries {
            if s.ended {
                self.forgotten.insert(*txn);
                continue;
            }
            if s.paxos_accepts.is_empty() {
                continue;
            }
            let logged_promise = s
                .paxos_accepts
                .iter()
                .map(|(b, _)| *b)
                .max()
                .expect("non-empty");
            let accepted = s
                .paxos_accepts
                .iter()
                .rev()
                .find(|(_, ins)| !ins.is_empty())
                .cloned();
            let participants: Vec<SiteId> = accepted
                .as_ref()
                .map(|(_, ins)| ins.iter().map(|&(s, _)| s).collect())
                .unwrap_or_default();
            let st = PaxosTxn {
                participants,
                excluded: BTreeSet::new(),
                promised: logged_promise,
                logged_promise,
                forced_ballot: accepted.as_ref().map(|(b, _)| *b),
                accepted,
                my_ballot: 0,
                role: Role::Idle,
                attempts: rank,
                logged_any: true,
            };
            self.txns.insert(*txn, st);
            self.arm_watchdog(*txn, out);
        }
    }
}

#[cfg(test)]
mod tests;
