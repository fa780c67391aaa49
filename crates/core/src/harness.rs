//! Scenario harness: runs the protocol engines inside the deterministic
//! simulator and hands the resulting ACTA history, typed event stream
//! and final garbage-collection state to the correctness checkers.
//!
//! This is the main entry point for experiments, integration tests and
//! examples: describe a [`Scenario`] (coordinator kind or Paxos Commit
//! tolerance, participant protocols, transactions with votes, network
//! model, failure schedule), call [`run_scenario`], and inspect the
//! [`ScenarioOutcome`].
//!
//! Every site is a [`SiteProc`] over an [`AnyEngine`], so one harness
//! serves all engine kinds. Failures come in three forms: **crashes**
//! (`failures`: fail-stop with a later recovery that replays the WAL),
//! **kills** (permanent fail-stop — the headline leader-`kill -9`
//! case) and **partitions** (a link drops everything for a window).

use crate::action::{Action, TimerPurpose};
use crate::engine::AnyEngine;
use crate::participant::Participant;
use acp_acta::{ActaEvent, FinalState, History};
use acp_obs::{FanoutSink, NullSink, ProtoLabel, ProtocolEvent, TraceSink, VecSink};
use acp_sim::{Context, FailureSchedule, NetworkConfig, Process, SimTime, World};
use acp_types::{
    CoordinatorKind, CostCounters, Message, Outcome, Payload, ProtocolKind, SiteId, TxnId, Vote,
};
use acp_wal::{GroupCommitLog, GroupCommitStats, MemLog, StableLog};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Timer delays used by the harness.
///
/// Each purpose has a *base* delay; retries back off exponentially from
/// it (`base << attempt`, capped at `max_backoff`). Bounded backoff is
/// what lets the engines terminate under sustained message loss without
/// hammering a lossy link: every re-send is spaced further apart, but
/// never further than `max_backoff`, so progress resumes within a
/// bounded delay of the loss clearing.
#[derive(Clone, Copy, Debug)]
pub struct TimerDelays {
    /// Coordinator vote-collection timeout.
    pub vote_timeout: SimTime,
    /// Decision re-send interval.
    pub ack_resend: SimTime,
    /// In-doubt participant inquiry interval.
    pub inquiry_retry: SimTime,
    /// Gateway legacy-apply retry interval.
    pub apply_retry: SimTime,
    /// Paxos acceptor completion watchdog (leader-failover trigger).
    pub paxos_completion: SimTime,
    /// Upper bound on any backed-off delay.
    pub max_backoff: SimTime,
}

impl Default for TimerDelays {
    fn default() -> Self {
        TimerDelays {
            vote_timeout: SimTime::from_millis(50),
            ack_resend: SimTime::from_millis(20),
            inquiry_retry: SimTime::from_millis(30),
            apply_retry: SimTime::from_millis(25),
            paxos_completion: SimTime::from_millis(80),
            max_backoff: SimTime::from_millis(500),
        }
    }
}

impl TimerDelays {
    /// The base (attempt-0) delay for a purpose.
    #[must_use]
    pub fn base(&self, purpose: TimerPurpose) -> SimTime {
        match purpose {
            TimerPurpose::VoteTimeout => self.vote_timeout,
            TimerPurpose::AckResend => self.ack_resend,
            TimerPurpose::InquiryRetry => self.inquiry_retry,
            TimerPurpose::ApplyRetry => self.apply_retry,
            TimerPurpose::PaxosCompletion => self.paxos_completion,
        }
    }

    /// The concrete delay for the `attempt`-th arming of a purpose:
    /// `min(base << attempt, max_backoff)` (never below `base`).
    #[must_use]
    pub fn delay(&self, purpose: TimerPurpose, attempt: u32) -> SimTime {
        self.schedule(purpose, attempt, None)
    }

    /// Like [`delay`](Self::delay), but retries (`attempt > 0`) are
    /// spread by a deterministic ±12.5% jitter derived from `salt`
    /// (site/timer identity). After a crash, every in-doubt participant
    /// arms its inquiry retry at the same instant; without jitter each
    /// backoff round arrives as a synchronized burst at the recovering
    /// coordinator. Attempt-0 armings are returned *exactly* — clean
    /// (no-retry) schedules stay byte-identical with jitter enabled.
    #[must_use]
    pub fn delay_jittered(&self, purpose: TimerPurpose, attempt: u32, salt: u64) -> SimTime {
        self.schedule(purpose, attempt, Some(salt))
    }

    fn schedule(&self, purpose: TimerPurpose, attempt: u32, salt: Option<u64>) -> SimTime {
        let (base, max) = (self.base(purpose).as_micros(), self.max_backoff.as_micros());
        SimTime::from_micros(purpose.retry_delay_us(base, max, attempt, salt))
    }
}

/// Deterministic 64-bit mix (splitmix64 over the xor-folded inputs) —
/// the jitter source for retry backoff. Pure function of its inputs, so
/// a re-run of the same schedule jitters identically.
#[must_use]
pub fn jitter_hash(salt: u64, purpose: u64, attempt: u64) -> u64 {
    let mut z = salt
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(purpose.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(attempt.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One transaction in a scenario.
#[derive(Clone, Debug)]
pub struct TxnSpec {
    /// The transaction id.
    pub txn: TxnId,
    /// When the coordinator starts commit processing.
    pub start_at: SimTime,
    /// Participant sites (all of them must be in the scenario).
    pub participants: Vec<SiteId>,
    /// Per-site votes; sites not listed vote `Yes`.
    pub votes: BTreeMap<SiteId, Vote>,
    /// Client abort request at this time (used to produce the figures'
    /// abort case where *every* participant is prepared).
    pub abort_at: Option<SimTime>,
}

/// A complete experiment description.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The coordinator variant under test (always at site 0).
    pub kind: CoordinatorKind,
    /// Replicated-coordinator shape, as in `acp_net::ClusterConfig`:
    /// `Some(f)` replaces the coordinator at site 0 with a Paxos Commit
    /// leader and adds `2f` remote acceptors at sites `N+1..=N+2f`;
    /// `kind` is ignored. `Some(0)` is 2PC/PrN by another name.
    pub paxos_f: Option<usize>,
    /// Participant protocols; site ids are assigned 1..=n in order.
    pub participant_protocols: Vec<ProtocolKind>,
    /// The workload.
    pub txns: Vec<TxnSpec>,
    /// Network model.
    pub network: NetworkConfig,
    /// RNG seed (drives latencies, loss).
    pub seed: u64,
    /// Planned crashes/recoveries.
    pub failures: FailureSchedule,
    /// Permanent fail-stops `(site, at)`: the site never recovers (the
    /// leader `kill -9` Paxos Commit exists to survive).
    pub kills: Vec<(SiteId, SimTime)>,
    /// Link severances `(a, b, from, until)`: both directions between
    /// `a` and `b` drop messages sent in `[from, until)`, then the link
    /// heals.
    pub partitions: Vec<(SiteId, SiteId, SimTime, SimTime)>,
    /// Timer configuration.
    pub delays: TimerDelays,
    /// Safety valve for the event loop.
    pub max_events: u64,
    /// Group-commit batch window in sim microseconds. `None` (the
    /// default) disables batching entirely — bit-for-bit the historical
    /// behavior. `Some(w)` wraps every site's log in a deterministic
    /// batch-window accountant: forced writes landing within `w` µs of
    /// a window opener coalesce into one counted physical force
    /// (`Some(0)` coalesces only same-instant forces — the natural
    /// choice for concurrent-transaction campaigns, since a reliable
    /// network lands same-slot forces at identical sim times).
    /// Durability semantics are unchanged either way, so crash sweeps
    /// hold under any window.
    pub batch_window: Option<u64>,
}

impl Scenario {
    /// A scenario with the given coordinator kind and participants, no
    /// transactions yet, a reliable 200us network and no failures.
    #[must_use]
    pub fn new(kind: CoordinatorKind, participant_protocols: &[ProtocolKind]) -> Self {
        Scenario {
            kind,
            paxos_f: None,
            participant_protocols: participant_protocols.to_vec(),
            txns: Vec::new(),
            network: NetworkConfig::reliable(SimTime::from_micros(200)),
            seed: 0,
            failures: FailureSchedule::none(),
            kills: Vec::new(),
            partitions: Vec::new(),
            delays: TimerDelays::default(),
            max_events: 1_000_000,
            batch_window: None,
        }
    }

    /// A Paxos Commit scenario: `n_participants` PrN participants under
    /// a replicated coordinator of tolerance `f`, otherwise as
    /// [`Scenario::new`].
    #[must_use]
    pub fn paxos(n_participants: usize, f: usize) -> Self {
        let protocols = vec![ProtocolKind::PrN; n_participants];
        Scenario {
            paxos_f: Some(f),
            ..Self::new(CoordinatorKind::Single(ProtocolKind::PrN), &protocols)
        }
    }

    /// The coordinator's site id (always 0).
    #[must_use]
    pub fn coordinator_site(&self) -> SiteId {
        SiteId::new(0)
    }

    /// Participant site ids, in declaration order.
    #[must_use]
    pub fn participant_sites(&self) -> Vec<SiteId> {
        (1..=self.participant_protocols.len() as u32)
            .map(SiteId::new)
            .collect()
    }

    /// Add a transaction across *all* participants, started at
    /// `start_at`, with every site voting `Yes`.
    pub fn add_txn(&mut self, txn: TxnId, start_at: SimTime) -> &mut TxnSpec {
        let spec = TxnSpec {
            txn,
            start_at,
            participants: self.participant_sites(),
            votes: BTreeMap::new(),
            abort_at: None,
        };
        self.txns.push(spec);
        self.txns.last_mut().expect("just pushed")
    }

    /// Add a transaction with an explicit vote at one site.
    pub fn add_txn_with_vote(&mut self, txn: TxnId, start_at: SimTime, site: SiteId, vote: Vote) {
        let spec = self.add_txn(txn, start_at);
        spec.votes.insert(site, vote);
    }
}

/// What a scenario run produced.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The complete ACTA history.
    pub history: History,
    /// End-of-run GC state for the operational-correctness checker.
    pub final_state: FinalState,
    /// Outcomes enforced per (site, txn).
    pub enforced: BTreeMap<(SiteId, TxnId), Outcome>,
    /// The decision per transaction (under Paxos Commit, the first
    /// found over the acceptors; the atomicity checker separately
    /// asserts they never disagree).
    pub decided: BTreeMap<TxnId, Outcome>,
    /// Decisions per deciding site (coordinator, leader or failover
    /// candidate).
    pub decided_by_site: BTreeMap<(SiteId, TxnId), Outcome>,
    /// Transactions a participant still holds prepared and unresolved
    /// at quiescence — the blocked survivors 2PC is famous for.
    pub in_doubt: Vec<(SiteId, TxnId)>,
    /// Coordinator protocol-table size at the end of the run.
    pub coordinator_table_size: usize,
    /// Records retained in the coordinator's log at the end of the run.
    pub coordinator_log_retained: usize,
    /// Bytes retained in the coordinator's log.
    pub coordinator_log_retained_bytes: u64,
    /// Per-transaction coordinator costs.
    pub coordinator_costs: BTreeMap<TxnId, CostCounters>,
    /// Per-transaction, per-participant costs.
    pub participant_costs: BTreeMap<(SiteId, TxnId), CostCounters>,
    /// Per-transaction costs at each remote Paxos acceptor (empty
    /// without `paxos_f`; the leader's are `coordinator_costs`).
    pub acceptor_costs: BTreeMap<(SiteId, TxnId), CostCounters>,
    /// Protocol-table size at each remote acceptor at the end of the
    /// run.
    pub acceptor_table_sizes: BTreeMap<SiteId, usize>,
    /// Log records retained at each remote acceptor.
    pub acceptor_log_retained: BTreeMap<SiteId, usize>,
    /// Events the simulator processed.
    pub events_processed: u64,
    /// Aggregate group-commit accounting across every site's log:
    /// `batches` is the number of physical forces a batching backend
    /// would have performed, `batched_appends` the logical forced
    /// writes they served. With `batch_window: None` everything is
    /// zero (batching off).
    pub group_commit: GroupCommitStats,
    /// The complete typed protocol-event stream of the run (also fanned
    /// out to the caller's sink in [`run_scenario_with_sink`]); feed it
    /// to `acp_obs::render` to reproduce the paper's figures.
    pub events: Vec<ProtocolEvent>,
}

impl ScenarioOutcome {
    /// Aggregate cost of one transaction across the whole system.
    #[must_use]
    pub fn total_costs(&self, txn: TxnId) -> CostCounters {
        let mut total = self
            .coordinator_costs
            .get(&txn)
            .copied()
            .unwrap_or_default();
        for ((_, t), c) in self.participant_costs.iter().chain(&self.acceptor_costs) {
            if *t == txn {
                total += *c;
            }
        }
        total
    }
}

/// A site process: one sans-IO engine of any kind, its actions
/// translated into simulator effects.
pub struct SiteProc {
    engine: AnyEngine<HarnessLog>,
    /// Site 0 only: transactions to start (drained into
    /// `pending_starts` by `on_start`), with optional client-abort times.
    starts: Vec<(SimTime, TxnId, Vec<SiteId>, Option<SimTime>)>,
    history: Rc<RefCell<History>>,
    delays: TimerDelays,
    /// Observability sink; protocol-level events (log writes, votes,
    /// decisions, GC) are emitted here as they happen.
    sink: Arc<dyn TraceSink>,
    /// The label under which this site's events are attributed.
    proto: ProtoLabel,
    /// When this site last reached a decision (drives the GC-latency
    /// metric: `LogGc::since_decision_us`).
    last_decision: Option<SimTime>,
    /// Harness timer-token → engine token or deferred transaction start.
    timer_map: BTreeMap<u64, HarnessTimer>,
    /// Client requests not yet submitted. These model *clients*, not
    /// coordinator state: they survive coordinator crashes (a crashed
    /// server does not make the requests queued behind it disappear) and
    /// are re-armed by `on_recover`, since the simulator invalidates all
    /// volatile timers on a crash.
    pending_starts: BTreeMap<u64, (SimTime, TxnId, Vec<SiteId>)>,
    next_token: u64,
}

/// The log type harness engines run on: the in-memory stable log behind
/// the group-commit layer (passthrough unless the scenario sets a
/// batch window).
pub type HarnessLog = GroupCommitLog<MemLog>;

enum HarnessTimer {
    Engine(u64),
    Start(u64),
    ClientAbort(TxnId),
}

impl SiteProc {
    /// The engine this site runs.
    #[must_use]
    pub fn engine(&self) -> &AnyEngine<HarnessLog> {
        &self.engine
    }

    /// Advance the site log's group-commit clock to the current sim
    /// time (expires the open batch window, if any).
    fn tick_log(&mut self, now: SimTime) {
        self.engine.log_mut().tick(now.as_micros());
    }

    /// Emit a [`ProtocolEvent::BatchCommit`] for every batch window
    /// that closed with occupancy ≥ 2. Batches of one are silent: they
    /// are indistinguishable from unbatched forces, which keeps clean
    /// single-transaction traces byte-identical under batching.
    fn emit_closed_batches(&mut self) {
        let site = self.engine.site().raw();
        for b in self.engine.log_mut().take_closed() {
            if b.occupancy >= 2 {
                self.sink.record(&ProtocolEvent::BatchCommit {
                    at_us: b.opened_at_us,
                    site,
                    proto: self.proto,
                    occupancy: b.occupancy,
                });
            }
        }
    }

    /// End-of-run: seal the still-open batch window, emit its event,
    /// and return this site's accumulated group-commit accounting.
    fn finish_batches(&mut self) -> GroupCommitStats {
        let _ = self.engine.log_mut().commit_batch();
        self.emit_closed_batches();
        self.engine.log().group_stats()
    }

    fn handle_actions(&mut self, actions: Vec<Action>, ctx: &mut Context) {
        for action in actions {
            match action {
                Action::Send { to, payload } => {
                    if let Payload::Vote { txn, vote } = &payload {
                        self.sink.record(&ProtocolEvent::VoteCast {
                            at_us: ctx.now.as_micros(),
                            site: ctx.self_id.raw(),
                            proto: self.proto,
                            vote: vote_name(*vote),
                            txn: Some(txn.raw()),
                        });
                    }
                    ctx.send(to, payload);
                }
                Action::Enforce { .. } => {}
                Action::SetTimer {
                    token,
                    purpose,
                    attempt,
                } => {
                    if attempt > 0 {
                        // Genuine retry (the previous attempt fired
                        // without resolution): surface it in the event
                        // stream so campaigns can count how hard each
                        // protocol works to terminate under loss.
                        self.sink.record(&ProtocolEvent::RetryScheduled {
                            at_us: ctx.now.as_micros(),
                            site: ctx.self_id.raw(),
                            proto: self.proto,
                            purpose: purpose.name(),
                            attempt,
                            txn: None,
                        });
                    }
                    let harness_token = self.next_token;
                    self.next_token += 1;
                    self.timer_map
                        .insert(harness_token, HarnessTimer::Engine(token));
                    // Salt the retry jitter with the arming site and the
                    // engine's own token: two sites backing off from the
                    // same crash (or one site's distinct transactions)
                    // de-synchronize instead of re-colliding each round.
                    let salt = (u64::from(ctx.self_id.raw()) << 32) ^ token;
                    ctx.set_timer(
                        self.delays.delay_jittered(purpose, attempt, salt),
                        harness_token,
                    );
                }
                Action::Acta(event) => {
                    self.emit_acta(&event, ctx);
                    self.history.borrow_mut().push(event);
                }
                Action::Gc {
                    released_up_to,
                    records_released,
                } => {
                    let since_decision_us = self.last_decision.map(|d| (ctx.now - d).as_micros());
                    self.sink.record(&ProtocolEvent::LogGc {
                        at_us: ctx.now.as_micros(),
                        site: ctx.self_id.raw(),
                        proto: self.proto,
                        released_up_to,
                        records_released,
                        since_decision_us,
                    });
                }
            }
        }
    }

    /// Translate an ACTA event into the typed protocol-event stream.
    fn emit_acta(&mut self, event: &ActaEvent, ctx: &Context) {
        let at_us = ctx.now.as_micros();
        let site = ctx.self_id.raw();
        let proto = self.proto;
        match event {
            ActaEvent::LogWrite {
                txn, kind, forced, ..
            } => {
                let ev = if *forced {
                    ProtocolEvent::ForceWrite {
                        at_us,
                        site,
                        proto,
                        record: kind,
                        txn: Some(txn.raw()),
                    }
                } else {
                    ProtocolEvent::NonForcedWrite {
                        at_us,
                        site,
                        proto,
                        record: kind,
                        txn: Some(txn.raw()),
                    }
                };
                self.sink.record(&ev);
            }
            ActaEvent::Decide { txn, outcome, .. } => {
                self.last_decision = Some(ctx.now);
                self.sink.record(&ProtocolEvent::DecisionReached {
                    at_us,
                    site,
                    proto,
                    outcome: outcome_name(*outcome),
                    txn: Some(txn.raw()),
                });
            }
            ActaEvent::Inquire { txn, protocol, .. } => {
                self.sink.record(&ProtocolEvent::RecoveryStep {
                    at_us,
                    site,
                    proto,
                    detail: format!("inquire about {txn} ({protocol})"),
                });
            }
            ActaEvent::Respond {
                txn,
                outcome,
                by_presumption,
                ..
            } => {
                let how = if *by_presumption {
                    " by presumption"
                } else {
                    ""
                };
                self.sink.record(&ProtocolEvent::RecoveryStep {
                    at_us,
                    site,
                    proto,
                    detail: format!("answer inquiry {txn}: {outcome}{how}"),
                });
            }
            _ => {}
        }
    }
}

/// Stable lowercase name for a vote (event-stream vocabulary).
fn vote_name(vote: Vote) -> &'static str {
    match vote {
        Vote::Yes => "yes",
        Vote::No => "no",
        Vote::ReadOnly => "read-only",
    }
}

/// Stable lowercase name for an outcome (event-stream vocabulary).
fn outcome_name(outcome: Outcome) -> &'static str {
    match outcome {
        Outcome::Commit => "commit",
        Outcome::Abort => "abort",
    }
}

impl Process for SiteProc {
    fn on_start(&mut self, ctx: &mut Context) {
        for (at, txn, participants, abort_at) in std::mem::take(&mut self.starts) {
            let start_key = self.next_token;
            self.next_token += 1;
            self.pending_starts
                .insert(start_key, (at, txn, participants));
            let harness_token = self.next_token;
            self.next_token += 1;
            self.timer_map
                .insert(harness_token, HarnessTimer::Start(start_key));
            ctx.set_timer(at, harness_token);
            if let Some(abort_at) = abort_at {
                let abort_token = self.next_token;
                self.next_token += 1;
                self.timer_map
                    .insert(abort_token, HarnessTimer::ClientAbort(txn));
                ctx.set_timer(abort_at, abort_token);
            }
        }
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Context) {
        self.tick_log(ctx.now);
        let mut actions = Vec::new();
        self.engine
            .on_message_into(msg.from, &msg.payload, &mut actions);
        self.handle_actions(actions, ctx);
        self.emit_closed_batches();
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context) {
        self.tick_log(ctx.now);
        let Some(entry) = self.timer_map.remove(&token) else {
            return;
        };
        let mut actions = Vec::new();
        match entry {
            HarnessTimer::Engine(engine_token) => {
                self.engine.on_timer_into(engine_token, &mut actions);
            }
            HarnessTimer::Start(start_key) => {
                let Some((_, txn, participants)) = self.pending_starts.remove(&start_key) else {
                    return;
                };
                self.engine
                    .begin_commit_into(txn, &participants, &mut actions);
            }
            HarnessTimer::ClientAbort(txn) => actions = self.engine.abort_request(txn),
        }
        self.handle_actions(actions, ctx);
        self.emit_closed_batches();
    }

    fn on_crash(&mut self) {
        // Harness timer bookkeeping is volatile (pending_starts is not —
        // it models the clients).
        self.timer_map.clear();
        let site = self.engine.site();
        self.history.borrow_mut().push(ActaEvent::Crash { site });
        self.engine.crash();
    }

    fn on_recover(&mut self, ctx: &mut Context) {
        self.tick_log(ctx.now);
        let mut actions = Vec::new();
        self.engine.recover_into(&mut actions);
        let site = self.engine.site();
        self.history.borrow_mut().push(ActaEvent::Recover { site });
        self.handle_actions(actions, ctx);
        self.emit_closed_batches();
        // Re-arm the surviving client requests: due ones fire now,
        // future ones at their original time.
        let keys: Vec<u64> = self.pending_starts.keys().copied().collect();
        for start_key in keys {
            let (at, _, _) = self.pending_starts[&start_key];
            let delay = at - ctx.now; // saturates at zero for missed starts
            let harness_token = self.next_token;
            self.next_token += 1;
            self.timer_map
                .insert(harness_token, HarnessTimer::Start(start_key));
            ctx.set_timer(delay, harness_token);
        }
    }
}

/// Run a scenario to quiescence and collect everything the checkers and
/// experiments need.
///
/// Equivalent to [`run_scenario_with_sink`] with a [`NullSink`]; the
/// full event stream is still collected into
/// [`ScenarioOutcome::events`].
#[must_use]
pub fn run_scenario(scenario: &Scenario) -> ScenarioOutcome {
    run_scenario_with_sink(scenario, Arc::new(NullSink))
}

/// Run a scenario to quiescence, streaming every protocol event to
/// `sink` as it happens (in addition to collecting the stream into
/// [`ScenarioOutcome::events`]).
///
/// The sink sees log writes (forced and lazy), message sends/receives,
/// votes, decisions, garbage collections, crashes and recovery steps,
/// each labelled with the protocol variant of the emitting site.
#[must_use]
pub fn run_scenario_with_sink(scenario: &Scenario, sink: Arc<dyn TraceSink>) -> ScenarioOutcome {
    let history = Rc::new(RefCell::new(History::new()));
    let recorder = Arc::new(VecSink::new());
    let sink: Arc<dyn TraceSink> = Arc::new(FanoutSink::new(vec![
        Arc::clone(&recorder) as Arc<dyn TraceSink>,
        sink,
    ]));
    let mut world: World<SiteProc> = World::new(scenario.network, scenario.seed);
    world.set_sink(Arc::clone(&sink));
    let site_proc = |engine, proto, starts| SiteProc {
        engine,
        starts,
        history: Rc::clone(&history),
        delays: scenario.delays,
        sink: Arc::clone(&sink),
        proto,
        last_decision: None,
        timer_map: BTreeMap::new(),
        pending_starts: BTreeMap::new(),
        next_token: 0,
    };
    let make_log = || match scenario.batch_window {
        None => GroupCommitLog::passthrough(MemLog::new()),
        Some(w) => GroupCommitLog::windowed(MemLog::new(), w),
    };

    // The coordinator side: site 0 (which takes the client requests)
    // and, under Paxos Commit, the remote acceptors.
    let coord_site = scenario.coordinator_site();
    let coord_label = match scenario.paxos_f {
        Some(_) => ProtoLabel::Paxos,
        None => ProtoLabel::of_coordinator(scenario.kind),
    };
    let mut starts: Vec<(SimTime, TxnId, Vec<SiteId>, Option<SimTime>)> = scenario
        .txns
        .iter()
        .map(|t| (t.start_at, t.txn, t.participants.clone(), t.abort_at))
        .collect();
    let mut coord_side = Vec::new();
    for engine in AnyEngine::coordinator_side(
        scenario.kind,
        &scenario.participant_protocols,
        scenario.paxos_f,
        make_log,
    ) {
        let site = engine.site();
        world.set_label(site, coord_label);
        // Site 0 comes first and takes every start; the rest get none.
        world.add(
            site,
            site_proc(engine, coord_label, std::mem::take(&mut starts)),
        );
        coord_side.push(site);
    }

    // Participants at sites 1..=n.
    for (i, &p) in scenario.participant_protocols.iter().enumerate() {
        let site = SiteId::new(i as u32 + 1);
        let label = ProtoLabel::of_participant(p);
        world.set_label(site, label);
        let mut engine = Participant::new(site, p, make_log());
        for spec in &scenario.txns {
            if let Some(&vote) = spec.votes.get(&site) {
                engine.set_intent(spec.txn, vote);
            }
        }
        world.add(site, site_proc(AnyEngine::Part(engine), label, Vec::new()));
    }

    scenario.failures.apply(&mut world);
    for &(site, at) in &scenario.kills {
        world.schedule_crash(site, at);
    }
    world.start();

    // Partitions are applied by stepping the world to each breakpoint:
    // sever at `from`, heal at `until`. The network drops at send time,
    // so messages already in flight when the link severs still arrive —
    // matching the socket layer, where severing closes the listener, not
    // the kernel buffers.
    let mut breakpoints: Vec<(SimTime, bool, SiteId, SiteId)> = Vec::new();
    for &(a, b, from, until) in &scenario.partitions {
        assert!(until > from, "a partition window must be non-empty");
        breakpoints.push((from, true, a, b));
        breakpoints.push((until, false, a, b));
    }
    breakpoints.sort_by_key(|&(at, sever, _, _)| (at, !sever));
    for (at, sever, a, b) in breakpoints {
        world.run_until(at);
        if sever {
            world.network_mut().partition(a, b);
        } else {
            world.network_mut().heal(a, b);
        }
    }
    world.run_until_quiescent(scenario.max_events);

    // Seal any still-open batch windows (their events land after every
    // protocol event, which is when the batch would have been forced)
    // and aggregate the per-site group-commit accounting.
    let mut group_commit = GroupCommitStats::default();
    for site in coord_side
        .iter()
        .copied()
        .chain(scenario.participant_sites())
    {
        let stats = world.process_mut(site).finish_batches();
        group_commit.merge(&stats);
    }

    // ---- collect ----
    // Costs are observed, not self-reported: a message is charged to its
    // sender when the network is handed it (the world's `MsgSend`), a
    // log record to its writer when the history records it. Each site's
    // log must agree with its `LogWrite` events on appends and on
    // forces, so a record claimed forced but appended lazily fails the
    // run.
    let history = history.borrow().clone();
    let events = recorder.take();
    let mut costs: BTreeMap<(SiteId, TxnId), CostCounters> = BTreeMap::new();
    for event in &events {
        if let ProtocolEvent::MsgSend {
            site,
            kind,
            txn: Some(txn),
            ..
        } = *event
        {
            let key = (SiteId::new(site), TxnId::new(txn));
            costs.entry(key).or_default().count_message_kind(kind);
        }
    }
    let mut writes: BTreeMap<SiteId, CostCounters> = BTreeMap::new();
    for event in history.events() {
        if let ActaEvent::LogWrite {
            site, txn, forced, ..
        } = event
        {
            costs
                .entry((site, txn))
                .or_default()
                .count_log_write(forced);
            writes.entry(site).or_default().count_log_write(forced);
        }
    }
    for site in coord_side
        .iter()
        .copied()
        .chain(scenario.participant_sites())
    {
        let log = world.process(site).engine().log().stats();
        let w = writes.get(&site).copied().unwrap_or_default();
        assert_eq!(
            (w.log_records, w.forced_writes),
            (log.appends, log.forces),
            "{site}: its LogWrite events (records, forced) disagree with its log (appends, forces)"
        );
    }
    let cost = |site, txn| costs.get(&(site, txn)).copied().unwrap_or_default();

    let mut final_state = FinalState::default();
    let mut enforced = BTreeMap::new();
    let mut in_doubt = Vec::new();
    // Per deciding site its last decision (recovery re-decides), per
    // transaction the lowest deciding site's: the coordinator's first.
    let mut decided_by_site = BTreeMap::new();
    for event in history.events() {
        if let ActaEvent::Decide {
            coordinator,
            txn,
            outcome,
        } = event
        {
            decided_by_site.insert((coordinator, txn), outcome);
        }
    }
    let descending = decided_by_site.iter().rev();
    let decided = descending.map(|(&(_, txn), &o)| (txn, o)).collect();
    let mut coordinator_costs = BTreeMap::new();
    let mut participant_costs = BTreeMap::new();
    let mut acceptor_costs = BTreeMap::new();
    let mut acceptor_table_sizes = BTreeMap::new();
    let mut acceptor_log_retained = BTreeMap::new();

    for &site in &coord_side {
        let engine = world.process(site).engine();
        for txn in engine.protocol_table_txns() {
            final_state.protocol_table.push((site, txn));
        }
        for txn in engine.log_pinned() {
            final_state.log_pinned.push((site, txn));
        }
        for spec in &scenario.txns {
            if site == coord_site {
                coordinator_costs.insert(spec.txn, cost(site, spec.txn));
            } else {
                acceptor_costs.insert((site, spec.txn), cost(site, spec.txn));
            }
        }
        if site != coord_site {
            acceptor_table_sizes.insert(site, engine.protocol_table_size());
            acceptor_log_retained.insert(site, engine.log().inner().retained());
        }
    }
    let coord = world.process(coord_site).engine();
    let coordinator_table_size = coord.protocol_table_size();
    let coordinator_log_retained = coord.log().inner().retained();
    let coordinator_log_retained_bytes = coord.log().inner().retained_bytes();

    for site in scenario.participant_sites() {
        let p = world
            .process(site)
            .engine()
            .as_participant()
            .expect("participant site");
        for txn in p.log_pinned() {
            final_state.log_pinned.push((site, txn));
        }
        for (&txn, &o) in p.enforced_all() {
            enforced.insert((site, txn), o);
        }
        for txn in p.in_doubt_txns() {
            in_doubt.push((site, txn));
        }
        for spec in &scenario.txns {
            participant_costs.insert((site, spec.txn), cost(site, spec.txn));
        }
    }

    ScenarioOutcome {
        history,
        final_state,
        enforced,
        in_doubt,
        decided,
        decided_by_site,
        coordinator_table_size,
        coordinator_log_retained,
        coordinator_log_retained_bytes,
        coordinator_costs,
        participant_costs,
        acceptor_costs,
        acceptor_table_sizes,
        acceptor_log_retained,
        events_processed: world.events_processed(),
        events,
        group_commit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_acta::{check_atomicity, check_operational};
    use acp_types::SelectionPolicy;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let d = TimerDelays::default();
        // Attempt 0 is the base delay.
        assert_eq!(
            d.delay(TimerPurpose::InquiryRetry, 0),
            SimTime::from_millis(30)
        );
        // Doubling per attempt...
        assert_eq!(
            d.delay(TimerPurpose::InquiryRetry, 1),
            SimTime::from_millis(60)
        );
        assert_eq!(
            d.delay(TimerPurpose::InquiryRetry, 3),
            SimTime::from_millis(240)
        );
        // ...until the cap.
        assert_eq!(
            d.delay(TimerPurpose::InquiryRetry, 5),
            SimTime::from_millis(500)
        );
        assert_eq!(
            d.delay(TimerPurpose::InquiryRetry, 40),
            SimTime::from_millis(500),
            "huge attempts saturate at max_backoff (no shift overflow)"
        );
        // A max_backoff below the base never shrinks the delay below it.
        let tight = TimerDelays {
            max_backoff: SimTime::from_millis(1),
            ..TimerDelays::default()
        };
        assert_eq!(
            tight.delay(TimerPurpose::AckResend, 0),
            SimTime::from_millis(20)
        );
    }

    /// The ISSUE's termination requirement: under 20% message loss every
    /// protocol population still drives every transaction to a decision
    /// on every site, within the bounded retry budget — the retries (and
    /// their backoff) are what make the lossy links eventually deliver.
    #[test]
    fn all_coordinator_kinds_terminate_under_message_loss() {
        use acp_types::SelectionPolicy as SP;
        let kinds = [
            CoordinatorKind::Single(ProtocolKind::PrN),
            CoordinatorKind::Single(ProtocolKind::PrA),
            CoordinatorKind::Single(ProtocolKind::PrC),
            CoordinatorKind::U2pc(ProtocolKind::PrA),
            CoordinatorKind::C2pc(ProtocolKind::PrN),
            CoordinatorKind::PrAny(SP::PaperStrict),
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let mut s = Scenario::new(
                kind,
                &[ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC],
            );
            s.network = NetworkConfig::lossy(0.2);
            s.seed = 42 + i as u64;
            s.add_txn(TxnId::new(1), SimTime::from_millis(1));
            let out = run_scenario(&s);
            let decided = out.decided.get(&TxnId::new(1)).copied();
            assert!(decided.is_some(), "{kind:?}: no decision under loss");
            // Every site that *prepared* must learn the decision (a site
            // whose prepare was lost never joined the transaction and
            // has nothing to enforce when the vote times out to abort).
            let prepared: Vec<SiteId> = out
                .history
                .events()
                .filter_map(|e| match e {
                    ActaEvent::Prepared { participant, .. } => Some(participant),
                    _ => None,
                })
                .collect();
            for site in prepared {
                assert_eq!(
                    out.enforced.get(&(site, TxnId::new(1))).copied(),
                    decided,
                    "{kind:?}: {site} prepared but did not learn the decision under loss"
                );
            }
            // The run only terminates because retries are bounded *and*
            // backed off; it must quiesce well inside the event budget.
            assert!(out.events_processed < s.max_events);
        }
    }

    #[test]
    fn retries_surface_in_the_event_stream_under_loss() {
        let mut s = Scenario::new(
            CoordinatorKind::PrAny(acp_types::SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC],
        );
        s.network = NetworkConfig::lossy(0.35);
        s.seed = 7;
        s.add_txn(TxnId::new(1), SimTime::from_millis(1));
        let out = run_scenario(&s);
        let retries: Vec<_> = out
            .events
            .iter()
            .filter_map(|e| match e {
                ProtocolEvent::RetryScheduled {
                    purpose, attempt, ..
                } => Some((*purpose, *attempt)),
                _ => None,
            })
            .collect();
        assert!(
            !retries.is_empty(),
            "35% loss must provoke at least one retry"
        );
        assert!(retries.iter().all(|(_, a)| *a >= 1), "{retries:?}");
    }

    #[test]
    fn clean_runs_emit_no_retry_events() {
        let mut s = Scenario::new(
            CoordinatorKind::PrAny(acp_types::SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        s.add_txn(TxnId::new(1), SimTime::from_millis(1));
        let out = run_scenario(&s);
        assert!(
            !out.events
                .iter()
                .any(|e| matches!(e, ProtocolEvent::RetryScheduled { .. })),
            "a loss-free run must not schedule retries (golden traces rely on this)"
        );
    }

    #[test]
    fn clean_prany_commit_is_operationally_correct() {
        let mut s = Scenario::new(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        s.add_txn(TxnId::new(1), SimTime::from_millis(1));
        let out = run_scenario(&s);
        assert_eq!(out.decided[&TxnId::new(1)], Outcome::Commit);
        assert_eq!(out.enforced.len(), 2);
        assert!(out.enforced.values().all(|o| *o == Outcome::Commit));
        assert!(check_atomicity(&out.history).is_empty());
        assert!(check_operational(&out.history, &out.final_state).is_empty());
        assert_eq!(out.coordinator_table_size, 0);
    }

    #[test]
    fn no_vote_aborts_everywhere() {
        let mut s = Scenario::new(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC],
        );
        s.add_txn_with_vote(
            TxnId::new(1),
            SimTime::from_millis(1),
            SiteId::new(2),
            Vote::No,
        );
        let out = run_scenario(&s);
        assert_eq!(out.decided[&TxnId::new(1)], Outcome::Abort);
        assert!(out.enforced.values().all(|o| *o == Outcome::Abort));
        assert!(check_atomicity(&out.history).is_empty());
        assert!(check_operational(&out.history, &out.final_state).is_empty());
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let run = || {
            let mut s = Scenario::new(
                CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
                &[ProtocolKind::PrA, ProtocolKind::PrC],
            );
            s.network = NetworkConfig::lan();
            s.seed = 99;
            s.add_txn(TxnId::new(1), SimTime::from_millis(1));
            s.add_txn(TxnId::new(2), SimTime::from_millis(2));
            run_scenario(&s).events
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn participant_crash_recovers_via_inquiry() {
        let mut s = Scenario::new(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        s.add_txn(TxnId::new(1), SimTime::from_millis(1));
        // Crash the PrC participant right after it votes (≈1.5ms) and
        // bring it back later; it must learn the outcome by inquiry.
        s.failures = FailureSchedule::single(
            SiteId::new(2),
            SimTime::from_micros(1_500),
            SimTime::from_millis(200),
        );
        let out = run_scenario(&s);
        assert!(
            check_atomicity(&out.history).is_empty(),
            "{:?}",
            out.history
        );
        assert!(
            check_operational(&out.history, &out.final_state).is_empty(),
            "{:?}",
            check_operational(&out.history, &out.final_state)
        );
        assert_eq!(out.enforced.len(), 2, "both participants enforced");
    }

    #[test]
    fn coordinator_crash_recovers_and_completes() {
        let mut s = Scenario::new(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrN, ProtocolKind::PrC],
        );
        s.add_txn(TxnId::new(1), SimTime::from_millis(1));
        s.failures = FailureSchedule::single(
            SiteId::new(0),
            SimTime::from_micros(1_500),
            SimTime::from_millis(100),
        );
        let out = run_scenario(&s);
        assert!(check_atomicity(&out.history).is_empty());
        assert!(
            check_operational(&out.history, &out.final_state).is_empty(),
            "{:?}",
            check_operational(&out.history, &out.final_state)
        );
        assert_eq!(out.coordinator_table_size, 0);
    }

    // ---- Paxos Commit through the same harness ----

    use crate::cost::predict_paxos;
    use acp_acta::check_safe_state;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    fn sum<'a>(costs: impl Iterator<Item = &'a CostCounters>) -> CostCounters {
        costs.fold(CostCounters::default(), |mut a, c| {
            a += *c;
            a
        })
    }

    fn assert_clean(outcome: &ScenarioOutcome) {
        let v = check_atomicity(&outcome.history);
        assert!(v.is_empty(), "atomicity violations: {v:?}");
        for &(site, txn) in outcome.decided_by_site.keys() {
            let v = check_safe_state(&outcome.history, site, txn);
            assert!(v.is_empty(), "safe-state violations at {site}: {v:?}");
        }
    }

    #[test]
    fn paxos_clean_commit_matches_the_analytic_model() {
        for n in 1..=3usize {
            let mut s = Scenario::paxos(n, 1);
            s.add_txn(TxnId::new(1), ms(1));
            let out = run_scenario(&s);
            assert_eq!(out.decided[&TxnId::new(1)], Outcome::Commit);
            assert!(out.in_doubt.is_empty());
            assert_clean(&out);

            let model = predict_paxos(n, 1, Outcome::Commit);
            let leader = out.coordinator_costs[&TxnId::new(1)];
            assert_eq!(leader.forced_writes, model.leader_forces, "n={n}");
            assert_eq!(leader.log_records, model.leader_records, "n={n}");
            let acc = sum(out.acceptor_costs.values());
            assert_eq!(acc.forced_writes, model.acceptor_forces, "n={n}");
            assert_eq!(acc.log_records, model.acceptor_records, "n={n}");
            let parts = sum(out.participant_costs.values());
            assert_eq!(parts.forced_writes, model.part_forces, "n={n}");
            assert_eq!(parts.log_records, model.part_records, "n={n}");
            assert_eq!(out.total_costs(TxnId::new(1)).messages(), model.messages);

            // Fully reclaimed everywhere at quiescence.
            assert_eq!(out.coordinator_table_size, 0);
            assert_eq!(out.coordinator_log_retained, 0);
            assert_eq!(out.acceptor_table_sizes.len(), 2);
            assert!(out.acceptor_table_sizes.values().all(|&s| s == 0));
            assert!(out.acceptor_log_retained.values().all(|&r| r == 0));
        }
    }

    /// The headline schedule, once under each tolerance.
    ///
    /// The adversary severs the leader from both participants just
    /// after the votes are on the wire, then `kill -9`s the leader. The
    /// leader decides commit and logs it durably, but no participant
    /// ever hears: under 2PC (`f = 0`) both participants are stuck
    /// in-doubt forever. With `f = 1` the accepted Prepared bundles
    /// survive on the acceptor quorum and acceptor rank 1 re-drives the
    /// *same* commit.
    fn headline(f: usize) -> ScenarioOutcome {
        let t = TxnId::new(9);
        let mut s = Scenario::paxos(2, f);
        s.add_txn(t, ms(1));
        let leader = s.coordinator_site();
        for p in s.participant_sites() {
            s.partitions
                .push((leader, p, SimTime::from_micros(1300), ms(10_000)));
        }
        s.kills.push((leader, ms(2)));
        run_scenario(&s)
    }

    #[test]
    fn paxos_headline_leader_kill_blocks_2pc() {
        let out = headline(0);
        let t = TxnId::new(9);
        // The coordinator decided and durably logged commit...
        assert_eq!(out.decided.get(&t), Some(&Outcome::Commit));
        // ...but died before any participant heard: both are stuck
        // in-doubt, with nothing enforced, for the rest of time.
        assert!(out.enforced.is_empty());
        let mut stuck = out.in_doubt.clone();
        stuck.sort();
        assert_eq!(stuck, vec![(SiteId::new(1), t), (SiteId::new(2), t)]);
    }

    #[test]
    fn paxos_headline_leader_kill_commits_under_f1() {
        let out = headline(1);
        let t = TxnId::new(9);
        assert_eq!(out.decided.get(&t), Some(&Outcome::Commit));
        // Acceptor rank 1 (site 3) completed the failover.
        assert_eq!(
            out.decided_by_site.get(&(SiteId::new(3), t)),
            Some(&Outcome::Commit)
        );
        // Both participants enforced commit; nobody is in doubt.
        assert_eq!(
            out.enforced.get(&(SiteId::new(1), t)),
            Some(&Outcome::Commit)
        );
        assert_eq!(
            out.enforced.get(&(SiteId::new(2), t)),
            Some(&Outcome::Commit)
        );
        assert!(out.in_doubt.is_empty());
        // The survivors' protocol tables and logs are fully reclaimed.
        assert_eq!(out.acceptor_table_sizes[&SiteId::new(3)], 0);
        assert_eq!(out.acceptor_table_sizes[&SiteId::new(4)], 0);
        assert_eq!(out.acceptor_log_retained[&SiteId::new(3)], 0);
        assert_eq!(out.acceptor_log_retained[&SiteId::new(4)], 0);
        assert_clean(&out);
    }

    #[test]
    fn paxos_acceptor_minority_partition_does_not_block_commit() {
        // Sever one acceptor of three from everyone for the whole run:
        // the quorum {leader, rank 1} still decides.
        let t = TxnId::new(3);
        let mut s = Scenario::paxos(2, 1);
        s.add_txn(t, ms(1));
        let minority = SiteId::new(4);
        for site in [
            SiteId::new(0),
            SiteId::new(1),
            SiteId::new(2),
            SiteId::new(3),
        ] {
            s.partitions
                .push((minority, site, SimTime::from_micros(500), ms(5_000)));
        }
        let out = run_scenario(&s);
        assert_eq!(out.decided.get(&t), Some(&Outcome::Commit));
        assert!(out.in_doubt.is_empty());
        assert_clean(&out);
        // The partitioned acceptor never learned of the transaction.
        assert_eq!(out.acceptor_table_sizes[&minority], 0);
    }

    #[test]
    fn paxos_leader_crash_and_recovery_redrives_the_decision() {
        // f = 0: no failover possible, but the forced bundle means the
        // recovered leader re-decides the same outcome from its WAL.
        let t = TxnId::new(5);
        let mut s = Scenario::paxos(2, 0);
        s.add_txn(t, ms(1));
        // Crash after the decision is logged (1.4ms) but before the
        // participant acks arrive (1.8ms); recover well after.
        s.failures =
            FailureSchedule::single(s.coordinator_site(), SimTime::from_micros(1700), ms(50));
        let out = run_scenario(&s);
        assert_eq!(out.decided.get(&t), Some(&Outcome::Commit));
        assert_eq!(
            out.enforced.get(&(SiteId::new(1), t)),
            Some(&Outcome::Commit)
        );
        assert_eq!(
            out.enforced.get(&(SiteId::new(2), t)),
            Some(&Outcome::Commit)
        );
        assert!(out.in_doubt.is_empty());
        assert_eq!(out.coordinator_table_size, 0);
        assert_eq!(out.coordinator_log_retained, 0);
        assert_clean(&out);
    }

    #[test]
    fn paxos_lossy_sweep_stays_atomic_and_reclaims() {
        for seed in 0..6u64 {
            let mut s = Scenario::paxos(2, 1);
            s.network = NetworkConfig::lossy(0.10);
            s.seed = seed;
            s.add_txn(TxnId::new(1), ms(1));
            s.add_txn(TxnId::new(2), ms(2));
            let out = run_scenario(&s);
            assert_clean(&out);
            assert!(out.in_doubt.is_empty(), "seed {seed}: {:?}", out.in_doubt);
            for txn in [TxnId::new(1), TxnId::new(2)] {
                assert!(
                    out.decided.contains_key(&txn),
                    "seed {seed}: {txn} undecided"
                );
            }
            assert!(
                out.coordinator_table_size == 0
                    && out.acceptor_table_sizes.values().all(|&n| n == 0),
                "seed {seed}: tables not reclaimed: {} {:?}",
                out.coordinator_table_size,
                out.acceptor_table_sizes
            );
        }
    }

    /// With one acceptor, Paxos Commit *is* 2PC. Decisions, enforcement
    /// and every cost counter must match PrN on a shared schedule
    /// corpus. (The all-ReadOnly corner is excluded by design: Paxos
    /// still runs consensus so a failover candidate can never
    /// contradict the leader — see the `paxos` module docs.)
    #[test]
    fn paxos_f0_degenerates_to_prn_on_a_shared_corpus() {
        // (n, no-voter, client-abort-at)
        let corpus: [(usize, Option<u32>, Option<SimTime>); 5] = [
            (1, None, None),
            (2, None, None),
            (3, None, None),
            (2, Some(1), None),
            (2, None, Some(SimTime::from_micros(1300))),
        ];
        for (i, &(n, no_voter, abort_at)) in corpus.iter().enumerate() {
            let t = TxnId::new(1 + i as u64);
            let run = |paxos_f| {
                let mut s = Scenario::paxos(n, 0);
                s.paxos_f = paxos_f;
                let spec = s.add_txn(t, ms(1));
                if let Some(site) = no_voter {
                    spec.votes.insert(SiteId::new(site), Vote::No);
                }
                spec.abort_at = abort_at;
                run_scenario(&s)
            };
            let paxos = run(Some(0));
            let prn = run(None);

            assert_eq!(paxos.decided, prn.decided, "case {i}");
            assert_eq!(paxos.enforced, prn.enforced, "case {i}");
            assert_eq!(
                paxos.coordinator_costs[&t], prn.coordinator_costs[&t],
                "case {i}: coordinator costs diverge"
            );
            assert_eq!(
                paxos.participant_costs, prn.participant_costs,
                "case {i}: participant costs diverge"
            );
            assert_eq!(
                paxos.coordinator_table_size, prn.coordinator_table_size,
                "case {i}"
            );
            assert_eq!(
                paxos.coordinator_log_retained, prn.coordinator_log_retained,
                "case {i}"
            );
        }
    }

    /// What the shared harness gives Paxos scenarios that their own
    /// harness never had: the typed event stream, labelled per site,
    /// and with it PrAny's no-retries-on-a-clean-run property — up to
    /// the completion watchdog, whose *first* arming at acceptor rank
    /// `r` carries `attempt = r` (the engine staggers failover by rank
    /// through the backoff), so it reads as a retry here exactly as it
    /// does on the real-time kernel.
    #[test]
    fn paxos_scenarios_emit_the_typed_event_stream() {
        let retries = |f| {
            let mut s = Scenario::paxos(2, f);
            s.add_txn(TxnId::new(1), ms(1));
            let out = run_scenario(&s);
            assert!(!out.events.is_empty());
            for site in std::iter::once(0).chain(3..3 + 2 * f as u32) {
                let mut of_site = out.events.iter().filter(|e| e.site() == site).peekable();
                assert!(of_site.peek().is_some(), "acceptor S{site} emitted nothing");
                assert!(of_site.all(|e| e.proto() == ProtoLabel::Paxos), "S{site}");
            }
            let retries = out.events.iter().filter_map(|e| match e {
                ProtocolEvent::RetryScheduled {
                    site,
                    purpose,
                    attempt,
                    ..
                } => Some((*site, *purpose, *attempt)),
                _ => None,
            });
            retries.collect::<Vec<_>>()
        };
        assert_eq!(retries(0), vec![], "2PC by another name: no retries");
        assert_eq!(
            retries(1),
            vec![(3, "paxos-completion", 1), (4, "paxos-completion", 2)],
            "a loss-free run re-sends nothing: only the rank stagger shows"
        );
    }
}
