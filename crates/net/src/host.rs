//! The site-hosting kernel: the one turn discipline every event-loop
//! backend runs (DESIGN.md, "Runtime architecture").
//!
//! The engines are sans-IO, so hosting them is the same job whatever
//! carries their messages. A [`Kernel`] owns a set of sites — each an
//! [`AnyEngine`] over a [`NetLog`] (coordinator, Paxos member,
//! participant or gateway), a native participant also its data side —
//! the timer wheel, the client reply table and the admission door, and
//! runs one **turn**: recover due sites, fire
//! due timers, drain envelopes into the engines, then per site flush
//! the data WAL and force the open group-commit batch through the
//! kernel's [`FsyncDomain`] — one coalesced force round per turn, every
//! kind of site alike — and only then externalize what the batch
//! withheld (the site's sends *and* its ACTA events); collect the
//! coordinator's log and every native participant's; answer the
//! clients whose decisions the turn externalized. A decision is
//! externalized with its `Decide` event, when the kernel publishes it
//! to the history: at once for a passthrough log, after the force for
//! a batching one.
//! Protocol costs leave through the trace sink the kernel is handed;
//! counting them is the sink's job.
//!
//! What differs between backends is only where an envelope goes when
//! its site lives elsewhere and how the loop sleeps: the [`Transport`]
//! trait. The reactor is N of these kernels over in-process mailboxes,
//! the socket node is one over framed TCP under epoll. The kernel is
//! generic over the transport, so the send path is statically
//! dispatched.
//!
//! Everything protocol-visible — the engines, the [`NetDelays`] backoff
//! schedule, the emission points in [`crate::site`] — sits below the
//! transport, so a trace line is formatted identically whichever
//! backend produced it. The kernel switches the engines' opt-in
//! timer-cancellation tracking on, draining retired tokens into wheel
//! cancels instead of letting dead timers fire.

use crate::cluster::SiteSummary;
use crate::envelope::Envelope;
use crate::reactor::{InflightGauge, ReactorConfig, ReactorStats};
use crate::site::{
    decide_vote, observe_acta, observe_crash, observe_gc, observe_recover, observe_recv,
    observe_retry, observe_send, protocol_outcomes, NetDelays, NetLog, NetObs, SharedHistory,
};
use crate::timer::{TimerId, TimerWheel};
use acp_acta::ActaEvent;
use acp_core::{
    Action, AnyEngine, Coordinator, GatewayParticipant, LegacyStore, Participant, PaxosConfig,
    PaxosNode, TimerPurpose,
};
use acp_engine::SiteEngine;
use acp_obs::{ProtoLabel, ProtocolEvent, TraceSink};
use acp_types::{Message, Outcome, Payload, SiteId, TxnId, Vote};
use acp_wal::{DomainStats, FileLog, FsyncDomain, GroupCommitLog, GroupCommitStats};
use crossbeam::channel::{Receiver, Sender};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The coordinator's site id on every backend.
pub(crate) const COORDINATOR: SiteId = SiteId(0);

/// An envelope with the site it is addressed to.
pub(crate) type Mail = (SiteId, Envelope);

/// How long an idle kernel sleeps when nothing has a deadline.
const IDLE_SLEEP: Duration = Duration::from_millis(50);

/// Releasable records a native participant's protocol log gathers
/// before the kernel collects it: one header write (or, past the
/// reclaim floor, one compaction) per this many, not per turn.
const PART_GC_RECORDS: u64 = 128;

/// What a backend adds to the kernel: where envelopes for sites hosted
/// elsewhere go, and how the loop waits for more input.
pub(crate) trait Transport {
    /// Route an envelope addressed to `to`: give it back when this
    /// kernel hosts it (the kernel queues it for dispatch), otherwise
    /// hand it to whoever does (or drop it) and return `None`.
    fn route(&mut self, now: Instant, to: SiteId, envelope: Envelope) -> Option<Envelope>;

    /// Which slice of a sliced destination a message belongs to. Sends
    /// a batch withheld coalesce per (slice, destination), so one
    /// envelope never spans two owners. Unsliced transports have one.
    fn slice_of(&self, _msg: &Message) -> usize {
        0
    }

    /// Begin-of-turn pump; returns whether it did any work.
    fn begin_turn(&mut self, _now: Instant) -> bool {
        false
    }

    /// End-of-turn pump, after the turn's sends were routed.
    fn end_turn(&mut self, _now: Instant) {}

    /// Block until input arrives or `timeout` passes, pushing what
    /// arrived for hosted sites onto `ready`. `rx` is the kernel's
    /// client injector. Returns `false` once no input can ever arrive.
    fn wait(&mut self, timeout: Duration, rx: &Receiver<Mail>, ready: &mut VecDeque<Mail>) -> bool;

    /// The transport's own next deadline, folded into the loop's sleep.
    fn next_deadline(&self) -> Option<Instant> {
        None
    }

    /// A hosted site fail-stopped.
    fn site_crashed(&mut self, _now: Instant) {}

    /// Shutdown: push out what is still owed to other hosts.
    fn drain(&mut self) {}
}

// ---------------------------------------------------------------------------
// Site state

/// A native participant's data side: the storage engine its votes and
/// enforcement act on, the client's vote overrides and its lock-conflict
/// marks. A gateway keeps its data (the legacy system) in its engine.
/// An override or a mark is read by the transaction's prepare and
/// leaves with it; a duplicate prepare is answered from the
/// participant's own state.
struct DataSide {
    storage: SiteEngine<FileLog>,
    forced_intents: BTreeMap<TxnId, Vote>,
    poisoned: BTreeSet<TxnId>,
}

/// One input to a site's protocol engine.
#[derive(Clone, Copy)]
enum Input<'a> {
    Message(&'a Message),
    Timer(u64),
    Recover,
    Commit(TxnId, &'a [SiteId]),
}

/// Host-side per-site bookkeeping (everything that is not the engine).
struct SiteHost {
    site: SiteId,
    obs: Option<NetObs>,
    down_until: Option<Instant>,
    last_decision_us: Option<u64>,
    /// Sends and ACTA events withheld until the batch forces (while the
    /// site's log batches): nothing a site did is externalized before
    /// the records it rests on are durable, and a crash takes both along.
    deferred_sends: Vec<Message>,
    deferred_acta: Vec<ActaEvent>,
    /// Engine timer token → wheel entry, for cancellation. A hash map
    /// keeps its capacity as timers come and go, so a steady turn
    /// allocates nothing for it; nothing iterates it.
    timer_ids: HashMap<u64, TimerId>,
    /// Suppress crash/recover *observability* (ACTA events + trace
    /// lines) for this engine. Set on every coordinator slice except
    /// slice 0: the N slices are one logical site 0, and a broadcast
    /// crash must read as ONE site crash in the history, not N. The
    /// engines themselves still crash and recover normally.
    quiet: bool,
}

impl SiteHost {
    fn is_down(&self, now: Instant) -> bool {
        self.down_until.is_some_and(|t| now < t)
    }
}

struct SiteState {
    host: SiteHost,
    engine: AnyEngine<NetLog>,
    /// `Some` exactly on a native participant.
    data: Option<DataSide>,
}

/// Loop-wide mutable context threaded through dispatch.
struct Ctx<T> {
    wheel: TimerWheel<(SiteId, u64, TimerPurpose)>,
    /// Envelopes for hosted sites, ready for dispatch this turn.
    ready: VecDeque<Mail>,
    history: SharedHistory,
    delays: NetDelays,
    /// Where each in-flight commit's decision goes.
    replies: HashMap<TxnId, Sender<Outcome>>,
    /// Every outcome this kernel externalized, by transaction: a
    /// duplicate `Commit` is answered from it. It is client-protocol
    /// state, kept exact (one entry per decided transaction, never
    /// dropped) until a dropped `Commit` stops leaking its locks
    /// (ROADMAP item 8(b)); a hash map keeps its capacity.
    answers: HashMap<TxnId, Outcome>,
    /// Transactions whose decisions this turn externalized: their
    /// clients are answered at the turn's end, so a client that is
    /// answered cannot keep the turn's drain going with its next
    /// request.
    to_answer: Vec<TxnId>,
    /// Cluster-wide in-flight commit gauge (shared across shards).
    inflight: Arc<InflightGauge>,
    stats: ReactorStats,
    /// The turn's start. Deadlines that must not shrink when a turn
    /// runs long (engine timers) read the clock afresh instead.
    now: Instant,
    /// One coalesced force round per turn.
    domain: FsyncDomain,
    /// The turn's scratch, reused by every engine step so a steady
    /// turn does not allocate for them: the actions of the step being
    /// carried out, and the timer tokens it retired.
    actions: Vec<Action>,
    retired: Vec<u64>,
    transport: T,
}

impl<T: Transport> Ctx<T> {
    fn route(&mut self, to: SiteId, envelope: Envelope) {
        if let Some(mine) = self.transport.route(self.now, to, envelope) {
            self.ready.push_back((to, mine));
        }
    }

    /// Publish ACTA events to the history. A decision among them is
    /// externalized here: from now on a duplicate of its `Commit` is
    /// answered with it, and its client is at the turn's end.
    fn publish(&mut self, events: impl IntoIterator<Item = ActaEvent>) {
        let mut history = self.history.lock();
        for e in events {
            if let ActaEvent::Decide { txn, outcome, .. } = e {
                self.answers.insert(txn, outcome);
                self.to_answer.push(txn);
            }
            history.push(e);
        }
    }
}

/// Execute (and drain) engine actions for one site, enforcing
/// decisions on its `storage` as they are met. `defer` withholds sends
/// and ACTA events until the site's batch forces.
fn run_site_actions<T: Transport>(
    host: &mut SiteHost,
    defer: bool,
    mut storage: Option<&mut SiteEngine<FileLog>>,
    ctx: &mut Ctx<T>,
    actions: &mut Vec<Action>,
) {
    for a in actions.drain(..) {
        match a {
            Action::Send { to, payload } => {
                let msg = Message::new(host.site, to, payload);
                if defer {
                    host.deferred_sends.push(msg);
                } else {
                    if let Some(obs) = &host.obs {
                        observe_send(obs, host.site, &msg);
                    }
                    ctx.route(to, Envelope::Protocol(msg));
                }
            }
            Action::SetTimer {
                token,
                purpose,
                attempt,
            } => {
                if let Some(obs) = &host.obs {
                    observe_retry(obs, host.site, purpose, attempt);
                }
                // Jittered backoff: retries from different sites (or
                // different timers on one site) spread out instead of
                // thundering in lockstep after an outage heals. The
                // salt is deterministic, so a run is reproducible; the
                // clock is read here, not at the turn's start, so a
                // long turn cannot eat into the delay.
                let salt = (u64::from(host.site.raw()) << 32) ^ token;
                let fire_at = Instant::now() + ctx.delays.delay_jittered(purpose, attempt, salt);
                let id = ctx.wheel.arm(fire_at, (host.site, token, purpose));
                host.timer_ids.insert(token, id);
            }
            Action::Acta(e) => {
                if let Some(obs) = &host.obs {
                    observe_acta(obs, host.site, &e, &mut host.last_decision_us);
                }
                if defer {
                    host.deferred_acta.push(e);
                } else {
                    ctx.publish([e]);
                }
            }
            Action::Enforce { txn, outcome } => {
                if let Some(storage) = &mut storage {
                    storage.resolve(txn, outcome).expect("resolve");
                }
            }
            Action::Gc {
                released_up_to,
                records_released,
            } => {
                if let Some(obs) = &host.obs {
                    observe_gc(
                        obs,
                        host.site,
                        released_up_to,
                        records_released,
                        host.last_decision_us,
                    );
                }
            }
        }
    }
}

/// Feed one input to a site and carry out what its engine asks for,
/// then cancel the wheel entries of the timers it retired (the actions
/// run first: one may arm the very token a later cancel retires).
///
/// A native participant votes what its data side decides, handed to it
/// with the prepare, so it keeps no vote of its own. While its
/// log batches, the write set is staged without forcing the data log:
/// `finish_turns` flushes it before the withheld vote can leave.
fn drive<T: Transport>(st: &mut SiteState, ctx: &mut Ctx<T>, input: Input<'_>) {
    let SiteState { host, engine, data } = st;
    let (mut actions, mut retired) = (
        std::mem::take(&mut ctx.actions),
        std::mem::take(&mut ctx.retired),
    );
    let defer = engine.log().batching();
    match input {
        Input::Message(msg) => match (&msg.payload, data.as_mut(), &mut *engine) {
            (Payload::Prepare { txn }, Some(d), AnyEngine::Part(p)) => {
                let (forced, poisoned) = (d.forced_intents.remove(txn), d.poisoned.remove(txn));
                let vote = decide_vote(&mut d.storage, *txn, forced, poisoned, defer);
                p.on_prepare_into(msg.from, *txn, vote, &mut actions);
            }
            _ => engine.on_message_into(msg.from, &msg.payload, &mut actions),
        },
        Input::Timer(token) => engine.on_timer_into(token, &mut actions),
        Input::Recover => {
            engine.recover_into(&mut actions);
            if let Some(d) = data.as_mut() {
                let outcomes = protocol_outcomes(engine.log());
                d.storage.recover(&outcomes).expect("storage recovery");
            }
        }
        Input::Commit(txn, sites) => engine.begin_commit_into(txn, sites, &mut actions),
    }
    engine.drain_cancelled_timers_into(&mut retired);
    let storage = data.as_mut().map(|d| &mut d.storage);
    run_site_actions(host, defer, storage, ctx, &mut actions);
    for token in retired.drain(..) {
        if let Some(id) = host.timer_ids.remove(&token) {
            if ctx.wheel.cancel(id) {
                ctx.stats.timers_cancelled += 1;
            }
        }
    }
    (ctx.actions, ctx.retired) = (actions, retired);
}

fn protocol_message<T: Transport>(st: &mut SiteState, ctx: &mut Ctx<T>, msg: &Message) {
    if let Some(obs) = &st.host.obs {
        observe_recv(obs, st.host.site, msg);
    }
    drive(st, ctx, Input::Message(msg));
}

/// Externalize what a site withheld (after its batch forced): publish
/// its ACTA events, then emit its sends, coalescing same-destination
/// messages into one [`Envelope::ProtocolBatch`] (ack piggybacking).
///
/// Batches are keyed by *(slice, destination)*, not destination alone:
/// messages to a sliced coordinator route by transaction id, so two
/// acks to site 0 may belong to different slices and must not share an
/// envelope. With one slice the key degenerates to the destination and
/// the grouping (and therefore the trace) is identical everywhere.
fn flush_sends<T: Transport>(host: &mut SiteHost, ctx: &mut Ctx<T>) {
    if !host.deferred_acta.is_empty() {
        ctx.publish(host.deferred_acta.drain(..));
    }
    let sends = &mut host.deferred_sends;
    if let Some(obs) = &host.obs {
        for msg in sends.iter() {
            observe_send(obs, host.site, msg);
        }
    }
    // Group in place: a stable sort keeps each destination's messages
    // in send order, and the withheld buffer keeps its capacity.
    let key = |t: &T, msg: &Message| (t.slice_of(msg), msg.to);
    sends.sort_by_key(|msg| key(&ctx.transport, msg));
    while let Some(first) = sends.first() {
        let (group, to) = (key(&ctx.transport, first), first.to);
        let same = |msg: &&Message| key(&ctx.transport, msg) == group;
        let n = sends.iter().take_while(same).count();
        let envelope = if n == 1 {
            Envelope::Protocol(sends.remove(0))
        } else {
            Envelope::ProtocolBatch(sends.drain(..n).collect())
        };
        ctx.route(to, envelope);
    }
}

/// Force a site's open batch — as a member of the kernel's fsync
/// domain, so the turn's forces across all member sites count as one
/// coalesced force round — and externalize what it withheld.
fn force_site_batch<T: Transport>(host: &mut SiteHost, log: &mut NetLog, ctx: &mut Ctx<T>) {
    match ctx.domain.force_member(log) {
        Ok(_) => {
            for b in log.take_closed() {
                if b.occupancy >= 2 {
                    if let Some(obs) = &host.obs {
                        obs.sink.record(&ProtocolEvent::BatchCommit {
                            at_us: obs.now_us(),
                            site: host.site.raw(),
                            proto: obs.proto,
                            occupancy: b.occupancy,
                        });
                    }
                }
            }
            ctx.stats.window_forces += 1;
        }
        // Force failed: the records the withheld sends and ACTA events
        // rest on never became durable, so externalizing either would
        // be unsound. Omission failure.
        Err(_) => {
            host.deferred_sends.clear();
            host.deferred_acta.clear();
            ctx.stats.failed_forces += 1;
        }
    }
    flush_sends(host, ctx);
}

fn crash_volatile<T>(host: &mut SiteHost, ctx: &mut Ctx<T>) {
    ctx.stats.timers_cancelled += ctx.wheel.cancel_where(|(s, _, _)| *s == host.site) as u64;
    host.timer_ids.clear();
    host.deferred_sends.clear();
    host.deferred_acta.clear();
}

// ---------------------------------------------------------------------------
// Building a kernel

/// What whoever spawns a kernel hands it: the cluster shape and the
/// cluster-wide handles its sites report into.
pub(crate) struct HostEnv {
    /// Cluster shape and admission bound.
    pub config: ReactorConfig,
    /// Client injector.
    pub rx: Receiver<Mail>,
    /// Cluster-wide ACTA history.
    pub history: SharedHistory,
    /// Cluster-wide in-flight commit gauge.
    pub inflight: Arc<InflightGauge>,
    /// Trace sink for the hosted sites.
    pub sink: Option<Arc<dyn TraceSink>>,
    /// Epoch for trace timestamps and the timer wheel.
    pub t0: Instant,
}

/// What a kernel hands back at shutdown: its hosted sites' final state
/// and its loop counters. The history is cluster-wide, so whoever
/// spawned the kernels reads it once, after all of them stopped.
pub(crate) struct KernelReport {
    pub sites: Vec<SiteSummary>,
    pub coordinator_table_size: usize,
    pub group_commit: GroupCommitStats,
    pub logical_forces: u64,
    pub physical_syncs: u64,
    pub stats: ReactorStats,
    pub fsync: DomainStats,
}

/// Open an existing WAL (restart) or create a fresh one (first boot).
/// Returns the log and whether it predated this process.
fn open_or_create(path: PathBuf) -> io::Result<(FileLog, bool)> {
    if path.exists() {
        Ok((FileLog::open(path).map_err(io::Error::other)?, true))
    } else {
        Ok((FileLog::create(path).map_err(io::Error::other)?, false))
    }
}

/// A set of hosted sites and the loop that turns them.
pub(crate) struct Kernel<T> {
    sites: Vec<SiteState>,
    /// Site id → index into `sites`.
    owned: BTreeMap<SiteId, usize>,
    /// Index of the hosted coordinator (slice) or Paxos leader, if any.
    coord: Option<usize>,
    /// Sites whose protocol log predates this process: `run` restarts
    /// them before accepting work.
    restarted: Vec<usize>,
    ctx: Ctx<T>,
    /// Client injector (and, on a reactor, other shards' mail).
    rx: Receiver<Mail>,
    /// The admission bound ([`ReactorConfig::max_inflight`]).
    max_inflight: Option<u64>,
    running: bool,
}

impl<T: Transport> Kernel<T> {
    /// Build the engines of the `hosted` sites (in turn order) over
    /// their WALs in `dir`: a protocol log already there is **reopened
    /// and replayed** (restart semantics), otherwise created fresh.
    /// `slice` is which slice of the coordinator this kernel hosts (0
    /// when it is not sliced): it names the slice's WAL, and only slice
    /// 0 narrates the coordinator's crash and recovery.
    pub(crate) fn build(
        env: HostEnv,
        hosted: &[SiteId],
        dir: &Path,
        slice: usize,
        transport: T,
    ) -> io::Result<Kernel<T>> {
        let (config, t0) = (&env.config, env.t0);
        let cc = &config.cluster;
        let n_parts = cc.participant_protocols.len();
        let paxos = cc.paxos_f.map(|f| PaxosConfig::for_cluster(n_parts, f));
        let protocol_log = |name: String| -> io::Result<(NetLog, bool)> {
            let (log, existed) = open_or_create(dir.join(name))?;
            let log = if cc.group_commit {
                GroupCommitLog::deferred(log)
            } else {
                GroupCommitLog::passthrough(log)
            };
            Ok((log, existed))
        };

        let mut sites = Vec::new();
        let mut owned = BTreeMap::new();
        let mut restarted = Vec::new();
        for &site in hosted {
            let n = site.raw();
            // Site 0's log is per coordinator slice, everyone else's per site.
            let wal = |kind: &str| match n {
                0 => format!("coord-{slice}.wal"),
                _ => format!("{kind}-{n}.wal"),
            };
            let mut data = None;
            let (mut engine, label, existed) = match &paxos {
                // A member of the replicated coordinator. Each keeps its
                // own WAL, so a killed process recovers from it.
                Some(pc) if pc.acceptors.contains(&site) => {
                    let (log, existed) = protocol_log(wal("paxos"))?;
                    let engine = PaxosNode::new(site, pc.clone(), log);
                    (AnyEngine::Paxos(engine), ProtoLabel::Paxos, existed)
                }
                _ if site == COORDINATOR => {
                    let (log, existed) = protocol_log(wal("coord"))?;
                    let mut engine = Coordinator::new(COORDINATOR, cc.kind, log);
                    for (i, &p) in cc.participant_protocols.iter().enumerate() {
                        engine.register_site(SiteId::new(i as u32 + 1), p);
                    }
                    engine.auto_gc = false; // once per turn instead: `gc_turns`
                    let label = ProtoLabel::of_coordinator(cc.kind);
                    (AnyEngine::Coord(engine), label, existed)
                }
                _ => {
                    let idx = n as usize - 1;
                    let proto = *cc
                        .participant_protocols
                        .get(idx)
                        .unwrap_or_else(|| panic!("hosted site {n} not in cluster"));
                    if cc.gateways.contains(&idx) {
                        let (log, existed) = protocol_log(wal("gw"))?;
                        let engine = GatewayParticipant::new(site, proto, log, LegacyStore::new());
                        (AnyEngine::Gateway(engine), ProtoLabel::Gateway, existed)
                    } else {
                        let (log, existed) = protocol_log(wal("part"))?;
                        let (data_log, _) = open_or_create(dir.join(wal("data")))?;
                        data = Some(DataSide {
                            storage: SiteEngine::new(data_log),
                            forced_intents: BTreeMap::new(),
                            poisoned: BTreeSet::new(),
                        });
                        let engine = Participant::new(site, proto, log);
                        (
                            AnyEngine::Part(engine),
                            ProtoLabel::of_participant(proto),
                            existed,
                        )
                    }
                }
            };
            engine.set_track_cancellations(true);
            let host = SiteHost {
                site,
                obs: env.sink.as_ref().map(|s| NetObs {
                    sink: Arc::clone(s),
                    t0,
                    proto: label,
                }),
                down_until: None,
                last_decision_us: None,
                deferred_sends: Vec::new(),
                deferred_acta: Vec::new(),
                timer_ids: HashMap::new(),
                quiet: site == COORDINATOR && slice != 0,
            };
            if existed {
                restarted.push(sites.len());
            }
            owned.insert(site, sites.len());
            sites.push(SiteState { host, engine, data });
        }

        Ok(Kernel {
            coord: owned.get(&COORDINATOR).copied(),
            sites,
            owned,
            restarted,
            ctx: Ctx {
                wheel: TimerWheel::new(t0),
                ready: VecDeque::new(),
                history: env.history,
                delays: cc.delays,
                replies: HashMap::new(),
                answers: HashMap::new(),
                to_answer: Vec::new(),
                inflight: env.inflight,
                stats: ReactorStats::default(),
                now: t0,
                domain: FsyncDomain::new(),
                actions: Vec::new(),
                retired: Vec::new(),
                transport,
            },
            rx: env.rx,
            max_inflight: config.max_inflight,
            running: true,
        })
    }

    // -----------------------------------------------------------------------
    // The loop

    /// Run until shutdown; returns the final report and the transport
    /// (whose own counters the backend folds in).
    pub(crate) fn run(mut self) -> (KernelReport, T) {
        // Restarted sites replay their WAL and run the paper's restart
        // procedure before the loop accepts work. The outage was the
        // process's, so there is no ACTA crash to pair a recovery with.
        self.ctx.now = Instant::now();
        for i in std::mem::take(&mut self.restarted) {
            self.recover_site(i, false);
        }
        loop {
            self.turn();
            if !self.running {
                break;
            }
            if !self.ctx.ready.is_empty() {
                continue; // flushed sends are ready: next turn immediately
            }
            let timeout = self.next_timeout();
            let Kernel { ctx, rx, .. } = &mut self;
            if !ctx.transport.wait(timeout, rx, &mut ctx.ready) {
                break;
            }
        }
        self.ctx.now = Instant::now();
        // A site still inside its outage would report the empty volatile
        // state its crash left behind: end the outage now, so the report
        // shows what is durable.
        for i in 0..self.sites.len() {
            if self.sites[i].host.down_until.take().is_some() {
                self.recover_site(i, true);
            }
        }
        self.finish_turns();
        self.gc_turns();
        self.deliver();
        self.ctx.transport.drain();
        self.report()
    }

    /// One non-blocking turn; returns whether it did any work.
    fn turn(&mut self) -> bool {
        self.ctx.now = Instant::now();
        let mut worked = self.process_recoveries();
        worked |= self.fire_timers();
        worked |= self.ctx.transport.begin_turn(self.ctx.now);
        worked |= self.drain_envelopes();
        self.finish_turns();
        self.gc_turns();
        self.deliver();
        self.ctx.transport.end_turn(self.ctx.now);
        if worked {
            self.ctx.stats.ticks += 1;
        }
        worked
    }

    /// Bring site `i` back up. `narrate` pairs the recovery with an
    /// earlier ACTA crash in the history.
    fn recover_site(&mut self, i: usize, narrate: bool) {
        let st = &mut self.sites[i];
        if !st.host.quiet {
            if narrate {
                let site = st.host.site;
                self.ctx.history.lock().push(ActaEvent::Recover { site });
            }
            if let Some(obs) = &st.host.obs {
                observe_recover(obs, st.host.site);
            }
        }
        drive(st, &mut self.ctx, Input::Recover);
    }

    /// Sites whose outage ended come back up and run recovery.
    fn process_recoveries(&mut self) -> bool {
        let now = self.ctx.now;
        let mut worked = false;
        for i in 0..self.sites.len() {
            if self.sites[i].host.down_until.is_some_and(|t| now >= t) {
                self.sites[i].host.down_until = None;
                worked = true;
                self.recover_site(i, true);
            }
        }
        worked
    }

    /// Advance the wheel; feed due tokens to their engines.
    fn fire_timers(&mut self) -> bool {
        let due = self.ctx.wheel.advance(self.ctx.now);
        if due.is_empty() {
            return false;
        }
        for (_id, (site, token, _purpose)) in due {
            let Some(&i) = self.owned.get(&site) else {
                continue;
            };
            let st = &mut self.sites[i];
            st.host.timer_ids.remove(&token);
            if st.host.is_down(self.ctx.now) {
                continue; // crash swept its timers; belt and braces
            }
            self.ctx.stats.timers_fired += 1;
            drive(st, &mut self.ctx, Input::Timer(token));
        }
        true
    }

    /// Drain the ready queue and the client injector until both are
    /// (momentarily) empty.
    fn drain_envelopes(&mut self) -> bool {
        let mut worked = false;
        while self.running {
            let next = self.ctx.ready.pop_front();
            let Some((site, env)) = next.or_else(|| self.rx.try_recv().ok()) else {
                break;
            };
            worked = true;
            self.dispatch(site, env);
        }
        worked
    }

    fn dispatch(&mut self, site: SiteId, envelope: Envelope) {
        let now = self.ctx.now;
        self.ctx.stats.envelopes += 1;
        if matches!(envelope, Envelope::Shutdown) {
            self.running = false;
            return;
        }
        let Some(&i) = self.owned.get(&site) else {
            // A client verb for a site hosted elsewhere: the transport
            // forwards it, or drops it if nobody hosts the site.
            drop(self.ctx.transport.route(now, site, envelope));
            return;
        };
        let st = &mut self.sites[i];
        match envelope {
            Envelope::Shutdown => unreachable!("handled above"),
            Envelope::Crash { down_for } => {
                if st.host.down_until.is_none() {
                    if !st.host.quiet {
                        self.ctx.history.lock().push(ActaEvent::Crash { site });
                        if let Some(obs) = &st.host.obs {
                            observe_crash(obs, site);
                        }
                    }
                    st.engine.crash();
                    if let Some(d) = &mut st.data {
                        d.storage.crash();
                    }
                    crash_volatile(&mut st.host, &mut self.ctx);
                    st.host.down_until = Some(now + down_for);
                    if Some(i) == self.coord {
                        // A fail-stopped coordinator answers nobody:
                        // its clients see a disconnect. A decision it
                        // withheld went with the crash, and so did the
                        // answer that would have left with it.
                        self.ctx.inflight.dec_by(self.ctx.replies.len() as u64);
                        self.ctx.replies.clear();
                    }
                    self.ctx.transport.site_crashed(now);
                }
            }
            _ if st.host.is_down(now) => {} // omission: dropped
            // The envelope's buffers move into the write set.
            Envelope::Apply { txn, key, value } => match (&mut st.data, &mut st.engine) {
                (Some(d), _) => {
                    d.storage.begin(txn);
                    if d.storage.put(txn, key, value).is_err() {
                        d.poisoned.insert(txn);
                    }
                }
                (None, AnyEngine::Gateway(g)) => g.stage_write(txn, key, value),
                (None, _) => {}
            },
            Envelope::SetIntent { txn, vote } => {
                if let Some(d) = &mut st.data {
                    d.forced_intents.insert(txn, vote);
                }
            }
            // Only the hosted coordinator (slice) or Paxos leader takes
            // commits.
            Envelope::Commit { .. } if Some(i) != self.coord => {}
            Envelope::Commit {
                txn,
                participants,
                reply,
            } => {
                // Guard client misuse instead of tripping the engine's
                // asserts: a duplicate of a commit whose outcome was
                // externalized gets that outcome; one still in flight
                // (awaited by a client or tabled) and an empty
                // participant list drop the reply channel (the client's
                // recv disconnects).
                if let Some(&outcome) = self.ctx.answers.get(&txn) {
                    let _ = reply.send(outcome);
                } else if participants.is_empty()
                    || self.ctx.replies.contains_key(&txn)
                    || st.engine.in_flight(txn)
                {
                    drop(reply);
                } else if let Some((inflight, limit)) = self
                    .max_inflight
                    .map(|limit| (self.ctx.inflight.current(), limit))
                    .filter(|(inflight, limit)| inflight >= limit)
                {
                    // Refused at the door: count it, narrate it, and
                    // fail the client fast — the dropped reply channel
                    // reads as a shed on the generator side (its recv
                    // disconnects immediately), never a silent stall.
                    self.ctx.stats.admission_sheds += 1;
                    if let Some(obs) = &st.host.obs {
                        obs.sink.record(&ProtocolEvent::AdmissionShed {
                            at_us: obs.now_us(),
                            site: site.raw(),
                            proto: obs.proto,
                            txn: Some(txn.raw()),
                            inflight,
                            limit,
                        });
                    }
                    drop(reply);
                } else {
                    self.ctx.replies.insert(txn, reply);
                    self.ctx.inflight.inc();
                    self.ctx.stats.max_inflight =
                        self.ctx.stats.max_inflight.max(self.ctx.replies.len());
                    drive(st, &mut self.ctx, Input::Commit(txn, &participants));
                }
            }
            Envelope::Protocol(msg) => protocol_message(st, &mut self.ctx, &msg),
            Envelope::ProtocolBatch(msgs) => {
                for msg in &msgs {
                    protocol_message(st, &mut self.ctx, msg);
                }
            }
        }
    }

    /// End-of-turn group-commit step: every site with an open batch
    /// forces it, every site with withheld sends externalizes them.
    fn finish_turns(&mut self) {
        for SiteState { host, engine, data } in &mut self.sites {
            let log = engine.log_mut();
            if !log.batching() {
                continue;
            }
            // Lazily-staged write sets (`prepare_lazy`) become durable
            // here, before any Yes vote can leave with the turn's send
            // flush below — one data-log fsync per site per turn
            // instead of one per prepared transaction.
            if let Some(d) = data {
                d.storage.flush_log().expect("data log flush");
            }
            if log.open_occupancy() == 0 {
                // Nothing staged: whatever was withheld has no
                // durability dependency left — externalize it now.
                flush_sends(host, &mut self.ctx);
            } else {
                force_site_batch(host, log, &mut self.ctx);
            }
        }
        // Turn boundary: the forces above were one coalesced round of
        // this kernel's fsync domain.
        self.ctx.domain.end_round();
    }

    /// End-of-turn log GC, after the batch forced.
    ///
    /// The coordinator's log is collected every turn that released
    /// something. Left to itself its engine truncates after every
    /// finished transaction (`auto_gc`), but each truncation is a synced
    /// write to the log's header (and, once enough is dead, a
    /// compaction), which a turn finishing thousands of transactions
    /// would pay thousands of times; one collection covers them all.
    ///
    /// A native participant's protocol log is collected too, so every
    /// site forgets (Definition 1), but only once [`PART_GC_RECORDS`]
    /// of its records are releasable, and only their durable part:
    /// the collection never flushes, so it adds no sync, and a lazy
    /// `part-end` is collected after the site's next force. Its data
    /// log is flushed first (a no-op under group commit, where
    /// `finish_turns` already did): the data engine's recovery redoes a
    /// commit from its own marker or else from the protocol log's
    /// outcome, and collecting the protocol records while the marker is
    /// still buffered would let a crash discard a committed write set.
    /// Participant collections emit no trace event: the traced `forget`
    /// phase and the `GcRuns` counter stay the coordinator's. A site
    /// inside its outage is left alone. A failed collection is counted in
    /// [`ReactorStats::failed_gcs`] and changes nothing; the next turn
    /// tries again.
    fn gc_turns(&mut self) {
        let now = self.ctx.now;
        for SiteState { host, engine, data } in &mut self.sites {
            match (engine, data) {
                (AnyEngine::Coord(engine), _) => {
                    match engine.collect_garbage() {
                        Ok(0) => {}
                        Ok(released) => {
                            if let Some(obs) = &host.obs {
                                observe_gc(
                                    obs,
                                    host.site,
                                    acp_wal::StableLog::low_water_mark(engine.log()).0,
                                    released as u64,
                                    host.last_decision_us,
                                );
                            }
                        }
                        Err(_) => self.ctx.stats.failed_gcs += 1,
                    }
                }
                (AnyEngine::Part(part), Some(d))
                    if part.releasable_records() >= PART_GC_RECORDS && !host.is_down(now) =>
                {
                    let collected = d.storage.flush_log().is_ok() && part.collect_garbage().is_ok();
                    if !collected {
                        self.ctx.stats.failed_gcs += 1;
                    }
                }
                _ => {}
            }
        }
    }

    /// Answer the clients whose decisions this turn externalized (a
    /// client whose coordinator crashed since was disconnected).
    fn deliver(&mut self) {
        let Ctx {
            replies,
            answers,
            to_answer,
            ..
        } = &mut self.ctx;
        let mut delivered = 0;
        for txn in to_answer.drain(..) {
            if let Some(reply) = replies.remove(&txn) {
                let _ = reply.send(answers[&txn]);
                delivered += 1;
            }
        }
        self.ctx.stats.decisions_delivered += delivered;
        self.ctx.inflight.dec_by(delivered);
    }

    /// How long the loop may sleep: bounded by the next engine timer,
    /// the earliest recovery point and the transport's own deadline.
    fn next_timeout(&self) -> Duration {
        let recoveries = self.sites.iter().map(|st| st.host.down_until);
        recoveries
            .chain([
                self.ctx.wheel.next_deadline(),
                self.ctx.transport.next_deadline(),
            ])
            .flatten()
            .min()
            .map_or(IDLE_SLEEP, |d| d.saturating_duration_since(self.ctx.now))
    }

    /// Collect the hosted sites' final state and the loop counters.
    fn report(self) -> (KernelReport, T) {
        let mut sites = Vec::new();
        let mut coordinator_table_size = 0;
        let mut group_commit = GroupCommitStats::default();
        let mut logical_forces = 0;
        let mut physical_syncs = 0;
        for SiteState { host, engine, data } in self.sites {
            let site = host.site;
            let log = engine.log();
            group_commit.merge(&log.group_stats());
            logical_forces += acp_wal::StableLog::stats(log).forces;
            let inner = acp_wal::StableLog::stats(log.inner());
            physical_syncs += inner.forces + inner.flushes;
            if site == COORDINATOR {
                coordinator_table_size = engine.protocol_table_size();
            }
            let log_pinned = engine.log_pinned();
            let (enforced, committed) = match (engine, data) {
                (AnyEngine::Part(p), Some(d)) => {
                    let committed = d.storage.store().iter();
                    let committed = committed.map(|(k, v)| (k.to_vec(), v.to_vec()));
                    (p.enforced_all().clone(), committed.collect())
                }
                (AnyEngine::Gateway(g), _) => {
                    let committed = g.legacy().entries().into_iter().collect();
                    (g.enforced_all().clone(), committed)
                }
                _ => (BTreeMap::new(), BTreeMap::new()),
            };
            sites.push(SiteSummary {
                site,
                enforced,
                log_pinned,
                committed,
            });
        }
        let report = KernelReport {
            sites,
            coordinator_table_size,
            group_commit,
            logical_forces,
            physical_syncs,
            stats: self.ctx.stats,
            fsync: self.ctx.domain.stats(),
        };
        (report, self.ctx.transport)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use acp_acta::{check_atomicity, History};
    use acp_obs::VecSink;
    use acp_types::{CoordinatorKind, ProtocolKind, SelectionPolicy};
    use acp_wal::tempdir::TempDir;
    use crossbeam::channel::{bounded, unbounded, TryRecvError};
    use parking_lot::Mutex;

    /// The in-memory transport: every site is hosted here, nothing
    /// blocks, and `begin_turn` can stall to age the turn the way a
    /// descheduled host would.
    struct Loopback {
        stall: Duration,
    }

    impl Transport for Loopback {
        fn route(&mut self, _now: Instant, _to: SiteId, envelope: Envelope) -> Option<Envelope> {
            Some(envelope)
        }

        fn begin_turn(&mut self, _now: Instant) -> bool {
            std::thread::sleep(self.stall);
            false
        }

        fn wait(&mut self, _: Duration, _: &Receiver<Mail>, _: &mut VecDeque<Mail>) -> bool {
            true
        }
    }

    /// A kernel hosting a whole cluster, stepped by hand, tracing into
    /// `sink`.
    struct Rig {
        kernel: Kernel<Loopback>,
        /// The cluster's participant sites (native or gateway).
        parts: Vec<SiteId>,
        tx: Sender<Mail>,
        history: SharedHistory,
        inflight: Arc<InflightGauge>,
        sink: Arc<VecSink>,
        dir: TempDir,
    }

    const PARTS: [SiteId; 3] = [SiteId(1), SiteId(2), SiteId(3)];
    const SECS_60: Duration = Duration::from_secs(60);

    /// Delays under which no timer fires unless a test shortens one.
    fn glacial() -> NetDelays {
        NetDelays {
            vote_timeout: SECS_60,
            ack_resend: SECS_60,
            inquiry_retry: SECS_60,
            apply_retry: SECS_60,
            paxos_completion: SECS_60,
        }
    }

    /// A PrAny cluster over `protocols`, with group commit on.
    fn prany(protocols: &[ProtocolKind]) -> ClusterConfig {
        let mut cluster = ClusterConfig::new(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            protocols,
        );
        cluster.group_commit = true;
        cluster
    }

    /// The benchmark's cluster: PrAny over PrN, PrA, PrC.
    fn rig(delays: NetDelays) -> Rig {
        let mut cluster = prany(&[ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC]);
        cluster.delays = delays;
        rig_over(cluster)
    }

    /// The coordinator and every participant of `cluster`.
    fn rig_over(cluster: ClusterConfig) -> Rig {
        let config = ReactorConfig::from(cluster);
        let n = config.cluster.participant_protocols.len() as u32;
        let parts: Vec<SiteId> = (1..=n).map(SiteId::new).collect();
        let dir = TempDir::new("kernel").expect("tempdir");
        let (tx, rx) = unbounded();
        let history: SharedHistory = Arc::new(Mutex::new(History::new()));
        let inflight = Arc::new(InflightGauge::new());
        let sink = Arc::new(VecSink::new());
        let env = HostEnv {
            config,
            rx,
            history: Arc::clone(&history),
            inflight: Arc::clone(&inflight),
            sink: Some(Arc::clone(&sink) as _),
            t0: Instant::now(),
        };
        let hosted: Vec<SiteId> = std::iter::once(COORDINATOR).chain(parts.clone()).collect();
        let stall = Duration::ZERO;
        let kernel =
            Kernel::build(env, &hosted, dir.path(), 0, Loopback { stall }).expect("kernel");
        Rig {
            kernel,
            parts,
            tx,
            history,
            inflight,
            sink,
            dir,
        }
    }

    impl Rig {
        fn send(&self, to: SiteId, envelope: Envelope) {
            assert!(self.tx.send((to, envelope)).is_ok(), "injector closed");
        }

        /// Stage one write per participant and ask for the commit.
        fn submit(&self, txn: TxnId) -> Receiver<Outcome> {
            self.submit_write(txn, b"k")
        }

        /// [`Rig::submit`], writing `key`.
        fn submit_write(&self, txn: TxnId, key: &[u8]) -> Receiver<Outcome> {
            for &p in &self.parts {
                let (key, value) = (key.to_vec(), b"v".to_vec());
                self.send(p, Envelope::Apply { txn, key, value });
            }
            let (reply, outcome) = bounded(1);
            let participants = self.parts.clone();
            self.send(
                COORDINATOR,
                Envelope::Commit {
                    txn,
                    participants,
                    reply,
                },
            );
            outcome
        }

        /// The votes queued for the coordinator.
        fn queued_votes(&self) -> usize {
            let is_vote = |(to, env): &&Mail| {
                let vote = |m: &Message| matches!(m.payload, Payload::Vote { .. });
                *to == COORDINATOR && matches!(env, Envelope::Protocol(m) if vote(m))
            };
            self.kernel.ctx.ready.iter().filter(is_vote).count()
        }

        /// Turn until every participant's vote is queued for the
        /// coordinator: all are prepared, nothing is decided.
        fn turn_until_votes_are_queued(&mut self) {
            for _ in 0..8 {
                if self.queued_votes() == self.parts.len() {
                    return;
                }
                self.kernel.turn();
            }
            panic!("the participants never voted");
        }

        /// Turn until the coordinator's prepares are queued, then
        /// dispatch them without ending the turn: every participant has
        /// staged its prepared record and withholds its vote.
        fn dispatch_prepares(&mut self) {
            let prepare = |m: &Message| matches!(m.payload, Payload::Prepare { .. });
            let is_prepare = |(_, env): &Mail| matches!(env, Envelope::Protocol(m) if prepare(m));
            while !self.kernel.ctx.ready.iter().any(is_prepare) {
                assert!(
                    self.kernel.turn(),
                    "the coordinator never sent its prepares"
                );
            }
            self.kernel.ctx.now = Instant::now();
            assert!(self.kernel.drain_envelopes());
        }

        /// The native participant hosted as `site`.
        fn participant(&self, site: SiteId) -> &Participant<NetLog> {
            match &self.kernel.sites[self.kernel.owned[&site]].engine {
                AnyEngine::Part(p) => p,
                _ => unreachable!("site {site} is a native participant"),
            }
        }

        /// The records durable in `site`'s WAL file, read back from disk.
        fn durable_kinds(&self, wal: &str) -> Vec<&'static str> {
            let log = acp_wal::FileLog::open(self.dir.path().join(wal)).expect("wal");
            let records = acp_wal::StableLog::records(&log).expect("records");
            records.iter().map(|r| r.payload.kind_name()).collect()
        }

        /// The sites whose votes were externalized (traced as cast).
        fn votes_cast(&self) -> Vec<u32> {
            let cast = |e: ProtocolEvent| match e {
                ProtocolEvent::VoteCast { site, .. } => Some(site),
                _ => None,
            };
            self.sink.snapshot().into_iter().filter_map(cast).collect()
        }

        /// The participants whose prepared state the history has heard of.
        fn prepared_in_history(&self) -> Vec<SiteId> {
            let prepared = |e: &ActaEvent| match e {
                ActaEvent::Prepared { participant, .. } => Some(*participant),
                _ => None,
            };
            self.history
                .lock()
                .events()
                .iter()
                .filter_map(prepared)
                .collect()
        }
    }

    /// benchmarks/README.md "Known issues" #1: a coordinator crash
    /// dispatched in the turn that decided commit discards the staged
    /// commit record. Nobody may hear of that commit — not the client,
    /// not the history — and recovery's abort must stand alone.
    #[test]
    fn coordinator_crash_in_the_deciding_turn_acknowledges_nothing() {
        let mut r = rig(glacial());
        let txn = TxnId::new(1);
        let outcome = r.submit(txn);
        r.turn_until_votes_are_queued();
        assert_eq!(r.inflight.current(), 1);

        // The queued votes dispatch first (deciding commit), then the
        // crash from the injector — one turn.
        let down_for = Duration::from_millis(5);
        r.send(COORDINATOR, Envelope::Crash { down_for });
        r.kernel.turn();
        assert_eq!(
            outcome.try_recv(),
            Err(TryRecvError::Disconnected),
            "a fail-stopped coordinator's client sees a disconnect"
        );
        assert_eq!(r.inflight.current(), 0);

        // Recovery finds an initiation record without a decision and
        // aborts; let that reach every participant.
        std::thread::sleep(2 * down_for);
        for _ in 0..8 {
            r.kernel.turn();
        }
        let history = r.history.lock().clone();
        assert_eq!(check_atomicity(&history), Vec::new());
        let commits = |e: &&ActaEvent| {
            let commit = Outcome::Commit;
            matches!(e, ActaEvent::Decide { outcome, .. } | ActaEvent::Enforce { outcome, .. } if *outcome == commit)
        };
        assert_eq!(history.events().iter().filter(commits).count(), 0);
        let aborted = |e: &&ActaEvent| matches!(e, ActaEvent::Enforce { .. });
        assert!(
            history.events().iter().any(|e| aborted(&e)),
            "the abort was enforced"
        );
    }

    /// The same crash, then the client's `Commit` again once the
    /// coordinator is back. The crash took the withheld commit decision
    /// before the kernel externalized it; recovery re-decided abort,
    /// the kernel externalized that, and the duplicate is answered with
    /// it.
    #[test]
    fn a_duplicate_commit_after_a_deciding_turn_crash_gets_the_recovered_abort() {
        let mut r = rig(glacial());
        let txn = TxnId::new(1);
        let _outcome = r.submit(txn);
        r.turn_until_votes_are_queued();
        let down_for = Duration::from_millis(5);
        r.send(COORDINATOR, Envelope::Crash { down_for });
        r.kernel.turn();
        let answer = |r: &Rig| r.kernel.ctx.answers.get(&txn).copied();
        assert_eq!(answer(&r), None, "nothing externalized before the crash");

        std::thread::sleep(2 * down_for);
        for _ in 0..8 {
            r.kernel.turn();
        }
        assert_eq!(answer(&r), Some(Outcome::Abort), "recovery re-decided");
        let (reply, outcome) = bounded(1);
        let participants = r.parts.clone();
        r.send(
            COORDINATOR,
            Envelope::Commit {
                txn,
                participants,
                reply,
            },
        );
        r.kernel.turn();
        assert_eq!(outcome.try_recv(), Ok(Outcome::Abort));
    }

    /// A duplicate `Commit` dispatched in the turn that decided commit,
    /// while the decision record waits in the open batch, then a
    /// coordinator crash in that same turn. The crash discards the
    /// record and recovery aborts, so the duplicate must not read the
    /// commit: a transaction still in flight disconnects it.
    #[test]
    fn a_duplicate_commit_in_the_deciding_turn_never_reads_the_lost_commit() {
        let mut r = rig(glacial());
        let txn = TxnId::new(1);
        let _outcome = r.submit(txn);
        r.turn_until_votes_are_queued();
        let (reply, duplicate) = bounded(1);
        let participants = r.parts.clone();
        r.send(
            COORDINATOR,
            Envelope::Commit {
                txn,
                participants,
                reply,
            },
        );
        let down_for = Duration::from_millis(5);
        r.send(COORDINATOR, Envelope::Crash { down_for });
        r.kernel.turn();
        assert_eq!(
            duplicate.try_recv(),
            Err(TryRecvError::Disconnected),
            "the duplicate read an answer the crash took back"
        );

        std::thread::sleep(2 * down_for);
        for _ in 0..8 {
            r.kernel.turn();
        }
        let history = r.history.lock().clone();
        assert_eq!(check_atomicity(&history), Vec::new());
        let commits = |e: &&ActaEvent| {
            let commit = Outcome::Commit;
            matches!(e, ActaEvent::Decide { outcome, .. } | ActaEvent::Enforce { outcome, .. } if *outcome == commit)
        };
        assert_eq!(history.events().iter().filter(commits).count(), 0);
    }

    /// Definition 1 for the kernel's client side: 2 000 commits in
    /// bursts of 50, each answered, leave no reply waiting, nothing in
    /// flight and an empty coordinator table; what stays is one
    /// externalized outcome per transaction.
    #[test]
    fn answered_commits_leave_no_reply_behind() {
        let mut r = rig(glacial());
        for burst in 0..40 {
            let replies: Vec<_> = (1..=50)
                .map(|i| r.submit_write(TxnId::new(burst * 50 + i), &i.to_be_bytes()))
                .collect();
            while r.kernel.turn() {}
            for reply in replies {
                assert_eq!(reply.try_recv(), Ok(Outcome::Commit));
            }
        }
        assert!(r.kernel.ctx.replies.is_empty());
        assert_eq!(r.inflight.current(), 0);
        assert_eq!(r.kernel.ctx.answers.len(), 2_000);
        assert_eq!(r.kernel.sites[0].engine.protocol_table_size(), 0);
    }

    /// A batch whose force fails takes what it withheld along: the
    /// sends *and* the ACTA events rest on records that never became
    /// durable, so neither may reach a peer or the history.
    #[test]
    fn a_failed_force_externalizes_neither_sends_nor_acta_events() {
        let mut r = rig(glacial());
        let _outcome = r.submit(TxnId::new(1));
        // Dispatch the client's envelopes without ending the turn: the
        // coordinator staged its initiation record and withholds the
        // three prepares and the record's `LogWrite`.
        r.kernel.ctx.now = Instant::now();
        assert!(r.kernel.drain_envelopes());
        let SiteState { host, engine, .. } = &mut r.kernel.sites[0];
        assert_eq!(host.deferred_sends.len(), 3);
        assert!(!host.deferred_acta.is_empty());

        engine
            .log_mut()
            .inner_mut()
            .revoke_writes()
            .expect("reopen read-only");
        // The turn's end forces the batch, as a real turn does.
        r.kernel.finish_turns();

        let host = &r.kernel.sites[0].host;
        assert!(host.deferred_sends.is_empty() && host.deferred_acta.is_empty());
        assert!(r.kernel.ctx.ready.is_empty(), "no prepare left the site");
        assert!(
            r.history.lock().events().is_empty(),
            "the history never heard of the lost record"
        );
        assert_eq!(r.kernel.ctx.stats.failed_forces, 1);
        assert_eq!(r.kernel.ctx.stats.window_forces, 0);
        // Nothing is due before the vote timeout the coordinator armed:
        // a refused force must not leave the loop polling without sleep.
        let timeout = r.kernel.next_timeout();
        assert!(
            timeout >= glacial().vote_timeout,
            "the loop would sleep {timeout:?}, not until the vote timeout"
        );
    }

    /// A site still inside its outage when the cluster shuts down
    /// reports what its logs hold, not the empty store its crash left
    /// behind (benchmarks/README.md "Known issues", the last one).
    #[test]
    fn a_site_still_down_at_shutdown_reports_its_durable_store() {
        let mut r = rig(glacial());
        let outcome = r.submit(TxnId::new(1));
        while r.kernel.turn() {}
        assert_eq!(outcome.try_recv(), Ok(Outcome::Commit));

        let down_for = SECS_60;
        r.send(PARTS[1], Envelope::Crash { down_for });
        r.send(COORDINATOR, Envelope::Shutdown);
        let (report, _) = r.kernel.run();
        for site in PARTS {
            let summary = report.sites.iter().find(|s| s.site == site);
            let committed = &summary.expect("hosted site").committed;
            assert_eq!(
                committed.get(b"k".as_slice()).map(Vec::as_slice),
                Some(b"v".as_slice()),
                "site {site}: the committed write is durable"
            );
        }
        let history = r.history.lock();
        let events = history.events();
        assert!(
            matches!(events.last(), Some(ActaEvent::Recover { site }) if *site == PARTS[1]),
            "the outage ends in the history too: {:?}",
            events.last()
        );
    }

    /// Definition 1 on disk: 2 000 commits one at a time, so a
    /// coordinator GC in every turn that finishes one, leave
    /// `coord-0.wal` within twice its live frames plus the reclaim floor
    /// and the header, and reopening it yields exactly the records the
    /// log holds in memory.
    #[test]
    fn one_at_a_time_commits_keep_the_coordinator_wal_bounded() {
        let mut r = rig(glacial());
        for t in 1..=2_000 {
            let outcome = r.submit(TxnId::new(t));
            while r.kernel.turn() {}
            assert_eq!(outcome.try_recv(), Ok(Outcome::Commit), "txn {t}");
        }
        let log = r.kernel.sites[0].engine.log();
        let records = acp_wal::StableLog::records(log).expect("records");
        let frame = |rec: &acp_wal::LogRecord| acp_wal::encode::frame_len(&rec.payload) as u64;
        let live: u64 = records.iter().map(frame).sum();
        let path = r.dir.path().join("coord-0.wal");
        let len = std::fs::metadata(&path).expect("coordinator wal").len();
        let bound = 2 * live + acp_wal::RECLAIM_FLOOR + 16;
        assert!(len <= bound, "{len} B on disk, {live} B live");
        let reopened = acp_wal::FileLog::open(&path).expect("coordinator wal");
        assert_eq!(acp_wal::StableLog::records(&reopened).expect("records"), records);
    }

    /// Every site forgets, and no commit is lost to it. 400 commits one
    /// at a time over PrN, PrA and PrC participants, with or without
    /// group commit; a participant is crashed and recovered right after
    /// every turn that collected its log, while the last commit's redo
    /// marker would still be buffered had the collection not flushed
    /// the data log first, and all three once more at the end. Then
    /// each participant has collected (its mark moved), holds fewer
    /// than [`PART_GC_RECORDS`] releasable durable records beside its
    /// live ones, keeps its WAL file within twice its live frames plus
    /// the reclaim floor and the header, and has every committed key.
    fn participants_forget_and_lose_no_commit(group_commit: bool) {
        const TXNS: u64 = 400;
        let mut cluster = prany(&[ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC]);
        cluster.delays = glacial();
        cluster.group_commit = group_commit;
        let mut r = rig_over(cluster);
        let mark = |r: &Rig, site| acp_wal::StableLog::low_water_mark(r.participant(site).log());
        let crash_and_recover = |r: &mut Rig, sites: &[SiteId]| {
            let down_for = Duration::from_millis(1);
            for &site in sites {
                r.send(site, Envelope::Crash { down_for });
            }
            r.kernel.turn();
            std::thread::sleep(2 * down_for);
            while r.kernel.turn() {}
            for site in sites {
                let st = &r.kernel.sites[r.kernel.owned[site]];
                assert!(st.host.down_until.is_none(), "site {site} is back");
            }
        };
        let key = |t: u64| format!("k{t}").into_bytes();

        let mut crashes = 0;
        for t in 1..=TXNS {
            let marks: Vec<_> = PARTS.iter().map(|&p| mark(&r, p)).collect();
            let outcome = r.submit_write(TxnId::new(t), &key(t));
            while r.kernel.turn() {}
            assert_eq!(outcome.try_recv(), Ok(Outcome::Commit), "txn {t}");
            let collected: Vec<SiteId> = PARTS
                .iter()
                .zip(marks)
                .filter(|&(&p, before)| mark(&r, p) > before)
                .map(|(&p, _)| p)
                .collect();
            crashes += collected.len();
            crash_and_recover(&mut r, &collected);
        }
        assert!(crashes >= 3 * 4, "{crashes} crashes after a collection");
        crash_and_recover(&mut r, &PARTS);

        for site in PARTS {
            let p = r.participant(site);
            let low = acp_wal::StableLog::low_water_mark(p.log());
            assert!(low > acp_wal::Lsn::ZERO, "site {site} collected");
            let releasable = low.raw() + p.releasable_records();
            let records = acp_wal::StableLog::records(p.log()).expect("records");
            let live = records.iter().filter(|r| r.lsn.raw() >= releasable).count();
            assert!(
                records.len() <= PART_GC_RECORDS as usize + live,
                "site {site}: {} records held, {live} live",
                records.len()
            );
            let frame = |rec: &acp_wal::LogRecord| acp_wal::encode::frame_len(&rec.payload) as u64;
            let live_bytes: u64 = records.iter().map(frame).sum();
            let path = r.dir.path().join(format!("part-{}.wal", site.raw()));
            let len = std::fs::metadata(&path).expect("participant wal").len();
            let bound = 2 * live_bytes + acp_wal::RECLAIM_FLOOR + 16;
            assert!(
                len <= bound,
                "site {site}: {len} B on disk, {live_bytes} B live"
            );
        }

        r.send(COORDINATOR, Envelope::Shutdown);
        let (report, _) = r.kernel.run();
        for site in PARTS {
            let summary = report.sites.iter().find(|s| s.site == site);
            let committed = &summary.expect("hosted site").committed;
            for t in 1..=TXNS {
                assert_eq!(
                    committed.get(&key(t)).map(Vec::as_slice),
                    Some(b"v".as_slice()),
                    "site {site}: txn {t}'s write is durable"
                );
            }
        }
    }

    #[test]
    fn participants_forget_and_lose_no_commit_under_group_commit() {
        participants_forget_and_lose_no_commit(true);
    }

    #[test]
    fn participants_forget_and_lose_no_commit_under_passthrough() {
        participants_forget_and_lose_no_commit(false);
    }

    /// A participant's data side decides each vote and hands it over
    /// with the prepare, so after 1 000 commits the participant keeps
    /// none of those votes, though it cast them all.
    #[test]
    fn a_kernel_participant_keeps_no_vote_per_finished_transaction() {
        const TXNS: u64 = 1_000;
        let mut r = rig(glacial());
        for t in 1..=TXNS {
            let outcome = r.submit_write(TxnId::new(t), format!("k{t}").as_bytes());
            while r.kernel.turn() {}
            assert_eq!(outcome.try_recv(), Ok(Outcome::Commit), "txn {t}");
        }
        for site in PARTS {
            let p = r.participant(site);
            assert_eq!(p.enforced_all().len() as u64, TXNS, "site {site}");
            assert!(
                p.intents().is_empty(),
                "site {site} keeps {} votes",
                p.intents().len()
            );
        }
    }

    /// The data side drops a client's vote override and a lock-conflict
    /// mark once the prepare that reads it has voted: 200 forced-No and
    /// 200 lock-conflicted aborts leave neither behind, and a duplicate
    /// prepare still gets the participant's own answer — silence once
    /// it voted No, a re-sent Yes while it is prepared.
    #[test]
    fn a_data_side_keeps_no_override_or_conflict_mark_past_its_prepare() {
        const TXNS: u64 = 200;
        let mut r = rig(glacial());
        let data = |r: &Rig, site: SiteId| {
            let d = r.kernel.sites[r.kernel.owned[&site]].data.as_ref();
            let d = d.expect("a native participant");
            (d.forced_intents.len(), d.poisoned.len())
        };
        let duplicate_prepare = |r: &mut Rig, site: SiteId, txn: TxnId| {
            let prepare = Message::new(COORDINATOR, site, Payload::Prepare { txn });
            r.send(site, Envelope::Protocol(prepare));
            r.kernel.turn();
            r.queued_votes()
        };
        // T0 holds `hot` at S1 and never commits, so every later write
        // of `hot` there conflicts.
        let hot = TxnId::new(10_000);
        let (key, value) = (b"hot".to_vec(), b"v".to_vec());
        r.send(
            PARTS[0],
            Envelope::Apply {
                txn: hot,
                key,
                value,
            },
        );
        for t in 1..=2 * TXNS {
            let txn = TxnId::new(t);
            let outcome = if t <= TXNS {
                r.send(
                    PARTS[1],
                    Envelope::SetIntent {
                        txn,
                        vote: Vote::No,
                    },
                );
                r.submit_write(txn, format!("k{t}").as_bytes())
            } else {
                r.submit_write(txn, b"hot")
            };
            while r.kernel.turn() {}
            assert_eq!(outcome.try_recv(), Ok(Outcome::Abort), "txn {t}");
        }
        for site in PARTS {
            assert_eq!(data(&r, site), (0, 0), "site {site}: overrides, marks");
        }
        for (site, t) in [(PARTS[1], 1), (PARTS[0], TXNS + 1)] {
            let queued = duplicate_prepare(&mut r, site, TxnId::new(t));
            assert_eq!(queued, 0, "site {site} voted No on txn {t}: silence");
        }

        let txn = TxnId::new(3 * TXNS);
        let _outcome = r.submit_write(txn, b"cold");
        r.turn_until_votes_are_queued();
        r.kernel.ctx.ready.clear(); // the votes are lost
        for site in PARTS {
            assert_eq!(
                duplicate_prepare(&mut r, site, txn),
                1,
                "site {site}: Yes again"
            );
            r.kernel.ctx.ready.clear();
        }
    }

    /// Known issues #2: a timer armed late in a long turn must still
    /// run its full delay from the moment it was armed.
    #[test]
    fn timers_run_their_full_delay_from_the_arming_not_the_turn_start() {
        let vote_timeout = Duration::from_millis(20);
        let mut r = rig(NetDelays {
            vote_timeout,
            ..glacial()
        });
        let stall = Duration::from_millis(15);
        r.kernel.ctx.transport.stall = stall;
        let _outcome = r.submit(TxnId::new(1));
        let turn_start = Instant::now();
        r.kernel.turn();
        // The turn armed one timer: the coordinator's vote timeout.
        let deadline = r.kernel.ctx.wheel.next_deadline().expect("armed");
        assert!(
            deadline >= turn_start + stall + vote_timeout,
            "vote timeout fires {:?} after a turn that stalled {stall:?} first",
            deadline - turn_start
        );
    }

    /// Retries are jittered per (site, timer) on every backend, while a
    /// first arming stays exact — so clean traces cannot tell — and
    /// every retry is narrated as a `RetryScheduled` event.
    #[test]
    fn retry_timers_are_jittered_per_site_and_first_armings_are_exact() {
        let inquiry_retry = Duration::from_millis(40);
        let delays = NetDelays {
            inquiry_retry,
            ..glacial()
        };
        let mut r = rig(delays);
        let _outcome = r.submit(TxnId::new(1));
        let before = Instant::now();
        r.turn_until_votes_are_queued();
        let after = Instant::now();
        // The votes are lost: three prepared participants stay in doubt
        // and start inquiring, each off its own timer.
        r.kernel.ctx.ready.clear();
        let first = r.kernel.ctx.wheel.next_deadline().expect("armed");
        let tick = crate::timer::WHEEL_TICK;
        assert!(
            first >= before + inquiry_retry && first <= after + inquiry_retry + tick,
            "attempt 0 is armed at exactly the base delay"
        );

        // Let all three fire; each re-arms at attempt 1.
        std::thread::sleep(
            (after + inquiry_retry + tick).saturating_duration_since(Instant::now()),
        );
        let before = Instant::now();
        while r.kernel.ctx.stats.timers_fired < 3 {
            r.kernel.turn();
        }
        let after = Instant::now();
        let expected: Vec<Duration> = r.kernel.sites[1..]
            .iter()
            .map(|st| {
                let token = *st.host.timer_ids.keys().next().expect("inquiry timer");
                let salt = (u64::from(st.host.site.raw()) << 32) ^ token;
                delays.delay_jittered(TimerPurpose::InquiryRetry, 1, salt)
            })
            .collect();
        let distinct = |(i, a): (usize, &Duration)| expected[i + 1..].iter().all(|b| a != b);
        assert!(
            expected.iter().enumerate().all(distinct),
            "the sites' retry delays are pairwise distinct: {expected:?}"
        );
        let mut retries: Vec<(u32, &str, u32)> = r
            .sink
            .snapshot()
            .into_iter()
            .filter_map(|e| match e {
                ProtocolEvent::RetryScheduled {
                    site,
                    purpose,
                    attempt,
                    ..
                } => Some((site, purpose, attempt)),
                _ => None,
            })
            .collect();
        retries.sort_unstable();
        let inquiry = TimerPurpose::InquiryRetry.name();
        let want: Vec<_> = PARTS.iter().map(|p| (p.raw(), inquiry, 1)).collect();
        assert_eq!(retries, want, "one attempt-1 inquiry retry per participant");
        // Read the re-armed deadlines off the wheel by advancing it a
        // tick at a time.
        let mut fired_at = BTreeMap::new();
        let mut at = before;
        while fired_at.len() < 3 {
            at += tick;
            for (_, (site, _, _)) in r.kernel.ctx.wheel.advance(at) {
                fired_at.insert(site, at);
            }
        }
        for (site, want) in PARTS.iter().zip(expected) {
            let at = fired_at[site];
            assert!(
                at >= before + want && at <= after + want + 2 * tick,
                "site {site}: attempt 1 fires {:?} after its arming, jittered delay {want:?}",
                at - after
            );
        }
    }

    /// PrAny over a native PrA participant (site 1) and a PrA-dialect
    /// gateway (site 2), with no timer due.
    fn gateway_rig() -> Rig {
        let mut cluster = prany(&[ProtocolKind::PrA, ProtocolKind::PrA]);
        cluster.gateways = vec![1];
        cluster.delays = glacial();
        rig_over(cluster)
    }

    const GATEWAY: SiteId = SiteId(2);

    /// Under group commit a gateway is a site like any other: its forced
    /// prepared record joins the turn's force round beside the native
    /// participant's, and its Yes vote leaves only with the flush that
    /// follows the force.
    #[test]
    fn a_gateway_prepares_in_the_turns_force_round_and_votes_after_it() {
        let mut r = gateway_rig();
        let _outcome = r.submit(TxnId::new(1));
        r.dispatch_prepares();
        let before = r.kernel.ctx.domain.stats();
        // Both sites staged their prepared record and withhold the vote
        // and the ACTA events that rest on it.
        assert_eq!(
            r.votes_cast(),
            Vec::<u32>::new(),
            "no vote left before the force"
        );
        assert_eq!(r.prepared_in_history(), Vec::new());
        for site in [PARTS[0], GATEWAY] {
            let host = &r.kernel.sites[r.kernel.owned[&site]].host;
            let vote = |m: &Message| {
                matches!(
                    m.payload,
                    Payload::Vote {
                        vote: Vote::Yes,
                        ..
                    }
                )
            };
            assert!(
                matches!(host.deferred_sends.as_slice(), [m] if vote(m)),
                "site {site} withholds its Yes vote: {:?}",
                host.deferred_sends
            );
        }
        let nothing: [&str; 0] = [];
        assert_eq!(
            r.durable_kinds("gw-2.wal"),
            nothing,
            "redo and prepared records staged"
        );

        r.kernel.finish_turns();
        let after = r.kernel.ctx.domain.stats();
        assert_eq!(after.rounds - before.rounds, 1, "one coalesced force round");
        assert_eq!(after.leader_flushes - before.leader_flushes, 1);
        assert_eq!(
            after.follower_flushes - before.follower_flushes,
            1,
            "two members"
        );
        assert_eq!(after.records - before.records, 2, "both prepared records");
        assert_eq!(r.durable_kinds("gw-2.wal"), ["update", "prepared"]);
        let mut cast = r.votes_cast();
        cast.sort_unstable();
        assert_eq!(cast, [1, 2], "both votes leave with the turn's flush");
        assert_eq!(r.queued_votes(), 2);
        assert_eq!(r.prepared_in_history(), [PARTS[0], GATEWAY]);
    }

    /// A gateway crash before the turn forces loses the staged prepared
    /// record and the Yes vote that rests on it together: the
    /// coordinator never hears a vote the gateway's log cannot back.
    #[test]
    fn a_gateway_crash_before_the_force_drops_its_prepared_record_and_vote_together() {
        let mut r = gateway_rig();
        let _outcome = r.submit(TxnId::new(1));
        r.dispatch_prepares();
        r.kernel
            .dispatch(GATEWAY, Envelope::Crash { down_for: SECS_60 });
        r.kernel.finish_turns();

        let nothing: [&str; 0] = [];
        assert_eq!(
            r.durable_kinds("gw-2.wal"),
            nothing,
            "the staged records are gone"
        );
        assert_eq!(r.votes_cast(), [1], "only the native site's vote left");
        assert_eq!(r.queued_votes(), 1);
        assert_eq!(r.prepared_in_history(), [PARTS[0]]);
        assert_eq!(
            r.kernel.ctx.domain.stats().solo_rounds,
            1,
            "the native site forced alone"
        );
    }
}
