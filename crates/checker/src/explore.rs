//! The bounded exploration: a level-synchronized parallel BFS with
//! work-stealing distribution.
//!
//! # Why this shape
//!
//! The checker's output must be **bit-for-bit identical for every
//! thread count** — the experiments print report fields and diff them,
//! and a nondeterministic checker is useless as evidence. A naive
//! shared-stack parallel DFS breaks that: state fingerprints exclude
//! the history/trail, so *which* representative path survives
//! deduplication depends on which worker wins the race into the `seen`
//! set.
//!
//! Instead the exploration proceeds in BFS levels:
//!
//! 1. The current frontier (all states at the same depth, already
//!    deduplicated) is split into fixed index-ordered chunks.
//! 2. Chunks are pushed into a [`crossbeam::deque::Injector`] and
//!    workers steal them — dynamic load balancing, but *which worker*
//!    processes a chunk cannot affect its result. During this phase the
//!    `seen` set is read-only (a concurrent `contains` pre-filter
//!    discards most duplicate successors cheaply).
//! 3. Per-chunk outcomes are merged serially in chunk-index order; the
//!    merge performs the authoritative `seen.insert` and builds the
//!    next frontier. Duplicate fingerprints that race within a level
//!    are therefore resolved in a scheduling-independent order.
//!
//! `threads = 1` runs the same expansion and the same merge inline (one
//! state per chunk, merged as it goes — see `expand_level`), so the
//! serial report is the definition of correct, and BFS order means
//! reported counterexample trails are shortest witnesses.

use crate::report::{CheckReport, Counterexample};
use crate::state::{ArmedTimer, CheckState, COORD};
use acp_acta::{check_atomicity, ActaEvent, AtomicityViolation, History};
use acp_core::{AnyEngine, Participant};
use acp_types::{CoordinatorKind, ProtocolKind, SiteId, TxnId, Vote};
use acp_wal::MemLog;
use crossbeam::deque::{Injector, Steal};
use std::collections::{HashMap, HashSet};
use std::sync::RwLock;

/// What to explore.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// The coordinator under test.
    pub kind: CoordinatorKind,
    /// Replicated-coordinator shape (the meaning `Scenario::paxos_f`
    /// has): `Some(f)` puts a Paxos Commit leader at site 0 and `2f`
    /// remote acceptors at sites `N+1..=N+2f`; `kind` is ignored.
    pub paxos_f: Option<usize>,
    /// Participant protocols (sites 1..=n).
    pub participant_protocols: Vec<ProtocolKind>,
    /// Per-participant votes (same order); missing entries vote `Yes`.
    pub votes: Vec<Vote>,
    /// How many **permanent** kills may occur (any coordinator-side
    /// site, any point): fail-stop with no recovery, the failure Paxos
    /// Commit exists for and 2PC cannot survive.
    pub kills: u8,
    /// How many crash+recover events may occur (any site, any point).
    pub crashes: u8,
    /// How many messages may be dropped.
    pub drops: u8,
    /// How many timers may fire.
    pub timer_fires: u8,
    /// State-count safety valve.
    pub max_states: usize,
    /// Worker threads for the exploration. `0` (the default) uses the
    /// machine's available parallelism; `1` runs fully inline. The
    /// report is identical for every value — parallelism only changes
    /// wall-clock time.
    pub threads: usize,
    /// Fingerprint-collision guard: store the full canonical rendering
    /// of every state behind its 64-bit fingerprint and panic if two
    /// distinct states ever hash alike. Roughly doubles memory and adds
    /// a rendering per state — a debugging/validation mode, off by
    /// default.
    pub paranoid_fingerprints: bool,
}

impl CheckConfig {
    /// A default bounded configuration: one crash, one drop, two timer
    /// firings — enough to exhibit every Theorem 1 scenario (one vote
    /// timeout plus one recovery inquiry).
    #[must_use]
    pub fn new(kind: CoordinatorKind, participant_protocols: &[ProtocolKind]) -> Self {
        CheckConfig {
            kind,
            paxos_f: None,
            participant_protocols: participant_protocols.to_vec(),
            votes: Vec::new(),
            kills: 0,
            crashes: 1,
            drops: 1,
            timer_fires: 2,
            max_states: 2_000_000,
            threads: 0,
            paranoid_fingerprints: false,
        }
    }

    /// The default bounded configuration of a Paxos Commit cluster of
    /// `n_participants` PrN participants under tolerance `f`: one
    /// permanent kill, no crash+recover, no drops, two timer firings —
    /// the leader-failover envelope (one completion watchdog, one
    /// decision resend).
    #[must_use]
    pub fn paxos(n_participants: usize, f: usize) -> Self {
        CheckConfig {
            paxos_f: Some(f),
            kills: 1,
            crashes: 0,
            drops: 0,
            ..Self::new(
                CoordinatorKind::Single(ProtocolKind::PrN),
                &vec![ProtocolKind::PrN; n_participants],
            )
        }
    }

    /// The same configuration pinned to `threads` workers.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Worker count after resolving `0` to the machine's parallelism.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        }
    }
}

/// The transaction every exploration runs.
const TXN: TxnId = TxnId(1);

/// The state every exploration starts from: commit processing begun,
/// prepares (and the Paxos roster announcement) in flight.
#[must_use]
pub fn initial_state(config: &CheckConfig) -> CheckState {
    let protocols = &config.participant_protocols;
    let coords = AnyEngine::coordinator_side(config.kind, protocols, config.paxos_f, MemLog::new);
    let mut parts = std::collections::BTreeMap::new();
    for (i, &proto) in protocols.iter().enumerate() {
        let site = SiteId::new(i as u32 + 1);
        let mut p = Participant::new(site, proto, MemLog::new());
        if let Some(&v) = config.votes.get(i) {
            p.set_intent(TXN, v);
        }
        parts.insert(site, AnyEngine::Part(p));
    }
    let sites: Vec<SiteId> = parts.keys().copied().collect();
    let mut state = CheckState::new(
        coords.into_iter().map(|e| (e.site(), e)).collect(),
        parts,
        config.kills,
        config.crashes,
        config.drops,
        config.timer_fires,
    );
    state.step(COORD, |e, out| e.begin_commit_into(TXN, &sites, out));
    state.trail.push("begin commit");
    state
}

/// All successor states of `state`. With `quiescent_timers`, a timer
/// fires only when nothing is in flight.
fn successors(state: &CheckState, quiescent_timers: bool) -> Vec<CheckState> {
    let mut next = Vec::new();

    // 1. Deliver the head message of any link.
    for idx in state.deliverable() {
        let mut s = state.clone();
        let msg = s.in_flight.remove(idx);
        s.trail
            .push(format!("deliver {}", CheckState::describe_message(&msg)));
        s.step(msg.to, |e, out| e.on_message_into(msg.from, &msg.payload, out));
        next.push(s);
    }

    // 2. Drop the head message of any link (omission failure).
    if state.drops_left > 0 {
        for idx in state.deliverable() {
            let mut s = state.clone();
            let msg = s.in_flight.remove(idx);
            s.drops_left -= 1;
            s.trail
                .push(format!("DROP {}", CheckState::describe_message(&msg)));
            next.push(s);
        }
    }

    // 3. KILL any live coordinator-side site: permanent fail-stop. The
    //    site never acts again; this is the move 2PC cannot survive.
    if state.kills_left > 0 {
        for &site in state.coords.keys().filter(|s| !state.dead.contains(s)) {
            let mut s = state.clone();
            s.kills_left -= 1;
            s.dead.insert(site);
            s.take_down(site);
            s.trail.push(format!("KILL {site}"));
            next.push(s);
        }
    }

    // 4. Crash + recover any live site.
    if state.crashes_left > 0 {
        let sites = state.coords.keys().chain(state.parts.keys());
        for &site in sites.filter(|s| !state.dead.contains(s)) {
            let mut s = state.clone();
            s.crashes_left -= 1;
            s.take_down(site);
            s.trail.push(format!("CRASH+RECOVER {site}"));
            s.history.push(ActaEvent::Recover { site });
            s.step(site, |e, out| e.recover_into(out));
            next.push(s);
        }
    }

    // 5. Fire any armed timer (a killed site has none: they died with
    //    it). Under a replicated coordinator, only when the network is
    //    quiescent: timeout bases (80ms+) dwarf message latency (200us)
    //    by construction, so a timer firing while the message it waits
    //    for is still in flight is not a realizable schedule, and
    //    excluding those races is what keeps the cluster's interleaving
    //    space within exhaustive reach. Drops, kills and crashes all
    //    *create* quiescent states, so every interesting timeout
    //    schedule (lost vote, dead leader, lost decision) is still
    //    explored.
    if state.timers_left > 0 && (!quiescent_timers || state.in_flight.is_empty()) {
        let timers: Vec<ArmedTimer> = state.timers.iter().cloned().collect();
        for t in timers {
            let mut s = state.clone();
            s.timers.remove(&t);
            s.timers_left -= 1;
            s.trail.push(format!("timer {} at {}", t.purpose, t.site));
            s.step(t.site, |e, out| e.on_timer_into(t.token, out));
            next.push(s);
        }
    }

    next
}

/// Definition 2 for a *replicated* coordinator.
///
/// [`acp_acta::check_safe_state`] assumes the single-coordinator world: every
/// inquiry in the history is implicitly addressed to the one
/// coordinator, so an unanswered post-forget inquiry is a violation.
/// In a cluster, a participant may address its inquiry to a **dead**
/// replica — `Inquire` events carry no target — and silence from a
/// corpse is a liveness concern, not a presumption error. What
/// Definition 2 pins down here is the part that can actually go wrong:
/// any response any replica *does* give (post-forget responses are by
/// presumption) must match the cluster's decided outcome. Divergent
/// `Decide`s across replicas are the atomicity checker's business.
fn replicated_safe_state(history: &History) -> Vec<AtomicityViolation> {
    let decided = history.events().find_map(|e| match e {
        ActaEvent::Decide { txn, outcome, .. } if txn == TXN => Some(outcome),
        _ => None,
    });
    let Some(decided) = decided else {
        return Vec::new();
    };
    let mut violations = Vec::new();
    for e in history.events() {
        if let ActaEvent::Respond {
            coordinator,
            txn,
            participant,
            outcome,
            ..
        } = e
        {
            if txn == TXN && outcome != decided {
                violations.push(AtomicityViolation {
                    txn,
                    detail: format!(
                        "safe-state: {coordinator} answered {participant}'s inquiry \
                         with {outcome}, but the cluster decided {decided}"
                    ),
                });
            }
        }
    }
    violations
}

/// Shard count for the concurrent `seen` set. Power of two, sized so
/// that even 16 workers rarely contend on a shard's lock.
const SEEN_SHARDS: usize = 64;

/// Concurrent set of visited fingerprints, sharded by low hash bits.
///
/// Locking discipline: workers only ever call [`SeenSet::contains`]
/// (read locks) while a level is being expanded; [`SeenSet::insert`]
/// (write locks) happens only in the single-threaded merge between
/// levels. The `RwLock`s are thus never write-contended.
enum SeenSet {
    /// Production mode: fingerprints only.
    Fast(Vec<RwLock<HashSet<u64>>>),
    /// Collision-guard mode: the full canonical state rendering is kept
    /// behind every fingerprint and compared on every hit.
    Paranoid(Vec<RwLock<HashMap<u64, String>>>),
}

impl SeenSet {
    fn new(paranoid: bool) -> Self {
        if paranoid {
            SeenSet::Paranoid((0..SEEN_SHARDS).map(|_| RwLock::default()).collect())
        } else {
            SeenSet::Fast((0..SEEN_SHARDS).map(|_| RwLock::default()).collect())
        }
    }

    fn shard(fp: u64) -> usize {
        (fp % SEEN_SHARDS as u64) as usize
    }

    /// Is `fp` already recorded? In paranoid mode, `canonical` must be
    /// the state's canonical rendering and a hit with a *different*
    /// stored rendering panics: a real 64-bit collision.
    fn contains(&self, fp: u64, canonical: Option<&str>) -> bool {
        match self {
            SeenSet::Fast(shards) => shards[Self::shard(fp)]
                .read()
                .expect("seen shard poisoned")
                .contains(&fp),
            SeenSet::Paranoid(shards) => {
                match shards[Self::shard(fp)]
                    .read()
                    .expect("seen shard poisoned")
                    .get(&fp)
                {
                    None => false,
                    Some(stored) => {
                        Self::guard(fp, stored, canonical);
                        true
                    }
                }
            }
        }
    }

    /// Record `fp`; returns `true` if it was new. Same paranoid
    /// semantics as [`SeenSet::contains`].
    fn insert(&self, fp: u64, canonical: Option<&str>) -> bool {
        match self {
            SeenSet::Fast(shards) => shards[Self::shard(fp)]
                .write()
                .expect("seen shard poisoned")
                .insert(fp),
            SeenSet::Paranoid(shards) => {
                let mut shard = shards[Self::shard(fp)]
                    .write()
                    .expect("seen shard poisoned");
                if let Some(stored) = shard.get(&fp) {
                    Self::guard(fp, stored, canonical);
                    false
                } else {
                    let c = canonical.expect("paranoid insert without canonical state");
                    shard.insert(fp, c.to_string());
                    true
                }
            }
        }
    }

    fn guard(fp: u64, stored: &str, canonical: Option<&str>) {
        let c = canonical.expect("paranoid lookup without canonical state");
        assert_eq!(
            stored, c,
            "64-bit fingerprint collision: two distinct states hash to {fp:#x}"
        );
    }
}

/// What one worker produced from one frontier chunk. Everything needed
/// to continue is carried here so the merge can stay single-threaded
/// and deterministic.
struct ChunkOutcome {
    /// Index of the chunk in the frontier (merge order key).
    idx: usize,
    counterexamples: Vec<Counterexample>,
    terminal_states: usize,
    max_terminal_table: usize,
    fully_forgotten: usize,
    /// Sealed successors that passed the read-only `seen` pre-filter,
    /// paired with their canonical rendering in paranoid mode.
    candidates: Vec<(CheckState, Option<String>)>,
}

/// Expand one chunk of frontier states. Pure with respect to shared
/// state (reads `seen`, never writes), so its result depends only on
/// the chunk — not on scheduling.
fn process_chunk(
    idx: usize,
    chunk: &[CheckState],
    seen: &SeenSet,
    config: &CheckConfig,
) -> ChunkOutcome {
    let replicated = config.paxos_f.is_some();
    let mut out = ChunkOutcome {
        idx,
        counterexamples: Vec::new(),
        terminal_states: 0,
        max_terminal_table: 0,
        fully_forgotten: 0,
        candidates: Vec::new(),
    };
    for state in chunk {
        // Invariant check at every state (not only terminal ones): a
        // violation may be transient if later moves "fix" the history.
        let mut violations = check_atomicity(&state.history);
        if violations.is_empty() && state.is_terminal() {
            out.terminal_states += 1;
            // Live-site residency: a killed site holds its table
            // forever by construction, which is not a leak.
            let live = state.coords.iter().filter(|(s, _)| !state.dead.contains(s));
            let table = live.map(|(_, e)| e.protocol_table_size()).max().unwrap_or(0);
            out.max_terminal_table = out.max_terminal_table.max(table);
            if table == 0 {
                out.fully_forgotten += 1;
            }
            if replicated {
                violations = replicated_safe_state(&state.history);
            }
        }
        if !violations.is_empty() {
            let trail = state.trail.to_vec();
            let history = state.history.to_string();
            for v in violations {
                out.counterexamples.push(Counterexample {
                    violation: v,
                    trail: trail.clone(),
                    history: history.clone(),
                    count: 1,
                });
            }
            // Do not expand a violating state further: one witness per
            // branch keeps reports readable.
            continue;
        }

        for mut s in successors(state, replicated) {
            s.seal();
            let canonical = if config.paranoid_fingerprints {
                Some(s.canonical_state())
            } else {
                None
            };
            if !seen.contains(s.fingerprint(), canonical.as_deref()) {
                out.candidates.push((s, canonical));
            }
        }
    }
    out
}

/// Frontiers below this size are expanded inline even when a thread
/// pool is available: the fork/join overhead dwarfs the work.
const MIN_PARALLEL_FRONTIER: usize = 256;

fn chunk_size(frontier: usize, threads: usize) -> usize {
    // ~4 chunks per worker for load balance, clamped so tiny chunks
    // don't drown in stealing overhead and huge ones don't straggle.
    (frontier / (threads * 4)).clamp(8, 512)
}

/// Run the bounded exploration.
///
/// # Panics
/// In paranoid-fingerprint mode, panics if a 64-bit fingerprint
/// collision is detected (never observed; the guard exists to make
/// "the hash is trustworthy" an assertion instead of a hope).
#[must_use]
pub fn check(config: &CheckConfig) -> CheckReport {
    let threads = config.effective_threads();
    let paranoid = config.paranoid_fingerprints;
    let seen = SeenSet::new(paranoid);
    let mut report = CheckReport::default();

    let mut init = initial_state(config);
    init.seal();
    let canonical = if paranoid {
        Some(init.canonical_state())
    } else {
        None
    };
    seen.insert(init.fingerprint(), canonical.as_deref());
    let mut frontier = vec![init];

    while !frontier.is_empty() {
        // Deterministic truncation: the budget cuts the frontier at a
        // fixed index, never mid-chunk at a scheduling-dependent point.
        let budget = config.max_states.saturating_sub(report.states_explored);
        if frontier.len() >= budget {
            frontier.truncate(budget);
            report.truncated = true;
        }
        report.states_explored += frontier.len();

        // Serial merge in chunk-index order: the only writes to `seen`
        // and the only place the next frontier is assembled, so both
        // are independent of worker scheduling.
        let mut next = Vec::new();
        expand_level(&frontier, &seen, threads, config, |out| {
            report.terminal_states += out.terminal_states;
            report.terminal_states_fully_forgotten += out.fully_forgotten;
            report.max_terminal_table = report.max_terminal_table.max(out.max_terminal_table);
            report.counterexamples.extend(out.counterexamples);
            for (state, canonical) in out.candidates {
                if seen.insert(state.fingerprint(), canonical.as_deref()) {
                    next.push(state);
                }
            }
        });

        if report.truncated {
            break;
        }
        frontier = next;
    }

    report.canonicalize();
    report
}

/// Expand every state in `frontier`, handing the per-chunk outcomes to
/// `merge` in chunk-index order.
///
/// Inline, a chunk is one state and is merged before the next is
/// expanded. That is the same result as merging after the whole level —
/// a successor the pre-filter now rejects early is one the merge would
/// have rejected as a duplicate of an earlier chunk's — and a duplicate
/// is freed while its memory is still warm instead of being held, with
/// every other within-level duplicate, until the level ends.
fn expand_level(
    frontier: &[CheckState],
    seen: &SeenSet,
    threads: usize,
    config: &CheckConfig,
    mut merge: impl FnMut(ChunkOutcome),
) {
    if threads <= 1 || frontier.len() < MIN_PARALLEL_FRONTIER {
        for (i, c) in frontier.chunks(1).enumerate() {
            merge(process_chunk(i, c, seen, config));
        }
        return;
    }

    let injector: Injector<(usize, &[CheckState])> = Injector::new();
    let mut n_chunks = 0;
    for (i, c) in frontier
        .chunks(chunk_size(frontier.len(), threads))
        .enumerate()
    {
        injector.push((i, c));
        n_chunks += 1;
    }

    let workers = threads.min(n_chunks);
    let mut outcomes: Vec<ChunkOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let injector = &injector;
                scope.spawn(move || {
                    let mut outs = Vec::new();
                    loop {
                        match injector.steal() {
                            Steal::Success((i, chunk)) => {
                                outs.push(process_chunk(i, chunk, seen, config));
                            }
                            Steal::Empty => break,
                            Steal::Retry => {}
                        }
                    }
                    outs
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("checker worker panicked"))
            .collect()
    });
    outcomes.sort_unstable_by_key(|o| o.idx);
    outcomes.into_iter().for_each(merge);
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_types::SelectionPolicy;

    #[test]
    fn u2pc_prc_coordinator_violates_atomicity_theorem_1_part_iii() {
        let config = CheckConfig::new(
            CoordinatorKind::U2pc(ProtocolKind::PrC),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        let report = check(&config);
        assert!(!report.truncated, "exploration must complete: {report}");
        assert!(
            !report.clean(),
            "U2PC/PrC must violate atomicity somewhere: {report}"
        );
    }

    #[test]
    fn u2pc_prn_coordinator_violates_atomicity_theorem_1_part_i() {
        let config = CheckConfig::new(
            CoordinatorKind::U2pc(ProtocolKind::PrN),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        let report = check(&config);
        assert!(!report.truncated);
        assert!(!report.clean(), "{report}");
    }

    #[test]
    fn prany_is_clean_under_the_same_bounds_theorem_3() {
        let config = CheckConfig::new(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        let report = check(&config);
        assert!(!report.truncated, "{report}");
        assert!(report.clean(), "{report}");
        assert!(report.terminal_states > 0);
    }

    #[test]
    fn c2pc_never_violates_but_remembers_forever_theorem_2() {
        let config = CheckConfig::new(
            CoordinatorKind::C2pc(ProtocolKind::PrN),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        let report = check(&config);
        assert!(!report.truncated, "{report}");
        assert!(report.clean(), "C2PC is functionally correct: {report}");
        assert!(
            report.max_terminal_table > 0,
            "some terminal state must still remember the transaction: {report}"
        );
    }

    #[test]
    fn paranoid_fingerprints_find_no_collisions() {
        let mut config = CheckConfig::new(
            CoordinatorKind::U2pc(ProtocolKind::PrC),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        config.paranoid_fingerprints = true;
        // Panics inside check() if any two distinct states collide.
        let report = check(&config);
        assert!(report.states_explored > 1000);

        // PrAny's table entries: votes arriving one by one, a read-only
        // voter dropping out of phase two, and acks awaited. Its link
        // queues `[decision, decision][ack]` and `[decision][vote, ack]`
        // hash alike unless each queue is hashed behind its length.
        let mut config = CheckConfig::new(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        config.votes = vec![Vote::Yes, Vote::ReadOnly];
        config.paranoid_fingerprints = true;
        assert_eq!(check(&config).states_explored, 5_437);

        // The replicated state (acceptors, dead set, kill budget) too.
        let mut config = CheckConfig::paxos(2, 1);
        config.votes = vec![Vote::Yes, Vote::No];
        config.timer_fires = 1;
        config.paranoid_fingerprints = true;
        assert_eq!(check(&config).states_explored, 616);
    }

    // ---- Paxos Commit through the same explorer ----

    /// Exactly the size the exploration had when it was a separate
    /// serial loop (states / terminal / fully forgotten).
    fn assert_pinned(report: &CheckReport, states: usize, terminal: usize, forgotten: usize) {
        let counts = (
            report.states_explored,
            report.terminal_states,
            report.terminal_states_fully_forgotten,
        );
        assert_eq!(counts, (states, terminal, forgotten), "{report}");
        assert_eq!(report.max_terminal_table, 1, "{report}");
    }

    #[test]
    fn f1_survives_a_leader_kill_without_violations() {
        // One participant, three acceptors, one permanent kill anywhere,
        // two timer firings: every interleaving — including kill-the-
        // leader-after-phase2a followed by a watchdog failover — must
        // keep the history atomic and the terminal states safe.
        let config = CheckConfig::paxos(1, 1);
        let report = check(&config);
        assert!(!report.truncated, "{report}");
        assert!(report.clean(), "{report}");
        assert!(report.terminal_states > 0);
        // Some branch completes fully (kill spent on a non-critical
        // acceptor, or not at all... the budget is optional).
        assert!(report.terminal_states_fully_forgotten > 0, "{report}");
        assert_pinned(&report, 383, 98, 96);
    }

    #[test]
    fn f1_with_two_participants_and_a_no_voter_stays_clean() {
        let mut config = CheckConfig::paxos(2, 1);
        config.votes = vec![Vote::Yes, Vote::No];
        config.timer_fires = 1;
        let report = check(&config);
        assert!(!report.truncated, "{report}");
        assert!(report.clean(), "{report}");
        assert!(report.terminal_states > 0);
        assert_pinned(&report, 616, 53, 48);
    }

    #[test]
    fn f1_with_crash_recover_and_drops_stays_clean() {
        let mut config = CheckConfig::paxos(1, 1);
        config.kills = 1;
        config.crashes = 1;
        config.drops = 1;
        config.timer_fires = 2;
        config.max_states = 8_000_000;
        let report = check(&config);
        assert!(!report.truncated, "{report}");
        assert!(report.clean(), "{report}");
        assert_pinned(&report, 129_384, 11_878, 6_039);
    }

    #[test]
    fn f0_verdicts_match_the_classic_prn_exploration() {
        // With one acceptor, the Paxos exploration must agree with the
        // classic checker on PrN — clean, complete, and with
        // fully-forgotten terminal states on both sides.
        let mut paxos_cfg = CheckConfig::paxos(2, 0);
        paxos_cfg.kills = 0;
        paxos_cfg.crashes = 1;
        paxos_cfg.drops = 1;
        paxos_cfg.timer_fires = 2;
        let paxos = check(&paxos_cfg);

        let classic_cfg = CheckConfig::new(
            CoordinatorKind::Single(ProtocolKind::PrN),
            &[ProtocolKind::PrN, ProtocolKind::PrN],
        );
        let classic = check(&classic_cfg);

        assert!(!paxos.truncated && !classic.truncated);
        assert_eq!(paxos.clean(), classic.clean(), "paxos={paxos} classic={classic}");
        assert!(paxos.clean());
        assert!(paxos.terminal_states > 0 && classic.terminal_states > 0);
        assert_eq!(
            paxos.terminal_states_fully_forgotten > 0,
            classic.terminal_states_fully_forgotten > 0
        );
        assert_pinned(&paxos, 1934, 271, 154);
    }

    #[test]
    fn seen_set_paranoid_mode_detects_a_planted_collision() {
        let seen = SeenSet::new(true);
        assert!(seen.insert(42, Some("state A")));
        // Same fingerprint, same canonical state: an ordinary duplicate.
        assert!(!seen.insert(42, Some("state A")));
        assert!(seen.contains(42, Some("state A")));
        // Same fingerprint, different canonical state: a collision.
        let boom = std::panic::catch_unwind(|| seen.insert(42, Some("state B")));
        assert!(boom.is_err(), "planted collision must be caught");
    }
}
