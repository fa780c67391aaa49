//! Group commit: amortize forced log writes across concurrent
//! transactions.
//!
//! The paper prices every protocol in *forced* log writes, and E10
//! measured a force at ~135µs on [`crate::file::FileLog`] — the fsync
//! dominates every commit path. Group commit is the classical remedy
//! (DeWitt et al. 1984; Gray & Reuter §9): decision and prepared records
//! from concurrent transactions accumulate in a shared buffer and one
//! physical force makes the whole batch durable, so the per-transaction
//! fsync cost drops by the batch occupancy.
//!
//! The module is one wrapper and one election:
//!
//! * [`GroupCommitLog`] — a single-owner wrapper for event-loop hosts
//!   (the deterministic simulator and the site-hosting kernel behind
//!   the reactor, at one shard or N, and the socket node). Batches are
//!   delimited by a *batch window* of host time
//!   ([`GroupCommitLog::windowed`], deterministic accounting for the
//!   sim) or by explicit turn boundaries ([`GroupCommitLog::deferred`]
//!   plus [`GroupCommitLog::commit_batch`], real fsync deferral for the
//!   kernel's turn). [`GroupCommitLog::passthrough`] disables batching
//!   entirely and is bit-for-bit the unbatched behavior — a batch of
//!   one degenerates to exactly one force, which is why clean
//!   single-transaction traces stay byte-identical.
//! * [`FsyncDomain`] — a turn-ordered leader election over the deferred
//!   logs of the sites one event-loop thread hosts: the first member to
//!   force in a turn leads the round, the rest follow, and the round is
//!   sealed at the turn boundary.

use crate::error::WalError;
use crate::record::{LogRecord, Lsn, WalStats};
use crate::StableLog;
use acp_types::LogPayload;

/// Batching effectiveness counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Physical batch forces performed (fsync-equivalents under
    /// batching). Every batch has occupancy ≥ 1, so this never exceeds
    /// `batched_appends`.
    pub batches: u64,
    /// Forced appends absorbed into those batches.
    pub batched_appends: u64,
    /// Largest single batch observed.
    pub max_occupancy: u64,
}

impl GroupCommitStats {
    /// Mean batch occupancy ×1000 (fixed-point, to stay float-free like
    /// the rest of the workspace's cost arithmetic).
    #[must_use]
    pub fn occupancy_x1000(&self) -> u64 {
        (self.batched_appends * 1000)
            .checked_div(self.batches)
            .unwrap_or(0)
    }

    fn absorb(&mut self, occupancy: u64) {
        self.batches += 1;
        self.batched_appends += occupancy;
        self.max_occupancy = self.max_occupancy.max(occupancy);
    }

    /// Fold another site's counters into this aggregate.
    pub fn merge(&mut self, other: &GroupCommitStats) {
        self.batches += other.batches;
        self.batched_appends += other.batched_appends;
        self.max_occupancy = self.max_occupancy.max(other.max_occupancy);
    }
}

/// A batch that has been closed (its single physical force is done, or
/// — in windowed accounting mode — its window expired). Hosts drain
/// these via [`GroupCommitLog::take_closed`] to emit trace events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClosedBatch {
    /// Host time (µs) at which the batch opened; 0 in deferred mode,
    /// where the host supplies its own clock when emitting.
    pub opened_at_us: u64,
    /// Forced appends the batch absorbed.
    pub occupancy: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// No batching: every forced append forces the inner log. Exactly
    /// the unbatched behavior, byte for byte.
    Passthrough,
    /// Deterministic accounting for the simulator: forced appends still
    /// force the inner log immediately (crash semantics are untouched),
    /// but forces whose host time falls within `window_us` of the
    /// window opener are *accounted* as one batch — the number of
    /// physical forces a batching backend would have performed.
    Windowed {
        /// Batch window in host microseconds. `0` coalesces only
        /// simultaneous forces (same sim instant).
        window_us: u64,
    },
    /// Real deferral for event-loop hosts: forced appends
    /// are staged unforced and one [`GroupCommitLog::commit_batch`]
    /// flush — one fsync — makes the whole turn durable. The host MUST
    /// commit the batch before externalizing any message that depends
    /// on the staged records.
    Deferred,
}

/// Single-owner group-commit wrapper. See the module docs for the mode
/// semantics; construct with [`GroupCommitLog::passthrough`],
/// [`GroupCommitLog::windowed`] or [`GroupCommitLog::deferred`].
#[derive(Debug)]
pub struct GroupCommitLog<L: StableLog> {
    inner: L,
    mode: Mode,
    /// Host clock, advanced by [`GroupCommitLog::tick`].
    now_us: u64,
    /// Open batch: (opened_at_us, occupancy). `None` when empty.
    open: Option<(u64, u64)>,
    closed: Vec<ClosedBatch>,
    stats: GroupCommitStats,
    /// Forced appends requested at this layer — the protocol-meaningful
    /// force count, independent of how many physical syncs served them.
    logical_forces: u64,
}

impl<L: StableLog> GroupCommitLog<L> {
    /// No batching at all: a transparent wrapper whose observable
    /// behavior is identical to the bare inner log.
    pub fn passthrough(inner: L) -> Self {
        Self::with_mode(inner, Mode::Passthrough)
    }

    /// Deterministic batch-window accounting for the simulator.
    pub fn windowed(inner: L, window_us: u64) -> Self {
        Self::with_mode(inner, Mode::Windowed { window_us })
    }

    /// Turn-deferred batching for event-loop hosts.
    pub fn deferred(inner: L) -> Self {
        Self::with_mode(inner, Mode::Deferred)
    }

    fn with_mode(inner: L, mode: Mode) -> Self {
        GroupCommitLog {
            inner,
            mode,
            now_us: 0,
            open: None,
            closed: Vec::new(),
            stats: GroupCommitStats::default(),
            logical_forces: 0,
        }
    }

    /// The wrapped log.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Mutable access to the wrapped log. Appends made directly on the
    /// inner log bypass batching and its accounting.
    pub fn inner_mut(&mut self) -> &mut L {
        &mut self.inner
    }

    /// Unwrap, discarding batching state. Any deferred batch should be
    /// committed first.
    pub fn into_inner(self) -> L {
        self.inner
    }

    /// Batching counters.
    pub fn group_stats(&self) -> GroupCommitStats {
        self.stats
    }

    /// Is batching active (windowed or deferred)?
    pub fn batching(&self) -> bool {
        self.mode != Mode::Passthrough
    }

    /// Advance the host clock. In windowed mode this closes the open
    /// batch once its window has expired; hosts call it before
    /// processing each event.
    pub fn tick(&mut self, now_us: u64) {
        self.now_us = self.now_us.max(now_us);
        if let Mode::Windowed { window_us } = self.mode {
            if let Some((opened, _)) = self.open {
                if self.now_us > opened.saturating_add(window_us) {
                    self.close_open();
                }
            }
        }
    }

    /// The batched forced-append path, around `append(inner, force)`,
    /// which appends the record with the force the mode asks for. In
    /// passthrough mode this is a plain forced append; in windowed mode
    /// the force happens immediately but joins the open accounting
    /// window; in deferred mode the record is staged until
    /// [`GroupCommitLog::commit_batch`].
    fn force_batched(
        &mut self,
        append: impl FnOnce(&mut L, bool) -> Result<Lsn, WalError>,
    ) -> Result<Lsn, WalError> {
        self.logical_forces += 1;
        match self.mode {
            Mode::Passthrough => append(&mut self.inner, true),
            Mode::Windowed { window_us } => {
                let lsn = append(&mut self.inner, true)?;
                match &mut self.open {
                    Some((opened, occ)) if self.now_us <= opened.saturating_add(window_us) => {
                        *occ += 1;
                    }
                    _ => {
                        self.close_open();
                        self.open = Some((self.now_us, 1));
                    }
                }
                Ok(lsn)
            }
            Mode::Deferred => {
                let lsn = append(&mut self.inner, false)?;
                match &mut self.open {
                    Some((_, occ)) => *occ += 1,
                    None => self.open = Some((self.now_us, 1)),
                }
                Ok(lsn)
            }
        }
    }

    /// Close the open batch. In deferred mode this performs the single
    /// physical force (one flush) that makes the staged records
    /// durable; in windowed mode it just seals the accounting window.
    /// Returns the closed batch, if one was open.
    pub fn commit_batch(&mut self) -> Result<Option<ClosedBatch>, WalError> {
        if self.open.is_none() {
            return Ok(None);
        }
        if self.mode == Mode::Deferred {
            self.inner.flush()?;
        }
        self.close_open();
        Ok(self.closed.last().copied())
    }

    /// Drain the batches closed since the last call (for trace-event
    /// emission). The buffer keeps its capacity.
    pub fn take_closed(&mut self) -> std::vec::Drain<'_, ClosedBatch> {
        self.closed.drain(..)
    }

    /// Occupancy of the currently open batch (0 when none is open).
    /// Hosts with an adaptive batch window use this to force a
    /// lone-record batch immediately instead of waiting out the window —
    /// batching only ever pays when at least two forces share the fsync.
    #[must_use]
    pub fn open_occupancy(&self) -> u64 {
        self.open.map_or(0, |(_, occ)| occ)
    }

    fn close_open(&mut self) {
        if let Some((opened, occ)) = self.open.take() {
            self.stats.absorb(occ);
            self.closed.push(ClosedBatch {
                opened_at_us: opened,
                occupancy: occ,
            });
        }
    }
}

impl<L: StableLog> StableLog for GroupCommitLog<L> {
    fn append_ref(&mut self, payload: &LogPayload, force: bool) -> Result<Lsn, WalError> {
        if force {
            self.force_batched(|log, force| log.append_ref(payload, force))
        } else {
            self.inner.append_ref(payload, false)
        }
    }

    fn append(&mut self, payload: LogPayload, force: bool) -> Result<Lsn, WalError> {
        if force {
            self.force_batched(|log, force| log.append(payload, force))
        } else {
            self.inner.append(payload, false)
        }
    }

    fn flush(&mut self) -> Result<(), WalError> {
        // A flush makes everything durable, so it subsumes any deferred
        // batch (which it closes — the flush IS the batch's force).
        if self.mode == Mode::Deferred {
            self.close_open();
        }
        self.inner.flush()
    }

    fn records(&self) -> Result<Vec<LogRecord>, WalError> {
        self.inner.records()
    }

    fn for_each_record(&self, f: &mut dyn FnMut(&LogRecord)) -> Result<(), WalError> {
        self.inner.for_each_record(f)
    }

    fn truncate_prefix(&mut self, lsn: Lsn) -> Result<(), WalError> {
        self.inner.truncate_prefix(lsn)
    }

    fn low_water_mark(&self) -> Lsn {
        self.inner.low_water_mark()
    }

    fn next_lsn(&self) -> Lsn {
        self.inner.next_lsn()
    }

    fn durable_end(&self) -> Lsn {
        self.inner.durable_end()
    }

    fn stats(&self) -> WalStats {
        // Report the *logical* force count: what the protocol asked
        // for, independent of physical batching. Physical syncs are in
        // `group_stats().batches` (windowed/deferred) or equal anyway
        // (passthrough).
        let mut s = self.inner.stats();
        s.forces = self.logical_forces;
        s
    }

    fn lose_unflushed(&mut self) -> Result<usize, WalError> {
        // A deferred batch that never committed dies with the crash —
        // its records were staged unforced, so the inner log loses them
        // (correct: nothing externalized them yet). A windowed batch's
        // members were physically forced; only the accounting window
        // closes.
        match self.mode {
            Mode::Deferred => {
                self.open = None;
            }
            _ => self.close_open(),
        }
        self.inner.lose_unflushed()
    }
}

// ---------------------------------------------------------------------
// Per-shard fsync domains.
// ---------------------------------------------------------------------

/// Coalescing counters for one [`FsyncDomain`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DomainStats {
    /// Force rounds completed (turns in which at least one member site
    /// committed a deferred batch). The domain's coalescing claim is
    /// `rounds ≪ records`: one round per shard turn no matter how many
    /// transactions forced in it.
    pub rounds: u64,
    /// Rounds led: the first member batch committed in each round. By
    /// construction `leader_flushes == rounds`.
    pub leader_flushes: u64,
    /// Member batches that joined a round already opened by a leader —
    /// forces that ride the round instead of starting one.
    pub follower_flushes: u64,
    /// Staged records made durable through the domain (sum of member
    /// batch occupancies).
    pub records: u64,
    /// Largest number of member sites in a single round.
    pub max_members: u64,
    /// Rounds with exactly one member (no cross-site coalescing — the
    /// degenerate case a lone transaction produces).
    pub solo_rounds: u64,
}

impl DomainStats {
    /// Fold another shard's domain counters into this aggregate.
    pub fn merge(&mut self, other: &DomainStats) {
        self.rounds += other.rounds;
        self.leader_flushes += other.leader_flushes;
        self.follower_flushes += other.follower_flushes;
        self.records += other.records;
        self.max_members = self.max_members.max(other.max_members);
        self.solo_rounds += other.solo_rounds;
    }
}

/// A per-shard fsync domain: a turn-ordered leader election for
/// event-loop hosts where one reactor thread owns several sites, each
/// with its own deferred [`GroupCommitLog`].
///
/// At the end of a reactor turn every member site with staged records
/// commits its batch **through the domain**
/// ([`FsyncDomain::force_member`]). The first member in the round is
/// the *leader*, elected by turn order — no lock is needed, because
/// shard single-threadedness already serializes the members. Remaining
/// members are followers whose forces ride the same round.
/// [`FsyncDomain::end_round`] seals the round at the turn boundary.
///
/// The domain is an *accounting* layer over the member logs' real
/// deferral: each member's `commit_batch` still performs its own
/// physical flush (members keep independent WAL files so per-site crash
/// and recovery semantics are untouched), and the round structure
/// records what a shared commit device would have coalesced — one
/// leader force per shard turn. The runtimes report one `DomainStats`
/// per shard (`tests/multi_reactor.rs` pins that each shard is one
/// coalesced force domain).
#[derive(Debug, Default)]
pub struct FsyncDomain {
    stats: DomainStats,
    /// Member batches committed in the currently open round.
    open_members: u64,
}

impl FsyncDomain {
    /// A fresh domain with no open round.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Commit one member log's deferred batch as part of the current
    /// force round, opening the round if this is its first member.
    /// Returns the member's closed batch (None if it had nothing
    /// staged — an empty member never joins the round).
    pub fn force_member<L: StableLog>(
        &mut self,
        log: &mut GroupCommitLog<L>,
    ) -> Result<Option<ClosedBatch>, WalError> {
        let closed = log.commit_batch()?;
        if let Some(batch) = closed {
            if self.open_members == 0 {
                self.stats.leader_flushes += 1;
            } else {
                self.stats.follower_flushes += 1;
            }
            self.open_members += 1;
            self.stats.records += batch.occupancy;
        }
        Ok(closed)
    }

    /// Seal the current force round (the reactor calls this once per
    /// turn, after every member site has had its chance to force). A
    /// round with no members is not counted.
    pub fn end_round(&mut self) {
        if self.open_members > 0 {
            self.stats.rounds += 1;
            self.stats.max_members = self.stats.max_members.max(self.open_members);
            if self.open_members == 1 {
                self.stats.solo_rounds += 1;
            }
            self.open_members = 0;
        }
    }

    /// Is a force round currently open (members committed, round not yet
    /// sealed)?
    #[must_use]
    pub fn round_open(&self) -> bool {
        self.open_members > 0
    }

    /// Coalescing counters. Call after [`FsyncDomain::end_round`] for a
    /// turn-consistent view.
    #[must_use]
    pub fn stats(&self) -> DomainStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemLog;
    use acp_types::TxnId;

    fn end(t: u64) -> LogPayload {
        LogPayload::End { txn: TxnId::new(t) }
    }

    #[test]
    fn passthrough_is_bit_for_bit_identical() {
        let mut plain = MemLog::new();
        let mut wrapped = GroupCommitLog::passthrough(MemLog::new());
        for i in 0..6 {
            plain.append(end(i), i % 2 == 0).unwrap();
            wrapped.append(end(i), i % 2 == 0).unwrap();
        }
        plain.flush().unwrap();
        wrapped.flush().unwrap();
        assert_eq!(plain.records().unwrap(), wrapped.records().unwrap());
        assert_eq!(plain.stats(), wrapped.stats());
        assert_eq!(wrapped.group_stats(), GroupCommitStats::default());
    }

    #[test]
    fn windowed_coalesces_forces_within_window() {
        let mut log = GroupCommitLog::windowed(MemLog::new(), 100);
        log.tick(1_000);
        log.append(end(1), true).unwrap();
        log.append(end(2), true).unwrap();
        log.tick(1_050); // still inside the window
        log.append(end(3), true).unwrap();
        log.tick(1_200); // window expired
        log.append(end(4), true).unwrap();
        log.commit_batch().unwrap();

        let s = log.group_stats();
        assert_eq!(s.batches, 2, "one window of 3, one of 1");
        assert_eq!(s.batched_appends, 4);
        assert_eq!(s.max_occupancy, 3);
        // Durability was never deferred: all four records are durable.
        assert_eq!(log.records().unwrap().len(), 4);
        let closed: Vec<_> = log.take_closed().collect();
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0], ClosedBatch { opened_at_us: 1_000, occupancy: 3 });
        assert_eq!(closed[1], ClosedBatch { opened_at_us: 1_200, occupancy: 1 });
    }

    #[test]
    fn windowed_zero_window_coalesces_only_simultaneous_forces() {
        let mut log = GroupCommitLog::windowed(MemLog::new(), 0);
        log.tick(500);
        log.append(end(1), true).unwrap();
        log.append(end(2), true).unwrap();
        log.tick(501);
        log.append(end(3), true).unwrap();
        log.commit_batch().unwrap();
        let s = log.group_stats();
        assert_eq!(s.batches, 2);
        assert_eq!(s.max_occupancy, 2);
    }

    #[test]
    fn deferred_batch_is_one_physical_flush() {
        let mut log = GroupCommitLog::deferred(MemLog::new());
        let flushes_before = log.inner().stats().flushes;
        for i in 0..5 {
            log.append(end(i), true).unwrap();
        }
        // Nothing durable until the batch commits.
        assert_eq!(log.records().unwrap().len(), 0);
        let closed = log.commit_batch().unwrap().unwrap();
        assert_eq!(closed.occupancy, 5);
        assert_eq!(log.records().unwrap().len(), 5);
        assert_eq!(
            log.inner().stats().flushes,
            flushes_before + 1,
            "five forced appends, one physical flush"
        );
        // Logical force accounting is preserved for cost checks.
        assert_eq!(log.stats().forces, 5);
        assert_eq!(log.group_stats().batches, 1);
    }

    #[test]
    fn deferred_uncommitted_batch_dies_with_a_crash() {
        let mut log = GroupCommitLog::deferred(MemLog::new());
        log.append(end(1), true).unwrap();
        log.commit_batch().unwrap();
        log.append(end(2), true).unwrap();
        let lost = log.lose_unflushed().unwrap();
        assert_eq!(lost, 1, "the staged record is lost");
        assert_eq!(log.records().unwrap().len(), 1);
        assert_eq!(log.group_stats().batches, 1, "the dead batch never counted");
    }

    #[test]
    fn fsync_domain_elects_one_leader_per_round() {
        let mut domain = FsyncDomain::new();
        let mut coord = GroupCommitLog::deferred(MemLog::new());
        let mut part = GroupCommitLog::deferred(MemLog::new());
        let mut idle = GroupCommitLog::deferred(MemLog::new());

        // Round 1: both active members force; the idle one stays out.
        coord.append(end(1), true).unwrap();
        coord.append(end(2), true).unwrap();
        part.append(end(1), true).unwrap();
        assert!(domain.force_member(&mut coord).unwrap().is_some());
        assert!(domain.round_open());
        assert!(domain.force_member(&mut part).unwrap().is_some());
        assert!(domain.force_member(&mut idle).unwrap().is_none());
        domain.end_round();
        assert!(!domain.round_open());

        // Round 2: a lone member — the solo (no-coalescing) case.
        part.append(end(2), true).unwrap();
        domain.force_member(&mut part).unwrap();
        domain.end_round();
        // A memberless turn counts no round.
        domain.end_round();

        let s = domain.stats();
        assert_eq!(s.rounds, 2);
        assert_eq!(s.leader_flushes, 2, "exactly one leader per round");
        assert_eq!(s.follower_flushes, 1);
        assert_eq!(s.records, 4, "3 staged records in round 1, 1 in round 2");
        assert_eq!(s.max_members, 2);
        assert_eq!(s.solo_rounds, 1);
        // The member logs really are durable (the domain does not defer
        // beyond the member commit).
        assert_eq!(coord.records().unwrap().len(), 2);
        assert_eq!(part.records().unwrap().len(), 2);
    }

    #[test]
    fn fsync_domain_stats_merge_across_shards() {
        let mut a = DomainStats {
            rounds: 3,
            leader_flushes: 3,
            follower_flushes: 2,
            records: 9,
            max_members: 2,
            solo_rounds: 1,
        };
        let b = DomainStats {
            rounds: 1,
            leader_flushes: 1,
            follower_flushes: 0,
            records: 1,
            max_members: 3,
            solo_rounds: 1,
        };
        a.merge(&b);
        assert_eq!(a.rounds, 4);
        assert_eq!(a.leader_flushes, 4);
        assert_eq!(a.follower_flushes, 2);
        assert_eq!(a.records, 10);
        assert_eq!(a.max_members, 3);
        assert_eq!(a.solo_rounds, 2);
    }
}
