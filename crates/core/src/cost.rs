//! Analytic cost model for commit processing (experiment E8).
//!
//! For a failure-free execution in which every participant votes "Yes"
//! (and, in the abort case, the coordinator then decides abort — the
//! situation of the paper's figures), the model predicts the exact
//! number of forced log writes, total log records and messages each
//! protocol incurs. The predictions are derived from the same
//! [`CommitPlan`] the engine executes, and the E8 experiment asserts
//! measured executions match them record-for-record.
//!
//! One deliberate implementation deviation is visible here: whenever a
//! transaction wrote *any* log record, the coordinator finishes it with
//! a **non-forced** end record even if the protocol expects no
//! acknowledgments (pure-PrC commits). The paper's figures omit that
//! record; we write it as a zero-force GC marker so every log can be
//! reclaimed uniformly. The model (and DESIGN.md) accounts for it
//! explicitly.

use crate::coordinator::plan::{AckRule, CommitPlan};
use acp_types::{CoordinatorKind, Outcome, ParticipantEntry, ProtocolKind, SiteId};

/// A participant population, summarized by protocol counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Population {
    /// Number of PrN participants.
    pub prn: usize,
    /// Number of PrA participants.
    pub pra: usize,
    /// Number of PrC participants.
    pub prc: usize,
}

impl Population {
    /// Build a population.
    #[must_use]
    pub fn new(prn: usize, pra: usize, prc: usize) -> Self {
        Population { prn, pra, prc }
    }

    /// Total participants.
    #[must_use]
    pub fn total(&self) -> usize {
        self.prn + self.pra + self.prc
    }

    /// Participants whose protocol acknowledges `outcome`.
    #[must_use]
    pub fn ackers(&self, outcome: Outcome) -> usize {
        match outcome {
            Outcome::Commit => self.prn + self.pra,
            Outcome::Abort => self.prn + self.prc,
        }
    }

    /// Expand into concrete participant entries at sites 1..=n (PrN
    /// first, then PrA, then PrC) — matching the harness layout.
    #[must_use]
    pub fn entries(&self) -> Vec<ParticipantEntry> {
        let mut v = Vec::with_capacity(self.total());
        let mut site = 1u32;
        for (count, proto) in [
            (self.prn, ProtocolKind::PrN),
            (self.pra, ProtocolKind::PrA),
            (self.prc, ProtocolKind::PrC),
        ] {
            for _ in 0..count {
                v.push(ParticipantEntry::new(SiteId::new(site), proto));
                site += 1;
            }
        }
        v
    }

    /// Summarize concrete entries into counts.
    #[must_use]
    pub fn from_entries(entries: &[ParticipantEntry]) -> Self {
        let mut p = Population::default();
        for e in entries {
            match e.protocol {
                ProtocolKind::PrN => p.prn += 1,
                ProtocolKind::PrA => p.pra += 1,
                ProtocolKind::PrC => p.prc += 1,
            }
        }
        p
    }
}

/// Predicted costs for one transaction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictedCosts {
    /// Coordinator forced log writes.
    pub coord_forces: u64,
    /// Coordinator total log records (forced + lazy, incl. the GC end
    /// marker).
    pub coord_records: u64,
    /// Sum of forced log writes across all participants.
    pub part_forces: u64,
    /// Sum of log records across all participants.
    pub part_records: u64,
    /// Total coordination messages (prepares + votes + decisions +
    /// acks).
    pub messages: u64,
}

impl PredictedCosts {
    /// Total forced writes in the system.
    #[must_use]
    pub fn total_forces(&self) -> u64 {
        self.coord_forces + self.part_forces
    }

    /// Total log records in the system.
    #[must_use]
    pub fn total_records(&self) -> u64 {
        self.coord_records + self.part_records
    }
}

/// Predict the costs of one failure-free, all-"Yes" transaction.
#[must_use]
pub fn predict(kind: CoordinatorKind, outcome: Outcome, population: Population) -> PredictedCosts {
    let entries = population.entries();
    let plan = CommitPlan::derive(kind, &entries);
    let n = population.total() as u64;

    // ---- coordinator log ----
    let mut coord_forces = 0u64;
    let mut coord_records = 0u64;
    if plan.write_initiation {
        coord_forces += 1;
        coord_records += 1;
    }
    if let Some(forced) = plan.decision_record(outcome) {
        coord_records += 1;
        if forced {
            coord_forces += 1;
        }
    }
    if coord_records > 0 {
        coord_records += 1; // the non-forced end / GC marker
    }

    // ---- participant logs ----
    // Each participant: forced prepared + decision record (forced iff it
    // acks this outcome) + lazy end marker.
    let part_ack_forces = population.ackers(outcome) as u64;
    let part_forces = n + part_ack_forces;
    let part_records = 3 * n;

    // ---- messages ----
    // prepares + votes + decisions + acks actually sent. The acks *sent*
    // are determined by the participants' protocols, independent of how
    // many the coordinator waits for (C2PC waits for acks that never
    // come — that changes state retention, not traffic).
    let acks_sent = match plan.ack_rule(outcome) {
        AckRule::None | AckRule::ByParticipantProtocol | AckRule::AllRecipients => {
            population.ackers(outcome) as u64
        }
    };
    let messages = n + n + n + acks_sent;

    PredictedCosts {
        coord_forces,
        coord_records,
        part_forces,
        part_records,
        messages,
    }
}

/// Predicted costs for `n_txns` concurrent transactions committed
/// through a group-commit log.
///
/// The model: every per-transaction force slot (the coordinator's
/// initiation and decision forces, each participant's prepared and
/// decision forces) batches *independently across transactions* — a
/// slot is one site's forced write at one protocol step, and concurrent
/// transactions reach the same step together, so one physical force
/// serves up to `batch` of them. Forces at different steps (or sites)
/// never share a sync.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchedPrediction {
    /// Forced writes the protocols *request*: `n_txns ×` the
    /// per-transaction total. Unchanged by batching — batching changes
    /// how many syncs serve them, not how many records are forced.
    pub logical_forces: u64,
    /// Physical forces (fsyncs) performed: one per slot per batch of up
    /// to `batch` transactions.
    pub physical_forces: u64,
    /// Number of distinct force slots per transaction.
    pub slots_per_txn: u64,
}

impl BatchedPrediction {
    /// Physical forces per transaction, fixed-point ×1000 (the
    /// workspace's cost arithmetic is float-free).
    #[must_use]
    pub fn forces_per_txn_x1000(&self, n_txns: u64) -> u64 {
        (self.physical_forces * 1000)
            .checked_div(n_txns)
            .unwrap_or(0)
    }

    /// Amortization factor ×1000: logical forces per physical force.
    /// 1000 means no saving; `batch × 1000` is the ideal.
    #[must_use]
    pub fn amortization_x1000(&self) -> u64 {
        (self.logical_forces * 1000)
            .checked_div(self.physical_forces)
            .unwrap_or(0)
    }
}

/// Predicted costs for one failure-free Paxos Commit transaction,
/// split by role (experiment E16 extends the E8 table with these rows).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PaxosPredictedCosts {
    /// Leader (acceptor rank 0) forced log writes: one bundled
    /// `paxos-accept` per transaction.
    pub leader_forces: u64,
    /// Leader total log records (the bundle + the lazy end marker).
    pub leader_records: u64,
    /// Forced writes summed across the `2f` remote acceptors.
    pub acceptor_forces: u64,
    /// Log records summed across the `2f` remote acceptors.
    pub acceptor_records: u64,
    /// Forced writes summed across the `n` participants.
    pub part_forces: u64,
    /// Log records summed across the `n` participants.
    pub part_records: u64,
    /// Total coordination messages (see the flow table in
    /// [`crate::paxos`]): `4n + 8f` for both outcomes.
    pub messages: u64,
}

impl PaxosPredictedCosts {
    /// Total forced writes in the system.
    #[must_use]
    pub fn total_forces(&self) -> u64 {
        self.leader_forces + self.acceptor_forces + self.part_forces
    }

    /// The coordinator-side slice of the prediction as a
    /// [`PredictedCosts`], for comparing the `f = 0` degeneracy against
    /// `predict(Single(PrN), ..)` field-for-field.
    #[must_use]
    pub fn as_predicted(&self) -> PredictedCosts {
        PredictedCosts {
            coord_forces: self.leader_forces,
            coord_records: self.leader_records,
            part_forces: self.part_forces,
            part_records: self.part_records,
            messages: self.messages,
        }
    }
}

/// Predict the costs of one failure-free Paxos Commit transaction over
/// `n` participants with tolerance `f`, where every participant votes
/// "Yes" (for the abort case the client then requests abort — the same
/// situation the E8 figures measure).
///
/// Paxos runs the *same* consensus round for both outcomes (an abort is
/// an all-Aborted bundle), so unlike the presumption protocols the two
/// columns are identical — the price of non-blocking termination. At
/// `f = 0` the prediction collapses onto
/// `predict(Single(PrN), outcome, ..)` exactly: 2PC is the degenerate
/// case, record for record and message for message.
#[must_use]
pub fn predict_paxos(n: usize, f: usize, _outcome: Outcome) -> PaxosPredictedCosts {
    let n = n as u64;
    let f = f as u64;
    PaxosPredictedCosts {
        // One bundled paxos-accept force, then the lazy end marker.
        leader_forces: 1,
        leader_records: 2,
        // Each remote acceptor mirrors the leader's log shape.
        acceptor_forces: 2 * f,
        acceptor_records: 4 * f,
        // Participants are plain PrN: forced prepared + forced decision
        // + lazy end marker each.
        part_forces: 2 * n,
        part_records: 3 * n,
        // begin 2f + prepare n + vote n + phase2a 2f + phase2b 2f
        // + decision n + ack n + forget 2f.
        messages: 4 * n + 8 * f,
    }
}

/// Predict the batched cost of `n_txns` identical concurrent
/// transactions with group-commit batches of at most `batch`
/// transactions per slot.
///
/// `batch = 1` degenerates to the unbatched model exactly
/// (`physical_forces == logical_forces`); `batch >= n_txns` is the
/// fully-amortized floor of one physical force per slot. The sim
/// harness measures the `batch = n_txns` point: with a deterministic
/// batch window, concurrent transactions' same-slot forces land at the
/// same instant and coalesce completely.
#[must_use]
pub fn predict_batched(
    kind: CoordinatorKind,
    outcome: Outcome,
    population: Population,
    n_txns: u64,
    batch: u64,
) -> BatchedPrediction {
    let per_txn = predict(kind, outcome, population);
    let slots = per_txn.total_forces();
    let batch = batch.max(1);
    let batches_per_slot = n_txns.div_ceil(batch);
    BatchedPrediction {
        logical_forces: slots * n_txns,
        physical_forces: slots * batches_per_slot,
        slots_per_txn: slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_types::SelectionPolicy;

    fn single(p: ProtocolKind) -> CoordinatorKind {
        CoordinatorKind::Single(p)
    }

    #[test]
    fn prn_costs_match_figure_2() {
        let pop = Population::new(2, 0, 0);
        let c = predict(single(ProtocolKind::PrN), Outcome::Commit, pop);
        assert_eq!(c.coord_forces, 1);
        assert_eq!(c.coord_records, 2);
        assert_eq!(c.part_forces, 4); // prepared + decision, each site
        assert_eq!(c.messages, 8); // 4 rounds × 2 sites

        let a = predict(single(ProtocolKind::PrN), Outcome::Abort, pop);
        assert_eq!(a, c, "PrN treats both outcomes uniformly");
    }

    #[test]
    fn pra_abort_is_free_for_the_coordinator() {
        let pop = Population::new(0, 2, 0);
        let c = predict(single(ProtocolKind::PrA), Outcome::Abort, pop);
        assert_eq!(c.coord_forces, 0);
        assert_eq!(
            c.coord_records, 0,
            "no records at all — not even an end marker"
        );
        assert_eq!(c.part_forces, 2, "prepared only; abort record is lazy");
        assert_eq!(c.messages, 6, "no acks");
    }

    #[test]
    fn prc_commit_saves_participant_forces_and_acks() {
        let pop = Population::new(0, 0, 2);
        let c = predict(single(ProtocolKind::PrC), Outcome::Commit, pop);
        assert_eq!(c.coord_forces, 2, "initiation + commit");
        assert_eq!(c.coord_records, 3, "+ end marker");
        assert_eq!(c.part_forces, 2, "prepared only");
        assert_eq!(c.messages, 6, "no acks");

        let a = predict(single(ProtocolKind::PrC), Outcome::Abort, pop);
        assert_eq!(a.coord_forces, 1, "initiation only");
        assert_eq!(a.part_forces, 4, "abort records are forced");
        assert_eq!(a.messages, 8);
    }

    #[test]
    fn prany_mixed_costs() {
        let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
        let pop = Population::new(1, 1, 1);
        let c = predict(kind, Outcome::Commit, pop);
        assert_eq!(c.coord_forces, 2, "initiation + commit");
        assert_eq!(c.coord_records, 3);
        // Participants: 3 prepared forces + PrN,PrA forced commits.
        assert_eq!(c.part_forces, 5);
        // 3 prepares + 3 votes + 3 decisions + 2 acks (PrN + PrA).
        assert_eq!(c.messages, 11);

        let a = predict(kind, Outcome::Abort, pop);
        assert_eq!(a.coord_forces, 1, "no abort record");
        assert_eq!(a.messages, 11, "acks now from PrN + PrC");
    }

    #[test]
    fn prany_homogeneous_matches_native_protocol() {
        let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
        for p in ProtocolKind::ALL {
            let pop = match p {
                ProtocolKind::PrN => Population::new(3, 0, 0),
                ProtocolKind::PrA => Population::new(0, 3, 0),
                ProtocolKind::PrC => Population::new(0, 0, 3),
            };
            for o in [Outcome::Commit, Outcome::Abort] {
                assert_eq!(predict(kind, o, pop), predict(single(p), o, pop), "{p} {o}");
            }
        }
    }

    #[test]
    fn optimized_selection_saves_the_initiation_force_on_prn_pra_mixes() {
        let strict = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
        let opt = CoordinatorKind::PrAny(SelectionPolicy::Optimized);
        let pop = Population::new(1, 1, 0);
        let s = predict(strict, Outcome::Commit, pop);
        let o = predict(opt, Outcome::Commit, pop);
        assert_eq!(s.coord_forces, 2);
        assert_eq!(o.coord_forces, 1, "no initiation record in PrA mode");
        assert_eq!(s.messages, o.messages);
    }

    #[test]
    fn batch_of_one_is_the_unbatched_model() {
        let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
        let pop = Population::new(1, 1, 1);
        for o in [Outcome::Commit, Outcome::Abort] {
            let per_txn = predict(kind, o, pop);
            let b = predict_batched(kind, o, pop, 8, 1);
            assert_eq!(b.physical_forces, b.logical_forces);
            assert_eq!(b.logical_forces, 8 * per_txn.total_forces());
            assert_eq!(b.amortization_x1000(), 1000, "no saving at batch 1");
        }
    }

    #[test]
    fn full_batch_amortizes_to_one_force_per_slot() {
        let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
        let pop = Population::new(1, 1, 1);
        let per_txn = predict(kind, Outcome::Commit, pop);
        let b = predict_batched(kind, Outcome::Commit, pop, 16, 16);
        assert_eq!(b.physical_forces, per_txn.total_forces());
        assert_eq!(
            b.forces_per_txn_x1000(16),
            per_txn.total_forces() * 1000 / 16
        );
        assert_eq!(b.amortization_x1000(), 16_000, "ideal 16× amortization");
    }

    #[test]
    fn partial_batches_round_up() {
        let kind = CoordinatorKind::Single(ProtocolKind::PrN);
        let pop = Population::new(2, 0, 0);
        // 10 txns in batches of 4 → 3 batches per slot.
        let b = predict_batched(kind, Outcome::Commit, pop, 10, 4);
        let slots = predict(kind, Outcome::Commit, pop).total_forces();
        assert_eq!(b.physical_forces, slots * 3);
        // Monotone: larger batches never cost more syncs.
        let mut last = u64::MAX;
        for batch in 1..=10 {
            let p = predict_batched(kind, Outcome::Commit, pop, 10, batch).physical_forces;
            assert!(p <= last);
            last = p;
        }
    }

    #[test]
    fn paxos_f0_is_exactly_prn() {
        // Gray & Lamport: 2PC is Paxos Commit with one acceptor. The
        // analytic tables must agree record-for-record at f = 0.
        for n in 1..=4 {
            let pop = Population::new(n, 0, 0);
            for o in [Outcome::Commit, Outcome::Abort] {
                let paxos = predict_paxos(n, 0, o);
                assert_eq!(paxos.acceptor_forces, 0);
                assert_eq!(paxos.acceptor_records, 0);
                assert_eq!(
                    paxos.as_predicted(),
                    predict(single(ProtocolKind::PrN), o, pop),
                    "n={n} {o}"
                );
            }
        }
    }

    #[test]
    fn paxos_fault_tolerance_costs_8f_messages_and_2f_forces() {
        for n in 1..=3 {
            for f in 0..=2 {
                let c = predict_paxos(n, f, Outcome::Commit);
                let base = predict_paxos(n, 0, Outcome::Commit);
                assert_eq!(c.messages, base.messages + 8 * f as u64);
                assert_eq!(c.total_forces(), base.total_forces() + 2 * f as u64);
                // Both outcomes cost the same: abort also runs consensus.
                assert_eq!(c, predict_paxos(n, f, Outcome::Abort));
            }
        }
    }

    #[test]
    fn population_roundtrip() {
        let pop = Population::new(2, 1, 3);
        assert_eq!(Population::from_entries(&pop.entries()), pop);
        assert_eq!(pop.total(), 6);
        assert_eq!(pop.ackers(Outcome::Commit), 3);
        assert_eq!(pop.ackers(Outcome::Abort), 5);
    }
}
