//! Protocol kinds, votes, outcomes and presumption semantics.
//!
//! The heart of the paper is that the three classical 2PC variants make
//! *conflicting presumptions* about transactions whose records are
//! missing after a failure:
//!
//! * **PrN** (presumed nothing / basic 2PC) nominally presumes nothing,
//!   but carries a *hidden* abort presumption: after a coordinator
//!   failure, active transactions are considered aborted (Appendix).
//! * **PrA** (presumed abort) makes the abort presumption explicit:
//!   missing information ⇒ abort.
//! * **PrC** (presumed commit) inverts it: missing information ⇒ commit,
//!   made safe by a forced *initiation* record written before voting.
//!
//! These semantics — who force-writes what, and who acknowledges which
//! decisions — are encoded here as methods so that every engine, checker
//! and cost model derives behaviour from one place.

use std::fmt;

/// Final outcome of a distributed transaction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Outcome {
    /// The transaction commits at every participant.
    Commit,
    /// The transaction aborts at every participant.
    Abort,
}

impl Outcome {
    /// The opposite outcome.
    #[must_use]
    pub fn opposite(self) -> Outcome {
        match self {
            Outcome::Commit => Outcome::Abort,
            Outcome::Abort => Outcome::Commit,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Commit => write!(f, "commit"),
            Outcome::Abort => write!(f, "abort"),
        }
    }
}

/// A participant's vote in the voting phase.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Vote {
    /// "Yes": the participant is prepared to commit and has force-written
    /// a prepared record; it can no longer unilaterally abort.
    Yes,
    /// "No": the participant has aborted its subtransaction. The
    /// coordinator must decide abort.
    No,
    /// Read-only optimization (named in §5 as an integration target):
    /// the participant performed no updates, needs no second phase, and
    /// drops out of the protocol after voting.
    ReadOnly,
}

impl fmt::Display for Vote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Vote::Yes => write!(f, "yes"),
            Vote::No => write!(f, "no"),
            Vote::ReadOnly => write!(f, "read-only"),
        }
    }
}

/// The 2PC variant a *participant* site implements.
///
/// In the paper's multidatabase setting each autonomous site comes with
/// its own protocol; the coordinator learns it from the participants'
/// commit protocol (PCP) table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum ProtocolKind {
    /// Presumed nothing — the basic 2PC protocol (Figure 2).
    PrN,
    /// Presumed abort (Figure 3).
    PrA,
    /// Presumed commit (Figure 4).
    PrC,
}

impl ProtocolKind {
    /// All participant protocol kinds, in a stable order.
    pub const ALL: [ProtocolKind; 3] = [ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC];

    /// Does a participant of this protocol acknowledge a **commit**
    /// decision?
    ///
    /// PrN and PrA participants force-write the commit record and then
    /// acknowledge; PrC participants write a non-forced commit record and
    /// never acknowledge (Figure 4a).
    #[must_use]
    pub fn acks_commit(self) -> bool {
        matches!(self, ProtocolKind::PrN | ProtocolKind::PrA)
    }

    /// Does a participant of this protocol acknowledge an **abort**
    /// decision?
    ///
    /// PrN and PrC participants force-write the abort record and then
    /// acknowledge; PrA participants write a non-forced abort record and
    /// never acknowledge (Figure 3).
    #[must_use]
    pub fn acks_abort(self) -> bool {
        matches!(self, ProtocolKind::PrN | ProtocolKind::PrC)
    }

    /// Does a participant of this protocol acknowledge the given
    /// decision?
    #[must_use]
    pub fn acks(self, outcome: Outcome) -> bool {
        match outcome {
            Outcome::Commit => self.acks_commit(),
            Outcome::Abort => self.acks_abort(),
        }
    }

    /// Must the participant **force** its decision record before (or in
    /// lieu of) acknowledging?
    ///
    /// A decision is forced exactly when it must be acknowledged: the ack
    /// promises the decision is stable. Unacknowledged decisions are
    /// recorded lazily (non-forced) because the presumption covers them.
    #[must_use]
    pub fn forces_decision(self, outcome: Outcome) -> bool {
        self.acks(outcome)
    }

    /// The protocol's *explicit* presumption: the outcome a coordinator
    /// of this protocol reports for a transaction it has no record of.
    ///
    /// `None` for PrN, whose specification makes no explicit presumption.
    #[must_use]
    pub fn explicit_presumption(self) -> Option<Outcome> {
        match self {
            ProtocolKind::PrN => None,
            ProtocolKind::PrA => Some(Outcome::Abort),
            ProtocolKind::PrC => Some(Outcome::Commit),
        }
    }

    /// The protocol's *operative* presumption, including PrN's hidden
    /// abort presumption (Appendix: "there is a hidden presumption in PrN
    /// by which the coordinator considers all active transactions at the
    /// time of the failure as aborted ones").
    #[must_use]
    pub fn presumption(self) -> Outcome {
        match self {
            ProtocolKind::PrN | ProtocolKind::PrA => Outcome::Abort,
            ProtocolKind::PrC => Outcome::Commit,
        }
    }

    /// Does a coordinator running this protocol force-write an
    /// *initiation* record before starting the voting phase?
    ///
    /// Only PrC (and, in `acp-core`, PrAny) pays this extra force; it is
    /// what makes the commit presumption safe across coordinator
    /// failures.
    #[must_use]
    pub fn coordinator_writes_initiation(self) -> bool {
        matches!(self, ProtocolKind::PrC)
    }

    /// Does a coordinator running this protocol write a decision record
    /// for the given outcome, and is it forced?
    ///
    /// Returns `None` when no record is written at all:
    /// * PrA coordinators log nothing for aborts,
    /// * PrC coordinators log nothing for aborts (the initiation record
    ///   already guarantees the abort presumption after a failure).
    ///
    /// Returns `Some(true)` for forced decision records (all remaining
    /// cases — the decision must be stable before it is sent out).
    #[must_use]
    pub fn coordinator_decision_force(self, outcome: Outcome) -> Option<bool> {
        match (self, outcome) {
            (ProtocolKind::PrN, _) => Some(true),
            (ProtocolKind::PrA, Outcome::Commit) => Some(true),
            (ProtocolKind::PrA, Outcome::Abort) => None,
            (ProtocolKind::PrC, Outcome::Commit) => Some(true),
            (ProtocolKind::PrC, Outcome::Abort) => None,
        }
    }

    /// Does a coordinator running this protocol wait for acks (and then
    /// write an end record) for the given outcome?
    ///
    /// Mirrors [`ProtocolKind::acks`] on the participant side: the
    /// coordinator waits exactly for the participants that will ack.
    #[must_use]
    pub fn coordinator_waits_for_acks(self, outcome: Outcome) -> bool {
        self.acks(outcome)
    }

    /// Short lower-case name used in traces and experiment tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::PrN => "PrN",
            ProtocolKind::PrA => "PrA",
            ProtocolKind::PrC => "PrC",
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The protocol mode a coordinator selects for a *specific transaction*.
///
/// PrAny coordinators consult the active participants' protocols (APP)
/// table and pick the cheapest safe mode per transaction (§4.1): a
/// homogeneous population runs the participants' own protocol; a mixed
/// population runs full PrAny.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CommitMode {
    /// All participants use PrN ⇒ run basic 2PC.
    PrN,
    /// All participants use PrA ⇒ run presumed abort.
    PrA,
    /// All participants use PrC ⇒ run presumed commit.
    PrC,
    /// Mixed population ⇒ run the Presumed Any protocol (Figure 1).
    PrAny,
}

impl CommitMode {
    /// The homogeneous participant protocol this mode corresponds to, if
    /// any.
    #[must_use]
    pub fn as_homogeneous(self) -> Option<ProtocolKind> {
        match self {
            CommitMode::PrN => Some(ProtocolKind::PrN),
            CommitMode::PrA => Some(ProtocolKind::PrA),
            CommitMode::PrC => Some(ProtocolKind::PrC),
            CommitMode::PrAny => None,
        }
    }

    /// Does this mode force-write an initiation record before voting?
    ///
    /// PrC does (Figure 4); PrAny does, *including each participant's
    /// protocol* in the record (§4.1).
    #[must_use]
    pub fn writes_initiation(self) -> bool {
        matches!(self, CommitMode::PrC | CommitMode::PrAny)
    }

    /// Short name used in traces and experiment tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CommitMode::PrN => "PrN",
            CommitMode::PrA => "PrA",
            CommitMode::PrC => "PrC",
            CommitMode::PrAny => "PrAny",
        }
    }
}

impl fmt::Display for CommitMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<ProtocolKind> for CommitMode {
    fn from(p: ProtocolKind) -> Self {
        match p {
            ProtocolKind::PrN => CommitMode::PrN,
            ProtocolKind::PrA => CommitMode::PrA,
            ProtocolKind::PrC => CommitMode::PrC,
        }
    }
}

/// Policy a PrAny coordinator uses to select the commit mode for a
/// transaction from its participants' protocols.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SelectionPolicy {
    /// Exactly the rule stated in §4.1: homogeneous populations run their
    /// own protocol; *any* heterogeneous population runs PrAny.
    #[default]
    PaperStrict,
    /// One step cheaper than the paper's rule: a population mixing only
    /// PrN and PrA runs PrA (PrN participants acknowledge everything PrA
    /// expects, and both protocols presume abort). Every heterogeneous
    /// population that contains a PrC participant — PrN+PrC, PrA+PrC and
    /// PrN+PrA+PrC alike — runs full PrAny, as under `PaperStrict`.
    ///
    /// Whether a plain-PrC coordinator would be safe for a PrN+PrC mix is
    /// open (ROADMAP item 16): the explorer found no violation for it
    /// within its default budgets, but `select_mode` does not take it.
    Optimized,
}

impl fmt::Display for SelectionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectionPolicy::PaperStrict => write!(f, "paper-strict"),
            SelectionPolicy::Optimized => write!(f, "optimized"),
        }
    }
}

/// The integrated protocol a *coordinator* site runs.
///
/// §2 and §3 of the paper study two straw-man integrations (U2PC and
/// C2PC) before §4 presents PrAny; all are first-class here so the
/// theorems can be demonstrated executably.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CoordinatorKind {
    /// A plain single-protocol coordinator (only sound for a homogeneous
    /// population of the same protocol).
    Single(ProtocolKind),
    /// Union 2PC (§2): the coordinator follows `base`, knows which
    /// messages each participant will send, ignores protocol-violating
    /// messages, forgets once every participant that *will* ack has
    /// acked, and answers inquiries with `base`'s presumption.
    /// **Violates atomicity** (Theorem 1).
    U2pc(ProtocolKind),
    /// Coordinator 2PC (§3): like U2PC but never forgets a transaction
    /// until *all* participants ack and never answers by presumption.
    /// Functionally correct but **not operationally correct**
    /// (Theorem 2): some transactions are remembered forever.
    C2pc(ProtocolKind),
    /// Presumed Any (§4) with the given selection policy.
    PrAny(SelectionPolicy),
}

impl CoordinatorKind {
    /// Short name used in traces and experiment tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CoordinatorKind::Single(ProtocolKind::PrN) => "PrN",
            CoordinatorKind::Single(ProtocolKind::PrA) => "PrA",
            CoordinatorKind::Single(ProtocolKind::PrC) => "PrC",
            CoordinatorKind::U2pc(ProtocolKind::PrN) => "U2PC/PrN",
            CoordinatorKind::U2pc(ProtocolKind::PrA) => "U2PC/PrA",
            CoordinatorKind::U2pc(ProtocolKind::PrC) => "U2PC/PrC",
            CoordinatorKind::C2pc(ProtocolKind::PrN) => "C2PC/PrN",
            CoordinatorKind::C2pc(ProtocolKind::PrA) => "C2PC/PrA",
            CoordinatorKind::C2pc(ProtocolKind::PrC) => "C2PC/PrC",
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict) => "PrAny",
            CoordinatorKind::PrAny(SelectionPolicy::Optimized) => "PrAny/opt",
        }
    }
}

impl fmt::Display for CoordinatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_matrix_matches_figures() {
        // Figure 2: PrN acks both decisions.
        assert!(ProtocolKind::PrN.acks_commit());
        assert!(ProtocolKind::PrN.acks_abort());
        // Figure 3: PrA acks commits only.
        assert!(ProtocolKind::PrA.acks_commit());
        assert!(!ProtocolKind::PrA.acks_abort());
        // Figure 4: PrC acks aborts only.
        assert!(!ProtocolKind::PrC.acks_commit());
        assert!(ProtocolKind::PrC.acks_abort());
    }

    #[test]
    fn forced_decision_follows_acks() {
        for p in ProtocolKind::ALL {
            for o in [Outcome::Commit, Outcome::Abort] {
                assert_eq!(p.forces_decision(o), p.acks(o), "{p} {o}");
            }
        }
    }

    #[test]
    fn presumptions() {
        assert_eq!(ProtocolKind::PrN.explicit_presumption(), None);
        assert_eq!(ProtocolKind::PrN.presumption(), Outcome::Abort);
        assert_eq!(ProtocolKind::PrA.presumption(), Outcome::Abort);
        assert_eq!(ProtocolKind::PrC.presumption(), Outcome::Commit);
    }

    #[test]
    fn coordinator_logging_matrix() {
        use Outcome::*;
        // PrN force-writes the decision in both cases (Figure 2).
        assert_eq!(
            ProtocolKind::PrN.coordinator_decision_force(Commit),
            Some(true)
        );
        assert_eq!(
            ProtocolKind::PrN.coordinator_decision_force(Abort),
            Some(true)
        );
        // PrA logs nothing for aborts (Figure 3).
        assert_eq!(
            ProtocolKind::PrA.coordinator_decision_force(Commit),
            Some(true)
        );
        assert_eq!(ProtocolKind::PrA.coordinator_decision_force(Abort), None);
        // PrC logs a forced commit and nothing for aborts (Figure 4).
        assert_eq!(
            ProtocolKind::PrC.coordinator_decision_force(Commit),
            Some(true)
        );
        assert_eq!(ProtocolKind::PrC.coordinator_decision_force(Abort), None);
        // Only PrC writes an initiation record.
        assert!(ProtocolKind::PrC.coordinator_writes_initiation());
        assert!(!ProtocolKind::PrN.coordinator_writes_initiation());
        assert!(!ProtocolKind::PrA.coordinator_writes_initiation());
    }

    #[test]
    fn commit_mode_conversions() {
        for p in ProtocolKind::ALL {
            assert_eq!(CommitMode::from(p).as_homogeneous(), Some(p));
        }
        assert_eq!(CommitMode::PrAny.as_homogeneous(), None);
        assert!(CommitMode::PrAny.writes_initiation());
        assert!(CommitMode::PrC.writes_initiation());
        assert!(!CommitMode::PrA.writes_initiation());
    }

    #[test]
    fn outcome_opposite_involutive() {
        for o in [Outcome::Commit, Outcome::Abort] {
            assert_eq!(o.opposite().opposite(), o);
            assert_ne!(o.opposite(), o);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(
            CoordinatorKind::U2pc(ProtocolKind::PrC).to_string(),
            "U2PC/PrC"
        );
        assert_eq!(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict).to_string(),
            "PrAny"
        );
        assert_eq!(Vote::ReadOnly.to_string(), "read-only");
        assert_eq!(Outcome::Commit.to_string(), "commit");
    }
}
