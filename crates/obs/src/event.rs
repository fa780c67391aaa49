//! The typed protocol event stream.
//!
//! Every cost-relevant step a protocol engine or its host takes is
//! modelled as one [`ProtocolEvent`] variant. The paper's analysis
//! (§1, §5 and Table/Figure comparisons) turns entirely on four
//! observable quantities — forced log writes, coordination messages,
//! acknowledgment rounds and garbage-collection points — so those are
//! exactly the event vocabulary, plus the failure events (crash /
//! recovery-step) that the theorems quantify over.

use acp_types::{CoordinatorKind, ProtocolKind};
use std::fmt;

/// Which 2PC variant the emitting site runs.
///
/// This is the attribution key of the metrics registry: one bucket per
/// label, so per-protocol cost comparisons (the paper's whole point)
/// fall out of a run for free.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ProtoLabel {
    /// Presumed nothing (basic 2PC, Figure 2).
    PrN,
    /// Presumed abort (Figure 3).
    PrA,
    /// Presumed commit (Figure 4).
    PrC,
    /// Union 2PC coordinator (§2, atomicity-violating).
    U2pc,
    /// Conservative 2PC coordinator (§3, not operationally correct).
    C2pc,
    /// Presumed Any coordinator (§4).
    PrAny,
    /// Paxos Commit acceptor/leader (replicated coordinator).
    Paxos,
    /// A gateway fronting a legacy system (Figure 5's non-externalized
    /// branch).
    Gateway,
    /// Attribution unknown (e.g. transport-level events at an
    /// unlabelled site).
    Other,
}

impl ProtoLabel {
    /// All labels, in the fixed order used by the metrics registry and
    /// every JSON dump.
    pub const ALL: [ProtoLabel; 9] = [
        ProtoLabel::PrN,
        ProtoLabel::PrA,
        ProtoLabel::PrC,
        ProtoLabel::U2pc,
        ProtoLabel::C2pc,
        ProtoLabel::PrAny,
        ProtoLabel::Paxos,
        ProtoLabel::Gateway,
        ProtoLabel::Other,
    ];

    /// Stable display name (used in JSON keys and rendered figures).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProtoLabel::PrN => "PrN",
            ProtoLabel::PrA => "PrA",
            ProtoLabel::PrC => "PrC",
            ProtoLabel::U2pc => "U2PC",
            ProtoLabel::C2pc => "C2PC",
            ProtoLabel::PrAny => "PrAny",
            ProtoLabel::Paxos => "paxos",
            ProtoLabel::Gateway => "gateway",
            ProtoLabel::Other => "other",
        }
    }

    /// Index into the metrics registry's per-protocol rows.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            ProtoLabel::PrN => 0,
            ProtoLabel::PrA => 1,
            ProtoLabel::PrC => 2,
            ProtoLabel::U2pc => 3,
            ProtoLabel::C2pc => 4,
            ProtoLabel::PrAny => 5,
            ProtoLabel::Paxos => 6,
            ProtoLabel::Gateway => 7,
            ProtoLabel::Other => 8,
        }
    }

    /// The label for a participant running `p`.
    #[must_use]
    pub fn of_participant(p: ProtocolKind) -> Self {
        match p {
            ProtocolKind::PrN => ProtoLabel::PrN,
            ProtocolKind::PrA => ProtoLabel::PrA,
            ProtocolKind::PrC => ProtoLabel::PrC,
        }
    }

    /// The label for a coordinator of kind `k`. Straw-man integrations
    /// are attributed to their integration (U2PC/C2PC), not their base
    /// protocol — the base is recoverable from the scenario.
    #[must_use]
    pub fn of_coordinator(k: CoordinatorKind) -> Self {
        match k {
            CoordinatorKind::Single(p) => Self::of_participant(p),
            CoordinatorKind::U2pc(_) => ProtoLabel::U2pc,
            CoordinatorKind::C2pc(_) => ProtoLabel::C2pc,
            CoordinatorKind::PrAny(_) => ProtoLabel::PrAny,
        }
    }
}

impl fmt::Display for ProtoLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One observable step of a protocol execution.
///
/// Timestamps are raw microseconds: virtual [`SimTime`] micros under the
/// deterministic simulator, elapsed-since-start micros under the
/// real-time runtimes (`acp-net`). Sites are raw [`SiteId`] values and
/// transactions raw [`TxnId`] values so this crate depends only on
/// `acp-types`.
///
/// [`SimTime`]: https://docs.rs/acp-sim
/// [`SiteId`]: acp_types::SiteId
/// [`TxnId`]: acp_types::TxnId
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtocolEvent {
    /// A forced (synchronous) log write — the unit the paper counts.
    ForceWrite {
        /// Event time in microseconds.
        at_us: u64,
        /// Emitting site.
        site: u32,
        /// The protocol the site runs.
        proto: ProtoLabel,
        /// Log record kind (`LogPayload::kind_name`).
        record: &'static str,
        /// The transaction, when the record belongs to one.
        txn: Option<u64>,
    },
    /// A non-forced (lazy, buffered) log write.
    NonForcedWrite {
        /// Event time in microseconds.
        at_us: u64,
        /// Emitting site.
        site: u32,
        /// The protocol the site runs.
        proto: ProtoLabel,
        /// Log record kind.
        record: &'static str,
        /// The transaction, when the record belongs to one.
        txn: Option<u64>,
    },
    /// A coordination message handed to the network.
    MsgSend {
        /// Event time in microseconds.
        at_us: u64,
        /// Sending site.
        site: u32,
        /// The protocol the sender runs.
        proto: ProtoLabel,
        /// Destination site.
        to: u32,
        /// Payload kind (`Payload::kind_name`).
        kind: &'static str,
        /// The transaction the message belongs to.
        txn: Option<u64>,
    },
    /// A coordination message delivered to its destination.
    MsgRecv {
        /// Event time in microseconds.
        at_us: u64,
        /// Receiving site.
        site: u32,
        /// The protocol the receiver runs.
        proto: ProtoLabel,
        /// Originating site.
        from: u32,
        /// Payload kind.
        kind: &'static str,
        /// The transaction the message belongs to.
        txn: Option<u64>,
    },
    /// A participant fixed its vote for a transaction.
    VoteCast {
        /// Event time in microseconds.
        at_us: u64,
        /// Voting site.
        site: u32,
        /// The protocol the voter runs.
        proto: ProtoLabel,
        /// The vote (`yes` / `no` / `read-only`).
        vote: &'static str,
        /// The transaction voted on.
        txn: Option<u64>,
    },
    /// The coordinator reached a decision.
    DecisionReached {
        /// Event time in microseconds.
        at_us: u64,
        /// Deciding site.
        site: u32,
        /// The protocol the coordinator runs.
        proto: ProtoLabel,
        /// `commit` or `abort`.
        outcome: &'static str,
        /// The decided transaction.
        txn: Option<u64>,
    },
    /// A stable-log prefix was garbage collected (the observable form of
    /// Definition 1's operational correctness).
    LogGc {
        /// Event time in microseconds.
        at_us: u64,
        /// Collecting site.
        site: u32,
        /// The protocol the site runs.
        proto: ProtoLabel,
        /// New low-water mark: records below this LSN are gone.
        released_up_to: u64,
        /// How many records this collection reclaimed.
        records_released: u64,
        /// Time since the site's most recent decision, when one is
        /// known — the "GC latency" metric.
        since_decision_us: Option<u64>,
    },
    /// An engine re-armed a retry timer with exponential backoff: the
    /// previous attempt fired without resolving (a decision re-send
    /// whose acknowledgments are still owed, an inquiry that went
    /// unanswered). Emitted only for genuine retries (`attempt > 0`),
    /// so clean runs carry none of these and their traces are
    /// unchanged; under message loss the per-protocol retry counts
    /// quantify how hard each protocol worked to terminate.
    RetryScheduled {
        /// Event time in microseconds.
        at_us: u64,
        /// Retrying site.
        site: u32,
        /// The protocol the site runs.
        proto: ProtoLabel,
        /// Timer purpose (display form, e.g. `inquiry-retry`).
        purpose: &'static str,
        /// The attempt number just scheduled (1 = first retry).
        attempt: u32,
        /// The transaction, when the host knows it.
        txn: Option<u64>,
    },
    /// A group-commit batch closed with more than one member: a single
    /// physical force served `occupancy` forced appends from concurrent
    /// transactions. Batches of one are *not* emitted — a batch of one
    /// is indistinguishable from an unbatched force, which keeps clean
    /// single-transaction traces byte-identical with batching enabled.
    BatchCommit {
        /// Event time in microseconds.
        at_us: u64,
        /// The site whose log closed the batch.
        site: u32,
        /// The protocol the site runs.
        proto: ProtoLabel,
        /// Forced appends the single physical force covered.
        occupancy: u64,
    },
    /// An overloaded host refused a new transaction at the door: the
    /// admission controller found the in-flight population or the
    /// mailbox backlog above its bound and shed the commit request
    /// before any protocol work (no votes, no forces, no messages).
    /// The rejection is counted and observable — never a silent drop —
    /// so the load generator can feed it back into its retry policy.
    AdmissionShed {
        /// Event time in microseconds.
        at_us: u64,
        /// The shedding site (the coordinator's host).
        site: u32,
        /// The protocol the coordinator runs.
        proto: ProtoLabel,
        /// The refused transaction.
        txn: Option<u64>,
        /// In-flight transactions at the moment of refusal.
        inflight: u64,
        /// The admission bound that was exceeded.
        limit: u64,
    },
    /// A site fail-stopped.
    CrashObserved {
        /// Event time in microseconds.
        at_us: u64,
        /// The crashed site.
        site: u32,
        /// The protocol the site runs.
        proto: ProtoLabel,
    },
    /// A step of a site's restart procedure (§4.2) — the transport-level
    /// "site back up" plus protocol-level inquiries and presumption
    /// answers.
    RecoveryStep {
        /// Event time in microseconds.
        at_us: u64,
        /// The recovering (or answering) site.
        site: u32,
        /// The protocol the site runs.
        proto: ProtoLabel,
        /// Human-readable description of the step.
        detail: String,
    },
}

impl ProtocolEvent {
    /// Event time in microseconds.
    #[must_use]
    pub fn at_us(&self) -> u64 {
        match self {
            ProtocolEvent::ForceWrite { at_us, .. }
            | ProtocolEvent::NonForcedWrite { at_us, .. }
            | ProtocolEvent::MsgSend { at_us, .. }
            | ProtocolEvent::MsgRecv { at_us, .. }
            | ProtocolEvent::VoteCast { at_us, .. }
            | ProtocolEvent::DecisionReached { at_us, .. }
            | ProtocolEvent::LogGc { at_us, .. }
            | ProtocolEvent::RetryScheduled { at_us, .. }
            | ProtocolEvent::BatchCommit { at_us, .. }
            | ProtocolEvent::AdmissionShed { at_us, .. }
            | ProtocolEvent::CrashObserved { at_us, .. }
            | ProtocolEvent::RecoveryStep { at_us, .. } => *at_us,
        }
    }

    /// The emitting site.
    #[must_use]
    pub fn site(&self) -> u32 {
        match self {
            ProtocolEvent::ForceWrite { site, .. }
            | ProtocolEvent::NonForcedWrite { site, .. }
            | ProtocolEvent::MsgSend { site, .. }
            | ProtocolEvent::MsgRecv { site, .. }
            | ProtocolEvent::VoteCast { site, .. }
            | ProtocolEvent::DecisionReached { site, .. }
            | ProtocolEvent::LogGc { site, .. }
            | ProtocolEvent::RetryScheduled { site, .. }
            | ProtocolEvent::BatchCommit { site, .. }
            | ProtocolEvent::AdmissionShed { site, .. }
            | ProtocolEvent::CrashObserved { site, .. }
            | ProtocolEvent::RecoveryStep { site, .. } => *site,
        }
    }

    /// The protocol attribution of the event.
    #[must_use]
    pub fn proto(&self) -> ProtoLabel {
        match self {
            ProtocolEvent::ForceWrite { proto, .. }
            | ProtocolEvent::NonForcedWrite { proto, .. }
            | ProtocolEvent::MsgSend { proto, .. }
            | ProtocolEvent::MsgRecv { proto, .. }
            | ProtocolEvent::VoteCast { proto, .. }
            | ProtocolEvent::DecisionReached { proto, .. }
            | ProtocolEvent::LogGc { proto, .. }
            | ProtocolEvent::RetryScheduled { proto, .. }
            | ProtocolEvent::BatchCommit { proto, .. }
            | ProtocolEvent::AdmissionShed { proto, .. }
            | ProtocolEvent::CrashObserved { proto, .. }
            | ProtocolEvent::RecoveryStep { proto, .. } => *proto,
        }
    }

    /// Stable snake_case tag for the variant (JSON `type` field).
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            ProtocolEvent::ForceWrite { .. } => "force_write",
            ProtocolEvent::NonForcedWrite { .. } => "non_forced_write",
            ProtocolEvent::MsgSend { .. } => "msg_send",
            ProtocolEvent::MsgRecv { .. } => "msg_recv",
            ProtocolEvent::VoteCast { .. } => "vote_cast",
            ProtocolEvent::DecisionReached { .. } => "decision_reached",
            ProtocolEvent::LogGc { .. } => "log_gc",
            ProtocolEvent::RetryScheduled { .. } => "retry_scheduled",
            ProtocolEvent::BatchCommit { .. } => "batch_commit",
            ProtocolEvent::AdmissionShed { .. } => "admission_shed",
            ProtocolEvent::CrashObserved { .. } => "crash_observed",
            ProtocolEvent::RecoveryStep { .. } => "recovery_step",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_through_index() {
        for (i, l) in ProtoLabel::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
    }

    #[test]
    fn coordinator_labels() {
        assert_eq!(
            ProtoLabel::of_coordinator(CoordinatorKind::Single(ProtocolKind::PrA)),
            ProtoLabel::PrA
        );
        assert_eq!(
            ProtoLabel::of_coordinator(CoordinatorKind::U2pc(ProtocolKind::PrC)),
            ProtoLabel::U2pc
        );
    }

    #[test]
    fn accessors_agree_with_fields() {
        let e = ProtocolEvent::ForceWrite {
            at_us: 7,
            site: 3,
            proto: ProtoLabel::PrC,
            record: "commit",
            txn: Some(1),
        };
        assert_eq!(e.at_us(), 7);
        assert_eq!(e.site(), 3);
        assert_eq!(e.proto(), ProtoLabel::PrC);
        assert_eq!(e.tag(), "force_write");
    }
}
