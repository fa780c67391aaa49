//! Wire messages exchanged between coordinator and participants.

use crate::ids::{SiteId, TxnId};
use crate::protocol::{Outcome, ProtocolKind, Vote};
use std::fmt;

/// The payload of a coordination message.
///
/// These are exactly the message kinds of the paper's protocols:
/// `Prepare` and `Vote` form the voting phase, `Decision` and `Ack` the
/// decision phase; `Inquiry`/`InquiryResponse` implement the recovery
/// dialogue a prepared participant holds with its coordinator.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Payload {
    /// Coordinator → participant: request to prepare to commit.
    Prepare {
        /// Transaction being prepared.
        txn: TxnId,
    },
    /// Participant → coordinator: the participant's vote.
    Vote {
        /// Transaction being voted on.
        txn: TxnId,
        /// The vote.
        vote: Vote,
    },
    /// Coordinator → participant: the final decision.
    Decision {
        /// Transaction being decided.
        txn: TxnId,
        /// Commit or abort.
        outcome: Outcome,
    },
    /// Participant → coordinator: acknowledgment of an enforced decision.
    Ack {
        /// Transaction being acknowledged.
        txn: TxnId,
    },
    /// Participant → coordinator: recovery-time inquiry about the
    /// outcome of a transaction the participant is in doubt about.
    ///
    /// Carries the participant's protocol so a PrAny coordinator can
    /// dynamically adopt the inquirer's presumption (§4.2) even when the
    /// transaction has been forgotten and the APP entry is gone.
    Inquiry {
        /// Transaction inquired about.
        txn: TxnId,
        /// The inquiring participant's commit protocol.
        protocol: ProtocolKind,
    },
    /// Coordinator → participant: reply to an inquiry.
    InquiryResponse {
        /// Transaction inquired about.
        txn: TxnId,
        /// The outcome the coordinator reports (possibly by presumption).
        outcome: Outcome,
    },

    // ----- Paxos Commit (Gray & Lamport) -----
    /// Leader → remote acceptor: a transaction's commit protocol has
    /// begun. Carries the participant roster so the acceptor can watch
    /// for completion and run leader failover if the leader dies before
    /// any phase-2a proposal reaches it.
    PaxosBegin {
        /// The transaction.
        txn: TxnId,
        /// Participant sites (one Paxos instance each).
        participants: Vec<SiteId>,
    },
    /// Candidate leader → acceptor: phase-1a ballot solicitation for
    /// every participant instance of the transaction at once.
    Phase1a {
        /// The transaction.
        txn: TxnId,
        /// The candidate's ballot number.
        ballot: u64,
    },
    /// Acceptor → candidate leader: phase-1b promise. Reports, per
    /// participant instance with an accepted value, the ballot it was
    /// accepted at and the value (`true` = Prepared). `forgotten` means
    /// the transaction already completed here and was garbage collected
    /// — the candidate should stand down.
    Phase1b {
        /// The transaction.
        txn: TxnId,
        /// The ballot being promised.
        ballot: u64,
        /// The transaction already completed and was forgotten here.
        forgotten: bool,
        /// Participant roster as known by this acceptor.
        participants: Vec<SiteId>,
        /// Accepted values: (instance participant, ballot, prepared).
        accepted: Vec<(SiteId, u64, bool)>,
    },
    /// Leader → acceptor: bundled phase-2a proposal — one value per
    /// participant instance (`true` = Prepared, `false` = Aborted).
    Phase2a {
        /// The transaction.
        txn: TxnId,
        /// The proposing leader's ballot.
        ballot: u64,
        /// Proposed value per participant instance.
        instances: Vec<(SiteId, bool)>,
    },
    /// Acceptor → leader: bundled phase-2b acceptance of every
    /// participant instance, externalized after one forced log write.
    Phase2b {
        /// The transaction.
        txn: TxnId,
        /// The ballot the values were accepted at.
        ballot: u64,
        /// Accepted value per participant instance.
        instances: Vec<(SiteId, bool)>,
    },
    /// Leader → acceptor: every participant acknowledged the decision;
    /// the acceptor may forget the transaction.
    PaxosForget {
        /// The transaction.
        txn: TxnId,
    },
}

impl Payload {
    /// The transaction this payload concerns.
    #[must_use]
    pub fn txn(&self) -> TxnId {
        match *self {
            Payload::Prepare { txn }
            | Payload::Vote { txn, .. }
            | Payload::Decision { txn, .. }
            | Payload::Ack { txn }
            | Payload::Inquiry { txn, .. }
            | Payload::InquiryResponse { txn, .. } => txn,
            Payload::PaxosBegin { txn, .. }
            | Payload::Phase1a { txn, .. }
            | Payload::Phase1b { txn, .. }
            | Payload::Phase2a { txn, .. }
            | Payload::Phase2b { txn, .. }
            | Payload::PaxosForget { txn } => txn,
        }
    }

    /// Short tag used by trace output and cost accounting.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Payload::Prepare { .. } => "prepare",
            Payload::Vote { .. } => "vote",
            Payload::Decision { .. } => "decision",
            Payload::Ack { .. } => "ack",
            Payload::Inquiry { .. } => "inquiry",
            Payload::InquiryResponse { .. } => "inquiry-response",
            Payload::PaxosBegin { .. } => "paxos-begin",
            Payload::Phase1a { .. } => "phase1a",
            Payload::Phase1b { .. } => "phase1b",
            Payload::Phase2a { .. } => "phase2a",
            Payload::Phase2b { .. } => "phase2b",
            Payload::PaxosForget { .. } => "paxos-forget",
        }
    }

    /// Is this one of the Paxos Commit message kinds (as opposed to the
    /// classic 2PC vocabulary shared by the presumption protocols)?
    #[must_use]
    pub fn is_paxos(&self) -> bool {
        matches!(
            self,
            Payload::PaxosBegin { .. }
                | Payload::Phase1a { .. }
                | Payload::Phase1b { .. }
                | Payload::Phase2a { .. }
                | Payload::Phase2b { .. }
                | Payload::PaxosForget { .. }
        )
    }
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Prepare { txn } => write!(f, "prepare({txn})"),
            Payload::Vote { txn, vote } => write!(f, "vote({txn}, {vote})"),
            Payload::Decision { txn, outcome } => write!(f, "decision({txn}, {outcome})"),
            Payload::Ack { txn } => write!(f, "ack({txn})"),
            Payload::Inquiry { txn, protocol } => write!(f, "inquiry({txn}, {protocol})"),
            Payload::InquiryResponse { txn, outcome } => {
                write!(f, "inquiry-response({txn}, {outcome})")
            }
            Payload::PaxosBegin { txn, participants } => {
                write!(f, "paxos-begin({txn}, {} instances)", participants.len())
            }
            Payload::Phase1a { txn, ballot } => write!(f, "phase1a({txn}, b{ballot})"),
            Payload::Phase1b {
                txn,
                ballot,
                forgotten,
                accepted,
                ..
            } => {
                if *forgotten {
                    write!(f, "phase1b({txn}, b{ballot}, forgotten)")
                } else {
                    write!(f, "phase1b({txn}, b{ballot}, {} accepted)", accepted.len())
                }
            }
            Payload::Phase2a {
                txn,
                ballot,
                instances,
            } => write!(
                f,
                "phase2a({txn}, b{ballot}, {} instances)",
                instances.len()
            ),
            Payload::Phase2b {
                txn,
                ballot,
                instances,
            } => write!(
                f,
                "phase2b({txn}, b{ballot}, {} instances)",
                instances.len()
            ),
            Payload::PaxosForget { txn } => write!(f, "paxos-forget({txn})"),
        }
    }
}

/// An addressed coordination message.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Message {
    /// Sending site.
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
    /// What is being said.
    pub payload: Payload,
}

impl Message {
    /// Construct a message.
    pub fn new(from: SiteId, to: SiteId, payload: Payload) -> Self {
        Message { from, to, payload }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}: {}", self.from, self.to, self.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_txn_extraction() {
        let t = TxnId::new(9);
        let payloads = [
            Payload::Prepare { txn: t },
            Payload::Vote {
                txn: t,
                vote: Vote::Yes,
            },
            Payload::Decision {
                txn: t,
                outcome: Outcome::Commit,
            },
            Payload::Ack { txn: t },
            Payload::Inquiry {
                txn: t,
                protocol: ProtocolKind::PrC,
            },
            Payload::InquiryResponse {
                txn: t,
                outcome: Outcome::Abort,
            },
        ];
        for p in payloads {
            assert_eq!(p.txn(), t, "{p}");
        }
    }

    #[test]
    fn message_display_is_readable() {
        let m = Message::new(
            SiteId::new(0),
            SiteId::new(2),
            Payload::Decision {
                txn: TxnId::new(5),
                outcome: Outcome::Abort,
            },
        );
        assert_eq!(m.to_string(), "S0 -> S2: decision(T5, abort)");
    }

    #[test]
    fn kind_names_are_distinct() {
        use std::collections::HashSet;
        let t = TxnId::new(1);
        let payloads = [
            Payload::Prepare { txn: t },
            Payload::Vote {
                txn: t,
                vote: Vote::No,
            },
            Payload::Decision {
                txn: t,
                outcome: Outcome::Commit,
            },
            Payload::Ack { txn: t },
            Payload::Inquiry {
                txn: t,
                protocol: ProtocolKind::PrA,
            },
            Payload::InquiryResponse {
                txn: t,
                outcome: Outcome::Commit,
            },
        ];
        let names: HashSet<_> = payloads.iter().map(|p| p.kind_name()).collect();
        assert_eq!(names.len(), payloads.len());
    }
}
