//! Log record payloads.
//!
//! One shared enum covers coordinator protocol records, participant
//! protocol records and storage-engine data records, so a single WAL per
//! site carries everything — exactly as the paper assumes ("recording
//! the progress of the protocol in the logs of the coordinator and the
//! participants", Appendix).

use crate::ids::{SiteId, TxnId};
use crate::protocol::{CommitMode, Outcome, ProtocolKind};
use std::fmt;

/// One participant's entry in a PrC/PrAny initiation record.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ParticipantEntry {
    /// The participant site.
    pub site: SiteId,
    /// The 2PC variant that participant implements (recorded so §4.2
    /// recovery can reconstruct who must be re-notified and who must
    /// not be).
    pub protocol: ProtocolKind,
}

impl ParticipantEntry {
    /// Construct an entry.
    pub fn new(site: SiteId, protocol: ProtocolKind) -> Self {
        ParticipantEntry { site, protocol }
    }
}

impl fmt::Display for ParticipantEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.site, self.protocol)
    }
}

/// A sentinel transaction id carried by records that belong to no
/// transaction (checkpoints).
pub const NO_TXN: TxnId = TxnId(u64::MAX);

/// The payload of a write-ahead-log record.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum LogPayload {
    // ----- coordinator-side protocol records -----
    /// Forced initiation (a.k.a. *collecting*) record written by PrC and
    /// PrAny coordinators before the voting phase. For PrAny it includes
    /// the protocol used by each participant (§4.1).
    Initiation {
        /// The transaction.
        txn: TxnId,
        /// Participants and their protocols.
        participants: Vec<ParticipantEntry>,
        /// The commit mode selected for this transaction.
        mode: CommitMode,
    },
    /// Coordinator decision record (commit decisions are always forced;
    /// whether one is written at all depends on the protocol — see
    /// [`ProtocolKind::coordinator_decision_force`]).
    ///
    /// For protocols without an initiation record (PrN, PrA) the decision
    /// record carries the participant list, since it is the only stable
    /// record from which recovery can re-initiate the decision phase
    /// (as in Bernstein/Hadzilacos/Goodman's formulation of basic 2PC).
    /// PrC/PrAny leave it empty — their initiation record has the list.
    CoordDecision {
        /// The transaction.
        txn: TxnId,
        /// The decision.
        outcome: Outcome,
        /// Participants (with protocols), when no initiation record exists.
        participants: Vec<ParticipantEntry>,
    },
    /// Non-forced end record: all expected acknowledgments arrived; the
    /// transaction's records may be garbage collected.
    End {
        /// The transaction.
        txn: TxnId,
    },
    /// Forced Paxos-Commit acceptor record: one acceptor's accepted
    /// value for *every* participant instance of a transaction, written
    /// with a single force (Gray & Lamport's bundling — one synchronous
    /// write per acceptor per transaction, not one per instance). An
    /// empty instance list records a bare phase-1 promise: the acceptor
    /// must remember the ballot across a crash so it never accepts a
    /// proposal from a superseded leader.
    PaxosAccept {
        /// The transaction.
        txn: TxnId,
        /// The ballot the values were accepted (or promised) at.
        ballot: u64,
        /// Accepted value per participant instance (`true` = Prepared);
        /// empty for a promise-only record.
        instances: Vec<(SiteId, bool)>,
    },

    // ----- participant-side protocol records -----
    /// Forced prepared record written before voting "Yes".
    Prepared {
        /// The transaction.
        txn: TxnId,
        /// The transaction's coordinator (needed to direct recovery
        /// inquiries).
        coordinator: SiteId,
    },
    /// Participant decision record (forced exactly when the protocol
    /// acknowledges that outcome).
    PartDecision {
        /// The transaction.
        txn: TxnId,
        /// The enforced decision.
        outcome: Outcome,
    },
    /// Non-forced participant end record enabling local GC.
    PartEnd {
        /// The transaction.
        txn: TxnId,
    },

    // ----- storage-engine data records -----
    /// A checkpoint: a full snapshot of the committed store at the time
    /// it was written. Recovery loads the latest checkpoint and redoes
    /// only the log suffix after it; everything before it (except the
    /// update records of transactions still live at checkpoint time)
    /// becomes reclaimable.
    Checkpoint {
        /// Committed key-value pairs at checkpoint time.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// A data update with before/after images (undo/redo information).
    /// `None` images encode absence: `before: None` is an insert,
    /// `after: None` is a delete.
    Update {
        /// Transaction performing the update.
        txn: TxnId,
        /// The key.
        key: Vec<u8>,
        /// Before image (undo information).
        before: Option<Vec<u8>>,
        /// After image (redo information).
        after: Option<Vec<u8>>,
    },
}

impl LogPayload {
    /// The transaction this record concerns.
    #[must_use]
    pub fn txn(&self) -> TxnId {
        match *self {
            LogPayload::Initiation { txn, .. }
            | LogPayload::CoordDecision { txn, .. }
            | LogPayload::End { txn }
            | LogPayload::PaxosAccept { txn, .. }
            | LogPayload::Prepared { txn, .. }
            | LogPayload::PartDecision { txn, .. }
            | LogPayload::PartEnd { txn }
            | LogPayload::Update { txn, .. } => txn,
            LogPayload::Checkpoint { .. } => NO_TXN,
        }
    }

    /// Short tag used by trace output and cost accounting.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            LogPayload::Initiation { .. } => "initiation",
            LogPayload::CoordDecision {
                outcome: Outcome::Commit,
                ..
            } => "commit",
            LogPayload::CoordDecision {
                outcome: Outcome::Abort,
                ..
            } => "abort",
            LogPayload::End { .. } => "end",
            LogPayload::PaxosAccept { .. } => "paxos-accept",
            LogPayload::Prepared { .. } => "prepared",
            LogPayload::PartDecision {
                outcome: Outcome::Commit,
                ..
            } => "part-commit",
            LogPayload::PartDecision {
                outcome: Outcome::Abort,
                ..
            } => "part-abort",
            LogPayload::PartEnd { .. } => "part-end",
            LogPayload::Checkpoint { .. } => "checkpoint",
            LogPayload::Update { .. } => "update",
        }
    }

    /// Is this a protocol record (as opposed to an engine data record)?
    #[must_use]
    pub fn is_protocol_record(&self) -> bool {
        !matches!(
            self,
            LogPayload::Update { .. } | LogPayload::Checkpoint { .. }
        )
    }
}

impl fmt::Display for LogPayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogPayload::Initiation {
                txn,
                participants,
                mode,
            } => {
                write!(f, "initiation({txn}, {mode}, [")?;
                for (i, p) in participants.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "])")
            }
            LogPayload::CoordDecision { txn, outcome, .. } => {
                write!(f, "decision({txn}, {outcome})")
            }
            LogPayload::End { txn } => write!(f, "end({txn})"),
            LogPayload::PaxosAccept {
                txn,
                ballot,
                instances,
            } => {
                if instances.is_empty() {
                    write!(f, "paxos-promise({txn}, b{ballot})")
                } else {
                    write!(
                        f,
                        "paxos-accept({txn}, b{ballot}, {} instances)",
                        instances.len()
                    )
                }
            }
            LogPayload::Prepared { txn, coordinator } => {
                write!(f, "prepared({txn}, coord={coordinator})")
            }
            LogPayload::PartDecision { txn, outcome } => {
                write!(f, "part-decision({txn}, {outcome})")
            }
            LogPayload::PartEnd { txn } => write!(f, "part-end({txn})"),
            LogPayload::Checkpoint { entries } => {
                write!(f, "checkpoint({} entries)", entries.len())
            }
            LogPayload::Update { txn, key, .. } => {
                write!(f, "update({txn}, key={} bytes)", key.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<LogPayload> {
        let t = TxnId::new(3);
        vec![
            LogPayload::Initiation {
                txn: t,
                participants: vec![
                    ParticipantEntry::new(SiteId::new(1), ProtocolKind::PrA),
                    ParticipantEntry::new(SiteId::new(2), ProtocolKind::PrC),
                ],
                mode: CommitMode::PrAny,
            },
            LogPayload::CoordDecision {
                txn: t,
                outcome: Outcome::Commit,
                participants: vec![],
            },
            LogPayload::End { txn: t },
            LogPayload::Prepared {
                txn: t,
                coordinator: SiteId::new(0),
            },
            LogPayload::PartDecision {
                txn: t,
                outcome: Outcome::Abort,
            },
            LogPayload::PartEnd { txn: t },
            LogPayload::Update {
                txn: t,
                key: b"k".to_vec(),
                before: None,
                after: Some(b"v".to_vec()),
            },
        ]
    }

    #[test]
    fn txn_extraction_covers_all_variants() {
        for r in sample_records() {
            assert_eq!(r.txn(), TxnId::new(3), "{r}");
        }
    }

    #[test]
    fn protocol_vs_data_records() {
        let rs = sample_records();
        assert!(rs[..6].iter().all(LogPayload::is_protocol_record));
        assert!(!rs[6].is_protocol_record());
    }

    #[test]
    fn initiation_display_lists_protocols() {
        let r = &sample_records()[0];
        let s = r.to_string();
        assert!(s.contains("S1:PrA"), "{s}");
        assert!(s.contains("S2:PrC"), "{s}");
        assert!(s.contains("PrAny"), "{s}");
    }

    #[test]
    fn decision_kind_names_distinguish_outcomes() {
        let t = TxnId::new(1);
        assert_eq!(
            LogPayload::CoordDecision {
                txn: t,
                outcome: Outcome::Commit,
                participants: vec![]
            }
            .kind_name(),
            "commit"
        );
        assert_eq!(
            LogPayload::CoordDecision {
                txn: t,
                outcome: Outcome::Abort,
                participants: vec![]
            }
            .kind_name(),
            "abort"
        );
    }
}
