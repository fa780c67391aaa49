//! Log analysis: per-transaction summaries of what a log records.
//!
//! §4.2 defines coordinator recovery entirely in terms of which records
//! a transaction has ("For each transaction that has a decision log
//! record without an initiation record …"); participant and engine
//! recovery need the same view. [`analyze`] builds it in one pass.

use crate::error::WalError;
use crate::record::LogRecord;
use crate::StableLog;
use acp_types::{CommitMode, LogPayload, Outcome, ParticipantEntry, SiteId, TxnId};
use std::collections::BTreeMap;

/// A data update image: `(key, before, after)`.
pub type UpdateImage = (Vec<u8>, Option<Vec<u8>>, Option<Vec<u8>>);

/// Everything one log says about one transaction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TxnLogSummary {
    // ----- coordinator-side records -----
    /// The initiation record, if any (PrC / PrAny coordinators).
    pub initiation: Option<(CommitMode, Vec<ParticipantEntry>)>,
    /// The coordinator decision record, if any.
    pub decision: Option<Outcome>,
    /// Participants recorded in the decision record (PrN/PrA style,
    /// where no initiation record exists).
    pub decision_participants: Vec<ParticipantEntry>,
    /// Whether a coordinator end record exists.
    pub ended: bool,

    // ----- participant-side records -----
    /// The prepared record, if any, with the coordinator to inquire at.
    pub prepared: Option<SiteId>,
    /// The participant decision record, if any.
    pub part_decision: Option<Outcome>,
    /// Whether a participant end record exists.
    pub part_ended: bool,

    // ----- Paxos acceptor records -----
    /// Paxos-Commit acceptances in log order: `(ballot, instances)`.
    /// An empty instance list is a promise-only record. The latest
    /// entry carries the acceptor's current promise/acceptance state.
    pub paxos_accepts: Vec<(u64, Vec<(SiteId, bool)>)>,

    // ----- engine data records -----
    /// Data updates in log order (for redo/undo).
    pub updates: Vec<UpdateImage>,
}

impl TxnLogSummary {
    /// Is this transaction *in doubt* at a participant: prepared but with
    /// no decision on record? Such transactions must hold their locks
    /// and inquire at the coordinator.
    #[must_use]
    pub fn in_doubt(&self) -> bool {
        self.prepared.is_some() && self.part_decision.is_none() && !self.part_ended
    }

    /// Does the coordinator still owe this transaction recovery work
    /// (some protocol record exists but no end record)?
    #[must_use]
    pub fn coordinator_open(&self) -> bool {
        (self.initiation.is_some() || self.decision.is_some()) && !self.ended
    }
}

/// Build per-transaction summaries from a scanned log.
///
/// Returns a `BTreeMap` so iteration order is deterministic (important
/// for the reproducible simulator and the model checker).
#[must_use]
pub fn analyze(records: &[LogRecord]) -> BTreeMap<TxnId, TxnLogSummary> {
    let mut map = BTreeMap::new();
    records.iter().for_each(|rec| note(&mut map, rec));
    map
}

/// [`analyze`] over a log's durable records, read in place through
/// [`StableLog::for_each_record`] — what recovery uses, so a restart
/// does not clone the log to classify it.
pub fn analyze_log<L: StableLog + ?Sized>(
    log: &L,
) -> Result<BTreeMap<TxnId, TxnLogSummary>, WalError> {
    let mut map = BTreeMap::new();
    log.for_each_record(&mut |rec| note(&mut map, rec))?;
    Ok(map)
}

fn note(map: &mut BTreeMap<TxnId, TxnLogSummary>, rec: &LogRecord) {
    if matches!(rec.payload, LogPayload::Checkpoint { .. }) {
        return;
    }
    let entry = map.entry(rec.payload.txn()).or_default();
    match &rec.payload {
        LogPayload::Initiation {
            participants, mode, ..
        } => {
            entry.initiation = Some((*mode, participants.clone()));
        }
        LogPayload::CoordDecision {
            outcome,
            participants,
            ..
        } => {
            entry.decision = Some(*outcome);
            entry.decision_participants = participants.clone();
        }
        LogPayload::End { .. } => entry.ended = true,
        LogPayload::PaxosAccept {
            ballot, instances, ..
        } => entry.paxos_accepts.push((*ballot, instances.clone())),
        LogPayload::Prepared { coordinator, .. } => entry.prepared = Some(*coordinator),
        LogPayload::PartDecision { outcome, .. } => entry.part_decision = Some(*outcome),
        LogPayload::PartEnd { .. } => entry.part_ended = true,
        LogPayload::Update {
            key, before, after, ..
        } => {
            entry
                .updates
                .push((key.clone(), before.clone(), after.clone()));
        }
        LogPayload::Checkpoint { .. } => unreachable!("filtered above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Lsn;
    use acp_types::ProtocolKind;

    fn rec(lsn: u64, payload: LogPayload) -> LogRecord {
        LogRecord {
            lsn: Lsn(lsn),
            forced: true,
            payload,
        }
    }

    #[test]
    fn coordinator_summary() {
        let t = TxnId::new(1);
        let recs = vec![
            rec(
                0,
                LogPayload::Initiation {
                    txn: t,
                    participants: vec![ParticipantEntry::new(SiteId::new(1), ProtocolKind::PrA)],
                    mode: CommitMode::PrAny,
                },
            ),
            rec(
                1,
                LogPayload::CoordDecision {
                    txn: t,
                    outcome: Outcome::Commit,
                    participants: vec![],
                },
            ),
        ];
        let m = analyze(&recs);
        let s = &m[&t];
        assert!(s.coordinator_open());
        assert_eq!(s.decision, Some(Outcome::Commit));
        let (mode, parts) = s.initiation.as_ref().unwrap();
        assert_eq!(*mode, CommitMode::PrAny);
        assert_eq!(parts.len(), 1);

        // Adding an end record closes it.
        let mut recs = recs;
        recs.push(rec(2, LogPayload::End { txn: t }));
        assert!(!analyze(&recs)[&t].coordinator_open());
    }

    #[test]
    fn participant_in_doubt_detection() {
        let t = TxnId::new(2);
        let prepared = rec(
            0,
            LogPayload::Prepared {
                txn: t,
                coordinator: SiteId::new(0),
            },
        );
        let m = analyze(std::slice::from_ref(&prepared));
        assert!(m[&t].in_doubt());

        let decided = rec(
            1,
            LogPayload::PartDecision {
                txn: t,
                outcome: Outcome::Abort,
            },
        );
        let m = analyze(&[prepared, decided]);
        assert!(!m[&t].in_doubt());
        assert_eq!(m[&t].part_decision, Some(Outcome::Abort));
    }

    #[test]
    fn updates_kept_in_log_order() {
        let t = TxnId::new(3);
        let recs = vec![
            rec(
                0,
                LogPayload::Update {
                    txn: t,
                    key: b"a".to_vec(),
                    before: None,
                    after: Some(b"1".to_vec()),
                },
            ),
            rec(
                1,
                LogPayload::Update {
                    txn: t,
                    key: b"b".to_vec(),
                    before: Some(b"1".to_vec()),
                    after: None,
                },
            ),
        ];
        let m = analyze(&recs);
        let ups = &m[&t].updates;
        assert_eq!(ups.len(), 2);
        assert_eq!(ups[0].0, b"a");
        assert_eq!(ups[1].0, b"b");
    }

    #[test]
    fn multiple_transactions_separated() {
        let recs = vec![
            rec(0, LogPayload::End { txn: TxnId::new(1) }),
            rec(
                1,
                LogPayload::Prepared {
                    txn: TxnId::new(2),
                    coordinator: SiteId::new(0),
                },
            ),
        ];
        let m = analyze(&recs);
        assert_eq!(m.len(), 2);
        assert!(m[&TxnId::new(1)].ended);
        assert!(m[&TxnId::new(2)].in_doubt());
    }

    #[test]
    fn empty_log_analyzes_empty() {
        assert!(analyze(&[]).is_empty());
    }
}
