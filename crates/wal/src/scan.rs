//! Log analysis: per-transaction summaries of what a log records.
//!
//! §4.2 defines coordinator recovery entirely in terms of which records
//! a transaction has ("For each transaction that has a decision log
//! record without an initiation record …"); participant and engine
//! recovery need the same view. [`analyze_log`] builds it, and the
//! log's [`GcTracker`], in the one read of a log a restart makes.

use crate::error::WalError;
use crate::gc::GcTracker;
use crate::record::{LogRecord, Lsn};
use crate::StableLog;
use acp_types::{CommitMode, LogPayload, Outcome, ParticipantEntry, SiteId, TxnId};
use std::collections::BTreeMap;

/// A data update image: `(key, before, after)`.
pub type UpdateImage = (Vec<u8>, Option<Vec<u8>>, Option<Vec<u8>>);

/// A log's summaries, one per transaction, in transaction order (a
/// `BTreeMap`, so iteration is deterministic — important for the
/// reproducible simulator and the model checker).
pub type Summaries = BTreeMap<TxnId, TxnLogSummary>;

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
    /// The first participant decision record, if any, and its LSN: a
    /// storage engine redoes committed write sets in decision order.
    pub part_decision: Option<(Outcome, Lsn)>,
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

/// Build per-transaction summaries from records already read, copying
/// what they hold (benchmark probes and tests; a restart reads its log
/// with [`analyze_log`]).
#[must_use]
pub fn analyze(records: &[LogRecord]) -> Summaries {
    let mut map = BTreeMap::new();
    records.iter().for_each(|rec| note(&mut map, rec.clone()));
    map
}

/// The one read of a log on restart: the summaries and the log's
/// [`GcTracker`], built in one pass over its durable records. Each
/// record is decoded once and its images, participant list and Paxos
/// instances move into its summary.
pub fn analyze_log<L: StableLog + ?Sized>(log: &L) -> Result<(Summaries, GcTracker), WalError> {
    let (mut map, mut gc) = (BTreeMap::new(), GcTracker::new());
    for rec in log.records()? {
        gc.note(rec.lsn, &rec.payload);
        note(&mut map, rec);
    }
    Ok((map, gc))
}

fn note(map: &mut Summaries, rec: LogRecord) {
    if matches!(rec.payload, LogPayload::Checkpoint { .. }) {
        return;
    }
    let entry = map.entry(rec.payload.txn()).or_default();
    match rec.payload {
        LogPayload::Initiation {
            participants, mode, ..
        } => entry.initiation = Some((mode, participants)),
        LogPayload::CoordDecision {
            outcome,
            participants,
            ..
        } => {
            entry.decision = Some(outcome);
            entry.decision_participants = participants;
        }
        LogPayload::End { .. } => entry.ended = true,
        LogPayload::PaxosAccept {
            ballot, instances, ..
        } => entry.paxos_accepts.push((ballot, instances)),
        LogPayload::Prepared { coordinator, .. } => entry.prepared = Some(coordinator),
        LogPayload::PartDecision { outcome, .. } => {
            entry.part_decision.get_or_insert((outcome, rec.lsn));
        }
        LogPayload::PartEnd { .. } => entry.part_ended = true,
        LogPayload::Update {
            key, before, after, ..
        } => entry.updates.push((key, before, after)),
        LogPayload::Checkpoint { .. } => unreachable!("filtered above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultyLog;
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
        assert_eq!(m[&t].part_decision, Some((Outcome::Abort, Lsn(1))));
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

    /// The restart's one read agrees with the borrowing analysis and
    /// with a tracker rebuilt on its own, and keeps the first decision's
    /// LSN.
    #[test]
    fn analyze_log_is_analyze_and_the_tracker_in_one_pass() {
        let (t1, t2) = (TxnId::new(1), TxnId::new(2));
        let coordinator = SiteId::new(0);
        let mut log = FaultyLog::new();
        for payload in [
            LogPayload::Prepared {
                txn: t1,
                coordinator,
            },
            LogPayload::Prepared {
                txn: t2,
                coordinator,
            },
            LogPayload::PartDecision {
                txn: t2,
                outcome: Outcome::Commit,
            },
            LogPayload::PartDecision {
                txn: t2,
                outcome: Outcome::Commit,
            },
            LogPayload::PartEnd { txn: t2 },
        ] {
            log.append(payload, true).unwrap();
        }
        let (summaries, gc) = analyze_log(&log).unwrap();
        assert_eq!(summaries, analyze(&log.records().unwrap()));
        assert_eq!(
            summaries[&t2].part_decision,
            Some((Outcome::Commit, Lsn(2)))
        );
        let rebuilt = GcTracker::from_log(&log).unwrap();
        assert_eq!(
            (gc.pinned(), gc.releasable()),
            (rebuilt.pinned(), rebuilt.releasable())
        );
        assert_eq!(gc.pinned(), vec![t1]);
    }

    #[test]
    fn empty_log_analyzes_empty() {
        assert!(analyze(&[]).is_empty());
    }
}
