//! §4.2 — coordinator recovery.
//!
//! > "After a failure, at the beginning of its recovery procedure, the
//! > coordinator re-builds its protocol table by analyzing its stable
//! > log."
//!
//! The analysis classifies each transaction by which records it has:
//!
//! * **decision record, no initiation record** → PrN or PrA was used;
//!   without an end record, re-initiate the decision phase with the
//!   recorded decision. (PrA only ever logs commits, so its recovered
//!   decisions are always commit — footnote 4.)
//! * **initiation record, mode PrC** → no commit/end record means the
//!   transaction must abort (the PrC presumption would otherwise
//!   misread the missing information as commit); a commit record means
//!   the participants commit by presumption and nothing is re-sent.
//! * **initiation record, mode PrAny** → only an initiation record:
//!   abort, re-notifying the PrN and PrC participants but *not* the PrA
//!   participants; initiation + commit records: commit, re-notifying the
//!   PrN and PrA participants but not the PrC participants.
//!
//! In every re-notification case the coordinator then waits for the
//! same acknowledgment set as during normal processing, writes the end
//! record, and forgets.

use crate::action::{Action, TimerPurpose};
use crate::coordinator::plan::CommitPlan;
use crate::coordinator::{Coordinator, Phase, TxnState};
use acp_acta::ActaEvent;
use acp_types::{
    CommitMode, CoordinatorKind, LogPayload, Outcome, ParticipantEntry, Payload, TxnId,
};
use acp_wal::scan::TxnLogSummary;
use acp_wal::StableLog;

impl<L: StableLog> Coordinator<L> {
    /// Run the §4.2 recovery procedure: analyze the stable log, rebuild
    /// the protocol table, re-send decisions where acknowledgments are
    /// still owed and answer future inquiries from the rebuilt state.
    pub fn recover(&mut self) -> Vec<Action> {
        let mut out = Vec::new();
        self.recover_into(&mut out);
        out
    }

    /// [`Coordinator::recover`], appending the actions to `out`.
    pub fn recover_into(&mut self, out: &mut Vec<Action>) {
        self.gc = acp_wal::GcTracker::from_log(&self.log).expect("records");
        let summaries = acp_wal::scan::analyze_log(&self.log).expect("records");

        for (txn, summary) in summaries {
            if summary.ended || !summary.coordinator_open() {
                continue;
            }
            self.recover_txn(txn, summary, out);
        }
    }

    fn recover_txn(&mut self, txn: TxnId, summary: TxnLogSummary, out: &mut Vec<Action>) {
        let (participants, plan, outcome) = match summary.initiation {
            Some((mode, participants)) => {
                let plan = self.plan_for_mode(mode, &participants);
                // Initiation without a commit record ⇒ either no decision
                // was made before the failure or abort was decided; both
                // resolve to abort. A commit record fixes commit.
                let outcome = match summary.decision {
                    Some(o) => o,
                    None => Outcome::Abort,
                };
                (participants, plan, outcome)
            }
            None => {
                // Decision record without initiation: PrN/PrA (or a
                // C2PC coordinator over such a base). The participant
                // list was recorded in the decision record.
                let participants = summary.decision_participants;
                let plan = CommitPlan::derive(self.kind, &participants);
                let outcome = summary
                    .decision
                    .expect("coordinator_open without initiation");
                (participants, plan, outcome)
            }
        };

        // Re-initiating the decision phase is a (re-)decision for the
        // history; the atomicity checker verifies it repeats the
        // original outcome.
        out.push(Action::Acta(ActaEvent::Decide {
            coordinator: self.site,
            txn,
            outcome,
        }));

        // Who is re-notified = exactly who still owes an acknowledgment
        // (footnote 4: PrA participants are not re-sent aborts, PrC
        // participants are not re-sent commits).
        let phase = Phase::Deciding {
            outcome,
            resends: 0,
        };
        let mut state = TxnState::new(participants, Vec::new(), plan, phase, true);
        if !state.await_acks(outcome) {
            // Nothing owed (e.g. a committed PrC transaction): close out
            // with an end record so the log can be garbage collected.
            self.append(txn, &LogPayload::End { txn }, false, out)
                .expect("coordinator log append");
            out.push(Action::Acta(ActaEvent::DeletePt {
                coordinator: self.site,
                txn,
            }));
            self.auto_collect(out);
            return;
        }

        for to in state.awaited() {
            out.push(Action::send(to, Payload::Decision { txn, outcome }));
        }
        self.table.insert(txn, state);
        self.arm_timer(txn, TimerPurpose::AckResend, 0, out);
    }

    /// Reconstruct the plan for a recovered transaction. For a PrAny
    /// coordinator the mode comes from the initiation record (§4.2:
    /// "depending on the identities of the participants recorded in the
    /// initiation record and the protocols that they use, the
    /// coordinator determines which of the two protocols was used");
    /// other kinds re-derive their fixed plan.
    fn plan_for_mode(&self, mode: CommitMode, participants: &[ParticipantEntry]) -> CommitPlan {
        match self.kind {
            CoordinatorKind::PrAny(_) => {
                let derived = CommitPlan::derive(self.kind, participants);
                debug_assert_eq!(
                    derived.mode, mode,
                    "initiation record mode disagrees with re-selection"
                );
                derived
            }
            _ => CommitPlan::derive(self.kind, participants),
        }
    }
}
