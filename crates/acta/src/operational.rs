//! Operational correctness: Definition 1 of the paper.
//!
//! > The integration of different ACPs is operationally correct if and
//! > only if
//! > 1. the coordinator and all the participants reach consistent
//! >    decisions regarding the outcome of transactions and regardless
//! >    of failures;
//! > 2. the coordinator can, eventually, discard all the information
//! >    pertaining to terminated transactions from its protocol table
//! >    and garbage collect its log;
//! > 3. all participants can, eventually, forget about transactions and
//! >    garbage collect their logs.
//!
//! Requirement 1 is [`crate::atomicity::check_atomicity`]. Requirements
//! 2 and 3 are liveness properties; they are checked against the *final
//! state* of a run that was given enough quiet time to finish: anything
//! still pinned then would be pinned forever (C2PC's defect, Theorem 2).

use crate::atomicity::{check_atomicity, AtomicityViolation};
use crate::event::ActaEvent;
use crate::history::History;
use acp_types::{SiteId, TxnId};
use std::collections::BTreeSet;
use std::fmt;

/// The end-of-run garbage-collection state of every site.
#[derive(Clone, Debug, Default)]
pub struct FinalState {
    /// Transactions still in some coordinator's protocol table, with the
    /// coordinator.
    pub protocol_table: Vec<(SiteId, TxnId)>,
    /// Transactions still pinning some site's log (records not yet
    /// garbage-collectable), with the site.
    pub log_pinned: Vec<(SiteId, TxnId)>,
}

/// How operational correctness failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OperationalViolation {
    /// Requirement 1 failed.
    Atomicity(AtomicityViolation),
    /// Requirement 2 failed: a terminated transaction is still in the
    /// coordinator's protocol table.
    ProtocolTableRetained {
        /// The coordinator.
        site: SiteId,
        /// The transaction.
        txn: TxnId,
    },
    /// Requirements 2/3 failed: a terminated transaction still pins a
    /// site's log.
    LogRetained {
        /// The site.
        site: SiteId,
        /// The transaction.
        txn: TxnId,
    },
    /// Requirement 3 failed: a participant enforced a decision but never
    /// reached its forget point.
    ParticipantNeverForgot {
        /// The participant.
        site: SiteId,
        /// The transaction.
        txn: TxnId,
    },
}

impl fmt::Display for OperationalViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OperationalViolation::Atomicity(v) => write!(f, "{v}"),
            OperationalViolation::ProtocolTableRetained { site, txn } => {
                write!(
                    f,
                    "{txn} still in protocol table of {site} after quiescence"
                )
            }
            OperationalViolation::LogRetained { site, txn } => {
                write!(f, "{txn} still pins the log of {site} after quiescence")
            }
            OperationalViolation::ParticipantNeverForgot { site, txn } => {
                write!(f, "participant {site} enforced {txn} but never forgot it")
            }
        }
    }
}

/// Check Definition 1 over a quiesced run.
///
/// `terminated` lists the transactions for which the coordinator reached
/// a decision — only those are required to be forgettable (a transaction
/// still mid-flight when the run was cut off owes nobody anything).
#[must_use]
pub fn check_operational(history: &History, final_state: &FinalState) -> Vec<OperationalViolation> {
    let mut violations: Vec<OperationalViolation> = check_atomicity(history)
        .into_iter()
        .map(OperationalViolation::Atomicity)
        .collect();

    // Terminated transactions: those with a Decide event.
    let mut terminated: BTreeSet<TxnId> = BTreeSet::new();
    for e in history.events() {
        if let ActaEvent::Decide { txn, .. } = e {
            terminated.insert(txn);
        }
    }

    // Requirement 2: protocol table must not retain terminated txns.
    for &(site, txn) in &final_state.protocol_table {
        if terminated.contains(&txn) {
            violations.push(OperationalViolation::ProtocolTableRetained { site, txn });
        }
    }

    // Requirements 2 & 3: logs must not be pinned by terminated txns.
    for &(site, txn) in &final_state.log_pinned {
        if terminated.contains(&txn) {
            violations.push(OperationalViolation::LogRetained { site, txn });
        }
    }

    // Requirement 3: every participant that enforced a terminated
    // transaction must have forgotten it.
    let mut enforced: BTreeSet<(SiteId, TxnId)> = BTreeSet::new();
    let mut forgotten: BTreeSet<(SiteId, TxnId)> = BTreeSet::new();
    for e in history.events() {
        match e {
            ActaEvent::Enforce {
                participant, txn, ..
            } => {
                enforced.insert((participant, txn));
            }
            ActaEvent::ForgetPart { participant, txn } => {
                forgotten.insert((participant, txn));
            }
            _ => {}
        }
    }
    for &(site, txn) in &enforced {
        if terminated.contains(&txn) && !forgotten.contains(&(site, txn)) {
            violations.push(OperationalViolation::ParticipantNeverForgot { site, txn });
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_types::Outcome;

    fn base_history() -> History {
        let c = SiteId::new(0);
        let p = SiteId::new(1);
        let t = TxnId::new(1);
        [
            ActaEvent::Prepared {
                participant: p,
                txn: t,
            },
            ActaEvent::Decide {
                coordinator: c,
                txn: t,
                outcome: Outcome::Commit,
            },
            ActaEvent::Enforce {
                participant: p,
                txn: t,
                outcome: Outcome::Commit,
            },
            ActaEvent::ForgetPart {
                participant: p,
                txn: t,
            },
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn clean_run_passes() {
        let v = check_operational(&base_history(), &FinalState::default());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn retained_protocol_table_entry_flagged() {
        let fs = FinalState {
            protocol_table: vec![(SiteId::new(0), TxnId::new(1))],
            log_pinned: vec![],
        };
        let v = check_operational(&base_history(), &fs);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            OperationalViolation::ProtocolTableRetained { .. }
        ));
    }

    #[test]
    fn pinned_log_flagged() {
        let fs = FinalState {
            protocol_table: vec![],
            log_pinned: vec![(SiteId::new(1), TxnId::new(1))],
        };
        let v = check_operational(&base_history(), &fs);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], OperationalViolation::LogRetained { .. }));
    }

    #[test]
    fn unterminated_transactions_may_linger() {
        // TxnId 9 never decided: retaining it is fine (it is not
        // "terminated" in the Definition 1 sense).
        let fs = FinalState {
            protocol_table: vec![(SiteId::new(0), TxnId::new(9))],
            log_pinned: vec![(SiteId::new(1), TxnId::new(9))],
        };
        assert!(check_operational(&base_history(), &fs).is_empty());
    }

    #[test]
    fn participant_that_never_forgets_flagged() {
        let c = SiteId::new(0);
        let p = SiteId::new(1);
        let t = TxnId::new(1);
        let h: History = [
            ActaEvent::Decide {
                coordinator: c,
                txn: t,
                outcome: Outcome::Abort,
            },
            ActaEvent::Enforce {
                participant: p,
                txn: t,
                outcome: Outcome::Abort,
            },
        ]
        .into_iter()
        .collect();
        let v = check_operational(&h, &FinalState::default());
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            OperationalViolation::ParticipantNeverForgot { .. }
        ));
    }

    #[test]
    fn atomicity_violations_propagate() {
        let h: History = [
            ActaEvent::Decide {
                coordinator: SiteId::new(0),
                txn: TxnId::new(1),
                outcome: Outcome::Commit,
            },
            ActaEvent::Enforce {
                participant: SiteId::new(1),
                txn: TxnId::new(1),
                outcome: Outcome::Abort,
            },
            ActaEvent::ForgetPart {
                participant: SiteId::new(1),
                txn: TxnId::new(1),
            },
        ]
        .into_iter()
        .collect();
        let v = check_operational(&h, &FinalState::default());
        assert!(v
            .iter()
            .any(|x| matches!(x, OperationalViolation::Atomicity(_))));
    }
}
