//! Functional correctness: global atomicity.
//!
//! "All sites participating in a transaction's execution agree on the
//! final outcome of the transaction" (§1). Violations are exactly what
//! Theorem 1 predicts for U2PC — and what must never appear for PrAny.

use crate::event::ActaEvent;
use crate::history::History;
use acp_types::{Outcome, SiteId, TxnId};
use std::collections::BTreeMap;
use std::fmt;

/// A detected atomicity violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AtomicityViolation {
    /// The transaction whose atomicity broke.
    pub txn: TxnId,
    /// Description of the inconsistency.
    pub detail: String,
}

impl fmt::Display for AtomicityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "atomicity violation for {}: {}", self.txn, self.detail)
    }
}

/// Check global atomicity over a complete history.
///
/// For every transaction:
/// 1. all `Enforce` events carry the same outcome (no participant
///    commits while another aborts);
/// 2. if the coordinator decided, every enforcement matches the
///    decision;
/// 3. every `Respond` is consistent with the decision (a presumption
///    answer that contradicts the decided outcome is the paper's §2
///    failure scenario — it will also show up as (1) or (2) once the
///    misinformed participant enforces, but we flag it at the source);
/// 4. at most one decision is made (a re-sent decision after recovery
///    must repeat the original, which is folded into this check).
#[must_use]
pub fn check_atomicity(history: &History) -> Vec<AtomicityViolation> {
    let mut violations = Vec::new();
    let mut decisions: BTreeMap<TxnId, Outcome> = BTreeMap::new();
    let mut enforcement: BTreeMap<TxnId, BTreeMap<SiteId, Outcome>> = BTreeMap::new();

    for e in history.events() {
        match &e {
            ActaEvent::Decide { txn, outcome, .. } => {
                if let Some(prev) = decisions.insert(*txn, *outcome) {
                    if prev != *outcome {
                        violations.push(AtomicityViolation {
                            txn: *txn,
                            detail: format!("coordinator decided {prev} then {outcome}"),
                        });
                    }
                }
            }
            ActaEvent::Enforce {
                participant,
                txn,
                outcome,
            } => {
                let per_site = enforcement.entry(*txn).or_default();
                if let Some(prev) = per_site.insert(*participant, *outcome) {
                    if prev != *outcome {
                        violations.push(AtomicityViolation {
                            txn: *txn,
                            detail: format!("{participant} enforced {prev} then {outcome}"),
                        });
                    }
                }
            }
            ActaEvent::Respond {
                txn,
                participant,
                outcome,
                ..
            } => {
                if let Some(&decided) = decisions.get(txn) {
                    if decided != *outcome {
                        violations.push(AtomicityViolation {
                            txn: *txn,
                            detail: format!(
                                "coordinator responded {outcome} to {participant} but decided {decided}"
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }

    // Cross-participant agreement and decision conformance.
    for (txn, per_site) in &enforcement {
        let mut outcomes: Vec<(SiteId, Outcome)> = per_site.iter().map(|(s, o)| (*s, *o)).collect();
        outcomes.sort_by_key(|(site, _)| *site);
        if let Some((first_site, first)) = outcomes.first().copied() {
            for &(site, o) in &outcomes[1..] {
                if o != first {
                    violations.push(AtomicityViolation {
                        txn: *txn,
                        detail: format!("{first_site} enforced {first} but {site} enforced {o}"),
                    });
                }
            }
            if let Some(&decided) = decisions.get(txn) {
                for &(site, o) in &outcomes {
                    if o != decided {
                        violations.push(AtomicityViolation {
                            txn: *txn,
                            detail: format!(
                                "coordinator decided {decided} but {site} enforced {o}"
                            ),
                        });
                    }
                }
            }
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c() -> SiteId {
        SiteId::new(0)
    }

    fn t() -> TxnId {
        TxnId::new(1)
    }

    #[test]
    fn consistent_commit_is_clean() {
        let h: History = [
            ActaEvent::Decide {
                coordinator: c(),
                txn: t(),
                outcome: Outcome::Commit,
            },
            ActaEvent::Enforce {
                participant: SiteId::new(1),
                txn: t(),
                outcome: Outcome::Commit,
            },
            ActaEvent::Enforce {
                participant: SiteId::new(2),
                txn: t(),
                outcome: Outcome::Commit,
            },
        ]
        .into_iter()
        .collect();
        assert!(check_atomicity(&h).is_empty());
    }

    #[test]
    fn split_brain_enforcement_detected() {
        let h: History = [
            ActaEvent::Enforce {
                participant: SiteId::new(1),
                txn: t(),
                outcome: Outcome::Commit,
            },
            ActaEvent::Enforce {
                participant: SiteId::new(2),
                txn: t(),
                outcome: Outcome::Abort,
            },
        ]
        .into_iter()
        .collect();
        let v = check_atomicity(&h);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("enforced"));
    }

    #[test]
    fn enforcement_against_decision_detected() {
        let h: History = [
            ActaEvent::Decide {
                coordinator: c(),
                txn: t(),
                outcome: Outcome::Abort,
            },
            ActaEvent::Enforce {
                participant: SiteId::new(1),
                txn: t(),
                outcome: Outcome::Commit,
            },
        ]
        .into_iter()
        .collect();
        let v = check_atomicity(&h);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("decided abort"));
    }

    #[test]
    fn wrong_presumption_response_detected() {
        // The §2 scenario: commit decided, PrC participant inquires after
        // the coordinator forgot, coordinator answers abort by (PrN/PrA)
        // presumption.
        let h: History = [
            ActaEvent::Decide {
                coordinator: c(),
                txn: t(),
                outcome: Outcome::Commit,
            },
            ActaEvent::Respond {
                coordinator: c(),
                txn: t(),
                participant: SiteId::new(2),
                outcome: Outcome::Abort,
                by_presumption: true,
            },
        ]
        .into_iter()
        .collect();
        let v = check_atomicity(&h);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("responded abort"));
    }

    #[test]
    fn flip_flop_decision_detected() {
        let h: History = [
            ActaEvent::Decide {
                coordinator: c(),
                txn: t(),
                outcome: Outcome::Commit,
            },
            ActaEvent::Decide {
                coordinator: c(),
                txn: t(),
                outcome: Outcome::Abort,
            },
        ]
        .into_iter()
        .collect();
        assert_eq!(check_atomicity(&h).len(), 1);
    }

    #[test]
    fn repeated_identical_decision_is_fine() {
        // Recovery re-initiates the decision phase with the recorded
        // decision (§4.2); same outcome twice is not a violation.
        let h: History = [
            ActaEvent::Decide {
                coordinator: c(),
                txn: t(),
                outcome: Outcome::Commit,
            },
            ActaEvent::Decide {
                coordinator: c(),
                txn: t(),
                outcome: Outcome::Commit,
            },
        ]
        .into_iter()
        .collect();
        assert!(check_atomicity(&h).is_empty());
    }

    #[test]
    fn independent_transactions_do_not_interfere() {
        let h: History = [
            ActaEvent::Decide {
                coordinator: c(),
                txn: TxnId::new(1),
                outcome: Outcome::Commit,
            },
            ActaEvent::Decide {
                coordinator: c(),
                txn: TxnId::new(2),
                outcome: Outcome::Abort,
            },
            ActaEvent::Enforce {
                participant: SiteId::new(1),
                txn: TxnId::new(1),
                outcome: Outcome::Commit,
            },
            ActaEvent::Enforce {
                participant: SiteId::new(1),
                txn: TxnId::new(2),
                outcome: Outcome::Abort,
            },
        ]
        .into_iter()
        .collect();
        assert!(check_atomicity(&h).is_empty());
    }
}
