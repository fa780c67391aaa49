//! The safe state: Definition 2 of the paper, executable.
//!
//! ```text
//! SafeState_C(T) ⇒
//!   ( Decide_C(Abort_T) ∈ H ∧
//!     ∀ ti ∈ T ((DeletePT_C(T) → INQ_ti) ⇒ Respond_C(Abort_ti) ∈ H) )
//!   ∨
//!   ( Decide_C(Commit_T) ∈ H ∧
//!     ∀ ti ∈ T ((DeletePT_C(T) → INQ_ti) ⇒ Respond_C(Commit_ti) ∈ H) )
//! ```
//!
//! In words: once the coordinator has forgotten a transaction (deleted
//! it from the protocol table), only a *single* presumption may remain
//! possible — the one matching the decided outcome. Every inquiry that
//! arrives after the forget must be answered with the decision.

use crate::event::ActaEvent;
use crate::history::History;
use acp_types::{SiteId, TxnId};
use std::fmt;

/// A violation of Definition 2.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SafeStateViolation {
    /// The transaction.
    pub txn: TxnId,
    /// The coordinator.
    pub coordinator: SiteId,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for SafeStateViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "safe-state violation at {} for {}: {}",
            self.coordinator, self.txn, self.detail
        )
    }
}

/// Check `SafeState_C(T)` for one transaction.
///
/// Returns violations for every post-forget inquiry that was answered
/// inconsistently with the decided outcome (or never answered at all, if
/// `require_response` — the paper's formula demands the response be *in*
/// `H`, so a silently ignored inquiry is also unsafe).
#[must_use]
pub fn check_safe_state(
    history: &History,
    coordinator: SiteId,
    txn: TxnId,
) -> Vec<SafeStateViolation> {
    let events = history.events();

    // The decided outcome (first decision; atomicity checking catches
    // contradictory re-decisions separately).
    let decided = events.clone().find_map(|e| match &e {
        ActaEvent::Decide {
            coordinator: c,
            txn: t,
            outcome,
        } if *c == coordinator && *t == txn => Some(*outcome),
        _ => None,
    });
    let Some(decided) = decided else {
        // No decision ⇒ Definition 2 is vacuous for this transaction.
        return Vec::new();
    };

    // Index of the forget (DeletePT) event, if the coordinator forgot.
    let forget_idx = events.clone().position(|e| {
        matches!(&e, ActaEvent::DeletePt { coordinator: c, txn: t } if *c == coordinator && *t == txn)
    });
    let Some(forget_idx) = forget_idx else {
        // Never forgotten ⇒ no post-forget inquiries to constrain.
        return Vec::new();
    };

    let mut violations = Vec::new();

    // Every inquiry after the forget must be answered with `decided`.
    for (i, e) in events.clone().enumerate().skip(forget_idx + 1) {
        let ActaEvent::Inquire {
            participant,
            txn: t,
            ..
        } = &e
        else {
            continue;
        };
        if *t != txn {
            continue;
        }
        // Find the response to *this* inquiry: the first Respond to this
        // participant for this txn after the inquiry.
        let response = events.clone().skip(i + 1).find_map(|e2| match &e2 {
            ActaEvent::Respond {
                coordinator: c,
                txn: t2,
                participant: p2,
                outcome,
                ..
            } if *c == coordinator && *t2 == txn && *p2 == *participant => Some(*outcome),
            _ => None,
        });
        match response {
            Some(o) if o == decided => {}
            Some(o) => violations.push(SafeStateViolation {
                txn,
                coordinator,
                detail: format!(
                    "post-forget inquiry from {participant} answered {o}, but decided {decided}"
                ),
            }),
            None => violations.push(SafeStateViolation {
                txn,
                coordinator,
                detail: format!(
                    "post-forget inquiry from {participant} never answered (Respond ∉ H)"
                ),
            }),
        }
    }

    violations
}

/// Check the safe state for every decided transaction of a coordinator.
#[must_use]
pub fn check_all_safe_states(history: &History, coordinator: SiteId) -> Vec<SafeStateViolation> {
    history
        .transactions()
        .into_iter()
        .flat_map(|t| check_safe_state(history, coordinator, t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_types::{Outcome, ProtocolKind};

    fn c() -> SiteId {
        SiteId::new(0)
    }
    fn p() -> SiteId {
        SiteId::new(1)
    }
    fn t() -> TxnId {
        TxnId::new(1)
    }

    fn decide(o: Outcome) -> ActaEvent {
        ActaEvent::Decide {
            coordinator: c(),
            txn: t(),
            outcome: o,
        }
    }
    fn forget() -> ActaEvent {
        ActaEvent::DeletePt {
            coordinator: c(),
            txn: t(),
        }
    }
    fn inquire(proto: ProtocolKind) -> ActaEvent {
        ActaEvent::Inquire {
            participant: p(),
            txn: t(),
            protocol: proto,
        }
    }
    fn respond(o: Outcome) -> ActaEvent {
        ActaEvent::Respond {
            coordinator: c(),
            txn: t(),
            participant: p(),
            outcome: o,
            by_presumption: true,
        }
    }

    #[test]
    fn consistent_post_forget_response_is_safe() {
        let h: History = [
            decide(Outcome::Commit),
            forget(),
            inquire(ProtocolKind::PrC),
            respond(Outcome::Commit),
        ]
        .into_iter()
        .collect();
        assert!(check_safe_state(&h, c(), t()).is_empty());
    }

    #[test]
    fn contradicting_response_is_unsafe() {
        // The U2PC/PrA coordinator scenario from Theorem 1 Part II:
        // committed, forgot, then answered a PrC inquiry with abort.
        let h: History = [
            decide(Outcome::Commit),
            forget(),
            inquire(ProtocolKind::PrC),
            respond(Outcome::Abort),
        ]
        .into_iter()
        .collect();
        let v = check_safe_state(&h, c(), t());
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("answered abort"));
    }

    #[test]
    fn unanswered_post_forget_inquiry_is_unsafe() {
        let h: History = [decide(Outcome::Abort), forget(), inquire(ProtocolKind::PrA)]
            .into_iter()
            .collect();
        let v = check_safe_state(&h, c(), t());
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("never answered"));
    }

    #[test]
    fn pre_forget_inquiries_unconstrained_by_definition_2() {
        // An inquiry *before* the forget is answered from the protocol
        // table; Definition 2 says nothing about it (atomicity checking
        // still covers wrong answers).
        let h: History = [
            decide(Outcome::Commit),
            inquire(ProtocolKind::PrA),
            respond(Outcome::Commit),
            forget(),
        ]
        .into_iter()
        .collect();
        assert!(check_safe_state(&h, c(), t()).is_empty());
    }

    #[test]
    fn undecided_or_unforgotten_transactions_vacuously_safe() {
        let h: History = [inquire(ProtocolKind::PrA)].into_iter().collect();
        assert!(check_safe_state(&h, c(), t()).is_empty());

        let h: History = [decide(Outcome::Commit), inquire(ProtocolKind::PrC)]
            .into_iter()
            .collect();
        assert!(check_safe_state(&h, c(), t()).is_empty());
    }

    #[test]
    fn check_all_covers_every_transaction() {
        let t2 = TxnId::new(2);
        let h: History = [
            decide(Outcome::Commit),
            forget(),
            inquire(ProtocolKind::PrC),
            respond(Outcome::Abort), // bad for T1
            ActaEvent::Decide {
                coordinator: c(),
                txn: t2,
                outcome: Outcome::Abort,
            },
            ActaEvent::DeletePt {
                coordinator: c(),
                txn: t2,
            },
            ActaEvent::Inquire {
                participant: p(),
                txn: t2,
                protocol: ProtocolKind::PrA,
            },
            ActaEvent::Respond {
                coordinator: c(),
                txn: t2,
                participant: p(),
                outcome: Outcome::Abort,
                by_presumption: true,
            }, // good for T2
        ]
        .into_iter()
        .collect();
        let v = check_all_safe_states(&h, c());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].txn, t());
    }
}
