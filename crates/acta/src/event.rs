//! Significant events.
//!
//! §1: "All ACPs can be specified and all theorems can be proven using
//! ACTA, by modeling log operations and system crashes as transactions'
//! significant events." This enum is that event vocabulary.

use acp_types::{Outcome, ProtocolKind, SiteId, TxnId};
use std::fmt;

/// A significant event in a transaction's (or site's) history.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ActaEvent {
    // ----- coordinator events -----
    /// `Decide_C(Outcome_T)`: the coordinator fixes the transaction's
    /// final outcome.
    Decide {
        /// The coordinator.
        coordinator: SiteId,
        /// The transaction.
        txn: TxnId,
        /// The decision.
        outcome: Outcome,
    },
    /// `DeletePT_C(T)`: the coordinator discards the transaction from
    /// its protocol table (it *forgets* the outcome).
    DeletePt {
        /// The coordinator.
        coordinator: SiteId,
        /// The transaction.
        txn: TxnId,
    },
    /// `Respond_C(Outcome_ti)`: the coordinator answers a participant's
    /// inquiry.
    Respond {
        /// The coordinator.
        coordinator: SiteId,
        /// The transaction.
        txn: TxnId,
        /// The inquiring participant.
        participant: SiteId,
        /// The reported outcome (possibly by presumption).
        outcome: Outcome,
        /// Whether the answer came from a presumption rather than the
        /// protocol table or the log.
        by_presumption: bool,
    },

    // ----- participant events -----
    /// The participant force-writes its prepared record and votes "Yes";
    /// the prepare-to-commit state becomes visible.
    Prepared {
        /// The participant.
        participant: SiteId,
        /// The transaction.
        txn: TxnId,
    },
    /// `INQ_ti`: the participant inquires about the outcome of its
    /// subtransaction.
    Inquire {
        /// The participant.
        participant: SiteId,
        /// The transaction.
        txn: TxnId,
        /// The participant's commit protocol.
        protocol: ProtocolKind,
    },
    /// The participant enforces (commits or aborts) its subtransaction.
    Enforce {
        /// The participant.
        participant: SiteId,
        /// The transaction.
        txn: TxnId,
        /// The enforced outcome.
        outcome: Outcome,
    },
    /// The participant forgets the transaction and may garbage collect.
    ForgetPart {
        /// The participant.
        participant: SiteId,
        /// The transaction.
        txn: TxnId,
    },

    // ----- log operations (modeled as significant events) -----
    /// A log write at a site.
    LogWrite {
        /// The writing site.
        site: SiteId,
        /// The transaction.
        txn: TxnId,
        /// Record kind tag (e.g. `"initiation"`, `"commit"`, `"end"`).
        kind: &'static str,
        /// Whether the write was forced.
        forced: bool,
    },

    // ----- failures -----
    /// A site crashes.
    Crash {
        /// The site.
        site: SiteId,
    },
    /// A site recovers.
    Recover {
        /// The site.
        site: SiteId,
    },
}

impl ActaEvent {
    /// The transaction the event concerns, if any.
    #[must_use]
    pub fn txn(&self) -> Option<TxnId> {
        match *self {
            ActaEvent::Decide { txn, .. }
            | ActaEvent::DeletePt { txn, .. }
            | ActaEvent::Respond { txn, .. }
            | ActaEvent::Prepared { txn, .. }
            | ActaEvent::Inquire { txn, .. }
            | ActaEvent::Enforce { txn, .. }
            | ActaEvent::ForgetPart { txn, .. }
            | ActaEvent::LogWrite { txn, .. } => Some(txn),
            ActaEvent::Crash { .. } | ActaEvent::Recover { .. } => None,
        }
    }

    /// The site at which the event occurs.
    #[must_use]
    pub fn site(&self) -> SiteId {
        match *self {
            ActaEvent::Decide { coordinator, .. }
            | ActaEvent::DeletePt { coordinator, .. }
            | ActaEvent::Respond { coordinator, .. } => coordinator,
            ActaEvent::Prepared { participant, .. }
            | ActaEvent::Inquire { participant, .. }
            | ActaEvent::Enforce { participant, .. }
            | ActaEvent::ForgetPart { participant, .. } => participant,
            ActaEvent::LogWrite { site, .. }
            | ActaEvent::Crash { site }
            | ActaEvent::Recover { site } => site,
        }
    }
}

impl fmt::Display for ActaEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActaEvent::Decide {
                coordinator,
                txn,
                outcome,
            } => {
                write!(f, "Decide_{coordinator}({outcome}_{txn})")
            }
            ActaEvent::DeletePt { coordinator, txn } => {
                write!(f, "DeletePT_{coordinator}({txn})")
            }
            ActaEvent::Respond {
                coordinator,
                txn,
                participant,
                outcome,
                by_presumption,
            } => {
                let tag = if *by_presumption { "*" } else { "" };
                write!(
                    f,
                    "Respond_{coordinator}({outcome}{tag}_{txn}@{participant})"
                )
            }
            ActaEvent::Prepared { participant, txn } => write!(f, "Prepared_{participant}({txn})"),
            ActaEvent::Inquire {
                participant,
                txn,
                protocol,
            } => {
                write!(f, "INQ_{participant}({txn},{protocol})")
            }
            ActaEvent::Enforce {
                participant,
                txn,
                outcome,
            } => {
                write!(f, "Enforce_{participant}({outcome}_{txn})")
            }
            ActaEvent::ForgetPart { participant, txn } => {
                write!(f, "Forget_{participant}({txn})")
            }
            ActaEvent::LogWrite {
                site,
                txn,
                kind,
                forced,
            } => {
                let mode = if *forced { "force" } else { "write" };
                write!(f, "Log_{site}({mode}:{kind}_{txn})")
            }
            ActaEvent::Crash { site } => write!(f, "Crash({site})"),
            ActaEvent::Recover { site } => write!(f, "Recover({site})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_and_site_extraction() {
        let e = ActaEvent::Decide {
            coordinator: SiteId::new(0),
            txn: TxnId::new(4),
            outcome: Outcome::Commit,
        };
        assert_eq!(e.txn(), Some(TxnId::new(4)));
        assert_eq!(e.site(), SiteId::new(0));
        let c = ActaEvent::Crash {
            site: SiteId::new(2),
        };
        assert_eq!(c.txn(), None);
        assert_eq!(c.site(), SiteId::new(2));
    }

    #[test]
    fn display_marks_presumption_responses() {
        let e = ActaEvent::Respond {
            coordinator: SiteId::new(0),
            txn: TxnId::new(1),
            participant: SiteId::new(2),
            outcome: Outcome::Commit,
            by_presumption: true,
        };
        assert!(e.to_string().contains("commit*"));
    }
}
