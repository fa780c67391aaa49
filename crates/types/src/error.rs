//! Protocol violation descriptions.

use crate::ids::{SiteId, TxnId};
use std::fmt;

/// A message or event that violates the receiving engine's protocol.
///
/// §2 defines U2PC coordinators as "handl\[ing\] any violations of
/// \[their\] protocol with respect to messages by ignoring such messages";
/// strict single-protocol engines instead surface violations so tests
/// can assert on them. Either way, the violation itself is described by
/// this type.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProtocolViolation {
    /// The site that observed the violation.
    pub site: SiteId,
    /// The transaction involved, if identifiable.
    pub txn: Option<TxnId>,
    /// Human-readable description of what was violated.
    pub detail: String,
}

impl ProtocolViolation {
    /// Construct a violation report.
    pub fn new(site: SiteId, txn: Option<TxnId>, detail: impl Into<String>) -> Self {
        ProtocolViolation {
            site,
            txn,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.txn {
            Some(t) => write!(
                f,
                "protocol violation at {} for {}: {}",
                self.site, t, self.detail
            ),
            None => write!(f, "protocol violation at {}: {}", self.site, self.detail),
        }
    }
}

impl std::error::Error for ProtocolViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_with_and_without_txn() {
        let v = ProtocolViolation::new(SiteId::new(1), Some(TxnId::new(2)), "unexpected ack");
        assert_eq!(
            v.to_string(),
            "protocol violation at S1 for T2: unexpected ack"
        );
        let v = ProtocolViolation::new(SiteId::new(1), None, "garbled message");
        assert_eq!(v.to_string(), "protocol violation at S1: garbled message");
    }

    #[test]
    fn is_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&ProtocolViolation::new(SiteId::new(0), None, "x"));
    }
}
