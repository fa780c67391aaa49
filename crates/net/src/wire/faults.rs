//! Frame-level fault injection for the socket runtime.
//!
//! TCP gives the engines a FIFO, reliable byte stream — exactly the
//! link assumption under which footnote 5's no-memory ack optimization
//! is safe. To reproduce the paper's *violation* over real sockets the
//! harness must break that assumption at the frame boundary: drop a
//! frame (omission), or hold it back and release it after its
//! successors (reordering). Rules run on the **sender** side, after the
//! frame is built — so a delayed frame carries the sequence number of
//! its logical send time, and the receiver observes a genuine sequence
//! regression when it finally lands.
//!
//! This mirrors [`acp_wal::fault::FaultyLog`]'s role one layer down:
//! the WAL's fault layer corrupts the *durable* image to exercise
//! recovery; this one perturbs the *in-flight* image to exercise the
//! protocols' link-failure tolerance.

use super::frame::WireMsg;
use acp_types::SiteId;
use std::time::Duration;

/// What to do with a matched frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Discard it (omission failure; the sequence number is still
    /// consumed, so the receiver sees a gap).
    Drop,
    /// Hold it back for this long, then enqueue it — frames built later
    /// overtake it (non-FIFO delivery).
    Delay(Duration),
}

/// One match-and-act rule. Fields left `None` match anything.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Only frames to this destination site.
    pub to: Option<SiteId>,
    /// Only frames of this kind ([`WireMsg::kind_name`]:
    /// `"prepare"`, `"vote"`, `"decision"`, `"ack"`, `"inquiry"`,
    /// `"inquiry-response"`, `"batch"`, `"apply"`, `"set-intent"`).
    pub kind: Option<&'static str>,
    /// Let this many matching frames through untouched first.
    pub skip: u32,
    /// Then act on this many ( `u32::MAX` ≈ unlimited); after that the
    /// rule is spent and later rules get a look.
    pub count: u32,
    /// The action for matched frames.
    pub action: FaultAction,
}

impl FaultRule {
    /// Drop every frame of `kind` bound for `to`.
    #[must_use]
    pub fn drop_all(to: SiteId, kind: &'static str) -> Self {
        FaultRule {
            to: Some(to),
            kind: Some(kind),
            skip: 0,
            count: u32::MAX,
            action: FaultAction::Drop,
        }
    }

    /// Delay every frame of `kind` bound for `to` by `by`.
    #[must_use]
    pub fn delay_all(to: SiteId, kind: &'static str, by: Duration) -> Self {
        FaultRule {
            to: Some(to),
            kind: Some(kind),
            skip: 0,
            count: u32::MAX,
            action: FaultAction::Delay(by),
        }
    }

    fn matches(&self, to: SiteId, msg: &WireMsg) -> bool {
        self.to.is_none_or(|t| t == to) && self.kind.is_none_or(|k| k == msg.kind_name())
    }
}

/// A time-windowed link cut: outbound frames to `peer` sent while
/// `from <= elapsed < until` (elapsed measured from node spawn) are
/// dropped, then the link heals on its own. One window severs only the
/// *outbound* half — a node controls only what it sends — so a
/// bidirectional partition is the same window installed on **both**
/// endpoints' [`WireFaults`]. Frames queued on a connection before the
/// window opens still flush (their fate was decided at send time),
/// which matches the simulator's partition semantics.
#[derive(Clone, Copy, Debug)]
pub struct Partition {
    /// The peer to cut off.
    pub peer: SiteId,
    /// Window start, measured from node spawn.
    pub from: Duration,
    /// Window end (exclusive); the link heals here.
    pub until: Duration,
}

/// An ordered rule list consulted for every outbound frame. First rule
/// that matches (and is not spent) decides; no match means deliver.
#[derive(Clone, Debug, Default)]
pub struct WireFaults {
    rules: Vec<FaultRule>,
    partitions: Vec<Partition>,
}

impl WireFaults {
    /// A fault-free wire.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Append a rule (builder style).
    #[must_use]
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Cut the link to `peer` for `[from, until)` since node spawn
    /// (builder style). Install the mirrored window on the peer's node
    /// to sever both directions.
    #[must_use]
    pub fn partition(mut self, peer: SiteId, from: Duration, until: Duration) -> Self {
        assert!(from < until, "empty partition window");
        self.partitions.push(Partition { peer, from, until });
        self
    }

    /// Are any rules installed? (The hot path skips the scan entirely
    /// on a clean wire.)
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.partitions.is_empty()
    }

    /// Is the outbound link to `to` inside an active partition window
    /// at `elapsed` since node spawn?
    #[must_use]
    pub fn partitioned(&self, elapsed: Duration, to: SiteId) -> bool {
        self.partitions
            .iter()
            .any(|p| p.peer == to && p.from <= elapsed && elapsed < p.until)
    }

    /// Decide the fate of one outbound frame. `None` = deliver
    /// normally. Mutates rule budgets (skip/count), so call exactly
    /// once per frame.
    pub fn decide(&mut self, to: SiteId, msg: &WireMsg) -> Option<FaultAction> {
        for rule in &mut self.rules {
            if !rule.matches(to, msg) {
                continue;
            }
            if rule.skip > 0 {
                rule.skip -= 1;
                return None;
            }
            if rule.count == 0 {
                continue; // spent: later rules may still apply
            }
            if rule.count != u32::MAX {
                rule.count -= 1;
            }
            return Some(rule.action);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_types::{Message, Payload, TxnId};

    fn prepare_to(to: u32) -> WireMsg {
        WireMsg::Protocol(Message::new(
            SiteId::new(0),
            SiteId::new(to),
            Payload::Prepare { txn: TxnId::new(1) },
        ))
    }

    #[test]
    fn skip_then_count_then_spent() {
        let mut faults = WireFaults::none().rule(FaultRule {
            to: Some(SiteId::new(2)),
            kind: Some("prepare"),
            skip: 1,
            count: 2,
            action: FaultAction::Drop,
        });
        let msg = prepare_to(2);
        assert_eq!(faults.decide(SiteId::new(2), &msg), None); // skipped
        assert_eq!(faults.decide(SiteId::new(2), &msg), Some(FaultAction::Drop));
        assert_eq!(faults.decide(SiteId::new(2), &msg), Some(FaultAction::Drop));
        assert_eq!(faults.decide(SiteId::new(2), &msg), None); // spent
                                                               // Other destinations never matched.
        assert_eq!(faults.decide(SiteId::new(3), &prepare_to(3)), None);
    }

    #[test]
    fn partition_window_severs_then_heals() {
        let faults = WireFaults::none().partition(
            SiteId::new(2),
            Duration::from_millis(10),
            Duration::from_millis(20),
        );
        assert!(!faults.is_empty());
        assert!(!faults.partitioned(Duration::from_millis(9), SiteId::new(2)));
        assert!(faults.partitioned(Duration::from_millis(10), SiteId::new(2)));
        assert!(faults.partitioned(Duration::from_millis(19), SiteId::new(2)));
        assert!(!faults.partitioned(Duration::from_millis(20), SiteId::new(2)));
        // Other peers are unaffected throughout.
        assert!(!faults.partitioned(Duration::from_millis(15), SiteId::new(3)));
    }

    #[test]
    fn first_matching_rule_wins_and_spent_rules_yield() {
        let mut faults = WireFaults::none()
            .rule(FaultRule {
                to: None,
                kind: Some("ack"),
                skip: 0,
                count: 1,
                action: FaultAction::Drop,
            })
            .rule(FaultRule {
                to: None,
                kind: None,
                skip: 0,
                count: u32::MAX,
                action: FaultAction::Delay(Duration::from_millis(5)),
            });
        let ack = WireMsg::Protocol(Message::new(
            SiteId::new(1),
            SiteId::new(0),
            Payload::Ack { txn: TxnId::new(1) },
        ));
        assert_eq!(faults.decide(SiteId::new(0), &ack), Some(FaultAction::Drop));
        // Rule 1 spent → falls through to the catch-all delay.
        assert_eq!(
            faults.decide(SiteId::new(0), &ack),
            Some(FaultAction::Delay(Duration::from_millis(5)))
        );
    }
}
