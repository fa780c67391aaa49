#![allow(dead_code)] // each integration-test binary uses a different subset

//! Shared helpers for the integration tests: the simulator-harness
//! helpers here, the hand-driven engines in [`engines`], the real-time
//! runtimes' in [`runtime`].

pub mod engines;
pub mod runtime;

use presumed_any::prelude::*;

/// The coordinator's site in every harness scenario.
pub fn coord() -> SiteId {
    SiteId::new(0)
}

/// Site `n` (participants are 1-based).
pub fn site(n: u32) -> SiteId {
    SiteId::new(n)
}

/// Sites that *sent* an `ack`, in first-ack order.
pub fn ack_senders(events: &[ProtocolEvent]) -> Vec<SiteId> {
    let mut out = Vec::new();
    for e in events {
        let ProtocolEvent::MsgSend { site, kind, .. } = *e else {
            continue;
        };
        let site = SiteId::new(site);
        if kind == "ack" && !out.contains(&site) {
            out.push(site);
        }
    }
    out
}

/// Count sent messages of a payload kind.
pub fn sent_count(events: &[ProtocolEvent], kind: &str) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, ProtocolEvent::MsgSend { kind: k, .. } if *k == kind))
        .count()
}

/// Assert a run satisfied *every* criterion in the paper: atomicity,
/// operational correctness and the safe state.
pub fn assert_fully_correct(out: &ScenarioOutcome) {
    let a = check_atomicity(&out.history);
    assert!(a.is_empty(), "atomicity: {a:?}");
    let o = check_operational(&out.history, &out.final_state);
    assert!(o.is_empty(), "operational: {o:?}");
    let s = check_all_safe_states(&out.history, coord());
    assert!(s.is_empty(), "safe state: {s:?}");
}

/// A scenario with one transaction (all-yes) at 1ms.
pub fn one_txn(kind: CoordinatorKind, protos: &[ProtocolKind]) -> Scenario {
    let mut s = Scenario::new(kind, protos);
    s.add_txn(TxnId::new(1), SimTime::from_millis(1));
    s
}

/// A scenario whose single transaction aborts because `no_voter` votes
/// "No" (everyone else prepared — the paper figures' abort situation
/// for the prepared participants).
pub fn one_txn_abort(kind: CoordinatorKind, protos: &[ProtocolKind], no_voter: SiteId) -> Scenario {
    let mut s = Scenario::new(kind, protos);
    s.add_txn_with_vote(TxnId::new(1), SimTime::from_millis(1), no_voter, Vote::No);
    s
}
