#![allow(dead_code)] // each integration-test binary uses a different subset

//! Shared helpers for the integration tests: the simulator-harness
//! helpers here, the hand-driven engines in [`engines`], the real-time
//! runtimes' in [`runtime`].

pub mod engines;
pub mod runtime;

use presumed_any::prelude::*;
use presumed_any::sim::{Trace, TraceKind};
use presumed_any::types::Payload;

/// The coordinator's site in every harness scenario.
pub fn coord() -> SiteId {
    SiteId::new(0)
}

/// Site `n` (participants are 1-based).
pub fn site(n: u32) -> SiteId {
    SiteId::new(n)
}

/// The log-write schedule of one site: trace note tags starting with
/// `force:` or `write:`, in order.
pub fn log_tags(trace: &Trace, s: SiteId) -> Vec<String> {
    trace
        .tag_schedule(s)
        .into_iter()
        .filter(|t| t.starts_with("force:") || t.starts_with("write:"))
        .collect()
}

/// Sites that *sent* an `Ack`, in first-ack order.
pub fn ack_senders(trace: &Trace) -> Vec<SiteId> {
    let mut out = Vec::new();
    for e in trace.entries() {
        if let TraceKind::Sent(m) = &e.kind {
            if matches!(m.payload, Payload::Ack { .. }) && !out.contains(&m.from) {
                out.push(m.from);
            }
        }
    }
    out
}

/// Count sent messages of a payload kind.
pub fn sent_count(trace: &Trace, kind: &str) -> usize {
    trace
        .entries()
        .iter()
        .filter(|e| matches!(&e.kind, TraceKind::Sent(m) if m.payload.kind_name() == kind))
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
