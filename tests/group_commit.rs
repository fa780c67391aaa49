//! Group-commit batching under the simulator: trace byte-identity for
//! batches of one, exact agreement between the sim's batch accounting
//! and the analytic model, and crash-safety under windowed batching.
//! The real-time runtimes' deferred batching + ack piggybacking is
//! checked on every backend in `tests/runtime_backends.rs`.

mod common;

use common::assert_fully_correct;
use presumed_any::core::cost::{predict_batched, Population};
use presumed_any::obs::json::event_to_json;
use presumed_any::prelude::*;

fn prany() -> CoordinatorKind {
    CoordinatorKind::PrAny(SelectionPolicy::PaperStrict)
}

const POP: [ProtocolKind; 2] = [ProtocolKind::PrA, ProtocolKind::PrC];

/// A scenario with `n` identical transactions starting at the same sim
/// instant over fixed-latency links.
fn lockstep_scenario(n: u64, batch_window: Option<u64>) -> Scenario {
    let mut s = Scenario::new(prany(), &POP);
    s.network = NetworkConfig::reliable(SimTime::from_micros(200));
    s.batch_window = batch_window;
    for t in 1..=n {
        s.add_txn(TxnId::new(t), SimTime::from_millis(1));
    }
    s
}

// ---------------------------------------------------------------------
// Tentpole: batch-of-one degenerates to today's behavior, byte for byte
// ---------------------------------------------------------------------

#[test]
fn single_txn_trace_is_byte_identical_with_batching_enabled() {
    let plain = run_scenario(&lockstep_scenario(1, None));
    let batched = run_scenario(&lockstep_scenario(1, Some(20)));

    // Same decisions, same sim trace, and — the point — the exact same
    // typed event stream: a batch of one emits no BatchCommit event and
    // changes nothing else.
    assert_eq!(plain.decided, batched.decided);
    let plain_lines: Vec<String> = plain.events.iter().map(event_to_json).collect();
    let batched_lines: Vec<String> = batched.events.iter().map(event_to_json).collect();
    assert_eq!(plain_lines, batched_lines, "event stream must not change");

    // The batching run still accounts: every force was its own batch.
    assert_eq!(batched.group_commit.max_occupancy, 1);
    assert_eq!(
        batched.group_commit.batches,
        batched.group_commit.batched_appends
    );
    // Batching off: the group-commit layer is a transparent passthrough.
    assert_eq!(plain.group_commit.batches, 0);
    assert_eq!(plain.group_commit.batched_appends, 0);
}

// ---------------------------------------------------------------------
// Tentpole: measured batches equal the cost model's prediction exactly
// ---------------------------------------------------------------------

#[test]
fn concurrent_txns_match_batched_cost_model_exactly() {
    for n in [2u64, 4, 8] {
        let out = run_scenario(&lockstep_scenario(n, Some(20)));
        for t in 1..=n {
            assert_eq!(out.decided[&TxnId::new(t)], Outcome::Commit, "txn {t}");
        }
        assert_fully_correct(&out);

        let predicted = predict_batched(
            prany(),
            Outcome::Commit,
            Population::new(0, 1, 1),
            n,
            n, // every slot coalesces all n same-slot forces
        );
        assert_eq!(
            out.group_commit.batches, predicted.physical_forces,
            "physical forces at n={n}"
        );
        assert_eq!(
            out.group_commit.batched_appends, predicted.logical_forces,
            "logical forces at n={n}"
        );
        assert_eq!(out.group_commit.max_occupancy, n, "full slots at n={n}");
    }
}

#[test]
fn batched_events_report_slot_occupancy() {
    let out = run_scenario(&lockstep_scenario(4, Some(20)));
    let occupancies: Vec<u64> = out
        .events
        .iter()
        .filter_map(|e| match e {
            ProtocolEvent::BatchCommit { occupancy, .. } => Some(*occupancy),
            _ => None,
        })
        .collect();
    // Every protocol force slot coalesced all four transactions.
    assert!(!occupancies.is_empty(), "expected BatchCommit events");
    assert!(
        occupancies.iter().all(|&o| o == 4),
        "every slot holds all 4 txns: {occupancies:?}"
    );
    assert_eq!(
        occupancies.len() as u64,
        out.group_commit.batches,
        "batches of one stay silent, full batches all surface"
    );
}

// ---------------------------------------------------------------------
// Windowed batching is accounting-only: crash semantics untouched
// ---------------------------------------------------------------------

#[test]
fn windowed_batching_preserves_crash_recovery() {
    for crash_us in [1_100u64, 1_300, 1_500] {
        let mut s = lockstep_scenario(4, Some(20));
        s.failures = FailureSchedule::single(
            SiteId::new(1),
            SimTime::from_micros(crash_us),
            SimTime::from_micros(crash_us + 900),
        );
        let out = run_scenario(&s);
        assert_fully_correct(&out);
        // Batching accounting never exceeds what was actually forced.
        assert!(out.group_commit.batches <= out.group_commit.batched_appends);
    }
}
