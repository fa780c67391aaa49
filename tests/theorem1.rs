//! Experiment E5 — Theorem 1: "It is impossible to ensure global
//! atomicity of distributed transactions executed at both PrA and PrC
//! participants with a coordinator using U2PC."
//!
//! Each part of the paper's proof is staged as a concrete failure
//! scenario in the deterministic simulator; the atomicity and
//! safe-state checkers then *detect* the violation the proof predicts.
//! The same scenarios run under PrAny as a control and are clean.
//!
//! Timeline used throughout (reliable 200us links, txn starts at 1ms):
//! prepares arrive ≈1.2ms, votes ≈1.4ms, the decision ≈1.6ms. Crashing
//! a participant at 1.5ms therefore catches it *after voting yes, before
//! receiving the decision* — exactly the window of the proof.

mod common;

use common::*;
use presumed_any::prelude::*;
use presumed_any::types::Payload;

const T: TxnId = TxnId(1);

/// Crash the given participant through the decision window, recovering
/// much later so its recovery inquiry hits a coordinator that has long
/// forgotten the transaction.
fn crash_through_decision(s: &mut Scenario, victim: SiteId) {
    s.failures = FailureSchedule::single(
        victim,
        SimTime::from_micros(1_500),
        SimTime::from_millis(400),
    );
}

/// The wrong-presumption answer the scenario should produce, as seen by
/// the enforcement map.
fn enforcement(out: &ScenarioOutcome, site: SiteId) -> Option<Outcome> {
    out.enforced.get(&(site, T)).copied()
}

#[test]
fn part_i_prn_coordinator_commits_then_presumes_abort() {
    // PrA at site 1, PrC at site 2; U2PC over a PrN base.
    let mut s = one_txn(
        CoordinatorKind::U2pc(ProtocolKind::PrN),
        &[ProtocolKind::PrA, ProtocolKind::PrC],
    );
    crash_through_decision(&mut s, site(2));
    let out = run_scenario(&s);

    assert_eq!(out.decided[&T], Outcome::Commit);
    // The PrA participant committed; the PrC participant, answered by
    // the PrN hidden presumption after the coordinator forgot, aborted.
    assert_eq!(enforcement(&out, site(1)), Some(Outcome::Commit));
    assert_eq!(enforcement(&out, site(2)), Some(Outcome::Abort));

    let violations = check_atomicity(&out.history);
    assert!(!violations.is_empty(), "Theorem 1 Part I must manifest");
    // Definition 2 is violated too: a post-forget inquiry was answered
    // against the decided outcome.
    let unsafe_states = check_all_safe_states(&out.history, coord());
    assert!(!unsafe_states.is_empty());
}

#[test]
fn part_ii_pra_coordinator_commits_then_presumes_abort() {
    let mut s = one_txn(
        CoordinatorKind::U2pc(ProtocolKind::PrA),
        &[ProtocolKind::PrA, ProtocolKind::PrC],
    );
    crash_through_decision(&mut s, site(2));
    let out = run_scenario(&s);

    assert_eq!(out.decided[&T], Outcome::Commit);
    assert_eq!(enforcement(&out, site(1)), Some(Outcome::Commit));
    assert_eq!(enforcement(&out, site(2)), Some(Outcome::Abort));
    assert!(
        !check_atomicity(&out.history).is_empty(),
        "Theorem 1 Part II must manifest"
    );
}

#[test]
fn part_iii_prc_coordinator_aborts_then_presumes_commit() {
    // The paper's §2 motivating example: the coordinator (PrC base)
    // decides abort with both participants prepared; the PrA participant
    // crashes before the abort reaches it; the PrC participant's ack
    // lets the coordinator forget; the PrA participant's inquiry is
    // answered COMMIT by the PrC presumption.
    let mut s = one_txn(
        CoordinatorKind::U2pc(ProtocolKind::PrC),
        &[ProtocolKind::PrA, ProtocolKind::PrC],
    );
    // Both participants force their prepared records and send their
    // votes at ≈1.2ms; the client abort lands at 1.25ms, while the votes
    // are still in flight — so the abort is decided with both prepared.
    s.txns[0].abort_at = Some(SimTime::from_micros(1_250));
    // The PrA participant crashes at 1.3ms, before the abort (sent
    // 1.25ms, due 1.45ms) reaches it.
    s.failures = FailureSchedule::single(
        site(1),
        SimTime::from_micros(1_300),
        SimTime::from_millis(400),
    );
    let out = run_scenario(&s);

    assert_eq!(out.decided[&T], Outcome::Abort);
    assert_eq!(
        enforcement(&out, site(2)),
        Some(Outcome::Abort),
        "PrC participant aborted"
    );
    assert_eq!(
        enforcement(&out, site(1)),
        Some(Outcome::Commit),
        "PrA participant was told to commit by the wrong presumption"
    );
    assert!(
        !check_atomicity(&out.history).is_empty(),
        "Theorem 1 Part III must manifest"
    );
}

#[test]
fn the_wrong_answer_is_a_presumption_answer() {
    // The violation mechanism is precisely a presumption-based response
    // to a post-forget inquiry (not a protocol-table lookup).
    let mut s = one_txn(
        CoordinatorKind::U2pc(ProtocolKind::PrN),
        &[ProtocolKind::PrA, ProtocolKind::PrC],
    );
    crash_through_decision(&mut s, site(2));
    let out = run_scenario(&s);
    let bad_response = out.history.events().find(|e| {
        matches!(
            e,
            ActaEvent::Respond {
                outcome: Outcome::Abort,
                by_presumption: true,
                ..
            }
        )
    });
    assert!(bad_response.is_some(), "{}", out.history);
}

#[test]
fn control_prany_survives_every_part() {
    // Identical failure scenarios, PrAny coordinator: all clean.
    for (victim, abort_at, crash_us) in [
        (site(2), None, 1_500),
        (site(1), Some(SimTime::from_micros(1_250)), 1_300),
    ] {
        let mut s = one_txn(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        s.txns[0].abort_at = abort_at;
        s.failures = FailureSchedule::single(
            victim,
            SimTime::from_micros(crash_us),
            SimTime::from_millis(400),
        );
        let out = run_scenario(&s);
        assert_fully_correct(&out);
        // Every participant enforced the decided outcome.
        let decided = out.decided[&T];
        for p in [site(1), site(2)] {
            assert_eq!(
                enforcement(&out, p),
                Some(decided),
                "{p} under victim {victim}"
            );
        }
    }
}

#[test]
fn violation_rate_sweep_u2pc_vs_prany() {
    // Sweep the crash point across the decision window for every U2PC
    // base: U2PC violates for some crash points; PrAny for none.
    let mut u2pc_violations = 0u32;
    let mut runs = 0u32;
    for base in [ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC] {
        for crash_us in (1_200..2_200).step_by(100) {
            for victim in [site(1), site(2)] {
                runs += 1;
                let mut s = one_txn(
                    CoordinatorKind::U2pc(base),
                    &[ProtocolKind::PrA, ProtocolKind::PrC],
                );
                if base == ProtocolKind::PrC {
                    s.txns[0].abort_at = Some(SimTime::from_micros(1_250));
                }
                s.failures = FailureSchedule::single(
                    victim,
                    SimTime::from_micros(crash_us),
                    SimTime::from_millis(400),
                );
                let out = run_scenario(&s);
                if !check_atomicity(&out.history).is_empty() {
                    u2pc_violations += 1;
                }

                // Control: PrAny, same crash.
                let mut s = one_txn(
                    CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
                    &[ProtocolKind::PrA, ProtocolKind::PrC],
                );
                if base == ProtocolKind::PrC {
                    s.txns[0].abort_at = Some(SimTime::from_micros(1_250));
                }
                s.failures = FailureSchedule::single(
                    victim,
                    SimTime::from_micros(crash_us),
                    SimTime::from_millis(400),
                );
                let out = run_scenario(&s);
                assert!(
                    check_atomicity(&out.history).is_empty(),
                    "PrAny violated at base={base} crash={crash_us}us victim={victim}"
                );
            }
        }
    }
    assert!(
        u2pc_violations > 0,
        "sweep must reproduce Theorem 1 ({runs} runs)"
    );
}

#[test]
fn inquiry_carries_the_inquirers_protocol() {
    // The PrAny fix depends on the inquiry identifying the inquirer's
    // protocol (§4.2). The event stream names a message's kind only, so
    // check the payload the PrC participant's engine emits when it
    // recovers in doubt.
    let mut part = Participant::new(site(2), ProtocolKind::PrC, MemLog::new());
    let _ = part.on_prepare(coord(), T);
    part.crash();
    let inquiry = part.recover().into_iter().find_map(|a| match a {
        Action::Send {
            to,
            payload: Payload::Inquiry { txn, protocol },
        } if to == coord() && txn == T => Some(protocol),
        _ => None,
    });
    assert_eq!(inquiry, Some(ProtocolKind::PrC));

    // And in a run, that inquiry reaches the wire.
    let mut s = one_txn(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        &[ProtocolKind::PrA, ProtocolKind::PrC],
    );
    crash_through_decision(&mut s, site(2));
    let out = run_scenario(&s);
    assert!(out.events.iter().any(|e| matches!(
        e,
        ProtocolEvent::MsgSend {
            site: 2,
            to: 0,
            kind: "inquiry",
            ..
        }
    )));
}
