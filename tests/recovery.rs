//! Crash-point sweeps: §4.2 recovery must preserve both correctness
//! criteria no matter where a failure lands in the protocol.
//!
//! The sweep moves a single crash through the entire commit window in
//! 50us steps, for each role (coordinator, PrA participant, PrC
//! participant, PrN participant), for both outcomes, and for double
//! faults. Every run must pass atomicity, operational correctness and
//! the safe state.

mod common;

use common::*;
use presumed_any::prelude::*;

const T: TxnId = TxnId(1);

fn sweep(kind: CoordinatorKind, protos: &[ProtocolKind], abort: bool, victim: SiteId) {
    for crash_us in (900..2_600).step_by(50) {
        let mut s = Scenario::new(kind, protos);
        s.add_txn(T, SimTime::from_millis(1));
        if abort {
            s.txns[0].abort_at = Some(SimTime::from_micros(1_250));
        }
        s.failures = FailureSchedule::single(
            victim,
            SimTime::from_micros(crash_us),
            SimTime::from_micros(crash_us) + SimTime::from_millis(150),
        );
        let out = run_scenario(&s);
        let a = check_atomicity(&out.history);
        assert!(a.is_empty(), "crash at {crash_us}us of {victim}: {a:?}");
        let o = check_operational(&out.history, &out.final_state);
        assert!(o.is_empty(), "crash at {crash_us}us of {victim}: {o:?}");
        let ss = check_all_safe_states(&out.history, coord());
        assert!(ss.is_empty(), "crash at {crash_us}us of {victim}: {ss:?}");
    }
}

const MIXED: [ProtocolKind; 3] = [ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC];

#[test]
fn coordinator_crash_sweep_commit() {
    sweep(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        &MIXED,
        false,
        coord(),
    );
}

#[test]
fn coordinator_crash_sweep_abort() {
    sweep(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        &MIXED,
        true,
        coord(),
    );
}

#[test]
fn participant_crash_sweep_commit() {
    for victim in [site(1), site(2), site(3)] {
        sweep(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &MIXED,
            false,
            victim,
        );
    }
}

#[test]
fn participant_crash_sweep_abort() {
    for victim in [site(1), site(2), site(3)] {
        sweep(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &MIXED,
            true,
            victim,
        );
    }
}

#[test]
fn single_protocol_crash_sweeps() {
    for p in ProtocolKind::ALL {
        let protos = [p, p];
        for abort in [false, true] {
            sweep(CoordinatorKind::Single(p), &protos, abort, coord());
            sweep(CoordinatorKind::Single(p), &protos, abort, site(1));
        }
    }
}

#[test]
fn double_fault_coordinator_and_participant() {
    // Coordinator and the PrC participant both crash, overlapping.
    for (c_at, p_at) in [(1_300u64, 1_500u64), (1_500, 1_300), (1_700, 1_700)] {
        let mut s = Scenario::new(CoordinatorKind::PrAny(SelectionPolicy::PaperStrict), &MIXED);
        s.add_txn(T, SimTime::from_millis(1));
        let mut f = FailureSchedule::none();
        f.push(
            coord(),
            SimTime::from_micros(c_at),
            SimTime::from_micros(c_at + 80_000),
        );
        f.push(
            site(3),
            SimTime::from_micros(p_at),
            SimTime::from_micros(p_at + 120_000),
        );
        s.failures = f;
        let out = run_scenario(&s);
        assert_fully_correct(&out);
    }
}

#[test]
fn repeated_coordinator_crashes() {
    // The coordinator crashes three times during one transaction's
    // lifetime; §4.2 recovery must be idempotent.
    let mut s = Scenario::new(CoordinatorKind::PrAny(SelectionPolicy::PaperStrict), &MIXED);
    s.add_txn(T, SimTime::from_millis(1));
    let mut f = FailureSchedule::none();
    f.push(
        coord(),
        SimTime::from_micros(1_450),
        SimTime::from_millis(20),
    );
    f.push(coord(), SimTime::from_millis(25), SimTime::from_millis(60));
    f.push(coord(), SimTime::from_millis(65), SimTime::from_millis(120));
    s.failures = f;
    let out = run_scenario(&s);
    assert_fully_correct(&out);
    // The decision, once recovered, never flips (the atomicity checker
    // verifies this; assert the decision exists at all).
    assert!(out.decided.contains_key(&T));
}

#[test]
fn crash_during_recovery_resend_window() {
    // Participant crashes; coordinator re-sends; participant crashes
    // again mid-resend; still converges.
    let mut s = Scenario::new(CoordinatorKind::PrAny(SelectionPolicy::PaperStrict), &MIXED);
    s.add_txn(T, SimTime::from_millis(1));
    let mut f = FailureSchedule::none();
    f.push(
        site(2),
        SimTime::from_micros(1_500),
        SimTime::from_millis(30),
    );
    f.push(site(2), SimTime::from_millis(31), SimTime::from_millis(90));
    s.failures = f;
    let out = run_scenario(&s);
    assert_fully_correct(&out);
    assert_eq!(out.enforced.len(), 3, "all three participants enforced");
}

#[test]
fn message_loss_storms_converge() {
    // 30% loss, no crashes: retry machinery alone must converge.
    for seed in 0..5 {
        let mut s = Scenario::new(CoordinatorKind::PrAny(SelectionPolicy::PaperStrict), &MIXED);
        s.network = NetworkConfig::lossy(0.3);
        s.seed = seed;
        s.add_txn(T, SimTime::from_millis(1));
        let out = run_scenario(&s);
        assert_fully_correct(&out);
    }
}

/// The coordinator's first decision send follows the client's
/// participant list; its ack re-sends and recovery's re-sends go to the
/// sites still awaited, in ascending site order.
#[test]
fn decisions_follow_the_list_and_re_sends_ascend_by_site() {
    use presumed_any::types::Payload;
    let kind = CoordinatorKind::Single(ProtocolKind::PrN);
    let mut c = Coordinator::new(coord(), kind, MemLog::new());
    let list = [SiteId::new(3), SiteId::new(1), SiteId::new(2)];
    for &site in &list {
        c.register_site(site, ProtocolKind::PrN);
    }
    let decisions = |actions: &[Action]| -> Vec<u32> {
        let to = |a: &Action| match a {
            Action::Send {
                to,
                payload: Payload::Decision { .. },
            } => Some(to.raw()),
            _ => None,
        };
        actions.iter().filter_map(to).collect()
    };

    c.begin_commit(T, &list);
    let yes = Payload::Vote {
        txn: T,
        vote: Vote::Yes,
    };
    let decided: Vec<Action> = list.iter().flat_map(|&s| c.on_message(s, &yes)).collect();
    assert_eq!(
        decisions(&decided),
        [3, 1, 2],
        "the first send follows the list"
    );
    let resend = decided.iter().find_map(|a| match a {
        Action::SetTimer { token, .. } => Some(*token),
        _ => None,
    });

    c.on_message(SiteId::new(1), &Payload::Ack { txn: T });
    let resent = c.on_timer(resend.expect("the ack re-send timer"));
    assert_eq!(decisions(&resent), [2, 3], "re-sent to the awaited sites");

    c.crash();
    assert_eq!(
        decisions(&c.recover()),
        [1, 2, 3],
        "recovery re-sends to all"
    );
}
