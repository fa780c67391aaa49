//! Experiment E8 — the cost table: forced writes, log records and
//! messages per protocol × outcome × population.
//!
//! The analytic model (`acp_core::cost::predict`) and the measured
//! execution must agree *record for record* in failure-free runs. This
//! pins down every protocol's logging discipline — any accidental extra
//! force would show up here. "Measured" means observed by the harness,
//! not reported by the engines: messages are the sends in the run's
//! trace, log records and forces the `LogWrite` events in its history,
//! and every site's log must agree with those on appends and forces.

mod common;

use common::*;
use presumed_any::prelude::*;
use presumed_any::sim::TraceKind;

const T: TxnId = TxnId(1);

/// Run one transaction and compare measured vs. predicted costs.
fn check_costs(kind: CoordinatorKind, outcome: Outcome, pop: Population) {
    let protos: Vec<ProtocolKind> = pop.entries().iter().map(|e| e.protocol).collect();
    let mut s = Scenario::new(kind, &protos);
    s.add_txn(T, SimTime::from_millis(1));
    if outcome == Outcome::Abort {
        // Client abort while all votes are in flight: every participant
        // is prepared — the model's abort situation.
        s.txns[0].abort_at = Some(SimTime::from_micros(1_250));
    }
    let out = run_scenario(&s);
    assert_eq!(out.decided[&T], outcome, "{kind} {outcome} {pop:?}");
    assert_fully_correct(&out);

    let predicted = predict(kind, outcome, pop);
    let coord_costs = out.coordinator_costs[&T];
    assert_eq!(
        coord_costs.forced_writes, predicted.coord_forces,
        "{kind} {outcome} {pop:?}: coordinator forces"
    );
    assert_eq!(
        coord_costs.log_records, predicted.coord_records,
        "{kind} {outcome} {pop:?}: coordinator records"
    );

    let mut part_forces = 0;
    let mut part_records = 0;
    for ((_, t), c) in &out.participant_costs {
        if *t == T {
            part_forces += c.forced_writes;
            part_records += c.log_records;
        }
    }
    assert_eq!(
        part_forces, predicted.part_forces,
        "{kind} {outcome} {pop:?}: participant forces"
    );
    assert_eq!(
        part_records, predicted.part_records,
        "{kind} {outcome} {pop:?}: participant records"
    );

    let total = out.total_costs(T);
    assert_eq!(
        total.messages(),
        predicted.messages,
        "{kind} {outcome} {pop:?}: messages"
    );
}

#[test]
fn e8_homogeneous_populations_all_protocols_both_outcomes() {
    for (proto, pop) in [
        (ProtocolKind::PrN, Population::new(2, 0, 0)),
        (ProtocolKind::PrA, Population::new(0, 2, 0)),
        (ProtocolKind::PrC, Population::new(0, 0, 2)),
        (ProtocolKind::PrN, Population::new(4, 0, 0)),
        (ProtocolKind::PrA, Population::new(0, 4, 0)),
        (ProtocolKind::PrC, Population::new(0, 0, 4)),
    ] {
        for outcome in [Outcome::Commit, Outcome::Abort] {
            check_costs(CoordinatorKind::Single(proto), outcome, pop);
        }
    }
}

#[test]
fn e8_prany_mixed_populations() {
    let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
    for pop in [
        Population::new(1, 1, 1),
        Population::new(0, 1, 1),
        Population::new(1, 1, 0),
        Population::new(1, 0, 1),
        Population::new(2, 2, 2),
    ] {
        for outcome in [Outcome::Commit, Outcome::Abort] {
            check_costs(kind, outcome, pop);
        }
    }
}

#[test]
fn e8_prany_homogeneous_collapses_to_native_costs() {
    let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
    for pop in [
        Population::new(3, 0, 0),
        Population::new(0, 3, 0),
        Population::new(0, 0, 3),
    ] {
        for outcome in [Outcome::Commit, Outcome::Abort] {
            check_costs(kind, outcome, pop);
        }
    }
}

#[test]
fn e8_optimized_policy_costs() {
    let kind = CoordinatorKind::PrAny(SelectionPolicy::Optimized);
    for pop in [
        Population::new(1, 1, 0),
        Population::new(1, 1, 1),
        Population::new(2, 1, 0),
    ] {
        for outcome in [Outcome::Commit, Outcome::Abort] {
            check_costs(kind, outcome, pop);
        }
    }
}

#[test]
fn e8_headline_comparison_prc_cheapest_commit_pra_cheapest_abort() {
    // The ordering argument behind the paper's §1 and the authors'
    // companion ICDE'97 paper: for commits PrC saves the participants'
    // decision forces and the ack round; for aborts PrA saves
    // everything at the coordinator.
    let n = Population::new(0, 3, 0);
    let c = Population::new(0, 0, 3);
    let prn = Population::new(3, 0, 0);

    let commit_prn = predict(
        CoordinatorKind::Single(ProtocolKind::PrN),
        Outcome::Commit,
        prn,
    );
    let commit_pra = predict(
        CoordinatorKind::Single(ProtocolKind::PrA),
        Outcome::Commit,
        n,
    );
    let commit_prc = predict(
        CoordinatorKind::Single(ProtocolKind::PrC),
        Outcome::Commit,
        c,
    );
    assert!(commit_prc.total_forces() < commit_pra.total_forces());
    assert!(commit_prc.messages < commit_pra.messages);
    assert!(commit_pra.total_forces() <= commit_prn.total_forces());

    let abort_prn = predict(
        CoordinatorKind::Single(ProtocolKind::PrN),
        Outcome::Abort,
        prn,
    );
    let abort_pra = predict(
        CoordinatorKind::Single(ProtocolKind::PrA),
        Outcome::Abort,
        n,
    );
    let abort_prc = predict(
        CoordinatorKind::Single(ProtocolKind::PrC),
        Outcome::Abort,
        c,
    );
    assert!(abort_pra.total_forces() < abort_prc.total_forces());
    assert!(abort_pra.messages < abort_prn.messages);
    assert!(abort_prc.total_forces() <= abort_prn.total_forces());
}

#[test]
fn e8_read_only_participants_reduce_measured_costs() {
    let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
    let protos = [ProtocolKind::PrA, ProtocolKind::PrC];

    let mut s = Scenario::new(kind, &protos);
    s.add_txn(T, SimTime::from_millis(1));
    let full = run_scenario(&s).total_costs(T);

    let mut s = Scenario::new(kind, &protos);
    s.add_txn_with_vote(T, SimTime::from_millis(1), site(1), Vote::ReadOnly);
    let out = run_scenario(&s);
    assert_fully_correct(&out);
    let reduced = out.total_costs(T);

    assert!(reduced.forced_writes < full.forced_writes);
    assert!(reduced.messages() < full.messages());
    assert!(reduced.log_records < full.log_records);
}

/// Every cost cell of a run, one line each: the coordinator's, each
/// participant's and each remote acceptor's per transaction, then the
/// transaction's total.
fn cost_rows(out: &ScenarioOutcome) -> Vec<String> {
    let mut rows = Vec::new();
    for (t, c) in &out.coordinator_costs {
        rows.push(format!("coordinator {t}: {c}"));
    }
    for ((s, t), c) in &out.participant_costs {
        rows.push(format!("participant {s} {t}: {c}"));
    }
    for ((s, t), c) in &out.acceptor_costs {
        rows.push(format!("acceptor {s} {t}: {c}"));
    }
    for t in out.coordinator_costs.keys() {
        rows.push(format!("total {t}: {}", out.total_costs(*t)));
    }
    rows
}

/// Costs off the clean path, where E8 does not reach, pinned cell by
/// cell: a crash that loses unflushed records and brings an inquiry, a
/// decision lost on the wire, two transactions in flight at once, and
/// a Paxos Commit failover. The figures are the tallies the engines
/// kept of their own writes and sends before the harness observed them,
/// so they show the observation agrees with the self-report off the
/// clean path too.
#[test]
fn costs_off_the_clean_path_are_pinned() {
    let prany = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
    let mixed = [ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC];

    // The PrC participant crashes after it wrote the commit lazily and
    // before anything flushed it: on restart it is in doubt, inquires,
    // and the presumption answers.
    let mut s = Scenario::new(prany, &mixed);
    s.add_txn(T, SimTime::from_millis(1));
    s.failures = FailureSchedule::single(
        site(3),
        SimTime::from_micros(1_700),
        SimTime::from_millis(5),
    );
    let out = run_scenario(&s);
    assert!(
        sent_count(&out.trace, "inquiry") > 0 && sent_count(&out.trace, "inquiry-response") > 0
    );
    assert_fully_correct(&out);
    assert_eq!(
        cost_rows(&out),
        [
            "coordinator T1: forces=2 records=3 msgs=7 (prep=3 vote=0 dec=3 ack=0 inq=0 resp=1 paxos=0)",
            "participant S1 T1: forces=2 records=3 msgs=2 (prep=0 vote=1 dec=0 ack=1 inq=0 resp=0 paxos=0)",
            "participant S2 T1: forces=2 records=3 msgs=2 (prep=0 vote=1 dec=0 ack=1 inq=0 resp=0 paxos=0)",
            "participant S3 T1: forces=1 records=5 msgs=2 (prep=0 vote=1 dec=0 ack=0 inq=1 resp=0 paxos=0)",
            "total T1: forces=7 records=14 msgs=13 (prep=3 vote=3 dec=3 ack=2 inq=1 resp=1 paxos=0)",
        ],
        "participant crash after its prepared force"
    );

    // The decision to the PrN participant is dropped; the coordinator's
    // ack timeout sends it again.
    let mut s = Scenario::new(prany, &mixed);
    s.add_txn(T, SimTime::from_millis(1));
    s.partitions.push((
        coord(),
        site(1),
        SimTime::from_micros(1_300),
        SimTime::from_micros(1_500),
    ));
    let out = run_scenario(&s);
    assert!(out
        .trace
        .entries()
        .iter()
        .any(|e| matches!(&e.kind, TraceKind::Dropped(m) if m.payload.kind_name() == "decision")));
    assert_fully_correct(&out);
    assert_eq!(
        cost_rows(&out),
        [
            "coordinator T1: forces=2 records=3 msgs=7 (prep=3 vote=0 dec=4 ack=0 inq=0 resp=0 paxos=0)",
            "participant S1 T1: forces=2 records=3 msgs=2 (prep=0 vote=1 dec=0 ack=1 inq=0 resp=0 paxos=0)",
            "participant S2 T1: forces=2 records=3 msgs=2 (prep=0 vote=1 dec=0 ack=1 inq=0 resp=0 paxos=0)",
            "participant S3 T1: forces=1 records=3 msgs=1 (prep=0 vote=1 dec=0 ack=0 inq=0 resp=0 paxos=0)",
            "total T1: forces=7 records=12 msgs=12 (prep=3 vote=3 dec=4 ack=2 inq=0 resp=0 paxos=0)",
        ],
        "dropped decision"
    );

    // Two transactions in flight at once; the second aborts on a No.
    let mut s = Scenario::new(prany, &mixed);
    s.add_txn(T, SimTime::from_millis(1));
    s.add_txn_with_vote(TxnId(2), SimTime::from_micros(1_100), site(2), Vote::No);
    let out = run_scenario(&s);
    assert_fully_correct(&out);
    assert_eq!(
        cost_rows(&out),
        [
            "coordinator T1: forces=2 records=3 msgs=6 (prep=3 vote=0 dec=3 ack=0 inq=0 resp=0 paxos=0)",
            "coordinator T2: forces=1 records=2 msgs=5 (prep=3 vote=0 dec=2 ack=0 inq=0 resp=0 paxos=0)",
            "participant S1 T1: forces=2 records=3 msgs=2 (prep=0 vote=1 dec=0 ack=1 inq=0 resp=0 paxos=0)",
            "participant S1 T2: forces=2 records=3 msgs=2 (prep=0 vote=1 dec=0 ack=1 inq=0 resp=0 paxos=0)",
            "participant S2 T1: forces=2 records=3 msgs=2 (prep=0 vote=1 dec=0 ack=1 inq=0 resp=0 paxos=0)",
            "participant S2 T2: forces=0 records=0 msgs=1 (prep=0 vote=1 dec=0 ack=0 inq=0 resp=0 paxos=0)",
            "participant S3 T1: forces=1 records=3 msgs=1 (prep=0 vote=1 dec=0 ack=0 inq=0 resp=0 paxos=0)",
            "participant S3 T2: forces=2 records=3 msgs=2 (prep=0 vote=1 dec=0 ack=1 inq=0 resp=0 paxos=0)",
            "total T1: forces=7 records=12 msgs=11 (prep=3 vote=3 dec=3 ack=2 inq=0 resp=0 paxos=0)",
            "total T2: forces=5 records=8 msgs=10 (prep=3 vote=3 dec=2 ack=2 inq=0 resp=0 paxos=0)",
        ],
        "two interleaved transactions"
    );

    // Paxos Commit, f = 1: the leader is cut off from the participants
    // and killed after deciding; acceptor rank 1 re-drives the commit.
    let mut s = Scenario::paxos(2, 1);
    s.add_txn(T, SimTime::from_millis(1));
    for p in s.participant_sites() {
        s.partitions.push((
            coord(),
            p,
            SimTime::from_micros(1_300),
            SimTime::from_millis(10_000),
        ));
    }
    s.kills.push((coord(), SimTime::from_millis(2)));
    let out = run_scenario(&s);
    assert_eq!(
        out.decided_by_site.get(&(site(3), T)),
        Some(&Outcome::Commit)
    );
    assert!(check_atomicity(&out.history).is_empty());
    assert_eq!(
        cost_rows(&out),
        [
            "coordinator T1: forces=1 records=1 msgs=8 (prep=2 vote=0 dec=2 ack=0 inq=0 resp=0 paxos=4)",
            "participant S1 T1: forces=2 records=3 msgs=4 (prep=0 vote=1 dec=0 ack=1 inq=2 resp=0 paxos=0)",
            "participant S2 T1: forces=2 records=3 msgs=4 (prep=0 vote=1 dec=0 ack=1 inq=2 resp=0 paxos=0)",
            "acceptor S3 T1: forces=3 records=4 msgs=9 (prep=0 vote=0 dec=2 ack=0 inq=0 resp=0 paxos=7)",
            "acceptor S4 T1: forces=3 records=4 msgs=3 (prep=0 vote=0 dec=0 ack=0 inq=0 resp=0 paxos=3)",
            "total T1: forces=11 records=15 msgs=28 (prep=2 vote=2 dec=4 ack=2 inq=4 resp=0 paxos=14)",
        ],
        "paxos f = 1, leader killed"
    );
}
