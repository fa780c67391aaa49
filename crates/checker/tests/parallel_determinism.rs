//! The parallel checker must be a pure optimization: for every
//! configuration the experiments run, the report at `threads = 4` (and
//! an oversubscribed `threads = 7`) must equal the `threads = 1` report
//! field-for-field — state counts, terminal statistics, and the full
//! canonicalized counterexample list including representative trails.

use acp_check::{check, CheckConfig, CheckReport};
use acp_types::{CoordinatorKind, ProtocolKind, SelectionPolicy};

/// Compare every observable field of two reports.
fn assert_identical(a: &CheckReport, b: &CheckReport, what: &str) {
    assert_eq!(
        a.states_explored, b.states_explored,
        "{what}: states_explored"
    );
    assert_eq!(
        a.terminal_states, b.terminal_states,
        "{what}: terminal_states"
    );
    assert_eq!(
        a.terminal_states_fully_forgotten, b.terminal_states_fully_forgotten,
        "{what}: terminal_states_fully_forgotten"
    );
    assert_eq!(
        a.max_terminal_table, b.max_terminal_table,
        "{what}: max_terminal_table"
    );
    assert_eq!(a.truncated, b.truncated, "{what}: truncated");
    assert_eq!(
        a.counterexamples.len(),
        b.counterexamples.len(),
        "{what}: counterexample count"
    );
    for (i, (ca, cb)) in a.counterexamples.iter().zip(&b.counterexamples).enumerate() {
        assert_eq!(
            ca.violation, cb.violation,
            "{what}: counterexample {i} violation"
        );
        assert_eq!(ca.trail, cb.trail, "{what}: counterexample {i} trail");
        assert_eq!(ca.history, cb.history, "{what}: counterexample {i} history");
        assert_eq!(ca.count, cb.count, "{what}: counterexample {i} count");
    }
    // Belt and braces: the rendered forms must be byte-identical too.
    assert_eq!(a.to_string(), b.to_string(), "{what}: Display");
}

fn run_all_thread_counts(kind: CoordinatorKind, what: &str) {
    let base = CheckConfig::new(kind, &[ProtocolKind::PrA, ProtocolKind::PrC]);
    config_at_all_thread_counts(&base, what);
}

fn config_at_all_thread_counts(base: &CheckConfig, what: &str) {
    let serial = check(&base.clone().with_threads(1));
    for threads in [4, 7] {
        let parallel = check(&base.clone().with_threads(threads));
        assert_identical(&serial, &parallel, &format!("{what} threads={threads}"));
    }
}

#[test]
fn u2pc_prn_report_is_thread_count_independent() {
    run_all_thread_counts(CoordinatorKind::U2pc(ProtocolKind::PrN), "U2PC/PrN");
}

#[test]
fn u2pc_prc_report_is_thread_count_independent() {
    run_all_thread_counts(CoordinatorKind::U2pc(ProtocolKind::PrC), "U2PC/PrC");
}

#[test]
fn c2pc_report_is_thread_count_independent() {
    run_all_thread_counts(CoordinatorKind::C2pc(ProtocolKind::PrN), "C2PC/PrN");
}

#[test]
fn prany_report_is_thread_count_independent() {
    run_all_thread_counts(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        "PrAny/PaperStrict",
    );
}

/// A replicated coordinator goes through the same explorer: kills, the
/// dead set and the quiescent-timer rule must not depend on scheduling
/// either. One crash+recover on top of the default leader-failover
/// envelope makes levels wide enough (25 512 states) to fan out.
#[test]
fn paxos_report_is_thread_count_independent() {
    let mut base = CheckConfig::paxos(2, 1);
    base.crashes = 1;
    config_at_all_thread_counts(&base, "Paxos n=2 f=1");
}

/// The default (auto) thread count must also match — this is what the
/// experiment binaries actually run with.
#[test]
fn auto_threads_matches_serial() {
    let base = CheckConfig::new(
        CoordinatorKind::U2pc(ProtocolKind::PrC),
        &[ProtocolKind::PrA, ProtocolKind::PrC],
    );
    let serial = check(&base.clone().with_threads(1));
    let auto = check(&base);
    assert_identical(&serial, &auto, "auto threads");
}
