//! Footnote-5 regression: the no-memory presumption assumes FIFO links.
//!
//! Footnote 5 lets a participant with *no memory* of a transaction ack
//! a decision immediately, on the assumption that no memory means
//! "already received, enforced and forgotten the decision". That
//! inference is sound only on FIFO links, where a decision cannot
//! arrive before the prepare that precedes it. Under reordering the
//! chain breaks for PrC:
//!
//! 1. the coordinator's `Decision(abort)` overtakes the delayed
//!    `Prepare` at one participant;
//! 2. the participant has no memory, so footnote 5 applies — PrC acks
//!    aborts, so it acks without having enforced anything;
//! 3. the coordinator collects every ack and (being presumed-commit)
//!    forgets the aborted transaction;
//! 4. the late `Prepare` finally arrives; the participant prepares and
//!    is now in doubt;
//! 5. its inquiry reaches a coordinator with no memory, which answers
//!    by PrC's presumption: *commit* — and the participant enforces
//!    commit against a globally aborted transaction.
//!
//! The test demonstrates the resulting atomicity violation under
//! `fifo: false` and asserts the ACTA checkers catch it; the control
//! run shows the identical schedule parameters are clean under
//! `fifo: true` (the default, which every other test relies on).

mod common;

use common::*;
use presumed_any::prelude::*;

const T: TxnId = TxnId(1);

/// High-jitter network so a decision can overtake a prepare when FIFO
/// ordering is off.
fn jittery(fifo: bool) -> NetworkConfig {
    NetworkConfig {
        min_latency: SimTime::from_micros(100),
        max_latency: SimTime::from_millis(30),
        loss_probability: 0.0,
        fifo,
    }
}

/// A client abort shortly after initiation: the abort decision goes out
/// while some prepares are still in flight, maximizing the overtake
/// window.
fn scenario(fifo: bool, seed: u64) -> Scenario {
    let protos = [ProtocolKind::PrC, ProtocolKind::PrC, ProtocolKind::PrC];
    let mut s = Scenario::new(CoordinatorKind::Single(ProtocolKind::PrC), &protos);
    s.network = jittery(fifo);
    s.seed = seed;
    s.add_txn(T, SimTime::from_millis(1));
    s.txns[0].abort_at = Some(SimTime::from_micros(1_400));
    s
}

const SEEDS: std::ops::Range<u64> = 0..40;

#[test]
fn non_fifo_breaks_footnote_5_and_the_checkers_catch_it() {
    let mut violating_seeds = 0u32;
    for seed in SEEDS {
        let out = run_scenario(&scenario(false, seed));
        let atomicity = check_atomicity(&out.history);
        if atomicity.is_empty() {
            continue;
        }
        violating_seeds += 1;
        // The violation is exactly the footnote-5 failure: some
        // participant enforced *commit* for the aborted transaction
        // after being answered by PrC's presumption.
        assert_eq!(out.decided.get(&T), Some(&Outcome::Abort), "seed {seed}");
        let wrong_commit = out
            .enforced
            .iter()
            .any(|((_, txn), o)| *txn == T && *o == Outcome::Commit);
        assert!(
            wrong_commit,
            "seed {seed}: atomicity violation without a presumed commit: {atomicity:?}"
        );
        // The history must show the inquiry answered by presumption —
        // the ACTA predicate pinpoints step 5 of the failure chain.
        let by_presumption = out.history.events().any(|e| {
            matches!(
                e,
                ActaEvent::Respond {
                    by_presumption: true,
                    outcome: Outcome::Commit,
                    ..
                }
            )
        });
        assert!(
            by_presumption,
            "seed {seed}: commit was enforced but not via a presumption answer"
        );
    }
    assert!(
        violating_seeds > 0,
        "no seed in {SEEDS:?} reordered a decision past its prepare; \
         widen the latency jitter"
    );
}

/// Control: the same schedules on FIFO links are fully correct — the
/// footnote-5 inference holds whenever links deliver in order, which is
/// the §2 system model every protocol in the paper assumes.
#[test]
fn fifo_control_is_fully_correct() {
    for seed in SEEDS {
        let out = run_scenario(&scenario(true, seed));
        assert_fully_correct(&out);
        assert_eq!(out.decided.get(&T), Some(&Outcome::Abort), "seed {seed}");
    }
}

/// The same footnote-5 chain over **real sockets**: TCP is FIFO, so the
/// violation cannot occur naturally — the wire fault layer delays the
/// `Prepare` frame at the sender, letting the abort `Decision` overtake
/// it on the wire, and the receiver's sequence-number watermark records
/// the reordering as a genuine `seq_regression`.
#[cfg(unix)]
mod socket {
    use super::*;
    use crate::common::runtime::sockets::write_peers;
    use presumed_any::net::wire::{
        shared_history, AddressBook, FaultRule, NodeConfig, SocketNode, WireFaults,
    };
    use presumed_any::obs::WireSnapshot;
    use presumed_any::wal::tempdir::TempDir;
    use std::sync::Arc;
    use std::time::Duration;

    struct SocketRun {
        history: History,
        outcome: Outcome,
        /// Outcomes site 1 enforced, from its node's final report.
        site1_enforced: Vec<Outcome>,
        /// Coordinator-node transport counters (fault injection side).
        coord_wire: WireSnapshot,
        /// Participant-node transport counters (reordering observer).
        part_wire: WireSnapshot,
    }

    /// One aborting transaction, coordinator and participants in
    /// separate socket nodes, with `faults` installed on the
    /// coordinator's outbound wire.
    fn run(faults: WireFaults) -> SocketRun {
        let dir = TempDir::new("socket-fifo").expect("tempdir");
        let peers = dir.path().join("peers");
        let cluster = ClusterConfig::new(
            CoordinatorKind::Single(ProtocolKind::PrC),
            &[ProtocolKind::PrC, ProtocolKind::PrC],
        );
        let history = shared_history();
        let mut config = NodeConfig::new(
            cluster.clone(),
            vec![SiteId::new(0)],
            AddressBook::File(peers.clone()),
            dir.path().join("n0"),
        );
        std::fs::create_dir_all(dir.path().join("n0")).expect("wal dir");
        std::fs::create_dir_all(dir.path().join("n1")).expect("wal dir");
        config.faults = faults;
        let mut coord =
            SocketNode::spawn_with(config, None, Arc::clone(&history)).expect("coord node");
        let part = SocketNode::spawn_with(
            NodeConfig::new(
                cluster,
                vec![SiteId::new(1), SiteId::new(2)],
                AddressBook::File(peers.clone()),
                dir.path().join("n1"),
            ),
            None,
            Arc::clone(&history),
        )
        .expect("part node");
        write_peers(
            &peers,
            &[
                (0, coord.local_addr()),
                (1, part.local_addr()),
                (2, part.local_addr()),
            ],
        );

        let parts = coord.participants();
        let txn = coord.next_txn();
        for &p in &parts {
            coord.apply(p, txn, b"k", b"v");
        }
        // Site 2 vetoes, so the coordinator aborts as soon as that vote
        // lands — long before site 1's delayed Prepare is released.
        coord.set_intent(SiteId::new(2), txn, Vote::No);
        let outcome = coord.commit(txn, &parts).expect("decision");
        // Let the late Prepare land, the in-doubt inquiry fire, and the
        // presumption answer flow back.
        coord.settle(Duration::from_millis(1_500));
        let coord_report = coord.shutdown();
        let part_report = part.shutdown();
        let site1_enforced = part_report
            .cluster
            .sites
            .iter()
            .find(|s| s.site == SiteId::new(1))
            .expect("site 1 summary")
            .enforced
            .values()
            .copied()
            .collect();
        let merged = history.lock().clone();
        SocketRun {
            history: merged,
            outcome,
            site1_enforced,
            coord_wire: coord_report.wire,
            part_wire: part_report.wire,
        }
    }

    #[test]
    fn delayed_prepare_frame_breaks_footnote_5_over_tcp() {
        let out = run(WireFaults::none().rule(FaultRule::delay_all(
            SiteId::new(1),
            "prepare",
            Duration::from_millis(300),
        )));
        assert_eq!(out.outcome, Outcome::Abort, "site 2's veto must abort");
        assert!(
            out.coord_wire.fault_delays >= 1,
            "the Prepare frame must have been held: {:?}",
            out.coord_wire
        );
        assert!(
            out.part_wire.seq_regressions >= 1,
            "the released frame must arrive out of sequence: {:?}",
            out.part_wire
        );
        // Step 5 of the footnote-5 chain: the forgotten coordinator
        // answers the in-doubt participant by PrC's presumption.
        assert!(
            out.history.events().any(|e| matches!(
                e,
                ActaEvent::Respond {
                    by_presumption: true,
                    outcome: Outcome::Commit,
                    ..
                }
            )),
            "no presumption answer in the history"
        );
        assert!(
            out.site1_enforced.contains(&Outcome::Commit),
            "site 1 must enforce commit against the global abort: {:?}",
            out.site1_enforced
        );
        assert!(
            !check_atomicity(&out.history).is_empty(),
            "the ACTA atomicity predicate must flag the violation"
        );
    }

    /// Control: the identical cluster with a clean wire is FIFO (TCP
    /// guarantees it), so the same veto schedule is fully correct.
    #[test]
    fn clean_tcp_is_fifo_and_correct() {
        let out = run(WireFaults::none());
        assert_eq!(out.outcome, Outcome::Abort);
        assert_eq!(
            out.part_wire.seq_regressions, 0,
            "TCP must deliver in order"
        );
        assert!(
            !out.site1_enforced.contains(&Outcome::Commit),
            "no participant may enforce commit: {:?}",
            out.site1_enforced
        );
        assert!(check_atomicity(&out.history).is_empty());
    }
}
