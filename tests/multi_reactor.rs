//! End-to-end tests of the reactor at N shards (experiment E14): N
//! event-loop threads over the same sans-IO engines, with 1-vs-N
//! determinism, trace parity, cost parity, crash semantics and
//! fsync-domain coalescing checks.

mod common;

use common::runtime::{glacial, masked_site_traces};
use presumed_any::obs::Counter;
use presumed_any::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn mixed_multi(reactors: usize) -> ReactorConfig {
    let mut config = ReactorConfig::new(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        &[ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC],
    );
    config.reactors = reactors;
    config
}

// ---------------------------------------------------------------------------
// Acceptance: byte-identical single-transaction traces per shard

/// One clean transaction over a single participant must produce the
/// same per-site trace, byte for byte modulo timestamps, on the
/// single-reactor backend and on the multi-reactor backend at
/// N ∈ {1, 2, 4} — the partition moves work across threads but may
/// not change what any site does.
#[test]
fn single_txn_traces_byte_identical_at_any_reactor_count() {
    let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
    let protos = [ProtocolKind::PrA];

    let baseline = {
        let sink = Arc::new(VecSink::new());
        let mut cluster = ReactorCluster::spawn_with_sink(
            &ReactorConfig::new(kind, &protos),
            Arc::clone(&sink) as _,
        );
        let txn = cluster.next_txn();
        let parts = cluster.participants();
        cluster.apply(parts[0], txn, b"k", b"v");
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        cluster.settle(Duration::from_millis(300));
        let _ = cluster.shutdown();
        masked_site_traces(&sink.snapshot())
    };

    for n in [1usize, 2, 4] {
        let sink = Arc::new(VecSink::new());
        let mut config = ReactorConfig::new(kind, &protos);
        config.reactors = n;
        let mut cluster = ReactorCluster::spawn_with_sink(&config, Arc::clone(&sink) as _);
        let txn = cluster.next_txn();
        let parts = cluster.participants();
        cluster.apply(parts[0], txn, b"k", b"v");
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        cluster.settle(Duration::from_millis(300));
        let _ = cluster.shutdown();
        let traces = masked_site_traces(&sink.snapshot());
        assert_eq!(
            baseline.keys().collect::<Vec<_>>(),
            traces.keys().collect::<Vec<_>>(),
            "N={n}: same sites traced"
        );
        for (site, lines) in &baseline {
            assert_eq!(
                lines, &traces[site],
                "N={n}, site {site}: trace diverged from single-reactor backend"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Acceptance: deterministic outcomes and identical cost counters 1 vs N

/// The same deterministic transaction set — disjoint keys, a fixed
/// subset forced to vote No — must produce identical per-transaction
/// outcomes and identical aggregate protocol cost counters on 1, 2 and
/// 4 reactors. Scheduling-dependent amortization counters (batch
/// composition, GC run granularity, wall-clock latency) are excluded;
/// every protocol-action counter must match exactly.
#[test]
fn stress_outcomes_and_cost_counters_identical_1_vs_n_reactors() {
    const TXNS: u64 = 48;
    let run = |n: usize| {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = Arc::new(CountingSink::new(Arc::clone(&registry)));
        let mut config = mixed_multi(n);
        config.cluster.delays = glacial();
        config.cluster.group_commit = true;
        let mut cluster = ReactorCluster::spawn_with_sink(&config, sink as _);
        let parts = cluster.participants();
        let mut pending = Vec::new();
        for i in 0..TXNS {
            let txn = cluster.next_txn();
            for &p in &parts {
                cluster.apply(p, txn, format!("key-{i}").as_bytes(), b"v");
            }
            if i % 7 == 3 {
                cluster.set_intent(parts[0], txn, Vote::No);
            }
            pending.push((txn, cluster.commit_async(txn, &parts)));
        }
        let outcomes: Vec<(TxnId, Outcome)> = pending
            .into_iter()
            .map(|(txn, rx)| {
                (
                    txn,
                    rx.recv_timeout(Duration::from_secs(30)).expect("decision"),
                )
            })
            .collect();
        cluster.settle(Duration::from_millis(500));
        let report = cluster.shutdown();
        assert!(check_atomicity(&report.cluster.history).is_empty());
        assert_eq!(
            report.cluster.coordinator_table_size, 0,
            "N={n}: records left unreclaimed"
        );
        (outcomes, registry, report)
    };

    let (outcomes_1, registry_1, _) = run(1);
    assert_eq!(
        outcomes_1.iter().filter(|(_, o)| *o == Outcome::Abort).count(),
        (0..TXNS).filter(|i| i % 7 == 3).count(),
        "forced aborts present in the baseline"
    );
    for n in [2usize, 4] {
        let (outcomes_n, registry_n, report) = run(n);
        assert_eq!(
            outcomes_1, outcomes_n,
            "N={n}: per-transaction outcomes diverged from single reactor"
        );
        assert!(
            report.stats.mailbox_sends > 0,
            "N={n}: partition never exercised a cross-shard mailbox"
        );
        for proto in ProtoLabel::ALL {
            for counter in Counter::ALL {
                match counter {
                    // Wall-clock and amortization accounting is
                    // scheduling-dependent by nature: batch composition
                    // and GC-run granularity change with the partition
                    // while the underlying protocol actions do not.
                    Counter::GcLatencyUsSum
                    | Counter::GcLatencySamples
                    | Counter::GcRuns
                    | Counter::BatchedForces
                    | Counter::BatchOccupancy => continue,
                    _ => {}
                }
                assert_eq!(
                    registry_1.get(proto, counter),
                    registry_n.get(proto, counter),
                    "N={n}: {proto:?}/{counter:?} diverged from single reactor"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Crash semantics across the partition

/// Crashing the coordinator crashes every slice of it, but the N
/// slices are one logical site: the trace must record exactly one
/// crash and one recovery, and the cluster must converge.
#[test]
fn coordinator_crash_broadcasts_to_all_slices_as_one_logical_crash() {
    let sink = Arc::new(VecSink::new());
    let mut cluster = ReactorCluster::spawn_with_sink(&mixed_multi(2), Arc::clone(&sink) as _);
    let parts = cluster.participants();
    let txn = cluster.next_txn();
    for &p in &parts {
        cluster.apply(p, txn, b"k", b"v");
    }
    let _ = cluster.commit_async(txn, &parts);
    cluster.crash(ReactorCluster::COORDINATOR, Duration::from_millis(200));
    cluster.settle(Duration::from_secs(3));
    let report = cluster.shutdown();
    let v = check_atomicity(&report.cluster.history);
    assert!(v.is_empty(), "{v:?}");
    let events = sink.snapshot();
    let crashes = events
        .iter()
        .filter(|e| matches!(e, ProtocolEvent::CrashObserved { .. }))
        .count();
    let restarts = events
        .iter()
        .filter(|e| {
            matches!(e, ProtocolEvent::RecoveryStep { detail, .. }
                if detail.starts_with("site back up"))
        })
        .count();
    assert_eq!(crashes, 1, "N slices crashed as one logical site");
    assert_eq!(restarts, 1, "N slices recovered as one logical site");
}

// ---------------------------------------------------------------------------
// Per-shard fsync domains

/// Under concurrent load with group commit on, each shard is one
/// coalesced force domain: per turn one member leads the round and the
/// rest follow, so rounds stay far below the records they flush and
/// physical syncs stay below logical forces.
#[test]
fn each_shard_is_one_coalesced_fsync_domain() {
    let mut config = mixed_multi(2);
    config.cluster.delays = glacial();
    config.cluster.group_commit = true;
    let mut cluster = ReactorCluster::spawn(&config);
    let parts = cluster.participants();
    const N: usize = 128;
    let mut pending = Vec::with_capacity(N);
    for i in 0..N {
        let txn = cluster.next_txn();
        for &p in &parts {
            cluster.apply(p, txn, format!("key-{i}").as_bytes(), b"v");
        }
        pending.push((txn, cluster.commit_async(txn, &parts)));
    }
    for (txn, rx) in pending {
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(30)).ok(),
            Some(Outcome::Commit),
            "txn {txn}"
        );
    }
    cluster.settle(Duration::from_millis(300));
    let report = cluster.shutdown();
    assert!(check_atomicity(&report.cluster.history).is_empty());
    assert_eq!(report.stats.decisions_delivered, N as u64);
    assert!(
        report.max_inflight > 16,
        "expected genuinely concurrent transactions, peak in-flight was {}",
        report.max_inflight
    );
    for s in &report.per_shard {
        assert!(
            s.fsync.rounds > 0,
            "shard {}: no force rounds despite committing load",
            s.shard
        );
        assert!(
            s.fsync.records >= s.fsync.rounds,
            "shard {}: {:?}",
            s.shard,
            s.fsync
        );
    }
    // Coalescing proof: members joined rounds another member led, and
    // round count is well below the records flushed through them.
    assert!(
        report.fsync.follower_flushes > 0,
        "no member ever joined a round it did not lead: {:?}",
        report.fsync
    );
    assert!(
        report.fsync.rounds < report.fsync.records,
        "rounds should amortize records: {:?}",
        report.fsync
    );
    assert!(
        report.cluster.physical_syncs < report.cluster.logical_forces,
        "batching should amortize forces: {} physical vs {} logical",
        report.cluster.physical_syncs,
        report.cluster.logical_forces
    );
}

// ---------------------------------------------------------------------------
// Observability: one registry, read while the cluster runs

/// Every shard traces into the one `CountingSink` the caller passed,
/// so one registry counts the whole cluster, and it can be read
/// mid-run: once the last commit returns, every decision and the
/// forces behind it are already counted, before any shutdown merge.
#[test]
fn one_counting_sink_counts_every_shard_while_the_cluster_runs() {
    let mut config = mixed_multi(2);
    config.cluster.delays = glacial();
    let registry = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(CountingSink::new(Arc::clone(&registry)));
    let mut cluster = ReactorCluster::spawn_with_sink(&config, sink as _);
    let parts = cluster.participants();
    const TXNS: u64 = 6;
    for i in 0..TXNS {
        let txn = cluster.next_txn();
        for &p in &parts {
            cluster.apply(p, txn, format!("k{i}").as_bytes(), b"v");
        }
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
    }
    let live = registry.snapshot(0);
    assert_eq!(live.total(Counter::DecisionsReached), TXNS);
    assert!(live.total(Counter::ForcedWrites) > 0, "no force counted");
    let report = cluster.shutdown();
    assert!(
        report.stats.mailbox_sends > 0,
        "the two shards never exchanged mail"
    );
}

/// Paxos Commit routes cleanly under `owner_shard`: the leader at site
/// 0 is sliced by transaction id like any coordinator (each slice is
/// also acceptor 0 for its own transactions), the dedicated acceptors
/// past the participants live on one shard each like any site. An
/// f = 1 cluster over two reactors commits and stays atomic.
#[test]
fn paxos_commit_runs_sliced_across_reactors() {
    let mut reactor = ReactorConfig::new(
        CoordinatorKind::Single(ProtocolKind::PrN),
        &[ProtocolKind::PrN, ProtocolKind::PrN],
    );
    reactor.cluster.paxos_f = Some(1);
    reactor.cluster.delays = glacial();
    reactor.reactors = 2;
    let mut cluster = ReactorCluster::spawn(&reactor);
    let parts = cluster.participants();
    const TXNS: usize = 8;
    for i in 0..TXNS {
        let txn = cluster.next_txn();
        for &p in &parts {
            cluster.apply(p, txn, format!("k{i}").as_bytes(), b"v");
        }
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit), "txn {i}");
    }
    cluster.settle(Duration::from_millis(300));
    let report = cluster.shutdown();
    assert!(check_atomicity(&report.cluster.history).is_empty());
    assert!(report.stats.mailbox_sends > 0, "the acceptors sit on both shards");
    assert_eq!(report.stats.timers_fired, 0, "clean run fired a timer");
    assert_eq!(report.cluster.coordinator_table_size, 0);
    for s in &report.cluster.sites {
        if parts.contains(&s.site) {
            assert_eq!(s.committed.len(), TXNS, "site {}", s.site);
        }
        assert!(s.log_pinned.is_empty(), "site {} pins {:?}", s.site, s.log_pinned);
    }
}
