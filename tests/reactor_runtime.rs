//! End-to-end tests of the reactor runtime (experiment E13): one event
//! loop driving every site over the sans-IO engines, with trace and
//! cost parity checked against the simulator harness — the independent
//! oracle at the head of the chain sim → reactor → N reactors/socket
//! that `tests/multi_reactor.rs` and `tests/socket_wire.rs` continue
//! byte for byte. Scenarios that hold on every backend live in
//! `tests/runtime_backends.rs`; the retry jitter is pinned on the
//! stepped kernel (`crates/net/src/host.rs`'s tests), not the wall
//! clock.

mod common;

use common::runtime::{glacial, masked_site_traces};
use presumed_any::net::{ClusterReport, GC_RECORDS};
use presumed_any::obs::{parse_flat_json, Counter, ProtoLabel};
use presumed_any::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn mixed_reactor() -> ReactorConfig {
    ReactorConfig::new(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        &[ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC],
    )
}

// ---------------------------------------------------------------------------
// Trace parity with the simulator harness

/// One clean transaction over a single participant (a total causal
/// order, so scheduling cannot reorder a site's events) must produce on
/// the reactor the trace the simulator harness produces — which formats
/// its events with its own code, not the kernel's emission points. Per
/// site the lines are equal as multisets, and byte-identical in order
/// once the two kinds of line whose position is the host's choice are
/// set aside. A lazy write: the simulator notes a handler's sends when
/// it drains them, after everything else the handler did, the kernel
/// where the engine asked for each — so a lazy write the engine made
/// after a send trades places with it (a forced write never follows a
/// send it must precede). A log GC: per finished transaction there, by
/// the kernel's cadence here — once `GC_RECORDS` durable records are
/// releasable, which one transaction never reaches. So the
/// coordinator's `log_gc` lines are the harness's alone, and in their
/// place the kernel's own rule is asserted: nothing pinned, and fewer
/// than `GC_RECORDS` durable records left to release.
#[test]
fn clean_trace_is_byte_identical_across_backends() {
    let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
    for proto in [ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC] {
        let sim = {
            let mut scenario = Scenario::new(kind, &[proto]);
            scenario.add_txn(TxnId::new(1), SimTime::from_millis(1));
            let outcome = run_scenario(&scenario);
            assert_eq!(outcome.decided[&TxnId::new(1)], Outcome::Commit);
            masked_site_traces(&outcome.events)
        };

        let reactor = {
            let sink = Arc::new(VecSink::new());
            let mut config = ReactorConfig::new(kind, &[proto]);
            config.cluster.delays = glacial();
            let mut cluster = ReactorCluster::spawn_with_sink(&config, Arc::clone(&sink) as _);
            let txn = cluster.next_txn();
            let parts = cluster.participants();
            cluster.apply(parts[0], txn, b"k", b"v");
            assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
            cluster.settle(Duration::from_millis(300));
            let report = cluster.shutdown();
            assert_collected_by_the_kernel_rule(&report.cluster);
            masked_site_traces(&sink.snapshot())
        };

        assert_eq!(
            sim.keys().collect::<Vec<_>>(),
            reactor.keys().collect::<Vec<_>>(),
            "{proto}: same sites traced"
        );
        let sorted = |lines: &[String]| {
            let mut lines = lines.to_vec();
            lines.sort();
            lines
        };
        let tagged = |tags: &'static [&str]| {
            move |lines: &[String]| -> Vec<String> {
                let kept = |line: &&String| {
                    let tag = &parse_flat_json(line).expect("trace dialect")["type"];
                    !tags.iter().any(|t| tag.as_str() == Some(t))
                };
                lines.iter().filter(kept).cloned().collect()
            }
        };
        let without_gc = tagged(&["log_gc"]);
        let engine_ordered = tagged(&["non_forced_write", "log_gc"]);
        for (site, lines) in &sim {
            assert_eq!(
                sorted(&without_gc(lines)),
                sorted(&reactor[site]),
                "{proto}, site {site}: the reactor emitted different events than the harness"
            );
            assert_eq!(
                engine_ordered(lines),
                engine_ordered(&reactor[site]),
                "{proto}, site {site}: event order diverged from the harness"
            );
        }
    }
}

/// The kernel's collection rule, checked on a cluster's final state:
/// no site's log is pinned, and the coordinator's holds fewer than
/// `GC_RECORDS` durable releasable records (more would have been
/// collected).
fn assert_collected_by_the_kernel_rule(report: &ClusterReport) {
    for s in &report.sites {
        assert!(s.log_pinned.is_empty(), "site {} pins {:?}", s.site, s.log_pinned);
    }
    let coordinator = &report.sites[0];
    assert_eq!(coordinator.site, ReactorCluster::COORDINATOR);
    assert!(
        coordinator.log_releasable < GC_RECORDS,
        "{} releasable records left uncollected",
        coordinator.log_releasable
    );
}

// ---------------------------------------------------------------------------
// Cost parity with the simulator harness

/// Ten sequential commits count the same on the reactor as under the
/// simulator harness, cell for cell of the `ProtoLabel × Counter` grid:
/// the kernel (sharded protocol table, wall-clock timers) costs exactly
/// what the reference host costs. The coordinator's collection cells
/// are the host's policy, not the protocol's: `GcRuns`,
/// `GcRecordsReleased` and `GcLatencySamples` count one collection per
/// finished transaction there and one per `GC_RECORDS` durable
/// releasable records here, so the kernel's rule is asserted in their
/// place, as `GcLatencyUsSum`'s clock is skipped.
#[test]
fn cost_counters_match_across_backends() {
    let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
    let protos = [ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC];
    const TXNS: u64 = 10;

    let sim = {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = Arc::new(CountingSink::new(Arc::clone(&registry)));
        let mut scenario = Scenario::new(kind, &protos);
        for i in 1..=TXNS {
            // One at a time, as the reactor's client below issues them.
            scenario.add_txn(TxnId::new(i), SimTime::from_millis(20 * i));
        }
        let outcome = run_scenario_with_sink(&scenario, sink as _);
        assert!(outcome.decided.values().all(|o| *o == Outcome::Commit));
        assert_eq!(outcome.decided.len() as u64, TXNS);
        registry
    };

    let reactor = {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = Arc::new(CountingSink::new(Arc::clone(&registry)));
        let mut config = ReactorConfig::new(kind, &protos);
        config.cluster.delays = glacial();
        let mut cluster = ReactorCluster::spawn_with_sink(&config, sink as _);
        let parts = cluster.participants();
        for i in 0..TXNS {
            let txn = cluster.next_txn();
            for &p in &parts {
                cluster.apply(p, txn, format!("k{i}").as_bytes(), b"v");
            }
            assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        }
        cluster.settle(Duration::from_millis(300));
        let report = cluster.shutdown();
        assert_collected_by_the_kernel_rule(&report.cluster);
        registry
    };

    let coordinator = ProtoLabel::of_coordinator(kind);
    for proto in ProtoLabel::ALL {
        for counter in Counter::ALL {
            if counter == Counter::GcLatencyUsSum {
                continue; // simulated vs wall-clock microseconds
            }
            let cadence = [
                Counter::GcRuns,
                Counter::GcRecordsReleased,
                Counter::GcLatencySamples,
            ];
            if proto == coordinator && cadence.contains(&counter) {
                continue; // per transaction vs per `GC_RECORDS` records
            }
            assert_eq!(
                sim.get(proto, counter),
                reactor.get(proto, counter),
                "{proto:?}/{counter:?}: the reactor counted differently than the harness"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Concurrency, timers and crashes

#[test]
fn reactor_sustains_hundreds_of_concurrent_transactions() {
    let mut config = mixed_reactor();
    config.cluster.group_commit = true;
    config.cluster.delays = glacial();
    let mut cluster = ReactorCluster::spawn(&config);
    let parts = cluster.participants();

    const N: usize = 256;
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
    assert_eq!(report.cluster.coordinator_table_size, 0);
    assert_eq!(report.stats.decisions_delivered, N as u64);
    assert!(
        report.stats.max_inflight > 32,
        "expected genuinely concurrent transactions, max in-flight was {}",
        report.stats.max_inflight
    );
    // One fsync per site per tick: far fewer physical syncs than the
    // logical forces the engines requested.
    assert!(
        report.cluster.physical_syncs < report.cluster.logical_forces,
        "batching should amortize forces: {} physical vs {} logical",
        report.cluster.physical_syncs,
        report.cluster.logical_forces
    );
    for s in report
        .cluster
        .sites
        .iter()
        .filter(|s| s.site != ReactorCluster::COORDINATOR)
    {
        assert_eq!(s.committed.len(), N, "site {}", s.site);
    }
}

/// Satellite: timers are cancelled when the decision arrives. Under
/// glacial delays no timer may ever fire in a clean run — every armed
/// vote-timeout / ack-resend / inquiry timer must be retired by
/// protocol progress instead.
#[test]
fn decided_transactions_cancel_their_timers() {
    let mut config = mixed_reactor();
    config.cluster.delays = glacial();
    let mut cluster = ReactorCluster::spawn(&config);
    let parts = cluster.participants();
    for i in 0..5u32 {
        let txn = cluster.next_txn();
        for &p in &parts {
            cluster.apply(p, txn, format!("k{i}").as_bytes(), b"v");
        }
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
    }
    cluster.settle(Duration::from_millis(200));
    let report = cluster.shutdown();
    assert_eq!(report.stats.timers_fired, 0, "clean run fired a timer");
    assert!(
        report.stats.timers_cancelled > 0,
        "decisions should retire pending timers, got {:?}",
        report.stats
    );
}

/// Satellite: a crash during a pending timer fires nothing after
/// recovery — the wheel sweeps the site's entries with its volatile
/// state.
#[test]
fn crash_with_pending_timers_fires_nothing_stale() {
    let mut config = mixed_reactor();
    config.cluster.delays = glacial();
    let mut cluster = ReactorCluster::spawn(&config);
    let parts = cluster.participants();
    let txn = cluster.next_txn();
    for &p in &parts {
        cluster.apply(p, txn, b"k", b"v");
    }
    // Begin commit processing so vote-timeout and inquiry timers arm,
    // then crash a participant while they are pending.
    let rx = cluster.commit_async(txn, &parts);
    std::thread::sleep(Duration::from_millis(5));
    cluster.crash(parts[1], Duration::from_millis(100));
    cluster.settle(Duration::from_millis(500));
    drop(rx);
    let report = cluster.shutdown();
    // Whatever the protocol outcome, no stale timer fired: glacial
    // delays mean any firing would have to be a pre-crash timer
    // surviving the sweep.
    assert_eq!(
        report.stats.timers_fired, 0,
        "a timer armed before the crash fired after it: {:?}",
        report.stats
    );
    assert!(check_atomicity(&report.cluster.history).is_empty());
}

// ---------------------------------------------------------------------------
// Every task kind on the reactor: the replicated coordinator

/// PrN participants under a Paxos Commit coordinator tolerating `f`
/// acceptor failures (`None` = the classic single coordinator).
fn prn_reactor(participants: usize, paxos_f: Option<usize>) -> ReactorConfig {
    let mut config = ReactorConfig::new(
        CoordinatorKind::Single(ProtocolKind::PrN),
        &vec![ProtocolKind::PrN; participants],
    );
    config.cluster.paxos_f = paxos_f;
    config.cluster.delays = glacial();
    config
}

/// The reactor hosts the Paxos leader and its 2f acceptors like any
/// other site: an f = 1 cluster commits, lands the data, reclaims every
/// log and stays atomic.
#[test]
fn reactor_hosts_a_paxos_commit_coordinator() {
    let mut cluster = ReactorCluster::spawn(&prn_reactor(2, Some(1)));
    let parts = cluster.participants();
    assert_eq!(parts, vec![SiteId::new(1), SiteId::new(2)]);
    for i in 0..4u32 {
        let txn = cluster.next_txn();
        for &p in &parts {
            cluster.apply(p, txn, format!("k{i}").as_bytes(), b"v");
        }
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
    }
    cluster.settle(Duration::from_millis(300));
    let report = cluster.shutdown();
    assert!(check_atomicity(&report.cluster.history).is_empty());
    assert_eq!(report.cluster.sites.len(), 5, "leader, 2 participants, 2 acceptors");
    for s in &report.cluster.sites {
        if parts.contains(&s.site) {
            assert_eq!(s.committed.len(), 4, "site {}", s.site);
        }
        assert!(s.log_pinned.is_empty(), "site {} pins {:?}", s.site, s.log_pinned);
    }
    assert_eq!(report.cluster.coordinator_table_size, 0);
    assert_eq!(report.stats.timers_fired, 0, "clean run fired a timer");
}

/// 2PC is the f = 0 degeneracy of Paxos Commit, literally: with one
/// acceptor co-located with the leader, a single transaction's trace is
/// the PrN coordinator's. The participant's is byte-identical; the
/// coordinator's differs only in its label, in the name of its decision
/// record (one `paxos-accept` bundle instead of `commit`) and in noting
/// the decision after forcing that record rather than before — so at
/// site 0 those two fields are masked and the decision line is compared
/// apart from the message-and-write sequence around it.
#[test]
fn paxos_f0_trace_is_the_prn_coordinator_trace() {
    let trace = |paxos_f| {
        let sink = Arc::new(VecSink::new());
        let mut cluster =
            ReactorCluster::spawn_with_sink(&prn_reactor(1, paxos_f), Arc::clone(&sink) as _);
        let txn = cluster.next_txn();
        let parts = cluster.participants();
        cluster.apply(parts[0], txn, b"k", b"v");
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        cluster.settle(Duration::from_millis(300));
        let _ = cluster.shutdown();
        let mut by_site = masked_site_traces(&sink.snapshot());
        let coordinator: Vec<String> = by_site.remove(&0).expect("site 0 traced");
        let unlabelled = |line: &String| {
            let mut map = parse_flat_json(line).expect("trace dialect");
            map.remove("proto");
            map.remove("record");
            format!("{map:?}")
        };
        let (decisions, rest): (Vec<String>, Vec<String>) = coordinator
            .iter()
            .map(unlabelled)
            .partition(|line| line.contains("decision_reached"));
        (by_site, decisions, rest)
    };
    let (prn_sites, prn_decisions, prn_rest) = trace(None);
    let (paxos_sites, paxos_decisions, paxos_rest) = trace(Some(0));
    assert_eq!(prn_sites, paxos_sites, "the participant cannot tell the difference");
    assert_eq!(prn_decisions.len(), 1);
    assert_eq!(prn_decisions, paxos_decisions);
    assert_eq!(prn_rest, paxos_rest, "same messages and log writes, in the same order");
}
