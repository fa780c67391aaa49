//! Paxos Commit over the socket wire backend (experiment E16): a
//! replicated coordinator spread across real loopback-TCP nodes.
//!
//! The headline pair mirrors the simulator's: one schedule — decide
//! commit, lose the decisions, kill the leader — leaves participants
//! in doubt forever under the f = 0 degenerate cluster (that *is*
//! 2PC), while the same schedule under f = 1 reaches global commit
//! because an acceptor's completion watchdog runs the failover round
//! and re-drives the decision from the replicated bundle.
#![cfg(unix)]

mod common;

use common::runtime::sockets::spawn_nodes;
use presumed_any::net::wire::FaultRule;
use presumed_any::net::NetDelays;
use presumed_any::prelude::*;
use presumed_any::wal::tempdir::TempDir;
use std::time::Duration;

/// Paxos-shaped cluster: `n` PrN participants, `2f` remote acceptors
/// past them, leader at site 0. Delays keep clean runs timer-silent
/// but let the acceptor watchdog fire within a test's patience.
fn paxos_cluster(n: usize, f: usize) -> ClusterConfig {
    let mut cluster = ClusterConfig::new(
        CoordinatorKind::Single(ProtocolKind::PrN),
        &vec![ProtocolKind::PrN; n],
    );
    cluster.paxos_f = Some(f);
    cluster.delays = NetDelays {
        vote_timeout: Duration::from_secs(60),
        ack_resend: Duration::from_millis(200),
        inquiry_retry: Duration::from_millis(250),
        apply_retry: Duration::from_secs(60),
        paxos_completion: Duration::from_millis(300),
    };
    cluster
}

/// Sanity: a 2f + 1 = 3 acceptor cluster split over four processes
/// commits cleanly, lands the data at every participant, and the
/// merged history satisfies the ACTA atomicity predicate.
#[test]
fn paxos_cluster_commits_cleanly_over_sockets() {
    let cluster = paxos_cluster(2, 1);
    let dir = TempDir::new("socket-paxos-clean").expect("tempdir");
    // One node per failure domain: the leader alone, the participants,
    // each remote acceptor alone.
    let hostings: [&[u32]; 4] = [&[0], &[1, 2], &[3], &[4]];
    let none = |_| WireFaults::none();
    let (mut nodes, history) = spawn_nodes(&cluster, dir.path(), &hostings, None, none);
    let parts = nodes[0].participants();
    assert_eq!(parts, vec![SiteId::new(1), SiteId::new(2)]);

    let txn = nodes[0].next_txn();
    for &p in &parts {
        nodes[0].apply(p, txn, b"balance", b"100");
    }
    assert_eq!(nodes[0].commit(txn, &parts), Some(Outcome::Commit));
    nodes[0].settle(Duration::from_millis(500));

    let reports: Vec<_> = nodes.drain(..).map(SocketNode::shutdown).collect();
    assert!(check_atomicity(&history.lock().clone()).is_empty());
    for report in &reports {
        for s in &report.cluster.sites {
            if parts.contains(&s.site) {
                assert_eq!(
                    s.enforced.get(&txn),
                    Some(&Outcome::Commit),
                    "site {} enforced",
                    s.site
                );
                assert_eq!(
                    s.committed.get(b"balance".as_slice()).map(Vec::as_slice),
                    Some(b"100".as_slice()),
                    "site {} data",
                    s.site
                );
            }
            // Clean runs reclaim every protocol log, acceptors included.
            assert!(
                s.log_pinned.is_empty(),
                "site {} still pins {:?}",
                s.site,
                s.log_pinned
            );
        }
    }
}

/// The leader decides commit but every decision frame to the
/// participants is lost, and then the leader process dies. With the
/// degenerate single-acceptor cluster (f = 0, i.e. plain 2PC) there is
/// nobody left who knows the outcome: the participants stay prepared
/// and in doubt for as long as we care to watch.
#[test]
fn leader_kill_after_decision_blocks_the_f0_cluster() {
    let cluster = paxos_cluster(2, 0);
    let dir = TempDir::new("socket-paxos-stuck").expect("tempdir");
    let drop_decisions = |i: usize| {
        if i == 0 {
            WireFaults::none()
                .rule(FaultRule::drop_all(SiteId::new(1), "decision"))
                .rule(FaultRule::drop_all(SiteId::new(2), "decision"))
        } else {
            WireFaults::none()
        }
    };
    let hostings: [&[u32]; 3] = [&[0], &[1], &[2]];
    let (mut nodes, history) = spawn_nodes(&cluster, dir.path(), &hostings, None, drop_decisions);
    let parts = nodes[0].participants();

    let txn = nodes[0].next_txn();
    for &p in &parts {
        nodes[0].apply(p, txn, b"k", b"v");
    }
    // The decision is durable at the leader (the client reply is
    // process-local, so the wire faults cannot touch it) ...
    assert_eq!(nodes[0].commit(txn, &parts), Some(Outcome::Commit));
    // ... and then the leader is gone for longer than the test lives.
    nodes[0].crash(SiteId::new(0), Duration::from_secs(120));
    nodes[0].settle(Duration::from_secs(2));

    let reports: Vec<_> = nodes.drain(..).map(SocketNode::shutdown).collect();
    // Blocked, not broken: nothing enforced anywhere, still atomic.
    assert!(check_atomicity(&history.lock().clone()).is_empty());
    for report in &reports {
        for s in &report.cluster.sites {
            if parts.contains(&s.site) {
                assert!(
                    s.enforced.is_empty(),
                    "site {} must still be in doubt, enforced {:?}",
                    s.site,
                    s.enforced
                );
                assert!(s.committed.is_empty(), "site {} leaked data", s.site);
            }
        }
    }
}

/// The same schedule against 2f + 1 = 3 acceptors: the decision
/// survives in the acceptors' logs, so when the leader dies the
/// first remote acceptor's completion watchdog runs phase 1 at a
/// higher ballot, finds every instance chose Prepared, re-drives the
/// commit, and pushes the decision to the participants itself.
#[test]
fn leader_kill_after_decision_fails_over_and_commits_under_f1() {
    let cluster = paxos_cluster(2, 1);
    let dir = TempDir::new("socket-paxos-failover").expect("tempdir");
    let drop_decisions = |i: usize| {
        if i == 0 {
            WireFaults::none()
                .rule(FaultRule::drop_all(SiteId::new(1), "decision"))
                .rule(FaultRule::drop_all(SiteId::new(2), "decision"))
        } else {
            WireFaults::none()
        }
    };
    let hostings: [&[u32]; 4] = [&[0], &[1], &[2], &[3, 4]];
    let (mut nodes, history) = spawn_nodes(&cluster, dir.path(), &hostings, None, drop_decisions);
    let parts = nodes[0].participants();

    let txn = nodes[0].next_txn();
    for &p in &parts {
        nodes[0].apply(p, txn, b"k", b"v");
    }
    assert_eq!(nodes[0].commit(txn, &parts), Some(Outcome::Commit));
    nodes[0].crash(SiteId::new(0), Duration::from_secs(120));
    // Failover budget: the rank-1 watchdog fires at ~600 ms (plus
    // jitter), phase 1 and the re-driven decision take a few more
    // round trips.
    nodes[0].settle(Duration::from_secs(4));

    let reports: Vec<_> = nodes.drain(..).map(SocketNode::shutdown).collect();
    let hist = history.lock().clone();
    assert!(check_atomicity(&hist).is_empty(), "atomicity violated");
    for report in &reports {
        for s in &report.cluster.sites {
            if parts.contains(&s.site) {
                assert_eq!(
                    s.enforced.get(&txn),
                    Some(&Outcome::Commit),
                    "site {} must learn the commit from the failover leader",
                    s.site
                );
                assert_eq!(
                    s.committed.get(b"k".as_slice()).map(Vec::as_slice),
                    Some(b"v".as_slice()),
                    "site {} data",
                    s.site
                );
            }
        }
    }
}

/// A minority of acceptors (1 of 3) partitioned away during the
/// commit does not block it — and after the window heals, the next
/// transaction flows through the once-severed links again.
#[test]
fn acceptor_minority_partition_does_not_block_commit() {
    let cluster = paxos_cluster(1, 1);
    let dir = TempDir::new("socket-paxos-part").expect("tempdir");
    let window = (Duration::ZERO, Duration::from_millis(1200));
    // With one participant the acceptors sit at sites 2 and 3. Site
    // 3's acceptor is cut off from both cluster peers it talks to
    // (leader 0 and acceptor 2) in both directions: each endpoint
    // drops its own outbound half of the link for the window.
    let faults = |i: usize| match i {
        0 => WireFaults::none().partition(SiteId::new(3), window.0, window.1),
        2 => WireFaults::none().partition(SiteId::new(3), window.0, window.1),
        3 => WireFaults::none()
            .partition(SiteId::new(0), window.0, window.1)
            .partition(SiteId::new(2), window.0, window.1),
        _ => WireFaults::none(),
    };
    let hostings: [&[u32]; 4] = [&[0], &[1], &[2], &[3]];
    let (mut nodes, history) = spawn_nodes(&cluster, dir.path(), &hostings, None, faults);
    let parts = nodes[0].participants();

    let t1 = nodes[0].next_txn();
    nodes[0].apply(parts[0], t1, b"during", b"1");
    assert_eq!(
        nodes[0].commit(t1, &parts),
        Some(Outcome::Commit),
        "a quorum of 2 (leader + acceptor 3) must carry the commit"
    );

    // Heal, then prove the severed acceptor is a full member again.
    nodes[0].settle(Duration::from_millis(1500));
    let t2 = nodes[0].next_txn();
    nodes[0].apply(parts[0], t2, b"after", b"2");
    assert_eq!(nodes[0].commit(t2, &parts), Some(Outcome::Commit));
    nodes[0].settle(Duration::from_millis(500));

    let reports: Vec<_> = nodes.drain(..).map(SocketNode::shutdown).collect();
    assert!(check_atomicity(&history.lock().clone()).is_empty());
    for report in &reports {
        for s in &report.cluster.sites {
            if s.site == parts[0] {
                assert_eq!(s.enforced.get(&t1), Some(&Outcome::Commit));
                assert_eq!(s.enforced.get(&t2), Some(&Outcome::Commit));
            }
        }
    }
}
