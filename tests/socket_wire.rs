//! End-to-end tests of the socket wire backend (experiment E15):
//! multiple nodes in one process exchanging real loopback TCP frames,
//! with trace parity against the in-process reactor, WAL-only restart
//! recovery, reconnect churn, and backpressure shedding.
#![cfg(unix)]

mod common;

use common::runtime::sockets::{node_config, write_peers};
use common::runtime::{glacial, masked_site_traces};
use presumed_any::net::wire::shared_history;
use presumed_any::prelude::*;
use presumed_any::wal::tempdir::TempDir;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// One clean transaction where the coordinator and the participant are
/// separate socket nodes must produce, per site, the same trace byte
/// for byte (modulo timestamps) as the in-process reactor: real TCP
/// under the engines changes nothing protocol-visible.
#[test]
fn socket_trace_is_byte_identical_to_reactor() {
    let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
    let protos = [ProtocolKind::PrA];

    let reactor = {
        let sink = Arc::new(VecSink::new());
        let mut config = ReactorConfig::new(kind, &protos);
        config.cluster.delays = glacial();
        let mut cluster = ReactorCluster::spawn_with_sink(&config, Arc::clone(&sink) as _);
        let txn = cluster.next_txn();
        let parts = cluster.participants();
        cluster.apply(parts[0], txn, b"k", b"v");
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        cluster.settle(Duration::from_millis(300));
        let _ = cluster.shutdown();
        masked_site_traces(&sink.snapshot())
    };

    let socket = {
        let sink = Arc::new(VecSink::new());
        let dir = TempDir::new("socket-golden").expect("tempdir");
        let peers = dir.path().join("peers");
        let mut cluster = ClusterConfig::new(kind, &protos);
        cluster.delays = glacial();
        let history = shared_history();
        let mut coord = SocketNode::spawn_with(
            node_config(&cluster, &[0], &peers, dir.path().join("n0")),
            Some(Arc::clone(&sink) as _),
            Arc::clone(&history),
        )
        .expect("spawn coord node");
        let part = SocketNode::spawn_with(
            node_config(&cluster, &[1], &peers, dir.path().join("n1")),
            Some(Arc::clone(&sink) as _),
            Arc::clone(&history),
        )
        .expect("spawn part node");
        write_peers(&peers, &[(0, coord.local_addr()), (1, part.local_addr())]);
        let txn = coord.next_txn();
        let parts = coord.participants();
        coord.apply(parts[0], txn, b"k", b"v");
        assert_eq!(coord.commit(txn, &parts), Some(Outcome::Commit));
        coord.settle(Duration::from_millis(300));
        let _ = coord.shutdown();
        let _ = part.shutdown();
        assert!(check_atomicity(&history.lock().clone()).is_empty());
        masked_site_traces(&sink.snapshot())
    };

    assert_eq!(
        reactor.keys().collect::<Vec<_>>(),
        socket.keys().collect::<Vec<_>>(),
        "same sites traced"
    );
    for (site, lines) in &reactor {
        assert_eq!(
            lines, &socket[site],
            "site {site}: trace diverged between reactor and socket backends"
        );
    }
}

/// A mixed-protocol cluster split across three processes-worth of
/// nodes stays atomic across commits and aborts, and committed data
/// lands at every participant (verified from the merged reports).
#[test]
fn multi_node_mixed_protocols_stay_atomic() {
    let dir = TempDir::new("socket-atomic").expect("tempdir");
    let peers = dir.path().join("peers");
    let cluster = ClusterConfig::new(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        &[ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC],
    );
    let history = shared_history();
    let mut coord = SocketNode::spawn_with(
        node_config(&cluster, &[0], &peers, dir.path().join("n0")),
        None,
        Arc::clone(&history),
    )
    .expect("coord node");
    let node_b = SocketNode::spawn_with(
        node_config(&cluster, &[1, 2], &peers, dir.path().join("nb")),
        None,
        Arc::clone(&history),
    )
    .expect("node b");
    let node_c = SocketNode::spawn_with(
        node_config(&cluster, &[3], &peers, dir.path().join("nc")),
        None,
        Arc::clone(&history),
    )
    .expect("node c");
    write_peers(
        &peers,
        &[
            (0, coord.local_addr()),
            (1, node_b.local_addr()),
            (2, node_b.local_addr()),
            (3, node_c.local_addr()),
        ],
    );

    let parts = coord.participants();
    for round in 0..6u64 {
        let txn = coord.next_txn();
        for &p in &parts {
            coord.apply(p, txn, format!("k{round}").as_bytes(), b"v");
        }
        let veto = round % 3 == 2;
        if veto {
            coord.set_intent(parts[round as usize % parts.len()], txn, Vote::No);
        }
        let outcome = coord.commit(txn, &parts).expect("decision");
        assert_eq!(
            outcome,
            if veto { Outcome::Abort } else { Outcome::Commit },
            "round {round}"
        );
    }
    coord.settle(Duration::from_millis(400));
    let _ = coord.shutdown();
    let rb = node_b.shutdown();
    let rc = node_c.shutdown();
    assert!(check_atomicity(&history.lock().clone()).is_empty());
    for report in [&rb, &rc] {
        for s in &report.cluster.sites {
            for round in [0u64, 1, 3, 4] {
                assert_eq!(
                    s.committed
                        .get(format!("k{round}").as_bytes())
                        .map(Vec::as_slice),
                    Some(b"v".as_slice()),
                    "site {} round {round}",
                    s.site
                );
            }
            for round in [2u64, 5] {
                assert!(
                    !s.committed.contains_key(format!("k{round}").as_bytes()),
                    "site {} leaked aborted round {round}",
                    s.site
                );
            }
        }
    }
}

/// Stop a participant node, restart it from its WAL files at a new
/// address, and commit again: recovery replays the logs (earlier
/// writes survive) and the coordinator's transport heals by redial —
/// visible as disconnect/connect churn in the wire metrics.
#[test]
fn participant_restart_recovers_wal_and_reconnects() {
    let dir = TempDir::new("socket-restart").expect("tempdir");
    let peers = dir.path().join("peers");
    let cluster = ClusterConfig::new(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        &[ProtocolKind::PrA],
    );
    let history = shared_history();
    let mut coord = SocketNode::spawn_with(
        node_config(&cluster, &[0], &peers, dir.path().join("n0")),
        None,
        Arc::clone(&history),
    )
    .expect("coord node");
    let part = SocketNode::spawn_with(
        node_config(&cluster, &[1], &peers, dir.path().join("n1")),
        None,
        Arc::clone(&history),
    )
    .expect("part node");
    write_peers(&peers, &[(0, coord.local_addr()), (1, part.local_addr())]);
    let parts = coord.participants();

    let txn1 = coord.next_txn();
    coord.apply(parts[0], txn1, b"first", b"1");
    assert_eq!(coord.commit(txn1, &parts), Some(Outcome::Commit));
    coord.settle(Duration::from_millis(200));
    let _ = part.shutdown();

    // Same WAL directory, fresh process state, new kernel-chosen port.
    let part2 = SocketNode::spawn_with(
        node_config(&cluster, &[1], &peers, dir.path().join("n1")),
        None,
        Arc::clone(&history),
    )
    .expect("restarted part node");
    write_peers(&peers, &[(0, coord.local_addr()), (1, part2.local_addr())]);

    let txn2 = coord.next_txn();
    coord.apply(parts[0], txn2, b"second", b"2");
    assert_eq!(
        coord.commit(txn2, &parts),
        Some(Outcome::Commit),
        "commit after participant restart"
    );
    coord.settle(Duration::from_millis(200));

    let wire = coord.wire_metrics();
    assert!(
        wire.disconnects >= 1,
        "coordinator should observe the participant connection die: {wire:?}"
    );
    assert!(
        wire.connects >= 2,
        "coordinator should redial the restarted participant: {wire:?}"
    );

    let _ = coord.shutdown();
    let report = part2.shutdown();
    assert!(check_atomicity(&history.lock().clone()).is_empty());
    let site = &report.cluster.sites[0];
    assert_eq!(
        site.committed.get(b"first".as_slice()).map(Vec::as_slice),
        Some(b"1".as_slice()),
        "pre-restart write must survive via the WAL"
    );
    assert_eq!(
        site.committed.get(b"second".as_slice()).map(Vec::as_slice),
        Some(b"2".as_slice()),
        "post-restart write must land"
    );
}

/// A destination that never answers fills the bounded write queue;
/// further frames are shed and counted, not buffered without limit.
#[test]
fn bounded_write_queue_sheds_under_backpressure() {
    let dir = TempDir::new("socket-shed").expect("tempdir");
    let cluster = ClusterConfig::new(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        &[ProtocolKind::PrA],
    );
    // Site 1's address points at a port nobody listens on.
    let dead: SocketAddr = "127.0.0.1:1".parse().expect("addr");
    let mut config = NodeConfig::new(
        cluster,
        vec![SiteId::new(0)],
        AddressBook::Static([(SiteId::new(1), dead)].into_iter().collect()),
        dir.path().to_path_buf(),
    );
    config.max_conn_queue_bytes = 256;
    config.faults = WireFaults::none();
    let coord = SocketNode::spawn(config).expect("coord node");
    let txn = TxnId::new(1);
    for i in 0..64u32 {
        coord.apply(
            SiteId::new(1),
            txn,
            format!("key-{i}").as_bytes(),
            &[0u8; 64],
        );
    }
    coord.settle(Duration::from_millis(300));
    let wire = coord.wire_metrics();
    assert!(
        wire.backpressure_drops > 0,
        "64 × 64-byte frames into a 256-byte queue must shed: {wire:?}"
    );
    assert!(
        wire.dials >= 1 && wire.connects == 0,
        "the dead address must never connect: {wire:?}"
    );
    // The transport's overload evidence surfaces into the protocol
    // counter grid: a forced-overflow run reports a nonzero count, and
    // re-surfacing a cumulative snapshot never double-counts.
    let registry = MetricsRegistry::new();
    wire.surface_into(&registry);
    wire.surface_into(&registry);
    assert_eq!(
        registry
            .snapshot(0)
            .total(presumed_any::obs::Counter::BackpressureDrops),
        wire.backpressure_drops,
        "wire drops must surface exactly once into the metrics grid"
    );
    let _ = coord.shutdown();
}

/// The waker rings once per sleep, not once per envelope — and still
/// once per sleep. One at a time, every commit finds the node asleep
/// and must wake it (a send that rang nothing would wait out the 50 ms
/// idle timeout); then two client threads race each other and the
/// node's sleeps, and every commit must still get its answer.
#[test]
fn the_waker_wakes_a_sleeping_node_and_loses_no_wake_up_under_a_race() {
    const SEQUENTIAL: u64 = 200;
    const PER_THREAD: u64 = 5_000;
    let mut config = ClusterConfig::new(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        &[ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC],
    );
    config.group_commit = true;
    config.delays = glacial();
    let mut cluster = common::runtime::Backend::SocketPair.spawn(&config, None);
    let sites = cluster.participants();
    let send = |cluster: &common::runtime::Running, txn: TxnId| {
        let key = txn.raw().to_le_bytes();
        cluster.apply(sites[txn.raw() as usize % 3], txn, &key, b"v");
        cluster.commit_async(txn, &sites)
    };

    let started = std::time::Instant::now();
    for _ in 0..SEQUENTIAL {
        let txn = cluster.next_txn();
        let outcome = send(&cluster, txn).recv_timeout(Duration::from_secs(20));
        assert_eq!(outcome, Ok(Outcome::Commit));
    }
    let elapsed = started.elapsed();
    // About 2 ms each when the node is woken, about 25 ms when it
    // has to time out.
    assert!(
        elapsed < Duration::from_millis(12) * SEQUENTIAL as u32,
        "{SEQUENTIAL} commits took {elapsed:?}: sends are waiting for the idle timeout"
    );

    let txns: Vec<TxnId> = (0..2 * PER_THREAD).map(|_| cluster.next_txn()).collect();
    std::thread::scope(|scope| {
        for mine in txns.chunks(PER_THREAD as usize) {
            let (cluster, send) = (&cluster, &send);
            scope.spawn(move || {
                // Windows of 8 keep both threads alternating between
                // sending and waiting, so sends land on a node that is
                // awake, asleep and in between.
                for window in mine.chunks(8) {
                    let replies: Vec<_> = window.iter().map(|&txn| send(cluster, txn)).collect();
                    for reply in replies {
                        let outcome = reply.recv_timeout(Duration::from_secs(20));
                        assert_eq!(outcome, Ok(Outcome::Commit));
                    }
                }
            });
        }
    });
    let report = cluster.shutdown();
    assert!(check_atomicity(&report.history).is_empty());
}
