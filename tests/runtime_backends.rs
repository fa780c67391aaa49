//! The backend-generic runtime suite: every scenario runs on every host
//! of the site kernel — one reactor, two reactors, and a pair of socket
//! nodes over loopback TCP — through one handle
//! ([`common::runtime::Running`]): real event loops, real file-backed
//! WALs, real (wall-clock) timeouts. The hosts share every client
//! verb ([`ClientHandle`](presumed_any::net::ClientHandle)) and one
//! report shape, so a scenario is written once. None below needs
//! skipping on any backend; one that did would say so by name, with the
//! reason, where it returns early.

mod common;

use common::runtime::{Backend, Running};
use presumed_any::net::{ClusterReport, SiteSummary};
use presumed_any::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn prany() -> CoordinatorKind {
    CoordinatorKind::PrAny(SelectionPolicy::PaperStrict)
}

/// PrAny over one participant of each presumption.
fn mixed_cluster() -> ClusterConfig {
    ClusterConfig::new(
        prany(),
        &[ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC],
    )
}

fn pra_prc_cluster() -> ClusterConfig {
    ClusterConfig::new(prany(), &[ProtocolKind::PrA, ProtocolKind::PrC])
}

fn on_every_backend(scenario: impl Fn(Backend)) {
    for &backend in Backend::ALL {
        eprintln!("-- on {backend:?}");
        scenario(backend);
    }
}

/// Every site's summary but the coordinator's.
fn participants(report: &ClusterReport) -> impl Iterator<Item = &SiteSummary> {
    let not_coordinator = |s: &&SiteSummary| s.site != Running::COORDINATOR;
    report.sites.iter().filter(not_coordinator)
}

fn committed<'a>(report: &'a ClusterReport, site: SiteId, key: &[u8]) -> Option<&'a [u8]> {
    let summary = report.sites.iter().find(|s| s.site == site);
    summary
        .expect("site in report")
        .committed
        .get(key)
        .map(Vec::as_slice)
}

fn assert_atomic(report: &ClusterReport) {
    let violations = check_atomicity(&report.history);
    assert!(violations.is_empty(), "{violations:?}");
}

/// Whatever was decided, every participant holds the same data.
fn assert_data_agrees(report: &ClusterReport) {
    let states: Vec<_> = participants(report).map(|s| &s.committed).collect();
    assert!(states.windows(2).all(|w| w[0] == w[1]), "{states:?}");
}

// ---------------------------------------------------------------------------
// Clean runs

#[test]
fn commit_applies_data_at_all_participants() {
    on_every_backend(|backend| {
        let mut cluster = backend.spawn(&mixed_cluster(), None);
        let txn = cluster.next_txn();
        let parts = cluster.participants();
        for &p in &parts {
            cluster.apply(p, txn, b"balance", b"100");
        }
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        cluster.settle(Duration::from_millis(300));
        let (report, per_shard) = cluster.shutdown_per_shard();
        assert_atomic(&report);
        for &p in &parts {
            assert_eq!(committed(&report, p, b"balance"), Some(b"100".as_slice()));
        }
        assert_eq!(report.coordinator_table_size, 0);
        if let Backend::Reactor(n) = backend {
            assert_eq!(per_shard.len(), n, "one summary per reactor shard");
        }
    });
}

#[test]
fn pipeline_of_transactions_commits_atomically() {
    on_every_backend(|backend| {
        let mut cluster = backend.spawn(&mixed_cluster(), None);
        let parts = cluster.participants();
        for i in 0..10u32 {
            let txn = cluster.next_txn();
            let (key, value) = (format!("key-{i}"), format!("val-{i}"));
            for &p in &parts {
                cluster.apply(p, txn, key.as_bytes(), value.as_bytes());
            }
            assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit), "{i}");
        }
        cluster.settle(Duration::from_millis(300));
        let report = cluster.shutdown();
        assert_atomic(&report);
        assert_eq!(report.coordinator_table_size, 0);
        for s in participants(&report) {
            assert_eq!(s.committed.len(), 10, "all ten keys at {}", s.site);
        }
    });
}

#[test]
fn no_vote_aborts_the_whole_transaction() {
    on_every_backend(|backend| {
        let mut cluster = backend.spawn(&mixed_cluster(), None);
        let txn = cluster.next_txn();
        let parts = cluster.participants();
        for &p in &parts {
            cluster.apply(p, txn, b"k", b"v");
        }
        cluster.set_intent(parts[0], txn, Vote::No);
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Abort));
        cluster.settle(Duration::from_millis(300));
        let report = cluster.shutdown();
        assert_atomic(&report);
        for s in &report.sites {
            assert!(s.committed.is_empty(), "no data may commit at {}", s.site);
        }
    });
}

#[test]
fn read_only_transaction_commits_without_phase_two() {
    on_every_backend(|backend| {
        let mut cluster = backend.spawn(&pra_prc_cluster(), None);
        let txn = cluster.next_txn();
        let parts = cluster.participants();
        // No writes staged: both participants vote read-only.
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        let report = cluster.shutdown();
        assert_atomic(&report);
    });
}

#[test]
fn lock_conflicts_surface_as_no_votes() {
    on_every_backend(|backend| {
        let mut cluster = backend.spawn(&mixed_cluster(), None);
        let parts = cluster.participants();
        // T1 writes a key at participant 1 and stalls (not committed
        // yet); T2 touches the same key there: lock conflict, No vote.
        let t1 = cluster.next_txn();
        cluster.apply(parts[0], t1, b"hot", b"t1");
        let t2 = cluster.next_txn();
        cluster.apply(parts[0], t2, b"hot", b"t2");
        cluster.apply(parts[1], t2, b"cold", b"t2");
        assert_eq!(
            cluster.commit(t2, &parts),
            Some(Outcome::Abort),
            "the conflicting transaction must abort"
        );
        // T1 can still commit afterwards.
        assert_eq!(cluster.commit(t1, &parts), Some(Outcome::Commit));
        cluster.settle(Duration::from_millis(300));
        let report = cluster.shutdown();
        assert_atomic(&report);
        assert_eq!(committed(&report, parts[0], b"hot"), Some(b"t1".as_slice()));
    });
}

#[test]
fn traced_run_emits_protocol_events() {
    on_every_backend(|backend| {
        let sink = Arc::new(VecSink::new());
        let mut cluster = backend.spawn(&mixed_cluster(), Some(Arc::clone(&sink) as _));
        let parts = cluster.participants();
        let txn = cluster.next_txn();
        for &p in &parts {
            cluster.apply(p, txn, b"k", b"v");
        }
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        cluster.settle(Duration::from_millis(300));
        assert_atomic(&cluster.shutdown());

        let events = sink.take();
        // Every voting participant casts exactly one vote, and exactly
        // one commit decision is reached (at the coordinator).
        let votes = |e: &&ProtocolEvent| matches!(e, ProtocolEvent::VoteCast { .. });
        assert_eq!(
            events.iter().filter(votes).count(),
            parts.len(),
            "{events:#?}"
        );
        let decisions: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                ProtocolEvent::DecisionReached { proto, outcome, .. } => Some((*proto, *outcome)),
                _ => None,
            })
            .collect();
        assert_eq!(decisions, [(ProtoLabel::PrAny, "commit")], "{events:#?}");
        // The wire is visible: sends and receives both appear, and
        // something was forced to stable storage.
        let seen = |is: fn(&ProtocolEvent) -> bool| events.iter().any(is);
        assert!(seen(|e| matches!(e, ProtocolEvent::MsgSend { .. })));
        assert!(seen(|e| matches!(e, ProtocolEvent::MsgRecv { .. })));
        assert!(seen(|e| matches!(e, ProtocolEvent::ForceWrite { .. })));
    });
}

// ---------------------------------------------------------------------------
// Crashes

#[test]
fn participant_crash_during_commit_still_atomic() {
    on_every_backend(|backend| {
        let mut cluster = backend.spawn(&mixed_cluster(), None);
        let parts = cluster.participants();
        let txn = cluster.next_txn();
        for &p in &parts {
            cluster.apply(p, txn, b"x", b"1");
        }
        // Crash the PrC participant briefly right as commit processing
        // starts; it must converge via recovery + inquiry.
        let _pending = cluster.commit_async(txn, &parts);
        cluster.crash(parts[2], Duration::from_millis(300));
        cluster.settle(Duration::from_millis(2_500));
        let report = cluster.shutdown();
        assert_atomic(&report);
        assert_data_agrees(&report);
    });
}

#[test]
fn coordinator_crash_mid_flight_converges() {
    on_every_backend(|backend| {
        let mut cluster = backend.spawn(&mixed_cluster(), None);
        let parts = cluster.participants();
        let txn = cluster.next_txn();
        for &p in &parts {
            cluster.apply(p, txn, b"k", b"v");
        }
        let _pending = cluster.commit_async(txn, &parts);
        cluster.crash(Running::COORDINATOR, Duration::from_millis(200));
        cluster.settle(Duration::from_secs(3));
        let report = cluster.shutdown();
        assert_atomic(&report);
        assert_data_agrees(&report);
        assert_eq!(
            report.coordinator_table_size, 0,
            "the recovered coordinator forgot everything"
        );
    });
}

// ---------------------------------------------------------------------------
// Group commit: deferred batching + ack piggybacking

fn group_commit_cluster() -> ClusterConfig {
    let mut config = pra_prc_cluster();
    config.group_commit = true;
    config
}

/// The group-commit cluster with site 2 (PrC dialect) a gateway.
fn group_commit_gateway_cluster() -> ClusterConfig {
    let mut config = group_commit_cluster();
    config.gateways = vec![1];
    config
}

#[test]
fn group_commit_commits_atomically_under_concurrency() {
    for config in [group_commit_cluster(), group_commit_gateway_cluster()] {
        eprintln!("-- gateways {:?}", config.gateways);
        group_commit_commits_atomically_on_every_backend(&config);
    }
}

fn group_commit_commits_atomically_on_every_backend(config: &ClusterConfig) {
    on_every_backend(|backend| {
        let mut cluster = backend.spawn(config, None);
        let parts = cluster.participants();
        let txns: Vec<TxnId> = (0..12).map(|_| cluster.next_txn()).collect();
        for (i, &txn) in txns.iter().enumerate() {
            for &p in &parts {
                cluster.apply(p, txn, format!("key-{i}").as_bytes(), b"v");
            }
        }
        // Fire all commits at once so turns drain several transactions
        // and their forces share batch fsyncs, with acks piggybacked.
        let pending: Vec<_> = txns
            .iter()
            .map(|&txn| cluster.commit_async(txn, &parts))
            .collect();
        cluster.settle(Duration::from_millis(1_500));
        let report = cluster.shutdown();
        drop(pending);

        assert_atomic(&report);
        assert_eq!(report.coordinator_table_size, 0);
        for s in participants(&report) {
            assert_eq!(s.committed.len(), txns.len(), "site {}", s.site);
        }
        // Deferred batching: every logical force — a gateway's too — was
        // absorbed into a batch, and the physical syncs serving them
        // never exceed the requests.
        assert_eq!(report.group_commit.batched_appends, report.logical_forces);
        assert!(report.group_commit.batches > 0);
        assert!(
            report.physical_syncs <= report.logical_forces,
            "batching must not add syncs: {} > {}",
            report.physical_syncs,
            report.logical_forces
        );
    });
}

#[test]
fn group_commit_survives_participant_crash() {
    on_every_backend(|backend| {
        let mut cluster = backend.spawn(&group_commit_cluster(), None);
        let parts = cluster.participants();
        let txn = cluster.next_txn();
        for &p in &parts {
            cluster.apply(p, txn, b"x", b"1");
        }
        let _pending = cluster.commit_async(txn, &parts);
        cluster.crash(parts[1], Duration::from_millis(300));
        cluster.settle(Duration::from_millis(2_500));
        let report = cluster.shutdown();
        assert_atomic(&report);
        assert_data_agrees(&report);
    });
}

#[test]
fn batching_disabled_reports_no_batches() {
    on_every_backend(|backend| {
        let mut cluster = backend.spawn(&pra_prc_cluster(), None);
        let parts = cluster.participants();
        let txn = cluster.next_txn();
        for &p in &parts {
            cluster.apply(p, txn, b"k", b"v");
        }
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        let report = cluster.shutdown();
        assert_atomic(&report);
        assert_eq!(report.group_commit.batches, 0);
        assert_eq!(report.group_commit.batched_appends, 0);
        // Passthrough: every logical force was its own physical sync.
        // The only syncs beyond them are the explicit flushes a
        // participant's log GC makes before truncating, at most one
        // each here, depending on how far the acks got before shutdown.
        let extra = report.physical_syncs.checked_sub(report.logical_forces);
        assert!(
            extra.is_some_and(|n| n <= parts.len() as u64),
            "{} physical vs {} logical",
            report.physical_syncs,
            report.logical_forces
        );
    });
}

// ---------------------------------------------------------------------------
// Gateways: a legacy system behind a site that speaks a 2PC dialect

#[test]
fn gateway_commits_alongside_native_sites() {
    on_every_backend(|backend| {
        let mut config = pra_prc_cluster();
        config.gateways = vec![1]; // site 2 (PrC dialect) fronts a legacy system
        let mut cluster = backend.spawn(&config, None);
        let parts = cluster.participants();
        let txn = cluster.next_txn();
        cluster.apply(parts[0], txn, b"native", b"1");
        cluster.apply(parts[1], txn, b"legacy", b"2");
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        cluster.settle(Duration::from_millis(400));
        let report = cluster.shutdown();
        assert_atomic(&report);
        assert_eq!(
            committed(&report, parts[0], b"native"),
            Some(b"1".as_slice())
        );
        assert_eq!(
            committed(&report, parts[1], b"legacy"),
            Some(b"2".as_slice()),
            "the legacy system received the committed write"
        );
        // The gateway reports what its engine enforced, like any site.
        let gateway = report.sites.iter().find(|s| s.site == parts[1]);
        let enforced = &gateway.expect("gateway in report").enforced;
        assert_eq!(enforced.get(&txn), Some(&Outcome::Commit), "{enforced:?}");
    });
}

#[test]
fn gateway_crash_mid_commit_still_applies_after_recovery() {
    on_every_backend(|backend| {
        let mut config = ClusterConfig::new(prany(), &[ProtocolKind::PrA, ProtocolKind::PrA]);
        config.gateways = vec![0];
        let mut cluster = backend.spawn(&config, None);
        let parts = cluster.participants();
        let txn = cluster.next_txn();
        for &p in &parts {
            cluster.apply(p, txn, b"k", b"v");
        }
        let _pending = cluster.commit_async(txn, &parts);
        std::thread::sleep(Duration::from_millis(3));
        cluster.crash(parts[0], Duration::from_millis(250));
        cluster.settle(Duration::from_secs(2));
        let report = cluster.shutdown();
        assert_atomic(&report);
        // Whatever the outcome, gateway and native site agree on data.
        assert_data_agrees(&report);
    });
}

// ---------------------------------------------------------------------------
// Client misuse

#[test]
fn duplicate_and_empty_commit_requests_do_not_kill_the_coordinator() {
    on_every_backend(|backend| {
        let mut cluster = backend.spawn(&pra_prc_cluster(), None);
        let parts = cluster.participants();
        let txn = cluster.next_txn();
        for &p in &parts {
            cluster.apply(p, txn, b"k", b"v");
        }
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        // A duplicate request for a decided transaction is answered
        // from the memo, not a panic.
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        // An empty participant list is refused cleanly (None, fast).
        let t2 = cluster.next_txn();
        assert_eq!(cluster.commit(t2, &[]), None);
        // The coordinator is still alive and serving.
        let t3 = cluster.next_txn();
        for &p in &parts {
            cluster.apply(p, t3, b"k3", b"v3");
        }
        assert_eq!(cluster.commit(t3, &parts), Some(Outcome::Commit));
        assert_atomic(&cluster.shutdown());
    });
}
