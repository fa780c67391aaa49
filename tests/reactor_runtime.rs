//! End-to-end tests of the reactor runtime (experiment E13): one event
//! loop driving every site over the same sans-IO engines as the
//! threaded backend, with cross-backend trace and cost parity checks.

use presumed_any::net::{NetDelays, ReactorReport};
use presumed_any::obs::{event_to_json, parse_flat_json, Counter, JsonValue};
use presumed_any::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn mixed_reactor() -> ReactorConfig {
    ReactorConfig::new(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        &[ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC],
    )
}

/// Delays so large that any timer firing in a clean run is a bug; the
/// protocol must make progress purely on message flow.
fn glacial() -> NetDelays {
    NetDelays {
        vote_timeout: Duration::from_secs(60),
        ack_resend: Duration::from_secs(60),
        inquiry_retry: Duration::from_secs(60),
        apply_retry: Duration::from_secs(60),
        paxos_completion: Duration::from_secs(60),
    }
}

#[test]
fn reactor_commit_applies_data_at_all_participants() {
    let mut cluster = ReactorCluster::spawn(&mixed_reactor());
    let parts = cluster.participants();
    let txn = cluster.next_txn();
    for &p in &parts {
        cluster.apply(p, txn, b"balance", b"100");
    }
    let outcome = cluster.commit(txn, &parts).expect("decision");
    assert_eq!(outcome, Outcome::Commit);
    cluster.settle(Duration::from_millis(300));
    let report = cluster.shutdown();
    assert!(check_atomicity(&report.cluster.history).is_empty());
    for s in &report.cluster.sites {
        if s.site != ReactorCluster::COORDINATOR {
            assert_eq!(
                s.committed.get(b"balance".as_slice()).map(Vec::as_slice),
                Some(b"100".as_slice()),
                "site {}",
                s.site
            );
        }
    }
    assert_eq!(report.cluster.coordinator_table_size, 0);
}

#[test]
fn reactor_no_vote_aborts_the_whole_transaction() {
    let mut cluster = ReactorCluster::spawn(&mixed_reactor());
    let txn = cluster.next_txn();
    let parts = cluster.participants();
    for &p in &parts {
        cluster.apply(p, txn, b"k", b"v");
    }
    cluster.set_intent(parts[0], txn, Vote::No);
    let outcome = cluster.commit(txn, &parts).expect("decision");
    assert_eq!(outcome, Outcome::Abort);
    cluster.settle(Duration::from_millis(300));
    let report = cluster.shutdown();
    assert!(check_atomicity(&report.cluster.history).is_empty());
    for s in &report.cluster.sites {
        assert!(s.committed.is_empty(), "no data may commit at {}", s.site);
    }
}

// ---------------------------------------------------------------------------
// Cross-backend trace parity

/// Per-site event lines with the wall-clock fields (`at_us`,
/// `since_decision_us`) masked out. Per-site subsequences are totally
/// ordered in both backends; the global interleaving across sites is
/// scheduling noise and is not compared.
fn masked_site_traces(events: &[ProtocolEvent]) -> BTreeMap<u64, Vec<String>> {
    let mut by_site: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for ev in events {
        let mut map = parse_flat_json(&event_to_json(ev)).expect("trace dialect");
        map.remove("at_us");
        map.remove("since_decision_us");
        let site = map["site"].as_u64().expect("site field");
        let line = map
            .iter()
            .map(|(k, v)| match v {
                JsonValue::Num(n) => format!("\"{k}\":{n}"),
                JsonValue::Str(s) => format!("\"{k}\":{s:?}"),
            })
            .collect::<Vec<_>>()
            .join(",");
        by_site.entry(site).or_default().push(format!("{{{line}}}"));
    }
    by_site
}

/// One clean transaction over a single participant (a total causal
/// order, so even thread scheduling cannot reorder events) must produce
/// the same trace, byte for byte modulo timestamps, on both backends.
#[test]
fn clean_trace_is_byte_identical_across_backends() {
    let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
    let protos = [ProtocolKind::PrA];

    let threaded = {
        let sink = Arc::new(VecSink::new());
        let mut cluster =
            Cluster::spawn_with_sink(&ClusterConfig::new(kind, &protos), Arc::clone(&sink) as _);
        let txn = cluster.next_txn();
        let parts = cluster.participants();
        cluster.apply(parts[0], txn, b"k", b"v");
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        cluster.settle(Duration::from_millis(300));
        let _ = cluster.shutdown();
        masked_site_traces(&sink.snapshot())
    };

    let reactor = {
        let sink = Arc::new(VecSink::new());
        let mut cluster =
            ReactorCluster::spawn_with_sink(&ReactorConfig::new(kind, &protos), Arc::clone(&sink) as _);
        let txn = cluster.next_txn();
        let parts = cluster.participants();
        cluster.apply(parts[0], txn, b"k", b"v");
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        cluster.settle(Duration::from_millis(300));
        let _ = cluster.shutdown();
        masked_site_traces(&sink.snapshot())
    };

    assert_eq!(
        threaded.keys().collect::<Vec<_>>(),
        reactor.keys().collect::<Vec<_>>(),
        "same sites traced"
    );
    for (site, lines) in &threaded {
        assert_eq!(
            lines, &reactor[site],
            "site {site}: trace diverged between backends"
        );
    }
}

/// The adaptive group-commit window must not change a single
/// transaction's trace: a batch of one forces immediately, so the
/// windowed run is indistinguishable from the unwindowed one.
#[test]
fn adaptive_window_keeps_single_txn_traces_identical() {
    let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
    let protos = [ProtocolKind::PrA];
    let run = |window: Duration| {
        let sink = Arc::new(VecSink::new());
        let mut config = ReactorConfig::new(kind, &protos);
        config.cluster.group_commit = true;
        config.commit_window = window;
        config.adaptive_window = true;
        let mut cluster = ReactorCluster::spawn_with_sink(&config, Arc::clone(&sink) as _);
        let txn = cluster.next_txn();
        let parts = cluster.participants();
        cluster.apply(parts[0], txn, b"k", b"v");
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        cluster.settle(Duration::from_millis(300));
        let report = cluster.shutdown();
        (masked_site_traces(&sink.snapshot()), report)
    };

    let (unwindowed, _) = run(Duration::ZERO);
    let (windowed, report) = run(Duration::from_millis(20));
    assert_eq!(
        unwindowed, windowed,
        "adaptive window changed a single-transaction trace"
    );
    assert!(
        report.stats.adaptive_forces > 0,
        "single-record batches should take the adaptive fast path, got {:?}",
        report.stats
    );
}

// ---------------------------------------------------------------------------
// Cross-backend cost parity (satellite of the sharded-table change: the
// sharded coordinator path must count exactly what the threaded,
// mutex-per-table path counts)

#[test]
fn cost_counters_match_across_backends() {
    let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
    let protos = [ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC];
    const TXNS: u64 = 10;

    let threaded = {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = Arc::new(CountingSink::new(Arc::clone(&registry)));
        let mut config = ClusterConfig::new(kind, &protos);
        config.delays = glacial();
        let mut cluster = Cluster::spawn_with_sink(&config, sink as _);
        let parts = cluster.participants();
        for i in 0..TXNS {
            let txn = cluster.next_txn();
            for &p in &parts {
                cluster.apply(p, txn, format!("k{i}").as_bytes(), b"v");
            }
            assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        }
        cluster.settle(Duration::from_millis(300));
        let _ = cluster.shutdown();
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
        let _ = cluster.shutdown();
        registry
    };

    for proto in ProtoLabel::ALL {
        for counter in Counter::ALL {
            if counter == Counter::GcLatencyUsSum {
                continue; // wall-clock latency: backend-dependent by nature
            }
            assert_eq!(
                threaded.get(proto, counter),
                reactor.get(proto, counter),
                "{proto:?}/{counter:?} diverged between backends"
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

#[test]
fn reactor_participant_crash_during_commit_still_atomic() {
    let mut cluster = ReactorCluster::spawn(&mixed_reactor());
    let parts = cluster.participants();
    let txn = cluster.next_txn();
    for &p in &parts {
        cluster.apply(p, txn, b"x", b"1");
    }
    let _ = cluster.commit_async(txn, &parts);
    cluster.crash(parts[2], Duration::from_millis(300));
    cluster.settle(Duration::from_millis(2_500));
    let report = cluster.shutdown();
    let v = check_atomicity(&report.cluster.history);
    assert!(v.is_empty(), "{v:?}");
    let datasets: Vec<_> = report
        .cluster
        .sites
        .iter()
        .filter(|s| s.site != ReactorCluster::COORDINATOR)
        .map(|s| s.committed.clone())
        .collect();
    for d in &datasets[1..] {
        assert_eq!(&datasets[0], d, "data diverged");
    }
}

#[test]
fn reactor_coordinator_crash_mid_flight_converges() {
    let mut cluster = ReactorCluster::spawn(&mixed_reactor());
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
}

#[test]
fn reactor_gateway_commits_alongside_native_sites() {
    let mut config = ReactorConfig::new(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        &[ProtocolKind::PrA, ProtocolKind::PrC],
    );
    config.cluster.gateways = vec![1];
    let mut cluster = ReactorCluster::spawn(&config);
    let parts = cluster.participants();
    let txn = cluster.next_txn();
    cluster.apply(parts[0], txn, b"native", b"1");
    cluster.apply(parts[1], txn, b"legacy", b"2");
    assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
    cluster.settle(Duration::from_millis(400));
    let report = cluster.shutdown();
    assert!(check_atomicity(&report.cluster.history).is_empty());
    let gw = report
        .cluster
        .sites
        .iter()
        .find(|s| s.site == parts[1])
        .expect("gateway site");
    assert_eq!(
        gw.committed.get(b"legacy".as_slice()).map(Vec::as_slice),
        Some(b"2".as_slice())
    );
}

// ---------------------------------------------------------------------------
// Live metrics surface

#[test]
fn metrics_timeline_streams_in_run_snapshots() {
    let registry = Arc::new(MetricsRegistry::new());
    let timeline = Arc::new(MetricsTimeline::new());
    let sink = Arc::new(CountingSink::new(Arc::clone(&registry)));
    let mut config = mixed_reactor();
    config.cluster.delays = glacial();
    config.snapshot_every_commits = 1;
    let mut cluster = ReactorCluster::spawn_observed(
        &config,
        sink as _,
        Arc::clone(&registry),
        Arc::clone(&timeline),
    );
    let parts = cluster.participants();
    const TXNS: u64 = 5;
    for i in 0..TXNS {
        let txn = cluster.next_txn();
        for &p in &parts {
            cluster.apply(p, txn, format!("k{i}").as_bytes(), b"v");
        }
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
    }
    cluster.settle(Duration::from_millis(200));
    let report: ReactorReport = cluster.shutdown();
    assert_eq!(report.stats.decisions_delivered, TXNS);

    let snaps = timeline.snapshots();
    assert!(
        snaps.len() >= 2,
        "expected in-run snapshots, got {}",
        snaps.len()
    );
    // Snapshots are cumulative and time-ordered: decision and force
    // counts never decrease, timestamps never run backwards.
    for w in snaps.windows(2) {
        assert!(w[0].at_us <= w[1].at_us);
        assert!(w[0].total(Counter::DecisionsReached) <= w[1].total(Counter::DecisionsReached));
        assert!(w[0].total(Counter::ForcedWrites) <= w[1].total(Counter::ForcedWrites));
    }
    // The forces-per-transaction curve is computable from the stream —
    // the final point matches the registry's end state.
    let last = snaps.last().expect("non-empty");
    assert_eq!(
        last.total(Counter::DecisionsReached),
        registry.snapshot(0).total(Counter::DecisionsReached)
    );
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

// ---------------------------------------------------------------------------
// Retry backoff

/// Retry timers are jittered per (site, timer) on the reactor as on the
/// socket node — the kernel arms both — while first armings stay exact.
/// Two prepared participants stay in doubt (the third site is down, so
/// the coordinator never gathers its votes) and inquire on their own
/// timers. Both first inquiries leave in one turn, the base delay after
/// the prepare; without jitter every later round would also leave in
/// one turn, with it the sites drift apart by their jittered delays.
#[test]
fn retries_are_jittered_per_site_and_first_armings_exact() {
    let base = Duration::from_millis(200);
    let mut config = mixed_reactor();
    config.cluster.delays = NetDelays {
        inquiry_retry: base,
        ..glacial()
    };
    let sink = Arc::new(VecSink::new());
    let mut cluster = ReactorCluster::spawn_with_sink(&config, Arc::clone(&sink) as _);
    let parts = cluster.participants();
    let txn = cluster.next_txn();
    cluster.crash(parts[2], Duration::from_secs(30));
    for &p in &parts[..2] {
        cluster.apply(p, txn, b"k", b"v");
    }
    let _pending = cluster.commit_async(txn, &parts);
    cluster.settle(Duration::from_millis(900));
    let _ = cluster.shutdown();

    // Per site: when it voted, and when each retry round was scheduled.
    let mut voted: BTreeMap<u32, u64> = BTreeMap::new();
    let mut rounds: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for ev in sink.snapshot() {
        match ev {
            ProtocolEvent::VoteCast { at_us, site, .. } => drop(voted.insert(site, at_us)),
            ProtocolEvent::RetryScheduled { at_us, site, .. } => {
                rounds.entry(site).or_default().push(at_us);
            }
            _ => {}
        }
    }
    let us = |d: Duration| d.as_micros() as u64;
    let slack = us(Duration::from_millis(15));
    let (one, two) = (parts[0].raw(), parts[1].raw());
    assert!(rounds[&one].len() >= 2 && rounds[&two].len() >= 2, "{rounds:?}");
    for site in [one, two] {
        let first = rounds[&site][0] - voted[&site];
        assert!(
            (us(base)..us(base) + slack).contains(&first),
            "site {site}: the first inquiry leaves the base delay after the vote, not {first} us"
        );
    }
    // Attempt 1 backs off to twice the base, give or take an eighth.
    let second = |site| rounds[&site][1] - rounds[&site][0];
    for site in [one, two] {
        let band = us(base) * 7 / 4..us(base) * 9 / 4 + slack;
        assert!(band.contains(&second(site)), "site {site}: {} us", second(site));
    }
    assert!(
        second(one).abs_diff(second(two)) > slack,
        "the two sites' retries must not stay in lockstep: {rounds:?}"
    );
}
