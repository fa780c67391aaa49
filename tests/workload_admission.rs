//! End-to-end tests for the open-loop workload engine and admission
//! control: clean runs are admission-invariant byte for byte, forced
//! overflow sheds loudly (counted, narrated, and observable at the
//! client) and every shed id is resubmitted to a decision, and the
//! generator's plans drive 1 and N reactors to identical outcomes and
//! protocol costs.

mod common;

use common::runtime::{glacial, masked_site_traces};
use presumed_any::net::NetDelays;
use presumed_any::obs::Counter;
use presumed_any::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Acceptance: clean single-transaction traces are admission-invariant

/// One clean transaction must produce the same per-site trace, byte
/// for byte modulo timestamps, with admission control off and with any
/// admission bound enabled: an idle cluster admits everything, so the
/// controller may not perturb the schedule.
#[test]
fn single_txn_trace_byte_identical_with_admission_enabled() {
    let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
    let protos = [ProtocolKind::PrA];

    let run = |max_inflight: Option<u64>| {
        let sink = Arc::new(VecSink::new());
        let mut config = ReactorConfig::new(kind, &protos);
        config.max_inflight = max_inflight;
        let mut cluster = ReactorCluster::spawn_with_sink(&config, Arc::clone(&sink) as _);
        let txn = cluster.next_txn();
        let parts = cluster.participants();
        cluster.apply(parts[0], txn, b"k", b"v");
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        cluster.settle(Duration::from_millis(300));
        let report = cluster.shutdown();
        assert_eq!(report.stats.admission_sheds, 0, "clean run never sheds");
        masked_site_traces(&sink.snapshot())
    };

    let baseline = run(None);
    for bound in [1, 4, 1024] {
        let gated = run(Some(bound));
        assert_eq!(
            baseline, gated,
            "bound {bound}: admission perturbed a clean single-txn trace"
        );
    }
}

// ---------------------------------------------------------------------------
// Acceptance: forced overflow sheds loudly

/// Saturate a tiny admission bound with a burst of commits while one
/// participant is down (its votes can't arrive, so admitted work stays
/// in flight): the excess must be refused at the door — counted in the
/// reactor stats, mirrored into the metrics grid, and observed by each
/// shed client as an immediately failed reply, never a stall.
///
/// Then the cycle a shed makes mandatory: a shed commit never entered
/// the protocol, but its staged writes still hold their locks, so once
/// the site is back each shed id is resubmitted — same id, nothing
/// re-staged — and must be admitted and decided. Outcomes may be commit
/// or abort (a vote timeout is legitimate); what is asserted is that
/// decisions arrive, that a commit carries the write staged before the
/// shed, and that the door's bound held for the whole run.
#[test]
fn forced_overflow_sheds_are_counted_and_observable() {
    const BOUND: usize = 2;
    const BURST: usize = 6;
    // The burst must land while the site is down: the admitted pair's
    // Prepare is then lost and the pair stays parked for the whole vote
    // timeout. The window leaves a slow host room.
    const DOWN_FOR: Duration = Duration::from_millis(1500);

    let registry = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(CountingSink::new(Arc::clone(&registry)));
    let mut config = ReactorConfig::new(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        &[ProtocolKind::PrA, ProtocolKind::PrC],
    );
    // Only the vote timer may fire: it is what decides the commits
    // parked behind the down site, and it is far longer than the burst.
    config.cluster.delays = NetDelays {
        vote_timeout: Duration::from_secs(1),
        ..glacial()
    };
    config.max_inflight = Some(BOUND as u64);
    let mut cluster = ReactorCluster::spawn_with_sink(&config, sink as _);
    let parts = cluster.participants();
    let (down, up) = (parts[0], parts[1]);

    // Every transaction stages one write at the site that stays up.
    let txns: Vec<TxnId> = (0..BURST).map(|_| cluster.next_txn()).collect();
    let key = |txn: TxnId| format!("key-{}", txn.raw()).into_bytes();
    for &txn in &txns {
        cluster.apply(up, txn, &key(txn), b"staged");
    }

    // Take a participant down so admitted commits park in flight
    // awaiting a vote that cannot arrive before the vote timeout.
    let crashed_at = Instant::now();
    cluster.crash(down, DOWN_FOR);
    cluster.settle(Duration::from_millis(50));

    let pending: Vec<_> = txns
        .iter()
        .map(|&txn| (txn, cluster.commit_async(txn, &parts)))
        .collect();

    // The first two occupy the bound; the other four disconnect fast.
    let mut shed_observed = 0;
    for (txn, rx) in &pending[BOUND..] {
        assert!(
            rx.recv_timeout(Duration::from_secs(5)).is_err(),
            "txn {txn}: shed client must see a failed reply"
        );
        shed_observed += 1;
    }
    assert_eq!(shed_observed, BURST - BOUND);
    assert_eq!(
        registry.snapshot(0).total(Counter::AdmissionShed),
        (BURST - BOUND) as u64,
        "sheds are mirrored into the metrics grid"
    );

    // The admitted pair is decided (by its vote timeout at the latest),
    // which reopens the door.
    let mut decided: Vec<(TxnId, Outcome)> = Vec::new();
    for (txn, rx) in &pending[..BOUND] {
        let outcome = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("txn {txn}: admitted, never decided"));
        decided.push((*txn, outcome));
    }

    // Resubmit the shed ids once the site is back, a door's worth at a
    // time: same id, no second `apply`.
    std::thread::sleep(DOWN_FOR.saturating_sub(crashed_at.elapsed()));
    for wave in txns[BOUND..].chunks(BOUND) {
        let resubmitted: Vec<_> = wave
            .iter()
            .map(|&txn| (txn, cluster.commit_async(txn, &parts)))
            .collect();
        for (txn, rx) in resubmitted {
            let outcome = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("txn {txn}: resubmitted, never decided"));
            decided.push((txn, outcome));
        }
    }
    assert_eq!(decided.len(), BURST, "every transaction reached a decision");

    cluster.settle(Duration::from_millis(300));
    let report = cluster.shutdown();
    assert_eq!(
        report.stats.admission_sheds,
        (BURST - BOUND) as u64,
        "every overflow commit is counted as a shed, and no resubmission was"
    );
    assert_eq!(
        registry.snapshot(0).total(Counter::AdmissionShed),
        (BURST - BOUND) as u64,
        "sheds are mirrored into the metrics grid"
    );
    assert!(
        report.stats.max_inflight <= BOUND,
        "the door let {} commits in flight past a bound of {BOUND}",
        report.stats.max_inflight
    );
    assert!(check_atomicity(&report.cluster.history).is_empty());
    assert_eq!(report.cluster.coordinator_table_size, 0);
    let store = &report
        .cluster
        .sites
        .iter()
        .find(|s| s.site == up)
        .expect("summary of the live participant")
        .committed;
    for (txn, outcome) in decided {
        assert_eq!(
            store.get(&key(txn)).map(Vec::as_slice),
            (outcome == Outcome::Commit).then_some(b"staged".as_slice()),
            "txn {txn} decided {outcome:?}: its write was staged once, before the shed"
        );
    }
}

// ---------------------------------------------------------------------------
// Acceptance: the generator drives 1 and N reactors identically

/// A seeded open-loop plan (zipfian keys, mixed shapes) issued
/// transaction by transaction must produce identical outcomes and
/// identical protocol cost counters on 1 and 2 reactor shards — the
/// workload engine introduces no nondeterminism of its own.
#[test]
fn generator_plan_drives_1_vs_n_reactors_identically() {
    let plan = OpenLoopPlan {
        arrivals: OpenLoopArrivals {
            rate_per_sec: 1000.0,
            count: 24,
            seed: 17,
        },
        key_population: 100_000,
        key_skew: 1.1,
        shape: TxnShape {
            min_partitions: 1,
            max_partitions: 3,
            keys_per_partition: 2,
        },
    };

    let run = |n: usize| {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = Arc::new(CountingSink::new(Arc::clone(&registry)));
        let mut config = ReactorConfig::new(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC],
        );
        config.reactors = n;
        config.cluster.delays = glacial();
        config.max_inflight = Some(64);
        let mut cluster = ReactorCluster::spawn_with_sink(&config, sink as _);
        let sites = cluster.participants();
        let txns = plan.generate(&sites);
        let mut outcomes = Vec::with_capacity(txns.len());
        for t in &txns {
            let txn = cluster.next_txn();
            for (i, key) in t.keys.iter().enumerate() {
                let site = t.participants[i % t.participants.len()];
                cluster.apply(site, txn, key.as_bytes(), b"v");
            }
            let outcome = cluster.commit(txn, &t.participants);
            outcomes.push((txn, outcome));
            // Let decisions reach every participant (releasing locks)
            // before the next arrival stages its writes, so the lock
            // state each transaction sees is schedule-independent.
            cluster.settle(Duration::from_millis(2));
        }
        cluster.settle(Duration::from_millis(300));
        let report = cluster.shutdown();
        assert!(check_atomicity(&report.cluster.history).is_empty());
        (outcomes, registry)
    };

    let (outcomes_1, registry_1) = run(1);
    assert!(
        outcomes_1.iter().all(|(_, o)| o == &Some(Outcome::Commit)),
        "sequential clean plan commits everywhere"
    );
    let (outcomes_2, registry_2) = run(2);
    assert_eq!(outcomes_1, outcomes_2, "outcomes diverged 1 vs 2 shards");
    for proto in ProtoLabel::ALL {
        for counter in Counter::ALL {
            match counter {
                // Scheduling-dependent amortization accounting, as in
                // the multi-reactor stress parity test.
                Counter::GcLatencyUsSum
                | Counter::GcLatencySamples
                | Counter::GcRuns
                | Counter::BatchedForces
                | Counter::BatchOccupancy => continue,
                _ => {}
            }
            assert_eq!(
                registry_1.get(proto, counter),
                registry_2.get(proto, counter),
                "{proto:?}/{counter:?} diverged 1 vs 2 shards"
            );
        }
    }
}
