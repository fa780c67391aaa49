//! Experiment E7 — Theorem 3: "The PrAny protocol satisfies the
//! operational correctness criterion."
//!
//! Randomized campaigns: mixed protocol populations, lossy networks,
//! random crash schedules across many seeds — every run must satisfy
//! all three requirements of Definition 1 and the safe state of
//! Definition 2. The bounded model checker covers the small
//! configurations exhaustively (see `acp-check`); these campaigns cover
//! depth (many transactions, repeated failures) that the checker's
//! bounds cannot.

mod common;

use common::*;
use presumed_any::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn campaign(seed: u64, policy: SelectionPolicy, loss: f64, crashes_per_second: f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_sites = 3 + (seed as usize % 3); // 3..=5 participants
    let protocols = PopulationMix::uniform().sample_n(&mut rng, n_sites);

    let mut s = Scenario::new(CoordinatorKind::PrAny(policy), &protocols);
    s.seed = seed;
    s.network = NetworkConfig::lossy(loss);

    let mix = TxnMix {
        count: 25,
        min_participants: 2,
        max_participants: n_sites.min(4),
        abort_probability: 0.15,
        read_only_probability: 0.10,
        inter_start: SimTime::from_millis(4),
    };
    let plans = mix.generate(&mut rng, &s.participant_sites());
    let horizon = plans.last().expect("plans").start_at + SimTime::from_millis(300);
    for p in &plans {
        let spec = s.add_txn(p.txn, p.start_at);
        spec.participants = p.participants.clone();
        spec.votes = p.votes.clone();
    }

    let all_sites: Vec<SiteId> = std::iter::once(coord())
        .chain(s.participant_sites())
        .collect();
    let plan = FailurePlan {
        crashes_per_second,
        max_outage: SimTime::from_millis(60),
    };
    s.failures = plan.schedule(&mut rng, &all_sites, horizon);

    let out = run_scenario(&s);
    assert_fully_correct(&out);

    // Requirement 1 in data terms: all enforcements of one transaction
    // agree, and match the decision where one exists.
    for plan in &plans {
        let enforced: Vec<Outcome> = out
            .enforced
            .iter()
            .filter(|((_, t), _)| *t == plan.txn)
            .map(|(_, o)| *o)
            .collect();
        assert!(
            enforced.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: split brain on {}: {enforced:?}",
            plan.txn
        );
        if let (Some(&decided), Some(&first)) = (out.decided.get(&plan.txn), enforced.first()) {
            assert_eq!(decided, first, "seed {seed}: {}", plan.txn);
        }
    }
}

#[test]
fn campaign_no_failures() {
    for seed in 0..6 {
        campaign(seed, SelectionPolicy::PaperStrict, 0.0, 0.0);
    }
}

#[test]
fn campaign_lossy_network() {
    for seed in 10..16 {
        campaign(seed, SelectionPolicy::PaperStrict, 0.05, 0.0);
    }
}

#[test]
fn campaign_crashes() {
    for seed in 20..26 {
        campaign(seed, SelectionPolicy::PaperStrict, 0.0, 10.0);
    }
}

#[test]
fn campaign_crashes_and_loss() {
    for seed in 30..36 {
        campaign(seed, SelectionPolicy::PaperStrict, 0.03, 8.0);
    }
}

#[test]
fn campaign_optimized_policy() {
    for seed in 40..46 {
        campaign(seed, SelectionPolicy::Optimized, 0.03, 8.0);
    }
}

#[test]
fn exhaustive_small_configurations_via_model_checker() {
    use presumed_any::types::Vote;
    // Every 2-participant protocol pairing, both with all-yes votes and
    // with one No voter, under the bounded adversary: zero violations.
    for a in ProtocolKind::ALL {
        for b in ProtocolKind::ALL {
            for votes in [vec![], vec![Vote::No]] {
                let mut config = CheckConfig::new(
                    CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
                    &[a, b],
                );
                config.votes = votes.clone();
                let report = check(&config);
                assert!(!report.truncated, "{a}/{b} {votes:?}: {report}");
                assert!(report.clean(), "{a}/{b} {votes:?}: {report}");
            }
        }
    }
}

#[test]
fn safe_state_holds_at_every_forget_point() {
    // A direct Definition 2 check over a failure-heavy run: for every
    // transaction the coordinator forgot, all later inquiries were
    // answered with the decided outcome.
    let mut rng = StdRng::seed_from_u64(99);
    let protocols = PopulationMix::uniform().sample_n(&mut rng, 4);
    let mut s = Scenario::new(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        &protocols,
    );
    s.seed = 99;
    let mix = TxnMix {
        count: 30,
        abort_probability: 0.2,
        ..TxnMix::default()
    };
    let plans = mix.generate(&mut rng, &s.participant_sites());
    let horizon = plans.last().expect("plans").start_at + SimTime::from_millis(300);
    for p in &plans {
        let spec = s.add_txn(p.txn, p.start_at);
        spec.participants = p.participants.clone();
        spec.votes = p.votes.clone();
    }
    let all_sites: Vec<SiteId> = std::iter::once(coord())
        .chain(s.participant_sites())
        .collect();
    s.failures = FailurePlan {
        crashes_per_second: 12.0,
        max_outage: SimTime::from_millis(50),
    }
    .schedule(&mut rng, &all_sites, horizon);

    let out = run_scenario(&s);
    let v = check_all_safe_states(&out.history, coord());
    assert!(v.is_empty(), "{v:?}");
    // The run actually exercised post-forget inquiries (otherwise this
    // test proves nothing).
    let presumption_answers = out
        .history
        .events()
        .filter(|e| {
            matches!(
                e,
                ActaEvent::Respond {
                    by_presumption: true,
                    ..
                }
            )
        })
        .count();
    assert!(
        presumption_answers > 0,
        "campaign too tame: no presumption answers exercised"
    );
}
