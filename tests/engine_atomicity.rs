//! Storage-engine properties: the data-level face of atomicity.
//!
//! Model-based property tests drive the site engine with random
//! transaction batches and crashes and compare the committed state
//! against a trivial reference model.

use acp_engine::{RecoveredOutcome, SiteEngine};
use acp_wal::MemLog;
use presumed_any::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// One generated transaction: keys it writes (with values) and whether
/// it commits.
#[derive(Clone, Debug)]
struct GenTxn {
    writes: Vec<(u8, u8)>, // (key byte, value byte)
    commit: bool,
}

fn arb_txn() -> impl Strategy<Value = GenTxn> {
    (
        prop::collection::vec((0u8..12, any::<u8>()), 1..5),
        any::<bool>(),
    )
        .prop_map(|(writes, commit)| GenTxn { writes, commit })
}

/// Run transactions *sequentially* (each resolved before the next
/// starts, so locks never conflict) and mirror them in the model.
fn run_sequential(engine: &mut SiteEngine<MemLog>, txns: &[GenTxn]) -> Model {
    let mut model = Model::new();
    for (i, t) in txns.iter().enumerate() {
        let txn = TxnId::new(i as u64 + 1);
        engine.begin(txn);
        for (k, v) in &t.writes {
            engine
                .put(txn, [*k], [*v])
                .expect("no conflicts sequentially");
        }
        engine.prepare(txn).expect("prepare");
        let outcome = if t.commit {
            Outcome::Commit
        } else {
            Outcome::Abort
        };
        engine.resolve(txn, outcome).expect("resolve");
        if t.commit {
            for (k, v) in &t.writes {
                model.insert(vec![*k], vec![*v]);
            }
        }
    }
    model
}

fn engine_state(engine: &SiteEngine<MemLog>) -> Model {
    engine
        .store()
        .iter()
        .map(|(k, v)| (k.to_vec(), v.to_vec()))
        .collect()
}

proptest! {
    /// Committed-state equivalence with the reference model.
    #[test]
    fn sequential_batches_match_model(txns in prop::collection::vec(arb_txn(), 0..20)) {
        let mut engine = SiteEngine::new(MemLog::new());
        let model = run_sequential(&mut engine, &txns);
        prop_assert_eq!(engine_state(&engine), model);
        prop_assert_eq!(engine.locked_keys(), 0, "strict 2PL released everything");
    }

    /// Crash + redo recovery reproduces exactly the committed state,
    /// provided the protocol layer re-supplies the decisions (redo
    /// markers for the tail may have been lost with the buffer).
    #[test]
    fn crash_recovery_matches_model(txns in prop::collection::vec(arb_txn(), 1..20)) {
        let mut engine = SiteEngine::new(MemLog::new());
        let model = run_sequential(&mut engine, &txns);

        let mut outcomes = BTreeMap::new();
        for (i, t) in txns.iter().enumerate() {
            let outcome = if t.commit { Outcome::Commit } else { Outcome::Abort };
            outcomes.insert(TxnId::new(i as u64 + 1), RecoveredOutcome::Decided(outcome));
        }

        engine.crash();
        prop_assert!(engine.store().is_empty(), "volatile store cleared");
        engine.recover(&outcomes).expect("recover");
        prop_assert_eq!(engine_state(&engine), model);
    }

    /// A second crash + recovery (with the markers now re-logged) is
    /// idempotent.
    #[test]
    fn recovery_is_idempotent(txns in prop::collection::vec(arb_txn(), 1..15)) {
        let mut engine = SiteEngine::new(MemLog::new());
        let model = run_sequential(&mut engine, &txns);
        let mut outcomes = BTreeMap::new();
        for (i, t) in txns.iter().enumerate() {
            let outcome = if t.commit { Outcome::Commit } else { Outcome::Abort };
            outcomes.insert(TxnId::new(i as u64 + 1), RecoveredOutcome::Decided(outcome));
        }
        engine.crash();
        engine.recover(&outcomes).expect("first recovery");
        // Force the re-written markers durable, then crash again; this
        // time recovery needs no protocol help.
        let probe = TxnId::new(9_999);
        engine.begin(probe);
        engine.put(probe, b"probe", b"x").expect("probe put");
        engine.prepare(probe).expect("probe prepare forces the log");
        engine.crash();
        engine.recover(&BTreeMap::new()).expect("second recovery");
        prop_assert_eq!(engine_state(&engine), model);
    }

    /// In-doubt transactions keep their keys locked across recovery and
    /// resolve to either outcome without corrupting other data.
    #[test]
    fn in_doubt_transactions_block_then_resolve(
        committed in prop::collection::vec(arb_txn(), 1..8),
        doubt_commits in any::<bool>(),
    ) {
        let mut engine = SiteEngine::new(MemLog::new());
        let model = run_sequential(&mut engine, &committed);

        // One more transaction reaches prepared and then the site dies.
        let doubt = TxnId::new(500);
        engine.begin(doubt);
        engine.put(doubt, b"doubt-key", b"pending").expect("put");
        engine.prepare(doubt).expect("prepare");
        engine.crash();

        let mut outcomes = BTreeMap::new();
        for (i, t) in committed.iter().enumerate() {
            let outcome = if t.commit { Outcome::Commit } else { Outcome::Abort };
            outcomes.insert(TxnId::new(i as u64 + 1), RecoveredOutcome::Decided(outcome));
        }
        outcomes.insert(doubt, RecoveredOutcome::InDoubt);
        engine.recover(&outcomes).expect("recover");

        prop_assert!(engine.is_prepared(doubt), "re-staged in doubt");
        // Its key is blocked for everyone else.
        let intruder = TxnId::new(501);
        engine.begin(intruder);
        prop_assert!(engine.get(intruder, b"doubt-key").is_err());
        engine.abort_active(intruder).expect("cleanup");

        // The protocol layer finally resolves it.
        let outcome = if doubt_commits { Outcome::Commit } else { Outcome::Abort };
        engine.resolve(doubt, outcome).expect("resolve");
        let mut expected = model;
        if doubt_commits {
            expected.insert(b"doubt-key".to_vec(), b"pending".to_vec());
        }
        prop_assert_eq!(engine_state(&engine), expected);
        prop_assert_eq!(engine.locked_keys(), 0);
    }
}

#[test]
fn concurrent_conflicting_writers_one_survives() {
    let mut engine = SiteEngine::new(MemLog::new());
    let (a, b) = (TxnId::new(1), TxnId::new(2));
    engine.begin(a);
    engine.begin(b);
    engine.put(a, b"k", b"a").unwrap();
    assert!(engine.put(b, b"k", b"b").is_err(), "no-wait 2PL rejects");
    engine.abort_active(b).unwrap();
    engine.prepare(a).unwrap();
    engine.resolve(a, Outcome::Commit).unwrap();
    assert_eq!(engine.committed_get(b"k"), Some(b"a".as_slice()));
}

#[test]
fn readers_do_not_block_readers() {
    let mut engine = SiteEngine::new(MemLog::new());
    // Seed data.
    let w = TxnId::new(1);
    engine.begin(w);
    engine.put(w, b"k", b"v").unwrap();
    engine.prepare(w).unwrap();
    engine.resolve(w, Outcome::Commit).unwrap();

    let (r1, r2) = (TxnId::new(2), TxnId::new(3));
    engine.begin(r1);
    engine.begin(r2);
    assert_eq!(
        engine.get(r1, b"k").unwrap().as_deref(),
        Some(b"v".as_slice())
    );
    assert_eq!(
        engine.get(r2, b"k").unwrap().as_deref(),
        Some(b"v".as_slice())
    );
    // But a writer is blocked while they hold shared locks.
    let w2 = TxnId::new(4);
    engine.begin(w2);
    assert!(engine.put(w2, b"k", b"x").is_err());
}
