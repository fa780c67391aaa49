//! Storage-engine properties: the data-level face of atomicity.
//!
//! Model-based property tests drive a site — a participant and its
//! storage engine, composed as the kernel composes them — with random
//! transaction batches, log collections and crashes, and compare the
//! committed state against a trivial reference model.

use acp_engine::SiteEngine;
use acp_types::Payload;
use acp_wal::MemLog;
use presumed_any::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

const COORDINATOR: SiteId = SiteId(0);

/// One generated transaction: keys it writes (with values), whether it
/// commits, and whether the site collects its log after it.
#[derive(Clone, Debug)]
struct GenTxn {
    writes: Vec<(u8, u8)>, // (key byte, value byte)
    commit: bool,
    collect: bool,
}

fn arb_txn() -> impl Strategy<Value = GenTxn> {
    (
        prop::collection::vec((0u8..12, any::<u8>()), 1..5),
        any::<bool>(),
        0u8..5,
    )
        .prop_map(|(writes, commit, collect)| GenTxn {
            writes,
            commit,
            collect: collect == 0,
        })
}

fn arb_protocol() -> impl Strategy<Value = ProtocolKind> {
    prop_oneof![
        Just(ProtocolKind::PrN),
        Just(ProtocolKind::PrA),
        Just(ProtocolKind::PrC)
    ]
}

fn outcome(commit: bool) -> Outcome {
    if commit {
        Outcome::Commit
    } else {
        Outcome::Abort
    }
}

/// A participant over its protocol log and the storage engine over its
/// store file, composed as the kernel composes them: prepare stages the
/// write set's redo in the participant's log ahead of its prepared
/// record, decisions reach the engine as `Enforce` actions, and a
/// collection writes the store file first.
struct Site {
    part: Participant<MemLog>,
    engine: SiteEngine<MemLog>,
    /// Every decision made, as the coordinator would answer an inquiry.
    decided: BTreeMap<TxnId, Outcome>,
}

impl Site {
    fn new(protocol: ProtocolKind) -> Self {
        Site {
            part: Participant::new(SiteId::new(1), protocol, MemLog::new()),
            engine: SiteEngine::new(MemLog::new()),
            decided: BTreeMap::new(),
        }
    }

    fn enforce(&mut self, actions: Vec<Action>) {
        for a in actions {
            if let Action::Enforce { txn, outcome } = a {
                self.engine.resolve(txn, outcome).expect("resolve");
            }
        }
    }

    /// Stage `txn`'s writes and prepare it: the redo, then the forced
    /// prepared record.
    fn prepare(&mut self, txn: TxnId, writes: &[(u8, u8)]) {
        self.engine.begin(txn);
        for (k, v) in writes {
            self.engine
                .put(txn, [*k], [*v])
                .expect("no conflicts sequentially");
        }
        let part = &mut self.part;
        self.engine
            .prepare(txn, |update| part.stage_redo(update))
            .expect("prepare");
        let actions = self.part.on_prepare(COORDINATOR, txn);
        self.enforce(actions);
    }

    fn decide(&mut self, txn: TxnId, outcome: Outcome) {
        self.decided.insert(txn, outcome);
        let actions = self
            .part
            .on_message(COORDINATOR, &Payload::Decision { txn, outcome });
        self.enforce(actions);
    }

    /// The kernel's collection: the store file first, then the log.
    fn collect(&mut self) {
        self.engine.checkpoint_installed().expect("store file");
        self.part.collect_garbage().expect("collection");
    }

    /// Crash both logs' volatile tails, recover from what is durable,
    /// and answer every inquiry with the decision that was made.
    fn crash_and_recover(&mut self) {
        self.part.crash();
        self.engine.crash();
        assert!(self.engine.store().is_empty(), "volatile store cleared");
        let protocol = self.part.recover_into(&mut Vec::new());
        self.engine.recover(protocol).expect("recover");
        for txn in self.part.in_doubt_txns() {
            let outcome = self.decided[&txn];
            let actions = self
                .part
                .on_message(COORDINATOR, &Payload::InquiryResponse { txn, outcome });
            self.enforce(actions);
        }
    }

    fn state(&self) -> Model {
        let store = self.engine.store().iter();
        store.map(|(k, v)| (k.to_vec(), v.to_vec())).collect()
    }
}

/// Run transactions *sequentially* (each resolved before the next
/// starts, so locks never conflict), collecting where asked, and mirror
/// them in the model.
fn run_sequential(site: &mut Site, txns: &[GenTxn]) -> Model {
    let mut model = Model::new();
    for (i, t) in txns.iter().enumerate() {
        let txn = TxnId::new(i as u64 + 1);
        site.prepare(txn, &t.writes);
        site.decide(txn, outcome(t.commit));
        if t.collect {
            site.collect();
        }
        if t.commit {
            for (k, v) in &t.writes {
                model.insert(vec![*k], vec![*v]);
            }
        }
    }
    model
}

proptest! {
    /// Committed-state equivalence with the reference model.
    #[test]
    fn sequential_batches_match_model(
        protocol in arb_protocol(),
        txns in prop::collection::vec(arb_txn(), 0..20),
    ) {
        let mut site = Site::new(protocol);
        let model = run_sequential(&mut site, &txns);
        prop_assert_eq!(site.state(), model);
        prop_assert_eq!(site.engine.locked_keys(), 0, "strict 2PL released everything");
    }

    /// Crash + recovery from the store file and the protocol log
    /// reproduces exactly the committed state, whichever records the
    /// collections released and whichever lazy decision records the
    /// crash lost (those transactions are in doubt and inquire).
    #[test]
    fn crash_recovery_matches_model(
        protocol in arb_protocol(),
        txns in prop::collection::vec(arb_txn(), 1..20),
    ) {
        let mut site = Site::new(protocol);
        let model = run_sequential(&mut site, &txns);
        site.crash_and_recover();
        prop_assert_eq!(site.state(), model);
        prop_assert_eq!(site.engine.locked_keys(), 0);
    }

    /// A second crash + recovery, after a collection or not, is
    /// idempotent.
    #[test]
    fn recovery_is_idempotent(
        protocol in arb_protocol(),
        txns in prop::collection::vec(arb_txn(), 1..15),
        collect_between in any::<bool>(),
    ) {
        let mut site = Site::new(protocol);
        let model = run_sequential(&mut site, &txns);
        site.crash_and_recover();
        if collect_between {
            site.collect();
        }
        site.crash_and_recover();
        prop_assert_eq!(site.state(), model);
    }

    /// In-doubt transactions keep their keys locked across recovery and
    /// resolve to either outcome without corrupting other data.
    #[test]
    fn in_doubt_transactions_block_then_resolve(
        protocol in arb_protocol(),
        committed in prop::collection::vec(arb_txn(), 1..8),
        doubt_commits in any::<bool>(),
    ) {
        let mut site = Site::new(protocol);
        let model = run_sequential(&mut site, &committed);

        // One more transaction reaches prepared and then the site dies.
        let doubt = TxnId::new(500);
        site.engine.begin(doubt);
        site.engine.put(doubt, b"doubt-key", b"pending").expect("put");
        let part = &mut site.part;
        site.engine.prepare(doubt, |update| part.stage_redo(update)).expect("prepare");
        drop(site.part.on_prepare(COORDINATOR, doubt));
        site.decided.insert(doubt, outcome(doubt_commits));
        site.part.crash();
        site.engine.crash();
        let protocol = site.part.recover_into(&mut Vec::new());
        site.engine.recover(protocol).expect("recover");

        prop_assert!(site.engine.is_prepared(doubt), "re-staged in doubt");
        // Its key is blocked for everyone else.
        let intruder = TxnId::new(501);
        site.engine.begin(intruder);
        prop_assert!(site.engine.get(intruder, b"doubt-key").is_err());
        site.engine.abort_active(intruder).expect("cleanup");

        // The protocol layer finally resolves it.
        let actions = site.part.on_message(
            COORDINATOR,
            &Payload::InquiryResponse { txn: doubt, outcome: outcome(doubt_commits) },
        );
        site.enforce(actions);
        let mut expected = model;
        if doubt_commits {
            expected.insert(b"doubt-key".to_vec(), b"pending".to_vec());
        }
        prop_assert_eq!(site.state(), expected);
        prop_assert_eq!(site.engine.locked_keys(), 0);
    }
}

/// Prepare with no log to keep the redo in.
fn prepare(engine: &mut SiteEngine<MemLog>, txn: TxnId) {
    engine.prepare(txn, |_| Ok(())).expect("prepare");
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
    prepare(&mut engine, a);
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
    prepare(&mut engine, w);
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
