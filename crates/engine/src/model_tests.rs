//! A seeded differential test of the store, and of its rebuild from the
//! store file, against a `BTreeMap<Vec<u8>, Vec<u8>>` model: random
//! upserts, overwrites, deletes and gets over a small keyspace (many
//! overwrites, many compactions) and a large one (mostly new keys).

use crate::site::SiteEngine;
use crate::store::KvStore;
use acp_types::{LogPayload, Outcome, TxnId};
use acp_wal::encode::encode_frame;
use acp_wal::scan::Summaries;
use acp_wal::{FaultyLog, LogRecord, MemLog, StableLog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// (seed, distinct keys) of the two keyspaces.
const KEYSPACES: [(u64, u64); 2] = [(11, 16), (12, 4096)];

fn key(rng: &mut StdRng, keys: u64) -> Vec<u8> {
    format!("key/{:x}", rng.random_range(0..keys)).into_bytes()
}

/// A value of 0–11 bytes: short enough that an overwrite often has the
/// old value's length (the in-place path) and often not.
fn value(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.random_range(0..12usize);
    (0..len).map(|_| rng.random::<u8>()).collect()
}

fn assert_matches(store: &KvStore, model: &Model) {
    assert_eq!(store.len(), model.len());
    let bytes: usize = model.iter().map(|(k, v)| k.len() + v.len()).sum();
    assert_eq!(store.bytes(), bytes);
    let ordered = model.iter().map(|(k, v)| (k.as_slice(), v.as_slice()));
    assert!(store.iter().eq(ordered), "iter is the model in key order");
    for (k, v) in model {
        assert_eq!(store.get(k), Some(v.as_slice()));
    }
}

/// The whole-store checkpoint of `model`: its entries in key order.
fn checkpoint_of(model: &Model) -> LogPayload {
    let entries = model.iter().map(|(k, v)| (k.clone(), v.clone()));
    LogPayload::Checkpoint {
        entries: entries.collect(),
    }
}

#[test]
fn the_store_matches_a_map_model_after_every_compaction() {
    for (seed, keys) in KEYSPACES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut store, mut model) = (KvStore::new(), Model::new());
        let mut compactions = 0;
        for _ in 0..30_000 {
            let key = key(&mut rng, keys);
            let arena = store.arena_len();
            match rng.random_range(0..10) {
                0..=5 => {
                    let value = value(&mut rng);
                    store.install(&key, Some(&value));
                    model.insert(key, value);
                }
                6..=7 => {
                    store.install(&key, None);
                    model.remove(&key);
                }
                _ => assert_eq!(store.get(&key), model.get(&key).map(Vec::as_slice)),
            }
            // Only a compaction shortens the arena.
            if store.arena_len() < arena {
                compactions += 1;
                assert_matches(&store, &model);
            }
        }
        println!("{compactions} compactions over {keys} keys");
        assert!(
            compactions >= 3,
            "{compactions} compactions over {keys} keys"
        );
        assert_matches(&store, &model);
    }
}

/// Random committed and aborted transactions on an engine over `log`,
/// a store-file checkpoint after every burst, deletes in every fifth
/// burst, and a crash and restart from the store file alone after every
/// third; the store is checked against the model after every burst.
/// A committed delete makes the burst's checkpoint the whole store,
/// which releases every record before it: `whole` checks the file then.
/// Returns the engine and the model of what it committed.
fn run_engine<L: StableLog>(
    log: L,
    seed: u64,
    keys: u64,
    whole: impl Fn(&L, &Model),
) -> (SiteEngine<L>, Model) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut e, mut model) = (SiteEngine::new(log), Model::new());
    let (mut txn, mut wholes) = (TxnId::new(0), 0);
    for burst in 0..120 {
        let mut deleted = false;
        for _ in 0..rng.random_range(1..40) {
            txn = txn.next();
            e.begin(txn);
            let mut writes = Vec::new();
            for _ in 0..rng.random_range(1..4) {
                let key = key(&mut rng, keys);
                let value = (burst % 5 != 4 || rng.random_range(0..4) > 0).then(|| value(&mut rng));
                match &value {
                    Some(v) => e.put(txn, &key, v).unwrap(),
                    None => e.delete(txn, &key).unwrap(),
                }
                writes.push((key, value));
            }
            e.prepare(txn, |_| Ok(())).unwrap();
            let outcome = if rng.random_range(0..8) == 0 {
                Outcome::Abort
            } else {
                Outcome::Commit
            };
            e.resolve(txn, outcome).unwrap();
            if outcome == Outcome::Commit {
                for (key, value) in writes {
                    deleted |= value.is_none();
                    match value {
                        Some(v) => model.insert(key, v),
                        None => model.remove(&key),
                    };
                }
            }
        }
        e.checkpoint_installed().unwrap();
        if burst % 3 == 2 {
            e.crash();
            assert!(e.store().is_empty(), "volatile store lost");
            e.recover(Summaries::default()).unwrap();
        }
        assert_matches(e.store(), &model);
        if deleted {
            let records = e.log().records().unwrap();
            assert_eq!(records.len(), 1);
            assert_eq!(records[0].payload, checkpoint_of(&model));
            whole(e.log(), &model);
            wholes += 1;
        }
    }
    assert!(wholes >= 10, "{wholes} whole-store checkpoints");
    (e, model)
}

#[test]
fn a_restart_from_a_mem_log_store_file_matches_the_model() {
    for (seed, keys) in KEYSPACES {
        let (mut e, model) = run_engine(MemLog::new(), seed, keys, |_, _| {});
        e.crash();
        e.recover(Summaries::default()).unwrap();
        assert_matches(e.store(), &model);
    }
}

/// The same over the framed log the runtimes commit through, on its
/// in-memory image: the rebuild reads the image's frames as slices, and
/// the whole-store checkpoint's frame is, byte for byte, the encoding
/// of the model's key-ordered entries.
#[test]
fn a_restart_from_a_framed_store_file_matches_the_model() {
    for (seed, keys) in KEYSPACES {
        let whole = |log: &FaultyLog, model: &Model| {
            let record = LogRecord {
                lsn: log.low_water_mark(),
                forced: true,
                payload: checkpoint_of(model),
            };
            assert!(log.image().ends_with(&encode_frame(&record)));
        };
        let (mut e, model) = run_engine(FaultyLog::new(), seed, keys, whole);
        e.crash();
        e.recover(Summaries::default()).unwrap();
        assert_matches(e.store(), &model);
    }
}
