//! The commit path's allocation budget, as a tier-1 fact.
//!
//! A steady-state turn may allocate only for state that outlives it:
//! protocol-table and store entries and log record lengths (DESIGN.md,
//! "Runtime architecture", allocation discipline). These cases pin that
//! with this binary's own counting allocator — per thread, like the
//! benchmark's (`benchmarks/src/alloc.rs`), so the driver's staging and
//! reply channels stay out of the runtime's figure.

mod common;

use common::engines::{Engines, KIND, PROTOCOLS};
use common::runtime::{glacial, Backend, Running};
use presumed_any::engine::SiteEngine;
use presumed_any::prelude::*;
use presumed_any::types::{LogPayload, Payload};
use presumed_any::wal::scan::Summaries;
use presumed_any::wal::tempdir::TempDir;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Duration;

/// Allocations (and reallocations) by the threads the tests did not
/// start themselves on: the reactor's.
static RUNTIME_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// One runtime under the counter at a time.
static ONE_RUNTIME: Mutex<()> = Mutex::new(());

thread_local! {
    // Const-initialised and without destructors, so reading them inside
    // the allocator neither allocates nor sees a destroyed value.
    /// Is this a test's own (driver) thread?
    static TEST_THREAD: Cell<bool> = const { Cell::new(false) };
    /// Allocations by this thread.
    static MINE: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    let _ = MINE.try_with(|n| n.set(n.get() + 1));
    if !TEST_THREAD.try_with(Cell::get).unwrap_or(false) {
        RUNTIME_ALLOCS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards the caller's layout and pointer to
// `System` unchanged and returns its result unchanged; `count` touches
// an atomic and two destructor-less thread-locals, so it neither
// allocates nor panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const BURST: u64 = 64;
const WARM_UP: u64 = 20;
const MEASURED: u64 = 20;

/// The benchmark's burst load — bursts of 64 PrAny commits over PrN,
/// PrA and PrC, group commit on, timers that never fire — on
/// `backend`: allocations per transaction by the threads hosting it.
fn runtime_allocs_per_txn(backend: Backend) -> f64 {
    let _alone = ONE_RUNTIME.lock().unwrap_or_else(|e| e.into_inner());
    TEST_THREAD.with(|d| d.set(true));
    let mut config = ClusterConfig::new(KIND, &PROTOCOLS);
    config.group_commit = true;
    config.delays = glacial();
    let mut cluster = backend.spawn(&config, None);
    let sites = cluster.participants();

    let burst = |cluster: &mut Running| {
        let txns: Vec<TxnId> = (0..BURST).map(|_| cluster.next_txn()).collect();
        for &txn in &txns {
            for &site in &sites {
                let key = format!("account/{:016x}/{site}", txn.raw());
                cluster.apply(site, txn, key.as_bytes(), b"balance=100");
            }
        }
        let replies: Vec<_> = txns
            .iter()
            .map(|&txn| cluster.commit_async(txn, &sites))
            .collect();
        for reply in replies {
            let outcome = reply.recv_timeout(Duration::from_secs(20));
            assert_eq!(outcome, Ok(Outcome::Commit));
        }
    };
    for _ in 0..WARM_UP {
        burst(&mut cluster);
    }
    let before = RUNTIME_ALLOCS.load(Relaxed);
    for _ in 0..MEASURED {
        burst(&mut cluster);
    }
    let per_txn = (RUNTIME_ALLOCS.load(Relaxed) - before) as f64 / (MEASURED * BURST) as f64;
    let report = cluster.shutdown();
    assert!(check_atomicity(&report.history).is_empty());
    per_txn
}

/// The `reactor_burst64` load on one reactor.
#[test]
fn a_reactor_commit_allocates_within_its_budget() {
    let per_txn = runtime_allocs_per_txn(Backend::Reactor(1));
    println!("reactor: {per_txn:.1} runtime-thread allocations per transaction");
    assert!(
        per_txn <= 7.8,
        "{per_txn:.1} allocations per transaction on the reactor thread (budget 7.8)"
    );
}

/// The `socket_burst64` load on two socket nodes: the wire adds frames
/// decoded into envelopes, and nothing per frame sent — frames are
/// encoded into their connection's out-buffer — nor per `Apply` frame
/// received: its key and value are decoded into buffers the receiving
/// node's transport gets back once the storage engine has copied them.
#[cfg(unix)]
#[test]
fn a_socket_pair_commit_allocates_within_its_budget() {
    let per_txn = runtime_allocs_per_txn(Backend::SocketPair);
    println!("socket pair: {per_txn:.1} node-thread allocations per transaction");
    assert!(
        per_txn <= 4.8,
        "{per_txn:.1} allocations per transaction on the node threads (budget 4.8)"
    );
}

/// The engines alone, on `MemLog`, through the `_into` entry points
/// with one reused action buffer: what is left is table and log
/// entries.
#[test]
fn a_steady_engine_step_allocates_only_for_table_and_log_entries() {
    TEST_THREAD.with(|d| d.set(true)); // keep this thread out of the reactor's count
    let mut engines = Engines::prany();
    let mut run = |txn: TxnId| {
        engines.commit(txn);
        if txn.raw().is_multiple_of(BURST) {
            engines.coordinator.collect_garbage().expect("gc");
        }
    };

    let measured = MEASURED * BURST;
    for i in 0..WARM_UP * BURST {
        run(TxnId::new(i + 1));
    }
    let before = MINE.get();
    for i in 0..measured {
        run(TxnId::new(WARM_UP * BURST + i + 1));
    }
    let per_txn = (MINE.get() - before) as f64 / measured as f64;
    println!("engines: {per_txn:.1} allocations per transaction");
    assert!(
        per_txn <= 11.8,
        "{per_txn:.1} allocations per transaction in the engines (budget 11.8)"
    );
}

/// The storage engine over the store file the kernel gives it, a
/// `FileLog`, driven as the kernel drives it: `put` of the caller's
/// buffers, `prepare` staging the redo in the participant's log
/// (another `FileLog`, forced once per burst as the turn's force round
/// does), `resolve`, and one store-file checkpoint per burst as a
/// collection round writes it. Each write is copied into reused
/// buffers: `put` into the buffers an ended transaction left in its
/// context, which are lent to the write's update record, and the
/// commit into the store's arena and the store file's one delta. The
/// context and its freed lock-key buffers are reused by the next burst,
/// so what is left per write is the arena's and the index's amortized
/// growth.
#[test]
fn a_storage_engine_write_is_copied_at_most_once() {
    TEST_THREAD.with(|d| d.set(true));
    let dir = TempDir::new("alloc-budget-engine").expect("tempdir");
    let mut engine = SiteEngine::new(FileLog::create(dir.path().join("data.wal")).expect("log"));
    let mut redo = FileLog::create(dir.path().join("part.wal")).expect("log");
    let writes = |from: u64| -> Vec<(TxnId, Vec<u8>, Vec<u8>)> {
        (from..from + BURST)
            .map(|n| {
                let key = format!("account/{n:016x}").into_bytes();
                (TxnId::new(n), key, b"balance=100".to_vec())
            })
            .collect()
    };
    let mut burst = |writes: Vec<(TxnId, Vec<u8>, Vec<u8>)>| {
        let txns: Vec<TxnId> = writes.iter().map(|&(txn, _, _)| txn).collect();
        for (txn, key, value) in writes {
            engine.begin(txn);
            engine.put(txn, key, value).expect("put");
            let stage = |update: &LogPayload| redo.append_ref(update, false).map(drop);
            engine.prepare(txn, stage).expect("prepare");
        }
        redo.flush().expect("force");
        for txn in txns {
            engine.resolve(txn, Outcome::Commit).expect("resolve");
        }
        engine.checkpoint_installed().expect("store file");
    };
    for round in 0..WARM_UP {
        burst(writes(1 + round * BURST));
    }
    // The caller's buffers are made before the count starts: what is
    // counted is what the engine does with them.
    let measured: Vec<_> = (WARM_UP..WARM_UP + MEASURED)
        .map(|round| writes(1 + round * BURST))
        .collect();
    let before = MINE.get();
    for w in measured {
        burst(w);
    }
    let per_write = (MINE.get() - before) as f64 / (MEASURED * BURST) as f64;
    println!("storage engine: {per_write:.2} allocations per write");
    assert!(
        per_write <= 0.05,
        "{per_write:.2} allocations per write in the storage engine (budget 0.05)"
    );
}

/// Reads by read-only transactions over a committed store, driven as
/// the kernel drives a participant: `begin`, `get`, `resolve`. A read's
/// shared lock refills a freed key buffer and its entry in the read set
/// a buffer an earlier read in the same context left, so after warm-up
/// a read allocates only the value it returns.
#[test]
fn a_storage_engine_read_allocates_only_its_value() {
    TEST_THREAD.with(|d| d.set(true));
    let dir = TempDir::new("alloc-budget-read").expect("tempdir");
    let mut engine = SiteEngine::new(FileLog::create(dir.path().join("data.wal")).expect("log"));
    let keys: Vec<Vec<u8>> = (0..BURST)
        .map(|n| format!("account/{n:016x}").into_bytes())
        .collect();
    let loader = TxnId::new(u64::MAX);
    engine.begin(loader);
    for key in &keys {
        engine.put(loader, key, b"balance=100").expect("put");
    }
    engine.prepare(loader, |_| Ok(())).expect("prepare");
    engine.resolve(loader, Outcome::Commit).expect("resolve");
    let mut burst = |round: u64| {
        let txns = (0..BURST).map(|i| TxnId::new(round * BURST + i + 1));
        for (txn, key) in txns.clone().zip(&keys) {
            engine.begin(txn);
            let value = engine.get(txn, key).expect("get");
            assert_eq!(value.as_deref(), Some(b"balance=100".as_slice()));
        }
        for txn in txns {
            engine.resolve(txn, Outcome::Commit).expect("resolve");
        }
    };
    for round in 0..WARM_UP {
        burst(round);
    }
    let before = MINE.get();
    for round in WARM_UP..WARM_UP + MEASURED {
        burst(round);
    }
    // Beside the values, the lock table and the transaction map may
    // each grow once more: a hash map that fills with deleted slots
    // either rehashes in place or, the first time, doubles.
    let (allocs, reads) = (MINE.get() - before, MEASURED * BURST);
    println!("storage engine: {allocs} allocations for {reads} reads");
    assert!(
        allocs <= reads + 2,
        "{allocs} allocations for {reads} reads in the storage engine (budget: each value, and two table resizes)"
    );
}

/// A participant and its storage engine, composed as the kernel
/// composes them — the write set's redo staged in the participant's
/// `FileLog` ahead of its prepared record, decisions enforced on the
/// engine, one store-file checkpoint half way — after `txns`
/// transactions: a quarter left in doubt, a third of the rest aborted,
/// the log never collected. Returns both and the records the
/// participant's log retains.
fn participant_site(dir: &TempDir, txns: u64) -> (Participant<FileLog>, SiteEngine<FileLog>, u64) {
    let coordinator = SiteId::new(0);
    let log = FileLog::create(dir.path().join("part.wal")).expect("log");
    let mut part = Participant::new(SiteId::new(1), ProtocolKind::PrN, log);
    let mut engine = SiteEngine::new(FileLog::create(dir.path().join("data.wal")).expect("log"));
    let enforce = |engine: &mut SiteEngine<FileLog>, actions: Vec<Action>| {
        for a in actions {
            if let Action::Enforce { txn, outcome } = a {
                engine.resolve(txn, outcome).expect("resolve");
            }
        }
    };
    for n in 1..=txns {
        let txn = TxnId::new(n);
        engine.begin(txn);
        for site in 0..2 {
            let key = format!("account/{n:016x}/{site}").into_bytes();
            engine.put(txn, key, b"balance=100").expect("put");
        }
        let stage = |update: &LogPayload| part.stage_redo(update);
        engine.prepare(txn, stage).expect("prepare");
        let actions = part.on_prepare(coordinator, txn);
        enforce(&mut engine, actions);
        // Every fourth transaction stays in doubt; of the rest, every
        // third aborts.
        if n % 4 != 0 {
            let outcome = if n % 3 == 0 {
                Outcome::Abort
            } else {
                Outcome::Commit
            };
            let actions = part.on_message(coordinator, &Payload::Decision { txn, outcome });
            enforce(&mut engine, actions);
        }
        if n == txns / 2 {
            engine.checkpoint_installed().expect("store file");
        }
    }
    part.log_mut().flush().expect("flush");
    let retained = part.log().records().expect("records").len() as u64;
    (part, engine, retained)
}

/// A restart of a participant and its storage engine
/// ([`participant_site`] after 256 transactions). Crash both, then
/// count what the restart allocates: the participant's recovery and
/// the engine's redo from it. A record's images are decoded once and
/// moved into the summaries and the re-staged write sets, or copied
/// into the store's arena, and the store file is read as slices, so
/// what is counted is about one allocation per image and per summary.
#[test]
fn a_restart_allocates_within_its_budget_per_retained_record() {
    TEST_THREAD.with(|d| d.set(true));
    let dir = TempDir::new("alloc-budget-restart").expect("tempdir");
    let (mut part, mut engine, retained) = participant_site(&dir, 4 * BURST);
    part.crash();
    engine.crash();

    let mut out = Vec::with_capacity(4 * BURST as usize);
    let before = MINE.get();
    let protocol = part.recover_into(&mut out);
    engine.recover(protocol).expect("storage recovery");
    let per_record = (MINE.get() - before) as f64 / retained as f64;

    assert_eq!(part.in_doubt_txns().len() as u64, BURST);
    assert_eq!(
        engine.locked_keys() as u64,
        2 * BURST,
        "in-doubt writes re-staged"
    );
    println!("restart: {per_record:.2} allocations per retained record ({retained} records)");
    assert!(
        per_record <= 1.5,
        "{per_record:.2} allocations per retained record in a restart (budget 1.5)"
    );
}

/// The crash itself, counted: it loses the volatile state and checks
/// each log's frames without decoding a payload, so it allocates the
/// same few buffers per log however long the logs are, and crash plus
/// restart stays within the restart's budget — the restart's analysis
/// is the one decode of each record.
#[test]
fn a_crash_allocates_a_constant_per_log_and_crash_plus_restart_stays_in_budget() {
    TEST_THREAD.with(|d| d.set(true));
    let crash_and_restart = |txns: u64| {
        let dir = TempDir::new("alloc-budget-crash").expect("tempdir");
        let (mut part, mut engine, retained) = participant_site(&dir, txns);
        let mut out = Vec::with_capacity(txns as usize);
        let before = MINE.get();
        part.crash();
        engine.crash();
        let crashed = MINE.get() - before;
        let protocol = part.recover_into(&mut out);
        engine.recover(protocol).expect("storage recovery");
        assert_eq!(part.in_doubt_txns().len() as u64, txns / 4);
        let per_record = (MINE.get() - before) as f64 / retained as f64;
        (crashed, per_record, retained)
    };
    let (short, _, short_records) = crash_and_restart(BURST);
    let (long, per_record, long_records) = crash_and_restart(4 * BURST);
    println!(
        "crash: {short} allocations over {short_records} records, {long} over {long_records}; \
         crash + restart: {per_record:.2} per retained record"
    );
    assert_eq!(short, long, "a crash's allocations grow with the log");
    assert!(
        long <= 8,
        "{long} allocations in a crash of two logs (budget 8)"
    );
    assert!(
        per_record <= 1.5,
        "{per_record:.2} allocations per retained record in a crash and restart (budget 1.5)"
    );
}

/// A restart of the storage engine from its store file alone, with
/// every committed entry in the file: bursts of 32 new keys, each
/// burst after the first also rewriting 8 keys of the one before with a
/// longer value, and a store-file checkpoint after every burst, so a
/// later delta supersedes entries of an earlier one. The file lends
/// its entries as slices and the store reserves its arena and index
/// once, so the rebuild allocates the same few buffers at 288 entries
/// as at 1 152.
#[test]
fn a_store_file_restart_allocates_a_constant() {
    TEST_THREAD.with(|d| d.set(true));
    let restart = |entries: u64| {
        let dir = TempDir::new("alloc-budget-store-file").expect("tempdir");
        let mut engine =
            SiteEngine::new(FileLog::create(dir.path().join("data.wal")).expect("log"));
        let key = |n: u64| format!("account/{n:016x}").into_bytes();
        let mut txn = TxnId::new(0);
        let mut commit = |engine: &mut SiteEngine<FileLog>, key: Vec<u8>, value: &[u8]| {
            txn = txn.next();
            engine.begin(txn);
            engine.put(txn, key, value).expect("put");
            engine.prepare(txn, |_| Ok(())).expect("prepare");
            engine.resolve(txn, Outcome::Commit).expect("resolve");
        };
        for first in (0..entries).step_by(32) {
            for n in first..first + 32 {
                commit(&mut engine, key(n), b"balance=100");
            }
            for n in first.saturating_sub(8)..first {
                commit(&mut engine, key(n), b"balance=1000");
            }
            engine.checkpoint_installed().expect("store file");
        }
        engine.crash();
        let before = MINE.get();
        engine
            .recover(Summaries::default())
            .expect("storage recovery");
        let allocs = MINE.get() - before;
        assert_eq!(engine.store().len() as u64, entries);
        let rewritten = engine.committed_get(&key(entries - 33));
        assert_eq!(rewritten, Some(b"balance=1000".as_slice()));
        assert_eq!(
            engine.committed_get(&key(entries - 1)),
            Some(b"balance=100".as_slice())
        );
        allocs
    };
    let (short, long) = (restart(288), restart(1152));
    println!("store-file restart: {short} allocations at 288 entries, {long} at 1152");
    assert_eq!(
        short, long,
        "a store-file restart's allocations grow with the store"
    );
    assert!(
        long <= 4,
        "{long} allocations in a store-file restart (budget 4)"
    );
}

/// A whole-store checkpoint: the store file's rewrite after a committed
/// delete (a delta entry cannot delete). Keys are committed in bursts of
/// 32 with a store-file delta after each, then one is deleted, and the
/// next `checkpoint_installed` writes the whole store as one record.
/// The store's entries are encoded into the engine's one delta after a
/// single reservation and framed in place, so the rewrite allocates the
/// same few buffers at 287 entries as at 1 151.
#[test]
fn a_whole_store_checkpoint_allocates_a_constant() {
    TEST_THREAD.with(|d| d.set(true));
    let rewrite = |keys: u64| {
        let dir = TempDir::new("alloc-budget-checkpoint").expect("tempdir");
        let mut engine =
            SiteEngine::new(FileLog::create(dir.path().join("data.wal")).expect("log"));
        let key = |n: u64| format!("account/{n:016x}").into_bytes();
        let mut txn = TxnId::new(0);
        let mut commit = |engine: &mut SiteEngine<FileLog>, n: u64, value: Option<Vec<u8>>| {
            txn = txn.next();
            engine.begin(txn);
            match value {
                Some(value) => engine.put(txn, key(n), value).expect("put"),
                None => engine.delete(txn, key(n)).expect("delete"),
            }
            engine.prepare(txn, |_| Ok(())).expect("prepare");
            engine.resolve(txn, Outcome::Commit).expect("resolve");
        };
        for first in (0..keys).step_by(32) {
            for n in first..first + 32 {
                commit(&mut engine, n, Some(b"balance=100".to_vec()));
            }
            engine.checkpoint_installed().expect("store file");
        }
        commit(&mut engine, 0, None);
        let before = MINE.get();
        engine
            .checkpoint_installed()
            .expect("whole-store checkpoint");
        let allocs = MINE.get() - before;
        assert_eq!(engine.store().len() as u64, keys - 1);
        let records = engine.log().records().expect("records");
        assert_eq!(records.len(), 1, "the store file is one record");
        allocs
    };
    let (short, long) = (rewrite(288), rewrite(1152));
    println!("whole-store checkpoint: {short} allocations at 287 entries, {long} at 1151");
    assert_eq!(
        short, long,
        "a whole-store checkpoint's allocations grow with the store"
    );
}

/// A transaction that writes one stored key twice copies the key's
/// before image once, on its first write; the second keeps it. The
/// first such transaction runs in the context the loading commit left,
/// whose key and after-image buffers it refills, so its one allocation
/// is the before image's buffer; a second such transaction finds all
/// three buffers spare and allocates nothing. Both are counted over
/// their two writes, after the loader has left its lock-key buffer to
/// reuse.
#[test]
fn a_rewritten_key_copies_its_before_image_once() {
    TEST_THREAD.with(|d| d.set(true));
    let dir = TempDir::new("alloc-budget-before").expect("tempdir");
    let mut engine = SiteEngine::new(FileLog::create(dir.path().join("data.wal")).expect("log"));
    let key = b"account/0000000000000001".to_vec();
    let loader = TxnId::new(1);
    engine.begin(loader);
    engine.put(loader, &key, b"balance=100").expect("put");
    engine.prepare(loader, |_| Ok(())).expect("prepare");
    engine.resolve(loader, Outcome::Commit).expect("resolve");
    let mut rewrite = |txn: TxnId| {
        let writes = [
            (key.clone(), b"balance=90".to_vec()),
            (key.clone(), b"balance=80".to_vec()),
        ];
        engine.begin(txn);
        let before = MINE.get();
        for (key, value) in writes {
            engine.put(txn, key, value).expect("put");
        }
        let allocs = MINE.get() - before;
        engine.abort_active(txn).expect("abort");
        allocs
    };
    let first = rewrite(TxnId::new(2));
    let second = rewrite(TxnId::new(3));
    assert_eq!(
        (first, second),
        (1, 0),
        "allocations for two writes of one stored key, in a first and a second transaction"
    );
}
