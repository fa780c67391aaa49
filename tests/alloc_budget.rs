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
    static DRIVER: Cell<bool> = const { Cell::new(false) };
    /// Allocations by this thread.
    static MINE: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    let _ = MINE.try_with(|n| n.set(n.get() + 1));
    if !DRIVER.try_with(Cell::get).unwrap_or(false) {
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
    DRIVER.with(|d| d.set(true));
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
/// encoded into their connection's out-buffer.
#[cfg(unix)]
#[test]
fn a_socket_pair_commit_allocates_within_its_budget() {
    let per_txn = runtime_allocs_per_txn(Backend::SocketPair);
    println!("socket pair: {per_txn:.1} node-thread allocations per transaction");
    assert!(
        per_txn <= 14.7,
        "{per_txn:.1} allocations per transaction on the node threads (budget 14.7)"
    );
}

/// The engines alone, on `MemLog`, through the `_into` entry points
/// with one reused action buffer: what is left is table and log
/// entries.
#[test]
fn a_steady_engine_step_allocates_only_for_table_and_log_entries() {
    DRIVER.with(|d| d.set(true)); // keep this thread out of the reactor's count
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

/// The storage engine over the log the kernel gives it, a `FileLog`,
/// driven as the kernel drives it: owned `put`, `prepare_lazy`, one
/// `flush_log` per burst, `resolve`. Each write's buffers move from the
/// caller through the write set, are lent to its update record and end
/// in the store; an ended transaction's context and its freed lock-key
/// buffers are reused by the next burst, so what is left per write is
/// the store's share of a tree node for the new key.
#[test]
fn a_storage_engine_write_is_copied_at_most_once() {
    DRIVER.with(|d| d.set(true));
    let dir = TempDir::new("alloc-budget-engine").expect("tempdir");
    let mut engine = SiteEngine::new(FileLog::create(dir.path().join("data.wal")).expect("log"));
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
            engine.prepare_lazy(txn).expect("prepare");
        }
        engine.flush_log().expect("flush");
        for txn in txns {
            engine.resolve(txn, Outcome::Commit).expect("resolve");
        }
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
        per_write <= 1.0,
        "{per_write:.2} allocations per write in the storage engine (budget 1)"
    );
}

/// Reads by read-only transactions over a committed store, driven as
/// the kernel drives a participant: `begin`, `get`, `resolve`. A read's
/// shared lock refills a freed key buffer and its entry in the read set
/// a buffer an earlier read in the same context left, so after warm-up
/// a read allocates only the value it returns.
#[test]
fn a_storage_engine_read_allocates_only_its_value() {
    DRIVER.with(|d| d.set(true));
    let dir = TempDir::new("alloc-budget-read").expect("tempdir");
    let mut engine = SiteEngine::new(FileLog::create(dir.path().join("data.wal")).expect("log"));
    let keys: Vec<Vec<u8>> = (0..BURST)
        .map(|n| format!("account/{n:016x}").into_bytes())
        .collect();
    let loader = TxnId::new(u64::MAX);
    engine.begin(loader);
    for key in &keys {
        engine
            .put(loader, key.clone(), b"balance=100".to_vec())
            .expect("put");
    }
    engine.prepare(loader).expect("prepare");
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
