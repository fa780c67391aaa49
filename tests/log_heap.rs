//! What a commit leaves on the heap, as tier-1 facts.
//!
//! - The data log: a `FileLog` keeps no copy of its records. The file
//!   is the only one; the log holds its encode buffer, its counters and
//!   one payload length (4 B) per live record, so a log the kernel never
//!   collects (a participant's data log) costs the heap about that per
//!   record and no more.
//! - The engines (Definition 1, everything is eventually forgotten): a
//!   coordinator and its participants whose logs are collected keep
//!   only their decision memos per transaction — no protocol-table
//!   entry, no log record and no per-transaction cost tally (costs are
//!   observed by the harness, not kept by the engines).
//!
//! This binary's own allocator counts the live bytes of the thread
//! that allocates them, like `tests/alloc_budget.rs` counts calls.

mod common;

use acp_wal::tempdir::TempDir;
use acp_wal::{FileLog, StableLog};
use common::engines::Engines;
use presumed_any::prelude::*;
use presumed_any::types::LogPayload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so updating it inside
    // the allocator neither allocates nor sees a destroyed value.
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: usize, sign: i64) {
    let _ = LIVE.try_with(|live| live.set(live.get() + sign * bytes as i64));
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

struct LiveBytes;

// SAFETY: every method forwards the caller's layout and pointer to
// `System` unchanged and returns its result unchanged; `add` touches one
// destructor-less thread-local, so it neither allocates nor panics.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size(), 1);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(layout.size(), -1);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size(), 1);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(layout.size(), -1);
        add(new_size, 1);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// A data engine's `Update` record: an 8-byte key, an 8-byte value.
fn update(i: u64) -> LogPayload {
    LogPayload::Update {
        txn: TxnId::new(i),
        key: i.to_le_bytes().to_vec(),
        before: None,
        after: Some(vec![0xAB; 8]),
    }
}

/// 10 000 `Update` records appended and flushed a burst at a time, as
/// the kernel writes a data log out once per turn: the log's live heap
/// grows by at most one payload length per record (a `u32` in a
/// `VecDeque` that doubles, so ≤ 8 B). A decoded copy of each record
/// would cost a 96 B `LogRecord` plus its key and value.
#[test]
fn a_file_log_holds_at_most_one_offset_per_record_on_the_heap() {
    const RECORDS: u64 = 10_000;
    const BURST: u64 = 64;
    let dir = TempDir::new("log-heap").unwrap();
    let mut log = FileLog::create(dir.path().join("data.wal")).unwrap();
    // One burst first, so the encode buffer holds a burst's capacity.
    for i in 0..BURST {
        log.append(update(i), false).unwrap();
    }
    log.flush().unwrap();

    let before = live();
    for i in BURST..BURST + RECORDS {
        log.append(update(i), false).unwrap();
        if (i + 1) % BURST == 0 {
            log.flush().unwrap();
        }
    }
    log.flush().unwrap();
    let per_record = (live() - before) as f64 / RECORDS as f64;
    assert!(
        per_record <= 8.0,
        "the log's heap grew {per_record:.1} B per record (at most one 4 B length, doubled)"
    );

    // Nothing is lost for it: the records read back from the file.
    let records = log.records().unwrap();
    assert_eq!(records.len() as u64, BURST + RECORDS);
    assert_eq!(records.last().unwrap().payload, update(BURST + RECORDS - 1));
}

/// 10 000 PrAny commits over a PrN, a PrA and a PrC participant, the
/// engines on `MemLog` as `tests/alloc_budget.rs` drives them, every log
/// flushed and collected once per burst of 64 as the kernel does: what
/// the heap keeps per transaction is the coordinator's `decisions` memo
/// and each participant's `enforced` memo (≈ 84 B together). A
/// per-transaction cost map in each of the four engines, the engines'
/// own tally of their forces, records and messages, kept ≈ 600 B more.
#[test]
fn the_engines_keep_only_their_decision_memos_per_transaction() {
    const BURST: u64 = 64;
    const TXNS: u64 = 10_000;
    // As the kernel hosts them: timers made obsolete are retired at
    // once instead of left to fire, and every log is flushed and
    // collected once per turn.
    let mut engines = Engines::prany();
    engines.coordinator.set_track_cancellations(true);
    for p in &mut engines.participants {
        p.set_track_cancellations(true);
    }
    let mut run = |txn: TxnId| {
        engines.commit(txn);
        if txn.raw().is_multiple_of(BURST) {
            engines
                .coordinator
                .collect_garbage()
                .expect("coordinator gc");
            engines.coordinator.drain_cancelled_timers().for_each(drop);
            for p in &mut engines.participants {
                p.log_mut().flush().expect("flush");
                p.collect_garbage().expect("participant gc");
                p.drain_cancelled_timers().for_each(drop);
            }
        }
    };

    // A few bursts first, so every buffer and queue has its capacity.
    for i in 1..=4 * BURST {
        run(TxnId::new(i));
    }
    let before = live();
    for i in 4 * BURST + 1..=4 * BURST + TXNS {
        run(TxnId::new(i));
    }
    let per_txn = (live() - before) as f64 / TXNS as f64;
    println!("engines: {per_txn:.1} live bytes per transaction");
    assert!(
        per_txn <= 200.0,
        "the engines' heap grew {per_txn:.1} B per transaction (budget 200: the decision memos)"
    );
    assert_eq!(engines.coordinator.protocol_table_size(), 0);
}
