//! # acp-wal
//!
//! Write-ahead-log substrate for the Presumed Any workspace.
//!
//! Every 2PC variant in the paper is *defined* by its logging
//! discipline: which records are written, which of them are **forced**
//! (synchronously made stable before the protocol proceeds), and when a
//! transaction's records may be garbage collected. This crate provides
//! that substrate:
//!
//! * a binary record codec with CRC32 framing and torn-write detection
//!   ([`encode`], [`crc`]),
//! * **one framed stable log** ([`framed::FramedLog`]) — header, append
//!   buffer, write-out, GC (in place or by compaction) and recovery scan
//!   written once — over a [`Store`], which holds the only copy of its
//!   records (the log keeps one payload length per live record and reads
//!   the records back on demand): a file ([`file::FileLog`]) for the
//!   real-time runtimes,
//!   or the same byte image in memory, damaged on cue
//!   ([`fault::FaultyLog`]: torn writes, partial fsyncs, bit flips,
//!   write and sync errors), so what is fuzzed is what commits,
//! * [`mem::MemLog`], the record-level reference model the simulator
//!   and the checker clone and hash: non-forced records buffered in
//!   volatile memory are lost on a crash, forced records survive,
//! * a group-commit layer ([`group`]) that batches concurrent
//!   transactions' forced writes into a single physical force —
//!   [`group::GroupCommitLog`] wraps one site's log,
//!   [`group::FsyncDomain`] coalesces the sites one thread hosts,
//! * log-analysis scanning ([`scan`]) used by the recovery procedures of
//!   §4.2, and
//! * garbage-collection tracking ([`gc::GcTracker`]) — the observable
//!   form of the paper's *operational correctness* requirement that
//!   coordinators and participants "can, eventually, … garbage collect
//!   their logs" (Definition 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod encode;
pub mod error;
pub mod fault;
pub mod file;
pub mod framed;
pub mod gc;
pub mod group;
pub mod mem;
pub mod record;
pub mod scan;
pub mod tempdir;

pub use error::WalError;
pub use fault::{Fault, FaultyImage, FaultyLog};
pub use file::{Disk, FileLog};
pub use framed::{FramedLog, RecoveryReport, Store, RECLAIM_FLOOR};
pub use gc::GcTracker;
pub use group::{ClosedBatch, DomainStats, FsyncDomain, GroupCommitLog, GroupCommitStats};
pub use mem::MemLog;
pub use record::{LogRecord, Lsn, WalStats};

use acp_types::LogPayload;

/// A stable log: an append-only sequence of records with force/flush
/// semantics that survive crashes.
///
/// Implementations must guarantee:
/// * records appended with `force = true` are durable when `append`
///   returns;
/// * records appended with `force = false` become durable on the next
///   `flush`, the next forced append, or not at all if a crash
///   intervenes;
/// * `records()` returns only durable records, in append order.
///
/// A [`FramedLog`] keeps no copy of its records: `records()` and
/// `for_each_record` read the live region back from its store and
/// decode it, so a caller that needs only where durability ends asks
/// [`StableLog::durable_end`] instead.
pub trait StableLog {
    /// Append a record, encoded from the caller's payload: the log
    /// keeps no reference to it, so a caller may lend its own buffers
    /// to the payload for the call and take them back afterwards,
    /// whatever the result. If `force` is true the record (and all
    /// earlier buffered records — the log is strictly ordered) is made
    /// durable before returning.
    fn append_ref(&mut self, payload: &LogPayload, force: bool) -> Result<Lsn, WalError>;

    /// [`StableLog::append_ref`] for a payload built only to be logged:
    /// the caller gives it up. A log that keeps decoded records (a
    /// [`MemLog`]) overrides it to keep the payload without a copy.
    fn append(&mut self, payload: LogPayload, force: bool) -> Result<Lsn, WalError> {
        self.append_ref(&payload, force)
    }

    /// Make all buffered records durable.
    fn flush(&mut self) -> Result<(), WalError>;

    /// All durable records at or above the garbage-collection
    /// low-water mark, in append order.
    fn records(&self) -> Result<Vec<LogRecord>, WalError>;

    /// Visit every durable record in append order without materializing
    /// a vector. Hot paths that only need to fold over the records (the
    /// model checker's state fingerprints) use this; the default
    /// delegates to [`StableLog::records`], in-memory logs override it
    /// with direct iteration, and a [`FramedLog`] decodes the region it
    /// reads back one record at a time.
    fn for_each_record(&self, f: &mut dyn FnMut(&LogRecord)) -> Result<(), WalError> {
        for r in self.records()? {
            f(&r);
        }
        Ok(())
    }

    /// Discard all records with LSN strictly below `lsn` (garbage
    /// collection). `lsn` becomes the new low-water mark: neither
    /// `records()` nor a recovery returns a discarded record again.
    /// When the bytes leave the medium is the log's affair — a
    /// [`FramedLog`] durably moves its header's mark in place and
    /// rewrites the file only once the dead bytes outweigh the live
    /// ones.
    fn truncate_prefix(&mut self, lsn: Lsn) -> Result<(), WalError>;

    /// The current low-water mark: the smallest LSN still retained.
    fn low_water_mark(&self) -> Lsn;

    /// The LSN the next appended record will receive.
    fn next_lsn(&self) -> Lsn;

    /// The first LSN that is not yet durable: [`StableLog::next_lsn`]
    /// less the records still buffered. Everything below it (and at or
    /// above the low-water mark) is what [`StableLog::records`] returns.
    fn durable_end(&self) -> Lsn;

    /// Cost/health statistics.
    fn stats(&self) -> WalStats;

    /// Simulate the stable-storage side of a site crash: every record
    /// appended but not yet forced/flushed is lost. Returns how many
    /// records were lost. Volatile protocol state is the caller's to
    /// clear; this method only handles the log's buffered tail.
    fn lose_unflushed(&mut self) -> Result<usize, WalError>;
}

#[cfg(test)]
mod trait_tests {
    use super::*;
    use acp_types::TxnId;

    /// Exercise any `StableLog` implementation through the common
    /// contract.
    fn contract(log: &mut dyn StableLog) {
        let t = TxnId::new(1);
        let l0 = log.append(LogPayload::End { txn: t }, true).unwrap();
        let l1 = log
            .append(LogPayload::End { txn: t.next() }, false)
            .unwrap();
        assert!(l0 < l1);
        log.flush().unwrap();
        let recs = log.records().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].lsn, l0);
        assert_eq!(recs[1].lsn, l1);

        log.truncate_prefix(l1).unwrap();
        let recs = log.records().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(log.low_water_mark(), l1);
    }

    #[test]
    fn mem_log_satisfies_contract() {
        let mut log = MemLog::new();
        contract(&mut log);
    }

    #[test]
    fn file_log_satisfies_contract() {
        let dir = tempdir::TempDir::new("wal-contract").unwrap();
        let mut log = FileLog::create(dir.path().join("wal")).unwrap();
        contract(&mut log);
    }

    #[test]
    fn faulty_log_satisfies_contract() {
        let mut log = FaultyLog::new();
        contract(&mut log);
    }
}
