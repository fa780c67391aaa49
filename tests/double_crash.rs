//! Double-crash sweeps: crash-during-recovery schedules
//! (`FailureSchedule::double_crash`) moved across the commit window.
//!
//! A site crashes, comes back, gets a short window to re-run its §4.2
//! recovery procedure (re-building the protocol table, re-sending
//! decisions, re-inquiring), and crashes *again* before that recovery
//! can finish. Recovery must be idempotent: the second restart re-runs
//! the same log analysis over a log that now also contains whatever the
//! interrupted recovery appended, and every correctness criterion must
//! still hold. The sweeps move the first crash through the whole commit
//! window in 50us steps, like `tests/recovery.rs` does for single
//! crashes.

mod common;

use common::*;
use presumed_any::prelude::*;

const T: TxnId = TxnId(1);

const MIXED: [ProtocolKind; 3] = [ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC];

/// Sweep a crash-during-recovery schedule for one victim across the
/// commit window. `redo_window` is how long the first recovery runs
/// before the second crash lands.
fn double_crash_sweep(
    kind: CoordinatorKind,
    protos: &[ProtocolKind],
    abort: bool,
    victim: SiteId,
    redo_window: SimTime,
) {
    for crash_us in (900..2_600).step_by(50) {
        let mut s = Scenario::new(kind, protos);
        s.add_txn(T, SimTime::from_millis(1));
        if abort {
            s.txns[0].abort_at = Some(SimTime::from_micros(1_250));
        }
        let crash_at = SimTime::from_micros(crash_us);
        s.failures = FailureSchedule::double_crash(
            victim,
            crash_at,
            crash_at + SimTime::from_millis(40),
            redo_window,
            SimTime::from_millis(110),
        );
        let out = run_scenario(&s);
        let a = check_atomicity(&out.history);
        assert!(a.is_empty(), "double crash at {crash_us}us of {victim}: {a:?}");
        let o = check_operational(&out.history, &out.final_state);
        assert!(o.is_empty(), "double crash at {crash_us}us of {victim}: {o:?}");
        let ss = check_all_safe_states(&out.history, coord());
        assert!(ss.is_empty(), "double crash at {crash_us}us of {victim}: {ss:?}");
    }
}

#[test]
fn coordinator_double_crash_sweep_commit() {
    double_crash_sweep(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        &MIXED,
        false,
        coord(),
        SimTime::from_micros(300),
    );
}

#[test]
fn coordinator_double_crash_sweep_abort() {
    double_crash_sweep(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        &MIXED,
        true,
        coord(),
        SimTime::from_micros(300),
    );
}

#[test]
fn participant_double_crash_sweep_commit() {
    for victim in [site(1), site(2), site(3)] {
        double_crash_sweep(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &MIXED,
            false,
            victim,
            SimTime::from_micros(300),
        );
    }
}

#[test]
fn participant_double_crash_sweep_abort() {
    for victim in [site(1), site(2), site(3)] {
        double_crash_sweep(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &MIXED,
            true,
            victim,
            SimTime::from_micros(300),
        );
    }
}

/// The second crash lands the very instant recovery begins
/// (`redo_window` zero fuses the outages: the boundary recovery never
/// runs at all) and just after it begins (one microsecond of recovery).
/// Both extremes of the crash-during-recovery spectrum must converge.
#[test]
fn zero_and_tiny_redo_windows() {
    for redo_us in [0u64, 1, 50] {
        for victim in [coord(), site(3)] {
            double_crash_sweep(
                CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
                &MIXED,
                false,
                victim,
                SimTime::from_micros(redo_us),
            );
        }
    }
}

/// Single-protocol coordinators under double crashes: each presumption's
/// recovery procedure must be idempotent on its own, not just PrAny's.
#[test]
fn single_protocol_double_crash_sweeps() {
    for p in ProtocolKind::ALL {
        let protos = [p, p];
        double_crash_sweep(
            CoordinatorKind::Single(p),
            &protos,
            false,
            coord(),
            SimTime::from_micros(300),
        );
        double_crash_sweep(
            CoordinatorKind::Single(p),
            &protos,
            false,
            site(1),
            SimTime::from_micros(300),
        );
    }
}

/// Both the coordinator and a participant suffer crash-during-recovery
/// schedules, overlapping in time — the worst case the substrate can
/// schedule without partitioning.
#[test]
fn coordinator_and_participant_both_double_crash() {
    for (c_at, p_at) in [(1_300u64, 1_500u64), (1_500, 1_300), (1_700, 1_700)] {
        let mut s = Scenario::new(CoordinatorKind::PrAny(SelectionPolicy::PaperStrict), &MIXED);
        s.add_txn(T, SimTime::from_millis(1));
        let mut f = FailureSchedule::double_crash(
            coord(),
            SimTime::from_micros(c_at),
            SimTime::from_micros(c_at) + SimTime::from_millis(30),
            SimTime::from_micros(400),
            SimTime::from_millis(80),
        );
        let p = FailureSchedule::double_crash(
            site(3),
            SimTime::from_micros(p_at),
            SimTime::from_micros(p_at) + SimTime::from_millis(25),
            SimTime::from_micros(200),
            SimTime::from_millis(100),
        );
        for o in p.outages {
            f.push(o.site, o.crash_at, o.recover_at);
        }
        s.failures = f;
        let out = run_scenario(&s);
        assert_fully_correct(&out);
        assert!(out.decided.contains_key(&T));
    }
}

// ---------------------------------------------------------------------
// WAL-byte-level double crashes: first crash inside `truncate_prefix`,
// second during the recovery that follows it
// ---------------------------------------------------------------------

mod gc_bytes {
    use presumed_any::types::{LogPayload, TxnId};
    use presumed_any::wal::tempdir::TempDir;
    use presumed_any::wal::{FileLog, Lsn, StableLog, RECLAIM_FLOOR};
    use std::fs;
    use std::path::Path;

    /// Forced records in the log the compaction sweeps collect, and the
    /// low-water mark they collect to: the released 30-byte frames come
    /// to nearly twice the reclaim floor, so `truncate_prefix` rewrites
    /// the file, keeping four.
    const CUT: Lsn = Lsn(RECLAIM_FLOOR / 16);
    const RECORDS: u64 = CUT.0 + 4;

    fn end(t: u64) -> LogPayload {
        LogPayload::End { txn: TxnId::new(t) }
    }

    /// A file log at `path` holding `n` forced records.
    fn write_log(path: &Path, n: u64) {
        let mut log = FileLog::create(path).unwrap();
        for i in 0..n {
            log.append(end(i), true).unwrap();
        }
    }

    /// Byte images for the sweep: the pre-GC log and the complete
    /// rewrite sibling `truncate_prefix(CUT)` would have produced,
    /// captured by running a real GC on a scratch copy.
    fn images(dir: &TempDir) -> (Vec<u8>, Vec<u8>) {
        let scratch = dir.path().join("scratch");
        write_log(&scratch, RECORDS);
        let pre_gc = fs::read(&scratch).unwrap();
        {
            let mut log = FileLog::open(&scratch).unwrap();
            log.truncate_prefix(CUT).unwrap();
        }
        let rewrite = fs::read(&scratch).unwrap();
        assert!(rewrite.len() < pre_gc.len(), "the GC compacted");
        (pre_gc, rewrite)
    }

    /// The recovering site behind `log` logs `appends` forced records of
    /// its own after the GC, then crashes: tear `j` bytes off what it
    /// appended, every `step`-th count from one byte up to all of it.
    /// The second restart must keep the GC's low-water mark, recover
    /// exactly the records the GC retained plus every appended frame
    /// the tear left whole, resume right after them, and accept appends.
    fn append_then_tear(mut log: FileLog, path: &Path, appends: u64, step: usize, label: &str) {
        let cut = log.low_water_mark();
        let kept = log.records().unwrap().len();
        // The file's length after the GC and after each append.
        let mut ends = vec![fs::metadata(path).unwrap().len()];
        for i in 0..appends {
            log.append(end(1000 + i), true).unwrap();
            ends.push(fs::metadata(path).unwrap().len());
        }
        drop(log);
        let image = fs::read(path).unwrap();
        let appended = image.len() - ends[0] as usize;
        for j in (1..=appended).step_by(step) {
            let torn = &image[..image.len() - j];
            let torn_path = path.with_extension(format!("j{j}"));
            fs::write(&torn_path, torn).unwrap();
            let whole = ends[1..].iter().filter(|&&e| e <= torn.len() as u64).count();

            // Second restart: the retained suffix and the whole frames,
            // from the preserved low water on.
            let mut log = FileLog::open(&torn_path).unwrap();
            assert_eq!(
                log.low_water_mark(),
                cut,
                "{label} j={j}: the GC must survive the second crash"
            );
            let recs = log.records().unwrap();
            assert_eq!(
                recs.len(),
                kept + whole,
                "{label} j={j}: torn frames dropped, whole ones kept"
            );
            for (i, r) in recs.iter().enumerate() {
                let lsn = Lsn(cut.raw() + i as u64);
                assert_eq!(
                    r.lsn, lsn,
                    "{label} j={j}: contiguous, nothing below the mark"
                );
            }
            let resumed = Lsn(cut.raw() + recs.len() as u64);
            assert_eq!(log.next_lsn(), resumed, "{label} j={j}");

            // And the log keeps working: append, crash, reopen.
            log.append(end(2000), true).unwrap();
            drop(log);
            let log = FileLog::open(&torn_path).unwrap();
            let recs = log.records().unwrap();
            assert_eq!(recs.last().unwrap().lsn, resumed, "{label} j={j}");
            assert_eq!(log.next_lsn(), resumed.next(), "{label} j={j}");
        }
    }

    /// First crash: inside a compacting `truncate_prefix`, after `k`
    /// bytes of the `.rewrite` sibling reached disk but before the
    /// rename — the main file still holds the pre-GC image. Recovery
    /// must scan the full pre-GC log, clear the sibling, and be able to
    /// redo the GC.
    ///
    /// Second crash: during that recovery, tearing whatever the
    /// interrupted recovery had appended after its redone GC.
    #[test]
    fn gc_crash_then_recovery_scan_crash_sweep() {
        let dir = TempDir::new("double-crash-gc").unwrap();
        let (pre_gc, rewrite) = images(&dir);

        // k sweeps the sibling from empty through mid-header, mid-frame
        // and complete-but-unrenamed; step 7 stays misaligned with the
        // frame boundaries so every kind of partial write is visited.
        for k in (0..=rewrite.len()).step_by(7) {
            let path = dir.path().join(format!("wal-k{k}"));
            let sibling = path.with_extension("rewrite");
            fs::write(&path, &pre_gc).unwrap();
            fs::write(&sibling, &rewrite[..k]).unwrap();

            // First restart: the interrupted GC never happened.
            let mut log = FileLog::open(&path).unwrap();
            assert!(!sibling.exists(), "k={k}: stale .rewrite must be cleared");
            assert_eq!(
                log.records().unwrap().len(),
                RECORDS as usize,
                "k={k}: pre-GC log intact"
            );
            assert_eq!(log.low_water_mark(), Lsn::ZERO, "k={k}");

            // The recovery redoes the GC and logs its own progress...
            log.truncate_prefix(CUT).unwrap();
            let after_gc = fs::metadata(&path).unwrap().len();
            assert_eq!(
                after_gc,
                rewrite.len() as u64,
                "k={k}: the redone GC compacted"
            );
            // ...and crashes again.
            append_then_tear(log, &path, 2, 5, &format!("k={k}"));
        }
    }

    /// First crash a moment later: after the rename swapped the rewrite
    /// into place (the GC is durable) but before the recovering site got
    /// any further. The second crash again tears the recovery's tail.
    /// The GC must stick: no pre-GC ghosts.
    #[test]
    fn gc_crash_after_rename_then_recovery_crash() {
        let dir = TempDir::new("double-crash-gc-renamed").unwrap();
        let (_, rewrite) = images(&dir);

        let path = dir.path().join("wal");
        fs::write(&path, &rewrite).unwrap();
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.low_water_mark(), CUT);
        assert_eq!(log.records().unwrap().len(), 4);
        assert_eq!(log.next_lsn(), Lsn(RECORDS));

        // Every byte of the recovery's record torn, one at a time.
        append_then_tear(log, &path, 1, 1, "renamed");
    }

    /// Below the reclaim floor GC only rewrites the header's low-water
    /// field in place. First crash: around that write, which either
    /// never reached the disk or landed. Recovery must find the old
    /// mark over the whole log or the new one over the retained
    /// suffix, and redo the GC in the first case — in place again, the
    /// file keeping its length. Second crash: during that recovery,
    /// tearing what it appended.
    #[test]
    fn header_write_lost_or_landed_then_recovery_crash() {
        let dir = TempDir::new("double-crash-gc-header").unwrap();
        let (records, cut) = (10, Lsn(6));
        let scratch = dir.path().join("scratch");
        write_log(&scratch, records);
        let pre_gc = fs::read(&scratch).unwrap();

        for landed in [false, true] {
            let path = dir.path().join(format!("wal-landed-{landed}"));
            let mut image = pre_gc.clone();
            if landed {
                image[8..16].copy_from_slice(&cut.raw().to_le_bytes());
            }
            fs::write(&path, &image).unwrap();

            // First restart: the old mark over every record, or the new
            // one over the retained suffix.
            let mut log = FileLog::open(&path).unwrap();
            let want = if landed { (cut, 4) } else { (Lsn::ZERO, 10) };
            let recs = log.records().unwrap();
            assert_eq!((log.low_water_mark(), recs.len()), want, "landed={landed}");
            assert_eq!(log.next_lsn(), Lsn(records), "landed={landed}");

            // The recovery redoes a lost GC and logs its own progress...
            if log.low_water_mark() < cut {
                log.truncate_prefix(cut).unwrap();
            }
            let after_gc = fs::metadata(&path).unwrap().len();
            assert_eq!(after_gc, pre_gc.len() as u64, "landed={landed}: in place");
            // ...and crashes again.
            assert_eq!(log.records().unwrap().len(), 4, "landed={landed}");
            append_then_tear(log, &path, 2, 1, &format!("landed={landed}"));
        }
    }
}

/// Double crashes under 20% message loss: the recovery inquiries and
/// decision re-sends themselves ride lossy links, so the bounded
/// exponential backoff is what drives convergence.
#[test]
fn double_crash_under_message_loss() {
    for seed in 0..4 {
        let mut s = Scenario::new(CoordinatorKind::PrAny(SelectionPolicy::PaperStrict), &MIXED);
        s.network = NetworkConfig::lossy(0.2);
        s.seed = seed;
        s.add_txn(T, SimTime::from_millis(1));
        s.failures = FailureSchedule::double_crash(
            site(2),
            SimTime::from_micros(1_500),
            SimTime::from_millis(35),
            SimTime::from_micros(500),
            SimTime::from_millis(90),
        );
        let out = run_scenario(&s);
        assert_fully_correct(&out);
    }
}
