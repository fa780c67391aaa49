//! WAL fault-injection fuzzing: the ROADMAP "Recovery fuzzing" item.
//!
//! A `FaultyLog` holds the exact byte image a `FileLog` would have on
//! disk. These properties mutate that image — torn tails, partial
//! fsyncs, bit flips at arbitrary offsets in the record region — and
//! prove the two claims the recovery procedures of §4.2 rest on:
//!
//! 1. **No corrupted record is ever accepted.** Every record a
//!    post-crash scan returns is byte-for-byte one of the records that
//!    was actually appended (CRC32 framing rejects all damage).
//! 2. **The scan recovers the longest valid prefix.** Survivors are an
//!    exact prefix of the appended sequence, and for a pure torn tail
//!    the prefix length is exactly the number of whole undamaged frames.
//!
//! The default case counts are a CI smoke slice; set `PROPTEST_CASES`
//! (e.g. `PROPTEST_CASES=4096`) to run the full campaign.

use acp_wal::encode::frame_len;
use acp_wal::fault::{Fault, FaultyLog};
use acp_wal::scan::analyze;
use acp_wal::{GcTracker, LogRecord, MemLog, StableLog, RECLAIM_FLOOR};
use presumed_any::prelude::*;
use presumed_any::types::{LogPayload, ParticipantEntry};
use proptest::prelude::*;

/// Byte length of the log header preceding the first frame (see
/// `acp_wal::file`): the fuzzer corrupts the *record region*, whose
/// integrity is what the CRC framing claims to protect.
const HEADER_LEN: u64 = 16;

// ---------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------

fn arb_payload() -> impl Strategy<Value = LogPayload> {
    let txn = (0u64..100).prop_map(TxnId::new);
    prop_oneof![
        (txn.clone(), 0u32..8).prop_map(|(txn, c)| LogPayload::Prepared {
            txn,
            coordinator: SiteId::new(c)
        }),
        (
            txn.clone(),
            prop_oneof![Just(Outcome::Commit), Just(Outcome::Abort)]
        )
            .prop_map(|(txn, outcome)| LogPayload::PartDecision { txn, outcome }),
        txn.clone().prop_map(|txn| LogPayload::End { txn }),
        txn.clone().prop_map(|txn| LogPayload::PartEnd { txn }),
        (
            txn.clone(),
            prop_oneof![Just(Outcome::Commit), Just(Outcome::Abort)]
        )
            .prop_map(|(txn, outcome)| LogPayload::CoordDecision {
                txn,
                outcome,
                participants: vec![
                    ParticipantEntry::new(SiteId::new(1), ProtocolKind::PrN),
                    ParticipantEntry::new(SiteId::new(2), ProtocolKind::PrC),
                ],
            }),
        (txn, prop::collection::vec(any::<u8>(), 0..16)).prop_map(|(txn, key)| {
            LogPayload::Update {
                txn,
                key,
                before: None,
                after: Some(vec![0xAB; 3]),
            }
        }),
    ]
}

/// A log's worth of (payload, forced) appends.
fn arb_appends() -> impl Strategy<Value = Vec<(LogPayload, bool)>> {
    prop::collection::vec((arb_payload(), any::<bool>()), 1..12)
}

/// Legal per-transaction record sequences (each a prefix of a coordinator
/// or participant life cycle), plus an interleaving seed. Unlike
/// [`arb_payload`] soup, these never reuse a txn id across lives, so GC
/// and recovery analysis agree on what "still needed" means.
fn arb_txn_scripts() -> impl Strategy<Value = (Vec<Vec<LogPayload>>, Vec<u8>)> {
    let script = (0u8..5).prop_map(|kind| {
        move |t: u64| -> Vec<LogPayload> {
            let txn = TxnId::new(t);
            let decision = LogPayload::CoordDecision {
                txn,
                outcome: Outcome::Commit,
                participants: vec![],
            };
            let prepared = LogPayload::Prepared {
                txn,
                coordinator: SiteId::new(0),
            };
            let part_dec = LogPayload::PartDecision {
                txn,
                outcome: Outcome::Commit,
            };
            match kind {
                0 => vec![decision],                                        // open coordinator
                1 => vec![decision, LogPayload::End { txn }],               // finished coordinator
                2 => vec![prepared],                                        // in doubt
                3 => vec![prepared, part_dec],                              // decided participant
                _ => vec![prepared, part_dec, LogPayload::PartEnd { txn }], // finished
            }
        }
    });
    (
        prop::collection::vec(script, 1..7).prop_map(|makers| {
            makers
                .into_iter()
                .enumerate()
                .map(|(i, mk)| mk(1000 + i as u64))
                .collect::<Vec<_>>()
        }),
        prop::collection::vec(any::<u8>(), 0..24),
    )
}

/// Interleave the scripts, preserving per-transaction order, choosing
/// which script advances next from the seed bytes.
fn interleave(mut scripts: Vec<Vec<LogPayload>>, seed: &[u8]) -> Vec<LogPayload> {
    for s in &mut scripts {
        s.reverse(); // pop from the back = per-txn order
    }
    let mut out = Vec::new();
    let mut si = 0usize;
    while scripts.iter().any(|s| !s.is_empty()) {
        let pick = seed.get(out.len()).copied().unwrap_or(si as u8) as usize;
        let nonempty: Vec<usize> = (0..scripts.len())
            .filter(|&i| !scripts[i].is_empty())
            .collect();
        let idx = nonempty[pick % nonempty.len()];
        out.push(scripts[idx].pop().unwrap());
        si += 1;
    }
    out
}

/// A batch of faults aimed at the record region of the image.
fn arb_faults() -> impl Strategy<Value = Vec<Fault>> {
    let fault = prop_oneof![
        (1u64..200).prop_map(|bytes| Fault::TornTail { bytes }),
        (1u64..80).prop_map(|drop_bytes| Fault::PartialFsync { drop_bytes }),
        (0u64..600, 1u8..=255).prop_map(|(rel, mask)| Fault::BitFlip {
            offset: HEADER_LEN + rel,
            mask,
        }),
    ];
    prop::collection::vec(fault, 1..5)
}

/// One step of the GC differential.
#[derive(Clone, Debug)]
enum Op {
    /// An update of `txn` with a `key_len`-byte key, or its end record.
    Append {
        txn: u64,
        end: bool,
        key_len: usize,
        force: bool,
    },
    Flush,
    /// `truncate_prefix` to what the durable records release.
    Gc,
    /// A fault-free crash and recovery.
    Crash,
}

/// Mostly appends, then collections, flushes and crashes. Long enough,
/// with keys up to a twentieth of the reclaim floor, that the dead
/// bytes cross the floor and GC compacts as well as moving the mark.
fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let key_len = 0usize..(RECLAIM_FLOOR / 20) as usize;
    let op = (0u8..13, 0u64..6, any::<bool>(), key_len, any::<bool>()).prop_map(
        |(pick, txn, end, key_len, force)| match pick {
            0..=7 => Op::Append {
                txn,
                end,
                key_len,
                force,
            },
            8 => Op::Flush,
            9..=11 => Op::Gc,
            _ => Op::Crash,
        },
    );
    prop::collection::vec(op, 1..300)
}

fn payload(txn: u64, end: bool, key_len: usize) -> LogPayload {
    let txn = TxnId::new(txn);
    if end {
        return LogPayload::End { txn };
    }
    LogPayload::Update {
        txn,
        key: vec![0x5A; key_len],
        before: None,
        after: Some(vec![0xAB; 3]),
    }
}

/// The bytes of `records`' frames.
fn frame_bytes(records: &[LogRecord]) -> u64 {
    records.iter().map(|r| frame_len(&r.payload) as u64).sum()
}

/// Append everything, remembering what the writer believes is durable
/// after the final flush.
fn build(log: &mut FaultyLog, appends: &[(LogPayload, bool)]) -> Vec<LogRecord> {
    for (p, force) in appends {
        log.append(p.clone(), *force).unwrap();
    }
    log.flush().unwrap();
    log.records().unwrap()
}

/// Assert the fuzzer's core invariant: `survivors` is an exact,
/// uncorrupted prefix of `believed`.
fn assert_valid_prefix(survivors: &[LogRecord], believed: &[LogRecord]) {
    assert!(
        survivors.len() <= believed.len(),
        "recovery invented {} record(s)",
        survivors.len() - believed.len()
    );
    for (i, (got, want)) in survivors.iter().zip(believed).enumerate() {
        assert_eq!(
            got, want,
            "record {i} survived recovery with corrupted contents"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    /// Claim 1: arbitrary fault batches never smuggle a corrupted
    /// record past the scan.
    #[test]
    fn corruption_is_never_accepted(appends in arb_appends(), faults in arb_faults()) {
        let mut log = FaultyLog::new();
        let believed = build(&mut log, &appends);
        for f in &faults {
            log.inject(*f);
        }
        // Partial fsyncs fire on a force: give them a batch to damage.
        log.append(LogPayload::End { txn: TxnId::new(999) }, true).unwrap();
        let mut believed_plus = believed.clone();
        believed_plus.push(log.records().unwrap().last().unwrap().clone());

        let report = log.crash_and_recover().unwrap();
        let survivors = log.records().unwrap();
        prop_assert_eq!(report.survivors, survivors.len());
        assert_valid_prefix(&survivors, &believed_plus);

        // Recovery is idempotent: crashing again with no new faults
        // must change nothing.
        let again = log.crash_and_recover().unwrap();
        prop_assert_eq!(again.survivors, survivors.len());
        prop_assert_eq!(again.truncated_bytes, 0);
        prop_assert_eq!(log.records().unwrap(), survivors);
    }

    /// Claim 2: a pure torn tail keeps exactly the whole frames before
    /// the cut — the longest valid prefix, no more, no less.
    #[test]
    fn torn_tail_recovers_exact_frame_prefix(appends in arb_appends(), cut in 0u64..400) {
        let mut log = FaultyLog::new();
        let believed = build(&mut log, &appends);

        // Frame boundaries from the believed image.
        let image_len = log.image().len() as u64;
        let cut = cut.min(image_len - HEADER_LEN);
        let survivor_bytes = image_len - cut;
        // Count whole frames that fit in survivor_bytes by replaying
        // the frame sizes (encode is deterministic).
        let mut fit = 0usize;
        let mut pos = HEADER_LEN;
        for rec in &believed {
            let frame = acp_wal::encode::encode_frame(rec).len() as u64;
            if pos + frame <= survivor_bytes {
                fit += 1;
                pos += frame;
            } else {
                break;
            }
        }

        log.inject(Fault::TornTail { bytes: cut });
        let report = log.crash_and_recover().unwrap();
        prop_assert_eq!(report.survivors, fit, "cut={} of {}", cut, image_len);
        assert_valid_prefix(&log.records().unwrap(), &believed);
        prop_assert_eq!(report.lost_durable, believed.len() - fit);
    }

    /// Satellite: GC after a torn tail. The low-water mark a re-scan
    /// derives must never reclaim a record that post-corruption recovery
    /// analysis (in-doubt / open-coordinator detection) still needs.
    #[test]
    fn gc_after_torn_tail_never_reclaims_needed_records(
        scripts_and_seed in arb_txn_scripts(),
        cut in 1u64..300,
    ) {
        let (scripts, seed) = scripts_and_seed;
        let appends: Vec<(LogPayload, bool)> = interleave(scripts, &seed)
            .into_iter()
            .map(|p| (p, true))
            .collect();
        let mut log = FaultyLog::new();
        build(&mut log, &appends);
        log.inject(Fault::TornTail { bytes: cut });
        log.crash_and_recover().unwrap();
        let survivors = log.records().unwrap();

        // Rebuild GC state from what actually survived — the only sound
        // source after corruption.
        let tracker = GcTracker::from_records(&survivors);
        let releasable = tracker.releasable();

        // Every transaction recovery still cares about (in doubt, or an
        // open coordinator decision awaiting acks) must keep all its
        // records at or above the truncation point.
        for (txn, summary) in analyze(&survivors) {
            if summary.in_doubt() || summary.coordinator_open() {
                for r in survivors.iter().filter(|r| r.payload.txn() == txn) {
                    prop_assert!(
                        r.lsn >= releasable,
                        "txn {:?} record at {:?} would be reclaimed (releasable {:?})",
                        txn, r.lsn, releasable
                    );
                }
            }
        }

        // And the advance must actually be applicable to the recovered log.
        log.truncate_prefix(releasable).unwrap();
        let retained = log.records().unwrap();
        prop_assert!(retained.iter().all(|r| r.lsn >= releasable));
    }

    /// GC in place or by compaction is invisible at the record level:
    /// the framed log agrees with the reference `MemLog` after every
    /// fault-free crash, and its image never holds more than twice its
    /// live frames plus the reclaim floor and the header.
    #[test]
    fn gc_differential_against_the_reference_log(ops in arb_ops()) {
        let mut faulty = FaultyLog::new();
        let mut reference = MemLog::new();
        for op in ops {
            match op {
                Op::Append { txn, end, key_len, force } => {
                    let p = payload(txn, end, key_len);
                    let a = faulty.append(p.clone(), force).unwrap();
                    prop_assert_eq!(a, reference.append(p, force).unwrap());
                }
                Op::Flush => {
                    faulty.flush().unwrap();
                    reference.flush().unwrap();
                }
                Op::Gc => {
                    let records = reference.records().unwrap();
                    let releasable = GcTracker::from_records(&records).releasable();
                    if releasable > reference.low_water_mark() {
                        faulty.truncate_prefix(releasable).unwrap();
                        reference.truncate_prefix(releasable).unwrap();
                    }
                    let live = frame_bytes(&faulty.records().unwrap());
                    let image = faulty.image().len() as u64;
                    prop_assert!(
                        image <= 2 * live + RECLAIM_FLOOR + HEADER_LEN,
                        "image {} B over {} live B", image, live
                    );
                }
                Op::Crash => {
                    faulty.crash_and_recover().unwrap();
                    reference.crash();
                    prop_assert_eq!(faulty.records().unwrap(), reference.records().unwrap());
                    prop_assert_eq!(faulty.low_water_mark(), reference.low_water_mark());
                    prop_assert_eq!(faulty.next_lsn(), reference.next_lsn());
                }
            }
        }
    }

    /// A bit flip among the frames an in-place GC left behind the mark
    /// costs no live record: recovery skips the damaged dead bytes and
    /// returns exactly the records the GC kept, nothing below the mark.
    #[test]
    fn a_flip_in_the_dead_region_loses_no_live_record(
        appends in arb_appends(),
        keep in 0usize..12,
        at in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let mut log = FaultyLog::new();
        let all = build(&mut log, &appends);
        let cut = all.len() - keep.min(all.len() - 1);
        let mark = all[cut - 1].lsn.next();
        let image = log.image().len();
        log.truncate_prefix(mark).unwrap();
        prop_assert_eq!(log.image().len(), image, "in place");
        let dead = frame_bytes(&all[..cut]);
        let believed = log.records().unwrap();
        let next = log.next_lsn();

        log.inject(Fault::BitFlip { offset: HEADER_LEN + at % dead, mask });
        let report = log.crash_and_recover().unwrap();
        prop_assert_eq!(log.low_water_mark(), mark);
        prop_assert_eq!(log.records().unwrap(), believed);
        prop_assert_eq!(report.lost_durable, 0);
        prop_assert_eq!(log.next_lsn(), next);
    }
}

/// Deterministic regression for the GC-after-torn-tail satellite: a
/// torn End record reopens its transaction, and the pre-crash
/// low-water-mark advance must be refused after recovery.
#[test]
fn stale_pre_crash_releasable_is_refused_after_torn_tail() {
    let decision = |t: u64| LogPayload::CoordDecision {
        txn: TxnId::new(t),
        outcome: Outcome::Commit,
        participants: vec![],
    };
    let end = |t: u64| LogPayload::End { txn: TxnId::new(t) };

    let mut log = FaultyLog::new();
    let mut tracker = GcTracker::new();
    for p in [decision(1), end(1), decision(2), end(2)] {
        let lsn = log.append(p.clone(), true).unwrap();
        tracker.note(lsn, &p);
    }
    // Pre-crash view: both transactions ended, whole log reclaimable.
    let stale_releasable = tracker.releasable();
    assert_eq!(stale_releasable.raw(), 4);

    // Tear off txn 2's End record.
    let end_frame = acp_wal::encode::encode_frame(&log.records().unwrap()[3]);
    log.inject(Fault::TornTail {
        bytes: end_frame.len() as u64,
    });
    let report = log.crash_and_recover().unwrap();
    assert_eq!(report.survivors, 3);

    // The stale advance now points past the recovered tail: refused.
    assert!(log.truncate_prefix(stale_releasable).is_err());

    // The rebuilt tracker pins txn 2's decision record: releasable stops
    // exactly at it, and the record survives the truncation.
    let rebuilt = GcTracker::from_records(&log.records().unwrap());
    assert_eq!(rebuilt.releasable().raw(), 2);
    assert_eq!(rebuilt.pinned(), vec![TxnId::new(2)]);
    log.truncate_prefix(rebuilt.releasable()).unwrap();
    let retained = log.records().unwrap();
    assert_eq!(retained.len(), 1);
    assert_eq!(retained[0].payload, decision(2));
}
