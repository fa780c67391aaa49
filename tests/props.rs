//! Property-based tests on the core data structures and invariants:
//! the WAL codec, the GC tracker, crash semantics, the lock table and
//! the history checkers.

use acp_wal::encode::{decode_frame, decode_payload, encode_frame, encode_payload, FrameOutcome};
use acp_wal::{GcTracker, LogRecord, Lsn, MemLog, StableLog};
use presumed_any::prelude::*;
use presumed_any::types::{LogPayload, ParticipantEntry};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------

fn arb_protocol() -> impl Strategy<Value = ProtocolKind> {
    prop_oneof![
        Just(ProtocolKind::PrN),
        Just(ProtocolKind::PrA),
        Just(ProtocolKind::PrC),
    ]
}

fn arb_outcome() -> impl Strategy<Value = Outcome> {
    prop_oneof![Just(Outcome::Commit), Just(Outcome::Abort)]
}

fn arb_mode() -> impl Strategy<Value = CommitMode> {
    prop_oneof![
        Just(CommitMode::PrN),
        Just(CommitMode::PrA),
        Just(CommitMode::PrC),
        Just(CommitMode::PrAny),
    ]
}

fn arb_entries() -> impl Strategy<Value = Vec<ParticipantEntry>> {
    prop::collection::vec((0u32..64, arb_protocol()), 0..6).prop_map(|v| {
        v.into_iter()
            .map(|(s, p)| ParticipantEntry::new(SiteId::new(s), p))
            .collect()
    })
}

fn arb_payload() -> impl Strategy<Value = LogPayload> {
    let txn = (0u64..1_000).prop_map(TxnId::new);
    prop_oneof![
        (txn.clone(), arb_entries(), arb_mode()).prop_map(|(txn, participants, mode)| {
            LogPayload::Initiation {
                txn,
                participants,
                mode,
            }
        }),
        (txn.clone(), arb_outcome(), arb_entries()).prop_map(|(txn, outcome, participants)| {
            LogPayload::CoordDecision {
                txn,
                outcome,
                participants,
            }
        }),
        txn.clone().prop_map(|txn| LogPayload::End { txn }),
        (txn.clone(), 0u32..64).prop_map(|(txn, c)| LogPayload::Prepared {
            txn,
            coordinator: SiteId::new(c)
        }),
        (txn.clone(), arb_outcome())
            .prop_map(|(txn, outcome)| LogPayload::PartDecision { txn, outcome }),
        txn.clone().prop_map(|txn| LogPayload::PartEnd { txn }),
        (
            txn,
            prop::collection::vec(any::<u8>(), 0..24),
            prop::option::of(prop::collection::vec(any::<u8>(), 0..24)),
            prop::option::of(prop::collection::vec(any::<u8>(), 0..24)),
        )
            .prop_map(|(txn, key, before, after)| LogPayload::Update {
                txn,
                key,
                before,
                after
            }),
    ]
}

// ---------------------------------------------------------------------
// codec properties
// ---------------------------------------------------------------------

proptest! {
    /// Every payload round-trips through the binary codec.
    #[test]
    fn payload_roundtrip(payload in arb_payload()) {
        let encoded = encode_payload(&payload);
        let decoded = decode_payload(&encoded).expect("decode");
        prop_assert_eq!(decoded, payload);
    }

    /// Every framed record round-trips, and any strict prefix of the
    /// frame is recognized as torn rather than misparsed.
    #[test]
    fn frame_roundtrip_and_prefixes_torn(
        payload in arb_payload(),
        lsn in 0u64..1_000_000,
        forced in any::<bool>(),
        cut_fraction in 0.0f64..1.0,
    ) {
        let record = LogRecord { lsn: Lsn(lsn), forced, payload };
        let frame = encode_frame(&record);
        match decode_frame(&frame, 0).expect("decode") {
            FrameOutcome::Record(decoded, consumed) => {
                prop_assert_eq!(&decoded, &record);
                prop_assert_eq!(consumed, frame.len());
            }
            FrameOutcome::Torn => prop_assert!(false, "full frame read as torn"),
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((frame.len() - 1) as f64 * cut_fraction) as usize;
        prop_assert!(matches!(
            decode_frame(&frame[..cut], 0).expect("prefix decode"),
            FrameOutcome::Torn
        ));
    }

    /// Corrupting any single byte of a frame never yields a *different*
    /// record: it is either detected (torn/error) or — for bytes beyond
    /// the CRC's reach, of which there are none — identical.
    #[test]
    fn frame_single_byte_corruption_detected(
        payload in arb_payload(),
        byte in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let record = LogRecord { lsn: Lsn(7), forced: true, payload };
        let mut frame = encode_frame(&record);
        let idx = byte % frame.len();
        frame[idx] ^= flip;
        match decode_frame(&frame, 0) {
            Ok(FrameOutcome::Record(decoded, _)) => {
                // The only byte a flip could leave valid is… none: magic,
                // length, body and CRC are all covered. Reaching here
                // with different content is a checksum failure.
                prop_assert_eq!(decoded, record, "corruption slipped through");
            }
            Ok(FrameOutcome::Torn) | Err(_) => {}
        }
    }
}

// ---------------------------------------------------------------------
// log / GC properties
// ---------------------------------------------------------------------

proptest! {
    /// The GC tracker's releasable point never regresses and never
    /// exceeds the log tail.
    #[test]
    fn gc_releasable_is_monotone(payloads in prop::collection::vec(arb_payload(), 1..60)) {
        let mut tracker = GcTracker::new();
        let mut last = Lsn(0);
        for (i, p) in payloads.iter().enumerate() {
            tracker.note(Lsn(i as u64), p);
            let r = tracker.releasable();
            prop_assert!(r >= last, "releasable regressed: {last:?} -> {r:?}");
            prop_assert!(r <= Lsn(i as u64 + 1));
            last = r;
        }
    }

    /// MemLog: a crash preserves exactly the records up to the last
    /// force/flush; appends after recovery reuse the lost LSNs.
    #[test]
    fn memlog_crash_keeps_forced_prefix(
        ops in prop::collection::vec((arb_payload(), any::<bool>()), 1..40)
    ) {
        let mut log = MemLog::new();
        let mut durable = 0usize;
        let mut pending = 0usize;
        for (p, force) in &ops {
            log.append(p.clone(), *force).expect("append");
            pending += 1;
            if *force {
                durable += pending;
                pending = 0;
            }
        }
        log.crash();
        let records = log.records().expect("records");
        prop_assert_eq!(records.len(), durable);
        // Dense LSNs from zero.
        for (i, r) in records.iter().enumerate() {
            prop_assert_eq!(r.lsn, Lsn(i as u64));
        }
        prop_assert_eq!(log.next_lsn(), Lsn(durable as u64));
    }

    /// Truncating at the releasable point then rebuilding the tracker
    /// from the remaining records yields the same pinned set.
    #[test]
    fn gc_truncate_rebuild_consistent(payloads in prop::collection::vec(arb_payload(), 1..40)) {
        let mut log = MemLog::new();
        let mut tracker = GcTracker::new();
        for p in &payloads {
            let lsn = log.next_lsn();
            tracker.note(lsn, p);
            log.append(p.clone(), true).expect("append");
        }
        let releasable = tracker.releasable();
        log.truncate_prefix(releasable).expect("truncate");
        let rebuilt = GcTracker::from_records(&log.records().expect("records"));
        prop_assert_eq!(tracker.pinned(), rebuilt.pinned());
    }
}

// ---------------------------------------------------------------------
// checker properties
// ---------------------------------------------------------------------

proptest! {
    /// Histories in which every participant enforces the decided outcome
    /// are always judged atomic; flipping one enforcement always
    /// triggers a violation.
    #[test]
    fn atomicity_checker_sound_and_sensitive(
        outcome in arb_outcome(),
        sites in prop::collection::btree_set(1u32..20, 1..6),
        flip_idx in any::<usize>(),
    ) {
        use presumed_any::prelude::ActaEvent;
        let txn = TxnId::new(1);
        let mut events = vec![ActaEvent::Decide {
            coordinator: SiteId::new(0),
            txn,
            outcome,
        }];
        for &s in &sites {
            events.push(ActaEvent::Enforce { participant: SiteId::new(s), txn, outcome });
        }
        let clean: History = events.iter().cloned().collect();
        prop_assert!(check_atomicity(&clean).is_empty());

        // Flip one enforcement.
        let i = 1 + flip_idx % sites.len();
        if let ActaEvent::Enforce { outcome, .. } = &mut events[i] {
            *outcome = outcome.opposite();
        }
        let dirty: History = events.into_iter().collect();
        prop_assert!(!check_atomicity(&dirty).is_empty());
    }
}

// ---------------------------------------------------------------------
// end-to-end property: random scenarios are always fully correct
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Any population, any vote pattern, any single crash: PrAny keeps
    /// every guarantee.
    #[test]
    fn prany_correct_for_random_single_fault_scenarios(
        protos in prop::collection::vec(arb_protocol(), 2..5),
        no_voter in prop::option::of(0usize..4),
        crash_site in 0u32..5,
        crash_at_us in 900u64..2_600,
        seed in 0u64..1_000,
    ) {
        let mut s = Scenario::new(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &protos,
        );
        s.seed = seed;
        s.add_txn(TxnId::new(1), SimTime::from_millis(1));
        if let Some(i) = no_voter {
            let victim = SiteId::new((i % protos.len()) as u32 + 1);
            s.txns[0].votes.insert(victim, Vote::No);
        }
        let victim = SiteId::new(crash_site % (protos.len() as u32 + 1));
        s.failures = FailureSchedule::single(
            victim,
            SimTime::from_micros(crash_at_us),
            SimTime::from_micros(crash_at_us) + SimTime::from_millis(150),
        );
        let out = acp_core::harness::run_scenario(&s);
        let a = check_atomicity(&out.history);
        prop_assert!(a.is_empty(), "{a:?}");
        let o = check_operational(&out.history, &out.final_state);
        prop_assert!(o.is_empty(), "{o:?}");
    }
}
