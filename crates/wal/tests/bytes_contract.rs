//! Bytes are the contract: the in-place encoder the logs append with
//! writes exactly what the allocating wrappers return, and the file a
//! `FileLog` leaves behind is pinned to a committed image.
//!
//! The shim seeds every property from its name, so the cases repeat.

use acp_types::{CommitMode, LogPayload, Outcome, ParticipantEntry, ProtocolKind, SiteId, TxnId};
use acp_wal::encode::{
    decode_frame, encode_frame, encode_frame_into, encode_payload, encoded_len, frame_len,
    FrameOutcome,
};
use acp_wal::tempdir::TempDir;
use acp_wal::{FaultyLog, FileLog, LogRecord, Lsn, StableLog};
use proptest::prelude::*;

fn arb_outcome() -> impl Strategy<Value = Outcome> {
    prop_oneof![Just(Outcome::Commit), Just(Outcome::Abort)]
}

/// Participant lists of 0..8.
fn arb_entries() -> impl Strategy<Value = Vec<ParticipantEntry>> {
    let protocol = prop_oneof![
        Just(ProtocolKind::PrN),
        Just(ProtocolKind::PrA),
        Just(ProtocolKind::PrC),
    ];
    prop::collection::vec((0u32..64, protocol), 0..8).prop_map(|v| {
        v.into_iter()
            .map(|(s, p)| ParticipantEntry::new(SiteId::new(s), p))
            .collect()
    })
}

/// Byte strings from empty to well past the 32 bytes the old encoder
/// guessed for a payload.
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..80)
}

/// Every `LogPayload` variant.
fn arb_payload() -> impl Strategy<Value = LogPayload> {
    let txn = any::<u64>().prop_map(TxnId::new);
    let mode = prop_oneof![
        Just(CommitMode::PrN),
        Just(CommitMode::PrA),
        Just(CommitMode::PrC),
        Just(CommitMode::PrAny),
    ];
    prop_oneof![
        (txn.clone(), arb_entries(), mode).prop_map(|(txn, participants, mode)| {
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
        (
            txn.clone(),
            any::<u64>(),
            prop::collection::vec((0u32..64, any::<bool>()), 0..8),
        )
            .prop_map(|(txn, ballot, instances)| LogPayload::PaxosAccept {
                txn,
                ballot,
                instances: instances
                    .into_iter()
                    .map(|(s, v)| (SiteId::new(s), v))
                    .collect(),
            }),
        (txn.clone(), any::<u32>()).prop_map(|(txn, c)| LogPayload::Prepared {
            txn,
            coordinator: SiteId::new(c),
        }),
        (txn.clone(), arb_outcome())
            .prop_map(|(txn, outcome)| LogPayload::PartDecision { txn, outcome }),
        txn.clone().prop_map(|txn| LogPayload::PartEnd { txn }),
        (
            txn,
            arb_bytes(),
            prop::option::of(arb_bytes()),
            prop::option::of(arb_bytes()),
        )
            .prop_map(|(txn, key, before, after)| LogPayload::Update {
                txn,
                key,
                before,
                after,
            }),
        prop::collection::vec((arb_bytes(), arb_bytes()), 0..4)
            .prop_map(|entries| LogPayload::Checkpoint { entries }),
    ]
}

proptest! {
    /// Appending a frame to a buffer that already holds bytes adds
    /// exactly `encode_frame`'s bytes, leaves the rest alone, and the
    /// appended bytes decode back to the record.
    #[test]
    fn encode_frame_into_appends_exactly_encode_frames_bytes(
        payload in arb_payload(),
        prefix in prop::collection::vec(any::<u8>(), 1..64),
        lsn in any::<u64>(),
        forced in any::<bool>(),
    ) {
        let record = LogRecord { lsn: Lsn(lsn), forced, payload };
        let frame = encode_frame(&record);
        let mut buffer = prefix.clone();
        encode_frame_into(&mut buffer, record.lsn, record.forced, &record.payload);
        prop_assert_eq!(&buffer[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&buffer[prefix.len()..], &frame[..]);
        match decode_frame(&buffer[prefix.len()..], 0) {
            Ok(FrameOutcome::Record(decoded, consumed)) => {
                prop_assert_eq!(consumed, frame.len());
                prop_assert_eq!(decoded, record);
            }
            Ok(FrameOutcome::Torn) => prop_assert!(false, "own frame read back as torn"),
            Err(e) => prop_assert!(false, "own frame rejected: {e}"),
        }
    }

    /// The measuring pass agrees with the encoder it measures.
    #[test]
    fn encoded_len_is_the_encoders_length(payload in arb_payload()) {
        prop_assert_eq!(encoded_len(&payload), encode_payload(&payload).len());
        let record = LogRecord { lsn: Lsn(7), forced: true, payload };
        prop_assert_eq!(frame_len(&record.payload), encode_frame(&record).len());
    }
}

fn participants() -> Vec<ParticipantEntry> {
    vec![
        ParticipantEntry::new(SiteId::new(1), ProtocolKind::PrN),
        ParticipantEntry::new(SiteId::new(2), ProtocolKind::PrA),
        ParticipantEntry::new(SiteId::new(3), ProtocolKind::PrC),
    ]
}

/// Append, force, flush, collect and append again: two transactions'
/// records as a coordinator and a participant write them, with an
/// update whose key is past 32 bytes among those the collection
/// rewrites. `reopen` stands for a restart between two of the steps.
fn script<L: StableLog>(log: &mut L, reopen: impl FnOnce(&mut L)) {
    let (old, t) = (TxnId::new(0x0a0b), TxnId::new(0x0102_0304_0506_0708));
    let coordinator = SiteId::new(0);
    log.append(LogPayload::End { txn: old }, true).unwrap();
    log.append(
        LogPayload::Prepared {
            txn: t,
            coordinator,
        },
        false,
    )
    .unwrap();
    log.flush().unwrap();
    let initiation = LogPayload::Initiation {
        txn: t,
        participants: participants(),
        mode: CommitMode::PrAny,
    };
    log.append(initiation, true).unwrap();
    let update = LogPayload::Update {
        txn: t,
        key: b"accounts/0000000000000042/balance/eur".to_vec(),
        before: None,
        after: Some(b"100".to_vec()),
    };
    log.append(update, false).unwrap();
    let decision = LogPayload::CoordDecision {
        txn: t,
        outcome: Outcome::Commit,
        participants: Vec::new(),
    };
    log.append(decision, true).unwrap();
    log.truncate_prefix(Lsn(2)).unwrap();
    log.append(LogPayload::End { txn: t }, false).unwrap();
    let outcome = Outcome::Commit;
    log.append(LogPayload::PartDecision { txn: t, outcome }, true)
        .unwrap();
    reopen(log);
    log.append(LogPayload::PartEnd { txn: t }, false).unwrap();
    log.flush().unwrap();
}

/// The file the script leaves: the header (low-water mark 2, moved in
/// place by the collection), the two frames below it that the
/// collection released but left on the medium, then one frame per live
/// record at LSN 2..=7.
const GOLDEN: &str = "\
    484c4157010000000200000000000000\
    524c415709000000000000000000000001030b0a000000000000c3e71729\
    524c41570d000000010000000000000000040807060504030201000000003867694d\
    524c41571d000000020000000000000001010807060504030201030300000001\
    0000000002000000010300000002a76371ea\
    524c41573b000000030000000000000000070807060504030201250000006163\
    636f756e74732f303030303030303030303030303034322f62616c616e63652f\
    6575720001030000003130303b615a85\
    524c41570e0000000400000000000000010208070605040302010000000000ae\
    c8cf93\
    524c4157090000000500000000000000000308070605040302014e9cdb1b\
    524c41570a0000000600000000000000010508070605040302010095485e5a\
    524c41570900000007000000000000000006080706050403020182b29854";

/// The file the same script left when every collection rewrote the
/// image (written by the commit before the encoder moved in place):
/// the header, then the live frames only.
const COMPACTED: &str = "\
    484c4157010000000200000000000000\
    524c41571d000000020000000000000001010807060504030201030300000001\
    0000000002000000010300000002a76371ea\
    524c41573b000000030000000000000000070807060504030201250000006163\
    636f756e74732f303030303030303030303030303034322f62616c616e63652f\
    6575720001030000003130303b615a85\
    524c41570e0000000400000000000000010208070605040302010000000000ae\
    c8cf93\
    524c4157090000000500000000000000000308070605040302014e9cdb1b\
    524c41570a0000000600000000000000010508070605040302010095485e5a\
    524c41570900000007000000000000000006080706050403020182b29854";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn a_scripted_file_log_leaves_the_golden_bytes() {
    let dir = TempDir::new("bytes-contract").unwrap();
    let path = dir.path().join("wal");
    let mut log = FileLog::create(&path).unwrap();
    script(&mut log, |log| *log = FileLog::open(&path).unwrap());
    drop(log);
    assert_eq!(hex(&std::fs::read(&path).unwrap()), GOLDEN);
}

#[test]
fn an_unfaulted_faulty_log_holds_the_same_image() {
    let mut log = FaultyLog::new();
    // No fault armed: a crash and re-scan is what a reopen is.
    script(&mut log, |log| {
        let report = log.crash_and_recover().unwrap();
        assert_eq!((report.lost_buffered, report.lost_durable), (0, 0));
    });
    assert_eq!(hex(log.image()), GOLDEN);
}

/// Collecting in place changed where frames live, not what a frame is:
/// the live frames are the bytes the rewriting log left, behind the
/// same header.
#[test]
fn the_record_format_is_the_compacted_images() {
    let header = 2 * 16;
    assert_eq!(GOLDEN[..header], COMPACTED[..header]);
    assert!(GOLDEN.ends_with(&COMPACTED[header..]));
}

/// Forced `end` records (30 bytes a frame) in front of the script:
/// nearly twice the reclaim floor.
const BEHIND: u64 = acp_wal::RECLAIM_FLOOR / 16;

/// [`script`] behind [`BEHIND`] forced records, then a collection of
/// those and the script's first two records: past the reclaim floor, so
/// it compacts.
fn script_past_the_floor<L: StableLog>(log: &mut L, reopen: impl FnOnce(&mut L)) {
    for t in 0..BEHIND {
        let txn = TxnId::new(0x1000 + t);
        log.append(LogPayload::End { txn }, true).unwrap();
    }
    script(log, |_| {});
    log.truncate_prefix(Lsn(BEHIND + 2)).unwrap();
    reopen(log);
}

/// The golden header's magic and version, the log's low-water mark,
/// then the frame of every live record.
fn header_and_live_frames(log: &impl StableLog) -> String {
    let low_water = log.low_water_mark().raw().to_le_bytes();
    let records = log.records().unwrap();
    let frames: String = records.iter().map(|r| hex(&encode_frame(r))).collect();
    GOLDEN[..16].to_string() + &hex(&low_water) + &frames
}

#[test]
fn a_collection_past_the_floor_leaves_header_and_live_frames() {
    let dir = TempDir::new("bytes-contract-floor").unwrap();
    let path = dir.path().join("wal");
    let mut log = FileLog::create(&path).unwrap();
    script_past_the_floor(&mut log, |log| *log = FileLog::open(&path).unwrap());
    assert_eq!(log.records().unwrap().len(), 6, "the script's last six");
    assert_eq!(log.low_water_mark(), Lsn(BEHIND + 2));
    assert_eq!(
        hex(&std::fs::read(&path).unwrap()),
        header_and_live_frames(&log)
    );

    let mut faulty = FaultyLog::new();
    script_past_the_floor(&mut faulty, |log| {
        log.crash_and_recover().unwrap();
    });
    assert_eq!(hex(faulty.image()), header_and_live_frames(&faulty));
    assert_eq!(faulty.records().unwrap(), log.records().unwrap());
}
