//! Bytes are the contract: the in-place encoder the connections append
//! with writes exactly what the allocating wrapper returns, those bytes
//! are pinned to frames encoded before the encoder moved in place, and
//! the streaming decoder hands back the same frames however the byte
//! stream is cut.
//!
//! The shim seeds every property from its name, so the cases repeat.

use acp_net::wire::frame::encode_wire_frame_into;
use acp_net::wire::{encode_wire_frame, FrameDecoder, WireMsg};
use acp_types::{Message, Outcome, Payload, ProtocolKind, SiteId, TxnId, Vote};
use proptest::prelude::*;

fn arb_outcome() -> impl Strategy<Value = Outcome> {
    prop_oneof![Just(Outcome::Commit), Just(Outcome::Abort)]
}

fn arb_vote() -> impl Strategy<Value = Vote> {
    prop_oneof![Just(Vote::Yes), Just(Vote::No), Just(Vote::ReadOnly)]
}

fn arb_site() -> impl Strategy<Value = SiteId> {
    (0u32..64).prop_map(SiteId::new)
}

/// Keys and values from empty to past the 64 bytes the wrapper reserves.
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..80)
}

/// Every `Payload` variant.
fn arb_payload() -> impl Strategy<Value = Payload> {
    let txn = any::<u64>().prop_map(TxnId::new);
    let protocol = prop_oneof![
        Just(ProtocolKind::PrN),
        Just(ProtocolKind::PrA),
        Just(ProtocolKind::PrC),
    ];
    let sites = prop::collection::vec(arb_site(), 0..8);
    let instances = prop::collection::vec((arb_site(), any::<bool>()), 0..8);
    let accepted = prop::collection::vec((arb_site(), any::<u64>(), any::<bool>()), 0..8);
    prop_oneof![
        txn.clone().prop_map(|txn| Payload::Prepare { txn }),
        (txn.clone(), arb_vote()).prop_map(|(txn, vote)| Payload::Vote { txn, vote }),
        (txn.clone(), arb_outcome()).prop_map(|(txn, outcome)| Payload::Decision { txn, outcome }),
        txn.clone().prop_map(|txn| Payload::Ack { txn }),
        (txn.clone(), protocol).prop_map(|(txn, protocol)| Payload::Inquiry { txn, protocol }),
        (txn.clone(), arb_outcome())
            .prop_map(|(txn, outcome)| Payload::InquiryResponse { txn, outcome }),
        (txn.clone(), sites.clone())
            .prop_map(|(txn, participants)| Payload::PaxosBegin { txn, participants }),
        (txn.clone(), any::<u64>()).prop_map(|(txn, ballot)| Payload::Phase1a { txn, ballot }),
        (txn.clone(), any::<u64>(), any::<bool>(), sites, accepted).prop_map(
            |(txn, ballot, forgotten, participants, accepted)| Payload::Phase1b {
                txn,
                ballot,
                forgotten,
                participants,
                accepted,
            }
        ),
        (txn.clone(), any::<u64>(), instances.clone()).prop_map(|(txn, ballot, instances)| {
            Payload::Phase2a {
                txn,
                ballot,
                instances,
            }
        }),
        (txn.clone(), any::<u64>(), instances).prop_map(|(txn, ballot, instances)| {
            Payload::Phase2b {
                txn,
                ballot,
                instances,
            }
        }),
        txn.prop_map(|txn| Payload::PaxosForget { txn }),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    (arb_site(), arb_site(), arb_payload()).prop_map(|(from, to, p)| Message::new(from, to, p))
}

/// Every `WireMsg` variant; batches of 0..8.
fn arb_wire_msg() -> impl Strategy<Value = WireMsg> {
    let txn = any::<u64>().prop_map(TxnId::new);
    prop_oneof![
        arb_message().prop_map(WireMsg::Protocol),
        prop::collection::vec(arb_message(), 0..8).prop_map(WireMsg::ProtocolBatch),
        (arb_site(), txn.clone(), arb_bytes(), arb_bytes()).prop_map(|(to, txn, key, value)| {
            WireMsg::Apply {
                to,
                txn,
                key,
                value,
            }
        }),
        (arb_site(), txn, arb_vote()).prop_map(|(to, txn, vote)| WireMsg::SetIntent {
            to,
            txn,
            vote
        }),
    ]
}

/// Everything the decoder yields from what it has been fed so far, with
/// `buffered()` checked against `owed` (bytes fed minus frames' bytes)
/// right after each frame.
fn pull(
    dec: &mut FrameDecoder,
    owed: &mut usize,
    lens: &[usize],
    out: &mut Vec<(u64, WireMsg)>,
) -> Result<(), TestCaseError> {
    while let Some(frame) = dec
        .next_frame()
        .map_err(|e| TestCaseError::new(e.to_string()))?
    {
        *owed -= lens[out.len()];
        out.push(frame);
        prop_assert_eq!(dec.buffered(), *owed);
    }
    prop_assert_eq!(dec.buffered(), *owed);
    Ok(())
}

proptest! {
    /// Appending a frame to a buffer that already holds bytes adds
    /// exactly `encode_wire_frame`'s bytes, leaves the rest alone, and
    /// the appended bytes decode back to the message.
    #[test]
    fn encode_wire_frame_into_appends_exactly_encode_wire_frames_bytes(
        msg in arb_wire_msg(),
        prefix in prop::collection::vec(any::<u8>(), 0..64),
        seq in any::<u64>(),
    ) {
        let frame = encode_wire_frame(seq, &msg);
        let mut buffer = prefix.clone();
        encode_wire_frame_into(&mut buffer, seq, &msg);
        prop_assert_eq!(&buffer[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&buffer[prefix.len()..], &frame[..]);
        let mut dec = FrameDecoder::new();
        dec.feed(&buffer[prefix.len()..]);
        prop_assert_eq!(dec.next_frame().expect("own frame is valid"), Some((seq, msg)));
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// One feed, one byte at a time, and two feeds split at every
    /// offset all yield the same `(seq, msg)` sequence.
    #[test]
    fn the_decoder_yields_the_same_frames_however_the_stream_is_cut(
        msgs in prop::collection::vec(arb_wire_msg(), 1..6),
    ) {
        let mut stream = Vec::new();
        let mut lens = Vec::new();
        for (seq, msg) in msgs.iter().enumerate() {
            let before = stream.len();
            encode_wire_frame_into(&mut stream, seq as u64, msg);
            lens.push(stream.len() - before);
        }
        let sent: Vec<(u64, WireMsg)> =
            msgs.iter().cloned().enumerate().map(|(i, m)| (i as u64, m)).collect();

        let (mut dec, mut owed, mut got) = (FrameDecoder::new(), stream.len(), Vec::new());
        dec.feed(&stream);
        pull(&mut dec, &mut owed, &lens, &mut got)?;
        prop_assert_eq!(&got, &sent);
        prop_assert_eq!(owed, 0);

        let (mut dec, mut owed, mut got) = (FrameDecoder::new(), 0, Vec::new());
        for byte in &stream {
            dec.feed(std::slice::from_ref(byte));
            owed += 1;
            pull(&mut dec, &mut owed, &lens, &mut got)?;
        }
        prop_assert_eq!(&got, &sent);

        for cut in 0..=stream.len() {
            let (mut dec, mut owed, mut got) = (FrameDecoder::new(), 0, Vec::new());
            for chunk in [&stream[..cut], &stream[cut..]] {
                dec.feed(chunk);
                owed += chunk.len();
                pull(&mut dec, &mut owed, &lens, &mut got)?;
            }
            prop_assert_eq!(&got, &sent);
        }
    }

    /// A corrupt frame in mid-chunk: the frames before it come out,
    /// then the error — and it stays an error.
    #[test]
    fn a_corrupt_frame_mid_chunk_follows_the_good_ones_before_it(
        msgs in prop::collection::vec(arb_wire_msg(), 2..6),
        pick in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let bad = (pick % msgs.len() as u64) as usize;
        let mut stream = Vec::new();
        let mut bad_range = 0..0;
        for (seq, msg) in msgs.iter().enumerate() {
            let before = stream.len();
            encode_wire_frame_into(&mut stream, seq as u64, msg);
            if seq == bad {
                bad_range = before..stream.len();
            }
        }
        // Anywhere in the frame but its length field: a corrupt length
        // can also read as "more bytes needed", which is not an error.
        let offset = (pick / 7) as usize % (bad_range.len() - 4);
        let at = bad_range.start + if offset < 4 { offset } else { offset + 4 };
        stream[at] ^= flip;
        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        for (seq, msg) in msgs.iter().enumerate().take(bad) {
            prop_assert_eq!(dec.next_frame().expect("good frame"), Some((seq as u64, msg.clone())));
        }
        prop_assert!(dec.next_frame().is_err());
        prop_assert!(dec.next_frame().is_err());
    }
}

/// One message per `WireMsg` variant, the batch carrying every
/// `Payload` variant.
fn golden_msgs() -> Vec<WireMsg> {
    let m = |from: u32, to: u32, p| Message::new(SiteId::new(from), SiteId::new(to), p);
    let (t, s) = (TxnId::new, SiteId::new);
    let vote = Vote::Yes;
    vec![
        WireMsg::Protocol(m(1, 0, Payload::Vote { txn: t(7), vote })),
        WireMsg::ProtocolBatch(vec![
            m(0, 2, Payload::Prepare { txn: t(1) }),
            m(
                0,
                2,
                Payload::Vote {
                    txn: t(2),
                    vote: Vote::ReadOnly,
                },
            ),
            m(
                0,
                2,
                Payload::Decision {
                    txn: t(3),
                    outcome: Outcome::Abort,
                },
            ),
            m(0, 2, Payload::Ack { txn: t(4) }),
            m(
                0,
                2,
                Payload::Inquiry {
                    txn: t(5),
                    protocol: ProtocolKind::PrC,
                },
            ),
            m(
                0,
                2,
                Payload::InquiryResponse {
                    txn: t(6),
                    outcome: Outcome::Commit,
                },
            ),
            m(
                0,
                2,
                Payload::PaxosBegin {
                    txn: t(7),
                    participants: vec![s(1), s(2)],
                },
            ),
            m(
                0,
                2,
                Payload::Phase1a {
                    txn: t(8),
                    ballot: 3,
                },
            ),
            m(
                0,
                2,
                Payload::Phase1b {
                    txn: t(9),
                    ballot: 3,
                    forgotten: false,
                    participants: vec![s(1)],
                    accepted: vec![(s(1), 2, true)],
                },
            ),
            m(
                0,
                2,
                Payload::Phase2a {
                    txn: t(10),
                    ballot: 4,
                    instances: vec![(s(1), true), (s(2), false)],
                },
            ),
            m(
                0,
                2,
                Payload::Phase2b {
                    txn: t(11),
                    ballot: 4,
                    instances: vec![(s(2), true)],
                },
            ),
            m(0, 2, Payload::PaxosForget { txn: t(12) }),
        ]),
        WireMsg::Apply {
            to: s(2),
            txn: t(9),
            key: b"k".to_vec(),
            value: b"value".to_vec(),
        },
        WireMsg::SetIntent {
            to: s(3),
            txn: t(9),
            vote: Vote::No,
        },
    ]
}

/// `encode_wire_frame(i + 1, &golden_msgs()[i])` as the commit before
/// the encoder moved in place (`2b4fe78`) printed it.
const GOLDEN: [&str; 4] = [
    "4143505713000000010000000000000001010000000000000002070000000000000000df88f7a2",
    "41435057320100000200000000000000020c00000000000000020000000101000000000000000000\
     00000200000002020000000000000002000000000200000003030000000000000001000000000200\
     00000404000000000000000000000002000000050500000000000000020000000002000000060600\
     00000000000000000000000200000007070000000000000002000000010000000200000000000000\
     02000000080800000000000000030000000000000000000000020000000909000000000000000300\
     00000000000000010000000100000001000000010000000200000000000000010000000002000000\
     0a0a000000000000000400000000000000020000000100000001020000000000000000020000000b\
     0b00000000000000040000000000000001000000020000000100000000020000000c0c0000000000\
     00007714f4d8",
    "414350571b000000030000000000000003020000000900000000000000010000006b050000007661\
     6c7565a4fea8df",
    "414350570e0000000400000000000000040300000009000000000000000127b878e6",
];

#[test]
fn frames_are_byte_identical_to_the_parent_commits() {
    let mut stream = Vec::new();
    for (i, (msg, golden)) in golden_msgs().iter().zip(GOLDEN).enumerate() {
        let seq = i as u64 + 1;
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(hex(&encode_wire_frame(seq, msg)), golden, "frame {seq}");
        let before = stream.len();
        encode_wire_frame_into(&mut stream, seq, msg);
        assert_eq!(hex(&stream[before..]), golden, "frame {seq}, in place");
    }
}
