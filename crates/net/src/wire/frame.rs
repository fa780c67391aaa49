//! The wire frame codec: length-prefixed, CRC-framed messages over a
//! byte stream.
//!
//! Layout (all integers little-endian, like the WAL):
//!
//! ```text
//! ┌─────────┬─────────┬─────────┬──────────────┬─────────┐
//! │ magic   │ len     │ seq     │ body         │ crc32   │
//! │ "ACPW"  │ u32     │ u64     │ len bytes    │ u32     │
//! └─────────┴─────────┴─────────┴──────────────┴─────────┘
//! ```
//!
//! The CRC covers `len ‖ seq ‖ body` — the same discipline as the WAL's
//! record frames ([`acp_wal::encode`]), whose primitive writers and
//! [`Reader`] this codec reuses. `seq` is a per-connection counter
//! assigned when the frame is *built* (logical send time), so a frame
//! that fault injection delays arrives carrying an older number than
//! its successors — the receiver counts these regressions as direct
//! evidence of frame-level reordering, without ever enforcing order.
//!
//! A frame that fails validation (bad magic, oversized length, CRC
//! mismatch, trailing body bytes) poisons the whole connection: unlike
//! the WAL's torn *tail* (which recovery truncates), a mid-stream
//! corruption means framing is lost for good, so the receiver drops the
//! connection and lets the sender's retry machinery re-establish it.

use acp_types::{Message, Outcome, Payload, ProtocolKind, SiteId, TxnId, Vote};
use acp_wal::crc::crc32;
use acp_wal::encode::{put_bytes, put_u32, put_u64, put_u8, Reader};
use acp_wal::WalError;

/// Frame magic: `"ACPW"` as a little-endian `u32` (distinct from the
/// WAL's `"WALR"`, so a socket fed a WAL file — or vice versa — fails
/// fast).
pub const WIRE_MAGIC: u32 = u32::from_le_bytes(*b"ACPW");

/// Upper bound on a frame body. Protocol messages are tens of bytes;
/// anything near this limit is corruption, not load.
pub const MAX_FRAME_BODY: u32 = 16 * 1024 * 1024;

/// magic + len + seq.
const HEADER_LEN: usize = 4 + 4 + 8;
const CRC_LEN: usize = 4;

// Body tags.
const TAG_PROTOCOL: u8 = 0x01;
const TAG_PROTOCOL_BATCH: u8 = 0x02;
const TAG_APPLY: u8 = 0x03;
const TAG_SET_INTENT: u8 = 0x04;

/// What travels between nodes. Protocol traffic is the engines' own
/// [`Message`]s; `Apply`/`SetIntent` carry the client-driver envelopes
/// a coordinator-side driver aims at remote participants. `Commit`,
/// `Crash` and `Shutdown` never cross the wire — they are control
/// envelopes between a driver and the node it owns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireMsg {
    /// One protocol message.
    Protocol(Message),
    /// Several protocol messages externalized together after one
    /// group-commit force (ack piggybacking), all to the same site.
    ProtocolBatch(Vec<Message>),
    /// Client data operation for a remote participant.
    Apply {
        /// Destination participant.
        to: SiteId,
        /// The transaction.
        txn: TxnId,
        /// Key to write.
        key: Vec<u8>,
        /// New value.
        value: Vec<u8>,
    },
    /// Client vote override for a remote participant.
    SetIntent {
        /// Destination participant.
        to: SiteId,
        /// The transaction.
        txn: TxnId,
        /// The vote to cast.
        vote: Vote,
    },
}

impl WireMsg {
    /// The destination site this frame should be dispatched to.
    #[must_use]
    pub fn to(&self) -> Option<SiteId> {
        match self {
            WireMsg::Protocol(m) => Some(m.to),
            WireMsg::ProtocolBatch(ms) => ms.first().map(|m| m.to),
            WireMsg::Apply { to, .. } | WireMsg::SetIntent { to, .. } => Some(*to),
        }
    }

    /// Stable label for fault-rule matching: a protocol message's
    /// payload kind (`"prepare"`, `"vote"`, …), or the envelope kind.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            WireMsg::Protocol(m) => m.payload.kind_name(),
            WireMsg::ProtocolBatch(_) => "batch",
            WireMsg::Apply { .. } => "apply",
            WireMsg::SetIntent { .. } => "set-intent",
        }
    }
}

fn put_vote(out: &mut Vec<u8>, v: Vote) {
    put_u8(
        out,
        match v {
            Vote::Yes => 0,
            Vote::No => 1,
            Vote::ReadOnly => 2,
        },
    );
}

fn put_outcome(out: &mut Vec<u8>, o: Outcome) {
    put_u8(
        out,
        match o {
            Outcome::Commit => 0,
            Outcome::Abort => 1,
        },
    );
}

fn put_protocol(out: &mut Vec<u8>, p: ProtocolKind) {
    put_u8(
        out,
        match p {
            ProtocolKind::PrN => 0,
            ProtocolKind::PrA => 1,
            ProtocolKind::PrC => 2,
        },
    );
}

fn bad(what: &str, value: u8) -> WalError {
    WalError::Corrupt {
        offset: 0,
        detail: format!("wire frame: bad {what} {value:#x}"),
    }
}

fn read_vote(r: &mut Reader<'_>) -> Result<Vote, WalError> {
    match r.u8("vote")? {
        0 => Ok(Vote::Yes),
        1 => Ok(Vote::No),
        2 => Ok(Vote::ReadOnly),
        v => Err(bad("vote", v)),
    }
}

fn read_outcome(r: &mut Reader<'_>) -> Result<Outcome, WalError> {
    match r.u8("outcome")? {
        0 => Ok(Outcome::Commit),
        1 => Ok(Outcome::Abort),
        v => Err(bad("outcome", v)),
    }
}

fn read_protocol(r: &mut Reader<'_>) -> Result<ProtocolKind, WalError> {
    match r.u8("protocol")? {
        0 => Ok(ProtocolKind::PrN),
        1 => Ok(ProtocolKind::PrA),
        2 => Ok(ProtocolKind::PrC),
        v => Err(bad("protocol", v)),
    }
}

// Payload tags (wire-local; the WAL has its own record vocabulary).
const PAY_PREPARE: u8 = 1;
const PAY_VOTE: u8 = 2;
const PAY_DECISION: u8 = 3;
const PAY_ACK: u8 = 4;
const PAY_INQUIRY: u8 = 5;
const PAY_INQUIRY_RESPONSE: u8 = 6;
const PAY_PAXOS_BEGIN: u8 = 7;
const PAY_PHASE1A: u8 = 8;
const PAY_PHASE1B: u8 = 9;
const PAY_PHASE2A: u8 = 10;
const PAY_PHASE2B: u8 = 11;
const PAY_PAXOS_FORGET: u8 = 12;

fn put_instances(out: &mut Vec<u8>, instances: &[(SiteId, bool)]) {
    put_u32(out, u32::try_from(instances.len()).expect("instance count"));
    for (site, prepared) in instances {
        put_u32(out, site.raw());
        put_u8(out, u8::from(*prepared));
    }
}

fn read_instances(r: &mut Reader<'_>) -> Result<Vec<(SiteId, bool)>, WalError> {
    let n = r.u32("instance count")? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let site = SiteId::new(r.u32("instance site")?);
        let prepared = match r.u8("instance value")? {
            0 => false,
            1 => true,
            v => return Err(bad("instance value", v)),
        };
        out.push((site, prepared));
    }
    Ok(out)
}

fn put_sites(out: &mut Vec<u8>, sites: &[SiteId]) {
    put_u32(out, u32::try_from(sites.len()).expect("site count"));
    for s in sites {
        put_u32(out, s.raw());
    }
}

fn read_sites(r: &mut Reader<'_>) -> Result<Vec<SiteId>, WalError> {
    let n = r.u32("site count")? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(SiteId::new(r.u32("site")?));
    }
    Ok(out)
}

fn put_message(out: &mut Vec<u8>, m: &Message) {
    put_u32(out, m.from.raw());
    put_u32(out, m.to.raw());
    match &m.payload {
        Payload::Prepare { txn } => {
            put_u8(out, PAY_PREPARE);
            put_u64(out, txn.raw());
        }
        Payload::Vote { txn, vote } => {
            put_u8(out, PAY_VOTE);
            put_u64(out, txn.raw());
            put_vote(out, *vote);
        }
        Payload::Decision { txn, outcome } => {
            put_u8(out, PAY_DECISION);
            put_u64(out, txn.raw());
            put_outcome(out, *outcome);
        }
        Payload::Ack { txn } => {
            put_u8(out, PAY_ACK);
            put_u64(out, txn.raw());
        }
        Payload::Inquiry { txn, protocol } => {
            put_u8(out, PAY_INQUIRY);
            put_u64(out, txn.raw());
            put_protocol(out, *protocol);
        }
        Payload::InquiryResponse { txn, outcome } => {
            put_u8(out, PAY_INQUIRY_RESPONSE);
            put_u64(out, txn.raw());
            put_outcome(out, *outcome);
        }
        Payload::PaxosBegin { txn, participants } => {
            put_u8(out, PAY_PAXOS_BEGIN);
            put_u64(out, txn.raw());
            put_sites(out, participants);
        }
        Payload::Phase1a { txn, ballot } => {
            put_u8(out, PAY_PHASE1A);
            put_u64(out, txn.raw());
            put_u64(out, *ballot);
        }
        Payload::Phase1b {
            txn,
            ballot,
            forgotten,
            participants,
            accepted,
        } => {
            put_u8(out, PAY_PHASE1B);
            put_u64(out, txn.raw());
            put_u64(out, *ballot);
            put_u8(out, u8::from(*forgotten));
            put_sites(out, participants);
            put_u32(out, u32::try_from(accepted.len()).expect("accepted count"));
            for (site, bal, prepared) in accepted {
                put_u32(out, site.raw());
                put_u64(out, *bal);
                put_u8(out, u8::from(*prepared));
            }
        }
        Payload::Phase2a {
            txn,
            ballot,
            instances,
        } => {
            put_u8(out, PAY_PHASE2A);
            put_u64(out, txn.raw());
            put_u64(out, *ballot);
            put_instances(out, instances);
        }
        Payload::Phase2b {
            txn,
            ballot,
            instances,
        } => {
            put_u8(out, PAY_PHASE2B);
            put_u64(out, txn.raw());
            put_u64(out, *ballot);
            put_instances(out, instances);
        }
        Payload::PaxosForget { txn } => {
            put_u8(out, PAY_PAXOS_FORGET);
            put_u64(out, txn.raw());
        }
    }
}

fn read_message(r: &mut Reader<'_>) -> Result<Message, WalError> {
    let from = SiteId::new(r.u32("from")?);
    let to = SiteId::new(r.u32("to")?);
    let tag = r.u8("payload tag")?;
    let txn = TxnId::new(r.u64("txn")?);
    let payload = match tag {
        PAY_PREPARE => Payload::Prepare { txn },
        PAY_VOTE => Payload::Vote {
            txn,
            vote: read_vote(r)?,
        },
        PAY_DECISION => Payload::Decision {
            txn,
            outcome: read_outcome(r)?,
        },
        PAY_ACK => Payload::Ack { txn },
        PAY_INQUIRY => Payload::Inquiry {
            txn,
            protocol: read_protocol(r)?,
        },
        PAY_INQUIRY_RESPONSE => Payload::InquiryResponse {
            txn,
            outcome: read_outcome(r)?,
        },
        PAY_PAXOS_BEGIN => Payload::PaxosBegin {
            txn,
            participants: read_sites(r)?,
        },
        PAY_PHASE1A => Payload::Phase1a {
            txn,
            ballot: r.u64("ballot")?,
        },
        PAY_PHASE1B => {
            let ballot = r.u64("ballot")?;
            let forgotten = match r.u8("forgotten")? {
                0 => false,
                1 => true,
                v => return Err(bad("forgotten flag", v)),
            };
            let participants = read_sites(r)?;
            let n = r.u32("accepted count")? as usize;
            let mut accepted = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let site = SiteId::new(r.u32("accepted site")?);
                let bal = r.u64("accepted ballot")?;
                let prepared = match r.u8("accepted value")? {
                    0 => false,
                    1 => true,
                    v => return Err(bad("accepted value", v)),
                };
                accepted.push((site, bal, prepared));
            }
            Payload::Phase1b {
                txn,
                ballot,
                forgotten,
                participants,
                accepted,
            }
        }
        PAY_PHASE2A => Payload::Phase2a {
            txn,
            ballot: r.u64("ballot")?,
            instances: read_instances(r)?,
        },
        PAY_PHASE2B => Payload::Phase2b {
            txn,
            ballot: r.u64("ballot")?,
            instances: read_instances(r)?,
        },
        PAY_PAXOS_FORGET => Payload::PaxosForget { txn },
        t => return Err(bad("payload tag", t)),
    };
    Ok(Message::new(from, to, payload))
}

/// Encode one message body (no frame header) onto the end of `out`.
fn encode_body_into(out: &mut Vec<u8>, msg: &WireMsg) {
    match msg {
        WireMsg::Protocol(m) => {
            put_u8(out, TAG_PROTOCOL);
            put_message(out, m);
        }
        WireMsg::ProtocolBatch(ms) => {
            put_u8(out, TAG_PROTOCOL_BATCH);
            put_u32(out, u32::try_from(ms.len()).expect("batch size"));
            for m in ms {
                put_message(out, m);
            }
        }
        WireMsg::Apply {
            to,
            txn,
            key,
            value,
        } => {
            put_u8(out, TAG_APPLY);
            put_u32(out, to.raw());
            put_u64(out, txn.raw());
            put_bytes(out, key);
            put_bytes(out, value);
        }
        WireMsg::SetIntent { to, txn, vote } => {
            put_u8(out, TAG_SET_INTENT);
            put_u32(out, to.raw());
            put_u64(out, txn.raw());
            put_vote(out, *vote);
        }
    }
}

fn decode_body(buf: &[u8]) -> Result<WireMsg, WalError> {
    let mut r = Reader::new(buf);
    let msg = match r.u8("wire tag")? {
        TAG_PROTOCOL => WireMsg::Protocol(read_message(&mut r)?),
        TAG_PROTOCOL_BATCH => {
            let n = r.u32("batch count")? as usize;
            // A batch can never outnumber the bytes that encode it.
            if n > buf.len() {
                return Err(WalError::Corrupt {
                    offset: 0,
                    detail: format!("wire frame: absurd batch count {n}"),
                });
            }
            let mut ms = Vec::with_capacity(n);
            for _ in 0..n {
                ms.push(read_message(&mut r)?);
            }
            WireMsg::ProtocolBatch(ms)
        }
        TAG_APPLY => WireMsg::Apply {
            to: SiteId::new(r.u32("to")?),
            txn: TxnId::new(r.u64("txn")?),
            key: r.bytes("key")?,
            value: r.bytes("value")?,
        },
        TAG_SET_INTENT => WireMsg::SetIntent {
            to: SiteId::new(r.u32("to")?),
            txn: TxnId::new(r.u64("txn")?),
            vote: read_vote(&mut r)?,
        },
        t => return Err(bad("wire tag", t)),
    };
    if !r.done() {
        return Err(WalError::Corrupt {
            offset: 0,
            detail: "wire frame: trailing bytes after body".to_string(),
        });
    }
    Ok(msg)
}

/// Append one complete frame to `out`, a connection's out-buffer: all
/// written in place, the length patched once the body is known.
pub fn encode_wire_frame_into(out: &mut Vec<u8>, seq: u64, msg: &WireMsg) {
    let start = out.len();
    put_u32(out, WIRE_MAGIC);
    put_u32(out, 0); // body length, patched below
    put_u64(out, seq);
    encode_body_into(out, msg);
    let len = u32::try_from(out.len() - start - HEADER_LEN).expect("body size");
    out[start + 4..start + 8].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[start + 4..]);
    put_u32(out, crc);
}

/// Encode one complete frame into a buffer of its own.
#[must_use]
pub fn encode_wire_frame(seq: u64, msg: &WireMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_wire_frame_into(&mut out, seq, msg);
    out
}

/// The last frame boundary at or before `limit` in `buf`, a run of
/// frames starting at a boundary (the header's length delimits each).
pub(crate) fn frame_boundary(buf: &[u8], limit: usize) -> usize {
    let mut at = 0;
    while at + HEADER_LEN <= limit {
        let len = u32::from_le_bytes(buf[at + 4..at + 8].try_into().expect("4 bytes"));
        let end = at + HEADER_LEN + len as usize + CRC_LEN;
        if end > limit {
            break;
        }
        at = end;
    }
    at
}

/// Streaming frame decoder: feed it arbitrary byte chunks, pull whole
/// frames out. One instance per connection — `seq` interpretation and
/// framing state are connection-scoped.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as frames; dropped once per
    /// [`feed`](Self::feed), not once per frame.
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes read from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pull the next complete frame: `Ok(Some((seq, msg)))` when one is
    /// ready, `Ok(None)` when more bytes are needed, `Err` when the
    /// stream is corrupt (drop the connection — framing is lost).
    pub fn next_frame(&mut self) -> Result<Option<(u64, WireMsg)>, WalError> {
        let buf = &self.buf[self.pos..];
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
        if magic != WIRE_MAGIC {
            return Err(WalError::Corrupt {
                offset: 0,
                detail: format!("wire frame: bad magic {magic:#010x}"),
            });
        }
        let len = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
        if len > MAX_FRAME_BODY {
            return Err(WalError::Corrupt {
                offset: 4,
                detail: format!("wire frame: body length {len} exceeds cap"),
            });
        }
        let total = HEADER_LEN + len as usize + CRC_LEN;
        if buf.len() < total {
            return Ok(None);
        }
        let crc_stored =
            u32::from_le_bytes(buf[total - CRC_LEN..total].try_into().expect("4 bytes"));
        let crc_actual = crc32(&buf[4..total - CRC_LEN]);
        if crc_stored != crc_actual {
            return Err(WalError::Corrupt {
                offset: 0,
                detail: format!(
                    "wire frame: crc mismatch (stored {crc_stored:#010x}, actual {crc_actual:#010x})"
                ),
            });
        }
        let seq = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
        let msg = decode_body(&buf[HEADER_LEN..total - CRC_LEN])?;
        self.pos += total;
        Ok(Some((seq, msg)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msgs() -> Vec<WireMsg> {
        let m = |p| Message::new(SiteId::new(1), SiteId::new(0), p);
        vec![
            WireMsg::Protocol(m(Payload::Prepare { txn: TxnId::new(7) })),
            WireMsg::Protocol(m(Payload::Vote {
                txn: TxnId::new(7),
                vote: Vote::Yes,
            })),
            WireMsg::Protocol(m(Payload::Decision {
                txn: TxnId::new(7),
                outcome: Outcome::Abort,
            })),
            WireMsg::Protocol(m(Payload::Ack { txn: TxnId::new(7) })),
            WireMsg::Protocol(m(Payload::Inquiry {
                txn: TxnId::new(8),
                protocol: ProtocolKind::PrC,
            })),
            WireMsg::Protocol(m(Payload::InquiryResponse {
                txn: TxnId::new(8),
                outcome: Outcome::Commit,
            })),
            WireMsg::ProtocolBatch(vec![
                m(Payload::Ack { txn: TxnId::new(1) }),
                m(Payload::Vote {
                    txn: TxnId::new(2),
                    vote: Vote::ReadOnly,
                }),
            ]),
            WireMsg::Apply {
                to: SiteId::new(2),
                txn: TxnId::new(9),
                key: b"k".to_vec(),
                value: b"value".to_vec(),
            },
            WireMsg::SetIntent {
                to: SiteId::new(3),
                txn: TxnId::new(9),
                vote: Vote::No,
            },
        ]
    }

    #[test]
    fn roundtrips_every_variant() {
        let mut dec = FrameDecoder::new();
        for (i, msg) in sample_msgs().into_iter().enumerate() {
            let frame = encode_wire_frame(i as u64, &msg);
            dec.feed(&frame);
            let (seq, got) = dec.next_frame().expect("valid").expect("complete");
            assert_eq!(seq, i as u64);
            assert_eq!(got, msg);
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn split_feeds_reassemble() {
        let msg = WireMsg::Apply {
            to: SiteId::new(1),
            txn: TxnId::new(42),
            key: b"key".to_vec(),
            value: b"value-bytes".to_vec(),
        };
        let frame = encode_wire_frame(3, &msg);
        let mut dec = FrameDecoder::new();
        for b in &frame[..frame.len() - 1] {
            dec.feed(std::slice::from_ref(b));
            assert!(dec.next_frame().expect("no error yet").is_none());
        }
        dec.feed(&frame[frame.len() - 1..]);
        let (seq, got) = dec.next_frame().expect("valid").expect("complete");
        assert_eq!((seq, got), (3, msg));
    }

    #[test]
    fn two_frames_in_one_feed() {
        let a = WireMsg::Protocol(Message::new(
            SiteId::new(1),
            SiteId::new(0),
            Payload::Ack { txn: TxnId::new(1) },
        ));
        let b = WireMsg::SetIntent {
            to: SiteId::new(1),
            txn: TxnId::new(2),
            vote: Vote::Yes,
        };
        let mut bytes = encode_wire_frame(0, &a);
        bytes.extend(encode_wire_frame(1, &b));
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert_eq!(dec.next_frame().unwrap().unwrap(), (0, a));
        assert_eq!(dec.next_frame().unwrap().unwrap(), (1, b));
        assert!(dec.next_frame().unwrap().is_none());
    }

    #[test]
    fn corrupt_magic_and_crc_are_errors() {
        let msg = WireMsg::Protocol(Message::new(
            SiteId::new(1),
            SiteId::new(0),
            Payload::Ack { txn: TxnId::new(1) },
        ));
        let mut frame = encode_wire_frame(0, &msg);
        frame[0] ^= 0xff; // magic
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        assert!(dec.next_frame().is_err());

        let mut frame = encode_wire_frame(0, &msg);
        let n = frame.len();
        frame[n - 7] ^= 0x01; // body bit flip → CRC mismatch
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn oversized_length_rejected_before_buffering_gigabytes() {
        let mut dec = FrameDecoder::new();
        let mut junk = Vec::new();
        put_u32(&mut junk, WIRE_MAGIC);
        put_u32(&mut junk, MAX_FRAME_BODY + 1);
        put_u64(&mut junk, 0);
        dec.feed(&junk);
        assert!(dec.next_frame().is_err());
    }
}
