//! Binary codec for log payloads and on-disk record framing.
//!
//! ## Payload encoding
//!
//! Tag byte followed by fixed-width little-endian fields; variable-length
//! byte strings are length-prefixed (u32). `Option<Vec<u8>>` images use a
//! presence byte. Deliberately simple and versionable — tag values are
//! part of the on-disk format and must never be reused.
//!
//! ## Record framing (used by [`crate::framed::FramedLog`])
//!
//! ```text
//! +-------+--------+---------+--------+-----------+--------+
//! | magic | length | lsn     | forced | payload   | crc32  |
//! | u32   | u32    | u64     | u8     | length B  | u32    |
//! +-------+--------+---------+--------+-----------+--------+
//! ```
//!
//! The CRC covers `length‖lsn‖forced‖payload`. A scan treats a record
//! that fails magic/CRC validation at the *tail* of the log as a torn
//! write (truncated, not an error) and corruption elsewhere as fatal.
//! A frame check validates a frame and hands back its payload still
//! encoded; [`decode_frame`] also decodes it.
//!
//! ## One encoder
//!
//! [`encode_payload_into`] and [`encode_frame_into`] are the encoder:
//! they write into a buffer the caller owns, so a log appends a record
//! to its write buffer without allocating. [`encode_payload`],
//! [`encode_frame`] and [`encoded_len`] are wrappers over them for
//! callers that want an owned `Vec` or only the size (tests, fuzzers,
//! probes); the logs themselves never call the allocating two.

use crate::crc::crc32;
use crate::error::WalError;
use crate::record::{LogRecord, Lsn};
use acp_types::{CommitMode, LogPayload, Outcome, ParticipantEntry, ProtocolKind, SiteId, TxnId};

/// Frame magic: "WALR".
pub const MAGIC: u32 = 0x5741_4C52;

const TAG_INITIATION: u8 = 0x01;
const TAG_COORD_DECISION: u8 = 0x02;
const TAG_END: u8 = 0x03;
const TAG_PREPARED: u8 = 0x04;
const TAG_PART_DECISION: u8 = 0x05;
const TAG_PART_END: u8 = 0x06;
const TAG_UPDATE: u8 = 0x07;
const TAG_CHECKPOINT: u8 = 0x08;
const TAG_PAXOS_ACCEPT: u8 = 0x09;

// ---------------------------------------------------------------------
// primitive writers / readers
// ---------------------------------------------------------------------
//
// Public: the wire codec in `acp-net::wire` frames network messages
// with the same primitives (and the same CRC discipline) as the
// on-disk records, so there is exactly one binary dialect in the
// system.

/// Where encoded bytes go: a buffer, or a counter that only measures
/// them ([`encoded_len`]) — so there is one encoder and its size can
/// never disagree with its output.
pub trait Sink {
    /// Append `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Counts the bytes an encoder would write.
struct Measure(usize);

impl Sink for Measure {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Append one byte.
pub fn put_u8(out: &mut impl Sink, v: u8) {
    out.put(&[v]);
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut impl Sink, v: u32) {
    out.put(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut impl Sink, v: u64) {
    out.put(&v.to_le_bytes());
}

/// Append a length-prefixed (u32) byte string.
pub fn put_bytes(out: &mut impl Sink, v: &[u8]) {
    put_u32(
        out,
        u32::try_from(v.len()).expect("payload byte string too long"),
    );
    out.put(v);
}

/// Append an optional byte string: presence byte, then the string.
pub fn put_opt_bytes(out: &mut impl Sink, v: Option<&[u8]>) {
    match v {
        None => put_u8(out, 0),
        Some(b) => {
            put_u8(out, 1);
            put_bytes(out, b);
        }
    }
}

/// A bounds-checked cursor over an encoded payload. Every accessor
/// returns [`WalError::Corrupt`] instead of slicing out of bounds, so
/// decoders built on it are total over arbitrary input bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn corrupt(&self, what: &str) -> WalError {
        WalError::Corrupt {
            offset: self.pos as u64,
            detail: format!("truncated {what}"),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WalError> {
        if self.pos + n > self.buf.len() {
            return Err(self.corrupt(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte (`what` names the field in corruption errors).
    pub fn u8(&mut self, what: &str) -> Result<u8, WalError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, WalError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, WalError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self, what: &str) -> Result<Vec<u8>, WalError> {
        let len = self.u32(what)? as usize;
        Ok(self.take(len, what)?.to_vec())
    }

    /// Read an optional byte string (presence byte, then the string).
    pub fn opt_bytes(&mut self, what: &str) -> Result<Option<Vec<u8>>, WalError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.bytes(what)?)),
            v => Err(WalError::Corrupt {
                offset: self.pos as u64,
                detail: format!("bad presence byte {v} in {what}"),
            }),
        }
    }

    /// Whether the cursor consumed the whole buffer (decoders use this
    /// to reject trailing bytes).
    #[must_use]
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn protocol_tag(p: ProtocolKind) -> u8 {
    match p {
        ProtocolKind::PrN => 0,
        ProtocolKind::PrA => 1,
        ProtocolKind::PrC => 2,
    }
}

fn protocol_from_tag(t: u8, r: &Reader<'_>) -> Result<ProtocolKind, WalError> {
    match t {
        0 => Ok(ProtocolKind::PrN),
        1 => Ok(ProtocolKind::PrA),
        2 => Ok(ProtocolKind::PrC),
        v => Err(WalError::Corrupt {
            offset: r.pos as u64,
            detail: format!("bad protocol tag {v}"),
        }),
    }
}

fn mode_tag(m: CommitMode) -> u8 {
    match m {
        CommitMode::PrN => 0,
        CommitMode::PrA => 1,
        CommitMode::PrC => 2,
        CommitMode::PrAny => 3,
    }
}

fn mode_from_tag(t: u8, r: &Reader<'_>) -> Result<CommitMode, WalError> {
    match t {
        0 => Ok(CommitMode::PrN),
        1 => Ok(CommitMode::PrA),
        2 => Ok(CommitMode::PrC),
        3 => Ok(CommitMode::PrAny),
        v => Err(WalError::Corrupt {
            offset: r.pos as u64,
            detail: format!("bad mode tag {v}"),
        }),
    }
}

fn outcome_tag(o: Outcome) -> u8 {
    match o {
        Outcome::Commit => 0,
        Outcome::Abort => 1,
    }
}

fn outcome_from_tag(t: u8, r: &Reader<'_>) -> Result<Outcome, WalError> {
    match t {
        0 => Ok(Outcome::Commit),
        1 => Ok(Outcome::Abort),
        v => Err(WalError::Corrupt {
            offset: r.pos as u64,
            detail: format!("bad outcome tag {v}"),
        }),
    }
}

// ---------------------------------------------------------------------
// payload codec
// ---------------------------------------------------------------------

/// Encode a payload onto the end of `out`.
pub fn encode_payload_into(out: &mut impl Sink, p: &LogPayload) {
    match p {
        LogPayload::Initiation {
            txn,
            participants,
            mode,
        } => {
            put_u8(out, TAG_INITIATION);
            put_u64(out, txn.raw());
            put_u8(out, mode_tag(*mode));
            put_u32(
                out,
                u32::try_from(participants.len()).expect("too many participants"),
            );
            for e in participants {
                put_u32(out, e.site.raw());
                put_u8(out, protocol_tag(e.protocol));
            }
        }
        LogPayload::CoordDecision {
            txn,
            outcome,
            participants,
        } => {
            put_u8(out, TAG_COORD_DECISION);
            put_u64(out, txn.raw());
            put_u8(out, outcome_tag(*outcome));
            put_u32(
                out,
                u32::try_from(participants.len()).expect("too many participants"),
            );
            for e in participants {
                put_u32(out, e.site.raw());
                put_u8(out, protocol_tag(e.protocol));
            }
        }
        LogPayload::End { txn } => {
            put_u8(out, TAG_END);
            put_u64(out, txn.raw());
        }
        LogPayload::PaxosAccept {
            txn,
            ballot,
            instances,
        } => {
            put_u8(out, TAG_PAXOS_ACCEPT);
            put_u64(out, txn.raw());
            put_u64(out, *ballot);
            put_u32(
                out,
                u32::try_from(instances.len()).expect("too many instances"),
            );
            for (site, prepared) in instances {
                put_u32(out, site.raw());
                put_u8(out, u8::from(*prepared));
            }
        }
        LogPayload::Prepared { txn, coordinator } => {
            put_u8(out, TAG_PREPARED);
            put_u64(out, txn.raw());
            put_u32(out, coordinator.raw());
        }
        LogPayload::PartDecision { txn, outcome } => {
            put_u8(out, TAG_PART_DECISION);
            put_u64(out, txn.raw());
            put_u8(out, outcome_tag(*outcome));
        }
        LogPayload::PartEnd { txn } => {
            put_u8(out, TAG_PART_END);
            put_u64(out, txn.raw());
        }
        LogPayload::Update {
            txn,
            key,
            before,
            after,
        } => {
            put_u8(out, TAG_UPDATE);
            put_u64(out, txn.raw());
            put_bytes(out, key);
            put_opt_bytes(out, before.as_deref());
            put_opt_bytes(out, after.as_deref());
        }
        LogPayload::Checkpoint { entries } => {
            put_u8(out, TAG_CHECKPOINT);
            put_u32(
                out,
                u32::try_from(entries.len()).expect("checkpoint too large"),
            );
            for (k, v) in entries {
                put_bytes(out, k);
                put_bytes(out, v);
            }
        }
    }
}

/// Encode a payload into bytes.
#[must_use]
pub fn encode_payload(p: &LogPayload) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(p));
    encode_payload_into(&mut out, p);
    out
}

/// `encode_payload(p).len()`, without encoding anything.
#[must_use]
pub fn encoded_len(p: &LogPayload) -> usize {
    let mut n = Measure(0);
    encode_payload_into(&mut n, p);
    n.0
}

/// Decode a payload from bytes produced by [`encode_payload`].
pub fn decode_payload(buf: &[u8]) -> Result<LogPayload, WalError> {
    let mut r = Reader::new(buf);
    let tag = r.u8("tag")?;
    let payload = match tag {
        TAG_INITIATION => {
            let txn = TxnId::new(r.u64("txn")?);
            let mode = mode_from_tag(r.u8("mode")?, &r)?;
            let n = r.u32("participant count")? as usize;
            let mut participants = Vec::with_capacity(n);
            for _ in 0..n {
                let site = SiteId::new(r.u32("participant site")?);
                let protocol = protocol_from_tag(r.u8("participant protocol")?, &r)?;
                participants.push(ParticipantEntry::new(site, protocol));
            }
            LogPayload::Initiation {
                txn,
                participants,
                mode,
            }
        }
        TAG_COORD_DECISION => {
            let txn = TxnId::new(r.u64("txn")?);
            let outcome = outcome_from_tag(r.u8("outcome")?, &r)?;
            let n = r.u32("participant count")? as usize;
            let mut participants = Vec::with_capacity(n);
            for _ in 0..n {
                let site = SiteId::new(r.u32("participant site")?);
                let protocol = protocol_from_tag(r.u8("participant protocol")?, &r)?;
                participants.push(ParticipantEntry::new(site, protocol));
            }
            LogPayload::CoordDecision {
                txn,
                outcome,
                participants,
            }
        }
        TAG_END => LogPayload::End {
            txn: TxnId::new(r.u64("txn")?),
        },
        TAG_PAXOS_ACCEPT => {
            let txn = TxnId::new(r.u64("txn")?);
            let ballot = r.u64("ballot")?;
            let n = r.u32("instance count")? as usize;
            let mut instances = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let site = SiteId::new(r.u32("instance site")?);
                let prepared = match r.u8("instance value")? {
                    0 => false,
                    1 => true,
                    v => {
                        return Err(WalError::Corrupt {
                            offset: r.pos as u64,
                            detail: format!("bad instance value {v}"),
                        })
                    }
                };
                instances.push((site, prepared));
            }
            LogPayload::PaxosAccept {
                txn,
                ballot,
                instances,
            }
        }
        TAG_PREPARED => {
            let txn = TxnId::new(r.u64("txn")?);
            let coordinator = SiteId::new(r.u32("coordinator")?);
            LogPayload::Prepared { txn, coordinator }
        }
        TAG_PART_DECISION => {
            let txn = TxnId::new(r.u64("txn")?);
            let outcome = outcome_from_tag(r.u8("outcome")?, &r)?;
            LogPayload::PartDecision { txn, outcome }
        }
        TAG_PART_END => LogPayload::PartEnd {
            txn: TxnId::new(r.u64("txn")?),
        },
        TAG_UPDATE => {
            let txn = TxnId::new(r.u64("txn")?);
            let key = r.bytes("key")?;
            let before = r.opt_bytes("before image")?;
            let after = r.opt_bytes("after image")?;
            LogPayload::Update {
                txn,
                key,
                before,
                after,
            }
        }
        TAG_CHECKPOINT => {
            let n = r.u32("checkpoint entry count")? as usize;
            let mut entries = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let k = r.bytes("checkpoint key")?;
                let v = r.bytes("checkpoint value")?;
                entries.push((k, v));
            }
            LogPayload::Checkpoint { entries }
        }
        t => return Err(WalError::UnknownTag(t)),
    };
    if !r.done() {
        return Err(WalError::Corrupt {
            offset: r.pos as u64,
            detail: format!("{} trailing bytes after payload", buf.len() - r.pos),
        });
    }
    Ok(payload)
}

// ---------------------------------------------------------------------
// record framing
// ---------------------------------------------------------------------

/// Bytes a frame adds around its payload: magic, length, lsn, forced
/// flag and CRC.
pub(crate) const FRAME_OVERHEAD: usize = 4 + 4 + 8 + 1 + 4;

/// `encode_frame(record).len()` for a record carrying `payload`,
/// without encoding anything.
#[must_use]
pub fn frame_len(payload: &LogPayload) -> usize {
    FRAME_OVERHEAD + encoded_len(payload)
}

/// Encode a full framed record (see module docs for the layout) onto
/// the end of `out`: the length is back-patched once the payload is
/// written and the CRC taken over the bytes just appended.
pub fn encode_frame_into(out: &mut Vec<u8>, lsn: Lsn, forced: bool, payload: &LogPayload) {
    put_u32(out, MAGIC);
    let body = out.len();
    put_u32(out, 0);
    put_u64(out, lsn.raw());
    put_u8(out, u8::from(forced));
    let start = out.len();
    encode_payload_into(out, payload);
    let len = u32::try_from(out.len() - start).expect("payload too long");
    out[body..body + 4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[body..]);
    put_u32(out, crc);
}

/// Encode a full framed record into bytes.
#[must_use]
pub fn encode_frame(record: &LogRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame_len(&record.payload));
    encode_frame_into(&mut out, record.lsn, record.forced, &record.payload);
    out
}

/// Result of attempting to read one frame from a byte stream: a
/// [`LogRecord`] from [`decode_frame`], or a frame checked but not
/// decoded.
pub enum FrameOutcome<R = LogRecord> {
    /// A valid record plus the number of bytes it consumed.
    Record(R, usize),
    /// The remaining bytes are a torn (incomplete or tail-corrupted)
    /// write; scanning should stop here and truncate.
    Torn,
}

/// A frame that passed [`check_frame`]: its header fields, and its
/// payload still encoded ([`decode_payload`] reads it).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Frame<'a> {
    /// The record's log sequence number.
    pub lsn: Lsn,
    /// Whether the record was appended forced.
    pub forced: bool,
    /// The encoded payload.
    pub payload: &'a [u8],
}

/// Check the frame starting at `buf[offset..]` — magic, length, CRC and
/// forced flag — without decoding its payload, so it allocates nothing.
///
/// `offset` is used only for error reporting.
pub(crate) fn check_frame(buf: &[u8], offset: u64) -> Result<FrameOutcome<Frame<'_>>, WalError> {
    // Header: magic + length.
    if buf.len() < 8 {
        return Ok(FrameOutcome::Torn);
    }
    let magic = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        // Bad magic at the tail is torn garbage; the caller decides
        // whether mid-log corruption is fatal.
        return Ok(FrameOutcome::Torn);
    }
    let len = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")) as usize;
    let total = FRAME_OVERHEAD + len;
    if buf.len() < total {
        return Ok(FrameOutcome::Torn);
    }
    let body = &buf[4..total - 4];
    let stored_crc = u32::from_le_bytes(buf[total - 4..total].try_into().expect("4 bytes"));
    if crc32(body) != stored_crc {
        return Ok(FrameOutcome::Torn);
    }
    let lsn = Lsn(u64::from_le_bytes(body[4..12].try_into().expect("8 bytes")));
    let forced = match body[12] {
        0 => false,
        1 => true,
        v => {
            return Err(WalError::Corrupt {
                offset,
                detail: format!("bad forced flag {v}"),
            })
        }
    };
    let frame = Frame {
        lsn,
        forced,
        payload: &body[13..],
    };
    Ok(FrameOutcome::Record(frame, total))
}

/// Decode the frame starting at `buf[offset..]`: the frame check
/// (magic, length, CRC, forced flag), then [`decode_payload`].
///
/// `offset` is used only for error reporting.
pub fn decode_frame(buf: &[u8], offset: u64) -> Result<FrameOutcome, WalError> {
    Ok(match check_frame(buf, offset)? {
        FrameOutcome::Record(frame, total) => {
            let record = LogRecord {
                lsn: frame.lsn,
                forced: frame.forced,
                payload: decode_payload(frame.payload)?,
            };
            FrameOutcome::Record(record, total)
        }
        FrameOutcome::Torn => FrameOutcome::Torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<LogPayload> {
        let t = TxnId::new(77);
        vec![
            LogPayload::Initiation {
                txn: t,
                participants: vec![
                    ParticipantEntry::new(SiteId::new(1), ProtocolKind::PrN),
                    ParticipantEntry::new(SiteId::new(2), ProtocolKind::PrA),
                    ParticipantEntry::new(SiteId::new(3), ProtocolKind::PrC),
                ],
                mode: CommitMode::PrAny,
            },
            LogPayload::Initiation {
                txn: t,
                participants: vec![],
                mode: CommitMode::PrC,
            },
            LogPayload::CoordDecision {
                txn: t,
                outcome: Outcome::Commit,
                participants: vec![],
            },
            LogPayload::CoordDecision {
                txn: t,
                outcome: Outcome::Abort,
                participants: vec![ParticipantEntry::new(SiteId::new(4), ProtocolKind::PrN)],
            },
            LogPayload::End { txn: t },
            LogPayload::Prepared {
                txn: t,
                coordinator: SiteId::new(9),
            },
            LogPayload::PartDecision {
                txn: t,
                outcome: Outcome::Commit,
            },
            LogPayload::PartEnd { txn: t },
            LogPayload::Update {
                txn: t,
                key: vec![],
                before: None,
                after: None,
            },
            LogPayload::Update {
                txn: t,
                key: b"account/42".to_vec(),
                before: Some(b"100".to_vec()),
                after: Some(b"250".to_vec()),
            },
            LogPayload::Checkpoint { entries: vec![] },
            LogPayload::Checkpoint {
                entries: vec![
                    (b"a".to_vec(), b"1".to_vec()),
                    (b"b".to_vec(), b"2".to_vec()),
                ],
            },
        ]
    }

    #[test]
    fn payload_roundtrip() {
        for p in samples() {
            let enc = encode_payload(&p);
            let dec = decode_payload(&enc).unwrap();
            assert_eq!(dec, p);
        }
    }

    #[test]
    fn frame_roundtrip() {
        for (i, p) in samples().into_iter().enumerate() {
            let rec = LogRecord {
                lsn: Lsn(i as u64),
                forced: i % 2 == 0,
                payload: p,
            };
            let enc = encode_frame(&rec);
            match decode_frame(&enc, 0).unwrap() {
                FrameOutcome::Record(dec, consumed) => {
                    assert_eq!(dec, rec);
                    assert_eq!(consumed, enc.len());
                }
                FrameOutcome::Torn => panic!("valid frame decoded as torn"),
            }
        }
    }

    #[test]
    fn truncated_frame_is_torn() {
        let rec = LogRecord {
            lsn: Lsn(0),
            forced: true,
            payload: LogPayload::End { txn: TxnId::new(1) },
        };
        let enc = encode_frame(&rec);
        for cut in 0..enc.len() {
            match decode_frame(&enc[..cut], 0).unwrap() {
                FrameOutcome::Torn => {}
                FrameOutcome::Record(..) => panic!("truncation at {cut} decoded as a record"),
            }
        }
    }

    #[test]
    fn corrupted_frame_is_torn() {
        let rec = LogRecord {
            lsn: Lsn(3),
            forced: false,
            payload: LogPayload::Prepared {
                txn: TxnId::new(8),
                coordinator: SiteId::new(0),
            },
        };
        let enc = encode_frame(&rec);
        // Flip one byte in the payload region; CRC must catch it.
        let mut bad = enc.clone();
        bad[14] ^= 0x10;
        assert!(matches!(decode_frame(&bad, 0).unwrap(), FrameOutcome::Torn));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = encode_payload(&LogPayload::End { txn: TxnId::new(1) });
        enc.push(0xAB);
        assert!(matches!(
            decode_payload(&enc),
            Err(WalError::Corrupt { .. })
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            decode_payload(&[0x7F, 0, 0]),
            Err(WalError::UnknownTag(0x7F))
        ));
    }

    #[test]
    fn empty_payload_rejected() {
        assert!(decode_payload(&[]).is_err());
    }
}
