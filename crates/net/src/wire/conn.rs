//! Connection lifecycle for the socket runtime.
//!
//! Connections are **unidirectional**: a node keeps one outbound
//! [`OutConn`] per remote site it sends to, and accepts any number of
//! inbound [`InConn`]s it only reads from. This keeps the state machine
//! small (no connection-identity negotiation — the frame's `Message`
//! already says who is talking) and makes reconnection trivially safe:
//! the dialing side owns the retry schedule, the accepting side just
//! accepts again.
//!
//! An `OutConn` is a three-state machine:
//!
//! ```text
//!            dial ok                      write/EOF error
//! Idle ───────────────▶ Established ─────────────────────┐
//!   ▲                                                    ▼
//!   │          backoff elapsed, bytes still owed      Backoff
//!   └───────────────────────────◀────────────────────────┘
//!                         (redial)
//! ```
//!
//! with bounded exponential backoff — `min(base · 2^attempt, 5 s)`,
//! the same shape as [`crate::site::NetDelays::delay`] so transport
//! retries and protocol retries back off alike.
//!
//! What a connection owes its peer is **one out-buffer** of encoded
//! frames back to back, with a cursor at the first byte the socket has
//! not accepted: a frame is encoded straight onto its end, and a flush
//! hands the socket everything past the cursor in one `write` — one
//! syscall per connection per turn, however many frames the turn made.
//! The buffer is bounded in **bytes not yet written**; a frame past the
//! bound is taken back off and counted
//! ([`acp_obs::WireMetrics::backpressure_drops`]) — an omission
//! failure, exactly the failure model the protocols already tolerate.
//! It starts at a frame boundary and survives reconnects: a new
//! connection resumes at the first byte of the oldest frame the old one
//! did not accept in full. A whole frame may thus go out twice — safe,
//! every protocol message is idempotent at the engines (duplicate
//! delivery is tolerated by paper requirement, §2) — a torn one never.

use super::frame::{frame_boundary, FrameDecoder};
use acp_obs::WireMetrics;
use std::io::{self, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// First retry delay after a failed dial or lost connection.
pub(crate) const BACKOFF_BASE: Duration = Duration::from_millis(25);

/// Backoff ceiling — matches the protocol-timer cap in
/// [`crate::site::NetDelays`].
pub(crate) const MAX_BACKOFF: Duration = Duration::from_secs(5);

/// Doublings beyond which the backoff stops growing (the cap bites
/// long before this; mirrors the protocol-timer constant).
const BACKOFF_SHIFT_CAP: u32 = 16;

/// Bounded exponential backoff for dial attempt `attempt` (0-based).
#[must_use]
pub(crate) fn backoff(attempt: u32) -> Duration {
    BACKOFF_BASE
        .saturating_mul(1u32 << attempt.min(BACKOFF_SHIFT_CAP).min(31))
        .min(MAX_BACKOFF)
}

/// One outbound connection: the only sender-side state for a remote
/// site. Generic over the socket so a test can count `write` calls
/// (`send(2)`, which `/proc/self/io` does not).
pub(crate) struct OutConn<S = TcpStream> {
    /// Established socket, when any.
    pub stream: Option<S>,
    /// epoll token of `stream`.
    pub token: Option<u64>,
    /// Encoded frames back to back, oldest first, from a frame boundary.
    pub buf: Vec<u8>,
    /// Bytes of `buf` the current connection has accepted.
    pub written: usize,
    /// Consecutive failed dials (resets on an established connection).
    pub attempt: u32,
    /// Do not redial before this instant (`None` = may dial now).
    pub retry_at: Option<Instant>,
    /// Next frame sequence number (assigned at logical send time).
    pub next_seq: u64,
    /// Whether the epoll registration currently includes `EPOLLOUT`.
    pub want_writable: bool,
}

impl<S: Write> OutConn<S> {
    pub(crate) fn new() -> Self {
        OutConn {
            stream: None,
            token: None,
            buf: Vec::new(),
            written: 0,
            attempt: 0,
            retry_at: None,
            next_seq: 0,
            want_writable: false,
        }
    }

    /// Bytes not yet written: what `max_conn_queue_bytes` bounds.
    pub(crate) fn pending(&self) -> usize {
        self.buf.len() - self.written
    }

    /// Hand the socket everything past the cursor in one `write`,
    /// again only after a short one, until it says `WouldBlock`.
    /// Returns `Ok(true)` when bytes remain (the caller should arm
    /// `EPOLLOUT`), `Ok(false)` when the buffer drained, and `Err`
    /// when the connection is dead (the caller disconnects it).
    pub(crate) fn try_flush(&mut self, metrics: &WireMetrics) -> io::Result<bool> {
        let Some(stream) = self.stream.as_mut() else {
            return Ok(self.pending() > 0);
        };
        while self.written < self.buf.len() {
            match stream.write(&self.buf[self.written..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    metrics.add(&metrics.bytes_sent, n as u64);
                    self.written += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.pending() == 0 {
            self.buf.clear();
            self.written = 0;
        } else if self.written >= self.pending() {
            // A written prefix as long as what moves down over it:
            // compaction costs O(1) per byte sent.
            self.compact();
        }
        Ok(self.pending() > 0)
    }

    /// Drop the frames the connection accepted in full, keeping `buf`
    /// at a frame boundary (a partly written frame stays whole).
    fn compact(&mut self) {
        let cut = frame_boundary(&self.buf, self.written);
        self.buf.drain(..cut);
        self.written -= cut;
    }

    /// Tear down the socket (dial failure or write error): keep what is
    /// owed, restart the partly written frame from its first byte,
    /// schedule the next dial with backoff.
    pub(crate) fn back_off(&mut self, now: Instant) {
        self.stream = None;
        self.token = None;
        self.compact();
        self.written = 0;
        self.want_writable = false;
        self.retry_at = Some(now + backoff(self.attempt));
        self.attempt = self.attempt.saturating_add(1);
    }
}

/// One accepted inbound connection: read-only, with its own framing
/// state and reorder detector.
pub(crate) struct InConn {
    /// The socket.
    pub stream: TcpStream,
    /// Streaming frame reassembly.
    pub decoder: FrameDecoder,
    /// Highest `seq` observed (reorder detection — never enforcement).
    pub last_seq: Option<u64>,
}

impl InConn {
    pub(crate) fn new(stream: TcpStream) -> Self {
        InConn {
            stream,
            decoder: FrameDecoder::new(),
            last_seq: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::frame::{encode_wire_frame, encode_wire_frame_into, WireMsg};
    use super::*;
    use acp_types::{SiteId, TxnId};

    /// A socket with `room` bytes of send buffer left — then
    /// `WouldBlock` — that counts the `write` calls it sees.
    struct Pipe {
        got: Vec<u8>,
        room: usize,
        calls: usize,
    }

    impl Pipe {
        fn with_room(room: usize) -> Self {
            Pipe {
                got: Vec::new(),
                room,
                calls: 0,
            }
        }
    }

    impl Write for Pipe {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.room == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = bytes.len().min(self.room);
            self.got.extend_from_slice(&bytes[..n]);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn apply(i: u64) -> WireMsg {
        WireMsg::Apply {
            to: SiteId::new(1),
            txn: TxnId::new(i),
            key: format!("key-{i}").into_bytes(),
            value: vec![i as u8; 40],
        }
    }

    /// A connection on `pipe` owing frames `0..n`, and each frame alone.
    fn owing(n: u64, pipe: Pipe) -> (OutConn<Pipe>, Vec<Vec<u8>>) {
        let mut conn = OutConn::new();
        conn.stream = Some(pipe);
        for seq in 0..n {
            encode_wire_frame_into(&mut conn.buf, seq, &apply(seq));
        }
        let frames = (0..n).map(|seq| encode_wire_frame(seq, &apply(seq))).collect();
        (conn, frames)
    }

    /// What a receiver makes of one connection's bytes: the frames'
    /// sequence numbers, and whether framing broke.
    fn receive(bytes: &[u8]) -> (Vec<u64>, bool) {
        let mut decoder = FrameDecoder::new();
        decoder.feed(bytes);
        let mut seqs = Vec::new();
        loop {
            match decoder.next_frame() {
                Ok(Some((seq, _))) => seqs.push(seq),
                Ok(None) => return (seqs, false),
                Err(_) => return (seqs, true),
            }
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff(0), Duration::from_millis(25));
        assert_eq!(backoff(1), Duration::from_millis(50));
        assert_eq!(backoff(4), Duration::from_millis(400));
        assert_eq!(backoff(10), MAX_BACKOFF);
        assert_eq!(backoff(u32::MAX), MAX_BACKOFF);
    }

    #[test]
    fn sixty_four_frames_leave_in_one_write() {
        let metrics = WireMetrics::new();
        let (mut conn, frames) = owing(64, Pipe::with_room(usize::MAX));
        assert!(!conn.try_flush(&metrics).expect("alive"));
        let pipe = conn.stream.as_ref().expect("still connected");
        assert_eq!(pipe.calls, 1);
        assert_eq!(pipe.got, frames.concat());
        assert_eq!(metrics.snapshot().bytes_sent, pipe.got.len() as u64);
        assert!(conn.buf.is_empty() && conn.written == 0);
    }

    #[test]
    fn a_torn_frame_restarts_at_its_first_byte_on_the_next_connection() {
        let metrics = WireMetrics::new();
        // The socket takes frames 0 and 1 and five bytes of frame 2.
        let room = 2 * encode_wire_frame(0, &apply(0)).len() + 5;
        let (mut conn, frames) = owing(8, Pipe::with_room(room));
        assert!(conn.try_flush(&metrics).expect("alive"));
        let calls = conn.stream.as_ref().expect("connected").calls;
        assert_eq!(calls, 2, "one short write, one WouldBlock");
        assert_eq!(conn.pending(), frames.concat().len() - room);

        let first = conn.stream.take().expect("first connection").got;
        conn.back_off(Instant::now());
        assert_eq!(conn.written, 0);
        assert_eq!(conn.buf, frames[2..].concat(), "resume at frame 2, byte 0");

        conn.stream = Some(Pipe::with_room(usize::MAX));
        assert!(!conn.try_flush(&metrics).expect("alive"));
        let second = conn.stream.take().expect("second connection").got;

        // Each connection has its own decoder: the first ends inside a
        // frame (never an error, just bytes that never complete), the
        // second starts on a boundary.
        assert_eq!(receive(&first), (vec![0, 1], false));
        assert_eq!(receive(&second), ((2..8).collect(), false));
    }

    #[test]
    fn a_slow_peers_written_prefix_is_dropped_at_a_frame_boundary() {
        let metrics = WireMetrics::new();
        let (mut conn, frames) = owing(8, Pipe::with_room(0));
        assert_eq!(frames[0].len(), 86);
        let mut sent = Vec::new();
        // The peer takes 100 bytes per flush, the frames are 86: every
        // flush ends inside one.
        while conn.pending() > 0 {
            conn.stream = Some(Pipe::with_room(100));
            let _ = conn.try_flush(&metrics).expect("alive");
            sent.extend(conn.stream.take().expect("connected").got);
            assert!(conn.buf.is_empty() || conn.buf.starts_with(&frames[0][..4]));
            assert!(conn.written < frames[0].len() || conn.written < conn.pending());
        }
        assert_eq!(sent, frames.concat());
        assert!(conn.buf.is_empty() && conn.written == 0);
    }
}
