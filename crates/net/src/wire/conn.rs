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
//!   │            backoff elapsed, queue non-empty     Backoff
//!   └───────────────────────────◀────────────────────────┘
//!                         (redial)
//! ```
//!
//! with bounded exponential backoff — `min(base · 2^attempt, 5 s)`,
//! the same shape as [`crate::site::NetDelays::delay`] so transport
//! retries and protocol retries back off alike. The write queue is
//! bounded in **bytes**; a frame that would overflow it is dropped and
//! counted ([`acp_obs::WireMetrics::backpressure_drops`]) — an
//! omission failure, exactly the failure model the protocols already
//! tolerate. The queue survives reconnects, so frames enqueued while a
//! peer is down (or mid-crash) retransmit once the dial lands; a frame
//! fully written just before a connection died may be sent twice, which
//! is safe — every protocol message is idempotent at the engines
//! (duplicate-delivery tolerance is a paper requirement, §2).

use super::frame::FrameDecoder;
use acp_obs::WireMetrics;
use std::collections::VecDeque;
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
/// site.
pub(crate) struct OutConn {
    /// Established socket, when any.
    pub stream: Option<TcpStream>,
    /// epoll token of `stream`.
    pub token: Option<u64>,
    /// Encoded frames awaiting the socket, oldest first.
    pub queue: VecDeque<Vec<u8>>,
    /// Total bytes across `queue` (bounds enforcement).
    pub queued_bytes: usize,
    /// Bytes of `queue[0]` already written.
    pub write_pos: usize,
    /// Consecutive failed dials (resets on an established connection).
    pub attempt: u32,
    /// Do not redial before this instant (`None` = may dial now).
    pub retry_at: Option<Instant>,
    /// Next frame sequence number (assigned at logical send time).
    pub next_seq: u64,
    /// Whether the epoll registration currently includes `EPOLLOUT`.
    pub want_writable: bool,
}

impl OutConn {
    pub(crate) fn new() -> Self {
        OutConn {
            stream: None,
            token: None,
            queue: VecDeque::new(),
            queued_bytes: 0,
            write_pos: 0,
            attempt: 0,
            retry_at: None,
            next_seq: 0,
            want_writable: false,
        }
    }

    /// Write queued frames until the queue empties or the socket says
    /// `WouldBlock`. Returns `Ok(true)` when bytes remain (the caller
    /// should arm `EPOLLOUT`), `Ok(false)` when the queue drained, and
    /// `Err` when the connection is dead (the caller disconnects it).
    pub(crate) fn try_flush(&mut self, metrics: &WireMetrics) -> io::Result<bool> {
        let Some(stream) = self.stream.as_mut() else {
            return Ok(!self.queue.is_empty());
        };
        while let Some(front) = self.queue.front() {
            match stream.write(&front[self.write_pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    metrics.add(&metrics.bytes_sent, n as u64);
                    self.write_pos += n;
                    if self.write_pos == front.len() {
                        self.queued_bytes -= front.len();
                        self.queue.pop_front();
                        self.write_pos = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(!self.queue.is_empty())
    }

    /// Tear down the socket (dial failure or write error): keep the
    /// queue, restart the current frame from byte 0, schedule the next
    /// dial with backoff.
    pub(crate) fn to_backoff(&mut self, now: Instant) {
        self.stream = None;
        self.token = None;
        self.write_pos = 0;
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
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff(0), Duration::from_millis(25));
        assert_eq!(backoff(1), Duration::from_millis(50));
        assert_eq!(backoff(4), Duration::from_millis(400));
        assert_eq!(backoff(10), MAX_BACKOFF);
        assert_eq!(backoff(u32::MAX), MAX_BACKOFF);
    }
}
