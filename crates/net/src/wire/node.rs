//! The socket node: one OS process hosting a subset of a cluster's
//! sites, exchanging frames with its peers over real TCP.
//!
//! This is the site-hosting kernel (`host.rs`) — the same turn
//! discipline the reactor runs — over a TCP transport: envelopes
//! addressed to a **hosted** site stay on the kernel's ready queue,
//! envelopes addressed to a remote site are encoded as
//! length-prefixed CRC frames ([`super::frame`]) straight into the
//! out-buffer of a per-destination outbound connection (`OutConn`),
//! which the end of the turn hands to the socket in one `write`. A
//! vendored epoll shim drives socket
//! readiness; the kernel's hashed timer wheel drives engine timers;
//! both deadlines fold into one `epoll_wait` timeout, so the loop
//! sleeps until *either* a frame arrives or a protocol timer is due.
//! The node is the kernel with no admission door.
//!
//! The engines cannot tell the difference. They see the same
//! [`Envelope`] dispatch, the same [`crate::site`] emission points,
//! the same group-commit force-then-externalize turn discipline — so
//! a single-transaction run over loopback sockets produces a trace
//! byte-identical (after timestamp masking) to the in-process reactor,
//! which is exactly what the golden test in `tests/socket_wire.rs`
//! pins.
//!
//! What is genuinely new is the failure domain. A process hosts sites;
//! `kill -9` takes down every hosted site, its volatile queues, and
//! every TCP connection at once, while the WAL files persist. On
//! restart the node reopens its WALs (`FileLog::open`), replays them,
//! and runs the paper's restart procedure (`engine.recover()`) before
//! accepting new work — the multi-process demo (`exp_socket`) kills
//! and restarts real processes mid-commit and checks the merged traces
//! with the ACTA predicates.

use super::conn::{InConn, OutConn};
use super::faults::{FaultAction, WireFaults};
use super::frame::{encode_wire_frame_into, WireMsg};
use crate::client::{deref_to_client, ClientHandle};
use crate::cluster::{ClusterConfig, ClusterReport};
use crate::envelope::Envelope;
use crate::host::{HostEnv, Kernel, Mail, Transport, COORDINATOR};
use crate::reactor::{InflightGauge, ReactorStats};
use acp_acta::History;
use acp_obs::{TraceSink, WireMetrics, WireSnapshot};
use acp_types::SiteId;
use acp_wal::DomainStats;
use crossbeam::channel::{unbounded, Receiver};
use epoll::{Epoll, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Shared ACTA history handle (one per process; the demo merges
/// per-process trace files instead).
pub use crate::site::SharedHistory;

/// A fresh, empty shared history. Multi-node tests in one process pass
/// the same handle to several [`SocketNode::spawn_with`] calls so the
/// cluster-wide ACTA predicates can run on the merged event stream.
#[must_use]
pub fn shared_history() -> SharedHistory {
    Arc::new(Mutex::new(History::new()))
}

/// epoll token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// epoll token of the in-process waker pipe.
const TOKEN_WAKER: u64 = 1;
/// First token handed to a connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// How long a blocking loopback dial may take before it counts as a
/// failed attempt (loopback connects resolve ~instantly; a longer wait
/// would stall the event loop).
const DIAL_TIMEOUT: Duration = Duration::from_millis(100);

/// Where a node finds its peers.
///
/// `Static` is for tests that know every address up front. `File` is
/// for the multi-process demo, where children bind port 0 and the
/// parent writes the rendezvous file once all of them have reported
/// their kernel-assigned addresses: the file is re-read at **every**
/// dial, so a node spawned before the file exists simply backs off and
/// finds the address on a later attempt.
#[derive(Clone, Debug)]
pub enum AddressBook {
    /// Fixed site → address map.
    Static(BTreeMap<SiteId, SocketAddr>),
    /// Rendezvous file of `<site> <addr>` lines, re-read per dial.
    File(PathBuf),
}

impl AddressBook {
    /// Resolve a site's current address, if known.
    #[must_use]
    pub fn lookup(&self, site: SiteId) -> Option<SocketAddr> {
        match self {
            AddressBook::Static(map) => map.get(&site).copied(),
            AddressBook::File(path) => {
                let text = std::fs::read_to_string(path).ok()?;
                for line in text.lines() {
                    let mut parts = line.split_whitespace();
                    let (Some(id), Some(addr)) = (parts.next(), parts.next()) else {
                        continue;
                    };
                    if id.parse::<u32>().ok() == Some(site.raw()) {
                        if let Ok(a) = addr.parse() {
                            return Some(a);
                        }
                    }
                }
                None
            }
        }
    }
}

/// Everything needed to spawn one socket node.
pub struct NodeConfig {
    /// Cluster shape — must be identical across every node of the
    /// cluster (each node builds only its hosted engines from it, but
    /// the coordinator registers *all* participants).
    pub cluster: ClusterConfig,
    /// Sites this process hosts (site 0 = the coordinator).
    pub hosted: Vec<SiteId>,
    /// Listen address (`127.0.0.1:0` by default — read the kernel's
    /// choice back via [`SocketNode::local_addr`]).
    pub listen: SocketAddr,
    /// How to find the other nodes.
    pub peers: AddressBook,
    /// Directory for this node's WAL files. If a WAL already exists it
    /// is **reopened and replayed** (restart semantics); otherwise it
    /// is created fresh.
    pub wal_dir: PathBuf,
    /// Outbound frame fault injection (drop/delay at frame boundary).
    pub faults: WireFaults,
    /// Per-connection bound on bytes buffered but not yet written;
    /// frames past it are shed ([`WireMetrics::backpressure_drops`]).
    pub max_conn_queue_bytes: usize,
    /// Shared unix-microsecond epoch for trace timestamps, so events
    /// from different processes merge onto one time axis. `None` uses
    /// process start (single-process tests).
    pub epoch_unix_us: Option<u64>,
}

impl NodeConfig {
    /// A config with the defaults described on each field.
    #[must_use]
    pub fn new(
        cluster: ClusterConfig,
        hosted: Vec<SiteId>,
        peers: AddressBook,
        wal_dir: impl Into<PathBuf>,
    ) -> Self {
        NodeConfig {
            cluster,
            hosted,
            listen: SocketAddr::from(([127, 0, 0, 1], 0)),
            peers,
            wal_dir: wal_dir.into(),
            faults: WireFaults::none(),
            max_conn_queue_bytes: 4 * 1024 * 1024,
            epoch_unix_us: None,
        }
    }
}

/// What [`SocketNode::shutdown`] returns: the shared report shape over
/// this node's hosted sites, plus loop and transport counters.
pub struct NodeReport {
    /// Backend-independent cluster report (hosted sites only — the
    /// demo merges reports across processes).
    pub cluster: ClusterReport,
    /// Event-loop counters (same shape as the reactor's).
    pub stats: ReactorStats,
    /// Fsync-domain coalescing counters.
    pub fsync: DomainStats,
    /// Transport counters.
    pub wire: WireSnapshot,
}

// ---------------------------------------------------------------------------
// Outbound transport

/// What an outbound connection's socket lifecycle touches — kept apart
/// from the connection map, so the map is walked in place.
struct Sockets {
    epoll: Epoll,
    /// epoll token → destination site, for event dispatch.
    out_tokens: BTreeMap<u64, SiteId>,
    next_token: u64,
    peers: AddressBook,
    metrics: Arc<WireMetrics>,
    max_queue: usize,
}

impl Sockets {
    /// Keep or shed the frame just appended at `conn.buf[start..]`:
    /// past the bound on unwritten bytes it is taken back off, leaving
    /// the buffer as it was.
    fn admit(&mut self, now: Instant, to: SiteId, conn: &mut OutConn, start: usize) {
        if conn.pending() > self.max_queue {
            conn.buf.truncate(start);
            self.metrics.inc(&self.metrics.backpressure_drops);
            return;
        }
        self.metrics.inc(&self.metrics.frames_sent);
        if conn.stream.is_none() && conn.retry_at.is_none() {
            self.dial(now, to, conn);
        }
    }

    /// One dial attempt. Success registers the socket with epoll;
    /// failure (or an unknown address) schedules a backed-off retry.
    fn dial(&mut self, now: Instant, to: SiteId, conn: &mut OutConn) {
        self.metrics.inc(&self.metrics.dials);
        let Some(addr) = self.peers.lookup(to) else {
            conn.back_off(now);
            return;
        };
        match TcpStream::connect_timeout(&addr, DIAL_TIMEOUT) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    conn.back_off(now);
                    return;
                }
                let token = self.next_token;
                self.next_token += 1;
                if self
                    .epoll
                    .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
                    .is_err()
                {
                    conn.back_off(now);
                    return;
                }
                conn.stream = Some(stream);
                conn.token = Some(token);
                conn.attempt = 0;
                conn.retry_at = None;
                conn.want_writable = false;
                self.out_tokens.insert(token, to);
                self.metrics.inc(&self.metrics.connects);
            }
            Err(_) => conn.back_off(now),
        }
    }

    /// Write what a connection owes; toggle `EPOLLOUT` interest to
    /// match whether bytes remain; disconnect on error.
    fn flush(&mut self, now: Instant, conn: &mut OutConn) {
        match conn.try_flush(&self.metrics) {
            Ok(pending) => {
                if pending != conn.want_writable {
                    if let (Some(stream), Some(token)) = (&conn.stream, conn.token) {
                        let interest =
                            EPOLLIN | EPOLLRDHUP | if pending { EPOLLOUT } else { 0 };
                        let _ = self.epoll.modify(stream.as_raw_fd(), interest, token);
                        conn.want_writable = pending;
                    }
                }
            }
            Err(_) => self.lose(now, conn),
        }
    }

    /// Deregister and drop a connection's socket, if it has one.
    fn close(&mut self, conn: &mut OutConn) {
        if let Some(stream) = conn.stream.take() {
            let _ = self.epoll.delete(stream.as_raw_fd());
            self.metrics.inc(&self.metrics.disconnects);
        }
        if let Some(token) = conn.token.take() {
            self.out_tokens.remove(&token);
        }
    }

    /// Lose an established connection: deregister, keep what is owed
    /// (it retransmits on the next connection), schedule a redial.
    fn lose(&mut self, now: Instant, conn: &mut OutConn) {
        self.close(conn);
        conn.back_off(now);
    }
}

/// All outbound state: per-destination connections, the fault plan,
/// and frames held back by a delay fault.
struct Wire {
    out: BTreeMap<SiteId, OutConn>,
    sockets: Sockets,
    faults: WireFaults,
    /// Node spawn instant: partition windows are measured from here.
    t0: Instant,
    /// Frames under an active delay fault: released (appended to their
    /// connection's buffer) once their instant passes — by then later
    /// frames have overtaken them.
    delayed: Vec<(Instant, SiteId, Vec<u8>)>,
}

impl Wire {
    /// Frame one message into its connection's out-buffer; faults are
    /// consulted *after* the sequence number is assigned, so a dropped
    /// frame leaves a gap and a delayed frame regresses the receiver's
    /// sequence watermark.
    fn send(&mut self, now: Instant, to: SiteId, msg: WireMsg) {
        let conn = self.out.entry(to).or_insert_with(OutConn::new);
        let seq = conn.next_seq;
        conn.next_seq += 1;
        if !self.faults.is_empty() {
            let metrics = &self.sockets.metrics;
            // Partition windows first: a severed link drops everything,
            // regardless of what the per-kind rules would say.
            if self
                .faults
                .partitioned(now.saturating_duration_since(self.t0), to)
            {
                metrics.inc(&metrics.fault_drops);
                return;
            }
            match self.faults.decide(to, &msg) {
                Some(FaultAction::Drop) => {
                    metrics.inc(&metrics.fault_drops);
                    return;
                }
                Some(FaultAction::Delay(d)) => {
                    metrics.inc(&metrics.fault_delays);
                    let mut frame = Vec::new();
                    encode_wire_frame_into(&mut frame, seq, &msg);
                    self.delayed.push((now + d, to, frame));
                    return;
                }
                None => {}
            }
        }
        let start = conn.buf.len();
        encode_wire_frame_into(&mut conn.buf, seq, &msg);
        self.sockets.admit(now, to, conn, start);
    }

    /// Append delay-faulted frames whose hold expired.
    fn release_delayed(&mut self, now: Instant) -> bool {
        if self.delayed.is_empty() {
            return false;
        }
        let mut worked = false;
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now {
                let (_, to, frame) = self.delayed.remove(i);
                let conn = self.out.entry(to).or_insert_with(OutConn::new);
                let start = conn.buf.len();
                conn.buf.extend_from_slice(&frame);
                self.sockets.admit(now, to, conn, start);
                worked = true;
            } else {
                i += 1;
            }
        }
        worked
    }

    /// Redial connections whose backoff elapsed and that still owe
    /// bytes (an empty buffer has nothing to say; the next send dials).
    fn pump_dials(&mut self, now: Instant) {
        for (to, conn) in &mut self.out {
            if conn.stream.is_none()
                && conn.pending() > 0
                && conn.retry_at.is_some_and(|t| t <= now)
            {
                conn.retry_at = None;
                self.sockets.dial(now, *to, conn);
            }
        }
    }

    /// Flush every established connection that owes bytes.
    fn flush_all(&mut self, now: Instant) {
        for conn in self.out.values_mut() {
            if conn.stream.is_some() && conn.pending() > 0 {
                self.sockets.flush(now, conn);
            }
        }
    }

    /// Process-crash semantics: drop every connection *and* its
    /// buffered frames and delayed holds — volatile state dies with the
    /// process.
    fn sever(&mut self, now: Instant) {
        for conn in self.out.values_mut() {
            self.sockets.close(conn);
            conn.buf.clear();
            conn.written = 0;
            conn.want_writable = false;
            conn.attempt = 0;
            conn.retry_at = Some(now + super::conn::BACKOFF_BASE);
        }
        self.delayed.clear();
    }

    /// Any frames still owed to the network?
    fn has_pending(&self) -> bool {
        !self.delayed.is_empty() || self.out.values().any(|c| c.pending() > 0)
    }

    /// Earliest transport deadline: a due redial or a delayed-frame
    /// release.
    fn next_deadline(&self) -> Option<Instant> {
        let redials = self
            .out
            .values()
            .filter(|c| c.stream.is_none() && c.pending() > 0)
            .filter_map(|c| c.retry_at);
        redials.chain(self.delayed.iter().map(|(t, _, _)| *t)).min()
    }
}

// ---------------------------------------------------------------------------
// The waker

/// One end of the in-process waker: a socket pair the node sleeps on in
/// `epoll_wait`, and a flag both ends share so that a burst of client
/// envelopes costs **one byte per sleep**, not one per envelope.
///
/// No wake-up is lost. A sender pushes its envelope onto the injector
/// *first*, then [`ring`](Self::ring)s. If its swap read `false` it
/// writes a byte, and the (level-triggered) node's next `epoll_wait`
/// returns. If it read `true`, a ringer set the flag and the node has
/// not cleared it since; that ringer's byte, written after the set, is
/// either unread — the node will wake — or was read by a
/// [`drain`](Self::drain), which clears the flag *after* reading. Either
/// way a clear follows this sender's push, and a turn follows every
/// clear and drains the injector to empty: the envelope is seen.
/// (Clearing *before* reading loses it: a byte written in between is
/// consumed with the flag left set, and later senders stay silent to a
/// sleeping node.) A byte between read and clear costs a spurious wake.
struct Waker {
    pipe: UnixStream,
    /// A byte is in the pipe, or its writer is about to put it there.
    rung: Arc<AtomicBool>,
}

impl Waker {
    /// The node's end and the client handle's.
    fn pair() -> io::Result<(Waker, Waker)> {
        let (node, handle) = UnixStream::pair()?;
        node.set_nonblocking(true)?;
        handle.set_nonblocking(true)?;
        let rung = Arc::new(AtomicBool::new(false));
        let node = Waker { pipe: node, rung: Arc::clone(&rung) };
        Ok((node, Waker { pipe: handle, rung }))
    }

    /// Sender side, after the push: wake the node unless it is due to.
    fn ring(&self) {
        if !self.rung.swap(true, SeqCst) {
            let _ = (&self.pipe).write(&[1]);
        }
    }

    /// Node side, before the turn: empty the pipe, *then* clear the
    /// flag (a swap: it synchronizes with the ringers that found it set).
    fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.pipe).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        self.rung.swap(false, SeqCst);
    }
}

// ---------------------------------------------------------------------------
// The TCP transport

/// The kernel's transport on a socket node: hosted sites are local,
/// everyone else is a frame away. Owns every socket of the process —
/// the outbound [`Wire`], the listener and its accepted connections —
/// and the epoll instance they are registered with.
struct Tcp {
    wire: Wire,
    /// Sites this process hosts.
    hosted: BTreeSet<SiteId>,
    listener: TcpListener,
    /// The node's end of the waker; the handle rings the other to
    /// interrupt `epoll_wait` after injecting an envelope.
    waker: Waker,
    inbound: BTreeMap<u64, InConn>,
    events: Vec<epoll::Event>,
    /// What `in_event` reads a socket into, 16 KiB: zeroed once, when
    /// the node starts, and reused for every readiness event after.
    read_buf: Box<[u8]>,
}

impl Transport for Tcp {
    /// Hosted sites are the kernel's; the rest go over the wire —
    /// except Commit, Crash and Shutdown, which never cross it: a
    /// commit's reply channel is process-local, and crash/shutdown are
    /// *process* events in this backend (you kill a node, not a site).
    fn route(&mut self, now: Instant, to: SiteId, envelope: Envelope) -> Option<Envelope> {
        if self.hosted.contains(&to) {
            return Some(envelope);
        }
        let msg = match envelope {
            Envelope::Protocol(m) => WireMsg::Protocol(m),
            Envelope::ProtocolBatch(ms) => WireMsg::ProtocolBatch(ms),
            Envelope::Apply { txn, key, value } => WireMsg::Apply { to, txn, key, value },
            Envelope::SetIntent { txn, vote } => WireMsg::SetIntent { to, txn, vote },
            Envelope::Commit { .. } | Envelope::Crash { .. } | Envelope::Shutdown => return None,
        };
        self.wire.send(now, to, msg);
        None
    }

    fn begin_turn(&mut self, now: Instant) -> bool {
        self.wire.release_delayed(now)
    }

    fn end_turn(&mut self, now: Instant) {
        self.wire.pump_dials(now);
        self.wire.flush_all(now);
    }

    /// Sleep until a socket is ready or the deadline. All loop
    /// deadlines — engine timers, injected-outage recoveries, redial
    /// backoffs, delayed-frame releases — arrive folded into `timeout`.
    /// The client injector needs no watching: the handle rings the
    /// waker after a send.
    fn wait(&mut self, timeout: Duration, _: &Receiver<Mail>, ready: &mut VecDeque<Mail>) -> bool {
        self.poll_events(poll_ms(timeout), ready);
        true
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.wire.next_deadline()
    }

    /// In this backend a crash is a *process* event: the kernel resets
    /// every TCP connection the process held, so sever them all (buffers
    /// included) and let backed-off redials heal the topology on
    /// recovery.
    fn site_crashed(&mut self, now: Instant) {
        self.wire.sever(now);
        for conn in std::mem::take(&mut self.inbound).into_values() {
            let _ = self.wire.sockets.epoll.delete(conn.stream.as_raw_fd());
        }
    }

    /// Best-effort flush of everything still owed to the network before
    /// shutdown (final acks and decisions), for at most half a second.
    fn drain(&mut self) {
        let until = Instant::now() + Duration::from_millis(500);
        let mut late_arrivals = VecDeque::new();
        loop {
            let now = Instant::now();
            if now >= until {
                break;
            }
            self.begin_turn(now);
            self.end_turn(now);
            if !self.wire.has_pending() {
                break;
            }
            self.poll_events(5, &mut late_arrivals);
        }
    }
}

/// A loop timeout as `epoll_wait` milliseconds: a deadline already due
/// polls without sleeping, a sub-millisecond wait rounds *up* (never
/// wake early and spin), an idle loop looks around every 50 ms.
fn poll_ms(timeout: Duration) -> i32 {
    timeout.as_nanos().div_ceil(1_000_000).min(50) as i32
}

impl Tcp {
    /// One `epoll_wait` plus event dispatch.
    fn poll_events(&mut self, timeout_ms: i32, ready: &mut VecDeque<Mail>) {
        let sockets = &self.wire.sockets;
        if sockets.epoll.wait(&mut self.events, timeout_ms).is_err() {
            return;
        }
        let events = std::mem::take(&mut self.events);
        let now = Instant::now();
        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => self.accept_all(),
                TOKEN_WAKER => self.waker.drain(),
                token if self.wire.sockets.out_tokens.contains_key(&token) => {
                    self.out_event(now, token, ev.events);
                }
                token => self.in_event(token, ready),
            }
        }
        self.events = events;
    }

    /// Accept every pending inbound connection.
    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let sockets = &mut self.wire.sockets;
                    let token = sockets.next_token;
                    sockets.next_token += 1;
                    let interest = EPOLLIN | EPOLLRDHUP;
                    if sockets.epoll.add(stream.as_raw_fd(), interest, token).is_err() {
                        continue;
                    }
                    self.inbound.insert(token, InConn::new(stream));
                    sockets.metrics.inc(&sockets.metrics.accepts);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Readiness on an outbound connection: writable flushes what is
    /// owed; readable on a conn we never expect data from means
    /// EOF/reset.
    fn out_event(&mut self, now: Instant, token: u64, flags: u32) {
        let Wire { out, sockets, .. } = &mut self.wire;
        let Some(conn) = sockets.out_tokens.get(&token).and_then(|to| out.get_mut(to)) else {
            return;
        };
        let mut dead = flags & (EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0;
        if !dead && flags & EPOLLIN != 0 {
            // Peers never write to us: bytes are ignored, EOF is death.
            dead = match conn.stream.as_mut().map(|s| s.read(&mut [0u8; 64])) {
                None | Some(Ok(1..)) => false,
                Some(Ok(0)) => true,
                Some(Err(e)) => {
                    !matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted)
                }
            };
        }
        if dead {
            sockets.lose(now, conn);
        } else if flags & EPOLLOUT != 0 {
            sockets.flush(now, conn);
        }
    }

    /// Readiness on an inbound connection: read bytes, reassemble
    /// frames, put each straight on the ready queue as an envelope. A
    /// decode error (bad magic, bad CRC) drops the whole connection —
    /// unlike the WAL's torn-tail truncation there is no "rest of the
    /// stream" worth salvaging once framing is lost; the peer's bounded
    /// out-buffer redelivers over a fresh connection.
    fn in_event(&mut self, token: u64, ready: &mut VecDeque<Mail>) {
        let Some(conn) = self.inbound.get_mut(&token) else {
            return;
        };
        let metrics = &self.wire.sockets.metrics;
        let buf = &mut self.read_buf;
        let close = 'read: loop {
            match conn.stream.read(buf) {
                Ok(0) => break true,
                Ok(n) => {
                    metrics.add(&metrics.bytes_recv, n as u64);
                    conn.decoder.feed(&buf[..n]);
                    loop {
                        match conn.decoder.next_frame() {
                            Ok(Some((seq, msg))) => {
                                metrics.inc(&metrics.frames_recv);
                                if conn.last_seq.is_some_and(|p| seq <= p) {
                                    metrics.inc(&metrics.seq_regressions);
                                } else {
                                    conn.last_seq = Some(seq);
                                }
                                deliver(&self.hosted, msg, ready);
                            }
                            Ok(None) => break,
                            Err(_) => {
                                metrics.inc(&metrics.decode_errors);
                                break 'read true;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break true,
            }
        };
        if close {
            if let Some(conn) = self.inbound.remove(&token) {
                let _ = self.wire.sockets.epoll.delete(conn.stream.as_raw_fd());
            }
        }
    }
}

/// Turn one wire message into an envelope on the ready queue. Frames
/// for sites this node does not host are dropped (stale routing — e.g.
/// a frame that raced a topology change).
fn deliver(hosted: &BTreeSet<SiteId>, msg: WireMsg, ready: &mut VecDeque<Mail>) {
    let (to, env) = match msg {
        WireMsg::Protocol(m) => (m.to, Envelope::Protocol(m)),
        WireMsg::ProtocolBatch(ms) => {
            let Some(to) = ms.first().map(|m| m.to) else { return };
            (to, Envelope::ProtocolBatch(ms))
        }
        WireMsg::Apply {
            to,
            txn,
            key,
            value,
        } => (to, Envelope::Apply { txn, key, value }),
        WireMsg::SetIntent { to, txn, vote } => (to, Envelope::SetIntent { txn, vote }),
    };
    if hosted.contains(&to) {
        ready.push_back((to, env));
    }
}

// ---------------------------------------------------------------------------
// Spawning and the public handle

/// Map a trace epoch in unix microseconds onto this process's
/// monotonic clock, so `at_us` timestamps from different processes
/// share one time axis (modulo clock skew — loopback-demo scale).
fn t0_from_epoch(epoch_unix_us: Option<u64>) -> Instant {
    let now = Instant::now();
    let Some(epoch) = epoch_unix_us else { return now };
    let unix_now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    let since_epoch = unix_now.saturating_sub(Duration::from_micros(epoch));
    now.checked_sub(since_epoch).unwrap_or(now)
}

/// A running socket node: the same client API as
/// [`crate::reactor::ReactorCluster`] (the verbs are
/// [`ClientHandle`]'s; one for a site hosted elsewhere is routed over
/// the wire), one background thread, real TCP underneath.
pub struct SocketNode {
    client: ClientHandle,
    handle: JoinHandle<NodeReport>,
    local_addr: SocketAddr,
    metrics: Arc<WireMetrics>,
}

deref_to_client!(SocketNode);

impl SocketNode {
    /// The coordinator's site id.
    pub const COORDINATOR: SiteId = COORDINATOR;

    /// Spawn a node with tracing off and a private history.
    pub fn spawn(config: NodeConfig) -> io::Result<SocketNode> {
        Self::spawn_with(config, None, Arc::new(Mutex::new(History::new())))
    }

    /// Spawn with a trace sink (same event vocabulary and formatting as
    /// every other backend) and a caller-owned ACTA history.
    pub fn spawn_with(
        config: NodeConfig,
        sink: Option<Arc<dyn TraceSink>>,
        history: SharedHistory,
    ) -> io::Result<SocketNode> {
        assert!(
            !config.hosted.is_empty(),
            "a node must host at least one site"
        );
        let listener = TcpListener::bind(config.listen)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (waker_node, waker_handle) = Waker::pair()?;
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(waker_node.pipe.as_raw_fd(), EPOLLIN, TOKEN_WAKER)?;
        let t0 = t0_from_epoch(config.epoch_unix_us);
        let metrics = Arc::new(WireMetrics::new());

        let (tx, rx) = unbounded();
        let wake = move || waker_handle.ring();
        let client = ClientHandle::new(vec![tx], Box::new(wake), &config.cluster);
        let env = HostEnv {
            config: config.cluster.into(),
            rx,
            history: Arc::clone(&history),
            inflight: Arc::new(InflightGauge::new()),
            sink,
            t0,
        };
        let tcp = Tcp {
            wire: Wire {
                out: BTreeMap::new(),
                sockets: Sockets {
                    epoll,
                    out_tokens: BTreeMap::new(),
                    next_token: TOKEN_FIRST_CONN,
                    peers: config.peers,
                    metrics: Arc::clone(&metrics),
                    max_queue: config.max_conn_queue_bytes,
                },
                faults: config.faults,
                t0,
                delayed: Vec::new(),
            },
            hosted: config.hosted.iter().copied().collect(),
            listener,
            waker: waker_node,
            inbound: BTreeMap::new(),
            events: Vec::with_capacity(64),
            read_buf: vec![0; 16 * 1024].into_boxed_slice(),
        };
        let kernel = Kernel::build(env, &config.hosted, &config.wal_dir, 0, tcp)?;
        let wire_metrics = Arc::clone(&metrics);
        let handle = std::thread::Builder::new()
            .name("acp-socket-node".into())
            .spawn(move || {
                let (report, _tcp) = kernel.run();
                let history = history.lock().clone();
                NodeReport {
                    cluster: ClusterReport {
                        history,
                        coordinator_table_size: report.coordinator_table_size,
                        sites: report.sites,
                        group_commit: report.group_commit,
                        logical_forces: report.logical_forces,
                        physical_syncs: report.physical_syncs,
                    },
                    stats: report.stats,
                    fsync: report.fsync,
                    wire: wire_metrics.snapshot(),
                }
            })?;
        Ok(SocketNode {
            client,
            handle,
            local_addr,
            metrics,
        })
    }

    /// The address the kernel bound the listener to (rendezvous info
    /// when the config asked for port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A live snapshot of this node's transport counters.
    #[must_use]
    pub fn wire_metrics(&self) -> WireSnapshot {
        self.metrics.snapshot()
    }

    /// Stop the node (after a best-effort outbound drain) and collect
    /// its final state.
    #[must_use]
    pub fn shutdown(self) -> NodeReport {
        self.client.shutdown_all();
        self.handle.join().expect("socket node thread")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_types::TxnId;

    #[test]
    fn poll_ms_never_wakes_early_and_never_sleeps_on_a_due_deadline() {
        let ms = |nanos| poll_ms(Duration::from_nanos(nanos));
        assert_eq!(ms(0), 0, "a due deadline polls, it does not sleep");
        assert_eq!(ms(1), 1, "a sub-millisecond wait rounds up");
        assert_eq!(ms(999_999), 1);
        assert_eq!(ms(1_000_000), 1);
        assert_eq!(ms(1_000_001), 2);
        assert_eq!(ms(49_500_000), 50);
        assert_eq!(poll_ms(Duration::from_secs(60)), 50, "the idle ceiling");
        assert_eq!(poll_ms(Duration::MAX), 50);
    }

    /// Bytes waiting on the node's end of the waker.
    fn waiting(node: &Waker) -> usize {
        let mut buf = [0u8; 512];
        match (&node.pipe).read(&mut buf) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => 0,
            Err(e) => panic!("waker read: {e}"),
        }
    }

    #[test]
    fn a_burst_of_sends_to_a_busy_node_writes_one_waker_byte() {
        let (node, handle) = Waker::pair().expect("socket pair");
        for _ in 0..256 {
            handle.ring();
        }
        assert_eq!(waiting(&node), 1, "256 rings while the node is busy");
        // The node wakes, drains and runs its turn; the next burst
        // costs one byte again.
        handle.ring();
        node.drain();
        assert_eq!(waiting(&node), 0);
        for _ in 0..256 {
            handle.ring();
        }
        assert_eq!(waiting(&node), 1);
    }

    #[test]
    fn an_overflowing_frame_is_taken_back_off_the_buffer() {
        let to = SiteId::new(1);
        let metrics = Arc::new(WireMetrics::new());
        let mut wire = Wire {
            out: BTreeMap::new(),
            sockets: Sockets {
                epoll: Epoll::new().expect("epoll"),
                out_tokens: BTreeMap::new(),
                next_token: TOKEN_FIRST_CONN,
                // Nobody to dial: the connection goes straight to backoff
                // and the buffer only fills.
                peers: AddressBook::Static(BTreeMap::new()),
                metrics: Arc::clone(&metrics),
                max_queue: 256,
            },
            faults: WireFaults::none(),
            t0: Instant::now(),
            delayed: Vec::new(),
        };
        let apply = |i: u64| WireMsg::Apply {
            to,
            txn: TxnId::new(i),
            key: format!("key-{i}").into_bytes(),
            value: vec![0u8; 64],
        };
        let now = Instant::now();
        let mut before = Vec::new();
        let mut sent = 0;
        while metrics.snapshot().backpressure_drops == 0 {
            before = wire.out.get(&to).map_or(Vec::new(), |c| c.buf.clone());
            wire.send(now, to, apply(sent));
            sent += 1;
        }
        let conn = &wire.out[&to];
        assert_eq!(conn.buf, before, "the shed frame left no byte behind");
        let frame = super::super::frame::encode_wire_frame(0, &apply(0)).len();
        assert!(conn.buf.len() <= 256 && conn.buf.len() + frame > 256);
        assert_eq!(conn.next_seq, sent, "a shed frame still took its number");
        assert_eq!(metrics.snapshot().frames_sent, sent - 1);
        // The buffer is still a run of whole frames, so later ones fit
        // behind it once it drains.
        assert_eq!(
            super::super::frame::frame_boundary(&conn.buf, conn.buf.len()),
            conn.buf.len()
        );
    }
}
