//! The traced run's sink and span builder.
//!
//! Spans are recorded from the benchmark's own side of each layer
//! boundary: the driver's stamps around staging, submit and reply, and
//! a [`TraceSink`] that stamps every `ProtocolEvent` the runtime emits
//! as it arrives, on the driver's clock. Everything stays in memory
//! until the run ends. Spans inside the program are a later change.

use crate::epoch::{Ending, Epoch, Submitted};
use crate::json;
use acp_obs::{Counter, CountingSink, MetricsRegistry, ProtocolEvent, TraceSink};
use acp_types::Outcome;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counts every event (the repository's `CountingSink`) and keeps it
/// with its arrival time.
pub struct Recorder {
    counting: CountingSink,
    events: Mutex<Vec<(Instant, ProtocolEvent)>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            counting: CountingSink::new(Arc::new(MetricsRegistry::new())),
            events: Mutex::new(Vec::new()),
        }
    }

    fn take(&self) -> Vec<(Instant, ProtocolEvent)> {
        std::mem::take(&mut *self.events.lock().expect("recorder mutex poisoned"))
    }
}

impl TraceSink for Recorder {
    fn record(&self, ev: &ProtocolEvent) {
        let at = Instant::now();
        self.counting.record(ev);
        if let Ok(mut events) = self.events.lock() {
            events.push((at, ev.clone()));
        }
    }
}

/// The phases a commit is cut into, in order, each with the per-layer
/// metric that reports its median. The first `CLIENT_WAIT` partition
/// the client's wait, from the instant latency is timed from to the
/// reply; `ack` and `forget` follow the reply.
pub const PHASES: [(&str, &str); 9] = [
    ("late", "phase.late_us"),
    ("stage", "phase.stage_us"),
    ("queue", "phase.queue_us"),
    ("prepare", "phase.prepare_us"),
    ("vote", "phase.vote_us"),
    ("decide", "phase.decide_us"),
    ("reply", "phase.reply_us"),
    ("ack", "phase.ack_us"),
    ("forget", "phase.forget_us"),
];

/// How many of `PHASES` lie between the client's start and its reply.
pub const CLIENT_WAIT: usize = 7;

/// One span: times in nanoseconds since the epoch began.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub txn: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Duration minus the part of the interval child spans cover.
    pub self_ns: u64,
}

/// What one traced epoch yields.
#[derive(Default)]
pub struct Traced {
    /// Per committed transaction with every cut present: the duration
    /// of each phase, and the root's self time as a share of the root.
    pub phase_ns: [Vec<u64>; PHASES.len()],
    pub unattributed_share: Vec<f64>,
    /// Transactions whose events did not give every cut (aborted, or
    /// overlapped by a crash).
    pub incomplete: usize,
    pub events: usize,
    pub forced_writes: u64,
    pub messages: u64,
    pub inquiries: u64,
    pub spans: Vec<Span>,
}

#[derive(Default, Clone, Copy)]
struct Cuts {
    first_at_coordinator: Option<Instant>,
    prepares_sent: Option<Instant>,
    votes_cast: Option<Instant>,
    decided: Option<Instant>,
    acks_sent: Option<Instant>,
    end_written: Option<Instant>,
}

fn covered(root: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut total, mut upto) = (0, root.0);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(upto), e.min(root.1));
        if e > s {
            total += e - s;
            upto = e;
        }
    }
    total
}

/// Cut the recorder's events into spans for the epoch's measured
/// transactions, keeping the spans of at most `keep` transactions.
pub fn build(epoch: &Epoch, recorder: &Recorder, keep: usize, next_id: &mut u64) -> Traced {
    let events = recorder.take();
    let registry = recorder.counting.registry();
    let total = |c| {
        acp_obs::ProtoLabel::ALL
            .iter()
            .map(|&p| registry.get(p, c))
            .sum::<u64>()
    };
    let mut out = Traced {
        events: events.len(),
        forced_writes: total(Counter::ForcedWrites),
        messages: total(Counter::MsgsSent),
        inquiries: total(Counter::Inquiries),
        ..Traced::default()
    };

    let mut cuts: HashMap<u64, Cuts> = HashMap::with_capacity(epoch.measured.len());
    let mut collections: Vec<Instant> = Vec::new();
    for (at, ev) in &events {
        let (txn, at) = match ev {
            ProtocolEvent::LogGc { site: 0, .. } => {
                collections.push(*at);
                continue;
            }
            ProtocolEvent::ForceWrite { txn: Some(t), .. }
            | ProtocolEvent::NonForcedWrite { txn: Some(t), .. }
            | ProtocolEvent::MsgSend { txn: Some(t), .. }
            | ProtocolEvent::MsgRecv { txn: Some(t), .. }
            | ProtocolEvent::VoteCast { txn: Some(t), .. }
            | ProtocolEvent::DecisionReached { txn: Some(t), .. } => (*t, *at),
            _ => continue,
        };
        let c = cuts.entry(txn).or_default();
        if ev.site() == 0 && c.first_at_coordinator.is_none() {
            c.first_at_coordinator = Some(at);
        }
        match ev {
            ProtocolEvent::MsgSend {
                kind: "prepare", ..
            } => c.prepares_sent = Some(at),
            ProtocolEvent::VoteCast { .. } => c.votes_cast = Some(at),
            ProtocolEvent::DecisionReached { .. } if c.decided.is_none() => c.decided = Some(at),
            ProtocolEvent::MsgSend { kind: "ack", .. } => c.acks_sent = Some(at),
            ProtocolEvent::NonForcedWrite {
                record: "end",
                site: 0,
                ..
            } => c.end_written = Some(at),
            _ => {}
        }
    }

    let ns = |t: Instant| t.saturating_duration_since(epoch.origin).as_nanos() as u64;
    for s in &epoch.measured {
        if s.ending != Ending::Decided(Outcome::Commit) {
            out.incomplete += 1;
            continue;
        }
        let Some(bounds) = phase_bounds(s, cuts.get(&s.txn.raw()), &collections) else {
            out.incomplete += 1;
            continue;
        };
        let root = (ns(s.start), ns(s.done_at));
        let mut children: Vec<(u64, u64)> = bounds.iter().map(|&(a, b)| (ns(a), ns(b))).collect();
        for (i, &(a, b)) in children.iter().enumerate() {
            out.phase_ns[i].push(b.saturating_sub(a));
        }
        let spans = children.clone();
        let root_self = (root.1 - root.0).saturating_sub(covered(root, &mut children));
        out.unattributed_share
            .push(root_self as f64 / (root.1 - root.0).max(1) as f64);
        if out.spans.len() / (PHASES.len() + 1) < keep {
            let root_id = *next_id;
            let mut push = |name, parent, (start, end): (u64, u64), self_ns| {
                out.spans.push(Span {
                    id: *next_id,
                    parent,
                    txn: s.txn.raw(),
                    name,
                    start,
                    end,
                    self_ns,
                });
                *next_id += 1;
            };
            push("txn", None, root, root_self);
            for (&(name, _), span) in PHASES.iter().zip(spans) {
                push(name, Some(root_id), span, span.1.saturating_sub(span.0));
            }
        }
    }
    out
}

/// The phase intervals of one committed transaction, or `None` when a
/// cut is missing or out of order.
fn phase_bounds(
    s: &Submitted,
    cuts: Option<&Cuts>,
    collections: &[Instant],
) -> Option<[(Instant, Instant); PHASES.len()]> {
    let c = cuts?;
    let begun = c.first_at_coordinator?;
    let prepared = c.prepares_sent?;
    let voted = c.votes_cast?;
    let decided = c.decided?;
    let acked = c.acks_sent?;
    let ended = c.end_written?;
    // Forgotten: the coordinator's first log collection after it wrote
    // the end record (the end record itself if the run stopped first).
    let i = collections.partition_point(|&g| g < ended);
    let forgotten = collections.get(i).copied().unwrap_or(ended);
    let ordered = s.submitted_at <= begun
        && begun <= prepared
        && prepared <= voted
        && voted <= decided
        && decided <= s.done_at;
    // The driver's side: how late the generator was (nothing, in a
    // closed loop), its `apply` calls, then the hop through the client
    // channel and the reactor's wake-up.
    let staged = s.staged_at.max(s.start);
    ordered.then_some([
        (s.start, staged),
        (staged, s.submitted_at.max(staged)),
        (s.submitted_at.max(staged), begun),
        (begun, prepared),
        (prepared, voted),
        (voted, decided),
        (decided, s.done_at),
        (decided, acked.max(decided)),
        (acked.max(decided), forgotten.max(acked)),
    ])
}

/// Write the spans as one JSON document.
pub fn write(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    traced_txns: usize,
    spans: &[Span],
) -> Result<(), String> {
    let mut out = String::with_capacity(spans.len() * 120 + 256);
    let _ = write!(
        out,
        "{{\"workload\":{},\"seed\":{seed},\"time_unit\":\"ns since the epoch began\",\"transactions_traced\":{traced_txns},\"transactions_written\":{},\"spans\":[",
        json::quote(workload),
        spans.iter().filter(|s| s.parent.is_none()).count(),
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"id\":{},\"parent\":{parent},\"txn\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"self\":{}}}",
            s.id, s.txn, s.name, s.start, s.end, s.self_ns
        );
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}
