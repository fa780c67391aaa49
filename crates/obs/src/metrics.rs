//! Lock-free per-protocol cost metrics.
//!
//! A [`MetricsRegistry`] is a fixed 2-D grid of [`AtomicU64`] counters
//! indexed by ([`ProtoLabel`], [`Counter`]). Recording an event is a
//! handful of relaxed atomic adds — no locks, no allocation — so the
//! registry can be shared by every thread of a campaign (`Arc` it into
//! a [`CountingSink`](crate::sink::CountingSink)) and the totals are
//! identical regardless of scheduling, because addition commutes.
//!
//! The counter set *subsumes* `acp-types`' per-transaction
//! [`CostCounters`]: [`MetricsRegistry::cost_counters`] projects a
//! protocol's row onto that legacy shape, and extends it with received
//! messages, votes/decisions as protocol events, GC activity and GC
//! latency in sim-time — the quantities the paper's operational-
//! correctness argument (Definition 1, Theorem 2) is about.

use crate::event::{ProtoLabel, ProtocolEvent};
use acp_types::CostCounters;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// One metric dimension of the registry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Counter {
    /// Forced (synchronous) log writes.
    ForcedWrites,
    /// Non-forced (lazy) log writes.
    LazyWrites,
    /// Messages handed to the network.
    MsgsSent,
    /// Messages delivered.
    MsgsRecv,
    /// `prepare` messages sent.
    Prepares,
    /// `vote` messages sent.
    Votes,
    /// `decision` messages sent.
    Decisions,
    /// `ack` messages sent.
    Acks,
    /// Recovery `inquiry` messages sent.
    Inquiries,
    /// `inquiry-response` messages sent.
    Responses,
    /// Votes fixed by participants (protocol events, not messages).
    VotesCast,
    /// Decisions reached by coordinators.
    DecisionsReached,
    /// Garbage-collection runs that reclaimed at least one record.
    GcRuns,
    /// Log records reclaimed by GC.
    GcRecordsReleased,
    /// Sum of decision-to-GC latencies (microseconds of sim-time).
    GcLatencyUsSum,
    /// Number of GC runs with a known decision-to-GC latency.
    GcLatencySamples,
    /// Inquiry retries scheduled with backoff (attempt ≥ 1).
    InquiryRetries,
    /// Decision re-sends scheduled with backoff (attempt ≥ 1).
    DecisionResends,
    /// Observed site crashes.
    Crashes,
    /// Observed site recoveries.
    Recoveries,
    /// Group-commit batches with occupancy ≥ 2: forced writes that a
    /// single physical force served for several transactions at once.
    BatchedForces,
    /// Total occupancy of those batches (forced appends amortized into
    /// shared forces). `BatchOccupancy / BatchedForces` is the mean
    /// multi-transaction batch size.
    BatchOccupancy,
    /// Nothing writes this counter any more: it always reads 0. It
    /// stays only because the frozen counter goldens under `results/`
    /// print its column; the next PR that regenerates them deletes it.
    TablePeakShardOccupancy,
    /// Transactions refused at the door by the admission controller
    /// (bounded in-flight / mailbox-depth shedding) before any
    /// protocol work. A counted rejection, never a silent drop: the
    /// overload campaign's evidence that load past the knee was shed,
    /// not queued.
    AdmissionShed,
    /// Outbound wire frames the socket backend shed because a peer's
    /// bounded write queue overflowed (transport backpressure). Fed
    /// from [`crate::wire::WireSnapshot::backpressure_drops`] with
    /// [`MetricsRegistry::set_max`] at snapshot points, so the grid
    /// surfaces transport overload next to protocol-level shedding.
    BackpressureDrops,
}

impl Counter {
    /// All counters, in JSON-dump order.
    pub const ALL: [Counter; 25] = [
        Counter::ForcedWrites,
        Counter::LazyWrites,
        Counter::MsgsSent,
        Counter::MsgsRecv,
        Counter::Prepares,
        Counter::Votes,
        Counter::Decisions,
        Counter::Acks,
        Counter::Inquiries,
        Counter::Responses,
        Counter::VotesCast,
        Counter::DecisionsReached,
        Counter::GcRuns,
        Counter::GcRecordsReleased,
        Counter::GcLatencyUsSum,
        Counter::GcLatencySamples,
        Counter::InquiryRetries,
        Counter::DecisionResends,
        Counter::Crashes,
        Counter::Recoveries,
        Counter::BatchedForces,
        Counter::BatchOccupancy,
        Counter::TablePeakShardOccupancy,
        Counter::AdmissionShed,
        Counter::BackpressureDrops,
    ];

    /// Stable snake_case name (JSON key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::ForcedWrites => "forced_writes",
            Counter::LazyWrites => "lazy_writes",
            Counter::MsgsSent => "msgs_sent",
            Counter::MsgsRecv => "msgs_recv",
            Counter::Prepares => "prepares",
            Counter::Votes => "votes",
            Counter::Decisions => "decisions",
            Counter::Acks => "acks",
            Counter::Inquiries => "inquiries",
            Counter::Responses => "responses",
            Counter::VotesCast => "votes_cast",
            Counter::DecisionsReached => "decisions_reached",
            Counter::GcRuns => "gc_runs",
            Counter::GcRecordsReleased => "gc_records_released",
            Counter::GcLatencyUsSum => "gc_latency_us_sum",
            Counter::GcLatencySamples => "gc_latency_samples",
            Counter::InquiryRetries => "inquiry_retries",
            Counter::DecisionResends => "decision_resends",
            Counter::Crashes => "crashes",
            Counter::Recoveries => "recoveries",
            Counter::BatchedForces => "batched_forces",
            Counter::BatchOccupancy => "batch_occupancy",
            Counter::TablePeakShardOccupancy => "table_peak_shard_occupancy",
            Counter::AdmissionShed => "admission_shed",
            Counter::BackpressureDrops => "backpressure_drops",
        }
    }

    fn index(self) -> usize {
        Counter::ALL
            .iter()
            .position(|c| *c == self)
            .expect("counter in ALL")
    }
}

const N_PROTOS: usize = ProtoLabel::ALL.len();
const N_COUNTERS: usize = Counter::ALL.len();

/// The lock-free registry: one atomic cell per (protocol, counter).
#[derive(Debug)]
pub struct MetricsRegistry {
    cells: [[AtomicU64; N_COUNTERS]; N_PROTOS],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A zeroed registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry {
            cells: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }

    /// Add `n` to one counter.
    pub fn add(&self, proto: ProtoLabel, counter: Counter, n: u64) {
        self.cells[proto.index()][counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Read one counter.
    #[must_use]
    pub fn get(&self, proto: ProtoLabel, counter: Counter) -> u64 {
        self.cells[proto.index()][counter.index()].load(Ordering::Relaxed)
    }

    /// Raise one counter to at least `v` (atomic `fetch_max`). For
    /// high-water-mark counters like [`Counter::BackpressureDrops`],
    /// where the registry cell records the largest value ever observed
    /// rather than a sum.
    pub fn set_max(&self, proto: ProtoLabel, counter: Counter, v: u64) {
        self.cells[proto.index()][counter.index()].fetch_max(v, Ordering::Relaxed);
    }

    /// Absorb one event into the grid.
    pub fn record(&self, ev: &ProtocolEvent) {
        let p = ev.proto();
        match ev {
            ProtocolEvent::ForceWrite { .. } => self.add(p, Counter::ForcedWrites, 1),
            ProtocolEvent::NonForcedWrite { .. } => self.add(p, Counter::LazyWrites, 1),
            ProtocolEvent::MsgSend { kind, .. } => {
                self.add(p, Counter::MsgsSent, 1);
                if let Some(c) = kind_counter(kind) {
                    self.add(p, c, 1);
                }
            }
            ProtocolEvent::MsgRecv { .. } => self.add(p, Counter::MsgsRecv, 1),
            ProtocolEvent::VoteCast { .. } => self.add(p, Counter::VotesCast, 1),
            ProtocolEvent::DecisionReached { .. } => self.add(p, Counter::DecisionsReached, 1),
            ProtocolEvent::LogGc {
                records_released,
                since_decision_us,
                ..
            } => {
                self.add(p, Counter::GcRuns, 1);
                self.add(p, Counter::GcRecordsReleased, *records_released);
                if let Some(lat) = since_decision_us {
                    self.add(p, Counter::GcLatencyUsSum, *lat);
                    self.add(p, Counter::GcLatencySamples, 1);
                }
            }
            ProtocolEvent::RetryScheduled { purpose, .. } => match *purpose {
                "inquiry-retry" => self.add(p, Counter::InquiryRetries, 1),
                "ack-resend" => self.add(p, Counter::DecisionResends, 1),
                // Other purposes (e.g. a gateway apply retry) are not
                // separately bucketed.
                _ => {}
            },
            ProtocolEvent::BatchCommit { occupancy, .. } => {
                self.add(p, Counter::BatchedForces, 1);
                self.add(p, Counter::BatchOccupancy, *occupancy);
            }
            ProtocolEvent::AdmissionShed { .. } => self.add(p, Counter::AdmissionShed, 1),
            ProtocolEvent::CrashObserved { .. } => self.add(p, Counter::Crashes, 1),
            ProtocolEvent::RecoveryStep { .. } => self.add(p, Counter::Recoveries, 1),
        }
    }

    /// Project one protocol's row onto the legacy per-transaction
    /// counter shape of `acp-types` (the subsumption guarantee: every
    /// quantity `CostCounters` tracks is recoverable from the registry).
    #[must_use]
    pub fn cost_counters(&self, proto: ProtoLabel) -> CostCounters {
        let g = |c| self.get(proto, c);
        CostCounters {
            forced_writes: g(Counter::ForcedWrites),
            log_records: g(Counter::ForcedWrites) + g(Counter::LazyWrites),
            prepares: g(Counter::Prepares),
            votes: g(Counter::Votes),
            decisions: g(Counter::Decisions),
            acks: g(Counter::Acks),
            inquiries: g(Counter::Inquiries),
            responses: g(Counter::Responses),
            // The registry's counter grid predates Paxos Commit and its
            // goldens pin the exact counter set; Paxos message tallies
            // live in the engines' own `CostCounters`, not here.
            paxos: 0,
        }
    }

    /// Is every counter of this protocol's row zero?
    #[must_use]
    pub fn is_zero(&self, proto: ProtoLabel) -> bool {
        Counter::ALL.iter().all(|&c| self.get(proto, c) == 0)
    }

    /// Render the registry as a pretty-printed JSON object:
    ///
    /// ```json
    /// {
    ///   "experiment": "E5",
    ///   "protocols": {
    ///     "PrAny": { "forced_writes": 3, ... }
    ///   }
    /// }
    /// ```
    ///
    /// All-zero protocol rows are omitted; key order is fixed, so two
    /// registries with equal counts render byte-identically.
    #[must_use]
    pub fn to_json(&self, experiment: &str) -> String {
        format!(
            "{{\n  \"experiment\": \"{}\",\n  \"protocols\": {}\n}}\n",
            crate::json::escape(experiment),
            self.protocols_json(1)
        )
    }

    /// Render just the per-protocol counter object (the `"protocols"`
    /// value of [`MetricsRegistry::to_json`]), indented as if nested
    /// `depth` levels deep (2 spaces per level). Experiment binaries use
    /// this to embed several registries in one JSON document.
    #[must_use]
    pub fn protocols_json(&self, depth: usize) -> String {
        let pad = "  ".repeat(depth);
        let mut s = String::from("{");
        let mut first = true;
        for &p in &ProtoLabel::ALL {
            if self.is_zero(p) {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "\n{pad}  \"{}\": {{", p.name());
            for (i, &c) in Counter::ALL.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(s, "{sep}\n{pad}    \"{}\": {}", c.name(), self.get(p, c));
            }
            let _ = write!(s, "\n{pad}  }}");
        }
        let _ = write!(s, "\n{pad}}}");
        s
    }
}

/// A point-in-time copy of the registry's full counter grid, stamped
/// with the host's clock. Snapshots are plain values: compare them,
/// subtract them, or render curves from a sequence of them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Host time (microseconds since run start) the snapshot was taken.
    pub at_us: u64,
    counts: [[u64; N_COUNTERS]; N_PROTOS],
}

impl MetricsSnapshot {
    /// Read one cell.
    #[must_use]
    pub fn get(&self, proto: ProtoLabel, counter: Counter) -> u64 {
        self.counts[proto.index()][counter.index()]
    }

    /// Sum one counter across every protocol row.
    #[must_use]
    pub fn total(&self, counter: Counter) -> u64 {
        ProtoLabel::ALL.iter().map(|&p| self.get(p, counter)).sum()
    }
}

impl MetricsRegistry {
    /// Copy the whole grid at the host's current clock. One relaxed
    /// load per cell — cheap enough to call every few reactor ticks.
    /// Counters are monotone, so a snapshot taken while other threads
    /// record is a consistent *lower bound* per cell; under the
    /// single-threaded reactor it is exact.
    #[must_use]
    pub fn snapshot(&self, at_us: u64) -> MetricsSnapshot {
        let mut counts = [[0u64; N_COUNTERS]; N_PROTOS];
        for (pi, row) in counts.iter_mut().enumerate() {
            for (ci, cell) in row.iter_mut().enumerate() {
                *cell = self.cells[pi][ci].load(Ordering::Relaxed);
            }
        }
        MetricsSnapshot { at_us, counts }
    }
}

fn kind_counter(kind: &str) -> Option<Counter> {
    match kind {
        "prepare" => Some(Counter::Prepares),
        "vote" => Some(Counter::Votes),
        "decision" => Some(Counter::Decisions),
        "ack" => Some(Counter::Acks),
        "inquiry" => Some(Counter::Inquiries),
        "inquiry-response" => Some(Counter::Responses),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn force(site: u32, proto: ProtoLabel) -> ProtocolEvent {
        ProtocolEvent::ForceWrite {
            at_us: 0,
            site,
            proto,
            record: "commit",
            txn: Some(1),
        }
    }

    #[test]
    fn records_are_bucketed_by_protocol() {
        let r = MetricsRegistry::new();
        r.record(&force(0, ProtoLabel::PrAny));
        r.record(&force(1, ProtoLabel::PrA));
        r.record(&force(1, ProtoLabel::PrA));
        assert_eq!(r.get(ProtoLabel::PrAny, Counter::ForcedWrites), 1);
        assert_eq!(r.get(ProtoLabel::PrA, Counter::ForcedWrites), 2);
        assert_eq!(r.get(ProtoLabel::PrC, Counter::ForcedWrites), 0);
    }

    #[test]
    fn message_kinds_feed_the_cost_projection() {
        let r = MetricsRegistry::new();
        for kind in [
            "prepare",
            "vote",
            "decision",
            "ack",
            "inquiry",
            "inquiry-response",
        ] {
            r.record(&ProtocolEvent::MsgSend {
                at_us: 0,
                site: 0,
                proto: ProtoLabel::PrN,
                to: 1,
                kind,
                txn: None,
            });
        }
        let c = r.cost_counters(ProtoLabel::PrN);
        assert_eq!(c.messages(), 6);
        assert_eq!(c.prepares, 1);
        assert_eq!(c.responses, 1);
        assert_eq!(r.get(ProtoLabel::PrN, Counter::MsgsSent), 6);
    }

    #[test]
    fn gc_latency_accumulates() {
        let r = MetricsRegistry::new();
        r.record(&ProtocolEvent::LogGc {
            at_us: 10,
            site: 0,
            proto: ProtoLabel::PrAny,
            released_up_to: 4,
            records_released: 4,
            since_decision_us: Some(700),
        });
        r.record(&ProtocolEvent::LogGc {
            at_us: 20,
            site: 0,
            proto: ProtoLabel::PrAny,
            released_up_to: 8,
            records_released: 2,
            since_decision_us: None,
        });
        assert_eq!(r.get(ProtoLabel::PrAny, Counter::GcRuns), 2);
        assert_eq!(r.get(ProtoLabel::PrAny, Counter::GcRecordsReleased), 6);
        assert_eq!(r.get(ProtoLabel::PrAny, Counter::GcLatencyUsSum), 700);
        assert_eq!(r.get(ProtoLabel::PrAny, Counter::GcLatencySamples), 1);
    }

    #[test]
    fn retries_are_bucketed_by_purpose() {
        let r = MetricsRegistry::new();
        for (purpose, attempt) in [
            ("inquiry-retry", 1),
            ("inquiry-retry", 2),
            ("ack-resend", 1),
        ] {
            r.record(&ProtocolEvent::RetryScheduled {
                at_us: 0,
                site: 1,
                proto: ProtoLabel::PrC,
                purpose,
                attempt,
                txn: None,
            });
        }
        assert_eq!(r.get(ProtoLabel::PrC, Counter::InquiryRetries), 2);
        assert_eq!(r.get(ProtoLabel::PrC, Counter::DecisionResends), 1);
        // Unbucketed purposes count nowhere.
        r.record(&ProtocolEvent::RetryScheduled {
            at_us: 0,
            site: 1,
            proto: ProtoLabel::Gateway,
            purpose: "apply-retry",
            attempt: 1,
            txn: None,
        });
        assert!(r.is_zero(ProtoLabel::Gateway));
    }

    #[test]
    fn batch_commits_feed_both_amortization_counters() {
        let r = MetricsRegistry::new();
        r.record(&ProtocolEvent::BatchCommit {
            at_us: 10,
            site: 0,
            proto: ProtoLabel::PrAny,
            occupancy: 4,
        });
        r.record(&ProtocolEvent::BatchCommit {
            at_us: 20,
            site: 0,
            proto: ProtoLabel::PrAny,
            occupancy: 2,
        });
        assert_eq!(r.get(ProtoLabel::PrAny, Counter::BatchedForces), 2);
        assert_eq!(r.get(ProtoLabel::PrAny, Counter::BatchOccupancy), 6);
    }

    #[test]
    fn snapshots_capture_the_grid_and_totals() {
        let r = MetricsRegistry::new();
        r.record(&force(0, ProtoLabel::PrAny));
        let s1 = r.snapshot(100);
        r.record(&force(1, ProtoLabel::PrA));
        r.record(&force(1, ProtoLabel::PrA));
        let s2 = r.snapshot(200);
        assert_eq!(s1.get(ProtoLabel::PrAny, Counter::ForcedWrites), 1);
        assert_eq!(s1.total(Counter::ForcedWrites), 1);
        assert_eq!(s2.get(ProtoLabel::PrA, Counter::ForcedWrites), 2);
        assert_eq!(s2.total(Counter::ForcedWrites), 3);
        assert_eq!(s1.at_us, 100);
    }

    #[test]
    fn set_max_is_a_high_water_mark() {
        let r = MetricsRegistry::new();
        let c = Counter::BackpressureDrops;
        r.set_max(ProtoLabel::PrAny, c, 3);
        r.set_max(ProtoLabel::PrAny, c, 7);
        r.set_max(ProtoLabel::PrAny, c, 5); // lower sample does not regress the peak
        assert_eq!(r.get(ProtoLabel::PrAny, c), 7);
    }

    #[test]
    fn json_omits_zero_rows_and_is_deterministic() {
        let r = MetricsRegistry::new();
        r.record(&force(0, ProtoLabel::PrC));
        let a = r.to_json("unit");
        let b = r.to_json("unit");
        assert_eq!(a, b);
        assert!(a.contains("\"PrC\""));
        assert!(!a.contains("\"PrA\""));
        assert!(a.contains("\"forced_writes\": 1"));
    }
}
