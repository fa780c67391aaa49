//! Cost counters for commit processing.
//!
//! §1 motivates the whole protocol-variant zoo with "commit processing
//! consumes a substantial amount of a transaction's execution time".
//! The costs that matter are forced log writes (synchronous stable-
//! storage latency), total log records (log volume / GC pressure) and
//! coordination messages. The scenario harness (`acp-core::harness`)
//! fills these counters by observing a run, not by asking the engines:
//! each message the network was handed is charged to its sender, each
//! `LogWrite` event in the history to its writer, and every site's log
//! must agree on its appends and forces. The analytic cost model in
//! `acp-core::cost` is checked against those measured executions
//! (experiment E8).

use std::fmt;
use std::ops::{Add, AddAssign};

/// Tallies of the cost-relevant actions taken during commit processing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CostCounters {
    /// Forced (synchronous) log writes.
    pub forced_writes: u64,
    /// All log records written, forced and non-forced.
    pub log_records: u64,
    /// Coordination messages sent, by kind.
    pub prepares: u64,
    /// Vote messages sent.
    pub votes: u64,
    /// Decision messages sent.
    pub decisions: u64,
    /// Acknowledgment messages sent.
    pub acks: u64,
    /// Recovery inquiries sent.
    pub inquiries: u64,
    /// Recovery inquiry responses sent.
    pub responses: u64,
    /// Paxos Commit consensus messages sent (begin/phase1a/phase1b/
    /// phase2a/phase2b/forget) — zero for the classic 2PC protocols.
    pub paxos: u64,
}

impl CostCounters {
    /// A zeroed counter set.
    #[must_use]
    pub fn zero() -> Self {
        Self::default()
    }

    /// Total messages of all kinds.
    #[must_use]
    pub fn messages(&self) -> u64 {
        self.prepares
            + self.votes
            + self.decisions
            + self.acks
            + self.inquiries
            + self.responses
            + self.paxos
    }

    /// Non-forced log records.
    #[must_use]
    pub fn lazy_writes(&self) -> u64 {
        self.log_records - self.forced_writes
    }

    /// Record a log write.
    pub fn count_log_write(&mut self, forced: bool) {
        self.log_records += 1;
        if forced {
            self.forced_writes += 1;
        }
    }

    /// Record a message send, classified by the payload kind tag (as
    /// produced by `Payload::kind_name`).
    pub fn count_message_kind(&mut self, kind: &str) {
        match kind {
            "prepare" => self.prepares += 1,
            "vote" => self.votes += 1,
            "decision" => self.decisions += 1,
            "ack" => self.acks += 1,
            "inquiry" => self.inquiries += 1,
            "inquiry-response" => self.responses += 1,
            "paxos-begin" | "phase1a" | "phase1b" | "phase2a" | "phase2b" | "paxos-forget" => {
                self.paxos += 1;
            }
            other => panic!("unknown message kind {other:?}"),
        }
    }
}

impl Add for CostCounters {
    type Output = CostCounters;

    fn add(mut self, rhs: CostCounters) -> CostCounters {
        self += rhs;
        self
    }
}

impl AddAssign for CostCounters {
    fn add_assign(&mut self, rhs: CostCounters) {
        self.forced_writes += rhs.forced_writes;
        self.log_records += rhs.log_records;
        self.prepares += rhs.prepares;
        self.votes += rhs.votes;
        self.decisions += rhs.decisions;
        self.acks += rhs.acks;
        self.inquiries += rhs.inquiries;
        self.responses += rhs.responses;
        self.paxos += rhs.paxos;
    }
}

impl fmt::Display for CostCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "forces={} records={} msgs={} (prep={} vote={} dec={} ack={} inq={} resp={} paxos={})",
            self.forced_writes,
            self.log_records,
            self.messages(),
            self.prepares,
            self.votes,
            self.decisions,
            self.acks,
            self.inquiries,
            self.responses,
            self.paxos,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_totals() {
        let mut c = CostCounters::zero();
        c.count_log_write(true);
        c.count_log_write(false);
        c.count_log_write(false);
        assert_eq!(c.forced_writes, 1);
        assert_eq!(c.log_records, 3);
        assert_eq!(c.lazy_writes(), 2);

        for k in [
            "prepare",
            "vote",
            "decision",
            "ack",
            "inquiry",
            "inquiry-response",
        ] {
            c.count_message_kind(k);
        }
        assert_eq!(c.messages(), 6);
    }

    #[test]
    fn addition_is_componentwise() {
        let mut a = CostCounters::zero();
        a.count_log_write(true);
        a.count_message_kind("prepare");
        let mut b = CostCounters::zero();
        b.count_log_write(false);
        b.count_message_kind("ack");

        let s = a + b;
        assert_eq!(s.forced_writes, 1);
        assert_eq!(s.log_records, 2);
        assert_eq!(s.prepares, 1);
        assert_eq!(s.acks, 1);
        assert_eq!(s.messages(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown message kind")]
    fn unknown_message_kind_panics() {
        CostCounters::zero().count_message_kind("telepathy");
    }
}
