//! What a hosted site is made of besides its engines, whichever
//! transport carries its messages: the real-time timer schedule
//! ([`NetDelays`]), the protocol-log and history types, the trace
//! emission points every host funds its event stream through, and the
//! glue between a participant's protocol engine and its storage engine.

use acp_acta::{ActaEvent, History};
use acp_core::TimerPurpose;
use acp_engine::{RecoveredOutcome, SiteEngine};
use acp_obs::{ProtoLabel, ProtocolEvent, TraceSink};
use acp_types::{Message, Outcome, Payload, SiteId, TxnId, Vote};
use acp_wal::scan::analyze_log;
use acp_wal::{FileLog, GroupCommitLog};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timer delays of a real-time cluster (wall-clock durations).
#[derive(Clone, Copy, Debug)]
pub struct NetDelays {
    /// Coordinator vote-collection timeout.
    pub vote_timeout: Duration,
    /// Decision re-send interval.
    pub ack_resend: Duration,
    /// In-doubt inquiry interval.
    pub inquiry_retry: Duration,
    /// Gateway legacy-apply retry interval.
    pub apply_retry: Duration,
    /// Paxos acceptor completion watchdog (leader-failover trigger).
    pub paxos_completion: Duration,
}

impl Default for NetDelays {
    fn default() -> Self {
        NetDelays {
            vote_timeout: Duration::from_millis(400),
            ack_resend: Duration::from_millis(100),
            inquiry_retry: Duration::from_millis(120),
            apply_retry: Duration::from_millis(100),
            paxos_completion: Duration::from_millis(300),
        }
    }
}

/// Doublings beyond which the backoff stops growing (mirrors the
/// simulator harness; `MAX_BACKOFF` caps the result long before this).
const BACKOFF_SHIFT_CAP: u32 = 16;

/// Upper bound on any backed-off delay.
const MAX_BACKOFF: Duration = Duration::from_secs(5);

impl NetDelays {
    /// The real-time delay for a timer purpose at a given retry
    /// attempt: bounded exponential backoff,
    /// `min(base << attempt, 5 s)`, never below the base interval.
    /// The kernel arms every timer through this, so backoff behaviour
    /// is backend-independent.
    #[must_use]
    pub fn delay(&self, p: TimerPurpose, attempt: u32) -> Duration {
        let base = match p {
            TimerPurpose::VoteTimeout => self.vote_timeout,
            TimerPurpose::AckResend => self.ack_resend,
            TimerPurpose::InquiryRetry => self.inquiry_retry,
            TimerPurpose::ApplyRetry => self.apply_retry,
            TimerPurpose::PaxosCompletion => self.paxos_completion,
        };
        // Bounded exponential backoff: min(base << attempt, MAX_BACKOFF).
        base.saturating_mul(1u32 << attempt.min(BACKOFF_SHIFT_CAP).min(31))
            .min(MAX_BACKOFF)
            .max(base)
    }

    /// Like [`delay`](Self::delay), but retries (`attempt > 0`) carry a
    /// deterministic ±12.5% jitter derived from `salt` (site/timer
    /// identity), so the synchronized inquiry-retry storm after a crash
    /// spreads out instead of arriving as one burst per backoff round.
    /// Attempt-0 armings are returned exactly — clean schedules are
    /// unchanged by jitter. Mirrors the simulator harness's
    /// `TimerDelays::delay_jittered`.
    #[must_use]
    pub fn delay_jittered(&self, p: TimerPurpose, attempt: u32, salt: u64) -> Duration {
        let d = self.delay(p, attempt);
        if attempt == 0 {
            return d;
        }
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let span = us / 4;
        if span == 0 {
            return d;
        }
        let offset = acp_core::harness::jitter_hash(salt, p as u64, u64::from(attempt)) % (span + 1);
        let jittered = us - span / 2 + offset;
        let base = u64::try_from(self.delay(p, 0).as_micros()).unwrap_or(u64::MAX);
        Duration::from_micros(jittered.max(base))
    }
}

/// The protocol-log type the hosted engines run on: a file-backed log
/// behind the group-commit layer (passthrough unless the cluster
/// enables batching).
pub type NetLog = GroupCommitLog<FileLog>;

/// Observability plumbing of one site: a shared trace sink plus the
/// cluster's epoch, so wall-clock instants become trace
/// microseconds, and the protocol label events are attributed to.
#[derive(Clone)]
pub struct NetObs {
    /// Where the site's protocol events go.
    pub sink: Arc<dyn TraceSink>,
    /// The run's `t = 0` (cluster spawn time).
    pub t0: Instant,
    /// Label for events emitted by this site.
    pub proto: ProtoLabel,
}

impl NetObs {
    pub(crate) fn now_us(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// Shared, mutex-guarded global history (the hosted sites append their
/// ACTA events; checkers read it after shutdown).
pub type SharedHistory = Arc<Mutex<History>>;

// ---------------------------------------------------------------------------
// Emission points. The kernel funds the event stream through these
// functions whatever transport it runs over, so a trace line is
// formatted identically regardless of which backend produced it (the
// cross-backend byte-stability tests rely on this; the simulator
// harness formats the same vocabulary with its own code, which is what
// makes it the oracle in `tests/reactor_runtime.rs`).

/// Note a protocol send (vote casts get their own event ahead of the
/// generic send).
pub(crate) fn observe_send(obs: &NetObs, site: SiteId, msg: &Message) {
    let at_us = obs.now_us();
    if let Payload::Vote { txn, vote } = &msg.payload {
        obs.sink.record(&ProtocolEvent::VoteCast {
            at_us,
            site: site.raw(),
            proto: obs.proto,
            vote: vote_name(*vote),
            txn: Some(txn.raw()),
        });
    }
    obs.sink.record(&ProtocolEvent::MsgSend {
        at_us,
        site: site.raw(),
        proto: obs.proto,
        to: msg.to.raw(),
        kind: msg.payload.kind_name(),
        txn: Some(msg.payload.txn().raw()),
    });
}

/// Note receipt of a protocol message.
pub(crate) fn observe_recv(obs: &NetObs, site: SiteId, msg: &Message) {
    obs.sink.record(&ProtocolEvent::MsgRecv {
        at_us: obs.now_us(),
        site: site.raw(),
        proto: obs.proto,
        from: msg.from.raw(),
        kind: msg.payload.kind_name(),
        txn: Some(msg.payload.txn().raw()),
    });
}

/// Note a crash.
pub(crate) fn observe_crash(obs: &NetObs, site: SiteId) {
    obs.sink.record(&ProtocolEvent::CrashObserved {
        at_us: obs.now_us(),
        site: site.raw(),
        proto: obs.proto,
    });
}

/// Note the start of recovery.
pub(crate) fn observe_recover(obs: &NetObs, site: SiteId) {
    obs.sink.record(&ProtocolEvent::RecoveryStep {
        at_us: obs.now_us(),
        site: site.raw(),
        proto: obs.proto,
        detail: "site back up; restart procedure begins".to_string(),
    });
}

/// Note a scheduled retry (attempt 0 is the initial arm, not a retry —
/// no event).
pub(crate) fn observe_retry(obs: &NetObs, site: SiteId, purpose: TimerPurpose, attempt: u32) {
    if attempt > 0 {
        obs.sink.record(&ProtocolEvent::RetryScheduled {
            at_us: obs.now_us(),
            site: site.raw(),
            proto: obs.proto,
            purpose: purpose.name(),
            attempt,
            txn: None,
        });
    }
}

/// Note a log GC step, with decision-to-GC latency when known.
pub(crate) fn observe_gc(
    obs: &NetObs,
    site: SiteId,
    released_up_to: u64,
    records_released: u64,
    last_decision_us: Option<u64>,
) {
    let at_us = obs.now_us();
    obs.sink.record(&ProtocolEvent::LogGc {
        at_us,
        site: site.raw(),
        proto: obs.proto,
        released_up_to,
        records_released,
        since_decision_us: last_decision_us.map(|d| at_us.saturating_sub(d)),
    });
}

/// Mirror an ACTA event into the typed protocol-event stream, updating
/// the caller's last-decision timestamp for GC latency attribution.
pub(crate) fn observe_acta(
    obs: &NetObs,
    site: SiteId,
    event: &ActaEvent,
    last_decision_us: &mut Option<u64>,
) {
    let at_us = obs.now_us();
    let site = site.raw();
    let proto = obs.proto;
    match event {
        ActaEvent::LogWrite {
            txn, kind, forced, ..
        } => {
            let ev = if *forced {
                ProtocolEvent::ForceWrite {
                    at_us,
                    site,
                    proto,
                    record: kind,
                    txn: Some(txn.raw()),
                }
            } else {
                ProtocolEvent::NonForcedWrite {
                    at_us,
                    site,
                    proto,
                    record: kind,
                    txn: Some(txn.raw()),
                }
            };
            obs.sink.record(&ev);
        }
        ActaEvent::Decide { txn, outcome, .. } => {
            obs.sink.record(&ProtocolEvent::DecisionReached {
                at_us,
                site,
                proto,
                outcome: match outcome {
                    Outcome::Commit => "commit",
                    Outcome::Abort => "abort",
                },
                txn: Some(txn.raw()),
            });
            *last_decision_us = Some(at_us);
        }
        ActaEvent::Inquire { txn, protocol, .. } => {
            obs.sink.record(&ProtocolEvent::RecoveryStep {
                at_us,
                site,
                proto,
                detail: format!("inquire about {txn} ({protocol})"),
            });
        }
        ActaEvent::Respond {
            txn,
            outcome,
            by_presumption,
            ..
        } => {
            let how = if *by_presumption { " by presumption" } else { "" };
            obs.sink.record(&ProtocolEvent::RecoveryStep {
                at_us,
                site,
                proto,
                detail: format!("answer inquiry {txn}: {outcome}{how}"),
            });
        }
        _ => {}
    }
}

/// The storage-engine-derived vote: forced intent wins; a poisoned
/// (lock-conflicted) transaction votes No; a read-only one votes
/// ReadOnly after releasing its locks; otherwise prepare (force the
/// write set) and vote Yes — falling back to No if the force fails.
/// `lazy` stages the write set without forcing the data log
/// ([`SiteEngine::prepare_lazy`]) — only sound when the host also
/// defers the vote send and flushes the data log first (the kernel's
/// group-commit turn).
pub(crate) fn decide_vote(
    storage: &mut SiteEngine<FileLog>,
    txn: TxnId,
    forced: Option<Vote>,
    poisoned: bool,
    lazy: bool,
) -> Vote {
    let prepare = |storage: &mut SiteEngine<FileLog>, txn| {
        if lazy {
            storage.prepare_lazy(txn)
        } else {
            storage.prepare(txn)
        }
    };
    if let Some(v) = forced {
        // Test hook: make the engine state consistent with the vote.
        match v {
            Vote::Yes => {
                storage.begin(txn);
                let _ = prepare(storage, txn);
            }
            Vote::No => {
                let _ = storage.abort_active(txn);
            }
            Vote::ReadOnly => {}
        }
        return v;
    }
    if poisoned {
        let _ = storage.abort_active(txn);
        return Vote::No;
    }
    storage.begin(txn);
    if storage.is_read_only(txn).unwrap_or(true) {
        let _ = storage.abort_active(txn); // releases (shared) locks
        return Vote::ReadOnly;
    }
    match prepare(storage, txn) {
        Ok(()) => Vote::Yes,
        Err(_) => {
            let _ = storage.abort_active(txn);
            Vote::No
        }
    }
}

/// Stable lowercase name for a vote (event-stream vocabulary).
pub(crate) fn vote_name(vote: Vote) -> &'static str {
    match vote {
        Vote::Yes => "yes",
        Vote::No => "no",
        Vote::ReadOnly => "read-only",
    }
}

/// Derive the storage-recovery outcome map from a participant's
/// protocol log.
pub(crate) fn protocol_outcomes(log: &NetLog) -> BTreeMap<TxnId, RecoveredOutcome> {
    let mut outcomes = BTreeMap::new();
    for (txn, s) in analyze_log(log).expect("records") {
        if let Some(o) = s.part_decision {
            outcomes.insert(txn, RecoveredOutcome::Decided(o));
        } else if s.in_doubt() {
            outcomes.insert(txn, RecoveredOutcome::InDoubt);
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    const PURPOSES: [TimerPurpose; 5] = [
        TimerPurpose::VoteTimeout,
        TimerPurpose::AckResend,
        TimerPurpose::InquiryRetry,
        TimerPurpose::ApplyRetry,
        TimerPurpose::PaxosCompletion,
    ];

    #[test]
    fn jitter_leaves_first_armings_exact() {
        let d = NetDelays::default();
        for p in PURPOSES {
            for salt in [0u64, 1, 7, u64::MAX] {
                assert_eq!(d.delay_jittered(p, 0, salt), d.delay(p, 0), "{p:?}");
            }
        }
    }

    #[test]
    fn jitter_is_deterministic_and_stays_inside_the_band() {
        let d = NetDelays::default();
        for p in PURPOSES {
            for attempt in 1..=6u32 {
                let base = d.delay(p, attempt).as_micros() as i128;
                for salt in [3u64, 0x00C0FFEE, 0xDEAD_BEEF_0BAD_F00D] {
                    let j = d.delay_jittered(p, attempt, salt);
                    assert_eq!(j, d.delay_jittered(p, attempt, salt), "reproducible");
                    let off = (j.as_micros() as i128 - base).abs();
                    // ±12.5% of the backed-off delay, rounded.
                    assert!(off <= base / 8 + 1, "{p:?}@{attempt}: off={off} base={base}");
                    // Never below the un-backed-off base delay.
                    assert!(j >= d.delay(p, 0));
                }
            }
        }
    }

    #[test]
    fn jitter_spreads_distinct_salts_apart() {
        let d = NetDelays::default();
        let mut seen = std::collections::BTreeSet::new();
        for salt in 0..32u64 {
            seen.insert(d.delay_jittered(TimerPurpose::InquiryRetry, 3, salt));
        }
        // 32 sites retrying the same backoff round must not collapse
        // onto one instant (that is the thundering herd the jitter
        // exists to break up).
        assert!(seen.len() > 16, "only {} distinct delays", seen.len());
    }
}
