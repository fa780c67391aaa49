//! Engine outputs.

use crate::harness::jitter_hash;
use acp_acta::ActaEvent;
use acp_types::{Outcome, Payload, SiteId, TxnId};
use std::fmt;

/// Why a timer was set — the host maps each purpose to a concrete delay.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TimerPurpose {
    /// Coordinator: abort the transaction if votes are still outstanding
    /// when this fires ("communication and site failures are detected by
    /// timeouts", §4.2).
    VoteTimeout,
    /// Coordinator: re-send the decision to participants whose
    /// acknowledgment is still outstanding.
    AckResend,
    /// Participant: re-send the recovery inquiry for an in-doubt
    /// transaction.
    InquiryRetry,
    /// Gateway: retry applying a committed write set to a temporarily
    /// unavailable legacy system (the redo technique of Figure 5).
    ApplyRetry,
    /// Paxos acceptor: the transaction it learned about has not
    /// completed; when this fires the acceptor starts (or retries)
    /// leader failover with a fresh ballot. Armings are staggered by
    /// acceptor rank so the lowest live acceptor takes over first.
    PaxosCompletion,
}

impl TimerPurpose {
    /// Stable display name (also the retry-event vocabulary of
    /// `acp-obs`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TimerPurpose::VoteTimeout => "vote-timeout",
            TimerPurpose::AckResend => "ack-resend",
            TimerPurpose::InquiryRetry => "inquiry-retry",
            TimerPurpose::ApplyRetry => "apply-retry",
            TimerPurpose::PaxosCompletion => "paxos-completion",
        }
    }

    /// The one retry schedule every host arms its timers by, in
    /// microseconds (the harness's `TimerDelays`, the real-time
    /// kernel's `NetDelays`): the `attempt`-th arming of a timer whose
    /// first waits `base_us` waits `min(base_us << attempt, max_us)`,
    /// never less than `base_us`. With a `salt` (site/timer identity), a
    /// retry (`attempt > 0`) moves by a deterministic ±12.5% jitter
    /// ([`jitter_hash`]), again never below `base_us`.
    #[must_use]
    pub fn retry_delay_us(self, base_us: u64, max_us: u64, attempt: u32, salt: Option<u64>) -> u64 {
        let us = (base_us.saturating_mul(1 << attempt.min(BACKOFF_SHIFT_CAP)))
            .min(max_us)
            .max(base_us);
        let span = us / 4; // total jitter window: d/4, centred on d
        match salt {
            Some(salt) if attempt > 0 && span > 0 => {
                let offset = jitter_hash(salt, self as u64, u64::from(attempt)) % (span + 1);
                (us - span / 2 + offset).max(base_us)
            }
            _ => us,
        }
    }
}

/// Doublings beyond which the exponential backoff stops growing (the
/// shift is clamped so `base << shift` cannot overflow; the cap bites
/// well before this in any sane configuration).
const BACKOFF_SHIFT_CAP: u32 = 16;

impl fmt::Display for TimerPurpose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An effect requested by a protocol engine.
///
/// The host (simulator harness, model checker, real-time kernel)
/// executes these in order. Log writes are *not* actions — engines own
/// their stable log and append inline, so force-before-send orderings
/// are enforced by construction; each log write additionally surfaces as
/// an [`ActaEvent::LogWrite`] for the history.
#[derive(Clone, PartialEq, Debug)]
pub enum Action {
    /// Send a coordination message.
    Send {
        /// Destination site.
        to: SiteId,
        /// Message payload.
        payload: Payload,
    },
    /// Enforce the decision on the local subtransaction (apply commit or
    /// roll back in the site's storage engine).
    Enforce {
        /// The transaction.
        txn: TxnId,
        /// The outcome to enforce.
        outcome: Outcome,
    },
    /// Arm a volatile timer. The engine will be called back with `token`.
    SetTimer {
        /// Opaque token, returned verbatim to the engine.
        token: u64,
        /// What the timer is for (host picks the delay).
        purpose: TimerPurpose,
        /// How many times this timer has already fired for its purpose
        /// (0 for the first arming). Hosts scale the base delay
        /// exponentially in `attempt`, bounded — so retries under
        /// message loss back off instead of hammering a lossy link.
        attempt: u32,
    },
    /// Record a significant event in the global ACTA history.
    Acta(ActaEvent),
    /// The engine garbage-collected a prefix of its stable log (the
    /// observable form of Definition 1's "can, eventually, garbage
    /// collect"). Purely observational: hosts surface it as a `LogGc`
    /// protocol event; it carries no obligation.
    Gc {
        /// New low-water mark — records below this LSN are gone.
        released_up_to: u64,
        /// How many records the collection reclaimed.
        records_released: u64,
    },
}

impl Action {
    /// Convenience constructor for a send.
    #[must_use]
    pub fn send(to: SiteId, payload: Payload) -> Self {
        Action::Send { to, payload }
    }
}

/// Extract only the sent payloads (test helper used across the suite).
#[must_use]
pub fn sent_payloads(actions: &[Action]) -> Vec<(SiteId, Payload)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send { to, payload } => Some((*to, payload.clone())),
            _ => None,
        })
        .collect()
}

/// Extract only the ACTA events (test helper).
#[must_use]
pub fn acta_events(actions: &[Action]) -> Vec<ActaEvent> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Acta(e) => Some(*e),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_filter_correctly() {
        let t = TxnId::new(1);
        let actions = vec![
            Action::send(SiteId::new(1), Payload::Prepare { txn: t }),
            Action::Enforce {
                txn: t,
                outcome: Outcome::Commit,
            },
            Action::Acta(ActaEvent::Crash {
                site: SiteId::new(0),
            }),
            Action::SetTimer {
                token: 3,
                purpose: TimerPurpose::VoteTimeout,
                attempt: 0,
            },
        ];
        assert_eq!(sent_payloads(&actions).len(), 1);
        assert_eq!(acta_events(&actions).len(), 1);
    }

    #[test]
    fn purposes_display() {
        assert_eq!(TimerPurpose::AckResend.to_string(), "ack-resend");
    }
}
