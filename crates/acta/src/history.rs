//! Histories: totally ordered sequences of significant events with the
//! ACTA precedence relation.
//!
//! Every runtime keeps its complete history for the judge, so an event
//! is stored byte-coded rather than as a 32-byte [`ActaEvent`]. Each
//! event is, in order:
//!
//! - a tag byte: the variant (low four bits), an `Abort` outcome
//!   (bit 4) and the `forced` / `by_presumption` flag (bit 5);
//! - the site, as a LEB128 varint;
//! - the txn, where the variant has one, as the zigzag varint of its
//!   distance from the previous event's txn;
//! - `Respond`'s participant as a varint, `Inquire`'s protocol as one
//!   byte, or `LogWrite`'s kind as a varint code: its index in
//!   [`KINDS`], or past it into the history's own list of other kinds.
//!
//! A commit's events name a few sites and one txn, so an event costs
//! about 3.5 bytes. [`History::events`] decodes them in order.

use crate::event::ActaEvent;
use crate::predicate::Pattern;
use acp_types::{Outcome, ProtocolKind, SiteId, TxnId};
use std::fmt;
use std::iter::FusedIterator;

/// The record kinds the engines log (`LogPayload::kind_name`), by the
/// code a `LogWrite` of that kind is stored with.
pub const KINDS: [&str; 11] = [
    "initiation",
    "commit",
    "abort",
    "end",
    "paxos-accept",
    "prepared",
    "part-commit",
    "part-abort",
    "part-end",
    "checkpoint",
    "update",
];

const DECIDE: u8 = 0;
const DELETE_PT: u8 = 1;
const RESPOND: u8 = 2;
const PREPARED: u8 = 3;
const INQUIRE: u8 = 4;
const ENFORCE: u8 = 5;
const FORGET_PART: u8 = 6;
const LOG_WRITE: u8 = 7;
const CRASH: u8 = 8;
const RECOVER: u8 = 9;
const VARIANT: u8 = 0x0f;
const ABORT: u8 = 0x10;
const FLAG: u8 = 0x20;

/// The complete history `H` of an execution.
///
/// Events are stored in occurrence order; the precedence relation
/// `ε → ε'` of the formalism is index order. (The simulator timestamps
/// give a total order; concurrent events at distinct sites are ordered
/// by processing order, which is sound because the criteria below only
/// relate events that are causally ordered anyway.)
#[derive(Clone, Default)]
pub struct History {
    /// The events, byte-coded in precedence order (module docs).
    bytes: Vec<u8>,
    /// Number of events in `bytes`.
    len: usize,
    /// The txn of the latest event that has one: the next delta's base.
    last_txn: u64,
    /// `LogWrite` kinds not in [`KINDS`], coded `KINDS.len() + index`.
    /// Empty unless a caller logs a kind of its own.
    kinds: Vec<&'static str>,
}

impl History {
    /// An empty history.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event (it becomes the latest in `→`).
    pub fn push(&mut self, event: ActaEvent) {
        let outcome = |o: Outcome| if o == Outcome::Abort { ABORT } else { 0 };
        let flag = |set: bool| if set { FLAG } else { 0 };
        let (tag, site, txn) = match event {
            ActaEvent::Decide {
                coordinator,
                txn,
                outcome: o,
            } => (DECIDE | outcome(o), coordinator, Some(txn)),
            ActaEvent::DeletePt { coordinator, txn } => (DELETE_PT, coordinator, Some(txn)),
            ActaEvent::Respond {
                coordinator,
                txn,
                outcome: o,
                by_presumption,
                ..
            } => (
                RESPOND | outcome(o) | flag(by_presumption),
                coordinator,
                Some(txn),
            ),
            ActaEvent::Prepared { participant, txn } => (PREPARED, participant, Some(txn)),
            ActaEvent::Inquire {
                participant, txn, ..
            } => (INQUIRE, participant, Some(txn)),
            ActaEvent::Enforce {
                participant,
                txn,
                outcome: o,
            } => (ENFORCE | outcome(o), participant, Some(txn)),
            ActaEvent::ForgetPart { participant, txn } => (FORGET_PART, participant, Some(txn)),
            ActaEvent::LogWrite {
                site, txn, forced, ..
            } => (LOG_WRITE | flag(forced), site, Some(txn)),
            ActaEvent::Crash { site } => (CRASH, site, None),
            ActaEvent::Recover { site } => (RECOVER, site, None),
        };
        self.bytes.push(tag);
        put_varint(&mut self.bytes, u64::from(site.raw()));
        if let Some(txn) = txn {
            let delta = txn.raw().wrapping_sub(self.last_txn) as i64;
            put_varint(&mut self.bytes, ((delta << 1) ^ (delta >> 63)) as u64);
            self.last_txn = txn.raw();
        }
        match event {
            ActaEvent::Respond { participant, .. } => {
                put_varint(&mut self.bytes, u64::from(participant.raw()));
            }
            ActaEvent::Inquire { protocol, .. } => self.bytes.push(protocol as u8),
            ActaEvent::LogWrite { kind, .. } => {
                let known = KINDS.iter().chain(&self.kinds).position(|&k| k == kind);
                let code = known.unwrap_or_else(|| {
                    self.kinds.push(kind);
                    KINDS.len() + self.kinds.len() - 1
                });
                put_varint(&mut self.bytes, code as u64);
            }
            _ => {}
        }
        self.len += 1;
    }

    /// All events in precedence order, decoded as they are read.
    #[must_use]
    pub fn events(&self) -> Events<'_> {
        Events {
            bytes: &self.bytes,
            kinds: &self.kinds,
            last_txn: 0,
            remaining: self.len,
        }
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the history empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the encoded events occupy (not counting spare capacity).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// Indices of events matching a pattern.
    pub fn find<'a>(&'a self, pattern: &'a Pattern) -> impl Iterator<Item = usize> + 'a {
        self.events()
            .enumerate()
            .filter(|(_, e)| pattern.matches(e))
            .map(|(i, _)| i)
    }

    /// Does some event match the pattern (∃ε ∈ H)?
    #[must_use]
    pub fn exists(&self, pattern: &Pattern) -> bool {
        self.find(pattern).next().is_some()
    }

    /// First index matching the pattern.
    #[must_use]
    pub fn first(&self, pattern: &Pattern) -> Option<usize> {
        self.find(pattern).next()
    }

    /// The precedence relation: does event `i` precede event `j`?
    #[must_use]
    pub fn precedes(&self, i: usize, j: usize) -> bool {
        i < j && j < self.len
    }

    /// Restrict to the events of one transaction (projection `H|T`),
    /// preserving order. Site-level events (crashes/recoveries) are
    /// excluded.
    #[must_use]
    pub fn project(&self, txn: TxnId) -> History {
        self.events().filter(|e| e.txn() == Some(txn)).collect()
    }

    /// All transactions mentioned in the history, deduplicated, in first
    /// appearance order.
    #[must_use]
    pub fn transactions(&self) -> Vec<TxnId> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for e in self.events() {
            if let Some(t) = e.txn() {
                if seen.insert(t) {
                    out.push(t);
                }
            }
        }
        out
    }
}

/// The events of a [`History`], decoded in precedence order.
#[derive(Clone)]
pub struct Events<'a> {
    bytes: &'a [u8],
    kinds: &'a [&'static str],
    last_txn: u64,
    remaining: usize,
}

impl Events<'_> {
    fn byte(&mut self) -> u8 {
        let (&b, rest) = self.bytes.split_first().expect("history truncated");
        self.bytes = rest;
        b
    }

    fn varint(&mut self) -> u64 {
        let mut value = 0;
        let mut shift = 0;
        loop {
            let b = self.byte();
            value |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return value;
            }
            shift += 7;
        }
    }

    fn site(&mut self) -> SiteId {
        SiteId::new(self.varint() as u32)
    }

    fn txn(&mut self) -> TxnId {
        let zigzag = self.varint();
        let delta = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
        self.last_txn = self.last_txn.wrapping_add(delta as u64);
        TxnId::new(self.last_txn)
    }
}

impl Iterator for Events<'_> {
    type Item = ActaEvent;

    fn next(&mut self) -> Option<ActaEvent> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let tag = self.byte();
        let site = self.site();
        let outcome = if tag & ABORT == 0 {
            Outcome::Commit
        } else {
            Outcome::Abort
        };
        let flag = tag & FLAG != 0;
        Some(match tag & VARIANT {
            DECIDE => ActaEvent::Decide {
                coordinator: site,
                txn: self.txn(),
                outcome,
            },
            DELETE_PT => ActaEvent::DeletePt {
                coordinator: site,
                txn: self.txn(),
            },
            RESPOND => ActaEvent::Respond {
                coordinator: site,
                txn: self.txn(),
                participant: self.site(),
                outcome,
                by_presumption: flag,
            },
            PREPARED => ActaEvent::Prepared {
                participant: site,
                txn: self.txn(),
            },
            INQUIRE => ActaEvent::Inquire {
                participant: site,
                txn: self.txn(),
                protocol: ProtocolKind::ALL[usize::from(self.byte())],
            },
            ENFORCE => ActaEvent::Enforce {
                participant: site,
                txn: self.txn(),
                outcome,
            },
            FORGET_PART => ActaEvent::ForgetPart {
                participant: site,
                txn: self.txn(),
            },
            LOG_WRITE => {
                let txn = self.txn();
                let code = self.varint() as usize;
                let kind = match KINDS.get(code) {
                    Some(kind) => kind,
                    None => self.kinds[code - KINDS.len()],
                };
                ActaEvent::LogWrite {
                    site,
                    txn,
                    kind,
                    forced: flag,
                }
            }
            CRASH => ActaEvent::Crash { site },
            RECOVER => ActaEvent::Recover { site },
            other => unreachable!("history tag {other}"),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Events<'_> {}

impl FusedIterator for Events<'_> {}

fn put_varint(bytes: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        bytes.push(value as u8 | 0x80);
        value >>= 7;
    }
    bytes.push(value as u8);
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.events().enumerate() {
            writeln!(f, "{i:>4}: {e}")?;
        }
        Ok(())
    }
}

/// As a struct holding its events in a list: `History { events: [..] }`.
impl fmt::Debug for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct List<'a>(&'a History);
        impl fmt::Debug for List<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.events()).finish()
            }
        }
        f.debug_struct("History")
            .field("events", &List(self))
            .finish()
    }
}

impl FromIterator<ActaEvent> for History {
    fn from_iter<I: IntoIterator<Item = ActaEvent>>(iter: I) -> Self {
        let mut history = History::new();
        for e in iter {
            history.push(e);
        }
        history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_types::{Outcome, SiteId};

    fn sample() -> History {
        let c = SiteId::new(0);
        let p = SiteId::new(1);
        let t = TxnId::new(1);
        let u = TxnId::new(2);
        [
            ActaEvent::Prepared {
                participant: p,
                txn: t,
            },
            ActaEvent::Decide {
                coordinator: c,
                txn: t,
                outcome: Outcome::Commit,
            },
            ActaEvent::Crash { site: p },
            ActaEvent::Decide {
                coordinator: c,
                txn: u,
                outcome: Outcome::Abort,
            },
            ActaEvent::Enforce {
                participant: p,
                txn: t,
                outcome: Outcome::Commit,
            },
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn projection_keeps_order_and_drops_site_events() {
        let h = sample();
        let p = h.project(TxnId::new(1));
        assert_eq!(p.len(), 3);
        assert!(matches!(
            p.events().next(),
            Some(ActaEvent::Prepared { .. })
        ));
        assert!(matches!(p.events().nth(2), Some(ActaEvent::Enforce { .. })));
    }

    #[test]
    fn transactions_in_first_appearance_order() {
        let h = sample();
        assert_eq!(h.transactions(), vec![TxnId::new(1), TxnId::new(2)]);
    }

    #[test]
    fn precedence_is_index_order() {
        let h = sample();
        assert!(h.precedes(0, 1));
        assert!(!h.precedes(1, 1));
        assert!(!h.precedes(3, 2));
        assert!(!h.precedes(0, 99), "out-of-range successor");
    }

    /// Every kind the engines log has a one-byte code, so no runtime
    /// history fills its list of other kinds.
    #[test]
    fn every_logged_kind_has_a_code() {
        use acp_types::{CommitMode, LogPayload};
        let t = TxnId::new(1);
        let payloads = [
            LogPayload::Initiation {
                txn: t,
                participants: Vec::new(),
                mode: CommitMode::PrAny,
            },
            LogPayload::CoordDecision {
                txn: t,
                outcome: Outcome::Commit,
                participants: Vec::new(),
            },
            LogPayload::CoordDecision {
                txn: t,
                outcome: Outcome::Abort,
                participants: Vec::new(),
            },
            LogPayload::End { txn: t },
            LogPayload::PaxosAccept {
                txn: t,
                ballot: 0,
                instances: Vec::new(),
            },
            LogPayload::Prepared {
                txn: t,
                coordinator: SiteId::new(0),
            },
            LogPayload::PartDecision {
                txn: t,
                outcome: Outcome::Commit,
            },
            LogPayload::PartDecision {
                txn: t,
                outcome: Outcome::Abort,
            },
            LogPayload::PartEnd { txn: t },
            LogPayload::Checkpoint {
                entries: Vec::new(),
            },
            LogPayload::Update {
                txn: t,
                key: Vec::new(),
                before: None,
                after: None,
            },
        ];
        let kinds: Vec<&str> = payloads.iter().map(LogPayload::kind_name).collect();
        assert_eq!(kinds, KINDS);
    }

    #[test]
    fn find_with_pattern() {
        let h = sample();
        let decides = Pattern::decide();
        assert_eq!(h.find(&decides).count(), 2);
        let t1_decide = Pattern::decide().txn(TxnId::new(1));
        assert_eq!(h.first(&t1_decide), Some(1));
        assert!(h.exists(&Pattern::crash()));
    }
}
