//! Explorable system states.

use acp_acta::History;
use acp_core::{Action, AnyEngine, TimerPurpose};
use acp_types::{Message, Payload, SiteId, TxnId};
use acp_wal::MemLog;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The coordinator's (or Paxos Commit leader's) site in every checked
/// configuration.
pub const COORD: SiteId = SiteId(0);

/// An armed timer at a site.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ArmedTimer {
    /// The site whose timer it is.
    pub site: SiteId,
    /// Engine token.
    pub token: u64,
    /// What it is for (shown in counterexample traces).
    pub purpose: TimerPurpose,
}

/// The move trail of a state, as an `Arc`-linked parent chain.
///
/// Successor generation used to clone a `Vec<String>` per state — an
/// O(depth) copy on the checker's hottest path. The cons list shares
/// the whole prefix with the parent: extending it is one small
/// allocation and an `Arc` bump, and the flat `Vec<String>` form is
/// reconstructed lazily, only for the rare states that become
/// counterexamples.
#[derive(Clone, Default)]
pub struct Trail(Option<Arc<TrailNode>>);

struct TrailNode {
    step: String,
    prev: Option<Arc<TrailNode>>,
}

impl Trail {
    /// The empty trail.
    #[must_use]
    pub fn new() -> Self {
        Trail(None)
    }

    /// Append a step (O(1): the previous chain is shared, not copied).
    pub fn push(&mut self, step: impl Into<String>) {
        self.0 = Some(Arc::new(TrailNode {
            step: step.into(),
            prev: self.0.take(),
        }));
    }

    /// Number of steps taken.
    #[must_use]
    pub fn len(&self) -> usize {
        let mut n = 0;
        let mut cur = self.0.as_deref();
        while let Some(node) = cur {
            n += 1;
            cur = node.prev.as_deref();
        }
        n
    }

    /// Is the trail empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// Reconstruct the oldest-first step list (O(depth); called only
    /// when a counterexample is reported).
    #[must_use]
    pub fn to_vec(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.len());
        let mut cur = self.0.as_deref();
        while let Some(node) = cur {
            out.push(node.step.clone());
            cur = node.prev.as_deref();
        }
        out.reverse();
        out
    }
}

impl std::fmt::Debug for Trail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.to_vec()).finish()
    }
}

/// One complete system state of the bounded exploration.
pub struct CheckState {
    /// The coordinator-side engines: the one coordinator at [`COORD`],
    /// or the Paxos Commit leader there plus its remote acceptors.
    pub coords: BTreeMap<SiteId, AnyEngine<MemLog>>,
    /// The participant engines.
    pub parts: BTreeMap<SiteId, AnyEngine<MemLog>>,
    /// Permanently killed sites: they receive nothing and fire nothing,
    /// forever. What they accepted survives only as replicas elsewhere.
    pub dead: BTreeSet<SiteId>,
    /// Messages handed to the network, not yet delivered or dropped.
    /// Per-link FIFO: only the *oldest* message on each (from, to) link
    /// is deliverable/droppable, matching the simulator's FIFO links.
    pub in_flight: Vec<Message>,
    /// Armed (not yet fired) volatile timers.
    pub timers: BTreeSet<ArmedTimer>,
    /// Remaining permanent-kill budget.
    pub kills_left: u8,
    /// Remaining crash/recover budget.
    pub crashes_left: u8,
    /// Remaining message-drop budget.
    pub drops_left: u8,
    /// Remaining timer-firing budget.
    pub timers_left: u8,
    /// The ACTA history of this branch.
    pub history: History,
    /// Move trail (for counterexample reporting).
    pub trail: Trail,
    /// Cached fingerprint, set by [`CheckState::seal`] once mutation is
    /// done. `None` while a successor is still under construction.
    pub(crate) fp: Option<u64>,
}

impl Clone for CheckState {
    fn clone(&self) -> Self {
        CheckState {
            coords: self.coords.clone(),
            parts: self.parts.clone(),
            dead: self.dead.clone(),
            in_flight: self.in_flight.clone(),
            timers: self.timers.clone(),
            kills_left: self.kills_left,
            crashes_left: self.crashes_left,
            drops_left: self.drops_left,
            timers_left: self.timers_left,
            history: self.history.clone(),
            trail: self.trail.clone(),
            // A clone exists to be mutated into a successor; its cached
            // fingerprint is stale by construction.
            fp: None,
        }
    }
}

impl CheckState {
    /// A fresh, unsealed state: the given engines, empty network and
    /// history, full failure budgets.
    #[must_use]
    pub fn new(
        coords: BTreeMap<SiteId, AnyEngine<MemLog>>,
        parts: BTreeMap<SiteId, AnyEngine<MemLog>>,
        kills: u8,
        crashes: u8,
        drops: u8,
        timer_fires: u8,
    ) -> Self {
        CheckState {
            coords,
            parts,
            dead: BTreeSet::new(),
            in_flight: Vec::new(),
            timers: BTreeSet::new(),
            kills_left: kills,
            crashes_left: crashes,
            drops_left: drops,
            timers_left: timer_fires,
            history: History::new(),
            trail: Trail::new(),
            fp: None,
        }
    }

    /// Feed one input to the engine at `site` and absorb what it emits.
    pub fn step(
        &mut self,
        site: SiteId,
        input: impl FnOnce(&mut AnyEngine<MemLog>, &mut Vec<Action>),
    ) {
        let engine = self
            .coords
            .get_mut(&site)
            .or_else(|| self.parts.get_mut(&site));
        let mut actions = Vec::new();
        input(engine.expect("site"), &mut actions);
        self.absorb(site, actions);
    }

    /// Absorb a batch of engine actions at `site` into the state. Sends
    /// addressed to a killed site are discarded outright — nothing can
    /// ever deliver them, and keeping them would only inflate the state
    /// space.
    fn absorb(&mut self, site: SiteId, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Send { to, payload } => {
                    if !self.dead.contains(&to) {
                        self.in_flight.push(Message::new(site, to, payload));
                    }
                }
                Action::SetTimer { token, purpose, .. } => {
                    // The checker explores timer firings nondeterministically,
                    // so the backoff attempt (a real-time concern) is ignored.
                    self.timers.insert(ArmedTimer {
                        site,
                        token,
                        purpose,
                    });
                }
                Action::Acta(e) => self.history.push(e),
                Action::Enforce { .. } => {
                    // The participant engine records the Enforce ACTA
                    // event itself; data-engine effects are out of scope
                    // for the checker.
                }
                Action::Gc { .. } => {
                    // Observational only; the truncation itself already
                    // happened inside the engine's log.
                }
            }
        }
    }

    /// Indices of in-flight messages that are at the head of their
    /// (from, to) link — the only ones the FIFO network may act on.
    #[must_use]
    pub fn deliverable(&self) -> Vec<usize> {
        let mut seen_links: BTreeSet<(SiteId, SiteId)> = BTreeSet::new();
        let mut idxs = Vec::new();
        for (i, m) in self.in_flight.iter().enumerate() {
            if seen_links.insert((m.from, m.to)) {
                idxs.push(i);
            }
        }
        idxs
    }

    /// `site` goes down (crash or kill): its volatile state dies —
    /// armed timers with it — and messages in flight *to* it are lost
    /// (they would have arrived while it was down; losing all of them
    /// composes with the drop move for partial-loss interleavings).
    pub fn take_down(&mut self, site: SiteId) {
        self.in_flight.retain(|m| m.to != site);
        self.timers.retain(|t| t.site != site);
        self.history.push(acp_acta::ActaEvent::Crash { site });
        self.step(site, |e, _| e.crash());
    }

    /// Compute and cache the fingerprint. Must be called exactly when a
    /// state's mutation is complete (successor construction does this);
    /// after sealing, [`CheckState::fingerprint`] is a field read.
    pub fn seal(&mut self) {
        self.fp = Some(self.compute_fingerprint());
    }

    /// The 64-bit fingerprint of the semantic state, for deduplication.
    ///
    /// # Panics
    /// If the state has not been [`CheckState::seal`]ed.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fp.expect("CheckState::fingerprint before seal()")
    }

    /// Hash the semantic state. The history and trail are deliberately
    /// excluded: two states with identical machine/network state behave
    /// identically regardless of how they were reached (every frontier
    /// state is checked for violations before its duplicates are
    /// pruned, so none are missed).
    ///
    /// Everything is hashed directly — no string rendering, no
    /// intermediate collections. The old implementation built the full
    /// canonical `String` of every engine plus a per-link `BTreeMap`
    /// just to feed a hasher; that was the dominant allocation cost of
    /// the exploration.
    fn compute_fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for (site, e) in self.coords.iter().chain(&self.parts) {
            site.hash(&mut h);
            e.hash_state(&mut h);
        }
        self.dead.hash(&mut h);
        // In-flight messages: order only matters per link (FIFO), so
        // hash each link's queue separately in a canonical link order,
        // each behind its length so no two queues' bytes run together.
        let mut links: Vec<(SiteId, SiteId)> =
            self.in_flight.iter().map(|m| (m.from, m.to)).collect();
        links.sort_unstable();
        links.dedup();
        for &(from, to) in &links {
            let on_link = |m: &&Message| m.from == from && m.to == to;
            (from, to, self.in_flight.iter().filter(on_link).count()).hash(&mut h);
            for m in self.in_flight.iter().filter(on_link) {
                m.payload.hash(&mut h);
            }
        }
        for t in &self.timers {
            (t.site, t.token).hash(&mut h);
        }
        let budgets = (
            self.kills_left,
            self.crashes_left,
            self.drops_left,
            self.timers_left,
        );
        budgets.hash(&mut h);
        h.finish()
    }

    /// The full canonical rendering of the semantic state — exactly the
    /// information [`CheckState::fingerprint`] hashes, as a comparable
    /// string. The paranoid fingerprint mode stores this behind each
    /// 64-bit hash to prove no collision silently merged two distinct
    /// states.
    #[must_use]
    pub fn canonical_state(&self) -> String {
        let mut s = String::new();
        for (site, e) in self.coords.iter().chain(&self.parts) {
            let _ = write!(s, "#{site}:{}", e.fingerprint());
        }
        let _ = write!(s, "#dead{:?}#", self.dead);
        let mut links: Vec<(SiteId, SiteId)> =
            self.in_flight.iter().map(|m| (m.from, m.to)).collect();
        links.sort_unstable();
        links.dedup();
        for &(from, to) in &links {
            let _ = write!(s, "[{from}>{to}:");
            for m in &self.in_flight {
                if m.from == from && m.to == to {
                    let _ = write!(s, "{},", m.payload);
                }
            }
            s.push(']');
        }
        s.push('#');
        for t in &self.timers {
            let _ = write!(s, "{}:{};", t.site, t.token);
        }
        let _ = write!(
            s,
            "#k{}c{}d{}t{}",
            self.kills_left, self.crashes_left, self.drops_left, self.timers_left
        );
        s
    }

    /// Is the state quiescent: nothing in flight and no armed timers
    /// whose firing could still change anything (we treat any armed
    /// timer as potentially enabled, so quiescent = no messages and
    /// either no timers or no timer budget).
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        self.in_flight.is_empty() && (self.timers.is_empty() || self.timers_left == 0)
    }

    /// Every transaction mentioned so far (for reporting).
    #[must_use]
    pub fn txns(&self) -> Vec<TxnId> {
        self.history.transactions()
    }

    /// Render an in-flight message briefly (for trails).
    #[must_use]
    pub fn describe_message(m: &Message) -> String {
        match &m.payload {
            Payload::Prepare { txn } => format!("{}→{} prepare {txn}", m.from, m.to),
            other => format!("{}→{} {other}", m.from, m.to),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Trail;

    #[test]
    fn trail_push_shares_prefix_and_reconstructs_in_order() {
        let mut a = Trail::new();
        assert!(a.is_empty());
        a.push("one");
        a.push("two");
        let mut b = a.clone();
        b.push("three");
        assert_eq!(a.to_vec(), vec!["one", "two"]);
        assert_eq!(b.to_vec(), vec!["one", "two", "three"]);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 3);
    }
}
