//! The one dispatch point over engine kinds.
//!
//! [`Coordinator`], [`PaxosNode`], [`Participant`] and
//! [`GatewayParticipant`] are four sans-IO state machines with the same
//! inputs. Every host of whole clusters — the simulator harness, the
//! bounded explorer and the real-time kernel behind every event-loop
//! backend — holds each site as an [`AnyEngine`] and is written once:
//! this file is the only place an input is dispatched over the kind. A
//! host matches one arm only to reach a verb that kind alone has (a
//! gateway's staged write, the coordinator's once-per-turn GC). Every
//! method forwards to the engine's inherent method of the same name;
//! what a kind lacks (a participant's commit verbs, a gateway's timer
//! retirement) is a no-op or, for commit requests, a panic.

use crate::action::Action;
use crate::coordinator::Coordinator;
use crate::gateway::GatewayParticipant;
use crate::participant::Participant;
use crate::paxos::{PaxosConfig, PaxosNode};
use acp_types::{CoordinatorKind, Payload, ProtocolKind, SiteId, TxnId};
use acp_wal::StableLog;

/// One site's protocol engine, whichever kind it is.
#[derive(Clone, Debug)]
pub enum AnyEngine<L: StableLog> {
    /// A classic coordinator (any [`CoordinatorKind`]).
    Coord(Coordinator<L>),
    /// A Paxos Commit acceptor (the leader, at rank 0, takes commits).
    Paxos(PaxosNode<L>),
    /// A participant.
    Part(Participant<L>),
    /// A gateway simulating a prepared state for a legacy system.
    Gateway(GatewayParticipant<L>),
}

/// Forward one expression to whichever engine `$any` holds.
macro_rules! each {
    ($any:expr, $e:ident => $body:expr) => {
        match $any {
            AnyEngine::Coord($e) => $body,
            AnyEngine::Paxos($e) => $body,
            AnyEngine::Part($e) => $body,
            AnyEngine::Gateway($e) => $body,
        }
    };
}

/// Forward to a coordinator-side engine; `$other` on a participant or
/// gateway, which takes no commit requests and keeps no protocol table.
macro_rules! coordinator_side {
    ($any:expr, $e:ident => $body:expr, $other:expr) => {
        match $any {
            AnyEngine::Coord($e) => $body,
            AnyEngine::Paxos($e) => $body,
            AnyEngine::Part(_) | AnyEngine::Gateway(_) => $other,
        }
    };
}

impl<L: StableLog> AnyEngine<L> {
    /// The coordinator-side engines of a cluster of `protocols.len()`
    /// participants at sites `1..=N`: one `kind` coordinator at site 0
    /// with every participant registered, or — with `paxos_f = Some(f)`,
    /// where `kind` is ignored — the Paxos Commit leader at site 0 and
    /// its `2f` remote acceptors ([`PaxosConfig::for_cluster`]).
    pub fn coordinator_side(
        kind: CoordinatorKind,
        protocols: &[ProtocolKind],
        paxos_f: Option<usize>,
        mut make_log: impl FnMut() -> L,
    ) -> Vec<Self> {
        let Some(f) = paxos_f else {
            let mut engine = Coordinator::new(SiteId::new(0), kind, make_log());
            for (i, &p) in protocols.iter().enumerate() {
                engine.register_site(SiteId::new(i as u32 + 1), p);
            }
            return vec![AnyEngine::Coord(engine)];
        };
        let config = PaxosConfig::for_cluster(protocols.len(), f);
        let node = |&site| AnyEngine::Paxos(PaxosNode::new(site, config.clone(), make_log()));
        config.acceptors.iter().map(node).collect()
    }

    /// The engine's site id.
    #[must_use]
    pub fn site(&self) -> SiteId {
        each!(self, e => e.site())
    }

    /// Handle an incoming message, appending the actions to `out`.
    pub fn on_message_into(&mut self, from: SiteId, payload: &Payload, out: &mut Vec<Action>) {
        each!(self, e => e.on_message_into(from, payload, out));
    }

    /// Handle a fired timer, appending the actions to `out`.
    pub fn on_timer_into(&mut self, token: u64, out: &mut Vec<Action>) {
        each!(self, e => e.on_timer_into(token, out));
    }

    /// Lose all volatile state (fail-stop).
    pub fn crash(&mut self) {
        each!(self, e => e.crash());
    }

    /// Run the restart procedure over the stable log (a host that
    /// keeps a participant's storage engine matches the participant arm
    /// instead, to redo from the analysis its recovery returns).
    pub fn recover_into(&mut self, out: &mut Vec<Action>) {
        each!(self, e => {
            e.recover_into(out);
        });
    }

    /// Start commit processing for `txn`.
    ///
    /// # Panics
    /// On a participant or gateway: commit requests go to a
    /// coordinator-side site.
    pub fn begin_commit_into(&mut self, txn: TxnId, sites: &[SiteId], out: &mut Vec<Action>) {
        coordinator_side!(self, e => e.begin_commit_into(txn, sites, out),
            panic!("begin_commit on a participant site"))
    }

    /// Client-requested abort of `txn` (same panic as
    /// [`begin_commit_into`](Self::begin_commit_into)).
    pub fn abort_request(&mut self, txn: TxnId) -> Vec<Action> {
        coordinator_side!(self, e => e.abort_request(txn),
            panic!("abort_request on a participant site"))
    }

    /// Borrow the stable log.
    #[must_use]
    pub fn log(&self) -> &L {
        each!(self, e => e.log())
    }

    /// Mutable access to the stable log (group-commit ticks only).
    pub fn log_mut(&mut self) -> &mut L {
        each!(self, e => e.log_mut())
    }

    /// Transactions still pinning the log.
    #[must_use]
    pub fn log_pinned(&self) -> Vec<TxnId> {
        each!(self, e => e.log_pinned())
    }

    /// Enable eager timer retirement, for a host with a real timer
    /// wheel (a gateway retires none: its stale timers fire as no-ops).
    pub fn set_track_cancellations(&mut self, on: bool) {
        match self {
            AnyEngine::Coord(e) => e.set_track_cancellations(on),
            AnyEngine::Paxos(e) => e.set_track_cancellations(on),
            AnyEngine::Part(e) => e.set_track_cancellations(on),
            AnyEngine::Gateway(_) => {}
        }
    }

    /// Move the timer tokens retired since the last call onto `retired`.
    pub fn drain_cancelled_timers_into(&mut self, retired: &mut Vec<u64>) {
        match self {
            AnyEngine::Coord(e) => retired.extend(e.drain_cancelled_timers()),
            AnyEngine::Paxos(e) => retired.extend(e.drain_cancelled_timers()),
            AnyEngine::Part(e) => retired.extend(e.drain_cancelled_timers()),
            AnyEngine::Gateway(_) => {}
        }
    }

    /// Transactions in the protocol table (a participant has none: the
    /// table is the coordinator side's memory of who still owes an ack).
    #[must_use]
    pub fn protocol_table_txns(&self) -> Vec<TxnId> {
        coordinator_side!(self, e => e.protocol_table_txns(), Vec::new())
    }

    /// Size of the protocol table, without collecting it.
    #[must_use]
    pub fn protocol_table_size(&self) -> usize {
        coordinator_side!(self, e => e.protocol_table_size(), 0)
    }

    /// Is `txn` begun and not yet decided at this site?
    #[must_use]
    pub fn in_flight(&self, txn: TxnId) -> bool {
        coordinator_side!(self, e => e.in_flight(txn), false)
    }

    /// The participant engine, if this site is one (its enforced
    /// outcomes and in-doubt set have no coordinator-side counterpart).
    #[must_use]
    pub fn as_participant(&self) -> Option<&Participant<L>> {
        match self {
            AnyEngine::Part(p) => Some(p),
            _ => None,
        }
    }

    /// Hash the engine's semantic state (the explorer's dedup key).
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        each!(self, e => e.hash_state(h));
    }

    /// The canonical rendering of what [`hash_state`](Self::hash_state)
    /// hashes.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        each!(self, e => e.fingerprint())
    }
}
