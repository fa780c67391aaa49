//! The one dispatch point over engine kinds.
//!
//! [`Coordinator`], [`PaxosNode`] and [`Participant`] are three sans-IO
//! state machines with the same inputs. A host that runs whole
//! clusters — the simulator harness, the bounded explorer — holds each
//! site as an [`AnyEngine`] and is written once; this file is the only
//! `match` on the kind outside the real-time kernel (whose `SiteTask`
//! arms also own per-kind data engines and locks). Every method
//! forwards to the engine's inherent method of the same name.

use crate::action::Action;
use crate::coordinator::Coordinator;
use crate::participant::Participant;
use crate::paxos::{PaxosConfig, PaxosNode};
use acp_types::{CoordinatorKind, CostCounters, Outcome, Payload, ProtocolKind, SiteId, TxnId};
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
}

/// Forward one expression to whichever engine `$any` holds.
macro_rules! each {
    ($any:expr, $e:ident => $body:expr) => {
        match $any {
            AnyEngine::Coord($e) => $body,
            AnyEngine::Paxos($e) => $body,
            AnyEngine::Part($e) => $body,
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

    /// Run the restart procedure over the stable log.
    pub fn recover_into(&mut self, out: &mut Vec<Action>) {
        each!(self, e => e.recover_into(out));
    }

    /// Start commit processing for `txn`.
    ///
    /// # Panics
    /// On a participant: commit requests go to a coordinator-side site.
    pub fn begin_commit_into(&mut self, txn: TxnId, sites: &[SiteId], out: &mut Vec<Action>) {
        match self {
            AnyEngine::Coord(e) => e.begin_commit_into(txn, sites, out),
            AnyEngine::Paxos(e) => e.begin_commit_into(txn, sites, out),
            AnyEngine::Part(_) => panic!("begin_commit on a participant site"),
        }
    }

    /// Client-requested abort of `txn` (same panic as
    /// [`begin_commit_into`](Self::begin_commit_into)).
    pub fn abort_request(&mut self, txn: TxnId) -> Vec<Action> {
        match self {
            AnyEngine::Coord(e) => e.abort_request(txn),
            AnyEngine::Paxos(e) => e.abort_request(txn),
            AnyEngine::Part(_) => panic!("abort_request on a participant site"),
        }
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

    /// Per-transaction costs measured at this site.
    #[must_use]
    pub fn costs(&self, txn: TxnId) -> CostCounters {
        each!(self, e => e.costs(txn))
    }

    /// Transactions still pinning the log.
    #[must_use]
    pub fn log_pinned(&self) -> Vec<TxnId> {
        each!(self, e => e.log_pinned())
    }

    /// Transactions in the protocol table (a participant has none: the
    /// table is the coordinator side's memory of who still owes an ack).
    #[must_use]
    pub fn protocol_table_txns(&self) -> Vec<TxnId> {
        match self {
            AnyEngine::Coord(e) => e.protocol_table_txns(),
            AnyEngine::Paxos(e) => e.protocol_table_txns(),
            AnyEngine::Part(_) => Vec::new(),
        }
    }

    /// Size of the protocol table, without collecting it.
    #[must_use]
    pub fn protocol_table_size(&self) -> usize {
        match self {
            AnyEngine::Coord(e) => e.protocol_table_size(),
            AnyEngine::Paxos(e) => e.protocol_table_size(),
            AnyEngine::Part(_) => 0,
        }
    }

    /// The decision this site made for `txn` (participants decide
    /// nothing — what they enforce is on [`Participant::enforced`]).
    #[must_use]
    pub fn decided(&self, txn: TxnId) -> Option<Outcome> {
        match self {
            AnyEngine::Coord(e) => e.decided(txn),
            AnyEngine::Paxos(e) => e.decided(txn),
            AnyEngine::Part(_) => None,
        }
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
