//! The runtime-internal message vocabulary: everything a hosted site
//! can be handed, on both hosts.
//!
//! An [`Envelope`] is the unit every runtime moves — the reactor pushes
//! them onto ready queues and shard mailboxes, and the socket backend re-encodes the subset that may leave the process as
//! [`crate::wire::WireMsg`] frames. The variants split into three
//! kinds with different reach:
//!
//! * **protocol traffic** ([`Envelope::Protocol`],
//!   [`Envelope::ProtocolBatch`]) — the paper's messages, site to
//!   site; crosses shard mailboxes and the wire;
//! * **client verbs** ([`Envelope::Apply`], [`Envelope::SetIntent`],
//!   [`Envelope::Commit`]) — workload injection; `Apply`/`SetIntent`
//!   cross the wire, `Commit` never does (its `reply` channel only
//!   means something to the node hosting the coordinator);
//! * **host control** ([`Envelope::Crash`], [`Envelope::Shutdown`]) —
//!   fault injection and teardown; strictly process-local (on the
//!   socket backend a *process* is the failure domain, so crashing a
//!   hosted site severs that node's connections instead of sending
//!   anything).
//!
//! [`Envelope::owner_shard`] is the reactor's routing table; see
//! its docs for the slicing rules.

use acp_core::shard_of;
use acp_types::{Message, Outcome, SiteId, TxnId, Vote};
use crossbeam::channel::Sender;
use std::time::Duration;

/// Everything a site thread can receive.
pub enum Envelope {
    /// A protocol message from another site.
    Protocol(Message),
    /// Several protocol messages from one site, externalized together
    /// after a single group-commit force (ack piggybacking): the
    /// receiver processes them as if they arrived back-to-back.
    ProtocolBatch(Vec<Message>),
    /// Client data operation: upsert `key := value` under `txn` at this
    /// participant.
    Apply {
        /// The transaction.
        txn: TxnId,
        /// Key to write.
        key: Vec<u8>,
        /// New value.
        value: Vec<u8>,
    },
    /// Client override of the vote this participant will cast for `txn`
    /// (test/benchmark hook; defaults derive from the engine state).
    SetIntent {
        /// The transaction.
        txn: TxnId,
        /// The vote to cast.
        vote: Vote,
    },
    /// Client request to the coordinator: run commit processing for
    /// `txn` across `participants` and report the decision.
    Commit {
        /// The transaction.
        txn: TxnId,
        /// Participant sites.
        participants: Vec<acp_types::SiteId>,
        /// Where to deliver the decision.
        reply: Sender<Outcome>,
    },
    /// Fault injection: fail-stop now, recover after `down_for`.
    Crash {
        /// Outage duration.
        down_for: Duration,
    },
    /// Orderly shutdown (the thread returns its final state).
    Shutdown,
}

impl Envelope {
    /// The reactor shard that owns this envelope when it is addressed
    /// to `to` in an `n_shards`-way partition, or `None` for envelopes
    /// that must be broadcast to every shard.
    ///
    /// This is the reactor's whole routing table:
    ///
    /// * participants and gateways live on one shard each —
    ///   `(site − 1) mod n_shards` — so anything addressed to them has
    ///   a unique owner;
    /// * the coordinator (site 0) is *sliced* across every shard by
    ///   transaction id ([`shard_of`]), so coordinator-bound envelopes
    ///   route by the transaction they carry (a [`Envelope::ProtocolBatch`]
    ///   routes by its first message — senders group batches per owner
    ///   shard, so every message in a batch has the same owner);
    /// * a coordinator crash and a shutdown have no transaction: every
    ///   shard's coordinator slice is part of the one logical site 0,
    ///   so those broadcast (`None`).
    #[must_use]
    pub fn owner_shard(&self, to: SiteId, n_shards: usize) -> Option<usize> {
        if n_shards <= 1 {
            return Some(0);
        }
        if to.raw() != 0 {
            return match self {
                Envelope::Shutdown => None,
                _ => Some((to.raw() as usize - 1) % n_shards),
            };
        }
        match self {
            Envelope::Protocol(msg) => Some(shard_of(msg.payload.txn(), n_shards)),
            Envelope::ProtocolBatch(msgs) => {
                msgs.first().map(|m| shard_of(m.payload.txn(), n_shards))
            }
            Envelope::Apply { txn, .. }
            | Envelope::SetIntent { txn, .. }
            | Envelope::Commit { txn, .. } => Some(shard_of(*txn, n_shards)),
            Envelope::Crash { .. } | Envelope::Shutdown => None,
        }
    }
}
