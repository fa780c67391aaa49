//! The client facade the two hosts share.
//!
//! [`ReactorCluster`](crate::ReactorCluster) and
//! [`SocketNode`](crate::wire::SocketNode) drive their loops the same
//! way — push an addressed [`Envelope`] onto the owning loop's
//! injector — so the verbs live here once and both handles deref to a
//! [`ClientHandle`].

use crate::cluster::ClusterConfig;
use crate::envelope::Envelope;
use crate::host::{Mail, COORDINATOR};
use acp_types::{Outcome, SiteId, TxnId, Vote};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::time::Duration;

/// Make a backend's handle deref to the [`ClientHandle`] in its
/// `client` field, so callers use the shared verbs unqualified.
macro_rules! deref_to_client {
    ($handle:ty) => {
        impl std::ops::Deref for $handle {
            type Target = $crate::client::ClientHandle;
            fn deref(&self) -> &Self::Target {
                &self.client
            }
        }
        impl std::ops::DerefMut for $handle {
            fn deref_mut(&mut self) -> &mut Self::Target {
                &mut self.client
            }
        }
    };
}
pub(crate) use deref_to_client;

/// Client-side handle on one or more running event loops.
pub struct ClientHandle {
    /// Every loop's injector, by shard index.
    txs: Vec<Sender<Mail>>,
    /// Interrupts a loop that sleeps on something other than its
    /// injector (the socket node's `epoll_wait`); a no-op elsewhere.
    wake: Box<dyn Fn() + Send + Sync>,
    next_txn: u64,
    n_participants: u32,
}

impl ClientHandle {
    pub(crate) fn new(
        txs: Vec<Sender<Mail>>,
        wake: Box<dyn Fn() + Send + Sync>,
        cluster: &ClusterConfig,
    ) -> Self {
        ClientHandle {
            txs,
            wake,
            next_txn: 1,
            n_participants: cluster.participant_protocols.len() as u32,
        }
    }

    /// Allocate a fresh transaction id.
    pub fn next_txn(&mut self) -> TxnId {
        let t = TxnId::new(self.next_txn);
        self.next_txn += 1;
        t
    }

    /// Jump the allocator (restart demos give each coordinator
    /// incarnation a disjoint id range).
    pub fn set_next_txn(&mut self, next: u64) {
        self.next_txn = next;
    }

    /// All participant site ids of the cluster (hosted by the loop
    /// behind this handle or not).
    #[must_use]
    pub fn participants(&self) -> Vec<SiteId> {
        (1..=self.n_participants).map(SiteId::new).collect()
    }

    /// Hand an envelope to the loop that owns it; a crash of a sliced
    /// coordinator has no single owner and goes to every slice.
    fn send(&self, site: SiteId, envelope: Envelope) {
        match (envelope.owner_shard(site, self.txs.len()), envelope) {
            (Some(shard), envelope) => drop(self.txs[shard].send((site, envelope))),
            (None, Envelope::Crash { down_for }) => {
                for tx in &self.txs {
                    let _ = tx.send((site, Envelope::Crash { down_for }));
                }
            }
            (None, _) => unreachable!("only crash and shutdown broadcast"),
        }
        (self.wake)();
    }

    /// Ask every loop to stop.
    pub(crate) fn shutdown_all(&self) {
        for tx in &self.txs {
            let _ = tx.send((COORDINATOR, Envelope::Shutdown));
        }
        (self.wake)();
    }

    /// Write `key := value` under `txn` at `site`.
    pub fn apply(&self, site: SiteId, txn: TxnId, key: &[u8], value: &[u8]) {
        self.send(
            site,
            Envelope::Apply {
                txn,
                key: key.to_vec(),
                value: value.to_vec(),
            },
        );
    }

    /// Override the vote `site` will cast for `txn`.
    pub fn set_intent(&self, site: SiteId, txn: TxnId, vote: Vote) {
        self.send(site, Envelope::SetIntent { txn, vote });
    }

    /// Crash a site for `down_for` (on a socket node: a hosted site;
    /// the multi-process demo uses `kill -9` instead). A sliced
    /// coordinator crashes in every slice, and reads as one crash.
    pub fn crash(&self, site: SiteId, down_for: Duration) {
        self.send(site, Envelope::Crash { down_for });
    }

    /// Commit `txn` across `participants`; wait for the decision. Only
    /// meaningful on a handle whose loop hosts the coordinator.
    pub fn commit(&self, txn: TxnId, participants: &[SiteId]) -> Option<Outcome> {
        self.commit_async(txn, participants)
            .recv_timeout(Duration::from_secs(20))
            .ok()
    }

    /// Start commit processing; the returned channel yields the
    /// decision when it is durable, and disconnects if the commit was
    /// refused or its coordinator fail-stopped.
    #[must_use]
    pub fn commit_async(&self, txn: TxnId, participants: &[SiteId]) -> Receiver<Outcome> {
        let (tx, rx) = bounded(1);
        self.send(
            COORDINATOR,
            Envelope::Commit {
                txn,
                participants: participants.to_vec(),
                reply: tx,
            },
        );
        rx
    }

    /// Let in-flight work settle for `d`.
    pub fn settle(&self, d: Duration) {
        std::thread::sleep(d);
    }
}
