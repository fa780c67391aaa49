//! The cluster shape every backend is configured with, and the report
//! every backend shuts down to.

use crate::site::NetDelays;
use acp_acta::History;
use acp_types::{CoordinatorKind, Outcome, ProtocolKind, SiteId, TxnId};
use acp_wal::GroupCommitStats;
use std::collections::BTreeMap;

/// Cluster parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// The coordinator variant.
    pub kind: CoordinatorKind,
    /// Participant protocols (sites 1..=n; the coordinator is site 0).
    pub participant_protocols: Vec<ProtocolKind>,
    /// Sites (by index into `participant_protocols`) that are *gateways*
    /// fronting legacy systems rather than native participants. The
    /// protocol at that index becomes the dialect the gateway speaks.
    pub gateways: Vec<usize>,
    /// Timer delays.
    pub delays: NetDelays,
    /// Group-commit batching: when `true`, every site's protocol log
    /// defers forced appends within a turn and makes them durable with
    /// one fsync before any message is externalized, and
    /// same-destination sends from one turn travel as a single
    /// [`Envelope::ProtocolBatch`](crate::Envelope::ProtocolBatch).
    /// When `false` (the default) every forced append is its own
    /// fsync and every send leaves at once.
    pub group_commit: bool,
    /// Replicated-coordinator shape: `Some(f)` replaces the single
    /// coordinator at site 0 with a Paxos Commit leader/acceptor and
    /// adds `2f` remote acceptor sites at `N+1 ..= N+2f` (where `N` is
    /// the participant count), tolerating `f` acceptor fail-stops.
    /// `kind` is ignored in that case. Every backend runs the shape.
    pub paxos_f: Option<usize>,
}

impl ClusterConfig {
    /// Default delays with the given kind and population.
    #[must_use]
    pub fn new(kind: CoordinatorKind, participant_protocols: &[ProtocolKind]) -> Self {
        ClusterConfig {
            kind,
            participant_protocols: participant_protocols.to_vec(),
            gateways: Vec::new(),
            delays: NetDelays::default(),
            group_commit: false,
            paxos_f: None,
        }
    }
}

/// End-of-run summary for one site.
#[derive(Clone, Debug)]
pub struct SiteSummary {
    /// The site.
    pub site: SiteId,
    /// Outcomes enforced at the site (participants and gateways).
    pub enforced: BTreeMap<TxnId, Outcome>,
    /// Transactions still pinning the site's protocol log.
    pub log_pinned: Vec<TxnId>,
    /// Releasable records the site's protocol log still holds: the
    /// backlog the kernel's collection cadence measures against
    /// [`GC_RECORDS`](crate::GC_RECORDS) — durable ones at the
    /// coordinator and a Paxos member, durable or buffered at a native
    /// participant, and 0 at a gateway, whose log is not collected. For
    /// a coordinator sliced over N reactors, the largest slice's.
    pub log_releasable: u64,
    /// Committed key-value pairs (participants; a gateway's legacy
    /// system).
    pub committed: BTreeMap<Vec<u8>, Vec<u8>>,
}

/// What the cluster hands back at shutdown.
pub struct ClusterReport {
    /// The global ACTA history.
    pub history: History,
    /// Coordinator protocol-table size at shutdown.
    pub coordinator_table_size: usize,
    /// Per-site summaries.
    pub sites: Vec<SiteSummary>,
    /// Group-commit batching counters summed over every site —
    /// coordinator, Paxos members, participants and gateways (all zero
    /// when batching is off).
    pub group_commit: GroupCommitStats,
    /// Forced appends the protocol engines requested (logical forces),
    /// summed over every site.
    pub logical_forces: u64,
    /// Physical syncs the protocol logs performed, summed likewise:
    /// batch forces plus unbatched/lazy flushes.
    pub physical_syncs: u64,
}
