//! The two hosts the benchmark drives, behind the one client API both
//! already share: a `ReactorCluster`, or a pair of `SocketNode`s in
//! this process joined by loopback TCP.

use crate::spec::{Backend, Workload};
use acp_acta::History;
use acp_net::wire::{shared_history, AddressBook, NodeConfig, SharedHistory, SocketNode};
use acp_net::{ClusterConfig, NetDelays, ReactorCluster, ReactorConfig, ReactorStats, SiteSummary};
use acp_obs::{TraceSink, WireSnapshot};
use acp_types::{CoordinatorKind, Outcome, ProtocolKind, SelectionPolicy, SiteId, TxnId, Vote};
use acp_wal::tempdir::TempDir;
use acp_wal::{DomainStats, GroupCommitStats};
use crossbeam::channel::Receiver;
use std::sync::Arc;
use std::time::Duration;

/// The coordinator every workload runs, at site 0.
pub const COORDINATOR_KIND: CoordinatorKind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);

/// The participants' protocols, sites 1 to 3.
pub const PROTOCOLS: [ProtocolKind; 3] = [ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC];

/// The cluster shape every workload shares.
pub fn cluster_config(w: &Workload) -> ClusterConfig {
    let mut cc = ClusterConfig::new(COORDINATOR_KIND, &PROTOCOLS);
    cc.group_commit = true;
    cc.delays = NetDelays {
        vote_timeout: w.vote_timeout,
        ack_resend: w.retry,
        inquiry_retry: w.retry,
        apply_retry: w.retry,
        ..NetDelays::default()
    };
    cc
}

/// A running cluster.
pub enum Cluster {
    Reactor(ReactorCluster),
    SocketPair {
        /// Hosts site 0; the driver talks to this node only.
        coord: SocketNode,
        /// Hosts sites 1 to 3.
        parts: SocketNode,
        history: SharedHistory,
        /// WAL directories and the rendezvous file.
        _dir: TempDir,
    },
}

/// What a cluster hands back at shutdown, merged over its nodes.
pub struct Report {
    pub history: History,
    pub coordinator_table_size: usize,
    /// Summaries of sites 0 to 3, in site order.
    pub sites: Vec<SiteSummary>,
    pub group_commit: GroupCommitStats,
    pub physical_syncs: u64,
    pub stats: ReactorStats,
    pub fsync: DomainStats,
    /// Transport counters summed over both nodes (zero on a reactor).
    pub wire: WireSnapshot,
}

impl Cluster {
    /// Spawn a fresh cluster for `w`, its WALs under `TMPDIR` (which
    /// `main` points at the benchmark's WAL root).
    pub fn spawn(w: &Workload, sink: Option<Arc<dyn TraceSink>>) -> Result<Cluster, String> {
        let cc = cluster_config(w);
        match w.backend {
            Backend::Reactor => {
                let mut config = ReactorConfig::new(COORDINATOR_KIND, &PROTOCOLS);
                config.cluster = cc;
                Ok(Cluster::Reactor(match sink {
                    Some(sink) => ReactorCluster::spawn_with_sink(&config, sink),
                    None => ReactorCluster::spawn(&config),
                }))
            }
            Backend::SocketPair => {
                let dir = TempDir::new("socket").map_err(|e| format!("wal dir: {e}"))?;
                let peers = dir.path().join("peers");
                let history = shared_history();
                let node = |hosted: &[u32], sub: &str| -> Result<SocketNode, String> {
                    let wal_dir = dir.path().join(sub);
                    std::fs::create_dir_all(&wal_dir).map_err(|e| format!("{sub}: {e}"))?;
                    SocketNode::spawn_with(
                        NodeConfig::new(
                            cc.clone(),
                            hosted.iter().map(|&s| SiteId::new(s)).collect(),
                            AddressBook::File(peers.clone()),
                            wal_dir,
                        ),
                        sink.clone(),
                        Arc::clone(&history),
                    )
                    .map_err(|e| format!("spawn socket node {sub}: {e}"))
                };
                let coord = node(&[0], "a")?;
                let parts = node(&[1, 2, 3], "b")?;
                // Nodes re-read the rendezvous file at every dial, and
                // dial only when they first have something to send.
                let a = coord.local_addr();
                let b = parts.local_addr();
                std::fs::write(&peers, format!("0 {a}\n1 {b}\n2 {b}\n3 {b}\n"))
                    .map_err(|e| format!("peers file: {e}"))?;
                Ok(Cluster::SocketPair {
                    coord,
                    parts,
                    history,
                    _dir: dir,
                })
            }
        }
    }

    pub fn next_txn(&mut self) -> TxnId {
        match self {
            Cluster::Reactor(c) => c.next_txn(),
            Cluster::SocketPair { coord, .. } => coord.next_txn(),
        }
    }

    pub fn apply(&self, site: SiteId, txn: TxnId, key: &[u8], value: &[u8]) {
        match self {
            Cluster::Reactor(c) => c.apply(site, txn, key, value),
            Cluster::SocketPair { coord, .. } => coord.apply(site, txn, key, value),
        }
    }

    pub fn set_intent(&self, site: SiteId, txn: TxnId, vote: Vote) {
        match self {
            Cluster::Reactor(c) => c.set_intent(site, txn, vote),
            Cluster::SocketPair { coord, .. } => coord.set_intent(site, txn, vote),
        }
    }

    pub fn commit_async(&self, txn: TxnId, participants: &[SiteId]) -> Receiver<Outcome> {
        match self {
            Cluster::Reactor(c) => c.commit_async(txn, participants),
            Cluster::SocketPair { coord, .. } => coord.commit_async(txn, participants),
        }
    }

    /// Crash `site` for `down_for` (discards its unflushed log records).
    pub fn crash(&self, site: SiteId, down_for: Duration) {
        match self {
            Cluster::Reactor(c) => c.crash(site, down_for),
            Cluster::SocketPair { coord, parts, .. } => {
                if site.raw() == 0 {
                    coord.crash(site, down_for);
                } else {
                    parts.crash(site, down_for);
                }
            }
        }
    }

    pub fn shutdown(self) -> Report {
        match self {
            Cluster::Reactor(c) => {
                let r = c.shutdown();
                Report {
                    history: r.cluster.history,
                    coordinator_table_size: r.cluster.coordinator_table_size,
                    sites: r.cluster.sites,
                    group_commit: r.cluster.group_commit,
                    physical_syncs: r.cluster.physical_syncs,
                    stats: r.stats,
                    fsync: r.fsync,
                    wire: WireSnapshot::default(),
                }
            }
            Cluster::SocketPair {
                coord,
                parts,
                history,
                _dir,
            } => {
                let a = coord.shutdown();
                let b = parts.shutdown();
                let mut sites = a.cluster.sites;
                sites.extend(b.cluster.sites);
                sites.sort_by_key(|s| s.site);
                let mut group_commit = a.cluster.group_commit;
                group_commit.merge(&b.cluster.group_commit);
                let mut stats = a.stats;
                stats.merge(&b.stats);
                let mut fsync = a.fsync;
                fsync.merge(&b.fsync);
                let history = history.lock().clone();
                Report {
                    history,
                    coordinator_table_size: a.cluster.coordinator_table_size,
                    sites,
                    group_commit,
                    physical_syncs: a.cluster.physical_syncs + b.cluster.physical_syncs,
                    stats,
                    fsync,
                    wire: sum_wire(&a.wire, &b.wire),
                }
            }
        }
    }
}

fn sum_wire(a: &WireSnapshot, b: &WireSnapshot) -> WireSnapshot {
    WireSnapshot {
        frames_sent: a.frames_sent + b.frames_sent,
        frames_recv: a.frames_recv + b.frames_recv,
        bytes_sent: a.bytes_sent + b.bytes_sent,
        bytes_recv: a.bytes_recv + b.bytes_recv,
        dials: a.dials + b.dials,
        connects: a.connects + b.connects,
        accepts: a.accepts + b.accepts,
        disconnects: a.disconnects + b.disconnects,
        backpressure_drops: a.backpressure_drops + b.backpressure_drops,
        fault_drops: a.fault_drops + b.fault_drops,
        fault_delays: a.fault_delays + b.fault_delays,
        decode_errors: a.decode_errors + b.decode_errors,
        seq_regressions: a.seq_regressions + b.seq_regressions,
    }
}
