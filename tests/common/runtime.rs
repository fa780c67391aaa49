//! Helpers for the tests that drive the real-time runtimes (`acp-net`):
//! the trace projection the parity tests compare, timer-silent delays,
//! socket-node spawning, and one handle over every backend.

use presumed_any::net::{ClientHandle, ClusterReport, NetDelays, ShardSummary};
use presumed_any::obs::{event_to_json, parse_flat_json, JsonValue};
use presumed_any::prelude::*;
#[cfg(unix)]
use presumed_any::wal::tempdir::TempDir;
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Duration;

/// Delays so large that any timer firing in a clean run is a bug; the
/// protocol must make progress purely on message flow.
pub fn glacial() -> NetDelays {
    NetDelays {
        vote_timeout: Duration::from_secs(60),
        ack_resend: Duration::from_secs(60),
        inquiry_retry: Duration::from_secs(60),
        apply_retry: Duration::from_secs(60),
        paxos_completion: Duration::from_secs(60),
    }
}

/// Per-site event lines with the wall-clock fields (`at_us`,
/// `since_decision_us`) masked out. Per-site subsequences are totally
/// ordered on every backend; the global interleaving across sites is
/// scheduling noise and is not compared.
pub fn masked_site_traces(events: &[ProtocolEvent]) -> BTreeMap<u64, Vec<String>> {
    let mut by_site: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for ev in events {
        let mut map = parse_flat_json(&event_to_json(ev)).expect("trace dialect");
        map.remove("at_us");
        map.remove("since_decision_us");
        let site = map["site"].as_u64().expect("site field");
        let line = map
            .iter()
            .map(|(k, v)| match v {
                JsonValue::Num(n) => format!("\"{k}\":{n}"),
                JsonValue::Str(s) => format!("\"{k}\":{s:?}"),
            })
            .collect::<Vec<_>>()
            .join(",");
        by_site.entry(site).or_default().push(format!("{{{line}}}"));
    }
    by_site
}

/// Spawning [`SocketNode`]s that find each other through a rendezvous
/// file.
#[cfg(unix)]
pub mod sockets {
    use presumed_any::net::wire::{shared_history, SharedHistory};
    use presumed_any::prelude::*;
    use std::net::SocketAddr;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    /// Atomically (re)write the rendezvous file nodes re-read at each dial.
    pub fn write_peers(path: &Path, entries: &[(u32, SocketAddr)]) {
        let tmp = path.with_extension("tmp");
        let body: String = entries.iter().map(|(s, a)| format!("{s} {a}\n")).collect();
        std::fs::write(&tmp, body).expect("write peers");
        std::fs::rename(&tmp, path).expect("rename peers");
    }

    /// A node hosting `hosted`, finding its peers through the
    /// rendezvous file `peers`, logging under `wal_dir`.
    pub fn node_config(
        cluster: &ClusterConfig,
        hosted: &[u32],
        peers: &Path,
        wal_dir: PathBuf,
    ) -> NodeConfig {
        std::fs::create_dir_all(&wal_dir).expect("wal dir");
        NodeConfig::new(
            cluster.clone(),
            hosted.iter().map(|&s| SiteId::new(s)).collect(),
            AddressBook::File(peers.to_path_buf()),
            wal_dir,
        )
    }

    /// One node per entry of `hostings` (a process-worth of sites each),
    /// all on one shared history and sink, WALs under `dir/n<i>`, with
    /// `faults(i)` on node `i`'s outbound wire. Returns the nodes in
    /// `hostings` order once the rendezvous file names them all.
    pub fn spawn_nodes(
        cluster: &ClusterConfig,
        dir: &Path,
        hostings: &[&[u32]],
        sink: Option<Arc<dyn TraceSink>>,
        faults: impl Fn(usize) -> WireFaults,
    ) -> (Vec<SocketNode>, SharedHistory) {
        let peers = dir.join("peers");
        let history = shared_history();
        let mut nodes = Vec::new();
        let mut entries = Vec::new();
        for (i, hosted) in hostings.iter().enumerate() {
            let mut config = node_config(cluster, hosted, &peers, dir.join(format!("n{i}")));
            config.faults = faults(i);
            let node = SocketNode::spawn_with(config, sink.clone(), Arc::clone(&history))
                .expect("spawn node");
            entries.extend(hosted.iter().map(|&s| (s, node.local_addr())));
            nodes.push(node);
        }
        write_peers(&peers, &entries);
        (nodes, history)
    }
}

// ---------------------------------------------------------------------------
// One handle over every backend

/// A host of the site kernel, as a test input.
#[derive(Clone, Copy, Debug)]
pub enum Backend {
    /// [`ReactorCluster`] over this many reactors.
    Reactor(usize),
    /// Two [`SocketNode`]s over loopback TCP: the coordinator on one,
    /// every other site on the other.
    #[cfg(unix)]
    SocketPair,
}

impl Backend {
    /// Every kernel host the backend-generic suite runs a scenario on.
    pub const ALL: &'static [Backend] = &[
        Backend::Reactor(1),
        Backend::Reactor(2),
        #[cfg(unix)]
        Backend::SocketPair,
    ];

    /// Spawn `config`'s cluster on this backend, tracing into `sink`.
    pub fn spawn(self, config: &ClusterConfig, sink: Option<Arc<dyn TraceSink>>) -> Running {
        match (self, sink) {
            (Backend::Reactor(reactors), sink) => {
                let mut reactor = ReactorConfig::from(config.clone());
                reactor.reactors = reactors;
                Running::Reactor(match sink {
                    None => ReactorCluster::spawn(&reactor),
                    Some(sink) => ReactorCluster::spawn_with_sink(&reactor, sink),
                })
            }
            #[cfg(unix)]
            (Backend::SocketPair, sink) => {
                let dir = TempDir::new("socket-pair").expect("tempdir");
                let last = config.participant_protocols.len() + 2 * config.paxos_f.unwrap_or(0);
                let rest: Vec<u32> = (1..=last as u32).collect();
                let none = |_| WireFaults::none();
                let (mut nodes, history) =
                    sockets::spawn_nodes(config, dir.path(), &[&[0], &rest], sink, none);
                let sites = nodes.pop().expect("two nodes");
                let coord = nodes.pop().expect("two nodes");
                Running::Sockets {
                    coord,
                    sites,
                    history,
                    _dir: dir,
                }
            }
        }
    }
}

/// A running cluster on some [`Backend`]: the client verbs are
/// [`ClientHandle`]'s (of the node hosting the coordinator), shutdown
/// yields the [`ClusterReport`] every backend shares.
pub enum Running {
    Reactor(ReactorCluster),
    #[cfg(unix)]
    Sockets {
        coord: SocketNode,
        sites: SocketNode,
        history: presumed_any::net::wire::SharedHistory,
        _dir: TempDir,
    },
}

impl Deref for Running {
    type Target = ClientHandle;
    fn deref(&self) -> &ClientHandle {
        match self {
            Running::Reactor(c) => c,
            #[cfg(unix)]
            Running::Sockets { coord, .. } => coord,
        }
    }
}

impl DerefMut for Running {
    fn deref_mut(&mut self) -> &mut ClientHandle {
        match self {
            Running::Reactor(c) => c,
            #[cfg(unix)]
            Running::Sockets { coord, .. } => coord,
        }
    }
}

impl Running {
    /// The coordinator's site id on every backend.
    pub const COORDINATOR: SiteId = ReactorCluster::COORDINATOR;

    /// Crash `site` for `down_for`. A crash never crosses the wire (a
    /// process is the failure domain), so on the socket pair the verb
    /// goes to the node that hosts the site.
    pub fn crash(&self, site: SiteId, down_for: Duration) {
        match self {
            #[cfg(unix)]
            Running::Sockets { sites, .. } if site != Self::COORDINATOR => {
                sites.crash(site, down_for);
            }
            _ => ClientHandle::crash(self, site, down_for),
        }
    }

    /// Stop every loop and collect the cluster-wide final state.
    pub fn shutdown(self) -> ClusterReport {
        self.shutdown_per_shard().0
    }

    /// [`shutdown`](Self::shutdown), plus the reactor's per-shard
    /// breakdown (empty on the socket pair).
    pub fn shutdown_per_shard(self) -> (ClusterReport, Vec<ShardSummary>) {
        match self {
            Running::Reactor(c) => {
                let report = c.shutdown();
                (report.cluster, report.per_shard)
            }
            #[cfg(unix)]
            Running::Sockets {
                coord,
                sites,
                history,
                _dir,
            } => {
                let (a, b) = (coord.shutdown().cluster, sites.shutdown().cluster);
                let mut group_commit = a.group_commit;
                group_commit.merge(&b.group_commit);
                let history = history.lock().clone();
                let report = ClusterReport {
                    history,
                    coordinator_table_size: a.coordinator_table_size,
                    sites: a.sites.into_iter().chain(b.sites).collect(),
                    group_commit,
                    logical_forces: a.logical_forces + b.logical_forces,
                    physical_syncs: a.physical_syncs + b.physical_syncs,
                };
                (report, Vec::new())
            }
        }
    }
}
