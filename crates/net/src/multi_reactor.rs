//! The sharded multi-reactor runtime: the E13 event loop, scaled
//! across cores.
//!
//! One reactor thread is one core's worth of commit processing; this
//! module runs N of them over the same sans-IO engines and connects
//! them with lock-free mailboxes (the crossbeam channels every shard
//! already uses as its injector). The partition:
//!
//! * **Coordinator by transaction-id shard.** Coordinator state is
//!   per-transaction — the protocol table, the timers, the log records
//!   of transaction *t* never touch those of *t′* — so the one logical
//!   coordinator (site 0) is *sliced*: shard `s` runs a full
//!   coordinator engine, with its own WAL (`coord-s.wal`), that
//!   handles exactly the transactions with
//!   [`acp_core::shard_of`]`(t, N) == s`.
//! * **Participants and gateways by site id.** Site `p` lives entirely
//!   on shard `(p − 1) mod N`: its engine, storage, timers and WAL
//!   files all belong to that reactor.
//!
//! Each shard owns its own timer wheel, engines and a per-shard
//! [`acp_wal::FsyncDomain`] — a turn-ordered leader election: the
//! turn's first forcing site leads the round, the rest follow — so
//! every shard is one coalesced force domain: one force round per turn
//! no matter how many transactions progressed on it.
//!
//! Routing is [`Envelope::owner_shard`]: anything addressed to a
//! participant goes to its owning shard; anything addressed to the
//! coordinator routes by the transaction it carries. A cross-shard
//! "send" is one lock-free channel push ([`ReactorStats::mailbox_sends`]
//! counts them); an intra-shard send stays a `VecDeque` push exactly as
//! in the single reactor — which is why `N = 1` is behaviorally
//! *identical* to [`ReactorCluster`], not merely equivalent.
//!
//! Crash semantics survive the partition because they are per-site and
//! sites are never split: a participant crash drops its staged records
//! and withheld sends together on its one owning shard. A coordinator
//! crash broadcasts — every slice is part of the one logical site 0 —
//! and each slice drops its own staged batch and withheld sends; only
//! shard 0's slice narrates the crash/recovery, so the history still
//! reads as one site failing.
//!
//! Observability: each reactor feeds its own [`MetricsRegistry`]
//! (lock-free, so this is optional — but per-reactor registries keep
//! snapshot cadence local) and pushes snapshots into a per-reactor
//! [`MetricsTimeline`]; [`MultiReactorCluster::shutdown`] merges them
//! into one deterministic sequence with
//! [`MetricsTimeline::merged`]. In-flight commits aggregate across
//! reactors through the shared
//! [`InflightGauge`](crate::reactor::InflightGauge).

use crate::client::{deref_to_client, ClientHandle};
use crate::cluster::{ClusterReport, SiteSummary};
use crate::host::{HostEnv, Mail};
use crate::reactor::{
    spawn_shard, InflightGauge, ReactorCluster, ReactorConfig, ReactorReport, ReactorStats,
};
use crate::site::SharedHistory;
use acp_acta::History;
use acp_obs::{
    CountingSink, FanoutSink, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    MetricsTimeline, TraceSink,
};
use acp_types::{SiteId, TxnId};
use acp_wal::tempdir::TempDir;
use acp_wal::{DomainStats, GroupCommitStats};
use crossbeam::channel::unbounded;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Multi-reactor parameters: the per-shard reactor configuration plus
/// the partition shape.
#[derive(Clone, Debug)]
pub struct MultiReactorConfig {
    /// Per-shard reactor configuration (cluster shape, commit window,
    /// snapshot cadence — each reactor applies it to the sites it
    /// owns).
    pub reactor: ReactorConfig,
    /// Number of reactor threads (≥ 1). `1` is exactly the
    /// single-reactor runtime.
    pub reactors: usize,
}

impl MultiReactorConfig {
    /// A partition of `reactors` shards over `reactor`'s cluster shape.
    #[must_use]
    pub fn new(reactor: ReactorConfig, reactors: usize) -> Self {
        MultiReactorConfig {
            reactor,
            reactors: reactors.max(1),
        }
    }
}

/// One shard's slice of the final report.
#[derive(Clone, Copy, Debug)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: usize,
    /// The shard's loop counters.
    pub stats: ReactorStats,
    /// The shard's fsync-domain coalescing counters — the per-shard
    /// force accounting proving each shard is one coalesced force
    /// domain.
    pub fsync: DomainStats,
    /// The shard's group-commit counters.
    pub group_commit: GroupCommitStats,
    /// Coordinator-slice protocol-table size at shutdown.
    pub coordinator_table_size: usize,
    /// Forced appends the shard's protocols requested.
    pub logical_forces: u64,
    /// Physical syncs the shard's WAL files performed.
    pub physical_syncs: u64,
}

/// What [`MultiReactorCluster::shutdown`] hands back.
pub struct MultiReactorReport {
    /// The merged, backend-independent cluster report: one history, one
    /// coordinator summary (slices merged — table sizes summed, pinned
    /// logs concatenated), every participant exactly once.
    pub cluster: ClusterReport,
    /// Merged loop counters (sums; `max_inflight` is the max of shard
    /// peaks — see [`MultiReactorReport::max_inflight`] for the true
    /// aggregate).
    pub stats: ReactorStats,
    /// Merged fsync-domain counters.
    pub fsync: DomainStats,
    /// Per-shard breakdowns, by shard index.
    pub per_shard: Vec<ShardSummary>,
    /// Most client commits simultaneously in flight across the whole
    /// cluster (the shared gauge's peak — the cross-reactor `in_flight`
    /// aggregate).
    pub max_inflight: u64,
    /// Merged metrics timeline: every shard's snapshots in one
    /// deterministic order, tagged with their shard index. Empty unless
    /// spawned with [`MultiReactorCluster::spawn_observed`].
    pub timeline: Vec<(usize, MetricsSnapshot)>,
    /// Each shard's metrics registry (empty unless observed). Protocol
    /// cost totals for the whole cluster are per-cell sums over these.
    pub registries: Vec<Arc<MetricsRegistry>>,
    /// Cluster-wide commit-latency histogram: every shard's
    /// admission-to-delivery samples merged bucket-wise (histograms
    /// aggregate commutatively, like the counter grid), so the p50 /
    /// p99 / p999 tails cover all delivered decisions.
    pub latency: HistogramSnapshot,
}

/// A running multi-reactor cluster: same client API as
/// [`ReactorCluster`] (the verbs are [`ClientHandle`]'s, routing each
/// envelope to its owning reactor), N event-loop threads behind it.
pub struct MultiReactorCluster {
    client: ClientHandle,
    handles: Vec<JoinHandle<ReactorReport>>,
    history: SharedHistory,
    inflight: Arc<InflightGauge>,
    registries: Vec<Arc<MetricsRegistry>>,
    timelines: Vec<Arc<MetricsTimeline>>,
    _dir: TempDir,
}

deref_to_client!(MultiReactorCluster);

impl MultiReactorCluster {
    /// The coordinator's site id.
    pub const COORDINATOR: SiteId = ReactorCluster::COORDINATOR;

    /// Spawn with tracing and metrics off.
    #[must_use]
    pub fn spawn(config: &MultiReactorConfig) -> MultiReactorCluster {
        Self::spawn_inner(config, None, false)
    }

    /// Spawn with a trace sink shared by every shard (events carry site
    /// ids, so per-site trace projections stay deterministic even
    /// though shards interleave their writes).
    #[must_use]
    pub fn spawn_with_sink(
        config: &MultiReactorConfig,
        sink: Arc<dyn TraceSink>,
    ) -> MultiReactorCluster {
        Self::spawn_inner(config, Some(sink), false)
    }

    /// Spawn with a live metrics surface: each shard gets its own
    /// [`MetricsRegistry`] fed by a per-shard
    /// [`CountingSink`] (fanned out with `sink`, if given) and
    /// snapshots it into its own [`MetricsTimeline`] on the configured
    /// cadence. The final report merges the timelines.
    #[must_use]
    pub fn spawn_observed(
        config: &MultiReactorConfig,
        sink: Option<Arc<dyn TraceSink>>,
    ) -> MultiReactorCluster {
        Self::spawn_inner(config, sink, true)
    }

    fn spawn_inner(
        config: &MultiReactorConfig,
        sink: Option<Arc<dyn TraceSink>>,
        observed: bool,
    ) -> MultiReactorCluster {
        let n = config.reactors.max(1);
        let t0 = Instant::now();
        let dir = TempDir::new("multi-reactor").expect("tempdir");
        let history: SharedHistory = Arc::new(Mutex::new(History::new()));
        let inflight = Arc::new(InflightGauge::new());

        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded::<Mail>()).unzip();

        let mut registries = Vec::new();
        let mut timelines = Vec::new();
        let mut handles = Vec::new();
        for (shard, rx) in rxs.into_iter().enumerate() {
            let (shard_sink, snapshots) = if observed {
                let registry = Arc::new(MetricsRegistry::new());
                let timeline = Arc::new(MetricsTimeline::new());
                let counting: Arc<dyn TraceSink> =
                    Arc::new(CountingSink::new(Arc::clone(&registry)));
                let shard_sink: Arc<dyn TraceSink> = match &sink {
                    Some(user) => {
                        Arc::new(FanoutSink::new(vec![Arc::clone(user), counting]))
                    }
                    None => counting,
                };
                registries.push(Arc::clone(&registry));
                timelines.push(Arc::clone(&timeline));
                (Some(shard_sink), Some((registry, timeline)))
            } else {
                (sink.clone(), None)
            };
            let env = HostEnv {
                config: config.reactor.clone(),
                rx,
                history: Arc::clone(&history),
                inflight: Arc::clone(&inflight),
                sink: shard_sink,
                snapshots,
                t0,
            };
            handles.push(spawn_shard(shard, txs.clone(), env, dir.path()));
        }

        MultiReactorCluster {
            client: ClientHandle::new(txs, Box::new(|| ()), &config.reactor.cluster),
            handles,
            history,
            inflight,
            registries,
            timelines,
            _dir: dir,
        }
    }

    /// Number of reactor threads.
    #[must_use]
    pub fn reactors(&self) -> usize {
        self.handles.len()
    }

    /// Commits currently awaiting a decision, cluster-wide.
    #[must_use]
    pub fn inflight(&self) -> u64 {
        self.inflight.current()
    }

    /// Stop every reactor and merge their final states.
    #[must_use]
    pub fn shutdown(self) -> MultiReactorReport {
        self.client.shutdown_all();
        let reports: Vec<ReactorReport> = self
            .handles
            .into_iter()
            .map(|h| h.join().expect("reactor thread"))
            .collect();

        // The history is shared — clone it once, after every shard has
        // stopped pushing, instead of trusting any one shard's clone.
        let history = self.history.lock().clone();

        let mut stats = ReactorStats::default();
        let mut fsync = DomainStats::default();
        let mut group_commit = GroupCommitStats::default();
        let mut logical_forces = 0;
        let mut physical_syncs = 0;
        let mut coordinator_table_size = 0;
        let mut coord_pinned: Vec<TxnId> = Vec::new();
        let mut participant_sites: BTreeMap<u32, SiteSummary> = BTreeMap::new();
        let mut per_shard = Vec::new();
        let mut latency = HistogramSnapshot::new();

        for (shard, r) in reports.into_iter().enumerate() {
            stats.merge(&r.stats);
            fsync.merge(&r.fsync);
            latency.merge(&r.latency);
            group_commit.merge(&r.cluster.group_commit);
            logical_forces += r.cluster.logical_forces;
            physical_syncs += r.cluster.physical_syncs;
            coordinator_table_size += r.cluster.coordinator_table_size;
            per_shard.push(ShardSummary {
                shard,
                stats: r.stats,
                fsync: r.fsync,
                group_commit: r.cluster.group_commit,
                coordinator_table_size: r.cluster.coordinator_table_size,
                logical_forces: r.cluster.logical_forces,
                physical_syncs: r.cluster.physical_syncs,
            });
            for summary in r.cluster.sites {
                if summary.site == Self::COORDINATOR {
                    coord_pinned.extend(summary.log_pinned);
                } else {
                    participant_sites.insert(summary.site.raw(), summary);
                }
            }
        }
        coord_pinned.sort_unstable();

        let mut sites = Vec::with_capacity(participant_sites.len() + 1);
        sites.push(SiteSummary {
            site: Self::COORDINATOR,
            enforced: BTreeMap::new(),
            log_pinned: coord_pinned,
            committed: BTreeMap::new(),
        });
        sites.extend(participant_sites.into_values());

        let timeline =
            MetricsTimeline::merged(&self.timelines.iter().map(Arc::as_ref).collect::<Vec<_>>());

        MultiReactorReport {
            cluster: ClusterReport {
                history,
                coordinator_table_size,
                sites,
                group_commit,
                logical_forces,
                physical_syncs,
            },
            stats,
            fsync,
            per_shard,
            max_inflight: self.inflight.peak(),
            timeline,
            registries: self.registries,
            latency,
        }
    }
}
