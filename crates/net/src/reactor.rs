//! The in-process host: the site-hosting kernel (`host.rs` — the turn
//! discipline lives there) on `reactors` event-loop threads, over the
//! in-process transport defined here.
//!
//! A thread per site and a mailbox hop per message is fine for a
//! handful of concurrent transactions, but thousands of in-flight
//! commits turn into context-switch churn and per-turn fsyncs (the
//! retired thread-per-site backend measured 26–46× slower at 512+
//! concurrency: `results/frozen/BENCH_runtime.json`). A reactor
//! instead owns a whole shard of sites on one thread; one reactor (the
//! default) hosts the whole cluster. The partition:
//!
//! * **Coordinator by transaction-id shard.** Coordinator state is
//!   per-transaction, so the one logical coordinator (site 0) is
//!   *sliced*: shard `s` runs a full coordinator engine, with its own
//!   WAL (`coord-s.wal`), for exactly the transactions with
//!   [`acp_core::shard_of`]`(t, N) == s`.
//! * **Participants and gateways by site id.** Site `p` lives entirely
//!   on shard `(p − 1) mod N`: its engine, storage, timers and WALs.
//!
//! Each shard owns its own timer wheel, engines and
//! [`acp_wal::FsyncDomain`], so every shard is one coalesced force
//! domain: one force round per turn however many transactions
//! progressed on it. Routing is [`Envelope::owner_shard`]: a same-shard
//! "send" is a `VecDeque::push_back` onto the kernel's ready queue, a
//! cross-shard send one lock-free channel push
//! ([`ReactorStats::mailbox_sends`]) — so one reactor never touches a
//! channel between its own sites.
//!
//! Crash semantics survive the partition because sites are never
//! split: a participant crash drops its staged records and withheld
//! sends on its one owning shard. A coordinator crash broadcasts to
//! every slice, each drops its own staged batch, and only shard 0's
//! slice narrates the crash and recovery, so the history reads as one
//! site failing.
//!
//! Observability: every shard traces into the one sink handed to
//! [`ReactorCluster::spawn_with_sink`]. Protocol costs are counted by
//! handing it an [`acp_obs::CountingSink`]: its registry's cells are
//! atomics, so the shards share one registry and the caller reads it
//! while the cluster runs. In-flight commits aggregate across shards
//! through the shared [`InflightGauge`].

use crate::client::{deref_to_client, ClientHandle};
use crate::cluster::{ClusterConfig, ClusterReport, SiteSummary};
use crate::envelope::Envelope;
use crate::host::{HostEnv, Kernel, KernelReport, Mail, Transport, COORDINATOR};
use crate::site::SharedHistory;
use acp_acta::History;
use acp_obs::TraceSink;
use acp_types::{Message, SiteId, TxnId};
use acp_wal::tempdir::TempDir;
use acp_wal::{DomainStats, GroupCommitStats};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reactor parameters: the shared cluster shape plus what only an
/// in-process host has.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Cluster shape (coordinator kind, participant protocols,
    /// gateways, delays, group commit) — identical meaning on every
    /// backend.
    pub cluster: ClusterConfig,
    /// Reactor threads (≥ 1), each one shard of the partition above.
    pub reactors: usize,
    /// Admit a client commit only while fewer than this many are in
    /// flight cluster-wide (`None` = admit everything). The engines run
    /// no-wait 2PL, so past the saturation knee extra offered load
    /// turns into abort/retry storms and goodput falls as load rises;
    /// a bound near the knee turns that cliff into a plateau. Refused
    /// commits are *shed*, not queued: queuing an open-loop stream past
    /// saturation only moves the collapse into the queue, while
    /// shedding pushes the excess back to the generator's retry policy,
    /// the component with enough context to back off. A shed is
    /// counted ([`ReactorStats::admission_sheds`], the `admission_shed`
    /// grid counter, an `AdmissionShed` trace event) and observable: the
    /// client's reply channel disconnects. An idle cluster admits under
    /// any bound ≥ 1, so clean single-transaction traces are unchanged.
    pub max_inflight: Option<u64>,
}

impl ReactorConfig {
    /// One reactor over [`ClusterConfig::new`]'s defaults, no admission
    /// bound.
    #[must_use]
    pub fn new(
        kind: acp_types::CoordinatorKind,
        participant_protocols: &[acp_types::ProtocolKind],
    ) -> Self {
        ClusterConfig::new(kind, participant_protocols).into()
    }
}

impl From<ClusterConfig> for ReactorConfig {
    /// One reactor over `cluster`, no admission bound.
    fn from(cluster: ClusterConfig) -> Self {
        ReactorConfig {
            cluster,
            reactors: 1,
            max_inflight: None,
        }
    }
}

/// Counters the reactor keeps about its own loop (not protocol costs —
/// those flow through the shared metrics registry).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReactorStats {
    /// Loop iterations that did any work.
    pub ticks: u64,
    /// Envelopes dispatched (client + site-to-site).
    pub envelopes: u64,
    /// Wheel timers fired into engines.
    pub timers_fired: u64,
    /// Wheel timers cancelled before firing (engine retirements plus
    /// crash sweeps).
    pub timers_cancelled: u64,
    /// Always 0 since PR 25, which deleted the adaptive single-record
    /// force path; kept because `benchmarks/src/run.rs` reads it.
    pub adaptive_forces: u64,
    /// Batches forced at the end of a turn.
    pub window_forces: u64,
    /// Batch forces that failed: the site's withheld sends and ACTA
    /// events were dropped, never externalized.
    pub failed_forces: u64,
    /// End-of-turn log collections that failed (a participant's
    /// store-file write, which comes first, or a GC write): nothing was
    /// released, and the next turn tries again.
    pub failed_gcs: u64,
    /// Most client commits simultaneously awaiting a decision *on this
    /// reactor*. The aggregate across shards is
    /// [`ReactorReport::max_inflight`], not the max of these (shard
    /// peaks need not coincide in time).
    pub max_inflight: usize,
    /// Decisions delivered to waiting clients.
    pub decisions_delivered: u64,
    /// Envelopes handed to another reactor's mailbox (cross-shard
    /// routing; always 0 on one reactor).
    pub mailbox_sends: u64,
    /// Client commits refused at the door (always 0 with
    /// `max_inflight: None`).
    pub admission_sheds: u64,
    /// Envelopes addressed to a hosted site inside its outage, dropped
    /// unread: the omission a crashed site's peers and clients see.
    pub dropped_while_down: u64,
}

impl ReactorStats {
    /// Fold another reactor's loop counters into this aggregate: sums
    /// everywhere except `max_inflight`, which is a per-shard peak and
    /// maxes (see the field docs for the true cluster-wide aggregate).
    pub fn merge(&mut self, other: &ReactorStats) {
        self.ticks += other.ticks;
        self.envelopes += other.envelopes;
        self.timers_fired += other.timers_fired;
        self.timers_cancelled += other.timers_cancelled;
        self.adaptive_forces += other.adaptive_forces;
        self.window_forces += other.window_forces;
        self.failed_forces += other.failed_forces;
        self.failed_gcs += other.failed_gcs;
        self.max_inflight = self.max_inflight.max(other.max_inflight);
        self.decisions_delivered += other.decisions_delivered;
        self.mailbox_sends += other.mailbox_sends;
        self.admission_sheds += other.admission_sheds;
        self.dropped_while_down += other.dropped_while_down;
    }
}

/// Client commits currently awaiting a decision, shared by every
/// reactor of a cluster. Lock-free — one relaxed `fetch_add`/`fetch_sub`
/// per commit plus a `fetch_max` to keep the high-water mark.
#[derive(Debug, Default)]
pub struct InflightGauge {
    cur: AtomicU64,
    peak: AtomicU64,
}

impl InflightGauge {
    /// A zeroed gauge.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// One more commit in flight.
    pub fn inc(&self) {
        let now = self.cur.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// `n` decisions delivered.
    pub fn dec_by(&self, n: u64) {
        self.cur.fetch_sub(n, Ordering::Relaxed);
    }

    /// Commits in flight right now.
    #[must_use]
    pub fn current(&self) -> u64 {
        self.cur.load(Ordering::Relaxed)
    }

    /// Most commits ever simultaneously in flight across the whole
    /// cluster.
    #[must_use]
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
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

/// What [`ReactorCluster::shutdown`] hands back: the report shape every
/// backend shares, merged over the shards, plus the reactors' own
/// counters.
pub struct ReactorReport {
    /// The backend-independent cluster report: one history, one
    /// coordinator summary (slices merged — table sizes summed, pinned
    /// logs concatenated), every participant exactly once.
    pub cluster: ClusterReport,
    /// Loop counters, merged with [`ReactorStats::merge`].
    pub stats: ReactorStats,
    /// Fsync-domain coalescing counters, summed over the shards (all
    /// zero when group commit is off — passthrough logs never stage a
    /// batch).
    pub fsync: DomainStats,
    /// Per-shard breakdowns, by shard index.
    pub per_shard: Vec<ShardSummary>,
    /// Most client commits simultaneously in flight across the whole
    /// cluster (the shared gauge's peak).
    pub max_inflight: u64,
}

// ---------------------------------------------------------------------------
// The in-process transport

/// Envelopes between sites of one process: this shard's own go back to
/// the kernel's ready queue, everyone else's onto the owning reactor's
/// mailbox — [`Envelope::owner_shard`] is the whole routing table.
struct Mailboxes {
    /// This reactor's shard index in a `peers.len()`-way partition.
    shard: usize,
    /// Every reactor's injector (index = shard). `peers[shard]` is this
    /// reactor's own and is never used — self-sends stay on the ready
    /// queue, which is what keeps a single reactor free of channel
    /// traffic.
    peers: Vec<Sender<Mail>>,
    /// Envelopes handed to another reactor's mailbox.
    mailbox_sends: u64,
}

impl Transport for Mailboxes {
    fn route(&mut self, _now: Instant, to: SiteId, envelope: Envelope) -> Option<Envelope> {
        let owner = envelope
            .owner_shard(to, self.peers.len())
            .unwrap_or(self.shard);
        if owner == self.shard {
            return Some(envelope);
        }
        self.mailbox_sends += 1;
        let _ = self.peers[owner].send((to, envelope));
        None
    }

    /// Only the coordinator is sliced (by transaction id); every other
    /// destination has one owner.
    fn slice_of(&self, msg: &Message) -> usize {
        if msg.to == COORDINATOR {
            acp_core::shard_of(msg.payload.txn(), self.peers.len())
        } else {
            0
        }
    }

    fn wait(&mut self, timeout: Duration, rx: &Receiver<Mail>, ready: &mut VecDeque<Mail>) -> bool {
        // Never shorter than 100 µs: a due deadline must not spin the loop.
        match rx.recv_timeout(timeout.max(Duration::from_micros(100))) {
            Ok(mail) => ready.push_back(mail),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return false,
        }
        true
    }
}

/// Build one reactor shard's sites and start its event loop. All shards
/// share one history, in-flight gauge and WAL directory (`dir`: site
/// files are disambiguated by site, coordinator slices by shard).
///
/// `peers` is every shard's injector by shard index, `env.rx` this
/// shard's own. The shard owns its slice of site 0 (the coordinator, or
/// the Paxos leader) plus the participants, gateways and Paxos
/// acceptors with `(site − 1) mod n_shards == shard`.
fn spawn_shard(
    shard: usize,
    peers: Vec<Sender<Mail>>,
    env: HostEnv,
    dir: &Path,
) -> JoinHandle<KernelReport> {
    let cc = &env.config.cluster;
    let last_site = (cc.participant_protocols.len() + 2 * cc.paxos_f.unwrap_or(0)) as u32;
    let mine = |s: &u32| (s - 1) as usize % peers.len() == shard;
    let hosted: Vec<SiteId> = std::iter::once(COORDINATOR)
        .chain((1..=last_site).filter(mine).map(SiteId::new))
        .collect();
    let mailboxes = Mailboxes {
        shard,
        peers,
        mailbox_sends: 0,
    };
    let kernel = Kernel::build(env, &hosted, dir, shard, mailboxes).expect("wal");
    std::thread::spawn(move || {
        let (mut report, mailboxes) = kernel.run();
        report.stats.mailbox_sends = mailboxes.mailbox_sends;
        report
    })
}

// ---------------------------------------------------------------------------
// Public handle

/// A running reactor cluster: the client verbs are [`ClientHandle`]'s
/// (routing each envelope to its owning reactor), `reactors` event-loop
/// threads behind it.
pub struct ReactorCluster {
    client: ClientHandle,
    handles: Vec<JoinHandle<KernelReport>>,
    history: SharedHistory,
    inflight: Arc<InflightGauge>,
    _dir: TempDir,
}

deref_to_client!(ReactorCluster);

impl ReactorCluster {
    /// The coordinator's site id.
    pub const COORDINATOR: SiteId = COORDINATOR;

    /// Spawn with tracing and metrics off.
    #[must_use]
    pub fn spawn(config: &ReactorConfig) -> ReactorCluster {
        Self::spawn_inner(config, None)
    }

    /// Spawn with a trace sink shared by every shard (same event
    /// vocabulary and formatting as every other backend and the
    /// simulator harness; events carry site ids, so per-site
    /// projections stay deterministic however shards interleave). A
    /// [`acp_obs::CountingSink`] here is the cluster's metrics surface,
    /// readable while it runs.
    #[must_use]
    pub fn spawn_with_sink(config: &ReactorConfig, sink: Arc<dyn TraceSink>) -> ReactorCluster {
        Self::spawn_inner(config, Some(sink))
    }

    fn spawn_inner(config: &ReactorConfig, sink: Option<Arc<dyn TraceSink>>) -> ReactorCluster {
        let n = config.reactors.max(1);
        let t0 = Instant::now();
        let dir = TempDir::new("reactor").expect("tempdir");
        let history: SharedHistory = Arc::new(Mutex::new(History::new()));
        let inflight = Arc::new(InflightGauge::new());
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded::<Mail>()).unzip();

        let mut handles = Vec::new();
        for (shard, rx) in rxs.into_iter().enumerate() {
            let env = HostEnv {
                config: config.clone(),
                rx,
                history: Arc::clone(&history),
                inflight: Arc::clone(&inflight),
                sink: sink.clone(),
                t0,
            };
            handles.push(spawn_shard(shard, txs.clone(), env, dir.path()));
        }

        ReactorCluster {
            client: ClientHandle::new(txs, Box::new(|| ()), &config.cluster),
            handles,
            history,
            inflight,
            _dir: dir,
        }
    }

    /// Stop every reactor and merge their final states.
    #[must_use]
    pub fn shutdown(self) -> ReactorReport {
        self.client.shutdown_all();
        let reports: Vec<KernelReport> = self
            .handles
            .into_iter()
            .map(|h| h.join().expect("reactor thread"))
            .collect();

        let mut stats = ReactorStats::default();
        let mut fsync = DomainStats::default();
        let mut group_commit = GroupCommitStats::default();
        let (mut logical_forces, mut physical_syncs, mut coordinator_table_size) = (0, 0, 0);
        let mut coord_pinned: Vec<TxnId> = Vec::new();
        let mut coord_releasable = 0;
        let mut participant_sites: BTreeMap<u32, SiteSummary> = BTreeMap::new();
        let mut per_shard = Vec::with_capacity(reports.len());
        for (shard, r) in reports.into_iter().enumerate() {
            stats.merge(&r.stats);
            fsync.merge(&r.fsync);
            group_commit.merge(&r.group_commit);
            logical_forces += r.logical_forces;
            physical_syncs += r.physical_syncs;
            coordinator_table_size += r.coordinator_table_size;
            per_shard.push(ShardSummary {
                shard,
                stats: r.stats,
                fsync: r.fsync,
                group_commit: r.group_commit,
                coordinator_table_size: r.coordinator_table_size,
                logical_forces: r.logical_forces,
                physical_syncs: r.physical_syncs,
            });
            for summary in r.sites {
                if summary.site == COORDINATOR {
                    coord_releasable = coord_releasable.max(summary.log_releasable);
                    coord_pinned.extend(summary.log_pinned);
                } else {
                    participant_sites.insert(summary.site.raw(), summary);
                }
            }
        }
        coord_pinned.sort_unstable();
        let coordinator = SiteSummary {
            site: COORDINATOR,
            enforced: BTreeMap::new(),
            log_pinned: coord_pinned,
            log_releasable: coord_releasable,
            committed: BTreeMap::new(),
        };
        let sites = std::iter::once(coordinator)
            .chain(participant_sites.into_values())
            .collect();

        // The history is shared: clone it once, after every shard has
        // stopped pushing.
        let history = self.history.lock().clone();
        ReactorReport {
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
        }
    }
}
