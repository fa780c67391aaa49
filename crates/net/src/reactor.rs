//! The reactor runtime: a single-threaded event loop driving every
//! site of a cluster over the sans-IO engines.
//!
//! A thread per site and a mailbox hop per message is fine for a
//! handful of concurrent transactions, but thousands of in-flight
//! commits turn into context-switch churn and per-turn fsyncs (the
//! retired thread-per-site backend measured 26–46× slower at 512+
//! concurrency: `results/frozen/BENCH_runtime.json`). The reactor
//! instead owns *all* sites on one thread: it is the site-hosting
//! kernel ([`crate::host`] — the turn discipline lives there) over the
//! in-process transport defined here, where a same-shard "send" is a
//! `VecDeque::push_back` onto the kernel's ready queue and a
//! cross-shard send is one push onto the owning reactor's mailbox.
//!
//! This module keeps what is the reactor's own: its configuration and
//! loop counters, the snapshot cadence, the cluster-wide in-flight
//! gauge, the transport, and the [`ReactorCluster`] handle.

use crate::admission::AdmissionConfig;
use crate::client::{deref_to_client, ClientHandle};
use crate::cluster::{ClusterConfig, ClusterReport};
use crate::envelope::Envelope;
use crate::host::{HostEnv, Kernel, Mail, Transport, COORDINATOR};
use acp_acta::History;
use acp_obs::{HistogramSnapshot, MetricsRegistry, MetricsTimeline, TraceSink};
use acp_types::{Message, SiteId};
use acp_wal::tempdir::TempDir;
use acp_wal::DomainStats;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reactor parameters: the shared cluster shape plus the knobs that
/// only make sense for a tick loop.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Cluster shape (coordinator kind, participant protocols,
    /// gateways, delays, group commit) — identical meaning on every
    /// backend.
    pub cluster: ClusterConfig,
    /// How long a group-commit batch may stay open across ticks waiting
    /// for more records (`ZERO` = force at the end of every tick).
    /// Only meaningful with `cluster.group_commit` on.
    pub commit_window: Duration,
    /// Adaptive window: a batch holding a *single* forced record with
    /// no other work pending forces immediately instead of waiting out
    /// `commit_window` — single-transaction latency stays flat and the
    /// trace stays byte-identical to the unwindowed run.
    pub adaptive_window: bool,
    /// Snapshot the metrics registry into the timeline every this many
    /// working ticks (0 = off). Needs [`ReactorCluster::spawn_observed`].
    pub snapshot_every_ticks: u64,
    /// Also snapshot after this many delivered decisions (0 = off).
    pub snapshot_every_commits: u64,
    /// Admission bounds (`None` = admit everything, the historical
    /// behavior). A refused commit is a counted, observable shed — see
    /// [`crate::admission`]. Clean single-transaction runs are
    /// admission-invariant: an idle cluster admits under any bound, so
    /// enabling this does not perturb committed traces.
    pub admission: Option<AdmissionConfig>,
}

impl ReactorConfig {
    /// Defaults mirroring [`ClusterConfig::new`]: no batching window,
    /// adaptive on, snapshots off.
    #[must_use]
    pub fn new(
        kind: acp_types::CoordinatorKind,
        participant_protocols: &[acp_types::ProtocolKind],
    ) -> Self {
        ReactorConfig {
            cluster: ClusterConfig::new(kind, participant_protocols),
            commit_window: Duration::ZERO,
            adaptive_window: true,
            snapshot_every_ticks: 0,
            snapshot_every_commits: 0,
            admission: None,
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
    /// Batches forced by the adaptive single-record fast path.
    pub adaptive_forces: u64,
    /// Batches forced because their window expired or the tick ended.
    pub window_forces: u64,
    /// Batch forces that failed: the site's withheld sends and ACTA
    /// events were dropped, never externalized.
    pub failed_forces: u64,
    /// Most client commits simultaneously awaiting a decision *on this
    /// reactor*. The aggregate across a multi-reactor cluster is the
    /// shared [`InflightGauge`]'s peak, not the sum of these (shard
    /// peaks need not coincide in time).
    pub max_inflight: usize,
    /// Decisions delivered to waiting clients.
    pub decisions_delivered: u64,
    /// Envelopes handed to another reactor's mailbox (cross-shard
    /// routing; always 0 on a single-reactor cluster).
    pub mailbox_sends: u64,
    /// Client commits refused at the door by the admission controller
    /// (always 0 with `admission: None`).
    pub admission_sheds: u64,
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
        self.max_inflight = self.max_inflight.max(other.max_inflight);
        self.decisions_delivered += other.decisions_delivered;
        self.mailbox_sends += other.mailbox_sends;
        self.admission_sheds += other.admission_sheds;
    }
}

/// Deterministic composition of the two snapshot triggers.
///
/// The reactor can snapshot its metrics registry every
/// `snapshot_every_ticks` working ticks, every
/// `snapshot_every_commits` delivered decisions, or both. The two
/// triggers compose with a pinned tie-break so merged multi-reactor
/// timelines have a stable per-reactor snapshot sequence:
///
/// 1. Both triggers are evaluated once per working tick, tick trigger
///    first (the tick count is the loop's own clock; commits are
///    events within it).
/// 2. When both fire on the same tick, exactly **one** snapshot is
///    taken — the triggers coalesce, they never double-snapshot.
/// 3. The pending-commit counter resets **only when the commit trigger
///    itself fired**. A tick-triggered snapshot does not absorb
///    pending commits, so the commit cadence is independent of the
///    tick cadence: M delivered commits always produce
///    `⌊M / snapshot_every_commits⌋` commit-trigger firings no matter
///    how the tick trigger interleaves.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotCadence {
    every_ticks: u64,
    every_commits: u64,
    commits_pending: u64,
}

impl SnapshotCadence {
    /// A cadence from the two trigger periods (0 disables a trigger).
    #[must_use]
    pub fn new(every_ticks: u64, every_commits: u64) -> Self {
        SnapshotCadence {
            every_ticks,
            every_commits,
            commits_pending: 0,
        }
    }

    /// Record `n` delivered decisions toward the commit trigger.
    pub fn on_commits(&mut self, n: u64) {
        self.commits_pending += n;
    }

    /// Evaluate both triggers at the end of working tick number
    /// `ticks`. Returns whether to take (one) snapshot now.
    pub fn on_tick(&mut self, ticks: u64) -> bool {
        let by_ticks = self.every_ticks > 0 && ticks % self.every_ticks == 0;
        let by_commits = self.every_commits > 0 && self.commits_pending >= self.every_commits;
        if by_commits {
            self.commits_pending = 0;
        }
        by_ticks || by_commits
    }
}

/// Client commits currently awaiting a decision, shared by every
/// reactor of a cluster: the `in_flight` aggregate the multi-reactor
/// report exposes. Lock-free — one relaxed `fetch_add`/`fetch_sub` per
/// commit plus a `fetch_max` to keep the high-water mark.
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

/// What [`ReactorCluster::shutdown`] hands back: the report shape every
/// backend shares plus the reactor's own loop counters.
pub struct ReactorReport {
    /// The backend-independent cluster report.
    pub cluster: ClusterReport,
    /// Reactor loop counters.
    pub stats: ReactorStats,
    /// This reactor's fsync-domain coalescing counters (all zero when
    /// group commit is off — passthrough logs never stage a batch).
    pub fsync: DomainStats,
    /// Commit latency of every decision this reactor delivered,
    /// admission-to-delivery in microseconds. Merge per-shard
    /// snapshots bucket-wise for the cluster-wide tail.
    pub latency: HistogramSnapshot,
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
    /// queue, which is what keeps the single-reactor hot path free of
    /// channel traffic.
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

// ---------------------------------------------------------------------------
// Shard spawning

/// Build one reactor shard's sites and start its event loop. The
/// single-reactor [`ReactorCluster`] is the 1-shard special case;
/// [`crate::multi_reactor::MultiReactorCluster`] spawns N of these over
/// one shared history, in-flight gauge and WAL directory (`dir`: site
/// files are disambiguated by site, coordinator slices by shard).
///
/// `peers` is every shard's injector by shard index, `env.rx` this
/// shard's own. The shard owns its slice of site 0 (the coordinator, or
/// the Paxos leader) plus the participants, gateways and Paxos
/// acceptors with `(site − 1) mod n_shards == shard`.
pub(crate) fn spawn_shard(
    shard: usize,
    peers: Vec<Sender<Mail>>,
    env: HostEnv,
    dir: &Path,
) -> JoinHandle<ReactorReport> {
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

/// A running reactor: the client verbs are [`ClientHandle`]'s, one
/// background thread hosts the whole cluster.
pub struct ReactorCluster {
    client: ClientHandle,
    handle: JoinHandle<ReactorReport>,
    _dir: TempDir,
}

deref_to_client!(ReactorCluster);

impl ReactorCluster {
    /// The coordinator's site id.
    pub const COORDINATOR: SiteId = COORDINATOR;

    /// Spawn a reactor cluster with tracing off.
    #[must_use]
    pub fn spawn(config: &ReactorConfig) -> ReactorCluster {
        Self::spawn_inner(config, None, None)
    }

    /// Spawn with a trace sink (same event vocabulary and formatting as
    /// every other backend and the simulator harness).
    #[must_use]
    pub fn spawn_with_sink(config: &ReactorConfig, sink: Arc<dyn TraceSink>) -> ReactorCluster {
        Self::spawn_inner(config, Some(sink), None)
    }

    /// Spawn with a sink *and* a live metrics surface: the reactor
    /// snapshots `registry` into `timeline` per the config's snapshot
    /// cadence (the caller is responsible for feeding the registry,
    /// typically by including a `CountingSink` in `sink`).
    #[must_use]
    pub fn spawn_observed(
        config: &ReactorConfig,
        sink: Arc<dyn TraceSink>,
        registry: Arc<MetricsRegistry>,
        timeline: Arc<MetricsTimeline>,
    ) -> ReactorCluster {
        Self::spawn_inner(config, Some(sink), Some((registry, timeline)))
    }

    fn spawn_inner(
        config: &ReactorConfig,
        sink: Option<Arc<dyn TraceSink>>,
        snapshots: Option<(Arc<MetricsRegistry>, Arc<MetricsTimeline>)>,
    ) -> ReactorCluster {
        let dir = TempDir::new("reactor").expect("tempdir");
        let (tx, rx) = unbounded();
        let env = HostEnv {
            config: config.clone(),
            rx,
            history: Arc::new(Mutex::new(History::new())),
            inflight: Arc::new(InflightGauge::new()),
            sink,
            snapshots,
            t0: Instant::now(),
        };
        let handle = spawn_shard(0, vec![tx.clone()], env, dir.path());
        ReactorCluster {
            client: ClientHandle::new(vec![tx], Box::new(|| ()), &config.cluster),
            handle,
            _dir: dir,
        }
    }

    /// Stop the reactor and collect the final state.
    #[must_use]
    pub fn shutdown(self) -> ReactorReport {
        self.client.shutdown_all();
        self.handle.join().expect("reactor thread")
    }
}
