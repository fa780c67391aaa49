//! Cluster orchestration: spawn, drive and shut down a set of site
//! threads.

use crate::actor::{
    run_coordinator, run_gateway, run_participant, CoordinatorFinal, GatewayFinal, NetDelays,
    NetObs, ParticipantFinal, Routes, SharedHistory,
};
use crate::envelope::Envelope;
use acp_acta::History;
use acp_core::{Coordinator, GatewayParticipant, LegacyStore, Participant};
use acp_engine::SiteEngine;
use acp_obs::{ProtoLabel, TraceSink};
use acp_types::{CoordinatorKind, Outcome, ProtocolKind, SiteId, TxnId, Vote};
use acp_wal::tempdir::TempDir;
use acp_wal::{FileLog, GroupCommitLog, GroupCommitStats};
use crossbeam::channel::{bounded, unbounded, Sender};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
    /// Group-commit batching: when `true`, coordinator and participant
    /// protocol logs defer forced appends within an actor turn and make
    /// them durable with one fsync before any message is externalized,
    /// and same-destination sends from one turn travel as a single
    /// [`Envelope::ProtocolBatch`]. When `false` (the default) the
    /// runtime behaves exactly as before, byte for byte.
    pub group_commit: bool,
    /// Replicated-coordinator shape: `Some(f)` replaces the single
    /// coordinator at site 0 with a Paxos Commit leader/acceptor and
    /// adds `2f` remote acceptor sites at `N+1 ..= N+2f` (where `N` is
    /// the participant count), tolerating `f` acceptor fail-stops.
    /// `kind` is ignored in that case. Every kernel-hosted backend
    /// (reactor, multi-reactor, socket) runs the shape; only the
    /// threaded backend rejects it.
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

    /// The Paxos acceptor roster implied by `paxos_f`: site 0 (the
    /// initial leader) plus the `2f` dedicated acceptor sites past the
    /// participants. Empty when the cluster runs a classic coordinator.
    #[must_use]
    pub fn paxos_acceptor_sites(&self) -> Vec<SiteId> {
        let Some(f) = self.paxos_f else {
            return Vec::new();
        };
        let n = self.participant_protocols.len() as u32;
        std::iter::once(SiteId::new(0))
            .chain((n + 1..=n + 2 * f as u32).map(SiteId::new))
            .collect()
    }
}

/// End-of-run summary for one site.
#[derive(Clone, Debug)]
pub struct SiteSummary {
    /// The site.
    pub site: SiteId,
    /// Outcomes enforced at the site (participants only).
    pub enforced: BTreeMap<TxnId, Outcome>,
    /// Transactions still pinning the site's protocol log.
    pub log_pinned: Vec<TxnId>,
    /// Committed key-value pairs (participants only).
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
    /// Group-commit batching counters summed over the coordinator and
    /// every native participant (all zero when batching is off).
    pub group_commit: GroupCommitStats,
    /// Forced appends the protocol engines requested (logical forces),
    /// summed over the coordinator and every native participant.
    pub logical_forces: u64,
    /// Physical syncs the protocol logs performed, summed likewise:
    /// batch forces plus unbatched/lazy flushes.
    pub physical_syncs: u64,
}

enum SiteHandle {
    Coord(JoinHandle<CoordinatorFinal>),
    Part(JoinHandle<ParticipantFinal>),
    Gateway(JoinHandle<GatewayFinal>),
}

/// A running cluster of site threads.
pub struct Cluster {
    routes: Routes,
    handles: Vec<(SiteId, SiteHandle)>,
    history: SharedHistory,
    next_txn: u64,
    _dir: TempDir,
}

impl Cluster {
    /// The coordinator's site id.
    pub const COORDINATOR: SiteId = SiteId(0);

    /// Spawn a cluster: one coordinator thread and one thread per
    /// participant, each with file-backed logs under a fresh temp dir.
    #[must_use]
    pub fn spawn(config: &ClusterConfig) -> Cluster {
        Self::spawn_inner(config, None)
    }

    /// Spawn a cluster whose sites stream typed protocol events to
    /// `sink` (timestamps are microseconds since spawn). The sink must
    /// tolerate concurrent `record` calls — every site thread shares
    /// it.
    #[must_use]
    pub fn spawn_with_sink(config: &ClusterConfig, sink: Arc<dyn TraceSink>) -> Cluster {
        Self::spawn_inner(config, Some(sink))
    }

    fn spawn_inner(config: &ClusterConfig, sink: Option<Arc<dyn TraceSink>>) -> Cluster {
        assert!(
            config.paxos_f.is_none(),
            "the threaded backend hosts no paxos acceptors; use a reactor or the socket backend"
        );
        let t0 = std::time::Instant::now();
        let obs_for = |proto: ProtoLabel| {
            sink.as_ref().map(|s| NetObs {
                sink: Arc::clone(s),
                t0,
                proto,
            })
        };
        let dir = TempDir::new("cluster").expect("tempdir");
        let history: SharedHistory = Arc::new(Mutex::new(History::new()));

        let mut senders: BTreeMap<SiteId, Sender<Envelope>> = BTreeMap::new();
        let mut receivers = Vec::new();
        let coord_site = Self::COORDINATOR;
        let participant_sites: Vec<SiteId> = (1..=config.participant_protocols.len() as u32)
            .map(SiteId::new)
            .collect();
        for &site in std::iter::once(&coord_site).chain(participant_sites.iter()) {
            let (tx, rx) = unbounded();
            senders.insert(site, tx);
            receivers.push((site, rx));
        }
        let routes: Routes = Arc::new(senders);

        // Protocol logs go behind the group-commit layer; passthrough
        // mode is bit-identical to the bare FileLog.
        let wrap = |log: FileLog| {
            if config.group_commit {
                GroupCommitLog::deferred(log)
            } else {
                GroupCommitLog::passthrough(log)
            }
        };
        let mut handles = Vec::new();
        for (site, rx) in receivers {
            if site == coord_site {
                let mut engine = Coordinator::new(
                    site,
                    config.kind,
                    wrap(FileLog::create(dir.path().join("coord.wal")).expect("wal")),
                );
                for (i, &p) in config.participant_protocols.iter().enumerate() {
                    engine.register_site(SiteId::new(i as u32 + 1), p);
                }
                let routes = Arc::clone(&routes);
                let history = Arc::clone(&history);
                let delays = config.delays;
                let obs = obs_for(ProtoLabel::of_coordinator(config.kind));
                handles.push((
                    site,
                    SiteHandle::Coord(std::thread::spawn(move || {
                        run_coordinator(site, engine, rx, routes, history, delays, obs)
                    })),
                ));
            } else if config.gateways.contains(&(site.raw() as usize - 1)) {
                let proto = config.participant_protocols[site.raw() as usize - 1];
                let engine = GatewayParticipant::new(
                    site,
                    proto,
                    FileLog::create(dir.path().join(format!("gw-{}.wal", site.raw())))
                        .expect("wal"),
                    LegacyStore::new(),
                );
                let routes = Arc::clone(&routes);
                let history = Arc::clone(&history);
                let delays = config.delays;
                let obs = obs_for(ProtoLabel::Gateway);
                handles.push((
                    site,
                    SiteHandle::Gateway(std::thread::spawn(move || {
                        run_gateway(site, engine, rx, routes, history, delays, obs)
                    })),
                ));
            } else {
                let proto = config.participant_protocols[site.raw() as usize - 1];
                let engine = Participant::new(
                    site,
                    proto,
                    wrap(
                        FileLog::create(dir.path().join(format!("part-{}.wal", site.raw())))
                            .expect("wal"),
                    ),
                );
                let storage = SiteEngine::new(
                    FileLog::create(dir.path().join(format!("data-{}.wal", site.raw())))
                        .expect("wal"),
                );
                let routes = Arc::clone(&routes);
                let history = Arc::clone(&history);
                let delays = config.delays;
                let obs = obs_for(ProtoLabel::of_participant(proto));
                handles.push((
                    site,
                    SiteHandle::Part(std::thread::spawn(move || {
                        run_participant(site, engine, storage, rx, routes, history, delays, obs)
                    })),
                ));
            }
        }

        Cluster {
            routes,
            handles,
            history,
            next_txn: 1,
            _dir: dir,
        }
    }

    /// Allocate a fresh transaction id.
    pub fn next_txn(&mut self) -> TxnId {
        let t = TxnId::new(self.next_txn);
        self.next_txn += 1;
        t
    }

    /// All participant site ids.
    #[must_use]
    pub fn participants(&self) -> Vec<SiteId> {
        self.routes
            .keys()
            .copied()
            .filter(|s| *s != Self::COORDINATOR)
            .collect()
    }

    fn send(&self, site: SiteId, envelope: Envelope) {
        if let Some(tx) = self.routes.get(&site) {
            let _ = tx.send(envelope);
        }
    }

    /// Write `key := value` under `txn` at `site` (buffered until the
    /// transaction commits).
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

    /// Crash a site for `down_for`.
    pub fn crash(&self, site: SiteId, down_for: Duration) {
        self.send(site, Envelope::Crash { down_for });
    }

    /// Ask the coordinator to commit `txn` across `participants` and
    /// wait for the decision (with a generous timeout).
    pub fn commit(&self, txn: TxnId, participants: &[SiteId]) -> Option<Outcome> {
        let (tx, rx) = bounded(1);
        self.send(
            Self::COORDINATOR,
            Envelope::Commit {
                txn,
                participants: participants.to_vec(),
                reply: tx,
            },
        );
        rx.recv_timeout(Duration::from_secs(20)).ok()
    }

    /// Fire-and-forget commit (the decision is observable in the final
    /// report).
    pub fn commit_async(&self, txn: TxnId, participants: &[SiteId]) {
        let (tx, _rx) = bounded(1);
        self.send(
            Self::COORDINATOR,
            Envelope::Commit {
                txn,
                participants: participants.to_vec(),
                reply: tx,
            },
        );
    }

    /// Let in-flight work settle for `d`.
    pub fn settle(&self, d: Duration) {
        std::thread::sleep(d);
    }

    /// Stop every thread and collect the final state.
    #[must_use]
    pub fn shutdown(self) -> ClusterReport {
        for tx in self.routes.values() {
            let _ = tx.send(Envelope::Shutdown);
        }
        let mut sites = Vec::new();
        let mut coordinator_table_size = 0;
        let mut group_commit = GroupCommitStats::default();
        let mut logical_forces = 0;
        let mut physical_syncs = 0;
        let mut absorb = |log: &crate::actor::NetLog| {
            group_commit.merge(&log.group_stats());
            logical_forces += acp_wal::StableLog::stats(log).forces;
            let inner = acp_wal::StableLog::stats(log.inner());
            physical_syncs += inner.forces + inner.flushes;
        };
        for (site, handle) in self.handles {
            match handle {
                SiteHandle::Coord(h) => {
                    let fin = h.join().expect("coordinator thread");
                    coordinator_table_size = fin.engine.protocol_table_size();
                    absorb(fin.engine.log());
                    sites.push(SiteSummary {
                        site,
                        enforced: BTreeMap::new(),
                        log_pinned: fin.engine.log_pinned(),
                        committed: BTreeMap::new(),
                    });
                }
                SiteHandle::Part(h) => {
                    let fin = h.join().expect("participant thread");
                    absorb(fin.engine.log());
                    sites.push(SiteSummary {
                        site,
                        enforced: fin.engine.enforced_all().clone(),
                        log_pinned: fin.engine.log_pinned(),
                        committed: fin
                            .storage
                            .store()
                            .iter()
                            .map(|(k, v)| (k.to_vec(), v.to_vec()))
                            .collect(),
                    });
                }
                SiteHandle::Gateway(h) => {
                    let fin = h.join().expect("gateway thread");
                    // Expose the legacy system's data as the site's
                    // committed state (still-applying write sets are not
                    // committed data yet).
                    let committed: BTreeMap<Vec<u8>, Vec<u8>> =
                        fin.engine.legacy().entries().into_iter().collect();
                    sites.push(SiteSummary {
                        site,
                        enforced: BTreeMap::new(),
                        log_pinned: Vec::new(),
                        committed,
                    });
                }
            }
        }
        let history = self.history.lock().clone();
        ClusterReport {
            history,
            coordinator_table_size,
            sites,
            group_commit,
            logical_forces,
            physical_syncs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_acta::check_atomicity;
    use acp_types::SelectionPolicy;

    fn prany_config() -> ClusterConfig {
        ClusterConfig::new(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        )
    }

    #[test]
    fn commit_applies_data_at_all_participants() {
        let mut cluster = Cluster::spawn(&prany_config());
        let txn = cluster.next_txn();
        let parts = cluster.participants();
        for &p in &parts {
            cluster.apply(p, txn, b"balance", b"100");
        }
        let outcome = cluster.commit(txn, &parts).expect("decision");
        assert_eq!(outcome, Outcome::Commit);
        cluster.settle(Duration::from_millis(300));
        let report = cluster.shutdown();
        assert!(check_atomicity(&report.history).is_empty());
        for s in &report.sites {
            if s.site != Cluster::COORDINATOR {
                assert_eq!(
                    s.committed.get(b"balance".as_slice()).map(Vec::as_slice),
                    Some(b"100".as_slice()),
                    "site {}",
                    s.site
                );
            }
        }
        assert_eq!(report.coordinator_table_size, 0);
    }

    #[test]
    fn no_vote_aborts_the_whole_transaction() {
        let mut cluster = Cluster::spawn(&prany_config());
        let txn = cluster.next_txn();
        let parts = cluster.participants();
        for &p in &parts {
            cluster.apply(p, txn, b"k", b"v");
        }
        cluster.set_intent(parts[0], txn, Vote::No);
        let outcome = cluster.commit(txn, &parts).expect("decision");
        assert_eq!(outcome, Outcome::Abort);
        cluster.settle(Duration::from_millis(300));
        let report = cluster.shutdown();
        assert!(check_atomicity(&report.history).is_empty());
        for s in &report.sites {
            assert!(s.committed.is_empty(), "no data may commit at {}", s.site);
        }
    }

    #[test]
    fn read_only_transaction_commits_without_phase_two() {
        let mut cluster = Cluster::spawn(&prany_config());
        let txn = cluster.next_txn();
        let parts = cluster.participants();
        // No Apply calls: both participants are read-only.
        let outcome = cluster.commit(txn, &parts).expect("decision");
        assert_eq!(outcome, Outcome::Commit);
        let report = cluster.shutdown();
        assert!(check_atomicity(&report.history).is_empty());
    }

    #[test]
    fn participant_crash_during_commit_still_atomic() {
        let mut cluster = Cluster::spawn(&prany_config());
        let parts = cluster.participants();
        let txn = cluster.next_txn();
        for &p in &parts {
            cluster.apply(p, txn, b"x", b"1");
        }
        // Crash the PrC participant briefly right as commit processing
        // starts; it must converge via recovery + inquiry.
        cluster.commit_async(txn, &parts);
        cluster.crash(parts[1], Duration::from_millis(300));
        cluster.settle(Duration::from_millis(2_500));
        let report = cluster.shutdown();
        let v = check_atomicity(&report.history);
        assert!(v.is_empty(), "{v:?}");
        // Whatever was decided, both participants agree in data state.
        let datasets: Vec<_> = report
            .sites
            .iter()
            .filter(|s| s.site != Cluster::COORDINATOR)
            .map(|s| s.committed.clone())
            .collect();
        assert_eq!(datasets[0], datasets[1], "data diverged");
    }
}

#[cfg(test)]
mod gateway_tests {
    use super::*;
    use acp_acta::check_atomicity;
    use acp_types::SelectionPolicy;

    #[test]
    fn legacy_gateway_commits_alongside_native_sites() {
        let mut config = ClusterConfig::new(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        config.gateways = vec![1]; // site 2 (PrC dialect) fronts a legacy system
        let mut cluster = Cluster::spawn(&config);
        let parts = cluster.participants();
        let txn = cluster.next_txn();
        cluster.apply(parts[0], txn, b"native", b"1");
        cluster.apply(parts[1], txn, b"legacy", b"2");
        let outcome = cluster.commit(txn, &parts).expect("decision");
        assert_eq!(outcome, Outcome::Commit);
        cluster.settle(Duration::from_millis(400));
        let report = cluster.shutdown();
        assert!(check_atomicity(&report.history).is_empty());
        let gw = report
            .sites
            .iter()
            .find(|s| s.site == parts[1])
            .expect("gateway site");
        assert_eq!(
            gw.committed.get(b"legacy".as_slice()).map(Vec::as_slice),
            Some(b"2".as_slice()),
            "legacy system received the committed write"
        );
    }

    #[test]
    fn gateway_crash_mid_commit_still_applies_after_recovery() {
        let mut config = ClusterConfig::new(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrA],
        );
        config.gateways = vec![0];
        let mut cluster = Cluster::spawn(&config);
        let parts = cluster.participants();
        let txn = cluster.next_txn();
        cluster.apply(parts[0], txn, b"k", b"v");
        cluster.apply(parts[1], txn, b"k", b"v");
        cluster.commit_async(txn, &parts);
        std::thread::sleep(Duration::from_millis(3));
        cluster.crash(parts[0], Duration::from_millis(250));
        cluster.settle(Duration::from_secs(2));
        let report = cluster.shutdown();
        assert!(check_atomicity(&report.history).is_empty());
        // Whatever the outcome, gateway and native site agree on data.
        let gw = &report
            .sites
            .iter()
            .find(|s| s.site == parts[0])
            .unwrap()
            .committed;
        let native = &report
            .sites
            .iter()
            .find(|s| s.site == parts[1])
            .unwrap()
            .committed;
        assert_eq!(gw, native, "gateway and native data diverged");
    }
}

#[cfg(test)]
mod misuse_tests {
    use super::*;
    use acp_acta::check_atomicity;
    use acp_types::SelectionPolicy;

    #[test]
    fn duplicate_and_empty_commit_requests_do_not_kill_the_coordinator() {
        let mut cluster = Cluster::spawn(&ClusterConfig::new(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        ));
        let parts = cluster.participants();
        let txn = cluster.next_txn();
        for &p in &parts {
            cluster.apply(p, txn, b"k", b"v");
        }
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        // Duplicate request for a decided transaction: answered from the
        // memo, not a panic.
        assert_eq!(cluster.commit(txn, &parts), Some(Outcome::Commit));
        // Empty participant list: rejected cleanly (None, fast).
        let t2 = cluster.next_txn();
        assert_eq!(cluster.commit(t2, &[]), None);
        // The coordinator is still alive and serving.
        let t3 = cluster.next_txn();
        for &p in &parts {
            cluster.apply(p, t3, b"k3", b"v3");
        }
        assert_eq!(cluster.commit(t3, &parts), Some(Outcome::Commit));
        let report = cluster.shutdown();
        assert!(check_atomicity(&report.history).is_empty());
    }
}
