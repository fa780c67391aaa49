//! # acp-net
//!
//! A threaded actor runtime for the commit protocols: each site is an
//! OS thread (one actor per protocol role, per the reproduction plan),
//! crossbeam channels are the network, and every site persists its
//! protocol records in a file-backed WAL and its data in the
//! `acp-engine` storage engine with its own data log.
//!
//! The same sans-IO engines that run under the deterministic simulator
//! run here unchanged — this crate exists to demonstrate that, to host
//! the end-to-end throughput benchmarks (experiment E10), and to give
//! the examples a "real system" feel: crash a site and its volatile
//! state is really gone; only the files survive.
//!
//! Four backends share this crate:
//!
//! * the **threaded** backend ([`Cluster`]) — one OS thread and one
//!   crossbeam mailbox per site,
//! * the **reactor** backend ([`ReactorCluster`]) — a single-threaded
//!   event loop that owns every site, fires timers off a hashed
//!   [`timer::TimerWheel`], batches each site's forced writes into one
//!   fsync per turn, and sustains thousands of concurrent in-flight
//!   transactions (experiment E13),
//! * the **multi-reactor** backend ([`MultiReactorCluster`]) — N
//!   reactor shards ([`multi_reactor`]) connected by lock-free
//!   mailboxes: the coordinator sliced by transaction id, participants
//!   partitioned by site id, one fsync domain and timer wheel per
//!   shard (experiment E14), and
//! * the **socket** backend ([`wire`], Unix only) — the same loop per
//!   OS process, hosting a subset of sites, with length-prefixed
//!   CRC-framed TCP between processes driven by a vendored epoll shim:
//!   real `kill -9` failure domains, real WAL-only recovery
//!   (experiment E15).
//!
//! The last three are one site-hosting kernel (the private `host`
//! module: the turn discipline, all four site kinds, timers, replies,
//! admission) instantiated over three transports, and their handles
//! share one client facade ([`ClientHandle`]). All four backends drive
//! the identical engines and emit byte-identical trace lines through
//! the shared emission points in [`actor`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod admission;
pub mod client;
pub mod cluster;
pub mod envelope;
pub(crate) mod host;
pub mod multi_reactor;
pub mod reactor;
pub mod timer;
#[cfg(unix)]
pub mod wire;

pub use actor::{NetDelays, NetObs};
pub use admission::{AdmissionConfig, AdmissionController};
pub use client::ClientHandle;
pub use cluster::{Cluster, ClusterConfig, ClusterReport, SiteSummary};
pub use envelope::Envelope;
pub use multi_reactor::{
    MultiReactorCluster, MultiReactorConfig, MultiReactorReport, ShardSummary,
};
pub use reactor::{
    InflightGauge, ReactorCluster, ReactorConfig, ReactorReport, ReactorStats, SnapshotCadence,
};
pub use timer::{TimerId, TimerWheel};
#[cfg(unix)]
pub use wire::{AddressBook, FaultRule, NodeConfig, NodeReport, SocketNode, WireFaults, WireMsg};
