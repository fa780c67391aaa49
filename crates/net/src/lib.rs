//! # acp-net
//!
//! Real-time hosts for the commit protocols. The same sans-IO engines
//! that run under the deterministic simulator run here unchanged, on
//! wall-clock timers, with every site persisting its protocol records
//! in a file-backed WAL and its data in the `acp-engine` storage engine
//! with its own data log: crash a site and its volatile state is really
//! gone; only the files survive.
//!
//! There is **one** site-hosting kernel (the private `host` module: the
//! turn discipline, all four site kinds, timers, client replies,
//! admission, one fsync domain) and two hosts that run it over a
//! transport:
//!
//! * the **reactor** ([`ReactorCluster`], [`reactor`]) — N event-loop
//!   threads in one process (one by default), each hosting a shard of
//!   the sites, connected by lock-free mailboxes: the coordinator
//!   sliced by transaction id, participants partitioned by site id,
//!   one hashed [`timer::TimerWheel`] and one fsync domain per shard,
//!   thousands of concurrent in-flight transactions (experiments E13,
//!   E14), and
//! * the **socket node** ([`SocketNode`], [`wire`], Unix only) — the
//!   same kernel per OS process, hosting a subset of sites, with
//!   length-prefixed CRC-framed TCP between processes driven by a
//!   vendored epoll shim: real `kill -9` failure domains, real WAL-only
//!   recovery (experiment E15).
//!
//! Both share one client facade ([`ClientHandle`]: `apply`,
//! `set_intent`, `crash`, `commit`, `commit_async`), one configuration
//! shape ([`ClusterConfig`]) and one shutdown report
//! ([`ClusterReport`]), and they emit byte-identical trace lines
//! through the emission points in [`site`] — pinned against each other
//! and, through the reactor, against the simulator harness
//! (`tests/reactor_runtime.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod envelope;
pub(crate) mod host;
pub mod reactor;
pub mod site;
pub mod timer;
#[cfg(unix)]
pub mod wire;

pub use client::ClientHandle;
pub use cluster::{ClusterConfig, ClusterReport, SiteSummary};
pub use envelope::Envelope;
pub use host::GC_RECORDS;
pub use reactor::{
    InflightGauge, ReactorCluster, ReactorConfig, ReactorReport, ReactorStats, ShardSummary,
};
pub use site::{NetDelays, NetObs};
pub use timer::{TimerId, TimerWheel};
#[cfg(unix)]
pub use wire::{AddressBook, FaultRule, NodeConfig, NodeReport, SocketNode, WireFaults, WireMsg};
