//! # acp-obs
//!
//! Protocol observability for the Presumed Any workspace: a typed
//! event stream, pluggable trace sinks, a lock-free per-protocol
//! metrics registry, and schedule renderers that regenerate the paper's
//! figures from live runs.
//!
//! The paper's results *are* observability claims: each 2PC variant is
//! characterized by how many log writes it forces, which messages and
//! acknowledgments it exchanges, and when it may garbage-collect
//! (Definition 1's operational correctness). This crate makes those
//! quantities first-class:
//!
//! * [`event::ProtocolEvent`] — one variant per observable step:
//!   `ForceWrite`, `NonForcedWrite`, `MsgSend`, `MsgRecv`, `VoteCast`,
//!   `DecisionReached`, `LogGc`, `CrashObserved`, `RecoveryStep`.
//! * [`sink::TraceSink`] — where events go: collect them
//!   ([`sink::VecSink`]), keep the recent tail ([`sink::RingBufferSink`]),
//!   stream them as JSON lines ([`sink::JsonLinesSink`]), count them
//!   ([`sink::CountingSink`]), or all at once ([`sink::FanoutSink`]).
//! * [`metrics::MetricsRegistry`] — an atomic grid of per-protocol cost
//!   counters that subsumes `acp-types`' `CostCounters` and adds GC
//!   latency in sim-time.
//! * [`render`] — replay an event stream into the paper's figure format
//!   (ASCII schedule tables and Mermaid sequence diagrams); the
//!   `exp_figures` binary uses it to regenerate Figures 1–4 under
//!   `results/figures/`, pinned byte-for-byte by a golden test.
//!
//! Emission points live in the hosts, not the engines: the scenario
//! harness (`acp-core::harness`), the deterministic simulator's world
//! loop (`acp-sim`) and the real-time kernel (`acp-net`) all feed the
//! same sink trait, so one experiment can trace the simulator and a
//! real-time cluster with identical tooling.
//!
//! This crate depends only on `acp-types`; timestamps are raw
//! microseconds (virtual sim-time or elapsed wall-time) so no runtime
//! concern leaks in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod render;
pub mod sink;
pub mod wire;

pub use event::{ProtoLabel, ProtocolEvent};
pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use json::{event_to_json, parse_flat_json, JsonValue};
pub use metrics::{Counter, MetricsRegistry, MetricsSnapshot};
pub use render::{render_ascii, render_mermaid};
pub use sink::{CountingSink, FanoutSink, JsonLinesSink, NullSink, RingBufferSink, TraceSink, VecSink};
pub use wire::{WireMetrics, WireSnapshot};
