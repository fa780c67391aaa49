//! # acp-sim
//!
//! Deterministic discrete-event simulation substrate.
//!
//! The paper's proofs quantify over failures "in spite of communication
//! and site failures" at arbitrary points in the protocol. To turn those
//! arguments into experiments we need an environment where
//!
//! * time, message delivery order, loss and crash points are all drawn
//!   from a seeded RNG (reproducible campaigns), and
//! * a site's volatile state and its stable log are rigorously
//!   separated, so a crash loses exactly what the paper says it loses.
//!
//! A [`world::World`] owns a set of [`process::Process`]es (one per
//! site), an event queue and a [`network::Network`] model. Processes are
//! fail-stop: a crash suspends event delivery and invalidates timers
//! until the scheduled recovery, whereupon the process is notified and
//! may analyze its stable log (the recovery procedures of §4.2 live in
//! `acp-core`; this crate only provides the machinery).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
pub mod event;
pub mod network;
pub mod process;
pub mod time;
pub mod world;

pub use crash::FailureSchedule;
pub use event::SimEvent;
pub use network::{Network, NetworkConfig};
pub use process::{Context, Process};
pub use time::SimTime;
pub use world::World;
