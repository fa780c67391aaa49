//! # acp-workload
//!
//! Workload, population and failure-schedule generation for the
//! experiments: which sites run which protocol (the multidatabase
//! population of §1), what the transactions look like (size, abort
//! rate, read-only fraction), when sites fail — and the open-loop
//! extreme-traffic engine the repo benchmark and the admission tests
//! drive: Poisson arrivals ([`arrival`]), zipfian key populations
//! ([`keyspace`]), multi-partition shapes fused into one reproducible
//! plan ([`generator`]), and retry policies with deterministic jitter
//! ([`retry`]).
//!
//! Everything is generated from a seeded RNG so every experiment run is
//! reproducible from its configuration alone. The crate stays sans-IO:
//! it emits schedules; driving a runtime with them is the caller's job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod failure;
pub mod generator;
pub mod keyspace;
pub mod mix;
pub mod population;
pub mod retry;

pub use arrival::OpenLoopArrivals;
pub use failure::FailurePlan;
pub use generator::{OpenLoopPlan, PlannedTxn, TxnShape};
pub use keyspace::ZipfKeyspace;
pub use mix::{TxnMix, TxnPlan};
pub use population::PopulationMix;
pub use retry::RetryPolicy;
