//! # presumed-any
//!
//! A complete, executable reproduction of **"Atomicity with Incompatible
//! Presumptions"** (Al-Houmaily & Chrysanthis, PODS 1999): the Presumed
//! Any (PrAny) atomic commit protocol that integrates the presumed
//! nothing (PrN), presumed abort (PrA) and presumed commit (PrC)
//! two-phase-commit variants despite their conflicting presumptions —
//! together with every substrate needed to run, test, model-check and
//! benchmark it.
//!
//! ## Quick start
//!
//! ```
//! use presumed_any::prelude::*;
//!
//! // A multidatabase: a PrA site and a PrC site behind one PrAny
//! // coordinator.
//! let mut scenario = Scenario::new(
//!     CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
//!     &[ProtocolKind::PrA, ProtocolKind::PrC],
//! );
//! scenario.add_txn(TxnId::new(1), SimTime::from_millis(1));
//!
//! let outcome = run_scenario(&scenario);
//! assert_eq!(outcome.decided[&TxnId::new(1)], Outcome::Commit);
//! assert!(check_atomicity(&outcome.history).is_empty());
//! assert!(check_operational(&outcome.history, &outcome.final_state).is_empty());
//! ```
//!
//! ## Crate map
//!
//! | re-export | crate | what it is |
//! |---|---|---|
//! | [`types`] | `acp-types` | ids, protocols, messages, log payloads |
//! | [`obs`] | `acp-obs` | typed event tracing, cost metrics, figure rendering |
//! | [`wal`] | `acp-wal` | write-ahead-log substrate (memory + file) |
//! | [`sim`] | `acp-sim` | deterministic discrete-event simulator |
//! | [`core`] | `acp-core` | the protocol engines + scenario harness |
//! | [`acta`] | `acp-acta` | executable ACTA correctness criteria |
//! | [`engine`] | `acp-engine` | per-site transactional KV storage |
//! | [`check`] | `acp-check` | bounded model checker |
//! | [`net`] | `acp-net` | one site-hosting kernel, two hosts: the in-process reactor (N shards), real TCP sockets |
//! | [`workload`] | `acp-workload` | workload/population/failure generators |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use acp_acta as acta;
pub use acp_check as check;
pub use acp_core as core;
pub use acp_engine as engine;
pub use acp_net as net;
pub use acp_obs as obs;
pub use acp_sim as sim;
pub use acp_types as types;
pub use acp_wal as wal;
pub use acp_workload as workload;

/// The things almost every user of the library needs.
pub mod prelude {
    pub use acp_acta::{
        check_atomicity, check_operational, safe_state::check_all_safe_states, ActaEvent,
        FinalState, History,
    };
    pub use acp_check::{check, CheckConfig, CheckReport};
    pub use acp_core::cost::{predict, Population, PredictedCosts};
    pub use acp_core::harness::{
        run_scenario, run_scenario_with_sink, Scenario, ScenarioOutcome, TimerDelays, TxnSpec,
    };
    pub use acp_core::{select_mode, Action, CommitPlan, Coordinator, Participant};
    #[cfg(unix)]
    pub use acp_net::{AddressBook, NodeConfig, SocketNode, WireFaults};
    pub use acp_net::{ClusterConfig, ReactorCluster, ReactorConfig};
    pub use acp_obs::{
        CountingSink, MetricsRegistry, ProtoLabel, ProtocolEvent, TraceSink, VecSink,
    };
    pub use acp_sim::{FailureSchedule, NetworkConfig, SimTime};
    pub use acp_types::{
        CommitMode, CoordinatorKind, CostCounters, Outcome, ProtocolKind, SelectionPolicy, SiteId,
        TxnId, Vote,
    };
    pub use acp_wal::{FileLog, MemLog, StableLog};
    pub use acp_workload::{
        FailurePlan, OpenLoopArrivals, OpenLoopPlan, PlannedTxn, PopulationMix, RetryPolicy,
        TxnMix, TxnPlan, TxnShape, ZipfKeyspace,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_quickstart_shape_works() {
        let mut s = Scenario::new(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
        );
        s.add_txn(TxnId::new(1), SimTime::from_millis(1));
        let out = run_scenario(&s);
        assert_eq!(out.decided[&TxnId::new(1)], Outcome::Commit);
        assert!(check_atomicity(&out.history).is_empty());
    }
}
