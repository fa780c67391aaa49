//! # acp-core
//!
//! The paper's contribution: sans-IO engines for every atomic commit
//! protocol the paper discusses.
//!
//! * [`participant::Participant`] — the participant-side state machine
//!   for PrN, PrA and PrC (plus the read-only optimization the paper
//!   names as an integration target in §5).
//! * [`coordinator::Coordinator`] — a unified coordinator engine whose
//!   behaviour is derived per transaction from a [`coordinator::plan::CommitPlan`]:
//!   - single-protocol PrN / PrA / PrC coordination (Figures 2–4),
//!   - **U2PC** (§2), the union coordinator that ignores protocol
//!     violations and forgets as soon as every participant that *will*
//!     acknowledge has done so — provably atomicity-violating
//!     (Theorem 1),
//!   - **C2PC** (§3), the conservative coordinator that never forgets a
//!     transaction until all participants acknowledge and never answers
//!     by presumption — functionally correct but not operationally
//!     correct (Theorem 2),
//!   - **PrAny** (§4), the paper's protocol: per-transaction mode
//!     selection from the participants' commit protocols (PCP/APP
//!     tables), an initiation record carrying each participant's
//!     protocol, outcome-dependent acknowledgment sets, and dynamic
//!     adoption of the *inquirer's* presumption after the coordinator
//!     has forgotten a transaction.
//! * [`gateway::GatewayParticipant`] — the *non-externalized* branch of
//!   Figure 5's taxonomy: a gateway that simulates a prepared state for
//!   a legacy system with no commit protocol at all, via exclusive
//!   right reservations and redo-until-success.
//! * [`paxos::PaxosNode`] — Paxos Commit (Gray & Lamport): a
//!   non-blocking replicated coordinator with `2f + 1` acceptors that
//!   degenerates to 2PC/PrN at `f = 0` and survives a `kill -9` of the
//!   leader at `f >= 1` via watchdog-triggered leader failover.
//! * [`cost`] — the analytic cost model (forced writes, log records,
//!   messages) per protocol × outcome × participant population, checked
//!   against measured executions in experiment E8; extended with
//!   [`cost::predict_paxos`] for the Paxos Commit rows of the table.
//! * [`engine::AnyEngine`] — the one dispatch point over engine kinds:
//!   a closed enum of coordinator / Paxos node / participant / gateway
//!   whose methods forward to the engines' own. Hosts that run whole
//!   clusters (the harness below, the `acp-check` explorer, the
//!   `acp-net` kernel) are written once against it.
//! * [`harness`] — the one glue that runs the engines, of any kind,
//!   inside the deterministic simulator (`acp-sim`) and produces ACTA
//!   histories (`acp-acta`), typed event streams, execution traces and
//!   final GC states for the correctness checkers; `Scenario::paxos_f`
//!   selects a Paxos Commit cluster.
//!
//! ## Engine model
//!
//! Engines are pure state machines: each input (a message, a timer, a
//! commit request, recovery) returns a list of [`Action`]s — messages to
//! send, local enforcements, timers to arm, and ACTA events to record.
//! Every input has two entry points of one shape: `begin_commit_into` /
//! `on_message_into` / `on_timer_into` / `recover_into(input, &mut
//! Vec<Action>)` append to a buffer the host reuses (the real-time
//! kernel's turn), and the `Vec`-returning methods are wrappers over
//! them for hosts that want an owned list per step (the simulator, the
//! model checker, tests).
//! All stable state lives in an owned [`acp_wal::StableLog`]; all other
//! state is volatile and cleared by `crash()`. This is what lets the
//! same code run under the simulator, the bounded model checker and the
//! real-time runtimes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod coordinator;
pub mod cost;
pub mod engine;
pub mod gateway;
pub mod harness;
pub mod participant;
pub mod paxos;

pub use action::{Action, TimerPurpose};
pub use coordinator::plan::CommitPlan;
pub use coordinator::select::select_mode;
pub use coordinator::Coordinator;
pub use engine::AnyEngine;
pub use gateway::{GatewayParticipant, LegacyStore};
pub use participant::Participant;
pub use paxos::{PaxosConfig, PaxosNode};

use acp_types::TxnId;

/// The shard owning `txn` when work is split `n_shards` ways:
/// `txn.raw() % n_shards`. This is the one ownership map: the
/// multi-reactor's envelope routing and coordinator partitioning both
/// call it, so "which shard owns transaction t" has a single answer.
#[must_use]
pub fn shard_of(txn: TxnId, n_shards: usize) -> usize {
    debug_assert!(n_shards > 0, "shard_of with zero shards");
    (txn.raw() % n_shards.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Transaction `t` lives on shard `t mod n`, at every shard count.
    #[test]
    fn shard_of_is_the_txn_id_mod_the_shard_count() {
        for n in 1..=8 {
            for raw in 0..64u64 {
                assert_eq!(shard_of(TxnId::new(raw), n), (raw % n as u64) as usize);
            }
        }
    }
}
