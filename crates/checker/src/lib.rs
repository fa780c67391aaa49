//! # acp-check
//!
//! A bounded model checker for the commit protocols: exhaustive
//! breadth-first exploration over message deliveries, message drops,
//! crash/recover points, timer firings and permanent kills for small
//! configurations. There is one explorer: every site is an
//! [`acp_core::AnyEngine`], so a classic coordinator and a Paxos Commit
//! cluster (`CheckConfig::paxos_f`) go through the same moves, the same
//! deduplication and the same report.
//! The exploration is parallel (level-synchronized BFS with
//! work-stealing chunk distribution — see [`explore`]) yet produces a
//! report that is identical for every thread count, so experiment
//! output stays diffable.
//!
//! The paper's Theorem 1 is an existence proof ("it is possible for …");
//! this checker turns it into a *search*: given a coordinator kind, a
//! participant population and small failure budgets, it enumerates every
//! reachable interleaving and reports the atomicity violations it finds
//! (with the full ACTA history of each counterexample). Run against
//! U2PC it mechanically rediscovers the Part I–III scenarios; run
//! against PrAny it proves (exhaustively, for the bounded configuration)
//! that none exist — the Theorem 3 claim.
//!
//! It also reports whether every terminal state has an empty protocol
//! table, which is how Theorem 2's "remembered forever" shows up for
//! C2PC.
//!
//! Paxos Commit exists for a harsher failure model than crash+recover —
//! permanent coordinator loss — so replicated configurations add a
//! **kill** budget: fail-stop with no recovery, of any acceptor
//! including the leader. What a killed site accepted survives only as
//! replicas on the other acceptors, which is the mechanism under test;
//! a failover candidate that decides differently from the dead leader
//! shows up as an atomicity violation, and at terminal states the
//! Definition-2 safe-state predicate is evaluated in its replicated
//! form (every inquiry response any replica gave must match the
//! cluster's decision).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod report;
pub mod state;

pub use explore::{check, CheckConfig};
pub use report::{CheckReport, Counterexample};
pub use state::{CheckState, Trail};
