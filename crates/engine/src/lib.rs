//! # acp-engine
//!
//! Per-site transactional storage: the substrate a participant's
//! subtransactions actually execute against. The paper's sites are
//! database systems; atomicity violations must be *observable in data*,
//! not just in protocol bookkeeping — this crate makes them so.
//!
//! The engine is a key-value store with:
//!
//! * **no-wait strict two-phase locking** ([`lock`]): shared/exclusive
//!   locks acquired at access time and held to transaction end; a
//!   conflicting request fails immediately (no-wait ⇒ deadlock-free),
//!   and the caller votes "No"/aborts;
//! * **buffered writes (no-steal)** ([`txn`]): updates live in the
//!   transaction's write set until commit, so crash recovery never needs
//!   to undo — only redo winners;
//! * **write-ahead logging** ([`site`]): at *prepare*, the write set is
//!   lent, as update records with before/after images, to the
//!   participant's protocol log ahead of its prepared record, whose
//!   force makes both durable — the point at which it may vote "Yes";
//! * **redo recovery** ([`site::SiteEngine::recover`]): rebuilds the
//!   store from its own log, a store file of checkpoints, and from the
//!   committed write sets the participant's analysis of its protocol
//!   log still holds, re-staging in-doubt (prepared) transactions and
//!   re-acquiring their locks —
//!   "holding the locks of in-doubt transactions" is what makes
//!   blocking visible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod lock;
pub mod site;
pub mod store;
pub mod txn;

pub use error::EngineError;
pub use lock::{LockMode, LockTable};
pub use site::SiteEngine;
pub use store::KvStore;
pub use txn::{TxnContext, TxnPhase};
