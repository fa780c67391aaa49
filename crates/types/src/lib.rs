//! # acp-types
//!
//! Core vocabulary shared by every crate in the Presumed Any workspace:
//! identifiers, protocol kinds, votes and outcomes, wire messages, log
//! record payloads, cost counters and the paper's taxonomy of atomic
//! commitment approaches (Figure 5).
//!
//! The types here are deliberately free of any I/O or runtime concern so
//! that the protocol engines in `acp-core` stay sans-IO: they can run
//! under the deterministic simulator (`acp-sim`), the bounded model
//! checker (`acp-check`) and the real-time runtimes (`acp-net`) unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod error;
pub mod ids;
pub mod message;
pub mod protocol;
pub mod record;
pub mod taxonomy;

pub use cost::CostCounters;
pub use error::ProtocolViolation;
pub use ids::{SiteId, TxnId};
pub use message::{Message, Payload};
pub use protocol::{CommitMode, CoordinatorKind, Outcome, ProtocolKind, SelectionPolicy, Vote};
pub use record::{LogPayload, ParticipantEntry};
