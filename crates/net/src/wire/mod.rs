//! Real-socket wire backend: length-prefixed TCP frames under the
//! sans-IO engines.
//!
//! The other two backends in this crate move [`crate::envelope::Envelope`]s
//! between sites through process memory (a reactor's ready queue, or
//! another reactor's mailbox). This module gives the same envelopes a
//! physical representation — a CRC-framed byte stream over nonblocking
//! TCP — so a cluster can span real OS processes whose only shared
//! state is the network and their own WAL files. That is the paper's
//! actual deployment model: sites fail by *losing their process*, keep
//! only what they forced to the log, and recover by the restart
//! procedure, with commit protocol messages crossing a wire that can
//! drop or reorder them (the latter only via injected faults — TCP is
//! FIFO, which is exactly why footnote 5's hazard needs a fault layer
//! to reproduce here).
//!
//! Layout:
//!
//! * [`frame`] — the codec: `ACPW | len | seq | body | crc32` frames
//!   around a [`WireMsg`] body, plus the incremental [`FrameDecoder`].
//! * [`faults`] — sender-side frame drop/delay rules ([`WireFaults`]),
//!   the socket analogue of the WAL's fault layer.
//! * `conn` — unidirectional connection state: dialing with capped
//!   exponential backoff, one bounded out-buffer each, accept-only reads.
//! * [`node`] — the site-hosting kernel over a TCP transport driven
//!   by a vendored epoll shim, hosting a subset of sites per process;
//!   [`SocketNode`] is the public handle, mirroring
//!   [`crate::reactor::ReactorCluster`]'s client API.
//!
//! Everything observable is shared with the in-process backends — same
//! engines, same trace emission points, same ACTA history — so a
//! socket run is checked by the same replay tooling, and a quiet
//! single-transaction run is trace-identical to the reactor.

pub mod faults;
pub mod frame;
pub mod node;

pub(crate) mod conn;

pub use faults::{FaultAction, FaultRule, Partition, WireFaults};
pub use frame::{encode_wire_frame, FrameDecoder, WireMsg, MAX_FRAME_BODY, WIRE_MAGIC};
pub use node::{shared_history, AddressBook, NodeConfig, NodeReport, SharedHistory, SocketNode};
