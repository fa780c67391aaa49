//! An observability adapter for any [`StableLog`]: mirrors every append
//! into the typed protocol-event stream as a [`ProtocolEvent::ForceWrite`]
//! or [`ProtocolEvent::NonForcedWrite`], and every prefix truncation as a
//! [`ProtocolEvent::LogGc`].
//!
//! The paper's cost model (§1.2, Table 1) is stated entirely in terms of
//! these log-level observables — which records a protocol writes, which
//! it forces, and when it may reclaim them — so wrapping a log is the
//! most direct way to meter an engine that does not emit events itself.

use crate::record::{LogRecord, Lsn, WalStats};
use crate::{StableLog, WalError};
use acp_obs::{ProtoLabel, ProtocolEvent, TraceSink};
use acp_types::LogPayload;
use std::sync::Arc;

/// A [`StableLog`] wrapper that reports every durability-relevant
/// operation to a [`TraceSink`].
///
/// Timestamps come from the caller-provided `clock` (microseconds in
/// whatever timebase the surrounding runtime uses — sim-time under the
/// simulator, elapsed wall time under the real-time runtimes).
pub struct ObservedLog<L: StableLog> {
    inner: L,
    sink: Arc<dyn TraceSink>,
    site: u32,
    proto: ProtoLabel,
    clock: Box<dyn Fn() -> u64 + Send>,
}

impl<L: StableLog> ObservedLog<L> {
    /// Wrap `inner`, attributing events to `site` under `proto`.
    pub fn new(
        inner: L,
        sink: Arc<dyn TraceSink>,
        site: u32,
        proto: ProtoLabel,
        clock: impl Fn() -> u64 + Send + 'static,
    ) -> Self {
        ObservedLog {
            inner,
            sink,
            site,
            proto,
            clock: Box::new(clock),
        }
    }

    /// The wrapped log.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// The wrapped log, mutably (operations through this reference are
    /// not observed).
    pub fn inner_mut(&mut self) -> &mut L {
        &mut self.inner
    }

    /// Unwrap, discarding the observation plumbing.
    pub fn into_inner(self) -> L {
        self.inner
    }

    fn now(&self) -> u64 {
        (self.clock)()
    }
}

impl<L: StableLog> StableLog for ObservedLog<L> {
    fn append(&mut self, payload: LogPayload, force: bool) -> Result<Lsn, WalError> {
        let record = payload.kind_name();
        let txn = Some(payload.txn().raw());
        let lsn = self.inner.append(payload, force)?;
        let at_us = self.now();
        let ev = if force {
            ProtocolEvent::ForceWrite {
                at_us,
                site: self.site,
                proto: self.proto,
                record,
                txn,
            }
        } else {
            ProtocolEvent::NonForcedWrite {
                at_us,
                site: self.site,
                proto: self.proto,
                record,
                txn,
            }
        };
        self.sink.record(&ev);
        Ok(lsn)
    }

    fn flush(&mut self) -> Result<(), WalError> {
        self.inner.flush()
    }

    fn records(&self) -> Result<Vec<LogRecord>, WalError> {
        self.inner.records()
    }

    fn for_each_record(&self, f: &mut dyn FnMut(&LogRecord)) -> Result<(), WalError> {
        self.inner.for_each_record(f)
    }

    fn truncate_prefix(&mut self, lsn: Lsn) -> Result<(), WalError> {
        let mut released = 0u64;
        self.inner.for_each_record(&mut |r| {
            if r.lsn < lsn {
                released += 1;
            }
        })?;
        self.inner.truncate_prefix(lsn)?;
        if released > 0 {
            self.sink.record(&ProtocolEvent::LogGc {
                at_us: self.now(),
                site: self.site,
                proto: self.proto,
                released_up_to: lsn.0,
                records_released: released,
                // The log has no view of decision times; runtimes that
                // track them report latency through their own LogGc
                // events instead.
                since_decision_us: None,
            });
        }
        Ok(())
    }

    fn low_water_mark(&self) -> Lsn {
        self.inner.low_water_mark()
    }

    fn next_lsn(&self) -> Lsn {
        self.inner.next_lsn()
    }

    fn stats(&self) -> WalStats {
        self.inner.stats()
    }

    fn lose_unflushed(&mut self) -> Result<usize, WalError> {
        self.inner.lose_unflushed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemLog;
    use acp_obs::VecSink;
    use acp_types::TxnId;

    fn observed(sink: Arc<VecSink>) -> ObservedLog<MemLog> {
        ObservedLog::new(MemLog::new(), sink, 7, ProtoLabel::PrA, || 42)
    }

    #[test]
    fn appends_are_mirrored_with_force_mode() {
        let sink = Arc::new(VecSink::new());
        let mut log = observed(Arc::clone(&sink));
        let t = TxnId::new(1);
        log.append(LogPayload::End { txn: t }, false).unwrap();
        log.append(
            LogPayload::Prepared {
                txn: t,
                coordinator: acp_types::SiteId::new(0),
            },
            true,
        )
        .unwrap();
        let evs = sink.snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].tag(), "non_forced_write");
        assert_eq!(evs[1].tag(), "force_write");
        assert!(matches!(
            evs[1],
            ProtocolEvent::ForceWrite {
                site: 7,
                proto: ProtoLabel::PrA,
                record: "prepared",
                at_us: 42,
                ..
            }
        ));
    }

    #[test]
    fn truncation_reports_released_count() {
        let sink = Arc::new(VecSink::new());
        let mut log = observed(Arc::clone(&sink));
        let t = TxnId::new(1);
        log.append(LogPayload::End { txn: t }, true).unwrap();
        let keep = log.append(LogPayload::End { txn: t.next() }, true).unwrap();
        log.truncate_prefix(keep).unwrap();
        let evs = sink.snapshot();
        assert_eq!(evs.last().unwrap().tag(), "log_gc");
        assert!(matches!(
            evs.last().unwrap(),
            ProtocolEvent::LogGc {
                records_released: 1,
                since_decision_us: None,
                ..
            }
        ));
        // An empty truncation is not an event.
        log.truncate_prefix(keep).unwrap();
        assert_eq!(sink.snapshot().len(), 3);
    }

    #[test]
    fn inner_log_still_behaves_like_a_stable_log() {
        let sink = Arc::new(VecSink::new());
        let mut log = observed(sink);
        let t = TxnId::new(9);
        let lsn = log.append(LogPayload::End { txn: t }, true).unwrap();
        assert_eq!(log.records().unwrap().len(), 1);
        assert_eq!(log.low_water_mark(), Lsn(0));
        assert!(log.next_lsn() > lsn);
    }
}
