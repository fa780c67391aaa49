//! Pluggable trace sinks.
//!
//! A [`TraceSink`] receives every [`ProtocolEvent`] a host emits. Sinks
//! take `&self` and are `Send + Sync`, so one `Arc<dyn TraceSink>` can
//! be shared by the single-threaded simulator, a `parallel_map` sweep
//! and the real-time runtimes alike; implementations use interior
//! mutability (a mutex around a buffer, or plain atomics).

use crate::event::ProtocolEvent;
use crate::json::event_to_json;
use crate::metrics::MetricsRegistry;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A consumer of protocol events.
pub trait TraceSink: Send + Sync {
    /// Observe one event. Must be cheap and must not panic — sinks run
    /// inside protocol hosts.
    fn record(&self, ev: &ProtocolEvent);
}

/// Discards everything (the default sink).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _ev: &ProtocolEvent) {}
}

/// Collects every event into a vector.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Mutex<Vec<ProtocolEvent>>,
}

impl VecSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy out everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> Vec<ProtocolEvent> {
        self.events.lock().expect("VecSink poisoned").clone()
    }

    /// Drain the recorded events, leaving the sink empty.
    #[must_use]
    pub fn take(&self) -> Vec<ProtocolEvent> {
        std::mem::take(&mut *self.events.lock().expect("VecSink poisoned"))
    }
}

impl TraceSink for VecSink {
    fn record(&self, ev: &ProtocolEvent) {
        self.events
            .lock()
            .expect("VecSink poisoned")
            .push(ev.clone());
    }
}

/// Keeps only the most recent `capacity` events — a flight recorder for
/// long campaigns where the full stream would be too large.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    buf: Mutex<VecDeque<ProtocolEvent>>,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events (capacity 0 records
    /// nothing).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        }
    }

    /// The retained tail of the stream, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<ProtocolEvent> {
        self.buf
            .lock()
            .expect("RingBufferSink poisoned")
            .iter()
            .cloned()
            .collect()
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, ev: &ProtocolEvent) {
        if self.capacity == 0 {
            return;
        }
        let mut buf = self.buf.lock().expect("RingBufferSink poisoned");
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(ev.clone());
    }
}

/// Streams events as JSON lines to any writer (a file, a `Vec<u8>`, …).
///
/// Each event becomes one self-contained JSON object per line; hosts
/// can interleave their own metadata lines via [`JsonLinesSink::meta`]
/// (e.g. to delimit runs within one trace file).
#[derive(Debug)]
pub struct JsonLinesSink<W: Write + Send> {
    w: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wrap a writer.
    #[must_use]
    pub fn new(w: W) -> Self {
        JsonLinesSink { w: Mutex::new(w) }
    }

    /// Write one raw metadata line (callers supply valid JSON).
    pub fn meta(&self, line: &str) {
        let mut w = self.w.lock().expect("JsonLinesSink poisoned");
        let _ = writeln!(w, "{line}");
    }

    /// Flush and unwrap the writer.
    ///
    /// # Panics
    /// Panics if the sink's mutex was poisoned.
    #[must_use]
    pub fn into_inner(self) -> W {
        let mut w = self.w.into_inner().expect("JsonLinesSink poisoned");
        let _ = w.flush();
        w
    }
}

impl<W: Write + Send> TraceSink for JsonLinesSink<W> {
    fn record(&self, ev: &ProtocolEvent) {
        let mut w = self.w.lock().expect("JsonLinesSink poisoned");
        // I/O errors are swallowed by design: observability must never
        // alter protocol execution.
        let _ = writeln!(w, "{}", event_to_json(ev));
    }
}

/// Feeds a shared [`MetricsRegistry`] — the "counting" sink.
#[derive(Clone, Debug)]
pub struct CountingSink {
    registry: Arc<MetricsRegistry>,
}

impl CountingSink {
    /// Count into `registry`.
    #[must_use]
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        CountingSink { registry }
    }

    /// The registry this sink feeds.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }
}

impl TraceSink for CountingSink {
    fn record(&self, ev: &ProtocolEvent) {
        self.registry.record(ev);
    }
}

/// Broadcasts each event to several sinks in order.
#[derive(Clone, Default)]
pub struct FanoutSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl FanoutSink {
    /// Fan out to `sinks`.
    #[must_use]
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl TraceSink for FanoutSink {
    fn record(&self, ev: &ProtocolEvent) {
        for s in &self.sinks {
            s.record(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ProtoLabel;
    use crate::metrics::Counter;

    fn ev(at_us: u64) -> ProtocolEvent {
        ProtocolEvent::ForceWrite {
            at_us,
            site: 0,
            proto: ProtoLabel::PrN,
            record: "commit",
            txn: Some(1),
        }
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let s = VecSink::new();
        s.record(&ev(1));
        s.record(&ev(2));
        let got = s.take();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].at_us(), 1);
        assert!(s.snapshot().is_empty());
    }

    #[test]
    fn ring_buffer_keeps_the_tail() {
        let s = RingBufferSink::new(2);
        for t in 1..=5 {
            s.record(&ev(t));
        }
        let got = s.snapshot();
        assert_eq!(
            got.iter().map(ProtocolEvent::at_us).collect::<Vec<_>>(),
            [4, 5]
        );
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let s = JsonLinesSink::new(Vec::new());
        s.meta("{\"run\":\"unit\"}");
        s.record(&ev(9));
        let bytes = s.into_inner();
        let text = String::from_utf8(bytes).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"run\":\"unit\"}");
        assert!(lines[1].contains("\"type\":\"force_write\""));
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let vec = Arc::new(VecSink::new());
        let reg = Arc::new(MetricsRegistry::new());
        let fan = FanoutSink::new(vec![
            Arc::clone(&vec) as Arc<dyn TraceSink>,
            Arc::new(CountingSink::new(Arc::clone(&reg))),
        ]);
        fan.record(&ev(3));
        assert_eq!(vec.snapshot().len(), 1);
        assert_eq!(reg.get(ProtoLabel::PrN, Counter::ForcedWrites), 1);
    }
}
