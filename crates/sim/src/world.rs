//! The simulated world: event loop, site lifecycle and determinism.

use crate::event::{Scheduled, SimEvent};
use crate::network::{Fate, Network, NetworkConfig};
use crate::process::{Context, Process};
use crate::time::SimTime;
use acp_obs::{ProtoLabel, ProtocolEvent, TraceSink};
use acp_types::{Message, SiteId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::Arc;

/// A deterministic simulated world of fail-stop sites.
///
/// Determinism: all nondeterminism (latencies, losses) is drawn from a
/// single seeded RNG; simultaneous events fire in insertion order; site
/// containers are `BTreeMap`s. Two worlds built identically with the
/// same seed emit identical event streams.
pub struct World<P: Process> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Scheduled>,
    procs: BTreeMap<SiteId, P>,
    down: BTreeSet<SiteId>,
    incarnation: BTreeMap<SiteId, u64>,
    network: Network,
    rng: StdRng,
    events_processed: u64,
    /// Optional typed-event sink (transport-level events: sends,
    /// deliveries, crashes, recoveries). Protocol-level events are the
    /// processes' business.
    sink: Option<Arc<dyn TraceSink>>,
    /// Protocol attribution per site for emitted events.
    labels: BTreeMap<SiteId, ProtoLabel>,
}

impl<P: Process> World<P> {
    /// Build a world with the given network model and RNG seed.
    #[must_use]
    pub fn new(config: NetworkConfig, seed: u64) -> Self {
        World {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            procs: BTreeMap::new(),
            down: BTreeSet::new(),
            incarnation: BTreeMap::new(),
            network: Network::new(config),
            rng: StdRng::seed_from_u64(seed),
            events_processed: 0,
            sink: None,
            labels: BTreeMap::new(),
        }
    }

    /// Attach a typed-event sink. The world emits [`ProtocolEvent`]s for
    /// network sends/deliveries and site crashes/recoveries (timestamped
    /// in virtual microseconds); protocol-level events are emitted by
    /// the processes themselves.
    pub fn set_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Set the protocol label attributed to `site`'s transport events
    /// (defaults to [`ProtoLabel::Other`]).
    pub fn set_label(&mut self, site: SiteId, label: ProtoLabel) {
        self.labels.insert(site, label);
    }

    fn label(&self, site: SiteId) -> ProtoLabel {
        self.labels.get(&site).copied().unwrap_or(ProtoLabel::Other)
    }

    fn emit(&self, ev: ProtocolEvent) {
        if let Some(sink) = &self.sink {
            sink.record(&ev);
        }
    }

    fn emit_send(&self, msg: &Message) {
        if self.sink.is_some() {
            self.emit(ProtocolEvent::MsgSend {
                at_us: self.now.as_micros(),
                site: msg.from.raw(),
                proto: self.label(msg.from),
                to: msg.to.raw(),
                kind: msg.payload.kind_name(),
                txn: Some(msg.payload.txn().raw()),
            });
        }
    }

    /// Add a site. Panics if the id is already taken.
    pub fn add(&mut self, site: SiteId, process: P) {
        let prev = self.procs.insert(site, process);
        assert!(prev.is_none(), "duplicate site {site}");
        self.incarnation.insert(site, 0);
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Is the site currently up?
    #[must_use]
    pub fn is_up(&self, site: SiteId) -> bool {
        !self.down.contains(&site)
    }

    /// Immutable access to a site's process (for assertions).
    #[must_use]
    pub fn process(&self, site: SiteId) -> &P {
        &self.procs[&site]
    }

    /// Mutable access to a site's process (for test instrumentation).
    pub fn process_mut(&mut self, site: SiteId) -> &mut P {
        self.procs.get_mut(&site).expect("unknown site")
    }

    /// Number of events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Mutable access to the network (to create/heal partitions).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    fn push(&mut self, at: SimTime, event: SimEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, event });
    }

    /// Schedule a crash of `site` at absolute time `at`.
    pub fn schedule_crash(&mut self, site: SiteId, at: SimTime) {
        self.push(at, SimEvent::Crash { site });
    }

    /// Schedule a recovery of `site` at absolute time `at`.
    pub fn schedule_recover(&mut self, site: SiteId, at: SimTime) {
        self.push(at, SimEvent::Recover { site });
    }

    /// Invoke `on_start` on every site, collecting initial messages.
    pub fn start(&mut self) {
        let sites: Vec<SiteId> = self.procs.keys().copied().collect();
        for site in sites {
            let mut ctx = Context::new(self.now, site);
            self.procs.get_mut(&site).expect("site").on_start(&mut ctx);
            self.drain(site, ctx);
        }
    }

    /// Route one handler's outputs into the queue and the sink.
    fn drain(&mut self, site: SiteId, ctx: Context) {
        let Context { outbox, timers, .. } = ctx;
        for msg in outbox {
            self.emit_send(&msg);
            let fate = self.network.fate(msg.from, msg.to, self.now, &mut self.rng);
            if let Fate::Deliver(at) = fate {
                self.push(at, SimEvent::Deliver(msg));
            }
        }
        let inc = self.incarnation[&site];
        for (delay, token) in timers {
            let at = self.now + delay;
            self.push(
                at,
                SimEvent::Timer {
                    site,
                    token,
                    incarnation: inc,
                },
            );
        }
    }

    fn apply_crash(&mut self, site: SiteId) {
        if !self.down.insert(site) {
            return; // already down
        }
        self.emit(ProtocolEvent::CrashObserved {
            at_us: self.now.as_micros(),
            site: site.raw(),
            proto: self.label(site),
        });
        self.procs.get_mut(&site).expect("site").on_crash();
    }

    fn apply_recover(&mut self, site: SiteId) {
        if !self.down.remove(&site) {
            return; // not down
        }
        *self.incarnation.get_mut(&site).expect("site") += 1;
        self.emit(ProtocolEvent::RecoveryStep {
            at_us: self.now.as_micros(),
            site: site.raw(),
            proto: self.label(site),
            detail: "site back up; restart procedure begins".to_string(),
        });
        let mut ctx = Context::new(self.now, site);
        self.procs
            .get_mut(&site)
            .expect("site")
            .on_recover(&mut ctx);
        self.drain(site, ctx);
    }

    /// Process the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Scheduled { at, event, .. }) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events_processed += 1;
        match event {
            SimEvent::Deliver(msg) => {
                if !self.down.contains(&msg.to) {
                    if self.sink.is_some() {
                        self.emit(ProtocolEvent::MsgRecv {
                            at_us: self.now.as_micros(),
                            site: msg.to.raw(),
                            proto: self.label(msg.to),
                            from: msg.from.raw(),
                            kind: msg.payload.kind_name(),
                            txn: Some(msg.payload.txn().raw()),
                        });
                    }
                    let site = msg.to;
                    let mut ctx = Context::new(self.now, site);
                    self.procs
                        .get_mut(&site)
                        .expect("site")
                        .on_message(&msg, &mut ctx);
                    self.drain(site, ctx);
                }
            }
            SimEvent::Timer {
                site,
                token,
                incarnation,
            } => {
                let live = !self.down.contains(&site) && self.incarnation[&site] == incarnation;
                if live {
                    let mut ctx = Context::new(self.now, site);
                    self.procs
                        .get_mut(&site)
                        .expect("site")
                        .on_timer(token, &mut ctx);
                    self.drain(site, ctx);
                }
            }
            SimEvent::Crash { site } => self.apply_crash(site),
            SimEvent::Recover { site } => self.apply_recover(site),
        }
        true
    }

    /// Run until no events remain or `max_events` have been processed.
    /// Returns the number of events processed by this call.
    pub fn run_until_quiescent(&mut self, max_events: u64) -> u64 {
        let start = self.events_processed;
        while self.events_processed - start < max_events {
            if !self.step() {
                break;
            }
        }
        self.events_processed - start
    }

    /// Run until virtual time reaches `until` (events at later times stay
    /// queued) or the queue empties.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(head) = self.queue.peek() {
            if head.at > until {
                break;
            }
            self.step();
        }
        self.now = self.now.max(until);
    }

    /// Iterate over all site ids.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.procs.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_obs::VecSink;
    use acp_types::{Message, Payload, TxnId};

    /// A ping-pong process: replies to every `Prepare` with an `Ack`,
    /// counts what it saw.
    #[derive(Default)]
    struct PingPong {
        received: u32,
        recovered: bool,
        crashed: bool,
    }

    impl Process for PingPong {
        fn on_message(&mut self, msg: &Message, ctx: &mut Context) {
            self.received += 1;
            if let Payload::Prepare { txn } = msg.payload {
                ctx.send(msg.from, Payload::Ack { txn });
            }
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut Context) {
            ctx.send(ctx.self_id, Payload::Ack { txn: TxnId::new(0) });
        }
        fn on_crash(&mut self) {
            self.crashed = true;
        }
        fn on_recover(&mut self, _ctx: &mut Context) {
            self.recovered = true;
        }
    }

    /// A starter that sends one Prepare to site 1 on start.
    struct Starter;
    impl Process for Starter {
        fn on_start(&mut self, ctx: &mut Context) {
            ctx.send(SiteId::new(1), Payload::Prepare { txn: TxnId::new(1) });
        }
        fn on_message(&mut self, _msg: &Message, _ctx: &mut Context) {}
    }

    enum Proc {
        Start(Starter),
        Pong(PingPong),
    }
    impl Process for Proc {
        fn on_start(&mut self, ctx: &mut Context) {
            match self {
                Proc::Start(p) => p.on_start(ctx),
                Proc::Pong(p) => p.on_start(ctx),
            }
        }
        fn on_message(&mut self, m: &Message, ctx: &mut Context) {
            match self {
                Proc::Start(p) => p.on_message(m, ctx),
                Proc::Pong(p) => p.on_message(m, ctx),
            }
        }
        fn on_timer(&mut self, t: u64, ctx: &mut Context) {
            match self {
                Proc::Start(p) => p.on_timer(t, ctx),
                Proc::Pong(p) => p.on_timer(t, ctx),
            }
        }
        fn on_crash(&mut self) {
            match self {
                Proc::Start(p) => p.on_crash(),
                Proc::Pong(p) => p.on_crash(),
            }
        }
        fn on_recover(&mut self, ctx: &mut Context) {
            match self {
                Proc::Start(p) => p.on_recover(ctx),
                Proc::Pong(p) => p.on_recover(ctx),
            }
        }
    }

    fn two_site_world() -> World<Proc> {
        let mut w = World::new(NetworkConfig::reliable(SimTime::from_micros(100)), 1);
        w.add(SiteId::new(0), Proc::Start(Starter));
        w.add(SiteId::new(1), Proc::Pong(PingPong::default()));
        w
    }

    /// Attach a fresh recording sink to `w`.
    fn record(w: &mut World<Proc>) -> Arc<VecSink> {
        let sink = Arc::new(VecSink::new());
        w.set_sink(Arc::clone(&sink) as _);
        sink
    }

    /// `(kind of event, message kind)` for each transport event.
    fn transport(events: &[ProtocolEvent]) -> Vec<(&'static str, &'static str)> {
        events
            .iter()
            .filter_map(|e| match e {
                ProtocolEvent::MsgSend { kind, .. } => Some(("send", *kind)),
                ProtocolEvent::MsgRecv { kind, .. } => Some(("recv", *kind)),
                ProtocolEvent::CrashObserved { .. } => Some(("crash", "")),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn message_roundtrip() {
        let mut w = two_site_world();
        let sink = record(&mut w);
        w.start();
        w.run_until_quiescent(100);
        match w.process(SiteId::new(1)) {
            Proc::Pong(p) => assert_eq!(p.received, 1),
            _ => unreachable!(),
        }
        assert_eq!(
            transport(&sink.take()),
            [
                ("send", "prepare"),
                ("recv", "prepare"),
                ("send", "ack"),
                ("recv", "ack")
            ]
        );
        assert_eq!(w.now(), SimTime::from_micros(200));
    }

    #[test]
    fn messages_to_crashed_site_are_dropped() {
        let mut w = two_site_world();
        let sink = record(&mut w);
        w.schedule_crash(SiteId::new(1), w.now());
        w.start();
        w.run_until_quiescent(100);
        match w.process(SiteId::new(1)) {
            Proc::Pong(p) => {
                assert_eq!(p.received, 0);
                assert!(p.crashed);
            }
            _ => unreachable!(),
        }
        // Sent, never received.
        assert_eq!(
            transport(&sink.take()),
            [("send", "prepare"), ("crash", "")]
        );
    }

    #[test]
    fn recovery_invokes_on_recover_and_resumes_delivery() {
        let mut w = two_site_world();
        w.schedule_crash(SiteId::new(1), w.now());
        w.schedule_recover(SiteId::new(1), SimTime::from_millis(1));
        w.start();
        w.run_until_quiescent(100);
        match w.process(SiteId::new(1)) {
            Proc::Pong(p) => assert!(p.recovered),
            _ => unreachable!(),
        }
        assert!(w.is_up(SiteId::new(1)));
    }

    #[test]
    fn timers_do_not_survive_crash() {
        let mut w = World::new(NetworkConfig::reliable(SimTime::from_micros(10)), 3);
        let s = SiteId::new(0);
        w.add(s, Proc::Pong(PingPong::default()));
        // Set a timer by hand through a message that triggers on_timer via
        // the context: simpler — schedule the timer directly.
        {
            let mut ctx = Context::new(w.now(), s);
            ctx.set_timer(SimTime::from_millis(5), 9);
            w.drain(s, ctx);
        }
        w.schedule_crash(s, SimTime::from_millis(1));
        w.schedule_recover(s, SimTime::from_millis(2));
        w.run_until_quiescent(100);
        match w.process(s) {
            // Timer would have sent a self-message; none should arrive.
            Proc::Pong(p) => assert_eq!(p.received, 0),
            _ => unreachable!(),
        }
    }

    #[test]
    fn identical_seeds_produce_identical_event_streams() {
        let run = |seed: u64| {
            let mut w = World::new(NetworkConfig::lan(), seed);
            let sink = record(&mut w);
            w.add(SiteId::new(0), Proc::Start(Starter));
            w.add(SiteId::new(1), Proc::Pong(PingPong::default()));
            w.start();
            w.run_until_quiescent(1000);
            sink.take()
        };
        let events = run(7);
        assert_eq!(transport(&events).len(), 4);
        assert_eq!(events, run(7));
    }

    #[test]
    fn run_until_stops_at_time_bound() {
        let mut w = two_site_world();
        w.start();
        w.run_until(SimTime::from_micros(150));
        // Prepare delivered at 100; ack (due 200) still queued.
        assert_eq!(w.now(), SimTime::from_micros(150));
        match w.process(SiteId::new(1)) {
            Proc::Pong(p) => assert_eq!(p.received, 1),
            _ => unreachable!(),
        }
        w.run_until_quiescent(10);
        assert_eq!(w.now(), SimTime::from_micros(200));
    }

    #[test]
    #[should_panic(expected = "duplicate site")]
    fn duplicate_site_rejected() {
        let mut w = two_site_world();
        w.add(SiteId::new(1), Proc::Start(Starter));
    }
}
