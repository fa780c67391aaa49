//! Per-layer probes: fixed loops of calls into each layer's public
//! functions, timed from outside. Every probe takes `REPEATS` samples
//! and reports their median; the probes take their samples in turn, so
//! a probe's repeats are spread over the whole probe run and a burst of
//! interference from the host spoils one sample of each, not every
//! sample of one. Everything runs on the calling thread with nothing
//! else running, so an allocation count is that loop's own.

use crate::alloc;
use crate::cluster::{COORDINATOR_KIND, PROTOCOLS};
use crate::plan;
use crate::spec;
use crate::stats::median;
use acp_acta::{ActaEvent, History};
use acp_core::{Action, Coordinator, Participant};
use acp_engine::SiteEngine;
use acp_net::wire::{encode_wire_frame, FrameDecoder, WireMsg};
use acp_net::TimerWheel;
use acp_obs::{
    CountingSink, LatencyHistogram, MetricsRegistry, ProtoLabel, ProtocolEvent, TraceSink,
};
use acp_types::{LogPayload, Message, Outcome, Payload, SiteId, TxnId, Vote};
use acp_wal::encode::{decode_frame, encode_frame};
use acp_wal::tempdir::TempDir;
use acp_wal::{FileLog, LogRecord, Lsn, MemLog, StableLog};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

const REPEATS: usize = 15;

/// The burst the capacity workloads keep in flight: the probes of
/// per-transaction state hold this many transactions open at once.
const BURST: usize = 64;

type Samples = Vec<(&'static str, f64)>;

fn ns_per(started: Instant, ops: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / ops as f64
}

fn allocs_since(before: u64, ops: usize) -> f64 {
    (alloc::snapshot().all_allocs - before) as f64 / ops as f64
}

const SITES: [SiteId; 3] = [SiteId(1), SiteId(2), SiteId(3)];
const COORDINATOR: SiteId = SiteId(0);

/// A PrAny coordinator and its three participants on `MemLog`, wired
/// to each other by a queue.
struct Engines {
    coordinator: Coordinator<MemLog>,
    participants: Vec<Participant<MemLog>>,
    steps: usize,
    actions: usize,
}

impl Engines {
    fn new() -> Self {
        let mut coordinator = Coordinator::new(COORDINATOR, COORDINATOR_KIND, MemLog::new());
        for (site, proto) in SITES.iter().zip(PROTOCOLS) {
            coordinator.register_site(*site, proto);
        }
        // As the reactor hosts it: log collection once per tick, not
        // once per decision.
        coordinator.auto_gc = false;
        Engines {
            coordinator,
            participants: SITES
                .iter()
                .zip(PROTOCOLS)
                .map(|(site, proto)| Participant::new(*site, proto, MemLog::new()))
                .collect(),
            steps: 0,
            actions: 0,
        }
    }

    fn absorb(
        &mut self,
        from: SiteId,
        actions: Vec<Action>,
        queue: &mut VecDeque<(SiteId, SiteId, Payload)>,
    ) {
        self.steps += 1;
        self.actions += actions.len();
        for a in actions {
            if let Action::Send { to, payload } = a {
                queue.push_back((from, to, payload));
            }
        }
    }

    /// Run one transaction to quiescence, delivering every message the
    /// engines send each other; `no_voter` votes No.
    fn run_txn(&mut self, txn: TxnId, no_voter: Option<usize>) {
        let mut queue = VecDeque::new();
        let begun = self.coordinator.begin_commit(txn, &SITES);
        self.absorb(COORDINATOR, begun, &mut queue);
        while let Some((from, to, payload)) = queue.pop_front() {
            let actions = if to == COORDINATOR {
                self.coordinator.on_message(from, &payload)
            } else {
                let p = to.raw() as usize - 1;
                if matches!(payload, Payload::Prepare { .. }) {
                    let vote = if no_voter == Some(p) {
                        Vote::No
                    } else {
                        Vote::Yes
                    };
                    self.participants[p].set_intent(txn, vote);
                }
                self.participants[p].on_message(from, &payload)
            };
            self.absorb(to, actions, &mut queue);
        }
    }

    /// `txns` transactions end to end; ns per engine step.
    fn run_path(&mut self, txns: usize, abort: bool) -> f64 {
        let started = Instant::now();
        for i in 0..txns {
            self.run_txn(TxnId::new(i as u64 + 1), abort.then_some(i % 3));
            if i % BURST == BURST - 1 {
                self.coordinator.collect_garbage();
            }
        }
        ns_per(started, self.steps)
    }
}

/// `core`: engine steps on `MemLog`, nothing but the state machines.
fn core() -> Samples {
    const TXNS: usize = 2_000;
    let mut commit = Engines::new();
    let allocs = alloc::snapshot().all_allocs;
    let commit_step = commit.run_path(TXNS, false);
    let allocs = allocs_since(allocs, TXNS);
    let abort_step = Engines::new().run_path(TXNS, true);

    // Recovery: a coordinator and a participant each restart over a
    // log of 1000 records of undecided transactions.
    const OPEN: usize = 1_000;
    let mut open = Engines::new();
    for i in 0..OPEN {
        let txn = TxnId::new(i as u64 + 1);
        open.coordinator.begin_commit(txn, &SITES);
        open.participants[0].set_intent(txn, Vote::Yes);
        open.participants[0].on_message(COORDINATOR, &Payload::Prepare { txn });
    }
    open.coordinator.crash();
    open.participants[0].crash();
    let started = Instant::now();
    black_box(open.coordinator.recover());
    black_box(open.participants[0].recover());
    let recover = started.elapsed().as_nanos() as f64 / 1e3 / 2.0;
    vec![
        ("core.commit_step_ns", commit_step),
        ("core.actions_per_txn", commit.actions as f64 / TXNS as f64),
        ("core.allocs_per_txn", allocs),
        ("core.abort_step_ns", abort_step),
        ("core.recover_us_per_1k_records", recover),
    ]
}

/// `engine`: the storage engine a participant stages writes in, a
/// burst of transactions open at a time.
fn engine() -> Samples {
    const TXNS: usize = BURST * 60;
    let mut site = SiteEngine::new(MemLog::new());
    let (mut put, mut prepare, mut resolve) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let allocs = alloc::snapshot().all_allocs;
    for burst in (0..TXNS as u64).step_by(BURST) {
        let txns = (burst..burst + BURST as u64).map(|i| TxnId::new(i + 1));
        let started = Instant::now();
        for txn in txns.clone() {
            site.begin(txn);
            site.put(txn, format!("k{:016x}", txn.raw()).as_bytes(), b"value")
                .expect("put");
        }
        put += started.elapsed();
        let started = Instant::now();
        for txn in txns.clone() {
            site.prepare_lazy(txn).expect("prepare");
        }
        site.flush_log().expect("flush");
        prepare += started.elapsed();
        let started = Instant::now();
        for txn in txns {
            site.resolve(txn, Outcome::Commit).expect("resolve");
        }
        resolve += started.elapsed();
    }
    let allocs = allocs_since(allocs, TXNS);

    let holder = TxnId::new(TXNS as u64 + 1);
    site.begin(holder);
    site.put(holder, b"hot", b"held").expect("put");
    let started = Instant::now();
    for i in 0..TXNS {
        let txn = TxnId::new((2 * TXNS + i) as u64);
        site.begin(txn);
        assert!(
            site.put(txn, b"hot", b"late").is_err(),
            "the no-wait lock must refuse"
        );
        site.abort_active(txn).expect("abort");
    }
    let conflict = ns_per(started, TXNS);
    let per = |d: Duration| d.as_nanos() as f64 / TXNS as f64;
    vec![
        ("engine.put_ns", per(put)),
        ("engine.prepare_ns", per(prepare)),
        ("engine.resolve_ns", per(resolve)),
        ("engine.allocs_per_txn", allocs),
        ("engine.lock_conflict_ns", conflict),
    ]
}

fn record(i: u64) -> LogRecord {
    LogRecord {
        lsn: Lsn(i),
        forced: true,
        payload: LogPayload::Prepared {
            txn: TxnId::new(i + 1),
            coordinator: COORDINATOR,
        },
    }
}

/// `wal`: the record codec in memory, `FileLog` on the benchmark's WAL
/// directory.
struct Wal {
    dir: TempDir,
    logs: usize,
    /// A log of 1000 records to re-read.
    scan_path: std::path::PathBuf,
}

impl Wal {
    fn new() -> Result<Wal, String> {
        let dir = TempDir::new("probe").map_err(|e| format!("probe wal dir: {e}"))?;
        let scan_path = dir.path().join("scan.wal");
        let filled = || -> Result<(), acp_wal::WalError> {
            let mut log = FileLog::create(&scan_path)?;
            for i in 0..1_000 {
                log.append(record(i).payload, false)?;
            }
            log.flush()
        };
        filled().map_err(|e| format!("probe scan log: {e}"))?;
        Ok(Wal {
            dir,
            logs: 0,
            scan_path,
        })
    }

    fn fresh(&mut self) -> FileLog {
        self.logs += 1;
        FileLog::create(self.dir.path().join(format!("probe-{}.wal", self.logs)))
            .expect("create probe log")
    }

    fn sample(&mut self) -> Samples {
        const CODEC: usize = 20_000;
        let rec = record(41);
        let frame = encode_frame(&rec);
        let started = Instant::now();
        for _ in 0..CODEC {
            black_box(encode_frame(black_box(&rec)));
        }
        let encode = ns_per(started, CODEC);
        let started = Instant::now();
        for _ in 0..CODEC {
            black_box(decode_frame(black_box(&frame), 0).expect("decode"));
        }
        let decode = ns_per(started, CODEC);

        const LAZY: usize = 2_000;
        let mut log = self.fresh();
        let started = Instant::now();
        for i in 0..LAZY {
            log.append(record(i as u64).payload, false).expect("append");
        }
        let lazy = ns_per(started, LAZY);
        log.flush().expect("flush");

        const FORCED: usize = 200;
        let mut log = self.fresh();
        let started = Instant::now();
        for i in 0..FORCED {
            log.append(record(i as u64).payload, true).expect("append");
        }
        let forced = ns_per(started, FORCED) / 1e3;

        let mut file = std::fs::File::create(self.dir.path().join("fsync.bin")).expect("create");
        let mut synced = Duration::ZERO;
        for _ in 0..FORCED {
            file.write_all(&frame).expect("write");
            let started = Instant::now();
            file.sync_data().expect("sync");
            synced += started.elapsed();
        }
        let fsync = synced.as_nanos() as f64 / 1e3 / FORCED as f64;

        // What the coordinator's per-tick collection does: drop a
        // burst's worth of records from the front of a log that
        // retains as many.
        const ROUNDS: usize = 20;
        let mut log = self.fresh();
        let mut next = 0;
        let mut truncating = Duration::ZERO;
        for round in 0..=ROUNDS {
            for _ in 0..BURST {
                log.append(record(next).payload, false).expect("append");
                next += 1;
            }
            log.flush().expect("flush");
            if round > 0 {
                let started = Instant::now();
                log.truncate_prefix(Lsn(next - BURST as u64))
                    .expect("truncate");
                truncating += started.elapsed();
            }
        }
        let truncate = truncating.as_nanos() as f64 / 1e3 / ROUNDS as f64;

        // What a crashed site does first: re-read its log and classify
        // every transaction in it.
        let started = Instant::now();
        let log = FileLog::open(&self.scan_path).expect("open");
        black_box(acp_wal::scan::analyze(&log.records().expect("records")));
        let scan = started.elapsed().as_nanos() as f64 / 1e3;
        vec![
            ("wal.encode_ns", encode),
            ("wal.decode_ns", decode),
            ("wal.append_lazy_ns", lazy),
            ("wal.append_forced_us", forced),
            ("wal.fsync_us", fsync),
            ("wal.truncate_prefix_us", truncate),
            ("wal.scan_us_per_1k_records", scan),
        ]
    }
}

/// `acta`: the global history every site appends to.
fn acta() -> Samples {
    // A power of two, so the vector's doubling ends exactly full and
    // the bytes per event are the event's, not spare capacity.
    const EVENTS: usize = 1 << 16;
    let mut history = History::new();
    let live = alloc::snapshot().live_bytes;
    let started = Instant::now();
    for i in 0..EVENTS {
        history.push(ActaEvent::LogWrite {
            site: COORDINATOR,
            txn: TxnId::new(i as u64),
            kind: "commit",
            forced: true,
        });
    }
    let push = ns_per(started, EVENTS);
    let bytes = (alloc::snapshot().live_bytes - live) as f64 / EVENTS as f64;
    black_box(&history);
    vec![
        ("acta.push_ns", push),
        ("acta.retained_bytes_per_event", bytes),
    ]
}

/// `timer`: the reactor's hashed wheel with a few bursts' worth of long
/// timers armed.
fn timer() -> Samples {
    const TIMERS: usize = 4_096;
    let t0 = Instant::now();
    let mut wheel: TimerWheel<(SiteId, u64)> = TimerWheel::new(t0);
    let started = Instant::now();
    let ids: Vec<_> = (0..TIMERS as u64)
        .map(|i| {
            wheel.arm(
                t0 + Duration::from_secs(60) + Duration::from_micros(i * 25),
                (COORDINATOR, i),
            )
        })
        .collect();
    let arm = ns_per(started, TIMERS);
    // One reactor tick per millisecond with nothing due.
    let started = Instant::now();
    for tick in 1..=TIMERS as u64 {
        black_box(wheel.advance(t0 + Duration::from_millis(tick)));
    }
    let idle = ns_per(started, TIMERS);
    let started = Instant::now();
    for id in ids {
        black_box(wheel.cancel(id));
    }
    let cancel = ns_per(started, TIMERS);
    vec![
        ("timer.arm_ns", arm),
        ("timer.cancel_ns", cancel),
        ("timer.advance_idle_ns", idle),
    ]
}

/// `wire`: the frame codec alone, no socket.
fn wire() -> Samples {
    const FRAMES: usize = 20_000;
    let msg = WireMsg::Protocol(Message::new(
        COORDINATOR,
        SITES[0],
        Payload::Prepare { txn: TxnId::new(7) },
    ));
    let frame = encode_wire_frame(1, &msg);
    let allocs = alloc::snapshot().all_allocs;
    let started = Instant::now();
    for seq in 0..FRAMES as u64 {
        black_box(encode_wire_frame(seq, black_box(&msg)));
    }
    let encode = ns_per(started, FRAMES);
    let mut decoder = FrameDecoder::new();
    let started = Instant::now();
    for _ in 0..FRAMES {
        decoder.feed(black_box(&frame));
        black_box(decoder.next_frame().expect("valid frame"));
    }
    let decode = ns_per(started, FRAMES);
    vec![
        ("wire.encode_ns", encode),
        ("wire.decode_ns", decode),
        ("wire.allocs_per_frame", allocs_since(allocs, FRAMES)),
    ]
}

/// `obs`: what one event costs once a sink is attached.
fn obs() -> Samples {
    const OPS: usize = 100_000;
    let hist = LatencyHistogram::new();
    let started = Instant::now();
    for i in 0..OPS as u64 {
        hist.record(black_box(i));
    }
    black_box(hist.snapshot());
    let record = ns_per(started, OPS);
    let event = ProtocolEvent::MsgSend {
        at_us: 1,
        site: 0,
        proto: ProtoLabel::PrAny,
        to: 1,
        kind: "prepare",
        txn: Some(7),
    };
    let sink = CountingSink::new(Arc::new(MetricsRegistry::new()));
    let started = Instant::now();
    for _ in 0..OPS {
        sink.record(black_box(&event));
    }
    vec![
        ("obs.hist_record_ns", record),
        ("obs.counting_sink_ns", ns_per(started, OPS)),
    ]
}

/// `workload`: generating the plan an epoch executes.
fn workload(seed: u64) -> Samples {
    const TXNS: usize = 4_000;
    let w = spec::workload("reactor_open4k").expect("workload table");
    let started = Instant::now();
    black_box(plan::generate(w, TXNS, 0, seed, 0));
    vec![("workload.plan_ns_per_txn", ns_per(started, TXNS))]
}

/// Run every probe; returns `(metric, median of REPEATS samples)`.
pub fn run() -> Result<Samples, String> {
    let mut wal = Wal::new()?;
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut order = Vec::new();
    for repeat in 0..REPEATS {
        let round = [
            core(),
            engine(),
            wal.sample(),
            acta(),
            timer(),
            wire(),
            obs(),
            workload(repeat as u64),
        ];
        for (name, v) in round.into_iter().flatten() {
            if repeat == 0 {
                order.push(name);
            }
            samples.entry(name).or_default().push(v);
        }
    }
    Ok(order
        .into_iter()
        .map(|name| (name, median(&samples[name]).expect("REPEATS > 0")))
        .collect())
}
