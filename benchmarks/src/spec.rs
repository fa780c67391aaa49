//! The benchmark's tables: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` at the repository root states the same
//! tables for the driver; [`check_benchmark_json`] refuses to run when
//! the two disagree, so neither can drift alone.

use crate::json::{self, Value};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction, and for end-to-end metrics the
/// share of the parent's median by which it may worsen.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees. Measured with no trace sink. The
/// bounds are sized for a shared 2-vCPU guest (README, "Noise"): the
/// timing metrics' run-to-run spread is 2-9 % there, and a bound should
/// be three times the spread.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("commits_per_s", "1/s", Better::Higher, 0.25),
    e2e("commit_p50_us", "us", Better::Lower, 0.25),
    e2e("cpu_us_per_txn", "us", Better::Lower, 0.25),
    e2e("fsyncs_per_txn", "count", Better::Lower, 0.10),
    e2e("written_bytes_per_txn", "B", Better::Lower, 0.05),
    e2e("allocs_per_txn", "count", Better::Lower, 0.10),
    e2e("retained_bytes_per_txn", "B", Better::Lower, 0.15),
];

/// The time-based end-to-end metrics: the ones whose per-epoch spread
/// is printed as a noise guard.
pub const TIMING: &[&str] = &[
    "setup_s",
    "commits_per_s",
    "commit_p50_us",
    "cpu_us_per_txn",
];

/// One layer each: the crates and `acp-net` modules on the commit
/// path, plus the driver's own view (`client`), the fault path
/// (`recovery`) and the traced phases (`phase`).
pub const PER_LAYER: &[Metric] = &[
    lower("core.commit_step_ns", "ns"),
    lower("core.actions_per_txn", "count"),
    lower("core.allocs_per_txn", "count"),
    lower("core.abort_step_ns", "ns"),
    lower("core.recover_us_per_1k_records", "us"),
    lower("core.forced_writes_per_txn", "count"),
    lower("core.messages_per_txn", "count"),
    lower("engine.put_ns", "ns"),
    lower("engine.prepare_ns", "ns"),
    lower("engine.resolve_ns", "ns"),
    lower("engine.allocs_per_txn", "count"),
    lower("engine.lock_conflict_ns", "ns"),
    lower("wal.encode_ns", "ns"),
    lower("wal.decode_ns", "ns"),
    lower("wal.append_lazy_ns", "ns"),
    lower("wal.append_forced_us", "us"),
    lower("wal.fsync_us", "us"),
    higher("wal.group_occupancy", "count"),
    higher("wal.domain_records_per_round", "count"),
    lower("wal.truncate_prefix_us", "us"),
    lower("wal.scan_us_per_1k_records", "us"),
    lower("acta.push_ns", "ns"),
    lower("acta.events_per_txn", "count"),
    lower("acta.retained_bytes_per_event", "B"),
    lower("reactor.ticks_per_txn", "count"),
    higher("reactor.adaptive_force_share", "share"),
    lower("reactor.envelopes_per_txn", "count"),
    lower("reactor.client_send_ns", "ns"),
    higher("reactor.max_inflight", "count"),
    lower("reactor.spawn_ms", "ms"),
    lower("reactor.shutdown_ms", "ms"),
    lower("reactor.timers_fired_per_txn", "count"),
    lower("reactor.timers_cancelled_per_txn", "count"),
    lower("timer.arm_ns", "ns"),
    lower("timer.cancel_ns", "ns"),
    lower("timer.advance_idle_ns", "ns"),
    lower("wire.encode_ns", "ns"),
    lower("wire.decode_ns", "ns"),
    lower("wire.allocs_per_frame", "count"),
    lower("wire.frames_per_txn", "count"),
    lower("wire.bytes_per_txn", "B"),
    lower("wire.write_syscalls_per_txn", "count"),
    lower("wire.backpressure_drops", "count"),
    lower("obs.hist_record_ns", "ns"),
    lower("obs.counting_sink_ns", "ns"),
    lower("obs.events_per_txn", "count"),
    lower("obs.tracing_overhead_pct", "%"),
    lower("workload.plan_ns_per_txn", "ns"),
    lower("recovery.outage_coord_p50_ms", "ms"),
    lower("recovery.outage_part_p50_ms", "ms"),
    lower("recovery.aborted_per_crash", "count"),
    lower("recovery.dropped_replies_per_crash", "count"),
    lower("recovery.inquiries_per_crash", "count"),
    lower("client.commit_p99_us", "us"),
    lower("client.commit_p999_us", "us"),
    lower("client.late_p99_us", "us"),
    lower("client.late_share", "share"),
    lower("client.cpu_us_per_txn", "us"),
    higher("client.samples", "count"),
    lower("client.peak_rss_mb", "MB"),
    lower("phase.late_us", "us"),
    lower("phase.stage_us", "us"),
    lower("phase.queue_us", "us"),
    lower("phase.prepare_us", "us"),
    lower("phase.vote_us", "us"),
    lower("phase.decide_us", "us"),
    lower("phase.reply_us", "us"),
    lower("phase.ack_us", "us"),
    lower("phase.forget_us", "us"),
    lower("phase.unattributed_share", "share"),
];

/// Which runtime hosts the four sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// One `ReactorCluster`: every site on one reactor thread, a send
    /// is a queue push.
    Reactor,
    /// Two `SocketNode`s in this process: node A hosts site 0, node B
    /// sites 1-3, one loopback TCP connection each way.
    SocketPair,
}

/// How transactions are offered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// Closed loop: stage `window` transactions, submit them all, await
    /// all replies, repeat.
    ClosedBurst { window: usize },
    /// Open loop: seeded Poisson arrivals at `rate` per second, latency
    /// timed from the due instant.
    Open { rate: f64 },
}

/// How the measured phase is cut into slices, the unit the timing
/// metrics are taken over (`epoch::Slice`): short enough to lie mostly
/// inside one of the host's moods, which change within a second
/// (README, "Noise").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slicing {
    /// Every so many consecutive transactions.
    Txns(usize),
    /// Every so long by the arrival schedule. A fault workload is cut
    /// by its crash period, which puts one crash in the middle of each
    /// slice: its slices compare only when each holds one crash, and
    /// the slices in the same place of different epochs the crash of the
    /// same site at the same length of log.
    Every(Duration),
}

/// Faults injected during the measured phase (none on the clean
/// workloads).
#[derive(Clone, Copy, Debug)]
pub struct Faults {
    /// Every `every`-th transaction has one participant vote No, and
    /// another one collides on the hot set.
    pub every: usize,
    /// Size of the hot key set the colliding pairs use.
    pub hot_keys: usize,
    /// One site is crashed every `crash_period`, in turn, first half a
    /// period into the measured phase.
    pub crash_period: Duration,
    /// How long a crashed site stays down.
    pub down_for: Duration,
}

/// One workload. Every workload runs a PrAny (`PaperStrict`)
/// coordinator at site 0 over participants PrN, PrA, PrC with
/// `group_commit = true`; each transaction writes one key at each of
/// the three participants.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub backend: Backend,
    pub load: Load,
    /// Measured transactions per epoch (fixed work). Neither this nor
    /// the warm-up is a power of two: the logs and the history are
    /// vectors that double, each transaction adds a small whole number
    /// of records to each, and with 4096 + 16384 transactions a
    /// doubling of several megabytes sat exactly on the edge of the
    /// measured phase, landing inside or outside it by a record or two
    /// and moving `retained_bytes_per_txn` by a tenth.
    pub txns: usize,
    /// Transactions executed and discarded before measuring.
    pub warmup: usize,
    pub slicing: Slicing,
    pub faults: Option<Faults>,
    /// Protocol timers: vote timeout, and the ack/inquiry/apply retry.
    pub vote_timeout: Duration,
    pub retry: Duration,
}

const LONG: Duration = Duration::from_secs(60);

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "reactor_burst64",
        why: "capacity: closed-loop bursts of 64 on one reactor; batching absorbs the flushes, so CPU per commit (engines, locks, WAL encode, history, allocation) is what remains",
        backend: Backend::Reactor,
        load: Load::ClosedBurst { window: 64 },
        txns: 32_000,
        warmup: 3_200,
        slicing: Slicing::Txns(2_048),
        faults: None,
        vote_timeout: LONG,
        retry: LONG,
    },
    Workload {
        name: "reactor_open4k",
        why: "latency floor: open-loop Poisson arrivals at 4000/s, a tenth of capacity; nothing queues or batches, so wake-ups and single-record forces set the latency",
        backend: Backend::Reactor,
        load: Load::Open { rate: 4000.0 },
        txns: 8_000,
        warmup: 500,
        slicing: Slicing::Txns(500),
        faults: None,
        vote_timeout: LONG,
        retry: LONG,
    },
    Workload {
        name: "socket_burst64",
        why: "the wire: the reactor_burst64 load on two socket nodes over loopback TCP; the difference is frame encode and CRC, per-frame allocation, socket syscalls and epoll wake-ups",
        backend: Backend::SocketPair,
        load: Load::ClosedBurst { window: 64 },
        txns: 16_000,
        warmup: 3_200,
        slicing: Slicing::Txns(2_048),
        faults: None,
        vote_timeout: LONG,
        retry: LONG,
    },
    Workload {
        name: "reactor_faults1k",
        why: "the other paths: open loop at 1000/s with No votes, lock conflicts and a site crash every 150 ms; abort steps, inquiries, recovery scans and timers, so a commit-path gain paid for there shows",
        backend: Backend::Reactor,
        load: Load::Open { rate: 1000.0 },
        txns: 2_000,
        warmup: 250,
        slicing: Slicing::Every(Duration::from_millis(150)),
        faults: Some(Faults {
            every: 8,
            hot_keys: 16,
            crash_period: Duration::from_millis(150),
            down_for: Duration::from_millis(10),
        }),
        vote_timeout: Duration::from_millis(20),
        retry: Duration::from_millis(10),
    },
];

/// Keys are drawn uniformly from this many, without replacement within
/// an epoch (so only the planned collisions conflict).
pub const KEY_POPULATION: u64 = 1_000_000;

/// What `--smoke` shrinks a run to: a seconds-long self-check.
pub const SMOKE_EPOCHS: usize = 2;
pub const SMOKE_TXNS: usize = 1_000;

/// A run aborts when the process's peak resident memory passes this:
/// past it a run can reach memory the guest has never touched and
/// lose half its throughput, which is what fresh-cluster epochs avoid.
pub const RSS_LIMIT_MB: f64 = 512.0;

/// An open-loop epoch with more than this share of sends over
/// `LATE_LIMIT` late measured the generator, not the system. Not
/// tighter, because on a 2-vCPU guest a bare sleep loop beside one busy
/// thread already wakes over a millisecond late 0.9 % of the time
/// (README, "Noise").
pub const LATE_SHARE_LIMIT: f64 = 0.05;
pub const LATE_LIMIT: Duration = Duration::from_millis(1);

/// No outcome after this long is a failure, not bad luck.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The directory of this package (`benchmarks/`), fixed when it was
/// built: the driver builds the benchmark inside each checkout.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub fn benchmark_json_path() -> PathBuf {
    package_dir().join("../BENCHMARK.json")
}

/// `run_seconds` of `BENCHMARK.json`, after checking that its
/// workloads and metrics are exactly the tables above (names, units,
/// directions, bounds, order).
pub fn check_benchmark_json() -> Result<u64, String> {
    let path = benchmark_json_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))
    };
    let text_of = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_owned);

    let described: Vec<(String, String)> = list("workloads")?
        .iter()
        .map(|w| {
            (
                text_of(w, "name").unwrap_or_default(),
                text_of(w, "why").unwrap_or_default(),
            )
        })
        .collect();
    let built: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    if described != built {
        return Err(format!(
            "BENCHMARK.json workloads {:?} differ from the binary's {:?}",
            described.iter().map(|w| &w.0).collect::<Vec<_>>(),
            built.iter().map(|w| &w.0).collect::<Vec<_>>()
        ));
    }

    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let described = list(key)?;
        if described.len() != table.len() {
            return Err(format!(
                "BENCHMARK.json `{key}` has {} metrics, the binary {}",
                described.len(),
                table.len()
            ));
        }
        for (d, m) in described.iter().zip(table) {
            let same = text_of(d, "name").as_deref() == Some(m.name)
                && text_of(d, "unit").as_deref() == Some(m.unit)
                && text_of(d, "better").as_deref() == Some(m.better.name())
                && d.get("bound").and_then(Value::as_f64) == m.bound;
            if !same {
                return Err(format!(
                    "BENCHMARK.json `{key}` entry {d:?} differs from the binary's {m:?}"
                ));
            }
        }
    }
    doc.get("run_seconds")
        .and_then(Value::as_f64)
        .filter(|s| (1.0..=60.0).contains(s) && s.fract() == 0.0)
        .map(|s| s as u64)
        .ok_or_else(|| {
            "BENCHMARK.json: `run_seconds` is not a whole number from 1 to 60".to_string()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_benchmark_json_and_its_limits() {
        check_benchmark_json().expect("BENCHMARK.json agrees with the tables");
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }
}
