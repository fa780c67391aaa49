//! A run: whole fixed-work epochs on fresh clusters until the time
//! budget is spent, reduced to one value per metric: the median over
//! epochs, except latency quantiles, which pool every epoch's samples.

use crate::epoch::{self, Ending, Epoch};
use crate::spec::{self, Load, Metric, Workload, END_TO_END, PER_LAYER, TIMING};
use crate::stats::{iqr_share, median, quantile, quantile_sorted, tail_sorted};
use crate::trace::{self, Recorder, Span, CLIENT_WAIT, PHASES};
use crate::{probe, procfs};
use acp_obs::TraceSink;
use acp_types::Outcome;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Start epochs while less than this has elapsed.
    pub budget: Duration,
    /// `--smoke`: `SMOKE_EPOCHS` epochs of `SMOKE_TXNS`, whatever the
    /// budget.
    pub smoke: bool,
    /// `--trace 1`: probes, then epochs alternately untraced and
    /// traced; reports the per-layer metrics.
    pub layers: bool,
}

/// A finished run.
pub struct Finished {
    pub metrics: Vec<(Metric, f64)>,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    /// The noise guards and context, one printable line each.
    pub notes: Vec<String>,
}

/// At least this many epochs run whatever the budget: a median of
/// fewer is not a median.
const MIN_EPOCHS: usize = 3;

/// Spans of at most this many transactions are written out; the phase
/// medians use every traced transaction.
const SPANS_KEPT: usize = 4_096;

#[derive(Default)]
struct Tally {
    /// Per-epoch values by metric name.
    per_epoch: BTreeMap<&'static str, Vec<f64>>,
    /// Per-slice values of the timing metrics, every epoch's pooled.
    per_slice: BTreeMap<&'static str, Vec<f64>>,
    cpu: SliceCpu,
    latency_ns: Vec<u64>,
    late_ns: Vec<u64>,
    outage_ms: [Vec<f64>; 2],
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    timeout_aborted: usize,
    epochs: usize,
    invalid_epochs: usize,
    /// The traced epochs', for the tracing overhead.
    traced_cpu: SliceCpu,
    phase_ns: [Vec<u64>; PHASES.len()],
    unattributed: Vec<f64>,
    incomplete: usize,
    traced_txns: usize,
    spans: Vec<Span>,
}

impl Tally {
    fn push(&mut self, name: &'static str, v: f64) {
        self.per_epoch.entry(name).or_default().push(v);
    }

    fn median(&self, name: &str) -> f64 {
        self.per_epoch
            .get(name)
            .and_then(|v| median(v))
            .unwrap_or(0.0)
    }

    /// The run's value for an end-to-end metric: a quantile on the
    /// metric's good side, not the median. The timing metrics are
    /// taken per slice and reduced by the decile (`cpu_us_per_txn` by
    /// `SliceCpu::reduce`); the rest, and an open loop's
    /// `commits_per_s`, per epoch by the quartile, there being a dozen
    /// epochs to a run against a few hundred slices. What disturbs a
    /// sample is one-sided: the host's other tenants only ever slow a
    /// slice, and a vector that happens to double inside the measured
    /// phase only ever adds retained bytes. The least disturbed
    /// samples are the ones that measure the code, and they repeat
    /// from run to run where the median does not (README, "Noise").
    /// The plain counts agree across epochs to a percent either way.
    fn end_to_end(&self, m: &Metric, w: &Workload) -> f64 {
        if m.name == "cpu_us_per_txn" {
            return self.cpu.reduce(w).unwrap_or(0.0);
        }
        let (samples, q) = match self.per_slice.get(m.name) {
            Some(slices) => (Some(slices), SLICE_QUANTILE),
            None => (self.per_epoch.get(m.name), EPOCH_QUANTILE),
        };
        let q = match m.better {
            spec::Better::Lower => q,
            spec::Better::Higher => 1.0 - q,
        };
        samples.and_then(|v| quantile(v, q)).unwrap_or(0.0)
    }
}

/// The quantiles a run's samples are reduced by (`Tally::end_to_end`).
const SLICE_QUANTILE: f64 = 0.10;
const EPOCH_QUANTILE: f64 = 0.25;

/// `cpu_us_per_txn` of every slice of a run's epochs, by the slice's
/// place in its epoch.
#[derive(Default)]
struct SliceCpu {
    by_place: Vec<Vec<f64>>,
    epochs: usize,
}

impl SliceCpu {
    fn absorb(&mut self, e: &Epoch) {
        self.epochs += 1;
        if self.by_place.len() < e.slices.len() {
            self.by_place.resize(e.slices.len(), Vec::new());
        }
        for (place, s) in self.by_place.iter_mut().zip(&e.slices) {
            if s.committed > 0 {
                place.push(per(s.runtime_cpu_ns, s.committed) / 1e3);
            }
        }
    }

    /// The decile over all slices. With faults, the decile over the
    /// slices in each place, and the mean of those over the places
    /// every epoch reached: a site's recovery gets dearer as its log
    /// grows and the four sites' recoveries cost differently, so a
    /// slice compares only with the slices in its own place, and a
    /// decile over all of them would be the cost of the cheapest
    /// crash on the shortest log.
    fn reduce(&self, w: &Workload) -> Option<f64> {
        if w.faults.is_none() {
            return quantile(&self.by_place.concat(), SLICE_QUANTILE);
        }
        let places: Vec<f64> = self
            .by_place
            .iter()
            .filter(|place| place.len() == self.epochs)
            .filter_map(|place| quantile(place, SLICE_QUANTILE))
            .collect();
        (!places.is_empty()).then(|| places.iter().sum::<f64>() / places.len() as f64)
    }
}

fn per(n: u64, d: usize) -> f64 {
    n as f64 / d.max(1) as f64
}

/// Fold one untraced epoch into the tally.
fn absorb(t: &mut Tally, e: &Epoch, w: &Workload) {
    t.epochs += 1;
    t.attempted += e.attempted;
    t.failed += e.failed;
    t.timeout_aborted += e.timeout_aborted;
    for f in &e.failures {
        if t.failures.len() < 8 {
            t.failures.push(f.clone());
        }
    }
    // An open-loop epoch whose generator ran late measured the
    // generator: it is checked for correctness but not averaged in.
    if e.late_share() > spec::LATE_SHARE_LIMIT {
        t.invalid_epochs += 1;
        return;
    }
    let r = &e.report;
    let measured = e.measured.len();
    t.cpu.absorb(e);
    for s in e.slices.iter().filter(|s| s.committed > 0) {
        t.per_slice
            .entry("commit_p50_us")
            .or_default()
            .push(s.p50_ns as f64 / 1e3);
        // Capacity in a closed loop. In an open loop the rate is the
        // arrivals', so goodput is judged over the whole epoch.
        if matches!(w.load, Load::ClosedBurst { .. }) {
            let rate = s.committed as f64 / s.wall.as_secs_f64();
            t.per_slice.entry("commits_per_s").or_default().push(rate);
        }
    }
    t.push("setup_s", e.setup.as_secs_f64());
    t.push("commits_per_s", e.committed as f64 / e.wall.as_secs_f64());
    t.push("cpu_us_per_txn", per(e.runtime_cpu_ns, e.committed) / 1e3);
    t.push("fsyncs_per_txn", per(r.physical_syncs, e.committed_total));
    t.push("written_bytes_per_txn", per(e.written_bytes, e.committed));
    t.push("allocs_per_txn", per(e.runtime_allocs, e.committed));
    t.push(
        "retained_bytes_per_txn",
        e.retained_bytes as f64 / measured.max(1) as f64,
    );
    let mut latency = e.latency_ns.clone();
    latency.sort_unstable();
    t.push(
        "commit_p50_us",
        quantile_sorted(&latency, 0.5).map_or(0.0, |v| v as f64 / 1e3),
    );
    t.latency_ns.extend_from_slice(&e.latency_ns);
    t.late_ns.extend_from_slice(&e.late_ns);

    // Read from the shutdown report: counts over the whole epoch,
    // warm-up included, per transaction attempted.
    let forces = r.stats.adaptive_forces + r.stats.window_forces;
    t.push(
        "wal.group_occupancy",
        per(
            r.group_commit.batched_appends,
            r.group_commit.batches as usize,
        ),
    );
    t.push(
        "wal.domain_records_per_round",
        per(r.fsync.records, r.fsync.rounds as usize),
    );
    t.push(
        "acta.events_per_txn",
        per(r.history.len() as u64, e.attempted),
    );
    t.push("reactor.ticks_per_txn", per(r.stats.ticks, e.attempted));
    t.push(
        "reactor.adaptive_force_share",
        per(r.stats.adaptive_forces, forces as usize),
    );
    t.push(
        "reactor.envelopes_per_txn",
        per(r.stats.envelopes, e.attempted),
    );
    t.push("reactor.client_send_ns", per(e.send_ns, measured));
    t.push("reactor.max_inflight", r.stats.max_inflight as f64);
    t.push("reactor.spawn_ms", e.spawn.as_secs_f64() * 1e3);
    t.push("reactor.shutdown_ms", e.shutdown.as_secs_f64() * 1e3);
    t.push(
        "reactor.timers_fired_per_txn",
        per(r.stats.timers_fired, e.attempted),
    );
    t.push(
        "reactor.timers_cancelled_per_txn",
        per(r.stats.timers_cancelled, e.attempted),
    );
    t.push("wire.frames_per_txn", per(r.wire.frames_sent, e.attempted));
    t.push("wire.bytes_per_txn", per(r.wire.bytes_sent, e.attempted));
    t.push(
        "wire.write_syscalls_per_txn",
        per(e.write_calls, e.committed),
    );
    t.push("wire.backpressure_drops", r.wire.backpressure_drops as f64);
    t.push(
        "client.cpu_us_per_txn",
        per(e.driver_cpu_ns, measured) / 1e3,
    );
    t.push("client.late_share", e.late_share());
    if !e.crashes.is_empty() {
        t.push(
            "recovery.aborted_per_crash",
            per(e.crash_aborted as u64, e.crashes.len()),
        );
        t.push(
            "recovery.dropped_replies_per_crash",
            per(e.crash_lost_replies as u64, e.crashes.len()),
        );
    }
    // Time without service: from the crash to the first commit
    // acknowledged for a transaction submitted after it (every
    // transaction involves every site).
    for c in &e.crashes {
        let back = e
            .measured
            .iter()
            .filter(|s| s.start >= c.at && s.ending == Ending::Decided(Outcome::Commit))
            .map(|s| s.done_at)
            .min();
        if let Some(back) = back {
            t.outage_ms[usize::from(c.site != 0)].push((back - c.at).as_secs_f64() * 1e3);
        }
    }
}

/// Fold one traced epoch into the tally: only what the trace gives.
fn absorb_traced(t: &mut Tally, e: &Epoch, recorder: &Recorder, next_span: &mut u64) {
    t.attempted += e.attempted;
    t.failed += e.failed;
    let keep = SPANS_KEPT.saturating_sub(t.spans.iter().filter(|s| s.parent.is_none()).count());
    let traced = trace::build(e, recorder, keep, next_span);
    t.traced_cpu.absorb(e);
    t.push("obs.events_per_txn", per(traced.events as u64, e.attempted));
    t.push(
        "core.forced_writes_per_txn",
        per(traced.forced_writes, e.attempted),
    );
    t.push("core.messages_per_txn", per(traced.messages, e.attempted));
    if !e.crashes.is_empty() {
        t.push(
            "recovery.inquiries_per_crash",
            per(traced.inquiries, e.crashes.len()),
        );
    }
    for (all, one) in t.phase_ns.iter_mut().zip(&traced.phase_ns) {
        all.extend_from_slice(one);
    }
    t.unattributed.extend_from_slice(&traced.unattributed_share);
    t.incomplete += traced.incomplete;
    t.traced_txns += e.measured.len();
    t.spans.extend(traced.spans);
}

fn median_u64(values: &mut [u64]) -> f64 {
    values.sort_unstable();
    quantile_sorted(values, 0.5).map_or(0.0, |v| v as f64)
}

/// Run `o.workload` and reduce it to the metrics of the chosen mode.
pub fn run(o: &Options) -> Result<Finished, String> {
    let w = o.workload;
    let started = Instant::now();
    let (txns, warmup) = if o.smoke {
        (spec::SMOKE_TXNS, spec::SMOKE_TXNS / 8)
    } else {
        (w.txns, w.warmup)
    };
    let mut notes = Vec::new();
    let mut t = Tally::default();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();

    if o.layers {
        for (name, v) in probe::run()? {
            values.insert(name, v);
        }
    }

    let mut next_span = 1;
    let mut epoch = 0;
    loop {
        let enough = if o.smoke {
            t.epochs >= spec::SMOKE_EPOCHS
        } else {
            t.epochs >= MIN_EPOCHS && started.elapsed() >= o.budget
        };
        if enough {
            break;
        }
        let e = epoch::run(w, txns, warmup, o.seed, epoch, None)?;
        absorb(&mut t, &e, w);
        drop(e);
        epoch += 1;
        if o.layers {
            let recorder = Arc::new(Recorder::new());
            let sink: Arc<dyn TraceSink> = recorder.clone();
            let e = epoch::run(w, txns, warmup, o.seed, epoch, Some(sink))?;
            absorb_traced(&mut t, &e, &recorder, &mut next_span);
            epoch += 1;
        }
        let rss = procfs::peak_rss_mb()?;
        if rss > spec::RSS_LIMIT_MB {
            return Err(format!(
                "peak resident memory {rss:.0} MB passed the {} MB limit: past it a run reaches memory \
                 the guest has not touched before and the numbers are not comparable",
                spec::RSS_LIMIT_MB
            ));
        }
    }
    let valid = t.epochs - t.invalid_epochs;
    if valid == 0 {
        return Err(format!(
            "all {} epochs had more than {:.0} % of sends over {:?} late: the generator, not the system, was measured",
            t.epochs,
            spec::LATE_SHARE_LIMIT * 100.0,
            spec::LATE_LIMIT
        ));
    }

    t.latency_ns.sort_unstable();
    t.late_ns.sort_unstable();
    let us = |ns: Option<u64>| ns.map_or(0.0, |v| v as f64 / 1e3);
    for m in END_TO_END {
        values.insert(m.name, t.end_to_end(m, w));
    }

    notes.push(format!(
        "epochs {} x {txns} transactions (+{warmup} warm-up), {} invalid; seed {}",
        t.epochs, t.invalid_epochs, o.seed
    ));
    notes.push(format!(
        "commit latency: {} samples, p50 over all of them {:.1} us",
        t.latency_ns.len(),
        us(quantile_sorted(&t.latency_ns, 0.5))
    ));
    for name in TIMING {
        let v = &t.per_epoch[name];
        notes.push(format!(
            "per-epoch spread of {name}: IQR {:.2} % of the median",
            iqr_share(v) * 100.0
        ));
    }
    let column = |name: &str, digits: usize| {
        let cells: Vec<String> = t.per_epoch[name]
            .iter()
            .map(|v| format!("{v:.digits$}"))
            .collect();
        format!("per-epoch {name}: {}", cells.join(" "))
    };
    for (name, digits) in [
        ("setup_s", 3),
        ("commits_per_s", 0),
        ("commit_p50_us", 0),
        ("cpu_us_per_txn", 1),
        ("fsyncs_per_txn", 3),
        ("written_bytes_per_txn", 0),
        ("allocs_per_txn", 1),
        ("retained_bytes_per_txn", 0),
    ] {
        notes.push(column(name, digits));
    }
    let rates = &t.per_epoch["commits_per_s"];
    let slowest = rates.iter().copied().fold(f64::INFINITY, f64::min);
    notes.push(format!(
        "slowest epoch ran at {:.2} of the median epoch's commits_per_s (below 0.7 a run has crossed the memory cliff)",
        slowest / t.median("commits_per_s")
    ));
    let rss = procfs::peak_rss_mb()?;
    notes.push(format!(
        "peak resident memory {rss:.0} MB (limit {} MB)",
        spec::RSS_LIMIT_MB
    ));
    if t.timeout_aborted > 0 {
        notes.push(format!(
            "{} planned commits aborted with no crash near: timers fired during a stall of the host",
            t.timeout_aborted
        ));
    }
    if matches!(w.load, Load::Open { .. }) {
        notes.push(format!(
            "generator lateness: p99 {:.1} us, {:.3} % of sends over {:?} late",
            us(tail_sorted(&t.late_ns, 0.99, 10)),
            t.median("client.late_share") * 100.0,
            spec::LATE_LIMIT
        ));
    }

    if o.layers {
        for m in PER_LAYER {
            if !values.contains_key(m.name) {
                values.insert(m.name, t.median(m.name));
            }
        }
        values.insert(
            "client.commit_p99_us",
            us(tail_sorted(&t.latency_ns, 0.99, 10)),
        );
        values.insert(
            "client.commit_p999_us",
            us(tail_sorted(&t.latency_ns, 0.999, 10)),
        );
        values.insert("client.late_p99_us", us(tail_sorted(&t.late_ns, 0.99, 10)));
        values.insert("client.samples", t.latency_ns.len() as f64);
        values.insert("client.peak_rss_mb", rss);
        values.insert(
            "recovery.outage_coord_p50_ms",
            median(&t.outage_ms[0]).unwrap_or(0.0),
        );
        values.insert(
            "recovery.outage_part_p50_ms",
            median(&t.outage_ms[1]).unwrap_or(0.0),
        );
        let untraced_cpu = values["cpu_us_per_txn"];
        let traced_cpu = t.traced_cpu.reduce(w).unwrap_or(untraced_cpu);
        values.insert(
            "obs.tracing_overhead_pct",
            (traced_cpu - untraced_cpu) / untraced_cpu * 100.0,
        );
        let mut phase_sum = 0.0;
        for (i, (_, metric)) in PHASES.iter().enumerate() {
            let v = median_u64(&mut t.phase_ns[i]) / 1e3;
            if i < CLIENT_WAIT {
                phase_sum += v;
            }
            values.insert(metric, v);
        }
        values.insert(
            "phase.unattributed_share",
            median(&t.unattributed).unwrap_or(0.0),
        );
        notes.push(format!(
            "traced {} transactions ({} without every cut); the medians of the phases up to the reply sum to {:.1} us \
             against a median of {:.1} us over the untraced epochs' commits",
            t.traced_txns,
            t.incomplete,
            phase_sum,
            us(quantile_sorted(&t.latency_ns, 0.5))
        ));
        let path = spec::package_dir()
            .join("out")
            .join(format!("trace_{}.json", w.name));
        trace::write(&path, w.name, o.seed, t.traced_txns, &t.spans)?;
        notes.push(format!("spans written to {}", path.display()));
    }

    let table = if o.layers { PER_LAYER } else { END_TO_END };
    Ok(Finished {
        metrics: table.iter().map(|m| (*m, values[m.name])).collect(),
        attempted: t.attempted,
        failed: t.failed,
        failures: t.failures,
        notes,
    })
}
