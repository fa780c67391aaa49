//! One epoch: plan, spawn a fresh cluster, warm up, run the fixed
//! measured work, drain, shut down, and check that every outcome is
//! one the plan allows.

use crate::cluster::{Cluster, Report};
use crate::plan::{self, Plan, PlannedTxn, PARTICIPANTS};
use crate::spec::{Load, Workload, LATE_LIMIT, REPLY_TIMEOUT};
use crate::{alloc, procfs};
use acp_acta::check_atomicity;
use acp_obs::TraceSink;
use acp_types::{Outcome, SiteId, TxnId, Vote};
use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wait until acknowledgments, forgetting and the turn's log
/// collection have finished, before live memory is read or the cluster
/// is stopped: until every runtime thread has been blocked and has used
/// no CPU over three checks in a row. A fixed sleep is not enough on a
/// shared guest: the reactor thread was once found stalled through a
/// 10 ms sleep, 49 transactions short of done.
fn quiesce() -> Result<(), String> {
    const CHECK: Duration = Duration::from_millis(2);
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut calm = 0;
    let mut used = procfs::cpu_ns()?.runtime;
    while calm < 3 && Instant::now() < deadline {
        std::thread::sleep(CHECK);
        let now = procfs::cpu_ns()?.runtime;
        calm = if now == used && procfs::runtime_asleep()? {
            calm + 1
        } else {
            0
        };
        used = now;
    }
    Ok(())
}

/// How long after a crashed site is due back its effects may still
/// show. The site goes down when the reactor handles the crash
/// envelope, not when the driver sends it, and on a shared guest the
/// reactor thread has been seen stalled for 33 ms; a transaction that
/// meets a site still down must not be reported as wrong.
const CRASH_SLACK: Duration = Duration::from_millis(50);

/// How a transaction ended, as the client saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ending {
    Decided(Outcome),
    /// The reply channel was dropped (the coordinator was down when
    /// the commit request arrived) or no reply came in `REPLY_TIMEOUT`.
    NoReply,
}

/// The driver's record of one submitted transaction.
#[derive(Clone, Copy, Debug)]
pub struct Submitted {
    pub txn: TxnId,
    /// When its first write was staged.
    pub staged_at: Instant,
    /// When `commit_async` was called.
    pub submitted_at: Instant,
    /// Where latency is timed from: the due instant in an open loop,
    /// `submitted_at` in a closed one.
    pub start: Instant,
    /// When the reply was observed (or given up on).
    pub done_at: Instant,
    pub ending: Ending,
    /// What a client retry of a dropped request came back with.
    pub settled: Option<Outcome>,
}

/// A crash as injected.
#[derive(Clone, Copy, Debug)]
pub struct Crash {
    pub site: u32,
    pub at: Instant,
    pub back_by: Instant,
}

/// A slice boundary inside the measured phase.
#[derive(Clone, Copy, Debug)]
struct Mark {
    /// The first transaction of the slice that starts here.
    index: usize,
    at: Instant,
    runtime_cpu_ns: u64,
}

/// One slice of the measured phase (`spec::Slicing`): consecutive
/// transactions. The timing metrics are taken per slice, because what
/// the host's other tenants do to a guest comes and goes within a
/// second (README, "Noise"): a whole epoch is nearly always a mixture
/// of disturbed and undisturbed stretches, a slice usually one or the
/// other.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub wall: Duration,
    pub runtime_cpu_ns: u64,
    pub committed: usize,
    /// Median commit latency of the slice's committed transactions.
    pub p50_ns: u64,
}

/// Raw measurements of one epoch.
pub struct Epoch {
    pub setup: Duration,
    pub spawn: Duration,
    pub shutdown: Duration,
    /// Wall time of the measured phase, to the last reply.
    pub wall: Duration,
    /// When the epoch began: the origin of trace time stamps.
    pub origin: Instant,
    pub measured: Vec<Submitted>,
    pub slices: Vec<Slice>,
    /// Committed in the measured phase, and in warm-up plus measured.
    pub committed: usize,
    pub committed_total: usize,
    pub attempted: usize,
    pub failed: usize,
    /// The first few failures, in words.
    pub failures: Vec<String>,
    /// Commit latency of each committed measured transaction.
    pub latency_ns: Vec<u64>,
    /// How late each open-loop send left (empty in a closed loop).
    pub late_ns: Vec<u64>,
    /// Driver time spent inside `apply`/`set_intent`/`commit_async`.
    pub send_ns: u64,
    pub runtime_cpu_ns: u64,
    pub driver_cpu_ns: u64,
    pub written_bytes: u64,
    pub write_calls: u64,
    pub runtime_allocs: u64,
    pub retained_bytes: i64,
    pub crashes: Vec<Crash>,
    /// Planned commits that a crash turned into aborts, and replies a
    /// crash lost. Counted, not failed.
    pub crash_aborted: usize,
    pub crash_lost_replies: usize,
    /// Planned commits aborted with no crash near: a timer fired during
    /// a stall of the host. Counted, not failed.
    pub timeout_aborted: usize,
    pub report: Report,
}

impl Epoch {
    /// Share of open-loop sends that left more than `LATE_LIMIT` late.
    pub fn late_share(&self) -> f64 {
        if self.late_ns.is_empty() {
            return 0.0;
        }
        let limit = LATE_LIMIT.as_nanos() as u64;
        self.late_ns.iter().filter(|&&l| l > limit).count() as f64 / self.late_ns.len() as f64
    }
}

struct Snapshot {
    cpu: procfs::CpuNs,
    io: procfs::WriteIo,
    heap: alloc::Snapshot,
}

fn snapshot() -> Result<Snapshot, String> {
    Ok(Snapshot {
        cpu: procfs::cpu_ns()?,
        io: procfs::write_io()?,
        heap: alloc::snapshot(),
    })
}

/// What a phase hands back.
struct Driven {
    done: Vec<Submitted>,
    slices: Vec<Slice>,
    send_ns: u64,
    late_ns: Vec<u64>,
    crashes: Vec<Crash>,
}

struct Pending {
    rx: Receiver<Outcome>,
    index: usize,
    /// A client retry of a commit request the coordinator dropped.
    retry: bool,
}

/// Drives one phase (warm-up or measured) of a plan against a cluster.
struct Phase<'a> {
    cluster: &'a Cluster,
    plan: &'a [PlannedTxn],
    ids: Vec<TxnId>,
    sites: [SiteId; PARTICIPANTS],
    done: Vec<Option<Submitted>>,
    staged_early: Vec<Option<Instant>>,
    /// Dropped commit requests to submit again, and when.
    retries: VecDeque<(Instant, usize)>,
    send_ns: u64,
    late_ns: Vec<u64>,
    crashes: Vec<Crash>,
    /// Where slices begin and end (`Plan::slice_bounds`); empty in the
    /// warm-up.
    slice_bounds: &'a [usize],
    marks: Vec<Mark>,
}

impl<'a> Phase<'a> {
    fn new(
        cluster: &'a mut Cluster,
        plan: &'a [PlannedTxn],
        open_loop: bool,
        slice_bounds: &'a [usize],
    ) -> Self {
        let ids = (0..plan.len()).map(|_| cluster.next_txn()).collect();
        Phase {
            cluster,
            plan,
            ids,
            sites: [SiteId::new(1), SiteId::new(2), SiteId::new(3)],
            done: vec![None; plan.len()],
            staged_early: vec![None; plan.len()],
            retries: VecDeque::new(),
            send_ns: 0,
            late_ns: Vec::with_capacity(if open_loop { plan.len() } else { 0 }),
            crashes: Vec::new(),
            slice_bounds,
            marks: Vec::with_capacity(slice_bounds.len()),
        }
    }

    /// Note a slice boundary before transaction `index` if one falls
    /// there.
    fn mark(&mut self, index: usize) {
        let due = self.slice_bounds.binary_search(&index).is_ok();
        if due && self.marks.last().is_none_or(|m| m.index < index) {
            // A missing /proc would already have failed the epoch's
            // first snapshot; a zero here would only void the slice.
            let runtime_cpu_ns = procfs::cpu_ns().map_or(0, |c| c.runtime);
            self.marks.push(Mark {
                index,
                at: Instant::now(),
                runtime_cpu_ns,
            });
        }
    }

    /// Stage transaction `i`'s writes. A collider's hot-key write was
    /// already staged with its predecessor; the predecessor stages its
    /// successor's, so the successor finds the lock taken.
    fn stage(&mut self, i: usize) -> Instant {
        let at = Instant::now();
        let t = &self.plan[i];
        for (p, key) in t.keys.iter().enumerate() {
            if t.collides_at != Some(p) {
                self.cluster
                    .apply(self.sites[p], self.ids[i], key, &t.value);
            }
        }
        if let Some(p) = t.no_vote_at {
            self.cluster
                .set_intent(self.sites[p], self.ids[i], Vote::No);
        }
        if let Some(next) = self.plan.get(i + 1) {
            if let Some(p) = next.collides_at {
                self.cluster
                    .apply(self.sites[p], self.ids[i + 1], &next.keys[p], &next.value);
                self.staged_early[i + 1] = Some(at);
            }
        }
        self.staged_early[i].unwrap_or(at)
    }

    /// Submit transaction `i`, staged at `staged_at`; latency is timed
    /// from `start` (`None`: from the submit itself).
    fn submit(
        &mut self,
        i: usize,
        staged_at: Instant,
        start: Option<Instant>,
    ) -> (Pending, Submitted) {
        let submitted_at = Instant::now();
        let rx = self.cluster.commit_async(self.ids[i], &self.sites);
        (
            Pending {
                rx,
                index: i,
                retry: false,
            },
            Submitted {
                txn: self.ids[i],
                staged_at,
                submitted_at,
                start: start.unwrap_or(submitted_at),
                done_at: submitted_at,
                ending: Ending::NoReply,
                settled: None,
            },
        )
    }

    fn resolve(&mut self, pending: Pending, mut slot: Submitted, ending: Ending) {
        let now = Instant::now();
        if pending.retry {
            if let Ending::Decided(o) = ending {
                slot.settled = Some(o);
            }
        } else {
            slot.done_at = now;
            slot.ending = ending;
            if ending == Ending::NoReply {
                // The coordinator was down and dropped the request, but
                // the participants hold the staged writes and their
                // locks: do what a client does, and ask again once the
                // coordinator is due back.
                let back = self
                    .crashes
                    .iter()
                    .rev()
                    .find(|c| c.site == 0)
                    .map_or(now, |c| c.back_by);
                self.retries.push_back((back.max(now), pending.index));
            }
        }
        self.done[pending.index] = Some(slot);
    }

    /// Closed loop: stage a window, submit it, await every reply.
    fn run_bursts(&mut self, window: usize) {
        let mut batch: Vec<(Pending, Submitted)> = Vec::with_capacity(window);
        for lo in (0..self.plan.len()).step_by(window) {
            let hi = (lo + window).min(self.plan.len());
            self.mark(lo);
            let t0 = Instant::now();
            // Staged first, then submitted together: the burst.
            let staged: Vec<Instant> = (lo..hi).map(|i| self.stage(i)).collect();
            for (i, staged_at) in (lo..hi).zip(staged) {
                let submitted = self.submit(i, staged_at, None);
                batch.push(submitted);
            }
            self.send_ns += t0.elapsed().as_nanos() as u64;
            for (pending, slot) in batch.drain(..) {
                let ending = match pending.rx.recv_timeout(REPLY_TIMEOUT) {
                    Ok(o) => Ending::Decided(o),
                    Err(_) => Ending::NoReply,
                };
                self.resolve(pending, slot, ending);
            }
            // No faults in a closed loop, so nothing is ever retried.
            self.retries.clear();
        }
        self.mark(self.plan.len());
    }

    /// Open loop: submit each transaction when it is due, whatever has
    /// or has not come back; between sends, sleep on the reply most
    /// likely to arrive next. Crashes are injected on the same clock.
    fn run_open(&mut self, crashes: &[plan::PlannedCrash], down_for: Duration) {
        let t0 = Instant::now();
        let mut next = 0;
        let mut next_crash = 0;
        let mut outstanding: VecDeque<(Pending, Submitted)> = VecDeque::new();
        loop {
            let mut now = Instant::now();
            self.sweep(&mut outstanding, now);
            // A participant is crashed with whatever is in flight. The
            // coordinator is crashed between transactions: with a
            // decision in the same reactor turn, the reactor would
            // acknowledge a commit whose record the crash discards
            // (README, "Known issues"), and a workload on which an
            // operation fails cannot serve as a benchmark.
            while let Some(c) = crashes.get(next_crash).filter(|c| t0 + c.at <= now) {
                if c.site == 0 && !outstanding.is_empty() {
                    break;
                }
                self.cluster.crash(SiteId::new(c.site), down_for);
                self.crashes.push(Crash {
                    site: c.site,
                    at: now,
                    back_by: now + down_for + CRASH_SLACK,
                });
                next_crash += 1;
            }
            while next < self.plan.len() && t0 + self.plan[next].due <= now {
                self.mark(next);
                let due = t0 + self.plan[next].due;
                self.late_ns.push((now - due).as_nanos() as u64);
                let staged_at = self.stage(next);
                outstanding.push_back(self.submit(next, staged_at, Some(due)));
                let sent = Instant::now();
                self.send_ns += (sent - now).as_nanos() as u64;
                now = sent;
                next += 1;
            }
            while let Some(&(at, index)) = self.retries.front().filter(|r| r.0 <= now) {
                self.retries.pop_front();
                let rx = self.cluster.commit_async(self.ids[index], &self.sites);
                let slot = self.done[index].expect("a retry follows a resolved first attempt");
                outstanding.push_back((
                    Pending {
                        rx,
                        index,
                        retry: true,
                    },
                    Submitted {
                        submitted_at: at.max(now),
                        ..slot
                    },
                ));
            }
            if next == self.plan.len() && outstanding.is_empty() && self.retries.is_empty() {
                self.mark(next);
                break;
            }
            let mut wake = now + Duration::from_millis(20);
            if let Some(t) = self.plan.get(next) {
                wake = wake.min(t0 + t.due);
            }
            if let Some(c) = crashes.get(next_crash) {
                // A coordinator crash that is waiting for the replies
                // in flight is retried at the next wake-up.
                wake = wake.min((t0 + c.at).max(now + Duration::from_micros(200)));
            }
            if let Some(r) = self.retries.front() {
                wake = wake.min(r.0);
            }
            self.wait(&mut outstanding, wake);
        }
    }

    /// Collect every reply that is ready.
    fn sweep(&mut self, outstanding: &mut VecDeque<(Pending, Submitted)>, now: Instant) {
        let mut i = 0;
        while i < outstanding.len() {
            let (pending, slot) = &outstanding[i];
            let ending = match pending.rx.try_recv() {
                Ok(o) => Some(Ending::Decided(o)),
                Err(TryRecvError::Disconnected) => Some(Ending::NoReply),
                Err(TryRecvError::Empty) => (now.saturating_duration_since(slot.submitted_at)
                    > REPLY_TIMEOUT)
                    .then_some(Ending::NoReply),
            };
            match ending {
                Some(ending) => {
                    let (pending, slot) = outstanding.remove(i).expect("index in range");
                    self.resolve(pending, slot, ending);
                }
                None => i += 1,
            }
        }
    }

    /// Sleep until `wake`, or until the reply expected next arrives:
    /// the oldest outstanding one that is not already overdue (a
    /// transaction stuck behind a crash must not hide the replies
    /// queueing up behind it).
    fn wait(&mut self, outstanding: &mut VecDeque<(Pending, Submitted)>, wake: Instant) {
        let now = Instant::now();
        let Some(timeout) = wake.checked_duration_since(now).filter(|d| !d.is_zero()) else {
            return;
        };
        let young = outstanding.iter().position(|(_, s)| {
            now.saturating_duration_since(s.submitted_at) < Duration::from_millis(3)
        });
        let Some(i) = young else {
            std::thread::sleep(timeout);
            return;
        };
        let ending = match outstanding[i].0.rx.recv_timeout(timeout) {
            Ok(o) => Ending::Decided(o),
            Err(RecvTimeoutError::Disconnected) => Ending::NoReply,
            Err(RecvTimeoutError::Timeout) => return,
        };
        let (pending, slot) = outstanding.remove(i).expect("index in range");
        self.resolve(pending, slot, ending);
    }

    fn run(&mut self, w: &Workload, crashes: &[plan::PlannedCrash]) {
        match w.load {
            Load::ClosedBurst { window } => self.run_bursts(window),
            Load::Open { .. } => {
                self.run_open(crashes, w.faults.map_or(Duration::ZERO, |f| f.down_for));
            }
        }
    }

    fn finish(self) -> Driven {
        let done: Vec<Submitted> = self
            .done
            .into_iter()
            .map(|s| s.expect("every planned transaction was submitted and resolved"))
            .collect();
        let slices = self
            .marks
            .windows(2)
            .map(|m| {
                let mut latency: Vec<u64> = done[m[0].index..m[1].index]
                    .iter()
                    .filter(|s| s.ending == Ending::Decided(Outcome::Commit))
                    .map(|s| (s.done_at - s.start).as_nanos() as u64)
                    .collect();
                latency.sort_unstable();
                Slice {
                    wall: m[1].at - m[0].at,
                    runtime_cpu_ns: m[1].runtime_cpu_ns.saturating_sub(m[0].runtime_cpu_ns),
                    committed: latency.len(),
                    p50_ns: latency.get(latency.len() / 2).copied().unwrap_or(0),
                }
            })
            .collect();
        Driven {
            done,
            slices,
            send_ns: self.send_ns,
            late_ns: self.late_ns,
            crashes: self.crashes,
        }
    }
}

/// Did a crash of `site` (or of any site, with `None`) overlap
/// `[from, to]`?
fn crashed_during(crashes: &[Crash], site: Option<u32>, from: Instant, to: Instant) -> bool {
    crashes
        .iter()
        .any(|c| site.is_none_or(|s| s == c.site) && c.at <= to && c.back_by >= from)
}

/// " (staged N ms after site S crashed)" for the crash before `s`.
fn nearest_crash(crashes: &[Crash], s: &Submitted) -> String {
    crashes.iter().rfind(|c| c.at <= s.staged_at).map_or(
        format!(
            " (took {:.1} ms)",
            (s.done_at - s.staged_at).as_secs_f64() * 1e3
        ),
        |c| {
            format!(
                " (staged {:.1} ms after site {} crashed, took {:.1} ms)",
                (s.staged_at - c.at).as_secs_f64() * 1e3,
                c.site,
                (s.done_at - s.staged_at).as_secs_f64() * 1e3
            )
        },
    )
}

struct Verdict {
    failed: usize,
    failures: Vec<String>,
    crash_aborted: usize,
    crash_lost_replies: usize,
    timeout_aborted: usize,
}

impl Verdict {
    fn fail(&mut self, n: usize, why: impl FnOnce() -> String) {
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(why());
        }
    }
}

/// The correctness gate. Failed means wrong, not unlucky: an outcome
/// the plan forbids when no crash overlapped the transaction, no
/// outcome at all, an atomicity violation in the epoch's history, a
/// committed value missing from a participant's store, or (with no
/// faults planned) a coordinator protocol table that is not empty
/// after the drain.
fn judge(
    w: &Workload,
    plan: &Plan,
    warm: &[Submitted],
    measured: &[Submitted],
    crashes: &[Crash],
    report: &Report,
) -> Verdict {
    let mut v = Verdict {
        failed: 0,
        failures: Vec::new(),
        crash_aborted: 0,
        crash_lost_replies: 0,
        timeout_aborted: 0,
    };
    let all = plan
        .warmup
        .iter()
        .zip(warm)
        .chain(plan.measured.iter().zip(measured));
    // (participant, key) -> the last committed writer, in plan order:
    // colliding pairs are serialised by the lock, everything else
    // writes keys of its own.
    let mut last_writer: HashMap<(usize, &[u8]), (&PlannedTxn, &Submitted)> = HashMap::new();
    for (t, s) in all {
        let overlapped = crashed_during(crashes, None, s.staged_at, s.done_at);
        match s.ending {
            Ending::Decided(o) if o == t.expected() => {}
            Ending::Decided(_) if overlapped && t.expected() == Outcome::Commit => {
                v.crash_aborted += 1
            }
            // A site that was down when a No vote or a colliding write
            // was staged never saw it.
            Ending::Decided(_) if overlapped => {}
            // With the fault workload's 20 ms vote timeout an abort is
            // also what a stall of the host gives (the reactor fires
            // due timers before it drains the votes that waited out the
            // stall with it), and an abort is always a safe outcome.
            // It costs goodput, which is bounded; it is not wrong.
            Ending::Decided(Outcome::Abort) if w.faults.is_some() => v.timeout_aborted += 1,
            Ending::Decided(o) => v.fail(1, || {
                format!(
                    "{}: {o:?} where the plan allows only {:?}{}",
                    s.txn,
                    t.expected(),
                    nearest_crash(crashes, s)
                )
            }),
            Ending::NoReply if crashed_during(crashes, Some(0), s.staged_at, s.done_at) => {
                v.crash_lost_replies += 1
            }
            Ending::NoReply => v.fail(1, || format!("{}: no outcome", s.txn)),
        }
        if s.ending == Ending::Decided(Outcome::Commit) || s.settled == Some(Outcome::Commit) {
            for (p, key) in t.keys.iter().enumerate() {
                last_writer.insert((p, key.as_slice()), (t, s));
            }
        }
    }
    for ((p, key), (t, s)) in last_writer {
        let site = p as u32 + 1;
        let stored = report
            .sites
            .get(site as usize)
            .and_then(|x| x.committed.get(key));
        // A write staged while its site was down was never staged: the
        // site then votes read-only, correctly. Anything else the
        // client saw commit must be in the store, crashes or not.
        let never_staged = crashed_during(crashes, Some(site), s.staged_at, s.submitted_at);
        if stored != Some(&t.value) && !never_staged {
            v.fail(1, || {
                format!("{}: committed value missing at site {site}", s.txn)
            });
        }
    }
    let violations = check_atomicity(&report.history);
    if !violations.is_empty() {
        v.fail(violations.len(), || format!("atomicity: {}", violations[0]));
    }
    if w.faults.is_none() && report.coordinator_table_size != 0 {
        v.fail(report.coordinator_table_size, || {
            format!(
                "coordinator still holds {} transactions after the drain",
                report.coordinator_table_size
            )
        });
    }
    v
}

/// Run epoch `epoch` of workload `w` with `txns` measured transactions
/// after `warmup` discarded ones, tracing into `sink` if given.
pub fn run(
    w: &Workload,
    txns: usize,
    warmup: usize,
    seed: u64,
    epoch: usize,
    sink: Option<Arc<dyn TraceSink>>,
) -> Result<Epoch, String> {
    let origin = Instant::now();
    let plan = plan::generate(w, txns, warmup, seed, epoch);
    let spawn_started = Instant::now();
    let mut cluster = Cluster::spawn(w, sink)?;
    let spawn = spawn_started.elapsed();
    let open_loop = matches!(w.load, Load::Open { .. });
    let mut phase = Phase::new(&mut cluster, &plan.warmup, open_loop, &[]);
    phase.run(w, &[]);
    let warm = phase.finish().done;
    quiesce()?;

    // The driver's own bookkeeping is allocated before the first
    // snapshot and released after the second, so it is in neither.
    let mut phase = Phase::new(&mut cluster, &plan.measured, open_loop, &plan.slice_bounds);
    let before = snapshot()?;
    let started = Instant::now();
    let setup = started - origin;
    phase.run(w, &plan.crashes);
    quiesce()?;
    let after = snapshot()?;
    let Driven {
        done: measured,
        slices,
        send_ns,
        late_ns,
        crashes,
    } = phase.finish();
    let last_reply = measured
        .iter()
        .filter(|s| matches!(s.ending, Ending::Decided(_)))
        .map(|s| s.done_at)
        .max()
        .unwrap_or(started);

    let stop_started = Instant::now();
    let report = cluster.shutdown();
    let shutdown = stop_started.elapsed();

    let committed_in = |subs: &[Submitted]| {
        subs.iter()
            .filter(|s| s.ending == Ending::Decided(Outcome::Commit))
            .count()
    };
    let committed = committed_in(&measured);
    let latency_ns = measured
        .iter()
        .filter(|s| s.ending == Ending::Decided(Outcome::Commit))
        .map(|s| (s.done_at - s.start).as_nanos() as u64)
        .collect();
    let verdict = judge(w, &plan, &warm, &measured, &crashes, &report);
    Ok(Epoch {
        setup,
        spawn,
        shutdown,
        wall: last_reply - started,
        origin,
        committed,
        committed_total: committed + committed_in(&warm),
        attempted: warm.len() + measured.len(),
        failed: verdict.failed,
        failures: verdict.failures,
        latency_ns,
        late_ns,
        send_ns,
        runtime_cpu_ns: after.cpu.runtime - before.cpu.runtime,
        driver_cpu_ns: after.cpu.driver - before.cpu.driver,
        written_bytes: after.io.bytes - before.io.bytes,
        write_calls: after.io.calls - before.io.calls,
        runtime_allocs: after.heap.runtime_allocs - before.heap.runtime_allocs,
        retained_bytes: after.heap.live_bytes - before.heap.live_bytes,
        crashes,
        crash_aborted: verdict.crash_aborted,
        crash_lost_replies: verdict.crash_lost_replies,
        timeout_aborted: verdict.timeout_aborted,
        measured,
        slices,
        report,
    })
}
