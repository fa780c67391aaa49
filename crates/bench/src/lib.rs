//! # acp-bench
//!
//! Experiment harness: one `exp_*` binary per experiment of the
//! reproduction plan, regenerating the paper's figures and theorems as
//! tables on stdout or files under `results/`. Each binary has one mode
//! and a deterministic pass/fail; a number timed by the wall clock
//! comes from the repo benchmark (`benchmarks/`, `perf run`) or is
//! frozen under `results/frozen/`. See DESIGN.md for the experiment
//! index and EXPERIMENTS.md for recorded results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use acp_core::harness::{run_scenario, Scenario, ScenarioOutcome};
use acp_sim::SimTime;
use acp_types::{CoordinatorKind, Outcome, ProtocolKind, SiteId, TxnId};

pub mod figures;
#[cfg(unix)]
pub mod procnode;
pub mod trace_check;

/// Standard single-transaction scenario used across experiments:
/// all-yes voters, reliable 200us links.
#[must_use]
pub fn one_txn_scenario(kind: CoordinatorKind, protos: &[ProtocolKind], abort: bool) -> Scenario {
    let mut s = Scenario::new(kind, protos);
    s.add_txn(TxnId::new(1), SimTime::from_millis(1));
    if abort {
        s.txns[0].abort_at = Some(SimTime::from_micros(1_250));
    }
    s
}

/// Run the standard scenario and return its outcome.
#[must_use]
pub fn run_one(kind: CoordinatorKind, protos: &[ProtocolKind], abort: bool) -> ScenarioOutcome {
    run_scenario(&one_txn_scenario(kind, protos, abort))
}

/// Render a markdown-ish table row.
#[must_use]
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::from("|");
    for (c, w) in cells.iter().zip(widths) {
        out.push_str(&format!(" {c:<w$} |"));
    }
    out
}

/// Render a separator row.
#[must_use]
pub fn sep(widths: &[usize]) -> String {
    let mut out = String::from("|");
    for w in widths {
        out.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    out
}

/// Pretty site label for experiment output.
#[must_use]
pub fn site_label(s: SiteId, protos: &[ProtocolKind]) -> String {
    if s.raw() == 0 {
        "coordinator".to_string()
    } else {
        format!("site {} ({})", s.raw(), protos[s.raw() as usize - 1])
    }
}

/// Format an outcome for tables.
#[must_use]
pub fn outcome_label(o: Outcome) -> &'static str {
    match o {
        Outcome::Commit => "commit",
        Outcome::Abort => "abort",
    }
}

/// The machine's available parallelism (fallback 1).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Map `f` over `items` on up to `threads` worker threads, preserving
/// input order in the output. Work is distributed dynamically through a
/// work-stealing injector, but because each item carries its index and
/// results are placed back by index, scheduling cannot affect the
/// result — callers get exactly what the serial `map` would produce.
///
/// Experiment binaries use this to fan independent units (sweep points,
/// campaign seeds, per-coordinator checks) across the pool without
/// changing their printed output.
///
/// # Panics
/// Propagates a panic from `f`.
#[must_use]
pub fn parallel_map<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let injector = crossbeam::deque::Injector::new();
    for pair in items.into_iter().enumerate() {
        injector.push(pair);
    }
    let f = &f;
    let indexed: Vec<(usize, U)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(n))
            .map(|_| {
                let injector = &injector;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        match injector.steal() {
                            crossbeam::deque::Steal::Success((i, item)) => out.push((i, f(item))),
                            crossbeam::deque::Steal::Empty => break,
                            crossbeam::deque::Steal::Retry => {}
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel_map worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for (i, u) in indexed {
        slots[i] = Some(u);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index produced"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_types::SelectionPolicy;

    #[test]
    fn helpers_run() {
        let out = run_one(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
            false,
        );
        assert_eq!(out.decided[&TxnId::new(1)], Outcome::Commit);
        let r = row(&["a".into(), "bb".into()], &[3, 3]);
        assert_eq!(r, "| a   | bb  |");
        assert_eq!(sep(&[3, 3]), "|-----|-----|");
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 4, 7] {
            assert_eq!(parallel_map(items.clone(), threads, |x| x * x), serial);
        }
    }
}
