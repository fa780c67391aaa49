//! E12 — group-commit batching for forced writes.
//!
//! Deterministic sim accounting (output committed to
//! `results/exp_group_commit.txt`): n concurrent lock-step
//! transactions under a narrow batch window coalesce exactly one
//! protocol force slot per batch, so the measured physical-force
//! count must equal [`acp_core::cost::predict_batched`]'s model
//! *exactly* — slot by slot, with batch size = n. Exits non-zero on
//! any mismatch.
//!
//! What batching buys in fsyncs and time on a real log is the repo
//! benchmark's question (`fsyncs_per_txn` on `reactor_burst64` vs
//! `reactor_open4k`); the threaded campaign that first measured it is
//! frozen in `results/frozen/BENCH_group_commit.json`.
//!
//! ```sh
//! cargo run --release -p acp-bench --bin exp_group_commit
//! ```

use acp_bench::{row, sep};
use acp_core::cost::{predict_batched, Population};
use acp_core::harness::{run_scenario, Scenario};
use acp_sim::SimTime;
use acp_types::{CoordinatorKind, Outcome, ProtocolKind, SelectionPolicy, TxnId};
use std::fmt::Write as _;
use std::path::Path;

fn population(protos: &[ProtocolKind]) -> Population {
    let mut p = Population::new(0, 0, 0);
    for proto in protos {
        match proto {
            ProtocolKind::PrN => p.prn += 1,
            ProtocolKind::PrA => p.pra += 1,
            ProtocolKind::PrC => p.prc += 1,
        }
    }
    p
}

/// Sim batch window (µs). The network's FIFO guarantee skews
/// same-instant deliveries apart by 1µs each, so one protocol force
/// slot spreads over at most n-1 µs; 20µs spans that skew for n ≤ 16
/// while staying far below the 200µs between consecutive slots, so
/// windows coalesce exactly one slot each.
const SIM_WINDOW_US: u64 = 20;

/// Run `n` identical same-instant transactions under the sim batch
/// window and compare the measured batch accounting with the model.
fn sim_cell(kind: CoordinatorKind, protos: &[ProtocolKind], n: u64) -> (u64, u64, u64, u64, bool) {
    let mut scenario = Scenario::new(kind, protos);
    // Fixed-latency network: identical per-message delays keep the n
    // transactions in lock-step, so each protocol force slot spans only
    // the FIFO delivery skew and the window coalesces exactly per slot.
    scenario.network = acp_sim::NetworkConfig::reliable(SimTime::from_micros(200));
    scenario.batch_window = Some(SIM_WINDOW_US);
    for t in 1..=n {
        scenario.add_txn(TxnId::new(t), SimTime::from_millis(1));
    }
    let out = run_scenario(&scenario);
    for t in 1..=n {
        assert_eq!(
            out.decided.get(&TxnId::new(t)),
            Some(&Outcome::Commit),
            "{kind} txn {t} must commit"
        );
    }
    let predicted = predict_batched(kind, Outcome::Commit, population(protos), n, n);
    let measured_physical = out.group_commit.batches;
    let measured_logical = out.group_commit.batched_appends;
    let exact = measured_physical == predicted.physical_forces
        && measured_logical == predicted.logical_forces;
    (
        measured_physical,
        predicted.physical_forces,
        measured_logical,
        predicted.logical_forces,
        exact,
    )
}

fn sim_table() -> (String, u64) {
    let mut doc = String::new();
    let _ = writeln!(
        doc,
        "E12 — group-commit batching: sim accounting vs. analytic model\n\
         n same-instant transactions, fixed 200us links, batch window 20us\n\
         (spans the FIFO delivery skew within one force slot; never bridges slots)\n\
         physical = batch forces performed, logical = forced appends absorbed\n"
    );
    let widths = [14, 12, 4, 18, 18, 14, 7];
    let _ = writeln!(
        doc,
        "{}",
        row(
            &[
                "coordinator".into(),
                "population".into(),
                "n".into(),
                "physical (model)".into(),
                "logical (model)".into(),
                "amortization".into(),
                "model".into(),
            ],
            &widths
        )
    );
    let _ = writeln!(doc, "{}", sep(&widths));

    let cells: [(CoordinatorKind, &[ProtocolKind], &str); 3] = [
        (
            CoordinatorKind::Single(ProtocolKind::PrA),
            &[ProtocolKind::PrA, ProtocolKind::PrA],
            "PrA x2",
        ),
        (
            CoordinatorKind::Single(ProtocolKind::PrC),
            &[ProtocolKind::PrC, ProtocolKind::PrC],
            "PrC x2",
        ),
        (
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrC],
            "PrA+PrC",
        ),
    ];

    let mut mismatches = 0;
    for (kind, protos, pop_label) in cells {
        for n in [1u64, 2, 4, 8, 16] {
            let (physical, model_physical, logical, model_logical, exact) =
                sim_cell(kind, protos, n);
            if !exact {
                mismatches += 1;
            }
            let amort = if physical == 0 {
                "-".to_string()
            } else {
                format!("{:.3}x", logical as f64 / physical as f64)
            };
            let _ = writeln!(
                doc,
                "{}",
                row(
                    &[
                        kind.to_string(),
                        pop_label.into(),
                        n.to_string(),
                        format!("{physical} ({model_physical})"),
                        format!("{logical} ({model_logical})"),
                        amort,
                        if exact { "exact" } else { "MISMATCH" }.to_string(),
                    ],
                    &widths
                )
            );
        }
    }
    let _ = writeln!(
        doc,
        "\noverall: {}",
        if mismatches == 0 {
            "ALL CELLS EXACT".to_string()
        } else {
            format!("{mismatches} CELLS MISMATCHED")
        }
    );
    (doc, mismatches)
}
fn main() {
    let (doc, mismatches) = sim_table();
    print!("{doc}");

    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).expect("results dir");
    std::fs::write(results.join("exp_group_commit.txt"), &doc)
        .expect("write exp_group_commit.txt");
    eprintln!("wrote results/exp_group_commit.txt");

    if mismatches > 0 {
        std::process::exit(1);
    }
}
