//! E8 — the cost table: analytic model vs. measured execution, per
//! protocol × outcome, for homogeneous and mixed populations, plus the
//! modeled critical-path latency. Exits non-zero if any cell's measured
//! costs differ from the model's.
//!
//! ```sh
//! cargo run --release -p acp-bench --bin exp_costs
//! ```

use acp_bench::{row, run_one, sep};
use acp_core::cost::{predict, Population};
use acp_types::{CoordinatorKind, Outcome, ProtocolKind, SelectionPolicy, TxnId};

const T: TxnId = TxnId(1);

/// Print one cell's row; returns whether measured and predicted agree.
fn entry(kind: CoordinatorKind, outcome: Outcome, pop: Population, widths: &[usize]) -> bool {
    let protos: Vec<ProtocolKind> = pop.entries().iter().map(|e| e.protocol).collect();
    let out = run_one(kind, &protos, outcome == Outcome::Abort);
    assert_eq!(out.decided[&T], outcome);
    let measured = out.total_costs(T);
    let coord = out.coordinator_costs[&T];
    let predicted = predict(kind, outcome, pop);

    let ok = coord.forced_writes == predicted.coord_forces
        && measured.forced_writes == predicted.total_forces()
        && measured.log_records == predicted.total_records()
        && measured.messages() == predicted.messages;
    println!(
        "{}",
        row(
            &[
                kind.to_string(),
                outcome.to_string(),
                format!("{}/{}/{}", pop.prn, pop.pra, pop.prc),
                format!("{} ({})", measured.forced_writes, predicted.total_forces()),
                format!("{} ({})", coord.forced_writes, predicted.coord_forces),
                format!("{} ({})", measured.log_records, predicted.total_records()),
                format!("{} ({})", measured.messages(), predicted.messages),
                if ok { "match" } else { "MISMATCH" }.to_string(),
            ],
            widths
        )
    );
    ok
}

fn main() {
    println!("E8 — commit-processing costs, measured (predicted)\n");
    println!("population column: #PrN/#PrA/#PrC participants\n");
    let widths = [12, 8, 12, 14, 16, 14, 12, 10];
    println!(
        "{}",
        row(
            &[
                "coordinator".into(),
                "outcome".into(),
                "population".into(),
                "forces".into(),
                "coord forces".into(),
                "log records".into(),
                "messages".into(),
                "model".into(),
            ],
            &widths
        )
    );
    println!("{}", sep(&widths));

    let mut mismatches = 0;
    for outcome in [Outcome::Commit, Outcome::Abort] {
        for (kind, pop) in [
            (
                CoordinatorKind::Single(ProtocolKind::PrN),
                Population::new(3, 0, 0),
            ),
            (
                CoordinatorKind::Single(ProtocolKind::PrA),
                Population::new(0, 3, 0),
            ),
            (
                CoordinatorKind::Single(ProtocolKind::PrC),
                Population::new(0, 0, 3),
            ),
            (
                CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
                Population::new(1, 1, 1),
            ),
            (
                CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
                Population::new(1, 1, 0),
            ),
            (
                CoordinatorKind::PrAny(SelectionPolicy::Optimized),
                Population::new(1, 1, 0),
            ),
        ] {
            if !entry(kind, outcome, pop, &widths) {
                mismatches += 1;
            }
        }
    }

    // Modeled critical-path commit latency: sequential forces on the
    // commit path (initiation → prepare-force → commit-force) plus two
    // message round trips. Latency parameters: 5ms per force, 0.2ms per
    // one-way message (the shape, not absolute numbers, is the claim).
    println!("\nModeled commit latency (force=5ms, one-way message=0.2ms):\n");
    let widths = [12, 12, 20, 16];
    println!(
        "{}",
        row(
            &[
                "coordinator".into(),
                "population".into(),
                "critical-path forces".into(),
                "latency (ms)".into(),
            ],
            &widths
        )
    );
    println!("{}", sep(&widths));
    for (kind, pop) in [
        (
            CoordinatorKind::Single(ProtocolKind::PrN),
            Population::new(3, 0, 0),
        ),
        (
            CoordinatorKind::Single(ProtocolKind::PrA),
            Population::new(0, 3, 0),
        ),
        (
            CoordinatorKind::Single(ProtocolKind::PrC),
            Population::new(0, 0, 3),
        ),
        (
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            Population::new(1, 1, 1),
        ),
    ] {
        let p = predict(kind, Outcome::Commit, pop);
        // Critical path to the *decision*: initiation force (if any) +
        // participant prepared force + coordinator decision force, plus
        // prepare + vote one-way trips.
        let init = u64::from(p.coord_forces >= 2); // initiation present
        let forces_on_path = init + 1 /* prepared */ + 1 /* decision */;
        let latency_ms = forces_on_path as f64 * 5.0 + 2.0 * 0.2;
        println!(
            "{}",
            row(
                &[
                    kind.to_string(),
                    format!("{}/{}/{}", pop.prn, pop.pra, pop.prc),
                    forces_on_path.to_string(),
                    format!("{latency_ms:.1}"),
                ],
                &widths
            )
        );
    }

    if mismatches > 0 {
        eprintln!("exp_costs: {mismatches} cell(s) differ from the cost model");
        std::process::exit(1);
    }
}
