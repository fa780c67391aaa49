//! Quickstart: commit one transaction across a mixed PrA + PrC
//! multidatabase with a PrAny coordinator, and verify the run against
//! the paper's correctness criteria.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use presumed_any::obs::render_ascii;
use presumed_any::prelude::*;
use std::collections::BTreeMap;

fn main() {
    // A two-site multidatabase: site 1 speaks presumed abort, site 2
    // speaks presumed commit. Their presumptions about forgotten
    // transactions are *opposite* — the incompatibility the paper is
    // about. The coordinator (site 0) runs Presumed Any.
    let mut scenario = Scenario::new(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        &[ProtocolKind::PrA, ProtocolKind::PrC],
    );

    // One all-yes transaction, started 1ms into the run.
    let txn = TxnId::new(1);
    scenario.add_txn(txn, SimTime::from_millis(1));

    // Run it under the deterministic simulator.
    let out = run_scenario(&scenario);

    println!("decision: {}", out.decided[&txn]);
    for ((site, t), outcome) in &out.enforced {
        println!("  {site} enforced {outcome} for {t}");
    }

    // Functional correctness: everyone agreed (Definition 1, req. 1).
    let atomicity = check_atomicity(&out.history);
    println!("atomicity violations: {}", atomicity.len());

    // Operational correctness: everyone eventually forgot and can
    // garbage collect (Definition 1, reqs. 2–3).
    let operational = check_operational(&out.history, &out.final_state);
    println!("operational violations: {}", operational.len());
    println!(
        "coordinator protocol table at end: {} entries",
        out.coordinator_table_size
    );

    // The safe state (Definition 2) held at every forget point.
    let unsafe_states = check_all_safe_states(&out.history, SiteId::new(0));
    println!("safe-state violations: {}", unsafe_states.len());

    // What did commit processing cost?
    let measured = out.total_costs(txn);
    println!("measured: {measured}");
    let predicted = predict(
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
        Outcome::Commit,
        Population::new(0, 1, 1),
    );
    println!(
        "predicted: forces={} records={} messages={}",
        predicted.total_forces(),
        predicted.total_records(),
        predicted.messages
    );

    // And the full message/log schedule, exactly like the paper's
    // Figure 1.
    let labels = BTreeMap::from([
        (0, "coordinator (PrAny)".to_string()),
        (1, "S1 (PrA)".to_string()),
        (2, "S2 (PrC)".to_string()),
    ]);
    let title = "PrAny over a PrA and a PrC participant: commit";
    print!("\n{}", render_ascii(title, &out.events, &labels));

    assert!(atomicity.is_empty() && operational.is_empty() && unsafe_states.is_empty());
    println!("\nall checks passed");
}
