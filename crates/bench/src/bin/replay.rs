//! Trace replayer — re-checks the ACTA safe-state and atomicity
//! predicates over the committed trace corpus, so a regression that
//! silently changes protocol behaviour (or a bug in the checkers
//! themselves) fails CI even when the figure pipeline still renders.
//!
//! Two corpora are replayed:
//!
//! 1. `results/figures/traces.jsonl` — the eight committed figure
//!    panels plus the E17 overload panel. Each figure panel's
//!    `ProtocolEvent` stream is re-validated
//!    against event-level renditions of the paper's log rules: forces
//!    precede externalisation, presumptions excuse exactly the forces
//!    the paper says they excuse, and the coordinator only forgets
//!    (GCs) after it is safe to do so. The multi-transaction overload
//!    panel routes to its own checker (admission sheds are free,
//!    loud, and fed back to the retry policy). A set of mutation
//!    controls then proves the predicates have teeth: each seeded
//!    corruption must be flagged.
//! 2. The Theorem 1 counterexample traces — a crash sweep over the
//!    U2PC/PrC coordinator regenerates histories with atomicity
//!    violations; `check_atomicity` + `check_all_safe_states` must
//!    flag them, and the same sweep under PrAny must stay clean.
//!
//! ```sh
//! cargo run --release -p acp-bench --bin replay
//! ```

use acp_acta::check_atomicity;
use acp_acta::safe_state::check_all_safe_states;
use acp_bench::figures::OVERLOAD_SLUG;
use acp_bench::trace_check::{
    check_overload_panel, check_panel, load_panels, mutations, overload_mutations,
};
use acp_bench::{row, sep};
use acp_core::harness::{run_scenario, Scenario};
use acp_sim::{FailureSchedule, SimTime};
use acp_types::{CoordinatorKind, ProtocolKind, SelectionPolicy, SiteId, TxnId};
use std::path::Path;
use std::process::exit;

/// Theorem 1 slice: regenerate counterexample traces by sweeping a
/// participant crash through the U2PC/PrC decision window and confirm
/// the ACTA predicates flag them — and that PrAny survives the exact
/// same schedule untouched. Returns (violating runs, flagged by acta,
/// safe-state violations, total runs).
fn theorem1_sweep(kind: CoordinatorKind) -> (u32, u32, u32, u32) {
    const POP: [ProtocolKind; 2] = [ProtocolKind::PrA, ProtocolKind::PrC];
    let (mut violating, mut flagged, mut unsafe_states, mut runs) = (0, 0, 0, 0);
    for crash_us in (1_100..2_400).step_by(100) {
        for victim in [SiteId::new(1), SiteId::new(2)] {
            for abort in [false, true] {
                runs += 1;
                let mut s = Scenario::new(kind, &POP);
                s.add_txn(TxnId::new(1), SimTime::from_millis(1));
                if abort {
                    s.txns[0].abort_at = Some(SimTime::from_micros(1_250));
                }
                s.failures = FailureSchedule::single(
                    victim,
                    SimTime::from_micros(crash_us),
                    SimTime::from_millis(400),
                );
                let out = run_scenario(&s);
                let atomicity = check_atomicity(&out.history);
                let safe = check_all_safe_states(&out.history, SiteId::new(0));
                if !atomicity.is_empty() {
                    violating += 1;
                    // Cross-predicate re-check: an incompatible
                    // presumption breaks atomicity *by* answering the
                    // post-forget inquiry wrongly, so every
                    // counterexample trace must also violate the
                    // Definition 2 safe-state predicate.
                    if !safe.is_empty() {
                        flagged += 1;
                    }
                }
                unsafe_states += u32::from(!safe.is_empty());
            }
        }
    }
    (violating, flagged, unsafe_states, runs)
}

fn main() {
    let mut failures = 0u32;
    let traces = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/figures/traces.jsonl");
    let panels = load_panels(&traces);

    println!("Trace replay — ACTA predicate re-check over the committed corpus\n");
    let widths = [22, 8, 12];
    println!(
        "{}",
        row(
            &["panel".into(), "events".into(), "violations".into()],
            &widths
        )
    );
    println!("{}", sep(&widths));

    for p in &panels {
        let v = if p.slug == OVERLOAD_SLUG {
            check_overload_panel(&p.events)
        } else {
            check_panel(&p.events)
        };
        println!(
            "{}",
            row(
                &[
                    p.slug.clone(),
                    p.events.len().to_string(),
                    v.len().to_string()
                ],
                &widths
            )
        );
        for detail in &v {
            println!("    !! {detail}");
        }
        failures += v.len() as u32;
    }
    if panels.len() != 9 {
        println!("!! expected 9 committed panels, found {}", panels.len());
        failures += 1;
    }

    // Mutation controls: every seeded corruption of the first figure
    // panel must be flagged, and silently dropping the overload
    // panel's shed must be flagged too — or the predicates are
    // vacuous.
    println!("\nMutation controls (each must be flagged):\n");
    let clean = &panels.first().expect("at least one panel").events;
    let mut controls = 0u32;
    for (name, mutated) in mutations(clean) {
        controls += 1;
        let caught = !check_panel(&mutated).is_empty();
        println!(
            "  {:36} {}",
            name,
            if caught { "flagged" } else { "MISSED" }
        );
        if !caught {
            failures += 1;
        }
    }
    if let Some(overload) = panels.iter().find(|p| p.slug == OVERLOAD_SLUG) {
        for (name, mutated) in overload_mutations(&overload.events) {
            controls += 1;
            let caught = !check_overload_panel(&mutated).is_empty();
            println!(
                "  {:36} {}",
                name,
                if caught { "flagged" } else { "MISSED" }
            );
            if !caught {
                failures += 1;
            }
        }
    } else {
        println!("  !! no {OVERLOAD_SLUG} panel to mutate");
        failures += 1;
    }

    // Theorem 1 counterexample traces: the incompatible-presumption
    // coordinator must produce flagged histories, PrAny must not.
    println!(
        "\nTheorem 1 counterexample replay (13-point crash sweep x 2 victims x 2 outcomes):\n"
    );
    let (v_bad, flagged, unsafe_bad, runs) =
        theorem1_sweep(CoordinatorKind::U2pc(ProtocolKind::PrC));
    println!(
        "  U2PC/PrC : {v_bad}/{runs} violating runs, {flagged} also safe-state-flagged, {unsafe_bad} safe-state violations"
    );
    let (v_ok, _, unsafe_ok, runs_ok) =
        theorem1_sweep(CoordinatorKind::PrAny(SelectionPolicy::PaperStrict));
    println!("  PrAny    : {v_ok}/{runs_ok} violating runs, {unsafe_ok} safe-state violations");
    if v_bad == 0 || flagged != v_bad {
        println!("!! U2PC/PrC sweep must regenerate flagged counterexample traces");
        failures += 1;
    }
    if v_ok != 0 || unsafe_ok != 0 {
        println!("!! PrAny must replay clean over the same crash schedule");
        failures += 1;
    }

    if failures > 0 {
        println!("\nreplay FAILED: {failures} check(s)");
        exit(1);
    }
    println!(
        "\nreplay OK: {} panels, {controls} mutation controls, {runs} + {runs_ok} theorem-1 runs",
        panels.len()
    );
}
