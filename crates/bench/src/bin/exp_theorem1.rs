//! E5 — Theorem 1: atomicity-violation counts for U2PC coordinators
//! over a PrA + PrC population, versus PrAny, under (a) a deterministic
//! crash-point sweep and (b) the exhaustive bounded model checker.
//!
//! ```sh
//! cargo run --release -p acp-bench --bin exp_theorem1
//! ```

use acp_acta::check_atomicity;
use acp_bench::{default_threads, parallel_map, row, sep};
use acp_check::{check, CheckConfig};
use acp_core::harness::{run_scenario_with_sink, Scenario};
use acp_obs::{CountingSink, MetricsRegistry, TraceSink};
use acp_sim::{FailureSchedule, SimTime};
use acp_types::{CoordinatorKind, ProtocolKind, SelectionPolicy, SiteId, TxnId};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

const POP: [ProtocolKind; 2] = [ProtocolKind::PrA, ProtocolKind::PrC];

/// Sweep a single participant crash through the decision window and
/// count runs with atomicity violations. The 104 sweep points are
/// independent simulator runs, fanned across the thread pool; the
/// violation count is order-insensitive, so output is unchanged — and
/// so are the aggregate cost metrics, because the registry's atomic
/// additions commute across any scheduling.
fn sweep(kind: CoordinatorKind, registry: &Arc<MetricsRegistry>) -> (u32, u32) {
    let mut points = Vec::new();
    for crash_us in (1_100..2_400).step_by(50) {
        for victim in [SiteId::new(1), SiteId::new(2)] {
            for abort in [false, true] {
                points.push((crash_us, victim, abort));
            }
        }
    }
    let runs = points.len() as u32;
    let sink: Arc<dyn TraceSink> = Arc::new(CountingSink::new(Arc::clone(registry)));
    let violations = parallel_map(points, default_threads(), |(crash_us, victim, abort)| {
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
        let out = run_scenario_with_sink(&s, Arc::clone(&sink));
        u32::from(!check_atomicity(&out.history).is_empty())
    })
    .into_iter()
    .sum();
    (violations, runs)
}

fn main() {
    let timing = std::env::args().any(|a| a == "--timing");
    let kinds = [
        CoordinatorKind::U2pc(ProtocolKind::PrN),
        CoordinatorKind::U2pc(ProtocolKind::PrA),
        CoordinatorKind::U2pc(ProtocolKind::PrC),
        CoordinatorKind::C2pc(ProtocolKind::PrN),
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
    ];

    println!("E5 / Theorem 1 — atomicity of integrated coordinators over a PrA+PrC population");
    println!(
        "(checker threads: {}; identical output at any count)\n",
        default_threads()
    );
    let widths = [12, 22, 26, 22];
    println!(
        "{}",
        row(
            &[
                "coordinator".into(),
                "sweep violations/runs".into(),
                "checker counterexamples".into(),
                "checker states".into(),
            ],
            &widths
        )
    );
    println!("{}", sep(&widths));

    let mut metrics_doc = String::from(
        "{\n  \"experiment\": \"E5 / Theorem 1 — 104-point crash sweep per coordinator, PrA+PrC population\",\n  \"configs\": [",
    );
    for (i, kind) in kinds.into_iter().enumerate() {
        let registry = Arc::new(MetricsRegistry::new());
        let (v, runs) = sweep(kind, &registry);
        let _ = write!(
            metrics_doc,
            "{}\n    {{\n      \"coordinator\": \"{kind}\",\n      \"sweep_violations\": {v},\n      \"sweep_runs\": {runs},\n      \"protocols\": {}\n    }}",
            if i == 0 { "" } else { "," },
            registry.protocols_json(3)
        );
        let report = check(&CheckConfig::new(kind, &POP));
        println!(
            "{}",
            row(
                &[
                    kind.to_string(),
                    format!("{v}/{runs}"),
                    format!(
                        "{}{}",
                        report.counterexamples.len(),
                        if report.truncated { " (truncated)" } else { "" }
                    ),
                    report.states_explored.to_string(),
                ],
                &widths
            )
        );
    }

    metrics_doc.push_str("\n  ]\n}\n");
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).expect("results dir");
    std::fs::write(results.join("metrics_e5.json"), &metrics_doc).expect("write metrics_e5.json");
    eprintln!("wrote per-protocol cost metrics to results/metrics_e5.json");

    println!("\nFirst mechanical counterexample for U2PC/PrC (Theorem 1 Part III):\n");
    let report = check(&CheckConfig::new(
        CoordinatorKind::U2pc(ProtocolKind::PrC),
        &POP,
    ));
    if let Some(cx) = report.counterexamples.first() {
        println!("{cx}");
    }

    // Optional: wall-clock comparison of the serial and parallel
    // checker on a deeper bound (the EXPERIMENTS.md E5 timing column).
    if timing {
        println!("\nChecker wall-clock, crashes=2 bound (serial vs parallel):\n");
        let twidths = [12, 14, 14, 14, 10];
        println!(
            "{}",
            row(
                &[
                    "coordinator".into(),
                    "states".into(),
                    "1 thread".into(),
                    format!("{} threads", default_threads()),
                    "speedup".into(),
                ],
                &twidths
            )
        );
        println!("{}", sep(&twidths));
        for kind in kinds {
            let mut config = CheckConfig::new(kind, &POP);
            config.crashes = 2;
            let t0 = std::time::Instant::now();
            let serial = check(&config.clone().with_threads(1));
            let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t1 = std::time::Instant::now();
            let parallel = check(&config);
            let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;
            assert_eq!(serial.to_string(), parallel.to_string(), "determinism");
            println!(
                "{}",
                row(
                    &[
                        kind.to_string(),
                        serial.states_explored.to_string(),
                        format!("{serial_ms:.0} ms"),
                        format!("{parallel_ms:.0} ms"),
                        format!("{:.2}x", serial_ms / parallel_ms),
                    ],
                    &twidths
                )
            );
        }
    }
}
