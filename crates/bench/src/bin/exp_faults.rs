//! E8 — fault-injection campaign: crashes × message loss × torn writes
//! across every coordinator kind.
//!
//! Each cell of the matrix runs a batch of seeded randomized scenarios
//! under one fault regime (clean, 20% loss, single crash, crash-during-
//! recovery double crash, loss + double crash) and reports PASS only if
//! no prepared site was left in doubt at quiescence and no correctness
//! predicate (atomicity, operational, safe-state) found a violation. A final
//! section drives the [`acp_wal::FaultyLog`] storage-fault substrate
//! with randomized torn tails, partial fsyncs and bit flips, counting
//! how many corrupted records the recovery scan accepted (must be 0).
//!
//! ```sh
//! cargo run --release -p acp-bench --bin exp_faults [seeds]
//! ```
//!
//! The output is deterministic for a given seed count, so
//! `scripts/verify.sh` can diff a regeneration against the committed
//! `results/exp_faults.txt`.

use acp_acta::safe_state::check_all_safe_states;
use acp_acta::{check_atomicity, check_operational};
use acp_bench::{row, sep};
use acp_core::harness::{run_scenario, Scenario};
use acp_sim::{FailureSchedule, NetworkConfig, SimTime};
use acp_types::{
    CoordinatorKind, LogPayload, Outcome, ProtocolKind, SelectionPolicy, SiteId, TxnId,
};
use acp_wal::{Fault, FaultyLog, StableLog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::path::Path;

const MIXED: [ProtocolKind; 3] = [ProtocolKind::PrN, ProtocolKind::PrA, ProtocolKind::PrC];

/// The five fault regimes of the matrix.
#[derive(Clone, Copy)]
enum Regime {
    Clean,
    Loss,
    Crash,
    DoubleCrash,
    LossAndDoubleCrash,
}

impl Regime {
    const ALL: [Regime; 5] = [
        Regime::Clean,
        Regime::Loss,
        Regime::Crash,
        Regime::DoubleCrash,
        Regime::LossAndDoubleCrash,
    ];

    fn name(self) -> &'static str {
        match self {
            Regime::Clean => "clean",
            Regime::Loss => "loss 0.2",
            Regime::Crash => "crash",
            Regime::DoubleCrash => "double-crash",
            Regime::LossAndDoubleCrash => "loss+double-crash",
        }
    }
}

struct CellStats {
    runs: u64,
    stuck: u64,
    atomicity: u64,
    operational: u64,
    safe_state: u64,
}

/// The participant population each coordinator kind claims to handle
/// soundly: a single-protocol or straw-man integrated coordinator is
/// only specified for a homogeneous population of its base protocol
/// (mixing presumptions under them is exactly what Theorems 1 and 2
/// break); PrAny exists to take the mixed population.
fn population(kind: CoordinatorKind) -> [ProtocolKind; 3] {
    match kind {
        CoordinatorKind::Single(p) | CoordinatorKind::U2pc(p) | CoordinatorKind::C2pc(p) => {
            [p, p, p]
        }
        CoordinatorKind::PrAny(_) => MIXED,
    }
}

/// One randomized scenario: two transactions (the second sometimes a
/// deliberate abort), faults drawn from `rng` per the regime.
fn run_cell_seed(kind: CoordinatorKind, regime: Regime, seed: u64) -> CellStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = Scenario::new(kind, &population(kind));
    s.seed = seed;
    let t1 = TxnId::new(1);
    let t2 = TxnId::new(2);
    s.add_txn(t1, SimTime::from_millis(1));
    s.add_txn(t2, SimTime::from_millis(4));
    if rng.random::<f64>() < 0.3 {
        s.txns[1].abort_at = Some(SimTime::from_micros(4_250));
    }

    match regime {
        Regime::Clean => {}
        Regime::Loss => s.network = NetworkConfig::lossy(0.2),
        Regime::Crash => {
            let victim = SiteId::new(rng.random_range(0..=3));
            let crash_at = SimTime::from_micros(rng.random_range(900..2_600));
            s.failures =
                FailureSchedule::single(victim, crash_at, crash_at + SimTime::from_millis(150));
        }
        Regime::DoubleCrash => {
            let victim = SiteId::new(rng.random_range(0..=3));
            let crash_at = SimTime::from_micros(rng.random_range(900..2_600));
            s.failures = FailureSchedule::double_crash(
                victim,
                crash_at,
                crash_at + SimTime::from_millis(40),
                SimTime::from_micros(rng.random_range(0..500)),
                SimTime::from_millis(110),
            );
        }
        Regime::LossAndDoubleCrash => {
            s.network = NetworkConfig::lossy(0.1);
            let victim = SiteId::new(rng.random_range(0..=3));
            let crash_at = SimTime::from_micros(rng.random_range(900..2_600));
            s.failures = FailureSchedule::double_crash(
                victim,
                crash_at,
                crash_at + SimTime::from_millis(40),
                SimTime::from_micros(rng.random_range(0..500)),
                SimTime::from_millis(110),
            );
        }
    }

    let out = run_scenario(&s);
    // Termination: every site that *prepared* (is in doubt) must have
    // learned and enforced an outcome by quiescence. A transaction the
    // double crash swallowed before anyone prepared is not stuck — no
    // site holds locks for it and the client simply resubmits. (PrN/PrA
    // coordinators write no initiation record, so a crash straight
    // after `begin_commit` legitimately erases the attempt.)
    let stuck = out
        .history
        .events()
        .filter_map(|e| match e {
            acp_acta::ActaEvent::Prepared { participant, txn } => Some((participant, txn)),
            _ => None,
        })
        .filter(|key| !out.enforced.contains_key(key))
        .count() as u64;
    CellStats {
        runs: 1,
        stuck,
        atomicity: check_atomicity(&out.history).len() as u64,
        operational: check_operational(&out.history, &out.final_state).len() as u64,
        safe_state: check_all_safe_states(&out.history, SiteId::new(0)).len() as u64,
    }
}

fn run_cell(kind: CoordinatorKind, regime: Regime, seeds: u64) -> CellStats {
    let mut total = CellStats {
        runs: 0,
        stuck: 0,
        atomicity: 0,
        operational: 0,
        safe_state: 0,
    };
    for seed in 0..seeds {
        let s = run_cell_seed(kind, regime, seed);
        total.runs += s.runs;
        total.stuck += s.stuck;
        total.atomicity += s.atomicity;
        total.operational += s.operational;
        total.safe_state += s.safe_state;
    }
    total
}

/// Randomized storage-fault campaign against [`FaultyLog`]: append a
/// random record sequence, queue random faults, crash, and count how
/// many recovered records differ from what was actually appended (a
/// corrupted record the CRC framing failed to reject).
fn wal_campaign(seeds: u64) -> (u64, u64, u64, u64) {
    let (mut faults, mut lost, mut survivors, mut corrupted_accepted) = (0u64, 0u64, 0u64, 0u64);
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0xFA01 + seed);
        let mut log = FaultyLog::new();
        let mut appended: Vec<LogPayload> = Vec::new();
        for i in 0..rng.random_range(4..16u64) {
            let txn = TxnId::new(i + 1);
            let payload = match rng.random_range(0..4u32) {
                0 => LogPayload::Prepared {
                    txn,
                    coordinator: SiteId::new(0),
                },
                1 => LogPayload::PartDecision {
                    txn,
                    outcome: if rng.random::<bool>() {
                        Outcome::Commit
                    } else {
                        Outcome::Abort
                    },
                },
                2 => LogPayload::End { txn },
                _ => LogPayload::PartEnd { txn },
            };
            let force = rng.random::<f64>() < 0.6;
            appended.push(payload.clone());
            log.append(payload, force).expect("append");
        }
        for _ in 0..rng.random_range(1..=3u32) {
            let fault = match rng.random_range(0..3u32) {
                0 => Fault::TornTail {
                    bytes: rng.random_range(1..64),
                },
                1 => Fault::PartialFsync {
                    drop_bytes: rng.random_range(1..48),
                },
                // Flips land past the 16-byte header: header damage is
                // *detected* (recovery refuses the whole log) rather
                // than recovered-around, so it would end the campaign
                // early instead of exercising the frame scan.
                _ => Fault::BitFlip {
                    offset: rng.random_range(16..log.image().len().max(17) as u64),
                    mask: rng.random_range(1..=255u32) as u8,
                },
            };
            log.inject(fault);
        }
        // Partial fsyncs only bite at a flush; force one so the queued
        // fault has a batch to damage before the crash.
        let _ = log.flush();
        let report = log.crash_and_recover().expect("recover");
        faults += log.faults_applied();
        lost += (report.lost_buffered + report.lost_durable) as u64;
        survivors += report.survivors as u64;
        // Every survivor must be byte-identical to the record appended
        // at its position: recovery keeps a *prefix*, never an altered
        // or reordered record.
        let recovered = log.records().expect("records");
        if recovered.len() > appended.len() {
            corrupted_accepted += (recovered.len() - appended.len()) as u64;
        }
        for (i, rec) in recovered.iter().enumerate() {
            if appended.get(i) != Some(&rec.payload) {
                corrupted_accepted += 1;
            }
        }
    }
    (faults, lost, survivors, corrupted_accepted)
}

fn main() {
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10);

    let kinds = [
        CoordinatorKind::Single(ProtocolKind::PrN),
        CoordinatorKind::Single(ProtocolKind::PrA),
        CoordinatorKind::Single(ProtocolKind::PrC),
        CoordinatorKind::U2pc(ProtocolKind::PrA),
        CoordinatorKind::C2pc(ProtocolKind::PrN),
        CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
    ];

    let mut doc = String::new();
    let _ = writeln!(
        doc,
        "E8 — fault-injection campaign, {seeds} seeds per cell\n\
         population: homogeneous per coordinator kind, mixed [PrN, PrA, PrC] for PrAny\n\
         2 txns per run (30% deliberate aborts)\n"
    );

    let widths = [14, 18, 6, 10, 8, 12, 12, 8];
    let _ = writeln!(
        doc,
        "{}",
        row(
            &[
                "coordinator".into(),
                "regime".into(),
                "runs".into(),
                "in-doubt".into(),
                "atomic".into(),
                "operational".into(),
                "safe-state".into(),
                "verdict".into(),
            ],
            &widths
        )
    );
    let _ = writeln!(doc, "{}", sep(&widths));

    let mut failures = 0u64;
    for kind in kinds {
        for regime in Regime::ALL {
            let s = run_cell(kind, regime, seeds);
            let pass = s.runs > 0
                && s.stuck == 0
                && s.atomicity == 0
                && s.operational == 0
                && s.safe_state == 0;
            if !pass {
                failures += 1;
            }
            let _ = writeln!(
                doc,
                "{}",
                row(
                    &[
                        format!("{kind}"),
                        regime.name().into(),
                        s.runs.to_string(),
                        s.stuck.to_string(),
                        s.atomicity.to_string(),
                        s.operational.to_string(),
                        s.safe_state.to_string(),
                        if pass { "PASS" } else { "FAIL" }.to_string(),
                    ],
                    &widths
                )
            );
        }
    }

    let (faults, lost, survivors, corrupted) = wal_campaign(seeds * 4);
    let _ = writeln!(
        doc,
        "\ntorn-write WAL campaign ({} logs): {faults} storage faults applied, \
         {lost} records destroyed, {survivors} survived recovery, \
         {corrupted} corrupted records accepted — {}",
        seeds * 4,
        if corrupted == 0 { "PASS" } else { "FAIL" }
    );
    if corrupted != 0 {
        failures += 1;
    }

    let _ = writeln!(
        doc,
        "\noverall: {}",
        if failures == 0 {
            "ALL CELLS PASS".to_string()
        } else {
            format!("{failures} CELLS FAILED")
        }
    );

    print!("{doc}");
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).expect("results dir");
    std::fs::write(results.join("exp_faults.txt"), &doc).expect("write exp_faults.txt");
    eprintln!("wrote fault matrix to results/exp_faults.txt");
    if failures != 0 {
        std::process::exit(1);
    }
}
