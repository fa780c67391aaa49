//! Thread-scaling of the parallel model checker (the timing face of
//! E5): the same bounded exploration at 1/2/4/8 workers, at the default
//! failure bounds and at the deeper `crashes = 2` bound whose frontier
//! is wide enough to feed every worker. The report is identical at
//! every point — only wall-clock moves. Speedup is bounded by the
//! host's core count; recorded numbers live in
//! `results/frozen/BENCH_checker.json`.

use acp_check::explore::initial_state;
use acp_check::{check, CheckConfig, CheckState};
use acp_types::{CoordinatorKind, ProtocolKind, SelectionPolicy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;

const POP: [ProtocolKind; 2] = [ProtocolKind::PrA, ProtocolKind::PrC];
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("checker_scaling");
    g.sample_size(10);

    // Default bounds (crashes=1): the exploration the tests and E5
    // table run.
    for threads in THREADS {
        g.bench_with_input(
            BenchmarkId::new("prany_default", threads),
            &threads,
            |b, &t| {
                let config =
                    CheckConfig::new(CoordinatorKind::PrAny(SelectionPolicy::PaperStrict), &POP)
                        .with_threads(t);
                b.iter(|| check(black_box(&config)));
            },
        );
    }

    // Deeper bound (crashes=2): a much larger state space with wide
    // BFS levels — the configuration parallelism is for.
    for threads in THREADS {
        g.bench_with_input(
            BenchmarkId::new("prany_crashes2", threads),
            &threads,
            |b, &t| {
                let mut config =
                    CheckConfig::new(CoordinatorKind::PrAny(SelectionPolicy::PaperStrict), &POP)
                        .with_threads(t);
                config.crashes = 2;
                b.iter(|| check(black_box(&config)));
            },
        );
    }

    // A violating exploration at the deeper bound, for contrast with
    // the clean one (counterexample collection on the hot path).
    for threads in THREADS {
        g.bench_with_input(
            BenchmarkId::new("u2pc_prc_crashes2", threads),
            &threads,
            |b, &t| {
                let mut config =
                    CheckConfig::new(CoordinatorKind::U2pc(ProtocolKind::PrC), &POP)
                        .with_threads(t);
                config.crashes = 2;
                b.iter(|| check(black_box(&config)));
            },
        );
    }
    g.finish();
}

/// A mid-protocol state: PrAny coordinator over PrA+PrC, prepares in
/// flight — representative of what the exploration fingerprints tens of
/// thousands of times per run.
fn sample_state() -> CheckState {
    let kind = CoordinatorKind::PrAny(SelectionPolicy::PaperStrict);
    initial_state(&CheckConfig::new(kind, &POP))
}

/// The fingerprint rewrite, old path vs. new: the checker used to
/// render every engine to a `String` (including the full log) and hash
/// that — `canonical_state()` preserves exactly that rendering for the
/// paranoid collision guard, so hashing it measures the old cost;
/// `seal()` is the direct-hash replacement.
fn bench_fingerprint(c: &mut Criterion) {
    let mut g = c.benchmark_group("checker_fingerprint");
    g.sample_size(20);
    let mut state = sample_state();

    g.bench_function("hash_state_direct", |b| {
        b.iter(|| {
            state.seal();
            black_box(state.fingerprint())
        });
    });

    g.bench_function("render_string_then_hash", |b| {
        b.iter(|| {
            let s = black_box(&state).canonical_state();
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            black_box(h.finish())
        });
    });
    g.finish();
}

criterion_group!(benches, bench_scaling, bench_fingerprint);
criterion_main!(benches);
