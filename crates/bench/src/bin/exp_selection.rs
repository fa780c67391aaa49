//! E9 — §4.1 protocol selection: the distribution of commit modes a
//! PrAny coordinator picks as a function of the site population, and
//! the forced-write saving of the Optimized selection policy.
//!
//! ```sh
//! cargo run --release -p acp-bench --bin exp_selection
//! ```

use acp_bench::{default_threads, parallel_map, row, sep};
use acp_core::cost::{predict, Population};
use acp_core::select_mode;
use acp_types::{CommitMode, CoordinatorKind, Outcome, ParticipantEntry, SelectionPolicy, SiteId};
use acp_workload::PopulationMix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One table cell: the mode distribution for a (population, policy)
/// pair. Each cell owns its RNG (fixed seed), so cells are independent
/// and are fanned across the thread pool by `main`; the rendered row is
/// identical to a serial run.
fn distribution(
    mix: PopulationMix,
    policy: SelectionPolicy,
    label: &str,
    widths: &[usize],
) -> String {
    let mut rng = StdRng::seed_from_u64(7);
    let mut counts = [0u32; 4]; // PrN, PrA, PrC, PrAny
    let trials = 20_000;
    for _ in 0..trials {
        let n = 2 + (rand::Rng::random_range(&mut rng, 0..3));
        let entries: Vec<ParticipantEntry> = mix
            .sample_n(&mut rng, n)
            .into_iter()
            .enumerate()
            .map(|(i, p)| ParticipantEntry::new(SiteId::new(i as u32 + 1), p))
            .collect();
        match select_mode(policy, &entries) {
            CommitMode::PrN => counts[0] += 1,
            CommitMode::PrA => counts[1] += 1,
            CommitMode::PrC => counts[2] += 1,
            CommitMode::PrAny => counts[3] += 1,
        }
    }
    let pct = |c: u32| format!("{:.1}%", 100.0 * f64::from(c) / f64::from(trials));
    row(
        &[
            label.to_string(),
            policy.to_string(),
            pct(counts[0]),
            pct(counts[1]),
            pct(counts[2]),
            pct(counts[3]),
        ],
        widths,
    )
}

fn main() {
    println!("E9 — commit-mode selection distribution (transactions of 2–4 participants)\n");
    let widths = [14, 14, 8, 8, 8, 8];
    println!(
        "{}",
        row(
            &[
                "population".into(),
                "policy".into(),
                "PrN".into(),
                "PrA".into(),
                "PrC".into(),
                "PrAny".into(),
            ],
            &widths
        )
    );
    println!("{}", sep(&widths));
    let mut cells = Vec::new();
    for (mix, label) in [
        (PopulationMix::uniform(), "uniform"),
        (PopulationMix::mdbs(), "mdbs 40/40/20"),
        (
            PopulationMix {
                prn: 0.8,
                pra: 0.2,
                prc: 0.0,
            },
            "PrN-heavy",
        ),
    ] {
        for policy in [SelectionPolicy::PaperStrict, SelectionPolicy::Optimized] {
            cells.push((mix, policy, label));
        }
    }
    for line in parallel_map(cells, default_threads(), |(mix, policy, label)| {
        distribution(mix, policy, label, &widths)
    }) {
        println!("{line}");
    }

    // Ablation: expected coordinator forces per commit for a PrN+PrA mix
    // under each policy.
    println!("\nAblation — PrN+PrA mix (1/1/0), commit:\n");
    for policy in [SelectionPolicy::PaperStrict, SelectionPolicy::Optimized] {
        let p = predict(
            CoordinatorKind::PrAny(policy),
            Outcome::Commit,
            Population::new(1, 1, 0),
        );
        println!(
            "  {policy:<14} coordinator forces = {}, total forces = {}, messages = {}",
            p.coord_forces,
            p.total_forces(),
            p.messages
        );
    }
    println!(
        "\nThe Optimized policy avoids the initiation-record force for populations mixing \
         only PrN and PrA; any population containing PrC still runs full PrAny \
         (the naive PrN+PrC→PrC shortcut is unsafe — see acp-core::coordinator::select docs)."
    );
}
