//! E15 — the socket backend as the paper's actual deployment model:
//! coordinator and participants as **separate OS processes** whose only
//! shared state is the network and their own WAL files.
//!
//! The parent process spawns three child processes of this same binary
//! (`exp_socket node …`): a coordinator node (site 0, PrAny) and two
//! participant nodes (sites 1+2, and site 3 — a PrA/PrC/PrN mix). Each
//! child binds an ephemeral loopback port, announces it on stdout, and
//! the parent distributes the address book through a rendezvous file.
//! Every child appends its `ProtocolEvent` stream to its own
//! JSON-lines trace file, stamped on a shared epoch so the parent can
//! merge the per-process files into one global history.
//!
//! The campaign then does to processes what the simulator does to
//! virtual sites:
//!
//! 1. a clean load phase (mixed commits and vetoed aborts);
//! 2. `kill -9` of a **participant** process mid-load, restart from its
//!    WALs on a fresh port, address book rewritten, load continues;
//! 3. `kill -9` of the **coordinator** process mid-load, restart and
//!    WAL recovery, a fresh (disjoint) transaction range afterwards.
//!
//! Afterwards the parent merges the trace files
//! ([`acp_bench::trace_check::load_merged`] — torn tails from the
//! kills are legitimate and skipped) and replays the cross-process
//! ACTA predicates ([`acp_bench::trace_check::check_merged`]):
//! decisions never contradict across coordinator incarnations, every
//! participant enforcement agrees with the global decision, yes votes
//! and acks follow their forced records. Two seeded corruptions prove
//! the predicates have teeth. Recovery evidence (a `recovery_step`
//! from both victims' sites) must appear, or the kills did not
//! actually exercise the restart procedure.
//!
//! Pass/fail is the predicates, the mutation controls and the recovery
//! evidence — nothing here is timed. The one longer run ever recorded
//! is frozen in `results/frozen/BENCH_socket.json`.
//!
//! ```sh
//! cargo run --release -p acp-bench --bin exp_socket
//! ```

#[cfg(unix)]
mod run {
    use acp_bench::procnode::{
        epoch_us, merged_mutations, parse_done, read_prefixed, serve, write_peers, Node,
    };
    use acp_bench::trace_check::{check_merged, load_merged, Ev};
    use acp_bench::{row, sep};
    use acp_net::wire::WireFaults;
    use acp_types::{CoordinatorKind, ProtocolKind, SelectionPolicy};
    use acp_wal::tempdir::TempDir;
    use std::io::BufReader;
    use std::path::PathBuf;
    use std::process::{exit, ChildStdout};
    use std::time::Duration;

    /// The fixed demo cluster: a PrAny coordinator over one participant of
    /// each presumption. Parent and children construct this identically.
    fn cluster() -> acp_net::ClusterConfig {
        acp_net::ClusterConfig::new(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrC, ProtocolKind::PrN],
        )
    }

    /// Read `TXN …` progress lines until `n` have been seen (so a kill can
    /// be placed provably mid-load), or until EOF.
    fn await_txns(out: &mut BufReader<ChildStdout>, n: usize) {
        for _ in 0..n {
            if read_prefixed(out, "TXN ").is_none() {
                return;
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    pub fn main() {
        let args: Vec<String> = std::env::args().collect();
        if args.get(1).map(String::as_str) == Some("node") {
            serve(&args[2..], cluster(), WireFaults::none());
        }
        // Transactions per phase: clean / participant-kill / coordinator-kill.
        let (p1, p2, p3) = (8u64, 10, 10);
        let exe = std::env::current_exe().expect("own path");
        let tmp = TempDir::new("exp-socket").expect("tempdir");
        let dir = tmp.path().to_path_buf();
        let epoch_us = epoch_us();

        println!(
            "E15 — multi-process socket cluster: PrAny coordinator + PrA/PrC/PrN \
             participants as separate OS processes\n"
        );

        // Spawn the three node processes, then publish the address book.
        let mut coord = Node::spawn(&exe, &dir, "coord", &[0], epoch_us, &[]);
        let mut part_a = Node::spawn(&exe, &dir, "part-a", &[1, 2], epoch_us, &[]);
        let part_b = Node::spawn(&exe, &dir, "part-b", &[3], epoch_us, &[]);
        write_peers(&dir, &[&coord, &part_a, &part_b]);

        let widths = [34, 10, 8, 8, 8];
        let header = ["phase", "committed", "aborted", "timeout", "kills"].map(String::from);
        println!("{}", row(&header, &widths));
        println!("{}", sep(&widths));
        let mut totals = (0u64, 0u64, 0u64);
        let mut phase_row = |name: &str, done: (u64, u64, u64), kills: u64| {
            totals = (totals.0 + done.0, totals.1 + done.1, totals.2 + done.2);
            println!(
                "{}",
                row(
                    &[
                        name.to_string(),
                        done.0.to_string(),
                        done.1.to_string(),
                        done.2.to_string(),
                        kills.to_string(),
                    ],
                    &widths
                )
            );
        };

        // Phase 1: clean load.
        coord.send(&format!("go 1 {p1}"));
        let done = read_prefixed(&mut coord.out, "DONE ").expect("phase 1 DONE");
        phase_row("clean load", parse_done(&done), 0);

        // Phase 2: kill -9 a participant process mid-load; restart it from
        // its WALs on a fresh port and republish the address book.
        let mut next = p1 + 1;
        coord.send(&format!("go {next} {p2}"));
        await_txns(&mut coord.out, 3);
        part_a.kill9();
        std::thread::sleep(Duration::from_millis(200));
        let part_a = Node::spawn(&exe, &dir, "part-a", &[1, 2], epoch_us, &[]);
        write_peers(&dir, &[&coord, &part_a, &part_b]);
        let done = read_prefixed(&mut coord.out, "DONE ").expect("phase 2 DONE");
        phase_row("participant kill -9 + restart", parse_done(&done), 1);

        // Phase 3: kill -9 the coordinator mid-load. Its in-flight slice
        // dies with it; the restarted incarnation recovers the coordinator
        // WAL (answering any in-doubt inquiries from what it forced — or by
        // presumption for what it legitimately forgot) and then drives a
        // fresh, disjoint transaction range.
        next += p2;
        coord.send(&format!("go {next} {p3}"));
        await_txns(&mut coord.out, 3);
        coord.kill9();
        std::thread::sleep(Duration::from_millis(200));
        let mut coord = Node::spawn(&exe, &dir, "coord", &[0], epoch_us, &[]);
        write_peers(&dir, &[&coord, &part_a, &part_b]);
        next += p3; // the killed slice's ids stay retired — ranges are disjoint
        coord.send(&format!("go {next} {p3}"));
        let done = read_prefixed(&mut coord.out, "DONE ").expect("phase 3 DONE");
        phase_row("coordinator kill -9 + recovery", parse_done(&done), 1);

        // Graceful teardown: every node flushes and reports.
        let coord_report = coord.quit();
        let a_report = part_a.quit();
        let b_report = part_b.quit();

        // Merge the per-process traces and replay the cross-process ACTA
        // predicates over the stitched global history.
        let traces: Vec<PathBuf> = ["coord", "part-a", "part-b"]
            .iter()
            .map(|n| dir.join(format!("trace-{n}.jsonl")))
            .collect();
        let (merged, torn) = load_merged(&traces);
        let violations = check_merged(&merged);
        let recovered_sites: Vec<u64> = {
            let mut s: Vec<u64> = merged
                .iter()
                .filter(|e| e.ty() == "recovery_step")
                .map(Ev::site)
                .collect();
            s.sort_unstable();
            s.dedup();
            s
        };

        println!(
            "\nMerged trace: {} events across 3 process files ({torn} torn/partial lines skipped)",
            merged.len()
        );
        println!("  wire coord : {coord_report}");
        println!("  wire part-a: {a_report}");
        println!("  wire part-b: {b_report}");
        println!(
            "\nCross-process ACTA predicates: {} violation(s)",
            violations.len()
        );
        for v in &violations {
            println!("    !! {v}");
        }

        println!("\nMutation controls (each must be flagged):");
        let mut failures = violations.len() as u64;
        for (name, mutated) in merged_mutations(&merged) {
            let caught = !check_merged(&mutated).is_empty();
            println!(
                "  {:44} {}",
                name,
                if caught { "flagged" } else { "MISSED" }
            );
            failures += u64::from(!caught);
        }

        // The kills must have exercised real WAL recovery: both the killed
        // participant's sites and the coordinator re-ran the restart
        // procedure in their second incarnation.
        let coord_recovered = recovered_sites.contains(&0);
        let part_recovered = recovered_sites.contains(&1) || recovered_sites.contains(&2);
        println!(
            "\nRecovery evidence: sites {recovered_sites:?} ran recovery steps \
             (coordinator: {coord_recovered}, killed participant: {part_recovered})"
        );
        failures += u64::from(!coord_recovered) + u64::from(!part_recovered);
        if totals.0 == 0 {
            println!("!! no transaction committed across the whole campaign");
            failures += 1;
        }
        if totals.1 == 0 {
            println!("!! no vetoed transaction aborted — both decision paths must cross the wire");
            failures += 1;
        }

        if failures > 0 {
            println!("\nexp_socket FAILED: {failures} check(s)");
            exit(1);
        }
        println!(
            "\nexp_socket OK: {} txns ({} committed, {} aborted) across 3 processes, \
             2 kill -9 recoveries, 0 violations",
            totals.0 + totals.1 + totals.2,
            totals.0,
            totals.1
        );
    }
}

#[cfg(unix)]
fn main() {
    run::main();
}

#[cfg(not(unix))]
fn main() {
    eprintln!("exp_socket: the socket backend is unix-only");
}
