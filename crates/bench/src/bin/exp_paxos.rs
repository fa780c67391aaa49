//! E16 — Paxos Commit as the paper's non-blocking replicated
//! coordinator, demonstrated twice over.
//!
//! **Part A (in-process, deterministic):** the analytic cost model.
//! For every cluster shape `n × f` in a small grid, a clean
//! single-transaction commit runs under the simulator harness and its
//! measured counters — forced writes and log records at the leader,
//! the `2f` remote acceptors and the `n` participants, plus total
//! coordination messages — must match
//! [`acp_core::cost::predict_paxos`]'s closed-form E8 numbers
//! *exactly*. `f = 0` is the degenerate row: Paxos Commit collapses to
//! plain 2PC/PrN costs.
//!
//! **Part B (multi-process, real kill -9):** the coordinator-kill
//! matrix over OS processes, one per failure domain, joined only by
//! loopback TCP and their own WAL files (`exp_paxos node …` children,
//! as in `exp_socket`). For each `f ∈ {0, 1}` the same schedule runs:
//! the leader decides commit, every decision frame to the participants
//! is dropped by an injected wire fault, and then the leader process
//! is `kill -9`ed.
//!
//! * `f = 0` (that *is* 2PC): nobody left knows the outcome — the
//!   participants are provably still in doubt when we look 2.5 s
//!   later. Only restarting the leader process, which recovers the
//!   decision from its WAL and answers the participants' inquiries,
//!   unblocks them.
//! * `f = 1` (3 acceptors): the decision survives on the acceptor
//!   quorum; a remote acceptor's completion watchdog runs the failover
//!   round and the participants learn the commit with the leader still
//!   dead — observed before any restart.
//!
//! Each campaign then restarts the leader from its WALs and pushes a
//! clean mixed load through it (commit and vetoed-abort paths), merges
//! the per-process trace files and replays the cross-process ACTA
//! predicates ([`acp_bench::trace_check::check_merged`]), with seeded
//! corruptions proving the predicates have teeth.
//!
//! Pass/fail is the cost grid, the blocked/unblocked verdicts, the
//! predicates and the recovery evidence — nothing here is timed. The
//! one longer reload ever recorded is frozen in
//! `results/frozen/BENCH_paxos.json`.
//!
//! ```sh
//! cargo run --release -p acp-bench --bin exp_paxos
//! ```

#[cfg(unix)]
mod run {
    use acp_bench::procnode::{
        epoch_us, flag_value, merged_mutations, parse_done, read_prefixed, serve, write_peers, Node,
    };
    use acp_bench::trace_check::{check_merged, load_merged, Ev};
    use acp_bench::{row, sep};
    use acp_core::cost::predict_paxos;
    use acp_core::harness::{run_scenario, Scenario};
    use acp_net::wire::{FaultRule, WireFaults};
    use acp_net::NetDelays;
    use acp_sim::SimTime;
    use acp_types::{CoordinatorKind, CostCounters, Outcome, ProtocolKind, SiteId, TxnId};
    use acp_wal::tempdir::TempDir;
    use std::collections::BTreeSet;
    use std::path::{Path, PathBuf};
    use std::process::exit;
    use std::time::Duration;

    /// Participants in the multi-process campaigns (sites 1 and 2; the
    /// remote acceptors, when `f = 1`, sit at sites 3 and 4).
    const N_PARTS: usize = 2;

    /// The campaign cluster: `N_PARTS` PrN participants under a Paxos
    /// Commit coordinator of tolerance `f`. Delays keep clean runs
    /// timer-silent but let the acceptor watchdog and the participants'
    /// recovery inquiries fire within the campaign's patience.
    fn cluster(f: usize) -> acp_net::ClusterConfig {
        let mut c = acp_net::ClusterConfig::new(
            CoordinatorKind::Single(ProtocolKind::PrN),
            &[ProtocolKind::PrN; N_PARTS],
        );
        c.paxos_f = Some(f);
        c.delays = NetDelays {
            vote_timeout: Duration::from_secs(60),
            ack_resend: Duration::from_millis(200),
            inquiry_retry: Duration::from_millis(250),
            apply_retry: Duration::from_secs(60),
            paxos_completion: Duration::from_millis(300),
        };
        c
    }

    /// The child half: the shared node harness plus this campaign's two
    /// flags — `--paxos-f F` (the cluster's tolerance) and
    /// `--drop-decisions`, the campaign's wire fault: every decision
    /// frame from this node to a participant site is silently dropped.
    fn child_main(args: &[String]) -> ! {
        let f: usize = flag_value(args, "--paxos-f").parse().expect("paxos f");
        let mut faults = WireFaults::none();
        if args.iter().any(|a| a == "--drop-decisions") {
            for p in 1..=N_PARTS as u32 {
                faults = faults.rule(FaultRule::drop_all(SiteId::new(p), "decision"));
            }
        }
        serve(args, cluster(f), faults)
    }

    /// [`Node::spawn`] with this campaign's child flags.
    fn spawn(
        exe: &Path,
        dir: &Path,
        name: &str,
        sites: &[u32],
        f: usize,
        epoch_us: u64,
        drop_decisions: bool,
    ) -> Node {
        let mut extra = vec!["--paxos-f".to_string(), f.to_string()];
        if drop_decisions {
            extra.push("--drop-decisions".into());
        }
        Node::spawn(exe, dir, name, sites, epoch_us, &extra)
    }

    // ------------------------------------------------- part A: cost model

    /// Run the clean-commit grid under the deterministic sim harness and
    /// compare every counter against the closed-form model. Returns the
    /// number of mismatching cells.
    fn analytic_grid() -> u64 {
        println!(
            "Part A — analytic cost model: one clean commit per cluster shape, measured\n\
             sim counters vs predict_paxos (forces/records per role, total messages)\n"
        );
        let widths = [10, 12, 14, 14, 10, 10];
        let header = [
            "cluster",
            "leader f/r",
            "acceptors f/r",
            "parts f/r",
            "messages",
            "model",
        ]
        .map(String::from);
        println!("{}", row(&header, &widths));
        println!("{}", sep(&widths));

        fn sum<'a>(iter: impl Iterator<Item = &'a CostCounters>) -> CostCounters {
            iter.fold(CostCounters::default(), |mut a, c| {
                a += *c;
                a
            })
        }
        let txn = TxnId::new(1);
        let mut mismatches = 0u64;
        for f in 0..=2usize {
            for n in 1..=3usize {
                let mut s = Scenario::paxos(n, f);
                s.add_txn(txn, SimTime::from_millis(1));
                let out = run_scenario(&s);
                let decided =
                    out.decided.get(&txn) == Some(&Outcome::Commit) && out.in_doubt.is_empty();
                let model = predict_paxos(n, f, Outcome::Commit);
                let leader = out.coordinator_costs[&txn];
                let acc = sum(out.acceptor_costs.values());
                let parts = sum(out.participant_costs.values());
                let messages = out.total_costs(txn).messages();
                let exact = decided
                    && leader.forced_writes == model.leader_forces
                    && leader.log_records == model.leader_records
                    && acc.forced_writes == model.acceptor_forces
                    && acc.log_records == model.acceptor_records
                    && parts.forced_writes == model.part_forces
                    && parts.log_records == model.part_records
                    && messages == model.messages;
                mismatches += u64::from(!exact);
                println!(
                    "{}",
                    row(
                        &[
                            format!("n={n} f={f}"),
                            format!("{}/{}", leader.forced_writes, leader.log_records),
                            format!("{}/{}", acc.forced_writes, acc.log_records),
                            format!("{}/{}", parts.forced_writes, parts.log_records),
                            messages.to_string(),
                            if exact {
                                "exact".into()
                            } else {
                                "MISMATCH".into()
                            },
                        ],
                        &widths
                    )
                );
            }
        }
        mismatches
    }

    // ---------------------------------------------- part B: kill campaigns

    /// Sites whose trace shows a forced enforcement record
    /// (`part-commit` / `part-abort`) for `txn`.
    fn enforced_sites(events: &[Ev], txn: u64) -> BTreeSet<u64> {
        events
            .iter()
            .filter(|e| {
                (e.ty() == "force_write" || e.ty() == "non_forced_write")
                    && (e.str("record") == "part-commit" || e.str("record") == "part-abort")
                    && e.txn() == txn
            })
            .map(Ev::site)
            .collect()
    }

    /// Everything the parent learned from one `f`-campaign.
    struct Campaign {
        f: usize,
        /// Participant sites that had enforced the kill transaction when
        /// we looked, leader still dead.
        enforced_while_dead: BTreeSet<u64>,
        /// Site that re-drove the decision with the leader dead (`f = 1`
        /// failover evidence), if any.
        failover_decider: Option<u64>,
        /// Participant sites enforced after the leader restart.
        enforced_final: BTreeSet<u64>,
        leader_recovered: bool,
        clean: (u64, u64, u64),
        violations: Vec<String>,
        merged: Vec<Ev>,
        torn: usize,
        failures: u64,
    }

    /// One coordinator-kill campaign: decide commit, drop the decision
    /// frames, `kill -9` the leader process, watch, restart, reload.
    fn campaign(exe: &Path, f: usize, load: u64) -> Campaign {
        let tmp = TempDir::new(&format!("exp-paxos-f{f}")).expect("tempdir");
        let dir = tmp.path().to_path_buf();
        let epoch_us = epoch_us();
        let kill_txn = 1u64;
        let mut failures = 0u64;

        // One process per failure domain. Only the doomed first leader
        // incarnation carries the decision-dropping wire fault.
        let mut leader = spawn(exe, &dir, "leader", &[0], f, epoch_us, true);
        let p1 = spawn(exe, &dir, "part-1", &[1], f, epoch_us, false);
        let p2 = spawn(exe, &dir, "part-2", &[2], f, epoch_us, false);
        let acceptors = (f > 0).then(|| spawn(exe, &dir, "acceptors", &[3, 4], f, epoch_us, false));
        let mut members: Vec<&Node> = vec![&leader, &p1, &p2];
        if let Some(a) = &acceptors {
            members.push(a);
        }
        write_peers(&dir, &members);

        // The kill transaction: decided commit at the leader (the client
        // reply is process-local, so the fault cannot touch it), decision
        // frames to both participants dropped — then SIGKILL.
        leader.send(&format!("go {kill_txn} 1"));
        let done = read_prefixed(&mut leader.out, "DONE ").expect("kill-txn DONE");
        if parse_done(&done).0 != 1 {
            println!("  !! f={f}: the kill transaction did not commit at the leader");
            failures += 1;
        }
        leader.kill9();

        // Watch window, leader dead: f = 0 must still be in doubt; f = 1
        // must commit via the acceptor watchdog's failover round.
        std::thread::sleep(Duration::from_millis(if f == 0 { 2500 } else { 4000 }));
        let part_traces: Vec<PathBuf> = ["part-1", "part-2"]
            .iter()
            .map(|n| dir.join(format!("trace-{n}.jsonl")))
            .collect();
        let (mid, _) = load_merged(&part_traces);
        let enforced_while_dead = enforced_sites(&mid, kill_txn);

        // Restart the leader from its WALs (fault-free this time) on a
        // fresh port; republish the address book. For f = 0 this is the
        // only way out: recovery re-reads the decision and the
        // participants' inquiry retries finally get an answer.
        let mut leader = spawn(exe, &dir, "leader", &[0], f, epoch_us, false);
        let mut members: Vec<&Node> = vec![&leader, &p1, &p2];
        if let Some(a) = &acceptors {
            members.push(a);
        }
        write_peers(&dir, &members);
        std::thread::sleep(Duration::from_millis(2500));

        // Clean mixed load through the restarted leader: the cluster must
        // be fully serviceable again (commit and vetoed-abort paths).
        leader.send(&format!("go {} {load}", kill_txn + 1));
        let done = read_prefixed(&mut leader.out, "DONE ").expect("reload DONE");
        let clean = parse_done(&done);

        // Graceful teardown, then merge every process's trace (both leader
        // incarnations append to the same file) and replay the
        // cross-process ACTA predicates.
        let _ = leader.quit();
        let _ = p1.quit();
        let _ = p2.quit();
        if let Some(a) = acceptors {
            let _ = a.quit();
        }
        let mut traces = part_traces;
        traces.push(dir.join("trace-leader.jsonl"));
        if f > 0 {
            traces.push(dir.join("trace-acceptors.jsonl"));
        }
        let (merged, torn) = load_merged(&traces);
        let violations = check_merged(&merged);
        let enforced_final = enforced_sites(&merged, kill_txn);
        let leader_recovered = merged
            .iter()
            .any(|e| e.ty() == "recovery_step" && e.site() == 0);
        let failover_decider = merged
            .iter()
            .find(|e| e.ty() == "decision_reached" && e.txn() == kill_txn && e.site() != 0)
            .map(Ev::site);

        Campaign {
            f,
            enforced_while_dead,
            failover_decider,
            enforced_final,
            leader_recovered,
            clean,
            violations,
            merged,
            torn,
            failures,
        }
    }

    #[allow(clippy::too_many_lines)]
    pub fn main() {
        let args: Vec<String> = std::env::args().collect();
        if args.get(1).map(String::as_str) == Some("node") {
            child_main(&args[2..]);
        }
        // Transactions pushed through the restarted leader, per campaign.
        let load = 4u64;
        let exe = std::env::current_exe().expect("own path");

        println!(
            "E16 — Paxos Commit: a non-blocking replicated coordinator over {N_PARTS} PrN \
             participants\n"
        );
        let mut failures = analytic_grid();

        println!(
            "\nPart B — coordinator-kill matrix over OS processes: decide commit, drop the\n\
             decision frames, kill -9 the leader; watch, then restart it from its WALs\n"
        );
        let all_parts: BTreeSet<u64> = (1..=N_PARTS as u64).collect();
        let widths = [14, 26, 22, 16, 10];
        let header = [
            "campaign",
            "while the leader is dead",
            "after leader restart",
            "reload (c/a/t)",
            "checks",
        ]
        .map(String::from);
        println!("{}", row(&header, &widths));
        println!("{}", sep(&widths));

        let mut campaigns = Vec::new();
        for f in [0usize, 1] {
            let mut c = campaign(&exe, f, load);

            // Expectations, per tolerance.
            if f == 0 {
                if !c.enforced_while_dead.is_empty() {
                    println!(
                        "  !! f=0: participants {:?} enforced with the leader dead — 2PC must block",
                        c.enforced_while_dead
                    );
                    c.failures += 1;
                }
            } else {
                if c.enforced_while_dead != all_parts {
                    println!(
                        "  !! f=1: only {:?} enforced with the leader dead — failover must commit",
                        c.enforced_while_dead
                    );
                    c.failures += 1;
                }
                if c.failover_decider.is_none() {
                    println!(
                        "  !! f=1: no decision_reached from a surviving acceptor in the trace"
                    );
                    c.failures += 1;
                }
            }
            if c.enforced_final != all_parts {
                println!(
                    "  !! f={f}: participants {:?} enforced after restart (want {:?})",
                    c.enforced_final, all_parts
                );
                c.failures += 1;
            }
            if !c.leader_recovered {
                println!("  !! f={f}: no recovery_step from site 0 — the restart did not recover");
                c.failures += 1;
            }
            if c.clean.0 == 0 || c.clean.1 == 0 || c.clean.2 != 0 {
                println!(
                    "  !! f={f}: reload must exercise both decision paths without timeouts, got \
                     {:?}",
                    c.clean
                );
                c.failures += 1;
            }
            for v in &c.violations {
                println!("  !! f={f}: {v}");
            }
            c.failures += c.violations.len() as u64;

            let while_dead = if c.enforced_while_dead.is_empty() {
                "blocked (in doubt)".to_string()
            } else {
                format!(
                    "commit via failover @{}",
                    c.failover_decider
                        .map_or_else(|| "?".to_string(), |s| s.to_string())
                )
            };
            println!(
                "{}",
                row(
                    &[
                        if f == 0 {
                            "f=0 (2PC)".into()
                        } else {
                            format!("f={f} (3 acc)")
                        },
                        while_dead,
                        format!("enforced @{:?}", c.enforced_final),
                        format!("{}/{}/{}", c.clean.0, c.clean.1, c.clean.2),
                        if c.failures == 0 {
                            "ok".into()
                        } else {
                            format!("{} FAIL", c.failures)
                        },
                    ],
                    &widths
                )
            );
            failures += c.failures;
            campaigns.push(c);
        }

        // The predicates must have teeth: seeded corruptions of the f = 1
        // merged trace must each be flagged.
        println!("\nMutation controls (each must be flagged):");
        let f1 = &campaigns[1];
        for (name, mutated) in merged_mutations(&f1.merged) {
            let caught = !check_merged(&mutated).is_empty();
            println!(
                "  {:44} {}",
                name,
                if caught { "flagged" } else { "MISSED" }
            );
            failures += u64::from(!caught);
        }
        for c in &campaigns {
            println!(
                "\nf={}: merged {} trace events ({} torn/partial lines skipped), {} violation(s)",
                c.f,
                c.merged.len(),
                c.torn,
                c.violations.len()
            );
        }

        if failures > 0 {
            println!("\nexp_paxos FAILED: {failures} check(s)");
            exit(1);
        }
        println!(
            "\nexp_paxos OK: cost model exact on the 9-cell grid; f=0 blocked until its leader \
             restarted, f=1 committed through failover with the leader dead; 0 violations"
        );
    }
}

#[cfg(unix)]
fn main() {
    run::main();
}

#[cfg(not(unix))]
fn main() {
    eprintln!("exp_paxos: the paxos campaign is unix-only");
}
