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
//! ([`trace_check::load_merged`] — torn tails from the kills are
//! legitimate and skipped) and replays the cross-process ACTA
//! predicates ([`trace_check::check_merged`]): decisions never
//! contradict across coordinator incarnations, every participant
//! enforcement agrees with the global decision, yes votes and acks
//! follow their forced records. Two seeded corruptions prove the
//! predicates have teeth. Recovery evidence (a `recovery_step` from
//! both victims' sites) must appear, or the kills did not actually
//! exercise the restart procedure.
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
    use acp_bench::trace_check::{check_merged, load_merged, Ev};
    use acp_bench::{row, sep};
    use acp_net::wire::{shared_history, AddressBook, NodeConfig, SocketNode};
    use acp_obs::{JsonLinesSink, JsonValue, TraceSink};
    use acp_types::{CoordinatorKind, Outcome, ProtocolKind, SelectionPolicy, SiteId, Vote};
    use acp_wal::tempdir::TempDir;
    use std::fmt::Write as _;
    use std::io::{BufRead, BufReader, Write as _};
    use std::net::SocketAddr;
    use std::path::{Path, PathBuf};
    use std::process::{exit, Child, ChildStdin, ChildStdout, Command, Stdio};
    use std::sync::Arc;
    use std::time::{Duration, SystemTime, UNIX_EPOCH};

    /// The fixed demo cluster: a PrAny coordinator over one participant of
    /// each presumption. Parent and children construct this identically.
    fn cluster() -> acp_net::ClusterConfig {
        acp_net::ClusterConfig::new(
            CoordinatorKind::PrAny(SelectionPolicy::PaperStrict),
            &[ProtocolKind::PrA, ProtocolKind::PrC, ProtocolKind::PrN],
        )
    }

    /// Println + flush: children talk to the parent through a pipe, where
    /// stdout is block-buffered and an unflushed line deadlocks the run.
    fn say(line: &str) {
        let mut out = std::io::stdout();
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }

    // ---------------------------------------------------------------- child

    /// `exp_socket node --hosted 1,2 --peers F --wal D --trace T --epoch-us E`
    ///
    /// Spawns the node, announces `LISTEN addr=…`, then serves parent
    /// commands on stdin: `go <first-txn> <count>` runs a load slice
    /// (coordinator only), `quit` (or EOF — the parent died) shuts down
    /// gracefully and prints the final `REPORT wire=…` line.
    fn child_main(args: &[String]) -> ! {
        let get = |flag: &str| -> String {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .unwrap_or_else(|| panic!("missing {flag}"))
                .clone()
        };
        let hosted: Vec<SiteId> = get("--hosted")
            .split(',')
            .map(|s| SiteId::new(s.parse().expect("site id")))
            .collect();
        let wal_dir = PathBuf::from(get("--wal"));
        std::fs::create_dir_all(&wal_dir).expect("wal dir");
        let trace = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(get("--trace"))
            .expect("open trace file");
        let sink: Arc<dyn TraceSink> = Arc::new(JsonLinesSink::new(trace));
        let mut config = NodeConfig::new(
            cluster(),
            hosted,
            AddressBook::File(PathBuf::from(get("--peers"))),
            wal_dir,
        );
        config.epoch_unix_us = Some(get("--epoch-us").parse().expect("epoch"));
        let mut node =
            SocketNode::spawn_with(config, Some(sink), shared_history()).expect("spawn node");
        say(&format!("LISTEN addr={}", node.local_addr()));

        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line.unwrap_or_default();
            let words: Vec<&str> = line.split_whitespace().collect();
            match words.as_slice() {
                ["go", first, count] => child_load(
                    &mut node,
                    first.parse().expect("first txn"),
                    count.parse().expect("txn count"),
                ),
                ["quit"] => break,
                [] => {}
                other => say(&format!("ERROR unknown command {other:?}")),
            }
        }
        let report = node.shutdown();
        say(&format!("REPORT wire={}", report.wire.to_json()));
        exit(0)
    }

    /// One load slice at the coordinator: `count` transactions starting at
    /// id `first`, one write per participant each, every fifth vetoed by a
    /// rotating participant so both decisions and both presumption paths
    /// cross the wire.
    fn child_load(node: &mut SocketNode, first: u64, count: u64) {
        node.set_next_txn(first);
        let parts = node.participants();
        let (mut committed, mut aborted, mut timeouts) = (0u64, 0u64, 0u64);
        for _ in 0..count {
            let txn = node.next_txn();
            for &p in &parts {
                node.apply(p, txn, format!("k{}", txn.raw()).as_bytes(), b"v");
            }
            let veto = txn.raw() % 5 == 0;
            if veto {
                let victim = parts[(txn.raw() as usize / 5) % parts.len()];
                node.set_intent(victim, txn, Vote::No);
            }
            let outcome = node.commit(txn, &parts);
            match outcome {
                Some(Outcome::Commit) => committed += 1,
                Some(Outcome::Abort) => aborted += 1,
                None => timeouts += 1,
            }
            say(&format!(
                "TXN {} {}",
                txn.raw(),
                match outcome {
                    Some(Outcome::Commit) => "commit",
                    Some(Outcome::Abort) => "abort",
                    None => "timeout",
                }
            ));
        }
        say(&format!(
            "DONE committed={committed} aborted={aborted} timeouts={timeouts}"
        ));
    }

    // --------------------------------------------------------------- parent

    /// A spawned child node and the plumbing to talk to it.
    struct Node {
        child: Child,
        stdin: ChildStdin,
        out: BufReader<ChildStdout>,
        addr: SocketAddr,
        /// Sites this child hosts (address-book entries to point at it).
        sites: Vec<u32>,
    }

    impl Node {
        fn spawn(exe: &Path, dir: &Path, name: &str, sites: &[u32], epoch_us: u64) -> Node {
            let hosted: Vec<String> = sites.iter().map(u32::to_string).collect();
            let mut child = Command::new(exe)
                .args([
                    "node",
                    "--hosted",
                    &hosted.join(","),
                    "--peers",
                    &dir.join("peers").display().to_string(),
                    "--wal",
                    &dir.join(format!("wal-{name}")).display().to_string(),
                    "--trace",
                    &dir.join(format!("trace-{name}.jsonl")).display().to_string(),
                    "--epoch-us",
                    &epoch_us.to_string(),
                ])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn child node");
            let stdin = child.stdin.take().expect("child stdin");
            let mut out = BufReader::new(child.stdout.take().expect("child stdout"));
            let addr = read_prefixed(&mut out, "LISTEN addr=")
                .expect("child LISTEN line")
                .parse()
                .expect("listen addr");
            Node { child, stdin, out, addr, sites: sites.to_vec() }
        }

        fn send(&mut self, cmd: &str) {
            let _ = writeln!(self.stdin, "{cmd}");
            let _ = self.stdin.flush();
        }

        /// SIGKILL — the paper's site failure: volatile state gone, only
        /// the forced WAL records survive.
        fn kill9(&mut self) {
            self.child.kill().expect("kill -9 child");
            let _ = self.child.wait();
        }

        fn quit(mut self) -> String {
            self.send("quit");
            let report = read_prefixed(&mut self.out, "REPORT ").unwrap_or_default();
            let _ = self.child.wait();
            report
        }
    }

    /// Read child stdout lines until one starts with `prefix`; returns the
    /// remainder of that line, or `None` on EOF (the child died).
    fn read_prefixed(out: &mut BufReader<ChildStdout>, prefix: &str) -> Option<String> {
        loop {
            let mut line = String::new();
            if out.read_line(&mut line).ok()? == 0 {
                return None;
            }
            if let Some(rest) = line.trim_end().strip_prefix(prefix) {
                return Some(rest.to_string());
            }
        }
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

    /// Parse a child's `DONE committed=X aborted=Y timeouts=Z` line.
    fn parse_done(rest: &str) -> (u64, u64, u64) {
        let field = |name: &str| {
            rest.split_whitespace()
                .find_map(|w| w.strip_prefix(&format!("{name}=")))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        (field("committed"), field("aborted"), field("timeouts"))
    }

    /// Rewrite the rendezvous file atomically (write-then-rename), exactly
    /// like a deployment would republish a membership view: dial retries
    /// re-read it, so restarted nodes become reachable without any
    /// connection-level coordination.
    fn write_peers(dir: &Path, nodes: &[&Node]) {
        let path = dir.join("peers");
        let tmp = dir.join("peers.tmp");
        let mut body = String::new();
        for n in nodes {
            for &s in &n.sites {
                let _ = writeln!(body, "{s} {}", n.addr);
            }
        }
        std::fs::write(&tmp, body).expect("write peers");
        std::fs::rename(&tmp, &path).expect("rename peers");
    }

    /// Seeded corruptions of the merged trace: each must be flagged by
    /// [`check_merged`], proving the cross-process predicates can fail.
    fn merged_mutations(clean: &[Ev]) -> Vec<(&'static str, Vec<Ev>)> {
        let mut out = Vec::new();
        let mut m = clean.to_vec();
        if let Some(e) = m.iter_mut().find(|e| {
            e.ty() == "force_write" && (e.str("record") == "part-commit" || e.str("record") == "part-abort")
        }) {
            let flipped = if e.str("record") == "part-commit" { "part-abort" } else { "part-commit" };
            e.0.insert("record".into(), JsonValue::Str(flipped.into()));
            out.push(("participant enforces against the decision", m));
        }
        let mut m = clean.to_vec();
        if let Some(i) = m
            .iter()
            .position(|e| e.ty() == "force_write" && e.str("record") == "prepared")
        {
            m.remove(i);
            out.push(("yes vote without forced prepared", m));
        }
        out
    }

    #[allow(clippy::too_many_lines)]
    pub fn main() {
        let args: Vec<String> = std::env::args().collect();
        if args.get(1).map(String::as_str) == Some("node") {
            child_main(&args[2..]);
        }
        // Transactions per phase: clean / participant-kill / coordinator-kill.
        let (p1, p2, p3) = (8u64, 10, 10);
        let exe = std::env::current_exe().expect("own path");
        let tmp = TempDir::new("exp-socket").expect("tempdir");
        let dir = tmp.path().to_path_buf();
        let epoch_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("clock")
            .as_micros() as u64;

        println!(
            "E15 — multi-process socket cluster: PrAny coordinator + PrA/PrC/PrN \
             participants as separate OS processes\n"
        );

        // Spawn the three node processes, then publish the address book.
        let mut coord = Node::spawn(&exe, &dir, "coord", &[0], epoch_us);
        let mut part_a = Node::spawn(&exe, &dir, "part-a", &[1, 2], epoch_us);
        let part_b = Node::spawn(&exe, &dir, "part-b", &[3], epoch_us);
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
        let part_a = Node::spawn(&exe, &dir, "part-a", &[1, 2], epoch_us);
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
        let mut coord = Node::spawn(&exe, &dir, "coord", &[0], epoch_us);
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

        println!("\nMerged trace: {} events across 3 process files ({torn} torn/partial lines skipped)", merged.len());
        println!("  wire coord : {coord_report}");
        println!("  wire part-a: {a_report}");
        println!("  wire part-b: {b_report}");
        println!("\nCross-process ACTA predicates: {} violation(s)", violations.len());
        for v in &violations {
            println!("    !! {v}");
        }

        println!("\nMutation controls (each must be flagged):");
        let mut failures = violations.len() as u64;
        for (name, mutated) in merged_mutations(&merged) {
            let caught = !check_merged(&mutated).is_empty();
            println!("  {:44} {}", name, if caught { "flagged" } else { "MISSED" });
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
