//! One site-hosting node per OS process: the child-process harness the
//! multi-process campaigns (`exp_socket`, `exp_paxos`) share.
//!
//! A campaign binary is both halves. Run as `<exe> node --hosted 1,2
//! --peers F --wal D --trace T --epoch-us E [campaign flags]` it is a
//! **child** ([`serve`]): it spawns a [`SocketNode`], announces `LISTEN
//! addr=…` on stdout and obeys the parent's stdin commands. Run without
//! arguments it is the **parent**, which spawns children of its own
//! executable ([`Node::spawn`]), publishes the address book through a
//! rendezvous file ([`write_peers`]), drives load slices, and `kill
//! -9`s and restarts children at will. The cluster shape and any extra
//! child flags are the campaign's.

use crate::trace_check::Ev;
use acp_net::wire::{shared_history, AddressBook, NodeConfig, SocketNode, WireFaults};
use acp_net::ClusterConfig;
use acp_obs::{JsonLinesSink, JsonValue, TraceSink};
use acp_types::{Outcome, SiteId, Vote};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{exit, Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// Println + flush: children talk to the parent through a pipe, where
/// stdout is block-buffered and an unflushed line deadlocks the run.
fn say(line: &str) {
    let mut out = std::io::stdout();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// The value following `flag` in a child's arguments; panics without it.
#[must_use]
pub fn flag_value(args: &[String], flag: &str) -> String {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .unwrap_or_else(|| panic!("missing {flag}"))
        .clone()
}

/// The shared epoch the parent stamps every child's trace with, so the
/// per-process files merge into one global history.
#[must_use]
pub fn epoch_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock")
        .as_micros() as u64
}

// -------------------------------------------------------------------- child

/// The child half: spawn the node `args` describe over `cluster` with
/// `faults` on its wire, announce `LISTEN addr=…`, then serve parent
/// commands on stdin: `go <first-txn> <count>` runs a load slice (at the
/// coordinator), `quit` (or EOF — the parent died) shuts down
/// gracefully and prints the final `REPORT wire=…` line.
pub fn serve(args: &[String], cluster: ClusterConfig, faults: WireFaults) -> ! {
    let get = |flag: &str| flag_value(args, flag);
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
        cluster,
        hosted,
        AddressBook::File(PathBuf::from(get("--peers"))),
        wal_dir,
    );
    config.epoch_unix_us = Some(get("--epoch-us").parse().expect("epoch"));
    config.faults = faults;
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
        if txn.raw().is_multiple_of(5) {
            let victim = parts[(txn.raw() as usize / 5) % parts.len()];
            node.set_intent(victim, txn, Vote::No);
        }
        let outcome = node.commit(txn, &parts);
        let label = match outcome {
            Some(Outcome::Commit) => {
                committed += 1;
                "commit"
            }
            Some(Outcome::Abort) => {
                aborted += 1;
                "abort"
            }
            None => {
                timeouts += 1;
                "timeout"
            }
        };
        say(&format!("TXN {} {label}", txn.raw()));
    }
    say(&format!(
        "DONE committed={committed} aborted={aborted} timeouts={timeouts}"
    ));
}

// ------------------------------------------------------------------- parent

/// A spawned child node and the plumbing to talk to it.
pub struct Node {
    child: Child,
    stdin: ChildStdin,
    /// The child's stdout: `LISTEN`, `TXN`, `DONE`, `REPORT` lines.
    pub out: BufReader<ChildStdout>,
    addr: SocketAddr,
    /// Sites this child hosts (address-book entries to point at it).
    sites: Vec<u32>,
}

impl Node {
    /// Spawn `exe node …` hosting `sites`, with its WALs and trace file
    /// named after `name` under `dir`, and wait for its `LISTEN` line.
    /// `extra` is appended to the child's arguments as is.
    #[must_use]
    pub fn spawn(
        exe: &Path,
        dir: &Path,
        name: &str,
        sites: &[u32],
        epoch_us: u64,
        extra: &[String],
    ) -> Node {
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
                &dir.join(format!("trace-{name}.jsonl"))
                    .display()
                    .to_string(),
                "--epoch-us",
                &epoch_us.to_string(),
            ])
            .args(extra)
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
        Node {
            child,
            stdin,
            out,
            addr,
            sites: sites.to_vec(),
        }
    }

    /// Write one command line to the child's stdin.
    pub fn send(&mut self, cmd: &str) {
        let _ = writeln!(self.stdin, "{cmd}");
        let _ = self.stdin.flush();
    }

    /// SIGKILL — the paper's site failure: volatile state gone, only
    /// the forced WAL records survive.
    pub fn kill9(&mut self) {
        self.child.kill().expect("kill -9 child");
        let _ = self.child.wait();
    }

    /// Graceful shutdown; returns the child's `REPORT` line.
    #[must_use]
    pub fn quit(mut self) -> String {
        self.send("quit");
        let report = read_prefixed(&mut self.out, "REPORT ").unwrap_or_default();
        let _ = self.child.wait();
        report
    }
}

/// Read child stdout lines until one starts with `prefix`; returns the
/// remainder of that line, or `None` on EOF (the child died).
pub fn read_prefixed(out: &mut BufReader<ChildStdout>, prefix: &str) -> Option<String> {
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

/// Parse a child's `DONE committed=X aborted=Y timeouts=Z` line.
#[must_use]
pub fn parse_done(rest: &str) -> (u64, u64, u64) {
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
pub fn write_peers(dir: &Path, nodes: &[&Node]) {
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
/// [`crate::trace_check::check_merged`], proving the cross-process
/// predicates can fail.
#[must_use]
pub fn merged_mutations(clean: &[Ev]) -> Vec<(&'static str, Vec<Ev>)> {
    let mut out = Vec::new();
    let mut m = clean.to_vec();
    if let Some(e) = m.iter_mut().find(|e| {
        e.ty() == "force_write"
            && (e.str("record") == "part-commit" || e.str("record") == "part-abort")
    }) {
        let flipped = if e.str("record") == "part-commit" {
            "part-abort"
        } else {
            "part-commit"
        };
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
