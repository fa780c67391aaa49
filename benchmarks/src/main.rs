//! `perf`: the repository's benchmark. See `README.md` beside this
//! package for what each workload and metric is for.
//!
//! ```text
//! perf run     --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--out FILE] [--wal-dir DIR]
//! perf trace   --workload W ...        the same as `run --trace 1`
//! perf suite   [--seed S] [--seconds T] [--smoke] [--out FILE] [--wal-dir DIR]
//! perf probe   [--wal-dir DIR]
//! perf compare A B
//! ```

mod alloc;
mod cluster;
mod compare;
mod epoch;
mod json;
mod plan;
mod probe;
mod procfs;
mod run;
mod spec;
mod stats;
mod trace;

use spec::{Metric, Workload, PER_LAYER, WORKLOADS};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perf run|trace --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--out FILE] [--wal-dir DIR]
       perf suite [--seed S] [--seconds T] [--smoke] [--out FILE] [--wal-dir DIR]
       perf probe [--wal-dir DIR]
       perf compare A B";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    wal_dir: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(v));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--wal-dir" => a.wal_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(a)
}

/// The directory every cluster's WAL files go under, removed on drop.
///
/// tmpfs by default: a flush then costs its system call and nothing
/// else, so `fsyncs_per_txn` stands in for device time and a shared
/// disk's second-to-second swings stay out of the numbers. Clusters
/// find it through `TMPDIR` (`acp_wal::tempdir`).
struct WalRoot(PathBuf);

impl WalRoot {
    fn create(chosen: Option<&Path>) -> Result<WalRoot, String> {
        let name = format!("acp-perf-{}", std::process::id());
        let candidates: Vec<PathBuf> = match chosen {
            Some(dir) => vec![dir.to_path_buf()],
            None => vec![PathBuf::from("/dev/shm"), spec::package_dir().join("out")],
        };
        let mut last = String::new();
        for base in candidates {
            let dir = base.join(&name);
            match std::fs::create_dir_all(&dir) {
                Ok(()) => {
                    let dir = dir.canonicalize().unwrap_or(dir);
                    std::env::set_var("TMPDIR", &dir);
                    println!(
                        "# WAL files under {} ({})",
                        dir.display(),
                        procfs::fs_type(&dir)
                    );
                    return Ok(WalRoot(dir));
                }
                Err(e) => last = format!("{}: {e}", dir.display()),
            }
        }
        Err(format!("no directory for WAL files: {last}"))
    }
}

impl Drop for WalRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn metric_json(metrics: &[(Metric, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::num(*v),
                json::quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Run one workload, print its lines, save it if asked; returns the
/// result line the contract asks for and whether the run was correct.
fn run_one(w: &'static Workload, a: &Args, run_seconds: u64) -> Result<(String, bool), String> {
    let options = run::Options {
        workload: w,
        seed: a.seed,
        budget: Duration::from_secs_f64(a.seconds.unwrap_or(run_seconds as f64)),
        smoke: a.smoke,
        layers: a.trace,
    };
    let done = run::run(&options)?;
    for note in &done.notes {
        println!("# {}: {note}", w.name);
    }
    for (m, v) in &done.metrics {
        println!("{} {} {} {}", w.name, m.name, json::num(*v), m.unit);
    }
    for f in &done.failures {
        println!("# {}: FAILED {f}", w.name);
    }
    let correct = done.failed == 0;
    let metrics = metric_json(&done.metrics);
    if let Some(path) = &a.out {
        let line = format!(
            "{{\"workload\": {}, \"seed\": {}, \"smoke\": {}, \"correct\": {correct}, \"metrics\": {metrics}}}\n",
            json::quote(w.name),
            a.seed,
            a.smoke
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok((
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            done.attempted, done.failed
        ),
        correct,
    ))
}

fn main_inner() -> Result<bool, String> {
    alloc::mark_driver();
    alloc::keep_heap_mapped();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().map(String::as_str) else {
        return Err(USAGE.to_string());
    };
    if command == "compare" {
        let [_, a, b] = argv.as_slice() else {
            return Err(USAGE.to_string());
        };
        return compare::compare(a, b);
    }
    let mut a = parse_args(&argv[1..])?;
    let run_seconds = spec::check_benchmark_json()?;
    // One CPU for the driver and every thread the runtime starts: they
    // hand it to one another by blocking, so a wake-up is a context
    // switch, never an interrupt sent to another CPU of the guest. With
    // exact timers and that CPU kept from idling, what is left of a
    // transaction's latency is the program's own work (README, "One
    // CPU, never idle").
    let cpus = procfs::allowed_cpus()?;
    let cpu = *cpus.first().ok_or("no CPU is allowed to this process")?;
    procfs::pin(cpu)?;
    procfs::exact_timers()?;
    let spinner = procfs::IdleSpinner::start();
    println!(
        "# every thread on CPU {cpu} of {} allowed, {}",
        cpus.len(),
        match &spinner {
            Ok(_) => "kept from idling".to_string(),
            Err(e) => format!("left to idle ({e})"),
        }
    );
    match command {
        "run" | "trace" => {
            a.trace |= command == "trace";
            let name = a.workload.as_deref().ok_or("--workload is required")?;
            let w = spec::workload(name).ok_or_else(|| {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!(
                    "unknown workload `{name}`; the workloads are {}",
                    known.join(", ")
                )
            })?;
            let _wal = WalRoot::create(a.wal_dir.as_deref())?;
            let (line, correct) = run_one(w, &a, run_seconds)?;
            println!("{line}");
            Ok(correct)
        }
        "suite" => {
            let _wal = WalRoot::create(a.wal_dir.as_deref())?;
            let mut all_correct = true;
            let mut lines = Vec::new();
            for w in WORKLOADS {
                let (line, correct) = run_one(w, &a, run_seconds)?;
                all_correct &= correct;
                lines.push(format!("{}: {line}", json::quote(w.name)));
            }
            println!("{{{}}}", lines.join(", "));
            Ok(all_correct)
        }
        "probe" => {
            let _wal = WalRoot::create(a.wal_dir.as_deref())?;
            for (name, v) in probe::run()? {
                let m = PER_LAYER
                    .iter()
                    .find(|m| m.name == name)
                    .expect("probe metrics are in the table");
                println!("probe {} {} {}", m.name, json::num(v), m.unit);
            }
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
