//! What the kernel accounts for this process: on-CPU time per thread,
//! bytes and calls of `write(2)`, peak resident memory, and which
//! filesystem a path lives on. Linux `/proc` only; every reader returns
//! an error naming the file when it is missing or malformed, because a
//! silently zero metric would read as a gain. Also the three things the
//! benchmark asks of the scheduler: one CPU, exact timers, no idling.

use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Thread id of the `IdleSpinner`, 0 without one. It belongs to the
/// benchmark, not to the runtime: its CPU time is nobody's and it never
/// sleeps.
static SPINNER_TID: AtomicU32 = AtomicU32::new(0);

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn field_after<'a>(text: &'a str, key: &str, path: &str) -> Result<&'a str, String> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or_else(|| format!("{path}: no `{key}` line"))
}

fn parse<T: std::str::FromStr>(s: &str, path: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{path}: cannot parse `{s}`"))
}

/// On-CPU nanoseconds: `driver` for the calling process's main thread
/// (the benchmark drives from it), `runtime` summed over every other
/// live thread but the idle-class spinner.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuNs {
    pub driver: u64,
    pub runtime: u64,
}

/// Read `/proc/self/task/*/schedstat` (first field: ns on a CPU).
pub fn cpu_ns() -> Result<CpuNs, String> {
    let main_tid = std::process::id().to_string();
    let spinner_tid = SPINNER_TID.load(Ordering::Relaxed).to_string();
    let mut out = CpuNs::default();
    let dir = "/proc/self/task";
    for entry in fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))? {
        let entry = entry.map_err(|e| format!("{dir}: {e}"))?;
        let tid = entry.file_name().to_string_lossy().into_owned();
        if tid == spinner_tid {
            continue;
        }
        let path = format!("{dir}/{tid}/schedstat");
        // A thread may exit between the listing and the read.
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        let ns: u64 = parse(text.split_whitespace().next().unwrap_or(""), &path)?;
        if tid == main_tid {
            out.driver += ns;
        } else {
            out.runtime += ns;
        }
    }
    Ok(out)
}

/// Bytes and calls of `write(2)`-family syscalls so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct WriteIo {
    pub bytes: u64,
    pub calls: u64,
}

/// Read `wchar` and `syscw` from `/proc/self/io`.
pub fn write_io() -> Result<WriteIo, String> {
    let path = "/proc/self/io";
    let text = read(path)?;
    Ok(WriteIo {
        bytes: parse(field_after(&text, "wchar:", path)?, path)?,
        calls: parse(field_after(&text, "syscw:", path)?, path)?,
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let path = "/proc/self/status";
    let text = read(path)?;
    let kb: f64 = parse(field_after(&text, "VmHWM:", path)?, path)?;
    Ok(kb / 1024.0)
}

/// Filesystem type of the mount that holds `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let Ok(mounts) = fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    let mut best = ("", "unknown");
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(point), Some(kind)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if path.starts_with(point) && point.len() >= best.0.len() {
            best = (point, kind);
        }
    }
    best.1.to_string()
}

/// The CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-3,8`).
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let path = "/proc/self/status";
    let text = read(path)?;
    let list = field_after(&text, "Cpus_allowed_list:", path)?;
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (usize, usize) = (parse(lo, path)?, parse(hi, path)?);
        cpus.extend(lo..=hi);
    }
    Ok(cpus)
}

/// Thread ids of every live thread but the main one and the idle-class
/// spinner, oldest first.
fn runtime_threads() -> Result<Vec<u32>, String> {
    let dir = "/proc/self/task";
    let main = std::process::id();
    let spinner = SPINNER_TID.load(Ordering::Relaxed);
    let mut tids = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))? {
        let name = entry.map_err(|e| format!("{dir}: {e}"))?.file_name();
        let tid: u32 = parse(&name.to_string_lossy(), dir)?;
        if tid != main && tid != spinner {
            tids.push(tid);
        }
    }
    tids.sort_unstable();
    Ok(tids)
}

/// Is every thread but the main one blocked (state `S` in its `stat`)?
/// A thread the hypervisor has taken the CPU from still reads `R`, so
/// this tells an idle runtime from a stalled one.
pub fn runtime_asleep() -> Result<bool, String> {
    for tid in runtime_threads()? {
        let path = format!("/proc/self/task/{tid}/stat");
        // A thread may exit between the listing and the read.
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        // `pid (comm) state ...`, and comm may itself hold parentheses.
        let state = text
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.trim_start().chars().next());
        if state != Some('S') {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Pin the calling thread, and every thread it starts from now on, to
/// `cpu`.
pub fn pin(cpu: usize) -> Result<(), String> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("cpu {cpu} is beyond the affinity mask"))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is `size_of_val(&mask)` readable bytes, the size
    // passed; the call reads it and stores nothing. Pid 0 is the caller.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "pin to cpu {cpu}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Let the calling thread's timed sleeps, and those of every thread it
/// starts from now on, end when they are due: the kernel's default lets
/// each run 50 us over, which an open-loop generator would add to every
/// latency it reports.
pub fn exact_timers() -> Result<(), String> {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: this option takes a number of nanoseconds and no pointer.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("timer slack: {}", std::io::Error::last_os_error()))
    }
}

/// A thread of the `SCHED_IDLE` class that spins on the CPU of the
/// thread that started it, until dropped. It runs only when nothing else
/// on that CPU can, and any thread that wakes takes the CPU from it at
/// once, so the CPU never goes idle. In a guest an idle CPU halts, and
/// leaving the halt goes through the hypervisor and the host's
/// scheduler: 20 to 140 us here, by what the host's other tenants are
/// doing. A workload that sleeps between transactions would report
/// that, not the program (README, "One CPU, never idle").
pub struct IdleSpinner {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl IdleSpinner {
    /// Fails, leaving no thread behind, when the scheduling class is
    /// refused: a spinner of normal priority would take half the CPU.
    pub fn start() -> Result<IdleSpinner, String> {
        extern "C" {
            fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
        }
        const SCHED_IDLE: i32 = 5;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let (tx, rx) = std::sync::mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("idle-spinner".to_string())
            .spawn(move || {
                let tid = fs::read_link("/proc/thread-self")
                    .map_err(|e| format!("/proc/thread-self: {e}"))
                    .and_then(|p| {
                        let name = p.file_name().unwrap_or_default().to_string_lossy();
                        parse::<u32>(&name, "/proc/thread-self")
                    });
                // `sched_param` is one int, the priority, and 0 is the
                // only one this class has.
                let priority = 0i32;
                let entered = tid.and_then(|tid| {
                    // SAFETY: the call reads one int through the pointer
                    // and stores nothing. Pid 0 is the calling thread.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } == 0 {
                        Ok(tid)
                    } else {
                        Err(format!("SCHED_IDLE: {}", std::io::Error::last_os_error()))
                    }
                });
                let spin = entered.is_ok();
                if let Ok(tid) = entered {
                    SPINNER_TID.store(tid, Ordering::Relaxed);
                }
                let _ = tx.send(entered.map(drop));
                // No `spin_loop` hint: a hypervisor may take a run of
                // PAUSE instructions for a lock waiter and give the CPU
                // away.
                while spin && !stopped.load(Ordering::Relaxed) {}
            })
            .map_err(|e| format!("idle spinner: {e}"))?;
        let spinner = IdleSpinner {
            stop,
            thread: Some(thread),
        };
        // On failure the drop joins the thread, which has returned.
        rx.recv().map_err(|e| format!("idle spinner: {e}"))??;
        Ok(spinner)
    }
}

impl Drop for IdleSpinner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        SPINNER_TID.store(0, Ordering::Relaxed);
    }
}
