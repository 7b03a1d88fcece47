//! Operating-system counters and process hygiene: `getrusage`, `/proc`
//! readers, and reaping of every child process the benchmark started.
//!
//! Linux on a 64-bit target only (the `rusage` layout below uses 64-bit
//! `long`s).

use std::path::Path;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    fn sync();
}

/// Flushes every file system's dirty data (and, on file systems mounted
/// with online discard, the trims of deleted files), so a phase does not
/// start by paying for the write-back of the one before it.
pub fn sync_disks() {
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() }
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const SIGKILL: i32 = 9;
const WNOHANG: i32 = 1;

/// CPU time of this process or its reaped children.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
}

fn rusage(who: i32) -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a properly aligned, writable `struct rusage` with
    // the x86-64/aarch64 Linux layout (two timevals then 14 longs), and
    // `who` is one of the two constants the call accepts.
    let rc = unsafe { getrusage(who, &mut ru) };
    if rc != 0 {
        return Usage::default();
    }
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: tv(&ru.utime) + tv(&ru.stime),
    }
}

/// This process's own usage.
pub fn self_usage() -> Usage {
    rusage(RUSAGE_SELF)
}

/// Usage summed (CPU) and maximized (RSS) over reaped children.
pub fn children_usage() -> Usage {
    rusage(RUSAGE_CHILDREN)
}

/// Wall-clock nanoseconds since the Unix epoch — the one clock shared
/// with child processes (worker start latency crosses a fork/exec).
pub fn epoch_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// A `/proc/<pid>/status` field in kB (e.g. `VmHWM`), as MB.
pub fn status_mb(pid: &str, field: &str) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A `/proc/<pid>/io` counter (`wchar`, `syscw`, `write_bytes`, ...).
pub fn io_counter(pid: &str, field: &str) -> u64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/io")).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// `/proc/<pid>/stat` fields after the command name (field 3 onwards).
fn stat_fields(pid: &str) -> Vec<String> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    match text.rfind(')') {
        Some(i) => text[i + 1..]
            .split_whitespace()
            .map(str::to_string)
            .collect(),
        None => Vec::new(),
    }
}

/// User plus system CPU seconds of a live process, from `/proc/<pid>/stat`
/// (clock ticks at the Linux default of 100 Hz).
pub fn proc_cpu_s(pid: &str) -> f64 {
    let f = stat_fields(pid);
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // utime and stime are stat fields 14 and 15; `f[0]` is field 3.
    (tick(11) + tick(12)) / 100.0
}

/// Aggregate CPU jiffies from `/proc/stat`: (steal, total).
pub fn cpu_jiffies() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user/nice).
    let total = v.iter().take(8).sum();
    (v.get(7).copied().unwrap_or(0), total)
}

/// The 1-minute load average.
pub fn load1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Online CPUs as the benchmark sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pids of this process's live (or zombie) children.
fn child_pids() -> Vec<i32> {
    let me = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<i32>().ok())
        .filter(|pid| stat_fields(&pid.to_string()).get(1) == Some(&me))
        .collect()
}

/// SIGKILLs and reaps every child still attached to this process — worker
/// or daemon processes a failed phase left behind — and returns how many
/// it found. An orphan would steal a core from the next run.
pub fn reap_children() -> usize {
    let pids = child_pids();
    for &pid in &pids {
        // SAFETY: plain syscalls on pids read from /proc as our own
        // children; a pid that already exited only makes them fail.
        unsafe {
            kill(pid, SIGKILL);
        }
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    for &pid in &pids {
        loop {
            let mut status = 0;
            // SAFETY: `status` is a valid out-pointer; WNOHANG never blocks.
            let rc = unsafe { waitpid(pid, &mut status, WNOHANG) };
            if rc != 0 || std::time::Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    pids.len()
}

/// Total size in bytes of the regular files under `dir` (recursive).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Regular files under `dir` (recursive) whose name ends in `suffix`.
pub fn files_with_suffix(dir: &Path, suffix: &str) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                out.extend(files_with_suffix(&p, suffix));
            } else if p.to_string_lossy().ends_with(suffix) {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}
