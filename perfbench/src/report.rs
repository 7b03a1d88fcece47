//! Shared run context, phase results, metric tables and the helpers every
//! workload uses to measure set-up and durable-write traffic.

use crate::stats;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How one invocation runs.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Target length of the timed phase; sizes every workload's fixed work.
    pub seconds: f64,
    /// Paper-scale (`false`) or `--fast`-scale experiments.
    pub small: bool,
    /// Test hook: corrupt one result after the timed phase.
    pub corrupt: bool,
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    /// Sets (or overwrites) one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit.to_string();
            }
            None => self.0.push((name.to_string(), value, unit.to_string())),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// What one phase (fresh root, set-up, timed work, checks) measured.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Median set-up seconds (see [`SetupTimes`]).
    pub setup_s: f64,
    /// The reported `pass_s`: the fixed work's host seconds, from the
    /// operations' best latencies (see [`PhaseOut::best_ms`]); for `serve`
    /// the median open loop from first due time to last `done`.
    pub pass_s: f64,
    /// Host seconds of each repetition of the fixed work (a pass over
    /// every experiment, a batch sequence, an open loop).
    pub pass_samples: Vec<f64>,
    /// Per-operation latencies in ms, one list per repetition, in the
    /// same operation order in every repetition.
    pub lat_ms: Vec<Vec<f64>>,
    /// Peak resident set of the simulating process.
    pub peak_rss_mb: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (error, quarantine, mismatch, reject, timeout).
    pub failed: u64,
    /// Human-readable reasons the output check failed.
    pub problems: Vec<String>,
    /// Per-layer metrics.
    pub layers: Metrics,
}

impl PhaseOut {
    /// Each operation's best latency across the repetitions (see
    /// [`stats::best_per_op`]): `lat_p50_ms` is their median.
    pub fn best_ms(&self) -> Vec<f64> {
        stats::best_per_op(&self.lat_ms)
    }

    /// Latency samples in all repetitions.
    pub fn samples(&self) -> usize {
        self.lat_ms.iter().map(Vec::len).sum()
    }
}

/// The set-up times of one phase. Besides the set-up whose state the
/// timed work uses, a phase repeats its set-up at points spread through
/// the timed work (before every repetition, or in throwaway directories
/// between them), so that `setup_s` samples the same mix of host speeds
/// as `pass_s` rather than one moment at the start.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Creates `dir`, runs `setup` in it and records the seconds both took.
    pub fn time<T>(&mut self, dir: &Path, setup: impl FnOnce(&Path) -> T) -> T {
        let t0 = Instant::now();
        std::fs::create_dir_all(dir).expect("create set-up root");
        let state = setup(dir);
        self.0.push(t0.elapsed().as_secs_f64());
        state
    }

    /// One throwaway set-up in a sibling of `root`: timed, then handed to
    /// `teardown` (untimed) and deleted.
    pub fn sample<T>(
        &mut self,
        root: &Path,
        setup: impl FnOnce(&Path) -> T,
        teardown: impl FnOnce(T),
    ) {
        let dir = root.with_extension(format!("setup{}", self.0.len()));
        teardown(self.time(&dir, setup));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The median set-up time; logs every sample.
    pub fn median(&self) -> f64 {
        let ms: Vec<String> = self.0.iter().map(|s| format!("{:.2}", s * 1e3)).collect();
        eprintln!("perfbench: set-up samples (ms): {}", ms.join(" "));
        stats::median(&self.0)
    }
}

/// Journal traffic reconstructed from journal files: every
/// `Journal::append` rewrites the whole file, so a journal of lines
/// `l1..ln` built by one append per record has written
/// `sum_k (l1 + .. + lk)` bytes; one built by a single bulk `append_all`
/// (a sharded sweep's merged batch journal) has written its final size
/// once.
#[derive(Debug, Default, Clone, Copy)]
pub struct JournalTraffic {
    /// Records in the files.
    pub records: u64,
    /// Bytes written to produce them.
    pub written: u64,
    /// Bytes the files hold.
    pub final_bytes: u64,
}

impl JournalTraffic {
    /// Adds another set of files' traffic.
    pub fn merge(&mut self, other: JournalTraffic) {
        self.records += other.records;
        self.written += other.written;
        self.final_bytes += other.final_bytes;
    }

    /// Adds one file's traffic.
    pub fn add_file(&mut self, path: &Path, bulk: bool) {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let mut prefix = 0u64;
        for line in text.lines() {
            prefix += line.len() as u64 + 1;
            self.records += 1;
            if !bulk {
                self.written += prefix;
            }
        }
        if bulk {
            self.written += prefix;
        }
        self.final_bytes += prefix;
    }
}

/// Traffic of every `*.jsonl` journal under `dir`. With `sharded` set,
/// merged batch journals (not `*.worker-*`) count as bulk writes.
pub fn journal_traffic(dir: &Path, sharded: bool) -> JournalTraffic {
    let mut t = JournalTraffic::default();
    for f in crate::os::files_with_suffix(dir, ".jsonl") {
        let name = f.file_name().map(|n| n.to_string_lossy().to_string());
        let bulk = sharded && !name.is_some_and(|n| n.contains(".worker-"));
        t.add_file(&f, bulk);
    }
    t
}

/// The benchmark's scratch area inside the checkout.
pub fn state_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}
