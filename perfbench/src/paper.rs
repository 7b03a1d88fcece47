//! `paper`: every experiment of the reproduction, serially in-process;
//! the traced run adds one pass sharded across two re-exec'd worker
//! processes, which measures the shard layer.

use crate::report::{Ctx, Metrics, PhaseOut, SetupTimes};
use crate::{check, os, probes, stats, trace::Tracer};
use biglittle::sweep::{self, SweepStats};
use biglittle::SweepOptions;
use bl_simcore::journal::fnv1a;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Experiments that render fixed text and simulate nothing.
const STATIC: [&str; 2] = ["table1", "table2"];

/// Host seconds one pass takes on the reference 2-vCPU VM; a run makes
/// `seconds / PASS_S` passes (at least one). A `--fast`-scale pass
/// (`SMALL_PASS_S`) costs about as much as a paper-scale one: the
/// experiments that dominate a pass run the same at both scales.
const PASS_S: f64 = 3.2;
const SMALL_PASS_S: f64 = 3.0;

/// The simulating experiments, in `EXPERIMENTS` order.
pub fn timed_ids() -> Vec<&'static str> {
    bl_bench::EXPERIMENTS
        .iter()
        .copied()
        .filter(|id| !STATIC.contains(id))
        .collect()
}

fn scale(small: bool) -> &'static str {
    if small {
        "fast"
    } else {
        "paper"
    }
}

/// Where the worker launcher of the sharded pass logs
/// `<launch_ns> <entry_ns>` lines.
static START_LOG: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Environment variables carrying the launch instant and log path to a
/// worker, so it can report how long it took to reach its entry point.
pub const SPAWN_ENV: &str = "PERFBENCH_SPAWN_NS";
pub const LOG_ENV: &str = "PERFBENCH_START_LOG";

/// Registers the benchmark binary itself as the shard layer's worker.
pub fn register_launcher() {
    sweep::shard::set_worker_launcher(|spec| {
        let exe = std::env::current_exe().expect("current_exe for worker spawn");
        let mut cmd = std::process::Command::new(exe);
        cmd.args(sweep::shard::worker_cli_args(spec));
        if let Some(log) = START_LOG.lock().expect("start log poisoned").as_ref() {
            cmd.env(LOG_ENV, log);
            cmd.env(SPAWN_ENV, os::epoch_ns().to_string());
        }
        cmd
    });
}

/// Called first thing in a worker process: appends its start latency.
pub fn log_worker_entry() {
    use std::io::Write as _;
    let entry = os::epoch_ns();
    if let (Ok(log), Ok(spawn)) = (std::env::var(LOG_ENV), std::env::var(SPAWN_ENV)) {
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
        {
            let _ = writeln!(f, "{spawn} {entry}");
        }
    }
}

fn worker_start_ms(log: &Path) -> Vec<f64> {
    std::fs::read_to_string(log)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let (a, b) = l.split_once(' ')?;
            let (a, b): (u64, u64) = (a.parse().ok()?, b.parse().ok()?);
            Some(b.saturating_sub(a) as f64 / 1e6)
        })
        .collect()
}

/// One experiment run inside a pass.
struct Exp {
    id: &'static str,
    ms: f64,
    /// FNV-1a of the rendered output; `None` when the experiment panicked.
    digest: Option<u64>,
    /// Scenarios the experiment executed (its operations).
    scenarios: u64,
}

/// One pass: every experiment once, each followed by a drain of the
/// engine's stats tally. Returns the experiments, the pass's summed
/// stats and its host seconds.
fn pass(
    ctx: &Ctx,
    seed: u64,
    opts: &SweepOptions,
    tracer: &Tracer,
    span: &str,
    op: u64,
) -> (Vec<Exp>, SweepStats, f64) {
    let mut out = Vec::new();
    let mut tally = SweepStats::default();
    let t_pass = Instant::now();
    tracer.span(span, op, None, |parent| {
        for id in bl_bench::EXPERIMENTS {
            let t0 = Instant::now();
            let text = catch_unwind(AssertUnwindSafe(|| {
                bl_bench::run_experiment_with(id, seed, ctx.small, opts)
            }));
            let t1 = Instant::now();
            tracer.record(&format!("experiment.{id}"), op, parent, t0, t1);
            let s = sweep::take_stats();
            merge(&mut tally, &s);
            out.push(Exp {
                id,
                ms: (t1 - t0).as_secs_f64() * 1e3,
                digest: text.ok().map(|t| fnv1a(t.as_bytes())),
                scenarios: s.scenarios,
            });
        }
    });
    (out, tally, t_pass.elapsed().as_secs_f64())
}

/// Prints a serial pass's digests at every recorded seed, in
/// `digests.txt` format.
pub fn print_digests(ctx: &Ctx) {
    for seed in check::FIRST_SEED..check::FIRST_SEED + check::SEEDS {
        let (exps, _, _) = pass(
            ctx,
            seed,
            &SweepOptions::serial(),
            &Tracer::new(false),
            "pass",
            0,
        );
        for e in exps {
            let hex = e
                .digest
                .map_or("panicked".to_string(), |d| format!("{d:016x}"));
            println!("{} {seed} {} {hex}", scale(ctx.small), e.id);
        }
    }
}

/// Sums the counters this benchmark reports (`SweepStats::merge` is
/// private to the engine).
pub fn merge(into: &mut SweepStats, s: &SweepStats) {
    into.scenarios += s.scenarios;
    into.cache_hits += s.cache_hits;
    into.resumed += s.resumed;
    into.forked += s.forked;
    into.retries += s.retries;
    into.quarantined += s.quarantined;
    into.events += s.events;
    into.snapshot.trunk_runs += s.snapshot.trunk_runs;
    into.snapshot.forks += s.snapshot.forks;
    into.snapshot.hydrated += s.snapshot.hydrated;
    into.snapshot.published += s.snapshot.published;
    if let Some(sh) = &s.shard {
        let t = into.shard.get_or_insert_with(Default::default);
        t.workers += sh.workers;
        t.ranges += sh.ranges;
        t.leases_granted += sh.leases_granted;
        t.reclaimed_expired += sh.reclaimed_expired;
        t.reclaimed_dead += sh.reclaimed_dead;
    }
}

/// Runs `paper` in a fresh root. The traced run adds one sharded pass,
/// which measures the shard layer (see [`shard_pass`]).
pub fn run(ctx: &Ctx, root: &Path, tracer: &Tracer) -> PhaseOut {
    let mut out = PhaseOut::default();
    let opts = SweepOptions::serial();

    // Set-up: a fresh state directory, then priming (see `probes::prime`);
    // repeated in a throwaway directory after every pass, so that
    // `setup_s` samples the same mix of host speeds as the passes.
    let setup = |dir: &Path| {
        std::fs::create_dir_all(dir).expect("create state dir");
        probes::prime(ctx.seed);
    };
    let mut setups = SetupTimes::default();
    setups.time(root, setup);
    let seed = check::input_seed(ctx.seed);

    let per = if ctx.small { SMALL_PASS_S } else { PASS_S };
    let passes = ((ctx.seconds / per).round() as usize).max(1);
    let _ = sweep::take_stats();
    // CPU seconds of the passes alone, without the set-ups between them.
    let mut cpu_s = 0.0;
    let io0 = (
        os::io_counter("self", "wchar"),
        os::io_counter("self", "syscw"),
    );
    let mut tally = SweepStats::default();
    let mut runs: Vec<Vec<Exp>> = Vec::new();
    for p in 0..passes {
        let cpu0 = os::self_usage().cpu_s;
        let (exps, s, secs) = pass(ctx, seed, &opts, tracer, "pass", p as u64);
        cpu_s += os::self_usage().cpu_s - cpu0;
        out.pass_samples.push(secs);
        merge(&mut tally, &s);
        out.lat_ms.push(
            exps.iter()
                .filter(|e| !STATIC.contains(&e.id))
                .map(|e| e.ms)
                .collect(),
        );
        runs.push(exps);
        setups.sample(root, setup, drop);
    }
    out.setup_s = setups.median();
    // The time of one pass with every experiment at its best: see
    // `stats::best_per_op`.
    let best = out.best_ms();
    out.pass_s = best.iter().sum::<f64>() / 1e3;
    let wall: f64 = out.pass_samples.iter().sum();
    let io1 = (
        os::io_counter("self", "wchar"),
        os::io_counter("self", "syscw"),
    );
    out.peak_rss_mb = os::status_mb("self", "VmHWM");

    // Output checks: every experiment of every pass must match the
    // digests recorded for its seed.
    let expected = check::recorded(scale(ctx.small), seed);
    if ctx.corrupt {
        if let Some(e) = runs
            .last_mut()
            .and_then(|r| r.iter_mut().find(|e| e.id == "fig7"))
        {
            e.digest = e.digest.map(|d| d ^ 1);
        }
    }
    out.failed = tally.quarantined;
    for (p, exps) in runs.iter().enumerate() {
        check_pass(&format!("pass {p}"), exps, &expected, &mut out);
    }

    // Per-layer figures (meaningful in the traced run).
    let mut m = Metrics::default();
    m.set("sim.events", tally.events as f64, "count");
    m.set(
        "sim.ns_per_event",
        if tally.events > 0 {
            out.pass_s * passes as f64 * 1e9 / tally.events as f64
        } else {
            0.0
        },
        "ns",
    );
    for (id, ms) in timed_ids().into_iter().zip(&best) {
        m.set(&format!("experiments.{id}_ms"), *ms, "ms");
    }
    m.set("sweep.retries", tally.retries as f64, "count");
    m.set("sweep.quarantined", tally.quarantined as f64, "count");
    m.set("sweep.cpu_frac", cpu_s / wall.max(1e-9), "frac");
    m.set("sweep.write_mb", (io1.0 - io0.0) as f64 / 1e6, "MB");
    m.set("sweep.write_calls", (io1.1 - io0.1) as f64, "count");
    if tracer.enabled() {
        probes::build(ctx.seed, &mut m);
        shard_pass(
            ctx,
            root,
            tracer,
            passes as u64,
            &expected,
            &mut out,
            &mut m,
        );
    }
    out.layers = m;
    out
}

/// Checks one pass's outputs against the recorded digests. An operation
/// is a scenario (a static table counts as one); every operation of a
/// wrong or panicked experiment fails.
fn check_pass(label: &str, exps: &[Exp], expected: &BTreeMap<String, u64>, out: &mut PhaseOut) {
    for e in exps {
        let ops = e.scenarios.max(1);
        out.attempted += ops;
        if e.digest.is_none() || e.digest != expected.get(e.id).copied() {
            out.problems.push(format!(
                "{label}: experiment {} output differs from the reference",
                e.id
            ));
            out.failed += ops;
        }
    }
}

/// The shard layer, measured in the traced run: one more pass, through
/// `SweepOptions::sharded(2)` — two worker processes re-exec'd from this
/// binary, journals in the phase's root. Its outputs are held to the same
/// digests as the serial passes.
fn shard_pass(
    ctx: &Ctx,
    root: &Path,
    tracer: &Tracer,
    op: u64,
    expected: &BTreeMap<String, u64>,
    out: &mut PhaseOut,
    m: &mut Metrics,
) {
    let journal_dir = root.join("journal");
    let log = root.join("worker-starts.log");
    std::fs::create_dir_all(&journal_dir).expect("create journal dir");
    let opts = SweepOptions::serial()
        .sharded(2)
        .journaled(journal_dir.clone());
    *START_LOG.lock().expect("start log poisoned") = Some(log.clone());
    let kids0 = os::children_usage();
    let (exps, s, secs) = pass(
        ctx,
        check::input_seed(ctx.seed),
        &opts,
        tracer,
        "shard.pass",
        op,
    );
    let kids1 = os::children_usage();
    *START_LOG.lock().expect("start log poisoned") = None;
    out.failed += s.quarantined;
    check_pass("sharded pass", &exps, expected, out);

    let sh = s.shard.unwrap_or_default();
    m.set("shard.workers", sh.workers as f64, "count");
    m.set("shard.leases", sh.leases_granted as f64, "count");
    m.set("shard.ranges", sh.ranges as f64, "count");
    m.set(
        "shard.reclaimed",
        (sh.reclaimed_expired + sh.reclaimed_dead) as f64,
        "count",
    );
    m.set(
        "shard.worker_start_ms",
        stats::median(&worker_start_ms(&log)),
        "ms",
    );
    m.set(
        "shard.cpu_frac",
        (kids1.cpu_s - kids0.cpu_s) / (2.0 * secs.max(1e-9)),
        "frac",
    );
    let journal = crate::report::journal_traffic(&journal_dir, true);
    m.set("journal.records", journal.records as f64, "count");
    m.set("journal.mb_written", journal.written as f64 / 1e6, "MB");
    m.set(
        "journal.write_amp",
        journal.written as f64 / journal.final_bytes.max(1) as f64,
        "ratio",
    );
    probes::journal_append(root, ctx.seed, m, tracer);
}
