//! `sweep`: one closed-loop caller running a seeded sequence of
//! warm-up-ladder batches through `SweepRequest::run` with `repro`'s
//! default options — prefix sharing, snapshot store, journal and result
//! cache, all in the phase's fresh root.

use crate::inputs::{self, Batch, Class};
use crate::report::{Ctx, Metrics, PhaseOut, SetupTimes};
use crate::{check, os, paper, probes, stats, trace::Tracer};
use biglittle::sweep::{self, SweepRequest, SweepStats};
use biglittle::{Scenario, SweepOptions};
use std::path::Path;
use std::time::{Duration, Instant};

/// Batches started per second. The caller is paced rather than run
/// flat out: on the reference 2-vCPU VM, a flat-out loop of these
/// fsync-heavy batches slowed the virtual disk within seconds, and the
/// slowdown outlasted minutes of idling, so every run measured the disk
/// state the runs before it had left. At this rate a batch (about 10 ms)
/// is done long before the next is due, so pacing adds no queueing.
const BATCHES_PER_S: f64 = 10.0;
/// Batches in one repetition of the sequence. A run repeats the sequence
/// from fresh state until it has run `seconds × BATCHES_PER_S` batches,
/// so every batch is timed several times in the same state.
const PER_REP: usize = 10;
/// Rungs and bindings per batch: 3 × 2 = 6 scenarios.
const LEVELS: usize = 3;
const BINDINGS: usize = 2;

/// Batches in the sequence and repetitions of it in a run.
fn shape(ctx: &Ctx) -> (usize, usize) {
    let total = ((ctx.seconds * BATCHES_PER_S).round() as usize).max(PER_REP);
    let per = total.min(PER_REP);
    (per, (total / per).max(1))
}

/// The seeded batch sequence of a run.
pub fn batches(ctx: &Ctx) -> Vec<Batch> {
    let seed = check::input_seed(ctx.seed);
    inputs::sequence(seed, shape(ctx).0, LEVELS, BINDINGS, |_, _| true)
}

/// `repro`'s default sweep options rooted at `root`, on one worker
/// thread: the second core then absorbs the kernel's journal-commit and
/// write-back work instead of the sweep competing with it, which keeps
/// run-to-run variation on a 2-vCPU host down.
fn options(root: &Path) -> SweepOptions {
    SweepOptions::serial()
        .cached(root.join("cache"))
        .journaled(root.join("journal"))
        .snap_stored(root.join("snaps"))
}

pub fn run(ctx: &Ctx, root: &Path, tracer: &Tracer) -> PhaseOut {
    let mut out = PhaseOut::default();
    // Set-up, once per repetition: fresh state directories, priming and
    // the generated batches.
    let setup = |dir: &Path| {
        for sub in ["cache", "journal", "snaps"] {
            std::fs::create_dir_all(dir.join(sub)).expect("create state dir");
        }
        probes::prime(ctx.seed);
        batches(ctx)
            .iter()
            .map(|b| (b.class, b.scenarios()))
            .collect::<Vec<(Class, Vec<Scenario>)>>()
    };
    let mut setups = SetupTimes::default();
    let (per, reps) = shape(ctx);

    let _ = sweep::take_stats();
    let mut cpu_s = 0.0;
    let io0 = (
        os::io_counter("self", "wchar"),
        os::io_counter("self", "syscw"),
    );
    let mut tally = SweepStats::default();
    let mut digests: Vec<(String, Result<u64, String>)> = Vec::new();
    let mut journal = crate::report::JournalTraffic::default();
    let mut cache_bytes = 0;
    let mut batch_failed = vec![false; per * reps];
    let mut plan = Vec::new();
    for r in 0..reps {
        let dir = root.join(format!("rep{r}"));
        plan = setups.time(&dir, setup);
        let opts = options(&dir);
        let mut lat = Vec::with_capacity(plan.len());
        let t_rep = Instant::now();
        // Batch `i` is due `i` periods after the repetition starts.
        let period = Duration::from_secs_f64(1.0 / BATCHES_PER_S);
        for (i, (class, scenarios)) in plan.iter().enumerate() {
            std::thread::sleep(
                (t_rep + period * i as u32).saturating_duration_since(Instant::now()),
            );
            let op = (r * per + i) as u64;
            let req = SweepRequest::new(scenarios.clone()).options(opts.clone());
            let cpu0 = os::self_usage().cpu_s;
            let t0 = Instant::now();
            let report = req.run();
            let t1 = Instant::now();
            cpu_s += os::self_usage().cpu_s - cpu0;
            lat.push((t1 - t0).as_secs_f64() * 1e3);
            let batch_span = tracer.record("batch", op, None, t0, t1);
            tracer.record(
                &format!("sweep.run.{}", class.name()),
                op,
                batch_span,
                t0,
                t1,
            );
            // Untimed bookkeeping: digests, stats, this batch's journal.
            paper::merge(&mut tally, &report.stats);
            batch_failed[r * per + i] |= report.degraded || !report.quarantined.is_empty();
            for (sc, res) in scenarios.iter().zip(&report.results) {
                digests.push((sc.label.clone(), check::digest(res)));
            }
            let bkey = sweep::batch_key_for(scenarios, &opts);
            journal.add_file(&dir.join("journal").join(format!("{bkey}.jsonl")), false);
        }
        out.pass_samples.push(lat.iter().sum::<f64>() / 1e3);
        out.lat_ms.push(lat);
        // Untimed: the next repetition starts from fresh state on a
        // flushed disk.
        cache_bytes += os::dir_bytes(&dir.join("cache"));
        let _ = std::fs::remove_dir_all(&dir);
        os::sync_disks();
    }
    out.setup_s = setups.median();
    let best = out.best_ms();
    out.pass_s = best.iter().sum::<f64>() / 1e3;
    let wall: f64 = out.lat_ms.iter().flatten().sum::<f64>() / 1e3;
    let io1 = (
        os::io_counter("self", "wchar"),
        os::io_counter("self", "syscw"),
    );
    out.peak_rss_mb = os::status_mb("self", "VmHWM");

    // Output check: every result of every repetition byte-compared with a
    // cold run.
    if ctx.corrupt {
        if let Some((_, Ok(d))) = digests.last_mut() {
            *d ^= 1;
        }
    }
    let recorded = check::recorded("sweep", check::input_seed(ctx.seed));
    let bad = check::against_cold(
        plan.iter().flat_map(|(_, s)| s.iter()),
        &digests,
        recorded.get(&plan.len().to_string()).copied(),
        &mut out.problems,
    );
    let scenarios_per_batch = plan.first().map_or(1, |(_, s)| s.len());
    for idx in bad {
        batch_failed[idx / scenarios_per_batch] = true;
    }
    out.attempted = batch_failed.len() as u64;
    out.failed = batch_failed.iter().filter(|f| **f).count() as u64;

    let mut m = Metrics::default();
    m.set("sim.events", tally.events as f64, "count");
    m.set(
        "sim.ns_per_event",
        if tally.events > 0 {
            wall * 1e9 / tally.events as f64
        } else {
            0.0
        },
        "ns",
    );
    snapshot_counts(&tally, &mut m);
    m.set("journal.records", journal.records as f64, "count");
    m.set("journal.mb_written", journal.written as f64 / 1e6, "MB");
    m.set(
        "journal.write_amp",
        journal.written as f64 / journal.final_bytes.max(1) as f64,
        "ratio",
    );
    m.set("cache.hits", tally.cache_hits as f64, "count");
    m.set(
        "cache.hit_ratio",
        tally.cache_hits as f64 / tally.scenarios.max(1) as f64,
        "frac",
    );
    m.set("cache.mb_written", cache_bytes as f64 / 1e6, "MB");
    m.set("sweep.batch_ms", stats::median(&best), "ms");
    m.set("sweep.cpu_frac", cpu_s / wall.max(1e-9), "frac");
    m.set("sweep.write_mb", (io1.0 - io0.0) as f64 / 1e6, "MB");
    m.set("sweep.write_calls", (io1.1 - io0.1) as f64, "count");
    m.set("sweep.retries", tally.retries as f64, "count");
    m.set("sweep.quarantined", tally.quarantined as f64, "count");
    if tracer.enabled() {
        probes::snapshot(root, &ladders(&plan), &mut m, tracer);
    }
    out.layers = m;
    out
}

/// `snapshot.*` counts from the engine's stats.
pub fn snapshot_counts(s: &SweepStats, m: &mut Metrics) {
    let sn = &s.snapshot;
    m.set("snapshot.trunk_runs", sn.trunk_runs as f64, "count");
    m.set("snapshot.forks", sn.forks as f64, "count");
    m.set("snapshot.hydrated", sn.hydrated as f64, "count");
    m.set("snapshot.published", sn.published as f64, "count");
    m.set(
        "snapshot.hit_ratio",
        sn.hydrated as f64 / (sn.hydrated + sn.published).max(1) as f64,
        "frac",
    );
}

/// The deepest scenario of the first few `Build` batches: the inputs the
/// snapshot probes run on.
pub fn ladders(plan: &[(Class, Vec<Scenario>)]) -> Vec<Scenario> {
    plan.iter()
        .filter(|(c, _)| *c == Class::Build)
        .take(4)
        .filter_map(|(_, s)| s.last().cloned())
        .collect()
}
