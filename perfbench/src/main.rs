//! `perfbench`: the end-to-end benchmark of the biglittle reproduction.
//!
//! ```text
//! perfbench --workload <serve|serve-cold|paper|sweep> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --repeat N --workload W [...]    # N seeds, median and quartiles per metric
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. See README.md.

mod check;
mod inputs;
mod os;
mod paper;
mod probes;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use report::{Ctx, Metrics, PhaseOut};
use serde_json::Value;
use std::path::Path;
use trace::Tracer;

/// Workloads: `BENCHMARK.json` names `serve` and `serve-cold`; `paper`
/// and `sweep` run on their own and inside traced runs (see `BORROWED`).
const WORKLOADS: [&str; 4] = ["serve", "serve-cold", "paper", "sweep"];

/// Layers a traced run measures with a phase of another workload, because
/// its own traffic does not reach them: (workload, phase workload, the
/// phase's share of `--seconds`, metric names; a name ending in `.` is a
/// prefix). The daemon's runs use no result cache and hide the engine's
/// batch timings and I/O, so `serve` runs `sweep`; no request runs a
/// paper experiment or a sharded sweep, so `serve-cold` runs `paper`,
/// whose traced run adds a sharded pass.
const BORROWED: [(&str, &str, f64, &[&str]); 2] = [
    (
        "serve",
        "sweep",
        0.25,
        &[
            "cache.",
            "sweep.batch_ms",
            "sweep.cpu_frac",
            "sweep.write_mb",
            "sweep.write_calls",
        ],
    ),
    ("serve-cold", "paper", 0.25, &["experiments.", "shard."]),
];

/// End-to-end metrics: every workload reports all of them.
/// `lat_p90_ms` is not among them: on a shared 2-vCPU host its run-to-run
/// spread reached the 0.25 bound, so it is a per-layer metric (`lat.p90_ms`).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("lat_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("tlp_rho", "rho"),
    ("bigcore_rho", "rho"),
];

/// Per-layer metrics other than the per-experiment ones; every workload
/// reports all of them (0 where the workload does not exercise a layer).
const PER_LAYER: [(&str, &str); 50] = [
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.build_us", "us"),
    ("snapshot.trunk_runs", "count"),
    ("snapshot.forks", "count"),
    ("snapshot.hydrated", "count"),
    ("snapshot.published", "count"),
    ("snapshot.hit_ratio", "frac"),
    ("snapshot.trunk_ms", "ms"),
    ("snapshot.fork_us", "us"),
    ("snapshot.save_us", "us"),
    ("snapshot.restore_us", "us"),
    ("snapshot.payload_kb", "KB"),
    ("snapstore.publish_ms", "ms"),
    ("snapstore.load_ms", "ms"),
    ("journal.records", "count"),
    ("journal.append_ms", "ms"),
    ("journal.write_amp", "ratio"),
    ("journal.mb_written", "MB"),
    ("cache.hits", "count"),
    ("cache.hit_ratio", "frac"),
    ("cache.mb_written", "MB"),
    ("sweep.batch_ms", "ms"),
    ("sweep.cpu_frac", "frac"),
    ("sweep.write_mb", "MB"),
    ("sweep.write_calls", "count"),
    ("sweep.retries", "count"),
    ("sweep.quarantined", "count"),
    ("shard.workers", "count"),
    ("shard.leases", "count"),
    ("shard.ranges", "count"),
    ("shard.reclaimed", "count"),
    ("shard.worker_start_ms", "ms"),
    ("shard.cpu_frac", "frac"),
    ("served.admit_ms", "ms"),
    ("served.exec_ms", "ms"),
    ("served.wait_ms", "ms"),
    ("served.queue_pos_max", "count"),
    ("served.rejects", "count"),
    ("served.daemon_cpu_s", "s"),
    ("served.busy_frac", "frac"),
    ("served.daemon_write_mb", "MB"),
    ("served.service_journal_kb", "KB"),
    ("lat.samples", "count"),
    ("lat.p90_ms", "ms"),
    ("gen.lag_p90_ms", "ms"),
    ("host.steal_frac", "frac"),
    ("host.nproc", "count"),
    ("host.load1", "load"),
    ("trace.overhead_frac", "frac"),
];

/// Every per-layer metric name with its unit, per-experiment ones included.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &str)> = PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    let at = v
        .iter()
        .position(|(n, _)| n == "sim.build_us")
        .expect("listed")
        + 1;
    for (k, id) in paper::timed_ids().into_iter().enumerate() {
        v.insert(at + k, (format!("experiments.{id}_ms"), "ms"));
    }
    v
}

struct Args {
    ctx: Ctx,
    trace: bool,
    repeat: Option<usize>,
    print_digests: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 42,
        seconds: 35.0,
        small: false,
        corrupt: false,
    };
    let (mut trace, mut repeat) = (false, None);
    let mut print_digests = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{a} takes a value"));
        match a.as_str() {
            "--workload" => ctx.workload = val()?,
            "--seed" => ctx.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                ctx.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(ctx.seconds > 0.0 && ctx.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => repeat = Some(val()?.parse().map_err(|e| format!("--repeat: {e}"))?),
            "--small" => ctx.small = true,
            "--corrupt" => ctx.corrupt = true,
            "--print-digests" => print_digests = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(Args {
        ctx,
        trace,
        repeat,
        print_digests,
    })
}

/// Runs one phase of the workload in a fresh root under `tmp`, which is
/// deleted afterwards.
fn phase(ctx: &Ctx, tmp: &Path, name: &str, tracer: &Tracer) -> PhaseOut {
    let root = tmp.join(name);
    os::sync_disks();
    let t0 = std::time::Instant::now();
    let out = match ctx.workload.as_str() {
        "paper" => paper::run(ctx, &root, tracer),
        "sweep" => sweep::run(ctx, &root, tracer),
        "serve" | "serve-cold" => serve::run(ctx, &root, tracer),
        other => unreachable!("workload {other} validated by parse"),
    };
    let passes: Vec<String> = out.pass_samples.iter().map(|s| format!("{s:.2}")).collect();
    eprintln!(
        "perfbench: phase {name}: {:.1} s in all, timed work {:.1} s in {} repetitions ({} s)",
        t0.elapsed().as_secs_f64(),
        out.pass_samples.iter().sum::<f64>(),
        out.pass_samples.len(),
        passes.join(" ")
    );
    let _ = std::fs::remove_dir_all(&root);
    out
}

/// Table III rank correlations (TLP, big-core usage) against the paper,
/// from the build under test at the run's seed.
fn rho(seed: u64) -> (f64, f64) {
    use biglittle::experiments::appchar::{default_runs, spearman, PAPER_TABLE3};
    let runs = default_runs(seed, &biglittle::SweepOptions::serial());
    let (mut pt, mut mt, mut pb, mut mb) = (vec![], vec![], vec![], vec![]);
    for (app, r) in &runs {
        if let Some((_, _, big, tlp)) = PAPER_TABLE3.iter().find(|row| row.0 == app.name) {
            pt.push(*tlp);
            mt.push(r.tlp.tlp);
            pb.push(*big);
            mb.push(r.tlp.big_pct);
        }
    }
    (spearman(&pt, &mt), spearman(&pb, &mb))
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn run(args: &Args, tmp: &Path) -> Outcome {
    let ctx = &args.ctx;
    let (steal0, total0) = os::cpu_jiffies();
    let load1 = os::load1();
    let a = phase(ctx, tmp, "a", &Tracer::new(false));
    let mut phases = vec![&a];
    let mut metrics = Metrics::default();
    let (b, c);
    if args.trace {
        let tracer = Tracer::new(true);
        b = phase(ctx, tmp, "b", &tracer);
        phases.push(&b);
        let mut layers = b.layers.clone();
        if let Some((_, guest, share, names)) = BORROWED.iter().find(|b| b.0 == ctx.workload) {
            let guest = Ctx {
                workload: guest.to_string(),
                seconds: ctx.seconds * share,
                ..ctx.clone()
            };
            c = phase(&guest, tmp, "c", &tracer);
            phases.push(&c);
            for (name, value, _) in &c.layers.0 {
                if names
                    .iter()
                    .any(|n| n == name || (n.ends_with('.') && name.starts_with(n)))
                {
                    layers.set(name, *value, "");
                }
            }
        }
        let path = report::state_dir()
            .join("traces")
            .join(format!("{}.trace.jsonl", ctx.workload));
        match tracer.write(&path) {
            Ok(n) => eprintln!("perfbench: wrote {n} spans to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write trace {}: {e}", path.display()),
        }
        for (name, unit) in per_layer() {
            metrics.set(&name, layers.get(&name).unwrap_or(0.0), unit);
        }
        metrics.set("lat.samples", b.samples() as f64, "count");
        metrics.set("lat.p90_ms", stats::percentile(&b.best_ms(), 90.0), "ms");
        metrics.set(
            "trace.overhead_frac",
            b.pass_s / a.pass_s.max(1e-9) - 1.0,
            "frac",
        );
    } else {
        let (tlp, big) = rho(check::input_seed(ctx.seed));
        let values = [
            a.setup_s,
            a.pass_s,
            stats::median(&a.best_ms()),
            a.peak_rss_mb,
            tlp,
            big,
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.set(name, v, unit);
        }
        eprintln!(
            "perfbench: {} operations, {} latency samples, {} repetitions",
            a.best_ms().len(),
            a.samples(),
            a.pass_samples.len()
        );
    }
    let (steal1, total1) = os::cpu_jiffies();
    let steal = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    if args.trace {
        metrics.set("host.steal_frac", steal, "frac");
        metrics.set("host.nproc", os::nproc() as f64, "count");
        metrics.set("host.load1", load1, "load");
    }
    eprintln!(
        "perfbench noise: {{\"steal_frac\":{steal:.5},\"nproc\":{},\"load1\":{load1}}}",
        os::nproc()
    );
    let mut correct = true;
    for p in &phases {
        for problem in &p.problems {
            eprintln!("perfbench check: {problem}");
        }
        correct &= p.problems.is_empty() && p.failed == 0;
    }
    Outcome {
        correct,
        attempted: phases.iter().map(|p| p.attempted).sum::<u64>().max(1),
        failed: phases.iter().map(|p| p.failed).sum(),
        metrics,
    }
}

fn result_json(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::Float(*value)),
                    ("unit".into(), Value::String(unit.clone())),
                ]),
            )
        })
        .collect();
    serde_json::to_string(&Value::Object(vec![
        ("correct".into(), Value::Bool(o.correct)),
        ("attempted".into(), Value::UInt(o.attempted)),
        ("failed".into(), Value::UInt(o.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]))
    .expect("result serializes")
}

/// Deletes temp roots left by benchmark processes that no longer exist.
fn clean_stale_roots(tmp_parent: &Path) {
    let Ok(entries) = std::fs::read_dir(tmp_parent) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().to_string();
        let pid = name.split('-').next().unwrap_or("");
        if !Path::new("/proc").join(pid).exists() {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
}

/// `--repeat N`: runs the workload N times with seeds `seed..seed+N` and
/// prints each metric's median, quartiles and spread (IQR / median).
fn repeat(args: &Args, n: usize) -> i32 {
    let exe = std::env::current_exe().expect("current_exe");
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut all_correct = true;
    for k in 0..n as u64 {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", &args.ctx.workload])
            .args(["--seed", &(args.ctx.seed + k).to_string()])
            .args(["--seconds", &args.ctx.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.ctx.small {
            cmd.arg("--small");
        }
        let out = cmd.output().expect("run benchmark child");
        let text = String::from_utf8_lossy(&out.stdout);
        let Some(v) = text
            .lines()
            .last()
            .and_then(|l| serde_json::from_str::<Value>(l).ok())
        else {
            eprintln!("repeat: run {k} printed no result");
            return 1;
        };
        all_correct &= matches!(v.get("correct"), Some(Value::Bool(true)));
        for (name, m) in v.get("metrics").and_then(Value::as_object).unwrap_or(&[]) {
            let x = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            match values.iter_mut().find(|(n, _, _)| n == name) {
                Some(slot) => slot.2.push(x),
                None => values.push((name.clone(), unit, vec![x])),
            }
        }
        let noise = String::from_utf8_lossy(&out.stderr)
            .lines()
            .find_map(|l| l.strip_prefix("perfbench noise: ").map(str::to_string))
            .unwrap_or_default();
        eprintln!("repeat: run {}/{n} done {noise}", k + 1);
    }
    println!(
        "{:<34} {:>7} {:>12} {:>12} {:>12} {:>8}",
        "metric", "unit", "median", "q1", "q3", "spread"
    );
    let mut summary = Vec::new();
    for (name, unit, v) in &values {
        let med = stats::median(v);
        let (q1, q3) = stats::quartiles(v);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!("{name:<34} {unit:>7} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4}");
        summary.push((
            name.clone(),
            Value::Object(vec![
                ("median".into(), Value::Float(med)),
                ("q1".into(), Value::Float(q1)),
                ("q3".into(), Value::Float(q3)),
                ("spread".into(), Value::Float(spread)),
                (
                    "values".into(),
                    Value::Array(v.iter().map(|x| Value::Float(*x)).collect()),
                ),
            ]),
        ));
    }
    println!(
        "{}",
        serde_json::to_string(&Value::Object(vec![
            ("runs".into(), Value::UInt(n as u64)),
            ("all_correct".into(), Value::Bool(all_correct)),
            ("metrics".into(), Value::Object(summary)),
        ]))
        .expect("summary serializes")
    );
    i32::from(!all_correct)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Child-process roles: a sharded sweep's worker (the traced `paper`
    // run's sharded pass), or the serve daemon.
    if argv.first().is_some_and(|a| a == "--worker") {
        paper::log_worker_entry();
        std::process::exit(biglittle::sweep::shard::worker_main(&argv));
    }
    if argv.first().is_some_and(|a| a == "--daemon") {
        std::process::exit(serve::daemon_main(&argv[1..]));
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(n) = args.repeat {
        std::process::exit(repeat(&args, n));
    }
    if args.print_digests {
        let ctx = &args.ctx;
        let at = |seed| report::Ctx {
            seed,
            ..ctx.clone()
        };
        let scenarios = |b: Vec<inputs::Batch>| b.iter().map(inputs::Batch::scenarios).collect();
        match ctx.workload.as_str() {
            "sweep" => {
                check::print_reference_digests("sweep", |s| scenarios(sweep::batches(&at(s))))
            }
            "serve" | "serve-cold" => {
                check::print_reference_digests(&ctx.workload, |s| scenarios(serve::plan(&at(s))))
            }
            _ => paper::print_digests(ctx),
        }
        return;
    }
    paper::register_launcher();

    let tmp_parent = report::state_dir().join("tmp");
    clean_stale_roots(&tmp_parent);
    let tmp = tmp_parent.join(format!("{}-{}", std::process::id(), os::epoch_ns()));
    let outcome = std::panic::catch_unwind(|| run(&args, &tmp));
    let orphans = os::reap_children();
    if orphans > 0 {
        eprintln!("perfbench: reaped {orphans} leftover child process(es)");
    }
    let _ = std::fs::remove_dir_all(&tmp);
    os::sync_disks();
    match outcome {
        Ok(o) => {
            for (name, value, unit) in &o.metrics.0 {
                eprintln!("{name:<34} {value:>14.4} {unit}");
            }
            println!("{}", result_json(&o));
            std::process::exit(if o.correct { 0 } else { 1 });
        }
        Err(_) => {
            eprintln!("perfbench: the run failed; no result");
            std::process::exit(2);
        }
    }
}
