//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! repro                     # run everything at paper scale
//! repro --exp table3        # one experiment
//! repro --fast              # shortened runs (CI smoke)
//! repro --seed 7            # different stochastic draws
//! repro --jobs 4            # sweep parallelism (0 or omitted = all cores)
//! repro --no-cache          # bypass the on-disk result cache
//! repro --cache-clear       # drop the cache before running
//! repro --deadline-ms 60000 # per-scenario wall-clock budget
//! repro --max-events 50000000 # per-scenario simulated-event budget
//! repro --retries 2         # retry failed scenarios with a reseed
//! repro --audit             # runtime invariant auditor on every scenario
//! repro --resume            # replay completed scenarios from the journal
//! repro --no-journal        # disable the sweep journal
//! repro --workers 4         # shard the batch across 4 worker processes
//! repro --lease-ms 10000    # lease TTL before a silent worker is reclaimed
//! repro --heartbeat-ms 1000 # worker heartbeat cadence
//! repro --demo-sweep f.json # deterministic journaled batch (kill/resume demo)
//! repro --list              # experiment ids
//! ```
//!
//! Service mode (see `DESIGN.md` §3.7):
//!
//! ```sh
//! repro serve --socket s.sock   # crash-only daemon serving scenario batches
//! repro submit --socket s.sock --demo out.json # submit a batch, stream results
//! repro submit --socket s.sock --status        # one-line daemon status
//! repro submit --socket s.sock --drain         # graceful drain
//! ```
//!
//! A bad flag or flag value is a usage error: one line on stderr, exit 2.
//! `repro --worker ...` is the internal worker mode sharded sweeps spawn;
//! it is not meant to be invoked by hand.

use std::slice::Iter;
use std::str::FromStr;
use std::time::{Duration, Instant};

use biglittle::{sweep, SweepOptions};
use bl_bench::{run_experiment_json_with, run_experiment_with, EXPERIMENTS, SEED};
use serde::Value;

/// Default cache location, relative to the working directory.
const CACHE_DIR: &str = biglittle::sweep::DEFAULT_CACHE_DIR;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Worker mode: sharded sweeps re-spawn this binary with `--worker` as
    // the first argument. Dispatch before normal flag parsing — worker
    // flags are a separate, stricter grammar.
    if args.first().is_some_and(|a| a == "--worker") {
        std::process::exit(sweep::shard::worker_main(&args));
    }
    // Service mode: `repro serve` runs the crash-only daemon, `repro
    // submit` the reconnecting client. Both are their own flag grammars.
    if args.first().is_some_and(|a| a == "serve") {
        std::process::exit(serve_cli(&args[1..]));
    }
    if args.first().is_some_and(|a| a == "submit") {
        std::process::exit(submit_cli(&args[1..]));
    }
    // Teach the sharding layer how to spawn workers: re-exec ourselves.
    sweep::shard::set_worker_launcher(|spec| {
        let exe = std::env::current_exe().expect("current_exe for worker spawn");
        let mut cmd = std::process::Command::new(exe);
        cmd.args(sweep::shard::worker_cli_args(spec));
        cmd
    });

    let mut exp: Option<String> = None;
    let mut seed = SEED;
    let mut fast = false;
    let mut json = false;
    let mut out_dir: Option<String> = None;
    let mut jobs: usize = 0; // 0 = all available cores
    let mut cache = true;
    let mut cache_clear = false;
    let mut journal = true;
    let mut deadline_ms: Option<u64> = None;
    let mut max_events: Option<u64> = None;
    let mut audit = false;
    let mut retries: u32 = 0;
    let mut resume = false;
    let mut workers: usize = 0;
    let mut lease_ms: Option<u64> = None;
    let mut heartbeat_ms: Option<u64> = None;
    let mut demo_sweep: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--exp" => exp = Some(value(&mut it, a)),
            "--seed" => seed = value(&mut it, a),
            "--fast" => fast = true,
            "--json" => json = true,
            "--out" => out_dir = Some(value(&mut it, a)),
            "--jobs" => jobs = value(&mut it, a),
            "--no-cache" => cache = false,
            "--no-journal" => journal = false,
            "--cache-clear" => cache_clear = true,
            "--deadline-ms" => deadline_ms = Some(value(&mut it, a)),
            "--max-events" => max_events = Some(value(&mut it, a)),
            "--retries" => retries = value(&mut it, a),
            "--audit" => audit = true,
            "--resume" => resume = true,
            "--workers" => workers = value(&mut it, a),
            "--lease-ms" => lease_ms = Some(value(&mut it, a)),
            "--heartbeat-ms" => heartbeat_ms = Some(value(&mut it, a)),
            "--demo-sweep" => demo_sweep = Some(value(&mut it, a)),
            "--list" => {
                for e in EXPERIMENTS {
                    println!("{e}");
                }
                return;
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--exp <id>] [--seed <n>] [--fast] [--json] [--out <dir>]\n\
                     \x20            [--jobs <n>] [--no-cache] [--cache-clear] [--no-journal]\n\
                     \x20            [--deadline-ms <n>] [--max-events <n>] [--retries <n>]\n\
                     \x20            [--audit] [--resume]\n\
                     \x20            [--workers <n>] [--lease-ms <n>] [--heartbeat-ms <n>]\n\
                     \x20            [--demo-sweep <file>] [--list]\n\
                     \x20     repro serve --socket <path> [--serve-dir <dir>] ...\n\
                     \x20     repro submit --socket <path> (--demo <out>|--status|--drain) ...\n\
                     ids: {}",
                    EXPERIMENTS.join(", ")
                );
                return;
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if let Some(id) = &exp {
        if !EXPERIMENTS.contains(&id.as_str()) {
            usage(&format!("unknown experiment {id:?}"));
        }
    }
    // Worker processes hand their results back through the journal.
    if workers > 1 && !journal {
        usage(&format!(
            "--workers {workers} needs the sweep journal: drop --no-journal"
        ));
    }

    if cache_clear && std::fs::remove_dir_all(CACHE_DIR).is_ok() {
        eprintln!("cleared {CACHE_DIR}");
    }

    let opts = {
        let mut o = SweepOptions::with_jobs(jobs)
            .with_retries(retries)
            .audited(audit);
        if let Some(ms) = deadline_ms {
            o = o.with_deadline(Duration::from_millis(ms));
        }
        if let Some(n) = max_events {
            o = o.with_event_cap(n);
        }
        if cache {
            o = o.cached(CACHE_DIR);
        }
        if journal {
            o = o.journaled(sweep::DEFAULT_JOURNAL_DIR).resuming(resume);
        }
        if workers > 0 {
            o = o.sharded(workers);
        }
        if let Some(ms) = lease_ms {
            o = o.with_lease(Duration::from_millis(ms));
        }
        if let Some(ms) = heartbeat_ms {
            o = o.with_heartbeat(Duration::from_millis(ms));
        }
        o
    };

    if let Some(path) = demo_sweep {
        run_demo_sweep(&path, seed, &opts);
        return;
    }

    let render = |id: &str| -> String {
        if json {
            let _ = sweep::take_stats(); // drop stats from previous experiments
            let t0 = Instant::now();
            let data = run_experiment_json_with(id, seed, fast, &opts);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let stats = sweep::take_stats();
            let mut fields = vec![
                ("experiment".into(), Value::String(id.to_string())),
                ("wall_ms".into(), Value::Float(wall_ms)),
                ("scenarios".into(), Value::UInt(stats.scenarios)),
                ("cache_hits".into(), Value::UInt(stats.cache_hits)),
                ("resumed".into(), Value::UInt(stats.resumed)),
                ("retries".into(), Value::UInt(stats.retries)),
                ("quarantined".into(), Value::UInt(stats.quarantined)),
                ("events".into(), Value::UInt(stats.events)),
                (
                    "events_per_sec".into(),
                    Value::Float(if wall_ms > 0.0 {
                        stats.events as f64 / (wall_ms / 1e3)
                    } else {
                        0.0
                    }),
                ),
                ("degraded".into(), Value::Bool(stats.degraded)),
                (
                    "snapshot".into(),
                    serde_json::to_value(stats.snapshot).expect("snapshot stats serialize"),
                ),
                (
                    "per_scenario".into(),
                    serde_json::to_value(&stats.per_scenario).expect("stats serialize"),
                ),
            ];
            if let Some(shard) = &stats.shard {
                fields.push((
                    "shard".into(),
                    serde_json::to_value(shard).expect("shard stats serialize"),
                ));
            }
            fields.push(("data".into(), data));
            serde_json::to_string_pretty(&Value::Object(fields)).expect("results serialize")
        } else {
            run_experiment_with(id, seed, fast, &opts)
        }
    };
    let emit = |id: &str, body: String| match &out_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).expect("create --out directory");
            let ext = if json { "json" } else { "txt" };
            let path = format!("{dir}/{id}.{ext}");
            std::fs::write(&path, body).expect("write result file");
            eprintln!("wrote {path}");
        }
        None => println!("{body}\n"),
    };

    match exp {
        Some(id) => emit(&id, render(&id)),
        None => {
            for id in EXPERIMENTS {
                eprintln!(">>> running {id} ...");
                emit(id, render(id));
            }
        }
    }
}

/// Builds the deterministic demo batch: microbench duty steps seeded
/// positionally from `seed`.
fn demo_batch(seed: u64) -> Vec<biglittle::Scenario> {
    use biglittle::{Scenario, SystemConfig};
    use bl_platform::ids::CpuId;
    use bl_simcore::time::SimDuration;

    let mut scenarios: Vec<Scenario> = (0..6u64)
        .map(|i| {
            Scenario::microbench(
                format!("demo-{i}"),
                CpuId((i % 4) as usize),
                0.15 + 0.1 * i as f64,
                SimDuration::from_millis(10),
                // Long enough that a whole batch takes visible wall time,
                // so the kill-and-resume test can interrupt it mid-flight.
                SimDuration::from_secs(60),
                SystemConfig::baseline(),
            )
        })
        .collect();
    sweep::seed_scenarios(&mut scenarios, seed);
    scenarios
}

/// Runs a fixed, deterministic batch under the caller's sweep options and
/// writes only reproducible content (results, quarantine state) to `path`
/// — so an interrupted run finished with `--resume` produces a
/// byte-identical file to an uninterrupted one. The kill-and-resume
/// integration test drives this mode.
fn run_demo_sweep(path: &str, seed: u64, opts: &SweepOptions) {
    let scenarios = demo_batch(seed);
    let out = sweep::run_with(&scenarios, opts);
    eprintln!(
        "demo-sweep: {} scenarios, {} resumed, {} cache hits, degraded={}",
        out.stats.scenarios, out.stats.resumed, out.stats.cache_hits, out.stats.degraded
    );
    // Warm-snapshot traffic, stderr only for the same reason as the shard
    // block: hydrated/published counts depend on what earlier invocations
    // left in the store, the report file must not.
    let snap = &out.stats.snapshot;
    eprintln!(
        "demo-sweep snapshot: trunk_runs={} forks={} hydrated={} published={} \
         trunk_ms_saved={:.0}",
        snap.trunk_runs, snap.forks, snap.hydrated, snap.published, snap.trunk_ms_saved
    );
    // Fleet diagnostics go to stderr only: the report file below must stay
    // byte-identical across worker counts and chaos, counters do not.
    if let Some(shard) = &out.stats.shard {
        eprintln!(
            "demo-sweep shard: workers={} ranges={} leases={} reclaimed_expired={} \
             reclaimed_dead={} re-leased={} quarantined_ranges={} workers_lost={}",
            shard.workers,
            shard.ranges,
            shard.leases_granted,
            shard.reclaimed_expired,
            shard.reclaimed_dead,
            shard.releases,
            shard.ranges_quarantined,
            shard.workers_lost,
        );
    }
    let results: Vec<Value> = out
        .results
        .iter()
        .map(|r| match r {
            Ok(res) => serde_json::to_value(res).expect("result serializes"),
            Err(e) => Value::Object(vec![("error".into(), Value::String(e.to_string()))]),
        })
        .collect();
    let body = demo_report_body(seed, out.degraded, out.quarantined.len() as u64, results);
    std::fs::write(path, body).expect("write demo-sweep file");
    eprintln!("wrote {path}");
}

/// Renders the demo-sweep report from already-serialized per-scenario
/// results. Shared by the in-process path ([`run_demo_sweep`]) and the
/// served path (`repro submit --demo`), so "submit to the daemon" and
/// "run one-shot" write byte-identical files — the serve layer's
/// bit-identity gate compares exactly these bytes.
fn demo_report_body(seed: u64, degraded: bool, quarantined: u64, results: Vec<Value>) -> String {
    let report = Value::Object(vec![
        ("suite".into(), Value::String("demo-sweep".into())),
        ("seed".into(), Value::UInt(seed)),
        ("degraded".into(), Value::Bool(degraded)),
        ("quarantined".into(), Value::UInt(quarantined)),
        ("results".into(), Value::Array(results)),
    ]);
    serde_json::to_string_pretty(&report).expect("report serializes") + "\n"
}

/// `repro serve`: parse the daemon's flag grammar and run it until
/// drained. See `DESIGN.md` §3.7 for the protocol and lifecycle rules.
fn serve_cli(args: &[String]) -> i32 {
    use bl_served::{serve, ServeConfig};

    let mut cfg = ServeConfig::default();
    let mut snap = true;
    let mut socket_set = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => {
                cfg.socket = value(&mut it, a);
                socket_set = true;
            }
            "--serve-dir" => cfg.serve_dir = value(&mut it, a),
            "--jobs" => cfg.jobs = value(&mut it, a),
            "--max-queued" => cfg.limits.max_queued = value(&mut it, a),
            "--max-pending" => cfg.limits.max_pending_scenarios = value(&mut it, a),
            "--max-active" => cfg.limits.max_active = value(&mut it, a),
            "--heartbeat-ms" => cfg.heartbeat = Duration::from_millis(value(&mut it, a)),
            "--wedge-timeout-ms" => cfg.wedge_timeout = Duration::from_millis(value(&mut it, a)),
            "--stall-timeout-ms" => cfg.stall_timeout = Duration::from_millis(value(&mut it, a)),
            "--default-deadline-ms" => {
                cfg.default_deadline = Duration::from_millis(value(&mut it, a))
            }
            "--no-snap-store" => snap = false,
            "--snap-store-dir" => cfg.snap_dir = Some(value(&mut it, a)),
            other => {
                eprintln!("serve: unknown flag {other:?}");
                return 2;
            }
        }
    }
    if !socket_set {
        eprintln!("serve: --socket <path> is required");
        return 2;
    }
    if !snap {
        cfg.snap_dir = None;
    }
    match serve(cfg) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("serve: {e}");
            1
        }
    }
}

/// `repro submit`: the reconnecting client. `--demo <out>` submits the
/// deterministic demo batch and writes the same report `--demo-sweep`
/// writes (byte-identical by construction); `--batch <in> <out>` submits
/// scenarios read from a JSON file; `--status`/`--ping`/`--drain` are
/// one-line control operations.
fn submit_cli(args: &[String]) -> i32 {
    use bl_served::{control, submit, SubmitConfig};

    let mut cfg = SubmitConfig::default();
    let mut seed = SEED;
    let mut demo_out: Option<String> = None;
    let mut batch_io: Option<(String, String)> = None;
    let mut op: Option<&str> = None;
    let mut socket_set = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => {
                cfg.socket = value(&mut it, a);
                socket_set = true;
            }
            "--client" => cfg.client = value(&mut it, a),
            "--seed" => seed = value(&mut it, a),
            "--reconnects" => cfg.reconnects = value(&mut it, a),
            "--backoff-ms" => cfg.backoff = Duration::from_millis(value(&mut it, a)),
            "--retries" => cfg.options.retries = value(&mut it, a),
            "--deadline-ms" => cfg.options.deadline_ms = Some(value(&mut it, a)),
            "--max-events" => cfg.options.max_events = Some(value(&mut it, a)),
            "--audit" => cfg.options.audit = true,
            "--quiet" => cfg.quiet = true,
            "--demo" => demo_out = Some(value(&mut it, a)),
            "--batch" => batch_io = Some((value(&mut it, a), value(&mut it, a))),
            "--status" => op = Some("status"),
            "--ping" => op = Some("ping"),
            "--drain" => op = Some("drain"),
            other => {
                eprintln!("submit: unknown flag {other:?}");
                return 2;
            }
        }
    }
    if !socket_set {
        eprintln!("submit: --socket <path> is required");
        return 2;
    }
    if let Some(op) = op {
        return match control(&cfg.socket, op) {
            Ok(line) => {
                println!("{line}");
                0
            }
            Err(e) => {
                eprintln!("submit: {op} failed: {e}");
                1
            }
        };
    }
    let (scenarios, out_path, is_demo) = if let Some(out) = demo_out {
        let values: Vec<Value> = demo_batch(seed)
            .iter()
            .map(|sc| serde_json::to_value(sc).expect("scenario serializes"))
            .collect();
        (values, out, true)
    } else if let Some((input, output)) = batch_io {
        (read_batch(&input), output, false)
    } else {
        eprintln!("submit: one of --demo <out>, --batch <in> <out>, --status, --ping, --drain");
        return 2;
    };

    match submit(&cfg, &scenarios) {
        Ok(report) => {
            // The hydrated/published counts ride in the streamed per-batch
            // stats; surface them like the one-shot CLI does — stderr only,
            // so the report file stays byte-stable.
            let stat = |k: &str| report.stats.get(k).and_then(Value::as_u64).unwrap_or(0);
            eprintln!(
                "submit: run {} done — {} scenarios, {} resumed, {} hydrated, {} published, \
                 {} reconnect(s), {} heartbeat(s), {} checkpoint(s), {} rejection(s)",
                report.run,
                stat("scenarios"),
                stat("resumed"),
                stat("hydrated"),
                stat("published"),
                report.reconnects,
                report.heartbeats,
                report.checkpoints,
                report.rejections,
            );
            let results: Vec<Value> = report
                .results
                .iter()
                .map(|r| match r {
                    Ok(v) => v.clone(),
                    Err(e) => Value::Object(vec![("error".into(), Value::String(e.clone()))]),
                })
                .collect();
            let body = if is_demo {
                demo_report_body(seed, report.degraded, report.quarantined, results)
            } else {
                let full = Value::Object(vec![
                    ("suite".into(), Value::String("submit".into())),
                    ("run".into(), Value::String(report.run.clone())),
                    ("degraded".into(), Value::Bool(report.degraded)),
                    ("quarantined".into(), Value::UInt(report.quarantined)),
                    ("stats".into(), report.stats.clone()),
                    ("results".into(), Value::Array(results)),
                ]);
                serde_json::to_string_pretty(&full).expect("report serializes") + "\n"
            };
            std::fs::write(&out_path, body).expect("write submit report");
            eprintln!("wrote {out_path}");
            0
        }
        Err(e) => {
            eprintln!("submit: {e}");
            1
        }
    }
}

/// The scenarios of a `--batch` input file: a JSON array of them, or an
/// object whose `"scenarios"` field is one. A file that cannot be read,
/// is not JSON or holds no such array is a usage error naming it.
fn read_batch(path: &str) -> Vec<Value> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("--batch: cannot read {path:?}: {e}")));
    let v: Value = serde_json::from_str(&text)
        .unwrap_or_else(|_| usage(&format!("--batch: {path:?} is not JSON")));
    match v.get("scenarios").unwrap_or(&v).as_array() {
        Some(scenarios) => scenarios.to_vec(),
        None => usage(&format!("--batch: {path:?} holds no scenario array")),
    }
}

/// The value after `flag`, parsed: a missing or malformed value is a
/// usage error, like an unknown flag.
fn value<T: FromStr>(it: &mut Iter<'_, String>, flag: &str) -> T {
    let Some(raw) = it.next() else {
        usage(&format!("{flag} takes a value"))
    };
    raw.parse()
        .unwrap_or_else(|_| usage(&format!("{flag}: invalid value {raw:?}")))
}

/// Reports a usage error on one line and exits 2.
fn usage(msg: &str) -> ! {
    eprintln!("{msg} (try --help)");
    std::process::exit(2)
}
