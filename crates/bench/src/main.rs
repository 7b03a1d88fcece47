//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! repro                     # run everything at paper scale
//! repro --exp table3        # one experiment
//! repro --fast              # shortened runs (CI smoke)
//! repro --seed 7            # different stochastic draws
//! repro --jobs 4            # sweep parallelism (0 or omitted = all cores)
//! repro --no-cache          # bypass the on-disk result cache
//! repro --cache-clear       # drop the cache (and snapshot store) before running
//! repro --no-snap-store     # disable the persistent warm-snapshot store
//! repro --snap-store-dir d  # persistent snapshot store location (default results/.snapshots)
//! repro --deadline-ms 60000 # per-scenario wall-clock budget
//! repro --max-events 50000000 # per-scenario simulated-event budget
//! repro --retries 2         # retry failed scenarios with a reseed
//! repro --audit             # runtime invariant auditor on every scenario
//! repro --resume            # replay completed scenarios from the journal
//! repro --no-journal        # disable the sweep journal
//! repro --workers 4         # shard the batch across 4 worker processes
//! repro --lease-ms 10000    # lease TTL before a silent worker is reclaimed
//! repro --heartbeat-ms 1000 # worker heartbeat cadence
//! repro --bench-sweep f.json # serial-vs-parallel wall-time comparison
//! repro --bench-hotloop f.json # ticked-vs-skip-ahead hot-loop microbench
//! repro --bench-snapshot f.json # cold-vs-forked prefix-sharing sweep bench
//! repro --demo-sweep f.json # deterministic journaled batch (kill/resume demo)
//! repro --smoke-supervision f.json # chaos batch: quarantine + self-heal smoke
//! repro --smoke-shard f.json # chaos fleet: kill a worker mid-batch, verify merge
//! repro --smoke-serve f.json # chaos service: kill the daemon mid-batch, flood it,
//!                            # starve it — assert degraded-not-dead + bit-identity
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
//! `repro --worker ...` is the internal worker mode sharded sweeps spawn;
//! it is not meant to be invoked by hand.

use std::path::Path;
use std::time::{Duration, Instant};

use biglittle::{sweep, SimOptions, SweepOptions};
use bl_bench::{run_experiment_json_with, run_experiment_with, EXPERIMENTS, SEED};
use bl_simcore::durable::STALE_AFTER;
use bl_simcore::snapstore::{clean_stale_snapshots, SnapStore};
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
    let mut snap_store = true;
    let mut snap_dir: String = sweep::DEFAULT_SNAP_DIR.to_string();
    // Execution knobs (budgets, auditing) funnel through the same
    // serializable bundle `SimulationBuilder::options` consumes, so the
    // CLI and programmatic front ends share one source of truth.
    let mut sim_opts = SimOptions::default();
    let mut retries: u32 = 0;
    let mut resume = false;
    let mut workers: usize = 0;
    let mut lease_ms: Option<u64> = None;
    let mut heartbeat_ms: Option<u64> = None;
    let mut bench_sweep: Option<String> = None;
    let mut bench_hotloop: Option<String> = None;
    let mut bench_snapshot: Option<String> = None;
    let mut demo_sweep: Option<String> = None;
    let mut smoke_supervision: Option<String> = None;
    let mut smoke_shard: Option<String> = None;
    let mut smoke_serve: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--exp" => exp = it.next().cloned(),
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed takes an integer")
            }
            "--fast" => fast = true,
            "--json" => json = true,
            "--out" => out_dir = it.next().cloned(),
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--jobs takes an integer (0 = all cores)")
            }
            "--no-cache" => cache = false,
            "--no-journal" => journal = false,
            // Deferred until after parsing so it also clears the snapshot
            // store at whatever directory `--snap-store-dir` names.
            "--cache-clear" => cache_clear = true,
            "--no-snap-store" => snap_store = false,
            "--snap-store-dir" => {
                snap_dir = it.next().cloned().expect("--snap-store-dir takes a path")
            }
            "--deadline-ms" => {
                sim_opts.deadline_ms = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--deadline-ms takes an integer (milliseconds)"),
                )
            }
            "--max-events" => {
                sim_opts.max_events = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--max-events takes an integer"),
                )
            }
            "--retries" => {
                retries = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--retries takes an integer")
            }
            "--audit" => sim_opts.audit = true,
            "--resume" => resume = true,
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--workers takes an integer (worker process count)")
            }
            "--lease-ms" => {
                lease_ms = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--lease-ms takes an integer (milliseconds)"),
                )
            }
            "--heartbeat-ms" => {
                heartbeat_ms = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--heartbeat-ms takes an integer (milliseconds)"),
                )
            }
            "--bench-sweep" => bench_sweep = it.next().cloned(),
            "--bench-hotloop" => bench_hotloop = it.next().cloned(),
            "--bench-snapshot" => bench_snapshot = it.next().cloned(),
            "--demo-sweep" => demo_sweep = it.next().cloned(),
            "--smoke-supervision" => smoke_supervision = it.next().cloned(),
            "--smoke-shard" => smoke_shard = it.next().cloned(),
            "--smoke-serve" => smoke_serve = it.next().cloned(),
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
                     \x20            [--no-snap-store] [--snap-store-dir <dir>]\n\
                     \x20            [--deadline-ms <n>] [--max-events <n>] [--retries <n>]\n\
                     \x20            [--audit] [--resume]\n\
                     \x20            [--workers <n>] [--lease-ms <n>] [--heartbeat-ms <n>]\n\
                     \x20            [--bench-sweep <file>] [--bench-hotloop <file>]\n\
                     \x20            [--bench-snapshot <file>] [--demo-sweep <file>]\n\
                     \x20            [--smoke-supervision <file>] [--smoke-shard <file>]\n\
                     \x20            [--smoke-serve <file>] [--list]\n\
                     \x20     repro serve --socket <path> [--serve-dir <dir>] ...\n\
                     \x20     repro submit --socket <path> (--demo <out>|--status|--drain) ...\n\
                     ids: {}",
                    EXPERIMENTS.join(", ")
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }

    if cache_clear {
        if std::fs::remove_dir_all(CACHE_DIR).is_ok() {
            eprintln!("cleared {CACHE_DIR}");
        }
        let removed = SnapStore::open(snap_dir.clone()).clear();
        if removed > 0 {
            eprintln!("cleared {removed} snapshot(s) from {snap_dir}");
        }
    }
    // Startup hygiene: debris of killed publishers — orphaned `.tmp`
    // files and unkeyed `.snap` files — ages out of the store directory,
    // mirroring the journal directory's stale-artifact sweep.
    if snap_store {
        let removed = clean_stale_snapshots(Path::new(&snap_dir), STALE_AFTER);
        if removed > 0 {
            eprintln!("snapshot hygiene: removed {removed} stale file(s) from {snap_dir}");
        }
    }

    let opts = {
        let mut o = SweepOptions::with_jobs(jobs)
            .with_retries(retries)
            .with_sim_options(&sim_opts);
        if cache {
            o = o.cached(CACHE_DIR);
        }
        if snap_store {
            o = o.snap_stored(snap_dir.clone());
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

    if let Some(path) = bench_sweep {
        run_bench_sweep(&path, seed);
        return;
    }
    if let Some(path) = bench_hotloop {
        run_bench_hotloop(&path, seed, fast);
        return;
    }
    if let Some(path) = bench_snapshot {
        run_bench_snapshot(&path, seed, fast);
        return;
    }
    if let Some(path) = demo_sweep {
        run_demo_sweep(&path, seed, &opts);
        return;
    }
    if let Some(path) = smoke_supervision {
        run_smoke_supervision(&path, seed, jobs);
        return;
    }
    if let Some(path) = smoke_shard {
        run_smoke_shard(&path, seed, jobs);
        return;
    }
    if let Some(path) = smoke_serve {
        run_smoke_serve(&path, seed, jobs);
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

/// Times the event hot loop with and without idle skip-ahead on four
/// scenario classes — an all-idle system, a user-paced idle-heavy
/// interactive app, the timer-fragmented Browser model and a TLP-heavy
/// game, plus a utilization duty sweep — verifies the two paths produce
/// bit-identical results, and writes a machine-readable record to `path`.
fn run_bench_hotloop(path: &str, seed: u64, fast: bool) {
    use biglittle::{RunResult, Simulation, SystemConfig};
    use bl_platform::ids::CpuId;
    use bl_simcore::time::{SimDuration, SimTime};
    use bl_workloads::apps::{app_by_name, AppKind, AppModel, ScriptedSpec};
    use bl_workloads::PerfMetric;

    /// The paper's §IV gap structure distilled: the user thinks for
    /// seconds between actions, each action is a short UI burst plus a
    /// couple of fan-out jobs, and nothing keeps a short-period timer
    /// armed through the gaps. The script is sized to span the whole
    /// measurement window so the ratio reflects interactive use, not an
    /// idle tail.
    fn interactive_idle_heavy(run_for: SimDuration) -> AppModel {
        let cycle_ms = 2_400.0; // ~2.1 s mean think + ~0.3 s busy work
        let n_actions = (run_for.as_millis_f64() / cycle_ms).ceil() as usize;
        AppModel {
            name: "interactive-idle-heavy".into(),
            metric: PerfMetric::Latency,
            run_for,
            kind: AppKind::Scripted(ScriptedSpec {
                n_actions,
                think_ms: (1_600.0, 2_600.0),
                burst_ms: 40.0,
                burst_sigma: 0.3,
                jobs_per_action: 2,
                job_ms: 60.0,
                job_sigma: 0.3,
                n_workers: 2,
                background: vec![],
                continuous: vec![],
            }),
        }
    }

    struct Case {
        name: &'static str,
        cfg: SystemConfig,
        run_for: SimDuration,
        spawn: Box<dyn Fn(&mut Simulation)>,
    }

    let secs = |full: u64, quick: u64| SimDuration::from_secs(if fast { quick } else { full });
    let interactive_run_for = secs(30, 2);
    let mut cases = vec![
        Case {
            name: "idle_system",
            cfg: SystemConfig::baseline().screen(false),
            run_for: secs(30, 2),
            spawn: Box::new(|_| {}),
        },
        Case {
            name: "interactive_idle_heavy",
            cfg: SystemConfig::baseline(),
            run_for: interactive_run_for,
            spawn: Box::new(move |sim| {
                let app = interactive_idle_heavy(interactive_run_for);
                sim.spawn_app(&app);
            }),
        },
        Case {
            name: "browser_idle_heavy",
            cfg: SystemConfig::baseline(),
            run_for: secs(30, 2),
            spawn: Box::new(|sim| {
                let app = app_by_name("Browser").expect("known app");
                sim.spawn_app(&app);
            }),
        },
        Case {
            name: "angry_bird_tlp_heavy",
            cfg: SystemConfig::baseline(),
            run_for: secs(10, 1),
            spawn: Box::new(|sim| {
                let app = app_by_name("Angry Bird").expect("known app");
                sim.spawn_app(&app);
            }),
        },
    ];
    for (name, duty) in [
        ("microbench_duty_20", 0.2f64),
        ("microbench_duty_50", 0.5),
        ("microbench_duty_80", 0.8),
    ] {
        cases.push(Case {
            name,
            cfg: SystemConfig::baseline().screen(false),
            run_for: secs(2, 1),
            spawn: Box::new(move |sim| {
                sim.spawn_microbench(CpuId(0), duty, SimDuration::from_millis(100));
            }),
        });
    }

    let mut records = Vec::new();
    let mut all_identical = true;
    for case in &cases {
        let run = |skip: bool| -> (RunResult, f64) {
            let cfg = case.cfg.clone().with_seed(seed).with_skip_ahead(skip);
            let mut sim = Simulation::try_new(cfg).expect("valid config");
            (case.spawn)(&mut sim);
            let t0 = Instant::now();
            sim.try_run_until(SimTime::ZERO + case.run_for)
                .expect("run completes");
            let wall_ns = t0.elapsed().as_nanos() as f64;
            (sim.finish(), wall_ns)
        };
        let (mut ticked_result, ticked_ns) = run(false);
        let (mut skip_result, skip_ns) = run(true);
        // `events_processed` is serialized but outside `PartialEq`
        // (DESIGN.md §3.5): skip-ahead elides idle ticks, so the two modes
        // legitimately count different events. Zeroed on both sides, the
        // byte comparison covers every observable and nothing else.
        ticked_result.events_processed = 0;
        skip_result.events_processed = 0;
        let identical = serde_json::to_string(&ticked_result).expect("serialize")
            == serde_json::to_string(&skip_result).expect("serialize");
        all_identical &= identical;
        let sim_ms = case.run_for.as_millis_f64();
        let speedup = ticked_ns / skip_ns;
        eprintln!(
            "{:<22} sim={:>6.0}ms ticked={:>8.0}ns/sim-ms skip={:>8.0}ns/sim-ms \
             speedup={:>5.1}x identical={}",
            case.name,
            sim_ms,
            ticked_ns / sim_ms,
            skip_ns / sim_ms,
            speedup,
            identical,
        );
        records.push(Value::Object(vec![
            ("scenario".into(), Value::String(case.name.into())),
            ("sim_ms".into(), Value::Float(sim_ms)),
            ("ticked_wall_ms".into(), Value::Float(ticked_ns / 1e6)),
            ("skip_wall_ms".into(), Value::Float(skip_ns / 1e6)),
            (
                "ticked_ns_per_sim_ms".into(),
                Value::Float(ticked_ns / sim_ms),
            ),
            ("skip_ns_per_sim_ms".into(), Value::Float(skip_ns / sim_ms)),
            ("speedup".into(), Value::Float(speedup)),
            ("bit_identical".into(), Value::Bool(identical)),
        ]));
    }

    let report = Value::Object(vec![
        ("suite".into(), Value::String("hot-loop skip-ahead".into())),
        ("seed".into(), Value::UInt(seed)),
        ("fast".into(), Value::Bool(fast)),
        (
            "host_parallelism".into(),
            Value::UInt(bl_simcore::pool::available_jobs() as u64),
        ),
        (
            "note".into(),
            Value::String(
                "single-threaded microbench; wall times move with the host, \
                 speedup and bit_identical should not. Regenerate with \
                 `repro --bench-hotloop <file>`."
                    .into(),
            ),
        ),
        ("cases".into(), Value::Array(records)),
    ]);
    let body = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, body + "\n").expect("write bench-hotloop file");
    eprintln!("wrote {path}");
    if !all_identical {
        eprintln!("ERROR: skip-ahead diverged from the ticked path");
        std::process::exit(1);
    }
}

/// Times a TLP-heavy sweep grid whose points differ only in late-bound
/// parameters — a governor swap and a fault onset applied after a shared
/// warm-up — twice: cold (`prefix_sharing(false)`, every point replays
/// its warm-up prefix) and shared (the prefix is simulated once per fork
/// group and each point forks the snapshot). Both runs are serial and
/// uncached so the ratio isolates prefix sharing. Verifies the two grids
/// are bit-identical point by point and writes a machine-readable record
/// to `path`; exits 1 on any divergence.
fn run_bench_snapshot(path: &str, seed: u64, fast: bool) {
    use biglittle::{LateBindings, Scenario, StopWhen, SystemConfig};
    use bl_governor::GovernorConfig;
    use bl_simcore::fault::{FaultKind, FaultPlan};
    use bl_simcore::time::{SimDuration, SimTime};
    use bl_workloads::apps::app_by_name;

    let warmup = if fast {
        SimDuration::from_millis(300)
    } else {
        SimDuration::from_secs(2)
    };
    let tail = if fast {
        SimDuration::from_millis(100)
    } else {
        SimDuration::from_millis(250)
    };
    let at_warmup = SimTime::ZERO + warmup;

    // Late-bound governor swaps: one entry per cluster (big, LITTLE).
    let governors: Vec<(&str, Option<Vec<GovernorConfig>>)> = vec![
        ("keep", None),
        (
            "performance",
            Some(vec![
                GovernorConfig::Performance,
                GovernorConfig::Performance,
            ]),
        ),
        (
            "powersave",
            Some(vec![GovernorConfig::Powersave, GovernorConfig::Powersave]),
        ),
    ];
    // Late-bound fault onsets, all at or after the warm-up point.
    let faults: Vec<(&str, FaultPlan)> = vec![
        ("none", FaultPlan::new()),
        (
            "spike",
            FaultPlan::new().with(
                at_warmup,
                FaultKind::ThermalSpike {
                    cluster: 0,
                    delta_c: 8.0,
                },
            ),
        ),
        (
            "outage",
            FaultPlan::new().with_outage(at_warmup, SimDuration::from_millis(50), &[1]),
        ),
        (
            "gov_stall",
            FaultPlan::new().with(
                at_warmup,
                FaultKind::GovernorStall {
                    cluster: 1,
                    missed_samples: 3,
                },
            ),
        ),
    ];
    let (n_gov, n_fault) = if fast { (2, 2) } else { (3, 4) };

    let app = app_by_name("Angry Bird").expect("known app");
    let mut scenarios: Vec<Scenario> = Vec::new();
    for (gname, govs) in &governors[..n_gov] {
        for (fname, plan) in &faults[..n_fault] {
            scenarios.push(
                Scenario::app(
                    format!("ab-{gname}-{fname}"),
                    app.clone(),
                    SystemConfig::baseline().with_seed(seed),
                )
                .with_stop(StopWhen::Deadline(warmup + tail))
                .with_warmup(warmup)
                .with_late(LateBindings {
                    governors: govs.clone(),
                    faults: plan.clone(),
                }),
            );
        }
    }
    let groups: usize = {
        let mut keys: Vec<String> = scenarios
            .iter()
            .filter_map(|sc| sweep::SnapshotSpec::of(sc).map(|spec| spec.key()))
            .collect();
        keys.sort();
        keys.dedup();
        keys.len()
    };

    let run = |share: bool| {
        let opts = SweepOptions::serial().prefix_sharing(share);
        let _ = sweep::take_stats();
        let t0 = Instant::now();
        let out = sweep::run_with(&scenarios, &opts);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        (out.results, sweep::take_stats(), wall_ms)
    };
    let (cold, _, cold_ms) = run(false);
    let (shared, shared_stats, shared_ms) = run(true);

    let mut records = Vec::new();
    let mut all_identical = true;
    for (i, sc) in scenarios.iter().enumerate() {
        let identical = match (&cold[i], &shared[i]) {
            (Ok(a), Ok(b)) => {
                serde_json::to_string(a).expect("serialize")
                    == serde_json::to_string(b).expect("serialize")
            }
            _ => false,
        };
        all_identical &= identical;
        let forked = shared_stats.per_scenario.get(i).is_some_and(|s| s.forked);
        records.push(Value::Object(vec![
            ("scenario".into(), Value::String(sc.label.clone())),
            ("bit_identical".into(), Value::Bool(identical)),
            ("forked".into(), Value::Bool(forked)),
        ]));
    }
    let speedup = cold_ms / shared_ms;
    eprintln!(
        "bench-snapshot: {} points in {groups} fork group(s), {} forked \
         cold={cold_ms:.0}ms shared={shared_ms:.0}ms speedup={speedup:.1}x identical={all_identical}",
        scenarios.len(),
        shared_stats.forked,
    );

    // ---- Nested ladder: a grid varying warm-up *length*, so snapshot
    // keys form a prefix tree rather than one flat fork group. The
    // deepest member's checkpoint chain covers every rung, so the planner
    // simulates the trunk once and forks all points — shallow rungs
    // included — from its per-level snapshots.
    let ladder_ms: &[u64] = if fast {
        &[250, 400]
    } else {
        &[800, 1600, 2400]
    };
    let make_ladder = |ms: &[u64]| -> Vec<Scenario> {
        let mut ladder = Vec::new();
        for (level, &wu_ms) in ms.iter().enumerate() {
            for (gname, govs) in &governors[..2] {
                let wu = SimDuration::from_millis(wu_ms);
                ladder.push(
                    Scenario::app(
                        format!("ab-ladder-l{level}-{gname}"),
                        app.clone(),
                        SystemConfig::baseline().with_seed(seed),
                    )
                    .with_stop(StopWhen::Deadline(wu + tail))
                    .with_warmup(wu)
                    .with_warmup_via(
                        ms[..level]
                            .iter()
                            .map(|&ms| SimDuration::from_millis(ms))
                            .collect(),
                    )
                    .with_late(LateBindings {
                        governors: govs.clone(),
                        faults: FaultPlan::new(),
                    }),
                );
            }
        }
        ladder
    };
    let ladder = make_ladder(ladder_ms);
    let run_ladder = |scs: &[Scenario], share: bool| {
        let opts = SweepOptions::serial().prefix_sharing(share);
        let _ = sweep::take_stats();
        let t0 = Instant::now();
        let out = sweep::run_with(scs, &opts);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        (out.results, sweep::take_stats(), wall_ms)
    };
    let (ncold, _, ncold_ms) = run_ladder(&ladder, false);
    let (nshared, nstats, nshared_ms) = run_ladder(&ladder, true);
    let mut nested_identical = true;
    let mut nested_detail = Vec::new();
    for (i, sc) in ladder.iter().enumerate() {
        let identical = match (&ncold[i], &nshared[i]) {
            (Ok(a), Ok(b)) => {
                serde_json::to_string(a).expect("serialize")
                    == serde_json::to_string(b).expect("serialize")
            }
            _ => false,
        };
        nested_identical &= identical;
        let forked = nstats.per_scenario.get(i).is_some_and(|s| s.forked);
        nested_detail.push(Value::Object(vec![
            ("scenario".into(), Value::String(sc.label.clone())),
            (
                "chain_len".into(),
                Value::UInt(sc.chain_points().len() as u64),
            ),
            ("bit_identical".into(), Value::Bool(identical)),
            ("forked".into(), Value::Bool(forked)),
        ]));
    }
    all_identical &= nested_identical;
    // Distinct prefix depths that actually forked from the trunk chain.
    let levels_forked: usize = {
        let mut lens: Vec<usize> = ladder
            .iter()
            .enumerate()
            .filter(|(i, _)| nstats.per_scenario.get(*i).is_some_and(|s| s.forked))
            .map(|(_, sc)| sc.chain_points().len())
            .collect();
        lens.sort_unstable();
        lens.dedup();
        lens.len()
    };
    let nspeed = ncold_ms / nshared_ms;
    eprintln!(
        "bench-snapshot nested: {} points over {} ladder rungs, {} forked at \
         {levels_forked} level(s) cold={ncold_ms:.0}ms shared={nshared_ms:.0}ms \
         speedup={nspeed:.1}x identical={nested_identical}",
        ladder.len(),
        ladder_ms.len(),
        nstats.forked,
    );
    // ---- Persistent store: the same ladder shape with 10× deeper
    // warm-ups (persistence earns its keep when trunks are expensive)
    // against an on-disk snapshot store in a fresh temp directory. The
    // first run simulates the trunk once and publishes every rung; the
    // second run hydrates all rungs from disk and simulates no trunk at
    // all. Hydration must beat the cold replay *and* the same-process
    // trunk re-simulation while staying byte-identical to the cold
    // reference.
    let persist_ms: Vec<u64> = ladder_ms.iter().map(|&ms| ms * 10).collect();
    let pladder = make_ladder(&persist_ms);
    let (pcold, _, pcold_ms) = run_ladder(&pladder, false);
    let (_, _, preplay_ms) = run_ladder(&pladder, true);
    let store_dir = std::env::temp_dir().join(format!("bl-bench-snapstore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let run_persist = || {
        let opts = SweepOptions::serial().snap_stored(store_dir.clone());
        let _ = sweep::take_stats();
        let t0 = Instant::now();
        let out = sweep::run_with(&pladder, &opts);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        (out.results, sweep::take_stats(), wall_ms)
    };
    let (pres, pstats, publish_ms) = run_persist();
    let (hres, hstats, hydrate_ms) = run_persist();
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut persist_identical = true;
    for i in 0..pladder.len() {
        let cold_body = match &pcold[i] {
            Ok(a) => serde_json::to_string(a).expect("serialize"),
            Err(_) => {
                persist_identical = false;
                continue;
            }
        };
        for r in [&pres[i], &hres[i]] {
            match r {
                Ok(b) => {
                    persist_identical &= cold_body == serde_json::to_string(b).expect("serialize");
                }
                Err(_) => persist_identical = false,
            }
        }
    }
    all_identical &= persist_identical;
    let vs_cold = pcold_ms / hydrate_ms;
    let vs_replay = preplay_ms / hydrate_ms;
    eprintln!(
        "bench-snapshot persist: publish={publish_ms:.0}ms ({} rungs published) \
         hydrate={hydrate_ms:.0}ms ({} rungs hydrated, {} trunk runs) \
         vs_cold={vs_cold:.1}x vs_replay={vs_replay:.1}x identical={persist_identical}",
        pstats.snapshot.published, hstats.snapshot.hydrated, hstats.snapshot.trunk_runs,
    );
    let persist = Value::Object(vec![
        ("points".into(), Value::UInt(pladder.len() as u64)),
        ("rungs".into(), Value::UInt(persist_ms.len() as u64)),
        (
            "ladder_ms".into(),
            Value::Array(persist_ms.iter().map(|&ms| Value::UInt(ms)).collect()),
        ),
        ("publish_ms".into(), Value::Float(publish_ms)),
        ("published".into(), Value::UInt(pstats.snapshot.published)),
        (
            "trunk_runs_publish".into(),
            Value::UInt(pstats.snapshot.trunk_runs),
        ),
        ("hydrate_ms".into(), Value::Float(hydrate_ms)),
        ("hydrated".into(), Value::UInt(hstats.snapshot.hydrated)),
        (
            "trunk_runs_hydrate".into(),
            Value::UInt(hstats.snapshot.trunk_runs),
        ),
        (
            "trunk_ms_saved".into(),
            Value::Float(hstats.snapshot.trunk_ms_saved),
        ),
        ("cold_ms".into(), Value::Float(pcold_ms)),
        ("replay_ms".into(), Value::Float(preplay_ms)),
        ("speedup_vs_cold".into(), Value::Float(vs_cold)),
        ("speedup_vs_replay".into(), Value::Float(vs_replay)),
        ("bit_identical".into(), Value::Bool(persist_identical)),
    ]);

    let nested = Value::Object(vec![
        ("points".into(), Value::UInt(ladder.len() as u64)),
        (
            "ladder_ms".into(),
            Value::Array(ladder_ms.iter().map(|&ms| Value::UInt(ms)).collect()),
        ),
        ("forked".into(), Value::UInt(nstats.forked)),
        ("levels_forked".into(), Value::UInt(levels_forked as u64)),
        ("cold_ms".into(), Value::Float(ncold_ms)),
        ("shared_ms".into(), Value::Float(nshared_ms)),
        ("speedup".into(), Value::Float(nspeed)),
        ("bit_identical".into(), Value::Bool(nested_identical)),
        ("points_detail".into(), Value::Array(nested_detail)),
    ]);

    let report = Value::Object(vec![
        (
            "suite".into(),
            Value::String("snapshot prefix-sharing".into()),
        ),
        ("seed".into(), Value::UInt(seed)),
        ("fast".into(), Value::Bool(fast)),
        ("points".into(), Value::UInt(scenarios.len() as u64)),
        ("groups".into(), Value::UInt(groups as u64)),
        ("forked".into(), Value::UInt(shared_stats.forked)),
        ("warmup_ms".into(), Value::Float(warmup.as_millis_f64())),
        ("tail_ms".into(), Value::Float(tail.as_millis_f64())),
        ("cold_ms".into(), Value::Float(cold_ms)),
        ("shared_ms".into(), Value::Float(shared_ms)),
        ("speedup".into(), Value::Float(speedup)),
        ("bit_identical".into(), Value::Bool(all_identical)),
        ("nested".into(), nested),
        ("persist".into(), persist),
        (
            "note".into(),
            Value::String(
                "serial, uncached; wall times move with the host, speedup and \
                 bit_identical should not. `nested` is the ladder grid whose \
                 checkpoint chains form a prefix tree forked from one trunk \
                 run; `persist` drives the same ladder shape with 10x deeper \
                 warm-ups against an on-disk snapshot store (publish, then \
                 hydrate instead of simulating the trunk). \
                 Regenerate with `repro --bench-snapshot <file>`."
                    .into(),
            ),
        ),
        ("points_detail".into(), Value::Array(records)),
    ]);
    let body = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, body + "\n").expect("write bench-snapshot file");
    eprintln!("wrote {path}");
    if !all_identical {
        eprintln!("ERROR: forked runs diverged from cold runs");
        std::process::exit(1);
    }
}

/// Times the full `--fast` suite serially and at `--jobs 4` (both without
/// the cache, so the comparison is honest) and writes a machine-readable
/// record to `path`.
fn run_bench_sweep(path: &str, seed: u64) {
    let mut runs = Vec::new();
    for jobs in [1usize, 4] {
        let opts = SweepOptions::with_jobs(jobs);
        let _ = sweep::take_stats();
        let t0 = Instant::now();
        for id in EXPERIMENTS {
            std::hint::black_box(run_experiment_with(id, seed, true, &opts));
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let stats = sweep::take_stats();
        eprintln!(
            "jobs={jobs}: {wall_ms:.0} ms over {} scenarios ({} cache hits)",
            stats.scenarios, stats.cache_hits
        );
        runs.push(Value::Object(vec![
            ("jobs".into(), Value::UInt(jobs as u64)),
            ("wall_ms".into(), Value::Float(wall_ms)),
            ("scenarios".into(), Value::UInt(stats.scenarios)),
            ("cache_hits".into(), Value::UInt(stats.cache_hits)),
        ]));
    }
    let report = Value::Object(vec![
        ("suite".into(), Value::String("repro --fast".into())),
        ("seed".into(), Value::UInt(seed)),
        (
            "host_parallelism".into(),
            Value::UInt(bl_simcore::pool::available_jobs() as u64),
        ),
        (
            "note".into(),
            Value::String(
                "speedup is bounded by host_parallelism; regenerate with \
                 `repro --fast --bench-sweep <file>` on the target machine"
                    .into(),
            ),
        ),
        ("runs".into(), Value::Array(runs)),
    ]);
    let body = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, body + "\n").expect("write bench-sweep file");
    eprintln!("wrote {path}");
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

/// Chaos smoke for the sweep supervisor: a batch holding a healthy
/// scenario, an always-panicking scenario (microbench duty out of range)
/// and a same-time-stalling scenario (zero metric period under a lowered
/// watchdog limit) runs to completion with the failers retried and
/// quarantined; then the healthy scenario's cache entry is corrupted on
/// disk and the batch re-runs to prove the cache self-heals. Exits 0 when
/// every expectation holds (the *sweep* being degraded is the expected
/// outcome), 1 otherwise.
fn run_smoke_supervision(path: &str, seed: u64, jobs: usize) {
    use biglittle::{Scenario, SystemConfig};
    use bl_platform::ids::CpuId;
    use bl_simcore::error::SimError;
    use bl_simcore::time::SimDuration;

    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if ok {
            eprintln!("ok: {what}");
        } else {
            eprintln!("FAILED: {what}");
            failures.push(what.to_string());
        }
    };

    // A short run processes only a few hundred events, so tighten the
    // audit cadence to guarantee several full passes.
    let healthy = Scenario::microbench(
        "healthy",
        CpuId(0),
        0.4,
        SimDuration::from_millis(10),
        SimDuration::from_millis(300),
        SystemConfig::baseline()
            .with_seed(seed)
            .with_audit_cadence(32),
    );
    // duty = 2.0 violates the microbenchmark's input contract and panics
    // at spawn time, on every attempt.
    let panicker = Scenario::microbench(
        "panicker",
        CpuId(1),
        2.0,
        SimDuration::from_millis(10),
        SimDuration::from_millis(300),
        SystemConfig::baseline().with_seed(seed),
    );
    // A zero metric period reschedules MetricSample at the same instant
    // forever; the (lowered) same-time watchdog converts the hang into a
    // typed stall.
    let mut stall_cfg = SystemConfig::baseline()
        .with_seed(seed)
        .with_watchdog_limit(2_000);
    stall_cfg.metric_period = SimDuration::ZERO;
    let staller = Scenario::microbench(
        "staller",
        CpuId(2),
        0.3,
        SimDuration::from_millis(10),
        SimDuration::from_millis(300),
        stall_cfg,
    );

    let cache_dir = std::env::temp_dir().join(format!("bl-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let batch = vec![healthy, panicker, staller];
    let opts = SweepOptions::with_jobs(jobs)
        .cached(&cache_dir)
        .with_retries(1)
        .with_deadline(Duration::from_secs(60))
        .audited(true);

    let first = sweep::run_with(&batch, &opts);
    check(first.results[0].is_ok(), "healthy scenario succeeds");
    check(
        matches!(first.results[1], Err(SimError::ScenarioPanicked { .. })),
        "panicking scenario surfaces as ScenarioPanicked",
    );
    check(
        matches!(first.results[2], Err(SimError::WatchdogStall { .. })),
        "stalling scenario surfaces as WatchdogStall",
    );
    check(first.degraded, "sweep reports degraded");
    check(first.quarantined.len() == 2, "both failers are quarantined");
    check(
        first.attempts[1].len() == 2 && first.attempts[2].len() == 2,
        "failers were retried once with a reseed",
    );
    let audit_checks = first.results[0]
        .as_ref()
        .map(|r| r.resilience.audit_checks)
        .unwrap_or(0);
    check(audit_checks > 0, "invariant auditor ran on the healthy run");

    // Corrupt every cache entry in place; the re-run must detect the bad
    // checksums, recompute, and still agree with the first run.
    let mut corrupted = 0;
    if let Ok(entries) = std::fs::read_dir(&cache_dir) {
        for e in entries.flatten() {
            if e.path().extension().is_some_and(|x| x == "json") {
                let _ = std::fs::write(e.path(), b"{\"truncated\": tru");
                corrupted += 1;
            }
        }
    }
    check(corrupted > 0, "cache entries existed to corrupt");
    let second = sweep::run_with(&batch, &opts);
    check(
        second.stats.cache_hits == 0,
        "corrupt cache entries do not hit",
    );
    check(
        second.results[0].as_ref().ok() == first.results[0].as_ref().ok(),
        "healed result is bit-identical to the original",
    );
    let _ = std::fs::remove_dir_all(&cache_dir);

    let report = Value::Object(vec![
        ("suite".into(), Value::String("smoke-supervision".into())),
        ("seed".into(), Value::UInt(seed)),
        ("degraded".into(), Value::Bool(first.degraded)),
        (
            "quarantined".into(),
            serde_json::to_value(&first.quarantined).expect("quarantine serializes"),
        ),
        ("audit_checks".into(), Value::UInt(audit_checks)),
        ("checks_failed".into(), Value::UInt(failures.len() as u64)),
    ]);
    let body = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, body + "\n").expect("write smoke-supervision file");
    eprintln!("wrote {path}");
    if !failures.is_empty() {
        eprintln!(
            "smoke-supervision: {} expectation(s) failed",
            failures.len()
        );
        std::process::exit(1);
    }
}

/// Chaos smoke for the sharded sweep: runs the deterministic demo batch
/// across a 3-worker fleet with the coordinator's chaos hook armed — the
/// first worker to finish a range is handed a fresh lease and then
/// SIGKILLed, so an *active* lease must be reclaimed from a dead process
/// and re-leased to a survivor. The merged fleet output must be
/// bit-identical to an in-process `jobs=1` reference run. Exits 0 when
/// every expectation holds, 1 otherwise.
fn run_smoke_shard(path: &str, seed: u64, jobs: usize) {
    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if ok {
            eprintln!("ok: {what}");
        } else {
            eprintln!("FAILED: {what}");
            failures.push(what.to_string());
        }
    };

    let scenarios = demo_batch(seed);

    // Serial in-process reference: no cache, no journal, no fleet.
    let serial = sweep::run_with(&scenarios, &SweepOptions::with_jobs(1));

    // Sharded chaos run. Uncached so the workers really execute, journaled
    // into a private directory so the smoke cannot disturb real sweeps.
    let dir = std::env::temp_dir().join(format!("bl-shard-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = SweepOptions::with_jobs(jobs)
        .journaled(&dir)
        .sharded(3)
        .with_lease(Duration::from_secs(10))
        .with_heartbeat(Duration::from_millis(200));
    opts.chaos_kill_one_worker = true;
    let chaos = sweep::run_with(&scenarios, &opts);

    check(
        chaos.results.iter().all(Result::is_ok),
        "every scenario completed despite the worker kill",
    );
    check(
        !chaos.degraded,
        "fleet run is not degraded (reclaim != retry)",
    );
    let bit_identical = serial
        .results
        .iter()
        .zip(chaos.results.iter())
        .all(|(a, b)| match (a, b) {
            (Ok(x), Ok(y)) => {
                serde_json::to_string(x).expect("result serializes")
                    == serde_json::to_string(y).expect("result serializes")
            }
            _ => false,
        });
    check(
        bit_identical,
        "merged fleet output is bit-identical to the jobs=1 reference",
    );
    let shard = chaos.stats.shard.clone().unwrap_or_default();
    check(chaos.stats.shard.is_some(), "shard stats were recorded");
    check(shard.workers == 3, "fleet size recorded as 3 workers");
    check(
        shard.reclaimed_dead >= 1,
        "at least one lease was reclaimed from the killed worker",
    );
    check(shard.releases >= 1, "the reclaimed range was re-leased");
    check(shard.workers_lost >= 1, "the killed worker counted as lost");
    let _ = std::fs::remove_dir_all(&dir);

    let report = Value::Object(vec![
        ("suite".into(), Value::String("smoke-shard".into())),
        ("seed".into(), Value::UInt(seed)),
        ("degraded".into(), Value::Bool(chaos.degraded)),
        ("bit_identical".into(), Value::Bool(bit_identical)),
        (
            "shard".into(),
            serde_json::to_value(&shard).expect("shard stats serialize"),
        ),
        ("checks_failed".into(), Value::UInt(failures.len() as u64)),
    ]);
    let body = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, body + "\n").expect("write smoke-shard file");
    eprintln!("wrote {path}");
    if !failures.is_empty() {
        eprintln!("smoke-shard: {} expectation(s) failed", failures.len());
        std::process::exit(1);
    }
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
                cfg.socket = it.next().expect("--socket takes a path").into();
                socket_set = true;
            }
            "--serve-dir" => cfg.serve_dir = it.next().expect("--serve-dir takes a path").into(),
            "--jobs" => {
                cfg.jobs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--jobs takes an integer (0 = all cores)")
            }
            "--max-queued" => {
                cfg.limits.max_queued = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--max-queued takes an integer")
            }
            "--max-pending" => {
                cfg.limits.max_pending_scenarios = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--max-pending takes an integer (scenario count)")
            }
            "--max-active" => {
                cfg.limits.max_active = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--max-active takes an integer")
            }
            "--heartbeat-ms" => {
                cfg.heartbeat = Duration::from_millis(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--heartbeat-ms takes an integer (milliseconds)"),
                )
            }
            "--wedge-timeout-ms" => {
                cfg.wedge_timeout = Duration::from_millis(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--wedge-timeout-ms takes an integer (milliseconds)"),
                )
            }
            "--stall-timeout-ms" => {
                cfg.stall_timeout = Duration::from_millis(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--stall-timeout-ms takes an integer (milliseconds)"),
                )
            }
            "--default-deadline-ms" => {
                cfg.default_deadline = Duration::from_millis(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--default-deadline-ms takes an integer (milliseconds)"),
                )
            }
            "--no-snap-store" => snap = false,
            "--snap-store-dir" => {
                cfg.snap_dir = Some(it.next().expect("--snap-store-dir takes a path").into())
            }
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
                cfg.socket = it.next().expect("--socket takes a path").into();
                socket_set = true;
            }
            "--client" => cfg.client = it.next().expect("--client takes a name").clone(),
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed takes an integer")
            }
            "--reconnects" => {
                cfg.reconnects = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--reconnects takes an integer")
            }
            "--backoff-ms" => {
                cfg.backoff = Duration::from_millis(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--backoff-ms takes an integer (milliseconds)"),
                )
            }
            "--retries" => {
                cfg.options.retries = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--retries takes an integer")
            }
            "--deadline-ms" => {
                cfg.options.deadline_ms = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--deadline-ms takes an integer (milliseconds)"),
                )
            }
            "--max-events" => {
                cfg.options.max_events = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--max-events takes an integer"),
                )
            }
            "--audit" => cfg.options.audit = true,
            "--quiet" => cfg.quiet = true,
            "--demo" => demo_out = it.next().cloned(),
            "--batch" => {
                let input = it
                    .next()
                    .expect("--batch takes <in.json> <out.json>")
                    .clone();
                let output = it
                    .next()
                    .expect("--batch takes <in.json> <out.json>")
                    .clone();
                batch_io = Some((input, output));
            }
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
        let text = std::fs::read_to_string(&input).expect("read --batch input file");
        let v: Value = serde_json::from_str(&text).expect("--batch input is JSON");
        let arr = match v.get("scenarios") {
            Some(s) => s.as_array().expect("\"scenarios\" is an array").to_vec(),
            None => v
                .as_array()
                .expect("--batch input is a scenario array")
                .to_vec(),
        };
        (arr, output, false)
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

/// A tiny deterministic batch, distinct per `salt` — flood and
/// fair-share phases of the serve smoke need many *different* batch keys
/// (identical batches would dedup-attach instead of queueing).
fn serve_smoke_batch(seed: u64, salt: u64, sim_ms: u64) -> Vec<Value> {
    use biglittle::{Scenario, SystemConfig};
    use bl_platform::ids::CpuId;
    use bl_simcore::time::SimDuration;

    (0..2u64)
        .map(|i| {
            let sc = Scenario::microbench(
                format!("serve-smoke-{salt}-{i}"),
                CpuId((i % 4) as usize),
                0.2 + 0.1 * i as f64,
                SimDuration::from_millis(10),
                SimDuration::from_millis(sim_ms),
                SystemConfig::baseline().with_seed(seed ^ (salt << 8) ^ i),
            );
            serde_json::to_value(&sc).expect("scenario serializes")
        })
        .collect()
}

/// Chaos smoke for the serve layer: proves the daemon degrades instead
/// of dying under every abuse the protocol can see — malformed and
/// oversized requests, slow-trickle senders, admission floods, wedged
/// runs — and that a SIGKILL mid-batch plus restart plus client
/// reconnect still converges on results byte-identical to a one-shot
/// sweep. Exits 0 when every expectation holds, 1 otherwise.
fn run_smoke_serve(path: &str, seed: u64, jobs: usize) {
    use bl_served::{control, proto, submit, SubmitConfig, SubmitOptions};
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if ok {
            eprintln!("ok: {what}");
        } else {
            eprintln!("FAILED: {what}");
            failures.push(what.to_string());
        }
    };

    let dir = std::env::temp_dir().join(format!("bl-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create smoke dir");
    let socket = dir.join("serve.sock");
    let serve_dir = dir.join("state");
    let snap_dir = dir.join("snapshots");

    // In-process references: what a one-shot sweep of each demo batch
    // produces. Every served run below must match these bytes.
    let reference = |seed: u64| -> String {
        let scenarios = demo_batch(seed);
        let out = sweep::run_with(&scenarios, &SweepOptions::with_jobs(1));
        let results: Vec<Value> = out
            .results
            .iter()
            .map(|r| match r {
                Ok(res) => serde_json::to_value(res).expect("result serializes"),
                Err(e) => Value::Object(vec![("error".into(), Value::String(e.to_string()))]),
            })
            .collect();
        demo_report_body(seed, out.degraded, out.quarantined.len() as u64, results)
    };
    let reference_a = reference(seed);
    let reference_b = reference(seed + 1);

    let spawn_daemon = |wedge: bool, state: &Path| -> std::process::Child {
        let exe = std::env::current_exe().expect("current_exe for daemon spawn");
        let mut cmd = std::process::Command::new(exe);
        cmd.args([
            "serve",
            "--socket",
            socket.to_str().expect("socket path is UTF-8"),
            "--serve-dir",
            state.to_str().expect("serve dir is UTF-8"),
            "--snap-store-dir",
            snap_dir.to_str().expect("snap dir is UTF-8"),
            "--jobs",
            &jobs.to_string(),
            "--max-queued",
            "2",
            "--max-active",
            "1",
            "--heartbeat-ms",
            "100",
            "--stall-timeout-ms",
            "600",
            "--wedge-timeout-ms",
            "800",
        ]);
        if wedge {
            cmd.env(bl_served::WEDGE_ENV, "1");
        }
        cmd.spawn().expect("spawn serve daemon")
    };
    let wait_for_socket = || -> bool {
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if UnixStream::connect(&socket).is_ok() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        false
    };
    // Reads one event line off a raw connection, bounded by `within`.
    let read_line = |stream: &mut UnixStream, within: Duration| -> Option<String> {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let deadline = Instant::now() + within;
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(nl) = buf.iter().position(|b| *b == b'\n') {
                let line: Vec<u8> = buf.drain(..=nl).collect();
                return Some(String::from_utf8_lossy(&line[..line.len() - 1]).to_string());
            }
            if Instant::now() >= deadline {
                return None;
            }
            match stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => return None,
            }
        }
    };
    let submit_cfg = |client: &str| SubmitConfig {
        socket: socket.clone(),
        client: client.to_string(),
        reconnects: 40,
        backoff: Duration::from_millis(100),
        backoff_cap: Duration::from_secs(1),
        quiet_timeout: Duration::from_secs(30),
        options: SubmitOptions::default(),
        quiet: true,
    };
    let demo_values = |seed: u64| -> Vec<Value> {
        demo_batch(seed)
            .iter()
            .map(|sc| serde_json::to_value(sc).expect("scenario serializes"))
            .collect()
    };
    let report_bytes = |seed: u64, report: &bl_served::SubmitReport| -> String {
        let results: Vec<Value> = report
            .results
            .iter()
            .map(|r| match r {
                Ok(v) => v.clone(),
                Err(e) => Value::Object(vec![("error".into(), Value::String(e.clone()))]),
            })
            .collect();
        demo_report_body(seed, report.degraded, report.quarantined, results)
    };

    // ---- phase 1: healthy daemon -----------------------------------------
    let mut daemon = spawn_daemon(false, &serve_dir);
    check(wait_for_socket(), "daemon came up and accepts connections");

    // Submit-vs-oneshot byte identity on a live daemon.
    match submit(&submit_cfg("smoke"), &demo_values(seed)) {
        Ok(report) => {
            check(
                report_bytes(seed, &report) == reference_a,
                "served demo batch is byte-identical to the one-shot sweep",
            );
        }
        Err(e) => {
            eprintln!("submit failed: {e}");
            check(
                false,
                "served demo batch is byte-identical to the one-shot sweep",
            );
        }
    }

    // Malformed requests get typed rejections and the connection stays
    // usable (the ping on the same socket must still answer).
    if let Ok(mut conn) = UnixStream::connect(&socket) {
        for (line, want) in [
            ("this is not json", "malformed"),
            ("{\"op\":\"submit\",\"scenarios\":[]}", "empty-batch"),
            ("{\"op\":\"launch-missiles\"}", "malformed"),
        ] {
            let _ = conn.write_all(format!("{line}\n").as_bytes());
            let answer = read_line(&mut conn, Duration::from_secs(5)).unwrap_or_default();
            check(
                answer.contains("\"rejected\"") && answer.contains(want),
                &format!("malformed request {line:?} draws a typed {want} rejection"),
            );
        }
        let _ = conn.write_all(b"{\"op\":\"ping\"}\n");
        let answer = read_line(&mut conn, Duration::from_secs(5)).unwrap_or_default();
        check(
            answer.contains("\"pong\""),
            "connection survives malformed requests (ping still answers)",
        );
    } else {
        check(
            false,
            "connection survives malformed requests (ping still answers)",
        );
    }

    // Oversized request: typed too-large rejection, connection usable.
    if let Ok(mut conn) = UnixStream::connect(&socket) {
        let huge = vec![b'x'; 2 * proto::MAX_LINE_BYTES];
        let mut sent = conn.write_all(&huge).is_ok();
        sent &= conn.write_all(b"\n").is_ok();
        check(sent, "oversized request could be sent in full");
        let answer = read_line(&mut conn, Duration::from_secs(10)).unwrap_or_default();
        check(
            answer.contains("too-large"),
            "oversized request draws a typed too-large rejection",
        );
        let _ = conn.write_all(b"{\"op\":\"ping\"}\n");
        let answer = read_line(&mut conn, Duration::from_secs(5)).unwrap_or_default();
        check(
            answer.contains("\"pong\""),
            "connection survives an oversized request (ping still answers)",
        );
    } else {
        check(false, "oversized request draws a typed too-large rejection");
    }

    // Slow trickle: a partial line going nowhere gets the *connection*
    // dropped, not the daemon.
    if let Ok(mut conn) = UnixStream::connect(&socket) {
        let _ = conn.write_all(b"{\"op\":");
        std::thread::sleep(Duration::from_millis(1_500));
        check(
            read_line(&mut conn, Duration::from_secs(2)).is_none(),
            "slow-trickle connection is dropped after the stall timeout",
        );
    }
    check(
        control(&socket, "ping").is_ok(),
        "daemon survives the slow-trickle client",
    );

    // Fair-share: two clients with distinct batches both complete.
    let (cfg_a, cfg_b) = (submit_cfg("alice"), submit_cfg("bob"));
    let (batch_a, batch_b) = (
        serve_smoke_batch(seed, 1, 500),
        serve_smoke_batch(seed, 2, 500),
    );
    let ta = std::thread::spawn(move || submit(&cfg_a, &batch_a));
    let tb = std::thread::spawn(move || submit(&cfg_b, &batch_b));
    let (ra, rb) = (ta.join().expect("join alice"), tb.join().expect("join bob"));
    check(
        ra.is_ok() && rb.is_ok(),
        "two competing clients both complete their batches",
    );

    // ---- phase 2: SIGKILL mid-batch, restart, reconnect ------------------
    let chaos_cfg = submit_cfg("chaos");
    let chaos_values = demo_values(seed + 1);
    let chaos_client = std::thread::spawn(move || submit(&chaos_cfg, &chaos_values));
    // Kill once the run is observably mid-flight (its sweep journal has
    // at least one completed scenario), mirroring the shard chaos test.
    let journal_dir = serve_dir.join("journal");
    let poll_deadline = Instant::now() + Duration::from_secs(120);
    let mut saw_progress = false;
    while Instant::now() < poll_deadline {
        let done_records: usize = std::fs::read_dir(&journal_dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
                    .map(|e| {
                        std::fs::read_to_string(e.path())
                            .map(|t| t.lines().filter(|l| l.contains("\"done\"")).count())
                            .unwrap_or(0)
                    })
                    .sum()
            })
            .unwrap_or(0);
        if done_records >= 1 {
            saw_progress = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    check(
        saw_progress,
        "chaos run made journaled progress before the kill",
    );
    daemon.kill().expect("SIGKILL the daemon");
    let _ = daemon.wait();
    std::thread::sleep(Duration::from_millis(300));
    let mut daemon = spawn_daemon(false, &serve_dir);
    check(
        wait_for_socket(),
        "restarted daemon came up on the same socket",
    );
    match chaos_client.join().expect("join chaos client") {
        Ok(report) => {
            check(
                report_bytes(seed + 1, &report) == reference_b,
                "post-SIGKILL reconnect converges on byte-identical results",
            );
            check(
                report.reconnects >= 1,
                "the chaos client really did reconnect",
            );
        }
        Err(e) => {
            eprintln!("chaos submit failed: {e}");
            check(
                false,
                "post-SIGKILL reconnect converges on byte-identical results",
            );
        }
    }

    // Graceful drain: the daemon acknowledges, finishes, and exits 0.
    match control(&socket, "drain") {
        Ok(line) => check(line.contains("draining"), "drain is acknowledged"),
        Err(e) => {
            eprintln!("drain failed: {e}");
            check(false, "drain is acknowledged");
        }
    }
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    let mut drain_code: Option<i32> = None;
    while Instant::now() < drain_deadline {
        if let Some(status) = daemon.try_wait().expect("poll draining daemon") {
            drain_code = status.code();
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    // Reap unconditionally: a no-op after a clean drain (the status is
    // cached), and the kill switch if the drain never completed.
    let _ = daemon.kill();
    let _ = daemon.wait();
    check(drain_code == Some(0), "drained daemon exits 0");

    // ---- phase 3: flood a wedged daemon ----------------------------------
    // Every executor wedges, so admission capacity (1 active + 2 queued)
    // fills deterministically: of 6 distinct batches, exactly 3 admit and
    // 3 draw typed backpressure rejections. The wedge timeout then
    // quarantines the stuck runs one by one.
    let wedge_state = dir.join("wedge-state");
    let mut wedged_daemon = spawn_daemon(true, &wedge_state);
    check(wait_for_socket(), "wedge-mode daemon came up");
    let mut flood_conns: Vec<UnixStream> = Vec::new();
    let mut admitted = 0;
    let mut rejected = 0;
    for salt in 0..6u64 {
        let batch = serve_smoke_batch(seed, 100 + salt, 200);
        let line = proto::submit_line("flood", &batch, &SubmitOptions::default());
        let mut conn = UnixStream::connect(&socket).expect("flood connection");
        conn.write_all(format!("{line}\n").as_bytes())
            .expect("send flood submit");
        flood_conns.push(conn);
    }
    let mut admitted_conn: Option<usize> = None;
    for (i, conn) in flood_conns.iter_mut().enumerate() {
        let answer = read_line(conn, Duration::from_secs(10)).unwrap_or_default();
        if answer.contains("\"admitted\"") {
            admitted += 1;
            admitted_conn.get_or_insert(i);
        } else if answer.contains("queue-full") || answer.contains("overloaded") {
            rejected += 1;
        }
    }
    check(
        admitted == 3,
        &format!("flood: exactly capacity admits (3), got {admitted}"),
    );
    check(
        rejected == 3,
        &format!("flood: the overflow draws typed rejections (3), got {rejected}"),
    );
    match control(&socket, "status") {
        Ok(line) => check(
            line.contains("\"queued\""),
            "daemon answers status mid-flood",
        ),
        Err(e) => {
            eprintln!("status failed: {e}");
            check(false, "daemon answers status mid-flood");
        }
    }
    // The first admitted run heartbeats while wedged, then the server
    // cancels and quarantines it.
    if let Some(i) = admitted_conn {
        let conn = &mut flood_conns[i];
        let mut heartbeats = 0;
        let mut quarantined = false;
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            let Some(line) = read_line(conn, Duration::from_secs(5)) else {
                break;
            };
            if line.contains("\"heartbeat\"") {
                heartbeats += 1;
            }
            if line.contains("\"quarantined\"") {
                quarantined = true;
                break;
            }
        }
        check(heartbeats >= 1, "wedged run heartbeats while stuck");
        check(quarantined, "wedged run is cancelled and quarantined");
    } else {
        check(false, "wedged run heartbeats while stuck");
        check(false, "wedged run is cancelled and quarantined");
    }
    let _ = wedged_daemon.kill();
    let _ = wedged_daemon.wait();

    let report = Value::Object(vec![
        ("suite".into(), Value::String("smoke-serve".into())),
        ("seed".into(), Value::UInt(seed)),
        ("flood_admitted".into(), Value::UInt(admitted)),
        ("flood_rejected".into(), Value::UInt(rejected)),
        ("checks_failed".into(), Value::UInt(failures.len() as u64)),
    ]);
    let body = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, body + "\n").expect("write smoke-serve file");
    eprintln!("wrote {path}");
    let _ = std::fs::remove_dir_all(&dir);
    if !failures.is_empty() {
        eprintln!("smoke-serve: {} expectation(s) failed", failures.len());
        std::process::exit(1);
    }
}
