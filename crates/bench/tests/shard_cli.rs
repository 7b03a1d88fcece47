//! Cross-process tests for the sharded sweep: a worker fleet must produce
//! byte-identical reports to a serial run, survive wedged workers through
//! lease expiry and a worker SIGKILLed mid-range through reclaim, and
//! resume fleet-wide after the *coordinator* is SIGKILLed — also when a
//! power cut took any of the files it never synced.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use biglittle::{sweep, Scenario, SweepOptions, SystemConfig};
use bl_platform::ids::CpuId;
use bl_simcore::time::SimDuration;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn temp_cwd(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bl-shard-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Runs the demo sweep serially (no fleet) in its own directory and
/// returns the report bytes — the byte-identity reference for every
/// fleet run below.
fn serial_reference(name: &str) -> Vec<u8> {
    let cwd = temp_cwd(name);
    let status = repro()
        .args(["--demo-sweep", "ref.json", "--no-cache", "--jobs", "1"])
        .current_dir(&cwd)
        .status()
        .expect("spawn serial reference sweep");
    assert!(status.success());
    let bytes = std::fs::read(cwd.join("ref.json")).expect("reference report exists");
    let _ = std::fs::remove_dir_all(&cwd);
    bytes
}

/// Number of completed-scenario ("done") records across every journal —
/// merged and per-worker — under `<cwd>/results/.sweep-journal/`.
fn journal_done_records(cwd: &Path) -> usize {
    let dir = cwd.join("results/.sweep-journal");
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
        .map(|e| {
            std::fs::read_to_string(e.path())
                .map(|t| t.lines().filter(|l| l.contains("\"done\"")).count())
                .unwrap_or(0)
        })
        .sum()
}

/// Extracts the integer following `key=` in the coordinator's stderr
/// diagnostics line.
fn stderr_counter(stderr: &str, key: &str) -> u64 {
    let tail = stderr
        .split(&format!("{key}="))
        .nth(1)
        .unwrap_or_else(|| panic!("no {key}= in stderr:\n{stderr}"));
    tail.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("unparsable {key}= in stderr:\n{stderr}"))
}

#[test]
fn fleet_demo_sweep_matches_serial_byte_identically() {
    let reference = serial_reference("fleet-ref");

    let cwd = temp_cwd("fleet");
    let output = repro()
        .args(["--demo-sweep", "out.json", "--no-cache", "--workers", "4"])
        .current_dir(&cwd)
        .output()
        .expect("spawn fleet demo sweep");
    assert!(
        output.status.success(),
        "fleet sweep failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let fleet = std::fs::read(cwd.join("out.json")).expect("fleet report exists");
    assert_eq!(
        fleet, reference,
        "4-worker report differs from the serial reference"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(stderr_counter(&stderr, "workers"), 4);
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn wedged_worker_lease_expires_and_batch_completes() {
    let reference = serial_reference("wedge-ref");

    // Worker 1 wedges on its first lease (never heartbeats, never
    // finishes); with a short TTL the coordinator must reclaim its lease,
    // kill it, and re-lease the range to a survivor.
    let cwd = temp_cwd("wedge");
    let output = repro()
        .args([
            "--demo-sweep",
            "out.json",
            "--no-cache",
            "--workers",
            "3",
            "--lease-ms",
            "500",
            "--heartbeat-ms",
            "100",
        ])
        .env("BL_SHARD_TEST_WEDGE_WORKER", "1")
        .current_dir(&cwd)
        .output()
        .expect("spawn wedged fleet sweep");
    assert!(
        output.status.success(),
        "wedged fleet sweep failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let fleet = std::fs::read(cwd.join("out.json")).expect("fleet report exists");
    assert_eq!(
        fleet, reference,
        "wedged-fleet report differs from the serial reference"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr_counter(&stderr, "reclaimed_expired") >= 1,
        "the wedged worker's lease must expire and be reclaimed:\n{stderr}"
    );
    assert!(
        stderr_counter(&stderr, "re-leased") >= 1,
        "the reclaimed range must be re-leased:\n{stderr}"
    );
    assert!(
        stderr_counter(&stderr, "workers_lost") >= 1,
        "the wedged worker must be counted lost:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&cwd);
}

/// Starts the demo sweep on a 3-worker fleet in `cwd` and SIGKILLs the
/// coordinator once a worker has journaled a result. Worker 1 wedges under
/// a long lease, so the batch is guaranteed to still be in flight at the
/// kill, while the healthy workers publish completed ranges first.
fn kill_fleet_mid_batch(cwd: &Path) {
    let mut child = repro()
        .args([
            "--demo-sweep",
            "out.json",
            "--no-cache",
            "--workers",
            "3",
            "--lease-ms",
            "60000",
            "--heartbeat-ms",
            "100",
        ])
        .env("BL_SHARD_TEST_WEDGE_WORKER", "1")
        .current_dir(cwd)
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn victim fleet sweep");
    let poll_deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if journal_done_records(cwd) >= 1 {
            child.kill().expect("kill coordinator");
            let _ = child.wait();
            break;
        }
        assert!(
            child.try_wait().expect("poll coordinator").is_none(),
            "the wedged fleet must not settle before the kill"
        );
        assert!(
            Instant::now() < poll_deadline,
            "no worker journal progress within the poll deadline"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        !cwd.join("out.json").exists(),
        "killed mid-batch, before the report was written"
    );
    // The orphaned workers see stdin EOF and exit on their own; give them
    // a moment so what follows reads settled journals.
    std::thread::sleep(Duration::from_secs(1));
}

/// Resumes the demo sweep on a 3-worker fleet in `cwd`; returns the
/// report bytes and the coordinator's stderr.
fn resume_fleet(cwd: &Path) -> (Vec<u8>, String) {
    let output = repro()
        .args([
            "--demo-sweep",
            "out.json",
            "--no-cache",
            "--workers",
            "3",
            "--resume",
        ])
        .current_dir(cwd)
        .output()
        .expect("spawn resume fleet sweep");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(output.status.success(), "fleet resume failed:\n{stderr}");
    let report = std::fs::read(cwd.join("out.json")).expect("resumed report exists");
    (report, stderr)
}

#[test]
fn coordinator_sigkill_then_fleet_resume_is_byte_identical() {
    let reference = serial_reference("coord-kill-ref");
    let cwd = temp_cwd("coord-kill");
    kill_fleet_mid_batch(&cwd);

    // Fleet-wide resume: completed ranges are absorbed from the dead
    // fleet's per-worker journals, the remainder re-runs (no wedge this
    // time), and the report matches the serial reference byte for byte.
    let (resumed, stderr) = resume_fleet(&cwd);
    assert_eq!(
        resumed, reference,
        "fleet-resumed report differs from the serial reference"
    );
    let resumed_count = stderr
        .split(" scenarios, ")
        .nth(1)
        .and_then(|t| t.split(" resumed").next())
        .and_then(|n| n.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no resumed count in stderr:\n{stderr}"));
    assert!(
        resumed_count >= 1,
        "at least one scenario must be absorbed from the dead fleet's journals:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn fleet_resume_reproduces_the_serial_bytes_whatever_a_cut_left() {
    let reference = serial_reference("cut-ref");
    let cwd = temp_cwd("cut");
    kill_fleet_mid_batch(&cwd);
    let results = cwd.join("results");
    let mut written = Vec::new();
    let mut dirs = vec![results.clone()];
    while let Some(dir) = dirs.pop() {
        for path in std::fs::read_dir(&dir).unwrap().flatten().map(|e| e.path()) {
            if path.is_dir() {
                dirs.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                written.push((path, bytes));
            }
        }
    }
    assert!(written.len() >= 2, "the dead fleet left journals behind");

    // Nothing the fleet writes is synced, so a power cut may leave each of
    // its files absent, empty or cut at a record boundary. Every file gets
    // each treatment in one of three resumes.
    for turn in 0..3 {
        let _ = std::fs::remove_dir_all(&results);
        let _ = std::fs::remove_file(cwd.join("out.json"));
        for (i, (path, bytes)) in written.iter().enumerate() {
            let kept: &[u8] = match (i + turn) % 3 {
                0 => continue,
                1 => &[],
                _ => {
                    let ends: Vec<usize> =
                        (0..bytes.len()).filter(|&j| bytes[j] == b'\n').collect();
                    &bytes[..ends.len().checked_sub(2).map_or(0, |j| ends[j] + 1)]
                }
            };
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, kept).unwrap();
        }
        assert_eq!(resume_fleet(&cwd).0, reference, "turn {turn}");
    }
    let _ = std::fs::remove_dir_all(&cwd);
}

/// Six microbench duty steps seeded positionally, like the demo sweep's
/// batch but shorter.
fn duty_steps() -> Vec<Scenario> {
    let mut scenarios: Vec<Scenario> = (0..6u64)
        .map(|i| {
            Scenario::microbench(
                format!("duty-{i}"),
                CpuId((i % 4) as usize),
                0.15 + 0.1 * i as f64,
                SimDuration::from_millis(10),
                SimDuration::from_secs(5),
                SystemConfig::baseline(),
            )
        })
        .collect();
    sweep::seed_scenarios(&mut scenarios, 42);
    scenarios
}

fn result_bytes(out: &sweep::SweepReport) -> Vec<String> {
    out.results
        .iter()
        .map(|r| serde_json::to_string(r.as_ref().expect("the scenario completes")).unwrap())
        .collect()
}

#[test]
fn a_worker_killed_mid_range_is_reclaimed_and_the_merge_is_byte_identical() {
    // The coordinator runs in this test process; its workers are real
    // `repro --worker` child processes.
    sweep::shard::set_worker_launcher(|spec| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
        cmd.args(sweep::shard::worker_cli_args(spec));
        cmd
    });
    let scenarios = duty_steps();
    let serial = sweep::run_with(&scenarios, &SweepOptions::with_jobs(1));

    // The first worker to finish a range is leased another one and
    // SIGKILLed holding it: the active lease must be reclaimed from the
    // dead process and re-leased to a survivor.
    let dir = temp_cwd("worker-kill");
    let mut opts = SweepOptions::with_jobs(1)
        .journaled(&dir)
        .sharded(3)
        .with_lease(Duration::from_secs(10))
        .with_heartbeat(Duration::from_millis(200));
    opts.chaos_kill_one_worker = true;
    let chaos = sweep::run_with(&scenarios, &opts);
    assert!(!chaos.degraded, "a reclaimed range is not a retry");
    assert_eq!(result_bytes(&chaos), result_bytes(&serial));
    let shard = chaos.stats.shard.expect("shard stats were recorded");
    assert_eq!(shard.workers, 3, "{shard:?}");
    assert!(shard.reclaimed_dead >= 1, "{shard:?}");
    assert!(shard.releases >= 1, "{shard:?}");
    assert!(shard.workers_lost >= 1, "{shard:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
