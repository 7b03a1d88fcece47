//! Cross-process supervision tests for the `repro` binary: a sweep killed
//! with SIGKILL mid-batch must resume from its journal to a
//! byte-identical report, and a batch whose scenarios overrun their
//! event budget must exit 0 while reporting itself degraded. The
//! in-process chaos batch (panics, stalls, retries, cache self-heal,
//! auditor) is `tests/supervision.rs`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use serde_json::Value;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn temp_cwd(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bl-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Number of completed-scenario ("done") records in the batch journal the
/// demo sweep writes under `<cwd>/results/.sweep-journal/`.
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

#[test]
fn sigkilled_demo_sweep_resumes_byte_identically() {
    // Reference: the same batch run uninterrupted in its own directory.
    let ref_cwd = temp_cwd("ref");
    let status = repro()
        .args(["--demo-sweep", "ref.json", "--no-cache", "--jobs", "1"])
        .current_dir(&ref_cwd)
        .status()
        .expect("spawn reference demo sweep");
    assert!(status.success());
    let reference = std::fs::read(ref_cwd.join("ref.json")).expect("reference report exists");
    // No demo scenario warms up, and `repro` wires no snapshot store.
    assert!(
        !ref_cwd.join("results/.snapshots").exists(),
        "repro created a snapshot store"
    );

    // Victim: same batch, killed (SIGKILL — no cleanup handlers run) once
    // the journal shows at least one completed scenario.
    let kill_cwd = temp_cwd("kill");
    let mut child = repro()
        .args(["--demo-sweep", "out.json", "--no-cache", "--jobs", "1"])
        .current_dir(&kill_cwd)
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn victim demo sweep");
    let poll_deadline = Instant::now() + Duration::from_secs(120);
    let interrupted = loop {
        if journal_done_records(&kill_cwd) >= 1 {
            child.kill().expect("kill victim");
            let _ = child.wait();
            break true;
        }
        if child.try_wait().expect("poll victim").is_some() {
            // The batch outran the poll loop on this machine; the resume
            // below still exercises a full-journal replay.
            break false;
        }
        if Instant::now() >= poll_deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("victim sweep made no journal progress within the poll deadline");
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    if interrupted {
        assert!(
            !kill_cwd.join("out.json").exists(),
            "killed mid-batch, before the report was written"
        );
    }
    let done_at_kill = journal_done_records(&kill_cwd);
    assert!(
        done_at_kill >= 1,
        "the journal recorded completed scenarios"
    );

    // Resume: completed scenarios replay from the journal, the remainder
    // runs, and the report matches the uninterrupted one byte for byte.
    let status = repro()
        .args([
            "--demo-sweep",
            "out.json",
            "--no-cache",
            "--jobs",
            "1",
            "--resume",
        ])
        .current_dir(&kill_cwd)
        .status()
        .expect("spawn resume demo sweep");
    assert!(status.success());
    let resumed = std::fs::read(kill_cwd.join("out.json")).expect("resumed report exists");
    assert_eq!(
        resumed, reference,
        "resumed report differs from the uninterrupted reference"
    );

    let _ = std::fs::remove_dir_all(&ref_cwd);
    let _ = std::fs::remove_dir_all(&kill_cwd);
}

/// Runs `repro --demo-sweep <out>` with no cache or journal plus `extra`
/// flags in `cwd`, and returns the parsed report.
fn demo_report(cwd: &Path, out: &str, extra: &[&str]) -> Value {
    let output = repro()
        .args(["--demo-sweep", out, "--no-cache", "--no-journal"])
        .args(extra)
        .current_dir(cwd)
        .output()
        .expect("spawn demo sweep");
    assert!(
        output.status.success(),
        "demo sweep {extra:?} must exit 0:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(cwd.join(out)).expect("demo report exists");
    serde_json::from_str(&text).expect("demo report is JSON")
}

fn results(report: &Value) -> &[Value] {
    report
        .get("results")
        .and_then(Value::as_array)
        .expect("report has results")
}

#[test]
fn smoke_supervision_exits_zero_and_reports_degraded() {
    let cwd = temp_cwd("smoke");
    let full = demo_report(&cwd, "full.json", &["--jobs", "1"]);
    let events: Vec<u64> = results(&full)
        .iter()
        .map(|r| {
            r.get("events_processed")
                .and_then(Value::as_u64)
                .expect("a healthy result counts its events")
        })
        .collect();
    // An event budget between the smallest and the largest scenario
    // quarantines some of the batch and spares the rest.
    let (min, max) = (events.iter().min().unwrap(), events.iter().max().unwrap());
    let budget = (min + max) / 2;
    let failing: Vec<bool> = events.iter().map(|&e| e > budget).collect();
    let quarantined = failing.iter().filter(|&&f| f).count();
    assert!(
        quarantined > 0 && quarantined < events.len(),
        "budget {budget} must split the batch: {events:?}"
    );

    let budget_flag = budget.to_string();
    let chaos = demo_report(
        &cwd,
        "smoke.json",
        &["--jobs", "2", "--max-events", &budget_flag],
    );
    assert_eq!(chaos.get("degraded"), Some(&Value::Bool(true)));
    assert_eq!(
        chaos.get("quarantined").and_then(Value::as_u64),
        Some(quarantined as u64)
    );
    for (i, (got, want)) in results(&chaos).iter().zip(results(&full)).enumerate() {
        if failing[i] {
            let error = got.get("error").and_then(Value::as_str).unwrap_or("");
            assert!(
                error.contains("event budget"),
                "scenario {i} must be quarantined by the budget: {got:?}"
            );
        } else {
            assert_eq!(got, want, "healthy scenario {i} is untouched by quarantine");
        }
    }
    let _ = std::fs::remove_dir_all(&cwd);
}
