//! Cross-process supervision tests for the `repro` binary: a sweep killed
//! with SIGKILL mid-batch must resume from its journal to a
//! byte-identical report, and the chaos smoke must exit 0 while reporting
//! the batch as degraded.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

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

#[test]
fn smoke_supervision_exits_zero_and_reports_degraded() {
    let cwd = temp_cwd("smoke");
    let output = repro()
        .args(["--smoke-supervision", "smoke.json"])
        .current_dir(&cwd)
        .output()
        .expect("spawn smoke supervision");
    assert!(
        output.status.success(),
        "smoke supervision failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let report = std::fs::read_to_string(cwd.join("smoke.json")).expect("smoke report exists");
    assert!(
        report.contains("\"degraded\": true"),
        "the chaos batch must be reported degraded: {report}"
    );
    assert!(
        report.contains("\"checks_failed\": 0"),
        "every smoke expectation must hold: {report}"
    );
    let _ = std::fs::remove_dir_all(&cwd);
}
