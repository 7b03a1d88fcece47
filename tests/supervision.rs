//! Integration tests for the crash-safe sweep supervisor: budgets,
//! retry/quarantine, the sweep journal, cache integrity and the
//! runtime invariant auditor. The cross-process SIGKILL variant lives in
//! `crates/bench/tests/supervision_cli.rs`; these tests exercise the same
//! machinery in-process.

use biglittle::sweep::{self, SweepOptions};
use biglittle::{Scenario, Simulation, SystemConfig};
use bl_platform::ids::CpuId;
use bl_simcore::budget::{CancelToken, RunBudget};
use bl_simcore::durable::PowerCut;
use bl_simcore::error::SimError;
use bl_simcore::time::{SimDuration, SimTime};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn mb(label: &str, duty: f64, run_ms: u64) -> Scenario {
    Scenario::microbench(
        label,
        CpuId(0),
        duty,
        SimDuration::from_millis(10),
        SimDuration::from_millis(run_ms),
        SystemConfig::baseline(),
    )
}

/// A scenario whose zero metric period respawns `MetricSample` at the same
/// instant forever — an in-simulation hang, caught by the (lowered)
/// same-time watchdog.
fn staller(label: &str) -> Scenario {
    let mut sc = mb(label, 0.3, 300);
    sc.config = sc.config.with_watchdog_limit(1_000);
    sc.config.metric_period = SimDuration::ZERO;
    sc
}

fn temp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bl-supervision-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn chaos_batch_completes_with_quarantine_and_cache_self_heal() {
    let dir = temp_dir("chaos");
    // Healthy + always-panicking (duty out of range) + hanging scenario:
    // the supervised sweep must return normally with the failers
    // quarantined in their slots.
    let mut healthy = mb("healthy", 0.4, 300);
    // A few hundred events: audit often enough to get several passes.
    healthy.config = healthy.config.with_audit_cadence(32);
    let batch = vec![healthy, mb("panics", 2.0, 300), staller("hangs")];
    let opts = SweepOptions::with_jobs(2)
        .cached(&dir)
        .with_retries(1)
        .with_deadline(Duration::from_secs(120))
        .audited(true);
    let first = sweep::run_with(&batch, &opts);
    let clean = first.results[0].as_ref().unwrap().clone();
    assert!(
        clean.resilience.audit_checks > 0,
        "the invariant auditor ran beside the failers"
    );
    assert!(matches!(
        first.results[1],
        Err(SimError::ScenarioPanicked { .. })
    ));
    assert!(matches!(
        first.results[2],
        Err(SimError::WatchdogStall { .. })
    ));
    assert!(first.degraded);
    assert_eq!(first.quarantined.len(), 2);
    assert_eq!(first.stats.retries, 2, "each failer retried once");
    // Each retry ran under a perturbed seed.
    for history in [&first.attempts[1], &first.attempts[2]] {
        assert_eq!(history.len(), 2);
        assert_ne!(history[0].seed, history[1].seed);
    }

    // Corrupt every cache entry; the re-run must miss, recompute and
    // agree bit-for-bit with the original — self-healing, not poisoning.
    let mut corrupted = 0;
    for e in std::fs::read_dir(&dir).unwrap().flatten() {
        if e.path().extension().is_some_and(|x| x == "json") {
            std::fs::write(e.path(), b"ffffffffffffffff\n{\"not\":\"a result").unwrap();
            corrupted += 1;
        }
    }
    assert!(corrupted > 0);
    let second = sweep::run_with(&batch, &opts);
    assert_eq!(second.stats.cache_hits, 0);
    assert_eq!(second.results[0].as_ref().unwrap(), &clean);
    // Healed: the third run hits the rewritten entry.
    let third = sweep::run_with(&batch, &opts);
    assert_eq!(third.stats.cache_hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wall_deadline_surfaces_as_typed_error() {
    // A zero wall budget trips at the first poll (every 512 events).
    let out = sweep::run_with(
        &[mb("deadline", 0.5, 10_000)],
        &SweepOptions::serial().with_deadline(Duration::ZERO),
    );
    assert!(matches!(
        out.results[0],
        Err(SimError::DeadlineExceeded { .. })
    ));
    assert!(out.degraded);
}

#[test]
fn event_budget_surfaces_as_typed_error_and_is_deterministic() {
    let run = || {
        sweep::run_with(
            &[mb("capped", 0.5, 10_000)],
            &SweepOptions::serial().with_event_cap(1_000),
        )
    };
    let (a, b) = (run(), run());
    match (&a.results[0], &b.results[0]) {
        (
            Err(SimError::EventBudgetExhausted { budget: ba, at: ta }),
            Err(SimError::EventBudgetExhausted { budget: bb, at: tb }),
        ) => {
            assert_eq!(ba, bb);
            assert_eq!(ta, tb, "the event cap trips at the same simulated instant");
        }
        other => panic!("expected EventBudgetExhausted twice, got {other:?}"),
    }
}

#[test]
fn cancellation_token_stops_a_run_cooperatively() {
    let token = CancelToken::new();
    token.cancel();
    let budget = RunBudget::unlimited().cancelled_by(token);
    let err = mb("cancelled", 0.5, 10_000)
        .run_with_budget(&budget)
        .unwrap_err();
    assert!(matches!(err, SimError::DeadlineExceeded { wall_ms: 0, .. }));
}

#[test]
fn budgeted_run_inside_limits_is_bit_identical_to_unbudgeted() {
    let sc = mb("budgeted", 0.6, 500);
    let free = sc.run().unwrap();
    let budgeted = sc
        .run_with_budget(
            &RunBudget::unlimited()
                .with_wall_limit(Duration::from_secs(600))
                .with_max_events(u64::MAX / 2),
        )
        .unwrap();
    assert_eq!(free, budgeted);
}

#[test]
fn journal_truncation_resumes_the_remainder_bit_identically() {
    let dir = temp_dir("truncate");
    let batch = vec![mb("t0", 0.2, 300), mb("t1", 0.4, 300), mb("t2", 0.6, 300)];
    let opts = SweepOptions::serial().journaled(&dir);
    let reference = sweep::run_with(&batch, &opts);

    // Simulate a crash after the second scenario: drop the journal's last
    // completed record, keeping a valid prefix.
    let journal_path = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .expect("journal file exists");
    let text = std::fs::read_to_string(&journal_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // One done record per scenario: keep the first two lines (two
    // completed scenarios), plus a torn partial line for realism.
    assert_eq!(lines.len(), 3);
    let truncated = format!(
        "{}\n{}",
        lines[..2].join("\n"),
        &lines[2][..lines[2].len() / 2]
    );
    std::fs::write(&journal_path, truncated).unwrap();

    let resumed = sweep::run_with(&batch, &opts.clone().resuming(true));
    assert_eq!(
        resumed.stats.resumed, 2,
        "the two journaled scenarios replay; the torn record is dropped"
    );
    for (a, b) in reference.results.iter().zip(&resumed.results) {
        assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Four scenarios on two warm-up trunks: a sweep of them hydrates or
/// publishes `.snap` entries, writes cache entries and journals results.
fn ladder() -> Vec<Scenario> {
    (0..4u64)
        .map(|i| {
            let mut sc = mb(&format!("cut-{i}"), 0.3 + 0.1 * i as f64, 300)
                .with_warmup(SimDuration::from_millis(100));
            sc.config.seed = 40 + i % 2;
            sc
        })
        .collect()
}

fn result_bytes(out: &sweep::SweepReport) -> Vec<String> {
    out.results
        .iter()
        .map(|r| serde_json::to_string(r.as_ref().expect("scenario runs")).unwrap())
        .collect()
}

/// Every regular file under `dir`, with its bytes.
fn files_under(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        for entry in std::fs::read_dir(&d).unwrap().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                out.push((path.clone(), std::fs::read(&path).unwrap()));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn a_sweep_syncs_nothing_and_resumes_from_any_cut_to_the_reference_bytes() {
    let dir = temp_dir("power-cut");
    let batch = ladder();
    let reference = result_bytes(&sweep::run_with(&batch, &SweepOptions::serial()));
    let opts = SweepOptions::serial()
        .journaled(dir.join("journal"))
        .cached(dir.join("cache"))
        .snap_stored(dir.join("snapshots"))
        .resuming(true);
    // An earlier invocation leaves durable state for half of the batch.
    sweep::run_with(&batch[..2], &opts);

    let cut = PowerCut::install(&dir);
    let out = sweep::run_with(&batch, &opts);
    assert_eq!(result_bytes(&out), reference);
    assert!(out.stats.cache_hits > 0 && out.stats.snapshot.published > 0);
    assert_eq!(
        cut.syncs(),
        0,
        "journal, cache and snapshot writes are derived"
    );
    let images = cut.boundaries();
    drop(cut);
    assert!(
        images.len() > batch.len(),
        "every write is a record boundary"
    );
    // Nothing the sweep wrote was synced, so a cut at any boundary leaves
    // the state it started from, and resuming that reproduces the bytes.
    assert!(images.iter().all(|image| *image == images[0]));
    let written = files_under(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    images[0].restore().unwrap();
    assert_eq!(result_bytes(&sweep::run_with(&batch, &opts)), reference);

    // Between that worst case and SIGKILL, which loses nothing, a cut may
    // leave each unsynced file absent, empty or cut at a record boundary.
    // Every file gets each treatment in one of three resumes.
    for turn in 0..3 {
        let _ = std::fs::remove_dir_all(&dir);
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
        assert_eq!(
            result_bytes(&sweep::run_with(&batch, &opts)),
            reference,
            "turn {turn}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn auditor_reports_zero_violations_on_healthy_runs() {
    // Representative healthy scenarios under a tight cadence: a pinned
    // microbench and a scheduled app, plus a thermal-throttled variant so
    // the freq-cap check sees a real cap.
    use bl_workloads::apps::app_by_name;
    let mut audited = SystemConfig::baseline()
        .with_audit(true)
        .with_audit_cadence(16);
    audited.seed = 7;
    let mb_sc = Scenario::microbench(
        "audited-mb",
        CpuId(0),
        0.7,
        SimDuration::from_millis(10),
        SimDuration::from_millis(500),
        audited.clone(),
    );
    let app_sc = Scenario::app(
        "audited-app",
        app_by_name("Angry Bird").unwrap(),
        audited.with_thermal(true),
    );
    let out = sweep::run_with(&[mb_sc, app_sc], &SweepOptions::with_jobs(2));
    for r in &out.results {
        let r = r.as_ref().expect("audited healthy run succeeds");
        assert!(r.resilience.audit_checks > 0, "audit passes actually ran");
    }
    assert!(!out.degraded);
}

#[test]
fn audit_override_in_sweep_options_audits_every_scenario() {
    let out = sweep::run_with(
        &[mb("forced-audit", 0.5, 2_000)],
        &SweepOptions::serial().audited(true),
    );
    let r = out.results[0].as_ref().unwrap();
    assert!(r.resilience.audit_checks > 0);
}

#[test]
fn audited_run_is_bit_identical_to_unaudited() {
    let sc = mb("audit-identity", 0.5, 500);
    let plain = sc.run().unwrap();
    let mut audited_sc = sc.clone();
    audited_sc.config = audited_sc.config.with_audit(true).with_audit_cadence(8);
    let audited = audited_sc.run().unwrap();
    // Everything but the audit telemetry matches: auditing observes, never
    // perturbs.
    let mut audited_scrubbed = audited.clone();
    audited_scrubbed.resilience.audit_checks = 0;
    assert_eq!(plain, audited_scrubbed);
    assert!(audited.resilience.audit_checks > 0);
}

#[test]
fn broken_accounting_is_caught_as_invariant_violation() {
    let mut sim = Simulation::try_new(
        SystemConfig::baseline()
            .with_audit(true)
            .with_audit_cadence(4),
    )
    .unwrap();
    sim.spawn_microbench(CpuId(0), 0.5, SimDuration::from_millis(10));
    sim.try_run_until(SimTime::from_millis(50)).unwrap();
    assert!(
        sim.audit_checks() > 0,
        "the guard was live before corruption"
    );
    // Corrupt the auditor's clock: the next pass must fail loudly instead
    // of letting a time anomaly propagate into downstream results.
    sim.corrupt_audit_clock_for_test();
    let err = sim.try_run_until(SimTime::from_millis(200)).unwrap_err();
    match err {
        SimError::InvariantViolated { invariant, .. } => {
            assert_eq!(invariant, "time-monotone")
        }
        other => panic!("expected InvariantViolated, got {other}"),
    }
}

#[test]
fn watchdog_limit_is_configurable_and_carries_stuck_event_context() {
    let err = staller("stuck").run().unwrap_err();
    match err {
        SimError::WatchdogStall {
            iterations, detail, ..
        } => {
            assert_eq!(iterations, 1_001, "the lowered limit applies");
            assert!(
                detail.contains("MetricSample"),
                "detail names the stuck event: {detail}"
            );
        }
        other => panic!("expected WatchdogStall, got {other}"),
    }
}
