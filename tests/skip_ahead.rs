//! Idle skip-ahead equivalence: `skip_ahead = true` must be a pure
//! wall-clock optimization. Every observable — power, energy, TLP matrix,
//! residencies, latency, FPS, migrations, resilience counters, traces —
//! has to come out bit-identical to the ticked path, across idle-heavy
//! apps, cpuidle, tracing, fault plans and every governor.

use biglittle::{RunResult, Simulation, SystemConfig};
use bl_governor::GovernorConfig;
use bl_platform::ids::CpuId;
use bl_simcore::fault::FaultPlan;
use bl_simcore::time::{SimDuration, SimTime};
use bl_workloads::apps::{app_by_name, AppKind, AppModel, ScriptedSpec};
use bl_workloads::PerfMetric;
use proptest::prelude::*;

/// Runs the same scenario with skip-ahead on and off and returns both
/// results; `drive` receives each freshly built simulation.
fn run_pair(
    cfg: &SystemConfig,
    drive: impl Fn(&mut Simulation) -> RunResult,
) -> (RunResult, RunResult) {
    let mut on = Simulation::try_new(cfg.clone().with_skip_ahead(true)).unwrap();
    let mut off = Simulation::try_new(cfg.clone().with_skip_ahead(false)).unwrap();
    (drive(&mut on), drive(&mut off))
}

/// The paper's §IV usage pattern distilled over 5 s: the user thinks for
/// seconds between actions, each action is a short UI burst plus two
/// fan-out jobs, and no timer stays armed through the gaps.
fn interactive_idle_heavy() -> AppModel {
    AppModel {
        name: "interactive-idle-heavy".into(),
        metric: PerfMetric::Latency,
        run_for: SimDuration::from_secs(5),
        kind: AppKind::Scripted(ScriptedSpec {
            // ~2.1 s mean think + ~0.3 s busy work per action.
            n_actions: 3,
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

/// A result's serialized bytes with `events_processed` zeroed: skip-ahead
/// elides idle ticks, so that count is the one field the two modes may
/// differ in (DESIGN.md §3.5); every other byte must match.
fn observable_bytes(mut r: RunResult) -> String {
    r.events_processed = 0;
    serde_json::to_string(&r).unwrap()
}

#[test]
fn pure_idle_run_is_bit_identical_under_every_governor() {
    let governors = [
        GovernorConfig::platform_default(),
        GovernorConfig::Performance,
        GovernorConfig::Powersave,
        GovernorConfig::Userspace(800_000),
        GovernorConfig::Ondemand(Default::default()),
        GovernorConfig::Conservative(Default::default()),
    ];
    for g in governors {
        let cfg = SystemConfig::baseline().screen(false).with_governor(g);
        let (on, off) = run_pair(&cfg, |sim| {
            sim.try_run_until(SimTime::from_secs(2)).unwrap();
            sim.finish()
        });
        assert_eq!(on.tlp.idle_pct, 100.0);
        // The whole 2 s is elided except the tick, metric sample and two
        // governor samples due at the deadline itself: the skip leaves an
        // event tied with its horizon queued, and the loop fires it.
        assert_eq!(on.events_processed, 4, "governor {g:?}");
        assert_eq!(
            observable_bytes(on),
            observable_bytes(off),
            "governor {g:?}"
        );
    }
}

#[test]
fn idle_heavy_app_is_bit_identical() {
    // The timer-fragmented Browser, a user-paced app whose gaps no timer
    // bounds, and a TLP-heavy game that leaves the skip path no room. The
    // skip-on event counts are pinned: they move if the skip fires one
    // event too many or too few, which the zeroed bytes below cannot see.
    for (app, secs, idle_gaps, events_on) in [
        (app_by_name("Browser").unwrap(), 5, true, 1298),
        (interactive_idle_heavy(), 5, true, 93),
        (app_by_name("Angry Bird").unwrap(), 1, false, 534),
    ] {
        let (on, off) = run_pair(&SystemConfig::baseline(), |sim| {
            sim.spawn_app(&app);
            sim.try_run_until(SimTime::from_secs(secs)).unwrap();
            sim.finish()
        });
        assert_eq!(on.events_processed, events_on, "{}", app.name);
        if idle_gaps {
            assert!(on.tlp.idle_pct > 0.0, "{} should leave idle gaps", app.name);
            assert!(
                on.events_processed < off.events_processed,
                "{}: the skip path elided no event",
                app.name
            );
        }
        assert_eq!(observable_bytes(on), observable_bytes(off), "{}", app.name);
    }
}

#[test]
fn cpuidle_run_is_bit_identical() {
    let app = app_by_name("Browser").unwrap();
    let cfg = SystemConfig::baseline().with_cpuidle(true);
    let (on, off) = run_pair(&cfg, |sim| {
        sim.spawn_app(&app);
        sim.try_run_until(SimTime::from_secs(4)).unwrap();
        sim.finish()
    });
    assert_eq!(on, off);
}

#[test]
fn microbench_duty_cycle_is_bit_identical() {
    // 20% duty leaves an 80 ms timer-bounded idle gap every period: the
    // skip must stop exactly at each wake and resume after it.
    for duty in [0.2, 0.5, 0.8] {
        let cfg = SystemConfig::baseline().screen(false);
        let (on, off) = run_pair(&cfg, |sim| {
            sim.spawn_microbench(CpuId(0), duty, SimDuration::from_millis(100));
            sim.try_run_until(SimTime::from_secs(2)).unwrap();
            sim.finish()
        });
        assert_eq!(observable_bytes(on), observable_bytes(off), "duty {duty}");
    }
}

#[test]
fn faulted_thermal_run_is_bit_identical() {
    // Thermal pins the sampler to the grid and faults add hotplug,
    // governor stalls and heat spikes; the skip must stay exact around
    // all of them.
    let app = app_by_name("Browser").unwrap();
    let plan = FaultPlan::random(21, 8, SimDuration::from_secs(2), 8, 2);
    let cfg = SystemConfig::baseline()
        .with_faults(plan)
        .with_thermal(true);
    let (on, off) = run_pair(&cfg, |sim| {
        sim.spawn_app(&app);
        sim.try_run_until(SimTime::from_secs(3)).unwrap();
        sim.finish()
    });
    assert_eq!(on, off);
}

#[test]
fn traced_run_matches_and_keeps_every_row() {
    let app = app_by_name("Browser").unwrap();
    let build = |skip: bool| {
        let mut sim = Simulation::builder()
            .config(SystemConfig::baseline().with_skip_ahead(skip))
            .tracing(true)
            .build()
            .unwrap();
        sim.spawn_app(&app);
        sim.try_run_until(SimTime::from_secs(2)).unwrap();
        let trace = sim.trace().unwrap().clone();
        (sim.finish(), trace)
    };
    let (on, trace_on) = build(true);
    let (off, trace_off) = build(false);
    assert_eq!(on, off);
    assert_eq!(trace_on, trace_off);
    // Tracing pins the sampler: one row per 10 ms even through idle gaps.
    assert!(trace_on.len() >= 190, "rows = {}", trace_on.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Randomized scenario sweep: seed, workload mix and subsystem toggles.
    #[test]
    fn random_scenarios_are_bit_identical(
        seed in 0u64..1_000,
        app_idx in 0usize..3,
        cpuidle in proptest::bool::ANY,
        duty in 0.1f64..0.9,
    ) {
        let name = ["Browser", "PDF Reader", "Angry Bird"][app_idx];
        let app = app_by_name(name).unwrap();
        let cfg = SystemConfig::baseline()
            .with_seed(seed)
            .with_cpuidle(cpuidle);
        let (on, off) = run_pair(&cfg, |sim| {
            sim.spawn_app(&app);
            sim.spawn_microbench(CpuId(4), duty, SimDuration::from_millis(50));
            sim.try_run_until(SimTime::from_secs(2)).unwrap();
            sim.finish()
        });
        prop_assert_eq!(on, off);
    }
}
