//! The experiment registry behind the `repro` binary: every paper table
//! and figure by id, rendered as text or as JSON.

#![warn(missing_docs)]

use biglittle::experiments::{ablation, appchar, arch, coreconfig, dvfs, resilience, tables};
use biglittle::SweepOptions;
use bl_simcore::time::SimDuration;

/// Default seed used by the reproduction runs.
pub const SEED: u64 = 42;

/// All experiment identifiers accepted by `repro --exp`. The `ablation-*`
/// and `resilience-*` entries go beyond the paper (see DESIGN.md §7 and
/// the fault-model section).
pub const EXPERIMENTS: [&str; 23] = [
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table3",
    "table4",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "table5",
    "table3-compare",
    "fig11-13",
    "ablation-tiny",
    "ablation-cache",
    "ablation-governors",
    "ablation-schedulers",
    "ablation-cpuidle",
    "resilience-outage",
    "resilience-thermal",
];

fn spec_ref(fast: bool) -> SimDuration {
    if fast {
        SimDuration::from_millis(200)
    } else {
        SimDuration::from_secs(2)
    }
}

fn micro_run(fast: bool) -> SimDuration {
    if fast {
        SimDuration::from_millis(300)
    } else {
        SimDuration::from_secs(2)
    }
}

fn thermal_len(fast: bool) -> SimDuration {
    if fast {
        SimDuration::from_secs(15)
    } else {
        SimDuration::from_secs(60)
    }
}

/// Runs one experiment by id and returns its rendered report, with the
/// serial no-cache defaults. See [`run_experiment_with`].
pub fn run_experiment(id: &str, seed: u64, fast: bool) -> String {
    run_experiment_with(id, seed, fast, &SweepOptions::default())
}

/// Runs one experiment by id and returns its rendered report.
///
/// `seed` drives every stochastic draw; `fast` shrinks run lengths for
/// smoke tests (the repro binary uses paper scale); `opts` sets sweep
/// parallelism and the result cache.
pub fn run_experiment_with(id: &str, seed: u64, fast: bool, opts: &SweepOptions) -> String {
    match id {
        "table1" => tables::table1(),
        "table2" => tables::table2(),
        "fig2" => arch::render_fig2(&arch::fig2_spec_speedup(spec_ref(fast), seed, opts)),
        "fig3" => arch::render_fig3(&arch::fig3_spec_power(spec_ref(fast), seed, opts)),
        "fig4" => appchar::render_fig4(&appchar::fig4_latency_big_vs_little(seed, opts)),
        "fig5" => appchar::render_fig5(&appchar::fig5_fps_big_vs_little(seed, opts)),
        "fig6" => arch::render_fig6(&arch::fig6_power_vs_utilization(
            micro_run(fast),
            seed,
            opts,
        )),
        "table3" => appchar::render_table3(&appchar::default_runs(seed, opts)),
        "table3-compare" => appchar::render_table3_comparison(&appchar::default_runs(seed, opts)),
        "table4" => appchar::render_table4(&appchar::default_runs(seed, opts)),
        "fig7" => coreconfig::render_fig7(&coreconfig::fig7_performance(seed, opts)),
        "fig8" => coreconfig::render_fig8(&coreconfig::fig8_power_saving(seed, opts)),
        "fig9" => dvfs::render_residency(
            &appchar::default_runs(seed, opts),
            bl_platform::ids::CoreKind::Little,
        ),
        "fig10" => dvfs::render_residency(
            &appchar::default_runs(seed, opts),
            bl_platform::ids::CoreKind::Big,
        ),
        "table5" => dvfs::render_table5(&appchar::default_runs(seed, opts)),
        "fig11-13" => {
            let s = dvfs::fig11_12_13_parameter_sweep(seed, opts);
            format!(
                "{}\n{}\n{}",
                dvfs::render_fig11(&s),
                dvfs::render_fig12(&s),
                dvfs::render_fig13(&s)
            )
        }
        "ablation-tiny" => ablation::render_tiny_floor(&ablation::tiny_floor_full(seed, opts)),
        "ablation-cache" => {
            ablation::render_equal_l2(&ablation::equal_l2_ablation(spec_ref(fast), seed, opts))
        }
        "ablation-governors" => ablation::render_governor_comparison(
            &ablation::governor_comparison(bl_workloads::apps::mobile_apps(), seed, opts),
        ),
        "ablation-schedulers" => ablation::render_scheduler_comparison(
            &ablation::scheduler_comparison(bl_workloads::apps::mobile_apps(), seed, opts),
        ),
        "ablation-cpuidle" => ablation::render_cpuidle(&ablation::cpuidle_ablation(
            bl_workloads::apps::mobile_apps(),
            seed,
            opts,
        )),
        "resilience-outage" => resilience::render_outage(&resilience::outage_comparison(
            bl_workloads::apps::mobile_apps(),
            seed,
            opts,
        )),
        "resilience-thermal" => resilience::render_throttle(&resilience::thermal_throttle(
            thermal_len(fast),
            seed,
            opts,
        )),
        other => panic!("unknown experiment {other:?}; known: {EXPERIMENTS:?}"),
    }
}

/// Runs one experiment and returns its results as structured JSON, with
/// the serial no-cache defaults. See [`run_experiment_json_with`].
pub fn run_experiment_json(id: &str, seed: u64, fast: bool) -> serde_json::Value {
    run_experiment_json_with(id, seed, fast, &SweepOptions::default())
}

/// Runs one experiment and returns its results as structured JSON (the
/// text tables are for humans; this is for scripts and plotting).
///
/// Static tables (`table1`, `table2`) return their rendered text wrapped in
/// a JSON string.
pub fn run_experiment_json_with(
    id: &str,
    seed: u64,
    fast: bool,
    opts: &SweepOptions,
) -> serde_json::Value {
    fn j<T: serde::Serialize>(v: T) -> serde_json::Value {
        serde_json::to_value(v).expect("experiment results serialize")
    }
    match id {
        "table1" => serde_json::Value::String(tables::table1()),
        "table2" => serde_json::Value::String(tables::table2()),
        "fig2" | "fig3" => j(arch::run_spec_matrix(spec_ref(fast), seed, opts)),
        "fig4" => j(appchar::fig4_latency_big_vs_little(seed, opts)),
        "fig5" => j(appchar::fig5_fps_big_vs_little(seed, opts)),
        "fig6" => j(arch::fig6_power_vs_utilization(micro_run(fast), seed, opts)),
        "table3" | "table3-compare" | "table4" | "fig9" | "fig10" | "table5" => {
            let runs = appchar::default_runs(seed, opts);
            let named: Vec<(String, &biglittle::RunResult)> =
                runs.iter().map(|(a, r)| (a.name.clone(), r)).collect();
            j(named)
        }
        "fig7" | "fig8" => j(coreconfig::fig7_performance(seed, opts)),
        "fig11-13" => j(dvfs::fig11_12_13_parameter_sweep(seed, opts)),
        "ablation-tiny" => j(ablation::tiny_floor_full(seed, opts)),
        "ablation-cache" => j(ablation::equal_l2_ablation(spec_ref(fast), seed, opts)),
        "ablation-governors" => j(ablation::governor_comparison(
            bl_workloads::apps::mobile_apps(),
            seed,
            opts,
        )),
        "ablation-schedulers" => j(ablation::scheduler_comparison(
            bl_workloads::apps::mobile_apps(),
            seed,
            opts,
        )),
        "ablation-cpuidle" => j(ablation::cpuidle_ablation(
            bl_workloads::apps::mobile_apps(),
            seed,
            opts,
        )),
        "resilience-outage" => j(resilience::outage_comparison(
            bl_workloads::apps::mobile_apps(),
            seed,
            opts,
        )),
        "resilience-thermal" => j(resilience::thermal_throttle(thermal_len(fast), seed, opts)),
        other => panic!("unknown experiment {other:?}; known: {EXPERIMENTS:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_run_instantly() {
        assert!(run_experiment("table1", SEED, true).contains("Cortex"));
        assert!(run_experiment("table2", SEED, true).contains("BBench"));
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        run_experiment("fig99", SEED, true);
    }

    #[test]
    fn every_experiment_id_renders_in_fast_mode() {
        for id in EXPERIMENTS {
            let text = run_experiment(id, SEED, true);
            assert!(!text.trim().is_empty(), "{id} rendered empty");
            let json = run_experiment_json(id, SEED, true);
            assert!(!json.is_null(), "{id} produced null JSON");
        }
    }
}
