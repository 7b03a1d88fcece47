//! Serializable descriptions of one simulation run.
//!
//! A [`Scenario`] captures everything a run depends on — platform preset,
//! [`SystemConfig`] (seed and fault plan included), workloads and stop
//! condition — as plain data. That makes a run *schedulable*: the sweep
//! engine (see [`crate::sweep`]) can execute batches of scenarios on a
//! worker pool, and the serialized form is the input to the on-disk result
//! cache's key, so identical scenarios are never simulated twice.
//!
//! Executing a scenario builds a fresh [`Simulation`] through
//! [`Simulation::builder`], spawns the workloads in declaration order and
//! runs to the stop condition — exactly the code path a hand-rolled
//! experiment loop would take, which is what keeps sweep results
//! bit-identical to the serial path.

use crate::config::SystemConfig;
use crate::result::RunResult;
use crate::sim::{SimSnapshot, Simulation};
use bl_governor::GovernorConfig;
use bl_kernel::task::Affinity;
use bl_platform::exynos::{exynos5422, exynos5422_equal_l2, exynos5422_tiny_floor};
use bl_platform::ids::CpuId;
use bl_platform::topology::Platform;
use bl_simcore::budget::RunBudget;
use bl_simcore::error::SimError;
use bl_simcore::fault::FaultPlan;
use bl_simcore::time::{SimDuration, SimTime};
use bl_workloads::apps::AppModel;
use bl_workloads::spec::SpecKernel;
use serde::{Deserialize, Serialize};

/// The platform a scenario runs on, named rather than embedded so the
/// serialized form stays small and stable across platform-table tweaks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlatformPreset {
    /// The Exynos-5422-class model every headline experiment uses.
    #[default]
    Exynos5422,
    /// Ablation: the big cluster's L2 shrunk to the little cluster's size.
    EqualL2,
    /// Ablation: the little cores' microarchitecture scaled further down.
    TinyFloor,
}

impl PlatformPreset {
    /// Instantiates the platform description.
    pub fn build(&self) -> Platform {
        match self {
            PlatformPreset::Exynos5422 => exynos5422(),
            PlatformPreset::EqualL2 => exynos5422_equal_l2(),
            PlatformPreset::TinyFloor => exynos5422_tiny_floor(),
        }
    }
}

/// One workload inside a scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Workload {
    /// A mobile app model with a placement constraint.
    App {
        /// The app to run.
        app: AppModel,
        /// Where its threads may run.
        affinity: Affinity,
    },
    /// A SPEC kernel (by suite name) pinned to one CPU, sized to run
    /// `ref_duration` on a little core at 1.3 GHz.
    Spec {
        /// Name of the kernel within [`SpecKernel::suite`].
        kernel: String,
        /// The CPU it is pinned to.
        cpu: usize,
        /// Reference duration the work is sized against.
        ref_duration: SimDuration,
    },
    /// The utilization microbenchmark pinned to one CPU.
    Microbench {
        /// The CPU it is pinned to.
        cpu: usize,
        /// Fraction of each period spent computing.
        duty: f64,
        /// Period of the busy/idle cycle.
        period: SimDuration,
    },
}

/// Parameters a scenario binds *after* its warm-up prefix, at
/// `t = warmup`: the knobs sweep grids typically vary while everything
/// before the split point stays byte-identical. Scenarios differing only
/// in late bindings (and label / stop condition) share a warmed-up
/// [`SimSnapshot`] in prefix-sharing sweeps instead of each replaying the
/// prefix.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LateBindings {
    /// Replacement governors (one per cluster), swapped in at the warm-up
    /// point; `None` keeps the prefix governors.
    #[serde(default)]
    pub governors: Option<Vec<GovernorConfig>>,
    /// Additional faults scheduled at the warm-up point; onsets before it
    /// fire immediately.
    #[serde(default)]
    pub faults: FaultPlan,
}

impl LateBindings {
    /// True when the bindings change nothing.
    pub fn is_empty(&self) -> bool {
        self.governors.is_none() && self.faults.is_empty()
    }
}

/// When a scenario's run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopWhen {
    /// Run for exactly this long.
    Deadline(SimDuration),
    /// Run the first `App` workload to its natural end via
    /// [`Simulation::try_run_app`] (latency apps until the script
    /// completes, FPS apps for their full `run_for`).
    FirstAppDone,
    /// Run until every task exited, capped at `cap`.
    AllExited {
        /// Upper bound on the run length.
        cap: SimDuration,
    },
}

/// A serializable description of one simulation run: platform, system
/// configuration (seed and fault plan included), workloads and stop
/// condition.
///
/// ```
/// use biglittle::{Scenario, SystemConfig};
/// use bl_workloads::apps::app_by_name;
///
/// let app = app_by_name("Browser").unwrap();
/// let sc = Scenario::app("browser-baseline", app, SystemConfig::baseline());
/// let result = sc.run().expect("valid scenario");
/// assert!(result.latency.is_some());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable label, used in progress output and error reports.
    pub label: String,
    /// The platform preset to simulate.
    pub platform: PlatformPreset,
    /// The system configuration (includes seed and fault plan).
    pub config: SystemConfig,
    /// Workloads, spawned in declaration order.
    pub workloads: Vec<Workload>,
    /// The stop condition.
    pub stop: StopWhen,
    /// Optional warm-up split point: the run executes to this time first,
    /// then applies `late` and continues to `stop`. Scenarios with equal
    /// prefixes (everything except label, `late` and `stop`) can share a
    /// snapshot taken here.
    #[serde(default)]
    pub warmup: Option<SimDuration>,
    /// Intermediate checkpoint instants *before* `warmup` (strictly
    /// ascending, each below `warmup`; requires `warmup`). The run stops
    /// at each instant on its way to the warm-up point — on the cold path
    /// and on the snapshot-trunk path alike, so both traverse the *same*
    /// stop schedule and stay bit-identical (a mid-run stop is an extra
    /// PELT/accounting update point, so it is part of the run's numeric
    /// identity, not a free implementation detail).
    ///
    /// This is what makes *nested* prefix sharing sound: a grid over
    /// warm-up lengths `w_0 < w_1 < … < w_n` built as a ladder (member
    /// `k` has `warmup = w_k, warmup_via = [w_0 … w_{k-1}]`) lets the
    /// sweep planner simulate one trunk that snapshots at every `w_k`
    /// and fork each member from its own level — snapshots forked from
    /// the states of earlier snapshots, each prefix segment simulated
    /// once.
    #[serde(default)]
    pub warmup_via: Vec<SimDuration>,
    /// Parameters bound at the warm-up point (requires `warmup`).
    #[serde(default)]
    pub late: Option<LateBindings>,
}

impl Scenario {
    /// A scenario running `app` with free placement to its natural end.
    pub fn app(label: impl Into<String>, app: AppModel, config: SystemConfig) -> Self {
        Scenario::app_with_affinity(label, app, Affinity::Any, config)
    }

    /// A scenario running `app` with all threads forced to `affinity`.
    pub fn app_with_affinity(
        label: impl Into<String>,
        app: AppModel,
        affinity: Affinity,
        config: SystemConfig,
    ) -> Self {
        Scenario {
            label: label.into(),
            platform: PlatformPreset::default(),
            config,
            workloads: vec![Workload::App { app, affinity }],
            stop: StopWhen::FirstAppDone,
            warmup: None,
            warmup_via: Vec::new(),
            late: None,
        }
    }

    /// A scenario running one SPEC kernel pinned to `cpu`, stopping when
    /// every task exited (capped at 4× the reference duration, matching the
    /// architecture experiments).
    pub fn spec(
        label: impl Into<String>,
        kernel: &SpecKernel,
        cpu: CpuId,
        ref_duration: SimDuration,
        config: SystemConfig,
    ) -> Self {
        Scenario {
            label: label.into(),
            platform: PlatformPreset::default(),
            config,
            workloads: vec![Workload::Spec {
                kernel: kernel.name.to_string(),
                cpu: cpu.0,
                ref_duration,
            }],
            stop: StopWhen::AllExited {
                cap: ref_duration * 4,
            },
            warmup: None,
            warmup_via: Vec::new(),
            late: None,
        }
    }

    /// A scenario running the utilization microbenchmark on `cpu` for
    /// exactly `run_for`.
    pub fn microbench(
        label: impl Into<String>,
        cpu: CpuId,
        duty: f64,
        period: SimDuration,
        run_for: SimDuration,
        config: SystemConfig,
    ) -> Self {
        Scenario {
            label: label.into(),
            platform: PlatformPreset::default(),
            config,
            workloads: vec![Workload::Microbench {
                cpu: cpu.0,
                duty,
                period,
            }],
            stop: StopWhen::Deadline(run_for),
            warmup: None,
            warmup_via: Vec::new(),
            late: None,
        }
    }

    /// Switches the scenario onto a different platform preset.
    pub fn on(mut self, platform: PlatformPreset) -> Self {
        self.platform = platform;
        self
    }

    /// Replaces the stop condition.
    pub fn with_stop(mut self, stop: StopWhen) -> Self {
        self.stop = stop;
        self
    }

    /// Appends another workload (spawned after the existing ones).
    pub fn push(mut self, workload: Workload) -> Self {
        self.workloads.push(workload);
        self
    }

    /// Sets the warm-up split point (see [`Scenario::warmup`]).
    pub fn with_warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = Some(warmup);
        self
    }

    /// Sets the intermediate checkpoint instants before the warm-up point
    /// (see [`Scenario::warmup_via`]). Validated when the scenario runs.
    pub fn with_warmup_via(mut self, via: Vec<SimDuration>) -> Self {
        self.warmup_via = via;
        self
    }

    /// Sets the parameters bound at the warm-up point.
    pub fn with_late(mut self, late: LateBindings) -> Self {
        self.late = Some(late);
        self
    }

    /// Executes the scenario: builds a fresh [`Simulation`], spawns the
    /// workloads in order and runs to the stop condition.
    ///
    /// # Errors
    ///
    /// Construction errors ([`SimError::InvalidConfig`],
    /// [`SimError::InvalidFaultPlan`]), runtime errors
    /// ([`SimError::WatchdogStall`], [`SimError::TaskLost`]), and
    /// [`SimError::InvalidConfig`] for a `Spec` workload naming an unknown
    /// kernel or a `FirstAppDone` stop without any `App` workload.
    pub fn run(&self) -> Result<RunResult, SimError> {
        self.run_with_budget(&RunBudget::unlimited())
    }

    /// [`Scenario::run`] under an execution budget: the wall-clock
    /// deadline starts when the simulation is built, and the event loop
    /// books every processed event against the cap / cancellation token.
    /// The simulated results are bit-identical to an unbudgeted run that
    /// stays inside the limits.
    ///
    /// # Errors
    ///
    /// Everything [`Scenario::run`] reports, plus
    /// [`SimError::DeadlineExceeded`] / [`SimError::EventBudgetExhausted`]
    /// when a limit is crossed.
    pub fn run_with_budget(&self, budget: &RunBudget) -> Result<RunResult, SimError> {
        self.validate_via()?;
        let mut sim = self.instantiate(budget)?;
        if let Some(w) = self.warmup {
            // Stop at every checkpoint on the way — the via schedule is
            // part of the run's numeric identity (see `warmup_via`), so
            // the cold path must traverse exactly the stops the
            // snapshot-trunk path does.
            for &v in &self.warmup_via {
                sim.try_run_until(SimTime::ZERO + v)?;
            }
            sim.try_run_until(SimTime::ZERO + w)?;
            self.apply_late(&mut sim)?;
        }
        self.run_to_stop(&mut sim)
    }

    /// Runs *one* simulation through every chain point of this scenario
    /// (each `warmup_via` instant, then `warmup`), capturing a
    /// [`SimSnapshot`] at each stop — the trunk of a nested prefix tree.
    /// Snapshot `k` is in exactly the state a cold run of a ladder member
    /// with `warmup = chain[k], warmup_via = chain[..k]` would be in at
    /// its warm-up point, so each member forks from its own level and
    /// every shared prefix segment is simulated once.
    ///
    /// Returns the snapshots in chain order (`warmup_via.len() + 1`
    /// entries; the last is the full warm-up snapshot, which every
    /// scenario with an equal last [`crate::sweep::chain_keys`] key can
    /// continue from via [`Scenario::run_forked`]).
    ///
    /// # Errors
    ///
    /// Everything [`Scenario::run_with_budget`] reports, plus
    /// [`SimError::InvalidConfig`] when the scenario has no warm-up point
    /// and [`SimError::SnapshotUnsupported`] when the warmed-up state
    /// cannot be captured (e.g. a closure-driven task).
    pub fn snapshot_prefix_chain(&self, budget: &RunBudget) -> Result<Vec<SimSnapshot>, SimError> {
        Ok(self
            .snapshot_prefix_chain_timed(budget)?
            .into_iter()
            .map(|(s, _)| s)
            .collect())
    }

    /// [`Scenario::snapshot_prefix_chain`], additionally reporting the
    /// cumulative wall-clock milliseconds spent simulating up to each
    /// snapshot — the replay cost a store hit at that rung saves, which
    /// the persistent snapshot store records beside each published entry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::snapshot_prefix_chain`].
    pub fn snapshot_prefix_chain_timed(
        &self,
        budget: &RunBudget,
    ) -> Result<Vec<(SimSnapshot, f64)>, SimError> {
        let w = self.warmup.ok_or_else(|| {
            SimError::config(format!(
                "scenario {:?} has no warmup point to snapshot",
                self.label
            ))
        })?;
        self.validate_via()?;
        let started = std::time::Instant::now();
        let mut sim = self.instantiate(budget)?;
        let mut snaps = Vec::with_capacity(self.warmup_via.len() + 1);
        for &v in &self.warmup_via {
            sim.try_run_until(SimTime::ZERO + v)?;
            let warm_ms = started.elapsed().as_secs_f64() * 1e3;
            snaps.push((sim.snapshot()?, warm_ms));
        }
        sim.try_run_until(SimTime::ZERO + w)?;
        let warm_ms = started.elapsed().as_secs_f64() * 1e3;
        snaps.push((sim.snapshot()?, warm_ms));
        Ok(snaps)
    }

    /// Continues this scenario from a warmed-up prefix snapshot: forks the
    /// snapshot, applies the late bindings at the warm-up point and runs
    /// to the stop condition — bit-identical to the cold
    /// [`Scenario::run_with_budget`] path, which warms up, applies the
    /// same bindings at the same instant and continues in the same state.
    ///
    /// The caller is responsible for passing a snapshot of *this
    /// scenario's* prefix; the sweep planner guarantees it by matching
    /// chain keys, which hash the serialized prefix scenario.
    ///
    /// # Errors
    ///
    /// Everything [`Scenario::run_with_budget`] reports, plus
    /// [`SimError::SnapshotUnsupported`] when the snapshot cannot be
    /// restored.
    pub fn run_forked(
        &self,
        snapshot: &SimSnapshot,
        budget: &RunBudget,
    ) -> Result<RunResult, SimError> {
        let mut sim = Simulation::fork(snapshot)?;
        sim.set_budget(budget);
        self.apply_late(&mut sim)?;
        self.run_to_stop(&mut sim)
    }

    /// The full ladder of stop instants of this scenario's prefix: every
    /// `warmup_via` checkpoint followed by `warmup`. Empty when the
    /// scenario has no warm-up point.
    pub fn chain_points(&self) -> Vec<SimDuration> {
        let Some(w) = self.warmup else {
            return Vec::new();
        };
        let mut points = self.warmup_via.clone();
        points.push(w);
        points
    }

    /// The scenario's shared prefix truncated at chain level `level`
    /// (`0..chain_points().len()`), normalized for keying: label cleared,
    /// late bindings dropped, stop pinned to `chain_points()[level]`, and
    /// the checkpoints before it kept (two runs that stop at different
    /// intermediate instants are *not* in the same state at the warm-up
    /// point — see [`Scenario::warmup_via`]). Level `warmup_via.len()` is
    /// the full prefix; lower levels are the ancestors the planner keys
    /// snapshot-tree nodes by ([`crate::sweep::chain_keys`]) — a ladder
    /// member's level-`k` prefix equals the full prefix of the member `k`
    /// rungs down.
    ///
    /// # Panics
    ///
    /// Panics when the scenario has no warm-up point or `level` exceeds
    /// `warmup_via.len()`.
    pub fn prefix_scenario_at(&self, level: usize) -> Scenario {
        let w = self.warmup.expect("prefix_scenario_at without warmup");
        assert!(level <= self.warmup_via.len(), "chain level out of range");
        let stop_at = if level == self.warmup_via.len() {
            w
        } else {
            self.warmup_via[level]
        };
        Scenario {
            label: String::new(),
            platform: self.platform,
            config: self.config.clone(),
            workloads: self.workloads.clone(),
            stop: StopWhen::Deadline(stop_at),
            warmup: None,
            warmup_via: self.warmup_via[..level].to_vec(),
            late: None,
        }
    }

    /// Validates the checkpoint schedule: `warmup_via` requires a warm-up
    /// point, must ascend strictly and stay strictly below `warmup`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] describing the violation.
    fn validate_via(&self) -> Result<(), SimError> {
        if self.warmup_via.is_empty() {
            return Ok(());
        }
        let Some(w) = self.warmup else {
            return Err(SimError::config(format!(
                "scenario {:?} has warmup_via checkpoints but no warmup point",
                self.label
            )));
        };
        let mut prev: Option<SimDuration> = None;
        for &v in &self.warmup_via {
            if prev.is_some_and(|p| v <= p) {
                return Err(SimError::config(format!(
                    "scenario {:?}: warmup_via must ascend strictly",
                    self.label
                )));
            }
            if v >= w {
                return Err(SimError::config(format!(
                    "scenario {:?}: warmup_via checkpoint {:?} is not below warmup {:?}",
                    self.label, v, w
                )));
            }
            prev = Some(v);
        }
        Ok(())
    }

    /// Builds the simulation and spawns the workloads, without running.
    fn instantiate(&self, budget: &RunBudget) -> Result<Simulation, SimError> {
        let mut sim = Simulation::builder()
            .platform(self.platform.build())
            .config(self.config.clone())
            .budget(budget.clone())
            .build()?;
        for w in &self.workloads {
            match w {
                Workload::App { app, affinity } => {
                    sim.spawn_app_with_affinity(app, *affinity);
                }
                Workload::Spec {
                    kernel,
                    cpu,
                    ref_duration,
                } => {
                    let suite = SpecKernel::suite();
                    let spec = suite.iter().find(|s| s.name == kernel).ok_or_else(|| {
                        SimError::config(format!("unknown SPEC kernel {kernel:?}"))
                    })?;
                    sim.spawn_spec(spec, CpuId(*cpu), *ref_duration);
                }
                Workload::Microbench { cpu, duty, period } => {
                    sim.spawn_microbench(CpuId(*cpu), *duty, *period);
                }
            }
        }
        Ok(sim)
    }

    /// Applies the late bindings (no-op without any).
    fn apply_late(&self, sim: &mut Simulation) -> Result<(), SimError> {
        if let Some(late) = &self.late {
            if let Some(govs) = &late.governors {
                sim.replace_governors(govs)?;
            }
            sim.schedule_late_faults(&late.faults)?;
        }
        Ok(())
    }

    /// Runs an instantiated (and possibly warmed-up) simulation to the
    /// scenario's stop condition.
    fn run_to_stop(&self, sim: &mut Simulation) -> Result<RunResult, SimError> {
        match self.stop {
            StopWhen::Deadline(d) => {
                sim.try_run_until(SimTime::ZERO + d)?;
                Ok(sim.finish())
            }
            StopWhen::FirstAppDone => {
                let app = self
                    .workloads
                    .iter()
                    .find_map(|w| match w {
                        Workload::App { app, .. } => Some(app),
                        _ => None,
                    })
                    .ok_or_else(|| {
                        SimError::config(format!(
                            "scenario {:?} stops at FirstAppDone but has no App workload",
                            self.label
                        ))
                    })?;
                sim.try_run_app(app)
            }
            StopWhen::AllExited { cap } => {
                sim.try_run_until_or(SimTime::ZERO + cap, |s| s.kernel().all_exited())?;
                Ok(sim.finish())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bl_workloads::apps::app_by_name;

    #[test]
    fn scenario_run_matches_hand_rolled_simulation() {
        let app = app_by_name("Browser").unwrap();
        let cfg = SystemConfig::baseline().with_seed(7);
        let from_scenario = Scenario::app("browser", app.clone(), cfg.clone())
            .run()
            .unwrap();
        let mut sim = Simulation::try_new(cfg).unwrap();
        sim.spawn_app(&app);
        let by_hand = sim.try_run_app(&app).unwrap();
        assert_eq!(from_scenario, by_hand);
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let app = app_by_name("Video Player").unwrap();
        let sc = Scenario::app("vp", app, SystemConfig::baseline().with_seed(3));
        let json = serde_json::to_string(&sc).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back.run().unwrap(), sc.run().unwrap());
    }

    #[test]
    fn unknown_spec_kernel_is_a_typed_error() {
        let suite = SpecKernel::suite();
        let mut sc = Scenario::spec(
            "bad",
            &suite[0],
            CpuId(0),
            SimDuration::from_millis(100),
            SystemConfig::pinned_frequencies(1_300_000, 800_000),
        );
        let Workload::Spec { kernel, .. } = &mut sc.workloads[0] else {
            unreachable!()
        };
        *kernel = "no-such-kernel".to_string();
        assert!(matches!(
            sc.run().unwrap_err(),
            SimError::InvalidConfig { .. }
        ));
    }

    #[test]
    fn first_app_done_without_app_is_a_typed_error() {
        let sc = Scenario::microbench(
            "mb",
            CpuId(0),
            0.5,
            SimDuration::from_millis(10),
            SimDuration::from_millis(100),
            SystemConfig::baseline(),
        )
        .with_stop(StopWhen::FirstAppDone);
        assert!(matches!(
            sc.run().unwrap_err(),
            SimError::InvalidConfig { .. }
        ));
    }
}
