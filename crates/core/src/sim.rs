//! The discrete-event simulation driver wiring every substrate together.

use crate::config::SystemConfig;
use crate::result::{ResilienceStats, RunResult};
use bl_governor::{ClusterSample, CpufreqGovernor, GovernorConfig};
use bl_kernel::accounting::BusyWindow;
use bl_kernel::kernel::{Hw, Kernel, KernelConfig, KernelSaved, WakeRequest};
use bl_kernel::task::{Affinity, AppSignal, RestoreCtx, SaveCtx, TaskBehavior, TaskId};
use bl_metrics::{MetricsCollector, MetricsSaved, Trace, TraceRow};
use bl_platform::exynos::exynos5422;
use bl_platform::ids::{ClusterId, CoreKind, CpuId};
use bl_platform::state::PlatformState;
use bl_platform::topology::Platform;
use bl_power::{CpuidleTable, PowerMeter, PowerModel, ThermalBank, ThermalParams};
use bl_simcore::audit::InvariantGuard;
use bl_simcore::budget::{ArmedBudget, RunBudget};
use bl_simcore::error::SimError;
use bl_simcore::event::EventQueue;
use bl_simcore::fault::{FaultEvent, FaultKind, FaultPlan};
use bl_simcore::journal::fnv1a;
use bl_simcore::rng::{RngState, SimRng};
use bl_simcore::time::{SimDuration, SimTime};
use bl_workloads::apps::{AppInstance, AppModel};
use bl_workloads::microbench::MicroBench;
use bl_workloads::replay::RecordedTrace;
use bl_workloads::spec::SpecKernel;
use bl_workloads::threads::{CompletionTracker, TrackerSaved};
use bl_workloads::PerfMetric;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
enum Ev {
    Tick,
    Timer(WakeRequest),
    GovSample(ClusterId),
    MetricSample,
    /// Promote `cpu` to the next deeper idle state if its idle episode
    /// (identified by the sequence number) is still running.
    IdlePromote(CpuId, u64),
    /// A scheduled fault from the run's [`bl_simcore::fault::FaultPlan`]
    /// fires.
    Fault(FaultEvent),
}

/// Runtime state of the thermal subsystem: one RC node per cluster,
/// stored structure-of-arrays in a [`ThermalBank`] so the per-sample
/// integration is one batch pass over contiguous state.
#[derive(Debug)]
struct ThermalRt {
    nodes: ThermalBank,
    /// When the nodes were last advanced (temperature integrates between
    /// metric samples).
    last_advance: SimTime,
    /// When each cluster's current throttle episode began, if throttled.
    throttle_since: Vec<Option<SimTime>>,
    /// Per-CPU busy window: the RC nodes integrate the *time-averaged*
    /// power over each interval, which is step-size independent and immune
    /// to aliasing between the sampling grid and periodic workloads.
    window: BusyWindow,
    /// Reusable per-cluster power buffer fed to the batch advance.
    power_scratch: Vec<f64>,
    /// Reusable per-CPU activity buffer for one cluster at a time.
    acts_scratch: Vec<f64>,
    /// Reusable list of nodes whose throttle state flipped this advance.
    changed_scratch: Vec<usize>,
}

/// Serialized form of [`ThermalRt`]: the RC nodes, throttle episodes and
/// busy window; the scratch buffers are rebuilt empty.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct ThermalRtSaved {
    nodes: ThermalBank,
    last_advance: SimTime,
    throttle_since: Vec<Option<SimTime>>,
    window: BusyWindow,
}

impl ThermalRt {
    fn state_save(&self) -> ThermalRtSaved {
        ThermalRtSaved {
            nodes: self.nodes.clone(),
            last_advance: self.last_advance,
            throttle_since: self.throttle_since.clone(),
            window: self.window.clone(),
        }
    }

    fn state_restore(saved: &ThermalRtSaved) -> ThermalRt {
        let n = saved.throttle_since.len();
        ThermalRt {
            nodes: saved.nodes.clone(),
            last_advance: saved.last_advance,
            throttle_since: saved.throttle_since.clone(),
            window: saved.window.clone(),
            power_scratch: Vec::with_capacity(n),
            acts_scratch: Vec::new(),
            changed_scratch: Vec::new(),
        }
    }

    fn new(platform: &Platform, window: BusyWindow, start: SimTime) -> Self {
        let params: Vec<ThermalParams> = platform
            .topology
            .clusters()
            .iter()
            .map(|c| match c.core.kind {
                CoreKind::Big => ThermalParams::exynos5422_big(),
                CoreKind::Little => ThermalParams::exynos5422_little(),
            })
            .collect();
        let n = params.len();
        ThermalRt {
            nodes: ThermalBank::new(params),
            last_advance: start,
            throttle_since: vec![None; n],
            window,
            power_scratch: Vec::with_capacity(n),
            acts_scratch: Vec::new(),
            changed_scratch: Vec::new(),
        }
    }
}

/// Runtime state of the cpuidle subsystem.
#[derive(Debug)]
struct CpuidleRt {
    /// Idle-state table per CPU (indexed by cpu id).
    tables: Vec<CpuidleTable>,
    /// Current idle-state ladder position per CPU (`None` = busy).
    state: Vec<Option<usize>>,
    /// Episode sequence numbers to invalidate stale promotion events.
    seq: Vec<u64>,
    /// When the current idle episode began (valid while `state` is Some).
    idle_since: Vec<SimTime>,
}

/// Serialized form of [`CpuidleRt`]: the per-CPU ladder positions and
/// episode bookkeeping; the idle-state tables are static per core kind and
/// are rebuilt from the platform on restore.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct CpuidleRtSaved {
    state: Vec<Option<usize>>,
    seq: Vec<u64>,
    idle_since: Vec<SimTime>,
}

impl CpuidleRt {
    fn state_save(&self) -> CpuidleRtSaved {
        CpuidleRtSaved {
            state: self.state.clone(),
            seq: self.seq.clone(),
            idle_since: self.idle_since.clone(),
        }
    }

    fn state_restore(platform: &Platform, saved: &CpuidleRtSaved) -> CpuidleRt {
        let tables = platform
            .topology
            .cpus()
            .map(|c| CpuidleTable::default_for(platform.topology.kind_of(c)))
            .collect();
        CpuidleRt {
            tables,
            state: saved.state.clone(),
            seq: saved.seq.clone(),
            idle_since: saved.idle_since.clone(),
        }
    }

    fn new(platform: &Platform) -> Self {
        let tables = platform
            .topology
            .cpus()
            .map(|c| CpuidleTable::default_for(platform.topology.kind_of(c)))
            .collect::<Vec<_>>();
        let n = tables.len();
        CpuidleRt {
            tables,
            state: vec![None; n],
            seq: vec![0; n],
            idle_since: vec![SimTime::ZERO; n],
        }
    }

    /// Writes the per-CPU leakage scale factors into `out` (1.0 = busy or
    /// shallow); reuses the caller's buffer so the hot path never allocates.
    fn leak_scales_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.state.iter().enumerate().map(|(i, s)| match s {
            Some(idx) => self.tables[i].state(*idx).leak_scale,
            None => 1.0,
        }));
    }
}

/// One deterministic simulation run of the modeled platform.
///
/// Create it via [`Simulation::builder`] (or [`Simulation::try_new`]),
/// spawn workloads, then call [`Simulation::try_run_until`] /
/// [`Simulation::try_run_app`] and read the [`RunResult`].
pub struct Simulation {
    platform: Platform,
    state: PlatformState,
    kernel: Kernel,
    governors: Vec<Box<dyn CpufreqGovernor>>,
    gov_window: BusyWindow,
    power_model: PowerModel,
    meter: PowerMeter,
    collector: MetricsCollector,
    queue: EventQueue<Ev>,
    now: SimTime,
    rng: SimRng,
    trackers: Vec<CompletionTracker>,
    cfg: SystemConfig,
    trace: Option<Trace>,
    trace_window: BusyWindow,
    cpuidle: Option<CpuidleRt>,
    thermal: Option<ThermalRt>,
    /// Per-cluster count of governor samples still to drop (stall faults).
    gov_skip: Vec<u32>,
    /// Same-instant event counter feeding the stall watchdog.
    watchdog: u64,
    /// Armed execution budget: wall-clock deadline, event cap and
    /// cancellation token, booked per processed event.
    budget: ArmedBudget,
    /// Events processed over the simulation's lifetime. Unlike the budget
    /// (re-armed per run), this counter survives snapshot/fork, so a
    /// forked run reports the same total as the cold run it is
    /// bit-identical to — which is what lets [`RunResult`] carry it.
    events_total: u64,
    /// Runtime invariant auditor, when [`SystemConfig::audit`] is on.
    audit: Option<InvariantGuard>,
    resilience: ResilienceStats,
    // Reusable scratch buffers: the hot loop never allocates once warm.
    gov_fired: Vec<Option<SimTime>>,
    activity_scratch: Vec<f64>,
    leak_scratch: Vec<f64>,
    utils_scratch: Vec<f64>,
    wake_scratch: Vec<WakeRequest>,
    signal_scratch: Vec<(SimTime, AppSignal)>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Starts a fluent builder: platform, config, seed, fault plan, thermal
    /// model and tracing in one chain, ending in a non-panicking
    /// [`SimulationBuilder::build`].
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::default()
    }

    /// Builds a simulation of the Exynos-5422-class platform under `cfg`,
    /// reporting configuration problems as values.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for a core configuration the platform
    /// cannot satisfy or a governor list that does not cover every cluster;
    /// [`SimError::InvalidFaultPlan`] when the fault plan names CPUs or
    /// clusters the platform does not have.
    pub fn try_new(cfg: SystemConfig) -> Result<Self, SimError> {
        Simulation::try_with_platform(exynos5422(), cfg)
    }

    /// Non-panicking [`Simulation::with_platform`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::try_new`].
    pub fn try_with_platform(platform: Platform, cfg: SystemConfig) -> Result<Self, SimError> {
        let mut state = PlatformState::new(&platform.topology);
        state
            .apply_core_config(&platform.topology, cfg.core_config)
            .map_err(|e| SimError::config(format!("invalid core configuration: {e:?}")))?;
        if cfg.governors.len() != platform.topology.n_clusters() {
            return Err(SimError::config(format!(
                "need one governor per cluster: {} governors for {} clusters",
                cfg.governors.len(),
                platform.topology.n_clusters()
            )));
        }
        cfg.fault_plan
            .validate(platform.topology.n_cpus(), platform.topology.n_clusters())?;

        let kernel = Kernel::new(
            platform.topology.n_cpus(),
            KernelConfig {
                tick_period: SimDuration::from_millis(4),
                policy: cfg.effective_policy(),
                balance_enabled: cfg.balance_enabled,
            },
            SimTime::ZERO,
        );

        let governors: Vec<Box<dyn CpufreqGovernor>> =
            cfg.governors.iter().map(|g| g.build()).collect();

        let power_model = if cfg.screen_on {
            PowerModel::screen_on()
        } else {
            PowerModel::screen_off()
        };

        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO + SimDuration::from_millis(4), Ev::Tick);
        queue.schedule(SimTime::ZERO + cfg.metric_period, Ev::MetricSample);
        for ev in cfg.fault_plan.events() {
            queue.schedule(ev.at, Ev::Fault(*ev));
        }

        let gov_window = BusyWindow::open(kernel.accounting(), SimTime::ZERO);
        let collector =
            MetricsCollector::new(&platform.topology, kernel.accounting(), SimTime::ZERO);

        let trace_window = BusyWindow::open(kernel.accounting(), SimTime::ZERO);
        let cpuidle = cfg.cpuidle_enabled.then(|| CpuidleRt::new(&platform));
        // A plan that injects heat needs thermal nodes even when the model
        // is nominally off.
        let wants_thermal = cfg.thermal_enabled
            || cfg
                .fault_plan
                .events()
                .iter()
                .any(|e| matches!(e.kind, FaultKind::ThermalSpike { .. }));
        let thermal = wants_thermal.then(|| {
            ThermalRt::new(
                &platform,
                BusyWindow::open(kernel.accounting(), SimTime::ZERO),
                SimTime::ZERO,
            )
        });
        let n_clusters = platform.topology.n_clusters();
        let mut resilience = ResilienceStats::default();
        if let Some(rt) = &thermal {
            resilience.throttled_time = vec![SimDuration::ZERO; n_clusters];
            resilience.peak_temp_c = rt.nodes.temps().to_vec();
        }
        let n_cpus = platform.topology.n_cpus();
        let audit = cfg.audit.then(|| InvariantGuard::new(cfg.audit_cadence));
        let mut sim = Simulation {
            meter: PowerMeter::starting_at(SimTime::ZERO, 0.0),
            rng: SimRng::seed_from(cfg.seed),
            platform,
            state,
            kernel,
            governors,
            gov_window,
            power_model,
            collector,
            queue,
            now: SimTime::ZERO,
            trackers: Vec::new(),
            cfg,
            trace: None,
            trace_window,
            cpuidle,
            thermal,
            gov_skip: vec![0; n_clusters],
            watchdog: 0,
            budget: ArmedBudget::default(),
            events_total: 0,
            audit,
            resilience,
            gov_fired: vec![None; n_clusters],
            activity_scratch: Vec::with_capacity(n_cpus),
            leak_scratch: Vec::with_capacity(n_cpus),
            utils_scratch: Vec::with_capacity(n_cpus),
            wake_scratch: Vec::new(),
            signal_scratch: Vec::new(),
        };

        // Let fixed-policy governors (userspace/performance/powersave) set
        // their frequencies before anything runs, and schedule the first
        // samples.
        for c in 0..sim.platform.topology.n_clusters() {
            sim.governor_sample(ClusterId(c))?;
        }
        sim.record_power();
        Ok(sim)
    }

    // ---- workload spawning -------------------------------------------------

    /// Spawns a mobile app with free (scheduler-controlled) placement.
    pub fn spawn_app(&mut self, app: &AppModel) -> AppInstance {
        self.spawn_app_with_affinity(app, Affinity::Any)
    }

    /// Spawns a mobile app with all threads forced to `affinity`.
    pub fn spawn_app_with_affinity(&mut self, app: &AppModel, affinity: Affinity) -> AppInstance {
        let hw = Hw {
            platform: &self.platform,
            state: &self.state,
        };
        let instance = app.build_with_affinity(
            &mut self.kernel,
            &self.platform,
            &hw,
            &mut self.rng,
            self.now,
            affinity,
        );
        if let Some(t) = &instance.tracker {
            self.trackers.push(t.clone());
        }
        self.after_kernel_call();
        instance
    }

    /// Spawns a SPEC kernel pinned to `cpu`, sized to run `ref_duration`
    /// on a little core at 1.3 GHz.
    pub fn spawn_spec(&mut self, spec: &SpecKernel, cpu: CpuId, ref_duration: SimDuration) {
        let little = self
            .platform
            .topology
            .cluster_of_kind(CoreKind::Little)
            .expect("little cluster");
        let total = self.platform.perf.work_for(
            &spec.profile,
            CoreKind::Little,
            &little.l2,
            1.3,
            ref_duration,
        );
        let behavior = spec.behavior(total, &mut self.rng);
        let hw = Hw {
            platform: &self.platform,
            state: &self.state,
        };
        self.kernel
            .spawn(spec.name, Affinity::Pinned(cpu), behavior, &hw, self.now);
        self.after_kernel_call();
    }

    /// Spawns the utilization microbenchmark pinned to `cpu` with the given
    /// duty cycle; work is sized against the cluster's *current* frequency.
    pub fn spawn_microbench(&mut self, cpu: CpuId, duty: f64, period: SimDuration) {
        let topo = &self.platform.topology;
        let kind = topo.kind_of(cpu);
        let l2 = topo.l2_of(cpu);
        let freq_ghz = self.state.freq_of(topo, cpu) as f64 / 1e6;
        let b = MicroBench::new(&self.platform.perf, kind, l2, freq_ghz, duty, period);
        let hw = Hw {
            platform: &self.platform,
            state: &self.state,
        };
        self.kernel.spawn(
            "microbench",
            Affinity::Pinned(cpu),
            Box::new(b),
            &hw,
            self.now,
        );
        self.after_kernel_call();
    }

    /// Spawns a recorded activity trace (see [`bl_workloads::replay`]): one
    /// task per recorded thread, replayed on the simulated scheduler. The
    /// run's `latency` reflects when the whole trace finished.
    pub fn spawn_trace(&mut self, trace: &RecordedTrace) {
        let hw = Hw {
            platform: &self.platform,
            state: &self.state,
        };
        let tracker = trace.spawn(
            &mut self.kernel,
            &self.platform,
            &hw,
            self.now,
            Affinity::Any,
        );
        self.trackers.push(tracker);
        self.after_kernel_call();
    }

    /// Spawns a raw behavior (advanced usage / tests).
    pub fn spawn_behavior(
        &mut self,
        name: &str,
        affinity: Affinity,
        behavior: Box<dyn TaskBehavior>,
    ) -> TaskId {
        let hw = Hw {
            platform: &self.platform,
            state: &self.state,
        };
        let tid = self.kernel.spawn(name, affinity, behavior, &hw, self.now);
        self.after_kernel_call();
        tid
    }

    // ---- running ------------------------------------------------------------

    /// Runs until `deadline` or until `stop` returns true, reporting
    /// runtime failures as values instead of panicking.
    ///
    /// # Errors
    ///
    /// [`SimError::WatchdogStall`] when simulated time stops advancing
    /// while events keep firing, [`SimError::TaskLost`] when a hotplug
    /// fault loses track of a task (a simulator bug, surfaced rather than
    /// silently dropped).
    pub fn try_run_until_or(
        &mut self,
        deadline: SimTime,
        stop: impl Fn(&Simulation) -> bool,
    ) -> Result<(), SimError> {
        while self.now < deadline && !stop(self) {
            self.try_step(deadline)?;
        }
        Ok(())
    }

    /// Non-panicking [`Simulation::run_until`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::try_run_until_or`].
    pub fn try_run_until(&mut self, deadline: SimTime) -> Result<(), SimError> {
        self.try_run_until_or(deadline, |_| false)
    }

    /// Runs an already-spawned app to its natural end: latency apps until
    /// their script completes (capped at `run_for`), FPS apps for exactly
    /// `run_for`. Returns the collected results.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::try_run_until_or`].
    pub fn try_run_app(&mut self, app: &AppModel) -> Result<RunResult, SimError> {
        let deadline = self.now + app.run_for;
        match app.metric {
            PerfMetric::Latency => {
                self.try_run_until_or(deadline, |sim| {
                    !sim.trackers.is_empty() && sim.trackers.iter().all(|t| t.is_done())
                })?;
            }
            PerfMetric::Fps => self.try_run_until(deadline)?,
        }
        Ok(self.finish())
    }

    fn try_step(&mut self, deadline: SimTime) -> Result<(), SimError> {
        if self.cfg.skip_ahead && self.kernel.all_idle() {
            self.idle_skip_ahead(deadline);
        }
        let hw = Hw {
            platform: &self.platform,
            state: &self.state,
        };
        let next_event = self.queue.peek_time().unwrap_or(SimTime::MAX);
        let completion = self
            .kernel
            .next_completion_time(&hw, self.now)
            .unwrap_or(SimTime::MAX);
        let target = next_event.min(completion).min(deadline);
        self.kernel.advance_to(&hw, target);
        if target > self.now {
            self.watchdog = 0;
        }
        self.now = target;
        self.kernel.handle_completions(&hw, self.now);

        while self.queue.peek_time() == Some(self.now) {
            self.watchdog += 1;
            if self.watchdog > self.cfg.watchdog_same_time_limit {
                let stuck = match self.queue.peek() {
                    Some((_, _, ev)) => format!("{ev:?}"),
                    None => "<queue empty>".to_string(),
                };
                return Err(SimError::WatchdogStall {
                    at: self.now,
                    iterations: self.watchdog,
                    detail: format!(
                        "{} events still queued; next stuck event: {stuck}",
                        self.queue.len()
                    ),
                });
            }
            let (_, ev) = self.queue.pop().expect("peeked event");
            self.budget.on_event(self.now)?;
            self.events_total += 1;
            match ev {
                Ev::Tick => {
                    let hw = Hw {
                        platform: &self.platform,
                        state: &self.state,
                    };
                    self.kernel.tick(&hw, self.now);
                    self.queue
                        .schedule(self.now + self.kernel.tick_period(), Ev::Tick);
                }
                Ev::Timer(w) => {
                    let hw = Hw {
                        platform: &self.platform,
                        state: &self.state,
                    };
                    self.kernel.timer_wake(w.tid, w.seq, &hw, self.now);
                }
                Ev::GovSample(c) => self.governor_sample(c)?,
                Ev::IdlePromote(cpu, seq) => self.idle_promote(cpu, seq),
                Ev::MetricSample => {
                    self.advance_thermal();
                    self.collector
                        .sample(self.now, self.kernel.accounting(), &self.state);
                    self.record_trace_sample();
                    self.queue
                        .schedule(self.now + self.cfg.metric_period, Ev::MetricSample);
                }
                Ev::Fault(f) => self.apply_fault(f)?,
            }
            if self.audit.as_mut().is_some_and(|g| g.due()) {
                self.run_audit()?;
            }
        }
        self.after_kernel_call();
        Ok(())
    }

    /// One pass of the runtime invariant auditor: conservation-law checks
    /// over the kernel's task census, the power meter and the per-cluster
    /// frequency caps (see [`InvariantGuard`] for the invariant list).
    fn run_audit(&mut self) -> Result<(), SimError> {
        let census = self.kernel.census();
        let reading = self.meter.reading(self.now);
        let guard = self.audit.as_mut().expect("caller checked audit is on");
        guard.check_time(self.now)?;
        guard.check_task_conservation(self.now, census.spawned, census.runnable, census.queued)?;
        guard.check_energy(self.now, reading.energy_mj, reading.current_mw)?;
        for c in self.platform.topology.clusters() {
            let freq = self.state.cluster_freq_khz(c.id);
            let cap = self.state.freq_cap(c.id).unwrap_or(u32::MAX);
            guard.check_freq_cap(self.now, c.id.0, freq, cap)?;
        }
        self.kernel.check_no_lost_tasks()?;
        guard.pass_completed();
        self.resilience.audit_checks += 1;
        Ok(())
    }

    /// When every CPU is idle, fires *virtually* every provably-inert
    /// periodic event due before the first event that can actually change
    /// the machine: each is popped and re-armed in place, and their effect
    /// is booked in closed form, so the next [`Simulation::try_step`] jumps
    /// straight to that event.
    ///
    /// The virtual firings pop in exactly the `(time, seq)` order the
    /// ticked loop would pop them, and each re-arm takes a fresh sequence
    /// number just like a real firing — so the queue's future pop order,
    /// and therefore the whole run, stays bit-identical to
    /// `skip_ahead = false` (see DESIGN.md, timing model).
    fn idle_skip_ahead(&mut self, deadline: SimTime) {
        match self.queue.peek() {
            Some((_, _, ev)) if self.event_is_skippable(ev) => {}
            _ => return,
        }
        // Nothing before the first real event (or the caller's deadline)
        // can change machine state. An inert event tied with it stays
        // queued, to fire for real in its turn.
        let mut horizon = deadline;
        for (t, _, ev) in self.queue.iter() {
            if t < horizon && !self.event_is_skippable(ev) {
                horizon = t;
            }
        }
        if horizon == SimTime::MAX {
            // Unbounded run over an otherwise empty queue: no target to
            // skip toward, so keep ticking (matches the non-skip path).
            return;
        }

        let mut metric_fires = 0u64;
        let mut metric_last = SimTime::ZERO;
        let mut gov_fired = std::mem::take(&mut self.gov_fired);
        gov_fired.clear();
        gov_fired.resize(self.platform.topology.n_clusters(), None);
        // Every entry earlier than the horizon is inert, since each event
        // that is not has its time at or past it.
        while self.queue.peek_time().is_some_and(|t| t < horizon) {
            let (t, ev) = self.queue.pop().expect("peeked event");
            let period = match ev {
                Ev::Tick => self.kernel.tick_period(),
                Ev::MetricSample => {
                    metric_fires += 1;
                    metric_last = t;
                    self.cfg.metric_period
                }
                Ev::GovSample(c) => {
                    gov_fired[c.0] = Some(t);
                    self.governors[c.0].sampling_period()
                }
                _ => unreachable!("only periodic self-rearming events are elided"),
            };
            self.queue.schedule(t + period, ev);
        }

        // Closed-form bookkeeping for what the elided firings would have
        // done: all the idle samples in one addition, and each governor
        // window re-opened at its last elided fire (the counters underneath
        // never moved, so intermediate re-opens are no-ops).
        self.collector
            .skip_idle_samples(metric_fires, metric_last, self.kernel.accounting());
        for (ci, fired) in gov_fired.iter().enumerate() {
            if let Some(t) = fired {
                for cpu in self.state.online_in(&self.platform.topology, ClusterId(ci)) {
                    self.gov_window
                        .take_fraction(self.kernel.accounting(), cpu, *t);
                }
            }
        }
        self.gov_fired = gov_fired;
    }

    /// True when `ev` firing on an all-idle machine would provably leave
    /// every observable unchanged apart from re-arming itself — the events
    /// [`Simulation::idle_skip_ahead`] may elide.
    fn event_is_skippable(&self, ev: &Ev) -> bool {
        match ev {
            // The scheduler tick charges the current task (none), balances
            // and migrates (nothing queued): a strict no-op while idle.
            Ev::Tick => true,
            // An all-idle metric sample only bumps the idle cell and
            // re-opens the busy windows, which `skip_idle_samples` books in
            // closed form. Thermal integration is exponential in the step
            // size and a trace needs one row per sample, so either one pins
            // the sampler to the grid.
            Ev::MetricSample => {
                self.thermal.is_none()
                    && self.trace.is_none()
                    && !self.cfg.metric_period.is_zero()
                    && self.collector.window_is_idle(self.kernel.accounting())
            }
            // A governor sample is elidable only when its window holds no
            // residual busy time (a task may have exited mid-window) and
            // the governor would provably hold its frequency on the
            // all-zero sample it would see.
            Ev::GovSample(c) => {
                self.gov_skip[c.0] == 0
                    && !self.governors[c.0].sampling_period().is_zero()
                    && self.gov_window_is_idle(*c)
                    && self.governor_idle_quiescent(*c)
            }
            // Timers wake tasks, promotions deepen idle states, faults
            // reshape the machine: all are hard horizon bounds.
            Ev::Timer(_) | Ev::IdlePromote(..) | Ev::Fault(_) => false,
        }
    }

    /// True when no online CPU of `cluster` has accrued busy time since the
    /// governor's window was last opened.
    fn gov_window_is_idle(&self, cluster: ClusterId) -> bool {
        self.state
            .online_in(&self.platform.topology, cluster)
            .all(|cpu| {
                self.gov_window
                    .peek_busy(self.kernel.accounting(), cpu)
                    .is_zero()
            })
    }

    /// Whether `cluster`'s governor, fed the all-zero-utilization sample it
    /// would see right now, provably keeps its current frequency.
    fn governor_idle_quiescent(&self, cluster: ClusterId) -> bool {
        const ZEROS: [f64; 16] = [0.0; 16];
        let topo = &self.platform.topology;
        let n = self.state.online_in(topo, cluster).count();
        if n > ZEROS.len() {
            return false;
        }
        let sample = ClusterSample {
            cluster,
            opps: &topo.cluster(cluster).core.opps,
            cur_freq_khz: self.state.cluster_freq_khz(cluster),
            cpu_utils: &ZEROS[..n],
            cap_khz: self.state.freq_cap(cluster).unwrap_or(u32::MAX),
        };
        self.governors[cluster.0].idle_quiescent(&sample)
    }

    /// Applies one fault event. Faults the platform refuses (offlining the
    /// last little CPU) are counted and skipped — resilience means the run
    /// completes in a degraded state rather than dying.
    fn apply_fault(&mut self, ev: FaultEvent) -> Result<(), SimError> {
        match ev.kind {
            FaultKind::CpuOffline { cpu } => {
                let cpu = CpuId(cpu);
                match self.state.set_online(&self.platform.topology, cpu, false) {
                    Ok(changed) => {
                        self.resilience.faults_injected += 1;
                        if changed {
                            let hw = Hw {
                                platform: &self.platform,
                                state: &self.state,
                            };
                            let drained = self.kernel.offline_cpu(cpu, &hw);
                            self.resilience.hotplug_offline += 1;
                            self.resilience.tasks_rehomed += drained.len() as u64;
                            self.kernel.check_no_lost_tasks()?;
                        }
                    }
                    Err(_) => self.resilience.faults_rejected += 1,
                }
            }
            FaultKind::CpuOnline { cpu } => {
                let cpu = CpuId(cpu);
                match self.state.set_online(&self.platform.topology, cpu, true) {
                    Ok(changed) => {
                        self.resilience.faults_injected += 1;
                        if changed {
                            let hw = Hw {
                                platform: &self.platform,
                                state: &self.state,
                            };
                            self.kernel.online_cpu(cpu, &hw);
                            self.resilience.hotplug_online += 1;
                        }
                    }
                    Err(_) => self.resilience.faults_rejected += 1,
                }
            }
            FaultKind::ThermalSpike { cluster, delta_c } => {
                // Integrate up to now first so the spike lands on the
                // current temperature, then let the throttle react.
                self.advance_thermal();
                let rt = self
                    .thermal
                    .as_mut()
                    .expect("plans with thermal spikes force the thermal model on");
                let id = ClusterId(cluster);
                let changed = rt.nodes.inject(cluster, delta_c);
                self.resilience.peak_temp_c[cluster] =
                    self.resilience.peak_temp_c[cluster].max(rt.nodes.temp_c(cluster));
                self.resilience.faults_injected += 1;
                if changed {
                    self.apply_throttle_transition(id);
                }
            }
            FaultKind::GovernorStall {
                cluster,
                missed_samples,
            } => {
                self.gov_skip[cluster] += missed_samples;
                self.resilience.faults_injected += 1;
            }
        }
        Ok(())
    }

    /// Integrates every cluster's thermal node up to `self.now` using its
    /// current power draw, and applies throttle transitions to the
    /// platform's frequency caps.
    ///
    /// The per-cluster powers are gathered into a reused buffer and the
    /// whole bank integrates in one batch pass; the scratch vectors make
    /// the steady state allocation-free.
    fn advance_thermal(&mut self) {
        let Some(rt) = self.thermal.as_mut() else {
            return;
        };
        let dt = self.now.duration_since(rt.last_advance);
        rt.last_advance = self.now;
        if dt.is_zero() {
            return;
        }
        let topo = &self.platform.topology;
        rt.power_scratch.clear();
        for c in topo.clusters() {
            let id = c.id;
            rt.acts_scratch.clear();
            for cpu in self.state.online_in(topo, id) {
                let f = rt
                    .window
                    .take_fraction(self.kernel.accounting(), cpu, self.now);
                rt.acts_scratch.push(f);
            }
            let mw = self.power_model.cluster_mw(
                topo,
                id,
                self.state.cluster_freq_khz(id),
                &rt.acts_scratch,
            );
            rt.power_scratch.push(mw / 1000.0);
        }
        // `advance_all` appends changed indices without clearing (see its
        // buffer contract), so one clear per sample is all the bookkeeping
        // the reused buffer needs; `take` moves the capacity out so the
        // throttle transitions below can re-borrow `self`, and the
        // steady state allocates nothing.
        let mut changed = std::mem::take(&mut rt.changed_scratch);
        changed.clear();
        rt.nodes.advance_all(dt, &rt.power_scratch, &mut changed);
        for i in 0..rt.nodes.len() {
            self.resilience.peak_temp_c[i] = self.resilience.peak_temp_c[i].max(rt.nodes.temp_c(i));
        }
        for &i in &changed {
            self.apply_throttle_transition(ClusterId(i));
        }
        self.thermal
            .as_mut()
            .expect("checked above")
            .changed_scratch = changed;
    }

    /// Propagates one cluster's throttle state change into the platform's
    /// frequency cap and the resilience stats.
    fn apply_throttle_transition(&mut self, cluster: ClusterId) {
        let rt = self.thermal.as_mut().expect("caller checked thermal");
        let cap = rt.nodes.cap_khz(cluster.0);
        self.state
            .set_freq_cap(&self.platform.topology, cluster, cap);
        if cap.is_some() {
            self.resilience.throttle_trips += 1;
            rt.throttle_since[cluster.0] = Some(self.now);
        } else if let Some(since) = rt.throttle_since[cluster.0].take() {
            self.resilience.throttled_time[cluster.0] += self.now.duration_since(since);
        }
    }

    fn governor_sample(&mut self, cluster: ClusterId) -> Result<(), SimError> {
        let gov = &mut self.governors[cluster.0];
        let period = gov.sampling_period();
        // A stalled governor misses the sample entirely: the busy window is
        // left open, so the next live sample integrates over the whole gap
        // instead of losing the history (missed-sample tolerance).
        if self.gov_skip[cluster.0] > 0 {
            self.gov_skip[cluster.0] -= 1;
            self.resilience.gov_samples_missed += 1;
            self.queue
                .schedule(self.now + period, Ev::GovSample(cluster));
            return Ok(());
        }
        let topo = &self.platform.topology;
        let mut utils = std::mem::take(&mut self.utils_scratch);
        utils.clear();
        for cpu in self.state.online_in(topo, cluster) {
            utils.push(
                self.gov_window
                    .take_fraction(self.kernel.accounting(), cpu, self.now),
            );
        }
        let opps = &topo.cluster(cluster).core.opps;
        let cur = self.state.cluster_freq_khz(cluster);
        let sample = ClusterSample {
            cluster,
            opps,
            cur_freq_khz: cur,
            cpu_utils: &utils,
            cap_khz: self.state.freq_cap(cluster).unwrap_or(u32::MAX),
        };
        let next = self.governors[cluster.0].on_sample(&sample);
        self.utils_scratch = utils;
        if next != cur {
            // The platform clamps through the thermal ceiling; a governor
            // returning an off-table rate is surfaced, not panicked.
            self.state.try_set_cluster_freq(topo, cluster, next)?;
        }
        self.queue
            .schedule(self.now + period, Ev::GovSample(cluster));
        Ok(())
    }

    /// Collects wake requests and signals, and refreshes the power meter.
    fn after_kernel_call(&mut self) {
        let mut wakes = std::mem::take(&mut self.wake_scratch);
        self.kernel.drain_wake_requests_into(&mut wakes);
        for w in wakes.drain(..) {
            self.queue.schedule(w.at, Ev::Timer(w));
        }
        self.wake_scratch = wakes;
        let mut signals = std::mem::take(&mut self.signal_scratch);
        self.kernel.drain_signals_into(&mut signals);
        for (t, s) in signals.drain(..) {
            self.collector.on_signal(t, s);
        }
        self.signal_scratch = signals;
        self.record_power();
    }

    fn record_power(&mut self) {
        let mut activity = std::mem::take(&mut self.activity_scratch);
        self.kernel.activity_into(&mut activity);
        self.update_cpuidle(&activity);
        let mw = if let Some(rt) = &self.cpuidle {
            let mut scales = std::mem::take(&mut self.leak_scratch);
            rt.leak_scales_into(&mut scales);
            let mw = self.power_model.instant_mw_with_idle(
                &self.platform.topology,
                &self.state,
                &activity,
                Some(&scales),
            );
            self.leak_scratch = scales;
            mw
        } else {
            self.power_model
                .instant_mw(&self.platform.topology, &self.state, &activity)
        };
        self.activity_scratch = activity;
        self.meter.record(self.now, mw);
    }

    /// Tracks busy/idle transitions and schedules idle-state promotions.
    fn update_cpuidle(&mut self, activity: &[f64]) {
        let Some(rt) = &mut self.cpuidle else { return };
        for (i, a) in activity.iter().enumerate() {
            let busy = *a > 0.0;
            match (busy, rt.state[i]) {
                (true, Some(_)) => {
                    // Wakes invalidate the episode.
                    rt.state[i] = None;
                    rt.seq[i] += 1;
                }
                (false, None) => {
                    // New idle episode: enter the shallowest state and arm
                    // the promotion timer for the next deeper one.
                    rt.state[i] = Some(0);
                    rt.seq[i] += 1;
                    rt.idle_since[i] = self.now;
                    if let Some(res) = rt.tables[i].promotion_residency(0) {
                        self.queue
                            .schedule(self.now + res, Ev::IdlePromote(CpuId(i), rt.seq[i]));
                    }
                }
                _ => {}
            }
        }
    }

    fn idle_promote(&mut self, cpu: CpuId, seq: u64) {
        let Some(rt) = &mut self.cpuidle else { return };
        if rt.seq[cpu.0] != seq {
            return; // the episode ended meanwhile
        }
        let Some(cur) = rt.state[cpu.0] else { return };
        if rt.tables[cpu.0].promotion_residency(cur).is_none() {
            return; // already deepest
        }
        rt.state[cpu.0] = Some(cur + 1);
        if let Some(res) = rt.tables[cpu.0].promotion_residency(cur + 1) {
            // Residencies are measured from the start of the idle episode.
            self.queue
                .schedule(rt.idle_since[cpu.0] + res, Ev::IdlePromote(cpu, seq));
        }
        // Power drops as the core deepens.
        let mut activity = std::mem::take(&mut self.activity_scratch);
        self.kernel.activity_into(&mut activity);
        let mut scales = std::mem::take(&mut self.leak_scratch);
        self.cpuidle
            .as_ref()
            .expect("checked")
            .leak_scales_into(&mut scales);
        let mw = self.power_model.instant_mw_with_idle(
            &self.platform.topology,
            &self.state,
            &activity,
            Some(&scales),
        );
        self.activity_scratch = activity;
        self.leak_scratch = scales;
        self.meter.record(self.now, mw);
    }

    /// Arms an execution budget for the run: wall-clock deadline,
    /// simulated-event cap and/or cancellation token, enforced
    /// cooperatively in the event loop. Call before running; the wall
    /// clock starts now. Replaces any previously armed budget.
    pub fn set_budget(&mut self, budget: &RunBudget) {
        self.budget = budget.arm();
    }

    /// Simulated events booked against the current budget so far.
    pub fn events_processed(&self) -> u64 {
        self.budget.events()
    }

    /// Simulated events processed over the whole simulation lifetime,
    /// including any warm-up prefix inherited from a snapshot parent —
    /// budgets re-arm per run, this counter never resets, so forked and
    /// cold runs of the same scenario agree on it.
    pub fn events_total(&self) -> u64 {
        self.events_total
    }

    /// Number of completed invariant-audit passes (0 when auditing is off).
    pub fn audit_checks(&self) -> u64 {
        self.audit.as_ref().map_or(0, |g| g.checks())
    }

    /// Test-only hook: corrupts the auditor's internal clock so its next
    /// pass fails with [`SimError::InvariantViolated`] — proves broken
    /// accounting is caught rather than silently propagated. No-op when
    /// auditing is off.
    #[doc(hidden)]
    pub fn corrupt_audit_clock_for_test(&mut self) {
        if let Some(g) = self.audit.as_mut() {
            g.skew_clock_for_test();
        }
    }

    /// Enables per-sample time-series tracing (frequencies, active cores,
    /// power, migrations). Call before running; read with
    /// [`Simulation::trace`].
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Trace::new());
            self.trace_window
                .reset_all(self.kernel.accounting(), self.now);
        }
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    fn record_trace_sample(&mut self) {
        if self.trace.is_none() {
            return;
        }
        let topo = &self.platform.topology;
        let mut active = [0u32; 2];
        for cpu in topo.cpus() {
            if !self
                .trace_window
                .peek_busy(self.kernel.accounting(), cpu)
                .is_zero()
            {
                match topo.kind_of(cpu) {
                    CoreKind::Little => active[0] += 1,
                    CoreKind::Big => active[1] += 1,
                }
            }
            self.trace_window
                .take_fraction(self.kernel.accounting(), cpu, self.now);
        }
        let (up, down) = self.kernel.migration_counts();
        let row = TraceRow {
            t: self.now,
            little_khz: self
                .state
                .cluster_freq_khz(topo.cluster_of_kind(CoreKind::Little).expect("little").id),
            big_khz: self
                .state
                .cluster_freq_khz(topo.cluster_of_kind(CoreKind::Big).expect("big").id),
            active_little: active[0],
            active_big: active[1],
            power_mw: self.meter.current_mw(),
            migrations_up: up,
            migrations_down: down,
        };
        self.trace.as_mut().expect("checked above").push(row);
    }

    // ---- results ------------------------------------------------------------

    /// Produces the run's results at the current simulated time.
    pub fn finish(&self) -> RunResult {
        let topo = &self.platform.topology;
        let matrix = self.collector.matrix();
        let (n_little_p1, n_big_p1) = matrix.dims();
        let matrix_pct = (0..n_big_p1)
            .map(|b| (0..n_little_p1).map(|l| matrix.cell_pct(b, l)).collect())
            .collect();
        let little = topo.cluster_of_kind(CoreKind::Little).expect("little").id;
        let big = topo.cluster_of_kind(CoreKind::Big).expect("big").id;
        // Close out in-flight throttle episodes in the snapshot (the live
        // state is left untouched — finish() may be called mid-run).
        let mut resilience = self.resilience.clone();
        if let Some(rt) = &self.thermal {
            for (i, since) in rt.throttle_since.iter().enumerate() {
                if let Some(s) = since {
                    resilience.throttled_time[i] += self.now.duration_since(*s);
                }
            }
        }
        RunResult {
            sim_time: self.now.duration_since(SimTime::ZERO),
            avg_power_mw: self.meter.average_mw(self.now),
            energy_mj: self.meter.energy_mj(self.now),
            latency: self.collector.latency(),
            fps: self.collector.fps(self.now),
            tlp: self.collector.tlp_stats(),
            matrix_pct,
            little_residency: self.collector.residency().shares(little),
            big_residency: self.collector.residency().shares(big),
            efficiency_pct: self.collector.efficiency().percentages(),
            migrations: self.kernel.migration_counts(),
            events_processed: self.events_total,
            resilience,
        }
    }

    // ---- accessors ----------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The platform description.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Current hardware state (frequencies, hotplug).
    pub fn state(&self) -> &PlatformState {
        &self.state
    }

    /// The kernel (for inspection in tests/examples).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The configuration this run was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Whether `cluster` is currently thermally throttled.
    pub fn is_throttled(&self, cluster: ClusterId) -> bool {
        self.thermal
            .as_ref()
            .is_some_and(|rt| rt.nodes.is_throttled(cluster.0))
    }

    // ---- snapshot / fork ----------------------------------------------------

    /// Captures the entire simulation state as a [`SimSnapshot`] that
    /// [`Simulation::fork`] can later turn back into any number of
    /// independent, bit-identical continuations.
    ///
    /// The snapshot holds the run's saved state: every task behavior,
    /// shared workload handle (job queues, completion trackers, scene
    /// synchronizers), governor, pending event (with its tie-breaking
    /// sequence number) and RNG stream as plain data, so forks never
    /// observe each other or the original. The armed execution budget is
    /// *not* captured — budgets are per-run; arm one on the fork with
    /// [`Simulation::set_budget`].
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotUnsupported`] when a task is driven by a
    /// closure (only structured behaviors implement `save_box`).
    pub fn snapshot(&self) -> Result<SimSnapshot, SimError> {
        Ok(SimSnapshot {
            platform: self.platform.clone(),
            saved: self.state_save()?,
            fingerprint: self.fingerprint(),
        })
    }

    /// Builds a fresh simulation resuming from `snapshot` by restoring its
    /// saved state. Running the fork produces bit-identical results to
    /// running the original from the snapshot point — every fork of the
    /// same snapshot, too.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotUnsupported`] when the saved state does not fit
    /// the snapshot's platform or names an unknown behavior.
    pub fn fork(snapshot: &SimSnapshot) -> Result<Simulation, SimError> {
        Simulation::state_restore(&snapshot.platform, &snapshot.saved)
    }

    /// FNV-1a digest of the run's deterministic identity: simulated time,
    /// RNG stream state, event-queue census (pending count and sequence
    /// state), kernel task census, per-task HMP loads, accumulated energy,
    /// cluster frequencies and junction temperatures. Two simulations with
    /// equal fingerprints that were built from the same scenario are in
    /// the same state for all observable purposes; sweep result keys mix
    /// this in so a stale or divergent snapshot can never alias a cold
    /// run's cache entry.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(256);
        let mut push = |v: u64| bytes.extend_from_slice(&v.to_le_bytes());
        push(self.now.as_nanos());
        push(self.rng.state_digest());
        push(self.queue.len() as u64);
        push(self.queue.seq_state());
        let census = self.kernel.census();
        push(census.spawned as u64);
        push(census.runnable as u64);
        push(census.queued as u64);
        push(census.exited as u64);
        push(self.meter.energy_mj(self.now).to_bits());
        for c in self.platform.topology.clusters() {
            push(u64::from(self.state.cluster_freq_khz(c.id)));
        }
        for load in self.kernel.task_loads() {
            push(load.to_bits());
        }
        if let Some(rt) = &self.thermal {
            for t in rt.nodes.temps() {
                push(t.to_bits());
            }
        }
        fnv1a(&bytes)
    }

    /// Serializes the entire dynamic state behind [`Simulation::snapshot`]
    /// into a [`SimSaved`], spanning the kernel (tasks, behaviors, loads,
    /// runqueues), governors, event queue, RNG stream, meters, collectors
    /// and resilience telemetry. Static state — the platform description,
    /// power model, idle-state tables — is rebuilt from the platform and
    /// config on restore.
    fn state_save(&self) -> Result<SimSaved, SimError> {
        // One save context spans the kernel and the driver's tracker list,
        // so a tracker shared between a task behavior and `self.trackers`
        // stays shared inside each restored copy (and only there).
        let mut ctx = SaveCtx::new();
        let kernel = self.kernel.state_save(&mut ctx)?;
        let trackers = self
            .trackers
            .iter()
            .map(|t| t.save_with(&mut ctx))
            .collect();
        let governors = self.governors.iter().map(|g| g.config()).collect();
        let queue = self
            .queue
            .sorted_entries()
            .into_iter()
            .map(|(at, seq, ev)| (at, seq, ev.clone()))
            .collect();
        Ok(SimSaved {
            cfg: self.cfg.clone(),
            state: self.state.clone(),
            kernel,
            governors,
            gov_window: self.gov_window.clone(),
            meter: self.meter.clone(),
            collector: self.collector.state_save(),
            queue,
            queue_seq: self.queue.seq_state(),
            now: self.now,
            rng: self.rng.state_save(),
            trackers,
            trace: self.trace.clone(),
            trace_window: self.trace_window.clone(),
            cpuidle: self.cpuidle.as_ref().map(|rt| rt.state_save()),
            thermal: self.thermal.as_ref().map(|rt| rt.state_save()),
            gov_skip: self.gov_skip.clone(),
            watchdog: self.watchdog,
            events_total: self.events_total,
            audit: self.audit.clone(),
            resilience: self.resilience.clone(),
        })
    }

    /// Rebuilds a simulation from [`SimSaved`] against `platform` — the
    /// platform the saved run was built on. The armed budget is not
    /// restored (budgets are per-run); the lifetime event counter is, so
    /// forked == cold totals.
    fn state_restore(platform: &Platform, saved: &SimSaved) -> Result<Simulation, SimError> {
        let n_clusters = platform.topology.n_clusters();
        let n_cpus = platform.topology.n_cpus();
        if saved.gov_skip.len() != n_clusters || saved.governors.len() != n_clusters {
            return Err(SimError::SnapshotUnsupported {
                detail: format!(
                    "saved state spans {} clusters but the platform has {n_clusters}",
                    saved.governors.len()
                ),
            });
        }
        let mut ctx = RestoreCtx::new();
        let kernel = Kernel::state_restore(&saved.kernel, &mut ctx, |b, ctx| {
            bl_workloads::restore_behavior(b, ctx)
        })?;
        let trackers = saved
            .trackers
            .iter()
            .map(|t| CompletionTracker::restore_from(t, &mut ctx))
            .collect();
        let governors = saved.governors.iter().map(GovernorConfig::build).collect();
        let power_model = if saved.cfg.screen_on {
            PowerModel::screen_on()
        } else {
            PowerModel::screen_off()
        };
        Ok(Simulation {
            platform: platform.clone(),
            state: saved.state.clone(),
            kernel,
            governors,
            gov_window: saved.gov_window.clone(),
            power_model,
            meter: saved.meter.clone(),
            collector: MetricsCollector::state_restore(&platform.topology, &saved.collector),
            queue: EventQueue::from_parts(saved.queue.clone(), saved.queue_seq),
            now: saved.now,
            rng: SimRng::state_restore(&saved.rng),
            trackers,
            cfg: saved.cfg.clone(),
            trace: saved.trace.clone(),
            trace_window: saved.trace_window.clone(),
            cpuidle: saved
                .cpuidle
                .as_ref()
                .map(|s| CpuidleRt::state_restore(platform, s)),
            thermal: saved.thermal.as_ref().map(ThermalRt::state_restore),
            gov_skip: saved.gov_skip.clone(),
            watchdog: saved.watchdog,
            budget: ArmedBudget::default(),
            events_total: saved.events_total,
            audit: saved.audit.clone(),
            resilience: saved.resilience.clone(),
            gov_fired: vec![None; n_clusters],
            activity_scratch: Vec::with_capacity(n_cpus),
            leak_scratch: Vec::with_capacity(n_cpus),
            utils_scratch: Vec::with_capacity(n_cpus),
            wake_scratch: Vec::new(),
            signal_scratch: Vec::new(),
        })
    }

    // ---- late bindings ------------------------------------------------------

    /// Replaces every cluster's governor mid-run — the late-binding hook
    /// forked sweep points use to vary governor tunables after a shared
    /// warm-up prefix. The new governors start with fresh internal state
    /// and take over at each cluster's next scheduled sample; the pending
    /// sample chain (and so the event order) is untouched, which is what
    /// keeps a forked run bit-identical to a cold run applying the same
    /// swap at the same instant.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the list does not cover every
    /// cluster.
    pub fn replace_governors(&mut self, governors: &[GovernorConfig]) -> Result<(), SimError> {
        if governors.len() != self.platform.topology.n_clusters() {
            return Err(SimError::config(format!(
                "need one governor per cluster: {} governors for {} clusters",
                governors.len(),
                self.platform.topology.n_clusters()
            )));
        }
        self.governors = governors.iter().map(|g| g.build()).collect();
        Ok(())
    }

    /// Schedules an additional fault plan mid-run — the late-binding hook
    /// forked sweep points use to vary fault onsets after a shared warm-up
    /// prefix. Faults dated before `now` fire immediately (at `now`), in
    /// plan order; a plan containing a thermal spike brings up the thermal
    /// model on the spot if the run started without one.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFaultPlan`] when the plan names CPUs or clusters
    /// the platform does not have.
    pub fn schedule_late_faults(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        plan.validate(
            self.platform.topology.n_cpus(),
            self.platform.topology.n_clusters(),
        )?;
        if plan
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::ThermalSpike { .. }))
        {
            self.ensure_thermal();
        }
        for ev in plan.events() {
            let mut ev = *ev;
            ev.at = ev.at.max(self.now);
            self.queue.schedule(ev.at, Ev::Fault(ev));
        }
        Ok(())
    }

    /// Brings up the thermal subsystem mid-run (ambient temperature, no
    /// throttling) if it is not already on. Idempotent.
    fn ensure_thermal(&mut self) {
        if self.thermal.is_some() {
            return;
        }
        let rt = ThermalRt::new(
            &self.platform,
            BusyWindow::open(self.kernel.accounting(), self.now),
            self.now,
        );
        let n_clusters = self.platform.topology.n_clusters();
        self.resilience.throttled_time = vec![SimDuration::ZERO; n_clusters];
        self.resilience.peak_temp_c = rt.nodes.temps().to_vec();
        self.thermal = Some(rt);
    }
}

/// A point-in-time capture of a running [`Simulation`], produced by
/// [`Simulation::snapshot`] and consumed (any number of times) by
/// [`Simulation::fork`].
///
/// Sweep points that share a warmed-up prefix and differ only in
/// late-binding parameters — governor tunables, fault onsets, run horizon —
/// fork from one snapshot instead of each replaying the prefix; the forks
/// are bit-identical to cold runs (proven by the snapshot test suite).
///
/// The snapshot holds the platform and the run's saved state as plain
/// data — the same value the persistent snapshot store writes to disk
/// ([`SimSnapshot::to_payload`]) — so an in-memory fork and a hydrated one
/// take one restore path. The [`SimSnapshot::fingerprint`] is a stable
/// digest of the captured state that result keys and journals carry
/// across threads and processes.
pub struct SimSnapshot {
    platform: Platform,
    saved: SimSaved,
    fingerprint: u64,
}

/// The saved state a [`SimSnapshot`] holds: every dynamic component of the
/// run, behaviors included, as plain data. [`SimSnapshot::to_payload`]
/// serializes it and [`SimSnapshot::from_payload`] reads it back; the
/// persistent snapshot store treats it as an opaque value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SimSaved {
    cfg: SystemConfig,
    state: PlatformState,
    kernel: KernelSaved,
    governors: Vec<GovernorConfig>,
    gov_window: BusyWindow,
    meter: PowerMeter,
    collector: MetricsSaved,
    queue: Vec<(SimTime, u64, Ev)>,
    queue_seq: u64,
    now: SimTime,
    rng: RngState,
    trackers: Vec<TrackerSaved>,
    trace: Option<Trace>,
    trace_window: BusyWindow,
    cpuidle: Option<CpuidleRtSaved>,
    thermal: Option<ThermalRtSaved>,
    gov_skip: Vec<u32>,
    watchdog: u64,
    events_total: u64,
    audit: Option<InvariantGuard>,
    resilience: ResilienceStats,
}

impl SimSnapshot {
    /// Digest of the captured state (see [`Simulation::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The simulated time the snapshot was taken at.
    pub fn at(&self) -> SimTime {
        self.saved.now
    }

    /// Serializes the snapshot's saved state into an opaque payload the
    /// persistent snapshot store can write to disk. The inverse is
    /// [`SimSnapshot::from_payload`].
    ///
    /// # Errors
    ///
    /// Never fails: a snapshot holds only plain data. The `Result` keeps
    /// the signature its callers already handle.
    pub fn to_payload(&self) -> Result<serde::Value, SimError> {
        Ok(self.saved.ser_value())
    }

    /// Rebuilds a snapshot from a payload produced by
    /// [`SimSnapshot::to_payload`], against the same platform the saved
    /// run was built on.
    ///
    /// The payload is restored once and the restored state's fingerprint
    /// is recomputed from scratch; it must equal `expect` — the digest the
    /// store recorded at publish time. Bytes are never trusted: a payload
    /// that deserializes cleanly but reconstructs a different state is
    /// rejected, and the caller falls back to cold simulation. The
    /// snapshot then keeps the deserialized state; each fork restores it.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotUnsupported`] for malformed payloads, platform
    /// mismatches, or a recomputed fingerprint differing from `expect`.
    pub fn from_payload(
        platform: &Platform,
        payload: &serde::Value,
        expect: u64,
    ) -> Result<SimSnapshot, SimError> {
        let saved = SimSaved::deser_value(payload).map_err(|e| SimError::SnapshotUnsupported {
            detail: format!("malformed snapshot payload: {e}"),
        })?;
        let fingerprint = Simulation::state_restore(platform, &saved)?.fingerprint();
        if fingerprint != expect {
            return Err(SimError::SnapshotUnsupported {
                detail: format!(
                    "hydrated snapshot fingerprint {fingerprint:016x} does not match \
                     the recorded {expect:016x}; discarding"
                ),
            });
        }
        Ok(SimSnapshot {
            platform: platform.clone(),
            saved,
            fingerprint,
        })
    }
}

impl std::fmt::Debug for SimSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSnapshot")
            .field("at", &self.at())
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

/// Fluent construction of a [`Simulation`]: platform, configuration, seed,
/// fault plan, thermal model and tracing in one chain.
///
/// ```
/// use biglittle::{Simulation, SystemConfig};
///
/// let sim = Simulation::builder()
///     .config(SystemConfig::baseline())
///     .seed(42)
///     .tracing(true)
///     .build()
///     .expect("valid config");
/// assert!(sim.trace().is_some());
/// ```
#[derive(Debug, Default)]
pub struct SimulationBuilder {
    platform: Option<Platform>,
    config: SystemConfig,
    tracing: bool,
    budget: RunBudget,
}

impl SimulationBuilder {
    /// Replaces the whole configuration (later `seed`/`faults`/`thermal`
    /// calls still refine it).
    pub fn config(mut self, cfg: SystemConfig) -> Self {
        self.config = cfg;
        self
    }

    /// Simulates `platform` instead of the default Exynos-5422 model
    /// (ablation presets, custom topologies).
    pub fn platform(mut self, platform: Platform) -> Self {
        self.platform = Some(platform);
        self
    }

    /// Sets the RNG seed for the run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config = self.config.with_seed(seed);
        self
    }

    /// Injects a fault plan into the run.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.config = self.config.with_faults(plan);
        self
    }

    /// Enables or disables the thermal model.
    pub fn thermal(mut self, enabled: bool) -> Self {
        self.config = self.config.with_thermal(enabled);
        self
    }

    /// Enables per-sample time-series tracing from the start of the run.
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
        self
    }

    /// Arms an execution budget (wall-clock deadline, event cap,
    /// cancellation token) for the run. The wall clock starts when the
    /// simulation is built.
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Builds the simulation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::try_with_platform`].
    pub fn build(self) -> Result<Simulation, SimError> {
        let platform = self.platform.unwrap_or_else(exynos5422);
        let mut sim = Simulation::try_with_platform(platform, self.config)?;
        if self.tracing {
            sim.enable_tracing();
        }
        if !self.budget.is_unlimited() {
            sim.set_budget(&self.budget);
        }
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bl_governor::GovernorConfig;
    use bl_workloads::apps::app_by_name;

    #[test]
    fn empty_system_is_idle_at_min_freq() {
        let mut sim = Simulation::try_new(SystemConfig::baseline().screen(false)).unwrap();
        sim.try_run_until(SimTime::from_millis(200)).unwrap();
        let r = sim.finish();
        assert_eq!(r.tlp.idle_pct, 100.0);
        // Idle at min frequencies: power = base + leakage only, well under 600mW.
        assert!(
            r.avg_power_mw > 300.0 && r.avg_power_mw < 600.0,
            "{}",
            r.avg_power_mw
        );
    }

    #[test]
    fn userspace_governor_pins_frequency_immediately() {
        let sim =
            Simulation::try_new(SystemConfig::pinned_frequencies(1_300_000, 1_900_000)).unwrap();
        assert_eq!(sim.state().cluster_freq_khz(ClusterId(0)), 1_300_000);
        assert_eq!(sim.state().cluster_freq_khz(ClusterId(1)), 1_900_000);
    }

    #[test]
    fn spec_run_completes_and_uses_power() {
        let mut sim =
            Simulation::try_new(SystemConfig::pinned_frequencies(1_300_000, 800_000)).unwrap();
        let spec = &SpecKernel::suite()[0];
        sim.spawn_spec(spec, CpuId(0), SimDuration::from_millis(500));
        sim.try_run_until_or(SimTime::from_secs(5), |s| s.kernel().all_exited())
            .unwrap();
        assert!(sim.kernel().all_exited());
        let r = sim.finish();
        // Runtime on little@1.3 should be ~the reference duration.
        assert!((r.latency.unwrap().as_millis_f64() - 500.0).abs() < 20.0);
        assert!(r.avg_power_mw > 400.0);
    }

    #[test]
    fn interactive_governor_raises_frequency_under_load() {
        let mut sim = Simulation::builder()
            .config(
                SystemConfig::baseline()
                    .screen(false)
                    .with_governor(GovernorConfig::platform_default()),
            )
            .build()
            .unwrap();
        let spec = &SpecKernel::suite()[5]; // hmmer: compute-bound
        sim.spawn_spec(spec, CpuId(0), SimDuration::from_secs(2));
        sim.try_run_until(SimTime::from_millis(500)).unwrap();
        // A saturated little core must have been scaled up from 500 MHz.
        assert!(
            sim.state().cluster_freq_khz(ClusterId(0)) > 1_000_000,
            "freq = {}",
            sim.state().cluster_freq_khz(ClusterId(0))
        );
    }

    #[test]
    fn fps_app_produces_frames() {
        let app = app_by_name("Video Player").unwrap();
        let mut sim = Simulation::try_new(SystemConfig::baseline()).unwrap();
        sim.spawn_app(&app);
        sim.try_run_until(SimTime::from_secs(3)).unwrap();
        let r = sim.finish();
        let fps = r.fps.expect("frames were produced");
        assert!(fps.avg_fps > 30.0, "avg fps = {}", fps.avg_fps);
        assert!(r.tlp.tlp >= 1.0);
    }

    #[test]
    fn latency_app_finishes_before_cap() {
        let app = app_by_name("Photo Editor").unwrap();
        let mut sim = Simulation::try_new(SystemConfig::baseline()).unwrap();
        sim.spawn_app(&app);
        let r = sim.try_run_app(&app).unwrap();
        let lat = r.latency.expect("script must finish");
        assert!(lat < app.run_for, "latency {lat}");
        assert!(
            lat > SimDuration::from_secs(1),
            "latency {lat} suspiciously small"
        );
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::config::SystemConfig;
    use bl_workloads::apps::app_by_name;

    #[test]
    fn tracing_records_samples_and_csv() {
        let app = app_by_name("Angry Bird").unwrap();
        let mut sim = Simulation::builder()
            .config(SystemConfig::baseline())
            .tracing(true)
            .build()
            .unwrap();
        sim.spawn_app(&app);
        sim.try_run_until(SimTime::from_secs(2)).unwrap();
        let trace = sim.trace().expect("enabled");
        // ~one row per 10ms metric sample.
        assert!(trace.len() >= 150, "rows = {}", trace.len());
        let csv = sim.trace().unwrap().to_csv();
        assert!(csv.lines().count() == trace.len() + 1);
        // A busy game shows multiple active little cores in some samples.
        assert!(trace.rows().iter().any(|r| r.active_little >= 2));
        // Frequencies stay on the OPP tables.
        let p = sim.platform();
        for row in trace.rows() {
            assert!(p
                .topology
                .cluster(ClusterId(0))
                .core
                .opps
                .index_of(row.little_khz)
                .is_some());
            assert!(p
                .topology
                .cluster(ClusterId(1))
                .core
                .opps
                .index_of(row.big_khz)
                .is_some());
        }
    }

    #[test]
    fn tracing_off_by_default() {
        let sim = Simulation::try_new(SystemConfig::baseline()).unwrap();
        assert!(sim.trace().is_none());
    }
}

#[cfg(test)]
mod cpuidle_tests {
    use super::*;
    use crate::config::SystemConfig;
    use bl_workloads::apps::app_by_name;

    #[test]
    fn deep_idle_lowers_idle_system_power() {
        let run = |cpuidle: bool| {
            let mut sim =
                Simulation::try_new(SystemConfig::baseline().screen(false).with_cpuidle(cpuidle))
                    .unwrap();
            sim.try_run_until(SimTime::from_secs(1)).unwrap();
            sim.finish().avg_power_mw
        };
        let shallow = run(false);
        let deep = run(true);
        assert!(
            deep < shallow - 10.0,
            "cpuidle should cut idle power: {deep:.0} vs {shallow:.0} mW"
        );
        // The floor stays above the non-CPU base power.
        assert!(deep > 350.0);
    }

    #[test]
    fn cpuidle_saves_on_idle_heavy_apps_without_hurting_them() {
        let app = app_by_name("Browser").unwrap();
        let base = {
            let mut sim = Simulation::try_new(SystemConfig::baseline()).unwrap();
            sim.spawn_app(&app);
            sim.try_run_app(&app).unwrap()
        };
        let idle = {
            let mut sim = Simulation::try_new(SystemConfig::baseline().with_cpuidle(true)).unwrap();
            sim.spawn_app(&app);
            sim.try_run_app(&app).unwrap()
        };
        assert!(
            idle.avg_power_mw < base.avg_power_mw,
            "{} vs {}",
            idle.avg_power_mw,
            base.avg_power_mw
        );
        // Timing is untouched (idle power is performance-neutral here).
        assert_eq!(idle.latency, base.latency);
    }
}
