//! The kernel orchestrator: task lifecycle, dispatch, HMP migration and
//! load balancing, driven by an external event loop.

use crate::accounting::CpuAccounting;
use crate::hmp::HmpParams;
use crate::load::{LoadSet, LoadSetSaved, LOAD_SCALE};
use crate::policy::AsymPolicy;
use crate::runqueue::RunQueue;
use crate::task::{
    Affinity, AppSignal, BehaviorCtx, BehaviorSaved, RestoreCtx, SaveCtx, Step, TaskBehavior,
    TaskCb, TaskId, TaskState,
};
use bl_platform::ids::{CoreKind, CpuId};
use bl_platform::perf::{Work, WorkProfile};
use bl_platform::state::PlatformState;
use bl_platform::topology::Platform;
use bl_simcore::error::SimError;
use bl_simcore::time::{SimDuration, SimTime};
use std::sync::Arc;

/// Work below this many instructions counts as complete (sub-nanosecond
/// residue from fixed-point event times).
const WORK_EPS_INSTRUCTIONS: f64 = 0.5;

/// Maximum immediate (zero-time) steps a behavior may take in one exchange
/// before the kernel declares it livelocked.
const MAX_IMMEDIATE_STEPS: usize = 128;

/// A read-only view of the hardware the kernel schedules onto.
#[derive(Debug, Clone, Copy)]
pub struct Hw<'a> {
    /// Static platform description.
    pub platform: &'a Platform,
    /// Current frequencies and hotplug state.
    pub state: &'a PlatformState,
}

impl<'a> Hw<'a> {
    /// Instruction rate of `profile` on `cpu` at the cluster's current
    /// frequency.
    pub fn rate(&self, profile: &WorkProfile, cpu: CpuId) -> f64 {
        let freq = self.state.freq_of(&self.platform.topology, cpu);
        self.platform.ips(profile, cpu, freq)
    }

    /// `f_cur / f_max` of the CPU's cluster — the load-normalization factor.
    pub fn freq_ratio(&self, cpu: CpuId) -> f64 {
        let topo = &self.platform.topology;
        let cluster = topo.cluster(topo.cluster_of(cpu));
        self.state.cluster_freq_khz(cluster.id) as f64 / cluster.core.opps.max_khz() as f64
    }

    /// Whether `cpu` is online.
    pub fn online(&self, cpu: CpuId) -> bool {
        self.state.is_online(cpu)
    }

    /// Online CPUs of a kind, without allocating.
    pub fn iter_online_of_kind(&self, kind: CoreKind) -> impl Iterator<Item = CpuId> + '_ {
        self.platform
            .topology
            .cpus_of_kind(kind)
            .filter(|c| self.state.is_online(*c))
    }

    /// Number of online CPUs of a kind.
    pub fn n_online_of_kind(&self, kind: CoreKind) -> usize {
        self.iter_online_of_kind(kind).count()
    }
}

/// Kernel construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KernelConfig {
    /// Scheduler tick period (Linux CONFIG_HZ=250 ⇒ 4 ms).
    pub tick_period: SimDuration,
    /// How tasks are mapped across core types (paper §IV.A).
    pub policy: AsymPolicy,
    /// Whether intra-cluster load balancing runs.
    pub balance_enabled: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            tick_period: SimDuration::from_millis(4),
            policy: AsymPolicy::default_hmp(),
            balance_enabled: true,
        }
    }
}

/// One row of [`Kernel::task_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskReportRow {
    /// Task name (shared with the kernel's interned copy).
    pub name: Arc<str>,
    /// Total CPU time consumed.
    pub cpu_time: SimDuration,
    /// CPU time spent on little cores.
    pub little_time: SimDuration,
    /// CPU time spent on big cores.
    pub big_time: SimDuration,
    /// Current HMP load (0–1024).
    pub load: f64,
    /// Current lifecycle state.
    pub state: TaskState,
}

/// Task-conservation snapshot returned by [`Kernel::census`]: the raw
/// numbers the runtime invariant auditor checks against each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskCensus {
    /// Tasks ever spawned (including exited) — may only grow.
    pub spawned: usize,
    /// Tasks currently in [`TaskState::Runnable`].
    pub runnable: usize,
    /// Task slots occupied across all runqueues (current + waiting).
    /// Equals `runnable` when no task is lost or duplicated.
    pub queued: usize,
    /// Tasks that have exited.
    pub exited: usize,
}

/// A request from the kernel to the driver to schedule a wake timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WakeRequest {
    /// Task to wake.
    pub tid: TaskId,
    /// Sleep sequence number; stale timers (task woken early meanwhile) are
    /// ignored on delivery.
    pub seq: u64,
    /// When to fire.
    pub at: SimTime,
}

struct NoopBehavior;
impl TaskBehavior for NoopBehavior {
    fn next_step(&mut self, _ctx: &mut BehaviorCtx<'_>) -> Step {
        Step::Exit
    }
}

/// The simulated OS kernel.
///
/// See the crate docs for the driving contract. All methods take the
/// hardware view explicitly; the kernel owns no platform state.
pub struct Kernel {
    cfg: KernelConfig,
    tasks: Vec<TaskCb>,
    /// Structure-of-arrays HMP load averages, indexed by `TaskId`. Kept
    /// out of [`TaskCb`] so the per-advance batch update walks contiguous
    /// memory.
    loads: LoadSet,
    sleep_seq: Vec<u64>,
    pending_wake_flag: Vec<bool>,
    rqs: Vec<RunQueue>,
    acct: CpuAccounting,
    last_advance: SimTime,
    wake_requests: Vec<WakeRequest>,
    signals: Vec<(SimTime, AppSignal)>,
    pending_wakes: Vec<TaskId>,
    migrations_up: u64,
    migrations_down: u64,
    /// Reused by `balance` so the per-tick cluster scan never allocates.
    balance_scratch: Vec<CpuId>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("tasks", &self.tasks.len())
            .field("last_advance", &self.last_advance)
            .finish_non_exhaustive()
    }
}

impl Kernel {
    /// Creates a kernel for `n_cpus` CPUs starting at `start`.
    pub fn new(n_cpus: usize, cfg: KernelConfig, start: SimTime) -> Self {
        cfg.policy.assert_valid();
        let loads = LoadSet::new(cfg.policy.load_halflife_ms());
        Kernel {
            cfg,
            tasks: Vec::new(),
            loads,
            sleep_seq: Vec::new(),
            pending_wake_flag: Vec::new(),
            rqs: (0..n_cpus).map(|_| RunQueue::new()).collect(),
            acct: CpuAccounting::new(n_cpus),
            last_advance: start,
            wake_requests: Vec::new(),
            signals: Vec::new(),
            pending_wakes: Vec::new(),
            migrations_up: 0,
            migrations_down: 0,
            balance_scratch: Vec::with_capacity(n_cpus),
        }
    }

    /// The kernel configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// Spawns a task and immediately runs its first step exchange.
    pub fn spawn(
        &mut self,
        name: impl Into<Arc<str>>,
        affinity: Affinity,
        behavior: Box<dyn TaskBehavior>,
        hw: &Hw<'_>,
        now: SimTime,
    ) -> TaskId {
        let tid = TaskId(self.tasks.len());
        let load_idx = self.loads.push(now);
        debug_assert_eq!(load_idx, tid.0, "load set must stay task-indexed");
        self.tasks.push(TaskCb {
            name: name.into(),
            state: TaskState::Blocked,
            behavior,
            affinity,
            remaining: Work::ZERO,
            profile: WorkProfile::default(),
            cpu: None,
            last_cpu: None,
            vruntime: 0,
            cpu_time: SimDuration::ZERO,
            cpu_time_by_kind: [SimDuration::ZERO; 2],
        });
        self.sleep_seq.push(0);
        self.pending_wake_flag.push(false);
        self.exchange_step(tid, hw, now);
        self.drain_pending_wakes(hw, now);
        self.dispatch_all();
        tid
    }

    // ---- time advancement -------------------------------------------------

    /// Advances all CPUs to `now`: drains work on running tasks, accrues
    /// busy accounting and load averages.
    pub fn advance_to(&mut self, hw: &Hw<'_>, now: SimTime) {
        if now <= self.last_advance {
            return;
        }
        let dt = now.duration_since(self.last_advance);
        for cpu_idx in 0..self.rqs.len() {
            let cpu = CpuId(cpu_idx);
            if let Some(tid) = self.rqs[cpu_idx].current() {
                let rate = hw.rate(&self.tasks[tid.0].profile, cpu);
                let executed = Work::from_instructions(rate * dt.as_secs_f64());
                let kind_idx = match hw.platform.topology.kind_of(cpu) {
                    CoreKind::Little => 0,
                    CoreKind::Big => 1,
                };
                let t = &mut self.tasks[tid.0];
                t.remaining = t.remaining.saturating_sub(executed);
                t.cpu_time += dt;
                t.cpu_time_by_kind[kind_idx] += dt;
                t.vruntime += dt.as_nanos();
                self.acct.add_busy(cpu, dt);
            }
        }
        // Load tracking: every runnable task contributes at its CPU's
        // frequency ratio; sleeping/blocked tasks are frozen. One fused
        // decay+accumulate kernel pass over the SoA load set — the hot
        // loop of this method.
        let tasks = &self.tasks;
        self.loads.update_batch_with(now, |tid| {
            let t = &tasks[tid];
            (t.state == TaskState::Runnable).then(|| t.cpu.map_or(0.0, |c| hw.freq_ratio(c)))
        });
        self.last_advance = now;
    }

    /// The earliest time any CPU's current quantum completes, given current
    /// frequencies; `None` when every CPU is idle.
    pub fn next_completion_time(&self, hw: &Hw<'_>, now: SimTime) -> Option<SimTime> {
        let mut earliest: Option<SimTime> = None;
        for (cpu_idx, rq) in self.rqs.iter().enumerate() {
            if let Some(tid) = rq.current() {
                let t = &self.tasks[tid.0];
                if t.remaining.instructions() <= WORK_EPS_INSTRUCTIONS {
                    return Some(now);
                }
                let rate = hw.rate(&t.profile, CpuId(cpu_idx));
                let secs = t.remaining.instructions() / rate;
                let at = now + SimDuration::from_nanos((secs * 1e9).ceil() as u64);
                earliest = Some(earliest.map_or(at, |e| e.min(at)));
            }
        }
        earliest
    }

    /// Completes any quanta that have drained, running the owning tasks'
    /// next step exchanges and re-dispatching.
    pub fn handle_completions(&mut self, hw: &Hw<'_>, now: SimTime) {
        for cpu_idx in 0..self.rqs.len() {
            if let Some(tid) = self.rqs[cpu_idx].current() {
                if self.tasks[tid.0].remaining.instructions() <= WORK_EPS_INSTRUCTIONS {
                    self.rqs[cpu_idx].remove(tid);
                    self.tasks[tid.0].cpu = None;
                    self.exchange_step(tid, hw, now);
                }
            }
        }
        self.drain_pending_wakes(hw, now);
        self.dispatch_all();
    }

    // ---- hotplug ------------------------------------------------------------

    /// Reacts to a CPU going offline: the dying CPU's runqueue is drained
    /// and every queued task is rehomed onto a surviving CPU. Tasks pinned
    /// to the dying CPU — runnable, sleeping or blocked — have their
    /// affinity widened to [`Affinity::Any`], mirroring Linux
    /// `select_fallback_rq`, which breaks a task's mask rather than strand
    /// it ("no longer affine to cpuN").
    ///
    /// The platform state must already show the CPU offline (call
    /// `PlatformState::set_online` first); the one-little-always-online
    /// rule is enforced there, so the kernel always has somewhere to drain
    /// to.
    ///
    /// Returns the ids of the tasks that were rehomed.
    pub fn offline_cpu(&mut self, cpu: CpuId, hw: &Hw<'_>) -> Vec<TaskId> {
        debug_assert!(
            !hw.online(cpu),
            "offline_cpu: platform still shows {cpu} online"
        );
        for t in &mut self.tasks {
            if t.affinity == Affinity::Pinned(cpu) {
                t.affinity = Affinity::Any;
            }
        }
        let rq = &mut self.rqs[cpu.0];
        let mut drained: Vec<TaskId> = Vec::new();
        drained.extend(rq.current());
        drained.extend(rq.waiting().iter().copied());
        for tid in &drained {
            self.rqs[cpu.0].remove(*tid);
            self.tasks[tid.0].cpu = None;
        }
        for tid in &drained {
            let target = self.select_cpu(*tid, hw);
            self.tasks[tid.0].cpu = Some(target);
            self.tasks[tid.0].last_cpu = Some(target);
            self.rqs[target.0].enqueue(*tid);
        }
        self.dispatch_all();
        drained
    }

    /// Reacts to a CPU coming back online. The kernel keeps no per-CPU
    /// state that needs rebuilding — the runqueue sat empty while the CPU
    /// was down — so this only validates that invariant; the next tick's
    /// balancer and wake placement start using the CPU naturally.
    pub fn online_cpu(&mut self, cpu: CpuId, hw: &Hw<'_>) {
        debug_assert!(hw.online(cpu), "online_cpu: platform shows {cpu} offline");
        debug_assert!(
            self.rqs[cpu.0].is_empty(),
            "invariant: an offline cpu's runqueue must stay empty"
        );
    }

    /// Verifies the resilience layer's "never lose a task" guarantee:
    /// every runnable task is queued on exactly one runqueue, and no
    /// runqueue holds a non-runnable task.
    ///
    /// # Errors
    ///
    /// [`SimError::TaskLost`] describing the first violation — always a
    /// simulator bug if it fires.
    pub fn check_no_lost_tasks(&self) -> Result<(), SimError> {
        let mut queued = vec![0usize; self.tasks.len()];
        for (cpu, rq) in self.rqs.iter().enumerate() {
            for tid in rq.current().iter().chain(rq.waiting()) {
                queued[tid.0] += 1;
                if self.tasks[tid.0].state != TaskState::Runnable {
                    return Err(SimError::TaskLost {
                        task: tid.0,
                        detail: format!("{:?} task queued on cpu{cpu}", self.tasks[tid.0].state),
                    });
                }
            }
        }
        for (tid, count) in queued.iter().enumerate() {
            let runnable = self.tasks[tid].state == TaskState::Runnable;
            if runnable && *count != 1 {
                return Err(SimError::TaskLost {
                    task: tid,
                    detail: format!("runnable task on {count} runqueues (expected 1)"),
                });
            }
        }
        Ok(())
    }

    // ---- timers and wakes ---------------------------------------------------

    /// Delivers a sleep timer. Stale timers (the task was woken early or
    /// re-slept) are ignored via the sequence number.
    pub fn timer_wake(&mut self, tid: TaskId, seq: u64, hw: &Hw<'_>, now: SimTime) {
        if self.sleep_seq[tid.0] != seq || self.tasks[tid.0].state != TaskState::Sleeping {
            return;
        }
        self.wake_common(tid, hw, now);
    }

    /// Wakes a blocked or sleeping task from outside (input scripts, other
    /// tasks). If the task is currently runnable the wake is remembered and
    /// consumed when it next blocks — modeling a pending-event queue of
    /// depth one.
    pub fn wake_external(&mut self, tid: TaskId, hw: &Hw<'_>, now: SimTime) {
        match self.tasks[tid.0].state {
            TaskState::Blocked | TaskState::Sleeping => {
                self.sleep_seq[tid.0] += 1; // invalidate any pending timer
                self.wake_common(tid, hw, now);
            }
            TaskState::Runnable => {
                self.pending_wake_flag[tid.0] = true;
            }
            TaskState::Exited => {}
        }
    }

    fn wake_common(&mut self, tid: TaskId, hw: &Hw<'_>, now: SimTime) {
        // Linaro-HMP semantics: the load is not updated *during* sleep, but
        // the elapsed sleep decays it lazily at wakeup (contribution 0).
        self.loads.update(tid.0, now, 0.0);
        self.exchange_step(tid, hw, now);
        self.drain_pending_wakes(hw, now);
        self.dispatch_all();
    }

    // ---- periodic tick ------------------------------------------------------

    /// Scheduler tick: preemption, HMP migration, intra-cluster balancing.
    /// The driver must call [`Kernel::advance_to`] up to `now` first.
    pub fn tick(&mut self, hw: &Hw<'_>, now: SimTime) {
        debug_assert_eq!(self.last_advance, now, "tick without advance");
        self.preempt_all();
        match self.cfg.policy {
            AsymPolicy::Hmp(params) => self.hmp_migrate(hw, &params),
            AsymPolicy::EfficiencyBased { min_load } => self.efficiency_migrate(hw, min_load),
            AsymPolicy::ParallelismAware {
                serial_threshold,
                min_load,
            } => self.parallelism_migrate(hw, serial_threshold, min_load),
            AsymPolicy::Disabled => {}
        }
        if self.cfg.balance_enabled {
            self.balance(hw);
        }
        self.dispatch_all();
    }

    /// Round-robin fairness: on every tick each CPU re-dispatches the
    /// waiting task with the minimum vruntime (the current task yields if
    /// someone waits).
    fn preempt_all(&mut self) {
        for rq in &mut self.rqs {
            if !rq.waiting().is_empty() {
                rq.yield_current();
            }
        }
    }

    /// HMP up/down migration (paper Algorithm 1).
    fn hmp_migrate(&mut self, hw: &Hw<'_>, params: &HmpParams) {
        let topo = &hw.platform.topology;
        for tid in 0..self.tasks.len() {
            let t = &self.tasks[tid];
            if t.state != TaskState::Runnable || t.affinity != Affinity::Any {
                continue;
            }
            let Some(cpu) = t.cpu else { continue };
            let kind = topo.kind_of(cpu);
            let load = self.loads.value(tid);
            let target_kind = match kind {
                CoreKind::Little if load > params.up_threshold => CoreKind::Big,
                CoreKind::Big if load < params.down_threshold => CoreKind::Little,
                _ => continue,
            };
            let Some(target) = self.idlest_of_kind(hw, target_kind) else {
                continue;
            };
            self.move_task(TaskId(tid), target);
            match target_kind {
                CoreKind::Big => self.migrations_up += 1,
                CoreKind::Little => self.migrations_down += 1,
            }
        }
    }

    /// Big-core speedup estimate for a profile at each cluster's maximum
    /// frequency — exact in simulation, where the paper's schedulers would
    /// sample or model it.
    fn big_speedup(&self, hw: &Hw<'_>, profile: &WorkProfile) -> f64 {
        let topo = &hw.platform.topology;
        let (Some(lc), Some(bc)) = (
            topo.cluster_of_kind(CoreKind::Little),
            topo.cluster_of_kind(CoreKind::Big),
        ) else {
            return 1.0;
        };
        let big = hw.platform.perf.ips(
            profile,
            CoreKind::Big,
            &bc.l2,
            bc.core.opps.max_khz() as f64 / 1e6,
        );
        let little = hw.platform.perf.ips(
            profile,
            CoreKind::Little,
            &lc.l2,
            lc.core.opps.max_khz() as f64 / 1e6,
        );
        big / little
    }

    /// Runnable, freely migratable tasks with at least `min_load`.
    fn migratable_tasks(&self, min_load: f64) -> Vec<TaskId> {
        (0..self.tasks.len())
            .filter(|i| {
                let t = &self.tasks[*i];
                t.state == TaskState::Runnable
                    && t.affinity == Affinity::Any
                    && t.cpu.is_some()
                    && self.loads.value(*i) >= min_load
            })
            .map(TaskId)
            .collect()
    }

    fn move_to_kind(&mut self, hw: &Hw<'_>, tid: TaskId, kind: CoreKind) {
        let topo = &hw.platform.topology;
        let Some(cpu) = self.tasks[tid.0].cpu else {
            return;
        };
        if topo.kind_of(cpu) == kind {
            return;
        }
        let Some(target) = self.idlest_of_kind(hw, kind) else {
            return;
        };
        self.move_task(tid, target);
        match kind {
            CoreKind::Big => self.migrations_up += 1,
            CoreKind::Little => self.migrations_down += 1,
        }
    }

    /// Efficiency-based scheduling (paper §IV.A, Kumar et al.): the top-N
    /// loaded tasks by big-core speedup own the N online big cores.
    fn efficiency_migrate(&mut self, hw: &Hw<'_>, min_load: f64) {
        let n_big = hw.n_online_of_kind(CoreKind::Big);
        if n_big == 0 {
            return;
        }
        let mut ranked: Vec<(TaskId, f64)> = self
            .migratable_tasks(min_load)
            .into_iter()
            .map(|tid| {
                let s = self.big_speedup(hw, &self.tasks[tid.0].profile);
                (tid, s)
            })
            .collect();
        // total_cmp: a NaN speedup (degenerate profile) must not silently
        // compare Equal and scramble an otherwise strict ranking.
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (i, (tid, _)) in ranked.into_iter().enumerate() {
            let kind = if i < n_big {
                CoreKind::Big
            } else {
                CoreKind::Little
            };
            self.move_to_kind(hw, tid, kind);
        }
    }

    /// Parallelism-aware scheduling (paper §IV.A, Saez et al.): serial
    /// phases (few runnable tasks) run on big cores to shorten the critical
    /// path; parallel phases spread over the energy-efficient little cores.
    fn parallelism_migrate(&mut self, hw: &Hw<'_>, serial_threshold: usize, min_load: f64) {
        let active = self.migratable_tasks(min_load);
        if active.is_empty() {
            return;
        }
        let target = if active.len() <= serial_threshold && hw.n_online_of_kind(CoreKind::Big) > 0 {
            CoreKind::Big
        } else {
            CoreKind::Little
        };
        for tid in active {
            self.move_to_kind(hw, tid, target);
        }
    }

    /// Moves waiting tasks from overloaded CPUs to idle CPUs of the same
    /// cluster.
    fn balance(&mut self, hw: &Hw<'_>) {
        let topo = &hw.platform.topology;
        let mut online = std::mem::take(&mut self.balance_scratch);
        for cluster in topo.clusters() {
            online.clear();
            online.extend(hw.iter_online_of_kind(cluster.core.kind));
            while let Some(idle) = online.iter().copied().find(|c| self.rqs[c.0].is_empty()) {
                // Busiest donor: a CPU that is both executing a task and has
                // waiters (a CPU with only waiters will self-dispatch).
                let Some(donor) = online
                    .iter()
                    .copied()
                    .filter(|c| self.rqs[c.0].len() >= 2 && !self.rqs[c.0].waiting().is_empty())
                    .max_by_key(|c| self.rqs[c.0].len())
                else {
                    break;
                };
                // Steal the heaviest *migratable* waiter (pinned tasks stay).
                let Some(stolen) = self.rqs[donor.0]
                    .waiting()
                    .iter()
                    .copied()
                    .filter(|t| !matches!(self.tasks[t.0].affinity, Affinity::Pinned(_)))
                    .max_by_key(|t| self.loads.value(t.0) as u64)
                else {
                    break;
                };
                self.rqs[donor.0].remove(stolen);
                self.tasks[stolen.0].cpu = Some(idle);
                self.tasks[stolen.0].last_cpu = Some(idle);
                self.rqs[idle.0].enqueue(stolen);
                // Dispatch immediately so the receiving CPU is no longer
                // idle (and never becomes a donor of the same task).
                let tasks = &self.tasks;
                self.rqs[idle.0].dispatch(|t| tasks[t.0].vruntime);
            }
        }
        self.balance_scratch = online;
        self.dispatch_all();
    }

    // ---- step exchange ------------------------------------------------------

    /// Runs the behavior until it produces a non-immediate step and applies
    /// it.
    fn exchange_step(&mut self, tid: TaskId, hw: &Hw<'_>, now: SimTime) {
        for _ in 0..MAX_IMMEDIATE_STEPS {
            let mut wakes = Vec::new();
            let mut behavior: Box<dyn TaskBehavior> =
                std::mem::replace(&mut self.tasks[tid.0].behavior, Box::new(NoopBehavior));
            let step = {
                let mut ctx = BehaviorCtx {
                    now,
                    wakes: &mut wakes,
                    signals: &mut self.signals,
                };
                behavior.next_step(&mut ctx)
            };
            self.tasks[tid.0].behavior = behavior;
            self.pending_wakes
                .extend(wakes.into_iter().filter(|w| *w != tid));

            match step {
                Step::Compute { work, profile } => {
                    if work.instructions() <= WORK_EPS_INSTRUCTIONS {
                        continue; // degenerate: ask again
                    }
                    let t = &mut self.tasks[tid.0];
                    t.remaining = work;
                    t.profile = profile;
                    t.state = TaskState::Runnable;
                    let cpu = self.select_cpu(tid, hw);
                    // Wake-time placement across core kinds is a migration
                    // too (HMP checks its thresholds in select_task_rq).
                    let topo = &hw.platform.topology;
                    if let Some(prev) = self.tasks[tid.0].last_cpu {
                        match (topo.kind_of(prev), topo.kind_of(cpu)) {
                            (CoreKind::Little, CoreKind::Big) => self.migrations_up += 1,
                            (CoreKind::Big, CoreKind::Little) => self.migrations_down += 1,
                            _ => {}
                        }
                    }
                    self.tasks[tid.0].cpu = Some(cpu);
                    self.tasks[tid.0].last_cpu = Some(cpu);
                    self.rqs[cpu.0].enqueue(tid);
                    return;
                }
                Step::Sleep(d) => {
                    if d.is_zero() {
                        continue;
                    }
                    self.enter_sleep(tid, now + d);
                    return;
                }
                Step::SleepUntil(t) => {
                    if t <= now {
                        continue;
                    }
                    self.enter_sleep(tid, t);
                    return;
                }
                Step::Block => {
                    if self.pending_wake_flag[tid.0] {
                        // A wake arrived while we were runnable: consume it
                        // and ask for the next step immediately.
                        self.pending_wake_flag[tid.0] = false;
                        continue;
                    }
                    self.tasks[tid.0].state = TaskState::Blocked;
                    return;
                }
                Step::Exit => {
                    self.tasks[tid.0].state = TaskState::Exited;
                    return;
                }
            }
        }
        panic!(
            "task {} ({}) livelocked: {MAX_IMMEDIATE_STEPS} immediate steps",
            tid, self.tasks[tid.0].name
        );
    }

    fn enter_sleep(&mut self, tid: TaskId, wake_at: SimTime) {
        self.tasks[tid.0].state = TaskState::Sleeping;
        self.sleep_seq[tid.0] += 1;
        self.wake_requests.push(WakeRequest {
            tid,
            seq: self.sleep_seq[tid.0],
            at: wake_at,
        });
    }

    fn drain_pending_wakes(&mut self, hw: &Hw<'_>, now: SimTime) {
        while let Some(tid) = self.pending_wakes.pop() {
            self.wake_external(tid, hw, now);
        }
    }

    // ---- placement ---------------------------------------------------------

    /// Idlest online CPU of a kind, `None` when the whole side is off.
    ///
    /// `Iterator::min_by_key` keeps the *first* minimum and the key is made
    /// unique by the CPU id, so this picks exactly the CPU the old
    /// collect-then-scan version did — without the candidate `Vec`.
    fn idlest_of_kind(&self, hw: &Hw<'_>, kind: CoreKind) -> Option<CpuId> {
        hw.iter_online_of_kind(kind)
            .min_by_key(|c| (self.rqs[c.0].len(), c.0))
    }

    /// Idlest online CPU, preferring `kind` but degrading to the other
    /// side when a cluster is fully throttled off or hotplugged out.
    ///
    /// # Panics
    ///
    /// Panics only if *no* CPU is online — impossible while the platform's
    /// one-little-always-online invariant holds.
    fn fallback_cpu(&self, kind: CoreKind, hw: &Hw<'_>) -> CpuId {
        self.idlest_of_kind(hw, kind)
            .or_else(|| self.idlest_of_kind(hw, kind.other()))
            .expect("invariant violated: no online cpus (platform must keep one little online)")
    }

    fn select_cpu(&self, tid: TaskId, hw: &Hw<'_>) -> CpuId {
        let t = &self.tasks[tid.0];
        match t.affinity {
            Affinity::Pinned(cpu) => {
                if hw.online(cpu) {
                    cpu
                } else {
                    // Only reachable in the window between a CPU dying and
                    // `offline_cpu` widening its pins; place like Linux
                    // select_fallback_rq instead of stranding the task.
                    self.fallback_cpu(hw.platform.topology.kind_of(cpu), hw)
                }
            }
            Affinity::Kind(kind) => self.fallback_cpu(kind, hw),
            Affinity::Any => {
                // HMP-aware wake placement: cross-threshold loads pick the
                // matching side; otherwise the task returns to the side it
                // last ran on (cache affinity) — the tick-time down
                // migration is what later pulls a cooled-down task back to
                // little, exactly as on the real scheduler.
                let load = self.loads.value(tid.0);
                let last_kind = t.last_cpu.map(|c| hw.platform.topology.kind_of(c));
                let preferred = match self.cfg.policy {
                    AsymPolicy::Hmp(params) if load > params.up_threshold => CoreKind::Big,
                    AsymPolicy::Hmp(params) if load < params.down_threshold => CoreKind::Little,
                    // Efficiency/parallelism policies re-rank at every tick;
                    // wakes go back where the task last ran.
                    _ => last_kind.unwrap_or(CoreKind::Little),
                };
                // Wake affinity: stay on the previous CPU when it is still
                // idle and on the preferred side (CFS wake_affine); fall
                // back to the idlest CPU of the preferred side.
                if let Some(prev) = t.last_cpu {
                    if hw.online(prev)
                        && hw.platform.topology.kind_of(prev) == preferred
                        && self.rqs[prev.0].is_empty()
                    {
                        return prev;
                    }
                }
                self.fallback_cpu(preferred, hw)
            }
        }
    }

    fn move_task(&mut self, tid: TaskId, target: CpuId) {
        let Some(src) = self.tasks[tid.0].cpu else {
            return;
        };
        if src == target {
            return;
        }
        self.rqs[src.0].remove(tid);
        self.tasks[tid.0].cpu = Some(target);
        self.tasks[tid.0].last_cpu = Some(target);
        self.rqs[target.0].enqueue(tid);
    }

    fn dispatch_all(&mut self) {
        for rq in &mut self.rqs {
            let tasks = &self.tasks;
            rq.dispatch(|t| tasks[t.0].vruntime);
        }
    }

    // ---- observation ---------------------------------------------------------

    /// Per-CPU instantaneous activity for the power model: 0 when idle,
    /// the running task's profile energy intensity (≈1.0) otherwise.
    pub fn activity(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.rqs.len());
        self.activity_into(&mut out);
        out
    }

    /// [`Kernel::activity`] into a caller-owned buffer (cleared first), for
    /// hot loops that read activity at every power sample.
    pub fn activity_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.rqs.iter().map(|rq| match rq.current() {
            Some(tid) => self.tasks[tid.0].profile.energy_intensity,
            None => 0.0,
        }));
    }

    /// True when no CPU is executing or queueing any task — the whole
    /// machine is idle and only timers/events can change that.
    pub fn all_idle(&self) -> bool {
        self.rqs.iter().all(|rq| rq.is_empty())
    }

    /// Busy-time counters for windowed readers.
    pub fn accounting(&self) -> &CpuAccounting {
        &self.acct
    }

    /// Pending wake timers for the driver to schedule (drains them).
    pub fn drain_wake_requests(&mut self) -> Vec<WakeRequest> {
        std::mem::take(&mut self.wake_requests)
    }

    /// [`Kernel::drain_wake_requests`] into a caller-owned buffer: the
    /// buffers swap, so capacity ping-pongs between kernel and driver and
    /// the steady-state loop never allocates.
    pub fn drain_wake_requests_into(&mut self, out: &mut Vec<WakeRequest>) {
        out.clear();
        std::mem::swap(out, &mut self.wake_requests);
    }

    /// Application signals emitted since the last drain.
    pub fn drain_signals(&mut self) -> Vec<(SimTime, AppSignal)> {
        std::mem::take(&mut self.signals)
    }

    /// [`Kernel::drain_signals`] into a caller-owned buffer (swap-based,
    /// allocation-free at steady state).
    pub fn drain_signals_into(&mut self, out: &mut Vec<(SimTime, AppSignal)>) {
        out.clear();
        std::mem::swap(out, &mut self.signals);
    }

    /// The task currently executing on `cpu`.
    pub fn current_task(&self, cpu: CpuId) -> Option<TaskId> {
        self.rqs[cpu.0].current()
    }

    /// Lifecycle state of a task.
    pub fn task_state(&self, tid: TaskId) -> TaskState {
        self.tasks[tid.0].state
    }

    /// Current HMP load of a task (0–1024).
    pub fn task_load(&self, tid: TaskId) -> f64 {
        self.loads.value(tid.0)
    }

    /// The whole population's load averages, indexed by task id — the
    /// batch read path behind reports and snapshot fingerprints.
    pub fn task_loads(&self) -> &[f64] {
        self.loads.values()
    }

    /// The CPU whose runqueue holds the task, if runnable.
    pub fn task_cpu(&self, tid: TaskId) -> Option<CpuId> {
        self.tasks[tid.0].cpu
    }

    /// Total CPU time a task has consumed.
    pub fn task_cpu_time(&self, tid: TaskId) -> SimDuration {
        self.tasks[tid.0].cpu_time
    }

    /// Per-task summary rows: (name, total CPU time, little time, big time,
    /// current load), in spawn order — the thread-level breakdown behind
    /// the paper's per-app numbers.
    pub fn task_report(&self) -> Vec<TaskReportRow> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| TaskReportRow {
                name: t.name.clone(),
                cpu_time: t.cpu_time,
                little_time: t.cpu_time_by_kind[0],
                big_time: t.cpu_time_by_kind[1],
                load: self.loads.value(i),
                state: t.state,
            })
            .collect()
    }

    /// Number of spawned tasks (including exited).
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Snapshot of the scheduler's task conservation state — the audit
    /// hook behind the runtime invariant auditor. Cheap (one pass over
    /// tasks and runqueues) so it can run at a high event cadence.
    pub fn census(&self) -> TaskCensus {
        let mut runnable = 0;
        let mut exited = 0;
        for t in &self.tasks {
            match t.state {
                TaskState::Runnable => runnable += 1,
                TaskState::Exited => exited += 1,
                TaskState::Sleeping | TaskState::Blocked => {}
            }
        }
        let queued = self
            .rqs
            .iter()
            .map(|rq| rq.current().iter().count() + rq.waiting().len())
            .sum();
        TaskCensus {
            spawned: self.tasks.len(),
            runnable,
            queued,
            exited,
        }
    }

    /// True when every task has exited.
    pub fn all_exited(&self) -> bool {
        self.tasks.iter().all(|t| t.state == TaskState::Exited)
    }

    /// (up, down) HMP migration counts so far.
    pub fn migration_counts(&self) -> (u64, u64) {
        (self.migrations_up, self.migrations_down)
    }

    /// Tick period configured for this kernel.
    pub fn tick_period(&self) -> SimDuration {
        self.cfg.tick_period
    }

    // ---- snapshot save / restore -------------------------------------------

    /// Captures the whole scheduler as a serializable [`KernelSaved`] —
    /// the kernel half of a simulation snapshot: runqueues, accounting,
    /// load averages, pending wakes/signals and every live task's
    /// behavior through [`TaskBehavior::save_box`], with shared handles
    /// (job queues, completion trackers) deduplicated via `ctx`.
    ///
    /// Exited tasks save no behavior (their original can never run again,
    /// so its identity is irrelevant to determinism); they restore to a
    /// no-op.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotUnsupported`] naming the first live task whose
    /// behavior declines to save (ad-hoc closure behaviors).
    pub fn state_save(&self, ctx: &mut SaveCtx) -> Result<KernelSaved, SimError> {
        let mut tasks = Vec::with_capacity(self.tasks.len());
        for (i, t) in self.tasks.iter().enumerate() {
            let behavior = if t.state == TaskState::Exited {
                None
            } else {
                Some(
                    t.behavior
                        .save_box(ctx)
                        .ok_or_else(|| SimError::SnapshotUnsupported {
                            detail: format!("task {} ({}) has an opaque behavior", i, t.name),
                        })?,
                )
            };
            tasks.push(TaskSaved {
                name: t.name.to_string(),
                state: t.state,
                behavior,
                affinity: t.affinity,
                remaining: t.remaining,
                profile: t.profile,
                cpu: t.cpu,
                last_cpu: t.last_cpu,
                vruntime: t.vruntime,
                cpu_time: t.cpu_time,
                little_time: t.cpu_time_by_kind[0],
                big_time: t.cpu_time_by_kind[1],
            });
        }
        Ok(KernelSaved {
            cfg: self.cfg,
            tasks,
            loads: self.loads.state_save(),
            sleep_seq: self.sleep_seq.clone(),
            pending_wake_flag: self.pending_wake_flag.clone(),
            rqs: self.rqs.clone(),
            acct: self.acct.clone(),
            last_advance: self.last_advance,
            wake_requests: self.wake_requests.clone(),
            signals: self.signals.clone(),
            pending_wakes: self.pending_wakes.clone(),
            migrations_up: self.migrations_up,
            migrations_down: self.migrations_down,
        })
    }

    /// Rebuilds a kernel from [`Kernel::state_save`] output. `restore`
    /// turns each task's [`BehaviorSaved`] back into a live behavior
    /// (the workload crate's dispatcher), deduplicating shared handles
    /// through `ctx`.
    ///
    /// # Errors
    ///
    /// Propagates `restore` errors (an unknown dispatch tag, a malformed
    /// payload) verbatim.
    pub fn state_restore(
        saved: &KernelSaved,
        ctx: &mut RestoreCtx,
        mut restore: impl FnMut(
            &BehaviorSaved,
            &mut RestoreCtx,
        ) -> Result<Box<dyn TaskBehavior>, SimError>,
    ) -> Result<Kernel, SimError> {
        let mut tasks = Vec::with_capacity(saved.tasks.len());
        for t in &saved.tasks {
            let behavior: Box<dyn TaskBehavior> = match &t.behavior {
                Some(b) => restore(b, ctx)?,
                None => Box::new(NoopBehavior),
            };
            tasks.push(TaskCb {
                name: Arc::from(t.name.as_str()),
                state: t.state,
                behavior,
                affinity: t.affinity,
                remaining: t.remaining,
                profile: t.profile,
                cpu: t.cpu,
                last_cpu: t.last_cpu,
                vruntime: t.vruntime,
                cpu_time: t.cpu_time,
                cpu_time_by_kind: [t.little_time, t.big_time],
            });
        }
        saved.cfg.policy.assert_valid();
        Ok(Kernel {
            cfg: saved.cfg,
            tasks,
            loads: LoadSet::state_restore(&saved.loads),
            sleep_seq: saved.sleep_seq.clone(),
            pending_wake_flag: saved.pending_wake_flag.clone(),
            rqs: saved.rqs.clone(),
            acct: saved.acct.clone(),
            last_advance: saved.last_advance,
            wake_requests: saved.wake_requests.clone(),
            signals: saved.signals.clone(),
            pending_wakes: saved.pending_wakes.clone(),
            migrations_up: saved.migrations_up,
            migrations_down: saved.migrations_down,
            balance_scratch: Vec::with_capacity(saved.rqs.len()),
        })
    }

    /// Full load scale constant re-exported for convenience.
    pub const LOAD_SCALE: f64 = LOAD_SCALE;
}

/// Serialized form of one task control block within a [`KernelSaved`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TaskSaved {
    /// Task name.
    pub name: String,
    /// Lifecycle state.
    pub state: TaskState,
    /// Behavior payload; `None` only for exited tasks, which restore to a
    /// no-op behavior.
    pub behavior: Option<BehaviorSaved>,
    /// Placement constraint.
    pub affinity: Affinity,
    /// Remaining work of the current compute step.
    pub remaining: Work,
    /// Profile of the current compute step.
    pub profile: WorkProfile,
    /// CPU whose runqueue holds the task (valid while runnable).
    pub cpu: Option<CpuId>,
    /// Last CPU the task ran on (wake-placement cache affinity).
    pub last_cpu: Option<CpuId>,
    /// CFS-style virtual runtime in nanoseconds.
    pub vruntime: u64,
    /// Total CPU time consumed.
    pub cpu_time: SimDuration,
    /// CPU time consumed on little cores.
    pub little_time: SimDuration,
    /// CPU time consumed on big cores.
    pub big_time: SimDuration,
}

/// Serialized form of the whole scheduler, produced by
/// [`Kernel::state_save`] and consumed by [`Kernel::state_restore`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KernelSaved {
    /// Construction configuration.
    pub cfg: KernelConfig,
    /// Per-task control blocks in spawn order.
    pub tasks: Vec<TaskSaved>,
    /// Structure-of-arrays load averages, task-indexed.
    pub loads: LoadSetSaved,
    /// Sleep timer sequence numbers, task-indexed.
    pub sleep_seq: Vec<u64>,
    /// Pending-wake flags, task-indexed.
    pub pending_wake_flag: Vec<bool>,
    /// Per-CPU runqueues.
    pub rqs: Vec<RunQueue>,
    /// Per-CPU busy-time accounting.
    pub acct: CpuAccounting,
    /// Instant the kernel last advanced to.
    pub last_advance: SimTime,
    /// Wake timers not yet drained by the driver.
    pub wake_requests: Vec<WakeRequest>,
    /// Application signals not yet drained by the measurement layer.
    pub signals: Vec<(SimTime, AppSignal)>,
    /// Wakes queued during a step exchange, not yet delivered.
    pub pending_wakes: Vec<TaskId>,
    /// HMP up-migrations so far.
    pub migrations_up: u64,
    /// HMP down-migrations so far.
    pub migrations_down: u64,
}
