//! Reusable task behaviors that mobile-app models are assembled from.
//!
//! * [`ContinuousTask`] — batch work in chunks with optional I/O pauses
//!   (encoder, virus scanner, SPEC processes).
//! * [`FrameLoop`] — vsync-paced rendering with per-frame work draws and
//!   frame-drop semantics (games, video players).
//! * [`PeriodicTask`] — fixed-period light work (audio, decoder callbacks,
//!   background services).
//! * [`JobQueue`] + [`PoolWorker`] — a work queue with blocked workers
//!   (render/encode helper pools).
//! * [`UiScriptThread`] — the scripted user-interaction sequence of
//!   latency-metric apps: think time, a UI burst, then fan-out jobs.
//! * [`CompletionTracker`] — counts finished pipeline pieces and fires the
//!   `ScriptDone` signal that defines an app's latency.

use bl_kernel::task::{
    AppSignal, BehaviorCtx, BehaviorSaved, RestoreCtx, SaveCtx, Step, TaskBehavior, TaskId,
};
use bl_platform::perf::{Work, WorkProfile};
use bl_simcore::error::SimError;
use bl_simcore::rng::{RngState, SimRng};
use bl_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Maps a behavior-payload decode failure onto the typed snapshot error.
pub(crate) fn bad_payload(kind: &str, e: serde::Error) -> SimError {
    SimError::SnapshotUnsupported {
        detail: format!("malformed {kind} behavior payload: {e}"),
    }
}

// ---------------------------------------------------------------------------
// Completion tracking
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TrackerInner {
    done: usize,
    target: usize,
    fired: bool,
}

/// Serialized form of a [`CompletionTracker`] handle: the counter state
/// plus the [`SaveCtx`] share id that reunites all holders on restore.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrackerSaved {
    share: u64,
    inner: TrackerInner,
}

/// Shared counter of completed pipeline pieces; fires
/// [`AppSignal::ScriptDone`] when the target is reached.
#[derive(Debug, Clone)]
pub struct CompletionTracker(Rc<RefCell<TrackerInner>>);

impl CompletionTracker {
    /// Creates a tracker expecting `target` completions.
    pub fn new(target: usize) -> Self {
        CompletionTracker(Rc::new(RefCell::new(TrackerInner {
            done: 0,
            target,
            fired: false,
        })))
    }

    /// Registers one completion, signalling `ActionDone` and — at the
    /// target — `ScriptDone`.
    pub fn complete(&self, ctx: &mut BehaviorCtx<'_>) {
        let mut inner = self.0.borrow_mut();
        inner.done += 1;
        ctx.signal(AppSignal::ActionDone);
        if inner.done >= inner.target && !inner.fired {
            inner.fired = true;
            ctx.signal(AppSignal::ScriptDone);
        }
    }

    /// Completions so far.
    pub fn done(&self) -> usize {
        self.0.borrow().done
    }

    /// Whether the target was reached.
    pub fn is_done(&self) -> bool {
        self.0.borrow().fired
    }

    /// Serializes the tracker through `ctx`, recording its share id so all
    /// holders of this handle reunite on restore.
    pub fn save_with(&self, ctx: &mut SaveCtx) -> TrackerSaved {
        TrackerSaved {
            share: ctx.share_id(Rc::as_ptr(&self.0) as usize),
            inner: self.0.borrow().clone(),
        }
    }

    /// Rebuilds a tracker from its saved form, deduplicated through `ctx`.
    pub fn restore_from(saved: &TrackerSaved, ctx: &mut RestoreCtx) -> CompletionTracker {
        ctx.dedup(saved.share, || {
            CompletionTracker(Rc::new(RefCell::new(saved.inner.clone())))
        })
    }
}

// ---------------------------------------------------------------------------
// Job queue and pool workers
// ---------------------------------------------------------------------------

/// One unit of fan-out work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Work amount.
    pub work: Work,
    /// Architectural profile of the job.
    pub profile: WorkProfile,
    /// Whether finishing this job counts toward the completion tracker.
    pub completes: bool,
}

#[derive(Debug, Default)]
struct QueueInner {
    jobs: VecDeque<Job>,
    workers: Vec<TaskId>,
}

/// A shared FIFO of jobs consumed by [`PoolWorker`]s.
#[derive(Debug, Clone, Default)]
pub struct JobQueue(Rc<RefCell<QueueInner>>);

impl JobQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        JobQueue::default()
    }

    /// Registers a worker to be woken on pushes (call after spawning it).
    pub fn register_worker(&self, tid: TaskId) {
        self.0.borrow_mut().workers.push(tid);
    }

    /// Pushes a job and wakes all registered workers.
    pub fn push_and_wake(&self, job: Job, ctx: &mut BehaviorCtx<'_>) {
        let mut inner = self.0.borrow_mut();
        inner.jobs.push_back(job);
        for w in &inner.workers {
            ctx.wake(*w);
        }
    }

    /// Pops the oldest job.
    pub fn pop(&self) -> Option<Job> {
        self.0.borrow_mut().jobs.pop_front()
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.0.borrow().jobs.len()
    }

    /// True when no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().jobs.is_empty()
    }

    pub(crate) fn save_with(&self, ctx: &mut SaveCtx) -> QueueSaved {
        let inner = self.0.borrow();
        QueueSaved {
            share: ctx.share_id(Rc::as_ptr(&self.0) as usize),
            jobs: inner.jobs.iter().copied().collect(),
            workers: inner.workers.clone(),
        }
    }

    pub(crate) fn restore_from(saved: &QueueSaved, ctx: &mut RestoreCtx) -> JobQueue {
        ctx.dedup(saved.share, || {
            JobQueue(Rc::new(RefCell::new(QueueInner {
                jobs: saved.jobs.iter().copied().collect(),
                workers: saved.workers.clone(),
            })))
        })
    }
}

/// Serialized form of a [`JobQueue`] handle (jobs flattened from the
/// in-memory `VecDeque`, FIFO order preserved).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct QueueSaved {
    share: u64,
    jobs: Vec<Job>,
    workers: Vec<TaskId>,
}

/// A worker that drains a [`JobQueue`], blocking when it is empty.
#[derive(Debug)]
pub struct PoolWorker {
    queue: JobQueue,
    tracker: Option<CompletionTracker>,
    pending_complete: bool,
}

impl PoolWorker {
    /// Creates a worker on `queue`; completions are reported to `tracker`
    /// when given.
    pub fn new(queue: JobQueue, tracker: Option<CompletionTracker>) -> Self {
        PoolWorker {
            queue,
            tracker,
            pending_complete: false,
        }
    }
}

impl TaskBehavior for PoolWorker {
    fn next_step(&mut self, ctx: &mut BehaviorCtx<'_>) -> Step {
        if self.pending_complete {
            self.pending_complete = false;
            if let Some(t) = &self.tracker {
                t.complete(ctx);
            }
        }
        match self.queue.pop() {
            Some(job) => {
                self.pending_complete = job.completes;
                Step::Compute {
                    work: job.work,
                    profile: job.profile,
                }
            }
            None => Step::Block,
        }
    }

    fn save_box(&self, ctx: &mut SaveCtx) -> Option<BehaviorSaved> {
        let saved = PoolWorkerSaved {
            queue: self.queue.save_with(ctx),
            tracker: self.tracker.as_ref().map(|t| t.save_with(ctx)),
            pending_complete: self.pending_complete,
        };
        Some(BehaviorSaved {
            kind: "pool_worker".to_string(),
            data: saved.ser_value(),
        })
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PoolWorkerSaved {
    queue: QueueSaved,
    tracker: Option<TrackerSaved>,
    pending_complete: bool,
}

pub(crate) fn restore_pool_worker(
    data: &serde::Value,
    ctx: &mut RestoreCtx,
) -> Result<Box<dyn TaskBehavior>, SimError> {
    let s = PoolWorkerSaved::deser_value(data).map_err(|e| bad_payload("pool_worker", e))?;
    Ok(Box::new(PoolWorker {
        queue: JobQueue::restore_from(&s.queue, ctx),
        tracker: s
            .tracker
            .as_ref()
            .map(|t| CompletionTracker::restore_from(t, ctx)),
        pending_complete: s.pending_complete,
    }))
}

// ---------------------------------------------------------------------------
// Continuous batch work
// ---------------------------------------------------------------------------

/// Executes a fixed budget of work in chunks, optionally pausing for I/O
/// between chunks; exits when the budget drains.
#[derive(Debug)]
pub struct ContinuousTask {
    rng: SimRng,
    remaining: Work,
    chunk: Work,
    profile: WorkProfile,
    io_sleep: SimDuration,
    io_prob: f64,
    signal_done: bool,
    tracker: Option<CompletionTracker>,
    just_computed: bool,
}

impl ContinuousTask {
    /// Creates a batch task.
    ///
    /// `io_prob` is the chance of sleeping `io_sleep` after each chunk;
    /// `signal_done` emits `ScriptDone` directly at budget exhaustion (for
    /// single-process workloads without a tracker).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rng: SimRng,
        total: Work,
        chunk: Work,
        profile: WorkProfile,
        io_sleep: SimDuration,
        io_prob: f64,
        signal_done: bool,
    ) -> Self {
        assert!(chunk.instructions() > 0.0, "chunk must be positive");
        ContinuousTask {
            rng,
            remaining: total,
            chunk,
            profile,
            io_sleep,
            io_prob,
            signal_done,
            tracker: None,
            just_computed: false,
        }
    }

    /// Reports the budget completion to `tracker` as well.
    pub fn with_tracker(mut self, tracker: CompletionTracker) -> Self {
        self.tracker = Some(tracker);
        self
    }
}

impl TaskBehavior for ContinuousTask {
    fn next_step(&mut self, ctx: &mut BehaviorCtx<'_>) -> Step {
        if self.remaining.is_done() {
            if let Some(t) = &self.tracker {
                t.complete(ctx);
            }
            if self.signal_done {
                ctx.signal(AppSignal::ScriptDone);
            }
            return Step::Exit;
        }
        if self.just_computed && !self.io_sleep.is_zero() && self.rng.chance(self.io_prob) {
            self.just_computed = false;
            return Step::Sleep(self.io_sleep);
        }
        let w = if self.remaining.instructions() < self.chunk.instructions() {
            self.remaining
        } else {
            self.chunk
        };
        self.remaining -= w;
        self.just_computed = true;
        Step::Compute {
            work: w,
            profile: self.profile,
        }
    }

    fn save_box(&self, ctx: &mut SaveCtx) -> Option<BehaviorSaved> {
        let saved = ContinuousSaved {
            rng: self.rng.state_save(),
            remaining: self.remaining,
            chunk: self.chunk,
            profile: self.profile,
            io_sleep: self.io_sleep,
            io_prob: self.io_prob,
            signal_done: self.signal_done,
            tracker: self.tracker.as_ref().map(|t| t.save_with(ctx)),
            just_computed: self.just_computed,
        };
        Some(BehaviorSaved {
            kind: "continuous".to_string(),
            data: saved.ser_value(),
        })
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ContinuousSaved {
    rng: RngState,
    remaining: Work,
    chunk: Work,
    profile: WorkProfile,
    io_sleep: SimDuration,
    io_prob: f64,
    signal_done: bool,
    tracker: Option<TrackerSaved>,
    just_computed: bool,
}

pub(crate) fn restore_continuous(
    data: &serde::Value,
    ctx: &mut RestoreCtx,
) -> Result<Box<dyn TaskBehavior>, SimError> {
    let s = ContinuousSaved::deser_value(data).map_err(|e| bad_payload("continuous", e))?;
    Ok(Box::new(ContinuousTask {
        rng: SimRng::state_restore(&s.rng),
        remaining: s.remaining,
        chunk: s.chunk,
        profile: s.profile,
        io_sleep: s.io_sleep,
        io_prob: s.io_prob,
        signal_done: s.signal_done,
        tracker: s
            .tracker
            .as_ref()
            .map(|t| CompletionTracker::restore_from(t, ctx)),
        just_computed: s.just_computed,
    }))
}

// ---------------------------------------------------------------------------
// Scene synchronization (correlated pauses)
// ---------------------------------------------------------------------------

/// Shared pause state for one app's thread family: when the render loop
/// hits a scene-load stall it parks the whole family, producing the
/// correlated idle gaps real games show between levels/menus.
#[derive(Debug, Clone, Default)]
pub struct SceneSync(Rc<std::cell::Cell<SimTime>>);

impl SceneSync {
    /// Creates an un-paused scene.
    pub fn new() -> Self {
        SceneSync::default()
    }

    /// Declares a pause until `t`.
    pub fn pause_until(&self, t: SimTime) {
        if t > self.0.get() {
            self.0.set(t);
        }
    }

    /// If the scene is paused at `now`, the time to sleep until.
    pub fn paused_until(&self, now: SimTime) -> Option<SimTime> {
        let t = self.0.get();
        (t > now).then_some(t)
    }

    pub(crate) fn save_with(&self, ctx: &mut SaveCtx) -> SceneSaved {
        SceneSaved {
            share: ctx.share_id(Rc::as_ptr(&self.0) as usize),
            paused_until: self.0.get(),
        }
    }

    pub(crate) fn restore_from(saved: &SceneSaved, ctx: &mut RestoreCtx) -> SceneSync {
        ctx.dedup(saved.share, || {
            SceneSync(Rc::new(std::cell::Cell::new(saved.paused_until)))
        })
    }
}

/// Serialized form of a [`SceneSync`] fence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct SceneSaved {
    share: u64,
    paused_until: SimTime,
}

// ---------------------------------------------------------------------------
// Frame loop
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum FrameState {
    Idle,
    Computed { frame_start: SimTime },
}

/// Vsync-paced render loop: draw a frame's work, emit the frame signal,
/// sleep to the next vsync (skipping missed ones — dropped frames).
/// Optional stalls model scene loads / menu pauses where rendering stops
/// entirely for a while.
#[derive(Debug)]
pub struct FrameLoop {
    rng: SimRng,
    vsync: SimDuration,
    work_median: Work,
    sigma: f64,
    profile: WorkProfile,
    emit_frames: bool,
    stall_prob: f64,
    stall: SimDuration,
    scene: Option<SceneSync>,
    next_vsync: Option<SimTime>,
    state: FrameState,
}

impl FrameLoop {
    /// Creates a frame loop at `fps` with per-frame work drawn log-normally
    /// around `work_median` (shape `sigma`). Only one thread per app should
    /// set `emit_frames` (the one producing visible frames).
    pub fn new(
        rng: SimRng,
        fps: f64,
        work_median: Work,
        sigma: f64,
        profile: WorkProfile,
        emit_frames: bool,
    ) -> Self {
        assert!(fps > 0.0, "fps must be positive");
        FrameLoop {
            rng,
            vsync: SimDuration::from_secs_f64(1.0 / fps),
            work_median,
            sigma,
            profile,
            emit_frames,
            stall_prob: 0.0,
            stall: SimDuration::ZERO,
            scene: None,
            next_vsync: None,
            state: FrameState::Idle,
        }
    }

    /// Joins a scene family: this loop honors (and, if it stalls itself,
    /// declares) family-wide pauses.
    pub fn with_scene(mut self, scene: SceneSync) -> Self {
        self.scene = Some(scene);
        self
    }

    /// Adds scene-load stalls: after each frame, with probability `prob`,
    /// rendering pauses for `stall` before resuming on the vsync grid.
    pub fn with_stalls(mut self, prob: f64, stall: SimDuration) -> Self {
        assert!(
            (0.0..=1.0).contains(&prob),
            "stall probability must be in [0, 1]"
        );
        self.stall_prob = prob;
        self.stall = stall;
        self
    }

    fn draw_work(&mut self) -> Work {
        Work::from_instructions(
            self.rng
                .lognormal(self.work_median.instructions(), self.sigma),
        )
    }
}

impl TaskBehavior for FrameLoop {
    fn next_step(&mut self, ctx: &mut BehaviorCtx<'_>) -> Step {
        match self.state {
            FrameState::Idle => {
                // Honor a family-wide pause before starting a frame.
                if let Some(until) = self.scene.as_ref().and_then(|s| s.paused_until(ctx.now)) {
                    return Step::SleepUntil(until);
                }
                let work = self.draw_work();
                self.state = FrameState::Computed {
                    frame_start: ctx.now,
                };
                Step::Compute {
                    work,
                    profile: self.profile,
                }
            }
            FrameState::Computed { frame_start } => {
                if self.emit_frames {
                    ctx.signal(AppSignal::Frame {
                        frame_time: ctx.now.duration_since(frame_start),
                    });
                }
                let mut resume = ctx.now;
                if self.stall_prob > 0.0 && self.rng.chance(self.stall_prob) {
                    resume += self.stall; // scene load: no frames
                    if let Some(scene) = &self.scene {
                        scene.pause_until(resume); // park the whole family
                    }
                }
                let mut nv = self.next_vsync.unwrap_or(frame_start) + self.vsync;
                while nv <= resume {
                    nv += self.vsync; // missed vsync: frame dropped
                }
                self.next_vsync = Some(nv);
                self.state = FrameState::Idle;
                Step::SleepUntil(nv)
            }
        }
    }

    fn save_box(&self, ctx: &mut SaveCtx) -> Option<BehaviorSaved> {
        let saved = FrameLoopSaved {
            rng: self.rng.state_save(),
            vsync: self.vsync,
            work_median: self.work_median,
            sigma: self.sigma,
            profile: self.profile,
            emit_frames: self.emit_frames,
            stall_prob: self.stall_prob,
            stall: self.stall,
            scene: self.scene.as_ref().map(|s| s.save_with(ctx)),
            next_vsync: self.next_vsync,
            state: self.state,
        };
        Some(BehaviorSaved {
            kind: "frame_loop".to_string(),
            data: saved.ser_value(),
        })
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FrameLoopSaved {
    rng: RngState,
    vsync: SimDuration,
    work_median: Work,
    sigma: f64,
    profile: WorkProfile,
    emit_frames: bool,
    stall_prob: f64,
    stall: SimDuration,
    scene: Option<SceneSaved>,
    next_vsync: Option<SimTime>,
    state: FrameState,
}

pub(crate) fn restore_frame_loop(
    data: &serde::Value,
    ctx: &mut RestoreCtx,
) -> Result<Box<dyn TaskBehavior>, SimError> {
    let s = FrameLoopSaved::deser_value(data).map_err(|e| bad_payload("frame_loop", e))?;
    Ok(Box::new(FrameLoop {
        rng: SimRng::state_restore(&s.rng),
        vsync: s.vsync,
        work_median: s.work_median,
        sigma: s.sigma,
        profile: s.profile,
        emit_frames: s.emit_frames,
        stall_prob: s.stall_prob,
        stall: s.stall,
        scene: s.scene.as_ref().map(|sc| SceneSync::restore_from(sc, ctx)),
        next_vsync: s.next_vsync,
        state: s.state,
    }))
}

// ---------------------------------------------------------------------------
// Periodic light work
// ---------------------------------------------------------------------------

/// Fixed-period background work (audio mixers, decoder callbacks, polling
/// services): compute a draw, sleep roughly a period, repeat forever.
#[derive(Debug)]
pub struct PeriodicTask {
    rng: SimRng,
    period: SimDuration,
    jitter_frac: f64,
    work_median: Work,
    sigma: f64,
    profile: WorkProfile,
    scene: Option<SceneSync>,
    computing: bool,
}

impl PeriodicTask {
    /// Creates a periodic task; each cycle sleeps `period ± jitter_frac`
    /// uniformly and computes a log-normal draw around `work_median`.
    pub fn new(
        rng: SimRng,
        period: SimDuration,
        jitter_frac: f64,
        work_median: Work,
        sigma: f64,
        profile: WorkProfile,
    ) -> Self {
        assert!(!period.is_zero(), "period must be positive");
        assert!(
            (0.0..1.0).contains(&jitter_frac),
            "jitter fraction must be in [0, 1)"
        );
        PeriodicTask {
            rng,
            period,
            jitter_frac,
            work_median,
            sigma,
            profile,
            scene: None,
            computing: false,
        }
    }

    /// Joins a scene family: this task sleeps through family-wide pauses.
    pub fn with_scene(mut self, scene: SceneSync) -> Self {
        self.scene = Some(scene);
        self
    }
}

impl TaskBehavior for PeriodicTask {
    fn next_step(&mut self, ctx: &mut BehaviorCtx<'_>) -> Step {
        if let Some(until) = self.scene.as_ref().and_then(|s| s.paused_until(ctx.now)) {
            self.computing = false;
            return Step::SleepUntil(until);
        }
        if self.computing {
            self.computing = false;
            let lo = self.period.mul_f64(1.0 - self.jitter_frac);
            let hi = self.period.mul_f64(1.0 + self.jitter_frac);
            let d = if lo == hi {
                lo
            } else {
                self.rng.uniform_duration(lo, hi)
            };
            Step::Sleep(d)
        } else {
            self.computing = true;
            let work = Work::from_instructions(
                self.rng
                    .lognormal(self.work_median.instructions(), self.sigma),
            );
            let _ = ctx;
            Step::Compute {
                work,
                profile: self.profile,
            }
        }
    }

    fn save_box(&self, ctx: &mut SaveCtx) -> Option<BehaviorSaved> {
        let saved = PeriodicSaved {
            rng: self.rng.state_save(),
            period: self.period,
            jitter_frac: self.jitter_frac,
            work_median: self.work_median,
            sigma: self.sigma,
            profile: self.profile,
            scene: self.scene.as_ref().map(|s| s.save_with(ctx)),
            computing: self.computing,
        };
        Some(BehaviorSaved {
            kind: "periodic".to_string(),
            data: saved.ser_value(),
        })
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PeriodicSaved {
    rng: RngState,
    period: SimDuration,
    jitter_frac: f64,
    work_median: Work,
    sigma: f64,
    profile: WorkProfile,
    scene: Option<SceneSaved>,
    computing: bool,
}

pub(crate) fn restore_periodic(
    data: &serde::Value,
    ctx: &mut RestoreCtx,
) -> Result<Box<dyn TaskBehavior>, SimError> {
    let s = PeriodicSaved::deser_value(data).map_err(|e| bad_payload("periodic", e))?;
    Ok(Box::new(PeriodicTask {
        rng: SimRng::state_restore(&s.rng),
        period: s.period,
        jitter_frac: s.jitter_frac,
        work_median: s.work_median,
        sigma: s.sigma,
        profile: s.profile,
        scene: s.scene.as_ref().map(|sc| SceneSync::restore_from(sc, ctx)),
        computing: s.computing,
    }))
}

// ---------------------------------------------------------------------------
// Scripted UI thread
// ---------------------------------------------------------------------------

/// One user action in a latency script.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScriptAction {
    /// User think time before the action.
    pub think: SimDuration,
    /// The UI thread's own burst of work handling the input.
    pub burst: Work,
    /// Profile of the burst.
    pub burst_profile: WorkProfile,
    /// Jobs fanned out to the worker pool when the burst finishes.
    pub jobs: Vec<Job>,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum UiState {
    NextAction,
    WokeForBurst,
    AfterBurst,
}

/// The UI thread of a latency-metric app: executes a scripted sequence of
/// think → burst → fan-out actions, then exits. The app's latency is the
/// time until the [`CompletionTracker`] target (all bursts + all fan-out
/// jobs) is reached.
#[derive(Debug)]
pub struct UiScriptThread {
    actions: VecDeque<ScriptAction>,
    current: Option<ScriptAction>,
    queue: Option<JobQueue>,
    tracker: CompletionTracker,
    state: UiState,
}

impl UiScriptThread {
    /// Creates the scripted UI thread. `queue` receives fan-out jobs (must
    /// be `Some` when any action has jobs).
    pub fn new(
        actions: Vec<ScriptAction>,
        queue: Option<JobQueue>,
        tracker: CompletionTracker,
    ) -> Self {
        assert!(
            queue.is_some() || actions.iter().all(|a| a.jobs.is_empty()),
            "fan-out jobs require a queue"
        );
        UiScriptThread {
            actions: actions.into(),
            current: None,
            queue,
            tracker,
            state: UiState::NextAction,
        }
    }

    /// The tracker target for a script: one per burst plus one per
    /// tracked fan-out job.
    pub fn tracker_target(actions: &[ScriptAction]) -> usize {
        actions.len()
            + actions
                .iter()
                .map(|a| a.jobs.iter().filter(|j| j.completes).count())
                .sum::<usize>()
    }
}

impl TaskBehavior for UiScriptThread {
    fn next_step(&mut self, ctx: &mut BehaviorCtx<'_>) -> Step {
        loop {
            match self.state {
                UiState::NextAction => {
                    let Some(action) = self.actions.pop_front() else {
                        return Step::Exit;
                    };
                    let think = action.think;
                    self.current = Some(action);
                    self.state = UiState::WokeForBurst;
                    if !think.is_zero() {
                        return Step::Sleep(think);
                    }
                }
                UiState::WokeForBurst => {
                    // Dispatch fan-out jobs *before* the burst: the workers
                    // run concurrently with the UI thread, as on a real
                    // input-handling pipeline.
                    let action = self.current.as_ref().expect("action in flight");
                    if !action.jobs.is_empty() {
                        let q = self.queue.as_ref().expect("queue checked in new");
                        for job in &action.jobs {
                            q.push_and_wake(*job, ctx);
                        }
                    }
                    self.state = UiState::AfterBurst;
                    return Step::Compute {
                        work: action.burst,
                        profile: action.burst_profile,
                    };
                }
                UiState::AfterBurst => {
                    self.current = None;
                    self.tracker.complete(ctx);
                    self.state = UiState::NextAction;
                }
            }
        }
    }

    fn save_box(&self, ctx: &mut SaveCtx) -> Option<BehaviorSaved> {
        let saved = UiScriptSaved {
            actions: self.actions.iter().cloned().collect(),
            current: self.current.clone(),
            queue: self.queue.as_ref().map(|q| q.save_with(ctx)),
            tracker: self.tracker.save_with(ctx),
            state: self.state,
        };
        Some(BehaviorSaved {
            kind: "ui_script".to_string(),
            data: saved.ser_value(),
        })
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct UiScriptSaved {
    actions: Vec<ScriptAction>,
    current: Option<ScriptAction>,
    queue: Option<QueueSaved>,
    tracker: TrackerSaved,
    state: UiState,
}

pub(crate) fn restore_ui_script(
    data: &serde::Value,
    ctx: &mut RestoreCtx,
) -> Result<Box<dyn TaskBehavior>, SimError> {
    let s = UiScriptSaved::deser_value(data).map_err(|e| bad_payload("ui_script", e))?;
    Ok(Box::new(UiScriptThread {
        actions: s.actions.into(),
        current: s.current,
        queue: s.queue.as_ref().map(|q| JobQueue::restore_from(q, ctx)),
        tracker: CompletionTracker::restore_from(&s.tracker, ctx),
        state: s.state,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_parts() -> (Vec<TaskId>, Vec<(SimTime, AppSignal)>) {
        (Vec::new(), Vec::new())
    }

    fn mk_ctx<'a>(
        wakes: &'a mut Vec<TaskId>,
        signals: &'a mut Vec<(SimTime, AppSignal)>,
        now_ms: u64,
    ) -> BehaviorCtx<'a> {
        BehaviorCtx::new(SimTime::from_millis(now_ms), wakes, signals)
    }

    fn w(n: f64) -> Work {
        Work::from_mega(n)
    }

    #[test]
    fn tracker_fires_once_at_target() {
        let (mut wakes, mut signals) = ctx_parts();
        let t = CompletionTracker::new(2);
        {
            let mut ctx = mk_ctx(&mut wakes, &mut signals, 0);
            t.complete(&mut ctx);
            assert!(!t.is_done());
            t.complete(&mut ctx);
            assert!(t.is_done());
            t.complete(&mut ctx); // over-completion: no second ScriptDone
        }
        let dones = signals
            .iter()
            .filter(|(_, s)| matches!(s, AppSignal::ScriptDone))
            .count();
        assert_eq!(dones, 1);
        assert_eq!(t.done(), 3);
    }

    #[test]
    fn job_queue_wakes_registered_workers() {
        let (mut wakes, mut signals) = ctx_parts();
        let q = JobQueue::new();
        q.register_worker(TaskId(7));
        q.register_worker(TaskId(9));
        {
            let mut ctx = mk_ctx(&mut wakes, &mut signals, 0);
            q.push_and_wake(
                Job {
                    work: w(1.0),
                    profile: WorkProfile::default(),
                    completes: true,
                },
                &mut ctx,
            );
        }
        assert_eq!(wakes, vec![TaskId(7), TaskId(9)]);
        assert_eq!(q.len(), 1);
        assert!(q.pop().is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn pool_worker_computes_then_blocks() {
        let (mut wakes, mut signals) = ctx_parts();
        let q = JobQueue::new();
        let tracker = CompletionTracker::new(1);
        let mut worker = PoolWorker::new(q.clone(), Some(tracker.clone()));
        {
            let mut ctx = mk_ctx(&mut wakes, &mut signals, 0);
            q.push_and_wake(
                Job {
                    work: w(2.0),
                    profile: WorkProfile::default(),
                    completes: true,
                },
                &mut ctx,
            );
            let step = worker.next_step(&mut ctx);
            assert!(matches!(step, Step::Compute { .. }));
            // Next call: queue empty -> completion reported, then block.
            let step = worker.next_step(&mut ctx);
            assert!(matches!(step, Step::Block));
        }
        assert!(tracker.is_done());
    }

    #[test]
    fn continuous_task_drains_budget_and_exits() {
        let (mut wakes, mut signals) = ctx_parts();
        let mut t = ContinuousTask::new(
            SimRng::seed_from(1),
            w(10.0),
            w(4.0),
            WorkProfile::default(),
            SimDuration::ZERO,
            0.0,
            true,
        );
        let mut computed = 0.0;
        {
            let mut ctx = mk_ctx(&mut wakes, &mut signals, 0);
            loop {
                match t.next_step(&mut ctx) {
                    Step::Compute { work, .. } => computed += work.instructions(),
                    Step::Exit => break,
                    other => panic!("unexpected step {other:?}"),
                }
            }
        }
        assert!((computed - 10e6).abs() < 1.0);
        assert!(signals
            .iter()
            .any(|(_, s)| matches!(s, AppSignal::ScriptDone)));
    }

    #[test]
    fn continuous_task_inserts_io_sleeps() {
        let (mut wakes, mut signals) = ctx_parts();
        let mut t = ContinuousTask::new(
            SimRng::seed_from(2),
            w(100.0),
            w(1.0),
            WorkProfile::default(),
            SimDuration::from_millis(2),
            1.0, // always sleep between chunks
            false,
        );
        let mut ctx = mk_ctx(&mut wakes, &mut signals, 0);
        assert!(matches!(t.next_step(&mut ctx), Step::Compute { .. }));
        assert!(matches!(t.next_step(&mut ctx), Step::Sleep(_)));
        assert!(matches!(t.next_step(&mut ctx), Step::Compute { .. }));
    }

    #[test]
    fn frame_loop_emits_frames_and_sleeps_to_vsync() {
        let (mut wakes, mut signals) = ctx_parts();
        let mut f = FrameLoop::new(
            SimRng::seed_from(3),
            60.0,
            w(1.0),
            0.0,
            WorkProfile::default(),
            true,
        );
        {
            let mut ctx = mk_ctx(&mut wakes, &mut signals, 0);
            assert!(matches!(f.next_step(&mut ctx), Step::Compute { .. }));
        }
        {
            // Frame finished 5ms in: sleep until ~16.67ms.
            let mut ctx = mk_ctx(&mut wakes, &mut signals, 5);
            match f.next_step(&mut ctx) {
                Step::SleepUntil(t) => {
                    assert!((t.as_millis_f64() - 16.666).abs() < 0.1, "vsync at {t}")
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(matches!(signals[0].1, AppSignal::Frame { .. }));
    }

    #[test]
    fn frame_loop_drops_missed_vsyncs() {
        let (mut wakes, mut signals) = ctx_parts();
        let mut f = FrameLoop::new(
            SimRng::seed_from(4),
            60.0,
            w(1.0),
            0.0,
            WorkProfile::default(),
            false,
        );
        {
            let mut ctx = mk_ctx(&mut wakes, &mut signals, 0);
            f.next_step(&mut ctx);
        }
        {
            // Frame took 40ms (missed two vsyncs): next wake must be the
            // third vsync at 50ms.
            let mut ctx = mk_ctx(&mut wakes, &mut signals, 40);
            match f.next_step(&mut ctx) {
                Step::SleepUntil(t) => {
                    assert!((t.as_millis_f64() - 50.0).abs() < 0.1, "vsync at {t}")
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(signals.is_empty(), "emit_frames=false must not signal");
    }

    #[test]
    fn periodic_task_alternates() {
        let (mut wakes, mut signals) = ctx_parts();
        let mut p = PeriodicTask::new(
            SimRng::seed_from(5),
            SimDuration::from_millis(20),
            0.1,
            w(0.5),
            0.2,
            WorkProfile::default(),
        );
        let mut ctx = mk_ctx(&mut wakes, &mut signals, 0);
        assert!(matches!(p.next_step(&mut ctx), Step::Compute { .. }));
        match p.next_step(&mut ctx) {
            Step::Sleep(d) => {
                let ms = d.as_millis_f64();
                assert!((18.0..=22.0).contains(&ms), "period {ms}ms");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ui_script_walks_actions_and_fires_done() {
        let (mut wakes, mut signals) = ctx_parts();
        let q = JobQueue::new();
        q.register_worker(TaskId(1));
        let actions = vec![
            ScriptAction {
                think: SimDuration::from_millis(100),
                burst: w(3.0),
                burst_profile: WorkProfile::default(),
                jobs: vec![Job {
                    work: w(5.0),
                    profile: WorkProfile::default(),
                    completes: true,
                }],
            },
            ScriptAction {
                think: SimDuration::from_millis(50),
                burst: w(2.0),
                burst_profile: WorkProfile::default(),
                jobs: vec![],
            },
        ];
        let target = UiScriptThread::tracker_target(&actions);
        assert_eq!(target, 3);
        let tracker = CompletionTracker::new(target);
        let mut ui = UiScriptThread::new(actions, Some(q.clone()), tracker.clone());

        {
            let mut ctx = mk_ctx(&mut wakes, &mut signals, 0);
            assert!(matches!(ui.next_step(&mut ctx), Step::Sleep(_))); // think 1
            assert!(matches!(ui.next_step(&mut ctx), Step::Compute { .. })); // burst 1
                                                                             // After burst 1: fan-out then think 2 (internal loop).
            assert!(matches!(ui.next_step(&mut ctx), Step::Sleep(_)));
            assert_eq!(q.len(), 1);
            assert!(matches!(ui.next_step(&mut ctx), Step::Compute { .. })); // burst 2
            assert!(matches!(ui.next_step(&mut ctx), Step::Exit));
        }
        assert_eq!(wakes, vec![TaskId(1)]);
        // Bursts completed: 2 of the 3 targets.
        assert_eq!(tracker.done(), 2);
        assert!(!tracker.is_done());
    }

    #[test]
    fn fork_severs_from_parent_but_shares_within_fork() {
        let (mut wakes, mut signals) = ctx_parts();
        let q = JobQueue::new();
        q.register_worker(TaskId(1));
        let tracker = CompletionTracker::new(2);
        let w1 = PoolWorker::new(q.clone(), Some(tracker.clone()));
        let w2 = PoolWorker::new(q.clone(), Some(tracker.clone()));

        // A fork is a restore from the parent's saved state.
        let mut sctx = SaveCtx::new();
        let sq1 = w1.queue.save_with(&mut sctx);
        let sq2 = w2.queue.save_with(&mut sctx);
        let st = tracker.save_with(&mut sctx);
        let mut rctx = RestoreCtx::new();
        let fq1 = JobQueue::restore_from(&sq1, &mut rctx);
        let fq2 = JobQueue::restore_from(&sq2, &mut rctx);
        let ft = CompletionTracker::restore_from(&st, &mut rctx);
        // Within the fork the pool shares one queue...
        assert!(Rc::ptr_eq(&fq1.0, &fq2.0));
        // ...which is severed from the parent's.
        assert!(!Rc::ptr_eq(&fq1.0, &q.0));
        assert!(!Rc::ptr_eq(&ft.0, &tracker.0));

        // Mutating the fork leaves the parent untouched, and vice versa.
        {
            let mut ctx = mk_ctx(&mut wakes, &mut signals, 0);
            fq1.push_and_wake(
                Job {
                    work: w(1.0),
                    profile: WorkProfile::default(),
                    completes: false,
                },
                &mut ctx,
            );
            ft.complete(&mut ctx);
        }
        assert_eq!(fq2.len(), 1);
        assert!(q.is_empty());
        assert_eq!(ft.done(), 1);
        assert_eq!(tracker.done(), 0);
    }

    #[test]
    #[should_panic(expected = "fan-out jobs require a queue")]
    fn ui_script_without_queue_rejects_jobs() {
        let actions = vec![ScriptAction {
            think: SimDuration::ZERO,
            burst: w(1.0),
            burst_profile: WorkProfile::default(),
            jobs: vec![Job {
                work: w(1.0),
                profile: WorkProfile::default(),
                completes: true,
            }],
        }];
        UiScriptThread::new(actions, None, CompletionTracker::new(1));
    }
}
