//! Tasks and their pluggable behaviors.

use bl_platform::ids::{CoreKind, CpuId};
use bl_platform::perf::{Work, WorkProfile};
use bl_simcore::time::{SimDuration, SimTime};
use core::fmt;

/// A task identifier, dense from 0 in spawn order.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Lifecycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TaskState {
    /// On a runqueue (possibly currently executing).
    Runnable,
    /// Sleeping until a timer the kernel scheduled.
    Sleeping,
    /// Parked until another task (or the input script) wakes it.
    Blocked,
    /// Finished; never scheduled again.
    Exited,
}

/// What a task does next, produced by its [`TaskBehavior`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// Execute `work` instructions characterized by `profile`.
    Compute {
        /// Amount of work to run before the next step.
        work: Work,
        /// Architectural character of the work.
        profile: WorkProfile,
    },
    /// Sleep for a duration, then continue.
    Sleep(SimDuration),
    /// Sleep until an absolute time (e.g. the next vsync), then continue.
    /// If the time is already past, continues immediately.
    SleepUntil(SimTime),
    /// Park until explicitly woken via [`BehaviorCtx::wake`] or the driver.
    Block,
    /// Terminate the task.
    Exit,
}

/// Where a task may run.
///
/// Serializable so a sweep's scenario description can carry the placement
/// of each workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Affinity {
    /// Any online CPU; subject to HMP migration.
    Any,
    /// Pinned to one CPU (used by the fixed-configuration architecture
    /// experiments); HMP never migrates it.
    Pinned(CpuId),
    /// Restricted to cores of one kind; HMP never migrates it across kinds.
    Kind(CoreKind),
}

/// Application-level signals emitted by behaviors and collected by the
/// measurement layer (frame completions for FPS, script completion for
/// latency).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum AppSignal {
    /// A rendered frame was produced; `deadline_missed` reports whether it
    /// exceeded its vsync budget.
    Frame {
        /// Wall time the frame took to produce.
        frame_time: SimDuration,
    },
    /// The scripted user interaction completed (latency apps).
    ScriptDone,
    /// One user-visible action within the script finished.
    ActionDone,
    /// Free-form marker for experiments.
    Marker(u32),
}

/// Environment handed to behaviors when they produce the next step.
#[derive(Debug)]
pub struct BehaviorCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    pub(crate) wakes: &'a mut Vec<TaskId>,
    pub(crate) signals: &'a mut Vec<(SimTime, AppSignal)>,
}

impl<'a> BehaviorCtx<'a> {
    /// Creates a context over caller-owned wake and signal buffers. The
    /// kernel builds these internally; this constructor exists so behavior
    /// implementations can be unit-tested in isolation.
    pub fn new(
        now: SimTime,
        wakes: &'a mut Vec<TaskId>,
        signals: &'a mut Vec<(SimTime, AppSignal)>,
    ) -> Self {
        BehaviorCtx {
            now,
            wakes,
            signals,
        }
    }

    /// Requests that `tid` be woken (if blocked or sleeping) once the
    /// current step exchange finishes.
    pub fn wake(&mut self, tid: TaskId) {
        self.wakes.push(tid);
    }

    /// Emits an application-level signal at the current time.
    pub fn signal(&mut self, s: AppSignal) {
        self.signals.push((self.now, s));
    }
}

/// Serialized form of one task behavior: a dispatch tag naming the
/// concrete behavior type plus that type's own payload. The kernel treats
/// both as opaque; the workload crate that defined the behavior interprets
/// them whenever a snapshot is forked or hydrated.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BehaviorSaved {
    /// Dispatch tag (e.g. `"frame_loop"`) understood by the restoring
    /// workload crate.
    pub kind: String,
    /// Behavior-specific payload.
    pub data: serde::Value,
}

/// Deduplication context for *saving* behaviors that share state through
/// `Rc` handles (job queues, completion trackers, scene fences).
///
/// Each shared allocation is assigned a small dense id the first time it
/// is seen (keyed by `Rc::as_ptr(...) as usize`, unique per live
/// allocation and identical across all holders of one handle); every
/// holder records that id in its payload alongside a full copy of the
/// shared state. On restore, [`RestoreCtx::dedup`] rebuilds the
/// allocation once per id and hands every holder the same new handle, so
/// a pool's workers share one new job queue — severed from the original,
/// shared within the restored copy.
#[derive(Debug, Default)]
pub struct SaveCtx {
    ids: std::collections::HashMap<usize, u64>,
}

impl SaveCtx {
    /// Creates an empty context for one save operation.
    pub fn new() -> Self {
        SaveCtx::default()
    }

    /// Returns the stable share id for the shared allocation at `ptr`
    /// (`Rc::as_ptr(...) as usize`), assigning the next dense id the first
    /// time the pointer is seen.
    pub fn share_id(&mut self, ptr: usize) -> u64 {
        let next = self.ids.len() as u64;
        *self.ids.entry(ptr).or_insert(next)
    }
}

/// Deduplication context for *restoring* saved behaviors: the mirror of
/// [`SaveCtx`], keyed by the share ids it assigned.
#[derive(Debug, Default)]
pub struct RestoreCtx {
    built: std::collections::HashMap<u64, Box<dyn std::any::Any>>,
}

impl RestoreCtx {
    /// Creates an empty context for one restore operation.
    pub fn new() -> Self {
        RestoreCtx::default()
    }

    /// Returns the restored instance for share id `id`, calling `make` to
    /// build it the first time the id is seen. Later holders of the same
    /// id receive clones of the first build, so their (identical) payload
    /// copies are ignored and the sharing topology is reconstructed.
    ///
    /// # Panics
    ///
    /// Panics if two different types are registered under the same id —
    /// only possible if save and restore code disagree about a behavior's
    /// shared-state type.
    pub fn dedup<T: Clone + 'static>(&mut self, id: u64, make: impl FnOnce() -> T) -> T {
        if let Some(existing) = self.built.get(&id) {
            return existing
                .downcast_ref::<T>()
                .expect("restore dedup id reused with a different type")
                .clone();
        }
        let fresh = make();
        self.built.insert(id, Box::new(fresh.clone()));
        fresh
    }
}

/// A task's behavior: a generator of [`Step`]s.
///
/// `next_step` is called when the task is created, whenever its current
/// compute quantum finishes, and whenever it is woken from sleep/block. The
/// behavior may wake other tasks and emit [`AppSignal`]s through the
/// context.
pub trait TaskBehavior {
    /// Produces the next step for this task.
    fn next_step(&mut self, ctx: &mut BehaviorCtx<'_>) -> Step;

    /// Captures this behavior's full state as a serializable
    /// [`BehaviorSaved`]: a snapshot holds it, and every fork restores a
    /// fresh behavior from it. Shared handles record a [`SaveCtx`] share
    /// id so the restorer can rebuild each shared allocation once.
    ///
    /// Returning `None` (the default) declares the behavior opaque —
    /// ad-hoc closures, for example — and makes the owning simulation
    /// unsnapshottable; callers then fall back to a cold run. All
    /// behaviors shipped by the `workloads` crate implement this.
    fn save_box(&self, ctx: &mut SaveCtx) -> Option<BehaviorSaved> {
        let _ = ctx;
        None
    }
}

impl<F> TaskBehavior for F
where
    F: FnMut(&mut BehaviorCtx<'_>) -> Step,
{
    fn next_step(&mut self, ctx: &mut BehaviorCtx<'_>) -> Step {
        self(ctx)
    }
}

/// Internal per-task bookkeeping. Public within the crate only.
pub(crate) struct TaskCb {
    /// Interned at spawn; task reports clone the `Arc`, not the bytes.
    pub(crate) name: std::sync::Arc<str>,
    pub(crate) state: TaskState,
    pub(crate) behavior: Box<dyn TaskBehavior>,
    pub(crate) affinity: Affinity,
    /// Remaining work of the current compute step.
    pub(crate) remaining: Work,
    /// Profile of the current compute step.
    pub(crate) profile: WorkProfile,
    /// CPU whose runqueue holds the task (valid while Runnable).
    pub(crate) cpu: Option<CpuId>,
    /// Last CPU the task ran on; wake placement prefers it (cache
    /// affinity), mirroring HMP behavior.
    pub(crate) last_cpu: Option<CpuId>,
    /// CFS-style virtual runtime in nanoseconds.
    pub(crate) vruntime: u64,
    /// Total CPU time consumed (diagnostics).
    pub(crate) cpu_time: SimDuration,
    /// CPU time split by core kind [little, big].
    pub(crate) cpu_time_by_kind: [SimDuration; 2],
}

impl fmt::Debug for TaskCb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskCb")
            .field("name", &self.name)
            .field("state", &self.state)
            .field("remaining", &self.remaining)
            .field("cpu", &self.cpu)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_is_a_behavior() {
        let mut calls = 0;
        {
            let mut b = |_ctx: &mut BehaviorCtx<'_>| {
                calls += 1;
                Step::Exit
            };
            let mut wakes = Vec::new();
            let mut signals = Vec::new();
            let mut ctx = BehaviorCtx {
                now: SimTime::ZERO,
                wakes: &mut wakes,
                signals: &mut signals,
            };
            assert_eq!(b.next_step(&mut ctx), Step::Exit);
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn ctx_collects_wakes_and_signals() {
        let mut wakes = Vec::new();
        let mut signals = Vec::new();
        let mut ctx = BehaviorCtx {
            now: SimTime::from_millis(5),
            wakes: &mut wakes,
            signals: &mut signals,
        };
        ctx.wake(TaskId(3));
        ctx.signal(AppSignal::ScriptDone);
        assert_eq!(wakes, vec![TaskId(3)]);
        assert_eq!(
            signals,
            vec![(SimTime::from_millis(5), AppSignal::ScriptDone)]
        );
    }

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(7).to_string(), "task7");
    }

    #[test]
    fn closures_are_not_forkable() {
        let b: Box<dyn TaskBehavior> = Box::new(|_: &mut BehaviorCtx<'_>| Step::Exit);
        assert!(b.save_box(&mut SaveCtx::new()).is_none());
    }

    #[test]
    fn save_ctx_assigns_dense_stable_ids() {
        let mut ctx = SaveCtx::new();
        let a = ctx.share_id(0xdead);
        let b = ctx.share_id(0xbeef);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(ctx.share_id(0xdead), a, "ids must be stable per pointer");
    }

    #[test]
    fn restore_ctx_dedups_by_id() {
        let mut ctx = RestoreCtx::new();
        let mut builds = 0;
        let a: std::rc::Rc<u32> = ctx.dedup(0, || {
            builds += 1;
            std::rc::Rc::new(7)
        });
        let b: std::rc::Rc<u32> = ctx.dedup(0, || {
            builds += 1;
            std::rc::Rc::new(9)
        });
        assert_eq!(builds, 1, "second lookup must reuse the first build");
        assert!(std::rc::Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn behavior_saved_round_trips() {
        let saved = BehaviorSaved {
            kind: "frame_loop".to_string(),
            data: serde::Value::UInt(42),
        };
        let json = serde_json::to_string(&saved).unwrap();
        let back: BehaviorSaved = serde_json::from_str(&json).unwrap();
        assert_eq!(back, saved);
    }
}
