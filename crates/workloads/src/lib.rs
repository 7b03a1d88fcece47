//! # bl-workloads
//!
//! Workload models substituting for the paper's benchmark programs:
//!
//! * [`spec`] — twelve SPEC-CPU2006-like single-threaded kernels spanning
//!   compute-bound, cache-sensitive and memory-streaming behavior, used by
//!   the architecture characterization (Figures 2 and 3).
//! * [`microbench`] — the duty-cycle utilization microbenchmark (Figure 6).
//! * [`threads`] — reusable task behaviors: frame loops, periodic workers,
//!   continuous batch work, worker pools fed by a job queue, and scripted
//!   UI threads that model a user interaction sequence.
//! * [`apps`] — the twelve interactive mobile applications of Table II as
//!   generative multi-thread models, with per-app parameters calibrated
//!   against the paper's measured TLP, idle and big-core-usage figures
//!   (Tables III–V).
//!
//! Work amounts are expressed in "milliseconds on a little core at 1.3 GHz"
//! via [`work_ms`], which makes app parameters readable and portable across
//! experiments that change core type and frequency.

#![warn(missing_docs)]

pub mod apps;
pub mod microbench;
pub mod replay;
pub mod spec;
pub mod threads;

use bl_kernel::task::{BehaviorSaved, RestoreCtx, TaskBehavior};
use bl_platform::ids::CoreKind;
use bl_platform::perf::{Work, WorkProfile};
use bl_platform::topology::Platform;
use bl_simcore::error::SimError;
use bl_simcore::time::SimDuration;

/// Converts "milliseconds on a little core at its maximum 1.3 GHz" into an
/// instruction count for `profile` on `platform`.
///
/// ```
/// use bl_platform::exynos::exynos5422;
/// use bl_platform::perf::WorkProfile;
/// let p = exynos5422();
/// let w = bl_workloads::work_ms(&p, &WorkProfile::compute_bound(), 10.0);
/// assert!(w.instructions() > 0.0);
/// ```
pub fn work_ms(platform: &Platform, profile: &WorkProfile, ms: f64) -> Work {
    let little = platform
        .topology
        .cluster_of_kind(CoreKind::Little)
        .expect("platform has little cores");
    platform.perf.work_for(
        profile,
        CoreKind::Little,
        &little.l2,
        little.core.opps.max_khz() as f64 / 1e6,
        SimDuration::from_secs_f64(ms / 1e3),
    )
}

/// Rebuilds a task behavior from its [`BehaviorSaved`] payload, as produced
/// by `TaskBehavior::save_box` on any behavior defined in this crate.
///
/// Shared handles (completion trackers, job queues, scene syncs) are
/// re-linked through `ctx`, reproducing the exact sharing topology of the
/// saved kernel.
///
/// # Errors
///
/// Returns [`SimError::SnapshotUnsupported`] for unknown behavior kinds or
/// malformed payloads.
pub fn restore_behavior(
    saved: &BehaviorSaved,
    ctx: &mut RestoreCtx,
) -> Result<Box<dyn TaskBehavior>, SimError> {
    match saved.kind.as_str() {
        "pool_worker" => threads::restore_pool_worker(&saved.data, ctx),
        "continuous" => threads::restore_continuous(&saved.data, ctx),
        "frame_loop" => threads::restore_frame_loop(&saved.data, ctx),
        "periodic" => threads::restore_periodic(&saved.data, ctx),
        "ui_script" => threads::restore_ui_script(&saved.data, ctx),
        "microbench" => microbench::restore_microbench(&saved.data, ctx),
        "trace_replay" => replay::restore_trace_replay(&saved.data, ctx),
        other => Err(SimError::SnapshotUnsupported {
            detail: format!("unknown behavior kind {other:?}"),
        }),
    }
}

/// How an application's performance is scored (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PerfMetric {
    /// Time to complete a scripted sequence of user actions.
    Latency,
    /// Frames per second (average and worst 1-second window).
    Fps,
}

impl std::fmt::Display for PerfMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfMetric::Latency => write!(f, "Latency"),
            PerfMetric::Fps => write!(f, "FPS"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bl_platform::exynos::exynos5422;

    #[test]
    fn work_ms_scales_linearly() {
        let p = exynos5422();
        let prof = WorkProfile::compute_bound();
        let w1 = work_ms(&p, &prof, 1.0);
        let w10 = work_ms(&p, &prof, 10.0);
        assert!((w10.instructions() / w1.instructions() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn metric_display() {
        assert_eq!(PerfMetric::Latency.to_string(), "Latency");
        assert_eq!(PerfMetric::Fps.to_string(), "FPS");
    }

    /// One behavior of every dispatch tag [`restore_behavior`] knows, each
    /// holding the shared handles it can hold.
    fn every_behavior(p: &Platform) -> Vec<Box<dyn TaskBehavior>> {
        use bl_kernel::task::TaskId;
        use bl_simcore::{rng::SimRng, time::SimTime};
        use threads::*;

        let prof = WorkProfile::default();
        let w = |ms| work_ms(p, &prof, ms);
        let ms = SimDuration::from_millis;
        let queue = JobQueue::new();
        queue.register_worker(TaskId(0));
        let tracker = CompletionTracker::new(8);
        let scene = SceneSync::new();
        let actions = (0..4)
            .map(|i| ScriptAction {
                think: ms(30 * i),
                burst: w(2.0),
                burst_profile: prof,
                jobs: [(3.0, true), (1.5, false)]
                    .map(|(m, completes)| Job {
                        work: w(m),
                        profile: prof,
                        completes,
                    })
                    .to_vec(),
            })
            .collect();
        let segments = (0..8).map(|i| (SimTime::ZERO + ms(25 * i), w(4.0)));
        let little = p.topology.cluster_of_kind(CoreKind::Little).unwrap();
        vec![
            Box::new(PoolWorker::new(queue.clone(), Some(tracker.clone()))),
            Box::new(
                ContinuousTask::new(
                    SimRng::seed_from(7),
                    w(40.0),
                    w(3.0),
                    prof,
                    ms(2),
                    0.5,
                    true,
                )
                .with_tracker(tracker.clone()),
            ),
            Box::new(
                FrameLoop::new(SimRng::seed_from(11), 60.0, w(5.0), 0.3, prof, true)
                    .with_stalls(0.2, ms(40))
                    .with_scene(scene.clone()),
            ),
            Box::new(
                PeriodicTask::new(SimRng::seed_from(13), ms(20), 0.2, w(1.0), 0.3, prof)
                    .with_scene(scene),
            ),
            Box::new(UiScriptThread::new(actions, Some(queue), tracker.clone())),
            Box::new(microbench::MicroBench::new(
                &p.perf,
                CoreKind::Little,
                &little.l2,
                1.3,
                0.4,
                ms(10),
            )),
            Box::new(replay::TraceReplayThread::new(
                segments.collect(),
                prof,
                tracker,
            )),
        ]
    }

    #[test]
    fn behaviors_fork_deeply() {
        // A fork restores every behavior from its saved state: the copy
        // must replay step for step (RNG draws, wakes and signals
        // included) and share nothing with the original — a shared queue
        // or tracker would make the two drift apart. Saving after each of
        // the first few steps catches state that is set only mid-stream.
        use bl_kernel::task::{AppSignal, BehaviorCtx, SaveCtx, Step, TaskId};
        use bl_simcore::time::SimTime;

        type Emitted = (Step, Vec<TaskId>, Vec<(SimTime, AppSignal)>);
        fn step(b: &mut Box<dyn TaskBehavior>, i: u64) -> Emitted {
            let (mut wakes, mut signals) = (Vec::new(), Vec::new());
            let now = SimTime::from_millis(17 * i);
            let step = b.next_step(&mut BehaviorCtx::new(now, &mut wakes, &mut signals));
            (step, wakes, signals)
        }

        let p = exynos5422();
        for at in 0..8 {
            let mut originals = every_behavior(&p);
            for i in 0..at {
                for b in &mut originals {
                    step(b, i);
                }
            }
            let mut save = SaveCtx::new();
            let saved: Vec<BehaviorSaved> = originals
                .iter()
                .map(|b| b.save_box(&mut save).expect("stock behaviors save"))
                .collect();
            let mut kinds: Vec<&str> = saved.iter().map(|s| s.kind.as_str()).collect();
            kinds.sort_unstable();
            assert_eq!(
                kinds.join(" "),
                "continuous frame_loop microbench periodic pool_worker trace_replay ui_script"
            );
            let mut restore = RestoreCtx::new();
            let mut forks: Vec<Box<dyn TaskBehavior>> = saved
                .iter()
                .map(|s| restore_behavior(s, &mut restore).expect("stock behaviors restore"))
                .collect();
            for i in at..at + 40 {
                for ((a, b), s) in originals.iter_mut().zip(&mut forks).zip(&saved) {
                    assert_eq!(step(a, i), step(b, i), "{} saved at {at}, step {i}", s.kind);
                }
            }
        }
    }
}
