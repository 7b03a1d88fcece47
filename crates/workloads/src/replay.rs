//! Trace replay: drive the simulator from a recorded activity trace.
//!
//! The paper's measurements are taken from live devices; this module closes
//! the loop in the other direction — a per-thread activity trace captured
//! on real hardware (e.g. distilled from systrace/perfetto) replays inside
//! the simulator, where schedulers, governors and core configurations can
//! then be varied freely.
//!
//! A trace is a set of named threads, each a time-ordered list of
//! `(start, busy)` segments. Busy time is expressed against the little
//! core at 1.3 GHz (the same reference as all workload parameters), so the
//! simulated duration stretches or shrinks with the core type and
//! frequency the scheduler actually chooses — exactly the counterfactual a
//! replay exists to explore.

use crate::threads::{CompletionTracker, TrackerSaved};
use crate::work_ms;
use bl_kernel::kernel::{Hw, Kernel};
use bl_kernel::task::{
    Affinity, BehaviorCtx, BehaviorSaved, RestoreCtx, SaveCtx, Step, TaskBehavior,
};
use bl_platform::perf::{Work, WorkProfile};
use bl_platform::topology::Platform;
use bl_simcore::error::SimError;
use bl_simcore::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One recorded activity burst.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSegment {
    /// Burst start, milliseconds from trace start.
    pub at_ms: f64,
    /// Work in the burst, as milliseconds on a little core at 1.3 GHz.
    pub busy_ms: f64,
}

/// The recorded activity of one thread.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadTrace {
    /// Thread name.
    pub name: String,
    /// Bursts in nondecreasing start order.
    pub segments: Vec<TraceSegment>,
}

/// A full recorded trace: several threads replayed together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedTrace {
    /// Trace name (for reports).
    pub name: String,
    /// Per-thread activity.
    pub threads: Vec<ThreadTrace>,
}

/// Error validating a [`RecordedTrace`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// A thread's segments were not sorted by start time.
    UnsortedSegments {
        /// The offending thread.
        thread: String,
    },
    /// A segment had negative timing.
    NegativeTiming {
        /// The offending thread.
        thread: String,
    },
    /// The JSON failed to parse.
    Parse(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::UnsortedSegments { thread } => {
                write!(f, "thread {thread:?} has unsorted segments")
            }
            TraceError::NegativeTiming { thread } => {
                write!(f, "thread {thread:?} has negative timing")
            }
            TraceError::Parse(e) => write!(f, "trace parse error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl RecordedTrace {
    /// Parses and validates a trace from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] for malformed JSON, unsorted segments or
    /// negative timings.
    pub fn from_json(json: &str) -> Result<RecordedTrace, TraceError> {
        let trace: RecordedTrace =
            serde_json::from_str(json).map_err(|e| TraceError::Parse(e.to_string()))?;
        trace.validate()?;
        Ok(trace)
    }

    /// Serializes the trace to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("traces always serialize")
    }

    /// Checks segment ordering and sign.
    ///
    /// # Errors
    ///
    /// See [`TraceError`].
    pub fn validate(&self) -> Result<(), TraceError> {
        for t in &self.threads {
            if t.segments.windows(2).any(|w| w[0].at_ms > w[1].at_ms) {
                return Err(TraceError::UnsortedSegments {
                    thread: t.name.clone(),
                });
            }
            if t.segments.iter().any(|s| s.at_ms < 0.0 || s.busy_ms < 0.0) {
                return Err(TraceError::NegativeTiming {
                    thread: t.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Total recorded busy time across threads (little-core-reference ms).
    pub fn total_busy_ms(&self) -> f64 {
        self.threads
            .iter()
            .flat_map(|t| t.segments.iter())
            .map(|s| s.busy_ms)
            .sum()
    }

    /// The time of the last segment start, ms.
    pub fn span_ms(&self) -> f64 {
        self.threads
            .iter()
            .flat_map(|t| t.segments.iter())
            .map(|s| s.at_ms + s.busy_ms)
            .fold(0.0, f64::max)
    }

    /// Spawns one task per thread into `kernel`; the returned tracker
    /// fires `ScriptDone` when every thread finishes its trace.
    pub fn spawn(
        &self,
        kernel: &mut Kernel,
        platform: &Platform,
        hw: &Hw<'_>,
        now: SimTime,
        affinity: Affinity,
    ) -> CompletionTracker {
        let tracker = CompletionTracker::new(self.threads.len());
        let profile = WorkProfile::compute_bound();
        for t in &self.threads {
            let segments: Vec<(SimTime, Work)> = t
                .segments
                .iter()
                .map(|s| {
                    (
                        now + SimDuration::from_secs_f64(s.at_ms / 1e3),
                        work_ms(platform, &profile, s.busy_ms),
                    )
                })
                .collect();
            let b = TraceReplayThread::new(segments, profile, tracker.clone());
            kernel.spawn(
                format!("{}-{}", self.name, t.name),
                affinity,
                Box::new(b),
                hw,
                now,
            );
        }
        tracker
    }
}

/// Replays one thread's trace: sleep to each burst's start, run its work,
/// repeat; report completion at the end.
#[derive(Debug)]
pub(crate) struct TraceReplayThread {
    segments: std::vec::IntoIter<(SimTime, Work)>,
    profile: WorkProfile,
    tracker: CompletionTracker,
    waiting_for: Option<Work>,
}

impl TraceReplayThread {
    /// Replays `segments` — `(absolute start, work)` in start order — and
    /// reports to `tracker` once they are exhausted.
    pub(crate) fn new(
        segments: Vec<(SimTime, Work)>,
        profile: WorkProfile,
        tracker: CompletionTracker,
    ) -> Self {
        TraceReplayThread {
            segments: segments.into_iter(),
            profile,
            tracker,
            waiting_for: None,
        }
    }
}

impl TaskBehavior for TraceReplayThread {
    fn next_step(&mut self, ctx: &mut BehaviorCtx<'_>) -> Step {
        if let Some(work) = self.waiting_for.take() {
            if !work.is_done() {
                return Step::Compute {
                    work,
                    profile: self.profile,
                };
            }
        }
        match self.segments.next() {
            Some((at, work)) => {
                self.waiting_for = Some(work);
                if at > ctx.now {
                    Step::SleepUntil(at)
                } else if work.is_done() {
                    // Degenerate empty burst: skip via the immediate loop.
                    Step::Sleep(SimDuration::ZERO)
                } else {
                    self.waiting_for = None;
                    Step::Compute {
                        work,
                        profile: self.profile,
                    }
                }
            }
            None => {
                self.tracker.complete(ctx);
                Step::Exit
            }
        }
    }

    fn save_box(&self, ctx: &mut SaveCtx) -> Option<BehaviorSaved> {
        let saved = ReplaySaved {
            segments: self.segments.as_slice().to_vec(),
            profile: self.profile,
            tracker: self.tracker.save_with(ctx),
            waiting_for: self.waiting_for,
        };
        Some(BehaviorSaved {
            kind: "trace_replay".to_string(),
            data: saved.ser_value(),
        })
    }
}

/// Serialized form of a [`TraceReplayThread`]: the *unconsumed* tail of
/// the segment iterator, so replay resumes exactly where the save left it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ReplaySaved {
    segments: Vec<(SimTime, Work)>,
    profile: WorkProfile,
    tracker: TrackerSaved,
    waiting_for: Option<Work>,
}

pub(crate) fn restore_trace_replay(
    data: &serde::Value,
    ctx: &mut RestoreCtx,
) -> Result<Box<dyn TaskBehavior>, SimError> {
    let s = ReplaySaved::deser_value(data)
        .map_err(|e| crate::threads::bad_payload("trace_replay", e))?;
    Ok(Box::new(TraceReplayThread {
        segments: s.segments.into_iter(),
        profile: s.profile,
        tracker: CompletionTracker::restore_from(&s.tracker, ctx),
        waiting_for: s.waiting_for,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_trace() -> RecordedTrace {
        RecordedTrace {
            name: "demo".to_string(),
            threads: vec![
                ThreadTrace {
                    name: "ui".to_string(),
                    segments: vec![
                        TraceSegment {
                            at_ms: 0.0,
                            busy_ms: 5.0,
                        },
                        TraceSegment {
                            at_ms: 50.0,
                            busy_ms: 10.0,
                        },
                    ],
                },
                ThreadTrace {
                    name: "worker".to_string(),
                    segments: vec![TraceSegment {
                        at_ms: 20.0,
                        busy_ms: 30.0,
                    }],
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_and_validation() {
        let t = demo_trace();
        let back = RecordedTrace::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
        assert_eq!(t.total_busy_ms(), 45.0);
        assert_eq!(t.span_ms(), 60.0);
    }

    #[test]
    fn unsorted_trace_rejected() {
        let mut t = demo_trace();
        t.threads[0].segments.reverse();
        assert!(matches!(
            t.validate(),
            Err(TraceError::UnsortedSegments { .. })
        ));
    }

    #[test]
    fn negative_timing_rejected() {
        let mut t = demo_trace();
        t.threads[0].segments[0].busy_ms = -1.0;
        assert!(matches!(
            t.validate(),
            Err(TraceError::NegativeTiming { .. })
        ));
        assert!(t.validate().unwrap_err().to_string().contains("negative"));
    }

    #[test]
    fn parse_error_is_reported() {
        assert!(matches!(
            RecordedTrace::from_json("not json"),
            Err(TraceError::Parse(_))
        ));
    }
}
