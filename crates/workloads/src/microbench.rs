//! The utilization microbenchmark (paper Figure 6).
//!
//! "We vary the utilization of CPUs by forcing the micro-benchmark to pause
//! periodically to control the CPU utilization" (§II). The benchmark runs a
//! fixed duty cycle on a pinned core at a pinned frequency: compute for
//! `duty × period` of wall time, sleep for the rest, repeat.

use bl_kernel::task::{BehaviorCtx, BehaviorSaved, RestoreCtx, SaveCtx, Step, TaskBehavior};
use bl_platform::cache::CacheModel;
use bl_platform::ids::CoreKind;
use bl_platform::perf::{PerfModel, Work, WorkProfile};
use bl_simcore::error::SimError;
use bl_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Duty-cycle spin/sleep benchmark.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct MicroBench {
    work_per_period: Work,
    sleep_per_period: SimDuration,
    profile: WorkProfile,
    computing: bool,
}

impl MicroBench {
    /// Builds a microbenchmark that produces `duty` utilization on a core
    /// of `kind` with cache `l2` running at `freq_ghz`.
    ///
    /// # Panics
    ///
    /// Panics if `duty` is outside `[0, 1]` or `period` is zero.
    pub fn new(
        perf: &PerfModel,
        kind: CoreKind,
        l2: &CacheModel,
        freq_ghz: f64,
        duty: f64,
        period: SimDuration,
    ) -> Self {
        assert!((0.0..=1.0).contains(&duty), "duty must be in [0,1]");
        assert!(!period.is_zero(), "period must be positive");
        let profile = WorkProfile::compute_bound();
        let busy = period.mul_f64(duty);
        MicroBench {
            work_per_period: perf.work_for(&profile, kind, l2, freq_ghz, busy),
            sleep_per_period: period - busy,
            profile,
            computing: false,
        }
    }
}

impl TaskBehavior for MicroBench {
    fn next_step(&mut self, _ctx: &mut BehaviorCtx<'_>) -> Step {
        if self.computing {
            self.computing = false;
            if self.sleep_per_period.is_zero() {
                // 100% duty: go straight back to compute via the immediate
                // step loop.
                self.computing = true;
                return Step::Compute {
                    work: self.work_per_period,
                    profile: self.profile,
                };
            }
            Step::Sleep(self.sleep_per_period)
        } else {
            self.computing = true;
            if self.work_per_period.is_done() {
                // 0% duty: pure sleep.
                self.computing = false;
                return Step::Sleep(self.sleep_per_period);
            }
            Step::Compute {
                work: self.work_per_period,
                profile: self.profile,
            }
        }
    }

    fn save_box(&self, _ctx: &mut SaveCtx) -> Option<BehaviorSaved> {
        Some(BehaviorSaved {
            kind: "microbench".to_string(),
            data: self.ser_value(),
        })
    }
}

pub(crate) fn restore_microbench(
    data: &serde::Value,
    _ctx: &mut RestoreCtx,
) -> Result<Box<dyn TaskBehavior>, SimError> {
    let b =
        MicroBench::deser_value(data).map_err(|e| crate::threads::bad_payload("microbench", e))?;
    Ok(Box::new(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bl_simcore::time::SimTime;

    fn mk(duty: f64) -> MicroBench {
        MicroBench::new(
            &PerfModel::default(),
            CoreKind::Little,
            &CacheModel::new(512, 8, 64),
            1.3,
            duty,
            SimDuration::from_millis(10),
        )
    }

    fn step(b: &mut MicroBench) -> Step {
        let mut wakes = Vec::new();
        let mut signals = Vec::new();
        let mut ctx = BehaviorCtx::new(SimTime::ZERO, &mut wakes, &mut signals);
        b.next_step(&mut ctx)
    }

    #[test]
    fn half_duty_alternates_equal_halves() {
        let mut b = mk(0.5);
        match step(&mut b) {
            Step::Compute { work, .. } => {
                // 5ms of little@1.3 compute-bound work.
                let expected = 1.3e9 / 1.6 * 0.005;
                assert!((work.instructions() - expected).abs() / expected < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
        match step(&mut b) {
            Step::Sleep(d) => assert_eq!(d, SimDuration::from_millis(5)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn full_duty_never_sleeps() {
        let mut b = mk(1.0);
        for _ in 0..10 {
            assert!(matches!(step(&mut b), Step::Compute { .. }));
        }
    }

    #[test]
    fn zero_duty_never_computes() {
        let mut b = mk(0.0);
        for _ in 0..10 {
            assert!(matches!(step(&mut b), Step::Sleep(_)));
        }
    }

    #[test]
    #[should_panic(expected = "duty must be in")]
    fn invalid_duty_rejected() {
        mk(1.5);
    }
}
