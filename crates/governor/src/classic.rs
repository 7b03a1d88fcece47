//! Classic Linux cpufreq governors, used as baselines.

use crate::config::GovernorConfig;
use crate::sample::{ClusterSample, CpufreqGovernor};
use bl_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// `performance`: pin the domain at its maximum OPP. Used by the paper's
/// fixed-frequency architecture experiments (and as an upper bound).
#[derive(Debug, Clone, Copy, Default)]
pub struct PerformanceGovernor;

impl CpufreqGovernor for PerformanceGovernor {
    fn name(&self) -> &'static str {
        "performance"
    }
    fn sampling_period(&self) -> SimDuration {
        SimDuration::from_millis(100) // nothing to react to
    }
    fn on_sample(&mut self, sample: &ClusterSample<'_>) -> u32 {
        sample.effective_max()
    }
    fn idle_quiescent(&self, sample: &ClusterSample<'_>) -> bool {
        // Stateless governor: probing a copy with the caller's all-idle
        // sample computes exactly what a real sample would decide.
        let mut probe = *self;
        probe.on_sample(sample) == sample.cur_freq_khz
    }
    fn config(&self) -> GovernorConfig {
        GovernorConfig::Performance
    }
}

/// `powersave`: pin the domain at its minimum OPP.
#[derive(Debug, Clone, Copy, Default)]
pub struct PowersaveGovernor;

impl CpufreqGovernor for PowersaveGovernor {
    fn name(&self) -> &'static str {
        "powersave"
    }
    fn sampling_period(&self) -> SimDuration {
        SimDuration::from_millis(100)
    }
    fn on_sample(&mut self, sample: &ClusterSample<'_>) -> u32 {
        sample.opps.min_khz()
    }
    fn idle_quiescent(&self, sample: &ClusterSample<'_>) -> bool {
        // Stateless governor: probing a copy with the caller's all-idle
        // sample computes exactly what a real sample would decide.
        let mut probe = *self;
        probe.on_sample(sample) == sample.cur_freq_khz
    }
    fn config(&self) -> GovernorConfig {
        GovernorConfig::Powersave
    }
}

/// `userspace`: hold a fixed set-point (rounded up onto the table). Used to
/// run single-frequency sweeps like the paper's Figures 2, 3 and 6.
#[derive(Debug, Clone, Copy)]
pub struct UserspaceGovernor {
    /// Requested frequency in kHz.
    pub setpoint_khz: u32,
}

impl CpufreqGovernor for UserspaceGovernor {
    fn name(&self) -> &'static str {
        "userspace"
    }
    fn sampling_period(&self) -> SimDuration {
        SimDuration::from_millis(100)
    }
    fn on_sample(&mut self, sample: &ClusterSample<'_>) -> u32 {
        sample.clamp(sample.opps.round_up(self.setpoint_khz).freq_khz)
    }
    fn idle_quiescent(&self, sample: &ClusterSample<'_>) -> bool {
        // Stateless governor: probing a copy with the caller's all-idle
        // sample computes exactly what a real sample would decide.
        let mut probe = *self;
        probe.on_sample(sample) == sample.cur_freq_khz
    }
    fn config(&self) -> GovernorConfig {
        GovernorConfig::Userspace(self.setpoint_khz)
    }
}

/// Tunables for the `ondemand` governor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OndemandParams {
    /// Sampling period (default 20 ms, matching the platform tick).
    pub sampling_period: SimDuration,
    /// Utilization that triggers the jump to max (default 0.95).
    pub up_threshold: f64,
    /// Target utilization when scaling down (default 0.80).
    pub down_target: f64,
}

impl Default for OndemandParams {
    fn default() -> Self {
        OndemandParams {
            sampling_period: SimDuration::from_millis(20),
            up_threshold: 0.95,
            down_target: 0.80,
        }
    }
}

/// `ondemand`: jump straight to max on saturation, otherwise scale to keep
/// utilization at `down_target`.
#[derive(Debug, Clone, Copy, Default)]
pub struct OndemandGovernor {
    /// Governor tunables.
    pub params: OndemandParams,
}

impl CpufreqGovernor for OndemandGovernor {
    fn name(&self) -> &'static str {
        "ondemand"
    }
    fn sampling_period(&self) -> SimDuration {
        self.params.sampling_period
    }
    fn on_sample(&mut self, sample: &ClusterSample<'_>) -> u32 {
        let util = sample.max_util();
        if util > self.params.up_threshold {
            return sample.effective_max();
        }
        let target = (sample.cur_freq_khz as f64 * util / self.params.down_target) as u32;
        let next = sample.opps.round_up(target).freq_khz;
        sample.clamp(next.min(sample.cur_freq_khz)) // ondemand only jumps up, walks down
    }
    fn idle_quiescent(&self, sample: &ClusterSample<'_>) -> bool {
        // Stateless governor: probing a copy with the caller's all-idle
        // sample computes exactly what a real sample would decide.
        let mut probe = *self;
        probe.on_sample(sample) == sample.cur_freq_khz
    }
    fn config(&self) -> GovernorConfig {
        GovernorConfig::Ondemand(self.params)
    }
}

/// Tunables for the `conservative` governor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConservativeParams {
    /// Sampling period (default 20 ms).
    pub sampling_period: SimDuration,
    /// Step up when utilization exceeds this (default 0.80).
    pub up_threshold: f64,
    /// Step down when utilization falls below this (default 0.20).
    pub down_threshold: f64,
}

impl Default for ConservativeParams {
    fn default() -> Self {
        ConservativeParams {
            sampling_period: SimDuration::from_millis(20),
            up_threshold: 0.80,
            down_threshold: 0.20,
        }
    }
}

/// `conservative`: move one OPP step at a time toward the load.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConservativeGovernor {
    /// Governor tunables.
    pub params: ConservativeParams,
}

impl CpufreqGovernor for ConservativeGovernor {
    fn name(&self) -> &'static str {
        "conservative"
    }
    fn sampling_period(&self) -> SimDuration {
        self.params.sampling_period
    }
    fn on_sample(&mut self, sample: &ClusterSample<'_>) -> u32 {
        let util = sample.max_util();
        let idx = sample
            .opps
            .index_of(sample.cur_freq_khz)
            .expect("current frequency must be an OPP");
        if util > self.params.up_threshold && idx + 1 < sample.opps.len() {
            return sample.clamp(sample.opps.get(idx + 1).freq_khz);
        }
        if util < self.params.down_threshold && idx > 0 {
            return sample.opps.get(idx - 1).freq_khz;
        }
        sample.clamp(sample.cur_freq_khz)
    }
    fn idle_quiescent(&self, sample: &ClusterSample<'_>) -> bool {
        // Stateless governor: probing a copy with the caller's all-idle
        // sample computes exactly what a real sample would decide.
        let mut probe = *self;
        probe.on_sample(sample) == sample.cur_freq_khz
    }
    fn config(&self) -> GovernorConfig {
        GovernorConfig::Conservative(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bl_platform::ids::ClusterId;
    use bl_platform::opp::OppTable;

    fn opps() -> OppTable {
        OppTable::linear(500_000, 1_300_000, 9, 900, 1_100)
    }

    fn sample<'a>(opps: &'a OppTable, cur: u32, utils: &'a [f64]) -> ClusterSample<'a> {
        ClusterSample {
            cluster: ClusterId(0),
            opps,
            cur_freq_khz: cur,
            cpu_utils: utils,
            cap_khz: u32::MAX,
        }
    }

    fn capped<'a>(opps: &'a OppTable, cur: u32, utils: &'a [f64], cap: u32) -> ClusterSample<'a> {
        ClusterSample {
            cap_khz: cap,
            ..sample(opps, cur, utils)
        }
    }

    #[test]
    fn performance_pins_max() {
        let t = opps();
        assert_eq!(
            PerformanceGovernor.on_sample(&sample(&t, 500_000, &[0.0])),
            1_300_000
        );
        assert_eq!(PerformanceGovernor.name(), "performance");
    }

    #[test]
    fn powersave_pins_min() {
        let t = opps();
        assert_eq!(
            PowersaveGovernor.on_sample(&sample(&t, 1_300_000, &[1.0])),
            500_000
        );
    }

    #[test]
    fn userspace_holds_setpoint() {
        let t = opps();
        let mut g = UserspaceGovernor {
            setpoint_khz: 850_000,
        };
        assert_eq!(g.on_sample(&sample(&t, 500_000, &[1.0])), 900_000); // rounds up
    }

    #[test]
    fn ondemand_jumps_to_max_on_saturation() {
        let t = opps();
        let mut g = OndemandGovernor::default();
        assert_eq!(g.on_sample(&sample(&t, 600_000, &[0.99])), 1_300_000);
    }

    #[test]
    fn ondemand_walks_down_with_low_load() {
        let t = opps();
        let mut g = OndemandGovernor::default();
        let f = g.on_sample(&sample(&t, 1_300_000, &[0.3]));
        assert!(f < 1_300_000);
        assert!(t.index_of(f).is_some());
    }

    #[test]
    fn ondemand_never_partially_raises() {
        let t = opps();
        let mut g = OndemandGovernor::default();
        // util 0.9 < up threshold: must not raise above current.
        let f = g.on_sample(&sample(&t, 600_000, &[0.9]));
        assert!(f <= 600_000);
    }

    #[test]
    fn conservative_steps_one_opp() {
        let t = opps();
        let mut g = ConservativeGovernor::default();
        assert_eq!(g.on_sample(&sample(&t, 600_000, &[0.9])), 700_000);
        assert_eq!(g.on_sample(&sample(&t, 600_000, &[0.1])), 500_000);
        assert_eq!(g.on_sample(&sample(&t, 600_000, &[0.5])), 600_000);
    }

    #[test]
    fn governors_respect_a_thermal_ceiling() {
        let t = opps();
        // performance pegs at the ceiling, not the table max.
        assert_eq!(
            PerformanceGovernor.on_sample(&capped(&t, 500_000, &[0.0], 900_000)),
            900_000
        );
        // userspace setpoints above the cap are clamped.
        let mut u = UserspaceGovernor {
            setpoint_khz: 1_300_000,
        };
        assert_eq!(
            u.on_sample(&capped(&t, 500_000, &[1.0], 1_000_000)),
            1_000_000
        );
        // ondemand's saturation jump lands on the ceiling.
        let mut o = OndemandGovernor::default();
        assert_eq!(o.on_sample(&capped(&t, 600_000, &[0.99], 800_000)), 800_000);
        // conservative steps never climb past the ceiling, even when the
        // current frequency is already above a freshly lowered cap.
        let mut c = ConservativeGovernor::default();
        assert_eq!(c.on_sample(&capped(&t, 700_000, &[0.9], 700_000)), 700_000);
    }

    #[test]
    fn idle_quiescent_mirrors_a_zero_util_sample() {
        let t = opps();
        let zeros = [0.0, 0.0, 0.0, 0.0];
        let mut govs: Vec<Box<dyn CpufreqGovernor>> = vec![
            Box::new(PerformanceGovernor),
            Box::new(PowersaveGovernor),
            Box::new(UserspaceGovernor {
                setpoint_khz: 850_000,
            }),
            Box::new(OndemandGovernor::default()),
            Box::new(ConservativeGovernor::default()),
        ];
        for g in &mut govs {
            for idx in 0..t.len() {
                for cap in [u32::MAX, 1_050_000] {
                    let s = capped(&t, t.get(idx).freq_khz, &zeros, cap);
                    let quiescent = g.idle_quiescent(&s);
                    let decided = g.on_sample(&s);
                    assert_eq!(
                        quiescent,
                        decided == s.cur_freq_khz,
                        "{} at {} cap {}: quiescent={} but on_sample -> {}",
                        g.name(),
                        s.cur_freq_khz,
                        cap,
                        quiescent,
                        decided
                    );
                }
            }
        }
        // Spot-check the expected fixed points.
        assert!(PowersaveGovernor.idle_quiescent(&sample(&t, 500_000, &zeros)));
        assert!(!PowersaveGovernor.idle_quiescent(&sample(&t, 600_000, &zeros)));
        assert!(PerformanceGovernor.idle_quiescent(&sample(&t, 1_300_000, &zeros)));
        assert!(!PerformanceGovernor.idle_quiescent(&sample(&t, 500_000, &zeros)));
        assert!(OndemandGovernor::default().idle_quiescent(&sample(&t, 500_000, &zeros)));
        assert!(!ConservativeGovernor::default().idle_quiescent(&sample(&t, 600_000, &zeros)));
    }

    #[test]
    fn conservative_saturates_at_table_edges() {
        let t = opps();
        let mut g = ConservativeGovernor::default();
        assert_eq!(g.on_sample(&sample(&t, 1_300_000, &[1.0])), 1_300_000);
        assert_eq!(g.on_sample(&sample(&t, 500_000, &[0.0])), 500_000);
    }
}
