//! The `interactive` governor — paper Algorithm 2.
//!
//! ```text
//! for every sampling rate do
//!   util ← current utilization since last check
//!   freq ← current frequency since last check
//!   target_freq ← freq * util / TARGET_LOAD
//!   if util > UP_THRESHOLD
//!     if freq < HISPEED_FREQ then set frequency to HISPEED_FREQ
//!     else set frequency to target_freq
//!   if util < DOWN_THRESHOLD then set frequency to target_freq
//! end for
//! ```
//!
//! Frequencies between the thresholds are held — the governor leaves a
//! utilization margin for unpredicted load increases (paper §VI.B). The
//! default sampling period is 20 ms and the default target load 70%
//! (paper §VI.C); the parameter sweep of Figures 11–13 varies the sampling
//! period (60, 100 ms) and target load (60, 80).

use crate::config::GovernorConfig;
use crate::sample::{ClusterSample, CpufreqGovernor};
use bl_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Tunables of the interactive governor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InteractiveParams {
    /// Sampling period (default 20 ms on the target platform).
    pub sampling_period: SimDuration,
    /// The utilization the governor steers toward (default 0.70).
    pub target_load: f64,
    /// Utilization above which the hispeed jump fires (default 0.85).
    pub up_threshold: f64,
    /// Utilization below which the frequency is allowed to drop
    /// (default 0.50); between the thresholds the frequency holds.
    pub down_threshold: f64,
    /// Fraction of the cluster's max frequency used as the hispeed jump
    /// point (default 0.8).
    pub hispeed_fraction: f64,
}

impl InteractiveParams {
    /// Platform defaults (20 ms sampling, target load 70).
    pub fn default_platform() -> Self {
        InteractiveParams {
            sampling_period: SimDuration::from_millis(20),
            target_load: 0.70,
            up_threshold: 0.85,
            down_threshold: 0.50,
            hispeed_fraction: 0.8,
        }
    }

    /// Paper §VI.C variant: 60 ms sampling interval.
    pub fn sampling_60ms() -> Self {
        InteractiveParams {
            sampling_period: SimDuration::from_millis(60),
            ..Self::default_platform()
        }
    }

    /// Paper §VI.C variant: 100 ms sampling interval.
    pub fn sampling_100ms() -> Self {
        InteractiveParams {
            sampling_period: SimDuration::from_millis(100),
            ..Self::default_platform()
        }
    }

    /// Paper §VI.C variant: high (80) target load.
    pub fn target_load_high() -> Self {
        InteractiveParams {
            target_load: 0.80,
            ..Self::default_platform()
        }
    }

    /// Paper §VI.C variant: low (60) target load.
    pub fn target_load_low() -> Self {
        InteractiveParams {
            target_load: 0.60,
            ..Self::default_platform()
        }
    }

    /// Validates parameter ordering.
    ///
    /// # Panics
    ///
    /// Panics when thresholds are outside `(0,1]` or inverted.
    pub fn assert_valid(&self) {
        assert!(self.target_load > 0.0 && self.target_load <= 1.0);
        assert!(self.up_threshold > 0.0 && self.up_threshold <= 1.0);
        assert!(self.down_threshold >= 0.0 && self.down_threshold < self.up_threshold);
        assert!(self.hispeed_fraction > 0.0 && self.hispeed_fraction <= 1.0);
        assert!(!self.sampling_period.is_zero());
    }
}

impl Default for InteractiveParams {
    fn default() -> Self {
        InteractiveParams::default_platform()
    }
}

/// The interactive governor instance for one cluster.
#[derive(Debug, Clone)]
pub struct InteractiveGovernor {
    params: InteractiveParams,
}

impl InteractiveGovernor {
    /// Creates a governor with the given tunables.
    pub fn new(params: InteractiveParams) -> Self {
        params.assert_valid();
        InteractiveGovernor { params }
    }

    /// The governor's tunables.
    pub fn params(&self) -> &InteractiveParams {
        &self.params
    }
}

impl CpufreqGovernor for InteractiveGovernor {
    fn name(&self) -> &'static str {
        "interactive"
    }

    fn sampling_period(&self) -> SimDuration {
        self.params.sampling_period
    }

    fn on_sample(&mut self, sample: &ClusterSample<'_>) -> u32 {
        let util = sample.max_util();
        let cur = sample.cur_freq_khz;
        // The hispeed jump point scales with the *available* ceiling, so a
        // thermally capped cluster keeps the algorithm's shape within its
        // shrunken ladder instead of slamming into the cap.
        let hispeed = sample.clamp(
            sample
                .opps
                .round_up((sample.effective_max() as f64 * self.params.hispeed_fraction) as u32)
                .freq_khz,
        );
        let target = (cur as f64 * util / self.params.target_load) as u32;

        if util > self.params.up_threshold {
            if cur < hispeed {
                return hispeed;
            }
            return sample.clamp(sample.opps.round_up(target).freq_khz);
        }
        if util < self.params.down_threshold {
            return sample.clamp(sample.opps.round_up(target).freq_khz);
        }
        sample.clamp(cur) // hold inside the margin band
    }

    fn idle_quiescent(&self, sample: &ClusterSample<'_>) -> bool {
        // Stateless governor: probing a clone with the caller's all-idle
        // sample computes exactly what a real sample would decide.
        self.clone().on_sample(sample) == sample.cur_freq_khz
    }

    fn config(&self) -> GovernorConfig {
        GovernorConfig::Interactive(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bl_platform::ids::ClusterId;
    use bl_platform::opp::OppTable;
    use proptest::prelude::*;

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

    #[test]
    fn hispeed_jump_from_low_frequency() {
        let t = opps();
        let mut g = InteractiveGovernor::new(InteractiveParams::default());
        // util 0.95 > up threshold, current below hispeed (0.8*1.3 = 1.04 → 1.1 GHz)
        let f = g.on_sample(&sample(&t, 500_000, &[0.95]));
        assert_eq!(f, 1_100_000);
    }

    #[test]
    fn proportional_scaling_above_hispeed() {
        let t = opps();
        let mut g = InteractiveGovernor::new(InteractiveParams::default());
        // Already at hispeed; full load scales proportionally: 1.1 GHz * 1.0/0.7 = 1.57 → max.
        let f = g.on_sample(&sample(&t, 1_100_000, &[1.0]));
        assert_eq!(f, 1_300_000);
    }

    #[test]
    fn holds_inside_margin_band() {
        let t = opps();
        let mut g = InteractiveGovernor::new(InteractiveParams::default());
        let f = g.on_sample(&sample(&t, 900_000, &[0.6]));
        assert_eq!(f, 900_000, "60% util between thresholds must hold");
    }

    #[test]
    fn scales_down_below_down_threshold() {
        let t = opps();
        let mut g = InteractiveGovernor::new(InteractiveParams::default());
        // util 0.2 at 1.3 GHz: target = 1.3*0.2/0.7 = 371 MHz → round up to 500 MHz.
        let f = g.on_sample(&sample(&t, 1_300_000, &[0.2]));
        assert_eq!(f, 500_000);
    }

    #[test]
    fn idle_domain_falls_to_minimum() {
        let t = opps();
        let mut g = InteractiveGovernor::new(InteractiveParams::default());
        let f = g.on_sample(&sample(&t, 1_300_000, &[0.0, 0.0]));
        assert_eq!(f, t.min_khz());
    }

    #[test]
    fn busiest_cpu_governs_the_domain() {
        let t = opps();
        let mut g = InteractiveGovernor::new(InteractiveParams::default());
        let steady = g.on_sample(&sample(&t, 800_000, &[0.1, 0.95, 0.0, 0.3]));
        assert!(steady >= 800_000, "one busy CPU must hold/raise the domain");
    }

    #[test]
    fn target_load_low_raises_frequencies() {
        let t = opps();
        let mut hi = InteractiveGovernor::new(InteractiveParams::target_load_low());
        let mut def = InteractiveGovernor::new(InteractiveParams::default());
        // Same downscale decision: lower target load yields a higher floor.
        let f_low_target = hi.on_sample(&sample(&t, 1_300_000, &[0.4]));
        let f_default = def.on_sample(&sample(&t, 1_300_000, &[0.4]));
        assert!(f_low_target >= f_default);
    }

    #[test]
    fn ceiling_caps_the_hispeed_jump_and_targets() {
        let t = opps();
        let mut g = InteractiveGovernor::new(InteractiveParams::default());
        let mut s = sample(&t, 500_000, &[0.95]);
        s.cap_khz = 900_000;
        // Uncapped this would jump to 1.1 GHz (hispeed); capped it lands
        // within the ceiling: hispeed = round_up(0.8 * 900k) = 800 MHz.
        let f = g.on_sample(&s);
        assert_eq!(f, 800_000);
        // Sustained saturation at the capped hispeed never exceeds the cap.
        let mut s2 = sample(&t, 800_000, &[1.0]);
        s2.cap_khz = 900_000;
        assert_eq!(g.on_sample(&s2), 900_000);
    }

    #[test]
    fn idle_quiescent_only_at_the_zero_util_fixed_point() {
        let t = opps();
        let zeros = [0.0, 0.0];
        let g = InteractiveGovernor::new(InteractiveParams::default());
        // The only frequency a zero-util sample holds is the minimum OPP.
        assert!(g.idle_quiescent(&sample(&t, t.min_khz(), &zeros)));
        for idx in 1..9 {
            let cur = t.get(idx).freq_khz;
            let s = sample(&t, cur, &zeros);
            assert!(!g.idle_quiescent(&s), "{cur} must not be quiescent");
            // Mirror contract: quiescent ⇔ on_sample is an identity.
            let decided = g.clone().on_sample(&s);
            assert_ne!(decided, cur);
        }
    }

    #[test]
    fn sampling_variants() {
        assert_eq!(
            InteractiveParams::sampling_60ms().sampling_period,
            SimDuration::from_millis(60)
        );
        assert_eq!(
            InteractiveParams::sampling_100ms().sampling_period,
            SimDuration::from_millis(100)
        );
        assert_eq!(InteractiveParams::target_load_high().target_load, 0.80);
        assert_eq!(InteractiveParams::target_load_low().target_load, 0.60);
    }

    proptest! {
        #[test]
        fn always_returns_a_table_frequency(cur_idx in 0usize..9, util in 0.0f64..1.0) {
            let t = opps();
            let cur = t.get(cur_idx).freq_khz;
            let mut g = InteractiveGovernor::new(InteractiveParams::default());
            let utils = [util];
            let f = g.on_sample(&sample(&t, cur, &utils));
            prop_assert!(t.index_of(f).is_some(), "governor returned off-table {f}");
        }

        #[test]
        fn never_drops_frequency_in_margin_or_up_band(cur_idx in 0usize..9, util in 0.5f64..1.0) {
            let t = opps();
            let cur = t.get(cur_idx).freq_khz;
            let mut g = InteractiveGovernor::new(InteractiveParams::default());
            let utils = [util];
            let f = g.on_sample(&sample(&t, cur, &utils));
            prop_assert!(f >= cur, "util {util} must not reduce {cur} -> {f}");
        }
    }
}

#[cfg(test)]
mod dynamics_tests {
    use super::*;
    use crate::sample::{ClusterSample, CpufreqGovernor};
    use bl_platform::ids::ClusterId;
    use bl_platform::opp::OppTable;
    use proptest::prelude::*;

    /// Simulates the closed loop: a fixed *absolute* demand (cycles per
    /// second a task wants) produces utilization = demand / freq, and the
    /// governor reacts. The loop must reach a fixed point — no limit-cycle
    /// oscillation — and that fixed point must carry the demand.
    fn settle(demand_khz: f64) -> Vec<u32> {
        let opps = OppTable::linear(500_000, 1_300_000, 9, 900, 1_100);
        let mut g = InteractiveGovernor::new(InteractiveParams::default());
        let mut freq = opps.min_khz();
        let mut history = Vec::new();
        for _ in 0..50 {
            let util = (demand_khz / freq as f64).min(1.0);
            let utils = [util];
            freq = g.on_sample(&ClusterSample {
                cluster: ClusterId(0),
                opps: &opps,
                cur_freq_khz: freq,
                cpu_utils: &utils,
                cap_khz: u32::MAX,
            });
            history.push(freq);
        }
        history
    }

    proptest! {
        #[test]
        fn closed_loop_settles_without_oscillation(demand in 50_000.0f64..1_250_000.0) {
            let history = settle(demand);
            // The last 10 samples must be a single frequency (fixed point).
            let tail = &history[history.len() - 10..];
            prop_assert!(
                tail.iter().all(|f| *f == tail[0]),
                "limit cycle at demand {demand}: {tail:?}"
            );
            // And the settled frequency carries the demand below 100% util
            // (unless the demand exceeds the hardware ceiling).
            let settled = tail[0] as f64;
            if demand < 1_300_000.0 {
                prop_assert!(settled >= demand.min(1_300_000.0) * 0.99,
                    "settled {settled} below demand {demand}");
            }
        }

        #[test]
        fn settled_frequency_is_monotone_in_demand(
            d1 in 100_000.0f64..1_200_000.0,
            d2 in 100_000.0f64..1_200_000.0)
        {
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            let f_lo = *settle(lo).last().unwrap();
            let f_hi = *settle(hi).last().unwrap();
            prop_assert!(f_hi >= f_lo, "demand {lo}->{hi} but freq {f_lo}->{f_hi}");
        }
    }
}
