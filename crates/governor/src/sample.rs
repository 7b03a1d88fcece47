//! The governor interface.

use crate::config::GovernorConfig;
use bl_platform::ids::ClusterId;
use bl_platform::opp::OppTable;
use bl_simcore::time::SimDuration;

/// One sampling-period observation of a frequency domain.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSample<'a> {
    /// Which cluster this is.
    pub cluster: ClusterId,
    /// The cluster's OPP table (for rounding targets onto real steps).
    pub opps: &'a OppTable,
    /// Frequency that was in effect during the window, in kHz.
    pub cur_freq_khz: u32,
    /// Busy fraction (`[0,1]`) of each *online* CPU in the domain over the
    /// window. Empty when the whole cluster is hotplugged off.
    pub cpu_utils: &'a [f64],
    /// Frequency ceiling currently imposed on the domain (thermal
    /// throttling), in kHz. `u32::MAX` means uncapped. Governors must not
    /// request above [`ClusterSample::effective_max`].
    pub cap_khz: u32,
}

impl ClusterSample<'_> {
    /// The domain utilization the stock governors act on: the maximum
    /// per-CPU busy fraction (the domain must be fast enough for its
    /// busiest CPU), or `0.0` for a fully hotplugged-off domain.
    pub fn max_util(&self) -> f64 {
        self.cpu_utils.iter().fold(0.0, |m, &v| f64::max(m, v))
    }

    /// The highest OPP the domain may run at under the current ceiling:
    /// the cap rounded down onto the table, but never below the minimum
    /// OPP (a cluster cannot be capped out of existence).
    pub fn effective_max(&self) -> u32 {
        if self.cap_khz >= self.opps.max_khz() {
            return self.opps.max_khz();
        }
        self.opps.round_down(self.cap_khz).freq_khz
    }

    /// Clamps a raw frequency choice through the ceiling. The result is an
    /// exact OPP as long as `freq_khz` was one.
    pub fn clamp(&self, freq_khz: u32) -> u32 {
        freq_khz.min(self.effective_max())
    }
}

/// A per-cluster DVFS policy.
///
/// Implementations must return an exact OPP frequency of `sample.opps`.
pub trait CpufreqGovernor {
    /// Human-readable governor name (e.g. `"interactive"`).
    fn name(&self) -> &'static str;

    /// How often the driver should sample this governor.
    fn sampling_period(&self) -> SimDuration;

    /// Decides the next frequency for the domain from the last window's
    /// utilization.
    fn on_sample(&mut self, sample: &ClusterSample<'_>) -> u32;

    /// Returns true when a sample over an *all-idle* window (every
    /// utilization zero) is guaranteed to be a no-op: `on_sample` would
    /// return `sample.cur_freq_khz` and leave no internal state changed.
    ///
    /// Drivers use this to elide governor samples across idle gaps; the
    /// `false` default is always safe (the sample simply fires normally).
    /// Implementations must keep this exactly in sync with `on_sample` —
    /// the event-driven loop's bit-for-bit equivalence depends on it.
    fn idle_quiescent(&self, _sample: &ClusterSample<'_>) -> bool {
        false
    }

    /// This governor's whole runtime state, as the config that rebuilds
    /// it: `self.config().build()` must behave bit-identically to `self`.
    /// Snapshots store it in place of the live instance.
    fn config(&self) -> GovernorConfig;
}

#[cfg(test)]
mod tests {
    use super::*;
    use bl_platform::opp::OppTable;

    #[test]
    fn max_util_of_domain() {
        let opps = OppTable::linear(500_000, 1_300_000, 9, 900, 1_100);
        let s = ClusterSample {
            cluster: ClusterId(0),
            opps: &opps,
            cur_freq_khz: 500_000,
            cpu_utils: &[0.2, 0.9, 0.1],
            cap_khz: u32::MAX,
        };
        assert_eq!(s.max_util(), 0.9);
    }

    #[test]
    fn empty_domain_has_zero_util() {
        let opps = OppTable::linear(500_000, 1_300_000, 9, 900, 1_100);
        let s = ClusterSample {
            cluster: ClusterId(0),
            opps: &opps,
            cur_freq_khz: 500_000,
            cpu_utils: &[],
            cap_khz: u32::MAX,
        };
        assert_eq!(s.max_util(), 0.0);
    }

    #[test]
    fn effective_max_rounds_the_cap_onto_the_table() {
        let opps = OppTable::linear(500_000, 1_300_000, 9, 900, 1_100);
        let mut s = ClusterSample {
            cluster: ClusterId(0),
            opps: &opps,
            cur_freq_khz: 500_000,
            cpu_utils: &[1.0],
            cap_khz: u32::MAX,
        };
        assert_eq!(s.effective_max(), 1_300_000);
        s.cap_khz = 1_050_000; // between OPPs: round down
        assert_eq!(s.effective_max(), 1_000_000);
        assert_eq!(s.clamp(1_300_000), 1_000_000);
        assert_eq!(s.clamp(700_000), 700_000);
        s.cap_khz = 100_000; // below the ladder: pinned to min
        assert_eq!(s.effective_max(), 500_000);
    }
}
