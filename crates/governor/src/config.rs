//! Governor selection and construction.

use crate::classic::{
    ConservativeGovernor, ConservativeParams, OndemandGovernor, OndemandParams,
    PerformanceGovernor, PowersaveGovernor, UserspaceGovernor,
};
use crate::interactive::{InteractiveGovernor, InteractiveParams};
use crate::sample::CpufreqGovernor;
use serde::{Deserialize, Serialize};

/// Declarative governor choice, turned into a per-cluster instance with
/// [`GovernorConfig::build`].
///
/// It is also a live governor's whole runtime state: every shipped
/// governor decides from the sample and its tunables alone, so
/// [`CpufreqGovernor::config`] captures an instance for a snapshot and
/// `build` restores it bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GovernorConfig {
    /// The platform's default governor (paper Algorithm 2).
    Interactive(InteractiveParams),
    /// Jump-to-max / walk-down baseline.
    Ondemand(OndemandParams),
    /// One-OPP-step-at-a-time baseline.
    Conservative(ConservativeParams),
    /// Pin at maximum frequency.
    Performance,
    /// Pin at minimum frequency.
    Powersave,
    /// Hold a fixed frequency (kHz, rounded up to an OPP).
    Userspace(u32),
}

impl GovernorConfig {
    /// The platform default: interactive with stock tunables.
    pub fn platform_default() -> Self {
        GovernorConfig::Interactive(InteractiveParams::default_platform())
    }

    /// Builds a fresh governor instance for one cluster.
    pub fn build(&self) -> Box<dyn CpufreqGovernor> {
        match *self {
            GovernorConfig::Interactive(p) => Box::new(InteractiveGovernor::new(p)),
            GovernorConfig::Ondemand(p) => Box::new(OndemandGovernor { params: p }),
            GovernorConfig::Conservative(p) => Box::new(ConservativeGovernor { params: p }),
            GovernorConfig::Performance => Box::new(PerformanceGovernor),
            GovernorConfig::Powersave => Box::new(PowersaveGovernor),
            GovernorConfig::Userspace(khz) => Box::new(UserspaceGovernor { setpoint_khz: khz }),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            GovernorConfig::Interactive(p) => format!(
                "interactive({}ms,tl={})",
                p.sampling_period.as_millis_f64(),
                p.target_load
            ),
            GovernorConfig::Ondemand(_) => "ondemand".to_string(),
            GovernorConfig::Conservative(_) => "conservative".to_string(),
            GovernorConfig::Performance => "performance".to_string(),
            GovernorConfig::Powersave => "powersave".to_string(),
            GovernorConfig::Userspace(khz) => format!("userspace({khz}kHz)"),
        }
    }
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig::platform_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_variant() {
        let configs = [
            GovernorConfig::platform_default(),
            GovernorConfig::Ondemand(OndemandParams::default()),
            GovernorConfig::Conservative(ConservativeParams::default()),
            GovernorConfig::Performance,
            GovernorConfig::Powersave,
            GovernorConfig::Userspace(1_000_000),
        ];
        for c in configs {
            let g = c.build();
            assert!(!g.name().is_empty());
            assert!(!g.sampling_period().is_zero());
            assert!(!c.label().is_empty());
        }
    }

    #[test]
    fn default_is_interactive() {
        assert_eq!(GovernorConfig::default().build().name(), "interactive");
    }

    #[test]
    fn every_governor_state_saves_and_restores() {
        let configs = [
            GovernorConfig::platform_default(),
            GovernorConfig::Ondemand(OndemandParams::default()),
            GovernorConfig::Conservative(ConservativeParams::default()),
            GovernorConfig::Performance,
            GovernorConfig::Powersave,
            GovernorConfig::Userspace(1_000_000),
        ];
        for c in configs {
            let g = c.build();
            let state = g.config();
            assert_eq!(state, c);
            // Survive a JSON round trip, then rebuild the same governor.
            let json = serde_json::to_string(&state).unwrap();
            let back: GovernorConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, state);
            let restored = back.build();
            assert_eq!(restored.name(), g.name());
            assert_eq!(restored.sampling_period(), g.sampling_period());
            assert_eq!(restored.config(), state);
        }
    }
}
