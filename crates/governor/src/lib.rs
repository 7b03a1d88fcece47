//! # bl-governor
//!
//! CPU-frequency (DVFS) governors for the asymmetric platform.
//!
//! The centerpiece is the [`interactive::InteractiveGovernor`], a faithful
//! implementation of the paper's Algorithm 2 — the governor shipped on the
//! target device. Classic Linux governors (ondemand, conservative,
//! performance, powersave, userspace) are provided as baselines for
//! comparison experiments.
//!
//! Governors are per-cluster: each frequency domain gets its own instance,
//! sampled every `sampling_period` with the busy fraction of each online
//! CPU in the domain. The returned frequency is always an exact OPP of the
//! cluster's table.
//!
//! ```
//! use bl_governor::{ClusterSample, CpufreqGovernor, GovernorConfig};
//! use bl_platform::opp::OppTable;
//! use bl_platform::ids::ClusterId;
//!
//! let opps = OppTable::linear(500_000, 1_300_000, 9, 900, 1_100);
//! let mut gov = GovernorConfig::Performance.build();
//! let f = gov.on_sample(&ClusterSample {
//!     cluster: ClusterId(0),
//!     opps: &opps,
//!     cur_freq_khz: 500_000,
//!     cpu_utils: &[0.1],
//!     cap_khz: u32::MAX, // no thermal ceiling in force
//! });
//! assert_eq!(f, 1_300_000);
//! ```

#![warn(missing_docs)]

pub mod classic;
pub mod config;
pub mod interactive;
pub mod sample;

pub use config::GovernorConfig;
pub use interactive::{InteractiveGovernor, InteractiveParams};
pub use sample::{ClusterSample, CpufreqGovernor};
