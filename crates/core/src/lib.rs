//! # biglittle
//!
//! A full-system simulator of an asymmetric (big.LITTLE) mobile platform,
//! built to reproduce every experiment of *"Big or Little: A Study of
//! Mobile Interactive Applications on an Asymmetric Multi-core Platform"*
//! (Seo, Im, Choi, Huh — IISWC 2015).
//!
//! The paper characterizes a Galaxy S5 (Exynos 5422: 4× Cortex-A15 + 4×
//! Cortex-A7). This crate wires together the substrate crates into a
//! deterministic discrete-event simulation:
//!
//! * [`bl_platform`] — core/cache/OPP hardware model,
//! * [`bl_power`] — calibrated full-system power model,
//! * [`bl_kernel`] — tasks, runqueues, the HMP scheduler,
//! * [`bl_governor`] — the interactive DVFS governor and baselines,
//! * [`bl_workloads`] — SPEC-like kernels and 12 mobile-app models,
//! * [`bl_metrics`] — TLP/residency/efficiency/FPS measurement,
//!
//! and exposes one [`sim::Simulation`] driver plus one function per paper
//! table/figure in [`experiments`].
//!
//! Runs are described as serializable [`Scenario`]s and executed — in
//! parallel, with panic isolation and an on-disk result cache — by the
//! [`sweep`] engine.
//!
//! ## Quickstart
//!
//! ```
//! use biglittle::config::SystemConfig;
//! use biglittle::sim::Simulation;
//! use bl_workloads::apps::app_by_name;
//!
//! let app = app_by_name("Video Player").unwrap();
//! let mut sim = Simulation::builder()
//!     .config(SystemConfig::default())
//!     .build()
//!     .expect("valid config");
//! sim.spawn_app(&app);
//! let result = sim.try_run_app(&app).expect("run completes");
//! assert!(result.avg_power_mw > 0.0);
//! assert!(result.tlp.tlp > 0.0);
//! ```
//!
//! Batches of runs go through the sweep engine instead:
//!
//! ```
//! use biglittle::{Scenario, SystemConfig, sweep};
//! use bl_workloads::apps::app_by_name;
//!
//! let scenarios: Vec<Scenario> = ["Browser", "PDF Reader"]
//!     .iter()
//!     .map(|name| {
//!         let app = app_by_name(name).unwrap();
//!         Scenario::app(*name, app, SystemConfig::baseline())
//!     })
//!     .collect();
//! for result in sweep::run(scenarios, 2) {
//!     assert!(result.expect("runs complete").latency.is_some());
//! }
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod result;
pub mod scenario;
pub mod sim;
pub mod sweep;

pub use config::SystemConfig;
pub use result::{ResilienceStats, RunResult};
pub use scenario::{LateBindings, PlatformPreset, Scenario, StopWhen, Workload};
pub use sim::{SimSnapshot, Simulation, SimulationBuilder};
pub use sweep::{SweepOptions, SweepReport, SweepRequest, SweepStats};
