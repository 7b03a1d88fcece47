//! # bl-kernel
//!
//! The operating-system model of the simulator: tasks with pluggable
//! behaviors, per-CPU runqueues with CFS-style fair timeslicing, Linaro-HMP
//! load tracking and big↔little migration (paper Algorithm 1), and
//! intra-cluster load balancing.
//!
//! The kernel is driven by an external event loop (the `biglittle` crate):
//! the driver advances simulated time between events, asks the kernel when
//! the next quantum completes, delivers timer ticks, and applies governor
//! frequency decisions. The kernel owns all task and runqueue state.
//!
//! ## The HMP scheduler (paper §IV.B)
//!
//! Every scheduler tick the kernel updates each task's time-weighted CPU
//! load (half-life 32 ms by default — "the 1ms-period load generated 32ms
//! ago will be weighted by 50%"), normalized by current frequency. A task on
//! a little core whose load exceeds the *up-threshold* (default 700/1024)
//! migrates to the least-loaded big core; a task on a big core whose load
//! falls below the *down-threshold* (default 256/1024) migrates back.
//! Sleeping tasks' loads are frozen ("if a task enters the sleep state, its
//! load is not updated").

#![warn(missing_docs)]

pub mod accounting;
pub mod hmp;
pub mod kernel;
pub mod load;
pub mod policy;
pub mod runqueue;
pub mod task;

pub use hmp::HmpParams;
pub use kernel::{Kernel, KernelConfig, KernelSaved, TaskCensus, TaskSaved};
pub use load::{LoadSet, LoadSetSaved, LoadTracker};
pub use policy::AsymPolicy;
pub use task::{
    Affinity, AppSignal, BehaviorCtx, BehaviorSaved, RestoreCtx, SaveCtx, Step, TaskBehavior,
    TaskId, TaskState,
};
