//! # bl-simcore
//!
//! Foundation crate for the `biglittle` asymmetric-multicore simulator:
//! simulated time, a deterministic discrete-event queue, a seedable RNG with
//! the distribution helpers the workload models need, and the statistics
//! accumulators used by the measurement layer (weighted histograms,
//! time-weighted means, time series).
//!
//! Everything in this crate is deterministic: given the same seed and the
//! same sequence of calls, results are bit-for-bit identical across runs and
//! platforms.
//!
//! ## Example
//!
//! ```
//! use bl_simcore::time::{SimTime, SimDuration};
//! use bl_simcore::event::EventQueue;
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "later");
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(1), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "sooner");
//! assert_eq!(t, SimTime::from_millis(1));
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod budget;
pub mod durable;
pub mod error;
pub mod event;
pub mod fault;
pub mod journal;
pub mod pool;
pub mod rng;
pub mod shard;
pub mod snapstore;
pub mod stats;
pub mod time;

pub use audit::InvariantGuard;
pub use budget::{ArmedBudget, CancelToken, RunBudget};
pub use error::SimError;
pub use event::EventQueue;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use journal::Journal;
pub use rng::{derive_seed, SimRng};
pub use snapstore::{SnapEntry, SnapStore};
pub use time::{SimDuration, SimTime};
