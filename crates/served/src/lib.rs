//! Sweep-as-a-service: a crash-only daemon that serves scenario batches
//! over a Unix-socket JSON-lines protocol, plus the matching submit
//! client.
//!
//! The crate splits into:
//!
//! * [`proto`] — the wire grammar: strict request parsing with typed
//!   rejections, and the event lines the server streams back;
//! * [`lifecycle`] — the pure run-lifecycle state machine
//!   (`admitted → running → complete | quarantined`)
//!   with bounded admission, per-client fair-share queues and
//!   injected-clock wedge detection;
//! * [`server`] — the daemon: std-only threads over a `UnixListener`, a
//!   checksummed service journal whose one synced record per run is its
//!   admission, batch included, and which a restart folds, compacts and
//!   adopts from; progress streamed from the counts the sweep engine
//!   keeps on each run's batch; and SIGTERM drain;
//! * [`client`] — submit with retry, exponential backoff and
//!   reconnect-and-resume; resubmission after a daemon SIGKILL converges
//!   on results byte-identical to a one-shot sweep, because the run id
//!   is the batch key and the engine's journal replays completed work.

pub mod client;
pub mod lifecycle;
pub mod proto;
pub mod server;

pub use client::{control, submit, SubmitConfig, SubmitReport};
pub use lifecycle::{Admission, BoardLimits, RunBoard, RunEntry, RunState};
pub use proto::{Event, Reject, Request, SubmitOptions};
pub use server::{serve, ServeConfig, WEDGE_ENV};
