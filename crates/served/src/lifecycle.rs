//! The run lifecycle board: a pure state machine (no clocks, no I/O, no
//! sockets) deciding admission, fair-share scheduling and wedge
//! detection — the serve-layer twin of the shard layer's
//! `bl_simcore::shard::LeaseBoard`. The daemon injects timestamps and
//! persists every transition through its service journal; keeping the
//! kernel pure makes every admission-control and fairness rule unit
//! testable without a socket in sight.
//!
//! The lifecycle:
//!
//! ```text
//! admitted → running → complete
//!                    ↘ quarantined
//! ```
//!
//! `admitted` means the run passed admission control; its client hears
//! so once the daemon has synced its admission record, batch included:
//! the one promise it makes. `running` means an executor owns it (the
//! daemon may start the executor before the admission syncs), and the two
//! terminal states record how it ended. Only the admission and the
//! terminal state are journaled: adoption reads nothing else, and treats
//! every non-terminal state as open. Terminal runs may be resubmitted:
//! the engine's journal replay makes the re-run cheap and byte-identical.

use crate::proto::Reject;
use std::collections::{HashMap, VecDeque};

/// One run's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Admitted and queued. Its admission record, carrying the batch, is
    /// synced before the client is told.
    Admitted,
    /// Handed to an executor.
    Running,
    /// Finished (possibly degraded — scenario-level quarantines live in
    /// the sweep report, not here).
    Complete,
    /// Wedged past the server timeout and cancelled whole.
    Quarantined,
}

impl RunState {
    /// The journal/wire rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            RunState::Admitted => "admitted",
            RunState::Running => "running",
            RunState::Complete => "complete",
            RunState::Quarantined => "quarantined",
        }
    }

    /// Parses a journal/wire rendering. `leased`, which older daemons
    /// journaled when an executor took a run, reads as running.
    pub fn parse(s: &str) -> Option<RunState> {
        Some(match s {
            "admitted" => RunState::Admitted,
            "leased" | "running" => RunState::Running,
            "complete" => RunState::Complete,
            "quarantined" => RunState::Quarantined,
            _ => return None,
        })
    }

    /// Whether the state is final.
    pub fn is_terminal(self) -> bool {
        matches!(self, RunState::Complete | RunState::Quarantined)
    }
}

/// One tracked run.
#[derive(Debug, Clone)]
pub struct RunEntry {
    /// The run's identity (batch key).
    pub run: String,
    /// The submitting client — the fair-share unit.
    pub client: String,
    /// Scenarios in the batch.
    pub total: usize,
    /// Current lifecycle state.
    pub state: RunState,
    /// Scenarios settled so far, as the sweep engine counts them.
    pub done: usize,
    /// Injected timestamp of the last observed progress (or grant).
    pub last_progress_ms: u64,
}

/// How a submission was accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A fresh run, queued behind `position` others.
    Queued {
        /// Runs ahead of it in the queue.
        position: u64,
    },
    /// The same batch is already queued or executing; the caller was
    /// attached to the in-flight run instead of duplicating work.
    Attached {
        /// The in-flight run's state.
        state: RunState,
    },
}

/// Admission-control limits.
#[derive(Debug, Clone, Copy)]
pub struct BoardLimits {
    /// Most runs waiting in the queue (running runs do not count).
    /// Past this, submissions get [`Reject::QueueFull`].
    pub max_queued: usize,
    /// Most scenarios summed over queued runs. Past this, submissions
    /// get [`Reject::Overloaded`].
    pub max_pending_scenarios: usize,
    /// Most runs executing at once.
    pub max_active: usize,
}

impl Default for BoardLimits {
    fn default() -> Self {
        BoardLimits {
            max_queued: 16,
            max_pending_scenarios: 4096,
            max_active: 2,
        }
    }
}

/// The board itself. All mutation goes through typed transitions; the
/// daemon journals each one.
#[derive(Debug, Default)]
pub struct RunBoard {
    limits: BoardLimits,
    draining: bool,
    runs: HashMap<String, RunEntry>,
    /// Per-client FIFO queues of admitted runs, in client arrival order.
    queues: Vec<(String, VecDeque<String>)>,
    /// Round-robin cursor over `queues` — the fair-share pointer.
    cursor: usize,
    /// Terminal tallies for the status surface.
    completed: u64,
    quarantined_runs: u64,
}

impl RunBoard {
    /// A board enforcing `limits`.
    pub fn new(limits: BoardLimits) -> RunBoard {
        RunBoard {
            limits,
            ..RunBoard::default()
        }
    }

    /// Runs currently waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queues.iter().map(|(_, q)| q.len()).sum()
    }

    /// Scenarios summed over queued runs — the backpressure signal.
    pub fn pending_scenarios(&self) -> usize {
        self.queues
            .iter()
            .flat_map(|(_, q)| q.iter())
            .filter_map(|r| self.runs.get(r))
            .map(|e| e.total)
            .sum()
    }

    /// Runs currently running.
    pub fn active(&self) -> usize {
        self.runs
            .values()
            .filter(|e| e.state == RunState::Running)
            .count()
    }

    /// Runs completed since startup.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Runs quarantined whole since startup.
    pub fn quarantined_runs(&self) -> u64 {
        self.quarantined_runs
    }

    /// Whether the board refuses new admissions.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Stops admitting; already-admitted runs keep executing.
    pub fn drain(&mut self) {
        self.draining = true;
    }

    /// The entry for `run`, if tracked.
    pub fn get(&self, run: &str) -> Option<&RunEntry> {
        self.runs.get(run)
    }

    /// Submits a run. Non-terminal duplicates attach instead of
    /// re-queuing; terminal duplicates re-admit (the engine's journal
    /// replay makes the re-run cheap). Typed rejections enforce drain,
    /// queue depth and scenario-count backpressure — in that order, so an
    /// overloaded daemon always answers deterministically.
    pub fn submit(
        &mut self,
        run: &str,
        client: &str,
        total: usize,
        now_ms: u64,
    ) -> Result<Admission, Reject> {
        if let Some(e) = self.runs.get(run) {
            if !e.state.is_terminal() {
                return Ok(Admission::Attached { state: e.state });
            }
        }
        if self.draining {
            return Err(Reject::Draining);
        }
        if self.queued() >= self.limits.max_queued {
            return Err(Reject::QueueFull);
        }
        if self.pending_scenarios() + total > self.limits.max_pending_scenarios {
            return Err(Reject::Overloaded);
        }
        let position = self.queued() as u64;
        self.adopt(run, client, total, now_ms);
        Ok(Admission::Queued { position })
    }

    /// Queues a run a restarted daemon adopts from its journal. The run
    /// was admitted before, so no admission limit applies: a crash with a
    /// full queue and active runs leaves more open runs than the queue
    /// holds, and every one of them must still run.
    pub fn adopt(&mut self, run: &str, client: &str, total: usize, now_ms: u64) {
        self.runs.insert(
            run.to_string(),
            RunEntry {
                run: run.to_string(),
                client: client.to_string(),
                total,
                state: RunState::Admitted,
                done: 0,
                last_progress_ms: now_ms,
            },
        );
        match self.queues.iter_mut().find(|(c, _)| c == client) {
            Some((_, q)) => q.push_back(run.to_string()),
            None => {
                let mut q = VecDeque::new();
                q.push_back(run.to_string());
                self.queues.push((client.to_string(), q));
            }
        }
    }

    /// Picks the next run to execute, fair-share: a round-robin cursor
    /// walks the clients so one flooding client cannot starve another —
    /// with clients A and B both queued, grants alternate A, B, A, B
    /// regardless of how many runs A has piled up. Respects
    /// [`BoardLimits::max_active`]; the chosen run transitions to
    /// [`RunState::Running`].
    pub fn start_next(&mut self, now_ms: u64) -> Option<String> {
        if self.active() >= self.limits.max_active || self.queues.is_empty() {
            return None;
        }
        let n = self.queues.len();
        for step in 0..n {
            let idx = (self.cursor + step) % n;
            if let Some(run) = self.queues[idx].1.pop_front() {
                self.cursor = (idx + 1) % n;
                if let Some(e) = self.runs.get_mut(&run) {
                    e.state = RunState::Running;
                    e.last_progress_ms = now_ms;
                }
                return Some(run);
            }
        }
        None
    }

    /// Records observed progress (`done` settled scenarios). Returns
    /// whether the count advanced.
    pub fn progress(&mut self, run: &str, done: usize, now_ms: u64) -> bool {
        let Some(e) = self.runs.get_mut(run) else {
            return false;
        };
        let advanced = done > e.done;
        if advanced {
            e.done = done;
            e.last_progress_ms = now_ms;
        }
        advanced
    }

    /// Terminal transition: the run finished.
    pub fn complete(&mut self, run: &str) {
        if let Some(e) = self.runs.get_mut(run) {
            if !e.state.is_terminal() {
                e.state = RunState::Complete;
                self.completed += 1;
            }
        }
    }

    /// Terminal transition: the run was cancelled whole, or could not be
    /// re-run. A queued run leaves the queue.
    pub fn quarantine(&mut self, run: &str) {
        if let Some(e) = self.runs.get_mut(run) {
            if !e.state.is_terminal() {
                e.state = RunState::Quarantined;
                self.quarantined_runs += 1;
            }
        }
        for (_, q) in &mut self.queues {
            q.retain(|r| r != run);
        }
    }

    /// Active runs whose last observed progress is older than
    /// `timeout_ms` — the wedge candidates the daemon cancels and
    /// quarantines, exactly as the shard layer reclaims silent leases.
    pub fn wedged(&self, now_ms: u64, timeout_ms: u64) -> Vec<String> {
        self.runs
            .values()
            .filter(|e| e.state == RunState::Running)
            .filter(|e| now_ms.saturating_sub(e.last_progress_ms) >= timeout_ms)
            .map(|e| e.run.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits(max_queued: usize, max_pending: usize, max_active: usize) -> BoardLimits {
        BoardLimits {
            max_queued,
            max_pending_scenarios: max_pending,
            max_active,
        }
    }

    #[test]
    fn lifecycle_walks_submitted_to_complete() {
        let mut b = RunBoard::new(limits(4, 100, 1));
        assert_eq!(
            b.submit("r1", "a", 6, 0).unwrap(),
            Admission::Queued { position: 0 }
        );
        assert_eq!(b.get("r1").unwrap().state, RunState::Admitted);
        assert_eq!(b.start_next(1).as_deref(), Some("r1"));
        assert_eq!(b.get("r1").unwrap().state, RunState::Running);
        assert!(b.progress("r1", 2, 2));
        assert!(!b.progress("r1", 2, 3), "an unmoved count is no progress");
        b.complete("r1");
        assert_eq!(b.get("r1").unwrap().state, RunState::Complete);
        assert_eq!(b.completed(), 1);
        assert_eq!(b.active(), 0);
    }

    #[test]
    fn queue_full_and_overloaded_are_typed() {
        let mut b = RunBoard::new(limits(2, 10, 1));
        b.submit("r1", "a", 4, 0).unwrap();
        b.submit("r2", "a", 4, 0).unwrap();
        // Queue depth cap.
        assert_eq!(b.submit("r3", "a", 1, 0), Err(Reject::QueueFull));
        // Freeing one queue slot exposes the scenario-count cap.
        assert!(b.start_next(0).is_some());
        assert_eq!(b.submit("r4", "a", 8, 0), Err(Reject::Overloaded));
        // A small batch still fits.
        assert!(b.submit("r5", "a", 2, 0).is_ok());
    }

    #[test]
    fn duplicate_submission_attaches_and_terminal_readmits() {
        let mut b = RunBoard::new(limits(4, 100, 1));
        b.submit("r1", "a", 6, 0).unwrap();
        assert_eq!(
            b.submit("r1", "b", 6, 1).unwrap(),
            Admission::Attached {
                state: RunState::Admitted
            }
        );
        // Attach does not consume queue capacity.
        assert_eq!(b.queued(), 1);
        b.start_next(2);
        b.complete("r1");
        // Terminal runs re-admit as fresh work.
        assert_eq!(
            b.submit("r1", "a", 6, 3).unwrap(),
            Admission::Queued { position: 0 }
        );
    }

    #[test]
    fn adoption_passes_admission_limits_and_quarantine_dequeues() {
        let mut b = RunBoard::new(limits(1, 1, 1));
        for run in ["r0", "r1", "r2"] {
            b.adopt(run, "a", 4, 0);
        }
        assert_eq!(
            b.queued(),
            3,
            "adopted runs pass max_queued and max_pending"
        );
        b.quarantine("r1");
        assert_eq!(b.queued(), 2);
        let mut order = Vec::new();
        while let Some(run) = b.start_next(1) {
            b.complete(&run);
            order.push(run);
        }
        assert_eq!(order, ["r0", "r2"], "a quarantined run is never leased");
        assert_eq!(b.quarantined_runs(), 1);
    }

    #[test]
    fn fair_share_alternates_clients() {
        let mut b = RunBoard::new(limits(10, 1000, 10));
        b.submit("a1", "a", 1, 0).unwrap();
        b.submit("a2", "a", 1, 0).unwrap();
        b.submit("a3", "a", 1, 0).unwrap();
        b.submit("b1", "b", 1, 0).unwrap();
        b.submit("b2", "b", 1, 0).unwrap();
        let order: Vec<String> = std::iter::from_fn(|| b.start_next(1)).collect();
        // A flooding client "a" cannot starve "b": grants alternate.
        assert_eq!(order, ["a1", "b1", "a2", "b2", "a3"]);
    }

    #[test]
    fn max_active_gates_grants() {
        let mut b = RunBoard::new(limits(10, 1000, 2));
        for i in 0..4 {
            b.submit(&format!("r{i}"), "a", 1, 0).unwrap();
        }
        assert!(b.start_next(0).is_some());
        assert!(b.start_next(0).is_some());
        assert!(b.start_next(0).is_none(), "max_active = 2 holds");
        b.complete("r0");
        assert!(b.start_next(0).is_some(), "capacity freed by completion");
    }

    #[test]
    fn draining_rejects_new_work_but_keeps_old() {
        let mut b = RunBoard::new(limits(4, 100, 1));
        b.submit("r1", "a", 6, 0).unwrap();
        b.drain();
        assert_eq!(b.submit("r2", "a", 6, 1), Err(Reject::Draining));
        // Already-admitted work still schedules...
        assert_eq!(b.start_next(2).as_deref(), Some("r1"));
        // ...and attaching to it still works (a reconnecting client must
        // be able to collect results during drain).
        assert_eq!(
            b.submit("r1", "a", 6, 3).unwrap(),
            Admission::Attached {
                state: RunState::Running
            }
        );
    }

    #[test]
    fn wedge_detection_uses_injected_clock() {
        let mut b = RunBoard::new(limits(4, 100, 2));
        b.submit("r1", "a", 6, 0).unwrap();
        b.submit("r2", "a", 6, 0).unwrap();
        b.start_next(1_000);
        b.start_next(1_000);
        b.progress("r1", 1, 5_000);
        // r2 last made "progress" at its lease grant (t=1000).
        assert_eq!(b.wedged(5_500, 3_000), vec!["r2".to_string()]);
        assert!(b.wedged(5_500, 10_000).is_empty());
        b.quarantine("r2");
        assert_eq!(b.quarantined_runs(), 1);
        assert!(b.wedged(60_000, 3_000) == vec!["r1".to_string()]);
    }
}
