//! The parallel scenario-sweep engine and its crash-safe supervisor.
//!
//! Experiments submit batches of [`Scenario`]s; the engine executes them on
//! a [`bl_simcore::pool`] worker pool with these guarantees:
//!
//! * **Bit-identical to serial.** Each scenario builds its own fresh
//!   [`crate::Simulation`] from its own serialized inputs, results are
//!   reassembled in submission order, and per-scenario seeds (when derived
//!   at all — see [`seed_scenarios`]) depend only on `(base_seed, index)`.
//!   `jobs = 1` and `jobs = 64` therefore produce the same `RunResult`s.
//! * **Panic isolation.** A panicking scenario surfaces as
//!   [`SimError::ScenarioPanicked`] in its slot; sibling scenarios complete.
//! * **Budgets.** A per-scenario wall-clock deadline and/or simulated-event
//!   cap ([`SweepOptions::deadline`] / [`SweepOptions::max_events`]) is
//!   enforced cooperatively inside the event loop, so one pathological
//!   scenario cannot stall an hours-long sweep. Exhaustion surfaces as the
//!   typed [`SimError::DeadlineExceeded`] /
//!   [`SimError::EventBudgetExhausted`].
//! * **Retry & quarantine.** Runtime failures (panic, stall, budget
//!   exhaustion, invariant violation) are retried up to
//!   [`SweepOptions::retries`] times with a perturbed seed
//!   (`derive_seed(seed, attempt)`); scenarios that keep failing are
//!   *quarantined* — their slot carries the final error, the sweep
//!   completes, and [`SweepReport::degraded`] is raised instead of the
//!   whole batch dying. Configuration errors are never retried.
//! * **Crash-only journaling.** With [`SweepOptions::journal_dir`] set,
//!   every settled scenario is appended to a checksummed journal
//!   (`<journal_dir>/<batch-key>.jsonl`) as one `done` or `err` record.
//!   Each append writes only its own frame and is derived state
//!   ([`bl_simcore::durable::Class::Derived`]): never synced, because a
//!   record a power cut loses is a scenario re-simulated to the same
//!   bytes, while `SIGKILL` loses no completed write. A killed sweep
//!   re-run with [`SweepOptions::resume`] cuts the torn tail a crash
//!   mid-append may leave, replays completed scenarios from the journal
//!   bit-identically and only simulates the remainder. Whole-journal
//!   rewrites (the sharded fleet's merge) go through
//!   [`bl_simcore::journal::Journal::replace`], which is atomic.
//! * **Result caching with integrity.** With a cache directory configured,
//!   each scenario's serialized form plus the sweep's behavior-relevant
//!   options (see [`cache_key_with`]) is hashed into a key under
//!   `results/.cache/`. Entries are [`bl_simcore::durable::frame`]d (an
//!   FNV-1a checksum over the payload) and replaced atomically as derived
//!   state; corrupt, truncated or empty entries are detected, deleted and
//!   recomputed (self-healing) instead of poisoning downstream results.
//! * **Prefix sharing.** Scenarios carrying a warm-up split point (see
//!   [`Scenario::warmup`]) whose prefixes share a root are executed as a
//!   *fork group*, planned as ladders of nested prefixes: each ladder's
//!   trunk is simulated once, captured as a [`crate::SimSnapshot`] at
//!   every rung, and every member forks from its own rung instead of
//!   replaying the warm-up — bit-identical to the cold path (each member
//!   would apply its late bindings at the same instant either way). The
//!   prefix's identity (the last of its [`chain_keys`]) is hashed into
//!   every member's result key, so prefix-shared results never alias
//!   non-shared ones in the cache or journal, and a ladder whose
//!   snapshots cannot be built or forked degrades member by member to
//!   cold runs. With a snapshot store, a trunk simulated for a group is
//!   published on a scoped thread while the members fork, and joined
//!   before the group returns.
//! * **Keys, once.** A batch's result keys, snapshot-chain keys and batch
//!   key are derived together by [`KeyedBatch::new`]; every layer reads
//!   them from there.
//!
//! The typed front door is [`SweepRequest`] → [`SweepReport`];
//! [`run`] and [`run_with`] remain as the thin functional forms, and
//! [`run_cancelable`] runs a batch keyed beforehand.

use crate::result::RunResult;
use crate::scenario::Scenario;
use crate::sim::SimSnapshot;
use bl_simcore::budget::{CancelToken, RunBudget};
use bl_simcore::durable::{self, Class};
use bl_simcore::error::SimError;
use bl_simcore::journal::{fnv1a, Journal};
use bl_simcore::pool;
use bl_simcore::rng::derive_seed;
use bl_simcore::snapstore::{SnapEntry, SnapStore, SNAP_FORMAT_VERSION};
use serde::Serialize;
use serde_json::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub mod shard;

/// The cache directory the `bench` binary uses by default.
pub const DEFAULT_CACHE_DIR: &str = "results/.cache";

/// The sweep journal directory the `bench` binary uses by default.
pub const DEFAULT_JOURNAL_DIR: &str = "results/.sweep-journal";

/// The persistent snapshot store directory `repro serve` uses by
/// default.
pub const DEFAULT_SNAP_DIR: &str = "results/.snapshots";

/// Keep the global per-scenario stats list bounded: callers that loop over
/// sweeps without draining [`take_stats`] (e.g. criterion benchmarks) must
/// not grow memory without bound.
const PER_SCENARIO_CAP: usize = 4096;

/// How a sweep executes: worker count, result cache, per-scenario budgets,
/// retry policy, journaling, auditing, and multi-process sharding.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads; `0` means "available parallelism". In sharded mode
    /// (`workers > 1`) this is the thread count *inside each worker
    /// process* (`0` becomes 1 there, so `--workers N` does not
    /// oversubscribe the host N times over).
    pub jobs: usize,
    /// Result cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Per-scenario wall-clock deadline; `None` means unlimited.
    pub deadline: Option<Duration>,
    /// Per-scenario simulated-event cap; `None` means unlimited.
    pub max_events: Option<u64>,
    /// Retries after a first failed attempt (0 = fail fast). Each retry
    /// perturbs the scenario's seed with `derive_seed(seed, attempt)`.
    pub retries: u32,
    /// Forces the runtime invariant auditor on for every scenario in the
    /// batch (see [`crate::SystemConfig::with_audit`]).
    pub audit: bool,
    /// Sweep journal directory; `None` disables journaling.
    pub journal_dir: Option<PathBuf>,
    /// Replay scenarios already completed in the batch's journal instead of
    /// re-simulating them (bit-identical: the journaled `RunResult` is
    /// returned verbatim). Requires [`SweepOptions::journal_dir`].
    pub resume: bool,
    /// Worker *processes* to shard the batch across. `0` or `1` keeps the
    /// in-process engine; `> 1` leases contiguous scenario ranges to a
    /// fleet of spawned worker processes with expiring heartbeat-renewed
    /// leases (see [`shard`]). Requires [`SweepOptions::journal_dir`] and
    /// a registered [`shard::set_worker_launcher`].
    pub workers: usize,
    /// How long a leased range may go without a heartbeat before the
    /// coordinator reclaims it from its (dead or wedged) worker.
    pub lease: Duration,
    /// How often a worker heartbeats the range it is executing.
    pub heartbeat: Duration,
    /// Chaos-test hook: once the first range completes, the coordinator
    /// SIGKILLs one worker that is mid-range, proving death reclamation
    /// end to end. Never set outside robustness tests.
    pub chaos_kill_one_worker: bool,
    /// Execute scenarios sharing a warm-up prefix as fork groups (simulate
    /// the prefix once, fork per member) instead of replaying the prefix
    /// per scenario. Results are bit-identical either way — this is purely
    /// a wall-clock optimization, on by default.
    pub prefix_share: bool,
    /// Persistent snapshot store directory; `None` disables the store.
    /// With a directory set (and [`SweepOptions::prefix_share`] on), warm
    /// trunk snapshots are hydrated from disk instead of re-simulated and
    /// freshly built trunks are published back — reuse across
    /// invocations, worker processes and hosts. Hydration is guarded by
    /// the snapshot's state fingerprint, so results stay bit-identical to
    /// the cold path either way (which is why this knob, like
    /// `prefix_share`, is *not* part of the result cache key).
    pub snap_store: Option<PathBuf>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: 0,
            cache_dir: None,
            deadline: None,
            max_events: None,
            retries: 0,
            audit: false,
            journal_dir: None,
            resume: false,
            workers: 0,
            lease: Duration::from_millis(10_000),
            heartbeat: Duration::from_millis(1_000),
            chaos_kill_one_worker: false,
            prefix_share: true,
            snap_store: None,
        }
    }
}

impl SweepOptions {
    /// One worker, no cache — the reference serial path.
    pub fn serial() -> Self {
        SweepOptions {
            jobs: 1,
            ..SweepOptions::default()
        }
    }

    /// `jobs` workers, no cache.
    pub fn with_jobs(jobs: usize) -> Self {
        SweepOptions {
            jobs,
            ..SweepOptions::default()
        }
    }

    /// Enables the on-disk result cache under `dir`.
    pub fn cached(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Sets the per-scenario wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the per-scenario simulated-event cap.
    pub fn with_event_cap(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Sets how many times a failed scenario is retried with a reseed.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Forces the runtime invariant auditor on for the whole batch.
    pub fn audited(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// Enables the sweep journal under `dir`.
    pub fn journaled(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self
    }

    /// Enables resuming from the batch's journal.
    pub fn resuming(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Shards the batch across `workers` worker processes (`0`/`1` keeps
    /// the in-process engine).
    pub fn sharded(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the lease TTL for sharded mode.
    pub fn with_lease(mut self, lease: Duration) -> Self {
        self.lease = lease;
        self
    }

    /// Sets the worker heartbeat cadence for sharded mode.
    pub fn with_heartbeat(mut self, heartbeat: Duration) -> Self {
        self.heartbeat = heartbeat;
        self
    }

    /// Enables or disables warm-up prefix sharing (on by default).
    pub fn prefix_sharing(mut self, on: bool) -> Self {
        self.prefix_share = on;
        self
    }

    /// Enables the persistent snapshot store under `dir` (requires
    /// [`SweepOptions::prefix_share`], which is on by default).
    pub fn snap_stored(mut self, dir: impl Into<PathBuf>) -> Self {
        self.snap_store = Some(dir.into());
        self
    }

    fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            pool::available_jobs()
        } else {
            self.jobs
        }
    }

    /// The per-scenario execution budget these options imply.
    fn budget(&self) -> RunBudget {
        let mut b = RunBudget::unlimited();
        if let Some(d) = self.deadline {
            b = b.with_wall_limit(d);
        }
        if let Some(m) = self.max_events {
            b = b.with_max_events(m);
        }
        b
    }
}

/// Timing and cache outcome of one scenario within a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioStats {
    /// The scenario's label.
    pub label: String,
    /// Wall-clock time spent on it (cache lookup included).
    pub wall_ms: f64,
    /// Whether the result came from the cache.
    pub cache_hit: bool,
    /// Whether the result was replayed from the sweep journal.
    pub resumed: bool,
    /// Whether the result was produced by forking a shared warm-up
    /// prefix snapshot instead of a cold run.
    pub forked: bool,
    /// Execution attempts made (0 when cached or resumed, 1 for a clean
    /// first run, more when retries fired).
    pub attempts: u32,
    /// Simulator events the scenario's result reports
    /// ([`RunResult::events_processed`]); 0 when the scenario failed.
    pub events: u64,
}

/// One execution attempt of one scenario within a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct AttemptRecord {
    /// Attempt number, starting at 0.
    pub attempt: u32,
    /// The seed the attempt ran with (attempt 0 uses the scenario's own
    /// seed; retries perturb it with `derive_seed`).
    pub seed: u64,
    /// `None` on success; the error rendering otherwise.
    pub error: Option<String>,
}

/// A scenario that kept failing after every retry and was quarantined.
#[derive(Debug, Clone, Serialize)]
pub struct QuarantineRecord {
    /// The scenario's index in the submitted batch.
    pub index: usize,
    /// The scenario's label.
    pub label: String,
    /// Total attempts made before giving up.
    pub attempts: u32,
    /// The final error's rendering.
    pub error: String,
}

/// Aggregated execution statistics of one or more sweeps.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SweepStats {
    /// Scenarios executed (or served from cache / journal).
    pub scenarios: u64,
    /// Scenarios served from the cache.
    pub cache_hits: u64,
    /// Scenarios replayed from the sweep journal.
    pub resumed: u64,
    /// Scenarios whose result came from forking a shared warm-up prefix
    /// snapshot instead of a cold run.
    pub forked: u64,
    /// Extra attempts spent on retries across the batch.
    pub retries: u64,
    /// Scenarios quarantined after exhausting their retries.
    pub quarantined: u64,
    /// Simulator events summed over every successful result
    /// ([`RunResult::events_processed`]) — divide by the batch's wall
    /// time for an events/sec throughput figure.
    pub events: u64,
    /// Whether any scenario was retried or quarantined.
    pub degraded: bool,
    /// Warm-snapshot accounting: trunks simulated, forks taken, and the
    /// persistent store's hydrate/publish traffic.
    pub snapshot: SnapshotStats,
    /// Multi-process lease/reclaim accounting; `None` for in-process
    /// sweeps.
    pub shard: Option<ShardStats>,
    /// Per-scenario timing, in submission order (bounded; oldest sweeps
    /// win when the global tally overflows [`PER_SCENARIO_CAP`]).
    pub per_scenario: Vec<ScenarioStats>,
}

/// Warm-snapshot traffic of one or more sweeps: how often trunks were
/// simulated cold, how often members forked from a warm snapshot, and how
/// much the persistent store ([`SweepOptions::snap_store`]) contributed.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct SnapshotStats {
    /// Warm-up trunks simulated in-process (snapshot chains built cold).
    pub trunk_runs: u64,
    /// Scenarios whose result came from forking a warm snapshot instead
    /// of replaying the warm-up prefix.
    pub forks: u64,
    /// Snapshot rungs hydrated from the persistent store instead of
    /// re-simulated.
    pub hydrated: u64,
    /// Snapshot rungs published to the persistent store.
    pub published: u64,
    /// Wall-clock milliseconds of trunk simulation avoided by hydrating
    /// from the store (the deepest hydrated rung's recorded build time
    /// per trunk — warm-up times along one trunk are cumulative).
    pub trunk_ms_saved: f64,
}

impl SnapshotStats {
    fn merge(&mut self, other: &SnapshotStats) {
        self.trunk_runs += other.trunk_runs;
        self.forks += other.forks;
        self.hydrated += other.hydrated;
        self.published += other.published;
        self.trunk_ms_saved += other.trunk_ms_saved;
    }
}

/// What one worker process did within a sharded sweep.
#[derive(Debug, Clone, Default, Serialize)]
pub struct WorkerStats {
    /// The worker's fleet id.
    pub worker: u64,
    /// Leases the worker was granted.
    pub leases: u64,
    /// Scenarios the worker executed to completion (ranges it finished).
    pub scenarios_done: u64,
    /// Whether the worker was lost (died or was killed after wedging).
    pub lost: bool,
}

/// Fleet-level accounting of a sharded sweep: how many leases were
/// granted, reclaimed from dead or wedged workers, and re-leased — the
/// operator's view of how rough the batch was.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ShardStats {
    /// Worker processes launched.
    pub workers: u64,
    /// Ranges the batch was partitioned into.
    pub ranges: u64,
    /// Leases granted, re-grants included.
    pub leases_granted: u64,
    /// Leases reclaimed because the heartbeat deadline passed (worker
    /// wedged).
    pub reclaimed_expired: u64,
    /// Leases reclaimed because the owning worker process died.
    pub reclaimed_dead: u64,
    /// Re-grants of a previously reclaimed range to a surviving worker.
    pub releases: u64,
    /// Ranges quarantined after exhausting their lease-attempt budget.
    pub ranges_quarantined: u64,
    /// Worker processes lost over the batch (died or killed after
    /// wedging).
    pub workers_lost: u64,
    /// Per-worker breakdown, by fleet id.
    pub per_worker: Vec<WorkerStats>,
}

impl ShardStats {
    fn merge(&mut self, other: &ShardStats) {
        self.workers += other.workers;
        self.ranges += other.ranges;
        self.leases_granted += other.leases_granted;
        self.reclaimed_expired += other.reclaimed_expired;
        self.reclaimed_dead += other.reclaimed_dead;
        self.releases += other.releases;
        self.ranges_quarantined += other.ranges_quarantined;
        self.workers_lost += other.workers_lost;
        self.per_worker.extend(other.per_worker.iter().cloned());
    }
}

impl SweepStats {
    fn merge(&mut self, other: &SweepStats) {
        self.scenarios += other.scenarios;
        self.cache_hits += other.cache_hits;
        self.resumed += other.resumed;
        self.forked += other.forked;
        self.retries += other.retries;
        self.quarantined += other.quarantined;
        self.events += other.events;
        self.degraded |= other.degraded;
        self.snapshot.merge(&other.snapshot);
        if let Some(other_shard) = &other.shard {
            self.shard
                .get_or_insert_with(ShardStats::default)
                .merge(other_shard);
        }
        let room = PER_SCENARIO_CAP.saturating_sub(self.per_scenario.len());
        self.per_scenario
            .extend(other.per_scenario.iter().take(room).cloned());
    }
}

/// A fully-described sweep submission: the scenario batch plus how to run
/// it — the typed replacement for threading positional arguments through
/// [`run`]-style functions.
///
/// ```
/// use biglittle::sweep::SweepRequest;
/// use biglittle::{Scenario, SystemConfig, SweepOptions};
/// use bl_platform::ids::CpuId;
/// use bl_simcore::time::SimDuration;
///
/// let mb = |label: &str, duty: f64| {
///     Scenario::microbench(
///         label,
///         CpuId(0),
///         duty,
///         SimDuration::from_millis(10),
///         SimDuration::from_millis(50),
///         SystemConfig::baseline(),
///     )
/// };
/// let report = SweepRequest::new(vec![mb("a", 0.25), mb("b", 0.75)])
///     .options(SweepOptions::with_jobs(2))
///     .run();
/// assert_eq!(report.results.len(), 2);
/// assert!(!report.degraded);
/// ```
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// The scenarios to execute, in submission order.
    pub scenarios: Vec<Scenario>,
    /// How to execute them.
    pub options: SweepOptions,
}

impl SweepRequest {
    /// A request running `scenarios` under default [`SweepOptions`].
    pub fn new(scenarios: Vec<Scenario>) -> Self {
        SweepRequest {
            scenarios,
            options: SweepOptions::default(),
        }
    }

    /// Replaces the execution options.
    pub fn options(mut self, options: SweepOptions) -> Self {
        self.options = options;
        self
    }

    /// Overwrites every scenario's seed with the canonical positional
    /// derivation (see [`seed_scenarios`]).
    pub fn seeded(mut self, base_seed: u64) -> Self {
        seed_scenarios(&mut self.scenarios, base_seed);
        self
    }

    /// Executes the batch and returns the full report. Statistics are also
    /// merged into the global tally read by [`take_stats`].
    pub fn run(&self) -> SweepReport {
        run_with(&self.scenarios, &self.options)
    }
}

/// Results and statistics of one sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-scenario results, in submission order.
    pub results: Vec<Result<RunResult, SimError>>,
    /// Whether the sweep needed retries or quarantined scenarios — it
    /// completed, but not cleanly.
    pub degraded: bool,
    /// Scenarios that kept failing and were quarantined.
    pub quarantined: Vec<QuarantineRecord>,
    /// Per-scenario attempt histories, in submission order (empty for
    /// cached / resumed scenarios).
    pub attempts: Vec<Vec<AttemptRecord>>,
    /// Execution statistics of this sweep alone.
    pub stats: SweepStats,
}

/// Global tally across sweeps, drained by [`take_stats`] (the `bench`
/// binary reads it to report per-experiment timing without threading the
/// stats through every experiment's return type).
static TALLY: Mutex<SweepStats> = Mutex::new(SweepStats {
    scenarios: 0,
    cache_hits: 0,
    resumed: 0,
    forked: 0,
    retries: 0,
    quarantined: 0,
    events: 0,
    degraded: false,
    snapshot: SnapshotStats {
        trunk_runs: 0,
        forks: 0,
        hydrated: 0,
        published: 0,
        trunk_ms_saved: 0.0,
    },
    shard: None,
    per_scenario: Vec::new(),
});

/// Runs a batch of scenarios on `jobs` workers (`0` = available
/// parallelism) and returns per-scenario results in submission order.
///
/// ```
/// use biglittle::sweep;
/// use biglittle::{Scenario, SystemConfig};
/// use bl_platform::ids::CpuId;
/// use bl_simcore::time::SimDuration;
///
/// let mb = |label: &str, duty: f64| {
///     Scenario::microbench(
///         label,
///         CpuId(0),
///         duty,
///         SimDuration::from_millis(10),
///         SimDuration::from_millis(50),
///         SystemConfig::baseline(),
///     )
/// };
/// let results = sweep::run(vec![mb("a", 0.25), mb("b", 0.75)], 2);
/// assert!(results.iter().all(|r| r.is_ok()));
/// ```
pub fn run(scenarios: Vec<Scenario>, jobs: usize) -> Vec<Result<RunResult, SimError>> {
    run_with(&scenarios, &SweepOptions::with_jobs(jobs)).results
}

/// Runs a batch of scenarios under full [`SweepOptions`] control and
/// returns results plus execution statistics. The statistics are also
/// merged into the global tally read by [`take_stats`].
pub fn run_with(scenarios: &[Scenario], opts: &SweepOptions) -> SweepReport {
    run_batch(&KeyedBatch::new(scenarios, opts), opts, None)
}

/// Runs a batch keyed beforehand ([`KeyedBatch::new`] under the same
/// `opts`), with a cooperative cancellation token: when `cancel` trips,
/// in-flight scenarios abandon their event loops (surfacing as budget
/// errors) and not-yet-started scenarios are skipped — without
/// journaling the interruptions as scenario failures, so a later
/// [`SweepOptions::resume`] of the same batch replays only genuinely
/// completed work. This is the hook a long-lived server uses: it keys a
/// submission once to name the run, then runs it, and can quarantine a
/// wedged run without restarting the process. Cancellation applies to
/// the in-process engine; sharded sweeps (`workers > 1`) already carry
/// their own lease-expiry reclamation and ignore the token.
pub fn run_cancelable(
    batch: &KeyedBatch,
    opts: &SweepOptions,
    cancel: &CancelToken,
) -> SweepReport {
    run_batch(batch, opts, Some(cancel))
}

fn run_batch(batch: &KeyedBatch, opts: &SweepOptions, cancel: Option<&CancelToken>) -> SweepReport {
    let scenarios = &batch.scenarios;
    if opts.workers > 1 && !scenarios.is_empty() {
        let outcome = shard::run_sharded(batch, opts);
        TALLY
            .lock()
            .expect("stats tally poisoned")
            .merge(&outcome.stats);
        return outcome;
    }

    let journal = open_journal(opts, &batch.batch_key);
    let resumed_map = match (&journal, opts.resume) {
        (Some(j), true) => replay_journal(&j.lock().expect("journal poisoned")),
        _ => HashMap::new(),
    };

    let store = snap_store_for(opts);
    let snap_tally = Mutex::new(SnapshotStats::default());
    let env = ExecEnv {
        batch,
        opts,
        journal: journal.as_ref(),
        resumed: &resumed_map,
        cancel,
        store: store.as_ref(),
        snap: &snap_tally,
    };
    let indices: Vec<usize> = (0..scenarios.len()).collect();
    let raw = execute_indices(&indices, &env, opts.effective_jobs());

    let mut results = Vec::with_capacity(scenarios.len());
    let mut attempts = Vec::with_capacity(scenarios.len());
    let mut quarantined = Vec::new();
    let mut stats = SweepStats::default();
    for (index, sup) in raw.into_iter().enumerate() {
        stats.scenarios += 1;
        stats.cache_hits += u64::from(sup.cache_hit);
        stats.resumed += u64::from(sup.resumed);
        stats.forked += u64::from(sup.forked);
        stats.retries += sup.attempts.len().saturating_sub(1) as u64;
        let events = sup.result.as_ref().map_or(0, |r| r.events_processed);
        stats.events += events;
        if let Err(e) = &sup.result {
            stats.quarantined += 1;
            quarantined.push(QuarantineRecord {
                index,
                label: scenarios[index].label.clone(),
                attempts: sup.attempts.len() as u32,
                error: e.to_string(),
            });
        }
        if stats.per_scenario.len() < PER_SCENARIO_CAP {
            stats.per_scenario.push(ScenarioStats {
                label: scenarios[index].label.clone(),
                wall_ms: sup.wall_ms,
                cache_hit: sup.cache_hit,
                resumed: sup.resumed,
                forked: sup.forked,
                attempts: sup.attempts.len() as u32,
                events,
            });
        }
        results.push(sup.result);
        attempts.push(sup.attempts);
    }
    stats.degraded = stats.quarantined > 0 || stats.retries > 0;
    stats.snapshot = *snap_tally.lock().expect("snapshot tally poisoned");
    TALLY.lock().expect("stats tally poisoned").merge(&stats);
    SweepReport {
        results,
        degraded: stats.degraded,
        quarantined,
        attempts,
        stats,
    }
}

/// What the supervisor learned about one scenario.
pub(crate) struct Supervised {
    pub(crate) result: Result<RunResult, SimError>,
    pub(crate) cache_hit: bool,
    pub(crate) resumed: bool,
    pub(crate) forked: bool,
    pub(crate) attempts: Vec<AttemptRecord>,
    pub(crate) wall_ms: f64,
}

impl Supervised {
    fn escaped(index: usize, label: String, detail: String) -> Self {
        Supervised {
            result: Err(SimError::ScenarioPanicked {
                index,
                label,
                detail,
            }),
            cache_hit: false,
            resumed: false,
            forked: false,
            attempts: Vec::new(),
            wall_ms: 0.0,
        }
    }
}

/// Everything the supervisor needs: the keyed batch (which also counts
/// what its runs settle), options, the batch journal, resume knowledge,
/// and the cancellation token — the caller's, or inside a sharded worker
/// process the one that trips when the coordinator dies.
pub(crate) struct ExecEnv<'a> {
    pub(crate) batch: &'a KeyedBatch,
    pub(crate) opts: &'a SweepOptions,
    pub(crate) journal: Option<&'a Mutex<Journal>>,
    pub(crate) resumed: &'a HashMap<String, RunResult>,
    pub(crate) cancel: Option<&'a CancelToken>,
    /// The persistent snapshot store, when [`SweepOptions::snap_store`]
    /// names one and prefix sharing is on. `SnapStore` synchronizes
    /// internally, so worker threads share the reference directly.
    pub(crate) store: Option<&'a SnapStore>,
    /// Where the engine accumulates warm-snapshot traffic for this
    /// sweep (or this worker process's slice of it).
    pub(crate) snap: &'a Mutex<SnapshotStats>,
}

/// Supervises scenario `index` of the env's batch: journal replay, cache
/// lookup, then up to `1 + retries` budgeted attempts with reseeding,
/// journaling the final result — success *or* exhausted failure — so a
/// sharded coordinator can reconstruct the full outcome from journals
/// alone. Each settled scenario is counted on the batch
/// ([`KeyedBatch::settled`]).
///
/// When the env's cancellation token trips (coordinator death), the
/// scenario is abandoned without journaling the failure and without
/// retrying: a cancellation is not evidence about the scenario, and a
/// journaled pseudo-error would poison the fleet-wide resume.
fn supervise(index: usize, env: &ExecEnv<'_>, snapshot: Option<&SimSnapshot>) -> Supervised {
    let (opts, batch) = (env.opts, env.batch);
    let (sc, key) = (&batch.scenarios[index], batch.keys[index].as_str());
    let start = Instant::now();
    if let Some(r) = env.resumed.get(key) {
        batch.settle(0);
        return Supervised {
            result: Ok(r.clone()),
            cache_hit: false,
            resumed: true,
            forked: false,
            attempts: Vec::new(),
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        };
    }
    let cache_path = opts
        .cache_dir
        .as_deref()
        .map(|d| d.join(format!("{key}.json")));
    if let Some(hit) = cache_path.as_deref().and_then(cache_read_checked) {
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        journal_append(env.journal, done_record(key, &hit, 0, true, None, wall_ms));
        batch.settle(0);
        return Supervised {
            result: Ok(hit),
            cache_hit: true,
            resumed: false,
            forked: false,
            attempts: Vec::new(),
            wall_ms,
        };
    }

    let mut budget = opts.budget();
    if let Some(token) = env.cancel {
        budget = budget.cancelled_by(token.clone());
    }
    let cancelled = || env.cancel.is_some_and(CancelToken::is_cancelled);
    let mut attempts = Vec::new();
    let mut forked;
    let result = loop {
        let attempt = attempts.len() as u32;
        let seed = if attempt == 0 {
            sc.config.seed
        } else {
            derive_seed(sc.config.seed, u64::from(attempt))
        };
        // Only the first attempt may fork: a reseeded retry no longer
        // matches the state baked into the shared prefix.
        let snap = if attempt == 0 { snapshot } else { None };
        let (outcome, used_fork) = run_attempt(index, sc, seed, &budget, snap);
        forked = used_fork;
        attempts.push(AttemptRecord {
            attempt,
            seed,
            error: outcome.as_ref().err().map(|e| e.to_string()),
        });
        match outcome {
            Ok(r) => break Ok(r),
            Err(e) => {
                let out_of_attempts = attempt >= opts.retries;
                if cancelled() || out_of_attempts || !is_retryable(&e) {
                    break Err(e);
                }
            }
        }
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    match &result {
        Ok(r) => {
            if let Some(p) = cache_path.as_deref() {
                cache_write(p, r);
            }
            let fp = forked
                .then(|| snapshot.map(SimSnapshot::fingerprint))
                .flatten();
            journal_append(
                env.journal,
                done_record(key, r, attempts.len() as u32, false, fp, wall_ms),
            );
            batch.settle(r.events_processed);
        }
        Err(e) => {
            if !cancelled() {
                journal_append(
                    env.journal,
                    err_record(key, e, attempts.len() as u32, wall_ms),
                );
                batch.settle(0);
            }
        }
    }
    Supervised {
        result,
        cache_hit: false,
        resumed: false,
        forked,
        attempts,
        wall_ms,
    }
}

/// Executes one attempt with panic isolation, overriding the seed for
/// retries. With a prefix snapshot available the attempt forks it instead
/// of replaying the warm-up; [`SimError::SnapshotUnsupported`] (the saved
/// state refused to restore) falls straight back to a cold run *within
/// the same attempt* — a fork refusal is an implementation limit, not
/// evidence about the scenario. Returns the outcome and whether the
/// result actually came from a fork.
fn run_attempt(
    index: usize,
    sc: &Scenario,
    seed: u64,
    budget: &RunBudget,
    snapshot: Option<&SimSnapshot>,
) -> (Result<RunResult, SimError>, bool) {
    let catch = |f: &dyn Fn() -> Result<RunResult, SimError>| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
            Err(SimError::ScenarioPanicked {
                index,
                label: sc.label.clone(),
                // `as_ref()`, not `&payload`: `&Box<dyn Any>` would itself
                // coerce to `&dyn Any` and hide the payload from downcasts.
                detail: pool::panic_message(payload.as_ref()),
            })
        })
    };
    if let Some(snap) = snapshot {
        match catch(&|| sc.run_forked(snap, budget)) {
            Err(SimError::SnapshotUnsupported { .. }) => {}
            outcome => return (outcome, true),
        }
    }
    let reseeded;
    let sc_ref = if seed == sc.config.seed {
        sc
    } else {
        let mut copy = sc.clone();
        copy.config.seed = seed;
        reseeded = copy;
        &reseeded
    };
    (catch(&|| sc_ref.run_with_budget(budget)), false)
}

/// Whether a reseeded retry has any chance of changing the outcome.
/// Configuration-class errors are deterministic in the scenario's inputs,
/// so retrying them only wastes a simulation run.
fn is_retryable(e: &SimError) -> bool {
    matches!(
        e,
        SimError::WatchdogStall { .. }
            | SimError::TaskLost { .. }
            | SimError::ScenarioPanicked { .. }
            | SimError::DeadlineExceeded { .. }
            | SimError::EventBudgetExhausted { .. }
            | SimError::InvariantViolated { .. }
    )
}

// ---- prefix sharing --------------------------------------------------------

/// The keys of `sc`'s snapshot chain, root first: one per stop instant of
/// [`Scenario::chain_points`], each a 16-hex-digit FNV-1a hash over the
/// serialized prefix scenario truncated at that level
/// ([`Scenario::prefix_scenario_at`]), the instant and the crate version.
/// Empty without a warm-up point. Two scenarios may share the snapshot of
/// a level exactly when their keys there are equal, so a chain extends
/// another exactly when its keys do. The keys are computable before any
/// prefix runs, which caching, resume and sharding require; a prefix is
/// deterministic in its serialized form, so a snapshot's fingerprint is
/// already a function of its key.
pub fn chain_keys(sc: &Scenario) -> Vec<String> {
    sc.chain_points()
        .into_iter()
        .enumerate()
        .map(|(level, at)| {
            let prefix = sc.prefix_scenario_at(level);
            #[cfg(test)]
            tests::count_serialization(&prefix, true);
            let json =
                serde_json::to_string(&prefix).expect("scenario serialization is infallible");
            let mut data = json.into_bytes();
            data.push(0);
            data.extend_from_slice(&at.as_nanos().to_le_bytes());
            data.push(0);
            data.extend_from_slice(env!("CARGO_PKG_VERSION").as_bytes());
            format!("{:016x}", fnv1a(&data))
        })
        .collect()
}

/// Partitions scenario indices into fork groups, submission order kept
/// within each: scenarios whose chains share a root key
/// ([`KeyedBatch::chain`]) form one group, and a scenario without a
/// warm-up point — or any scenario when prefix sharing is off — is a
/// group of one.
fn plan_groups(indices: &[usize], batch: &KeyedBatch, opts: &SweepOptions) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::with_capacity(indices.len());
    let mut group_at: HashMap<&str, usize> = HashMap::new();
    for &i in indices {
        let root = batch.chain(i).first().filter(|_| opts.prefix_share);
        match root.and_then(|r| group_at.get(r.as_str())) {
            Some(&g) => groups[g].push(i),
            None => {
                if let Some(r) = root {
                    group_at.insert(r, groups.len());
                }
                groups.push(vec![i]);
            }
        }
    }
    groups
}

/// Executes a set of scenario indices — the shared engine behind the
/// in-process sweep and a sharded worker's leased range. Returns one
/// [`Supervised`] per index, in `indices` order; a group-level panic (or
/// a cancellation before start) lands in every member's slot as a typed
/// error.
pub(crate) fn execute_indices(
    indices: &[usize],
    env: &ExecEnv<'_>,
    jobs: usize,
) -> Vec<Supervised> {
    let batch = env.batch;
    let groups = plan_groups(indices, batch, env.opts);
    let fresh = CancelToken::new();
    let cancel = env.cancel.unwrap_or(&fresh);
    let raw = pool::scoped_map_cancelable(groups.iter().collect(), jobs, cancel, |_, members| {
        run_group(members, env)
    });
    let pos: HashMap<usize, usize> = indices.iter().enumerate().map(|(p, &i)| (i, p)).collect();
    let mut out: Vec<Option<Supervised>> = indices.iter().map(|_| None).collect();
    for (slot, members) in raw.into_iter().zip(&groups) {
        match slot {
            Ok(pairs) => {
                for (i, sup) in pairs {
                    out[pos[&i]] = Some(sup);
                }
            }
            Err(detail) => {
                // A panic escaped the supervisor itself (e.g. a cache I/O
                // path) or the group never started: every member gets the
                // error in its own slot.
                for &i in members {
                    out[pos[&i]] = Some(Supervised::escaped(
                        i,
                        batch.scenarios[i].label.clone(),
                        detail.clone(),
                    ));
                }
            }
        }
    }
    let out: Vec<Supervised> = out
        .into_iter()
        .map(|s| s.expect("every index belongs to exactly one group"))
        .collect();
    let forks = out.iter().filter(|s| s.forked).count() as u64;
    if forks > 0 {
        env.snap.lock().expect("snapshot tally poisoned").forks += forks;
    }
    out
}

/// Executes one fork group serially on the calling worker thread, as
/// ladders of nested prefixes. Members without a warm-up point, or
/// already settled by the journal or cache, run without a snapshot. The
/// pending rest are taken deepest chain first, and each joins the first
/// ladder whose trunk chain starts with its own, or else starts a new one
/// as that ladder's trunk. A ladder with two or more members, or any
/// ladder when a store is open, is built once ([`build_chain_snapshots`]):
/// its trunk's whole chain hydrated from the store, or one trunk
/// simulation that snapshots every rung. Below that a cold run is
/// strictly cheaper. Each member forks from the rung at its own depth —
/// nested prefixes fork from the same trunk, so each shared segment of a
/// ladder simulates once — and runs cold when its ladder was not built.
/// Rungs simulated here are published to the store while the members run
/// ([`publishing`]).
fn run_group(members: &[usize], env: &ExecEnv<'_>) -> Vec<(usize, Supervised)> {
    let batch = env.batch;
    let mut pending: Vec<usize> = members
        .iter()
        .copied()
        .filter(|&i| {
            let key = &batch.keys[i];
            !batch.chain(i).is_empty()
                && !env.resumed.contains_key(key)
                && !cache_entry_present(env.opts, key)
        })
        .collect();
    // Stable, so equally deep members keep submission order.
    pending.sort_by_key(|&i| std::cmp::Reverse(batch.chain(i).len()));
    let mut ladders: Vec<Vec<usize>> = Vec::new();
    for i in pending {
        let chain = batch.chain(i);
        match ladders
            .iter_mut()
            .find(|ladder| batch.chain(ladder[0]).starts_with(chain))
        {
            Some(ladder) => ladder.push(i),
            None => ladders.push(vec![i]),
        }
    }
    let built: Vec<Option<Trunk>> = ladders
        .iter()
        .map(|ladder| {
            (ladder.len() >= 2 || env.store.is_some())
                .then(|| build_chain_snapshots(ladder[0], env))
                .flatten()
        })
        .collect();
    // The ladders of a group share their root prefix's workloads, so one
    // rung that cannot serialize means none can, and the publisher may
    // stop at the first.
    let unpublished: Vec<(&str, &SimSnapshot, f64)> = ladders
        .iter()
        .zip(&built)
        .filter_map(|(ladder, trunk)| Some(trunk.as_ref()?.unpublished(batch.chain(ladder[0]))))
        .flatten()
        .collect();
    let rung = |i: usize| -> Option<&SimSnapshot> {
        let l = ladders.iter().position(|ladder| ladder.contains(&i))?;
        built[l].as_ref()?.snaps.get(batch.chain(i).len() - 1)
    };
    publishing(env, &unpublished, || {
        members
            .iter()
            .map(|&i| (i, supervise(i, env, rung(i))))
            .collect()
    })
}

/// Whether a cache entry exists for `key` (existence only — the
/// read-and-verify happens inside the supervisor; a corrupt entry merely
/// costs its group one cold run instead of a fork).
fn cache_entry_present(opts: &SweepOptions, key: &str) -> bool {
    opts.cache_dir
        .as_deref()
        .is_some_and(|d| d.join(format!("{key}.json")).is_file())
}

/// The persistent store these options imply: open only when a directory
/// is configured *and* prefix sharing is on (without fork groups there is
/// nothing to hydrate into).
pub(crate) fn snap_store_for(opts: &SweepOptions) -> Option<SnapStore> {
    if !opts.prefix_share {
        return None;
    }
    opts.snap_store.as_ref().map(SnapStore::open)
}

/// The snapshots a trunk build produced, root first, and — when they
/// were simulated here rather than hydrated from the store — each one's
/// build time, which its store entry records.
struct Trunk {
    snaps: Vec<SimSnapshot>,
    built_ms: Option<Vec<f64>>,
}

impl Trunk {
    /// What the store is owed: `(key, snapshot, build ms)` for each rung
    /// simulated here, keyed by `keys` (one per snapshot); nothing for a
    /// hydrated trunk.
    fn unpublished<'a>(&'a self, keys: &'a [String]) -> Vec<(&'a str, &'a SimSnapshot, f64)> {
        self.built_ms
            .iter()
            .flat_map(|ms| keys.iter().zip(&self.snaps).zip(ms))
            .map(|((key, snap), &ms)| (key.as_str(), snap, ms))
            .collect()
    }
}

/// Simulates a ladder's trunk — the prefix of batch scenario `trunk`, its
/// deepest member — once, capturing a snapshot at every chain rung
/// ([`Scenario::snapshot_prefix_chain`]) — unless the persistent store can
/// hydrate the *whole* chain, in which case no trunk simulation happens at
/// all. Hydration is all-or-rebuild: one missing, corrupt or
/// fingerprint-mismatched rung rebuilds (and republishes) the full chain,
/// so forks never mix rungs from different trunk executions. Any build
/// failure — typed error or panic — returns `None` and the whole ladder
/// runs cold; per-member supervision then reports whatever is actually
/// wrong with full retry/quarantine semantics.
fn build_chain_snapshots(trunk: usize, env: &ExecEnv<'_>) -> Option<Trunk> {
    let (sc, keys) = (&env.batch.scenarios[trunk], env.batch.chain(trunk));
    if let Some(store) = env.store {
        if let Some((snaps, saved_ms)) = hydrate_chain(sc, keys, store) {
            let mut tally = env.snap.lock().expect("snapshot tally poisoned");
            tally.hydrated += snaps.len() as u64;
            // Warm-up times along one trunk are cumulative, so the deepest
            // rung's recorded build time is the whole replay just avoided.
            tally.trunk_ms_saved += saved_ms;
            return Some(Trunk {
                snaps,
                built_ms: None,
            });
        }
    }
    let mut budget = env.opts.budget();
    if let Some(token) = env.cancel {
        budget = budget.cancelled_by(token.clone());
    }
    let timed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sc.snapshot_prefix_chain_timed(&budget)
    }))
    .ok()?
    .ok()?;
    env.snap.lock().expect("snapshot tally poisoned").trunk_runs += 1;
    let (snaps, built_ms) = timed.into_iter().unzip();
    Some(Trunk {
        snaps,
        built_ms: Some(built_ms),
    })
}

/// Hydrates every rung of a trunk chain from the store, returning the
/// snapshots plus the deepest rung's recorded build time. `None` — with
/// the offending entry invalidated — on any missing or unverifiable rung.
fn hydrate_chain(
    sc: &Scenario,
    keys: &[String],
    store: &SnapStore,
) -> Option<(Vec<SimSnapshot>, f64)> {
    let mut snaps = Vec::with_capacity(keys.len());
    let mut saved_ms = 0.0_f64;
    for key in keys {
        let entry = store.load(key)?;
        match hydrate_entry(sc, &entry) {
            Some(snap) => {
                saved_ms = saved_ms.max(entry.warm_ms);
                snaps.push(snap);
            }
            None => {
                store.invalidate(key);
                return None;
            }
        }
    }
    Some((snaps, saved_ms))
}

/// Rebuilds a [`SimSnapshot`] from a store entry, verifying the hydrated
/// state's fingerprint against the recorded one. A payload that panics the
/// decoder degrades to `None` like any other verification failure.
fn hydrate_entry(sc: &Scenario, entry: &SnapEntry) -> Option<SimSnapshot> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        SimSnapshot::from_payload(&sc.platform.build(), &entry.state, entry.fingerprint)
    }))
    .ok()?
    .ok()
}

/// Runs `members` while a scoped thread encodes and writes `rungs` —
/// trunk snapshots this group simulated — to the store, so the group's
/// forks do not wait on the publish. Both are done before this returns,
/// so by the time the group reports, the store holds what landed and the
/// tally counts it.
fn publishing<R>(
    env: &ExecEnv<'_>,
    rungs: &[(&str, &SimSnapshot, f64)],
    members: impl FnOnce() -> R,
) -> R {
    let Some(store) = env.store.filter(|_| !rungs.is_empty()) else {
        return members();
    };
    let (out, published) = beside(|| publish_rungs(store, rungs), members);
    env.snap.lock().expect("snapshot tally poisoned").published += published;
    out
}

/// Runs `publish` on a scoped thread and `members` on this one, and
/// returns both outcomes once both are done. A publish that panics counts
/// as nothing published: the store is an optimization, so the members'
/// results stand.
fn beside<R>(publish: impl FnOnce() -> u64 + Send, members: impl FnOnce() -> R) -> (R, u64) {
    std::thread::scope(|s| {
        let publisher = s.spawn(publish);
        let out = members();
        (out, publisher.join().unwrap_or(0))
    })
}

/// Publishes freshly built trunk rungs to the store; returns how many
/// landed. Serialization refusals (a behavior without `save_box`) and I/O
/// failures are tolerated — the in-process snapshots still fork fine, the
/// store just stays cold.
fn publish_rungs(store: &SnapStore, rungs: &[(&str, &SimSnapshot, f64)]) -> u64 {
    let mut published = 0;
    for &(key, snap, warm_ms) in rungs {
        // Deeper rungs share the shallow rungs' tasks, so the first
        // unserializable rung means the rest cannot serialize either.
        let Ok(state) = snap.to_payload() else { break };
        let entry = SnapEntry {
            version: SNAP_FORMAT_VERSION,
            key: key.to_string(),
            fingerprint: snap.fingerprint(),
            warm_ms,
            state,
        };
        if store.publish(&entry).is_ok() {
            published += 1;
        }
    }
    published
}

/// Runs a batch and unwraps every result, panicking with the failing
/// scenario's label — the convenience form for experiment code that
/// treated failures as fatal before the sweep engine existed.
pub fn run_all(scenarios: &[Scenario], opts: &SweepOptions) -> Vec<RunResult> {
    run_with(scenarios, opts)
        .results
        .into_iter()
        .zip(scenarios)
        .map(|(r, sc)| r.unwrap_or_else(|e| panic!("scenario {:?} failed: {e}", sc.label)))
        .collect()
}

/// Drains the global execution tally accumulated by every sweep since the
/// last call.
pub fn take_stats() -> SweepStats {
    std::mem::take(&mut *TALLY.lock().expect("stats tally poisoned"))
}

/// Overwrites each scenario's seed with `derive_seed(base_seed, index)` —
/// the canonical per-scenario seeding for randomized batches. Depends only
/// on position, never on execution order, so seeding commutes with any
/// `jobs` setting.
pub fn seed_scenarios(scenarios: &mut [Scenario], base_seed: u64) {
    for (i, sc) in scenarios.iter_mut().enumerate() {
        sc.config.seed = derive_seed(base_seed, i as u64);
    }
}

/// The scenario as the sweep will actually run it: batch-level option
/// overrides (currently the audit flag) folded into its config.
fn effective_scenario(sc: &Scenario, opts: &SweepOptions) -> Scenario {
    let mut sc = sc.clone();
    if opts.audit {
        sc.config.audit = true;
    }
    sc
}

/// A scenario's canonical JSON followed by the crate version: the head
/// of every result key.
fn keyed_form(sc: &Scenario) -> Vec<u8> {
    #[cfg(test)]
    tests::count_serialization(sc, false);
    let json = serde_json::to_string(sc).expect("scenario serialization is infallible");
    let mut data = json.into_bytes();
    data.push(0);
    data.extend_from_slice(env!("CARGO_PKG_VERSION").as_bytes());
    data
}

/// The cache key of a scenario: a 64-bit FNV-1a hash (16 hex digits) over
/// its canonical JSON serialization plus the crate version. The JSON form
/// covers the platform preset, full [`crate::SystemConfig`] (seed and
/// fault plan included), workloads and stop condition, so any input change
/// changes the key; the version guard invalidates the cache whenever the
/// simulator itself may have changed.
pub fn cache_key(sc: &Scenario) -> String {
    format!("{:016x}", fnv1a(&keyed_form(sc)))
}

/// [`cache_key`] extended with the sweep options' behavior-relevant
/// feature set, so results computed under different supervision features
/// (today: the audit override) never alias in the cache, plus — for
/// scenarios with a warm-up split point — the identity of the shared
/// prefix (the last of its [`chain_keys`]), tying every such result to the
/// exact prefix a fork would share. Options that cannot change simulated
/// results — jobs, deadlines, retries, journaling, and notably
/// [`SweepOptions::prefix_share`] itself (forked and cold runs are
/// bit-identical) — deliberately do *not* enter the key.
pub fn cache_key_with(sc: &Scenario, opts: &SweepOptions) -> String {
    result_key(sc, opts, chain_keys(sc).last().map(String::as_str))
}

/// [`cache_key_with`] of `sc`, given its prefix key (the last of its
/// chain keys) when it has a warm-up point.
fn result_key(sc: &Scenario, opts: &SweepOptions, prefix: Option<&str>) -> String {
    let mut data = keyed_form(sc);
    data.push(0);
    data.extend_from_slice(format!("features:audit={}", opts.audit).as_bytes());
    if let Some(prefix) = prefix {
        data.push(0);
        data.extend_from_slice(format!("prefix:{prefix}").as_bytes());
    }
    format!("{:016x}", fnv1a(&data))
}

/// The batch key identifying a submitted batch in the journal directory:
/// an FNV-1a hash over every scenario's cache key in submission order.
pub fn batch_key(keys: &[String]) -> String {
    let mut data = Vec::new();
    for k in keys {
        data.extend_from_slice(k.as_bytes());
        data.push(b'\n');
    }
    format!("{:016x}", fnv1a(&data))
}

/// The batch key [`run_with`] will derive for `scenarios` under `opts` —
/// and therefore the name of the batch's journal file
/// (`<journal_dir>/<key>.jsonl`). The same scenarios under the same
/// options always map to the same key, so a resubmitted batch is
/// recognized and its journal adopted. A caller that goes on to run the
/// batch keys it once with [`KeyedBatch::new`] instead.
pub fn batch_key_for(scenarios: &[Scenario], opts: &SweepOptions) -> String {
    KeyedBatch::new(scenarios, opts).batch_key
}

/// A batch keyed once: each scenario in the form the engine runs it
/// (batch-level option overrides folded in), its result key
/// ([`cache_key_with`]), the keys of its snapshot chain
/// ([`chain_keys`], root first) and the batch key naming its
/// journal ([`batch_key`]). The planner, the snapshot store, the journal
/// and the shard fleet all read their keys from it, so keying serializes
/// each scenario and each chain prefix once. Long-lived front ends (the
/// serve daemon) build it at admission, name the run by
/// [`KeyedBatch::batch_key`] before running anything, and hand the same
/// value to [`run_cancelable`].
///
/// In-process runs of the batch count on it, in memory, the scenarios they
/// settle and the events they simulate ([`KeyedBatch::settled`],
/// [`KeyedBatch::events_simulated`]), so a caller that shares it with the
/// thread running it can follow the run's progress.
///
/// Keys depend on the [`SweepOptions`] a batch is keyed under (through
/// [`SweepOptions::audit`]), so it must run under the same options.
#[derive(Debug)]
pub struct KeyedBatch {
    scenarios: Vec<Scenario>,
    keys: Vec<String>,
    chains: Vec<Vec<String>>,
    batch_key: String,
    settled: AtomicU64,
    events: AtomicU64,
}

impl KeyedBatch {
    /// Keys `scenarios` as a sweep under `opts` runs them.
    pub fn new(scenarios: &[Scenario], opts: &SweepOptions) -> KeyedBatch {
        let scenarios: Vec<Scenario> = scenarios
            .iter()
            .map(|sc| effective_scenario(sc, opts))
            .collect();
        let chains: Vec<Vec<String>> = scenarios.iter().map(chain_keys).collect();
        let keys: Vec<String> = scenarios
            .iter()
            .zip(&chains)
            .map(|(sc, chain)| result_key(sc, opts, chain.last().map(String::as_str)))
            .collect();
        let batch_key = batch_key(&keys);
        KeyedBatch {
            scenarios,
            keys,
            chains,
            batch_key,
            settled: AtomicU64::new(0),
            events: AtomicU64::new(0),
        }
    }

    /// The scenarios as the engine runs them, in submission order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Each scenario's result key, in submission order.
    pub fn keys(&self) -> &[String] {
        &self.keys
    }

    /// The keys of scenario `i`'s snapshot chain, root first; empty
    /// without a warm-up point.
    ///
    /// # Panics
    ///
    /// Panics when `i` is not a scenario index of the batch.
    pub fn chain(&self, i: usize) -> &[String] {
        &self.chains[i]
    }

    /// The batch key: the run's name and its journal's file stem.
    pub fn batch_key(&self) -> &str {
        &self.batch_key
    }

    /// Scenarios the batch's in-process runs have settled so far: each one
    /// replayed from the journal, read from the cache, simulated, or failed
    /// for good. A scenario a cancellation interrupted is not settled, and
    /// sharded runs settle theirs in worker processes, uncounted here.
    pub fn settled(&self) -> u64 {
        self.settled.load(Ordering::Relaxed)
    }

    /// Simulator events of the results the batch's in-process runs have
    /// simulated so far ([`RunResult::events_processed`]). A result
    /// replayed from the journal or read from the cache simulated nothing
    /// and adds nothing.
    pub fn events_simulated(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Counts one settled scenario that simulated `events`.
    fn settle(&self, events: u64) {
        self.settled.fetch_add(1, Ordering::Relaxed);
        self.events.fetch_add(events, Ordering::Relaxed);
    }
}

// ---- journal ---------------------------------------------------------------

/// Opens the batch's journal, `<journal_dir>/<batch_key>.jsonl`, when
/// journaling is configured. Open failures degrade to "no journal": the
/// sweep itself must never die on supervision I/O.
fn open_journal(opts: &SweepOptions, batch_key: &str) -> Option<Mutex<Journal>> {
    let dir = opts.journal_dir.as_deref()?;
    let path = dir.join(format!("{batch_key}.jsonl"));
    Journal::open(path, opts.resume).ok().map(Mutex::new)
}

/// Collects the journal's completed scenarios as `cache key → result`.
fn replay_journal(journal: &Journal) -> HashMap<String, RunResult> {
    collect_entries(journal.records(), false)
        .into_iter()
        .filter_map(|(k, e)| e.result.ok().map(|r| (k, r)))
        .collect()
}

/// One scenario's final journal record, recovered for replay or merging.
pub(crate) struct JournalEntry {
    /// The raw payload line, re-appendable verbatim into a merged journal.
    pub(crate) raw: String,
    /// The recovered outcome (`err` records round-trip the typed error).
    pub(crate) result: Result<RunResult, SimError>,
    /// Execution attempts the record reports (0 for cached results and
    /// for records written before the field existed).
    pub(crate) attempts: u32,
    /// Whether the result came from the on-disk result cache.
    pub(crate) cache_hit: bool,
    /// Whether the result was produced by forking a prefix snapshot (the
    /// record carries the snapshot's fingerprint).
    pub(crate) forked: bool,
    /// Wall-clock milliseconds the record reports.
    pub(crate) wall_ms: f64,
}

/// Folds journal payload lines into `cache key → final record`. `done`
/// records always beat `err` records for the same key (a range re-leased
/// after a partial failure may carry both); among records of the same
/// kind, the latest wins. `err` records are only surfaced at all when
/// `include_errors` is set — single-process resume deliberately re-runs
/// failed scenarios instead of replaying their failures.
pub(crate) fn collect_entries(
    lines: &[String],
    include_errors: bool,
) -> HashMap<String, JournalEntry> {
    let mut map: HashMap<String, JournalEntry> = HashMap::new();
    for line in lines {
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        let Some(key) = v.get("key").and_then(Value::as_str) else {
            continue;
        };
        let attempts = v.get("attempts").and_then(Value::as_u64).unwrap_or(0) as u32;
        let cache_hit = matches!(v.get("cache"), Some(Value::Bool(true)));
        let forked = v.get("snapshot").is_some();
        let wall_ms = v.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0);
        let result = match v.get("ev").and_then(Value::as_str) {
            Some("done") => {
                let Some(r) = v
                    .get("result")
                    .and_then(|r| serde_json::from_value::<RunResult>(r.clone()).ok())
                else {
                    continue;
                };
                Ok(r)
            }
            Some("err") if include_errors => {
                let Some(e) = v
                    .get("error")
                    .and_then(|e| serde_json::from_value::<SimError>(e.clone()).ok())
                else {
                    continue;
                };
                Err(e)
            }
            _ => continue,
        };
        let supersedes = match map.get(key) {
            // A recovered success is never displaced by a failure record.
            Some(old) => !(old.result.is_ok() && result.is_err()),
            None => true,
        };
        if supersedes {
            map.insert(
                key.to_string(),
                JournalEntry {
                    raw: line.clone(),
                    result,
                    attempts,
                    cache_hit,
                    forked,
                    wall_ms,
                },
            );
        }
    }
    map
}

/// Renders a worker's warm-snapshot tally as a journal record
/// (`"ev":"snapstats"`), so a sharded coordinator can assemble fleet-wide
/// snapshot statistics from journals alone.
pub(crate) fn snapstats_record(s: &SnapshotStats) -> String {
    let mut fields = vec![("ev".to_string(), Value::String("snapstats".to_string()))];
    if let Ok(Value::Object(rest)) = serde_json::to_value(*s) {
        fields.extend(rest);
    }
    serde_json::to_string(&Value::Object(fields)).unwrap_or_default()
}

/// Sums every `"ev":"snapstats"` record in a journal line set — the
/// coordinator-side inverse of [`snapstats_record`].
pub(crate) fn collect_snapstats(lines: &[String]) -> SnapshotStats {
    let mut s = SnapshotStats::default();
    for line in lines {
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        if v.get("ev").and_then(Value::as_str) != Some("snapstats") {
            continue;
        }
        s.trunk_runs += v.get("trunk_runs").and_then(Value::as_u64).unwrap_or(0);
        s.forks += v.get("forks").and_then(Value::as_u64).unwrap_or(0);
        s.hydrated += v.get("hydrated").and_then(Value::as_u64).unwrap_or(0);
        s.published += v.get("published").and_then(Value::as_u64).unwrap_or(0);
        s.trunk_ms_saved += v
            .get("trunk_ms_saved")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
    }
    s
}

fn journal_append(journal: Option<&Mutex<Journal>>, payload: String) {
    if let Some(j) = journal {
        if let Ok(mut j) = j.lock() {
            // Journal failures are tolerated: supervision I/O must never
            // kill the sweep it protects.
            let _ = j.append_all(Class::Derived, &[payload]);
        }
    }
}

fn done_record(
    key: &str,
    result: &RunResult,
    attempts: u32,
    cache: bool,
    snapshot: Option<u64>,
    wall_ms: f64,
) -> String {
    let mut fields = vec![
        ("ev".to_string(), Value::String("done".to_string())),
        ("key".to_string(), Value::String(key.to_string())),
        ("attempts".to_string(), Value::UInt(u64::from(attempts))),
        ("cache".to_string(), Value::Bool(cache)),
        ("wall_ms".to_string(), Value::Float(wall_ms)),
    ];
    // The fork's source-state digest rides along for post-hoc divergence
    // audits; replay ignores it.
    if let Some(fp) = snapshot {
        fields.push(("snapshot".to_string(), Value::String(format!("{fp:016x}"))));
    }
    fields.push((
        "result".to_string(),
        serde_json::to_value(result).expect("result serialization is infallible"),
    ));
    let v = Value::Object(fields);
    serde_json::to_string(&v).expect("journal record serialization is infallible")
}

/// The journal record of a scenario that exhausted its retries: the typed
/// error rides along so a sharded coordinator can reconstruct the exact
/// failure from journals alone.
fn err_record(key: &str, error: &SimError, attempts: u32, wall_ms: f64) -> String {
    let v = Value::Object(vec![
        ("ev".to_string(), Value::String("err".to_string())),
        ("key".to_string(), Value::String(key.to_string())),
        ("attempts".to_string(), Value::UInt(u64::from(attempts))),
        ("wall_ms".to_string(), Value::Float(wall_ms)),
        (
            "error".to_string(),
            serde_json::to_value(error).expect("error serialization is infallible"),
        ),
    ]);
    serde_json::to_string(&v).expect("journal record serialization is infallible")
}

// ---- cache -----------------------------------------------------------------

/// Reads a cached result, verifying its integrity checksum. An entry is
/// one [`durable::frame`]d line holding the result JSON; a missing file is
/// a plain miss, while a corrupt, truncated or legacy-format entry (the
/// older `<sum>\n<payload>\n` framing included) is deleted on sight
/// (self-healing) and recomputed by the caller. An entry path occupied by
/// a directory is tolerated as a miss.
fn cache_read_checked(path: &Path) -> Option<RunResult> {
    let bytes = std::fs::read(path).ok()?;
    let parsed = std::str::from_utf8(&bytes)
        .ok()
        .and_then(durable::unframe)
        .and_then(|payload| serde_json::from_str::<RunResult>(payload).ok());
    if parsed.is_none() {
        // The file exists but does not verify: heal by deleting it so the
        // recomputed entry replaces it.
        let _ = std::fs::remove_file(path);
    }
    parsed
}

/// Writes a framed result entry through [`durable::replace`], so
/// concurrent readers never observe a partial entry. The entry is derived
/// state: a power cut may lose it, and the next reader recomputes it.
/// Failures are ignored — including the cache path being occupied by a
/// directory or the cache directory by a regular file — because the
/// cache is an optimization, never a correctness dependency.
fn cache_write(path: &Path, result: &RunResult) {
    let Some(dir) = path.parent() else { return };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let Ok(json) = serde_json::to_string(result) else {
        return;
    };
    let _ = durable::replace(Class::Derived, path, durable::frame(&json).as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use bl_platform::ids::CpuId;
    use bl_simcore::time::SimDuration;
    use std::collections::BTreeMap;

    /// Serializations made for keys, per scenario seed: `[scenarios,
    /// prefixes]`. Tallied by seed so tests running in parallel each see
    /// only their own batches.
    static SERIALIZED: Mutex<BTreeMap<u64, [u64; 2]>> = Mutex::new(BTreeMap::new());

    pub(super) fn count_serialization(sc: &Scenario, prefix: bool) {
        let mut tally = SERIALIZED.lock().expect("serialization tally poisoned");
        tally.entry(sc.config.seed).or_default()[usize::from(prefix)] += 1;
    }

    fn serialized(seed: u64) -> [u64; 2] {
        let tally = SERIALIZED.lock().expect("serialization tally poisoned");
        tally.get(&seed).copied().unwrap_or_default()
    }

    fn mb(label: &str, duty: f64) -> Scenario {
        Scenario::microbench(
            label,
            CpuId(0),
            duty,
            SimDuration::from_millis(10),
            SimDuration::from_millis(50),
            SystemConfig::baseline(),
        )
    }

    fn temp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bl-sweep-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn cache_key_is_stable_and_input_sensitive() {
        let a = mb("a", 0.25);
        assert_eq!(cache_key(&a), cache_key(&a.clone()));
        // Any input change — even just the seed — changes the key.
        let mut b = a.clone();
        b.config.seed ^= 1;
        assert_ne!(cache_key(&a), cache_key(&b));
        // The label is part of the spec too (it is serialized).
        let c = mb("c", 0.25);
        assert_ne!(cache_key(&a), cache_key(&c));
    }

    #[test]
    fn cache_key_is_sensitive_to_option_features() {
        let sc = mb("a", 0.25);
        let plain = cache_key_with(&sc, &SweepOptions::default());
        let audited = cache_key_with(&sc, &SweepOptions::default().audited(true));
        assert_ne!(plain, audited, "the audit override must change the key");
        // Options that cannot change simulated results do not.
        let budgeted = cache_key_with(
            &sc,
            &SweepOptions::with_jobs(7)
                .with_deadline(Duration::from_secs(1))
                .with_retries(3),
        );
        assert_eq!(plain, budgeted);
        // The config's own feature flags enter through the serialized form.
        let mut no_skip = sc.clone();
        no_skip.config.skip_ahead = false;
        assert_ne!(plain, cache_key_with(&no_skip, &SweepOptions::default()));
    }

    #[test]
    fn seed_scenarios_is_positional() {
        let mut batch = vec![mb("a", 0.2), mb("b", 0.4), mb("c", 0.6)];
        seed_scenarios(&mut batch, 99);
        let seeds: Vec<u64> = batch.iter().map(|s| s.config.seed).collect();
        assert_eq!(seeds[0], derive_seed(99, 0));
        assert_eq!(seeds[1], derive_seed(99, 1));
        assert_eq!(seeds[2], derive_seed(99, 2));
        assert_eq!(
            seeds.iter().collect::<std::collections::HashSet<_>>().len(),
            3
        );
    }

    #[test]
    fn run_all_preserves_order() {
        let batch = vec![mb("d10", 0.1), mb("d50", 0.5), mb("d90", 0.9)];
        let out = run_all(&batch, &SweepOptions::with_jobs(3));
        assert_eq!(out.len(), 3);
        // Higher duty on the same pinned CPU burns more power.
        assert!(out[0].avg_power_mw < out[1].avg_power_mw);
        assert!(out[1].avg_power_mw < out[2].avg_power_mw);
    }

    #[test]
    fn panicking_scenario_is_retried_then_quarantined() {
        // duty = 2.0 violates MicroBench's input contract and panics at
        // spawn time on every attempt — a data-driven always-failing
        // scenario.
        let batch = vec![mb("ok", 0.3), mb("panics", 2.0)];
        let out = run_with(&batch, &SweepOptions::serial().with_retries(2));
        assert!(out.results[0].is_ok());
        assert!(matches!(
            out.results[1],
            Err(SimError::ScenarioPanicked { .. })
        ));
        assert!(out.degraded);
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].label, "panics");
        assert_eq!(out.quarantined[0].attempts, 3, "1 attempt + 2 retries");
        assert_eq!(out.attempts[1].len(), 3);
        // Retries perturbed the seed.
        assert_ne!(out.attempts[1][0].seed, out.attempts[1][1].seed);
        assert_eq!(out.stats.retries, 2);
        assert_eq!(out.stats.quarantined, 1);
    }

    #[test]
    fn config_errors_are_not_retried() {
        use crate::scenario::StopWhen;
        let sc = mb("no-app", 0.5).with_stop(StopWhen::FirstAppDone);
        let out = run_with(&[sc], &SweepOptions::serial().with_retries(5));
        assert!(matches!(
            out.results[0],
            Err(SimError::InvalidConfig { .. })
        ));
        assert_eq!(out.attempts[0].len(), 1, "config errors fail fast");
        assert_eq!(out.stats.retries, 0);
    }

    #[test]
    fn event_cap_surfaces_as_typed_error() {
        let out = run_with(
            &[mb("capped", 0.5)],
            &SweepOptions::serial().with_event_cap(3),
        );
        assert!(matches!(
            out.results[0],
            Err(SimError::EventBudgetExhausted { budget: 3, .. })
        ));
    }

    #[test]
    fn corrupt_cache_entry_self_heals() {
        let dir = temp_dir("self-heal");
        let sc = mb("heal", 0.4);
        let opts = SweepOptions::serial().cached(&dir);
        let first = run_with(std::slice::from_ref(&sc), &opts);
        let clean = first.results[0].as_ref().unwrap().clone();
        let entry = dir.join(format!("{}.json", cache_key_with(&sc, &opts)));
        assert!(entry.exists());

        // Truncate the entry mid-payload: the checksum no longer verifies.
        let text = std::fs::read_to_string(&entry).unwrap();
        std::fs::write(&entry, &text[..text.len() / 2]).unwrap();
        let second = run_with(std::slice::from_ref(&sc), &opts);
        assert_eq!(second.stats.cache_hits, 0, "corrupt entry must not hit");
        assert_eq!(second.results[0].as_ref().unwrap(), &clean);
        // ... and the entry was rewritten, valid again.
        let third = run_with(std::slice::from_ref(&sc), &opts);
        assert_eq!(third.stats.cache_hits, 1);
        assert_eq!(third.results[0].as_ref().unwrap(), &clean);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_tolerates_path_type_mismatches() {
        let dir = temp_dir("mismatch");
        let sc = mb("dirclash", 0.4);
        let opts = SweepOptions::serial().cached(&dir);
        // The entry's path is occupied by a directory: read misses, write
        // fails silently, the sweep still completes.
        let entry = dir.join(format!("{}.json", cache_key_with(&sc, &opts)));
        std::fs::create_dir_all(&entry).unwrap();
        let out = run_with(std::slice::from_ref(&sc), &opts);
        assert!(out.results[0].is_ok());
        let _ = std::fs::remove_dir_all(&dir);

        // The cache dir itself is a regular file: caching is skipped.
        let file_dir =
            std::env::temp_dir().join(format!("bl-sweep-{}-cache-is-a-file", std::process::id()));
        let _ = std::fs::remove_dir_all(&file_dir);
        let _ = std::fs::remove_file(&file_dir);
        std::fs::write(&file_dir, b"not a directory").unwrap();
        let out = run_with(
            std::slice::from_ref(&sc),
            &SweepOptions::serial().cached(&file_dir),
        );
        assert!(out.results[0].is_ok());
        let _ = std::fs::remove_file(&file_dir);
    }

    /// Every truncation of `clean`, then every copy of it with one byte
    /// XORed with `0x01`.
    fn damaged(clean: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        let truncations = (0..clean.len()).map(|n| clean[..n].to_vec());
        let flips = (0..clean.len()).map(|i| {
            let mut bytes = clean.to_vec();
            bytes[i] ^= 0x01;
            bytes
        });
        truncations.chain(flips)
    }

    #[test]
    fn framed_readers_survive_every_truncation_and_bit_flip() {
        let dir = temp_dir("corruption-sweep");

        // Non-ASCII payloads, so some truncations split a UTF-8 sequence.
        //
        // Journal: the damaged line is dropped (with the next one when its
        // newline is the flipped byte, since the two then read as one
        // line); every intact line survives.
        let records = [
            r#"{"ev":"start","label":"ΔT sweep"}"#,
            r#"{"ev":"done","i":0}"#,
            r#"{"ev":"done","i":1}"#,
        ];
        let path = dir.join("batch.jsonl");
        Journal::open(&path, false)
            .unwrap()
            .append_all(Class::Derived, &records)
            .unwrap();
        let clean = std::fs::read(&path).unwrap();
        let newlines: Vec<usize> = (0..clean.len()).filter(|&i| clean[i] == b'\n').collect();
        assert_eq!(newlines.len(), records.len());
        let kept = |keep: &dyn Fn(usize) -> bool| -> Vec<String> {
            (0..records.len())
                .filter(|&l| keep(l))
                .map(|l| records[l].to_string())
                .collect()
        };
        for n in 0..clean.len() {
            std::fs::write(&path, &clean[..n]).unwrap();
            let want = kept(&|l| newlines[l] <= n);
            assert_eq!(
                Journal::load(&path).unwrap(),
                want,
                "truncated to {n} bytes"
            );
        }
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            let line = newlines.iter().position(|&e| i <= e).unwrap();
            let last_lost = if clean[i] == b'\n' { line + 1 } else { line };
            let want = kept(&|l| l < line || l > last_lost);
            assert_eq!(Journal::load(&path).unwrap(), want, "byte {i} flipped");
        }

        // A `.snap` entry and a cache entry: the original record when only
        // the trailing newline is gone, otherwise a miss that deletes the
        // file.
        let store_dir = dir.join("snapshots");
        let entry = SnapEntry {
            version: SNAP_FORMAT_VERSION,
            key: "00000000c0ffee00".to_string(),
            fingerprint: 7,
            warm_ms: 1.5,
            state: serde_json::to_value("ΔT warm-up").unwrap(),
        };
        SnapStore::open(&store_dir).publish(&entry).unwrap();
        let path = store_dir.join("00000000c0ffee00.snap");
        let clean = std::fs::read(&path).unwrap();
        for bytes in damaged(&clean) {
            std::fs::write(&path, &bytes).unwrap();
            let got = SnapStore::with_capacity(&store_dir, 0).load(&entry.key);
            if clean.strip_suffix(b"\n") == Some(&bytes[..]) {
                assert_eq!(got.as_ref(), Some(&entry));
            } else {
                assert_eq!(got, None, "damaged entry {bytes:?} loaded");
                assert!(!path.exists(), "damaged entry was not deleted");
            }
        }

        let sc = mb("ΔT corrupt", 0.4);
        let opts = SweepOptions::serial().cached(dir.join("cache"));
        let result = run_with(std::slice::from_ref(&sc), &opts).results[0]
            .clone()
            .unwrap();
        let path = dir
            .join("cache")
            .join(format!("{}.json", cache_key_with(&sc, &opts)));
        let clean = std::fs::read(&path).unwrap();
        for bytes in damaged(&clean) {
            std::fs::write(&path, &bytes).unwrap();
            let got = cache_read_checked(&path);
            if clean.strip_suffix(b"\n") == Some(&bytes[..]) {
                assert_eq!(got.as_ref(), Some(&result));
            } else {
                assert!(got.is_none(), "damaged cache entry loaded");
                assert!(!path.exists(), "damaged cache entry was not deleted");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A microbench warmed up to `warmup` ms through the checkpoints
    /// `via` (ms); `late` picks its late bindings, which stay out of its
    /// prefix.
    fn rung(label: &str, seed: u64, via: &[u64], warmup: u64, late: usize) -> Scenario {
        use bl_governor::GovernorConfig;
        let governors = [GovernorConfig::Performance, GovernorConfig::Powersave];
        Scenario::microbench(
            label,
            CpuId(0),
            0.4,
            SimDuration::from_millis(10),
            SimDuration::from_millis(300),
            SystemConfig::baseline().with_seed(seed),
        )
        .with_warmup(SimDuration::from_millis(warmup))
        .with_warmup_via(via.iter().map(|&ms| SimDuration::from_millis(ms)).collect())
        .with_late(crate::LateBindings {
            governors: (late > 0).then(|| vec![governors[late % 2]; 2]),
            faults: bl_simcore::fault::FaultPlan::new(),
        })
    }

    /// Two rungs (100 ms, then 200 ms through 100 ms) times two bindings.
    fn two_by_two(seed: u64) -> Vec<Scenario> {
        [(&[][..], 100), (&[100][..], 200)]
            .iter()
            .enumerate()
            .flat_map(|(level, &(via, warmup))| {
                (0..2).map(move |b| rung(&format!("l{level}-b{b}"), seed, via, warmup, b))
            })
            .collect()
    }

    fn result_bytes(out: &SweepReport) -> Vec<String> {
        out.results
            .iter()
            .map(|r| serde_json::to_string(r.as_ref().expect("scenario runs")).unwrap())
            .collect()
    }

    #[test]
    fn a_keyed_batch_holds_the_keys_each_key_function_derives() {
        let mut batch = vec![mb("cold", 0.3)];
        // Flat warm-ups sharing a prefix, a ladder, and chains that branch
        // after a shared root.
        batch.extend([
            rung("flat-a", 1, &[], 100, 0),
            rung("flat-b", 1, &[], 100, 1),
        ]);
        batch.extend([
            rung("rung-0", 2, &[], 100, 0),
            rung("rung-1", 2, &[100], 200, 1),
            rung("rung-2", 2, &[100, 200], 250, 2),
        ]);
        batch.extend([
            rung("branch-a", 3, &[100], 200, 0),
            rung("branch-b", 3, &[100], 250, 1),
        ]);
        let plain = SweepOptions::serial();
        let audited = SweepOptions::serial().audited(true);
        for opts in [&plain, &audited] {
            let keyed = KeyedBatch::new(&batch, opts);
            for (i, sc) in batch.iter().enumerate() {
                let effective = &keyed.scenarios()[i];
                assert_eq!(effective.config.audit, opts.audit, "#{i}");
                assert_eq!(effective.label, sc.label);
                assert_eq!(keyed.keys()[i], cache_key_with(effective, opts), "#{i}");
                let chain = chain_keys(effective);
                assert_eq!(keyed.chain(i), chain, "#{i}");
                assert_eq!(chain.len(), sc.chain_points().len(), "#{i}");
            }
            assert_eq!(keyed.batch_key(), batch_key(keyed.keys()));
        }
        // The audit override is part of every key.
        let (a, b) = (
            KeyedBatch::new(&batch, &plain),
            KeyedBatch::new(&batch, &audited),
        );
        assert!(a.keys().iter().zip(b.keys()).all(|(a, b)| a != b));
        assert_ne!(a.batch_key(), b.batch_key());
        // The ladder's rungs and the branches share their root.
        assert_eq!(a.chain(3)[0], a.chain(5)[0]);
        assert_eq!(a.chain(4), &a.chain(5)[..2]);
        assert_eq!(a.chain(6)[0], a.chain(7)[0]);
        assert_ne!(a.chain(6)[1], a.chain(7)[1]);
    }

    #[test]
    fn keying_a_two_by_two_ladder_serializes_each_scenario_and_prefix_once() {
        // A seed no other test uses: the tally is per seed.
        const SEED: u64 = 0x6b65_7965_6420_6f6e;
        let batch = two_by_two(SEED);
        let opts = SweepOptions::serial();
        let keyed = KeyedBatch::new(&batch, &opts);
        // One serialization per scenario, and one per chain level of each:
        // 1 + 1 + 2 + 2 prefixes.
        assert_eq!(serialized(SEED), [4, 6]);
        let out = run_cancelable(&keyed, &opts, &CancelToken::new());
        assert_eq!(serialized(SEED), [4, 6], "run_cancelable derives no key");
        assert_eq!(out.stats.forked, 4, "one trunk, every member forked");
        let cold = run_with(&batch, &SweepOptions::serial().prefix_sharing(false));
        assert_eq!(result_bytes(&out), result_bytes(&cold));
    }

    #[test]
    fn a_publish_that_panics_counts_as_unpublished_and_spares_the_members() {
        let (members, published) = beside(|| -> u64 { panic!("publish failed") }, || 42);
        assert_eq!((members, published), (42, 0));
    }

    #[test]
    fn the_store_holds_every_published_rung_when_the_sweep_returns() {
        let dir = temp_dir("publisher");
        // A group of one ladder, a group whose chains branch into two
        // ladders, and a group of one scenario.
        let mut batch = two_by_two(61);
        batch.extend([
            rung("branch-a", 62, &[100], 200, 0),
            rung("branch-a2", 62, &[100], 200, 1),
        ]);
        batch.extend([
            rung("branch-b", 62, &[100], 250, 0),
            rung("branch-b2", 62, &[100], 250, 1),
        ]);
        batch.push(rung("alone", 63, &[100], 200, 0));
        let reference = result_bytes(&run_with(&batch, &SweepOptions::serial()));

        // A store whose directory path is a regular file takes nothing.
        let file = dir.join("not-a-dir");
        std::fs::write(&file, b"x").unwrap();
        let out = run_with(&batch, &SweepOptions::serial().snap_stored(&file));
        assert_eq!(result_bytes(&out), reference);
        assert_eq!(out.stats.snapshot.published, 0);
        assert_eq!(out.stats.snapshot.trunk_runs, 4);

        // A working store holds every rung the sweep reports published.
        let store = dir.join("snapshots");
        let opts = SweepOptions::with_jobs(2).snap_stored(&store);
        let out = run_with(&batch, &opts);
        assert_eq!(result_bytes(&out), reference);
        // Two rungs per ladder; both branches publish their shared root.
        assert_eq!(out.stats.snapshot.published, 8);
        let keyed = KeyedBatch::new(&batch, &opts);
        for i in [0, 2, 3, 5, 7, 8] {
            for key in keyed.chain(i) {
                assert!(store.join(format!("{key}.snap")).is_file(), "#{i} {key}");
            }
        }
        assert_eq!(std::fs::read_dir(&store).unwrap().count(), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_resume_replays_completed_scenarios() {
        let dir = temp_dir("resume");
        let batch = vec![mb("j1", 0.2), mb("j2", 0.6)];
        let opts = SweepOptions::serial().journaled(&dir);
        let first = run_with(&batch, &opts);
        assert_eq!(first.stats.resumed, 0);

        let resumed = run_with(&batch, &opts.clone().resuming(true));
        assert_eq!(resumed.stats.resumed, 2, "both results replayed");
        for (a, b) in first.results.iter().zip(&resumed.results) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
        // Without --resume the journal is truncated and everything re-runs.
        let fresh = run_with(&batch, &opts);
        assert_eq!(fresh.stats.resumed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_keyed_batch_counts_what_its_runs_settle_and_simulate() {
        let dir = temp_dir("counts");
        let batch = vec![mb("n1", 0.2), mb("n2", 0.6)];
        let opts = SweepOptions::serial().journaled(&dir).resuming(true);
        let counts = |keyed: &KeyedBatch| (keyed.settled(), keyed.events_simulated());

        let fresh = KeyedBatch::new(&batch, &opts);
        let out = run_cancelable(&fresh, &opts, &CancelToken::new());
        let simulated: u64 = out
            .results
            .iter()
            .map(|r| r.as_ref().expect("scenario runs").events_processed)
            .sum();
        assert!(simulated > 0);
        assert_eq!(counts(&fresh), (2, simulated));

        // A verbatim rerun replays both from the journal: settled, but
        // nothing simulated.
        let rerun = KeyedBatch::new(&batch, &opts);
        let out = run_cancelable(&rerun, &opts, &CancelToken::new());
        assert_eq!(out.stats.resumed, 2);
        assert_eq!(counts(&rerun), (2, 0));

        // A run cancelled before it starts settles nothing, not even what
        // it could replay.
        let cancel = CancelToken::new();
        cancel.cancel();
        let cancelled = KeyedBatch::new(&batch, &opts);
        run_cancelable(&cancelled, &opts, &cancel);
        assert_eq!(counts(&cancelled), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
