//! Fault-tolerant multi-process sharding of a sweep: the coordinator /
//! worker runtime behind [`SweepOptions::workers`].
//!
//! The pure lease state machine and the wire protocol live in
//! [`bl_simcore::shard`]; this module owns everything that touches
//! processes and disks:
//!
//! * the **coordinator** ([`run_sharded`]) partitions the batch into
//!   contiguous ranges, spawns `workers` copies of the host binary in
//!   worker mode (through a caller-registered [`set_worker_launcher`]),
//!   and leases ranges to them with expiring, heartbeat-renewed leases;
//! * each **worker** ([`worker_main`]) executes its leased ranges through
//!   the exact same [`supervise`] path the in-process engine uses —
//!   cache, retries, budgets and all — appending every outcome to its own
//!   per-worker journal and heartbeating over stdout;
//! * a worker that dies (stdout EOF), wedges (lease deadline passes), or
//!   keeps poisoning a range (attempt budget spent) is killed and its
//!   range re-leased or quarantined; the batch **degrades instead of
//!   dying**;
//! * on completion — and on [`SweepOptions::resume`] startup — the
//!   coordinator **merges** every per-worker journal into the batch's
//!   merged journal (`<batch>.jsonl`), deduplicating by cache key with
//!   `done` records beating `err` records. Results are deterministic, so
//!   a range executed one-and-a-half times merges to the same bytes as a
//!   range executed once; the merged multi-process output is therefore
//!   byte-identical to a serial `jobs = 1` run, even under worker
//!   crashes, and a batch interrupted at *any* point (coordinator death
//!   included) resumes from journals alone.
//!
//! Results never travel over the pipes — only protocol lines do — so a
//! torn pipe can lose at most liveness, never data: everything a worker
//! completed is already written to its journal. Every file the fleet
//! writes is derived state ([`durable::Class::Derived`], never synced): a
//! power cut may leave any of them absent, empty or cut at a record
//! boundary, and `--resume` re-runs whatever was lost to the same bytes.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use bl_simcore::budget::CancelToken;
use bl_simcore::durable::{self, Class};
use bl_simcore::error::SimError;
use bl_simcore::journal::{self, Journal};
use bl_simcore::shard::{partition, FromWorker, LeaseBoard, RangeId, ToWorker, WorkerId};
use serde_json::Value;

use super::{
    collect_entries, collect_snapstats, execute_indices, snap_store_for, snapstats_record, ExecEnv,
    JournalEntry, KeyedBatch, QuarantineRecord, ScenarioStats, ShardStats, SnapshotStats,
    SweepOptions, SweepReport, SweepStats, WorkerStats, PER_SCENARIO_CAP,
};
use crate::result::RunResult;
use crate::scenario::Scenario;

/// Test hook: a worker whose fleet id equals this variable's value wedges
/// on its first lease — alive but silent — to exercise lease expiry.
pub const WEDGE_ENV: &str = "BL_SHARD_TEST_WEDGE_WORKER";

/// Lease grants per range before the coordinator quarantines it — the
/// process-level twin of [`SweepOptions::retries`]: a range whose workers
/// keep dying degrades the batch instead of killing it.
const RANGE_ATTEMPTS: u32 = 3;

/// Everything a worker process needs to join a fleet.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// The worker's fleet id (`0..workers`).
    pub worker: WorkerId,
    /// The coordinator incarnation's nonce (its pid), namespacing this
    /// fleet's per-worker journals against earlier, killed fleets.
    pub nonce: u64,
    /// Path of the serialized batch the worker loads its scenarios from.
    pub batch_file: PathBuf,
    /// The shared journal directory.
    pub journal_dir: PathBuf,
    /// The sweep options the worker supervises under (audit, retries,
    /// budgets, cache, heartbeat cadence).
    pub opts: SweepOptions,
}

type Launcher = Box<dyn Fn(&WorkerSpec) -> Command + Send + Sync>;

static LAUNCHER: OnceLock<Launcher> = OnceLock::new();

/// Registers the closure that turns a [`WorkerSpec`] into a spawnable
/// [`Command`]. The host binary registers itself here (typically
/// `Command::new(current_exe)` plus [`worker_cli_args`]) before running
/// sharded sweeps; later registrations are ignored.
pub fn set_worker_launcher(f: impl Fn(&WorkerSpec) -> Command + Send + Sync + 'static) {
    let _ = LAUNCHER.set(Box::new(f));
}

/// The canonical CLI encoding of a [`WorkerSpec`], parsed back by
/// [`worker_main`]. Hosts that re-exec themselves can pass this verbatim.
pub fn worker_cli_args(spec: &WorkerSpec) -> Vec<String> {
    let mut args = vec![
        "--worker".to_string(),
        "--fleet-id".to_string(),
        spec.worker.to_string(),
        "--nonce".to_string(),
        spec.nonce.to_string(),
        "--batch".to_string(),
        spec.batch_file.display().to_string(),
        "--journal-dir".to_string(),
        spec.journal_dir.display().to_string(),
        "--heartbeat-ms".to_string(),
        spec.opts.heartbeat.as_millis().to_string(),
        "--jobs".to_string(),
        spec.opts.jobs.to_string(),
        "--retries".to_string(),
        spec.opts.retries.to_string(),
    ];
    if spec.opts.audit {
        args.push("--audit".to_string());
    }
    if !spec.opts.prefix_share {
        args.push("--no-prefix-share".to_string());
    }
    if let Some(d) = spec.opts.deadline {
        args.push("--deadline-ms".to_string());
        args.push(d.as_millis().to_string());
    }
    if let Some(m) = spec.opts.max_events {
        args.push("--max-events".to_string());
        args.push(m.to_string());
    }
    if let Some(c) = &spec.opts.cache_dir {
        args.push("--cache-dir".to_string());
        args.push(c.display().to_string());
    }
    if let Some(s) = &spec.opts.snap_store {
        args.push("--snap-store-dir".to_string());
        args.push(s.display().to_string());
    }
    args
}

/// Parses the argument list produced by [`worker_cli_args`] (the leading
/// `--worker` may be present or already consumed by the host's dispatch).
fn parse_worker_args(args: &[String]) -> Result<WorkerSpec, String> {
    let mut worker = None;
    let mut nonce = None;
    let mut batch_file = None;
    let mut journal_dir = None;
    let mut opts = SweepOptions::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--worker" => {}
            "--fleet-id" => worker = Some(val()?.parse::<usize>().map_err(|e| e.to_string())?),
            "--nonce" => nonce = Some(val()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--batch" => batch_file = Some(PathBuf::from(val()?)),
            "--journal-dir" => journal_dir = Some(PathBuf::from(val()?)),
            "--heartbeat-ms" => {
                opts.heartbeat =
                    Duration::from_millis(val()?.parse::<u64>().map_err(|e| e.to_string())?);
            }
            "--jobs" => opts.jobs = val()?.parse::<usize>().map_err(|e| e.to_string())?,
            "--retries" => opts.retries = val()?.parse::<u32>().map_err(|e| e.to_string())?,
            "--audit" => opts.audit = true,
            "--no-prefix-share" => opts.prefix_share = false,
            "--deadline-ms" => {
                opts.deadline = Some(Duration::from_millis(
                    val()?.parse::<u64>().map_err(|e| e.to_string())?,
                ));
            }
            "--max-events" => {
                opts.max_events = Some(val()?.parse::<u64>().map_err(|e| e.to_string())?);
            }
            "--cache-dir" => opts.cache_dir = Some(PathBuf::from(val()?)),
            "--snap-store-dir" => opts.snap_store = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown worker flag {other:?}")),
        }
    }
    Ok(WorkerSpec {
        worker: worker.ok_or("missing --fleet-id")?,
        nonce: nonce.ok_or("missing --nonce")?,
        batch_file: batch_file.ok_or("missing --batch")?,
        journal_dir: journal_dir.ok_or("missing --journal-dir")?,
        opts,
    })
}

// ---- worker ----------------------------------------------------------------

/// Writes one protocol line to stdout. Failures are swallowed: a closed
/// pipe means the coordinator is gone, and the cancellation token — not a
/// broken-pipe panic — is how the worker learns that.
fn emit(msg: &FromWorker) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{}", msg.to_line());
    let _ = out.flush();
}

/// Entry point of a worker process: parses [`worker_cli_args`], executes
/// leases from stdin until `shutdown` (or coordinator death), and returns
/// the process exit code.
pub fn worker_main(args: &[String]) -> i32 {
    let spec = match parse_worker_args(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sweep worker: bad arguments: {e}");
            return 2;
        }
    };
    match run_worker(&spec) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("sweep worker {}: {e}", spec.worker);
            1
        }
    }
}

fn run_worker(spec: &WorkerSpec) -> Result<(), String> {
    let text = std::fs::read_to_string(&spec.batch_file)
        .map_err(|e| format!("reading batch file {:?}: {e}", spec.batch_file))?;
    let scenarios: Vec<Scenario> =
        serde_json::from_str(&text).map_err(|e| format!("parsing batch file: {e:?}"))?;
    let batch = KeyedBatch::new(&scenarios, &spec.opts);
    let bkey = batch.batch_key();

    // Fleet-wide resume knowledge: whatever the coordinator merged into
    // the batch journal before spawning us is replayed, not re-simulated.
    let merged_path = spec.journal_dir.join(format!("{bkey}.jsonl"));
    let merged_lines = Journal::load(&merged_path).map_err(|e| format!("loading journal: {e}"))?;
    let resumed: HashMap<String, RunResult> = collect_entries(&merged_lines, false)
        .into_iter()
        .filter_map(|(k, e)| e.result.ok().map(|r| (k, r)))
        .collect();
    let journal_path = spec.journal_dir.join(format!(
        "{bkey}.worker-{}-{}.jsonl",
        spec.nonce, spec.worker
    ));
    let journal = Mutex::new(
        Journal::open(&journal_path, true).map_err(|e| format!("opening worker journal: {e}"))?,
    );

    // stdin → lease queue; EOF without `shutdown` means the coordinator
    // died, and the token aborts whatever range is mid-flight.
    let cancel = CancelToken::new();
    let (tx, rx) = mpsc::channel::<ToWorker>();
    let reader_cancel = cancel.clone();
    std::thread::spawn(move || {
        for line in std::io::stdin().lines() {
            let Ok(line) = line else { break };
            if let Some(msg) = ToWorker::parse(&line) {
                let is_shutdown = msg == ToWorker::Shutdown;
                if tx.send(msg).is_err() || is_shutdown {
                    return;
                }
            }
        }
        reader_cancel.cancel();
    });

    let wedged = std::env::var(WEDGE_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        == Some(spec.worker);

    // The persistent snapshot store is how a fleet shares warm trunks:
    // whichever worker simulates a trunk first publishes it, and every
    // later lease — in this worker or a sibling process — hydrates.
    let store = snap_store_for(&spec.opts);
    let snap_tally = Mutex::new(SnapshotStats::default());

    emit(&FromWorker::Ready {
        worker: spec.worker,
    });
    // `while let` ends when the channel closes, i.e. the coordinator died.
    while let Ok(msg) = rx.recv() {
        match msg {
            ToWorker::Shutdown => break,
            ToWorker::Lease {
                range,
                start,
                end,
                epoch,
            } => {
                if wedged {
                    // Deliberately wedged (test hook): alive but silent —
                    // no heartbeat, no progress — until the coordinator's
                    // lease expiry kills us.
                    loop {
                        if cancel.is_cancelled() {
                            return Ok(());
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
                execute_range(
                    spec,
                    &batch,
                    &journal,
                    &resumed,
                    &cancel,
                    store.as_ref(),
                    &snap_tally,
                    range,
                    start,
                    end,
                    epoch,
                );
                if cancel.is_cancelled() {
                    break;
                }
                emit(&FromWorker::RangeDone {
                    worker: spec.worker,
                    range,
                    epoch,
                });
            }
        }
    }
    // Publish the worker's warm-snapshot tally into its journal so the
    // coordinator can assemble fleet-wide snapshot statistics. Best
    // effort: losing it costs observability, never results.
    let snap = *snap_tally.lock().expect("snapshot tally poisoned");
    if snap.trunk_runs + snap.forks + snap.hydrated + snap.published > 0 {
        if let Ok(mut j) = journal.lock() {
            let _ = j.append_all(Class::Derived, &[snapstats_record(&snap)]);
        }
    }
    Ok(())
}

/// Executes one leased range on the worker's thread pool while a sibling
/// thread heartbeats the lease; both stop the moment the range settles or
/// the cancellation token trips.
#[allow(clippy::too_many_arguments)]
fn execute_range(
    spec: &WorkerSpec,
    batch: &KeyedBatch,
    journal: &Mutex<Journal>,
    resumed: &HashMap<String, RunResult>,
    cancel: &CancelToken,
    store: Option<&bl_simcore::snapstore::SnapStore>,
    snap_tally: &Mutex<SnapshotStats>,
    range: RangeId,
    start: usize,
    end: usize,
    epoch: u64,
) {
    let end = end.min(batch.scenarios.len());
    let start = start.min(end);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            // First beat immediately (the lease clock started at grant),
            // then every `heartbeat`, polling `stop` finely in between.
            loop {
                if stop.load(Ordering::Relaxed) || cancel.is_cancelled() {
                    break;
                }
                emit(&FromWorker::Heartbeat {
                    worker: spec.worker,
                    range,
                    epoch,
                });
                let step = Duration::from_millis(10).min(spec.opts.heartbeat);
                let mut slept = Duration::ZERO;
                while slept < spec.opts.heartbeat && !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(step);
                    slept += step;
                }
            }
        });
        let env = ExecEnv {
            batch,
            opts: &spec.opts,
            journal: Some(journal),
            resumed,
            cancel: Some(cancel),
            store,
            snap: snap_tally,
        };
        // In sharded mode `jobs = 0` means one thread *per worker*, not
        // available parallelism: N workers must not oversubscribe N-fold.
        let jobs = spec.opts.jobs.max(1);
        let indices: Vec<usize> = (start..end).collect();
        // Fork groups form within the leased range; results land in the
        // worker's journal, so the return value is irrelevant here.
        let _ = execute_indices(&indices, &env, jobs);
        stop.store(true, Ordering::Relaxed);
    });
}

// ---- coordinator -----------------------------------------------------------

/// One worker process as the coordinator sees it.
struct WorkerProc {
    id: WorkerId,
    child: Child,
    stdin: Option<ChildStdin>,
    alive: bool,
    ready: bool,
    shutdown_sent: bool,
    lost: bool,
    /// The `(range, epoch)` currently assigned, if any.
    assignment: Option<(RangeId, u64)>,
    leases: u64,
    scenarios_done: u64,
}

enum Event {
    Msg(WorkerId, FromWorker),
    Eof(WorkerId),
}

/// Waits briefly for a (dead or dying) child to exit, then force-kills it
/// — the coordinator must never block forever on a wedged worker.
fn reap(child: &mut Child) {
    for _ in 0..200 {
        if let Ok(Some(_)) = child.try_wait() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    let _ = child.wait();
}

/// Kills a worker and reclaims everything it held. Used for wedged
/// workers (expired lease), the chaos hook, and unresponsive stragglers.
fn kill_worker(p: &mut WorkerProc, board: &mut LeaseBoard) {
    let _ = p.child.kill();
    p.lost = true;
    p.alive = false;
    p.stdin = None;
    board.reclaim_worker(p.id);
    p.assignment = None;
    reap(&mut p.child);
}

/// Leases open ranges to every idle, ready, live worker.
fn grant_open(board: &mut LeaseBoard, workers: &mut [WorkerProc], now_ms: u64) {
    while let Some(w) = workers
        .iter()
        .position(|p| p.alive && p.ready && p.assignment.is_none())
    {
        let Some((rid, (start, end), epoch)) = board.grant(w, now_ms) else {
            break;
        };
        let line = ToWorker::Lease {
            range: rid,
            start,
            end,
            epoch,
        }
        .to_line();
        let sent = workers[w]
            .stdin
            .as_mut()
            .is_some_and(|si| writeln!(si, "{line}").is_ok());
        if sent {
            workers[w].assignment = Some((rid, epoch));
            workers[w].leases += 1;
        } else {
            // The pipe is gone: the worker is dying. Take back the lease
            // now; the EOF event finishes the bookkeeping.
            kill_worker(&mut workers[w], board);
        }
    }
}

/// The `<batch>.worker-*.jsonl` journals currently on disk — this fleet's
/// and any dead predecessor's.
fn worker_journal_paths(dir: &Path, bkey: &str) -> Vec<PathBuf> {
    let prefix = format!("{bkey}.worker-");
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".jsonl"))
        })
        .collect();
    out.sort();
    out
}

/// Folds the merged journal plus every per-worker journal into deduped
/// entries, in batch order, and atomically replaces the merged journal
/// with exactly that state. On success the absorbed per-worker journals
/// are deleted; on I/O failure they are kept so nothing is lost.
fn merge_journals(
    dir: &Path,
    bkey: &str,
    keys: &[String],
) -> Result<(HashMap<String, JournalEntry>, SnapshotStats), String> {
    let merged_path = dir.join(format!("{bkey}.jsonl"));
    let mut lines = Journal::load(&merged_path).map_err(|e| format!("loading journal: {e}"))?;
    let worker_paths = worker_journal_paths(dir, bkey);
    for p in &worker_paths {
        lines.extend(Journal::load(p).unwrap_or_default());
    }
    let entries = collect_entries(&lines, true);
    // The workers' snapstats records live only in their own journals; the
    // rewrite below keeps keyed result records only, so sum them now.
    let snapstats = collect_snapstats(&lines);
    let ordered: Vec<String> = keys
        .iter()
        .filter_map(|k| entries.get(k).map(|e| e.raw.clone()))
        .collect();
    Journal::replace(Class::Derived, &merged_path, ordered)
        .map_err(|e| format!("rewriting merged journal: {e}"))?;
    for p in &worker_paths {
        let _ = std::fs::remove_file(p);
    }
    Ok((entries, snapstats))
}

/// Best-effort observability snapshot of the lease board, written next to
/// the merged journal as `<batch>.leases.json`.
fn write_lease_snapshot(dir: &Path, bkey: &str, board: &LeaseBoard) {
    let v = Value::Object(vec![
        ("batch".to_string(), Value::String(bkey.to_string())),
        (
            "counters".to_string(),
            serde_json::to_value(board.counters().clone()).unwrap_or(Value::Null),
        ),
        (
            "leases".to_string(),
            serde_json::to_value(board.leases().to_vec()).unwrap_or(Value::Null),
        ),
    ]);
    let Ok(json) = serde_json::to_string(&v) else {
        return;
    };
    let _ = durable::replace(
        Class::Derived,
        &dir.join(format!("{bkey}.leases.json")),
        json.as_bytes(),
    );
}

/// A [`SweepReport`] where setup failed before any worker ran: every
/// slot carries the error, mirroring how the in-process engine accounts
/// failed scenarios.
fn fail_all(scenarios: &[Scenario], error: &SimError) -> SweepReport {
    let n = scenarios.len();
    let mut stats = SweepStats {
        scenarios: n as u64,
        quarantined: n as u64,
        degraded: true,
        ..SweepStats::default()
    };
    let mut results = Vec::with_capacity(n);
    let mut quarantined = Vec::with_capacity(n);
    for (index, sc) in scenarios.iter().enumerate() {
        quarantined.push(QuarantineRecord {
            index,
            label: sc.label.clone(),
            attempts: 0,
            error: error.to_string(),
        });
        if stats.per_scenario.len() < PER_SCENARIO_CAP {
            stats.per_scenario.push(ScenarioStats {
                label: sc.label.clone(),
                wall_ms: 0.0,
                cache_hit: false,
                resumed: false,
                forked: false,
                attempts: 0,
                events: 0,
            });
        }
        results.push(Err(error.clone()));
    }
    SweepReport {
        results,
        degraded: true,
        quarantined,
        attempts: vec![Vec::new(); n],
        stats,
    }
}

/// Runs the batch across a fleet of worker processes. Never panics on
/// fleet trouble: setup failures, dead workers and poisoned ranges all
/// surface as typed per-scenario errors in the outcome.
pub(crate) fn run_sharded(batch: &KeyedBatch, opts: &SweepOptions) -> SweepReport {
    match run_sharded_inner(batch, opts) {
        Ok(outcome) => outcome,
        Err(e) => fail_all(&batch.scenarios, &e),
    }
}

fn run_sharded_inner(batch: &KeyedBatch, opts: &SweepOptions) -> Result<SweepReport, SimError> {
    let (scenarios, keys) = (&batch.scenarios, &batch.keys);
    let n = scenarios.len();
    let dir = opts.journal_dir.clone().ok_or_else(|| {
        SimError::config("sharded sweeps require a journal directory (SweepOptions::journaled)")
    })?;
    let launcher = LAUNCHER.get().ok_or_else(|| {
        SimError::config(
            "sharded sweeps require a registered worker launcher (shard::set_worker_launcher)",
        )
    })?;
    std::fs::create_dir_all(&dir)
        .map_err(|e| SimError::config(format!("creating journal directory {dir:?}: {e}")))?;
    let bkey = batch.batch_key();
    let io_err = |what: &str, e: std::io::Error| SimError::config(format!("{what}: {e}"));

    // Startup hygiene: other batches' orphaned worker journals, lease
    // snapshots, batch files and temp files — debris of killed
    // coordinators — are removed once old enough. This batch's own files
    // and every merged `<key>.jsonl` (fleet resume state) survive.
    journal::clean_stale_artifacts(&dir, bkey, durable::STALE_AFTER);

    // Fleet-wide resume: absorb the merged journal AND every per-worker
    // journal a dead fleet left behind, then rewrite the merged journal
    // to that deduped state before a single worker spawns. Without
    // `resume`, prior state of this batch is discarded instead.
    let merged_path = dir.join(format!("{bkey}.jsonl"));
    let prior: HashMap<String, JournalEntry> = if opts.resume {
        // Snapstats of an earlier, dead fleet describe *its* invocation;
        // only the keyed result entries carry over.
        merge_journals(&dir, bkey, keys)
            .map_err(SimError::config)?
            .0
    } else {
        let _ = Journal::open(&merged_path, false).map_err(|e| io_err("clearing journal", e))?;
        for p in worker_journal_paths(&dir, bkey) {
            let _ = std::fs::remove_file(p);
        }
        HashMap::new()
    };
    let resumed_keys: HashSet<&String> = prior
        .iter()
        .filter(|(_, e)| e.result.is_ok())
        .map(|(k, _)| k)
        .collect();
    let resumed_keys: HashSet<String> = resumed_keys.into_iter().cloned().collect();

    // The serialized batch the workers load their scenarios from.
    let batch_file = dir.join(format!("{bkey}.batch.json"));
    let batch_json = serde_json::to_string(&scenarios.to_vec())
        .map_err(|e| SimError::config(format!("serializing batch: {e:?}")))?;
    durable::replace(Class::Derived, &batch_file, batch_json.as_bytes())
        .map_err(|e| io_err("writing batch file", e))?;

    // Fine-grained ranges (≈4 per worker) keep re-lease losses small.
    let chunk = n.div_ceil(opts.workers * 4).max(1);
    let lease_ms = opts.lease.as_millis().max(1) as u64;
    let mut board = LeaseBoard::new(partition(n, chunk), lease_ms, RANGE_ATTEMPTS);

    // Spawn the fleet.
    let nonce = u64::from(std::process::id());
    let (tx, rx) = mpsc::channel::<Event>();
    let mut workers: Vec<WorkerProc> = Vec::with_capacity(opts.workers);
    for w in 0..opts.workers {
        let spec = WorkerSpec {
            worker: w,
            nonce,
            batch_file: batch_file.clone(),
            journal_dir: dir.clone(),
            opts: opts.clone(),
        };
        let mut cmd = launcher(&spec);
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        match cmd.spawn() {
            Ok(mut child) => {
                let stdin = child.stdin.take();
                let stdout = child.stdout.take();
                if let Some(stdout) = stdout {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for line in BufReader::new(stdout).lines() {
                            let Ok(line) = line else { break };
                            if let Some(msg) = FromWorker::parse(&line) {
                                if tx.send(Event::Msg(w, msg)).is_err() {
                                    return;
                                }
                            }
                        }
                        let _ = tx.send(Event::Eof(w));
                    });
                }
                workers.push(WorkerProc {
                    id: w,
                    child,
                    stdin,
                    alive: true,
                    ready: false,
                    shutdown_sent: false,
                    lost: false,
                    assignment: None,
                    leases: 0,
                    scenarios_done: 0,
                });
            }
            Err(e) => {
                // Partial fleets are torn down: a setup failure must not
                // leak orphan processes.
                for p in workers.iter_mut() {
                    let _ = p.child.kill();
                    let _ = p.child.wait();
                }
                return Err(SimError::config(format!("spawning worker {w}: {e}")));
            }
        }
    }
    drop(tx);

    // The event loop: drive the board from worker messages, worker
    // deaths, and the clock.
    let started = Instant::now();
    let now_ms = || started.elapsed().as_millis() as u64;
    let hb_ms = opts.heartbeat.as_millis() as u64;
    let poll = Duration::from_millis((hb_ms / 2).clamp(10, 500));
    let mut chaos_pending = opts.chaos_kill_one_worker;
    loop {
        if board.all_settled() || workers.iter().all(|p| !p.alive) {
            break;
        }
        let now = now_ms();
        // Wedged workers: a lease whose deadline passed belongs to a
        // worker that is alive but not making progress. Kill it — its
        // state is untrustworthy — and re-lease (or quarantine) the range.
        for (_rid, w) in board.reclaim_expired(now) {
            if workers[w].alive {
                kill_worker(&mut workers[w], &mut board);
            }
        }
        // A worker that never even said `ready` within one lease TTL is
        // wedged before its first message.
        for p in workers.iter_mut() {
            if p.alive && !p.ready && now >= lease_ms {
                kill_worker(p, &mut board);
            }
        }
        grant_open(&mut board, &mut workers, now);
        match rx.recv_timeout(poll) {
            Ok(Event::Msg(w, FromWorker::Ready { worker })) if worker == w => {
                workers[w].ready = true;
            }
            Ok(Event::Msg(
                w,
                FromWorker::Heartbeat {
                    worker,
                    range,
                    epoch,
                },
            )) if worker == w => {
                board.heartbeat(w, range, epoch, now_ms());
            }
            Ok(Event::Msg(
                w,
                FromWorker::RangeDone {
                    worker,
                    range,
                    epoch,
                },
            )) if worker == w => {
                if board.complete(w, range, epoch) {
                    let (s, e) = board.leases()[range].range;
                    workers[w].scenarios_done += (e - s) as u64;
                }
                if workers[w].assignment == Some((range, epoch)) {
                    workers[w].assignment = None;
                }
                grant_open(&mut board, &mut workers, now_ms());
                // Chaos hook: the first worker to finish a range — now
                // freshly re-leased and provably mid-range — is SIGKILLed,
                // exercising death reclamation end to end.
                if chaos_pending
                    && workers[w].alive
                    && workers[w].assignment.is_some()
                    && workers.iter().any(|p| p.id != w && p.alive)
                {
                    kill_worker(&mut workers[w], &mut board);
                    chaos_pending = false;
                }
            }
            Ok(Event::Msg(_, _)) => {} // mismatched fleet id: ignore
            Ok(Event::Eof(w)) => {
                if workers[w].alive {
                    workers[w].alive = false;
                    workers[w].lost = !workers[w].shutdown_sent;
                    workers[w].stdin = None;
                    board.reclaim_worker(w);
                    workers[w].assignment = None;
                    reap(&mut workers[w].child);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Every reader thread is gone; the loop head settles it.
            }
        }
    }
    let fleet_lost = !board.all_settled();

    // Wind the fleet down: polite shutdown, then force.
    for p in workers.iter_mut() {
        if p.alive {
            p.shutdown_sent = true;
            if let Some(si) = p.stdin.as_mut() {
                let _ = writeln!(si, "{}", ToWorker::Shutdown.to_line());
            }
            p.stdin = None;
        }
    }
    for p in workers.iter_mut() {
        if p.alive {
            reap(&mut p.child);
            p.alive = false;
        }
    }

    // Merge every journal into the batch journal and assemble the
    // outcome from disk state alone — exactly what a later `--resume`
    // would see.
    let (entries, fleet_snapstats) = match merge_journals(&dir, bkey, keys) {
        Ok(merged) => merged,
        Err(_) => {
            // The rewrite failed; per-worker journals were kept. Assemble
            // from an in-memory merge so the caller still gets results.
            let mut lines = Journal::load(&merged_path).unwrap_or_default();
            for p in worker_journal_paths(&dir, bkey) {
                lines.extend(Journal::load(&p).unwrap_or_default());
            }
            (collect_entries(&lines, true), collect_snapstats(&lines))
        }
    };
    let _ = std::fs::remove_file(&batch_file);
    write_lease_snapshot(&dir, bkey, &board);

    let workers_lost = workers.iter().filter(|p| p.lost).count();
    let fleet_detail = format!("{workers_lost} of {} workers lost", opts.workers);
    let mut stats = SweepStats::default();
    let mut results = Vec::with_capacity(n);
    let mut quarantined = Vec::new();
    for (index, sc) in scenarios.iter().enumerate() {
        let (result, attempts, cache_hit, resumed, forked, wall_ms) =
            match entries.get(&keys[index]) {
                Some(e) => (
                    e.result.clone(),
                    e.attempts,
                    e.cache_hit,
                    resumed_keys.contains(&keys[index]),
                    e.forked,
                    e.wall_ms,
                ),
                None => {
                    // Never published: the scenario sits in a quarantined
                    // range, or the whole fleet died first.
                    let lease = board
                        .leases()
                        .iter()
                        .find(|r| r.range.0 <= index && index < r.range.1);
                    let err = match lease {
                        Some(r) if r.state == bl_simcore::shard::LeaseState::Quarantined => {
                            SimError::ShardRangeQuarantined {
                                start: r.range.0,
                                end: r.range.1,
                                attempts: r.attempts,
                            }
                        }
                        _ => {
                            debug_assert!(fleet_lost, "published results cover all settled ranges");
                            SimError::WorkerFleetLost {
                                workers: opts.workers,
                                detail: fleet_detail.clone(),
                            }
                        }
                    };
                    let attempts = lease.map_or(0, |r| r.attempts);
                    (Err(err), attempts, false, false, false, 0.0)
                }
            };
        stats.scenarios += 1;
        stats.cache_hits += u64::from(cache_hit);
        stats.resumed += u64::from(resumed);
        stats.forked += u64::from(forked);
        stats.retries += u64::from(attempts.saturating_sub(1));
        let events = result.as_ref().map_or(0, |r| r.events_processed);
        stats.events += events;
        if let Err(e) = &result {
            stats.quarantined += 1;
            quarantined.push(QuarantineRecord {
                index,
                label: sc.label.clone(),
                attempts,
                error: e.to_string(),
            });
        }
        if stats.per_scenario.len() < PER_SCENARIO_CAP {
            stats.per_scenario.push(ScenarioStats {
                label: sc.label.clone(),
                wall_ms,
                cache_hit,
                resumed,
                forked,
                attempts,
                events,
            });
        }
        results.push(result);
    }
    stats.degraded = stats.quarantined > 0 || stats.retries > 0;
    stats.snapshot = fleet_snapstats;
    let c = board.counters();
    stats.shard = Some(ShardStats {
        workers: opts.workers as u64,
        ranges: board.leases().len() as u64,
        leases_granted: c.leases_granted,
        reclaimed_expired: c.reclaimed_expired,
        reclaimed_dead: c.reclaimed_dead,
        releases: c.releases,
        ranges_quarantined: c.ranges_quarantined,
        workers_lost: workers_lost as u64,
        per_worker: workers
            .iter()
            .map(|p| WorkerStats {
                worker: p.id as u64,
                leases: p.leases,
                scenarios_done: p.scenarios_done,
                lost: p.lost,
            })
            .collect(),
    });
    Ok(SweepReport {
        results,
        degraded: stats.degraded,
        quarantined,
        attempts: vec![Vec::new(); n],
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_cli_args_round_trip() {
        let spec = WorkerSpec {
            worker: 3,
            nonce: 99,
            batch_file: PathBuf::from("/tmp/b.json"),
            journal_dir: PathBuf::from("/tmp/j"),
            opts: SweepOptions::with_jobs(2)
                .with_retries(4)
                .audited(true)
                .with_deadline(Duration::from_millis(1500))
                .with_event_cap(1_000_000)
                .cached("/tmp/c")
                .with_heartbeat(Duration::from_millis(250))
                .prefix_sharing(false)
                .snap_stored("/tmp/s"),
        };
        let args = worker_cli_args(&spec);
        assert_eq!(args[0], "--worker");
        let parsed = parse_worker_args(&args).unwrap();
        assert_eq!(parsed.worker, 3);
        assert_eq!(parsed.nonce, 99);
        assert_eq!(parsed.batch_file, spec.batch_file);
        assert_eq!(parsed.journal_dir, spec.journal_dir);
        assert_eq!(parsed.opts.jobs, 2);
        assert_eq!(parsed.opts.retries, 4);
        assert!(parsed.opts.audit);
        assert_eq!(parsed.opts.deadline, Some(Duration::from_millis(1500)));
        assert_eq!(parsed.opts.max_events, Some(1_000_000));
        assert_eq!(parsed.opts.cache_dir, Some(PathBuf::from("/tmp/c")));
        assert_eq!(parsed.opts.heartbeat, Duration::from_millis(250));
        assert!(!parsed.opts.prefix_share);
        assert_eq!(parsed.opts.snap_store, Some(PathBuf::from("/tmp/s")));
    }

    #[test]
    fn worker_args_reject_garbage() {
        let bad = ["--fleet-id".to_string()]; // missing value
        assert!(parse_worker_args(&bad).is_err());
        let unknown = ["--frobnicate".to_string(), "1".to_string()];
        assert!(parse_worker_args(&unknown).is_err());
        let missing = ["--fleet-id".to_string(), "1".to_string()];
        assert!(parse_worker_args(&missing).is_err(), "spec is incomplete");
    }

    #[test]
    fn sharding_without_journal_dir_fails_typed_not_fatal() {
        use crate::config::SystemConfig;
        use bl_platform::ids::CpuId;
        use bl_simcore::time::SimDuration;
        let sc = Scenario::microbench(
            "no-journal",
            CpuId(0),
            0.3,
            SimDuration::from_millis(10),
            SimDuration::from_millis(50),
            SystemConfig::baseline(),
        );
        let opts = SweepOptions::with_jobs(1).sharded(2); // no journal_dir
        let out = super::super::run_with(std::slice::from_ref(&sc), &opts);
        assert!(matches!(
            out.results[0],
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(out.degraded);
    }
}
