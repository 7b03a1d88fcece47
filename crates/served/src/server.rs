//! The serve daemon: accepts scenario batches over a Unix-socket
//! JSON-lines protocol, multiplexes them onto the sweep engine, and
//! streams progress — built crash-only. The daemon makes one promise: a
//! client that reads `admitted` gets its run finished, even if it never
//! comes back. So admission is one synced append to the checksummed
//! service journal (`serve.runs.jsonl`), and that record carries the
//! batch itself. Everything else is derived state, written and never
//! synced: the run's terminal record, the sweep engine's batch journals
//! that carry the results, and snapshot-store entries. A power cut may
//! lose any of it, and a restart re-derives it: the daemon adopts every
//! admitted run from the journal and re-runs what was lost to identical
//! bytes. SIGKILL loses nothing, since the kernel keeps every completed
//! write; a restart plus a client resubmission recovers byte-identically
//! either way.
//!
//! A submission is admitted in four steps, so that its simulation runs
//! while its promise reaches the disk:
//!
//! 1. **key**: the batch is keyed once ([`sweep::KeyedBatch`]); its batch
//!    key is the run id, and the same value later runs;
//! 2. **lease and start**: admission control queues the run, and when a
//!    slot is free the scheduler leases it and starts its executor;
//! 3. **append and sync** the admission record;
//! 4. **`admitted`** is queued to the client.
//!
//! An executor may finish before step 3 does (a verbatim repeat replays
//! its journal at once), but it reports through the command channel,
//! which the scheduler reads only after step 4, so no checkpoint, result
//! or `done` reaches a client before its `admitted`. A crash between
//! steps 2 and 3 loses only derived state — journal records and
//! snapshots of a run no client was told was admitted.
//!
//! A served run journals its synced `admitted` record and then one
//! derived terminal record, `complete` or `quarantined`; the daemon adds
//! a `draining` record when it drains. Adoption reads nothing else.
//!
//! Threading model (std only, no async runtime):
//!
//! * an **accept loop** thread blocks in `accept`, so a connection is
//!   served the instant it arrives, and hands each one a reader and a
//!   writer thread;
//! * **reader** threads parse request lines (typed rejections answered
//!   in place, so a malformed line never blocks the scheduler) and
//!   forward work to the scheduler;
//! * one **scheduler** thread owns the [`Scheduler`]: the [`RunBoard`],
//!   the service journal, connections and subscriptions. It performs
//!   admission, fair-share leasing, progress (read from the counts the
//!   engine keeps in memory on each run's batch,
//!   [`KeyedBatch::settled`] and [`KeyedBatch::events_simulated`]),
//!   heartbeats, wedge quarantine and drain;
//! * one **executor** thread per active run calls
//!   [`biglittle::sweep::run_cancelable`] with journaling + resume on,
//!   so a restarted daemon re-running an adopted batch replays finished
//!   scenarios instead of recomputing them.

use crate::lifecycle::{Admission, BoardLimits, RunBoard, RunState};
use crate::proto::{self, Reject, Request, SubmitOptions};
use biglittle::sweep::{self, KeyedBatch};
use biglittle::{Scenario, SweepOptions};
use bl_simcore::budget::CancelToken;
use bl_simcore::durable::{self, Class, STALE_AFTER};
use bl_simcore::journal::{self, Journal};
use bl_simcore::snapstore::clean_stale_snapshots;
use serde_json::Value;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Test hook: when this environment variable is set, every executor
/// wedges (sleeps without progress) instead of running its sweep — the
/// serve twin of the shard layer's `BL_SHARD_TEST_WEDGE_WORKER`, used to
/// prove the wedge-timeout quarantine path end to end.
pub const WEDGE_ENV: &str = "BL_SERVE_TEST_WEDGE";

/// How the daemon runs: socket, state directories, execution defaults
/// and admission/timeout knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The Unix socket path to listen on (a stale file there is removed
    /// at bind — a SIGKILLed daemon cannot unlink it on the way down).
    pub socket: PathBuf,
    /// Daemon state root: the service journal (`serve.runs.jsonl`), whose
    /// admission records carry each run's batch, and the per-run sweep
    /// journals (`journal/<run>.jsonl`).
    pub serve_dir: PathBuf,
    /// Persistent warm-snapshot store; `None` disables server-side
    /// trunk hydration.
    pub snap_dir: Option<PathBuf>,
    /// Worker threads per run (0 = available parallelism).
    pub jobs: usize,
    /// Admission limits (queue depth, pending scenarios, active runs).
    pub limits: BoardLimits,
    /// Heartbeat cadence for subscribed clients.
    pub heartbeat: Duration,
    /// How long an active run may go without observable progress before
    /// it is cancelled and quarantined.
    pub wedge_timeout: Duration,
    /// How long a connection may sit on a partial request line before it
    /// is dropped (slow-trickle defense). Idle connections with no
    /// partial line are never dropped.
    pub stall_timeout: Duration,
    /// Hard cap on one request line.
    pub max_line_bytes: usize,
    /// Per-scenario wall deadline imposed on submissions that do not set
    /// their own — the backstop that keeps a runaway scenario from
    /// holding an executor forever.
    pub default_deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            socket: PathBuf::from("results/.serve/serve.sock"),
            serve_dir: PathBuf::from("results/.serve"),
            snap_dir: Some(PathBuf::from(sweep::DEFAULT_SNAP_DIR)),
            jobs: 0,
            limits: BoardLimits::default(),
            heartbeat: Duration::from_millis(1_000),
            wedge_timeout: Duration::from_secs(30),
            stall_timeout: Duration::from_secs(2),
            max_line_bytes: proto::MAX_LINE_BYTES,
            default_deadline: Duration::from_secs(600),
        }
    }
}

impl ServeConfig {
    fn journal_dir(&self) -> PathBuf {
        self.serve_dir.join("journal")
    }

    /// The sweep options a submission executes under.
    fn run_options(&self, req: &SubmitOptions) -> SweepOptions {
        let mut o = SweepOptions::with_jobs(self.jobs)
            .with_retries(req.retries)
            .audited(req.audit)
            .journaled(self.journal_dir())
            .resuming(true)
            .with_deadline(
                req.deadline_ms
                    .map_or(self.default_deadline, Duration::from_millis),
            );
        if let Some(n) = req.max_events {
            o = o.with_event_cap(n);
        }
        if let Some(dir) = &self.snap_dir {
            o = o.snap_stored(dir.clone());
        }
        o
    }
}

/// SIGTERM latch. The handler only stores a flag — everything else
/// (drain, flush, exit) happens on the scheduler thread.
static SIGTERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_: i32) {
    SIGTERM.store(true, Ordering::SeqCst);
}

fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM_NO: i32 = 15;
    unsafe {
        signal(SIGTERM_NO, on_sigterm as extern "C" fn(i32) as usize);
    }
}

/// What an executor reports back when its run finishes.
struct FinishedRun {
    run: String,
    cancelled: bool,
    degraded: bool,
    quarantined: u64,
    /// Per-index outcome, pre-serialized.
    results: Vec<Result<Value, String>>,
    stats: Value,
}

/// What a connection's writer thread is handed: a line to send, or a
/// flush request it acknowledges once every earlier line is written.
enum Out {
    Line(String),
    Flush(Sender<()>),
}

enum Cmd {
    Connected {
        conn: u64,
        writer: Sender<Out>,
    },
    Disconnected {
        conn: u64,
    },
    Submit {
        conn: u64,
        client: String,
        scenarios: Vec<Scenario>,
        options: SubmitOptions,
    },
    Status {
        conn: u64,
    },
    Drain {
        conn: u64,
    },
    Finished(Box<FinishedRun>),
}

/// Everything the scheduler tracks about one non-terminal run beyond the
/// board entry.
struct RunMeta {
    cancel: CancelToken,
    /// The keyed batch, shared with the run's executor, which hands it to
    /// [`sweep::run_cancelable`]; the engine counts the run's progress on
    /// it.
    batch: Arc<KeyedBatch>,
    options: SubmitOptions,
}

impl RunMeta {
    fn new(batch: KeyedBatch, options: SubmitOptions) -> RunMeta {
        RunMeta {
            cancel: CancelToken::new(),
            batch: Arc::new(batch),
            options,
        }
    }
}

/// Test hook: called on the scheduler thread with each run it leases,
/// once the run's executor has been started.
#[cfg(test)]
type LeaseProbe = Box<dyn Fn(&str) + Send>;
#[cfg(test)]
static ON_LEASE: std::sync::Mutex<Option<LeaseProbe>> = std::sync::Mutex::new(None);

/// Test hook: called on the scheduler thread each time a run finishes,
/// with the daemon's serve directory and its simulated-event count.
#[cfg(test)]
type FinishProbe = Box<dyn Fn(&std::path::Path, u64) + Send>;
#[cfg(test)]
static ON_FINISH: std::sync::Mutex<Option<FinishProbe>> = std::sync::Mutex::new(None);

/// Runs the daemon until drain completes. Returns the process exit code.
///
/// Run it in a process of its own: if drain cannot wake the accept
/// thread, that thread is left running until the process exits.
pub fn serve(cfg: ServeConfig) -> io::Result<i32> {
    install_sigterm_handler();
    std::fs::create_dir_all(&cfg.serve_dir)?;
    std::fs::create_dir_all(cfg.journal_dir())?;
    startup_hygiene(&cfg);

    // Stale socket file from a SIGKILLed predecessor.
    if cfg.socket.exists() {
        let _ = std::fs::remove_file(&cfg.socket);
    }
    if let Some(dir) = cfg.socket.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let listener = UnixListener::bind(&cfg.socket)?;
    eprintln!("serve: listening on {}", cfg.socket.display());

    let (tx, rx) = channel::<Cmd>();
    let shutdown = Arc::new(AtomicBool::new(false));

    // Accept loop: blocks in `accept`; drain wakes it with one connect
    // (below), after which it sees the flag and exits.
    let accept_shutdown = shutdown.clone();
    let accept_tx = tx.clone();
    let accept_cfg = cfg.clone();
    let accept_handle = thread::spawn(move || {
        let mut next_conn: u64 = 0;
        loop {
            let accepted = listener.accept();
            if accept_shutdown.load(Ordering::SeqCst) {
                return;
            }
            match accepted {
                Ok((stream, _)) => {
                    let conn = next_conn;
                    next_conn += 1;
                    spawn_connection(conn, stream, &accept_cfg, accept_tx.clone());
                }
                // A real accept failure (e.g. out of descriptors): back
                // off instead of spinning.
                Err(_) => thread::sleep(Duration::from_millis(25)),
            }
        }
    });

    let code = match Scheduler::open(cfg.clone(), tx) {
        Ok(scheduler) => scheduler.run(rx),
        Err(e) => {
            eprintln!("serve: cannot open service journal: {e}");
            1
        }
    };

    // If the wake-up connect fails, the accept thread is left detached
    // rather than joined, so drain never hangs; the process it runs in
    // is about to exit.
    shutdown.store(true, Ordering::SeqCst);
    if UnixStream::connect(&cfg.socket).is_ok() {
        let _ = accept_handle.join();
    }
    let _ = std::fs::remove_file(&cfg.socket);
    eprintln!("serve: drained, exiting");
    Ok(code)
}

/// Startup hygiene: sweep the debris a SIGKILLed predecessor may have
/// left — stale snapshots, stale shard/journal artifacts, orphaned
/// `.tmp` files in the state root, and the `<run>.batch.json` files
/// older daemons wrote beside the journal (nothing reads them: their
/// batch-less admissions are quarantined at adoption) — once older than
/// [`durable::STALE_AFTER`], and say what was reclaimed.
fn startup_hygiene(cfg: &ServeConfig) {
    let snaps = cfg
        .snap_dir
        .as_deref()
        .map_or(0, |dir| clean_stale_snapshots(dir, STALE_AFTER));
    let artifacts = journal::clean_stale_artifacts(&cfg.journal_dir(), "", STALE_AFTER);
    let tmps = durable::remove_stale(&cfg.serve_dir, STALE_AFTER, |name| {
        name.ends_with(".tmp") || name.ends_with(".batch.json")
    });
    eprintln!(
        "serve hygiene: reclaimed {snaps} stale snapshot(s), {artifacts} stale journal \
         artifact(s), {tmps} orphaned tmp or batch file(s)"
    );
}

/// All mutable serving state, owned by the scheduler thread: the run
/// board and each open run's meta, the connections' writers and their
/// run subscriptions, the service journal and the throughput window. Its
/// methods are the daemon's transitions.
struct Scheduler {
    cfg: ServeConfig,
    /// Handed to each executor, which reports back through it.
    tx: Sender<Cmd>,
    start: Instant,
    board: RunBoard,
    meta: HashMap<String, RunMeta>,
    writers: HashMap<u64, Sender<Out>>,
    subs: HashMap<String, Vec<u64>>,
    service: Journal,
    /// Events simulated by the runs that have finished.
    finished_events: u64,
    /// Throughput samples, `(when, events simulated so far)`, one per
    /// heartbeat.
    rate_window: VecDeque<(Instant, u64)>,
}

impl Scheduler {
    /// Opens the service journal and adopts every open run it holds.
    fn open(cfg: ServeConfig, tx: Sender<Cmd>) -> io::Result<Scheduler> {
        let service = Journal::open(cfg.serve_dir.join("serve.runs.jsonl"), true)?;
        let mut scheduler = Scheduler {
            board: RunBoard::new(cfg.limits),
            cfg,
            tx,
            start: Instant::now(),
            meta: HashMap::new(),
            writers: HashMap::new(),
            subs: HashMap::new(),
            service,
            finished_events: 0,
            rate_window: VecDeque::new(),
        };
        scheduler.adopt_runs();
        Ok(scheduler)
    }

    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Processes commands, ticks progress, wedges and heartbeats, and
    /// returns the exit code once drain is done.
    fn run(mut self, rx: Receiver<Cmd>) -> i32 {
        let mut last_heartbeat = Instant::now();
        let tick = Duration::from_millis(self.cfg.heartbeat.as_millis().min(100) as u64);
        loop {
            // Lease as much as capacity allows before sleeping.
            self.start_ready_runs();

            let cmd = rx.recv_timeout(tick);
            if SIGTERM.load(Ordering::SeqCst) && !self.board.draining() {
                self.drain("SIGTERM — draining");
            }
            match cmd {
                Ok(Cmd::Connected { conn, writer }) => {
                    self.writers.insert(conn, writer);
                }
                Ok(Cmd::Disconnected { conn }) => {
                    self.writers.remove(&conn);
                    for list in self.subs.values_mut() {
                        list.retain(|c| *c != conn);
                    }
                }
                Ok(Cmd::Submit {
                    conn,
                    client,
                    scenarios,
                    options,
                }) => self.submit(conn, client, scenarios, options),
                Ok(Cmd::Status { conn }) => {
                    let line = self.status_line();
                    send_to(&self.writers, conn, &line);
                }
                Ok(Cmd::Drain { conn }) => {
                    if !self.board.draining() {
                        self.drain("drain requested");
                    }
                    send_to(&self.writers, conn, &proto::draining_line());
                }
                Ok(Cmd::Finished(f)) => self.finish_run(*f),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return 0,
            }

            self.poll_progress();
            self.cancel_wedged();
            if last_heartbeat.elapsed() >= self.cfg.heartbeat {
                last_heartbeat = Instant::now();
                self.heartbeat();
            }

            if self.board.draining() && self.board.active() == 0 {
                flush_writers(&self.writers);
                return 0;
            }
        }
    }

    /// Stops admitting and journals the daemon's `draining` record.
    fn drain(&mut self, why: &str) {
        self.board.drain();
        self.journal_transition("daemon", "draining", "", 0);
        eprintln!("serve: {why} ({} active)", self.board.active());
    }

    /// Re-queues every non-terminal run found in the service journal:
    /// the restarted daemon adopts in-flight work, and the engine's
    /// journal replay keeps adopted re-runs byte-identical and cheap.
    fn adopt_runs(&mut self) {
        let now = self.now_ms();
        let mut latest = fold(self.service.records());
        let (mut adopted, mut quarantined) = (0, 0);
        for f in &mut latest {
            let Some(state) = RunState::parse(&f.state) else {
                continue;
            };
            if state.is_terminal() {
                continue;
            }
            // The admission record carries the batch; without a readable
            // one (an admission written before batches moved into the
            // journal) the run cannot be re-executed and is quarantined
            // on the spot.
            match f.batch.as_ref().and_then(parse_batch) {
                Some((scenarios, options)) => {
                    self.board.adopt(&f.run, &f.client, scenarios.len(), now);
                    let batch = KeyedBatch::new(&scenarios, &self.cfg.run_options(&options));
                    self.meta
                        .insert(f.run.clone(), RunMeta::new(batch, options));
                    adopted += 1;
                    eprintln!(
                        "serve: adopted run {} ({} scenarios, was {})",
                        f.run,
                        f.n,
                        state.as_str()
                    );
                }
                None => {
                    eprintln!("serve: run {} has no readable batch — quarantining", f.run);
                    self.board.adopt(&f.run, &f.client, f.n as usize, now);
                    self.board.quarantine(&f.run);
                    f.state = RunState::Quarantined.as_str().to_string();
                    quarantined += 1;
                }
            }
        }
        // Compact: the post-adoption fold atomically replaces the full
        // history, bounding the journal across restarts and recording the
        // quarantines above. It keeps the batch of every non-terminal run,
        // so it backs the same promise as the admissions it replaces.
        let compacted: Vec<String> = latest
            .iter()
            .map(|f| {
                let open = RunState::parse(&f.state).is_some_and(|s| !s.is_terminal());
                run_record(
                    &f.run,
                    &f.state,
                    &f.client,
                    f.n,
                    f.batch.clone().filter(|_| open),
                )
            })
            .collect();
        if quarantined > 0 || compacted.len() < self.service.records().len() {
            match Journal::replace(Class::Promise, self.service.path(), compacted) {
                Ok(fresh) => self.service = fresh,
                Err(e) => eprintln!("serve: service journal compaction failed: {e}"),
            }
        }
        if adopted > 0 {
            eprintln!("serve: adopted {adopted} in-flight run(s) from the service journal");
        }
    }

    /// Appends one lifecycle transition as derived state: a power cut may
    /// lose it, and a restart re-derives it by adopting and re-running
    /// the run. Journal failures are logged, not fatal: the daemon
    /// degrades to serving without durability rather than dying
    /// mid-request.
    fn journal_transition(&mut self, run: &str, state: &str, client: &str, n: u64) {
        let record = run_record(run, state, client, n, None);
        if let Err(e) = self.service.append_all(Class::Derived, &[record]) {
            eprintln!("serve: service journal append failed: {e}");
        }
    }

    /// Admits one submission in the order the module doc sets out: key,
    /// lease and start, append and sync, then `admitted`.
    fn submit(
        &mut self,
        conn: u64,
        client: String,
        scenarios: Vec<Scenario>,
        options: SubmitOptions,
    ) {
        let batch = KeyedBatch::new(&scenarios, &self.cfg.run_options(&options));
        let run = batch.batch_key().to_string();
        let n = scenarios.len() as u64;
        match self
            .board
            .submit(&run, &client, scenarios.len(), self.now_ms())
        {
            Err(reject) => {
                let line = proto::rejected_line(reject, reject.as_str());
                send_to(&self.writers, conn, &line);
            }
            Ok(Admission::Attached { .. }) => {
                self.subs.entry(run.clone()).or_default().push(conn);
                send_to(&self.writers, conn, &proto::admitted_line(&run, 0));
            }
            Ok(Admission::Queued { position }) => {
                self.meta
                    .insert(run.clone(), RunMeta::new(batch, options.clone()));
                // Start first: the executor simulates while the promise
                // below syncs. What it writes before the sync returns is
                // derived.
                self.start_ready_runs();
                // The promise: the admission record, carrying the batch,
                // is synced before the client hears `admitted`, so a
                // restart after any crash — a power cut included — adopts
                // the run.
                let batch = batch_value(&scenarios, &options);
                let record = run_record(&run, RunState::Admitted.as_str(), &client, n, Some(batch));
                if let Err(e) = self.service.append_all(Class::Promise, &[record]) {
                    eprintln!("serve: cannot persist the admission of run {run}: {e}");
                }
                self.subs.entry(run.clone()).or_default().push(conn);
                send_to(&self.writers, conn, &proto::admitted_line(&run, position));
            }
        }
    }

    /// Leases queued runs onto executor threads while capacity allows.
    fn start_ready_runs(&mut self) {
        while let Some(run) = self.board.start_next(self.now_ms()) {
            let Some(m) = self.meta.get(&run) else {
                self.board.quarantine(&run);
                continue;
            };
            let batch = m.batch.clone();
            let opts = self.cfg.run_options(&m.options);
            let cancel = m.cancel.clone();
            let tx = self.tx.clone();
            let run_name = run.clone();
            thread::spawn(move || executor(run_name, &batch, opts, cancel, tx));
            #[cfg(test)]
            if let Some(probe) = ON_LEASE.lock().expect("lease probe poisoned").as_ref() {
                probe(&run);
            }
        }
    }

    /// Turns the settled counts the engine keeps on each open run's batch
    /// into board progress and `checkpoint` events; a count that has not
    /// moved sends nothing.
    fn poll_progress(&mut self) {
        let now = self.now_ms();
        for (run, m) in &self.meta {
            let done = m.batch.settled() as usize;
            if self.board.progress(run, done, now) {
                let total = self.board.get(run).map_or(0, |e| e.total as u64);
                let line = proto::checkpoint_line(run, done as u64, total);
                broadcast(&self.subs, &mut self.writers, run, &line);
            }
        }
    }

    /// Cancels every run that made no progress within the wedge timeout.
    /// Its terminal bookkeeping happens when the executor reports back
    /// `Finished { cancelled: true }`.
    fn cancel_wedged(&self) {
        let timeout_ms = self.cfg.wedge_timeout.as_millis() as u64;
        for run in self.board.wedged(self.now_ms(), timeout_ms) {
            if let Some(m) = self.meta.get(&run) {
                eprintln!(
                    "serve: run {run} made no progress for {:?} — cancelling",
                    self.cfg.wedge_timeout
                );
                m.cancel.cancel();
            }
        }
    }

    /// Events simulated so far: the finished runs' and the open runs'.
    fn events(&self) -> u64 {
        let open: u64 = self.meta.values().map(|m| m.batch.events_simulated()).sum();
        self.finished_events + open
    }

    /// Samples the throughput window and sends every subscribed open run
    /// a heartbeat.
    fn heartbeat(&mut self) {
        self.rate_window.push_back((Instant::now(), self.events()));
        while self.rate_window.len() > 16 {
            self.rate_window.pop_front();
        }
        let eps = events_per_sec(&self.rate_window);
        for run in self.subs.keys() {
            if let Some(e) = self.board.get(run).filter(|e| !e.state.is_terminal()) {
                let line = proto::heartbeat_line(
                    run,
                    e.state.as_str(),
                    e.done as u64,
                    e.total as u64,
                    eps,
                );
                broadcast(&self.subs, &mut self.writers, run, &line);
            }
        }
    }

    /// Settles a run its executor reported back.
    fn finish_run(&mut self, f: FinishedRun) {
        let (client, total) = self
            .board
            .get(&f.run)
            .map(|e| (e.client.clone(), e.total as u64))
            .unwrap_or_default();
        if f.cancelled {
            self.board.quarantine(&f.run);
            let state = RunState::Quarantined.as_str();
            self.journal_transition(&f.run, state, &client, total);
            let line = proto::quarantined_line(
                &f.run,
                "run made no progress within the server wedge timeout and was cancelled",
            );
            broadcast(&self.subs, &mut self.writers, &f.run, &line);
            eprintln!("serve: run {} quarantined", f.run);
        } else {
            self.board.complete(&f.run);
            let state = RunState::Complete.as_str();
            self.journal_transition(&f.run, state, &client, total);
            for (i, outcome) in f.results.iter().enumerate() {
                let line = proto::result_line(&f.run, i as u64, outcome);
                broadcast(&self.subs, &mut self.writers, &f.run, &line);
            }
            let line = proto::done_line(&f.run, f.degraded, f.quarantined, f.stats);
            broadcast(&self.subs, &mut self.writers, &f.run, &line);
            eprintln!(
                "serve: run {} complete ({} scenarios)",
                f.run,
                f.results.len()
            );
        }
        if let Some(m) = self.meta.remove(&f.run) {
            self.finished_events += m.batch.events_simulated();
        }
        self.subs.remove(&f.run);
        #[cfg(test)]
        if let Some(probe) = ON_FINISH.lock().expect("finish probe poisoned").as_ref() {
            probe(&self.cfg.serve_dir, self.events());
        }
    }

    fn status_line(&self) -> String {
        let board = &self.board;
        serde_json::to_string(&Value::Object(vec![
            ("ev".into(), Value::String("status".into())),
            ("queued".into(), Value::UInt(board.queued() as u64)),
            ("active".into(), Value::UInt(board.active() as u64)),
            (
                "pending_scenarios".into(),
                Value::UInt(board.pending_scenarios() as u64),
            ),
            ("completed".into(), Value::UInt(board.completed())),
            (
                "quarantined_runs".into(),
                Value::UInt(board.quarantined_runs()),
            ),
            ("clients".into(), Value::UInt(self.writers.len() as u64)),
            (
                "events_per_sec".into(),
                Value::Float(events_per_sec(&self.rate_window)),
            ),
            ("draining".into(), Value::Bool(board.draining())),
        ]))
        .expect("status serializes")
    }
}

/// One run's state folded from the service journal: its latest record
/// wins, and its batch is the one its latest admission carried.
struct Folded {
    run: String,
    state: String,
    client: String,
    n: u64,
    batch: Option<Value>,
}

/// Folds service-journal records into one entry per run, ordered by each
/// run's latest record.
fn fold(records: &[String]) -> Vec<Folded> {
    let mut latest: Vec<Folded> = Vec::new();
    for line in records {
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        if v.get("ev").and_then(Value::as_str) != Some("run") {
            continue;
        }
        let (Some(run), Some(state)) = (
            v.get("run").and_then(Value::as_str),
            v.get("state").and_then(Value::as_str),
        ) else {
            continue;
        };
        let earlier = latest
            .iter()
            .position(|f| f.run == run)
            .map(|i| latest.remove(i));
        latest.push(Folded {
            run: run.to_string(),
            state: state.to_string(),
            client: v
                .get("client")
                .and_then(Value::as_str)
                .unwrap_or("anon")
                .to_string(),
            n: v.get("n").and_then(Value::as_u64).unwrap_or(0),
            batch: v
                .get("batch")
                .cloned()
                .or_else(|| earlier.and_then(|f| f.batch)),
        });
    }
    latest
}

/// One service-journal record: a run's lifecycle state, plus the batch on
/// an admission (and on compacted non-terminal runs).
fn run_record(run: &str, state: &str, client: &str, n: u64, batch: Option<Value>) -> String {
    let mut fields = vec![
        ("ev".into(), Value::String("run".into())),
        ("run".into(), Value::String(run.to_string())),
        ("state".into(), Value::String(state.to_string())),
        ("client".into(), Value::String(client.to_string())),
        ("n".into(), Value::UInt(n)),
    ];
    if let Some(batch) = batch {
        fields.push(("batch".into(), batch));
    }
    serde_json::to_string(&Value::Object(fields)).expect("record serializes")
}

/// The batch an admission record carries: the scenarios and the options
/// they execute under.
fn batch_value(scenarios: &[Scenario], options: &SubmitOptions) -> Value {
    let mut fields = vec![(
        "scenarios".into(),
        Value::Array(
            scenarios
                .iter()
                .map(|sc| serde_json::to_value(sc).expect("scenario serializes"))
                .collect(),
        ),
    )];
    if let Some(ms) = options.deadline_ms {
        fields.push(("deadline_ms".into(), Value::UInt(ms)));
    }
    if let Some(n) = options.max_events {
        fields.push(("max_events".into(), Value::UInt(n)));
    }
    if options.retries > 0 {
        fields.push(("retries".into(), Value::UInt(u64::from(options.retries))));
    }
    if options.audit {
        fields.push(("audit".into(), Value::Bool(true)));
    }
    Value::Object(fields)
}

/// The inverse of [`batch_value`]; `None` when the batch does not decode.
fn parse_batch(v: &Value) -> Option<(Vec<Scenario>, SubmitOptions)> {
    let scenarios = v
        .get("scenarios")?
        .as_array()?
        .iter()
        .map(|sc| serde_json::from_value::<Scenario>(sc.clone()).ok())
        .collect::<Option<Vec<_>>>()?;
    let options = SubmitOptions {
        deadline_ms: v.get("deadline_ms").and_then(Value::as_u64),
        max_events: v.get("max_events").and_then(Value::as_u64),
        retries: v.get("retries").and_then(Value::as_u64).unwrap_or(0) as u32,
        audit: matches!(v.get("audit"), Some(Value::Bool(true))),
    };
    Some((scenarios, options))
}

/// One run's executor. Reports back whatever happened; a panic would be
/// caught by the engine's own supervision, and a send failure means the
/// daemon is already gone.
fn executor(
    run: String,
    batch: &KeyedBatch,
    opts: SweepOptions,
    cancel: CancelToken,
    tx: Sender<Cmd>,
) {
    if std::env::var(WEDGE_ENV).is_ok() {
        // Chaos hook: hold the lease without making progress until the
        // scheduler's wedge timeout cancels us.
        while !cancel.is_cancelled() {
            thread::sleep(Duration::from_millis(20));
        }
        let _ = tx.send(Cmd::Finished(Box::new(FinishedRun {
            run,
            cancelled: true,
            degraded: true,
            quarantined: 0,
            results: Vec::new(),
            stats: Value::Null,
        })));
        return;
    }
    let t0 = Instant::now();
    let out = sweep::run_cancelable(batch, &opts, &cancel);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let results: Vec<Result<Value, String>> = out
        .results
        .iter()
        .map(|r| match r {
            Ok(res) => Ok(serde_json::to_value(res).expect("result serializes")),
            Err(e) => Err(e.to_string()),
        })
        .collect();
    let s = &out.stats;
    let stats = Value::Object(vec![
        ("scenarios".into(), Value::UInt(s.scenarios)),
        ("cache_hits".into(), Value::UInt(s.cache_hits)),
        ("resumed".into(), Value::UInt(s.resumed)),
        ("forked".into(), Value::UInt(s.forked)),
        ("retries".into(), Value::UInt(s.retries)),
        ("quarantined".into(), Value::UInt(s.quarantined)),
        ("events".into(), Value::UInt(s.events)),
        (
            "events_per_sec".into(),
            Value::Float(if wall_ms > 0.0 {
                s.events as f64 / (wall_ms / 1e3)
            } else {
                0.0
            }),
        ),
        ("hydrated".into(), Value::UInt(s.snapshot.hydrated)),
        ("published".into(), Value::UInt(s.snapshot.published)),
        (
            "trunk_ms_saved".into(),
            Value::Float(s.snapshot.trunk_ms_saved),
        ),
        ("wall_ms".into(), Value::Float(wall_ms)),
    ]);
    let _ = tx.send(Cmd::Finished(Box::new(FinishedRun {
        run,
        cancelled: cancel.is_cancelled(),
        degraded: out.degraded,
        quarantined: out.quarantined.len() as u64,
        results,
        stats,
    })));
}

fn events_per_sec(window: &VecDeque<(Instant, u64)>) -> f64 {
    match (window.front(), window.back()) {
        (Some((t0, e0)), Some((t1, e1))) if t1 > t0 => {
            let dt = t1.duration_since(*t0).as_secs_f64();
            if dt > 0.0 {
                (e1 - e0) as f64 / dt
            } else {
                0.0
            }
        }
        _ => 0.0,
    }
}

fn send_to(writers: &HashMap<u64, Sender<Out>>, conn: u64, line: &str) {
    if let Some(w) = writers.get(&conn) {
        let _ = w.send(Out::Line(line.to_string()));
    }
}

/// Waits until every connection's writer has written the lines queued so
/// far, so a drained daemon does not exit with a client's last answers
/// (`draining`, a final run's results) still in memory. Bounded: a client
/// that stopped reading costs at most a second.
fn flush_writers(writers: &HashMap<u64, Sender<Out>>) {
    let (done_tx, done_rx) = channel();
    for w in writers.values() {
        let _ = w.send(Out::Flush(done_tx.clone()));
    }
    // Each writer drops its sender once it has acknowledged, or when it
    // dies; with ours gone too, the channel closes when all are through.
    drop(done_tx);
    let deadline = Instant::now() + Duration::from_secs(1);
    while done_rx
        .recv_timeout(deadline.saturating_duration_since(Instant::now()))
        .is_ok()
    {}
}

/// Sends a line to every subscriber of `run`, pruning writers whose
/// connection died — a disconnected client degrades to "nobody
/// listening", never to an error.
fn broadcast(
    subs: &HashMap<String, Vec<u64>>,
    writers: &mut HashMap<u64, Sender<Out>>,
    run: &str,
    line: &str,
) {
    if let Some(conns) = subs.get(run) {
        for conn in conns {
            if let Some(w) = writers.get(conn) {
                if w.send(Out::Line(line.to_string())).is_err() {
                    writers.remove(conn);
                }
            }
        }
    }
}

// ---- per-connection I/O ----------------------------------------------------

fn spawn_connection(conn: u64, stream: UnixStream, cfg: &ServeConfig, tx: Sender<Cmd>) {
    let (wtx, wrx) = channel::<Out>();
    if tx
        .send(Cmd::Connected {
            conn,
            writer: wtx.clone(),
        })
        .is_err()
    {
        return;
    }
    // Writer half: owns a clone of the stream; exits when the channel
    // closes or the peer goes away.
    let wstream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    thread::spawn(move || {
        let mut out = io::BufWriter::new(wstream);
        for msg in wrx {
            match msg {
                Out::Line(line) => {
                    if out.write_all(line.as_bytes()).is_err()
                        || out.write_all(b"\n").is_err()
                        || out.flush().is_err()
                    {
                        break;
                    }
                }
                Out::Flush(done) => {
                    let _ = done.send(());
                }
            }
        }
    });
    // Reader half.
    let cfg = cfg.clone();
    thread::spawn(move || {
        reader_loop(conn, stream, &cfg, &tx, &wtx);
        let _ = tx.send(Cmd::Disconnected { conn });
    });
}

/// Reads request lines with three defenses: a hard per-line size cap
/// (oversized lines are answered with `TooLarge` and discarded up to the
/// next newline, the connection stays usable), a stall timeout on
/// *partial* lines (slow-trickle senders are dropped; idle subscribers
/// are not), and typed rejections for unparseable lines answered in
/// place.
fn reader_loop(
    conn: u64,
    mut stream: UnixStream,
    cfg: &ServeConfig,
    tx: &Sender<Cmd>,
    writer: &Sender<Out>,
) {
    const POLL: Duration = Duration::from_millis(100);
    let _ = stream.set_read_timeout(Some(POLL));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    let mut discarding = false;
    let mut stalled = Duration::ZERO;
    loop {
        // Drain complete lines from the buffer first.
        while let Some(nl) = buf.iter().position(|b| *b == b'\n') {
            let line: Vec<u8> = buf.drain(..=nl).collect();
            stalled = Duration::ZERO;
            if discarding {
                // The tail of an oversized line — already rejected.
                discarding = false;
                continue;
            }
            let text = String::from_utf8_lossy(&line[..line.len() - 1]);
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            match proto::parse_request(text) {
                Ok(Request::Ping) => {
                    let _ = writer.send(Out::Line(proto::pong_line()));
                }
                Ok(Request::Status) => {
                    if tx.send(Cmd::Status { conn }).is_err() {
                        return;
                    }
                }
                Ok(Request::Drain) => {
                    if tx.send(Cmd::Drain { conn }).is_err() {
                        return;
                    }
                }
                Ok(Request::Submit {
                    client,
                    scenarios,
                    options,
                }) => {
                    if tx
                        .send(Cmd::Submit {
                            conn,
                            client,
                            scenarios,
                            options,
                        })
                        .is_err()
                    {
                        return;
                    }
                }
                Err((reject, detail)) => {
                    let _ = writer.send(Out::Line(proto::rejected_line(reject, &detail)));
                }
            }
        }
        if !discarding && buf.len() > cfg.max_line_bytes {
            let _ = writer.send(Out::Line(proto::rejected_line(
                Reject::TooLarge,
                &format!("request line exceeds {} bytes", cfg.max_line_bytes),
            )));
            buf.clear();
            discarding = true;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                if discarding {
                    // Keep only from the newline on, if one arrived.
                    if let Some(nl) = chunk[..n].iter().position(|b| *b == b'\n') {
                        buf.extend_from_slice(&chunk[nl..n]);
                    }
                } else {
                    buf.extend_from_slice(&chunk[..n]);
                }
                stalled = Duration::ZERO;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if !buf.is_empty() || discarding {
                    stalled += POLL;
                    if stalled >= cfg.stall_timeout {
                        // A partial line going nowhere: drop the
                        // connection, not the daemon.
                        return;
                    }
                }
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{control, submit, SubmitConfig};
    use crate::lifecycle::BoardLimits;
    use biglittle::SystemConfig;
    use bl_platform::ids::CpuId;
    use bl_simcore::durable::{Image, PowerCut};
    use bl_simcore::time::SimDuration;
    use std::io::BufRead as _;
    use std::path::Path;
    use std::sync::{Arc, Mutex};

    fn temp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bl-serve-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A daemon under `root` with room to run every adopted run at once.
    /// The snapshot store shares the service journal's directory, so the
    /// directory sync of an admission also names the `.snap` entries
    /// renamed there before it, which a cut then leaves empty.
    fn config(root: &Path) -> ServeConfig {
        ServeConfig {
            socket: root.join("serve.sock"),
            serve_dir: root.join("state"),
            snap_dir: Some(root.join("state")),
            jobs: 1,
            limits: BoardLimits {
                max_active: 4,
                ..BoardLimits::default()
            },
            ..ServeConfig::default()
        }
    }

    /// Runs a daemon on `cfg` in a thread and returns once it listens.
    fn start(cfg: &ServeConfig) -> thread::JoinHandle<i32> {
        let run = cfg.clone();
        let daemon = thread::spawn(move || serve(run).expect("the daemon starts"));
        let deadline = Instant::now() + Duration::from_secs(30);
        while !cfg.socket.exists() {
            assert!(Instant::now() < deadline, "the daemon never listened");
            thread::sleep(Duration::from_millis(2));
        }
        daemon
    }

    /// Drains the daemon: it finishes every run it holds, then exits 0.
    fn drain(cfg: &ServeConfig, daemon: thread::JoinHandle<i32>) {
        control(&cfg.socket, "drain").expect("drain is answered");
        assert_eq!(daemon.join().expect("the daemon thread ends"), 0);
    }

    /// Two scenarios warming up on one trunk per seed: a run publishes
    /// its trunks to the snapshot store, or hydrates them.
    fn batch(tag: &str, seed: u64) -> Vec<Scenario> {
        (0..2u64)
            .map(|i| {
                Scenario::microbench(
                    format!("cut-{tag}-{i}"),
                    CpuId(i as usize),
                    0.3 + 0.2 * i as f64,
                    SimDuration::from_millis(10),
                    SimDuration::from_millis(300),
                    SystemConfig::baseline().with_seed(seed + i),
                )
                .with_warmup(SimDuration::from_millis(100))
            })
            .collect()
    }

    /// Each scenario's result bytes from a one-shot sweep.
    fn reference(scenarios: &[Scenario]) -> Vec<String> {
        sweep::run_with(scenarios, &SweepOptions::serial())
            .results
            .iter()
            .map(|r| serde_json::to_string(r.as_ref().expect("the reference runs")).unwrap())
            .collect()
    }

    /// Submits `scenarios`; returns the run id and each result's bytes.
    fn served(cfg: &ServeConfig, client: &str, scenarios: &[Scenario]) -> (String, Vec<String>) {
        let submit_cfg = SubmitConfig {
            socket: cfg.socket.clone(),
            client: client.to_string(),
            backoff: Duration::from_millis(20),
            quiet: true,
            ..SubmitConfig::default()
        };
        let values: Vec<Value> = scenarios
            .iter()
            .map(|sc| serde_json::to_value(sc).unwrap())
            .collect();
        let report = submit(&submit_cfg, &values).expect("the run completes");
        let results = report
            .results
            .into_iter()
            .map(|r| serde_json::to_string(&r.expect("the scenario runs")).unwrap())
            .collect();
        (report.run, results)
    }

    /// `(run, state)` per run, folded from service-journal records.
    fn states(records: &[String]) -> Vec<(String, String)> {
        fold(records)
            .into_iter()
            .map(|f| (f.run, f.state))
            .collect()
    }

    #[test]
    fn adoption_records_its_quarantines_and_keeps_open_batches() {
        let root = temp_root("adopt");
        let path = root.join("serve.runs.jsonl");
        let scenarios = batch("adopt", 40);
        let open = batch_value(&scenarios, &SubmitOptions::default());
        // r1 was admitted before batches moved into the journal; r2 is in
        // flight; r3 finished; r4 is queued.
        let history = vec![
            run_record("r1", "admitted", "c", 2, None),
            run_record("r2", "admitted", "c", 2, Some(open.clone())),
            run_record("r2", "leased", "c", 2, None),
            run_record("r3", "admitted", "c", 2, Some(open.clone())),
            run_record("r3", "complete", "c", 2, None),
            run_record("r4", "admitted", "c", 2, Some(open)),
        ];
        Journal::replace(Class::Derived, &path, history).unwrap();
        // Adoption re-queues every open run, past the admission limits.
        let cfg = ServeConfig {
            serve_dir: root.clone(),
            limits: BoardLimits {
                max_queued: 1,
                ..BoardLimits::default()
            },
            ..ServeConfig::default()
        };
        for pass in 0..2 {
            let Scheduler { board, meta, .. } =
                Scheduler::open(cfg.clone(), channel().0).expect("the journal opens");
            // Only the first adoption finds r1 open; the second reads the
            // quarantine the first one compacted into the journal.
            assert_eq!(
                board.quarantined_runs(),
                u64::from(pass == 0),
                "pass {pass}"
            );
            let mut adopted: Vec<&String> = meta.keys().collect();
            adopted.sort();
            assert_eq!(adopted, ["r2", "r4"], "pass {pass}");
            let adopted = meta["r2"].batch.scenarios();
            assert_eq!(
                serde_json::to_string(&batch_value(adopted, &meta["r2"].options)).unwrap(),
                serde_json::to_string(&batch_value(&scenarios, &SubmitOptions::default())).unwrap()
            );
            let records = Journal::load(&path).unwrap();
            assert_eq!(
                states(&records),
                [
                    ("r1", "quarantined"),
                    ("r2", "leased"),
                    ("r3", "complete"),
                    ("r4", "admitted")
                ]
                .map(|(r, s)| (r.to_string(), s.to_string())),
                "pass {pass}"
            );
            // The compacted journal keeps the batches of open runs only.
            let batches: Vec<bool> = fold(&records).iter().map(|f| f.batch.is_some()).collect();
            assert_eq!(batches, [false, true, false, true], "pass {pass}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_executor_starts_before_its_admission_syncs_and_events_stay_in_order() {
        let root = temp_root("overlap");
        let cfg = config(&root);
        let cut = Arc::new(PowerCut::install(&root));
        // The syncs made under this root by the time each run is leased.
        let leases: Arc<Mutex<Vec<(String, u64)>>> = Arc::default();
        *ON_LEASE.lock().unwrap() = Some({
            let (cut, leases) = (cut.clone(), leases.clone());
            Box::new(move |run: &str| leases.lock().unwrap().push((run.to_string(), cut.syncs())))
        });
        let daemon = start(&cfg);
        // Two batches, then two verbatim repeats of each: a repeat replays
        // its journal, so its run may finish before its admission syncs.
        let batches = [batch("order-a", 700), batch("order-b", 800)];
        let stream = UnixStream::connect(&cfg.socket).unwrap();
        let mut lines = io::BufReader::new(stream.try_clone().unwrap()).lines();
        let mut writer = stream;
        let mut runs = Vec::new();
        for b in batches.iter().cycle().take(6) {
            let values: Vec<Value> = b
                .iter()
                .map(|sc| serde_json::to_value(sc).unwrap())
                .collect();
            let submit = proto::submit_line("c0", &values, &SubmitOptions::default());
            writer.write_all(format!("{submit}\n").as_bytes()).unwrap();
            // admitted, then checkpoints, then one result per scenario in
            // order, then done; heartbeats may come at any point after
            // admitted.
            let mut seen: Vec<&str> = Vec::new();
            let mut results = 0;
            loop {
                let line = lines.next().expect("the daemon answers").unwrap();
                let event = proto::parse_event(&line).expect("a well-formed event");
                let (kind, run) = match &event {
                    proto::Event::Admitted { run, .. } => ("admitted", run),
                    proto::Event::Checkpoint { run, .. } => ("checkpoint", run),
                    proto::Event::ResultSlot { run, index, .. } => {
                        assert_eq!(*index, results, "{line}");
                        results += 1;
                        ("result", run)
                    }
                    proto::Event::Done { run, .. } => ("done", run),
                    proto::Event::Heartbeat { run, .. } => ("heartbeat", run),
                    _ => panic!("unexpected event {line}"),
                };
                if kind == "admitted" {
                    runs.push(run.clone());
                }
                assert_eq!(Some(run), runs.last(), "{line}");
                if kind != "heartbeat" {
                    seen.push(kind);
                }
                if kind == "done" {
                    break;
                }
            }
            let admitted = seen.iter().position(|k| *k == "admitted");
            let first_result = seen
                .iter()
                .position(|k| *k == "result")
                .unwrap_or(seen.len());
            assert_eq!(admitted, Some(0), "{seen:?}");
            assert!(
                seen[1..first_result].iter().all(|k| *k == "checkpoint"),
                "{seen:?}"
            );
            assert_eq!(
                seen[first_result..],
                ["result", "result", "done"],
                "{seen:?}"
            );
        }
        drop((writer, lines));
        drain(&cfg, daemon);
        *ON_LEASE.lock().unwrap() = None;

        // Each run was leased, and its executor started, before its own
        // admission synced: the k-th lease saw only the k admissions
        // before it, plus the directory sync of the first.
        let leases: Vec<u64> = leases
            .lock()
            .unwrap()
            .iter()
            .filter(|(run, _)| runs.contains(run))
            .map(|&(_, syncs)| syncs)
            .collect();
        assert_eq!(leases, [0, 2, 3, 4, 5, 6]);
        assert_eq!(cut.syncs(), 6 + 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn startup_hygiene_retires_batch_files_older_daemons_left() {
        let root = temp_root("hygiene");
        let cfg = ServeConfig {
            serve_dir: root.clone(),
            snap_dir: None,
            ..ServeConfig::default()
        };
        let (old, young) = (root.join("r1.batch.json"), root.join("r2.batch.json"));
        for path in [&old, &young] {
            std::fs::write(path, b"{}").unwrap();
        }
        let stale = std::time::SystemTime::now() - STALE_AFTER - Duration::from_secs(60);
        std::fs::File::options()
            .write(true)
            .open(&old)
            .unwrap()
            .set_modified(stale)
            .unwrap();
        startup_hygiene(&cfg);
        assert!(!old.exists() && young.exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_served_admission_costs_one_sync_and_the_daemon_one_more() {
        let root = temp_root("sync-budget");
        let cfg = config(&root);
        let cut = PowerCut::install(&root);
        let daemon = start(&cfg);
        let batches = [batch("a", 100), batch("b", 200), batch("c", 300)];
        for b in &batches {
            served(&cfg, "c0", b);
        }
        // A verbatim repeat of a completed run is admitted again.
        served(&cfg, "c1", &batches[0]);
        drain(&cfg, daemon);
        assert_eq!(
            cut.syncs(),
            4 + 1,
            "four admissions, plus the directory entry of serve.runs.jsonl"
        );
        assert!(
            cut.boundaries().len() > 4 * 5,
            "the rest of the daemon's writes went through durable unsynced"
        );
        drop(cut);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_drained_daemon_journals_each_served_run_as_its_admission_and_one_terminal_record() {
        let root = temp_root("lifecycle-records");
        let cfg = config(&root);
        let daemon = start(&cfg);
        let (a, _) = served(&cfg, "c0", &batch("a", 100));
        let (b, _) = served(&cfg, "c0", &batch("b", 200));
        // A verbatim repeat of a completed run is a run of its own.
        served(&cfg, "c1", &batch("a", 100));
        drain(&cfg, daemon);
        let records: Vec<(String, String)> = Journal::load(&cfg.serve_dir.join("serve.runs.jsonl"))
            .unwrap()
            .iter()
            .map(|line| {
                let v: Value = serde_json::from_str(line).unwrap();
                let field = |k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("run"), field("state"))
            })
            .collect();
        let want = [
            (&a, "admitted"),
            (&a, "complete"),
            (&b, "admitted"),
            (&b, "complete"),
            (&a, "admitted"),
            (&a, "complete"),
            (&"daemon".to_string(), "draining"),
        ]
        .map(|(run, state)| (run.clone(), state.to_string()));
        assert_eq!(records, want);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn the_throughput_signal_counts_each_simulated_event_once() {
        let counts: Arc<Mutex<Vec<(PathBuf, u64)>>> = Arc::default();
        *ON_FINISH.lock().unwrap() = Some({
            let counts = counts.clone();
            Box::new(move |dir: &Path, n| counts.lock().unwrap().push((dir.to_path_buf(), n)))
        });
        // Polled every 1 ms, a run's records are read before its Finished
        // arrives; every 100 ms, mostly after.
        for heartbeat_ms in [1, 10_000] {
            let root = temp_root(&format!("throughput-{heartbeat_ms}"));
            let cfg = ServeConfig {
                heartbeat: Duration::from_millis(heartbeat_ms),
                ..config(&root)
            };
            let daemon = start(&cfg);
            let batches = [batch("a", 100), batch("b", 200), batch("c", 300)];
            let mut simulated = 0;
            for b in &batches {
                for result in served(&cfg, "c0", b).1 {
                    let v: Value = serde_json::from_str(&result).unwrap();
                    simulated += v.get("events_processed").and_then(Value::as_u64).unwrap();
                }
            }
            // A verbatim repeat replays its journal and simulates nothing.
            served(&cfg, "c1", &batches[0]);
            drain(&cfg, daemon);
            let counted: Vec<u64> = counts
                .lock()
                .unwrap()
                .iter()
                .filter(|(dir, _)| *dir == cfg.serve_dir)
                .map(|&(_, n)| n)
                .collect();
            assert_eq!(simulated, 765, "four runs of 255 events, one a repeat");
            assert_eq!(counted.len(), 4, "heartbeat {heartbeat_ms} ms");
            assert_eq!(counted[3], simulated, "heartbeat {heartbeat_ms} ms");
            let _ = std::fs::remove_dir_all(&root);
        }
        *ON_FINISH.lock().unwrap() = None;
    }

    #[test]
    fn a_power_cut_at_any_record_boundary_loses_no_admitted_run() {
        let root = temp_root("power-cut");
        let cfg = config(&root);
        let service = cfg.serve_dir.join("serve.runs.jsonl");
        // b shares a's trunks and hydrates them; c builds its own.
        let batches = [batch("a", 100), batch("b", 100), batch("c", 300)];
        let references: Vec<Vec<String>> = batches.iter().map(|b| reference(b)).collect();

        let cut = PowerCut::install(&root);
        // A daemon drained before any admission: its `draining` record
        // creates the service journal as derived state.
        drain(&cfg, start(&cfg));
        let daemon = start(&cfg);
        let mut runs = Vec::new();
        for (b, client) in batches[..2].iter().zip(["a", "b"]) {
            let (run, results) = served(&cfg, client, b);
            assert_eq!(results, references[runs.len()]);
            runs.push(run);
        }
        drain(&cfg, daemon);
        // This daemon's startup compaction and first admission sync the
        // directory the previous daemon renamed its snapshots into.
        let daemon = start(&cfg);
        let (run, results) = served(&cfg, "c", &batches[2]);
        assert_eq!(results, references[2]);
        runs.push(run);
        drain(&cfg, daemon);
        let mut images = cut.boundaries();
        drop(cut);

        let admitted = |image: &Image| -> Vec<String> {
            let records: Vec<String> = image.files().get(&service).map_or(Vec::new(), |bytes| {
                String::from_utf8_lossy(bytes)
                    .lines()
                    .filter_map(durable::unframe)
                    .map(str::to_string)
                    .collect()
            });
            let mut runs: Vec<String> = states(&records)
                .into_iter()
                .map(|(run, _)| run)
                .filter(|run| run != "daemon")
                .collect();
            runs.sort();
            runs
        };
        // The promise: once an admission survives a cut, every later cut
        // keeps it too, and the last cut keeps all three.
        for pair in images.windows(2) {
            let (before, after) = (admitted(&pair[0]), admitted(&pair[1]));
            assert!(
                before.iter().all(|r| after.contains(r)),
                "{before:?} then {after:?}"
            );
        }
        let last = images.last().unwrap();
        let mut all = runs.clone();
        all.sort();
        assert_eq!(admitted(last), all);
        // The derived `draining` record that created the journal survives
        // once the next daemon's first admission names the file, and a
        // `.snap` rename a later directory sync named survives empty.
        let first = images.iter().find(|i| !admitted(i).is_empty()).unwrap();
        let kept = String::from_utf8_lossy(&first.files()[&service]).into_owned();
        assert!(
            kept.lines().next().unwrap().contains("\"draining\""),
            "{kept}"
        );
        assert!(last
            .files()
            .iter()
            .any(|(p, bytes)| p.extension().is_some_and(|x| x == "snap") && bytes.is_empty()));

        // Derived writes leave the image as it was, so consecutive
        // boundaries often cut to the same files; each distinct one is
        // restored and restarted once.
        let boundaries = images.len();
        images.dedup();
        assert!(images.len() < boundaries);
        for (k, image) in images.iter().enumerate() {
            let _ = std::fs::remove_dir_all(&root);
            std::fs::create_dir_all(&root).unwrap();
            image.restore().unwrap();
            let open: Vec<String> = fold(&Journal::load(&service).unwrap())
                .into_iter()
                .filter(|f| RunState::parse(&f.state).is_some_and(|s| !s.is_terminal()))
                .map(|f| f.run)
                .collect();
            // A daemon no client talks to adopts and finishes every open
            // admitted run before its drain completes.
            drain(&cfg, start(&cfg));
            let after = states(&Journal::load(&service).unwrap());
            for run in &open {
                assert!(
                    after.contains(&(run.clone(), "complete".to_string())),
                    "cut {k}: run {run} was not adopted and finished: {after:?}"
                );
            }
            // Clients that come back get the one-shot bytes.
            let daemon = start(&cfg);
            for ((b, client), want) in batches.iter().zip(["a", "b", "c"]).zip(&references) {
                assert_eq!(&served(&cfg, client, b).1, want, "cut {k}");
            }
            drain(&cfg, daemon);
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
