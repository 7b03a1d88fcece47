//! `serve`: an open-loop generator — one process, two threads, two
//! connections, two client ids — speaking `bl_served::proto` to a serve
//! daemon with one job per run, hosted by this binary in a child process.
//!
//! Requests are small ladder batches from the `sweep` family, due at one
//! fixed rate; latency runs from each request's due time to its `done`.
//! `serve` mixes new trunks, hydration of published ones and verbatim
//! repeats; `serve-cold` puts every request on a new trunk.

use crate::inputs::{self, Batch, Class};
use crate::report::{Ctx, JournalTraffic, Metrics, PhaseOut, SetupTimes};
use crate::{check, os, probes, stats, trace::Tracer};
use biglittle::Scenario;
use bl_served::proto::{self, Event, SubmitOptions};
use bl_served::ServeConfig;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Requests per second. Kept low so that requests seldom queue behind
/// one another and latency measures the coordinator rather than a
/// backlog: on the reference 2-vCPU VM a `serve-cold` request executed
/// in about 12 ms (`served.exec_ms`), so its daemon's runs were busy
/// about 12 × 8 / 1000 ≈ 10 % of the time, and the daemon used 11 % of
/// one core in all (`served.busy_frac`); `serve` requests cost less.
const RATE: f64 = 8.0;
/// Rungs and bindings per request: 2 × 2 = 4 scenarios.
const LEVELS: usize = 2;
const BINDINGS: usize = 2;
/// Requests in one repetition of the open loop (see `shape`).
const PER_REP: usize = 20;
/// A request may repeat or hydrate from one due at least this long
/// before it, so the earlier run has completed and published.
const GAP_S: f64 = 0.25;
/// A request without `done` this long after its due time has failed.
const DEADLINE: Duration = Duration::from_secs(20);
/// Below this much time to a due time the generator sleeps instead of
/// reading with a timeout.
const SEND_SLACK: Duration = Duration::from_millis(5);
/// Pause between attempts to reach a starting daemon's socket.
const CONNECT_RETRY: Duration = Duration::from_micros(100);
/// How long a drained daemon gets to exit before SIGKILL.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Entry point of the daemon child: the serve daemon with one job per
/// run and default admission limits.
pub fn daemon_main(args: &[String]) -> i32 {
    let [socket, serve_dir, snap_dir] = args else {
        eprintln!("perfbench daemon: expected <socket> <serve-dir> <snap-dir>");
        return 2;
    };
    let cfg = ServeConfig {
        socket: socket.into(),
        serve_dir: serve_dir.into(),
        snap_dir: Some(snap_dir.into()),
        jobs: 1,
        ..ServeConfig::default()
    };
    match bl_served::serve(cfg) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            1
        }
    }
}

/// A running daemon child. Dropping it SIGKILLs and reaps the process if
/// it is still alive, so a failed phase never leaves an orphan.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    logger: Option<std::thread::JoinHandle<Vec<String>>>,
}

impl Daemon {
    /// Spawns the daemon and returns it once its socket accepts a
    /// connection, with that connection (see [`Daemon::ping`]).
    pub fn start(socket: &Path, serve_dir: &Path, snap_dir: &Path) -> (Daemon, UnixStream) {
        let exe = std::env::current_exe().expect("current_exe for daemon spawn");
        let mut child = Command::new(exe)
            .arg("--daemon")
            .args([socket, serve_dir, snap_dir])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn serve daemon");
        let stderr = child.stderr.take().expect("piped stderr");
        let logger = std::thread::spawn(move || {
            let mut tail: VecDeque<String> = VecDeque::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                tail.push_back(line);
                if tail.len() > 40 {
                    tail.pop_front();
                }
            }
            tail.into()
        });
        let mut d = Daemon {
            child,
            socket: socket.to_path_buf(),
            logger: Some(logger),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut conn = UnixStream::connect(socket);
        while conn.is_err() {
            if Instant::now() > deadline || !matches!(d.child.try_wait(), Ok(None)) {
                let log = d.stop();
                panic!("serve daemon never listened: {log:?}");
            }
            std::thread::sleep(CONNECT_RETRY);
            conn = UnixStream::connect(socket);
        }
        (d, conn.expect("connected above"))
    }

    /// One `ping` round trip on `conn`, proving that the accept loop
    /// serves connections. It is not part of the timed set-up: the
    /// daemon's accept loop polls every 25 ms, so the answer comes either
    /// at once or a poll later, depending on whether the connection beat
    /// the loop's first poll, and set-ups would take one of two times.
    pub fn ping(&self, conn: UnixStream) {
        let pong = request_line(conn, r#"{"op":"ping"}"#);
        assert!(
            matches!(proto::parse_event(&pong), Ok(Event::Pong)),
            "daemon answered ping with {pong:?}"
        );
    }

    /// The daemon's pid as a `/proc` path component.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Drains the daemon, waits for it to exit (SIGKILL after a grace
    /// period), and returns the tail of its log.
    pub fn stop(&mut self) -> Vec<String> {
        if matches!(self.child.try_wait(), Ok(None)) {
            if let Ok(mut s) = UnixStream::connect(&self.socket) {
                let _ = s.write_all(b"{\"op\":\"drain\"}\n");
            }
            let deadline = Instant::now() + DRAIN_GRACE;
            while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        self.logger
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Sends one control line on `s` and returns the first answer line.
fn request_line(mut s: UnixStream, line: &str) -> String {
    s.write_all(format!("{line}\n").as_bytes())
        .expect("write control line");
    let mut answer = String::new();
    BufReader::new(s)
        .read_line(&mut answer)
        .expect("read control answer");
    answer
}

/// What the generator learned about one request.
#[derive(Debug, Clone, Default)]
struct Req {
    sent: Option<Instant>,
    admitted: Option<Instant>,
    done: Option<Instant>,
    position: u64,
    exec_ms: f64,
    events: u64,
    hydrated: u64,
    published: u64,
    forked: u64,
    retries: u64,
    quarantined: u64,
    failed: Option<String>,
    results: Vec<Option<Result<u64, String>>>,
}

/// One generator thread: sends the requests `i` with `i % 2 == k`, each
/// at its due time, and reads events in between. Like `repro submit`, it
/// connects when it has something to send and hangs up once every
/// request on the connection is settled; a request due while an earlier
/// one is still open is sent on the same connection, so the process never
/// holds more than two.
fn connection(
    socket: &Path,
    k: usize,
    lines: &[String],
    sizes: &[usize],
    due: &dyn Fn(usize) -> Instant,
) -> Vec<(usize, Req)> {
    let mine: Vec<usize> = (k..lines.len()).step_by(2).collect();
    let mut reqs: HashMap<usize, Req> = mine
        .iter()
        .map(|&i| {
            (
                i,
                Req {
                    results: vec![None; sizes[i]],
                    ..Req::default()
                },
            )
        })
        .collect();
    let hard_deadline = mine.last().map_or_else(Instant::now, |&i| due(i)) + DEADLINE;
    let mut stream: Option<UnixStream> = None;
    let mut pending_admit: VecDeque<usize> = VecDeque::new();
    let mut by_run: HashMap<String, Vec<usize>> = HashMap::new();
    let mut in_flight = 0usize;
    let mut open = mine.len();
    let mut next = 0;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    while open > 0 {
        let now = Instant::now();
        if next < mine.len() && now >= due(mine[next]) {
            let i = mine[next];
            next += 1;
            if stream.is_none() {
                stream = UnixStream::connect(socket).ok();
            }
            let sent = stream
                .as_mut()
                .is_some_and(|s| s.write_all(lines[i].as_bytes()).is_ok());
            let r = reqs.get_mut(&i).expect("own request");
            if sent {
                r.sent = Some(Instant::now());
                pending_admit.push_back(i);
                in_flight += 1;
            } else {
                r.failed = Some("could not send".to_string());
                open -= 1;
            }
            continue;
        }
        if now >= hard_deadline {
            break;
        }
        let until = if next < mine.len() {
            due(mine[next])
        } else {
            hard_deadline
        };
        // Socket timeouts round up to scheduler ticks (up to 4 ms), so the
        // last stretch before a due time is slept precisely instead; the
        // daemon's answers wait in the socket buffer meanwhile.
        let wait = until.saturating_duration_since(now);
        let Some(reader) = stream.as_mut() else {
            std::thread::sleep(wait);
            continue;
        };
        if next < mine.len() && wait <= SEND_SLACK {
            std::thread::sleep(wait);
            continue;
        }
        let wait = if next < mine.len() {
            wait - SEND_SLACK
        } else {
            wait
        };
        reader
            .set_read_timeout(Some(wait.max(Duration::from_micros(100))))
            .expect("set read timeout");
        let n = match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => break,
        };
        let at = Instant::now();
        buf.extend_from_slice(&chunk[..n]);
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let Ok(ev) = proto::parse_event(&String::from_utf8_lossy(&line)) else {
                continue;
            };
            let mut settled = 0;
            match ev {
                Event::Admitted { run, position } => {
                    if let Some(i) = pending_admit.pop_front() {
                        let r = reqs.get_mut(&i).expect("own request");
                        r.admitted = Some(at);
                        r.position = position;
                        by_run.entry(run).or_default().push(i);
                    }
                }
                Event::Rejected { reason, .. } => {
                    if let Some(i) = pending_admit.pop_front() {
                        let r = reqs.get_mut(&i).expect("own request");
                        r.failed = Some(format!("rejected: {}", reason.as_str()));
                        settled += 1;
                    }
                }
                Event::ResultSlot {
                    run,
                    index,
                    outcome,
                } => {
                    for i in by_run.get(&run).into_iter().flatten() {
                        let r = reqs.get_mut(i).expect("own request");
                        if let Some(slot) = r.results.get_mut(index as usize) {
                            *slot = Some(
                                outcome
                                    .as_ref()
                                    .map(check::value_digest)
                                    .map_err(Clone::clone),
                            );
                        }
                    }
                }
                Event::Done { run, stats, .. } => {
                    for i in by_run.remove(&run).unwrap_or_default() {
                        let r = reqs.get_mut(&i).expect("own request");
                        let n = |k: &str| {
                            stats
                                .get(k)
                                .and_then(serde_json::Value::as_u64)
                                .unwrap_or(0)
                        };
                        r.done = Some(at);
                        r.exec_ms = stats
                            .get("wall_ms")
                            .and_then(serde_json::Value::as_f64)
                            .unwrap_or(0.0);
                        r.events = n("events");
                        r.hydrated = n("hydrated");
                        r.published = n("published");
                        r.forked = n("forked");
                        r.retries = n("retries");
                        r.quarantined = n("quarantined");
                        settled += 1;
                    }
                }
                Event::RunQuarantined { run, detail } => {
                    for i in by_run.remove(&run).unwrap_or_default() {
                        let r = reqs.get_mut(&i).expect("own request");
                        r.failed = Some(format!("run quarantined: {detail}"));
                        settled += 1;
                    }
                }
                _ => {}
            }
            open -= settled;
            in_flight -= settled;
        }
        if in_flight == 0 {
            // Everything on this connection is settled: hang up.
            stream = None;
            buf.clear();
        }
    }
    reqs.into_iter().collect()
}

/// Everything a set-up produces: the daemon, the connection its `ping`
/// goes on, its dirs, and the inputs.
struct Setup {
    daemon: Daemon,
    conn: Option<UnixStream>,
    serve_dir: PathBuf,
    plan: Vec<Batch>,
    scenarios: Vec<Vec<Scenario>>,
    lines: Vec<String>,
}

/// Requests in one repetition of the open loop and repetitions in a run:
/// a run repeats the loop, each time against a fresh daemon, until it has
/// sent `seconds × RATE` requests, so every request is timed several
/// times in the same state.
fn shape(ctx: &Ctx) -> (usize, usize) {
    let total = ((ctx.seconds * RATE).round() as usize).max(6);
    let per = total.min(PER_REP);
    (per, (total / per).max(1))
}

/// The seeded request sequence of one repetition.
pub fn plan(ctx: &Ctx) -> Vec<Batch> {
    let n = shape(ctx).0;
    let gap = (GAP_S * RATE).ceil() as usize;
    let seed = check::input_seed(ctx.seed);
    let cold = ctx.workload == "serve-cold";
    inputs::sequence(seed, n, LEVELS, BINDINGS, |i, j| !cold && j + gap <= i)
}

fn setup(ctx: &Ctx, dir: &Path) -> Setup {
    let serve_dir = dir.join("serve");
    let snap_dir = dir.join("snaps");
    std::fs::create_dir_all(&serve_dir).expect("create serve dir");
    std::fs::create_dir_all(&snap_dir).expect("create snap dir");
    let plan = plan(ctx);
    let scenarios: Vec<Vec<Scenario>> = plan.iter().map(Batch::scenarios).collect();
    let lines = scenarios
        .iter()
        .enumerate()
        .map(|(i, scs)| {
            let values: Vec<serde_json::Value> = scs
                .iter()
                .map(|sc| serde_json::to_value(sc).expect("scenario serializes"))
                .collect();
            let client = format!("c{}", i % 2);
            format!(
                "{}\n",
                proto::submit_line(&client, &values, &SubmitOptions::default())
            )
        })
        .collect();
    // The socket path is relative: Unix socket paths are limited to ~108
    // bytes, and the checkout may live deep in the file system.
    let socket = dir.join("d.sock");
    let (daemon, conn) = Daemon::start(&socket, &serve_dir, &snap_dir);
    Setup {
        daemon,
        conn: Some(conn),
        serve_dir,
        plan,
        scenarios,
        lines,
    }
}

pub fn run(ctx: &Ctx, root: &Path, tracer: &Tracer) -> PhaseOut {
    let mut out = PhaseOut::default();
    let mut setups = SetupTimes::default();
    let (per, reps) = shape(ctx);
    let period = Duration::from_secs_f64(1.0 / RATE);
    // Summed or maximal over the repetitions' daemons.
    let (mut daemon_cpu, mut daemon_wchar, mut service_kb) = (0.0, 0, 0.0f64);
    let mut journal = JournalTraffic::default();
    let (mut lag, mut admit, mut exec, mut wait) = (vec![], vec![], vec![], vec![]);
    let mut reqs: Vec<Req> = Vec::new();
    let mut log = Vec::new();
    let mut first: Option<Setup> = None;
    for r in 0..reps {
        // Set-up: a fresh daemon in fresh directories.
        let dir = root.join(format!("rep{r}"));
        let mut s = setups.time(&dir, |d| setup(ctx, d));
        s.daemon.ping(s.conn.take().expect("fresh set-up"));
        let socket = dir.join("d.sock");
        let sizes: Vec<usize> = s.scenarios.iter().map(Vec::len).collect();
        let t0 = Instant::now() + Duration::from_millis(20);
        let due = move |i: usize| t0 + period * i as u32;
        let got: Vec<(usize, Req)> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..2)
                .map(|k| {
                    let (socket, lines, sizes) = (&socket, &s.lines, &sizes);
                    sc.spawn(move || connection(socket, k, lines, sizes, &due))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("generator thread"))
                .collect()
        });
        let mut rep = vec![Req::default(); s.lines.len()];
        for (i, q) in got {
            rep[i] = q;
        }
        let pid = s.daemon.pid();
        out.peak_rss_mb = out.peak_rss_mb.max(os::status_mb(&pid, "VmHWM"));
        daemon_cpu += os::proc_cpu_s(&pid);
        daemon_wchar += os::io_counter(&pid, "wchar");
        log = s.daemon.stop();
        // The per-run sweep journals only: how many records the service
        // journal gets depends on whether the scheduler's progress poll
        // saw a run between its lease and its end.
        journal.merge(crate::report::journal_traffic(
            &s.serve_dir.join("journal"),
            false,
        ));
        service_kb = service_kb.max(
            std::fs::metadata(s.serve_dir.join("serve.runs.jsonl")).map_or(0, |m| m.len()) as f64
                / 1024.0,
        );

        // Latency, lag and the admit/exec/wait split, per request. A
        // `done` later than DEADLINE after the request's own due time is
        // a failure, not a latency sample.
        let last_done = rep.iter().filter_map(|q| q.done).max().unwrap_or(t0);
        out.pass_samples
            .push(last_done.saturating_duration_since(t0).as_secs_f64());
        let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
        let mut lat = vec![f64::NAN; rep.len()];
        for (i, q) in rep.iter_mut().enumerate() {
            let (d, op) = (due(i), (r * per + i) as u64);
            if let Some(sent) = q.sent {
                lag.push(ms(d, sent));
            }
            if q.done
                .is_some_and(|t| t.saturating_duration_since(d) > DEADLINE)
            {
                q.failed
                    .get_or_insert_with(|| "no done by its deadline".into());
            }
            let Some(done) = q.done.filter(|_| q.failed.is_none()) else {
                continue;
            };
            lat[i] = ms(d, done);
            let a = q.admitted.map_or(0.0, |t| ms(d, t));
            admit.push(a);
            exec.push(q.exec_ms);
            wait.push((lat[i] - a - q.exec_ms).max(0.0));
            let root_span = tracer.record("request", op, None, d, done);
            if let Some(t) = q.admitted {
                tracer.record("served.admit", op, root_span, d, t);
                tracer.record("served.run", op, root_span, t, done);
            }
        }
        out.lat_ms.push(lat);
        reqs.extend(rep);
        if first.is_none() {
            first = Some(s);
        }
    }
    out.setup_s = setups.median();
    out.pass_s = stats::median(&out.pass_samples);
    let s = first.expect("at least one repetition");

    // Output check and failure accounting, over every repetition.
    if ctx.corrupt {
        if let Some(Some(Ok(d))) = reqs.iter_mut().rev().find_map(|q| q.results.last_mut()) {
            *d ^= 1;
        }
    }
    let mut got = Vec::new();
    let mut owner = Vec::new();
    for (i, q) in reqs.iter().enumerate() {
        for (sc, slot) in s.scenarios[i % per].iter().zip(&q.results) {
            let d = match slot {
                Some(d) => d.clone(),
                None => Err("no result".to_string()),
            };
            got.push((sc.label.clone(), d));
            owner.push(i);
        }
    }
    let recorded = check::recorded(&ctx.workload, check::input_seed(ctx.seed));
    let bad = check::against_cold(
        s.scenarios.iter().flatten(),
        &got,
        recorded.get(&s.scenarios.len().to_string()).copied(),
        &mut out.problems,
    );
    let mut failed = vec![false; reqs.len()];
    for b in bad {
        failed[owner[b]] = true;
    }
    for (i, q) in reqs.iter().enumerate() {
        if let Some(why) = &q.failed {
            out.problems.push(format!(
                "request {} of repetition {}: {why}",
                i % per,
                i / per
            ));
            failed[i] = true;
        } else if q.done.is_none() {
            out.problems.push(format!(
                "request {} of repetition {}: no done by its deadline",
                i % per,
                i / per
            ));
            failed[i] = true;
        } else if q.quarantined > 0 {
            failed[i] = true;
        }
    }
    if out.problems.len() > 40 {
        out.problems.truncate(40);
        out.problems.push("... (more)".into());
    }
    if failed.iter().any(|f| *f) {
        eprintln!(
            "perfbench serve: last daemon's log tail:\n{}",
            log.join("\n")
        );
    }
    out.attempted = reqs.len() as u64;
    out.failed = failed.iter().filter(|f| **f).count() as u64;

    // Per-layer figures.
    let mut m = Metrics::default();
    let sum = |f: fn(&Req) -> u64| reqs.iter().map(f).sum::<u64>();
    m.set("sim.events", sum(|q| q.events) as f64, "count");
    let busy_s: f64 = exec.iter().sum::<f64>() / 1e3;
    m.set(
        "sim.ns_per_event",
        busy_s * 1e9 / sum(|q| q.events).max(1) as f64,
        "ns",
    );
    m.set("snapshot.forks", sum(|q| q.forked) as f64, "count");
    m.set("snapshot.hydrated", sum(|q| q.hydrated) as f64, "count");
    m.set("snapshot.published", sum(|q| q.published) as f64, "count");
    m.set(
        "snapshot.hit_ratio",
        sum(|q| q.hydrated) as f64 / sum(|q| q.hydrated + q.published).max(1) as f64,
        "frac",
    );
    m.set("journal.records", journal.records as f64, "count");
    m.set("journal.mb_written", journal.written as f64 / 1e6, "MB");
    m.set(
        "journal.write_amp",
        journal.written as f64 / journal.final_bytes.max(1) as f64,
        "ratio",
    );
    m.set("sweep.retries", sum(|q| q.retries) as f64, "count");
    m.set("sweep.quarantined", sum(|q| q.quarantined) as f64, "count");
    m.set("served.admit_ms", stats::median(&admit), "ms");
    m.set("served.exec_ms", stats::median(&exec), "ms");
    m.set("served.wait_ms", stats::median(&wait), "ms");
    m.set(
        "served.queue_pos_max",
        reqs.iter().map(|q| q.position).max().unwrap_or(0) as f64,
        "count",
    );
    m.set(
        "served.rejects",
        reqs.iter()
            .filter(|q| {
                q.failed
                    .as_deref()
                    .is_some_and(|f| f.starts_with("rejected"))
            })
            .count() as f64,
        "count",
    );
    m.set("served.daemon_cpu_s", daemon_cpu, "s");
    m.set(
        "served.busy_frac",
        daemon_cpu / out.pass_samples.iter().sum::<f64>().max(1e-9),
        "frac",
    );
    m.set("served.daemon_write_mb", daemon_wchar as f64 / 1e6, "MB");
    m.set("served.service_journal_kb", service_kb, "KB");
    m.set("gen.lag_p90_ms", stats::percentile(&lag, 90.0), "ms");
    if tracer.enabled() {
        let plan: Vec<(Class, Vec<Scenario>)> = s
            .plan
            .iter()
            .zip(&s.scenarios)
            .map(|(b, sc)| (b.class, sc.clone()))
            .collect();
        probes::snapshot(root, &crate::sweep::ladders(&plan), &mut m, tracer);
    }
    out.layers = m;
    out
}
