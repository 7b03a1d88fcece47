//! Cross-process tests for the serve daemon: submitting to the daemon
//! must be byte-identical to a one-shot sweep, a SIGKILLed and restarted
//! daemon must converge reconnecting clients on the same bytes (also
//! with two clients overlapping), malformed and oversized input must draw
//! typed rejections without poisoning the connection, a slow trickle must
//! cost only its own connection, a flood past admission capacity must
//! draw typed backpressure while wedged runs are quarantined, and a
//! second batch sharing a warm-up prefix must hydrate trunks from the
//! daemon's persistent snapshot store.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn temp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bl-serve-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Runs the demo sweep one-shot (no daemon) in its own directory and
/// returns the report bytes — the byte-identity reference.
fn oneshot_reference(name: &str, seed: u64) -> Vec<u8> {
    let cwd = temp_dir(name);
    let status = repro()
        .args([
            "--demo-sweep",
            "ref.json",
            "--no-cache",
            "--jobs",
            "1",
            "--seed",
            &seed.to_string(),
        ])
        .current_dir(&cwd)
        .stderr(Stdio::null())
        .status()
        .expect("spawn one-shot reference sweep");
    assert!(status.success());
    let bytes = std::fs::read(cwd.join("ref.json")).expect("reference report exists");
    let _ = std::fs::remove_dir_all(&cwd);
    bytes
}

/// A daemon child that is SIGKILLed when dropped — a panicking test must
/// not leak a live daemon (an orphan holding the harness's stdout pipe
/// open hangs the whole test run).
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns a daemon on `socket` with its state under `state`.
fn spawn_daemon(socket: &Path, state: &Path, extra: &[&str]) -> Daemon {
    Daemon(
        daemon_cmd(socket, state, extra)
            .spawn()
            .expect("spawn serve daemon"),
    )
}

/// The `repro serve` command [`spawn_daemon`] runs.
fn daemon_cmd(socket: &Path, state: &Path, extra: &[&str]) -> Command {
    let mut cmd = repro();
    cmd.args([
        "serve",
        "--socket",
        socket.to_str().unwrap(),
        "--serve-dir",
        state.to_str().unwrap(),
        "--snap-store-dir",
        state.join("snapshots").to_str().unwrap(),
        "--heartbeat-ms",
        "100",
    ]);
    cmd.args(extra).stdout(Stdio::null()).stderr(Stdio::null());
    cmd
}

fn wait_for_socket(socket: &Path) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if UnixStream::connect(socket).is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("daemon socket never came up at {}", socket.display());
}

/// A `repro submit --demo` invocation wired for fast reconnects.
fn submit_demo(socket: &Path, out: &Path, seed: u64, client: &str) -> Command {
    let mut cmd = repro();
    cmd.args([
        "submit",
        "--socket",
        socket.to_str().unwrap(),
        "--demo",
        out.to_str().unwrap(),
        "--seed",
        &seed.to_string(),
        "--client",
        client,
        "--reconnects",
        "60",
        "--backoff-ms",
        "100",
        "--quiet",
    ]);
    cmd
}

/// Completed-scenario records across the daemon's per-run sweep journals.
fn journal_done_records(state: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(state.join("journal")) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
        .map(|e| {
            std::fs::read_to_string(e.path())
                .map(|t| t.lines().filter(|l| l.contains("\"done\"")).count())
                .unwrap_or(0)
        })
        .sum()
}

/// A raw client connection plus the bytes read past the last answer
/// returned, so answers that arrive in one read chunk are all kept.
struct LineConn {
    stream: UnixStream,
    buf: Vec<u8>,
}

/// Reads one newline-terminated answer off a raw connection.
fn read_line(conn: &mut LineConn, within: Duration) -> Option<String> {
    let _ = conn
        .stream
        .set_read_timeout(Some(Duration::from_millis(50)));
    let deadline = Instant::now() + within;
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(nl) = conn.buf.iter().position(|b| *b == b'\n') {
            let line: Vec<u8> = conn.buf.drain(..=nl).collect();
            return Some(String::from_utf8_lossy(&line[..line.len() - 1]).to_string());
        }
        if Instant::now() >= deadline {
            return None;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return None,
        }
    }
}

#[test]
fn submit_demo_matches_oneshot_reference() {
    let reference = oneshot_reference("submit-ref", 42);
    let dir = temp_dir("submit");
    let socket = dir.join("serve.sock");
    let state = dir.join("state");
    let daemon = spawn_daemon(&socket, &state, &[]);
    wait_for_socket(&socket);

    let out = dir.join("out.json");
    let status = submit_demo(&socket, &out, 42, "t1")
        .stderr(Stdio::null())
        .status()
        .expect("spawn submit");
    assert!(status.success(), "submit must exit 0");
    let served = std::fs::read(&out).expect("submit report exists");
    assert_eq!(
        served, reference,
        "served demo report differs from the one-shot reference"
    );

    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_sigkill_restart_resubmit_is_byte_identical() {
    let reference = oneshot_reference("kill-ref", 43);
    let dir = temp_dir("kill");
    let socket = dir.join("serve.sock");
    let state = dir.join("state");
    let mut daemon = spawn_daemon(&socket, &state, &[]);
    wait_for_socket(&socket);

    let out = dir.join("out.json");
    let client = submit_demo(&socket, &out, 43, "chaos")
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn submit");

    // SIGKILL the daemon once the run is observably mid-flight.
    let poll_deadline = Instant::now() + Duration::from_secs(120);
    while journal_done_records(&state) < 1 {
        assert!(
            Instant::now() < poll_deadline,
            "no journaled progress before the kill deadline"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    daemon.0.kill().expect("SIGKILL daemon");
    let _ = daemon.0.wait();
    std::thread::sleep(Duration::from_millis(300));

    // Restart on the same socket and state; the client reconnects,
    // resubmits, and the journal replays completed scenarios.
    let daemon = spawn_daemon(&socket, &state, &[]);
    wait_for_socket(&socket);
    let output = client.wait_with_output().expect("wait for submit client");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "reconnecting submit must exit 0");
    let served = std::fs::read(&out).expect("submit report exists");
    assert_eq!(
        served, reference,
        "post-SIGKILL report differs from the one-shot reference"
    );
    let reconnects = stderr
        .split(" reconnect(s)")
        .next()
        .and_then(|head| head.rsplit(' ').next()?.parse::<u64>().ok());
    assert!(
        reconnects >= Some(1),
        "the client reconnected to the restarted daemon: {stderr}"
    );

    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_resume_byte_identically_after_sigkill() {
    let ref_a = oneshot_reference("pair-ref-a", 50);
    let ref_b = oneshot_reference("pair-ref-b", 51);
    let dir = temp_dir("pair");
    let socket = dir.join("serve.sock");
    let state = dir.join("state");
    let mut daemon = spawn_daemon(&socket, &state, &["--max-active", "2"]);
    wait_for_socket(&socket);

    // Two clients with overlapping, distinct batches.
    let out_a = dir.join("a.json");
    let out_b = dir.join("b.json");
    let mut client_a = submit_demo(&socket, &out_a, 50, "alice")
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn client a");
    let mut client_b = submit_demo(&socket, &out_b, 51, "bob")
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn client b");

    // Kill the daemon while both batches are in flight.
    let poll_deadline = Instant::now() + Duration::from_secs(120);
    while journal_done_records(&state) < 1 {
        assert!(
            Instant::now() < poll_deadline,
            "no journaled progress before the kill deadline"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    daemon.0.kill().expect("SIGKILL daemon");
    let _ = daemon.0.wait();
    std::thread::sleep(Duration::from_millis(300));

    // The restarted daemon adopts the service journal and both clients
    // converge on the one-shot bytes.
    let daemon = spawn_daemon(&socket, &state, &["--max-active", "2"]);
    wait_for_socket(&socket);
    let status_a = client_a.wait().expect("wait client a");
    let status_b = client_b.wait().expect("wait client b");
    assert!(status_a.success(), "client a must exit 0");
    assert!(status_b.success(), "client b must exit 0");
    assert_eq!(
        std::fs::read(&out_a).expect("report a exists"),
        ref_a,
        "client a's post-restart report differs from its reference"
    );
    assert_eq!(
        std::fs::read(&out_b).expect("report b exists"),
        ref_b,
        "client b's post-restart report differs from its reference"
    );

    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_draw_typed_rejections_and_spare_the_connection() {
    let dir = temp_dir("malformed");
    let socket = dir.join("serve.sock");
    let state = dir.join("state");
    let daemon = spawn_daemon(&socket, &state, &["--stall-timeout-ms", "600"]);
    wait_for_socket(&socket);

    let mut conn = LineConn {
        stream: UnixStream::connect(&socket).expect("connect"),
        buf: Vec::new(),
    };
    // An oversized line is discarded up to its newline, unparsed.
    let oversized = "x".repeat(2 * bl_served::proto::MAX_LINE_BYTES);
    for (line, reason) in [
        ("truncated json {\"op\":", "malformed"),
        ("{\"op\":\"submit\",\"scenarios\":[]}", "empty-batch"),
        ("{\"op\":\"submit\",\"scenarios\":[1,2]}", "malformed"),
        ("{\"op\":\"ping\",\"surprise\":true}", "malformed"),
        ("{\"op\":\"launch-missiles\"}", "malformed"),
        (oversized.as_str(), "too-large"),
        ("{\"op\":\"ping\"}", "pong"),
    ] {
        conn.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send malformed request");
        let answer = read_line(&mut conn, Duration::from_secs(10))
            .unwrap_or_else(|| panic!("no answer to {:.40?}", line));
        let typed = reason == "pong" || answer.contains("\"rejected\"");
        assert!(
            typed && answer.contains(reason),
            "expected a typed {reason} answer to {line:.40?}, got {answer}"
        );
    }

    // A zero budget on an otherwise well-formed batch draws the typed
    // bad-budget rejection (scenario decoding happens first, so the
    // scenarios must be real).
    let zero_budget = bl_served::proto::submit_line(
        "hardening",
        &demo_scenarios(61, 2, 100),
        &bl_served::SubmitOptions {
            deadline_ms: Some(0),
            ..Default::default()
        },
    );
    conn.stream
        .write_all(format!("{zero_budget}\n").as_bytes())
        .expect("send zero-budget submit");
    let answer = read_line(&mut conn, Duration::from_secs(5)).expect("bad-budget answer");
    assert!(
        answer.contains("\"rejected\"") && answer.contains("bad-budget"),
        "expected a typed bad-budget rejection, got {answer}"
    );

    // The same connection still serves real work: a valid submission is
    // admitted and runs to completion.
    let batch = bl_served::proto::submit_line(
        "hardening",
        &demo_scenarios(60, 1, 200),
        &bl_served::SubmitOptions::default(),
    );
    conn.stream
        .write_all(format!("{batch}\n").as_bytes())
        .expect("send valid submit");
    let answer = read_line(&mut conn, Duration::from_secs(10)).expect("admission answer");
    assert!(
        answer.contains("\"admitted\""),
        "valid submission after rejections must be admitted, got {answer}"
    );
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut done = false;
    while Instant::now() < deadline {
        let Some(line) = read_line(&mut conn, Duration::from_secs(5)) else {
            break;
        };
        if line.contains("\"ev\":\"done\"") {
            done = true;
            break;
        }
    }
    assert!(done, "the post-rejection submission must run to completion");

    // A partial line going nowhere: after the stall timeout the daemon
    // closes that connection, and only that one.
    let mut trickle = UnixStream::connect(&socket).expect("connect");
    trickle.write_all(b"{\"op\":").expect("send a partial line");
    trickle
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let read = trickle.read(&mut [0u8; 64]);
    assert_eq!(read.ok(), Some(0), "the stalled connection is closed");
    conn.stream
        .write_all(b"{\"op\":\"ping\"}\n")
        .expect("send ping");
    let answer = read_line(&mut conn, Duration::from_secs(5)).expect("pong");
    assert!(answer.contains("\"pong\""), "got {answer}");

    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flood_past_capacity_draws_typed_rejections_and_wedged_runs_are_quarantined() {
    let dir = temp_dir("flood");
    let socket = dir.join("serve.sock");
    let state = dir.join("state");
    // Every run wedges, so capacity (1 active + 2 queued) fills and stays
    // full until the wedge timeout quarantines the runs one by one.
    let flags = [
        "--max-queued",
        "2",
        "--max-active",
        "1",
        "--wedge-timeout-ms",
        "800",
    ];
    let _daemon = Daemon(
        daemon_cmd(&socket, &state, &flags)
            .env(bl_served::WEDGE_ENV, "1")
            .spawn()
            .expect("spawn serve daemon"),
    );
    wait_for_socket(&socket);

    let mut conns: Vec<LineConn> = (0..6u64)
        .map(|salt| {
            let line = bl_served::proto::submit_line(
                "flood",
                &demo_scenarios(42, 100 + salt, 200),
                &bl_served::SubmitOptions::default(),
            );
            let mut stream = UnixStream::connect(&socket).expect("connect");
            stream
                .write_all(format!("{line}\n").as_bytes())
                .expect("send flood submit");
            LineConn {
                stream,
                buf: Vec::new(),
            }
        })
        .collect();
    let (mut admitted, mut rejected) = (Vec::new(), 0);
    for (i, conn) in conns.iter_mut().enumerate() {
        let answer = read_line(conn, Duration::from_secs(10)).expect("an answer");
        if answer.contains("\"admitted\"") {
            admitted.push(i);
        } else if answer.contains("queue-full") || answer.contains("overloaded") {
            rejected += 1;
        }
    }
    assert_eq!((admitted.len(), rejected), (3, 3), "of 6 distinct batches");
    let status = bl_served::control(&socket, "status").expect("status mid-flood");
    assert!(status.contains("\"queued\""), "got {status}");

    // The first admitted run heartbeats while wedged, then is cancelled
    // and quarantined.
    let conn = &mut conns[admitted[0]];
    let (mut heartbeats, mut quarantined) = (0, false);
    let deadline = Instant::now() + Duration::from_secs(20);
    while let Some(line) = read_line(conn, deadline.saturating_duration_since(Instant::now())) {
        heartbeats += usize::from(line.contains("\"heartbeat\""));
        if line.contains("\"quarantined\"") {
            quarantined = true;
            break;
        }
    }
    assert!(heartbeats >= 1, "the wedged run heartbeats while stuck");
    assert!(quarantined, "the wedged run is quarantined");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fresh_connections_are_accepted_without_waiting_on_a_poll() {
    let dir = temp_dir("accept");
    let socket = dir.join("serve.sock");
    let state = dir.join("state");
    let mut daemon = spawn_daemon(&socket, &state, &[]);
    wait_for_socket(&socket);

    // An accept loop that polled would hold each connection until its
    // next poll; 20 round trips must not add up to even one poll each.
    let started = Instant::now();
    for i in 0..20 {
        let mut conn = LineConn {
            stream: UnixStream::connect(&socket).expect("connect"),
            buf: Vec::new(),
        };
        conn.stream
            .write_all(b"{\"op\":\"ping\"}\n")
            .expect("send ping");
        let answer = read_line(&mut conn, Duration::from_secs(5))
            .unwrap_or_else(|| panic!("no answer to ping {i}"));
        assert!(answer.contains("\"pong\""), "ping {i} answered {answer}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "20 ping round trips on fresh connections took {elapsed:?}"
    );

    // Drain still wakes the blocked accept loop and the daemon exits 0.
    let drain = repro()
        .args(["submit", "--socket", socket.to_str().unwrap(), "--drain"])
        .stderr(Stdio::null())
        .output()
        .expect("spawn drain");
    assert!(drain.status.success(), "drain request must succeed");
    let ack = String::from_utf8_lossy(&drain.stdout);
    assert!(ack.contains("draining"), "drain is acknowledged: {ack}");
    let deadline = Instant::now() + Duration::from_secs(30);
    let exit = loop {
        if let Some(exit) = daemon.0.try_wait().expect("poll daemon") {
            break exit;
        }
        assert!(Instant::now() < deadline, "daemon did not exit after drain");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(exit.success(), "drained daemon exited with {exit}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tiny deterministic scenarios for the socket-level tests.
fn demo_scenarios(seed: u64, salt: u64, sim_ms: u64) -> Vec<Value> {
    use biglittle::{Scenario, SystemConfig};
    use bl_platform::ids::CpuId;
    use bl_simcore::time::SimDuration;

    (0..2u64)
        .map(|i| {
            let sc = Scenario::microbench(
                format!("serve-cli-{salt}-{i}"),
                CpuId((i % 4) as usize),
                0.25 + 0.1 * i as f64,
                SimDuration::from_millis(10),
                SimDuration::from_millis(sim_ms),
                SystemConfig::baseline().with_seed(seed ^ (salt << 8) ^ i),
            );
            serde_json::to_value(&sc).expect("scenario serializes")
        })
        .collect()
}

/// Scenarios sharing one warm-up prefix (same config, seed, workload
/// shape, warm-up point) but with batch-distinct labels and run lengths —
/// the shape that exercises cross-batch trunk reuse through the
/// persistent snapshot store.
fn warmup_scenarios(tag: &str, run_ms: u64) -> Vec<Value> {
    use biglittle::{Scenario, SystemConfig};
    use bl_platform::ids::CpuId;
    use bl_simcore::time::SimDuration;

    (0..2u64)
        .map(|i| {
            let sc = Scenario::microbench(
                format!("hydrate-{tag}-{i}"),
                CpuId(i as usize),
                0.3 + 0.2 * i as f64,
                SimDuration::from_millis(10),
                SimDuration::from_millis(run_ms),
                SystemConfig::baseline().with_seed(7_000 + i),
            )
            .with_warmup(SimDuration::from_millis(100));
            serde_json::to_value(&sc).expect("scenario serializes")
        })
        .collect()
}

fn submit_batch(socket: &Path, input: &Path, output: &Path) {
    let status = repro()
        .args([
            "submit",
            "--socket",
            socket.to_str().unwrap(),
            "--batch",
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--reconnects",
            "20",
            "--backoff-ms",
            "100",
            "--quiet",
        ])
        .stderr(Stdio::null())
        .status()
        .expect("spawn submit --batch");
    assert!(status.success(), "submit --batch must exit 0");
}

fn stats_counter(report_path: &Path, key: &str) -> u64 {
    let text = std::fs::read_to_string(report_path).expect("report exists");
    let v: Value = serde_json::from_str(&text).expect("report is JSON");
    v.get("stats")
        .and_then(|s| s.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no stats.{key} in {}", report_path.display()))
}

#[test]
fn second_batch_hydrates_warm_trunks_from_the_daemon_store() {
    let dir = temp_dir("hydrate");
    let socket = dir.join("serve.sock");
    let state = dir.join("state");
    let daemon = spawn_daemon(&socket, &state, &[]);
    wait_for_socket(&socket);

    let in_a = dir.join("a.batch.json");
    let in_b = dir.join("b.batch.json");
    std::fs::write(
        &in_a,
        serde_json::to_string(&Value::Array(warmup_scenarios("a", 300))).unwrap(),
    )
    .unwrap();
    std::fs::write(
        &in_b,
        serde_json::to_string(&Value::Array(warmup_scenarios("b", 400))).unwrap(),
    )
    .unwrap();

    // Batch A builds the warm trunks and publishes them to the store.
    let out_a = dir.join("a.json");
    submit_batch(&socket, &in_a, &out_a);
    assert!(
        stats_counter(&out_a, "published") >= 1,
        "the first warm-up batch must publish trunk snapshots"
    );

    // Batch B shares the warm-up prefix: its streamed stats must show
    // trunks hydrated from the store instead of re-simulated.
    let out_b = dir.join("b.json");
    submit_batch(&socket, &in_b, &out_b);
    assert!(
        stats_counter(&out_b, "hydrated") >= 1,
        "the second batch must hydrate the shared trunks from the store"
    );

    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
