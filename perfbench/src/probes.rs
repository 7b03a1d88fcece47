//! Direct timings of layers the engine calls internally — simulation
//! build, trunk simulation, fork, payload save/restore, snapshot-store
//! publish/load, journal append — made by calling the same public
//! functions on the workload's own inputs after the timed phase of the
//! traced run. How often the engine made each call comes from its
//! public stats, not from here.

use crate::report::Metrics;
use crate::stats::median;
use crate::trace::Tracer;
use biglittle::{Scenario, SimSnapshot, Simulation, StopWhen, SystemConfig, Workload};
use bl_simcore::budget::RunBudget;
use bl_simcore::journal::Journal;
use bl_simcore::snapstore::{SnapEntry, SnapStore, SNAP_FORMAT_VERSION};
use bl_simcore::time::SimDuration;
use bl_workloads::apps::app_by_name;
use std::path::Path;
use std::time::Instant;

fn prime_scenario(seed: u64) -> Scenario {
    let app = app_by_name("Angry Bird").expect("catalog app");
    Scenario::app(
        "perfbench-prime",
        app,
        SystemConfig::baseline().with_seed(seed),
    )
    .with_stop(StopWhen::Deadline(SimDuration::from_millis(200)))
}

/// Set-up priming: every catalog app for 10 s of simulated time, so lazy
/// one-time work (catalog and platform tables, first-touch allocations)
/// finishes and caches are warm before timing. Its tens of milliseconds
/// of steady CPU work also keep `setup_s` from being a few noisy
/// directory operations.
pub fn prime(seed: u64) {
    for app in bl_workloads::apps::mobile_apps() {
        Scenario::app(
            "perfbench-prime",
            app,
            SystemConfig::baseline().with_seed(seed),
        )
        .with_stop(StopWhen::Deadline(SimDuration::from_secs(10)))
        .run()
        .expect("priming scenario runs");
    }
}

fn time_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        v.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    median(&v)
}

fn build_sim(sc: &Scenario) -> Simulation {
    let mut sim = Simulation::builder()
        .platform(sc.platform.build())
        .config(sc.config.clone())
        .build()
        .expect("benchmark scenarios are valid");
    for w in &sc.workloads {
        if let Workload::App { app, affinity } = w {
            sim.spawn_app_with_affinity(app, *affinity);
        }
    }
    sim
}

/// `sim.build_us`: building a simulation and spawning an app.
pub fn build(seed: u64, m: &mut Metrics) {
    let sc = prime_scenario(seed);
    m.set("sim.build_us", time_us(50, || build_sim(&sc)), "us");
}

/// Snapshot-layer probes on `ladders` — the deepest scenario of a few of
/// the workload's own trunks.
pub fn snapshot(root: &Path, ladders: &[Scenario], m: &mut Metrics, tracer: &Tracer) {
    let Some(first) = ladders.first() else {
        return;
    };
    build(first.config.seed, m);
    let budget = RunBudget::unlimited();
    let mut trunk_ms = Vec::new();
    let mut chains = Vec::new();
    for (i, sc) in ladders.iter().enumerate() {
        let t0 = Instant::now();
        let chain = sc
            .snapshot_prefix_chain(&budget)
            .expect("benchmark trunks snapshot");
        let t1 = Instant::now();
        tracer.record("probe.trunk", i as u64, None, t0, t1);
        trunk_ms.push((t1 - t0).as_secs_f64() * 1e3);
        chains.push(chain);
    }
    m.set("snapshot.trunk_ms", median(&trunk_ms), "ms");

    let snap: &SimSnapshot = chains[0].last().expect("chain has a rung");
    m.set(
        "snapshot.fork_us",
        time_us(50, || Simulation::fork(snap).expect("fork")),
        "us",
    );
    let payload = snap.to_payload().expect("benchmark snapshots serialize");
    m.set(
        "snapshot.save_us",
        time_us(20, || snap.to_payload().expect("save")),
        "us",
    );
    let platform = first.platform.build();
    m.set(
        "snapshot.restore_us",
        time_us(20, || {
            SimSnapshot::from_payload(&platform, &payload, snap.fingerprint()).expect("restore")
        }),
        "us",
    );
    let bytes = serde_json::to_string(&payload)
        .expect("payload serializes")
        .len();
    m.set("snapshot.payload_kb", bytes as f64 / 1024.0, "KB");

    // Store publish and cold (disk-tier) load, one key per rung.
    let store_dir = root.join("probe-snaps");
    let store = SnapStore::open(&store_dir);
    let mut publish = Vec::new();
    let mut keys = Vec::new();
    for (c, chain) in chains.iter().enumerate() {
        for (r, s) in chain.iter().enumerate() {
            let key = format!("probe-{c}-{r}");
            let entry = SnapEntry {
                version: SNAP_FORMAT_VERSION,
                key: key.clone(),
                fingerprint: s.fingerprint(),
                warm_ms: 0.0,
                state: s.to_payload().expect("save"),
            };
            let t0 = Instant::now();
            store.publish(&entry).expect("probe publish");
            publish.push(t0.elapsed().as_secs_f64() * 1e3);
            keys.push(key);
        }
    }
    let cold = SnapStore::with_capacity(&store_dir, 0);
    let load: Vec<f64> = keys
        .iter()
        .map(|k| {
            let t0 = Instant::now();
            assert!(cold.load(k).is_some(), "probe entry {k} loads back");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.set("snapstore.publish_ms", median(&publish), "ms");
    m.set("snapstore.load_ms", median(&load), "ms");
    let _ = std::fs::remove_dir_all(&store_dir);
    journal_append_with(root, ladders, m, tracer);
}

/// `journal.append_ms` for a workload without ladders: the payloads are
/// results of its priming scenario.
pub fn journal_append(root: &Path, seed: u64, m: &mut Metrics, tracer: &Tracer) {
    journal_append_with(root, &[prime_scenario(seed)], m, tracer);
}

/// Appends 12 result records — one `sweep` batch's worth (6 scenarios,
/// a start and a done record each) — to a fresh journal, timing each
/// append.
fn journal_append_with(root: &Path, scenarios: &[Scenario], m: &mut Metrics, tracer: &Tracer) {
    let result = scenarios[0].run().expect("probe scenario runs");
    let payload = serde_json::to_string(&result).expect("result serializes");
    let mut j = Journal::open(root.join("probe-journal/probe.jsonl"), false).expect("journal");
    let mut v = Vec::new();
    for i in 0..12u64 {
        let t0 = Instant::now();
        j.append(&payload).expect("probe append");
        let t1 = Instant::now();
        tracer.record("probe.journal_append", i, None, t0, t1);
        v.push((t1 - t0).as_secs_f64() * 1e3);
    }
    m.set("journal.append_ms", median(&v), "ms");
    let _ = std::fs::remove_dir_all(root.join("probe-journal"));
}
