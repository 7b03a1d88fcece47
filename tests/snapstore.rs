//! Persistent snapshot-store correctness: serialized snapshots must
//! hydrate back to byte-identical simulations (guarded by the state
//! fingerprint), a store-backed sweep must publish trunks once and
//! hydrate them on every later invocation, and corrupt or mismatched
//! entries must self-heal — dropped and rebuilt, never trusted.

use biglittle::{sweep, LateBindings, Scenario, SimSnapshot, StopWhen, SweepOptions, SystemConfig};
use bl_governor::GovernorConfig;
use bl_simcore::budget::RunBudget;
use bl_simcore::fault::{FaultKind, FaultPlan};
use bl_simcore::journal::fnv1a;
use bl_simcore::snapstore::SnapStore;
use bl_simcore::time::{SimDuration, SimTime};
use bl_workloads::apps::app_by_name;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const WARMUP_MS: u64 = 400;
const STOP_MS: u64 = 600;

/// One grid point, mirroring `tests/snapshot.rs`: a TLP-heavy app warmed
/// up for `WARMUP_MS` with the varying knobs bound late. `prefix_faults`
/// leaves a cluster outage in flight at the snapshot instant.
fn grid_point(
    label: &str,
    seed: u64,
    skip_ahead: bool,
    prefix_faults: bool,
    late: LateBindings,
) -> Scenario {
    let mut cfg = SystemConfig::baseline()
        .with_seed(seed)
        .with_skip_ahead(skip_ahead);
    if prefix_faults {
        cfg = cfg.with_faults(FaultPlan::new().with_outage(
            SimTime::from_millis(100),
            SimDuration::from_millis(500),
            &[1, 5],
        ));
    }
    let app = app_by_name("Angry Bird").unwrap();
    Scenario::app(label, app, cfg)
        .with_stop(StopWhen::Deadline(SimDuration::from_millis(STOP_MS)))
        .with_warmup(SimDuration::from_millis(WARMUP_MS))
        .with_late(late)
}

fn late_variant(idx: usize) -> LateBindings {
    match idx % 4 {
        0 => LateBindings::default(),
        1 => LateBindings {
            governors: Some(vec![GovernorConfig::Performance, GovernorConfig::Powersave]),
            faults: FaultPlan::new(),
        },
        2 => LateBindings {
            governors: None,
            faults: FaultPlan::new().with(
                SimTime::from_millis(WARMUP_MS + 50),
                FaultKind::ThermalSpike {
                    cluster: 0,
                    delta_c: 6.0,
                },
            ),
        },
        _ => LateBindings {
            governors: Some(vec![GovernorConfig::Powersave, GovernorConfig::Performance]),
            faults: FaultPlan::new().with(
                SimTime::from_millis(WARMUP_MS),
                FaultKind::GovernorStall {
                    cluster: 1,
                    missed_samples: 2,
                },
            ),
        },
    }
}

/// Round-trips a snapshot through its serialized payload and returns the
/// hydrated copy, verifying against the original fingerprint.
fn round_trip(sc: &Scenario, snap: &SimSnapshot) -> SimSnapshot {
    let payload = snap.to_payload().expect("snapshot serializes");
    SimSnapshot::from_payload(&sc.platform.build(), &payload, snap.fingerprint())
        .expect("payload hydrates")
}

/// The snapshot at `sc`'s warm-up point: the last rung of its chain.
fn warm_snapshot(sc: &Scenario, budget: &RunBudget) -> SimSnapshot {
    sc.snapshot_prefix_chain(budget).unwrap().pop().unwrap()
}

#[test]
fn payload_round_trip_preserves_fingerprint_and_forks() {
    let sc = grid_point("rt", 11, true, true, late_variant(1));
    let budget = RunBudget::unlimited();
    let snap = warm_snapshot(&sc, &budget);
    let hydrated = round_trip(&sc, &snap);
    assert_eq!(snap.fingerprint(), hydrated.fingerprint());
    let cold = sc.run_with_budget(&budget).unwrap();
    let forked = sc.run_forked(&hydrated, &budget).unwrap();
    assert_eq!(cold, forked);
    // The hydrated snapshot is reusable, like the in-memory original.
    assert_eq!(cold, sc.run_forked(&hydrated, &budget).unwrap());
}

#[test]
fn fingerprint_mismatch_rejects_the_payload() {
    let sc = grid_point("fp-gate", 5, true, false, late_variant(0));
    let snap = warm_snapshot(&sc, &RunBudget::unlimited());
    let payload = snap.to_payload().unwrap();
    let err = SimSnapshot::from_payload(&sc.platform.build(), &payload, snap.fingerprint() ^ 1);
    assert!(err.is_err(), "a wrong fingerprint must never hydrate");
}

/// The committed fingerprint of one pinned scenario. This is a regression
/// tripwire, not a universal constant: it moves whenever the simulation's
/// numerics change on purpose (new platform tables, a reworked governor,
/// an event reordering). When a change here is *intended*, update the
/// constant; when this fails unexpectedly, determinism broke.
const GOLDEN_FINGERPRINT: u64 = 17027290288844323559;

#[test]
fn golden_fingerprint_regression() {
    let sc = grid_point("golden", 42, true, false, late_variant(0));
    let snap = warm_snapshot(&sc, &RunBudget::unlimited());
    assert_eq!(
        snap.fingerprint(),
        GOLDEN_FINGERPRINT,
        "pinned scenario's warm-state fingerprint moved: either an intended \
         numeric change (update the constant) or a determinism regression"
    );
}

/// FNV-1a of the pinned scenario's serialized snapshot payload: the
/// on-disk `.snap` format, byte for byte. When the payload format changes
/// on purpose, bump `SNAP_FORMAT_VERSION` (so stores written by older
/// builds read as misses) and update this constant; when it fails
/// unexpectedly, a refactor silently changed what the store writes.
const GOLDEN_PAYLOAD_DIGEST: u64 = 0xdce1_fca5_7875_210e;

#[test]
fn golden_payload_digest() {
    let sc = grid_point("golden", 42, true, false, late_variant(0));
    let snap = warm_snapshot(&sc, &RunBudget::unlimited());
    let json = serde_json::to_string(&snap.to_payload().unwrap()).unwrap();
    assert_eq!(
        fnv1a(json.as_bytes()),
        GOLDEN_PAYLOAD_DIGEST,
        "pinned scenario's snapshot payload ({} bytes) changed: bump \
         SNAP_FORMAT_VERSION and this constant if intended",
        json.len()
    );
}

// ---- store-backed sweeps ---------------------------------------------------

/// The warm-up ladder for store sweeps: nested prefixes.
const LADDER_MS: [u64; 3] = [200, 320, 400];

fn ladder_point(label: &str, seed: u64, level: usize, late: LateBindings) -> Scenario {
    let via: Vec<SimDuration> = LADDER_MS[..level]
        .iter()
        .map(|&ms| SimDuration::from_millis(ms))
        .collect();
    grid_point(label, seed, true, false, late)
        .with_stop(StopWhen::Deadline(SimDuration::from_millis(
            LADDER_MS[level] + 150,
        )))
        .with_warmup(SimDuration::from_millis(LADDER_MS[level]))
        .with_warmup_via(via)
}

fn ladder_batch(seed: u64) -> Vec<Scenario> {
    [0usize, 1, 2, 2]
        .iter()
        .enumerate()
        .map(|(i, &lv)| ladder_point(&format!("store-{i}"), seed, lv, late_variant(i)))
        .collect()
}

fn result_bytes(report: &sweep::SweepReport) -> Vec<String> {
    report
        .results
        .iter()
        .map(|r| serde_json::to_string(r.as_ref().unwrap()).unwrap())
        .collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bl-snapstore-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn snap_files(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "snap"))
                .collect()
        })
        .unwrap_or_default();
    v.sort();
    v
}

#[test]
fn store_publishes_once_then_hydrates_bit_identically() {
    let scenarios = ladder_batch(13);
    let dir = temp_dir("roundtrip");
    let run = |store: bool| {
        let mut opts = SweepOptions::serial();
        if store {
            opts = opts.snap_stored(&dir);
        }
        sweep::run_with(&scenarios, &opts)
    };

    let cold = sweep::run_with(&scenarios, &SweepOptions::serial().prefix_sharing(false));

    // First store run: the trunk simulates once, every rung publishes.
    let first = run(true);
    assert_eq!(first.stats.snapshot.trunk_runs, 1);
    assert_eq!(first.stats.snapshot.published, LADDER_MS.len() as u64);
    assert_eq!(first.stats.snapshot.hydrated, 0);
    assert_eq!(first.stats.snapshot.forks, scenarios.len() as u64);
    assert_eq!(snap_files(&dir).len(), LADDER_MS.len());
    assert_eq!(result_bytes(&cold), result_bytes(&first));

    // Second store run: every rung hydrates, no trunk simulates, and the
    // saved-time credit is the deepest rung's recorded build time.
    let second = run(true);
    assert_eq!(second.stats.snapshot.trunk_runs, 0);
    assert_eq!(second.stats.snapshot.hydrated, LADDER_MS.len() as u64);
    assert!(second.stats.snapshot.trunk_ms_saved > 0.0);
    assert_eq!(result_bytes(&cold), result_bytes(&second));

    // Disabling prefix sharing also disables the store, even when a
    // directory is configured.
    let off = sweep::run_with(
        &scenarios,
        &SweepOptions::serial()
            .prefix_sharing(false)
            .snap_stored(&dir),
    );
    assert_eq!(off.stats.snapshot.hydrated, 0);
    assert_eq!(off.stats.snapshot.published, 0);
    assert_eq!(result_bytes(&cold), result_bytes(&off));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn singleton_scenarios_hydrate_from_the_store_too() {
    // One scenario alone gains nothing from in-process sharing — but with
    // a warm store, even a singleton skips its warm-up replay.
    let sc = vec![ladder_point("solo", 29, 2, late_variant(1))];
    let dir = temp_dir("solo");
    let cold = sweep::run_with(&sc, &SweepOptions::serial().prefix_sharing(false));
    let publish = sweep::run_with(&sc, &SweepOptions::serial().snap_stored(&dir));
    assert_eq!(publish.stats.snapshot.trunk_runs, 1);
    assert_eq!(publish.stats.snapshot.published, LADDER_MS.len() as u64);
    let hydrate = sweep::run_with(&sc, &SweepOptions::serial().snap_stored(&dir));
    assert_eq!(hydrate.stats.snapshot.trunk_runs, 0);
    assert_eq!(hydrate.stats.snapshot.hydrated, LADDER_MS.len() as u64);
    assert_eq!(hydrate.stats.snapshot.forks, 1);
    assert_eq!(result_bytes(&cold), result_bytes(&publish));
    assert_eq!(result_bytes(&cold), result_bytes(&hydrate));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_lone_pending_member_of_a_ladder_hydrates_its_whole_chain() {
    // A ladder published with the cache on, then one member's cache entry
    // deleted: that member is the only one of its group left to simulate,
    // and a warm store spares it the warm-up replay.
    let scenarios = ladder_batch(31);
    let dir = temp_dir("lone");
    let opts = SweepOptions::serial()
        .cached(dir.join("cache"))
        .snap_stored(dir.join("snapshots"));
    let cold = sweep::run_with(&scenarios, &SweepOptions::serial().prefix_sharing(false));
    let first = sweep::run_with(&scenarios, &opts);
    assert_eq!(first.stats.snapshot.published, LADDER_MS.len() as u64);

    let lone = 1;
    let key = sweep::cache_key_with(&scenarios[lone], &opts);
    std::fs::remove_file(dir.join("cache").join(format!("{key}.json"))).unwrap();
    let rerun = sweep::run_with(&scenarios, &opts);
    assert_eq!(rerun.stats.cache_hits, scenarios.len() as u64 - 1);
    let chain_len = scenarios[lone].chain_points().len() as u64;
    assert_eq!(rerun.stats.snapshot.hydrated, chain_len);
    assert_eq!(rerun.stats.snapshot.trunk_runs, 0);
    assert_eq!(rerun.stats.snapshot.forks, 1);
    assert!(rerun.stats.per_scenario[lone].forked);
    assert_eq!(result_bytes(&cold), result_bytes(&rerun));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_store_entries_self_heal_and_rebuild() {
    let scenarios = ladder_batch(17);
    let dir = temp_dir("corrupt");
    let run = || sweep::run_with(&scenarios, &SweepOptions::serial().snap_stored(&dir));
    let cold = sweep::run_with(&scenarios, &SweepOptions::serial().prefix_sharing(false));
    let first = run();
    assert_eq!(first.stats.snapshot.published, LADDER_MS.len() as u64);

    // Truncate one rung mid-payload: the checksum no longer matches, the
    // store deletes the entry on load, and the all-or-rebuild chain
    // policy re-simulates (and republishes) the whole trunk.
    let victim = snap_files(&dir).pop().expect("a published rung on disk");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
    let healed = run();
    assert_eq!(healed.stats.snapshot.hydrated, 0, "no rung may survive");
    assert_eq!(healed.stats.snapshot.trunk_runs, 1);
    assert_eq!(healed.stats.snapshot.published, LADDER_MS.len() as u64);
    assert_eq!(result_bytes(&cold), result_bytes(&healed));

    // A checksum-valid entry whose *fingerprint* lies: hydration verifies
    // the rebuilt state against the recorded fingerprint, discards the
    // entry and re-simulates rather than trusting the bytes.
    let store = SnapStore::open(&dir);
    let key = snap_files(&dir)
        .first()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .expect("a published rung on disk");
    let mut entry = store.load(&key).expect("entry loads");
    entry.fingerprint ^= 1;
    store.publish(&entry).unwrap();
    let reverified = sweep::run_with(&scenarios, &SweepOptions::serial().snap_stored(&dir));
    assert_eq!(reverified.stats.snapshot.trunk_runs, 1);
    assert_eq!(result_bytes(&cold), result_bytes(&reverified));
    // The store is clean again afterwards: a fourth run hydrates fully.
    let clean = run();
    assert_eq!(clean.stats.snapshot.trunk_runs, 0);
    assert_eq!(clean.stats.snapshot.hydrated, LADDER_MS.len() as u64);

    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Randomized hydrate-vs-cold equivalence: the snapshot goes through
    // the full serialize → deserialize → fingerprint-verify pipeline
    // before forking, across the late-binding grid, with and without
    // faults active at the snapshot instant, in both hot-loop modes.
    #[test]
    fn hydrate_vs_cold_bit_identical(
        seed in 0u64..1_000,
        late_idx in 0usize..4,
        prefix_faults in proptest::bool::ANY,
        skip_ahead in proptest::bool::ANY,
    ) {
        let sc = grid_point("prop", seed, skip_ahead, prefix_faults, late_variant(late_idx));
        let budget = RunBudget::unlimited();
        let cold = sc.run_with_budget(&budget).unwrap();
        let snap = warm_snapshot(&sc, &budget);
        let hydrated = round_trip(&sc, &snap);
        let forked = sc.run_forked(&hydrated, &budget).unwrap();
        prop_assert_eq!(cold, forked);
    }
}
