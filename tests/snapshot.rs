//! Snapshot/fork correctness: a run forked from a warmed-up prefix
//! snapshot must be bit-identical to a cold run that replays the prefix
//! — across governors, faults active at the snapshot point and both
//! skip-ahead modes — and a prefix-shared sweep must equal a cold sweep
//! byte for byte, through the result cache and the journal.

use biglittle::{sweep, LateBindings, Scenario, SimSnapshot, StopWhen, SweepOptions, SystemConfig};
use bl_governor::GovernorConfig;
use bl_simcore::budget::RunBudget;
use bl_simcore::fault::{FaultKind, FaultPlan};
use bl_simcore::time::{SimDuration, SimTime};
use bl_workloads::apps::app_by_name;
use proptest::prelude::*;

const WARMUP_MS: u64 = 500;
const STOP_MS: u64 = 800;

/// One grid point: a TLP-heavy app warmed up for `WARMUP_MS`, with
/// everything that varies across the grid bound at the warm-up point.
/// With `prefix_faults` the prefix schedules a cluster outage that is
/// still in flight at the snapshot instant, so the captured state holds
/// offlined CPUs and pending online events.
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
            SimDuration::from_millis(600),
            &[1, 5],
        ));
    }
    let app = app_by_name("Angry Bird").unwrap();
    Scenario::app(label, app, cfg)
        .with_stop(StopWhen::Deadline(SimDuration::from_millis(STOP_MS)))
        .with_warmup(SimDuration::from_millis(WARMUP_MS))
        .with_late(late)
}

/// The late-binding axis of the grid.
fn late_variant(idx: usize) -> LateBindings {
    match idx % 5 {
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
        3 => LateBindings {
            governors: Some(vec![GovernorConfig::Powersave, GovernorConfig::Performance]),
            faults: FaultPlan::new().with(
                SimTime::from_millis(WARMUP_MS),
                FaultKind::GovernorStall {
                    cluster: 1,
                    missed_samples: 2,
                },
            ),
        },
        // The big cluster goes offline at the warm-up instant itself.
        _ => LateBindings {
            governors: None,
            faults: FaultPlan::new().with_outage(
                SimTime::from_millis(WARMUP_MS),
                SimDuration::from_millis(50),
                &[4, 5, 6, 7],
            ),
        },
    }
}

/// The snapshot at `sc`'s warm-up point: the last rung of its chain.
fn warm_snapshot(sc: &Scenario, budget: &RunBudget) -> SimSnapshot {
    sc.snapshot_prefix_chain(budget).unwrap().pop().unwrap()
}

#[test]
fn forked_run_is_bit_identical_to_cold_run() {
    let sc = grid_point("fork-basic", 11, true, false, late_variant(1));
    let budget = RunBudget::unlimited();
    let cold = sc.run_with_budget(&budget).unwrap();
    let snap = warm_snapshot(&sc, &budget);
    let forked = sc.run_forked(&snap, &budget).unwrap();
    assert_eq!(cold, forked);
    // The snapshot is reusable: forking it again must not observe any
    // state the first fork left behind.
    let again = sc.run_forked(&snap, &budget).unwrap();
    assert_eq!(cold, again);
}

#[test]
fn snapshot_fingerprint_is_deterministic() {
    let sc = grid_point("fp", 3, true, true, late_variant(0));
    let a = warm_snapshot(&sc, &RunBudget::unlimited());
    let b = warm_snapshot(&sc, &RunBudget::unlimited());
    assert_eq!(a.fingerprint(), b.fingerprint());
}

#[test]
fn prefix_specs_group_by_shared_prefix() {
    let a = grid_point("a", 5, true, false, late_variant(0));
    let b = grid_point("b", 5, true, false, late_variant(2));
    let c = grid_point("c", 6, true, false, late_variant(0));
    let key = |sc: &Scenario| sweep::chain_keys(sc).pop().unwrap();
    assert_eq!(key(&a), key(&b), "late bindings must not split a group");
    assert_ne!(key(&a), key(&c), "a different prefix must not share");
    let plain = Scenario::app(
        "plain",
        app_by_name("Browser").unwrap(),
        SystemConfig::baseline(),
    );
    assert!(
        sweep::chain_keys(&plain).is_empty(),
        "no warm-up point, nothing to share"
    );
}

#[test]
fn prefix_shared_sweep_equals_cold_sweep_through_cache_and_journal() {
    let scenarios: Vec<Scenario> = (0..5)
        .map(|i| grid_point(&format!("grid-{i}"), 9, true, true, late_variant(i)))
        .collect();
    let base = std::env::temp_dir().join(format!("bl-snapshot-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let run = |share: bool, tag: &str, resume: bool| {
        let opts = SweepOptions::serial()
            .prefix_sharing(share)
            .cached(base.join(tag).join("cache"))
            .journaled(base.join(tag).join("journal"))
            .resuming(resume);
        sweep::run_with(&scenarios, &opts)
    };
    let bytes = |report: &sweep::SweepReport| -> Vec<String> {
        report
            .results
            .iter()
            .map(|r| serde_json::to_string(r.as_ref().unwrap()).unwrap())
            .collect()
    };

    let cold = run(false, "cold", false);
    let shared = run(true, "shared", false);
    assert!(!cold.degraded && !shared.degraded);
    assert_eq!(shared.stats.forked, scenarios.len() as u64);
    assert_eq!(
        bytes(&cold),
        bytes(&shared),
        "prefix-shared grid diverged from the cold grid"
    );

    // A second shared pass is served entirely from the cache.
    let cached = run(true, "shared", false);
    assert_eq!(cached.stats.cache_hits, scenarios.len() as u64);
    assert_eq!(bytes(&cached), bytes(&shared));

    // And resuming from the shared journal replays every point verbatim.
    let resumed = run(true, "resumed-view", false); // warm a fresh journal
    drop(resumed);
    let replay = {
        let opts = SweepOptions::serial()
            .prefix_sharing(true)
            .journaled(base.join("resumed-view").join("journal"))
            .resuming(true);
        sweep::run_with(&scenarios, &opts)
    };
    assert_eq!(replay.stats.resumed, scenarios.len() as u64);
    assert_eq!(bytes(&replay), bytes(&shared));

    let _ = std::fs::remove_dir_all(&base);
}

// ---- nested prefix trees ---------------------------------------------------

/// The warm-up ladder: nested prefixes at 300, 500 and 650 ms.
const LADDER_MS: [u64; 3] = [300, 500, 650];

/// One ladder member: warm-up at `LADDER_MS[level]`, checkpointing at
/// every shallower rung so all members share one trunk simulation (see
/// `Scenario::warmup_via` — the stop schedule is part of the scenario's
/// numeric identity).
fn ladder_point(label: &str, seed: u64, level: usize, late: LateBindings) -> Scenario {
    let via: Vec<SimDuration> = LADDER_MS[..level]
        .iter()
        .map(|&ms| SimDuration::from_millis(ms))
        .collect();
    grid_point(label, seed, true, false, late)
        .with_warmup(SimDuration::from_millis(LADDER_MS[level]))
        .with_warmup_via(via)
}

#[test]
fn ladder_members_share_a_root_but_not_a_leaf() {
    let a = ladder_point("a", 5, 0, late_variant(0));
    let b = ladder_point("b", 5, 1, late_variant(1));
    let c = ladder_point("c", 5, 2, late_variant(2));
    let root = |sc: &Scenario| sweep::chain_keys(sc).remove(0);
    let leaf = |sc: &Scenario| sweep::chain_keys(sc).pop().unwrap();
    assert_eq!(root(&a), root(&b), "every rung descends from the root");
    assert_eq!(root(&b), root(&c));
    assert_ne!(
        leaf(&a),
        leaf(&b),
        "different depths are different prefixes"
    );
    assert_ne!(leaf(&b), leaf(&c));
    assert_eq!(
        sweep::chain_keys(&c).len(),
        3,
        "the deepest member sees the whole chain"
    );
    // A checkpoint schedule changes the prefix identity even at the same
    // warm-up point: stopping mid-run perturbs the numerics.
    let plain = grid_point("p", 5, true, false, late_variant(0))
        .with_warmup(SimDuration::from_millis(LADDER_MS[1]));
    assert_ne!(leaf(&plain), leaf(&b));
}

#[test]
fn chain_snapshots_fork_bit_identical_to_cold_runs_at_every_level() {
    let budget = RunBudget::unlimited();
    let deepest = ladder_point("deep", 7, 2, late_variant(0));
    let snaps = deepest.snapshot_prefix_chain(&budget).unwrap();
    assert_eq!(snaps.len(), LADDER_MS.len());
    for (level, snap) in snaps.iter().enumerate() {
        let member = ladder_point(&format!("m{level}"), 7, level, late_variant(level));
        let cold = member.run_with_budget(&budget).unwrap();
        let forked = member.run_forked(snap, &budget).unwrap();
        assert_eq!(cold, forked, "level {level} diverged");
    }
}

#[test]
fn invalid_checkpoint_schedules_are_rejected() {
    let budget = RunBudget::unlimited();
    // Checkpoint at/after the warm-up point.
    let sc = ladder_point("bad-order", 1, 1, late_variant(0))
        .with_warmup(SimDuration::from_millis(LADDER_MS[0]));
    assert!(sc.run_with_budget(&budget).is_err());
    // Non-ascending schedule.
    let sc = ladder_point("bad-asc", 1, 0, late_variant(0)).with_warmup_via(vec![
        SimDuration::from_millis(200),
        SimDuration::from_millis(100),
    ]);
    assert!(sc.run_with_budget(&budget).is_err());
    // Checkpoints without a warm-up point.
    let mut sc = ladder_point("bad-nowarm", 1, 1, late_variant(0));
    sc.warmup = None;
    assert!(sc.run_with_budget(&budget).is_err());
}

#[test]
fn nested_ladder_sweep_equals_cold_sweep_through_cache_and_journal() {
    // One member per level plus an extra leaf sharer: under flat leaf
    // grouping only the two deepest members could fork, so nested
    // grouping is observable as all four forking.
    let levels = [0usize, 1, 2, 2];
    let scenarios: Vec<Scenario> = levels
        .iter()
        .enumerate()
        .map(|(i, &lv)| ladder_point(&format!("ladder-{i}"), 13, lv, late_variant(i)))
        .collect();
    let base = std::env::temp_dir().join(format!("bl-ladder-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let run = |share: bool, tag: &str, resume: bool| {
        let opts = SweepOptions::serial()
            .prefix_sharing(share)
            .cached(base.join(tag).join("cache"))
            .journaled(base.join(tag).join("journal"))
            .resuming(resume);
        sweep::run_with(&scenarios, &opts)
    };
    let bytes = |report: &sweep::SweepReport| -> Vec<String> {
        report
            .results
            .iter()
            .map(|r| serde_json::to_string(r.as_ref().unwrap()).unwrap())
            .collect()
    };

    let cold = run(false, "cold", false);
    let shared = run(true, "shared", false);
    assert!(!cold.degraded && !shared.degraded);
    assert_eq!(
        shared.stats.forked,
        scenarios.len() as u64,
        "every rung, not just the deepest leaf pair, must fork from the trunk"
    );
    assert_eq!(
        bytes(&cold),
        bytes(&shared),
        "nested-ladder grid diverged from the cold grid"
    );

    // Second pass: everything cached; third: journal replay.
    let cached = run(true, "shared", false);
    assert_eq!(cached.stats.cache_hits, scenarios.len() as u64);
    assert_eq!(bytes(&cached), bytes(&shared));
    let replay = {
        let opts = SweepOptions::serial()
            .prefix_sharing(true)
            .journaled(base.join("shared").join("journal"))
            .resuming(true);
        sweep::run_with(&scenarios, &opts)
    };
    assert_eq!(replay.stats.resumed, scenarios.len() as u64);
    assert_eq!(bytes(&replay), bytes(&shared));

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn branching_chains_degrade_to_flat_leaf_sharing() {
    // Two pairs that agree on the root rung but branch at the second:
    // the group builds one ladder per branch, so each leaf pair shares.
    let mk = |label: &str, second_ms: u64, late: usize| {
        grid_point(label, 17, true, false, late_variant(late))
            .with_warmup(SimDuration::from_millis(650))
            .with_warmup_via(vec![
                SimDuration::from_millis(300),
                SimDuration::from_millis(second_ms),
            ])
    };
    let scenarios = vec![
        mk("branch-a0", 450, 0),
        mk("branch-a1", 450, 1),
        mk("branch-b0", 500, 2),
        mk("branch-b1", 500, 3),
    ];
    let cold = sweep::run_with(&scenarios, &SweepOptions::serial().prefix_sharing(false));
    let shared = sweep::run_with(&scenarios, &SweepOptions::serial().prefix_sharing(true));
    assert_eq!(shared.stats.forked, 4, "each leaf pair still shares");
    let bytes = |report: &sweep::SweepReport| -> Vec<String> {
        report
            .results
            .iter()
            .map(|r| serde_json::to_string(r.as_ref().unwrap()).unwrap())
            .collect()
    };
    assert_eq!(bytes(&cold), bytes(&shared));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Randomized fork-vs-cold equivalence across the whole late-binding
    // grid, with and without faults active at the snapshot instant, in
    // both hot-loop modes.
    #[test]
    fn fork_vs_cold_bit_identical(
        seed in 0u64..1_000,
        late_idx in 0usize..5,
        prefix_faults in proptest::bool::ANY,
        skip_ahead in proptest::bool::ANY,
    ) {
        let sc = grid_point("prop", seed, skip_ahead, prefix_faults, late_variant(late_idx));
        let budget = RunBudget::unlimited();
        let cold = sc.run_with_budget(&budget).unwrap();
        let snap = warm_snapshot(&sc, &budget);
        let forked = sc.run_forked(&snap, &budget).unwrap();
        prop_assert_eq!(cold, forked);
    }
}
