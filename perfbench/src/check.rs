//! Output checks against references recorded with the benchmark.
//!
//! `paper` compares each experiment's output digest, in every serial pass
//! and in the traced run's sharded pass, with `digests.txt`. Every `sweep` and `serve` result is byte-compared with
//! a cold `Scenario::run` of the same scenario, computed after the timed
//! phase on at most two threads, and those cold results as a whole with
//! the digest recorded for the seed.

use biglittle::{RunResult, Scenario};
use bl_simcore::error::SimError;
use bl_simcore::journal::fnv1a;
use serde_json::Value;
use std::collections::BTreeMap;

/// Problems listed per run at most; the count is still exact.
const MAX_LISTED: usize = 20;

/// Digests recorded with the benchmark, one per line:
/// `<kind> <seed> <key> <hex>` — `kind` is the scale (`paper`, `fast`) and
/// `key` the experiment id for `paper`; `kind` is the workload and `key`
/// the number of operations in one repetition for `sweep`/`serve`.
const RECORDED: &str = include_str!("../digests.txt");

/// The recorded seeds are `FIRST_SEED..FIRST_SEED + SEEDS`.
pub const FIRST_SEED: u64 = 42;
pub const SEEDS: u64 = 16;

/// The seed a run generates its inputs from: `--seed` mapped onto the
/// recorded seeds, so that every run's output is checked against digests
/// recorded with the benchmark rather than only against the build under
/// test. The default seed 42 maps to itself.
pub fn input_seed(seed: u64) -> u64 {
    FIRST_SEED + seed.wrapping_sub(FIRST_SEED) % SEEDS
}

/// Recorded digests of `kind` at `seed`, by key.
pub fn recorded(kind: &str, seed: u64) -> BTreeMap<String, u64> {
    RECORDED
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                [k, s, key, hex] if *k == kind && s.parse() == Ok(seed) => {
                    Some((key.to_string(), u64::from_str_radix(hex, 16).ok()?))
                }
                _ => None,
            }
        })
        .collect()
}

/// FNV-1a of a result's serialized JSON — the bytes a journal, cache
/// entry or `result` event carries.
pub fn value_digest(v: &Value) -> u64 {
    fnv1a(
        serde_json::to_string(v)
            .expect("value serializes")
            .as_bytes(),
    )
}

/// Digest of an engine result, or its error rendering.
pub fn digest(r: &Result<RunResult, SimError>) -> Result<u64, String> {
    match r {
        Ok(res) => Ok(value_digest(
            &serde_json::to_value(res).expect("result serializes"),
        )),
        Err(e) => Err(e.to_string()),
    }
}

/// Cold-run digests of the distinct scenarios (by label) in `scenarios`.
fn cold<'a>(
    scenarios: impl Iterator<Item = &'a Scenario>,
) -> BTreeMap<String, Result<u64, String>> {
    let mut distinct: BTreeMap<&str, &Scenario> = BTreeMap::new();
    for sc in scenarios {
        distinct.entry(sc.label.as_str()).or_insert(sc);
    }
    let todo: Vec<&Scenario> = distinct.into_values().collect();
    let threads = crate::os::nproc().clamp(1, 2);
    let chunk = todo.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = todo
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|sc| (sc.label.clone(), digest(&sc.run())))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("cold reference thread"))
            .collect()
    })
}

/// One digest of a whole cold reference: FNV-1a over its
/// `label digest` lines in label order.
pub fn reference_digest(reference: &BTreeMap<String, Result<u64, String>>) -> u64 {
    let mut text = String::new();
    for (label, d) in reference {
        match d {
            Ok(d) => text.push_str(&format!("{label} {d:016x}\n")),
            Err(e) => text.push_str(&format!("{label} error {e}\n")),
        }
    }
    fnv1a(text.as_bytes())
}

/// Prints, for every recorded seed, the digest of the cold results of the
/// batches `plan` generates from it, in `digests.txt` format.
pub fn print_reference_digests(kind: &str, plan: impl Fn(u64) -> Vec<Vec<Scenario>>) {
    for seed in FIRST_SEED..FIRST_SEED + SEEDS {
        let batches = plan(seed);
        let reference = cold(batches.iter().flatten());
        println!(
            "{kind} {seed} {} {:016x}",
            batches.len(),
            reference_digest(&reference)
        );
    }
}

/// Compares `got` (label, digest) slot by slot with cold runs of the
/// scenarios and returns the indices of mismatching or failed slots.
/// When `recorded` holds the digest recorded for these inputs, the cold
/// results must match it too; if they do not, the build's results have
/// changed and every slot fails.
pub fn against_cold<'a>(
    scenarios: impl Iterator<Item = &'a Scenario>,
    got: &[(String, Result<u64, String>)],
    recorded: Option<u64>,
    problems: &mut Vec<String>,
) -> Vec<usize> {
    let t0 = std::time::Instant::now();
    let reference = cold(scenarios);
    eprintln!(
        "perfbench: cold reference of {} scenarios in {:.1} s",
        reference.len(),
        t0.elapsed().as_secs_f64()
    );
    if recorded.is_some_and(|want| want != reference_digest(&reference)) {
        problems.push("cold results differ from the digest recorded for this seed".into());
        return (0..got.len()).collect();
    }
    let mut bad = Vec::new();
    for (i, (label, d)) in got.iter().enumerate() {
        let ok = match (d, reference.get(label)) {
            (Ok(a), Some(Ok(b))) => a == b,
            _ => false,
        };
        if !ok {
            if bad.len() < MAX_LISTED {
                problems.push(match d {
                    Err(e) => format!("scenario {label}: failed: {e}"),
                    Ok(_) => format!("scenario {label}: result differs from a cold run"),
                });
            }
            bad.push(i);
        }
    }
    if bad.len() > MAX_LISTED {
        problems.push(format!("... {} bad results in total", bad.len()));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_maps_onto_a_recorded_seed() {
        for seed in [0, 1, 41, 42, 57, 58, u64::MAX] {
            let s = input_seed(seed);
            assert!(
                (FIRST_SEED..FIRST_SEED + SEEDS).contains(&s),
                "{seed} -> {s}"
            );
        }
        assert_eq!(input_seed(42), 42);
    }

    #[test]
    fn every_recorded_seed_has_its_digests() {
        let experiments = bl_bench::EXPERIMENTS.len();
        for seed in FIRST_SEED..FIRST_SEED + SEEDS {
            assert_eq!(recorded("paper", seed).len(), experiments, "paper {seed}");
            assert_eq!(recorded("fast", seed).len(), experiments, "fast {seed}");
            // One repetition's length at the default `--seconds` and at
            // the tests' `--seconds 1`.
            for seconds in [35.0, 1.0] {
                let ctx = crate::report::Ctx {
                    workload: String::new(),
                    seed,
                    seconds,
                    small: false,
                    corrupt: false,
                };
                let sweep = crate::sweep::batches(&ctx).len().to_string();
                assert!(recorded("sweep", seed).contains_key(&sweep), "sweep {seed}");
                for kind in ["serve", "serve-cold"] {
                    let ctx = crate::report::Ctx {
                        workload: kind.into(),
                        ..ctx.clone()
                    };
                    let serve = crate::serve::plan(&ctx).len().to_string();
                    assert!(recorded(kind, seed).contains_key(&serve), "{kind} {seed}");
                }
            }
        }
    }
}
