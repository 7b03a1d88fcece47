//! The benchmark's own contract tests: small runs of every workload.
//! They simulate, so run them in release mode:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["serve", "serve-cold", "paper", "sweep"];

/// A private working directory per test (tests run in parallel).
fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test workdir");
    dir
}

/// Runs the benchmark small; returns (exit code, last stdout line parsed).
fn run(dir: &Path, workload: &str, extra: &[&str]) -> (i32, Option<Value>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(dir)
        .args(["--workload", workload, "--seconds", "1", "--small"])
        .args(extra)
        .output()
        .expect("run perfbench");
    let text = String::from_utf8_lossy(&out.stdout);
    let json = text
        .lines()
        .last()
        .and_then(|l| serde_json::from_str(l).ok());
    (out.status.code().unwrap_or(-1), json)
}

/// (name, unit) pairs of one metric list in BENCHMARK.json.
fn contract(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    v.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn metrics(v: &Value) -> Vec<(String, String, f64)> {
    v.get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
                m.get("value").and_then(Value::as_f64).expect("value"),
            )
        })
        .collect()
}

#[test]
fn every_workload_reports_every_metric_with_its_unit() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = contract(list);
        for w in WORKLOADS {
            let dir = workdir(&format!("metrics-{w}-{trace}"));
            let (code, json) = run(&dir, w, &["--trace", trace]);
            let json = json.unwrap_or_else(|| panic!("{w} --trace {trace}: no result line"));
            assert_eq!(code, 0, "{w} --trace {trace} exit code");
            assert_eq!(json.get("correct"), Some(&Value::Bool(true)), "{w}");
            assert!(
                json.get("attempted").and_then(Value::as_u64) >= Some(1),
                "{w}"
            );
            assert_eq!(json.get("failed").and_then(Value::as_u64), Some(0), "{w}");
            let got: Vec<(String, String)> = metrics(&json)
                .into_iter()
                .map(|(n, u, v)| {
                    assert!(v.is_finite(), "{w}: {n} = {v}");
                    (n, u)
                })
                .collect();
            assert_eq!(got, want, "{w} --trace {trace}: metric names and units");
            if trace == "0" {
                for (n, _, v) in metrics(&json) {
                    assert!(v > 0.0, "{w}: end-to-end metric {n} must never be 0");
                }
            }
        }
    }
}

#[test]
fn a_corrupted_result_is_caught() {
    for w in ["paper", "sweep", "serve"] {
        let dir = workdir(&format!("corrupt-{w}"));
        let (code, json) = run(&dir, w, &["--corrupt"]);
        let json = json.expect("a failed check still prints its result");
        assert_eq!(code, 1, "{w}: a failed output check exits 1");
        assert_eq!(json.get("correct"), Some(&Value::Bool(false)), "{w}");
        assert!(json.get("failed").and_then(Value::as_u64) >= Some(1), "{w}");
    }
}

#[test]
fn every_traced_span_lies_within_its_parent() {
    for w in ["paper", "serve"] {
        let dir = workdir(&format!("spans-{w}"));
        let (code, _) = run(&dir, w, &["--trace", "1"]);
        let trace = dir
            .join(".perfbench/traces")
            .join(format!("{w}.trace.jsonl"));
        assert_eq!(code, 0, "{w}");
        let spans: Vec<Value> = std::fs::read_to_string(&trace)
            .expect("trace written")
            .lines()
            .map(|l| serde_json::from_str(l).expect("span line parses"))
            .collect();
        let num = |s: &Value, k: &str| s.get(k).and_then(Value::as_i64).expect("numeric field");
        let mut nested = 0;
        for s in &spans {
            assert!(num(s, "start_ns") <= num(s, "end_ns"), "{w}: {s:?}");
            let p = num(s, "parent");
            if p >= 0 {
                let parent = &spans[p as usize];
                assert!(num(parent, "start_ns") <= num(s, "start_ns"), "{w}: {s:?}");
                assert!(num(s, "end_ns") <= num(parent, "end_ns"), "{w}: {s:?}");
                assert_eq!(num(parent, "op"), num(s, "op"), "{w}: one operation id");
                nested += 1;
            }
        }
        assert!(nested > 0, "{w}: the trace has nested spans");
    }
}

#[test]
fn counts_repeat_exactly_across_runs_with_one_seed() {
    let counts = [
        "sim.events",
        "snapshot.trunk_runs",
        "snapshot.forks",
        "snapshot.hydrated",
        "snapshot.published",
        "journal.records",
        "cache.hits",
        "shard.leases",
        "shard.ranges",
    ];
    for w in WORKLOADS {
        let pick = |k: u32| {
            let dir = workdir(&format!("counts-{w}-{k}"));
            let (code, json) = run(&dir, w, &["--trace", "1", "--seed", "7"]);
            assert_eq!(code, 0, "{w}");
            metrics(&json.expect("result"))
                .into_iter()
                .filter(|(n, _, _)| counts.contains(&n.as_str()))
                .map(|(n, _, v)| (n, v))
                .collect::<Vec<_>>()
        };
        let first = pick(0);
        assert_eq!(first.len(), counts.len(), "{w}");
        assert_eq!(first, pick(1), "{w}: counts differ between runs");
        assert!(first.iter().any(|(_, v)| *v > 0.0), "{w}: counts are live");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let dir = workdir("bad-args");
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "sweep", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .current_dir(&dir)
            .args(args)
            .output()
            .expect("run perfbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: no result line");
    }
}
