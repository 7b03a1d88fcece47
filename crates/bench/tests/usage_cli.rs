//! `repro`'s flag grammar: a missing or malformed flag value, an unknown
//! experiment id, an unknown flag or a flag pair that cannot work
//! together is a usage error — one line on stderr naming it, nothing on
//! stdout, exit 2, and no panic.

use std::process::Command;

#[test]
fn bad_flags_and_values_are_usage_errors() {
    // The timing suites, chaos harnesses and snapshot-store flags that
    // were once part of `repro` are unknown flags now.
    let removed = [
        "bench-hotloop",
        "bench-snapshot",
        "bench-sweep",
        "smoke-supervision",
        "smoke-shard",
        "smoke-serve",
        "no-snap-store",
        "snap-store-dir",
    ]
    .map(|mode| format!("--{mode}"));
    let mut cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["--seed", "abc"], "--seed"),
        (vec!["--exp"], "--exp"),
        (vec!["--fast", "--exp"], "--exp"),
        (vec!["--exp", "nosuch"], "nosuch"),
        // Worker processes report through the journal.
        (vec!["--workers", "2", "--no-journal"], "--no-journal"),
        (vec!["serve", "--socket", "s", "--jobs", "x"], "--jobs"),
        (vec!["submit", "--socket", "s", "--seed", "q"], "--seed"),
    ];
    // A `--batch` input that is missing, is not JSON or holds no scenario
    // array; it is read before connecting, so no daemon is needed.
    let batch_files = [
        ("missing.json", None),
        ("not-json.json", Some("{ not json")),
        ("no-array.json", Some(r#"{"x":1}"#)),
    ];
    for (file, _) in batch_files {
        let args = vec!["submit", "--socket", "s", "--batch", file, "out.json"];
        cases.push((args, file));
    }
    cases.extend(
        removed
            .iter()
            .map(|flag| (vec![flag.as_str(), "f.json"], flag.as_str())),
    );

    let cwd = std::env::temp_dir().join(format!("bl-usage-cli-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    for (file, body) in batch_files {
        if let Some(body) = body {
            std::fs::write(cwd.join(file), body).unwrap();
        }
    }
    for (args, named) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(&args)
            .current_dir(&cwd)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
    assert!(!cwd.join("out.json").exists(), "a bad batch wrote a report");
    let _ = std::fs::remove_dir_all(&cwd);
}
