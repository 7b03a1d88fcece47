//! `repro`'s flag grammar: a missing or malformed flag value, an unknown
//! experiment id or an unknown flag is a usage error — one line on stderr
//! naming it, nothing on stdout, exit 2, and no panic.

use std::process::Command;

#[test]
fn bad_flags_and_values_are_usage_errors() {
    // The timing suites and chaos harnesses that were once modes of
    // `repro` are unknown flags now.
    let removed = [
        "bench-hotloop",
        "bench-snapshot",
        "bench-sweep",
        "smoke-supervision",
        "smoke-shard",
        "smoke-serve",
    ]
    .map(|mode| format!("--{mode}"));
    let mut cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["--seed", "abc"], "--seed"),
        (vec!["--exp"], "--exp"),
        (vec!["--fast", "--exp"], "--exp"),
        (vec!["--exp", "nosuch"], "nosuch"),
        (vec!["serve", "--socket", "s", "--jobs", "x"], "--jobs"),
        (vec!["submit", "--socket", "s", "--seed", "q"], "--seed"),
    ];
    cases.extend(
        removed
            .iter()
            .map(|flag| (vec![flag.as_str(), "f.json"], flag.as_str())),
    );

    let cwd = std::env::temp_dir().join(format!("bl-usage-cli-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
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
    let _ = std::fs::remove_dir_all(&cwd);
}
