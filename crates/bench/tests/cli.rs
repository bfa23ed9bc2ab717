//! The `campaign` and `figures` command lines: a bad invocation is a usage
//! error (exit 2) or a run failure (exit 1) with a message, never a panic;
//! and a `campaign` command line is the same campaign as the
//! `POST /v1/campaigns` body it spells out.

use hauberk_bench::cli::{all_spec_flags, parse_args};
use hauberk_serve::JobSpec;
use hauberk_telemetry::json::parse;
use hauberk_telemetry::Telemetry;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

/// Run `bin args`, expect exit `code` and a panic-free message; return stderr.
fn expect_exit(bin: &str, args: &[&str], code: i32) -> String {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(!stderr.trim().is_empty(), "{args:?} must say what is wrong");
    stderr
}

#[test]
fn bad_invocations_exit_with_usage_or_failure_codes() {
    let dir = std::env::temp_dir().join(format!("hauberk-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad_plan = dir.join("bad-plan.json");
    std::fs::write(&bad_plan, "not a plan").unwrap();
    let missing = dir.join("missing-plan.json");
    let (dir_s, bad_s, missing_s) = (
        dir.to_str().unwrap(),
        bad_plan.to_str().unwrap(),
        missing.to_str().unwrap(),
    );
    let campaign = env!("CARGO_BIN_EXE_campaign");
    for (args, code) in [
        (&["NOPE"][..], 2),
        (&["CP", "--engine", "warp-drive"], 2),
        // Only the names `ExecEngine::name` writes parse; no aliases.
        (&["CP", "--engine", "vm"], 2),
        (&["CP", "--shard", "3"], 2),
        (&["CP", "--shard", "2/2"], 2),
        (&["CP", "--bogus"], 2),
        (&["CP", "--vars", "many"], 2),
        (&["CP", "--alpha", "0.5"], 2),
        (&["CP", "--journal", "a.jsonl", "--resume", "b.jsonl"], 2),
        (&["harden", "NOPE"], 2),
        (&["harden", "CP", "--engine", "warp-drive"], 2),
        (&["harden", "CP", "--checkpoint"], 2),
        (&["harden", "CP", "--budgets", "0.1,lots"], 2),
        (&["harden", "CP", "--plan-in", missing_s], 1),
        (&["harden", "CP", "--plan-in", bad_s], 1),
        (&["merge-journals", "a.jsonl"], 2),
        // A directory is no CSV path: the campaign runs, the write fails.
        (&["CP", "--vars", "1", "--masks", "1", "--csv", dir_s], 1),
    ] {
        expect_exit(campaign, args, code);
    }
    let figures = env!("CARGO_BIN_EXE_figures");
    let err = expect_exit(figures, &["fig99"], 2);
    assert!(err.contains("ablation"), "usage lists every figure: {err}");
    // `figures` has no engine flag: even a valid engine name is a usage error.
    expect_exit(figures, &["fig9", "--engine", "batch"], 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `campaign` command line and the served body it spells out share one
/// cache key, and the CLI's `--json` summary is byte-identical to the
/// in-process run of that spec — which `crates/serve/tests/e2e.rs` proves
/// byte-identical to the served result.
#[test]
fn cli_campaign_is_the_served_spec() {
    let flags = [
        "CP",
        "--sensitivity",
        "--vars",
        "3",
        "--masks",
        "2",
        "--shard-size",
        "4",
    ];
    let body = r#"{"program":"CP","kind":"sensitivity","vars":3,"masks":2,"shard_size":4}"#;
    let words: Vec<String> = flags.iter().map(|w| w.to_string()).collect();
    let cli = parse_args(&words, &all_spec_flags(), &[])
        .and_then(|a| a.job_spec())
        .unwrap();
    let served = JobSpec::from_json(&parse(body).unwrap()).unwrap();
    assert_eq!(cli.cache_key(), served.cache_key());

    let out = run(
        env!("CARGO_BIN_EXE_campaign"),
        &[&flags[..], &["--json", "--threads", "1"]].concat(),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let local = served
        .run(None, false, None, Telemetry::disabled())
        .unwrap();
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        format!("{{\"summary\":{}}}\n", local.summary_json())
    );
}
