//! Campaign determinism: the same `CampaignConfig` and seed must produce
//! **byte-identical** classified results — per-experiment CSV records and the
//! JSON summary — regardless of
//!
//!   * the rayon worker-thread count (1 vs. many): the injection loop runs
//!     experiments in parallel but classification is collected in plan
//!     order, and
//!   * the execution engine: the bytecode VM and the tree-walking
//!     interpreter must tally exactly the same outcomes at exactly the same
//!     simulated cycles.
//!
//! All four (engine × thread-count) combinations are compared against each
//! other in one test, so the thread-count global is never raced by a sibling
//! test in this binary.
//!
//! The orchestrator tests extend the contract to sharded execution: the
//! summary must be invariant to the work-unit size (adaptive off) and to any
//! interruption point — killing a journaled campaign mid-flight and resuming
//! it, even from a journal whose last record was torn mid-write, must
//! converge to a summary byte-identical to an uninterrupted run.

use hauberk::builds::FtOptions;
use hauberk_benchmarks::{program_by_name, ProblemScale};
use hauberk_sim::ExecEngine;
use hauberk_swifi::campaign::{run_coverage_campaign, CampaignConfig, CampaignKind};
use hauberk_swifi::journal::{merge_journals, read_journal, JournalWriter, QuarantineRecord};
use hauberk_swifi::orchestrator::{run_orchestrated_campaign, OrchestratorConfig};
use hauberk_swifi::plan::PlanConfig;
use hauberk_swifi::report::{summary_json, to_csv};
use hauberk_swifi::ShardedCampaignResult;
use std::path::{Path, PathBuf};

fn campaign_fingerprint(engine: ExecEngine, threads: usize) -> (String, String) {
    rayon::set_thread_count(threads);
    let prog = program_by_name("CP", ProblemScale::Quick).expect("CP exists");
    let cfg = CampaignConfig {
        plan: PlanConfig {
            vars_per_program: 4,
            masks_per_var: 3,
            bit_counts: vec![1, 3],
            scheduler_per_mille: 120,
            register_per_mille: 120,
        },
        ..Default::default()
    };
    let mut cfg = cfg;
    cfg.engine = Some(engine);
    let r = run_coverage_campaign(prog.as_ref(), FtOptions::default(), &cfg);
    assert!(!r.results.is_empty(), "campaign ran no experiments");
    (to_csv(&r), summary_json(&r).to_string())
}

#[test]
fn campaign_results_are_thread_and_engine_invariant() {
    let combos = [
        (ExecEngine::TreeWalk, 1),
        (ExecEngine::TreeWalk, 4),
        (ExecEngine::Bytecode, 1),
        (ExecEngine::Bytecode, 4),
        (ExecEngine::Batch, 1),
        (ExecEngine::Batch, 4),
    ];
    let mut runs = Vec::new();
    for (engine, threads) in combos {
        runs.push((engine, threads, campaign_fingerprint(engine, threads)));
    }
    let (e0, t0, base) = &runs[0];
    for (engine, threads, fp) in &runs[1..] {
        assert_eq!(
            &base.0, &fp.0,
            "per-experiment CSV differs: {e0:?}/{t0} threads vs {engine:?}/{threads} threads"
        );
        assert_eq!(
            &base.1, &fp.1,
            "summary JSON differs: {e0:?}/{t0} threads vs {engine:?}/{threads} threads"
        );
    }
    // And re-running the exact same configuration is a fixed point.
    let again = campaign_fingerprint(ExecEngine::Bytecode, 4);
    assert_eq!(base.0, again.0, "re-run CSV differs");
    assert_eq!(base.1, again.1, "re-run summary differs");
}

fn orch_cfg() -> CampaignConfig {
    CampaignConfig {
        plan: PlanConfig {
            vars_per_program: 6,
            masks_per_var: 8,
            bit_counts: vec![1, 3],
            scheduler_per_mille: 120,
            register_per_mille: 120,
        },
        ..Default::default()
    }
}

fn run_orch(orch: &OrchestratorConfig) -> (ShardedCampaignResult, String, String) {
    let prog = program_by_name("CP", ProblemScale::Quick).expect("CP exists");
    let r = run_orchestrated_campaign(
        prog.as_ref(),
        CampaignKind::Coverage(FtOptions::default()),
        &orch_cfg(),
        orch,
    )
    .expect("orchestrated campaign");
    let text = r.summarize();
    let json = r.summary_json().to_string();
    (r, text, json)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hauberk-determinism-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

/// With adaptive sampling off, the summary must not depend on how the plan
/// is chunked into work units.
#[test]
fn sharded_summary_is_invariant_to_unit_size() {
    let (_, text5, json5) = run_orch(&OrchestratorConfig {
        shard_size: 5,
        ..Default::default()
    });
    for shard_size in [32, 10_000] {
        let (_, text, json) = run_orch(&OrchestratorConfig {
            shard_size,
            ..Default::default()
        });
        assert_eq!(
            text5, text,
            "text summary depends on shard size {shard_size}"
        );
        assert_eq!(
            json5, json,
            "JSON summary depends on shard size {shard_size}"
        );
    }
}

/// Simulate a kill: keep only a prefix of the journal, resume, and demand a
/// summary byte-identical to the uninterrupted run. `keep_extra_bytes`
/// additionally keeps a torn fragment of the next record, as a kill during a
/// write would leave behind.
fn interrupt_and_resume(keep_lines: usize, keep_extra_bytes: usize, tag: &str) {
    let full_journal = tmp(&format!("{tag}-full.jsonl"));
    let cut_journal = tmp(&format!("{tag}-cut.jsonl"));
    for p in [&full_journal, &cut_journal] {
        let _ = std::fs::remove_file(p);
    }
    let (full, full_text, full_json) = run_orch(&OrchestratorConfig {
        shard_size: 5,
        journal_path: Some(full_journal.clone()),
        ..Default::default()
    });
    assert!(full.executed > 30, "enough units to interrupt meaningfully");

    let text = std::fs::read_to_string(&full_journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > keep_lines + 1, "journal long enough to cut");
    let mut cut: String = lines[..keep_lines]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    if keep_extra_bytes > 0 {
        let torn = &lines[keep_lines][..keep_extra_bytes.min(lines[keep_lines].len() - 1)];
        cut.push_str(torn); // no trailing newline: torn mid-write
    }
    std::fs::write(&cut_journal, &cut).unwrap();

    let (resumed, res_text, res_json) = run_orch(&OrchestratorConfig {
        shard_size: 5,
        resume_from: Some(cut_journal.clone()),
        ..Default::default()
    });
    let _ = std::fs::remove_file(&full_journal);
    assert_eq!(
        resumed.resumed_units as usize,
        keep_lines - 1,
        "meta + units kept"
    );
    assert!(
        resumed.executed > resumed.resumed_injections,
        "resume re-executes the remaining work"
    );
    assert_eq!(
        resumed.dropped_lines,
        u64::from(keep_extra_bytes > 0),
        "torn fragment is dropped, clean cut drops nothing"
    );
    assert_eq!(full_text, res_text, "resumed text summary differs");
    assert_eq!(full_json, res_json, "resumed JSON summary differs");
    // The resumed journal is now complete: replaying it alone reproduces the
    // same summary with zero fresh execution.
    let (replayed, rep_text, _) = run_orch(&OrchestratorConfig {
        shard_size: 5,
        resume_from: Some(cut_journal.clone()),
        ..Default::default()
    });
    let _ = std::fs::remove_file(&cut_journal);
    assert_eq!(
        replayed.resumed_injections, replayed.executed,
        "completed journal replays without re-execution"
    );
    assert_eq!(full_text, rep_text, "replayed summary differs");
}

#[test]
fn interrupted_campaign_resumes_byte_identically() {
    // Keep the meta record plus 4 completed units — a mid-campaign kill.
    interrupt_and_resume(5, 0, "clean");
}

#[test]
fn torn_journal_resume_warns_and_converges() {
    // Same, but the kill tore the 6th record mid-write: the reader must
    // drop the fragment (with a warning), re-execute that unit, and still
    // produce the byte-identical summary.
    interrupt_and_resume(5, 25, "torn");
}

/// Truncate a journal line to its first `keep_bytes` bytes with no trailing
/// newline — the shape a kill mid-`write` leaves behind.
fn tear_line(full: &std::path::Path, cut: &std::path::Path, line: usize, keep_bytes: usize) {
    let text = std::fs::read_to_string(full).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() > line,
        "journal long enough to tear line {line}"
    );
    let mut out: String = lines[..line].iter().map(|l| format!("{l}\n")).collect();
    out.push_str(&lines[line][..keep_bytes.min(lines[line].len() - 1)]);
    std::fs::write(cut, &out).unwrap();
}

/// A kill during the very first write can tear the meta header itself.
/// The resume must drop the fragment, append a fresh meta record, re-execute
/// everything, and still converge to the byte-identical summary — and the
/// healed journal must then replay clean.
#[test]
fn torn_meta_header_heals_on_resume() {
    let full_journal = tmp("meta-full.jsonl");
    let cut_journal = tmp("meta-cut.jsonl");
    for p in [&full_journal, &cut_journal] {
        let _ = std::fs::remove_file(p);
    }
    let (_, full_text, full_json) = run_orch(&OrchestratorConfig {
        shard_size: 5,
        journal_path: Some(full_journal.clone()),
        ..Default::default()
    });
    tear_line(&full_journal, &cut_journal, 0, 30);
    let _ = std::fs::remove_file(&full_journal);

    let (resumed, res_text, res_json) = run_orch(&OrchestratorConfig {
        shard_size: 5,
        resume_from: Some(cut_journal.clone()),
        ..Default::default()
    });
    assert_eq!(resumed.resumed_units, 0, "a torn meta replays nothing");
    assert_eq!(resumed.dropped_lines, 1, "the meta fragment is dropped");
    assert_eq!(full_text, res_text, "resumed text summary differs");
    assert_eq!(full_json, res_json, "resumed JSON summary differs");

    // The resume appended a fresh meta; the healed journal now replays with
    // zero fresh execution.
    let replay = read_journal(&cut_journal).unwrap();
    assert!(replay.meta.is_some(), "fresh meta appended on resume");
    assert_eq!(
        replay.dropped_lines, 1,
        "only the original fragment is torn"
    );
    let (replayed, rep_text, _) = run_orch(&OrchestratorConfig {
        shard_size: 5,
        resume_from: Some(cut_journal.clone()),
        ..Default::default()
    });
    let _ = std::fs::remove_file(&cut_journal);
    assert_eq!(
        replayed.resumed_injections, replayed.executed,
        "healed journal replays without re-execution"
    );
    assert_eq!(full_text, rep_text, "replayed summary differs");
}

/// Run the journaled campaign, let `damage` corrupt its journal in place,
/// and resume from it: exactly one line must drop, and the summary must
/// equal the uninterrupted run's. Returns the resumed run and the journal.
fn damage_and_resume(tag: &str, damage: impl FnOnce(&Path)) -> (ShardedCampaignResult, PathBuf) {
    let journal = tmp(&format!("{tag}.jsonl"));
    let orch = |journal_path, resume_from| OrchestratorConfig {
        shard_size: 5,
        journal_path,
        resume_from,
        ..Default::default()
    };
    let (full, full_text, full_json) = run_orch(&orch(Some(journal.clone()), None));
    damage(&journal);
    let (resumed, text, json) = run_orch(&orch(None, Some(journal.clone())));
    assert_eq!(resumed.dropped_lines, 1, "only the damaged line drops");
    assert_eq!(full.executed, resumed.executed);
    assert!(resumed.quarantined.is_empty());
    assert_eq!(full_text, text, "resumed text summary differs");
    assert_eq!(full_json, json, "resumed JSON summary differs");
    (resumed, journal)
}

/// Stored bytes flip. One high bit flipped inside a unit record makes that
/// line invalid UTF-8: the reader must drop just that line, not fail the
/// whole journal, and re-execute only that unit; merge reads past it too.
#[test]
fn non_utf8_unit_line_is_dropped_and_resume_converges() {
    let (resumed, journal) = damage_and_resume("flip", |path| {
        let mut bytes = std::fs::read(path).unwrap();
        let nl: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
        // The fourth record, a unit, lies between the third and fourth `\n`.
        let (lo, hi) = (nl[2], nl[3]);
        assert!(String::from_utf8_lossy(&bytes[lo..hi]).contains(r#""rec":"unit""#));
        bytes[(lo + hi) / 2] ^= 0x80;
        std::fs::write(path, bytes).unwrap();
    });
    let rerun = resumed.executed - resumed.resumed_injections;
    assert!(rerun > 0 && rerun <= 5, "only the flipped unit re-executes");
    let merged = tmp("flip-merged.jsonl");
    let units = merge_journals(&merged, &[&journal]).unwrap();
    for p in [&journal, &merged] {
        std::fs::remove_file(p).ok();
    }
    assert_eq!(units as u64, resumed.resumed_units + 1);
}

/// A kill can tear the tail inside a multi-byte character, here in a
/// quarantine record's `error` string. The torn line is not UTF-8; the
/// resume must drop it and run the unit it named.
#[test]
fn tail_torn_inside_multibyte_char_heals_on_resume() {
    let (resumed, journal) = damage_and_resume("multibyte", |path| {
        // Keep the meta and two units, then quarantine a unit that did not
        // make the cut, torn inside the `∑` of its message.
        let victim = *read_journal(path).unwrap().units.keys().last().unwrap();
        tear_line(path, path, 3, 0);
        let quarantine = QuarantineRecord {
            id: victim,
            attempts: 3,
            error: "résultat ∑ ≠ référence".into(),
        };
        JournalWriter::append(path, None)
            .unwrap()
            .quarantine(&quarantine)
            .unwrap();
        let mut bytes = std::fs::read(path).unwrap();
        let sigma = bytes.windows(3).position(|w| w == "∑".as_bytes()).unwrap();
        bytes.truncate(sigma + 1);
        std::fs::write(path, bytes).unwrap();
    });
    assert_eq!(resumed.resumed_units, 2);
    let healed = read_journal(&journal).unwrap();
    std::fs::remove_file(&journal).ok();
    assert_eq!(
        healed.dropped_lines, 1,
        "only the original fragment is torn"
    );
}
