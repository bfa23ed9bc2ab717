//! `campaign` — run a fault-injection campaign on one benchmark and write
//! per-experiment CSV records plus a summary (the file-based analogue of the
//! paper's GUI controller, §IV.B).
//!
//! ```text
//! campaign <program> [--sensitivity|--coverage] [--vars N] [--masks N]
//!          [--alpha F] [--csv PATH] [--trace-out PATH] [--progress N]
//!          [--json] [--engine tree-walk|bytecode|batch] [--threads N]
//!          [--shard-size N] [--journal PATH | --resume PATH]
//!          [--adaptive] [--ci-width F] [--min-samples N]
//!          [--max-retries N] [--shard I/M] [--profile] [--checkpoint]
//! campaign merge-journals --out PATH <journal> [<journal> ...]
//! campaign harden <program> [--budget F] [--budgets F,F,...] [--iterations N]
//!          [--plan-out PATH] [--plan-in PATH] [--front-out PATH]
//!          [--baseline-journal PATH] [--vars N] [--masks N] [--alpha F]
//!          [--engine E] [--threads N] [--json]
//! ```
//!
//! The campaign flags spell out a serve job spec (the table is
//! `hauberk_bench::cli::SPEC_FLAGS`), validated by `JobSpec::from_json`
//! exactly like a `POST /v1/campaigns` body, so a CLI run and a served run
//! of the same spec are the same campaign. A bad command line (unknown flag,
//! program or engine, malformed value, invalid spec) exits 2; a failed run
//! or an unreadable input or unwritable output exits 1.
//!
//! Orchestration flags:
//!
//! * `--journal PATH` starts a fresh checkpoint journal (truncating any
//!   existing file); `--resume PATH` replays a journal, skips finished work
//!   units, and appends new ones to the same file. The resumed summary is
//!   byte-identical to an uninterrupted run.
//! * `--adaptive` enables per-stratum early stopping once the Wilson
//!   interval on the SDC rate is narrower than `--ci-width` (default 0.1);
//!   `--min-samples` (default 32) guards the decision. Either of the two
//!   implies `--adaptive`.
//! * `--shard I/M` executes only strata with ordinal ≡ I (mod M) — run M
//!   processes with distinct I and the same `--journal`, then
//!   `merge-journals` + `--resume` to finalize.
//! * `--max-retries N` retries a panicking work unit N times before
//!   quarantining it (default 2).
//! * `--profile` prints the per-phase wall-time breakdown (plan / execute /
//!   journal / classify / sample-decision), the hang tally (hang
//!   injections, how many a hang certificate ended early, and their share
//!   of execute time) and any straggler work units after the summary. The
//!   profile is also appended to the journal as a trailing
//!   `"rec":"profile"` record when `--journal`/`--resume` is set.
//! * `--checkpoint` shares one fault-free prefix across the campaign: a
//!   single reference run captures a device snapshot at every block boundary
//!   a planned fault targets, and each injection restores the snapshot
//!   instead of re-executing from launch. The summary (and CSV) stays
//!   byte-identical to full re-execution; the cycles-saved note goes to
//!   stderr. Ineligible campaigns fall back to full re-execution with a
//!   warning.
//!
//! The `harden` subcommand closes the campaign → translator loop: it runs
//! (or ingests, with `--baseline-journal`) a baseline sensitivity campaign,
//! ranks placeable detectors by measured vulnerability, sweeps the
//! `--budgets` ladder into a coverage-vs-overhead Pareto front, and emits
//! the plan fitted under `--budget` (default 0.5) to `--plan-out`.
//! `--plan-in` instead evaluates a previously emitted plan: it measures the
//! plan's fault-free overhead and re-runs the coverage campaign under it.
//! Output is deterministic: same inputs, byte-identical plan and front.

use hauberk::translator::select::HardeningPlan;
use hauberk_bench::cli::{all_spec_flags, parse_args, Args, CliError, LocalFlag};
use hauberk_swifi::campaign::CampaignConfig;
use hauberk_swifi::harden::{evaluate_placement, harden, HardenConfig};
use hauberk_swifi::journal::merge_journals;
use hauberk_swifi::orchestrator::{run_orchestrated_campaign, OrchestratorConfig};
use hauberk_swifi::report::to_csv;
use hauberk_telemetry::json::Json;
use hauberk_telemetry::report::Emitter;

/// The main path's I/O and process flags; every other flag is a spec flag.
const CAMPAIGN_LOCAL: &[LocalFlag] = &[
    ("--csv", true),
    ("--trace-out", true),
    ("--progress", true),
    ("--journal", true),
    ("--resume", true),
    ("--threads", true),
    ("--json", false),
    ("--profile", false),
];

/// The spec flags `harden` accepts: the ones its campaigns read.
const HARDEN_SPEC: &[&str] = &["--vars", "--masks", "--alpha", "--engine"];

/// `harden`'s own flags: the optimizer, its artifacts and the process.
const HARDEN_LOCAL: &[LocalFlag] = &[
    ("--budget", true),
    ("--budgets", true),
    ("--iterations", true),
    ("--plan-out", true),
    ("--plan-in", true),
    ("--front-out", true),
    ("--baseline-journal", true),
    ("--threads", true),
    ("--json", false),
];

fn write(path: &str, contents: String) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| CliError::Failed(format!("write {path}: {e}")))
}

/// Pin the worker-thread count (`--threads N`). The spec's engine needs no
/// process setting: `CampaignConfig::engine` reaches every run.
fn apply_threads(args: &Args) -> Result<(), CliError> {
    if let Some(n) = args.parse("--threads")? {
        rayon::set_thread_count(n);
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, res) = match args.first().map(String::as_str) {
        Some("merge-journals") => ("merge-journals", merge_main(&args[1..])),
        Some("harden") => ("harden", harden_main(&args[1..])),
        _ => ("campaign", campaign_main(&args)),
    };
    if let Err(e) = res {
        e.exit(cmd)
    }
}

/// `campaign merge-journals --out PATH a.jsonl b.jsonl ...`
fn merge_main(args: &[String]) -> Result<(), CliError> {
    let args = parse_args(args, &[], &[("--out", true)])?;
    let out = args
        .value("--out")
        .ok_or_else(|| CliError::Usage("--out PATH is required".into()))?;
    let n = merge_journals(out, &args.positional).map_err(CliError::Failed)?;
    println!(
        "merged {n} unit record(s) from {} journal(s) into {out}",
        args.positional.len()
    );
    Ok(())
}

/// `campaign harden <program> [--budget F] ...` — see the module docs.
fn harden_main(args: &[String]) -> Result<(), CliError> {
    let args = parse_args(args, HARDEN_SPEC, HARDEN_LOCAL)?;
    let spec = args.job_spec()?;
    apply_threads(&args)?;
    let budgets = match args.value("--budgets") {
        Some(v) => v
            .split(',')
            .map(|b| {
                b.trim()
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--budgets: bad fraction `{b}`")))
            })
            .collect::<Result<_, _>>()?,
        None => vec![],
    };
    let defaults = HardenConfig::default();
    let cfg = HardenConfig {
        budget: args.parse("--budget")?.unwrap_or(defaults.budget),
        budgets,
        iterations: args.parse("--iterations")?.unwrap_or(defaults.iterations),
        campaign: spec.campaign_config(),
        baseline_journal: args.value("--baseline-journal").map(Into::into),
        ..defaults
    };
    let prog = spec.build_program().map_err(CliError::Usage)?;
    let name = prog.name();
    let mut em = Emitter::new(args.has("--json"));

    if let Some(path) = args.value("--plan-in") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Failed(format!("cannot read plan {path}: {e}")))?;
        let plan = HardeningPlan::parse(&text)
            .map_err(|e| CliError::Failed(format!("bad plan {path}: {e}")))?;
        em.text(format!(
            "evaluating plan {path} ({} detector(s)) on {name}...",
            plan.selection.len()
        ));
        let point = evaluate_placement(prog.as_ref(), &plan, &cfg).map_err(CliError::Failed)?;
        em.text(format!(
            "plan @ budget {}: {} detector(s), overhead {} cycles ({:.2}%), \
             coverage {:.4}, sdc {:.4}",
            point.budget,
            point.selected,
            point.overhead_cycles,
            100.0 * point.overhead_frac,
            point.coverage,
            point.sdc_ratio
        ));
        em.json_section(
            "placement",
            Json::obj([
                ("budget", Json::Num(point.budget)),
                ("selected", Json::uint(point.selected as u64)),
                ("overhead_cycles", Json::uint(point.overhead_cycles)),
                ("overhead_frac", Json::Num(point.overhead_frac)),
                ("coverage", Json::Num(point.coverage)),
                ("sdc_ratio", Json::Num(point.sdc_ratio)),
            ]),
        );
        em.finish();
        return Ok(());
    }

    em.text(format!(
        "hardening {name} (budget {}, {} iteration(s))...",
        cfg.budget, cfg.iterations
    ));
    let report = harden(prog.as_ref(), &cfg).map_err(CliError::Failed)?;
    em.text(format!(
        "{}: {} candidate(s), full overhead {} cycles, full coverage {:.4}, \
         baseline sdc {:.4} over {} injection(s); {} round(s), {}",
        report.program,
        report.candidates.len(),
        report.full_overhead_cycles,
        report.full_coverage,
        report.baseline_sdc,
        report.baseline_injections,
        report.iterations_run,
        if report.converged {
            "ranking converged"
        } else {
            "round budget exhausted"
        }
    ));
    for p in &report.front {
        em.text(format!(
            "  budget {:>5}: {:>2} detector(s), overhead {:>8} cycles ({:>6.2}%), \
             coverage {:.4}, sdc {:.4}",
            p.budget,
            p.selected,
            p.overhead_cycles,
            100.0 * p.overhead_frac,
            p.coverage,
            p.sdc_ratio
        ));
    }
    em.json_section("harden", report.to_json());
    if let Some(path) = args.value("--plan-out") {
        write(path, report.plan.to_json_string())?;
        em.text(format!(
            "wrote plan ({} detector(s) @ budget {}) to {path}",
            report.plan.selection.len(),
            report.plan.budget
        ));
        em.json_section("plan_path", Json::str(path));
    }
    if let Some(path) = args.value("--front-out") {
        write(path, report.front_csv())?;
        em.text(format!(
            "wrote {}-point Pareto front to {path}",
            report.front.len()
        ));
        em.json_section("front_path", Json::str(path));
    }
    em.finish();
    Ok(())
}

/// `campaign <program> [flags]` — see the module docs.
fn campaign_main(args: &[String]) -> Result<(), CliError> {
    let args = parse_args(args, &all_spec_flags(), CAMPAIGN_LOCAL)?;
    let spec = args.job_spec()?;
    let (journal, resume) = (args.value("--journal"), args.value("--resume"));
    if journal.is_some() && resume.is_some() {
        return Err(CliError::Usage(
            "--journal (fresh) and --resume are mutually exclusive".into(),
        ));
    }
    apply_threads(&args)?;
    let prog = spec.build_program().map_err(CliError::Usage)?;
    let trace_path = args.value("--trace-out");
    let cfg = CampaignConfig {
        progress_every: args.parse("--progress")?.unwrap_or(0),
        trace_path: trace_path.map(Into::into),
        ..spec.campaign_config()
    };
    let orch = OrchestratorConfig {
        journal_path: journal.map(Into::into),
        resume_from: resume.map(Into::into),
        ..spec.orchestrator_config()
    };

    let kind = spec.campaign_kind();
    let mut em = Emitter::new(args.has("--json"));
    em.text(format!(
        "running {} campaign on {} (alpha={})...",
        kind.label(),
        prog.name(),
        spec.alpha
    ));
    let sharded =
        run_orchestrated_campaign(prog.as_ref(), kind, &cfg, &orch).map_err(CliError::Failed)?;
    if let Some(ck) = &sharded.checkpoint {
        // Savings note on stderr, like the resume statistics: stdout is the
        // summary, whose bytes must not depend on the execution mode.
        let full = ck.reference_cycles.saturating_mul(ck.injections);
        let actual = ck.reference_cycles + ck.executed_cycles;
        eprintln!(
            "checkpoint: {} boundaries over {} section(s); {}/{} injection(s) spliced, \
             {}/{} composed; {} cycles executed vs {} full re-execution ({:.1}x)",
            ck.boundaries,
            ck.sections,
            ck.spliced,
            ck.injections,
            ck.composed,
            ck.injections,
            actual,
            full,
            full as f64 / actual.max(1) as f64
        );
    }
    if sharded.resumed_units > 0 || sharded.dropped_lines > 0 {
        // Resume statistics go to stderr, not the summary: the summary must
        // stay byte-identical to an uninterrupted run.
        eprintln!(
            "resume: replayed {} unit(s) / {} injection(s) from the journal ({} torn line(s) dropped)",
            sharded.resumed_units, sharded.resumed_injections, sharded.dropped_lines
        );
    }

    em.text(sharded.summarize());
    em.json_section("summary", sharded.summary_json());
    if args.has("--profile") {
        em.table(&sharded.profile.table());
        em.json_section("profile", sharded.profile.to_json());
        em.table(&sharded.hangs.table(sharded.profile.execute_ns));
        em.json_section("hangs", sharded.hangs.to_json());
        for s in &sharded.profile.stragglers {
            em.text(format!(
                "straggler: {} took {:.2} ms (threshold {:.2} ms)",
                s.unit,
                s.dur_ns as f64 / 1e6,
                s.threshold_ns as f64 / 1e6
            ));
        }
    }
    if let Some(path) = args.value("--csv") {
        write(path, to_csv(&sharded.campaign))?;
        em.text(format!(
            "wrote {} records to {path}",
            sharded.campaign.results.len()
        ));
        em.json_section("csv_path", Json::str(path));
    }
    if let Some(path) = trace_path {
        // The sink warns and disables itself if the file can't be opened.
        if std::path::Path::new(path).exists() {
            em.text(format!("wrote telemetry trace to {path}"));
            em.json_section("trace_path", Json::str(path));
        }
    }
    em.finish();
    Ok(())
}
