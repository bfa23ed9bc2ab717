//! The traced run: per-layer metrics measured from outside the program.
//!
//! For the workload's spec (a smaller plan than the timed run), it
//!
//! 1. runs the replica ([`crate::replica`]) with every injection paired
//!    with an unrecorded run of itself, plus once in the other checkpoint
//!    mode;
//! 2. runs the same campaign through `run_orchestrated_campaign` at one
//!    thread (before and after the replica) and at every core, and at every
//!    core in the other checkpoint mode, and checks that each replica pass
//!    reproduces the orchestrator's records and simulated cycles;
//! 3. times the journal calls on the one-thread run's journal;
//! 4. times a fault-free launch under the campaign's hook runtime against
//!    `NullRuntime`;
//! 5. sends `serve-closed` jobs to a daemon from one client and times each
//!    request phase. The `serve.*` metrics describe that job on every
//!    workload; campaign workloads, whose result line must hold them too,
//!    send one pass over the pool instead of [`SERVE_JOBS`].

use crate::replica::{self, Replica};
use crate::serve_load::{job_pool, serve_phases, JobPool, POOL};
use crate::stats::median;
use crate::trace::Recorder;
use crate::workload::{campaign_seed, Size, Workload};
use crate::MetricDef;
use hauberk_serve::JobSpec;
use hauberk_sim::ExecEngine;
use hauberk_swifi::journal::{merge_journals, read_journal, JournalWriter};
use hauberk_swifi::orchestrator::{
    run_orchestrated_campaign, OrchestratorConfig, ShardedCampaignResult,
};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric, in report order.
pub const PER_LAYER: &[MetricDef] = &[
    MetricDef::new("kir.compile_ms", "ms", "lower"),
    MetricDef::new("core.build_ms", "ms", "lower"),
    MetricDef::new("core.golden_ms", "ms", "lower"),
    MetricDef::new("swifi.profile_ms", "ms", "lower"),
    MetricDef::new("swifi.plan_ms", "ms", "lower"),
    MetricDef::new("sim.capture_ms", "ms", "lower"),
    MetricDef::new("benchmarks.setup_us", "us", "lower"),
    MetricDef::new("benchmarks.read_output_us", "us", "lower"),
    MetricDef::new("swifi.classify_us", "us", "lower"),
    MetricDef::new("sim.prepare_us", "us", "lower"),
    MetricDef::new("sim.launch_us", "us", "lower"),
    MetricDef::new("sim.resume_us", "us", "lower"),
    MetricDef::new("sim.host_ns_per_cycle", "ns/cycle", "lower"),
    MetricDef::new("core.runtime_overhead_pct", "%", "lower"),
    MetricDef::new("swifi.journal_append_us", "us", "lower"),
    MetricDef::new("swifi.journal_read_ms", "ms", "lower"),
    MetricDef::new("swifi.merge_ms", "ms", "lower"),
    MetricDef::new("swifi.orchestrator_residual_pct", "%", "lower"),
    MetricDef::new("swifi.parallel_efficiency", "ratio", "higher"),
    MetricDef::new("swifi.ckpt_wall_speedup", "ratio", "higher"),
    MetricDef::new("sim.ckpt_cycle_reduction", "ratio", "higher"),
    MetricDef::new("sim.work_kcycles_per_injection", "kcycle", "lower"),
    MetricDef::new("sim.spliced_ratio", "ratio", "higher"),
    MetricDef::new("swifi.units", "count", "lower"),
    MetricDef::new("swifi.journal_bytes_per_injection", "B", "lower"),
    MetricDef::new("serve.healthz_ms_p50", "ms", "lower"),
    MetricDef::new("serve.submit_ms_p50", "ms", "lower"),
    MetricDef::new("serve.status_ms_p50", "ms", "lower"),
    MetricDef::new("serve.result_ms_p50", "ms", "lower"),
    MetricDef::new("serve.cache_hit_ms_p50", "ms", "lower"),
    MetricDef::new("serve.queue_ms_p50", "ms", "lower"),
    MetricDef::new("serve.exec_ms_p50", "ms", "lower"),
    MetricDef::new("serve.turnaround_ms_p50", "ms", "lower"),
    MetricDef::new("serve.inprocess_ms_p50", "ms", "lower"),
    MetricDef::new("serve.overhead_ms_p50", "ms", "lower"),
    MetricDef::new("trace.overhead_pct", "%", "lower"),
];

/// Jobs the traced `serve-closed` run sends to the daemon.
const SERVE_JOBS: usize = 40;

/// Span owners of the two replica passes.
const MODE: u64 = 1;
const OTHER: u64 = 2;

/// Result of a traced run.
pub struct Traced {
    /// Every [`PER_LAYER`] metric by name, in that order.
    pub values: Vec<(&'static str, f64)>,
    /// Injections of the traced campaign.
    pub injections: u64,
    /// Mismatches between the replica, the orchestrator and the daemon.
    pub problems: Vec<String>,
    /// Human-readable report: span self times and orchestrator phases.
    pub report: String,
    /// Every span, one JSON object per line.
    pub jsonl: String,
}

fn orchestrate(
    spec: &JobSpec,
    threads: usize,
    checkpoint: bool,
    journal: &Path,
) -> Result<(ShardedCampaignResult, f64), String> {
    let prog = spec.build_program()?;
    rayon::set_thread_count(threads);
    let t = Instant::now();
    let r = run_orchestrated_campaign(
        prog.as_ref(),
        spec.campaign_kind(),
        &spec.campaign_config(),
        &OrchestratorConfig {
            checkpoint,
            journal_path: Some(journal.to_path_buf()),
            ..spec.orchestrator_config()
        },
    );
    let secs = t.elapsed().as_secs_f64();
    rayon::set_thread_count(0);
    Ok((r?, secs))
}

/// Check a replica pass against the orchestrator run of the same mode.
fn check(pass: &str, rep: &Replica, orch: &ShardedCampaignResult, problems: &mut Vec<String>) {
    let mismatched = rep
        .records
        .iter()
        .zip(&orch.records)
        .filter(|(a, b)| a != b)
        .count()
        + rep.records.len().abs_diff(orch.records.len());
    if mismatched > 0 {
        problems.push(format!(
            "replica {pass}: {mismatched} records differ from the orchestrator's"
        ));
    }
    if rep.counts.sim_cycles != orch.sim_cycles {
        problems.push(format!(
            "replica {pass}: {} simulated cycles, orchestrator {}",
            rep.counts.sim_cycles, orch.sim_cycles
        ));
    }
    if let Some(ck) = &orch.checkpoint {
        if (rep.counts.resumed, rep.counts.spliced) != (ck.injections, ck.spliced) {
            problems.push(format!(
                "replica {pass}: {}/{} resumed/spliced, orchestrator {}/{}",
                rep.counts.resumed, rep.counts.spliced, ck.injections, ck.spliced
            ));
        }
    }
}

/// Uncached compilation of `kernel` for the engine the campaign runs on.
fn compile(kernel: &hauberk_kir::KernelDef, config: &hauberk_sim::DeviceConfig) {
    match config.engine {
        ExecEngine::Batch => drop(std::hint::black_box(hauberk_sim::compile_batch(
            kernel,
            &config.cost,
        ))),
        _ => drop(std::hint::black_box(hauberk_sim::bytecode::compile(
            kernel,
            &config.cost,
        ))),
    }
}

/// Run the traced measurement of `w` for `seed`; journals go to `dir`.
/// `pool` is the daemon job pool when pre-flight already built it.
pub fn run(
    w: Workload,
    seed: u64,
    size: Size,
    pool: Option<JobPool>,
    dir: &Path,
) -> Result<Traced, String> {
    let spec = w.spec(campaign_seed(seed, 0), size);
    let ckpt = spec.checkpoint;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rec = Recorder::new(true);
    let mut problems = Vec::new();

    // Replica passes run on this thread, one injection at a time. The
    // one-thread orchestrator runs on both sides of the paired pass, so
    // machine drift hits both sides of the residual.
    let (t1a, t1a_s) = orchestrate(&spec, 1, ckpt, &dir.join("t1.jsonl"))?;
    let mode = replica::run(&spec, ckpt, &mut rec, MODE, true)?;
    let (t1, t1b_s) = orchestrate(&spec, 1, ckpt, &dir.join("t1.jsonl"))?;
    let t1_s = (t1a_s + t1b_s) / 2.0;
    let (t2, t2_s) = orchestrate(&spec, cores, ckpt, &dir.join("t2.jsonl"))?;
    let (t2o, t2o_s) = orchestrate(&spec, cores, !ckpt, &dir.join("t2o.jsonl"))?;
    let other = replica::run(&spec, !ckpt, &mut rec, OTHER, false)?;
    let env = &mode.env;
    let (_, compile_ns) = rec.time("kir.compile", 0, || compile(&env.kernel, &env.config));
    if t1a.summary_json() != t1.summary_json() || t2.summary_json() != t1.summary_json() {
        problems.push("orchestrator summaries differ across runs or thread counts".into());
    }
    check("paired", &mode, &t1, &mut problems);
    check("other-mode", &other, &t2o, &mut problems);

    // Journal calls on the one-thread run's journal: read it, append its
    // units to two shard files, merge them.
    let j1 = dir.join("t1.jsonl");
    let (replay, _) = rec.time("swifi.journal_read", 0, || read_journal(&j1));
    let replay = replay?;
    let meta = replay
        .meta
        .as_ref()
        .ok_or("traced journal has no meta record")?;
    let shards = [dir.join("s0.jsonl"), dir.join("s1.jsonl")];
    let writers = [
        JournalWriter::create(&shards[0], meta)?,
        JournalWriter::create(&shards[1], meta)?,
    ];
    for (i, unit) in replay.units.values().enumerate() {
        rec.time("swifi.journal_append", 0, || writers[i % 2].unit(unit))
            .0?;
    }
    drop(writers);
    let merged = dir.join("merged.jsonl");
    let (units, _) = rec.time("swifi.merge", 0, || merge_journals(&merged, &shards));
    if units? != replay.units.len() {
        problems.push("journal merge lost units".into());
    }
    // The merged journal holds no timing record, so its size repeats exactly.
    let journal_bytes = std::fs::metadata(&merged).map_err(|e| e.to_string())?.len();

    let overhead_pct = replica::runtime_overhead_pct(&spec, env, 31)?;
    let pool = match pool {
        Some(p) => p,
        None => job_pool(seed)?,
    };
    let jobs = match (w, size) {
        (_, Size::Tiny) => 4,
        (Workload::ServeClosed, _) => SERVE_JOBS,
        _ => POOL as usize,
    };
    problems.extend(serve_phases(&pool, jobs, &mut rec)?);

    // Derived metrics.
    let med = |name: &str, ids: &[u64]| median(&rec.durations(name, ids)).unwrap_or(f64::NAN);
    let sum = |name: &str, ids: &[u64]| rec.durations(name, ids).iter().sum::<f64>();
    let both = [MODE, OTHER];
    let per_pass_ms = |name: &str| sum(name, &both) / both.len() as f64 / 1e6;
    let (full, full_id, full_s, ckpt_run, ckpt_s, ckpt_pass) = if ckpt {
        (&t2o, OTHER, t2o_s, &t2, t2_s, &mode)
    } else {
        (&t2, MODE, t2_s, &t2o, t2o_s, &other)
    };
    let full_cycles = if ckpt {
        other.counts.sim_cycles
    } else {
        mode.counts.sim_cycles
    };
    let (on_ns, off_ns) = mode.paired.iter().fold((0.0, 0.0), |(a, b), &(on, off)| {
        (a + on as f64, b + off as f64)
    });
    // The replica's share of the one-thread wall time: its campaign span
    // without the unrecorded runs and the extra `prepare` calls.
    let tiling_s = (sum("campaign", &[MODE]) - off_ns - sum("sim.prepare", &[MODE])) / 1e9;
    let serve_turnaround = med("serve.job", &[]);
    let serve_inprocess = med("serve.inprocess", &[]);
    let values = vec![
        ("kir.compile_ms", compile_ns as f64 / 1e6),
        ("core.build_ms", per_pass_ms("core.build")),
        ("core.golden_ms", per_pass_ms("core.golden")),
        ("swifi.profile_ms", per_pass_ms("swifi.profile")),
        ("swifi.plan_ms", per_pass_ms("swifi.plan")),
        ("sim.capture_ms", med("sim.capture", &[]) / 1e6),
        (
            "benchmarks.setup_us",
            med("benchmarks.setup", &[full_id]) / 1e3,
        ),
        (
            "benchmarks.read_output_us",
            med("benchmarks.read_output", &both) / 1e3,
        ),
        ("swifi.classify_us", med("swifi.classify", &both) / 1e3),
        ("sim.prepare_us", med("sim.prepare", &both) / 1e3),
        ("sim.launch_us", med("sim.launch", &both) / 1e3),
        ("sim.resume_us", med("sim.resume", &both) / 1e3),
        (
            "sim.host_ns_per_cycle",
            sum("sim.launch", &[full_id]) / full_cycles as f64,
        ),
        ("core.runtime_overhead_pct", overhead_pct),
        (
            "swifi.journal_append_us",
            med("swifi.journal_append", &[]) / 1e3,
        ),
        (
            "swifi.journal_read_ms",
            med("swifi.journal_read", &[]) / 1e6,
        ),
        ("swifi.merge_ms", med("swifi.merge", &[]) / 1e6),
        (
            "swifi.orchestrator_residual_pct",
            (t1_s - tiling_s) / t1_s * 100.0,
        ),
        ("swifi.parallel_efficiency", t1_s / (cores as f64 * t2_s)),
        ("swifi.ckpt_wall_speedup", full_s / ckpt_s),
        (
            "sim.ckpt_cycle_reduction",
            full.sim_cycles as f64 / ckpt_run.sim_cycles as f64,
        ),
        (
            "sim.work_kcycles_per_injection",
            t1.sim_cycles as f64 / 1e3 / t1.executed as f64,
        ),
        (
            "sim.spliced_ratio",
            ckpt_pass.counts.spliced as f64 / ckpt_pass.counts.resumed.max(1) as f64,
        ),
        ("swifi.units", t1.profile.units as f64),
        (
            "swifi.journal_bytes_per_injection",
            journal_bytes as f64 / t1.executed as f64,
        ),
        ("serve.healthz_ms_p50", med("serve.healthz", &[]) / 1e6),
        ("serve.submit_ms_p50", med("serve.submit", &[]) / 1e6),
        ("serve.status_ms_p50", med("serve.status", &[]) / 1e6),
        ("serve.result_ms_p50", med("serve.result", &[]) / 1e6),
        ("serve.cache_hit_ms_p50", med("serve.cache_hit", &[]) / 1e6),
        ("serve.queue_ms_p50", med("serve.queue", &[]) / 1e6),
        ("serve.exec_ms_p50", med("serve.exec", &[]) / 1e6),
        ("serve.turnaround_ms_p50", serve_turnaround / 1e6),
        ("serve.inprocess_ms_p50", serve_inprocess / 1e6),
        (
            "serve.overhead_ms_p50",
            (serve_turnaround - serve_inprocess) / 1e6,
        ),
        ("trace.overhead_pct", (on_ns / off_ns - 1.0) * 100.0),
    ];
    debug_assert!(values
        .iter()
        .map(|v| v.0)
        .eq(PER_LAYER.iter().map(|d| d.name)));

    let mut report = String::new();
    let _ = writeln!(
        report,
        "{}: traced campaign of {} injections; replica self time by layer call \
         (recorded runs of the paired pass, one thread):",
        w.name(),
        t1.executed
    );
    // The unrecorded runs of the paired pass sit in the campaign span's
    // self time; they are not the replica's own work.
    let mut totals = rec.totals_by_name(|s| s.id == MODE);
    if let Some(c) = totals.get_mut("campaign") {
        c.self_ns = c.self_ns.saturating_sub(off_ns as u64);
    }
    let whole: u64 = totals.values().map(|t| t.self_ns).sum();
    for (name, t) in &totals {
        let _ = writeln!(
            report,
            "  {name:<24} {:>7} calls {:>10.1} ms self {:>5.1}%",
            t.count,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / whole.max(1) as f64
        );
    }
    let _ = writeln!(
        report,
        "  orchestrator phases at 1 thread ({:.3} s wall):",
        t1_s
    );
    for (phase, ns) in t1.profile.phases() {
        let _ = writeln!(
            report,
            "  {phase:<24} {:>10.1} ms       {:>5.1}%",
            ns as f64 / 1e6,
            100.0 * ns as f64 / t1.profile.wall_ns.max(1) as f64
        );
    }
    let mut jsonl = String::new();
    rec.write_jsonl(&mut jsonl, &format!("{}-{seed}", w.name()));
    Ok(Traced {
        values,
        injections: t1.executed,
        problems,
        report,
        jsonl,
    })
}
