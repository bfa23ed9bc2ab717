//! Campaign execution: one program, many independent single-fault runs.
//!
//! The two public entry points, [`run_sensitivity_campaign`] and
//! [`run_coverage_campaign`], are exhaustive sweeps: every planned injection
//! executes once. Both are thin wrappers over the sharded orchestrator
//! ([`crate::orchestrator`]), which additionally supports checkpoint
//! journals, resume, adaptive early stopping, and quarantine of crashing
//! work units.

use crate::classify::{classify, FiOutcome, InjectionResult};
use crate::journal::RecordedInjection;
use crate::orchestrator::{run_orchestrated_campaign, OrchestratorConfig};
use crate::plan::{plan_campaign, InjectionPlan, PlanConfig};
use crate::profile::PhaseAcc;
use hauberk::builds::{build, build_selected, BuildVariant, FtOptions, Instrumented};
use hauberk::control::{ControlBlock, NON_LOOP_DETECTOR};
use hauberk::program::CorrectnessSpec;
use hauberk::program::{golden_run_with_engine, run_program_with_engine, HostProgram};
use hauberk::ranges::{profile_ranges, RangeSet};
use hauberk::runtime::{FiFtRuntime, FiRuntime, ProfilerRuntime};
use hauberk::translator::select::HardeningSelection;
use hauberk_telemetry::metrics::MetricsSnapshot;
use hauberk_telemetry::progress::Progress;
use hauberk_telemetry::{Event, JsonlSink, Telemetry};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Planning parameters (variables, masks, bit counts, scheduler share).
    pub plan: PlanConfig,
    /// RNG seed for planning.
    pub seed: u64,
    /// Watchdog factor: hang budget = golden cycles × this (the guardian's
    /// `T`, §VI: default 10).
    pub watchdog_factor: u64,
    /// Dataset used for the golden/profiling/injection runs.
    pub dataset: u64,
    /// Range widening applied to the profiled ranges (§VI iii; 1.0 = none).
    pub alpha: f64,
    /// Extra datasets used to train the loop detectors before the campaign
    /// (the coverage study trains and tests on the same dataset, like the
    /// paper's Fig. 14; the false-positive study varies this).
    pub training_datasets: Vec<u64>,
    /// Print a progress line to stderr every this many completed injections
    /// (0 = silent).
    pub progress_every: u64,
    /// Write a JSONL event trace of the injection runs here (campaign
    /// start/finish, one `injection_run` per experiment, kernel spans,
    /// fault deliveries, detector alarms).
    pub trace_path: Option<PathBuf>,
    /// Execution engine for the whole campaign: golden run, profiling,
    /// checkpoint capture and injections (`None` = batch, the device
    /// default). The differential suite runs the same campaign under every
    /// engine and asserts identical outcome tallies.
    pub engine: Option<hauberk_sim::ExecEngine>,
    /// Selective detector placement for coverage campaigns (`None` = full
    /// protection, the classic behavior). The profiler and FI&FT builds are
    /// both restricted to the selection, keeping their detector layouts
    /// aligned. Because the FI surface is selection-invariant, plans and
    /// journal fingerprints do not change — a hardened campaign is
    /// index-comparable with its full-protection baseline. Ignored by
    /// sensitivity campaigns (no detectors to select).
    pub hardening: Option<HardeningSelection>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            plan: PlanConfig::default(),
            seed: 0xFEED,
            watchdog_factor: 10,
            dataset: 0,
            alpha: 1.0,
            training_datasets: vec![],
            progress_every: 0,
            trace_path: None,
            engine: None,
            hardening: None,
        }
    }
}

/// Which of the paper's two campaign flavors to run.
#[derive(Debug, Clone, Copy)]
pub enum CampaignKind {
    /// Fig. 1-style error sensitivity: faults into the **baseline** (FI
    /// build, no detectors). Alarms never fire.
    Sensitivity,
    /// Fig. 14-style coverage: faults into the **FI&FT** build with the
    /// loop detectors configured from a profiling pass.
    Coverage(FtOptions),
}

impl CampaignKind {
    /// Stable label used in journal metadata and reports.
    pub fn label(&self) -> &'static str {
        match self {
            CampaignKind::Sensitivity => "sensitivity",
            CampaignKind::Coverage(_) => "coverage",
        }
    }
}

/// Campaign output.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Program name.
    pub program: &'static str,
    /// Per-experiment records.
    pub results: Vec<InjectionResult>,
    /// Golden-run kernel cycles (baseline).
    pub golden_cycles: u64,
    /// Number of loop detectors placed (coverage campaigns only).
    pub detectors: usize,
    /// Derived metrics: per-outcome counters, per-detector firing counts,
    /// per-stratum tallies, and the detection-latency-in-cycles histogram.
    pub metrics: MetricsSnapshot,
}

impl CampaignResult {
    /// Fraction of experiments with a given outcome.
    pub fn ratio(&self, o: FiOutcome) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.results.iter().filter(|r| r.outcome == o).count() as f64 / self.results.len() as f64
    }

    /// Detection coverage = 1 − P(undetected SDC) (§VIII).
    pub fn coverage(&self) -> f64 {
        1.0 - self.ratio(FiOutcome::Undetected)
    }
}

/// Run the profiler build over `datasets` and return the trained ranges
/// (merged across datasets) plus the profiler state of the *last* dataset
/// (whose execution counts drive fault planning).
pub fn profile_program(
    prog: &dyn HostProgram,
    profiler_build: &Instrumented,
    datasets: &[u64],
) -> (Vec<RangeSet>, ProfilerRuntime) {
    profile_program_with_engine(prog, profiler_build, datasets, None)
}

/// [`profile_program`] on an explicit engine (`None` = the device default),
/// so a campaign profiles on the engine its injections use.
pub fn profile_program_with_engine(
    prog: &dyn HostProgram,
    profiler_build: &Instrumented,
    datasets: &[u64],
    engine: Option<hauberk_sim::ExecEngine>,
) -> (Vec<RangeSet>, ProfilerRuntime) {
    let n_det = profiler_build.detectors.len();
    let mut merged: Vec<RangeSet> = vec![RangeSet::default(); n_det];
    let mut last_pr = ProfilerRuntime::default();
    for &ds in datasets {
        let mut pr = ProfilerRuntime::default();
        let run = run_program_with_engine(
            prog,
            &profiler_build.kernel,
            ds,
            &mut pr,
            u64::MAX,
            &Telemetry::disabled(),
            engine,
        );
        assert!(
            run.outcome.is_completed(),
            "profiling run of `{}` dataset {ds} must complete: {:?}",
            prog.name(),
            run.outcome
        );
        for (d, m) in merged.iter_mut().enumerate().take(n_det) {
            let rs = profile_ranges(pr.samples(d as u32));
            m.merge(&rs);
        }
        last_pr = pr;
    }
    (merged, last_pr)
}

/// Extra state a coverage campaign carries per run: trained ranges and the
/// detector-variable names for the control block.
pub(crate) struct CoverageEnv {
    pub(crate) ranges: Vec<RangeSet>,
    pub(crate) det_vars: Vec<String>,
}

/// Everything needed to execute any single planned injection: the
/// instrumented build, golden output, watchdog budget, and the full plan.
/// Built once per campaign by [`prepare_campaign`]; [`CampaignEnv::run_one`]
/// is then pure with respect to the plan index (same index → same result),
/// which is what makes work units idempotent and journals replayable.
pub(crate) struct CampaignEnv {
    pub(crate) build: Instrumented,
    pub(crate) golden: Vec<f64>,
    pub(crate) golden_cycles: u64,
    pub(crate) plans: Vec<InjectionPlan>,
    pub(crate) budget: u64,
    pub(crate) spec: CorrectnessSpec,
    pub(crate) coverage: Option<CoverageEnv>,
    pub(crate) dataset: u64,
    pub(crate) engine: Option<hauberk_sim::ExecEngine>,
    /// Work cycles simulated by the injection runs (plus, in checkpointed
    /// campaigns, the one shared reference run) — the quantity prefix
    /// checkpointing reduces. Observational only: surfaced on
    /// [`crate::orchestrator::ShardedCampaignResult`], never in summaries.
    pub(crate) sim_cycles: std::sync::atomic::AtomicU64,
}

impl CampaignEnv {
    /// Charge simulated work cycles to the campaign's ledger.
    pub(crate) fn add_sim_cycles(&self, cycles: u64) {
        self.sim_cycles
            .fetch_add(cycles, std::sync::atomic::Ordering::Relaxed);
    }

    /// Loop detectors placed in the build under test (0 for sensitivity —
    /// the FI build has none wired up).
    pub(crate) fn detectors(&self) -> usize {
        if self.coverage.is_some() {
            self.build.detectors.len()
        } else {
            0
        }
    }

    /// Execute one planned injection and record its outcome. Deterministic:
    /// the fault, dataset, and engine are all fixed by the plan and config.
    /// Engine time (runtime construction + simulated run) and classification
    /// time are charged to `phases` for the campaign's phase profile.
    pub(crate) fn run_one(
        &self,
        prog: &dyn HostProgram,
        index: usize,
        tele: &Telemetry,
        phases: &PhaseAcc,
    ) -> RecordedInjection {
        let p = &self.plans[index];
        match &self.coverage {
            None => {
                let t_exec = Instant::now();
                let mut rt = FiRuntime::new(Some(p.fault)).with_telemetry(tele.clone());
                let run = run_program_with_engine(
                    prog,
                    &self.build.kernel,
                    self.dataset,
                    &mut rt,
                    self.budget,
                    tele,
                    self.engine,
                );
                self.add_sim_cycles(run.outcome.stats().work_cycles);
                phases.add_execute(t_exec.elapsed().as_nanos() as u64);
                let t_cls = Instant::now();
                let rec = self.record_sensitivity(index, &run.outcome, run.output(), &rt);
                phases.add_classify(t_cls.elapsed().as_nanos() as u64);
                rec
            }
            Some(cov) => {
                let t_exec = Instant::now();
                let mut rt = FiFtRuntime::new(Some(p.fault), self.control_block(cov))
                    .with_telemetry(tele.clone());
                let run = run_program_with_engine(
                    prog,
                    &self.build.kernel,
                    self.dataset,
                    &mut rt,
                    self.budget,
                    tele,
                    self.engine,
                );
                self.add_sim_cycles(run.outcome.stats().work_cycles);
                phases.add_execute(t_exec.elapsed().as_nanos() as u64);
                let t_cls = Instant::now();
                let rec = self.record_coverage(index, &run.outcome, run.output(), &rt);
                phases.add_classify(t_cls.elapsed().as_nanos() as u64);
                rec
            }
        }
    }

    /// [`Self::run_one`] against a shared fault-free checkpoint: restore the
    /// snapshot of the fault's target block instead of re-executing the
    /// prefix, splice the reference tail on reconvergence, and classify with
    /// exactly the same code — byte-identical outcomes are the contract
    /// (`tests/checkpoint_differential.rs`). Falls back to full execution
    /// for the rare plan whose target thread the store does not cover.
    pub(crate) fn run_one_checkpointed(
        &self,
        prog: &dyn HostProgram,
        index: usize,
        tele: &Telemetry,
        phases: &PhaseAcc,
        store: &crate::checkpoint::CheckpointStore,
    ) -> RecordedInjection {
        let p = &self.plans[index];
        if !store.covers(p.fault.thread) {
            return self.run_one(prog, index, tele, phases);
        }
        match &self.coverage {
            None => {
                let t_exec = Instant::now();
                let mut rt = FiRuntime::new(Some(p.fault)).with_telemetry(tele.clone());
                let run = store.run_injection(self, prog, p.fault.thread, &mut rt, tele);
                phases.add_execute(t_exec.elapsed().as_nanos() as u64);
                let t_cls = Instant::now();
                let rec = self.record_sensitivity(index, &run.outcome, run.output.as_deref(), &rt);
                phases.add_classify(t_cls.elapsed().as_nanos() as u64);
                rec
            }
            Some(cov) => {
                let t_exec = Instant::now();
                let mut rt = FiFtRuntime::new(Some(p.fault), self.control_block(cov))
                    .with_telemetry(tele.clone());
                let run = store.run_injection(self, prog, p.fault.thread, &mut rt, tele);
                phases.add_execute(t_exec.elapsed().as_nanos() as u64);
                let t_cls = Instant::now();
                let rec = self.record_coverage(index, &run.outcome, run.output.as_deref(), &rt);
                phases.add_classify(t_cls.elapsed().as_nanos() as u64);
                rec
            }
        }
    }

    /// Fresh control block for one coverage injection.
    fn control_block(&self, cov: &CoverageEnv) -> ControlBlock {
        ControlBlock::with_ranges(cov.ranges.clone()).with_detector_vars(cov.det_vars.clone())
    }

    /// Classify a sensitivity run. Alarms never fire (no detectors wired);
    /// delivery is read from the injection's own runtime.
    fn record_sensitivity(
        &self,
        index: usize,
        outcome: &hauberk_sim::LaunchOutcome,
        output: Option<&[f64]>,
        rt: &FiRuntime,
    ) -> RecordedInjection {
        let outcome = classify(outcome, output, &self.golden, &self.spec, false);
        RecordedInjection {
            index: index as u64,
            outcome,
            delivered: rt.arm.delivered(),
            latency: None,
            alarms: vec![],
        }
    }

    /// Classify a coverage run from the injection's own runtime state
    /// (alarm flag, fired detectors, detection latency, delivery).
    fn record_coverage(
        &self,
        index: usize,
        outcome: &hauberk_sim::LaunchOutcome,
        output: Option<&[f64]>,
        rt: &FiFtRuntime,
    ) -> RecordedInjection {
        let alarm = rt.cb.sdc_flag;
        let outcome = classify(outcome, output, &self.golden, &self.spec, alarm);
        let alarms = rt
            .cb
            .alarms
            .iter()
            .map(|a| {
                if a.detector == NON_LOOP_DETECTOR {
                    "nl".to_string()
                } else {
                    a.detector.to_string()
                }
            })
            .collect();
        RecordedInjection {
            index: index as u64,
            outcome,
            delivered: rt.arm.delivered(),
            latency: rt.detection_latency(),
            alarms,
        }
    }
}

/// Build, profile, and plan: everything up to (but not including) the
/// injection runs. Shared by both campaign kinds.
pub(crate) fn prepare_campaign(
    prog: &dyn HostProgram,
    kind: &CampaignKind,
    cfg: &CampaignConfig,
) -> CampaignEnv {
    let base = prog.build_kernel();
    let (golden, golden_cycles) = golden_run_with_engine(prog, cfg.dataset, cfg.engine);
    let budget = watchdog_budget(golden_cycles, cfg.watchdog_factor);
    match kind {
        CampaignKind::Sensitivity => {
            let profiler_build =
                build(&base, BuildVariant::Profiler(FtOptions::default())).expect("profiler build");
            let (_, pr) =
                profile_program_with_engine(prog, &profiler_build, &[cfg.dataset], cfg.engine);
            let fi_build = build(&base, BuildVariant::Fi).expect("FI build");
            let mut rng = SmallRng::seed_from_u64(cfg.seed);
            let plans = plan_campaign(&fi_build.fi, &pr, &cfg.plan, &mut rng);
            CampaignEnv {
                build: fi_build,
                golden,
                golden_cycles,
                plans,
                budget,
                spec: prog.spec(),
                coverage: None,
                dataset: cfg.dataset,
                engine: cfg.engine,
                sim_cycles: std::sync::atomic::AtomicU64::new(0),
            }
        }
        CampaignKind::Coverage(ft) => {
            // The profiler's detector layout must match the FT build it
            // configures — both receive the same hardening selection.
            let sel = cfg.hardening.as_ref();
            let profiler_build =
                build_selected(&base, BuildVariant::Profiler(*ft), sel).expect("profiler build");
            let mut train = cfg.training_datasets.clone();
            if train.is_empty() {
                train.push(cfg.dataset); // paper Fig. 14: same set for train and test
            }
            // The last profiled dataset must be the injection dataset so
            // execution counts match the injected runs.
            if *train.last().expect("nonempty") != cfg.dataset {
                train.push(cfg.dataset);
            }
            let (mut ranges, pr) =
                profile_program_with_engine(prog, &profiler_build, &train, cfg.engine);
            if cfg.alpha > 1.0 {
                for r in &mut ranges {
                    *r = r.apply_alpha(cfg.alpha);
                }
            }
            let fift = build_selected(&base, BuildVariant::FiFt(*ft), sel).expect("FI&FT build");
            let mut rng = SmallRng::seed_from_u64(cfg.seed);
            let plans = plan_campaign(&fift.fi, &pr, &cfg.plan, &mut rng);
            let det_vars = fift.detectors.iter().map(|d| d.var_name.clone()).collect();
            CampaignEnv {
                build: fift,
                golden,
                golden_cycles,
                plans,
                budget,
                spec: prog.spec(),
                coverage: Some(CoverageEnv { ranges, det_vars }),
                dataset: cfg.dataset,
                engine: cfg.engine,
                sim_cycles: std::sync::atomic::AtomicU64::new(0),
            }
        }
    }
}

/// Fig. 1-style error-sensitivity campaign: faults injected into the
/// **baseline** program (FI build, no detectors). Alarms never fire, so
/// outcomes are failure / masked / undetected ("SDC").
pub fn run_sensitivity_campaign(prog: &dyn HostProgram, cfg: &CampaignConfig) -> CampaignResult {
    run_orchestrated_campaign(
        prog,
        CampaignKind::Sensitivity,
        cfg,
        &OrchestratorConfig::default(),
    )
    .expect("journal-less campaign cannot fail")
    .campaign
}

/// Fig. 14-style coverage campaign: faults injected into the **FI&FT**
/// build, with the loop detectors configured from a profiling pass.
pub fn run_coverage_campaign(
    prog: &dyn HostProgram,
    ft: FtOptions,
    cfg: &CampaignConfig,
) -> CampaignResult {
    run_orchestrated_campaign(
        prog,
        CampaignKind::Coverage(ft),
        cfg,
        &OrchestratorConfig::default(),
    )
    .expect("journal-less campaign cannot fail")
    .campaign
}

/// Telemetry for a campaign: a JSONL file sink when the config names a trace
/// path, disabled otherwise. Trace-file open failures degrade to disabled
/// telemetry with a warning rather than aborting the campaign.
pub(crate) fn campaign_telemetry(cfg: &CampaignConfig) -> Telemetry {
    match &cfg.trace_path {
        Some(path) => match JsonlSink::create(path) {
            Ok(sink) => Telemetry::new(Arc::new(sink)),
            Err(e) => {
                eprintln!("warning: cannot open trace file {}: {e}", path.display());
                Telemetry::disabled()
            }
        },
        None => Telemetry::disabled(),
    }
}

/// Per-injection bookkeeping: the `injection_run` trace event and the
/// progress tick. (Counters are rebuilt deterministically at finalize from
/// the recorded injections, so resumed campaigns report identical metrics.)
pub(crate) fn record_injection(tele: &Telemetry, progress: &Progress, rec: &RecordedInjection) {
    let label = rec.outcome.to_string();
    tele.emit_with(|| Event::InjectionRun {
        index: rec.index,
        outcome: label.clone(),
        delivered: rec.delivered,
        latency: rec.latency,
    });
    progress.tick(&label);
}

/// Emit the campaign-finished event and flush the trace.
pub(crate) fn finish_campaign(tele: &Telemetry, program: &str, runs: usize) {
    tele.emit_with(|| Event::CampaignFinished {
        program: program.to_string(),
        runs: runs as u64,
    });
    tele.flush();
}

/// The hang budget the guardian enforces (§VI: T× the previous execution
/// time, with a floor so short kernels are not killed spuriously).
pub fn watchdog_budget(golden_cycles: u64, factor: u64) -> u64 {
    (golden_cycles.saturating_mul(factor)).max(golden_cycles + 200_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hauberk_benchmarks::{cp::Cp, pns::Pns, ProblemScale};

    fn small_cfg() -> CampaignConfig {
        CampaignConfig {
            plan: PlanConfig {
                vars_per_program: 6,
                masks_per_var: 8,
                bit_counts: vec![1],
                scheduler_per_mille: 80,
                register_per_mille: 80,
            },
            ..Default::default()
        }
    }

    #[test]
    fn sensitivity_campaign_produces_mixed_outcomes() {
        let prog = Cp::new(ProblemScale::Quick);
        let r = run_sensitivity_campaign(&prog, &small_cfg());
        assert!(r.results.len() >= 48);
        // No detectors: nothing may be classified detected.
        assert_eq!(r.ratio(FiOutcome::Detected), 0.0);
        assert_eq!(r.ratio(FiOutcome::DetectedMasked), 0.0);
        // FP-heavy program: a good share of faults manifest as SDC.
        let sdc = r.ratio(FiOutcome::Undetected);
        assert!(sdc > 0.05, "expected SDCs in baseline CP, got {sdc}");
    }

    #[test]
    fn coverage_campaign_detects_a_large_share_of_sdcs() {
        let prog = Cp::new(ProblemScale::Quick);
        let base = run_sensitivity_campaign(&prog, &small_cfg());
        let cov = run_coverage_campaign(&prog, FtOptions::default(), &small_cfg());
        assert!(cov.detectors >= 1);
        assert!(
            cov.ratio(FiOutcome::Detected) + cov.ratio(FiOutcome::DetectedMasked) > 0.0,
            "detectors fire under faults"
        );
        assert!(
            cov.ratio(FiOutcome::Undetected) < base.ratio(FiOutcome::Undetected),
            "Hauberk reduces the SDC escape ratio: {} vs {}",
            cov.ratio(FiOutcome::Undetected),
            base.ratio(FiOutcome::Undetected)
        );
        assert!(cov.coverage() > 0.7, "coverage {}", cov.coverage());
    }

    #[test]
    fn integer_program_campaign_runs() {
        let prog = Pns::new(ProblemScale::Quick);
        let r = run_coverage_campaign(&prog, FtOptions::default(), &small_cfg());
        assert!(!r.results.is_empty());
        // Fault-free FT run must not alarm (sanity: training covers itself).
        // (Implicitly guaranteed: a plan whose fault never delivers and no
        // alarm fires is Masked.)
        assert!(r.coverage() > 0.5);
    }

    #[test]
    fn campaigns_are_deterministic() {
        let prog = Pns::new(ProblemScale::Quick);
        let cfg = small_cfg();
        let a = run_sensitivity_campaign(&prog, &cfg);
        let b = run_sensitivity_campaign(&prog, &cfg);
        let oa: Vec<FiOutcome> = a.results.iter().map(|r| r.outcome).collect();
        let ob: Vec<FiOutcome> = b.results.iter().map(|r| r.outcome).collect();
        assert_eq!(oa, ob);
    }
}
