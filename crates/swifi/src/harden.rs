//! Closed-loop selective hardening: vulnerability-ranked detector placement.
//!
//! Full-protection Hauberk instruments every eligible site; this module
//! closes the campaign → translator loop instead:
//!
//! 1. run (or ingest, via [`HardenConfig::baseline_journal`]) a baseline
//!    error-sensitivity campaign on the unprotected program;
//! 2. rank every placeable detector — each Hauberk-NL variable, each
//!    Hauberk-L `(loop, variable)` detector, and each loop's trip-count
//!    invariant (separately selectable: a deselected trip check elides the
//!    per-iteration counter, the dominant loop-detector cost) — by
//!    measured vulnerability:
//!    the Wilson lower bound of its SDC escape rate (so low-sample sites
//!    cannot dominate on noise) times its dynamic exposure (execution
//!    count of its injection sites);
//! 3. measure each candidate's marginal fault-free overhead, order the
//!    ranking greedily by score density (score per overhead cycle),
//!    measure the overhead of every greedy prefix, map each overhead
//!    budget to the longest prefix that fits, and emit the selection as a
//!    serializable
//!    [`HardeningPlan`] the translator consumes
//!    ([`hauberk::builds::build_selected`]);
//! 4. re-run the coverage campaign under each distinct placement to
//!    measure *achieved* coverage, yielding the coverage-vs-overhead
//!    Pareto front;
//! 5. optionally iterate: further baseline rounds (fresh seeds) tighten
//!    the Wilson bounds; the loop stops early once the ranking is stable.
//!
//! Because the FI surface is invariant under selection (see
//! [`hauberk::builds::build_selected`]), the baseline and every hardened
//! campaign share plan numbering and fingerprints — coverage deltas are
//! measured injection-for-injection, not approximated.
//!
//! Everything here is deterministic: same journal (or same seed) in,
//! byte-identical plan and front out, across engines and thread counts.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::campaign::{
    prepare_campaign, profile_program_with_engine, CampaignConfig, CampaignKind,
};
use crate::classify::FiOutcome;
use crate::journal::RecordedInjection;
use crate::orchestrator::{fingerprint_plans, run_orchestrated_campaign, OrchestratorConfig};
use crate::plan::InjectionPlan;
use crate::sampler::wilson_interval;
use hauberk::builds::{build_selected, BuildVariant, FtOptions};
use hauberk::control::ControlBlock;
use hauberk::program::{run_program_with_engine, HostProgram};
use hauberk::runtime::FtRuntime;
use hauberk::translator::select::{HardeningPlan, HardeningSelection};
use hauberk_kir::stmt::LoopId;
use hauberk_sim::{FaultSite, LaunchOutcome};
use hauberk_telemetry::json::Json;
use hauberk_telemetry::Telemetry;

/// The z-score of the 95% Wilson interval used for vulnerability ranking.
const RANK_Z: f64 = 1.96;

/// The default budget ladder swept when [`HardenConfig::budgets`] is empty
/// (fractions of the full-protection detector overhead).
pub const DEFAULT_BUDGETS: [f64; 7] = [0.0, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0];

/// Parameters of one hardening optimization.
#[derive(Debug, Clone)]
pub struct HardenConfig {
    /// Detector families and `Maxvar` of the full-protection reference
    /// build the budgets are measured against.
    pub ft: FtOptions,
    /// The budget the emitted [`HardenReport::plan`] is fitted under, as a
    /// fraction of the full-protection detector overhead.
    pub budget: f64,
    /// Budget ladder for the Pareto sweep ([`DEFAULT_BUDGETS`] when empty;
    /// [`Self::budget`] is always included).
    pub budgets: Vec<f64>,
    /// Baseline sensitivity rounds (≥ 1). Round `i` re-plans with seed
    /// `campaign.seed + i` and its tallies accumulate, tightening the
    /// Wilson bounds; the loop stops early once the ranking stabilizes.
    pub iterations: usize,
    /// Campaign parameters shared by the baseline and coverage runs. Its
    /// `hardening` field is ignored (the optimizer sets it per placement).
    pub campaign: CampaignConfig,
    /// Resume the first baseline round from this checkpoint journal
    /// instead of executing it — "ingest a recorded campaign". The
    /// journal's identity (program, kind, plan fingerprint) must match,
    /// exactly as for any resumed campaign.
    pub baseline_journal: Option<PathBuf>,
}

impl Default for HardenConfig {
    fn default() -> Self {
        HardenConfig {
            ft: FtOptions::default(),
            budget: 0.5,
            budgets: vec![],
            iterations: 1,
            campaign: CampaignConfig::default(),
            baseline_journal: None,
        }
    }
}

/// Which detector family a ranked candidate places.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CandidateKind {
    /// Hauberk-NL duplication + checksum of one variable.
    NonLoop,
    /// One Hauberk-L `(loop, variable)` range detector.
    Loop,
    /// One loop's trip-count invariant: the per-iteration counter plus the
    /// `CheckEqual` against the statically derived trip. Selectable only
    /// for loops with a derivable trip — when deselected, the loop's range
    /// detectors divide by the precomputed expected trip and the counter
    /// (the dominant per-iteration cost) is elided.
    TripCheck,
}

impl CandidateKind {
    /// Stable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            CandidateKind::NonLoop => "nl",
            CandidateKind::Loop => "loop",
            CandidateKind::TripCheck => "trip",
        }
    }
}

/// One placeable detector with its measured vulnerability.
#[derive(Debug, Clone)]
pub struct RankedCandidate {
    /// Detector family.
    pub kind: CandidateKind,
    /// Protected loop (loop candidates only).
    pub loop_id: Option<LoopId>,
    /// Protected variable name.
    pub var_name: String,
    /// Baseline injections attributed to this candidate that escaped as
    /// SDC.
    pub undetected: u64,
    /// Baseline injections attributed to this candidate.
    pub samples: u64,
    /// Wilson lower bound of the SDC escape rate (the conservative
    /// vulnerability estimate).
    pub vulnerability: f64,
    /// Dynamic exposure: total executions of the candidate's injection
    /// sites in the profiled run.
    pub exposure: f64,
    /// Vulnerability weight: `vulnerability × exposure`. Candidates are
    /// ordered by score *density* (score per marginal overhead cycle), the
    /// greedy knapsack heuristic — a cheap range-only detector outranks
    /// the expensive trip counter it would otherwise drag in.
    pub score: f64,
    /// Measured marginal fault-free cost of this candidate alone (for a
    /// trip check: on top of its loop's range detectors), in kernel
    /// cycles. The denominator of the greedy ordering.
    pub marginal_overhead_cycles: u64,
    /// Measured fault-free detector overhead (kernel cycles over baseline)
    /// of the greedy prefix ending at this candidate.
    pub prefix_overhead_cycles: u64,
}

impl RankedCandidate {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::str(self.kind.label())),
            (
                "loop",
                match self.loop_id {
                    Some(l) => Json::uint(l as u64),
                    None => Json::Null,
                },
            ),
            ("var", Json::str(self.var_name.clone())),
            ("undetected", Json::uint(self.undetected)),
            ("samples", Json::uint(self.samples)),
            ("vulnerability", Json::Num(self.vulnerability)),
            ("exposure", Json::Num(self.exposure)),
            ("score", Json::Num(self.score)),
            (
                "marginal_overhead_cycles",
                Json::uint(self.marginal_overhead_cycles),
            ),
            (
                "prefix_overhead_cycles",
                Json::uint(self.prefix_overhead_cycles),
            ),
        ])
    }
}

/// One measured point of the coverage-vs-overhead Pareto front.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// Budget this point was fitted under (fraction of full overhead).
    pub budget: f64,
    /// Number of active placements in the selection (a ranking prefix can
    /// be longer: a trip check whose loop has no selected range detector
    /// is inactive and dropped).
    pub selected: usize,
    /// The placement itself.
    pub selection: HardeningSelection,
    /// Measured fault-free detector overhead in kernel cycles.
    pub overhead_cycles: u64,
    /// Overhead as a fraction of the baseline kernel cycles.
    pub overhead_frac: f64,
    /// Measured detection coverage (1 − P(undetected)) of the re-run
    /// campaign under this placement.
    pub coverage: f64,
    /// Measured SDC escape ratio under this placement.
    pub sdc_ratio: f64,
}

impl ParetoPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("budget", Json::Num(self.budget)),
            ("selected", Json::uint(self.selected as u64)),
            ("selection", self.selection.to_json()),
            ("overhead_cycles", Json::uint(self.overhead_cycles)),
            ("overhead_frac", Json::Num(self.overhead_frac)),
            ("coverage", Json::Num(self.coverage)),
            ("sdc_ratio", Json::Num(self.sdc_ratio)),
        ])
    }
}

/// Output of [`harden`]: the ranking, the front, and the plan at the
/// primary budget.
#[derive(Debug, Clone)]
pub struct HardenReport {
    /// Program name.
    pub program: String,
    /// Baseline (uninstrumented) kernel cycles.
    pub golden_cycles: u64,
    /// Baseline SDC escape ratio (no detectors).
    pub baseline_sdc: f64,
    /// Baseline injections executed (all rounds).
    pub baseline_injections: u64,
    /// Fault-free detector overhead of the full-protection build, in
    /// kernel cycles — the denominator of every budget.
    pub full_overhead_cycles: u64,
    /// Measured coverage of the full-protection build.
    pub full_coverage: f64,
    /// All candidates in rank order (most vulnerable first).
    pub candidates: Vec<RankedCandidate>,
    /// The measured Pareto front, one point per budget (ascending).
    pub front: Vec<ParetoPoint>,
    /// The placement fitted under [`HardenConfig::budget`].
    pub plan: HardeningPlan,
    /// Baseline rounds actually executed.
    pub iterations_run: usize,
    /// Whether the ranking stabilized before the round budget ran out.
    pub converged: bool,
}

impl HardenReport {
    /// Machine-readable report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("program", Json::str(self.program.clone())),
            ("golden_cycles", Json::uint(self.golden_cycles)),
            ("baseline_sdc", Json::Num(self.baseline_sdc)),
            ("baseline_injections", Json::uint(self.baseline_injections)),
            (
                "full_overhead_cycles",
                Json::uint(self.full_overhead_cycles),
            ),
            ("full_coverage", Json::Num(self.full_coverage)),
            (
                "candidates",
                Json::Arr(self.candidates.iter().map(|c| c.to_json()).collect()),
            ),
            (
                "front",
                Json::Arr(self.front.iter().map(|p| p.to_json()).collect()),
            ),
            ("plan", self.plan.to_json()),
            ("iterations_run", Json::uint(self.iterations_run as u64)),
            ("converged", Json::Bool(self.converged)),
        ])
    }

    /// The Pareto front as CSV (byte-stable: floats use Rust's shortest
    /// round-trip formatting, rows follow the budget ladder).
    pub fn front_csv(&self) -> String {
        let mut out =
            String::from("budget,selected,overhead_cycles,overhead_frac,coverage,sdc_ratio\n");
        for p in &self.front {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                p.budget, p.selected, p.overhead_cycles, p.overhead_frac, p.coverage, p.sdc_ratio
            ));
        }
        out
    }
}

/// Identity of a candidate, used for attribution and stability checks.
type CandidateKey = (CandidateKind, Option<LoopId>, String);

/// Accumulated baseline tallies per candidate.
#[derive(Default, Clone, Copy)]
struct Tally {
    undetected: u64,
    samples: u64,
}

/// Attribute one baseline injection to the candidates whose detector would
/// have been in a position to observe it:
///
/// * a variable fault at a non-loop site goes to the variable's NL
///   candidate;
/// * a variable fault at an in-loop site goes to the variable's loop
///   candidates (the range detector watches the variable's accumulated
///   value);
/// * a scheduler fault (iterator/decision) goes to the targeted loop's
///   trip-check candidate — the invariant built to catch iteration-count
///   perturbations — falling back to the loop's range candidates when the
///   trip is not derivable (no trip-check candidate exists).
fn attribute(
    plan: &InjectionPlan,
    rec: &RecordedInjection,
    sites: &BTreeMap<u32, (String, bool)>,
    tallies: &mut BTreeMap<CandidateKey, Tally>,
) {
    let keys: Vec<CandidateKey> = match plan.fault.site {
        FaultSite::HookTarget { site } | FaultSite::RegisterLive { site, .. } => {
            let Some((var, in_loop)) = sites.get(&site) else {
                return;
            };
            if *in_loop {
                // Any loop candidate protecting this variable.
                tallies
                    .keys()
                    .filter(|(k, _, v)| *k == CandidateKind::Loop && v == var)
                    .cloned()
                    .collect()
            } else {
                vec![(CandidateKind::NonLoop, None, var.clone())]
            }
        }
        FaultSite::LoopIterator { loop_id } | FaultSite::LoopDecision { loop_id } => {
            let trip: Vec<CandidateKey> = tallies
                .keys()
                .filter(|(k, l, _)| *k == CandidateKind::TripCheck && *l == Some(loop_id))
                .cloned()
                .collect();
            if trip.is_empty() {
                tallies
                    .keys()
                    .filter(|(k, l, _)| *k == CandidateKind::Loop && *l == Some(loop_id))
                    .cloned()
                    .collect()
            } else {
                trip
            }
        }
    };
    for key in &keys {
        if let Some(t) = tallies.get_mut(key) {
            t.samples += 1;
            if rec.outcome == FiOutcome::Undetected {
                t.undetected += 1;
            }
        }
    }
}

/// Baseline kernel *time* (per-SM critical path) — the denominator of
/// every overhead number. Not [`hauberk::program::golden_run`]'s second
/// value, which is total *work* cycles (the watchdog quantity).
fn baseline_kernel_cycles(
    prog: &dyn HostProgram,
    base: &hauberk_kir::KernelDef,
    cfg: &CampaignConfig,
) -> Result<u64, String> {
    let run = run_program_with_engine(
        prog,
        base,
        cfg.dataset,
        &mut hauberk_sim::NullRuntime,
        u64::MAX,
        &Telemetry::disabled(),
        cfg.engine,
    );
    match run.outcome {
        LaunchOutcome::Completed(s) => Ok(s.kernel_cycles),
        other => Err(format!(
            "baseline run of `{}` did not complete: {other:?}",
            prog.name()
        )),
    }
}

/// The training-dataset list a coverage run would use (mirrors
/// `prepare_campaign`): configured sets, with the injection dataset
/// appended so execution counts match.
fn train_sets(cfg: &CampaignConfig) -> Vec<u64> {
    let mut train = cfg.training_datasets.clone();
    if train.is_empty() {
        train.push(cfg.dataset);
    }
    if *train.last().expect("nonempty") != cfg.dataset {
        train.push(cfg.dataset);
    }
    train
}

/// Measure the fault-free detector overhead of one placement, in kernel
/// cycles over the baseline: profile (selection-restricted), train ranges,
/// run the selected FT build once, and diff kernel cycles. An empty
/// selection is 0 by construction.
fn measure_overhead(
    prog: &dyn HostProgram,
    base: &hauberk_kir::KernelDef,
    cfg: &HardenConfig,
    sel: &HardeningSelection,
    golden_cycles: u64,
) -> Result<u64, String> {
    if sel.is_empty() {
        return Ok(0);
    }
    let stats = ft_fault_free_stats(prog, base, cfg, Some(sel))?;
    Ok(stats.overhead_vs(golden_cycles))
}

/// Run the (optionally selected) FT build fault-free with trained ranges
/// and return its [`hauberk_sim::ExecStats`]. Errs on a false positive or
/// an abnormal termination — both would invalidate the overhead number.
fn ft_fault_free_stats(
    prog: &dyn HostProgram,
    base: &hauberk_kir::KernelDef,
    cfg: &HardenConfig,
    sel: Option<&HardeningSelection>,
) -> Result<hauberk_sim::ExecStats, String> {
    let profiler = build_selected(base, BuildVariant::Profiler(cfg.ft), sel)
        .map_err(|e| format!("profiler build: {e}"))?;
    let (mut ranges, _) = profile_program_with_engine(
        prog,
        &profiler,
        &train_sets(&cfg.campaign),
        cfg.campaign.engine,
    );
    if cfg.campaign.alpha > 1.0 {
        for r in &mut ranges {
            *r = r.apply_alpha(cfg.campaign.alpha);
        }
    }
    let ft = build_selected(base, BuildVariant::Ft(cfg.ft), sel)
        .map_err(|e| format!("ft build: {e}"))?;
    let det_vars = ft.detectors.iter().map(|d| d.var_name.clone()).collect();
    let cb = ControlBlock::with_ranges(ranges).with_detector_vars(det_vars);
    let mut rt = FtRuntime::new(cb);
    let run = run_program_with_engine(
        prog,
        &ft.kernel,
        cfg.campaign.dataset,
        &mut rt,
        u64::MAX,
        &Telemetry::disabled(),
        cfg.campaign.engine,
    );
    let LaunchOutcome::Completed(stats) = run.outcome else {
        return Err(format!(
            "fault-free FT run of `{}` did not complete: {:?}",
            prog.name(),
            run.outcome
        ));
    };
    if rt.cb.sdc_flag {
        return Err(format!(
            "fault-free FT run of `{}` raised a detector alarm (training does not cover the test dataset)",
            prog.name()
        ));
    }
    Ok(stats)
}

/// Run a coverage campaign under `sel` and return `(coverage, sdc_ratio)`.
fn measure_coverage(
    prog: &dyn HostProgram,
    cfg: &HardenConfig,
    sel: &HardeningSelection,
) -> Result<(f64, f64), String> {
    let mut ccfg = cfg.campaign.clone();
    ccfg.hardening = Some(sel.clone());
    let r = run_orchestrated_campaign(
        prog,
        CampaignKind::Coverage(cfg.ft),
        &ccfg,
        &OrchestratorConfig::default(),
    )?;
    Ok((
        r.campaign.coverage(),
        r.campaign.ratio(FiOutcome::Undetected),
    ))
}

/// Rank the accumulated tallies greedily by score *density*: score =
/// Wilson-lower-bound(SDC rate) × exposure, divided by the candidate's
/// measured marginal overhead (clamped to ≥ 1 cycle), descending, with a
/// total deterministic tie-break on the candidate identity. Dividing by
/// cost is the classic greedy knapsack heuristic: it lets many cheap
/// detectors fit under a budget before one expensive high-score one.
fn rank(
    tallies: &BTreeMap<CandidateKey, Tally>,
    exposure: &BTreeMap<CandidateKey, f64>,
    costs: &BTreeMap<CandidateKey, u64>,
) -> Vec<RankedCandidate> {
    let mut out: Vec<RankedCandidate> = tallies
        .iter()
        .map(|((kind, loop_id, var), t)| {
            let vulnerability = wilson_interval(t.undetected, t.samples, RANK_Z).0;
            let key = (*kind, *loop_id, var.clone());
            let exp = exposure.get(&key).copied().unwrap_or(0.0);
            RankedCandidate {
                kind: *kind,
                loop_id: *loop_id,
                var_name: var.clone(),
                undetected: t.undetected,
                samples: t.samples,
                vulnerability,
                exposure: exp,
                score: vulnerability * exp,
                marginal_overhead_cycles: costs.get(&key).copied().unwrap_or(0),
                prefix_overhead_cycles: 0,
            }
        })
        .collect();
    let density = |c: &RankedCandidate| c.score / c.marginal_overhead_cycles.max(1) as f64;
    out.sort_by(|a, b| {
        density(b)
            .total_cmp(&density(a))
            .then_with(|| a.kind.cmp(&b.kind))
            .then_with(|| a.loop_id.cmp(&b.loop_id))
            .then_with(|| a.var_name.cmp(&b.var_name))
    });
    out
}

/// The selection made of the flagged candidates (normalized). A trip
/// check is only active when its loop also has a selected range detector
/// (there is no check to attach it to otherwise); dropping the inactive
/// ones keeps nested candidate sets mapping to nested selections.
fn selection_of(candidates: &[RankedCandidate], included: &[bool]) -> HardeningSelection {
    let mut sel = HardeningSelection::default();
    for (c, _) in candidates.iter().zip(included).filter(|(_, inc)| **inc) {
        match c.kind {
            CandidateKind::NonLoop => sel.nonloop_vars.push(c.var_name.clone()),
            CandidateKind::Loop => sel
                .loop_detectors
                .push((c.loop_id.expect("loop candidate"), c.var_name.clone())),
            CandidateKind::TripCheck => sel.trip_checks.push(c.loop_id.expect("trip candidate")),
        }
    }
    sel.trip_checks
        .retain(|l| sel.loop_detectors.iter().any(|(dl, _)| dl == l));
    sel.normalize();
    sel
}

/// The selection made of the first `k` ranked candidates.
fn prefix_selection(candidates: &[RankedCandidate], k: usize) -> HardeningSelection {
    let mut included = vec![false; candidates.len()];
    included[..k].fill(true);
    selection_of(candidates, &included)
}

/// Run the full closed loop and produce the report. See the module docs
/// for the five stages. Deterministic for a fixed config.
pub fn harden(prog: &dyn HostProgram, cfg: &HardenConfig) -> Result<HardenReport, String> {
    let base = prog.build_kernel();
    let golden_cycles = baseline_kernel_cycles(prog, &base, &cfg.campaign)?;

    // Candidate enumeration from the full-protection build: NL candidates
    // are variables with at least one non-loop injection site (parameters
    // have no sites — no injectable faults — and are excluded); loop
    // candidates are the detectors the unrestricted loop pass places.
    let full_fift = build_selected(&base, BuildVariant::FiFt(cfg.ft), None)
        .map_err(|e| format!("FI&FT build: {e}"))?;
    let sites: BTreeMap<u32, (String, bool)> = full_fift
        .fi
        .sites
        .iter()
        .map(|s| (s.site, (s.var_name.clone(), s.in_loop)))
        .collect();
    let mut tallies: BTreeMap<CandidateKey, Tally> = BTreeMap::new();
    if cfg.ft.nonloop {
        for s in &full_fift.fi.sites {
            if !s.in_loop {
                tallies
                    .entry((CandidateKind::NonLoop, None, s.var_name.clone()))
                    .or_default();
            }
        }
    }
    if cfg.ft.loops {
        for d in &full_fift.detectors {
            tallies
                .entry((CandidateKind::Loop, Some(d.loop_id), d.var_name.clone()))
                .or_default();
            // Loops with a derivable trip have a separately selectable
            // trip-count invariant (the counter + `CheckEqual`).
            if d.trip_checked {
                tallies
                    .entry((CandidateKind::TripCheck, Some(d.loop_id), String::new()))
                    .or_default();
            }
        }
    }
    if tallies.is_empty() {
        return Err(format!("`{}` has no placeable detectors", prog.name()));
    }

    // Dynamic exposure from the profiled execution counts: for each
    // candidate, the total executions of the injection sites it watches.
    let profiler = build_selected(&base, BuildVariant::Profiler(cfg.ft), None)
        .map_err(|e| format!("profiler build: {e}"))?;
    let (_, pr) = profile_program_with_engine(
        prog,
        &profiler,
        &[cfg.campaign.dataset],
        cfg.campaign.engine,
    );
    let mut exposure: BTreeMap<CandidateKey, f64> = BTreeMap::new();
    for key @ (kind, loop_id, var) in tallies.keys() {
        let execs: u64 = match kind {
            CandidateKind::NonLoop => full_fift
                .fi
                .sites
                .iter()
                .filter(|s| !s.in_loop && &s.var_name == var)
                .map(|s| pr.total_execs(s.site))
                .sum(),
            CandidateKind::Loop => full_fift
                .fi
                .sites
                .iter()
                .filter(|s| s.in_loop && &s.var_name == var)
                .map(|s| pr.total_execs(s.site))
                .sum(),
            // The trip check fires once per loop iteration; the FI map
            // does not tag sites with a loop id, so approximate the
            // iteration count by the busiest in-loop site among the
            // variables the loop's detectors protect (each site executes
            // at most once per iteration).
            CandidateKind::TripCheck => {
                let vars: Vec<&String> = full_fift
                    .detectors
                    .iter()
                    .filter(|d| Some(d.loop_id) == *loop_id)
                    .map(|d| &d.var_name)
                    .collect();
                full_fift
                    .fi
                    .sites
                    .iter()
                    .filter(|s| s.in_loop && vars.contains(&&s.var_name))
                    .map(|s| pr.total_execs(s.site))
                    .max()
                    .unwrap_or(0)
            }
        };
        exposure.insert(key.clone(), execs as f64);
    }

    // Marginal fault-free cost of each candidate, measured once. NL and
    // loop candidates are measured alone; a trip check is measured as the
    // delta it adds on top of its loop's range detectors (alone it places
    // nothing). These are the denominators of the greedy score density.
    let mut costs: BTreeMap<CandidateKey, u64> = BTreeMap::new();
    for key @ (kind, loop_id, var) in tallies.keys() {
        let cost = match kind {
            CandidateKind::NonLoop => {
                let sel = HardeningSelection {
                    nonloop_vars: vec![var.clone()],
                    ..Default::default()
                };
                measure_overhead(prog, &base, cfg, &sel, golden_cycles)?
            }
            CandidateKind::Loop => {
                let sel = HardeningSelection {
                    loop_detectors: vec![(loop_id.expect("loop candidate"), var.clone())],
                    ..Default::default()
                };
                measure_overhead(prog, &base, cfg, &sel, golden_cycles)?
            }
            CandidateKind::TripCheck => {
                let l = loop_id.expect("trip candidate");
                let dets: Vec<(LoopId, String)> = full_fift
                    .detectors
                    .iter()
                    .filter(|d| d.loop_id == l)
                    .map(|d| (d.loop_id, d.var_name.clone()))
                    .collect();
                let without = HardeningSelection {
                    loop_detectors: dets.clone(),
                    ..Default::default()
                };
                let with = HardeningSelection {
                    loop_detectors: dets,
                    trip_checks: vec![l],
                    ..Default::default()
                };
                measure_overhead(prog, &base, cfg, &with, golden_cycles)?
                    .saturating_sub(measure_overhead(prog, &base, cfg, &without, golden_cycles)?)
            }
        };
        costs.insert(key.clone(), cost);
    }

    // Baseline rounds: accumulate attribution tallies until the ranking
    // stabilizes or the round budget runs out.
    let rounds = cfg.iterations.max(1);
    let mut candidates: Vec<RankedCandidate> = Vec::new();
    let mut prev_order: Option<Vec<CandidateKey>> = None;
    let mut converged = false;
    let mut iterations_run = 0;
    let mut baseline_injections = 0u64;
    let mut baseline_undetected = 0u64;
    let mut fingerprint = String::new();
    for round in 0..rounds {
        let mut ccfg = cfg.campaign.clone();
        ccfg.seed = cfg.campaign.seed + round as u64;
        ccfg.hardening = None;
        let orch = OrchestratorConfig {
            resume_from: if round == 0 {
                cfg.baseline_journal.clone()
            } else {
                None
            },
            ..Default::default()
        };
        let env = prepare_campaign(prog, &CampaignKind::Sensitivity, &ccfg);
        if round == 0 {
            fingerprint = format!("{:016x}", fingerprint_plans(&env.plans));
        }
        let result = run_orchestrated_campaign(prog, CampaignKind::Sensitivity, &ccfg, &orch)?;
        for rec in &result.records {
            attribute(&env.plans[rec.index as usize], rec, &sites, &mut tallies);
            baseline_injections += 1;
            if rec.outcome == FiOutcome::Undetected {
                baseline_undetected += 1;
            }
        }
        candidates = rank(&tallies, &exposure, &costs);
        iterations_run = round + 1;
        let order: Vec<CandidateKey> = candidates
            .iter()
            .map(|c| (c.kind, c.loop_id, c.var_name.clone()))
            .collect();
        if prev_order.as_ref() == Some(&order) {
            converged = true;
            break;
        }
        prev_order = Some(order);
    }
    let baseline_sdc = if baseline_injections == 0 {
        0.0
    } else {
        baseline_undetected as f64 / baseline_injections as f64
    };

    // Overhead of every greedy prefix, measured once each (fault-free
    // runs), and of the full-protection build (the budget denominator).
    let full_overhead_cycles =
        ft_fault_free_stats(prog, &base, cfg, None)?.overhead_vs(golden_cycles);
    let mut overhead_cache: BTreeMap<String, u64> = BTreeMap::new();
    for k in 1..=candidates.len() {
        let sel = prefix_selection(&candidates, k);
        let oh = measure_overhead(prog, &base, cfg, &sel, golden_cycles)?;
        candidates[k - 1].prefix_overhead_cycles = oh;
        overhead_cache.insert(sel.to_json().to_string(), oh);
    }

    // Budget ladder → nested greedy fill → measured front. Each budget
    // starts from the previous (smaller) budget's candidate set and scans
    // the ranking in order, admitting every candidate whose measured
    // overhead still fits — so a cheap detector is never blocked behind an
    // expensive higher-ranked one, and selections stay nested across the
    // ladder (which is what makes the measured front monotone: detectors
    // only observe). Coverage campaigns are cached per distinct selection.
    let mut budgets: Vec<f64> = if cfg.budgets.is_empty() {
        DEFAULT_BUDGETS.to_vec()
    } else {
        cfg.budgets.clone()
    };
    budgets.push(cfg.budget);
    budgets.sort_by(f64::total_cmp);
    budgets.dedup();
    let mut included = vec![false; candidates.len()];
    let mut coverage_cache: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    let mut front = Vec::with_capacity(budgets.len());
    let mut primary_selection = HardeningSelection::default();
    for &b in &budgets {
        let allowed = (b * full_overhead_cycles as f64).floor() as u64;
        for i in 0..candidates.len() {
            if included[i] {
                continue;
            }
            included[i] = true;
            let sel = selection_of(&candidates, &included);
            let key = sel.to_json().to_string();
            let oh = match overhead_cache.get(&key) {
                Some(&oh) => oh,
                None => {
                    let oh = measure_overhead(prog, &base, cfg, &sel, golden_cycles)?;
                    overhead_cache.insert(key, oh);
                    oh
                }
            };
            if oh > allowed {
                included[i] = false;
            }
        }
        let sel = selection_of(&candidates, &included);
        let key = sel.to_json().to_string();
        let overhead_cycles = match overhead_cache.get(&key) {
            Some(&oh) => oh,
            None => measure_overhead(prog, &base, cfg, &sel, golden_cycles)?,
        };
        let (coverage, sdc_ratio) = match coverage_cache.get(&key) {
            Some(&c) => c,
            None => {
                let c = measure_coverage(prog, cfg, &sel)?;
                coverage_cache.insert(key, c);
                c
            }
        };
        if b == cfg.budget {
            primary_selection = sel.clone();
        }
        front.push(ParetoPoint {
            budget: b,
            selected: sel.len(),
            selection: sel,
            overhead_cycles,
            overhead_frac: if golden_cycles == 0 {
                0.0
            } else {
                overhead_cycles as f64 / golden_cycles as f64
            },
            coverage,
            sdc_ratio,
        });
    }
    let (full_coverage, _) = measure_coverage_full(prog, cfg)?;

    Ok(HardenReport {
        program: prog.name().to_string(),
        golden_cycles,
        baseline_sdc,
        baseline_injections,
        full_overhead_cycles,
        full_coverage,
        candidates,
        front,
        plan: HardeningPlan {
            program: prog.name().to_string(),
            budget: cfg.budget,
            fingerprint,
            selection: primary_selection,
        },
        iterations_run,
        converged,
    })
}

/// Coverage of the classic full-protection build (selection = everything).
fn measure_coverage_full(prog: &dyn HostProgram, cfg: &HardenConfig) -> Result<(f64, f64), String> {
    let ccfg = cfg.campaign.clone();
    let r = run_orchestrated_campaign(
        prog,
        CampaignKind::Coverage(cfg.ft),
        &ccfg,
        &OrchestratorConfig::default(),
    )?;
    Ok((
        r.campaign.coverage(),
        r.campaign.ratio(FiOutcome::Undetected),
    ))
}

/// Evaluate an externally supplied placement (`--plan-in`): measure its
/// fault-free overhead and re-run the coverage campaign under it. The
/// plan's program name must match.
pub fn evaluate_placement(
    prog: &dyn HostProgram,
    plan: &HardeningPlan,
    cfg: &HardenConfig,
) -> Result<ParetoPoint, String> {
    if plan.program != prog.name() {
        return Err(format!(
            "plan was derived for `{}`, not `{}`",
            plan.program,
            prog.name()
        ));
    }
    let base = prog.build_kernel();
    let golden_cycles = baseline_kernel_cycles(prog, &base, &cfg.campaign)?;
    let overhead_cycles = measure_overhead(prog, &base, cfg, &plan.selection, golden_cycles)?;
    let (coverage, sdc_ratio) = measure_coverage(prog, cfg, &plan.selection)?;
    Ok(ParetoPoint {
        budget: plan.budget,
        selected: plan.selection.len(),
        selection: plan.selection.clone(),
        overhead_cycles,
        overhead_frac: if golden_cycles == 0 {
            0.0
        } else {
            overhead_cycles as f64 / golden_cycles as f64
        },
        coverage,
        sdc_ratio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanConfig;
    use hauberk_benchmarks::{cp::Cp, ProblemScale};

    fn quick_cfg() -> HardenConfig {
        HardenConfig {
            campaign: CampaignConfig {
                plan: PlanConfig {
                    vars_per_program: 6,
                    masks_per_var: 6,
                    bit_counts: vec![1],
                    scheduler_per_mille: 80,
                    register_per_mille: 80,
                },
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn harden_produces_a_monotone_front_and_a_deterministic_plan() {
        let prog = Cp::new(ProblemScale::Quick);
        let cfg = quick_cfg();
        let r = harden(&prog, &cfg).unwrap();
        assert!(!r.candidates.is_empty());
        assert!(r.full_overhead_cycles > 0);
        // Budgets ascend; selected prefix and overhead are non-decreasing.
        for w in r.front.windows(2) {
            assert!(w[0].budget < w[1].budget);
            assert!(w[0].selected <= w[1].selected);
            assert!(w[0].overhead_cycles <= w[1].overhead_cycles);
        }
        // The budget-1.0 point holds every candidate (its prefix overhead
        // cannot exceed the full build's, which includes parameters too).
        let last = r.front.last().unwrap();
        assert_eq!(last.selected, r.candidates.len());
        assert!(last.overhead_cycles <= r.full_overhead_cycles);
        // Zero budget places nothing and costs nothing.
        assert_eq!(r.front[0].selected, 0);
        assert_eq!(r.front[0].overhead_cycles, 0);
        // Determinism: same config, byte-identical plan and front.
        let r2 = harden(&prog, &cfg).unwrap();
        assert_eq!(r2.plan.to_json_string(), r.plan.to_json_string());
        assert_eq!(r2.front_csv(), r.front_csv());
    }

    #[test]
    fn evaluate_placement_round_trips_the_primary_plan() {
        let prog = Cp::new(ProblemScale::Quick);
        let cfg = quick_cfg();
        let r = harden(&prog, &cfg).unwrap();
        let parsed = HardeningPlan::parse(&r.plan.to_json_string()).unwrap();
        let point = evaluate_placement(&prog, &parsed, &cfg).unwrap();
        let same = r
            .front
            .iter()
            .find(|p| p.selection == parsed.selection)
            .expect("primary budget is on the front");
        assert_eq!(point.overhead_cycles, same.overhead_cycles);
        assert_eq!(point.coverage, same.coverage);
    }
}
