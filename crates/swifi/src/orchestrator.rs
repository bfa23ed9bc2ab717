//! Sharded, resumable campaign orchestration with adaptive sampling.
//!
//! The orchestrator decomposes a campaign into deterministic **work units**
//! — one [`hauberk::Stratum`] (hardware component × data class) split into
//! fixed-size chunks of plan indices — and executes them with:
//!
//! * **journaling** ([`crate::journal`]): every completed unit is appended
//!   to a JSONL checkpoint, so `--resume` skips finished work and converges
//!   to a summary byte-identical to an uninterrupted run;
//! * **adaptive sampling** ([`crate::sampler`]): with a target CI width set,
//!   each stratum stops drawing units once the Wilson interval on its SDC
//!   rate is narrow enough — converged strata stop early while rare-outcome
//!   strata keep sampling;
//! * **graceful degradation**: a work unit whose execution panics is retried
//!   up to `max_retries` times and then quarantined (recorded in the journal
//!   and telemetry), never aborting the campaign;
//! * **sharding** (`--shard i/m`): strata are distributed round-robin over
//!   `m` independent processes whose journals later `merge-journals` into
//!   one.
//!
//! ## Determinism contract
//!
//! Strata execute in [`Stratum`] order and the units of a stratum execute
//! strictly in chunk order (parallelism lives *inside* a unit, across its
//! injections), so the adaptive stopping decision for a stratum depends only
//! on that stratum's own unit prefix. Metrics and results are rebuilt at
//! finalize time from the recorded injections sorted by plan index — never
//! accumulated live — so a journal-replayed unit and a freshly-executed unit
//! contribute identically. Consequences, asserted in `tests/determinism.rs`:
//!
//! * same config, any interruption point → byte-identical summary;
//! * adaptive **off**: the summary is also invariant to `shard_size`;
//! * adaptive **on**: deterministic per `shard_size` (the stopping point is
//!   quantized to unit boundaries, so coarser units sample more).

use crate::campaign::{
    campaign_telemetry, finish_campaign, prepare_campaign, record_injection, CampaignConfig,
    CampaignEnv, CampaignKind, CampaignResult,
};
use crate::checkpoint::{CheckpointStats, CheckpointStore, SectionOutcome};
use crate::classify::InjectionResult;
use crate::journal::{
    read_journal, Fnv1a, JournalMeta, JournalReplay, JournalWriter, QuarantineRecord,
    RecordedInjection, UnitRecord,
};
use crate::plan::InjectionPlan;
use crate::profile::{flag_stragglers, HangTally, PhaseAcc, PhaseProfile};
use crate::report;
use crate::sampler::{wilson_interval, AdaptiveConfig};
use crate::stats::OutcomeCounts;
use hauberk::program::HostProgram;
use hauberk::units::{Stratum, WorkUnitId};
use hauberk_telemetry::json::Json;
use hauberk_telemetry::metrics::Registry;
use hauberk_telemetry::progress::Progress;
use hauberk_telemetry::span::with_parent;
use hauberk_telemetry::{Event, Telemetry};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Fault-injection hook for the orchestrator's own failure paths: force the
/// named work unit's first `fail_attempts` execution attempts to fail, so
/// tests exercise retry and quarantine deterministically.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Stratum of the unit to sabotage.
    pub stratum: Stratum,
    /// Chunk of the unit to sabotage.
    pub chunk: u32,
    /// How many attempts fail before the unit is allowed to succeed (set it
    /// above `max_retries` to force quarantine).
    pub fail_attempts: u32,
    /// Fail by `panic!`-ing on a worker thread (exercising the real
    /// `catch_unwind` recovery) instead of returning a synthetic error.
    pub panics: bool,
}

/// Orchestration parameters, on top of a [`CampaignConfig`].
#[derive(Debug, Clone, Default)]
pub struct OrchestratorConfig {
    /// Injections per work unit (0 = default 32). Smaller units checkpoint
    /// and adapt at finer grain but journal more records.
    pub shard_size: usize,
    /// Adaptive early stopping; `None` = exhaustive sweep.
    pub adaptive: Option<AdaptiveConfig>,
    /// Re-execution attempts for a panicking work unit before quarantine.
    pub max_retries: u32,
    /// Write a fresh checkpoint journal here (truncates an existing file).
    pub journal_path: Option<PathBuf>,
    /// Resume from (and keep appending to) this journal.
    pub resume_from: Option<PathBuf>,
    /// `(index, modulus)`: execute only strata with ordinal ≡ index (mod
    /// modulus). Other strata are reported as planned-but-not-owned.
    pub shard: Option<(u32, u32)>,
    /// Correlation trace id carried on the root `campaign` span (the serve
    /// daemon assigns one per request; `None` for plain CLI runs).
    pub trace: Option<String>,
    /// Execute injections from a shared fault-free checkpoint
    /// ([`crate::checkpoint`]): one reference run captures per-block
    /// snapshots, each injection restores and executes only its own block.
    /// Summaries are byte-identical either way; only simulated cycles drop.
    /// Falls back to full re-execution (with a stderr warning) when the
    /// campaign is ineligible.
    pub checkpoint: bool,
    /// Test-only failure injection for the retry/quarantine path.
    pub chaos: Option<ChaosConfig>,
    /// Cooperative cancellation flag, checked at work-unit boundaries: once
    /// set, the campaign stops before drawing its next unit and returns an
    /// error containing [`CANCELED`]. Everything journaled so far stays
    /// valid — a later resume replays it — so cancellation loses at most
    /// the unit in flight. The serve daemon wires `DELETE
    /// /v1/campaigns/:id` to this flag.
    pub stop: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

/// Marker substring of the error [`run_orchestrated_campaign`] returns when
/// [`OrchestratorConfig::stop`] cancels the campaign. Callers that need to
/// distinguish "canceled on request" from real failures (the serve daemon
/// maps the former to a `canceled` job phase, not `failed`) match on this.
pub const CANCELED: &str = "campaign canceled at a work-unit boundary";

impl OrchestratorConfig {
    /// Default injections per work unit.
    pub const DEFAULT_SHARD_SIZE: usize = 32;

    /// Default retry budget before quarantine.
    pub const DEFAULT_MAX_RETRIES: u32 = 2;

    /// Config with explicit defaults (shard size 32, 2 retries, exhaustive,
    /// no journal).
    pub fn exhaustive() -> Self {
        OrchestratorConfig {
            shard_size: Self::DEFAULT_SHARD_SIZE,
            max_retries: Self::DEFAULT_MAX_RETRIES,
            ..Default::default()
        }
    }

    fn effective_shard_size(&self) -> usize {
        if self.shard_size == 0 {
            Self::DEFAULT_SHARD_SIZE
        } else {
            self.shard_size
        }
    }
}

/// Per-stratum outcome of an orchestrated campaign.
#[derive(Debug, Clone)]
pub struct StratumReport {
    /// The stratum.
    pub stratum: Stratum,
    /// Injections the plan holds for this stratum.
    pub planned: u64,
    /// Tally over the injections actually executed (or replayed).
    pub counts: OutcomeCounts,
    /// Wilson interval on the SDC rate at the reporting confidence.
    pub ci: (f64, f64),
    /// Whether adaptive sampling stopped this stratum before exhausting it.
    pub stopped_early: bool,
    /// Whether this process's shard owned the stratum.
    pub owned: bool,
}

impl StratumReport {
    /// Injections executed (or replayed) in this stratum.
    pub fn executed(&self) -> u64 {
        self.counts.total() as u64
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("stratum", Json::str(self.stratum.key())),
            ("planned", Json::uint(self.planned)),
            ("executed", Json::uint(self.executed())),
            ("sdc", Json::Num(self.counts.sdc_ratio())),
            ("ci_lo", Json::Num(self.ci.0)),
            ("ci_hi", Json::Num(self.ci.1)),
            ("stopped_early", Json::Bool(self.stopped_early)),
            ("owned", Json::Bool(self.owned)),
        ])
    }
}

/// Output of [`run_orchestrated_campaign`]: the plain campaign result plus
/// the orchestration ledger.
#[derive(Debug, Clone)]
pub struct ShardedCampaignResult {
    /// The campaign result (results sorted by plan index; metrics rebuilt
    /// deterministically at finalize).
    pub campaign: CampaignResult,
    /// Per-stratum reports, in stratum order.
    pub strata: Vec<StratumReport>,
    /// Units that exhausted their retry budget.
    pub quarantined: Vec<QuarantineRecord>,
    /// Total planned injections (all strata, owned or not).
    pub planned: u64,
    /// Injections executed or replayed by this process.
    pub executed: u64,
    /// Work units skipped because the journal already held them.
    pub resumed_units: u64,
    /// Injections recovered from the journal instead of re-executed.
    pub resumed_injections: u64,
    /// Torn/corrupt journal lines dropped during replay.
    pub dropped_lines: u64,
    /// Per-phase wall-time profile of this run. Like the resume statistics,
    /// it lives on the struct and stays out of [`Self::summary_json`] /
    /// [`Self::summarize`], whose bytes are resume-invariant.
    pub profile: PhaseProfile,
    /// The hang injections among this process's executed ones, with their
    /// share of the profile's execute time. Struct-only, like the profile.
    pub hangs: HangTally,
    /// Simulated-GPU work behind this process's outcomes, in work cycles
    /// (golden/reference runs excluded for plain campaigns, included once for
    /// checkpointed ones; skipped prefixes and spliced tails excluded;
    /// journal-replayed units count nothing). A composed suffix counts as if
    /// it had run: the cycles the host actually executed are
    /// [`CheckpointStats::executed_cycles`]. Observational, like the profile:
    /// checkpointing changes this number and nothing in the summaries.
    pub sim_cycles: u64,
    /// Checkpoint savings ledger, when the campaign ran from a shared
    /// fault-free checkpoint (struct-only, never serialized).
    pub checkpoint: Option<CheckpointStats>,
    /// Per-section outcome tallies: the executed injections grouped by the
    /// kernel section their fault window falls in. Composing these recovers
    /// the campaign totals exactly (every plan maps to at most one section).
    /// Struct-only, like the profile.
    pub section_outcomes: Vec<SectionOutcome>,
    /// The raw per-injection records in plan order — what a journal would
    /// hold. The hardening optimizer joins these against the plan list to
    /// attribute each undetected SDC to a candidate site. Struct-only, never
    /// serialized (the journal is the on-disk form).
    pub records: Vec<RecordedInjection>,
}

impl ShardedCampaignResult {
    /// Machine-readable summary. Contains only resume-invariant fields, so
    /// an interrupted-and-resumed campaign serializes byte-identically to an
    /// uninterrupted one (asserted in `tests/determinism.rs`); resume
    /// statistics live on the struct, not in the summary.
    pub fn summary_json(&self) -> Json {
        Json::obj([
            ("campaign", report::summary_json(&self.campaign)),
            ("planned", Json::uint(self.planned)),
            ("executed", Json::uint(self.executed)),
            (
                "strata",
                Json::Arr(self.strata.iter().map(|s| s.to_json()).collect()),
            ),
            (
                "quarantined",
                Json::Arr(
                    self.quarantined
                        .iter()
                        .map(|q| {
                            Json::obj([
                                ("unit", Json::str(q.id.to_string())),
                                ("attempts", Json::uint(q.attempts)),
                                ("error", Json::str(q.error.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable summary (same resume-invariance as
    /// [`Self::summary_json`]).
    pub fn summarize(&self) -> String {
        let mut out = report::summarize(&self.campaign);
        let _ = writeln!(
            out,
            "  strata ({} of {} planned injections executed):",
            self.executed, self.planned
        );
        for s in &self.strata {
            let mut note = String::new();
            if s.stopped_early {
                note.push_str("  [converged]");
            }
            if !s.owned {
                note.push_str("  [other shard]");
            }
            let _ = writeln!(
                out,
                "    {:<22} planned {:<5} executed {:<5} sdc {:5.1}%  ci [{:5.1}%, {:5.1}%]{note}",
                s.stratum.key(),
                s.planned,
                s.executed(),
                s.counts.sdc_ratio() * 100.0,
                s.ci.0 * 100.0,
                s.ci.1 * 100.0,
            );
        }
        for q in &self.quarantined {
            let _ = writeln!(
                out,
                "  quarantined {} after {} attempt(s): {}",
                q.id, q.attempts, q.error
            );
        }
        out
    }
}

/// FNV-1a fingerprint over the full plan: fault sites, arming, masks. Same
/// seed but different code or planning config → different fingerprint, so a
/// stale journal is rejected instead of silently mis-replayed.
pub fn fingerprint_plans(plans: &[InjectionPlan]) -> u64 {
    let mut h = Fnv1a::default();
    for p in plans {
        h.write(format!("{:?}|{}|{}|{}\n", p.fault, p.class, p.hw, p.bits).as_bytes());
    }
    h.finish()
}

/// Run a campaign through the sharded orchestrator. Errors only on journal
/// problems (unreadable resume file, foreign campaign, unwritable journal);
/// execution failures degrade to quarantined units instead.
pub fn run_orchestrated_campaign(
    prog: &dyn HostProgram,
    kind: CampaignKind,
    cfg: &CampaignConfig,
    orch: &OrchestratorConfig,
) -> Result<ShardedCampaignResult, String> {
    run_orchestrated_campaign_traced(prog, kind, cfg, orch, campaign_telemetry(cfg))
}

/// [`run_orchestrated_campaign`] with a caller-supplied telemetry pipeline
/// instead of the file sink derived from `cfg.trace_path`. The serve daemon
/// uses this to fan campaign events into per-job in-memory buffers that back
/// its live progress streams; the summary is byte-identical either way
/// (telemetry is observation only, never input to the result).
pub fn run_orchestrated_campaign_traced(
    prog: &dyn HostProgram,
    kind: CampaignKind,
    cfg: &CampaignConfig,
    orch: &OrchestratorConfig,
    tele: Telemetry,
) -> Result<ShardedCampaignResult, String> {
    let t_wall = Instant::now();
    let mut campaign_span = tele.span_traced("campaign", orch.trace.clone());
    campaign_span.attr_with("program", || prog.name().to_string());
    campaign_span.attr("kind", kind.label());

    let t_plan = Instant::now();
    let env = {
        let _plan_span = tele.span("plan");
        prepare_campaign(prog, &kind, cfg)
    };
    let plan_ns = t_plan.elapsed().as_nanos() as u64;
    let shard_size = orch.effective_shard_size();
    let sections = hauberk_kir::partition_sections(&env.build.kernel);

    // Build the shared checkpoint store. Ineligible campaigns degrade to
    // full re-execution rather than failing; either way the results, and
    // so the journal identity, are the same.
    let store = if orch.checkpoint {
        match CheckpointStore::build(&env, prog) {
            Ok(s) => {
                // The one shared reference run is real simulation work;
                // charge it once so the cycle ledger stays honest.
                env.add_sim_cycles(s.reference_cycles);
                Some(s)
            }
            Err(e) => {
                eprintln!(
                    "warning: checkpointing ineligible for this campaign \
                     ({e}); falling back to full re-execution"
                );
                None
            }
        }
    } else {
        None
    };
    let meta = JournalMeta {
        program: prog.name().to_string(),
        kind: kind.label().to_string(),
        seed: cfg.seed,
        plan_len: env.plans.len() as u64,
        shard_size: shard_size as u64,
        fingerprint: fingerprint_plans(&env.plans),
        sections: sections.sections.len() as u64,
    };

    let mut journal_ns = 0u64;
    let mut replay = JournalReplay::default();
    if let Some(path) = &orch.resume_from {
        let t = Instant::now();
        replay = read_journal(path)?;
        journal_ns += t.elapsed().as_nanos() as u64;
        if let Some(m) = &replay.meta {
            let diffs = m.diff(&meta);
            if !diffs.is_empty() {
                return Err(format!(
                    "{}: journal belongs to a different campaign ({})",
                    path.display(),
                    diffs.join("; ")
                ));
            }
        }
    }
    let t_writer = Instant::now();
    let writer = match (&orch.resume_from, &orch.journal_path) {
        (Some(path), _) => {
            // Resumed journals already begin with a meta record unless the
            // file was torn down to nothing.
            let need_meta = replay.meta.is_none();
            Some(JournalWriter::append(
                path,
                if need_meta { Some(&meta) } else { None },
            )?)
        }
        (None, Some(path)) => Some(JournalWriter::create(path, &meta)?),
        (None, None) => None,
    };
    journal_ns += t_writer.elapsed().as_nanos() as u64;

    // Partition plan indices by stratum (plan order preserved inside each).
    let mut strata: BTreeMap<Stratum, Vec<usize>> = BTreeMap::new();
    for (i, p) in env.plans.iter().enumerate() {
        strata
            .entry(Stratum {
                hw: p.hw,
                class: p.class,
            })
            .or_default()
            .push(i);
    }

    let progress = Progress::new(prog.name(), env.plans.len() as u64, cfg.progress_every);
    tele.emit_with(|| Event::CampaignStarted {
        program: prog.name().to_string(),
        runs: env.plans.len() as u64,
    });

    let mut reports: Vec<StratumReport> = Vec::with_capacity(strata.len());
    let mut consumed_units: Vec<UnitRecord> = Vec::new();
    let mut quarantined: Vec<QuarantineRecord> = Vec::new();
    let mut resumed_units = 0u64;
    let mut resumed_injections = 0u64;
    let report_z = orch.adaptive.as_ref().map_or(1.96, |a| a.z);
    let phases = PhaseAcc::default();
    let mut sample_decision_ns = 0u64;
    let mut unit_walls: Vec<(String, u64)> = Vec::new();

    for (ordinal, (stratum, idxs)) in strata.iter().enumerate() {
        let owned = orch
            .shard
            .is_none_or(|(i, m)| m != 0 && ordinal as u32 % m == i);
        if !owned {
            reports.push(StratumReport {
                stratum: *stratum,
                planned: idxs.len() as u64,
                counts: OutcomeCounts::default(),
                ci: (0.0, 1.0),
                stopped_early: false,
                owned: false,
            });
            continue;
        }

        let mut stratum_span = tele.span("stratum");
        stratum_span.attr_with("stratum", || stratum.key());

        let mut counts = OutcomeCounts::default();
        let mut stopped_early = false;
        for (chunk, span) in idxs.chunks(shard_size).enumerate() {
            if orch
                .stop
                .as_ref()
                .is_some_and(|s| s.load(std::sync::atomic::Ordering::SeqCst))
            {
                // The journal (if any) already holds every finished unit —
                // flushed line by line — so the cancellation point needs no
                // cleanup and a resume picks up exactly here.
                return Err(CANCELED.to_string());
            }
            if let Some(ad) = &orch.adaptive {
                let t_ad = Instant::now();
                let converged = ad.converged(&counts);
                sample_decision_ns += t_ad.elapsed().as_nanos() as u64;
                if converged {
                    stopped_early = true;
                    let skipped = (idxs.len() - chunk * shard_size) as u64;
                    let width = crate::sampler::ci_width(&counts, ad.z);
                    tele.emit_with(|| Event::StratumConverged {
                        stratum: stratum.key(),
                        samples: counts.total() as u64,
                        ci_width: width,
                        skipped,
                    });
                    break;
                }
            }
            let id = WorkUnitId {
                stratum: *stratum,
                chunk: chunk as u32,
            };
            if let Some(u) = replay.units.get(&id) {
                for r in &u.results {
                    counts.add(r.outcome);
                }
                resumed_units += 1;
                resumed_injections += u.results.len() as u64;
                consumed_units.push(u.clone());
                continue;
            }
            if let Some(q) = replay.quarantined.get(&id) {
                quarantined.push(q.clone());
                continue;
            }

            let t_unit = Instant::now();
            let outcome = {
                let mut unit_span = tele.span("unit");
                unit_span.attr_with("unit", || id.to_string());
                unit_span.attr_with("injections", || span.len().to_string());
                execute_unit(
                    &env,
                    prog,
                    &tele,
                    orch,
                    id,
                    span,
                    &phases,
                    unit_span.id(),
                    store.as_ref(),
                )
            };
            unit_walls.push((id.to_string(), t_unit.elapsed().as_nanos() as u64));
            match outcome {
                Ok(unit) => {
                    if let Some(w) = &writer {
                        let t = Instant::now();
                        w.unit(&unit)?;
                        journal_ns += t.elapsed().as_nanos() as u64;
                    }
                    for r in &unit.results {
                        counts.add(r.outcome);
                        record_injection(&tele, &progress, r);
                    }
                    consumed_units.push(unit);
                }
                Err(q) => {
                    tele.emit_with(|| Event::UnitQuarantined {
                        stratum: q.id.stratum.key(),
                        chunk: q.id.chunk as u64,
                        attempts: q.attempts,
                        error: q.error.clone(),
                    });
                    if let Some(w) = &writer {
                        let t = Instant::now();
                        w.quarantine(&q)?;
                        journal_ns += t.elapsed().as_nanos() as u64;
                    }
                    quarantined.push(q);
                }
            }
        }

        let t_ci = Instant::now();
        let ci = wilson_interval(counts.undetected as u64, counts.total() as u64, report_z);
        sample_decision_ns += t_ci.elapsed().as_nanos() as u64;
        stratum_span.attr_with("samples", || counts.total().to_string());
        reports.push(StratumReport {
            stratum: *stratum,
            planned: idxs.len() as u64,
            counts,
            ci,
            stopped_early,
            owned: true,
        });
    }

    // Finalize: rebuild results and metrics from the recorded injections in
    // plan order, so replayed and freshly-executed units are
    // indistinguishable in the summary.
    let mut recs: Vec<&RecordedInjection> =
        consumed_units.iter().flat_map(|u| &u.results).collect();
    recs.sort_by_key(|r| r.index);
    let results: Vec<InjectionResult> = recs
        .iter()
        .map(|r| {
            let p = &env.plans[r.index as usize];
            InjectionResult {
                class: p.class,
                hw: p.hw,
                bits: p.bits,
                delivered: r.delivered,
                outcome: r.outcome,
            }
        })
        .collect();

    // Compose per-section outcome maps: each plan's fault window falls in at
    // most one section, so the section tallies partition the campaign totals
    // (the compositionality the differential suite asserts).
    let mut by_section: BTreeMap<Option<usize>, OutcomeCounts> = BTreeMap::new();
    for r in &recs {
        let sec = match env.plans[r.index as usize].fault.site {
            hauberk_sim::FaultSite::HookTarget { site }
            | hauberk_sim::FaultSite::RegisterLive { site, .. } => sections.section_of_site(site),
            hauberk_sim::FaultSite::LoopIterator { loop_id }
            | hauberk_sim::FaultSite::LoopDecision { loop_id } => sections.section_of_loop(loop_id),
        };
        by_section.entry(sec).or_default().add(r.outcome);
    }
    let section_outcomes: Vec<SectionOutcome> = by_section
        .into_iter()
        .map(|(section, counts)| SectionOutcome {
            section,
            label: section
                .map(|i| sections.sections[i].label.clone())
                .unwrap_or_default(),
            counts,
        })
        .collect();

    let registry = Registry::new();
    for r in &recs {
        registry.incr("runs", 1);
        if r.delivered {
            registry.incr("delivered", 1);
        }
        registry.incr(&format!("outcome.{}", r.outcome), 1);
        for a in &r.alarms {
            registry.incr(&format!("detector_fired.{a}"), 1);
        }
        if let Some(cycles) = r.latency {
            registry.observe("detection_latency_cycles", cycles);
        }
    }
    for rep in reports.iter().filter(|r| r.owned) {
        let key = rep.stratum.key();
        registry.incr(&format!("stratum.{key}.planned"), rep.planned);
        registry.incr(&format!("stratum.{key}.runs"), rep.executed());
        registry.incr(
            &format!("stratum.{key}.undetected"),
            rep.counts.undetected as u64,
        );
    }
    if !quarantined.is_empty() {
        registry.incr("quarantined_units", quarantined.len() as u64);
    }

    // Assemble the phase profile and append it as the journal's trailing
    // record. Wall time is frozen first so the profile write itself (journal
    // work, but after the fact) cannot perturb the numbers it reports.
    let profile = PhaseProfile {
        plan_ns,
        execute_ns: phases.execute_ns(),
        journal_ns,
        classify_ns: phases.classify_ns(),
        sample_decision_ns,
        wall_ns: t_wall.elapsed().as_nanos() as u64,
        units: unit_walls.len() as u64,
        threads: rayon::current_thread_count() as u64,
        stragglers: flag_stragglers(&unit_walls),
    };
    if let Some(w) = &writer {
        w.profile(&profile)?;
    }

    let records: Vec<RecordedInjection> = recs.iter().map(|r| (*r).clone()).collect();
    finish_campaign(&tele, prog.name(), results.len());
    let executed = results.len() as u64;
    campaign_span.attr_with("runs", || executed.to_string());
    campaign_span.attr_with("units", || profile.units.to_string());
    drop(campaign_span);
    Ok(ShardedCampaignResult {
        campaign: CampaignResult {
            program: prog.name(),
            results,
            golden_cycles: env.golden_cycles,
            detectors: env.detectors(),
            metrics: registry.snapshot(),
        },
        strata: reports,
        quarantined,
        planned: env.plans.len() as u64,
        executed,
        resumed_units,
        resumed_injections,
        dropped_lines: replay.dropped_lines as u64,
        profile,
        hangs: phases.hangs(),
        sim_cycles: env.sim_cycles.load(std::sync::atomic::Ordering::Relaxed),
        checkpoint: store.as_ref().map(|s| CheckpointStats {
            sections: sections.sections.len() as u64,
            boundaries: s.boundaries(),
            injections: s.injections.load(std::sync::atomic::Ordering::Relaxed),
            spliced: s.spliced.load(std::sync::atomic::Ordering::Relaxed),
            composed: s.composed.load(std::sync::atomic::Ordering::Relaxed),
            fell_back: s.fell_back.load(std::sync::atomic::Ordering::Relaxed),
            reference_cycles: s.reference_cycles,
            executed_cycles: s.executed_cycles.load(std::sync::atomic::Ordering::Relaxed),
        }),
        section_outcomes,
        records,
    })
}

/// Execute one work unit with retry: the unit's injections run in parallel,
/// each behind its own `catch_unwind`, so a panic's message survives intact
/// regardless of worker-thread count. A failed attempt re-executes the whole
/// unit (injections are idempotent); exhausting the retry budget yields the
/// quarantine record.
///
/// `parent_span` is the unit span's id: rayon workers start with empty
/// span-parent TLS, so each per-injection closure re-establishes it with
/// [`with_parent`] to keep launch spans attached to their unit.
#[allow(clippy::too_many_arguments)]
fn execute_unit(
    env: &CampaignEnv,
    prog: &dyn HostProgram,
    tele: &Telemetry,
    orch: &OrchestratorConfig,
    id: WorkUnitId,
    span: &[usize],
    phases: &PhaseAcc,
    parent_span: u64,
    store: Option<&CheckpointStore>,
) -> Result<UnitRecord, QuarantineRecord> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let chaos = orch.chaos.filter(|c| {
            c.stratum == id.stratum && c.chunk == id.chunk && attempt <= c.fail_attempts
        });
        let outcome: Result<Vec<RecordedInjection>, String> = match chaos {
            Some(c) if !c.panics => Err("chaos: injected work-unit failure".to_string()),
            _ => {
                // `chaos.panics` panics *inside* the per-injection
                // `catch_unwind`, so the recovery under test is the real one,
                // not a shortcut around it.
                let runs: Vec<Result<RecordedInjection, String>> = span
                    .par_iter()
                    .map(|&i| {
                        catch_unwind(AssertUnwindSafe(|| {
                            if chaos.is_some() {
                                panic!("chaos: injected work-unit panic");
                            }
                            with_parent(parent_span, || match store {
                                Some(s) => env.run_one_checkpointed(prog, i, tele, phases, s),
                                None => env.run_one(prog, i, tele, phases),
                            })
                        }))
                        .map_err(panic_message)
                    })
                    .collect();
                runs.into_iter().collect()
            }
        };
        match outcome {
            Ok(results) => {
                return Ok(UnitRecord {
                    id,
                    lo: span[0] as u64,
                    hi: *span.last().expect("nonempty unit") as u64 + 1,
                    results,
                });
            }
            Err(e) if attempt > orch.max_retries => {
                return Err(QuarantineRecord {
                    id,
                    attempts: attempt as u64,
                    error: e,
                });
            }
            Err(e) => {
                eprintln!(
                    "warning: work unit {id} failed on attempt {attempt} \
                     (retrying): {e}"
                );
            }
        }
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hauberk::builds::FtOptions;
    use hauberk_benchmarks::{cp::Cp, ProblemScale};
    use hauberk_kir::types::DataClass;
    use hauberk_kir::HwComponent;
    use hauberk_sim::ExecEngine;

    fn small_cfg() -> CampaignConfig {
        CampaignConfig {
            plan: crate::plan::PlanConfig {
                vars_per_program: 6,
                masks_per_var: 8,
                bit_counts: vec![1],
                scheduler_per_mille: 80,
                register_per_mille: 80,
            },
            ..Default::default()
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hauberk-orchestrator-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
    }

    #[test]
    fn orchestrated_matches_plain_campaign() {
        let prog = Cp::new(ProblemScale::Quick);
        let cfg = small_cfg();
        let plain = crate::campaign::run_sensitivity_campaign(&prog, &cfg);
        let orch = run_orchestrated_campaign(
            &prog,
            CampaignKind::Sensitivity,
            &cfg,
            &OrchestratorConfig {
                shard_size: 7, // odd size: summary must not depend on it
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report::to_csv(&plain), report::to_csv(&orch.campaign));
        assert_eq!(orch.planned, orch.executed);
        assert_eq!(orch.resumed_units, 0);
        assert!(orch.strata.iter().all(|s| !s.stopped_early && s.owned));
        // The phase profile rides along without touching the summary.
        assert!(orch.profile.wall_ns > 0);
        assert!(orch.profile.plan_ns > 0, "plan phase was timed");
        assert!(orch.profile.execute_ns > 0, "execute phase was timed");
        assert!(orch.profile.units > 0);
        assert!(
            orch.profile.phase_sum_ns() > 0 && orch.profile.plan_ns <= orch.profile.wall_ns,
            "phases are plausible fractions of the run"
        );
        assert!(!orch.summary_json().to_string().contains("profile"));
    }

    #[test]
    fn journal_carries_trailing_profile_record() {
        let prog = Cp::new(ProblemScale::Quick);
        let cfg = small_cfg();
        let journal = tmp("profile.jsonl");
        let _ = std::fs::remove_file(&journal);
        let r = run_orchestrated_campaign(
            &prog,
            CampaignKind::Sensitivity,
            &cfg,
            &OrchestratorConfig {
                journal_path: Some(journal.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        let replay = crate::journal::read_journal(&journal).unwrap();
        std::fs::remove_file(&journal).ok();
        assert_eq!(replay.dropped_lines, 0, "profile record must parse");
        assert_eq!(replay.profile.as_ref(), Some(&r.profile));
        assert!(r.profile.journal_ns > 0, "journal phase was timed");
    }

    #[test]
    fn adaptive_stops_strata_early() {
        let prog = Cp::new(ProblemScale::Quick);
        let cfg = small_cfg();
        let r = run_orchestrated_campaign(
            &prog,
            CampaignKind::Coverage(FtOptions::default()),
            &cfg,
            &OrchestratorConfig {
                shard_size: 8,
                adaptive: Some(AdaptiveConfig {
                    ci_width: 0.35,
                    z: 1.96,
                    min_samples: 8,
                }),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            r.executed < r.planned,
            "loose CI target must skip work: {}/{}",
            r.executed,
            r.planned
        );
        assert!(r.strata.iter().any(|s| s.stopped_early));
        // Reported tallies must agree with the retained results.
        let total: u64 = r.strata.iter().map(|s| s.executed()).sum();
        assert_eq!(total, r.executed);
    }

    /// The adaptive-sampling claim on a plan large enough that every
    /// stratum holds several times the samples its interval needs: Wilson
    /// early stopping at CI width 0.2 executes at most half the uniform
    /// sweep's injections, and every stratum it stopped early meets the
    /// target width.
    #[test]
    fn adaptive_halves_the_uniform_sweep_at_target_width() {
        let prog = Cp::new(ProblemScale::Quick);
        let cfg = CampaignConfig {
            plan: crate::plan::PlanConfig {
                vars_per_program: 20,
                masks_per_var: 80,
                bit_counts: crate::mask::PAPER_BIT_COUNTS.to_vec(),
                ..Default::default()
            },
            ..Default::default()
        };
        let adaptive = AdaptiveConfig {
            ci_width: 0.2,
            z: 1.96,
            min_samples: 24,
        };
        // Fine-grained units, so stopping tracks the interval.
        let run = |adaptive: Option<AdaptiveConfig>| {
            let orch = OrchestratorConfig {
                shard_size: 8,
                adaptive,
                ..Default::default()
            };
            run_orchestrated_campaign(&prog, CampaignKind::Sensitivity, &cfg, &orch).unwrap()
        };
        let uniform = run(None);
        let adapt = run(Some(adaptive.clone()));
        assert_eq!(uniform.executed, uniform.planned, "uniform is exhaustive");
        assert!(
            2 * adapt.executed <= uniform.executed,
            "adaptive sampling must at least halve the injections ({} vs {})",
            adapt.executed,
            uniform.executed
        );
        for (u, a) in uniform.strata.iter().zip(&adapt.strata) {
            assert_eq!(u.stratum, a.stratum);
            let width = crate::sampler::ci_width(&a.counts, adaptive.z);
            assert!(
                !a.stopped_early || width <= adaptive.ci_width + 1e-9,
                "{}: stopped early at width {width} > target {}",
                a.stratum.key(),
                adaptive.ci_width
            );
        }
    }

    #[test]
    fn chaos_unit_retries_then_succeeds() {
        let prog = Cp::new(ProblemScale::Quick);
        let cfg = small_cfg();
        let plain = crate::campaign::run_sensitivity_campaign(&prog, &cfg);
        // Fail the first attempt of one real unit; the retry must recover
        // and the summary must match an undisturbed run exactly.
        let stratum = Stratum {
            hw: HwComponent::Fpu,
            class: DataClass::Float,
        };
        let r = run_orchestrated_campaign(
            &prog,
            CampaignKind::Sensitivity,
            &cfg,
            &OrchestratorConfig {
                shard_size: OrchestratorConfig::DEFAULT_SHARD_SIZE,
                max_retries: 2,
                chaos: Some(ChaosConfig {
                    stratum,
                    chunk: 0,
                    fail_attempts: 1,
                    panics: false,
                }),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.quarantined.is_empty());
        assert_eq!(report::to_csv(&plain), report::to_csv(&r.campaign));
    }

    #[test]
    fn exhausted_retries_quarantine_the_unit() {
        let prog = Cp::new(ProblemScale::Quick);
        let cfg = small_cfg();
        let stratum = Stratum {
            hw: HwComponent::Fpu,
            class: DataClass::Float,
        };
        let journal = tmp("quarantine.jsonl");
        let _ = std::fs::remove_file(&journal);
        let r = run_orchestrated_campaign(
            &prog,
            CampaignKind::Sensitivity,
            &cfg,
            &OrchestratorConfig {
                max_retries: 1,
                journal_path: Some(journal.clone()),
                chaos: Some(ChaosConfig {
                    stratum,
                    chunk: 0,
                    fail_attempts: 99,
                    panics: false,
                }),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.quarantined.len(), 1);
        assert_eq!(r.quarantined[0].attempts, 2, "1 try + 1 retry");
        assert!(r.executed < r.planned, "quarantined unit's work is lost");
        assert_eq!(
            r.campaign.metrics.counter("quarantined_units"),
            1,
            "quarantine surfaces in metrics"
        );
        // The journal records the quarantine, and a resume honors it
        // without re-executing the poisoned unit (chaos off now).
        let replayed = run_orchestrated_campaign(
            &prog,
            CampaignKind::Sensitivity,
            &cfg,
            &OrchestratorConfig {
                max_retries: 1,
                resume_from: Some(journal.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        std::fs::remove_file(&journal).ok();
        assert_eq!(replayed.quarantined.len(), 1);
        assert_eq!(replayed.summary_json(), r.summary_json());
    }

    #[test]
    fn panicking_unit_is_quarantined_with_its_message() {
        // Same shape as `exhausted_retries_quarantine_the_unit`, but the
        // sabotaged unit genuinely panics on a rayon worker thread, so the
        // `catch_unwind` in `execute_unit` (the path a hostile kernel or a
        // simulator bug would take) is what does the recovering.
        let prog = Cp::new(ProblemScale::Quick);
        let cfg = small_cfg();
        let stratum = Stratum {
            hw: HwComponent::Fpu,
            class: DataClass::Float,
        };
        let r = run_orchestrated_campaign(
            &prog,
            CampaignKind::Sensitivity,
            &cfg,
            &OrchestratorConfig {
                max_retries: 1,
                chaos: Some(ChaosConfig {
                    stratum,
                    chunk: 0,
                    fail_attempts: 99,
                    panics: true,
                }),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.quarantined.len(), 1);
        assert_eq!(r.quarantined[0].attempts, 2, "1 try + 1 retry");
        assert!(
            r.quarantined[0].error.contains("injected work-unit panic"),
            "panic payload survives: {}",
            r.quarantined[0].error
        );
    }

    #[test]
    fn stop_flag_cancels_at_unit_boundary_and_resume_completes() {
        let prog = Cp::new(ProblemScale::Quick);
        let cfg = small_cfg();
        let journal = tmp("cancel.jsonl");
        let _ = std::fs::remove_file(&journal);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let err = run_orchestrated_campaign(
            &prog,
            CampaignKind::Sensitivity,
            &cfg,
            &OrchestratorConfig {
                journal_path: Some(journal.clone()),
                stop: Some(stop),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.contains(CANCELED), "{err}");
        // Cancellation is not corruption: the journal holds the campaign
        // identity plus every finished unit, so a resume (stop flag clear)
        // completes the run byte-identical to an undisturbed one.
        let full = run_orchestrated_campaign(
            &prog,
            CampaignKind::Sensitivity,
            &cfg,
            &OrchestratorConfig::default(),
        )
        .unwrap();
        let resumed = run_orchestrated_campaign(
            &prog,
            CampaignKind::Sensitivity,
            &cfg,
            &OrchestratorConfig {
                resume_from: Some(journal.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        std::fs::remove_file(&journal).ok();
        assert_eq!(full.summary_json(), resumed.summary_json());
    }

    #[test]
    fn foreign_journal_is_rejected() {
        let prog = Cp::new(ProblemScale::Quick);
        let cfg = small_cfg();
        let journal = tmp("foreign.jsonl");
        let _ = std::fs::remove_file(&journal);
        run_orchestrated_campaign(
            &prog,
            CampaignKind::Sensitivity,
            &cfg,
            &OrchestratorConfig {
                journal_path: Some(journal.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        // Same journal, different seed → different plan fingerprint.
        let mut other = cfg.clone();
        other.seed ^= 1;
        let err = run_orchestrated_campaign(
            &prog,
            CampaignKind::Sensitivity,
            &other,
            &OrchestratorConfig {
                resume_from: Some(journal.clone()),
                ..Default::default()
            },
        )
        .unwrap_err();
        std::fs::remove_file(&journal).ok();
        assert!(err.contains("different campaign"), "{err}");
    }

    /// Run a tiny CP sensitivity campaign on `engine` (tests run it often,
    /// a third of the time on the slow tree walker), with checkpointing on
    /// or off, under the journal settings of `orch`.
    fn run_on(
        engine: ExecEngine,
        checkpoint: bool,
        orch: OrchestratorConfig,
    ) -> ShardedCampaignResult {
        let mut cfg = small_cfg();
        (cfg.plan.vars_per_program, cfg.plan.masks_per_var) = (2, 4);
        cfg.engine = Some(engine);
        let prog = Cp::new(ProblemScale::Quick);
        let orch = OrchestratorConfig { checkpoint, ..orch };
        run_orchestrated_campaign(&prog, CampaignKind::Sensitivity, &cfg, &orch).unwrap()
    }

    /// Engine and checkpoint mode are observational: a journal interrupted
    /// under one engine resumes under each other engine, and one written
    /// with checkpointing on resumes with it off (and the reverse), to a
    /// summary byte-identical to an uninterrupted run.
    #[test]
    fn resume_across_engines_and_checkpoint_modes_is_byte_identical() {
        use ExecEngine::{Batch, Bytecode, TreeWalk};
        let full = run_on(Bytecode, false, OrchestratorConfig::default());
        let journal = tmp("cross-resume.jsonl");
        for (written, resumed_as) in [
            ((TreeWalk, false), (Bytecode, false)),
            ((TreeWalk, false), (Batch, false)),
            ((Bytecode, false), (TreeWalk, false)),
            ((Bytecode, false), (Batch, false)),
            ((Batch, false), (TreeWalk, false)),
            ((Batch, false), (Bytecode, false)),
            ((Bytecode, true), (Bytecode, false)),
            ((Bytecode, false), (Bytecode, true)),
        ] {
            let orch = |journal_path, resume_from| OrchestratorConfig {
                shard_size: 2,
                journal_path,
                resume_from,
                ..Default::default()
            };
            run_on(written.0, written.1, orch(Some(journal.clone()), None));
            // Keep the meta and two units: an interruption mid-campaign.
            let text = std::fs::read_to_string(&journal).unwrap();
            let keep: Vec<&str> = text.lines().take(3).collect();
            std::fs::write(&journal, format!("{}\n", keep.join("\n"))).unwrap();
            let r = run_on(
                resumed_as.0,
                resumed_as.1,
                orch(None, Some(journal.clone())),
            );
            let case = format!("{written:?} resumed as {resumed_as:?}");
            assert_eq!((r.resumed_units, r.dropped_lines), (2, 0), "{case}");
            assert!(r.resumed_injections < r.executed, "{case}");
            assert_eq!(full.summary_json(), r.summary_json(), "{case}");
            assert_eq!(full.summarize(), r.summarize(), "{case}");
        }
        std::fs::remove_file(&journal).ok();
    }

    /// A version-3 journal — meta with the legacy `engine`/`checkpoint`
    /// fields plus a `ckpt` record — still reads: it resumes under every
    /// engine and both checkpoint modes with no dropped line and no
    /// injection re-executed. `write_journal_lines` keeps the legacy line;
    /// `merge_journals` does not re-emit it.
    #[test]
    fn legacy_v3_journal_resumes_on_every_engine_and_mode() {
        use crate::journal::{merge_journals, write_journal_lines};
        let [current, legacy, merged] =
            ["src", "v3", "merged"].map(|t| tmp(&format!("legacy-{t}")));
        let full = run_on(
            ExecEngine::Bytecode,
            false,
            OrchestratorConfig {
                journal_path: Some(current.clone()),
                ..Default::default()
            },
        );
        let text = std::fs::read_to_string(&current).unwrap();
        let (meta, records) = text.split_once('\n').unwrap();
        let meta = meta.replace(
            r#""version":4"#,
            r#""checkpoint":"6253c4a38f9213ac","engine":"bytecode","version":3"#,
        );
        let ckpt = r#"{"boundaries":16,"engine":"bytecode","identity":"6253c4a38f9213ac","rec":"ckpt","sections":3}"#;
        let v3 = format!("{meta}\n{ckpt}\n{records}");
        for engine in [
            ExecEngine::TreeWalk,
            ExecEngine::Bytecode,
            ExecEngine::Batch,
        ] {
            for checkpoint in [false, true] {
                // A resume appends a profile record, so start from the text.
                std::fs::write(&legacy, &v3).unwrap();
                let orch = OrchestratorConfig {
                    resume_from: Some(legacy.clone()),
                    ..Default::default()
                };
                let r = run_on(engine, checkpoint, orch);
                let case = format!("{engine:?} checkpoint={checkpoint}");
                assert_eq!(r.dropped_lines, 0, "{case}");
                assert_eq!(r.resumed_injections, r.executed, "{case}: no re-execution");
                assert_eq!(full.summary_json(), r.summary_json(), "{case}");
            }
        }
        let lines = v3.lines().count();
        assert_eq!(
            write_journal_lines(&current, v3.lines()).unwrap(),
            (lines, 0)
        );
        assert!(std::fs::read_to_string(&current).unwrap().contains(ckpt));
        merge_journals(&merged, &[&legacy]).unwrap();
        let out = std::fs::read_to_string(&merged).unwrap();
        assert!(
            !out.contains(r#""rec":"ckpt""#) && !out.contains("engine"),
            "{out}"
        );
        for p in [&current, &legacy, &merged] {
            std::fs::remove_file(p).ok();
        }
    }

    /// The headline equivalence: a checkpointed campaign produces summaries
    /// byte-identical to full re-execution while simulating fewer cycles,
    /// for both campaign kinds.
    #[test]
    fn checkpointed_campaign_is_byte_identical_and_cheaper() {
        let prog = Cp::new(ProblemScale::Quick);
        let cfg = small_cfg();
        for kind in [
            CampaignKind::Sensitivity,
            CampaignKind::Coverage(FtOptions::default()),
        ] {
            let full = run_orchestrated_campaign(&prog, kind, &cfg, &OrchestratorConfig::default())
                .unwrap();
            let ck = run_orchestrated_campaign(
                &prog,
                kind,
                &cfg,
                &OrchestratorConfig {
                    checkpoint: true,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(full.summary_json(), ck.summary_json());
            assert_eq!(full.summarize(), ck.summarize());
            assert_eq!(report::to_csv(&full.campaign), report::to_csv(&ck.campaign));
            let stats = ck.checkpoint.as_ref().expect("store was built");
            assert_eq!(stats.injections, ck.executed, "all plans in-grid for CP");
            assert!(stats.boundaries > 0);
            assert!(
                ck.sim_cycles < full.sim_cycles,
                "checkpointing must save cycles: {} vs {}",
                ck.sim_cycles,
                full.sim_cycles
            );
            // Section outcomes compose back to the campaign totals.
            let total: usize = ck.section_outcomes.iter().map(|s| s.counts.total()).sum();
            assert_eq!(total, ck.executed as usize);
            assert!(ck.section_outcomes.iter().all(|s| s.section.is_some()));
            // The plain run carries sections but no checkpoint ledger.
            assert!(full.checkpoint.is_none());
        }
    }

    /// Checkpointed journals resume like plain ones: interrupt, resume with
    /// checkpointing still on, and the summary matches an undisturbed run.
    #[test]
    fn checkpointed_resume_is_byte_identical() {
        let prog = Cp::new(ProblemScale::Quick);
        let cfg = small_cfg();
        let orch = |journal: Option<PathBuf>, resume: Option<PathBuf>| OrchestratorConfig {
            shard_size: 8,
            journal_path: journal,
            resume_from: resume,
            checkpoint: true,
            ..Default::default()
        };
        let journal = tmp("ckpt-resume.jsonl");
        let _ = std::fs::remove_file(&journal);
        let full =
            run_orchestrated_campaign(&prog, CampaignKind::Sensitivity, &cfg, &orch(None, None))
                .unwrap();
        run_orchestrated_campaign(
            &prog,
            CampaignKind::Sensitivity,
            &cfg,
            &orch(Some(journal.clone()), None),
        )
        .unwrap();
        // Drop the trailing records to simulate an interruption mid-campaign.
        let text = std::fs::read_to_string(&journal).unwrap();
        let keep: Vec<&str> = text.lines().take(4).collect();
        std::fs::write(&journal, format!("{}\n", keep.join("\n"))).unwrap();
        let resumed = run_orchestrated_campaign(
            &prog,
            CampaignKind::Sensitivity,
            &cfg,
            &orch(None, Some(journal.clone())),
        )
        .unwrap();
        std::fs::remove_file(&journal).ok();
        assert!(resumed.resumed_units > 0, "some units replayed");
        assert_eq!(full.summary_json(), resumed.summary_json());
    }

    #[test]
    fn shards_partition_strata_and_merge() {
        let prog = Cp::new(ProblemScale::Quick);
        let cfg = small_cfg();
        let full = run_orchestrated_campaign(
            &prog,
            CampaignKind::Sensitivity,
            &cfg,
            &OrchestratorConfig::default(),
        )
        .unwrap();
        let j0 = tmp("shard0.jsonl");
        let j1 = tmp("shard1.jsonl");
        let merged = tmp("shard-merged.jsonl");
        for p in [&j0, &j1, &merged] {
            let _ = std::fs::remove_file(p);
        }
        // Each shard runs on its own engine and checkpoint mode: neither is
        // part of the campaign identity, so the shards still merge.
        for (i, path, engine, checkpoint) in [
            (0u32, &j0, ExecEngine::TreeWalk, false),
            (1u32, &j1, ExecEngine::Batch, true),
        ] {
            let mut cfg = cfg.clone();
            cfg.engine = Some(engine);
            let r = run_orchestrated_campaign(
                &prog,
                CampaignKind::Sensitivity,
                &cfg,
                &OrchestratorConfig {
                    journal_path: Some(path.clone()),
                    shard: Some((i, 2)),
                    checkpoint,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(r.executed < r.planned, "each shard owns a strict subset");
        }
        crate::journal::merge_journals(&merged, &[&j0, &j1]).unwrap();
        let resumed = run_orchestrated_campaign(
            &prog,
            CampaignKind::Sensitivity,
            &cfg,
            &OrchestratorConfig {
                resume_from: Some(merged.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        for p in [&j0, &j1, &merged] {
            let _ = std::fs::remove_file(p);
        }
        assert_eq!(
            resumed.resumed_injections, resumed.executed,
            "no re-execution"
        );
        assert_eq!(full.summary_json(), resumed.summary_json());
        assert_eq!(full.summarize(), resumed.summarize());
    }
}
