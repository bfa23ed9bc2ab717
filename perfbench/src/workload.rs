//! The four workloads and the timed campaign loop.
//!
//! Every campaign is described by a [`JobSpec`], the daemon's own spec type,
//! so the campaign workloads and the daemon workload map a spec onto
//! `CampaignConfig`/`OrchestratorConfig` through the same code.

use hauberk_serve::{JobSpec, ProgramSpec};
use hauberk_swifi::journal::merge_journals;
use hauberk_swifi::mask::PAPER_BIT_COUNTS;
use hauberk_swifi::orchestrator::{run_orchestrated_campaign, OrchestratorConfig};
use std::path::Path;
use std::time::Instant;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CP (floating point, loop-dominated), Fig. 14 coverage campaigns:
    /// long injections under the FI&FT hook runtime, checkpointing off.
    CpCoverage,
    /// PNS (integer), coverage campaigns from a shared fault-free
    /// checkpoint: the only workload through the snapshot layer.
    PnsCkpt,
    /// RPES sensitivity campaigns, each run as two journaled shards, a
    /// journal merge and a finalizing resume: short injections, so setup,
    /// per-unit and journal costs dominate.
    RpesSharded,
    /// Two closed-loop HTTP clients against an in-process daemon: small CP
    /// jobs, status polling, result reads and result-cache hits.
    ServeClosed,
}

/// How large a workload's campaigns are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The timed end-to-end run.
    Measure,
    /// The traced run (one worker thread, so a smaller plan).
    Traced,
    /// Untimed correctness pre-flight checks.
    Reduced,
    /// `--smoke`: every phase in a few seconds.
    Tiny,
}

/// Seconds of setup probes at each end of a campaign run (at least
/// [`MIN_PROBES`] each); `setup_s` is the fastest probe.
const PROBE_S: f64 = 1.0;

/// Fewest setup probes at each end of a campaign run.
const MIN_PROBES: usize = 4;

/// Modulus of the setup probe's shard: stratum ordinals are far below it,
/// so shard `m - 1` owns no stratum and the probe prepares (build, golden
/// run, profile, plan, checkpoint capture) without executing an injection.
const PROBE_MODULUS: u32 = 1 << 20;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::CpCoverage,
        Workload::PnsCkpt,
        Workload::RpesSharded,
        Workload::ServeClosed,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CpCoverage => "cp-coverage",
            Workload::PnsCkpt => "pns-ckpt",
            Workload::RpesSharded => "rpes-sharded",
            Workload::ServeClosed => "serve-closed",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether each campaign runs the two-shard journal workflow.
    pub fn sharded(self) -> bool {
        self == Workload::RpesSharded
    }

    /// The campaign this workload runs for `seed` at `size`. For
    /// `serve-closed` it is the job the clients submit.
    pub fn spec(self, seed: u64, size: Size) -> JobSpec {
        let (program, coverage, checkpoint, shard_size) = match self {
            Workload::CpCoverage => ("CP", true, false, 0),
            Workload::PnsCkpt => ("PNS", true, true, 0),
            Workload::RpesSharded => ("RPES", false, false, 8),
            Workload::ServeClosed => ("CP", false, false, 0),
        };
        // Timed plans are the campaigns the repository runs at quick scale:
        // CP 2,516 injections (four make the paper's ~10k per program), PNS
        // twice the masks, RPES 3,595 injections.
        let (vars, masks, bit_counts) = match (self, size) {
            (Workload::ServeClosed, _) => (4, 6, vec![1]),
            (_, Size::Tiny) => (2, 2, vec![1]),
            (_, Size::Reduced) => (4, 5, PAPER_BIT_COUNTS.to_vec()),
            (Workload::CpCoverage, Size::Measure) => (20, 160, PAPER_BIT_COUNTS.to_vec()),
            (Workload::CpCoverage, Size::Traced) => (20, 20, PAPER_BIT_COUNTS.to_vec()),
            (Workload::PnsCkpt, Size::Measure) => (20, 320, PAPER_BIT_COUNTS.to_vec()),
            (Workload::PnsCkpt, Size::Traced) => (20, 80, PAPER_BIT_COUNTS.to_vec()),
            (Workload::RpesSharded, Size::Measure) => (20, 160, PAPER_BIT_COUNTS.to_vec()),
            (Workload::RpesSharded, Size::Traced) => (20, 40, PAPER_BIT_COUNTS.to_vec()),
        };
        JobSpec {
            program: ProgramSpec::Named(program.to_string()),
            coverage,
            seed,
            vars,
            masks,
            bit_counts,
            shard_size,
            checkpoint,
            ..JobSpec::default()
        }
    }
}

/// Seed of the `k`-th campaign (or job) of a run with seed `run_seed`
/// (splitmix64, so neighbouring run seeds give unrelated campaigns). Kept
/// to 32 bits: journals and job specs carry seeds as JSON integers, which
/// do not hold every `u64`.
pub fn campaign_seed(run_seed: u64, k: u64) -> u64 {
    let mut z = run_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 32
}

/// One timed campaign, from the first orchestrator call to its result.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// Wall time of every orchestrator and merge call of the campaign.
    pub wall_ns: u64,
    /// Injections simulated (journal replays excluded).
    pub executed: u64,
    /// Injections the plan holds.
    pub planned: u64,
    /// Planned injections missing from the final result (quarantined).
    pub lost: u64,
    /// Work cycles simulated across all calls.
    pub sim_cycles: u64,
    /// The final `summary_json`.
    pub summary: String,
}

/// Run one campaign of `w` with journals in `dir`: a single journaled
/// orchestrator call, or for sharded workloads shards 0/2 and 1/2, a
/// journal merge and a finalizing resume.
pub fn run_campaign(w: Workload, spec: &JobSpec, dir: &Path) -> Result<CampaignRun, String> {
    let prog = spec.build_program()?;
    let kind = spec.campaign_kind();
    let cfg = spec.campaign_config();
    let base = spec.orchestrator_config();
    let t = Instant::now();
    let (fin, executed, sim_cycles) = if w.sharded() {
        let shards = [dir.join("shard0.jsonl"), dir.join("shard1.jsonl")];
        let (mut executed, mut cycles) = (0, 0);
        for (i, path) in shards.iter().enumerate() {
            let r = run_orchestrated_campaign(
                prog.as_ref(),
                kind,
                &cfg,
                &OrchestratorConfig {
                    journal_path: Some(path.clone()),
                    shard: Some((i as u32, 2)),
                    ..base.clone()
                },
            )?;
            executed += r.executed - r.resumed_injections;
            cycles += r.sim_cycles;
        }
        let merged = dir.join("merged.jsonl");
        merge_journals(&merged, &shards)?;
        let fin = run_orchestrated_campaign(
            prog.as_ref(),
            kind,
            &cfg,
            &OrchestratorConfig {
                resume_from: Some(merged),
                ..base.clone()
            },
        )?;
        if fin.resumed_injections != fin.executed {
            return Err(format!(
                "finalize re-executed {} injections the shards had journaled",
                fin.executed - fin.resumed_injections
            ));
        }
        let cycles = cycles + fin.sim_cycles;
        (fin, executed, cycles)
    } else {
        let r = run_orchestrated_campaign(
            prog.as_ref(),
            kind,
            &cfg,
            &OrchestratorConfig {
                journal_path: Some(dir.join("campaign.jsonl")),
                ..base
            },
        )?;
        let (executed, cycles) = (r.executed, r.sim_cycles);
        (r, executed, cycles)
    };
    let wall_ns = t.elapsed().as_nanos() as u64;
    Ok(CampaignRun {
        wall_ns,
        executed,
        planned: fin.planned,
        lost: fin.planned - fin.executed,
        sim_cycles,
        summary: fin.summary_json().to_string(),
    })
}

/// Run `spec` once through the orchestrator, without a journal, as the
/// daemon runs a job: summary and simulated cycles.
pub fn run_plain(spec: &JobSpec) -> Result<(String, u64), String> {
    let prog = spec.build_program()?;
    let r = run_orchestrated_campaign(
        prog.as_ref(),
        spec.campaign_kind(),
        &spec.campaign_config(),
        &spec.orchestrator_config(),
    )?;
    Ok((r.summary_json().to_string(), r.sim_cycles))
}

/// Resume the last campaign [`run_campaign`] left in `dir` from its
/// journal and return the replayed summary (an untimed check that the
/// journal reproduces the result).
pub fn replay_last(w: Workload, spec: &JobSpec, dir: &Path) -> Result<String, String> {
    let prog = spec.build_program()?;
    let journal = dir.join(if w.sharded() {
        "merged.jsonl"
    } else {
        "campaign.jsonl"
    });
    let r = run_orchestrated_campaign(
        prog.as_ref(),
        spec.campaign_kind(),
        &spec.campaign_config(),
        &OrchestratorConfig {
            resume_from: Some(journal),
            ..spec.orchestrator_config()
        },
    )?;
    Ok(r.summary_json().to_string())
}

/// Prepare `spec` exactly as a campaign does and execute nothing; returns
/// the seconds it took.
pub fn setup_probe(spec: &JobSpec) -> Result<f64, String> {
    let prog = spec.build_program()?;
    let t = Instant::now();
    let r = run_orchestrated_campaign(
        prog.as_ref(),
        spec.campaign_kind(),
        &spec.campaign_config(),
        &OrchestratorConfig {
            shard: Some((PROBE_MODULUS - 1, PROBE_MODULUS)),
            ..spec.orchestrator_config()
        },
    )?;
    let secs = t.elapsed().as_secs_f64();
    if r.executed != 0 {
        return Err(format!("setup probe executed {} injections", r.executed));
    }
    Ok(secs)
}

/// Timed samples of a campaign workload.
#[derive(Debug, Default)]
pub struct CampaignMeasurement {
    /// Seconds per setup probe.
    pub probes: Vec<f64>,
    /// Every timed campaign.
    pub runs: Vec<CampaignRun>,
    /// Problems found while checking the outputs.
    pub problems: Vec<String>,
}

/// Probe `spec`'s setup for [`PROBE_S`] seconds and at least
/// [`MIN_PROBES`] times.
fn probe_phase(spec: &JobSpec, probes: &mut Vec<f64>) -> Result<(), String> {
    let t = Instant::now();
    for i in 0.. {
        if i >= MIN_PROBES && t.elapsed().as_secs_f64() >= PROBE_S {
            break;
        }
        probes.push(setup_probe(spec)?);
    }
    Ok(())
}

/// Run campaigns with seeds derived from `seed` back to back: at least one,
/// and another only while it is expected to finish within `seconds` (at
/// the mean campaign time so far). Setup is probed on the first campaign's
/// spec before the campaigns and on the last one's after them. A shared
/// host switches between a fast and a slow mode (about 1.8× apart) that
/// last seconds to minutes, so the fastest probe of the two phases is far
/// steadier from run to run than their median. Finally replay the last
/// campaign from its journal and check it reproduces the summary.
pub fn measure_campaigns(
    w: Workload,
    seed: u64,
    seconds: f64,
    size: Size,
    dir: &Path,
) -> Result<CampaignMeasurement, String> {
    let mut m = CampaignMeasurement::default();
    probe_phase(&w.spec(campaign_seed(seed, 0), size), &mut m.probes)?;
    let t = Instant::now();
    let mut k = 0;
    loop {
        let spec = w.spec(campaign_seed(seed, k), size);
        m.runs.push(run_campaign(w, &spec, dir)?);
        k += 1;
        let now = t.elapsed().as_secs_f64();
        if now + now / k as f64 > seconds {
            break;
        }
    }
    let last = w.spec(campaign_seed(seed, k - 1), size);
    probe_phase(&last, &mut m.probes)?;
    let replayed = replay_last(w, &last, dir)?;
    let run = m.runs.last().expect("at least one campaign ran");
    if replayed != run.summary {
        m.problems.push(format!(
            "{}: journal replay of campaign {} differs from its result",
            w.name(),
            k - 1
        ));
    }
    for (i, r) in m.runs.iter().enumerate() {
        if r.executed != r.planned || r.lost != 0 {
            m.problems.push(format!(
                "{}: campaign {i} executed {} of {} planned injections ({} lost)",
                w.name(),
                r.executed,
                r.planned,
                r.lost
            ));
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn campaign_seeds_are_deterministic_and_distinct() {
        assert_eq!(campaign_seed(1, 0), campaign_seed(1, 0));
        assert_ne!(campaign_seed(1, 0), campaign_seed(1, 1));
        assert_ne!(campaign_seed(1, 0), campaign_seed(2, 0));
    }
}
