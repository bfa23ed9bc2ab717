//! Untimed correctness checks that run before any timing.
//!
//! Each workload runs a reduced plan two ways that must agree byte for
//! byte, for any seed:
//!
//! * `cp-coverage`: the bytecode and batch engines;
//! * `pns-ckpt`: checkpointing on and off;
//! * `rpes-sharded`: the two-shard merge-and-finalize workflow and one
//!   unsharded run;
//! * `serve-closed`: each pooled job run in-process twice (the daemon's
//!   results are then checked against these during the timed run).
//!
//! For the default seed the digest of the summaries and the simulated work
//! cycles are also compared with values pinned here: a change meant only to
//! make the program faster must leave both identical.

use crate::serve_load::{job_pool, JobPool};
use crate::stats::digest;
use crate::workload::{campaign_seed, run_campaign, run_plain, Size, Workload};
use hauberk_serve::JobSpec;
use hauberk_sim::ExecEngine;
use std::path::Path;

/// Seed used when `--seed` is not given; the pins below hold for it.
pub const DEFAULT_SEED: u64 = 1;

/// `(workload, summary digest, simulated work cycles)` of the reduced-plan
/// checks at [`DEFAULT_SEED`].
const PINS: [(Workload, &str, u64); 4] = [
    (Workload::CpCoverage, "735be12ff4fb66b4", 6_254_376),
    (Workload::PnsCkpt, "315a2b2798f296f2", 1_129_836),
    (Workload::RpesSharded, "1184d16aa88693e4", 429_308),
    (Workload::ServeClosed, "a5c5fd72f72ec1d1", 56_268_148),
];

/// What the checks produced.
pub struct Preflight {
    /// Digest of the summaries the checks compared.
    pub digest: String,
    /// Work cycles of the reference runs.
    pub sim_cycles: u64,
    /// `serve-closed` only: the job pool and its expected results.
    pub pool: Option<JobPool>,
}

fn same(what: &str, a: &(String, u64), b: &(String, u64)) -> Result<(), String> {
    if a.0 != b.0 {
        return Err(format!("{what}: summaries differ\n  {}\n  {}", a.0, b.0));
    }
    if a.1 != b.1 {
        return Err(format!(
            "{what}: simulated cycles differ ({} vs {})",
            a.1, b.1
        ));
    }
    Ok(())
}

/// Run the checks for `w`; `Err` names the first mismatch.
pub fn run(w: Workload, seed: u64, smoke: bool, dir: &Path) -> Result<Preflight, String> {
    let size = if smoke { Size::Tiny } else { Size::Reduced };
    let spec = w.spec(campaign_seed(seed, 0), size);
    let (reference, pool) = match w {
        Workload::CpCoverage => {
            let on = |engine| {
                run_plain(&JobSpec {
                    engine: Some(engine),
                    ..spec.clone()
                })
            };
            let bytecode = on(ExecEngine::Bytecode)?;
            same(
                "bytecode vs batch engine",
                &bytecode,
                &on(ExecEngine::Batch)?,
            )?;
            (bytecode, None)
        }
        Workload::PnsCkpt => {
            let ckpt = run_plain(&spec)?;
            let full = run_plain(&JobSpec {
                checkpoint: false,
                ..spec.clone()
            })?;
            // Cycles differ by design; only the summaries must agree.
            same("checkpoint on vs off", &ckpt, &(full.0, ckpt.1))?;
            (ckpt, None)
        }
        Workload::RpesSharded => {
            let sharded = run_campaign(w, &spec, dir)?;
            let unsharded = run_plain(&spec)?;
            same(
                "sharded finalize vs unsharded run",
                &unsharded,
                &(sharded.summary, sharded.sim_cycles),
            )?;
            (unsharded, None)
        }
        Workload::ServeClosed => {
            let pool = job_pool(seed)?;
            let again = job_pool(seed)?;
            if again.expected != pool.expected {
                return Err("in-process job results are not deterministic".into());
            }
            ((pool.expected.join("\n"), pool.sim_cycles), Some(pool))
        }
    };
    let pf = Preflight {
        digest: digest([reference.0.as_bytes()]),
        sim_cycles: reference.1,
        pool,
    };
    if seed == DEFAULT_SEED && !smoke {
        let (_, want_digest, want_cycles) = PINS
            .iter()
            .find(|p| p.0 == w)
            .expect("every workload has a pin");
        if (pf.digest.as_str(), pf.sim_cycles) != (*want_digest, *want_cycles) {
            return Err(format!(
                "{}: pinned digest {want_digest} / {want_cycles} cycles, got {} / {}",
                w.name(),
                pf.digest,
                pf.sim_cycles
            ));
        }
    }
    Ok(pf)
}
