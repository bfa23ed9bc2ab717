//! Campaign planning: which faults to arm (§VIII).
//!
//! The paper selects 20–50 virtual variables per program, injects 50 random
//! error masks into each, and arms each injection at a concrete dynamic
//! occurrence. We reproduce that: variables are drawn from the FI map,
//! (thread, occurrence) pairs from the profiler build's execution counts,
//! and a configurable fraction of experiments target the SM scheduler
//! (loop iterators and branch decisions) instead of computation results.

use crate::mask::random_mask;
use hauberk::runtime::ProfilerRuntime;
use hauberk::translator::FiMap;
use hauberk_kir::stmt::SiteId;
use hauberk_kir::types::DataClass;
use hauberk_kir::HwComponent;
use hauberk_sim::fault::{ArmedFault, FaultSite};
use rand::seq::SliceRandom;
use rand::Rng;

/// One planned experiment.
#[derive(Debug, Clone, Copy)]
pub struct InjectionPlan {
    /// The armed fault.
    pub fault: ArmedFault,
    /// Data class of the targeted state.
    pub class: DataClass,
    /// Emulated hardware component.
    pub hw: HwComponent,
    /// Mask bit count.
    pub bits: u32,
}

/// Planning parameters.
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Virtual variables to select (paper: 20–50).
    pub vars_per_program: usize,
    /// Error masks per selected variable (paper: 50).
    pub masks_per_var: usize,
    /// Mask bit counts to cycle through (e.g. `[1]` or the paper's
    /// `[1, 3, 6, 10, 15]`).
    pub bit_counts: Vec<u32>,
    /// Fraction (×1000) of extra scheduler-fault experiments relative to the
    /// variable experiments (the paper's fault class (d)).
    pub scheduler_per_mille: u32,
    /// Fraction (×1000) of extra register-file experiments (the paper's
    /// fault class (c): corrupt a live variable at another statement's
    /// execution point, between the variable's uses).
    pub register_per_mille: u32,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            vars_per_program: 24,
            masks_per_var: 20,
            bit_counts: vec![1],
            scheduler_per_mille: 60,
            register_per_mille: 60,
        }
    }
}

/// Plan a campaign from the FI surface and the profiler's execution counts.
///
/// Sites that never executed are skipped (a fault there could never
/// activate). Returns an empty plan only for kernels with no executed sites.
pub fn plan_campaign(
    fi: &FiMap,
    profile: &ProfilerRuntime,
    cfg: &PlanConfig,
    rng: &mut impl Rng,
) -> Vec<InjectionPlan> {
    // A site's `(site, thread, count)` records, in thread order. Every
    // recorded count is at least 1, so a site executed iff it has records.
    let execs = profile.sorted_execs();
    let threads_of = |site: SiteId| {
        let lo = execs.partition_point(|e| e.0 < site);
        let hi = execs.partition_point(|e| e.0 <= site);
        &execs[lo..hi]
    };

    // Group executed sites by variable.
    let mut vars: Vec<(&str, Vec<usize>)> = Vec::new();
    for (i, site) in fi.sites.iter().enumerate() {
        if threads_of(site.site).is_empty() {
            continue;
        }
        match vars.iter_mut().find(|(n, _)| *n == site.var_name.as_str()) {
            Some((_, idxs)) => idxs.push(i),
            None => vars.push((site.var_name.as_str(), vec![i])),
        }
    }
    vars.shuffle(rng);
    vars.truncate(cfg.vars_per_program);

    let mut plans = Vec::new();
    for (_, site_idxs) in &vars {
        for m in 0..cfg.masks_per_var {
            let bits = cfg.bit_counts[m % cfg.bit_counts.len()];
            let mask = random_mask(rng, bits);
            let si = site_idxs[rng.gen_range(0..site_idxs.len())];
            let site = &fi.sites[si];
            let threads = threads_of(site.site);
            let (_, thread, count) = threads[rng.gen_range(0..threads.len())];
            let occurrence = rng.gen_range(1..=count);
            plans.push(InjectionPlan {
                fault: ArmedFault {
                    site: FaultSite::HookTarget { site: site.site },
                    thread,
                    occurrence,
                    mask,
                },
                class: site.class,
                hw: site.hw,
                bits,
            });
        }
    }

    // Register-file faults: corrupt variable V at the execution point of a
    // *different* site S, while V sits in a register between uses.
    if fi.sites.len() >= 2 && !plans.is_empty() {
        let n_reg = plans.len() * cfg.register_per_mille as usize / 1000;
        for i in 0..n_reg {
            let victim = &fi.sites[rng.gen_range(0..fi.sites.len())];
            let trigger = &fi.sites[rng.gen_range(0..fi.sites.len())];
            let threads = threads_of(trigger.site);
            if threads.is_empty() {
                continue;
            }
            let bits = cfg.bit_counts[i % cfg.bit_counts.len()];
            let (_, thread, count) = threads[rng.gen_range(0..threads.len())];
            plans.push(InjectionPlan {
                fault: ArmedFault {
                    site: FaultSite::RegisterLive {
                        site: trigger.site,
                        var: victim.var,
                    },
                    thread,
                    occurrence: rng.gen_range(1..=count),
                    mask: random_mask(rng, bits),
                },
                class: victim.class,
                hw: HwComponent::RegisterFile,
                bits,
            });
        }
    }

    // Scheduler faults against loops.
    if !fi.loops.is_empty() && !plans.is_empty() {
        let n_sched = plans.len() * cfg.scheduler_per_mille as usize / 1000;
        // Arm scheduler faults on threads known to execute (from any site).
        let known_threads: Vec<u32> = {
            let mut t: Vec<u32> = fi
                .sites
                .iter()
                .flat_map(|s| threads_of(s.site))
                .map(|&(_, t, _)| t)
                .collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        for i in 0..n_sched {
            let lp = fi.loops[rng.gen_range(0..fi.loops.len())];
            let bits = cfg.bit_counts[i % cfg.bit_counts.len()];
            let use_iter = lp.has_iterator && rng.gen_bool(0.7);
            let site = if use_iter {
                FaultSite::LoopIterator {
                    loop_id: lp.loop_id,
                }
            } else {
                FaultSite::LoopDecision {
                    loop_id: lp.loop_id,
                }
            };
            let thread = known_threads[rng.gen_range(0..known_threads.len())];
            plans.push(InjectionPlan {
                fault: ArmedFault {
                    site,
                    thread,
                    occurrence: rng.gen_range(1..=4),
                    mask: random_mask(rng, bits),
                },
                class: DataClass::Integer,
                hw: HwComponent::Scheduler,
                bits,
            });
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use hauberk::builds::{build, BuildVariant, FtOptions};
    use hauberk::program::{run_program, HostProgram};
    use hauberk_benchmarks::{cp::Cp, ProblemScale};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn plans_cover_vars_masks_and_scheduler() {
        let prog = Cp::new(ProblemScale::Quick);
        let base = prog.build_kernel();
        let profiler = build(&base, BuildVariant::Profiler(FtOptions::default())).unwrap();
        let mut pr = ProfilerRuntime::default();
        let run = run_program(&prog, &profiler.kernel, 0, &mut pr, u64::MAX);
        assert!(run.outcome.is_completed());

        let fi = build(&base, BuildVariant::Fi).unwrap();
        let cfg = PlanConfig {
            vars_per_program: 8,
            masks_per_var: 10,
            bit_counts: vec![1, 3],
            scheduler_per_mille: 100,
            register_per_mille: 100,
        };
        // The FI build's sites and the profiler's CountExec sites share the
        // same numbering (same pass, same traversal).
        let mut rng = SmallRng::seed_from_u64(7);
        let plans = plan_campaign(&fi.fi, &pr, &cfg, &mut rng);
        assert!(
            plans.len() >= 80,
            "8 vars x 10 masks + scheduler: {}",
            plans.len()
        );
        assert!(plans.iter().any(|p| p.hw == HwComponent::Scheduler));
        assert!(plans.iter().any(|p| p.hw == HwComponent::RegisterFile));
        assert!(plans.iter().any(|p| p.bits == 3));
        assert!(plans.iter().all(|p| p.fault.occurrence >= 1));
        // Determinism.
        let mut rng2 = SmallRng::seed_from_u64(7);
        let plans2 = plan_campaign(&fi.fi, &pr, &cfg, &mut rng2);
        assert_eq!(plans.len(), plans2.len());
        assert_eq!(plans[0].fault, plans2[0].fault);
    }
}
