//! The hardening determinism contract (DESIGN §19): the same program and
//! config must produce a byte-identical `HardeningPlan` and Pareto-front
//! CSV under every execution engine and any worker thread count, and the
//! plan the optimizer emits must instrument *exactly* the selected sites
//! when fed back through the translator.
//!
//! The engine is chosen per run through `HardenConfig.campaign.engine`. The
//! thread count is a process-global knob, so every run that varies it sits
//! inside one `#[test]` — parallel test threads flipping it would race each
//! other, not the code under test. The Pareto-front claims below run under
//! whatever count is current, which is safe because their results are
//! thread-count invariant.

use hauberk::builds::{build_selected, BuildVariant};
use hauberk::program::HostProgram;
use hauberk_benchmarks::{cp::Cp, pns::Pns, ProblemScale};
use hauberk_kir::printer::print_kernel;
use hauberk_sim::ExecEngine;
use hauberk_swifi::campaign::CampaignConfig;
use hauberk_swifi::harden::{harden, HardenConfig};
use hauberk_swifi::mask::PAPER_BIT_COUNTS;
use hauberk_swifi::plan::PlanConfig;

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
fn plan_and_front_are_byte_identical_across_engines_and_thread_counts() {
    let prog = Cp::new(ProblemScale::Quick);

    let mut reference: Option<(String, String)> = None;
    for engine in ExecEngine::ALL {
        let mut cfg = quick_cfg();
        cfg.campaign.engine = Some(engine);
        for threads in [1usize, 4] {
            rayon::set_thread_count(threads);
            let r = harden(&prog, &cfg)
                .unwrap_or_else(|e| panic!("harden under {engine}/{threads}t: {e}"));
            let artifacts = (r.plan.to_json_string(), r.front_csv());
            match &reference {
                None => reference = Some(artifacts),
                Some(want) => {
                    assert_eq!(
                        artifacts.0, want.0,
                        "plan bytes diverged under {engine} with {threads} threads"
                    );
                    assert_eq!(
                        artifacts.1, want.1,
                        "front CSV diverged under {engine} with {threads} threads"
                    );
                }
            }
        }
    }
    // Restore the process-wide default for any test run after this one.
    rayon::set_thread_count(0);

    // Translator round-trip: rebuilding under the emitted plan instruments
    // exactly the selected sites — every selected loop detector and nothing
    // else, checksum folds only for selected NL variables, and the
    // per-iteration trip counter only where the trip check was selected.
    let (plan_json, _) = reference.unwrap();
    let plan = hauberk::translator::select::HardeningPlan::parse(&plan_json).unwrap();
    let sel = &plan.selection;
    let base = prog.build_kernel();
    let full = build_selected(&base, BuildVariant::Ft(Default::default()), None).unwrap();
    let hardened = build_selected(&base, BuildVariant::Ft(Default::default()), Some(sel)).unwrap();

    let mut placed: Vec<(u32, String)> = hardened
        .detectors
        .iter()
        .map(|d| (d.loop_id, d.var_name.clone()))
        .collect();
    let mut wanted: Vec<(u32, String)> = sel.loop_detectors.clone();
    wanted.sort();
    placed.sort();
    assert_eq!(placed, wanted, "loop detectors ≠ selection");

    let printed = print_kernel(&hardened.kernel);
    for var in &sel.nonloop_vars {
        assert!(
            printed.contains(&format!("bits({var})")),
            "selected NL variable {var} has no checksum fold"
        );
    }
    // A full-protection NL variable left out of the selection must not be
    // folded into the checksum.
    let full_printed = print_kernel(&full.kernel);
    for var in base.vars.iter().map(|v| v.name.as_str()) {
        if full_printed.contains(&format!("bits({var})"))
            && !sel.nonloop_vars.iter().any(|s| s == var)
        {
            assert!(
                !printed.contains(&format!("bits({var})")),
                "unselected NL variable {var} was instrumented anyway"
            );
        }
    }
    // CP's for-loop trip is statically derivable, so the per-iteration
    // counter exists iff some selected loop also selected its trip check.
    let any_trip = sel.loop_detectors.iter().any(|(l, _)| sel.selects_trip(*l));
    assert_eq!(
        printed.contains("__cnt_"),
        any_trip,
        "trip-counter presence disagrees with the selection:\n{printed}"
    );
}

/// The two standing claims of closed-loop selective hardening on CP and PNS
/// (12 × 12 at the paper's bit counts, budget 0.5): walking the budget
/// ladder upward, measured coverage and detector overhead never decrease;
/// and the budget-0.5 placement keeps at least 80% of the full-protection
/// coverage at at most 50% of its detector overhead.
#[test]
fn pareto_front_is_monotone_and_half_budget_is_cheap() {
    let programs: [Box<dyn HostProgram>; 2] = [
        Box::new(Cp::new(ProblemScale::Quick)),
        Box::new(Pns::new(ProblemScale::Quick)),
    ];
    for prog in programs {
        let name = prog.name();
        let cfg = HardenConfig {
            budget: 0.5,
            campaign: CampaignConfig {
                plan: PlanConfig {
                    vars_per_program: 12,
                    masks_per_var: 12,
                    bit_counts: PAPER_BIT_COUNTS.to_vec(),
                    ..PlanConfig::default()
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let report = harden(prog.as_ref(), &cfg).expect("harden");
        for w in report.front.windows(2) {
            assert!(
                w[1].coverage >= w[0].coverage - 1e-12,
                "{name}: coverage dropped along the front: {} @ budget {} vs {} @ budget {}",
                w[1].coverage,
                w[1].budget,
                w[0].coverage,
                w[0].budget
            );
            assert!(
                w[1].overhead_cycles >= w[0].overhead_cycles,
                "{name}: overhead dropped along the front at budget {}",
                w[1].budget
            );
        }
        let half = report
            .front
            .iter()
            .find(|p| p.budget == 0.5)
            .expect("budget 0.5 is on the default ladder");
        assert!(
            half.overhead_cycles * 2 <= report.full_overhead_cycles,
            "{name}: budget-0.5 overhead {} exceeds half of full {}",
            half.overhead_cycles,
            report.full_overhead_cycles
        );
        assert!(
            half.coverage >= 0.8 * report.full_coverage,
            "{name}: selective coverage {} < 80% of full {}",
            half.coverage,
            report.full_coverage
        );
    }
}
