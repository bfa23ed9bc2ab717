//! Differential checkpoint suite: fault-free prefix checkpointing must be an
//! **invisible** optimization. For property-generated kernels — with barrier
//! sections, thread-divergent guards, divergent loop trip counts, and blocks
//! that read the previous block's output — a checkpointed campaign must
//! produce byte-identical observables to full re-execution, whether a run
//! splices, composes its suffix from the reference, or falls back to
//! executing it:
//!
//!   * the per-experiment CSV (one outcome per injection, so any divergence
//!     in outputs, hook logs, or alarms shows up as a changed record),
//!   * the JSON summary, and
//!   * the text summary,
//!
//! on every engine tier (tree-walk, bytecode, batch) and under 1 vs. 4
//! rayon worker threads. The generated kernels put fault sites in *every*
//! barrier-delimited section, so the comparison includes faults landing
//! immediately before and after section boundaries, and the composed
//! per-section outcome map must re-total to the campaign.
//!
//! On the paper's CP and PNS the same equivalence holds, and checkpointing
//! must at least halve the simulated cycles. PNS coverage campaigns whose
//! hangs are all certified keep summary digests pinned from when every hang
//! ran out its budget.
//!
//! Thread counts are varied only by the property test and by
//! `composition_and_fallback_are_byte_identical`: the other tests in this
//! binary run under whatever count is current, which is safe
//! precisely because the contract under test says results are thread-count
//! invariant.

use hauberk::builds::FtOptions;
use hauberk::program::HostProgram;
use hauberk::textprog::{TextOptions, TextProgram};
use hauberk_sim::ExecEngine;
use hauberk_swifi::campaign::{CampaignConfig, CampaignKind};
use hauberk_swifi::orchestrator::{run_orchestrated_campaign, OrchestratorConfig};
use hauberk_swifi::plan::PlanConfig;
use hauberk_swifi::report::to_csv;
use hauberk_swifi::ShardedCampaignResult;
use proptest::prelude::*;

const ENGINES: [ExecEngine; 3] = [
    ExecEngine::TreeWalk,
    ExecEngine::Bytecode,
    ExecEngine::Batch,
];

/// Recipe for one generated kernel: number of barrier-delimited phases,
/// per-phase loop trip count, whether a thread-divergent guard scales the
/// accumulator, whether the loop bound itself diverges per thread, and
/// whether each block reads the previous block's `out` words (so a fault
/// that changes a block's output is read later and composition must fall
/// back to executing the suffix).
#[derive(Debug, Clone)]
struct GenKernel {
    phases: u8,
    trip: u8,
    guarded: bool,
    divergent_trip: bool,
    chained: bool,
}

fn gen_kernel() -> impl Strategy<Value = GenKernel> {
    (1u8..4, 1u8..6, any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
        |(phases, trip, guarded, divergent_trip, chained)| GenKernel {
            phases,
            trip,
            guarded,
            divergent_trip,
            chained,
        },
    )
}

/// Render the recipe as KIR source. Each phase is `sync(); for { acc += ... }`
/// (the first phase omits the barrier), so `partition_sections` sees one
/// section per phase boundary and fault sites exist on both sides of every
/// barrier. The divergent variants exercise warp reconvergence under the
/// restored snapshot.
fn render(g: &GenKernel) -> String {
    let mut body = String::new();
    body.push_str("    let tid: i32 = block_idx_x() * block_dim_x() + thread_idx_x();\n");
    body.push_str("    let acc: f32 = 0.5;\n");
    for p in 0..g.phases {
        if p > 0 {
            body.push_str("    sync();\n");
        }
        let bound = if g.divergent_trip {
            format!("tid % 3 + {}", g.trip)
        } else {
            format!("{}", g.trip)
        };
        body.push_str(&format!(
            "    for (i{p} = 0; i{p} < {bound}; i{p} = i{p} + 1) {{\n\
             \x20       acc = acc + load(x, (tid + i{p}) % n) * 0.125;\n\
             \x20   }}\n"
        ));
        if g.guarded {
            body.push_str("    if (tid % 3 < 1) {\n        acc = acc * 1.0625;\n    }\n");
        }
    }
    if g.chained {
        body.push_str(
            "    if (block_idx_x() > 0) {\n\
             \x20       acc = acc + load(out, tid - block_dim_x()) * 0.25;\n\
             \x20   }\n",
        );
    }
    body.push_str("    store(out, tid, acc);\n");
    format!("kernel ckpt_prop(out: *global f32, x: *global f32, n: i32) {{\n{body}}}\n")
}

fn program(g: &GenKernel) -> TextProgram {
    let opts = TextOptions {
        blocks: 3,
        threads_per_block: 8,
        elems: 24,
        exact: false,
    };
    TextProgram::from_kir(&render(g), opts).expect("generated kernel parses")
}

/// Small but site-saturating plan: more target variables than the kernel
/// has, so every section's sites receive faults.
fn cfg(engine: ExecEngine) -> CampaignConfig {
    CampaignConfig {
        plan: PlanConfig {
            vars_per_program: 8,
            masks_per_var: 4,
            bit_counts: vec![1, 3],
            scheduler_per_mille: 120,
            register_per_mille: 120,
        },
        engine: Some(engine),
        ..Default::default()
    }
}

fn run(
    prog: &TextProgram,
    kind: CampaignKind,
    engine: ExecEngine,
    checkpoint: bool,
) -> (ShardedCampaignResult, String, String, String) {
    let r = run_orchestrated_campaign(
        prog,
        kind,
        &cfg(engine),
        &OrchestratorConfig {
            checkpoint,
            ..Default::default()
        },
    )
    .expect("orchestrated campaign");
    let csv = to_csv(&r.campaign);
    let json = r.summary_json().to_string();
    let text = r.summarize();
    (r, csv, json, text)
}

/// Assert the checkpointed run actually engaged the store and that its
/// composed per-section outcomes re-total to the executed injections.
fn check_engaged(g: &GenKernel, ck: &ShardedCampaignResult) {
    let stats = ck
        .checkpoint
        .as_ref()
        .unwrap_or_else(|| panic!("checkpoint store must build for {g:?}"));
    assert!(stats.boundaries > 0, "no boundaries captured for {g:?}");
    assert_eq!(stats.injections, ck.executed, "every injection accounted");
    let total: usize = ck.section_outcomes.iter().map(|s| s.counts.total()).sum();
    assert_eq!(
        total as u64, ck.executed,
        "section outcomes re-total the campaign"
    );
    if g.phases >= 2 {
        let sections: std::collections::BTreeSet<_> = ck
            .section_outcomes
            .iter()
            .filter_map(|s| s.section)
            .collect();
        assert!(
            sections.len() >= 2,
            "faults must land on both sides of a barrier for {g:?}: {:?}",
            ck.section_outcomes
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sensitivity campaigns on generated kernels: full vs. checkpointed is
    /// byte-identical per combination, all six (engine × thread-count)
    /// checkpointed runs agree with each other, and checkpointing does
    /// strictly less simulated work.
    #[test]
    fn checkpointed_sensitivity_is_byte_identical(g in gen_kernel()) {
        let prog = program(&g);
        let mut baseline: Option<(String, String, String)> = None;
        for engine in ENGINES {
            for threads in [1usize, 4] {
                rayon::set_thread_count(threads);
                let (full, f_csv, f_json, f_text) =
                    run(&prog, CampaignKind::Sensitivity, engine, false);
                let (ck, c_csv, c_json, c_text) =
                    run(&prog, CampaignKind::Sensitivity, engine, true);
                prop_assert_eq!(&f_csv, &c_csv, "CSV differs on {:?}/{}", engine, threads);
                prop_assert_eq!(&f_json, &c_json, "JSON differs on {:?}/{}", engine, threads);
                prop_assert_eq!(&f_text, &c_text, "text differs on {:?}/{}", engine, threads);
                prop_assert!(full.checkpoint.is_none(), "full run must not report stats");
                check_engaged(&g, &ck);
                prop_assert!(
                    ck.sim_cycles < full.sim_cycles,
                    "checkpointing must save cycles ({} vs {})",
                    ck.sim_cycles,
                    full.sim_cycles
                );
                match &baseline {
                    None => baseline = Some((c_csv, c_json, c_text)),
                    Some((csv, json, text)) => {
                        prop_assert_eq!(csv, &c_csv, "CSV varies with {:?}/{}", engine, threads);
                        prop_assert_eq!(json, &c_json, "JSON varies with {:?}/{}", engine, threads);
                        prop_assert_eq!(text, &c_text, "text varies with {:?}/{}", engine, threads);
                    }
                }
            }
        }
    }
}

/// Coverage campaigns run the FT-hardened build, so detector hook logs and
/// alarms feed the outcome of every injection: byte-identical CSV here means
/// the restored prefix reproduces the hook stream exactly, on every engine.
/// Uses a divergent, multi-section kernel — the adversarial case for
/// splicing.
#[test]
fn checkpointed_coverage_preserves_alarms_and_hook_logs() {
    let g = GenKernel {
        phases: 3,
        trip: 4,
        guarded: true,
        divergent_trip: true,
        chained: false,
    };
    let prog = program(&g);
    for engine in ENGINES {
        let kind = CampaignKind::Coverage(FtOptions::default());
        let (full, f_csv, f_json, f_text) = run(&prog, kind, engine, false);
        let (ck, c_csv, c_json, c_text) = run(&prog, kind, engine, true);
        assert_eq!(f_csv, c_csv, "coverage CSV differs on {engine:?}");
        assert_eq!(f_json, c_json, "coverage JSON differs on {engine:?}");
        assert_eq!(f_text, c_text, "coverage text differs on {engine:?}");
        assert!(full.checkpoint.is_none());
        check_engaged(&g, &ck);
        // Detected outcomes exist, so alarms actually fired under splicing.
        assert!(
            ck.campaign
                .results
                .iter()
                .any(|r| { matches!(r.outcome, hauberk_swifi::classify::FiOutcome::Detected) }),
            "coverage campaign on {engine:?} raised no alarms — the hook-log \
             comparison would be vacuous"
        );
    }
}

/// Faults pinned to the sites adjacent to every barrier: the generated
/// kernels put an assignment as the last statement before each `sync()` and
/// the loop header right after it, so the plan's site sweep necessarily
/// covers both edges of each boundary. Verify the composed section map names
/// every phase and stays identical between the engines' checkpointed runs.
#[test]
fn boundary_faults_compose_across_all_sections() {
    let g = GenKernel {
        phases: 3,
        trip: 3,
        guarded: false,
        divergent_trip: false,
        chained: false,
    };
    let prog = program(&g);
    let sections = hauberk_kir::partition_sections(&prog.build_kernel());
    assert!(
        sections.sections.len() >= 3,
        "three phases must partition into at least three sections, got {:?}",
        sections.sections
    );
    let mut per_engine = Vec::new();
    for engine in ENGINES {
        let (ck, csv, _, _) = run(&prog, CampaignKind::Sensitivity, engine, true);
        check_engaged(&g, &ck);
        let hit: std::collections::BTreeSet<_> = ck
            .section_outcomes
            .iter()
            .filter_map(|s| s.section)
            .collect();
        assert!(
            hit.len() >= sections.sections.len().min(3),
            "plan must place faults in every section on {engine:?}: {:?}",
            ck.section_outcomes
        );
        per_engine.push((engine, csv, ck.section_outcomes.clone()));
    }
    let (e0, csv0, sec0) = &per_engine[0];
    for (engine, csv, sec) in &per_engine[1..] {
        assert_eq!(csv0, csv, "CSV differs between {e0:?} and {engine:?}");
        assert_eq!(
            sec0, sec,
            "section composition differs between {e0:?} and {engine:?}"
        );
    }
}

/// Composition and its fallback are both exercised, and both invisible: the
/// plain recipe's faulty runs compose (no block reads another block's
/// output), while the chained recipe's blocks read the previous block's
/// `out` words, so a fault that changes a block's output must fall back to
/// executing the suffix. Every engine at 1 and 4 threads stays byte-identical
/// to full re-execution.
#[test]
fn composition_and_fallback_are_byte_identical() {
    for chained in [false, true] {
        let g = GenKernel {
            phases: 2,
            trip: 3,
            guarded: true,
            divergent_trip: false,
            chained,
        };
        let prog = program(&g);
        let (mut composed, mut fell_back) = (0, 0);
        for engine in ENGINES {
            for threads in [1usize, 4] {
                rayon::set_thread_count(threads);
                let (_, f_csv, f_json, f_text) =
                    run(&prog, CampaignKind::Sensitivity, engine, false);
                let (ck, c_csv, c_json, c_text) =
                    run(&prog, CampaignKind::Sensitivity, engine, true);
                assert_eq!(
                    f_csv, c_csv,
                    "CSV differs on {engine:?}/{threads} for {g:?}"
                );
                assert_eq!(
                    f_json, c_json,
                    "JSON differs on {engine:?}/{threads} for {g:?}"
                );
                assert_eq!(
                    f_text, c_text,
                    "text differs on {engine:?}/{threads} for {g:?}"
                );
                check_engaged(&g, &ck);
                let stats = ck.checkpoint.as_ref().expect("store was built");
                composed += stats.composed;
                fell_back += stats.fell_back;
            }
        }
        if chained {
            assert!(fell_back > 0, "no run fell back for {g:?}");
        } else {
            assert!(composed > 0, "no run composed for {g:?}");
            assert_eq!(fell_back, 0, "nothing is read later for {g:?}");
        }
    }
}

/// The checkpoint claim on two paper benchmarks (CP and PNS, quick scale):
/// a checkpointed sensitivity campaign is byte-identical to full
/// re-execution and simulates at most half its cycles. The wall-clock
/// speedup is perfbench's `swifi.ckpt_wall_speedup`.
#[test]
fn paper_benchmarks_checkpoint_halves_simulated_cycles() {
    let cfg = CampaignConfig {
        plan: PlanConfig {
            vars_per_program: 12,
            masks_per_var: 20,
            bit_counts: hauberk_swifi::mask::PAPER_BIT_COUNTS.to_vec(),
            ..PlanConfig::default()
        },
        ..Default::default()
    };
    for name in ["CP", "PNS"] {
        let prog =
            hauberk_benchmarks::program_by_name(name, hauberk_benchmarks::ProblemScale::Quick)
                .expect("paper benchmark");
        let run = |checkpoint: bool| {
            let orch = OrchestratorConfig {
                checkpoint,
                ..Default::default()
            };
            run_orchestrated_campaign(prog.as_ref(), CampaignKind::Sensitivity, &cfg, &orch)
                .expect("campaign")
        };
        let (full, ck) = (run(false), run(true));
        assert!(
            ck.checkpoint.is_some(),
            "{name}: checkpoint store must build"
        );
        assert_eq!(
            full.summary_json().to_string(),
            ck.summary_json().to_string(),
            "{name}: checkpointed summary must be byte-identical"
        );
        assert_eq!(full.summarize(), ck.summarize());
        assert!(
            full.sim_cycles >= 2 * ck.sim_cycles,
            "{name}: checkpointing must at least halve the simulated cycles ({} vs {})",
            ck.sim_cycles,
            full.sim_cycles
        );
    }
}

/// PNS coverage campaigns that contain hangs — sign flips of the
/// memory-free step loop's iterator, which a hang certificate ends without
/// running out the watchdog budget — keep the summary bytes of the run-out
/// verdicts: the `summary_json` digests below were recorded while every
/// hang still ran out its budget. The first plan (quick scale, 1 hang) runs
/// with checkpointing off and on; the second (14 hangs) is the first
/// campaign of perfbench's seed-1 `pns-ckpt` workload, which checkpoints.
#[test]
fn certified_pns_hangs_keep_pinned_summaries() {
    let prog = hauberk_benchmarks::program_by_name("PNS", hauberk_benchmarks::ProblemScale::Quick)
        .expect("paper benchmark");
    for (seed, masks, checkpoints, pin) in [
        (
            CampaignConfig::default().seed,
            25,
            &[false, true][..],
            "8ddf4c0474fb19a1",
        ),
        (3_837_447_845, 320, &[true][..], "7ee6e36b1c71c194"),
    ] {
        let cfg = CampaignConfig {
            plan: PlanConfig {
                vars_per_program: 20,
                masks_per_var: masks,
                bit_counts: hauberk_swifi::mask::PAPER_BIT_COUNTS.to_vec(),
                ..PlanConfig::default()
            },
            seed,
            ..Default::default()
        };
        for &checkpoint in checkpoints {
            let orch = OrchestratorConfig {
                checkpoint,
                ..Default::default()
            };
            let r = run_orchestrated_campaign(
                prog.as_ref(),
                CampaignKind::Coverage(FtOptions::default()),
                &cfg,
                &orch,
            )
            .expect("campaign");
            let label = format!("seed {seed}, {masks} masks, checkpoint {checkpoint}");
            let digest = hauberk::canon::fnv1a_hex(r.summary_json().to_string().as_bytes());
            assert_eq!(digest, pin, "{label}: summary changed");
            assert!(r.hangs.injections > 0, "{label}: no hang");
            assert_eq!(r.hangs.certified, r.hangs.injections, "{label}");
        }
    }
}
