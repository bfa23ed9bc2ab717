//! `campaign_bench` — measure what adaptive sampling saves: run the same
//! pinned-seed sensitivity campaign twice, once as an exhaustive uniform
//! sweep and once with Wilson-interval early stopping at a target CI width,
//! and record the injection-count reduction.
//!
//! The run asserts, as a standing check, that the adaptive campaign needs at
//! most half the injections of the uniform sweep while every stratum it
//! stopped early still meets the target interval width — the claim recorded
//! in `BENCH_campaign.json`.
//!
//! It then prices fault-free prefix checkpointing the same way: the pinned
//! campaign runs with full re-execution and from the shared checkpoint, on
//! two paper benchmarks (CP and PNS), in interleaved rounds whose host wall
//! times are reported as median and quartiles beside the simulated-cycle
//! ledger and the fraction of injections composed from the reference. The
//! standing checks are that every round's summaries are byte-identical and
//! that checkpointing cuts the simulated work cycles by at least 2x; the
//! per-benchmark ledgers land in the same `BENCH_campaign.json` under
//! `"checkpoint"`.
//!
//! ```text
//! campaign_bench [--ci-width F] [--min-samples N] [--out PATH]
//! ```

use hauberk_bench::cli::process_args;
use hauberk_swifi::campaign::{CampaignConfig, CampaignKind};
use hauberk_swifi::orchestrator::{run_orchestrated_campaign, OrchestratorConfig};
use hauberk_swifi::plan::PlanConfig;
use hauberk_swifi::sampler::{ci_width, AdaptiveConfig};
use hauberk_telemetry::json::Json;
use std::time::Instant;

/// Interleaved full / checkpointed rounds per benchmark (the order
/// alternates, so host drift hits both sides alike).
const CHECKPOINT_ROUNDS: usize = 7;

/// Median and quartiles of `v` (nearest rank).
fn quartiles(v: &mut [f64]) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    [at(0.25), at(0.5), at(0.75)]
}

/// Wall-time summary (seconds) of one side of the checkpoint comparison.
fn wall_json(times: &mut [f64]) -> Json {
    let [q1, median, q3] = quartiles(times);
    Json::obj([
        ("median_s", Json::Num(median)),
        ("q1_s", Json::Num(q1)),
        ("q3_s", Json::Num(q3)),
        ("rounds", Json::uint(times.len() as u64)),
    ])
}

fn main() {
    let args = process_args(&[
        ("--ci-width", true),
        ("--min-samples", true),
        ("--out", true),
    ]);
    let target: f64 = args.get_or("--ci-width", 0.2);
    let min_samples: u64 = args.get_or("--min-samples", 24);
    let out_path = args.value("--out");

    let prog = hauberk_benchmarks::program_by_name("CP", hauberk_benchmarks::ProblemScale::Quick)
        .expect("CP benchmark");
    let cfg = CampaignConfig {
        // Large enough that every stratum holds several times the samples
        // its interval needs — that headroom is what adaptive sampling
        // skips.
        plan: PlanConfig {
            vars_per_program: 20,
            masks_per_var: 80,
            bit_counts: hauberk_swifi::mask::PAPER_BIT_COUNTS.to_vec(),
            ..PlanConfig::default()
        },
        ..Default::default()
    };
    let adaptive = AdaptiveConfig {
        ci_width: target,
        z: 1.96,
        min_samples,
    };
    let shard_size = 8; // fine-grained units so stopping tracks the interval

    let uniform = run_orchestrated_campaign(
        prog.as_ref(),
        CampaignKind::Sensitivity,
        &cfg,
        &OrchestratorConfig {
            shard_size,
            ..Default::default()
        },
    )
    .expect("uniform sweep");
    let adapt = run_orchestrated_campaign(
        prog.as_ref(),
        CampaignKind::Sensitivity,
        &cfg,
        &OrchestratorConfig {
            shard_size,
            adaptive: Some(adaptive.clone()),
            ..Default::default()
        },
    )
    .expect("adaptive campaign");

    assert_eq!(
        uniform.executed, uniform.planned,
        "uniform sweep is exhaustive"
    );
    let reduction = uniform.executed as f64 / adapt.executed as f64;
    eprintln!(
        "uniform {} injections, adaptive {} at CI width {target}: {reduction:.2}x reduction",
        uniform.executed, adapt.executed
    );

    // Standing claims: ≥2x fewer injections, and every early-stopped stratum
    // actually met the target width.
    assert!(
        reduction >= 2.0,
        "adaptive sampling must at least halve the injection count \
         ({} vs {})",
        adapt.executed,
        uniform.executed
    );
    let mut strata = Vec::new();
    for (u, a) in uniform.strata.iter().zip(&adapt.strata) {
        assert_eq!(u.stratum, a.stratum);
        let aw = ci_width(&a.counts, adaptive.z);
        let uw = ci_width(&u.counts, adaptive.z);
        if a.stopped_early {
            assert!(
                aw <= target + 1e-9,
                "{}: stopped early at width {aw} > target {target}",
                a.stratum.key()
            );
        }
        strata.push(Json::obj([
            ("stratum", Json::str(a.stratum.key())),
            ("planned", Json::uint(u.planned)),
            ("uniform_executed", Json::uint(u.executed())),
            ("adaptive_executed", Json::uint(a.executed())),
            ("uniform_ci_width", Json::Num(uw)),
            ("adaptive_ci_width", Json::Num(aw)),
            ("stopped_early", Json::Bool(a.stopped_early)),
        ]));
    }

    // Checkpointing: full re-execution vs shared fault-free prefix, on two
    // paper benchmarks. Byte-identity and the ≥2x cycle reduction are
    // standing assertions, not just recorded numbers.
    let mut checkpoint_docs = Vec::new();
    for name in ["CP", "PNS"] {
        let prog =
            hauberk_benchmarks::program_by_name(name, hauberk_benchmarks::ProblemScale::Quick)
                .expect("paper benchmark");
        let ck_cfg = CampaignConfig {
            plan: PlanConfig {
                vars_per_program: 12,
                masks_per_var: 20,
                bit_counts: hauberk_swifi::mask::PAPER_BIT_COUNTS.to_vec(),
                ..PlanConfig::default()
            },
            ..Default::default()
        };
        let run = |checkpoint: bool| {
            let t = Instant::now();
            let r = run_orchestrated_campaign(
                prog.as_ref(),
                CampaignKind::Sensitivity,
                &ck_cfg,
                &OrchestratorConfig {
                    checkpoint,
                    ..Default::default()
                },
            )
            .expect("campaign");
            (r, t.elapsed().as_secs_f64())
        };
        let (mut full_wall, mut ck_wall) = (Vec::new(), Vec::new());
        let mut last = None;
        for round in 0..CHECKPOINT_ROUNDS {
            let (full, ck) = if round % 2 == 0 {
                let f = run(false);
                (f, run(true))
            } else {
                let c = run(true);
                (run(false), c)
            };
            assert_eq!(
                full.0.summary_json(),
                ck.0.summary_json(),
                "{name}: checkpointed summary must be byte-identical"
            );
            assert_eq!(full.0.summarize(), ck.0.summarize());
            full_wall.push(full.1);
            ck_wall.push(ck.1);
            last = Some((full.0, ck.0));
        }
        let (full, ck) = last.expect("at least one round");
        let stats = ck.checkpoint.as_ref().unwrap_or_else(|| {
            panic!("{name}: checkpoint store must build for the paper benchmarks")
        });
        let cycle_reduction = full.sim_cycles as f64 / ck.sim_cycles.max(1) as f64;
        let executed = stats.reference_cycles + stats.executed_cycles;
        let executed_reduction = full.sim_cycles as f64 / executed.max(1) as f64;
        let composed_fraction = stats.composed as f64 / stats.injections.max(1) as f64;
        let (full_med, ck_med) = (quartiles(&mut full_wall)[1], quartiles(&mut ck_wall)[1]);
        eprintln!(
            "{name}: full {} cycles, checkpointed {} ({} boundaries, {}/{} spliced, \
             {}/{} composed): {cycle_reduction:.2}x reduction, {executed_reduction:.2}x \
             executed; wall {full_med:.3} s -> {ck_med:.3} s ({:.2}x, medians of \
             {CHECKPOINT_ROUNDS})",
            full.sim_cycles,
            ck.sim_cycles,
            stats.boundaries,
            stats.spliced,
            stats.injections,
            stats.composed,
            stats.injections,
            full_med / ck_med
        );
        assert!(
            cycle_reduction >= 2.0,
            "{name}: checkpointing must at least halve the simulated cycles \
             ({} vs {})",
            ck.sim_cycles,
            full.sim_cycles
        );
        checkpoint_docs.push(Json::obj([
            ("program", Json::str(format!("{name} quick"))),
            ("planned", Json::uint(full.planned)),
            ("full_cycles", Json::uint(full.sim_cycles)),
            ("checkpoint_cycles", Json::uint(ck.sim_cycles)),
            ("cycle_reduction", Json::Num(cycle_reduction)),
            ("sections", Json::uint(stats.sections)),
            ("boundaries", Json::uint(stats.boundaries)),
            ("injections", Json::uint(stats.injections)),
            ("spliced", Json::uint(stats.spliced)),
            ("composed", Json::uint(stats.composed)),
            ("fell_back", Json::uint(stats.fell_back)),
            ("composed_fraction", Json::Num(composed_fraction)),
            ("reference_cycles", Json::uint(stats.reference_cycles)),
            ("executed_cycles", Json::uint(stats.executed_cycles)),
            ("executed_cycle_reduction", Json::Num(executed_reduction)),
            ("full_wall", wall_json(&mut full_wall)),
            ("checkpoint_wall", wall_json(&mut ck_wall)),
            ("wall_speedup", Json::Num(full_med / ck_med)),
            ("byte_identical", Json::Bool(true)),
        ]));
    }

    let doc = Json::obj([
        ("bench", Json::str("campaign_bench")),
        ("program", Json::str("CP quick")),
        ("kind", Json::str("sensitivity")),
        ("planned", Json::uint(uniform.planned)),
        ("shard_size", Json::uint(shard_size as u64)),
        ("ci_width_target", Json::Num(target)),
        ("min_samples", Json::uint(min_samples)),
        ("uniform_injections", Json::uint(uniform.executed)),
        ("adaptive_injections", Json::uint(adapt.executed)),
        ("reduction", Json::Num(reduction)),
        ("strata", Json::Arr(strata)),
        ("checkpoint", Json::Arr(checkpoint_docs)),
    ]);
    let rendered = format!("{doc}\n");
    match out_path {
        Some(path) => {
            std::fs::write(path, &rendered).expect("write bench output");
            eprintln!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
}
