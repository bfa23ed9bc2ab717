//! `interp_bench` — measure all three execution engines (tree walker,
//! bytecode VM, batched lane-vector VM) on the simulator's standard hot-path
//! kernel (the same FP loop `telemetry_overhead` and `sim_throughput` use)
//! and on a fault-free launch of every suite program at quick scale, and
//! record the pairwise speedups the compiled tiers deliver per launch.
//!
//! Also verifies, on every run, that all engines produce identical
//! `ExecStats` and identical output memory — a cheap standing differential
//! check in addition to the property suite.
//!
//! The hook-runtime layer gets the same treatment: for every suite program
//! it times a fault-free launch of the FI build on the batch engine under
//! `FiRuntime::new(None)` against `NullRuntime` (asserting identical stats
//! and output), and records the ratio as `fi_over_null`.
//!
//! ```text
//! interp_bench [--iters N] [--out PATH]
//! ```

use hauberk::builds::{build, BuildVariant};
use hauberk::program::HostProgram;
use hauberk::runtime::FiRuntime;
use hauberk_bench::cli::process_args;
use hauberk_benchmarks::{all_programs, ProblemScale};
use hauberk_kir::kernel::KernelDef;
use hauberk_kir::parser::parse_kernel;
use hauberk_kir::{PrimTy, Value};
use hauberk_sim::{Device, DeviceConfig, ExecEngine, ExecStats, HookRuntime, Launch, NullRuntime};
use hauberk_telemetry::json::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

const ENGINES: [ExecEngine; 3] = ExecEngine::ALL;

/// Interleaved rounds per measurement; each engine keeps its fastest round,
/// so machine drift cancels instead of biasing whichever engine ran last.
const ROUNDS: u32 = 5;

fn one_launch(kernel: &KernelDef, engine: ExecEngine) -> (ExecStats, Vec<f32>) {
    let mut config = DeviceConfig::small_gpu();
    config.engine = engine;
    let mut dev = Device::new(config);
    let out = dev.alloc(PrimTy::F32, 512);
    let x = dev.alloc(PrimTy::F32, 256);
    let r = black_box(dev.launch(
        kernel,
        &[Value::Ptr(out), Value::Ptr(x), Value::I32(256)],
        &Launch::grid1d(16, 32),
        &mut NullRuntime,
    ));
    let stats = r.completed_stats().expect("bench launch completes").clone();
    (stats, dev.mem.copy_out_f32(out, 512))
}

/// Timed work per round of a suite program, reached by its slowest engine;
/// the faster engines make as many calls, so a sub-millisecond launch
/// averages over tens of calls.
const PROGRAM_ROUND: Duration = Duration::from_millis(40);

/// Fastest mean ns per call of each of `N` contenders (an engine, or a hook
/// runtime) over [`ROUNDS`] rounds. Within a round the contenders take turns
/// call by call (so they share any machine drift) for at least `per_round`
/// turns, and until one contender has spent `min_round`.
fn best_of_rounds<const N: usize>(
    per_round: u32,
    min_round: Duration,
    mut timed: impl FnMut(usize) -> Duration,
) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..ROUNDS {
        let mut total = [Duration::ZERO; N];
        let mut calls = 0u32;
        while calls < per_round.max(1) || total.iter().all(|&t| t < min_round) {
            for (i, t) in total.iter_mut().enumerate() {
                *t += timed(i);
            }
            calls += 1;
        }
        for (b, t) in best.iter_mut().zip(total) {
            *b = b.min(t.as_nanos() as f64 / calls as f64);
        }
    }
    best
}

/// One fault-free launch of `kernel` (a build of `prog`) on `engine` under
/// `runtime`: the launch's wall time (setup and read-back excluded), stats
/// and output.
fn program_launch(
    prog: &dyn HostProgram,
    kernel: &KernelDef,
    engine: ExecEngine,
    runtime: &mut dyn HookRuntime,
) -> (Duration, ExecStats, Vec<u64>) {
    let mut config = prog.device_config();
    config.engine = engine;
    let mut dev = Device::new(config);
    let args = prog.setup(&mut dev, 0);
    let launch = prog.launch();
    let t = Instant::now();
    let r = black_box(dev.launch(kernel, &args, &launch, runtime));
    let elapsed = t.elapsed();
    let stats = r.completed_stats().expect("suite launch completes").clone();
    let out = prog
        .read_output(&dev, &args)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    (elapsed, stats, out)
}

/// `{"tree_walk":…,"bytecode":…,"batch":…}` from per-engine values.
fn per_engine(values: &[f64; 3]) -> Json {
    Json::Obj(
        ENGINES
            .iter()
            .zip(values)
            .map(|(e, &v)| (e.name().replace('-', "_"), Json::Num(v)))
            .collect(),
    )
}

/// Cost of the FI hook runtime with no armed fault (what every injection of
/// a campaign pays outside its one armed point) on a fault-free launch of
/// `prog`'s FI build on the batch engine: `[null_ns, fi_ns]` per launch.
/// Both runtimes must leave identical stats and output.
fn fi_runtime_cost(prog: &dyn HostProgram, kernel: &KernelDef) -> [f64; 2] {
    let fi = build(kernel, BuildVariant::Fi).expect("FI build").kernel;
    let launch = |i: usize| {
        let mut null = NullRuntime;
        let mut fi_rt = FiRuntime::new(None);
        let rt: &mut dyn HookRuntime = if i == 0 { &mut null } else { &mut fi_rt };
        program_launch(prog, &fi, ExecEngine::Batch, rt)
    };
    let (_, null_stats, null_out) = launch(0);
    let (_, fi_stats, fi_out) = launch(1);
    assert_eq!(
        null_stats,
        fi_stats,
        "{}: FI runtime stats diverge",
        prog.name()
    );
    assert_eq!(
        null_out,
        fi_out,
        "{}: FI runtime output diverges",
        prog.name()
    );
    best_of_rounds(1, PROGRAM_ROUND, |i| launch(i).0)
}

/// Time every suite program on every engine, and its FI build under the FI
/// runtime; returns the ledger rows and the smallest batch-over-bytecode
/// speedup.
fn suite_matrix() -> (Json, f64) {
    let mut rows = Vec::new();
    let mut worst = f64::INFINITY;
    for prog in all_programs(ProblemScale::Quick) {
        let kernel = prog.build_kernel();
        let run = |e: ExecEngine| program_launch(prog.as_ref(), &kernel, e, &mut NullRuntime);
        let (_, ref_stats, ref_out) = run(ENGINES[0]);
        for &e in &ENGINES[1..] {
            let (_, stats, out) = run(e);
            assert_eq!(ref_stats, stats, "{}: {e} stats diverge", prog.name());
            assert_eq!(ref_out, out, "{}: {e} output diverges", prog.name());
        }
        let best: [f64; 3] = best_of_rounds(1, PROGRAM_ROUND, |i| run(ENGINES[i]).0);
        let speedup = best[1] / best[2];
        worst = worst.min(speedup);
        let [null_ns, fi_ns] = fi_runtime_cost(prog.as_ref(), &kernel);
        let fi_over_null = fi_ns / null_ns;
        eprintln!(
            "{:>12}: tree-walk {:>9.3} ms  bytecode {:>7.3} ms  batch {:>7.3} ms  batch/bytecode {speedup:>5.2}x  FI/null {fi_over_null:>5.2}x",
            prog.name(),
            best[0] / 1e6,
            best[1] / 1e6,
            best[2] / 1e6,
        );
        rows.push((
            prog.name().to_string(),
            Json::obj([
                ("ms_per_launch", per_engine(&best.map(|ns| ns / 1e6))),
                ("batch_over_bytecode", Json::Num(speedup)),
                (
                    "fi_build_ms_per_launch",
                    Json::obj([
                        ("null", Json::Num(null_ns / 1e6)),
                        ("fi", Json::Num(fi_ns / 1e6)),
                    ]),
                ),
                ("fi_over_null", Json::Num(fi_over_null)),
            ]),
        ));
    }
    (Json::Obj(rows.into_iter().collect()), worst)
}

fn main() {
    let args = process_args(&[("--iters", true), ("--out", true)]);
    let iters: u32 = args.get_or("--iters", 200);
    let out_path = args.value("--out");

    let kernel = parse_kernel(
        r#"kernel spin(out: *global f32, x: *global f32, n: i32) {
            let tid: i32 = block_idx_x() * block_dim_x() + thread_idx_x();
            let acc: f32 = 0.0;
            for (i = 0; i < n; i = i + 1) {
                acc = acc + load(x, i) * 1.0001 + 0.5;
            }
            store(out, tid, acc);
        }"#,
    )
    .unwrap();

    // Standing equivalence check: same stats, same memory, every run, across
    // all three engines.
    let (ref_stats, ref_out) = one_launch(&kernel, ENGINES[0]);
    for &e in &ENGINES[1..] {
        let (stats, out) = one_launch(&kernel, e);
        assert_eq!(
            ref_stats,
            stats,
            "{} stats diverge from reference",
            e.name()
        );
        assert_eq!(ref_out, out, "{} output diverges from reference", e.name());
    }

    let best: [f64; 3] = best_of_rounds(iters / ROUNDS, Duration::ZERO, |i| {
        let t = Instant::now();
        black_box(one_launch(&kernel, ENGINES[i]));
        t.elapsed()
    });
    for (i, &e) in ENGINES.iter().enumerate() {
        eprintln!("{:>10}: {:>12.0} ns/launch", e.name(), best[i]);
    }
    // Pairwise speedup matrix: speedups[slow][fast] = ns(slow)/ns(fast).
    let mut pair_rows = Vec::new();
    for (i, &slow) in ENGINES.iter().enumerate() {
        for (j, &fast) in ENGINES.iter().enumerate() {
            if i >= j {
                continue;
            }
            let s = best[i] / best[j];
            eprintln!("{:>10} vs {:<10}: {s:>7.2}x", fast.name(), slow.name());
            pair_rows.push((
                format!(
                    "{}_over_{}",
                    fast.name().replace('-', "_"),
                    slow.name().replace('-', "_")
                ),
                Json::Num(s),
            ));
        }
    }

    let results = Json::Obj(
        ENGINES
            .iter()
            .enumerate()
            .map(|(i, e)| {
                (
                    e.name().replace('-', "_"),
                    Json::obj([("ns_per_launch", Json::Num(best[i]))]),
                )
            })
            .collect(),
    );
    let (programs, worst) = suite_matrix();
    eprintln!("slowest batch/bytecode over the suite: {worst:.2}x");
    let doc = Json::obj([
        ("bench", Json::str("interp_bench")),
        ("kernel", Json::str("spin fp_loop_16x32")),
        ("iters", Json::uint(iters as u64)),
        (
            "program_round_ms",
            Json::uint(PROGRAM_ROUND.as_millis() as u64),
        ),
        ("programs", programs),
        ("min_batch_over_bytecode", Json::Num(worst)),
        ("results", results),
        // Kept for dashboards that read the historical two-engine field:
        // the headline bytecode-over-tree-walk ratio.
        ("speedup", Json::Num(best[0] / best[1])),
        ("speedups", Json::Obj(pair_rows.into_iter().collect())),
        ("stats_identical", Json::Bool(true)),
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
