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
//! ```text
//! interp_bench [--iters N] [--out PATH]
//! ```

use hauberk::program::HostProgram;
use hauberk_bench::cli::process_args;
use hauberk_benchmarks::{all_programs, ProblemScale};
use hauberk_kir::kernel::KernelDef;
use hauberk_kir::parser::parse_kernel;
use hauberk_kir::{PrimTy, Value};
use hauberk_sim::{Device, DeviceConfig, ExecEngine, ExecStats, Launch, NullRuntime};
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

/// Fastest mean ns per call of each engine over [`ROUNDS`] rounds. Within a
/// round the engines take turns call by call (so they share any machine
/// drift) for at least `per_round` turns, and until one engine has spent
/// `min_round`.
fn best_of_rounds(
    per_round: u32,
    min_round: Duration,
    mut timed: impl FnMut(ExecEngine) -> Duration,
) -> [f64; 3] {
    let mut best = [f64::INFINITY; ENGINES.len()];
    for _ in 0..ROUNDS {
        let mut total = [Duration::ZERO; ENGINES.len()];
        let mut calls = 0u32;
        while calls < per_round.max(1) || total.iter().all(|&t| t < min_round) {
            for (i, &e) in ENGINES.iter().enumerate() {
                total[i] += timed(e);
            }
            calls += 1;
        }
        for (b, t) in best.iter_mut().zip(total) {
            *b = b.min(t.as_nanos() as f64 / calls as f64);
        }
    }
    best
}

/// One fault-free launch of `prog`'s baseline kernel on `engine`: the
/// launch's wall time (setup and read-back excluded), stats and output.
fn program_launch(
    prog: &dyn HostProgram,
    kernel: &KernelDef,
    engine: ExecEngine,
) -> (Duration, ExecStats, Vec<u64>) {
    let mut config = prog.device_config();
    config.engine = engine;
    let mut dev = Device::new(config);
    let args = prog.setup(&mut dev, 0);
    let launch = prog.launch();
    let t = Instant::now();
    let r = black_box(dev.launch(kernel, &args, &launch, &mut NullRuntime));
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

/// Time every suite program on every engine; returns the ledger rows and
/// the smallest batch-over-bytecode speedup.
fn suite_matrix() -> (Json, f64) {
    let mut rows = Vec::new();
    let mut worst = f64::INFINITY;
    for prog in all_programs(ProblemScale::Quick) {
        let kernel = prog.build_kernel();
        let (_, ref_stats, ref_out) = program_launch(prog.as_ref(), &kernel, ENGINES[0]);
        for &e in &ENGINES[1..] {
            let (_, stats, out) = program_launch(prog.as_ref(), &kernel, e);
            assert_eq!(ref_stats, stats, "{}: {e} stats diverge", prog.name());
            assert_eq!(ref_out, out, "{}: {e} output diverges", prog.name());
        }
        let best = best_of_rounds(1, PROGRAM_ROUND, |e| {
            program_launch(prog.as_ref(), &kernel, e).0
        });
        let speedup = best[1] / best[2];
        worst = worst.min(speedup);
        eprintln!(
            "{:>12}: tree-walk {:>9.3} ms  bytecode {:>7.3} ms  batch {:>7.3} ms  batch/bytecode {speedup:>5.2}x",
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

    let best = best_of_rounds(iters / ROUNDS, Duration::ZERO, |e| {
        let t = Instant::now();
        black_box(one_launch(&kernel, e));
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
