//! `interp_bench` — measure every engine setting (the tree walker, and the
//! VM with regions off, `bytecode`, and on, `batch`) on the simulator's
//! standard hot-path kernel (an FP loop, `spin`) and on a fault-free launch
//! of every suite program at quick scale, and record the pairwise speedups
//! per launch.
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
//! The profiling launch every campaign starts with is timed too: the
//! profiler build on the batch engine under `ProfilerRuntime`, recorded per
//! suite program as `profile_over_golden` (over the batch launch of the
//! plain kernel). Its execution records (`sorted_execs`) must be identical
//! on every engine.
//!
//! The telemetry layer is priced on the spin kernel (batch engine): the
//! launch with telemetry disabled, with a [`NullSink`] (span events only),
//! with a `NullSink` plus hot per-hook events, and with an unbounded
//! [`MemorySink`], each as an overhead over the disabled launch; and the
//! tracing-span layer alone against an enabled sink that discards every
//! event, `spans_on` against the `with_spans(false)` early-out
//! (`span_overhead_pct`). Every mode must leave the stats and output of
//! the disabled launch unchanged.
//!
//! Every time is the median and `[q1, q3]` of the per-round mean over
//! [`ROUNDS`] interleaved rounds. A suite program's six contenders (three
//! engines, the FI build under each runtime, the profiler build) share
//! every round, so host drift shows as spread rather than moving one
//! contender alone; the same holds for the telemetry modes. An overhead is
//! the per-round ratio to the baseline in the same round, reported as
//! within noise when its `[q1, q3]` spans 0.
//!
//! ```text
//! interp_bench [--iters N] [--out PATH]
//! ```

use hauberk::builds::{build, BuildVariant, FtOptions};
use hauberk::program::HostProgram;
use hauberk::runtime::{FiRuntime, ProfilerRuntime};
use hauberk_bench::cli::process_args;
use hauberk_bench::report::quartiles;
use hauberk_benchmarks::{all_programs, ProblemScale};
use hauberk_kir::kernel::KernelDef;
use hauberk_kir::parser::parse_kernel;
use hauberk_kir::{PrimTy, Value};
use hauberk_sim::{Device, DeviceConfig, ExecEngine, ExecStats, HookRuntime, Launch, NullRuntime};
use hauberk_telemetry::json::Json;
use hauberk_telemetry::{Event, MemorySink, NullSink, Telemetry, TelemetrySink};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ENGINES: [ExecEngine; 3] = ExecEngine::ALL;

/// Interleaved rounds per measurement.
const ROUNDS: u32 = 9;

/// One launch of the spin kernel on `engine` under `tele`: stats and output.
fn one_launch(kernel: &KernelDef, engine: ExecEngine, tele: &Telemetry) -> (ExecStats, Vec<f32>) {
    let mut config = DeviceConfig::small_gpu();
    config.engine = engine;
    let mut dev = Device::new(config).with_telemetry(tele.clone());
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

/// Median and quartiles of one contender's per-round mean, in ns per call.
#[derive(Clone, Copy)]
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Spread {
    /// Median and quartiles of per-round values.
    fn of(rounds: &[f64]) -> Self {
        let [q1, median, q3] = quartiles(&mut rounds.to_vec());
        Spread { q1, median, q3 }
    }

    /// `{"median":…,"q1":…,"q3":…}`, each divided by `unit`.
    fn json(self, unit: f64) -> Json {
        Json::obj([
            ("median", Json::Num(self.median / unit)),
            ("q1", Json::Num(self.q1 / unit)),
            ("q3", Json::Num(self.q3 / unit)),
        ])
    }

    /// Whether an overhead's `[q1, q3]` spans 0.
    fn within_noise(self) -> bool {
        self.q1 <= 0.0 && 0.0 <= self.q3
    }
}

/// The per-round mean, in ns per call, of each of `N` contenders (an
/// engine, a hook runtime or a telemetry mode) over [`ROUNDS`] rounds.
/// Within a round the contenders take turns call by call (so they share
/// any machine drift) for at least `per_round` turns, and until one
/// contender has spent `min_round`.
fn interleaved_rounds<const N: usize>(
    per_round: u32,
    min_round: Duration,
    mut timed: impl FnMut(usize) -> Duration,
) -> [Vec<f64>; N] {
    let mut means: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    for _ in 0..ROUNDS {
        let mut total = [Duration::ZERO; N];
        let mut calls = 0u32;
        while calls < per_round.max(1) || total.iter().all(|&t| t < min_round) {
            for (i, t) in total.iter_mut().enumerate() {
                *t += timed(i);
            }
            calls += 1;
        }
        for (m, t) in means.iter_mut().zip(total) {
            m.push(t.as_nanos() as f64 / calls as f64);
        }
    }
    means
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

/// `{"tree_walk":…,"bytecode":…,"batch":…}` from per-engine spreads.
fn per_engine(spreads: &[Spread], unit: f64) -> Json {
    Json::Obj(
        ENGINES
            .iter()
            .zip(spreads)
            .map(|(e, s)| (e.name().replace('-', "_"), s.json(unit)))
            .collect(),
    )
}

/// Time every suite program on every engine, its FI build on the batch
/// engine under `NullRuntime` and the FI runtime with no armed fault (what
/// every injection of a campaign pays outside its one armed point), and its
/// profiler build on the batch engine under `ProfilerRuntime` (the
/// profiling launch of a campaign's setup), all in the same interleaved
/// rounds; returns the ledger rows and the smallest batch-over-bytecode
/// median speedup.
fn suite_matrix() -> (Json, f64) {
    let mut rows = Vec::new();
    let mut worst = f64::INFINITY;
    for prog in all_programs(ProblemScale::Quick) {
        let kernel = prog.build_kernel();
        let fi = build(&kernel, BuildVariant::Fi).expect("FI build").kernel;
        let profiler = build(&kernel, BuildVariant::Profiler(FtOptions::default()))
            .expect("profiler build")
            .kernel;
        // Contenders 0..3 run `kernel` on each engine; 3 and 4 run the FI
        // build on batch under `NullRuntime` and the unarmed FI runtime; 5
        // runs the profiler build on batch under a fresh profiler.
        let run = |i: usize| {
            let p = prog.as_ref();
            match i {
                0..=2 => program_launch(p, &kernel, ENGINES[i], &mut NullRuntime),
                3 => program_launch(p, &fi, ExecEngine::Batch, &mut NullRuntime),
                4 => program_launch(p, &fi, ExecEngine::Batch, &mut FiRuntime::new(None)),
                _ => program_launch(
                    p,
                    &profiler,
                    ExecEngine::Batch,
                    &mut ProfilerRuntime::default(),
                ),
            }
        };
        let name = prog.name();
        let (_, ref_stats, ref_out) = run(0);
        for (i, e) in ENGINES.iter().enumerate().skip(1) {
            let (_, stats, out) = run(i);
            assert_eq!(ref_stats, stats, "{name}: {e} stats diverge");
            assert_eq!(ref_out, out, "{name}: {e} output diverges");
        }
        let (_, null_stats, null_out) = run(3);
        let (_, fi_stats, fi_out) = run(4);
        assert_eq!(null_stats, fi_stats, "{name}: FI runtime stats diverge");
        assert_eq!(null_out, fi_out, "{name}: FI runtime output diverges");
        let profile_on = |e: ExecEngine| {
            let mut pr = ProfilerRuntime::default();
            program_launch(prog.as_ref(), &profiler, e, &mut pr);
            pr.sorted_execs()
        };
        let ref_execs = profile_on(ENGINES[0]);
        assert!(
            !ref_execs.is_empty(),
            "{name}: the profiler recorded nothing"
        );
        for &e in &ENGINES[1..] {
            assert_eq!(ref_execs, profile_on(e), "{name}: {e} profile diverges");
        }

        let spread =
            interleaved_rounds::<6>(1, PROGRAM_ROUND, |i| run(i).0).map(|r| Spread::of(&r));
        let speedup = spread[1].median / spread[2].median;
        worst = worst.min(speedup);
        let fi_over_null = spread[4].median / spread[3].median;
        let profile_over_golden = spread[5].median / spread[2].median;
        let ms = |i: usize| spread[i].median / 1e6;
        eprintln!(
            "{name:>12}: tree-walk {:>9.3} ms  bytecode {:>7.3} ms  batch {:>7.3} ms [{:.3}, {:.3}]  batch/bytecode {speedup:>5.2}x  FI/null {fi_over_null:>5.2}x  profile/golden {profile_over_golden:>5.2}x",
            ms(0),
            ms(1),
            ms(2),
            spread[2].q1 / 1e6,
            spread[2].q3 / 1e6,
        );
        rows.push((
            name.to_string(),
            Json::obj([
                ("ms_per_launch", per_engine(&spread[..3], 1e6)),
                ("batch_over_bytecode", Json::Num(speedup)),
                (
                    "fi_build_ms_per_launch",
                    Json::obj([("null", spread[3].json(1e6)), ("fi", spread[4].json(1e6))]),
                ),
                ("fi_over_null", Json::Num(fi_over_null)),
                ("profile_ms_per_launch", spread[5].json(1e6)),
                ("profile_over_golden", Json::Num(profile_over_golden)),
            ]),
        ));
    }
    (Json::Obj(rows.into_iter().collect()), worst)
}

/// A sink that reports itself enabled but discards every event: the span
/// path runs for real (guard bookkeeping, attribute strings, emit call)
/// without measuring any sink's own storage cost.
#[derive(Debug)]
struct EnabledNullSink;

impl TelemetrySink for EnabledNullSink {
    fn emit(&self, event: &Event) {
        black_box(event);
    }
}

/// `+1.23% [+0.50, +2.10]`, with "within noise" when the interval spans 0.
fn describe(pct: Spread) -> String {
    let noise = if pct.within_noise() {
        " (within noise)"
    } else {
        ""
    };
    format!(
        "{:+.2}% [{:+.2}, {:+.2}]{noise}",
        pct.median, pct.q1, pct.q3
    )
}

/// Price the telemetry layer on the spin kernel (batch engine): every
/// mode's ns/launch and its overhead over `disabled`, plus the span layer
/// alone (`spans_on` over `spans_off`). Each mode must reproduce the
/// disabled launch's stats and output.
fn telemetry_section(kernel: &KernelDef, per_round: u32) -> Json {
    let modes = [
        ("disabled", Telemetry::disabled()),
        ("null_sink", Telemetry::new(Arc::new(NullSink))),
        (
            "null_sink_hot",
            Telemetry::new(Arc::new(NullSink)).with_hot_events(true),
        ),
        (
            "spans_off",
            Telemetry::new(Arc::new(EnabledNullSink)).with_spans(false),
        ),
        ("spans_on", Telemetry::new(Arc::new(EnabledNullSink))),
        (
            "memory_sink",
            Telemetry::new(Arc::new(MemorySink::unbounded())),
        ),
    ];
    let (ref_stats, ref_out) = one_launch(kernel, ExecEngine::Batch, &modes[0].1);
    for (name, tele) in &modes[1..] {
        let (stats, out) = one_launch(kernel, ExecEngine::Batch, tele);
        assert_eq!(ref_stats, stats, "telemetry mode {name} changes the stats");
        assert_eq!(ref_out, out, "telemetry mode {name} changes the output");
    }

    let rounds = interleaved_rounds::<6>(per_round, Duration::ZERO, |i| {
        let t = Instant::now();
        black_box(one_launch(kernel, ExecEngine::Batch, &modes[i].1));
        t.elapsed()
    });
    // Per-round overhead of mode `i` over mode `base`, in percent.
    let overhead = |i: usize, base: usize| {
        let pairs = rounds[i].iter().zip(&rounds[base]);
        Spread::of(
            &pairs
                .map(|(ns, b)| (ns / b - 1.0) * 100.0)
                .collect::<Vec<_>>(),
        )
    };
    let mut entries = Vec::new();
    for (i, (name, _)) in modes.iter().enumerate() {
        let ns = Spread::of(&rounds[i]);
        let pct = overhead(i, 0);
        eprintln!(
            "{name:>14}: {:>12.0} ns/launch [{:.0}, {:.0}]  overhead {}",
            ns.median,
            ns.q1,
            ns.q3,
            describe(pct)
        );
        entries.push((
            name.to_string(),
            Json::obj([
                ("ns_per_launch", ns.json(1.0)),
                ("overhead_pct", pct.json(1.0)),
                ("within_noise", Json::Bool(pct.within_noise())),
            ]),
        ));
    }
    let span = overhead(4, 3);
    eprintln!("span overhead (spans_on vs spans_off): {}", describe(span));
    Json::obj([
        ("engine", Json::str(ExecEngine::Batch.name())),
        ("modes", Json::Obj(entries.into_iter().collect())),
        ("span_overhead_pct", span.json(1.0)),
        ("span_within_noise", Json::Bool(span.within_noise())),
    ])
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
    // every engine setting.
    let disabled = Telemetry::disabled();
    let (ref_stats, ref_out) = one_launch(&kernel, ENGINES[0], &disabled);
    for &e in &ENGINES[1..] {
        let (stats, out) = one_launch(&kernel, e, &disabled);
        assert_eq!(
            ref_stats,
            stats,
            "{} stats diverge from reference",
            e.name()
        );
        assert_eq!(ref_out, out, "{} output diverges from reference", e.name());
    }

    let spread = interleaved_rounds::<3>(iters / ROUNDS, Duration::ZERO, |i| {
        let t = Instant::now();
        black_box(one_launch(&kernel, ENGINES[i], &disabled));
        t.elapsed()
    })
    .map(|r| Spread::of(&r));
    for (e, s) in ENGINES.iter().zip(&spread) {
        eprintln!(
            "{:>10}: {:>12.0} ns/launch [{:.0}, {:.0}]",
            e.name(),
            s.median,
            s.q1,
            s.q3
        );
    }
    let median = spread.map(|s| s.median);
    // Pairwise speedup matrix of the medians:
    // speedups[slow][fast] = ns(slow)/ns(fast).
    let mut pair_rows = Vec::new();
    for (i, &slow) in ENGINES.iter().enumerate() {
        for (j, &fast) in ENGINES.iter().enumerate() {
            if i >= j {
                continue;
            }
            let s = median[i] / median[j];
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
            .zip(&spread)
            .map(|(e, s)| {
                (
                    e.name().replace('-', "_"),
                    Json::obj([("ns_per_launch", s.json(1.0))]),
                )
            })
            .collect(),
    );
    let telemetry = telemetry_section(&kernel, iters / ROUNDS);
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
        ("rounds", Json::uint(ROUNDS as u64)),
        ("min_batch_over_bytecode", Json::Num(worst)),
        ("results", results),
        // Kept for dashboards that read the historical two-engine field:
        // the headline bytecode-over-tree-walk ratio.
        ("speedup", Json::Num(median[0] / median[1])),
        ("speedups", Json::Obj(pair_rows.into_iter().collect())),
        ("stats_identical", Json::Bool(true)),
        ("telemetry", telemetry),
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
