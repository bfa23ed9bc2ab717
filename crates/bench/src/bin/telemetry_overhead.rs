//! `telemetry_overhead` — measure what the telemetry layer costs the
//! simulator hot path.
//!
//! Runs the same FP-loop launch (the `sim_throughput` bench kernel) with
//! telemetry disabled, with a [`NullSink`] (span events only), with a
//! `NullSink` plus hot per-hook events, and with an unbounded
//! [`MemorySink`], and reports ns/launch plus overhead relative to the
//! disabled baseline.
//!
//! Two additional modes isolate the tracing-span layer against an *enabled*
//! sink that discards everything: `spans_on` builds and emits a launch span
//! per run, `spans_off` takes the `with_spans(false)` early-out. Their ratio
//! is reported as `span_overhead_pct` (target: < 1%).
//!
//! The modes take turns batch by batch over interleaved rounds, so they
//! share the machine's drift. Every figure is the median and `[q1, q3]`
//! over the rounds; an overhead is the per-round ratio to the baseline's
//! batch in the same round. An overhead whose `[q1, q3]` spans 0 is
//! reported as within noise: the host's spread is larger than the cost.
//!
//! ```text
//! telemetry_overhead [--iters N] [--out PATH]
//! ```

use hauberk_bench::cli::process_args;
use hauberk_bench::report::{quartiles, spread_json};
use hauberk_kir::kernel::KernelDef;
use hauberk_kir::parser::parse_kernel;
use hauberk_kir::{PrimTy, Value};
use hauberk_sim::{Device, Launch, NullRuntime};
use hauberk_telemetry::json::Json;
use hauberk_telemetry::{Event, MemorySink, NullSink, Telemetry, TelemetrySink};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

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

fn one_launch(kernel: &KernelDef, tele: &Telemetry) {
    let mut dev = Device::small_gpu().with_telemetry(tele.clone());
    let out = dev.alloc(PrimTy::F32, 512);
    let x = dev.alloc(PrimTy::F32, 256);
    black_box(dev.launch(
        kernel,
        &[Value::Ptr(out), Value::Ptr(x), Value::I32(256)],
        &Launch::grid1d(16, 32),
        &mut NullRuntime,
    ));
}

/// Time one batch of launches and return mean ns/launch.
fn batch(kernel: &KernelDef, tele: &Telemetry, iters: u32) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        one_launch(kernel, tele);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// Whether an overhead's `[q1, q3]` spans 0.
fn within_noise([q1, _, q3]: [f64; 3]) -> bool {
    q1 <= 0.0 && 0.0 <= q3
}

/// `+1.23% [+0.50, +2.10]`, with "within noise" when the interval spans 0.
fn describe(pct: [f64; 3]) -> String {
    let [q1, median, q3] = pct;
    let noise = if within_noise(pct) {
        " (within noise)"
    } else {
        ""
    };
    format!("{median:+.2}% [{q1:+.2}, {q3:+.2}]{noise}")
}

fn main() {
    let args = process_args(&[("--iters", true), ("--out", true)]);
    let iters: u32 = args.get_or("--iters", 300);
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

    let memory = MemorySink::unbounded();
    let modes: Vec<(&str, Telemetry)> = vec![
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
        ("memory_sink", Telemetry::new(Arc::new(memory))),
    ];

    // Interleave the modes round-robin: back-to-back batches see the same
    // machine state, so slow drift (thermal, scheduler) shows as spread
    // instead of biasing whichever mode ran last.
    const ROUNDS: u32 = 11;
    let per_round = (iters / ROUNDS).max(1);
    for (_, tele) in &modes {
        one_launch(&kernel, tele); // warm up allocator + caches once per mode
    }
    let mut rounds: Vec<Vec<f64>> = vec![Vec::new(); modes.len()];
    for _ in 0..ROUNDS {
        for (i, (_, tele)) in modes.iter().enumerate() {
            rounds[i].push(batch(&kernel, tele, per_round));
        }
    }
    // Per-round overhead of mode `i` over mode `base`, in percent.
    let overhead = |i: usize, base: usize| -> Vec<f64> {
        let pairs = rounds[i].iter().zip(&rounds[base]);
        pairs.map(|(ns, b)| (ns / b - 1.0) * 100.0).collect()
    };
    let mode_of = |name: &str| {
        let i = modes.iter().position(|(n, _)| *n == name);
        i.expect("a mode of the table above")
    };
    let mut entries = Vec::new();
    for (i, (name, _)) in modes.iter().enumerate() {
        let ns = quartiles(&mut rounds[i].clone());
        let pct = quartiles(&mut overhead(i, 0));
        eprintln!(
            "{name:>14}: {:>12.0} ns/launch [{:.0}, {:.0}]  overhead {}",
            ns[1],
            ns[0],
            ns[2],
            describe(pct)
        );
        entries.push((
            name.to_string(),
            Json::obj([
                ("ns_per_launch", spread_json(ns)),
                ("overhead_pct", spread_json(pct)),
                ("within_noise", Json::Bool(within_noise(pct))),
            ]),
        ));
    }
    let span = quartiles(&mut overhead(mode_of("spans_on"), mode_of("spans_off")));
    eprintln!("span overhead (spans_on vs spans_off): {}", describe(span));
    let doc = Json::obj([
        ("bench", Json::str("telemetry_overhead")),
        ("kernel", Json::str("spin fp_loop_16x32")),
        ("iters", Json::uint(iters as u64)),
        ("results", Json::Obj(entries.into_iter().collect())),
        ("rounds", Json::uint(ROUNDS as u64)),
        ("span_overhead_pct", spread_json(span)),
        ("span_within_noise", Json::Bool(within_noise(span))),
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
