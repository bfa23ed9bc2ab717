//! `perf` — wall-clock benchmark of fault-injection campaigns and the
//! campaign daemon.
//!
//! ```text
//! perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! perf [--seed N] [--seconds S] [--trace 0|1] [--smoke]   # every workload
//! perf compare <parent runs...> -- <change runs...> [--spec BENCHMARK.json]
//! ```
//!
//! One workload runs per process, so build caches start cold and peak
//! memory is the workload's own; without `--workload` the binary runs each
//! workload as a child process of itself. Human-readable output goes to
//! stderr; the last line of stdout is the result:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`, with every
//! end-to-end metric (`--trace 0`) or every per-layer metric (`--trace 1`).
//! Each run also writes that line, with its workload and seed, to
//! `perfbench/out/runs/`, the input of `perf compare`.

mod compare;
mod preflight;
mod replica;
mod serve_load;
mod stats;
mod trace;
mod traced;
mod workload;

use hauberk_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{measure_campaigns, Size, Workload};

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

impl MetricDef {
    /// Const constructor.
    pub const fn new(name: &'static str, unit: &'static str, better: &'static str) -> Self {
        MetricDef { name, unit, better }
    }
}

/// Every end-to-end metric, reported by every workload.
pub const END_TO_END: &[MetricDef] = &[
    MetricDef::new("injections_per_s", "1/s", "higher"),
    MetricDef::new("setup_s", "s", "lower"),
    MetricDef::new("peak_rss_mb", "MB", "lower"),
];

/// Default measured seconds per run.
const DEFAULT_SECONDS: f64 = 20.0;

/// Daemon warm-up before the measured window.
const SERVE_WARMUP_S: f64 = 1.0;

/// Parsed command line of a benchmark run.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: preflight::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--smoke" => a.smoke = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(a)
}

/// Where runs keep journals, traces and run files.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The result of one run, before it is printed.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(metric, value, samples)`, in declaration order.
    metrics: Vec<(MetricDef, f64, usize)>,
    problems: Vec<String>,
    /// Raw samples behind the metrics, kept in the run file.
    samples: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(d, v, _)| {
                let m = Json::obj([("value", Json::Num(*v)), ("unit", Json::str(d.unit))]);
                (d.name.to_string(), m)
            })
            .collect::<BTreeMap<_, _>>();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::uint(self.attempted)),
            ("failed", Json::uint(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Timed end-to-end run of `w`.
fn measure(
    a: &Args,
    w: Workload,
    pool: Option<serve_load::JobPool>,
    dir: &Path,
) -> Result<Outcome, String> {
    let size = if a.smoke { Size::Tiny } else { Size::Measure };
    let mut samples = Vec::new();
    let (rate, n, setup, attempted, failed, problems) = match pool {
        None => {
            let m = measure_campaigns(w, a.seed, a.seconds, size, dir)?;
            let executed: u64 = m.runs.iter().map(|r| r.executed).sum();
            let wall_ns: u64 = m.runs.iter().map(|r| r.wall_ns).sum();
            let attempted = m.runs.iter().map(|r| r.planned).sum();
            let failed = m.runs.iter().map(|r| r.lost).sum();
            let wall_s: Vec<f64> = m.runs.iter().map(|r| r.wall_ns as f64 / 1e9).collect();
            samples.push(("campaign_s", wall_s));
            let rate = executed as f64 / (wall_ns as f64 / 1e9);
            // The fastest probe: the probes are bimodal with the host's
            // speed (see `measure_campaigns`).
            let setup = m.probes.iter().copied().reduce(f64::min);
            let setup = (setup, m.probes.len());
            samples.push(("setup_s", m.probes));
            (rate, m.runs.len(), setup, attempted, failed, m.problems)
        }
        Some(pool) => {
            let m = serve_load::measure_serve(&pool, SERVE_WARMUP_S, a.seconds)?;
            let rate = m.job_injections.iter().sum::<f64>() / m.window_s;
            // Closed-loop turnaround, on standard error only: campaign
            // workloads have no counterpart, and every workload reports
            // the same end-to-end metrics.
            let t = &m.turnaround_ms;
            let mut line = format!("{}: turnaround over {} jobs:", w.name(), t.len());
            for p in [50.0, 90.0, 99.0] {
                if let Ok(v) = stats::percentile(t, p) {
                    line += &format!(" p{p} = {v:.4} ms");
                }
            }
            eprintln!("{line}");
            samples.push(("done_s", m.done_s.clone()));
            samples.push(("job_injections", m.job_injections.clone()));
            samples.push(("turnaround_ms", m.turnaround_ms.clone()));
            let n = m.turnaround_ms.len();
            // The median probe: daemon start-ups are unimodal, and their
            // fastest is a scheduling outlier.
            let setup = (stats::median(&m.probes), m.probes.len());
            samples.push(("setup_s", m.probes));
            (rate, n, setup, m.requests, m.failed, m.problems)
        }
    };
    if n == 0 || !rate.is_finite() || rate <= 0.0 {
        return Err("no campaign or job finished in the timed window".into());
    }
    let (setup, probes) = setup;
    let values = [
        (rate, n),
        (setup.ok_or("no setup probes")?, probes),
        (peak_rss_mb()?, 1),
    ];
    Ok(Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(d, (v, n))| (*d, v, n))
            .collect(),
        problems,
        samples,
    })
}

/// Run one workload: pre-flight checks, then the timed or traced run.
fn run_workload(a: &Args, w: Workload) -> Result<Outcome, String> {
    let dir = out_dir().join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = (|| {
        let pf = preflight::run(w, a.seed, a.smoke, &dir)
            .map_err(|e| format!("pre-flight check failed: {e}"))?;
        eprintln!(
            "{}: pre-flight checks passed (summary digest {}, {} work cycles)",
            w.name(),
            pf.digest,
            pf.sim_cycles
        );
        if !a.trace {
            return measure(a, w, pf.pool, &dir);
        }
        let size = if a.smoke { Size::Tiny } else { Size::Traced };
        let t = traced::run(w, a.seed, size, pf.pool, &dir)?;
        eprint!("{}", t.report);
        let path = out_dir().join(format!("trace-{}-{}.jsonl", w.name(), a.seed));
        std::fs::write(&path, &t.jsonl).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
        Ok(Outcome {
            correct: t.problems.is_empty(),
            attempted: t.injections,
            failed: 0,
            metrics: traced::PER_LAYER
                .iter()
                .zip(t.values)
                .map(|(d, (_, v))| (*d, v, 1))
                .collect(),
            problems: t.problems,
            samples: Vec::new(),
        })
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Run `w` in this process, print the result line and write the run file.
fn run_one(a: &Args, w: Workload) -> ExitCode {
    let out = match run_workload(a, w) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: {e}", w.name());
            return ExitCode::from(2);
        }
    };
    for p in &out.problems {
        eprintln!("{}: CHECK FAILED: {p}", w.name());
    }
    for (d, v, n) in &out.metrics {
        eprintln!(
            "{:<14} {:<34} {:>14.4} {:<10} n={n}",
            w.name(),
            d.name,
            v,
            d.unit
        );
    }
    let line = out.to_json().to_string();
    let finished_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let record = Json::obj([
        ("workload", Json::str(w.name())),
        ("seed", Json::uint(a.seed)),
        ("finished_ms", Json::uint(finished_ms)),
        ("trace", Json::Bool(a.trace)),
        ("seconds", Json::Num(a.seconds)),
        ("result", out.to_json()),
        (
            "samples",
            Json::Obj(
                out.samples
                    .iter()
                    .map(|(k, v)| {
                        (
                            k.to_string(),
                            Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let runs = out_dir().join("runs");
    let path = runs.join(format!(
        "{}-seed{}-trace{}-{}.json",
        w.name(),
        a.seed,
        u8::from(a.trace),
        std::process::id()
    ));
    if let Err(e) =
        std::fs::create_dir_all(&runs).and_then(|()| std::fs::write(&path, format!("{record}\n")))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }
    println!("{line}");
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload as a child process and print one table.
fn run_all(a: &Args, argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate the perf binary: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    let mut table = Vec::new();
    for w in Workload::ALL {
        let out = std::process::Command::new(&exe)
            .args(argv)
            .args(["--workload", w.name()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let line = out.as_ref().ok().and_then(|o| {
            let stdout = String::from_utf8_lossy(&o.stdout).into_owned();
            stdout.lines().last().map(str::to_string)
        });
        let success = out.as_ref().is_ok_and(|o| o.status.success());
        ok &= success;
        table.push((w, success, line.and_then(|l| json::parse(&l).ok())));
    }
    eprintln!(
        "\nseed {} ({}):",
        a.seed,
        if a.trace { "traced" } else { "end to end" }
    );
    for (w, success, doc) in &table {
        let metrics = doc.as_ref().and_then(|d| d.get("metrics"));
        let Some(Json::Obj(m)) = metrics else {
            eprintln!("  {:<14} FAILED (no result)", w.name());
            continue;
        };
        let cells: Vec<String> = m
            .iter()
            .map(|(k, v)| {
                let x = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                format!("{k}={x:.4}")
            })
            .collect();
        let status = if *success { "ok" } else { "FAILED" };
        eprintln!("  {:<14} {status:<6} {}", w.name(), cells.join(" "));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::main(&argv[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perf compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    match a.workload {
        Some(w) => run_one(&a, w),
        None => run_all(&a, &argv),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_arguments_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "pns-ckpt",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::PnsCkpt));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 10.0, true, false)
        );
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--bogus"])).is_err());
    }

    /// `BENCHMARK.json` must declare exactly the metrics and workloads the
    /// binary reports, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_code() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).unwrap();
        let section = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let f = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (f("name"), f("unit"), f("better"))
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect()
        };
        assert_eq!(section("end_to_end"), ours(END_TO_END));
        assert_eq!(section("per_layer"), ours(traced::PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
    }

    /// `--smoke` end to end: every workload, timed and traced, on tiny plans.
    #[test]
    fn smoke_runs_every_workload() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let a = Args {
                    workload: Some(w),
                    seed: preflight::DEFAULT_SEED,
                    seconds: 0.5,
                    trace,
                    smoke: true,
                };
                let out = run_workload(&a, w).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                assert!(
                    out.correct,
                    "{} trace={trace}: {:?}",
                    w.name(),
                    out.problems
                );
                let want = if trace {
                    traced::PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(out.metrics.len(), want);
                assert!(
                    out.metrics.iter().all(|(_, v, _)| v.is_finite()),
                    "{}: {:?}",
                    w.name(),
                    out.metrics
                );
            }
        }
    }
}
