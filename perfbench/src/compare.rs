//! `perf compare`: label each (metric, workload) of a change against its
//! parent.
//!
//! The rule is the one a performance claim must meet on a shared, noisy
//! machine. Runs of the two sides are paired by seed.
//!
//! * **improved**: the change wins at least 9 of 10 pairs (ties count for
//!   neither side) and its median is better than the parent's by more than
//!   the parent's interquartile range;
//! * **regressed**: the mirror of improved (the parent wins at least 9 of
//!   10 pairs and its median is better by more than its interquartile
//!   range), or the change's median is worse than the parent's by more than
//!   the metric's bound (a share of the parent's median). A steady slowdown
//!   smaller than the bound is thus caught by the pairs;
//! * **unresolved**: the parent's own spread is wider than the bound, so
//!   "unchanged" cannot be shown, and not every change run beats every
//!   parent run;
//! * **unchanged**: otherwise.

use crate::stats::{median, quartiles};
use hauberk_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One benchmark run, as recorded in its run file.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Run seed.
    pub seed: u64,
    /// When the run finished (Unix milliseconds; 0 when not recorded).
    pub finished_ms: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// Verdict for one (metric, workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// Met the improvement rule.
    Improved,
    /// Within the bound (or, without a bound, not clearly worse).
    Unchanged,
    /// Worse than the bound allows.
    Regressed,
    /// The parent's spread is wider than the bound.
    Unresolved,
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Label::Improved => "improved",
            Label::Unchanged => "unchanged",
            Label::Regressed => "regressed",
            Label::Unresolved => "unresolved",
        })
    }
}

/// Label one metric from paired values (`parent[i]` and `change[i]` ran
/// the same seed).
pub fn label(parent: &[f64], change: &[f64], m: &Declared) -> Label {
    let better = |a: f64, b: f64| if m.higher_is_better { a > b } else { a < b };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let losses = (0..pairs).filter(|&i| better(parent[i], change[i])).count();
    let (Some(pm), Some(cm)) = (median(parent), median(change)) else {
        return Label::Unresolved;
    };
    let iqr = quartiles(parent).map_or(0.0, |(q1, q3)| q3 - q1);
    let clear = |n: usize| pairs > 0 && n * 10 >= pairs * 9 && (cm - pm).abs() > iqr;
    if clear(wins) && better(cm, pm) {
        return Label::Improved;
    }
    if clear(losses) && better(pm, cm) {
        return Label::Regressed;
    }
    let Some(bound) = m.bound else {
        return Label::Unchanged;
    };
    let worse_share = if better(pm, cm) {
        (cm - pm).abs() / pm.abs()
    } else {
        0.0
    };
    let all_better = parent.iter().all(|&p| change.iter().all(|&c| better(c, p)));
    if worse_share > bound {
        Label::Regressed
    } else if iqr / pm.abs() > bound && !all_better {
        Label::Unresolved
    } else {
        Label::Unchanged
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Verdict.
    pub label: Label,
    /// Parent median and quartiles.
    pub parent: (f64, f64, f64),
    /// Change median and quartiles.
    pub change: (f64, f64, f64),
    /// Pairs compared.
    pub pairs: usize,
}

fn summary(v: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
    (median(v).unwrap_or(f64::NAN), q1, q3)
}

/// Compare every declared metric on every workload both sides ran. Runs
/// are paired by seed: each side's runs of a workload are sorted by seed,
/// runs of one seed in the order they finished, and zipped, so interleaved
/// runs of one seed pair up with their neighbours.
pub fn compare(parent: &[Run], change: &[Run], declared: &[Declared]) -> Vec<Row> {
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut rows = Vec::new();
    for w in workloads {
        let (p, c) = (in_pair_order(parent, w), in_pair_order(change, w));
        for m in declared {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&m.name).copied())
                    .collect()
            };
            let (pv, cv) = (values(&p), values(&c));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            rows.push(Row {
                workload: w.to_string(),
                metric: m.name.clone(),
                label: label(&pv, &cv, m),
                parent: summary(&pv),
                change: summary(&cv),
                pairs: pv.len().min(cv.len()),
            });
        }
    }
    rows
}

/// The runs of workload `w`, by seed and then by when they finished.
fn in_pair_order(runs: &[Run], w: &str) -> Vec<Run> {
    let mut v: Vec<Run> = runs.iter().filter(|r| r.workload == w).cloned().collect();
    v.sort_by_key(|r| (r.seed, r.finished_ms));
    v
}

/// Every metric `BENCHMARK.json` declares, with direction and bound.
pub fn declared(benchmark_json: &str) -> Result<Vec<Declared>, String> {
    let doc = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for m in doc.get(section).and_then(Json::as_arr).unwrap_or_default() {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            out.push(Declared {
                name: name.to_string(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m.get("bound").and_then(Json::as_f64),
            });
        }
    }
    Ok(out)
}

/// Parse one run file (see `main.rs`: workload, seed and the result line).
pub fn parse_run(text: &str) -> Result<Run, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let field = |k: &str| doc.get(k).ok_or(format!("run file without `{k}`"));
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(m)) = field("result")?.get("metrics") {
        for (name, v) in m {
            if let Some(x) = v.get("value").and_then(Json::as_f64) {
                metrics.insert(name.clone(), x);
            }
        }
    }
    Ok(Run {
        workload: field("workload")?
            .as_str()
            .ok_or("`workload` is not a string")?
            .to_string(),
        seed: field("seed")?.as_u64().ok_or("`seed` is not an integer")?,
        finished_ms: doc.get("finished_ms").and_then(Json::as_u64).unwrap_or(0),
        metrics,
    })
}

/// Load runs from files and from every `.json` file in directories.
pub fn load(paths: &[PathBuf]) -> Result<Vec<Run>, String> {
    let mut files = Vec::new();
    for p in paths {
        if p.is_dir() {
            let entries = std::fs::read_dir(p).map_err(|e| format!("{}: {e}", p.display()))?;
            let mut found: Vec<PathBuf> = entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|f| f.extension().is_some_and(|x| x == "json"))
                .collect();
            found.sort();
            files.extend(found);
        } else {
            files.push(p.clone());
        }
    }
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            parse_run(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

/// `perf compare <parent runs...> -- <change runs...> [--spec FILE]`:
/// print one row per (workload, metric). Exits 1 when any end-to-end
/// metric regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut sides: [Vec<PathBuf>; 2] = Default::default();
    let mut side = 0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--" => side = 1,
            "--spec" => spec = it.next().ok_or("--spec needs a file")?.into(),
            _ => sides[side].push(Path::new(a).to_path_buf()),
        }
    }
    if sides.iter().any(Vec::is_empty) {
        return Err(
            "usage: perf compare <parent runs...> -- <change runs...> [--spec FILE]".into(),
        );
    }
    let text = std::fs::read_to_string(&spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let declared = declared(&text)?;
    let rows = compare(&load(&sides[0])?, &load(&sides[1])?, &declared);
    println!(
        "{:<14} {:<34} {:<10} {:>34} {:>34} pairs",
        "workload", "metric", "label", "parent median [q1, q3]", "change median [q1, q3]"
    );
    let fmt = |(m, a, b): (f64, f64, f64)| format!("{m:.4} [{a:.4}, {b:.4}]");
    let mut regressed = false;
    for r in &rows {
        println!(
            "{:<14} {:<34} {:<10} {:>34} {:>34} {}",
            r.workload,
            r.metric,
            r.label,
            fmt(r.parent),
            fmt(r.change),
            r.pairs
        );
        let bounded = declared
            .iter()
            .any(|d| d.name == r.metric && d.bound.is_some());
        regressed |= bounded && r.label == Label::Regressed;
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: Option<f64>) -> Declared {
        Declared {
            name: "latency_ms".into(),
            higher_is_better: false,
            bound,
        }
    }

    fn higher(bound: Option<f64>) -> Declared {
        Declared {
            name: "injections_per_s".into(),
            higher_is_better: true,
            bound,
        }
    }

    /// Ten runs around `center` with a ±1% wobble.
    fn runs(center: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + (i as f64 - 4.5) / 450.0))
            .collect()
    }

    #[test]
    fn same_code_is_unchanged() {
        let p = runs(100.0);
        let c: Vec<f64> = p.iter().rev().copied().collect();
        assert_eq!(label(&p, &c, &lower(Some(0.05))), Label::Unchanged);
        assert_eq!(label(&p, &c, &higher(Some(0.05))), Label::Unchanged);
        assert_eq!(label(&p, &c, &higher(None)), Label::Unchanged);
    }

    #[test]
    fn clear_gain_is_improved_in_either_direction() {
        let p = runs(100.0);
        assert_eq!(label(&p, &runs(80.0), &lower(Some(0.05))), Label::Improved);
        assert_eq!(
            label(&p, &runs(120.0), &higher(Some(0.05))),
            Label::Improved
        );
        assert_eq!(label(&p, &runs(120.0), &higher(None)), Label::Improved);
    }

    #[test]
    fn gain_inside_the_parent_spread_is_not_improved() {
        // Wins every pair by 0.5%, but the parent's IQR is about 1%.
        let p = runs(100.0);
        let c: Vec<f64> = p.iter().map(|v| v * 0.995).collect();
        assert_eq!(label(&p, &c, &lower(Some(0.05))), Label::Unchanged);
    }

    #[test]
    fn worsening_past_the_bound_is_regressed() {
        let p = runs(100.0);
        assert_eq!(
            label(&p, &runs(110.0), &lower(Some(0.05))),
            Label::Regressed
        );
        assert_eq!(
            label(&p, &runs(90.0), &higher(Some(0.05))),
            Label::Regressed
        );
        // No bound: the pair rule decides.
        assert_eq!(label(&p, &runs(110.0), &lower(None)), Label::Regressed);
    }

    #[test]
    fn steady_loss_inside_the_bound_is_regressed() {
        // A 20% slowdown that loses every pair, under a 25% bound.
        let p = runs(100.0);
        assert_eq!(
            label(&p, &runs(120.0), &lower(Some(0.25))),
            Label::Regressed
        );
        assert_eq!(
            label(&p, &runs(80.0), &higher(Some(0.25))),
            Label::Regressed
        );
        // Losing every pair by less than the parent's IQR (about 1%) is
        // not a regression.
        let c: Vec<f64> = p.iter().map(|v| v * 1.005).collect();
        assert_eq!(label(&p, &c, &lower(Some(0.25))), Label::Unchanged);
        // Losing 8 of 10 pairs is not enough.
        let mut c = runs(103.0);
        c[0] = p[0] * 0.9;
        c[1] = p[1] * 0.9;
        assert_eq!(label(&p, &c, &lower(Some(0.25))), Label::Unchanged);
    }

    #[test]
    fn wide_parent_spread_is_unresolved() {
        let p: Vec<f64> = (0..10).map(|i| 100.0 + 8.0 * (i % 5) as f64).collect();
        let c: Vec<f64> = p.iter().rev().copied().collect();
        assert_eq!(label(&p, &c, &lower(Some(0.05))), Label::Unresolved);
        // ...unless every change run beats every parent run.
        let c: Vec<f64> = p.iter().map(|_| 50.0).collect();
        assert_eq!(label(&p, &c, &lower(Some(0.05))), Label::Improved);
    }

    fn run(workload: &str, seed: u64, v: f64) -> Run {
        Run {
            workload: workload.into(),
            seed,
            finished_ms: 0,
            metrics: [("injections_per_s".to_string(), v)].into_iter().collect(),
        }
    }

    #[test]
    fn compare_pairs_runs_by_seed_per_workload() {
        let parent: Vec<Run> = (0..10)
            .flat_map(|s| [run("a", s, 100.0 + s as f64 / 10.0), run("b", s, 100.0)])
            .collect();
        // The change lists its runs in reverse seed order; pairing by seed
        // still lines them up.
        let change: Vec<Run> = (0..10)
            .rev()
            .flat_map(|s| [run("a", s, 130.0 + s as f64 / 10.0), run("b", s, 100.0)])
            .collect();
        let rows = compare(&parent, &change, &[higher(Some(0.05))]);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].workload.as_str(), rows[0].label),
            ("a", Label::Improved)
        );
        assert_eq!(
            (rows[1].workload.as_str(), rows[1].label),
            ("b", Label::Unchanged)
        );
        assert_eq!(rows[0].pairs, 10);
    }

    #[test]
    fn runs_of_one_seed_pair_in_the_order_they_finished() {
        let at = |seed, finished_ms| Run {
            finished_ms,
            ..run("a", seed, 0.0)
        };
        let runs = [at(2, 5), at(1, 9), run("b", 1, 0.0), at(1, 3), at(2, 1)];
        let order: Vec<(u64, u64)> = in_pair_order(&runs, "a")
            .iter()
            .map(|r| (r.seed, r.finished_ms))
            .collect();
        assert_eq!(order, [(1, 3), (1, 9), (2, 1), (2, 5)]);
    }

    #[test]
    fn declared_reads_direction_and_bound() {
        let text = r#"{"end_to_end":[{"name":"x","unit":"s","better":"lower","bound":0.1}],
                       "per_layer":[{"name":"y","unit":"ms","better":"higher"}]}"#;
        let d = declared(text).unwrap();
        assert_eq!(
            d[0],
            Declared {
                name: "x".into(),
                higher_is_better: false,
                bound: Some(0.1)
            }
        );
        assert_eq!(
            d[1],
            Declared {
                name: "y".into(),
                higher_is_better: true,
                bound: None
            }
        );
    }

    #[test]
    fn run_files_parse() {
        let text = r#"{"workload":"cp-coverage","seed":3,"trace":0,
            "result":{"correct":true,"attempted":5,"failed":0,
                      "metrics":{"setup_s":{"value":0.5,"unit":"s"}}}}"#;
        let r = parse_run(text).unwrap();
        assert_eq!((r.workload.as_str(), r.seed), ("cp-coverage", 3));
        assert_eq!(r.metrics["setup_s"], 0.5);
        assert!(parse_run("{}").is_err());
    }
}
