//! Fig. 10 — value distributions of integer and FP variables in MRI-Q:
//! per-variable histograms over power-of-ten magnitude bins, showing the
//! sharp correlation points (±magnitude and near-zero) that motivate
//! three-cluster value-range checking.

use crate::report;
use hauberk::builds::{build, BuildVariant, FtOptions};
use hauberk::program::{run_program, HostProgram};
use hauberk::runtime::ProfilerRuntime;
use hauberk_benchmarks::mri_q::MriQ;
use hauberk_benchmarks::ProblemScale;
use hauberk_kir::types::DataClass;

/// Histogram of one variable's observed values over signed decade bins.
#[derive(Debug, Clone)]
pub struct VarDistribution {
    /// Variable name.
    pub var: String,
    /// Pointer/integer/FP class.
    pub class: DataClass,
    /// Samples observed.
    pub n: usize,
    /// (bin label, probability) in magnitude order, negative → zero →
    /// positive.
    pub bins: Vec<(String, f64)>,
    /// Probability mass of the most populated bin (the paper's "sharp
    /// peak (>0.5)" metric).
    pub peak: f64,
    /// Number of distinct correlation points (bins separated by empty
    /// space, grouped): the paper observes up to three.
    pub clusters: usize,
}

fn decade_bin(v: f64) -> i32 {
    // Signed decade: 0 = |v| < 1e-9 (the near-zero point); positive decades
    // for positive values, negative for negative values.
    if v.abs() < 1e-9 {
        return 0;
    }
    let d = v.abs().log10().floor() as i32 + 10; // shift so 1e-9 -> 1
    if v < 0.0 {
        -d.max(1)
    } else {
        d.max(1)
    }
}

fn bin_label(b: i32) -> String {
    if b == 0 {
        "~0".to_string()
    } else {
        let d = b.abs() - 10;
        format!("{}1e{:+}", if b < 0 { "-" } else { "+" }, d)
    }
}

/// Profile MRI-Q and build per-variable distributions.
pub fn run(scale: ProblemScale) -> Vec<VarDistribution> {
    let prog = MriQ::new(scale);
    let base = prog.build_kernel();
    let b = build(&base, BuildVariant::Profiler(FtOptions::default())).expect("profiler build");
    let mut pr = ProfilerRuntime::with_site_samples();
    let run = run_program(&prog, &b.kernel, 0, &mut pr, u64::MAX);
    assert!(run.outcome.is_completed());

    let mut out = Vec::new();
    for site in &b.fi.sites {
        let samples = pr.site_samples(site.site);
        if samples.is_empty() {
            continue;
        }
        let mut hist: std::collections::BTreeMap<i32, usize> = std::collections::BTreeMap::new();
        for v in samples {
            *hist.entry(decade_bin(*v)).or_default() += 1;
        }
        let n = samples.len();
        let bins: Vec<(String, f64)> = hist
            .iter()
            .map(|(b, c)| (bin_label(*b), *c as f64 / n as f64))
            .collect();
        let peak = bins.iter().map(|(_, p)| *p).fold(0.0, f64::max);
        // Count clusters: consecutive occupied decades group together.
        let occupied: Vec<i32> = hist.keys().copied().collect();
        let mut clusters = 0;
        let mut prev: Option<i32> = None;
        for b in occupied {
            if prev.map(|p| b - p > 1).unwrap_or(true) {
                clusters += 1;
            }
            prev = Some(b);
        }
        // Merge duplicate var entries (several defs of one variable).
        out.push(VarDistribution {
            var: site.var_name.clone(),
            class: site.class,
            n,
            bins,
            peak,
            clusters,
        });
    }
    out
}

/// Render the distributions.
pub fn render(dists: &[VarDistribution]) -> String {
    let mut out = String::from("Fig. 10 — value distributions of MRI-Q variables\n");
    let body: Vec<Vec<String>> = dists
        .iter()
        .map(|d| {
            let top: Vec<String> = d
                .bins
                .iter()
                .filter(|(_, p)| *p > 0.05)
                .map(|(l, p)| format!("{l}:{}", report::pct(*p)))
                .collect();
            vec![
                d.var.clone(),
                d.class.to_string(),
                d.n.to_string(),
                report::pct(d.peak),
                d.clusters.to_string(),
                top.join(" "),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &["variable", "class", "n", "peak %", "clusters", "bins >5%"],
        &body,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mriq_values_show_sharp_correlation_points() {
        let dists = run(ProblemScale::Quick);
        assert!(dists.len() >= 4, "several profiled variables");
        // The paper's finding: values of one variable concentrate in a few
        // power-of-ten bins (sharp peaks; symmetric-sign variables split
        // their mass between the +/- twin bins).
        let sharp = dists.iter().filter(|d| d.peak > 0.5).count();
        assert!(
            sharp * 3 >= dists.len(),
            "sharp peaks in a good share of variables: {sharp}/{}",
            dists.len()
        );
        let concentrated = dists
            .iter()
            .filter(|d| {
                let mut ps: Vec<f64> = d.bins.iter().map(|(_, p)| *p).collect();
                ps.sort_by(|a, b| b.partial_cmp(a).unwrap());
                ps.iter().take(3).sum::<f64>() > 0.7
            })
            .count();
        assert!(
            concentrated * 10 >= dists.len() * 7,
            "top-3 bins hold >70% of mass for most variables: {concentrated}/{}",
            dists.len()
        );
        // FP accumulators show at most ~3 clusters (±magnitude, near-zero).
        for d in &dists {
            assert!(
                d.clusters <= 6,
                "{}: {} clusters is not range-checkable",
                d.var,
                d.clusters
            );
        }
        // The signed accumulator's *in-loop* values (the init-site samples
        // are the constant zero) have both negative and positive mass.
        let acc = dists
            .iter()
            .find(|d| d.var == "qiacc" && d.n > 1000)
            .expect("in-loop accumulator profiled");
        let has_neg = acc.bins.iter().any(|(l, _)| l.starts_with('-'));
        let has_pos = acc.bins.iter().any(|(l, _)| l.starts_with('+'));
        assert!(has_neg && has_pos, "{:?}", acc.bins);
    }

    #[test]
    fn decade_bins_are_ordered_and_labeled() {
        assert_eq!(decade_bin(0.0), 0);
        assert!(decade_bin(-5.0) < 0);
        assert!(decade_bin(5.0) > 0);
        assert!(decade_bin(500.0) > decade_bin(5.0));
        assert_eq!(bin_label(0), "~0");
        assert!(bin_label(decade_bin(100.0)).contains("1e+2"));
    }
}
