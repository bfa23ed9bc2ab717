//! `figures` — regenerate the paper's tables and figures.
//!
//! ```text
//! figures [fig1|fig2|fig3|fig4|fig9|fig10|fig13|fig14|fig15|fig16|alpha|guardian|ablation|instr|all]
//!         [--paper]     use larger problem sizes / experiment counts
//!         [--json]      one JSON document instead of text sections
//!         [--threads N] pin the campaign worker-thread count (0 = one per core)
//! ```
//!
//! Every figure runs on the batch engine (results are identical on every
//! engine; `campaign --engine` picks one for a single campaign). An unknown
//! figure or flag, or a malformed value, exits 2.

use hauberk_bench::cli::{parse_args, CliError};
use hauberk_bench::report::{Emitter, Table};
use hauberk_bench::*;
use hauberk_benchmarks::{hpc_suite, ProblemScale};
use std::env;

/// Every figure name `figures` accepts.
const FIGURES: &[&str] = &[
    "fig1", "fig2", "fig3", "fig4", "fig9", "fig10", "fig13", "fig14", "fig15", "fig16", "alpha",
    "guardian", "ablation", "instr", "all",
];

struct Cfg {
    scale: ProblemScale,
    big: bool,
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        e.exit("figures")
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let local = [("--paper", false), ("--json", false), ("--threads", true)];
    let args = parse_args(args, &[], &local)?;
    if let Some(n) = args.parse("--threads")? {
        rayon::set_thread_count(n);
    }
    if let Some(bad) = args
        .positional
        .iter()
        .find(|w| !FIGURES.contains(&w.as_str()))
    {
        return Err(CliError::Usage(format!(
            "unknown figure `{bad}` (valid: {})",
            FIGURES.join(", ")
        )));
    }
    let big = args.has("--paper");
    let cfg = Cfg {
        scale: if big {
            ProblemScale::Paper
        } else {
            ProblemScale::Quick
        },
        big,
    };
    let which: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    let all = which.is_empty() || which.contains(&"all");
    let want = |name: &str| all || which.contains(&name);
    let mut em = Emitter::new(args.has("--json"));

    if want("fig1") {
        let masks = if cfg.big { 50 } else { 10 };
        let rows = fig1::run(cfg.scale, masks);
        em.section("fig1", &fig1::render(&rows));
    }
    if want("fig2") {
        em.section("fig2", &fig2::render(&fig2::run(cfg.scale)));
    }
    if want("fig3") {
        let (t, i) = fig3::run(cfg.scale);
        em.section("fig3", &fig3::render(&t, &i));
    }
    if want("fig4") || want("fig13") {
        run_perf(&cfg, &mut em);
    }
    if want("fig9") {
        em.section("fig9", &fig9::run());
    }
    if want("fig10") {
        em.section("fig10", &fig10::render(&fig10::run(cfg.scale)));
    }
    if want("fig14") {
        let (vars, masks) = if cfg.big { (20, 50) } else { (8, 15) };
        let cells = fig14::run(cfg.scale, vars, masks);
        em.section("fig14", &fig14::render(&cells));
    }
    if want("fig15") {
        run_fig15(&cfg, &mut em);
    }
    if want("fig16") {
        let (datasets, reps) = if cfg.big { (52, 10) } else { (24, 5) };
        let (left, right) = fig16::run(cfg.scale, datasets, reps);
        em.section("fig16", &fig16::render(&left, &right));
    }
    if want("alpha") {
        let pts = alpha_cov::run(
            cfg.scale,
            if cfg.big { 12 } else { 8 },
            if cfg.big { 25 } else { 12 },
        );
        em.section("alpha", &alpha_cov::render(&pts));
    }
    if want("guardian") {
        em.section(
            "guardian",
            &guardian_cases::render(&guardian_cases::run(cfg.scale)),
        );
    }
    if want("ablation") {
        em.section("ablation", &ablation::render("MRI-Q"));
    }
    if want("instr") {
        em.table(&instr::render(&instr::run(&hpc_suite(cfg.scale))));
        em.text("paper: ~0.7 s per kernel for the transformation proper\n");
    }
    em.finish();
    Ok(())
}

fn run_perf(cfg: &Cfg, em: &mut Emitter) {
    let rows = perf::measure_suite(&hpc_suite(cfg.scale));

    let mut t4 = Table::new(
        "Fig. 4 — % of GPU execution time spent in loops",
        &["program", "loop time"],
    );
    for r in &rows {
        t4.row(vec![
            r.program.to_string(),
            report::bar(r.loop_fraction * 100.0, 30),
        ]);
    }
    em.table(&t4);
    let avg_loop = rows.iter().map(|r| r.loop_fraction).sum::<f64>() / rows.len() as f64 * 100.0;
    em.text(format!("average: {avg_loop:.1}% (paper: ~87%)\n"));

    let mut t13 = Table::new(
        "Fig. 13 — normalized performance overhead (%)",
        &[
            "program",
            "R-Naive",
            "R-Scatter",
            "Hauberk-NL",
            "Hauberk-L",
            "Hauberk",
        ],
    );
    for r in &rows {
        t13.row(vec![
            r.program.to_string(),
            format!("{:.1}", r.r_naive),
            r.r_scatter
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "N/A (shared mem)".into()),
            format!("{:.1}", r.hauberk_nl),
            format!("{:.1}", r.hauberk_l),
            format!("{:.1}", r.hauberk),
        ]);
    }
    em.table(&t13);
    let n = rows.len() as f64;
    let avg = rows.iter().map(|r| r.hauberk).sum::<f64>() / n;
    let ex: Vec<_> = rows.iter().filter(|r| r.program != "RPES").collect();
    let avg_ex = ex.iter().map(|r| r.hauberk).sum::<f64>() / ex.len() as f64;
    em.text(format!(
        "Hauberk average: {avg:.1}% (paper: 15.3%); excluding RPES: {avg_ex:.1}% (paper: 8.9%)\n"
    ));
}

fn run_fig15(cfg: &Cfg, em: &mut Emitter) {
    let samples = if cfg.big { 1_320_000 } else { 40_000 };
    let rows = hauberk_swifi::value_impact::impact_table(
        7,
        &hauberk_swifi::mask::PAPER_BIT_COUNTS,
        samples,
    );
    let mut header = vec!["origin".to_string(), "bits".to_string()];
    header.extend(
        hauberk_swifi::value_impact::IMPACT_BUCKETS
            .iter()
            .map(|(_, _, l)| l.to_string()),
    );
    let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        format!(
            "Fig. 15 — FP value magnitude change vs. original range and error bits \
             ({samples} samples per cell; columns are change-factor buckets, %)"
        ),
        &hdr,
    );
    for r in &rows {
        let mut row = vec![r.origin.to_string(), r.bits.to_string()];
        row.extend(r.shares.iter().map(|s| format!("{:.1}", s * 100.0)));
        t.row(row);
    }
    em.table(&t);
}
