//! §IX.D — Hauberk instrumentation time.
//!
//! The paper reports ~0.7 s per kernel for the transformation proper (its
//! 81 s average includes C preprocessing and parsing of full CUDA sources).
//! This section times our equivalents per suite kernel: parsing the
//! mini-CUDA source, the FT derivation (non-loop and loop passes, dataflow
//! analyses included) and the FI mutation, each as the median wall time of
//! [`REPS`] repetitions.

use crate::report::{quartiles, Table};
use hauberk::builds::{build, BuildVariant, FtOptions};
use hauberk::program::HostProgram;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per phase and kernel.
pub const REPS: usize = 21;

/// One kernel's instrumentation times, in microseconds (medians).
#[derive(Debug, Clone)]
pub struct InstrRow {
    /// Program name.
    pub program: &'static str,
    /// Parsing the kernel source into KIR.
    pub parse_us: f64,
    /// Deriving the FT (detector) build.
    pub ft_us: f64,
    /// Deriving the FI (fault-injection) build.
    pub fi_us: f64,
}

/// Median wall time of `f` over [`REPS`] calls, in microseconds.
fn median_us(mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    quartiles(&mut times)[1]
}

/// Time every phase on each of `programs`.
pub fn run(programs: &[Box<dyn HostProgram>]) -> Vec<InstrRow> {
    programs
        .iter()
        .map(|prog| {
            // Every suite program's kernel is its parsed source.
            let kernel = prog.build_kernel();
            let ft = BuildVariant::Ft(FtOptions::default());
            InstrRow {
                program: prog.name(),
                parse_us: median_us(|| {
                    black_box(prog.build_kernel());
                }),
                ft_us: median_us(|| {
                    black_box(build(&kernel, ft).expect("FT build"));
                }),
                fi_us: median_us(|| {
                    black_box(build(&kernel, BuildVariant::Fi).expect("FI build"));
                }),
            }
        })
        .collect()
}

/// The §IX.D table.
pub fn render(rows: &[InstrRow]) -> Table {
    let mut t = Table::new(
        format!("§IX.D — instrumentation time per kernel, microseconds (median of {REPS})"),
        &["program", "parse", "FT derivation", "FI mutation", "total"],
    );
    for r in rows {
        t.row(vec![
            r.program.to_string(),
            format!("{:.1}", r.parse_us),
            format!("{:.1}", r.ft_us),
            format!("{:.1}", r.fi_us),
            format!("{:.1}", r.parse_us + r.ft_us + r.fi_us),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use hauberk_benchmarks::{hpc_suite, ProblemScale};

    #[test]
    fn every_suite_kernel_gets_a_timed_row() {
        let rows = run(&hpc_suite(ProblemScale::Quick));
        let names: Vec<_> = rows.iter().map(|r| r.program).collect();
        assert_eq!(
            names,
            ["CP", "MRI-FHD", "MRI-Q", "PNS", "RPES", "SAD", "TPACF"]
        );
        for r in &rows {
            assert!(r.parse_us > 0.0 && r.ft_us > 0.0 && r.fi_us > 0.0, "{r:?}");
        }
        let text = render(&rows).to_text();
        assert!(rows.iter().all(|r| text.contains(r.program)), "{text}");
    }
}
