//! Plain-text table/bar rendering for the figure reports, and the quartile
//! summary the timed reports (`figures instr`, `interp_bench`) record.
//!
//! The rendering implementations live in [`hauberk_telemetry::report`] so
//! that the figure harness, the campaign CLI, and the metrics tables all
//! format output through one path; this module re-exports them under the
//! name the figure modules have always used.

pub use hauberk_telemetry::report::{bar, pct, table, Emitter, Table};

/// `[q1, median, q3]` of `v` (nearest rank; sorts `v`).
pub fn quartiles(v: &mut [f64]) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    [at(0.25), at(0.5), at(0.75)]
}
