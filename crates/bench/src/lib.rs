#![warn(missing_docs)]

//! # hauberk-bench — regeneration of every table and figure
//!
//! Each module reproduces one experiment of the paper's evaluation; the
//! `figures` binary drives them and prints the same rows/series the paper
//! reports. See `EXPERIMENTS.md` at the repository root for the
//! paper-vs-measured record and the figure-by-figure reproduction guide.
//!
//! Binaries (`cargo run --release -p hauberk-bench --bin <name>`):
//!
//! * `figures` — regenerate the paper's figures/tables (positional figure
//!   names, `--paper`, `--json`, `--threads`).
//! * `campaign` — one program's fault-injection campaign with CSV/trace
//!   export and the orchestration layer: `--journal`/`--resume` checkpoints,
//!   `--shard I/M` + the `merge-journals` subcommand, `--adaptive`
//!   Wilson-interval early stopping (README "Campaign operations"), and the
//!   `harden` subcommand for selective detector placement. Its campaign
//!   flags build a serve job spec through [`cli`].
//! * `interp_bench` — the one micro harness: per-engine interpreter speed,
//!   FI-runtime and profiler costs per suite program, and the telemetry
//!   layer's cost, writes `BENCH_interp.json`.
//!
//! End-to-end wall time is measured by `perfbench/` (see `BENCHMARK.json`);
//! `tests/golden/` pins the CLI JSON output shapes (refresh with
//! `UPDATE_GOLDEN=1`).

pub mod ablation;
pub mod alpha_cov;
pub mod cli;
pub mod fig1;
pub mod fig10;
pub mod fig14;
pub mod fig16;
pub mod fig2;
pub mod fig3;
pub mod fig9;
pub mod guardian_cases;
pub mod instr;
pub mod perf;
pub mod report;
