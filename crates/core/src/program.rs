//! The host-program abstraction: what a benchmark provides so the framework
//! can run it under any build variant, and the per-program output
//! correctness specifications that define "silent data corruption".

use hauberk_kir::{KernelDef, Value};
use hauberk_sim::{Device, DeviceConfig, ExecEngine, HookRuntime, Launch, LaunchOutcome};

/// Memory footprint by data class (paper Fig. 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemBreakdown {
    /// Bytes of floating-point data.
    pub fp_bytes: u64,
    /// Bytes of integer data.
    pub int_bytes: u64,
    /// Bytes of pointer data.
    pub ptr_bytes: u64,
}

/// A program's output-correctness requirement: the predicate whose violation
/// (when undetected) *is* a silent data corruption (§I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorrectnessSpec {
    /// Integer programs allow no value error in the output (SAD; §IX.B:
    /// "this ratio is low in SAD ... because it does not allow value errors").
    Exact,
    /// `|out_i - GR_i| <= max(abs, rel * |GR_i|)` — the PNS-style spec
    /// (`Max{0.01, 1%|GRi|}`).
    RelAbs {
        /// Relative tolerance.
        rel: f64,
        /// Absolute floor.
        abs: f64,
    },
    /// `|out_i - GR_i| <= rel * |GR_i| + eps` — the RPES spec
    /// (`2%|GRi| + 1e-9`).
    RelPlusEps {
        /// Relative tolerance.
        rel: f64,
        /// Additive epsilon.
        eps: f64,
    },
    /// `|out_i - GR_i| <= max(global_rel * max|GR|, elem_rel * |GR_i|)` —
    /// the MRI-Q spec (`Max{1e-4 Max|GR|, 0.2%|GRi|}`).
    MriStyle {
        /// Tolerance relative to the largest golden magnitude.
        global_rel: f64,
        /// Per-element relative tolerance.
        elem_rel: f64,
    },
    /// Graphics: an output is an SDC only when the corruption is
    /// *user-noticeable* — at least `min_bad_pixels` frame values deviating
    /// by more than `pixel_tol` (§II.A: a one-pixel spike in one frame of a
    /// 30 fps stream goes unnoticed; a 10,000-value stripe does not).
    GraphicsNoticeable {
        /// Per-pixel deviation tolerance.
        pixel_tol: f64,
        /// Minimum count of deviating values to call the frame corrupted.
        min_bad_pixels: usize,
    },
}

impl CorrectnessSpec {
    /// Number of output elements violating the per-element tolerance.
    pub fn violations(&self, golden: &[f64], out: &[f64]) -> usize {
        if golden.len() != out.len() {
            return golden.len().max(out.len());
        }
        let max_g = golden.iter().fold(0.0f64, |m, g| m.max(g.abs()));
        golden
            .iter()
            .zip(out)
            .filter(|(g, o)| {
                let err = (*g - *o).abs();
                if o.is_nan() {
                    return !g.is_nan();
                }
                match self {
                    CorrectnessSpec::Exact => err != 0.0,
                    CorrectnessSpec::RelAbs { rel, abs } => err > (rel * g.abs()).max(*abs),
                    CorrectnessSpec::RelPlusEps { rel, eps } => err > rel * g.abs() + eps,
                    CorrectnessSpec::MriStyle {
                        global_rel,
                        elem_rel,
                    } => err > (global_rel * max_g).max(elem_rel * g.abs()),
                    CorrectnessSpec::GraphicsNoticeable { pixel_tol, .. } => err > *pixel_tol,
                }
            })
            .count()
    }

    /// Whether `out` violates the correctness requirement relative to the
    /// golden run (i.e. whether an undetected such output is an SDC).
    pub fn is_violation(&self, golden: &[f64], out: &[f64]) -> bool {
        let v = self.violations(golden, out);
        match self {
            CorrectnessSpec::GraphicsNoticeable { min_bad_pixels, .. } => v >= *min_bad_pixels,
            _ => v > 0,
        }
    }
}

/// One benchmark program: kernel construction, dataset-parameterized input
/// setup, output read-back, launch geometry, and correctness spec.
pub trait HostProgram: Sync {
    /// Program name (matches the paper's benchmark names).
    fn name(&self) -> &'static str;

    /// Build the baseline kernel.
    fn build_kernel(&self) -> KernelDef;

    /// Launch geometry.
    fn launch(&self) -> Launch;

    /// Allocate and initialize device inputs for dataset `dataset`
    /// (a seed; each distinct value is a distinct input set). Returns the
    /// kernel arguments.
    fn setup(&self, dev: &mut Device, dataset: u64) -> Vec<Value>;

    /// Read the program output back from the device (d2h after the kernel).
    fn read_output(&self, dev: &Device, args: &[Value]) -> Vec<f64>;

    /// The output-correctness requirement.
    fn spec(&self) -> CorrectnessSpec;

    /// Memory footprint by data class (Fig. 2).
    fn memory_breakdown(&self) -> MemBreakdown;

    /// Whether this is a 3D-graphics program (frame-buffer output).
    fn is_graphics(&self) -> bool {
        false
    }

    /// Whether this program targets the CPU-mode device (the CPU rows of
    /// Fig. 1).
    fn is_cpu(&self) -> bool {
        false
    }

    /// Device configuration this program runs on.
    fn device_config(&self) -> DeviceConfig {
        if self.is_cpu() {
            DeviceConfig::cpu()
        } else {
            DeviceConfig::gpu()
        }
    }
}

/// Result of one program execution.
#[derive(Debug, Clone)]
pub struct ProgramRun {
    /// Kernel launch outcome.
    pub outcome: LaunchOutcome,
    /// Program output (present only when the launch completed).
    pub output: Option<Vec<f64>>,
}

impl ProgramRun {
    /// The output of a completed run.
    pub fn output(&self) -> Option<&[f64]> {
        self.output.as_deref()
    }
}

/// Execute `kernel` (any build variant of `prog`'s kernel) on a fresh device
/// with `prog`'s dataset `dataset`, dispatching hooks to `rt`.
pub fn run_program(
    prog: &dyn HostProgram,
    kernel: &KernelDef,
    dataset: u64,
    rt: &mut dyn HookRuntime,
    cycle_budget: u64,
) -> ProgramRun {
    run_program_traced(
        prog,
        kernel,
        dataset,
        rt,
        cycle_budget,
        &hauberk_telemetry::Telemetry::disabled(),
    )
}

/// [`run_program`] with a telemetry handle: the device emits kernel
/// launch/exit span events (and per-hook events when hot events are on)
/// into `tele`'s sink.
pub fn run_program_traced(
    prog: &dyn HostProgram,
    kernel: &KernelDef,
    dataset: u64,
    rt: &mut dyn HookRuntime,
    cycle_budget: u64,
    tele: &hauberk_telemetry::Telemetry,
) -> ProgramRun {
    run_program_with_engine(prog, kernel, dataset, rt, cycle_budget, tele, None)
}

/// [`run_program_traced`] with an explicit execution engine.
///
/// `None` keeps the program's device default (the batch engine); `Some`
/// pins the engine for this run — campaigns use this so an `--engine` flag
/// or a differential test overrides everything downstream.
pub fn run_program_with_engine(
    prog: &dyn HostProgram,
    kernel: &KernelDef,
    dataset: u64,
    rt: &mut dyn HookRuntime,
    cycle_budget: u64,
    tele: &hauberk_telemetry::Telemetry,
    engine: Option<ExecEngine>,
) -> ProgramRun {
    let mut config = prog.device_config();
    if let Some(e) = engine {
        config.engine = e;
    }
    let mut dev = Device::new(config).with_telemetry(tele.clone());
    let args = prog.setup(&mut dev, dataset);
    let launch = prog.launch().with_budget(cycle_budget);
    let outcome = dev.launch(kernel, &args, &launch, rt);
    let output = if outcome.is_completed() {
        Some(prog.read_output(&dev, &args))
    } else {
        None
    };
    ProgramRun { outcome, output }
}

/// Run the baseline build fault-free and return the golden output and the
/// baseline **work cycles** (total cycles summed over all warps — the
/// quantity the hang watchdog budget is expressed in; simulated kernel
/// *time* is the per-SM maximum and is reported by [`run_program`]'s stats).
pub fn golden_run(prog: &dyn HostProgram, dataset: u64) -> (Vec<f64>, u64) {
    golden_run_with_engine(prog, dataset, None)
}

/// [`golden_run`] on an explicit engine (`None` = the device default), so a
/// campaign's golden run uses the engine its injections use.
pub fn golden_run_with_engine(
    prog: &dyn HostProgram,
    dataset: u64,
    engine: Option<ExecEngine>,
) -> (Vec<f64>, u64) {
    let kernel = prog.build_kernel();
    let run = run_program_with_engine(
        prog,
        &kernel,
        dataset,
        &mut hauberk_sim::NullRuntime,
        Launch::DEFAULT_BUDGET,
        &hauberk_telemetry::Telemetry::disabled(),
        engine,
    );
    let stats = run.outcome.completed_stats().unwrap_or_else(|| {
        panic!(
            "golden run of `{}` must complete: {:?}",
            prog.name(),
            run.outcome
        )
    });
    (
        run.output.expect("completed run has output"),
        stats.work_cycles,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_spec_rejects_any_difference() {
        let s = CorrectnessSpec::Exact;
        assert!(!s.is_violation(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(s.is_violation(&[1.0, 2.0], &[1.0, 2.0000001]));
    }

    #[test]
    fn relabs_spec_mixes_floor_and_relative() {
        // PNS: Max{0.01, 1%|GRi|}
        let s = CorrectnessSpec::RelAbs {
            rel: 0.01,
            abs: 0.01,
        };
        assert!(!s.is_violation(&[100.0], &[100.9])); // within 1%
        assert!(s.is_violation(&[100.0], &[101.1]));
        assert!(!s.is_violation(&[0.0001], &[0.009])); // within floor
        assert!(s.is_violation(&[0.0001], &[0.02]));
    }

    #[test]
    fn rel_plus_eps_spec() {
        // RPES: 2%|GRi| + 1e-9
        let s = CorrectnessSpec::RelPlusEps {
            rel: 0.02,
            eps: 1e-9,
        };
        assert!(!s.is_violation(&[50.0], &[50.9]));
        assert!(s.is_violation(&[50.0], &[51.1]));
    }

    #[test]
    fn mri_spec_uses_global_max() {
        // Max{1e-4 Max|GR|, 0.2%|GRi|}
        let s = CorrectnessSpec::MriStyle {
            global_rel: 1e-4,
            elem_rel: 0.002,
        };
        let golden = [1000.0, 0.001];
        // Element 1 absolute error of 0.05 <= 1e-4 * 1000 = 0.1: ok.
        assert!(!s.is_violation(&golden, &[1000.0, 0.051]));
        assert!(s.is_violation(&golden, &[1000.0, 0.2]));
    }

    #[test]
    fn graphics_spec_needs_many_bad_pixels() {
        let s = CorrectnessSpec::GraphicsNoticeable {
            pixel_tol: 0.05,
            min_bad_pixels: 100,
        };
        let golden = vec![0.5f64; 10_000];
        let mut one_spike = golden.clone();
        one_spike[7] = 9.0;
        assert!(
            !s.is_violation(&golden, &one_spike),
            "single spike unnoticed"
        );
        let mut stripe = golden.clone();
        for p in stripe.iter_mut().take(500) {
            *p = 9.0;
        }
        assert!(s.is_violation(&golden, &stripe), "stripe is noticeable");
    }

    #[test]
    fn nan_output_is_a_violation() {
        let s = CorrectnessSpec::RelAbs { rel: 0.5, abs: 0.5 };
        assert!(s.is_violation(&[1.0], &[f64::NAN]));
    }

    #[test]
    fn length_mismatch_is_total_violation() {
        let s = CorrectnessSpec::Exact;
        assert!(s.is_violation(&[1.0, 2.0], &[1.0]));
    }
}
