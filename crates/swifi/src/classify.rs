//! Outcome classification (§VIII).

use hauberk::program::CorrectnessSpec;
use hauberk_kir::types::DataClass;
use hauberk_kir::HwComponent;
use hauberk_sim::LaunchOutcome;
use std::fmt;

/// Why a run counted as a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Kernel crash detected by the (simulated) GPU runtime.
    Crash,
    /// Hang / execution-delay detected by the watchdog budget.
    Hang,
}

/// The paper's five-way fault-injection outcome taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FiOutcome {
    /// GPU kernel crash or hang.
    Failure,
    /// Output satisfies the correctness requirement and no alarm was raised
    /// (includes faults that never activated).
    Masked,
    /// Alarm raised but the output still satisfies the requirement
    /// (a re-execution would diagnose the false alarm).
    DetectedMasked,
    /// Alarm raised and the output violates the requirement.
    Detected,
    /// Output violates the requirement and no alarm: a silent data
    /// corruption that escaped the detectors.
    Undetected,
}

impl FiOutcome {
    /// All outcomes, in the paper's legend order.
    pub const ALL: [FiOutcome; 5] = [
        FiOutcome::Failure,
        FiOutcome::Masked,
        FiOutcome::DetectedMasked,
        FiOutcome::Detected,
        FiOutcome::Undetected,
    ];

    /// Parse the [`std::fmt::Display`] label back (CSV and journal readers).
    pub fn parse(s: &str) -> Option<FiOutcome> {
        FiOutcome::ALL.into_iter().find(|o| o.to_string() == s)
    }
}

impl fmt::Display for FiOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FiOutcome::Failure => "failure",
            FiOutcome::Masked => "masked",
            FiOutcome::DetectedMasked => "detected&masked",
            FiOutcome::Detected => "detected",
            FiOutcome::Undetected => "undetected",
        })
    }
}

/// Classify one completed-or-not run.
pub fn classify(
    outcome: &LaunchOutcome,
    output: Option<&[f64]>,
    golden: &[f64],
    spec: &CorrectnessSpec,
    alarm: bool,
) -> FiOutcome {
    match outcome {
        LaunchOutcome::Crash { .. } => FiOutcome::Failure,
        LaunchOutcome::Hang { .. } => FiOutcome::Failure,
        LaunchOutcome::Completed(_) => {
            let out = output.expect("completed run has output");
            let violation = spec.is_violation(golden, out);
            match (violation, alarm) {
                (false, false) => FiOutcome::Masked,
                (false, true) => FiOutcome::DetectedMasked,
                (true, true) => FiOutcome::Detected,
                (true, false) => FiOutcome::Undetected,
            }
        }
    }
}

/// One fault-injection experiment's record.
#[derive(Debug, Clone)]
pub struct InjectionResult {
    /// Data class of the corrupted state.
    pub class: DataClass,
    /// Hardware component the fault emulated.
    pub hw: HwComponent,
    /// Bits in the error mask.
    pub bits: u32,
    /// Whether the armed fault actually activated during the run.
    pub delivered: bool,
    /// Classified outcome.
    pub outcome: FiOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hauberk_sim::{ExecStats, TrapReason};

    fn spec() -> CorrectnessSpec {
        CorrectnessSpec::RelAbs {
            rel: 0.01,
            abs: 0.0,
        }
    }

    #[test]
    fn classification_matrix() {
        let golden = [10.0, 20.0];
        let done = LaunchOutcome::Completed(ExecStats::default());
        assert_eq!(
            classify(&done, Some(&[10.0, 20.0]), &golden, &spec(), false),
            FiOutcome::Masked
        );
        assert_eq!(
            classify(&done, Some(&[10.0, 20.0]), &golden, &spec(), true),
            FiOutcome::DetectedMasked
        );
        assert_eq!(
            classify(&done, Some(&[10.0, 99.0]), &golden, &spec(), true),
            FiOutcome::Detected
        );
        assert_eq!(
            classify(&done, Some(&[10.0, 99.0]), &golden, &spec(), false),
            FiOutcome::Undetected
        );
        let crash = LaunchOutcome::Crash {
            reason: TrapReason::IntDivByZero,
            stats: ExecStats::default(),
        };
        assert_eq!(
            classify(&crash, None, &golden, &spec(), false),
            FiOutcome::Failure
        );
        let hang = LaunchOutcome::Hang {
            stats: ExecStats::default(),
            certified: false,
        };
        assert_eq!(
            classify(&hang, None, &golden, &spec(), true),
            FiOutcome::Failure
        );
    }
}
