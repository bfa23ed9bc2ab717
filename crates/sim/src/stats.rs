//! Execution statistics: cycle accounting, op-class counters, and the
//! loop/non-loop attribution behind the paper's Fig. 4.

use std::fmt;
use std::ops::{AddAssign, SubAssign};

/// Operation classes for the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Integer ALU.
    IAlu,
    /// FP add/mul/compare pipe.
    FAlu,
    /// Special-function unit (sqrt/rsqrt/sin/cos/exp/log, FP div).
    Sfu,
    /// Memory (load/store/atomic).
    Mem,
    /// Control (branch decisions, loop back-edges, sync).
    Ctl,
}

impl OpClass {
    /// All classes in display order.
    pub const ALL: [OpClass; 5] = [
        OpClass::IAlu,
        OpClass::FAlu,
        OpClass::Sfu,
        OpClass::Mem,
        OpClass::Ctl,
    ];

    /// Index into count arrays.
    pub const fn idx(self) -> usize {
        match self {
            OpClass::IAlu => 0,
            OpClass::FAlu => 1,
            OpClass::Sfu => 2,
            OpClass::Mem => 3,
            OpClass::Ctl => 4,
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpClass::IAlu => "ialu",
            OpClass::FAlu => "falu",
            OpClass::Sfu => "sfu",
            OpClass::Mem => "mem",
            OpClass::Ctl => "ctl",
        })
    }
}

/// Statistics of one kernel launch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Simulated kernel time: the busiest SM's total cycles.
    pub kernel_cycles: u64,
    /// Total work cycles summed over all warps (what loop attribution is a
    /// fraction of).
    pub work_cycles: u64,
    /// Work cycles charged while executing inside any loop body or loop
    /// header back-edge.
    pub loop_cycles: u64,
    /// Instructions issued, per op class.
    pub class_counts: [u64; 5],
    /// Instructions that dual-issued for free (pairing hits).
    pub paired_ops: u64,
    /// Total memory segments touched (coalescing traffic).
    pub mem_segments: u64,
    /// Number of blocks executed.
    pub blocks: u64,
    /// Number of warps executed.
    pub warps: u64,
    /// `__syncthreads()` executed.
    pub syncs: u64,
    /// Hook statements dispatched.
    pub hooks: u64,
}

impl ExecStats {
    /// Fraction of work cycles spent inside loops (Fig. 4's metric).
    pub fn loop_fraction(&self) -> f64 {
        if self.work_cycles == 0 {
            0.0
        } else {
            self.loop_cycles as f64 / self.work_cycles as f64
        }
    }

    /// Total instructions issued.
    pub fn total_ops(&self) -> u64 {
        self.class_counts.iter().sum()
    }

    /// Detector overhead in kernel cycles against a baseline run of the
    /// uninstrumented kernel. Saturating: engine-equivalent builds can in
    /// principle tie, and a tie must read as zero overhead, not wrap.
    pub fn overhead_vs(&self, baseline_kernel_cycles: u64) -> u64 {
        self.kernel_cycles.saturating_sub(baseline_kernel_cycles)
    }

    /// [`Self::overhead_vs`] as a fraction of the baseline (0.0 when the
    /// baseline is degenerate).
    pub fn overhead_frac_vs(&self, baseline_kernel_cycles: u64) -> f64 {
        if baseline_kernel_cycles == 0 {
            0.0
        } else {
            self.overhead_vs(baseline_kernel_cycles) as f64 / baseline_kernel_cycles as f64
        }
    }
}

impl From<&ExecStats> for hauberk_telemetry::ExecSnapshot {
    fn from(s: &ExecStats) -> Self {
        hauberk_telemetry::ExecSnapshot {
            kernel_cycles: s.kernel_cycles,
            work_cycles: s.work_cycles,
            loop_cycles: s.loop_cycles,
            ops: s.total_ops(),
            paired_ops: s.paired_ops,
            mem_segments: s.mem_segments,
            blocks: s.blocks,
            warps: s.warps,
            syncs: s.syncs,
            hooks: s.hooks,
        }
    }
}

impl AddAssign<&ExecStats> for ExecStats {
    fn add_assign(&mut self, rhs: &ExecStats) {
        self.kernel_cycles += rhs.kernel_cycles;
        self.work_cycles += rhs.work_cycles;
        self.loop_cycles += rhs.loop_cycles;
        for i in 0..5 {
            self.class_counts[i] += rhs.class_counts[i];
        }
        self.paired_ops += rhs.paired_ops;
        self.mem_segments += rhs.mem_segments;
        self.blocks += rhs.blocks;
        self.warps += rhs.warps;
        self.syncs += rhs.syncs;
        self.hooks += rhs.hooks;
    }
}

impl SubAssign<&ExecStats> for ExecStats {
    fn sub_assign(&mut self, rhs: &ExecStats) {
        self.kernel_cycles -= rhs.kernel_cycles;
        self.work_cycles -= rhs.work_cycles;
        self.loop_cycles -= rhs.loop_cycles;
        for i in 0..5 {
            self.class_counts[i] -= rhs.class_counts[i];
        }
        self.paired_ops -= rhs.paired_ops;
        self.mem_segments -= rhs.mem_segments;
        self.blocks -= rhs.blocks;
        self.warps -= rhs.warps;
        self.syncs -= rhs.syncs;
        self.hooks -= rhs.hooks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_fraction_handles_zero() {
        let s = ExecStats::default();
        assert_eq!(s.loop_fraction(), 0.0);
        let s = ExecStats {
            work_cycles: 100,
            loop_cycles: 87,
            ..Default::default()
        };
        assert!((s.loop_fraction() - 0.87).abs() < 1e-12);
    }

    #[test]
    fn overhead_accounting_saturates() {
        let s = ExecStats {
            kernel_cycles: 1500,
            ..Default::default()
        };
        assert_eq!(s.overhead_vs(1000), 500);
        assert_eq!(s.overhead_vs(2000), 0, "faster than baseline reads as 0");
        assert!((s.overhead_frac_vs(1000) - 0.5).abs() < 1e-12);
        assert_eq!(s.overhead_frac_vs(0), 0.0);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = ExecStats {
            work_cycles: 10,
            class_counts: [1, 2, 3, 4, 5],
            ..Default::default()
        };
        let b = a.clone();
        a += &b;
        assert_eq!(a.work_cycles, 20);
        assert_eq!(a.class_counts, [2, 4, 6, 8, 10]);
        assert_eq!(a.total_ops(), 30);
        a -= &b;
        assert_eq!(a, b, "sub_assign undoes add_assign");
    }

    #[test]
    fn class_indices_are_dense() {
        let mut seen = [false; 5];
        for c in OpClass::ALL {
            seen[c.idx()] = true;
        }
        assert!(seen.iter().all(|x| *x));
    }
}
