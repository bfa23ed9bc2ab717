//! Device and cost-model configuration.

use crate::stats::OpClass;

/// Which execution engine a device uses to run kernels.
///
/// There are two executors, and the fast one has a switch. All settings
/// implement identical semantics (same `ExecStats`, same trap ordering, same
/// hook/fault behavior — enforced by the differential property suite); they
/// differ only in speed:
///
/// * [`TreeWalk`](ExecEngine::TreeWalk) interprets the KIR statement tree
///   directly. Slow, obviously correct; the reference oracle.
/// * [`Batch`](ExecEngine::Batch) runs the VM: flat register bytecode
///   compiled once per kernel (see `hauberk-kir::lower` and the
///   `bytecode`/`vm` modules) whose full-mask straight-line regions execute
///   as lane-blocked micro-ops with precomputed cycle-charge tables (see
///   `hauberk-kir::batch` and the `vm_batch` module), falling back to per-op
///   dispatch at any divergence/barrier/atomic boundary. The default for
///   every device, campaign, daemon job and golden run.
/// * [`Bytecode`](ExecEngine::Bytecode) is the same VM with regions off:
///   every instruction goes through per-op dispatch, which checks the
///   region fast path against the per-op path it replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecEngine {
    /// The tree-walking reference interpreter.
    TreeWalk,
    /// The VM with full-mask regions off (per-op dispatch only).
    Bytecode,
    /// The VM with full-mask regions on.
    Batch,
}

impl ExecEngine {
    /// Every engine, oracle first (the order the differential suites use).
    pub const ALL: [ExecEngine; 3] = [
        ExecEngine::TreeWalk,
        ExecEngine::Bytecode,
        ExecEngine::Batch,
    ];

    /// Stable CLI/telemetry name.
    pub fn name(self) -> &'static str {
        match self {
            ExecEngine::TreeWalk => "tree-walk",
            ExecEngine::Bytecode => "bytecode",
            ExecEngine::Batch => "batch",
        }
    }

    /// Parse a CLI/spec name: exactly what [`ExecEngine::name`] writes.
    pub fn parse(s: &str) -> Option<ExecEngine> {
        ExecEngine::ALL.into_iter().find(|e| e.name() == s)
    }
}

impl std::fmt::Display for ExecEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-operation-class issue costs and pairing rules.
///
/// Costs are *warp issue cycles* (SIMT: one instruction issues for the whole
/// warp). The absolute values are loosely modeled on the GT200 generation the
/// paper evaluates (fast integer add, 4-cycle FP pipe, ~4× slower
/// special-function unit, expensive memory); what the reproduction depends on
/// is their **relationships**:
///
/// * integer ops are cheaper than FP ops (why PNS has the smallest
///   Hauberk-L overhead, §IX.A),
/// * SFU ops (sqrt/sin/cos/div) dominate FP-heavy loop bodies,
/// * a memory access costs its base plus an extra charge per additional
///   128-byte segment touched by the warp (coalescing),
/// * two *consecutive, independent* operations of *different* classes can
///   dual-issue (the second is free). Duplicated computation competes for
///   the same unit class and does not pair — the reason optimized full
///   duplication (R-Scatter) stays expensive on saturated GPU kernels while
///   Hauberk's cross-class XOR/counter instructions are nearly free.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CostModel {
    /// Integer ALU op cost.
    pub ialu: u64,
    /// FP unit op cost.
    pub falu: u64,
    /// Special-function unit cost (sqrt, rsqrt, sin, cos, exp, log, FP div).
    pub sfu: u64,
    /// Control overhead per branch/loop-iteration decision.
    pub ctl: u64,
    /// `__syncthreads()` cost.
    pub sync: u64,
    /// Base cost of a warp memory access (fully coalesced).
    pub mem_base: u64,
    /// Extra cost per additional 128-byte segment touched by the warp.
    pub mem_segment_extra: u64,
    /// Segment size in bytes for coalescing (128 on GT200).
    pub segment_bytes: u32,
    /// Cost of the FT-library `HauberkCheckRange` call (per detector, after
    /// the loop; checks up to three value ranges on the FP path).
    pub hook_check_range: u64,
    /// Cost of the FT-library `HauberkCheckEqual` call.
    pub hook_check_equal: u64,
    /// Cost of the kernel-exit checksum validation.
    pub hook_checksum_check: u64,
    /// Cost of recording a non-loop mismatch into the control block
    /// (only paid when a mismatch occurs, i.e. under faults).
    pub hook_nl_mismatch: u64,
    /// Whether dual-issue pairing is enabled.
    pub dual_issue: bool,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            ialu: 2,
            falu: 4,
            sfu: 16,
            ctl: 2,
            sync: 4,
            mem_base: 16,
            mem_segment_extra: 8,
            segment_bytes: 128,
            hook_check_range: 24,
            hook_check_equal: 8,
            hook_checksum_check: 6,
            hook_nl_mismatch: 8,
            dual_issue: true,
        }
    }
}

impl CostModel {
    /// Issue cost of one op of `class`.
    pub fn class_cost(&self, class: OpClass) -> u64 {
        match class {
            OpClass::IAlu => self.ialu,
            OpClass::FAlu => self.falu,
            OpClass::Sfu => self.sfu,
            OpClass::Ctl => self.ctl,
            OpClass::Mem => self.mem_base,
        }
    }
}

/// Configuration of a simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Number of streaming multiprocessors; blocks are assigned round-robin
    /// and simulated kernel time is the busiest SM's total.
    pub num_sms: u32,
    /// Warp width (lanes per warp). 32, like every CUDA device.
    pub warp_width: u32,
    /// Shared memory available per block, in bytes (16 KiB on GT200 — the
    /// limit that makes R-Scatter uncompilable for TPACF).
    pub shared_mem_per_block: u32,
    /// Global memory capacity in bytes (allocation beyond this fails).
    pub global_mem_bytes: u32,
    /// Strict (page-protected, CPU-style) memory checking: out-of-bounds
    /// accesses trap instead of wrapping, and integer division by zero traps.
    pub strict_memory: bool,
    /// Cost model.
    pub cost: CostModel,
    /// Execution engine ([`ExecEngine::Batch`] unless set).
    pub engine: ExecEngine,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig::gpu()
    }
}

impl DeviceConfig {
    /// A GT200-like GPU: 30 SMs, 32-lane warps, 16 KiB shared memory per
    /// block, permissive memory semantics.
    pub fn gpu() -> Self {
        DeviceConfig {
            num_sms: 30,
            warp_width: 32,
            shared_mem_per_block: 16 * 1024,
            global_mem_bytes: 64 * 1024 * 1024,
            strict_memory: false,
            cost: CostModel::default(),
            engine: ExecEngine::Batch,
        }
    }

    /// A small GPU for fast unit tests (4 SMs, 4 MiB of memory).
    pub fn small_gpu() -> Self {
        DeviceConfig {
            num_sms: 4,
            global_mem_bytes: 4 * 1024 * 1024,
            ..DeviceConfig::gpu()
        }
    }

    /// A CPU-mode device: one single-lane "SM" with strict page-granularity
    /// memory protection (the paper's explanation for the low SDC / high
    /// crash ratio of CPU programs, §II.A).
    pub fn cpu() -> Self {
        DeviceConfig {
            num_sms: 1,
            warp_width: 1,
            shared_mem_per_block: 64 * 1024,
            global_mem_bytes: 64 * 1024 * 1024,
            strict_memory: true,
            cost: CostModel {
                // CPU-mode times are not used for any figure; keep defaults.
                ..CostModel::default()
            },
            engine: ExecEngine::Batch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_gpu_like() {
        let c = DeviceConfig::default();
        assert_eq!(c.warp_width, 32);
        assert!(!c.strict_memory);
        assert!(c.cost.ialu < c.cost.falu);
        assert!(c.cost.falu < c.cost.sfu);
    }

    #[test]
    fn cpu_mode_is_strict_single_lane() {
        let c = DeviceConfig::cpu();
        assert!(c.strict_memory);
        assert_eq!(c.warp_width, 1);
        assert_eq!(c.num_sms, 1);
    }

    #[test]
    fn class_costs_consistent() {
        let m = CostModel::default();
        assert_eq!(m.class_cost(OpClass::IAlu), m.ialu);
        assert_eq!(m.class_cost(OpClass::Sfu), m.sfu);
        assert_eq!(m.class_cost(OpClass::Mem), m.mem_base);
    }

    #[test]
    fn engines_parse_only_their_names() {
        for e in ExecEngine::ALL {
            assert_eq!(ExecEngine::parse(e.name()), Some(e));
        }
        for alias in ["vm", "simd", "interp", "lane-vector", "Batch", ""] {
            assert_eq!(ExecEngine::parse(alias), None, "{alias}");
        }
    }
}
