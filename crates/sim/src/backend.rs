//! Per-launch preparation: what a device runs a kernel with.
//!
//! There are two executors. The tree walker ([`crate::interp::WarpExec`])
//! interprets the KIR tree directly and needs nothing prepared; it is the
//! reference oracle. The VM ([`crate::vm::VmExec`]) runs a
//! [`BatchCompiled`] — bytecode plus region plan — fetched from the
//! process-wide build cache, with full-mask regions on
//! ([`ExecEngine::Batch`]) or off ([`ExecEngine::Bytecode`]).
//!
//! Every setting must be **observationally equivalent**: identical
//! `ExecStats`, trap/hang ordering, hook and fault-injection windows, and
//! output bits for the same kernel and launch — they differ only in speed.
//! The differential suite at the workspace root enforces this.

use crate::bytecode::compile_cached;
use crate::config::{DeviceConfig, ExecEngine};
use crate::vm_batch::BatchCompiled;
use hauberk_kir::KernelDef;
use std::sync::Arc;

/// A launch's prepared executor, built once per launch by
/// [`ExecEngine::prepare`] and matched per warp by the device.
pub enum Prepared {
    /// The tree walker (nothing to compile).
    TreeWalk,
    /// The VM over a cached compilation.
    Vm {
        /// Bytecode plus region plan, shared across launches and workers.
        compiled: Arc<BatchCompiled>,
        /// Whether full-mask regions run (off = per-op dispatch only).
        regions: bool,
    },
}

impl ExecEngine {
    /// Prepare `kernel` for a device configured with `cfg` (compilation
    /// through the build cache, so relaunching one kernel is a lookup).
    pub fn prepare(self, kernel: &KernelDef, cfg: &DeviceConfig) -> Prepared {
        match self {
            ExecEngine::TreeWalk => Prepared::TreeWalk,
            ExecEngine::Bytecode | ExecEngine::Batch => Prepared::Vm {
                compiled: compile_cached(kernel, &cfg.cost),
                regions: self == ExecEngine::Batch,
            },
        }
    }

    /// The engine itself. Kept so that `engine.backend().prepare(..)` — the
    /// spelling perfbench's replica times `sim.prepare` with — still
    /// compiles; new code calls [`ExecEngine::prepare`] directly.
    pub fn backend(self) -> ExecEngine {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytecode_and_batch_launches_share_one_cache_entry() {
        let k = hauberk_kir::parser::parse_kernel(
            "kernel share_probe(out: *global i32, n: i32) {
                store(out, 0, n * 7 + 1);
            }",
        )
        .unwrap();
        let cfg = DeviceConfig::small_gpu();
        assert!(matches!(
            ExecEngine::TreeWalk.prepare(&k, &cfg),
            Prepared::TreeWalk
        ));
        let vm = |e: ExecEngine| match e.prepare(&k, &cfg) {
            Prepared::Vm { compiled, regions } => (compiled, regions),
            Prepared::TreeWalk => panic!("{e} prepared the tree walker"),
        };
        let (off, on) = (vm(ExecEngine::Bytecode), vm(ExecEngine::Batch));
        assert_eq!((off.1, on.1), (false, true));
        assert!(Arc::ptr_eq(&off.0, &on.0), "two cache entries");
        assert!(Arc::ptr_eq(&on.0, &compile_cached(&k, &cfg.cost)));
    }
}
