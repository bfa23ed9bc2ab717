//! Compiled kernels and the process-wide build cache.
//!
//! A [`CompiledKernel`] bundles the bytecode from `hauberk-kir::lower` with
//! the tables the VM wants preresolved per instruction stream instead of per
//! dispatch: hook costs (which depend on the device's [`CostModel`]) and
//! stable hook names for telemetry.
//!
//! [`compile_cached`] is the campaign-scale entry point: SWIFI campaigns
//! launch the *same* instrumented kernel thousands of times (once per
//! injection, across rayon workers), so the translator output is compiled
//! once — bytecode plus region plan, a [`BatchCompiled`] — and shared via
//! `Arc` by the VM with regions on and off alike. A lookup compares a cheap
//! structural fingerprint first and confirms every hit with `KernelDef ==`
//! and `CostModel ==`, so a fingerprint collision can never silently execute
//! the wrong program — and a hit never pays for printing the kernel.

use crate::config::CostModel;
use crate::interp::{hook_cost, hook_kind_name};
use crate::vm_batch::{compile_batch, BatchCompiled};
use hauberk_kir::lower::{lower_kernel, LoweredKernel};
use hauberk_kir::KernelDef;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Bytecode plus preresolved per-hook tables.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    /// The lowered instruction stream and register layout.
    pub lowered: LoweredKernel,
    /// Dispatch cost of each hook (indexed like [`LoweredKernel::hooks`]).
    pub hook_costs: Vec<u64>,
    /// Stable telemetry label of each hook.
    pub hook_names: Vec<&'static str>,
}

/// Compile `kernel` for a device with cost model `cost` (uncached).
pub fn compile(kernel: &KernelDef, cost: &CostModel) -> CompiledKernel {
    let lowered = lower_kernel(kernel);
    let hook_costs = lowered
        .hooks
        .iter()
        .map(|h| hook_cost(cost, &h.kind))
        .collect();
    let hook_names = lowered
        .hooks
        .iter()
        .map(|h| hook_kind_name(&h.kind))
        .collect();
    CompiledKernel {
        lowered,
        hook_costs,
        hook_names,
    }
}

/// Cap on cached entries; property tests churn through thousands of generated
/// kernels, and clearing wholesale is simpler (and rare enough) compared to
/// an eviction policy.
const CACHE_CAP: usize = 256;

/// Structural fingerprint of a (kernel, cost model) pair: the kernel's name
/// and shape (variable count, parameter count, shared memory, top-level
/// statement count) plus every cost-model field. It costs a few
/// nanoseconds; equal fingerprints are only candidates, confirmed by `==`.
fn fingerprint(kernel: &KernelDef, cost: &CostModel) -> u64 {
    let mut h = DefaultHasher::new();
    kernel.name.hash(&mut h);
    kernel.vars.len().hash(&mut h);
    kernel.n_params.hash(&mut h);
    kernel.shared_mem_bytes.hash(&mut h);
    kernel.body.0.len().hash(&mut h);
    cost.hash(&mut h);
    h.finish()
}

struct CacheEntry {
    fingerprint: u64,
    kernel: KernelDef,
    cost: CostModel,
    compiled: Arc<BatchCompiled>,
}

/// Compile `kernel` (bytecode and region plan) through the process-wide
/// build cache.
///
/// Keyed by kernel structure + cost model, so the same instrumented build
/// is compiled once per campaign and shared across all rayon workers. The
/// lock is held across a miss's compilation, so concurrent launches of one
/// kernel compile it once.
pub fn compile_cached(kernel: &KernelDef, cost: &CostModel) -> Arc<BatchCompiled> {
    static CACHE: Mutex<Vec<CacheEntry>> = Mutex::new(Vec::new());
    let fp = fingerprint(kernel, cost);
    let mut entries = hauberk_telemetry::lock_recover(&CACHE);
    if let Some(e) = entries
        .iter()
        .find(|e| e.fingerprint == fp && e.cost == *cost && e.kernel == *kernel)
    {
        return Arc::clone(&e.compiled);
    }
    if entries.len() >= CACHE_CAP {
        entries.clear();
    }
    let compiled = Arc::new(compile_batch(kernel, cost));
    entries.push(CacheEntry {
        fingerprint: fp,
        kernel: kernel.clone(),
        cost: cost.clone(),
        compiled: Arc::clone(&compiled),
    });
    compiled
}

/// Disassemble `kernel` as the bytecode engine would execute it (the
/// minimal-repro artifact the differential tests print on divergence).
pub fn disassemble(kernel: &KernelDef) -> String {
    lower_kernel(kernel).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hauberk_kir::builder::KernelBuilder;
    use hauberk_kir::{Expr, PrimTy, Ty};

    fn tiny() -> KernelDef {
        let mut b = KernelBuilder::new("tiny");
        let out = b.param("out", Ty::global_ptr(PrimTy::F32));
        b.store(Expr::var(out), Expr::i32(0), Expr::f32(1.0));
        b.finish()
    }

    #[test]
    fn cache_shares_compilations() {
        let k = tiny();
        let cost = CostModel::default();
        let a = compile_cached(&k, &cost);
        let b = compile_cached(&k, &cost);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn cache_distinguishes_cost_models() {
        let k = tiny();
        let a = compile_cached(&k, &CostModel::default());
        let b = compile_cached(
            &k,
            &CostModel {
                mem_base: 99,
                ..CostModel::default()
            },
        );
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn cache_keeps_same_named_kernels_apart_and_hits_on_clones() {
        let k = tiny();
        let mut other = KernelBuilder::new("tiny");
        let out = other.param("out", Ty::global_ptr(PrimTy::F32));
        other.store(Expr::var(out), Expr::i32(0), Expr::f32(2.0));
        let other = other.finish();
        assert_eq!(other.name, k.name);
        let cost = CostModel::default();
        assert_eq!(fingerprint(&k, &cost), fingerprint(&other, &cost));
        let a = compile_cached(&k, &cost);
        let b = compile_cached(&other, &cost);
        assert!(!Arc::ptr_eq(&a, &b), "same fingerprint, different kernel");
        assert_ne!(a.compiled.lowered, b.compiled.lowered);
        assert!(Arc::ptr_eq(&a, &compile_cached(&k.clone(), &cost)));
        assert!(Arc::ptr_eq(&b, &compile_cached(&other.clone(), &cost)));
    }

    #[test]
    fn disassembly_mentions_the_store() {
        let d = disassemble(&tiny());
        assert!(d.contains("store"), "{d}");
    }
}
