//! Differential property suite: every execution engine setting against the
//! others — the tree-walking interpreter, and the VM with full-mask regions
//! off (`bytecode`) and on (`batch`).
//!
//! The compiled engines (`hauberk-sim`'s `vm` and `vm_batch` modules) are
//! fast because they precompute types, jump targets, charge classes, and —
//! for the batch tier — lane-blocked region plans at lowering time; the tree
//! walker stays simple and obviously faithful to the KIR semantics. This
//! suite is the proof that all three agree: randomly generated kernels —
//! arithmetic over every primitive type, casts, nested control flow,
//! `while`/`break`/`continue`, shared memory with barriers, atomics — run
//! under every engine and must produce
//!
//!   * identical [`LaunchOutcome`]s (including [`ExecStats`] and traps),
//!   * bit-identical output memory,
//!   * identical hook dispatch sequences (site, mask, argument bits, target
//!     bits after the runtime ran — recorded by a [`Recorder`] wrapper),
//!   * identical loop-check sequences and detector alarms,
//!
//! fault-free *and* under injected faults with pinned parameters (site,
//! thread, occurrence, XOR mask all derived from the proptest case, so every
//! failure replays exactly). The generator is heavy on divergence (guarded
//! accumulation, data-dependent `while` loops, per-lane `break`/`continue`),
//! so the batch tier's region fast path and its scalar fallback at
//! divergence/barrier/atomic boundaries are both exercised constantly. On
//! any mismatch the test panics with the offending kernel pretty-printed
//! next to its bytecode disassembly.
//!
//! Case counts: 256 per property in release (the CI release-test job), a
//! smaller smoke count under `cfg(debug_assertions)` so `cargo test` stays
//! quick locally. `PROPTEST_CASES` overrides both.

use hauberk::builds::{build, BuildVariant, FtOptions};
use hauberk::control::ControlBlock;
use hauberk::runtime::{FiFtRuntime, FiRuntime, FtRuntime, ProfilerRuntime};
use hauberk::translator::FiMap;
use hauberk_kir::builder::KernelBuilder;
use hauberk_kir::printer::print_kernel;
use hauberk_kir::stmt::{LoopId, Stmt};
use hauberk_kir::validate::validate_kernel;
use hauberk_kir::{
    BinOp, BuiltinVar, Expr, Hook, KernelDef, MathFn, PrimTy, Ty, UnOp, Value, VarId,
};
use hauberk_sim::{
    disassemble, ArmedFault, Device, DeviceConfig, ExecEngine, FaultSite, HookCtx, HookRuntime,
    Launch, LaunchOutcome, LoopCheckCtx, RegCorruption,
};
use proptest::prelude::*;

/// 64 per-thread result slots × 4 registers, plus an 8-element tail that the
/// atomic statements contend on.
const OUT_ELEMS: u32 = 64 * 4 + 8;

fn cases() -> u32 {
    if cfg!(debug_assertions) {
        32
    } else {
        256
    }
}

// ---------------------------------------------------------------------------
// Kernel generator
// ---------------------------------------------------------------------------

/// Recipe for one generated statement. Indices are taken modulo the register
/// pools at materialization time, so any byte values are valid.
#[derive(Debug, Clone)]
enum GenStmt {
    /// `f_dst = <fp expr>` — add/mul/abs/min/max/sqrt/sin/safe-div.
    FpDef(u8, u8, u8),
    /// `f_dst += f_src * eps`.
    FpAcc(u8, u8),
    /// `i_dst = <int expr>` — and/mul/xor-shl/shr/safe-rem/safe-div/neg/not.
    IntDef(u8, u8, u8),
    /// `u_dst = <u32 expr>` — hash-mul/xorshift/add-cast/shl-or.
    UDef(u8, u8, u8),
    /// Cross-type cast chain.
    Cast(u8, u8, u8),
    /// `if`/`if-else` guarded accumulation, various comparisons.
    Guarded(u8, u8, u8),
    /// Bounded `while` countdown with optional `break`/`continue`.
    WhileDec(u8, u8),
    /// Stage a value through shared memory with barriers.
    SharedMix(u8, u8),
    /// `atomic_add` into the contended tail of `out`.
    AtomicBump(u8),
}

#[derive(Debug, Clone)]
struct GenKernel {
    trip: u8,
    body: Vec<GenStmt>,
}

fn gen_stmt() -> impl Strategy<Value = GenStmt> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| GenStmt::FpDef(a, b, c)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| GenStmt::FpAcc(a, b)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| GenStmt::IntDef(a, b, c)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| GenStmt::UDef(a, b, c)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| GenStmt::Cast(a, b, c)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| GenStmt::Guarded(a, b, c)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| GenStmt::WhileDec(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| GenStmt::SharedMix(a, b)),
        any::<u8>().prop_map(GenStmt::AtomicBump),
    ]
}

fn gen_kernel() -> impl Strategy<Value = GenKernel> {
    (1u8..20, prop::collection::vec(gen_stmt(), 1..10))
        .prop_map(|(trip, body)| GenKernel { trip, body })
}

/// Materialize the recipe as a KIR kernel. Constructed to always be
/// type-correct, terminating (loops bounded, `while` counters masked small)
/// and in-bounds, but otherwise free to exercise every operator the VM has a
/// fast path for.
fn materialize(g: &GenKernel) -> KernelDef {
    let mut b = KernelBuilder::new("generated");
    let out = b.param("out", Ty::global_ptr(PrimTy::F32));
    let inp = b.param("inp", Ty::global_ptr(PrimTy::F32));
    let n = b.param("n", Ty::I32);
    b.shared_mem(32 * 4); // one f32 per lane of the single warp per block
    let tid = b.local("tid", Ty::I32);
    b.assign(tid, b.global_thread_id_x());

    let f: Vec<VarId> = (0..4)
        .map(|i| b.let_(format!("f{i}"), Ty::F32, Expr::f32(0.5 + i as f32)))
        .collect();
    let iv: Vec<VarId> = (0..4)
        .map(|i| b.let_(format!("i{i}"), Ty::I32, Expr::i32(i + 1)))
        .collect();
    let uv: Vec<VarId> = (0..2u32)
        .map(|i| b.let_(format!("u{i}"), Ty::U32, Expr::u32(0x9E37 + i)))
        .collect();

    let it = b.local("it", Ty::I32);
    b.for_range(it, Expr::var(n), |b| {
        for s in &g.body {
            emit_stmt(b, s, &f, &iv, &uv, it, tid, out, inp);
        }
        // Always read some input so loads stay exercised (tid-bounded).
        b.assign(
            f[0],
            Expr::add(
                Expr::var(f[0]),
                Expr::load(
                    Expr::var(inp),
                    Expr::bin(BinOp::Rem, Expr::var(tid), Expr::i32(64)),
                ),
            ),
        );
    });
    for (i, fv) in f.iter().enumerate() {
        b.store(
            Expr::var(out),
            Expr::add(Expr::mul(Expr::var(tid), Expr::i32(4)), Expr::i32(i as i32)),
            Expr::var(*fv),
        );
    }
    // Fold the integer registers into one observable slot so int/u32/cast
    // divergence shows up in output memory, not just in stats.
    b.store(
        Expr::var(out),
        Expr::bin(BinOp::And, Expr::var(tid), Expr::i32(63)),
        Expr::add(
            Expr::load(
                Expr::var(out),
                Expr::bin(BinOp::And, Expr::var(tid), Expr::i32(63)),
            ),
            Expr::mul(
                Expr::Cast(PrimTy::F32, Box::new(Expr::var(iv[0]))),
                Expr::f32(1e-6),
            ),
        ),
    );
    b.store(
        Expr::var(out),
        Expr::bin(BinOp::And, Expr::var(tid), Expr::i32(63)),
        Expr::add(
            Expr::load(
                Expr::var(out),
                Expr::bin(BinOp::And, Expr::var(tid), Expr::i32(63)),
            ),
            Expr::mul(
                Expr::Cast(PrimTy::F32, Box::new(Expr::var(uv[1]))),
                Expr::f32(1e-12),
            ),
        ),
    );
    b.finish()
}

#[allow(clippy::too_many_arguments)]
fn emit_stmt(
    b: &mut KernelBuilder,
    s: &GenStmt,
    f: &[VarId],
    iv: &[VarId],
    uv: &[VarId],
    it: VarId,
    tid: VarId,
    out: VarId,
    _inp: VarId,
) {
    match s {
        GenStmt::FpDef(dst, src, kind) => {
            let d = f[*dst as usize % 4];
            let s0 = Expr::var(f[*src as usize % 4]);
            let s1 = Expr::var(f[(*src as usize + 1) % 4]);
            let e = match kind % 8 {
                0 => Expr::add(s0, Expr::f32(1.25)),
                1 => Expr::mul(s0, Expr::f32(0.75)),
                2 => Expr::call(MathFn::Abs, vec![Expr::sub(s0, Expr::f32(0.1))]),
                3 => Expr::call(MathFn::Min, vec![s0, s1]),
                4 => Expr::call(MathFn::Max, vec![s0, Expr::f32(0.25)]),
                5 => Expr::call(MathFn::Sqrt, vec![Expr::call(MathFn::Abs, vec![s0])]),
                6 => Expr::call(MathFn::Sin, vec![s0]),
                _ => Expr::div(s0, Expr::add(Expr::mul(s1.clone(), s1), Expr::f32(1.0))),
            };
            b.assign(d, e);
        }
        GenStmt::FpAcc(dst, src) => {
            let d = f[*dst as usize % 4];
            b.assign(
                d,
                Expr::add(
                    Expr::var(d),
                    Expr::mul(Expr::var(f[*src as usize % 4]), Expr::f32(0.001)),
                ),
            );
        }
        GenStmt::IntDef(dst, src, kind) => {
            let d = iv[*dst as usize % 4];
            let s0 = Expr::var(iv[*src as usize % 4]);
            let e = match kind % 8 {
                0 => Expr::bin(BinOp::And, Expr::add(s0, Expr::var(it)), Expr::i32(1023)),
                1 => Expr::add(Expr::mul(s0, Expr::i32(3)), Expr::i32(1)),
                2 => Expr::bin(
                    BinOp::Xor,
                    s0,
                    Expr::bin(BinOp::Shl, Expr::var(it), Expr::i32(2)),
                ),
                3 => Expr::bin(BinOp::Shr, s0, Expr::i32(1)),
                4 => Expr::bin(
                    BinOp::Rem,
                    s0,
                    Expr::add(
                        Expr::bin(BinOp::And, Expr::var(it), Expr::i32(7)),
                        Expr::i32(1),
                    ),
                ),
                5 => Expr::div(
                    s0,
                    Expr::add(
                        Expr::bin(BinOp::And, Expr::var(it), Expr::i32(3)),
                        Expr::i32(1),
                    ),
                ),
                6 => Expr::Un(UnOp::Neg, Box::new(s0)),
                _ => Expr::Un(UnOp::BitNot, Box::new(s0)),
            };
            b.assign(d, e);
        }
        GenStmt::UDef(dst, src, kind) => {
            let d = uv[*dst as usize % 2];
            let s0 = Expr::var(uv[*src as usize % 2]);
            let e = match kind % 4 {
                0 => Expr::mul(s0, Expr::u32(2654435761)),
                1 => Expr::bin(
                    BinOp::Xor,
                    s0.clone(),
                    Expr::bin(BinOp::Shr, s0, Expr::u32(13)),
                ),
                2 => Expr::add(s0, Expr::Cast(PrimTy::U32, Box::new(Expr::var(it)))),
                _ => Expr::bin(
                    BinOp::Or,
                    Expr::bin(BinOp::Shl, s0, Expr::u32(3)),
                    Expr::u32(5),
                ),
            };
            b.assign(d, e);
        }
        GenStmt::Cast(dst, src, kind) => match kind % 6 {
            0 => {
                let d = f[*dst as usize % 4];
                b.assign(
                    d,
                    Expr::Cast(PrimTy::F32, Box::new(Expr::var(iv[*src as usize % 4]))),
                );
            }
            1 => {
                let d = iv[*dst as usize % 4];
                b.assign(
                    d,
                    Expr::Cast(PrimTy::I32, Box::new(Expr::var(f[*src as usize % 4]))),
                );
            }
            2 => {
                let d = uv[*dst as usize % 2];
                b.assign(
                    d,
                    Expr::Cast(PrimTy::U32, Box::new(Expr::var(iv[*src as usize % 4]))),
                );
            }
            3 => {
                let d = iv[*dst as usize % 4];
                b.assign(
                    d,
                    Expr::Cast(PrimTy::I32, Box::new(Expr::var(uv[*src as usize % 2]))),
                );
            }
            4 => {
                let d = f[*dst as usize % 4];
                b.assign(
                    d,
                    Expr::Cast(PrimTy::F32, Box::new(Expr::var(uv[*src as usize % 2]))),
                );
            }
            _ => {
                let d = uv[*dst as usize % 2];
                b.assign(
                    d,
                    Expr::Cast(
                        PrimTy::U32,
                        Box::new(Expr::call(
                            MathFn::Abs,
                            vec![Expr::var(f[*src as usize % 4])],
                        )),
                    ),
                );
            }
        },
        GenStmt::Guarded(dst, src, kind) => {
            let d = f[*dst as usize % 4];
            let sv = f[*src as usize % 4];
            let itk = Expr::bin(BinOp::Rem, Expr::var(it), Expr::i32(5));
            let cond = match kind % 6 {
                0 => Expr::lt(itk, Expr::i32(3)),
                1 => Expr::bin(BinOp::Gt, itk, Expr::i32(1)),
                2 => Expr::bin(BinOp::Eq, itk, Expr::i32(2)),
                3 => Expr::bin(BinOp::Ne, itk, Expr::i32(0)),
                4 => Expr::bin(
                    BinOp::LAnd,
                    Expr::lt(itk, Expr::i32(4)),
                    Expr::bin(
                        BinOp::Gt,
                        Expr::bin(BinOp::And, Expr::var(tid), Expr::i32(3)),
                        Expr::i32(0),
                    ),
                ),
                _ => Expr::bin(
                    BinOp::LOr,
                    Expr::bin(BinOp::Le, itk, Expr::i32(1)),
                    Expr::bin(BinOp::Ge, Expr::var(tid), Expr::i32(40)),
                ),
            };
            if kind % 2 == 0 {
                b.if_(cond, |b| {
                    b.assign(d, Expr::add(Expr::var(d), Expr::var(sv)));
                });
            } else {
                b.if_else(
                    cond,
                    |b| {
                        b.assign(d, Expr::add(Expr::var(d), Expr::var(sv)));
                    },
                    |b| {
                        b.assign(d, Expr::mul(Expr::var(d), Expr::f32(0.5)));
                    },
                );
            }
        }
        GenStmt::WhileDec(dst, kind) => {
            let d = f[*dst as usize % 4];
            let w = iv[3];
            // Bound the counter, then count it down; the decrement comes
            // first so a `continue` can never loop forever.
            b.assign(w, Expr::bin(BinOp::And, Expr::var(w), Expr::i32(7)));
            b.while_(Expr::bin(BinOp::Gt, Expr::var(w), Expr::i32(0)), |b| {
                b.assign(w, Expr::sub(Expr::var(w), Expr::i32(1)));
                match kind % 3 {
                    1 => b.if_(Expr::bin(BinOp::Eq, Expr::var(w), Expr::i32(2)), |b| {
                        b.stmt(Stmt::Break)
                    }),
                    2 => b.if_(Expr::bin(BinOp::Eq, Expr::var(w), Expr::i32(3)), |b| {
                        b.stmt(Stmt::Continue)
                    }),
                    _ => {}
                }
                b.assign(d, Expr::add(Expr::var(d), Expr::f32(0.01)));
            });
        }
        GenStmt::SharedMix(dst, src) => {
            let d = f[*dst as usize % 4];
            let sv = f[*src as usize % 4];
            let lane = Expr::Builtin(BuiltinVar::ThreadIdxX);
            b.store(
                Expr::Builtin(BuiltinVar::SharedBaseF32),
                lane.clone(),
                Expr::var(sv),
            );
            b.sync();
            b.assign(
                d,
                Expr::add(
                    Expr::var(d),
                    Expr::mul(
                        Expr::load(
                            Expr::Builtin(BuiltinVar::SharedBaseF32),
                            Expr::bin(BinOp::And, Expr::add(lane, Expr::i32(1)), Expr::i32(31)),
                        ),
                        Expr::f32(0.125),
                    ),
                ),
            );
            b.sync();
        }
        GenStmt::AtomicBump(src) => {
            b.atomic_add(
                Expr::var(out),
                Expr::add(
                    Expr::i32(256),
                    Expr::bin(BinOp::And, Expr::var(tid), Expr::i32(7)),
                ),
                Expr::mul(Expr::var(f[*src as usize % 4]), Expr::f32(0.125)),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Recording runtime wrapper
// ---------------------------------------------------------------------------

/// Wraps any [`HookRuntime`] and logs every interaction between the engine
/// and the runtime that the inner runtime observes: hook dispatches (with
/// argument bits and post-dispatch target bits), loop checks (with iterator
/// bits and the condition mask), and register corruptions. The interest
/// filter is forwarded, so the batched VM skips what the inner runtime does
/// not observe while the tree walker still dispatches it (unlogged); two
/// engines agree iff their logs are equal.
struct Recorder<R> {
    inner: R,
    log: Vec<String>,
}

impl<R> Recorder<R> {
    fn new(inner: R) -> Self {
        Recorder {
            inner,
            log: Vec::new(),
        }
    }
}

/// A no-op runtime that keeps the trait's default interest filter (observe
/// every hook and loop), so every engine takes its full dispatch path and
/// the [`Recorder`] logs every dispatch context.
struct ObserveAll;

impl HookRuntime for ObserveAll {
    fn on_hook(&mut self, _hook: &Hook, _ctx: &mut HookCtx) {}
}

fn bits_of(vals: &[Value]) -> Vec<u32> {
    vals.iter().map(|v| v.to_bits()).collect()
}

impl<R: HookRuntime> HookRuntime for Recorder<R> {
    fn on_hook(&mut self, hook: &Hook, ctx: &mut HookCtx) {
        if !self.inner.observes_hook(hook) {
            self.inner.on_hook(hook, ctx);
            return;
        }
        let args: Vec<Vec<u32>> = ctx.args.iter().map(|a| bits_of(a)).collect();
        self.inner.on_hook(hook, ctx);
        let target = ctx.target.as_ref().map(|t| bits_of(t));
        self.log.push(format!(
            "hook site={} kind={:?} blk={} warp={} act={:08x} cyc={} args={:?} target={:?}",
            hook.site, hook.kind, ctx.block_id, ctx.warp_id, ctx.active, ctx.cycles, args, target,
        ));
    }

    fn on_loop_check(&mut self, loop_id: LoopId, ctx: &mut LoopCheckCtx) {
        self.inner.on_loop_check(loop_id, ctx);
        if !self.inner.observes_loop(loop_id) {
            return;
        }
        let iter = ctx.iter_var.as_ref().map(|t| bits_of(t));
        self.log.push(format!(
            "loop_check loop={} blk={} warp={} act={:08x} iter#{} cyc={} iter_var={:?} cond={:08x}",
            loop_id,
            ctx.block_id,
            ctx.warp_id,
            ctx.active,
            ctx.iteration,
            ctx.cycles,
            iter,
            *ctx.cond_mask,
        ));
    }

    fn register_corruption(
        &mut self,
        hook: &Hook,
        first_thread: u32,
        active: u32,
    ) -> Option<RegCorruption> {
        let r = self.inner.register_corruption(hook, first_thread, active);
        if let Some(rc) = &r {
            self.log.push(format!(
                "reg_corrupt site={} var={} lane={} mask={:08x}",
                hook.site, rc.var, rc.lane, rc.mask,
            ));
        }
        r
    }

    fn observes_hook(&self, hook: &Hook) -> bool {
        self.inner.observes_hook(hook)
    }

    fn observes_loop(&self, loop_id: LoopId) -> bool {
        self.inner.observes_loop(loop_id)
    }
}

// ---------------------------------------------------------------------------
// Differential harness
// ---------------------------------------------------------------------------

struct RunResult {
    outcome: LaunchOutcome,
    out_bits: Vec<u32>,
    log: Vec<String>,
}

/// Run `kernel` on one engine with a fresh device and a recording runtime.
/// Returns the observable result plus the inner runtime for engine-specific
/// assertions (alarms, delivery flags).
fn run_engine<R: HookRuntime>(
    kernel: &KernelDef,
    trip: u8,
    engine: ExecEngine,
    inner: R,
) -> (RunResult, R) {
    let mut config = DeviceConfig::small_gpu();
    config.engine = engine;
    let mut dev = Device::new(config);
    let out = dev.alloc(PrimTy::F32, OUT_ELEMS);
    let inp = dev.alloc(PrimTy::F32, 64);
    let data: Vec<f32> = (0..64).map(|i| (i as f32 * 0.17).sin() * 3.0).collect();
    dev.mem.copy_in_f32(inp, &data);
    // The budget bounds runaway loops when a fault corrupts an iterator:
    // both engines must then report the same hang at the same cycle.
    let launch = Launch::grid1d(2, 32).with_budget(400_000);
    let mut rt = Recorder::new(inner);
    let outcome = dev.launch(
        kernel,
        &[Value::Ptr(out), Value::Ptr(inp), Value::I32(trip as i32)],
        &launch,
        &mut rt,
    );
    let out_bits = dev
        .mem
        .copy_out_f32(out, OUT_ELEMS)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    (
        RunResult {
            outcome,
            out_bits,
            log: rt.log,
        },
        rt.inner,
    )
}

/// The divergence trap: compare every engine's run against the tree-walk
/// reference (the first entry) and, on any mismatch, panic with the kernel
/// source, its bytecode disassembly, and the first point of divergence —
/// everything needed to reproduce and debug by hand.
fn check_agreement(kernel: &KernelDef, label: &str, runs: &[(ExecEngine, &RunResult)]) {
    let mut diffs = String::new();
    let (ref_engine, reference) = runs[0];
    for &(engine, run) in &runs[1..] {
        let rn = ref_engine.name();
        let en = engine.name();
        if reference.outcome != run.outcome {
            diffs.push_str(&format!(
                "outcome differs:\n  {rn}: {:?}\n  {en}: {:?}\n",
                reference.outcome, run.outcome
            ));
        }
        if reference.out_bits != run.out_bits {
            let i = reference
                .out_bits
                .iter()
                .zip(&run.out_bits)
                .position(|(a, b)| a != b)
                .unwrap_or(usize::MAX);
            diffs.push_str(&format!(
                "output memory differs first at word {i}: {rn}={:#010x} {en}={:#010x}\n",
                reference.out_bits.get(i).copied().unwrap_or(0),
                run.out_bits.get(i).copied().unwrap_or(0),
            ));
        }
        if reference.log != run.log {
            let i = reference.log.iter().zip(&run.log).position(|(a, b)| a != b);
            match i {
                Some(i) => diffs.push_str(&format!(
                    "runtime event {i} differs:\n  {rn}: {}\n  {en}: {}\n",
                    reference.log[i], run.log[i]
                )),
                None => diffs.push_str(&format!(
                    "runtime event count differs: {rn}={} {en}={}\n",
                    reference.log.len(),
                    run.log.len()
                )),
            }
        }
    }
    if !diffs.is_empty() {
        panic!(
            "ENGINE DIVERGENCE [{label}]\n{diffs}--- kernel ---\n{}\n--- bytecode ---\n{}",
            print_kernel(kernel),
            disassemble(kernel),
        );
    }
}

/// Derive a pinned fault from proptest-supplied selectors: every byte of the
/// failing case is part of the replay, so shrinking converges on a minimal
/// (kernel, fault) pair.
fn pick_fault(fi: &FiMap, kind: u8, site_sel: u16, thread: u8, occ: u8, mask: u32) -> ArmedFault {
    let sites = &fi.sites;
    let i = site_sel as usize % sites.len().max(1);
    let site = match kind % 4 {
        0 => FaultSite::HookTarget {
            site: sites[i].site,
        },
        1 => FaultSite::RegisterLive {
            site: sites[i].site,
            var: sites[(i * 7 + 1) % sites.len()].var,
        },
        k => {
            let loops: Vec<_> = if k == 2 {
                fi.loops.iter().filter(|l| l.has_iterator).collect()
            } else {
                fi.loops.iter().collect()
            };
            if loops.is_empty() {
                FaultSite::HookTarget {
                    site: sites[i].site,
                }
            } else {
                let l = loops[site_sel as usize % loops.len()];
                if k == 2 {
                    FaultSite::LoopIterator { loop_id: l.loop_id }
                } else {
                    FaultSite::LoopDecision { loop_id: l.loop_id }
                }
            }
        }
    };
    ArmedFault {
        site,
        thread: thread as u32 % 64,
        occurrence: 1 + (occ as u64 % 5),
        mask: mask | 1, // never a no-op fault
    }
}

/// Profile the kernel and return trained ranges for its detectors.
fn train_ranges(kernel: &KernelDef, trip: u8) -> Vec<hauberk::RangeSet> {
    let profiler = build(kernel, BuildVariant::Profiler(FtOptions::default())).unwrap();
    let (r, pr) = run_engine(
        &profiler.kernel,
        trip,
        ExecEngine::TreeWalk,
        ProfilerRuntime::default(),
    );
    assert!(r.outcome.is_completed(), "profiling run must complete");
    (0..profiler.detectors.len())
        .map(|d| hauberk::ranges::profile_ranges(pr.samples(d as u32)))
        .collect()
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Fault-free agreement on the raw kernel and on its FI build, with
    /// every dispatch observed: identical outcome (stats included),
    /// bit-identical output memory, and identical loop-check and FI-hook
    /// contexts (iterator, mask, argument and target bits, cycle stamps).
    #[test]
    fn engines_agree_fault_free(g in gen_kernel()) {
        let k = materialize(&g);
        validate_kernel(&k).unwrap();
        let fi = build(&k, BuildVariant::Fi).unwrap();
        for (kernel, label) in [(&k, "fault-free baseline"), (&fi.kernel, "fault-free FI build")] {
            let (tw, _) = run_engine(kernel, g.trip, ExecEngine::TreeWalk, ObserveAll);
            let (bc, _) = run_engine(kernel, g.trip, ExecEngine::Bytecode, ObserveAll);
            let (ba, _) = run_engine(kernel, g.trip, ExecEngine::Batch, ObserveAll);
            prop_assert!(tw.outcome.is_completed(), "generated kernels terminate: {:?}", tw.outcome);
            check_agreement(kernel, label, &[
                (ExecEngine::TreeWalk, &tw),
                (ExecEngine::Bytecode, &bc),
                (ExecEngine::Batch, &ba),
            ]);
        }
    }

    /// Fault-free agreement on the fully instrumented FT build: the FT hook
    /// dispatch sequence (argument bits, target bits, masks, cycle stamps)
    /// and detector alarms all match, and no alarm fires.
    #[test]
    fn engines_agree_instrumented(g in gen_kernel()) {
        let k = materialize(&g);
        let ranges = train_ranges(&k, g.trip);
        let ft = build(&k, BuildVariant::Ft(FtOptions::default())).unwrap();
        prop_assert_eq!(ft.detectors.len(), ranges.len());

        let mk = || FtRuntime::new(ControlBlock::with_ranges(ranges.clone()));
        let (tw, rt_tw) = run_engine(&ft.kernel, g.trip, ExecEngine::TreeWalk, mk());
        let (bc, rt_bc) = run_engine(&ft.kernel, g.trip, ExecEngine::Bytecode, mk());
        let (ba, rt_ba) = run_engine(&ft.kernel, g.trip, ExecEngine::Batch, mk());
        check_agreement(&ft.kernel, "instrumented FT", &[
            (ExecEngine::TreeWalk, &tw),
            (ExecEngine::Bytecode, &bc),
            (ExecEngine::Batch, &ba),
        ]);
        prop_assert!(!rt_tw.cb.sdc_flag, "fault-free FT run alarmed: {:?}", rt_tw.cb.alarms);
        for rt in [&rt_bc, &rt_ba] {
            prop_assert_eq!(
                format!("{:?}", rt_tw.cb.alarms),
                format!("{:?}", rt.cb.alarms)
            );
        }
    }

    /// Agreement under an injected fault on the FI build: same corruption
    /// delivery (site, occurrence, cycle), same downstream behaviour —
    /// including traps and budget-bounded hangs when the fault wrecks
    /// control flow.
    #[test]
    fn engines_agree_under_faults(
        g in gen_kernel(),
        kind in any::<u8>(),
        site_sel in any::<u16>(),
        thread in any::<u8>(),
        occ in any::<u8>(),
        mask in any::<u32>(),
    ) {
        let k = materialize(&g);
        let fi = build(&k, BuildVariant::Fi).unwrap();
        prop_assume!(!fi.fi.sites.is_empty());
        let fault = pick_fault(&fi.fi, kind, site_sel, thread, occ, mask);

        let (tw, rt_tw) = run_engine(
            &fi.kernel, g.trip, ExecEngine::TreeWalk, FiRuntime::new(Some(fault)));
        let (bc, rt_bc) = run_engine(
            &fi.kernel, g.trip, ExecEngine::Bytecode, FiRuntime::new(Some(fault)));
        let (ba, rt_ba) = run_engine(
            &fi.kernel, g.trip, ExecEngine::Batch, FiRuntime::new(Some(fault)));
        check_agreement(&fi.kernel, &format!("FI fault={fault:?}"), &[
            (ExecEngine::TreeWalk, &tw),
            (ExecEngine::Bytecode, &bc),
            (ExecEngine::Batch, &ba),
        ]);
        for rt in [&rt_bc, &rt_ba] {
            prop_assert_eq!(rt_tw.arm.delivered(), rt.arm.delivered());
            prop_assert_eq!(rt_tw.delivered_cycle, rt.delivered_cycle);
        }
    }

    /// Agreement of the full detection pipeline under faults: the FI&FT
    /// build with trained detectors must classify identically — same alarms,
    /// same SDC flag, same first-alarm cycle.
    #[test]
    fn engines_agree_faults_with_detectors(
        g in gen_kernel(),
        kind in any::<u8>(),
        site_sel in any::<u16>(),
        thread in any::<u8>(),
        occ in any::<u8>(),
        mask in any::<u32>(),
    ) {
        let k = materialize(&g);
        let ranges = train_ranges(&k, g.trip);
        let fift = build(&k, BuildVariant::FiFt(FtOptions::default())).unwrap();
        prop_assume!(!fift.fi.sites.is_empty());
        let fault = pick_fault(&fift.fi, kind, site_sel, thread, occ, mask);

        let mk = || FiFtRuntime::new(Some(fault), ControlBlock::with_ranges(ranges.clone()));
        let (tw, rt_tw) = run_engine(&fift.kernel, g.trip, ExecEngine::TreeWalk, mk());
        let (bc, rt_bc) = run_engine(&fift.kernel, g.trip, ExecEngine::Bytecode, mk());
        let (ba, rt_ba) = run_engine(&fift.kernel, g.trip, ExecEngine::Batch, mk());
        check_agreement(&fift.kernel, &format!("FI&FT fault={fault:?}"), &[
            (ExecEngine::TreeWalk, &tw),
            (ExecEngine::Bytecode, &bc),
            (ExecEngine::Batch, &ba),
        ]);
        for rt in [&rt_bc, &rt_ba] {
            prop_assert_eq!(rt_tw.arm.delivered(), rt.arm.delivered());
            prop_assert_eq!(rt_tw.cb.sdc_flag, rt.cb.sdc_flag);
            prop_assert_eq!(rt_tw.first_alarm_cycle, rt.first_alarm_cycle);
            prop_assert_eq!(
                format!("{:?}", rt_tw.cb.alarms),
                format!("{:?}", rt.cb.alarms)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic divergence-heavy case
// ---------------------------------------------------------------------------

/// A hand-built kernel that alternates full-mask arithmetic runs (batch
/// regions) with per-lane divergence, a barrier-staged shared-memory
/// shuffle, and contended atomics — every batch→scalar fallback boundary in
/// one kernel. The three engines must agree bit-for-bit.
#[test]
fn divergence_heavy_three_way() {
    let g = GenKernel {
        trip: 9,
        body: vec![
            GenStmt::FpDef(0, 1, 7),
            GenStmt::IntDef(1, 2, 2),
            GenStmt::UDef(0, 1, 1),
            GenStmt::Guarded(2, 0, 4),
            GenStmt::WhileDec(1, 1),
            GenStmt::WhileDec(3, 2),
            GenStmt::SharedMix(0, 2),
            GenStmt::AtomicBump(3),
            GenStmt::Cast(2, 1, 3),
            GenStmt::FpAcc(1, 0),
        ],
    };
    let k = materialize(&g);
    validate_kernel(&k).unwrap();
    let (tw, _) = run_engine(&k, g.trip, ExecEngine::TreeWalk, ObserveAll);
    let (bc, _) = run_engine(&k, g.trip, ExecEngine::Bytecode, ObserveAll);
    let (ba, _) = run_engine(&k, g.trip, ExecEngine::Batch, ObserveAll);
    assert!(tw.outcome.is_completed(), "{:?}", tw.outcome);
    check_agreement(
        &k,
        "divergence-heavy",
        &[
            (ExecEngine::TreeWalk, &tw),
            (ExecEngine::Bytecode, &bc),
            (ExecEngine::Batch, &ba),
        ],
    );
}
