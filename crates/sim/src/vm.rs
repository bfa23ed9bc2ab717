//! The bytecode VM: warp-lockstep execution of compiled kernels.
//!
//! [`VmExec`] is the fast sibling of [`crate::interp::WarpExec`]. It runs the
//! flat register bytecode produced by `hauberk-kir::lower` with **bit-exact**
//! semantics — same charge ordering, same trap ordering, same producer-tag
//! plumbing for dual-issue pairing, same hook and fault windows, same
//! `ExecStats` — which the differential property suite at the workspace root
//! enforces against the tree walker on every CI run.
//!
//! ## Raw register file
//!
//! Where the tree walker allocates a `Vec<Value>` per expression node, the VM
//! works in one flat `Vec<u32>` (register-major, one word per lane) holding
//! each value's bit pattern (`Value::to_bits`). It can do this because KIR is
//! statically typed and every way a register changes at runtime preserves its
//! static type:
//!
//! * ordinary ops write results whose type the validator fixed at build time;
//! * injected faults go through `Value::xor_bits`, which flips bits but
//!   keeps the variant (`Bool` corruption is masked to bit 0, mirroring
//!   `xor_bits`' `& 1`);
//! * hook runtimes can mutate a target or loop iterator only through
//!   `HookCtx::xor_target` / `LoopCheckCtx::xor_iter`, which apply that same
//!   raw XOR to the register word in place.
//!
//! So the lowering annotates every op with its operands' static types
//! ([`Op::Bin::ta`], [`Op::Load::elem`], ...), and the hot lane loops run
//! directly on `u32` words — no 16-byte enum copies, no per-lane tag
//! dispatch, no nested `Vec` indexing. `Bool` registers maintain a `0/1`
//! invariant (exactly `Value::to_bits` of a `Bool`), and pointer registers
//! hold only the address (space and element type are static).
//!
//! Hook dispatch and the loop-check fault window hand the runtime a
//! [`Lanes`] over the raw register rows plus their static types: the
//! runtime's typed accessors rebuild one lane's [`Value`] at a time and
//! corrupt words in place, so nothing is materialized or written back.
//! Uncommon op/type combinations delegate to the *same* helper functions
//! the tree walker uses (`bin_value`, `math_value`, ... — crate-private in
//! `interp`), so their semantics cannot drift.
//!
//! ## Control flow
//!
//! Structured control flow runs on a small frame stack (one frame per open
//! `if` or loop) driven by the jump targets baked into the bytecode. The
//! protocol relies on the lowering's *join invariant* (see
//! `hauberk-kir::lower`): ordinary instructions always execute with a
//! non-empty mask; when every active lane leaves a path (`break`, an `if`
//! with no survivors), control jumps through a `join_pc` chain of
//! terminator-style ops ([`Op::EndArm`], [`Op::LoopNext`], [`Op::Halt`]) that
//! tolerate an empty mask. That is what keeps cycle charges identical to a
//! walker that simply never visits dead statements.
//!
//! ## Full-mask regions
//!
//! With regions on ([`ExecEngine::Batch`](crate::ExecEngine::Batch)), a
//! full-mask warp that reaches the start of a planned straight-line region
//! runs it as one block of lane-blocked micro-ops with a precomputed cycle
//! charge (see [`crate::vm_batch`]). With regions off
//! ([`ExecEngine::Bytecode`](crate::ExecEngine::Bytecode)) every instruction
//! goes through per-op dispatch, which is what a region must reproduce.
//! Everything else — the sorted-segment memory charge, the broadcast load,
//! the hook/loop interest filter — runs on both settings.
//!
//! The VM requires kernels that pass `hauberk_kir::validate::validate_kernel`
//! (lowering already panics on most invalid forms); on ill-typed kernels the
//! tree walker raises `IllegalInstruction` traps that the static annotations
//! here cannot reproduce.

use crate::bytecode::CompiledKernel;
use crate::config::DeviceConfig;
use crate::hang::{certifies, checks_at};
use crate::hooks::{value_of, xor_word, HookCtx, HookRuntime, Lanes, LoopCheckCtx};
use crate::interp::{
    bin_class, bin_value, builtin_lanes, cast_value, charge_cycles, charge_mem_op, charge_op,
    exhaust_budget, lanes, math_value, un_value, warp_initial_mask, ExecErr, Pipe, Tag, WarpGeom,
};
use crate::memory::MemRegion;
use crate::outcome::TrapReason;
use crate::stats::{ExecStats, OpClass};
use crate::vm_batch::{
    run_micro_ops, sorted_segment_count, table_idx, BatchCompiled, BatchKernel, ChargeEntry,
    NO_REGION,
};
use hauberk_kir::batch::TagSrc;
use hauberk_kir::lower::{Op, Reg, NO_REG};
use hauberk_kir::{BinOp, Expr, MathFn, MemSpace, PrimTy, Ty, UnOp, Value};
use hauberk_telemetry::{Event, Telemetry};

/// Raw-word equivalent of `as_index` for a statically-typed integer index.
#[inline(always)]
fn index_of(ty: PrimTy, raw: u32) -> i64 {
    match ty {
        PrimTy::I32 => raw as i32 as i64,
        PrimTy::U32 => raw as i64,
        // `Bool` lanes are 0/1 by invariant; `& 1` mirrors `from_bits`.
        PrimTy::Bool => (raw & 1) as i64,
        // Unreachable on validated kernels (the tree walker would trap).
        PrimTy::F32 => 0,
    }
}

/// `dst[l] = f(src[l])` over the active lanes.
#[inline(always)]
fn map1(
    regs: &mut [u32],
    w: usize,
    full: u32,
    mask: u32,
    d: usize,
    s: usize,
    f: impl Fn(u32) -> u32,
) {
    let (db, sb) = (d * w, s * w);
    assert!(db + w <= regs.len() && sb + w <= regs.len());
    if mask == full {
        for l in 0..w {
            regs[db + l] = f(regs[sb + l]);
        }
    } else {
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            regs[db + l] = f(regs[sb + l]);
        }
    }
}

/// `dst[l] = f(a[l], b[l])` over the active lanes.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn map2(
    regs: &mut [u32],
    w: usize,
    full: u32,
    mask: u32,
    d: usize,
    a: usize,
    b: usize,
    f: impl Fn(u32, u32) -> u32,
) {
    let (db, ab, bb) = (d * w, a * w, b * w);
    assert!(db + w <= regs.len() && ab + w <= regs.len() && bb + w <= regs.len());
    if mask == full {
        for l in 0..w {
            regs[db + l] = f(regs[ab + l], regs[bb + l]);
        }
    } else {
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            regs[db + l] = f(regs[ab + l], regs[bb + l]);
        }
    }
}

/// Fallible [`map1`]: lanes run in ascending order, the first trap wins
/// (matching the tree walker's lane order).
#[inline(always)]
fn try_map1(
    regs: &mut [u32],
    w: usize,
    full: u32,
    mask: u32,
    d: usize,
    s: usize,
    f: impl Fn(u32) -> Result<u32, TrapReason>,
) -> Result<(), TrapReason> {
    let (db, sb) = (d * w, s * w);
    if mask == full {
        for l in 0..w {
            regs[db + l] = f(regs[sb + l])?;
        }
    } else {
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            regs[db + l] = f(regs[sb + l])?;
        }
    }
    Ok(())
}

/// Fallible [`map2`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn try_map2(
    regs: &mut [u32],
    w: usize,
    full: u32,
    mask: u32,
    d: usize,
    a: usize,
    b: usize,
    f: impl Fn(u32, u32) -> Result<u32, TrapReason>,
) -> Result<(), TrapReason> {
    let (db, ab, bb) = (d * w, a * w, b * w);
    if mask == full {
        for l in 0..w {
            regs[db + l] = f(regs[ab + l], regs[bb + l])?;
        }
    } else {
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            regs[db + l] = f(regs[ab + l], regs[bb + l])?;
        }
    }
    Ok(())
}

/// Typed fast-path lane loops for [`Op::Bin`]. Every arm computes exactly
/// what [`bin_value`] computes for that (type, op) pair, on raw words; any
/// combination without a dedicated arm falls back to [`bin_value`] itself.
#[allow(clippy::too_many_arguments)]
fn bin_lanes(
    regs: &mut [u32],
    w: usize,
    full: u32,
    mask: u32,
    op: BinOp,
    ta: Ty,
    tb: Ty,
    d: usize,
    a: usize,
    b: usize,
    strict: bool,
) -> Result<(), TrapReason> {
    use BinOp::*;
    use PrimTy::*;
    macro_rules! m2 {
        ($f:expr) => {{
            map2(regs, w, full, mask, d, a, b, $f);
            return Ok(());
        }};
    }
    // f32 lane helpers: operate on the float interpretation, store the bits.
    macro_rules! ff {
        ($f:expr) => {
            m2!(|x, y| {
                let f: fn(f32, f32) -> f32 = $f;
                f(f32::from_bits(x), f32::from_bits(y)).to_bits()
            })
        };
    }
    macro_rules! fc {
        ($f:expr) => {
            m2!(|x, y| {
                let f: fn(f32, f32) -> bool = $f;
                f(f32::from_bits(x), f32::from_bits(y)) as u32
            })
        };
    }
    macro_rules! ii {
        ($f:expr) => {
            m2!(|x, y| {
                let f: fn(i32, i32) -> i32 = $f;
                f(x as i32, y as i32) as u32
            })
        };
    }
    macro_rules! ic {
        ($f:expr) => {
            m2!(|x, y| {
                let f: fn(i32, i32) -> bool = $f;
                f(x as i32, y as i32) as u32
            })
        };
    }
    match (ta, op) {
        (Ty::Prim(F32), Add) => ff!(|x, y| x + y),
        (Ty::Prim(F32), Sub) => ff!(|x, y| x - y),
        (Ty::Prim(F32), Mul) => ff!(|x, y| x * y),
        (Ty::Prim(F32), Div) => ff!(|x, y| x / y),
        (Ty::Prim(F32), Rem) => ff!(|x, y| x % y),
        (Ty::Prim(F32), Lt) => fc!(|x, y| x < y),
        (Ty::Prim(F32), Le) => fc!(|x, y| x <= y),
        (Ty::Prim(F32), Gt) => fc!(|x, y| x > y),
        (Ty::Prim(F32), Ge) => fc!(|x, y| x >= y),
        // f32 equality is bitwise in `bin_value` — raw comparison is exact.
        (Ty::Prim(F32), Eq) => m2!(|x, y| (x == y) as u32),
        (Ty::Prim(F32), Ne) => m2!(|x, y| (x != y) as u32),

        (Ty::Prim(I32), Add) => ii!(|x, y| x.wrapping_add(y)),
        (Ty::Prim(I32), Sub) => ii!(|x, y| x.wrapping_sub(y)),
        (Ty::Prim(I32), Mul) => ii!(|x, y| x.wrapping_mul(y)),
        (Ty::Prim(I32), Div) | (Ty::Prim(I32), Rem) => {
            try_map2(regs, w, full, mask, d, a, b, |x, y| {
                let (x, y) = (x as i32, y as i32);
                if y == 0 {
                    if strict {
                        return Err(TrapReason::IntDivByZero);
                    }
                    return Ok(0);
                }
                Ok(if op == Div {
                    x.wrapping_div(y) as u32
                } else {
                    x.wrapping_rem(y) as u32
                })
            })
        }
        (Ty::Prim(I32), And) => m2!(|x, y| x & y),
        (Ty::Prim(I32), Or) => m2!(|x, y| x | y),
        (Ty::Prim(I32), Xor) => m2!(|x, y| x ^ y),
        (Ty::Prim(I32), Shl) => ii!(|x, y| x.wrapping_shl(y as u32 & 31)),
        (Ty::Prim(I32), Shr) => ii!(|x, y| x.wrapping_shr(y as u32 & 31)),
        (Ty::Prim(I32), Lt) => ic!(|x, y| x < y),
        (Ty::Prim(I32), Le) => ic!(|x, y| x <= y),
        (Ty::Prim(I32), Gt) => ic!(|x, y| x > y),
        (Ty::Prim(I32), Ge) => ic!(|x, y| x >= y),
        (Ty::Prim(I32), Eq) => m2!(|x, y| (x == y) as u32),
        (Ty::Prim(I32), Ne) => m2!(|x, y| (x != y) as u32),

        (Ty::Prim(U32), Add) => m2!(|x, y| x.wrapping_add(y)),
        (Ty::Prim(U32), Sub) => m2!(|x, y| x.wrapping_sub(y)),
        (Ty::Prim(U32), Mul) => m2!(|x, y| x.wrapping_mul(y)),
        (Ty::Prim(U32), Div) | (Ty::Prim(U32), Rem) => {
            try_map2(regs, w, full, mask, d, a, b, |x, y| {
                let r = if op == Div {
                    x.checked_div(y)
                } else {
                    x.checked_rem(y)
                };
                match r {
                    Some(v) => Ok(v),
                    None if strict => Err(TrapReason::IntDivByZero),
                    None => Ok(0),
                }
            })
        }
        (Ty::Prim(U32), And) => m2!(|x, y| x & y),
        (Ty::Prim(U32), Or) => m2!(|x, y| x | y),
        (Ty::Prim(U32), Xor) => m2!(|x, y| x ^ y),
        (Ty::Prim(U32), Shl) => m2!(|x, y| x.wrapping_shl(y & 31)),
        (Ty::Prim(U32), Shr) => m2!(|x, y| x.wrapping_shr(y & 31)),
        (Ty::Prim(U32), Lt) => m2!(|x, y| (x < y) as u32),
        (Ty::Prim(U32), Le) => m2!(|x, y| (x <= y) as u32),
        (Ty::Prim(U32), Gt) => m2!(|x, y| (x > y) as u32),
        (Ty::Prim(U32), Ge) => m2!(|x, y| (x >= y) as u32),
        (Ty::Prim(U32), Eq) => m2!(|x, y| (x == y) as u32),
        (Ty::Prim(U32), Ne) => m2!(|x, y| (x != y) as u32),

        // Bool lanes hold 0/1 by invariant, so bitwise ops match `bin_value`.
        (Ty::Prim(Bool), LAnd) | (Ty::Prim(Bool), And) => m2!(|x, y| x & y),
        (Ty::Prim(Bool), LOr) | (Ty::Prim(Bool), Or) => m2!(|x, y| x | y),
        (Ty::Prim(Bool), Xor) => m2!(|x, y| x ^ y),
        (Ty::Prim(Bool), Eq) => m2!(|x, y| (x == y) as u32),
        (Ty::Prim(Bool), Ne) => m2!(|x, y| (x != y) as u32),

        // Pointer arithmetic: `addr + index * elem_size`, exactly
        // `PtrVal::offset_elems` over `as_index`.
        (Ty::Ptr { elem, .. }, Add) | (Ty::Ptr { elem, .. }, Sub) if matches!(tb, Ty::Prim(p) if p.is_integer()) =>
        {
            let Ty::Prim(it) = tb else { unreachable!() };
            let esz = elem.size_bytes() as i64;
            let neg = op == Sub;
            m2!(move |x, y| {
                let mut i = index_of(it, y);
                if neg {
                    i = -i;
                }
                (x as i64).wrapping_add(i.wrapping_mul(esz)) as u32
            })
        }
        // Pointer equality compares the full `PtrVal`; space/elem are static,
        // so only the address part needs a runtime comparison.
        (Ty::Ptr { space, elem }, Eq) | (Ty::Ptr { space, elem }, Ne)
            if matches!(tb, Ty::Ptr { .. }) =>
        {
            let Ty::Ptr {
                space: s2,
                elem: e2,
            } = tb
            else {
                unreachable!()
            };
            let stat = space == s2 && elem == e2;
            let want = op == Eq;
            m2!(move |x, y| ((stat && x == y) == want) as u32)
        }

        // Anything else (ill-typed mixes the validator rejects): delegate to
        // the reference implementation so traps match the tree walker.
        _ => try_map2(regs, w, full, mask, d, a, b, |x, y| {
            bin_value(op, value_of(ta, x), value_of(tb, y), strict).map(|v| v.to_bits())
        }),
    }
}

/// Typed fast-path lane loops for [`Op::Un`], with the same fallback scheme
/// as [`bin_lanes`].
#[allow(clippy::too_many_arguments)]
fn un_lanes(
    regs: &mut [u32],
    w: usize,
    full: u32,
    mask: u32,
    op: UnOp,
    ty: PrimTy,
    d: usize,
    s: usize,
) -> Result<(), TrapReason> {
    match (op, ty) {
        (UnOp::Neg, PrimTy::F32) => {
            map1(regs, w, full, mask, d, s, |x| {
                (-f32::from_bits(x)).to_bits()
            });
            Ok(())
        }
        (UnOp::Neg, PrimTy::I32) => {
            map1(regs, w, full, mask, d, s, |x| {
                (x as i32).wrapping_neg() as u32
            });
            Ok(())
        }
        (UnOp::Not, PrimTy::Bool) => {
            map1(regs, w, full, mask, d, s, |x| x ^ 1);
            Ok(())
        }
        (UnOp::BitNot, PrimTy::I32) | (UnOp::BitNot, PrimTy::U32) => {
            map1(regs, w, full, mask, d, s, |x| !x);
            Ok(())
        }
        _ => try_map1(regs, w, full, mask, d, s, |x| {
            un_value(op, Value::from_bits(ty, x)).map(|v| v.to_bits())
        }),
    }
}

/// One open structured-control-flow construct.
#[derive(Debug)]
enum Frame {
    /// An `if` whose arms are still executing.
    If {
        /// Lanes that must run the else-arm.
        e_mask: u32,
        /// First pc of the else-arm.
        else_pc: u32,
        /// First pc after the `if`.
        end_pc: u32,
        /// Lanes that reached the end of an arm (reconverge here).
        joined: u32,
        /// Whether the else-arm has been dispatched (or was empty).
        else_done: bool,
    },
    /// A loop between entry and exit.
    Loop {
        /// Lanes still iterating.
        live: u32,
        /// Mask at loop entry (restored on exit).
        entry: u32,
        /// Completed iterations (reported to the `loop_check` hook).
        iteration: u64,
        /// Lanes that took `break` this iteration.
        brk: u32,
    },
}

/// Executes one warp of compiled bytecode.
pub struct VmExec<'a> {
    compiled: &'a CompiledKernel,
    cfg: &'a DeviceConfig,
    global: &'a mut MemRegion,
    shared: &'a mut MemRegion,
    runtime: &'a mut dyn HookRuntime,
    stats: &'a mut ExecStats,
    /// Remaining cycle budget shared across the launch.
    budget: &'a mut u64,
    geom: WarpGeom,
    width: usize,
    /// All-lanes mask for this warp width (fast-path selector).
    full: u32,
    /// The flat raw register file: `regs[reg * width + lane]` holds
    /// `Value::to_bits` of that lane's value. Layout per
    /// [`hauberk_kir::lower::LoweredKernel`]: variables, literal pool,
    /// builtin pool, temporaries.
    regs: Vec<u32>,
    /// Producer tag of the value currently held by each register.
    producer: Vec<Tag>,
    pipe: Pipe,
    loop_depth: u32,
    /// Per-lane effective-address scratch (avoids a per-access alloc).
    addrs: Vec<u32>,
    /// The region plan compiled alongside the bytecode.
    batch: &'a BatchKernel,
    /// Whether full-mask regions run (off = per-op dispatch only).
    regions: bool,
    /// Scratch for region producer-tag write-back (two-phase, alias-safe).
    wb_scratch: Vec<Tag>,
    tele: &'a Telemetry,
    launch_id: u64,
}

impl<'a> VmExec<'a> {
    /// Build a warp executor over `compiled`, running its full-mask regions
    /// iff `regions`. `args` are the kernel parameter values, broadcast to
    /// all lanes.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        compiled: &'a BatchCompiled,
        regions: bool,
        cfg: &'a DeviceConfig,
        global: &'a mut MemRegion,
        shared: &'a mut MemRegion,
        runtime: &'a mut dyn HookRuntime,
        stats: &'a mut ExecStats,
        budget: &'a mut u64,
        geom: WarpGeom,
        args: &[Value],
        tele: &'a Telemetry,
        launch_id: u64,
    ) -> Self {
        let BatchCompiled { compiled, batch } = compiled;
        let lk = &compiled.lowered;
        assert_eq!(args.len(), lk.n_params, "kernel argument count");
        let width = cfg.warp_width as usize;
        let n_regs = lk.n_regs() as usize;
        let mut regs = vec![0u32; n_regs * width];
        for (i, _decl) in lk.vars.iter().enumerate() {
            if i < lk.n_params {
                let bits = args[i].to_bits();
                regs[i * width..(i + 1) * width].fill(bits);
            }
            // Non-parameter variables: `Value::zero_of(ty).to_bits()` is 0
            // for every type, which the file already holds.
        }
        let cb = lk.const_base() as usize;
        for (i, c) in lk.consts.iter().enumerate() {
            regs[(cb + i) * width..(cb + i + 1) * width].fill(c.to_bits());
        }
        let bb = lk.builtin_base() as usize;
        for (i, b) in lk.builtins.iter().enumerate() {
            for (l, v) in builtin_lanes(*b, &geom, cfg.warp_width).iter().enumerate() {
                regs[(bb + i) * width + l] = v.to_bits();
            }
        }
        VmExec {
            compiled,
            cfg,
            global,
            shared,
            runtime,
            stats,
            budget,
            geom,
            width,
            full: if width >= 32 {
                u32::MAX
            } else {
                (1u32 << width) - 1
            },
            producer: vec![0; n_regs],
            regs,
            pipe: Pipe::new(),
            loop_depth: 0,
            addrs: vec![0; width],
            batch,
            regions,
            wb_scratch: Vec::new(),
            tele,
            launch_id,
        }
    }

    /// Run the warp to completion.
    pub fn run(&mut self) -> Result<(), ExecErr> {
        let mask = warp_initial_mask(&self.geom, self.cfg.warp_width);
        if mask == 0 {
            return Ok(());
        }
        self.stats.warps += 1;
        self.exec(mask)
    }

    fn charge(&mut self, class: OpClass, dep_tags: [Tag; 2]) -> Result<Tag, ExecErr> {
        charge_op(
            &mut self.pipe,
            self.stats,
            self.budget,
            self.loop_depth,
            &self.cfg.cost,
            class,
            dep_tags,
        )
    }

    fn add_cycles(&mut self, c: u64) -> Result<(), ExecErr> {
        charge_cycles(self.stats, self.budget, self.loop_depth, c)
    }

    fn charge_mem(&mut self, mask: u32, deps: [Tag; 2]) -> Result<(), ExecErr> {
        // Lane addresses are almost always non-decreasing (coalesced
        // access), in which case the distinct-segment count falls out of one
        // pass with no sort. Charges are identical to `charge_mem_op` (same
        // count, same order of stat updates).
        if let Some(nseg) =
            sorted_segment_count(&self.addrs, mask, self.width, self.cfg.cost.segment_bytes)
        {
            self.stats.mem_segments += nseg;
            self.charge(OpClass::Mem, deps)?;
            return self.add_cycles((nseg - 1) * self.cfg.cost.mem_segment_extra);
        }
        charge_mem_op(
            &mut self.pipe,
            self.stats,
            self.budget,
            self.loop_depth,
            &self.cfg.cost,
            &self.addrs,
            mask,
            self.width,
            deps,
        )
    }

    /// Compute per-lane effective addresses into the scratch buffer (exactly
    /// `PtrVal::offset_elems(as_index(idx))` on raw words).
    fn effective_addrs(&mut self, ptr: Reg, idx: Reg, elem: PrimTy, idx_ty: PrimTy, mask: u32) {
        let w = self.width;
        let (pb, ib) = (ptr as usize * w, idx as usize * w);
        let esz = elem.size_bytes() as i64;
        for l in lanes(mask, w) {
            let p = self.regs[pb + l];
            let i = index_of(idx_ty, self.regs[ib + l]);
            self.addrs[l] = (p as i64).wrapping_add(i.wrapping_mul(esz)) as u32;
        }
    }

    /// The scheduler-fault window at a loop-condition check (mirrors
    /// `WarpExec::loop_check_hook`).
    fn loop_check(
        &mut self,
        loop_id: u32,
        active: u32,
        iteration: u64,
        iter: Reg,
        cond_mask: &mut u32,
    ) {
        let geom = self.geom;
        let warp_width = self.cfg.warp_width;
        let first_thread = geom.first_thread(warp_width);
        let cycles = self.stats.work_cycles;
        self.tele.emit_hot_with(|| Event::HookDispatch {
            launch_id: self.launch_id,
            kind: "loop_check",
            site: loop_id as u64,
            block: geom.block_lin(),
            warp: geom.warp_id,
            cycles,
        });
        let has_iter = iter != NO_REG;
        // A runtime that does not observe this loop neither reads nor
        // mutates the iterator or the decision mask, so it is not called.
        // The producer-tag invalidation below still happens (the tree walker
        // does it unconditionally), keeping pairing identical.
        if self.runtime.observes_loop(loop_id) {
            let lk = &self.compiled.lowered;
            let row = has_iter.then(|| (iter as usize, lk.vars[iter as usize].ty));
            let mut ctx = LoopCheckCtx {
                block_id: geom.block_lin(),
                warp_id: geom.warp_id,
                active,
                warp_width,
                first_thread,
                cycles,
                iteration,
                lanes: Lanes::raw(&mut self.regs, self.width, 0, &[], row),
                cond_mask,
            };
            self.runtime.on_loop_check(loop_id, &mut ctx);
        }
        // The runtime may have corrupted the iterator in place; invalidate
        // its producer tag so pairing decisions stay conservative.
        if has_iter {
            self.producer[iter as usize] = 0;
        }
    }

    /// End the launch as a certified hang when loop `loop_id`'s certificate
    /// proves the lanes in `live` outlast the budget (mirrors
    /// `WarpExec::check_hang_cert`).
    fn check_hang_cert(&mut self, loop_id: u32, live: u32) -> Result<(), ExecErr> {
        let compiled = self.compiled;
        let Some(Some(cert)) = compiled.hang_certs.get(loop_id as usize) else {
            return Ok(());
        };
        let lk = &compiled.lowered;
        let (regs, w) = (&self.regs, self.width);
        let leaf = |e: &Expr, lane: usize| {
            let (reg, ty) = match e {
                Expr::Var(v) => (*v as usize, lk.vars[*v as usize].ty),
                Expr::Builtin(b) => {
                    let i = lk.builtins.iter().position(|x| x == b);
                    let i = i.expect("every builtin has a pool register");
                    (lk.builtin_base() as usize + i, b.ty())
                }
                _ => unreachable!("a certificate leaf is a variable or builtin"),
            };
            value_of(ty, regs[reg * w + lane])
        };
        let floor = self.cfg.cost.class_cost(OpClass::Ctl);
        if certifies(cert, floor, *self.budget, live, leaf, &*self.runtime) {
            exhaust_budget(self.stats, self.budget, self.loop_depth);
            return Err(ExecErr::Hang { certified: true });
        }
        Ok(())
    }

    /// Dispatch hook `hook` (mirrors `WarpExec::exec_hook`; the argument
    /// registers were evaluated — and their inactive lanes zeroed — by the
    /// preceding instructions).
    fn dispatch_hook(&mut self, hook: u32, base: Reg, n: u32, mask: u32) -> Result<(), ExecErr> {
        let compiled = self.compiled;
        let h = &compiled.lowered.hooks[hook as usize];
        self.add_cycles(compiled.hook_costs[hook as usize])?;
        self.stats.hooks += 1;

        let geom = self.geom;
        let warp_width = self.cfg.warp_width;
        let first_thread = geom.first_thread(warp_width);
        let cycles = self.stats.work_cycles;
        self.tele.emit_hot_with(|| Event::HookDispatch {
            launch_id: self.launch_id,
            kind: compiled.hook_names[hook as usize],
            site: h.site as u64,
            block: geom.block_lin(),
            warp: geom.warp_id,
            cycles,
        });
        // A runtime that does not observe this hook ignores it entirely —
        // skip the callbacks. Charges, stats, telemetry (above) and the
        // target producer invalidation (the runtime "may have" corrupted it
        // as far as pairing is concerned) still happen, and
        // `register_corruption` is `None` by the filter's contract.
        if !self.runtime.observes_hook(h) {
            if let Some(v) = h.target {
                self.producer[v as usize] = 0;
            }
            return Ok(());
        }
        let lk = &compiled.lowered;
        let n_vars = lk.n_vars() as usize;
        let w = self.width;
        // The runtime reads the argument registers (inactive lanes read as
        // `Value::I32(0)`, like the tree walker's `zero_inactive`) and the
        // full-width target register (stale lanes included, like the tree
        // walker's raw register) in place, and corrupts the target in place.
        {
            let arg_tys = &lk.hook_arg_tys[hook as usize];
            debug_assert_eq!(arg_tys.len(), n as usize);
            let row = h.target.map(|v| (v as usize, lk.vars[v as usize].ty));
            let mut ctx = HookCtx {
                block_id: geom.block_lin(),
                warp_id: geom.warp_id,
                active: mask,
                warp_width,
                first_thread,
                cycles,
                lanes: Lanes::raw(&mut self.regs, w, base as usize, arg_tys, row),
            };
            self.runtime.on_hook(h, &mut ctx);
        }
        // Register-file faults: the runtime may corrupt any live variable at
        // this point (the value sits in a register between uses). Mirrors
        // `Value::xor_bits`: a raw XOR, masked to bit 0 for `Bool`.
        if let Some(rc) = self.runtime.register_corruption(h, first_thread, mask) {
            if rc.lane < warp_width && mask & (1 << rc.lane) != 0 && (rc.var as usize) < n_vars {
                let i = rc.var as usize * w + rc.lane as usize;
                self.regs[i] = xor_word(lk.vars[rc.var as usize].ty, self.regs[i], rc.mask);
                self.producer[rc.var as usize] = 0;
            }
        }
        // The hook may have corrupted its target variable; drop its producer
        // tag so later pairing decisions stay conservative.
        if let Some(v) = h.target {
            self.producer[v as usize] = 0;
        }
        Ok(())
    }

    /// Execute one batch region as a block: look up the charge outcome for
    /// the current pipeline state, apply it, run the lane-blocked data
    /// plane, and replay the producer-tag write-back program. Returns the pc
    /// to resume at, or `None` when the charge might exceed the remaining
    /// budget (the caller falls back to per-op dispatch, which reproduces
    /// the exact hang semantics).
    fn run_region(&mut self, ri: u32) -> Option<usize> {
        let r = &self.batch.regions[ri as usize];
        let entry = if r.n_charges == 0 {
            ChargeEntry::default()
        } else {
            // The only dynamic input: whether the first charging op consumes
            // the previous op's result (entry registers written in the
            // region shadow nothing — `first_dep_entries` are region inputs).
            let dep0 = self.pipe.last_tag != 0
                && r.first_dep_entries
                    .iter()
                    .any(|&e| self.producer[e as usize] == self.pipe.last_tag);
            r.table[table_idx(dep0, self.pipe.last_class, self.pipe.last_paired)]
        };
        if *self.budget < entry.cycles {
            return None;
        }
        // Cycle plane: exactly the sum of what per-op `charge_op` calls
        // would have charged (each per-op budget check passes because the
        // running budget only shrinks and the total fits).
        self.stats.work_cycles += entry.cycles;
        if self.loop_depth > 0 {
            self.stats.loop_cycles += entry.cycles;
        }
        *self.budget -= entry.cycles;
        self.stats.paired_ops += entry.paired;
        for i in 0..5 {
            self.stats.class_counts[i] += r.class_deltas[i];
        }
        let tag0 = self.pipe.next_tag;
        if r.n_charges > 0 {
            self.pipe.next_tag += r.n_charges;
            self.pipe.last_tag = self.pipe.next_tag - 1;
            self.pipe.last_class = Some(r.exit_class);
            self.pipe.last_paired = entry.exit_paired;
        }
        // Data plane.
        let w = self.width;
        run_micro_ops(&mut self.regs, w, &r.micro);
        // Tag plane: two-phase write-back so an `Entry(e)` source reads e's
        // tag from *before* the region even if e itself is written back.
        self.wb_scratch.clear();
        for &(_, src) in &r.writeback {
            self.wb_scratch.push(match src {
                TagSrc::Zero => 0,
                TagSrc::Entry(e) => self.producer[e as usize],
                TagSrc::Charge(c) => tag0 + c as Tag,
            });
        }
        for (i, &(reg, _)) in r.writeback.iter().enumerate() {
            self.producer[reg as usize] = self.wb_scratch[i];
        }
        Some(r.end as usize)
    }

    /// The dispatch loop.
    fn exec(&mut self, entry_mask: u32) -> Result<(), ExecErr> {
        // Copy the &'a reference out so instruction borrows are independent
        // of the &mut self borrow.
        let code: &'a [Op] = &self.compiled.lowered.code;
        let strict = self.cfg.strict_memory;
        let width = self.width;
        let full = self.full;
        let mut pc: usize = 0;
        let mut mask = entry_mask;
        let mut frames: Vec<Frame> = Vec::with_capacity(8);
        let region_at = if self.regions {
            self.batch.region_map(width)
        } else {
            None
        };
        loop {
            // At full mask, a region starting here executes as one block (precomputed charges, lane-blocked data plane, tag
            // write-back) — unless its charge might not fit the remaining
            // budget, in which case per-op dispatch below reproduces the
            // exact partial charges of the hang.
            if mask == full {
                if let Some(region_at) = region_at {
                    let ri = region_at[pc];
                    if ri != NO_REGION {
                        if let Some(next) = self.run_region(ri) {
                            pc = next;
                            continue;
                        }
                    }
                }
            }
            match &code[pc] {
                Op::Lit { dst, v } => {
                    let d = *dst as usize;
                    let bits = v.to_bits();
                    map1(&mut self.regs, width, full, mask, d, d, |_| bits);
                    self.producer[d] = 0;
                    pc += 1;
                }
                Op::Copy { dst, src } | Op::Bits { dst, src } => {
                    // `to_bits` is the identity on raw words, so `bits_of`
                    // is a register copy here.
                    let (d, s) = (*dst as usize, *src as usize);
                    if d != s {
                        map1(&mut self.regs, width, full, mask, d, s, |x| x);
                    }
                    self.producer[d] = self.producer[s];
                    pc += 1;
                }
                Op::Un { op, dst, src, ty } => {
                    let (d, s) = (*dst as usize, *src as usize);
                    let class = match op {
                        UnOp::Neg if *ty == PrimTy::F32 => OpClass::FAlu,
                        _ => OpClass::IAlu,
                    };
                    let tag = self.charge(class, [self.producer[s], 0])?;
                    un_lanes(&mut self.regs, width, full, mask, *op, *ty, d, s)?;
                    self.producer[d] = tag;
                    pc += 1;
                }
                Op::Bin {
                    op,
                    dst,
                    a,
                    b,
                    ta,
                    tb,
                } => {
                    let (d, ra, rb) = (*dst as usize, *a as usize, *b as usize);
                    let class = bin_class(*op, ta.as_prim());
                    let tag = self.charge(class, [self.producer[ra], self.producer[rb]])?;
                    bin_lanes(
                        &mut self.regs,
                        width,
                        full,
                        mask,
                        *op,
                        *ta,
                        *tb,
                        d,
                        ra,
                        rb,
                        strict,
                    )?;
                    self.producer[d] = tag;
                    pc += 1;
                }
                Op::Call1 { f, dst, a, ty } => {
                    let (d, ra) = (*dst as usize, *a as usize);
                    let class = call_class(*f, *ty);
                    let tag = self.charge(class, [self.producer[ra], 0])?;
                    let (f, ty) = (*f, *ty);
                    try_map1(&mut self.regs, width, full, mask, d, ra, |x| {
                        math_value(f, &[Value::from_bits(ty, x)]).map(|v| v.to_bits())
                    })?;
                    self.producer[d] = tag;
                    pc += 1;
                }
                Op::Call2 { f, dst, a, b, ty } => {
                    let (d, ra, rb) = (*dst as usize, *a as usize, *b as usize);
                    let class = call_class(*f, *ty);
                    let tag = self.charge(class, [self.producer[ra], self.producer[rb]])?;
                    let (f, ty) = (*f, *ty);
                    try_map2(&mut self.regs, width, full, mask, d, ra, rb, |x, y| {
                        math_value(f, &[Value::from_bits(ty, x), Value::from_bits(ty, y)])
                            .map(|v| v.to_bits())
                    })?;
                    self.producer[d] = tag;
                    pc += 1;
                }
                Op::Cast { to, from, dst, src } => {
                    let (d, s) = (*dst as usize, *src as usize);
                    let class = if *from == PrimTy::F32 || *to == PrimTy::F32 {
                        OpClass::FAlu
                    } else {
                        OpClass::IAlu
                    };
                    let tag = self.charge(class, [self.producer[s], 0])?;
                    let (to, from) = (*to, *from);
                    try_map1(&mut self.regs, width, full, mask, d, s, |x| {
                        cast_value(to, Value::from_bits(from, x)).map(|v| v.to_bits())
                    })?;
                    self.producer[d] = tag;
                    pc += 1;
                }
                Op::Load {
                    dst,
                    ptr,
                    idx,
                    space,
                    elem,
                    idx_ty,
                } => {
                    let d = *dst as usize;
                    let deps = [self.producer[*ptr as usize], self.producer[*idx as usize]];
                    // `from_bits∘to_bits` is the identity for every element
                    // type except Bool, which masks to bit 0.
                    let vmask = if *elem == PrimTy::Bool { 1 } else { !0u32 };
                    // Full mask: a warp-uniform pointer + index
                    // (a broadcast load) touches exactly one address — skip
                    // per-lane address math and the segment scan. Charges
                    // match `charge_mem` on a one-segment address set, and
                    // unallocated-read garbage is a pure function of the
                    // address, so the broadcast is bit-exact.
                    let mut broadcast = false;
                    if mask == full {
                        let (pb, ib) = (*ptr as usize * width, *idx as usize * width);
                        let (p0, i0) = (self.regs[pb], self.regs[ib]);
                        // Branchless OR-reduce over both rows: an early-exit
                        // `all()` compiles to a serial compare chain, while
                        // this single fused accumulation vectorizes.
                        let prow = &self.regs[pb..pb + width];
                        let irow = &self.regs[ib..ib + width];
                        let diff = prow
                            .iter()
                            .zip(irow)
                            .fold(0u32, |acc, (&p, &i)| acc | (p ^ p0) | (i ^ i0));
                        if diff == 0 {
                            let addr = (p0 as i64).wrapping_add(
                                index_of(*idx_ty, i0).wrapping_mul(elem.size_bytes() as i64),
                            ) as u32;
                            self.stats.mem_segments += 1;
                            self.charge(OpClass::Mem, deps)?;
                            let region: &mut MemRegion = match space {
                                MemSpace::Global => self.global,
                                MemSpace::Shared => self.shared,
                            };
                            let word = region.load_word(addr)? & vmask;
                            let db = d * width;
                            self.regs[db..db + width].fill(word);
                            broadcast = true;
                        }
                    }
                    if !broadcast {
                        self.effective_addrs(*ptr, *idx, *elem, *idx_ty, mask);
                        self.charge_mem(mask, deps)?;
                        let region: &mut MemRegion = match space {
                            MemSpace::Global => self.global,
                            MemSpace::Shared => self.shared,
                        };
                        let db = d * width;
                        for l in lanes(mask, width) {
                            self.regs[db + l] = region.load_word(self.addrs[l])? & vmask;
                        }
                    }
                    self.producer[d] = self.pipe.last_tag;
                    pc += 1;
                }
                Op::Store {
                    ptr,
                    idx,
                    val,
                    space,
                    elem,
                    idx_ty,
                } => {
                    let rv = *val as usize;
                    self.effective_addrs(*ptr, *idx, *elem, *idx_ty, mask);
                    let deps = [self.producer[*ptr as usize], self.producer[*idx as usize]];
                    self.charge_mem(mask, deps)?;
                    let region: &mut MemRegion = match space {
                        MemSpace::Global => self.global,
                        MemSpace::Shared => self.shared,
                    };
                    let vb = rv * width;
                    for l in lanes(mask, width) {
                        region.write_word(self.addrs[l], self.regs[vb + l])?;
                    }
                    pc += 1;
                }
                Op::AtomicAdd {
                    ptr,
                    idx,
                    val,
                    space,
                    elem,
                    idx_ty,
                } => {
                    let rv = *val as usize;
                    self.effective_addrs(*ptr, *idx, *elem, *idx_ty, mask);
                    let deps = [self.producer[*ptr as usize], self.producer[*idx as usize]];
                    // Atomics serialize: base + extra per lane.
                    self.charge_mem(mask, deps)?;
                    let lane_count = mask.count_ones() as u64;
                    self.add_cycles(
                        lane_count.saturating_sub(1) * self.cfg.cost.mem_segment_extra,
                    )?;
                    let region: &mut MemRegion = match space {
                        MemSpace::Global => self.global,
                        MemSpace::Shared => self.shared,
                    };
                    let (elem, vb) = (*elem, rv * width);
                    for l in lanes(mask, width) {
                        let addr = self.addrs[l];
                        let old = Value::from_bits(elem, region.load_word(addr)?);
                        let add = Value::from_bits(elem, self.regs[vb + l]);
                        let new = bin_value(BinOp::Add, old, add, strict)?;
                        region.write_word(addr, new.to_bits())?;
                    }
                    pc += 1;
                }
                Op::Sync => {
                    self.stats.syncs += 1;
                    self.add_cycles(self.cfg.cost.sync)?;
                    pc += 1;
                }
                Op::ZeroInactive { base, n } => {
                    for r in *base..*base + *n {
                        let rb = r as usize * width;
                        for l in 0..width {
                            if mask & (1 << l) == 0 {
                                self.regs[rb + l] = 0;
                            }
                        }
                    }
                    pc += 1;
                }
                Op::Hook { hook, base, n } => {
                    self.dispatch_hook(*hook, *base, *n, mask)?;
                    pc += 1;
                }
                Op::IfSplit {
                    cond,
                    else_pc,
                    end_pc,
                } => {
                    let c = *cond as usize;
                    self.charge(OpClass::Ctl, [self.producer[c], 0])?;
                    let cb = c * width;
                    // Conditions are statically Bool (0/1 invariant); same
                    // whole-row fold as LoopTest.
                    let mut t_mask = 0u32;
                    for (l, &v) in self.regs[cb..cb + width].iter().enumerate() {
                        t_mask |= (v & 1) << l;
                    }
                    t_mask &= mask;
                    let e_mask = mask & !t_mask;
                    frames.push(Frame::If {
                        e_mask,
                        else_pc: *else_pc,
                        end_pc: *end_pc,
                        joined: 0,
                        else_done: t_mask == 0,
                    });
                    if t_mask != 0 {
                        mask = t_mask;
                        pc += 1;
                    } else {
                        mask = e_mask;
                        pc = *else_pc as usize;
                    }
                }
                Op::EndArm { join_pc } => {
                    let Some(Frame::If {
                        e_mask,
                        else_pc,
                        end_pc,
                        joined,
                        else_done,
                    }) = frames.last_mut()
                    else {
                        unreachable!("EndArm without an if-frame");
                    };
                    *joined |= mask;
                    if !*else_done {
                        *else_done = true;
                        if *e_mask != 0 {
                            mask = *e_mask;
                            pc = *else_pc as usize;
                            continue;
                        }
                    }
                    let (joined, end_pc) = (*joined, *end_pc);
                    frames.pop();
                    if joined == 0 {
                        mask = 0;
                        pc = *join_pc as usize;
                    } else {
                        mask = joined;
                        pc = end_pc as usize;
                    }
                }
                Op::LoopEnter => {
                    frames.push(Frame::Loop {
                        live: mask,
                        entry: mask,
                        iteration: 0,
                        brk: 0,
                    });
                    self.loop_depth += 1;
                    pc += 1;
                }
                Op::LoopHead => {
                    let Some(Frame::Loop { live, .. }) = frames.last() else {
                        unreachable!("LoopHead without a loop-frame");
                    };
                    mask = *live;
                    pc += 1;
                }
                Op::LoopTest {
                    cond,
                    loop_id,
                    iter,
                    exit_pc,
                } => {
                    let c = *cond as usize;
                    self.charge(OpClass::Ctl, [self.producer[c], 0])?;
                    let cb = c * width;
                    // Whole-row fold (then mask): reads of inactive lanes are
                    // harmless (registers always readable, stale bits masked
                    // off) and the unconditional loop vectorizes where the
                    // per-set-bit walk cannot.
                    let mut cond_mask = 0u32;
                    for (l, &v) in self.regs[cb..cb + width].iter().enumerate() {
                        cond_mask |= (v & 1) << l;
                    }
                    cond_mask &= mask;
                    let iteration = match frames.last() {
                        Some(Frame::Loop { iteration, .. }) => *iteration,
                        _ => unreachable!("LoopTest without a loop-frame"),
                    };
                    // Scheduler-fault window: the runtime may corrupt the
                    // iterator or the decision mask here.
                    self.loop_check(*loop_id, mask, iteration, *iter, &mut cond_mask);
                    let Some(Frame::Loop { live, entry, .. }) = frames.last_mut() else {
                        unreachable!();
                    };
                    *live &= cond_mask;
                    if *live == 0 {
                        mask = *entry;
                        frames.pop();
                        self.loop_depth -= 1;
                        pc = *exit_pc as usize;
                    } else {
                        mask = *live;
                        if checks_at(iteration) {
                            self.check_hang_cert(*loop_id, mask)?;
                        }
                        pc += 1;
                    }
                }
                Op::LoopNext {
                    head_pc,
                    exit_pc,
                    has_step,
                } => {
                    let Some(Frame::Loop {
                        live,
                        entry,
                        iteration,
                        brk,
                    }) = frames.last_mut()
                    else {
                        unreachable!("LoopNext without a loop-frame");
                    };
                    // Lanes that broke leave the loop; continue lanes rejoin.
                    *live &= !*brk;
                    *brk = 0;
                    *iteration += 1;
                    if *live == 0 {
                        mask = *entry;
                        frames.pop();
                        self.loop_depth -= 1;
                        pc = *exit_pc as usize;
                    } else if *has_step {
                        mask = *live;
                        pc += 1;
                    } else {
                        pc = *head_pc as usize;
                    }
                }
                Op::Jump { pc: t } => pc = *t as usize,
                Op::Break { join_pc } => {
                    if let Some(Frame::Loop { brk, .. }) = frames
                        .iter_mut()
                        .rev()
                        .find(|f| matches!(f, Frame::Loop { .. }))
                    {
                        *brk |= mask;
                    }
                    mask = 0;
                    pc = *join_pc as usize;
                }
                Op::Continue { join_pc } => {
                    // Continue lanes stay in the loop's live set and simply
                    // skip to the bottom of the body.
                    mask = 0;
                    pc = *join_pc as usize;
                }
                Op::Halt => break,
            }
        }
        debug_assert!(frames.is_empty(), "unbalanced control frames at halt");
        Ok(())
    }
}

/// Charge class of a math intrinsic (depends on the first argument's static
/// type, which always equals the tree walker's lane type).
pub(crate) fn call_class(f: MathFn, ty: PrimTy) -> OpClass {
    match f {
        MathFn::Abs | MathFn::Min | MathFn::Max => {
            if ty == PrimTy::F32 {
                OpClass::FAlu
            } else {
                OpClass::IAlu
            }
        }
        _ => OpClass::Sfu,
    }
}
