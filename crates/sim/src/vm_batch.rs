//! Full-mask regions: lane-blocked region execution for the VM.
//!
//! Per-op dispatch in [`crate::vm`] pays one dispatch, one cycle charge,
//! and one producer-tag update *per instruction*. On full-mask straight-line
//! code — the overwhelmingly common case for the compute kernels the paper
//! measures — all of that bookkeeping is statically determined by the
//! instruction stream. This module precomputes it:
//!
//! * [`compile_batch`] lowers a kernel, asks `hauberk_kir::batch` for the
//!   region plan (straight-line runs of ops with an infallible lane-blocked
//!   implementation), and builds one `RegionExec` per region: a micro-op
//!   program for the data plane plus a 24-entry **charge table** for the
//!   cycle plane;
//! * the charge table is indexed by the only dynamic inputs the shared
//!   [`charge_op`](crate::interp) accounting has at region entry — whether
//!   the first charging op depends on the previous op (2) × the previous
//!   op's class (6, counting "none") × whether it co-issued (2) — and stores
//!   the summed cycle charge, the number of dual-issue pairs, and the exit
//!   pairing flag;
//! * micro-ops execute whole registers as rows of the flat `u32` file in
//!   fixed-size chunks (`u32x8` — copy a chunk into locals, apply the scalar
//!   kernel per lane, write the chunk back), which the compiler turns into
//!   SIMD; chunk-in/chunk-out also makes `dst == src` aliasing safe.
//!
//! Everything observable is **bit-exact** with per-op execution: identical
//! `ExecStats` (including `paired_ops` and per-class counts), identical
//! producer tags afterwards (regions replay a write-back program of
//! [`TagSrc`] entries), identical trap and hang behavior (a region runs only
//! if its whole charge fits the remaining budget and contains no fallible
//! op; otherwise the VM falls back to per-op dispatch, which reproduces the
//! partial charges an interrupted region would have made). The differential
//! suite enforces this against the tree walker and the VM with regions off.
//!
//! Ops with *fallible* lanes (integer div/rem, math intrinsics on
//! non-`f32`, ill-typed combinations) never join a region — they are region
//! breakers executed by the per-op path, and the region machinery resumes at
//! the next op.

use crate::bytecode::{compile, CompiledKernel};
use crate::config::CostModel;
use crate::interp::bin_class;
use crate::stats::OpClass;
use crate::vm::call_class;
use hauberk_kir::batch::{is_charging, plan_batches, TagSrc};
use hauberk_kir::lower::{LoweredKernel, Op};
use hauberk_kir::{BinOp, KernelDef, MathFn, PrimTy, Ty, UnOp};

/// Sentinel for "no region starts at this pc" (mirrors
/// `hauberk_kir::batch::NO_REGION`).
pub(crate) const NO_REGION: u32 = u32::MAX;

/// Unary micro-op kinds. Each computes, on a raw lane word, exactly what the
/// per-op VM's lane loop (or its `un_value`/`math_value`/`cast_value`
/// fallback) computes for the corresponding (op, type) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnK {
    /// `-x` on f32 bits.
    NegF,
    /// Wrapping `-x` on i32.
    NegI,
    /// Boolean not (`x ^ 1`; Bool lanes hold 0/1).
    NotB,
    /// Bitwise not (i32/u32 share the raw form).
    BitNot,
    /// `f32::abs`.
    AbsF,
    /// `i32::wrapping_abs`.
    AbsI,
    /// `f32::sqrt`.
    SqrtF,
    /// `1.0 / x.sqrt()`.
    RsqrtF,
    /// `f32::sin`.
    SinF,
    /// `f32::cos`.
    CosF,
    /// `f32::exp`.
    ExpF,
    /// `f32::ln`.
    LogF,
    /// `f32::floor`.
    FloorF,
    /// f32 → i32 saturating cast (`x as i32`).
    F2I,
    /// f32 → u32 saturating cast.
    F2U,
    /// f32 → bool (`x != 0.0`; distinguishes `-0.0` from raw-bit tests).
    F2B,
    /// i32 → f32.
    I2F,
    /// u32 → f32.
    U2F,
    /// bool → f32 (`(x & 1) as f32`).
    B2F,
    /// int → bool (`(x != 0) as u32`).
    Nz,
    /// bool → int (`x & 1`, the `from_bits` masking).
    MaskB,
    /// Raw identity (same-bits casts, `bits_of`).
    Ident,
}

/// Binary micro-op kinds (same contract as [`UnK`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub(crate) enum BinK {
    AddF,
    SubF,
    MulF,
    DivF,
    RemF,
    LtF,
    LeF,
    GtF,
    GeF,
    AddI,
    SubI,
    MulI,
    ShlI,
    ShrI,
    LtI,
    LeI,
    GtI,
    GeI,
    AddU,
    SubU,
    MulU,
    ShlU,
    ShrU,
    LtU,
    LeU,
    GtU,
    GeU,
    /// Bitwise and (i32/u32/bool share the raw form).
    AndBits,
    /// Bitwise or.
    OrBits,
    /// Bitwise xor.
    XorBits,
    /// Raw equality (`f32` equality is bitwise in `bin_value`; ints/bools
    /// compare raw words).
    EqBits,
    /// Raw inequality.
    NeBits,
    MinF,
    MaxF,
    MinI,
    MaxI,
    MinU,
    MaxU,
}

/// One lane-blocked instruction of a region's data plane.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MicroOp {
    /// Broadcast a constant word to every lane of `d`.
    Lit { d: u32, bits: u32 },
    /// Row copy `d <- s`.
    Copy { d: u32, s: u32 },
    /// `d[l] = k(s[l])`.
    Un { k: UnK, d: u32, s: u32 },
    /// `d[l] = k(a[l], b[l])`.
    Bin { k: BinK, d: u32, a: u32, b: u32 },
    /// Pointer arithmetic: `d[l] = a[l] + index(b[l]) * esz` (negated for
    /// `Sub`), exactly `PtrVal::offset_elems` on raw words.
    PtrAdd {
        d: u32,
        a: u32,
        b: u32,
        esz: i64,
        neg: bool,
        it: PrimTy,
    },
}

/// Map a lowered op to its lane-blocked micro-op, or `None` when the op has
/// no *infallible* lane-blocked form (which makes it a region breaker). This
/// is the single source of truth for batchability: the planner predicate is
/// `micro_of(op).is_some()`.
pub(crate) fn micro_of(op: &Op) -> Option<MicroOp> {
    use BinOp::*;
    use PrimTy::*;
    Some(match op {
        Op::Lit { dst, v } => MicroOp::Lit {
            d: *dst,
            bits: v.to_bits(),
        },
        Op::Copy { dst, src } | Op::Bits { dst, src } => MicroOp::Copy { d: *dst, s: *src },
        Op::Un { op, dst, src, ty } => {
            let k = match (op, ty) {
                (UnOp::Neg, F32) => UnK::NegF,
                (UnOp::Neg, I32) => UnK::NegI,
                (UnOp::Not, Bool) => UnK::NotB,
                (UnOp::BitNot, I32) | (UnOp::BitNot, U32) => UnK::BitNot,
                (UnOp::BitsOf, _) => UnK::Ident,
                // Anything else traps in `un_value`: breaker.
                _ => return None,
            };
            MicroOp::Un {
                k,
                d: *dst,
                s: *src,
            }
        }
        Op::Bin {
            op,
            dst,
            a,
            b,
            ta,
            tb,
        } => {
            let (d, a, b) = (*dst, *a, *b);
            let k = match (ta, op) {
                (Ty::Prim(F32), Add) => BinK::AddF,
                (Ty::Prim(F32), Sub) => BinK::SubF,
                (Ty::Prim(F32), Mul) => BinK::MulF,
                // FP division/remainder never trap (§II.A: infinities, NaNs).
                (Ty::Prim(F32), Div) => BinK::DivF,
                (Ty::Prim(F32), Rem) => BinK::RemF,
                (Ty::Prim(F32), Lt) => BinK::LtF,
                (Ty::Prim(F32), Le) => BinK::LeF,
                (Ty::Prim(F32), Gt) => BinK::GtF,
                (Ty::Prim(F32), Ge) => BinK::GeF,
                (Ty::Prim(F32), Eq) => BinK::EqBits,
                (Ty::Prim(F32), Ne) => BinK::NeBits,

                (Ty::Prim(I32), Add) => BinK::AddI,
                (Ty::Prim(I32), Sub) => BinK::SubI,
                (Ty::Prim(I32), Mul) => BinK::MulI,
                // Integer div/rem can trap (strict mode): breaker.
                (Ty::Prim(I32), Div) | (Ty::Prim(I32), Rem) => return None,
                (Ty::Prim(I32), And) => BinK::AndBits,
                (Ty::Prim(I32), Or) => BinK::OrBits,
                (Ty::Prim(I32), Xor) => BinK::XorBits,
                (Ty::Prim(I32), Shl) => BinK::ShlI,
                (Ty::Prim(I32), Shr) => BinK::ShrI,
                (Ty::Prim(I32), Lt) => BinK::LtI,
                (Ty::Prim(I32), Le) => BinK::LeI,
                (Ty::Prim(I32), Gt) => BinK::GtI,
                (Ty::Prim(I32), Ge) => BinK::GeI,
                (Ty::Prim(I32), Eq) => BinK::EqBits,
                (Ty::Prim(I32), Ne) => BinK::NeBits,

                (Ty::Prim(U32), Add) => BinK::AddU,
                (Ty::Prim(U32), Sub) => BinK::SubU,
                (Ty::Prim(U32), Mul) => BinK::MulU,
                (Ty::Prim(U32), Div) | (Ty::Prim(U32), Rem) => return None,
                (Ty::Prim(U32), And) => BinK::AndBits,
                (Ty::Prim(U32), Or) => BinK::OrBits,
                (Ty::Prim(U32), Xor) => BinK::XorBits,
                (Ty::Prim(U32), Shl) => BinK::ShlU,
                (Ty::Prim(U32), Shr) => BinK::ShrU,
                (Ty::Prim(U32), Lt) => BinK::LtU,
                (Ty::Prim(U32), Le) => BinK::LeU,
                (Ty::Prim(U32), Gt) => BinK::GtU,
                (Ty::Prim(U32), Ge) => BinK::GeU,
                (Ty::Prim(U32), Eq) => BinK::EqBits,
                (Ty::Prim(U32), Ne) => BinK::NeBits,

                (Ty::Prim(Bool), LAnd) | (Ty::Prim(Bool), And) => BinK::AndBits,
                (Ty::Prim(Bool), LOr) | (Ty::Prim(Bool), Or) => BinK::OrBits,
                (Ty::Prim(Bool), Xor) => BinK::XorBits,
                (Ty::Prim(Bool), Eq) => BinK::EqBits,
                (Ty::Prim(Bool), Ne) => BinK::NeBits,

                (Ty::Ptr { elem, .. }, Add) | (Ty::Ptr { elem, .. }, Sub) if matches!(tb, Ty::Prim(p) if p.is_integer()) =>
                {
                    let Ty::Prim(it) = tb else { unreachable!() };
                    return Some(MicroOp::PtrAdd {
                        d,
                        a,
                        b,
                        esz: elem.size_bytes() as i64,
                        neg: *op == Sub,
                        it: *it,
                    });
                }
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
                    if *space == *s2 && *elem == *e2 {
                        if *op == Eq {
                            BinK::EqBits
                        } else {
                            BinK::NeBits
                        }
                    } else {
                        // Statically distinct pointers: `p == q` is a
                        // constant (`(stat && x == y) == want` with
                        // `stat = false`).
                        return Some(MicroOp::Lit {
                            d,
                            bits: (*op == Ne) as u32,
                        });
                    }
                }
                // Ill-typed mixes fall to `bin_value`, which can trap.
                _ => return None,
            };
            MicroOp::Bin { k, d, a, b }
        }
        Op::Call1 { f, dst, a, ty } => {
            let k = match (f, ty) {
                (MathFn::Abs, F32) => UnK::AbsF,
                (MathFn::Abs, I32) => UnK::AbsI,
                (MathFn::Sqrt, F32) => UnK::SqrtF,
                (MathFn::Rsqrt, F32) => UnK::RsqrtF,
                (MathFn::Sin, F32) => UnK::SinF,
                (MathFn::Cos, F32) => UnK::CosF,
                (MathFn::Exp, F32) => UnK::ExpF,
                (MathFn::Log, F32) => UnK::LogF,
                (MathFn::Floor, F32) => UnK::FloorF,
                // `math_value` on any other type traps: breaker.
                _ => return None,
            };
            MicroOp::Un { k, d: *dst, s: *a }
        }
        Op::Call2 { f, dst, a, b, ty } => {
            let k = match (f, ty) {
                (MathFn::Min, F32) => BinK::MinF,
                (MathFn::Max, F32) => BinK::MaxF,
                (MathFn::Min, I32) => BinK::MinI,
                (MathFn::Max, I32) => BinK::MaxI,
                (MathFn::Min, U32) => BinK::MinU,
                (MathFn::Max, U32) => BinK::MaxU,
                _ => return None,
            };
            MicroOp::Bin {
                k,
                d: *dst,
                a: *a,
                b: *b,
            }
        }
        Op::Cast { to, from, dst, src } => {
            let k = match (from, to) {
                (F32, F32) => UnK::Ident,
                (F32, I32) => UnK::F2I,
                (F32, U32) => UnK::F2U,
                (F32, Bool) => UnK::F2B,
                (I32, F32) => UnK::I2F,
                (I32, I32) | (I32, U32) | (U32, I32) | (U32, U32) => UnK::Ident,
                (I32, Bool) | (U32, Bool) => UnK::Nz,
                (U32, F32) => UnK::U2F,
                (Bool, F32) => UnK::B2F,
                // `from_bits` masks Bool sources to bit 0.
                (Bool, I32) | (Bool, U32) | (Bool, Bool) => UnK::MaskB,
            };
            MicroOp::Un {
                k,
                d: *dst,
                s: *src,
            }
        }
        // Memory, hooks, sync, control: never batched.
        _ => return None,
    })
}

/// Charge class of a charging op (mirrors the per-op VM's dispatch arms).
fn charge_class(op: &Op) -> OpClass {
    match op {
        Op::Un { op, ty, .. } => match op {
            UnOp::Neg if *ty == PrimTy::F32 => OpClass::FAlu,
            _ => OpClass::IAlu,
        },
        Op::Bin { op, ta, .. } => bin_class(*op, ta.as_prim()),
        Op::Call1 { f, ty, .. } | Op::Call2 { f, ty, .. } => call_class(*f, *ty),
        Op::Cast { to, from, .. } => {
            if *from == PrimTy::F32 || *to == PrimTy::F32 {
                OpClass::FAlu
            } else {
                OpClass::IAlu
            }
        }
        other => unreachable!("charge class of non-charging op {other:?}"),
    }
}

/// One precomputed charge-table entry: the cycle/pairing outcome of running a
/// region's whole charge sequence from one entry pipeline state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ChargeEntry {
    /// Total cycles charged (sum of unpaired ops' class costs).
    pub(crate) cycles: u64,
    /// Number of ops that co-issued (each adds to `stats.paired_ops`).
    pub(crate) paired: u64,
    /// `pipe.last_paired` after the region.
    pub(crate) exit_paired: bool,
}

/// Index into a region's charge table: the three dynamic inputs at entry.
#[inline(always)]
pub(crate) fn table_idx(dep0: bool, entry_class: Option<OpClass>, entry_paired: bool) -> usize {
    let c6 = match entry_class {
        None => 0,
        Some(c) => 1 + c.idx(),
    };
    (dep0 as usize) * 12 + c6 * 2 + entry_paired as usize
}

/// Simulate the shared `charge_op` pairing automaton over the region's
/// charging ops for every possible entry state.
fn build_table(classes: &[OpClass], dep_static: &[bool], cost: &CostModel) -> [ChargeEntry; 24] {
    let entry_classes = [
        None,
        Some(OpClass::IAlu),
        Some(OpClass::FAlu),
        Some(OpClass::Sfu),
        Some(OpClass::Mem),
        Some(OpClass::Ctl),
    ];
    let mut table = [ChargeEntry::default(); 24];
    for dep0 in [false, true] {
        for entry_class in entry_classes {
            for entry_paired in [false, true] {
                let mut cycles = 0u64;
                let mut paired = 0u64;
                let mut last_class = entry_class;
                let mut last_paired = entry_paired;
                for (c, &class) in classes.iter().enumerate() {
                    let dependent = if c == 0 { dep0 } else { dep_static[c] };
                    let pairable = cost.dual_issue
                        && !dependent
                        && !last_paired
                        && last_class.is_some()
                        && last_class != Some(class)
                        && !matches!(class, OpClass::Mem | OpClass::Ctl)
                        && !matches!(last_class, Some(OpClass::Mem) | Some(OpClass::Ctl));
                    if pairable {
                        paired += 1;
                    } else {
                        cycles += cost.class_cost(class);
                    }
                    last_paired = pairable;
                    last_class = Some(class);
                }
                table[table_idx(dep0, entry_class, entry_paired)] = ChargeEntry {
                    cycles,
                    paired,
                    exit_paired: last_paired,
                };
            }
        }
    }
    table
}

/// One executable region: data plane (micro-ops) + cycle plane (charge table
/// and static stat deltas) + tag plane (write-back program).
#[derive(Debug, Clone)]
pub(crate) struct RegionExec {
    /// One past the last op (the pc to resume per-op dispatch at).
    pub(crate) end: u32,
    /// The lane-blocked data plane.
    pub(crate) micro: Vec<MicroOp>,
    /// Number of charging ops (tag-counter advance).
    pub(crate) n_charges: u64,
    /// Per-class op-count deltas (`stats.class_counts`).
    pub(crate) class_deltas: [u64; 5],
    /// Class of the last charging op (`pipe.last_class` after the region;
    /// meaningless when `n_charges == 0`).
    pub(crate) exit_class: OpClass,
    /// Entry registers whose producer tags feed the first charging op.
    pub(crate) first_dep_entries: Vec<u32>,
    /// Producer-tag write-back program.
    pub(crate) writeback: Vec<(u32, TagSrc)>,
    /// The 24-entry charge table.
    pub(crate) table: [ChargeEntry; 24],
}

/// The batch plan compiled against a specific cost model, ready to execute.
#[derive(Debug, Clone)]
pub struct BatchKernel {
    /// Executable regions.
    pub(crate) regions: Vec<RegionExec>,
    /// `region_at[pc]`: region starting at `pc`, or [`NO_REGION`].
    region_at: Vec<u32>,
    /// [`BatchKernel::region_at`] without the single-charge regions, for
    /// warps narrower than one lane chunk (see [`BatchKernel::region_map`]).
    narrow_region_at: Vec<u32>,
}

impl BatchKernel {
    /// Number of planned regions (diagnostics).
    pub fn n_regions(&self) -> usize {
        self.regions.len()
    }

    /// The region map for warps `width` lanes wide. A warp narrower than
    /// one lane chunk has no lane loop to amortize a region's entry cost
    /// (charge-table lookup, tag write-back) over, so there a region must
    /// replace at least two charging ops to beat per-op dispatch; the
    /// single-lane CPU programs run faster without the shorter ones.
    pub(crate) fn region_map(&self, width: usize) -> &[u32] {
        if width < CHUNK {
            &self.narrow_region_at
        } else {
            &self.region_at
        }
    }
}

/// Plan and compile the batch tier for an already-lowered kernel.
pub(crate) fn build_batch(lowered: &LoweredKernel, cost: &CostModel) -> BatchKernel {
    let plan = plan_batches(lowered, &|op| micro_of(op).is_some());
    let regions = plan
        .regions
        .iter()
        .map(|r| {
            let mut micro = Vec::with_capacity((r.end - r.start) as usize);
            let mut classes = Vec::new();
            let mut class_deltas = [0u64; 5];
            for op in &lowered.code[r.start as usize..r.end as usize] {
                micro.push(micro_of(op).expect("planned op is batchable"));
                if is_charging(op) {
                    let class = charge_class(op);
                    class_deltas[class.idx()] += 1;
                    classes.push(class);
                }
            }
            debug_assert_eq!(classes.len(), r.n_charges as usize);
            let table = build_table(&classes, &r.dep_static, cost);
            RegionExec {
                end: r.end,
                micro,
                n_charges: r.n_charges as u64,
                class_deltas,
                exit_class: classes.last().copied().unwrap_or(OpClass::IAlu),
                first_dep_entries: r.first_dep_entries.clone(),
                writeback: r.writeback.clone(),
                table,
            }
        })
        .collect::<Vec<RegionExec>>();
    let narrow_region_at = plan
        .region_at
        .iter()
        .map(|&ri| match regions.get(ri as usize) {
            Some(r) if r.n_charges < 2 => NO_REGION,
            _ => ri,
        })
        .collect();
    BatchKernel {
        regions,
        region_at: plan.region_at,
        narrow_region_at,
    }
}

/// A bytecode compilation plus its batch plan: everything the VM runs, with
/// full-mask regions on or off.
#[derive(Debug, Clone)]
pub struct BatchCompiled {
    /// The per-op compilation.
    pub compiled: CompiledKernel,
    /// The region plan + charge tables.
    pub batch: BatchKernel,
}

/// Compile `kernel` for the VM (uncached;
/// [`compile_cached`](crate::bytecode::compile_cached) is the cached entry
/// point).
pub fn compile_batch(kernel: &KernelDef, cost: &CostModel) -> BatchCompiled {
    let compiled = compile(kernel, cost);
    let batch = build_batch(&compiled.lowered, cost);
    BatchCompiled { compiled, batch }
}

// -- data plane --------------------------------------------------------------

/// Lane-block width: registers execute in chunks of 8 `u32` words (`u32x8`
/// once the autovectorizer is done with it). Warp widths that are not a
/// multiple of 8 (the 1-lane CPU device) use the scalar tail loop.
const CHUNK: usize = 8;

/// `d[l] = f(s[l])` over lanes `[0, n)` of rows strided by `w`, chunked.
/// Chunks are copied into locals before the destination row is written, so
/// `d == s` aliasing is safe. `n < w` is the uniform fast path (lane 0 only).
#[inline(always)]
fn row1(regs: &mut [u32], w: usize, n: usize, d: u32, s: u32, f: impl Fn(u32) -> u32) {
    let (db, sb) = (d as usize * w, s as usize * w);
    assert!(n <= w && db + n <= regs.len() && sb + n <= regs.len());
    if n.is_multiple_of(CHUNK) {
        let mut x = [0u32; CHUNK];
        let mut o = [0u32; CHUNK];
        let mut c = 0;
        while c < n {
            x.copy_from_slice(&regs[sb + c..sb + c + CHUNK]);
            for l in 0..CHUNK {
                o[l] = f(x[l]);
            }
            regs[db + c..db + c + CHUNK].copy_from_slice(&o);
            c += CHUNK;
        }
    } else {
        for l in 0..n {
            regs[db + l] = f(regs[sb + l]);
        }
    }
}

/// `d[l] = f(a[l], b[l])` over lanes `[0, n)`, chunked (alias-safe like
/// [`row1`]).
#[inline(always)]
fn row2(regs: &mut [u32], w: usize, n: usize, d: u32, a: u32, b: u32, f: impl Fn(u32, u32) -> u32) {
    let (db, ab, bb) = (d as usize * w, a as usize * w, b as usize * w);
    assert!(n <= w && db + n <= regs.len() && ab + n <= regs.len() && bb + n <= regs.len());
    if n.is_multiple_of(CHUNK) {
        let mut x = [0u32; CHUNK];
        let mut y = [0u32; CHUNK];
        let mut o = [0u32; CHUNK];
        let mut c = 0;
        while c < n {
            x.copy_from_slice(&regs[ab + c..ab + c + CHUNK]);
            y.copy_from_slice(&regs[bb + c..bb + c + CHUNK]);
            for l in 0..CHUNK {
                o[l] = f(x[l], y[l]);
            }
            regs[db + c..db + c + CHUNK].copy_from_slice(&o);
            c += CHUNK;
        }
    } else {
        for l in 0..n {
            regs[db + l] = f(regs[ab + l], regs[bb + l]);
        }
    }
}

/// f32 view of [`row2`].
#[inline(always)]
fn row2f(
    regs: &mut [u32],
    w: usize,
    n: usize,
    d: u32,
    a: u32,
    b: u32,
    f: impl Fn(f32, f32) -> f32,
) {
    row2(regs, w, n, d, a, b, |x, y| {
        f(f32::from_bits(x), f32::from_bits(y)).to_bits()
    });
}

/// f32-comparison view of [`row2`].
#[inline(always)]
fn row2fc(
    regs: &mut [u32],
    w: usize,
    n: usize,
    d: u32,
    a: u32,
    b: u32,
    f: impl Fn(f32, f32) -> bool,
) {
    row2(regs, w, n, d, a, b, |x, y| {
        f(f32::from_bits(x), f32::from_bits(y)) as u32
    });
}

/// i32 view of [`row2`].
#[inline(always)]
fn row2i(
    regs: &mut [u32],
    w: usize,
    n: usize,
    d: u32,
    a: u32,
    b: u32,
    f: impl Fn(i32, i32) -> i32,
) {
    row2(regs, w, n, d, a, b, |x, y| f(x as i32, y as i32) as u32);
}

/// i32-comparison view of [`row2`].
#[inline(always)]
fn row2ic(
    regs: &mut [u32],
    w: usize,
    n: usize,
    d: u32,
    a: u32,
    b: u32,
    f: impl Fn(i32, i32) -> bool,
) {
    row2(regs, w, n, d, a, b, |x, y| f(x as i32, y as i32) as u32);
}

/// Execute a region's data plane over lanes `[0, n)` of the full-mask
/// register file (rows strided by `w`). `n == w` is the batched path;
/// `n == 1` is the uniform-region path (the caller broadcasts afterwards).
pub(crate) fn run_micro_ops(regs: &mut [u32], w: usize, n: usize, ops: &[MicroOp]) {
    use BinK as B;
    use UnK as U;
    for op in ops {
        match *op {
            MicroOp::Lit { d, bits } => {
                let db = d as usize * w;
                regs[db..db + n].fill(bits);
            }
            MicroOp::Copy { d, s } => {
                if d != s {
                    row1(regs, w, n, d, s, |x| x);
                }
            }
            MicroOp::Un { k, d, s } => match k {
                U::NegF => row1(regs, w, n, d, s, |x| (-f32::from_bits(x)).to_bits()),
                U::NegI => row1(regs, w, n, d, s, |x| (x as i32).wrapping_neg() as u32),
                U::NotB => row1(regs, w, n, d, s, |x| x ^ 1),
                U::BitNot => row1(regs, w, n, d, s, |x| !x),
                U::AbsF => row1(regs, w, n, d, s, |x| f32::from_bits(x).abs().to_bits()),
                U::AbsI => row1(regs, w, n, d, s, |x| (x as i32).wrapping_abs() as u32),
                U::SqrtF => row1(regs, w, n, d, s, |x| f32::from_bits(x).sqrt().to_bits()),
                U::RsqrtF => row1(regs, w, n, d, s, |x| {
                    (1.0 / f32::from_bits(x).sqrt()).to_bits()
                }),
                U::SinF => row1(regs, w, n, d, s, |x| f32::from_bits(x).sin().to_bits()),
                U::CosF => row1(regs, w, n, d, s, |x| f32::from_bits(x).cos().to_bits()),
                U::ExpF => row1(regs, w, n, d, s, |x| f32::from_bits(x).exp().to_bits()),
                U::LogF => row1(regs, w, n, d, s, |x| f32::from_bits(x).ln().to_bits()),
                U::FloorF => row1(regs, w, n, d, s, |x| f32::from_bits(x).floor().to_bits()),
                U::F2I => row1(regs, w, n, d, s, |x| f32::from_bits(x) as i32 as u32),
                U::F2U => row1(regs, w, n, d, s, |x| f32::from_bits(x) as u32),
                U::F2B => row1(regs, w, n, d, s, |x| (f32::from_bits(x) != 0.0) as u32),
                U::I2F => row1(regs, w, n, d, s, |x| (x as i32 as f32).to_bits()),
                U::U2F => row1(regs, w, n, d, s, |x| (x as f32).to_bits()),
                U::B2F => row1(regs, w, n, d, s, |x| ((x & 1) as f32).to_bits()),
                U::Nz => row1(regs, w, n, d, s, |x| (x != 0) as u32),
                U::MaskB => row1(regs, w, n, d, s, |x| x & 1),
                U::Ident => {
                    if d != s {
                        row1(regs, w, n, d, s, |x| x);
                    }
                }
            },
            MicroOp::Bin { k, d, a, b } => match k {
                B::AddF => row2f(regs, w, n, d, a, b, |x, y| x + y),
                B::SubF => row2f(regs, w, n, d, a, b, |x, y| x - y),
                B::MulF => row2f(regs, w, n, d, a, b, |x, y| x * y),
                B::DivF => row2f(regs, w, n, d, a, b, |x, y| x / y),
                B::RemF => row2f(regs, w, n, d, a, b, |x, y| x % y),
                B::LtF => row2fc(regs, w, n, d, a, b, |x, y| x < y),
                B::LeF => row2fc(regs, w, n, d, a, b, |x, y| x <= y),
                B::GtF => row2fc(regs, w, n, d, a, b, |x, y| x > y),
                B::GeF => row2fc(regs, w, n, d, a, b, |x, y| x >= y),
                B::AddI => row2i(regs, w, n, d, a, b, |x, y| x.wrapping_add(y)),
                B::SubI => row2i(regs, w, n, d, a, b, |x, y| x.wrapping_sub(y)),
                B::MulI => row2i(regs, w, n, d, a, b, |x, y| x.wrapping_mul(y)),
                B::ShlI => row2i(regs, w, n, d, a, b, |x, y| x.wrapping_shl(y as u32 & 31)),
                B::ShrI => row2i(regs, w, n, d, a, b, |x, y| x.wrapping_shr(y as u32 & 31)),
                B::LtI => row2ic(regs, w, n, d, a, b, |x, y| x < y),
                B::LeI => row2ic(regs, w, n, d, a, b, |x, y| x <= y),
                B::GtI => row2ic(regs, w, n, d, a, b, |x, y| x > y),
                B::GeI => row2ic(regs, w, n, d, a, b, |x, y| x >= y),
                B::AddU => row2(regs, w, n, d, a, b, |x, y| x.wrapping_add(y)),
                B::SubU => row2(regs, w, n, d, a, b, |x, y| x.wrapping_sub(y)),
                B::MulU => row2(regs, w, n, d, a, b, |x, y| x.wrapping_mul(y)),
                B::ShlU => row2(regs, w, n, d, a, b, |x, y| x.wrapping_shl(y & 31)),
                B::ShrU => row2(regs, w, n, d, a, b, |x, y| x.wrapping_shr(y & 31)),
                B::LtU => row2(regs, w, n, d, a, b, |x, y| (x < y) as u32),
                B::LeU => row2(regs, w, n, d, a, b, |x, y| (x <= y) as u32),
                B::GtU => row2(regs, w, n, d, a, b, |x, y| (x > y) as u32),
                B::GeU => row2(regs, w, n, d, a, b, |x, y| (x >= y) as u32),
                B::AndBits => row2(regs, w, n, d, a, b, |x, y| x & y),
                B::OrBits => row2(regs, w, n, d, a, b, |x, y| x | y),
                B::XorBits => row2(regs, w, n, d, a, b, |x, y| x ^ y),
                B::EqBits => row2(regs, w, n, d, a, b, |x, y| (x == y) as u32),
                B::NeBits => row2(regs, w, n, d, a, b, |x, y| (x != y) as u32),
                B::MinF => row2f(regs, w, n, d, a, b, |x, y| x.min(y)),
                B::MaxF => row2f(regs, w, n, d, a, b, |x, y| x.max(y)),
                B::MinI => row2i(regs, w, n, d, a, b, |x, y| x.min(y)),
                B::MaxI => row2i(regs, w, n, d, a, b, |x, y| x.max(y)),
                B::MinU => row2(regs, w, n, d, a, b, |x, y| x.min(y)),
                B::MaxU => row2(regs, w, n, d, a, b, |x, y| x.max(y)),
            },
            MicroOp::PtrAdd {
                d,
                a,
                b,
                esz,
                neg,
                it,
            } => row2(regs, w, n, d, a, b, |x, y| {
                let mut i = match it {
                    PrimTy::I32 => y as i32 as i64,
                    PrimTy::U32 => y as i64,
                    PrimTy::Bool => (y & 1) as i64,
                    PrimTy::F32 => 0,
                };
                if neg {
                    i = -i;
                }
                (x as i64).wrapping_add(i.wrapping_mul(esz)) as u32
            }),
        }
    }
}

/// Count distinct memory segments touched by `addrs[lanes(mask)]` **if** the
/// addresses are already non-decreasing in lane order (the overwhelmingly
/// common coalesced pattern); `None` means unsorted, caller must take the
/// sorting path. Returns the same count `charge_mem_op` computes.
#[inline]
pub(crate) fn sorted_segment_count(
    addrs: &[u32],
    mask: u32,
    width: usize,
    segment_bytes: u32,
) -> Option<u64> {
    let mut nseg = 0u64;
    let mut prev: Option<u32> = None;
    let mut m = mask;
    while m != 0 {
        let l = m.trailing_zeros() as usize;
        if l >= width {
            break;
        }
        m &= m - 1;
        let s = addrs[l] / segment_bytes;
        match prev {
            Some(p) if s < p => return None,
            Some(p) if s == p => {}
            _ => {
                nseg += 1;
                prev = Some(s);
            }
        }
    }
    Some(nseg.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compile_cached;
    use hauberk_kir::builder::KernelBuilder;
    use hauberk_kir::{Expr, PrimTy as P, Ty};
    use std::sync::Arc;

    #[test]
    fn charge_table_pairs_cross_class_independent_ops() {
        let cost = CostModel::default();
        // IAlu then FAlu, independent: the second op pairs (cost 0).
        let t = build_table(&[OpClass::IAlu, OpClass::FAlu], &[false, false], &cost);
        let e = t[table_idx(false, None, false)];
        assert_eq!(e.cycles, cost.ialu);
        assert_eq!(e.paired, 1);
        assert!(e.exit_paired);
        // Same ops but dependent: both charge.
        let t = build_table(&[OpClass::IAlu, OpClass::FAlu], &[false, true], &cost);
        let e = t[table_idx(false, None, false)];
        assert_eq!(e.cycles, cost.ialu + cost.falu);
        assert_eq!(e.paired, 0);
    }

    #[test]
    fn charge_table_honors_entry_state() {
        let cost = CostModel::default();
        let t = build_table(&[OpClass::FAlu], &[false], &cost);
        // Entering after an independent IAlu op that did not pair: pairs.
        let e = t[table_idx(false, Some(OpClass::IAlu), false)];
        assert_eq!((e.cycles, e.paired), (0, 1));
        // Entering dependent on the previous op: charges.
        let e = t[table_idx(true, Some(OpClass::IAlu), false)];
        assert_eq!((e.cycles, e.paired), (cost.falu, 0));
        // Previous op already co-issued: pairing is at most two-wide.
        let e = t[table_idx(false, Some(OpClass::IAlu), true)];
        assert_eq!((e.cycles, e.paired), (cost.falu, 0));
        // Entering after a Ctl op: control blocks co-issue.
        let e = t[table_idx(false, Some(OpClass::Ctl), false)];
        assert_eq!((e.cycles, e.paired), (cost.falu, 0));
    }

    #[test]
    fn spin_kernel_compiles_to_regions() {
        let mut b = KernelBuilder::new("spin");
        let out = b.param("out", Ty::global_ptr(P::F32));
        let n = b.param("n", Ty::I32);
        let acc = b.let_("acc", Ty::F32, Expr::f32(0.0));
        let i = b.local("i", Ty::I32);
        b.for_range(i, Expr::var(n), |b| {
            b.assign(
                acc,
                Expr::add(Expr::mul(Expr::var(acc), Expr::f32(1.0001)), Expr::f32(0.5)),
            );
        });
        b.store(Expr::var(out), Expr::i32(0), Expr::var(acc));
        let k = b.finish();
        let bc = compile_batch(&k, &CostModel::default());
        assert!(bc.batch.n_regions() > 0);
        // The loop body's FP chain forms a region with ≥2 charges.
        assert!(
            bc.batch.regions.iter().any(|r| r.n_charges >= 2),
            "no multi-charge region"
        );
    }

    #[test]
    fn narrow_warps_keep_only_multi_charge_regions() {
        let k = hauberk_kir::parser::parse_kernel(
            "kernel k(out: *global i32, n: i32) {
                let j: i32 = n;
                while (j > 0) { j = j - 1; }
                store(out, 0, j * 3 + n * 5);
            }",
        )
        .unwrap();
        let bk = compile_batch(&k, &CostModel::default()).batch;
        let (wide, narrow) = (bk.region_map(32), bk.region_map(1));
        assert_eq!(bk.region_map(CHUNK), wide);
        let charges = |ri: u32| bk.regions[ri as usize].n_charges;
        let planned: Vec<u32> = wide.iter().copied().filter(|&r| r != NO_REGION).collect();
        assert!(
            planned.iter().any(|&r| charges(r) == 1),
            "no single-charge region"
        );
        assert!(
            planned.iter().any(|&r| charges(r) >= 2),
            "no multi-charge region"
        );
        for (&w, &n) in wide.iter().zip(narrow) {
            let keep = w != NO_REGION && charges(w) >= 2;
            assert_eq!(n, if keep { w } else { NO_REGION });
        }
    }

    #[test]
    fn batch_cache_shares_compilations() {
        let probe = |v: f32| {
            let mut b = KernelBuilder::new("cache-probe");
            let out = b.param("out", Ty::global_ptr(P::F32));
            b.store(Expr::var(out), Expr::i32(0), Expr::f32(v));
            b.finish()
        };
        let (k, other) = (probe(4.0), probe(5.0));
        let cost = CostModel::default();
        let a = compile_cached(&k, &cost);
        assert!(Arc::ptr_eq(&a, &compile_cached(&k.clone(), &cost)));
        assert_eq!(a.compiled, compile_batch(&k, &cost).compiled);
        let b = compile_cached(&other, &cost);
        assert!(!Arc::ptr_eq(&a, &b), "same name, different kernel");
    }

    #[test]
    fn sorted_segment_count_matches_coalescing() {
        // 4 lanes, contiguous f32s: one 128-byte segment.
        let addrs = [0u32, 4, 8, 12];
        assert_eq!(sorted_segment_count(&addrs, 0b1111, 4, 128), Some(1));
        // Strided across two segments.
        let addrs = [0u32, 64, 128, 192];
        assert_eq!(sorted_segment_count(&addrs, 0b1111, 4, 128), Some(2));
        // Unsorted: defer to the sorting path.
        let addrs = [128u32, 0, 4, 8];
        assert_eq!(sorted_segment_count(&addrs, 0b1111, 4, 128), None);
        // Masked lanes are ignored.
        let addrs = [0u32, 9999, 4, 8];
        assert_eq!(sorted_segment_count(&addrs, 0b1101, 4, 128), Some(1));
    }
}
