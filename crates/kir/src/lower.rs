//! Lowering from the KIR tree to a flat, register-addressed bytecode.
//!
//! The tree-walking interpreter in `hauberk-sim` re-walks every `Expr` node
//! per warp per launch, allocating a `Vec<Value>` per intermediate. For
//! SWIFI-campaign scale that cost dominates, so this module compiles a
//! [`KernelDef`] **once** into a [`LoweredKernel`]:
//!
//! * every variable, literal constant, thread-geometry builtin, and
//!   expression temporary gets a **register slot** (an index into one flat
//!   register file), so execution never looks anything up by name and never
//!   allocates;
//! * structured control flow (`if`/`for`/`while`/`break`/`continue`) becomes
//!   **jump-target instructions** ([`Op::IfSplit`], [`Op::LoopTest`], ...)
//!   whose targets are backpatched during lowering;
//! * instrumentation hooks are collected into a side table so the executor
//!   can preresolve their costs and names.
//!
//! The bytecode is purely a *representation* change: the VM in
//! `hauberk-sim::vm` executes it with bit-identical semantics to the tree
//! walker (same charge ordering, same trap ordering, same `ExecStats`), which
//! the differential property suite in the workspace root enforces.
//!
//! ## Register-file layout
//!
//! ```text
//! [0, n_vars)                         kernel variables (reg == VarId)
//! [n_vars, n_vars+n_consts)           interned literal pool
//! [.., .. + n_builtins)               builtin pool (filled at warp start)
//! [.., .. + n_temps)                  expression temporaries
//! ```
//!
//! Constants are interned **bitwise** (via [`Value`]'s bit-equality), never
//! by numeric equality: `-0.0` and `0.0` must stay distinct slots.
//!
//! ## Control-flow protocol
//!
//! The executor keeps a small frame stack (one frame per open `if` or loop).
//! Lowering guarantees the *join invariant*: whenever a lane subset's path
//! dies (all active lanes took `break`, an `if` joined empty, ...), control
//! transfers through a `join_pc` straight to a terminator-style instruction
//! ([`Op::EndArm`], [`Op::LoopNext`], [`Op::Halt`]) that tolerates an empty
//! mask. Ordinary instructions therefore always execute with at least one
//! active lane, which is what keeps the cycle accounting identical to the
//! tree walker (which simply never visits dead statements).

use crate::analysis::SlotAllocator;
use crate::expr::{BuiltinVar, Expr, MathFn, UnOp};
use crate::kernel::KernelDef;
use crate::stmt::{Block, Hook, LoopId, Stmt};
use crate::types::{MemSpace, PrimTy, Ty};
use crate::value::Value;
use crate::BinOp;
use std::fmt;

/// A register index into the flat per-warp register file.
pub type Reg = u32;

/// Sentinel for "no register" (e.g. the iterator slot of a `while` loop).
pub const NO_REG: Reg = u32::MAX;

/// One bytecode instruction.
///
/// Value-producing ops mirror the tree interpreter's `eval` arms one-to-one
/// (same operand evaluation order, same charge class, same trap points);
/// control ops encode the structured-reconvergence protocol described in the
/// module docs.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `dst[l] = v` for active lanes. Tag 0 (literals have no producer).
    Lit {
        /// Destination register.
        dst: Reg,
        /// Literal value.
        v: Value,
    },
    /// `dst[l] = src[l]` for active lanes; producer tag is forwarded.
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `bits_of` reinterpretation: `dst[l] = U32(src[l].to_bits())`.
    /// Free (no charge); producer tag is forwarded.
    Bits {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Unary op (never [`UnOp::BitsOf`], which lowers to [`Op::Bits`]).
    Un {
        /// Operator.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Operand register.
        src: Reg,
        /// Static operand type (KIR is fully typed, so the runtime lane type
        /// always equals this — even under injected faults, which flip bits
        /// but never change a register's type).
        ty: PrimTy,
    },
    /// Binary op.
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
        /// Static type of the left operand (pointer arithmetic included).
        ta: Ty,
        /// Static type of the right operand.
        tb: Ty,
    },
    /// Unary math intrinsic call.
    Call1 {
        /// Intrinsic.
        f: MathFn,
        /// Destination register.
        dst: Reg,
        /// Argument register.
        a: Reg,
        /// Static argument type (drives the charge class of `abs`).
        ty: PrimTy,
    },
    /// Binary math intrinsic call (`min`/`max`).
    Call2 {
        /// Intrinsic.
        f: MathFn,
        /// Destination register.
        dst: Reg,
        /// First argument register.
        a: Reg,
        /// Second argument register.
        b: Reg,
        /// Static type of the first argument.
        ty: PrimTy,
    },
    /// Numeric conversion.
    Cast {
        /// Target primitive type.
        to: PrimTy,
        /// Static source type.
        from: PrimTy,
        /// Destination register.
        dst: Reg,
        /// Operand register.
        src: Reg,
    },
    /// `dst[l] = mem[ptr[l] + idx[l]]` (coalescing-costed memory read).
    Load {
        /// Destination register.
        dst: Reg,
        /// Pointer operand register.
        ptr: Reg,
        /// Element-index operand register.
        idx: Reg,
        /// Static memory space of the pointer.
        space: MemSpace,
        /// Static element type of the pointer.
        elem: PrimTy,
        /// Static type of the index operand (drives sign extension).
        idx_ty: PrimTy,
    },
    /// `mem[ptr[l] + idx[l]] = val[l]` (coalescing-costed memory write).
    Store {
        /// Pointer operand register.
        ptr: Reg,
        /// Element-index operand register.
        idx: Reg,
        /// Value operand register.
        val: Reg,
        /// Static memory space of the pointer.
        space: MemSpace,
        /// Static element type of the pointer.
        elem: PrimTy,
        /// Static type of the index operand.
        idx_ty: PrimTy,
    },
    /// Atomic read-modify-write add (serialized across lanes).
    AtomicAdd {
        /// Pointer operand register.
        ptr: Reg,
        /// Element-index operand register.
        idx: Reg,
        /// Addend operand register.
        val: Reg,
        /// Static memory space of the pointer.
        space: MemSpace,
        /// Static element type of the pointer.
        elem: PrimTy,
        /// Static type of the index operand.
        idx_ty: PrimTy,
    },
    /// `__syncthreads()` barrier (costed no-op within a warp).
    Sync,
    /// Zero the **inactive** lanes of `n` consecutive registers starting at
    /// `base` (hook-argument normalization, so both engines hand runtimes
    /// identical full-width buffers).
    ZeroInactive {
        /// First register to normalize.
        base: Reg,
        /// Number of consecutive registers.
        n: u32,
    },
    /// Dispatch hook `hook` (index into [`LoweredKernel::hooks`]) with `n`
    /// argument registers starting at `base`.
    Hook {
        /// Hook-table index.
        hook: u32,
        /// First argument register.
        base: Reg,
        /// Number of argument registers.
        n: u32,
    },
    /// Evaluate an `if` condition: charge control, split the mask, push an
    /// if-frame, and continue into the then-arm (or jump to `else_pc`).
    IfSplit {
        /// Condition register.
        cond: Reg,
        /// First pc of the else-arm.
        else_pc: u32,
        /// First pc after the whole `if`.
        end_pc: u32,
    },
    /// End of an `if` arm: bank surviving lanes, dispatch the other arm or
    /// reconverge. `join_pc` is the enclosing block's join (taken with an
    /// empty mask when no lane survived the `if`).
    EndArm {
        /// Enclosing block's join point.
        join_pc: u32,
    },
    /// Open a loop frame (records the entry mask, bumps loop depth).
    LoopEnter,
    /// Top of a loop iteration: restore the mask to the loop's live set.
    LoopHead,
    /// Evaluate the loop condition: charge control, run the `loop_check`
    /// hook, drop finished lanes, exit to `exit_pc` when none remain.
    LoopTest {
        /// Condition register.
        cond: Reg,
        /// Static loop id (for the `loop_check` instrumentation hook).
        loop_id: LoopId,
        /// Iterator variable register, or [`NO_REG`] for `while` loops.
        iter: Reg,
        /// First pc after the loop.
        exit_pc: u32,
    },
    /// Bottom of a loop body: retire `break` lanes, rejoin `continue` lanes,
    /// then either run the step code (`has_step`) or jump to `head_pc`.
    LoopNext {
        /// Pc of the loop's [`Op::LoopHead`].
        head_pc: u32,
        /// First pc after the loop.
        exit_pc: u32,
        /// Whether step code follows this instruction (`for` loops).
        has_step: bool,
    },
    /// Unconditional jump (closes a `for` loop's step code).
    Jump {
        /// Target pc.
        pc: u32,
    },
    /// `break`: bank the active mask into the innermost loop frame and jump
    /// (empty-masked) to the enclosing block's join.
    Break {
        /// Enclosing block's join point.
        join_pc: u32,
    },
    /// `continue`: leave the lanes in the loop's live set and jump
    /// (empty-masked) to the enclosing block's join.
    Continue {
        /// Enclosing block's join point.
        join_pc: u32,
    },
    /// End of the kernel body.
    Halt,
}

/// Metadata for one kernel variable carried into the bytecode.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredVar {
    /// Source-level name (used by the disassembly only).
    pub name: String,
    /// Declared type (drives register initialization).
    pub ty: Ty,
    /// Whether the variable is a kernel parameter (initialized from the
    /// launch arguments instead of zero).
    pub is_param: bool,
}

/// A kernel compiled to flat bytecode, plus the tables the executor needs.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredKernel {
    /// Kernel name (diagnostics only).
    pub name: String,
    /// Per-variable metadata; `vars[i]` backs register `i`.
    pub vars: Vec<LoweredVar>,
    /// Number of kernel parameters (must match the launch argument count).
    pub n_params: usize,
    /// Statically-declared shared memory, in bytes (copied from the kernel).
    pub shared_mem_bytes: u32,
    /// Interned literal pool backing registers `[const_base, builtin_base)`.
    pub consts: Vec<Value>,
    /// Builtin pool backing registers `[builtin_base, temp_base)`, filled
    /// once per warp at startup.
    pub builtins: Vec<BuiltinVar>,
    /// Number of expression-temporary registers.
    pub n_temps: u32,
    /// The instruction stream. Always ends with [`Op::Halt`].
    pub code: Vec<Op>,
    /// Hook side table, indexed by [`Op::Hook::hook`].
    pub hooks: Vec<Hook>,
    /// Static types of each hook's argument expressions (parallel to
    /// [`LoweredKernel::hooks`]); the raw-register VM uses these to
    /// materialize typed argument views for the hook runtime.
    pub hook_arg_tys: Vec<Vec<Ty>>,
}

impl LoweredKernel {
    /// Number of variable registers.
    pub fn n_vars(&self) -> u32 {
        self.vars.len() as u32
    }

    /// First register of the literal pool.
    pub fn const_base(&self) -> Reg {
        self.n_vars()
    }

    /// First register of the builtin pool.
    pub fn builtin_base(&self) -> Reg {
        self.const_base() + self.consts.len() as u32
    }

    /// First expression-temporary register.
    pub fn temp_base(&self) -> Reg {
        self.builtin_base() + self.builtins.len() as u32
    }

    /// Total size of the register file.
    pub fn n_regs(&self) -> u32 {
        self.temp_base() + self.n_temps
    }

    /// Human-readable name of register `r` for the disassembly.
    fn reg_name(&self, r: Reg) -> String {
        if r == NO_REG {
            return "-".to_string();
        }
        if r < self.const_base() {
            return format!("%{}", self.vars[r as usize].name);
        }
        if r < self.builtin_base() {
            return format!("c{}", r - self.const_base());
        }
        if r < self.temp_base() {
            return format!(
                "@{}",
                self.builtins[(r - self.builtin_base()) as usize].spelling()
            );
        }
        format!("t{}", r - self.temp_base())
    }

    /// Sanity-check internal consistency: every jump target lands inside the
    /// code, every register reference is inside the register file, every hook
    /// index resolves. Used by tests and debug assertions; returns a
    /// description of the first violation found.
    pub fn check(&self) -> Result<(), String> {
        let n_code = self.code.len() as u32;
        let n_regs = self.n_regs();
        let reg = |r: Reg, what: &str, pc: usize| -> Result<(), String> {
            if r != NO_REG && r >= n_regs {
                return Err(format!(
                    "pc {pc}: {what} register {r} out of range ({n_regs})"
                ));
            }
            Ok(())
        };
        let pc_ok = |t: u32, what: &str, pc: usize| -> Result<(), String> {
            if t >= n_code {
                return Err(format!(
                    "pc {pc}: {what} target {t} out of range ({n_code})"
                ));
            }
            Ok(())
        };
        if !matches!(self.code.last(), Some(Op::Halt)) {
            return Err("code does not end with Halt".to_string());
        }
        for (pc, op) in self.code.iter().enumerate() {
            match op {
                Op::Lit { dst, .. } => reg(*dst, "dst", pc)?,
                Op::Copy { dst, src } | Op::Bits { dst, src } => {
                    reg(*dst, "dst", pc)?;
                    reg(*src, "src", pc)?;
                }
                Op::Un { dst, src, .. } => {
                    reg(*dst, "dst", pc)?;
                    reg(*src, "src", pc)?;
                }
                Op::Bin { dst, a, b, .. } | Op::Call2 { dst, a, b, .. } => {
                    reg(*dst, "dst", pc)?;
                    reg(*a, "a", pc)?;
                    reg(*b, "b", pc)?;
                }
                Op::Call1 { dst, a, .. } => {
                    reg(*dst, "dst", pc)?;
                    reg(*a, "a", pc)?;
                }
                Op::Cast { dst, src, .. } => {
                    reg(*dst, "dst", pc)?;
                    reg(*src, "src", pc)?;
                }
                Op::Load { dst, ptr, idx, .. } => {
                    reg(*dst, "dst", pc)?;
                    reg(*ptr, "ptr", pc)?;
                    reg(*idx, "idx", pc)?;
                }
                Op::Store { ptr, idx, val, .. } | Op::AtomicAdd { ptr, idx, val, .. } => {
                    reg(*ptr, "ptr", pc)?;
                    reg(*idx, "idx", pc)?;
                    reg(*val, "val", pc)?;
                }
                Op::Sync | Op::LoopEnter | Op::LoopHead | Op::Halt => {}
                Op::ZeroInactive { base, n } => {
                    if *n > 0 {
                        reg(*base + n - 1, "arg", pc)?;
                    }
                }
                Op::Hook { hook, base, n } => {
                    if *hook as usize >= self.hooks.len() {
                        return Err(format!("pc {pc}: hook index {hook} out of range"));
                    }
                    let tys = self.hook_arg_tys.get(*hook as usize);
                    if tys.map(|t| t.len() as u32) != Some(*n) {
                        return Err(format!("pc {pc}: hook {hook} arg-type table mismatch"));
                    }
                    if *n > 0 {
                        reg(*base + n - 1, "arg", pc)?;
                    }
                }
                Op::IfSplit {
                    cond,
                    else_pc,
                    end_pc,
                } => {
                    reg(*cond, "cond", pc)?;
                    pc_ok(*else_pc, "else", pc)?;
                    pc_ok(*end_pc, "end", pc)?;
                }
                Op::EndArm { join_pc } | Op::Break { join_pc } | Op::Continue { join_pc } => {
                    pc_ok(*join_pc, "join", pc)?;
                }
                Op::LoopTest {
                    cond,
                    iter,
                    exit_pc,
                    ..
                } => {
                    reg(*cond, "cond", pc)?;
                    reg(*iter, "iter", pc)?;
                    pc_ok(*exit_pc, "exit", pc)?;
                }
                Op::LoopNext {
                    head_pc, exit_pc, ..
                } => {
                    pc_ok(*head_pc, "head", pc)?;
                    pc_ok(*exit_pc, "exit", pc)?;
                }
                Op::Jump { pc: t } => pc_ok(*t, "jump", pc)?,
            }
        }
        Ok(())
    }
}

impl fmt::Display for LoweredKernel {
    /// Bytecode disassembly (the minimal-repro artifact printed by the
    /// differential tests on a divergence).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "kernel {}: {} vars ({} params), {} consts, {} builtins, {} temps, {} ops, {} hooks",
            self.name,
            self.vars.len(),
            self.n_params,
            self.consts.len(),
            self.builtins.len(),
            self.n_temps,
            self.code.len(),
            self.hooks.len()
        )?;
        for (i, c) in self.consts.iter().enumerate() {
            writeln!(f, "  c{i} = {c}")?;
        }
        for (i, h) in self.hooks.iter().enumerate() {
            writeln!(
                f,
                "  hook{i} = {:?} site={} target={}",
                h.kind,
                h.site,
                h.target
                    .map(|v| self.reg_name(v))
                    .unwrap_or_else(|| "-".to_string())
            )?;
        }
        let r = |x: Reg| self.reg_name(x);
        for (pc, op) in self.code.iter().enumerate() {
            let body = match op {
                Op::Lit { dst, v } => format!("lit        {} <- {v}", r(*dst)),
                Op::Copy { dst, src } => format!("copy       {} <- {}", r(*dst), r(*src)),
                Op::Bits { dst, src } => format!("bits       {} <- {}", r(*dst), r(*src)),
                Op::Un { op, dst, src, ty } => {
                    format!("un {op:?}     {} <- {} :{ty}", r(*dst), r(*src))
                }
                Op::Bin {
                    op, dst, a, b, ta, ..
                } => {
                    format!("bin {op:?} {} <- {}, {} :{ta}", r(*dst), r(*a), r(*b))
                }
                Op::Call1 { f: mf, dst, a, .. } => {
                    format!("call {mf:?} {} <- {}", r(*dst), r(*a))
                }
                Op::Call2 {
                    f: mf, dst, a, b, ..
                } => {
                    format!("call {mf:?} {} <- {}, {}", r(*dst), r(*a), r(*b))
                }
                Op::Cast { to, from, dst, src } => {
                    format!("cast {from}->{to} {} <- {}", r(*dst), r(*src))
                }
                Op::Load {
                    dst,
                    ptr,
                    idx,
                    space,
                    ..
                } => {
                    format!("load.{space} {} <- [{} + {}]", r(*dst), r(*ptr), r(*idx))
                }
                Op::Store {
                    ptr,
                    idx,
                    val,
                    space,
                    ..
                } => {
                    format!("store.{space} [{} + {}] <- {}", r(*ptr), r(*idx), r(*val))
                }
                Op::AtomicAdd {
                    ptr,
                    idx,
                    val,
                    space,
                    ..
                } => {
                    format!(
                        "atomic_add.{space} [{} + {}] <- {}",
                        r(*ptr),
                        r(*idx),
                        r(*val)
                    )
                }
                Op::Sync => "sync".to_string(),
                Op::ZeroInactive { base, n } => {
                    format!("zero_inact {} x{n}", r(*base))
                }
                Op::Hook { hook, base, n } => {
                    format!("hook       #{hook} args={} x{n}", r(*base))
                }
                Op::IfSplit {
                    cond,
                    else_pc,
                    end_pc,
                } => {
                    format!("if         {} else->{else_pc} end->{end_pc}", r(*cond))
                }
                Op::EndArm { join_pc } => format!("end_arm    join->{join_pc}"),
                Op::LoopEnter => "loop_enter".to_string(),
                Op::LoopHead => "loop_head".to_string(),
                Op::LoopTest {
                    cond,
                    loop_id,
                    iter,
                    exit_pc,
                } => format!(
                    "loop_test  {} id={loop_id} iter={} exit->{exit_pc}",
                    r(*cond),
                    r(*iter)
                ),
                Op::LoopNext {
                    head_pc,
                    exit_pc,
                    has_step,
                } => {
                    format!("loop_next  head->{head_pc} exit->{exit_pc} step={has_step}")
                }
                Op::Jump { pc: t } => format!("jump       ->{t}"),
                Op::Break { join_pc } => format!("break      join->{join_pc}"),
                Op::Continue { join_pc } => format!("continue   join->{join_pc}"),
                Op::Halt => "halt".to_string(),
            };
            writeln!(f, "  {pc:04} {body}")?;
        }
        Ok(())
    }
}

/// Compile `kernel` to bytecode.
///
/// The kernel should already satisfy [`crate::validate::validate_kernel`];
/// lowering panics on forms the validator rejects (math calls with more than
/// two arguments). The output always passes [`LoweredKernel::check`].
pub fn lower_kernel(kernel: &KernelDef) -> LoweredKernel {
    // Pass 1: intern literals (bitwise) and collect used builtins.
    let mut consts: Vec<Value> = Vec::new();
    let mut builtins: Vec<BuiltinVar> = Vec::new();
    scan_block(&kernel.body, &mut consts, &mut builtins);

    let n_vars = kernel.vars.len() as u32;
    let const_base = n_vars;
    let builtin_base = const_base + consts.len() as u32;
    let temp_base = builtin_base + builtins.len() as u32;
    let mut lw = Lowerer {
        const_base,
        builtin_base,
        consts,
        builtins,
        var_tys: kernel.vars.iter().map(|d| d.ty).collect(),
        code: Vec::new(),
        hooks: Vec::new(),
        hook_arg_tys: Vec::new(),
        temps: SlotAllocator::new(temp_base),
    };

    // Pass 2: emit code, backpatching jump targets.
    let joins = lw.block(&kernel.body);
    let halt = lw.here();
    lw.code.push(Op::Halt);
    lw.patch_joins(&joins, halt);

    let lowered = LoweredKernel {
        name: kernel.name.clone(),
        vars: kernel
            .vars
            .iter()
            .map(|d| LoweredVar {
                name: d.name.clone(),
                ty: d.ty,
                is_param: d.is_param,
            })
            .collect(),
        n_params: kernel.n_params,
        shared_mem_bytes: kernel.shared_mem_bytes,
        consts: lw.consts,
        builtins: lw.builtins,
        n_temps: lw.temps.high_water(),
        code: lw.code,
        hooks: lw.hooks,
        hook_arg_tys: lw.hook_arg_tys,
    };
    debug_assert_eq!(lowered.check(), Ok(()));
    lowered
}

/// Intern `v` into the literal pool by **bit** equality ([`Value`]'s
/// `PartialEq` compares `to_bits`, so `-0.0` and `0.0` stay distinct and NaN
/// payloads are preserved).
fn intern_const(consts: &mut Vec<Value>, v: Value) {
    if !consts.contains(&v) {
        consts.push(v);
    }
}

fn scan_expr(e: &Expr, consts: &mut Vec<Value>, builtins: &mut Vec<BuiltinVar>) {
    match e {
        Expr::Lit(v) => intern_const(consts, *v),
        Expr::Builtin(b) => {
            if !builtins.contains(b) {
                builtins.push(*b);
            }
        }
        Expr::Var(_) => {}
        Expr::Un(_, a) | Expr::Cast(_, a) => scan_expr(a, consts, builtins),
        Expr::Bin(_, a, b) => {
            scan_expr(a, consts, builtins);
            scan_expr(b, consts, builtins);
        }
        Expr::Call(_, args) => {
            for a in args {
                scan_expr(a, consts, builtins);
            }
        }
        Expr::Load { ptr, index } => {
            scan_expr(ptr, consts, builtins);
            scan_expr(index, consts, builtins);
        }
    }
}

fn scan_block(b: &Block, consts: &mut Vec<Value>, builtins: &mut Vec<BuiltinVar>) {
    for s in &b.0 {
        match s {
            Stmt::Assign { value, .. } => scan_expr(value, consts, builtins),
            Stmt::Store { ptr, index, value } | Stmt::AtomicAdd { ptr, index, value } => {
                scan_expr(ptr, consts, builtins);
                scan_expr(index, consts, builtins);
                scan_expr(value, consts, builtins);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                scan_expr(cond, consts, builtins);
                scan_block(then_blk, consts, builtins);
                scan_block(else_blk, consts, builtins);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                scan_expr(init, consts, builtins);
                scan_expr(cond, consts, builtins);
                scan_expr(step, consts, builtins);
                scan_block(body, consts, builtins);
            }
            Stmt::While { cond, body, .. } => {
                scan_expr(cond, consts, builtins);
                scan_block(body, consts, builtins);
            }
            Stmt::Break | Stmt::Continue | Stmt::SyncThreads => {}
            Stmt::Hook(h) => {
                for a in &h.args {
                    scan_expr(a, consts, builtins);
                }
            }
        }
    }
}

struct Lowerer {
    const_base: u32,
    builtin_base: u32,
    consts: Vec<Value>,
    builtins: Vec<BuiltinVar>,
    var_tys: Vec<Ty>,
    code: Vec<Op>,
    hooks: Vec<Hook>,
    hook_arg_tys: Vec<Vec<Ty>>,
    temps: SlotAllocator,
}

/// Extract the primitive type from a [`Ty`]; panics on pointers (callers are
/// positions the validator guarantees are scalar).
fn prim(ty: Ty) -> PrimTy {
    match ty {
        Ty::Prim(p) => p,
        t => panic!("bytecode lowering: scalar position has pointer type {t}"),
    }
}

impl Lowerer {
    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn const_reg(&self, v: &Value) -> Reg {
        let i = self
            .consts
            .iter()
            .position(|c| c == v)
            .expect("literal missed by prescan");
        self.const_base + i as u32
    }

    fn builtin_reg(&self, b: BuiltinVar) -> Reg {
        let i = self
            .builtins
            .iter()
            .position(|x| *x == b)
            .expect("builtin missed by prescan");
        self.builtin_base + i as u32
    }

    /// Static type of `e` ([`Expr::static_ty`]). Infallible on validated
    /// kernels; the result annotates the emitted op so the VM never inspects
    /// runtime value tags.
    fn ty_of(&self, e: &Expr) -> Ty {
        e.static_ty(&|v| self.var_tys[v as usize])
    }

    /// Lower `e` to a register: variables, literals, and builtins resolve to
    /// their home slots with no code; anything else evaluates into a fresh
    /// temporary. Callers release temporaries (via a mark taken *before*
    /// calling) once the consuming instruction has been emitted.
    fn operand(&mut self, e: &Expr) -> Reg {
        match e {
            Expr::Var(v) => *v as Reg,
            Expr::Lit(v) => self.const_reg(v),
            Expr::Builtin(b) => self.builtin_reg(*b),
            _ => {
                let dst = self.temps.alloc();
                self.expr(e, dst);
                dst
            }
        }
    }

    /// Emit code computing `e` into `dst`. Operand evaluation order matches
    /// the tree interpreter exactly (left to right, depth first), which keeps
    /// the pipeline-pairing charge sequence identical.
    fn expr(&mut self, e: &Expr, dst: Reg) {
        match e {
            Expr::Lit(v) => self.code.push(Op::Lit { dst, v: *v }),
            Expr::Var(v) => self.code.push(Op::Copy {
                dst,
                src: *v as Reg,
            }),
            Expr::Builtin(b) => {
                let src = self.builtin_reg(*b);
                self.code.push(Op::Copy { dst, src });
            }
            Expr::Un(UnOp::BitsOf, a) => {
                let m = self.temps.mark();
                let src = self.operand(a);
                self.code.push(Op::Bits { dst, src });
                self.temps.release(m);
            }
            Expr::Un(op, a) => {
                let m = self.temps.mark();
                let ty = prim(self.ty_of(a));
                let src = self.operand(a);
                self.code.push(Op::Un {
                    op: *op,
                    dst,
                    src,
                    ty,
                });
                self.temps.release(m);
            }
            Expr::Bin(op, a, b) => {
                let m = self.temps.mark();
                let ta = self.ty_of(a);
                let tb = self.ty_of(b);
                let ra = self.operand(a);
                let rb = self.operand(b);
                self.code.push(Op::Bin {
                    op: *op,
                    dst,
                    a: ra,
                    b: rb,
                    ta,
                    tb,
                });
                self.temps.release(m);
            }
            Expr::Call(f, args) => {
                let m = self.temps.mark();
                match args.as_slice() {
                    [a] => {
                        let ty = prim(self.ty_of(a));
                        let ra = self.operand(a);
                        self.code.push(Op::Call1 {
                            f: *f,
                            dst,
                            a: ra,
                            ty,
                        });
                    }
                    [a, b] => {
                        let ty = prim(self.ty_of(a));
                        let ra = self.operand(a);
                        let rb = self.operand(b);
                        self.code.push(Op::Call2 {
                            f: *f,
                            dst,
                            a: ra,
                            b: rb,
                            ty,
                        });
                    }
                    _ => panic!(
                        "bytecode lowering: math call with {} args (validator allows 1 or 2)",
                        args.len()
                    ),
                }
                self.temps.release(m);
            }
            Expr::Load { ptr, index } => {
                let m = self.temps.mark();
                let (space, elem) = match self.ty_of(ptr) {
                    Ty::Ptr { space, elem } => (space, elem),
                    t => panic!("bytecode lowering: load through non-pointer {t}"),
                };
                let idx_ty = prim(self.ty_of(index));
                let rp = self.operand(ptr);
                let ri = self.operand(index);
                self.code.push(Op::Load {
                    dst,
                    ptr: rp,
                    idx: ri,
                    space,
                    elem,
                    idx_ty,
                });
                self.temps.release(m);
            }
            Expr::Cast(to, a) => {
                let m = self.temps.mark();
                let from = prim(self.ty_of(a));
                let src = self.operand(a);
                self.code.push(Op::Cast {
                    to: *to,
                    from,
                    dst,
                    src,
                });
                self.temps.release(m);
            }
        }
    }

    fn patch_joins(&mut self, joins: &[usize], target: u32) {
        for &i in joins {
            match &mut self.code[i] {
                Op::EndArm { join_pc } | Op::Break { join_pc } | Op::Continue { join_pc } => {
                    *join_pc = target;
                }
                other => unreachable!("join patch on non-join op {other:?}"),
            }
        }
    }

    /// Lower a block, returning the code indices whose `join_pc` must be
    /// patched to the block's join point (the pc of the terminator-style
    /// instruction that follows the block in its enclosing construct).
    fn block(&mut self, b: &Block) -> Vec<usize> {
        let mut joins = Vec::new();
        for s in &b.0 {
            self.stmt(s, &mut joins);
        }
        joins
    }

    fn stmt(&mut self, s: &Stmt, joins: &mut Vec<usize>) {
        match s {
            Stmt::Assign { var, value } => self.expr(value, *var as Reg),
            Stmt::Store { ptr, index, value } => {
                let m = self.temps.mark();
                let (space, elem) = match self.ty_of(ptr) {
                    Ty::Ptr { space, elem } => (space, elem),
                    t => panic!("bytecode lowering: store through non-pointer {t}"),
                };
                let idx_ty = prim(self.ty_of(index));
                let rp = self.operand(ptr);
                let ri = self.operand(index);
                let rv = self.operand(value);
                self.code.push(Op::Store {
                    ptr: rp,
                    idx: ri,
                    val: rv,
                    space,
                    elem,
                    idx_ty,
                });
                self.temps.release(m);
            }
            Stmt::AtomicAdd { ptr, index, value } => {
                let m = self.temps.mark();
                let (space, elem) = match self.ty_of(ptr) {
                    Ty::Ptr { space, elem } => (space, elem),
                    t => panic!("bytecode lowering: atomic through non-pointer {t}"),
                };
                let idx_ty = prim(self.ty_of(index));
                let rp = self.operand(ptr);
                let ri = self.operand(index);
                let rv = self.operand(value);
                self.code.push(Op::AtomicAdd {
                    ptr: rp,
                    idx: ri,
                    val: rv,
                    space,
                    elem,
                    idx_ty,
                });
                self.temps.release(m);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let m = self.temps.mark();
                let rc = self.operand(cond);
                let split = self.code.len();
                self.code.push(Op::IfSplit {
                    cond: rc,
                    else_pc: 0,
                    end_pc: 0,
                });
                self.temps.release(m);

                let then_joins = self.block(then_blk);
                let end_arm1 = self.code.len();
                self.code.push(Op::EndArm { join_pc: 0 });
                self.patch_joins(&then_joins, end_arm1 as u32);
                joins.push(end_arm1);

                let else_pc = self.here();
                let else_joins = self.block(else_blk);
                let end_arm2 = self.code.len();
                self.code.push(Op::EndArm { join_pc: 0 });
                self.patch_joins(&else_joins, end_arm2 as u32);
                joins.push(end_arm2);

                let end_pc = self.here();
                if let Op::IfSplit {
                    else_pc: ep,
                    end_pc: en,
                    ..
                } = &mut self.code[split]
                {
                    *ep = else_pc;
                    *en = end_pc;
                }
            }
            Stmt::For {
                id,
                var,
                init,
                cond,
                step,
                body,
            } => {
                // Iterator init runs *outside* the loop (not attributed to
                // loop cycles), exactly like the tree walker.
                self.expr(init, *var as Reg);
                self.code.push(Op::LoopEnter);
                let head = self.here();
                self.code.push(Op::LoopHead);
                let m = self.temps.mark();
                let rc = self.operand(cond);
                let test = self.code.len();
                self.code.push(Op::LoopTest {
                    cond: rc,
                    loop_id: *id,
                    iter: *var as Reg,
                    exit_pc: 0,
                });
                self.temps.release(m);

                let body_joins = self.block(body);
                let next = self.code.len();
                self.code.push(Op::LoopNext {
                    head_pc: head,
                    exit_pc: 0,
                    has_step: true,
                });
                self.patch_joins(&body_joins, next as u32);

                self.expr(step, *var as Reg);
                self.code.push(Op::Jump { pc: head });
                let exit = self.here();
                if let Op::LoopTest { exit_pc, .. } = &mut self.code[test] {
                    *exit_pc = exit;
                }
                if let Op::LoopNext { exit_pc, .. } = &mut self.code[next] {
                    *exit_pc = exit;
                }
            }
            Stmt::While { id, cond, body } => {
                self.code.push(Op::LoopEnter);
                let head = self.here();
                self.code.push(Op::LoopHead);
                let m = self.temps.mark();
                let rc = self.operand(cond);
                let test = self.code.len();
                self.code.push(Op::LoopTest {
                    cond: rc,
                    loop_id: *id,
                    iter: NO_REG,
                    exit_pc: 0,
                });
                self.temps.release(m);

                let body_joins = self.block(body);
                let next = self.code.len();
                self.code.push(Op::LoopNext {
                    head_pc: head,
                    exit_pc: 0,
                    has_step: false,
                });
                self.patch_joins(&body_joins, next as u32);
                let exit = self.here();
                if let Op::LoopTest { exit_pc, .. } = &mut self.code[test] {
                    *exit_pc = exit;
                }
                if let Op::LoopNext { exit_pc, .. } = &mut self.code[next] {
                    *exit_pc = exit;
                }
            }
            Stmt::Break => {
                joins.push(self.code.len());
                self.code.push(Op::Break { join_pc: 0 });
            }
            Stmt::Continue => {
                joins.push(self.code.len());
                self.code.push(Op::Continue { join_pc: 0 });
            }
            Stmt::SyncThreads => self.code.push(Op::Sync),
            Stmt::Hook(h) => {
                let m = self.temps.mark();
                let n = h.args.len() as u32;
                let base = self.temps.alloc_n(n);
                for (i, a) in h.args.iter().enumerate() {
                    self.expr(a, base + i as u32);
                }
                if n > 0 {
                    self.code.push(Op::ZeroInactive { base, n });
                }
                let hook = self.hooks.len() as u32;
                self.hooks.push(h.clone());
                self.hook_arg_tys
                    .push(h.args.iter().map(|a| self.ty_of(a)).collect());
                self.code.push(Op::Hook { hook, base, n });
                self.temps.release(m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::validate::validate_kernel;

    fn saxpy_like() -> KernelDef {
        let mut b = KernelBuilder::new("saxpy");
        let y = b.param("y", Ty::global_ptr(PrimTy::F32));
        let x = b.param("x", Ty::global_ptr(PrimTy::F32));
        let n = b.param("n", Ty::I32);
        let tid = b.local("tid", Ty::I32);
        b.assign(tid, b.global_thread_id_x());
        b.if_(Expr::lt(Expr::var(tid), Expr::var(n)), |b| {
            let v = b.let_(
                "v",
                Ty::F32,
                Expr::add(
                    Expr::mul(Expr::f32(2.0), Expr::load(Expr::var(x), Expr::var(tid))),
                    Expr::load(Expr::var(y), Expr::var(tid)),
                ),
            );
            b.store(Expr::var(y), Expr::var(tid), Expr::var(v));
        });
        b.finish()
    }

    #[test]
    fn lowered_saxpy_is_well_formed() {
        let k = saxpy_like();
        validate_kernel(&k).unwrap();
        let l = lower_kernel(&k);
        l.check().unwrap();
        assert_eq!(l.n_params, 3);
        assert_eq!(l.vars.len(), k.vars.len());
        // 2.0 is the only literal; global_thread_id_x uses three builtins.
        assert_eq!(l.consts, vec![Value::F32(2.0)]);
        assert_eq!(l.builtins.len(), 3);
        assert!(matches!(l.code.last(), Some(Op::Halt)));
        // Disassembly renders every instruction.
        let d = l.to_string();
        assert!(d.contains("if"), "{d}");
        assert!(d.contains("store"), "{d}");
    }

    #[test]
    fn const_interning_is_bitwise() {
        let mut b = KernelBuilder::new("consts");
        let out = b.param("out", Ty::global_ptr(PrimTy::F32));
        let v = b.let_("v", Ty::F32, Expr::f32(0.0));
        b.assign(v, Expr::add(Expr::var(v), Expr::f32(-0.0)));
        b.assign(v, Expr::add(Expr::var(v), Expr::f32(0.0)));
        b.store(Expr::var(out), Expr::i32(0), Expr::var(v));
        let k = b.finish();
        let l = lower_kernel(&k);
        // 0.0 (interned once across the init and the add), -0.0, and the
        // store index 0i are distinct pool entries.
        assert_eq!(l.consts.len(), 3);
        assert!(l
            .consts
            .iter()
            .any(|c| matches!(c, Value::F32(f) if f.to_bits() == (-0.0f32).to_bits())));
    }

    #[test]
    fn loops_backpatch_targets() {
        let mut b = KernelBuilder::new("looped");
        let out = b.param("out", Ty::global_ptr(PrimTy::F32));
        let n = b.param("n", Ty::I32);
        let acc = b.let_("acc", Ty::F32, Expr::f32(0.0));
        let i = b.local("i", Ty::I32);
        b.for_range(i, Expr::var(n), |b| {
            b.assign(acc, Expr::add(Expr::var(acc), Expr::f32(1.0)));
            b.if_(Expr::lt(Expr::var(n), Expr::var(i)), |b| {
                b.stmt(Stmt::Break);
            });
        });
        b.store(Expr::var(out), Expr::i32(0), Expr::var(acc));
        let k = b.finish();
        let l = lower_kernel(&k);
        l.check().unwrap();
        let n_test = l
            .code
            .iter()
            .filter(|o| matches!(o, Op::LoopTest { .. }))
            .count();
        let n_break = l
            .code
            .iter()
            .filter(|o| matches!(o, Op::Break { .. }))
            .count();
        assert_eq!(n_test, 1);
        assert_eq!(n_break, 1);
        // The break's join must point at a terminator-style op.
        let join = l
            .code
            .iter()
            .find_map(|o| match o {
                Op::Break { join_pc } => Some(*join_pc),
                _ => None,
            })
            .unwrap();
        assert!(matches!(
            l.code[join as usize],
            Op::EndArm { .. } | Op::LoopNext { .. } | Op::Halt
        ));
    }

    #[test]
    fn temp_slots_are_reused() {
        let mut b = KernelBuilder::new("temps");
        let out = b.param("out", Ty::global_ptr(PrimTy::F32));
        let v = b.let_(
            "v",
            Ty::F32,
            Expr::add(
                Expr::mul(Expr::f32(1.5), Expr::f32(2.5)),
                Expr::mul(Expr::f32(3.5), Expr::f32(4.5)),
            ),
        );
        b.store(Expr::var(out), Expr::i32(0), Expr::var(v));
        let k = b.finish();
        let l = lower_kernel(&k);
        // Two sibling products: the second reuses the first's temp, so the
        // high-water mark stays at 2 (one per live product), not 4.
        assert!(l.n_temps <= 2, "n_temps = {}", l.n_temps);
    }
}
