//! KIR expressions.
//!
//! Expressions are pure (loads read memory but have no side effects), which
//! lets the Hauberk translator duplicate a definition's right-hand side
//! verbatim (§V.A step ii) and lets the dataflow analysis treat an
//! expression tree as a slice of the loop dataflow graph (Fig. 9).

use crate::types::{PrimTy, Ty};
use crate::value::Value;
use std::fmt;

/// Index of a variable in a kernel's variable table
/// (see [`crate::kernel::KernelDef::vars`]). Parameters come first.
pub type VarId = u32;

/// Thread/block geometry builtins (the CUDA `threadIdx`/`blockIdx`/... values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuiltinVar {
    /// `threadIdx.x`
    ThreadIdxX,
    /// `threadIdx.y`
    ThreadIdxY,
    /// `blockIdx.x`
    BlockIdxX,
    /// `blockIdx.y`
    BlockIdxY,
    /// `blockDim.x`
    BlockDimX,
    /// `blockDim.y`
    BlockDimY,
    /// `gridDim.x`
    GridDimX,
    /// `gridDim.y`
    GridDimY,
    /// Base pointer of this block's shared memory (`f32` elements; cast as
    /// needed). Models CUDA dynamic shared memory.
    SharedBaseF32,
    /// Base pointer of this block's shared memory viewed as `i32` elements.
    SharedBaseI32,
}

impl BuiltinVar {
    /// The static type the builtin evaluates to.
    pub fn ty(self) -> Ty {
        match self {
            BuiltinVar::SharedBaseF32 => Ty::shared_ptr(PrimTy::F32),
            BuiltinVar::SharedBaseI32 => Ty::shared_ptr(PrimTy::I32),
            _ => Ty::I32,
        }
    }

    /// The mini-CUDA surface-syntax spelling (a nullary call).
    pub fn spelling(self) -> &'static str {
        match self {
            BuiltinVar::ThreadIdxX => "thread_idx_x",
            BuiltinVar::ThreadIdxY => "thread_idx_y",
            BuiltinVar::BlockIdxX => "block_idx_x",
            BuiltinVar::BlockIdxY => "block_idx_y",
            BuiltinVar::BlockDimX => "block_dim_x",
            BuiltinVar::BlockDimY => "block_dim_y",
            BuiltinVar::GridDimX => "grid_dim_x",
            BuiltinVar::GridDimY => "grid_dim_y",
            BuiltinVar::SharedBaseF32 => "shared_f32",
            BuiltinVar::SharedBaseI32 => "shared_i32",
        }
    }

    /// All builtins (used by the parser's keyword table).
    pub const ALL: [BuiltinVar; 10] = [
        BuiltinVar::ThreadIdxX,
        BuiltinVar::ThreadIdxY,
        BuiltinVar::BlockIdxX,
        BuiltinVar::BlockIdxY,
        BuiltinVar::BlockDimX,
        BuiltinVar::BlockDimY,
        BuiltinVar::GridDimX,
        BuiltinVar::GridDimY,
        BuiltinVar::SharedBaseF32,
        BuiltinVar::SharedBaseI32,
    ];
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (bool).
    Not,
    /// Bitwise not (integers).
    BitNot,
    /// Reinterpret the operand's 32-bit pattern as `u32` (no conversion).
    ///
    /// This is the primitive the XOR-checksum detector uses to fold values
    /// of any type into the per-kernel checksum (§V.A: "If a variable size
    /// is not 4 bytes, it is aligned by four-bytes for XOR operations").
    BitsOf,
}

/// Binary operators. Semantics follow C/CUDA for the operand types involved;
/// see the simulator's evaluator for the exact rules (wrapping integer
/// arithmetic, IEEE-754 floats, pointer ± integer element arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition (also pointer + integer, in elements).
    Add,
    /// Subtraction (also pointer - integer, in elements).
    Sub,
    /// Multiplication.
    Mul,
    /// Division. Integer division by zero yields 0 on the GPU (no trap,
    /// like CUDA); float division follows IEEE-754.
    Div,
    /// Remainder. Integer remainder by zero yields 0 on the GPU.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Shift right (arithmetic for `i32`, logical for `u32`).
    Shr,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
    /// Equality (bitwise for floats).
    Eq,
    /// Inequality.
    Ne,
    /// Short-circuit logical and (both sides are evaluated on the lockstep
    /// SIMT machine, like predicated CUDA code).
    LAnd,
    /// Short-circuit logical or (see [`BinOp::LAnd`]).
    LOr,
}

impl BinOp {
    /// Whether this operator yields a boolean.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// Whether this operator is a logical connective.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::LAnd | BinOp::LOr)
    }

    /// Surface-syntax spelling.
    pub fn spelling(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::LAnd => "&&",
            BinOp::LOr => "||",
        }
    }
}

/// Math intrinsics (the CUDA special-function unit operations the paper's
/// kernels use: `sqrtf`, `rsqrtf`, `sinf`, `cosf`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MathFn {
    /// `sqrtf(x)`
    Sqrt,
    /// `rsqrtf(x)` = 1/sqrt(x)
    Rsqrt,
    /// `sinf(x)`
    Sin,
    /// `cosf(x)`
    Cos,
    /// `expf(x)`
    Exp,
    /// `logf(x)` (natural log)
    Log,
    /// `fabsf(x)` / `abs(x)`
    Abs,
    /// `floorf(x)`
    Floor,
    /// two-argument minimum
    Min,
    /// two-argument maximum
    Max,
}

impl MathFn {
    /// Number of arguments.
    pub fn arity(self) -> usize {
        match self {
            MathFn::Min | MathFn::Max => 2,
            _ => 1,
        }
    }

    /// Surface-syntax spelling.
    pub fn spelling(self) -> &'static str {
        match self {
            MathFn::Sqrt => "sqrt",
            MathFn::Rsqrt => "rsqrt",
            MathFn::Sin => "sin",
            MathFn::Cos => "cos",
            MathFn::Exp => "exp",
            MathFn::Log => "log",
            MathFn::Abs => "abs",
            MathFn::Floor => "floor",
            MathFn::Min => "min",
            MathFn::Max => "max",
        }
    }

    /// All math intrinsics (parser keyword table).
    pub const ALL: [MathFn; 10] = [
        MathFn::Sqrt,
        MathFn::Rsqrt,
        MathFn::Sin,
        MathFn::Cos,
        MathFn::Exp,
        MathFn::Log,
        MathFn::Abs,
        MathFn::Floor,
        MathFn::Min,
        MathFn::Max,
    ];
}

/// A KIR expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// A variable read.
    Var(VarId),
    /// A thread-geometry builtin.
    Builtin(BuiltinVar),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Math intrinsic call.
    Call(MathFn, Vec<Expr>),
    /// `load(ptr, index)` — read element `index` (in elements) from `ptr`.
    Load {
        /// Pointer expression (must have pointer type).
        ptr: Box<Expr>,
        /// Element index expression (integer).
        index: Box<Expr>,
    },
    /// Numeric conversion to `to` (C-style cast; not a bit reinterpretation —
    /// use [`UnOp::BitsOf`] for that).
    Cast(PrimTy, Box<Expr>),
}

// add/sub/mul/div are AST constructors taking operands by value, not
// arithmetic on Expr — the std::ops traits would be the wrong signature.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Literal `f32`.
    pub fn f32(v: f32) -> Expr {
        Expr::Lit(Value::F32(v))
    }

    /// Literal `i32`.
    pub fn i32(v: i32) -> Expr {
        Expr::Lit(Value::I32(v))
    }

    /// Literal `u32`.
    pub fn u32(v: u32) -> Expr {
        Expr::Lit(Value::U32(v))
    }

    /// Variable read.
    pub fn var(v: VarId) -> Expr {
        Expr::Var(v)
    }

    /// Binary op helper.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    /// `a + b`
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Add, a, b)
    }

    /// `a - b`
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Sub, a, b)
    }

    /// `a * b`
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Mul, a, b)
    }

    /// `a / b`
    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Div, a, b)
    }

    /// `a < b`
    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Lt, a, b)
    }

    /// `load(ptr, index)`
    pub fn load(ptr: Expr, index: Expr) -> Expr {
        Expr::Load {
            ptr: Box::new(ptr),
            index: Box::new(index),
        }
    }

    /// Math call helper.
    pub fn call(f: MathFn, args: Vec<Expr>) -> Expr {
        Expr::Call(f, args)
    }

    /// Walk the expression tree, invoking `f` on every node (pre-order).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Lit(_) | Expr::Var(_) | Expr::Builtin(_) => {}
            Expr::Un(_, e) | Expr::Cast(_, e) => e.walk(f),
            Expr::Bin(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Load { ptr, index } => {
                ptr.walk(f);
                index.walk(f);
            }
        }
    }

    /// All variables read anywhere in the expression (with multiplicity).
    pub fn vars_used(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Var(v) = e {
                out.push(*v);
            }
        });
        out
    }

    /// Whether the expression reads variable `v`.
    pub fn uses_var(&self, v: VarId) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::Var(x) if *x == v) {
                found = true;
            }
        });
        found
    }

    /// Number of memory-load nodes in the expression.
    pub fn load_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |e| {
            if matches!(e, Expr::Load { .. }) {
                n += 1;
            }
        });
        n
    }

    /// Replace every variable read according to `map` (identity where the
    /// map returns `None`). Used by redundant-computation transforms (the
    /// R-Scatter baseline duplicates whole dataflow chains by substituting
    /// duplicate variables into duplicated right-hand sides).
    #[must_use]
    pub fn substitute_vars(&self, map: &impl Fn(VarId) -> Option<VarId>) -> Expr {
        match self {
            Expr::Var(v) => Expr::Var(map(*v).unwrap_or(*v)),
            Expr::Lit(_) | Expr::Builtin(_) => self.clone(),
            Expr::Un(op, e) => Expr::Un(*op, Box::new(e.substitute_vars(map))),
            Expr::Bin(op, a, b) => Expr::Bin(
                *op,
                Box::new(a.substitute_vars(map)),
                Box::new(b.substitute_vars(map)),
            ),
            Expr::Call(m, args) => {
                Expr::Call(*m, args.iter().map(|a| a.substitute_vars(map)).collect())
            }
            Expr::Load { ptr, index } => Expr::Load {
                ptr: Box::new(ptr.substitute_vars(map)),
                index: Box::new(index.substitute_vars(map)),
            },
            Expr::Cast(ty, e) => Expr::Cast(*ty, Box::new(e.substitute_vars(map))),
        }
    }

    /// Static type of the expression, given each variable's type, by the
    /// typing rules of [`crate::validate::validate_kernel`]. Meaningful on
    /// validated kernels only (an ill-typed load reads as `i32`).
    pub fn static_ty(&self, var_ty: &impl Fn(VarId) -> Ty) -> Ty {
        match self {
            Expr::Lit(v) => v.ty(),
            Expr::Var(v) => var_ty(*v),
            Expr::Builtin(b) => b.ty(),
            Expr::Un(UnOp::BitsOf, _) => Ty::U32,
            Expr::Un(_, a) => a.static_ty(var_ty),
            Expr::Bin(op, a, _) => {
                if op.is_comparison() || op.is_logical() {
                    Ty::BOOL
                } else {
                    // Arithmetic/bitwise preserve the left operand's type;
                    // this covers pointer arithmetic (`ptr ± int` is `ptr`).
                    a.static_ty(var_ty)
                }
            }
            Expr::Call(f, args) => match f {
                MathFn::Min | MathFn::Max | MathFn::Abs => args[0].static_ty(var_ty),
                _ => Ty::F32,
            },
            Expr::Load { ptr, .. } => match ptr.static_ty(var_ty) {
                Ty::Ptr { elem, .. } => Ty::Prim(elem),
                _ => Ty::I32,
            },
            Expr::Cast(to, _) => Ty::Prim(*to),
        }
    }

    /// Number of operator nodes (unary + binary + calls + loads + casts):
    /// a proxy for the instruction count of the computation, used by the
    /// cost-model discussion and by tests.
    pub fn op_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |e| {
            if !matches!(e, Expr::Lit(_) | Expr::Var(_) | Expr::Builtin(_)) {
                n += 1;
            }
        });
        n
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Fully parenthesized debug form; the pretty-printer in
        // `crate::printer` produces the canonical surface syntax.
        match self {
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Var(v) => write!(f, "v{v}"),
            Expr::Builtin(b) => write!(f, "{}()", b.spelling()),
            Expr::Un(op, e) => match op {
                UnOp::Neg => write!(f, "(-{e})"),
                UnOp::Not => write!(f, "(!{e})"),
                UnOp::BitNot => write!(f, "(~{e})"),
                UnOp::BitsOf => write!(f, "bits({e})"),
            },
            Expr::Bin(op, a, b) => write!(f, "({a} {} {b})", op.spelling()),
            Expr::Call(m, args) => {
                write!(f, "{}(", m.spelling())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Load { ptr, index } => write!(f, "load({ptr}, {index})"),
            Expr::Cast(ty, e) => write!(f, "cast<{ty}>({e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Expr {
        // a*load(p, i) + b
        Expr::add(
            Expr::mul(Expr::var(0), Expr::load(Expr::var(1), Expr::var(2))),
            Expr::var(3),
        )
    }

    #[test]
    fn vars_used_collects_all() {
        let e = sample();
        let mut vs = e.vars_used();
        vs.sort_unstable();
        assert_eq!(vs, vec![0, 1, 2, 3]);
        assert!(e.uses_var(2));
        assert!(!e.uses_var(9));
    }

    #[test]
    fn counts() {
        let e = sample();
        assert_eq!(e.load_count(), 1);
        // mul + add + load
        assert_eq!(e.op_count(), 3);
    }

    #[test]
    fn builtin_types() {
        assert_eq!(BuiltinVar::ThreadIdxX.ty(), Ty::I32);
        assert!(BuiltinVar::SharedBaseF32.ty().is_ptr());
    }

    #[test]
    fn display_is_stable() {
        let e = sample();
        assert_eq!(e.to_string(), "((v0 * load(v1, v2)) + v3)");
    }

    #[test]
    fn math_arities() {
        assert_eq!(MathFn::Min.arity(), 2);
        assert_eq!(MathFn::Sqrt.arity(), 1);
    }
}
