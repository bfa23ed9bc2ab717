//! Static analyses backing the Hauberk detector-derivation algorithms.
//!
//! * [`DefUse`] — per-variable definition/use summary (which variables are
//!   defined inside loops, how often each is used), the information the
//!   non-loop detector and the fault-injection target selection need.
//! * [`LoopDataflow`] — the dataflow graph of a loop body (the paper's
//!   Fig. 9): which loop-defined variables feed which, how many memory loads
//!   participate, which variables are *self-accumulating*, and which are
//!   outputs.
//! * [`select_protection_targets`] — the paper's §V.B step (i): pick
//!   self-accumulators first, then repeatedly the variable with the largest
//!   **cumulative backward dataflow dependency**, removing each selection's
//!   backward slice from further consideration, up to `max_var` variables.
//! * [`derive_trip_count`] — §V.B step (iii)/(iv): derive a loop-invariant
//!   expression for the expected iteration count of a counting loop, checked
//!   at runtime with `HauberkCheckEqual`.
//! * [`hang_certificates`] — per loop, the static facts (the same
//!   counted-loop shape, a body that can neither trap nor leave) that let a
//!   simulator declare a corrupted counted loop a hang without running out
//!   the watchdog budget.

use crate::expr::{BinOp, Expr, VarId};
use crate::kernel::KernelDef;
use crate::stmt::{Block, Hook, LoopId, SiteId, Stmt};
use crate::types::{PrimTy, Ty};
use crate::visit::for_each_stmt;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// Def/use summary
// ---------------------------------------------------------------------------

/// Per-variable def/use summary for a kernel.
#[derive(Debug, Clone, Default)]
pub struct VarInfo {
    /// Number of assignments to the variable anywhere in the kernel
    /// (a `for` header counts as assigning its iterator).
    pub n_defs: usize,
    /// Number of textual uses (reads) of the variable.
    pub n_uses: usize,
    /// Whether any definition is inside a loop body or is a loop iterator.
    pub defined_in_loop: bool,
    /// Whether any use is inside a loop body (or a loop header).
    pub used_in_loop: bool,
}

/// Def/use summaries for every variable of a kernel.
#[derive(Debug, Clone)]
pub struct DefUse {
    /// Indexed by [`VarId`].
    pub vars: Vec<VarInfo>,
}

impl DefUse {
    /// Compute the summary for `kernel`.
    pub fn of(kernel: &KernelDef) -> DefUse {
        let mut vars = vec![VarInfo::default(); kernel.vars.len()];
        walk_defuse(&kernel.body, false, &mut vars);
        DefUse { vars }
    }

    /// Variables never defined inside loops (the non-loop detector's domain).
    pub fn non_loop_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.vars
            .iter()
            .enumerate()
            .filter_map(|(i, v)| (!v.defined_in_loop && v.n_defs > 0).then_some(i as VarId))
    }
}

fn count_uses(e: &Expr, in_loop: bool, vars: &mut [VarInfo]) {
    e.walk(&mut |n| {
        if let Expr::Var(v) = n {
            vars[*v as usize].n_uses += 1;
            if in_loop {
                vars[*v as usize].used_in_loop = true;
            }
        }
    });
}

fn walk_defuse(block: &Block, in_loop: bool, vars: &mut [VarInfo]) {
    for s in &block.0 {
        match s {
            Stmt::Assign { var, value } => {
                vars[*var as usize].n_defs += 1;
                if in_loop {
                    vars[*var as usize].defined_in_loop = true;
                }
                count_uses(value, in_loop, vars);
            }
            Stmt::Store { ptr, index, value } | Stmt::AtomicAdd { ptr, index, value } => {
                count_uses(ptr, in_loop, vars);
                count_uses(index, in_loop, vars);
                count_uses(value, in_loop, vars);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                count_uses(cond, in_loop, vars);
                walk_defuse(then_blk, in_loop, vars);
                walk_defuse(else_blk, in_loop, vars);
            }
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
                ..
            } => {
                // The iterator is defined by the header and re-defined every
                // iteration: it belongs to the loop-protected domain.
                vars[*var as usize].n_defs += 2;
                vars[*var as usize].defined_in_loop = true;
                count_uses(init, in_loop, vars);
                count_uses(cond, true, vars);
                count_uses(step, true, vars);
                walk_defuse(body, true, vars);
            }
            Stmt::While { cond, body, .. } => {
                count_uses(cond, true, vars);
                walk_defuse(body, true, vars);
            }
            Stmt::Hook(h) => {
                for a in &h.args {
                    count_uses(a, in_loop, vars);
                }
            }
            Stmt::Break | Stmt::Continue | Stmt::SyncThreads => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Loop dataflow (Fig. 9)
// ---------------------------------------------------------------------------

/// The dataflow graph of one loop body, over variables assigned in the loop.
///
/// External variables (defined outside the loop) are excluded from dependency
/// counts — they are "protected by non-loop error detectors" (the black
/// ellipses of Fig. 9). Memory loads are counted as inputs ("including the
/// memory load data but not the constant").
#[derive(Debug, Clone)]
pub struct LoopDataflow {
    /// Loop id this graph describes.
    pub loop_id: LoopId,
    /// Variables assigned anywhere in the loop (including nested loops and
    /// loop iterators), in first-assignment order.
    pub assigned: Vec<VarId>,
    /// For each assigned variable: the set of *loop-assigned* variables its
    /// defining expressions read (union over all of its defs in the loop).
    pub deps: BTreeMap<VarId, BTreeSet<VarId>>,
    /// For each assigned variable: number of memory-load nodes across its
    /// defining expressions.
    pub loads: BTreeMap<VarId, usize>,
    /// Variables whose *every* in-loop definition is accumulative
    /// (`v = v ± e` / `v = v * e`): their value carries across iterations,
    /// so they need no extra accumulator (§V.B step i: selected first).
    /// A variable that is also reset inside the loop is excluded.
    pub self_accumulating: BTreeSet<VarId>,
    /// Variables whose value leaves the loop: stored to memory inside the
    /// loop, or read after the loop body by any later statement.
    pub outputs: BTreeSet<VarId>,
}

impl LoopDataflow {
    /// Build the dataflow graph for the loop statement `loop_stmt`
    /// (`Stmt::For` or `Stmt::While`) of `kernel`.
    ///
    /// # Panics
    /// Panics if `loop_stmt` is not a loop.
    pub fn of(kernel: &KernelDef, loop_stmt: &Stmt) -> LoopDataflow {
        let (loop_id, body, header_assigns) = match loop_stmt {
            Stmt::For { id, var, body, .. } => (*id, body, vec![*var]),
            Stmt::While { id, body, .. } => (*id, body, vec![]),
            _ => panic!("LoopDataflow::of requires a loop statement"),
        };

        let mut assigned: Vec<VarId> = Vec::new();
        let push_assigned = |v: VarId, assigned: &mut Vec<VarId>| {
            if !assigned.contains(&v) {
                assigned.push(v);
            }
        };
        for v in &header_assigns {
            push_assigned(*v, &mut assigned);
        }
        for_each_stmt(body, &mut |s| match s {
            Stmt::Assign { var, .. } => push_assigned(*var, &mut assigned),
            Stmt::For { var, .. } => push_assigned(*var, &mut assigned),
            _ => {}
        });
        let in_loop: BTreeSet<VarId> = assigned.iter().copied().collect();

        let mut deps: BTreeMap<VarId, BTreeSet<VarId>> = BTreeMap::new();
        let mut loads: BTreeMap<VarId, usize> = BTreeMap::new();
        // Self-accumulation requires *every* in-loop definition to be
        // accumulative: a variable that is also reset (`s = 0;` at the top
        // of a nested iteration) does not carry its history across the loop
        // and needs an explicit accumulator like any other target.
        let mut acc_defs: BTreeMap<VarId, (usize, usize)> = BTreeMap::new(); // (acc, total)
        for v in &assigned {
            deps.entry(*v).or_default();
            loads.entry(*v).or_default();
        }

        // `for` iterators: the step expression defines the iterator.
        if let Stmt::For { var, step, .. } = loop_stmt {
            for u in step.vars_used() {
                if in_loop.contains(&u) && u != *var {
                    deps.get_mut(var).expect("inserted above").insert(u);
                }
            }
        }

        // Walk with a control-dependency context: a definition guarded by a
        // branch (or a nested-loop condition) also depends on the condition
        // variables — errors propagate through control decisions too.
        fn dep_walk(
            block: &Block,
            in_loop: &BTreeSet<VarId>,
            ctrl: &mut Vec<VarId>,
            deps: &mut BTreeMap<VarId, BTreeSet<VarId>>,
            loads: &mut BTreeMap<VarId, usize>,
            acc_defs: &mut BTreeMap<VarId, (usize, usize)>,
        ) {
            for s in &block.0 {
                match s {
                    Stmt::Assign { var, value } => {
                        let d = deps.get_mut(var).expect("all assigned vars inserted");
                        for u in value.vars_used() {
                            if in_loop.contains(&u) && u != *var {
                                d.insert(u);
                            }
                        }
                        for u in ctrl.iter() {
                            if *u != *var {
                                d.insert(*u);
                            }
                        }
                        *loads.get_mut(var).expect("inserted above") += value.load_count();
                        let entry = acc_defs.entry(*var).or_insert((0, 0));
                        entry.1 += 1;
                        if is_self_accumulating(*var, value) {
                            entry.0 += 1;
                        }
                    }
                    Stmt::If {
                        cond,
                        then_blk,
                        else_blk,
                    } => {
                        let pushed = push_ctrl(cond, in_loop, ctrl);
                        dep_walk(then_blk, in_loop, ctrl, deps, loads, acc_defs);
                        dep_walk(else_blk, in_loop, ctrl, deps, loads, acc_defs);
                        ctrl.truncate(ctrl.len() - pushed);
                    }
                    Stmt::For {
                        var,
                        step,
                        cond,
                        body,
                        ..
                    } => {
                        let d = deps.get_mut(var).expect("inserted above");
                        for u in step.vars_used() {
                            if in_loop.contains(&u) && u != *var {
                                d.insert(u);
                            }
                        }
                        let pushed = push_ctrl(cond, in_loop, ctrl);
                        dep_walk(body, in_loop, ctrl, deps, loads, acc_defs);
                        ctrl.truncate(ctrl.len() - pushed);
                    }
                    Stmt::While { cond, body, .. } => {
                        let pushed = push_ctrl(cond, in_loop, ctrl);
                        dep_walk(body, in_loop, ctrl, deps, loads, acc_defs);
                        ctrl.truncate(ctrl.len() - pushed);
                    }
                    _ => {}
                }
            }
        }
        fn push_ctrl(cond: &Expr, in_loop: &BTreeSet<VarId>, ctrl: &mut Vec<VarId>) -> usize {
            let mut n = 0;
            for u in cond.vars_used() {
                if in_loop.contains(&u) && !ctrl.contains(&u) {
                    ctrl.push(u);
                    n += 1;
                }
            }
            n
        }
        let mut ctrl: Vec<VarId> = Vec::new();
        dep_walk(
            body,
            &in_loop,
            &mut ctrl,
            &mut deps,
            &mut loads,
            &mut acc_defs,
        );

        // Outputs: stored to memory inside the loop, or used after the loop.
        let mut outputs: BTreeSet<VarId> = BTreeSet::new();
        for_each_stmt(body, &mut |s| {
            if let Stmt::Store { ptr, index, value } | Stmt::AtomicAdd { ptr, index, value } = s {
                for e in [ptr, index, value] {
                    for u in e.vars_used() {
                        if in_loop.contains(&u) {
                            outputs.insert(u);
                        }
                    }
                }
            }
        });
        // Uses after the loop, anywhere in the kernel body that follows it.
        let mut seen_loop = false;
        scan_after(&kernel.body, loop_stmt, &mut seen_loop, &mut |s| {
            for v in &in_loop {
                if s.uses_var_directly(*v) || s.uses_var_recursively(*v) {
                    outputs.insert(*v);
                }
            }
        });

        let self_acc: BTreeSet<VarId> = acc_defs
            .iter()
            .filter(|(_, (acc, total))| *acc > 0 && acc == total)
            .map(|(v, _)| *v)
            .collect();

        LoopDataflow {
            loop_id,
            assigned,
            deps,
            loads,
            self_accumulating: self_acc,
            outputs,
        }
    }

    /// The backward slice of `v`: all loop-assigned variables that directly
    /// or indirectly feed `v` (excluding `v` itself unless it is cyclic).
    pub fn backward_slice(&self, v: VarId) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        let mut work: Vec<VarId> = self
            .deps
            .get(&v)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        while let Some(u) = work.pop() {
            if out.insert(u) {
                if let Some(ds) = self.deps.get(&u) {
                    work.extend(ds.iter().copied());
                }
            }
        }
        out
    }

    /// The paper's **cumulative backward dataflow dependency** of `v`: the
    /// number of loop-defined virtual variables that can flow into `v`, plus
    /// the memory-load inputs of those definitions (constants and variables
    /// protected by non-loop detectors excluded).
    pub fn cumulative_backward(&self, v: VarId) -> usize {
        let slice = self.backward_slice(v);
        let own_loads = self.loads.get(&v).copied().unwrap_or(0);
        let slice_loads: usize = slice
            .iter()
            .map(|u| self.loads.get(u).copied().unwrap_or(0))
            .sum();
        slice.len() + own_loads + slice_loads
    }
}

/// Whether the previous value of `var` sits at the head of an accumulation
/// chain: `v = v + a`, `v = a + v`, `v = v + a - b`, `v = v * a`, ... — the
/// paper's "self-accumulating" shape generalized to +/−/× spines.
fn is_self_accumulating(var: VarId, value: &Expr) -> bool {
    fn head_is_var(e: &Expr, var: VarId) -> bool {
        match e {
            Expr::Var(x) => *x == var,
            Expr::Bin(BinOp::Add, a, b) => head_is_var(a, var) || head_is_var(b, var),
            Expr::Bin(BinOp::Sub, a, _) => head_is_var(a, var),
            Expr::Bin(BinOp::Mul, a, b) => head_is_var(a, var) || head_is_var(b, var),
            _ => false,
        }
    }
    matches!(value, Expr::Bin(BinOp::Add | BinOp::Sub | BinOp::Mul, _, _))
        && head_is_var(value, var)
}

/// Invoke `f` on every statement that comes after `marker` in program order
/// (used to find loop outputs that are read later).
fn scan_after<'a>(block: &'a Block, marker: &Stmt, seen: &mut bool, f: &mut impl FnMut(&'a Stmt)) {
    for s in &block.0 {
        if *seen {
            f(s);
        }
        if std::ptr::eq(s, marker) || s == marker {
            *seen = true;
            continue;
        }
        match s {
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                scan_after(then_blk, marker, seen, f);
                scan_after(else_blk, marker, seen, f);
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => {
                scan_after(body, marker, seen, f);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Protection-target selection (§V.B step i)
// ---------------------------------------------------------------------------

/// Select the loop variables to protect, per the paper's algorithm:
///
/// 1. All self-accumulating variables are selected first (they need no extra
///    accumulator code inside the loop).
/// 2. Variables with forward dataflow dependency *to* a selected variable
///    (i.e. members of its backward slice) are excluded.
/// 3. Repeatedly select the remaining variable with the largest cumulative
///    backward dataflow dependency, excluding its backward slice, until
///    `max_var` variables are selected (self-accumulators count toward
///    `max_var`) or no candidates remain.
///
/// Loop iterators are never selected (they are covered by the iteration-count
/// invariant instead), and neither are boolean flags.
pub fn select_protection_targets(
    kernel: &KernelDef,
    df: &LoopDataflow,
    iterator: Option<VarId>,
    max_var: usize,
) -> Vec<VarId> {
    let mut selected: Vec<VarId> = Vec::new();
    let mut excluded: BTreeSet<VarId> = BTreeSet::new();
    if let Some(it) = iterator {
        excluded.insert(it);
    }
    let numeric = |v: VarId| {
        let ty = kernel.var_ty(v);
        !ty.is_ptr() && ty != crate::types::Ty::BOOL
    };

    // Self-accumulators first (they need no in-loop code), largest
    // cumulative backward dependency first so one free detector covers the
    // widest slice of the loop's state.
    let mut self_accs: Vec<VarId> = df
        .assigned
        .iter()
        .copied()
        .filter(|v| df.self_accumulating.contains(v) && numeric(*v))
        .collect();
    self_accs.sort_by_key(|v| std::cmp::Reverse(df.cumulative_backward(*v)));
    for v in self_accs {
        if selected.len() >= max_var {
            break;
        }
        if !excluded.contains(&v) {
            selected.push(v);
            excluded.insert(v);
            for u in df.backward_slice(v) {
                excluded.insert(u);
            }
        }
    }

    while selected.len() < max_var {
        let best = df
            .assigned
            .iter()
            .filter(|v| !excluded.contains(v) && numeric(**v))
            .max_by_key(|v| (df.cumulative_backward(**v), df.outputs.contains(v)));
        match best {
            Some(&v) if df.cumulative_backward(v) > 0 || df.outputs.contains(&v) => {
                selected.push(v);
                excluded.insert(v);
                for u in df.backward_slice(v) {
                    excluded.insert(u);
                }
            }
            _ => break,
        }
    }
    selected
}

// ---------------------------------------------------------------------------
// Trip-count derivation (§V.B steps iii–iv)
// ---------------------------------------------------------------------------

/// Derive a loop-invariant expression for the expected iteration count of a
/// counting `for` loop: `for (i = init; i < bound; i = i + 1)` yields
/// `max(bound - init, 0)`, and `<=` yields `max(bound - init + 1, 0)`.
///
/// Returns `None` when the loop shape is not a recognizable counting loop or
/// the bound/init are not loop-invariant (in which case the translator simply
/// omits the `HauberkCheckEqual` invariant, as the paper allows).
pub fn derive_trip_count(loop_stmt: &Stmt) -> Option<Expr> {
    let Stmt::For {
        var,
        init,
        cond,
        step,
        body,
        ..
    } = loop_stmt
    else {
        return None;
    };
    // Step must be `var + 1`.
    let is_incr = matches!(
        step,
        Expr::Bin(BinOp::Add, a, b)
            if matches!(**a, Expr::Var(x) if x == *var)
                && matches!(**b, Expr::Lit(crate::value::Value::I32(1)))
    );
    if !is_incr {
        return None;
    }
    let (op, bound) = match cond {
        Expr::Bin(op @ (BinOp::Lt | BinOp::Le), a, b) if matches!(**a, Expr::Var(x) if x == *var) => {
            (*op, (**b).clone())
        }
        _ => return None,
    };
    // The bound, the init, and the iterator must not be written in the body
    // (the iterator is only advanced by the header step).
    let mut invariant_vars: Vec<VarId> = bound.vars_used();
    invariant_vars.extend(init.vars_used());
    invariant_vars.push(*var);
    for s in &body.0 {
        for v in &invariant_vars {
            if s.assigns_var_recursively(*v) {
                return None;
            }
        }
        // `break` makes the static count an over-approximation; give up.
        if stmt_contains_break(s) {
            return None;
        }
    }
    let diff = Expr::sub(bound, init.clone());
    let count = if op == BinOp::Le {
        Expr::add(diff, Expr::i32(1))
    } else {
        diff
    };
    Some(Expr::call(
        crate::expr::MathFn::Max,
        vec![count, Expr::i32(0)],
    ))
}

fn stmt_contains_break(s: &Stmt) -> bool {
    match s {
        Stmt::Break => true,
        Stmt::If {
            then_blk, else_blk, ..
        } => {
            then_blk.0.iter().any(stmt_contains_break) || else_blk.0.iter().any(stmt_contains_break)
        }
        // A break inside a *nested* loop exits that loop, not this one.
        Stmt::For { .. } | Stmt::While { .. } => false,
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Hang certificates
// ---------------------------------------------------------------------------

/// The static half of a hang certificate for one counted loop: the facts
/// that let a simulator end a launch as a hang the moment a live lane's
/// remaining trip count outlasts the cycle budget, instead of running the
/// budget out.
///
/// A loop has one when it has [`derive_trip_count`]'s shape — `i32`
/// iterator, step `+ 1`, `<`/`<=` against a bound that reads neither the
/// iterator nor anything the body writes, no `break` — and its body (and
/// every expression of its header) can neither trap nor leave: no load,
/// store or atomic, no integer division or remainder, no barrier, and only
/// the value ops the VM runs infallibly. The iterator then advances by
/// exactly one per iteration and the loop ends only when the bound says so.
/// What the hook runtime may still do at [`HangCert::hooks`] and
/// [`HangCert::loops`] is for the runtime to answer at launch time.
#[derive(Debug, Clone, PartialEq)]
pub struct HangCert {
    /// The iterator (an `i32`).
    pub iter: VarId,
    /// Whether the condition is `iter <= bound` (else `iter < bound`).
    pub inclusive: bool,
    /// The loop-invariant bound.
    pub bound: Expr,
    /// Every hook in the body, nested blocks included.
    pub hooks: Vec<Hook>,
    /// The loop itself and every loop nested in its body.
    pub loops: Vec<LoopId>,
}

/// Hang certificates of every loop of `kernel`, indexed by loop id (`None`
/// for a loop without one).
pub fn hang_certificates(kernel: &KernelDef) -> Vec<Option<HangCert>> {
    let mut certs = Vec::new();
    for_each_stmt(&kernel.body, &mut |s| {
        if let Stmt::For { id, .. } | Stmt::While { id, .. } = s {
            let i = *id as usize;
            if certs.len() <= i {
                certs.resize(i + 1, None);
            }
            certs[i] = hang_certificate(kernel, s);
        }
    });
    certs
}

/// The [`HangCert`] of `loop_stmt` (a loop of `kernel`), or `None` when the
/// loop cannot be certified.
pub fn hang_certificate(kernel: &KernelDef, loop_stmt: &Stmt) -> Option<HangCert> {
    derive_trip_count(loop_stmt)?;
    let Stmt::For {
        id,
        var,
        cond: Expr::Bin(op, _, bound),
        body,
        ..
    } = loop_stmt
    else {
        return None;
    };
    let var_ty = |v: VarId| kernel.var_ty(v);
    if var_ty(*var) != Ty::I32 || bound.uses_var(*var) || !infallible(bound, &var_ty) {
        return None;
    }
    let mut cert = HangCert {
        iter: *var,
        inclusive: *op == BinOp::Le,
        bound: (**bound).clone(),
        hooks: Vec::new(),
        loops: vec![*id],
    };
    body.0
        .iter()
        .all(|s| certifiable(s, &var_ty, &mut cert))
        .then_some(cert)
}

/// Whether `s` can neither trap nor leave the enclosing loop other than
/// through its condition; collects the hooks and loops it contains.
fn certifiable(s: &Stmt, var_ty: &impl Fn(VarId) -> Ty, cert: &mut HangCert) -> bool {
    let block = |b: &Block, cert: &mut HangCert| b.0.iter().all(|s| certifiable(s, var_ty, cert));
    match s {
        Stmt::Assign { value, .. } => infallible(value, var_ty),
        Stmt::Store { .. } | Stmt::AtomicAdd { .. } | Stmt::SyncThreads => false,
        Stmt::If {
            cond,
            then_blk,
            else_blk,
        } => infallible(cond, var_ty) && block(then_blk, cert) && block(else_blk, cert),
        Stmt::For { id, body, .. } | Stmt::While { id, body, .. } => {
            cert.loops.push(*id);
            s.direct_exprs().iter().all(|e| infallible(e, var_ty)) && block(body, cert)
        }
        // A `break` of the certified loop itself is refused by
        // `derive_trip_count`; one inside a nested loop leaves only that.
        Stmt::Break | Stmt::Continue => true,
        Stmt::Hook(h) => {
            cert.hooks.push(h.clone());
            h.args.iter().all(|a| infallible(a, var_ty))
        }
    }
}

/// Whether evaluating `e` can never trap: exactly the value ops the VM's
/// lane-blocked micro-ops cover (`hauberk-sim`'s `vm_batch::micro_of`) —
/// no load, no integer division or remainder, no operator on a type its
/// semantics reject.
fn infallible(e: &Expr, var_ty: &impl Fn(VarId) -> Ty) -> bool {
    use crate::expr::{MathFn::*, UnOp};
    use PrimTy::{Bool, F32, I32, U32};
    let prim = |e: &Expr| match e.static_ty(var_ty) {
        Ty::Prim(p) => Some(p),
        Ty::Ptr { .. } => None,
    };
    let here = match e {
        Expr::Lit(_) | Expr::Var(_) | Expr::Builtin(_) => true,
        Expr::Load { .. } => false,
        Expr::Un(op, a) => matches!(
            (op, prim(a)),
            (UnOp::Neg, Some(F32 | I32))
                | (UnOp::Not, Some(Bool))
                | (UnOp::BitNot, Some(I32 | U32))
                | (UnOp::BitsOf, _)
        ),
        Expr::Bin(op, a, b) => {
            use BinOp::*;
            match a.static_ty(var_ty) {
                Ty::Prim(F32) => matches!(
                    op,
                    Add | Sub | Mul | Div | Rem | Lt | Le | Gt | Ge | Eq | Ne
                ),
                Ty::Prim(I32 | U32) => !matches!(op, Div | Rem | LAnd | LOr),
                Ty::Prim(Bool) => matches!(op, LAnd | And | LOr | Or | Xor | Eq | Ne),
                Ty::Ptr { .. } => match b.static_ty(var_ty) {
                    Ty::Prim(p) => matches!(op, Add | Sub) && p.is_integer(),
                    Ty::Ptr { .. } => matches!(op, Eq | Ne),
                },
            }
        }
        Expr::Call(f, args) => matches!(
            (f, prim(&args[0])),
            (Abs, Some(F32 | I32))
                | (Sqrt | Rsqrt | Sin | Cos | Exp | Log | Floor, Some(F32))
                | (Min | Max, Some(F32 | I32 | U32))
        ),
        Expr::Cast(_, a) => prim(a).is_some(),
    };
    here && match e {
        Expr::Un(_, a) | Expr::Cast(_, a) => infallible(a, var_ty),
        Expr::Bin(_, a, b) => infallible(a, var_ty) && infallible(b, var_ty),
        Expr::Call(_, args) => args.iter().all(|a| infallible(a, var_ty)),
        _ => true,
    }
}

/// Render a loop dataflow graph in a compact text form (used to reproduce
/// the paper's Fig. 9).
pub fn render_dataflow(kernel: &KernelDef, df: &LoopDataflow) -> String {
    let name = |v: VarId| kernel.vars[v as usize].name.clone();
    let mut out = String::new();
    out.push_str(&format!("loop #{} dataflow graph:\n", df.loop_id));
    for v in &df.assigned {
        let deps: Vec<String> = df.deps[v].iter().map(|u| name(*u)).collect();
        let mut tags = Vec::new();
        if df.self_accumulating.contains(v) {
            tags.push("self-accumulating");
        }
        if df.outputs.contains(v) {
            tags.push("output");
        }
        out.push_str(&format!(
            "  {:<12} <- [{}] loads={} cumulative_backward={}{}\n",
            name(*v),
            deps.join(", "),
            df.loads[v],
            df.cumulative_backward(*v),
            if tags.is_empty() {
                String::new()
            } else {
                format!("  ({})", tags.join(", "))
            }
        ));
    }
    out
}

/// Render a loop dataflow graph as Graphviz DOT (Fig. 9 as an image:
/// `dot -Tpng`). Self-accumulating variables are double circles, outputs
/// are filled.
pub fn dataflow_to_dot(kernel: &KernelDef, df: &LoopDataflow) -> String {
    let name = |v: VarId| kernel.vars[v as usize].name.clone();
    let mut out = String::from("digraph loop_dataflow {\n  rankdir=BT;\n");
    for v in &df.assigned {
        let mut attrs = vec![format!(
            "label=\"{}\\ncbd={}\"",
            name(*v),
            df.cumulative_backward(*v)
        )];
        if df.self_accumulating.contains(v) {
            attrs.push("shape=doublecircle".to_string());
        }
        if df.outputs.contains(v) {
            attrs.push("style=filled".to_string());
            attrs.push("fillcolor=gray85".to_string());
        }
        out.push_str(&format!("  \"{}\" [{}];\n", name(*v), attrs.join(", ")));
        if df.loads[v] > 0 {
            out.push_str(&format!(
                "  \"{}_loads\" [label=\"{} load(s)\", shape=box];\n  \"{}_loads\" -> \"{}\";\n",
                name(*v),
                df.loads[v],
                name(*v),
                name(*v)
            ));
        }
    }
    for (v, deps) in &df.deps {
        for u in deps {
            out.push_str(&format!("  \"{}\" -> \"{}\";\n", name(*u), name(*v)));
        }
    }
    out.push_str("}\n");
    out
}

// ---------------------------------------------------------------------------
// Slot allocation (backing the bytecode lowering in [`crate::lower`])
// ---------------------------------------------------------------------------

/// Stack-disciplined allocator for temporary registers.
///
/// The bytecode lowering evaluates expression operands into scratch slots; a
/// slot is released as soon as the instruction consuming it has been emitted,
/// so sibling subtrees reuse the same registers and the high-water mark stays
/// proportional to expression depth, not size. `mark`/`release` give the
/// caller a cheap way to free everything allocated since a checkpoint.
#[derive(Debug, Clone, Default)]
pub struct SlotAllocator {
    /// First slot index this allocator hands out (slots below are reserved
    /// for variables, constants, builtins, ...).
    base: u32,
    /// Number of currently live temporaries.
    in_use: u32,
    /// Maximum of `in_use` ever observed.
    high_water: u32,
}

impl SlotAllocator {
    /// Allocator whose first slot is `base`.
    pub fn new(base: u32) -> SlotAllocator {
        SlotAllocator {
            base,
            in_use: 0,
            high_water: 0,
        }
    }

    /// Allocate one temporary slot.
    pub fn alloc(&mut self) -> u32 {
        self.alloc_n(1)
    }

    /// Allocate `n` contiguous slots, returning the first.
    pub fn alloc_n(&mut self, n: u32) -> u32 {
        let first = self.base + self.in_use;
        self.in_use += n;
        self.high_water = self.high_water.max(self.in_use);
        first
    }

    /// Checkpoint the current allocation depth for a later [`release`].
    ///
    /// [`release`]: SlotAllocator::release
    pub fn mark(&self) -> u32 {
        self.in_use
    }

    /// Free every slot allocated since `mark` was taken.
    pub fn release(&mut self, mark: u32) {
        debug_assert!(mark <= self.in_use, "slot release past current depth");
        self.in_use = mark;
    }

    /// Largest number of simultaneously-live temporaries observed.
    pub fn high_water(&self) -> u32 {
        self.high_water
    }
}

// ---------------------------------------------------------------------------
// Section partitioning (compositional injection analysis)
// ---------------------------------------------------------------------------

/// One kernel *section*: a maximal top-level span whose interior contains no
/// top-level loop or barrier boundary. Fault-injection sites inside a
/// section share their dynamic window — a fault armed in the section cannot
/// fire before the section's first statement executes — so campaigns that
/// checkpoint at section-aligned boundaries can restore a shared fault-free
/// prefix for every injection the section holds (FastFlip's per-section
/// composition, applied to the orchestrator's strata).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section ordinal, in program order.
    pub index: usize,
    /// Stable human-readable label (`"straight@0"`, `"loop2@4"`, ...).
    pub label: String,
    /// Top-level statement span `[start, end)` in `kernel.body.0`.
    pub stmts: (usize, usize),
    /// Hook site ids anywhere inside the span (including nested blocks).
    pub sites: Vec<SiteId>,
    /// Loop ids anywhere inside the span (including nested loops).
    pub loops: Vec<LoopId>,
}

/// The section decomposition of a kernel body, with site/loop → section
/// lookup — how the SWIFI planner maps each injection's fault window to the
/// section containing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionMap {
    /// Sections in program order.
    pub sections: Vec<Section>,
}

/// Partition `kernel`'s top-level statement list into [`Section`]s.
///
/// Splitting rules:
/// * every top-level `for`/`while` is its own section (a loop is the unit
///   the paper's detectors protect, and the dominant fault window);
/// * a top-level `__syncthreads()` barrier *closes* the current section
///   (the barrier is the last statement of the section it terminates),
///   because a barrier is a reconvergence point: state flowing across it is
///   exactly the state a section-boundary checkpoint captures;
/// * maximal runs of the remaining straight-line statements form one
///   section each.
pub fn partition_sections(kernel: &KernelDef) -> SectionMap {
    let stmts = &kernel.body.0;
    let mut sections: Vec<Section> = Vec::new();
    let mut run_start: Option<usize> = None;

    let close = |sections: &mut Vec<Section>, start: usize, end: usize, kind: &str| {
        if start >= end {
            return;
        }
        let index = sections.len();
        let mut sites = Vec::new();
        let mut loops = Vec::new();
        for s in &stmts[start..end] {
            collect_windows(s, &mut sites, &mut loops);
        }
        let label = match kind {
            "loop" => format!("loop{}@{start}", loops.first().copied().unwrap_or(0)),
            _ => format!("{kind}@{start}"),
        };
        sections.push(Section {
            index,
            label,
            stmts: (start, end),
            sites,
            loops,
        });
    };

    for (i, s) in stmts.iter().enumerate() {
        match s {
            Stmt::For { .. } | Stmt::While { .. } => {
                if let Some(start) = run_start.take() {
                    close(&mut sections, start, i, "straight");
                }
                close(&mut sections, i, i + 1, "loop");
            }
            Stmt::SyncThreads => {
                // The barrier terminates the current straight-line run.
                let start = run_start.take().unwrap_or(i);
                close(&mut sections, start, i + 1, "straight");
            }
            _ => {
                run_start.get_or_insert(i);
            }
        }
    }
    if let Some(start) = run_start.take() {
        close(&mut sections, start, stmts.len(), "straight");
    }
    SectionMap { sections }
}

/// Collect every hook site id and loop id inside `stmt`, nested blocks
/// included.
fn collect_windows(stmt: &Stmt, sites: &mut Vec<SiteId>, loops: &mut Vec<LoopId>) {
    let mut one = |s: &Stmt| match s {
        Stmt::Hook(h) => sites.push(h.site),
        Stmt::For { id, .. } | Stmt::While { id, .. } => loops.push(*id),
        _ => {}
    };
    one(stmt);
    match stmt {
        Stmt::If {
            then_blk, else_blk, ..
        } => {
            for_each_stmt(then_blk, &mut one);
            for_each_stmt(else_blk, &mut one);
        }
        Stmt::For { body, .. } | Stmt::While { body, .. } => {
            for_each_stmt(body, &mut one);
        }
        _ => {}
    }
}

impl SectionMap {
    /// Section containing hook site `site`, if any.
    pub fn section_of_site(&self, site: SiteId) -> Option<usize> {
        self.sections
            .iter()
            .find(|s| s.sites.contains(&site))
            .map(|s| s.index)
    }

    /// Section containing loop `loop_id`, if any.
    pub fn section_of_loop(&self, loop_id: LoopId) -> Option<usize> {
        self.sections
            .iter()
            .find(|s| s.loops.contains(&loop_id))
            .map(|s| s.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;

    /// A miniature of the paper's Fig. 9 coulombic-potential loop:
    /// two output accumulators, one with a slightly larger backward slice.
    fn cp_like() -> (KernelDef, Stmt) {
        let mut b = KernelBuilder::new("cp");
        let atoms = b.param("atoms", Ty::global_ptr(PrimTy::F32));
        let n = b.param("n", Ty::I32);
        let coorx = b.local("coorx", Ty::F32);
        let coory = b.local("coory", Ty::F32);
        b.assign(coorx, Expr::f32(1.0));
        b.assign(coory, Expr::f32(2.0));
        let aid = b.local("atomid", Ty::I32);
        let dx1 = b.local("dx1", Ty::F32);
        let dx2 = b.local("dx2", Ty::F32);
        let dy = b.local("dy", Ty::F32);
        let e1 = b.local("energyx1", Ty::F32);
        let e2 = b.local("energyx2", Ty::F32);
        b.assign(e1, Expr::f32(0.0));
        b.assign(e2, Expr::f32(0.0));
        b.for_range(aid, Expr::var(n), |b| {
            b.assign(
                dy,
                Expr::sub(
                    Expr::var(coory),
                    Expr::load(Expr::var(atoms), Expr::var(aid)),
                ),
            );
            b.assign(
                dx1,
                Expr::sub(
                    Expr::var(coorx),
                    Expr::load(Expr::var(atoms), Expr::var(aid)),
                ),
            );
            b.assign(dx2, Expr::add(Expr::var(dx1), Expr::f32(0.5)));
            b.assign(
                e1,
                Expr::add(
                    Expr::var(e1),
                    Expr::div(
                        Expr::f32(1.0),
                        Expr::call(
                            crate::expr::MathFn::Sqrt,
                            vec![Expr::add(
                                Expr::mul(Expr::var(dx1), Expr::var(dx1)),
                                Expr::mul(Expr::var(dy), Expr::var(dy)),
                            )],
                        ),
                    ),
                ),
            );
            b.assign(
                e2,
                Expr::add(
                    Expr::var(e2),
                    Expr::div(
                        Expr::f32(1.0),
                        Expr::call(
                            crate::expr::MathFn::Sqrt,
                            vec![Expr::add(
                                Expr::mul(Expr::var(dx2), Expr::var(dx2)),
                                Expr::mul(Expr::var(dy), Expr::var(dy)),
                            )],
                        ),
                    ),
                ),
            );
        });
        let k = b.finish();
        let loop_stmt = k
            .body
            .0
            .iter()
            .find(|s| s.is_loop())
            .expect("kernel has a loop")
            .clone();
        (k, loop_stmt)
    }

    #[test]
    fn defuse_identifies_loop_vars() {
        let (k, _) = cp_like();
        let du = DefUse::of(&k);
        let e2 = k.var_by_name("energyx2").unwrap();
        let coorx = k.var_by_name("coorx").unwrap();
        assert!(du.vars[e2 as usize].defined_in_loop);
        assert!(!du.vars[coorx as usize].defined_in_loop);
        assert!(du.vars[coorx as usize].used_in_loop);
        let nl: Vec<VarId> = du.non_loop_vars().collect();
        assert!(nl.contains(&coorx));
        assert!(!nl.contains(&e2));
    }

    #[test]
    fn loop_dataflow_shapes_match_fig9() {
        let (k, ls) = cp_like();
        let df = LoopDataflow::of(&k, &ls);
        let e1 = k.var_by_name("energyx1").unwrap();
        let e2 = k.var_by_name("energyx2").unwrap();
        let dx2 = k.var_by_name("dx2").unwrap();
        // Both energies are self-accumulating outputs... they are written
        // but never stored; outputs only if used after the loop — here not,
        // so check accumulation and ranking instead.
        assert!(df.self_accumulating.contains(&e1));
        assert!(df.self_accumulating.contains(&e2));
        // energyx2 transitively depends on dx2 -> dx1, dy: strictly more
        // than energyx1 (dx1, dy).
        assert!(df.cumulative_backward(e2) > df.cumulative_backward(e1));
        assert!(df.backward_slice(e2).contains(&dx2));
    }

    #[test]
    fn selection_prefers_self_accumulators_and_respects_maxvar() {
        let (k, ls) = cp_like();
        let df = LoopDataflow::of(&k, &ls);
        let it = k.var_by_name("atomid").unwrap();
        let sel = select_protection_targets(&k, &df, Some(it), 1);
        assert_eq!(sel.len(), 1);
        assert!(df.self_accumulating.contains(&sel[0]));
        let sel2 = select_protection_targets(&k, &df, Some(it), 8);
        assert!(sel2.len() >= 2, "both accumulators fit under max_var=8");
        assert!(!sel2.contains(&it), "iterator never selected");
    }

    #[test]
    fn selection_excludes_backward_slice_of_selected() {
        // x feeds acc; after selecting acc (self-accumulating), x must not
        // be selected even with a large max_var.
        let mut b = KernelBuilder::new("t");
        let n = b.param("n", Ty::I32);
        let i = b.local("i", Ty::I32);
        let x = b.local("x", Ty::F32);
        let acc = b.local("acc", Ty::F32);
        b.assign(acc, Expr::f32(0.0));
        b.for_range(i, Expr::var(n), |b| {
            b.assign(
                x,
                Expr::mul(
                    Expr::f32(2.0),
                    Expr::Cast(PrimTy::F32, Box::new(Expr::var(i))),
                ),
            );
            b.assign(acc, Expr::add(Expr::var(acc), Expr::var(x)));
        });
        let k = b.finish();
        let ls = k.body.0.iter().find(|s| s.is_loop()).unwrap().clone();
        let df = LoopDataflow::of(&k, &ls);
        let sel = select_protection_targets(&k, &df, Some(i), 4);
        assert_eq!(sel, vec![acc]);
    }

    #[test]
    fn trip_count_simple_and_le() {
        let mut b = KernelBuilder::new("t");
        let n = b.param("n", Ty::I32);
        let i = b.local("i", Ty::I32);
        let s = b.local("s", Ty::I32);
        b.for_range(i, Expr::var(n), |b| {
            b.assign(s, Expr::add(Expr::var(s), Expr::i32(1)));
        });
        let k = b.finish();
        let tc = derive_trip_count(&k.body.0[0]).expect("countable loop");
        // max(n - 0, 0)
        assert!(matches!(tc, Expr::Call(crate::expr::MathFn::Max, _)));
    }

    #[test]
    fn trip_count_rejects_modified_bound_or_break() {
        // Bound modified inside the loop.
        let mut b = KernelBuilder::new("t");
        let i = b.local("i", Ty::I32);
        let n = b.local("n", Ty::I32);
        b.assign(n, Expr::i32(10));
        b.for_range(i, Expr::var(n), |b| {
            b.assign(n, Expr::sub(Expr::var(n), Expr::i32(1)));
        });
        let k = b.finish();
        assert!(derive_trip_count(&k.body.0[1]).is_none());

        // Break in the body.
        let mut b = KernelBuilder::new("t2");
        let i = b.local("i", Ty::I32);
        b.for_range(i, Expr::i32(5), |b| {
            b.if_(Expr::lt(Expr::var(i), Expr::i32(2)), |b| {
                b.stmt(Stmt::Break)
            });
        });
        let k = b.finish();
        assert!(derive_trip_count(&k.body.0[0]).is_none());

        // Break in a *nested* loop does not disqualify the outer loop.
        let mut b = KernelBuilder::new("t3");
        let i = b.local("i", Ty::I32);
        let j = b.local("j", Ty::I32);
        b.for_range(i, Expr::i32(5), |b| {
            b.for_range(j, Expr::i32(5), |b| b.stmt(Stmt::Break));
        });
        let k = b.finish();
        assert!(derive_trip_count(&k.body.0[0]).is_some());
    }

    #[test]
    fn reset_variable_is_not_self_accumulating() {
        // s is accumulated in an inner loop but reset every outer iteration:
        // its value does not carry across outer iterations.
        let mut b = KernelBuilder::new("t");
        let n = b.param("n", Ty::I32);
        let i = b.local("i", Ty::I32);
        let j = b.local("j", Ty::I32);
        let s = b.local("s", Ty::I32);
        let t = b.local("total", Ty::I32);
        b.assign(t, Expr::i32(0));
        b.for_range(i, Expr::var(n), |b| {
            b.assign(s, Expr::i32(0)); // reset
            b.for_range(j, Expr::i32(4), |b| {
                b.assign(s, Expr::add(Expr::var(s), Expr::var(j)));
            });
            b.assign(t, Expr::add(Expr::var(t), Expr::var(s)));
        });
        let k = b.finish();
        let ls = k.body.0.iter().find(|x| x.is_loop()).unwrap().clone();
        let df = LoopDataflow::of(&k, &ls);
        assert!(!df.self_accumulating.contains(&s), "reset var excluded");
        assert!(df.self_accumulating.contains(&t), "true accumulator kept");
    }

    #[test]
    fn render_dataflow_mentions_all_vars() {
        let (k, ls) = cp_like();
        let df = LoopDataflow::of(&k, &ls);
        let s = render_dataflow(&k, &df);
        assert!(s.contains("energyx2"));
        assert!(s.contains("self-accumulating"));
    }

    #[test]
    fn dot_export_is_wellformed() {
        let (k, ls) = cp_like();
        let df = LoopDataflow::of(&k, &ls);
        let dot = dataflow_to_dot(&k, &df);
        assert!(dot.starts_with("digraph"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("doublecircle"), "self-accumulators marked");
        assert!(dot.contains("-> \"energyx2\""), "edges into the target");
        assert!(dot.contains("load(s)"));
        // Balanced braces and quotes.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
        assert_eq!(dot.matches('"').count() % 2, 0);
    }

    use crate::stmt::{Hook, HookKind};

    /// straight / loop / straight+barrier / loop / straight, with hooks
    /// sprinkled at distinct sites inside each region.
    fn sectioned() -> KernelDef {
        let mut b = KernelBuilder::new("sectioned");
        let n = b.param("n", crate::types::Ty::I32);
        let x = b.local("x", crate::types::Ty::I32);
        let i = b.local("i", crate::types::Ty::I32);
        let j = b.local("j", crate::types::Ty::I32);
        let hook = |site| {
            Stmt::Hook(Hook {
                kind: HookKind::CountExec,
                site,
                args: vec![],
                target: None,
            })
        };
        b.assign(x, Expr::i32(0));
        b.stmt(hook(0));
        b.for_range(i, Expr::var(n), |b| b.stmt(hook(1)));
        b.assign(x, Expr::var(i));
        b.sync();
        b.for_range(j, Expr::var(n), |b| b.stmt(hook(2)));
        b.stmt(hook(3));
        let mut k = b.finish();
        k.renumber();
        k
    }

    #[test]
    fn partition_splits_at_loops_and_barriers() {
        let k = sectioned();
        let sm = partition_sections(&k);
        let spans: Vec<(usize, usize)> = sm.sections.iter().map(|s| s.stmts).collect();
        // [assign, hook0] [for i] [assign, sync] [for j] [hook3]
        assert_eq!(spans, vec![(0, 2), (2, 3), (3, 5), (5, 6), (6, 7)]);
        assert_eq!(sm.sections[0].sites, vec![0]);
        assert_eq!(sm.sections[1].sites, vec![1]);
        assert_eq!(sm.sections[3].sites, vec![2]);
        assert_eq!(sm.sections[4].sites, vec![3]);
        assert_eq!(sm.sections[1].loops.len(), 1);
        assert_eq!(sm.sections[3].loops.len(), 1);
        assert!(sm.sections[1].label.starts_with("loop"));
        for (i, s) in sm.sections.iter().enumerate() {
            assert_eq!(s.index, i);
        }
    }

    #[test]
    fn section_lookup_maps_sites_and_loops() {
        let k = sectioned();
        let sm = partition_sections(&k);
        assert_eq!(sm.section_of_site(0), Some(0));
        assert_eq!(sm.section_of_site(1), Some(1));
        assert_eq!(sm.section_of_site(2), Some(3));
        assert_eq!(sm.section_of_site(3), Some(4));
        assert_eq!(sm.section_of_site(99), None);
        let loop_ids: Vec<LoopId> = sm.sections.iter().flat_map(|s| s.loops.clone()).collect();
        assert_eq!(loop_ids.len(), 2);
        assert_eq!(sm.section_of_loop(loop_ids[0]), Some(1));
        assert_eq!(sm.section_of_loop(loop_ids[1]), Some(3));
        assert_eq!(sm.section_of_loop(77), None);
    }

    #[test]
    fn barrier_only_kernel_is_single_sections_per_run() {
        // A kernel that is nothing but straight-line code forms one section.
        let mut b = KernelBuilder::new("flat");
        let x = b.local("x", crate::types::Ty::I32);
        b.assign(x, Expr::i32(1));
        b.assign(x, Expr::i32(2));
        let sm = partition_sections(&b.finish());
        assert_eq!(sm.sections.len(), 1);
        assert_eq!(sm.sections[0].stmts, (0, 2));
        // An empty body has no sections.
        let empty = KernelBuilder::new("empty").finish();
        assert!(partition_sections(&empty).sections.is_empty());
    }

    #[test]
    fn nested_loops_and_branch_hooks_belong_to_outer_section() {
        let mut b = KernelBuilder::new("nested");
        let n = b.param("n", crate::types::Ty::I32);
        let i = b.local("i", crate::types::Ty::I32);
        let j = b.local("j", crate::types::Ty::I32);
        b.for_range(i, Expr::var(n), |b| {
            b.for_range(j, Expr::var(n), |b| {
                b.stmt(Stmt::Hook(Hook {
                    kind: HookKind::CountExec,
                    site: 5,
                    args: vec![],
                    target: None,
                }));
            });
        });
        let mut k = b.finish();
        k.renumber();
        let sm = partition_sections(&k);
        assert_eq!(sm.sections.len(), 1);
        assert_eq!(sm.sections[0].loops.len(), 2, "nested loop ids collected");
        assert_eq!(sm.section_of_site(5), Some(0), "nested hook mapped");
    }

    /// The hang certificate of the first loop of `body` inside a kernel with
    /// parameters `out: *global i32, n: i32` and locals `i, j, x: i32`.
    fn cert(body: &str) -> Option<HangCert> {
        let src = format!(
            "kernel k(out: *global i32, n: i32) {{
                let x: i32 = 1;
                let j: i32 = 0;
                {body}
            }}"
        );
        let k = crate::parser::parse_kernel(&src).expect("test kernel parses");
        crate::validate::validate_kernel(&k).expect("test kernel validates");
        hang_certificates(&k).into_iter().next().expect("a loop")
    }

    #[test]
    fn memory_free_counted_loop_is_certified_with_its_hooks_and_loops() {
        let c = cert(
            "for (i = 0; i < n; i = i + 1) {
                x = x * 1103515245 + 12345;
                @fi_point(site=4, hw=ALU, target=x);
                if ((x >> 16 & 3) == 0) { continue; }
                for (j = 0; j < 3; j = j + 1) {
                    if (j == x) { break; }
                    x = x ^ cast<i32>(sqrt(cast<f32>(j)));
                }
            }",
        )
        .expect("certified");
        assert!(!c.inclusive);
        assert_eq!(c.bound, Expr::Var(1));
        assert_eq!(c.hooks.iter().map(|h| h.site).collect::<Vec<_>>(), [4]);
        assert_eq!(c.loops, [0, 1]);
    }

    #[test]
    fn le_against_i32_max_is_certified() {
        let c = cert("for (i = 0; i <= 2147483647; i = i + 1) { x = x + 1; }").expect("certified");
        assert!(c.inclusive);
        assert_eq!(c.bound, Expr::i32(i32::MAX));
    }

    #[test]
    fn hang_certificate_refusals() {
        for (why, body) in [
            ("load", "x = x + load(out, i);"),
            ("store", "store(out, i, x);"),
            ("atomic", "atomic_add(out, 0, 1);"),
            ("integer division", "x = x / 3;"),
            ("integer remainder", "x = x % 3;"),
            ("sync", "sync();"),
            ("break", "if (x > 5) { break; }"),
            ("bound written in the body", "n = n + 1;"),
            ("iterator written in the body", "i = i + 2;"),
            (
                "load in a nested loop",
                "for (j = 0; j < 2; j = j + 1) { x = load(out, j); }",
            ),
        ] {
            let body = format!("for (i = 0; i < n; i = i + 1) {{ {body} }}");
            assert_eq!(cert(&body), None, "{why}");
        }
        for (why, header) in [
            ("step other than + 1", "for (i = 0; i < n; i = i + 2)"),
            (
                "bound reads the iterator",
                "for (i = 0; i < i + n; i = i + 1)",
            ),
            ("bound loads", "for (i = 0; i < load(out, 0); i = i + 1)"),
            ("greater-than condition", "for (i = n; i > 0; i = i + 1)"),
        ] {
            assert_eq!(cert(&format!("{header} {{ x = x + 1; }}")), None, "{why}");
        }
        assert_eq!(cert("while (x < n) { x = x + 1; }"), None, "while loop");
    }
}
