//! The warp-lockstep interpreter.
//!
//! One [`WarpExec`] runs one warp of one block to completion, maintaining a
//! per-variable lane vector, an active mask through structured control flow,
//! the pipeline pairing state for the dual-issue cost model, and the
//! loop-cycle attribution. Traps (out-of-bounds in strict mode, misaligned
//! accesses, illegal instructions) and budget exhaustion abort the launch.

use crate::config::{CostModel, DeviceConfig};
use crate::hooks::{HookCtx, HookRuntime, LoopCheckCtx};
use crate::memory::MemRegion;
use crate::outcome::TrapReason;
use crate::stats::{ExecStats, OpClass};
use hauberk_kir::expr::{BinOp, BuiltinVar, Expr, MathFn, UnOp};
use hauberk_kir::stmt::{Block, Hook, HookKind, Stmt};
use hauberk_kir::{KernelDef, MemSpace, PrimTy, PtrVal, Value};
use hauberk_telemetry::{Event, Telemetry};

/// Why execution stopped abnormally.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecErr {
    /// The kernel trapped.
    Trap(TrapReason),
    /// The cycle budget was exhausted (hang).
    Hang,
}

impl From<TrapReason> for ExecErr {
    fn from(t: TrapReason) -> Self {
        ExecErr::Trap(t)
    }
}

/// Break/continue lane masks flowing out of a block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Flow {
    brk: u32,
    cont: u32,
}

/// Geometry of the executing warp.
#[derive(Debug, Clone, Copy)]
pub struct WarpGeom {
    /// Grid dimensions in blocks.
    pub grid: (u32, u32),
    /// Block dimensions in threads.
    pub block_dim: (u32, u32),
    /// This block's coordinates.
    pub block_idx: (u32, u32),
    /// Warp index within the block (warps cover linearized thread ids in
    /// order).
    pub warp_id: u32,
}

impl WarpGeom {
    /// Linearized block id.
    pub fn block_lin(&self) -> u32 {
        self.block_idx.1 * self.grid.0 + self.block_idx.0
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.block_dim.0 * self.block_dim.1
    }

    /// Global linear thread id of lane 0 of this warp.
    pub fn first_thread(&self, warp_width: u32) -> u32 {
        self.block_lin() * self.threads_per_block() + self.warp_id * warp_width
    }
}

/// Tag of the op that produced a value (for dependence-aware pairing).
pub(crate) type Tag = u64;

/// Dual-issue pipeline pairing state, shared by both execution engines.
pub(crate) struct Pipe {
    /// Tag of the most recently charged op.
    pub(crate) last_tag: Tag,
    /// Class of the most recently charged op.
    pub(crate) last_class: Option<OpClass>,
    /// Whether the most recent op itself co-issued (pairing is at most
    /// two-wide).
    pub(crate) last_paired: bool,
    pub(crate) next_tag: Tag,
}

impl Pipe {
    pub(crate) fn new() -> Self {
        Pipe {
            last_tag: 0,
            last_class: None,
            last_paired: false,
            next_tag: 1,
        }
    }
}

// -- shared cost accounting -------------------------------------------------
//
// The tree walker and the VM must charge cycles *identically* (the
// differential suite compares `ExecStats` bit-for-bit), so the accounting
// lives in free functions both engines call.

/// Charge one op of `class`; `dep_tags` are the producer tags of its
/// operands (pairing requires independence from the previous op). Returns
/// the new op's tag.
pub(crate) fn charge_op(
    pipe: &mut Pipe,
    stats: &mut ExecStats,
    budget: &mut u64,
    loop_depth: u32,
    cost: &CostModel,
    class: OpClass,
    dep_tags: [Tag; 2],
) -> Result<Tag, ExecErr> {
    let tag = pipe.next_tag;
    pipe.next_tag += 1;
    stats.class_counts[class.idx()] += 1;

    let dependent = pipe.last_tag != 0 && dep_tags.contains(&pipe.last_tag);
    // Memory ops and control ops occupy the issue path exclusively (branch
    // resolution blocks co-issue on the modeled architecture).
    let pairable = cost.dual_issue
        && !dependent
        && !pipe.last_paired
        && pipe.last_class.is_some()
        && pipe.last_class != Some(class)
        && !matches!(class, OpClass::Mem | OpClass::Ctl)
        && !matches!(pipe.last_class, Some(OpClass::Mem) | Some(OpClass::Ctl));

    let c = if pairable {
        stats.paired_ops += 1;
        0
    } else {
        cost.class_cost(class)
    };
    pipe.last_paired = pairable;
    pipe.last_class = Some(class);
    pipe.last_tag = tag;
    charge_cycles(stats, budget, loop_depth, c)?;
    Ok(tag)
}

/// Charge raw cycles (memory segment extras, hook costs, sync).
pub(crate) fn charge_cycles(
    stats: &mut ExecStats,
    budget: &mut u64,
    loop_depth: u32,
    c: u64,
) -> Result<(), ExecErr> {
    stats.work_cycles += c;
    if loop_depth > 0 {
        stats.loop_cycles += c;
    }
    if *budget < c {
        *budget = 0;
        return Err(ExecErr::Hang);
    }
    *budget -= c;
    Ok(())
}

/// Charge a warp memory access with segment coalescing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn charge_mem_op(
    pipe: &mut Pipe,
    stats: &mut ExecStats,
    budget: &mut u64,
    loop_depth: u32,
    cost: &CostModel,
    addrs: &[u32],
    mask: u32,
    width: usize,
    deps: [Tag; 2],
) -> Result<(), ExecErr> {
    // A warp has at most 32 lanes, so the segment scratch fits on the stack.
    let mut segments = [0u32; 32];
    let mut n = 0;
    for l in lanes(mask, width) {
        segments[n] = addrs[l] / cost.segment_bytes;
        n += 1;
    }
    let segments = &mut segments[..n];
    segments.sort_unstable();
    let mut nseg = 0u64;
    let mut prev = None;
    for &s in segments.iter() {
        if prev != Some(s) {
            nseg += 1;
            prev = Some(s);
        }
    }
    let nseg = nseg.max(1);
    stats.mem_segments += nseg;
    // Base via the pairing-aware path (Mem never pairs), extras raw.
    charge_op(pipe, stats, budget, loop_depth, cost, OpClass::Mem, deps)?;
    charge_cycles(
        stats,
        budget,
        loop_depth,
        (nseg - 1) * cost.mem_segment_extra,
    )?;
    Ok(())
}

/// Cost of dispatching a hook of `kind`.
pub(crate) fn hook_cost(cost: &CostModel, kind: &HookKind) -> u64 {
    match kind {
        HookKind::CheckRange { .. } => cost.hook_check_range,
        HookKind::CheckEqual { .. } => cost.hook_check_equal,
        HookKind::ChecksumCheck => cost.hook_checksum_check,
        HookKind::NlMismatch => cost.hook_nl_mismatch,
        // Measurement-only hooks (FI, profiler) cost nothing: the FI and
        // profiler builds are not used for performance measurement.
        HookKind::FiPoint { .. } | HookKind::Profile { .. } | HookKind::CountExec => 0,
    }
}

/// The initial active mask of a warp: lanes whose linear thread id falls
/// inside the block.
pub(crate) fn warp_initial_mask(geom: &WarpGeom, warp_width: u32) -> u32 {
    let tpb = geom.threads_per_block();
    let start = geom.warp_id * warp_width;
    let mut mask = 0u32;
    for l in 0..warp_width {
        if start + l < tpb {
            mask |= 1 << l;
        }
    }
    mask
}

/// Per-lane values of a thread-geometry builtin.
pub(crate) fn builtin_lanes(b: BuiltinVar, geom: &WarpGeom, warp_width: u32) -> Vec<Value> {
    let (bdx, bdy) = geom.block_dim;
    let base_lane = geom.warp_id * warp_width;
    (0..warp_width)
        .map(|l| {
            let lin = base_lane + l;
            let tx = lin % bdx;
            let ty = (lin / bdx) % bdy.max(1);
            match b {
                BuiltinVar::ThreadIdxX => Value::I32(tx as i32),
                BuiltinVar::ThreadIdxY => Value::I32(ty as i32),
                BuiltinVar::BlockIdxX => Value::I32(geom.block_idx.0 as i32),
                BuiltinVar::BlockIdxY => Value::I32(geom.block_idx.1 as i32),
                BuiltinVar::BlockDimX => Value::I32(bdx as i32),
                BuiltinVar::BlockDimY => Value::I32(bdy as i32),
                BuiltinVar::GridDimX => Value::I32(geom.grid.0 as i32),
                BuiltinVar::GridDimY => Value::I32(geom.grid.1 as i32),
                BuiltinVar::SharedBaseF32 => Value::Ptr(PtrVal {
                    space: MemSpace::Shared,
                    addr: 0,
                    elem: PrimTy::F32,
                }),
                BuiltinVar::SharedBaseI32 => Value::Ptr(PtrVal {
                    space: MemSpace::Shared,
                    addr: 0,
                    elem: PrimTy::I32,
                }),
            }
        })
        .collect()
}

/// Zero the inactive lanes of hook argument vectors so runtimes see one
/// normalized buffer regardless of engine (inactive lanes would otherwise
/// leak engine-specific scratch state).
pub(crate) fn zero_inactive(vals: &mut [Value], mask: u32, width: usize) {
    for (l, v) in vals.iter_mut().enumerate().take(width) {
        if mask & (1 << l) == 0 {
            *v = Value::I32(0);
        }
    }
}

/// Executes one warp.
pub struct WarpExec<'a> {
    kernel: &'a KernelDef,
    cfg: &'a DeviceConfig,
    global: &'a mut MemRegion,
    shared: &'a mut MemRegion,
    runtime: &'a mut dyn HookRuntime,
    stats: &'a mut ExecStats,
    /// Remaining cycle budget shared across the launch.
    budget: &'a mut u64,
    geom: WarpGeom,
    width: usize,
    /// regs[var][lane]
    regs: Vec<Vec<Value>>,
    /// Producer tag of the value currently held by each variable.
    producer: Vec<Tag>,
    pipe: Pipe,
    loop_depth: u32,
    /// Telemetry for hot hook-dispatch events (one branch when disabled).
    tele: &'a Telemetry,
    /// Launch id for event correlation (0 when telemetry is disabled).
    launch_id: u64,
}

impl<'a> WarpExec<'a> {
    /// Build a warp executor. `args` are the kernel parameter values,
    /// broadcast to all lanes.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kernel: &'a KernelDef,
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
        assert_eq!(args.len(), kernel.n_params, "kernel argument count");
        let width = cfg.warp_width as usize;
        let mut regs = Vec::with_capacity(kernel.vars.len());
        for (i, decl) in kernel.vars.iter().enumerate() {
            let init = if i < kernel.n_params {
                args[i]
            } else {
                Value::zero_of(decl.ty)
            };
            regs.push(vec![init; width]);
        }
        WarpExec {
            kernel,
            cfg,
            global,
            shared,
            runtime,
            stats,
            budget,
            geom,
            width,
            producer: vec![0; kernel.vars.len()],
            regs,
            pipe: Pipe::new(),
            loop_depth: 0,
            tele,
            launch_id,
        }
    }

    /// The initial active mask: lanes whose linear thread id falls inside
    /// the block.
    pub fn initial_mask(&self) -> u32 {
        warp_initial_mask(&self.geom, self.cfg.warp_width)
    }

    /// Run the warp to completion.
    pub fn run(&mut self) -> Result<(), ExecErr> {
        let mask = self.initial_mask();
        if mask == 0 {
            return Ok(());
        }
        self.stats.warps += 1;
        // Copy the &'a reference out so the block borrow is independent of
        // the &mut self borrow (no per-warp clone of the kernel body).
        let kernel: &'a KernelDef = self.kernel;
        let flow = self.exec_block(&kernel.body, mask)?;
        debug_assert_eq!(flow, Flow::default(), "break/continue escaped kernel");
        Ok(())
    }

    // -- cost accounting ---------------------------------------------------

    /// Charge one op of `class`; `dep_tags` are the producer tags of its
    /// operands (pairing requires independence from the previous op).
    /// Returns the new op's tag.
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

    /// Charge raw cycles (memory segment extras, hook costs, sync).
    fn add_cycles(&mut self, c: u64) -> Result<(), ExecErr> {
        charge_cycles(self.stats, self.budget, self.loop_depth, c)
    }

    // -- expression evaluation ----------------------------------------------

    /// Evaluate `e` for the lanes in `mask`. Returns per-lane values (only
    /// masked lanes are meaningful) and the producer tag of the top op.
    fn eval(&mut self, e: &Expr, mask: u32) -> Result<(Vec<Value>, Tag), ExecErr> {
        match e {
            Expr::Lit(v) => Ok((vec![*v; self.width], 0)),
            Expr::Var(v) => Ok((self.regs[*v as usize].clone(), self.producer[*v as usize])),
            Expr::Builtin(b) => {
                let vals = self.builtin_lanes(*b);
                Ok((vals, 0))
            }
            Expr::Un(op, inner) => {
                let (iv, itag) = self.eval(inner, mask)?;
                if *op == UnOp::BitsOf {
                    // Register reinterpretation: free.
                    let out = iv.iter().map(|v| Value::U32(v.to_bits())).collect();
                    return Ok((out, itag));
                }
                let class = match op {
                    UnOp::Neg => {
                        if matches!(self.lane_ty(&iv, mask), Some(PrimTy::F32)) {
                            OpClass::FAlu
                        } else {
                            OpClass::IAlu
                        }
                    }
                    _ => OpClass::IAlu,
                };
                let tag = self.charge(class, [itag, 0])?;
                let mut out = vec![Value::I32(0); self.width];
                for l in lanes(mask, self.width) {
                    out[l] = un_value(*op, iv[l])?;
                }
                Ok((out, tag))
            }
            Expr::Bin(op, a, b) => {
                let (av, atag) = self.eval(a, mask)?;
                let (bv, btag) = self.eval(b, mask)?;
                let class = bin_class(*op, self.lane_ty(&av, mask));
                let tag = self.charge(class, [atag, btag])?;
                let mut out = vec![Value::I32(0); self.width];
                let strict = self.cfg.strict_memory;
                for l in lanes(mask, self.width) {
                    out[l] = bin_value(*op, av[l], bv[l], strict)?;
                }
                Ok((out, tag))
            }
            Expr::Call(m, argxs) => {
                let mut argv = Vec::with_capacity(argxs.len());
                let mut tags = [0u64; 2];
                for (i, ax) in argxs.iter().enumerate() {
                    let (v, t) = self.eval(ax, mask)?;
                    if i < 2 {
                        tags[i] = t;
                    }
                    argv.push(v);
                }
                let is_f32 = matches!(self.lane_ty(&argv[0], mask), Some(PrimTy::F32));
                let class = match m {
                    MathFn::Abs | MathFn::Min | MathFn::Max => {
                        if is_f32 {
                            OpClass::FAlu
                        } else {
                            OpClass::IAlu
                        }
                    }
                    _ => OpClass::Sfu,
                };
                let tag = self.charge(class, tags)?;
                let mut out = vec![Value::I32(0); self.width];
                for l in lanes(mask, self.width) {
                    let args: Vec<Value> = argv.iter().map(|v| v[l]).collect();
                    out[l] = math_value(*m, &args)?;
                }
                Ok((out, tag))
            }
            Expr::Load { ptr, index } => {
                let (pv, ptag) = self.eval(ptr, mask)?;
                let (iv, itag) = self.eval(index, mask)?;
                let mut addrs = vec![0u32; self.width];
                let mut space = MemSpace::Global;
                let mut elem = PrimTy::F32;
                for l in lanes(mask, self.width) {
                    let p = as_ptr(pv[l])?;
                    let idx = as_index(iv[l])?;
                    let fp = p.offset_elems(idx);
                    addrs[l] = fp.addr;
                    space = fp.space;
                    elem = fp.elem;
                }
                self.charge_mem(&addrs, mask, [ptag, itag])?;
                let mut out = vec![Value::I32(0); self.width];
                for l in lanes(mask, self.width) {
                    let region = self.region(space);
                    out[l] = Value::from_bits(elem, region.load_word(addrs[l])?);
                }
                Ok((out, self.pipe.last_tag))
            }
            Expr::Cast(to, inner) => {
                let (iv, itag) = self.eval(inner, mask)?;
                let from_f32 = matches!(self.lane_ty(&iv, mask), Some(PrimTy::F32));
                let class = if from_f32 || *to == PrimTy::F32 {
                    OpClass::FAlu
                } else {
                    OpClass::IAlu
                };
                let tag = self.charge(class, [itag, 0])?;
                let mut out = vec![Value::I32(0); self.width];
                for l in lanes(mask, self.width) {
                    out[l] = cast_value(*to, iv[l])?;
                }
                Ok((out, tag))
            }
        }
    }

    /// Prim type of the first masked lane (None for pointers).
    fn lane_ty(&self, vals: &[Value], mask: u32) -> Option<PrimTy> {
        lanes(mask, self.width)
            .next()
            .and_then(|l| vals[l].ty().as_prim())
    }

    fn builtin_lanes(&self, b: BuiltinVar) -> Vec<Value> {
        builtin_lanes(b, &self.geom, self.cfg.warp_width)
    }

    fn region(&mut self, space: MemSpace) -> &mut MemRegion {
        match space {
            MemSpace::Global => self.global,
            MemSpace::Shared => self.shared,
        }
    }

    /// Charge a warp memory access with segment coalescing.
    fn charge_mem(&mut self, addrs: &[u32], mask: u32, deps: [Tag; 2]) -> Result<(), ExecErr> {
        charge_mem_op(
            &mut self.pipe,
            self.stats,
            self.budget,
            self.loop_depth,
            &self.cfg.cost,
            addrs,
            mask,
            self.width,
            deps,
        )
    }

    // -- statements ----------------------------------------------------------

    fn exec_block(&mut self, b: &Block, active: u32) -> Result<Flow, ExecErr> {
        let mut live = active;
        let mut flow = Flow::default();
        for s in &b.0 {
            if live == 0 {
                break;
            }
            let f = self.exec_stmt(s, live)?;
            flow.brk |= f.brk;
            flow.cont |= f.cont;
            live &= !(f.brk | f.cont);
        }
        Ok(flow)
    }

    fn write_var(&mut self, var: u32, vals: &[Value], mask: u32, tag: Tag) {
        let slot = &mut self.regs[var as usize];
        for l in lanes(mask, self.width) {
            slot[l] = vals[l];
        }
        self.producer[var as usize] = tag;
    }

    fn exec_stmt(&mut self, s: &Stmt, mask: u32) -> Result<Flow, ExecErr> {
        match s {
            Stmt::Assign { var, value } => {
                let (vals, tag) = self.eval(value, mask)?;
                self.write_var(*var, &vals, mask, tag);
                Ok(Flow::default())
            }
            Stmt::Store { ptr, index, value } => {
                let (pv, ptag) = self.eval(ptr, mask)?;
                let (iv, itag) = self.eval(index, mask)?;
                let (vv, _vtag) = self.eval(value, mask)?;
                let mut addrs = vec![0u32; self.width];
                let mut space = MemSpace::Global;
                for l in lanes(mask, self.width) {
                    let p = as_ptr(pv[l])?;
                    let idx = as_index(iv[l])?;
                    let fp = p.offset_elems(idx);
                    addrs[l] = fp.addr;
                    space = fp.space;
                }
                self.charge_mem(&addrs, mask, [ptag, itag])?;
                for l in lanes(mask, self.width) {
                    let v = vv[l];
                    self.region(space).write(addrs[l], v)?;
                }
                Ok(Flow::default())
            }
            Stmt::AtomicAdd { ptr, index, value } => {
                let (pv, ptag) = self.eval(ptr, mask)?;
                let (iv, itag) = self.eval(index, mask)?;
                let (vv, _) = self.eval(value, mask)?;
                let mut addrs = vec![0u32; self.width];
                let mut space = MemSpace::Global;
                let mut elem = PrimTy::I32;
                for l in lanes(mask, self.width) {
                    let p = as_ptr(pv[l])?;
                    let idx = as_index(iv[l])?;
                    let fp = p.offset_elems(idx);
                    addrs[l] = fp.addr;
                    space = fp.space;
                    elem = fp.elem;
                }
                // Atomics serialize: base + extra per lane.
                self.charge_mem(&addrs, mask, [ptag, itag])?;
                let lane_count = mask.count_ones() as u64;
                self.add_cycles(lane_count.saturating_sub(1) * self.cfg.cost.mem_segment_extra)?;
                let strict = self.cfg.strict_memory;
                for l in lanes(mask, self.width) {
                    let region = self.region(space);
                    let old = Value::from_bits(elem, region.load_word(addrs[l])?);
                    let new = bin_value(BinOp::Add, old, vv[l], strict)?;
                    region.write(addrs[l], new)?;
                }
                Ok(Flow::default())
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let (cv, ctag) = self.eval(cond, mask)?;
                self.charge(OpClass::Ctl, [ctag, 0])?;
                let mut t_mask = 0u32;
                for l in lanes(mask, self.width) {
                    if as_cond(cv[l])? {
                        t_mask |= 1 << l;
                    }
                }
                let e_mask = mask & !t_mask;
                let mut flow = Flow::default();
                if t_mask != 0 {
                    let f = self.exec_block(then_blk, t_mask)?;
                    flow.brk |= f.brk;
                    flow.cont |= f.cont;
                }
                if e_mask != 0 {
                    let f = self.exec_block(else_blk, e_mask)?;
                    flow.brk |= f.brk;
                    flow.cont |= f.cont;
                }
                Ok(flow)
            }
            Stmt::For {
                id,
                var,
                init,
                cond,
                step,
                body,
            } => {
                let (iv, itag) = self.eval(init, mask)?;
                self.write_var(*var, &iv, mask, itag);
                self.loop_depth += 1;
                let result = self.run_loop(Some((*var, step)), *id, cond, body, mask);
                self.loop_depth -= 1;
                result?;
                Ok(Flow::default())
            }
            Stmt::While { id, cond, body } => {
                self.loop_depth += 1;
                let result = self.run_loop(None, *id, cond, body, mask);
                self.loop_depth -= 1;
                result?;
                Ok(Flow::default())
            }
            Stmt::Break => Ok(Flow { brk: mask, cont: 0 }),
            Stmt::Continue => Ok(Flow { brk: 0, cont: mask }),
            Stmt::SyncThreads => {
                self.stats.syncs += 1;
                self.add_cycles(self.cfg.cost.sync)?;
                Ok(Flow::default())
            }
            Stmt::Hook(h) => {
                self.exec_hook(h, mask)?;
                Ok(Flow::default())
            }
        }
    }

    /// Shared loop driver for `for` (with iterator/step) and `while`.
    fn run_loop(
        &mut self,
        for_parts: Option<(u32, &Expr)>,
        loop_id: u32,
        cond: &Expr,
        body: &Block,
        entry_mask: u32,
    ) -> Result<(), ExecErr> {
        let mut live = entry_mask;
        let mut iteration: u64 = 0;
        loop {
            if live == 0 {
                break;
            }
            let (cv, ctag) = self.eval(cond, live)?;
            self.charge(OpClass::Ctl, [ctag, 0])?;
            let mut cond_mask = 0u32;
            for l in lanes(live, self.width) {
                if as_cond(cv[l])? {
                    cond_mask |= 1 << l;
                }
            }
            // Scheduler-fault window: the runtime may corrupt the iterator
            // or the decision mask here.
            self.loop_check_hook(
                for_parts.map(|(v, _)| v),
                loop_id,
                live,
                iteration,
                &mut cond_mask,
            )?;
            live &= cond_mask;
            if live == 0 {
                break;
            }
            let f = self.exec_block(body, live)?;
            // Lanes that broke leave the loop; continue lanes rejoin for the
            // step/condition.
            live &= !f.brk;
            let step_mask = live; // includes rejoined continue lanes
            if let Some((var, step)) = for_parts {
                if step_mask != 0 {
                    let (sv, stag) = self.eval(step, step_mask)?;
                    self.write_var(var, &sv, step_mask, stag);
                }
            }
            iteration += 1;
        }
        Ok(())
    }

    fn loop_check_hook(
        &mut self,
        iter_var: Option<u32>,
        loop_id: u32,
        active: u32,
        iteration: u64,
        cond_mask: &mut u32,
    ) -> Result<(), ExecErr> {
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
        {
            let iter_slot = iter_var.map(|v| &mut self.regs[v as usize]);
            let mut ctx = LoopCheckCtx {
                block_id: geom.block_lin(),
                warp_id: geom.warp_id,
                active,
                warp_width,
                first_thread,
                cycles,
                iteration,
                iter_var: iter_slot,
                cond_mask,
            };
            self.runtime.on_loop_check(loop_id, &mut ctx);
        }
        // The runtime may have corrupted the iterator; the change takes
        // effect at the next condition evaluation, like a register
        // corruption between instructions. Invalidate the producer tag so
        // pairing decisions stay conservative.
        if let Some(v) = iter_var {
            self.producer[v as usize] = 0;
        }
        Ok(())
    }

    fn exec_hook(&mut self, h: &Hook, mask: u32) -> Result<(), ExecErr> {
        let mut argvals = Vec::with_capacity(h.args.len());
        for a in &h.args {
            let (mut v, _) = self.eval(a, mask)?;
            zero_inactive(&mut v, mask, self.width);
            argvals.push(v);
        }
        let hook_cost = hook_cost(&self.cfg.cost, &h.kind);
        self.add_cycles(hook_cost)?;
        self.stats.hooks += 1;

        let geom = self.geom;
        let warp_width = self.cfg.warp_width;
        let first_thread = geom.first_thread(warp_width);
        let cycles = self.stats.work_cycles;
        self.tele.emit_hot_with(|| Event::HookDispatch {
            launch_id: self.launch_id,
            kind: hook_kind_name(&h.kind),
            site: h.site as u64,
            block: geom.block_lin(),
            warp: geom.warp_id,
            cycles,
        });
        let target_slot = h.target.map(|v| &mut self.regs[v as usize]);
        let mut ctx = HookCtx {
            block_id: geom.block_lin(),
            warp_id: geom.warp_id,
            active: mask,
            warp_width,
            first_thread,
            cycles,
            args: &argvals,
            target: target_slot,
        };
        self.runtime.on_hook(h, &mut ctx);
        // Register-file faults: the runtime may corrupt any live variable at
        // this point (the value sits in a register between uses).
        if let Some(rc) = self.runtime.register_corruption(h, first_thread, mask) {
            if rc.lane < self.cfg.warp_width
                && mask & (1 << rc.lane) != 0
                && (rc.var as usize) < self.regs.len()
            {
                let slot = &mut self.regs[rc.var as usize][rc.lane as usize];
                *slot = slot.xor_bits(rc.mask);
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
}

/// Stable event label for a hook kind.
pub(crate) fn hook_kind_name(kind: &HookKind) -> &'static str {
    match kind {
        HookKind::CheckRange { .. } => "check_range",
        HookKind::CheckEqual { .. } => "check_equal",
        HookKind::ChecksumCheck => "checksum_check",
        HookKind::NlMismatch => "nl_mismatch",
        HookKind::FiPoint { .. } => "fi_point",
        HookKind::Profile { .. } => "profile",
        HookKind::CountExec => "count_exec",
    }
}

/// Iterate set lanes of `mask` below `width`.
pub(crate) fn lanes(mask: u32, width: usize) -> impl Iterator<Item = usize> {
    (0..width).filter(move |l| mask & (1 << l) != 0)
}

pub(crate) fn as_ptr(v: Value) -> Result<PtrVal, TrapReason> {
    v.as_ptr().ok_or(TrapReason::IllegalInstruction)
}

pub(crate) fn as_index(v: Value) -> Result<i64, TrapReason> {
    match v {
        Value::I32(i) => Ok(i as i64),
        Value::U32(u) => Ok(u as i64),
        Value::Bool(b) => Ok(b as i64),
        _ => Err(TrapReason::IllegalInstruction),
    }
}

pub(crate) fn as_cond(v: Value) -> Result<bool, TrapReason> {
    v.as_bool().ok_or(TrapReason::IllegalInstruction)
}

/// Class of a binary op given the (prim) type of its left operand.
pub(crate) fn bin_class(op: BinOp, ty: Option<PrimTy>) -> OpClass {
    let is_f = matches!(ty, Some(PrimTy::F32));
    match op {
        BinOp::Div | BinOp::Rem if is_f => OpClass::Sfu,
        _ if is_f => OpClass::FAlu,
        _ => OpClass::IAlu,
    }
}

pub(crate) fn un_value(op: UnOp, v: Value) -> Result<Value, TrapReason> {
    use TrapReason::IllegalInstruction as Ill;
    match (op, v) {
        (UnOp::Neg, Value::F32(x)) => Ok(Value::F32(-x)),
        (UnOp::Neg, Value::I32(x)) => Ok(Value::I32(x.wrapping_neg())),
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        (UnOp::BitNot, Value::I32(x)) => Ok(Value::I32(!x)),
        (UnOp::BitNot, Value::U32(x)) => Ok(Value::U32(!x)),
        (UnOp::BitsOf, v) => Ok(Value::U32(v.to_bits())),
        _ => Err(Ill),
    }
}

/// Binary operation semantics (C/CUDA-like; see [`crate`] docs).
pub fn bin_value(op: BinOp, a: Value, b: Value, strict: bool) -> Result<Value, TrapReason> {
    use BinOp::*;
    use TrapReason::IllegalInstruction as Ill;
    // Pointer arithmetic.
    if let (Value::Ptr(p), idx) = (a, b) {
        if matches!(op, Add | Sub) {
            let i = as_index(idx)?;
            let i = if op == Sub { -i } else { i };
            return Ok(Value::Ptr(p.offset_elems(i)));
        }
        if matches!(op, Eq | Ne) {
            if let Value::Ptr(q) = b {
                let eq = p == q;
                return Ok(Value::Bool(if op == Eq { eq } else { !eq }));
            }
        }
        return Err(Ill);
    }
    match (a, b) {
        (Value::F32(x), Value::F32(y)) => Ok(match op {
            Add => Value::F32(x + y),
            Sub => Value::F32(x - y),
            Mul => Value::F32(x * y),
            Div => Value::F32(x / y),
            Rem => Value::F32(x % y),
            Lt => Value::Bool(x < y),
            Le => Value::Bool(x <= y),
            Gt => Value::Bool(x > y),
            Ge => Value::Bool(x >= y),
            Eq => Value::Bool(x.to_bits() == y.to_bits()),
            Ne => Value::Bool(x.to_bits() != y.to_bits()),
            _ => return Err(Ill),
        }),
        (Value::I32(x), Value::I32(y)) => Ok(match op {
            Add => Value::I32(x.wrapping_add(y)),
            Sub => Value::I32(x.wrapping_sub(y)),
            Mul => Value::I32(x.wrapping_mul(y)),
            Div => {
                if y == 0 {
                    if strict {
                        return Err(TrapReason::IntDivByZero);
                    }
                    Value::I32(0)
                } else {
                    Value::I32(x.wrapping_div(y))
                }
            }
            Rem => {
                if y == 0 {
                    if strict {
                        return Err(TrapReason::IntDivByZero);
                    }
                    Value::I32(0)
                } else {
                    Value::I32(x.wrapping_rem(y))
                }
            }
            And => Value::I32(x & y),
            Or => Value::I32(x | y),
            Xor => Value::I32(x ^ y),
            Shl => Value::I32(x.wrapping_shl(y as u32 & 31)),
            Shr => Value::I32(x.wrapping_shr(y as u32 & 31)),
            Lt => Value::Bool(x < y),
            Le => Value::Bool(x <= y),
            Gt => Value::Bool(x > y),
            Ge => Value::Bool(x >= y),
            Eq => Value::Bool(x == y),
            Ne => Value::Bool(x != y),
            LAnd | LOr => return Err(Ill),
        }),
        (Value::U32(x), Value::U32(y)) => Ok(match op {
            Add => Value::U32(x.wrapping_add(y)),
            Sub => Value::U32(x.wrapping_sub(y)),
            Mul => Value::U32(x.wrapping_mul(y)),
            Div => match x.checked_div(y) {
                Some(v) => Value::U32(v),
                None if strict => return Err(TrapReason::IntDivByZero),
                None => Value::U32(0),
            },
            Rem => match x.checked_rem(y) {
                Some(v) => Value::U32(v),
                None if strict => return Err(TrapReason::IntDivByZero),
                None => Value::U32(0),
            },
            And => Value::U32(x & y),
            Or => Value::U32(x | y),
            Xor => Value::U32(x ^ y),
            Shl => Value::U32(x.wrapping_shl(y & 31)),
            Shr => Value::U32(x.wrapping_shr(y & 31)),
            Lt => Value::Bool(x < y),
            Le => Value::Bool(x <= y),
            Gt => Value::Bool(x > y),
            Ge => Value::Bool(x >= y),
            Eq => Value::Bool(x == y),
            Ne => Value::Bool(x != y),
            LAnd | LOr => return Err(Ill),
        }),
        (Value::Bool(x), Value::Bool(y)) => Ok(match op {
            LAnd | And => Value::Bool(x && y),
            LOr | Or => Value::Bool(x || y),
            Eq => Value::Bool(x == y),
            Ne => Value::Bool(x != y),
            Xor => Value::Bool(x ^ y),
            _ => return Err(Ill),
        }),
        _ => Err(Ill),
    }
}

pub(crate) fn math_value(m: MathFn, args: &[Value]) -> Result<Value, TrapReason> {
    use TrapReason::IllegalInstruction as Ill;
    match m {
        MathFn::Min | MathFn::Max => match (args[0], args[1]) {
            (Value::F32(a), Value::F32(b)) => Ok(Value::F32(if m == MathFn::Min {
                a.min(b)
            } else {
                a.max(b)
            })),
            (Value::I32(a), Value::I32(b)) => Ok(Value::I32(if m == MathFn::Min {
                a.min(b)
            } else {
                a.max(b)
            })),
            (Value::U32(a), Value::U32(b)) => Ok(Value::U32(if m == MathFn::Min {
                a.min(b)
            } else {
                a.max(b)
            })),
            _ => Err(Ill),
        },
        MathFn::Abs => match args[0] {
            Value::F32(a) => Ok(Value::F32(a.abs())),
            Value::I32(a) => Ok(Value::I32(a.wrapping_abs())),
            _ => Err(Ill),
        },
        _ => {
            let Value::F32(x) = args[0] else {
                return Err(Ill);
            };
            Ok(Value::F32(match m {
                MathFn::Sqrt => x.sqrt(),
                MathFn::Rsqrt => 1.0 / x.sqrt(),
                MathFn::Sin => x.sin(),
                MathFn::Cos => x.cos(),
                MathFn::Exp => x.exp(),
                MathFn::Log => x.ln(),
                MathFn::Floor => x.floor(),
                _ => unreachable!("handled above"),
            }))
        }
    }
}

pub(crate) fn cast_value(to: PrimTy, v: Value) -> Result<Value, TrapReason> {
    use TrapReason::IllegalInstruction as Ill;
    let out = match (v, to) {
        (Value::F32(x), PrimTy::F32) => Value::F32(x),
        (Value::F32(x), PrimTy::I32) => Value::I32(x as i32),
        (Value::F32(x), PrimTy::U32) => Value::U32(x as u32),
        (Value::F32(x), PrimTy::Bool) => Value::Bool(x != 0.0),
        (Value::I32(x), PrimTy::F32) => Value::F32(x as f32),
        (Value::I32(x), PrimTy::I32) => Value::I32(x),
        (Value::I32(x), PrimTy::U32) => Value::U32(x as u32),
        (Value::I32(x), PrimTy::Bool) => Value::Bool(x != 0),
        (Value::U32(x), PrimTy::F32) => Value::F32(x as f32),
        (Value::U32(x), PrimTy::I32) => Value::I32(x as i32),
        (Value::U32(x), PrimTy::U32) => Value::U32(x),
        (Value::U32(x), PrimTy::Bool) => Value::Bool(x != 0),
        (Value::Bool(x), PrimTy::F32) => Value::F32(x as u32 as f32),
        (Value::Bool(x), PrimTy::I32) => Value::I32(x as i32),
        (Value::Bool(x), PrimTy::U32) => Value::U32(x as u32),
        (Value::Bool(x), PrimTy::Bool) => Value::Bool(x),
        (Value::Ptr(_), _) => return Err(Ill),
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_value_int_div_by_zero_modes() {
        // GPU: returns 0 (CUDA-like); CPU: traps.
        assert_eq!(
            bin_value(BinOp::Div, Value::I32(5), Value::I32(0), false).unwrap(),
            Value::I32(0)
        );
        assert!(matches!(
            bin_value(BinOp::Div, Value::I32(5), Value::I32(0), true),
            Err(TrapReason::IntDivByZero)
        ));
    }

    #[test]
    fn fp_div_by_zero_is_infinite_not_a_trap() {
        // §II.A: "divide-by-zero in FP value does not lead to an exception
        // but returns an infinite value".
        let v = bin_value(BinOp::Div, Value::F32(1.0), Value::F32(0.0), true).unwrap();
        assert_eq!(v, Value::F32(f32::INFINITY));
    }

    #[test]
    fn pointer_arithmetic_in_elements() {
        let p = Value::Ptr(PtrVal {
            space: MemSpace::Global,
            addr: 256,
            elem: PrimTy::F32,
        });
        let q = bin_value(BinOp::Add, p, Value::I32(3), false).unwrap();
        assert_eq!(q.as_ptr().unwrap().addr, 268);
        let r = bin_value(BinOp::Sub, p, Value::I32(1), false).unwrap();
        assert_eq!(r.as_ptr().unwrap().addr, 252);
    }

    #[test]
    fn nan_comparisons_are_false() {
        let nan = Value::F32(f32::NAN);
        assert_eq!(
            bin_value(BinOp::Lt, nan, Value::F32(1.0), false).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            bin_value(BinOp::Ge, nan, Value::F32(1.0), false).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn shifts_mask_count() {
        assert_eq!(
            bin_value(BinOp::Shl, Value::U32(1), Value::U32(33), false).unwrap(),
            Value::U32(2)
        );
    }

    #[test]
    fn type_mismatch_is_illegal_instruction() {
        assert!(matches!(
            bin_value(BinOp::Add, Value::I32(1), Value::F32(1.0), false),
            Err(TrapReason::IllegalInstruction)
        ));
    }

    #[test]
    fn cast_semantics() {
        assert_eq!(
            cast_value(PrimTy::I32, Value::F32(3.9)).unwrap(),
            Value::I32(3)
        );
        assert_eq!(
            cast_value(PrimTy::F32, Value::I32(-2)).unwrap(),
            Value::F32(-2.0)
        );
        assert!(cast_value(
            PrimTy::I32,
            Value::Ptr(PtrVal {
                space: MemSpace::Global,
                addr: 0,
                elem: PrimTy::F32
            })
        )
        .is_err());
    }

    #[test]
    fn math_values() {
        assert_eq!(
            math_value(MathFn::Sqrt, &[Value::F32(4.0)]).unwrap(),
            Value::F32(2.0)
        );
        assert_eq!(
            math_value(MathFn::Min, &[Value::I32(3), Value::I32(-1)]).unwrap(),
            Value::I32(-1)
        );
        // sqrt of negative is NaN, not a trap.
        let v = math_value(MathFn::Sqrt, &[Value::F32(-1.0)]).unwrap();
        assert!(v.as_f32().unwrap().is_nan());
    }

    #[test]
    fn lanes_iterates_set_bits() {
        let ls: Vec<usize> = lanes(0b1011, 8).collect();
        assert_eq!(ls, vec![0, 1, 3]);
    }
}
