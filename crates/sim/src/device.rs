//! The simulated device: global memory, launch orchestration, SM time model.

use crate::backend::Prepared;
use crate::config::DeviceConfig;
use crate::fault::MemoryBurst;
use crate::footprint::WordSet;
use crate::hooks::HookRuntime;
use crate::interp::{ExecErr, WarpExec, WarpGeom};
use crate::memory::MemRegion;
use crate::outcome::{LaunchOutcome, TrapReason};
use crate::snapshot::{
    BoundaryState, CaptureRun, Composition, Fnv1a, Snapshot, SnapshotError, Spliced,
};
use crate::stats::ExecStats;
use crate::vm::VmExec;
use hauberk_kir::validate::validate_kernel;
use hauberk_kir::{KernelDef, MemSpace, PrimTy, PtrVal, Value};
use hauberk_telemetry::span::SpanGuard;
use hauberk_telemetry::{next_launch_id, Event, Telemetry};
use std::sync::Arc;
use std::time::Instant;

/// Launch geometry and budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Launch {
    /// Grid dimensions in blocks.
    pub grid: (u32, u32),
    /// Block dimensions in threads (the bundled kernels use ≤ 32 threads per
    /// block in x — one warp — so `__syncthreads` is exact; larger blocks
    /// execute warps sequentially).
    pub block: (u32, u32),
    /// Total work-cycle budget; exceeding it yields
    /// [`LaunchOutcome::Hang`]. Use [`Launch::DEFAULT_BUDGET`] for
    /// effectively unbounded runs.
    pub cycle_budget: u64,
}

impl Launch {
    /// A budget that no sane kernel reaches (but a corrupted infinite loop
    /// eventually does, in bounded wall-clock time).
    pub const DEFAULT_BUDGET: u64 = 2_000_000_000;

    /// 1-D launch helper.
    pub fn grid1d(blocks: u32, threads_per_block: u32) -> Launch {
        Launch {
            grid: (blocks, 1),
            block: (threads_per_block, 1),
            cycle_budget: Self::DEFAULT_BUDGET,
        }
    }

    /// Set the hang budget.
    pub fn with_budget(mut self, budget: u64) -> Launch {
        self.cycle_budget = budget;
        self
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64 * self.block.0 as u64 * self.block.1 as u64
    }

    /// Total blocks in the grid (blocks execute in linear id order, so this
    /// is also the count of snapshot boundaries + 1).
    pub fn total_blocks(&self) -> u32 {
        self.grid.0 * self.grid.1
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.block.0 * self.block.1
    }
}

/// A simulated GPU (or, with [`DeviceConfig::cpu`], a protected CPU).
pub struct Device {
    /// Device configuration.
    pub config: DeviceConfig,
    /// Global memory.
    pub mem: MemRegion,
    /// Telemetry pipeline; [`Telemetry::disabled`] by default, so every
    /// emit site reduces to one branch.
    pub telemetry: Telemetry,
    /// Reference suffix cycles the last [`Device::resume_spliced`] composed.
    composed: Option<u64>,
}

impl Device {
    /// Create a device.
    pub fn new(config: DeviceConfig) -> Self {
        let mem = MemRegion::new(
            MemSpace::Global,
            config.global_mem_bytes,
            config.strict_memory,
        );
        Device {
            config,
            mem,
            telemetry: Telemetry::disabled(),
            composed: None,
        }
    }

    /// Attach a telemetry pipeline (builder style).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Default GT200-like GPU.
    pub fn gpu() -> Self {
        Device::new(DeviceConfig::gpu())
    }

    /// Small GPU for tests.
    pub fn small_gpu() -> Self {
        Device::new(DeviceConfig::small_gpu())
    }

    /// CPU-mode device (strict memory, single lane).
    pub fn cpu() -> Self {
        Device::new(DeviceConfig::cpu())
    }

    /// Allocate `n` elements of `elem` in global memory.
    ///
    /// # Panics
    /// Panics if global memory is exhausted (host-side allocation failure,
    /// not a simulated fault).
    pub fn alloc(&mut self, elem: PrimTy, n: u32) -> PtrVal {
        self.mem
            .alloc(elem, n)
            .expect("device global memory exhausted")
    }

    /// Apply a memory-corruption burst (graphics fault experiments).
    pub fn inject_memory_burst(&mut self, burst: &MemoryBurst) {
        debug_assert_eq!(burst.space, MemSpace::Global);
        self.mem.corrupt_words(burst.addr, burst.words, burst.mask);
    }

    /// Launch `kernel` with parameter values `args`.
    ///
    /// Checks shared-memory fit (the launch-time analogue of the R-Scatter
    /// compile failure) and argument arity/types, then executes every block
    /// deterministically and aggregates the SM time model.
    pub fn launch(
        &mut self,
        kernel: &KernelDef,
        args: &[Value],
        launch: &Launch,
        runtime: &mut dyn HookRuntime,
    ) -> LaunchOutcome {
        let tele = self.telemetry.clone();
        let launch_id = if tele.enabled() { next_launch_id() } else { 0 };
        tele.emit_with(|| Event::KernelLaunch {
            launch_id,
            kernel: kernel.name.clone(),
            blocks: launch.grid.0 as u64 * launch.grid.1 as u64,
            threads: launch.total_threads(),
        });
        // The launch span nests under whatever the caller has open (a
        // campaign work unit, typically) and records engine timing: which
        // engine ran, prepare vs. warp-execution nanoseconds.
        let mut span = tele.span("launch");
        span.attr_with("kernel", || kernel.name.clone());
        span.attr("engine", self.config.engine.name());
        span.attr_with("launch_id", || launch_id.to_string());
        let out = self.launch_inner(kernel, args, launch, runtime, &tele, launch_id, &mut span);
        span.attr(
            "outcome",
            match &out {
                LaunchOutcome::Completed(_) => "completed",
                LaunchOutcome::Crash { .. } => "crash",
                LaunchOutcome::Hang { .. } => "hang",
            },
        );
        drop(span);
        tele.emit_with(|| Event::KernelExit {
            launch_id,
            kernel: kernel.name.clone(),
            outcome: match &out {
                LaunchOutcome::Completed(_) => "completed",
                LaunchOutcome::Crash { .. } => "crash",
                LaunchOutcome::Hang { .. } => "hang",
            },
            snapshot: out.stats().into(),
        });
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn launch_inner(
        &mut self,
        kernel: &KernelDef,
        args: &[Value],
        launch: &Launch,
        runtime: &mut dyn HookRuntime,
        tele: &Telemetry,
        launch_id: u64,
        span: &mut SpanGuard,
    ) -> LaunchOutcome {
        if let Err(out) = self.validate_launch(kernel, args) {
            return out;
        }

        // Preparation (compilation through the build cache) runs once per
        // launch — campaigns relaunch the same instrumented kernel thousands
        // of times, so the cache makes this a lookup.
        let timed = span.active();
        let t_prepare = timed.then(Instant::now);
        let prepared = self.config.engine.prepare(kernel, &self.config);
        if let Some(t) = t_prepare {
            span.attr_with("prepare_ns", || (t.elapsed().as_nanos() as u64).to_string());
        }

        let mut st = LaunchState::fresh(&self.config, launch);
        let mut exec_ns: u64 = 0;
        let out = match self.run_block_range(
            RunCtx {
                kernel,
                args,
                launch,
                runtime,
                tele,
                launch_id,
                prepared: &prepared,
            },
            &mut st,
            0,
            launch.total_blocks(),
            timed.then_some(&mut exec_ns),
        ) {
            Some(early) => early,
            None => st.complete(),
        };
        if timed {
            span.attr_with("exec_ns", || exec_ns.to_string());
            span.attr_with("warps", || out.stats().warps.to_string());
        }
        out
    }

    /// Argument/shared-memory validation shared by every launch entry point.
    /// `Err` carries the crash outcome to return.
    fn validate_launch(&self, kernel: &KernelDef, args: &[Value]) -> Result<(), LaunchOutcome> {
        assert_eq!(args.len(), kernel.n_params, "kernel argument count");
        for (i, a) in args.iter().enumerate() {
            assert_eq!(
                a.ty(),
                kernel.vars[i].ty,
                "argument {i} type mismatch for kernel `{}`",
                kernel.name
            );
        }
        debug_assert!(validate_kernel(kernel).is_ok(), "launching invalid kernel");
        if kernel.shared_mem_bytes > self.config.shared_mem_per_block {
            return Err(LaunchOutcome::Crash {
                reason: TrapReason::SharedMemOverflow {
                    requested: kernel.shared_mem_bytes,
                    available: self.config.shared_mem_per_block,
                },
                stats: ExecStats::default(),
            });
        }
        Ok(())
    }

    /// Execute blocks `[from, to)` in linear id order against launch state
    /// `st`. Returns `Some(outcome)` on an early exit (trap or hang, state
    /// finalized), `None` when the whole range ran to completion. Linear id
    /// `b` maps to grid position `(b % grid.0, b / grid.0)` — the same
    /// row-major order the nested grid loops always used, which is what
    /// makes "before block `b`" a well-defined resume point.
    fn run_block_range(
        &mut self,
        ctx: RunCtx<'_>,
        st: &mut LaunchState,
        from: u32,
        to: u32,
        mut exec_ns: Option<&mut u64>,
    ) -> Option<LaunchOutcome> {
        let kernel = ctx.kernel;
        let launch = ctx.launch;
        let warps_per_block = launch.threads_per_block().div_ceil(self.config.warp_width);
        for block_lin in from..to {
            let (bx, by) = (block_lin % launch.grid.0, block_lin / launch.grid.0);
            let mut shared = MemRegion::new(
                MemSpace::Shared,
                self.config.shared_mem_per_block,
                self.config.strict_memory,
            );
            if kernel.shared_mem_bytes > 0 {
                // Materialize the block's static shared allocation so
                // addresses 0..shared_mem_bytes are valid.
                shared
                    .alloc(PrimTy::F32, kernel.shared_mem_bytes / 4)
                    .expect("checked against device limit above");
            }
            let before = st.stats.work_cycles;
            for warp_id in 0..warps_per_block {
                let geom = WarpGeom {
                    grid: launch.grid,
                    block_dim: launch.block,
                    block_idx: (bx, by),
                    warp_id,
                };
                let t_warp = exec_ns.is_some().then(Instant::now);
                let run_result = match ctx.prepared {
                    Prepared::TreeWalk => WarpExec::new(
                        kernel,
                        &self.config,
                        &mut self.mem,
                        &mut shared,
                        &mut *ctx.runtime,
                        &mut st.stats,
                        &mut st.budget,
                        geom,
                        ctx.args,
                        ctx.tele,
                        ctx.launch_id,
                    )
                    .run(),
                    Prepared::Vm { compiled, regions } => VmExec::new(
                        compiled,
                        *regions,
                        &self.config,
                        &mut self.mem,
                        &mut shared,
                        &mut *ctx.runtime,
                        &mut st.stats,
                        &mut st.budget,
                        geom,
                        ctx.args,
                        ctx.tele,
                        ctx.launch_id,
                    )
                    .run(),
                };
                if let (Some(ns), Some(t)) = (exec_ns.as_deref_mut(), t_warp) {
                    *ns += t.elapsed().as_nanos() as u64;
                }
                match run_result {
                    Ok(()) => {}
                    Err(ExecErr::Trap(reason)) => {
                        finalize(&mut st.stats, &st.sm_cycles);
                        return Some(LaunchOutcome::Crash {
                            reason,
                            stats: st.stats.clone(),
                        });
                    }
                    Err(ExecErr::Hang) => {
                        finalize(&mut st.stats, &st.sm_cycles);
                        return Some(LaunchOutcome::Hang {
                            stats: st.stats.clone(),
                        });
                    }
                }
            }
            st.stats.blocks += 1;
            let block_cycles = st.stats.work_cycles - before;
            st.sm_cycles[(block_lin % self.config.num_sms) as usize] += block_cycles;
        }
        None
    }

    /// Run `kernel` to completion like [`Device::launch`], capturing a
    /// [`Snapshot`] before each block in `boundaries` and a state
    /// fingerprint before each block in `fences` (boundary `b` = "block `b`
    /// has not executed yet"; boundary `total_blocks` is the post-run
    /// state). This is the checkpoint reference pass: one full fault-free
    /// execution whose snapshots every injection in the campaign restores.
    ///
    /// The same pass records each block's word-level global footprint, so
    /// the snapshot of a boundary `b` below the last block also carries what
    /// [`Device::resume_spliced`] needs to compose a run instead of
    /// executing blocks `b + 1..`: the reference state after block `b` and
    /// after the last block, and the words later blocks read and write.
    ///
    /// Boundaries the run never reaches (trap or hang first) are absent from
    /// the result, as are fences whose `runtime` declines
    /// [`HookRuntime::state_fingerprint`]. A reference that traps or hangs
    /// leaves its snapshots without composition data.
    pub fn capture_launch(
        &mut self,
        kernel: &KernelDef,
        args: &[Value],
        launch: &Launch,
        runtime: &mut dyn HookRuntime,
        boundaries: &[u32],
        fences: &[u32],
    ) -> CaptureRun {
        let mut run = CaptureRun {
            outcome: LaunchOutcome::Completed(ExecStats::default()),
            snapshots: Vec::new(),
            fences: Vec::new(),
        };
        if let Err(out) = self.validate_launch(kernel, args) {
            run.outcome = out;
            return run;
        }
        let prepared = self.config.engine.prepare(kernel, &self.config);
        let tele = self.telemetry.clone();
        let total = launch.total_blocks();

        // Per boundary 0..=total: snapshot it, fingerprint it, and keep its
        // state (a snapshot's own, the one after it, and the post-run one).
        let n = total as usize + 1;
        let (mut snap_at, mut fence_at, mut state_at) =
            (vec![false; n], vec![false; n], vec![false; n]);
        for &b in boundaries.iter().filter(|b| **b <= total) {
            snap_at[b as usize] = true;
            state_at[b as usize] = true;
            state_at[(b as usize + 1).min(total as usize)] = true;
            state_at[total as usize] = true;
        }
        for &f in fences.iter().filter(|f| **f <= total) {
            fence_at[f as usize] = true;
        }

        let mut st = LaunchState::fresh(&self.config, launch);
        let mut states: Vec<Option<Arc<BoundaryState>>> = vec![None; n];
        let mut footprints = Vec::with_capacity(total as usize);
        self.mem.start_recording();
        for b in 0..=total {
            if state_at[b as usize] {
                states[b as usize] = Some(Arc::new(BoundaryState {
                    mem: self.mem.clone(),
                    launch: st.clone(),
                }));
            }
            if fence_at[b as usize] {
                if let Some(fp) = self.state_fingerprint(&st, &*runtime) {
                    run.fences.push((b, fp));
                }
            }
            if b == total {
                break;
            }
            let ctx = RunCtx {
                kernel,
                args,
                launch,
                runtime: &mut *runtime,
                tele: &tele,
                launch_id: 0,
                prepared: &prepared,
            };
            if let Some(early) = self.run_block_range(ctx, &mut st, b, b + 1, None) {
                run.outcome = early;
                break;
            }
            footprints.push(self.mem.take_footprint());
        }
        self.mem.stop_recording();

        // Walk back from the last block, so the running unions hold exactly
        // the blocks after each boundary when it is reached. A run that
        // trapped or hung never reached the post-run state.
        let last = states[total as usize].clone();
        let words = self.mem.backed_words().len();
        let (mut reads, mut writes) = (WordSet::with_words(words), WordSet::with_words(words));
        let mut compose: Vec<Option<Arc<Composition>>> = vec![None; n];
        if let Some(last) = &last {
            for b in (0..total).rev() {
                if snap_at[b as usize] {
                    compose[b as usize] = Some(Arc::new(Composition {
                        next: states[b as usize + 1].clone().expect("kept above"),
                        last: last.clone(),
                        later_reads: reads.clone(),
                        later_writes: writes.clone(),
                    }));
                }
                let fp = &footprints[b as usize];
                reads.union_chunks(&fp.reads);
                writes.union_chunks(&fp.writes);
            }
        }
        for b in 0..n {
            if let (true, Some(state)) = (snap_at[b], states[b].take()) {
                run.snapshots.push((
                    b as u32,
                    Snapshot {
                        next_block: b as u32,
                        state,
                        compose: compose[b].take(),
                    },
                ));
            }
        }
        if run.outcome.is_completed() {
            run.outcome = st.complete();
        }
        run
    }

    /// Restore `snap` and run the remaining blocks to completion — the
    /// resumed launch is bit-identical (outcome, stats, memory, hook
    /// deliveries) to a full launch whose first `snap.next_block()` blocks
    /// were fault-free, because that is exactly what the snapshot recorded.
    pub fn resume_launch(
        &mut self,
        kernel: &KernelDef,
        args: &[Value],
        launch: &Launch,
        runtime: &mut dyn HookRuntime,
        snap: &Snapshot,
    ) -> Result<LaunchOutcome, SnapshotError> {
        self.resume_spliced(kernel, args, launch, runtime, snap, u32::MAX, 0)
            .map(|s| match s {
                Spliced::Ran(out) => out,
                Spliced::Reconverged { .. } => {
                    unreachable!("no fence below total_blocks never reconverges")
                }
            })
    }

    /// Restore `snap`, run blocks up to the `fence` boundary, and compare
    /// the state fingerprint against `expected_fp` (from the reference
    /// capture pass). On a match the remaining blocks provably replay the
    /// fault-free reference, so execution stops and the caller splices the
    /// reference finals ([`Spliced::Reconverged`]).
    ///
    /// Otherwise, when the fence is the block right after the snapshot's and
    /// the snapshot carries composition data, the run is *composed* instead
    /// of executed whenever that is provably exact:
    ///
    /// * no word where memory differs from the reference after the faulty
    ///   block is read by a later block, so every later block loads, computes
    ///   and stores what it did in the reference; and
    /// * the remaining budget covers the reference suffix's consumption, so
    ///   the suffix cannot hang (charges are non-negative and a hang fires
    ///   only when one exceeds the budget left).
    ///
    /// The composed memory is the run's own, with every word a later block
    /// writes set to the reference's final value; stats and per-SM cycles are
    /// the run's own plus the reference suffix's. Later blocks' hooks are
    /// skipped, so only a runtime that offers a
    /// [`HookRuntime::state_fingerprint`] is composed (that contract covers
    /// it). The result is [`Spliced::Ran`] with the composed memory on the
    /// device, and [`Device::composed_cycles`] reports the suffix it stood
    /// in for. Failing either condition, the run continues to its own
    /// completion.
    ///
    /// A `fence` at or beyond the last block degrades to a plain resume.
    #[allow(clippy::too_many_arguments)]
    pub fn resume_spliced(
        &mut self,
        kernel: &KernelDef,
        args: &[Value],
        launch: &Launch,
        runtime: &mut dyn HookRuntime,
        snap: &Snapshot,
        fence: u32,
        expected_fp: u64,
    ) -> Result<Spliced, SnapshotError> {
        self.composed = None;
        let total = launch.total_blocks();
        if snap.next_block > total {
            return Err(SnapshotError::BlockOutOfRange {
                next_block: snap.next_block,
                total_blocks: total,
            });
        }
        if let Err(out) = self.validate_launch(kernel, args) {
            return Ok(Spliced::Ran(out));
        }
        let prepared = self.config.engine.prepare(kernel, &self.config);
        let tele = self.telemetry.clone();

        self.mem = snap.state.mem.clone();
        let mut st = snap.state.launch.clone();
        macro_rules! ctx {
            () => {
                RunCtx {
                    kernel,
                    args,
                    launch,
                    runtime: &mut *runtime,
                    tele: &tele,
                    launch_id: 0,
                    prepared: &prepared,
                }
            };
        }

        let splice_at = (fence < total).then_some(fence.max(snap.next_block));
        if let Some(f) = splice_at {
            if let Some(early) = self.run_block_range(ctx!(), &mut st, snap.next_block, f, None) {
                return Ok(Spliced::Ran(early));
            }
            let fp = self.state_fingerprint(&st, &*runtime);
            if fp == Some(expected_fp) {
                return Ok(Spliced::Reconverged {
                    executed_cycles: st.stats.work_cycles - snap.prefix_cycles(),
                });
            }
            let composition = snap
                .compose
                .as_deref()
                .filter(|_| fp.is_some() && f == snap.next_block + 1);
            if let Some(c) = composition {
                if self.compose(&mut st, c) {
                    return Ok(Spliced::Ran(st.complete()));
                }
            }
            if let Some(early) = self.run_block_range(ctx!(), &mut st, f, total, None) {
                return Ok(Spliced::Ran(early));
            }
        } else if let Some(early) =
            self.run_block_range(ctx!(), &mut st, snap.next_block, total, None)
        {
            return Ok(Spliced::Ran(early));
        }
        Ok(Spliced::Ran(st.complete()))
    }

    /// Work cycles of the reference suffix that the last
    /// [`Device::resume_spliced`] on this device composed instead of
    /// executing; `None` when it executed (or spliced) instead. The outcome
    /// counts these cycles like executed ones.
    pub fn composed_cycles(&self) -> Option<u64> {
        self.composed
    }

    /// Compose the rest of a resumed launch from the reference (see
    /// [`Device::resume_spliced`]) when that is exact: apply it to memory
    /// and `st` and return `true`, or leave both untouched and return
    /// `false`.
    fn compose(&mut self, st: &mut LaunchState, c: &Composition) -> bool {
        let (next, last) = (&c.next.launch, &c.last.launch);
        let suffix_budget = next.budget - last.budget;
        if st.budget < suffix_budget
            || self.mem.allocated() != c.next.mem.allocated()
            || self.mem.differs_within(&c.next.mem, &c.later_reads)
        {
            return false;
        }
        self.mem.copy_words_from(&c.last.mem, &c.later_writes);
        st.stats += &last.stats;
        st.stats -= &next.stats;
        for ((mine, l), n) in st
            .sm_cycles
            .iter_mut()
            .zip(&last.sm_cycles)
            .zip(&next.sm_cycles)
        {
            *mine += l - n;
        }
        st.budget -= suffix_budget;
        self.composed = Some(last.stats.work_cycles - next.stats.work_cycles);
        true
    }

    /// Fingerprint everything that can influence the rest of the launch:
    /// global memory (backed extent + brk — unbacked reads are a pure
    /// function of the address), cumulative stats, per-SM tallies, the
    /// remaining budget, and the runtime's own suffix-observable state.
    /// `None` when the runtime opts out of fingerprinting.
    fn state_fingerprint(&self, st: &LaunchState, runtime: &dyn HookRuntime) -> Option<u64> {
        let rt = runtime.state_fingerprint()?;
        let mut h = Fnv1a::new();
        for w in self.mem.backed_words() {
            h.write(&w.to_le_bytes());
        }
        h.write_u64(self.mem.allocated() as u64);
        h.write_u64(st.stats.work_cycles);
        h.write_u64(st.stats.loop_cycles);
        for c in st.stats.class_counts {
            h.write_u64(c);
        }
        h.write_u64(st.stats.paired_ops);
        h.write_u64(st.stats.mem_segments);
        h.write_u64(st.stats.blocks);
        h.write_u64(st.stats.warps);
        h.write_u64(st.stats.syncs);
        h.write_u64(st.stats.hooks);
        for c in &st.sm_cycles {
            h.write_u64(*c);
        }
        h.write_u64(st.budget);
        h.write_u64(rt);
        Some(h.finish())
    }
}

/// Everything immutable a block-range execution needs (per-call view; the
/// runtime is the one mutable guest).
struct RunCtx<'a> {
    kernel: &'a KernelDef,
    args: &'a [Value],
    launch: &'a Launch,
    runtime: &'a mut dyn HookRuntime,
    tele: &'a Telemetry,
    launch_id: u64,
    prepared: &'a Prepared,
}

/// The launch-wide mutable state threaded through the block loop — exactly
/// what a [`Snapshot`] captures alongside global memory.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LaunchState {
    pub(crate) stats: ExecStats,
    pub(crate) sm_cycles: Vec<u64>,
    pub(crate) budget: u64,
}

impl LaunchState {
    fn fresh(config: &DeviceConfig, launch: &Launch) -> LaunchState {
        LaunchState {
            stats: ExecStats::default(),
            sm_cycles: vec![0u64; config.num_sms as usize],
            budget: launch.cycle_budget,
        }
    }

    /// Finalize after all blocks completed.
    fn complete(mut self) -> LaunchOutcome {
        finalize(&mut self.stats, &self.sm_cycles);
        LaunchOutcome::Completed(self.stats)
    }
}

fn finalize(stats: &mut ExecStats, sm_cycles: &[u64]) {
    stats.kernel_cycles = sm_cycles.iter().copied().max().unwrap_or(0).max(
        // Crashed/hung before any block finished: fall back to work cycles.
        if sm_cycles.iter().all(|c| *c == 0) {
            stats.work_cycles
        } else {
            0
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NullRuntime;
    use hauberk_kir::builder::KernelBuilder;
    use hauberk_kir::parser::parse_kernel;
    use hauberk_kir::stmt::{Hook, HookKind, Stmt};
    use hauberk_kir::{Expr, HwComponent, Ty};

    fn saxpy_kernel() -> KernelDef {
        parse_kernel(
            r#"kernel saxpy(y: *global f32, x: *global f32, a: f32, n: i32) {
                let i: i32 = block_idx_x() * block_dim_x() + thread_idx_x();
                if (i < n) {
                    let v: f32 = a * load(x, i) + load(y, i);
                    store(y, i, v);
                }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn saxpy_computes_correctly() {
        let mut dev = Device::small_gpu();
        let n = 100u32;
        let y = dev.alloc(PrimTy::F32, n);
        let x = dev.alloc(PrimTy::F32, n);
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let ys: Vec<f32> = (0..n).map(|i| (i as f32) * 0.5).collect();
        dev.mem.copy_in_f32(x, &xs);
        dev.mem.copy_in_f32(y, &ys);
        let k = saxpy_kernel();
        let launch = Launch::grid1d(n.div_ceil(32), 32);
        let out = dev.launch(
            &k,
            &[
                Value::Ptr(y),
                Value::Ptr(x),
                Value::F32(2.0),
                Value::I32(n as i32),
            ],
            &launch,
            &mut NullRuntime,
        );
        assert!(out.is_completed(), "{out:?}");
        let r = dev.mem.copy_out_f32(y, n);
        for (i, v) in r.iter().enumerate().take(n as usize) {
            assert_eq!(*v, 2.0 * i as f32 + (i as f32) * 0.5);
        }
        let s = out.stats();
        assert_eq!(s.blocks, 4);
        assert!(s.kernel_cycles > 0 && s.kernel_cycles <= s.work_cycles);
    }

    #[test]
    fn loop_kernel_attributes_loop_cycles() {
        let k = parse_kernel(
            r#"kernel acc(out: *global f32, x: *global f32, n: i32) {
                let i: i32 = thread_idx_x();
                let s: f32 = 0.0;
                for (j = 0; j < n; j = j + 1) {
                    s = s + load(x, j) * load(x, j);
                }
                store(out, i, s);
            }"#,
        )
        .unwrap();
        let mut dev = Device::small_gpu();
        let out = dev.alloc(PrimTy::F32, 32);
        let x = dev.alloc(PrimTy::F32, 64);
        dev.mem.copy_in_f32(x, &vec![1.0; 64]);
        let launch = Launch::grid1d(1, 32);
        let r = dev.launch(
            &k,
            &[Value::Ptr(out), Value::Ptr(x), Value::I32(64)],
            &launch,
            &mut NullRuntime,
        );
        let s = r.completed_stats().unwrap();
        assert!(
            s.loop_fraction() > 0.9,
            "loop-dominant kernel: {}",
            s.loop_fraction()
        );
        assert_eq!(dev.mem.copy_out_f32(out, 1)[0], 64.0);
    }

    #[test]
    fn divergence_executes_both_arms() {
        let k = parse_kernel(
            r#"kernel d(out: *global i32) {
                let i: i32 = thread_idx_x();
                let v: i32 = 0;
                if (i % 2 == 0) {
                    v = 10;
                } else {
                    v = 20;
                }
                store(out, i, v);
            }"#,
        )
        .unwrap();
        let mut dev = Device::small_gpu();
        let out = dev.alloc(PrimTy::I32, 32);
        let r = dev.launch(
            &k,
            &[Value::Ptr(out)],
            &Launch::grid1d(1, 32),
            &mut NullRuntime,
        );
        assert!(r.is_completed());
        let v = dev.mem.copy_out_i32(out, 4);
        assert_eq!(v, vec![10, 20, 10, 20]);
    }

    #[test]
    fn while_and_break_reconverge() {
        let k = parse_kernel(
            r#"kernel w(out: *global i32, n: i32) {
                let i: i32 = thread_idx_x();
                let c: i32 = 0;
                while (true) {
                    c = c + 1;
                    if (c > i) {
                        break;
                    }
                }
                store(out, i, c);
            }"#,
        )
        .unwrap();
        let mut dev = Device::small_gpu();
        let out = dev.alloc(PrimTy::I32, 32);
        let r = dev.launch(
            &k,
            &[Value::Ptr(out), Value::I32(0)],
            &Launch::grid1d(1, 8),
            &mut NullRuntime,
        );
        assert!(r.is_completed(), "{r:?}");
        let v = dev.mem.copy_out_i32(out, 8);
        assert_eq!(v, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn infinite_loop_hangs_at_budget() {
        let k = parse_kernel(
            r#"kernel h(out: *global i32) {
                let x: i32 = 0;
                while (true) {
                    x = x + 1;
                }
                store(out, 0, x);
            }"#,
        )
        .unwrap();
        let mut dev = Device::small_gpu();
        let out = dev.alloc(PrimTy::I32, 4);
        let r = dev.launch(
            &k,
            &[Value::Ptr(out)],
            &Launch {
                grid: (1, 1),
                block: (1, 1),
                cycle_budget: 10_000,
            },
            &mut NullRuntime,
        );
        assert!(matches!(r, LaunchOutcome::Hang { .. }), "{r:?}");
    }

    #[test]
    fn shared_mem_overflow_fails_launch() {
        let k = parse_kernel(
            r#"kernel s(out: *global i32) shared 999999 {
                store(out, 0, 1);
            }"#,
        )
        .unwrap();
        let mut dev = Device::small_gpu();
        let out = dev.alloc(PrimTy::I32, 4);
        let r = dev.launch(
            &k,
            &[Value::Ptr(out)],
            &Launch::grid1d(1, 1),
            &mut NullRuntime,
        );
        assert!(matches!(
            r,
            LaunchOutcome::Crash {
                reason: TrapReason::SharedMemOverflow { .. },
                ..
            }
        ));
    }

    #[test]
    fn shared_memory_is_per_block_usable() {
        let k = parse_kernel(
            r#"kernel sh(out: *global f32) shared 256 {
                let s: *shared f32 = shared_f32();
                let i: i32 = thread_idx_x();
                store(s, i, cast<f32>(i) * 2.0);
                sync();
                store(out, block_idx_x() * block_dim_x() + i, load(s, i));
            }"#,
        )
        .unwrap();
        let mut dev = Device::small_gpu();
        let out = dev.alloc(PrimTy::F32, 64);
        let r = dev.launch(
            &k,
            &[Value::Ptr(out)],
            &Launch::grid1d(2, 32),
            &mut NullRuntime,
        );
        assert!(r.is_completed(), "{r:?}");
        let v = dev.mem.copy_out_f32(out, 64);
        assert_eq!(v[5], 10.0);
        assert_eq!(v[37], 10.0);
    }

    #[test]
    fn cpu_mode_traps_on_oob() {
        let k = parse_kernel(
            r#"kernel c(p: *global i32) {
                store(p, 1000000, 1);
            }"#,
        )
        .unwrap();
        let mut dev = Device::cpu();
        let p = dev.alloc(PrimTy::I32, 16);
        let r = dev.launch(
            &k,
            &[Value::Ptr(p)],
            &Launch::grid1d(1, 1),
            &mut NullRuntime,
        );
        assert!(matches!(
            r,
            LaunchOutcome::Crash {
                reason: TrapReason::OutOfBounds { .. },
                ..
            }
        ));
    }

    #[test]
    fn gpu_mode_wraps_on_oob_silently() {
        let k = parse_kernel(
            r#"kernel g(p: *global i32) {
                store(p, 1000000, 77);
            }"#,
        )
        .unwrap();
        let mut dev = Device::small_gpu();
        let p = dev.alloc(PrimTy::I32, 16);
        let r = dev.launch(
            &k,
            &[Value::Ptr(p)],
            &Launch::grid1d(1, 1),
            &mut NullRuntime,
        );
        assert!(r.is_completed(), "no page protection on GPU: {r:?}");
    }

    #[test]
    fn determinism_same_launch_same_stats() {
        let k = saxpy_kernel();
        let run = || {
            let mut dev = Device::small_gpu();
            let y = dev.alloc(PrimTy::F32, 64);
            let x = dev.alloc(PrimTy::F32, 64);
            dev.mem.copy_in_f32(x, &vec![1.5; 64]);
            dev.mem.copy_in_f32(y, &vec![2.5; 64]);
            let r = dev.launch(
                &k,
                &[
                    Value::Ptr(y),
                    Value::Ptr(x),
                    Value::F32(3.0),
                    Value::I32(64),
                ],
                &Launch::grid1d(2, 32),
                &mut NullRuntime,
            );
            (r.stats().clone(), dev.mem.copy_out_f32(y, 64))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn register_live_fault_corrupts_between_uses() {
        use crate::fault::{ArmedFault, FaultArm, FaultSite};
        use crate::hooks::RegCorruption;

        // a = 5; @fi(site 0, target a); b = 7; @fi(site 1, target b);
        // store(out,0,a); store(out,1,b);
        let mut b = KernelBuilder::new("reg");
        let out = b.param("out", Ty::global_ptr(PrimTy::I32));
        let a = b.let_("a", Ty::I32, hauberk_kir::Expr::i32(5));
        b.stmt(Stmt::Hook(Hook {
            kind: HookKind::FiPoint {
                hw: HwComponent::IAlu,
            },
            site: 0,
            args: vec![],
            target: Some(a),
        }));
        let bv = b.let_("b", Ty::I32, hauberk_kir::Expr::i32(7));
        b.stmt(Stmt::Hook(Hook {
            kind: HookKind::FiPoint {
                hw: HwComponent::IAlu,
            },
            site: 1,
            args: vec![],
            target: Some(bv),
        }));
        b.store(Expr::var(out), Expr::i32(0), Expr::var(a));
        b.store(Expr::var(out), Expr::i32(1), Expr::var(bv));
        let k = b.finish();

        /// Minimal FI runtime delivering register-live corruptions.
        struct RegFi {
            arm: FaultArm,
        }
        impl HookRuntime for RegFi {
            fn on_hook(&mut self, hook: &hauberk_kir::Hook, ctx: &mut crate::hooks::HookCtx<'_>) {
                self.arm.at_hook(hook.site, ctx);
            }
            fn register_corruption(
                &mut self,
                hook: &hauberk_kir::Hook,
                first_thread: u32,
                active: u32,
            ) -> Option<RegCorruption> {
                self.arm.poll_register(hook.site, first_thread, active, 32)
            }
        }

        // Corrupt `a` (already defined, sitting in a register) at site 1 —
        // i.e. AFTER b's definition, BETWEEN a's def and its use.
        let mut rt = RegFi {
            arm: FaultArm::new(Some(ArmedFault {
                site: FaultSite::RegisterLive { site: 1, var: a },
                thread: 0,
                occurrence: 1,
                mask: 0b10, // 5 ^ 2 = 7
            })),
        };
        let mut dev = Device::small_gpu();
        let outp = dev.alloc(PrimTy::I32, 4);
        let r = dev.launch(&k, &[Value::Ptr(outp)], &Launch::grid1d(1, 1), &mut rt);
        assert!(r.is_completed(), "{r:?}");
        assert!(rt.arm.delivered());
        let v = dev.mem.copy_out_i32(outp, 2);
        assert_eq!(v[0], 7, "a was corrupted after b's definition (5^2)");
        assert_eq!(v[1], 7, "b untouched");
    }

    /// Minimal fault-injection runtime for the composition tests: delivers
    /// one armed `HookTarget` fault and offers a fingerprint, like the
    /// campaign runtimes.
    struct Fi(crate::fault::FaultArm);

    impl HookRuntime for Fi {
        fn on_hook(&mut self, hook: &hauberk_kir::Hook, ctx: &mut crate::hooks::HookCtx<'_>) {
            self.0.at_hook(hook.site, ctx);
        }

        fn state_fingerprint(&self) -> Option<u64> {
            Some(0)
        }
    }

    fn fi(fault: Option<(u32, u32)>) -> Fi {
        use crate::fault::{ArmedFault, FaultArm, FaultSite};
        Fi(FaultArm::new(fault.map(|(thread, mask)| ArmedFault {
            site: FaultSite::HookTarget { site: 0 },
            thread,
            occurrence: 1,
            mask,
        })))
    }

    /// `let v = init; @fi(site 0, target v);` then `body(v)`.
    fn fi_kernel(
        init: impl FnOnce(&KernelBuilder) -> Expr,
        body: impl FnOnce(&mut KernelBuilder, u32, u32, u32),
    ) -> KernelDef {
        let mut b = KernelBuilder::new("compose");
        let out = b.param("out", Ty::global_ptr(PrimTy::I32));
        let tid = b.let_("tid", Ty::I32, b.global_thread_id_x());
        let v = b.let_("v", Ty::I32, init(&b));
        b.stmt(Stmt::Hook(Hook {
            kind: HookKind::FiPoint {
                hw: HwComponent::IAlu,
            },
            site: 0,
            args: vec![],
            target: Some(v),
        }));
        body(&mut b, out, tid, v);
        b.finish()
    }

    /// A full launch of `k` over `words` output words on `engine`: outcome
    /// and output.
    fn full_launch(
        engine: crate::config::ExecEngine,
        k: &KernelDef,
        launch: &Launch,
        words: u32,
        rt: &mut dyn HookRuntime,
    ) -> (LaunchOutcome, Vec<i32>) {
        let mut dev = Device::new(DeviceConfig {
            engine,
            ..DeviceConfig::small_gpu()
        });
        let out = dev.alloc(PrimTy::I32, words);
        let r = dev.launch(k, &[Value::Ptr(out)], launch, rt);
        (r, dev.mem.copy_out_i32(out, words))
    }

    /// Capture `k` fault-free with one boundary at `b`, then resume it with
    /// `rt` against the fence `b + 1`: the run, whether it was composed,
    /// and the output.
    fn compose_resume(
        engine: crate::config::ExecEngine,
        k: &KernelDef,
        launch: &Launch,
        words: u32,
        b: u32,
        rt: &mut dyn HookRuntime,
    ) -> (Spliced, bool, Vec<i32>, Snapshot) {
        let mut dev = Device::new(DeviceConfig {
            engine,
            ..DeviceConfig::small_gpu()
        });
        let out = dev.alloc(PrimTy::I32, words);
        let args = [Value::Ptr(out)];
        let cap = dev.capture_launch(k, &args, launch, &mut fi(None), &[b], &[b + 1]);
        assert!(cap.outcome.is_completed(), "{:?}", cap.outcome);
        let (snap, (_, fp)) = (cap.snapshots[0].1.clone(), cap.fences[0]);
        let run = dev
            .resume_spliced(k, &args, launch, rt, &snap, b + 1, fp)
            .expect("in-range restore");
        let composed = dev.composed_cycles().is_some();
        (run, composed, dev.mem.copy_out_i32(out, words), snap)
    }

    const ENGINES: [crate::config::ExecEngine; 3] = [
        crate::config::ExecEngine::TreeWalk,
        crate::config::ExecEngine::Bytecode,
        crate::config::ExecEngine::Batch,
    ];

    /// The budget rule is exact: with the remaining budget equal to the
    /// reference suffix's consumption the run composes to the full launch's
    /// `Completed`; one cycle less and it falls back to the full launch's
    /// `Hang`.
    #[test]
    fn composition_budget_edge_matches_full_launches() {
        // Thread 33 (block 1) loops v = 4 ^ 8 = 12 times instead of 4, so
        // its block costs more than the reference's; no block reads `out`.
        let k = fi_kernel(
            |_| Expr::i32(4),
            |b, out, tid, v| {
                let acc = b.let_("acc", Ty::I32, Expr::i32(0));
                let it = b.local("it", Ty::I32);
                b.for_range(it, Expr::var(v), |b| {
                    b.assign(acc, Expr::add(Expr::var(acc), Expr::var(it)));
                });
                b.store(Expr::var(out), Expr::var(tid), Expr::var(acc));
            },
        );
        let fault = Some((33, 0b1000));
        for engine in ENGINES {
            let big = Launch::grid1d(3, 32);
            let (reference, _) = full_launch(engine, &k, &big, 96, &mut fi(None));
            let (faulty, _) = full_launch(engine, &k, &big, 96, &mut fi(fault));
            let exact = faulty.stats().work_cycles;
            assert!(
                exact > reference.stats().work_cycles,
                "the fault costs cycles"
            );
            for (budget, composes) in [(exact, true), (exact - 1, false)] {
                let launch = big.with_budget(budget);
                let (run, composed, mem, _) =
                    compose_resume(engine, &k, &launch, 96, 1, &mut fi(fault));
                let Spliced::Ran(out) = run else {
                    panic!("a faulty run never reconverges");
                };
                assert_eq!(composed, composes, "{engine:?} budget {budget}");
                let want = full_launch(engine, &k, &launch, 96, &mut fi(fault));
                assert_eq!((out.clone(), mem), want, "{engine:?} budget {budget}");
                assert_eq!(out.is_completed(), composes, "{engine:?}: {out:?}");
            }
        }
    }

    /// A corrupted store into a word a later block writes composes to the
    /// reference's final value there.
    #[test]
    fn later_writes_overwrite_a_corrupted_store() {
        // Thread 0 stores to index 0 ^ 33 = 33, which block 1 then writes.
        let k = fi_kernel(
            |b| b.global_thread_id_x(),
            |b, out, tid, v| {
                b.store(
                    Expr::var(out),
                    Expr::var(v),
                    Expr::add(Expr::var(tid), Expr::i32(100)),
                );
            },
        );
        let launch = Launch::grid1d(2, 32);
        for engine in ENGINES {
            let (run, composed, mem, _) =
                compose_resume(engine, &k, &launch, 64, 0, &mut fi(Some((0, 33))));
            let Spliced::Ran(out) = run else {
                panic!("a faulty run never reconverges");
            };
            assert!(composed, "{engine:?}: no later block reads `out`");
            assert_eq!((mem[0], mem[33]), (0, 133), "{engine:?}");
            let want = full_launch(engine, &k, &launch, 64, &mut fi(Some((0, 33))));
            assert_eq!((out, mem), want, "{engine:?}");
        }
    }

    /// Atomics count as both a read and a write: a later block's atomic on
    /// a word the faulty block changed forces the fallback.
    #[test]
    fn atomics_are_read_and_write_footprints() {
        // Every thread adds v = 1 to out[0]; thread 0 adds 1 ^ 2 = 3.
        let k = fi_kernel(
            |_| Expr::i32(1),
            |b, out, _, v| b.atomic_add(Expr::var(out), Expr::i32(0), Expr::var(v)),
        );
        let launch = Launch::grid1d(2, 32);
        for engine in ENGINES {
            let (run, composed, mem, snap) =
                compose_resume(engine, &k, &launch, 4, 0, &mut fi(Some((0, 2))));
            // `out` is the device's first allocation: out[0] is word 0.
            let c = snap
                .compose
                .as_deref()
                .expect("completed reference composes");
            assert_eq!(c.later_reads.iter().collect::<Vec<_>>(), vec![0]);
            assert_eq!(c.later_writes.iter().collect::<Vec<_>>(), vec![0]);
            assert!(!composed, "{engine:?}: block 1 reads the changed word");
            let Spliced::Ran(out) = run else {
                panic!("a faulty run never reconverges");
            };
            assert_eq!(mem[0], 66, "{engine:?}");
            let want = full_launch(engine, &k, &launch, 4, &mut fi(Some((0, 2))));
            assert_eq!((out, mem), want, "{engine:?}");
        }
    }

    /// A later block's warp-uniform load (one address for every lane, which
    /// the VM broadcasts) is a read footprint too: it forces the
    /// fallback when the faulty block changed that word.
    #[test]
    fn uniform_loads_are_read_footprints() {
        // Thread 0 stores v = 7 ^ 1 to out[0]; every other thread stores
        // out[0] + 1, and block 1's full warp loads out[0] uniformly.
        let k = fi_kernel(
            |_| Expr::i32(7),
            |b, out, tid, v| {
                b.if_else(
                    Expr::bin(hauberk_kir::BinOp::Eq, Expr::var(tid), Expr::i32(0)),
                    |b| b.store(Expr::var(out), Expr::i32(0), Expr::var(v)),
                    |b| {
                        let next =
                            Expr::add(Expr::load(Expr::var(out), Expr::i32(0)), Expr::i32(1));
                        b.store(Expr::var(out), Expr::var(tid), next);
                    },
                );
            },
        );
        let launch = Launch::grid1d(2, 32);
        for engine in ENGINES {
            let (run, composed, mem, snap) =
                compose_resume(engine, &k, &launch, 64, 0, &mut fi(Some((0, 1))));
            let c = snap
                .compose
                .as_deref()
                .expect("completed reference composes");
            assert_eq!(
                c.later_reads.iter().collect::<Vec<_>>(),
                vec![0],
                "{engine:?}"
            );
            assert!(!composed, "{engine:?}: block 1 reads the changed word");
            let Spliced::Ran(out) = run else {
                panic!("a faulty run never reconverges");
            };
            assert_eq!((mem[0], mem[63]), (6, 7), "{engine:?}");
            let want = full_launch(engine, &k, &launch, 64, &mut fi(Some((0, 1))));
            assert_eq!((out, mem), want, "{engine:?}");
        }
    }

    #[test]
    fn atomic_add_accumulates_across_threads() {
        let k = parse_kernel(
            r#"kernel a(c: *global i32) {
                atomic_add(c, 0, 1);
            }"#,
        )
        .unwrap();
        let mut dev = Device::small_gpu();
        let c = dev.alloc(PrimTy::I32, 4);
        let r = dev.launch(
            &k,
            &[Value::Ptr(c)],
            &Launch::grid1d(4, 32),
            &mut NullRuntime,
        );
        assert!(r.is_completed());
        assert_eq!(dev.mem.copy_out_i32(c, 1)[0], 128);
    }
}
