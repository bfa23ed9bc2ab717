//! The hook-runtime interface: how instrumentation statements reach the
//! Hauberk libraries.
//!
//! The translator inserts [`hauberk_kir::Hook`] statements; when the
//! interpreter executes one it dispatches to the [`HookRuntime`] supplied at
//! launch. The four Hauberk library variants (profiler, FT, FI, FI&FT)
//! implement this trait in the `hauberk` crate; [`NullRuntime`] ignores
//! everything (baseline runs).
//!
//! The interpreter also calls [`HookRuntime::on_loop_check`] at every loop
//! condition evaluation, giving fault injectors a place to emulate
//! **SM-scheduler faults** (corrupting a loop iterator or a branch decision)
//! without rewriting the AST.
//!
//! A runtime reads a dispatch point's per-lane values **in place**, through
//! typed accessors over the engine's own storage ([`Lanes`]): the VM's raw
//! register rows with their static types, or the tree walker's
//! `Vec<Value>`s. [`HookCtx::arg`] reads an argument (`Value::I32(0)` on an
//! inactive lane, as the tree walker's `zero_inactive` leaves it),
//! [`HookCtx::target`] the target variable on any lane (stale lanes
//! included), and [`HookCtx::xor_target`] corrupts the target exactly as
//! `Value::xor_bits` would — the only write a runtime can make, so the
//! register keeps its static type. [`LoopCheckCtx::iter`] and
//! [`LoopCheckCtx::xor_iter`] do the same for a loop's iterator. Nothing
//! is copied into a view or written back.
//!
//! A runtime declares which dispatch points it acts on through its
//! **interest filter**, [`HookRuntime::observes_hook`] and
//! [`HookRuntime::observes_loop`]. An FI runtime arms one (site, thread,
//! occurrence), so every other FI hook is a no-op for it. The VM (regions on
//! or off) skips the callbacks at a point the runtime does not observe; its
//! charges, statistics, telemetry and producer-tag invalidation are
//! unchanged. The tree walker dispatches every point, so it stays the
//! unfiltered reference.

use hauberk_kir::stmt::LoopId;
use hauberk_kir::{Hook, PtrVal, Ty, Value};

/// Reconstruct a typed [`Value`] from a raw register word. Exact inverse of
/// `Value::to_bits` given the static type (`Bool` masks to bit 0 like
/// `Value::from_bits`; pointers carry their static space/element type).
#[inline(always)]
pub(crate) fn value_of(ty: Ty, raw: u32) -> Value {
    match ty {
        Ty::Prim(p) => Value::from_bits(p, raw),
        Ty::Ptr { space, elem } => Value::Ptr(PtrVal {
            space,
            addr: raw,
            elem,
        }),
    }
}

/// `Value::xor_bits` on a raw register word of static type `ty`: a raw XOR,
/// masked to bit 0 for `Bool`.
#[inline(always)]
pub(crate) fn xor_word(ty: Ty, raw: u32, mask: u32) -> u32 {
    let x = raw ^ mask;
    if ty == Ty::BOOL {
        x & 1
    } else {
        x
    }
}

/// The per-lane values a dispatch point hands its runtime, left where the
/// engine keeps them. Runtimes read and write them in place, through
/// [`HookCtx::arg`], [`HookCtx::target`], [`HookCtx::xor_target`] and the
/// [`LoopCheckCtx`] iterator accessors; nothing is copied in or out.
pub struct Lanes<'a>(Store<'a>);

enum Store<'a> {
    /// The VM's raw register file: `regs[r * width + lane]` holds
    /// `Value::to_bits` of a value of the register's static type.
    Raw {
        regs: &'a mut [u32],
        width: usize,
        /// First argument register (arguments are consecutive).
        args: usize,
        /// Static type of each argument.
        arg_tys: &'a [Ty],
        /// The mutable register (a hook's target, a loop's iterator) and
        /// its static type.
        row: Option<(usize, Ty)>,
    },
    /// Typed values: `args[i][lane]` and the mutable register's lanes (the
    /// tree walker's registers).
    Values {
        args: &'a [Vec<Value>],
        row: Option<&'a mut [Value]>,
    },
}

impl<'a> Lanes<'a> {
    /// Lanes over typed values: `args[i][lane]`, and the lanes of the
    /// mutable register (a hook's target, a loop's iterator), if any.
    pub fn values(args: &'a [Vec<Value>], row: Option<&'a mut [Value]>) -> Self {
        Lanes(Store::Values { args, row })
    }

    /// Lanes over the VM's raw register file: `arg_tys.len()` arguments in
    /// consecutive registers from `args`, and the mutable register `row`
    /// with its static type.
    pub(crate) fn raw(
        regs: &'a mut [u32],
        width: usize,
        args: usize,
        arg_tys: &'a [Ty],
        row: Option<(usize, Ty)>,
    ) -> Self {
        Lanes(Store::Raw {
            regs,
            width,
            args,
            arg_tys,
            row,
        })
    }

    #[inline]
    fn n_args(&self) -> usize {
        match &self.0 {
            Store::Raw { arg_tys, .. } => arg_tys.len(),
            Store::Values { args, .. } => args.len(),
        }
    }

    #[inline]
    fn arg(&self, i: usize, lane: u32) -> Value {
        match &self.0 {
            Store::Raw {
                regs,
                width,
                args,
                arg_tys,
                ..
            } => value_of(arg_tys[i], regs[(args + i) * width + lane as usize]),
            Store::Values { args, .. } => args[i][lane as usize],
        }
    }

    #[inline]
    fn row(&self, lane: u32) -> Option<Value> {
        match &self.0 {
            Store::Raw {
                regs, width, row, ..
            } => {
                let (r, ty) = (*row)?;
                Some(value_of(ty, regs[r * width + lane as usize]))
            }
            Store::Values { row, .. } => row.as_deref().map(|v| v[lane as usize]),
        }
    }

    #[inline]
    fn xor_row(&mut self, lane: u32, mask: u32) -> bool {
        match &mut self.0 {
            Store::Raw {
                regs, width, row, ..
            } => {
                let Some((r, ty)) = *row else { return false };
                let w = &mut regs[r * *width + lane as usize];
                *w = xor_word(ty, *w, mask);
                true
            }
            Store::Values { row, .. } => match row.as_deref_mut() {
                Some(v) => {
                    v[lane as usize] = v[lane as usize].xor_bits(mask);
                    true
                }
                None => false,
            },
        }
    }
}

/// Warp-level context handed to a hook.
pub struct HookCtx<'a> {
    /// Linearized block id.
    pub block_id: u32,
    /// Warp index within the block.
    pub warp_id: u32,
    /// Active lane mask.
    pub active: u32,
    /// Lanes per warp.
    pub warp_width: u32,
    /// Global linear thread id of lane 0 of this warp.
    pub first_thread: u32,
    /// Accumulated work cycles of the launch at dispatch time — the
    /// simulated-clock timestamp used for detection-latency telemetry.
    pub cycles: u64,
    /// The evaluated arguments and the target variable, in the engine's
    /// storage; read them through [`HookCtx::arg`] and
    /// [`HookCtx::target`].
    pub lanes: Lanes<'a>,
}

impl HookCtx<'_> {
    /// Iterate over active lanes.
    #[inline]
    pub fn active_lanes(&self) -> impl Iterator<Item = u32> + '_ {
        let mask = self.active;
        (0..self.warp_width).filter(move |l| mask & (1 << l) != 0)
    }

    /// Global linear thread id of `lane`.
    #[inline]
    pub fn thread_of(&self, lane: u32) -> u32 {
        self.first_thread + lane
    }

    /// Number of hook arguments.
    #[inline]
    pub fn n_args(&self) -> usize {
        self.lanes.n_args()
    }

    /// Argument `i` on `lane`: an inactive lane reads `Value::I32(0)`, as
    /// the tree walker's `zero_inactive` leaves it.
    #[inline]
    pub fn arg(&self, i: usize, lane: u32) -> Value {
        if self.active & (1 << lane) == 0 {
            return Value::I32(0);
        }
        self.lanes.arg(i, lane)
    }

    /// The hook's target variable on `lane` (`None` for a hook without a
    /// target). Inactive lanes read the register's stale value.
    #[inline]
    pub fn target(&self, lane: u32) -> Option<Value> {
        self.lanes.row(lane)
    }

    /// Flip the `mask` bits of the target variable on `lane`, exactly as
    /// `Value::xor_bits` does (a `Bool` keeps only bit 0) — the one way a
    /// fault injector corrupts the just-defined state (Fig. 12). Returns
    /// whether the hook has a target.
    #[inline]
    pub fn xor_target(&mut self, lane: u32, mask: u32) -> bool {
        self.lanes.xor_row(lane, mask)
    }
}

/// Warp-level context for a loop condition evaluation.
pub struct LoopCheckCtx<'a> {
    /// Linearized block id.
    pub block_id: u32,
    /// Warp index within the block.
    pub warp_id: u32,
    /// Lanes still iterating this loop.
    pub active: u32,
    /// Lanes per warp.
    pub warp_width: u32,
    /// Global linear thread id of lane 0.
    pub first_thread: u32,
    /// Accumulated work cycles of the launch at dispatch time.
    pub cycles: u64,
    /// How many times this warp has evaluated this loop's condition in the
    /// current loop instance (0 on entry).
    pub iteration: u64,
    /// The iterator variable (for `for` loops) in the engine's storage, as
    /// the mutable register of [`Lanes`] with no arguments; read and
    /// corrupt it through [`LoopCheckCtx::iter`] and
    /// [`LoopCheckCtx::xor_iter`].
    pub lanes: Lanes<'a>,
    /// The lane mask the condition evaluated to; a scheduler fault may flip
    /// bits to corrupt the control-flow decision.
    pub cond_mask: &'a mut u32,
}

impl LoopCheckCtx<'_> {
    /// Iterate over active lanes.
    #[inline]
    pub fn active_lanes(&self) -> impl Iterator<Item = u32> + '_ {
        let mask = self.active;
        (0..self.warp_width).filter(move |l| mask & (1 << l) != 0)
    }

    /// The loop iterator on `lane` (`None` when the loop has none).
    #[inline]
    pub fn iter(&self, lane: u32) -> Option<Value> {
        self.lanes.row(lane)
    }

    /// Flip the `mask` bits of the iterator on `lane`, as
    /// [`HookCtx::xor_target`] does for a target. Returns whether the loop
    /// has an iterator.
    #[inline]
    pub fn xor_iter(&mut self, lane: u32, mask: u32) -> bool {
        self.lanes.xor_row(lane, mask)
    }
}

/// A register-file corruption request: flip bits of *any* live variable at
/// the current hook point — the paper's fault class (c), a value corrupted
/// **between** its definition and a later use while it sits in a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegCorruption {
    /// Variable to corrupt.
    pub var: hauberk_kir::VarId,
    /// Lane whose copy is corrupted.
    pub lane: u32,
    /// XOR mask.
    pub mask: u32,
}

/// Receiver for instrumentation events during a launch.
pub trait HookRuntime {
    /// Called when a [`Hook`] statement executes.
    fn on_hook(&mut self, hook: &Hook, ctx: &mut HookCtx<'_>);

    /// Called at every loop condition evaluation (before the mask is
    /// applied). Default: no-op.
    fn on_loop_check(&mut self, _loop_id: LoopId, _ctx: &mut LoopCheckCtx<'_>) {}

    /// Polled right after [`HookRuntime::on_hook`]: a register-file fault
    /// may corrupt a variable *other than* the hook's target (the value sits
    /// in a register between uses). Default: none.
    fn register_corruption(
        &mut self,
        _hook: &Hook,
        _first_thread: u32,
        _active: u32,
    ) -> Option<RegCorruption> {
        None
    }

    /// Whether [`HookRuntime::on_hook`] and
    /// [`HookRuntime::register_corruption`] can act at `hook`. Answering
    /// `false` is a contract: at that hook the callbacks read and mutate
    /// nothing — not the arguments or target, and no runtime state that
    /// feeds the launch or a post-run readout — and `register_corruption`
    /// returns `None`. Engines may then skip the dispatch (charges, stats
    /// and telemetry are unaffected). Default: observe every hook.
    fn observes_hook(&self, _hook: &Hook) -> bool {
        true
    }

    /// Whether [`HookRuntime::on_loop_check`] can act at the condition
    /// checks of loop `loop_id`; `false` carries the same contract as
    /// [`HookRuntime::observes_hook`] for the iterator and the decision
    /// mask. Default: observe every loop.
    fn observes_loop(&self, _loop_id: LoopId) -> bool {
        true
    }

    /// Whether, for the rest of the launch, the callbacks can no longer act
    /// at any of `hooks` or at the condition checks of `loops` — the hooks
    /// and loops inside a loop whose hang certificate is being checked
    /// (`crate::hang`). Answering `true` is a contract: from now on those
    /// dispatch points read and mutate nothing, not even state that only a
    /// post-run readout sees (a delivery flag, an alarm), so cutting the
    /// loop short cannot change anything but the counters. Default: `false`
    /// (never certify).
    fn inert_within(&self, _hooks: &[Hook], _loops: &[LoopId]) -> bool {
        false
    }

    /// A stable fingerprint of the runtime state that can still influence
    /// the *remainder* of the launch — the part a reconvergence check must
    /// compare before splicing a reference suffix onto a resumed run
    /// ([`crate::device::Device::resume_spliced`]).
    ///
    /// Two runs whose device state and `state_fingerprint` agree at a block
    /// boundary must behave identically from that boundary on. State that
    /// only feeds *post-run* readouts (a delivered-fault flag read by the
    /// classifier, say) must be excluded, or equivalent runs would never
    /// fingerprint equal. The default `None` opts out: a runtime that cannot
    /// make this guarantee never reconverges and splice attempts fall back
    /// to full re-execution.
    ///
    /// Offering a fingerprint also admits *composition*, which skips the
    /// hooks of every block after a resumed run's first block when those
    /// blocks provably read what they read in the reference. So a runtime
    /// that offers one also guarantees: at a hook whose arguments and target
    /// equal the reference run's, outside the block it was resumed at, the
    /// callbacks change nothing the launch or a post-run readout sees. The
    /// fault-injection runtimes meet this whenever the reference run raised
    /// no alarm (they act only for the armed thread, and otherwise only to
    /// raise one); checkpointed campaigns refuse references that raise
    /// alarms.
    fn state_fingerprint(&self) -> Option<u64> {
        None
    }
}

/// A runtime that ignores all events (baseline executions).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRuntime;

impl HookRuntime for NullRuntime {
    fn on_hook(&mut self, _hook: &Hook, _ctx: &mut HookCtx<'_>) {}

    fn observes_hook(&self, _hook: &Hook) -> bool {
        false
    }

    fn observes_loop(&self, _loop_id: LoopId) -> bool {
        false
    }

    fn inert_within(&self, _hooks: &[Hook], _loops: &[LoopId]) -> bool {
        true
    }

    /// Stateless, so any two null runtimes are interchangeable.
    fn state_fingerprint(&self) -> Option<u64> {
        Some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_lane_iteration() {
        let args: Vec<Vec<Value>> = vec![];
        let ctx = HookCtx {
            block_id: 0,
            warp_id: 0,
            active: 0b1010,
            warp_width: 8,
            first_thread: 16,
            cycles: 0,
            lanes: Lanes::values(&args, None),
        };
        let lanes: Vec<u32> = ctx.active_lanes().collect();
        assert_eq!(lanes, vec![1, 3]);
        assert_eq!(ctx.thread_of(3), 19);
    }
}
