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
//! A runtime declares which dispatch points it acts on through its
//! **interest filter**, [`HookRuntime::observes_hook`] and
//! [`HookRuntime::observes_loop`]. An FI runtime arms one (site, thread,
//! occurrence), so every other FI hook is a no-op for it. The batched VM
//! skips the typed lane views and the callbacks at a point the runtime does
//! not observe; its charges, statistics, telemetry and producer-tag
//! invalidation are unchanged. The tree walker and the bytecode VM dispatch
//! every point, so they stay the unfiltered reference.

use hauberk_kir::stmt::LoopId;
use hauberk_kir::{Hook, Value};

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
    /// Evaluated hook arguments: `args[i][lane]`.
    pub args: &'a [Vec<Value>],
    /// Per-lane values of the hook's target variable, mutable so a fault
    /// injector can corrupt the just-defined state (Fig. 12).
    pub target: Option<&'a mut Vec<Value>>,
}

impl HookCtx<'_> {
    /// Iterate over active lanes.
    pub fn active_lanes(&self) -> impl Iterator<Item = u32> + '_ {
        let mask = self.active;
        (0..self.warp_width).filter(move |l| mask & (1 << l) != 0)
    }

    /// Global linear thread id of `lane`.
    pub fn thread_of(&self, lane: u32) -> u32 {
        self.first_thread + lane
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
    /// Per-lane iterator values (for `for` loops), mutable so a scheduler
    /// fault can corrupt the iterator.
    pub iter_var: Option<&'a mut Vec<Value>>,
    /// The lane mask the condition evaluated to; a scheduler fault may flip
    /// bits to corrupt the control-flow decision.
    pub cond_mask: &'a mut u32,
}

impl LoopCheckCtx<'_> {
    /// Iterate over active lanes.
    pub fn active_lanes(&self) -> impl Iterator<Item = u32> + '_ {
        let mask = self.active;
        (0..self.warp_width).filter(move |l| mask & (1 << l) != 0)
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
            args: &args,
            target: None,
        };
        let lanes: Vec<u32> = ctx.active_lanes().collect();
        assert_eq!(lanes, vec![1, 3]);
        assert_eq!(ctx.thread_of(3), 19);
    }
}
