//! Fault arming and delivery: the architecture-state corruption machinery of
//! the SWIFI toolset (§VII).
//!
//! A fault is *armed* against a static location ([`FaultSite`]), a specific
//! global thread, a dynamic occurrence count, and an XOR bit mask. Delivery
//! happens inside the interpreter's hook/loop-check callbacks via
//! [`FaultArm`], which the FI library runtimes embed. Occurrences are
//! counted **for the armed thread only** (no other thread can ever deliver),
//! making injections deterministic regardless of block execution order.

use crate::hooks::{HookCtx, LoopCheckCtx};
use hauberk_kir::stmt::{LoopId, SiteId};
use hauberk_kir::MemSpace;

/// Static location a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Corrupt the target variable of fault-injection hook `site` right
    /// after its defining statement (ALU / FPU / register-file faults).
    HookTarget {
        /// Hook site id.
        site: SiteId,
    },
    /// Corrupt the iterator variable of loop `loop_id` at a condition
    /// evaluation (SM-scheduler fault on the iterator path).
    LoopIterator {
        /// Loop id.
        loop_id: LoopId,
    },
    /// Flip the thread's branch decision at a condition evaluation of loop
    /// `loop_id` (SM-scheduler fault on the decision path).
    LoopDecision {
        /// Loop id.
        loop_id: LoopId,
    },
    /// Corrupt variable `var` while it sits in a register, at the k-th
    /// execution of hook `site` by the target thread — the register-file
    /// fault class (c): the corruption lands *between* the variable's
    /// definition and a later use.
    RegisterLive {
        /// Trigger hook site (any site; typically not `var`'s own def).
        site: SiteId,
        /// The live variable to corrupt.
        var: u32,
    },
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSite::HookTarget { site } => write!(f, "hook_target({site})"),
            FaultSite::LoopIterator { loop_id } => write!(f, "loop_iterator({loop_id})"),
            FaultSite::LoopDecision { loop_id } => write!(f, "loop_decision({loop_id})"),
            FaultSite::RegisterLive { site, var } => {
                write!(f, "register_live(site={site},var={var})")
            }
        }
    }
}

/// A fault armed for delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmedFault {
    /// Where.
    pub site: FaultSite,
    /// Which global linear thread.
    pub thread: u32,
    /// Which dynamic occurrence for that thread (1-based: 1 = first
    /// execution of the site by that thread).
    pub occurrence: u64,
    /// XOR mask applied to the 32-bit architecture state.
    pub mask: u32,
}

/// Counts the armed thread's occurrences of the armed site and delivers the
/// fault at most once.
#[derive(Debug, Default)]
pub struct FaultArm {
    fault: Option<ArmedFault>,
    /// Executions of the armed site by the armed thread so far.
    count: u64,
    delivered: bool,
}

impl FaultArm {
    /// Arm `fault` (or none, for fault-free runs).
    pub fn new(fault: Option<ArmedFault>) -> Self {
        FaultArm {
            fault,
            count: 0,
            delivered: false,
        }
    }

    /// Whether the armed fault was activated during the run. A fault that is
    /// never activated (its site/thread/occurrence never executed) is *not
    /// manifested* by construction.
    pub fn delivered(&self) -> bool {
        self.delivered
    }

    /// The armed fault, if any.
    pub fn fault(&self) -> Option<&ArmedFault> {
        self.fault.as_ref()
    }

    /// Whether the armed fault triggers at hook `site` (a
    /// [`FaultSite::HookTarget`] or [`FaultSite::RegisterLive`] there). At
    /// any other hook [`FaultArm::at_hook`] and [`FaultArm::poll_register`]
    /// do nothing.
    pub fn arms_hook(&self, site: SiteId) -> bool {
        match self.fault.map(|f| f.site) {
            Some(FaultSite::HookTarget { site: want })
            | Some(FaultSite::RegisterLive { site: want, .. }) => want == site,
            _ => false,
        }
    }

    /// Whether the armed fault triggers at the condition checks of loop
    /// `loop_id` (a [`FaultSite::LoopIterator`] or
    /// [`FaultSite::LoopDecision`] there). At any other loop
    /// [`FaultArm::at_loop_check`] does nothing.
    pub fn arms_loop(&self, loop_id: LoopId) -> bool {
        match self.fault.map(|f| f.site) {
            Some(FaultSite::LoopIterator { loop_id: want })
            | Some(FaultSite::LoopDecision { loop_id: want }) => want == loop_id,
            _ => false,
        }
    }

    /// Count one execution of the armed site by the warp whose lane 0 is
    /// `first_thread`. Returns the armed thread's lane when this execution
    /// is the armed occurrence and nothing was delivered yet.
    fn tick(
        &mut self,
        f: &ArmedFault,
        first_thread: u32,
        active: u32,
        warp_width: u32,
    ) -> Option<u32> {
        let lane = f.thread.wrapping_sub(first_thread);
        if lane >= warp_width || active & (1 << lane) == 0 {
            return None;
        }
        self.count += 1;
        (self.count == f.occurrence && !self.delivered).then_some(lane)
    }

    /// Poll for a register-file corruption at hook `site` (the interpreter
    /// applies it to the named variable).
    pub fn poll_register(
        &mut self,
        site: SiteId,
        first_thread: u32,
        active: u32,
        warp_width: u32,
    ) -> Option<crate::hooks::RegCorruption> {
        let f = self.fault?;
        let FaultSite::RegisterLive { site: want, var } = f.site else {
            return None;
        };
        if want != site {
            return None;
        }
        let lane = self.tick(&f, first_thread, active, warp_width)?;
        self.delivered = true;
        Some(crate::hooks::RegCorruption {
            var,
            lane,
            mask: f.mask,
        })
    }

    /// Deliver at a fault-injection hook: corrupts the target variable of
    /// the matching lane if the armed (site, thread, occurrence) matches.
    pub fn at_hook(&mut self, site: SiteId, ctx: &mut HookCtx<'_>) {
        let Some(f) = self.fault else { return };
        let FaultSite::HookTarget { site: want } = f.site else {
            return;
        };
        if want != site {
            return;
        }
        let Some(lane) = self.tick(&f, ctx.first_thread, ctx.active, ctx.warp_width) else {
            return;
        };
        if ctx.xor_target(lane, f.mask) {
            self.delivered = true;
        }
    }

    /// Deliver at a loop condition evaluation (scheduler faults).
    pub fn at_loop_check(&mut self, loop_id: LoopId, ctx: &mut LoopCheckCtx<'_>) {
        let Some(f) = self.fault else { return };
        if !self.arms_loop(loop_id) {
            return;
        }
        let Some(lane) = self.tick(&f, ctx.first_thread, ctx.active, ctx.warp_width) else {
            return;
        };
        match f.site {
            FaultSite::LoopIterator { .. } if ctx.xor_iter(lane, f.mask) => {
                self.delivered = true;
            }
            FaultSite::LoopDecision { .. } => {
                *ctx.cond_mask ^= 1 << lane;
                self.delivered = true;
            }
            _ => {}
        }
    }
}

/// A burst of memory-word corruptions, applied directly to device memory
/// before (or between) kernel launches. This emulates the paper's graphics
/// experiments: a transient fault corrupting one value of the input stream,
/// or an intermittent fault corrupting 10,000 consecutive values (80 µs on a
/// 250 MHz FPU at IPC 1 with 50% FP instructions — Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBurst {
    /// Memory space to corrupt.
    pub space: MemSpace,
    /// First byte address.
    pub addr: u32,
    /// Number of consecutive 32-bit words to corrupt.
    pub words: u32,
    /// XOR mask applied to each word.
    pub mask: u32,
}

impl MemoryBurst {
    /// A single-value transient corruption.
    pub fn transient(addr: u32, mask: u32) -> Self {
        MemoryBurst {
            space: MemSpace::Global,
            addr,
            words: 1,
            mask,
        }
    }

    /// The paper's 10,000-value intermittent corruption.
    pub fn intermittent_10k(addr: u32, mask: u32) -> Self {
        MemoryBurst {
            space: MemSpace::Global,
            addr,
            words: 10_000,
            mask,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::Lanes;
    use hauberk_kir::Value;

    fn ctx_with_target<'a>(target: &'a mut [Value], args: &'a [Vec<Value>]) -> HookCtx<'a> {
        HookCtx {
            block_id: 0,
            warp_id: 0,
            active: 0b11,
            warp_width: 2,
            first_thread: 0,
            cycles: 0,
            lanes: Lanes::values(args, Some(target)),
        }
    }

    #[test]
    fn delivers_exactly_once_at_right_occurrence() {
        let mut arm = FaultArm::new(Some(ArmedFault {
            site: FaultSite::HookTarget { site: 7 },
            thread: 1,
            occurrence: 2,
            mask: 0x1,
        }));
        let args: Vec<Vec<Value>> = vec![];
        let mut target = vec![Value::I32(0), Value::I32(0)];

        // First execution: occurrence 1, no delivery.
        arm.at_hook(7, &mut ctx_with_target(&mut target, &args));
        assert!(!arm.delivered());
        assert_eq!(target[1], Value::I32(0));

        // Second execution: occurrence 2 on thread 1 -> flip bit 0.
        arm.at_hook(7, &mut ctx_with_target(&mut target, &args));
        assert!(arm.delivered());
        assert_eq!(target[1], Value::I32(1));
        assert_eq!(target[0], Value::I32(0), "other lanes untouched");

        // Further executions do nothing.
        arm.at_hook(7, &mut ctx_with_target(&mut target, &args));
        assert_eq!(target[1], Value::I32(1));
    }

    #[test]
    fn wrong_site_never_delivers() {
        let mut arm = FaultArm::new(Some(ArmedFault {
            site: FaultSite::HookTarget { site: 3 },
            thread: 0,
            occurrence: 1,
            mask: 0xFF,
        }));
        let args: Vec<Vec<Value>> = vec![];
        let mut target = vec![Value::I32(0)];
        let mut ctx = HookCtx {
            block_id: 0,
            warp_id: 0,
            active: 1,
            warp_width: 1,
            first_thread: 0,
            cycles: 0,
            lanes: Lanes::values(&args, Some(&mut target)),
        };
        arm.at_hook(4, &mut ctx);
        assert!(!arm.delivered());
    }

    #[test]
    fn loop_decision_flips_cond_mask() {
        let mut arm = FaultArm::new(Some(ArmedFault {
            site: FaultSite::LoopDecision { loop_id: 0 },
            thread: 0,
            occurrence: 1,
            mask: 0,
        }));
        let mut cond = 0b0u32;
        let mut ctx = LoopCheckCtx {
            block_id: 0,
            warp_id: 0,
            active: 1,
            warp_width: 1,
            first_thread: 0,
            cycles: 0,
            iteration: 0,
            lanes: Lanes::values(&[], None),
            cond_mask: &mut cond,
        };
        arm.at_loop_check(0, &mut ctx);
        assert!(arm.delivered());
        assert_eq!(cond, 0b1, "thread forced to take another iteration");
    }

    #[test]
    fn only_the_armed_threads_executions_count() {
        let mut arm = FaultArm::new(Some(ArmedFault {
            site: FaultSite::HookTarget { site: 7 },
            thread: 3,
            occurrence: 2,
            mask: 0x1,
        }));
        let args: Vec<Vec<Value>> = vec![];
        let mut target = vec![Value::I32(0); 2];
        let mut run = |arm: &mut FaultArm, first_thread: u32, active: u32| {
            let mut ctx = ctx_with_target(&mut target, &args);
            ctx.first_thread = first_thread;
            ctx.active = active;
            arm.at_hook(7, &mut ctx);
        };
        // Warps without thread 3 active, or not containing it, never count.
        run(&mut arm, 2, 0b01);
        run(&mut arm, 2, 0b01);
        run(&mut arm, 0, 0b11);
        run(&mut arm, 4, 0b11);
        assert!(!arm.delivered());
        // Thread 3 is lane 1 of the warp starting at thread 2.
        run(&mut arm, 2, 0b11);
        assert!(!arm.delivered(), "first occurrence");
        run(&mut arm, 2, 0b10);
        assert!(arm.delivered(), "second occurrence");
        assert_eq!(target, vec![Value::I32(0), Value::I32(1)]);
    }

    #[test]
    fn arms_hook_and_loop_name_the_armed_point() {
        let arm = |site| {
            FaultArm::new(Some(ArmedFault {
                site,
                thread: 0,
                occurrence: 1,
                mask: 1,
            }))
        };
        let hook = arm(FaultSite::HookTarget { site: 2 });
        assert!(hook.arms_hook(2) && !hook.arms_hook(3) && !hook.arms_loop(2));
        let reg = arm(FaultSite::RegisterLive { site: 2, var: 9 });
        assert!(reg.arms_hook(2) && !reg.arms_hook(9) && !reg.arms_loop(2));
        let iter = arm(FaultSite::LoopIterator { loop_id: 1 });
        assert!(iter.arms_loop(1) && !iter.arms_loop(2) && !iter.arms_hook(1));
        let dec = arm(FaultSite::LoopDecision { loop_id: 1 });
        assert!(dec.arms_loop(1) && !dec.arms_hook(1));
        let none = FaultArm::new(None);
        assert!(!none.arms_hook(0) && !none.arms_loop(0));
    }

    #[test]
    fn none_fault_is_inert() {
        let mut arm = FaultArm::new(None);
        let args: Vec<Vec<Value>> = vec![];
        let mut target = vec![Value::I32(5)];
        arm.at_hook(0, &mut ctx_with_target(&mut target, &args));
        assert!(!arm.delivered());
        assert_eq!(target[0], Value::I32(5));
    }
}
