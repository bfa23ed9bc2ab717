//! Hang certificates: a provably endless counted loop ends the launch at
//! once instead of running out the watchdog budget.
//!
//! The guardian declares a hang only after the launch has spent its whole
//! cycle budget (10× the golden run's cycles, §VI). A fault that flips the
//! sign bit of a counted loop's iterator leaves ~2³¹ iterations to go, so
//! running the faulty warp until the budget is gone buys a verdict that was
//! certain a few iterations after the fault. A loop with a [`HangCert`]
//! (`hauberk_kir::analysis`: counted shape, a body that can neither trap
//! nor leave) ends the launch as [`crate::LaunchOutcome::Hang`] with
//! `certified: true` as soon as both hold:
//!
//! * some live lane's remaining condition tests, times the per-iteration
//!   cycle floor (the loop test's `ctl` charge, which never co-issues),
//!   exceed the remaining budget;
//! * the hook runtime reports that nothing inside the loop can still
//!   change state ([`HookRuntime::inert_within`]).
//!
//! Then running on could only spend the budget inside this loop: no trap,
//! no `break`, the iterator advancing by one per iteration against a bound
//! nothing changes. Both engines check through [`certifies`] at the
//! power-of-two values of the loop's iteration counter from
//! [`FIRST_CHECK`] on ([`checks_at`]), after the runtime's loop-check
//! callback, so they end at the same point with the same stats.
//! Ending charges the whole remaining budget, which is what running it out
//! charges (`interp::charge_cycles` clamps an overrunning charge), so
//! `work_cycles` and `loop_cycles` equal the uncertified run's; the
//! op-class, pairing, segment and hook counters stop at the certificate.

use crate::hooks::HookRuntime;
use crate::interp::{bin_value, cast_value, math_value, un_value};
use hauberk_kir::analysis::HangCert;
use hauberk_kir::{Expr, Value};

/// The first iteration count at which a certificate is checked. Short
/// loops (RPES's contraction runs 4 iterations) then never pay for a check,
/// and a corrupted loop runs at most this many iterations more than it
/// would with checks from the first.
pub(crate) const FIRST_CHECK: u64 = 64;

/// Whether the engines check a loop's certificate after `iteration`
/// completed iterations: at the powers of two from [`FIRST_CHECK`] on, so a
/// loop instance of `n` iterations is checked at most log2(n) times, and a
/// fault at iteration `k` is certified by iteration max(2k, 64).
#[inline(always)]
pub(crate) fn checks_at(iteration: u64) -> bool {
    iteration >= FIRST_CHECK && iteration.is_power_of_two()
}

/// Whether `cert` proves the loop a hang for the lanes in `live` (the lanes
/// about to run its body), with `budget` cycles left and `floor` cycles
/// charged per condition test. `leaf` reads a variable or builtin
/// (`Expr::Var`/`Expr::Builtin`) on a lane, after the runtime's loop-check
/// callback. A zero floor proves nothing.
pub(crate) fn certifies(
    cert: &HangCert,
    floor: u64,
    budget: u64,
    live: u32,
    leaf: impl Fn(&Expr, usize) -> Value,
    runtime: &dyn HookRuntime,
) -> bool {
    if floor == 0 {
        return false;
    }
    let iter = Expr::Var(cert.iter);
    // The most condition tests any live lane still charges; `None` when one
    // never leaves.
    let mut longest = Some(0u64);
    let mut m = live;
    while m != 0 {
        let lane = m.trailing_zeros() as usize;
        m &= m - 1;
        let (Value::I32(i), Some(Value::I32(b))) =
            (leaf(&iter, lane), eval(&cert.bound, lane, &leaf))
        else {
            return false;
        };
        longest = match remaining_tests(i, b, cert.inclusive) {
            Some(n) => longest.map(|l| l.max(n)),
            None => None,
        };
    }
    let outlasts = longest.is_none_or(|n| u128::from(n) * u128::from(floor) > u128::from(budget));
    outlasts && runtime.inert_within(&cert.hooks, &cert.loops)
}

/// Condition tests a lane charges after the current one, when its iterator
/// holds `i` now: the later tests see `i + 1`, `i + 2`, ... (wrapping, like
/// the step) against `bound`, and the lane stays until one fails. `None`
/// when none ever fails (`i <= i32::MAX`).
fn remaining_tests(i: i32, bound: i32, inclusive: bool) -> Option<u64> {
    let next = i.wrapping_add(1);
    let passes = if inclusive {
        if next > bound {
            0
        } else if bound == i32::MAX {
            return None;
        } else {
            (i64::from(bound) - i64::from(next) + 1) as u64
        }
    } else if next >= bound {
        0
    } else {
        (i64::from(bound) - i64::from(next)) as u64
    };
    Some(passes + 1)
}

/// The value of an infallible, load-free expression on `lane`, by the
/// engines' own value semantics (no division, so strictness is moot).
fn eval(e: &Expr, lane: usize, leaf: &impl Fn(&Expr, usize) -> Value) -> Option<Value> {
    Some(match e {
        Expr::Lit(v) => *v,
        Expr::Var(_) | Expr::Builtin(_) => leaf(e, lane),
        Expr::Un(op, a) => un_value(*op, eval(a, lane, leaf)?).ok()?,
        Expr::Bin(op, a, b) => {
            bin_value(*op, eval(a, lane, leaf)?, eval(b, lane, leaf)?, false).ok()?
        }
        Expr::Call(f, args) => {
            let vals = args
                .iter()
                .map(|a| eval(a, lane, leaf))
                .collect::<Option<Vec<_>>>()?;
            math_value(*f, &vals).ok()?
        }
        Expr::Cast(to, a) => cast_value(*to, eval(a, lane, leaf)?).ok()?,
        Expr::Load { .. } => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceConfig, ExecEngine};
    use crate::device::{Device, Launch};
    use crate::hooks::{HookCtx, NullRuntime};
    use crate::outcome::LaunchOutcome;
    use crate::vm_batch::micro_of;
    use hauberk_kir::lower::Op;
    use hauberk_kir::parser::parse_kernel;
    use hauberk_kir::{Hook, PrimTy};

    /// Observes everything and never vouches for a loop (the trait's
    /// defaults), so nothing is certified.
    struct Uncertified;

    impl HookRuntime for Uncertified {
        fn on_hook(&mut self, _hook: &Hook, _ctx: &mut HookCtx<'_>) {}
    }

    /// `x` counts iterations of a loop that never ends (`<= i32::MAX`), in
    /// one warp of 32 threads under a 20,000-cycle budget.
    fn endless(cfg: DeviceConfig, rt: &mut dyn HookRuntime) -> LaunchOutcome {
        let k = parse_kernel(
            "kernel endless(out: *global i32) {
                let x: i32 = 0;
                for (i = 0; i <= 2147483647; i = i + 1) {
                    if ((i & 1) == 0) { x = x + 1; }
                }
                store(out, 0, x);
            }",
        )
        .unwrap();
        let mut dev = Device::new(cfg);
        let out = dev.alloc(PrimTy::I32, 1);
        let launch = Launch::grid1d(1, 32).with_budget(20_000);
        dev.launch(&k, &[hauberk_kir::Value::Ptr(out)], &launch, rt)
    }

    #[test]
    fn le_i32_max_loop_is_a_certified_hang_with_the_run_out_cycles() {
        let mut want = None;
        for engine in [
            ExecEngine::TreeWalk,
            ExecEngine::Bytecode,
            ExecEngine::Batch,
        ] {
            let cfg = DeviceConfig {
                engine,
                ..DeviceConfig::small_gpu()
            };
            let fast = endless(cfg.clone(), &mut NullRuntime);
            let slow = endless(cfg, &mut Uncertified);
            let (
                LaunchOutcome::Hang {
                    stats: f,
                    certified: true,
                },
                LaunchOutcome::Hang {
                    stats: s,
                    certified: false,
                },
            ) = (&fast, &slow)
            else {
                panic!("{engine}: {fast:?} / {slow:?}");
            };
            assert_eq!((f.work_cycles, s.work_cycles), (20_000, 20_000), "{engine}");
            assert_eq!(f.loop_cycles, s.loop_cycles, "{engine}");
            // Certified at the first check, so the counters stop after
            // that many iterations' worth of ops.
            let ops = f.class_counts.iter().sum::<u64>();
            assert!(ops < 8 * FIRST_CHECK, "{engine}: {f:?}");
            // Every engine stops at the same point.
            assert_eq!(want.get_or_insert_with(|| fast.clone()), &fast, "{engine}");
        }
    }

    /// Whether every op a loop runs — its condition, body and step, from
    /// its `LoopHead` to its exit — is infallible in the VM's own terms
    /// (`micro_of`) or a control, hook or lane-zeroing op.
    fn lowered_loop_is_infallible(code: &[Op], loop_id: u32) -> bool {
        let test = code
            .iter()
            .position(|op| matches!(op, Op::LoopTest { loop_id: l, .. } if *l == loop_id))
            .expect("every loop has a test");
        let Op::LoopTest { exit_pc, .. } = code[test] else {
            unreachable!()
        };
        let head = code[..test]
            .iter()
            .rposition(|op| matches!(op, Op::LoopHead))
            .expect("a test follows its head");
        code[head..exit_pc as usize].iter().all(|op| {
            micro_of(op).is_some()
                || matches!(
                    op,
                    Op::ZeroInactive { .. }
                        | Op::Hook { .. }
                        | Op::IfSplit { .. }
                        | Op::EndArm { .. }
                        | Op::LoopEnter
                        | Op::LoopHead
                        | Op::LoopTest { .. }
                        | Op::LoopNext { .. }
                        | Op::Jump { .. }
                        | Op::Break { .. }
                        | Op::Continue { .. }
                )
        })
    }

    /// The analysis decides infallibility on expressions, the VM on lowered
    /// ops (`vm_batch::micro_of`): they must agree. Every value op the
    /// analysis accepts lowers to micro-ops, and a counted loop refused only
    /// for one fallible op lowers to an op `micro_of` rejects.
    #[test]
    fn certified_loops_lower_to_infallible_ops() {
        let kernel = |body: &str| {
            let k = parse_kernel(&format!(
                "kernel k(out: *global f32, n: i32, u: u32, f: f32, b: bool) {{
                    let x: i32 = 1;
                    let v: u32 = 2u;
                    let g: f32 = 0.5;
                    let c: bool = false;
                    for (i = 0; i < n + 1; i = i + 1) {{ {body} }}
                }}"
            ))
            .unwrap();
            hauberk_kir::validate::validate_kernel(&k).unwrap();
            k
        };
        let certified = [
            "x = -x + (x * 3 - 1) ^ (x << 2) | (x >> 1) & ~x;",
            "v = v * 7u + (v >> 3u) - ~v; x = cast<i32>(v) + min(x, 4) + max(x, abs(x));",
            "g = -g * g / (g + 1.0) - sqrt(abs(g)) + rsqrt(g) + sin(g) + cos(g);",
            "g = exp(g) + log(g) + floor(g) + min(g, f) + max(g, 2.0);",
            "c = !c && b || (x < 3) == (g <= f) || (v > u) != (i >= x);",
            "v = bits(g) + cast<u32>(c) + cast<u32>(g); g = cast<f32>(x) + cast<f32>(v);",
            "if (c) { continue; } for (j = 0; j < 3; j = j + 1) { if (j == x) { break; } }",
            "@fi_point(site=1, hw=ALU, target=x); @check_range(site=2, det=0, g);",
        ];
        for body in certified {
            let k = kernel(body);
            assert!(
                hauberk_kir::analysis::hang_certificates(&k)[0].is_some(),
                "{body}"
            );
            let code = hauberk_kir::lower::lower_kernel(&k).code;
            assert!(lowered_loop_is_infallible(&code, 0), "{body}");
        }
        for body in ["x = x / 3;", "v = v % 3u;", "g = load(out, i);"] {
            let k = kernel(body);
            assert!(
                hauberk_kir::analysis::hang_certificates(&k)[0].is_none(),
                "{body}"
            );
            let code = hauberk_kir::lower::lower_kernel(&k).code;
            assert!(!lowered_loop_is_infallible(&code, 0), "{body}");
        }
    }

    #[test]
    fn zero_ctl_floor_certifies_nothing() {
        let mut cfg = DeviceConfig::small_gpu();
        cfg.cost.ctl = 0;
        let r = endless(cfg, &mut NullRuntime);
        assert!(
            matches!(
                r,
                LaunchOutcome::Hang {
                    certified: false,
                    ..
                }
            ),
            "{r:?}"
        );
        assert_eq!(r.stats().work_cycles, 20_000);
    }

    #[test]
    fn remaining_tests_count_every_later_check() {
        // i < 10 with i = 3 now: tests at 4..=10, the last one failing.
        assert_eq!(remaining_tests(3, 10, false), Some(7));
        assert_eq!(remaining_tests(3, 10, true), Some(8));
        // A lane kept live past its bound (a flipped decision) tests once.
        assert_eq!(remaining_tests(10, 10, false), Some(1));
        assert_eq!(remaining_tests(11, 10, true), Some(1));
        // The sign-bit fault: ~2³¹ tests to go.
        let flipped = 5 ^ i32::MIN;
        assert_eq!(
            remaining_tests(flipped, 200, false),
            Some(200 - 6 + (1 << 31) + 1)
        );
        // `<= i32::MAX` never fails; a wrap past it keeps testing too.
        assert_eq!(remaining_tests(0, i32::MAX, true), None);
        assert_eq!(remaining_tests(i32::MAX, 0, false), Some((1u64 << 31) + 1));
    }
}
