//! The four Hauberk library runtimes of Fig. 7, as [`HookRuntime`]
//! implementations: profiler, FT (fault tolerance), FI (fault injector), and
//! FI&FT.

use crate::control::{AlarmKind, ControlBlock, NON_LOOP_DETECTOR};
use hauberk_kir::stmt::{LoopId, SiteId};
use hauberk_kir::Hook;
use hauberk_kir::HookKind;
use hauberk_sim::fault::{ArmedFault, FaultArm};
use hauberk_sim::hooks::{HookCtx, HookRuntime, LoopCheckCtx};
use hauberk_telemetry::{Event, Telemetry};
use std::collections::HashMap;

/// Cap on recorded per-site value samples (Fig. 10 tracing).
const SITE_SAMPLE_CAP: usize = 8192;

/// The profiler library: records the averaged-accumulator samples the
/// FT build later range-checks, per-site execution counts (to enumerate and
/// weight fault-injection targets), and per-site value samples (Fig. 10).
#[derive(Debug, Default)]
pub struct ProfilerRuntime {
    /// Per-detector samples of the averaged accumulator value.
    pub detector_samples: HashMap<u32, Vec<f64>>,
    /// Dynamic execution count per (site, thread).
    pub exec_counts: HashMap<(SiteId, u32), u64>,
    /// Value samples per site (the defined variable's value), capped.
    pub site_samples: HashMap<SiteId, Vec<f64>>,
}

impl ProfilerRuntime {
    /// Samples for detector `det` (empty slice if none).
    pub fn samples(&self, det: u32) -> &[f64] {
        self.detector_samples
            .get(&det)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Total dynamic executions of `site` across threads.
    pub fn total_execs(&self, site: SiteId) -> u64 {
        self.exec_counts
            .iter()
            .filter(|((s, _), _)| *s == site)
            .map(|(_, c)| *c)
            .sum()
    }

    /// Every `(site, thread, count)` execution record, sorted by site and
    /// then thread: one site's threads are a contiguous run, so a caller
    /// looking up many sites (the campaign planner, once per planned
    /// injection) binary-searches instead of rescanning `exec_counts`.
    pub fn sorted_execs(&self) -> Vec<(SiteId, u32, u64)> {
        let mut execs = Vec::with_capacity(self.exec_counts.len());
        execs.extend(self.exec_counts.iter().map(|(&(s, t), &c)| (s, t, c)));
        execs.sort_unstable();
        execs
    }
}

impl HookRuntime for ProfilerRuntime {
    fn on_hook(&mut self, hook: &Hook, ctx: &mut HookCtx<'_>) {
        match &hook.kind {
            HookKind::Profile { detector } => {
                let samples = self.detector_samples.entry(*detector).or_default();
                let lanes: Vec<u32> = ctx.active_lanes().collect();
                for lane in lanes {
                    samples.push(ctx.args[0][lane as usize].as_numeric_f64());
                }
            }
            HookKind::CountExec => {
                let lanes: Vec<u32> = ctx.active_lanes().collect();
                for lane in lanes {
                    let t = ctx.thread_of(lane);
                    *self.exec_counts.entry((hook.site, t)).or_insert(0) += 1;
                    if let Some(target) = ctx.target.as_deref() {
                        let s = self.site_samples.entry(hook.site).or_default();
                        if s.len() < SITE_SAMPLE_CAP {
                            s.push(target[lane as usize].as_numeric_f64());
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// The FT library: checks values against the control block's configured
/// ranges and records alarms with deferred reporting.
#[derive(Debug, Default)]
pub struct FtRuntime {
    /// The control block (configure ranges before launch; read alarms after).
    pub cb: ControlBlock,
    /// Telemetry handle (disabled by default).
    pub tele: Telemetry,
    /// Work-cycle timestamp of the first alarm this run, if any.
    pub first_alarm_cycle: Option<u64>,
}

impl FtRuntime {
    /// An FT runtime configured with profiled ranges.
    pub fn new(cb: ControlBlock) -> Self {
        FtRuntime {
            cb,
            ..Default::default()
        }
    }

    /// Attach a telemetry handle ([`Event::DetectorFired`] per alarm).
    pub fn with_telemetry(mut self, tele: Telemetry) -> Self {
        self.tele = tele;
        self
    }
}

impl HookRuntime for FtRuntime {
    fn on_hook(&mut self, hook: &Hook, ctx: &mut HookCtx<'_>) {
        ft_dispatch(
            &mut self.cb,
            hook,
            ctx,
            &self.tele,
            &mut self.first_alarm_cycle,
        );
    }
}

/// Record an alarm; stamp the first-alarm cycle and emit one
/// [`Event::DetectorFired`] per *new* (detector, kind) alarm — the control
/// block dedups repeats from the many threads of a launch, and the trace
/// mirrors that.
fn raise_traced(
    cb: &mut ControlBlock,
    det: usize,
    kind: AlarmKind,
    observed: f64,
    cycle: u64,
    tele: &Telemetry,
    first_alarm_cycle: &mut Option<u64>,
) {
    let had = cb.alarms.len();
    cb.raise(det, kind, observed);
    first_alarm_cycle.get_or_insert(cycle);
    if cb.alarms.len() > had {
        tele.emit_with(|| Event::DetectorFired {
            detector: if det == NON_LOOP_DETECTOR {
                -1
            } else {
                det as i64
            },
            variable: cb.var_of(det).to_string(),
            kind: kind.as_str().to_string(),
            observed,
            cycle,
        });
    }
}

fn ft_dispatch(
    cb: &mut ControlBlock,
    hook: &Hook,
    ctx: &mut HookCtx<'_>,
    tele: &Telemetry,
    first_alarm_cycle: &mut Option<u64>,
) {
    match &hook.kind {
        HookKind::CheckRange { detector } => {
            let det = *detector as usize;
            let lanes: Vec<u32> = ctx.active_lanes().collect();
            for lane in lanes {
                let v = ctx.args[0][lane as usize].as_numeric_f64();
                let inside = cb.ranges.get(det).map(|r| r.contains(v)).unwrap_or(false);
                if !inside {
                    raise_traced(
                        cb,
                        det,
                        AlarmKind::RangeCheck,
                        v,
                        ctx.cycles,
                        tele,
                        first_alarm_cycle,
                    );
                    cb.record_outlier(det, v);
                }
            }
        }
        HookKind::CheckEqual { detector } => {
            let det = *detector as usize;
            let lanes: Vec<u32> = ctx.active_lanes().collect();
            for lane in lanes {
                let a = ctx.args[0][lane as usize].as_numeric_f64();
                let b = ctx.args[1][lane as usize].as_numeric_f64();
                if a != b {
                    raise_traced(
                        cb,
                        det,
                        AlarmKind::TripCount,
                        a,
                        ctx.cycles,
                        tele,
                        first_alarm_cycle,
                    );
                }
            }
        }
        HookKind::ChecksumCheck => {
            let lanes: Vec<u32> = ctx.active_lanes().collect();
            for lane in lanes {
                let chk = ctx.args[0][lane as usize].to_bits();
                if chk != 0 {
                    raise_traced(
                        cb,
                        NON_LOOP_DETECTOR,
                        AlarmKind::Checksum,
                        chk as f64,
                        ctx.cycles,
                        tele,
                        first_alarm_cycle,
                    );
                }
            }
        }
        HookKind::NlMismatch => {
            // Reached only inside `if (orig != dup)`.
            raise_traced(
                cb,
                NON_LOOP_DETECTOR,
                AlarmKind::NlMismatch,
                0.0,
                ctx.cycles,
                tele,
                first_alarm_cycle,
            );
        }
        _ => {}
    }
}

/// Stamp the delivery cycle and emit [`Event::FaultInjected`] on the
/// not-delivered → delivered transition of `arm`.
fn trace_delivery(
    arm: &FaultArm,
    was_delivered: bool,
    cycle: u64,
    tele: &Telemetry,
    delivered_cycle: &mut Option<u64>,
) {
    if was_delivered || !arm.delivered() {
        return;
    }
    *delivered_cycle = Some(cycle);
    if let Some(f) = arm.fault() {
        tele.emit_with(|| Event::FaultInjected {
            site: f.site.to_string(),
            thread: f.thread,
            mask: f.mask,
            cycle,
        });
    }
}

/// The FI library: delivers one armed fault into the architecture state.
#[derive(Debug, Default)]
pub struct FiRuntime {
    /// Fault arming/delivery state.
    pub arm: FaultArm,
    /// Telemetry handle (disabled by default).
    pub tele: Telemetry,
    /// Work-cycle timestamp of fault delivery, if it was delivered.
    pub delivered_cycle: Option<u64>,
    /// Cycle stamp of the most recent hook dispatch — the delivery time of a
    /// register-file corruption, which is polled right after `on_hook`.
    last_hook_cycles: u64,
}

impl FiRuntime {
    /// Arm `fault`.
    pub fn new(fault: Option<ArmedFault>) -> Self {
        FiRuntime {
            arm: FaultArm::new(fault),
            ..Default::default()
        }
    }

    /// Attach a telemetry handle ([`Event::FaultInjected`] on delivery).
    pub fn with_telemetry(mut self, tele: Telemetry) -> Self {
        self.tele = tele;
        self
    }
}

impl HookRuntime for FiRuntime {
    fn on_hook(&mut self, hook: &Hook, ctx: &mut HookCtx<'_>) {
        self.last_hook_cycles = ctx.cycles;
        if matches!(hook.kind, HookKind::FiPoint { .. }) {
            let was = self.arm.delivered();
            self.arm.at_hook(hook.site, ctx);
            trace_delivery(
                &self.arm,
                was,
                ctx.cycles,
                &self.tele,
                &mut self.delivered_cycle,
            );
        }
    }

    fn on_loop_check(&mut self, loop_id: LoopId, ctx: &mut LoopCheckCtx<'_>) {
        let was = self.arm.delivered();
        self.arm.at_loop_check(loop_id, ctx);
        trace_delivery(
            &self.arm,
            was,
            ctx.cycles,
            &self.tele,
            &mut self.delivered_cycle,
        );
    }

    fn register_corruption(
        &mut self,
        hook: &Hook,
        first_thread: u32,
        active: u32,
    ) -> Option<hauberk_sim::RegCorruption> {
        if !matches!(hook.kind, HookKind::FiPoint { .. }) {
            return None;
        }
        let was = self.arm.delivered();
        let hit = self.arm.poll_register(hook.site, first_thread, active, 32);
        trace_delivery(
            &self.arm,
            was,
            self.last_hook_cycles,
            &self.tele,
            &mut self.delivered_cycle,
        );
        hit
    }

    /// The arm delivers on an exact `(site, thread, occurrence)` match and a
    /// thread executes only inside its own block, so once the target block
    /// has retired the arm can no longer influence the launch — its
    /// occurrence counts for *other* threads never trigger anything. The
    /// delivered flag and delivery cycle feed only the post-run classifier,
    /// so the remainder-relevant state is empty.
    fn state_fingerprint(&self) -> Option<u64> {
        Some(0)
    }
}

/// The FI&FT library: injects one fault *and* runs the FT detectors, for
/// measuring the error-detection coverage of the placed detectors.
#[derive(Debug, Default)]
pub struct FiFtRuntime {
    /// Fault arming/delivery state.
    pub arm: FaultArm,
    /// FT control block.
    pub cb: ControlBlock,
    /// Telemetry handle (disabled by default).
    pub tele: Telemetry,
    /// Work-cycle timestamp of fault delivery, if it was delivered.
    pub delivered_cycle: Option<u64>,
    /// Work-cycle timestamp of the first alarm this run, if any.
    pub first_alarm_cycle: Option<u64>,
    /// Cycle stamp of the most recent hook dispatch (see [`FiRuntime`]).
    last_hook_cycles: u64,
}

impl FiFtRuntime {
    /// Arm `fault` with the FT detectors configured from `cb`.
    pub fn new(fault: Option<ArmedFault>, cb: ControlBlock) -> Self {
        FiFtRuntime {
            arm: FaultArm::new(fault),
            cb,
            ..Default::default()
        }
    }

    /// Attach a telemetry handle ([`Event::FaultInjected`] on delivery,
    /// [`Event::DetectorFired`] per alarm).
    pub fn with_telemetry(mut self, tele: Telemetry) -> Self {
        self.tele = tele;
        self
    }

    /// Simulated cycles from fault delivery to the first detector alarm —
    /// the paper's detection latency. `None` when the fault was not
    /// delivered, no alarm fired, or the only alarms predate delivery
    /// (false positives).
    pub fn detection_latency(&self) -> Option<u64> {
        let d = self.delivered_cycle?;
        let a = self.first_alarm_cycle?;
        a.checked_sub(d)
    }
}

impl HookRuntime for FiFtRuntime {
    fn on_hook(&mut self, hook: &Hook, ctx: &mut HookCtx<'_>) {
        self.last_hook_cycles = ctx.cycles;
        match hook.kind {
            HookKind::FiPoint { .. } => {
                let was = self.arm.delivered();
                self.arm.at_hook(hook.site, ctx);
                trace_delivery(
                    &self.arm,
                    was,
                    ctx.cycles,
                    &self.tele,
                    &mut self.delivered_cycle,
                );
            }
            _ => ft_dispatch(
                &mut self.cb,
                hook,
                ctx,
                &self.tele,
                &mut self.first_alarm_cycle,
            ),
        }
    }

    fn on_loop_check(&mut self, loop_id: LoopId, ctx: &mut LoopCheckCtx<'_>) {
        let was = self.arm.delivered();
        self.arm.at_loop_check(loop_id, ctx);
        trace_delivery(
            &self.arm,
            was,
            ctx.cycles,
            &self.tele,
            &mut self.delivered_cycle,
        );
    }

    fn register_corruption(
        &mut self,
        hook: &Hook,
        first_thread: u32,
        active: u32,
    ) -> Option<hauberk_sim::RegCorruption> {
        if !matches!(hook.kind, HookKind::FiPoint { .. }) {
            return None;
        }
        let was = self.arm.delivered();
        let hit = self.arm.poll_register(hook.site, first_thread, active, 32);
        trace_delivery(
            &self.arm,
            was,
            self.last_hook_cycles,
            &self.tele,
            &mut self.delivered_cycle,
        );
        hit
    }

    /// The arm is inert after the target block (see [`FiRuntime`]); what can
    /// still influence the remainder is the FT side: the control block's
    /// mutable state (alarm dedup and the outlier cap read it) plus the
    /// first-alarm stamp (a later alarm only writes it if still unset). The
    /// delivery cycle is a post-run readout and stays excluded — it is
    /// always taken from the injection's own runtime, never spliced.
    fn state_fingerprint(&self) -> Option<u64> {
        let mut h = self.cb.run_state_fingerprint();
        h ^= self
            .first_alarm_cycle
            .map(|c| c.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1))
            .unwrap_or(0);
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranges::profile_ranges;
    use hauberk_kir::Value;

    fn mk_ctx<'a>(args: &'a [Vec<Value>]) -> HookCtx<'a> {
        HookCtx {
            block_id: 0,
            warp_id: 0,
            active: 0b1,
            warp_width: 1,
            first_thread: 0,
            cycles: 0,
            args,
            target: None,
        }
    }

    #[test]
    fn ft_range_check_raises_on_outlier() {
        let cb = ControlBlock::with_ranges(vec![profile_ranges(&[1.0, 2.0, 3.0])]);
        let mut ft = FtRuntime::new(cb);
        let hook = Hook {
            kind: HookKind::CheckRange { detector: 0 },
            site: 0,
            args: vec![],
            target: None,
        };
        let args = vec![vec![Value::F32(2.5)]];
        ft.on_hook(&hook, &mut mk_ctx(&args));
        assert!(!ft.cb.sdc_flag, "in-range value: no alarm");
        let args = vec![vec![Value::F32(1.0e9)]];
        ft.on_hook(&hook, &mut mk_ctx(&args));
        assert!(ft.cb.sdc_flag);
        assert_eq!(ft.cb.alarms.len(), 1);
        assert_eq!(ft.cb.outliers.len(), 1);
    }

    #[test]
    fn ft_trip_count_mismatch_raises() {
        let mut ft = FtRuntime::new(ControlBlock::with_ranges(vec![]));
        let hook = Hook {
            kind: HookKind::CheckEqual { detector: 0 },
            site: 0,
            args: vec![],
            target: None,
        };
        let args = vec![vec![Value::I32(10)], vec![Value::I32(10)]];
        ft.on_hook(&hook, &mut mk_ctx(&args));
        assert!(!ft.cb.sdc_flag);
        let args = vec![vec![Value::I32(9)], vec![Value::I32(10)]];
        ft.on_hook(&hook, &mut mk_ctx(&args));
        assert!(ft.cb.sdc_flag);
        assert_eq!(ft.cb.alarms[0].kind, AlarmKind::TripCount);
    }

    #[test]
    fn ft_checksum_nonzero_raises() {
        let mut ft = FtRuntime::default();
        let hook = Hook {
            kind: HookKind::ChecksumCheck,
            site: 0,
            args: vec![],
            target: None,
        };
        let args = vec![vec![Value::U32(0)]];
        ft.on_hook(&hook, &mut mk_ctx(&args));
        assert!(!ft.cb.sdc_flag);
        let args = vec![vec![Value::U32(0xDEAD)]];
        ft.on_hook(&hook, &mut mk_ctx(&args));
        assert!(ft.cb.sdc_flag);
        assert_eq!(ft.cb.alarms[0].kind, AlarmKind::Checksum);
    }

    #[test]
    fn nan_average_is_always_an_alarm() {
        let cb = ControlBlock::with_ranges(vec![profile_ranges(&[1.0])]);
        let mut ft = FtRuntime::new(cb);
        let hook = Hook {
            kind: HookKind::CheckRange { detector: 0 },
            site: 0,
            args: vec![],
            target: None,
        };
        let args = vec![vec![Value::F32(f32::NAN)]];
        ft.on_hook(&hook, &mut mk_ctx(&args));
        assert!(ft.cb.sdc_flag);
    }

    #[test]
    fn profiler_records_samples_and_counts() {
        let mut pr = ProfilerRuntime::default();
        let hook = Hook {
            kind: HookKind::Profile { detector: 2 },
            site: 5,
            args: vec![],
            target: None,
        };
        let args = vec![vec![Value::F32(7.5)]];
        pr.on_hook(&hook, &mut mk_ctx(&args));
        pr.on_hook(&hook, &mut mk_ctx(&args));
        assert_eq!(pr.samples(2), &[7.5, 7.5]);

        let count_hook = Hook {
            kind: HookKind::CountExec,
            site: 9,
            args: vec![],
            target: None,
        };
        let mut target = vec![Value::I32(42)];
        let args: Vec<Vec<Value>> = vec![];
        let mut ctx = HookCtx {
            block_id: 0,
            warp_id: 0,
            active: 1,
            warp_width: 1,
            first_thread: 3,
            cycles: 0,
            args: &args,
            target: Some(&mut target),
        };
        pr.on_hook(&count_hook, &mut ctx);
        assert_eq!(pr.total_execs(9), 1);
        assert_eq!(pr.sorted_execs(), vec![(9, 3, 1)]);
        assert_eq!(pr.site_samples[&9], vec![42.0]);
    }
}
