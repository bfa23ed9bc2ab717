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

/// Cap on recorded per-site value samples (Fig. 10 tracing).
pub const SITE_SAMPLE_CAP: usize = 8192;

/// The profiler library: records the averaged-accumulator samples the
/// FT build later range-checks, per-site execution counts (to enumerate and
/// weight fault-injection targets), and — when built with
/// [`ProfilerRuntime::with_site_samples`], as Fig. 10 is — per-site value
/// samples.
///
/// The records are dense but bounded by the work executed: a site keeps its
/// per-thread execution counters in pages of 32 consecutive global thread
/// ids, allocated only for threads that execute it, so a dispatch adds to
/// its lanes' counters with no hashing and memory is at most 32 counters
/// per executed (site, thread) pair. Sites, detectors and
/// a site's pages are kept in id order and found by binary search, a page
/// first by the site's last lookup (their ids come from the translator, or
/// from submitted KIR text, and a site's executing threads may be far
/// apart, so none is used as an index).
#[derive(Debug, Default)]
pub struct ProfilerRuntime {
    /// `(detector, samples of the averaged accumulator value)`, by detector.
    detectors: Vec<(u32, Vec<f64>)>,
    /// `(site, record)`, by site.
    sites: Vec<(SiteId, SiteRecord)>,
    /// Per-site value samples to keep: [`SITE_SAMPLE_CAP`] with
    /// [`ProfilerRuntime::with_site_samples`], else none.
    sample_cap: usize,
}

/// Threads per counter page: the widest warp (a lane mask is a `u32`), so
/// one warp dispatch touches at most two pages.
const PAGE: usize = 32;

/// What the profiler recorded at one `CountExec` site.
#[derive(Debug, Default)]
struct SiteRecord {
    /// Page numbers, ascending: page `pages[i]` holds the counters of
    /// global threads `pages[i] * PAGE..` in `counts[i]`.
    pages: Vec<u32>,
    /// Dynamic execution count per thread of each page (0 = a thread that
    /// never executed the site).
    counts: Vec<[u64; PAGE]>,
    /// Index of the page the last lookup found: a warp's next dispatch at
    /// the site, or the next warp's, is usually on it or the one after.
    hint: usize,
    /// Values of the defined variable, capped at [`SITE_SAMPLE_CAP`].
    samples: Vec<f64>,
}

impl SiteRecord {
    /// The counters of the page holding `thread`, added zeroed if absent.
    fn page(&mut self, thread: u32) -> &mut [u64; PAGE] {
        let page = thread / PAGE as u32;
        let h = self.hint;
        let i = if self.pages.get(h) == Some(&page) {
            h
        } else if self.pages.last() < Some(&page) {
            // Above every page (as throughout a site's first launch).
            self.pages.push(page);
            self.counts.push([0; PAGE]);
            self.pages.len() - 1
        } else if self.pages.get(h + 1) == Some(&page) {
            h + 1
        } else {
            match self.pages.binary_search(&page) {
                Ok(i) => i,
                Err(i) => {
                    self.pages.insert(i, page);
                    self.counts.insert(i, [0; PAGE]);
                    i
                }
            }
        };
        self.hint = i;
        &mut self.counts[i]
    }
}

/// The entry for `id` in `v` (sorted by id), inserted empty if absent.
fn entry<T: Default>(v: &mut Vec<(u32, T)>, id: u32) -> &mut T {
    let i = match v.binary_search_by_key(&id, |e| e.0) {
        Ok(i) => i,
        Err(i) => {
            v.insert(i, (id, T::default()));
            i
        }
    };
    &mut v[i].1
}

/// The entry for `id` in `v` (sorted by id).
fn find<T>(v: &[(u32, T)], id: u32) -> Option<&T> {
    v.binary_search_by_key(&id, |e| e.0).ok().map(|i| &v[i].1)
}

impl ProfilerRuntime {
    /// A profiler that also keeps up to [`SITE_SAMPLE_CAP`] value samples
    /// per site ([`ProfilerRuntime::site_samples`], Fig. 10). The default
    /// profiler keeps none: campaigns read only the execution counts and
    /// detector samples.
    pub fn with_site_samples() -> Self {
        ProfilerRuntime {
            sample_cap: SITE_SAMPLE_CAP,
            ..Default::default()
        }
    }

    /// Samples for detector `det` (empty slice if none).
    pub fn samples(&self, det: u32) -> &[f64] {
        find(&self.detectors, det).map_or(&[], |s| s.as_slice())
    }

    /// Value samples of `site`'s defined variable, in execution order and
    /// capped at [`SITE_SAMPLE_CAP`] (empty slice if none, and always empty
    /// unless built [`ProfilerRuntime::with_site_samples`]).
    pub fn site_samples(&self, site: SiteId) -> &[f64] {
        find(&self.sites, site).map_or(&[], |r| r.samples.as_slice())
    }

    /// Total dynamic executions of `site` across threads.
    pub fn total_execs(&self, site: SiteId) -> u64 {
        find(&self.sites, site).map_or(0, |r| r.counts.iter().flatten().sum())
    }

    /// Every `(site, thread, count)` execution record with a nonzero count,
    /// sorted by site and then thread: one site's threads are a contiguous
    /// run, so a caller looking up many sites (the campaign planner, once
    /// per planned injection) binary-searches. The records are kept in
    /// this order, so this is one walk with no sort.
    pub fn sorted_execs(&self) -> Vec<(SiteId, u32, u64)> {
        let mut execs = Vec::new();
        for (site, r) in &self.sites {
            for (page, counts) in r.pages.iter().zip(&r.counts) {
                execs.extend(
                    counts
                        .iter()
                        .zip(page * PAGE as u32..)
                        .filter(|(&c, _)| c > 0)
                        .map(|(&c, t)| (*site, t, c)),
                );
            }
        }
        execs
    }
}

impl HookRuntime for ProfilerRuntime {
    fn on_hook(&mut self, hook: &Hook, ctx: &mut HookCtx<'_>) {
        let active = ctx.active;
        // No lane to record (and no lowest lane to start from).
        if active == 0 {
            return;
        }
        match &hook.kind {
            HookKind::Profile { detector } => {
                let samples = entry(&mut self.detectors, *detector);
                for lane in ctx.active_lanes() {
                    samples.push(ctx.arg(0, lane).as_numeric_f64());
                }
            }
            HookKind::CountExec => {
                let r = entry(&mut self.sites, hook.site);
                let lo = active.trailing_zeros();
                // One page at a time: the active lanes from the lowest left
                // up to the end of its thread's page (a warp spans two
                // pages at most).
                let mut m = active;
                while m != 0 {
                    let first = m.trailing_zeros();
                    let t = ctx.thread_of(first);
                    let off = t as usize % PAGE;
                    let on_page = m & (((1u64 << (PAGE - off)) - 1) << first) as u32;
                    m &= !on_page;
                    let counts = r.page(t);
                    let mut p = on_page;
                    while p != 0 {
                        counts[off + (p.trailing_zeros() - first) as usize] += 1;
                        p &= p - 1;
                    }
                }
                // The first active lanes' target values, up to the cap.
                let room = self.sample_cap - r.samples.len();
                if room > 0 && ctx.target(lo).is_some() {
                    let mut m = active;
                    for _ in 0..room.min(active.count_ones() as usize) {
                        let lane = m.trailing_zeros();
                        m &= m - 1;
                        let v = ctx.target(lane).expect("the hook has a target");
                        r.samples.push(v.as_numeric_f64());
                    }
                }
            }
            _ => {}
        }
    }

    fn observes_hook(&self, hook: &Hook) -> bool {
        matches!(hook.kind, HookKind::Profile { .. } | HookKind::CountExec)
    }

    fn observes_loop(&self, _loop_id: LoopId) -> bool {
        false
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

    fn observes_hook(&self, hook: &Hook) -> bool {
        is_ft_kind(&hook.kind)
    }

    fn observes_loop(&self, _loop_id: LoopId) -> bool {
        false
    }
}

/// Whether `kind` is one of the FT library's checks ([`ft_dispatch`] acts
/// on exactly these).
fn is_ft_kind(kind: &HookKind) -> bool {
    matches!(
        kind,
        HookKind::CheckRange { .. }
            | HookKind::CheckEqual { .. }
            | HookKind::ChecksumCheck
            | HookKind::NlMismatch
    )
}

/// Whether `arm` can act at `hook`: an FI point at the armed hook site.
fn arm_observes(arm: &FaultArm, hook: &Hook) -> bool {
    matches!(hook.kind, HookKind::FiPoint { .. }) && arm.arms_hook(hook.site)
}

/// Whether `arm` can no longer act at `hooks` or the checks of `loops`:
/// it has delivered its one fault, or none of them is its armed site.
fn arm_inert_within(arm: &FaultArm, hooks: &[Hook], loops: &[LoopId]) -> bool {
    arm.delivered()
        || (!hooks.iter().any(|h| arm_observes(arm, h)) && !loops.iter().any(|&l| arm.arms_loop(l)))
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
            for lane in ctx.active_lanes() {
                let v = ctx.arg(0, lane).as_numeric_f64();
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
            for lane in ctx.active_lanes() {
                let a = ctx.arg(0, lane).as_numeric_f64();
                let b = ctx.arg(1, lane).as_numeric_f64();
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
            for lane in ctx.active_lanes() {
                let chk = ctx.arg(0, lane).to_bits();
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
    /// Cycle stamp of the most recent dispatch of the armed hook site — the
    /// delivery time of a register-file corruption, which is polled right
    /// after `on_hook` and can only fire there.
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
        if arm_observes(&self.arm, hook) {
            self.last_hook_cycles = ctx.cycles;
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

    /// Only FI points at the armed site: one injection arms one (site,
    /// thread, occurrence), so every other hook is a no-op. With no armed
    /// fault nothing is observed.
    fn observes_hook(&self, hook: &Hook) -> bool {
        arm_observes(&self.arm, hook)
    }

    fn observes_loop(&self, loop_id: LoopId) -> bool {
        self.arm.arms_loop(loop_id)
    }

    /// The arm delivers once, so once delivered it is inert everywhere;
    /// before that it is inert at what its interest filter leaves out.
    fn inert_within(&self, hooks: &[Hook], loops: &[LoopId]) -> bool {
        arm_inert_within(&self.arm, hooks, loops)
    }

    fn register_corruption(
        &mut self,
        hook: &Hook,
        first_thread: u32,
        active: u32,
    ) -> Option<hauberk_sim::RegCorruption> {
        if !arm_observes(&self.arm, hook) {
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
    /// Cycle stamp of the most recent dispatch of the armed hook site (see
    /// [`FiRuntime`]).
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
        if arm_observes(&self.arm, hook) {
            self.last_hook_cycles = ctx.cycles;
            let was = self.arm.delivered();
            self.arm.at_hook(hook.site, ctx);
            trace_delivery(
                &self.arm,
                was,
                ctx.cycles,
                &self.tele,
                &mut self.delivered_cycle,
            );
        } else {
            ft_dispatch(
                &mut self.cb,
                hook,
                ctx,
                &self.tele,
                &mut self.first_alarm_cycle,
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

    /// The armed FI site (see [`FiRuntime`]) plus every FT check.
    fn observes_hook(&self, hook: &Hook) -> bool {
        is_ft_kind(&hook.kind) || arm_observes(&self.arm, hook)
    }

    fn observes_loop(&self, loop_id: LoopId) -> bool {
        self.arm.arms_loop(loop_id)
    }

    /// Never across an FT check, which may raise an alarm; otherwise as for
    /// [`FiRuntime`].
    fn inert_within(&self, hooks: &[Hook], loops: &[LoopId]) -> bool {
        !hooks.iter().any(|h| is_ft_kind(&h.kind)) && arm_inert_within(&self.arm, hooks, loops)
    }

    fn register_corruption(
        &mut self,
        hook: &Hook,
        first_thread: u32,
        active: u32,
    ) -> Option<hauberk_sim::RegCorruption> {
        if !arm_observes(&self.arm, hook) {
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
    use hauberk_kir::{HwComponent, Value};
    use hauberk_sim::fault::FaultSite;
    use hauberk_sim::{Lanes, NullRuntime};

    fn mk_ctx<'a>(args: &'a [Vec<Value>]) -> HookCtx<'a> {
        HookCtx {
            block_id: 0,
            warp_id: 0,
            active: 0b1,
            warp_width: 1,
            first_thread: 0,
            cycles: 0,
            lanes: Lanes::values(args, None),
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
        let mut pr = ProfilerRuntime::with_site_samples();
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
            lanes: Lanes::values(&args, Some(&mut target)),
        };
        pr.on_hook(&count_hook, &mut ctx);
        assert_eq!(pr.total_execs(9), 1);
        assert_eq!(pr.sorted_execs(), vec![(9, 3, 1)]);
        assert_eq!(pr.site_samples(9), &[42.0]);

        // The default profiler counts the same but keeps no site samples.
        let mut plain = ProfilerRuntime::default();
        plain.on_hook(&count_hook, &mut ctx);
        assert_eq!(plain.sorted_execs(), vec![(9, 3, 1)]);
        assert_eq!(plain.site_samples(9), &[] as &[f64]);
    }

    /// The paged records against a map model: sites first seen out of
    /// order, warps with gaps in their masks, and a later launch whose
    /// threads lie below every recorded one all come out as the sorted
    /// `(site, thread, count)` records of the executed pairs; a site's
    /// samples stop at the cap.
    #[test]
    fn profiler_records_match_a_map_model() {
        let mut pr = ProfilerRuntime::with_site_samples();
        let mut model = std::collections::BTreeMap::new();
        let count_hook = |site| Hook {
            kind: HookKind::CountExec,
            site,
            args: vec![],
            target: None,
        };
        let dispatches = [
            (9, 64, 0b1011u32),
            (2, 64, 0b0110),
            (9, 68, 0b0001),
            (5, 0, 0b1000),
            (9, 4, 0b1111),
            (2, 64, 0b0110),
        ];
        for (site, first_thread, active) in dispatches {
            let mut target = vec![Value::I32(site as i32); 4];
            let mut ctx = HookCtx {
                block_id: 0,
                warp_id: 0,
                active,
                warp_width: 4,
                first_thread,
                cycles: 0,
                lanes: Lanes::values(&[], Some(&mut target)),
            };
            pr.on_hook(&count_hook(site), &mut ctx);
            for lane in 0..4 {
                if active & (1 << lane) != 0 {
                    *model.entry((site, first_thread + lane)).or_insert(0u64) += 1;
                }
            }
        }
        let want: Vec<_> = model.iter().map(|(&(s, t), &c)| (s, t, c)).collect();
        assert_eq!(pr.sorted_execs(), want);
        assert_eq!(pr.total_execs(9), 8);
        assert_eq!(pr.total_execs(3), 0);
        assert_eq!(pr.site_samples(2), &[2.0; 4]);
        assert_eq!(pr.site_samples(3), &[] as &[f64]);

        let mut pr = ProfilerRuntime::with_site_samples();
        for i in 0..SITE_SAMPLE_CAP / 2 + 1 {
            let mut target = vec![Value::F32(i as f32), Value::F32(-(i as f32))];
            let mut ctx = HookCtx {
                block_id: 0,
                warp_id: 0,
                active: 0b11,
                warp_width: 2,
                first_thread: 0,
                cycles: 0,
                lanes: Lanes::values(&[], Some(&mut target)),
            };
            pr.on_hook(&count_hook(1), &mut ctx);
        }
        let samples = pr.site_samples(1);
        assert_eq!(samples.len(), SITE_SAMPLE_CAP);
        assert_eq!(
            samples[SITE_SAMPLE_CAP - 1],
            -((SITE_SAMPLE_CAP / 2 - 1) as f64)
        );
        assert_eq!(pr.total_execs(1), SITE_SAMPLE_CAP as u64 + 2);
    }

    /// A site executed only by threads far apart (a submitted kernel's
    /// `if (tid == 0 || tid == 65535)`) keeps two pages, not a counter per
    /// thread between them; the records are the two executed pairs, also
    /// when a later launch runs the low thread again, and a warp that
    /// straddles a page boundary counts on both pages.
    #[test]
    fn sparse_site_keeps_only_executed_pages() {
        let mut pr = ProfilerRuntime::default();
        let count_hook = Hook {
            kind: HookKind::CountExec,
            site: 7,
            args: vec![],
            target: None,
        };
        for first_thread in [0, 65535, 0] {
            let mut target = vec![Value::I32(1)];
            let mut ctx = HookCtx {
                block_id: 0,
                warp_id: 0,
                active: 1,
                warp_width: 1,
                first_thread,
                cycles: 0,
                lanes: Lanes::values(&[], Some(&mut target)),
            };
            pr.on_hook(&count_hook, &mut ctx);
        }
        assert_eq!(pr.sorted_execs(), vec![(7, 0, 2), (7, 65535, 1)]);
        assert_eq!(pr.total_execs(7), 3);
        assert_eq!(pr.sites[0].1.pages.len(), 2);

        let mut target = vec![Value::I32(1); 32];
        let mut ctx = HookCtx {
            block_id: 0,
            warp_id: 1,
            active: 1 | 1 << 31,
            warp_width: 32,
            first_thread: 48,
            cycles: 0,
            lanes: Lanes::values(&[], Some(&mut target)),
        };
        pr.on_hook(&count_hook, &mut ctx);
        assert_eq!(
            pr.sorted_execs(),
            vec![(7, 0, 2), (7, 48, 1), (7, 79, 1), (7, 65535, 1)]
        );
        assert_eq!(pr.sites[0].1.pages.len(), 4);
    }

    /// The state the interest-filter contract pins, per runtime: the arm's
    /// delivered flag and the number of alarms raised (where it has them).
    trait Probe: HookRuntime + std::fmt::Debug {
        fn probe(&self) -> (bool, usize) {
            (false, 0)
        }
    }
    impl Probe for NullRuntime {}
    impl Probe for ProfilerRuntime {}
    impl Probe for FtRuntime {
        fn probe(&self) -> (bool, usize) {
            (false, self.cb.alarms.len())
        }
    }
    impl Probe for FiRuntime {
        fn probe(&self) -> (bool, usize) {
            (self.arm.delivered(), 0)
        }
    }
    impl Probe for FiFtRuntime {
        fn probe(&self) -> (bool, usize) {
            (self.arm.delivered(), self.cb.alarms.len())
        }
    }

    /// Every hook kind at the armed site (3) and at another site (4).
    fn every_hook() -> Vec<Hook> {
        let kinds = [
            HookKind::FiPoint {
                hw: HwComponent::IAlu,
            },
            HookKind::Profile { detector: 0 },
            HookKind::CountExec,
            HookKind::CheckRange { detector: 0 },
            HookKind::CheckEqual { detector: 0 },
            HookKind::ChecksumCheck,
            HookKind::NlMismatch,
        ];
        [3, 4]
            .into_iter()
            .flat_map(|site| {
                kinds.iter().map(move |kind| Hook {
                    kind: kind.clone(),
                    site,
                    args: vec![],
                    target: None,
                })
            })
            .collect()
    }

    /// No fault, and every `FaultSite` variant armed at hook site / loop 3
    /// against thread 1's first occurrence — a fault that would deliver at
    /// the first dispatch it is handed.
    fn every_fault() -> Vec<Option<ArmedFault>> {
        let sites = [
            FaultSite::HookTarget { site: 3 },
            FaultSite::RegisterLive { site: 3, var: 0 },
            FaultSite::LoopIterator { loop_id: 3 },
            FaultSite::LoopDecision { loop_id: 3 },
        ];
        std::iter::once(None)
            .chain(sites.into_iter().map(|site| {
                Some(ArmedFault {
                    site,
                    thread: 1,
                    occurrence: 1,
                    mask: 0x8000_0001,
                })
            }))
            .collect()
    }

    /// Drive every hook and loop `rt` does not observe with inputs that
    /// would make any runtime act (armed thread active, out-of-range and
    /// mismatching check arguments, a nonzero checksum) and check that the
    /// callbacks changed nothing. Returns how many points `rt` observes.
    fn check_unobserved_are_inert<R: Probe>(label: &str, mut rt: R) -> usize {
        let state = |rt: &R| (format!("{rt:?}"), rt.probe(), rt.state_fingerprint());
        let before = state(&rt);
        let mut observed = 0;
        for hook in every_hook() {
            if rt.observes_hook(&hook) {
                observed += 1;
                continue;
            }
            let args = vec![vec![Value::F32(1.0e9); 2], vec![Value::F32(0.0); 2]];
            let mut target = vec![Value::I32(5); 2];
            let mut ctx = HookCtx {
                block_id: 0,
                warp_id: 0,
                active: 0b11,
                warp_width: 2,
                first_thread: 0,
                cycles: 77,
                lanes: Lanes::values(&args, Some(&mut target)),
            };
            rt.on_hook(&hook, &mut ctx);
            assert_eq!(target, vec![Value::I32(5); 2], "{label}: {hook:?} target");
            assert_eq!(
                rt.register_corruption(&hook, 0, 0b11),
                None,
                "{label}: {hook:?} register corruption"
            );
            assert_eq!(state(&rt), before, "{label}: {hook:?} runtime state");
        }
        for loop_id in [3, 4] {
            if rt.observes_loop(loop_id) {
                observed += 1;
                continue;
            }
            let mut iter = vec![Value::I32(7); 2];
            let mut cond = 0b01;
            let mut ctx = LoopCheckCtx {
                block_id: 0,
                warp_id: 0,
                active: 0b11,
                warp_width: 2,
                first_thread: 0,
                cycles: 77,
                iteration: 0,
                lanes: Lanes::values(&[], Some(&mut iter)),
                cond_mask: &mut cond,
            };
            rt.on_loop_check(loop_id, &mut ctx);
            assert_eq!(
                iter,
                vec![Value::I32(7); 2],
                "{label}: loop {loop_id} iterator"
            );
            assert_eq!(cond, 0b01, "{label}: loop {loop_id} cond mask");
            assert_eq!(state(&rt), before, "{label}: loop {loop_id} runtime state");
        }
        observed
    }

    /// The composition half of the `state_fingerprint` contract: the two
    /// runtimes a checkpoint store uses change nothing the launch or the
    /// classifier sees when a thread outside the armed one's block hits any
    /// hook or loop with values an alarm-free reference produces (in-range
    /// and matching check arguments, a zero checksum). `NlMismatch` is
    /// left out: it sits inside `if (orig != dup)`, which reference values
    /// never enter.
    #[test]
    fn fingerprinting_runtimes_are_inert_for_other_blocks_at_reference_values() {
        fn check<R: Probe>(label: &str, mut rt: R) {
            assert!(rt.state_fingerprint().is_some(), "{label} opts in");
            let state = |rt: &R| (rt.probe(), rt.state_fingerprint());
            let before = state(&rt);
            let hooks = every_hook().into_iter();
            for hook in hooks.filter(|h| h.kind != HookKind::NlMismatch) {
                let v = match hook.kind {
                    HookKind::ChecksumCheck => Value::I32(0),
                    _ => Value::F32(1.5),
                };
                let args = vec![vec![v; 2], vec![v; 2]];
                let mut target = vec![Value::I32(5); 2];
                let mut ctx = HookCtx {
                    block_id: 1,
                    warp_id: 0,
                    active: 0b11,
                    warp_width: 2,
                    first_thread: 32,
                    cycles: 77,
                    lanes: Lanes::values(&args, Some(&mut target)),
                };
                rt.on_hook(&hook, &mut ctx);
                assert_eq!(target, vec![Value::I32(5); 2], "{label}: {hook:?} target");
                assert_eq!(rt.register_corruption(&hook, 32, 0b11), None, "{label}");
                assert_eq!(state(&rt), before, "{label}: {hook:?} runtime state");
            }
            for loop_id in [3, 4] {
                let mut iter = vec![Value::I32(7); 2];
                let mut cond = 0b01;
                rt.on_loop_check(
                    loop_id,
                    &mut LoopCheckCtx {
                        block_id: 1,
                        warp_id: 0,
                        active: 0b11,
                        warp_width: 2,
                        first_thread: 32,
                        cycles: 77,
                        iteration: 0,
                        lanes: Lanes::values(&[], Some(&mut iter)),
                        cond_mask: &mut cond,
                    },
                );
                assert_eq!((iter, cond), (vec![Value::I32(7); 2], 0b01), "{label}");
                assert_eq!(state(&rt), before, "{label}: loop {loop_id} state");
            }
        }
        let cb = || ControlBlock::with_ranges(vec![profile_ranges(&[1.0, 2.0])]);
        for fault in every_fault() {
            check(&format!("fi {fault:?}"), FiRuntime::new(fault));
            check(&format!("fi&ft {fault:?}"), FiFtRuntime::new(fault, cb()));
        }
    }

    #[test]
    fn unobserved_hooks_and_loops_are_inert() {
        let cb = || ControlBlock::with_ranges(vec![profile_ranges(&[1.0, 2.0])]);
        assert_eq!(check_unobserved_are_inert("null", NullRuntime), 0);
        // Profile and CountExec at both sites.
        assert_eq!(
            check_unobserved_are_inert("profiler", ProfilerRuntime::default()),
            4
        );
        // The four FT checks at both sites.
        assert_eq!(check_unobserved_are_inert("ft", FtRuntime::new(cb())), 8);
        for fault in every_fault() {
            // One point for an armed fault (FI point at site 3, or loop 3).
            let armed = usize::from(fault.is_some());
            let fi = check_unobserved_are_inert(&format!("fi {fault:?}"), FiRuntime::new(fault));
            assert_eq!(fi, armed, "fi {fault:?}");
            let fift = FiFtRuntime::new(fault, cb());
            let n = check_unobserved_are_inert(&format!("fi&ft {fault:?}"), fift);
            assert_eq!(n, 8 + armed, "fi&ft {fault:?}");
        }
    }

    /// A counted, memory-free loop with an FI point in its body (and, with
    /// `ft`, an FT range check), launched in one warp under a small budget.
    fn hang_launch(bound: &str, ft: bool, rt: &mut dyn HookRuntime) -> hauberk_sim::LaunchOutcome {
        use hauberk_sim::{Device, Launch};
        let check = if ft {
            "@check_range(site=1, det=0, x);"
        } else {
            ""
        };
        let k = hauberk_kir::parser::parse_kernel(&format!(
            "kernel k(out: *global i32) {{
                let x: i32 = 0;
                for (s = 0; s {bound}; s = s + 1) {{
                    x = x * 3 + 1;
                    @fi_point(site=0, hw=ALU, target=x);
                    {check}
                }}
                store(out, 0, x);
            }}"
        ))
        .unwrap();
        let mut dev = Device::small_gpu();
        let out = dev.alloc(hauberk_kir::PrimTy::I32, 1);
        let launch = Launch::grid1d(1, 32).with_budget(50_000);
        dev.launch(&k, &[Value::Ptr(out)], &launch, rt)
    }

    fn certified(out: &hauberk_sim::LaunchOutcome) -> Option<bool> {
        match out {
            hauberk_sim::LaunchOutcome::Hang { stats, certified } => {
                assert_eq!(stats.work_cycles, 50_000, "a hang charges the whole budget");
                Some(*certified)
            }
            _ => None,
        }
    }

    #[test]
    fn hang_certificates_need_an_inert_runtime() {
        let fault = |site, occurrence| {
            Some(ArmedFault {
                site,
                thread: 0,
                occurrence,
                mask: 1 << 31,
            })
        };
        let sign_flip = fault(FaultSite::LoopIterator { loop_id: 0 }, 3);
        let cb = || ControlBlock::with_ranges(vec![profile_ranges(&[0.0, 1e9])]);
        // The flipped iterator leaves ~2³¹ iterations; the delivered arm is
        // inert, so the hang is certified.
        let mut fi = FiRuntime::new(sign_flip);
        assert_eq!(certified(&hang_launch("< 8", false, &mut fi)), Some(true));
        assert!(fi.arm.delivered());
        let mut fift = FiFtRuntime::new(sign_flip, cb());
        assert_eq!(certified(&hang_launch("< 8", false, &mut fift)), Some(true));
        // An FT check in the body may still raise an alarm: refused.
        let mut fift = FiFtRuntime::new(sign_flip, cb());
        assert_eq!(certified(&hang_launch("< 8", true, &mut fift)), Some(false));
        // An arm in the body that has not delivered yet: refused until it
        // delivers, then certified at the next power-of-two iteration.
        let late = fault(FaultSite::HookTarget { site: 0 }, 1_000_000);
        let mut fi = FiRuntime::new(late);
        assert_eq!(
            certified(&hang_launch("<= 2147483647", false, &mut fi)),
            Some(false)
        );
        let early = fault(FaultSite::HookTarget { site: 0 }, 5);
        let mut fi = FiRuntime::new(early);
        assert_eq!(
            certified(&hang_launch("<= 2147483647", false, &mut fi)),
            Some(true)
        );
        assert!(fi.arm.delivered());
        // An arm elsewhere leaves the loop inert from the start.
        let elsewhere = fault(FaultSite::HookTarget { site: 7 }, 1);
        let mut fi = FiRuntime::new(elsewhere);
        assert_eq!(
            certified(&hang_launch("<= 2147483647", false, &mut fi)),
            Some(true)
        );
    }
}
