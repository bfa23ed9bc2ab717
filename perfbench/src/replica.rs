//! A campaign rebuilt from the layers' public calls, with a span around
//! each call.
//!
//! The replica runs the orchestrator's algorithm one injection at a time:
//! setup is `build_kernel`, `golden_run`, `builds::build`,
//! `profile_program` and `plan_campaign` (plus `Device::capture_launch` for
//! a checkpointed campaign); each injection is `Device::new` +
//! `HostProgram::setup`, `ExecBackend::prepare`, `Device::launch` (or
//! `Device::resume_spliced`), `read_output` and `classify`. It must produce
//! the orchestrator's records and simulated cycles exactly, which is what
//! makes its spans a faithful per-layer split of a campaign.
//!
//! Its one addition is the explicit `ExecBackend::prepare` of a full
//! injection, which `Device::launch` repeats internally; the `sim.prepare`
//! spans are therefore excluded when the replica is compared with the
//! orchestrator's wall time.

use crate::trace::Recorder;
use hauberk::builds::{build, BuildVariant, FtOptions};
use hauberk::control::{ControlBlock, NON_LOOP_DETECTOR};
use hauberk::program::{golden_run, CorrectnessSpec, HostProgram};
use hauberk::ranges::RangeSet;
use hauberk::runtime::{FiFtRuntime, FiRuntime};
use hauberk_kir::KernelDef;
use hauberk_serve::JobSpec;
use hauberk_sim::{
    ArmedFault, Device, DeviceConfig, HookRuntime, Launch, LaunchOutcome, NullRuntime, Snapshot,
    Spliced,
};
use hauberk_swifi::campaign::{profile_program, watchdog_budget, CampaignKind};
use hauberk_swifi::classify::classify;
use hauberk_swifi::journal::RecordedInjection;
use hauberk_swifi::plan::{plan_campaign, InjectionPlan};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Trained ranges and detector variables of a coverage campaign.
#[derive(Clone)]
struct Coverage {
    ranges: Vec<RangeSet>,
    det_vars: Vec<String>,
}

/// The hook runtime of one injection, for either campaign kind.
enum Runtime {
    Fi(FiRuntime),
    FiFt(FiFtRuntime),
}

impl Runtime {
    fn new(cov: Option<&Coverage>, fault: Option<ArmedFault>) -> Runtime {
        match cov {
            None => Runtime::Fi(FiRuntime::new(fault)),
            Some(c) => Runtime::FiFt(FiFtRuntime::new(
                fault,
                ControlBlock::with_ranges(c.ranges.clone()).with_detector_vars(c.det_vars.clone()),
            )),
        }
    }

    fn hooks(&mut self) -> &mut dyn HookRuntime {
        match self {
            Runtime::Fi(rt) => rt,
            Runtime::FiFt(rt) => rt,
        }
    }

    /// Whether a fault-free run of a coverage build raised any detector
    /// state, which makes the checkpoint store ineligible.
    fn raised_alarms(&self) -> bool {
        match self {
            Runtime::Fi(_) => false,
            Runtime::FiFt(rt) => {
                rt.cb.sdc_flag
                    || !rt.cb.alarms.is_empty()
                    || !rt.cb.outliers.is_empty()
                    || rt.first_alarm_cycle.is_some()
            }
        }
    }

    /// Classify the run and build its journal record.
    fn record(
        &self,
        index: usize,
        outcome: &LaunchOutcome,
        output: Option<&[f64]>,
        env: &Env,
    ) -> RecordedInjection {
        match self {
            Runtime::Fi(rt) => RecordedInjection {
                index: index as u64,
                outcome: classify(outcome, output, &env.golden, &env.spec, false),
                delivered: rt.arm.delivered(),
                latency: None,
                alarms: vec![],
            },
            Runtime::FiFt(rt) => RecordedInjection {
                index: index as u64,
                outcome: classify(outcome, output, &env.golden, &env.spec, rt.cb.sdc_flag),
                delivered: rt.arm.delivered(),
                latency: rt.detection_latency(),
                alarms: rt
                    .cb
                    .alarms
                    .iter()
                    .map(|a| match a.detector {
                        NON_LOOP_DETECTOR => "nl".to_string(),
                        d => d.to_string(),
                    })
                    .collect(),
            },
        }
    }
}

/// What every injection of a campaign shares.
pub struct Env {
    /// The build under test (FI, or FI&FT for coverage).
    pub kernel: KernelDef,
    /// Device configuration of the injection runs.
    pub config: DeviceConfig,
    golden: Vec<f64>,
    spec: CorrectnessSpec,
    cov: Option<Coverage>,
    plans: Vec<InjectionPlan>,
    launch: Launch,
    dataset: u64,
}

/// The reference state a checkpointed injection resumes from.
struct Store {
    args: Vec<hauberk_kir::Value>,
    snapshots: BTreeMap<u32, Snapshot>,
    fences: BTreeMap<u32, u64>,
    outcome: LaunchOutcome,
    output: Vec<f64>,
    tpb: u32,
}

/// Simulation counts of one replica pass.
#[derive(Debug, Default)]
pub struct Counts {
    /// Work cycles simulated, counted as the orchestrator counts them.
    pub sim_cycles: u64,
    /// Injections resumed from the checkpoint store.
    pub resumed: u64,
    /// Of those, injections that reconverged and spliced the reference tail.
    pub spliced: u64,
}

/// Output of one replica pass.
pub struct Replica {
    /// Records in plan order, as the orchestrator journals them.
    pub records: Vec<RecordedInjection>,
    /// Simulation counts.
    pub counts: Counts,
    /// `(recorded, unrecorded)` wall ns of each injection of a paired pass.
    pub paired: Vec<(u64, u64)>,
    /// The campaign's shared state, for follow-up measurements.
    pub env: Env,
}

/// Run the campaign `spec` describes (checkpointed when `checkpoint`),
/// recording spans under owner `id`; `paired` also runs every injection
/// with the recorder off (see [`Replica::paired`]).
pub fn run(
    spec: &JobSpec,
    checkpoint: bool,
    rec: &mut Recorder,
    id: u64,
    paired: bool,
) -> Result<Replica, String> {
    let prog = spec.build_program()?;
    let prog = prog.as_ref();
    let cfg = spec.campaign_config();
    let ft = match spec.campaign_kind() {
        CampaignKind::Coverage(ft) => Some(ft),
        CampaignKind::Sensitivity => None,
    };
    rec.enter("campaign", id);

    let (base, _) = rec.time("benchmarks.kernel", id, || prog.build_kernel());
    let ((golden, golden_cycles), _) =
        rec.time("core.golden", id, || golden_run(prog, cfg.dataset));
    let variant = BuildVariant::Profiler(ft.unwrap_or_else(FtOptions::default));
    let (profiler, _) = rec.time("core.build", id, || build(&base, variant));
    let profiler = profiler.map_err(|e| format!("profiler build: {e:?}"))?;
    let ((ranges, profile), _) = rec.time("swifi.profile", id, || {
        profile_program(prog, &profiler, &[cfg.dataset])
    });
    let variant = ft.map_or(BuildVariant::Fi, BuildVariant::FiFt);
    let (under_test, _) = rec.time("core.build", id, || build(&base, variant));
    let under_test = under_test.map_err(|e| format!("build under test: {e:?}"))?;
    let (plans, _) = rec.time("swifi.plan", id, || {
        plan_campaign(
            &under_test.fi,
            &profile,
            &cfg.plan,
            &mut SmallRng::seed_from_u64(cfg.seed),
        )
    });
    let mut config = prog.device_config();
    if let Some(e) = cfg.engine {
        config.engine = e;
    }
    let env = Env {
        cov: ft.map(|_| Coverage {
            ranges,
            det_vars: under_test
                .detectors
                .iter()
                .map(|d| d.var_name.clone())
                .collect(),
        }),
        kernel: under_test.kernel,
        config,
        golden,
        spec: prog.spec(),
        plans,
        launch: prog
            .launch()
            .with_budget(watchdog_budget(golden_cycles, cfg.watchdog_factor)),
        dataset: cfg.dataset,
    };

    let mut out = Replica {
        records: Vec::with_capacity(env.plans.len()),
        counts: Counts::default(),
        paired: Vec::new(),
        env,
    };
    let store = if checkpoint {
        capture(prog, &out.env, rec, id, &mut out.counts)
    } else {
        None
    };
    // With `paired`, every injection also runs once with a disabled
    // recorder, back to back with the recorded run and alternating which
    // goes first, so the recorder's cost is measured on identical work.
    let mut silent = Recorder::new(false);
    for i in 0..out.env.plans.len() {
        let unrecorded = |silent: &mut Recorder| {
            let t = Instant::now();
            let mut uncounted = Counts::default();
            inject(
                prog,
                &out.env,
                store.as_ref(),
                &mut uncounted,
                i,
                silent,
                id,
            )
            .map(|r| (r, t.elapsed().as_nanos() as u64))
        };
        let before = if paired && i % 2 == 1 {
            Some(unrecorded(&mut silent)?)
        } else {
            None
        };
        let t = Instant::now();
        rec.enter("injection", id);
        let r = inject(prog, &out.env, store.as_ref(), &mut out.counts, i, rec, id)?;
        rec.exit();
        let on_ns = t.elapsed().as_nanos() as u64;
        let after = if paired && i % 2 == 0 {
            Some(unrecorded(&mut silent)?)
        } else {
            None
        };
        if let Some((off, off_ns)) = before.or(after) {
            if off != r {
                return Err(format!("replica injection {i} is not deterministic"));
            }
            out.paired.push((on_ns, off_ns));
        }
        out.records.push(r);
    }
    rec.exit();
    Ok(out)
}

/// Injection `i`: resumed from the checkpoint store when it covers the
/// target block, fully re-executed otherwise.
fn inject(
    prog: &dyn HostProgram,
    env: &Env,
    store: Option<&Store>,
    counts: &mut Counts,
    i: usize,
    rec: &mut Recorder,
    id: u64,
) -> Result<RecordedInjection, String> {
    match store {
        Some(s)
            if s.snapshots
                .contains_key(&(env.plans[i].fault.thread / s.tpb)) =>
        {
            resume_one(prog, env, counts, s, i, rec, id)
        }
        _ => Ok(launch_one(prog, env, counts, i, rec, id)),
    }
}

/// The fault-free reference pass of a checkpointed campaign; `None` when
/// the campaign is ineligible (the orchestrator then re-executes fully).
fn capture(
    prog: &dyn HostProgram,
    env: &Env,
    rec: &mut Recorder,
    id: u64,
    counts: &mut Counts,
) -> Option<Store> {
    let tpb = env.launch.threads_per_block();
    let total = env.launch.total_blocks();
    let boundaries: BTreeSet<u32> = env
        .plans
        .iter()
        .map(|p| p.fault.thread / tpb)
        .filter(|b| *b < total)
        .collect();
    let fences: Vec<u32> = boundaries
        .iter()
        .map(|b| b + 1)
        .filter(|f| *f < total)
        .collect();
    let boundaries: Vec<u32> = boundaries.into_iter().collect();
    if boundaries.is_empty() {
        return None;
    }
    let mut dev = Device::new(env.config.clone());
    let (args, _) = rec.time("benchmarks.setup", id, || prog.setup(&mut dev, env.dataset));
    let mut rt = Runtime::new(env.cov.as_ref(), None);
    let (cap, _) = rec.time("sim.capture", id, || {
        dev.capture_launch(
            &env.kernel,
            &args,
            &env.launch,
            rt.hooks(),
            &boundaries,
            &fences,
        )
    });
    if rt.raised_alarms() || !cap.outcome.is_completed() {
        return None;
    }
    let (output, _) = rec.time("benchmarks.read_output", id, || {
        prog.read_output(&dev, &args)
    });
    counts.sim_cycles += cap.outcome.stats().work_cycles;
    Some(Store {
        args,
        snapshots: cap.snapshots.into_iter().collect(),
        fences: cap.fences.into_iter().collect(),
        outcome: cap.outcome,
        output,
        tpb,
    })
}

/// Full re-execution of injection `i`.
fn launch_one(
    prog: &dyn HostProgram,
    env: &Env,
    counts: &mut Counts,
    i: usize,
    rec: &mut Recorder,
    id: u64,
) -> RecordedInjection {
    let ((mut dev, args), _) = rec.time("benchmarks.setup", id, || {
        let mut dev = Device::new(env.config.clone());
        let args = prog.setup(&mut dev, env.dataset);
        (dev, args)
    });
    let backend = env.config.engine.backend();
    rec.time("sim.prepare", id, || {
        backend.prepare(&env.kernel, &env.config)
    });
    let mut rt = Runtime::new(env.cov.as_ref(), Some(env.plans[i].fault));
    let (outcome, _) = rec.time("sim.launch", id, || {
        dev.launch(&env.kernel, &args, &env.launch, rt.hooks())
    });
    counts.sim_cycles += outcome.stats().work_cycles;
    let (output, _) = rec.time("benchmarks.read_output", id, || {
        outcome
            .is_completed()
            .then(|| prog.read_output(&dev, &args))
    });
    let (r, _) = rec.time("swifi.classify", id, || {
        rt.record(i, &outcome, output.as_deref(), env)
    });
    r
}

/// Injection `i` resumed from the checkpoint store, splicing the
/// reference tail when it reconverges.
fn resume_one(
    prog: &dyn HostProgram,
    env: &Env,
    counts: &mut Counts,
    store: &Store,
    i: usize,
    rec: &mut Recorder,
    id: u64,
) -> Result<RecordedInjection, String> {
    let boundary = env.plans[i].fault.thread / store.tpb;
    let snap = &store.snapshots[&boundary];
    let (fence, expected) = store
        .fences
        .get(&(boundary + 1))
        .map_or((u32::MAX, 0), |fp| (boundary + 1, *fp));
    let mut rt = Runtime::new(env.cov.as_ref(), Some(env.plans[i].fault));
    let ((dev, run), _) = rec.time("sim.resume", id, || {
        let mut dev = Device::new(env.config.clone());
        let run = dev.resume_spliced(
            &env.kernel,
            &store.args,
            &env.launch,
            rt.hooks(),
            snap,
            fence,
            expected,
        );
        (dev, run)
    });
    counts.resumed += 1;
    let (outcome, output) = match run.map_err(|e| format!("checkpoint restore failed: {e}"))? {
        Spliced::Reconverged { executed_cycles } => {
            counts.spliced += 1;
            counts.sim_cycles += executed_cycles;
            (store.outcome.clone(), Some(store.output.clone()))
        }
        Spliced::Ran(outcome) => {
            counts.sim_cycles += outcome
                .stats()
                .work_cycles
                .saturating_sub(snap.prefix_cycles());
            let (output, _) = rec.time("benchmarks.read_output", id, || {
                outcome
                    .is_completed()
                    .then(|| prog.read_output(&dev, &store.args))
            });
            (outcome, output)
        }
    };
    let (r, _) = rec.time("swifi.classify", id, || {
        rt.record(i, &outcome, output.as_deref(), env)
    });
    Ok(r)
}

/// Cost of the campaign's hook runtime on a fault-free launch of the build
/// under test, relative to `NullRuntime`, in percent: medians of `reps`
/// interleaved launches of each.
pub fn runtime_overhead_pct(spec: &JobSpec, env: &Env, reps: usize) -> Result<f64, String> {
    let prog = spec.build_program()?;
    let (mut with_rt, mut null) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        for use_rt in [true, false] {
            let mut dev = Device::new(env.config.clone());
            let args = prog.setup(&mut dev, env.dataset);
            let mut rt = Runtime::new(env.cov.as_ref(), None);
            let hooks: &mut dyn HookRuntime = if use_rt { rt.hooks() } else { &mut NullRuntime };
            let t = Instant::now();
            dev.launch(&env.kernel, &args, &env.launch, hooks);
            let ns = t.elapsed().as_nanos() as f64;
            if use_rt {
                with_rt.push(ns)
            } else {
                null.push(ns)
            }
        }
    }
    let med = |v: &[f64]| crate::stats::median(v).unwrap_or(f64::NAN);
    Ok((med(&with_rt) / med(&null) - 1.0) * 100.0)
}
