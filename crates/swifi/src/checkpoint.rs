//! Fault-free prefix checkpointing for injection campaigns.
//!
//! Every injection of a campaign re-executes the same fault-free prefix:
//! the armed fault targets one thread, the thread lives in one block, and
//! blocks execute deterministically in linear order — so everything before
//! the target block is byte-for-byte identical across the stratum. The
//! crate-internal `CheckpointStore` runs the build under test **once** fault-free
//! ([`hauberk_sim::Device::capture_launch`]), capturing a [`Snapshot`] at
//! every block boundary some planned fault targets plus a reconvergence
//! *fence* fingerprint one block later. Each injection then restores the
//! shared snapshot and executes only from its target block
//! ([`hauberk_sim::Device::resume_spliced`]); when its post-block state
//! fingerprints equal to the reference at the fence, the run stops there and
//! reuses the reference finals (FastFlip-style tail splicing). When it does
//! not, but no later block reads a word the target block left different
//! from the reference, the device *composes* the suffix from the reference
//! instead of executing it: only the target block runs.
//!
//! ## Eligibility
//!
//! The store refuses to build (and the orchestrator falls back to full
//! re-execution) when the equivalence argument does not hold:
//!
//! * the fault-free reference must complete — a crashing/hanging reference
//!   has no stable per-boundary state to share;
//! * for coverage campaigns, the fault-free reference must raise **no**
//!   alarms: the FT control block's alarm/outlier state accumulates
//!   monotonically, so "no alarms at the end" proves the state was empty at
//!   every boundary, which is exactly what a freshly-seeded control block in
//!   a resumed run assumes. A reference that false-positives would make the
//!   resumed prefix state diverge from a full run's.
//!
//! Classification stays on the injection's *own* runtime (delivery flag,
//! delivery cycle, alarms): a spliced run only reconverges when its runtime
//! fingerprint matches the (alarm-free) reference, so its own control block
//! is already final at the fence.
//!
//! ## Runtime inertness (the composition contract)
//!
//! A composed run skips every hook of the blocks after its target block.
//! That is exact for the two runtimes the store uses, [`FiRuntime`] and
//! [`FiFtRuntime`], because:
//!
//! * the armed thread lives in the target block, so fault delivery, the
//!   delivery cycle and register corruption all happen there or never;
//! * a composed run's later blocks read exactly the reference's words, so
//!   their hooks see the reference's arguments, and with those the FT
//!   dispatch mutates the control block only on a raise;
//! * the store refuses references that raise alarms (above), so no later
//!   hook would have raised.
//!
//! The runtime's state after the target block is therefore its final state,
//! as the [`HookRuntime::state_fingerprint`] contract requires of runtimes
//! that offer a fingerprint.
//!
//! ## The cycle ledger
//!
//! The campaign's `sim_cycles` counts the simulated-GPU work behind its
//! outcomes: a composed run counts `work_cycles − prefix`, as if its suffix
//! had run. [`CheckpointStats::executed_cycles`] counts what the host
//! executed: the target block alone for a composed run.

use crate::campaign::CampaignEnv;
use hauberk::control::ControlBlock;
use hauberk::program::HostProgram;
use hauberk::runtime::{FiFtRuntime, FiRuntime};
use hauberk_kir::Value;
use hauberk_sim::{Device, HookRuntime, LaunchOutcome, Snapshot, Spliced};
use hauberk_telemetry::Telemetry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Final state of the fault-free reference run: what a spliced injection
/// reuses instead of executing the remaining blocks itself.
#[derive(Debug)]
struct ReferenceFinals {
    /// Outcome of the full reference execution (always `Completed`).
    outcome: LaunchOutcome,
    /// Program output read back from the reference device.
    output: Vec<f64>,
}

/// Shared fault-free prefix state for one campaign: per-boundary snapshots,
/// per-fence reference fingerprints, the cached kernel arguments, and the
/// reference finals. Built once, then read concurrently by every injection
/// of the campaign (cheap interior counters track the savings).
#[derive(Debug)]
pub(crate) struct CheckpointStore {
    /// Snapshot per requested block boundary.
    snapshots: BTreeMap<u32, Snapshot>,
    /// Reference state fingerprint per fence boundary.
    fences: BTreeMap<u32, u64>,
    /// Kernel arguments from the reference `setup` (deterministic per
    /// dataset, so injection runs skip `setup` and reuse these).
    args: Vec<Value>,
    /// Reference finals for spliced runs.
    finals: ReferenceFinals,
    /// Threads per block of the campaign's launch geometry.
    tpb: u32,
    /// Work cycles the reference capture run simulated (charged once).
    pub(crate) reference_cycles: u64,
    /// Injections executed through the store.
    pub(crate) injections: AtomicU64,
    /// Injections that reconverged at their fence and spliced the reference
    /// tail instead of executing it.
    pub(crate) spliced: AtomicU64,
    /// Injections whose suffix was composed from the reference instead of
    /// executed.
    pub(crate) composed: AtomicU64,
    /// Injections that passed their fence unspliced and uncomposed, so their
    /// suffix executed.
    pub(crate) fell_back: AtomicU64,
    /// Work cycles the host actually simulated for the resumed injections
    /// (prefixes skipped, spliced and composed suffixes not executed).
    pub(crate) executed_cycles: AtomicU64,
}

/// Outcome of one checkpointed injection execution.
pub(crate) struct InjectionRun {
    /// Launch outcome (the reference's, when spliced).
    pub(crate) outcome: LaunchOutcome,
    /// Program output of a completed run.
    pub(crate) output: Option<Vec<f64>>,
}

impl CheckpointStore {
    /// Run the build under test fault-free, capturing a snapshot at every
    /// block boundary the plan targets (plus reconvergence fences), and
    /// return the shared store. `Err` carries the reason checkpointing is
    /// ineligible for this campaign; the caller falls back to full
    /// re-execution.
    pub(crate) fn build(env: &CampaignEnv, prog: &dyn HostProgram) -> Result<Self, String> {
        let launch = prog.launch().with_budget(env.budget);
        let tpb = launch.threads_per_block();
        let total = launch.total_blocks();
        if tpb == 0 || total == 0 {
            return Err("degenerate launch geometry".into());
        }

        let mut boundaries: BTreeSet<u32> = BTreeSet::new();
        for p in &env.plans {
            let b = p.fault.thread / tpb;
            if b < total {
                boundaries.insert(b);
            }
        }
        if boundaries.is_empty() {
            return Err("no planned fault targets a block inside the grid".into());
        }
        let fence_req: Vec<u32> = boundaries
            .iter()
            .map(|b| b + 1)
            .filter(|f| *f < total)
            .collect();
        let boundary_req: Vec<u32> = boundaries.iter().copied().collect();

        let mut config = prog.device_config();
        if let Some(e) = env.engine {
            config.engine = e;
        }
        // The reference run is extra work a plain campaign never does; keep
        // it out of the campaign trace so checkpointing stays observation-
        // invariant where the equivalence suite compares outputs.
        let mut dev = Device::new(config);
        let args = prog.setup(&mut dev, env.dataset);

        let cap = match &env.coverage {
            None => {
                let mut rt = FiRuntime::new(None);
                dev.capture_launch(
                    &env.build.kernel,
                    &args,
                    &launch,
                    &mut rt,
                    &boundary_req,
                    &fence_req,
                )
            }
            Some(cov) => {
                let cb = ControlBlock::with_ranges(cov.ranges.clone())
                    .with_detector_vars(cov.det_vars.clone());
                let mut rt = FiFtRuntime::new(None, cb);
                let cap = dev.capture_launch(
                    &env.build.kernel,
                    &args,
                    &launch,
                    &mut rt,
                    &boundary_req,
                    &fence_req,
                );
                if rt.cb.sdc_flag
                    || !rt.cb.alarms.is_empty()
                    || !rt.cb.outliers.is_empty()
                    || rt.first_alarm_cycle.is_some()
                {
                    return Err(
                        "fault-free reference raises detector alarms (false positives); \
                         boundary control-block state would not be reproducible"
                            .into(),
                    );
                }
                cap
            }
        };
        if !cap.outcome.is_completed() {
            return Err(format!(
                "fault-free reference did not complete: {:?}",
                cap.outcome
            ));
        }
        let output = prog.read_output(&dev, &args);
        let reference_cycles = cap.outcome.stats().work_cycles;
        Ok(CheckpointStore {
            snapshots: cap.snapshots.into_iter().collect(),
            fences: cap.fences.into_iter().collect(),
            args,
            finals: ReferenceFinals {
                outcome: cap.outcome,
                output,
            },
            tpb,
            reference_cycles,
            injections: AtomicU64::new(0),
            spliced: AtomicU64::new(0),
            composed: AtomicU64::new(0),
            fell_back: AtomicU64::new(0),
            executed_cycles: AtomicU64::new(0),
        })
    }

    /// Number of captured block boundaries.
    pub(crate) fn boundaries(&self) -> u64 {
        self.snapshots.len() as u64
    }

    /// Whether the store holds a snapshot for `thread`'s block (it always
    /// does for in-grid planned faults; out-of-grid threads fall back to
    /// full execution).
    pub(crate) fn covers(&self, thread: u32) -> bool {
        self.snapshots.contains_key(&(thread / self.tpb))
    }

    /// Execute one injection from the shared checkpoint: restore the
    /// snapshot of `thread`'s block, run with `rt`, and splice the reference
    /// tail if the run reconverges at the fence. Panics (→ unit quarantine)
    /// only on a store/device mismatch, which would be an orchestrator bug.
    pub(crate) fn run_injection(
        &self,
        env: &CampaignEnv,
        prog: &dyn HostProgram,
        thread: u32,
        rt: &mut dyn HookRuntime,
        tele: &Telemetry,
    ) -> InjectionRun {
        let boundary = thread / self.tpb;
        let snap = self
            .snapshots
            .get(&boundary)
            .expect("covers() was checked before run_injection");
        let (fence, expected_fp) = match self.fences.get(&(boundary + 1)) {
            Some(fp) => (boundary + 1, *fp),
            None => (u32::MAX, 0),
        };

        let mut config = prog.device_config();
        if let Some(e) = env.engine {
            config.engine = e;
        }
        let mut dev = Device::new(config).with_telemetry(tele.clone());
        let launch = prog.launch().with_budget(env.budget);
        let run = dev
            .resume_spliced(
                &env.build.kernel,
                &self.args,
                &launch,
                rt,
                snap,
                fence,
                expected_fp,
            )
            .unwrap_or_else(|e| panic!("checkpoint restore failed: {e}"));
        self.injections.fetch_add(1, Ordering::Relaxed);
        match run {
            Spliced::Reconverged { executed_cycles } => {
                self.spliced.fetch_add(1, Ordering::Relaxed);
                self.executed_cycles
                    .fetch_add(executed_cycles, Ordering::Relaxed);
                env.add_sim_cycles(executed_cycles);
                InjectionRun {
                    outcome: self.finals.outcome.clone(),
                    output: Some(self.finals.output.clone()),
                }
            }
            Spliced::Ran(outcome) => {
                // The campaign's cycle count is the simulated-GPU work of the
                // outcome, composed suffix included; the store's ledger
                // counts only what the host executed.
                let work = outcome
                    .stats()
                    .work_cycles
                    .saturating_sub(snap.prefix_cycles());
                env.add_sim_cycles(work);
                let composed = dev.composed_cycles();
                if composed.is_some() {
                    self.composed.fetch_add(1, Ordering::Relaxed);
                } else if fence != u32::MAX && outcome.stats().blocks > u64::from(boundary) {
                    // The target block completed: the run went on past it.
                    self.fell_back.fetch_add(1, Ordering::Relaxed);
                }
                self.executed_cycles
                    .fetch_add(work - composed.unwrap_or(0), Ordering::Relaxed);
                let output = outcome
                    .is_completed()
                    .then(|| prog.read_output(&dev, &self.args));
                InjectionRun { outcome, output }
            }
        }
    }
}

/// Outcome tally of one kernel section: the injections whose fault window
/// falls inside the section, composed from the per-injection records.
/// Composing these per-section maps recovers exactly the campaign totals —
/// every plan maps to at most one section — which is the compositionality
/// claim the differential suite checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionOutcome {
    /// Section index, or `None` for plans whose fault window lies outside
    /// every section (defensive: the partitioner covers all statements, so
    /// this stays `None`-free in practice).
    pub section: Option<usize>,
    /// Section label (`straight@N` / `loopL@N`), empty for `None`.
    pub label: String,
    /// Outcome tally over the section's injections.
    pub counts: crate::stats::OutcomeCounts,
}

/// Checkpoint savings ledger of one orchestrated campaign, surfaced on
/// [`crate::orchestrator::ShardedCampaignResult`]. Struct-only, like the
/// phase profile: the byte-identity contract keeps it out of the summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Kernel sections the partitioner found.
    pub sections: u64,
    /// Distinct block boundaries snapshotted.
    pub boundaries: u64,
    /// Injections executed through the checkpoint store.
    pub injections: u64,
    /// Injections that reconverged at their fence and spliced the reference
    /// tail.
    pub spliced: u64,
    /// Injections whose suffix was composed from the reference: only the
    /// faulty block executed.
    pub composed: u64,
    /// Injections that had a fence and passed it neither spliced nor
    /// composed (a later block reads a word the fault changed, or the budget
    /// left cannot cover the reference suffix), so their suffix executed.
    pub fell_back: u64,
    /// Work cycles of the one shared fault-free reference run.
    pub reference_cycles: u64,
    /// Work cycles the host actually executed for the resumed injections:
    /// from the target block to the fence for a spliced run, the target
    /// block alone for a composed one, everything after the prefix
    /// otherwise.
    pub executed_cycles: u64,
}
