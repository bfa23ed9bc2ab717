//! Bit-exact device snapshots at block boundaries.
//!
//! Fault-injection campaigns re-execute the same fault-free prefix of a
//! kernel thousands of times: every injection targets one thread, the thread
//! lives in one block, and blocks execute deterministically in block-id
//! order — so everything before the target block is byte-for-byte identical
//! across the whole stratum. A [`Snapshot`] captures the launch's complete
//! mutable state at a block boundary (global memory with the lazy-extent
//! trick preserved, cumulative [`crate::ExecStats`], per-SM cycle tallies, the
//! remaining hang budget) so an injection run can *restore* it and start
//! executing at the target block instead of from thread zero.
//!
//! Three invariants make this sound:
//!
//! 1. **Blocks are the unit of scheduling.** The device runs blocks
//!    sequentially in linear id order and shared memory is created fresh per
//!    block, so "before block *b*" is a quiescent point: no shared memory is
//!    live, no warp is mid-flight, and the only carried state is exactly
//!    what [`Snapshot`] stores.
//! 2. **Snapshots are engine-neutral.** The three [`crate::ExecBackend`]
//!    tiers are observationally equivalent — same memory, same
//!    [`crate::ExecStats`], same cycle tallies at every block boundary — and a
//!    snapshot holds only that observable state, never a per-launch
//!    compilation artifact. So a snapshot captured on one tier restores on
//!    any other and the resumed run is bit-identical to a restore on the
//!    capturing tier (`tests/snapshot_roundtrip.rs` checks every ordered
//!    engine pair).
//! 3. **Hook runtimes are per-run.** The snapshot stores *device* state
//!    only. Each resumed run brings its own [`crate::HookRuntime`]; because
//!    occurrence counting is per `(site, thread)` and a thread executes only
//!    inside its own block, a fresh fault arm at the boundary observes
//!    exactly the counts a full run would have accumulated for the target
//!    thread: zero.
//!
//! Beyond prefix skipping, [`crate::device::Device::resume_spliced`] adds
//! FastFlip-style *reconvergence splicing*: after the target block, the
//! resumed run's state is fingerprinted at a fence boundary and compared
//! against the fault-free reference. A match proves the remaining blocks
//! would replay the reference exactly, so the run stops there and the caller
//! reuses the reference's finals — turning "skip the prefix" into "execute
//! only the corrupted window" for masked faults.
//!
//! A run that does not reconverge can still skip its suffix by *block-local
//! composition*, with the block as FastFlip's section. The capture pass
//! records every block's word-level footprint, so a snapshot at boundary `b`
//! also knows the reference state after block `b` and after the last block,
//! and which backed words blocks `b + 1..` read and write. Two facts make
//! composing exact:
//!
//! * **Later blocks see only what they read.** A block's loads, stores,
//!   addresses and charges are a function of the words it reads (plus its
//!   geometry and the kernel arguments). If no word where the faulty run's
//!   memory differs from the reference after block `b` is read by a later
//!   block, every later block replays the reference: its stores land where
//!   and as they did there, so those words take the reference's final
//!   values, and its cycles add the reference's suffix cycles to the same
//!   SMs.
//! * **The budget is the only other carried state.** Charges are
//!   non-negative and a hang fires only when a charge exceeds the budget
//!   left, so a suffix whose reference consumption fits in the remaining
//!   budget cannot hang.
//!
//! Hooks in later blocks are skipped, which the
//! [`crate::HookRuntime::state_fingerprint`] contract covers.

use crate::device::LaunchState;
use crate::footprint::WordSet;
use crate::memory::MemRegion;
use std::sync::Arc;

/// Full device state at a block boundary: everything
/// [`crate::device::Device::resume_launch`] needs to continue the launch
/// bit-exactly from [`Snapshot::next_block`].
///
/// Equality is observational equality of the captured launch: two snapshots
/// compare equal iff resuming either produces identical runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The linear block id the resumed launch executes first.
    pub(crate) next_block: u32,
    /// The launch state at the boundary.
    pub(crate) state: Arc<BoundaryState>,
    /// What composing a resumed run needs; `None` for the post-run boundary
    /// and for snapshots of a reference that trapped or hung.
    pub(crate) compose: Option<Arc<Composition>>,
}

/// The launch's mutable state at a block boundary: global memory (lazily
/// backed extent and all) plus the stats, per-SM tallies and budget.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BoundaryState {
    pub(crate) mem: MemRegion,
    pub(crate) launch: LaunchState,
}

/// Reference data for composing a resumed run that starts at block `b`
/// without executing blocks `b + 1..`: the reference state after block `b`
/// and after the last block, and the backed words blocks `b + 1..` read and
/// write. The states are shared between the snapshots of one capture.
#[derive(Debug, PartialEq)]
pub(crate) struct Composition {
    /// Reference state after block `b`.
    pub(crate) next: Arc<BoundaryState>,
    /// Reference state after the last block (stats not finalized).
    pub(crate) last: Arc<BoundaryState>,
    /// Words some block after `b` loads (atomics included).
    pub(crate) later_reads: WordSet,
    /// Words some block after `b` stores (atomics included).
    pub(crate) later_writes: WordSet,
}

impl Snapshot {
    /// Linear block id the resumed launch executes first.
    pub fn next_block(&self) -> u32 {
        self.next_block
    }

    /// Work cycles already simulated at the boundary — what a resume skips.
    pub fn prefix_cycles(&self) -> u64 {
        self.state.launch.stats.work_cycles
    }
}

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot's resume point lies beyond the launch grid — it belongs
    /// to a different launch geometry.
    BlockOutOfRange {
        /// The snapshot's resume block.
        next_block: u32,
        /// Blocks in the restoring launch.
        total_blocks: u32,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BlockOutOfRange {
                next_block,
                total_blocks,
            } => write!(
                f,
                "snapshot resumes at block {next_block} but the launch has {total_blocks} block(s)"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Result of a reference capture run
/// ([`crate::device::Device::capture_launch`]): the outcome of the full
/// fault-free execution plus the requested snapshots and fence fingerprints.
#[derive(Debug)]
pub struct CaptureRun {
    /// Outcome of the full reference execution.
    pub outcome: crate::outcome::LaunchOutcome,
    /// `(boundary, snapshot)` for every requested boundary the run reached.
    pub snapshots: Vec<(u32, Snapshot)>,
    /// `(boundary, fingerprint)` for every requested fence the run reached
    /// whose runtime offered a [`crate::HookRuntime::state_fingerprint`].
    pub fences: Vec<(u32, u64)>,
}

/// How a spliced resume ([`crate::device::Device::resume_spliced`]) ended.
#[derive(Debug)]
pub enum Spliced {
    /// The run's state fingerprint matched the reference at the fence: the
    /// remaining blocks would replay the reference bit-for-bit, so they were
    /// not executed. The caller owns the reference finals.
    Reconverged {
        /// Work cycles actually simulated between the snapshot and the
        /// fence (the only cycles this injection cost).
        executed_cycles: u64,
    },
    /// No splice — divergent at the fence, trapped/hung before it, or the
    /// fence sat at/after the last block. The run executed to its own
    /// completion, or composed the rest from the reference
    /// ([`crate::device::Device::composed_cycles`]); either way the outcome
    /// and the device memory are the full launch's.
    Ran(crate::outcome::LaunchOutcome),
}

/// FNV-1a, the same hash the campaign journal uses for plan fingerprints.
#[derive(Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}
