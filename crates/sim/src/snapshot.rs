//! Bit-exact device snapshots at block boundaries.
//!
//! Fault-injection campaigns re-execute the same fault-free prefix of a
//! kernel thousands of times: every injection targets one thread, the thread
//! lives in one block, and blocks execute deterministically in block-id
//! order — so everything before the target block is byte-for-byte identical
//! across the whole stratum. A [`Snapshot`] captures the launch's complete
//! mutable state at a block boundary (global memory with the lazy-extent
//! trick preserved, cumulative [`ExecStats`], per-SM cycle tallies, the
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
//!    [`ExecStats`], same cycle tallies at every block boundary — and a
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

use crate::memory::MemRegion;
use crate::stats::ExecStats;

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
    /// Global memory, lazily-backed extent and all.
    pub(crate) mem: MemRegion,
    /// Cumulative execution statistics at the boundary.
    pub(crate) stats: ExecStats,
    /// Per-SM cycle tallies (the kernel-time max is taken at finalize).
    pub(crate) sm_cycles: Vec<u64>,
    /// Remaining hang budget.
    pub(crate) budget: u64,
}

impl Snapshot {
    /// Linear block id the resumed launch executes first.
    pub fn next_block(&self) -> u32 {
        self.next_block
    }

    /// Work cycles already simulated at the boundary — what a resume skips.
    pub fn prefix_cycles(&self) -> u64 {
        self.stats.work_cycles
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
    /// fence sat at/after the last block — and the run executed to its own
    /// completion.
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
