#![warn(missing_docs)]

//! # hauberk-sim — deterministic SIMT GPU simulator
//!
//! The execution substrate for the Hauberk reproduction: a warp-lockstep
//! interpreter for [`hauberk_kir`] kernels with
//!
//! * a **SIMT execution model** — 32-lane warps with an active mask,
//!   structured reconvergence at `if`/`for`/`while`, divergent arms serialized
//!   (both sides charged), per-block shared memory, grid/block launch
//!   geometry;
//! * a **cycle cost model** — per-op-class issue costs (integer ALU, FP unit,
//!   special-function unit, memory, control), *dual-issue pairing* of
//!   consecutive independent operations of different classes (the mechanism
//!   behind the paper's performance observations: duplicated same-class
//!   computation does not pair, cross-class checksum/counter instructions
//!   do), memory-coalescing segment costs, and loop vs. non-loop cycle
//!   attribution (paper Fig. 4);
//! * a **fault surface** — instrumentation hooks dispatched to a pluggable
//!   [`hooks::HookRuntime`] (the four Hauberk library variants implement
//!   this trait), loop-header callbacks for scheduler-fault emulation,
//!   direct memory-word corruption for the graphics experiments, and
//!   crash/hang outcome detection;
//! * a **CPU mode** — the same interpreter with one lane, one SM, and
//!   *strict* page-granularity memory checking, reproducing the paper's
//!   explanation of why CPU programs crash where GPU programs silently
//!   corrupt (§II.A observation 1).
//!
//! ## Memory-protection model
//!
//! In GPU mode (the default), out-of-bounds global/shared accesses **wrap
//! around** the allocated region (silent corruption — the paper: "GPUs do not
//! have a page-granularity memory access permission checking"), while
//! *misaligned* accesses trap (CUDA's `cudaErrorMisalignedAddress`). In CPU
//! (strict) mode, any access beyond the allocation bump point traps, and so
//! does integer division by zero.
//!
//! ## Block/warp scheduling
//!
//! Blocks are executed sequentially in block-id order (deterministically) and
//! assigned round-robin to the configured number of SMs for the *time* model:
//! simulated kernel time is the maximum over SMs of the sum of their blocks'
//! cycles. Warps within a block execute to completion in order;
//! `__syncthreads()` is exact within a warp (lockstep) and the bundled
//! kernels do not rely on inter-warp shared-memory hand-off.

pub mod backend;
pub mod bytecode;
pub mod config;
pub mod device;
pub mod fault;
mod footprint;
pub mod hooks;
pub mod interp;
pub mod memory;
pub mod outcome;
pub mod snapshot;
pub mod stats;
pub mod vm;
pub mod vm_batch;

pub use backend::Prepared;
pub use bytecode::{compile_cached, disassemble, CompiledKernel};
pub use config::{CostModel, DeviceConfig, ExecEngine};
pub use device::{Device, Launch};
pub use fault::{ArmedFault, FaultSite, MemoryBurst};
pub use hooks::{HookCtx, HookRuntime, LoopCheckCtx, NullRuntime, RegCorruption};
pub use outcome::{LaunchOutcome, TrapReason};
pub use snapshot::{CaptureRun, Snapshot, SnapshotError, Spliced};
pub use stats::{ExecStats, OpClass};
pub use vm_batch::{compile_batch, BatchCompiled, BatchKernel};
