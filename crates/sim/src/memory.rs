//! Device memory: a word-addressed region with a bump allocator, typed
//! accessors, and the GPU/CPU protection split.
//!
//! * **GPU (permissive) mode** — three tiers, modeling a device with a
//!   coarse MMU but no page-granularity protection (the paper's explanation
//!   for the GPU's high SDC / lower crash ratio):
//!   1. inside the allocated extent — normal access (a corrupted address
//!      silently reads/writes *some other live data*);
//!   2. past the allocation but inside the device address space — loads
//!      return deterministic garbage and stores are dropped (the mechanism
//!      behind the paper's TPACF failure case, where a write-and-verify
//!      retry loop spins forever because "the corrupted address never
//!      returns the write requested value", §IX.B);
//!   3. beyond the device address space — the access traps (kernel crash
//!      detected by the runtime).
//!
//!   Misaligned accesses trap in both modes (CUDA's
//!   `cudaErrorMisalignedAddress`).
//! * **CPU (strict) mode** — any access at or beyond the allocation bump
//!   point traps, emulating page protection.

use crate::footprint::{BlockFootprint, Recorder, WordSet};
use crate::outcome::TrapReason;
use hauberk_kir::{MemSpace, PrimTy, PtrVal, Value};

/// A linear, word-granular memory region.
///
/// The backing store is materialized lazily: `words` only ever covers the
/// allocated extent `[0, brk)`. Addresses at or beyond `brk` are never
/// backed — permissive mode synthesizes deterministic garbage for loads and
/// drops stores there, strict mode traps — so a fresh multi-megabyte device
/// costs nothing until kernels actually allocate.
/// Two regions compare equal iff every observable read agrees: the backed
/// words, the allocation extent, and the protection mode. Reads beyond `brk`
/// are a pure function of the address, so word+extent equality covers the
/// whole address space — this is what makes [`crate::snapshot::Snapshot`]
/// round trips bit-exact without materializing the unbacked tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRegion {
    space: MemSpace,
    words: Vec<u32>,
    /// Device address-space size, in bytes (word-aligned).
    capacity: u32,
    /// Allocation bump pointer, in bytes.
    brk: u32,
    strict: bool,
    /// Kernel-access recorder, armed only while a checkpoint capture runs
    /// (not observable state: clones start disarmed, equality ignores it).
    recorder: Recorder,
}

/// Alignment of fresh allocations, in bytes (matches CUDA's 256-byte
/// allocation granularity; keeps buffers segment-aligned for coalescing).
pub const ALLOC_ALIGN: u32 = 256;

/// Result of address resolution in permissive mode.
enum Slot {
    /// A backed word.
    Word(usize),
    /// Mapped but unallocated (permissive mode only).
    Unallocated(u32),
}

impl MemRegion {
    /// Create a region of `capacity_bytes` (rounded down to whole words).
    pub fn new(space: MemSpace, capacity_bytes: u32, strict: bool) -> Self {
        MemRegion {
            space,
            words: Vec::new(),
            capacity: capacity_bytes / 4 * 4,
            brk: 0,
            strict,
            recorder: Recorder::default(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Bytes allocated so far.
    pub fn allocated(&self) -> u32 {
        self.brk
    }

    /// The backed words (the allocated extent `[0, brk)`, padded to the
    /// alignment granule). Together with [`MemRegion::allocated`] this is
    /// the region's entire observable state — reads beyond it are a pure
    /// function of the address — so it is what snapshot fingerprints hash.
    pub fn backed_words(&self) -> &[u32] {
        &self.words
    }

    /// Allocate `n` elements of `elem`, zero-initialized, 256-byte aligned.
    /// Returns `None` when the region is exhausted.
    pub fn alloc(&mut self, elem: PrimTy, n: u32) -> Option<PtrVal> {
        let bytes = n.checked_mul(elem.size_bytes())?;
        let base = self.brk.checked_add(ALLOC_ALIGN - 1)? / ALLOC_ALIGN * ALLOC_ALIGN;
        let end = base.checked_add(bytes)?;
        if end > self.capacity() {
            return None;
        }
        // `base` is 256-byte aligned, so it sits at or past the backed
        // extent; the resize zero-fills the alignment gap and the new
        // allocation in one pass.
        self.words.resize((end as usize).div_ceil(4), 0);
        self.brk = end;
        Some(PtrVal {
            space: self.space,
            addr: base,
            elem,
        })
    }

    /// Reset the allocator and zero the region (fresh device state).
    pub fn reset(&mut self) {
        self.words.clear();
        self.brk = 0;
    }

    /// Resolve an address per the protection mode.
    fn resolve(&self, addr: u32) -> Result<Slot, TrapReason> {
        if !addr.is_multiple_of(4) {
            return Err(TrapReason::Misaligned {
                space: self.space,
                addr,
            });
        }
        if self.strict {
            if addr >= self.brk {
                return Err(TrapReason::OutOfBounds {
                    space: self.space,
                    addr,
                });
            }
            return Ok(Slot::Word((addr / 4) as usize));
        }
        if addr >= self.capacity() {
            // Beyond the device address space: even a protection-less GPU's
            // coarse MMU faults here.
            return Err(TrapReason::OutOfBounds {
                space: self.space,
                addr,
            });
        }
        if addr >= self.brk {
            // Mapped but unallocated: no page protection — loads see
            // garbage, stores vanish.
            return Ok(Slot::Unallocated(addr));
        }
        Ok(Slot::Word((addr / 4) as usize))
    }

    /// Read the raw 32-bit word at `addr`.
    pub fn read_word(&self, addr: u32) -> Result<u32, TrapReason> {
        match self.resolve(addr)? {
            Slot::Word(i) => Ok(self.words[i]),
            // Deterministic garbage for unallocated reads.
            Slot::Unallocated(a) => Ok(a.wrapping_mul(2654435761).rotate_left(7)),
        }
    }

    /// A kernel load: [`MemRegion::read_word`], seen by the capture's
    /// footprint recorder. Every engine loads through this.
    pub(crate) fn load_word(&mut self, addr: u32) -> Result<u32, TrapReason> {
        match self.resolve(addr)? {
            Slot::Word(i) => {
                self.recorder.read(i);
                Ok(self.words[i])
            }
            Slot::Unallocated(a) => Ok(a.wrapping_mul(2654435761).rotate_left(7)),
        }
    }

    /// Write the raw 32-bit word at `addr` (kernel stores land here, so the
    /// capture's footprint recorder sees them).
    pub fn write_word(&mut self, addr: u32, w: u32) -> Result<(), TrapReason> {
        match self.resolve(addr)? {
            Slot::Word(i) => {
                self.recorder.write(i);
                self.words[i] = w;
                Ok(())
            }
            Slot::Unallocated(_) => Ok(()), // dropped
        }
    }

    /// Start recording kernel loads and stores of backed words.
    pub(crate) fn start_recording(&mut self) {
        self.recorder.arm(self.words.len());
    }

    /// Stop recording.
    pub(crate) fn stop_recording(&mut self) {
        self.recorder.disarm();
    }

    /// The words loaded and stored since recording started or since the
    /// last call.
    pub(crate) fn take_footprint(&mut self) -> BlockFootprint {
        self.recorder.take_block()
    }

    /// Whether some backed word that differs between `self` and `other` is
    /// in `set`. The regions must share their extent.
    pub(crate) fn differs_within(&self, other: &MemRegion, set: &WordSet) -> bool {
        debug_assert_eq!(self.words.len(), other.words.len());
        self.words
            .chunks(64)
            .zip(other.words.chunks(64))
            .enumerate()
            .any(|(c, (a, b))| {
                a != b && {
                    let diff = a
                        .iter()
                        .zip(b)
                        .enumerate()
                        .fold(0u64, |m, (j, (x, y))| m | (((x != y) as u64) << j));
                    diff & set.chunk(c) != 0
                }
            })
    }

    /// Give every word of `set` its value in `src` (same extent).
    pub(crate) fn copy_words_from(&mut self, src: &MemRegion, set: &WordSet) {
        for i in set.iter() {
            self.words[i] = src.words[i];
        }
    }

    /// Read a typed value at `addr`.
    pub fn read(&self, elem: PrimTy, addr: u32) -> Result<Value, TrapReason> {
        Ok(Value::from_bits(elem, self.read_word(addr)?))
    }

    /// Write a typed value at `addr`.
    pub fn write(&mut self, addr: u32, v: Value) -> Result<(), TrapReason> {
        self.write_word(addr, v.to_bits())
    }

    /// Host-side bulk copy in (`h2d`). Panics on out-of-range (host bug, not
    /// a simulated fault).
    pub fn copy_in(&mut self, ptr: PtrVal, data: &[Value]) {
        for (i, v) in data.iter().enumerate() {
            let addr = ptr.addr + (i as u32) * 4;
            assert!(addr < self.brk, "host copy_in beyond allocation");
            self.words[(addr / 4) as usize] = v.to_bits();
        }
    }

    /// Host-side bulk copy out (`d2h`).
    pub fn copy_out(&self, ptr: PtrVal, n: u32) -> Vec<Value> {
        (0..n)
            .map(|i| {
                let addr = ptr.addr + i * 4;
                assert!(addr < self.brk, "host copy_out beyond allocation");
                Value::from_bits(ptr.elem, self.words[(addr / 4) as usize])
            })
            .collect()
    }

    /// Corrupt `count` consecutive words starting at `addr` by XORing `mask`
    /// (intermittent/memory-fault emulation for the graphics experiments,
    /// paper Fig. 3).
    pub fn corrupt_words(&mut self, addr: u32, count: u32, mask: u32) {
        for i in 0..count {
            let a = addr.wrapping_add(i * 4);
            if let Ok(Slot::Word(idx)) = self.resolve(a & !3) {
                self.words[idx] ^= mask;
            }
        }
    }

    /// Convenience: copy a `&[f32]` in.
    pub fn copy_in_f32(&mut self, ptr: PtrVal, data: &[f32]) {
        let vals: Vec<Value> = data.iter().map(|v| Value::F32(*v)).collect();
        self.copy_in(ptr, &vals);
    }

    /// Convenience: copy a `&[i32]` in.
    pub fn copy_in_i32(&mut self, ptr: PtrVal, data: &[i32]) {
        let vals: Vec<Value> = data.iter().map(|v| Value::I32(*v)).collect();
        self.copy_in(ptr, &vals);
    }

    /// Convenience: read back `n` `f32`s. Unbacked words read as zero, as
    /// they did when the full region was materialized eagerly.
    pub fn copy_out_f32(&self, ptr: PtrVal, n: u32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let idx = ((ptr.addr + i * 4) / 4) as usize;
                f32::from_bits(self.words.get(idx).copied().unwrap_or(0))
            })
            .collect()
    }

    /// Convenience: read back `n` `i32`s. Unbacked words read as zero.
    pub fn copy_out_i32(&self, ptr: PtrVal, n: u32) -> Vec<i32> {
        (0..n)
            .map(|i| {
                let idx = ((ptr.addr + i * 4) / 4) as usize;
                self.words.get(idx).copied().unwrap_or(0) as i32
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(strict: bool) -> MemRegion {
        MemRegion::new(MemSpace::Global, 4096, strict)
    }

    #[test]
    fn alloc_is_aligned_and_zeroed() {
        let mut m = region(false);
        let a = m.alloc(PrimTy::F32, 10).unwrap();
        let b = m.alloc(PrimTy::I32, 1).unwrap();
        assert_eq!(a.addr % ALLOC_ALIGN, 0);
        assert_eq!(b.addr % ALLOC_ALIGN, 0);
        assert!(b.addr >= a.addr + 40);
        assert_eq!(m.read(PrimTy::F32, a.addr).unwrap(), Value::F32(0.0));
    }

    #[test]
    fn alloc_exhaustion_returns_none() {
        let mut m = region(false);
        assert!(m.alloc(PrimTy::F32, 2000).is_none());
        assert!(m.alloc(PrimTy::F32, 512).is_some());
        assert!(m.alloc(PrimTy::F32, 600).is_none());
        assert!(m.alloc(PrimTy::F32, 512).is_some(), "exact fit succeeds");
    }

    #[test]
    fn strict_oob_traps_permissive_wraps() {
        let mut strict = region(true);
        let p = strict.alloc(PrimTy::I32, 4).unwrap();
        strict.write(p.addr, Value::I32(7)).unwrap();
        assert!(matches!(
            strict.read(PrimTy::I32, p.addr + 4096),
            Err(TrapReason::OutOfBounds { .. })
        ));

        let mut perm = region(false);
        let p = perm.alloc(PrimTy::I32, 4).unwrap();
        perm.write(p.addr, Value::I32(42)).unwrap();
        // Unallocated-but-mapped: garbage read, dropped write, no trap.
        let v = perm.read(PrimTy::I32, p.addr + 1024).unwrap();
        assert!(v.as_i32().is_some());
        perm.write(p.addr + 1024, Value::I32(7)).unwrap();
        // Beyond the address space: traps even in permissive mode.
        assert!(matches!(
            perm.read(PrimTy::I32, 1 << 30),
            Err(TrapReason::OutOfBounds { .. })
        ));
    }

    #[test]
    fn misaligned_traps_in_both_modes() {
        for strict in [true, false] {
            let mut m = region(strict);
            let p = m.alloc(PrimTy::F32, 4).unwrap();
            assert!(matches!(
                m.read(PrimTy::F32, p.addr + 2),
                Err(TrapReason::Misaligned { .. })
            ));
        }
    }

    #[test]
    fn host_copies_round_trip() {
        let mut m = region(false);
        let p = m.alloc(PrimTy::F32, 4).unwrap();
        m.copy_in_f32(p, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.copy_out_f32(p, 4), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn corrupt_words_flips_bits() {
        let mut m = region(false);
        let p = m.alloc(PrimTy::I32, 4).unwrap();
        m.copy_in_i32(p, &[0, 0, 0, 0]);
        m.corrupt_words(p.addr, 2, 1);
        assert_eq!(m.copy_out_i32(p, 4), vec![1, 1, 0, 0]);
    }

    #[test]
    fn reset_clears_state() {
        let mut m = region(false);
        let p = m.alloc(PrimTy::I32, 4).unwrap();
        m.copy_in_i32(p, &[9, 9, 9, 9]);
        m.reset();
        assert_eq!(m.allocated(), 0);
        let p2 = m.alloc(PrimTy::I32, 4).unwrap();
        assert_eq!(m.copy_out_i32(p2, 4), vec![0, 0, 0, 0]);
    }
}
