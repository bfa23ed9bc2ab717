//! Word-level memory footprints: which backed global words a block reads and
//! writes.
//!
//! A checkpoint capture records every block's footprint so that a resumed
//! injection can be *composed* instead of executed: when the words its
//! faulty block left different from the reference are never read by a later
//! block, the later blocks provably replay the reference, and their effect on
//! memory is exactly "the words they write take the reference's final value"
//! ([`crate::device::Device::resume_spliced`]).
//!
//! Only backed words are recorded. Stores beyond the allocation are dropped
//! and loads there return a pure function of the address (the
//! [`crate::memory`] tiers), so an unbacked access carries no state between
//! blocks. Atomics are a load and a store, so they land in both sets.

/// A dense set of word indices (one bit per backed word).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct WordSet {
    bits: Vec<u64>,
}

impl WordSet {
    /// An empty set able to hold word indices `0..words`.
    pub(crate) fn with_words(words: usize) -> Self {
        WordSet {
            bits: vec![0; words.div_ceil(64)],
        }
    }

    /// Add word `i`.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        self.bits[i >> 6] |= 1 << (i & 63);
    }

    /// The set's 64-word chunk `c` as a bit mask (bit `j` = word `64c + j`).
    pub(crate) fn chunk(&self, c: usize) -> u64 {
        self.bits.get(c).copied().unwrap_or(0)
    }

    /// Add every word of a sparse chunk list (see [`WordSet::drain`]).
    pub(crate) fn union_chunks(&mut self, chunks: &[(u32, u64)]) {
        for &(c, m) in chunks {
            self.bits[c as usize] |= m;
        }
    }

    /// Remove every word, returning the non-empty chunks as a sparse
    /// `(chunk, mask)` list.
    fn drain(&mut self) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        for (c, m) in self.bits.iter_mut().enumerate() {
            if *m != 0 {
                out.push((c as u32, std::mem::take(m)));
            }
        }
        out
    }

    /// Every word index in the set, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(c, &m)| {
            let mut m = m;
            std::iter::from_fn(move || {
                (m != 0).then(|| {
                    let j = m.trailing_zeros() as usize;
                    m &= m - 1;
                    c * 64 + j
                })
            })
        })
    }
}

/// One block's footprint, as sparse `(chunk, mask)` lists over backed words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct BlockFootprint {
    pub(crate) reads: Vec<(u32, u64)>,
    pub(crate) writes: Vec<(u32, u64)>,
}

/// The accesses recorded since the last [`Recorder::take_block`].
#[derive(Debug)]
struct Sets {
    reads: WordSet,
    writes: WordSet,
}

/// The access recorder a [`crate::memory::MemRegion`] carries. Disarmed (the
/// default, and always after a clone) it is one pointer-sized `None`, so a
/// kernel load or store pays one predictable branch for it.
///
/// The recorder is not part of the region's observable state: clones start
/// disarmed and equality ignores it.
#[derive(Default)]
pub(crate) struct Recorder(Option<Box<Sets>>);

impl Recorder {
    /// Start recording over a region of `words` backed words.
    pub(crate) fn arm(&mut self, words: usize) {
        self.0 = Some(Box::new(Sets {
            reads: WordSet::with_words(words),
            writes: WordSet::with_words(words),
        }));
    }

    /// Stop recording.
    pub(crate) fn disarm(&mut self) {
        self.0 = None;
    }

    /// Record a load of backed word `i`.
    #[inline]
    pub(crate) fn read(&mut self, i: usize) {
        if let Some(s) = &mut self.0 {
            s.reads.insert(i);
        }
    }

    /// Record a store to backed word `i`.
    #[inline]
    pub(crate) fn write(&mut self, i: usize) {
        if let Some(s) = &mut self.0 {
            s.writes.insert(i);
        }
    }

    /// The footprint recorded since the last call (empty when disarmed); the
    /// recorder stays armed with empty sets.
    pub(crate) fn take_block(&mut self) -> BlockFootprint {
        match &mut self.0 {
            Some(s) => BlockFootprint {
                reads: s.reads.drain(),
                writes: s.writes.drain(),
            },
            None => BlockFootprint::default(),
        }
    }
}

impl Clone for Recorder {
    fn clone(&self) -> Self {
        Recorder(None)
    }
}

impl PartialEq for Recorder {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Recorder {}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "armed"
        } else {
            "disarmed"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_set_inserts_iterates_and_drains() {
        let mut s = WordSet::with_words(200);
        for i in [3, 64, 65, 199] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 65, 199]);
        assert_eq!(s.chunk(1), 0b11);
        assert_eq!(s.chunk(10_000), 0, "beyond the set reads empty");
        let chunks = s.drain();
        assert_eq!(chunks, vec![(0, 1 << 3), (1, 0b11), (3, 1 << 7)]);
        assert_eq!(s.iter().count(), 0);
        let mut u = WordSet::with_words(200);
        u.union_chunks(&chunks);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![3, 64, 65, 199]);
    }

    #[test]
    fn disarmed_recorder_records_nothing_and_clones_disarmed() {
        let mut r = Recorder::default();
        r.read(1);
        r.write(2);
        assert_eq!(r.take_block(), BlockFootprint::default());
        r.arm(128);
        r.read(1);
        r.write(2);
        r.write(2);
        assert!(r.clone().0.is_none(), "clones start disarmed");
        assert_eq!(
            r.take_block(),
            BlockFootprint {
                reads: vec![(0, 1 << 1)],
                writes: vec![(0, 1 << 2)],
            }
        );
        assert_eq!(r.take_block(), BlockFootprint::default(), "sets reset");
    }
}
