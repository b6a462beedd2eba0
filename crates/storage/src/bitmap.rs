//! Row-id bitmaps.
//!
//! System B in the paper (Figure 8) sorts the rows to be fetched "very
//! efficiently using a bitmap": qualifying rids are set in a bitmap and then
//! enumerated in physical order, converting random fetches into an in-order
//! sweep.  Bitmaps also implement index intersection ("bitmap-driven ...
//! intersection", §3.1).
//!
//! Two structures live here:
//!
//! * [`RidBitmap`], a two-level structure: fixed 1024-bit chunks in a
//!   sorted sparse directory, supporting set/test, union, intersection,
//!   difference and in-order iteration over any position space;
//! * [`DenseRidSet`], one flat bitmap over a rid list's own `(page, slot)`
//!   universe, built only when that universe is small next to the list.  It
//!   sorts, deduplicates and tests membership in linear time, and the
//!   executor routes every rid sort, rid dedup and rid membership test
//!   through it (see "Rid ordering" in `docs/DESIGN.md`).

use crate::heap::Rid;

const CHUNK_BITS: usize = 1024;
const WORDS_PER_CHUNK: usize = CHUNK_BITS / 64;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Chunk {
    /// Index of the chunk: bit `b` lives in chunk `b / CHUNK_BITS`.
    base: u64,
    words: [u64; WORDS_PER_CHUNK],
}

impl Chunk {
    fn new(base: u64) -> Self {
        Chunk { base, words: [0; WORDS_PER_CHUNK] }
    }

    fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// A sparse bitmap over rid positions.
///
/// Positions are packed rids (see [`RidBitmap::from_rids`]) or any other
/// dense numbering; the structure is agnostic.  Chunks are kept sorted by base,
/// so iteration yields positions in increasing order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RidBitmap {
    chunks: Vec<Chunk>,
}

impl RidBitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from rids using their packed `u64` encoding (keeps `(page,
    /// slot)` order).  Rids need not be sorted or unique.
    ///
    /// Bulk construction sorts the packed positions once (a comparison
    /// sort) and appends chunks in order: inserting scattered rids directly
    /// into the sorted chunk vector (as [`RidBitmap::set`] does) would
    /// shift the directory on every new chunk — quadratic in chunk count,
    /// and rid lists arriving in key order touch pages in effectively
    /// random order.  The resulting bitmap is identical either way.  This
    /// is the sparse fallback: rid lists dense in their own universe go
    /// through [`DenseRidSet`] instead, which needs no sort.  Bitmap work
    /// is charged separately, via [`crate::SimClock::charge_hashes`], by
    /// the operators that use it.
    pub fn from_rids(rids: impl IntoIterator<Item = Rid>) -> Self {
        let mut positions: Vec<u64> = rids.into_iter().map(|r| r.to_u64()).collect();
        positions.sort_unstable();
        let mut chunks: Vec<Chunk> = Vec::new();
        for pos in positions {
            let base = pos / CHUNK_BITS as u64;
            let offset = (pos % CHUNK_BITS as u64) as usize;
            match chunks.last_mut() {
                Some(chunk) if chunk.base == base => {
                    chunk.words[offset / 64] |= 1u64 << (offset % 64);
                }
                _ => {
                    let mut chunk = Chunk::new(base);
                    chunk.words[offset / 64] |= 1u64 << (offset % 64);
                    chunks.push(chunk);
                }
            }
        }
        RidBitmap { chunks }
    }

    fn chunk_index(&self, base: u64) -> Result<usize, usize> {
        self.chunks.binary_search_by_key(&base, |c| c.base)
    }

    /// Set bit `pos`.  Returns `true` if it was newly set.
    pub fn set(&mut self, pos: u64) -> bool {
        let base = pos / CHUNK_BITS as u64;
        let offset = (pos % CHUNK_BITS as u64) as usize;
        let idx = match self.chunk_index(base) {
            Ok(i) => i,
            Err(i) => {
                self.chunks.insert(i, Chunk::new(base));
                i
            }
        };
        let word = &mut self.chunks[idx].words[offset / 64];
        let mask = 1u64 << (offset % 64);
        let newly = *word & mask == 0;
        *word |= mask;
        newly
    }

    /// Test bit `pos`.
    pub fn contains(&self, pos: u64) -> bool {
        let base = pos / CHUNK_BITS as u64;
        let offset = (pos % CHUNK_BITS as u64) as usize;
        match self.chunk_index(base) {
            Ok(i) => self.chunks[i].words[offset / 64] & (1u64 << (offset % 64)) != 0,
            Err(_) => false,
        }
    }

    /// Number of set bits.
    pub fn count(&self) -> u64 {
        self.chunks.iter().map(Chunk::count).sum()
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.chunks.iter().all(Chunk::is_empty)
    }

    /// Bitwise AND.
    pub fn and(&self, other: &RidBitmap) -> RidBitmap {
        let mut out = RidBitmap::new();
        let (mut i, mut j) = (0, 0);
        while i < self.chunks.len() && j < other.chunks.len() {
            match self.chunks[i].base.cmp(&other.chunks[j].base) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let mut chunk = Chunk::new(self.chunks[i].base);
                    for w in 0..WORDS_PER_CHUNK {
                        chunk.words[w] = self.chunks[i].words[w] & other.chunks[j].words[w];
                    }
                    if !chunk.is_empty() {
                        out.chunks.push(chunk);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Bitwise OR.
    pub fn or(&self, other: &RidBitmap) -> RidBitmap {
        let mut out = RidBitmap::new();
        let (mut i, mut j) = (0, 0);
        while i < self.chunks.len() || j < other.chunks.len() {
            let take_left = match (self.chunks.get(i), other.chunks.get(j)) {
                (Some(a), Some(b)) => a.base.cmp(&b.base),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => unreachable!(),
            };
            match take_left {
                std::cmp::Ordering::Less => {
                    out.chunks.push(self.chunks[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.chunks.push(other.chunks[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let mut chunk = Chunk::new(self.chunks[i].base);
                    for w in 0..WORDS_PER_CHUNK {
                        chunk.words[w] = self.chunks[i].words[w] | other.chunks[j].words[w];
                    }
                    out.chunks.push(chunk);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Bitwise AND-NOT (`self - other`).
    pub fn and_not(&self, other: &RidBitmap) -> RidBitmap {
        let mut out = RidBitmap::new();
        for chunk in &self.chunks {
            match other.chunk_index(chunk.base) {
                Err(_) => {
                    if !chunk.is_empty() {
                        out.chunks.push(chunk.clone());
                    }
                }
                Ok(j) => {
                    let mut c = Chunk::new(chunk.base);
                    for w in 0..WORDS_PER_CHUNK {
                        c.words[w] = chunk.words[w] & !other.chunks[j].words[w];
                    }
                    if !c.is_empty() {
                        out.chunks.push(c);
                    }
                }
            }
        }
        out
    }

    /// Iterate set positions in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.chunks.iter().flat_map(|chunk| {
            (0..WORDS_PER_CHUNK).flat_map(move |w| {
                let word = chunk.words[w];
                BitIter { word }.map(move |bit| {
                    chunk.base * CHUNK_BITS as u64 + (w * 64) as u64 + bit as u64
                })
            })
        })
    }

    /// Iterate set positions decoded back to [`Rid`]s (inverse of
    /// [`RidBitmap::from_rids`]), in `(page, slot)` order.
    pub fn iter_rids(&self) -> impl Iterator<Item = Rid> + '_ {
        self.iter().map(Rid::from_u64)
    }

    /// Approximate bytes this bitmap occupies (memory-budget accounting).
    pub fn memory_bytes(&self) -> usize {
        self.chunks.len() * std::mem::size_of::<Chunk>()
    }
}

struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(bit)
    }
}

impl FromIterator<u64> for RidBitmap {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let mut bm = RidBitmap::new();
        for pos in iter {
            bm.set(pos);
        }
        bm
    }
}

/// A flat bitmap over the `(page, slot)` universe of one rid list: bit
/// `page << slot_bits | slot`, where `slot_bits` is the bit width of the
/// list's largest slot, so bit order is `(page, slot)` order.
///
/// [`DenseRidSet::build`] constructs one only when the bitmap's 64-bit
/// words number no more than the list's rids, so it never occupies more
/// memory than the 8-byte-per-rid list it summarises.  Within that bound
/// every operation is linear: building sets one bit per rid, writing the
/// set out scans the words once, and membership is one shift and one bit
/// test.  The choice between this set and the sparse fallbacks (radix
/// sort, [`RidBitmap`], a hash set) therefore follows from the input's
/// density alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseRidSet {
    words: Vec<u64>,
    slot_bits: u32,
    duplicates: bool,
}

impl DenseRidSet {
    /// Set the bits of `rids`, or return `None` when the list is empty or
    /// its universe `(max_page + 1) << slot_bits` needs more words than
    /// the list has rids (including a universe too large to count in a
    /// `u64`, which rids with a page or slot near `u32::MAX` produce).
    pub fn build(rids: &[Rid]) -> Option<Self> {
        let (mut max_page, mut max_slot) = (0u32, 0u32);
        for r in rids {
            max_page = max_page.max(r.page);
            max_slot = max_slot.max(r.slot);
        }
        let slot_bits = u32::BITS - max_slot.leading_zeros();
        let bits = (max_page as u64 + 1).checked_mul(1u64 << slot_bits)?;
        let words = bits.div_ceil(64);
        if rids.is_empty() || words > rids.len() as u64 {
            return None;
        }
        let mut set =
            DenseRidSet { words: vec![0; words as usize], slot_bits, duplicates: false };
        let mut seen = 0u64;
        for &r in rids {
            let pos = set.position(r);
            let (word, mask) = (&mut set.words[(pos / 64) as usize], 1u64 << (pos % 64));
            seen |= *word & mask;
            *word |= mask;
        }
        set.duplicates = seen != 0;
        Some(set)
    }

    #[inline]
    fn position(&self, rid: Rid) -> u64 {
        (rid.page as u64) << self.slot_bits | rid.slot as u64
    }

    /// Whether the list the set was built from held some rid twice.
    pub fn had_duplicates(&self) -> bool {
        self.duplicates
    }

    /// Whether `rid` is in the set.  Rids outside the build universe (a
    /// slot wider than `slot_bits`, or a page past the last word) are not.
    #[inline]
    pub fn contains(&self, rid: Rid) -> bool {
        if (rid.slot as u64) >> self.slot_bits != 0 {
            return false;
        }
        let pos = self.position(rid);
        self.words.get((pos / 64) as usize).is_some_and(|w| w & (1u64 << (pos % 64)) != 0)
    }

    /// Replace the contents of `out` with the set's rids, each once, in
    /// `(page, slot)` order.
    pub fn write_sorted(&self, out: &mut Vec<Rid>) {
        out.clear();
        out.reserve(self.words.iter().map(|w| w.count_ones() as usize).sum());
        let slot_mask = (1u64 << self.slot_bits) - 1;
        for (w, &word) in self.words.iter().enumerate() {
            let base = (w as u64) * 64;
            for bit in (BitIter { word }) {
                let pos = base + bit as u64;
                out.push(Rid::new((pos >> self.slot_bits) as u32, (pos & slot_mask) as u32));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_contains_count() {
        let mut bm = RidBitmap::new();
        assert!(bm.is_empty());
        assert!(bm.set(5));
        assert!(bm.set(100_000));
        assert!(!bm.set(5));
        assert!(bm.contains(5));
        assert!(bm.contains(100_000));
        assert!(!bm.contains(6));
        assert_eq!(bm.count(), 2);
    }

    #[test]
    fn iter_is_sorted_even_for_unsorted_inserts() {
        let positions = [99u64, 3, 2048, 1, 70_000, 1023, 1024];
        let bm: RidBitmap = positions.iter().copied().collect();
        let got: Vec<u64> = bm.iter().collect();
        let mut want = positions.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn and_or_andnot_match_set_algebra() {
        use std::collections::BTreeSet;
        let a: Vec<u64> = (0..2000).filter(|x| x % 3 == 0).collect();
        let b: Vec<u64> = (0..2000).filter(|x| x % 5 == 0).collect();
        let (sa, sb): (BTreeSet<u64>, BTreeSet<u64>) =
            (a.iter().copied().collect(), b.iter().copied().collect());
        let (ba, bb): (RidBitmap, RidBitmap) =
            (a.into_iter().collect(), b.into_iter().collect());

        let and: Vec<u64> = ba.and(&bb).iter().collect();
        assert_eq!(and, sa.intersection(&sb).copied().collect::<Vec<_>>());
        let or: Vec<u64> = ba.or(&bb).iter().collect();
        assert_eq!(or, sa.union(&sb).copied().collect::<Vec<_>>());
        let not: Vec<u64> = ba.and_not(&bb).iter().collect();
        assert_eq!(not, sa.difference(&sb).copied().collect::<Vec<_>>());
    }

    #[test]
    fn rid_roundtrip_in_physical_order() {
        let rids = vec![Rid::new(3, 1), Rid::new(0, 2), Rid::new(0, 1), Rid::new(2, 9)];
        let bm = RidBitmap::from_rids(rids.clone());
        let got: Vec<Rid> = bm.iter_rids().collect();
        let mut want = rids;
        want.sort();
        assert_eq!(got, want);
        assert_eq!(bm.count(), 4);
    }

    #[test]
    fn empty_operands() {
        let a: RidBitmap = [1u64, 2, 3].into_iter().collect();
        let empty = RidBitmap::new();
        assert_eq!(a.and(&empty).count(), 0);
        assert_eq!(a.or(&empty), a);
        assert_eq!(a.and_not(&empty), a);
        assert_eq!(empty.and_not(&a).count(), 0);
    }

    #[test]
    fn chunk_boundaries() {
        let edge = [1023u64, 1024, 2047, 2048];
        let bm: RidBitmap = edge.into_iter().collect();
        assert_eq!(bm.iter().collect::<Vec<_>>(), edge.to_vec());
        for p in edge {
            assert!(bm.contains(p));
        }
        assert!(!bm.contains(1022));
        assert!(!bm.contains(2049));
    }

    #[test]
    fn memory_grows_with_spread() {
        let dense: RidBitmap = (0..1000u64).collect();
        let sparse: RidBitmap = (0..1000u64).map(|i| i * 10_000).collect();
        assert!(sparse.memory_bytes() > dense.memory_bytes());
    }

    #[test]
    fn dense_set_sorts_dedups_and_tests_membership() {
        let rids = vec![Rid::new(2, 3), Rid::new(0, 1), Rid::new(2, 0), Rid::new(1, 3)];
        let set = DenseRidSet::build(&rids).expect("4 rids in a 12-bit universe are dense");
        assert!(!set.had_duplicates());
        let mut out = vec![Rid::new(9, 9)];
        set.write_sorted(&mut out);
        let mut want = rids.clone();
        want.sort();
        assert_eq!(out, want);
        for r in &rids {
            assert!(set.contains(*r));
        }
        assert!(!set.contains(Rid::new(0, 0)));
        assert!(!set.contains(Rid::new(3, 0)), "page past the universe");
        assert!(!set.contains(Rid::new(0, 4)), "slot wider than slot_bits");
        assert!(!set.contains(Rid::new(u32::MAX, u32::MAX)));
    }

    #[test]
    fn dense_set_reports_duplicates() {
        let set = DenseRidSet::build(&[Rid::new(0, 1), Rid::new(0, 1)]).unwrap();
        assert!(set.had_duplicates());
        let mut out = Vec::new();
        set.write_sorted(&mut out);
        assert_eq!(out, vec![Rid::new(0, 1)]);
    }

    #[test]
    fn dense_set_declines_empty_sparse_and_overflowing_inputs() {
        assert!(DenseRidSet::build(&[]).is_none());
        // One word for two rids is fine; 2 rids spread over 64 pages of
        // 256 slots (256 words) are not.
        assert!(DenseRidSet::build(&[Rid::new(0, 0), Rid::new(0, 63)]).is_some());
        assert!(DenseRidSet::build(&[Rid::new(0, 255), Rid::new(63, 0)]).is_none());
        // Universes that overflow u64 (or nearly do) must decline, not wrap.
        assert!(DenseRidSet::build(&[Rid::new(u32::MAX, u32::MAX)]).is_none());
        assert!(DenseRidSet::build(&[Rid::new(u32::MAX, 0)]).is_none());
        assert!(DenseRidSet::build(&[Rid::new(0, u32::MAX)]).is_none());
        // max_slot == 0: one bit per page.
        let pages: Vec<Rid> = (0..64).rev().map(|p| Rid::new(p, 0)).collect();
        let set = DenseRidSet::build(&pages).unwrap();
        let mut out = Vec::new();
        set.write_sorted(&mut out);
        assert_eq!(out, (0..64).map(|p| Rid::new(p, 0)).collect::<Vec<_>>());
    }
}
