//! The letter alphabet and bitset pattern encoding.
//!
//! After the first scan finds `F1` (the frequent 1-patterns), every pattern
//! of interest is a subpattern of the *candidate max-pattern* `C_max` — the
//! union of `F1` (paper §3.1.2). A **letter** is one `(offset, feature)`
//! pair of `C_max`; letters are numbered densely in `(offset, feature)`
//! order, which is exactly the canonical "missing-letter order" the
//! max-subpattern tree of §4 traverses.
//!
//! A pattern over `C_max` is then just a set of letter indices — a
//! [`LetterSet`] bitset — and the heavy operations of the mining algorithms
//! (subset tests for matching, intersections for hit computation) become a
//! few word-wide instructions.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use ppm_timeseries::FeatureId;

/// The alphabet of frequent letters for one period: the positions and
/// features of `C_max`, densely numbered in `(offset, feature)` order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alphabet {
    period: usize,
    /// Sorted by `(offset, feature)`; index in this vec == letter index.
    letters: Vec<(u32, FeatureId)>,
    /// `offset_starts[o]..offset_starts[o+1]` indexes `letters` for offset o.
    offset_starts: Vec<u32>,
}

impl Alphabet {
    /// Builds an alphabet from `(offset, feature)` pairs for a period.
    ///
    /// Pairs may arrive unsorted or duplicated; offsets must be `< period`.
    ///
    /// # Panics
    /// Panics if any offset is out of range (an internal-contract violation:
    /// scan code only produces in-range offsets).
    pub fn new(period: usize, pairs: impl IntoIterator<Item = (usize, FeatureId)>) -> Self {
        let mut letters: Vec<(u32, FeatureId)> = pairs
            .into_iter()
            .map(|(o, f)| {
                assert!(o < period, "offset {o} out of range for period {period}");
                (o as u32, f)
            })
            .collect();
        letters.sort_unstable();
        letters.dedup();
        let mut offset_starts = Vec::with_capacity(period + 1);
        let mut cursor = 0u32;
        for o in 0..period as u32 {
            offset_starts.push(cursor);
            while (cursor as usize) < letters.len() && letters[cursor as usize].0 == o {
                cursor += 1;
            }
        }
        offset_starts.push(cursor);
        Alphabet {
            period,
            letters,
            offset_starts,
        }
    }

    /// The mining period this alphabet belongs to.
    pub fn period(&self) -> usize {
        self.period
    }

    /// Number of letters `n_L = |F1|`.
    pub fn len(&self) -> usize {
        self.letters.len()
    }

    /// Whether the alphabet is empty (no frequent 1-patterns).
    pub fn is_empty(&self) -> bool {
        self.letters.is_empty()
    }

    /// The `(offset, feature)` of letter `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= len()`.
    pub fn letter(&self, idx: usize) -> (usize, FeatureId) {
        let (o, f) = self.letters[idx];
        (o as usize, f)
    }

    /// The letter index of `(offset, feature)`, if it is frequent.
    pub fn index_of(&self, offset: usize, feature: FeatureId) -> Option<usize> {
        if offset >= self.period {
            return None;
        }
        let lo = self.offset_starts[offset] as usize;
        let hi = self.offset_starts[offset + 1] as usize;
        self.letters[lo..hi]
            .binary_search_by_key(&feature, |&(_, f)| f)
            .ok()
            .map(|i| lo + i)
    }

    /// The contiguous range of letter indices at `offset`.
    pub fn letters_at(&self, offset: usize) -> std::ops::Range<usize> {
        self.offset_starts[offset] as usize..self.offset_starts[offset + 1] as usize
    }

    /// Iterates `(letter_index, offset, feature)` in letter order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, FeatureId)> + '_ {
        self.letters
            .iter()
            .enumerate()
            .map(|(i, &(o, f))| (i, o as usize, f))
    }

    /// A fresh, empty [`LetterSet`] sized for this alphabet.
    pub fn empty_set(&self) -> LetterSet {
        LetterSet::new(self.len())
    }

    /// The full letter set — the candidate max-pattern `C_max`.
    pub fn full_set(&self) -> LetterSet {
        LetterSet::full(self.len())
    }

    /// The L-length of `set` under this alphabet: the number of *distinct
    /// offsets* carrying at least one letter. Two letters at the same
    /// offset (a brace-set position) count once.
    pub fn l_length_of(&self, set: &LetterSet) -> usize {
        let mut distinct = 0;
        let mut last_offset = usize::MAX;
        for idx in set.iter() {
            let (o, _) = self.letter(idx);
            if o != last_offset {
                distinct += 1;
                last_offset = o;
            }
        }
        distinct
    }

    /// Each letter's probe into a whole segment of packed rows with
    /// `words_per_instant` words per instant (see [`SegmentMasks`]).
    pub(crate) fn segment_masks(&self, words_per_instant: usize) -> SegmentMasks {
        let probes = self
            .letters
            .iter()
            .map(|&(o, f)| {
                let (word, bit) = (f.index() / 64, f.index() % 64);
                if word < words_per_instant {
                    (o as usize * words_per_instant + word, 1u64 << bit)
                } else {
                    // Past the rows' words: the letter is never present.
                    (0, 0)
                }
            })
            .collect();
        SegmentMasks { probes }
    }
}

#[cfg(test)]
impl Alphabet {
    /// Projects one period segment's instant (`offset`, feature slice) into
    /// `set`: sets the bit of every frequent letter present. The
    /// per-instant reference [`SegmentMasks`] is tested against.
    pub(crate) fn project_instant(
        &self,
        offset: usize,
        features: &[FeatureId],
        set: &mut LetterSet,
    ) {
        let range = self.letters_at(offset);
        if range.is_empty() || features.is_empty() {
            return;
        }
        // Merge-walk the two sorted lists (both are sorted by feature id).
        let letters = &self.letters[range.clone()];
        let mut li = 0;
        let mut fi = 0;
        while li < letters.len() && fi < features.len() {
            match letters[li].1.cmp(&features[fi]) {
                std::cmp::Ordering::Less => li += 1,
                std::cmp::Ordering::Greater => fi += 1,
                std::cmp::Ordering::Equal => {
                    set.insert(range.start + li);
                    li += 1;
                    fi += 1;
                }
            }
        }
    }
}

/// Scan 2's projection of packed rows: for every letter, in letter order,
/// the index of its word within a whole segment's row-major words and the
/// mask of its feature's bit there. Projecting a segment is then one
/// masked load per letter, with no per-instant walk and no branch.
#[derive(Debug, Clone)]
pub(crate) struct SegmentMasks {
    probes: Vec<(usize, u64)>,
}

impl SegmentMasks {
    /// Overwrites `hit` with the letters present in `segment`, a whole
    /// segment's words (`period × words_per_instant` of them). `hit` must
    /// be sized for the alphabet the masks came from.
    pub(crate) fn project(&self, segment: &[u64], hit: &mut LetterSet) {
        debug_assert_eq!(hit.universe(), self.probes.len());
        for (probes, out) in self.probes.chunks(64).zip(hit.words_mut()) {
            *out = probes
                .iter()
                .enumerate()
                .fold(0, |bits, (i, &(word, mask))| {
                    let present = segment.get(word).map_or(0, |w| w & mask);
                    bits | u64::from(present != 0) << i
                });
        }
    }
}

/// A set of letter indices over an [`Alphabet`], stored as a fixed-width
/// bitset. All sets drawn from the same alphabet have the same width, so
/// subset/intersection tests are straight word loops.
///
/// Universes of at most 64 letters — the common case in the paper's
/// experiments — are stored inline in one machine word; only larger
/// alphabets heap-allocate. The representation is chosen by universe size
/// alone, so sets over the same alphabet always share a layout and
/// equality/hashing stay content-based (see the manual impls below).
#[derive(Clone)]
pub struct LetterSet {
    /// Number of valid bits (the alphabet size this set was created for).
    universe: u32,
    words: Words,
}

/// Bit storage for a [`LetterSet`].
#[derive(Clone)]
enum Words {
    /// Universe ≤ 64: the whole set in one inline word, no allocation.
    Inline(u64),
    /// Universe > 64: `div_ceil(universe, 64)` words on the heap.
    Heap(Box<[u64]>),
}

impl LetterSet {
    /// An empty set over a universe of `n` letters.
    pub fn new(n: usize) -> Self {
        let words = if n <= 64 {
            Words::Inline(0)
        } else {
            Words::Heap(vec![0u64; n.div_ceil(64)].into_boxed_slice())
        };
        LetterSet {
            universe: n as u32,
            words,
        }
    }

    /// The full set `{0, …, n−1}`, filled a word at a time.
    pub fn full(n: usize) -> Self {
        let mut s = Self::new(n);
        let full_words = n / 64;
        let tail_bits = n % 64;
        let words = s.words_mut();
        for w in words.iter_mut().take(full_words) {
            *w = !0u64;
        }
        if tail_bits > 0 {
            words[full_words] = (1u64 << tail_bits) - 1;
        }
        s
    }

    /// The set's backing words (an inline set reads as a 1-word slice).
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => std::slice::from_ref(w),
            Words::Heap(b) => b,
        }
    }

    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => std::slice::from_mut(w),
            Words::Heap(b) => b,
        }
    }

    /// Builds a set from indices (any order, duplicates fine).
    pub fn from_indices(n: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut s = Self::new(n);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// The universe size this set was created for.
    pub fn universe(&self) -> usize {
        self.universe as usize
    }

    /// Bytes the set holds on the heap (0 for an inline set).
    pub(crate) fn heap_bytes(&self) -> usize {
        match &self.words {
            Words::Inline(_) => 0,
            Words::Heap(b) => std::mem::size_of_val(&**b),
        }
    }

    /// Inserts letter `i`.
    ///
    /// # Panics
    /// Panics if `i` is outside the universe.
    pub fn insert(&mut self, i: usize) {
        assert!(
            i < self.universe as usize,
            "letter {i} outside universe {}",
            self.universe
        );
        self.words_mut()[i / 64] |= 1u64 << (i % 64);
    }

    /// Removes letter `i` (no-op if absent).
    pub fn remove(&mut self, i: usize) {
        if i < self.universe as usize {
            self.words_mut()[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Whether letter `i` is present.
    pub fn contains(&self, i: usize) -> bool {
        i < self.universe as usize && self.words()[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of letters present (the pattern's L-length).
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no letters are present.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &LetterSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.words()
            .iter()
            .zip(other.words().iter())
            .all(|(&a, &b)| a & !b == 0)
    }

    /// Whether `self ⊇ other`.
    pub fn is_superset(&self, other: &LetterSet) -> bool {
        other.is_subset(self)
    }

    /// Whether the sets share no letters.
    pub fn is_disjoint(&self, other: &LetterSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.words()
            .iter()
            .zip(other.words().iter())
            .all(|(&a, &b)| a & b == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &LetterSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, &b) in self.words_mut().iter_mut().zip(other.words().iter()) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &LetterSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, &b) in self.words_mut().iter_mut().zip(other.words().iter()) {
            *a &= b;
        }
    }

    /// In-place difference (`self \ other`).
    pub fn difference_with(&mut self, other: &LetterSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, &b) in self.words_mut().iter_mut().zip(other.words().iter()) {
            *a &= !b;
        }
    }

    /// `self \ other` as a new set.
    pub fn difference(&self, other: &LetterSet) -> LetterSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// Clears all bits, keeping the allocation.
    pub fn clear(&mut self) {
        for w in self.words_mut().iter_mut() {
            *w = 0;
        }
    }

    /// Iterates present letter indices in ascending order.
    pub fn iter(&self) -> LetterIter<'_> {
        let words = self.words();
        LetterIter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }

    /// The smallest present letter, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// The largest present letter, if any.
    pub fn last(&self) -> Option<usize> {
        let (i, w) = self.words().iter().enumerate().rfind(|(_, &w)| w != 0)?;
        Some(i * 64 + 63 - w.leading_zeros() as usize)
    }
}

/// An open-addressed table from word-slice keys to dense ids, for keys
/// that live elsewhere (a flat arena, a slice of sets): the table holds
/// only `id + 1` per slot and asks the caller for a stored key's words.
///
/// Sized once to at most half full, it never re-homes. A key's words
/// fold through a multiply, and the product's *top* bits pick its home
/// slot (Fibonacci hashing). The top bits matter: a multiply alone
/// leaves the low bits of a one-word key as sparse as the key itself,
/// and a table indexed by low bits would then crowd every letter set
/// into a few buckets.
#[derive(Debug, Clone)]
pub(crate) struct WordSlots {
    /// 0 is an empty slot, else an id + 1.
    slots: Vec<u32>,
    shift: u32,
}

impl WordSlots {
    /// A table with room for `keys` distinct keys.
    pub(crate) fn new(keys: usize) -> Self {
        let len = (2 * keys).next_power_of_two().max(64);
        WordSlots {
            slots: vec![0; len],
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// The id stored under `key` (`Ok`), or the free slot it would take
    /// (`Err`, for [`Self::fill`]). `stored(id)` returns the words of a
    /// key already in the table; every key has the same length.
    #[inline]
    pub(crate) fn find<'k>(
        &self,
        key: &[u64],
        stored: impl Fn(usize) -> &'k [u64],
    ) -> Result<usize, usize> {
        let h = key.iter().fold(0, |h, &w| fold_word(h, w));
        let mask = self.slots.len() - 1;
        let mut at = (h >> self.shift) as usize;
        loop {
            match self.slots[at] {
                0 => return Err(at),
                slot => {
                    let id = slot as usize - 1;
                    if stored(id).iter().zip(key).all(|(a, b)| a == b) {
                        return Ok(id);
                    }
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// Stores `id` in `slot`, a free slot [`Self::find`] returned.
    pub(crate) fn fill(&mut self, slot: usize, id: usize) {
        self.slots[slot] = u32::try_from(id + 1).expect("fewer than 2^32 keys");
    }
}

/// The multiplier of the word fold (2^64 / φ, odd).
const FOLD: u64 = 0x9E37_79B9_7F4A_7C15;

/// One step of the word fold every word-keyed table here hashes with.
#[inline]
fn fold_word(h: u64, w: u64) -> u64 {
    (h.rotate_left(23) ^ w).wrapping_mul(FOLD)
}

/// A `HashMap` keyed by word keys (letter sets) through [`WordHasher`].
pub(crate) type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// The [`WordSlots`] fold as a [`Hasher`]. `HashMap` buckets by the
/// hash's *low* bits, so `finish` folds the high half of one more
/// product into the low half: without it a one-word key's hash keeps
/// the key's sparse low bits.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.0 = fold_word(self.0, u64::from_le_bytes(w));
        }
    }

    fn finish(&self) -> u64 {
        let p = u128::from(self.0) * u128::from(FOLD);
        p as u64 ^ (p >> 64) as u64
    }
}

// Equality and hashing go through the word *slice*, never the storage
// variant, so they are stable across representations by construction.
impl PartialEq for LetterSet {
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe && self.words() == other.words()
    }
}

impl Eq for LetterSet {}

/// Sets order by size, then by their ascending letter lists: the
/// canonical order of a mining result and, among sets of one size, the
/// level order the Apriori join keeps (universes break the remaining
/// ties, so the order agrees with equality).
impl Ord for LetterSet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let by_size = self.len().cmp(&other.len());
        by_size
            .then_with(|| self.iter().cmp(other.iter()))
            .then(self.universe.cmp(&other.universe))
    }
}

impl PartialOrd for LetterSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for LetterSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.universe.hash(state);
        self.words().hash(state);
    }
}

impl fmt::Debug for LetterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Ascending iterator over the letters of a [`LetterSet`].
#[derive(Debug, Clone)]
pub struct LetterIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for LetterIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    #[test]
    fn alphabet_orders_letters_canonically() {
        let a = Alphabet::new(3, [(2, fid(5)), (0, fid(9)), (0, fid(1)), (2, fid(5))]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.letter(0), (0, fid(1)));
        assert_eq!(a.letter(1), (0, fid(9)));
        assert_eq!(a.letter(2), (2, fid(5)));
        assert_eq!(a.period(), 3);
    }

    #[test]
    fn alphabet_index_lookup() {
        let a = Alphabet::new(4, [(1, fid(3)), (1, fid(7)), (3, fid(0))]);
        assert_eq!(a.index_of(1, fid(3)), Some(0));
        assert_eq!(a.index_of(1, fid(7)), Some(1));
        assert_eq!(a.index_of(3, fid(0)), Some(2));
        assert_eq!(a.index_of(1, fid(5)), None);
        assert_eq!(a.index_of(0, fid(3)), None);
        assert_eq!(a.index_of(9, fid(3)), None); // out-of-range offset
    }

    #[test]
    fn letters_at_ranges() {
        let a = Alphabet::new(3, [(0, fid(0)), (0, fid(1)), (2, fid(2))]);
        assert_eq!(a.letters_at(0), 0..2);
        assert_eq!(a.letters_at(1), 2..2);
        assert_eq!(a.letters_at(2), 2..3);
    }

    #[test]
    fn project_instant_sets_present_letters() {
        let a = Alphabet::new(2, [(0, fid(1)), (0, fid(3)), (1, fid(1))]);
        let mut s = a.empty_set();
        a.project_instant(0, &[fid(0), fid(1), fid(2)], &mut s);
        assert!(s.contains(0)); // (0, f1)
        assert!(!s.contains(1)); // f3 absent
        assert!(!s.contains(2)); // wrong offset
        a.project_instant(1, &[fid(1)], &mut s);
        assert!(s.contains(2));
    }

    #[test]
    #[should_panic(expected = "offset")]
    fn alphabet_rejects_out_of_range_offsets() {
        Alphabet::new(2, [(2, fid(0))]);
    }

    #[test]
    fn letterset_basic_ops() {
        let mut s = LetterSet::new(130); // force 3 words
        assert!(s.is_empty());
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert_eq!(s.len(), 3);
        assert!(s.contains(64));
        assert!(!s.contains(63));
        s.remove(64);
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn letterset_subset_relations() {
        let a = LetterSet::from_indices(10, [1, 3, 5]);
        let b = LetterSet::from_indices(10, [1, 3]);
        let c = LetterSet::from_indices(10, [2]);
        assert!(b.is_subset(&a));
        assert!(a.is_superset(&b));
        assert!(!a.is_subset(&b));
        assert!(a.is_subset(&a));
        assert!(c.is_disjoint(&a));
        assert!(!b.is_disjoint(&a));
    }

    #[test]
    fn letterset_algebra() {
        let mut a = LetterSet::from_indices(8, [0, 1, 2]);
        let b = LetterSet::from_indices(8, [2, 3]);
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![2, 3]);
        let d = a.difference(&LetterSet::from_indices(8, [3]));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![2]);
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn letterset_full_and_first() {
        let f = LetterSet::full(70);
        assert_eq!(f.len(), 70);
        assert_eq!(f.first(), Some(0));
        assert_eq!(LetterSet::new(70).first(), None);
    }

    #[test]
    fn letterset_last_crosses_words() {
        assert_eq!(LetterSet::full(70).last(), Some(69));
        assert_eq!(LetterSet::new(70).last(), None);
        for n in [1usize, 63, 64, 65, 130] {
            for top in [0, n / 2, n - 1] {
                assert_eq!(LetterSet::from_indices(n, [0, top]).last(), Some(top));
            }
        }
    }

    #[test]
    fn word_slots_find_what_they_filled() {
        // Two-word keys that differ only in their high word must not
        // collide into one id.
        let keys: Vec<[u64; 2]> = (0..500u64).map(|i| [1, i << 40]).collect();
        let mut slots = WordSlots::new(keys.len());
        for (i, k) in keys.iter().enumerate() {
            let slot = slots.find(k, |j| &keys[j]).unwrap_err();
            slots.fill(slot, i);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(slots.find(k, |j| &keys[j]), Ok(i));
        }
        assert!(slots.find(&[2, 0], |j| &keys[j]).is_err());
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        LetterSet::new(5).insert(5);
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let s = LetterSet::from_indices(200, [63, 64, 127, 128, 199]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![63, 64, 127, 128, 199]);
    }

    #[test]
    fn eq_and_hash_by_content() {
        use std::collections::HashSet;
        let a = LetterSet::from_indices(9, [1, 2]);
        let b = LetterSet::from_indices(9, [2, 1, 1]);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn debug_renders_indices() {
        let s = LetterSet::from_indices(9, [4, 7]);
        assert_eq!(format!("{s:?}"), "{4, 7}");
    }

    #[test]
    fn l_length_counts_distinct_offsets() {
        // Letters 0 and 1 share offset 0; letter 2 sits at offset 2.
        let a = Alphabet::new(3, [(0, fid(1)), (0, fid(2)), (2, fid(3))]);
        assert_eq!(a.l_length_of(&LetterSet::from_indices(3, [0, 1])), 1);
        assert_eq!(a.l_length_of(&LetterSet::from_indices(3, [0, 2])), 2);
        assert_eq!(a.l_length_of(&LetterSet::from_indices(3, [0, 1, 2])), 2);
        assert_eq!(a.l_length_of(&LetterSet::new(3)), 0);
    }

    #[test]
    fn project_instant_empty_inputs_are_noops() {
        let a = Alphabet::new(2, [(0, fid(1))]);
        let mut s = a.empty_set();
        a.project_instant(0, &[], &mut s);
        assert!(s.is_empty());
        a.project_instant(1, &[fid(1)], &mut s); // no letters at offset 1
        assert!(s.is_empty());
    }

    #[test]
    fn inline_and_heap_boundary() {
        // Universe 64 is the last inline size; 65 spills to the heap. Both
        // must behave identically through the whole API.
        for n in [1usize, 63, 64, 65, 128, 129] {
            let full = LetterSet::full(n);
            assert_eq!(full.len(), n, "full({n})");
            assert_eq!(full.iter().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
            let mut s = LetterSet::new(n);
            s.insert(n - 1);
            assert!(s.contains(n - 1));
            assert!(s.is_subset(&full));
            assert!(full.is_superset(&s));
            let mut d = full.clone();
            d.difference_with(&s);
            assert_eq!(d.len(), n - 1);
            assert!(!d.contains(n - 1));
        }
        assert_eq!(LetterSet::full(0).len(), 0);
        assert!(LetterSet::full(0).is_empty());
    }

    #[test]
    fn eq_and_hash_across_sizes() {
        use std::collections::HashSet;
        // Hashing must agree for equal sets regardless of storage variant;
        // the variant is universe-determined, so spot-check both regimes.
        for n in [9usize, 64, 65, 200] {
            let a = LetterSet::from_indices(n, [1, n - 1]);
            let b = LetterSet::from_indices(n, [n - 1, 1, 1]);
            assert_eq!(a, b);
            let mut set = HashSet::new();
            set.insert(a);
            assert!(set.contains(&b));
        }
    }

    #[test]
    fn segment_masks_match_project_instant() {
        let a = Alphabet::new(2, [(0, fid(1)), (0, fid(3)), (1, fid(1)), (1, fid(70))]);
        // Offset 0 holds features {0, 1, 2}, offset 1 feature 1, as
        // one-word rows: feature 70 lies past them and never matches.
        let segment = [0b0111u64, 0b0010];
        let mut enc = a.empty_set();
        a.segment_masks(1).project(&segment, &mut enc);
        let mut raw = a.empty_set();
        a.project_instant(0, &[fid(0), fid(1), fid(2)], &mut raw);
        a.project_instant(1, &[fid(1)], &mut raw);
        assert_eq!(enc, raw);
        assert_eq!(enc.iter().collect::<Vec<_>>(), vec![0, 2]);
        // Two-word rows reach feature 70; the projection overwrites.
        let segment = [0b0111u64, 0, 0b0010, 1 << 6];
        a.segment_masks(2).project(&segment, &mut enc);
        assert_eq!(enc.iter().collect::<Vec<_>>(), vec![0, 2, 3]);
        // An empty segment reads as no features present.
        a.segment_masks(0).project(&[], &mut enc);
        assert!(enc.is_empty());
    }

    #[test]
    fn empty_alphabet_behaves() {
        let a = Alphabet::new(4, std::iter::empty());
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
        assert_eq!(a.full_set().len(), 0);
        assert_eq!(a.index_of(0, fid(0)), None);
        assert_eq!(a.iter().count(), 0);
    }
}
