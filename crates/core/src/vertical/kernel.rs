//! The AND+popcount counting kernels.
//!
//! A candidate's frequency is a k-way AND over a word range of its letter
//! rows followed by a popcount of each word, times that word's weight.
//! The cold [`VerticalIndex`](super::VerticalIndex) lays out each
//! distinct hit once and weights every word by the multiplicity its
//! columns share; the incremental index keeps one column per segment and
//! counts every word once (`Unit`). Those word operations dominate the
//! whole derive phase on dense workloads, so this module provides two
//! interchangeable kernels:
//!
//! * **scalar** — one word at a time with an early exit as soon as the
//!   accumulator goes to zero; the reference implementation every other
//!   path must match bit for bit.
//! * **wide** — two passes per cache block. The AND pass runs unrolled
//!   lanes of `LANES` (8) words over pre-resolved row offsets, with no
//!   data-dependent branch inside a lane block, and stops ANDing a lane
//!   block once it is all zero. The tally pass is one branch-free
//!   `Σ_w weight[w] · popcount(acc[w])` over the whole block
//!   (`Weights::tally`). LLVM auto-vectorizes both to SSE2/AVX2 on
//!   x86-64 (and to NEON on aarch64). An explicit `std::arch` intrinsics
//!   path is deliberately absent: this crate is `#![forbid(unsafe_code)]`,
//!   and the portable loops are the always-correct fallback — the `races`
//!   binary's kernel race (`crates/bench`) measures what the
//!   autovectorizer makes of them.
//!
//! Both kernels count over an arbitrary word *range*: disjoint ranges sum
//! exactly, because every weight is a property of its word. The level
//! counter (`count_level`) counts one cache block at a time that way —
//! over the cold index's whole rows, and over the incremental index's
//! rows or just its dirty ranges.
//!
//! A level's candidates resolve their letter rows into one flat buffer
//! (`LevelBases`), a single candidate's into a fixed inline one
//! (`RowBases`) — no allocation per candidate on the counting hot path.

use std::ops::Range;

use crate::letters::LetterSet;

/// Words processed per unrolled iteration of the wide kernel. Eight
/// `u64`s are 64 bytes — one cache line, two AVX2 vectors — enough
/// straight-line work for the autovectorizer without spilling registers.
pub(crate) const LANES: usize = 8;

/// Words per cache block of batched counting
/// ([`count_level`]): 128 words is 1 KiB of bitmap
/// per letter row, so a whole alphabet's block (`n_letters` KiB) sits in
/// L1/L2 while every candidate of the level is answered against it.
pub(crate) const BLOCK_WORDS: usize = 128;

/// Candidate arities served by the inline buffer; longer patterns (level
/// 33+ of the derivation, which realistic mines never reach) spill to the
/// heap once rather than per candidate.
const INLINE_ARITY: usize = 32;

/// Which counting kernel to run. Both yield bit-identical counts. The
/// vertical derive and the hit-set derive's default bitmap strategy both
/// count on it. Every mine runs the wide kernel unless its
/// [`MineConfig::with_kernel`] asks for the scalar one — which only the
/// audit cross-check, the bit-identity tests and the `races` binary's
/// kernel race do, as the reference the wide kernel is checked against.
///
/// [`MineConfig::with_kernel`]: crate::MineConfig::with_kernel
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// The word-at-a-time reference loop.
    Scalar,
    /// The unrolled 8-word (`LANES`) lane loop.
    #[default]
    Wide,
}

impl Kernel {
    /// The value of the `vertical.kernel` gauge: 0 scalar, 1 wide.
    pub fn gauge_code(self) -> u64 {
        match self {
            Kernel::Scalar => 0,
            Kernel::Wide => 1,
        }
    }
}

/// One candidate's letter rows resolved to word offsets (`letter ·
/// words_per_row`), held inline up to [`INLINE_ARITY`] letters: for
/// every realistic arity a single count resolves its offsets on the
/// stack, and the kernels receive a plain `&[usize]`. A level resolves
/// all of its candidates into one [`LevelBases`] instead.
pub(crate) struct RowBases {
    inline: [usize; INLINE_ARITY],
    len: usize,
    spill: Vec<usize>,
}

impl RowBases {
    /// Resolves `p`'s letters to row word offsets for a row stride of
    /// `words_per_row`.
    pub(crate) fn from_pattern(p: &LetterSet, words_per_row: usize) -> Self {
        let mut bases = RowBases {
            inline: [0; INLINE_ARITY],
            len: 0,
            spill: Vec::new(),
        };
        for letter in p.iter() {
            let base = letter * words_per_row;
            if bases.spill.is_empty() && bases.len < INLINE_ARITY {
                bases.inline[bases.len] = base;
                bases.len += 1;
            } else {
                if bases.spill.is_empty() {
                    bases.spill.extend_from_slice(&bases.inline[..bases.len]);
                }
                bases.spill.push(base);
            }
        }
        bases
    }

    /// The resolved offsets.
    pub(crate) fn as_slice(&self) -> &[usize] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

/// A whole level's candidate row offsets, laid end to end: candidate `i`'s
/// are `rows[ends[i - 1]..ends[i]]`. One buffer for the level instead of
/// one per candidate, so resolving a level of ten thousand candidates
/// touches a few hundred KiB, not megabytes of mostly unused inline
/// slots.
pub(crate) struct LevelBases {
    rows: Vec<usize>,
    ends: Vec<usize>,
}

impl LevelBases {
    /// Collects each candidate's row offsets, in candidate order.
    pub(crate) fn new<C: IntoIterator<Item = usize>>(candidates: impl Iterator<Item = C>) -> Self {
        let mut rows = Vec::new();
        let ends = candidates
            .map(|bases| {
                rows.extend(bases);
                rows.len()
            })
            .collect();
        LevelBases { rows, ends }
    }

    /// Each candidate's offsets, in candidate order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[usize]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.rows[start..end])
    }
}

/// The multiplicity each word's set bits count with, looked up per word.
/// A weight belongs to its word, never to the range that counts it, so
/// word-range partials still sum exactly.
pub(crate) trait Weights: Copy {
    /// The weight of word `w`.
    fn at(self, w: usize) -> u64;

    /// `Σ_i weight(start + i) · popcount(acc_i)`: the tally of a span of
    /// ANDed words from word `start`, a straight loop with no branch per
    /// word that LLVM vectorizes.
    fn tally(self, acc: impl Iterator<Item = u64>, start: usize) -> u64;
}

/// Every column counts once: the incremental index's one column per
/// segment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit;

impl Weights for Unit {
    #[inline]
    fn at(self, _: usize) -> u64 {
        1
    }

    #[inline]
    fn tally(self, acc: impl Iterator<Item = u64>, _: usize) -> u64 {
        acc.map(|a| u64::from(a.count_ones())).sum()
    }
}

/// The cold index's layout: one weight per word, the multiplicity of its
/// columns.
impl Weights for &[u64] {
    #[inline]
    fn at(self, w: usize) -> u64 {
        self[w]
    }

    #[inline]
    fn tally(self, acc: impl Iterator<Item = u64>, start: usize) -> u64 {
        acc.zip(&self[start..])
            .map(|(a, &weight)| weight * u64::from(a.count_ones()))
            .sum()
    }
}

/// The AND of word `w` of the rows at `first` and `rest`, breaking out of
/// the chain as soon as the accumulator is zero; every row ANDed is one
/// `and_ops`.
#[inline]
fn and_word(words: &[u64], first: usize, rest: &[usize], w: usize, and_ops: &mut u64) -> u64 {
    let mut acc = words[first + w];
    *and_ops += 1;
    for &base in rest {
        if acc == 0 {
            break;
        }
        acc &= words[base + w];
        *and_ops += 1;
    }
    acc
}

/// The scalar reference kernel over words `range`: one word at a time,
/// breaking out of the AND chain as soon as the accumulator is zero, each
/// word's popcount multiplied by its weight. `bases` must be non-empty
/// (the empty pattern is the caller's special case).
pub(crate) fn count_scalar<W: Weights>(
    words: &[u64],
    weights: W,
    bases: &[usize],
    range: Range<usize>,
    and_ops: &mut u64,
) -> u64 {
    debug_assert!(!bases.is_empty());
    let (&first, rest) = bases.split_first().expect("non-empty candidate");
    range
        .map(|w| weights.at(w) * u64::from(and_word(words, first, rest, w, and_ops).count_ones()))
        .sum()
}

/// The wide kernel over words `range`: each [`BLOCK_WORDS`] block is
/// ANDed by [`and_lanes`] into a stack buffer and tallied by
/// [`Weights::tally`]. Counts are exactly [`count_scalar`]'s — only the
/// operation order differs.
pub(crate) fn count_wide<W: Weights>(
    words: &[u64],
    weights: W,
    bases: &[usize],
    range: Range<usize>,
    and_ops: &mut u64,
) -> u64 {
    let mut buf = [0u64; BLOCK_WORDS];
    let mut total = 0u64;
    let mut lo = range.start;
    while lo < range.end {
        let hi = (lo + BLOCK_WORDS).min(range.end);
        let acc = &mut buf[..hi - lo];
        and_lanes(words, bases, lo, acc, and_ops);
        total += weights.tally(acc.iter().copied(), lo);
        lo = hi;
    }
    total
}

/// Writes the AND of `bases`' rows at words `start..start + acc.len()`
/// into `acc`: [`LANES`]-word unrolled blocks of branch-free AND lanes
/// (auto-vectorized) that stop ANDing once the OR of all lanes reaches
/// zero, and a sub-block tail of [`and_word`]s.
fn and_lanes(words: &[u64], bases: &[usize], start: usize, acc: &mut [u64], and_ops: &mut u64) {
    debug_assert!(!bases.is_empty());
    let (&first, rest) = bases.split_first().expect("non-empty candidate");
    let mut w = start;
    let mut blocks = acc.chunks_exact_mut(LANES);
    for block in &mut blocks {
        let acc: &mut [u64; LANES] = block.try_into().expect("lane block");
        let mut chain = rest;
        // Fuse the first AND row into the load: low-arity candidates
        // (k = 2–3, the bulk of any level-by-level derive) then run a
        // single load-AND pass plus one OR-reduce instead of a copy pass
        // and a reduce per row.
        match chain.split_first() {
            None => {
                acc.copy_from_slice(&words[first + w..first + w + LANES]);
                *and_ops += LANES as u64;
            }
            Some((&second, tail)) => {
                let a: &[u64; LANES] = words[first + w..first + w + LANES]
                    .try_into()
                    .expect("lane block");
                let b: &[u64; LANES] = words[second + w..second + w + LANES]
                    .try_into()
                    .expect("lane block");
                for i in 0..LANES {
                    acc[i] = a[i] & b[i];
                }
                *and_ops += 2 * LANES as u64;
                chain = tail;
            }
        }
        let mut any = acc.iter().fold(0, |any, &lane| any | lane);
        for &base in chain {
            // An all-zero block stays zero: skip the rest of its chain
            // (common once the AND runs dry).
            if any == 0 {
                break;
            }
            // Fixed-size array views plus split AND / OR-reduce loops:
            // the AND lanes carry no cross-lane dependency, so they
            // vectorize; the reduction collapses to a tree afterwards.
            let src: &[u64; LANES] = words[base + w..base + w + LANES]
                .try_into()
                .expect("lane block");
            for i in 0..LANES {
                acc[i] &= src[i];
            }
            any = acc.iter().fold(0, |any, &lane| any | lane);
            *and_ops += LANES as u64;
        }
        w += LANES;
    }
    for (out, w) in blocks.into_remainder().iter_mut().zip(w..) {
        *out = and_word(words, first, rest, w, and_ops);
    }
}

/// Dispatches one candidate count over `range` to the chosen kernel.
#[inline]
pub(crate) fn count_dispatch<W: Weights>(
    kernel: Kernel,
    words: &[u64],
    weights: W,
    bases: &[usize],
    range: Range<usize>,
    and_ops: &mut u64,
) -> u64 {
    match kernel {
        Kernel::Scalar => count_scalar(words, weights, bases, range, and_ops),
        Kernel::Wide => count_wide(words, weights, bases, range, and_ops),
    }
}

/// Depth-indexed memo of candidate-prefix ANDs over one word range.
///
/// Apriori's join emits each level's candidates in sorted (lexicographic)
/// order, so consecutive candidates share long base prefixes — all
/// extensions of one frequent (k−1)-pattern are adjacent, and successive
/// runs still share their deeper ancestry. The cache keeps, for the
/// previous candidate, the running AND of its first `d+1` prefix rows at
/// every depth `d` (Eclat keeps its DFS tidlist stack the same way). A
/// new candidate reuses the longest common prefix and ANDs only the rows
/// past it, so a whole level's counting does trie-edge many row-ANDs per
/// block instead of Σ arity. No per-depth zero checks: by Apriori every
/// prefix is itself frequent, so its AND is never globally empty.
///
/// The cache also tallies its own engagement — the prefix rows it served
/// and the ones it had to AND — so one derive that owns one cache reports
/// exactly its own reuse (`vertical.prefix_hits` /
/// `vertical.prefix_builds`).
#[derive(Default)]
pub(crate) struct PrefixCache {
    /// Prefix bases of the previous candidate; depth `d` of `store` holds
    /// the AND of rows `key[0..=d]` over `range`.
    key: Vec<usize>,
    /// Word range of the current cache block.
    range: Range<usize>,
    /// Depth-major accumulators: `store[d*BLOCK_WORDS..][..range.len()]`.
    store: Vec<u64>,
    /// Prefix rows served from the cache.
    pub(crate) hits: u64,
    /// Prefix rows ANDed because they differed from the previous
    /// candidate's (or the block changed).
    pub(crate) builds: u64,
}

impl PrefixCache {
    /// How many leading rows of `prefix` the cache already holds.
    fn lcp(&self, prefix: &[usize], range: &Range<usize>) -> usize {
        if self.range != *range {
            return 0;
        }
        self.key
            .iter()
            .zip(prefix)
            .take_while(|&(&a, &b)| a == b)
            .count()
    }

    /// Drops the memoized prefix, keeping the buffers and the tallies:
    /// the next candidate builds its prefix from scratch.
    pub(crate) fn forget(&mut self) {
        self.key.clear();
    }
}

/// [`count_wide`] through the prefix memo: a candidate of arity ≥ 3
/// splits into `bases[..k-1]` — served from `cache`, extending the
/// longest prefix shared with the previous candidate — and a final row
/// ANDed and tallied per candidate. Counts are exactly [`count_scalar`]'s:
/// AND is associative, so reusing a folded prefix is just a
/// reassociation; the in-module `prefixed_*` tests and the vertical
/// engine's seeded `*_count_bit_identically` tests pin this path against
/// the scalar kernel. `and_ops` meters rows actually ANDed (cache hits
/// cost nothing), so it also measures what the memo saves.
pub(crate) fn count_wide_prefixed<W: Weights>(
    words: &[u64],
    weights: W,
    bases: &[usize],
    range: Range<usize>,
    and_ops: &mut u64,
    cache: &mut PrefixCache,
) -> u64 {
    let Some((&last, prefix)) = bases.split_last() else {
        unreachable!("empty candidates are counted by empty_pattern_weight");
    };
    if prefix.len() < 2 {
        // Arity 1–2: the "prefix" is at most one row, so the memo saves
        // nothing over the fused first-AND pass.
        return count_wide(words, weights, bases, range, and_ops);
    }
    let n = range.len();
    debug_assert!(n <= BLOCK_WORDS, "blocked callers never exceed BLOCK_WORDS");
    let depth = prefix.len();
    if cache.store.len() < depth * BLOCK_WORDS {
        cache.store.resize(depth * BLOCK_WORDS, 0);
    }
    let lcp = cache.lcp(prefix, &range);
    let mut d = lcp;
    if d == 0 {
        cache.store[..n].copy_from_slice(&words[prefix[0] + range.start..prefix[0] + range.end]);
        d = 1;
        *and_ops += n as u64;
    }
    while d < depth {
        let row = &words[prefix[d] + range.start..prefix[d] + range.end];
        let (below, at) = cache.store.split_at_mut(d * BLOCK_WORDS);
        let src = &below[(d - 1) * BLOCK_WORDS..(d - 1) * BLOCK_WORDS + n];
        let dst = &mut at[..n];
        for ((out, &a), &b) in dst.iter_mut().zip(src).zip(row) {
            *out = a & b;
        }
        *and_ops += n as u64;
        d += 1;
    }
    cache.hits += lcp as u64;
    cache.builds += (depth - lcp) as u64;
    cache.key.clear();
    cache.key.extend_from_slice(prefix);
    cache.range = range.clone();
    let row = &words[last + range.start..last + range.end];
    let pre = &cache.store[(depth - 1) * BLOCK_WORDS..(depth - 1) * BLOCK_WORDS + n];
    *and_ops += n as u64;
    weights.tally(pre.iter().zip(row).map(|(&a, &b)| a & b), range.start)
}

/// Adds each candidate's count over the word range `range` to `counts`,
/// in one cache-blocked pass: every [`BLOCK_WORDS`] words of the rows are
/// touched once and every candidate answers against them before the next
/// block is loaded, so the block stays hot across the whole level. On the
/// wide kernel, sibling candidates (sorted runs sharing all but their
/// last letter) reuse their prefix ANDs through `cache`, which the pass
/// starts cold and which tallies its reuse across passes; the scalar
/// kernel stays the plain per-candidate reference. A candidate with no
/// rows adds nothing: the empty pattern is its caller's. Counts over
/// disjoint ranges sum exactly.
#[allow(clippy::too_many_arguments)]
pub(crate) fn count_level<W: Weights>(
    kernel: Kernel,
    words: &[u64],
    weights: W,
    level: &LevelBases,
    range: Range<usize>,
    counts: &mut [u64],
    and_ops: &mut u64,
    cache: &mut PrefixCache,
) {
    cache.forget();
    for lo in range.clone().step_by(BLOCK_WORDS) {
        let block = lo..(lo + BLOCK_WORDS).min(range.end);
        for (count, bases) in counts.iter_mut().zip(level.iter()) {
            let block = block.clone();
            *count += match kernel {
                _ if bases.is_empty() => 0,
                Kernel::Scalar => count_scalar(words, weights, bases, block, and_ops),
                Kernel::Wide => count_wide_prefixed(words, weights, bases, block, and_ops, cache),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic splitmix-ish word stream.
    fn words(n: usize, seed: u64) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x ^ (x >> 29)
            })
            .collect()
    }

    #[test]
    fn wide_is_the_default_and_gauge_codes_are_stable() {
        assert_eq!(Kernel::default(), Kernel::Wide);
        assert_eq!(Kernel::Scalar.gauge_code(), 0);
        assert_eq!(Kernel::Wide.gauge_code(), 1);
    }

    #[test]
    fn row_bases_stay_inline_for_realistic_arity() {
        let p = LetterSet::from_indices(40, [0, 3, 7, 31, 39]);
        let bases = RowBases::from_pattern(&p, 10);
        assert_eq!(bases.as_slice(), &[0, 30, 70, 310, 390]);
        assert!(bases.spill.is_empty());
    }

    #[test]
    fn row_bases_spill_past_inline_capacity() {
        let p = LetterSet::from_indices(40, 0..40);
        let bases = RowBases::from_pattern(&p, 2);
        assert_eq!(bases.as_slice().len(), 40);
        assert_eq!(bases.as_slice()[39], 78);
        assert!(!bases.spill.is_empty());
    }

    #[test]
    fn wide_matches_scalar_on_every_range_split() {
        // 3 letter rows over 37 words (not a multiple of LANES), counted
        // over assorted sub-ranges including mid-block splits.
        let wpr = 37;
        let store = words(3 * wpr, 0x1234);
        let bases = [0, wpr, 2 * wpr];
        for range in [0..37, 0..8, 3..13, 8..16, 5..37, 17..23, 36..37, 12..12] {
            let mut ops_a = 0u64;
            let mut ops_b = 0u64;
            let a = count_scalar(&store, Unit, &bases, range.clone(), &mut ops_a);
            let b = count_wide(&store, Unit, &bases, range.clone(), &mut ops_b);
            assert_eq!(a, b, "range {range:?}");
        }
    }

    #[test]
    fn prefixed_matches_scalar_across_sorted_candidate_runs() {
        // A lex-sorted stream of candidates over 6 rows, the order the
        // Apriori join emits: long shared prefixes, prefix changes at
        // every depth, arity-2 fallthroughs, and a candidate repeated
        // verbatim (lcp == depth). Counted per block like the level
        // loops, so the cache also crosses block boundaries.
        let wpr = 37;
        let store = words(6 * wpr, 0xBEEF);
        let r = |i: usize| i * wpr;
        let cands: Vec<Vec<usize>> = vec![
            vec![r(0), r(1)],
            vec![r(0), r(1), r(2)],
            vec![r(0), r(1), r(2), r(3)],
            vec![r(0), r(1), r(2), r(3), r(5)],
            vec![r(0), r(1), r(2), r(4)],
            vec![r(0), r(1), r(2), r(4)],
            vec![r(0), r(2), r(3)],
            vec![r(1), r(2), r(3), r(4), r(5)],
        ];
        let mut cache = PrefixCache::default();
        for block in [0..8, 8..16, 16..24, 24..32, 32..37] {
            for bases in &cands {
                let mut ops_a = 0u64;
                let mut ops_b = 0u64;
                let a = count_scalar(&store, Unit, bases, block.clone(), &mut ops_a);
                let b =
                    count_wide_prefixed(&store, Unit, bases, block.clone(), &mut ops_b, &mut cache);
                assert_eq!(a, b, "bases {bases:?} block {block:?}");
            }
        }
    }

    #[test]
    fn prefixed_reuses_rows_instead_of_rebuilding() {
        // Two siblings sharing a 3-row prefix: the second candidate must
        // AND only its final row, so its metered work is one row's words.
        let wpr = 16;
        let store = words(5 * wpr, 0x5EED);
        let mut cache = PrefixCache::default();
        let mut ops = 0u64;
        count_wide_prefixed(
            &store,
            Unit,
            &[0, wpr, 2 * wpr, 3 * wpr],
            0..wpr,
            &mut ops,
            &mut cache,
        );
        assert_eq!(ops, 4 * wpr as u64, "cold build ANDs every row");
        ops = 0;
        count_wide_prefixed(
            &store,
            Unit,
            &[0, wpr, 2 * wpr, 4 * wpr],
            0..wpr,
            &mut ops,
            &mut cache,
        );
        assert_eq!(ops, wpr as u64, "sibling reuses the cached prefix");
    }

    /// The wide kernels against the scalar one and a naive tally over
    /// ranges of 0, 1, 7, 8, 9, 127 and 128 words — empty, inside one
    /// lane block, a lane block and either side of it, a cache block and
    /// one word short — at arities 1–4, with unit weights and with
    /// per-word weights, some past `u32::MAX`.
    #[test]
    fn wide_tally_matches_scalar_at_lane_and_block_edges() {
        let wpr = 131;
        let store = words(4 * wpr, 0xC0FFEE);
        let weighted: Vec<u64> = words(wpr, 0x7A11)
            .into_iter()
            .map(|x| if x % 3 == 0 { x >> 24 } else { x % 1000 })
            .collect();
        assert!(weighted.iter().any(|&w| w > u64::from(u32::MAX)));
        let naive = |bases: &[usize], range: Range<usize>, weight: &dyn Fn(usize) -> u64| {
            range
                .map(|w| {
                    let acc = bases.iter().fold(u64::MAX, |acc, &b| acc & store[b + w]);
                    weight(w) * u64::from(acc.count_ones())
                })
                .sum::<u64>()
        };
        for arity in 1..=4 {
            let bases: Vec<usize> = (0..arity).map(|i| i * wpr).collect();
            for len in [0, 1, 7, 8, 9, 127, 128] {
                for start in [0, 3] {
                    let range = start..start + len;
                    let case = format!("arity {arity}, range {range:?}");
                    let mut ops = 0u64;
                    let want = naive(&bases, range.clone(), &|_| 1);
                    let scalar = count_scalar(&store, Unit, &bases, range.clone(), &mut ops);
                    let wide = count_wide(&store, Unit, &bases, range.clone(), &mut ops);
                    let prefixed = count_wide_prefixed(
                        &store,
                        Unit,
                        &bases,
                        range.clone(),
                        &mut ops,
                        &mut PrefixCache::default(),
                    );
                    assert_eq!((scalar, wide, prefixed), (want, want, want), "{case} unit");
                    let weights = &weighted[..];
                    let want = naive(&bases, range.clone(), &|w| weighted[w]);
                    let scalar = count_scalar(&store, weights, &bases, range.clone(), &mut ops);
                    let wide = count_wide(&store, weights, &bases, range.clone(), &mut ops);
                    let prefixed = count_wide_prefixed(
                        &store,
                        weights,
                        &bases,
                        range.clone(),
                        &mut ops,
                        &mut PrefixCache::default(),
                    );
                    assert_eq!(
                        (scalar, wide, prefixed),
                        (want, want, want),
                        "{case} weighted"
                    );
                }
            }
        }
    }

    #[test]
    fn early_exit_does_not_change_counts() {
        // Two disjoint rows: the AND is all-zero everywhere, exercising
        // both kernels' early exits.
        let wpr = 24;
        let mut store = vec![0u64; 2 * wpr];
        for w in 0..wpr {
            store[w] = 0xAAAA_AAAA_AAAA_AAAA;
            store[wpr + w] = 0x5555_5555_5555_5555;
        }
        let bases = [0, wpr];
        let mut ops = 0u64;
        assert_eq!(count_scalar(&store, Unit, &bases, 0..wpr, &mut ops), 0);
        assert_eq!(count_wide(&store, Unit, &bases, 0..wpr, &mut ops), 0);
    }

    #[test]
    fn disjoint_ranges_sum_to_the_whole() {
        let wpr = 41;
        let store = words(2 * wpr, 9);
        let bases = [0, wpr];
        let mut ops = 0u64;
        let whole = count_wide(&store, Unit, &bases, 0..wpr, &mut ops);
        let parts: u64 = [0..5, 5..8, 8..40, 40..41]
            .into_iter()
            .map(|r| count_wide(&store, Unit, &bases, r, &mut ops))
            .sum();
        assert_eq!(whole, parts);
    }
}
