//! The vertical (columnar) counting engine.
//!
//! The hit-set method (paper Algorithm 3.2) pays for its two-scan guarantee
//! in the derivation phase: one pruned trie traversal per Apriori
//! candidate. This module transposes that work. Scan 2 folds each
//! segment's hit into a multiset of **distinct hits** (no tree), and lays
//! them out as columns of per-letter bitmaps: bit `c` of a letter's row is
//! set iff distinct hit `c` contains the letter. Columns are sorted by
//! multiplicity and each equal-multiplicity group starts on a word
//! boundary, so every word carries one weight, and the frequency of any
//! k-letter candidate is a k-way AND per word followed by a popcount
//! times that word's weight. The frequent set is identical to the hit-set
//! and Apriori miners' (Property 3.1 is independent of how counting is
//! done); only the counting substrate changes.
//!
//! Distinct hits are what the paper's §3.1.2 counts from: on the Table-1
//! workload a period-30 mine over 53 333 segments sees about 4 100 of
//! them, so a row is ~112 words instead of 834. On noisy data where nearly
//! every segment is its own hit the layout degrades to one weight-1 group
//! — one column per segment, as a plain segment bitmap would be.
//!
//! The AND+popcount itself runs on an 8-word unrolled wide kernel the
//! autovectorizer turns into SIMD; the scalar reference loop it must
//! match bit for bit stays selectable through
//! [`MineConfig::with_kernel`](crate::MineConfig::with_kernel) for the
//! audit and the bit-identity tests (see [`kernel`]). Candidates are
//! counted a whole derivation level at a time against cache-sized blocks
//! of the bitmaps, on the calling thread: a sweep parallelizes across
//! periods instead. The hit-set engine's default derive lays its tree's
//! hits out as a [`VerticalIndex`] and counts them through the same level
//! loop and kernel. The incremental index ([`incremental`]) keeps one
//! column per segment, because it updates columns in place as segments
//! append and evict.
//!
//! Memory: `n_L` rows of one bit per distinct hit plus one weight per
//! word, reported via the `vertical.bitmap_bytes` gauge next to
//! `vertical.distinct_hits` and `vertical.words_per_row`.

pub mod incremental;
pub mod kernel;

use std::ops::{ControlFlow, Range};

use ppm_timeseries::{EncodedSeriesView, FeatureSeries};

use crate::apriori::join_candidates;
use crate::error::Result;
use crate::guard::ResourceGuard;
use crate::hitset::derive::derive_frequent_batched;
use crate::letters::{LetterSet, WordSlots};
use crate::result::{FrequentPattern, MiningResult};
use crate::rows::{Input, Passes};
use crate::scan::{MineConfig, Scan1};
use crate::stats::MiningStats;

pub use kernel::Kernel;
use kernel::{count_dispatch, LevelBases, PrefixCache, RowBases};

/// Folds hits of `stride` words each, laid end to end in `hits`, into
/// the distinct hits and their multiplicities: `(keys, counts)`, key `i`
/// being `keys[i * stride..(i + 1) * stride]`, in first-seen order. One
/// [`WordSlots`] table sized for every hit being distinct — no tree, no
/// SipHash, no allocation per hit.
fn count_hits(hits: &[u64], stride: usize) -> (Vec<u64>, Vec<u64>) {
    let mut keys = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    let mut slots = WordSlots::new(hits.len() / stride);
    for key in hits.chunks_exact(stride) {
        match slots.find(key, |i| &keys[i * stride..(i + 1) * stride]) {
            Ok(i) => counts[i] += 1,
            Err(slot) => {
                slots.fill(slot, counts.len());
                keys.extend_from_slice(key);
                counts.push(1);
            }
        }
    }
    (keys, counts)
}

/// Per-letter bitmaps over the **distinct hits** of a segment pass: each
/// column is one distinct hit, bit `c` of a letter's row is set iff hit
/// `c` contains the letter, and every word carries the one multiplicity
/// its columns share.
///
/// Columns are sorted by multiplicity, and each group of equal
/// multiplicity starts on a word boundary, so one weight per word is
/// exact and weights never increase along a row. A pattern's count is
/// `Σ_w weight[w] · popcount(AND of its rows at word w)` — the hit-set
/// method's recovery of every count from the max-subpattern hits (paper
/// §3.1.2), answered by AND + popcount instead of a tree walk.
#[derive(Debug, Clone)]
pub struct VerticalIndex {
    n_letters: usize,
    n_columns: usize,
    words_per_row: usize,
    /// Row-major: `words[letter * words_per_row + w]`.
    words: Vec<u64>,
    /// Per word: the multiplicity of its columns.
    weights: Vec<u64>,
    /// Per word: its column count (64 except at a group's end).
    fills: Vec<u8>,
    /// The counts of the empty pattern and of each single letter over
    /// the whole multiset, which includes hits too short to lay out.
    segments: u64,
    letter_totals: Vec<u64>,
}

impl VerticalIndex {
    /// Lays out hit `i` — words `keys[i * stride..(i + 1) * stride]` of
    /// its letter set, multiplicity `counts[i]` — as count-sorted,
    /// word-aligned groups, each group in hit order. `segments` and
    /// `letter_totals` answer the patterns of fewer than two letters.
    fn lay_out(
        n_letters: usize,
        stride: usize,
        keys: &[u64],
        counts: &[u64],
        segments: u64,
        letter_totals: Vec<u64>,
    ) -> Self {
        // Column order: stable by descending count, so on noisy data the
        // one weight-1 group keeps first-seen (segment) order.
        let mut order: Vec<usize> = (0..counts.len()).filter(|&i| counts[i] > 0).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
        let mut weights = Vec::new();
        let mut fills = Vec::new();
        // (first column, columns) of every 64-column chunk, in word order.
        let mut chunks = Vec::new();
        let mut start = 0;
        while start < order.len() {
            let weight = counts[order[start]];
            let len = order[start..]
                .iter()
                .take_while(|&&i| counts[i] == weight)
                .count();
            for at in (start..start + len).step_by(64) {
                let n = (start + len - at).min(64);
                chunks.push((at, n));
                weights.push(weight);
                fills.push(n as u8);
            }
            start += len;
        }
        let words_per_row = weights.len();
        let mut words = vec![0u64; n_letters * words_per_row];
        // Each chunk of up to 64 hits is a 64×64 bit matrix per key word;
        // its transpose is the chunk's word of 64 letter rows at once.
        let mut block = [0u64; 64];
        for (w, &(at, n)) in chunks.iter().enumerate() {
            for (kw, first_letter) in (0..n_letters).step_by(64).enumerate() {
                block.fill(0);
                for (row, &i) in block.iter_mut().zip(&order[at..at + n]) {
                    *row = keys[i * stride + kw];
                }
                transpose64(&mut block);
                for (letter, &bits) in (first_letter..n_letters).zip(&block) {
                    words[letter * words_per_row + w] = bits;
                }
            }
        }
        VerticalIndex {
            n_letters,
            n_columns: order.len(),
            words_per_row,
            words,
            weights,
            fills,
            segments,
            letter_totals,
        }
    }

    /// Builds an index over an explicit multiset of hits — borrowed
    /// `(letter set, multiplicity)` pairs, duplicates allowed: the
    /// max-subpattern tree's nodes for the hit-set derive, or fabricated
    /// group geometries for the kernel tests.
    ///
    /// # Panics
    /// Panics if a hit's universe differs from `n_letters`.
    pub fn from_hits<'a>(
        n_letters: usize,
        hits: impl IntoIterator<Item = (&'a LetterSet, u64)>,
    ) -> Self {
        let mut segments = 0;
        let mut letter_totals = vec![0u64; n_letters];
        let mut keys = Vec::new();
        let mut counts = Vec::new();
        for (set, count) in hits {
            assert_eq!(set.universe(), n_letters, "hit universe mismatch");
            segments += count;
            for letter in set.iter() {
                letter_totals[letter] += count;
            }
            keys.extend_from_slice(set.words());
            counts.push(count);
        }
        let stride = n_letters.div_ceil(64).max(1);
        Self::lay_out(n_letters, stride, &keys, &counts, segments, letter_totals)
    }

    /// [`Self::from_hits`] with every column counting once: one weight-1
    /// group of `columns.len()` columns.
    ///
    /// # Panics
    /// Panics if a column's universe differs from `n_letters`.
    pub fn from_columns(n_letters: usize, columns: &[LetterSet]) -> Self {
        Self::from_hits(n_letters, columns.iter().map(|set| (set, 1)))
    }

    /// Scan 2 of the vertical engine: one segment pass collecting every
    /// hit of at least two letters, folded into the distinct-hit multiset
    /// and laid out. Shorter hits cannot contain a derive candidate, and
    /// scan 1 already counted them. The pass polls the deadline; an abort
    /// carries `stats` as partial progress.
    pub(crate) fn from_segments(
        passes: &mut Passes<'_>,
        scan1: &Scan1,
        stats: &mut MiningStats,
    ) -> Result<Self> {
        let n_letters = scan1.alphabet.len();
        let stride = n_letters.div_ceil(64).max(1);
        // The pass only appends, so it stays a sequential stream; the
        // random-access counting runs after it, in cache.
        let mut seen = Vec::with_capacity(scan1.segment_count * stride);
        let flow = passes.segments(scan1, |_, hit| {
            if hit.len() >= 2 {
                seen.extend_from_slice(hit.words());
            }
            ControlFlow::Continue(())
        })?;
        passes.settle(flow, stats)?;
        let (keys, counts) = count_hits(&seen, stride);
        drop(seen);
        Ok(Self::lay_out(
            n_letters,
            stride,
            &keys,
            &counts,
            scan1.segment_count as u64,
            scan1.letter_counts.clone(),
        ))
    }

    /// The number of segments whose hit is a superpattern of `p` —
    /// i.e. `p`'s frequency count — on the wide kernel.
    pub fn count(&self, p: &LetterSet) -> u64 {
        self.count_with_kernel(p, Kernel::Wide, &mut 0)
    }

    /// [`Self::count`] on an explicitly chosen kernel, accumulating the
    /// word-level AND operations into `and_ops` — the entry point the
    /// bit-identity tests drive. A pattern of fewer than two letters is
    /// answered from the multiset's totals.
    pub fn count_with_kernel(&self, p: &LetterSet, kernel: Kernel, and_ops: &mut u64) -> u64 {
        debug_assert_eq!(p.universe(), self.n_letters);
        match p.first() {
            None => return self.segments,
            Some(letter) if p.len() == 1 => return self.letter_totals[letter],
            Some(_) => {}
        }
        let bases = RowBases::from_pattern(p, self.words_per_row);
        count_dispatch(
            kernel,
            &self.words,
            &self.weights[..],
            bases.as_slice(),
            0..self.words_per_row,
            and_ops,
        )
    }

    /// [`Self::count_level_cached`] with a prefix cache of its own.
    #[cfg(test)]
    pub(crate) fn count_level(
        &self,
        candidates: &[LetterSet],
        words: Range<usize>,
        kernel: Kernel,
        and_ops: &mut u64,
    ) -> Vec<u64> {
        let mut cache = PrefixCache::default();
        self.count_level_cached(candidates, words, kernel, and_ops, &mut cache)
    }

    /// Counts a whole derivation level's candidates over the word range
    /// `words` in one cache-blocked pass of [`kernel::count_level`].
    /// Counts over disjoint ranges sum exactly.
    fn count_level_cached(
        &self,
        candidates: &[LetterSet],
        words: Range<usize>,
        kernel: Kernel,
        and_ops: &mut u64,
        cache: &mut PrefixCache,
    ) -> Vec<u64> {
        let wpr = self.words_per_row;
        let level = LevelBases::new(candidates.iter().map(|p| p.iter().map(|l| l * wpr)));
        // The empty pattern has no row to AND: it counts every column.
        let mut totals: Vec<u64> = candidates
            .iter()
            .map(|p| {
                if p.is_empty() {
                    self.empty_pattern_weight(words.clone())
                } else {
                    0
                }
            })
            .collect();
        kernel::count_level(
            kernel,
            &self.words,
            &self.weights[..],
            &level,
            words,
            &mut totals,
            and_ops,
            cache,
        );
        totals
    }

    /// The empty pattern's count restricted to a word range: the
    /// multiplicity of the columns laid out in those words — every
    /// column is a superpattern of the empty pattern.
    fn empty_pattern_weight(&self, words: Range<usize>) -> u64 {
        self.weights[words.clone()]
            .iter()
            .zip(&self.fills[words])
            .map(|(&weight, &fill)| weight * u64::from(fill))
            .sum()
    }

    /// The level-wise derive over this index — the one counter of both
    /// cold two-scan engines: the vertical engine's scan-2 index, and the
    /// hit-set engine's tree laid out as one. Each level is counted in one
    /// cache-blocked batch on `kernel`. Appends the frequent patterns of
    /// two or more letters to `frequent` and updates `stats`; returns the
    /// AND operations and the prefix cache's tallies for the caller's
    /// gauges, and emits none itself.
    pub(crate) fn derive_levels(
        &self,
        scan1: &Scan1,
        kernel: Kernel,
        frequent: &mut Vec<FrequentPattern>,
        stats: &mut MiningStats,
    ) -> (u64, PrefixCache) {
        let mut and_ops = 0u64;
        let mut cache = PrefixCache::default();
        derive_frequent_batched(
            join_candidates,
            |sets| {
                let words = 0..self.words_per_row;
                self.count_level_cached(sets, words, kernel, &mut and_ops, &mut cache)
            },
            scan1,
            frequent,
            stats,
        );
        (and_ops, cache)
    }

    /// Number of letter rows.
    pub fn n_letters(&self) -> usize {
        self.n_letters
    }

    /// Number of counting columns (distinct hits laid out).
    pub fn n_columns(&self) -> usize {
        self.n_columns
    }

    /// Words per bitmap row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Index size in bytes: the bitmap words plus one weight per word.
    pub fn bitmap_bytes(&self) -> usize {
        (self.words.len() + self.weights.len()) * 8
    }
}

/// Transposes a 64×64 bit matrix in place — bit `c` of `m[r]` moves to
/// bit `r` of `m[c]` — by swapping the off-diagonal halves of ever
/// smaller blocks: six rounds of 32 masked swaps.
fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            for r in k..k + j {
                let t = ((m[r] >> j) ^ m[r + j]) & mask;
                m[r] ^= t << j;
                m[r + j] ^= t;
            }
            k += 2 * j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Mines all frequent partial periodic patterns of `period` in `series`
/// with the vertical engine: scan 1 as in Algorithm 3.2, then a second
/// scan that lays out the distinct hits as weighted per-letter bitmaps
/// instead of a max-subpattern tree, and a derivation phase of word-wide
/// AND + weighted popcount per candidate.
///
/// Exactly two scans of the series, like the hit-set miner, and the same
/// result bit for bit — the audit cross-check enforces this.
pub fn mine_vertical(
    series: &FeatureSeries,
    period: usize,
    config: &MineConfig,
) -> Result<MiningResult> {
    mine_vertical_input(series.into(), period, config)
}

/// [`mine_vertical`] over a borrowed bitmap view — the zero-materialization
/// path for columnar (`.ppmc`) input: both scans probe the packed rows
/// directly, so no [`FeatureSeries`] is ever built.
pub fn mine_vertical_view(
    view: EncodedSeriesView<'_>,
    period: usize,
    config: &MineConfig,
) -> Result<MiningResult> {
    mine_vertical_input(view.into(), period, config)
}

/// Both vertical scans and the derive over any [`Input`].
pub(crate) fn mine_vertical_input(
    input: Input<'_>,
    period: usize,
    config: &MineConfig,
) -> Result<MiningResult> {
    let _mine_span = ppm_observe::span("vertical.mine");
    let mut passes = Passes::new(input, ResourceGuard::new(config), "vertical.segments");

    // Scan 1: frequent 1-patterns and C_max (shared with the other engines).
    let scan1 = {
        let _span = ppm_observe::span("vertical.scan1");
        passes.scan1(period, config)?
    };
    ppm_observe::gauge("vertical.segments_total", scan1.segment_count as u64);
    ppm_observe::gauge("vertical.f1_letters", scan1.alphabet.len() as u64);
    let mut stats = MiningStats {
        max_level: 1,
        ..Default::default()
    };
    passes.settle(passes.deadline(), &mut stats)?;

    // Scan 2: distinct hits as weighted per-letter bitmaps, not a tree.
    let index = {
        let _span = ppm_observe::span("vertical.scan2");
        VerticalIndex::from_segments(&mut passes, &scan1, &mut stats)?
    };
    ppm_observe::gauge("vertical.distinct_hits", index.n_columns() as u64);
    ppm_observe::gauge("vertical.words_per_row", index.words_per_row() as u64);
    ppm_observe::gauge("vertical.bitmap_bytes", index.bitmap_bytes() as u64);

    // Derivation: 1-letter counts from scan 1, the rest by AND + weighted
    // popcount.
    let frequent = {
        let _span = ppm_observe::span("vertical.derive");
        derive_vertical(&index, &scan1, &mut stats, config.kernel())
    };
    Ok(scan1.into_result(config, frequent, stats))
}

/// The vertical derivation phase: seeds the 1-letter patterns from scan-1
/// counts, then runs [`VerticalIndex::derive_levels`]. Reports the
/// kernel, the AND operations and the prefix-cache engagement as gauges.
fn derive_vertical(
    index: &VerticalIndex,
    scan1: &Scan1,
    stats: &mut MiningStats,
    kernel: Kernel,
) -> Vec<FrequentPattern> {
    let mut frequent = scan1.seed_singletons();
    let (and_ops, cache) = index.derive_levels(scan1, kernel, &mut frequent, stats);
    ppm_observe::gauge("vertical.kernel", kernel.gauge_code());
    ppm_observe::gauge("vertical.and_ops", and_ops);
    ppm_observe::gauge("vertical.prefix_builds", cache.builds);
    ppm_observe::gauge("vertical.prefix_hits", cache.hits);
    frequent
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::{EncodedSeries, FeatureCatalog, FeatureId, SeriesBuilder};

    use crate::error::Error;
    use crate::pattern::Pattern;
    use crate::scan_frequent_letters;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    /// The paper's §2 example series "a{b,c}b aeb ace d", period 3.
    fn example_series(cat: &mut FeatureCatalog) -> FeatureSeries {
        let a = cat.intern("a");
        let b = cat.intern("b");
        let c = cat.intern("c");
        let e = cat.intern("e");
        let d = cat.intern("d");
        let mut builder = SeriesBuilder::new();
        builder.push_instant([a]);
        builder.push_instant([b, c]);
        builder.push_instant([b]);
        builder.push_instant([a]);
        builder.push_instant([e]);
        builder.push_instant([b]);
        builder.push_instant([a]);
        builder.push_instant([c]);
        builder.push_instant([e]);
        builder.push_instant([d]);
        builder.finish()
    }

    fn busy_series(n: usize, features: u32) -> FeatureSeries {
        let mut b = SeriesBuilder::new();
        let mut x: u64 = 7;
        for _ in 0..n {
            let mut inst = Vec::new();
            for f in 0..features {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                if (x >> 33).is_multiple_of(2) {
                    inst.push(fid(f));
                }
            }
            b.push_instant(inst);
        }
        b.finish()
    }

    /// Scan 2 of the vertical engine over `series`, unguarded.
    fn segment_index(series: &FeatureSeries, scan1: &Scan1) -> VerticalIndex {
        let mut passes = Passes::new(series.into(), ResourceGuard::unlimited(), "test.segments");
        VerticalIndex::from_segments(&mut passes, scan1, &mut MiningStats::default()).unwrap()
    }

    #[test]
    fn mines_paper_example_identically_to_hitset() {
        let mut cat = FeatureCatalog::new();
        let series = example_series(&mut cat);
        let config = MineConfig::new(0.6).unwrap();
        let vertical = mine_vertical(&series, 3, &config).unwrap();
        let hitset = crate::hitset::mine(&series, 3, &config).unwrap();
        assert_eq!(vertical.frequent, hitset.frequent);
        assert_eq!(vertical.segment_count, hitset.segment_count);
        assert_eq!(vertical.min_count, hitset.min_count);
        let a_star_b = Pattern::parse("a * b", &mut cat).unwrap();
        assert_eq!(vertical.count_of(&a_star_b), Some(2));
    }

    #[test]
    fn two_scans_and_no_tree() {
        let series = busy_series(600, 4);
        let result = mine_vertical(&series, 6, &MineConfig::new(0.3).unwrap()).unwrap();
        assert_eq!(result.stats.series_scans, 2);
        assert_eq!(result.stats.tree_nodes, 0);
        assert_eq!(result.stats.distinct_hits, 0);
        assert_eq!(result.stats.hit_insertions, 0);
        assert!(result.stats.subset_tests > 0);
    }

    #[test]
    fn matches_hitset_on_busy_series() {
        for (n, p, conf) in [(400, 8, 0.2), (600, 6, 0.4), (900, 5, 0.6)] {
            let series = busy_series(n, 4);
            let config = MineConfig::new(conf).unwrap();
            let vertical = mine_vertical(&series, p, &config).unwrap();
            let hitset = crate::hitset::mine(&series, p, &config).unwrap();
            assert_eq!(vertical.frequent, hitset.frequent, "n={n} p={p}");
        }
    }

    #[test]
    fn scalar_and_wide_kernels_mine_identically() {
        let series = busy_series(900, 5);
        for p in [4, 7] {
            let scalar = mine_vertical(
                &series,
                p,
                &MineConfig::new(0.25).unwrap().with_kernel(Kernel::Scalar),
            )
            .unwrap();
            let wide = mine_vertical(
                &series,
                p,
                &MineConfig::new(0.25).unwrap().with_kernel(Kernel::Wide),
            )
            .unwrap();
            assert_eq!(scalar.frequent, wide.frequent, "period {p}");
            assert_eq!(scalar.stats, wide.stats, "period {p}");
        }
    }

    #[test]
    fn explicit_kernels_count_identically_across_widths() {
        // Column counts straddling the word boundary, empty pattern
        // included.
        for n_cols in [63, 64, 65, 1000] {
            let mut x = 0x5eedu64;
            let columns: Vec<LetterSet> = (0..n_cols)
                .map(|_| {
                    let mut s = LetterSet::new(7);
                    for l in 0..7 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        if (x >> 33).is_multiple_of(3) {
                            s.insert(l);
                        }
                    }
                    s
                })
                .collect();
            let index = VerticalIndex::from_columns(7, &columns);
            let patterns = [
                LetterSet::new(7),
                LetterSet::from_indices(7, [2]),
                LetterSet::from_indices(7, [0, 4]),
                LetterSet::from_indices(7, [1, 3, 5, 6]),
            ];
            for p in &patterns {
                let mut ops = 0u64;
                let a = index.count_with_kernel(p, Kernel::Scalar, &mut ops);
                let b = index.count_with_kernel(p, Kernel::Wide, &mut ops);
                assert_eq!(a, b, "n_cols={n_cols} p={p:?}");
            }
        }
    }

    /// splitmix64: a deterministic draw stream for the randomized checks.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Up to `max_len` draws from `0..23`, kept if below `n_letters`.
        fn letters(&mut self, n_letters: usize, max_len: usize) -> LetterSet {
            let len = self.below(max_len + 1);
            let picks: Vec<usize> = (0..len).map(|_| self.below(23)).collect();
            LetterSet::from_indices(n_letters, picks.into_iter().filter(|&i| i < n_letters))
        }
    }

    /// Whole-row counts equal the naive count, and word-range partials
    /// sum to it exactly wherever the cuts land, on both kernels.
    #[test]
    fn kernels_and_shards_count_bit_identically() {
        // Column counts straddling the u64 word boundary are where lane
        // and tail handling can silently diverge; 63/64/65 hit exactly the
        // word-edge cases, 130+ exercises multi-word rows and 577+ whole
        // LANES-word blocks ahead of the tail.
        let mut rng = SplitMix(0x5eed_c0de);
        for case in 0..96 {
            let n_letters = 1 + rng.below(23);
            let n_columns = [63, 64, 65, 130, 577][rng.below(5)] + rng.below(70);
            let palette: Vec<LetterSet> = (0..1 + rng.below(139))
                .map(|_| rng.letters(n_letters, 5))
                .collect();
            let cols: Vec<LetterSet> = (0..n_columns)
                .map(|c| palette[c % palette.len()].clone())
                .collect();
            let index = VerticalIndex::from_columns(n_letters, &cols);
            // The empty pattern is a legal candidate (subpattern of every
            // column) and skips the AND loop entirely — always probe it.
            let empty = LetterSet::new(n_letters);
            // Every other case thins a column's own letters, so the
            // pattern (and its siblings) count more than zero.
            let pattern = if case % 2 == 0 {
                rng.letters(n_letters, 5)
            } else {
                let col = &palette[rng.below(palette.len())];
                LetterSet::from_indices(n_letters, col.iter().filter(|_| rng.below(4) != 0))
            };
            let split = 1 + rng.below(7);

            for p in [&empty, &pattern] {
                // Ground truth straight from the column sets.
                let naive = cols.iter().filter(|col| p.is_subset(col)).count() as u64;
                let bases = RowBases::from_pattern(p, index.words_per_row());
                for kernel in [Kernel::Scalar, Kernel::Wide] {
                    let mut ops = 0u64;
                    let whole = index.count_with_kernel(p, kernel, &mut ops);
                    assert_eq!(whole, naive, "case {case} {kernel:?} {p:?}");

                    // Word-range partials must sum exactly no matter where
                    // the cuts land — including mid-word-block splits.
                    let words = index.words_per_row();
                    let cut = (words / split.min(words)).max(1);
                    let mut summed = 0u64;
                    let mut at = 0;
                    while at < words {
                        let hi = (at + cut).min(words);
                        summed += if bases.as_slice().is_empty() {
                            index.empty_pattern_weight(at..hi)
                        } else {
                            count_dispatch(
                                kernel,
                                &index.words,
                                &index.weights[..],
                                bases.as_slice(),
                                at..hi,
                                &mut ops,
                            )
                        };
                        at = hi;
                    }
                    assert_eq!(summed, naive, "case {case} {kernel:?} split {split}");
                }
            }

            // A whole level, counted over word ranges cut at the same
            // points, must agree candidate-for-candidate on both kernels.
            // Pad the level with lex-ordered siblings of the pattern — the
            // shape the Apriori join emits — so the wide kernel's
            // prefix-AND reuse is exercised against the per-candidate
            // scalar reference.
            let mut cands = vec![empty.clone(), pattern.clone()];
            let ls: Vec<usize> = pattern.iter().collect();
            if ls.len() >= 2 {
                for extra in (0..n_letters).filter(|&i| !pattern.contains(i)).take(4) {
                    cands.push(LetterSet::from_indices(
                        n_letters,
                        ls[..ls.len() - 1].iter().copied().chain([extra]),
                    ));
                }
            }
            let expect: Vec<u64> = cands
                .iter()
                .map(|p| cols.iter().filter(|col| p.is_subset(col)).count() as u64)
                .collect();
            let words = index.words_per_row();
            let cut = (words / split.max(2).min(words)).max(1);
            for kernel in [Kernel::Scalar, Kernel::Wide] {
                assert_eq!(
                    count_level_in_ranges(&index, &cands, kernel, cut),
                    expect,
                    "case {case} {kernel:?} cut {cut}"
                );
            }
        }
    }

    /// Counts `cands` over consecutive `cut`-word ranges of `index` and
    /// sums the per-range partials, the way the incremental index's
    /// dirty-range recount relies on.
    fn count_level_in_ranges(
        index: &VerticalIndex,
        cands: &[LetterSet],
        kernel: Kernel,
        cut: usize,
    ) -> Vec<u64> {
        let words = index.words_per_row();
        let mut totals = vec![0u64; cands.len()];
        for at in (0..words).step_by(cut) {
            let part = index.count_level(cands, at..(at + cut).min(words), kernel, &mut 0);
            for (total, n) in totals.iter_mut().zip(part) {
                *total += n;
            }
        }
        totals
    }

    #[test]
    fn weighted_kernels_and_shards_count_bit_identically() {
        // Distinct-hit layouts: groups of 1, 63, 64 and 65 columns put
        // group ends inside, at and just past a word, so lane blocks
        // straddle weights; the 577+-column weight-1 group runs whole
        // LANES-word blocks of one weight. Every case also lays out one
        // group heavier than `u32::MAX`, so a tally that narrows its
        // multiply must still be exact.
        let mut rng = SplitMix(0xd15_71c7);
        for case in 0..64 {
            let n_letters = 2 + rng.below(22);
            let mut hits: Vec<(LetterSet, u64)> = (0..577 + rng.below(70))
                .map(|_| (rng.letters(n_letters, 6), 1))
                .collect();
            let mut words = hits.len().div_ceil(64);
            for g in 0..1 + rng.below(5) {
                let size: usize = [1, 63, 64, 65][rng.below(4)];
                // Distinct weights per group, so no two groups merge.
                let weight = 2 + 100 * g as u64 + rng.below(100) as u64;
                hits.extend((0..size).map(|_| (rng.letters(n_letters, 6), weight)));
                words += size.div_ceil(64);
            }
            let size: usize = [1, 63, 64, 65][case % 4];
            let weight = u64::from(u32::MAX) + 1 + 7 * case as u64;
            hits.extend((0..size).map(|_| (rng.letters(n_letters, 6), weight)));
            words += size.div_ceil(64);
            let index = VerticalIndex::from_hits(n_letters, hits.iter().map(|(s, c)| (s, *c)));
            assert_eq!(index.words_per_row(), words, "case {case}");
            assert_eq!(index.n_columns(), hits.len(), "case {case}");
            let naive = |p: &LetterSet| -> u64 {
                hits.iter()
                    .filter(|(hit, _)| p.is_subset(hit))
                    .map(|&(_, count)| count)
                    .sum()
            };

            // A hit's own letters, thinned, so counts are rarely zero;
            // then its lex-ordered siblings, the shape the Apriori join
            // emits, so the wide kernel's prefix reuse is exercised.
            let seed = &hits[rng.below(hits.len())].0;
            let mut pattern =
                LetterSet::from_indices(n_letters, seed.iter().filter(|_| rng.below(4) != 0));
            while pattern.len() < 2 {
                pattern.insert(rng.below(n_letters));
            }
            let ls: Vec<usize> = pattern.iter().collect();
            let mut cands = vec![LetterSet::new(n_letters), pattern.clone()];
            for extra in (0..n_letters).filter(|&i| !pattern.contains(i)).take(4) {
                cands.push(LetterSet::from_indices(
                    n_letters,
                    ls[..ls.len() - 1].iter().copied().chain([extra]),
                ));
            }
            let expect: Vec<u64> = cands.iter().map(naive).collect();

            for kernel in [Kernel::Scalar, Kernel::Wide] {
                for (p, &want) in cands.iter().zip(&expect) {
                    let got = index.count_with_kernel(p, kernel, &mut 0);
                    assert_eq!(got, want, "case {case} {kernel:?} {p:?}");
                }
                let level = index.count_level(&cands, 0..words, kernel, &mut 0);
                assert_eq!(level, expect, "case {case} {kernel:?} level");
                // One range per word: every group edge is a range edge.
                let per_word = count_level_in_ranges(&index, &cands, kernel, 1);
                assert_eq!(per_word, expect, "case {case} {kernel:?} per word");
            }
        }
    }

    /// The prefix gauges count one derive's cache engagement, not the
    /// process's: two identical mines report equal values.
    #[test]
    fn prefix_gauges_are_per_mine() {
        let series = busy_series(900, 5);
        let config = MineConfig::new(0.25).unwrap();
        let gauges = || {
            let collector = std::sync::Arc::new(ppm_observe::Collector::new());
            {
                let _guard = ppm_observe::install(collector.clone());
                mine_vertical(&series, 4, &config).unwrap();
            }
            let gauges = collector.gauge_maxima();
            let gauge = |name: &str| gauges.get(name).copied().expect(name);
            (
                gauge("vertical.prefix_hits"),
                gauge("vertical.prefix_builds"),
            )
        };
        let first = gauges();
        assert!(
            first.0 > 0 && first.1 > 0,
            "the mine reuses prefixes: {first:?}"
        );
        assert_eq!(gauges(), first);
    }

    #[test]
    fn transpose64_moves_every_bit() {
        let mut rng = SplitMix(0x7a_b1e);
        let before: [u64; 64] = std::array::from_fn(|_| rng.next());
        let mut after = before;
        transpose64(&mut after);
        for (r, row) in before.iter().enumerate() {
            for (c, column) in after.iter().enumerate() {
                assert_eq!(column >> r & 1, row >> c & 1, "bit ({r}, {c})");
            }
        }
    }

    #[test]
    fn scan2_folds_segments_into_distinct_hits() {
        // Period 2: "x y" three times, "y y" twice, "x -" once.
        let (x, y) = (fid(0), fid(1));
        let mut b = SeriesBuilder::new();
        for (first, second) in [(x, Some(y)); 3]
            .into_iter()
            .chain([(y, Some(y)); 2])
            .chain([(x, None)])
        {
            b.push_instant([first]);
            b.push_instant(second);
        }
        let series = b.finish();
        let scan1 = scan_frequent_letters(&series, 2, &MineConfig::new(0.2).unwrap()).unwrap();
        let letter = |o, f| scan1.alphabet.index_of(o, f).unwrap();
        let (x0, y0, y1) = (letter(0, x), letter(0, y), letter(1, y));
        let set = |ls: &[usize]| LetterSet::from_indices(3, ls.iter().copied());
        let index = segment_index(&series, &scan1);
        // Two distinct hits of two letters, multiplicities 3 and 2, one
        // word each; the one-letter hit "x -" is not laid out.
        assert_eq!(index.n_columns(), 2);
        assert_eq!(index.words_per_row(), 2);
        assert_eq!(index.count(&set(&[x0, y1])), 3);
        assert_eq!(index.count(&set(&[y0, y1])), 2);
        assert_eq!(index.count(&set(&[x0, y0])), 0);
        // Shorter patterns answer from the whole multiset.
        assert_eq!(index.count(&set(&[x0])), 4);
        assert_eq!(index.count(&set(&[])), 6);
    }

    #[test]
    fn view_mine_equals_series_mine() {
        let series = busy_series(500, 4);
        let encoded = EncodedSeries::encode(&series);
        let config = MineConfig::new(0.3).unwrap();
        for p in [3, 5, 8] {
            let plain = mine_vertical(&series, p, &config).unwrap();
            let viewed = mine_vertical_view(encoded.view(), p, &config).unwrap();
            assert_eq!(plain.frequent, viewed.frequent, "period {p}");
            assert_eq!(plain.stats, viewed.stats, "period {p}");
        }
    }

    #[test]
    fn segment_index_singletons_match_scan1_counts() {
        let series = busy_series(480, 4);
        let config = MineConfig::new(0.25).unwrap();
        let scan1 = scan_frequent_letters(&series, 6, &config).unwrap();
        let index = segment_index(&series, &scan1);
        let n = scan1.alphabet.len();
        for (i, &count) in scan1.letter_counts.iter().enumerate() {
            let p = LetterSet::from_indices(n, [i]);
            assert_eq!(index.count(&p), count, "letter {i}");
        }
        // The empty pattern matches every segment.
        assert_eq!(index.count(&LetterSet::new(n)), scan1.segment_count as u64);
    }

    #[test]
    fn zero_deadline_aborts_with_typed_error() {
        let series = busy_series(400, 4);
        let config = MineConfig::new(0.2)
            .unwrap()
            .with_deadline(std::time::Duration::ZERO);
        let err = mine_vertical(&series, 8, &config).unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded { .. }), "got {err:?}");
    }

    #[test]
    fn invalid_period_is_rejected() {
        let series = busy_series(10, 2);
        let config = MineConfig::new(0.5).unwrap();
        assert!(matches!(
            mine_vertical(&series, 0, &config),
            Err(Error::InvalidPeriod { .. })
        ));
        assert!(matches!(
            mine_vertical(&series, 11, &config),
            Err(Error::InvalidPeriod { .. })
        ));
    }

    #[test]
    fn empty_alphabet_short_circuits() {
        let mut b = SeriesBuilder::new();
        for t in 0..10u32 {
            b.push_instant([fid(t)]);
        }
        let series = b.finish();
        let result = mine_vertical(&series, 2, &MineConfig::new(0.9).unwrap()).unwrap();
        assert!(result.is_empty());
        assert_eq!(result.stats.series_scans, 2);
    }
}
