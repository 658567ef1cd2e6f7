//! The vertical (columnar) counting engine.
//!
//! The hit-set method (paper Algorithm 3.2) pays for its two-scan guarantee
//! in the derivation phase: one pruned trie traversal per Apriori
//! candidate. This module transposes that work. During scan 2 it
//! materializes, for each frequent letter, a **segment bitmap** — bit `j`
//! set iff whole segment `j` contains the letter — so the frequency of any
//! k-letter candidate is a k-way AND over `⌈m/64⌉` words followed by a
//! popcount. The frequent set is identical to the hit-set and Apriori
//! miners' (Property 3.1 is independent of how counting is done); only the
//! counting substrate changes.
//!
//! Every column is one segment and counts 1, so each kernel is a plain
//! AND followed by a popcount. The AND+popcount itself runs on an
//! 8-word unrolled wide kernel the autovectorizer turns into SIMD; the
//! scalar reference loop it must match bit for bit stays selectable
//! through [`MineConfig::with_kernel`](crate::MineConfig::with_kernel)
//! for the audit and the bit-identity tests (see [`kernel`]). Candidates
//! are counted a whole derivation level at a time against cache-sized
//! blocks of the bitmaps, and on large stores the word axis shards into
//! subtasks other threads can steal ([`shard`]).
//!
//! Memory: `n_L` bitmaps of `m` bits — `n_L · m / 8` bytes, reported via
//! the `vertical.bitmap_bytes` gauge. For the alphabet sizes the paper
//! works with this is a few words per segment, far below the series
//! itself.

pub mod incremental;
pub mod kernel;
pub mod shard;

use std::ops::{ControlFlow, Range};
use std::sync::Arc;

use ppm_timeseries::{EncodedSeriesView, FeatureSeries};

use crate::error::Result;
use crate::guard::ResourceGuard;
use crate::hitset::derive::derive_frequent_batched;
use crate::letters::LetterSet;
use crate::result::{FrequentPattern, MiningResult};
use crate::rows::{Input, Passes};
use crate::scan::{MineConfig, Scan1};
use crate::stats::MiningStats;

pub use kernel::Kernel;
use kernel::{count_dispatch, count_dispatch_cached, PrefixCache, RowBases, BLOCK_WORDS};
pub use shard::{count_sharded, ShardExecutor, ShardedCounter, ThreadedExecutor};

/// Per-letter column bitmaps: bit `j` of a letter's row is set iff
/// column `j` (one whole period segment) contains the letter.
#[derive(Debug, Clone)]
pub struct VerticalIndex {
    n_letters: usize,
    n_columns: usize,
    words_per_row: usize,
    /// Row-major: `words[letter * words_per_row + w]`.
    words: Vec<u64>,
}

impl VerticalIndex {
    /// An all-zero index of `n_letters` rows over `n_columns` columns.
    pub(crate) fn with_columns(n_letters: usize, n_columns: usize) -> Self {
        let words_per_row = n_columns.div_ceil(64);
        VerticalIndex {
            n_letters,
            n_columns,
            words_per_row,
            words: vec![0u64; n_letters * words_per_row],
        }
    }

    /// Builds an index directly from explicit column letter-sets — the
    /// constructor the kernel and shard tests use to fabricate arbitrary
    /// geometries (column counts straddling word boundaries, …).
    ///
    /// # Panics
    /// Panics if a column's universe differs from `n_letters`.
    pub fn from_columns(n_letters: usize, columns: &[LetterSet]) -> Self {
        let mut index = Self::with_columns(n_letters, columns.len());
        for (col, set) in columns.iter().enumerate() {
            assert_eq!(set.universe(), n_letters, "column universe mismatch");
            for letter in set.iter() {
                index.set(letter, col);
            }
        }
        index
    }

    /// Sets bit `col` in `letter`'s bitmap.
    #[inline]
    fn set(&mut self, letter: usize, col: usize) {
        self.words[letter * self.words_per_row + col / 64] |= 1u64 << (col % 64);
    }

    /// Scan 2 of the vertical engine: one segment pass building every
    /// letter's segment bitmap. The pass polls the deadline; an abort
    /// carries `stats` as partial progress.
    pub(crate) fn from_segments(
        passes: &mut Passes<'_>,
        scan1: &Scan1,
        stats: &mut MiningStats,
    ) -> Result<Self> {
        let mut index = Self::with_columns(scan1.alphabet.len(), scan1.segment_count);
        let flow = passes.segments(scan1, |j, hit| {
            for letter in hit.iter() {
                index.set(letter, j);
            }
            ControlFlow::Continue(())
        })?;
        passes.settle(flow, stats)?;
        Ok(index)
    }

    /// The number of columns whose pattern is a superpattern of `p` —
    /// i.e. `p`'s frequency count — on the wide kernel.
    pub fn count(&self, p: &LetterSet) -> u64 {
        self.count_with_kernel(p, Kernel::Wide, &mut 0)
    }

    /// [`Self::count`] on an explicitly chosen kernel, accumulating the
    /// word-level AND operations into `and_ops` — the entry point the
    /// bit-identity tests drive.
    pub fn count_with_kernel(&self, p: &LetterSet, kernel: Kernel, and_ops: &mut u64) -> u64 {
        debug_assert_eq!(p.universe(), self.n_letters);
        let bases = RowBases::from_pattern(p, self.words_per_row);
        let slice = bases.as_slice();
        if slice.is_empty() {
            // The empty pattern is a subpattern of every column.
            return self.empty_pattern_weight(0..self.words_per_row);
        }
        count_dispatch(kernel, &self.words, slice, 0..self.words_per_row, and_ops)
    }

    /// Counts a whole derivation level's candidates in one cache-blocked
    /// pass: every [`BLOCK_WORDS`] words of the bitmaps are touched once
    /// and all candidates answer against them before the next block is
    /// loaded, so the block stays hot across the whole level.
    pub(crate) fn count_level(
        &self,
        candidates: &[LetterSet],
        kernel: Kernel,
        and_ops: &mut u64,
    ) -> Vec<u64> {
        let bases: Vec<RowBases> = candidates
            .iter()
            .map(|p| RowBases::from_pattern(p, self.words_per_row))
            .collect();
        let mut totals = vec![0u64; candidates.len()];
        // Sibling candidates arrive in sorted runs sharing all but their
        // last letter; the cache folds each run's prefix AND once per
        // block (see `kernel::PrefixCache`).
        let mut cache = PrefixCache::default();
        let mut lo = 0usize;
        while lo < self.words_per_row {
            let hi = (lo + BLOCK_WORDS).min(self.words_per_row);
            for (total, b) in totals.iter_mut().zip(&bases) {
                let slice = b.as_slice();
                *total += if slice.is_empty() {
                    self.empty_pattern_weight(lo..hi)
                } else {
                    count_dispatch_cached(kernel, &self.words, slice, lo..hi, and_ops, &mut cache)
                };
            }
            lo = hi;
        }
        totals
    }

    /// The empty pattern's count restricted to a word range: the number
    /// of columns covered by those words — every column is a superpattern
    /// of the empty pattern.
    pub(crate) fn empty_pattern_weight(&self, words: Range<usize>) -> u64 {
        let lo = (words.start * 64).min(self.n_columns);
        let hi = (words.end * 64).min(self.n_columns);
        (hi - lo) as u64
    }

    /// The raw row-major bitmap words — what the kernels and shard
    /// runners operate on directly.
    pub(crate) fn raw_words(&self) -> &[u64] {
        &self.words
    }

    /// Number of letter rows.
    pub fn n_letters(&self) -> usize {
        self.n_letters
    }

    /// Number of counting columns (segments).
    pub fn n_columns(&self) -> usize {
        self.n_columns
    }

    /// Words per bitmap row (`⌈n_columns/64⌉`) — the shardable axis.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Index size in bytes: the bitmap words.
    pub fn bitmap_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// Mines all frequent partial periodic patterns of `period` in `series`
/// with the vertical engine: scan 1 as in Algorithm 3.2, then a second
/// scan that builds per-letter segment bitmaps instead of a max-subpattern
/// tree, and a derivation phase of word-wide AND + popcount per candidate.
///
/// Exactly two scans of the series, like the hit-set miner, and the same
/// result bit for bit — the audit cross-check enforces this.
pub fn mine_vertical(
    series: &FeatureSeries,
    period: usize,
    config: &MineConfig,
) -> Result<MiningResult> {
    mine_vertical_input(series.into(), period, config, None)
}

/// [`mine_vertical`] over a borrowed bitmap view — the zero-materialization
/// path for columnar (`.ppmc`) input: both scans probe the packed rows
/// directly, so no [`FeatureSeries`] is ever built.
pub fn mine_vertical_view(
    view: EncodedSeriesView<'_>,
    period: usize,
    config: &MineConfig,
) -> Result<MiningResult> {
    mine_vertical_input(view.into(), period, config, None)
}

/// Both vertical scans and the derive over any [`Input`]. With an
/// `executor`, each derivation level's counting splits into word-range
/// subtasks the executor runs (if the index is wide enough, see
/// [`shard`]); results are bit-identical either way.
pub(crate) fn mine_vertical_input(
    input: Input<'_>,
    period: usize,
    config: &MineConfig,
    executor: Option<&dyn ShardExecutor>,
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

    // Scan 2: per-letter segment bitmaps instead of a tree.
    let index = {
        let _span = ppm_observe::span("vertical.scan2");
        VerticalIndex::from_segments(&mut passes, &scan1, &mut stats)?
    };
    ppm_observe::gauge("vertical.bitmap_bytes", index.bitmap_bytes() as u64);

    // Derivation: 1-letter counts from scan 1, the rest by AND + popcount.
    let frequent = {
        let _span = ppm_observe::span("vertical.derive");
        match executor {
            Some(ex) => {
                let shared = Arc::new(index);
                derive_vertical_sharded(&shared, &scan1, &mut stats, config.kernel(), ex)
            }
            None => derive_vertical(&index, &scan1, &mut stats, config.kernel()),
        }
    };
    Ok(scan1.into_result(config, frequent, stats))
}

/// The vertical derivation phase: seeds the 1-letter patterns from scan-1
/// counts, then runs the level-wise loop against `index`, counting each
/// level in one cache-blocked batch on the selected kernel.
pub(crate) fn derive_vertical(
    index: &VerticalIndex,
    scan1: &Scan1,
    stats: &mut MiningStats,
    kernel: Kernel,
) -> Vec<FrequentPattern> {
    let mut frequent = scan1.seed_singletons();
    let mut and_ops = 0u64;
    derive_frequent_batched(
        |sets| index.count_level(sets, kernel, &mut and_ops),
        scan1,
        &mut frequent,
        stats,
    );
    report_derive(kernel, and_ops);
    frequent
}

/// The derive gauges both vertical derives report: kernel, AND operations
/// and prefix-cache engagement.
fn report_derive(kernel: Kernel, and_ops: u64) {
    use std::sync::atomic::Ordering::Relaxed;
    ppm_observe::gauge("vertical.kernel", kernel.gauge_code());
    ppm_observe::gauge("vertical.and_ops", and_ops);
    ppm_observe::gauge(
        "vertical.prefix_builds",
        kernel::PREFIX_BUILDS.load(Relaxed),
    );
    ppm_observe::gauge("vertical.prefix_hits", kernel::PREFIX_HITS.load(Relaxed));
}

/// [`derive_vertical`] with each level's counting sharded across the word
/// axis: the executor's plan splits the bitmaps into disjoint word ranges,
/// a [`ShardedCounter`] per level hands them out to whichever threads the
/// executor recruits, and the per-shard partial counts sum exactly. Falls
/// back to the unsharded loop when the plan is a single range (index too
/// narrow or level too cheap to pay the fan-out).
///
/// Emits `vertical.shards`, `vertical.shard_us_p50/p90/max` gauges and
/// `vertical.shard_tasks[_remote]` counters on top of the unsharded
/// telemetry.
pub(crate) fn derive_vertical_sharded(
    index: &Arc<VerticalIndex>,
    scan1: &Scan1,
    stats: &mut MiningStats,
    kernel: Kernel,
    executor: &dyn ShardExecutor,
) -> Vec<FrequentPattern> {
    let plan = executor.plan(index.words_per_row(), index.n_columns(), index.n_letters());
    if plan.len() < 2 {
        return derive_vertical(index, scan1, stats, kernel);
    }
    let mut frequent = scan1.seed_singletons();
    let mut and_ops = 0u64;
    let mut tasks = 0u64;
    let mut remote = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    derive_frequent_batched(
        |sets| {
            let counter = ShardedCounter::new(index.clone(), sets, plan.clone(), kernel);
            executor.execute(&counter);
            debug_assert!(counter.is_done());
            and_ops += counter.and_ops();
            tasks += counter.n_shards() as u64;
            remote += counter.remote_runs();
            latencies.extend(counter.shard_latencies());
            counter.totals()
        },
        scan1,
        &mut frequent,
        stats,
    );
    report_derive(kernel, and_ops);
    ppm_observe::gauge("vertical.shards", plan.len() as u64);
    ppm_observe::counter("vertical.shard_tasks", tasks);
    ppm_observe::counter("vertical.shard_tasks_remote", remote);
    if !latencies.is_empty() {
        latencies.sort_unstable();
        let q = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
        ppm_observe::gauge("vertical.shard_us_p50", q(0.5));
        ppm_observe::gauge("vertical.shard_us_p90", q(0.9));
        ppm_observe::gauge("vertical.shard_us_max", *latencies.last().unwrap());
    }
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
                                index.raw_words(),
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

            // The sharded path (forced to split even tiny geometries) must
            // agree candidate-for-candidate on both kernels. Pad the level
            // with lex-ordered siblings of the pattern — the shape the
            // Apriori join emits — so the wide kernel's prefix-AND reuse is
            // exercised against the per-candidate scalar reference.
            let shared = Arc::new(index);
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
            let executor = ThreadedExecutor::with_min_shard_words(split.max(2), 1);
            for kernel in [Kernel::Scalar, Kernel::Wide] {
                let totals = count_sharded(&shared, &cands, kernel, &executor);
                assert_eq!(totals, expect, "case {case} {kernel:?}");
            }
        }
    }

    #[test]
    fn sharded_derive_matches_unsharded() {
        let series = busy_series(4096, 6);
        let config = MineConfig::new(0.2).unwrap();
        let scan1 = scan_frequent_letters(&series, 4, &config).unwrap();
        let index = segment_index(&series, &scan1);
        let mut stats_base = MiningStats::default();
        let base = derive_vertical(&index, &scan1, &mut stats_base, Kernel::Scalar);
        let shared = Arc::new(index);
        for threads in [2, 4] {
            // Force sharding on this small index: 1-word shard floor.
            let executor = ThreadedExecutor::with_min_shard_words(threads, 1);
            let plan = executor.plan(
                shared.words_per_row(),
                shared.n_columns(),
                shared.n_letters(),
            );
            assert!(plan.len() > 1, "expected a real shard plan, got {plan:?}");
            let mut stats = MiningStats::default();
            let got = derive_vertical_sharded(&shared, &scan1, &mut stats, Kernel::Wide, &executor);
            assert_eq!(got, base, "threads={threads}");
            assert_eq!(stats, stats_base, "threads={threads}");
        }
    }

    #[test]
    fn view_sharded_mine_equals_plain() {
        let series = busy_series(1200, 4);
        let encoded = EncodedSeries::encode(&series);
        let config = MineConfig::new(0.3).unwrap();
        let plain = mine_vertical_view(encoded.view(), 4, &config).unwrap();
        let sharded = crate::run(crate::Engine::Vertical, encoded.view(), 4, &config, 4).unwrap();
        assert_eq!(plain.frequent, sharded.frequent);
        assert_eq!(plain.stats, sharded.stats);
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
