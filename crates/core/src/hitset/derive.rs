//! Algorithm 4.2: deriving all frequent patterns from the max-subpattern
//! tree.
//!
//! Candidates are generated level-wise exactly as in Apriori (Property 3.1
//! holds regardless of how counting is done), but counting never touches
//! the series again: the frequency of a candidate is the sum of the counts
//! of its superpattern hits in the tree — the node's own count plus those
//! of its *reachable ancestors* in the paper's formulation.
//!
//! The level loop here, `derive_frequent_batched`, is shared by every
//! level-wise derive: the tree strategies, the vertical index, and the
//! live incremental index ([`crate::vertical::incremental`]), which
//! plugs in its own join memo and its dirty-word recount. Its levels are
//! [`LetterSet`]s in level order, joined by [`join_candidates`] on their
//! words — prefix groups by masked XOR, candidates as `a | highbit(b)`,
//! the prune as one bit flip and one table probe per subset — with no
//! letter-index vectors and no allocation per probe (see
//! [`crate::apriori`] for the join and the hash-fold pitfall its table
//! avoids). Each level's join runs in one `derive.join` span, so a trace
//! splits the derive into join and count.
//!
//! Three counting strategies are exposed for the ablation study (DESIGN.md
//! experiment E7):
//!
//! * [`CountStrategy::Bitmap`] (the default) — the tree's nodes with
//!   count > 0 laid out as a [`VerticalIndex`], every level counted by
//!   word-wide AND + weighted popcount on the config's kernel: the same
//!   counter, code and all, as the vertical engine ([`crate::vertical`]),
//!   which lays its distinct hits out in scan 2 instead of in a tree;
//! * [`CountStrategy::TreeWalk`] — the paper's pruned trie traversal, one
//!   walk per candidate, kept as the algorithm of record and as the
//!   audit's independent tree counter;
//! * [`CountStrategy::LinearScan`] — a flat pass over the distinct hits
//!   with one bitset subset test each.

use crate::apriori::join_candidates;
use crate::hitset::tree::MaxSubpatternTree;
use crate::letters::LetterSet;
use crate::result::FrequentPattern;
use crate::scan::Scan1;
use crate::stats::MiningStats;
use crate::vertical::{Kernel, VerticalIndex};

/// How candidate counts are extracted from the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CountStrategy {
    /// The distinct hits as weighted per-letter bitmaps, a whole level
    /// counted by AND + weighted popcount.
    #[default]
    Bitmap,
    /// Pruned traversal of the trie (paper §4), once per candidate. Skips
    /// every branch that drops a letter of the candidate.
    TreeWalk,
    /// Flat scan over the nodes with count > 0.
    LinearScan,
}

/// Derives every frequent pattern with ≥ 2 letters from the tree,
/// level-wise from the frequent 1-patterns of `scan1`. Appends to
/// `frequent` and updates `stats`; returns nothing else — 1-letter patterns
/// are the caller's responsibility (their exact counts come from scan 1).
/// `kernel` counts the [`CountStrategy::Bitmap`] levels, whose AND word
/// operations the `hitset.and_ops` gauge reports.
pub fn derive_frequent(
    tree: &MaxSubpatternTree,
    scan1: &Scan1,
    strategy: CountStrategy,
    kernel: Kernel,
    frequent: &mut Vec<FrequentPattern>,
    stats: &mut MiningStats,
) {
    let count: fn(&MaxSubpatternTree, &LetterSet) -> u64 = match strategy {
        CountStrategy::Bitmap => {
            let (and_ops, _) = hit_index(tree).derive_levels(scan1, kernel, frequent, stats);
            ppm_observe::gauge("hitset.and_ops", and_ops);
            return;
        }
        CountStrategy::TreeWalk => MaxSubpatternTree::count_superpatterns_walk,
        CountStrategy::LinearScan => MaxSubpatternTree::count_superpatterns_linear,
    };
    derive_frequent_batched(
        join_candidates,
        |sets| sets.iter().map(|p| count(tree, p)).collect(),
        scan1,
        frequent,
        stats,
    );
}

/// The tree's distinct hits (its nodes with count > 0) laid out as a
/// bitmap index over the tree's letters.
fn hit_index(tree: &MaxSubpatternTree) -> VerticalIndex {
    VerticalIndex::from_hits(tree.c_max().universe(), tree.hits())
}

/// The level-wise Apriori derivation loop over a *level-batched*
/// counting oracle — the per-candidate tree strategies, the bitmap index
/// and the live index's dirty-word recount plug in the same way
/// (Property 3.1 is independent of how counting is done). Each call of
/// `count_batch` receives every candidate of one level and returns their
/// counts in order. Batching is what lets the bitmap index answer a whole
/// level against each cache block of its rows once, while the
/// per-candidate strategies just map over the slice.
///
/// `join` turns one non-empty frequent level into the next level's
/// candidates: [`join_candidates`] itself, or the live index's memo of
/// it. Each join runs inside one `derive.join` span, so a trace splits
/// the derive into join and count.
pub(crate) fn derive_frequent_batched(
    mut join: impl FnMut(&[LetterSet]) -> Vec<LetterSet>,
    mut count_batch: impl FnMut(&[LetterSet]) -> Vec<u64>,
    scan1: &Scan1,
    frequent: &mut Vec<FrequentPattern>,
    stats: &mut MiningStats,
) {
    let n_letters = scan1.alphabet.len();
    let mut level: Vec<LetterSet> = (0..n_letters)
        .map(|i| LetterSet::from_indices(n_letters, [i]))
        .collect();
    let mut k = 1;
    stats.max_level = stats.max_level.max(1);
    while !level.is_empty() {
        let candidates = {
            let _span = ppm_observe::span("derive.join");
            join(&level)
        };
        stats.candidates_generated += candidates.len() as u64;
        if candidates.is_empty() {
            break;
        }
        k += 1;
        stats.max_level = stats.max_level.max(k);
        stats.subset_tests += candidates.len() as u64;
        let counts = count_batch(&candidates);
        debug_assert_eq!(counts.len(), candidates.len(), "one count per candidate");
        level.clear();
        for (set, count) in candidates.into_iter().zip(counts) {
            if count >= scan1.min_count {
                level.push(set.clone());
                frequent.push(FrequentPattern {
                    letters: set,
                    count,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::letters::Alphabet;
    use crate::scan::MineConfig;
    use ppm_timeseries::FeatureId;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    fn scan1_with(n: usize, m: usize, min_conf: f64) -> Scan1 {
        let alphabet = Alphabet::new(n, (0..n).map(|i| (i, fid(i as u32))));
        let config = MineConfig::new(min_conf).unwrap();
        Scan1 {
            min_count: config.min_count(m),
            letter_counts: vec![m as u64; n],
            segment_count: m,
            alphabet,
        }
    }

    fn set(n: usize, idx: &[usize]) -> LetterSet {
        LetterSet::from_indices(n, idx.iter().copied())
    }

    #[test]
    fn derives_from_single_dominant_hit() {
        // 10 segments all hitting {0,1,2}: every subset of {0,1,2} with
        // >= 2 letters is frequent with count 10.
        let scan1 = scan1_with(4, 10, 0.5);
        let mut tree = MaxSubpatternTree::new(scan1.alphabet.full_set());
        for _ in 0..10 {
            tree.insert(&set(4, &[0, 1, 2]));
        }
        for strategy in [
            CountStrategy::Bitmap,
            CountStrategy::TreeWalk,
            CountStrategy::LinearScan,
        ] {
            let mut frequent = Vec::new();
            let mut stats = MiningStats::default();
            derive_frequent(
                &tree,
                &scan1,
                strategy,
                Kernel::Wide,
                &mut frequent,
                &mut stats,
            );
            // {0,1} {0,2} {1,2} {0,1,2}: 4 multi-letter patterns.
            assert_eq!(frequent.len(), 4, "{strategy:?}");
            assert!(frequent.iter().all(|f| f.count == 10));
            assert_eq!(stats.max_level, 3);
        }
    }

    #[test]
    fn threshold_prunes_levels() {
        let scan1 = scan1_with(3, 10, 0.75); // min_count = 8
        let mut tree = MaxSubpatternTree::new(scan1.alphabet.full_set());
        for _ in 0..5 {
            tree.insert(&set(3, &[0, 1]));
        }
        for _ in 0..4 {
            tree.insert(&set(3, &[0, 1, 2]));
        }
        let mut frequent = Vec::new();
        let mut stats = MiningStats::default();
        derive_frequent(
            &tree,
            &scan1,
            CountStrategy::TreeWalk,
            Kernel::Wide,
            &mut frequent,
            &mut stats,
        );
        // {0,1}: 5 + 4 = 9 >= 8 frequent; {0,2}, {1,2}: 4 < 8; {0,1,2}: 4.
        assert_eq!(frequent.len(), 1);
        assert_eq!(frequent[0].letters, set(3, &[0, 1]));
        assert_eq!(frequent[0].count, 9);
    }

    #[test]
    fn strategies_agree_on_scattered_hits() {
        let scan1 = scan1_with(6, 40, 0.1); // min_count = 4
        let mut tree = MaxSubpatternTree::new(scan1.alphabet.full_set());
        let hits: &[&[usize]] = &[
            &[0, 1],
            &[0, 1, 2],
            &[3, 4, 5],
            &[0, 3],
            &[1, 2, 4],
            &[0, 1, 2, 3, 4, 5],
            &[2, 5],
        ];
        for (i, h) in hits.iter().enumerate() {
            for _ in 0..=i {
                tree.insert(&set(6, h));
            }
        }
        let run = |strategy| {
            let mut frequent = Vec::new();
            let mut stats = MiningStats::default();
            derive_frequent(
                &tree,
                &scan1,
                strategy,
                Kernel::Wide,
                &mut frequent,
                &mut stats,
            );
            frequent.sort_by_key(|f| f.letters.iter().collect::<Vec<_>>());
            frequent
        };
        let a = run(CountStrategy::TreeWalk);
        let b = run(CountStrategy::LinearScan);
        let c = run(CountStrategy::Bitmap);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert!(!a.is_empty());
        // Single-pattern counting agrees too.
        let index = hit_index(&tree);
        for f in &a {
            assert_eq!(index.count(&f.letters), f.count);
        }
    }

    #[test]
    fn empty_tree_yields_nothing() {
        let scan1 = scan1_with(3, 10, 0.5);
        let tree = MaxSubpatternTree::new(scan1.alphabet.full_set());
        let mut frequent = Vec::new();
        let mut stats = MiningStats::default();
        derive_frequent(
            &tree,
            &scan1,
            CountStrategy::TreeWalk,
            Kernel::Wide,
            &mut frequent,
            &mut stats,
        );
        assert!(frequent.is_empty());
        // Candidates were still generated at level 2 (and rejected).
        assert_eq!(stats.candidates_generated, 3);
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

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A random subset of `pool`, each letter kept with probability
        /// `keep_pct`%.
        fn subset(&mut self, universe: usize, pool: &[usize], keep_pct: u64) -> LetterSet {
            LetterSet::from_indices(
                universe,
                pool.iter().copied().filter(|_| self.below(100) < keep_pct),
            )
        }
    }

    /// A random tree over `universe` letters whose `C_max` holds every
    /// letter except those in `absent`, with `hits` inserts of random
    /// counts (0 included, to force bare interior nodes).
    fn random_tree(
        rng: &mut SplitMix,
        universe: usize,
        absent: &[usize],
        hits: usize,
    ) -> MaxSubpatternTree {
        let pool: Vec<usize> = (0..universe).filter(|l| !absent.contains(l)).collect();
        let mut t = MaxSubpatternTree::new(LetterSet::from_indices(universe, pool.clone()));
        for _ in 0..hits {
            let keep = 40 + rng.below(55);
            let hit = rng.subset(universe, &pool, keep);
            if hit.len() >= 2 {
                t.insert_with_count(&hit, rng.below(4));
            }
        }
        t
    }

    /// Asserts the tree's hit index counts every candidate, as one level
    /// on both kernels and one at a time, as the linear scan does.
    fn assert_index_matches_linear(t: &MaxSubpatternTree, candidates: &[LetterSet]) {
        let index = hit_index(t);
        let expect: Vec<u64> = candidates
            .iter()
            .map(|p| t.count_superpatterns_linear(p))
            .collect();
        let words = 0..index.words_per_row();
        for kernel in [Kernel::Scalar, Kernel::Wide] {
            let level = index.count_level(candidates, words.clone(), kernel, &mut 0);
            assert_eq!(level, expect, "{kernel:?}");
        }
        for (p, &want) in candidates.iter().zip(&expect) {
            assert_eq!(index.count(p), want, "{p:?}");
        }
    }

    #[test]
    fn bitmap_counts_match_linear_on_random_trees() {
        for seed in 0..24u64 {
            let mut rng = SplitMix(seed);
            let universe = 3 + rng.below(12) as usize;
            let hits = 1 + rng.below(80) as usize;
            let t = random_tree(&mut rng, universe, &[], hits);
            let all: Vec<usize> = (0..universe).collect();
            let candidates: Vec<LetterSet> = (0..65)
                .map(|_| {
                    let keep = rng.below(60);
                    rng.subset(universe, &all, keep)
                })
                .collect();
            assert_index_matches_linear(&t, &candidates);
        }
    }

    #[test]
    fn bitmap_counts_match_linear_over_64_letters() {
        // Universes past one word lay out multi-word hit keys.
        for (seed, universe) in [(1u64, 65usize), (2, 100), (3, 130)] {
            let mut rng = SplitMix(seed);
            let t = random_tree(&mut rng, universe, &[], 60);
            let all: Vec<usize> = (0..universe).collect();
            let candidates: Vec<LetterSet> = (0..129)
                .map(|_| {
                    let keep = rng.below(8);
                    rng.subset(universe, &all, keep)
                })
                .collect();
            assert_index_matches_linear(&t, &candidates);
        }
    }

    #[test]
    fn bitmap_counts_zero_letters_outside_c_max() {
        let mut rng = SplitMix(9);
        let t = random_tree(&mut rng, 10, &[2, 7], 50);
        let all: Vec<usize> = (0..10).collect();
        let candidates: Vec<LetterSet> = (0..65).map(|_| rng.subset(10, &all, 25)).collect();
        assert!(candidates.iter().any(|p| p.contains(2) || p.contains(7)));
        assert_index_matches_linear(&t, &candidates);
    }

    #[test]
    fn bitmap_counts_on_empty_and_root_only_trees() {
        let candidates = [set(5, &[0, 1]), set(5, &[]), set(5, &[0, 1, 2, 3, 4])];
        let empty = MaxSubpatternTree::new(LetterSet::full(5));
        assert_eq!(hit_index(&empty).n_columns(), 0);
        assert_index_matches_linear(&empty, &candidates);
        assert_index_matches_linear(&empty, &[]);

        let mut root_only = MaxSubpatternTree::new(LetterSet::full(5));
        root_only.insert_with_count(&LetterSet::full(5), 7);
        assert_index_matches_linear(&root_only, &candidates);
        assert_eq!(hit_index(&root_only).count(&candidates[0]), 7);
    }
}
