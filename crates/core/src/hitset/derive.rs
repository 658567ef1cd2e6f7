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
//! two-scan derive (the tree strategies and the vertical index). Its
//! levels are [`LetterSet`]s in level order, joined by
//! [`join_candidates`] on their words — prefix groups by masked XOR,
//! candidates as `a | highbit(b)`, the prune as one bit flip and one
//! table probe per subset — with no letter-index vectors and no
//! allocation per probe (see [`crate::apriori`] for the join and the
//! hash-fold pitfall its table avoids). Each level's join runs in one
//! `derive.join` span, so a trace splits the derive into join and count.
//!
//! Three counting strategies are exposed for the ablation study (DESIGN.md
//! experiment E7):
//!
//! * [`CountStrategy::LevelWalk`] (the default) — one depth-first walk of
//!   the tree per Apriori level, every candidate of the level counted at
//!   once: each starts at the root's subtree total and subtracts the
//!   subtrees that miss one of its letters (see
//!   [`MaxSubpatternTree::count_level`]);
//! * [`CountStrategy::TreeWalk`] — the paper's pruned trie traversal, one
//!   walk per candidate;
//! * [`CountStrategy::LinearScan`] — a flat pass over the distinct hits
//!   with one bitset subset test each.
//!
//! The columnar alternative — per-letter bitmaps over the distinct hits,
//! counted by word-wide AND + weighted popcount — is the vertical engine
//! ([`crate::vertical`]), which lays them out in scan 2 instead of a tree.

use crate::apriori::join_candidates;
use crate::hitset::tree::MaxSubpatternTree;
use crate::letters::LetterSet;
use crate::result::FrequentPattern;
use crate::scan::Scan1;
use crate::stats::MiningStats;

/// How candidate counts are extracted from the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CountStrategy {
    /// One walk of the trie per Apriori level, counting the whole level
    /// with per-node subtree totals.
    #[default]
    LevelWalk,
    /// Pruned traversal of the trie (paper §4), once per candidate. Skips
    /// whole subtrees that drop a letter of the candidate.
    TreeWalk,
    /// Flat scan over the nodes with count > 0.
    LinearScan,
}

impl CountStrategy {
    /// Counts the superpattern hits of `p` under this strategy.
    pub fn count(self, tree: &MaxSubpatternTree, p: &LetterSet) -> u64 {
        match self {
            CountStrategy::LevelWalk => tree.count_level(std::slice::from_ref(p), &mut 0)[0],
            CountStrategy::TreeWalk => tree.count_superpatterns_walk(p),
            CountStrategy::LinearScan => tree.count_superpatterns_linear(p),
        }
    }
}

/// Derives every frequent pattern with ≥ 2 letters from the tree,
/// level-wise from the frequent 1-patterns of `scan1`. Appends to
/// `frequent` and updates `stats`; returns nothing else — 1-letter patterns
/// are the caller's responsibility (their exact counts come from scan 1).
pub fn derive_frequent(
    tree: &MaxSubpatternTree,
    scan1: &Scan1,
    strategy: CountStrategy,
    frequent: &mut Vec<FrequentPattern>,
    stats: &mut MiningStats,
) {
    match strategy {
        CountStrategy::LevelWalk => {
            let mut count_ops = 0u64;
            derive_frequent_batched(
                |sets| tree.count_level(sets, &mut count_ops),
                scan1,
                frequent,
                stats,
            );
            ppm_observe::gauge("hitset.count_ops", count_ops);
        }
        _ => derive_frequent_batched(
            |sets| sets.iter().map(|p| strategy.count(tree, p)).collect(),
            scan1,
            frequent,
            stats,
        ),
    }
}

/// The level-wise Apriori derivation loop over a *level-batched*
/// counting oracle — the tree strategies and the vertical index plug in
/// the same way (Property 3.1 is independent of how counting is done).
/// Each call of `count_level` receives every candidate of one level and
/// returns their counts in order. Batching is what lets the vertical
/// engine answer a whole level against each cache block of its bitmaps
/// once, while the per-pattern strategies just map over the slice.
///
/// Each level is joined by [`join_candidates`] inside one `derive.join`
/// span, so a trace splits the derive into join and count.
pub(crate) fn derive_frequent_batched(
    mut count_level: impl FnMut(&[LetterSet]) -> Vec<u64>,
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
            join_candidates(&level)
        };
        stats.candidates_generated += candidates.len() as u64;
        if candidates.is_empty() {
            break;
        }
        k += 1;
        stats.max_level = stats.max_level.max(k);
        stats.subset_tests += candidates.len() as u64;
        let counts = count_level(&candidates);
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
            CountStrategy::LevelWalk,
            CountStrategy::TreeWalk,
            CountStrategy::LinearScan,
        ] {
            let mut frequent = Vec::new();
            let mut stats = MiningStats::default();
            derive_frequent(&tree, &scan1, strategy, &mut frequent, &mut stats);
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
            derive_frequent(&tree, &scan1, strategy, &mut frequent, &mut stats);
            frequent.sort_by_key(|f| f.letters.iter().collect::<Vec<_>>());
            frequent
        };
        let a = run(CountStrategy::TreeWalk);
        let b = run(CountStrategy::LinearScan);
        let c = run(CountStrategy::LevelWalk);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert!(!a.is_empty());
        // Single-pattern counting agrees too.
        for f in &a {
            assert_eq!(CountStrategy::LevelWalk.count(&tree, &f.letters), f.count);
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
            &mut frequent,
            &mut stats,
        );
        assert!(frequent.is_empty());
        // Candidates were still generated at level 2 (and rejected).
        assert_eq!(stats.candidates_generated, 3);
    }
}
