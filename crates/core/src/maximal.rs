//! Maximal frequent pattern mining.
//!
//! §4 of the paper closes by observing that users often want only the
//! *maximal* frequent patterns, that Bayardo's MaxMiner \[B98\] is a good fit
//! — except that MaxMiner re-scans the database per level — and that "the
//! mixture of the max-subpattern hit set method and the MaxMiner can get
//! rid of this problem". This module implements exactly that hybrid:
//! MaxMiner's look-ahead search, with all candidate counting answered from
//! the max-subpattern tree, so the series is still scanned only twice.

use crate::error::Result;
use crate::hitset::{count_any, scan_and_build_tree, MaxSubpatternTree};
use crate::letters::{Alphabet, LetterSet};
use crate::result::{FrequentPattern, MiningResult};
use crate::rows::Input;
use crate::scan::{MineConfig, Scan1};
use crate::stats::MiningStats;

/// Output of maximal-pattern mining.
#[derive(Debug, Clone)]
pub struct MaximalResult {
    /// The mined period.
    pub period: usize,
    /// Number of whole segments `m`.
    pub segment_count: usize,
    /// Count threshold used.
    pub min_count: u64,
    /// The frequent-letter alphabet.
    pub alphabet: Alphabet,
    /// The maximal frequent patterns (no frequent proper superpattern),
    /// sorted by (letter count, letters).
    pub maximal: Vec<FrequentPattern>,
    /// Instrumentation (two scans; `subset_tests` counts tree lookups).
    pub stats: MiningStats,
}

/// Mines only the **maximal** frequent patterns of `period` using the
/// hit-set × MaxMiner hybrid. Equivalent to filtering
/// [`MiningResult::maximal`] out of a full [`crate::hitset::mine`] run, but
/// prunes the search with MaxMiner's look-ahead: whenever `head ∪ tail` is
/// frequent, the whole subtree below `head` collapses to a single answer.
/// The input is any [`Input`]: a series, a bitmap view or a source.
pub fn mine_maximal<'a>(
    input: impl Into<Input<'a>>,
    period: usize,
    config: &MineConfig,
) -> Result<MaximalResult> {
    let (scan1, tree, mut stats) = scan_and_build_tree(input, period, config)?;

    let maximal = max_miner(&tree, &scan1, &mut stats);

    Ok(MaximalResult {
        period,
        segment_count: scan1.segment_count,
        min_count: scan1.min_count,
        alphabet: scan1.alphabet,
        maximal,
        stats,
    })
}

/// MaxMiner search over the letter alphabet with tree-backed counting.
fn max_miner(
    tree: &MaxSubpatternTree,
    scan1: &Scan1,
    stats: &mut MiningStats,
) -> Vec<FrequentPattern> {
    let n = scan1.alphabet.len();
    if n == 0 {
        return Vec::new();
    }
    // Order items by ascending support: expanding rare letters first keeps
    // tails long where look-ahead succeeds most often (Bayardo's heuristic).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| scan1.letter_counts[i]);

    struct Group {
        head: LetterSet,
        tail: Vec<usize>,
    }
    let mut frontier = vec![Group {
        head: LetterSet::new(n),
        tail: order,
    }];
    let mut candidates: Vec<(LetterSet, u64)> = Vec::new();

    while let Some(group) = frontier.pop() {
        // Look-ahead: if head ∪ tail is frequent, everything below is
        // subsumed by it.
        let mut whole = group.head.clone();
        group.tail.iter().for_each(|&l| whole.insert(l));
        stats.subset_tests += 1;
        let whole_count = count_any(tree, scan1, &whole);
        if whole_count >= scan1.min_count {
            candidates.push((whole, whole_count));
            continue;
        }

        // Expand: extend head by each tail item, keeping only items that
        // stay frequent with the extended head in the new tail.
        for (i, &item) in group.tail.iter().enumerate() {
            let mut head = group.head.clone();
            head.insert(item);
            stats.subset_tests += 1;
            let head_count = count_any(tree, scan1, &head);
            if head_count < scan1.min_count {
                continue;
            }
            let mut tail = Vec::new();
            for &later in &group.tail[i + 1..] {
                let mut probe = head.clone();
                probe.insert(later);
                stats.subset_tests += 1;
                if count_any(tree, scan1, &probe) >= scan1.min_count {
                    tail.push(later);
                }
            }
            stats.max_level = stats.max_level.max(head.len());
            if tail.is_empty() {
                candidates.push((head, head_count));
            } else {
                frontier.push(Group { head, tail });
            }
        }
    }

    // Subsumption filter: keep only true maximal patterns, dedup first.
    candidates.sort_by_key(|c| std::cmp::Reverse(c.0.len()));
    candidates.dedup_by(|a, b| a.0 == b.0);
    let mut maximal: Vec<FrequentPattern> = Vec::new();
    for (set, count) in candidates {
        if !maximal.iter().any(|kept| set.is_subset(&kept.letters)) {
            maximal.push(FrequentPattern {
                letters: set,
                count,
            });
        }
    }
    maximal.sort_by(|a, b| a.letters.cmp(&b.letters));
    maximal
}

/// Reference implementation: the maximal patterns of a full mining result
/// (cloned). Used to validate [`mine_maximal`] and available to callers who
/// already hold a complete [`MiningResult`].
pub fn maximal_of(result: &MiningResult) -> Vec<FrequentPattern> {
    result.maximal().into_iter().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::{FeatureId, FeatureSeries, SeriesBuilder};

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    fn assert_same_maximal(series: &FeatureSeries, period: usize, min_conf: f64) {
        let config = MineConfig::new(min_conf).unwrap();
        let full = crate::hitset::mine(series, period, &config).unwrap();
        let mut expect = maximal_of(&full);
        expect.sort_by(|a, b| a.letters.cmp(&b.letters));
        let got = mine_maximal(series, period, &config).unwrap();
        // The letter universes of the two runs are identical (same scan 1),
        // so FrequentPattern equality is meaningful.
        assert_eq!(got.maximal, expect, "min_conf={min_conf} period={period}");
    }

    #[test]
    fn single_long_pattern_collapses_via_lookahead() {
        let mut b = SeriesBuilder::new();
        for _ in 0..10 {
            for o in 0..6u32 {
                b.push_instant([fid(o)]);
            }
        }
        let s = b.finish();
        let config = MineConfig::new(0.9).unwrap();
        let got = mine_maximal(&s, 6, &config).unwrap();
        assert_eq!(got.maximal.len(), 1);
        assert_eq!(got.maximal[0].letters.len(), 6);
        assert_eq!(got.maximal[0].count, 10);
        // Look-ahead should have answered near-immediately: far fewer
        // lookups than the 2^6 subsets a naive search would count.
        assert!(
            got.stats.subset_tests < 20,
            "tests = {}",
            got.stats.subset_tests
        );
        assert_same_maximal(&s, 6, 0.9);
    }

    #[test]
    fn fragmented_patterns_match_reference() {
        let mut b = SeriesBuilder::new();
        let mut x: u64 = 5;
        for _ in 0..240 {
            let mut inst = Vec::new();
            for f in 0..5u32 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (x >> 33).is_multiple_of(3) {
                    inst.push(fid(f));
                }
            }
            b.push_instant(inst);
        }
        let s = b.finish();
        for conf in [0.2, 0.35, 0.5, 0.8] {
            assert_same_maximal(&s, 6, conf);
        }
    }

    #[test]
    fn single_letters_can_be_maximal() {
        // Two letters that never co-occur in a segment.
        let mut b = SeriesBuilder::new();
        for j in 0..10 {
            if j % 2 == 0 {
                b.push_instant([fid(0)]);
                b.push_instant([]);
            } else {
                b.push_instant([]);
                b.push_instant([fid(1)]);
            }
        }
        let s = b.finish();
        let config = MineConfig::new(0.5).unwrap();
        let got = mine_maximal(&s, 2, &config).unwrap();
        assert_eq!(got.maximal.len(), 2);
        assert!(got.maximal.iter().all(|p| p.letters.len() == 1));
        assert_same_maximal(&s, 2, 0.5);
    }

    #[test]
    fn empty_series_alphabet() {
        let mut b = SeriesBuilder::new();
        for t in 0..8u32 {
            b.push_instant([fid(t)]);
        }
        let s = b.finish();
        let got = mine_maximal(&s, 2, &MineConfig::new(0.9).unwrap()).unwrap();
        assert!(got.maximal.is_empty());
    }
}
