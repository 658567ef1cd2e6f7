//! Closed frequent pattern mining.
//!
//! A frequent pattern is **closed** when no proper superpattern has the
//! same count. The closed set is the standard lossless compression of the
//! frequent set — every frequent pattern's count is recoverable as the
//! count of its smallest closed superpattern — and it sits between the full
//! set and the maximal set ([`crate::maximal`]): maximal ⊆ closed ⊆
//! frequent.
//!
//! The hit-set representation makes closure *cheap*: the closure of `P` is
//! the intersection of all (distinct) hits that contain `P` — one pruned
//! walk of the max-subpattern tree
//! ([`MaxSubpatternTree::intersect_superpatterns`]) — with scan-1 counts
//! disambiguating the 1-letter hits the tree does not store.
//!
//! ```
//! use ppm_core::{closed, MineConfig};
//! use ppm_timeseries::{FeatureCatalog, SeriesBuilder};
//!
//! // Two features that always co-occur: 3 frequent patterns, 1 closed.
//! let mut catalog = FeatureCatalog::new();
//! let (a, b) = (catalog.intern("a"), catalog.intern("b"));
//! let mut builder = SeriesBuilder::new();
//! for _ in 0..8 {
//!     builder.push_instant([a]);
//!     builder.push_instant([b]);
//! }
//! let series = builder.finish();
//! let result = closed::mine_closed(&series, 2, &MineConfig::new(0.9).unwrap()).unwrap();
//! assert_eq!(result.closed.len(), 1);
//! assert_eq!(result.closed[0].letters.len(), 2);
//! ```

use crate::error::Result;
use crate::hitset::{count_any, scan_and_build_tree, MaxSubpatternTree};
use crate::letters::LetterSet;
use crate::result::{FrequentPattern, MiningResult};
use crate::rows::Input;
use crate::scan::{MineConfig, Scan1};
use crate::stats::MiningStats;

/// The closure of `set` within the mined data: the largest pattern matched
/// by exactly the segments that match `set`.
///
/// Returns `None` when `set` matches no segment (count 0), in which case
/// closure is undefined.
///
/// The subtlety this handles: hits with fewer than 2 letters are not stored
/// in the tree (paper §4), so for 0- and 1-letter inputs the tree's
/// intersection must be corrected against the exact scan-1 counts.
pub fn closure(tree: &MaxSubpatternTree, scan1: &Scan1, set: &LetterSet) -> Option<LetterSet> {
    let m = scan1.segment_count as u64;
    match set.len() {
        0 => {
            // Closure of the empty pattern: the letters present in *every*
            // segment — exactly those with scan-1 count m.
            if m == 0 {
                return None;
            }
            let mut out = LetterSet::new(scan1.alphabet.len());
            for (idx, &count) in scan1.letter_counts.iter().enumerate() {
                if count == m {
                    out.insert(idx);
                }
            }
            Some(out)
        }
        1 => {
            let letter = set.first().expect("one letter");
            let exact = scan1.letter_counts[letter];
            if exact == 0 {
                return None;
            }
            // Segments whose projection was exactly {letter} are absent
            // from the tree; if any exist, they pin the closure to {letter}.
            if exact > tree.count_superpatterns_walk(set) {
                return Some(set.clone());
            }
            tree.intersect_superpatterns(set)
        }
        _ => {
            if tree.count_superpatterns_walk(set) == 0 {
                return None;
            }
            tree.intersect_superpatterns(set)
        }
    }
}

/// Result of closed-pattern mining.
#[derive(Debug, Clone)]
pub struct ClosedResult {
    /// The mined period.
    pub period: usize,
    /// Number of whole segments `m`.
    pub segment_count: usize,
    /// Count threshold used.
    pub min_count: u64,
    /// The frequent-letter alphabet.
    pub alphabet: crate::letters::Alphabet,
    /// The closed frequent patterns, sorted by (letter count, letters).
    pub closed: Vec<FrequentPattern>,
    /// Instrumentation (two scans).
    pub stats: MiningStats,
}

/// Mines the closed frequent patterns of `period` directly: two scans, then
/// closure computation over the tree — frequent patterns are enumerated via
/// their closures, so the (possibly exponentially larger) full frequent set
/// is never materialized.
///
/// The enumeration is the standard closure-based search: start from the
/// closures of the frequent 1-patterns, then repeatedly extend closed
/// patterns by one letter and take closures, deduplicating. The input is
/// any [`Input`]: a series, a bitmap view or a source.
pub fn mine_closed<'a>(
    input: impl Into<Input<'a>>,
    period: usize,
    config: &MineConfig,
) -> Result<ClosedResult> {
    use std::collections::HashSet;

    let (scan1, tree, mut stats) = scan_and_build_tree(input, period, config)?;

    let n = scan1.alphabet.len();
    let count_of = |set: &LetterSet| count_any(&tree, &scan1, set);

    let mut seen: HashSet<LetterSet> = HashSet::new();
    let mut closed: Vec<FrequentPattern> = Vec::new();
    // Seed: closures of the frequent single letters.
    let mut frontier: Vec<LetterSet> = Vec::new();
    for idx in 0..n {
        let single = LetterSet::from_indices(n, [idx]);
        stats.subset_tests += 1;
        if let Some(cl) = closure(&tree, &scan1, &single) {
            if count_of(&cl) >= scan1.min_count && seen.insert(cl.clone()) {
                frontier.push(cl);
            }
        }
    }
    // Expand: extend each closed pattern by one absent letter and close.
    while let Some(current) = frontier.pop() {
        stats.max_level = stats.max_level.max(current.len());
        for idx in 0..n {
            if current.contains(idx) {
                continue;
            }
            let mut extended = current.clone();
            extended.insert(idx);
            stats.subset_tests += 1;
            if count_of(&extended) < scan1.min_count {
                continue;
            }
            if let Some(cl) = closure(&tree, &scan1, &extended) {
                if seen.insert(cl.clone()) {
                    frontier.push(cl);
                }
            }
        }
        closed.push(FrequentPattern {
            count: count_of(&current),
            letters: current,
        });
    }

    closed.sort_by(|a, b| a.letters.cmp(&b.letters));
    Ok(ClosedResult {
        period,
        segment_count: scan1.segment_count,
        min_count: scan1.min_count,
        alphabet: scan1.alphabet,
        closed,
        stats,
    })
}

/// Reference implementation: the closed patterns of a full mining result —
/// those with no frequent proper superpattern of equal count.
pub fn closed_of(result: &MiningResult) -> Vec<FrequentPattern> {
    let mut out: Vec<FrequentPattern> = result
        .frequent
        .iter()
        .filter(|fp| {
            !result.frequent.iter().any(|other| {
                other.count == fp.count
                    && other.letters.len() > fp.letters.len()
                    && fp.letters.is_subset(&other.letters)
            })
        })
        .cloned()
        .collect();
    out.sort_by(|a, b| a.letters.cmp(&b.letters));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::{FeatureId, FeatureSeries, SeriesBuilder};

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    fn random_series(n: usize, seed: u64) -> FeatureSeries {
        let mut b = SeriesBuilder::new();
        let mut x = seed;
        for _ in 0..n {
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
        b.finish()
    }

    fn assert_closed_matches_reference(series: &FeatureSeries, period: usize, conf: f64) {
        let config = MineConfig::new(conf).unwrap();
        let full = crate::hitset::mine(series, period, &config).unwrap();
        let expect = closed_of(&full);
        let got = mine_closed(series, period, &config).unwrap();
        assert_eq!(got.closed, expect, "period {period} conf {conf}");
    }

    #[test]
    fn closed_equals_reference_on_random_data() {
        for seed in [1u64, 7, 42] {
            let s = random_series(180, seed);
            for conf in [0.25, 0.4, 0.6] {
                assert_closed_matches_reference(&s, 6, conf);
            }
        }
    }

    #[test]
    fn perfectly_correlated_letters_collapse_to_one_closed_pattern() {
        // f0, f1, f2 always co-occur: 7 frequent patterns, 1 closed.
        let mut b = SeriesBuilder::new();
        for j in 0..20 {
            if j % 4 == 0 {
                b.push_instant([]);
                b.push_instant([]);
                b.push_instant([]);
            } else {
                b.push_instant([fid(0)]);
                b.push_instant([fid(1)]);
                b.push_instant([fid(2)]);
            }
        }
        let s = b.finish();
        let config = MineConfig::new(0.5).unwrap();
        let full = crate::hitset::mine(&s, 3, &config).unwrap();
        assert_eq!(full.len(), 7);
        let got = mine_closed(&s, 3, &config).unwrap();
        assert_eq!(got.closed.len(), 1);
        assert_eq!(got.closed[0].letters.len(), 3);
        assert_eq!(got.closed[0].count, 15);
    }

    #[test]
    fn maximal_is_subset_of_closed() {
        let s = random_series(240, 9);
        let config = MineConfig::new(0.3).unwrap();
        let full = crate::hitset::mine(&s, 5, &config).unwrap();
        let closed = closed_of(&full);
        let maximal = full.maximal();
        for mp in maximal {
            assert!(
                closed.iter().any(|cp| cp.letters == mp.letters),
                "maximal pattern missing from closed set"
            );
        }
    }

    #[test]
    fn closure_is_extensive_idempotent_and_count_preserving() {
        let s = random_series(200, 3);
        let config = MineConfig::new(0.2).unwrap();
        let (scan1, tree, _) = scan_and_build_tree(&s, 5, &config).unwrap();
        let n = scan1.alphabet.len();
        let segs = s.segments(5).unwrap();

        let brute_count = |set: &LetterSet| {
            let p = crate::pattern::Pattern::from_letter_set(&scan1.alphabet, set);
            segs.iter().filter(|seg| p.matches_segment(seg)).count() as u64
        };

        for mask in 0u32..(1 << n.min(10)) {
            let set = LetterSet::from_indices(n, (0..n.min(10)).filter(|i| mask & (1 << i) != 0));
            match closure(&tree, &scan1, &set) {
                None => assert_eq!(brute_count(&set), 0, "{set:?}"),
                Some(cl) => {
                    assert!(set.is_subset(&cl), "not extensive: {set:?} -> {cl:?}");
                    assert_eq!(
                        brute_count(&cl),
                        brute_count(&set),
                        "count changed: {set:?} -> {cl:?}"
                    );
                    let again = closure(&tree, &scan1, &cl).expect("closure exists");
                    assert_eq!(again, cl, "not idempotent");
                }
            }
        }
    }

    #[test]
    fn one_letter_hits_pin_closures() {
        // Segment projections: {f0} three times, {f0, f1} twice. The
        // closure of {f0} must be {f0} even though every *tree* hit also
        // contains f1.
        let mut b = SeriesBuilder::new();
        for j in 0..5 {
            b.push_instant([fid(0)]);
            b.push_instant(if j < 2 { vec![fid(1)] } else { vec![] });
        }
        let s = b.finish();
        let config = MineConfig::new(0.2).unwrap();
        let (scan1, tree, _) = scan_and_build_tree(&s, 2, &config).unwrap();
        let f0 = scan1.alphabet.index_of(0, fid(0)).unwrap();
        let set = LetterSet::from_indices(scan1.alphabet.len(), [f0]);
        assert_eq!(closure(&tree, &scan1, &set), Some(set.clone()));
    }

    #[test]
    fn closure_of_empty_pattern_is_the_universal_letters() {
        let mut b = SeriesBuilder::new();
        for _ in 0..6 {
            b.push_instant([fid(0)]); // in every segment
            b.push_instant([]);
        }
        let s = b.finish();
        let config = MineConfig::new(0.5).unwrap();
        let (scan1, tree, _) = scan_and_build_tree(&s, 2, &config).unwrap();
        let empty = LetterSet::new(scan1.alphabet.len());
        let cl = closure(&tree, &scan1, &empty).unwrap();
        assert_eq!(cl.len(), 1); // exactly the always-present letter
    }
}
