//! Mining results: frequent patterns with exact counts.

use ppm_timeseries::FeatureCatalog;

use crate::letters::{Alphabet, LetterSet};
use crate::pattern::Pattern;
use crate::stats::MiningStats;

/// One frequent pattern, in the dense letter encoding, with its exact
/// frequency count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentPattern {
    /// The pattern as a set of letters over the result's [`Alphabet`].
    pub letters: LetterSet,
    /// Exact frequency count (number of matching period segments).
    pub count: u64,
}

impl FrequentPattern {
    /// Confidence given `m` whole segments.
    pub fn confidence(&self, segment_count: usize) -> f64 {
        if segment_count == 0 {
            0.0
        } else {
            self.count as f64 / segment_count as f64
        }
    }
}

/// The complete output of mining one period: every frequent pattern
/// (all L-lengths ≥ 1) with exact counts, plus instrumentation.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// The mined period `p`.
    pub period: usize,
    /// Number of whole period segments `m`.
    pub segment_count: usize,
    /// The confidence threshold used.
    pub min_confidence: f64,
    /// The count threshold `min_count = ⌈min_conf · m⌉` used.
    pub min_count: u64,
    /// The frequent-letter alphabet (`C_max`).
    pub alphabet: Alphabet,
    /// All frequent patterns, sorted by (letter count, letters).
    pub frequent: Vec<FrequentPattern>,
    /// Instrumentation gathered during mining.
    pub stats: MiningStats,
}

impl MiningResult {
    /// Number of frequent patterns found.
    pub fn len(&self) -> usize {
        self.frequent.len()
    }

    /// Whether no patterns were frequent.
    pub fn is_empty(&self) -> bool {
        self.frequent.is_empty()
    }

    /// Canonicalizes ordering: by ascending letter count, then by letter
    /// indices. Miners call this before returning so results from different
    /// algorithms compare equal structurally.
    pub fn sort(&mut self) {
        self.frequent.sort_by(|a, b| a.letters.cmp(&b.letters));
    }

    /// Iterates frequent patterns decoded to symbolic [`Pattern`]s with
    /// `(pattern, count, confidence)`.
    pub fn patterns(&self) -> impl Iterator<Item = (Pattern, u64, f64)> + '_ {
        self.frequent.iter().map(move |fp| {
            (
                Pattern::from_letter_set(&self.alphabet, &fp.letters),
                fp.count,
                fp.confidence(self.segment_count),
            )
        })
    }

    /// Frequent patterns with exactly `k` letters.
    pub fn with_letter_count(&self, k: usize) -> impl Iterator<Item = &FrequentPattern> {
        self.frequent.iter().filter(move |fp| fp.letters.len() == k)
    }

    /// Frequent patterns with L-length exactly `k` (distinct offsets).
    pub fn with_l_length(&self, k: usize) -> impl Iterator<Item = &FrequentPattern> {
        self.frequent
            .iter()
            .filter(move |fp| self.alphabet.l_length_of(&fp.letters) == k)
    }

    /// The maximum L-length over all frequent patterns (the paper's
    /// MAX-PAT-LENGTH for this mining run), or 0 when nothing is frequent.
    pub fn max_l_length(&self) -> usize {
        self.frequent
            .iter()
            .map(|fp| self.alphabet.l_length_of(&fp.letters))
            .max()
            .unwrap_or(0)
    }

    /// The largest letter count among frequent patterns.
    pub fn max_letter_count(&self) -> usize {
        self.frequent
            .iter()
            .map(|fp| fp.letters.len())
            .max()
            .unwrap_or(0)
    }

    /// Looks up the exact count of a symbolic pattern, if it is frequent.
    ///
    /// Patterns with letters outside the alphabet (hence infrequent) return
    /// `None`.
    pub fn count_of(&self, pattern: &Pattern) -> Option<u64> {
        let set = pattern.to_letter_set(&self.alphabet)?;
        self.frequent
            .iter()
            .find(|fp| fp.letters == set)
            .map(|fp| fp.count)
    }

    /// The *maximal* frequent patterns: those with no frequent proper
    /// superpattern (paper §4 end). Quadratic in the number of frequent
    /// patterns, which is fine at realistic pattern counts.
    pub fn maximal(&self) -> Vec<&FrequentPattern> {
        self.frequent
            .iter()
            .filter(|fp| {
                !self.frequent.iter().any(|other| {
                    other.letters.len() > fp.letters.len() && fp.letters.is_subset(&other.letters)
                })
            })
            .collect()
    }

    /// Renders a human-readable report of the top patterns (longest first),
    /// for examples and diagnostics.
    pub fn report(&self, catalog: &FeatureCatalog, limit: usize) -> String {
        use std::fmt::Write as _;
        let mut rows: Vec<_> = self.frequent.iter().collect();
        rows.sort_by(|a, b| {
            b.letters
                .len()
                .cmp(&a.letters.len())
                .then(b.count.cmp(&a.count))
        });
        let mut out = String::new();
        let _ = writeln!(
            out,
            "period={} segments={} min_conf={:.2} frequent={} (showing {})",
            self.period,
            self.segment_count,
            self.min_confidence,
            self.frequent.len(),
            rows.len().min(limit),
        );
        for fp in rows.into_iter().take(limit) {
            let pat = Pattern::from_letter_set(&self.alphabet, &fp.letters);
            let _ = writeln!(
                out,
                "  {}  count={} conf={:.3}",
                pat.display(catalog),
                fp.count,
                fp.confidence(self.segment_count)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::FeatureId;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    /// Alphabet with letters (0,f0) (0,f1) (1,f2) (2,f3).
    fn alpha() -> Alphabet {
        Alphabet::new(3, [(0, fid(0)), (0, fid(1)), (1, fid(2)), (2, fid(3))])
    }

    fn result_with(patterns: Vec<(Vec<usize>, u64)>) -> MiningResult {
        let alphabet = alpha();
        let n = alphabet.len();
        MiningResult {
            period: 3,
            segment_count: 10,
            min_confidence: 0.4,
            min_count: 4,
            alphabet,
            frequent: patterns
                .into_iter()
                .map(|(idx, count)| FrequentPattern {
                    letters: LetterSet::from_indices(n, idx),
                    count,
                })
                .collect(),
            stats: MiningStats::default(),
        }
    }

    #[test]
    fn confidence_divides_by_segments() {
        let fp = FrequentPattern {
            letters: LetterSet::new(4),
            count: 5,
        };
        assert!((fp.confidence(10) - 0.5).abs() < 1e-12);
        assert_eq!(fp.confidence(0), 0.0);
    }

    #[test]
    fn sort_orders_by_size_then_letters() {
        let mut r = result_with(vec![
            (vec![0, 1], 5),
            (vec![2], 9),
            (vec![0], 8),
            (vec![0, 3], 6),
        ]);
        r.sort();
        let sizes: Vec<usize> = r.frequent.iter().map(|f| f.letters.len()).collect();
        assert_eq!(sizes, vec![1, 1, 2, 2]);
        assert_eq!(r.frequent[0].letters.iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(r.frequent[2].letters.iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn l_length_filters_distinguish_brace_sets() {
        // Letters 0 and 1 share offset 0: {f0,f1} is letter-count 2 but
        // L-length 1.
        let r = result_with(vec![(vec![0, 1], 5), (vec![0, 2], 5)]);
        assert_eq!(r.with_l_length(1).count(), 1);
        assert_eq!(r.with_l_length(2).count(), 1);
        assert_eq!(r.with_letter_count(2).count(), 2);
        assert_eq!(r.max_l_length(), 2);
        assert_eq!(r.max_letter_count(), 2);
    }

    #[test]
    fn maximal_filters_subsumed_patterns() {
        let r = result_with(vec![
            (vec![0], 9),
            (vec![2], 8),
            (vec![0, 2], 5),
            (vec![3], 7),
        ]);
        let max: Vec<Vec<usize>> = r
            .maximal()
            .iter()
            .map(|f| f.letters.iter().collect())
            .collect();
        assert!(max.contains(&vec![0, 2]));
        assert!(max.contains(&vec![3]));
        assert!(!max.contains(&vec![0]));
        assert!(!max.contains(&vec![2]));
    }

    #[test]
    fn count_of_round_trips_through_symbolic_form() {
        let r = result_with(vec![(vec![0, 2], 5)]);
        let pat = Pattern::from_letter_set(&r.alphabet, &r.frequent[0].letters);
        assert_eq!(r.count_of(&pat), Some(5));
        // A pattern with a foreign feature cannot be looked up.
        let mut cat = FeatureCatalog::with_synthetic_features(10);
        let foreign = Pattern::parse("f9 * *", &mut cat).unwrap();
        assert_eq!(r.count_of(&foreign), None);
    }

    #[test]
    fn patterns_decodes_all() {
        let r = result_with(vec![(vec![0], 8), (vec![0, 1], 5)]);
        let decoded: Vec<_> = r.patterns().collect();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].1, 8);
        assert!((decoded[1].2 - 0.5).abs() < 1e-12);
        assert_eq!(decoded[1].0.l_length(), 1); // {f0,f1} at offset 0
    }

    #[test]
    fn report_mentions_patterns() {
        let r = result_with(vec![(vec![0], 8)]);
        let cat = FeatureCatalog::with_synthetic_features(4);
        let rep = r.report(&cat, 10);
        assert!(rep.contains("period=3"));
        assert!(rep.contains("count=8"));
    }
}
