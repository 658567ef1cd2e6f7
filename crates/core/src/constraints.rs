//! Query- and constraint-based mining of partial periodicity.
//!
//! §6 of the paper lists "query- and constraint-based mining of partial
//! periodicity \[NLHP98\]" among the natural follow-ons: users rarely want
//! *all* frequent patterns — they want "patterns involving the newspaper",
//! "patterns in the morning slots", or "patterns of at most 4 letters".
//!
//! [`Constraints`] captures the standard constraint classes and
//! [`mine_constrained`] pushes each into the hit-set mining pipeline where
//! it is sound to do so:
//!
//! * **succinct** constraints (`offsets`, `features`) restrict the letter
//!   alphabet before the second scan — smaller `C_max`, smaller tree;
//! * **anti-monotone** constraints (`max_letters`) cap the level-wise
//!   derivation;
//! * **required letters** re-root the search: every answer must be a
//!   superset of `required`, so the lattice over the remaining letters is
//!   explored with the counting oracle `count(required ∪ S)` — still
//!   anti-monotone, so Apriori pruning stays valid.
//!
//! ```
//! use ppm_core::constraints::{mine_constrained, Constraints};
//! use ppm_core::MineConfig;
//! use ppm_timeseries::{FeatureCatalog, SeriesBuilder};
//!
//! let mut catalog = FeatureCatalog::new();
//! let coffee = catalog.intern("coffee");
//! let tv = catalog.intern("tv");
//! let mut builder = SeriesBuilder::new();
//! for _ in 0..10 {
//!     builder.push_instant([coffee]);
//!     builder.push_instant([tv]);
//! }
//! let series = builder.finish();
//!
//! // Only morning (offset 0) patterns, please.
//! let constraints = Constraints::none().at_offsets([0]);
//! let result = mine_constrained(
//!     &series, 2, &MineConfig::new(0.8).unwrap(), &constraints,
//! ).unwrap();
//! assert_eq!(result.len(), 1); // coffee@0; tv@1 was filtered out
//! ```

use ppm_timeseries::FeatureId;

use crate::apriori::join_candidates;
use crate::error::{Error, Result};
use crate::guard::ResourceGuard;
use crate::hitset::{count_any, grow_tree};
use crate::letters::{Alphabet, LetterSet};
use crate::result::{FrequentPattern, MiningResult};
use crate::rows::{Input, Passes};
use crate::scan::{MineConfig, Scan1};
use crate::stats::MiningStats;

/// Constraints on the patterns to mine. `Default` means unconstrained.
#[derive(Debug, Clone, Default)]
pub struct Constraints {
    /// Only letters at these offsets may appear (succinct). `None` = all.
    pub offsets: Option<Vec<usize>>,
    /// Only these features may appear (succinct). `None` = all.
    pub features: Option<Vec<FeatureId>>,
    /// Every reported pattern must contain all of these letters.
    pub required: Vec<(usize, FeatureId)>,
    /// Maximum number of letters per pattern (anti-monotone). `None` = ∞.
    pub max_letters: Option<usize>,
}

impl Constraints {
    /// No constraints.
    pub fn none() -> Self {
        Self::default()
    }

    /// Restricts to the given offsets.
    pub fn at_offsets(mut self, offsets: impl IntoIterator<Item = usize>) -> Self {
        self.offsets = Some(offsets.into_iter().collect());
        self
    }

    /// Restricts to the given features.
    pub fn with_features(mut self, features: impl IntoIterator<Item = FeatureId>) -> Self {
        self.features = Some(features.into_iter().collect());
        self
    }

    /// Requires the given letter in every reported pattern.
    pub fn require(mut self, offset: usize, feature: FeatureId) -> Self {
        self.required.push((offset, feature));
        self
    }

    /// Caps pattern size.
    pub fn max_letters(mut self, n: usize) -> Self {
        self.max_letters = Some(n);
        self
    }

    fn admits(&self, offset: usize, feature: FeatureId) -> bool {
        self.offsets.as_ref().is_none_or(|o| o.contains(&offset))
            && self.features.as_ref().is_none_or(|f| f.contains(&feature))
    }
}

/// Mines all frequent patterns of `period` satisfying `constraints`, with
/// two scans (the hit-set pipeline). Counts are exact and identical to
/// filtering an unconstrained run; the constraints only *prune work*. The
/// input is any [`Input`]: a series, a bitmap view or a source.
pub fn mine_constrained<'a>(
    input: impl Into<Input<'a>>,
    period: usize,
    config: &MineConfig,
    constraints: &Constraints,
) -> Result<MiningResult> {
    for &(offset, _) in &constraints.required {
        if offset >= period {
            return Err(Error::InvalidPeriod {
                period: offset + 1,
                series_len: period,
            });
        }
    }

    // Scan 1, then shrink the alphabet to the admissible letters (required
    // letters are always admissible — requiring a letter implies wanting
    // patterns that contain it).
    let mut passes = Passes::new(input.into(), ResourceGuard::unlimited(), "hitset.segments");
    let scan1_full = passes.scan1(period, config)?;
    let mut stats = MiningStats {
        series_scans: passes.completed(),
        max_level: 1,
        ..Default::default()
    };
    let admissible = (0..scan1_full.alphabet.len()).filter(|&i| {
        let (o, f) = scan1_full.alphabet.letter(i);
        constraints.admits(o, f) || constraints.required.contains(&(o, f))
    });
    let kept: Vec<usize> = admissible.collect();
    let alphabet = Alphabet::new(period, kept.iter().map(|&i| scan1_full.alphabet.letter(i)));
    let letter_counts: Vec<u64> = kept.iter().map(|&i| scan1_full.letter_counts[i]).collect();
    let scan1 = Scan1 {
        alphabet,
        letter_counts,
        segment_count: scan1_full.segment_count,
        min_count: scan1_full.min_count,
    };

    // Resolve the required letters against the (filtered) alphabet. A
    // required letter that is not frequent dooms every answer.
    let mut required = scan1.alphabet.empty_set();
    for &(o, f) in &constraints.required {
        match scan1.alphabet.index_of(o, f) {
            Some(idx) => required.insert(idx),
            None => {
                return Ok(scan1.into_result(config, Vec::new(), stats));
            }
        }
    }
    if let Some(cap) = constraints.max_letters {
        if required.len() > cap {
            return Ok(scan1.into_result(config, Vec::new(), stats));
        }
    }

    // Scan 2 over the reduced alphabet.
    let tree = grow_tree(&mut passes, &scan1, &mut stats)?;

    // Derivation over the free letters, re-rooted at `required`.
    let cap = constraints.max_letters.unwrap_or(usize::MAX);
    let mut frequent: Vec<FrequentPattern> = Vec::new();

    let with_required = |free: &LetterSet| {
        let mut set = free.clone();
        set.union_with(&required);
        set
    };

    // The required core itself (if non-empty and frequent).
    if !required.is_empty() {
        let core_count = count_any(&tree, &scan1, &required);
        if core_count < scan1.min_count {
            return Ok(scan1.into_result(config, Vec::new(), stats));
        }
        frequent.push(FrequentPattern {
            letters: required.clone(),
            count: core_count,
        });
    }

    // Level 1 over free letters (patterns of size |required| + 1).
    let mut level: Vec<LetterSet> = Vec::new();
    if required.len() < cap {
        for l in (0..scan1.alphabet.len()).filter(|&i| !required.contains(i)) {
            stats.subset_tests += 1;
            let free = LetterSet::from_indices(scan1.alphabet.len(), [l]);
            let set = with_required(&free);
            // With no required letters `count_any` answers singletons
            // from the exact scan-1 counts.
            let count = count_any(&tree, &scan1, &set);
            if count >= scan1.min_count {
                frequent.push(FrequentPattern {
                    letters: set,
                    count,
                });
                level.push(free);
            }
        }
    }

    // Level-wise expansion with Apriori pruning over the free letters.
    while !level.is_empty() && required.len() + level[0].len() < cap {
        let candidates = join_candidates(&level);
        stats.candidates_generated += candidates.len() as u64;
        if candidates.is_empty() {
            break;
        }
        stats.max_level = stats.max_level.max(required.len() + candidates[0].len());
        level.clear();
        for free in candidates {
            stats.subset_tests += 1;
            let set = with_required(&free);
            let count = count_any(&tree, &scan1, &set);
            if count >= scan1.min_count {
                frequent.push(FrequentPattern {
                    letters: set,
                    count,
                });
                level.push(free);
            }
        }
    }

    Ok(scan1.into_result(config, frequent, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::{FeatureSeries, SeriesBuilder};

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    /// Period 4; letters: (0,f0) ~0.9, (1,f1) ~0.8 co-occurring with f0,
    /// (2,f2) independent ~0.7.
    fn series() -> FeatureSeries {
        let mut b = SeriesBuilder::new();
        for j in 0..40u32 {
            b.push_instant(if j % 10 != 0 { vec![fid(0)] } else { vec![] });
            b.push_instant(if j % 5 != 0 { vec![fid(1)] } else { vec![] });
            b.push_instant(if j % 10 < 7 { vec![fid(2)] } else { vec![] });
            b.push_instant([]);
        }
        b.finish()
    }

    fn unconstrained() -> MiningResult {
        crate::hitset::mine(&series(), 4, &MineConfig::new(0.5).unwrap()).unwrap()
    }

    #[test]
    fn no_constraints_equals_plain_mining() {
        let plain = unconstrained();
        let constrained = mine_constrained(
            &series(),
            4,
            &MineConfig::new(0.5).unwrap(),
            &Constraints::none(),
        )
        .unwrap();
        assert_eq!(plain.frequent, constrained.frequent);
    }

    #[test]
    fn offset_constraint_filters_letters() {
        let got = mine_constrained(
            &series(),
            4,
            &MineConfig::new(0.5).unwrap(),
            &Constraints::none().at_offsets([0, 1]),
        )
        .unwrap();
        assert_eq!(got.alphabet.len(), 2);
        // Results are exactly the unconstrained patterns over offsets 0–1.
        let plain = unconstrained();
        let expect: Vec<u64> = plain
            .frequent
            .iter()
            .filter(|fp| fp.letters.iter().all(|i| plain.alphabet.letter(i).0 <= 1))
            .map(|fp| fp.count)
            .collect();
        let got_counts: Vec<u64> = got.frequent.iter().map(|fp| fp.count).collect();
        assert_eq!(got_counts.len(), expect.len());
        let mut a = got_counts.clone();
        let mut b = expect.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn feature_constraint_filters_letters() {
        let got = mine_constrained(
            &series(),
            4,
            &MineConfig::new(0.5).unwrap(),
            &Constraints::none().with_features([fid(2)]),
        )
        .unwrap();
        assert_eq!(got.alphabet.len(), 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got.alphabet.letter(0), (2, fid(2)));
    }

    #[test]
    fn required_letter_reroots_the_search() {
        let config = MineConfig::new(0.5).unwrap();
        let got = mine_constrained(
            &series(),
            4,
            &config,
            &Constraints::none().require(0, fid(0)),
        )
        .unwrap();
        // Every reported pattern contains (0, f0).
        let f0 = got.alphabet.index_of(0, fid(0)).unwrap();
        assert!(!got.is_empty());
        assert!(got.frequent.iter().all(|fp| fp.letters.contains(f0)));
        // Counts equal the unconstrained run's counts for the same sets.
        let plain = unconstrained();
        for fp in &got.frequent {
            let matching = plain
                .frequent
                .iter()
                .find(|p| {
                    p.letters.iter().collect::<Vec<_>>() == fp.letters.iter().collect::<Vec<_>>()
                })
                .expect("constrained pattern must exist unconstrained");
            assert_eq!(matching.count, fp.count);
        }
        // And nothing containing f0 was missed.
        let expect = plain
            .frequent
            .iter()
            .filter(|p| p.letters.contains(f0))
            .count();
        assert_eq!(got.len(), expect);
    }

    #[test]
    fn infrequent_required_letter_gives_empty_result() {
        let got = mine_constrained(
            &series(),
            4,
            &MineConfig::new(0.5).unwrap(),
            &Constraints::none().require(3, fid(9)),
        )
        .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn required_offset_out_of_period_errors() {
        let r = mine_constrained(
            &series(),
            4,
            &MineConfig::new(0.5).unwrap(),
            &Constraints::none().require(4, fid(0)),
        );
        assert!(r.is_err());
    }

    #[test]
    fn max_letters_caps_derivation() {
        let config = MineConfig::new(0.5).unwrap();
        let capped =
            mine_constrained(&series(), 4, &config, &Constraints::none().max_letters(1)).unwrap();
        assert!(capped.frequent.iter().all(|fp| fp.letters.len() == 1));
        let plain = unconstrained();
        assert_eq!(
            capped.len(),
            plain
                .frequent
                .iter()
                .filter(|fp| fp.letters.len() == 1)
                .count()
        );
        // Cap below the required set size -> empty.
        let impossible = mine_constrained(
            &series(),
            4,
            &config,
            &Constraints::none()
                .require(0, fid(0))
                .require(1, fid(1))
                .max_letters(1),
        )
        .unwrap();
        assert!(impossible.is_empty());
    }

    #[test]
    fn builder_combinators_compose() {
        let c = Constraints::none()
            .at_offsets([0, 1, 2])
            .with_features([fid(0), fid(1)])
            .require(0, fid(0))
            .max_letters(3);
        assert_eq!(c.offsets.as_deref(), Some(&[0usize, 1, 2][..]));
        assert_eq!(c.required, vec![(0, fid(0))]);
        assert_eq!(c.max_letters, Some(3));
        assert!(c.admits(1, fid(1)));
        assert!(!c.admits(3, fid(1)));
        assert!(!c.admits(1, fid(2)));
    }
}
