//! Scan 1: finding the frequent 1-patterns (`F1`).
//!
//! Both mining algorithms share the same first pass over the series
//! (Step 1 of Algorithms 3.1 and 3.2): accumulate a frequency count for
//! every `(offset, feature)` pair across whole period segments, then keep
//! the pairs whose confidence reaches the threshold. The survivors form the
//! letter [`Alphabet`] — the candidate max-pattern `C_max`.

use std::collections::HashMap;
use std::time::Duration;

use ppm_timeseries::{EncodedSeriesView, FeatureId, FeatureSeries};

use crate::error::{Error, Result};
use crate::guard::ResourceGuard;
use crate::letters::{Alphabet, LetterSet};
use crate::result::{FrequentPattern, MiningResult};
use crate::rows::{Input, Passes};
use crate::stats::MiningStats;
use crate::vertical::Kernel;

/// Mining configuration: the confidence threshold (validated to lie in
/// `(0, 1]`) plus optional resource guards — a wall-clock deadline and a
/// max-subpattern-tree node budget — that abort a runaway mine with a typed
/// error carrying partial statistics — and the vertical engine's counting
/// kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MineConfig {
    min_confidence: f64,
    max_duration: Option<Duration>,
    max_tree_nodes: Option<usize>,
    kernel: Kernel,
}

impl MineConfig {
    /// Creates a config; `min_confidence` must be in `(0, 1]`. No resource
    /// guards are set and the counting kernel is [`Kernel::Wide`].
    pub fn new(min_confidence: f64) -> Result<Self> {
        if !(min_confidence > 0.0 && min_confidence <= 1.0) {
            return Err(Error::InvalidConfidence {
                value: min_confidence,
            });
        }
        Ok(MineConfig {
            min_confidence,
            max_duration: None,
            max_tree_nodes: None,
            kernel: Kernel::Wide,
        })
    }

    /// Sets a wall-clock deadline: guarded miners abort with
    /// [`Error::DeadlineExceeded`](crate::Error::DeadlineExceeded) once
    /// mining has run for `max_duration`. The check fires at segment
    /// granularity, so the overrun beyond the deadline is bounded by the
    /// time to process one segment batch.
    pub fn with_deadline(mut self, max_duration: Duration) -> Self {
        self.max_duration = Some(max_duration);
        self
    }

    /// Sets a node budget for the max-subpattern tree: guarded miners abort
    /// with [`Error::TreeBudgetExceeded`](crate::Error::TreeBudgetExceeded)
    /// as soon as an insert grows the tree past `max_tree_nodes`.
    pub fn with_max_tree_nodes(mut self, max_tree_nodes: usize) -> Self {
        self.max_tree_nodes = Some(max_tree_nodes);
        self
    }

    /// Selects the bitmap counting kernel of both cold two-scan engines —
    /// the vertical derive and the hit-set derive's default
    /// [`CountStrategy::Bitmap`](crate::hitset::derive::CountStrategy::Bitmap)
    /// ([`Kernel::Wide`] by default; [`Kernel::Scalar`] is the reference the
    /// audit compares it against). The kernel changes only *how* counts are
    /// computed, never the counts — both yield bit-identical frequent sets.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The confidence threshold.
    pub fn min_confidence(&self) -> f64 {
        self.min_confidence
    }

    /// The wall-clock deadline, if one is set.
    pub fn max_duration(&self) -> Option<Duration> {
        self.max_duration
    }

    /// The tree-node budget, if one is set.
    pub fn max_tree_nodes(&self) -> Option<usize> {
        self.max_tree_nodes
    }

    /// The vertical counting-kernel selection.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The smallest frequency count that meets the threshold for `m` whole
    /// segments: the least integer `c` with `c ≥ min_conf · m`, computed
    /// robustly against floating-point boundary error.
    pub fn min_count(&self, m: usize) -> u64 {
        let raw = self.min_confidence * m as f64;
        let mut c = raw.ceil() as u64;
        // `ceil` may overshoot when `raw` is an integer perturbed upward by
        // rounding (e.g. 0.8 * 5 → 4.000000000000001): step back if c−1
        // already meets the threshold up to 1 ulp-ish tolerance.
        if c > 0 && (c - 1) as f64 + 1e-9 >= raw {
            c -= 1;
        }
        c.max(1)
    }
}

impl Default for MineConfig {
    /// A permissive default threshold of 0.5 and no resource guards.
    fn default() -> Self {
        MineConfig {
            min_confidence: 0.5,
            max_duration: None,
            max_tree_nodes: None,
            kernel: Kernel::Wide,
        }
    }
}

/// Cap on dense scan-1 table slots (`period × feature-width`): 4M `u64`
/// slots ≈ 32 MiB. Series whose `period × width` product exceeds this fall
/// back to the hash map, which only pays for pairs that actually occur.
const DENSE_TABLE_LIMIT: usize = 1 << 22;

/// The scan-1 counting table.
///
/// Catalog feature ids are interned densely, so for realistic alphabets the
/// `(offset, feature)` key space is small and `offset · width + feature`
/// indexes a flat `Vec<u64>` — no hashing on the hot path of the first
/// scan. Degenerate inputs (huge periods or raw feature ids) spill to a
/// `HashMap`. The representation is a pure function of `(period, width)`.
pub(crate) enum CountTable {
    /// Flat table: `counts[offset * width + feature.index()]`.
    Dense { counts: Vec<u64>, width: usize },
    /// Fallback for key spaces past [`DENSE_TABLE_LIMIT`].
    Sparse(HashMap<(u32, FeatureId), u64>),
}

impl CountTable {
    /// A table for an explicit `(period, width)` key space.
    pub(crate) fn with_width(period: usize, width: usize) -> Self {
        if width > 0
            && period
                .checked_mul(width)
                .is_some_and(|slots| slots <= DENSE_TABLE_LIMIT)
        {
            CountTable::Dense {
                counts: vec![0; period * width],
                width,
            }
        } else {
            CountTable::Sparse(HashMap::new())
        }
    }

    /// Counts one `(offset, feature)` occurrence.
    #[inline]
    pub(crate) fn add(&mut self, offset: u32, feature: FeatureId) {
        match self {
            CountTable::Dense { counts, width } => {
                counts[offset as usize * *width + feature.index()] += 1;
            }
            CountTable::Sparse(map) => *map.entry((offset, feature)).or_insert(0) += 1,
        }
    }

    /// The count for `(offset, feature)` (zero if never seen).
    pub(crate) fn get(&self, offset: u32, feature: FeatureId) -> u64 {
        match self {
            CountTable::Dense { counts, width } => {
                counts[offset as usize * *width + feature.index()]
            }
            CountTable::Sparse(map) => map.get(&(offset, feature)).copied().unwrap_or(0),
        }
    }

    /// The `(offset, feature)` pairs whose count reaches `min_count`.
    pub(crate) fn frequent_pairs(&self, min_count: u64) -> Vec<(usize, FeatureId)> {
        match self {
            CountTable::Dense { counts, width } => counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c >= min_count)
                .map(|(slot, _)| (slot / width, FeatureId::from_raw((slot % width) as u32)))
                .collect(),
            CountTable::Sparse(map) => map
                .iter()
                .filter(|&(_, &c)| c >= min_count)
                .map(|(&(o, f), _)| (o as usize, f))
                .collect(),
        }
    }
}

/// Output of the first scan: the frequent-letter alphabet and exact counts.
#[derive(Debug, Clone)]
pub struct Scan1 {
    /// The frequent letters (`C_max`), canonically ordered.
    pub alphabet: Alphabet,
    /// Exact frequency count per letter, indexed by letter index.
    pub letter_counts: Vec<u64>,
    /// Number of whole period segments `m`.
    pub segment_count: usize,
    /// The count threshold derived from the confidence threshold.
    pub min_count: u64,
}

impl Scan1 {
    /// The frequent 1-patterns, straight from the scan-1 counts — the
    /// seed every engine's derivation extends.
    pub(crate) fn seed_singletons(&self) -> Vec<FrequentPattern> {
        let n_letters = self.alphabet.len();
        self.letter_counts
            .iter()
            .enumerate()
            .map(|(idx, &count)| FrequentPattern {
                letters: LetterSet::from_indices(n_letters, [idx]),
                count,
            })
            .collect()
    }

    /// Assembles the canonically sorted result of a single-period mine:
    /// `frequent` (seeded by [`Self::seed_singletons`]) over this scan's
    /// alphabet, with the run's `stats`.
    pub(crate) fn into_result(
        self,
        config: &MineConfig,
        frequent: Vec<FrequentPattern>,
        stats: MiningStats,
    ) -> MiningResult {
        let mut result = MiningResult {
            period: self.alphabet.period(),
            segment_count: self.segment_count,
            min_confidence: config.min_confidence(),
            min_count: self.min_count,
            alphabet: self.alphabet,
            frequent,
            stats,
        };
        result.sort();
        result
    }
}

/// Performs scan 1 for a single period: one pass over the first `m·p`
/// instants, counting each `(offset, feature)` occurrence, then filtering
/// by the threshold. The series is encoded into packed rows first.
pub fn scan_frequent_letters(
    series: &FeatureSeries,
    period: usize,
    config: &MineConfig,
) -> Result<Scan1> {
    scan1_of(series.into(), period, config)
}

/// [`scan_frequent_letters`] over a borrowed bitmap view (an
/// [`EncodedSeries`](ppm_timeseries::EncodedSeries) cache or a columnar
/// file load): the same one pass, probing packed instant rows.
pub fn scan_frequent_letters_view(
    view: EncodedSeriesView<'_>,
    period: usize,
    config: &MineConfig,
) -> Result<Scan1> {
    scan1_of(view.into(), period, config)
}

/// Scan 1 alone, outside a guarded mine.
fn scan1_of(input: Input<'_>, period: usize, config: &MineConfig) -> Result<Scan1> {
    Passes::new(input, ResourceGuard::unlimited(), "scan.segments").scan1(period, config)
}

/// Builds a [`Scan1`] from a finished counting table (shared by the
/// single-period and multi-period scan-1 implementations).
pub(crate) fn scan1_from_counts(
    counts: &CountTable,
    period: usize,
    m: usize,
    min_count: u64,
) -> Scan1 {
    let alphabet = Alphabet::new(period, counts.frequent_pairs(min_count));
    let letter_counts = (0..alphabet.len())
        .map(|i| {
            let (o, f) = alphabet.letter(i);
            counts.get(o as u32, f)
        })
        .collect();
    Scan1 {
        alphabet,
        letter_counts,
        segment_count: m,
        min_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::SeriesBuilder;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    #[test]
    fn config_validates_range() {
        assert!(MineConfig::new(0.0).is_err());
        assert!(MineConfig::new(-0.1).is_err());
        assert!(MineConfig::new(1.0001).is_err());
        assert!(MineConfig::new(f64::NAN).is_err());
        assert!(MineConfig::new(1.0).is_ok());
        assert!(MineConfig::new(0.001).is_ok());
    }

    #[test]
    fn guard_builders_round_trip() {
        let c = MineConfig::new(0.5).unwrap();
        assert_eq!(c.max_duration(), None);
        assert_eq!(c.max_tree_nodes(), None);
        let c = c
            .with_deadline(Duration::from_secs(3))
            .with_max_tree_nodes(100);
        assert_eq!(c.max_duration(), Some(Duration::from_secs(3)));
        assert_eq!(c.max_tree_nodes(), Some(100));
        // Guards don't affect threshold equality semantics of the base.
        assert_eq!(c.min_confidence(), 0.5);
    }

    #[test]
    fn min_count_boundaries() {
        let c = MineConfig::new(0.8).unwrap();
        assert_eq!(c.min_count(5), 4); // 0.8 * 5 = 4 exactly
        assert_eq!(c.min_count(10), 8);
        assert_eq!(c.min_count(11), 9); // 8.8 -> 9
        let c = MineConfig::new(1.0).unwrap();
        assert_eq!(c.min_count(7), 7);
        let c = MineConfig::new(0.001).unwrap();
        assert_eq!(c.min_count(5), 1); // tiny thresholds still need 1 hit
        let third = MineConfig::new(1.0 / 3.0).unwrap();
        assert_eq!(third.min_count(3), 1);
        assert_eq!(third.min_count(4), 2); // 1.33 -> 2
    }

    #[test]
    fn scan_counts_letters_per_offset() {
        // Period 2, 3 whole segments: feature 7 at offset 0 in all three,
        // feature 8 at offset 1 in one.
        let mut b = SeriesBuilder::new();
        b.push_instant([fid(7)]);
        b.push_instant([fid(8)]);
        b.push_instant([fid(7)]);
        b.push_instant([]);
        b.push_instant([fid(7)]);
        b.push_instant([]);
        let s = b.finish();
        let cfg = MineConfig::new(0.9).unwrap();
        let scan = scan_frequent_letters(&s, 2, &cfg).unwrap();
        assert_eq!(scan.segment_count, 3);
        assert_eq!(scan.min_count, 3);
        assert_eq!(scan.alphabet.len(), 1);
        assert_eq!(scan.alphabet.letter(0), (0, fid(7)));
        assert_eq!(scan.letter_counts, vec![3]);
    }

    #[test]
    fn scan_ignores_partial_tail_segment() {
        // 5 instants, period 2 -> m = 2; instant 4 is in the tail.
        let mut b = SeriesBuilder::new();
        for _ in 0..4 {
            b.push_instant([fid(1)]);
        }
        b.push_instant([fid(99)]);
        let s = b.finish();
        let cfg = MineConfig::new(0.5).unwrap();
        let scan = scan_frequent_letters(&s, 2, &cfg).unwrap();
        assert_eq!(scan.segment_count, 2);
        // fid(99) must not appear even as a counted letter.
        assert!(scan.alphabet.iter().all(|(_, _, f)| f == fid(1)));
    }

    #[test]
    fn scan_same_feature_distinct_offsets_are_distinct_letters() {
        let mut b = SeriesBuilder::new();
        for _ in 0..3 {
            b.push_instant([fid(4)]);
            b.push_instant([fid(4)]);
        }
        let s = b.finish();
        let cfg = MineConfig::new(1.0).unwrap();
        let scan = scan_frequent_letters(&s, 2, &cfg).unwrap();
        assert_eq!(scan.alphabet.len(), 2);
        assert_eq!(scan.alphabet.letter(0), (0, fid(4)));
        assert_eq!(scan.alphabet.letter(1), (1, fid(4)));
        assert_eq!(scan.letter_counts, vec![3, 3]);
    }

    #[test]
    fn scan_rejects_bad_period() {
        let mut b = SeriesBuilder::new();
        b.push_instant([fid(0)]);
        let s = b.finish();
        let cfg = MineConfig::default();
        assert!(scan_frequent_letters(&s, 0, &cfg).is_err());
        assert!(scan_frequent_letters(&s, 2, &cfg).is_err());
    }

    #[test]
    fn count_table_picks_dense_for_small_key_spaces() {
        assert!(matches!(
            CountTable::with_width(25, 100),
            CountTable::Dense { .. }
        ));
        // Zero width (no features at all) and oversized key spaces go sparse.
        assert!(matches!(
            CountTable::with_width(25, 0),
            CountTable::Sparse(_)
        ));
        assert!(matches!(
            CountTable::with_width(1 << 12, 1 << 12),
            CountTable::Sparse(_)
        ));
    }

    #[test]
    fn count_table_dense_and_sparse_agree() {
        for mut table in [
            CountTable::with_width(3, 5),
            CountTable::Sparse(HashMap::new()),
        ] {
            table.add(0, fid(4));
            table.add(0, fid(4));
            table.add(2, fid(1));
            assert_eq!(table.get(0, fid(4)), 2);
            assert_eq!(table.get(2, fid(1)), 1);
            assert_eq!(table.get(1, fid(0)), 0);
            let mut frequent = table.frequent_pairs(2);
            frequent.sort();
            assert_eq!(frequent, vec![(0, fid(4))]);
        }
    }

    #[test]
    fn empty_alphabet_when_nothing_frequent() {
        let mut b = SeriesBuilder::new();
        // Every instant has a unique feature: nothing repeats.
        for t in 0..8u32 {
            b.push_instant([fid(t)]);
        }
        let s = b.finish();
        let cfg = MineConfig::new(0.9).unwrap();
        let scan = scan_frequent_letters(&s, 2, &cfg).unwrap();
        assert!(scan.alphabet.is_empty());
    }
}
