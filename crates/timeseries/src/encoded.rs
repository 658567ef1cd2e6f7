//! Packed per-instant feature bitmaps: the encoded-series cache.
//!
//! The mining layer's second scan repeatedly asks "does instant `t`
//! contain feature `f`?" — once per frequent letter per instant, and once
//! per *period* when several periods are mined over the same series
//! (Algorithm 3.4) or the audit oracle re-mines for a differential check.
//! [`EncodedSeries`] answers that question with a single bit test: each
//! instant's feature set is packed into `⌈width/64⌉` words, where bit `f`
//! of the row is set iff feature id `f` occurs at the instant. Encoding
//! costs one pass over the CSR series; every later consumer — every
//! miner's passes, the shared multi-period scan, the sweep's workers —
//! reuses the same cache instead of re-merge-walking raw feature slices.
//!
//! Feature ids are interned densely by the catalog, so `width` (one past
//! the max raw id) is small in practice and a row is a handful of words;
//! the whole cache is `len · ⌈width/64⌉ · 8` bytes, reported by
//! [`EncodedSeries::bytes`].

use crate::catalog::FeatureId;
use crate::series::FeatureSeries;

/// A series re-encoded as one fixed-width feature bitmap per instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedSeries {
    /// Feature-id universe: max raw id + 1 (0 for an empty-feature series).
    width: usize,
    /// Words per instant row: `⌈width/64⌉`.
    words_per_instant: usize,
    /// Number of encoded instants.
    n_instants: usize,
    /// Row-major bitmap words, `n_instants · words_per_instant` long.
    words: Vec<u64>,
}

impl EncodedSeries {
    /// The bitmap width [`Self::encode`] would pick for `series`.
    pub fn width_for(series: &FeatureSeries) -> usize {
        series.max_feature_id().map_or(0, |f| f.index() + 1)
    }

    /// Encodes every instant of `series` in one pass into one buffer.
    pub fn encode(series: &FeatureSeries) -> Self {
        let width = Self::width_for(series);
        let words_per_instant = width.div_ceil(64);
        let mut words = vec![0u64; series.len() * words_per_instant];
        for (row, instant) in words
            .chunks_exact_mut(words_per_instant.max(1))
            .zip(series.iter())
        {
            for &f in instant {
                let idx = f.index();
                row[idx / 64] |= 1u64 << (idx % 64);
            }
        }
        EncodedSeries {
            width,
            words_per_instant,
            n_instants: series.len(),
            words,
        }
    }

    /// Number of encoded instants.
    pub fn len(&self) -> usize {
        self.n_instants
    }

    /// Whether no instants were encoded.
    pub fn is_empty(&self) -> bool {
        self.n_instants == 0
    }

    /// The feature-id universe this encoding covers.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Instant `t`'s feature bitmap (bit `f` set iff feature `f` occurs).
    ///
    /// # Panics
    /// Panics if `t >= len()`.
    pub fn instant_words(&self, t: usize) -> &[u64] {
        assert!(t < self.n_instants, "instant {t} out of range");
        &self.words[t * self.words_per_instant..(t + 1) * self.words_per_instant]
    }

    /// Whether instant `t` contains `feature`.
    pub fn contains(&self, t: usize, feature: FeatureId) -> bool {
        let idx = feature.index();
        idx < self.width && self.instant_words(t)[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Cache size in bytes (the bitmap words only).
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.words[..])
    }

    /// A borrowed [`EncodedSeriesView`] over this cache — the common
    /// currency between in-memory encodings and file-backed columnar
    /// loads, accepted by every bitmap-probing consumer.
    pub fn view(&self) -> EncodedSeriesView<'_> {
        EncodedSeriesView {
            width: self.width,
            words_per_instant: self.words_per_instant,
            n_instants: self.n_instants,
            words: &self.words,
        }
    }
}

/// A borrowed, zero-copy view over row-major per-instant bitmap words.
///
/// Both [`EncodedSeries::view`] and the columnar store
/// ([`crate::columnar::ColumnarReader::view`]) produce this type, so mining
/// code written against the view runs identically over an in-memory encode
/// and a one-read file load — no per-row allocation either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedSeriesView<'a> {
    width: usize,
    words_per_instant: usize,
    n_instants: usize,
    words: &'a [u64],
}

impl<'a> EncodedSeriesView<'a> {
    /// Wraps raw row-major words as a view.
    ///
    /// # Panics
    /// Panics if `words` is not exactly `n_instants · ⌈width/64⌉` long.
    pub fn new(width: usize, n_instants: usize, words: &'a [u64]) -> Self {
        let words_per_instant = width.div_ceil(64);
        assert_eq!(
            words.len(),
            n_instants * words_per_instant,
            "words don't cover {n_instants} instants at width {width}"
        );
        EncodedSeriesView {
            width,
            words_per_instant,
            n_instants,
            words,
        }
    }

    /// Number of encoded instants.
    pub fn len(&self) -> usize {
        self.n_instants
    }

    /// Whether no instants are covered.
    pub fn is_empty(&self) -> bool {
        self.n_instants == 0
    }

    /// The feature-id universe this encoding covers.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Words per instant row: `⌈width/64⌉`.
    pub fn words_per_instant(&self) -> usize {
        self.words_per_instant
    }

    /// Every instant's row, row-major: instant `t` is the
    /// `words_per_instant()` words from `t * words_per_instant()`.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Instant `t`'s feature bitmap (bit `f` set iff feature `f` occurs).
    ///
    /// # Panics
    /// Panics if `t >= len()`.
    pub fn instant_words(&self, t: usize) -> &'a [u64] {
        assert!(t < self.n_instants, "instant {t} out of range");
        &self.words[t * self.words_per_instant..(t + 1) * self.words_per_instant]
    }

    /// Whether instant `t` contains `feature`.
    pub fn contains(&self, t: usize, feature: FeatureId) -> bool {
        let idx = feature.index();
        idx < self.width && self.instant_words(t)[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Iterates the features present at instant `t` in ascending id order —
    /// the bitmap equivalent of `FeatureSeries::instant`.
    pub fn features_at(&self, t: usize) -> FeatureBits<'a> {
        FeatureBits {
            words: self.instant_words(t),
            next_word: 0,
            current: 0,
            base: 0,
        }
    }

    /// View size in bytes (the bitmap words only).
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.words)
    }
}

/// Iterator over the set feature bits of one instant row.
#[derive(Debug, Clone)]
pub struct FeatureBits<'a> {
    words: &'a [u64],
    next_word: usize,
    current: u64,
    base: u32,
}

impl Iterator for FeatureBits<'_> {
    type Item = FeatureId;

    fn next(&mut self) -> Option<FeatureId> {
        while self.current == 0 {
            if self.next_word >= self.words.len() {
                return None;
            }
            self.current = self.words[self.next_word];
            self.base = (self.next_word * 64) as u32;
            self.next_word += 1;
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(FeatureId::from_raw(self.base + bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesBuilder;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    fn sample() -> FeatureSeries {
        let mut b = SeriesBuilder::new();
        b.push_instant([fid(0), fid(2)]);
        b.push_instant([]);
        b.push_instant([fid(65)]);
        b.push_instant([fid(0), fid(64), fid(65)]);
        b.finish()
    }

    #[test]
    fn encode_round_trips_membership() {
        let series = sample();
        let enc = EncodedSeries::encode(&series);
        assert_eq!(enc.len(), series.len());
        assert_eq!(enc.width(), 66);
        for t in 0..series.len() {
            for raw in 0..66u32 {
                assert_eq!(
                    enc.contains(t, fid(raw)),
                    series.instant(t).contains(&fid(raw)),
                    "instant {t} feature {raw}"
                );
            }
        }
        // Features past the width read as absent, not out of bounds.
        assert!(!enc.contains(0, fid(1000)));
    }

    #[test]
    fn instant_words_expose_the_raw_bitmap() {
        let enc = EncodedSeries::encode(&sample());
        assert_eq!(enc.instant_words(0), &[0b101u64, 0]);
        assert_eq!(enc.instant_words(1), &[0u64, 0]);
        assert_eq!(enc.instant_words(3), &[1u64, 0b11]);
        assert_eq!(enc.bytes(), 4 * 2 * 8);
    }

    #[test]
    fn empty_series_encodes_to_nothing() {
        let series = SeriesBuilder::new().finish();
        let enc = EncodedSeries::encode(&series);
        assert!(enc.is_empty());
        assert_eq!(enc.width(), 0);
        assert_eq!(enc.bytes(), 0);
    }

    #[test]
    fn view_mirrors_the_owned_encoding() {
        let series = sample();
        let enc = EncodedSeries::encode(&series);
        let view = enc.view();
        assert_eq!(view.len(), enc.len());
        assert_eq!(view.width(), enc.width());
        assert_eq!(view.bytes(), enc.bytes());
        assert_eq!(view.words_per_instant(), 2);
        for t in 0..series.len() {
            assert_eq!(view.instant_words(t), enc.instant_words(t));
            for raw in 0..70u32 {
                assert_eq!(view.contains(t, fid(raw)), enc.contains(t, fid(raw)));
            }
            let bits: Vec<FeatureId> = view.features_at(t).collect();
            assert_eq!(bits, series.instant(t), "instant {t}");
        }
    }

    #[test]
    fn view_new_validates_geometry() {
        let words = vec![0u64; 6];
        let v = EncodedSeriesView::new(66, 3, &words);
        assert_eq!(v.len(), 3);
        assert_eq!(v.width(), 66);
        assert!(!v.is_empty());
    }

    #[test]
    #[should_panic(expected = "don't cover")]
    fn view_new_rejects_bad_geometry() {
        let words = vec![0u64; 5];
        EncodedSeriesView::new(66, 3, &words);
    }

    /// Widths 64 and 65 straddle the one-word/two-word row boundary (and
    /// the inline→spill boundary of the mining layer's `LetterSet`).
    #[test]
    fn view_boundary_widths_64_and_65() {
        for top in [63u32, 64u32] {
            let mut b = SeriesBuilder::new();
            b.push_instant([fid(0), fid(top)]);
            b.push_instant([fid(top)]);
            b.push_instant([]);
            let series = b.finish();
            let enc = EncodedSeries::encode(&series);
            assert_eq!(enc.width(), top as usize + 1);
            let view = enc.view();
            assert_eq!(view.words_per_instant(), (top as usize + 1).div_ceil(64));
            for t in 0..series.len() {
                let bits: Vec<FeatureId> = view.features_at(t).collect();
                assert_eq!(bits, series.instant(t), "width {} instant {t}", top + 1);
            }
        }
    }

    #[test]
    fn empty_view_has_width_zero() {
        let series = SeriesBuilder::new().finish();
        let enc = EncodedSeries::encode(&series);
        let view = enc.view();
        assert!(view.is_empty());
        assert_eq!(view.width(), 0);
        assert_eq!(view.words_per_instant(), 0);
        assert_eq!(view.bytes(), 0);
    }
}
