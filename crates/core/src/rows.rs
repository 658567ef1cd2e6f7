//! A unified row source for the miners: raw CSR instants or packed
//! bitmap rows.
//!
//! Every engine's scans reduce to two per-instant operations — "count each
//! feature at instant `t`" (scan 1) and "project instant `t` onto the
//! frequent-letter alphabet" (scan 2). [`Rows`] dispatches both over either
//! a [`FeatureSeries`] (the CSR substrate) or a borrowed
//! [`EncodedSeriesView`] (the in-memory cache, or a `.ppmc` columnar file
//! loaded without materializing a series at all), so each miner has one
//! implementation instead of a series path and an encoded path.

use ppm_timeseries::{EncodedSeriesView, FeatureSeries};

use crate::letters::{Alphabet, LetterSet};
use crate::scan::CountTable;

/// The two row substrates the miners consume.
#[derive(Debug, Clone, Copy)]
pub enum Rows<'a> {
    /// Raw CSR feature slices.
    Series(&'a FeatureSeries),
    /// Packed per-instant bitmaps, borrowed from an [`EncodedSeries`]
    /// cache or a columnar file load.
    ///
    /// [`EncodedSeries`]: ppm_timeseries::EncodedSeries
    View(EncodedSeriesView<'a>),
}

impl<'a> From<&'a FeatureSeries> for Rows<'a> {
    fn from(series: &'a FeatureSeries) -> Self {
        Rows::Series(series)
    }
}

impl<'a> From<EncodedSeriesView<'a>> for Rows<'a> {
    fn from(view: EncodedSeriesView<'a>) -> Self {
        Rows::View(view)
    }
}

impl Rows<'_> {
    /// Number of instants.
    pub(crate) fn len(&self) -> usize {
        match self {
            Rows::Series(s) => s.len(),
            Rows::View(v) => v.len(),
        }
    }

    /// The dense scan-1 key-space width: max feature id + 1.
    pub(crate) fn count_width(&self) -> usize {
        match self {
            Rows::Series(s) => CountTable::width_of(s),
            Rows::View(v) => v.width(),
        }
    }

    /// Counts every feature of instant `t` into `counts` at `offset`
    /// (the scan-1 inner loop).
    #[inline]
    pub(crate) fn add_counts(&self, t: usize, offset: u32, counts: &mut CountTable) {
        match self {
            Rows::Series(s) => {
                for &f in s.instant(t) {
                    counts.add(offset, f);
                }
            }
            Rows::View(v) => {
                for f in v.features_at(t) {
                    counts.add(offset, f);
                }
            }
        }
    }

    /// Projects instant `t` onto `alphabet` at segment `offset`, setting
    /// the bits of the frequent letters present (the scan-2 inner loop).
    #[inline]
    pub(crate) fn project(
        &self,
        alphabet: &Alphabet,
        offset: usize,
        t: usize,
        hit: &mut LetterSet,
    ) {
        match self {
            Rows::Series(s) => alphabet.project_instant(offset, s.instant(t), hit),
            Rows::View(v) => alphabet.project_encoded(offset, v.instant_words(t), hit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::{EncodedSeries, FeatureId, SeriesBuilder};

    use crate::scan::{scan_frequent_letters, MineConfig};

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    #[test]
    fn both_substrates_project_identically() {
        let mut b = SeriesBuilder::new();
        let mut x: u64 = 3;
        for _ in 0..60 {
            let mut inst = Vec::new();
            for f in 0..5u32 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                if (x >> 62) == 0 {
                    inst.push(fid(f));
                }
            }
            b.push_instant(inst);
        }
        let series = b.finish();
        let encoded = EncodedSeries::encode(&series);
        let scan1 = scan_frequent_letters(&series, 4, &MineConfig::new(0.2).unwrap()).unwrap();
        let from_series = Rows::Series(&series);
        let from_view = Rows::View(encoded.view());
        assert_eq!(from_series.len(), from_view.len());
        assert_eq!(from_series.count_width(), from_view.count_width());
        let mut a = scan1.alphabet.empty_set();
        let mut b = scan1.alphabet.empty_set();
        for t in 0..series.len() {
            a.clear();
            b.clear();
            from_series.project(&scan1.alphabet, t % 4, t, &mut a);
            from_view.project(&scan1.alphabet, t % 4, t, &mut b);
            assert_eq!(a, b, "instant {t}");
        }
    }
}
