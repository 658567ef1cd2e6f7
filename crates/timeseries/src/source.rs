//! The scan-source abstraction: anything the miners can scan repeatedly.
//!
//! The paper's cost model is *scans over the time series database*; §5
//! argues the max-subpattern hit-set method wins precisely when the series
//! is disk-resident and every scan is real I/O. [`SeriesSource`] makes the
//! miners independent of where the data lives:
//!
//! * [`FeatureSeries`] implements it in memory;
//! * [`crate::columnar::ColumnarSource`] streams a `.ppmc` store's
//!   committed rows from disk on every scan without materializing them,
//!   re-verifying their checksum each time.
//!
//! The trait also counts scans, so experiments can report physical scan
//! totals straight from the source.

use crate::catalog::FeatureId;
use crate::encoded::EncodedSeries;
use crate::error::Result;
use crate::series::FeatureSeries;

/// A data source the mining algorithms can scan start-to-finish, multiple
/// times. Each scan visits every instant in time order.
pub trait SeriesSource {
    /// Number of instants per scan.
    fn instant_count(&self) -> usize;

    /// The feature-id universe a scan delivers: every id is below it. A
    /// miner packs each instant into a row of `⌈width/64⌉` words, so an id
    /// at or past the width is a contract breach, reported as corruption.
    fn width(&self) -> usize;

    /// Performs one full scan, calling `visit(t, features)` for every
    /// instant in order. `features` is sorted and deduplicated.
    fn scan(&mut self, visit: &mut dyn FnMut(usize, &[FeatureId])) -> Result<()>;

    /// How many scans have been performed so far.
    fn scans_performed(&self) -> usize;
}

impl<S: SeriesSource + ?Sized> SeriesSource for &mut S {
    fn instant_count(&self) -> usize {
        (**self).instant_count()
    }

    fn width(&self) -> usize {
        (**self).width()
    }

    fn scan(&mut self, visit: &mut dyn FnMut(usize, &[FeatureId])) -> Result<()> {
        (**self).scan(visit)
    }

    fn scans_performed(&self) -> usize {
        (**self).scans_performed()
    }
}

/// In-memory source: scanning iterates the series directly.
#[derive(Debug)]
pub struct MemorySource<'a> {
    series: &'a FeatureSeries,
    width: usize,
    scans: usize,
}

impl<'a> MemorySource<'a> {
    /// Wraps a series.
    pub fn new(series: &'a FeatureSeries) -> Self {
        MemorySource {
            series,
            width: EncodedSeries::width_for(series),
            scans: 0,
        }
    }
}

impl SeriesSource for MemorySource<'_> {
    fn instant_count(&self) -> usize {
        self.series.len()
    }

    fn width(&self) -> usize {
        self.width
    }

    fn scan(&mut self, visit: &mut dyn FnMut(usize, &[FeatureId])) -> Result<()> {
        self.scans += 1;
        for (t, instant) in self.series.iter().enumerate() {
            visit(t, instant);
        }
        Ok(())
    }

    fn scans_performed(&self) -> usize {
        self.scans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesBuilder;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    #[test]
    fn memory_source_scans_in_order() {
        let mut b = SeriesBuilder::new();
        b.push_instant([fid(3)]);
        b.push_instant([]);
        b.push_instant([fid(1), fid(2)]);
        let s = b.finish();
        let mut src = MemorySource::new(&s);
        assert_eq!(src.instant_count(), 3);
        assert_eq!(src.width(), 4);
        assert_eq!(src.scans_performed(), 0);

        let mut seen = Vec::new();
        src.scan(&mut |t, feats| seen.push((t, feats.to_vec())))
            .unwrap();
        assert_eq!(
            seen,
            vec![(0, vec![fid(3)]), (1, vec![]), (2, vec![fid(1), fid(2)]),]
        );
        assert_eq!(src.scans_performed(), 1);
        src.scan(&mut |_, _| {}).unwrap();
        assert_eq!(src.scans_performed(), 2);
    }
}
