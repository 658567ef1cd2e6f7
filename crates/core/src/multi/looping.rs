//! Algorithm 3.3: multi-period mining by looping the single-period miner.

use ppm_timeseries::{EncodedSeries, FeatureSeries};

use crate::engine::{run, Engine};
use crate::error::Result;
use crate::multi::{MultiPeriodResult, PeriodRange};
use crate::scan::MineConfig;

/// Mines every period in `range` by running the chosen single-period
/// engine once per period (paper Algorithm 3.3).
///
/// With the hit-set algorithm this costs `2·k` scans for `k` periods;
/// [`super::mine_periods_shared`] brings that down to 2. Periods longer
/// than the series (no whole segment) are skipped rather than failing, so
/// a wide exploratory range over a short series still succeeds. The
/// series is encoded into packed rows once for every period.
pub fn mine_periods_looping(
    series: &FeatureSeries,
    range: PeriodRange,
    config: &MineConfig,
    engine: Engine,
) -> Result<MultiPeriodResult> {
    let encoded = EncodedSeries::encode(series);
    let mut results = Vec::with_capacity(range.len());
    let mut total_scans = 0;
    for period in range.iter() {
        if period > series.len() {
            continue;
        }
        let r = run(engine, encoded.view(), period, config)?;
        total_scans += r.stats.series_scans;
        results.push(r);
    }
    Ok(MultiPeriodResult::complete(results, total_scans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::{FeatureId, SeriesBuilder};

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    /// Feature 0 fires every 3 instants; feature 1 every 4 instants.
    fn two_period_series(n: usize) -> FeatureSeries {
        let mut b = SeriesBuilder::new();
        for t in 0..n {
            let mut inst = Vec::new();
            if t % 3 == 0 {
                inst.push(fid(0));
            }
            if t % 4 == 0 {
                inst.push(fid(1));
            }
            b.push_instant(inst);
        }
        b.finish()
    }

    #[test]
    fn finds_both_planted_periods() {
        let s = two_period_series(120);
        let range = PeriodRange::new(2, 6).unwrap();
        let config = MineConfig::new(0.9).unwrap();
        let out = mine_periods_looping(&s, range, &config, Engine::HitSet).unwrap();
        assert_eq!(out.results.len(), 5);
        // Period 3 must contain the (0, f0) letter, period 4 the (0, f1).
        let p3 = out.for_period(3).unwrap();
        assert!(p3.alphabet.index_of(0, fid(0)).is_some());
        let p4 = out.for_period(4).unwrap();
        assert!(p4.alphabet.index_of(0, fid(1)).is_some());
        // Period 6 is a multiple of 3: f0 appears at offsets 0 and 3.
        let p6 = out.for_period(6).unwrap();
        assert!(p6.alphabet.index_of(0, fid(0)).is_some());
        assert!(p6.alphabet.index_of(3, fid(0)).is_some());
        // Period 5 has nothing with conf >= 0.9.
        let p5 = out.for_period(5).unwrap();
        assert!(p5.is_empty());
    }

    #[test]
    fn scan_count_is_two_per_period() {
        let s = two_period_series(60);
        let range = PeriodRange::new(2, 5).unwrap();
        let config = MineConfig::new(0.5).unwrap();
        let out = mine_periods_looping(&s, range, &config, Engine::HitSet).unwrap();
        assert_eq!(out.total_scans, 2 * 4);
    }

    #[test]
    fn skips_periods_longer_than_series() {
        let s = two_period_series(10);
        let range = PeriodRange::new(8, 15).unwrap();
        let config = MineConfig::new(0.5).unwrap();
        let out = mine_periods_looping(&s, range, &config, Engine::HitSet).unwrap();
        assert_eq!(out.results.len(), 3); // periods 8, 9, 10
    }

    #[test]
    fn densest_period_prefers_the_planted_one() {
        let mut b = SeriesBuilder::new();
        for t in 0..210 {
            if t % 7 == 2 {
                b.push_instant([fid(0), fid(1)]);
            } else if t % 7 == 5 {
                b.push_instant([fid(2)]);
            } else {
                b.push_instant([]);
            }
        }
        let s = b.finish();
        let out = mine_periods_looping(
            &s,
            PeriodRange::new(2, 10).unwrap(),
            &MineConfig::new(0.95).unwrap(),
            Engine::HitSet,
        )
        .unwrap();
        assert_eq!(out.densest_period(), Some(7));
        assert!(out.total_patterns() > 0);
    }
}
