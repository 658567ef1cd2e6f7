//! Algorithm 3.4: shared mining of multiple periods in two scans.

use std::ops::Range;

use ppm_timeseries::{EncodedSeries, EncodedSeriesView, FeatureSeries};

use crate::error::Result;
use crate::hitset::derive::CountStrategy;
use crate::hitset::{finish, MaxSubpatternTree};
use crate::letters::{LetterSet, SegmentMasks};
use crate::multi::{MultiPeriodResult, PeriodRange};
use crate::result::MiningResult;
use crate::rows::RowCounts;
use crate::scan::{scan1_from_counts, MineConfig, Scan1};
use crate::stats::MiningStats;

/// Mines every period in `range` with **two physical scans total** (paper
/// Algorithm 3.4): the first pass accumulates per-period letter counts for
/// all periods simultaneously; the second pass feeds every period's
/// max-subpattern tree as segments complete. Memory grows with the number
/// of periods (one count table and one tree each), which is the trade the
/// paper describes. The series is encoded into packed rows once, then
/// mined as [`mine_periods_shared_view`] mines them.
pub fn mine_periods_shared(
    series: &FeatureSeries,
    range: PeriodRange,
    config: &MineConfig,
) -> Result<MultiPeriodResult> {
    mine_periods_shared_view(EncodedSeries::encode(series).view(), range, config)
}

/// [`mine_periods_shared`] over a borrowed bitmap view (an
/// [`EncodedSeries`] cache or a columnar file load): the two scans are
/// two passes over packed words, with no series materialized.
pub fn mine_periods_shared_view(
    view: EncodedSeriesView<'_>,
    range: PeriodRange,
    config: &MineConfig,
) -> Result<MultiPeriodResult> {
    let periods: Vec<usize> = range.iter().filter(|&p| p <= view.len()).collect();
    if periods.is_empty() {
        return Ok(MultiPeriodResult::complete(Vec::new(), 0));
    }
    let _mine_span = ppm_observe::span("shared.mine");
    ppm_observe::gauge("shared.periods", periods.len() as u64);
    let n = view.len();

    // ---- Scan 1: per-period (offset, feature) counts, one physical pass
    // over the packed rows, each period counting through its byte lanes.
    let scan1_span = ppm_observe::span("shared.scan1");
    let wpi = view.words_per_instant();
    let mut counts: Vec<RowCounts> = periods.iter().map(|&p| RowCounts::new(p, wpi)).collect();
    segment_pass(n, &periods, |pi, segment| {
        counts[pi].add_segments(&view.words()[segment.start * wpi..segment.end * wpi]);
    });
    ppm_observe::gauge("shared.encoded_bytes", view.bytes() as u64);
    let scans: Vec<Scan1> = periods
        .iter()
        .zip(counts)
        .map(|(&p, counts)| {
            let m = n / p;
            scan1_from_counts(&counts.finish(), p, m, config.min_count(m))
        })
        .collect();
    drop(scan1_span);

    let results = scan2_and_derive(view, &periods, scans, config);
    Ok(MultiPeriodResult::complete(results, 2))
}

/// One pass over `n` instants in order: as each whole segment of
/// `periods[pi]` completes, `visit(pi, segment)` gets its instant range.
/// A partial tail segment is never visited.
fn segment_pass(n: usize, periods: &[usize], mut visit: impl FnMut(usize, Range<usize>)) {
    let mut ends = periods.to_vec();
    for read in 1..=n {
        for (pi, &p) in periods.iter().enumerate() {
            if read == ends[pi] {
                ends[pi] += p;
                visit(pi, read - p..read);
            }
        }
    }
}

/// Scan 2 plus derivation: one physical pass over the packed rows feeding every
/// period's max-subpattern tree — each period projects a segment through
/// its alphabet's masks as the segment's last instant is read — then the
/// in-memory derivation per period.
fn scan2_and_derive(
    view: EncodedSeriesView<'_>,
    periods: &[usize],
    scans: Vec<Scan1>,
    config: &MineConfig,
) -> Vec<MiningResult> {
    let wpi = view.words_per_instant();
    let words = view.words();
    let scan2_span = ppm_observe::span("shared.scan2");
    let mut trees: Vec<MaxSubpatternTree> = scans
        .iter()
        .map(|s| MaxSubpatternTree::new(s.alphabet.full_set()))
        .collect();
    let masks: Vec<SegmentMasks> = scans
        .iter()
        .map(|s| s.alphabet.segment_masks(wpi))
        .collect();
    let mut hits: Vec<LetterSet> = scans.iter().map(|s| s.alphabet.empty_set()).collect();
    segment_pass(view.len(), periods, |pi, segment| {
        masks[pi].project(
            &words[segment.start * wpi..segment.end * wpi],
            &mut hits[pi],
        );
        if hits[pi].len() >= 2 {
            trees[pi].insert(&hits[pi]);
        }
    });
    drop(scan2_span);

    // ---- Derivation per period (in-memory; no further scans).
    let _derive_span = ppm_observe::span("shared.derive");
    scans
        .into_iter()
        .zip(trees)
        .map(|(scan1, tree)| {
            let stats = MiningStats {
                series_scans: 2,
                max_level: 1,
                ..Default::default()
            };
            finish(&tree, scan1, config, CountStrategy::default(), stats)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::{FeatureId, SeriesBuilder};

    use crate::multi::mine_periods_looping;
    use crate::Engine;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    fn mixed_series(n: usize) -> FeatureSeries {
        let mut b = SeriesBuilder::new();
        let mut x: u64 = 99;
        for t in 0..n {
            let mut inst = Vec::new();
            if t % 3 == 1 {
                inst.push(fid(0));
            }
            if t % 5 == 0 {
                inst.push(fid(1));
            }
            // Sprinkle noise.
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if (x >> 60) == 0 {
                inst.push(fid(2));
            }
            b.push_instant(inst);
        }
        b.finish()
    }

    #[test]
    fn shared_equals_looping_for_every_period() {
        let s = mixed_series(150);
        let range = PeriodRange::new(2, 8).unwrap();
        let config = MineConfig::new(0.7).unwrap();
        let shared = mine_periods_shared(&s, range, &config).unwrap();
        let looping = mine_periods_looping(&s, range, &config, Engine::HitSet).unwrap();
        assert_eq!(shared.results.len(), looping.results.len());
        for (a, b) in shared.results.iter().zip(&looping.results) {
            assert_eq!(a.period, b.period);
            assert_eq!(a.frequent, b.frequent, "period {}", a.period);
            assert_eq!(a.segment_count, b.segment_count);
        }
    }

    #[test]
    fn shared_uses_exactly_two_scans() {
        let s = mixed_series(60);
        let range = PeriodRange::new(2, 10).unwrap();
        let config = MineConfig::new(0.5).unwrap();
        let shared = mine_periods_shared(&s, range, &config).unwrap();
        assert_eq!(shared.total_scans, 2);
        for r in &shared.results {
            assert_eq!(r.stats.series_scans, 2);
        }
        let looping = mine_periods_looping(&s, range, &config, Engine::HitSet).unwrap();
        assert_eq!(looping.total_scans, 2 * shared.results.len());
    }

    #[test]
    fn empty_range_after_filtering() {
        let s = mixed_series(5);
        let range = PeriodRange::new(10, 12).unwrap();
        let config = MineConfig::default();
        let out = mine_periods_shared(&s, range, &config).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.total_scans, 0);
    }

    #[test]
    fn single_period_range_matches_single_period_miner() {
        let s = mixed_series(90);
        let config = MineConfig::new(0.8).unwrap();
        let shared = mine_periods_shared(&s, PeriodRange::single(3).unwrap(), &config).unwrap();
        let single = crate::hitset::mine(&s, 3, &config).unwrap();
        assert_eq!(shared.results.len(), 1);
        assert_eq!(shared.results[0].frequent, single.frequent);
    }

    #[test]
    fn view_shared_equals_series_shared() {
        let s = mixed_series(150);
        let encoded = EncodedSeries::encode(&s);
        let range = PeriodRange::new(2, 8).unwrap();
        let config = MineConfig::new(0.7).unwrap();
        let from_series = mine_periods_shared(&s, range, &config).unwrap();
        let from_view = mine_periods_shared_view(encoded.view(), range, &config).unwrap();
        assert_eq!(from_view.total_scans, 2);
        assert_eq!(from_series.results.len(), from_view.results.len());
        for (a, b) in from_series.results.iter().zip(&from_view.results) {
            assert_eq!(a.period, b.period);
            assert_eq!(a.frequent, b.frequent, "period {}", a.period);
            assert_eq!(a.stats, b.stats, "period {}", a.period);
        }
    }

    #[test]
    fn view_shared_empty_range_after_filtering() {
        let s = mixed_series(5);
        let encoded = EncodedSeries::encode(&s);
        let range = PeriodRange::new(10, 12).unwrap();
        let out = mine_periods_shared_view(encoded.view(), range, &MineConfig::default()).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.total_scans, 0);
    }
}
