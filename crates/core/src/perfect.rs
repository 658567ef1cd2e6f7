//! Perfect periodicity with cycle elimination.
//!
//! The paper contrasts itself with Özden et al.'s cyclic association rules
//! \[ÖRS98\], which are "partial periodic patterns with *perfect* periodicity
//! … each pattern reoccurs in every cycle, with 100% confidence", and notes
//! the key trick that perfection enables: **cycle elimination** — "as soon
//! as it is known that [a pattern] does not hold at a particular instant
//! of time", every period containing that instant is eliminated for it.
//!
//! This module implements that special case as a baseline. Perfection makes
//! the problem compositional: a pattern has confidence 1 iff each of its
//! letters does, so per period the answer is completely described by the
//! set of *surviving letters* (their union is the unique maximal perfect
//! pattern). Mining is a single left-to-right pass per period with early
//! elimination — the optimization the paper says is unavailable once
//! confidence drops below 1.

use std::collections::HashSet;

use ppm_timeseries::{FeatureId, FeatureSeries};

use crate::error::Result;
use crate::letters::Alphabet;
use crate::multi::PeriodRange;

/// The perfect periodicity of one period: the letters that occur in
/// *every* whole segment.
#[derive(Debug, Clone)]
pub struct PerfectPeriod {
    /// The period `p`.
    pub period: usize,
    /// Number of whole segments examined.
    pub segment_count: usize,
    /// The surviving letters; their union is the maximal perfect pattern.
    pub alphabet: Alphabet,
    /// How many segments were actually read before every letter of some
    /// offset died — `segment_count` when something survived to the end.
    /// Measures the work cycle elimination saved.
    pub segments_examined: usize,
}

impl PerfectPeriod {
    /// Whether any letter is perfectly periodic at this period.
    pub fn has_pattern(&self) -> bool {
        !self.alphabet.is_empty()
    }
}

/// Mines the maximal perfect (confidence = 1) pattern for every period in
/// `range`, using cycle elimination: a letter is dropped the moment a
/// segment misses it, and a period's scan stops early once no candidate
/// letter remains.
pub fn mine_perfect(series: &FeatureSeries, range: PeriodRange) -> Result<Vec<PerfectPeriod>> {
    let mut out = Vec::new();
    for period in range.iter() {
        if period > series.len() {
            continue;
        }
        out.push(mine_perfect_single(series, period));
    }
    Ok(out)
}

fn mine_perfect_single(series: &FeatureSeries, period: usize) -> PerfectPeriod {
    let m = series.len() / period;
    // Seed candidates from segment 0, then intersect with each later
    // segment, eliminating eagerly.
    let mut candidates: HashSet<(u32, FeatureId)> = (0..period)
        .flat_map(|o| series.instant(o).iter().map(move |&f| (o as u32, f)))
        .collect();
    let mut examined = if m > 0 { 1 } else { 0 };
    for j in 1..m {
        if candidates.is_empty() {
            break; // cycle elimination: no survivor can reappear
        }
        examined += 1;
        candidates.retain(|&(o, f)| {
            series
                .instant(j * period + o as usize)
                .binary_search(&f)
                .is_ok()
        });
    }
    PerfectPeriod {
        period,
        segment_count: m,
        alphabet: Alphabet::new(period, candidates.into_iter().map(|(o, f)| (o as usize, f))),
        segments_examined: examined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::SeriesBuilder;

    use crate::scan::MineConfig;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    #[test]
    fn finds_perfect_letters_only() {
        let mut b = SeriesBuilder::new();
        for j in 0..10 {
            b.push_instant([fid(0)]); // perfect at offset 0
            b.push_instant(if j == 4 { vec![] } else { vec![fid(1)] }); // one miss
        }
        let s = b.finish();
        let out = mine_perfect(&s, PeriodRange::single(2).unwrap()).unwrap();
        let p = &out[0];
        assert!(p.has_pattern());
        assert_eq!(p.alphabet.len(), 1);
        assert_eq!(p.alphabet.letter(0), (0, fid(0)));
    }

    #[test]
    fn agrees_with_hitset_at_confidence_one() {
        // Random-ish series; the perfect miner's alphabet must equal the
        // hit-set miner's F1 at min_conf = 1.0, and the maximal perfect
        // pattern (all surviving letters) must be frequent with count m.
        let mut b = SeriesBuilder::new();
        let mut x: u64 = 3;
        for t in 0..120 {
            let mut inst = vec![fid(9)]; // a letter present everywhere
            if t % 4 == 1 {
                inst.push(fid(0));
            }
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if (x >> 62) == 0 {
                inst.push(fid(1));
            }
            b.push_instant(inst);
        }
        let s = b.finish();
        for period in [2usize, 3, 4, 6] {
            let perfect = mine_perfect(&s, PeriodRange::single(period).unwrap()).unwrap();
            let p = &perfect[0];
            let full = crate::hitset::mine(&s, period, &MineConfig::new(1.0).unwrap()).unwrap();
            assert_eq!(p.alphabet, full.alphabet, "period {period}");
            if !p.alphabet.is_empty() {
                let c_max = full.alphabet.full_set();
                let max = full
                    .frequent
                    .iter()
                    .find(|fp| fp.letters == c_max)
                    .expect("maximal perfect pattern must be frequent");
                assert_eq!(max.count, full.segment_count as u64);
            }
        }
    }

    #[test]
    fn cycle_elimination_stops_early() {
        // Nothing repeats: candidates die after segment 2 at the latest.
        let mut b = SeriesBuilder::new();
        for t in 0..1000u32 {
            b.push_instant([fid(t)]);
        }
        let s = b.finish();
        let out = mine_perfect(&s, PeriodRange::single(10).unwrap()).unwrap();
        let p = &out[0];
        assert!(!p.has_pattern());
        assert!(p.segments_examined <= 2, "examined {}", p.segments_examined);
        assert_eq!(p.segment_count, 100);
    }

    #[test]
    fn range_covers_multiple_periods() {
        let mut b = SeriesBuilder::new();
        for t in 0..60 {
            if t % 3 == 0 {
                b.push_instant([fid(0)]);
            } else {
                b.push_instant([]);
            }
        }
        let s = b.finish();
        let out = mine_perfect(&s, PeriodRange::new(2, 6).unwrap()).unwrap();
        assert_eq!(out.len(), 5);
        // Perfect only at periods 3 and 6 (multiples of the plant).
        let with_patterns: Vec<usize> = out
            .iter()
            .filter(|p| p.has_pattern())
            .map(|p| p.period)
            .collect();
        assert_eq!(with_patterns, vec![3, 6]);
    }

    #[test]
    fn skips_too_long_periods() {
        let mut b = SeriesBuilder::new();
        for _ in 0..4 {
            b.push_instant([fid(0)]);
        }
        let s = b.finish();
        let out = mine_perfect(&s, PeriodRange::new(3, 10).unwrap()).unwrap();
        assert_eq!(out.len(), 2); // periods 3 and 4 only
    }
}
