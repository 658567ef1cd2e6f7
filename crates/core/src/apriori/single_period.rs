//! Algorithm 3.1: single-period Apriori mining.

use std::ops::ControlFlow;

use ppm_timeseries::{EncodedSeriesView, FeatureSeries};

use crate::apriori::candidate::{binomial, for_each_combination, join_candidates};
use crate::error::Result;
use crate::guard::ResourceGuard;
use crate::letters::{LetterSet, WordSlots};
use crate::result::{FrequentPattern, MiningResult};
use crate::rows::{Input, Passes};
use crate::scan::{MineConfig, Scan1};
use crate::stats::MiningStats;

/// Mines all frequent partial periodic patterns of `period` in `series`
/// with the level-wise Apriori method (paper Algorithm 3.1).
///
/// Step 1 finds the frequent 1-patterns with one scan; step 2 runs one
/// additional full scan of the series per level, terminating when a level
/// yields no candidates (so the total is at most `period` scans, typically
/// `max_pattern_length + 1`).
pub fn mine(series: &FeatureSeries, period: usize, config: &MineConfig) -> Result<MiningResult> {
    mine_input(series.into(), period, config)
}

/// [`mine`] over a borrowed bitmap view (an
/// [`EncodedSeries`](ppm_timeseries::EncodedSeries) cache or a columnar
/// file load): every per-level scan probes the packed rows directly.
pub fn mine_view(
    view: EncodedSeriesView<'_>,
    period: usize,
    config: &MineConfig,
) -> Result<MiningResult> {
    mine_input(view.into(), period, config)
}

/// Algorithm 3.1 over any [`Input`]. The deadline is checked after scan 1
/// and polled during every level's pass; an abort carries the levels,
/// candidates and scans completed so far.
pub(crate) fn mine_input(
    input: Input<'_>,
    period: usize,
    config: &MineConfig,
) -> Result<MiningResult> {
    let _mine_span = ppm_observe::span("apriori.mine");
    let mut passes = Passes::new(input, ResourceGuard::new(config), "apriori.segments");
    let scan1 = {
        let _span = ppm_observe::span("apriori.scan1");
        passes.scan1(period, config)?
    };
    let mut stats = MiningStats {
        max_level: 1,
        ..Default::default()
    };
    passes.settle(passes.deadline(), &mut stats)?;

    let mut frequent = scan1.seed_singletons();
    let n_letters = scan1.alphabet.len();

    // Level-wise expansion: `level` holds the frequent k-letter sets in
    // level order (the join emits candidates in order and filtering
    // preserves it).
    let mut level: Vec<LetterSet> = (0..n_letters)
        .map(|i| LetterSet::from_indices(n_letters, [i]))
        .collect();
    let mut k = 1;
    while !level.is_empty() {
        let candidates = join_candidates(&level);
        stats.candidates_generated += candidates.len() as u64;
        if candidates.is_empty() {
            break;
        }
        k += 1;
        stats.max_level = k;

        // One span per level, with candidate and survivor counts attached
        // so the paper's per-level candidate shrinkage is visible.
        let _level_span = ppm_observe::span("apriori.level");
        ppm_observe::counter("apriori.candidates", candidates.len() as u64);
        let counts = count_candidates(&mut passes, &scan1, &candidates, k, &mut stats)?;

        level.clear();
        for (set, count) in candidates.into_iter().zip(counts) {
            if count >= scan1.min_count {
                level.push(set.clone());
                frequent.push(FrequentPattern {
                    letters: set,
                    count,
                });
            }
        }
        ppm_observe::counter("apriori.frequent", level.len() as u64);
    }

    Ok(scan1.into_result(config, frequent, stats))
}

/// Counts each candidate's matching segments with one pass over the input,
/// recording the pass (or the guard abort that cut it short) in `stats`.
///
/// Per segment the counter picks the cheaper of two classic strategies:
/// enumerate the segment's own `k`-letter subsets and probe a candidate
/// hash map (cheap when the segment projects onto few frequent letters), or
/// subset-test every candidate against the segment projection (cheap when
/// there are few candidates). This mirrors the role of the hash-tree in
/// association-rule Apriori.
fn count_candidates(
    passes: &mut Passes<'_>,
    scan1: &Scan1,
    candidates: &[LetterSet],
    k: usize,
    stats: &mut MiningStats,
) -> Result<Vec<u64>> {
    let mut counts = vec![0u64; candidates.len()];
    let mut by_pattern = WordSlots::new(candidates.len());
    for (i, c) in candidates.iter().enumerate() {
        if let Err(slot) = by_pattern.find(c.words(), |j| candidates[j].words()) {
            by_pattern.fill(slot, i);
        }
    }

    let mut proj_letters: Vec<usize> = Vec::with_capacity(scan1.alphabet.len());
    let mut probe = scan1.alphabet.empty_set();
    let subset_tests = &mut stats.subset_tests;
    // The segment projections this pass yields *are* the per-level scan.
    let flow = passes.segments(scan1, |_, projection| {
        let present = projection.len();
        if present < k {
            return ControlFlow::Continue(());
        }

        // Strategy choice: C(present, k) subset enumerations vs
        // |candidates| subset tests.
        let enumerate_cost = binomial(present, k);
        if enumerate_cost <= candidates.len() as u64 {
            proj_letters.clear();
            proj_letters.extend(projection.iter());
            for_each_combination(&proj_letters, k, |combo| {
                *subset_tests += 1;
                probe.clear();
                for &l in combo {
                    probe.insert(l);
                }
                if let Ok(i) = by_pattern.find(probe.words(), |j| candidates[j].words()) {
                    counts[i] += 1;
                }
            });
        } else {
            for (i, cset) in candidates.iter().enumerate() {
                *subset_tests += 1;
                if cset.is_subset(projection) {
                    counts[i] += 1;
                }
            }
        }
        ControlFlow::Continue(())
    })?;
    passes.settle(flow, stats)?;
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::{FeatureCatalog, FeatureId, SeriesBuilder};

    use crate::pattern::Pattern;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    /// The paper's §2 example series "a{b,c}b aeb ace d" with period 3.
    fn example_series(cat: &mut FeatureCatalog) -> FeatureSeries {
        let a = cat.intern("a");
        let b = cat.intern("b");
        let c = cat.intern("c");
        let e = cat.intern("e");
        let d = cat.intern("d");
        let mut builder = SeriesBuilder::new();
        builder.push_instant([a]);
        builder.push_instant([b, c]);
        builder.push_instant([b]);
        builder.push_instant([a]);
        builder.push_instant([e]);
        builder.push_instant([b]);
        builder.push_instant([a]);
        builder.push_instant([c]);
        builder.push_instant([e]);
        builder.push_instant([d]);
        builder.finish()
    }

    #[test]
    fn mines_paper_example() {
        let mut cat = FeatureCatalog::new();
        let series = example_series(&mut cat);
        // m = 3; with min_conf = 2/3 the threshold count is 2.
        let config = MineConfig::new(0.6).unwrap();
        let result = mine(&series, 3, &config).unwrap();
        assert_eq!(result.segment_count, 3);
        assert_eq!(result.min_count, 2);

        // a** (count 3) and a*b (count 2) must be frequent; *c* only
        // appears twice at offset 1 — (1,c) counts segments 0 and 2 -> 2.
        let a_star_star = Pattern::parse("a * *", &mut cat).unwrap();
        assert_eq!(result.count_of(&a_star_star), Some(3));
        let a_star_b = Pattern::parse("a * b", &mut cat).unwrap();
        assert_eq!(result.count_of(&a_star_b), Some(2));
        let star_c_star = Pattern::parse("* c *", &mut cat).unwrap();
        assert_eq!(result.count_of(&star_c_star), Some(2));
        // a c * holds in segments 0? offset1 of segment 0 is {b,c} -> yes;
        // segment 2 offset 1 is {c} -> yes. Count 2, frequent.
        let a_c_star = Pattern::parse("a c *", &mut cat).unwrap();
        assert_eq!(result.count_of(&a_c_star), Some(2));
        // *eb is not frequent (count 1): e at offset 1 occurs once.
        let star_e_b = Pattern::parse("* e b", &mut cat).unwrap();
        assert_eq!(result.count_of(&star_e_b), None);
    }

    #[test]
    fn perfect_pattern_at_full_confidence() {
        let mut b = SeriesBuilder::new();
        for _ in 0..4 {
            b.push_instant([fid(0)]);
            b.push_instant([fid(1)]);
        }
        let s = b.finish();
        let result = mine(&s, 2, &MineConfig::new(1.0).unwrap()).unwrap();
        // f0 f1 (both letters), plus the two singletons.
        assert_eq!(result.len(), 3);
        assert_eq!(result.max_letter_count(), 2);
        let top = result.with_letter_count(2).next().unwrap();
        assert_eq!(top.count, 4);
    }

    #[test]
    fn empty_result_when_nothing_repeats() {
        let mut b = SeriesBuilder::new();
        for t in 0..12u32 {
            b.push_instant([fid(t)]);
        }
        let s = b.finish();
        let result = mine(&s, 3, &MineConfig::new(0.9).unwrap()).unwrap();
        assert!(result.is_empty());
        assert_eq!(result.stats.series_scans, 1); // no level-2 candidates
    }

    #[test]
    fn scan_count_is_levels_plus_one() {
        // Build a series whose maximal frequent pattern has 3 letters:
        // f0 f1 f2 every period, plus noise to keep the alphabet at 3.
        let mut b = SeriesBuilder::new();
        for _ in 0..5 {
            b.push_instant([fid(0)]);
            b.push_instant([fid(1)]);
            b.push_instant([fid(2)]);
        }
        let s = b.finish();
        let result = mine(&s, 3, &MineConfig::new(0.8).unwrap()).unwrap();
        assert_eq!(result.max_letter_count(), 3);
        // Scan 1 + level-2 scan + level-3 scan = 3; the empty level-4
        // candidate set terminates without a scan.
        assert_eq!(result.stats.series_scans, 3);
        assert_eq!(result.stats.max_level, 3);
    }

    #[test]
    fn counts_are_exact_versus_naive_matching() {
        // Randomized-ish small series; compare every reported count with a
        // brute-force segment match.
        let mut b = SeriesBuilder::new();
        let feats = [0u32, 1, 2, 3];
        let mut x: u64 = 42;
        for _ in 0..60 {
            let mut inst = Vec::new();
            for &f in &feats {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (x >> 33).is_multiple_of(3) {
                    inst.push(fid(f));
                }
            }
            b.push_instant(inst);
        }
        let s = b.finish();
        let config = MineConfig::new(0.25).unwrap();
        let result = mine(&s, 5, &config).unwrap();
        let segs = s.segments(5).unwrap();
        for (pattern, count, _conf) in result.patterns() {
            let brute = segs
                .iter()
                .filter(|seg| pattern.matches_segment(seg))
                .count() as u64;
            assert_eq!(count, brute, "pattern miscounted");
        }
        assert!(!result.is_empty());
    }

    #[test]
    fn view_mine_equals_series_mine() {
        use ppm_timeseries::EncodedSeries;
        let mut b = SeriesBuilder::new();
        let mut x: u64 = 9;
        for _ in 0..240 {
            let mut inst = Vec::new();
            for f in 0..4u32 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                if (x >> 33).is_multiple_of(2) {
                    inst.push(fid(f));
                }
            }
            b.push_instant(inst);
        }
        let s = b.finish();
        let encoded = EncodedSeries::encode(&s);
        let config = MineConfig::new(0.25).unwrap();
        for p in [4, 6] {
            let plain = mine(&s, p, &config).unwrap();
            let viewed = mine_view(encoded.view(), p, &config).unwrap();
            assert_eq!(plain.frequent, viewed.frequent, "period {p}");
            assert_eq!(plain.stats, viewed.stats, "period {p}");
        }
    }
}
