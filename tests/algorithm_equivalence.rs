//! Cross-algorithm equivalence: Apriori (Alg 3.1), the max-subpattern
//! hit-set method (Alg 3.2), multi-period looping (Alg 3.3) and shared
//! mining (Alg 3.4) must all report exactly the same frequent patterns with
//! exactly the same counts — and those counts must agree with brute-force
//! segment matching and brute-force subset enumeration.

#[cfg(feature = "property-tests")]
use proptest::prelude::*;

use partial_periodic::core::hitset::derive::CountStrategy;
#[cfg(feature = "property-tests")]
use partial_periodic::core::LetterSet;
#[cfg(feature = "property-tests")]
use partial_periodic::multi::{mine_periods_looping, mine_periods_shared, PeriodRange};
use partial_periodic::{apriori, hitset, FeatureCatalog, MineConfig, SeriesBuilder};
#[cfg(feature = "property-tests")]
use partial_periodic::{Engine, FeatureId};

#[cfg(feature = "property-tests")]
fn build_series(instants: &[Vec<u8>]) -> partial_periodic::FeatureSeries {
    let mut b = SeriesBuilder::new();
    for inst in instants {
        b.push_instant(inst.iter().map(|&f| FeatureId::from_raw(f as u32)));
    }
    b.finish()
}

/// Instants of 0..=3 features drawn from a 5-feature vocabulary.
#[cfg(feature = "property-tests")]
fn series_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..5, 0..4), 16..90)
}

#[cfg(feature = "property-tests")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn apriori_equals_hitset(
        instants in series_strategy(),
        period in 2usize..8,
        conf_pct in prop::sample::select(vec![25u32, 40, 60, 80, 100]),
    ) {
        prop_assume!(instants.len() >= period);
        let series = build_series(&instants);
        let config = MineConfig::new(conf_pct as f64 / 100.0).unwrap();
        let a = apriori::mine(&series, period, &config).unwrap();
        let h = hitset::mine(&series, period, &config).unwrap();
        prop_assert_eq!(&a.frequent, &h.frequent);
        prop_assert_eq!(a.segment_count, h.segment_count);
        prop_assert_eq!(a.min_count, h.min_count);
        // The hit-set method always takes exactly 2 scans.
        prop_assert_eq!(h.stats.series_scans, 2);
    }

    #[test]
    fn both_counting_strategies_agree(
        instants in series_strategy(),
        period in 2usize..7,
    ) {
        prop_assume!(instants.len() >= period);
        let series = build_series(&instants);
        let config = MineConfig::new(0.3).unwrap();
        let walk =
            hitset::mine_with_strategy(&series, period, &config, CountStrategy::TreeWalk)
                .unwrap();
        let linear =
            hitset::mine_with_strategy(&series, period, &config, CountStrategy::LinearScan)
                .unwrap();
        let level =
            hitset::mine_with_strategy(&series, period, &config, CountStrategy::LevelWalk)
                .unwrap();
        prop_assert_eq!(&walk.frequent, &linear.frequent);
        prop_assert_eq!(&walk.frequent, &level.frequent);
        prop_assert_eq!(walk.stats, level.stats);
    }

    #[test]
    fn counts_match_brute_force_matching(
        instants in series_strategy(),
        period in 2usize..6,
    ) {
        prop_assume!(instants.len() >= period);
        let series = build_series(&instants);
        let config = MineConfig::new(0.4).unwrap();
        let result = hitset::mine(&series, period, &config).unwrap();
        let segments = series.segments(period).unwrap();
        for (pattern, count, _) in result.patterns() {
            let brute =
                segments.iter().filter(|s| pattern.matches_segment(s)).count() as u64;
            prop_assert_eq!(count, brute);
        }
    }

    #[test]
    fn result_is_complete_over_the_alphabet(
        instants in series_strategy(),
        period in 2usize..5,
    ) {
        // Enumerate *every* subset of the frequent-letter alphabet (the
        // alphabet is small for these inputs) and check that exactly the
        // threshold-meeting subsets are reported.
        prop_assume!(instants.len() >= period);
        let series = build_series(&instants);
        let config = MineConfig::new(0.5).unwrap();
        let result = hitset::mine(&series, period, &config).unwrap();
        let n = result.alphabet.len();
        prop_assume!(n <= 12);
        let segments = series.segments(period).unwrap();

        use std::collections::HashMap;
        let reported: HashMap<Vec<usize>, u64> = result
            .frequent
            .iter()
            .map(|fp| (fp.letters.iter().collect(), fp.count))
            .collect();

        for mask in 1u32..(1u32 << n) {
            let letters: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
            let set = LetterSet::from_indices(n, letters.iter().copied());
            let pattern = partial_periodic::Pattern::from_letter_set(&result.alphabet, &set);
            let brute =
                segments.iter().filter(|s| pattern.matches_segment(s)).count() as u64;
            let frequent = brute >= result.min_count;
            match reported.get(&letters) {
                Some(&count) => {
                    prop_assert!(frequent, "infrequent pattern reported: {letters:?}");
                    prop_assert_eq!(count, brute);
                }
                None => prop_assert!(
                    !frequent,
                    "missing frequent pattern {letters:?} (count {brute} >= {})",
                    result.min_count
                ),
            }
        }
    }

    #[test]
    fn shared_equals_looping(
        instants in series_strategy(),
        lo in 2usize..5,
        span in 0usize..4,
    ) {
        let hi = lo + span;
        prop_assume!(instants.len() >= hi);
        let series = build_series(&instants);
        let range = PeriodRange::new(lo, hi).unwrap();
        let config = MineConfig::new(0.5).unwrap();
        let shared = mine_periods_shared(&series, range, &config).unwrap();
        let looped =
            mine_periods_looping(&series, range, &config, Engine::HitSet).unwrap();
        prop_assert_eq!(shared.results.len(), looped.results.len());
        for (s, l) in shared.results.iter().zip(&looped.results) {
            prop_assert_eq!(s.period, l.period);
            prop_assert_eq!(&s.frequent, &l.frequent);
        }
        prop_assert_eq!(shared.total_scans, 2);
    }
}

#[test]
fn algorithms_agree_on_the_paper_example() {
    let mut cat = FeatureCatalog::new();
    let a = cat.intern("a");
    let b = cat.intern("b");
    let c = cat.intern("c");
    let e = cat.intern("e");
    let d = cat.intern("d");
    let mut builder = SeriesBuilder::new();
    for inst in [
        vec![a],
        vec![b, c],
        vec![b],
        vec![a],
        vec![e],
        vec![b],
        vec![a],
        vec![c],
        vec![e],
        vec![d],
    ] {
        builder.push_instant(inst);
    }
    let series = builder.finish();
    let config = MineConfig::new(0.6).unwrap();
    let ap = apriori::mine(&series, 3, &config).unwrap();
    let hs = hitset::mine(&series, 3, &config).unwrap();
    assert_eq!(ap.frequent, hs.frequent);
    assert_eq!(hs.len(), 5); // a**, *c*, **b, a*b, ac*
    for strategy in [
        CountStrategy::LevelWalk,
        CountStrategy::TreeWalk,
        CountStrategy::LinearScan,
    ] {
        let r = hitset::mine_with_strategy(&series, 3, &config, strategy).unwrap();
        assert_eq!(r.frequent, hs.frequent, "{strategy:?}");
        assert_eq!(r.stats, hs.stats, "{strategy:?}");
    }
}
