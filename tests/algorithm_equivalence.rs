//! Cross-algorithm equivalence: Apriori (Alg 3.1), the max-subpattern
//! hit-set method (Alg 3.2), multi-period looping (Alg 3.3) and shared
//! mining (Alg 3.4) must all report exactly the same frequent patterns with
//! exactly the same counts — and those counts must agree with brute-force
//! segment matching and brute-force subset enumeration. Every engine's
//! derive statistics and frequent set on two generated stores are also
//! pinned, so a change to candidate generation cannot move them.

#[cfg(feature = "property-tests")]
use proptest::prelude::*;

use partial_periodic::constraints::{self, Constraints};
use partial_periodic::core::hitset::derive::CountStrategy;
#[cfg(feature = "property-tests")]
use partial_periodic::core::LetterSet;
#[cfg(feature = "property-tests")]
use partial_periodic::multi::{mine_periods_looping, mine_periods_shared, PeriodRange};
use partial_periodic::timeseries::{self, EncodedSeries};
use partial_periodic::vertical::incremental::IncrementalVerticalIndex;
#[cfg(feature = "property-tests")]
use partial_periodic::FeatureId;
use partial_periodic::{apriori, hitset, FeatureCatalog, MineConfig, SeriesBuilder};
use partial_periodic::{run, Engine, MiningResult, SyntheticSpec};

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
        let bitmap =
            hitset::mine_with_strategy(&series, period, &config, CountStrategy::Bitmap)
                .unwrap();
        prop_assert_eq!(&walk.frequent, &linear.frequent);
        prop_assert_eq!(&walk.frequent, &bitmap.frequent);
        prop_assert_eq!(walk.stats, bitmap.stats);
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
        CountStrategy::Bitmap,
        CountStrategy::TreeWalk,
        CountStrategy::LinearScan,
    ] {
        let r = hitset::mine_with_strategy(&series, 3, &config, strategy).unwrap();
        assert_eq!(r.frequent, hs.frequent, "{strategy:?}");
        assert_eq!(r.stats, hs.stats, "{strategy:?}");
    }
}

/// What a level-wise derive must reproduce exactly: the candidate
/// lattice's size and depth, the counting work, and the frequent set
/// itself (pattern count plus an FNV-1a fingerprint of every
/// pattern's letters and count, in the result's canonical order).
fn identity(result: &MiningResult) -> (u64, u64, usize, usize, u64) {
    let mut bytes = Vec::new();
    for f in &result.frequent {
        for l in f.letters.iter() {
            bytes.extend_from_slice(&(l as u32).to_le_bytes());
        }
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&f.count.to_le_bytes());
    }
    let s = &result.stats;
    (
        s.candidates_generated,
        s.subset_tests,
        s.max_level,
        result.frequent.len(),
        timeseries::fnv64(&bytes),
    )
}

/// Every engine's derive statistics and frequent set on two small
/// Table-1 stores, pinned to the values the `Vec<u32>`-level join
/// produced: a 24-letter alphabet (one inline word per set) and a
/// 70-letter one (the heap form, across a word boundary). The vertical
/// engine also runs through its live incremental index, whose level
/// loop and join cache are its own; constrained mining re-roots the join
/// at a required letter.
#[test]
fn derive_stats_and_frequent_sets_are_pinned() {
    let cases = [
        (SyntheticSpec::table1(6_000, 30, 8, 24), 0.35),
        (SyntheticSpec::table1(8_000, 80, 7, 70), 0.45),
    ];
    let mut got = Vec::new();
    for (spec, conf) in cases {
        let g = spec.generate();
        let config = MineConfig::new(conf).unwrap();
        let p = spec.period;
        let cold = |e| identity(&run(e, &g.series, p, &config).unwrap());
        let mut row: Vec<_> = Engine::ALL.into_iter().map(cold).collect();
        let enc = EncodedSeries::encode(&g.series);
        let live = IncrementalVerticalIndex::from_view(enc.view(), p, None).rederive_dirty(&config);
        row.push(identity(&live.unwrap()));
        let (o, f) = g.backbone[0];
        let required = Constraints::none().require(o, f);
        let constrained = constraints::mine_constrained(&g.series, p, &config, &required);
        row.push(identity(&constrained.unwrap()));
        got.push(row);
    }
    // One row per store: hitset, apriori, vertical, the live incremental
    // index, constrained.
    let p30 = (6036, 6036, 9, 4635, 6500151125932692174);
    let p80 = (21036, 21036, 8, 9118, 12585907476459474539);
    let want = [
        [
            p30,
            (6036, 923377, 9, 4635, 6500151125932692174),
            p30,
            p30,
            (2272, 2295, 9, 2176, 737245733575589925),
        ],
        [
            p80,
            (21036, 1910336, 8, 9118, 12585907476459474539),
            p80,
            p80,
            (5979, 6048, 8, 4096, 12481863291115633781),
        ],
    ];
    assert_eq!(got, want);
}
