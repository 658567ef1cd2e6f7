//! Integration tests for the paper's §4/§6 extensions: maximal patterns,
//! periodic rules, perturbation tolerance, multi-level mining, and the
//! perfect-periodicity baseline.

#[cfg(feature = "property-tests")]
use proptest::prelude::*;

use partial_periodic::core::perfect::mine_perfect;
#[cfg(feature = "property-tests")]
use partial_periodic::maximal::{maximal_of, mine_maximal};
use partial_periodic::multi::PeriodRange;
use partial_periodic::multilevel::mine_multilevel;
use partial_periodic::timeseries::Taxonomy;
use partial_periodic::{
    hitset, perturb, rules, Engine, FeatureCatalog, FeatureId, MineConfig, SeriesBuilder,
};

#[cfg(feature = "property-tests")]
fn build_series(instants: &[Vec<u8>]) -> partial_periodic::FeatureSeries {
    let mut b = SeriesBuilder::new();
    for inst in instants {
        b.push_instant(inst.iter().map(|&f| FeatureId::from_raw(f as u32)));
    }
    b.finish()
}

#[cfg(feature = "property-tests")]
fn series_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..5, 0..4), 16..80)
}

#[cfg(feature = "property-tests")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// MaxMiner-over-hit-set equals filtering the full result.
    #[test]
    fn maxminer_equals_reference(
        instants in series_strategy(),
        period in 2usize..7,
        conf_pct in prop::sample::select(vec![30u32, 50, 75, 100]),
    ) {
        prop_assume!(instants.len() >= period);
        let series = build_series(&instants);
        let config = MineConfig::new(conf_pct as f64 / 100.0).unwrap();
        let full = hitset::mine(&series, period, &config).unwrap();
        let mut expect = maximal_of(&full);
        expect.sort_by(|a, b| {
            a.letters.len().cmp(&b.letters.len()).then_with(|| {
                a.letters.iter().collect::<Vec<_>>().cmp(&b.letters.iter().collect())
            })
        });
        let got = mine_maximal(&series, period, &config).unwrap();
        prop_assert_eq!(got.maximal, expect);
    }

    /// Rule confidences are exactly count(P)/count(P \ {l}).
    #[test]
    fn rule_confidences_are_exact(
        instants in series_strategy(),
        period in 2usize..6,
    ) {
        prop_assume!(instants.len() >= period);
        let series = build_series(&instants);
        let config = MineConfig::new(0.3).unwrap();
        let result = hitset::mine(&series, period, &config).unwrap();
        let segments = series.segments(period).unwrap();
        for rule in rules::generate_rules(&result, 0.0) {
            let mut whole = rule.antecedent.clone();
            whole.insert(rule.consequent);
            let count = |set: &partial_periodic::core::LetterSet| {
                let p = partial_periodic::Pattern::from_letter_set(&result.alphabet, set);
                segments.iter().filter(|s| p.matches_segment(s)).count() as f64
            };
            let expect = count(&whole) / count(&rule.antecedent);
            prop_assert!((rule.confidence - expect).abs() < 1e-12);
            prop_assert_eq!(rule.support_count, count(&whole) as u64);
        }
    }

    /// Perfect mining equals hit-set F1 at confidence 1.0 for every period.
    #[test]
    fn perfect_equals_hitset_at_one(
        instants in series_strategy(),
        period in 2usize..7,
    ) {
        prop_assume!(instants.len() >= period);
        let series = build_series(&instants);
        let perfect =
            mine_perfect(&series, PeriodRange::single(period).unwrap()).unwrap();
        let full = hitset::mine(&series, period, &MineConfig::new(1.0).unwrap()).unwrap();
        prop_assert_eq!(&perfect[0].alphabet, &full.alphabet);
    }
}

/// Slot enlargement recovers jittered patterns that exact mining misses.
#[test]
fn perturbation_recovery() {
    let mut b = SeriesBuilder::new();
    for j in 0..60 {
        for o in 0..6 {
            // Event near offset 2, drifting ±1 deterministically.
            let fire = o as i64 == 2 + [(-1i64), 0, 1][j % 3];
            if fire {
                b.push_instant([FeatureId::from_raw(0)]);
            } else {
                b.push_instant([]);
            }
        }
    }
    let series = b.finish();
    let config = MineConfig::new(0.9).unwrap();
    let exact = hitset::mine(&series, 6, &config).unwrap();
    assert!(exact.is_empty());
    let tolerant =
        perturb::mine_with_slot_enlargement(&series, 6, 1, &config, Engine::HitSet).unwrap();
    assert!(!tolerant.is_empty());
    assert!(tolerant
        .alphabet
        .index_of(2, FeatureId::from_raw(0))
        .is_some());
}

/// Multi-level drill-down: coarse patterns persist or refine; features
/// whose generalization was infrequent never reappear at finer levels.
#[test]
fn multilevel_drill_down_consistency() {
    let mut cat = FeatureCatalog::new();
    let tax = Taxonomy::from_name_pairs(
        &[
            ("espresso", "coffee"),
            ("latte", "coffee"),
            ("coffee", "drink"),
            ("cola", "drink"),
            ("bagel", "food"),
        ],
        &mut cat,
    )
    .unwrap();
    let espresso = cat.get("espresso").unwrap();
    let latte = cat.get("latte").unwrap();
    let cola = cat.get("cola").unwrap();
    let bagel = cat.get("bagel").unwrap();

    let mut b = SeriesBuilder::new();
    for j in 0..40 {
        // Offset 0: always some coffee; espresso 3 of 4 days.
        b.push_instant([if j % 4 == 0 { latte } else { espresso }]);
        // Offset 1: cola rarely, bagel usually.
        let mut snack = vec![bagel];
        if j % 5 == 0 {
            snack.push(cola);
        }
        b.push_instant(snack);
    }
    let series = b.finish();

    let config = MineConfig::new(0.7).unwrap();
    let levels = mine_multilevel(&series, &tax, 2, 2, &config, Engine::HitSet).unwrap();
    assert_eq!(levels.len(), 3);

    // Depth 0: drink@0 and food@1 both perfect.
    let l0 = &levels[0].result;
    assert_eq!(l0.alphabet.len(), 2);
    // Depth 1: coffee@0 (conf 1.0) and bagel@1 (conf 1.0) survive; cola's
    // parent (drink) was frequent, so cola is *considered* but at 0.2 it is
    // not frequent.
    let l1 = &levels[1].result;
    let coffee = cat.get("coffee").unwrap();
    assert!(l1.alphabet.index_of(0, coffee).is_some());
    assert!(l1.alphabet.index_of(1, bagel).is_some());
    assert!(l1.alphabet.index_of(1, cola).is_none());
    // Depth 2: espresso at 0.75 survives; latte at 0.25 does not; cola was
    // filtered by the drill-down (its depth-1 form was infrequent).
    let l2 = &levels[2].result;
    assert!(l2.alphabet.index_of(0, espresso).is_some());
    assert!(l2.alphabet.index_of(0, latte).is_none());
    assert!(l2.alphabet.index_of(1, cola).is_none());
}

/// Cycle elimination's early exit on aperiodic data.
#[test]
fn perfect_cycle_elimination_saves_work() {
    let mut b = SeriesBuilder::new();
    for t in 0..10_000u32 {
        b.push_instant([FeatureId::from_raw(t % 997)]);
    }
    let series = b.finish();
    let out = mine_perfect(&series, PeriodRange::new(5, 25).unwrap()).unwrap();
    for p in &out {
        assert!(!p.has_pattern());
        assert!(
            p.segments_examined * 10 <= p.segment_count.max(10),
            "period {}: examined {} of {}",
            p.period,
            p.segments_examined,
            p.segment_count
        );
    }
}

/// Rules generated from multi-letter patterns respect the threshold filter.
#[test]
fn rule_threshold_is_respected() {
    let mut b = SeriesBuilder::new();
    for j in 0..20 {
        b.push_instant([FeatureId::from_raw(0)]);
        b.push_instant(if j % 2 == 0 {
            vec![FeatureId::from_raw(1)]
        } else {
            vec![]
        });
    }
    let series = b.finish();
    let result = hitset::mine(&series, 2, &MineConfig::new(0.4).unwrap()).unwrap();
    let all = rules::generate_rules(&result, 0.0);
    let strict = rules::generate_rules(&result, 0.9);
    assert!(strict.len() < all.len());
    assert!(strict.iter().all(|r| r.confidence >= 0.9));
}
