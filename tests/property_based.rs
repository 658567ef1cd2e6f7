//! Property-based tests on the core data structures: `LetterSet` against a
//! `BTreeSet` model, the max-subpattern tree against a naive multiset, the
//! threshold arithmetic, and the substrate's discretizers.
//!
//! Requires the external `proptest` crate; enable with
//! `--features property-tests` (see the root `Cargo.toml`). The default
//! (offline) test run skips this file entirely.
#![cfg(feature = "property-tests")]

use std::collections::BTreeSet;

use proptest::prelude::*;

use partial_periodic::core::hitset::MaxSubpatternTree;
use partial_periodic::core::{LetterSet, MineConfig};
use partial_periodic::timeseries::discretize::Discretizer;

// ---------------------------------------------------------------- LetterSet

#[derive(Debug, Clone)]
enum SetOp {
    Insert(usize),
    Remove(usize),
    Clear,
}

fn ops_strategy(universe: usize) -> impl Strategy<Value = Vec<SetOp>> {
    prop::collection::vec(
        prop_oneof![
            (0..universe).prop_map(SetOp::Insert),
            (0..universe).prop_map(SetOp::Remove),
            Just(SetOp::Clear),
        ],
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn letterset_matches_btreeset_model(
        universe in 1usize..200,
        ops in ops_strategy(199),
    ) {
        let mut set = LetterSet::new(universe);
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for op in ops {
            match op {
                SetOp::Insert(i) if i < universe => {
                    set.insert(i);
                    model.insert(i);
                }
                SetOp::Insert(_) => {}
                SetOp::Remove(i) => {
                    set.remove(i);
                    model.remove(&i);
                }
                SetOp::Clear => {
                    set.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.iter().collect::<Vec<_>>(),
                            model.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            prop_assert_eq!(set.first(), model.first().copied());
        }
    }

    #[test]
    fn letterset_algebra_matches_model(
        universe in 1usize..150,
        a_items in prop::collection::btree_set(0usize..149, 0..30),
        b_items in prop::collection::btree_set(0usize..149, 0..30),
    ) {
        let a_items: BTreeSet<usize> =
            a_items.into_iter().filter(|&i| i < universe).collect();
        let b_items: BTreeSet<usize> =
            b_items.into_iter().filter(|&i| i < universe).collect();
        let a = LetterSet::from_indices(universe, a_items.iter().copied());
        let b = LetterSet::from_indices(universe, b_items.iter().copied());

        prop_assert_eq!(a.is_subset(&b), a_items.is_subset(&b_items));
        prop_assert_eq!(a.is_superset(&b), a_items.is_superset(&b_items));
        prop_assert_eq!(a.is_disjoint(&b), a_items.is_disjoint(&b_items));

        let mut union = a.clone();
        union.union_with(&b);
        prop_assert_eq!(
            union.iter().collect::<Vec<_>>(),
            a_items.union(&b_items).copied().collect::<Vec<_>>()
        );
        let mut inter = a.clone();
        inter.intersect_with(&b);
        prop_assert_eq!(
            inter.iter().collect::<Vec<_>>(),
            a_items.intersection(&b_items).copied().collect::<Vec<_>>()
        );
        let diff = a.difference(&b);
        prop_assert_eq!(
            diff.iter().collect::<Vec<_>>(),
            a_items.difference(&b_items).copied().collect::<Vec<_>>()
        );
    }

    // ------------------------------------------------- max-subpattern tree

    #[test]
    fn tree_counting_matches_naive_multiset(
        universe in 2usize..10,
        hits in prop::collection::vec(prop::collection::btree_set(0usize..9, 2..6), 1..40),
        candidate in prop::collection::btree_set(0usize..9, 0..5),
    ) {
        let hits: Vec<BTreeSet<usize>> = hits
            .into_iter()
            .map(|h| h.into_iter().filter(|&i| i < universe).collect::<BTreeSet<_>>())
            .filter(|h: &BTreeSet<usize>| h.len() >= 2)
            .collect();
        prop_assume!(!hits.is_empty());
        let candidate: BTreeSet<usize> =
            candidate.into_iter().filter(|&i| i < universe).collect();

        let mut tree = MaxSubpatternTree::new(LetterSet::full(universe));
        for h in &hits {
            tree.insert(&LetterSet::from_indices(universe, h.iter().copied()));
        }
        let cand = LetterSet::from_indices(universe, candidate.iter().copied());
        let naive = hits.iter().filter(|h| candidate.is_subset(h)).count() as u64;
        prop_assert_eq!(tree.count_superpatterns_walk(&cand), naive);
        prop_assert_eq!(tree.count_superpatterns_linear(&cand), naive);
        // Structural invariants.
        prop_assert_eq!(tree.total_hits(), hits.len() as u64);
        prop_assert!(tree.distinct_hits() <= hits.len());
        prop_assert!(tree.distinct_hits() <= tree.node_count());
    }

    // -------------------------------------------------- threshold arithmetic

    #[test]
    fn min_count_is_least_count_meeting_confidence(
        m in 1usize..500,
        conf_thousandths in 1u32..=1000,
    ) {
        let conf = conf_thousandths as f64 / 1000.0;
        let config = MineConfig::new(conf).unwrap();
        let c = config.min_count(m);
        // c meets the threshold…
        prop_assert!(c as f64 / m as f64 >= conf - 1e-9);
        // …and c−1 does not (when c > 1; counts below 1 are meaningless).
        if c > 1 {
            let below = ((c - 1) as f64) / m as f64;
            prop_assert!(below < conf - 1e-12);
        }
        prop_assert!(c <= m as u64);
    }

    // ------------------------------------------------------- discretization

    #[test]
    fn discretizers_are_total_and_order_preserving(
        values in prop::collection::vec(-1000.0f64..1000.0, 2..60),
        bins in 1usize..12,
    ) {
        for d in [
            Discretizer::equal_width("x", &values, bins).unwrap(),
            Discretizer::equal_depth("x", &values, bins).unwrap(),
        ] {
            let mut pairs: Vec<(f64, usize)> =
                values.iter().map(|&v| (v, d.bin_of(v))).collect();
            for &(v, b) in &pairs {
                prop_assert!(b < bins, "{v} -> bin {b}");
            }
            // Bin assignment is monotone in the value.
            pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in pairs.windows(2) {
                prop_assert!(w[0].1 <= w[1].1, "bins not monotone: {w:?}");
            }
        }
    }

    // ------------------------------------------------------- storage codecs

    #[test]
    fn columnar_format_round_trips_arbitrary_series(
        instants in prop::collection::vec(prop::collection::vec(0u32..500, 0..5), 0..80),
        names in prop::collection::vec("[a-z]{1,12}", 0..20),
    ) {
        use partial_periodic::timeseries::columnar::{encode_columnar, ColumnarReader};
        use partial_periodic::{FeatureCatalog, FeatureId, SeriesBuilder};

        let mut catalog = FeatureCatalog::new();
        for n in &names {
            catalog.intern(n);
        }
        let mut builder = SeriesBuilder::new();
        for inst in &instants {
            builder.push_instant(inst.iter().map(|&f| FeatureId::from_raw(f)));
        }
        let series = builder.finish();
        let bytes = encode_columnar(&series, &catalog);
        let reader = ColumnarReader::from_bytes(&bytes).unwrap();
        prop_assert_eq!(reader.to_series(), series);
        prop_assert_eq!(catalog.len(), reader.catalog().len());
        // A single-byte corruption of a committed row is detected.
        if reader.view().bytes() > 0 {
            let mut bad = bytes.to_vec();
            let idx = bad.len() - 1;
            bad[idx] ^= 0x5a;
            prop_assert!(ColumnarReader::from_bytes(&bad).is_err());
        }
    }

    #[test]
    fn equal_width_bins_have_equal_span(
        lo in -100.0f64..100.0,
        span in 1.0f64..200.0,
        bins in 2usize..10,
    ) {
        let values = vec![lo, lo + span];
        let d = Discretizer::equal_width("x", &values, bins).unwrap();
        let edges = d.edges();
        let width = (edges[1] - edges[0]).abs();
        for w in edges.windows(2) {
            prop_assert!(((w[1] - w[0]) - width).abs() < 1e-6 * span);
        }
    }

    // ------------------------------------------------------- self-verification

    #[test]
    fn auditor_is_clean_on_honest_mines_of_arbitrary_series(
        instants in prop::collection::vec(prop::collection::vec(0u32..6, 0..4), 12..120),
        period in 2usize..8,
        conf_thousandths in 200u32..=1000,
    ) {
        use partial_periodic::audit::{audit, cross_check, AuditMode};
        use partial_periodic::{hitset, FeatureCatalog, FeatureId, SeriesBuilder};

        prop_assume!(period <= instants.len());
        let mut catalog = FeatureCatalog::new();
        for i in 0..6 {
            catalog.intern(&format!("f{i}"));
        }
        let mut builder = SeriesBuilder::new();
        for inst in &instants {
            builder.push_instant(inst.iter().map(|&f| FeatureId::from_raw(f)));
        }
        let series = builder.finish();
        let config = MineConfig::new(conf_thousandths as f64 / 1000.0).unwrap();

        let result = hitset::mine(&series, period, &config).unwrap();
        let report = audit(&series, &result, &catalog, AuditMode::Full).unwrap();
        prop_assert!(report.is_clean(), "violations: {:?}", report.violations);

        let check = cross_check(&series, period, &config, &catalog).unwrap();
        prop_assert!(check.agreed(), "engines disagree: {:?}", check.report.violations);
    }

    #[test]
    fn auditor_flags_any_tampered_count(
        instants in prop::collection::vec(prop::collection::vec(0u32..4, 0..3), 24..100),
        period in 2usize..6,
        victim in 0usize..64,
        bump in 1u64..5,
    ) {
        use partial_periodic::audit::{audit, AuditMode, Violation};
        use partial_periodic::{hitset, FeatureCatalog, FeatureId, SeriesBuilder};

        prop_assume!(period <= instants.len());
        let mut catalog = FeatureCatalog::new();
        for i in 0..4 {
            catalog.intern(&format!("f{i}"));
        }
        let mut builder = SeriesBuilder::new();
        for inst in &instants {
            builder.push_instant(inst.iter().map(|&f| FeatureId::from_raw(f)));
        }
        let series = builder.finish();
        let config = MineConfig::new(0.4).unwrap();

        let mut result = hitset::mine(&series, period, &config).unwrap();
        prop_assume!(!result.frequent.is_empty());
        let victim = victim % result.frequent.len();
        result.frequent[victim].count += bump;

        let report = audit(&series, &result, &catalog, AuditMode::Full).unwrap();
        prop_assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::CountMismatch { .. } | Violation::CountExceedsSegments { .. }
            )),
            "bump {bump} on pattern #{victim} escaped: {:?}",
            report.violations
        );
    }
}
