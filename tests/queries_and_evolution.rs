//! Integration tests across the newer modules: event-log ETL, constrained
//! mining, windowed evolution mining, and vertical mining — composed into
//! full pipelines.

#[cfg(feature = "property-tests")]
use proptest::prelude::*;

#[cfg(feature = "property-tests")]
use partial_periodic::constraints::{mine_constrained, Constraints};
use partial_periodic::evolution::{mine_windows, Drift, WindowSpec};
use partial_periodic::timeseries::events::EventLog;
use partial_periodic::{
    hitset, run, Engine, FeatureCatalog, FeatureId, MineConfig, SeriesBuilder, SyntheticSpec,
};

fn fid(i: u32) -> FeatureId {
    FeatureId::from_raw(i)
}

/// Event log → ETL → mining: a basket recorded every Monday 08:00 becomes
/// a weekly pattern.
#[test]
fn event_log_to_weekly_pattern() {
    let mut log = EventLog::new();
    let week_hours = 7 * 24;
    for week in 0..30u64 {
        let ts = week * week_hours as u64 + 8; // Monday 08:00
        log.record(ts, fid(0));
        log.record(ts, fid(1));
        if week % 3 == 0 {
            log.record(ts + 24, fid(2)); // Tuesday, 1 week in 3
        }
    }
    let (series, report) = log.to_series(0, 1, 30 * week_hours).unwrap();
    assert_eq!(report.binned as u64, 30 * 2 + 10);
    let result = hitset::mine(&series, week_hours, &MineConfig::new(0.9).unwrap()).unwrap();
    // The Monday basket (both features + their pair) is frequent; the
    // 1-in-3 Tuesday event is not.
    assert_eq!(result.alphabet.len(), 2);
    assert_eq!(result.len(), 3);
    assert!(result.frequent.iter().all(|fp| fp.count == 30));
}

#[cfg(feature = "property-tests")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Constrained mining equals post-filtering an unconstrained run, for
    /// arbitrary series and random constraint combinations.
    #[test]
    fn constrained_equals_filtered(
        instants in prop::collection::vec(prop::collection::vec(0u8..5, 0..4), 20..70),
        period in 2usize..6,
        offset_mask in 1u8..=15,
        cap in 1usize..5,
    ) {
        prop_assume!(instants.len() >= period);
        let mut b = SeriesBuilder::new();
        for inst in &instants {
            b.push_instant(inst.iter().map(|&f| fid(f as u32)));
        }
        let series = b.finish();
        let config = MineConfig::new(0.4).unwrap();

        let offsets: Vec<usize> =
            (0..period).filter(|&o| offset_mask & (1 << (o % 4)) != 0).collect();
        prop_assume!(!offsets.is_empty());
        let constraints = Constraints::none()
            .at_offsets(offsets.iter().copied())
            .max_letters(cap);

        let constrained = mine_constrained(&series, period, &config, &constraints).unwrap();
        let plain = hitset::mine(&series, period, &config).unwrap();

        // Expected: plain patterns whose letters all sit at admitted
        // offsets and whose size is within the cap.
        let mut expect: Vec<(Vec<(usize, FeatureId)>, u64)> = plain
            .frequent
            .iter()
            .filter(|fp| {
                fp.letters.len() <= cap
                    && fp.letters.iter().all(|i| {
                        let (o, _) = plain.alphabet.letter(i);
                        offsets.contains(&o)
                    })
            })
            .map(|fp| {
                let mut key: Vec<(usize, FeatureId)> =
                    fp.letters.iter().map(|i| plain.alphabet.letter(i)).collect();
                key.sort_unstable();
                (key, fp.count)
            })
            .collect();
        expect.sort();
        let mut got: Vec<(Vec<(usize, FeatureId)>, u64)> = constrained
            .frequent
            .iter()
            .map(|fp| {
                let mut key: Vec<(usize, FeatureId)> =
                    fp.letters.iter().map(|i| constrained.alphabet.letter(i)).collect();
                key.sort_unstable();
                (key, fp.count)
            })
            .collect();
        got.sort();
        prop_assert_eq!(got, expect);
    }

    /// Required-letter queries equal post-filtering too.
    #[test]
    fn required_equals_filtered(
        instants in prop::collection::vec(prop::collection::vec(0u8..4, 0..3), 24..60),
        period in 2usize..5,
    ) {
        prop_assume!(instants.len() >= period);
        let mut b = SeriesBuilder::new();
        for inst in &instants {
            b.push_instant(inst.iter().map(|&f| fid(f as u32)));
        }
        let series = b.finish();
        let config = MineConfig::new(0.35).unwrap();
        let plain = hitset::mine(&series, period, &config).unwrap();
        prop_assume!(!plain.is_empty());
        // Require the first frequent letter.
        let (o, f) = plain.alphabet.letter(0);
        let constrained = mine_constrained(
            &series,
            period,
            &config,
            &Constraints::none().require(o, f),
        )
        .unwrap();
        let expect = plain
            .frequent
            .iter()
            .filter(|fp| fp.letters.contains(0))
            .count();
        prop_assert_eq!(constrained.len(), expect);
    }

    /// Vertical mining is identical to hit-set mining.
    #[test]
    fn vertical_equals_hitset(
        instants in prop::collection::vec(prop::collection::vec(0u8..5, 0..4), 30..100),
        period in 2usize..7,
    ) {
        prop_assume!(instants.len() >= period);
        let mut b = SeriesBuilder::new();
        for inst in &instants {
            b.push_instant(inst.iter().map(|&f| fid(f as u32)));
        }
        let series = b.finish();
        let config = MineConfig::new(0.4).unwrap();
        let seq = hitset::mine(&series, period, &config).unwrap();
        let vertical = run(Engine::Vertical, &series, period, &config).unwrap();
        prop_assert_eq!(seq.frequent, vertical.frequent);
    }
}

/// Evolution mining on the synthetic generator: the backbone is stable
/// across windows; a feature injected only into the second half emerges.
#[test]
fn evolution_on_synthetic_data() {
    let spec = SyntheticSpec::table1(12_000, 20, 3, 6);
    let data = spec.generate();
    // Inject a new letter into the second half only.
    let marker = fid(70_000);
    let mut b = SeriesBuilder::new();
    let half = data.series.len() / 2;
    for (t, inst) in data.series.iter().enumerate() {
        if t >= half && t % 20 == 7 {
            b.push_instant(inst.iter().copied().chain([marker]));
        } else {
            b.push_instant(inst.iter().copied());
        }
    }
    let series = b.finish();
    let config = MineConfig::new(0.6).unwrap();
    let out = mine_windows(&series, 20, &config, WindowSpec::new(100, 100).unwrap()).unwrap();
    let n = out.window_count();
    assert!(n >= 4);

    // Backbone letters: stable.
    for &(o, f) in &data.backbone {
        let track = out.track_of(&[(o, f)]).expect("backbone tracked");
        assert_eq!(
            track.classify(n),
            Drift::Stable,
            "backbone letter ({o}, {f:?})"
        );
    }
    // The injected marker: emerging.
    let track = out.track_of(&[(7, marker)]).expect("marker tracked");
    assert_eq!(track.classify(n), Drift::Emerging);
    assert_eq!(track.first_seen(), Some(n / 2));
}

/// The whole stack composes: events → series → vertical weekly mine →
/// periodic rules.
#[test]
fn full_pipeline_composes() {
    use partial_periodic::datagen::workloads::retail::{generate_events, store_script};
    use partial_periodic::rules::generate_rules;

    let mut catalog = FeatureCatalog::new();
    let log = generate_events(140, &store_script(), 10, 0.2, 5, &mut catalog);
    let (series, _) = log.to_series(0, 1, 140 * 24).unwrap();
    let week = 7 * 24;
    let config = MineConfig::new(0.7).unwrap();

    let par = run(Engine::Vertical, &series, week, &config).unwrap();
    let seq = hitset::mine(&series, week, &config).unwrap();
    assert_eq!(par.frequent, seq.frequent);
    assert!(!par.is_empty());

    // Coffee implies doughnut within the Monday 8am basket.
    let coffee = catalog.get("coffee").unwrap();
    let doughnut = catalog.get("doughnut").unwrap();
    let rules = generate_rules(&par, 0.95);
    let co = par.alphabet.index_of(8, coffee).unwrap();
    let dn = par.alphabet.index_of(8, doughnut).unwrap();
    assert!(
        rules
            .iter()
            .any(|r| r.consequent == dn && r.antecedent.contains(co)),
        "expected coffee => doughnut rule"
    );
}
