//! End-to-end pipelines: generate → (store → load) → mine → verify the
//! planted ground truth is recovered.

use partial_periodic::core::scan_frequent_letters;
use partial_periodic::datagen::workloads::{activity, stock};
use partial_periodic::timeseries::{columnar, discretize, storage};
use partial_periodic::{hitset, FeatureCatalog, MineConfig, SyntheticSpec};

/// The synthetic generator's contract: mining at the recommended threshold
/// recovers exactly |F1| frequent letters and MAX-PAT-LENGTH as the longest
/// frequent pattern.
#[test]
fn synthetic_ground_truth_is_recovered() {
    for (len, period, max_pat, f1) in [(6_000, 20, 4, 8), (10_000, 50, 6, 12), (4_000, 10, 2, 6)] {
        let spec = SyntheticSpec::table1(len, period, max_pat, f1);
        let g = spec.generate();
        let config = MineConfig::new(spec.recommended_min_conf()).unwrap();
        let result = hitset::mine(&g.series, period, &config).unwrap();
        assert_eq!(
            result.alphabet.len(),
            f1,
            "|F1| mismatch for spec ({len},{period},{max_pat},{f1})"
        );
        assert_eq!(
            result.max_l_length(),
            max_pat,
            "MAX-PAT-LENGTH mismatch for spec ({len},{period},{max_pat},{f1})"
        );
        // The planted letters are exactly the mined alphabet.
        let mined: Vec<(usize, _)> = (0..result.alphabet.len())
            .map(|i| result.alphabet.letter(i))
            .collect();
        assert_eq!(mined, g.planted_letters());
        // The backbone is frequent as a whole.
        let backbone_set = partial_periodic::core::LetterSet::from_indices(
            result.alphabet.len(),
            g.backbone
                .iter()
                .map(|&(o, f)| result.alphabet.index_of(o, f).expect("backbone letter")),
        );
        assert!(
            result.frequent.iter().any(|fp| fp.letters == backbone_set),
            "backbone pattern not frequent"
        );
    }
}

/// Mining results survive a disk round trip of the series.
#[test]
fn storage_round_trip_preserves_mining() {
    let spec = SyntheticSpec::table1(3_000, 15, 3, 6);
    let g = spec.generate();
    let config = MineConfig::new(0.6).unwrap();
    let before = hitset::mine(&g.series, 15, &config).unwrap();

    let dir = std::env::temp_dir().join(format!("ppm-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("series.ppmc");
    columnar::write_columnar(&path, &g.series, &g.catalog).unwrap();
    let reader = columnar::ColumnarReader::open(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let loaded = reader.to_series();
    assert_eq!(loaded, g.series);
    assert!(reader.catalog().iter().eq(g.catalog.iter()));
    let after = hitset::mine(&loaded, 15, &config).unwrap();
    assert_eq!(before.frequent, after.frequent);
    let from_view = hitset::mine_view(reader.view(), 15, &config).unwrap();
    assert_eq!(before.frequent, from_view.frequent);
}

/// The text format round-trips small series through human-readable form.
#[test]
fn text_format_round_trip() {
    let mut catalog = FeatureCatalog::new();
    let series = activity::generate(
        2,
        &[activity::Habit::weekdays("coffee", 7, 1.0)],
        3,
        0.2,
        5,
        &mut catalog,
    );
    let text = storage::render_series(&series, &catalog);
    let mut catalog2 = FeatureCatalog::new();
    let parsed = storage::parse_series(&text, &mut catalog2).unwrap();
    assert_eq!(parsed.len(), series.len());
    // Feature ids may be renumbered by the re-parse (interning order
    // follows first appearance), so compare instants by *name sets*.
    for t in 0..series.len() {
        let mut before: Vec<&str> = series
            .instant(t)
            .iter()
            .map(|&f| catalog.name(f).unwrap())
            .collect();
        let mut after: Vec<&str> = parsed
            .instant(t)
            .iter()
            .map(|&f| catalog2.name(f).unwrap())
            .collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after, "instant {t}");
    }
}

/// The Jim workload's habits surface as weekly frequent letters.
#[test]
fn jim_habits_become_weekly_letters() {
    let mut catalog = FeatureCatalog::new();
    let series = activity::generate(80, &activity::jim_schedule(), 20, 0.3, 11, &mut catalog);
    let config = MineConfig::new(0.5).unwrap();
    let scan = scan_frequent_letters(&series, activity::WEEK, &config).unwrap();
    let paper = catalog.get("read-vancouver-sun").unwrap();
    // The newspaper habit: 5 weekday letters at hour 7.
    let paper_letters = (0..scan.alphabet.len())
        .map(|i| scan.alphabet.letter(i))
        .filter(|&(o, f)| f == paper && o % 24 == 7)
        .count();
    assert_eq!(paper_letters, 5);
    // Saturday groceries at 10:00 (reliability 0.8 ≥ 0.5): offset day 5.
    let grocery = catalog.get("grocery-run").unwrap();
    assert!(scan.alphabet.index_of(5 * 24 + 10, grocery).is_some());
    // Nothing on Sundays at 7:00.
    assert!(scan.alphabet.letters_at(6 * 24 + 7).is_empty());
}

/// Stock movements: discretization via movement features plus mining finds
/// the planted weekly drift.
#[test]
fn stock_drift_is_mined_at_period_five() {
    let prices = stock::prices(2_000, 100.0, stock::weekly_profile(), 7);
    let mut catalog = FeatureCatalog::new();
    let series = stock::movements(&prices, 0.004, &mut catalog);
    let result = hitset::mine(&series, 5, &MineConfig::new(0.7).unwrap()).unwrap();
    let mut cat2 = catalog.clone();
    let pattern = partial_periodic::Pattern::parse("up * * * down", &mut cat2).unwrap();
    let count = result
        .count_of(&pattern)
        .expect("up-Monday/down-Friday frequent");
    assert!(count as f64 / result.segment_count as f64 > 0.7);
}

/// Numeric discretization end to end: equal-width bands over a sinusoid
/// make the trough band perfectly periodic.
#[test]
fn discretized_sinusoid_is_periodic() {
    let values: Vec<f64> = (0..2_400)
        .map(|t| ((t % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
        .collect();
    let mut catalog = FeatureCatalog::new();
    let d = discretize::Discretizer::equal_width("s", &values, 4).unwrap();
    let series = d.apply(&values, &mut catalog);
    // Every hour maps to a fixed band -> 24 perfect letters. The full
    // frequent set would be all 2^24 subsets, so mine only the maximal
    // pattern: MaxMiner's look-ahead collapses it in one probe.
    let result =
        partial_periodic::maximal::mine_maximal(&series, 24, &MineConfig::new(1.0).unwrap())
            .unwrap();
    assert_eq!(result.alphabet.len(), 24);
    assert_eq!(result.maximal.len(), 1);
    assert_eq!(result.maximal[0].letters.len(), 24);
    assert_eq!(result.maximal[0].count, result.segment_count as u64);
}
