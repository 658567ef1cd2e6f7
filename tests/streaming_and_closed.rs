//! Integration + property tests for the out-of-core path and closed
//! patterns: `.ppmc` stores streamed from disk, disk mining equivalence,
//! and the closed-set compression laws.

#[cfg(feature = "property-tests")]
use proptest::prelude::*;

#[cfg(feature = "property-tests")]
use partial_periodic::closed::closed_of;
use partial_periodic::closed::mine_closed;
use partial_periodic::timeseries::columnar::{write_columnar, ColumnarReader, ColumnarSource};
use partial_periodic::timeseries::SeriesSource;
use partial_periodic::{hitset, run, Engine, MineConfig, SyntheticSpec};
#[cfg(feature = "property-tests")]
use partial_periodic::{FeatureCatalog, FeatureId, SeriesBuilder};

#[cfg(feature = "property-tests")]
fn fid(i: u32) -> FeatureId {
    FeatureId::from_raw(i)
}

fn temp(tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ppm-int-stream-{}-{tag}-{}.ppmc",
        std::process::id(),
        N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ))
}

#[cfg(feature = "property-tests")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any series streams back from a .ppmc store bit-for-bit.
    #[test]
    fn columnar_source_round_trips(
        instants in prop::collection::vec(prop::collection::vec(0u32..300, 0..6), 0..120),
    ) {
        let mut b = SeriesBuilder::new();
        for inst in &instants {
            b.push_instant(inst.iter().map(|&f| fid(f)));
        }
        let series = b.finish();
        let path = temp("prop");
        let catalog = FeatureCatalog::with_synthetic_features(300);
        write_columnar(&path, &series, &catalog).unwrap();
        let mut src = ColumnarSource::open(&path).unwrap();
        prop_assert_eq!(src.instant_count(), series.len());
        let mut b = SeriesBuilder::new();
        src.scan(&mut |_, feats| b.push_instant(feats.iter().copied())).unwrap();
        prop_assert_eq!(b.finish(), series);
        std::fs::remove_file(path).ok();
    }

    /// Disk mining equals in-memory mining; scan counts are physical.
    #[test]
    fn disk_mining_equals_memory(
        instants in prop::collection::vec(prop::collection::vec(0u32..5, 0..4), 20..80),
        period in 2usize..6,
    ) {
        prop_assume!(instants.len() >= period);
        let mut b = SeriesBuilder::new();
        for inst in &instants {
            b.push_instant(inst.iter().map(|&f| fid(f)));
        }
        let series = b.finish();
        let config = MineConfig::new(0.4).unwrap();
        let expect = hitset::mine(&series, period, &config).unwrap();

        let path = temp("mine");
        write_columnar(&path, &series, &FeatureCatalog::with_synthetic_features(5)).unwrap();

        let mut src = ColumnarSource::open(&path).unwrap();
        let got = run(Engine::HitSet, &mut src, period, &config).unwrap();
        prop_assert_eq!(&got.frequent, &expect.frequent);
        prop_assert_eq!(src.scans_performed(), 2);

        let mut src = ColumnarSource::open(&path).unwrap();
        let ap = run(Engine::Apriori, &mut src, period, &config).unwrap();
        prop_assert_eq!(&ap.frequent, &expect.frequent);
        prop_assert_eq!(src.scans_performed(), ap.stats.series_scans);
        std::fs::remove_file(path).ok();
    }

    /// Closed mining is a lossless compression: every frequent pattern's
    /// count equals the count of its smallest closed superpattern.
    #[test]
    fn closed_set_recovers_all_counts(
        instants in prop::collection::vec(prop::collection::vec(0u32..5, 0..4), 20..70),
        period in 2usize..6,
    ) {
        prop_assume!(instants.len() >= period);
        let mut b = SeriesBuilder::new();
        for inst in &instants {
            b.push_instant(inst.iter().map(|&f| fid(f)));
        }
        let series = b.finish();
        let config = MineConfig::new(0.35).unwrap();
        let full = hitset::mine(&series, period, &config).unwrap();
        let closed = mine_closed(&series, period, &config).unwrap();

        // Direct mining equals filter-based reference.
        prop_assert_eq!(&closed.closed, &closed_of(&full));

        // Lossless recovery: count(P) = max count over closed ⊇ P.
        for fp in &full.frequent {
            let recovered = closed
                .closed
                .iter()
                .filter(|cp| fp.letters.is_subset(&cp.letters))
                .map(|cp| cp.count)
                .max();
            prop_assert_eq!(recovered, Some(fp.count), "pattern {:?}", fp.letters);
        }

        // Sandwich: maximal ⊆ closed ⊆ frequent.
        prop_assert!(closed.closed.len() <= full.len());
        prop_assert!(full.maximal().len() <= closed.closed.len());
    }
}

/// The synthetic backbone compresses to a tiny closed set even as the
/// frequent set explodes.
#[test]
fn closed_compression_on_synthetic_data() {
    let spec = SyntheticSpec::figure2(30_000, 10);
    let data = spec.generate();
    let config = MineConfig::new(spec.recommended_min_conf()).unwrap();
    let full = hitset::mine(&data.series, 50, &config).unwrap();
    let closed = mine_closed(&data.series, 50, &config).unwrap();
    assert!(
        full.len() >= 1000,
        "frequent set should explode: {}",
        full.len()
    );
    assert!(
        closed.closed.len() < 40,
        "closed set should stay small: {}",
        closed.closed.len()
    );
    assert_eq!(closed.stats.series_scans, 2);
}

/// Disk mining at scale: stream a synthetic store and match memory
/// results, on every engine, with the same scans.
#[test]
fn disk_mining_at_scale() {
    let spec = SyntheticSpec::table1(20_000, 25, 4, 8);
    let data = spec.generate();
    let config = MineConfig::new(spec.recommended_min_conf()).unwrap();
    let path = temp("scale");
    write_columnar(&path, &data.series, &data.catalog).unwrap();
    for engine in Engine::ALL {
        let mut src = ColumnarSource::open(&path).unwrap();
        let disk = run(engine, &mut src, 25, &config).unwrap();
        let mem = run(engine, &data.series, 25, &config).unwrap();
        assert_eq!(disk.frequent, mem.frequent, "{engine}");
        assert_eq!(disk.stats.series_scans, mem.stats.series_scans, "{engine}");
        assert_eq!(src.scans_performed(), disk.stats.series_scans, "{engine}");
    }
    std::fs::remove_file(path).ok();
}

/// The committed version-1 and version-2 stores stream from disk to the
/// same result as their in-memory load, on every engine.
#[test]
fn old_version_fixtures_stream_like_their_load() {
    for version in [1, 2] {
        let fixture = format!(
            "{}/crates/timeseries/testdata/synthetic-p12-v{version}.ppmc",
            env!("CARGO_MANIFEST_DIR")
        );
        let reader = ColumnarReader::open(&fixture).unwrap();
        assert_eq!(reader.version(), version);
        let config = MineConfig::new(0.6).unwrap();
        for engine in Engine::ALL {
            let mut src = ColumnarSource::open(&fixture).unwrap();
            let disk = run(engine, &mut src, 12, &config).unwrap();
            let mem = run(engine, reader.view(), 12, &config).unwrap();
            assert!(!mem.is_empty(), "v{version} {engine}");
            assert_eq!(disk.frequent, mem.frequent, "v{version} {engine}");
            assert_eq!(
                disk.stats.series_scans, mem.stats.series_scans,
                "v{version} {engine}"
            );
        }
    }
}
