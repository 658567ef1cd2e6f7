//! Same-run performance races.
//!
//! Each race times two ways of doing the same work in one process and
//! holds their ratio to a floor, so host speed cancels out. A race first
//! asserts that both arms produced the same result: a disagreement is a
//! [`RaceError::Identity`], never a slow pass. Three races also hold their
//! fast arm's absolute time within +50% of a committed point
//! (`races-baseline.json`, read and never written). The `races` binary runs
//! them all and exits non-zero on any failure.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ppm_core::hitset::derive::CountStrategy;
use ppm_core::multi::{mine_periods_scheduled, PeriodRange};
use ppm_core::vertical::incremental::IncrementalVerticalIndex;
use ppm_core::{hitset, Engine, Kernel, MineConfig, MiningResult};
use ppm_datagen::noise::add_spurious;
use ppm_datagen::SyntheticSpec;
use ppm_observe::{aggregate_phases, Collector, Json};
use ppm_timeseries::columnar::{write_columnar, ColumnarReader};
use ppm_timeseries::storage::{parse_series, render_series};
use ppm_timeseries::{EncodedSeries, EncodedSeriesView, FeatureCatalog, FeatureId, FeatureSeries};

/// How a measured value must compare with its bound.
#[derive(Debug, Clone, Copy)]
enum Floor {
    /// Strictly greater than the bound.
    Above(f64),
    /// Greater than or equal to the bound.
    AtLeast(f64),
}

impl Floor {
    /// Whether `value` clears this floor.
    fn clears(self, value: f64) -> bool {
        match self {
            Floor::Above(bound) => value > bound,
            Floor::AtLeast(bound) => value >= bound,
        }
    }
}

/// One measured value of an attempt and the floor it must clear.
#[derive(Debug)]
struct Check {
    /// What was measured, with the raw numbers behind `value`.
    what: String,
    /// The measured ratio (or count).
    value: f64,
    /// The floor `value` must clear.
    floor: Floor,
}

impl Check {
    /// The ratio `slow / fast` of two named wall times in microseconds.
    fn ratio(name: &str, (s, s_us): (&str, u64), (f, f_us): (&str, u64), floor: Floor) -> Self {
        let what = format!("{name}: {s} {s_us} us vs {f} {f_us} us");
        let value = s_us as f64 / f_us.max(1) as f64;
        Check { what, value, floor }
    }
}

/// One attempt of a race.
#[derive(Debug)]
struct Attempt {
    /// The checks, all of which must clear within this one attempt.
    checks: Vec<Check>,
    /// The fast arm's wall time in microseconds, for a banded race.
    absolute_us: Option<u64>,
}

/// The best-of verdict over `attempts`: one attempt cleared all of its
/// checks, and, for a banded race, the lowest absolute time is at most
/// 1.5 × `committed_us`.
fn passes(attempts: &[Attempt], committed_us: Option<u64>) -> bool {
    let floors = attempts
        .iter()
        .any(|a| a.checks.iter().all(|c| c.floor.clears(c.value)));
    let best_us = attempts.iter().filter_map(|a| a.absolute_us).min();
    floors && committed_us.is_none_or(|c| best_us.is_some_and(|best| best * 2 <= c * 3))
}

/// Why a race could not be trusted.
#[derive(Debug)]
pub enum RaceError {
    /// The two arms disagreed on their result.
    Identity(String),
    /// Generating, writing or mining a store failed.
    Setup(String),
}

impl fmt::Display for RaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceError::Identity(d) => write!(f, "results differ: {d}"),
            RaceError::Setup(d) => write!(f, "setup failed: {d}"),
        }
    }
}

impl<E: std::error::Error> From<E> for RaceError {
    fn from(e: E) -> Self {
        RaceError::Setup(e.to_string())
    }
}

/// Runs up to `attempts` attempts, printing each check, and stops as soon
/// as the race passes. An attempt's error ends the race.
fn run_race(
    attempts: usize,
    committed_us: Option<u64>,
    mut attempt: impl FnMut() -> Result<Attempt, RaceError>,
) -> Result<bool, RaceError> {
    let mut done = Vec::new();
    while done.len() < attempts && !passes(&done, committed_us) {
        let a = attempt()?;
        let n = done.len() + 1;
        for Check { what, value, floor } in &a.checks {
            println!("    attempt {n}: {what} -> {value:.2} (floor {floor:?})");
        }
        done.push(a);
    }
    let best_us = done.iter().filter_map(|a| a.absolute_us).min();
    if let (Some(best), Some(c)) = (best_us, committed_us) {
        println!("    band: best {best} us vs committed {c} us (+50% allowed)");
    }
    Ok(passes(&done, committed_us))
}

/// The committed points the bands measure against, in microseconds.
#[derive(Debug)]
pub struct Baseline {
    /// Summed vertical derive over the dense sweep.
    vertical_derive_us: u64,
    /// Summed wide-kernel derive over the noisy wide sweep.
    wide_derive_us: u64,
    /// Median incremental re-mine after one appended segment.
    incremental_median_us: u64,
}

impl Baseline {
    /// Parses a baseline file.
    fn parse(text: &str) -> Result<Baseline, RaceError> {
        let doc = Json::parse(text)?;
        let field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| RaceError::Setup(format!("baseline: missing {name}")))
        };
        Ok(Baseline {
            vertical_derive_us: field("vertical_derive_us")?,
            wide_derive_us: field("wide_derive_us")?,
            incremental_median_us: field("incremental_median_us")?,
        })
    }

    /// The committed `crates/bench/races-baseline.json`.
    pub fn committed() -> Result<Baseline, RaceError> {
        Baseline::parse(include_str!("../races-baseline.json"))
    }
}

/// The race workload class (paper §5.1 generator): period 30,
/// MAX-PAT-LENGTH 12, |F1| = 24, seed 11.
fn spec(length: usize) -> SyntheticSpec {
    let mut spec = SyntheticSpec::table1(length, 30, 12, 24);
    spec.seed = 11;
    spec
}

/// `series` with one spurious feature added at every instant with
/// probability 0.7. At min-conf 0.55 or 0.6 each of its `period` letters
/// is frequent, so nearly every segment projects to its own distinct hit:
/// the vertical index is as wide as one column per segment, the worst
/// case for counting over distinct hits.
fn noisy(series: &FeatureSeries) -> FeatureSeries {
    let spurious = series.max_feature_id().map_or(0, |f| f.raw() + 1);
    add_spurious(series, &[FeatureId::from_raw(spurious)], 0.7, 11)
}

/// One race workload: a generated series, its text, and the columnar
/// twin of that text. The twin is written from a parse of the text, so
/// its catalog interns features in the order a text parse does.
struct Workload {
    series: FeatureSeries,
    txt: PathBuf,
    ppmc: PathBuf,
}

impl Workload {
    /// Generates `length` instants of the race workload class and writes
    /// `name.txt` and `name.ppmc` under `dir`.
    fn generate(dir: &Path, name: &str, length: usize) -> Result<Workload, RaceError> {
        let data = spec(length).generate();
        let text = render_series(&data.series, &data.catalog);
        let txt = dir.join(format!("{name}.txt"));
        std::fs::write(&txt, &text)?;
        let ppmc = dir.join(format!("{name}.ppmc"));
        let mut catalog = FeatureCatalog::new();
        write_columnar(&ppmc, &parse_series(&text, &mut catalog)?, &catalog)?;
        Ok(Workload {
            series: data.series,
            txt,
            ppmc,
        })
    }
}

/// An identity failure unless `same`.
fn identity(same: bool, detail: impl FnOnce() -> String) -> Result<(), RaceError> {
    if same {
        Ok(())
    } else {
        Err(RaceError::Identity(detail()))
    }
}

/// A text parse + encode and a columnar open hold the same bits.
fn same_encoding(a: EncodedSeriesView<'_>, b: EncodedSeriesView<'_>) -> Result<(), RaceError> {
    let same = a.len() == b.len()
        && a.width() == b.width()
        && (0..a.len()).all(|t| a.instant_words(t) == b.instant_words(t));
    identity(same, || {
        "the text does not encode bit-identically to the columnar store".into()
    })
}

/// Two arms mined the same periods to the same frequent sets and, when
/// `stats` is set (two kernels of one engine), the same statistics.
fn same_results(
    arms: &str,
    a: &[MiningResult],
    b: &[MiningResult],
    stats: bool,
) -> Result<(), RaceError> {
    let periods = |rs: &[MiningResult]| rs.iter().map(|r| r.period).collect::<Vec<_>>();
    let (pa, pb) = (periods(a), periods(b));
    identity(pa == pb, || {
        format!("{arms} mined periods {pa:?} vs {pb:?}")
    })?;
    for (x, y) in a.iter().zip(b) {
        let same = x.frequent == y.frequent && (!stats || x.stats == y.stats);
        identity(same, || {
            let (period, nx, ny) = (x.period, x.len(), y.len());
            format!("{arms} disagree at period {period} ({nx} vs {ny} patterns)")
        })?;
    }
    Ok(())
}

/// Alphabet-order-independent equality of an incremental state and a cold
/// mine: same segment count, same number of patterns, and every pattern
/// found in `cold` (by its symbolic form) with the same count.
fn same_patterns(incremental: &MiningResult, cold: &MiningResult) -> Result<(), RaceError> {
    let same = incremental.segment_count == cold.segment_count
        && incremental.frequent.len() == cold.frequent.len()
        && incremental
            .patterns()
            .all(|(pattern, count, _)| cold.count_of(&pattern) == Some(count));
    let (ni, nc) = (incremental.len(), cold.len());
    identity(same, || {
        format!("incremental state ({ni} patterns) differs from the cold mine ({nc} patterns)")
    })
}

/// Runs `f` with a fresh collector installed on this thread.
fn observed<T>(f: impl FnOnce() -> T) -> (T, Arc<Collector>) {
    let collector = Arc::new(Collector::new());
    let out = {
        let _guard = ppm_observe::install(collector.clone());
        f()
    };
    (out, collector)
}

/// Summed wall time of the finished spans called `name`.
fn span_us(collector: &Collector, name: &str) -> u64 {
    aggregate_phases(&collector.events())
        .iter()
        .find(|p| p.name == name)
        .map_or(0, |p| p.total_us)
}

/// Microseconds since `start`, at least 1.
fn us_since(start: Instant) -> u64 {
    (start.elapsed().as_micros() as u64).max(1)
}

/// The vertical engine against the paper's per-candidate tree walk
/// ([`CountStrategy::TreeWalk`]) on every period of `range`: summed
/// `hitset.derive` over summed `vertical.derive`, floor > 1. The absolute
/// time is the vertical derive.
fn vertical_vs_treewalk(
    view: EncodedSeriesView<'_>,
    range: PeriodRange,
    config: &MineConfig,
) -> Result<Attempt, RaceError> {
    let (arms, collector) = observed(|| {
        let (mut vertical, mut tree) = (Vec::new(), Vec::new());
        for period in range.iter().filter(|&p| p <= view.len()) {
            vertical.push(ppm_core::run(Engine::Vertical, view, period, config)?);
            let walk = CountStrategy::TreeWalk;
            tree.push(hitset::mine_with_strategy(view, period, config, walk)?);
        }
        Ok::<_, RaceError>((vertical, tree))
    });
    let (vertical, tree) = arms?;
    same_results("vertical and tree walk", &vertical, &tree, false)?;
    let vertical_us = span_us(&collector, "vertical.derive");
    Ok(Attempt {
        checks: vec![Check::ratio(
            "derive",
            ("tree walk", span_us(&collector, "hitset.derive")),
            ("vertical", vertical_us),
            Floor::Above(1.0),
        )],
        absolute_us: Some(vertical_us),
    })
}

/// Two checks on a columnar store and its text twin, cleared together:
/// text read + parse + encode over [`ColumnarReader::open`] (best of 3
/// each, bit-identical encodings), floor 4.5; and a sequential load + mine
/// per period over [`mine_periods_scheduled`] on the opened store, floor 2.
fn ingest_and_scheduler(
    text_path: &Path,
    ppmc_path: &Path,
    range: PeriodRange,
    config: &MineConfig,
    workers: usize,
) -> Result<Attempt, RaceError> {
    let (mut text_us, mut columnar_us) = (u64::MAX, u64::MAX);
    let (mut encoded, mut reader) = (None, None);
    // Each round's result is dropped outside the timed region.
    for _ in 0..3 {
        let start = Instant::now();
        let text = std::fs::read_to_string(text_path)?;
        let round = EncodedSeries::encode(&parse_series(&text, &mut FeatureCatalog::new())?);
        text_us = text_us.min(us_since(start));
        encoded = Some(round);
    }
    for _ in 0..3 {
        let start = Instant::now();
        let round = ColumnarReader::open(ppmc_path)?;
        columnar_us = columnar_us.min(us_since(start));
        reader = Some(round);
    }
    let (encoded, reader) = (encoded.expect("ran"), reader.expect("ran"));
    same_encoding(encoded.view(), reader.view())?;

    let start = Instant::now();
    let scheduled =
        mine_periods_scheduled(reader.view(), range, config, Engine::Vertical, workers)?;
    let scheduler_us = us_since(start);
    let start = Instant::now();
    let mut sequential = Vec::new();
    for period in range.iter() {
        let series = ColumnarReader::open(ppmc_path)?.to_series();
        if period <= series.len() {
            sequential.push(ppm_core::run(Engine::Vertical, &series, period, config)?);
        }
    }
    let sequential_us = us_since(start);
    same_results(
        "scheduler and sequential",
        &scheduled.results,
        &sequential,
        false,
    )?;
    Ok(Attempt {
        checks: vec![
            Check::ratio(
                "ingest",
                ("text parse+encode", text_us),
                ("columnar open", columnar_us),
                Floor::AtLeast(4.5),
            ),
            Check::ratio(
                "sweep",
                ("sequential load+mine", sequential_us),
                (&format!("scheduler ({workers} workers)"), scheduler_us),
                Floor::AtLeast(2.0),
            ),
        ],
        absolute_us: None,
    })
}

/// The scalar kernel against the wide kernel on the `noisy` store: per
/// period each arm mines twice and keeps its faster `vertical.derive`;
/// scalar over wide summed, floor 2. The absolute time is the wide arm's.
/// The `clean` store, whose segments repeat a few thousand distinct hits,
/// is an identity arm only: both kernels must mine it to the same result.
fn scalar_vs_wide(
    noisy: EncodedSeriesView<'_>,
    clean: EncodedSeriesView<'_>,
    range: PeriodRange,
    config: &MineConfig,
) -> Result<Attempt, RaceError> {
    let scalar_config = config.with_kernel(Kernel::Scalar);
    let (mut scalar, mut wide) = (Vec::new(), Vec::new());
    for period in range.iter().filter(|&p| p <= clean.len()) {
        scalar.push(ppm_core::run(
            Engine::Vertical,
            clean,
            period,
            &scalar_config,
        )?);
        wide.push(ppm_core::run(Engine::Vertical, clean, period, config)?);
    }
    same_results("scalar and wide (clean)", &scalar, &wide, true)?;
    let arm = |config: &MineConfig, period: usize| {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let (result, c) = observed(|| ppm_core::run(Engine::Vertical, noisy, period, config));
            runs.push((result?, span_us(&c, "vertical.derive")));
        }
        Ok::<_, RaceError>(runs.into_iter().min_by_key(|r| r.1).expect("ran"))
    };
    let (mut scalar, mut wide) = (Vec::new(), Vec::new());
    let (mut scalar_us, mut wide_us) = (0, 0);
    for period in range.iter().filter(|&p| p <= noisy.len()) {
        let (result, us) = arm(&scalar_config, period)?;
        scalar.push(result);
        scalar_us += us;
        let (result, us) = arm(config, period)?;
        wide.push(result);
        wide_us += us;
    }
    same_results("scalar and wide", &scalar, &wide, true)?;
    Ok(Attempt {
        checks: vec![Check::ratio(
            "derive",
            ("scalar", scalar_us),
            ("wide", wide_us),
            Floor::AtLeast(2.0),
        )],
        absolute_us: Some(wide_us),
    })
}

/// The append path: an [`IncrementalVerticalIndex`] warmed over all but
/// the last `appends` segments, then fed them one by one with a timed
/// re-mine after each, against one cold mine of the final state, which the
/// last re-mine must equal. Cold over the median re-mine, floor 25; the
/// median is the absolute time.
fn incremental_vs_cold(
    view: EncodedSeriesView<'_>,
    period: usize,
    config: &MineConfig,
    appends: usize,
) -> Result<Attempt, RaceError> {
    let m = view.len() / period;
    if appends == 0 || m <= appends {
        return Err(RaceError::Setup(format!(
            "{appends} appends need a warm prefix; the store holds {m} segments"
        )));
    }
    let start = Instant::now();
    let cold = ppm_core::vertical::mine_vertical_view(view, period, config)?;
    let cold_us = us_since(start);
    let mut index = IncrementalVerticalIndex::new(period, None);
    for segment in 0..m - appends {
        index.append_from_view(view, segment);
    }
    let mut last = index.rederive_dirty(config)?;
    let mut times_us = Vec::new();
    for segment in m - appends..m {
        index.append_from_view(view, segment);
        let start = Instant::now();
        last = index.rederive_dirty(config)?;
        times_us.push(us_since(start));
    }
    same_patterns(&last, &cold)?;
    times_us.sort_unstable();
    let median_us = times_us[appends / 2];
    Ok(Attempt {
        checks: vec![Check::ratio(
            &format!("re-mine after each of {appends} appends"),
            ("cold", cold_us),
            ("incremental median", median_us),
            Floor::AtLeast(25.0),
        )],
        absolute_us: Some(median_us),
    })
}

/// Runs every race against `baseline` on workloads it writes under `dir`
/// (60 000 dense and 1.6M wide instants, plus the wide series made
/// `noisy`), with the attempt counts 3, 3, 4, 3, printing each
/// attempt and verdict. Each series is dropped once
/// its races are done, so later races run in a smaller heap. Returns
/// whether all of them passed.
pub fn run_all(dir: &Path, baseline: &Baseline) -> Result<bool, RaceError> {
    let conf = |c: f64| MineConfig::new(c).map_err(RaceError::from);
    let mut all_passed = true;
    let mut race = |name: &str,
                    attempts: usize,
                    committed_us: Option<u64>,
                    attempt: &mut dyn FnMut() -> Result<Attempt, RaceError>| {
        println!("==> {name}");
        let outcome = run_race(attempts, committed_us, attempt);
        all_passed &= matches!(outcome, Ok(true));
        match outcome {
            Ok(true) => println!("    PASS"),
            Ok(false) => println!("    FAIL: a floor or the band missed on every attempt"),
            Err(e) => println!("    FAIL: {e}"),
        }
    };

    let dense = Workload::generate(dir, "dense", 60_000)?;
    let encoded = EncodedSeries::encode(&dense.series);
    race(
        "vertical derive vs the tree walk (dense, periods 28..=32)",
        3,
        Some(baseline.vertical_derive_us),
        &mut || vertical_vs_treewalk(encoded.view(), PeriodRange::new(28, 32)?, &conf(0.35)?),
    );
    drop(encoded);
    race(
        "text ingest vs columnar open; sequential vs scheduled sweep (dense, periods 30..=39)",
        3,
        None,
        &mut || {
            let range = PeriodRange::new(30, 39)?;
            ingest_and_scheduler(&dense.txt, &dense.ppmc, range, &conf(0.6)?, 8)
        },
    );
    drop(dense);
    let wide = Workload::generate(dir, "wide", 1_600_000)?;
    let noise = EncodedSeries::encode(&noisy(&wide.series));
    let encoded = EncodedSeries::encode(&wide.series);
    drop(wide.series);
    race(
        "scalar vs wide kernel (noisy wide, periods 28..=32; clean wide identity)",
        4,
        Some(baseline.wide_derive_us),
        &mut || {
            let range = PeriodRange::new(28, 32)?;
            scalar_vs_wide(noise.view(), encoded.view(), range, &conf(0.55)?)
        },
    );
    drop(encoded);
    drop(noise);
    let reader = ColumnarReader::open(&wide.ppmc)?;
    race(
        "incremental re-mine vs cold (wide, period 30, 100 appends)",
        3,
        Some(baseline.incremental_median_us),
        &mut || incremental_vs_cold(reader.view(), 30, &conf(0.6)?, 100),
    );
    Ok(all_passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attempt(values: &[f64], floor: Floor, absolute_us: Option<u64>) -> Attempt {
        let checks = values.iter().map(|&value| Check {
            what: String::new(),
            value,
            floor,
        });
        Attempt {
            checks: checks.collect(),
            absolute_us,
        }
    }

    #[test]
    fn floors_bound_strictly_or_inclusively() {
        assert!(!Floor::Above(1.0).clears(1.0) && Floor::Above(1.0).clears(1.001));
        assert!(Floor::AtLeast(4.5).clears(4.5) && !Floor::AtLeast(4.5).clears(4.49));
        let c = Check::ratio("x", ("slow", 900), ("fast", 200), Floor::AtLeast(4.5));
        assert_eq!(c.value, 4.5);
        assert_eq!(
            Check::ratio("x", ("a", 5), ("b", 0), Floor::Above(1.0)).value,
            5.0
        );
    }

    #[test]
    fn one_attempt_must_clear_all_its_checks() {
        let f = Floor::AtLeast(2.0);
        let split = [attempt(&[3.0, 1.0], f, None), attempt(&[1.0, 3.0], f, None)];
        assert!(!passes(&split, None));
        let joint = [attempt(&[1.0, 1.0], f, None), attempt(&[2.0, 2.5], f, None)];
        assert!(passes(&joint, None));
    }

    #[test]
    fn the_band_holds_the_best_attempt_to_half_again_the_committed_point() {
        let f = Floor::Above(1.0);
        // 469 × 1.5 = 703.5: 703 is inside, 704 is not.
        let inside = [
            attempt(&[30.0], f, Some(900)),
            attempt(&[30.0], f, Some(703)),
        ];
        assert!(passes(&inside, Some(469)));
        assert!(!passes(&[attempt(&[30.0], f, Some(704))], Some(469)));
        // A fast arm does not rescue a missed floor.
        assert!(!passes(&[attempt(&[0.5], f, Some(10))], Some(469)));
    }

    #[test]
    fn races_stop_at_the_first_pass_and_at_the_first_error() {
        let f = Floor::AtLeast(2.0);
        let mut values = [1.0, 2.5, 9.0].into_iter();
        let mut calls = 0;
        let next = || {
            calls += 1;
            Ok(attempt(&[values.next().unwrap()], f, None))
        };
        assert!(run_race(3, None, next).unwrap());
        assert_eq!(calls, 2);
        // Out of band on every attempt: all 4 attempts run, then it fails.
        let mut calls = 0;
        let slow = || {
            calls += 1;
            Ok(attempt(&[3.0], f, Some(151)))
        };
        assert!(!run_race(4, Some(100), slow).unwrap());
        assert_eq!(calls, 4);
        let mut calls = 0;
        let differ = || {
            calls += 1;
            Err(RaceError::Identity("arms differ".into()))
        };
        let outcome = run_race(3, None, differ);
        assert!(matches!(outcome, Err(RaceError::Identity(_))));
        assert_eq!(calls, 1);
    }

    #[test]
    fn the_committed_baseline_holds_the_gated_points() {
        let b = Baseline::committed().unwrap();
        assert_eq!(
            (
                b.vertical_derive_us,
                b.wide_derive_us,
                b.incremental_median_us
            ),
            (38_632, 274_274, 469)
        );
        assert!(Baseline::parse("{\"vertical_derive_us\": 1}").is_err());
    }

    /// Every race's identity check turns a wrong arm into an error.
    #[test]
    fn identity_checks_reject_a_wrong_arm() {
        let data = spec(6_000).generate();
        let encoded = EncodedSeries::encode(&data.series);
        let config = MineConfig::new(0.6).unwrap();
        let right = ppm_core::run(Engine::Vertical, encoded.view(), 30, &config).unwrap();
        let mut wrong = right.clone();
        wrong.frequent.last_mut().unwrap().count += 1;
        let mut other_stats = right.clone();
        other_stats.stats.series_scans += 1;
        let mut other_period = right.clone();
        other_period.period = 31;
        let r = std::slice::from_ref(&right);
        let shorter = EncodedSeries::encode(&spec(5_970).generate().series);
        for outcome in [
            same_results("arms", r, std::slice::from_ref(&wrong), false),
            same_results("arms", r, std::slice::from_ref(&other_stats), true),
            same_results("arms", r, std::slice::from_ref(&other_period), false),
            same_results("arms", r, &[], false),
            same_patterns(&wrong, &right),
            same_encoding(encoded.view(), shorter.view()),
        ] {
            assert!(
                matches!(outcome, Err(RaceError::Identity(_))),
                "{outcome:?}"
            );
        }
        assert!(same_results("arms", r, r, true).is_ok());
        assert!(same_results("arms", r, std::slice::from_ref(&other_stats), false).is_ok());
        assert!(same_patterns(&right, &right).is_ok());
        assert!(same_encoding(encoded.view(), encoded.view()).is_ok());
    }

    #[test]
    fn every_race_runs_end_to_end_on_small_stores() {
        let dir = std::env::temp_dir().join(format!("ppm-races-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let small = Workload::generate(&dir, "dense", 6_000).unwrap();
        let wide_series = spec(12_000).generate().series;
        let (dense, wide, noise) = (
            EncodedSeries::encode(&small.series),
            EncodedSeries::encode(&wide_series),
            EncodedSeries::encode(&noisy(&wide_series)),
        );
        let (c35, c6) = (
            MineConfig::new(0.35).unwrap(),
            MineConfig::new(0.6).unwrap(),
        );
        let range = PeriodRange::new(29, 31).unwrap();
        let a = vertical_vs_treewalk(dense.view(), range, &c35).unwrap();
        assert!(a.checks.len() == 1 && a.absolute_us.unwrap() >= 1);
        let a = ingest_and_scheduler(&small.txt, &small.ppmc, range, &c6, 2);
        assert_eq!(a.unwrap().checks.len(), 2);
        // A columnar file written straight from the generator interns its
        // features in another order than a text parse: not the text's twin.
        let foreign = dir.join("foreign.ppmc");
        let data = spec(6_000).generate();
        write_columnar(&foreign, &data.series, &data.catalog).unwrap();
        let a = ingest_and_scheduler(&small.txt, &foreign, range, &c6, 2);
        assert!(matches!(a, Err(RaceError::Identity(_))), "{a:?}");
        let a = scalar_vs_wide(noise.view(), wide.view(), range, &c6).unwrap();
        assert!(a.checks.len() == 1 && a.absolute_us.unwrap() >= 1);
        let a = incremental_vs_cold(wide.view(), 30, &c6, 10).unwrap();
        assert!(a.absolute_us.unwrap() >= 1);
        assert!(incremental_vs_cold(wide.view(), 30, &c6, 400).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
