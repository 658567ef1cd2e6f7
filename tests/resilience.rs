//! End-to-end resilience: fault injection, retries, and recovery.
//!
//! The headline scenario: the hit-set engine (Alg 3.2, two physical
//! passes) over a `.ppmc` store streamed from disk whose second scan fails
//! transiently must, when wrapped in a retrier, produce a `MiningResult`
//! bit-identical to the fault-free run — same patterns, same counts, same
//! statistics.

use std::path::{Path, PathBuf};

use partial_periodic::core::Error;
use partial_periodic::timeseries::columnar::{write_columnar, ColumnarAppender, ColumnarSource};
use partial_periodic::timeseries::retry::with_retries;
use partial_periodic::timeseries::{
    Fault, FaultInjectingSource, FaultPlan, MemorySource, SeriesSource,
};
use partial_periodic::{
    hitset, run, Engine, FeatureCatalog, FeatureId, FeatureSeries, MineConfig, MiningResult,
    SeriesBuilder,
};

fn fid(i: u32) -> FeatureId {
    FeatureId::from_raw(i)
}

fn temp(tag: &str) -> PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ppm-int-resilience-{}-{tag}-{}.ppmc",
        std::process::id(),
        N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ))
}

/// Writes `series` (features 0..4) to a fresh `.ppmc` store.
fn store(series: &FeatureSeries, tag: &str) -> PathBuf {
    let path = temp(tag);
    write_columnar(&path, series, &FeatureCatalog::with_synthetic_features(4)).unwrap();
    path
}

/// Where a fresh store's rows start: they are its last bytes.
fn rows_at(path: &Path, series: &FeatureSeries) -> usize {
    std::fs::metadata(path).unwrap().len() as usize - series.len() * 8
}

/// A source that runs `between` once, after its first scan and before its
/// second: the moment a two-scan mine is in flight.
struct BetweenScans<S, F> {
    inner: S,
    between: Option<F>,
}

impl<S: SeriesSource, F: FnOnce()> SeriesSource for BetweenScans<S, F> {
    fn instant_count(&self) -> usize {
        self.inner.instant_count()
    }

    fn width(&self) -> usize {
        self.inner.width()
    }

    fn scan(
        &mut self,
        visit: &mut dyn FnMut(usize, &[FeatureId]),
    ) -> partial_periodic::timeseries::Result<()> {
        if self.inner.scans_performed() == 1 {
            if let Some(between) = self.between.take() {
                between();
            }
        }
        self.inner.scan(visit)
    }

    fn scans_performed(&self) -> usize {
        self.inner.scans_performed()
    }
}

/// A deterministic "busy" series: a planted period-6 pattern plus
/// coin-flip noise features, so the max-subpattern tree actually grows.
fn busy_series(instants: usize) -> FeatureSeries {
    let mut b = SeriesBuilder::new();
    let mut x = 42u64;
    let mut coin = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        (x >> 33).is_multiple_of(2)
    };
    for t in 0..instants {
        let mut feats = Vec::new();
        if t % 6 == 0 {
            feats.push(fid(0));
        }
        if t % 6 == 2 && (t / 6) % 3 != 0 {
            feats.push(fid(1));
        }
        if coin() {
            feats.push(fid(2));
        }
        if coin() {
            feats.push(fid(3));
        }
        b.push_instant(feats);
    }
    b.finish()
}

fn assert_bit_identical(a: &MiningResult, b: &MiningResult) {
    assert_eq!(a.period, b.period);
    assert_eq!(a.segment_count, b.segment_count);
    assert_eq!(a.min_count, b.min_count);
    assert_eq!(a.alphabet, b.alphabet);
    assert_eq!(a.frequent, b.frequent);
    assert_eq!(a.stats, b.stats, "statistics must match a fault-free run");
}

/// The acceptance scenario: scan 2 of a disk mine fails transiently
/// (a short read mid-pass); the retrier re-scans and the result —
/// including `series_scans` — is bit-identical to the fault-free run.
#[test]
fn transient_scan2_failure_recovers_bit_identically() {
    let series = busy_series(600);
    let config = MineConfig::new(0.5).unwrap();
    let path = store(&series, "recover");

    // Fault-free baseline over the same file.
    let mut clean = ColumnarSource::open(&path).unwrap();
    let expect = run(Engine::HitSet, &mut clean, 6, &config).unwrap();
    assert!(!expect.is_empty(), "baseline must find patterns");
    assert_eq!(expect.stats.series_scans, 2);

    // The faulty run: physical attempt 1 (the first try of logical scan 2)
    // delivers 250 instants, then dies with a transient I/O error.
    let plan = FaultPlan::new().fail_scan(1, Fault::ShortRead { instants: 250 });
    let faulty = FaultInjectingSource::new(ColumnarSource::open(&path).unwrap(), plan);
    let mut src = with_retries(faulty, 3);
    let got = run(Engine::HitSet, &mut src, 6, &config).unwrap();

    assert_bit_identical(&expect, &got);
    assert_eq!(src.retries(), 1);
    assert_eq!(src.inner().faults_injected(), 1);
    assert_eq!(
        src.inner().attempts(),
        3,
        "scan 1 + failed scan 2 + replayed scan 2"
    );
    std::fs::remove_file(path).ok();
}

/// Both physical passes hiccup — scan 1 dies immediately, scan 2 short
/// reads — and the mine still matches the in-memory result exactly.
#[test]
fn faults_on_both_scans_recover_and_match_memory_mining() {
    let series = busy_series(480);
    let config = MineConfig::new(0.4).unwrap();
    let expect = hitset::mine(&series, 6, &config).unwrap();

    let plan = FaultPlan::new()
        .fail_scan(0, Fault::TransientIo)
        .fail_scan(2, Fault::ShortRead { instants: 100 });
    let faulty = FaultInjectingSource::new(MemorySource::new(&series), plan);
    let mut src = with_retries(faulty, 3);
    let got = run(Engine::HitSet, &mut src, 6, &config).unwrap();

    assert_bit_identical(&expect, &got);
    assert_eq!(src.inner().attempts(), 4, "two logical scans, two retries");
    assert_eq!(src.retries(), 2);
}

/// When every attempt fails, the retrier surfaces the transient error with
/// honest bookkeeping: the policy's full attempt budget spent, zero
/// logical scans completed.
#[test]
fn retry_exhaustion_reports_attempt_counts() {
    let series = busy_series(120);
    let path = store(&series, "exhaust");
    let plan = FaultPlan::new()
        .fail_scan(0, Fault::TransientIo)
        .fail_scan(1, Fault::TransientIo)
        .fail_scan(2, Fault::TransientIo);
    let faulty = FaultInjectingSource::new(ColumnarSource::open(&path).unwrap(), plan);
    let mut src = with_retries(faulty, 3);

    let config = MineConfig::new(0.5).unwrap();
    let err = run(Engine::HitSet, &mut src, 6, &config).unwrap_err();
    assert!(
        matches!(err, Error::Series(ref e) if e.is_transient()),
        "{err}"
    );
    assert_eq!(
        src.attempts(),
        3,
        "all three attempts spent on logical scan 1"
    );
    assert_eq!(src.scans_performed(), 0, "no logical scan completed");
    std::fs::remove_file(path).ok();
}

/// Fatal damage must not be retried: a store cut short after it was
/// opened fails its scan in one attempt with the typed error.
#[test]
fn truncation_fails_fast_through_the_retrier() {
    let series = busy_series(120);
    let path = store(&series, "cut");
    let mut src = with_retries(ColumnarSource::open(&path).unwrap(), 5);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 30 * 8]).unwrap();

    let config = MineConfig::new(0.5).unwrap();
    let err = run(Engine::HitSet, &mut src, 6, &config).unwrap_err();
    assert!(
        matches!(
            err,
            Error::Series(partial_periodic::timeseries::Error::Truncated { .. })
        ),
        "{err}"
    );
    assert_eq!(src.attempts(), 1, "fatal errors burn exactly one attempt");
    std::fs::remove_file(path).ok();
}

/// A committed row word flipped on disk between scan 1 and scan 2 fails
/// the mine with a corruption error that names scan 2; a retrier does not
/// retry it.
#[test]
fn a_row_flipped_between_scans_fails_the_mine_at_scan_2() {
    let series = busy_series(600);
    let path = store(&series, "flip-between");
    let flip = || {
        let mut bytes = std::fs::read(&path).unwrap();
        let at = rows_at(&path, &series) + 8 * 300;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
    };
    let source = BetweenScans {
        inner: ColumnarSource::open(&path).unwrap(),
        between: Some(flip),
    };
    let mut src = with_retries(source, 3);
    let err = run(Engine::HitSet, &mut src, 6, &MineConfig::new(0.5).unwrap()).unwrap_err();
    assert!(
        matches!(
            err,
            Error::Series(partial_periodic::timeseries::Error::Corrupt { .. })
        ),
        "{err}"
    );
    assert!(err.to_string().contains("on scan 2"), "{err}");
    assert_eq!(src.attempts(), 2, "scan 1, then one attempt at scan 2");
    std::fs::remove_file(&path).ok();
}

/// An append that lands between the scans of a mine grows the store, but
/// both scans read the rows committed when the source opened: the mine
/// equals the mine of the store before the append.
#[test]
fn an_append_between_scans_leaves_the_mine_on_the_old_rows() {
    let series = busy_series(600);
    let config = MineConfig::new(0.5).unwrap();
    let path = store(&series, "append-between");
    let append = || {
        let mut app = ColumnarAppender::open(&path).unwrap();
        for t in 0..60u32 {
            app.append_instant(&[fid(t % 4)]).unwrap();
        }
        app.finish().unwrap();
    };
    let mut src = BetweenScans {
        inner: ColumnarSource::open(&path).unwrap(),
        between: Some(append),
    };
    let got = run(Engine::HitSet, &mut src, 6, &config).unwrap();
    assert!(src.between.is_none(), "the append ran");
    assert_bit_identical(&hitset::mine(&series, 6, &config).unwrap(), &got);
    let grown = ColumnarSource::open(&path).unwrap();
    assert_eq!(grown.instant_count(), 660);
    std::fs::remove_file(&path).ok();
}

/// Period 0 and periods longer than the series are rejected up front, on
/// both the in-memory and the streaming paths, before any scan happens.
#[test]
fn invalid_periods_are_rejected_before_scanning() {
    let series = busy_series(60);
    let config = MineConfig::new(0.5).unwrap();

    for period in [0usize, 61, 1000] {
        let err = hitset::mine(&series, period, &config).unwrap_err();
        assert!(
            matches!(err, Error::InvalidPeriod { period: p, series_len: 60 } if p == period),
            "{err}"
        );

        let mut src = MemorySource::new(&series);
        let err = run(Engine::HitSet, &mut src, period, &config).unwrap_err();
        assert!(matches!(err, Error::InvalidPeriod { .. }), "{err}");
        assert_eq!(src.scans_performed(), 0, "validation precedes I/O");
    }
}

/// An empty series has no valid period at all.
#[test]
fn empty_series_cannot_be_mined() {
    let series = SeriesBuilder::new().finish();
    let err = hitset::mine(&series, 1, &MineConfig::new(0.5).unwrap()).unwrap_err();
    assert!(
        matches!(
            err,
            Error::InvalidPeriod {
                period: 1,
                series_len: 0
            }
        ),
        "{err}"
    );
}

/// The fault → retry → recovery sequence is visible through the
/// observability sink: the injected fault, the transient-error retry, and
/// the eventual recovery each emit a structured event, in that order, and
/// the mining result is unaffected by being observed.
#[test]
fn fault_retry_recovery_emits_ordered_events() {
    use partial_periodic::observe::{self, Collector, Event};
    use std::sync::Arc;

    let series = busy_series(240);
    let config = MineConfig::new(0.5).unwrap();
    let path = store(&series, "events");
    let plan = FaultPlan::new().fail_scan(1, Fault::TransientIo);
    let faulty = FaultInjectingSource::new(ColumnarSource::open(&path).unwrap(), plan);
    let mut src = with_retries(faulty, 3);

    let collector = Arc::new(Collector::new());
    let got = {
        let _guard = observe::install(collector.clone());
        run(Engine::HitSet, &mut src, 6, &config).unwrap()
    };

    let events = collector.events();
    let pos = |name: &str| {
        events
            .iter()
            .position(|e| matches!(e, Event::Mark { name: n, .. } if *n == name))
            .unwrap_or_else(|| panic!("no {name:?} mark in {events:?}"))
    };
    let fault = pos("fault.injected");
    let retry = pos("retry.transient_error");
    let recovered = pos("retry.recovered");
    assert!(
        fault < retry && retry < recovered,
        "expected fault ({fault}) before retry ({retry}) before recovery ({recovered})"
    );
    assert_eq!(collector.counter_total("faults.injected"), 1);
    assert_eq!(collector.counter_total("source.retries"), 1);

    // Observation must not perturb the mine itself.
    let expect = hitset::mine(&series, 6, &config).unwrap();
    assert_bit_identical(&expect, &got);
    std::fs::remove_file(path).ok();
}

/// The threat the storage checksums exist for: a bit flip *past* the
/// checksum layer is silent — the scan succeeds and the damage shows up
/// only as different mining output. This documents why `ColumnarSource`
/// re-verifies its checksum on every scan.
#[test]
fn silent_bit_flips_change_results_without_an_error() {
    let series = busy_series(600);
    let config = MineConfig::new(0.5).unwrap();
    let expect = hitset::mine(&series, 6, &config).unwrap();

    // Flip a bit in an instant that carries the planted pattern letter.
    let plan = FaultPlan::new()
        .fail_scan(0, Fault::BitFlip { instant: 0 })
        .fail_scan(1, Fault::BitFlip { instant: 0 });
    let mut src = FaultInjectingSource::new(MemorySource::new(&series), plan);
    let got = run(Engine::HitSet, &mut src, 6, &config).unwrap();

    assert_eq!(src.faults_injected(), 2);
    // The run "succeeds" — that is exactly the problem.
    assert!(
        got.frequent != expect.frequent || got.stats != expect.stats,
        "corruption must be observable in the output"
    );
}

/// Bit-flip fuzz over a whole `.ppmc` store opened as a disk source:
/// every single-byte flip inside the header (magic, version, widths,
/// catalog, padding) or the committed rows is rejected by the next scan
/// with a typed corruption error — never a panic, never silently
/// different data. The commit slots between them sit outside the
/// checksum; the open already chose its commit from them.
#[test]
fn every_header_or_row_byte_flip_is_rejected_by_the_next_scan() {
    let series = busy_series(48);
    let path = store(&series, "bitflip");
    let pristine = std::fs::read(&path).unwrap();
    let rows_at = rows_at(&path, &series);
    // The header ends where the two 4 KiB commit slots begin.
    let header = 0..rows_at - 2 * 4096;
    let mut src = ColumnarSource::open(&path).unwrap();
    let mut flips = 0;
    for pos in header.chain(rows_at..pristine.len()) {
        for mask in [0x01u8, 0x80] {
            let mut bytes = pristine.clone();
            bytes[pos] ^= mask;
            std::fs::write(&path, &bytes).unwrap();
            let err = src
                .scan(&mut |_, _| {})
                .expect_err(&format!("byte {pos} mask {mask:#04x} accepted"));
            assert!(
                matches!(err, partial_periodic::timeseries::Error::Corrupt { .. }),
                "byte {pos}: {err}"
            );
            flips += 1;
        }
    }
    assert!(flips > 2 * 48 * 8, "{flips} flips");
    std::fs::write(&path, &pristine).unwrap();
    src.scan(&mut |_, _| {}).unwrap();
    std::fs::remove_file(path).ok();
}

/// Truncation fuzz: a store cut at any byte does not open, and a source
/// opened before the cut fails its next scan with the typed truncation
/// error. No prefix of a store is ever mined.
#[test]
fn every_truncation_fails_the_open_or_the_next_scan() {
    let series = busy_series(48);
    let path = store(&series, "truncate");
    let pristine = std::fs::read(&path).unwrap();
    let mut src = ColumnarSource::open(&path).unwrap();
    for cut in 0..pristine.len() {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        assert!(
            ColumnarSource::open(&path).is_err(),
            "cut at {cut}/{} opened",
            pristine.len()
        );
        let err = src
            .scan(&mut |_, _| {})
            .expect_err(&format!("cut at {cut} scanned"));
        assert!(
            matches!(err, partial_periodic::timeseries::Error::Truncated { .. }),
            "cut at {cut}: {err}"
        );
    }
    std::fs::remove_file(path).ok();
}
