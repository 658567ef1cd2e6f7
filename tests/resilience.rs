//! End-to-end resilience: fault injection, retries, and recovery.
//!
//! The headline scenario: the hit-set engine (Alg 3.2, two physical
//! passes) over a disk source whose second scan fails transiently must,
//! when wrapped in a retrier, produce a `MiningResult` bit-identical to
//! the fault-free run — same patterns, same counts, same statistics.

use partial_periodic::core::Error;
use partial_periodic::timeseries::retry::with_retries;
use partial_periodic::timeseries::storage::stream::{FileSource, StreamWriter};
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

fn temp(tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ppm-int-resilience-{}-{tag}-{}.ppmstream",
        std::process::id(),
        N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ))
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
    let path = temp("recover");
    StreamWriter::create(&path, &FeatureCatalog::new())
        .and_then(|w| w.write_series(&series))
        .unwrap();

    // Fault-free baseline over the same file.
    let mut clean = FileSource::open(&path).unwrap();
    let expect = run(Engine::HitSet, &mut clean, 6, &config).unwrap();
    assert!(!expect.is_empty(), "baseline must find patterns");
    assert_eq!(expect.stats.series_scans, 2);

    // The faulty run: physical attempt 1 (the first try of logical scan 2)
    // delivers 250 instants, then dies with a transient I/O error.
    let plan = FaultPlan::new().fail_scan(1, Fault::ShortRead { instants: 250 });
    let faulty = FaultInjectingSource::new(FileSource::open(&path).unwrap(), plan);
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
    let plan = FaultPlan::new()
        .fail_scan(0, Fault::TransientIo)
        .fail_scan(1, Fault::TransientIo)
        .fail_scan(2, Fault::TransientIo);
    let faulty = FaultInjectingSource::new(MemorySource::new(&series), plan);
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
}

/// Fatal damage (truncation) must not be retried: one attempt, typed error.
#[test]
fn truncation_fails_fast_through_the_retrier() {
    let series = busy_series(120);
    let plan = FaultPlan::new().fail_scan(0, Fault::Truncate { instants: 30 });
    let faulty = FaultInjectingSource::new(MemorySource::new(&series), plan);
    let mut src = with_retries(faulty, 5);

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
    let plan = FaultPlan::new().fail_scan(1, Fault::TransientIo);
    let faulty = FaultInjectingSource::new(MemorySource::new(&series), plan);
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
}

/// The threat the storage checksums exist for: a bit flip *past* the
/// checksum layer is silent — the scan succeeds and the damage shows up
/// only as different mining output. This documents why `FileSource`
/// re-verifies its trailer on every scan.
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

/// Bit-flip fuzz over a whole `.ppmstream` file: every single-bit
/// corruption is either rejected with a typed error at open/materialize
/// time or provably harmless — when the scan succeeds, the series read
/// back must equal the original instant for instant. (Feature *names* in
/// the catalog are the only payload bytes the record and trailer
/// checksums do not cover, and they cannot change which ids each instant
/// carries.) Never a panic, never silently different data.
#[test]
fn stream_bit_flip_fuzz_is_rejected_or_harmless() {
    let series = busy_series(48);
    let path = temp("bitflip");
    StreamWriter::create(&path, &FeatureCatalog::new())
        .and_then(|w| w.write_series(&series))
        .unwrap();
    let pristine = std::fs::read(&path).unwrap();

    let mut rejected = 0usize;
    let mut survived = 0usize;
    for pos in 0..pristine.len() {
        for mask in [0x01u8, 0x80] {
            let mut bytes = pristine.clone();
            bytes[pos] ^= mask;
            std::fs::write(&path, &bytes).unwrap();
            match FileSource::open(&path).and_then(|s| s.materialize()) {
                Err(_) => rejected += 1,
                Ok(read_back) => {
                    survived += 1;
                    assert_eq!(
                        read_back, series,
                        "byte {pos} mask {mask:#04x} changed the data without an error"
                    );
                }
            }
        }
    }
    assert!(
        rejected > survived,
        "checksums should reject most flips ({rejected} rejected, {survived} survived)"
    );
    std::fs::remove_file(path).ok();
}

/// Truncation fuzz: every prefix of a `.ppmstream` file either fails with
/// a typed error (the trailer is gone, so a full-integrity open must
/// refuse) — or is the intact whole file. Salvage, by contrast, recovers
/// exactly the valid record prefix from any cut point past the catalog.
#[test]
fn stream_truncation_fuzz_salvages_a_true_prefix() {
    use partial_periodic::timeseries::storage::stream::salvage_series;

    let series = busy_series(48);
    let path = temp("truncate");
    StreamWriter::create(&path, &FeatureCatalog::new())
        .and_then(|w| w.write_series(&series))
        .unwrap();
    let pristine = std::fs::read(&path).unwrap();

    for cut in 0..pristine.len() {
        std::fs::write(&path, &pristine[..cut]).unwrap();

        // A full-integrity open must never accept a truncated file.
        assert!(
            FileSource::open(&path)
                .and_then(|s| s.materialize())
                .is_err(),
            "cut at {cut}/{} accepted",
            pristine.len()
        );

        // Salvage never panics; whatever it recovers is a true prefix.
        if let Ok((recovered, _, report)) = salvage_series(&path) {
            assert!(recovered.len() <= series.len(), "cut {cut}");
            for t in 0..recovered.len() {
                assert_eq!(
                    recovered.instant(t),
                    series.instant(t),
                    "cut {cut}: salvaged instant {t} differs from the original"
                );
            }
            assert_eq!(report.recovered_instants, recovered.len());
        }
    }
    std::fs::remove_file(path).ok();
}
