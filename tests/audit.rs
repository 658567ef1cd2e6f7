//! End-to-end verification: the invariant auditor, the differential
//! oracle, input quarantine, and claim verification over real mining runs.
//!
//! The auditor must be *sound* (a clean verdict on every honest run of
//! every engine) and *sensitive* (any single tampered count, dropped
//! pattern, or forged threshold is flagged). Both directions are exercised
//! here on seeded pseudo-random series.

use partial_periodic::audit::{audit, cross_check, verify_claims, AuditMode, Violation};
use partial_periodic::core::export::{parse_patterns_tsv, patterns_tsv};
use partial_periodic::datagen::noise::add_spurious;
use partial_periodic::timeseries::{
    EncodedSeries, Fault, FaultInjectingSource, FaultPlan, MemorySource, QuarantineMode,
    QuarantiningSource, SeriesSource,
};
use partial_periodic::vertical::mine_vertical;
use partial_periodic::{
    apriori, hitset, run, Engine, FeatureCatalog, FeatureId, FeatureSeries, Input, MineConfig,
    MiningResult, SeriesBuilder,
};

/// A seeded pseudo-random series with planted periodic structure (period
/// `p`: feature 0 at offset 0 always, feature 1 at offset 2 most segments)
/// plus coin-flip noise, so results are non-trivial but reproducible.
fn random_series(seed: u64, instants: usize, p: usize) -> (FeatureSeries, FeatureCatalog) {
    let mut catalog = FeatureCatalog::new();
    let feats: Vec<FeatureId> = (0..5).map(|i| catalog.intern(&format!("f{i}"))).collect();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    let mut coin = move |den: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33).is_multiple_of(den)
    };
    let mut b = SeriesBuilder::new();
    for t in 0..instants {
        let mut fs = Vec::new();
        if t % p == 0 {
            fs.push(feats[0]);
        }
        if t % p == 2 && !coin(4) {
            fs.push(feats[1]);
        }
        if coin(3) {
            fs.push(feats[2]);
        }
        if coin(5) {
            fs.push(feats[3]);
        }
        if coin(7) {
            fs.push(feats[4]);
        }
        b.push_instant(fs);
    }
    (b.finish(), catalog)
}

fn assert_clean(result: &MiningResult, series: &FeatureSeries, catalog: &FeatureCatalog) {
    let report = audit(series, result, catalog, AuditMode::Full).unwrap();
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert!(report.checks > 0);
    assert_eq!(report.recounted, result.len());
    assert!(!report.sampled);
}

#[test]
fn honest_runs_audit_clean_for_every_engine() {
    for seed in [1u64, 7, 42] {
        for p in [4usize, 6] {
            let (series, catalog) = random_series(seed, 600, p);
            let config = MineConfig::new(0.5).unwrap();
            for engine in Engine::ALL {
                let result = run(engine, &series, p, &config);
                assert_clean(&result.unwrap(), &series, &catalog);
            }
            let mut src = MemorySource::new(&series);
            assert_clean(
                &run(Engine::HitSet, &mut src, p, &config).unwrap(),
                &series,
                &catalog,
            );
        }
    }
}

#[test]
fn sampled_audit_is_clean_and_deterministic() {
    let (series, catalog) = random_series(3, 480, 6);
    let result = hitset::mine(&series, 6, &MineConfig::new(0.4).unwrap()).unwrap();
    let a = audit(&series, &result, &catalog, AuditMode::Sample(4)).unwrap();
    let b = audit(&series, &result, &catalog, AuditMode::Sample(4)).unwrap();
    assert!(a.is_clean(), "{:?}", a.violations);
    assert!(a.sampled);
    assert_eq!(a.recounted, b.recounted);
    assert!(a.recounted <= 4.min(result.len()));
}

#[test]
fn every_single_count_perturbation_is_flagged() {
    let (series, catalog) = random_series(11, 360, 6);
    let clean = hitset::mine(&series, 6, &MineConfig::new(0.5).unwrap()).unwrap();
    assert!(clean.len() >= 2, "need a non-trivial result");
    for idx in 0..clean.len() {
        for delta in [1i64, -1] {
            let mut tampered = clean.clone();
            let c = &mut tampered.frequent[idx].count;
            let Some(next) = c.checked_add_signed(delta) else {
                continue;
            };
            *c = next;
            let report = audit(&series, &tampered, &catalog, AuditMode::Full).unwrap();
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| matches!(v, Violation::CountMismatch { .. })),
                "pattern #{idx} delta {delta} escaped: {:?}",
                report.violations
            );
        }
    }
}

#[test]
fn dropped_patterns_and_forged_thresholds_are_flagged() {
    let (series, catalog) = random_series(5, 420, 6);
    let clean = hitset::mine(&series, 6, &MineConfig::new(0.5).unwrap()).unwrap();

    // Dropping a 1-letter pattern breaks downward closure (its supersets
    // remain) and the full oracle's frequent-letter sweep.
    let idx = clean
        .frequent
        .iter()
        .position(|fp| fp.letters.len() == 1)
        .expect("a frequent singleton");
    let mut dropped = clean.clone();
    dropped.frequent.remove(idx);
    let report = audit(&series, &dropped, &catalog, AuditMode::Full).unwrap();
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            Violation::MissingSubpattern { .. } | Violation::MissingFrequentLetter { .. }
        )),
        "{:?}",
        report.violations
    );

    // A forged threshold cannot masquerade as the configured one.
    let mut forged = clean.clone();
    forged.min_count += 1;
    let report = audit(&series, &forged, &catalog, AuditMode::Full).unwrap();
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ThresholdMismatch { .. })),
        "{:?}",
        report.violations
    );
}

#[test]
fn engines_cross_check_clean_on_random_series() {
    for seed in [2u64, 9] {
        let (series, catalog) = random_series(seed, 540, 6);
        let check = cross_check(&series, 6, &MineConfig::new(0.45).unwrap(), &catalog).unwrap();
        assert!(check.agreed(), "seed {seed}: {:?}", check.report.violations);
        assert_eq!(check.algorithms.len(), 7);
        assert!(check.algorithms.contains(&"hitset-tree"));
    }
}

/// The engines' differential suite, one table: every [`Engine`] on both
/// row substrates (a series and its bitmap view) must be **bit-for-bit
/// identical** to Apriori (Algorithm 3.1) — the same patterns in the same
/// order, the same counts and thresholds. The last workload lays the
/// vertical index out many words wide: 15 000 segments, with four
/// spurious features added at every instant with probability ½, so
/// nearly every segment is its own distinct hit.
#[test]
fn every_engine_is_bit_identical_across_rows() {
    let mut workloads: Vec<(u64, usize, usize, f64)> = [3u64, 19, 31]
        .into_iter()
        .flat_map(|seed| [(seed, 240, 4, 0.4), (seed, 540, 6, 0.4), (seed, 90, 9, 0.4)])
        .collect();
    workloads.push((5, 60_000, 4, 0.3));
    for (seed, instants, p, conf) in workloads {
        let (mut series, _catalog) = random_series(seed, instants, p);
        if instants == 60_000 {
            let pool: Vec<FeatureId> = (5..9).map(FeatureId::from_raw).collect();
            series = add_spurious(&series, &pool, 0.5, seed);
        }
        let encoded = EncodedSeries::encode(&series);
        let config = MineConfig::new(conf).unwrap();
        let apriori = apriori::mine(&series, p, &config).unwrap();
        for engine in Engine::ALL {
            let mut source = MemorySource::new(&series);
            for (substrate, input) in [
                ("series", Input::from(&series)),
                ("view", Input::from(encoded.view())),
                ("source", Input::from(&mut source)),
            ] {
                let at = format!("seed {seed} p {p}: {engine} on {substrate}");
                let result = run(engine, input, p, &config).unwrap();
                assert_eq!(result.frequent, apriori.frequent, "{at}");
                assert_eq!(result.min_count, apriori.min_count, "{at}");
                assert_eq!(result.segment_count, apriori.segment_count, "{at}");
            }
        }
    }
}

/// Noise-only input (no planted structure, high threshold): typically an
/// empty or tiny frequent set — the engines must agree on that too.
#[test]
fn vertical_engine_agrees_on_noise_and_empty_alphabets() {
    let strict = MineConfig::new(0.99).unwrap();
    let (noise, _) = random_series(77, 300, 5);
    let baseline = hitset::mine(&noise, 5, &strict).unwrap();
    let vertical = mine_vertical(&noise, 5, &strict).unwrap();
    assert_eq!(vertical.frequent, baseline.frequent);

    // An all-empty series has no frequent letters at all: the alphabet is
    // empty and the derivation must short-circuit identically.
    let mut b = SeriesBuilder::new();
    for _ in 0..40 {
        b.push_instant([]);
    }
    let empty = b.finish();
    let baseline = hitset::mine(&empty, 5, &MineConfig::new(0.5).unwrap()).unwrap();
    let vertical = mine_vertical(&empty, 5, &MineConfig::new(0.5).unwrap()).unwrap();
    assert_eq!(vertical.frequent, baseline.frequent);
    assert!(vertical.frequent.is_empty());
    assert_eq!(vertical.alphabet.len(), 0);
}

/// The segment-count boundary: a period equal to the series length gives
/// exactly one segment (`m = 1`, a one-word bitmap), and one past it is
/// the same typed rejection from both engines — the vertical path must not
/// mis-size bitmaps or accept what the tree walk rejects.
#[test]
fn vertical_engine_handles_the_segment_count_boundary() {
    let (series, _) = random_series(41, 8, 4);
    let config = MineConfig::new(0.5).unwrap();
    let baseline = hitset::mine(&series, 8, &config).unwrap();
    let vertical = mine_vertical(&series, 8, &config).unwrap();
    assert_eq!(vertical.frequent, baseline.frequent);
    assert_eq!(vertical.segment_count, 1);

    let b = hitset::mine(&series, 9, &config).unwrap_err();
    let v = mine_vertical(&series, 9, &config).unwrap_err();
    assert_eq!(b.to_string(), v.to_string());
}

/// Decodes a result's letter sets to `(offset, feature)` pairs so patterns
/// from runs with *different alphabets* can be compared.
fn symbolic(result: &MiningResult) -> Vec<(Vec<(usize, FeatureId)>, u64)> {
    result
        .frequent
        .iter()
        .map(|fp| {
            let mut letters: Vec<(usize, FeatureId)> = fp
                .letters
                .iter()
                .map(|i| result.alphabet.letter(i))
                .collect();
            letters.sort();
            (letters, fp.count)
        })
        .collect()
}

#[test]
fn quarantined_mining_yields_sound_lower_bounds() {
    let (series, catalog) = random_series(13, 600, 6);
    let config = MineConfig::new(0.5).unwrap();
    let clean = hitset::mine(&series, 6, &config).unwrap();

    // Garbage on an instant the planted pattern occupies, on both scans.
    let plan = FaultPlan::new()
        .fail_scan(0, Fault::Garbage { instant: 0 })
        .fail_scan(1, Fault::Garbage { instant: 0 });
    let faulty = FaultInjectingSource::new(MemorySource::new(&series), plan);
    let mut q = QuarantiningSource::new(faulty, QuarantineMode::Quarantine);
    let mined = run(Engine::HitSet, &mut q, 6, &config).unwrap();
    let (_, report) = q.into_parts();
    assert_eq!(report.len(), 1);
    assert_eq!(report.entries().next().unwrap().instant, 0);

    // Every pattern the quarantined run reports must exist in the clean
    // run with at least that count: quarantining only removes matches.
    let clean_counts = symbolic(&clean);
    for (letters, count) in symbolic(&mined) {
        let clean_count = clean_counts
            .iter()
            .find(|(l, _)| *l == letters)
            .map(|&(_, c)| c)
            .unwrap_or_else(|| panic!("{letters:?} frequent only under quarantine"));
        assert!(
            count <= clean_count,
            "{letters:?}: quarantined count {count} > clean {clean_count}"
        );
    }

    // And the quarantined result itself audits clean against the series
    // the miner actually saw (the cleaned one).
    let plan = FaultPlan::new().fail_scan(0, Fault::Garbage { instant: 0 });
    let faulty = FaultInjectingSource::new(MemorySource::new(&series), plan);
    let mut q = QuarantiningSource::new(faulty, QuarantineMode::Quarantine);
    let mut b = SeriesBuilder::new();
    q.scan(&mut |_, feats| b.push_instant(feats.iter().copied()))
        .unwrap();
    let cleaned = b.finish();
    assert_clean(&mined, &cleaned, &catalog);
}

#[test]
fn reject_mode_fails_the_mine_with_a_typed_error() {
    let (series, _) = random_series(17, 240, 6);
    let plan = FaultPlan::new().fail_scan(0, Fault::Garbage { instant: 3 });
    let faulty = FaultInjectingSource::new(MemorySource::new(&series), plan);
    let mut q = QuarantiningSource::new(faulty, QuarantineMode::Reject);
    let err = run(Engine::HitSet, &mut q, 6, &MineConfig::new(0.5).unwrap()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("instant 3"), "{msg}");
}

#[test]
fn exported_claims_verify_and_tampering_is_caught() {
    let (series, catalog) = random_series(23, 480, 6);
    let result = hitset::mine(&series, 6, &MineConfig::new(0.5).unwrap()).unwrap();
    let tsv = patterns_tsv(&result, &catalog);

    let mut cat = catalog.clone();
    let claims = parse_patterns_tsv(&tsv, &mut cat).unwrap();
    let report = verify_claims(&series, 6, 0.5, &claims, &cat, AuditMode::Full).unwrap();
    assert!(report.is_clean(), "{:?}", report.violations);

    // Tamper one claim's count (confidence left stale too).
    let mut tampered = claims.clone();
    tampered[0].count += 2;
    let report = verify_claims(&series, 6, 0.5, &tampered, &cat, AuditMode::Full).unwrap();
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            Violation::CountMismatch { .. } | Violation::ConfidenceMismatch { .. }
        )),
        "{:?}",
        report.violations
    );

    // Verifying against the wrong period is flagged per claim.
    let report = verify_claims(&series, 4, 0.5, &claims, &cat, AuditMode::Full).unwrap();
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ClaimPeriodMismatch { .. })),
        "{:?}",
        report.violations
    );
}

/// The daemon's central sharing assumption, checked at the library level:
/// one encoded series, many simultaneous borrowed views, each mined with a
/// different (period, engine) pair — every concurrent result must be
/// bit-identical to the same job run sequentially.
#[test]
fn shared_view_concurrent_readers_are_bit_identical_to_sequential() {
    let (series, _catalog) = random_series(77, 3_000, 6);
    let encoded = EncodedSeries::encode(&series);
    let config = MineConfig::new(0.35).unwrap();
    let jobs: Vec<(usize, Engine)> = (2..=7)
        .flat_map(|p| Engine::ALL.map(|engine| (p, engine)))
        .collect();
    let mine_on_view = |view, p, engine| run(engine, view, p, &config).unwrap();

    let sequential: Vec<MiningResult> = jobs
        .iter()
        .map(|&(p, engine)| mine_on_view(encoded.view(), p, engine))
        .collect();

    // 24 reader threads share the one load with zero copying; nothing
    // synchronizes them but the borrow checker.
    let concurrent: Vec<MiningResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|&(p, engine)| {
                let view = encoded.view();
                scope.spawn(move || mine_on_view(view, p, engine))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for ((seq, conc), &(p, engine)) in sequential.iter().zip(&concurrent).zip(&jobs) {
        // Only the planted period is guaranteed to produce patterns at this
        // confidence; off-period jobs still exercise the shared view and
        // must match (possibly-empty) result for result.
        if p == 6 {
            assert!(
                !seq.frequent.is_empty(),
                "{engine} period {p}: trivial workload proves nothing"
            );
        }
        assert_eq!(
            seq.frequent, conc.frequent,
            "{engine} period {p}: concurrent result must be bit-identical"
        );
        assert_eq!(symbolic(seq), symbolic(conc), "{engine} period {p}");
    }
}
