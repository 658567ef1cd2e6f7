//! Cross-algorithm differential harness.
//!
//! The paper proves Algorithms 3.1 (Apriori) and 3.2 (max-subpattern hit
//! set) compute the *same* frequent set with the *same* counts; the same
//! hit-set code re-scanning a [`ppm_timeseries::SeriesSource`] must agree
//! with its in-memory run, and the vertical engine
//! ([`crate::vertical`]) recounts the same definition columnarly. The
//! hit-set engine's default derive counts through the vertical engine's
//! bitmap kernel, so a `hitset-tree` arm recounts its tree with the
//! paper's own traversal ([`CountStrategy::TreeWalk`]). Running
//! all of them on the same input and diffing the outputs is therefore a
//! free correctness oracle: any disagreement is a bug in at least one
//! engine, found without knowing which answer is right.

use std::collections::HashMap;

use ppm_timeseries::{
    EncodedSeries, EncodedSeriesView, FeatureCatalog, FeatureSeries, MemorySource,
};

use crate::hitset::derive::CountStrategy;
use crate::letters::LetterSet;
use crate::pattern::Pattern;
use crate::result::MiningResult;
use crate::scan::MineConfig;
use crate::vertical::Kernel;
use crate::Engine;

use super::{render, AuditReport, Violation};

/// The `incremental-vertical` arm: builds the sliding-window index through
/// the same append path a live store uses, with a mid-stream re-derive
/// (discarded) so the final derive genuinely delta-counts the candidates
/// that one counted instead of full-counting everything, then re-derives
/// the full window. Bit-identity here proves every incrementally
/// maintained state equals a cold mine of the same window.
fn incremental_arm(
    view: EncodedSeriesView<'_>,
    period: usize,
    config: &MineConfig,
) -> crate::error::Result<MiningResult> {
    use crate::vertical::incremental::IncrementalVerticalIndex;
    let m = view.len() / period;
    let mut index = IncrementalVerticalIndex::new(period, None);
    for segment in 0..m {
        index.append_from_view(view, segment);
        if m >= 4 && segment + 1 == m / 2 {
            let _ = index.rederive_dirty(config);
        }
    }
    index.rederive_dirty(config)
}

/// Mismatch detail lines reported per algorithm pair before truncating.
const DETAIL_LIMIT: usize = 12;

/// The outcome of one cross-algorithm diff.
#[derive(Debug, Clone)]
pub struct CrossCheck {
    /// The engines that ran, in comparison order (index 0 is the baseline).
    pub algorithms: Vec<&'static str>,
    /// Patterns in the baseline result (the comparison breadth).
    pub compared: usize,
    /// Violations found — empty when every engine agrees exactly.
    pub report: AuditReport,
}

impl CrossCheck {
    /// Whether every engine produced an identical result.
    pub fn agreed(&self) -> bool {
        self.report.is_clean()
    }
}

/// Diffs one `(left, right)` result pair, appending
/// [`Violation::AlgorithmMismatch`]s to `report`.
fn diff_pair(
    left_name: &'static str,
    left: &MiningResult,
    right_name: &'static str,
    right: &MiningResult,
    catalog: &FeatureCatalog,
    report: &mut AuditReport,
) {
    let mismatch = |report: &mut AuditReport, detail: String| {
        report.push(Violation::AlgorithmMismatch {
            left: left_name,
            right: right_name,
            detail,
        });
    };
    report.checks += 3;
    if left.segment_count != right.segment_count || left.min_count != right.min_count {
        mismatch(
            report,
            format!(
                "run parameters differ: m {} vs {}, min_count {} vs {}",
                left.segment_count, right.segment_count, left.min_count, right.min_count
            ),
        );
        return;
    }
    if left.alphabet != right.alphabet {
        mismatch(
            report,
            format!(
                "alphabets differ: {} vs {} letters",
                left.alphabet.len(),
                right.alphabet.len()
            ),
        );
        return;
    }

    let text = |result: &MiningResult, set: &LetterSet| {
        render(&Pattern::from_letter_set(&result.alphabet, set), catalog)
    };
    let rights: HashMap<&LetterSet, u64> = right
        .frequent
        .iter()
        .map(|fp| (&fp.letters, fp.count))
        .collect();
    let mut details = 0usize;
    let mut emit = |report: &mut AuditReport, detail: String| {
        details += 1;
        if details <= DETAIL_LIMIT {
            mismatch(report, detail);
        }
    };
    for fp in &left.frequent {
        report.checks += 1;
        match rights.get(&fp.letters) {
            None => emit(
                report,
                format!(
                    "`{}` (count {}) only found by {left_name}",
                    text(left, &fp.letters),
                    fp.count
                ),
            ),
            Some(&count) if count != fp.count => emit(
                report,
                format!(
                    "`{}` counted {} by {left_name}, {} by {right_name}",
                    text(left, &fp.letters),
                    fp.count,
                    count
                ),
            ),
            Some(_) => {}
        }
    }
    let lefts: HashMap<&LetterSet, u64> = left
        .frequent
        .iter()
        .map(|fp| (&fp.letters, fp.count))
        .collect();
    for fp in &right.frequent {
        report.checks += 1;
        if !lefts.contains_key(&fp.letters) {
            emit(
                report,
                format!(
                    "`{}` (count {}) only found by {right_name}",
                    text(right, &fp.letters),
                    fp.count
                ),
            );
        }
    }
    if details > DETAIL_LIMIT {
        mismatch(
            report,
            format!("… and {} more differences", details - DETAIL_LIMIT),
        );
    }
}

/// Mines `series` with the hit-set engine (also counting its tree by the
/// paper's traversal), Apriori, streaming hit-set (the hit-set engine over
/// a [`MemorySource`], re-scanned per pass), and vertical engines — the
/// latter also on its forced-scalar reference kernel and on the
/// segment-at-a-time incremental index — and diffs the results pairwise
/// against the hit-set baseline.
///
/// Every arm but the streaming one mines one [`EncodedSeries`] cache of
/// the series, as [`cross_check_view`] mines a view.
///
/// The miners canonicalize ordering before returning, so equal results
/// compare equal structurally; any difference in membership or counts
/// becomes a [`Violation::AlgorithmMismatch`] naming the engines and the
/// pattern.
pub fn cross_check(
    series: &FeatureSeries,
    period: usize,
    config: &MineConfig,
    catalog: &FeatureCatalog,
) -> crate::error::Result<CrossCheck> {
    let _span = ppm_observe::span("audit.diff");
    let streamed = crate::run(
        Engine::HitSet,
        &mut MemorySource::new(series),
        period,
        config,
    )?;
    let encoded = EncodedSeries::encode(series);
    check_arms(encoded.view(), Some(streamed), period, config, catalog)
}

/// [`cross_check`] over a borrowed bitmap view (a columnar file load or an
/// [`EncodedSeries`] cache): every arm but the streaming one, which
/// re-scans a [`ppm_timeseries::SeriesSource`] that a borrowed view does
/// not provide. No [`FeatureSeries`] is ever materialized.
pub fn cross_check_view(
    view: EncodedSeriesView<'_>,
    period: usize,
    config: &MineConfig,
    catalog: &FeatureCatalog,
) -> crate::error::Result<CrossCheck> {
    let _span = ppm_observe::span("audit.diff");
    check_arms(view, None, period, config, catalog)
}

/// Mines `view` with every in-memory arm, adds the `streamed` arm when
/// there is one, and diffs each against the hit-set baseline.
fn check_arms(
    view: EncodedSeriesView<'_>,
    streamed: Option<MiningResult>,
    period: usize,
    config: &MineConfig,
    catalog: &FeatureCatalog,
) -> crate::error::Result<CrossCheck> {
    let baseline = crate::hitset::mine_view(view, period, config)?;
    let scalar = config.with_kernel(Kernel::Scalar);
    let mut arms = vec![
        (
            "hitset-tree",
            crate::hitset::mine_with_strategy(view, period, config, CountStrategy::TreeWalk)?,
        ),
        ("apriori", crate::apriori::mine_view(view, period, config)?),
        (
            "vertical",
            crate::vertical::mine_vertical_view(view, period, config)?,
        ),
        (
            "vertical-scalar",
            crate::vertical::mine_vertical_view(view, period, &scalar)?,
        ),
        (
            "incremental-vertical",
            incremental_arm(view, period, config)?,
        ),
    ];
    arms.extend(streamed.map(|result| ("streaming-hitset", result)));
    Ok(diff_against_baseline(&baseline, &arms, catalog))
}

/// Diffs every named arm against the hit-set `baseline` and reports the
/// verdict.
fn diff_against_baseline(
    baseline: &MiningResult,
    arms: &[(&'static str, MiningResult)],
    catalog: &FeatureCatalog,
) -> CrossCheck {
    let mut report = AuditReport::new();
    let mut algorithms = vec!["hitset"];
    for (name, result) in arms {
        diff_pair("hitset", baseline, name, result, catalog, &mut report);
        algorithms.push(name);
    }
    let check = CrossCheck {
        algorithms,
        compared: baseline.len(),
        report,
    };
    ppm_observe::mark("audit.diff.verdict", || {
        if check.agreed() {
            format!(
                "{} engines agree on {} patterns",
                check.algorithms.len(),
                check.compared
            )
        } else {
            format!("{} mismatches", check.report.violations.len())
        }
    });
    check
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::SeriesBuilder;

    fn sample() -> (FeatureSeries, FeatureCatalog) {
        let mut catalog = FeatureCatalog::new();
        let a = catalog.intern("alpha");
        let b = catalog.intern("beta");
        let mut builder = SeriesBuilder::new();
        for j in 0..20 {
            builder.push_instant([a]);
            builder.push_instant(if j % 4 != 0 { vec![b] } else { vec![] });
            builder.push_instant(if j % 2 == 0 { vec![a, b] } else { vec![] });
        }
        (builder.finish(), catalog)
    }

    #[test]
    fn engines_agree_on_a_real_mine() {
        let (series, catalog) = sample();
        let config = MineConfig::new(0.5).unwrap();
        let check = cross_check(&series, 3, &config, &catalog).unwrap();
        assert!(check.agreed(), "{:?}", check.report.violations);
        assert_eq!(check.algorithms.len(), 7);
        assert!(check.algorithms.contains(&"hitset-tree"));
        assert!(check.compared > 0);
    }

    #[test]
    fn view_engines_agree_on_a_real_mine() {
        let (series, catalog) = sample();
        let encoded = EncodedSeries::encode(&series);
        let config = MineConfig::new(0.5).unwrap();
        let check = cross_check_view(encoded.view(), 3, &config, &catalog).unwrap();
        assert!(check.agreed(), "{:?}", check.report.violations);
        assert_eq!(check.algorithms.len(), 6);
        assert!(check.algorithms.contains(&"hitset-tree"));
        let series_check = cross_check(&series, 3, &config, &catalog).unwrap();
        assert_eq!(check.compared, series_check.compared);
    }

    #[test]
    fn diff_pair_flags_membership_and_count_divergence() {
        let (series, catalog) = sample();
        let config = MineConfig::new(0.5).unwrap();
        let left = crate::hitset::mine(&series, 3, &config).unwrap();
        let mut right = left.clone();
        right.frequent[0].count += 2;
        let dropped = right.frequent.pop().unwrap();
        let mut report = AuditReport::new();
        diff_pair("hitset", &left, "tampered", &right, &catalog, &mut report);
        assert!(!report.is_clean());
        let details: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
        assert!(details.iter().any(|d| d.contains("counted")), "{details:?}");
        assert!(
            details.iter().any(|d| d.contains("only found by hitset")),
            "{details:?}"
        );
        drop(dropped);
    }

    #[test]
    fn diff_pair_flags_parameter_divergence() {
        let (series, catalog) = sample();
        let config = MineConfig::new(0.5).unwrap();
        let left = crate::hitset::mine(&series, 3, &config).unwrap();
        let mut right = left.clone();
        right.min_count += 1;
        let mut report = AuditReport::new();
        diff_pair("hitset", &left, "tampered", &right, &catalog, &mut report);
        assert!(report
            .violations
            .iter()
            .any(|v| v.to_string().contains("run parameters differ")));
    }
}
