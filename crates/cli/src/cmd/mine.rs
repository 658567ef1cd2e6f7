//! `ppm mine` — single-period mining with optional constraints.

use std::io::Write;

use ppm_core::audit::{self, AuditMode};
use ppm_core::closed::mine_closed;
use ppm_core::constraints::{mine_constrained, Constraints};
use ppm_core::maximal::mine_maximal;
use ppm_core::vertical::incremental::IncrementalVerticalIndex;
use ppm_core::{run as run_engine, Engine, MineConfig, MiningResult, MiningStats, Pattern};
use ppm_timeseries::columnar::{ColumnarReader, ColumnarSource, Reload};
use ppm_timeseries::{
    EncodedSeries, EncodedSeriesView, Fault, FaultInjectingSource, FaultPlan, FeatureCatalog,
    FeatureSeries, MemorySource, QuarantineMode, QuarantineReport, QuarantiningSource, RetryPolicy,
    RetryingSource, SeriesBuilder, SeriesSource,
};

use crate::args::Parsed;
use crate::error::CliError;

/// The flags `ppm mine` accepts; any other is a usage error.
pub(crate) const FLAGS: &[&str] = &[
    "input period min-conf engine stream retries max-letters offsets limit tsv \
     maximal closed audit quarantine strict inject-garbage perturb-count follow window \
     follow-poll-ms follow-max-updates",
    super::GUARD_FLAGS,
    crate::obs::FLAGS,
];

/// Runs the command. Observability (`--trace`, `--metrics-out`,
/// `--progress`) wraps the whole mine; the metrics summary embeds the
/// run's [`ppm_core::MiningStats`] — including the *partial* stats a
/// resource-guard abort carries — and is written after the sinks detach,
/// so the summary work is never itself recorded.
pub fn run(args: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let obs = crate::obs::ObsSetup::from_args(args)?;
    let guard = obs.install();
    let outcome = run_inner(args, out);
    drop(guard);
    let stats = match &outcome {
        Ok(stats) => stats.clone(),
        Err(CliError::Mining(e)) => e.partial_stats().cloned(),
        Err(_) => None,
    };
    obs.finalize(stats.as_ref(), out)?;
    outcome.map(|_| ())
}

/// The mining body; returns the run's stats for the metrics summary
/// (`None` only for paths that never mined, e.g. a usage error).
fn run_inner(args: &Parsed, out: &mut dyn Write) -> Result<Option<MiningStats>, CliError> {
    let input = args.required("input")?;
    let format = super::format_of(input)?;
    let period: usize = args.required_parsed("period")?;
    let min_conf: f64 = args.required_parsed("min-conf")?;
    let limit: usize = args.parsed_or("limit", 20)?;
    let engine = super::parse_engine(args)?;

    let config = super::apply_guards(args, MineConfig::new(min_conf)?)?;

    let audit_mode = parse_audit_mode(args)?;
    let quarantine = args.switch("quarantine");
    let strict = args.switch("strict");
    // Testing aids for the verification machinery: --inject-garbage plants
    // a contract-violating instant in the scan stream; --perturb-count
    // bumps one reported count after mining so the oracle has something to
    // catch.
    let inject: Option<usize> = if args.switch("inject-garbage") {
        Some(args.required_parsed("inject-garbage")?)
    } else {
        None
    };
    let perturb: Option<usize> = if args.switch("perturb-count") {
        Some(args.required_parsed("perturb-count")?)
    } else {
        None
    };
    if inject.is_some() && !(quarantine || strict) {
        return Err(CliError::Usage(
            "--inject-garbage needs --quarantine or --strict (otherwise the \
             malformed instant would poison the mine unnoticed)"
                .into(),
        ));
    }
    if perturb.is_some() && audit_mode.is_none() {
        return Err(CliError::Usage(
            "--perturb-count only makes sense with --audit (it exists to \
             demonstrate the auditor catching a wrong count)"
                .into(),
        ));
    }
    if audit_mode.is_some() {
        for incompatible in [
            "stream",
            "maximal",
            "closed",
            "tsv",
            "offsets",
            "max-letters",
        ] {
            if args.switch(incompatible) {
                return Err(CliError::Usage(format!(
                    "--audit does not combine with --{incompatible} \
                     (it verifies plain single-period results)"
                )));
            }
        }
    }

    // Follow mode rides the incremental vertical index and therefore
    // requires the columnar store whose file the index tails.
    if args.switch("follow") {
        if format != super::Format::Columnar {
            return Err(CliError::Usage(
                "--follow needs a columnar .ppmc input \
                 (write one with convert --to columnar)"
                    .into(),
            ));
        }
        for incompatible in [
            "stream",
            "maximal",
            "closed",
            "tsv",
            "offsets",
            "max-letters",
            "quarantine",
            "strict",
            "perturb-count",
            "inject-garbage",
        ] {
            if args.switch(incompatible) {
                return Err(CliError::Usage(format!(
                    "--follow does not combine with --{incompatible}"
                )));
            }
        }
        if args.switch("engine") && engine != Engine::Vertical {
            return Err(CliError::Usage(format!(
                "--follow always re-mines through the incremental vertical \
                 index; --engine {engine} cannot follow"
            )));
        }
        return follow_columnar(args, input, period, min_conf, &config, out);
    }

    // Out-of-core mode: stream a .ppmc store's committed rows from disk
    // on every scan; never hold them. Every engine runs over the
    // re-scanned source.
    if args.switch("stream") {
        if format != super::Format::Columnar {
            return Err(CliError::Usage(
                "--stream requires a .ppmc input (write one with convert --to columnar)".into(),
            ));
        }
        let file = ColumnarSource::open(input)?;
        let catalog = file.catalog().clone();
        // --retries N: transparently re-scan up to N extra times when a
        // scan fails with a transient I/O error.
        let retries: usize = if args.switch("retries") {
            args.required_parsed("retries")?
        } else {
            0
        };
        let mut retrying;
        let mut plain;
        let source: &mut dyn SeriesSource = if retries > 0 {
            retrying = RetryingSource::new(file, RetryPolicy::with_max_attempts(retries + 1));
            &mut retrying
        } else {
            plain = file;
            &mut plain
        };
        let mut garbage;
        let source: &mut dyn SeriesSource = match inject {
            Some(t) => {
                garbage = FaultInjectingSource::new(source, garbage_plan(t));
                &mut garbage
            }
            None => source,
        };
        let mut qreport = None;
        let result = if quarantine || strict {
            let mut q = QuarantiningSource::new(source, quarantine_mode(strict));
            let r = run_engine(engine, &mut q, period, &config);
            qreport = Some(q.into_parts().1);
            r
        } else {
            run_engine(engine, source, period, &config)
        };
        let result = report_if_aborted(result, out)?;
        writeln!(
            out,
            "streamed {} file scans from {input}",
            result.stats.series_scans
        )?;
        if let Some(rep) = &qreport {
            print_quarantine(rep, out)?;
        }
        print_result(&result, &catalog, period, min_conf, limit, out)?;
        // Quarantined instants mean the printed counts are lower bounds;
        // scripts learn that through the dedicated exit code.
        if let Some(rep) = &qreport {
            if !rep.is_empty() {
                return Err(CliError::Quarantined { skipped: rep.len() });
            }
        }
        return Ok(Some(result.stats));
    }

    // In memory, every mode mines packed rows. A `.ppmc` file's bytes
    // *are* those rows, so it mines straight off the load; a text input
    // parses and encodes once. Quarantine needs raw instants: it
    // materializes the series, cleans it and encodes what survives.
    // Quarantined instants become empty, so all reported counts and
    // confidences are sound lower bounds.
    let (reader, encoded);
    let mut skipped = 0;
    let (view, catalog) = if format == super::Format::Columnar && !(quarantine || strict) {
        reader = ColumnarReader::open(input)?;
        (reader.view(), reader.catalog())
    } else {
        let (mut series, catalog) = super::load_series(input)?;
        if quarantine || strict {
            let (cleaned, rep) = quarantine_series(&series, inject, strict)?;
            print_quarantine(&rep, out)?;
            skipped = rep.len();
            series = cleaned;
        }
        encoded = (EncodedSeries::encode(&series), catalog);
        (encoded.0.view(), &encoded.1)
    };

    // Maximal-only mode short-circuits (it has its own result shape).
    if args.switch("maximal") {
        let result = mine_maximal(view, period, &config)?;
        writeln!(
            out,
            "{} maximal patterns (period {period}, {} segments, min_conf {min_conf}):",
            result.maximal.len(),
            result.segment_count
        )?;
        for fp in result.maximal.iter().take(limit) {
            let pattern = Pattern::from_letter_set(&result.alphabet, &fp.letters);
            writeln!(
                out,
                "  {}  count={} conf={:.3}",
                pattern.display(catalog),
                fp.count,
                fp.count as f64 / result.segment_count as f64
            )?;
        }
        return finish_mined(result.stats, skipped);
    }

    // Closed-only mode: the lossless compression of the frequent set.
    if args.switch("closed") {
        let result = mine_closed(view, period, &config)?;
        writeln!(
            out,
            "{} closed patterns (period {period}, {} segments, min_conf {min_conf}):",
            result.closed.len(),
            result.segment_count
        )?;
        for fp in result.closed.iter().take(limit) {
            let pattern = Pattern::from_letter_set(&result.alphabet, &fp.letters);
            writeln!(
                out,
                "  {}  count={} conf={:.3}",
                pattern.display(catalog),
                fp.count,
                fp.count as f64 / result.segment_count as f64
            )?;
        }
        return finish_mined(result.stats, skipped);
    }

    let offsets = args.parsed_list::<usize>("offsets")?;
    let max_letters = args
        .get("max-letters")
        .map(|_| args.required_parsed("max-letters"));
    let constrained = offsets.is_some() || max_letters.is_some();

    let mut result = if constrained {
        let mut c = Constraints::none();
        if let Some(o) = offsets {
            c = c.at_offsets(o);
        }
        if let Some(m) = max_letters {
            c = c.max_letters(m?);
        }
        mine_constrained(view, period, &config, &c)?
    } else {
        let result = run_engine(engine, view, period, &config);
        report_if_aborted(result, out)?
    };

    if let Some(idx) = perturb {
        perturb_count(&mut result, idx, out)?;
    }

    if args.switch("tsv") {
        write!(out, "{}", ppm_core::export::patterns_tsv(&result, catalog))?;
        return finish_mined(result.stats, skipped);
    }
    print_result(&result, catalog, period, min_conf, limit, out)?;
    if let Some(mode) = audit_mode {
        run_audit(view, &result, catalog, period, &config, mode, out)?;
    }
    finish_mined(result.stats, skipped)
}

/// `--perturb-count IDX`: bumps one reported count after mining, so the
/// audit has a wrong answer to catch.
fn perturb_count(
    result: &mut MiningResult,
    idx: usize,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    if idx >= result.frequent.len() {
        return Err(CliError::Usage(format!(
            "--perturb-count {idx}: result has only {} patterns",
            result.frequent.len()
        )));
    }
    result.frequent[idx].count += 1;
    writeln!(out, "perturbed pattern #{idx}: count bumped by 1")?;
    Ok(())
}

/// `mine --follow`: tails a growing `.ppmc` through the incremental
/// vertical index. The initial state mines cold (one full derive seeds the
/// index's baseline); every subsequent poll that finds the file *extended*
/// (same prefix, more instants — the columnar appender's only legal
/// mutation) feeds just the new segments into the index and re-mines only
/// the dirty word ranges. A rewritten file (not an extension) rebuilds the
/// index from scratch rather than serving stale counts. `--window N` keeps
/// only the most recent N segments live (appends at capacity evict the
/// oldest); `--audit` re-runs the full cold verification stack after every
/// update, proving each incremental state bit-identical to a cold mine.
fn follow_columnar(
    args: &Parsed,
    input: &str,
    period: usize,
    min_conf: f64,
    config: &MineConfig,
    out: &mut dyn Write,
) -> Result<Option<MiningStats>, CliError> {
    let limit: usize = args.parsed_or("limit", 20)?;
    let audit_mode = parse_audit_mode(args)?;
    let poll_ms: u64 = args.parsed_or("follow-poll-ms", 500)?;
    let max_updates: usize = if args.switch("follow-max-updates") {
        args.required_parsed("follow-max-updates")?
    } else {
        usize::MAX
    };
    let window: Option<usize> = if args.switch("window") {
        let w: usize = args.required_parsed("window")?;
        if w == 0 {
            return Err(CliError::Usage(
                "--window must be at least 1 segment".into(),
            ));
        }
        Some(w)
    } else {
        None
    };
    if audit_mode.is_some() && window.is_some() {
        return Err(CliError::Usage(
            "--audit in follow mode cold-mines the whole store; it does not \
             combine with --window"
                .into(),
        ));
    }

    let mut reader = ColumnarReader::open(input)?;
    let mut index = IncrementalVerticalIndex::from_view(reader.view(), period, window);
    writeln!(
        out,
        "following {input}: {} instants, {} live segments (period {period}, window {})",
        reader.len(),
        index.live_segments(),
        window.map_or_else(|| "unbounded".to_owned(), |w| format!("{w} segments")),
    )?;
    let mut stats = None;
    if index.live_segments() > 0 {
        let result = report_if_aborted(index.rederive_dirty(config), out)?;
        print_result(&result, reader.catalog(), period, min_conf, limit, out)?;
        stats = Some(result.stats);
    }
    out.flush()?;

    let mut updates = 0usize;
    while updates < max_updates {
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
        // Compare-then-resume: an unchanged file is byte-compared, a grown
        // one hashes only its new rows (see `ColumnarReader::reload`).
        reader = match reader.reload(input) {
            // A failed re-open is transient (a file being renamed over
            // the store, say); the next poll sees the new file.
            Err(_) | Ok(Reload::Unchanged) => continue,
            Ok(Reload::Extended(fresh)) => fresh,
            Ok(Reload::Rewritten(fresh)) => {
                writeln!(
                    out,
                    "store was rewritten, not extended; rebuilding the index"
                )?;
                index = IncrementalVerticalIndex::new(period, window);
                fresh
            }
        };
        let before = index.appended_segments();
        index.catch_up(reader.view());
        if index.appended_segments() == before {
            continue; // grew by less than one whole segment
        }
        let dirty = index.dirty_words();
        let start = std::time::Instant::now();
        let result = report_if_aborted(index.rederive_dirty(config), out)?;
        let us = start.elapsed().as_micros();
        updates += 1;
        writeln!(
            out,
            "update {updates}: +{} segments ({} live, {dirty} dirty words), \
             re-mined in {us} µs",
            index.appended_segments() - before,
            index.live_segments(),
        )?;
        print_result(&result, reader.catalog(), period, min_conf, limit, out)?;
        if let Some(mode) = audit_mode {
            run_audit(
                reader.view(),
                &result,
                reader.catalog(),
                period,
                config,
                mode,
                out,
            )?;
        }
        stats = Some(result.stats);
        out.flush()?;
    }
    Ok(stats)
}

/// The tail of every mined path: a run that quarantined instants reports
/// its (sound, lower-bound) results and then exits with the dedicated
/// quarantine code so scripts can tell "exact" from "defensible".
fn finish_mined(stats: MiningStats, skipped: usize) -> Result<Option<MiningStats>, CliError> {
    if skipped > 0 {
        Err(CliError::Quarantined { skipped })
    } else {
        Ok(Some(stats))
    }
}

/// Parses `--audit` / `--audit full` / `--audit sample` / `--audit N`
/// (sample N patterns).
fn parse_audit_mode(args: &Parsed) -> Result<Option<AuditMode>, CliError> {
    if !args.switch("audit") {
        return Ok(None);
    }
    match args.get("audit") {
        None | Some("full") => Ok(Some(AuditMode::Full)),
        Some("sample") => Ok(Some(AuditMode::sample())),
        Some(other) => match other.parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(AuditMode::Sample(n))),
            _ => Err(CliError::Usage(format!(
                "--audit accepts full, sample, or a sample size, not {other:?}"
            ))),
        },
    }
}

fn quarantine_mode(strict: bool) -> QuarantineMode {
    if strict {
        QuarantineMode::Reject
    } else {
        QuarantineMode::Quarantine
    }
}

/// A plan that plants [`Fault::Garbage`] on every scan attempt a mine can
/// plausibly make, so the malformed instant survives multi-scan algorithms.
fn garbage_plan(instant: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for attempt in 0..32 {
        plan = plan.fail_scan(attempt, Fault::Garbage { instant });
    }
    plan
}

/// Materializes `series` through a [`QuarantiningSource`] (optionally with
/// an injected garbage instant), returning the cleaned series and the
/// quarantine record. In `--strict` mode a malformed instant surfaces as
/// the source's typed rejection error instead.
fn quarantine_series(
    series: &FeatureSeries,
    inject: Option<usize>,
    strict: bool,
) -> Result<(FeatureSeries, QuarantineReport), CliError> {
    let mem = MemorySource::new(series);
    let mut faulty;
    let mut plain;
    let source: &mut dyn SeriesSource = match inject {
        Some(t) => {
            faulty = FaultInjectingSource::new(mem, garbage_plan(t));
            &mut faulty
        }
        None => {
            plain = mem;
            &mut plain
        }
    };
    let mut q = QuarantiningSource::new(source, quarantine_mode(strict));
    let mut builder = SeriesBuilder::new();
    q.scan(&mut |_, feats| builder.push_instant(feats.iter().copied()))?;
    let (_, report) = q.into_parts();
    Ok((builder.finish(), report))
}

/// Reports what the quarantine skipped (greppable: `quarantined`).
fn print_quarantine(report: &QuarantineReport, out: &mut dyn Write) -> Result<(), CliError> {
    if report.is_empty() {
        writeln!(out, "quarantined 0 instants")?;
        return Ok(());
    }
    writeln!(
        out,
        "quarantined {} instants ({} suppressions across scans); \
         counts below are sound lower bounds:",
        report.len(),
        report.total_skips()
    )?;
    for entry in report.entries().take(10) {
        writeln!(
            out,
            "  instant {}: {} ({} bytes recorded)",
            entry.instant,
            entry.reason,
            entry.bytes.len()
        )?;
    }
    if report.len() > 10 {
        writeln!(out, "  … and {} more", report.len() - 10)?;
    }
    Ok(())
}

/// Runs the full verification stack on a result mined off `view`:
/// structural invariants, the differential oracle's recount, and the
/// cross-engine diff ([`audit::cross_check_view`] — hit-set, Apriori,
/// vertical, plus the tree-walk, scalar-kernel and incremental vertical
/// arms, all straight off the packed rows). The recount oracle needs raw
/// instants, so the view is rebuilt into a series just for that check.
/// Violations are printed and surface as [`CliError::Audit`] (exit code
/// 1) so pipelines fail loudly on a wrong answer.
fn run_audit(
    view: EncodedSeriesView<'_>,
    result: &MiningResult,
    catalog: &FeatureCatalog,
    period: usize,
    config: &MineConfig,
    mode: AuditMode,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let mut builder = SeriesBuilder::new();
    for t in 0..view.len() {
        builder.push_instant(view.features_at(t));
    }
    let series = builder.finish();
    let report = audit::audit(&series, result, catalog, mode)?;
    let check = audit::cross_check_view(view, period, config, catalog)?;
    finish_audit(report, check, out)
}

/// Shared audit reporting: prints the cross-check verdict and the merged
/// summary, then fails loudly ([`CliError::Audit`], exit code 1) on any
/// violation.
fn finish_audit(
    mut report: ppm_core::audit::AuditReport,
    check: ppm_core::audit::CrossCheck,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    writeln!(
        out,
        "cross-check: {} engines on {} patterns — {}",
        check.algorithms.len(),
        check.compared,
        if check.agreed() { "agree" } else { "DISAGREE" }
    )?;
    report.absorb(check.report);
    writeln!(out, "audit: {}", report.summary())?;
    if report.is_clean() {
        return Ok(());
    }
    for v in &report.violations {
        writeln!(out, "  {v}")?;
    }
    Err(CliError::Audit(format!(
        "{} violations (details above)",
        report.violations.len()
    )))
}

/// On a resource-guard abort ([`ppm_core::Error::DeadlineExceeded`] /
/// [`ppm_core::Error::TreeBudgetExceeded`]) reports the partial progress
/// the error carries before surfacing it — the process still exits
/// non-zero, but the operator sees how far mining got and which knob to
/// turn. Other errors pass through untouched.
fn report_if_aborted(
    result: Result<MiningResult, ppm_core::Error>,
    out: &mut dyn Write,
) -> Result<MiningResult, CliError> {
    match result {
        Ok(r) => Ok(r),
        Err(e) => {
            if let Some(stats) = e.partial_stats() {
                writeln!(out, "mining aborted: {e}")?;
                writeln!(
                    out,
                    "partial progress: {} series scans, {} tree nodes, \
                     {} hit insertions; raise --deadline-ms / --max-tree-nodes to finish",
                    stats.series_scans, stats.tree_nodes, stats.hit_insertions
                )?;
            }
            Err(e.into())
        }
    }
}

/// Shared frequent-pattern report.
fn print_result(
    result: &MiningResult,
    catalog: &ppm_timeseries::FeatureCatalog,
    period: usize,
    min_conf: f64,
    limit: usize,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    writeln!(
        out,
        "{} frequent patterns (period {period}, {} segments, min_conf {min_conf}, \
         {} scans); showing up to {limit}, longest first:",
        result.len(),
        result.segment_count,
        result.stats.series_scans
    )?;
    let mut rows: Vec<_> = result.frequent.iter().collect();
    rows.sort_by(|a, b| {
        b.letters
            .len()
            .cmp(&a.letters.len())
            .then(b.count.cmp(&a.count))
    });
    for fp in rows.into_iter().take(limit) {
        let pattern = Pattern::from_letter_set(&result.alphabet, &fp.letters);
        writeln!(
            out,
            "  {}  count={} conf={:.3}",
            pattern.display(catalog),
            fp.count,
            fp.count as f64 / result.segment_count as f64
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::cmd::testutil::{assert_rejects_flag, run_cli, sample_series_file};
    use ppm_core::Engine;

    #[test]
    fn mines_the_sample() {
        let path = sample_series_file("txt");
        let text = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("frequent patterns"), "{text}");
        assert!(text.contains("alpha"), "{text}");
        assert!(text.contains("2 scans"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn all_engines_agree_in_output_counts() {
        let path = sample_series_file("txt");
        let base = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6",
            path.display()
        ))
        .unwrap();
        let first_line = base.lines().next().unwrap().to_owned();
        for engine in Engine::ALL {
            let text = run_cli(&format!(
                "mine --input {} --period 3 --min-conf 0.6 --engine {engine}",
                path.display()
            ))
            .unwrap();
            let n = |s: &str| s.split(' ').next().unwrap().to_owned();
            assert_eq!(
                n(text.lines().next().unwrap()),
                n(&first_line),
                "{engine} disagrees"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn maximal_mode() {
        let path = sample_series_file("txt");
        let text = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --maximal",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("maximal patterns"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn constrained_mode_filters_offsets() {
        let path = sample_series_file("txt");
        let text = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --offsets 0 --max-letters 1",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("alpha"), "{text}");
        assert!(!text.contains("beta"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn tsv_output_is_machine_readable() {
        let path = sample_series_file("txt");
        let text = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --tsv",
            path.display()
        ))
        .unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "pattern\tletters\tl_length\tcount\tconfidence");
        assert!(lines.len() > 1);
        assert!(
            lines[1..].iter().all(|l| l.split('\t').count() == 5),
            "{text}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn closed_mode() {
        let path = sample_series_file("txt");
        let text = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --closed",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("closed patterns"), "{text}");
        std::fs::remove_file(path).ok();
    }

    /// `--stream` mines a `.ppmc` store from disk to the same header and
    /// pattern lines as the in-memory mine of the same store, on every
    /// engine: the same `series_scans`, each one a file scan.
    #[test]
    fn stream_mode_mines_out_of_core() {
        let store = sample_series_file("ppmc");
        let mined_lines = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.starts_with("  ") || l.contains("frequent patterns"))
                .map(str::to_owned)
                .collect()
        };
        for engine in Engine::ALL {
            let mine = |extra: &str| {
                run_cli(&format!(
                    "mine --input {} --period 3 --min-conf 0.6 --engine {engine}{extra}",
                    store.display()
                ))
                .unwrap()
            };
            let streamed = mine(" --stream");
            let in_memory = mine("");
            assert!(streamed.contains("alpha"), "{engine}: {streamed}");
            assert_eq!(mined_lines(&streamed), mined_lines(&in_memory), "{engine}");
            // Apriori's scan count grows with the pattern length; the
            // others read the file exactly twice.
            if engine != Engine::Apriori {
                assert!(
                    streamed.contains("streamed 2 file scans"),
                    "{engine}: {streamed}"
                );
            } else {
                assert!(streamed.contains("file scans"), "{engine}: {streamed}");
            }
        }
        std::fs::remove_file(store).ok();
    }

    #[test]
    fn stream_mode_requires_stream_format() {
        let path = sample_series_file("txt");
        let err = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --stream",
            path.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains(".ppmc"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unknown_or_valueless_engine_is_usage_error() {
        let path = sample_series_file("txt");
        // `incremental` names the daemon's live index, not an engine.
        for flag in [
            "--engine magic",
            "--engine parallel",
            "--engine incremental",
            "--engine",
        ] {
            let err = run_cli(&format!(
                "mine --input {} --period 3 --min-conf 0.6 {flag}",
                path.display()
            ))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{flag}");
            assert!(
                err.to_string().contains("(hitset|apriori|vertical)"),
                "{err}"
            );
        }
        std::fs::remove_file(path).ok();
    }

    /// The vertical engine reports the hit-set's patterns in two scans.
    /// It mines on the calling thread, so the removed `--threads` is an
    /// undeclared flag (exit 2 naming it) on every input format.
    #[test]
    fn vertical_engine_mines_with_two_scans_and_threads() {
        let path = sample_series_file("txt");
        let base = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6",
            path.display()
        ))
        .unwrap();
        let vertical = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --engine vertical",
            path.display()
        ))
        .unwrap();
        assert_eq!(base, vertical, "vertical must report identical patterns");
        assert!(vertical.contains("2 scans"), "{vertical}");
        let ppmc = sample_series_file("ppmc");
        for input in [&path, &ppmc] {
            assert_rejects_flag(
                &format!(
                    "mine --input {} --period 3 --min-conf 0.6 --engine vertical --threads 2",
                    input.display()
                ),
                "--threads",
            );
        }
        std::fs::remove_file(path).ok();
        std::fs::remove_file(ppmc).ok();
    }

    #[test]
    fn retries_flag_streams_like_the_plain_path() {
        let path = sample_series_file("ppmc");
        let text = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --stream --retries 3",
            path.display()
        ))
        .unwrap();
        // A clean file needs no retries; logical scan count is unchanged.
        assert!(text.contains("streamed 2 file scans"), "{text}");
        assert!(text.contains("alpha"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn zero_deadline_reports_partial_progress() {
        // Every engine stops after scan 1, in memory and out of core.
        let plain = sample_series_file("txt");
        let stream = sample_series_file("ppmc");
        for engine in Engine::ALL {
            for (path, extra) in [(&plain, ""), (&stream, " --stream")] {
                let argv: Vec<String> = format!(
                    "mine --input {} --period 3 --min-conf 0.6 --deadline-ms 0 \
                     --engine {engine}{extra}",
                    path.display()
                )
                .split_whitespace()
                .map(str::to_owned)
                .collect();
                let mut out = Vec::new();
                let err = crate::run(&argv, &mut out).unwrap_err();
                // Guard trips have their own exit code: partial result, not
                // failure.
                assert_eq!(err.exit_code(), 3, "{engine}{extra}");
                let text = String::from_utf8(out).unwrap();
                assert!(text.contains("mining aborted"), "{text}");
                assert!(
                    text.contains("partial progress: 1 series scans"),
                    "{engine}{extra}: {text}"
                );
            }
        }
        std::fs::remove_file(plain).ok();
        std::fs::remove_file(stream).ok();
    }

    #[test]
    fn valueless_resilience_flags_are_usage_errors() {
        // A forgotten value must not silently disable the guard/retry the
        // user asked for.
        let txt = sample_series_file("txt");
        let stream = sample_series_file("ppmc");
        for cmd in [
            format!(
                "mine --input {} --period 3 --min-conf 0.6 --deadline-ms",
                txt.display()
            ),
            format!(
                "mine --input {} --period 3 --min-conf 0.6 --max-tree-nodes",
                txt.display()
            ),
            format!(
                "mine --input {} --period 3 --min-conf 0.6 --stream --retries",
                stream.display()
            ),
            format!(
                "sweep --input {} --from 2 --to 4 --min-conf 0.6 --checkpoint",
                txt.display()
            ),
        ] {
            let err = run_cli(&cmd).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{cmd}");
        }
        std::fs::remove_file(txt).ok();
        std::fs::remove_file(stream).ok();
    }

    #[test]
    fn generous_guards_change_nothing() {
        let path = sample_series_file("txt");
        let base = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6",
            path.display()
        ))
        .unwrap();
        let guarded = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 \
             --deadline-ms 3600000 --max-tree-nodes 1000000",
            path.display()
        ))
        .unwrap();
        assert_eq!(base, guarded);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn metrics_out_writes_parseable_summary() {
        use crate::cmd::testutil::temp_path;
        use ppm_observe::Json;

        let path = sample_series_file("txt");
        let metrics = temp_path("mine-metrics", "json");
        let text = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --metrics-out {}",
            path.display(),
            metrics.display()
        ))
        .unwrap();
        assert!(text.contains("metrics written to"), "{text}");

        let raw = std::fs::read_to_string(&metrics).unwrap();
        let lines: Vec<&str> = raw.lines().collect();
        assert!(lines.len() > 1, "events plus a summary line: {raw}");
        for line in &lines {
            Json::parse(line).unwrap_or_else(|e| panic!("{e} in {line}"));
        }
        let summary = Json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(summary.get("type").unwrap().as_str(), Some("summary"));
        let phases = summary.get("phases").unwrap().as_arr().unwrap();
        assert!(
            phases
                .iter()
                .any(|p| p.get("name").unwrap().as_str() == Some("hitset.mine")),
            "{raw}"
        );
        assert_eq!(summary.get("retries").unwrap().as_u64(), Some(0));
        assert_eq!(summary.get("guard_trips").unwrap().as_u64(), Some(0));
        let stats = summary.get("mining_stats").unwrap();
        assert_eq!(stats.get("series_scans").unwrap().as_u64(), Some(2));
        std::fs::remove_file(path).ok();
        std::fs::remove_file(metrics).ok();
    }

    #[test]
    fn guard_abort_still_reaches_the_metrics_summary() {
        use crate::cmd::testutil::temp_path;
        use ppm_observe::Json;

        let path = sample_series_file("txt");
        let metrics = temp_path("mine-metrics-abort", "json");
        let argv: Vec<String> = format!(
            "mine --input {} --period 3 --min-conf 0.6 --deadline-ms 0 --metrics-out {}",
            path.display(),
            metrics.display()
        )
        .split_whitespace()
        .map(str::to_owned)
        .collect();
        let mut out = Vec::new();
        let err = crate::run(&argv, &mut out).unwrap_err();
        assert_eq!(err.exit_code(), 3);

        let raw = std::fs::read_to_string(&metrics).unwrap();
        let summary = Json::parse(raw.lines().last().unwrap()).unwrap();
        assert_eq!(summary.get("guard_trips").unwrap().as_u64(), Some(1));
        // The partial stats carried by the abort still land in the summary.
        assert!(summary.get("mining_stats").is_some(), "{raw}");
        std::fs::remove_file(path).ok();
        std::fs::remove_file(metrics).ok();
    }

    #[test]
    fn trace_and_progress_leave_stdout_unchanged() {
        let path = sample_series_file("txt");
        let base = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6",
            path.display()
        ))
        .unwrap();
        for extra in [
            "--trace",
            "--progress",
            "--progress --progress-interval-ms 5",
        ] {
            let text = run_cli(&format!(
                "mine --input {} --period 3 --min-conf 0.6 {extra}",
                path.display()
            ))
            .unwrap();
            assert_eq!(base, text, "{extra} must only write to stderr");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn valueless_metrics_out_is_usage_error() {
        let path = sample_series_file("txt");
        let err = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --metrics-out",
            path.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn audit_full_is_clean_for_all_engines() {
        let path = sample_series_file("txt");
        for engine in Engine::ALL {
            let text = run_cli(&format!(
                "mine --input {} --period 3 --min-conf 0.6 --engine {engine} --audit full",
                path.display()
            ))
            .unwrap();
            assert!(text.contains("audit: clean"), "{engine}: {text}");
            assert!(text.contains("cross-check: 6 engines"), "{engine}: {text}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sampled_audit_is_clean_and_says_so() {
        let path = sample_series_file("txt");
        let text = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --audit 2",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("audit: clean"), "{text}");
        assert!(text.contains("sampled"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn audit_catches_a_perturbed_count() {
        let path = sample_series_file("txt");
        let argv: Vec<String> = format!(
            "mine --input {} --period 3 --min-conf 0.6 --audit full --perturb-count 0",
            path.display()
        )
        .split_whitespace()
        .map(str::to_owned)
        .collect();
        let mut out = Vec::new();
        let err = crate::run(&argv, &mut out).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("verification failed"), "{err}");
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("count mismatch"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn quarantine_reports_injected_garbage_and_still_mines() {
        let path = sample_series_file("txt");
        let argv: Vec<String> = format!(
            "mine --input {} --period 3 --min-conf 0.6 --quarantine --inject-garbage 1",
            path.display()
        )
        .split_whitespace()
        .map(str::to_owned)
        .collect();
        let mut out = Vec::new();
        // Lower-bound results still print, but the exit code says
        // "quarantined" so scripts can tell exact from defensible.
        let err = crate::run(&argv, &mut out).unwrap_err();
        assert_eq!(err.exit_code(), 4);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("quarantined 1 instants"), "{text}");
        assert!(text.contains("instant 1:"), "{text}");
        assert!(text.contains("frequent patterns"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn quarantine_on_clean_input_reports_zero() {
        let path = sample_series_file("txt");
        let base = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6",
            path.display()
        ))
        .unwrap();
        let text = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --quarantine",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("quarantined 0 instants"), "{text}");
        // Quarantining a clean series changes nothing downstream.
        assert!(text.ends_with(&base), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn strict_mode_fails_fast_on_garbage() {
        let path = sample_series_file("txt");
        let err = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --strict --inject-garbage 1",
            path.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("instant 1"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn quarantine_works_in_stream_mode() {
        let path = sample_series_file("ppmc");
        let argv: Vec<String> = format!(
            "mine --input {} --period 3 --min-conf 0.6 --stream --quarantine --inject-garbage 1",
            path.display()
        )
        .split_whitespace()
        .map(str::to_owned)
        .collect();
        let mut out = Vec::new();
        let err = crate::run(&argv, &mut out).unwrap_err();
        assert_eq!(err.exit_code(), 4);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("quarantined 1 instants"), "{text}");
        assert!(text.contains("frequent patterns"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn audit_and_garbage_flag_combinations_are_usage_errors() {
        let path = sample_series_file("txt");
        for extra in [
            "--audit full --tsv",
            "--audit full --maximal",
            "--audit full --closed",
            "--audit full --stream",
            "--audit full --offsets 0",
            "--audit banana",
            "--perturb-count 0",
            "--inject-garbage 1",
        ] {
            let err = run_cli(&format!(
                "mine --input {} --period 3 --min-conf 0.6 {extra}",
                path.display()
            ))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{extra}: {err}");
        }
        std::fs::remove_file(path).ok();
    }

    /// Text input parses, encodes once and mines the same packed rows a
    /// `.ppmc` load does: stdout is byte-identical on every engine and in
    /// every mode the in-memory path serves.
    #[test]
    fn columnar_input_mines_identically_on_every_engine() {
        let txt = sample_series_file("txt");
        let ppmc = sample_series_file("ppmc");
        for engine in Engine::ALL {
            for mode in [
                "",
                "--maximal",
                "--closed",
                "--offsets 0",
                "--max-letters 1",
                "--offsets 0,1 --max-letters 2",
                "--tsv",
                "--audit full",
            ] {
                let mine = |input: &std::path::Path| {
                    run_cli(&format!(
                        "mine --input {} --period 3 --min-conf 0.6 --engine {engine} {mode}",
                        input.display()
                    ))
                    .unwrap()
                };
                let from_text = mine(&txt);
                assert!(!from_text.is_empty(), "{engine} {mode}");
                assert_eq!(from_text, mine(&ppmc), "{engine} {mode}");
            }
        }
        std::fs::remove_file(txt).ok();
        std::fs::remove_file(ppmc).ok();
    }

    #[test]
    fn columnar_audit_runs_the_view_oracle() {
        let path = sample_series_file("ppmc");
        let text = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --audit full",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("cross-check: 6 engines"), "{text}");
        assert!(text.contains("audit: clean"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn columnar_audit_catches_a_perturbed_count() {
        let path = sample_series_file("ppmc");
        let argv: Vec<String> = format!(
            "mine --input {} --period 3 --min-conf 0.6 --audit full --perturb-count 0",
            path.display()
        )
        .split_whitespace()
        .map(str::to_owned)
        .collect();
        let mut out = Vec::new();
        let err = crate::run(&argv, &mut out).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("count mismatch"), "{text}");
        std::fs::remove_file(path).ok();
    }

    /// Quarantine is the one mode that materializes raw instants, from
    /// either input: the report, the counts and the exit code agree.
    #[test]
    fn quarantine_mines_identically_on_text_and_columnar_input() {
        let txt = sample_series_file("txt");
        let ppmc = sample_series_file("ppmc");
        for extra in ["--quarantine", "--quarantine --inject-garbage 1"] {
            let mine = |input: &std::path::Path| {
                let argv: Vec<String> = format!(
                    "mine --input {} --period 3 --min-conf 0.6 {extra}",
                    input.display()
                )
                .split_whitespace()
                .map(str::to_owned)
                .collect();
                let mut out = Vec::new();
                let code = crate::run(&argv, &mut out).map_or_else(|e| e.exit_code(), |()| 0);
                (String::from_utf8(out).unwrap(), code)
            };
            let (text, code) = mine(&txt);
            assert!(text.contains("quarantined"), "{text}");
            assert!(text.contains("frequent patterns"), "{text}");
            assert_eq!(code, if extra.contains("garbage") { 4 } else { 0 });
            assert_eq!(mine(&ppmc), (text, code), "{extra}");
        }
        std::fs::remove_file(txt).ok();
        std::fs::remove_file(ppmc).ok();
    }

    #[test]
    fn follow_flag_combinations_are_usage_errors() {
        let txt = sample_series_file("txt");
        let ppmc = sample_series_file("ppmc");
        for (file, extra) in [
            (&txt, "--follow"), // needs .ppmc
            (&ppmc, "--follow --tsv"),
            (&ppmc, "--follow --engine apriori"),
            (&ppmc, "--follow --window 0"),
            (&ppmc, "--follow --window 5 --audit full"),
        ] {
            let err = run_cli(&format!(
                "mine --input {} --period 3 --min-conf 0.6 {extra}",
                file.display()
            ))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{extra}: {err}");
        }
        std::fs::remove_file(txt).ok();
        std::fs::remove_file(ppmc).ok();
    }

    /// The incremental-vs-cold race runs in the `races` binary, so
    /// `--compare-incremental` and `--bench-report` are rejected and no
    /// bench file is written. The identity the race checks still holds: an
    /// incremental index warmed over 25 of the 30 segments and fed the last
    /// 5 one by one ends equal to a cold mine of the whole store.
    #[test]
    fn compare_incremental_reports_identity_and_writes_the_bench() {
        use ppm_core::vertical::incremental::IncrementalVerticalIndex;
        use ppm_core::MineConfig;
        use ppm_timeseries::columnar::ColumnarReader;

        let path = sample_series_file("ppmc");
        let name = format!("test-inc-{}", std::process::id());
        for (extra, flag) in [
            (
                "--compare-incremental 5".to_owned(),
                "--compare-incremental",
            ),
            (format!("--bench-report {name}"), "--bench-report"),
        ] {
            assert_rejects_flag(
                &format!(
                    "mine --input {} --period 3 --min-conf 0.6 {extra}",
                    path.display()
                ),
                flag,
            );
        }
        assert!(!std::path::Path::new(&format!("BENCH_{name}.json")).exists());

        let reader = ColumnarReader::open(path.to_str().unwrap()).unwrap();
        let view = reader.view();
        let config = MineConfig::new(0.6).unwrap();
        let cold = ppm_core::vertical::mine_vertical_view(view, 3, &config).unwrap();
        let mut index = IncrementalVerticalIndex::new(3, None);
        for segment in 0..25 {
            index.append_from_view(view, segment);
        }
        let mut last = index.rederive_dirty(&config).unwrap();
        for segment in 25..30 {
            index.append_from_view(view, segment);
            last = index.rederive_dirty(&config).unwrap();
        }
        assert_eq!(last.segment_count, 30);
        assert!(!cold.frequent.is_empty());
        assert_eq!(last.frequent.len(), cold.frequent.len());
        for (pattern, count, _) in last.patterns() {
            assert_eq!(cold.count_of(&pattern), Some(count), "{pattern:?}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn follow_tails_an_appended_store_and_audits_each_update() {
        use ppm_timeseries::columnar::{ColumnarAppender, ColumnarReader};

        let path = sample_series_file("ppmc");
        let append_to = path.clone();
        // Grow the store by one whole period-3 segment while the follow
        // loop polls; publication is atomic, so the poller only ever sees
        // complete states.
        let grower = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(100));
            let reader = ColumnarReader::open(&append_to).unwrap();
            let alpha = reader.catalog().get("alpha").unwrap();
            let beta = reader.catalog().get("beta").unwrap();
            let mut app = ColumnarAppender::open(&append_to).unwrap();
            app.append_instant(&[alpha]).unwrap();
            app.append_instant(&[beta]).unwrap();
            app.append_instant(&[]).unwrap();
            app.finish().unwrap();
        });
        let text = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --follow \
             --follow-poll-ms 10 --follow-max-updates 1 --audit full",
            path.display()
        ))
        .unwrap();
        grower.join().unwrap();
        assert!(text.contains("following"), "{text}");
        assert!(text.contains("update 1: +1 segments (31 live"), "{text}");
        assert!(text.contains("re-mined in"), "{text}");
        // Every update is proven bit-identical to a cold mine.
        assert!(text.contains("cross-check: 6 engines"), "{text}");
        assert!(text.contains("audit: clean"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn follow_window_keeps_only_the_recent_segments_live() {
        use ppm_timeseries::columnar::ColumnarAppender;

        let path = sample_series_file("ppmc");
        let append_to = path.clone();
        let grower = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(100));
            let mut app = ColumnarAppender::open(&append_to).unwrap();
            for _ in 0..3 {
                app.append_instant(&[]).unwrap();
            }
            app.finish().unwrap();
        });
        let text = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --follow --engine vertical \
             --window 10 --follow-poll-ms 10 --follow-max-updates 1",
            path.display()
        ))
        .unwrap();
        grower.join().unwrap();
        assert!(text.contains("window 10 segments"), "{text}");
        // 30 seed segments enter a 10-segment ring; the append evicts one
        // more, so the window stays at capacity.
        assert!(text.contains("update 1: +1 segments (10 live"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_confidence_is_mining_error() {
        let path = sample_series_file("txt");
        let err = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 7",
            path.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 1);
        std::fs::remove_file(path).ok();
    }
}
