//! `ppm mine` — single-period mining with optional constraints.

use std::io::Write;

use ppm_core::audit::{self, AuditMode};
use ppm_core::closed::mine_closed;
use ppm_core::constraints::{mine_constrained, Constraints};
use ppm_core::maximal::mine_maximal;
use ppm_core::parallel::{mine_parallel, mine_parallel_vertical};
use ppm_core::streaming::{mine_apriori_streaming, mine_hitset_streaming};
use ppm_core::vertical::incremental::IncrementalVerticalIndex;
use ppm_core::vertical::mine_vertical;
use ppm_core::{mine, Algorithm, MineConfig, MiningResult, MiningStats, Pattern};
use ppm_timeseries::columnar::{ColumnarReader, Reload};
use ppm_timeseries::storage::stream::FileSource;
use ppm_timeseries::{
    EncodedSeriesView, Fault, FaultInjectingSource, FaultPlan, FeatureCatalog, FeatureSeries,
    MemorySource, QuarantineMode, QuarantineReport, QuarantiningSource, RetryPolicy,
    RetryingSource, SeriesBuilder, SeriesSource,
};

use crate::args::Parsed;
use crate::error::CliError;

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
    let period: usize = args.required_parsed("period")?;
    let min_conf: f64 = args.required_parsed("min-conf")?;
    let limit: usize = args.parsed_or("limit", 20)?;
    let algorithm = super::resolve_engine(args)?;

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
            "compare-incremental",
        ] {
            if args.switch(incompatible) {
                return Err(CliError::Usage(format!(
                    "--audit does not combine with --{incompatible} \
                     (it verifies plain single-period results)"
                )));
            }
        }
    }

    // Continuous-ingestion modes ride the incremental vertical index and
    // therefore require the columnar store whose file the index tails.
    if args.switch("follow") || args.switch("compare-incremental") {
        if args.switch("follow") && args.switch("compare-incremental") {
            return Err(CliError::Usage(
                "--follow and --compare-incremental are separate modes; pass one".into(),
            ));
        }
        if super::format_of(input) != super::Format::Columnar {
            return Err(CliError::Usage(
                "--follow/--compare-incremental need a columnar .ppmc input \
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
                    "--follow/--compare-incremental do not combine with --{incompatible}"
                )));
            }
        }
        if (args.switch("engine") || args.switch("algorithm")) && algorithm != "vertical" {
            return Err(CliError::Usage(format!(
                "--follow/--compare-incremental always re-mine through the \
                 incremental vertical index; --engine {algorithm:?} cannot follow"
            )));
        }
        if args.switch("compare-incremental") {
            return compare_incremental(args, input, period, min_conf, &config, out);
        }
        return follow_columnar(args, input, period, min_conf, &config, out);
    }

    // Out-of-core mode: stream a .ppmstream file; never materialize it.
    if args.switch("stream") {
        if super::format_of(input) != super::Format::Stream {
            return Err(CliError::Usage(
                "--stream requires a .ppmstream input (see `ppm convert`)".into(),
            ));
        }
        if !matches!(algorithm, "apriori" | "hitset") {
            return Err(CliError::Usage(format!(
                "--stream supports --engine apriori|hitset, not {algorithm:?}"
            )));
        }
        let file = FileSource::open(input)?;
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
        let run_one = |src: &mut dyn SeriesSource| match algorithm {
            "apriori" => mine_apriori_streaming(src, period, &config),
            _ => mine_hitset_streaming(src, period, &config),
        };
        let mut qreport = None;
        let result = if quarantine || strict {
            let mut q = QuarantiningSource::new(source, quarantine_mode(strict));
            let r = run_one(&mut q);
            qreport = Some(q.into_parts().1);
            r
        } else {
            run_one(source)
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

    // Columnar fast path: a `.ppmc` file's bytes *are* the bitmap rows, so
    // the view-backed engines mine straight off the load with no series
    // materialized. Modes that need raw instants (quarantine, maximal,
    // closed, constraints) fall through to the materializing path below.
    let needs_instants = quarantine
        || strict
        || args.switch("maximal")
        || args.switch("closed")
        || args.switch("offsets")
        || args.switch("max-letters");
    if super::format_of(input) == super::Format::Columnar && !needs_instants {
        let threads: usize = args.parsed_or("threads", 1)?;
        let viewable = matches!(algorithm, "hitset" | "apriori" | "vertical");
        if viewable {
            let reader = ColumnarReader::open(input)?;
            let view = reader.view();
            let result = match algorithm {
                "apriori" => ppm_core::apriori::mine_view(view, period, &config),
                // Threads shard the derivation's segment axis *within* this
                // one period — no series is ever materialized.
                "vertical" if threads > 1 => {
                    ppm_core::vertical::mine_vertical_view_sharded(view, period, &config, threads)
                }
                "vertical" => ppm_core::vertical::mine_vertical_view(view, period, &config),
                _ => ppm_core::hitset::mine_view(view, period, &config),
            };
            let mut result = report_if_aborted(result, out)?;
            if let Some(idx) = perturb {
                if idx >= result.frequent.len() {
                    return Err(CliError::Usage(format!(
                        "--perturb-count {idx}: result has only {} patterns",
                        result.frequent.len()
                    )));
                }
                result.frequent[idx].count += 1;
                writeln!(out, "perturbed pattern #{idx}: count bumped by 1")?;
            }
            if args.switch("tsv") {
                write!(
                    out,
                    "{}",
                    ppm_core::export::patterns_tsv(&result, reader.catalog())
                )?;
                return Ok(Some(result.stats));
            }
            print_result(&result, reader.catalog(), period, min_conf, limit, out)?;
            if let Some(mode) = audit_mode {
                run_audit_view(view, &result, reader.catalog(), period, &config, mode, out)?;
            }
            return Ok(Some(result.stats));
        }
    }

    let (series, catalog) = super::load_series(input)?;

    // Quarantine: pass every instant through scan-boundary validation and
    // mine the cleaned series. Quarantined instants become empty, so all
    // reported counts/confidences are sound lower bounds.
    let mut skipped = 0;
    let series = if quarantine || strict {
        let (cleaned, rep) = quarantine_series(&series, inject, strict)?;
        print_quarantine(&rep, out)?;
        skipped = rep.len();
        cleaned
    } else {
        series
    };

    // Maximal-only mode short-circuits (it has its own result shape).
    if args.switch("maximal") {
        let result = mine_maximal(&series, period, &config)?;
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
                pattern.display(&catalog),
                fp.count,
                fp.count as f64 / result.segment_count as f64
            )?;
        }
        return finish_mined(result.stats, skipped);
    }

    // Closed-only mode: the lossless compression of the frequent set.
    if args.switch("closed") {
        let result = mine_closed(&series, period, &config)?;
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
                pattern.display(&catalog),
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
        mine_constrained(&series, period, &config, &c)?
    } else {
        let result = match algorithm {
            "apriori" => mine(&series, period, &config, Algorithm::Apriori),
            "hitset" => mine(&series, period, &config, Algorithm::HitSet),
            "parallel" => {
                let threads: usize = args.parsed_or("threads", 4)?;
                mine_parallel(&series, period, &config, threads)
            }
            "vertical" => {
                let threads: usize = args.parsed_or("threads", 1)?;
                if threads > 1 {
                    mine_parallel_vertical(&series, period, &config, threads)
                } else {
                    mine_vertical(&series, period, &config)
                }
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown --engine {other:?} (apriori|hitset|parallel|vertical)"
                )))
            }
        };
        report_if_aborted(result, out)?
    };

    if let Some(idx) = perturb {
        if idx >= result.frequent.len() {
            return Err(CliError::Usage(format!(
                "--perturb-count {idx}: result has only {} patterns",
                result.frequent.len()
            )));
        }
        result.frequent[idx].count += 1;
        writeln!(out, "perturbed pattern #{idx}: count bumped by 1")?;
    }

    if args.switch("tsv") {
        write!(out, "{}", ppm_core::export::patterns_tsv(&result, &catalog))?;
        return finish_mined(result.stats, skipped);
    }
    print_result(&result, &catalog, period, min_conf, limit, out)?;
    if let Some(mode) = audit_mode {
        run_audit(&series, &result, &catalog, period, &config, mode, out)?;
    }
    finish_mined(result.stats, skipped)
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
            // A failed re-open mid-publish is transient; the next poll sees
            // the atomically renamed file.
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
        let m = reader.len() / period;
        while index.appended_segments() < m {
            index.append_from_view(reader.view(), index.appended_segments());
        }
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
            run_audit_view(
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

/// `mine --compare-incremental N`: the append-path head-to-head. Times one
/// cold full derive over the final state, then replays the last N segments
/// as appends — index warmed over the prefix, one timed [`rederive_dirty`]
/// per append — and reports the median/p90 re-mine latency against the
/// cold baseline. The final incremental state must match the cold mine
/// exactly (alphabet-order-independent pattern+count equality) or the run
/// fails with the audit exit code. `--bench-report NAME` writes
/// `BENCH_NAME.json` for CI gating.
///
/// [`rederive_dirty`]: IncrementalVerticalIndex::rederive_dirty
fn compare_incremental(
    args: &Parsed,
    input: &str,
    period: usize,
    min_conf: f64,
    config: &MineConfig,
    out: &mut dyn Write,
) -> Result<Option<MiningStats>, CliError> {
    use ppm_observe::Json;

    let appends: usize = args.required_parsed("compare-incremental")?;
    if appends == 0 {
        return Err(CliError::Usage(
            "--compare-incremental needs at least 1 appended segment".into(),
        ));
    }
    let bench_name = if args.switch("bench-report") {
        let name = args.required("bench-report")?;
        if name.is_empty() || name.contains('/') || name.contains('\\') || name.contains("..") {
            return Err(CliError::Usage(format!(
                "--bench-report name {name:?} must be a bare file-name fragment"
            )));
        }
        Some(name)
    } else {
        None
    };
    let reader = ColumnarReader::open(input)?;
    let view = reader.view();
    let m = view.len() / period;
    if m <= appends {
        return Err(CliError::Usage(format!(
            "--compare-incremental {appends} needs more than {appends} whole \
             segments; {input} holds {m} at period {period}"
        )));
    }

    // Cold baseline: one full derive over the final state.
    let start = std::time::Instant::now();
    let cold = report_if_aborted(
        ppm_core::vertical::mine_vertical_view(view, period, config),
        out,
    )?;
    let cold_us = (start.elapsed().as_micros() as u64).max(1);

    // Incremental: warm the index over the first m-N segments (that derive
    // seeds the carried baseline and is not timed), then append the last N
    // one at a time, timing each dirty re-mine.
    let mut index = IncrementalVerticalIndex::new(period, None);
    for seg in 0..m - appends {
        index.append_from_view(view, seg);
    }
    report_if_aborted(index.rederive_dirty(config), out)?;
    let mut times_us: Vec<u64> = Vec::with_capacity(appends);
    let mut last = None;
    for seg in m - appends..m {
        index.append_from_view(view, seg);
        let start = std::time::Instant::now();
        let result = report_if_aborted(index.rederive_dirty(config), out)?;
        times_us.push((start.elapsed().as_micros() as u64).max(1));
        last = Some(result);
    }
    let last = last.expect("appends >= 1");
    times_us.sort_unstable();
    let median_us = times_us[appends / 2];
    let p90_us = times_us[(appends * 9) / 10];
    let speedup = cold_us as f64 / median_us as f64;
    let identical = same_patterns(&last, &cold);

    writeln!(
        out,
        "compare-incremental: {appends} appended segments over {m} (period {period}, \
         {} patterns)",
        last.len()
    )?;
    writeln!(out, "  cold full mine:      {cold_us} µs")?;
    writeln!(
        out,
        "  incremental re-mine: median {median_us} µs, p90 {p90_us} µs"
    )?;
    writeln!(out, "  speedup:             {speedup:.1}x")?;
    writeln!(
        out,
        "  final state vs cold: {}",
        if identical {
            "bit-identical"
        } else {
            "MISMATCH"
        }
    )?;
    if !identical {
        return Err(CliError::Audit(
            "incremental result diverged from the cold mine".into(),
        ));
    }
    if let Some(name) = bench_name {
        let doc = Json::Obj(vec![
            ("type".to_owned(), Json::Str("bench".to_owned())),
            ("name".to_owned(), Json::Str(name.to_owned())),
            ("engine".to_owned(), Json::Str("incremental".to_owned())),
            ("period".to_owned(), Json::from_usize(period)),
            ("min_conf".to_owned(), Json::Num(min_conf)),
            ("segments".to_owned(), Json::from_usize(m)),
            (
                "incremental_compare".to_owned(),
                Json::Obj(vec![
                    ("cold_us".to_owned(), Json::from_u64(cold_us)),
                    ("median_us".to_owned(), Json::from_u64(median_us)),
                    ("p90_us".to_owned(), Json::from_u64(p90_us)),
                    ("appends".to_owned(), Json::from_usize(appends)),
                    ("speedup".to_owned(), Json::Num(speedup)),
                ]),
            ),
        ]);
        let path = format!("BENCH_{name}.json");
        std::fs::write(&path, format!("{}\n", doc.render()))?;
        writeln!(out, "bench report written to {path}")?;
    }
    Ok(Some(last.stats))
}

/// Alphabet-order-independent result equality: same segment denominator,
/// same pattern count, and every pattern of `a` present in `b` with the
/// same exact frequency (looked up through the symbolic form, so differing
/// alphabet orderings cannot mask or fake a match).
fn same_patterns(a: &MiningResult, b: &MiningResult) -> bool {
    a.segment_count == b.segment_count
        && a.frequent.len() == b.frequent.len()
        && a.patterns()
            .all(|(pattern, count, _)| b.count_of(&pattern) == Some(count))
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

/// Runs the full verification stack on a mined result: structural
/// invariants, the differential oracle's recount, and the cross-algorithm
/// diff. Violations are printed and surface as [`CliError::Audit`]
/// (exit code 1) so pipelines fail loudly on a wrong answer.
fn run_audit(
    series: &FeatureSeries,
    result: &MiningResult,
    catalog: &FeatureCatalog,
    period: usize,
    config: &MineConfig,
    mode: AuditMode,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let report = audit::audit(series, result, catalog, mode)?;
    let check = audit::cross_check(series, period, config, catalog)?;
    finish_audit(report, check, out)
}

/// [`run_audit`] for a result mined off a borrowed columnar view: the
/// cross-engine diff runs straight off the packed rows
/// ([`audit::cross_check_view`] — hit-set, Apriori, vertical, plus the
/// scalar-kernel and force-sharded vertical arms); the recount oracle
/// needs raw instants, so the view is rebuilt into a series just for
/// that check.
fn run_audit_view(
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
    use crate::cmd::testutil::{run_cli, sample_series_file};

    #[test]
    fn mines_the_sample() {
        let path = sample_series_file("ppms");
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
    fn all_algorithms_agree_in_output_counts() {
        let path = sample_series_file("ppms");
        let base = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6",
            path.display()
        ))
        .unwrap();
        let first_line = base.lines().next().unwrap().to_owned();
        for algo in ["apriori", "parallel", "vertical"] {
            let text = run_cli(&format!(
                "mine --input {} --period 3 --min-conf 0.6 --engine {algo}",
                path.display()
            ))
            .unwrap();
            let n = |s: &str| s.split(' ').next().unwrap().to_owned();
            assert_eq!(
                n(text.lines().next().unwrap()),
                n(&first_line),
                "{algo} disagrees"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn maximal_mode() {
        let path = sample_series_file("ppms");
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
        let path = sample_series_file("ppms");
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
        let path = sample_series_file("ppms");
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
        let path = sample_series_file("ppms");
        let text = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --closed",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("closed patterns"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn stream_mode_mines_out_of_core() {
        let path = sample_series_file("ppmstream");
        let text = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --stream",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("streamed 2 file scans"), "{text}");
        assert!(text.contains("alpha"), "{text}");
        // Apriori streams too, with more scans.
        let text = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --stream --algorithm apriori",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("file scans"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn stream_mode_requires_stream_format() {
        let path = sample_series_file("ppms");
        let err = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --stream",
            path.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_algorithm_is_usage_error() {
        let path = sample_series_file("ppms");
        for flag in ["--algorithm magic", "--engine magic"] {
            let err = run_cli(&format!(
                "mine --input {} --period 3 --min-conf 0.6 {flag}",
                path.display()
            ))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{flag}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn engine_and_algorithm_together_is_usage_error() {
        let path = sample_series_file("ppms");
        let err = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --engine vertical --algorithm hitset",
            path.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn vertical_engine_mines_with_two_scans_and_threads() {
        let path = sample_series_file("ppms");
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
        let threaded = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --engine vertical --threads 3",
            path.display()
        ))
        .unwrap();
        assert_eq!(base, threaded, "threaded vertical must agree too");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn kernel_flag_changes_no_output() {
        let path = sample_series_file("ppms");
        let base = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --engine vertical",
            path.display()
        ))
        .unwrap();
        for kernel in ["auto", "scalar", "wide"] {
            let text = run_cli(&format!(
                "mine --input {} --period 3 --min-conf 0.6 --engine vertical --kernel {kernel}",
                path.display()
            ))
            .unwrap();
            assert_eq!(base, text, "--kernel {kernel} changed the patterns");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_or_valueless_kernel_is_usage_error() {
        let path = sample_series_file("ppms");
        for extra in ["--kernel avx512", "--kernel"] {
            let err = run_cli(&format!(
                "mine --input {} --period 3 --min-conf 0.6 --engine vertical {extra}",
                path.display()
            ))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{extra}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn columnar_vertical_with_threads_mines_identically() {
        let ppmc = sample_series_file("ppmc");
        let base = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --engine vertical",
            ppmc.display()
        ))
        .unwrap();
        let sharded = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --engine vertical --threads 4",
            ppmc.display()
        ))
        .unwrap();
        assert_eq!(base, sharded, "sharded view mine must agree");
        std::fs::remove_file(ppmc).ok();
    }

    #[test]
    fn retries_flag_streams_like_the_plain_path() {
        let path = sample_series_file("ppmstream");
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
        let path = sample_series_file("ppms");
        let argv: Vec<String> = format!(
            "mine --input {} --period 3 --min-conf 0.6 --deadline-ms 0",
            path.display()
        )
        .split_whitespace()
        .map(str::to_owned)
        .collect();
        let mut out = Vec::new();
        let err = crate::run(&argv, &mut out).unwrap_err();
        // Guard trips have their own exit code: partial result, not failure.
        assert_eq!(err.exit_code(), 3);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("mining aborted"), "{text}");
        assert!(text.contains("partial progress"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn valueless_resilience_flags_are_usage_errors() {
        // A forgotten value must not silently disable the guard/retry the
        // user asked for.
        let ppms = sample_series_file("ppms");
        let stream = sample_series_file("ppmstream");
        for cmd in [
            format!(
                "mine --input {} --period 3 --min-conf 0.6 --deadline-ms",
                ppms.display()
            ),
            format!(
                "mine --input {} --period 3 --min-conf 0.6 --max-tree-nodes",
                ppms.display()
            ),
            format!(
                "mine --input {} --period 3 --min-conf 0.6 --stream --retries",
                stream.display()
            ),
            format!(
                "sweep --input {} --from 2 --to 4 --min-conf 0.6 --checkpoint",
                ppms.display()
            ),
        ] {
            let err = run_cli(&cmd).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{cmd}");
        }
        std::fs::remove_file(ppms).ok();
        std::fs::remove_file(stream).ok();
    }

    #[test]
    fn generous_guards_change_nothing() {
        let path = sample_series_file("ppms");
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

        let path = sample_series_file("ppms");
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

        let path = sample_series_file("ppms");
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
        let path = sample_series_file("ppms");
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
        let path = sample_series_file("ppms");
        let err = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --metrics-out",
            path.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn audit_full_is_clean_for_all_algorithms() {
        let path = sample_series_file("ppms");
        for algo in ["hitset", "apriori", "parallel", "vertical"] {
            let text = run_cli(&format!(
                "mine --input {} --period 3 --min-conf 0.6 --engine {algo} --audit full",
                path.display()
            ))
            .unwrap();
            assert!(text.contains("audit: clean"), "{algo}: {text}");
            assert!(text.contains("cross-check: 7 engines"), "{algo}: {text}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sampled_audit_is_clean_and_says_so() {
        let path = sample_series_file("ppms");
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
        let path = sample_series_file("ppms");
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
        let path = sample_series_file("ppms");
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
        let path = sample_series_file("ppms");
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
        let path = sample_series_file("ppms");
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
        let path = sample_series_file("ppmstream");
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
        let path = sample_series_file("ppms");
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

    #[test]
    fn columnar_input_mines_identically_on_every_view_engine() {
        let ppms = sample_series_file("ppms");
        let ppmc = sample_series_file("ppmc");
        for engine in ["hitset", "apriori", "vertical"] {
            let from_binary = run_cli(&format!(
                "mine --input {} --period 3 --min-conf 0.6 --engine {engine}",
                ppms.display()
            ))
            .unwrap();
            let from_columnar = run_cli(&format!(
                "mine --input {} --period 3 --min-conf 0.6 --engine {engine}",
                ppmc.display()
            ))
            .unwrap();
            assert_eq!(from_binary, from_columnar, "{engine}");
        }
        std::fs::remove_file(ppms).ok();
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

    #[test]
    fn columnar_input_materializes_for_instant_modes() {
        let path = sample_series_file("ppmc");
        let text = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --maximal",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("maximal patterns"), "{text}");
        let text = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --quarantine",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("quarantined 0 instants"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn compare_incremental_reports_identity_and_writes_the_bench() {
        let path = sample_series_file("ppmc");
        let name = format!("test-inc-{}", std::process::id());
        let text = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 0.6 --compare-incremental 5 \
             --bench-report {name}",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("5 appended segments over 30"), "{text}");
        assert!(text.contains("bit-identical"), "{text}");
        assert!(text.contains("speedup"), "{text}");
        let report = format!("BENCH_{name}.json");
        let raw = std::fs::read_to_string(&report).unwrap();
        let doc = ppm_observe::Json::parse(&raw).unwrap();
        let compare = doc.get("incremental_compare").unwrap();
        assert_eq!(compare.get("appends").unwrap().as_u64(), Some(5));
        assert!(compare.get("cold_us").unwrap().as_u64().unwrap() >= 1);
        assert!(compare.get("median_us").unwrap().as_u64().unwrap() >= 1);
        assert!(compare.get("speedup").is_some(), "{raw}");
        std::fs::remove_file(report).ok();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn follow_and_compare_incremental_flag_combinations_are_usage_errors() {
        let ppms = sample_series_file("ppms");
        let ppmc = sample_series_file("ppmc");
        for (file, extra) in [
            (&ppms, "--compare-incremental 5"),  // needs .ppmc
            (&ppms, "--follow"),                 // needs .ppmc
            (&ppmc, "--compare-incremental 0"),  // at least 1 append
            (&ppmc, "--compare-incremental 30"), // needs a warm prefix
            (&ppmc, "--compare-incremental 5 --follow"),
            (&ppmc, "--compare-incremental 5 --tsv"),
            (&ppmc, "--compare-incremental 5 --audit full"),
            (&ppmc, "--compare-incremental 5 --bench-report a/b"),
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
        std::fs::remove_file(ppms).ok();
        std::fs::remove_file(ppmc).ok();
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
            "mine --input {} --period 3 --min-conf 0.6 --follow --window 10 \
             --follow-poll-ms 10 --follow-max-updates 1",
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
        let path = sample_series_file("ppms");
        let err = run_cli(&format!(
            "mine --input {} --period 3 --min-conf 7",
            path.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 1);
        std::fs::remove_file(path).ok();
    }
}
