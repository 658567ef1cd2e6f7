//! `ppm sweep` — multi-period mining over a range (Algs 3.3/3.4).
//!
//! Every engine shares **one** encode/load: columnar (`.ppmc`) input opens
//! straight into the bitmap rows; text is bit-packed once, and every
//! period mines from that borrowed view. The hit-set engine interleaves
//! all periods in two scans (Alg 3.4); the other engines mine one period
//! per task (Alg 3.3) through [`ppm_core::multi::mine_periods_scheduled`],
//! inline by default, or on a pool of `--workers N` claiming periods from
//! one shared counter.
//!
//! With `--checkpoint FILE` the sweep mines one period at a time with the
//! hit-set engine (the looping strategy of Alg 3.3), records each
//! completed period in the checkpoint, and on a rerun resumes without
//! re-mining anything already recorded — unless the input's content
//! changed, which the checkpoint's fingerprint catches. Resource-guard
//! aborts (`--deadline-ms`, `--max-tree-nodes`) degrade gracefully: the
//! periods mined so far are reported and kept in the checkpoint instead of
//! the whole run dying.

use std::io::Write;

use ppm_core::multi::{
    mine_periods_scheduled, mine_periods_shared_view, MultiPeriodResult, PeriodRange,
};
use ppm_core::{run as run_engine, Engine, MineConfig, StatsRollup};
use ppm_timeseries::columnar::ColumnarReader;
use ppm_timeseries::{fnv64, storage, EncodedSeries, EncodedSeriesView, FeatureCatalog};

use crate::args::Parsed;
use crate::checkpoint::{PeriodRow, SweepCheckpoint};
use crate::error::CliError;
use crate::obs::{rollup_json, ObsSetup};

/// The flags `ppm sweep` accepts; any other is a usage error.
pub(crate) const FLAGS: &[&str] = &[
    "input from to min-conf engine workers checkpoint",
    super::GUARD_FLAGS,
    crate::obs::FLAGS,
];

/// Runs the command. `--trace` / `--metrics-out` work as for `mine`; the
/// metrics summary carries the cross-period stats rollup.
pub fn run(args: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let obs = ObsSetup::from_args(args)?;
    let guard = obs.install();
    let outcome = run_inner(args, out);
    drop(guard);
    obs.finalize_with_extra(
        outcome
            .as_ref()
            .map(|rollup| ("stats_rollup".to_owned(), rollup_json(rollup)))
            .into_iter()
            .collect(),
        out,
    )?;
    outcome.map(|_| ())
}

/// The sweep body; returns the stats rollup for the metrics summary.
fn run_inner(args: &Parsed, out: &mut dyn Write) -> Result<StatsRollup, CliError> {
    let input = args.required("input")?;
    let from: usize = args.required_parsed("from")?;
    let to: usize = args.required_parsed("to")?;
    let min_conf: f64 = args.required_parsed("min-conf")?;

    let engine = super::parse_engine(args)?;
    if engine != Engine::HitSet && args.switch("checkpoint") {
        return Err(CliError::Usage(format!(
            "--checkpoint is a hit-set sweep mode; it does not combine with --engine {engine}"
        )));
    }
    let workers: usize = if args.switch("workers") {
        let w: usize = args.required_parsed("workers")?;
        if w == 0 {
            return Err(CliError::Usage("--workers must be at least 1".into()));
        }
        w
    } else {
        1
    };
    if workers > 1 && args.switch("checkpoint") {
        return Err(CliError::Usage(
            "--workers runs the shared-counter scheduler; it does not \
             combine with --checkpoint"
                .into(),
        ));
    }

    let config = super::apply_guards(args, MineConfig::new(min_conf)?)?;
    let range = PeriodRange::new(from, to)?;
    let checkpoint = if args.switch("checkpoint") {
        Some(args.required("checkpoint")?)
    } else {
        None
    };

    // One-time encode/load shared by EVERY engine and the checkpointed
    // sweep: a columnar file opens straight into the bitmap rows (the
    // on-disk layout is the encoded layout); text is parsed and
    // bit-packed exactly once, here, never again per period. The
    // fingerprint is what a checkpoint records of the input's content.
    let reader_slot;
    let encoded_slot;
    let (view, fingerprint): (EncodedSeriesView<'_>, u64) = match super::format_of(input)? {
        super::Format::Columnar => {
            reader_slot = ColumnarReader::open(input)?;
            (reader_slot.view(), reader_slot.fingerprint())
        }
        super::Format::Text => {
            let text = std::fs::read_to_string(input)?;
            let series = storage::parse_series(&text, &mut FeatureCatalog::new())?;
            encoded_slot = EncodedSeries::encode(&series);
            (encoded_slot.view(), fnv64(text.as_bytes()))
        }
    };

    if let Some(checkpoint_path) = checkpoint {
        return run_checkpointed(
            input,
            fingerprint,
            from,
            to,
            min_conf,
            checkpoint_path,
            view,
            &config,
            out,
        );
    }

    let (result, how) = match engine {
        Engine::HitSet if workers == 1 => (
            mine_periods_shared_view(view, range, &config)?,
            "shared, Alg 3.4".to_owned(),
        ),
        _ => (
            mine_periods_scheduled(view, range, &config, engine, workers)?,
            match engine {
                _ if workers > 1 => format!("shared-counter scheduler, {workers} workers"),
                Engine::Apriori => "looping Apriori, Alg 3.3/3.1".to_owned(),
                _ => "vertical bitmap engine".to_owned(),
            },
        ),
    };
    let result = fail_aborted_periods(result, from, to, out)?;
    writeln!(
        out,
        "periods {from}..={to}, min_conf {min_conf}, {} total series scans ({how}):",
        result.total_scans,
    )?;
    let (rollup, rows) = tabulate(&result);
    print_table(&rows, out)?;
    Ok(rollup)
}

/// Folds a multi-period result into the stats rollup and the report rows.
fn tabulate(result: &MultiPeriodResult) -> (StatsRollup, Vec<PeriodRow>) {
    let mut rollup = StatsRollup::new();
    let rows = result
        .results
        .iter()
        .map(|r| {
            rollup.add(&r.stats);
            PeriodRow {
                period: r.period,
                patterns: r.len(),
                f1: r.alphabet.len(),
                max_len: r.max_l_length(),
                scans: r.stats.series_scans,
            }
        })
        .collect();
    (rollup, rows)
}

/// Scheduled sweeps fail only the periods that trip a resource guard: the
/// completed periods still print, the aborted ones are named with their
/// partial progress, and the process exits with the partial-result code.
fn fail_aborted_periods(
    mut result: MultiPeriodResult,
    from: usize,
    to: usize,
    out: &mut dyn Write,
) -> Result<MultiPeriodResult, CliError> {
    if result.failures.is_empty() {
        return Ok(result);
    }
    for f in &result.failures {
        writeln!(out, "period {} aborted: {}", f.period, f.error)?;
        if let Some(stats) = f.error.partial_stats() {
            writeln!(
                out,
                "  partial progress: {} series scans, {} tree nodes, {} hit insertions",
                stats.series_scans, stats.tree_nodes, stats.hit_insertions
            )?;
        }
    }
    writeln!(
        out,
        "periods {from}..={to}: {} completed, {} aborted by resource guards; \
         raise --deadline-ms / --max-tree-nodes to finish:",
        result.results.len(),
        result.failures.len()
    )?;
    print_table(&tabulate(&result).1, out)?;
    Err(CliError::Mining(result.failures.swap_remove(0).error))
}

/// The shared per-period summary table, plus the densest period.
fn print_table(rows: &[PeriodRow], out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(
        out,
        "{:>8} {:>10} {:>9} {:>14}",
        "period", "patterns", "|F1|", "max pattern"
    )?;
    for r in rows {
        writeln!(
            out,
            "{:>8} {:>10} {:>9} {:>14}",
            r.period, r.patterns, r.f1, r.max_len
        )?;
    }
    if let Some(best) = rows.iter().max_by_key(|r| r.patterns) {
        writeln!(out, "densest period: {}", best.period)?;
    }
    Ok(())
}

/// A checkpointed sweep: one period at a time from `view`, resuming from
/// (and updating) the checkpoint after every completed period. The
/// returned rollup covers only the periods mined *now* — checkpoint rows
/// carry summary columns, not full stats.
#[allow(clippy::too_many_arguments)]
fn run_checkpointed(
    input: &str,
    fingerprint: u64,
    from: usize,
    to: usize,
    min_conf: f64,
    checkpoint_path: &str,
    view: EncodedSeriesView<'_>,
    config: &MineConfig,
    out: &mut dyn Write,
) -> Result<StatsRollup, CliError> {
    let mut checkpoint = match SweepCheckpoint::load(checkpoint_path)? {
        Some(mut cp) if cp.matches(input, fingerprint, min_conf, from, to) => {
            ppm_observe::mark("checkpoint.resumed", || {
                format!(
                    "resumed {checkpoint_path} with {} periods already mined",
                    cp.rows.len()
                )
            });
            writeln!(
                out,
                "resuming from checkpoint {checkpoint_path}: {} of {} periods already mined",
                cp.rows.len(),
                to - from + 1
            )?;
            // A v1/v2 checkpoint adopts the fingerprint it lacked.
            cp.fingerprint = Some(fingerprint);
            cp
        }
        Some(_) => {
            return Err(CliError::Usage(format!(
                "checkpoint {checkpoint_path} was written by a different sweep \
                 (input, input content, min-conf, or range mismatch); delete it or \
                 choose another path"
            )))
        }
        None => SweepCheckpoint::new(input, fingerprint, min_conf, from, to),
    };

    let mut rollup = StatsRollup::new();
    let mut mined_now = 0usize;
    let mut aborted: Option<ppm_core::Error> = None;
    for period in from..=to {
        if checkpoint.row_for(period).is_some() {
            continue;
        }
        match run_engine(Engine::HitSet, view, period, config) {
            Ok(r) => {
                rollup.add(&r.stats);
                checkpoint.record(PeriodRow {
                    period,
                    patterns: r.len(),
                    f1: r.alphabet.len(),
                    max_len: r.max_l_length(),
                    scans: r.stats.series_scans,
                });
                checkpoint.save(checkpoint_path)?;
                ppm_observe::mark("checkpoint.saved", || {
                    format!("period {period} recorded in {checkpoint_path}")
                });
                mined_now += 1;
            }
            // Resource-guard aborts degrade: keep what we have, stop early.
            Err(e) if e.partial_stats().is_some() => {
                aborted = Some(e);
                break;
            }
            Err(e) => return Err(e.into()),
        }
    }

    let total_scans: usize = checkpoint.rows.iter().map(|r| r.scans).sum();
    writeln!(
        out,
        "periods {from}..={to}, min_conf {min_conf}, {total_scans} total series scans \
         (checkpointed looping; {mined_now} mined now, {} from checkpoint):",
        checkpoint.rows.len() - mined_now
    )?;
    print_table(&checkpoint.rows, out)?;

    match aborted {
        Some(e) => {
            // Persist the header even if no period completed, so the rerun
            // message below is honest and resume Just Works.
            checkpoint.save(checkpoint_path)?;
            writeln!(out, "sweep aborted early: {e}")?;
            writeln!(
                out,
                "{} of {} periods completed; progress saved in {checkpoint_path} — \
                 rerun the same command to resume",
                checkpoint.rows.len(),
                to - from + 1
            )?;
        }
        None => {
            writeln!(
                out,
                "sweep complete; checkpoint retained at {checkpoint_path}"
            )?;
        }
    }
    Ok(rollup)
}

#[cfg(test)]
mod tests {
    use crate::checkpoint::{PeriodRow, SweepCheckpoint};
    use crate::cmd::testutil::{
        assert_rejects_flag, run_cli, sample_series_file, sweep_table, temp_path,
    };
    use ppm_core::Engine;
    use ppm_observe::Json;

    /// The summary line of a `--metrics-out` file.
    fn metrics_summary(path: &std::path::Path) -> Json {
        let raw = std::fs::read_to_string(path).unwrap();
        Json::parse(raw.lines().last().unwrap()).unwrap()
    }

    #[test]
    fn shared_sweep_reports_two_scans() {
        let path = sample_series_file("txt");
        let text = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("2 total series scans"), "{text}");
        // Period 6 (a multiple of the planted 3) sees the letters twice
        // per segment, so it is densest; period 3 itself has 3 patterns.
        assert!(text.contains("densest period: 6"), "{text}");
        let p3 = text
            .lines()
            .find(|l| l.trim_start().starts_with("3 "))
            .unwrap();
        assert!(p3.contains(" 3 "), "{p3}");
        std::fs::remove_file(path).ok();
    }

    /// The engines other than the hit set loop over the periods (Alg
    /// 3.3), so their scans add up: two per period for the vertical
    /// engine, one per level for Apriori.
    #[test]
    fn looping_sweep_scales_scans() {
        let path = sample_series_file("txt");
        let text = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine vertical",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("10 total series scans"), "{text}");
        let text = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine apriori",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("looping Apriori"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn inverted_range_is_rejected() {
        let path = sample_series_file("txt");
        let err = run_cli(&format!(
            "sweep --input {} --from 6 --to 2 --min-conf 0.6",
            path.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn checkpointed_sweep_matches_looping_sweep() {
        let path = sample_series_file("txt");
        let ckpt = temp_path("sweep-clean", "ckpt");
        let text = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --checkpoint {}",
            path.display(),
            ckpt.display()
        ))
        .unwrap();
        assert!(text.contains("10 total series scans"), "{text}");
        assert!(text.contains("5 mined now, 0 from checkpoint"), "{text}");
        assert!(text.contains("sweep complete"), "{text}");
        assert!(text.contains("densest period: 6"), "{text}");
        let looping = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine vertical",
            path.display()
        ))
        .unwrap();
        assert_eq!(sweep_table(&text), sweep_table(&looping));
        let cp = SweepCheckpoint::load(ckpt.to_str().unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(cp.rows.len(), 5);
        std::fs::remove_file(path).ok();
        std::fs::remove_file(ckpt).ok();
    }

    #[test]
    fn resumed_sweep_skips_completed_periods() {
        let path = sample_series_file("txt");
        let ckpt = temp_path("sweep-resume", "ckpt");
        // Seed the checkpoint with a sentinel row for period 2: its pattern
        // count (999) could never come from actual mining, so seeing it in
        // the resumed run's report proves period 2 was NOT re-mined.
        let text = std::fs::read(&path).unwrap();
        let fingerprint = ppm_timeseries::fnv64(&text);
        let mut cp = SweepCheckpoint::new(path.to_str().unwrap(), fingerprint, 0.6, 2, 6);
        cp.record(PeriodRow {
            period: 2,
            patterns: 999,
            f1: 1,
            max_len: 1,
            scans: 2,
        });
        cp.save(ckpt.to_str().unwrap()).unwrap();

        let text = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --checkpoint {}",
            path.display(),
            ckpt.display()
        ))
        .unwrap();
        assert!(text.contains("resuming from checkpoint"), "{text}");
        assert!(text.contains("1 of 5 periods already mined"), "{text}");
        assert!(text.contains("4 mined now, 1 from checkpoint"), "{text}");
        assert!(text.contains("999"), "sentinel row must survive: {text}");
        std::fs::remove_file(path).ok();
        std::fs::remove_file(ckpt).ok();
    }

    #[test]
    fn mismatched_checkpoint_is_rejected() {
        let path = sample_series_file("txt");
        let ckpt = temp_path("sweep-mismatch", "ckpt");
        let cp = SweepCheckpoint::new("some-other-input.txt", 0, 0.6, 2, 6);
        cp.save(ckpt.to_str().unwrap()).unwrap();
        let err = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --checkpoint {}",
            path.display(),
            ckpt.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("different sweep"), "{err}");
        std::fs::remove_file(path).ok();
        std::fs::remove_file(ckpt).ok();
    }

    #[test]
    fn sweep_metrics_summary_carries_the_rollup() {
        let path = sample_series_file("txt");
        let metrics = temp_path("sweep-metrics", "json");
        run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine vertical --metrics-out {}",
            path.display(),
            metrics.display()
        ))
        .unwrap();
        let raw = std::fs::read_to_string(&metrics).unwrap();
        let summary = Json::parse(raw.lines().last().unwrap()).unwrap();
        assert_eq!(summary.get("type").unwrap().as_str(), Some("summary"));
        let rollup = summary.get("stats_rollup").unwrap();
        assert_eq!(rollup.get("runs").unwrap().as_u64(), Some(5));
        // Looping (Alg 3.3): 2 scans per period, summed in the total.
        assert_eq!(
            rollup
                .get("total")
                .unwrap()
                .get("series_scans")
                .unwrap()
                .as_u64(),
            Some(10)
        );
        std::fs::remove_file(path).ok();
        std::fs::remove_file(metrics).ok();
    }

    #[test]
    fn checkpointed_sweep_emits_checkpoint_marks() {
        let path = sample_series_file("txt");
        let ckpt = temp_path("sweep-marks", "ckpt");
        let metrics = temp_path("sweep-marks-metrics", "json");
        run_cli(&format!(
            "sweep --input {} --from 2 --to 3 --min-conf 0.6 --checkpoint {} --metrics-out {}",
            path.display(),
            ckpt.display(),
            metrics.display()
        ))
        .unwrap();
        let raw = std::fs::read_to_string(&metrics).unwrap();
        let summary = Json::parse(raw.lines().last().unwrap()).unwrap();
        let marks = summary.get("marks").unwrap();
        assert_eq!(
            marks.get("checkpoint.saved").and_then(Json::as_u64),
            Some(2),
            "{raw}"
        );

        // Resuming the finished sweep emits the resume mark.
        let metrics2 = temp_path("sweep-marks-metrics2", "json");
        run_cli(&format!(
            "sweep --input {} --from 2 --to 3 --min-conf 0.6 --checkpoint {} --metrics-out {}",
            path.display(),
            ckpt.display(),
            metrics2.display()
        ))
        .unwrap();
        let raw = std::fs::read_to_string(&metrics2).unwrap();
        let summary = Json::parse(raw.lines().last().unwrap()).unwrap();
        assert_eq!(
            summary
                .get("marks")
                .unwrap()
                .get("checkpoint.resumed")
                .and_then(Json::as_u64),
            Some(1),
            "{raw}"
        );
        std::fs::remove_file(path).ok();
        std::fs::remove_file(ckpt).ok();
        std::fs::remove_file(metrics).ok();
        std::fs::remove_file(metrics2).ok();
    }

    #[test]
    fn vertical_sweep_reports_the_same_table_as_shared() {
        let path = sample_series_file("txt");
        let shared = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6",
            path.display()
        ))
        .unwrap();
        let vertical = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine vertical",
            path.display()
        ))
        .unwrap();
        assert!(vertical.contains("vertical bitmap engine"), "{vertical}");
        // Same per-period table, different engine line: compare from the
        // table header down.
        let table = |s: &str| {
            s.lines()
                .skip_while(|l| !l.contains("patterns"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(table(&shared), table(&vertical));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn vertical_engine_flag_combinations_are_usage_errors() {
        let path = sample_series_file("txt");
        let ckpt = temp_path("sweep-vertical-ckpt", "ckpt");
        for extra in [
            format!("--engine vertical --checkpoint {}", ckpt.display()),
            "--engine parallel".to_owned(),
        ] {
            let err = run_cli(&format!(
                "sweep --input {} --from 2 --to 6 --min-conf 0.6 {extra}",
                path.display()
            ))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{extra}: {err}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn columnar_sweep_matches_text_sweep_on_every_engine() {
        let txt = sample_series_file("txt");
        let ppmc = sample_series_file("ppmc");
        for extra in ["", "--engine apriori", "--engine vertical", "--workers 2"] {
            let from_text = run_cli(&format!(
                "sweep --input {} --from 2 --to 6 --min-conf 0.6 {extra}",
                txt.display()
            ))
            .unwrap();
            let from_columnar = run_cli(&format!(
                "sweep --input {} --from 2 --to 6 --min-conf 0.6 {extra}",
                ppmc.display()
            ))
            .unwrap();
            assert_eq!(from_text, from_columnar, "{extra}");
        }
        std::fs::remove_file(txt).ok();
        std::fs::remove_file(ppmc).ok();
    }

    #[test]
    fn workers_sweep_matches_the_sequential_table() {
        let path = sample_series_file("txt");
        for engine in Engine::ALL {
            let sequential = run_cli(&format!(
                "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine {engine}",
                path.display()
            ))
            .unwrap();
            let scheduled = run_cli(&format!(
                "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine {engine} --workers 3",
                path.display()
            ))
            .unwrap();
            assert!(
                scheduled.contains("shared-counter scheduler, 3 workers"),
                "{scheduled}"
            );
            let table = |s: &str| {
                s.lines()
                    .skip_while(|l| !l.contains("patterns"))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(table(&sequential), table(&scheduled), "{engine}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn workers_flag_combinations_are_usage_errors() {
        let path = sample_series_file("txt");
        let ckpt = temp_path("sweep-workers-ckpt", "ckpt");
        for extra in [
            format!("--workers 2 --checkpoint {}", ckpt.display()),
            "--workers 0".to_owned(),
            "--workers".to_owned(),
        ] {
            let err = run_cli(&format!(
                "sweep --input {} --from 2 --to 6 --min-conf 0.6 {extra}",
                path.display()
            ))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{extra}: {err}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn deadline_abort_degrades_and_keeps_progress() {
        let path = sample_series_file("txt");
        let ckpt = temp_path("sweep-deadline", "ckpt");
        // A zero deadline aborts on the very first period, but the command
        // still succeeds, reporting zero completed periods.
        let text = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --checkpoint {} --deadline-ms 0",
            path.display(),
            ckpt.display()
        ))
        .unwrap();
        assert!(text.contains("sweep aborted early"), "{text}");
        assert!(text.contains("0 of 5 periods completed"), "{text}");
        // Rerunning without the deadline finishes the job from the start.
        let text = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --checkpoint {}",
            path.display(),
            ckpt.display()
        ))
        .unwrap();
        assert!(text.contains("sweep complete"), "{text}");
        std::fs::remove_file(path).ok();
        std::fs::remove_file(ckpt).ok();
    }

    #[test]
    fn scheduled_guard_trips_fail_per_period_with_exit_3() {
        let path = sample_series_file("txt");
        // A zero deadline trips the guard in every scheduled task, on a
        // pool or inline at one worker; each period fails individually,
        // the failures are named with partial progress, and the process
        // exits with the partial-result code.
        for extra in ["--workers 3", "--engine vertical", "--engine apriori"] {
            let argv: Vec<String> = format!(
                "sweep --input {} --from 2 --to 6 --min-conf 0.6 --deadline-ms 0 {extra}",
                path.display()
            )
            .split_whitespace()
            .map(str::to_owned)
            .collect();
            let mut out = Vec::new();
            let err = crate::run(&argv, &mut out).unwrap_err();
            assert_eq!(err.exit_code(), 3, "{extra}");
            let text = String::from_utf8(out).unwrap();
            for period in 2..=6 {
                assert!(text.contains(&format!("period {period} aborted")), "{text}");
            }
            assert!(text.contains("partial progress"), "{text}");
            assert!(text.contains("0 completed, 5 aborted"), "{text}");
        }
        std::fs::remove_file(path).ok();
    }

    /// A checkpoint records its input's content fingerprint: after an
    /// append grows the store (or a text file is edited) under the same
    /// path, the checkpoint is refused instead of resuming rows mined
    /// from the old content.
    #[test]
    fn checkpoint_is_not_resumed_across_a_changed_input() {
        for ext in ["ppmc", "txt"] {
            let path = sample_series_file(ext);
            let ckpt = temp_path("sweep-changed", "ckpt");
            let sweep = format!(
                "sweep --input {} --from 2 --to 4 --min-conf 0.6 --checkpoint {}",
                path.display(),
                ckpt.display()
            );
            assert!(run_cli(&sweep).unwrap().contains("sweep complete"));
            // Unchanged, it resumes.
            assert!(run_cli(&sweep)
                .unwrap()
                .contains("3 of 3 periods already mined"));
            if ext == "ppmc" {
                run_cli(&format!(
                    "append --input {} --rows - --repeat 90",
                    path.display()
                ))
                .unwrap();
            } else {
                let mut text = std::fs::read_to_string(&path).unwrap();
                text.push_str("-\n".repeat(90).as_str());
                std::fs::write(&path, text).unwrap();
            }
            let err = run_cli(&sweep).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{ext}: {err}");
            assert!(err.to_string().contains("different sweep"), "{ext}: {err}");
            // A fresh sweep of the grown input mines it anew.
            std::fs::remove_file(&ckpt).ok();
            assert!(run_cli(&sweep).unwrap().contains("3 mined now"), "{ext}");
            std::fs::remove_file(path).ok();
            std::fs::remove_file(ckpt).ok();
        }
    }

    /// `--bench-report` left `ppm` with the races: next to a checkpoint or
    /// with a bad name alike it is a usage error naming the flag, raised
    /// before the checkpoint file is created.
    #[test]
    fn bench_report_rejects_checkpoint_and_bad_names() {
        let path = sample_series_file("txt");
        let ckpt = temp_path("sweep-bench-ckpt", "ckpt");
        for extra in [
            format!("--bench-report x --checkpoint {}", ckpt.display()),
            "--bench-report a/b".to_owned(),
            "--bench-report".to_owned(),
        ] {
            assert_rejects_flag(
                &format!(
                    "sweep --input {} --from 2 --to 6 --min-conf 0.6 {extra}",
                    path.display()
                ),
                "--bench-report",
            );
        }
        assert!(!ckpt.exists(), "rejected before any work");
        std::fs::remove_file(path).ok();
    }

    /// The text-vs-columnar ingest race runs in the `races` binary, so
    /// `--compare-ingest` is rejected. What the race cross-checks holds at
    /// the surface: a text store and its columnar twin sweep to the same
    /// table, and the columnar load records its mapped bytes.
    #[test]
    fn compare_ingest_races_text_against_columnar() {
        let txt = sample_series_file("txt");
        let ppmc = temp_path("sweep-ingest", "ppmc");
        let metrics = temp_path("sweep-ingest-metrics", "json");
        run_cli(&format!(
            "convert --input {} --out {}",
            txt.display(),
            ppmc.display()
        ))
        .unwrap();
        assert_rejects_flag(
            &format!(
                "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine vertical \
                 --compare-ingest {}",
                ppmc.display(),
                txt.display()
            ),
            "--compare-ingest",
        );
        let from_text = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine vertical",
            txt.display()
        ))
        .unwrap();
        let from_columnar = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine vertical --metrics-out {}",
            ppmc.display(),
            metrics.display()
        ))
        .unwrap();
        assert_eq!(sweep_table(&from_text), sweep_table(&from_columnar));
        assert!(sweep_table(&from_text).lines().count() > 5, "{from_text}");
        let summary = metrics_summary(&metrics);
        let gauges = summary.get("gauges").unwrap();
        let file_bytes = std::fs::metadata(&ppmc).unwrap().len();
        assert_eq!(
            gauges.get("columnar.file_bytes").and_then(Json::as_u64),
            Some(file_bytes),
            "{summary:?}"
        );
        assert!(gauges.get("columnar.mmap_bytes").is_none(), "{summary:?}");
        std::fs::remove_file(txt).ok();
        std::fs::remove_file(ppmc).ok();
        std::fs::remove_file(metrics).ok();
    }

    /// `--compare-ingest` is no longer a `sweep` flag on any input,
    /// columnar or not.
    #[test]
    fn compare_ingest_requires_columnar_input() {
        let txt = sample_series_file("txt");
        for ext in ["txt", "ppmc"] {
            let input = sample_series_file(ext);
            assert_rejects_flag(
                &format!(
                    "sweep --input {} --from 2 --to 6 --min-conf 0.6 --compare-ingest {}",
                    input.display(),
                    txt.display()
                ),
                "--compare-ingest",
            );
            std::fs::remove_file(input).ok();
        }
        std::fs::remove_file(txt).ok();
    }

    /// `--compare-kernel` and the `--threads` it alone read are rejected
    /// on every engine, the vertical one included.
    #[test]
    fn compare_kernel_requires_the_vertical_engine() {
        let path = sample_series_file("txt");
        for (extra, flag) in [
            ("--compare-kernel", "--compare-kernel"),
            ("--engine vertical --compare-kernel", "--compare-kernel"),
            ("--engine vertical --threads 2", "--threads"),
        ] {
            assert_rejects_flag(
                &format!(
                    "sweep --input {} --from 2 --to 6 --min-conf 0.6 {extra}",
                    path.display()
                ),
                flag,
            );
        }
        std::fs::remove_file(path).ok();
    }

    /// The scalar-vs-wide kernel race runs in the `races` binary, so its
    /// flags are rejected. The vertical sweep still records the kernel it
    /// counted with (1: wide).
    #[test]
    fn compare_kernel_sweep_records_the_kernel_race() {
        let path = sample_series_file("txt");
        let metrics = temp_path("sweep-kernel-metrics", "json");
        assert_rejects_flag(
            &format!(
                "sweep --input {} --from 2 --to 6 --min-conf 0.6 \
                 --engine vertical --compare-kernel",
                path.display()
            ),
            "--compare-kernel",
        );
        run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine vertical --metrics-out {}",
            path.display(),
            metrics.display()
        ))
        .unwrap();
        let summary = metrics_summary(&metrics);
        let gauges = summary.get("gauges").unwrap();
        assert_eq!(
            gauges.get("vertical.kernel").and_then(Json::as_u64),
            Some(1),
            "{summary:?}"
        );
        std::fs::remove_file(path).ok();
        std::fs::remove_file(metrics).ok();
    }

    /// The vertical-vs-tree-walk race runs in the `races` binary, so
    /// `--compare-tree` is rejected. The cross-check it printed holds at
    /// the surface: the vertical sweep matches the hit-set tree's table,
    /// and records its bitmap footprint.
    #[test]
    fn compare_tree_sweep_records_the_derivation_race() {
        let path = sample_series_file("txt");
        let metrics = temp_path("sweep-tree-metrics", "json");
        assert_rejects_flag(
            &format!(
                "sweep --input {} --from 2 --to 6 --min-conf 0.6 \
                 --engine vertical --compare-tree",
                path.display()
            ),
            "--compare-tree",
        );
        let tree = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine hitset",
            path.display()
        ))
        .unwrap();
        let vertical = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine vertical --metrics-out {}",
            path.display(),
            metrics.display()
        ))
        .unwrap();
        assert_eq!(sweep_table(&tree), sweep_table(&vertical));
        let summary = metrics_summary(&metrics);
        let gauges = summary.get("gauges").unwrap();
        assert!(gauges.get("vertical.bitmap_bytes").is_some(), "{summary:?}");
        std::fs::remove_file(path).ok();
        std::fs::remove_file(metrics).ok();
    }

    /// The scheduler-vs-sequential race runs in the `races` binary, so a
    /// `--workers` sweep rejects `--bench-report`. The scheduled sweep
    /// matches the sequential table, and its metrics carry the scheduler's
    /// worker count, busy time and task-time gauges.
    #[test]
    fn workers_bench_report_records_the_sweep_compare() {
        let path = sample_series_file("ppmc");
        let metrics = temp_path("sweep-workers-metrics", "json");
        assert_rejects_flag(
            &format!(
                "sweep --input {} --from 2 --to 6 --min-conf 0.6 \
                 --engine vertical --workers 2 --bench-report x",
                path.display()
            ),
            "--bench-report",
        );
        let sequential = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine vertical",
            path.display()
        ))
        .unwrap();
        let scheduled = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine vertical --workers 2 \
             --metrics-out {}",
            path.display(),
            metrics.display()
        ))
        .unwrap();
        assert_eq!(sweep_table(&sequential), sweep_table(&scheduled));
        let summary = metrics_summary(&metrics);
        let gauges = summary.get("gauges").unwrap();
        assert_eq!(
            gauges.get("sweep.workers").and_then(Json::as_u64),
            Some(2),
            "{summary:?}"
        );
        for gauge in ["sweep.worker_busy_us", "sweep.task_us_max"] {
            assert!(gauges.get(gauge).is_some(), "{gauge}: {summary:?}");
        }
        std::fs::remove_file(path).ok();
        std::fs::remove_file(metrics).ok();
    }
}
