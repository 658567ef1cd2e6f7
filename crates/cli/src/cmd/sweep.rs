//! `ppm sweep` — multi-period mining over a range (Algs 3.3/3.4).
//!
//! Every engine shares **one** encode/load: columnar (`.ppmc`) input opens
//! straight into the bitmap rows; other formats are bit-packed once and
//! every period mines from that borrowed view. `--workers N` replaces the
//! per-period loop with the work-stealing scheduler
//! ([`ppm_core::multi::mine_periods_scheduled`]).
//!
//! With `--checkpoint FILE` the sweep mines one period at a time (the
//! looping strategy of Alg 3.3), records each completed period in the
//! checkpoint, and on a rerun resumes without re-mining anything already
//! recorded. Resource-guard aborts (`--deadline-ms`, `--max-tree-nodes`)
//! degrade gracefully: the periods mined so far are reported and kept in
//! the checkpoint instead of the whole run dying.

use std::io::Write;
use std::time::Instant;

use ppm_core::hitset::derive::CountStrategy;
use ppm_core::multi::{
    mine_periods_looping_view, mine_periods_scheduled, mine_periods_shared_view, MultiPeriodResult,
    PeriodRange,
};
use ppm_core::vertical::mine_vertical_view;
use ppm_core::{hitset, Engine, MineConfig, Rows, StatsRollup};
use ppm_observe::Json;
use ppm_timeseries::columnar::ColumnarReader;
use ppm_timeseries::{storage, EncodedSeries, EncodedSeriesView, FeatureCatalog, FeatureSeries};

use crate::args::Parsed;
use crate::checkpoint::{PeriodRow, SweepCheckpoint};
use crate::error::CliError;
use crate::obs::{rollup_json, ObsSetup};

/// Runs the command. `--trace` / `--metrics-out` work as for `mine`;
/// `--bench-report NAME` additionally writes a stable `BENCH_NAME.json`
/// with per-phase wall-clock aggregates, peak tree size, and scan counts.
pub fn run(args: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let bench = if args.switch("bench-report") {
        let name = args.required("bench-report")?;
        if name.is_empty() || name.contains(['/', '\\']) {
            return Err(CliError::Usage(format!(
                "--bench-report name {name:?} must be a bare file-name fragment"
            )));
        }
        if args.switch("checkpoint") {
            return Err(CliError::Usage(
                "--bench-report cannot be combined with --checkpoint \
                 (checkpoint rows do not carry full per-phase stats)"
                    .into(),
            ));
        }
        Some(name.to_owned())
    } else {
        None
    };
    let obs = ObsSetup::from_args_with(args, bench.is_some())?;
    let guard = obs.install();
    let outcome = run_inner(args, out);
    drop(guard);
    let sweep = match &outcome {
        Ok(sweep) => Some(sweep.clone()),
        Err(_) => None,
    };
    obs.finalize_with_extra(
        sweep
            .as_ref()
            .map(|s| ("stats_rollup".to_owned(), rollup_json(&s.rollup)))
            .into_iter()
            .collect(),
        out,
    )?;
    if let (Some(name), Some(sweep)) = (&bench, &sweep) {
        write_bench_report(name, args, sweep, &obs, out)?;
    }
    outcome.map(|_| ())
}

/// What a sweep reports upward: the cross-period stats rollup plus the
/// number of *physical* series scans — for shared mining that is 2, while
/// the rollup's `total.series_scans` sums every period's logical count.
/// The optional comparison records land in the bench report.
#[derive(Clone)]
struct SweepOutcome {
    rollup: StatsRollup,
    physical_scans: usize,
    sweep_compare: Option<SweepCompare>,
    ingest_compare: Option<IngestCompare>,
    kernel_compare: Option<KernelCompare>,
}

impl SweepOutcome {
    fn new(rollup: StatsRollup, physical_scans: usize) -> Self {
        SweepOutcome {
            rollup,
            physical_scans,
            sweep_compare: None,
            ingest_compare: None,
            kernel_compare: None,
        }
    }
}

/// The scheduler-vs-sequential head-to-head (`--workers N --bench-report`):
/// one shared load feeding the work-stealing pool against the honest
/// per-period baseline that loads and encodes from scratch for every
/// period, exactly as a standalone `mine` per period would.
#[derive(Clone)]
struct SweepCompare {
    scheduler_us: u64,
    sequential_us: u64,
    workers: usize,
}

/// The ingest head-to-head (`--compare-ingest TEXTFILE`): text parse +
/// bit-pack against a columnar open that loads the rows as they sit on
/// disk. The two encodings are asserted bit-identical before timing wins.
#[derive(Clone)]
struct IngestCompare {
    text_us: u64,
    columnar_us: u64,
}

/// The kernel head-to-head (`--compare-kernel`, vertical only): each
/// period's derivation runs twice off the shared scans — scalar unsharded
/// vs wide + segment-sharded ([`ppm_core::vertical::kernel_race`]) — with
/// the frequent sets asserted identical before the summed wall-clocks are
/// trusted.
#[derive(Clone)]
struct KernelCompare {
    scalar_us: u64,
    wide_us: u64,
    threads: usize,
    max_shards: usize,
}

/// The sweep body; returns the rollup and scan count for the metrics
/// summary and the bench report.
fn run_inner(args: &Parsed, out: &mut dyn Write) -> Result<SweepOutcome, CliError> {
    let input = args.required("input")?;
    let from: usize = args.required_parsed("from")?;
    let to: usize = args.required_parsed("to")?;
    let min_conf: f64 = args.required_parsed("min-conf")?;

    let engine = super::parse_engine(args)?;
    if engine != Engine::HitSet && (args.switch("looping") || args.switch("checkpoint")) {
        return Err(CliError::Usage(format!(
            "--looping and --checkpoint are hit-set sweep modes; \
             they do not combine with --engine {engine}"
        )));
    }
    if args.switch("compare-tree") && engine != Engine::Vertical {
        return Err(CliError::Usage(
            "--compare-tree only applies to --engine vertical (it races the \
             vertical derivation against the tree walk)"
                .into(),
        ));
    }
    if args.switch("compare-kernel") && engine != Engine::Vertical {
        return Err(CliError::Usage(
            "--compare-kernel only applies to --engine vertical (it races \
             the scalar kernel against the wide, segment-sharded one)"
                .into(),
        ));
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
    if workers > 1 {
        for flag in ["checkpoint", "compare-tree", "compare-kernel", "looping"] {
            if args.switch(flag) {
                return Err(CliError::Usage(format!(
                    "--workers runs the work-stealing scheduler; it does not \
                     combine with --{flag}"
                )));
            }
        }
    }

    let config = super::apply_guards(args, MineConfig::new(min_conf)?)?;
    let range = PeriodRange::new(from, to)?;

    if args.switch("checkpoint") {
        let checkpoint_path = args.required("checkpoint")?;
        let (series, _catalog) = super::load_series(input)?;
        return run_checkpointed(
            input,
            from,
            to,
            min_conf,
            checkpoint_path,
            &series,
            &config,
            out,
        );
    }

    // One-time encode/load shared by EVERY engine: a columnar file opens
    // straight into the bitmap rows (the on-disk layout is the encoded
    // layout); any other format is materialized and bit-packed exactly
    // once, here, never again per period.
    let reader_slot;
    let encoded_slot;
    let view: EncodedSeriesView<'_> = match super::format_of(input) {
        super::Format::Columnar => {
            reader_slot = ColumnarReader::open(input)?;
            reader_slot.view()
        }
        _ => {
            let (series, _catalog) = super::load_series(input)?;
            encoded_slot = EncodedSeries::encode(&series);
            encoded_slot.view()
        }
    };

    let ingest_compare = if args.switch("compare-ingest") {
        Some(run_ingest_compare(args, input, out)?)
    } else {
        None
    };

    let mut outcome = if workers > 1 {
        run_scheduled(
            args, input, view, range, &config, engine, workers, from, to, min_conf, out,
        )?
    } else if matches!(engine, Engine::Vertical | Engine::Incremental) {
        run_vertical(args, view, range, &config, from, to, min_conf, out)?
    } else {
        let (result, how) = if engine == Engine::Apriori {
            (
                mine_periods_looping_view(view, range, &config, engine)?,
                "looping Apriori, Alg 3.3/3.1",
            )
        } else if args.switch("looping") {
            (
                mine_periods_looping_view(view, range, &config, engine)?,
                "looping, Alg 3.3",
            )
        } else {
            (
                mine_periods_shared_view(view, range, &config)?,
                "shared, Alg 3.4",
            )
        };

        writeln!(
            out,
            "periods {from}..={to}, min_conf {min_conf}, {} total series scans \
             ({how}):",
            result.total_scans,
        )?;
        let (rollup, rows) = tabulate(&result);
        print_table(&rows, out)?;
        SweepOutcome::new(rollup, result.total_scans)
    };
    outcome.ingest_compare = ingest_compare;
    Ok(outcome)
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

/// The `--workers N` path: the whole range is mined by the work-stealing
/// scheduler off the shared view. With `--bench-report` the sequential
/// per-period baseline (fresh load + encode + mine per period, exactly the
/// standalone `mine` pipeline) runs afterwards; its results must be
/// bit-identical and the wall-clock head-to-head lands in `sweep_compare`.
#[allow(clippy::too_many_arguments)]
fn run_scheduled(
    args: &Parsed,
    input: &str,
    view: EncodedSeriesView<'_>,
    range: PeriodRange,
    config: &MineConfig,
    engine: Engine,
    workers: usize,
    from: usize,
    to: usize,
    min_conf: f64,
    out: &mut dyn Write,
) -> Result<SweepOutcome, CliError> {
    let start = Instant::now();
    let result = mine_periods_scheduled(view, range, config, engine, workers)?;
    let scheduler_us = start.elapsed().as_micros() as u64;

    // Guard trips fail only the periods that hit them; the completed
    // periods still print, the aborted ones are named with their partial
    // progress, and the process exits with the partial-result code.
    if !result.failures.is_empty() {
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
        let (_rollup, rows) = tabulate(&result);
        print_table(&rows, out)?;
        let first = result
            .failures
            .into_iter()
            .next()
            .expect("checked nonempty");
        return Err(CliError::Mining(first.error));
    }

    let sweep_compare = if args.switch("bench-report") {
        let start = Instant::now();
        let baseline = sequential_baseline(input, range, config, engine)?;
        let sequential_us = start.elapsed().as_micros() as u64;
        if baseline.results.len() != result.results.len() {
            return Err(CliError::Audit(format!(
                "scheduler mined {} periods, sequential baseline {}",
                result.results.len(),
                baseline.results.len()
            )));
        }
        for (a, b) in result.results.iter().zip(&baseline.results) {
            if a.period != b.period || a.frequent != b.frequent {
                return Err(CliError::Audit(format!(
                    "scheduler and sequential baseline disagree at period {} \
                     ({} vs {} patterns)",
                    a.period,
                    a.len(),
                    b.len()
                )));
            }
        }
        writeln!(
            out,
            "sweep compare: scheduler {scheduler_us} us ({workers} workers, one shared load) \
             vs sequential per-period {sequential_us} us ({:.2}x)",
            sequential_us as f64 / scheduler_us.max(1) as f64
        )?;
        Some(SweepCompare {
            scheduler_us,
            sequential_us,
            workers,
        })
    } else {
        None
    };

    writeln!(
        out,
        "periods {from}..={to}, min_conf {min_conf}, {} total series scans \
         (work-stealing scheduler, {workers} workers):",
        result.total_scans,
    )?;
    let (rollup, rows) = tabulate(&result);
    print_table(&rows, out)?;
    let mut outcome = SweepOutcome::new(rollup, result.total_scans);
    outcome.sweep_compare = sweep_compare;
    Ok(outcome)
}

/// The honest sequential baseline for `sweep_compare`: every period pays
/// the full standalone pipeline — load the input, (re-)encode, mine — the
/// cost an operator pays running `mine` once per period. Skips periods
/// longer than the series like every sweep does.
fn sequential_baseline(
    input: &str,
    range: PeriodRange,
    config: &MineConfig,
    engine: Engine,
) -> Result<MultiPeriodResult, CliError> {
    let mut results = Vec::new();
    let mut total_scans = 0;
    for period in range.iter() {
        let (series, _catalog) = super::load_series(input)?;
        if period > series.len() {
            continue;
        }
        let r = ppm_core::run(engine, Rows::Series(&series), period, config, 1)?;
        total_scans += r.stats.series_scans;
        results.push(r);
    }
    Ok(MultiPeriodResult::complete(results, total_scans))
}

/// The `--compare-ingest TEXTFILE` head-to-head (columnar input only):
/// parse + bit-pack the text twin, then open the columnar store, assert
/// the two encodings bit-identical, and report both wall-clocks.
fn run_ingest_compare(
    args: &Parsed,
    input: &str,
    out: &mut dyn Write,
) -> Result<IngestCompare, CliError> {
    if super::format_of(input) != super::Format::Columnar {
        return Err(CliError::Usage(
            "--compare-ingest races text ingestion against a columnar open; \
             the sweep input must be a .ppmc file"
                .into(),
        ));
    }
    let text_path = args.required("compare-ingest")?;
    if super::format_of(text_path) != super::Format::Text {
        return Err(CliError::Usage(
            "--compare-ingest expects the text (.txt) twin of the columnar input".into(),
        ));
    }

    // Best-of-3 per side: a single shot on a busy machine measures the
    // scheduler's mood, not the ingest path. The minimum is the honest
    // steady-state cost of each pipeline.
    let mut text_us = u64::MAX;
    let mut encoded = None;
    for _ in 0..3 {
        let start = Instant::now();
        let text = std::fs::read_to_string(text_path)?;
        let mut catalog = FeatureCatalog::new();
        let series = storage::parse_series(&text, &mut catalog)?;
        let round = EncodedSeries::encode(&series);
        text_us = text_us.min(start.elapsed().as_micros() as u64);
        encoded = Some(round);
    }
    let encoded = encoded.expect("three ingest rounds ran");

    let mut columnar_us = u64::MAX;
    let mut reader = None;
    for _ in 0..3 {
        let start = Instant::now();
        let round = ColumnarReader::open(input)?;
        columnar_us = columnar_us.min(start.elapsed().as_micros() as u64);
        reader = Some(round);
    }
    let reader = reader.expect("three columnar opens ran");

    let fresh = encoded.view();
    let opened = reader.view();
    let identical = fresh.len() == opened.len()
        && fresh.width() == opened.width()
        && (0..fresh.len()).all(|t| fresh.instant_words(t) == opened.instant_words(t));
    if !identical {
        return Err(CliError::Audit(format!(
            "--compare-ingest: {text_path} does not encode bit-identically to {input}"
        )));
    }
    writeln!(
        out,
        "ingest compare: text parse+encode {text_us} us vs columnar open {columnar_us} us \
         ({:.2}x)",
        text_us as f64 / columnar_us.max(1) as f64
    )?;
    Ok(IngestCompare {
        text_us,
        columnar_us,
    })
}

/// A vertical-engine sweep: every period is mined columnarly from the
/// shared bitmap view ([`mine_vertical_view`]) — one encode or one
/// columnar load for the whole range. With `--compare-tree` each period is
/// also mined with the hit-set tree walk off the same view and the two
/// frequent sets are diffed — a disagreement is a verification failure,
/// and a bench report captures both engines' `*.derive` phases for the
/// speedup line.
#[allow(clippy::too_many_arguments)]
fn run_vertical(
    args: &Parsed,
    view: EncodedSeriesView<'_>,
    range: PeriodRange,
    config: &MineConfig,
    from: usize,
    to: usize,
    min_conf: f64,
    out: &mut dyn Write,
) -> Result<SweepOutcome, CliError> {
    let compare = args.switch("compare-tree");
    let compare_kernel = args.switch("compare-kernel");
    let kernel_threads: usize = args.parsed_or("threads", 4)?;
    let mut rollup = StatsRollup::new();
    let mut rows = Vec::new();
    let mut kernel_compare: Option<KernelCompare> = None;
    for period in range.iter().filter(|&p| p <= view.len()) {
        let result = mine_vertical_view(view, period, config)?;
        if compare {
            // The race arm is the paper's per-candidate tree walk: the
            // bench report's `treewalk_us` times that walk, not the
            // default level walk.
            let tree = hitset::mine_with_strategy(view, period, config, CountStrategy::TreeWalk)?;
            if result.frequent != tree.frequent {
                return Err(CliError::Audit(format!(
                    "vertical and tree-walk derivations disagree at period {period} \
                     ({} vs {} patterns)",
                    result.len(),
                    tree.len()
                )));
            }
        }
        if compare_kernel {
            let race = ppm_core::vertical::kernel_race(view, period, config, kernel_threads)?;
            if !race.identical {
                return Err(CliError::Audit(format!(
                    "scalar and wide+sharded kernels disagree at period {period} \
                     ({} patterns raced)",
                    race.patterns
                )));
            }
            let kc = kernel_compare.get_or_insert(KernelCompare {
                scalar_us: 0,
                wide_us: 0,
                threads: kernel_threads,
                max_shards: 0,
            });
            kc.scalar_us += race.scalar_us;
            kc.wide_us += race.wide_us;
            kc.max_shards = kc.max_shards.max(race.shards);
        }
        rollup.add(&result.stats);
        rows.push(PeriodRow {
            period,
            patterns: result.len(),
            f1: result.alphabet.len(),
            max_len: result.max_l_length(),
            scans: result.stats.series_scans,
        });
    }
    let total_scans: usize = rows.iter().map(|r| r.scans).sum();
    writeln!(
        out,
        "periods {from}..={to}, min_conf {min_conf}, {total_scans} total series scans \
         (vertical bitmap engine{}):",
        if compare { ", tree cross-checked" } else { "" }
    )?;
    if let Some(kc) = &kernel_compare {
        writeln!(
            out,
            "kernel compare: scalar {} us vs wide+sharded {} us ({:.2}x, \
             {} threads, up to {} shards)",
            kc.scalar_us,
            kc.wide_us,
            kc.scalar_us as f64 / kc.wide_us.max(1) as f64,
            kc.threads,
            kc.max_shards
        )?;
    }
    print_table(&rows, out)?;
    let mut outcome = SweepOutcome::new(rollup, total_scans);
    outcome.kernel_compare = kernel_compare;
    Ok(outcome)
}

/// Writes `BENCH_<name>.json`: a machine-readable benchmark record with a
/// stable schema — per-phase wall-clock aggregates from the collected
/// spans, gauge maxima, a fixed cache/scheduler counter `snapshot`, the
/// peak tree size across periods, and the scan totals. When both the
/// vertical and tree-walk derivation phases ran
/// (`--engine vertical --compare-tree`), a `derive_compare` object records
/// their wall-clock head-to-head; `--compare-kernel` adds the
/// scalar-vs-wide `kernel_compare` the same way.
fn write_bench_report(
    name: &str,
    args: &Parsed,
    sweep: &SweepOutcome,
    obs: &ObsSetup,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let events = obs.collector().map(|c| c.events()).unwrap_or_default();
    let aggregates = ppm_observe::aggregate_phases(&events);
    let phases: Vec<Json> = aggregates.iter().map(|p| p.to_json()).collect();
    let gauges: Vec<(String, Json)> = obs
        .collector()
        .map(|c| c.gauge_maxima())
        .unwrap_or_default()
        .into_iter()
        .map(|(k, v)| (k, Json::from_u64(v)))
        .collect();
    let wall_us = events.last().map(|e| e.at_us()).unwrap_or(0);
    // A fixed-schema snapshot of the cache and scheduler counters, so
    // report diffing never depends on which counters happened to fire:
    // absent counters read as zero (sweeps never touch the serve cache,
    // single-worker sweeps never steal).
    let counter = |name: &str| obs.collector().map_or(0, |c| c.counter_total(name));
    let gauge_max = |name: &str| {
        obs.collector()
            .and_then(|c| c.gauge_maxima().get(name).copied())
            .unwrap_or(0)
    };
    let snapshot = Json::Obj(vec![
        (
            "cache_hits".to_owned(),
            Json::from_u64(counter("serve.cache.hits")),
        ),
        (
            "cache_derived".to_owned(),
            Json::from_u64(counter("serve.cache.derived")),
        ),
        (
            "cache_misses".to_owned(),
            Json::from_u64(counter("serve.cache.misses")),
        ),
        (
            "tasks_stolen".to_owned(),
            Json::from_u64(counter("sweep.tasks_stolen")),
        ),
        (
            "worker_busy_us".to_owned(),
            Json::from_u64(gauge_max("sweep.worker_busy_us")),
        ),
    ]);
    let mut fields = vec![
        ("type".to_owned(), Json::Str("bench".to_owned())),
        ("name".to_owned(), Json::Str(name.to_owned())),
        (
            "engine".to_owned(),
            Json::Str(super::parse_engine(args)?.name().to_owned()),
        ),
        (
            "from".to_owned(),
            Json::from_usize(args.required_parsed("from")?),
        ),
        (
            "to".to_owned(),
            Json::from_usize(args.required_parsed("to")?),
        ),
        ("wall_us".to_owned(), Json::from_u64(wall_us)),
        ("phases".to_owned(), Json::Arr(phases)),
        ("gauges".to_owned(), Json::Obj(gauges)),
        ("snapshot".to_owned(), snapshot),
        (
            "peak_tree_nodes".to_owned(),
            Json::from_usize(sweep.rollup.max_tree_nodes),
        ),
        (
            "total_scans".to_owned(),
            Json::from_usize(sweep.physical_scans),
        ),
        ("stats_rollup".to_owned(), rollup_json(&sweep.rollup)),
    ];
    let phase_us = |name: &str| {
        aggregates
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.total_us)
    };
    if let Some(sc) = &sweep.sweep_compare {
        let speedup = if sc.scheduler_us > 0 {
            sc.sequential_us as f64 / sc.scheduler_us as f64
        } else {
            0.0
        };
        fields.push((
            "sweep_compare".to_owned(),
            Json::Obj(vec![
                ("scheduler_us".to_owned(), Json::from_u64(sc.scheduler_us)),
                ("sequential_us".to_owned(), Json::from_u64(sc.sequential_us)),
                ("speedup".to_owned(), Json::Num(speedup)),
                ("workers".to_owned(), Json::from_usize(sc.workers)),
            ]),
        ));
    }
    if let Some(ic) = &sweep.ingest_compare {
        let speedup = if ic.columnar_us > 0 {
            ic.text_us as f64 / ic.columnar_us as f64
        } else {
            0.0
        };
        fields.push((
            "ingest_compare".to_owned(),
            Json::Obj(vec![
                ("text_us".to_owned(), Json::from_u64(ic.text_us)),
                ("columnar_us".to_owned(), Json::from_u64(ic.columnar_us)),
                ("speedup".to_owned(), Json::Num(speedup)),
            ]),
        ));
    }
    if let Some(kc) = &sweep.kernel_compare {
        let speedup = if kc.wide_us > 0 {
            kc.scalar_us as f64 / kc.wide_us as f64
        } else {
            0.0
        };
        fields.push((
            "kernel_compare".to_owned(),
            Json::Obj(vec![
                ("scalar_us".to_owned(), Json::from_u64(kc.scalar_us)),
                ("wide_us".to_owned(), Json::from_u64(kc.wide_us)),
                ("speedup".to_owned(), Json::Num(speedup)),
                ("threads".to_owned(), Json::from_usize(kc.threads)),
                ("max_shards".to_owned(), Json::from_usize(kc.max_shards)),
            ]),
        ));
    }
    if let (Some(vertical_us), Some(treewalk_us)) =
        (phase_us("vertical.derive"), phase_us("hitset.derive"))
    {
        let speedup = if vertical_us > 0 {
            treewalk_us as f64 / vertical_us as f64
        } else {
            0.0
        };
        fields.push((
            "derive_compare".to_owned(),
            Json::Obj(vec![
                ("vertical_us".to_owned(), Json::from_u64(vertical_us)),
                ("treewalk_us".to_owned(), Json::from_u64(treewalk_us)),
                ("speedup".to_owned(), Json::Num(speedup)),
            ]),
        ));
    }
    let doc = Json::Obj(fields);
    let path = format!("BENCH_{name}.json");
    std::fs::write(&path, format!("{}\n", doc.render()))?;
    writeln!(out, "bench report written to {path}")?;
    Ok(())
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

/// A checkpointed sweep: one period at a time, resuming from (and updating)
/// the checkpoint file after every completed period. The returned rollup
/// covers only the periods mined *now* — checkpoint rows carry summary
/// columns, not full stats.
#[allow(clippy::too_many_arguments)]
fn run_checkpointed(
    input: &str,
    from: usize,
    to: usize,
    min_conf: f64,
    checkpoint_path: &str,
    series: &FeatureSeries,
    config: &MineConfig,
    out: &mut dyn Write,
) -> Result<SweepOutcome, CliError> {
    let mut checkpoint = match SweepCheckpoint::load(checkpoint_path)? {
        Some(cp) if cp.matches(input, min_conf, from, to) => {
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
            cp
        }
        Some(_) => {
            return Err(CliError::Usage(format!(
                "checkpoint {checkpoint_path} was written by a different sweep \
                 (input, min-conf, or range mismatch); delete it or choose another path"
            )))
        }
        None => SweepCheckpoint::new(input, min_conf, from, to),
    };

    let mut rollup = StatsRollup::new();
    let mut mined_now = 0usize;
    let mut aborted: Option<ppm_core::Error> = None;
    for period in from..=to {
        if checkpoint.row_for(period).is_some() {
            continue;
        }
        match hitset::mine(series, period, config) {
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

    let outcome = SweepOutcome::new(rollup, total_scans);
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
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use crate::checkpoint::{PeriodRow, SweepCheckpoint};
    use crate::cmd::testutil::{run_cli, sample_series_file, temp_path};
    use ppm_core::Engine;

    #[test]
    fn shared_sweep_reports_two_scans() {
        let path = sample_series_file("ppms");
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

    #[test]
    fn looping_sweep_scales_scans() {
        let path = sample_series_file("ppms");
        let text = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --looping",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("10 total series scans"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn inverted_range_is_rejected() {
        let path = sample_series_file("ppms");
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
        let path = sample_series_file("ppms");
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
        let cp = SweepCheckpoint::load(ckpt.to_str().unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(cp.rows.len(), 5);
        std::fs::remove_file(path).ok();
        std::fs::remove_file(ckpt).ok();
    }

    #[test]
    fn resumed_sweep_skips_completed_periods() {
        let path = sample_series_file("ppms");
        let ckpt = temp_path("sweep-resume", "ckpt");
        // Seed the checkpoint with a sentinel row for period 2: its pattern
        // count (999) could never come from actual mining, so seeing it in
        // the resumed run's report proves period 2 was NOT re-mined.
        let mut cp = SweepCheckpoint::new(path.to_str().unwrap(), 0.6, 2, 6);
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
        let path = sample_series_file("ppms");
        let ckpt = temp_path("sweep-mismatch", "ckpt");
        let cp = SweepCheckpoint::new("some-other-input.ppms", 0.6, 2, 6);
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
    fn bench_report_writes_a_stable_json_file() {
        use ppm_observe::Json;

        let path = sample_series_file("ppms");
        let name = format!("test-sweep-{}", std::process::id());
        let text = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --bench-report {name}",
            path.display()
        ))
        .unwrap();
        let report = format!("BENCH_{name}.json");
        assert!(text.contains(&report), "{text}");

        let doc = Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        assert_eq!(doc.get("type").unwrap().as_str(), Some("bench"));
        assert_eq!(doc.get("from").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("to").unwrap().as_u64(), Some(6));
        assert!(!doc.get("phases").unwrap().as_arr().unwrap().is_empty());
        assert!(doc.get("peak_tree_nodes").unwrap().as_u64().unwrap() > 0);
        // Shared mining (Alg 3.4): two scans total across all periods.
        assert_eq!(doc.get("total_scans").unwrap().as_u64(), Some(2));
        let rollup = doc.get("stats_rollup").unwrap();
        assert_eq!(rollup.get("runs").unwrap().as_u64(), Some(5));
        std::fs::remove_file(path).ok();
        std::fs::remove_file(report).ok();
    }

    #[test]
    fn bench_report_rejects_checkpoint_and_bad_names() {
        let path = sample_series_file("ppms");
        let ckpt = temp_path("sweep-bench-ckpt", "ckpt");
        let err = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 \
             --bench-report x --checkpoint {}",
            path.display(),
            ckpt.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --bench-report a/b",
            path.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sweep_metrics_summary_carries_the_rollup() {
        use ppm_observe::Json;

        let path = sample_series_file("ppms");
        let metrics = temp_path("sweep-metrics", "json");
        run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --looping --metrics-out {}",
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
        use ppm_observe::Json;

        let path = sample_series_file("ppms");
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
        let path = sample_series_file("ppms");
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
    fn compare_tree_sweep_records_the_derivation_race() {
        use ppm_observe::Json;

        let path = sample_series_file("ppms");
        let name = format!("test-vertical-{}", std::process::id());
        let text = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 \
             --engine vertical --compare-tree --bench-report {name}",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("tree cross-checked"), "{text}");
        let report = format!("BENCH_{name}.json");
        let doc = Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        assert_eq!(doc.get("engine").unwrap().as_str(), Some("vertical"));
        let gauges = doc.get("gauges").unwrap();
        assert!(gauges.get("vertical.bitmap_bytes").is_some(), "{doc:?}");
        let race = doc.get("derive_compare").unwrap();
        assert!(race.get("vertical_us").unwrap().as_u64().is_some());
        assert!(race.get("treewalk_us").unwrap().as_u64().is_some());
        assert!(race.get("speedup").unwrap().as_f64().is_some());
        std::fs::remove_file(path).ok();
        std::fs::remove_file(report).ok();
    }

    #[test]
    fn compare_kernel_sweep_records_the_kernel_race() {
        use ppm_observe::Json;

        let path = sample_series_file("ppms");
        let name = format!("test-kernel-{}", std::process::id());
        let text = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 \
             --engine vertical --compare-kernel --threads 2 --bench-report {name}",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("kernel compare: scalar"), "{text}");
        let report = format!("BENCH_{name}.json");
        let doc = Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let race = doc.get("kernel_compare").unwrap();
        assert!(race.get("scalar_us").unwrap().as_u64().is_some());
        assert!(race.get("wide_us").unwrap().as_u64().is_some());
        assert!(race.get("speedup").unwrap().as_f64().is_some());
        assert_eq!(race.get("threads").unwrap().as_u64(), Some(2));
        // The chosen counting path is echoed through the kernel gauge.
        let gauges = doc.get("gauges").unwrap();
        assert!(gauges.get("vertical.kernel").is_some(), "{doc:?}");
        std::fs::remove_file(path).ok();
        std::fs::remove_file(report).ok();
    }

    #[test]
    fn compare_kernel_requires_the_vertical_engine() {
        let path = sample_series_file("ppms");
        let err = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --compare-kernel",
            path.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn vertical_engine_flag_combinations_are_usage_errors() {
        let path = sample_series_file("ppms");
        let ckpt = temp_path("sweep-vertical-ckpt", "ckpt");
        for extra in [
            "--engine vertical --looping".to_owned(),
            format!("--engine vertical --checkpoint {}", ckpt.display()),
            "--compare-tree".to_owned(),
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
    fn columnar_sweep_matches_binary_sweep_on_every_engine() {
        let ppms = sample_series_file("ppms");
        let ppmc = sample_series_file("ppmc");
        for extra in [
            "",
            "--engine apriori",
            "--engine vertical",
            "--engine incremental",
            "--looping",
        ] {
            let from_binary = run_cli(&format!(
                "sweep --input {} --from 2 --to 6 --min-conf 0.6 {extra}",
                ppms.display()
            ))
            .unwrap();
            let from_columnar = run_cli(&format!(
                "sweep --input {} --from 2 --to 6 --min-conf 0.6 {extra}",
                ppmc.display()
            ))
            .unwrap();
            assert_eq!(from_binary, from_columnar, "{extra}");
        }
        std::fs::remove_file(ppms).ok();
        std::fs::remove_file(ppmc).ok();
    }

    #[test]
    fn workers_sweep_matches_the_sequential_table() {
        let path = sample_series_file("ppms");
        for engine in Engine::ALL {
            let sequential = run_cli(&format!(
                "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine {engine} --looping",
                path.display()
            ));
            // --looping is hitset-only; use the engine's own sequential path.
            let sequential = match sequential {
                Ok(s) => s,
                Err(_) => run_cli(&format!(
                    "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine {engine}",
                    path.display()
                ))
                .unwrap(),
            };
            let scheduled = run_cli(&format!(
                "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine {engine} --workers 3",
                path.display()
            ))
            .unwrap();
            assert!(
                scheduled.contains("work-stealing scheduler, 3 workers"),
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
        let path = sample_series_file("ppms");
        let ckpt = temp_path("sweep-workers-ckpt", "ckpt");
        for extra in [
            "--workers 2 --looping".to_owned(),
            format!("--workers 2 --checkpoint {}", ckpt.display()),
            "--workers 2 --engine vertical --compare-tree".to_owned(),
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
    fn workers_bench_report_records_the_sweep_compare() {
        use ppm_observe::Json;

        let path = sample_series_file("ppmc");
        let name = format!("test-workers-{}", std::process::id());
        let text = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 \
             --engine vertical --workers 2 --bench-report {name}",
            path.display()
        ))
        .unwrap();
        assert!(text.contains("sweep compare: scheduler"), "{text}");
        let report = format!("BENCH_{name}.json");
        let doc = Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let compare = doc.get("sweep_compare").unwrap();
        assert!(compare.get("scheduler_us").unwrap().as_u64().is_some());
        assert!(compare.get("sequential_us").unwrap().as_u64().is_some());
        assert!(compare.get("speedup").unwrap().as_f64().is_some());
        assert_eq!(compare.get("workers").unwrap().as_u64(), Some(2));
        // The scheduler snapshot rides along: steal/busy counters are
        // real, the serve-cache counters read zero outside the daemon.
        let snapshot = doc.get("snapshot").unwrap();
        assert!(snapshot.get("tasks_stolen").unwrap().as_u64().is_some());
        assert!(snapshot.get("worker_busy_us").unwrap().as_u64().unwrap() > 0);
        assert_eq!(snapshot.get("cache_hits").unwrap().as_u64(), Some(0));
        assert_eq!(snapshot.get("cache_derived").unwrap().as_u64(), Some(0));
        assert_eq!(snapshot.get("cache_misses").unwrap().as_u64(), Some(0));
        std::fs::remove_file(path).ok();
        std::fs::remove_file(report).ok();
    }

    #[test]
    fn compare_ingest_races_text_against_columnar() {
        use ppm_observe::Json;

        let txt = sample_series_file("txt");
        let ppmc = temp_path("sweep-ingest", "ppmc");
        run_cli(&format!(
            "convert --input {} --out {}",
            txt.display(),
            ppmc.display()
        ))
        .unwrap();
        let name = format!("test-ingest-{}", std::process::id());
        let text = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --engine vertical \
             --compare-ingest {} --bench-report {name}",
            ppmc.display(),
            txt.display()
        ))
        .unwrap();
        assert!(text.contains("ingest compare: text parse+encode"), "{text}");
        let report = format!("BENCH_{name}.json");
        let doc = Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let compare = doc.get("ingest_compare").unwrap();
        assert!(compare.get("text_us").unwrap().as_u64().is_some());
        assert!(compare.get("columnar_us").unwrap().as_u64().is_some());
        assert!(compare.get("speedup").unwrap().as_f64().is_some());
        // The columnar load feeds the mmap-bytes gauge into the report.
        let gauges = doc.get("gauges").unwrap();
        assert!(gauges.get("columnar.mmap_bytes").is_some(), "{doc:?}");
        std::fs::remove_file(txt).ok();
        std::fs::remove_file(ppmc).ok();
        std::fs::remove_file(report).ok();
    }

    #[test]
    fn compare_ingest_requires_columnar_input() {
        let ppms = sample_series_file("ppms");
        let txt = sample_series_file("txt");
        let err = run_cli(&format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --compare-ingest {}",
            ppms.display(),
            txt.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        std::fs::remove_file(ppms).ok();
        std::fs::remove_file(txt).ok();
    }

    #[test]
    fn deadline_abort_degrades_and_keeps_progress() {
        let path = sample_series_file("ppms");
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
        let path = sample_series_file("ppms");
        // A zero deadline trips the guard in every scheduled worker; each
        // period fails individually, the failures are named with partial
        // progress, and the process exits with the partial-result code.
        let argv: Vec<String> = format!(
            "sweep --input {} --from 2 --to 6 --min-conf 0.6 --workers 3 --deadline-ms 0",
            path.display()
        )
        .split_whitespace()
        .map(str::to_owned)
        .collect();
        let mut out = Vec::new();
        let err = crate::run(&argv, &mut out).unwrap_err();
        assert_eq!(err.exit_code(), 3);
        let text = String::from_utf8(out).unwrap();
        for period in 2..=6 {
            assert!(text.contains(&format!("period {period} aborted")), "{text}");
        }
        assert!(text.contains("partial progress"), "{text}");
        assert!(text.contains("0 completed, 5 aborted"), "{text}");
        std::fs::remove_file(path).ok();
    }
}
