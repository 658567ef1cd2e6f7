//! The sweep scheduler: a worker pool over one shared claim counter.
//!
//! A period sweep is a bag of independent tasks — "mine period `p`" — whose
//! costs vary wildly (short periods mean many segments, long periods mean
//! wide alphabets), so a static partition leaves workers idle behind one
//! slow period. The tasks are known up front and share nothing, so one
//! atomic counter balances them: each idle worker claims the next
//! unclaimed period index, and a worker stuck on a slow period simply
//! claims fewer. All workers mine from the **same** borrowed
//! [`EncodedSeriesView`] — one encode or one columnar file load for the
//! whole sweep, never one per period.
//!
//! Results merge in period order, so the output is indistinguishable from
//! Alg 3.3's loop over the series (the tests assert the same patterns,
//! counts and scans). At one worker the loop runs inline, so `ppm sweep`
//! mines every sequential non-shared sweep through it. Instrumented through `ppm-observe`: `sweep.workers` (gauge),
//! `sweep.worker_busy_us` (gauge, total busy time summed over workers),
//! `sweep.tasks` (counter, periods mined), and the per-period task-latency
//! distribution as `sweep.task_us_{p50,p90,p99,max}` gauges (each worker
//! records task durations into a local log-linear [`Histogram`], merged
//! after the join — recording never synchronizes the pool).

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ppm_observe::Histogram;
use ppm_timeseries::EncodedSeriesView;

use crate::engine::Engine;
use crate::error::{Error, Result};
use crate::multi::{MultiPeriodResult, PeriodFailure, PeriodRange};
use crate::result::MiningResult;
use crate::scan::MineConfig;

/// Converts a worker panic payload into the typed [`Error::WorkerPanic`],
/// so a crashing worker cannot take down the caller. Panic payloads are
/// `&str` or `String` in practice (that is what `panic!` produces); any
/// other payload gets a placeholder.
fn worker_panic(payload: Box<dyn Any + Send>) -> Error {
    let detail = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    Error::WorkerPanic { detail }
}

/// Emits the merged per-period task-latency distribution: a `sweep.tasks`
/// counter plus quantile gauges. No-op for an empty sweep.
fn report_task_latency(task_us: &Histogram) {
    if task_us.count() == 0 {
        return;
    }
    ppm_observe::counter("sweep.tasks", task_us.count());
    ppm_observe::gauge("sweep.task_us_p50", task_us.value_at_quantile(0.50));
    ppm_observe::gauge("sweep.task_us_p90", task_us.value_at_quantile(0.90));
    ppm_observe::gauge("sweep.task_us_p99", task_us.value_at_quantile(0.99));
    ppm_observe::gauge("sweep.task_us_max", task_us.max());
}

/// The sweep's shared state: the periods, the claim counter over them,
/// and what the workers leave behind.
struct Bag<'a> {
    view: EncodedSeriesView<'a>,
    periods: &'a [usize],
    config: &'a MineConfig,
    engine: Engine,
    /// The index of the next unclaimed period.
    next: AtomicUsize,
    /// Set by the first non-guard failure: no worker claims after it.
    abort: AtomicBool,
    results: Mutex<Vec<(usize, MiningResult)>>,
    failures: Mutex<Vec<PeriodFailure>>,
    first_error: Mutex<Option<Error>>,
}

impl Bag<'_> {
    /// One worker: claims and mines periods until none is left or the
    /// sweep aborts. Returns its busy time and task-latency histogram.
    fn work(&self) -> (u64, Histogram) {
        let mut busy_us = 0u64;
        let mut task_us = Histogram::with_default_precision();
        while !self.abort.load(Ordering::Relaxed) {
            let task = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(&period) = self.periods.get(task) else {
                break;
            };
            let start = Instant::now();
            let outcome = crate::run(self.engine, self.view, period, self.config);
            let elapsed_us = start.elapsed().as_micros() as u64;
            busy_us += elapsed_us;
            task_us.record(elapsed_us);
            match outcome {
                Ok(result) => self
                    .results
                    .lock()
                    .expect("results poisoned")
                    .push((task, result)),
                // A guard trip fails only this period; the rest of the bag
                // keeps draining.
                Err(e) if e.partial_stats().is_some() => self
                    .failures
                    .lock()
                    .expect("failures poisoned")
                    .push(PeriodFailure { period, error: e }),
                Err(e) => {
                    self.first_error
                        .lock()
                        .expect("error slot poisoned")
                        .get_or_insert(e);
                    self.abort.store(true, Ordering::Relaxed);
                }
            }
        }
        (busy_us, task_us)
    }
}

/// Mines every period in `range` from one shared bitmap view with a pool
/// of `workers` threads claiming periods from one counter (clamped to
/// between 1 and the period count; one worker runs inline with no pool).
///
/// The load/encode cost is paid **once** for the whole sweep — the view is
/// borrowed by every worker — and results are merged in ascending period
/// order, whatever the number of workers.
///
/// Resource guards (`--deadline-ms` / `--max-tree-nodes` via
/// [`MineConfig::with_deadline`] / [`MineConfig::with_max_tree_nodes`])
/// propagate into every worker task. A guard trip aborts only *that
/// period*: the typed error — still carrying its partial
/// [`crate::MiningStats`] — is recorded as a [`PeriodFailure`] in
/// [`MultiPeriodResult::failures`] and the remaining periods keep mining,
/// so one pathological period degrades into a partial sweep instead of
/// killing it. Non-guard task errors (corruption, invalid config) still
/// abort the whole sweep and are returned; a panicking worker surfaces as
/// [`Error::WorkerPanic`].
///
/// `total_scans` counts *logical* per-period scans, like
/// [`mine_periods_looping`](crate::multi::mine_periods_looping), so sweep
/// reports stay comparable across schedulers.
pub fn mine_periods_scheduled(
    view: EncodedSeriesView<'_>,
    range: PeriodRange,
    config: &MineConfig,
    engine: Engine,
    workers: usize,
) -> Result<MultiPeriodResult> {
    let periods: Vec<usize> = range.iter().filter(|&p| p <= view.len()).collect();
    if periods.is_empty() {
        return Ok(MultiPeriodResult::complete(Vec::new(), 0));
    }
    // Each period is one task, so workers past the period count would
    // have nothing to do.
    let workers = workers.max(1).min(periods.len());
    let _span = ppm_observe::span("sweep.schedule");
    ppm_observe::gauge("sweep.workers", workers as u64);

    let bag = Bag {
        view,
        periods: &periods,
        config,
        engine,
        next: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
        results: Mutex::new(Vec::with_capacity(periods.len())),
        failures: Mutex::new(Vec::new()),
        first_error: Mutex::new(None),
    };
    let (busy_us, task_us) = if workers == 1 {
        // No pool to pay for: the one worker runs on this thread.
        bag.work()
    } else {
        // Workers run detached from the observe context on purpose:
        // per-task engine spans from concurrent periods would interleave
        // into one aggregate and poison per-phase timings. The scheduler
        // reports its own metrics from this thread after the join instead.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(|| bag.work())).collect();
            let mut busy_total = 0u64;
            let mut merged = Histogram::with_default_precision();
            for h in handles {
                let (busy_us, task_us) = h.join().map_err(worker_panic)?;
                busy_total += busy_us;
                merged.merge(&task_us);
            }
            Ok::<_, Error>((busy_total, merged))
        })?
    };
    ppm_observe::gauge("sweep.worker_busy_us", busy_us);
    report_task_latency(&task_us);

    if let Some(e) = bag.first_error.into_inner().expect("error slot poisoned") {
        return Err(e);
    }
    let mut collected = bag.results.into_inner().expect("results poisoned");
    collected.sort_by_key(|&(task, _)| task);
    let mut failures = bag.failures.into_inner().expect("failures poisoned");
    failures.sort_by_key(|f| f.period);
    debug_assert_eq!(collected.len() + failures.len(), periods.len());
    let results: Vec<MiningResult> = collected.into_iter().map(|(_, r)| r).collect();
    let total_scans = results.iter().map(|r| r.stats.series_scans).sum();
    Ok(MultiPeriodResult {
        results,
        total_scans,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::{EncodedSeries, FeatureId, SeriesBuilder};

    use crate::multi::mine_periods_looping;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    fn mixed_series(n: usize) -> ppm_timeseries::FeatureSeries {
        let mut b = SeriesBuilder::new();
        let mut x: u64 = 99;
        for t in 0..n {
            let mut inst = Vec::new();
            if t % 3 == 1 {
                inst.push(fid(0));
            }
            if t % 5 == 0 {
                inst.push(fid(1));
            }
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if (x >> 60) == 0 {
                inst.push(fid(2));
            }
            b.push_instant(inst);
        }
        b.finish()
    }

    /// A single-period vertical sweep with more workers than periods runs
    /// one worker and is bit-identical to the sequential mine.
    #[test]
    fn single_period_with_extra_workers_matches_sequential() {
        let s = mixed_series(32768);
        let encoded = EncodedSeries::encode(&s);
        let range = PeriodRange::new(2, 2).unwrap();
        let config = MineConfig::new(0.2).unwrap();
        let sequential = crate::vertical::mine_vertical_view(encoded.view(), 2, &config).unwrap();
        let collector = std::sync::Arc::new(ppm_observe::Collector::new());
        let swept = {
            let _guard = ppm_observe::install(collector.clone());
            mine_periods_scheduled(encoded.view(), range, &config, Engine::Vertical, 4).unwrap()
        };
        assert_eq!(collector.gauge_maxima().get("sweep.workers"), Some(&1));
        assert_eq!(swept.results.len(), 1);
        assert_eq!(swept.results[0].frequent, sequential.frequent);
        assert_eq!(swept.results[0].stats, sequential.stats);
    }

    // ---- Scheduler output equals the sequential per-period loop. ----

    /// At one worker (inline) and at four, the scheduler mines what Alg
    /// 3.3's loop over the series mines: the same periods, patterns,
    /// counts and scans.
    #[test]
    fn scheduled_equals_looping_for_every_engine() {
        let s = mixed_series(150);
        let encoded = EncodedSeries::encode(&s);
        let range = PeriodRange::new(2, 9).unwrap();
        let config = MineConfig::new(0.6).unwrap();
        for engine in Engine::ALL {
            let looping = mine_periods_looping(&s, range, &config, engine).unwrap();
            for workers in [1, 4] {
                let scheduled =
                    mine_periods_scheduled(encoded.view(), range, &config, engine, workers)
                        .unwrap();
                assert_eq!(scheduled.total_scans, looping.total_scans, "{engine:?}");
                assert_eq!(scheduled.results.len(), looping.results.len());
                for (a, b) in scheduled.results.iter().zip(&looping.results) {
                    let at = format!("{engine:?} period {} workers {workers}", a.period);
                    assert_eq!(a.period, b.period, "{at}");
                    assert_eq!(a.frequent, b.frequent, "{at}");
                    assert_eq!(a.stats.series_scans, b.stats.series_scans, "{at}");
                }
            }
        }
    }

    #[test]
    fn one_worker_runs_inline_with_identical_results() {
        let s = mixed_series(90);
        let encoded = EncodedSeries::encode(&s);
        let range = PeriodRange::new(2, 6).unwrap();
        let config = MineConfig::new(0.7).unwrap();
        let pooled =
            mine_periods_scheduled(encoded.view(), range, &config, Engine::Vertical, 4).unwrap();
        let inline =
            mine_periods_scheduled(encoded.view(), range, &config, Engine::Vertical, 1).unwrap();
        assert_eq!(pooled.results.len(), inline.results.len());
        for (a, b) in pooled.results.iter().zip(&inline.results) {
            assert_eq!(a.frequent, b.frequent, "period {}", a.period);
        }
    }

    #[test]
    fn empty_range_after_filtering() {
        let s = mixed_series(5);
        let encoded = EncodedSeries::encode(&s);
        let range = PeriodRange::new(10, 12).unwrap();
        let out = mine_periods_scheduled(
            encoded.view(),
            range,
            &MineConfig::default(),
            Engine::HitSet,
            4,
        )
        .unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.total_scans, 0);
    }

    #[test]
    fn guard_trips_surface_as_per_period_failures() {
        let s = mixed_series(600);
        let encoded = EncodedSeries::encode(&s);
        let range = PeriodRange::new(2, 9).unwrap();
        let config = MineConfig::new(0.5)
            .unwrap()
            .with_deadline(std::time::Duration::ZERO);
        for workers in [1, 4] {
            let out =
                mine_periods_scheduled(encoded.view(), range, &config, Engine::Vertical, workers)
                    .unwrap();
            // An already-expired deadline trips every period, but the sweep
            // itself completes with a full per-period accounting.
            assert!(out.results.is_empty(), "workers={workers}");
            assert_eq!(out.failures.len(), range.len(), "workers={workers}");
            let periods: Vec<usize> = out.failures.iter().map(|f| f.period).collect();
            assert_eq!(periods, range.iter().collect::<Vec<_>>(), "sorted");
            for f in &out.failures {
                assert!(
                    matches!(f.error, Error::DeadlineExceeded { .. }),
                    "period {}: {:?}",
                    f.period,
                    f.error
                );
                assert!(f.error.partial_stats().is_some(), "period {}", f.period);
            }
        }
    }

    #[test]
    fn tree_budget_fails_only_the_periods_over_it() {
        let s = mixed_series(400);
        let encoded = EncodedSeries::encode(&s);
        let range = PeriodRange::new(2, 9).unwrap();
        let config = MineConfig::new(0.3).unwrap();
        // Per-period tree sizes vary; pick a budget strictly between the
        // smallest and largest so the split is deterministic but non-trivial.
        let sizes: Vec<(usize, usize)> = range
            .iter()
            .map(|p| {
                let r = crate::hitset::mine_view(encoded.view(), p, &config).unwrap();
                (p, r.stats.tree_nodes)
            })
            .collect();
        let min = sizes.iter().map(|&(_, n)| n).min().unwrap();
        let max = sizes.iter().map(|&(_, n)| n).max().unwrap();
        assert!(
            min < max,
            "series must produce varied tree sizes: {sizes:?}"
        );
        let budget = (min + max) / 2;
        let expect_fail: Vec<usize> = sizes
            .iter()
            .filter(|&&(_, n)| n > budget)
            .map(|&(p, _)| p)
            .collect();
        let guarded = MineConfig::new(0.3).unwrap().with_max_tree_nodes(budget);
        let out =
            mine_periods_scheduled(encoded.view(), range, &guarded, Engine::HitSet, 4).unwrap();
        let failed: Vec<usize> = out.failures.iter().map(|f| f.period).collect();
        assert_eq!(failed, expect_fail);
        assert_eq!(out.results.len() + out.failures.len(), range.len());
        for f in &out.failures {
            assert!(
                matches!(f.error, Error::TreeBudgetExceeded { .. }),
                "period {}: {:?}",
                f.period,
                f.error
            );
        }
        // Completed periods are bit-identical to an unguarded mine.
        for r in &out.results {
            let plain = crate::hitset::mine_view(encoded.view(), r.period, &config).unwrap();
            assert_eq!(r.frequent, plain.frequent, "period {}", r.period);
        }
    }

    #[test]
    fn worker_panic_payloads_become_typed_errors() {
        let e = worker_panic(Box::new("scan-2 worker blew up"));
        assert!(matches!(&e, Error::WorkerPanic { detail } if detail.contains("blew up")));
        let e = worker_panic(Box::new(String::from("heap message")));
        assert!(matches!(&e, Error::WorkerPanic { detail } if detail == "heap message"));
        let e = worker_panic(Box::new(42usize));
        assert!(matches!(&e, Error::WorkerPanic { detail } if detail.contains("non-string")));
    }
}
