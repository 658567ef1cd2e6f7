//! CLI observability wiring: `--trace`, `--metrics-out`, `--progress`.
//!
//! Parses the shared observability flags into an [`ObsSetup`], installs the
//! requested sinks for the duration of a command, and renders the final
//! metrics summary — per-phase wall-clock aggregates, counter totals, gauge
//! maxima, retry/fault/guard event counts, and the embedded
//! [`MiningStats`] — as the last line of the `--metrics-out` JSON-lines
//! file.
//!
//! When no observability flag is given nothing is installed, so mining
//! runs exactly as before (asserted by the CLI tests).

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ppm_core::{MiningStats, StatsRollup};
use ppm_observe::{
    aggregate_phases, mark_counts, Collector, Event, Fanout, HumanReporter, Json, JsonLinesSink,
    Sink,
};

use crate::args::Parsed;
use crate::error::CliError;

/// The observability flags [`ObsSetup`] reads.
pub(crate) const FLAGS: &str = "trace metrics-out progress progress-interval-ms";

/// The observability configuration of one CLI invocation.
pub struct ObsSetup {
    collector: Option<Arc<Collector>>,
    json: Option<Arc<JsonLinesSink>>,
    metrics_path: Option<String>,
    trace: bool,
    progress: Option<Arc<ProgressSink>>,
}

impl ObsSetup {
    /// Parses `--trace`, `--metrics-out PATH`, `--progress` and
    /// `--progress-interval-ms MS` from the command line. A value-less
    /// `--metrics-out` is a usage error.
    pub fn from_args(args: &Parsed) -> Result<ObsSetup, CliError> {
        let trace = args.switch("trace");
        let progress = parse_progress(args)?;
        let (json, metrics_path) = if args.switch("metrics-out") {
            let path = args.required("metrics-out")?.to_owned();
            let file = std::fs::File::create(&path)?;
            (
                Some(Arc::new(JsonLinesSink::new(Box::new(file)))),
                Some(path),
            )
        } else {
            (None, None)
        };
        // The collector backs the metrics summary; it is pointless (and
        // costs memory) otherwise.
        let collector = json.as_ref().map(|_| Arc::new(Collector::new()));
        Ok(ObsSetup {
            collector,
            json,
            metrics_path,
            trace,
            progress,
        })
    }

    /// The daemon variant: `--trace` / `--progress` still wire up sinks,
    /// but `--metrics-out` is *not* consumed — `ppm serve` repurposes
    /// that flag as its Prometheus exposition file path, which the daemon
    /// rewrites continuously instead of appending JSON lines at exit.
    pub fn for_daemon(args: &Parsed) -> Result<ObsSetup, CliError> {
        Ok(ObsSetup {
            collector: None,
            json: None,
            metrics_path: None,
            trace: args.switch("trace"),
            progress: parse_progress(args)?,
        })
    }

    /// Whether any observability output was requested.
    pub fn enabled(&self) -> bool {
        self.trace || self.collector.is_some() || self.progress.is_some()
    }

    /// Installs the configured sinks on the current thread; returns `None`
    /// (and installs nothing) when no flag was given. Keep the guard alive
    /// for the span of the instrumented work.
    pub fn install(&self) -> Option<ppm_observe::Guard> {
        if !self.enabled() {
            return None;
        }
        let mut fanout = Fanout::new();
        if let Some(c) = &self.collector {
            fanout = fanout.push(c.clone() as Arc<dyn Sink>);
        }
        if let Some(j) = &self.json {
            fanout = fanout.push(j.clone() as Arc<dyn Sink>);
        }
        if self.trace {
            fanout = fanout.push(Arc::new(HumanReporter::new(Box::new(std::io::stderr()))));
        }
        if let Some(p) = &self.progress {
            fanout = fanout.push(p.clone() as Arc<dyn Sink>);
        }
        Some(ppm_observe::install(Arc::new(fanout)))
    }

    /// Builds the metrics summary document from the collected events and
    /// (when available) the run's [`MiningStats`]. The `retries` and
    /// `guard_trips` keys are always present — zero on a clean run — so
    /// dashboards need no existence checks.
    pub fn summary_json(&self, stats: Option<&MiningStats>) -> Json {
        let events = self
            .collector
            .as_ref()
            .map(|c| c.events())
            .unwrap_or_default();
        let mut obj = vec![
            ("type".to_owned(), Json::Str("summary".to_owned())),
            (
                "phases".to_owned(),
                Json::Arr(
                    aggregate_phases(&events)
                        .iter()
                        .map(|p| p.to_json())
                        .collect(),
                ),
            ),
            (
                "counters".to_owned(),
                Json::Obj(
                    self.collector
                        .as_ref()
                        .map(|c| c.counter_totals())
                        .unwrap_or_default()
                        .into_iter()
                        .map(|(k, v)| (k, Json::from_u64(v)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_owned(),
                Json::Obj(
                    self.collector
                        .as_ref()
                        .map(|c| c.gauge_maxima())
                        .unwrap_or_default()
                        .into_iter()
                        .map(|(k, v)| (k, Json::from_u64(v)))
                        .collect(),
                ),
            ),
            (
                "marks".to_owned(),
                Json::Obj(
                    mark_counts(&events)
                        .into_iter()
                        .map(|(k, v)| (k.to_owned(), Json::from_u64(v)))
                        .collect(),
                ),
            ),
            ("retries".to_owned(), Json::from_u64(retry_count(&events))),
            (
                "guard_trips".to_owned(),
                Json::from_u64(guard_trip_count(&events)),
            ),
        ];
        if let Some(stats) = stats {
            obj.push(("mining_stats".to_owned(), stats_json(stats)));
        }
        Json::Obj(obj)
    }

    /// Appends the summary document to the `--metrics-out` file (when one
    /// is open) and reports where it went. Surfaces any write failure the
    /// sink recorded during the run. Call *after* dropping the install
    /// guard so the summary work is not itself recorded.
    pub fn finalize(
        &self,
        stats: Option<&MiningStats>,
        out: &mut dyn Write,
    ) -> Result<(), CliError> {
        self.write_summary(self.summary_json(stats), out)
    }

    /// [`Self::finalize`] for commands whose result is a cross-run rollup
    /// rather than one [`MiningStats`]: appends `extra` key/value pairs to
    /// the summary object instead of `mining_stats`.
    pub fn finalize_with_extra(
        &self,
        extra: Vec<(String, Json)>,
        out: &mut dyn Write,
    ) -> Result<(), CliError> {
        let mut summary = self.summary_json(None);
        if let Json::Obj(obj) = &mut summary {
            obj.extend(extra);
        }
        self.write_summary(summary, out)
    }

    fn write_summary(&self, summary: Json, out: &mut dyn Write) -> Result<(), CliError> {
        let Some(json) = &self.json else {
            return Ok(());
        };
        json.append_line(&summary.render());
        if json.take_write_error() {
            return Err(CliError::Io(std::io::Error::other(format!(
                "failed writing metrics to {}",
                self.metrics_path.as_deref().unwrap_or("<metrics-out>")
            ))));
        }
        if let Some(path) = &self.metrics_path {
            writeln!(out, "metrics written to {path}")?;
        }
        Ok(())
    }
}

/// Parses `--progress` / `--progress-interval-ms` into a stderr
/// heartbeat sink.
fn parse_progress(args: &Parsed) -> Result<Option<Arc<ProgressSink>>, CliError> {
    if !args.switch("progress") {
        return Ok(None);
    }
    let interval_ms: u64 = args.parsed_or("progress-interval-ms", 1000)?;
    Ok(Some(Arc::new(ProgressSink::new(
        Box::new(std::io::stderr()),
        Duration::from_millis(interval_ms),
    ))))
}

/// Counts retry events (`source.retries` counter total) in an event log.
fn retry_count(events: &[Event]) -> u64 {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Counter {
                name: "source.retries",
                delta,
                ..
            } => Some(*delta),
            _ => None,
        })
        .sum()
}

/// Counts resource-guard trips (deadline + tree-budget marks).
fn guard_trip_count(events: &[Event]) -> u64 {
    events
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::Mark {
                    name: "guard.deadline_exceeded" | "guard.tree_budget_exceeded",
                    ..
                }
            )
        })
        .count() as u64
}

/// Encodes a [`MiningStats`] as JSON.
pub fn stats_json(stats: &MiningStats) -> Json {
    Json::Obj(vec![
        (
            "series_scans".to_owned(),
            Json::from_usize(stats.series_scans),
        ),
        (
            "candidates_generated".to_owned(),
            Json::from_u64(stats.candidates_generated),
        ),
        (
            "subset_tests".to_owned(),
            Json::from_u64(stats.subset_tests),
        ),
        ("tree_nodes".to_owned(), Json::from_usize(stats.tree_nodes)),
        (
            "distinct_hits".to_owned(),
            Json::from_usize(stats.distinct_hits),
        ),
        (
            "hit_insertions".to_owned(),
            Json::from_u64(stats.hit_insertions),
        ),
        ("max_level".to_owned(), Json::from_usize(stats.max_level)),
    ])
}

/// Encodes a [`StatsRollup`] as JSON, reporting the summed totals *and*
/// the per-run maxima of the tree-size fields (see the
/// [`MiningStats::absorb`] docs for why both views matter).
pub fn rollup_json(rollup: &StatsRollup) -> Json {
    Json::Obj(vec![
        ("runs".to_owned(), Json::from_usize(rollup.runs)),
        ("total".to_owned(), stats_json(&rollup.total)),
        (
            "max_tree_nodes".to_owned(),
            Json::from_usize(rollup.max_tree_nodes),
        ),
        (
            "max_distinct_hits".to_owned(),
            Json::from_usize(rollup.max_distinct_hits),
        ),
    ])
}

/// A heartbeat sink for `mine --progress`: tracks the
/// `hitset.segments_total` gauge and the batched `hitset.segments`
/// counter, and prints `done/total` with percentage and a naive ETA at
/// most once per interval. Written for stderr so it never pollutes
/// machine-read stdout.
pub struct ProgressSink {
    state: Mutex<ProgressState>,
}

struct ProgressState {
    out: Box<dyn Write + Send>,
    interval: Duration,
    started: Instant,
    last_print: Option<Instant>,
    total: u64,
    done: u64,
}

impl ProgressSink {
    /// Wraps `out`, printing at most once per `interval`.
    pub fn new(out: Box<dyn Write + Send>, interval: Duration) -> Self {
        ProgressSink {
            state: Mutex::new(ProgressState {
                out,
                interval,
                started: Instant::now(),
                last_print: None,
                total: 0,
                done: 0,
            }),
        }
    }
}

impl Sink for ProgressSink {
    fn record(&self, event: &Event) {
        let mut state = self.state.lock().expect("progress lock");
        match event {
            Event::Gauge {
                name: "hitset.segments_total",
                value,
                ..
            } => {
                state.total = *value;
                state.started = Instant::now();
                state.done = 0;
            }
            Event::Counter {
                name: "hitset.segments",
                delta,
                ..
            } => {
                state.done += delta;
                let due = state
                    .last_print
                    .is_none_or(|t| t.elapsed() >= state.interval);
                if !due {
                    return;
                }
                state.last_print = Some(Instant::now());
                let elapsed = state.started.elapsed();
                let (done, total) = (state.done, state.total);
                let line = if total > 0 && done > 0 && done < total {
                    let eta = elapsed.mul_f64((total - done) as f64 / done as f64);
                    format!(
                        "progress: {done}/{total} segments ({:.0}%), elapsed {:.1}s, eta {:.1}s",
                        100.0 * done as f64 / total as f64,
                        elapsed.as_secs_f64(),
                        eta.as_secs_f64()
                    )
                } else {
                    format!(
                        "progress: {done}/{total} segments, elapsed {:.1}s",
                        elapsed.as_secs_f64()
                    )
                };
                let _ = writeln!(state.out, "{line}");
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_buf() -> (Arc<Mutex<Vec<u8>>>, Box<dyn Write + Send>) {
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        (buf.clone(), Box::new(Shared(buf)))
    }

    #[test]
    fn progress_prints_with_percentage_and_eta() {
        let (buf, out) = shared_buf();
        let sink = ProgressSink::new(out, Duration::ZERO);
        sink.record(&Event::Gauge {
            seq: 1,
            at_us: 0,
            name: "hitset.segments_total",
            value: 100,
        });
        sink.record(&Event::Counter {
            seq: 2,
            at_us: 10,
            name: "hitset.segments",
            delta: 25,
        });
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(text.contains("25/100 segments (25%)"), "{text}");
        assert!(text.contains("eta"), "{text}");
    }

    #[test]
    fn progress_respects_the_interval() {
        let (buf, out) = shared_buf();
        let sink = ProgressSink::new(out, Duration::from_secs(3600));
        sink.record(&Event::Gauge {
            seq: 1,
            at_us: 0,
            name: "hitset.segments_total",
            value: 100,
        });
        for seq in 0..10 {
            sink.record(&Event::Counter {
                seq,
                at_us: 10,
                name: "hitset.segments",
                delta: 1,
            });
        }
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 1, "only the first tick prints");
    }

    #[test]
    fn stats_json_round_trips_through_the_parser() {
        let stats = MiningStats {
            series_scans: 2,
            tree_nodes: 17,
            hit_insertions: 40,
            max_level: 3,
            ..Default::default()
        };
        let parsed = Json::parse(&stats_json(&stats).render()).unwrap();
        assert_eq!(parsed.get("series_scans").unwrap().as_u64(), Some(2));
        assert_eq!(parsed.get("tree_nodes").unwrap().as_u64(), Some(17));
        assert_eq!(parsed.get("hit_insertions").unwrap().as_u64(), Some(40));
    }

    #[test]
    fn rollup_json_reports_total_and_max() {
        let mut rollup = StatsRollup::new();
        rollup.add(&MiningStats {
            tree_nodes: 10,
            ..Default::default()
        });
        rollup.add(&MiningStats {
            tree_nodes: 4,
            ..Default::default()
        });
        let parsed = Json::parse(&rollup_json(&rollup).render()).unwrap();
        assert_eq!(parsed.get("runs").unwrap().as_u64(), Some(2));
        assert_eq!(parsed.get("max_tree_nodes").unwrap().as_u64(), Some(10));
        assert_eq!(
            parsed
                .get("total")
                .unwrap()
                .get("tree_nodes")
                .unwrap()
                .as_u64(),
            Some(14)
        );
    }
}
