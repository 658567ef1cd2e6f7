//! Pluggable event sinks.
//!
//! A [`Sink`] receives every [`Event`] recorded on contexts it is
//! installed in. Four implementations cover the common shapes:
//!
//! * [`NoopSink`] — swallows everything (useful to measure overhead with
//!   observability structurally on but semantically off);
//! * [`Collector`] — in-memory: keeps the ordered event log plus
//!   aggregated counter totals and gauge maxima, for tests and for
//!   end-of-run reporting;
//! * [`JsonLinesSink`] — streams each event as one JSON object per line to
//!   any writer, aggregating counter totals on the side for the final
//!   summary document;
//! * [`HumanReporter`] — live, human-readable lines (span closes and
//!   marks) to any writer, indentation following span depth.
//!
//! [`Fanout`] composes several sinks behind one handle.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

use crate::event::Event;

/// Receives recorded events. Implementations must be cheap and must not
/// call back into the observability facade (events recorded from inside
/// `record` would deadlock a sink that holds its own lock).
pub trait Sink: Send + Sync {
    /// Handles one event.
    fn record(&self, event: &Event);
}

/// A sink that discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn record(&self, _event: &Event) {}
}

#[derive(Debug, Default)]
struct CollectorState {
    events: Vec<Event>,
    counters: BTreeMap<&'static str, u64>,
    gauge_max: BTreeMap<&'static str, u64>,
}

/// An in-memory sink: the full ordered event log plus counter totals and
/// per-gauge maxima.
#[derive(Debug, Default)]
pub struct Collector {
    state: Mutex<CollectorState>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clone of the ordered event log.
    pub fn events(&self) -> Vec<Event> {
        self.state.lock().expect("collector lock").events.clone()
    }

    /// The aggregated total of one counter (0 if never incremented).
    pub fn counter_total(&self, name: &str) -> u64 {
        *self
            .state
            .lock()
            .expect("collector lock")
            .counters
            .get(name)
            .unwrap_or(&0)
    }

    /// All counter totals, name-sorted.
    pub fn counter_totals(&self) -> BTreeMap<String, u64> {
        self.state
            .lock()
            .expect("collector lock")
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_owned(), v))
            .collect()
    }

    /// The maximum value each gauge ever reported, name-sorted.
    pub fn gauge_maxima(&self) -> BTreeMap<String, u64> {
        self.state
            .lock()
            .expect("collector lock")
            .gauge_max
            .iter()
            .map(|(&k, &v)| (k.to_owned(), v))
            .collect()
    }

    /// Names of completed spans, in completion order.
    pub fn finished_span_names(&self) -> Vec<&'static str> {
        self.state
            .lock()
            .expect("collector lock")
            .events
            .iter()
            .filter_map(|e| match e {
                Event::SpanEnd { name, .. } => Some(*name),
                _ => None,
            })
            .collect()
    }

    /// `(name, detail)` of every mark, in order.
    pub fn marks(&self) -> Vec<(&'static str, String)> {
        self.state
            .lock()
            .expect("collector lock")
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Mark { name, detail, .. } => Some((*name, detail.clone())),
                _ => None,
            })
            .collect()
    }
}

impl Sink for Collector {
    fn record(&self, event: &Event) {
        let mut state = self.state.lock().expect("collector lock");
        match event {
            Event::Counter { name, delta, .. } => {
                *state.counters.entry(name).or_insert(0) += delta;
            }
            Event::Gauge { name, value, .. } => {
                let slot = state.gauge_max.entry(name).or_insert(0);
                *slot = (*slot).max(*value);
            }
            _ => {}
        }
        state.events.push(event.clone());
    }
}

struct JsonLinesState {
    out: Box<dyn Write + Send>,
    counters: BTreeMap<&'static str, u64>,
    write_error: bool,
}

impl std::fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonLinesSink").finish_non_exhaustive()
    }
}

/// Streams events as JSON lines to a writer. Counter events are *not*
/// written per-line (a hot loop can emit thousands); their totals
/// accumulate and can be flushed into the final summary via
/// [`counter_totals`](Self::counter_totals) /
/// [`append_line`](Self::append_line). Write failures flip a sticky flag
/// (surfaced by [`take_write_error`](Self::take_write_error)) instead of
/// panicking inside the instrumented hot path.
pub struct JsonLinesSink {
    state: Mutex<JsonLinesState>,
}

impl JsonLinesSink {
    /// Wraps `out`.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonLinesSink {
            state: Mutex::new(JsonLinesState {
                out,
                counters: BTreeMap::new(),
                write_error: false,
            }),
        }
    }

    /// Aggregated counter totals seen so far, name-sorted.
    pub fn counter_totals(&self) -> BTreeMap<String, u64> {
        self.state
            .lock()
            .expect("jsonl lock")
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_owned(), v))
            .collect()
    }

    /// Appends one raw line (used for the final summary document) and
    /// flushes.
    pub fn append_line(&self, line: &str) {
        let mut state = self.state.lock().expect("jsonl lock");
        if writeln!(state.out, "{line}").is_err() || state.out.flush().is_err() {
            state.write_error = true;
        }
    }

    /// Whether any write failed since the last call; clears the flag.
    pub fn take_write_error(&self) -> bool {
        let mut state = self.state.lock().expect("jsonl lock");
        std::mem::replace(&mut state.write_error, false)
    }
}

impl Sink for JsonLinesSink {
    fn record(&self, event: &Event) {
        let mut state = self.state.lock().expect("jsonl lock");
        if let Event::Counter { name, delta, .. } = event {
            *state.counters.entry(name).or_insert(0) += delta;
            return;
        }
        let line = event.to_json_line();
        if writeln!(state.out, "{line}").is_err() {
            state.write_error = true;
        }
    }
}

/// Live human-readable reporting: one line per span close and per mark,
/// indented by span depth, written as events arrive.
pub struct HumanReporter {
    state: Mutex<HumanState>,
}

struct HumanState {
    out: Box<dyn Write + Send>,
    depth: usize,
}

impl std::fmt::Debug for HumanReporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HumanReporter").finish_non_exhaustive()
    }
}

impl HumanReporter {
    /// Wraps `out` (typically stderr).
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        HumanReporter {
            state: Mutex::new(HumanState { out, depth: 0 }),
        }
    }
}

impl Sink for HumanReporter {
    fn record(&self, event: &Event) {
        let mut state = self.state.lock().expect("human lock");
        match event {
            Event::SpanStart { .. } => state.depth += 1,
            Event::SpanEnd {
                name, elapsed_us, ..
            } => {
                state.depth = state.depth.saturating_sub(1);
                let pad = "  ".repeat(state.depth);
                let _ = writeln!(
                    state.out,
                    "{pad}{name}  {}",
                    crate::render::format_us(*elapsed_us)
                );
            }
            Event::Mark { name, detail, .. } => {
                let pad = "  ".repeat(state.depth);
                let _ = writeln!(state.out, "{pad}! {name}: {detail}");
            }
            Event::Counter { .. } | Event::Gauge { .. } => {}
        }
    }
}

/// Broadcasts every event to several sinks, in order.
#[derive(Clone, Default)]
pub struct Fanout {
    sinks: Vec<Arc<dyn Sink>>,
}

impl std::fmt::Debug for Fanout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fanout({} sinks)", self.sinks.len())
    }
}

impl Fanout {
    /// An empty fanout (equivalent to [`NoopSink`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sink.
    pub fn push(mut self, sink: Arc<dyn Sink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether no sinks are attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl Sink for Fanout {
    fn record(&self, event: &Event) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(seq: u64, name: &'static str) -> Event {
        Event::Mark {
            seq,
            at_us: seq * 10,
            name,
            detail: format!("d{seq}"),
        }
    }

    #[test]
    fn collector_aggregates_and_preserves_order() {
        let c = Collector::new();
        c.record(&mark(1, "a"));
        c.record(&Event::Counter {
            seq: 2,
            at_us: 20,
            name: "n",
            delta: 3,
        });
        c.record(&Event::Counter {
            seq: 3,
            at_us: 30,
            name: "n",
            delta: 4,
        });
        c.record(&Event::Gauge {
            seq: 4,
            at_us: 40,
            name: "g",
            value: 9,
        });
        c.record(&Event::Gauge {
            seq: 5,
            at_us: 50,
            name: "g",
            value: 2,
        });
        c.record(&mark(6, "b"));
        assert_eq!(c.counter_total("n"), 7);
        assert_eq!(c.counter_total("missing"), 0);
        assert_eq!(c.gauge_maxima().get("g"), Some(&9));
        let marks = c.marks();
        assert_eq!(marks[0].0, "a");
        assert_eq!(marks[1].0, "b");
        assert_eq!(c.events().len(), 6);
    }

    #[test]
    fn jsonl_writes_lines_and_keeps_counter_totals_aside() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
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
        let sink = JsonLinesSink::new(Box::new(Shared(buf.clone())));
        sink.record(&mark(1, "a"));
        sink.record(&Event::Counter {
            seq: 2,
            at_us: 20,
            name: "n",
            delta: 5,
        });
        sink.record(&mark(3, "b"));
        sink.append_line("{\"type\":\"summary\"}");
        assert!(!sink.take_write_error());
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "counters are aggregated, not written");
        for line in &lines {
            crate::json::Json::parse(line).unwrap();
        }
        assert_eq!(sink.counter_totals().get("n"), Some(&5));
    }

    #[test]
    fn fanout_broadcasts() {
        let a = Arc::new(Collector::new());
        let b = Arc::new(Collector::new());
        let f = Fanout::new()
            .push(a.clone() as Arc<dyn Sink>)
            .push(b.clone() as Arc<dyn Sink>);
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
        f.record(&mark(1, "x"));
        assert_eq!(a.marks().len(), 1);
        assert_eq!(b.marks().len(), 1);
    }

    #[test]
    fn human_reporter_indents_by_span_depth() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
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
        let sink = HumanReporter::new(Box::new(Shared(buf.clone())));
        sink.record(&Event::SpanStart {
            seq: 1,
            at_us: 0,
            id: 1,
            parent: None,
            name: "outer",
        });
        sink.record(&mark(2, "inside"));
        sink.record(&Event::SpanEnd {
            seq: 3,
            at_us: 100,
            id: 1,
            name: "outer",
            elapsed_us: 100,
        });
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(text.contains("  ! inside: d2"), "{text}");
        assert!(text.lines().last().unwrap().starts_with("outer"), "{text}");
    }
}
