//! Daemon metrics: latency histograms, Prometheus-style exposition, the
//! per-query access log, and per-query phase capture.
//!
//! Everything here is recording substrate for [`crate::server`]:
//!
//! * [`ServeMetrics`] — the daemon-wide counters and
//!   [`AtomicHistogram`]s (queue wait, service time, per-phase scan1 /
//!   scan2 / derive / cache-lookup durations). Lock-free to record;
//!   snapshotted for the `stats` op, the `metrics` op, and the
//!   `--metrics-out` file.
//! * [`prometheus_text`] — renders the whole state as Prometheus text
//!   exposition (`# TYPE`, `_bucket{le="…"}`, `_sum`, `_count`, plus
//!   explicit `_p50/_p90/_p95/_p99/_max` gauges so dashboards that
//!   cannot run `histogram_quantile` still get quantiles).
//! * [`AccessLog`] — one JSON line per query: op, store fingerprint,
//!   period, engine, cache provenance, queue/service µs, outcome and
//!   wire code; queries at or above the slow threshold additionally
//!   carry the full captured span detail.
//! * [`PhaseCapture`] — a per-query [`Sink`] layered over whatever sink
//!   the operator installed. It forwards every event unchanged and
//!   accumulates `*.scan1` / `*.scan2` / `*.derive` span durations, plus
//!   a bounded buffer of raw events for slow-query logging.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ppm_observe::histogram::DEFAULT_GRID_BITS;
use ppm_observe::{AtomicHistogram, Event, Histogram, Json, Sink};

use crate::cache::CacheStats;

/// Quantiles reported everywhere a histogram is summarized.
pub const QUANTILES: [(f64, &str); 5] = [
    (0.50, "p50"),
    (0.90, "p90"),
    (0.95, "p95"),
    (0.99, "p99"),
    (1.00, "max"),
];

/// The daemon-wide metric state. One instance per [`crate::Server`],
/// shared by the accept loop and every worker; recording never takes a
/// lock.
#[derive(Debug)]
pub struct ServeMetrics {
    epoch: Instant,
    /// Queries answered (any outcome that produced a response frame).
    pub served: AtomicU64,
    /// Connections shed by admission control.
    pub shed: AtomicU64,
    /// Panics contained by the per-query `catch_unwind`.
    pub panics: AtomicU64,
    /// Connections reaped by the deadline enforcement (idle peers and
    /// slow-loris/short-write stalls alike).
    pub conn_reaped: AtomicU64,
    /// Malformed wire frames answered with a typed error and a close.
    pub bad_frames: AtomicU64,
    /// Failed `accept()` calls other than an idle tick (EMFILE, ENFILE,
    /// ...).
    pub accept_errors: AtomicU64,
    /// Current admission-queue depth.
    pub queue_depth: AtomicU64,
    /// Exact-key cache answers.
    pub cache_hits: AtomicU64,
    /// Anti-monotone derived cache answers.
    pub cache_derived: AtomicU64,
    /// Queries that had to mine.
    pub cache_misses: AtomicU64,
    /// `append` ops that published new instants to a store.
    pub appends: AtomicU64,
    /// Instants appended across every `append` op.
    pub appended_instants: AtomicU64,
    /// Appends that copied a store's words to grow its resident load (see
    /// `Store::grow_reader`).
    pub append_grow_copies: AtomicU64,
    /// Total µs workers spent serving connections.
    pub worker_busy_us: AtomicU64,
    /// Queue wait per connection: admit → dequeue.
    pub queue_wait_us: AtomicHistogram,
    /// Service time per request frame: read → response written.
    pub service_us: AtomicHistogram,
    /// Per-query scan-1 phase time (first series pass).
    pub scan1_us: AtomicHistogram,
    /// Per-query scan-2 phase time (second series pass).
    pub scan2_us: AtomicHistogram,
    /// Per-query derive phase time (max-subpattern tree walk / bitmap
    /// intersection).
    pub derive_us: AtomicHistogram,
    /// Result-cache lookup time per cache-consulting query.
    pub cache_lookup_us: AtomicHistogram,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// Fresh metrics; the epoch for [`now_us`](Self::now_us) starts here.
    pub fn new() -> ServeMetrics {
        ServeMetrics {
            epoch: Instant::now(),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            conn_reaped: AtomicU64::new(0),
            bad_frames: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_derived: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            appended_instants: AtomicU64::new(0),
            append_grow_copies: AtomicU64::new(0),
            worker_busy_us: AtomicU64::new(0),
            queue_wait_us: AtomicHistogram::new(DEFAULT_GRID_BITS),
            service_us: AtomicHistogram::new(DEFAULT_GRID_BITS),
            scan1_us: AtomicHistogram::new(DEFAULT_GRID_BITS),
            scan2_us: AtomicHistogram::new(DEFAULT_GRID_BITS),
            derive_us: AtomicHistogram::new(DEFAULT_GRID_BITS),
            cache_lookup_us: AtomicHistogram::new(DEFAULT_GRID_BITS),
        }
    }

    /// µs since this daemon's metrics epoch (the flight recorder's
    /// timebase).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Whole seconds since startup.
    pub fn uptime_s(&self) -> u64 {
        self.epoch.elapsed().as_secs()
    }

    /// Counts a cache provenance label (`hit` / `derived` / `miss`;
    /// `bypass` is deliberately uncounted — quarantine and Apriori
    /// queries never consult the cache).
    pub fn count_cache_label(&self, label: &str) {
        match label {
            "hit" => self.cache_hits.fetch_add(1, Ordering::Relaxed),
            "derived" => self.cache_derived.fetch_add(1, Ordering::Relaxed),
            "miss" => self.cache_misses.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    }

    /// The latency block of the `stats` response: one summary object per
    /// histogram.
    pub fn latency_json(&self) -> Json {
        Json::Obj(vec![
            (
                "queue_wait".to_owned(),
                summary_json(&self.queue_wait_us.snapshot()),
            ),
            (
                "service".to_owned(),
                summary_json(&self.service_us.snapshot()),
            ),
            ("scan1".to_owned(), summary_json(&self.scan1_us.snapshot())),
            ("scan2".to_owned(), summary_json(&self.scan2_us.snapshot())),
            (
                "derive".to_owned(),
                summary_json(&self.derive_us.snapshot()),
            ),
            (
                "cache_lookup".to_owned(),
                summary_json(&self.cache_lookup_us.snapshot()),
            ),
        ])
    }
}

/// `{count, mean_us, p50_us, p90_us, p95_us, p99_us, max_us}` for one
/// histogram snapshot.
pub fn summary_json(h: &Histogram) -> Json {
    let mut fields = vec![
        ("count".to_owned(), Json::from_u64(h.count())),
        ("mean_us".to_owned(), Json::Num(h.mean().round())),
    ];
    for (q, label) in QUANTILES {
        fields.push((
            format!("{label}_us"),
            Json::from_u64(h.value_at_quantile(q)),
        ));
    }
    Json::Obj(fields)
}

/// The daemon's own memory in bytes, `(rss, peak_rss)`: `VmRSS` and
/// `VmHWM` from `/proc/self/status`. `None` where `/proc` is absent (or
/// lacks either line).
pub(crate) fn process_memory() -> Option<(u64, u64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = |key: &str| -> Option<u64> {
        let line = status.lines().find(|l| l.starts_with(key))?;
        let kb = line[key.len()..]
            .split_whitespace()
            .next()?
            .parse::<u64>()
            .ok()?;
        Some(kb * 1024)
    };
    Some((kib("VmRSS:")?, kib("VmHWM:")?))
}

/// Renders the full daemon state as Prometheus text exposition.
pub fn prometheus_text(
    metrics: &ServeMetrics,
    cache: &CacheStats,
    stores: usize,
    stores_quarantined: usize,
    live_indexes: usize,
    index_bytes: usize,
) -> String {
    let mut out = String::new();
    let c = |out: &mut String, name: &str, help: &str, v: u64| {
        scalar(out, name, "counter", help, v);
    };
    let g = |out: &mut String, name: &str, help: &str, v: u64| {
        scalar(out, name, "gauge", help, v);
    };
    c(
        &mut out,
        "ppm_serve_served_total",
        "Queries answered with a response frame",
        metrics.served.load(Ordering::Relaxed),
    );
    c(
        &mut out,
        "ppm_serve_shed_total",
        "Connections shed by admission control",
        metrics.shed.load(Ordering::Relaxed),
    );
    c(
        &mut out,
        "ppm_serve_panics_total",
        "Panics contained per-query",
        metrics.panics.load(Ordering::Relaxed),
    );
    c(
        &mut out,
        "ppm_serve_conn_reaped_total",
        "Connections reaped by deadline enforcement",
        metrics.conn_reaped.load(Ordering::Relaxed),
    );
    c(
        &mut out,
        "ppm_serve_bad_frames_total",
        "Malformed wire frames answered with a typed error",
        metrics.bad_frames.load(Ordering::Relaxed),
    );
    c(
        &mut out,
        "ppm_serve_accept_errors_total",
        "Failed accept calls other than an idle tick",
        metrics.accept_errors.load(Ordering::Relaxed),
    );
    c(
        &mut out,
        "ppm_serve_cache_hits_total",
        "Exact-key result-cache answers",
        metrics.cache_hits.load(Ordering::Relaxed),
    );
    c(
        &mut out,
        "ppm_serve_cache_derived_total",
        "Anti-monotone derived cache answers",
        metrics.cache_derived.load(Ordering::Relaxed),
    );
    c(
        &mut out,
        "ppm_serve_cache_misses_total",
        "Queries that had to mine",
        metrics.cache_misses.load(Ordering::Relaxed),
    );
    c(
        &mut out,
        "ppm_serve_appends_total",
        "Append ops that published new instants",
        metrics.appends.load(Ordering::Relaxed),
    );
    c(
        &mut out,
        "ppm_serve_appended_instants_total",
        "Instants appended across every append op",
        metrics.appended_instants.load(Ordering::Relaxed),
    );
    c(
        &mut out,
        "ppm_serve_append_grow_copies_total",
        "Appends that copied a store to grow its resident load",
        metrics.append_grow_copies.load(Ordering::Relaxed),
    );
    c(
        &mut out,
        "ppm_serve_worker_busy_us_total",
        "Total microseconds workers spent serving",
        metrics.worker_busy_us.load(Ordering::Relaxed),
    );
    g(
        &mut out,
        "ppm_serve_queue_depth",
        "Current admission-queue depth",
        metrics.queue_depth.load(Ordering::Relaxed),
    );
    g(
        &mut out,
        "ppm_serve_uptime_seconds",
        "Seconds since daemon start",
        metrics.uptime_s(),
    );
    g(&mut out, "ppm_serve_stores", "Stores served", stores as u64);
    g(
        &mut out,
        "ppm_serve_stores_quarantined",
        "Stores quarantined by checksum re-verification",
        stores_quarantined as u64,
    );
    g(
        &mut out,
        "ppm_serve_live_indexes",
        "Live incremental vertical indexes across every store (LRU-capped per store)",
        live_indexes as u64,
    );
    g(
        &mut out,
        "ppm_serve_index_bytes",
        "Resident bytes held by live incremental indexes (segment logs, dense rows, candidate counts)",
        index_bytes as u64,
    );
    if let Some((rss, peak)) = process_memory() {
        g(
            &mut out,
            "ppm_serve_rss_bytes",
            "Daemon resident set size (VmRSS)",
            rss,
        );
        g(
            &mut out,
            "ppm_serve_peak_rss_bytes",
            "Daemon peak resident set size (VmHWM)",
            peak,
        );
    }
    g(
        &mut out,
        "ppm_serve_cache_entries",
        "Live result-cache entries",
        cache.entries as u64,
    );
    g(
        &mut out,
        "ppm_serve_cache_bytes",
        "Approximate bytes held by live cache entries",
        cache.bytes as u64,
    );
    c(
        &mut out,
        "ppm_serve_cache_rejected_total",
        "Cache entries rejected as damaged at load",
        cache.rejected,
    );
    c(
        &mut out,
        "ppm_serve_cache_evictions_total",
        "Cache entries evicted by the size bounds",
        cache.evictions,
    );
    histogram_text(
        &mut out,
        "ppm_serve_queue_wait_us",
        "Queue wait per connection, microseconds",
        &metrics.queue_wait_us.snapshot(),
    );
    histogram_text(
        &mut out,
        "ppm_serve_service_us",
        "Service time per request frame, microseconds",
        &metrics.service_us.snapshot(),
    );
    histogram_text(
        &mut out,
        "ppm_serve_phase_scan1_us",
        "Scan-1 phase per query, microseconds",
        &metrics.scan1_us.snapshot(),
    );
    histogram_text(
        &mut out,
        "ppm_serve_phase_scan2_us",
        "Scan-2 phase per query, microseconds",
        &metrics.scan2_us.snapshot(),
    );
    histogram_text(
        &mut out,
        "ppm_serve_phase_derive_us",
        "Derive phase per query, microseconds",
        &metrics.derive_us.snapshot(),
    );
    histogram_text(
        &mut out,
        "ppm_serve_phase_cache_us",
        "Result-cache lookup per query, microseconds",
        &metrics.cache_lookup_us.snapshot(),
    );
    out
}

fn scalar(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
    ));
}

/// One histogram: cumulative buckets over the non-empty bucket bounds,
/// `+Inf`, `_sum`, `_count`, then explicit quantile gauges.
fn histogram_text(out: &mut String, name: &str, help: &str, h: &Histogram) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for (upper, count) in h.nonzero_buckets() {
        cumulative += count;
        out.push_str(&format!("{name}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
    out.push_str(&format!("{name}_sum {}\n", h.sum()));
    out.push_str(&format!("{name}_count {}\n", h.count()));
    for (q, label) in QUANTILES {
        let series = format!("{name}_{label}");
        out.push_str(&format!(
            "# TYPE {series} gauge\n{series} {}\n",
            h.value_at_quantile(q)
        ));
    }
}

/// Atomically publishes the exposition to `path` (same-directory temp +
/// rename, so a scraper never reads a torn file).
pub fn write_exposition(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Everything one access-log line records about a query.
#[derive(Debug)]
pub struct AccessRecord<'a> {
    /// Wire op (`mine`, `rules`, …).
    pub op: &'a str,
    /// Store name from the request, if any.
    pub store: Option<&'a str>,
    /// Resolved store content fingerprint, if the store exists.
    pub fingerprint: Option<u64>,
    /// Mining period, if the request carried one.
    pub period: Option<u64>,
    /// Engine, if the request carried one.
    pub engine: Option<&'a str>,
    /// Cache provenance from the response (`hit`/`derived`/`miss`/`bypass`).
    pub cached: Option<&'a str>,
    /// Queue wait for this connection's first frame, µs (0 after).
    pub queue_us: u64,
    /// Service time for this frame, µs.
    pub service_us: u64,
    /// `ok`, `error`, `panic`.
    pub outcome: &'a str,
    /// The wire/exit code the client will map this to (0 on success).
    pub code: u64,
    /// Captured span detail, attached only when the query was slow.
    pub slow_detail: Option<&'a [Json]>,
}

/// Append-only JSON-lines access log. One mutex-guarded appender shared
/// by the workers; a line is a single `write_all`, so concurrent lines
/// never interleave.
#[derive(Debug)]
pub struct AccessLog {
    file: Mutex<File>,
    /// Service-time threshold (µs) at or above which full span detail is
    /// attached; `u64::MAX` disables slow logging.
    pub slow_us: u64,
}

impl AccessLog {
    /// Opens (appending) the access log at `path`.
    pub fn open(path: &Path, slow_us: u64) -> std::io::Result<AccessLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(AccessLog {
            file: Mutex::new(file),
            slow_us,
        })
    }

    /// Writes one record as one JSON line. Write failures are swallowed —
    /// losing a log line must never fail a query.
    pub fn log(&self, at_us: u64, r: &AccessRecord<'_>) {
        let mut fields = vec![
            ("at_us".to_owned(), Json::from_u64(at_us)),
            ("op".to_owned(), Json::Str(r.op.to_owned())),
        ];
        if let Some(s) = r.store {
            fields.push(("store".to_owned(), Json::Str(s.to_owned())));
        }
        if let Some(fp) = r.fingerprint {
            fields.push(("fingerprint".to_owned(), Json::Str(format!("{fp:016x}"))));
        }
        if let Some(p) = r.period {
            fields.push(("period".to_owned(), Json::from_u64(p)));
        }
        if let Some(e) = r.engine {
            fields.push(("engine".to_owned(), Json::Str(e.to_owned())));
        }
        if let Some(c) = r.cached {
            fields.push(("cached".to_owned(), Json::Str(c.to_owned())));
        }
        fields.push(("queue_us".to_owned(), Json::from_u64(r.queue_us)));
        fields.push(("service_us".to_owned(), Json::from_u64(r.service_us)));
        fields.push(("outcome".to_owned(), Json::Str(r.outcome.to_owned())));
        fields.push(("code".to_owned(), Json::from_u64(r.code)));
        if r.service_us >= self.slow_us {
            fields.push(("slow".to_owned(), Json::Bool(true)));
            if let Some(detail) = r.slow_detail {
                fields.push(("spans".to_owned(), Json::Arr(detail.to_vec())));
            }
        }
        let line = Json::Obj(fields).render();
        if let Ok(mut f) = self.file.lock() {
            let _ = f.write_all(line.as_bytes());
            let _ = f.write_all(b"\n");
        }
    }
}

/// How many raw events [`PhaseCapture`] buffers for slow-query detail.
const CAPTURE_CAP: usize = 256;

/// A per-query sink that measures the paper's cost-model phases.
///
/// Installed for the duration of one `dispatch`, wrapping whatever sink
/// was already current (the operator's `--trace` sink keeps seeing
/// everything). Span ends whose names carry the conventional phase
/// suffixes — `hitset.scan1`, `vertical.derive`, … — are accumulated per
/// phase; every event is also kept (up to a cap) so a slow query can log
/// its full span detail without anyone having asked in advance.
pub struct PhaseCapture {
    inner: Option<Arc<dyn Sink>>,
    scan1_us: AtomicU64,
    scan2_us: AtomicU64,
    derive_us: AtomicU64,
    events: Mutex<Vec<Json>>,
}

impl PhaseCapture {
    /// A capture forwarding to `inner` (pass
    /// [`ppm_observe::current_sink()`] to tee into the operator's sink).
    pub fn new(inner: Option<Arc<dyn Sink>>) -> PhaseCapture {
        PhaseCapture {
            inner,
            scan1_us: AtomicU64::new(0),
            scan2_us: AtomicU64::new(0),
            derive_us: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Accumulated `(scan1, scan2, derive)` µs.
    pub fn phase_us(&self) -> (u64, u64, u64) {
        (
            self.scan1_us.load(Ordering::Relaxed),
            self.scan2_us.load(Ordering::Relaxed),
            self.derive_us.load(Ordering::Relaxed),
        )
    }

    /// The buffered raw events (JSON-lines schema objects).
    pub fn events(&self) -> Vec<Json> {
        self.events.lock().map(|e| e.clone()).unwrap_or_default()
    }
}

impl Sink for PhaseCapture {
    fn record(&self, event: &Event) {
        if let Event::SpanEnd {
            name, elapsed_us, ..
        } = event
        {
            let slot = if name.ends_with(".scan1") {
                Some(&self.scan1_us)
            } else if name.ends_with(".scan2") {
                Some(&self.scan2_us)
            } else if name.ends_with(".derive") {
                Some(&self.derive_us)
            } else {
                None
            };
            if let Some(slot) = slot {
                slot.fetch_add(*elapsed_us, Ordering::Relaxed);
            }
        }
        if let Ok(mut events) = self.events.lock() {
            if events.len() < CAPTURE_CAP {
                events.push(event.to_json());
            }
        }
        if let Some(inner) = &self.inner {
            inner.record(event);
        }
    }
}

impl std::fmt::Debug for PhaseCapture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (s1, s2, d) = self.phase_us();
        f.debug_struct("PhaseCapture")
            .field("scan1_us", &s1)
            .field("scan2_us", &s2)
            .field("derive_us", &d)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_end(name: &'static str, elapsed_us: u64) -> Event {
        Event::SpanEnd {
            seq: 1,
            at_us: 0,
            id: 1,
            name,
            elapsed_us,
        }
    }

    #[test]
    fn phase_capture_keys_on_phase_suffixes() {
        let cap = PhaseCapture::new(None);
        cap.record(&span_end("hitset.scan1", 10));
        cap.record(&span_end("hitset.scan2", 20));
        cap.record(&span_end("hitset.derive", 30));
        cap.record(&span_end("vertical.derive", 5));
        cap.record(&span_end("serve.mine", 999)); // no phase suffix
        assert_eq!(cap.phase_us(), (10, 20, 35));
        assert_eq!(cap.events().len(), 5, "every event buffered");
    }

    #[test]
    fn phase_capture_forwards_to_the_inner_sink() {
        let collector = Arc::new(ppm_observe::Collector::new());
        let cap = PhaseCapture::new(Some(collector.clone()));
        cap.record(&span_end("hitset.scan1", 7));
        assert_eq!(cap.phase_us().0, 7);
        assert_eq!(collector.events().len(), 1, "inner sink still sees it");
    }

    #[test]
    fn summary_json_reports_the_quantile_family() {
        let mut h = Histogram::with_default_precision();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = summary_json(&h);
        assert_eq!(s.get("count").and_then(Json::as_u64), Some(100));
        assert_eq!(s.get("max_us").and_then(Json::as_u64), Some(100));
        let p50 = s.get("p50_us").and_then(Json::as_u64).unwrap();
        let p99 = s.get("p99_us").and_then(Json::as_u64).unwrap();
        assert!((50..=52).contains(&p50), "p50 ~50, got {p50}");
        assert!(p99 >= 99, "p99 >= 99, got {p99}");
    }

    #[test]
    fn exposition_has_buckets_sums_and_quantile_gauges() {
        let m = ServeMetrics::new();
        for v in [10u64, 100, 1000, 10_000] {
            m.queue_wait_us.record(v);
            m.service_us.record(v * 2);
        }
        m.served.fetch_add(4, Ordering::Relaxed);
        let cache = CacheStats::default();
        let text = prometheus_text(&m, &cache, 3, 1, 2, 4096);
        assert!(text.contains("# TYPE ppm_serve_queue_wait_us histogram"));
        assert!(text.contains("ppm_serve_stores_quarantined 1"));
        assert!(text.contains("ppm_serve_live_indexes 2"));
        assert!(text.contains("ppm_serve_index_bytes 4096"));
        if cfg!(target_os = "linux") {
            assert!(text.contains("\nppm_serve_rss_bytes "), "{text}");
            assert!(text.contains("\nppm_serve_peak_rss_bytes "), "{text}");
        }
        assert!(text.contains("ppm_serve_conn_reaped_total 0"));
        assert!(text.contains("ppm_serve_cache_evictions_total 0"));
        assert!(text.contains("ppm_serve_queue_wait_us_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("ppm_serve_queue_wait_us_count 4"));
        assert!(text.contains("ppm_serve_service_us_p95 "));
        assert!(text.contains("ppm_serve_service_us_p50 "));
        assert!(text.contains("ppm_serve_served_total 4"));
        assert!(text.contains("ppm_serve_stores 3"));
        // Buckets are cumulative and end at the total count.
        let last_bucket = text
            .lines()
            .rfind(|l| l.starts_with("ppm_serve_queue_wait_us_bucket{le=\"+Inf\""))
            .unwrap();
        assert!(last_bucket.ends_with(" 4"));
    }

    #[test]
    fn access_log_writes_parseable_lines_and_flags_slow_queries() {
        let dir = std::env::temp_dir().join(format!("ppm-alog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let log = AccessLog::open(&path, 5_000).unwrap();
        log.log(
            1,
            &AccessRecord {
                op: "mine",
                store: Some("smoke"),
                fingerprint: Some(0xdead_beef),
                period: Some(12),
                engine: Some("hitset"),
                cached: Some("miss"),
                queue_us: 40,
                service_us: 900,
                outcome: "ok",
                code: 0,
                slow_detail: None,
            },
        );
        let detail = vec![span_end("hitset.scan1", 9_000).to_json()];
        log.log(
            2,
            &AccessRecord {
                op: "mine",
                store: Some("smoke"),
                fingerprint: None,
                period: Some(12),
                engine: Some("vertical"),
                cached: None,
                queue_us: 0,
                service_us: 9_500,
                outcome: "error",
                code: 3,
                slow_detail: Some(&detail),
            },
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("cached").and_then(Json::as_str), Some("miss"));
        assert_eq!(
            lines[0].get("fingerprint").and_then(Json::as_str),
            Some("00000000deadbeef")
        );
        assert!(lines[0].get("slow").is_none(), "fast query not flagged");
        assert_eq!(lines[1].get("slow"), Some(&Json::Bool(true)));
        assert_eq!(
            lines[1]
                .get("spans")
                .and_then(Json::as_arr)
                .map(|a| a.len()),
            Some(1),
            "slow query carries span detail"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
