//! The daemon: admission control, worker pool, panic isolation, graceful
//! drain.
//!
//! ## Life of a query
//!
//! The accept loop admits each connection into a bounded queue the moment
//! it arrives: `accept()` blocks for at most one short tick, after which
//! the same thread runs its timers (shutdown flag, `SIGUSR1` dumps, the
//! metrics file, store re-verification), so shutdown is seen within a
//! tick with or without traffic. A full queue sheds the connection
//! with an explicit `overload` frame carrying a retry hint — the client
//! is told, never hung up on silently. Workers pop connections, read one
//! request frame at a time, and dispatch it under `catch_unwind`: a
//! panicking query produces a structured `error` response and a bumped
//! `panics` counter while the worker (and daemon) keep serving.
//!
//! ## Lifecycle
//!
//! SIGTERM/SIGINT (or the `shutdown` op) flip the stop flag. The accept
//! loop closes admissions; workers drain the queued connections under the
//! configured drain deadline, then exit; the result cache is flushed one
//! final time and the Unix socket file (if any) removed. `kill -9` is the
//! crash path the cache's checksummed entries and the columnar store's
//! atomic publishes are built for.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ppm_core::{Alphabet, Engine, LetterSet, MineConfig, MiningResult};
use ppm_observe::{FlightKind, FlightRecorder, Json, NameId};
use ppm_timeseries::columnar::ColumnarAppender;
use ppm_timeseries::{
    Fault, FaultInjectingSource, FaultPlan, FeatureCatalog, MemorySource, QuarantineMode,
    QuarantiningSource, SeriesSource,
};

use crate::accept;
use crate::cache::{
    CacheKey, CacheLimits, CacheOutcome, CachedResult, CachedRow, Rekey, ResultCache,
};
use crate::error::ErrorCode;
use crate::metrics::{self, AccessLog, AccessRecord, PhaseCapture, ServeMetrics};
use crate::protocol::{
    self, error_response, overload_response, req_f64, req_str, req_u64, result_response,
};
use crate::signal;
use crate::store::StoreRegistry;

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Bind {
    /// A TCP address, e.g. `127.0.0.1:7070` (port `0` picks one).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

/// The address actually bound (TCP reports the resolved port).
#[derive(Debug, Clone)]
pub enum BoundAddr {
    /// Bound TCP socket address.
    Tcp(SocketAddr),
    /// Bound Unix socket path.
    Unix(PathBuf),
}

impl std::fmt::Display for BoundAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundAddr::Tcp(a) => write!(f, "tcp {a}"),
            BoundAddr::Unix(p) => write!(f, "unix {}", p.display()),
        }
    }
}

/// Daemon tuning. Every field has a safe default; construct with
/// [`ServeConfig::new`] and override as needed.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address.
    pub bind: Bind,
    /// Worker threads handling queries.
    pub workers: usize,
    /// Admission-queue capacity; connections beyond it are shed.
    pub queue_cap: usize,
    /// Result-cache file; `None` keeps the cache in memory only.
    pub cache_path: Option<PathBuf>,
    /// Default per-query deadline (ms) when the request names none.
    pub default_deadline_ms: Option<u64>,
    /// Default per-query tree budget when the request names none.
    pub default_max_tree_nodes: Option<usize>,
    /// How long workers may keep draining after shutdown is requested.
    pub drain_ms: u64,
    /// The backoff hint stamped on overload responses.
    pub retry_after_ms: u64,
    /// Enables the fault-injection surface (`panic` op, `inject_garbage`)
    /// for tests and soaks; production daemons leave it off.
    pub test_faults: bool,
    /// Prometheus-style exposition file, rewritten atomically about once
    /// a second (and on shutdown); `None` disables the file (the
    /// `metrics` op serves the same text on demand either way).
    pub metrics_out: Option<PathBuf>,
    /// JSON-lines access log, one line per query; `None` disables it.
    pub access_log: Option<PathBuf>,
    /// Service-time threshold (ms) at or above which an access-log line
    /// carries full captured span detail; `None` disables slow logging.
    pub slow_ms: Option<u64>,
    /// Where flight-recorder dumps land (`SIGUSR1`, panic containment,
    /// overload shedding); `None` dumps to stderr.
    pub flight_path: Option<PathBuf>,
    /// Events the flight recorder retains per worker ring.
    pub flight_events: usize,
    /// How long a worker waits for the *next* frame on a kept-alive
    /// connection before reaping it (ms). Bounds the cost of idle peers.
    pub idle_timeout_ms: u64,
    /// Total budget for reading or writing one frame (ms), measured from
    /// its first byte. Bounds slow-loris drip-feeding and short-write
    /// stalls: a peer trickling one byte at a time costs a worker at most
    /// this long per frame, never a hang.
    pub frame_deadline_ms: u64,
    /// Requests served on one connection before it is politely closed, so
    /// a single chatty peer cannot monopolize a worker while others queue.
    pub max_requests_per_conn: u64,
    /// Store checksum re-verification interval (ms); 0 disables the
    /// periodic check (the `health` op's `recheck` still works).
    pub verify_interval_ms: u64,
    /// Result-cache growth bounds (entries and approximate bytes).
    pub cache_limits: CacheLimits,
}

impl ServeConfig {
    /// A config with defaults for everything but the bind address.
    pub fn new(bind: Bind) -> Self {
        ServeConfig {
            bind,
            workers: 4,
            queue_cap: 16,
            cache_path: None,
            default_deadline_ms: None,
            default_max_tree_nodes: None,
            drain_ms: 5_000,
            retry_after_ms: 100,
            test_faults: false,
            metrics_out: None,
            access_log: None,
            slow_ms: None,
            flight_path: None,
            flight_events: ppm_observe::flight::DEFAULT_RING_EVENTS,
            idle_timeout_ms: 2_000,
            frame_deadline_ms: 5_000,
            max_requests_per_conn: 256,
            verify_interval_ms: 30_000,
            cache_limits: CacheLimits::default(),
        }
    }
}

/// Pre-interned flight-recorder event names (interning takes a lock;
/// the hot path must not).
#[derive(Debug, Clone, Copy)]
struct FlightNames {
    request: NameId,
    shed: NameId,
    panic: NameId,
    queue_depth: NameId,
    queue_wait: NameId,
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// The raw accepted socket.
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            Stream::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(t),
            Stream::Unix(s) => s.set_write_timeout(t),
        }
    }
}

/// A hardened connection: every read and write is bounded by a phase
/// deadline, so no peer — idle, drip-feeding bytes (slow loris), or
/// stalling a short write — can hold a worker past its budget.
///
/// Two phases. *Idle*: waiting for the first byte of the next frame,
/// bounded by `idle_timeout`; expiry here is the idle reaper firing.
/// *In-frame*: from that first byte, the whole rest of the frame (and,
/// on the write side, the whole response) must land within
/// `frame_deadline` — the socket timeout is re-armed with the remaining
/// budget before every syscall, so trickling one byte per second buys a
/// peer nothing. (That re-arming also replaces the accept tick a TCP
/// socket inherits from the listener.)
struct Conn {
    stream: Stream,
    idle_timeout: Duration,
    frame_deadline: Duration,
    deadline: Instant,
    idle: bool,
}

impl Conn {
    fn new(stream: Stream, config: &ServeConfig) -> Conn {
        let idle_timeout = Duration::from_millis(config.idle_timeout_ms.max(1));
        let frame_deadline = Duration::from_millis(config.frame_deadline_ms.max(1));
        Conn {
            stream,
            idle_timeout,
            frame_deadline,
            deadline: Instant::now() + idle_timeout,
            idle: true,
        }
    }

    /// Arms the idle phase: the peer has `idle_timeout` to start the next
    /// frame; its first byte switches to the frame budget.
    fn arm_idle(&mut self) {
        self.idle = true;
        self.deadline = Instant::now() + self.idle_timeout;
    }

    /// Arms a whole-frame budget immediately (writes have no idle phase:
    /// the response starts now).
    fn arm_frame(&mut self) {
        self.idle = false;
        self.deadline = Instant::now() + self.frame_deadline;
    }

    /// Whether the connection was still between frames when I/O failed
    /// (distinguishes a reaped idle peer from a mid-frame stall).
    fn was_idle(&self) -> bool {
        self.idle
    }

    /// Time left in the current phase, or `TimedOut` once it is spent.
    fn remaining(&self) -> io::Result<Duration> {
        self.deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::TimedOut,
                    if self.idle {
                        "idle timeout"
                    } else {
                        "frame deadline exceeded"
                    },
                )
            })
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.remaining()?;
        self.stream.set_read_timeout(Some(left))?;
        let n = match &mut self.stream {
            Stream::Tcp(s) => s.read(buf)?,
            Stream::Unix(s) => s.read(buf)?,
        };
        if n > 0 && self.idle {
            // First byte of a frame: the peer now has the frame budget to
            // deliver the rest, however slowly it drips.
            self.arm_frame();
        }
        Ok(n)
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let left = self.remaining()?;
        self.stream.set_write_timeout(Some(left))?;
        match &mut self.stream {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match &mut self.stream {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// The admission queue shared between the accept loop and the workers.
/// Each connection carries its admission instant so the dequeuing worker
/// can record the queue wait.
struct Queue {
    conns: Mutex<VecDeque<(Conn, Instant)>>,
    ready: Condvar,
    stop: AtomicBool,
    drain_until: Mutex<Option<Instant>>,
}

/// The daemon. [`Server::bind`] opens the socket (so the caller can learn
/// the resolved port before serving); [`Server::run`] blocks until
/// shutdown completes.
pub struct Server {
    listener: Listener,
    bound: BoundAddr,
    registry: StoreRegistry,
    config: ServeConfig,
    cache: Mutex<ResultCache>,
    metrics: ServeMetrics,
    flight: FlightRecorder,
    flight_names: FlightNames,
    access_log: Option<AccessLog>,
    /// Throttles shed-triggered flight dumps (µs timestamp of the last).
    last_shed_dump_us: AtomicU64,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listen socket and loads (or initializes) the result
    /// cache.
    pub fn bind(registry: StoreRegistry, config: ServeConfig) -> io::Result<Server> {
        let (listener, bound) = match &config.bind {
            Bind::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                let a = l.local_addr()?;
                (Listener::Tcp(l), BoundAddr::Tcp(a))
            }
            Bind::Unix(path) => {
                // The daemon owns its socket path; a stale file from a
                // previous crash would otherwise block the bind forever.
                std::fs::remove_file(path).ok();
                let l = UnixListener::bind(path)?;
                (Listener::Unix(l), BoundAddr::Unix(path.clone()))
            }
        };
        let cache = match &config.cache_path {
            Some(p) => ResultCache::open_with_limits(p, config.cache_limits),
            None => ResultCache::in_memory_with_limits(config.cache_limits),
        };
        // One ring per worker plus one for the accept loop; names are
        // interned now so recording never touches the name table.
        let flight = FlightRecorder::new(config.workers.max(1) + 1, config.flight_events);
        let flight_names = FlightNames {
            request: flight.register("serve.request"),
            shed: flight.register("serve.shed"),
            panic: flight.register("serve.panic"),
            queue_depth: flight.register("serve.queue_depth"),
            queue_wait: flight.register("serve.queue_wait_us"),
        };
        let access_log = match &config.access_log {
            Some(p) => Some(AccessLog::open(
                p,
                config
                    .slow_ms
                    .map_or(u64::MAX, |ms| ms.saturating_mul(1_000)),
            )?),
            None => None,
        };
        Ok(Server {
            listener,
            bound,
            registry,
            config,
            cache: Mutex::new(cache),
            metrics: ServeMetrics::new(),
            flight,
            flight_names,
            access_log,
            last_shed_dump_us: AtomicU64::new(u64::MAX),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address actually bound.
    pub fn local_addr(&self) -> &BoundAddr {
        &self.bound
    }

    /// The stores this daemon serves.
    pub fn registry(&self) -> &StoreRegistry {
        &self.registry
    }

    /// A handle that requests shutdown when stored `true` (tests use this
    /// in place of a signal).
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        self.stop.clone()
    }

    /// Number of cache entries recovered at startup (for the "warm cache"
    /// banner).
    pub fn warm_cache_entries(&self) -> usize {
        self.cache.lock().expect("cache poisoned").stats().entries
    }

    fn shutting_down(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || signal::requested()
    }

    /// Serves until shutdown, then drains, flushes the cache, and returns.
    pub fn run(self) -> io::Result<()> {
        match &self.listener {
            Listener::Tcp(l) => accept::set_tick(l, accept::TICK)?,
            Listener::Unix(l) => accept::set_tick(l, accept::TICK)?,
        }
        let queue = Queue {
            conns: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
            drain_until: Mutex::new(None),
        };
        let obs = ppm_observe::current();

        signal::install_usr1_handler();

        std::thread::scope(|scope| {
            for worker in 0..self.config.workers.max(1) {
                let obs = obs.clone();
                let queue = &queue;
                let server = &self;
                scope.spawn(move || {
                    let _g = ppm_observe::attach(obs);
                    server.worker_loop(queue, worker);
                });
            }

            // Accept loop: `accept()` returns as soon as a connection
            // arrives, or after one tick with none, so the shutdown flag
            // and the timers below are served within a tick even with no
            // traffic.
            let mut last_exposition = Instant::now();
            let mut last_verify = Instant::now();
            loop {
                if self.shutting_down() {
                    break;
                }
                if signal::take_flight_dump() {
                    self.dump_flight("usr1");
                }
                if self.config.metrics_out.is_some()
                    && last_exposition.elapsed() >= Duration::from_secs(1)
                {
                    self.write_metrics_file();
                    last_exposition = Instant::now();
                }
                if self.config.verify_interval_ms > 0
                    && last_verify.elapsed()
                        >= Duration::from_millis(self.config.verify_interval_ms)
                {
                    // Store health check: a store whose file went corrupt
                    // is quarantined here; the rest keep serving.
                    self.registry.reverify_all();
                    last_verify = Instant::now();
                }
                let errors = Some(&self.metrics.accept_errors);
                let accepted = match &self.listener {
                    Listener::Tcp(l) => accept::accepted_tcp(l, errors).map(Stream::Tcp),
                    Listener::Unix(l) => {
                        accept::accepted(l.accept(), errors).map(|(s, _)| Stream::Unix(s))
                    }
                };
                if let Some(stream) = accepted {
                    self.admit(stream, &queue);
                }
            }

            // Drain: no new admissions; workers finish the queue under the
            // deadline, then exit.
            *queue.drain_until.lock().expect("drain poisoned") =
                Some(Instant::now() + Duration::from_millis(self.config.drain_ms));
            queue.stop.store(true, Ordering::SeqCst);
            queue.ready.notify_all();
        });

        self.cache.lock().expect("cache poisoned").flush();
        self.write_metrics_file();
        if let BoundAddr::Unix(path) = &self.bound {
            std::fs::remove_file(path).ok();
        }
        ppm_observe::mark("serve.stopped", || {
            format!(
                "served {} queries, shed {}, {} panics contained",
                self.metrics.served.load(Ordering::Relaxed),
                self.metrics.shed.load(Ordering::Relaxed),
                self.metrics.panics.load(Ordering::Relaxed)
            )
        });
        Ok(())
    }

    /// The current Prometheus exposition text.
    fn exposition(&self) -> String {
        let cache = self.cache.lock().expect("cache poisoned").stats();
        let (live_indexes, index_bytes) = self.index_footprint();
        metrics::prometheus_text(
            &self.metrics,
            &cache,
            self.registry.len(),
            self.registry.quarantined_count(),
            live_indexes,
            index_bytes,
        )
    }

    /// Resident live-index footprint summed across every store.
    fn index_footprint(&self) -> (usize, usize) {
        self.registry
            .iter()
            .map(|s| s.index_stats())
            .fold((0, 0), |(n, b), (sn, sb)| (n + sn, b + sb))
    }

    /// Atomically rewrites the `--metrics-out` file (no-op when not
    /// configured; write failures are swallowed — metrics must never
    /// take the daemon down).
    fn write_metrics_file(&self) {
        if let Some(path) = &self.config.metrics_out {
            let _ = metrics::write_exposition(path, &self.exposition());
        }
    }

    /// Dumps the flight recorder as JSON lines — a header object naming
    /// the trigger, then every retained event — to the configured dump
    /// path (truncating; each dump is a complete snapshot) or stderr.
    fn dump_flight(&self, reason: &str) {
        let mut buf = Vec::new();
        let header = Json::Obj(vec![
            ("kind".to_owned(), Json::Str("flight_dump".to_owned())),
            ("reason".to_owned(), Json::Str(reason.to_owned())),
            ("at_us".to_owned(), Json::from_u64(self.metrics.now_us())),
            ("rings".to_owned(), Json::from_usize(self.flight.rings())),
            (
                "capacity".to_owned(),
                Json::from_usize(self.flight.capacity()),
            ),
        ]);
        let _ = writeln!(buf, "{}", header.render());
        let _ = self.flight.dump_json_lines(&mut buf);
        match &self.config.flight_path {
            Some(path) => {
                let _ = std::fs::write(path, &buf);
            }
            None => {
                let _ = io::stderr().write_all(&buf);
            }
        }
    }

    /// The accept loop's flight-recorder ring (workers own `0..workers`).
    fn accept_ring(&self) -> usize {
        self.config.workers.max(1)
    }

    /// Admission control: into the bounded queue, or shed with an
    /// explicit overload frame. A shed triggers a flight dump (throttled
    /// to one per second — shedding happens in bursts) so the recent
    /// history that led to the overload is preserved.
    fn admit(&self, stream: Stream, queue: &Queue) {
        let conn = Conn::new(stream, &self.config);
        let mut conns = queue.conns.lock().expect("queue poisoned");
        if conns.len() >= self.config.queue_cap {
            drop(conns);
            self.metrics.shed.fetch_add(1, Ordering::Relaxed);
            ppm_observe::counter("serve.shed", 1);
            self.flight.record(
                self.accept_ring(),
                FlightKind::Counter,
                self.flight_names.shed,
                self.metrics.now_us(),
                1,
                0,
            );
            let mut conn = conn;
            conn.arm_frame();
            let _ =
                protocol::write_frame(&mut conn, &overload_response(self.config.retry_after_ms));
            let now_us = self.metrics.now_us();
            let last = self.last_shed_dump_us.load(Ordering::Relaxed);
            if last == u64::MAX || now_us.saturating_sub(last) >= 1_000_000 {
                self.last_shed_dump_us.store(now_us, Ordering::Relaxed);
                self.dump_flight("shed");
            }
            return;
        }
        conns.push_back((conn, Instant::now()));
        let depth = conns.len() as u64;
        drop(conns);
        self.metrics.queue_depth.store(depth, Ordering::Relaxed);
        ppm_observe::gauge("serve.queue_depth", depth);
        self.flight.record(
            self.accept_ring(),
            FlightKind::Gauge,
            self.flight_names.queue_depth,
            self.metrics.now_us(),
            depth,
            0,
        );
        queue.ready.notify_one();
    }

    /// One worker: pop connections until the queue closes (or the drain
    /// deadline expires), serving every frame on each. `worker` is this
    /// worker's flight-recorder ring.
    fn worker_loop(&self, queue: &Queue, worker: usize) {
        loop {
            let conn = {
                let mut conns = queue.conns.lock().expect("queue poisoned");
                loop {
                    let stopping = queue.stop.load(Ordering::SeqCst);
                    if stopping {
                        let expired = queue
                            .drain_until
                            .lock()
                            .expect("drain poisoned")
                            .is_some_and(|d| Instant::now() >= d);
                        if expired {
                            break None;
                        }
                    }
                    if let Some((c, admitted_at)) = conns.pop_front() {
                        let depth = conns.len() as u64;
                        self.metrics.queue_depth.store(depth, Ordering::Relaxed);
                        // The gauge must fall on dequeue too, or an idle
                        // daemon reports its last high-water mark forever.
                        ppm_observe::gauge("serve.queue_depth", depth);
                        break Some((c, admitted_at));
                    }
                    if stopping {
                        break None;
                    }
                    let (guard, _) = queue
                        .ready
                        .wait_timeout(conns, Duration::from_millis(50))
                        .expect("queue poisoned");
                    conns = guard;
                }
            };
            match conn {
                Some((c, admitted_at)) => {
                    let queue_wait_us = admitted_at.elapsed().as_micros() as u64;
                    self.metrics.queue_wait_us.record(queue_wait_us);
                    self.flight.record(
                        worker,
                        FlightKind::Mark,
                        self.flight_names.queue_wait,
                        self.metrics.now_us(),
                        queue_wait_us,
                        0,
                    );
                    let busy = Instant::now();
                    self.serve_conn(c, queue_wait_us, worker);
                    self.metrics
                        .worker_busy_us
                        .fetch_add(busy.elapsed().as_micros() as u64, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    /// Serves every frame on one connection; a panic inside dispatch is
    /// contained to an error response (and triggers a flight dump).
    /// `queue_wait_us` is attributed to the first frame's access-log
    /// line; subsequent frames on the same connection never waited.
    fn serve_conn(&self, mut conn: Conn, queue_wait_us: u64, worker: usize) {
        let mut first_frame = true;
        let mut frames_served: u64 = 0;
        loop {
            if frames_served >= self.config.max_requests_per_conn.max(1) {
                // Per-connection budget spent: close politely; a
                // reconnect goes through admission behind everyone else.
                return;
            }
            conn.arm_idle();
            let req = match protocol::read_frame(&mut conn) {
                Ok(Some(req)) => req,
                Ok(None) => return,
                Err(e) => {
                    self.close_on_read_error(&mut conn, &e);
                    return;
                }
            };
            frames_served += 1;
            let started = Instant::now();
            let span_id = 2 * self.metrics.served.load(Ordering::Relaxed) + worker as u64;
            self.flight.record(
                worker,
                FlightKind::SpanStart,
                self.flight_names.request,
                self.metrics.now_us(),
                span_id,
                0,
            );
            let _span = ppm_observe::span("serve.request");
            // Layer the per-query phase capture over whatever sink the
            // operator installed: phases are measured even when tracing
            // is off, and the outer sink keeps seeing every event.
            let capture = Arc::new(PhaseCapture::new(ppm_observe::current_sink()));
            let dispatched = {
                let capture = capture.clone();
                catch_unwind(AssertUnwindSafe(|| {
                    let _phases = ppm_observe::install(capture);
                    self.dispatch(&req)
                }))
            };
            let panicked = dispatched.is_err();
            let resp = match dispatched {
                Ok(resp) => resp,
                Err(payload) => {
                    self.metrics.panics.fetch_add(1, Ordering::Relaxed);
                    ppm_observe::counter("serve.panics", 1);
                    self.flight.record(
                        worker,
                        FlightKind::Mark,
                        self.flight_names.panic,
                        self.metrics.now_us(),
                        1,
                        0,
                    );
                    self.dump_flight("panic");
                    let what = panic_message(&payload);
                    error_response(
                        ErrorCode::Internal,
                        format!("query panicked ({what}); the daemon is still serving"),
                        Vec::new(),
                    )
                }
            };
            let service_us = started.elapsed().as_micros() as u64;
            self.metrics.service_us.record(service_us);
            let (scan1, scan2, derive) = capture.phase_us();
            if scan1 > 0 {
                self.metrics.scan1_us.record(scan1);
            }
            if scan2 > 0 {
                self.metrics.scan2_us.record(scan2);
            }
            if derive > 0 {
                self.metrics.derive_us.record(derive);
            }
            self.flight.record(
                worker,
                FlightKind::SpanEnd,
                self.flight_names.request,
                self.metrics.now_us(),
                span_id,
                service_us,
            );
            self.metrics.served.fetch_add(1, Ordering::Relaxed);
            self.log_access(
                &req,
                &resp,
                panicked,
                if first_frame { queue_wait_us } else { 0 },
                service_us,
                &capture,
            );
            first_frame = false;
            conn.arm_frame();
            if protocol::write_frame(&mut conn, &resp).is_err() {
                return;
            }
            if self.shutting_down() {
                return;
            }
        }
    }

    /// Classifies a failed frame read before the connection closes.
    /// Malformed bytes (oversized or garbage length prefix, bad
    /// UTF-8/JSON) get a typed `error` frame first — the peer is told
    /// what it sent, never silently dropped or hung. Deadline expiries
    /// count toward `conn_reaped` (idle peers and slow-loris drips
    /// alike). Plain disconnects are just closed.
    fn close_on_read_error(&self, conn: &mut Conn, e: &io::Error) {
        match e.kind() {
            io::ErrorKind::InvalidData => {
                self.metrics.bad_frames.fetch_add(1, Ordering::Relaxed);
                ppm_observe::counter("serve.bad_frames", 1);
                conn.arm_frame();
                let _ = protocol::write_frame(
                    conn,
                    &error_response(ErrorCode::Usage, format!("bad frame: {e}"), Vec::new()),
                );
            }
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => {
                self.metrics.conn_reaped.fetch_add(1, Ordering::Relaxed);
                ppm_observe::counter("serve.conn_reaped", 1);
                ppm_observe::mark("serve.conn_reaped", || {
                    if conn.was_idle() {
                        "reaped idle connection".to_owned()
                    } else {
                        "reaped mid-frame stall (slow-loris defense)".to_owned()
                    }
                });
            }
            _ => {}
        }
    }

    /// Writes one access-log line for a served frame (no-op when the log
    /// is not configured).
    fn log_access(
        &self,
        req: &Json,
        resp: &Json,
        panicked: bool,
        queue_us: u64,
        service_us: u64,
        capture: &PhaseCapture,
    ) {
        let Some(log) = &self.access_log else {
            return;
        };
        let store = req.get("store").and_then(Json::as_str);
        let fingerprint = store
            .and_then(|s| self.registry.get(s))
            .map(|s| s.fingerprint());
        let (outcome, code) = if panicked {
            ("panic", ErrorCode::Internal.wire())
        } else {
            match resp.get("type").and_then(Json::as_str) {
                Some("error") => (
                    "error",
                    resp.get("code").and_then(Json::as_u64).unwrap_or(1),
                ),
                _ => ("ok", 0),
            }
        };
        let detail = if service_us >= log.slow_us {
            Some(capture.events())
        } else {
            None
        };
        log.log(
            self.metrics.now_us(),
            &AccessRecord {
                op: req.get("op").and_then(Json::as_str).unwrap_or("?"),
                store,
                fingerprint,
                period: req.get("period").and_then(Json::as_u64),
                engine: req.get("engine").and_then(Json::as_str),
                cached: resp.get("cached").and_then(Json::as_str),
                queue_us,
                service_us,
                outcome,
                code,
                slow_detail: detail.as_deref(),
            },
        );
    }

    /// Validates the envelope and routes to the op handler; every failure
    /// becomes a typed error response.
    fn dispatch(&self, req: &Json) -> Json {
        match req.get("v").and_then(Json::as_u64) {
            Some(protocol::VERSION) => {}
            other => {
                return error_response(
                    ErrorCode::Usage,
                    format!(
                        "unsupported protocol version {other:?}; this daemon speaks v{}",
                        protocol::VERSION
                    ),
                    Vec::new(),
                )
            }
        }
        let op = match req.get("op").and_then(Json::as_str) {
            Some(op) => op,
            None => {
                return error_response(
                    ErrorCode::Usage,
                    "request has no \"op\" field".into(),
                    Vec::new(),
                )
            }
        };
        let outcome = match op {
            "mine" => self.op_mine(req),
            "rules" => self.op_rules(req),
            "verify" => self.op_verify(req),
            "append" => self.op_append(req),
            "info" => self.op_info(req),
            "health" => Ok(self.op_health(req)),
            "stats" => Ok(self.op_stats()),
            "metrics" => Ok(result_response(
                "metrics",
                vec![("exposition".to_owned(), Json::Str(self.exposition()))],
            )),
            "shutdown" => {
                self.stop.store(true, Ordering::SeqCst);
                Ok(result_response(
                    "shutdown",
                    vec![("draining".to_owned(), Json::Bool(true))],
                ))
            }
            "panic" if self.config.test_faults => panic!("injected test panic"),
            other => Err(OpError::usage(format!(
                "unknown op {other:?} (mine|rules|verify|append|info|health|stats|metrics|shutdown)"
            ))),
        };
        match outcome {
            Ok(resp) => resp,
            Err(e) => error_response(e.code, e.message, e.extras),
        }
    }

    fn op_mine(&self, req: &Json) -> Result<Json, OpError> {
        let q = MineQuery::parse(req, &self.config)?;
        let store = self
            .registry
            .get(&q.store)
            .ok_or_else(|| OpError::usage(format!("unknown store {:?}", q.store)))?;
        gate_health(store)?;

        if q.quarantine {
            return self.mine_quarantined(store, &q);
        }

        // A cold mine keeps one snapshot for both the cache key and the
        // mining view: a concurrent append swap between a
        // `store.fingerprint()` and a later `store.reader()` would
        // otherwise cache a result mined from the newer reader under the
        // old fingerprint — never served wrongly, but dead weight against
        // the cache's capacity bounds. The live index holds no snapshot:
        // it waits for the index guard, which an append holds while it
        // grows the reader, and a snapshot held there would make that
        // grow copy the whole store.
        let snapshot = (!q.live).then(|| store.reader());
        let key = |fingerprint| CacheKey {
            fingerprint,
            period: q.period,
            conf_bits: q.min_conf.to_bits(),
        };
        // Apriori's echoed scan count depends on the threshold, so its
        // answer can neither share an entry with the two-scan engines nor
        // be derived: it bypasses the cache, as a quarantined mine does.
        let bypass = q.engine == Engine::Apriori;
        let use_cache = !q.no_cache && !bypass;
        if use_cache {
            let fingerprint = snapshot
                .as_ref()
                .map_or_else(|| store.fingerprint(), |r| r.fingerprint());
            let lookup_started = Instant::now();
            let (cached, outcome) = self
                .cache
                .lock()
                .expect("cache poisoned")
                .lookup(&key(fingerprint));
            self.metrics
                .cache_lookup_us
                .record(lookup_started.elapsed().as_micros() as u64);
            if let Some(c) = cached {
                let label = match outcome {
                    CacheOutcome::Hit => "hit",
                    CacheOutcome::Derived => "derived",
                    CacheOutcome::Miss => unreachable!("lookup returned a value"),
                };
                self.metrics.count_cache_label(label);
                ppm_observe::counter("serve.cache.answers", 1);
                match label {
                    "hit" => ppm_observe::counter("serve.cache.hits", 1),
                    _ => ppm_observe::counter("serve.cache.derived", 1),
                }
                return Ok(mine_response(&q, &c, label, None));
            }
            self.metrics.count_cache_label("miss");
            ppm_observe::counter("serve.cache.misses", 1);
        }

        let _span = ppm_observe::span("serve.mine");
        let (result, fingerprint, catalog) = match snapshot {
            // The live index: created from the store on first use, kept
            // current by the `append` op, so re-mining after growth only
            // re-counts patterns the new segments could have moved. Only
            // the fingerprint and catalog of the reader it was caught up
            // to leave the index guard: converting and caching happen
            // after an append waiting for the guard may go ahead, and a
            // reader held through them would make its grow copy the store.
            None => store.with_index(q.period, |idx, reader| {
                idx.rederive_dirty(&q.config)
                    .map(|r| (r, reader.fingerprint(), reader.catalog().clone()))
            }),
            Some(reader) => ppm_core::run(q.engine, reader.view(), q.period, &q.config)
                .map(|r| (r, reader.fingerprint(), reader.catalog().clone())),
        }
        .map_err(OpError::from_mining)?;
        let cached = Arc::new(to_cached(&result, &catalog));
        if use_cache {
            let mut cache = self.cache.lock().expect("cache poisoned");
            cache.insert(key(fingerprint), Arc::clone(&cached));
        }
        let label = if bypass { "bypass" } else { "miss" };
        Ok(mine_response(&q, &cached, label, None))
    }

    /// The quarantine path: materialize, clean (optionally injecting
    /// garbage when the fault surface is enabled), mine the cleaned
    /// series. Never cached — the cleaned series is not the store.
    fn mine_quarantined(
        &self,
        store: &crate::store::Store,
        q: &MineQuery,
    ) -> Result<Json, OpError> {
        if q.inject_garbage.is_some() && !self.config.test_faults {
            return Err(OpError::usage(
                "inject_garbage requires the daemon to run with --test-faults".into(),
            ));
        }
        let reader = store.reader();
        let series = reader.to_series();
        let mem = MemorySource::new(&series);
        let mut faulty;
        let mut plain;
        let source: &mut dyn SeriesSource = match q.inject_garbage {
            Some(t) => {
                let mut plan = FaultPlan::new();
                for attempt in 0..32 {
                    plan = plan.fail_scan(attempt, Fault::Garbage { instant: t });
                }
                faulty = FaultInjectingSource::new(mem, plan);
                &mut faulty
            }
            None => {
                plain = mem;
                &mut plain
            }
        };
        // Mine straight through the quarantine, re-validating on every
        // pass. The cleaned stream is not the store, so there is no live
        // index to consult: a live-index request runs the cold vertical
        // mine it is bit-identical to.
        let mut qsrc = QuarantiningSource::new(source, QuarantineMode::Quarantine);
        let mined = ppm_core::run(q.engine, &mut qsrc, q.period, &q.config);
        let result = mined.map_err(OpError::from_mining)?;
        let (_, report) = qsrc.into_parts();
        let cached = to_cached(&result, reader.catalog());
        Ok(mine_response(q, &cached, "bypass", Some(report.len())))
    }

    fn op_rules(&self, req: &Json) -> Result<Json, OpError> {
        let q = MineQuery::parse(req, &self.config)?;
        let store = self
            .registry
            .get(&q.store)
            .ok_or_else(|| OpError::usage(format!("unknown store {:?}", q.store)))?;
        gate_health(store)?;
        let min_rule_conf = req
            .get("min_rule_conf")
            .and_then(Json::as_f64)
            .unwrap_or(0.8);
        let _span = ppm_observe::span("serve.rules");
        let reader = store.reader();
        let result = ppm_core::hitset::mine_view(reader.view(), q.period, &q.config)
            .map_err(OpError::from_mining)?;
        let rules = ppm_core::rules::generate_rules(&result, min_rule_conf);
        let rows: Vec<Json> = rules
            .iter()
            .take(q.limit)
            .map(|r| Json::Str(r.display(&result, reader.catalog())))
            .collect();
        Ok(result_response(
            "rules",
            vec![
                ("store".to_owned(), Json::Str(q.store.clone())),
                ("period".to_owned(), Json::from_usize(q.period)),
                ("min_rule_conf".to_owned(), Json::Num(min_rule_conf)),
                ("n_rules".to_owned(), Json::from_usize(rules.len())),
                ("n_frequent".to_owned(), Json::from_usize(result.len())),
                ("rows".to_owned(), Json::Arr(rows)),
            ],
        ))
    }

    fn op_verify(&self, req: &Json) -> Result<Json, OpError> {
        let q = MineQuery::parse(req, &self.config)?;
        let store = self
            .registry
            .get(&q.store)
            .ok_or_else(|| OpError::usage(format!("unknown store {:?}", q.store)))?;
        gate_health(store)?;
        let _span = ppm_observe::span("serve.verify");
        let reader = store.reader();
        let check =
            ppm_core::audit::cross_check_view(reader.view(), q.period, &q.config, reader.catalog())
                .map_err(OpError::from_mining)?;
        let agreed = check.agreed();
        let violations: Vec<Json> = check
            .report
            .violations
            .iter()
            .map(|v| Json::Str(v.to_string()))
            .collect();
        Ok(result_response(
            "verify",
            vec![
                ("store".to_owned(), Json::Str(q.store.clone())),
                ("period".to_owned(), Json::from_usize(q.period)),
                (
                    "engines".to_owned(),
                    Json::from_usize(check.algorithms.len()),
                ),
                ("compared".to_owned(), Json::from_usize(check.compared)),
                ("agreed".to_owned(), Json::Bool(agreed)),
                ("violations".to_owned(), Json::Arr(violations)),
            ],
        ))
    }

    /// The `append` wire op: publishes new instants to a store's backing
    /// file (through the columnar appender's in-place commit: the new rows,
    /// then a commit slot), grows the resident reader to match without
    /// re-reading the file (see `Store::grow_reader`), feeds every live
    /// incremental index the completed segments, and migrates
    /// result-cache entries instead of dropping them all.
    ///
    /// ## Cache retention
    ///
    /// Every entry of the old fingerprint is judged individually. With
    /// `m = instants / period` whole segments:
    ///
    /// - the append completed *no* new segment for the entry's period
    ///   (`m` unchanged): whole-segment content is untouched, so the
    ///   entry is still exact — re-keyed as-is;
    /// - `m` grew and a live incremental index exists for the period:
    ///   the entry survives iff `min_count` is unchanged at the new `m`
    ///   and every letter the new segments touched still counts *below*
    ///   `min_count` — patterns of untouched letters gained no count
    ///   (the new segments contribute zero bits to them) and patterns
    ///   touching a dirty letter are bounded below threshold in both
    ///   states, so the cached rows are provably bit-identical to a
    ///   fresh mine;
    /// - otherwise the entry is dropped: a fresh mine may differ.
    fn op_append(&self, req: &Json) -> Result<Json, OpError> {
        let name = req_str(req, "store").map_err(OpError::usage)?;
        let store = self
            .registry
            .get(name)
            .ok_or_else(|| OpError::usage(format!("unknown store {name:?}")))?;
        gate_health(store)?;
        let rows = req.get("rows").and_then(Json::as_arr).ok_or_else(|| {
            OpError::usage(
                "append needs a \"rows\" array (one feature-name array per instant)".into(),
            )
        })?;
        if rows.is_empty() {
            return Err(OpError::usage(
                "append needs at least one instant in \"rows\"".into(),
            ));
        }
        let _span = ppm_observe::span("serve.append");
        let _publish = store.append_guard();
        let resident = store.reader();
        // Resolve every feature name against the store's fixed catalog
        // up front: a bad row must fail before anything is staged.
        let mut instants = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let names = row.as_arr().ok_or_else(|| {
                OpError::usage(format!("rows[{i}] is not an array of feature names"))
            })?;
            let mut feats = Vec::with_capacity(names.len());
            for n in names {
                let n = n.as_str().ok_or_else(|| {
                    OpError::usage(format!("rows[{i}] holds a non-string feature"))
                })?;
                let id = resident.catalog().get(n).ok_or_else(|| {
                    OpError::usage(format!(
                        "unknown feature {n:?} in rows[{i}] (the catalog is fixed at store creation)"
                    ))
                })?;
                feats.push(id);
            }
            instants.push(feats);
        }
        // The resident load was checksum-verified; if the file is still
        // byte-for-byte that load, the appender resumes its midstate and
        // hashes nothing of the existing store. Otherwise the file is
        // fully validated (a corrupt one fails here) and the publish
        // below refuses a base that is not the resident load. The
        // appender holds the file's append lock from here on, so an
        // external `ppm append` waits for this one. A version-1/2 store
        // is refused as a usage error: it serves reads, not appends.
        let verify = ppm_observe::span("append.verify");
        let mut app =
            ColumnarAppender::open_resident(&store.path, &resident).map_err(|e| match e {
                ppm_timeseries::Error::ReadOnlyVersion { .. } => OpError::usage(e.to_string()),
                e => OpError::internal(format!("append open failed: {e}")),
            })?;
        drop(verify);
        for feats in &instants {
            app.append_instant(feats)
                .map_err(|e| OpError::internal(format!("append failed: {e}")))?;
        }
        // Publishes the file — in place for a version-3 store — and keeps
        // the appended rows, so the resident load can be grown to match
        // without re-reading or re-hashing the whole store. Rejected
        // (nothing published) if the file diverged from the resident load.
        let publish = ppm_observe::span("append.publish");
        let growth = app
            .finish_growth(&resident)
            .map_err(|e| OpError::internal(format!("append publish failed: {e}")))?;
        drop(publish);
        let total = growth.instants();
        let old_fp = resident.fingerprint();
        let new_fp = growth.fingerprint();
        // Take the index table *before* publishing the grown reader and
        // hold it through the cache judgment below. A concurrent
        // incremental mine that slipped in between would catch the
        // indexes up to the fresh reader and rederive — clearing the
        // dirty state — so the judgment would see a clean index and keep
        // entries whose counts actually changed. With the guard held
        // across growth + catch-up + rekey, `with_index` blocks until the
        // cache is consistent with the new fingerprint.
        let mut indexes = store.indexes();
        let grow = ppm_observe::span("append.grow");
        let copied = store
            .grow_reader(resident, &growth)
            .map_err(|e| OpError::internal(format!("append apply failed: {e}")))?;
        drop(grow);
        self.metrics.appends.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .append_grow_copies
            .fetch_add(u64::from(copied), Ordering::Relaxed);
        self.metrics
            .appended_instants
            .fetch_add(instants.len() as u64, Ordering::Relaxed);
        ppm_observe::counter("serve.append.instants", instants.len() as u64);

        // Feed every live index the segments this append completed, then
        // judge cache entries while the indexes are still dirty — their
        // dirty letters are exactly what the new segments touched.
        let reader = store.reader();
        for idx in indexes.values_mut() {
            idx.catch_up(reader.view());
        }
        let fed = indexes.len();
        let (kept, dropped) =
            self.cache
                .lock()
                .expect("cache poisoned")
                .rekey_store(old_fp, new_fp, |key, value| {
                    let new_m = total / key.period;
                    let old_m = value.segment_count;
                    if new_m == old_m {
                        return Rekey::Keep {
                            segment_count: new_m,
                        };
                    }
                    let Some(idx) = indexes.get(key.period) else {
                        return Rekey::Drop;
                    };
                    let Ok(cfg) = MineConfig::new(f64::from_bits(key.conf_bits)) else {
                        return Rekey::Drop;
                    };
                    let min_count = cfg.min_count(new_m);
                    if cfg.min_count(old_m) == min_count
                        && idx.max_dirty_letter_count().is_none_or(|c| c < min_count)
                    {
                        Rekey::Keep {
                            segment_count: new_m,
                        }
                    } else {
                        Rekey::Drop
                    }
                });
        indexes.publish_gauges();
        drop(indexes);
        let appended = instants.len();
        ppm_observe::mark("serve.store.appended", || {
            format!(
                "store {} +{appended} instants -> {new_fp:016x} \
                 (cache: {kept} kept, {dropped} dropped; {fed} live indexes fed)",
                store.name
            )
        });
        Ok(result_response(
            "append",
            vec![
                ("store".to_owned(), Json::Str(name.to_owned())),
                ("appended".to_owned(), Json::from_usize(appended)),
                ("instants".to_owned(), Json::from_usize(total)),
                (
                    "fingerprint".to_owned(),
                    Json::Str(format!("{new_fp:016x}")),
                ),
                ("cache_kept".to_owned(), Json::from_usize(kept)),
                ("cache_dropped".to_owned(), Json::from_usize(dropped)),
                ("indexes_fed".to_owned(), Json::from_usize(fed)),
            ],
        ))
    }

    fn op_info(&self, req: &Json) -> Result<Json, OpError> {
        let filter = req.get("store").and_then(Json::as_str);
        let mut stores = Vec::new();
        for s in self.registry.iter() {
            if filter.is_some_and(|f| f != s.name) {
                continue;
            }
            let reader = s.reader();
            stores.push(Json::Obj(vec![
                ("name".to_owned(), Json::Str(s.name.clone())),
                ("instants".to_owned(), Json::from_usize(reader.len())),
                ("width".to_owned(), Json::from_usize(reader.width())),
                (
                    "features".to_owned(),
                    Json::from_usize(reader.catalog().len()),
                ),
                (
                    "file_bytes".to_owned(),
                    Json::from_usize(reader.file_bytes()),
                ),
                (
                    "fingerprint".to_owned(),
                    Json::Str(format!("{:016x}", reader.fingerprint())),
                ),
            ]));
        }
        if let Some(name) = filter {
            if stores.is_empty() {
                return Err(OpError::usage(format!("unknown store {name:?}")));
            }
        }
        Ok(result_response(
            "info",
            vec![("stores".to_owned(), Json::Arr(stores))],
        ))
    }

    /// The readiness probe: per-store health with optional synchronous
    /// re-verification (`"recheck": true`). `ready` means the daemon is
    /// still admitting queries at all; `degraded` means at least one
    /// store is quarantined (every healthy store keeps serving).
    fn op_health(&self, req: &Json) -> Json {
        if matches!(req.get("recheck"), Some(Json::Bool(true))) {
            self.registry.reverify_all();
        }
        let stores: Vec<Json> = self
            .registry
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".to_owned(), Json::Str(s.name.clone())),
                    (
                        "status".to_owned(),
                        Json::Str(
                            if s.is_quarantined() {
                                "quarantined"
                            } else {
                                "ok"
                            }
                            .to_owned(),
                        ),
                    ),
                    (
                        "fingerprint".to_owned(),
                        Json::Str(format!("{:016x}", s.fingerprint())),
                    ),
                ])
            })
            .collect();
        let quarantined = self.registry.quarantined_count();
        result_response(
            "health",
            vec![
                ("ready".to_owned(), Json::Bool(!self.shutting_down())),
                ("degraded".to_owned(), Json::Bool(quarantined > 0)),
                (
                    "stores_total".to_owned(),
                    Json::from_usize(self.registry.len()),
                ),
                (
                    "stores_quarantined".to_owned(),
                    Json::from_usize(quarantined),
                ),
                ("stores".to_owned(), Json::Arr(stores)),
            ],
        )
    }

    fn op_stats(&self) -> Json {
        let cache = self.cache.lock().expect("cache poisoned").stats();
        let (live_indexes, index_bytes) = self.index_footprint();
        let mut fields = vec![
            (
                "queue_depth".to_owned(),
                Json::from_u64(self.metrics.queue_depth.load(Ordering::Relaxed)),
            ),
            (
                "shed".to_owned(),
                Json::from_u64(self.metrics.shed.load(Ordering::Relaxed)),
            ),
            (
                "served".to_owned(),
                Json::from_u64(self.metrics.served.load(Ordering::Relaxed)),
            ),
            (
                "panics".to_owned(),
                Json::from_u64(self.metrics.panics.load(Ordering::Relaxed)),
            ),
            (
                "conn_reaped".to_owned(),
                Json::from_u64(self.metrics.conn_reaped.load(Ordering::Relaxed)),
            ),
            (
                "bad_frames".to_owned(),
                Json::from_u64(self.metrics.bad_frames.load(Ordering::Relaxed)),
            ),
            (
                "accept_errors".to_owned(),
                Json::from_u64(self.metrics.accept_errors.load(Ordering::Relaxed)),
            ),
            ("stores".to_owned(), Json::from_usize(self.registry.len())),
            (
                "stores_quarantined".to_owned(),
                Json::from_usize(self.registry.quarantined_count()),
            ),
            (
                "appends".to_owned(),
                Json::from_u64(self.metrics.appends.load(Ordering::Relaxed)),
            ),
            (
                "appended_instants".to_owned(),
                Json::from_u64(self.metrics.appended_instants.load(Ordering::Relaxed)),
            ),
            (
                "append_grow_copies".to_owned(),
                Json::from_u64(self.metrics.append_grow_copies.load(Ordering::Relaxed)),
            ),
            ("live_indexes".to_owned(), Json::from_usize(live_indexes)),
            ("index_bytes".to_owned(), Json::from_usize(index_bytes)),
            (
                "uptime_s".to_owned(),
                Json::from_u64(self.metrics.uptime_s()),
            ),
            (
                "worker_busy_us".to_owned(),
                Json::from_u64(self.metrics.worker_busy_us.load(Ordering::Relaxed)),
            ),
            (
                "cache".to_owned(),
                Json::Obj(vec![
                    ("entries".to_owned(), Json::from_usize(cache.entries)),
                    ("bytes".to_owned(), Json::from_usize(cache.bytes)),
                    ("hits".to_owned(), Json::from_u64(cache.hits)),
                    ("derived".to_owned(), Json::from_u64(cache.derived)),
                    ("misses".to_owned(), Json::from_u64(cache.misses)),
                    ("rejected".to_owned(), Json::from_u64(cache.rejected)),
                    ("evictions".to_owned(), Json::from_u64(cache.evictions)),
                ]),
            ),
            ("latency".to_owned(), self.metrics.latency_json()),
        ];
        // The daemon's own memory, where `/proc` reports it.
        if let Some((rss, peak)) = metrics::process_memory() {
            fields.push(("rss_bytes".to_owned(), Json::from_u64(rss)));
            fields.push(("peak_rss_bytes".to_owned(), Json::from_u64(peak)));
        }
        result_response("stats", fields)
    }
}

/// What the common query ops parse out of a request.
struct MineQuery {
    store: String,
    period: usize,
    min_conf: f64,
    engine: Engine,
    /// Answer from the store's live vertical index (`"engine":
    /// "incremental"` on the wire) instead of a cold mine.
    live: bool,
    limit: usize,
    config: MineConfig,
    quarantine: bool,
    inject_garbage: Option<usize>,
    no_cache: bool,
}

impl MineQuery {
    fn parse(req: &Json, server: &ServeConfig) -> Result<MineQuery, OpError> {
        let store = req_str(req, "store").map_err(OpError::usage)?.to_owned();
        let period = req_u64(req, "period").map_err(OpError::usage)? as usize;
        if period == 0 {
            return Err(OpError::usage("period must be at least 1".into()));
        }
        let min_conf = req_f64(req, "min_conf").map_err(OpError::usage)?;
        let name = req.get("engine").and_then(Json::as_str);
        // `incremental` is a serving choice, not an algorithm: the
        // vertical engine's answer, read from the store's live index.
        let live = name == Some("incremental");
        let engine = match name {
            None => Engine::default(),
            Some(_) if live => Engine::Vertical,
            Some(name) => Engine::parse(name).ok_or_else(|| {
                OpError::usage(format!(
                    "engine {name:?} is not servable ({}|incremental)",
                    Engine::names()
                ))
            })?,
        };
        let limit = req.get("limit").and_then(Json::as_u64).unwrap_or(20) as usize;
        let mut config =
            MineConfig::new(min_conf).map_err(|e| OpError::usage(format!("bad min_conf: {e}")))?;
        let deadline_ms = req
            .get("deadline_ms")
            .and_then(Json::as_u64)
            .or(server.default_deadline_ms);
        if let Some(ms) = deadline_ms {
            config = config.with_deadline(Duration::from_millis(ms));
        }
        let max_tree_nodes = req
            .get("max_tree_nodes")
            .and_then(Json::as_u64)
            .map(|n| n as usize)
            .or(server.default_max_tree_nodes);
        if let Some(n) = max_tree_nodes {
            config = config.with_max_tree_nodes(n);
        }
        Ok(MineQuery {
            store,
            period,
            min_conf,
            engine,
            live,
            limit,
            config,
            quarantine: matches!(req.get("quarantine"), Some(Json::Bool(true))),
            inject_garbage: req
                .get("inject_garbage")
                .and_then(Json::as_u64)
                .map(|t| t as usize),
            no_cache: matches!(req.get("no_cache"), Some(Json::Bool(true))),
        })
    }
}

/// Rejects queries against a quarantined store with the typed error the
/// failover client keys on: code 4 plus `store_quarantined: true` means
/// "this replica's copy is bad — a healthy replica may still serve it",
/// which is precisely a failover trigger, not a client mistake.
fn gate_health(store: &crate::store::Store) -> Result<(), OpError> {
    if store.is_quarantined() {
        return Err(OpError {
            code: ErrorCode::Quarantined,
            message: format!(
                "store {:?} is quarantined (checksum re-verification failed); \
                 a healthy replica may still serve it",
                store.name
            ),
            extras: vec![("store_quarantined".to_owned(), Json::Bool(true))],
        });
    }
    Ok(())
}

/// A typed op failure on its way to an `error` frame.
struct OpError {
    code: ErrorCode,
    message: String,
    extras: Vec<(String, Json)>,
}

impl OpError {
    fn usage(message: String) -> OpError {
        OpError {
            code: ErrorCode::Usage,
            message,
            extras: Vec::new(),
        }
    }

    fn internal(message: String) -> OpError {
        OpError {
            code: ErrorCode::Internal,
            message,
            extras: Vec::new(),
        }
    }

    /// Maps a mining failure onto the taxonomy: guard trips carry their
    /// partial stats (code 3), transient exhaustion is code 5, the rest
    /// is internal.
    fn from_mining(e: ppm_core::Error) -> OpError {
        if let Some(stats) = e.partial_stats() {
            return OpError {
                code: ErrorCode::PartialResult,
                message: format!("mining aborted: {e}"),
                extras: vec![(
                    "partial_stats".to_owned(),
                    Json::Obj(vec![
                        (
                            "series_scans".to_owned(),
                            Json::from_usize(stats.series_scans),
                        ),
                        ("tree_nodes".to_owned(), Json::from_usize(stats.tree_nodes)),
                        (
                            "hit_insertions".to_owned(),
                            Json::from_u64(stats.hit_insertions),
                        ),
                    ]),
                )],
            };
        }
        if e.is_transient() {
            return OpError {
                code: ErrorCode::RetriesExhausted,
                message: format!("transient failure survived retries: {e}"),
                extras: Vec::new(),
            };
        }
        OpError::internal(format!("mining error: {e}"))
    }
}

/// Converts a mined result into canonical cached rows (report order).
fn to_cached(result: &MiningResult, catalog: &FeatureCatalog) -> CachedResult {
    let mut rows: Vec<&ppm_core::FrequentPattern> = result.frequent.iter().collect();
    rows.sort_by(|a, b| {
        b.letters
            .len()
            .cmp(&a.letters.len())
            .then(b.count.cmp(&a.count))
    });
    let renderer = RowRenderer::new(&result.alphabet, catalog);
    CachedResult {
        segment_count: result.segment_count,
        scans: result.stats.series_scans,
        rows: rows
            .into_iter()
            .map(|fp| CachedRow {
                display: renderer.render(&fp.letters),
                letters: fp.letters.len(),
                count: fp.count,
            })
            .collect(),
    }
}

/// Renders letter sets over one result's alphabet in one pass each, from
/// a table built once per result: every letter's offset and name. The
/// text is byte-identical to `Pattern::from_letter_set(..).display(..)`:
/// positions joined by spaces, `*` for an empty one, a bare name for a
/// single letter, `{a,b}` for several (letters are in offset, then
/// feature order), and `f{raw}` for an id the catalog does not name.
struct RowRenderer {
    period: usize,
    letters: Vec<(usize, String)>,
}

impl RowRenderer {
    fn new(alphabet: &Alphabet, catalog: &FeatureCatalog) -> RowRenderer {
        RowRenderer {
            period: alphabet.period(),
            letters: alphabet
                .iter()
                .map(|(_, offset, f)| (offset, catalog.name_or_placeholder(f)))
                .collect(),
        }
    }

    fn render(&self, set: &LetterSet) -> String {
        let named: usize = set.iter().map(|i| self.letters[i].1.len() + 1).sum();
        let mut out = String::with_capacity(2 * self.period + named);
        let mut letters = set.iter().map(|i| &self.letters[i]).peekable();
        for offset in 0..self.period {
            if offset > 0 {
                out.push(' ');
            }
            let mut at = || letters.next_if(|(o, _)| *o == offset).map(|(_, n)| n);
            match (at(), at()) {
                (None, _) => out.push('*'),
                (Some(name), None) => out.push_str(name),
                (Some(first), Some(second)) => {
                    out.push('{');
                    out.push_str(first);
                    out.push(',');
                    out.push_str(second);
                    while let Some(name) = at() {
                        out.push(',');
                        out.push_str(name);
                    }
                    out.push('}');
                }
            }
        }
        out
    }
}

/// Builds the `mine` result frame: totals plus up to `limit` rows.
fn mine_response(
    q: &MineQuery,
    c: &CachedResult,
    cached: &str,
    quarantined: Option<usize>,
) -> Json {
    let rows: Vec<Json> = c
        .rows
        .iter()
        .take(q.limit)
        .map(|r| {
            Json::Arr(vec![
                Json::Str(r.display.clone()),
                Json::from_usize(r.letters),
                Json::from_u64(r.count),
            ])
        })
        .collect();
    // A live-index answer echoes the spelling its request sent.
    let engine = if q.live {
        "incremental"
    } else {
        q.engine.name()
    };
    let mut fields = vec![
        ("store".to_owned(), Json::Str(q.store.clone())),
        ("period".to_owned(), Json::from_usize(q.period)),
        ("min_conf".to_owned(), Json::Num(q.min_conf)),
        ("engine".to_owned(), Json::Str(engine.to_owned())),
        ("patterns".to_owned(), Json::from_usize(c.rows.len())),
        ("segments".to_owned(), Json::from_usize(c.segment_count)),
        ("scans".to_owned(), Json::from_usize(c.scans)),
        ("cached".to_owned(), Json::Str(cached.to_owned())),
        ("rows".to_owned(), Json::Arr(rows)),
    ];
    if let Some(n) = quarantined {
        fields.push(("quarantined".to_owned(), Json::from_usize(n)));
    }
    result_response("mine", fields)
}

/// Best-effort panic payload rendering for the error message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_observe::Collector;
    use ppm_timeseries::columnar::write_columnar;
    use ppm_timeseries::SeriesBuilder;

    /// An append that lands while a live-index mine waits for the index
    /// guard grows the resident load in place, because the waiting mine
    /// holds no snapshot of it. The mine then runs on the grown load and
    /// caches its result under the grown fingerprint.
    #[test]
    fn an_append_during_a_waiting_live_mine_grows_in_place() {
        let tmp = |ext: &str| {
            std::env::temp_dir().join(format!(
                "ppm-serve-server-{}-grow.{ext}",
                std::process::id()
            ))
        };
        let (path, socket) = (tmp("ppmc"), tmp("sock"));
        let mut catalog = FeatureCatalog::new();
        let alpha = catalog.intern("alpha");
        let mut builder = SeriesBuilder::new();
        for _ in 0..6 {
            builder.push_instant([alpha]);
            builder.push_instant([]);
        }
        write_columnar(&path, &builder.finish(), &catalog).unwrap();
        let registry = StoreRegistry::open(&[&path]).unwrap();
        let server = Server::bind(registry, ServeConfig::new(Bind::Unix(socket.clone()))).unwrap();
        let store = server.registry().iter().next().unwrap();
        let req = Json::parse(&format!(
            r#"{{"op":"mine","store":"{}","period":2,"min_conf":0.5,"engine":"incremental"}}"#,
            store.name
        ))
        .unwrap();

        let (mine_obs, append_obs) = (Arc::new(Collector::new()), Arc::new(Collector::new()));
        let _sink = ppm_observe::install(append_obs.clone());
        let grown = std::thread::scope(|scope| {
            // The append's critical section, run by hand: it holds the
            // index guard while it publishes and grows the reader.
            let indexes = store.indexes();
            let mine = scope.spawn(|| {
                let _sink = ppm_observe::install(mine_obs.clone());
                server.op_mine(&req).is_ok()
            });
            // Past its cache lookup, the mine can only be waiting for the
            // guard.
            while mine_obs.counter_total("serve.cache.misses") == 0 {
                assert!(!mine.is_finished(), "the mine ended before its lookup");
                std::thread::yield_now();
            }
            let resident = store.reader();
            let mut app = ColumnarAppender::open_resident(&store.path, &resident).unwrap();
            for _ in 0..2 {
                app.append_instant(&[alpha]).unwrap();
                app.append_instant(&[]).unwrap();
            }
            let growth = app.finish_growth(&resident).unwrap();
            store.grow_reader(resident, &growth).unwrap();
            drop(indexes);
            assert!(mine.join().unwrap(), "the mine succeeds");
            growth.fingerprint()
        });
        assert_eq!(append_obs.counter_total("serve.append.grow_copies"), 0);
        let key = CacheKey {
            fingerprint: grown,
            period: 2,
            conf_bits: 0.5f64.to_bits(),
        };
        let (cached, _) = server.cache.lock().unwrap().lookup(&key);
        let cached = cached.expect("cached under the grown fingerprint");
        assert_eq!(cached.segment_count, 8, "mined off the grown load");
        std::fs::remove_file(path).ok();
        std::fs::remove_file(socket).ok();
    }

    /// One cache entry answers a shape whichever two-scan path mines it:
    /// after a hit-set mine, the vertical engine and the live index are
    /// exact hits with the same rows, segments and scans, each echoing
    /// the engine spelling it sent. Apriori answers bypass the cache.
    #[test]
    fn the_cache_keys_answers_not_engines() {
        let tmp = |ext: &str| {
            std::env::temp_dir().join(format!(
                "ppm-serve-server-{}-shared.{ext}",
                std::process::id()
            ))
        };
        let (path, socket) = (tmp("ppmc"), tmp("sock"));
        let mut catalog = FeatureCatalog::new();
        let (a, b) = (catalog.intern("alpha"), catalog.intern("beta"));
        let mut builder = SeriesBuilder::new();
        for i in 0..30 {
            builder.push_instant([a]);
            builder.push_instant(if i % 4 == 0 { vec![] } else { vec![b] });
            builder.push_instant(if i % 3 == 0 { vec![a, b] } else { vec![] });
        }
        write_columnar(&path, &builder.finish(), &catalog).unwrap();
        let registry = StoreRegistry::open(&[&path]).unwrap();
        let server = Server::bind(registry, ServeConfig::new(Bind::Unix(socket.clone()))).unwrap();
        let name = server.registry().iter().next().unwrap().name.clone();
        let mine = |engine: &str| {
            let req = Json::parse(&format!(
                r#"{{"v":{},"op":"mine","store":"{name}","period":3,"min_conf":0.3,"engine":"{engine}"}}"#,
                protocol::VERSION
            ))
            .unwrap();
            let resp = server.dispatch(&req);
            let field = |f: &str| resp.get(f).cloned();
            assert_eq!(field("engine"), Some(Json::Str(engine.to_owned())));
            let cached = resp
                .get("cached")
                .and_then(Json::as_str)
                .unwrap()
                .to_owned();
            let answer = [field("rows"), field("segments"), field("scans")];
            (cached, answer)
        };
        let entries = || server.cache.lock().unwrap().stats().entries;

        let (cached, mined) = mine("hitset");
        assert_eq!(cached, "miss");
        assert!(matches!(&mined[0], Some(Json::Arr(rows)) if !rows.is_empty()));
        assert_eq!(mined[2], Some(Json::from_u64(2)));
        for engine in ["vertical", "incremental"] {
            assert_eq!(mine(engine), ("hit".to_owned(), mined.clone()), "{engine}");
        }
        assert_eq!(entries(), 1);
        for _ in 0..2 {
            assert_eq!(mine("apriori").0, "bypass");
        }
        assert_eq!(entries(), 1, "Apriori answers are never cached");
        std::fs::remove_file(path).ok();
        std::fs::remove_file(socket).ok();
    }

    /// `to_cached` renders every row of a real mine byte-identically to
    /// `Pattern::display`: `*`, bare names, brace sets of co-occurring
    /// features, and `f{raw}` placeholders for ids the catalog lacks.
    #[test]
    fn rendered_rows_equal_pattern_display() {
        use ppm_core::Pattern;
        use ppm_timeseries::FeatureId;

        let mut catalog = FeatureCatalog::new();
        let (a, b) = (catalog.intern("alpha"), catalog.intern("b\"q"));
        let (c, d) = (FeatureId::from_raw(7), FeatureId::from_raw(12));
        let mut builder = SeriesBuilder::new();
        for i in 0..40 {
            builder.push_instant([a, b, c]);
            builder.push_instant(if i % 3 == 0 { vec![] } else { vec![d] });
            builder.push_instant([b]);
            builder.push_instant([a, d]);
        }
        let series = builder.finish();
        let config = MineConfig::new(0.5).unwrap();
        let result = ppm_core::run(Engine::Vertical, &series, 4, &config).unwrap();
        let mut got: Vec<_> = to_cached(&result, &catalog)
            .rows
            .into_iter()
            .map(|r| (r.display, r.letters, r.count))
            .collect();
        let mut want: Vec<_> = result
            .frequent
            .iter()
            .map(|fp| {
                let pattern = Pattern::from_letter_set(&result.alphabet, &fp.letters);
                let display = pattern.display(&catalog).to_string();
                (display, fp.letters.len(), fp.count)
            })
            .collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
        let shown = |needle: &str| want.iter().any(|(d, _, _)| d.contains(needle));
        for needle in ["{alpha,b\"q,f7}", "f12", "* b\"q *", "alpha"] {
            assert!(shown(needle), "no row shows {needle:?}: {want:?}");
        }
    }

    /// The `append` op on a served version-2 store answers wire code 2
    /// (usage) naming the version and `ppm convert`, twice — the refusal
    /// releases the append lock — while the file stays byte-identical, no
    /// staging file appears, health stays ready and `mine` keeps answering.
    #[test]
    fn append_to_a_v2_store_is_a_usage_error_and_the_store_keeps_serving() {
        let fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../timeseries/testdata/synthetic-p12-v2.ppmc"
        );
        let tmp = |ext: &str| {
            std::env::temp_dir().join(format!("ppm-serve-server-{}-v2.{ext}", std::process::id()))
        };
        let (path, socket) = (tmp("ppmc"), tmp("sock"));
        std::fs::copy(fixture, &path).unwrap();
        let registry = StoreRegistry::open(&[&path]).unwrap();
        let server = Server::bind(registry, ServeConfig::new(Bind::Unix(socket.clone()))).unwrap();
        let name = server.registry().iter().next().unwrap().name.clone();
        let request = |body: &str| {
            let req = Json::parse(&format!(
                r#"{{"v":{},"store":"{name}",{body}}}"#,
                protocol::VERSION
            ))
            .unwrap();
            server.dispatch(&req)
        };
        for attempt in 0..2 {
            let resp = request(r#""op":"append","rows":[["pat0"],[]]"#);
            assert_eq!(resp.get("type").and_then(Json::as_str), Some("error"));
            assert_eq!(
                resp.get("code").and_then(Json::as_u64),
                Some(2),
                "{attempt}"
            );
            let message = resp.get("message").and_then(Json::as_str).unwrap();
            assert!(message.contains("version 2"), "{message}");
            assert!(message.contains("ppm convert"), "{message}");
        }
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(fixture).unwrap()
        );
        let mut staging = path.as_os_str().to_owned();
        staging.push(".tmp");
        assert!(!std::path::Path::new(&staging).exists());
        let health = request(r#""op":"health""#);
        assert_eq!(health.get("ready"), Some(&Json::Bool(true)));
        assert_eq!(health.get("degraded"), Some(&Json::Bool(false)));
        let mine = request(r#""op":"mine","period":12,"min_conf":0.6"#);
        assert_eq!(mine.get("type").and_then(Json::as_str), Some("result"));
        std::fs::remove_file(path).ok();
        std::fs::remove_file(socket).ok();
    }
}
