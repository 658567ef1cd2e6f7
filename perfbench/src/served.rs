//! `serve-hot` and `ingest-follow`: load against a `ppm serve --workers 2`
//! child process, from at most two client threads with one connection
//! per request (what `ppm query` does).

use std::collections::hash_map::{Entry, HashMap};
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppm_core::vertical::incremental::IncrementalVerticalIndex;
use ppm_core::{MineConfig, MiningResult, Pattern};
use ppm_datagen::rng::{Rng, SplitMix64};
use ppm_datagen::SyntheticSpec;
use ppm_observe::{Collector, Json};
use ppm_serve::client::normalized;
use ppm_serve::protocol::{read_frame, write_frame};
use ppm_serve::{ClientStats, Endpoint, FailoverClient, RetryPolicy};
use ppm_timeseries::columnar::{write_columnar, ColumnarAppender, ColumnarReader};
use ppm_timeseries::{EncodedSeriesView, FeatureCatalog, FeatureId};

use crate::daemon::{request, stats_rtt_us, Daemon, StatsSnapshot};
use crate::report::Outcome;
use crate::stats::{median, tail, ZipfKeys};
use crate::{ms, Run, SETUP_REPS};

/// One `mine` query shape.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key {
    period: usize,
    conf: f64,
    engine: &'static str,
}

/// Rows a `mine` response carries; the rest is summarized by `patterns`.
const LIMIT: usize = 100;

fn mine_request(store: &str, k: Key) -> Json {
    request(
        "mine",
        vec![
            ("store", Json::Str(store.to_owned())),
            ("period", Json::from_usize(k.period)),
            ("min_conf", Json::Num(k.conf)),
            ("engine", Json::Str(k.engine.to_owned())),
            ("limit", Json::from_usize(LIMIT)),
        ],
    )
}

/// The answer a `mine` response carries, as `client::normalized` renders
/// it: every field that depends on the store state and the query, none of
/// the metadata a daemon may add. `None` unless it is a `mine` result.
const ANSWER_FIELDS: [&str; 8] = [
    "store", "period", "min_conf", "engine", "patterns", "segments", "scans", "rows",
];

fn served_answer(resp: &Json) -> Option<String> {
    if resp.get("type").and_then(Json::as_str) != Some("result") {
        return None;
    }
    let fields = ANSWER_FIELDS
        .iter()
        .filter_map(|&k| resp.get(k).map(|v| (k.to_owned(), v.clone())))
        .collect();
    Some(normalized(&Json::Obj(fields)))
}

/// The same rendering for a direct mine: rows in report order (letters
/// desc, count desc, stable over the miner's canonical order).
fn direct_answer(r: &MiningResult, catalog: &FeatureCatalog, store: &str, k: Key) -> String {
    let mut rows: Vec<_> = r.frequent.iter().collect();
    rows.sort_by(|a, b| {
        b.letters
            .len()
            .cmp(&a.letters.len())
            .then(b.count.cmp(&a.count))
    });
    let rows = rows
        .iter()
        .take(LIMIT)
        .map(|fp| {
            Json::Arr(vec![
                Json::Str(
                    Pattern::from_letter_set(&r.alphabet, &fp.letters)
                        .display(catalog)
                        .to_string(),
                ),
                Json::from_usize(fp.letters.len()),
                Json::from_u64(fp.count),
            ])
        })
        .collect();
    normalized(&Json::Obj(vec![
        ("store".to_owned(), Json::Str(store.to_owned())),
        ("period".to_owned(), Json::from_usize(k.period)),
        ("min_conf".to_owned(), Json::Num(k.conf)),
        ("engine".to_owned(), Json::Str(k.engine.to_owned())),
        ("patterns".to_owned(), Json::from_usize(r.frequent.len())),
        ("segments".to_owned(), Json::from_usize(r.segment_count)),
        ("scans".to_owned(), Json::from_usize(r.stats.series_scans)),
        ("rows".to_owned(), Json::Arr(rows)),
    ]))
}

fn direct_mine(view: EncodedSeriesView<'_>, k: Key) -> Result<MiningResult, String> {
    let cfg = MineConfig::new(k.conf).map_err(|e| e.to_string())?;
    match k.engine {
        "hitset" => ppm_core::hitset::mine_view(view, k.period, &cfg),
        // The incremental engine is bit-identical to a cold vertical mine.
        _ => ppm_core::vertical::mine_vertical_view(view, k.period, &cfg),
    }
    .map_err(|e| e.to_string())
}

/// Mean client think time between queries, in ms.
const THINK_MS: f64 = 2.0;

/// One client request and what came back.
struct Sample {
    key: usize,
    latency_ns: u64,
    traced: bool,
    resp: Result<Json, String>,
}

fn client(addr: &str, seed: u64, retries: u32) -> FailoverClient {
    FailoverClient::new(
        vec![Endpoint::Tcp(addr.to_owned())],
        RetryPolicy {
            retries,
            seed,
            ..RetryPolicy::default()
        },
    )
}

/// Times one request; in a traced run every other request runs with a
/// `Collector` installed, so the two halves give the tracing overhead.
fn timed(c: &mut FailoverClient, req: &Json, traced: bool) -> (u64, Result<Json, String>) {
    let guard = traced.then(|| ppm_observe::install(Arc::new(Collector::new())));
    let t0 = Instant::now();
    let resp = c.request(req).map_err(|e| e.to_string());
    let ns = t0.elapsed().as_nanos() as u64;
    drop(guard);
    let resp = resp.and_then(|r| match r.get("type").and_then(Json::as_str) {
        Some("result") => Ok(r),
        _ => Err(format!("daemon answered {}", r.render())),
    });
    (ns, resp)
}

/// A closed loop of queries until `deadline`; `next` picks each key.
///
/// Between requests the client thinks for a seeded exponential time of
/// mean [`THINK_MS`]. Without it the two clients phase-lock onto the
/// daemon's accept-poll tick, and the latency distribution flips between
/// run-to-run modes instead of sampling the poll's residual wait.
fn query_loop(
    addr: &str,
    store: &str,
    keys: &[Key],
    seed: u64,
    deadline: Instant,
    trace: bool,
    mut next: impl FnMut() -> usize,
) -> (Vec<Sample>, ClientStats) {
    let mut c = client(addr, seed, 3);
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x7417);
    let mut samples = Vec::new();
    while Instant::now() < deadline {
        let u: f64 = rng.random();
        std::thread::sleep(Duration::from_secs_f64(-THINK_MS / 1e3 * (1.0 - u).ln()));
        let key = next();
        let traced = trace && samples.len() % 2 == 1;
        let (latency_ns, resp) = timed(&mut c, &mine_request(store, keys[key]), traced);
        samples.push(Sample {
            key,
            latency_ns,
            traced,
            resp,
        });
    }
    (samples, c.stats())
}

/// Per-layer figures every served workload reports from the daemon's
/// `stats` op (snapshotted around the window), the wire probes, and the
/// frames the clients received.
fn serve_layers(
    out: &mut Outcome,
    addr: &str,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    client_ns: &[u64],
    frames: &[&Json],
) -> Result<(), String> {
    let answered = (after.hits + after.derived).saturating_sub(before.hits + before.derived);
    let lookups = answered + after.misses.saturating_sub(before.misses);
    let queue = after.queue.window_mean_us(&before.queue);
    let service = after.service.window_mean_us(&before.service);
    let client_us = client_ns.iter().sum::<u64>() as f64 / client_ns.len().max(1) as f64 / 1e3;
    let wire = (client_us - queue - service).max(0.0);
    out.set("serve.queue_wait_us_p50", after.queue.p50_us);
    out.set("serve.service_us_p50", after.service.p50_us);
    out.set("serve.cache_lookup_us_p50", after.cache_lookup.p50_us);
    out.set(
        "serve.cache_answer_frac",
        answered as f64 / lookups.max(1) as f64,
    );
    out.set(
        "serve.evictions",
        after.evictions.saturating_sub(before.evictions) as f64,
    );
    out.set("serve.wire_accept_us", wire);
    out.line(format!(
        "reconciliation (client latency = daemon queue + service + wire/accept), window means over {} requests:",
        client_ns.len()
    ));
    out.line(format!(
        "  client {client_us:.1} us = queue {queue:.1} us + service {service:.1} us + wire/accept {wire:.1} us"
    ));

    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for f in frames.iter().take(200) {
        let mut buf = Vec::new();
        let t0 = Instant::now();
        write_frame(&mut buf, f).map_err(|e| e.to_string())?;
        enc.push(t0.elapsed().as_nanos() as f64 / 1e3);
        let t0 = Instant::now();
        std::hint::black_box(read_frame(&mut Cursor::new(&buf)).map_err(|e| e.to_string())?);
        dec.push(t0.elapsed().as_nanos() as f64 / 1e3);
        bytes.push(buf.len() as f64);
    }
    out.set("protocol.encode_us", median(&enc));
    out.set("protocol.decode_us", median(&dec));
    out.set("protocol.response_bytes", median(&bytes));
    out.set("protocol.fresh_conn_rtt_us", stats_rtt_us(addr, 20, true)?);
    out.set("protocol.keepalive_rtt_us", stats_rtt_us(addr, 20, false)?);
    Ok(())
}

fn open_ms(path: &Path) -> Result<(f64, usize), String> {
    let mut times = Vec::new();
    let mut bytes = 0;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = ColumnarReader::open(path).map_err(|e| format!("open: {e}"))?;
        times.push(ms(t0.elapsed().as_nanos() as u64));
        bytes = r.file_bytes();
    }
    Ok((median(&times), bytes))
}

fn overhead(samples: &[&Sample]) -> f64 {
    let pick = |t: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.traced == t)
            .map(|s| s.latency_ns as f64)
            .collect()
    };
    median(&pick(true)) / median(&pick(false)) - 1.0
}

fn attempts_per_query(stats: &[ClientStats], requests: usize) -> f64 {
    stats.iter().map(|s| s.attempts).sum::<u64>() as f64 / requests.max(1) as f64
}

// ---------------------------------------------------------------- serve-hot

const HOT_PERIODS: std::ops::RangeInclusive<usize> = 20..=29;
const HOT_CONFS: [f64; 8] = [0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95];
const HOT_ENGINES: [&str; 2] = ["vertical", "hitset"];
/// The daemon's cache bound, well under the 160-key space.
const HOT_CACHE_ENTRIES: usize = 24;
const HOT_ZIPF_S: f64 = 1.0;
const HOT_CLIENTS: u64 = 2;
const HOT_WARMUP: usize = 150;

fn hot_keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for period in HOT_PERIODS {
        for conf in HOT_CONFS {
            for engine in HOT_ENGINES {
                keys.push(Key {
                    period,
                    conf,
                    engine,
                });
            }
        }
    }
    keys
}

pub fn hot_spec(seed: u64) -> SyntheticSpec {
    let mut spec = SyntheticSpec::table1(120_000, 25, 6, 16);
    spec.seed = seed;
    spec
}

/// Runs `serve-hot`.
pub fn run_hot(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let spec = hot_spec(run.data_seed);
    let store = run.dir.join("hot.ppmc");
    let cache = run.dir.join("hot.ppmcache");
    let keys = hot_keys();
    let args: Vec<String> = [
        "--stores",
        &store.display().to_string(),
        "--port",
        "0",
        "--workers",
        "2",
        "--cache",
        &cache.display().to_string(),
        "--cache-max-entries",
        &HOT_CACHE_ENTRIES.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    // Set-up: generate, convert, start the daemon, warm its cache.
    let mut setups = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        std::fs::remove_file(&cache).ok();
        crate::batch::write_store(&spec, &store)?;
        let d = Daemon::start(&args, &run.dir.join("daemon.log"))?;
        let mut c = client(&d.addr, run.seed, 3);
        let mut zipf = ZipfKeys::new(keys.len(), HOT_ZIPF_S, run.seed ^ 0x3a3a);
        for _ in 0..HOT_WARMUP {
            c.request(&mine_request("hot", keys[zipf.next_key()]))
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        setups.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one set-up");
    let addr = daemon.addr.clone();
    out.line(format!(
        "serve-hot: Table-1 series, {} instants, period {}, max-pat {}, |F1| {}, data seed {:#x}",
        spec.length, spec.period, spec.max_pat_length, spec.f1_count, spec.seed
    ));
    out.line(format!(
        "  daemon: ppm serve --workers 2, file-backed cache bounded at {HOT_CACHE_ENTRIES} entries; flush policy: every insert rewrites the cache file (tmp + fsync + rename)"
    ));
    out.line(format!(
        "  load: {HOT_CLIENTS} closed-loop clients, FailoverClient, one connection per request, think time exp(mean {THINK_MS} ms); {} keys = periods {:?} x min_conf {:?} x engine {:?}, Zipf s={HOT_ZIPF_S}; warm-up {HOT_WARMUP} requests",
        keys.len(), HOT_PERIODS, HOT_CONFS, HOT_ENGINES
    ));

    let before = if run.trace {
        StatsSnapshot::take(&addr)?
    } else {
        StatsSnapshot::default()
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs(run.seconds);
    let logs: Vec<(Vec<Sample>, ClientStats)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..HOT_CLIENTS)
            .map(|c| {
                let (addr, keys) = (&addr, &keys);
                let seed = run.seed.wrapping_mul(31).wrapping_add(c);
                s.spawn(move || {
                    let mut zipf = ZipfKeys::new(keys.len(), HOT_ZIPF_S, seed);
                    query_loop(addr, "hot", keys, seed, deadline, run.trace, || {
                        zipf.next_key()
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let samples: Vec<&Sample> = logs.iter().flat_map(|(s, _)| s).collect();
    let client_stats: Vec<ClientStats> = logs.iter().map(|(_, s)| *s).collect();

    if run.trace {
        let after = StatsSnapshot::take(&addr)?;
        let ns: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
        let frames: Vec<&Json> = samples
            .iter()
            .filter_map(|s| s.resp.as_ref().ok())
            .collect();
        serve_layers(out, &addr, &before, &after, &ns, &frames)?;
        let (open, bytes) = open_ms(&store)?;
        out.set("columnar.open_ms", open);
        out.set("columnar.store_bytes", bytes as f64);
        out.set("observe.trace_overhead_frac", overhead(&samples));
    }
    let rss = daemon
        .peak_rss_mb()
        .ok_or("cannot read the daemon's VmHWM")?;
    daemon.stop()?;

    // Every answer against a direct mine of the same store, off the clock.
    let reader = ColumnarReader::open(&store).map_err(|e| format!("open: {e}"))?;
    let mut expected: HashMap<usize, String> = HashMap::new();
    for s in &samples {
        out.attempted += 1;
        let resp = match &s.resp {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("query failed: {e}"));
                continue;
            }
        };
        let k = keys[s.key];
        let want = match expected.entry(s.key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let r = direct_mine(reader.view(), k)?;
                e.insert(direct_answer(&r, reader.catalog(), "hot", k))
            }
        };
        if served_answer(resp).as_deref() != Some(want.as_str()) {
            out.fail(format!(
                "served answer for {k:?} differs from a direct mine"
            ));
        }
    }

    let lat: Vec<f64> = samples.iter().map(|s| ms(s.latency_ns)).collect();
    let t = tail(&lat);
    let qps = samples.len() as f64 / elapsed;
    out.set("setup_s", median(&setups));
    out.set("op_ms_p50", median(&lat));
    out.set("ops_per_s", qps);
    out.set("peak_rss_mb", rss);
    out.set(
        "client.attempts_per_query",
        attempts_per_query(&client_stats, samples.len()),
    );
    out.info("query_ms_p50", median(&lat), "ms");
    out.info("query_ms_tail", t.value, "ms");
    out.info("query_tail_pct", t.pct, "%");
    out.info("query_samples", t.n as f64, "count");
    out.info("query_per_s", qps, "1/s");
    Ok(())
}

// ------------------------------------------------------------ ingest-follow

const LIVE_PERIOD: usize = 30;
const LIVE_CONF: f64 = 0.6;
/// Client B's reader mix: incremental queries at four other periods and
/// one vertical query, which every append turns into a cold mine.
const READER_KEYS: [Key; 5] = [
    Key {
        period: 28,
        conf: LIVE_CONF,
        engine: "incremental",
    },
    Key {
        period: 29,
        conf: LIVE_CONF,
        engine: "incremental",
    },
    Key {
        period: 27,
        conf: LIVE_CONF,
        engine: "vertical",
    },
    Key {
        period: 31,
        conf: LIVE_CONF,
        engine: "incremental",
    },
    Key {
        period: 32,
        conf: LIVE_CONF,
        engine: "incremental",
    },
];
const LIVE_KEY: Key = Key {
    period: LIVE_PERIOD,
    conf: LIVE_CONF,
    engine: "incremental",
};
/// Sampled answers checked against a cold mine, per client.
const LIVE_CHECKS: usize = 5;
/// Segments client A draws its appends from.
const SEGMENT_POOL: usize = 64;

/// One whole segment to append, by name (the wire) and by id (the
/// in-process layer probes).
struct Segment {
    rows: Json,
    ids: Vec<Vec<FeatureId>>,
}

/// One client-A cycle: append a segment, then mine incrementally.
struct Cycle {
    appended: usize,
    append_ns: u64,
    fresh_ns: u64,
    append: Result<Json, String>,
    mine: Result<Json, String>,
}

fn live_args(store: &Path) -> Vec<String> {
    [
        "--stores",
        &store.display().to_string(),
        "--port",
        "0",
        "--workers",
        "2",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Runs `ingest-follow`.
pub fn run_ingest(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let spec = crate::batch::table1_spec(run.data_seed);
    let store = run.dir.join("live.ppmc");
    let n0 = spec.length;

    let mut setups = Vec::new();
    let mut daemon = None;
    let mut pool = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let g = spec.generate();
        write_columnar(&store, &g.series, &g.catalog).map_err(|e| format!("write: {e}"))?;
        let d = Daemon::start(&live_args(&store), &run.dir.join("daemon.log"))?;
        let mut c = client(&d.addr, run.seed, 3);
        for k in std::iter::once(LIVE_KEY).chain(READER_KEYS) {
            c.request(&mine_request("live", k))
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        setups.push(t0.elapsed().as_secs_f64());
        if pool.is_empty() {
            let mut rng = SplitMix64::seed_from_u64(run.seed ^ 0x5e65);
            let m = g.series.len() / LIVE_PERIOD;
            for _ in 0..SEGMENT_POOL {
                let base = rng.random_range(0..m) * LIVE_PERIOD;
                let ids: Vec<Vec<FeatureId>> = (base..base + LIVE_PERIOD)
                    .map(|t| g.series.instant(t).to_vec())
                    .collect();
                let rows = Json::Arr(
                    ids.iter()
                        .map(|inst| {
                            Json::Arr(
                                inst.iter()
                                    .map(|&f| Json::Str(g.catalog.name_or_placeholder(f)))
                                    .collect(),
                            )
                        })
                        .collect(),
                );
                pool.push(Segment { rows, ids });
            }
        }
        if rep + 1 < SETUP_REPS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one set-up");
    let addr = daemon.addr.clone();
    out.line(format!(
        "ingest-follow: Table-1 series, {} instants, period {}, max-pat {}, |F1| {}, data seed {:#x}",
        spec.length, spec.period, spec.max_pat_length, spec.f1_count, spec.seed
    ));
    out.line("  daemon: ppm serve --workers 2, memory-only result cache (nothing flushed); every append rewrites and fsyncs the store".into());
    out.line(format!(
        "  load: client A closed loop = append one {LIVE_PERIOD}-instant segment, then an incremental mine at period {LIVE_PERIOD}; client B closed loop over {:?} with think time exp(mean {THINK_MS} ms); min_conf {LIVE_CONF}; one connection per request",
        READER_KEYS.iter().map(|k| (k.period, k.engine)).collect::<Vec<_>>()
    ));

    let before = if run.trace {
        StatsSnapshot::take(&addr)?
    } else {
        StatsSnapshot::default()
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs(run.seconds);
    let (cycles, a_stats, (reads, b_stats)) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            // Appends are not idempotent: one attempt, no retries.
            let mut c = client(&addr, run.seed, 1);
            let mut rng = SplitMix64::seed_from_u64(run.seed ^ 0xa99e);
            let mut cycles = Vec::new();
            while Instant::now() < deadline {
                let seg = &pool[rng.random_range(0..pool.len())];
                let append = request(
                    "append",
                    vec![
                        ("store", Json::Str("live".into())),
                        ("rows", seg.rows.clone()),
                    ],
                );
                let (append_ns, append) = timed(&mut c, &append, false);
                let (mine_ns, mine) = timed(&mut c, &mine_request("live", LIVE_KEY), false);
                cycles.push(Cycle {
                    appended: cycles.len() + 1,
                    append_ns,
                    fresh_ns: append_ns + mine_ns,
                    append,
                    mine,
                });
            }
            (cycles, c.stats())
        });
        let reader = s.spawn(|| {
            let mut i = 0usize;
            query_loop(
                &addr,
                "live",
                &READER_KEYS,
                run.seed,
                deadline,
                run.trace,
                || {
                    i += 1;
                    (i - 1) % READER_KEYS.len()
                },
            )
        });
        let (cycles, a_stats) = writer.join().expect("writer thread panicked");
        (
            cycles,
            a_stats,
            reader.join().expect("reader thread panicked"),
        )
    });
    let elapsed = started.elapsed().as_secs_f64();

    if run.trace {
        let after = StatsSnapshot::take(&addr)?;
        let mut ns: Vec<u64> = reads.iter().map(|s| s.latency_ns).collect();
        for c in &cycles {
            ns.push(c.append_ns);
            ns.push(c.fresh_ns - c.append_ns);
        }
        let frames: Vec<&Json> = reads.iter().filter_map(|s| s.resp.as_ref().ok()).collect();
        serve_layers(out, &addr, &before, &after, &ns, &frames)?;
        out.set(
            "observe.trace_overhead_frac",
            overhead(&reads.iter().collect::<Vec<_>>()),
        );
    }
    let rss = daemon
        .peak_rss_mb()
        .ok_or("cannot read the daemon's VmHWM")?;
    daemon.stop()?;

    // Checks, off the clock. Client A is the only writer, so after cycle
    // k the store is the first n0 + 30k instants of the final file; a
    // reader answer over m whole segments of period p is determined by the
    // first m·p instants.
    let fin = ColumnarReader::open(&store).map_err(|e| format!("open final store: {e}"))?;
    let view = fin.view();
    let words: Vec<u64> = (0..view.len())
        .flat_map(|t| view.instant_words(t).iter().copied())
        .collect();
    let prefix =
        |n: usize| EncodedSeriesView::new(view.width(), n, &words[..n * view.words_per_instant()]);
    let check = |out: &mut Outcome, resp: &Json, k: Key, n: usize| -> Result<(), String> {
        let whole = n / k.period * k.period;
        let cold = direct_mine(
            prefix(whole),
            Key {
                engine: "vertical",
                ..k
            },
        )?;
        let want = direct_answer(&cold, fin.catalog(), "live", k);
        if served_answer(resp).as_deref() != Some(want.as_str()) {
            out.fail(format!(
                "served answer for {k:?} over {n} instants differs from a cold mine"
            ));
        }
        Ok(())
    };
    let sampled = |len: usize| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..LIVE_CHECKS)
            .map(|i| i * len.saturating_sub(1) / (LIVE_CHECKS - 1).max(1))
            .collect();
        idx.dedup();
        idx.retain(|&i| i < len);
        idx
    };
    let a_checked = sampled(cycles.len());
    for (i, c) in cycles.iter().enumerate() {
        out.attempted += 1;
        let n = n0 + LIVE_PERIOD * c.appended;
        let (append, mine) = match (&c.append, &c.mine) {
            (Ok(a), Ok(m)) => (a, m),
            (Err(e), _) | (_, Err(e)) => {
                out.fail(format!("cycle {}: {e}", c.appended));
                continue;
            }
        };
        if append.get("instants").and_then(Json::as_u64) != Some(n as u64) {
            out.fail(format!(
                "cycle {}: append did not reach {n} instants",
                c.appended
            ));
        } else if mine.get("segments").and_then(Json::as_u64) != Some((n / LIVE_PERIOD) as u64) {
            out.fail(format!(
                "cycle {}: incremental answer does not cover the append",
                c.appended
            ));
        } else if a_checked.contains(&i) {
            check(out, mine, LIVE_KEY, n)?;
        }
    }
    let b_checked = sampled(reads.len());
    for (i, s) in reads.iter().enumerate() {
        out.attempted += 1;
        let k = READER_KEYS[s.key];
        match &s.resp {
            Err(e) => out.fail(format!("reader query {k:?}: {e}")),
            Ok(resp) if b_checked.contains(&i) => {
                let m = resp.get("segments").and_then(Json::as_u64).unwrap_or(0) as usize;
                check(out, resp, k, m * k.period)?;
            }
            Ok(_) => {}
        }
    }

    let fresh: Vec<f64> = cycles.iter().map(|c| ms(c.fresh_ns)).collect();
    let reader_ms: Vec<f64> = reads.iter().map(|s| ms(s.latency_ns)).collect();
    let (ft, rt) = (tail(&fresh), tail(&reader_ms));
    out.set("setup_s", median(&setups));
    out.set("op_ms_p50", median(&fresh));
    out.set("ops_per_s", cycles.len() as f64 / elapsed);
    out.set("peak_rss_mb", rss);
    out.set("client.reader_ms_p50", median(&reader_ms));
    out.set("client.reader_ms_tail", rt.value);
    out.set(
        "client.attempts_per_query",
        attempts_per_query(&[a_stats, b_stats], reads.len() + 2 * cycles.len()),
    );
    let append_ms: Vec<f64> = cycles.iter().map(|c| ms(c.append_ns)).collect();
    out.info("append_ms_p50", median(&append_ms), "ms");
    out.info("fresh_ms_p50", median(&fresh), "ms");
    out.info("fresh_ms_tail", ft.value, "ms");
    out.info("fresh_tail_pct", ft.pct, "%");
    out.info("fresh_samples", ft.n as f64, "count");
    out.info("query_ms_p50", median(&reader_ms), "ms");
    out.info("query_ms_tail", rt.value, "ms");
    out.info("query_tail_pct", rt.pct, "%");
    out.info("query_samples", rt.n as f64, "count");

    if run.trace {
        let (open, bytes) = open_ms(&store)?;
        out.set("columnar.open_ms", open);
        out.set("columnar.store_bytes", bytes as f64);
        layer_probes(run, out, &store, &pool)?;
    }
    Ok(())
}

/// The appender and the incremental index, timed in-process on a copy of
/// the grown store: the daemon runs both inside its `append` op, where no
/// public entry point separates them.
fn layer_probes(
    run: &Run,
    out: &mut Outcome,
    store: &Path,
    pool: &[Segment],
) -> Result<(), String> {
    let copy = run.dir.join("probe.ppmc");
    std::fs::copy(store, &copy).map_err(|e| format!("copy store: {e}"))?;
    let (mut open, mut publish, mut amp) = (Vec::new(), Vec::new(), Vec::new());
    for seg in pool.iter().take(3) {
        let t0 = Instant::now();
        let mut app = ColumnarAppender::open(&copy).map_err(|e| format!("appender open: {e}"))?;
        open.push(ms(t0.elapsed().as_nanos() as u64));
        for inst in &seg.ids {
            app.append_instant(inst).map_err(|e| e.to_string())?;
        }
        let t0 = Instant::now();
        app.finish().map_err(|e| format!("publish: {e}"))?;
        publish.push(ms(t0.elapsed().as_nanos() as u64));
        let written = std::fs::metadata(&copy).map_err(|e| e.to_string())?.len() as f64;
        let reader = ColumnarReader::open(&copy).map_err(|e| e.to_string())?;
        let appended = (seg.ids.len() * reader.view().words_per_instant() * 8) as f64;
        amp.push(written / appended);
    }
    out.set("appender.open_ms", median(&open));
    out.set("appender.publish_ms", median(&publish));
    out.set("appender.write_amp", median(&amp));

    let reader = ColumnarReader::open(&copy).map_err(|e| e.to_string())?;
    let cfg = MineConfig::new(LIVE_CONF).map_err(|e| e.to_string())?;
    let mut index = IncrementalVerticalIndex::from_view(reader.view(), LIVE_PERIOD, None);
    index.rederive_dirty(&cfg).map_err(|e| e.to_string())?;
    let (mut rederive, mut carried) = (Vec::new(), Vec::new());
    for seg in pool.iter().take(9) {
        index.append_segment(&seg.ids);
        let collector = Arc::new(Collector::new());
        let guard = ppm_observe::install(collector.clone());
        let t0 = Instant::now();
        let r = index.rederive_dirty(&cfg);
        rederive.push(t0.elapsed().as_nanos() as f64 / 1e3);
        drop(guard);
        r.map_err(|e| e.to_string())?;
        let g = collector.gauge_maxima();
        let get = |k: &str| g.get(k).copied().unwrap_or(0) as f64;
        let total = get("incremental.carried")
            + get("incremental.delta_counts")
            + get("incremental.full_counts");
        carried.push(get("incremental.carried") / total.max(1.0));
    }
    out.set("incremental.rederive_us", median(&rederive));
    out.set("incremental.carried_frac", median(&carried));
    Ok(())
}
