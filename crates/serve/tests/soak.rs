//! Fault-injected soak: concurrent clients, guard trips, contained
//! panics, overload shedding, graceful drain, and warm-cache restart —
//! all against a real in-process daemon on a loopback socket.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::thread;
use std::time::Duration;

use ppm_observe::Json;
use ppm_serve::protocol::{read_frame, write_frame, VERSION};
use ppm_serve::server::{Bind, BoundAddr, ServeConfig, Server};
use ppm_serve::StoreRegistry;
use ppm_timeseries::columnar::{write_columnar, ColumnarAppender, ColumnarReader};
use ppm_timeseries::{FeatureCatalog, SeriesBuilder};

/// The CLI testsuite's sample series: period 3, alpha always at offset 0,
/// beta at offset 1 in two thirds of segments.
fn sample_store(tag: &str) -> PathBuf {
    let mut catalog = FeatureCatalog::new();
    let a = catalog.intern("alpha");
    let b = catalog.intern("beta");
    let mut builder = SeriesBuilder::new();
    for j in 0..30 {
        builder.push_instant([a]);
        builder.push_instant(if j % 3 != 0 { vec![b] } else { vec![] });
        builder.push_instant([]);
    }
    let path = std::env::temp_dir().join(format!("ppm-soak-{}-{tag}.ppmc", std::process::id()));
    write_columnar(&path, &builder.finish(), &catalog).unwrap();
    path
}

fn serve_config(bind: Bind) -> ServeConfig {
    let mut config = ServeConfig::new(bind);
    config.test_faults = true;
    config
}

/// Starts a daemon on a fresh loopback port; returns (address, run-thread,
/// stop-handle).
fn start(
    store: &PathBuf,
    tweak: impl FnOnce(&mut ServeConfig),
) -> (
    std::net::SocketAddr,
    thread::JoinHandle<()>,
    std::sync::Arc<std::sync::atomic::AtomicBool>,
) {
    let registry = StoreRegistry::open(&[store]).unwrap();
    let mut config = serve_config(Bind::Tcp("127.0.0.1:0".into()));
    tweak(&mut config);
    let server = Server::bind(registry, config).unwrap();
    let addr = match server.local_addr() {
        BoundAddr::Tcp(a) => *a,
        BoundAddr::Unix(_) => unreachable!("bound tcp"),
    };
    let stop = server.stop_handle();
    let handle = thread::spawn(move || server.run().unwrap());
    (addr, handle, stop)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn mine_req(store: &str, period: u64, conf: f64, engine: &str) -> Json {
    obj(vec![
        ("v", Json::from_u64(VERSION)),
        ("op", Json::Str("mine".into())),
        ("store", Json::Str(store.into())),
        ("period", Json::from_u64(period)),
        ("min_conf", Json::Num(conf)),
        ("engine", Json::Str(engine.into())),
        ("limit", Json::from_u64(100)),
    ])
}

fn request(addr: std::net::SocketAddr, req: &Json) -> Json {
    let mut conn = TcpStream::connect(addr).unwrap();
    write_frame(&mut conn, req).unwrap();
    read_frame(&mut conn).unwrap().expect("a response frame")
}

/// The daemon's rows for a clean mine must be bit-identical to mining the
/// store directly (CLI report order: letters desc, then count desc).
fn direct_rows(store: &PathBuf, period: usize, conf: f64, engine: &str) -> Vec<(String, u64)> {
    let reader = ColumnarReader::open(store).unwrap();
    let config = ppm_core::MineConfig::new(conf).unwrap();
    let result = match engine {
        "apriori" => ppm_core::apriori::mine_view(reader.view(), period, &config),
        "vertical" => ppm_core::vertical::mine_vertical_view(reader.view(), period, &config),
        _ => ppm_core::hitset::mine_view(reader.view(), period, &config),
    }
    .unwrap();
    let mut rows: Vec<_> = result.frequent.iter().collect();
    rows.sort_by(|a, b| {
        b.letters
            .len()
            .cmp(&a.letters.len())
            .then(b.count.cmp(&a.count))
    });
    rows.into_iter()
        .map(|fp| {
            (
                ppm_core::Pattern::from_letter_set(&result.alphabet, &fp.letters)
                    .display(reader.catalog())
                    .to_string(),
                fp.count,
            )
        })
        .collect()
}

fn response_rows(resp: &Json) -> Vec<(String, u64)> {
    resp.get("rows")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|row| {
            let cells = row.as_arr().unwrap();
            (
                cells[0].as_str().unwrap().to_owned(),
                cells[2].as_u64().unwrap(),
            )
        })
        .collect()
}

fn shutdown_req() -> Json {
    obj(vec![
        ("v", Json::from_u64(VERSION)),
        ("op", Json::Str("shutdown".into())),
    ])
}

#[test]
fn concurrent_clients_get_bit_identical_answers() {
    let store = sample_store("concurrent");
    let name = store.file_stem().unwrap().to_str().unwrap().to_owned();
    let (addr, handle, _stop) = start(&store, |c| c.workers = 4);

    // 9 concurrent clients: 3 engines x 3 periods, every one checked
    // against a direct mine of the same store.
    let mut clients = Vec::new();
    for engine in ["hitset", "apriori", "vertical"] {
        for period in [2u64, 3, 5] {
            let store = store.clone();
            let name = name.clone();
            clients.push(thread::spawn(move || {
                let resp = request(addr, &mine_req(&name, period, 0.5, engine));
                assert_eq!(
                    resp.get("type").unwrap().as_str(),
                    Some("result"),
                    "{engine}/{period}"
                );
                assert_eq!(
                    response_rows(&resp),
                    direct_rows(&store, period as usize, 0.5, engine),
                    "{engine} period {period} must be bit-identical to direct mining"
                );
            }));
        }
    }
    for c in clients {
        c.join().unwrap();
    }

    request(addr, &shutdown_req());
    handle.join().unwrap();
    std::fs::remove_file(store).ok();
}

#[test]
fn guard_trips_and_panics_are_contained_per_query() {
    let store = sample_store("faults");
    let name = store.file_stem().unwrap().to_str().unwrap().to_owned();
    let (addr, handle, _stop) = start(&store, |c| c.workers = 2);

    // A zero deadline trips the guard: typed code 3 with partial stats.
    let mut req = mine_req(&name, 3, 0.6, "hitset");
    if let Json::Obj(fields) = &mut req {
        fields.push(("deadline_ms".into(), Json::from_u64(0)));
    }
    let resp = request(addr, &req);
    assert_eq!(resp.get("type").unwrap().as_str(), Some("error"));
    assert_eq!(resp.get("code").unwrap().as_u64(), Some(3));
    assert!(resp.get("partial_stats").is_some(), "{resp:?}");

    // An injected panic is contained to an error response...
    let resp = request(
        addr,
        &obj(vec![
            ("v", Json::from_u64(VERSION)),
            ("op", Json::Str("panic".into())),
        ]),
    );
    assert_eq!(resp.get("type").unwrap().as_str(), Some("error"));
    assert_eq!(resp.get("code").unwrap().as_u64(), Some(1));
    let message = resp.get("message").unwrap().as_str().unwrap();
    assert!(message.contains("panicked"), "{message}");

    // ...and the daemon keeps serving correct answers afterwards.
    let resp = request(addr, &mine_req(&name, 3, 0.6, "hitset"));
    assert_eq!(resp.get("type").unwrap().as_str(), Some("result"));
    assert_eq!(response_rows(&resp), direct_rows(&store, 3, 0.6, "hitset"));

    // The stats op counted the contained panic.
    let resp = request(
        addr,
        &obj(vec![
            ("v", Json::from_u64(VERSION)),
            ("op", Json::Str("stats".into())),
        ]),
    );
    assert_eq!(resp.get("panics").unwrap().as_u64(), Some(1));

    request(addr, &shutdown_req());
    handle.join().unwrap();
    std::fs::remove_file(store).ok();
}

#[test]
fn overload_sheds_with_an_explicit_retry_hint() {
    let store = sample_store("overload");
    let (addr, handle, stop) = start(&store, |c| {
        c.workers = 1;
        c.queue_cap = 1;
        c.retry_after_ms = 37;
    });

    // Occupy the single worker with a connection that never sends a frame
    // (it blocks in the read until its timeout), then flood the admission
    // queue; everything past the one queued slot must be shed.
    let blocker = TcpStream::connect(addr).unwrap();
    thread::sleep(Duration::from_millis(100));
    let mut sheds = 0;
    let mut conns = Vec::new();
    for _ in 0..12 {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        match read_frame(&mut conn) {
            Ok(Some(resp)) if resp.get("type").unwrap().as_str() == Some("overload") => {
                assert_eq!(resp.get("retry_after_ms").unwrap().as_u64(), Some(37));
                sheds += 1;
            }
            // Admitted connections see no frame until they send a request;
            // the read times out. Keep them open so the queue stays full.
            _ => conns.push(conn),
        }
    }
    assert!(sheds >= 10, "expected most of 12 floods shed, got {sheds}");

    drop(blocker);
    drop(conns);
    stop.store(true, Ordering::SeqCst);
    handle.join().unwrap();
    std::fs::remove_file(store).ok();
}

#[test]
fn append_feeds_live_indexes_and_migrates_the_cache_selectively() {
    let path = sample_store("append");
    let (addr, handle, _stop) = start(&path, |_| {});
    let name = path.file_stem().unwrap().to_str().unwrap().to_owned();

    let append_req = |rows: Json| {
        obj(vec![
            ("v", Json::from_u64(VERSION)),
            ("op", Json::Str("append".into())),
            ("store", Json::Str(name.clone())),
            ("rows", rows),
        ])
    };

    // Warm two entries: one at a confidence whose min_count survives one
    // more segment (0.45 over 30 segments: ceil(13.5) = ceil(13.95) = 14)
    // and one whose does not (0.5: 15 -> 16).
    let resp = request(addr, &mine_req(&name, 3, 0.45, "incremental"));
    assert_eq!(resp.get("cached").and_then(Json::as_str), Some("miss"));
    assert_eq!(
        response_rows(&resp),
        direct_rows(&path, 3, 0.45, "vertical")
    );
    let resp = request(addr, &mine_req(&name, 3, 0.5, "hitset"));
    assert_eq!(resp.get("cached").and_then(Json::as_str), Some("miss"));

    // An all-empty segment: no letter is touched and min_count holds at
    // 14, so the 0.45 entry is provably still exact and survives the
    // fingerprint change; the 0.5 entry's threshold moved and is dropped.
    let resp = request(
        addr,
        &append_req(Json::Arr(vec![
            Json::Arr(vec![]),
            Json::Arr(vec![]),
            Json::Arr(vec![]),
        ])),
    );
    assert_eq!(
        resp.get("type").and_then(Json::as_str),
        Some("result"),
        "{resp:?}"
    );
    assert_eq!(resp.get("appended").and_then(Json::as_u64), Some(3));
    assert_eq!(resp.get("instants").and_then(Json::as_u64), Some(93));
    assert_eq!(resp.get("cache_kept").and_then(Json::as_u64), Some(1));
    assert_eq!(resp.get("cache_dropped").and_then(Json::as_u64), Some(1));
    assert_eq!(resp.get("indexes_fed").and_then(Json::as_u64), Some(1));

    // The retained entry answers as an exact hit under the *new*
    // fingerprint, already reporting the grown segment count — and stays
    // bit-identical to a cold mine of the grown file.
    let resp = request(addr, &mine_req(&name, 3, 0.45, "incremental"));
    assert_eq!(resp.get("cached").and_then(Json::as_str), Some("hit"));
    assert_eq!(resp.get("segments").and_then(Json::as_u64), Some(31));
    assert_eq!(
        response_rows(&resp),
        direct_rows(&path, 3, 0.45, "vertical")
    );

    // The dropped entry re-mines and matches the grown file too.
    let resp = request(addr, &mine_req(&name, 3, 0.5, "hitset"));
    assert_eq!(resp.get("cached").and_then(Json::as_str), Some("miss"));
    assert_eq!(response_rows(&resp), direct_rows(&path, 3, 0.5, "hitset"));

    // A content-bearing segment: the incremental engine re-derives from
    // its live, already-fed index — still bit-identical to cold.
    let resp = request(
        addr,
        &append_req(Json::Arr(vec![
            Json::Arr(vec![Json::Str("alpha".into())]),
            Json::Arr(vec![Json::Str("beta".into())]),
            Json::Arr(vec![]),
        ])),
    );
    assert_eq!(resp.get("instants").and_then(Json::as_u64), Some(96));
    let resp = request(addr, &mine_req(&name, 3, 0.45, "incremental"));
    assert_eq!(resp.get("cached").and_then(Json::as_str), Some("miss"));
    assert_eq!(resp.get("segments").and_then(Json::as_u64), Some(32));
    assert_eq!(
        response_rows(&resp),
        direct_rows(&path, 3, 0.45, "vertical")
    );

    // Unknown features are rejected before anything is staged.
    let resp = request(
        addr,
        &append_req(Json::Arr(vec![Json::Arr(vec![Json::Str("gamma".into())])])),
    );
    assert_eq!(resp.get("type").and_then(Json::as_str), Some("error"));
    assert!(resp
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("unknown feature"));

    request(addr, &shutdown_req());
    handle.join().unwrap();
    std::fs::remove_file(path).ok();
}

/// Regression test for the append/mine race: `op_append` must judge
/// cache entries while the live indexes still carry the append's dirty
/// state. If a concurrent incremental mine could slip between the
/// reader swap and the judgment, its `rederive_dirty` would clean the
/// index and the judgment would keep entries whose counts changed —
/// serving stale rows under the new fingerprint. Three racer threads
/// hammer incremental mines while the main thread appends
/// count-changing segments and checks every post-append answer against
/// a cold mine of the grown file.
#[test]
fn appends_racing_incremental_mines_never_serve_stale_counts() {
    let store = sample_store("appendrace");
    let name = store.file_stem().unwrap().to_str().unwrap().to_owned();
    let (addr, handle, _stop) = start(&store, |c| c.workers = 4);

    let racing = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
    let racers: Vec<_> = (0..3)
        .map(|_| {
            let racing = racing.clone();
            let name = name.clone();
            thread::spawn(move || {
                while racing.load(Ordering::Relaxed) {
                    let resp = request(addr, &mine_req(&name, 3, 0.45, "incremental"));
                    assert_eq!(
                        resp.get("type").and_then(Json::as_str),
                        Some("result"),
                        "{resp:?}"
                    );
                }
            })
        })
        .collect();

    for _ in 0..25 {
        // A full period-3 segment bearing alpha and beta: both letters'
        // counts move, so any cache entry kept across this append is
        // provably stale.
        let resp = request(
            addr,
            &obj(vec![
                ("v", Json::from_u64(VERSION)),
                ("op", Json::Str("append".into())),
                ("store", Json::Str(name.clone())),
                (
                    "rows",
                    Json::Arr(vec![
                        Json::Arr(vec![Json::Str("alpha".into())]),
                        Json::Arr(vec![Json::Str("beta".into())]),
                        Json::Arr(vec![]),
                    ]),
                ),
            ]),
        );
        assert_eq!(
            resp.get("type").and_then(Json::as_str),
            Some("result"),
            "{resp:?}"
        );
        // Only this thread appends, so the file is stable here: the
        // daemon's answer must be bit-identical to a cold mine of it.
        let resp = request(addr, &mine_req(&name, 3, 0.45, "incremental"));
        assert_eq!(
            response_rows(&resp),
            direct_rows(&store, 3, 0.45, "vertical"),
            "stale cache entry served after append (cached: {:?})",
            resp.get("cached")
        );
    }

    racing.store(false, Ordering::Relaxed);
    for r in racers {
        r.join().unwrap();
    }
    request(addr, &shutdown_req());
    handle.join().unwrap();
    std::fs::remove_file(store).ok();
}

fn append_req(store: &str, rows: &[&[&str]]) -> Json {
    let rows = rows
        .iter()
        .map(|inst| Json::Arr(inst.iter().map(|n| Json::Str((*n).into())).collect()))
        .collect();
    obj(vec![
        ("v", Json::from_u64(VERSION)),
        ("op", Json::Str("append".into())),
        ("store", Json::Str(store.into())),
        ("rows", Json::Arr(rows)),
    ])
}

/// The daemon's `info` view of its one store: (instants, fingerprint).
fn resident_info(addr: std::net::SocketAddr) -> (u64, String) {
    let resp = request(
        addr,
        &obj(vec![
            ("v", Json::from_u64(VERSION)),
            ("op", Json::Str("info".into())),
        ]),
    );
    let store = &resp.get("stores").and_then(Json::as_arr).unwrap()[0];
    (
        store.get("instants").and_then(Json::as_u64).unwrap(),
        store
            .get("fingerprint")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned(),
    )
}

/// Each daemon append after the first is built on the resident load the
/// previous one grew, resuming its checksum midstate. A wrong midstate
/// would publish a file whose trailer fails a fresh open; a wrong
/// resident view would show in the answers or the recheck.
#[test]
fn chained_daemon_appends_keep_the_resident_load_equal_to_the_file() {
    let path = sample_store("chain");
    let name = path.file_stem().unwrap().to_str().unwrap().to_owned();
    let (addr, handle, _stop) = start(&path, |_| {});
    let rows: [&[&str]; 4] = [&["alpha"], &["beta"], &[], &["alpha", "beta"]];
    for k in 0..25 {
        let resp = request(addr, &append_req(&name, &rows[..1 + k % 4]));
        assert_eq!(
            resp.get("type").and_then(Json::as_str),
            Some("result"),
            "append {k}: {resp:?}"
        );
    }
    let reopened = ColumnarReader::open(&path).expect("published trailer verifies");
    assert_eq!(
        resident_info(addr),
        (
            reopened.len() as u64,
            format!("{:016x}", reopened.fingerprint())
        )
    );
    assert_eq!(reopened.len(), 90 + 25 / 4 * 10 + 1);
    // The resident view: uncached mines over it equal cold mines of the
    // file, and a recheck finds the file byte-identical to it.
    for (period, engine) in [(3, "vertical"), (4, "hitset"), (5, "apriori")] {
        let mut req = mine_req(&name, period, 0.3, engine);
        if let Json::Obj(fields) = &mut req {
            fields.push(("no_cache".to_owned(), Json::Bool(true)));
        }
        let resp = request(addr, &req);
        assert_eq!(
            response_rows(&resp),
            direct_rows(&path, period as usize, 0.3, engine),
            "period {period}"
        );
    }
    let resp = request(
        addr,
        &obj(vec![
            ("v", Json::from_u64(VERSION)),
            ("op", Json::Str("health".into())),
            ("recheck", Json::Bool(true)),
        ]),
    );
    assert_eq!(resp.get("degraded"), Some(&Json::Bool(false)), "{resp:?}");
    assert_eq!(
        resident_info(addr).1,
        format!("{:016x}", reopened.fingerprint())
    );
    request(addr, &shutdown_req());
    handle.join().unwrap();
    std::fs::remove_file(path).ok();
}

/// A daemon append whose file is no longer the resident load is refused
/// and publishes nothing: an external append that landed after the
/// daemon loaded the store, and a bitmap word flipped on disk (which must
/// neither be healed nor re-stamped under a fresh checksum).
#[test]
fn daemon_append_refuses_a_file_that_is_not_its_resident_load() {
    let alpha = |path: &PathBuf| {
        ColumnarReader::open(path)
            .unwrap()
            .catalog()
            .get("alpha")
            .unwrap()
    };
    let external = sample_store("external");
    let corrupt = sample_store("flipped");
    // Offset of the first bitmap word: header (28 bytes) plus the two
    // catalog entries.
    let word0 = 28 + (4 + "alpha".len()) + (4 + "beta".len());

    for (path, damage) in [(&external, "external append"), (&corrupt, "flipped word")] {
        let name = path.file_stem().unwrap().to_str().unwrap().to_owned();
        let (addr, handle, _stop) = start(path, |_| {});
        if damage == "external append" {
            let a = alpha(path);
            let mut app = ColumnarAppender::open(path).unwrap();
            app.append_instant(&[a]).unwrap();
            app.finish().unwrap();
        } else {
            let mut bytes = std::fs::read(path).unwrap();
            bytes[word0] ^= 0x01;
            std::fs::write(path, &bytes).unwrap();
        }
        let on_disk = std::fs::read(path).unwrap();
        let resp = request(addr, &append_req(&name, &[&["beta"]]));
        assert_eq!(
            resp.get("type").and_then(Json::as_str),
            Some("error"),
            "{damage}: {resp:?}"
        );
        let msg = resp.get("message").and_then(Json::as_str).unwrap();
        let want = if damage == "external append" {
            "append publish failed"
        } else {
            "checksum mismatch"
        };
        assert!(msg.contains(want), "{damage}: {msg}");
        assert_eq!(
            std::fs::read(path).unwrap(),
            on_disk,
            "{damage}: file left as it was"
        );
        assert_eq!(resident_info(addr).0, 90, "{damage}: resident unchanged");
        request(addr, &shutdown_req());
        handle.join().unwrap();
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn cache_survives_restart_and_derives_tighter_confidences() {
    let store = sample_store("warmcache");
    let name = store.file_stem().unwrap().to_str().unwrap().to_owned();
    let cache = std::env::temp_dir().join(format!("ppm-soak-cache-{}.jsonl", std::process::id()));
    std::fs::remove_file(&cache).ok();

    // Lifecycle 1: cold mine, then graceful shutdown flushes the cache.
    let cache_path = cache.clone();
    let (addr, handle, _stop) = start(&store, move |c| c.cache_path = Some(cache_path));
    let resp = request(addr, &mine_req(&name, 3, 0.5, "hitset"));
    assert_eq!(resp.get("cached").unwrap().as_str(), Some("miss"));
    let cold_rows = response_rows(&resp);
    request(addr, &shutdown_req());
    handle.join().unwrap();
    assert!(cache.exists(), "graceful shutdown must flush the cache");

    // Lifecycle 2 (as after a restart): the same query is a warm hit with
    // identical rows, and a *tighter* confidence is answered by
    // anti-monotone filtering without re-mining.
    let cache_path = cache.clone();
    let (addr, handle, _stop) = start(&store, move |c| c.cache_path = Some(cache_path));
    let resp = request(addr, &mine_req(&name, 3, 0.5, "hitset"));
    assert_eq!(resp.get("cached").unwrap().as_str(), Some("hit"));
    assert_eq!(response_rows(&resp), cold_rows);

    let resp = request(addr, &mine_req(&name, 3, 0.9, "hitset"));
    assert_eq!(resp.get("cached").unwrap().as_str(), Some("derived"));
    assert_eq!(
        response_rows(&resp),
        direct_rows(&store, 3, 0.9, "hitset"),
        "derived rows must equal a direct mine at the tighter confidence"
    );

    request(addr, &shutdown_req());
    handle.join().unwrap();
    std::fs::remove_file(store).ok();
    std::fs::remove_file(cache).ok();
}

#[test]
fn stats_and_metrics_expose_real_latency_histograms() {
    let store = sample_store("latency");
    let name = store.file_stem().unwrap().to_str().unwrap().to_owned();
    let pid = std::process::id();
    let metrics_path = std::env::temp_dir().join(format!("ppm-soak-metrics-{pid}.prom"));
    let access_path = std::env::temp_dir().join(format!("ppm-soak-access-{pid}.jsonl"));
    std::fs::remove_file(&metrics_path).ok();
    std::fs::remove_file(&access_path).ok();
    let (m, a) = (metrics_path.clone(), access_path.clone());
    let (addr, handle, _stop) = start(&store, move |c| {
        c.workers = 2;
        c.metrics_out = Some(m);
        c.access_log = Some(a);
        c.slow_ms = Some(0); // everything is "slow": every line carries spans
    });

    for period in [2u64, 3, 5] {
        let resp = request(addr, &mine_req(&name, period, 0.5, "vertical"));
        assert_eq!(resp.get("type").unwrap().as_str(), Some("result"));
    }

    // The stats op reports the histograms the daemon actually recorded.
    let resp = request(
        addr,
        &obj(vec![
            ("v", Json::from_u64(VERSION)),
            ("op", Json::Str("stats".into())),
        ]),
    );
    let latency = resp.get("latency").expect("stats carries latency");
    for hist in ["queue_wait", "service"] {
        let h = latency.get(hist).unwrap();
        assert!(
            h.get("count").unwrap().as_u64().unwrap() >= 3,
            "{hist}: {h:?}"
        );
        let q = |k: &str| h.get(k).unwrap().as_u64().unwrap();
        assert!(q("p50_us") <= q("p95_us"), "{hist}: {h:?}");
        assert!(q("p95_us") <= q("p99_us"), "{hist}: {h:?}");
        assert!(q("p99_us") <= q("max_us"), "{hist}: {h:?}");
    }
    // Vertical mines ran, so the scan1 phase histogram has samples too.
    assert!(
        latency
            .get("scan1")
            .unwrap()
            .get("count")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 3,
        "{latency:?}"
    );

    // The metrics op returns the same state as Prometheus exposition.
    let resp = request(
        addr,
        &obj(vec![
            ("v", Json::from_u64(VERSION)),
            ("op", Json::Str("metrics".into())),
        ]),
    );
    let text = resp
        .get("exposition")
        .and_then(Json::as_str)
        .expect("exposition text");
    for needle in [
        "ppm_serve_served_total",
        "ppm_serve_queue_wait_us_bucket{le=\"",
        "ppm_serve_queue_wait_us_count",
        "ppm_serve_service_us_p50",
        "ppm_serve_service_us_p95",
        "ppm_serve_service_us_p99",
        "ppm_serve_phase_scan1_us_count",
        "ppm_serve_queue_depth",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }

    request(addr, &shutdown_req());
    handle.join().unwrap();

    // Shutdown published a final exposition file atomically.
    let published = std::fs::read_to_string(&metrics_path).unwrap();
    assert!(published.contains("ppm_serve_served_total"), "{published}");

    // Every access-log line is parseable JSON with the fixed fields; the
    // slow-ms 0 threshold forces span detail onto each mine line.
    let log = std::fs::read_to_string(&access_path).unwrap();
    let mut mines = 0;
    for line in log.lines() {
        let rec = Json::parse(line).expect("access line parses");
        assert!(rec.get("op").is_some(), "{line}");
        assert!(rec.get("outcome").is_some(), "{line}");
        assert!(rec.get("service_us").is_some(), "{line}");
        if rec.get("op").unwrap().as_str() == Some("mine") {
            mines += 1;
            assert_eq!(rec.get("outcome").unwrap().as_str(), Some("ok"), "{line}");
            assert_eq!(rec.get("slow"), Some(&Json::Bool(true)), "{line}");
            assert!(rec.get("spans").is_some(), "{line}");
        }
    }
    assert_eq!(mines, 3, "{log}");

    std::fs::remove_file(store).ok();
    std::fs::remove_file(metrics_path).ok();
    std::fs::remove_file(access_path).ok();
}

#[test]
fn flight_dumps_are_parseable_json_lines() {
    let store = sample_store("flight");
    let name = store.file_stem().unwrap().to_str().unwrap().to_owned();
    let flight = std::env::temp_dir().join(format!("ppm-soak-flight-{}.jsonl", std::process::id()));
    std::fs::remove_file(&flight).ok();
    let f = flight.clone();
    let (addr, handle, _stop) = start(&store, move |c| c.flight_path = Some(f));

    // Real traffic first, so the rings hold request events.
    let resp = request(addr, &mine_req(&name, 3, 0.5, "hitset"));
    assert_eq!(resp.get("type").unwrap().as_str(), Some("result"));

    // A contained panic dumps the recorder before the error response is
    // written, so the file is complete once the client sees the error.
    let resp = request(
        addr,
        &obj(vec![
            ("v", Json::from_u64(VERSION)),
            ("op", Json::Str("panic".into())),
        ]),
    );
    assert_eq!(resp.get("type").unwrap().as_str(), Some("error"));
    let dump = std::fs::read_to_string(&flight).unwrap();
    let header = Json::parse(dump.lines().next().unwrap()).unwrap();
    assert_eq!(header.get("kind").unwrap().as_str(), Some("flight_dump"));
    assert_eq!(header.get("reason").unwrap().as_str(), Some("panic"));
    let events: Vec<Json> = dump
        .lines()
        .skip(1)
        .map(|l| Json::parse(l).expect("event line parses"))
        .collect();
    assert!(!events.is_empty(), "{dump}");
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("serve.request")),
        "{dump}"
    );

    // The SIGUSR1 path, driven through the programmatic hook the signal
    // handler uses: the accept loop checks the flag at least once per
    // accept tick, traffic or not. The flag is process-global, so a
    // concurrently running soak daemon may steal one request — re-arm
    // until OUR daemon's dump lands.
    let mut reason = String::new();
    for _ in 0..200 {
        ppm_serve::signal::request_flight_dump();
        thread::sleep(Duration::from_millis(10));
        if let Ok(dump) = std::fs::read_to_string(&flight) {
            if let Some(first) = dump.lines().next() {
                let header = Json::parse(first).unwrap();
                if header.get("reason").and_then(Json::as_str) == Some("usr1") {
                    reason = "usr1".to_owned();
                    for line in dump.lines().skip(1) {
                        Json::parse(line).expect("usr1 event line parses");
                    }
                    break;
                }
            }
        }
    }
    assert_eq!(reason, "usr1", "accept loop never served the dump request");

    request(addr, &shutdown_req());
    handle.join().unwrap();
    std::fs::remove_file(store).ok();
    std::fs::remove_file(flight).ok();
}

/// A daemon that never sees a connection still stops within a second of
/// its stop handle, on either transport: the accept tick, not traffic,
/// bounds how long shutdown takes to be noticed.
#[test]
fn an_idle_daemon_stops_promptly_on_tcp_and_unix() {
    let store = sample_store("idle");
    let sock = std::env::temp_dir().join(format!("ppm-soak-idle-{}.sock", std::process::id()));
    for bind in [Bind::Tcp("127.0.0.1:0".into()), Bind::Unix(sock.clone())] {
        let registry = StoreRegistry::open(&[&store]).unwrap();
        let server = Server::bind(registry, serve_config(bind)).unwrap();
        let stop = server.stop_handle();
        let (done, finished) = std::sync::mpsc::channel();
        thread::spawn(move || done.send(server.run().is_ok()).unwrap());
        thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::SeqCst);
        assert_eq!(finished.recv_timeout(Duration::from_secs(1)), Ok(true));
    }
    assert!(!sock.exists(), "the socket file is removed on stop");
    std::fs::remove_file(store).ok();
}

#[test]
fn quarantine_path_reports_injected_garbage() {
    let store = sample_store("quarantine");
    let name = store.file_stem().unwrap().to_str().unwrap().to_owned();
    let (addr, handle, _stop) = start(&store, |_| {});

    let mut req = mine_req(&name, 3, 0.6, "hitset");
    if let Json::Obj(fields) = &mut req {
        fields.push(("quarantine".into(), Json::Bool(true)));
        fields.push(("inject_garbage".into(), Json::from_u64(1)));
    }
    let resp = request(addr, &req);
    assert_eq!(
        resp.get("type").unwrap().as_str(),
        Some("result"),
        "{resp:?}"
    );
    assert_eq!(resp.get("quarantined").unwrap().as_u64(), Some(1));
    assert_eq!(resp.get("cached").unwrap().as_str(), Some("bypass"));

    request(addr, &shutdown_req());
    handle.join().unwrap();
    std::fs::remove_file(store).ok();
}
