//! Continuous ingestion end to end, through the shipped `ppm` binary:
//! in-place appends to a version-3 store, the read-only v1/v2 fixtures,
//! `mine --follow` with an audit, and the daemon's append op, live index
//! and result cache. Each test works in a temp dir of its own, and every
//! daemon binds `--port 0`.

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::time::{Duration, Instant};

const PPM: &str = env!("CARGO_BIN_EXE_ppm");

/// How long a background `ppm` gets to print a line or to exit.
const PATIENCE: Duration = Duration::from_secs(60);

/// A test's temp dir, removed when the test ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ppm-ingestion-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create the temp dir");
        Scratch(dir)
    }

    /// `name` inside the dir, as the `&str` a `ppm` argument takes.
    fn file(&self, name: &str) -> String {
        self.0
            .join(name)
            .to_str()
            .expect("utf-8 temp path")
            .to_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn ppm(args: &[&str]) -> Output {
    Command::new(PPM).args(args).output().expect("run ppm")
}

/// Runs `ppm` and returns its stdout, failing the test on a non-zero
/// exit.
fn ppm_ok(args: &[&str]) -> String {
    let out = ppm(args);
    assert!(
        out.status.success(),
        "ppm {args:?}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The value of the `key:` line of `ppm info` output, leading padding
/// removed.
fn info_field<'a>(info: &'a str, key: &str) -> Option<&'a str> {
    info.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .map(str::trim_start)
}

/// The period-25 smoke store every test starts from, converted to a
/// fresh version-3 store `follow.ppmc` at commit seq 1.
fn follow_store(dir: &Scratch) -> String {
    let smoke = dir.file("smoke.ppmc");
    ppm_ok(&[
        "generate",
        "--length",
        "3000",
        "--period",
        "25",
        "--max-pat-length",
        "4",
        "--f1",
        "8",
        "--seed",
        "7",
        "--out",
        &smoke,
    ]);
    let follow = dir.file("follow.ppmc");
    ppm_ok(&["convert", "--input", &smoke, "--out", &follow]);
    follow
}

/// Polls `log` until it contains `needle` and returns its text.
fn wait_for(log: &str, needle: &str) -> String {
    let deadline = Instant::now() + PATIENCE;
    loop {
        let text = fs::read_to_string(log).unwrap_or_default();
        if text.contains(needle) {
            return text;
        }
        assert!(Instant::now() < deadline, "no {needle:?} in {log}:\n{text}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Waits for `child` to exit, killing it and failing the test if it
/// outlives [`PATIENCE`].
fn wait_exit(child: &mut Child) -> ExitStatus {
    let deadline = Instant::now() + PATIENCE;
    loop {
        if let Some(status) = child.try_wait().expect("poll the child") {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("ppm did not exit in {PATIENCE:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A `ppm serve` of one store on an ephemeral port, its stdout in a log
/// file. Killed on drop if a test fails before stopping it.
struct Daemon {
    child: Child,
    log: String,
    port: String,
}

impl Daemon {
    fn start(dir: &Scratch, store: &str) -> Self {
        let log = dir.file("serve.log");
        let child = Command::new(PPM)
            .args(["serve", "--stores", store, "--port", "0"])
            .stdout(File::create(&log).expect("create the serve log"))
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ppm serve");
        let mut daemon = Daemon {
            child,
            log,
            port: String::new(),
        };
        let banner = wait_for(&daemon.log, "listening on tcp ");
        let line = banner
            .lines()
            .find_map(|l| l.strip_prefix("listening on tcp "))
            .expect("banner line");
        let addr = line.split(' ').next().expect("banner address");
        daemon.port = addr.rsplit(':').next().expect("banner port").to_owned();
        daemon
    }

    /// `ppm query --port <port> <args>`'s stdout; a failed query fails
    /// the test.
    fn query(&self, args: &[&str]) -> String {
        let mut all = vec!["query", "--port", &self.port];
        all.extend_from_slice(args);
        ppm_ok(&all)
    }

    /// Sends SIGTERM and returns the exit status and the log.
    fn terminate(mut self) -> (ExitStatus, String) {
        let pid = self.child.id().to_string();
        let sent = Command::new("kill").args(["-TERM", &pid]).status();
        assert!(sent.expect("run kill").success(), "SIGTERM to {pid}");
        let status = wait_exit(&mut self.child);
        (
            status,
            fs::read_to_string(&self.log).expect("read the serve log"),
        )
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The committed v1/v2 fixtures stay readable but refuse appends: exit
/// 2 naming the version and `ppm convert`, the file byte-identical. Each
/// mines like its converted version-3 twin, which takes the same rows in
/// place.
#[test]
fn v1_v2_fixtures_refuse_appends_and_their_twins_take_them() {
    let dir = Scratch::new("fixtures");
    for v in [1, 2] {
        let fixture = format!(
            "{}/../timeseries/testdata/synthetic-p12-v{v}.ppmc",
            env!("CARGO_MANIFEST_DIR")
        );
        let (old, twin) = (
            dir.file(&format!("v{v}.ppmc")),
            dir.file(&format!("v{v}-twin.ppmc")),
        );
        fs::copy(&fixture, &old).expect("copy the fixture");
        ppm_ok(&["convert", "--input", &old, "--out", &twin]);
        let pattern_lines = |store: &str| -> String {
            let mine = ppm_ok(&[
                "mine",
                "--input",
                store,
                "--period",
                "12",
                "--min-conf",
                "0.6",
                "--limit",
                "100000",
            ]);
            mine.lines()
                .filter(|l| l.starts_with("  "))
                .map(|l| format!("{l}\n"))
                .collect()
        };
        let lines = pattern_lines(&old);
        assert!(!lines.is_empty(), "v{v} mines some patterns");
        assert_eq!(lines, pattern_lines(&twin), "v{v} and its twin");
        let info = ppm_ok(&["info", "--input", &old]);
        let version = format!(".ppmc version {v}");
        assert_eq!(info_field(&info, "format"), Some(version.as_str()));

        let refused = ppm(&[
            "append",
            "--input",
            &old,
            "--rows",
            "pat0;-;pat1",
            "--repeat",
            "4",
        ]);
        assert_eq!(refused.status.code(), Some(2), "append to v{v}");
        let said =
            String::from_utf8_lossy(&refused.stdout) + String::from_utf8_lossy(&refused.stderr);
        assert!(said.contains(&format!("version {v}")), "{said}");
        assert!(said.contains("ppm convert"), "{said}");
        assert_eq!(
            fs::read(&old).unwrap(),
            fs::read(&fixture).unwrap(),
            "v{v} untouched"
        );

        let appended = ppm_ok(&[
            "append",
            "--input",
            &twin,
            "--rows",
            "pat0;-;pat1",
            "--repeat",
            "4",
        ]);
        assert!(appended.contains("appended 12 instants"), "{appended}");
        let info = ppm_ok(&["info", "--input", &twin]);
        assert_eq!(info_field(&info, "format"), Some(".ppmc version 3"));
        assert_eq!(info_field(&info, "instants"), Some("612"));
        let mine = ppm_ok(&[
            "mine",
            "--input",
            &twin,
            "--period",
            "12",
            "--min-conf",
            "0.6",
        ]);
        assert!(
            mine.contains("frequent patterns (period 12, 51 segments"),
            "{mine}"
        );
    }
}

/// A version-3 append commits in place: no staging file, and the next
/// commit seq (a converted store starts at seq 1).
#[test]
fn a_v3_append_commits_in_place() {
    let dir = Scratch::new("in-place");
    let store = follow_store(&dir);
    let info = ppm_ok(&["info", "--input", &store]);
    assert_eq!(info_field(&info, "format"), Some(".ppmc version 3"));
    let appended = ppm_ok(&["append", "--input", &store, "--rows", "-", "--repeat", "25"]);
    assert!(appended.contains("appended 25 instants"), "{appended}");
    assert!(
        !Path::new(&format!("{store}.tmp")).exists(),
        "no staging file"
    );
    let info = ppm_ok(&["info", "--input", &store]);
    assert_eq!(info_field(&info, "instants"), Some("3025"));
    assert_eq!(info_field(&info, "commit"), Some("seq 2 (slot 0)"));
}

/// A follow loop tails the store in the background: one whole appended
/// segment surfaces as an audited incremental update.
#[test]
fn follow_reports_an_appended_segment_as_an_audited_update() {
    let dir = Scratch::new("follow");
    let store = follow_store(&dir);
    let log = dir.file("follow.log");
    let mut follow = Command::new(PPM)
        .args([
            "mine",
            "--input",
            &store,
            "--period",
            "25",
            "--min-conf",
            "0.6",
            "--follow",
            "--follow-poll-ms",
            "50",
            "--follow-max-updates",
            "1",
            "--audit",
            "full",
        ])
        .stdout(File::create(&log).expect("create the follow log"))
        .spawn()
        .expect("spawn ppm mine --follow");
    // The store is open once this line is out: every later append is an
    // update.
    wait_for(&log, "following ");
    let appended = ppm_ok(&["append", "--input", &store, "--rows", "-", "--repeat", "25"]);
    assert!(appended.contains("appended 25 instants"), "{appended}");
    let status = wait_exit(&mut follow);
    let text = fs::read_to_string(&log).expect("read the follow log");
    assert!(status.success(), "follow exited {status}:\n{text}");
    assert!(text.contains("update 1: +1 segments"), "{text}");
    assert!(text.contains("audit: clean"), "{text}");
}

/// The daemon's append op grows the resident store in place (no query
/// held it, so no copy) and feeds the live index: the next incremental
/// query is byte-identical to a cold mine of the grown file.
#[test]
fn daemon_append_grows_in_place_and_the_live_index_follows() {
    let dir = Scratch::new("serve-append");
    let store = follow_store(&dir);
    let daemon = Daemon::start(&dir, &store);
    // The incremental answer and a cold vertical mine of the file.
    let live_and_cold = |conf: &str| {
        let shape = ["--period", "25", "--min-conf", conf, "--engine"];
        let mut live = vec!["--store", "follow"];
        live.extend(shape.iter().chain(&["incremental"]));
        let mut cold = vec!["mine", "--input", &store];
        cold.extend(shape.iter().chain(&["vertical"]));
        (daemon.query(&live), ppm_ok(&cold))
    };
    let append = |rows: &str| {
        let appended = daemon.query(&["--op", "append", "--store", "follow", "--rows", rows]);
        assert!(appended.contains("appended 25 instants"), "{appended}");
    };
    live_and_cold("0.6");
    append(&["-"; 25].join(";"));
    let metrics = daemon.query(&["--op", "metrics"]);
    assert!(
        metrics
            .lines()
            .any(|l| l == "ppm_serve_append_grow_copies_total 0"),
        "{metrics}"
    );
    let (live, cold) = live_and_cold("0.6");
    assert_eq!(live, cold);

    // One segment of the planted pattern takes the store from 121 to 122
    // segments; `min_count` stays 61 at 0.5, so only the fed index's
    // dirty letters tell the append op to drop the cached answer.
    live_and_cold("0.5");
    let mut planted = ["-"; 25];
    for (offset, feature) in [(14, "pat2"), (18, "pat0"), (21, "pat1"), (23, "pat3")] {
        planted[offset] = feature;
    }
    append(&planted.join(";"));
    let (live, cold) = live_and_cold("0.5");
    assert_eq!(live, cold);
}

/// The cache keys answers, not engines: a hit-set answer serves a
/// vertical query as an exact hit, and Apriori answers bypass the cache.
/// Health reads ready, and SIGTERM stops the daemon cleanly.
#[test]
fn daemon_cache_labels_health_and_sigterm() {
    let dir = Scratch::new("serve-cache");
    let store = follow_store(&dir);
    let daemon = Daemon::start(&dir, &store);
    let shape = ["--store", "follow", "--period", "25", "--min-conf", "0.6"];
    let ask = |engine: &str| {
        let mut args = shape.to_vec();
        args.extend(["--engine", engine, "--show-cached"]);
        daemon.query(&args)
    };
    ask("hitset");
    let shared = ask("vertical");
    assert!(shared.contains("cached: hit"), "{shared}");
    for _ in 0..2 {
        let apriori = ask("apriori");
        assert!(apriori.contains("cached: bypass"), "{apriori}");
    }
    let health = daemon.query(&["--op", "health"]);
    assert!(health.contains("ready: true"), "{health}");
    let (status, log) = daemon.terminate();
    assert!(status.success(), "serve exited {status}:\n{log}");
    assert!(log.contains("daemon stopped cleanly"), "{log}");
}
