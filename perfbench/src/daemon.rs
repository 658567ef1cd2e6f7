//! The `ppm serve` child process and the raw wire calls the benchmark
//! makes to it: stats snapshots and round-trip probes.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ppm_observe::Json;
use ppm_serve::protocol::{read_frame, write_frame};

/// A running daemon: this executable re-entered as `ppm serve` (see
/// `main`), so the code under test is exactly the CLI's serve command.
/// Dropping it kills and reaps the process.
pub struct Daemon {
    child: Option<Child>,
    drain: Option<JoinHandle<()>>,
    /// `host:port` parsed from the daemon's banner.
    pub addr: String,
}

impl Daemon {
    /// Starts `ppm serve <args>` and waits for its `listening on` banner.
    /// The daemon's stderr goes to `log`.
    pub fn start(args: &[String], log: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        let stderr = File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let mut child = Command::new(exe)
            .arg("ppm")
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut daemon = Daemon {
            child: Some(child),
            drain: None,
            addr: String::new(),
        };
        let mut lines = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            match lines.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let why = std::fs::read_to_string(log).unwrap_or_default();
                    return Err(format!("daemon exited before listening: {}", why.trim()));
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.strip_prefix("listening on tcp ") {
                daemon.addr = rest.split_whitespace().next().unwrap_or("").to_owned();
                break;
            }
        }
        // Keep draining stdout so the daemon never blocks on a full pipe
        // (it prints a last line when it stops).
        daemon.drain = Some(std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(lines.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        }));
        Ok(daemon)
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        peak_rss_mb(&format!("/proc/{pid}/status"))
    }

    /// Asks the daemon to shut down and waits for it; kills it if it has
    /// not exited within the drain deadline.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = call(&self.addr, &request("shutdown", Vec::new()));
        let mut child = self.child.take().expect("daemon already stopped");
        let deadline = Instant::now() + Duration::from_secs(15);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    child.kill().ok();
                    child.wait().ok();
                    break None;
                }
            }
        };
        if let Some(h) = self.drain.take() {
            h.join().ok();
        }
        match (asked, status) {
            (Ok(_), Some(s)) if s.success() => Ok(()),
            (Err(e), _) => Err(format!("shutdown request failed: {e}")),
            (_, s) => Err(format!("daemon did not stop cleanly: {s:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
        if let Some(h) = self.drain.take() {
            h.join().ok();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's peak-RSS mark to its current RSS, so set-up
/// allocations do not count toward the measured peak.
pub fn reset_own_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// A protocol-v1 request frame for `op` with extra fields.
pub fn request(op: &str, fields: Vec<(&str, Json)>) -> Json {
    let mut obj = vec![
        ("v".to_owned(), Json::from_u64(ppm_serve::protocol::VERSION)),
        ("op".to_owned(), Json::Str(op.to_owned())),
    ];
    obj.extend(fields.into_iter().map(|(k, v)| (k.to_owned(), v)));
    Json::Obj(obj)
}

/// One request on a fresh connection.
pub fn call(addr: &str, req: &Json) -> Result<Json, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(30))).ok();
    write_frame(&mut s, req).map_err(|e| format!("write: {e}"))?;
    read_frame(&mut s)
        .map_err(|e| format!("read: {e}"))?
        .ok_or_else(|| "daemon closed the connection".to_owned())
}

/// Median round trip, in µs, of `n` `stats` requests: one connection
/// per request when `fresh`, otherwise all on one held connection.
pub fn stats_rtt_us(addr: &str, n: usize, fresh: bool) -> Result<f64, String> {
    let req = request("stats", Vec::new());
    let mut held: Option<TcpStream> = None;
    let mut rtts = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        if fresh {
            call(addr, &req)?;
        } else {
            let s = match held.as_mut() {
                Some(s) => s,
                None => held.insert(TcpStream::connect(addr).map_err(|e| e.to_string())?),
            };
            write_frame(s, &req).map_err(|e| e.to_string())?;
            read_frame(s)
                .map_err(|e| e.to_string())?
                .ok_or("daemon closed the held connection")?;
        }
        rtts.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(crate::stats::median(&rtts))
}

/// One `stats` snapshot's fields the per-layer report reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsSnapshot {
    pub queue: Hist,
    pub service: Hist,
    pub cache_lookup: Hist,
    pub hits: u64,
    pub derived: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// A latency histogram summary from `stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hist {
    pub count: u64,
    pub mean_us: f64,
    pub p50_us: f64,
}

impl Hist {
    fn from_json(j: Option<&Json>) -> Hist {
        let num = |k: &str| j.and_then(|j| j.get(k)).and_then(Json::as_f64);
        Hist {
            count: num("count").unwrap_or(0.0) as u64,
            mean_us: num("mean_us").unwrap_or(0.0),
            p50_us: num("p50_us").unwrap_or(0.0),
        }
    }

    /// Mean of the samples recorded between `before` and `self`.
    pub fn window_mean_us(&self, before: &Hist) -> f64 {
        let n = self.count.saturating_sub(before.count);
        if n == 0 {
            return 0.0;
        }
        let total = self.mean_us * self.count as f64 - before.mean_us * before.count as f64;
        (total / n as f64).max(0.0)
    }
}

impl StatsSnapshot {
    /// Takes a snapshot over the wire.
    pub fn take(addr: &str) -> Result<StatsSnapshot, String> {
        let s = call(addr, &request("stats", Vec::new()))?;
        let lat = s.get("latency");
        let cache = s.get("cache");
        let c = |k: &str| {
            cache
                .and_then(|c| c.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        Ok(StatsSnapshot {
            queue: Hist::from_json(lat.and_then(|l| l.get("queue_wait"))),
            service: Hist::from_json(lat.and_then(|l| l.get("service"))),
            cache_lookup: Hist::from_json(lat.and_then(|l| l.get("cache_lookup"))),
            hits: c("hits"),
            derived: c("derived"),
            misses: c("misses"),
            evictions: c("evictions"),
        })
    }
}
