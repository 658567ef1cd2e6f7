//! `ppm serve` — the fault-tolerant mining daemon.
//!
//! Keeps every `--stores` `.ppmc` open as a shared zero-copy view and
//! answers concurrent queries (see `ppm query`) over TCP or a Unix
//! socket until SIGTERM/SIGINT, which drains in-flight work and flushes
//! the crash-safe result cache before exiting.

use std::io::Write;
use std::path::PathBuf;

use ppm_serve::server::{Bind, ServeConfig, Server};
use ppm_serve::StoreRegistry;

use crate::args::Parsed;
use crate::error::CliError;

/// The flags `ppm serve` accepts; any other is a usage error.
pub(crate) const FLAGS: &[&str] = &[
    "stores socket host port workers queue cache cache-max-entries cache-max-bytes drain-ms \
     retry-after-ms test-faults idle-timeout-ms frame-deadline-ms max-requests-per-conn \
     verify-interval-ms metrics-out access-log slow-ms flight-dump \
     flight-events",
    super::GUARD_FLAGS,
    crate::obs::FLAGS,
];

/// Runs the daemon until a termination signal (or a `shutdown` query).
pub fn run(args: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let stores: Vec<String> = args
        .required("stores")?
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();

    let bind = match args.get("socket") {
        Some(path) => Bind::Unix(PathBuf::from(path)),
        None => {
            let host = args.get("host").unwrap_or("127.0.0.1");
            let port: u16 = args.parsed_or("port", 0)?;
            Bind::Tcp(format!("{host}:{port}"))
        }
    };

    let mut config = ServeConfig::new(bind);
    config.workers = args.parsed_or("workers", 4)?;
    config.queue_cap = args.parsed_or("queue", 16)?;
    config.cache_path = args.get("cache").map(PathBuf::from);
    if args.switch("deadline-ms") {
        config.default_deadline_ms = Some(args.required_parsed("deadline-ms")?);
    }
    if args.switch("max-tree-nodes") {
        config.default_max_tree_nodes = Some(args.required_parsed("max-tree-nodes")?);
    }
    config.drain_ms = args.parsed_or("drain-ms", 5_000)?;
    config.retry_after_ms = args.parsed_or("retry-after-ms", 100)?;
    config.test_faults = args.switch("test-faults");
    // Connection hardening and health: per-frame/idle deadlines, the
    // per-connection request budget, the store re-verification interval
    // (0 disables), and the result-cache growth bounds.
    config.idle_timeout_ms = args.parsed_or("idle-timeout-ms", config.idle_timeout_ms)?;
    config.frame_deadline_ms = args.parsed_or("frame-deadline-ms", config.frame_deadline_ms)?;
    config.max_requests_per_conn =
        args.parsed_or("max-requests-per-conn", config.max_requests_per_conn)?;
    config.verify_interval_ms = args.parsed_or("verify-interval-ms", config.verify_interval_ms)?;
    config.cache_limits.max_entries =
        args.parsed_or("cache-max-entries", config.cache_limits.max_entries)?;
    config.cache_limits.max_bytes =
        args.parsed_or("cache-max-bytes", config.cache_limits.max_bytes)?;
    // Observability surface: `--metrics-out` is the continuously
    // rewritten Prometheus exposition file (not the JSON-lines sink the
    // one-shot commands write), `--access-log` the per-query JSON-lines
    // log, `--slow-ms` the full-span-detail threshold, `--flight-dump`
    // where SIGUSR1/panic/shed flight-recorder dumps land.
    config.metrics_out = args.get("metrics-out").map(PathBuf::from);
    config.access_log = args.get("access-log").map(PathBuf::from);
    if args.switch("slow-ms") {
        config.slow_ms = Some(args.required_parsed("slow-ms")?);
    }
    config.flight_path = args.get("flight-dump").map(PathBuf::from);
    config.flight_events = args.parsed_or("flight-events", config.flight_events)?;
    if config.workers == 0 || config.queue_cap == 0 {
        return Err(CliError::Usage(
            "--workers and --queue must be at least 1".into(),
        ));
    }

    let obs = crate::obs::ObsSetup::for_daemon(args)?;
    let guard = obs.install();
    let _shutdown = ppm_serve::signal::install_termination_handler();

    let registry = StoreRegistry::open(&stores).map_err(CliError::Usage)?;
    let server = Server::bind(registry, config.clone())?;

    for store in server_stores(&server) {
        writeln!(out, "store {store}")?;
    }
    writeln!(
        out,
        "cache: {} ({} warm entries)",
        config
            .cache_path
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "memory only".to_owned()),
        server.warm_cache_entries()
    )?;
    if let Some(p) = &config.metrics_out {
        writeln!(out, "metrics exposition: {}", p.display())?;
    }
    if let Some(p) = &config.access_log {
        writeln!(out, "access log: {}", p.display())?;
    }
    if let Some(p) = &config.flight_path {
        writeln!(out, "flight dumps: {} (SIGUSR1 to trigger)", p.display())?;
    }
    // The last banner line carries the resolved address — scripts parse it
    // to learn the port when `--port 0` picked one.
    writeln!(
        out,
        "listening on {} ({} workers, queue {})",
        server.local_addr(),
        config.workers,
        config.queue_cap
    )?;
    out.flush()?;

    server.run()?;
    drop(guard);
    writeln!(out, "daemon stopped cleanly")?;
    Ok(())
}

/// One banner line per store: name, size, fingerprint.
fn server_stores(server: &Server) -> Vec<String> {
    server
        .registry()
        .iter()
        .map(|s| {
            let reader = s.reader();
            format!(
                "{}: {} instants, {} features, fingerprint {:016x}",
                s.name,
                reader.len(),
                reader.catalog().len(),
                reader.fingerprint()
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::cmd::testutil::{assert_rejects_flag, run_cli, sample_series_file};

    #[test]
    fn missing_stores_is_usage_error() {
        let err = run_cli("serve --port 0").unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn unopenable_store_is_usage_error() {
        let err = run_cli("serve --stores /definitely/not/here.ppmc --port 0").unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("cannot open store"), "{err}");
    }

    #[test]
    fn zero_workers_is_usage_error() {
        let path = sample_series_file("ppmc");
        let err = run_cli(&format!(
            "serve --stores {} --port 0 --workers 0",
            path.display()
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        std::fs::remove_file(path).ok();
    }

    /// Every query's mine runs on the worker that took it, so the
    /// removed `--mine-threads` is an undeclared flag.
    #[test]
    fn removed_mine_thread_flag_is_rejected() {
        let path = sample_series_file("ppmc");
        assert_rejects_flag(
            &format!(
                "serve --stores {} --port 0 --mine-threads 2",
                path.display()
            ),
            "--mine-threads",
        );
        std::fs::remove_file(path).ok();
    }
}
