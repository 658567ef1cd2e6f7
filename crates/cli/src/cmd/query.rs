//! `ppm query` — replication-aware client for running `ppm serve`
//! daemons.
//!
//! Sends one request frame and renders the response. A `mine` query
//! prints byte-for-byte what a direct `ppm mine` against the same store
//! would print, so scripts can diff the two; daemon-side failures carry
//! their wire code straight through to the exit status (see
//! [`crate::error::CliError`] for the taxonomy).
//!
//! Transport is [`ppm_serve::FailoverClient`]: `--endpoints a,b,c` names
//! replicas, transients are retried with exponential backoff + seeded
//! jitter (`--retries`, `--backoff-ms`, `--seed`), overload hints are
//! honored, and `--hedge-ms T` duplicates a slow request to the next
//! replica, asserting byte-identical answers. With a single endpoint the
//! same bounded retry policy applies before exiting 5 (retries
//! exhausted) or 6 (overloaded).

use std::io::Write;

use ppm_observe::Json;
use ppm_serve::protocol;
use ppm_serve::{ClientError, Endpoint, ErrorCode, FailoverClient, RetryPolicy};

use crate::args::Parsed;
use crate::error::CliError;

/// The flags `ppm query` accepts; any other is a usage error.
pub(crate) const FLAGS: &[&str] = &[
    "op store period min-conf engine limit no-cache quarantine inject-garbage min-rule-conf \
     rows repeat recheck show-cached endpoints socket host port retries backoff-ms \
     backoff-max-ms io-timeout-ms hedge-ms seed",
    super::GUARD_FLAGS,
];

/// Runs one query against the daemon(s).
pub fn run(args: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let op = args.get("op").unwrap_or("mine");
    let request = build_request(op, args)?;
    let response = exchange(args, &request)?;
    render(op, args, &response, out)
}

/// Builds the request frame for `op` from the command-line flags.
fn build_request(op: &str, args: &Parsed) -> Result<Json, CliError> {
    let mut fields = vec![
        ("v".to_owned(), Json::from_u64(protocol::VERSION)),
        ("op".to_owned(), Json::Str(op.to_owned())),
    ];
    match op {
        "mine" | "rules" | "verify" => {
            fields.push((
                "store".to_owned(),
                Json::Str(args.required("store")?.into()),
            ));
            fields.push((
                "period".to_owned(),
                Json::from_u64(args.required_parsed("period")?),
            ));
            fields.push((
                "min_conf".to_owned(),
                Json::Num(args.required_parsed("min-conf")?),
            ));
            if let Some(engine) = args.get("engine") {
                fields.push(("engine".to_owned(), Json::Str(engine.to_owned())));
            }
            fields.push((
                "limit".to_owned(),
                Json::from_u64(args.parsed_or("limit", 20)?),
            ));
            if args.switch("deadline-ms") {
                fields.push((
                    "deadline_ms".to_owned(),
                    Json::from_u64(args.required_parsed("deadline-ms")?),
                ));
            }
            if args.switch("max-tree-nodes") {
                fields.push((
                    "max_tree_nodes".to_owned(),
                    Json::from_u64(args.required_parsed("max-tree-nodes")?),
                ));
            }
            if args.switch("no-cache") {
                fields.push(("no_cache".to_owned(), Json::Bool(true)));
            }
            if args.switch("quarantine") {
                fields.push(("quarantine".to_owned(), Json::Bool(true)));
            }
            if args.switch("inject-garbage") {
                fields.push((
                    "inject_garbage".to_owned(),
                    Json::from_u64(args.required_parsed("inject-garbage")?),
                ));
            }
            if op == "rules" {
                fields.push((
                    "min_rule_conf".to_owned(),
                    Json::Num(args.parsed_or("min-rule-conf", 0.8)?),
                ));
            }
        }
        "append" => {
            fields.push((
                "store".to_owned(),
                Json::Str(args.required("store")?.into()),
            ));
            let mut rows = parse_rows(args.required("rows")?)?;
            let repeat: usize = args.parsed_or("repeat", 1)?;
            if repeat == 0 {
                return Err(CliError::Usage("--repeat must be at least 1".into()));
            }
            if repeat > 1 {
                if let Json::Arr(instants) = &rows {
                    let mut all = Vec::with_capacity(instants.len() * repeat);
                    for _ in 0..repeat {
                        all.extend(instants.iter().cloned());
                    }
                    rows = Json::Arr(all);
                }
            }
            fields.push(("rows".to_owned(), rows));
        }
        "info" => {
            if let Some(store) = args.get("store") {
                fields.push(("store".to_owned(), Json::Str(store.to_owned())));
            }
        }
        "health" => {
            if args.switch("recheck") {
                fields.push(("recheck".to_owned(), Json::Bool(true)));
            }
        }
        "stats" | "metrics" | "shutdown" | "panic" => {}
        other => {
            return Err(CliError::Usage(format!(
            "unknown --op {other:?} (mine|rules|verify|append|info|health|stats|metrics|shutdown)"
        )))
        }
    }
    Ok(Json::Obj(fields))
}

/// Parses `--rows "a b;c;-"`: instants separated by `;`, feature names
/// within an instant separated by whitespace, `-` (or nothing) for an
/// empty instant.
fn parse_rows(text: &str) -> Result<Json, CliError> {
    if text.trim().is_empty() {
        return Err(CliError::Usage(
            "--rows names no instants (want e.g. \"a b;c;-\")".into(),
        ));
    }
    let instants: Vec<Json> = text
        .split(';')
        .map(|instant| {
            Json::Arr(
                instant
                    .split_whitespace()
                    .filter(|n| *n != "-")
                    .map(|n| Json::Str(n.to_owned()))
                    .collect(),
            )
        })
        .collect();
    Ok(Json::Arr(instants))
}

/// The replica list: `--endpoints a,b,c` (each `host:port` or
/// `unix:/path`), or the single classic `--host`/`--port` / `--socket`
/// target.
fn endpoints_from(args: &Parsed) -> Result<Vec<Endpoint>, CliError> {
    if let Some(list) = args.get("endpoints") {
        let endpoints: Vec<Endpoint> = list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(Endpoint::parse)
            .collect();
        if endpoints.is_empty() {
            return Err(CliError::Usage("--endpoints names no endpoints".into()));
        }
        return Ok(endpoints);
    }
    if let Some(path) = args.get("socket") {
        return Ok(vec![Endpoint::Unix(path.into())]);
    }
    let host = args.get("host").unwrap_or("127.0.0.1");
    let port: u16 = args.required_parsed("port")?;
    Ok(vec![Endpoint::Tcp(format!("{host}:{port}"))])
}

/// The retry/failover/hedging policy from the command-line flags.
fn policy_from(args: &Parsed) -> Result<RetryPolicy, CliError> {
    let defaults = RetryPolicy::default();
    Ok(RetryPolicy {
        retries: args.parsed_or("retries", defaults.retries)?,
        backoff_ms: args.parsed_or("backoff-ms", defaults.backoff_ms)?,
        backoff_max_ms: args.parsed_or("backoff-max-ms", defaults.backoff_max_ms)?,
        io_timeout_ms: args.parsed_or("io-timeout-ms", defaults.io_timeout_ms)?,
        hedge_after_ms: if args.switch("hedge-ms") {
            Some(args.required_parsed("hedge-ms")?)
        } else {
            None
        },
        seed: args.parsed_or("seed", defaults.seed)?,
    })
}

/// Issues the request through the failover client; transient trouble is
/// retried across endpoints per the policy, and only transport-level
/// defeat becomes an error here (typed daemon errors flow to
/// [`render`]). What the client had to do to get the answer is noted on
/// stderr so scripts diffing stdout stay clean.
fn exchange(args: &Parsed, request: &Json) -> Result<Json, CliError> {
    let mut client = FailoverClient::new(endpoints_from(args)?, policy_from(args)?);
    let outcome = client.request(request);
    let stats = client.stats();
    if stats.failovers > 0 || stats.hedges > 0 || stats.backoffs > 0 {
        eprintln!(
            "ppm query: {} attempt(s), {} failover(s), {} backoff sleep(s), \
             {} hedge(s) ({} won by the hedge)",
            stats.attempts, stats.failovers, stats.backoffs, stats.hedges, stats.hedge_wins
        );
    }
    outcome.map_err(|e| match e {
        ClientError::Exhausted {
            overloaded: true, ..
        } => CliError::Daemon(ErrorCode::Overloaded, e.to_string()),
        ClientError::Exhausted { .. } => {
            CliError::Daemon(ErrorCode::RetriesExhausted, e.to_string())
        }
        ClientError::Diverged { .. } => CliError::Daemon(ErrorCode::Internal, e.to_string()),
    })
}

/// Renders the response and maps failures onto the exit-code taxonomy.
fn render(op: &str, args: &Parsed, resp: &Json, out: &mut dyn Write) -> Result<(), CliError> {
    match resp.get("type").and_then(Json::as_str) {
        Some("overload") => {
            let retry_after_ms = resp
                .get("retry_after_ms")
                .and_then(Json::as_u64)
                .unwrap_or(0);
            Err(CliError::Overloaded { retry_after_ms })
        }
        Some("error") => {
            let code = ErrorCode::from_wire(resp.get("code").and_then(Json::as_u64).unwrap_or(1));
            let message = resp
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("(no message)")
                .to_owned();
            // Guard trips print their partial progress like direct `ppm
            // mine` does before exiting with the partial-result code (the
            // daemon message already carries the "mining aborted:" prefix).
            if let Some(stats) = resp.get("partial_stats") {
                writeln!(out, "{message}")?;
                let n = |f: &str| stats.get(f).and_then(Json::as_u64).unwrap_or(0);
                writeln!(
                    out,
                    "partial progress: {} series scans, {} tree nodes, \
                     {} hit insertions; raise --deadline-ms / --max-tree-nodes to finish",
                    n("series_scans"),
                    n("tree_nodes"),
                    n("hit_insertions")
                )?;
            }
            Err(CliError::Daemon(code, message))
        }
        Some("result") => render_result(op, args, resp, out),
        other => Err(CliError::Daemon(
            ErrorCode::Internal,
            format!("malformed daemon response (type {other:?})"),
        )),
    }
}

/// Success rendering, per op.
fn render_result(
    op: &str,
    args: &Parsed,
    resp: &Json,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let u = |field: &str| resp.get(field).and_then(Json::as_u64).unwrap_or(0);
    match op {
        "mine" => {
            let quarantined = resp.get("quarantined").and_then(Json::as_u64);
            if let Some(n) = quarantined {
                if n == 0 {
                    writeln!(out, "quarantined 0 instants")?;
                } else {
                    writeln!(
                        out,
                        "quarantined {n} instants; counts below are sound lower bounds:"
                    )?;
                }
            }
            print_mine_rows(args, resp, out)?;
            if args.switch("show-cached") {
                let cached = resp.get("cached").and_then(Json::as_str).unwrap_or("?");
                writeln!(out, "cached: {cached}")?;
            }
            if let Some(n) = quarantined.filter(|&n| n > 0) {
                return Err(CliError::Quarantined {
                    skipped: n as usize,
                });
            }
            Ok(())
        }
        "rules" => {
            let min_rule_conf = resp
                .get("min_rule_conf")
                .and_then(Json::as_f64)
                .unwrap_or(0.8);
            let limit: usize = args.parsed_or("limit", 20)?;
            writeln!(
                out,
                "{} rules at confidence >= {min_rule_conf} (from {} frequent patterns, \
                 period {}); showing up to {limit}:",
                u("n_rules"),
                u("n_frequent"),
                u("period")
            )?;
            for row in rows_of(resp) {
                if let Some(text) = row.as_str() {
                    writeln!(out, "  {text}")?;
                }
            }
            Ok(())
        }
        "verify" => {
            let agreed = matches!(resp.get("agreed"), Some(Json::Bool(true)));
            writeln!(
                out,
                "cross-check: {} engines on {} patterns — {}",
                u("engines"),
                u("compared"),
                if agreed { "agree" } else { "DISAGREE" }
            )?;
            let violations = resp
                .get("violations")
                .and_then(Json::as_arr)
                .map(|v| v.len())
                .unwrap_or(0);
            if let Some(Json::Arr(vs)) = resp.get("violations") {
                for v in vs {
                    if let Some(text) = v.as_str() {
                        writeln!(out, "  {text}")?;
                    }
                }
            }
            if agreed {
                Ok(())
            } else {
                Err(CliError::Audit(format!(
                    "{violations} violations (details above)"
                )))
            }
        }
        "info" => {
            if let Some(Json::Arr(stores)) = resp.get("stores") {
                for s in stores {
                    writeln!(
                        out,
                        "{}: {} instants, {}-bit rows, {} features, {} bytes, fingerprint {}",
                        s.get("name").and_then(Json::as_str).unwrap_or("?"),
                        s.get("instants").and_then(Json::as_u64).unwrap_or(0),
                        s.get("width").and_then(Json::as_u64).unwrap_or(0),
                        s.get("features").and_then(Json::as_u64).unwrap_or(0),
                        s.get("file_bytes").and_then(Json::as_u64).unwrap_or(0),
                        s.get("fingerprint").and_then(Json::as_str).unwrap_or("?"),
                    )?;
                }
            }
            Ok(())
        }
        "health" => {
            let degraded = matches!(resp.get("degraded"), Some(Json::Bool(true)));
            writeln!(
                out,
                "ready: {} degraded: {} ({}/{} stores quarantined)",
                matches!(resp.get("ready"), Some(Json::Bool(true))),
                degraded,
                u("stores_quarantined"),
                u("stores_total"),
            )?;
            if let Some(Json::Arr(stores)) = resp.get("stores") {
                for s in stores {
                    writeln!(
                        out,
                        "  {}: {} (fingerprint {})",
                        s.get("name").and_then(Json::as_str).unwrap_or("?"),
                        s.get("status").and_then(Json::as_str).unwrap_or("?"),
                        s.get("fingerprint").and_then(Json::as_str).unwrap_or("?"),
                    )?;
                }
            }
            if degraded {
                // Scripts probing readiness get the quarantine exit code
                // without having to parse the listing.
                return Err(CliError::Daemon(
                    ErrorCode::Quarantined,
                    format!("{} store(s) quarantined", u("stores_quarantined")),
                ));
            }
            Ok(())
        }
        "stats" => {
            for field in [
                "queue_depth",
                "shed",
                "served",
                "panics",
                "conn_reaped",
                "bad_frames",
                "accept_errors",
                "stores",
                "stores_quarantined",
                "append_grow_copies",
                "live_indexes",
                "index_bytes",
                "uptime_s",
                "worker_busy_us",
            ] {
                writeln!(out, "{field}: {}", u(field))?;
            }
            // Memory is reported only where the daemon can read `/proc`.
            for field in ["rss_bytes", "peak_rss_bytes"] {
                if let Some(v) = resp.get(field).and_then(Json::as_u64) {
                    writeln!(out, "{field}: {v}")?;
                }
            }
            if let Some(cache) = resp.get("cache") {
                for field in [
                    "entries",
                    "bytes",
                    "hits",
                    "derived",
                    "misses",
                    "rejected",
                    "evictions",
                ] {
                    writeln!(
                        out,
                        "cache.{field}: {}",
                        cache.get(field).and_then(Json::as_u64).unwrap_or(0)
                    )?;
                }
            }
            if let Some(latency) = resp.get("latency") {
                print_latency(latency, out)?;
            }
            Ok(())
        }
        "metrics" => {
            // The raw Prometheus exposition, unmodified — pipe it to a
            // file and a scraper can read it directly.
            if let Some(text) = resp.get("exposition").and_then(Json::as_str) {
                out.write_all(text.as_bytes())?;
            }
            Ok(())
        }
        "append" => {
            writeln!(
                out,
                "appended {} instants to {} ({} total, fingerprint {}); \
                 cache: {} kept, {} dropped; {} live indexes fed",
                u("appended"),
                resp.get("store").and_then(Json::as_str).unwrap_or("?"),
                u("instants"),
                resp.get("fingerprint")
                    .and_then(Json::as_str)
                    .unwrap_or("?"),
                u("cache_kept"),
                u("cache_dropped"),
                u("indexes_fed"),
            )?;
            Ok(())
        }
        "shutdown" => {
            writeln!(out, "daemon draining")?;
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Renders the `stats` latency block as one line per histogram:
/// `latency.service: n=9 mean=2100us p50=1800us p90=4000us p95=4200us
/// p99=4800us max=5000us`. Empty histograms print `n=0 (no samples)` so
/// an idle daemon still shows the full set of series.
fn print_latency(latency: &Json, out: &mut dyn Write) -> Result<(), CliError> {
    for name in [
        "queue_wait",
        "service",
        "scan1",
        "scan2",
        "derive",
        "cache_lookup",
    ] {
        let Some(h) = latency.get(name) else {
            continue;
        };
        let u = |f: &str| h.get(f).and_then(Json::as_u64).unwrap_or(0);
        let count = u("count");
        if count == 0 {
            writeln!(out, "latency.{name}: n=0 (no samples)")?;
            continue;
        }
        writeln!(
            out,
            "latency.{name}: n={count} mean={}us p50={}us p90={}us p95={}us p99={}us max={}us",
            h.get("mean_us").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            u("p50_us"),
            u("p90_us"),
            u("p95_us"),
            u("p99_us"),
            u("max_us")
        )?;
    }
    Ok(())
}

/// Prints the `mine` rows exactly as `ppm mine`'s `print_result` does, so
/// the two outputs diff clean.
fn print_mine_rows(args: &Parsed, resp: &Json, out: &mut dyn Write) -> Result<(), CliError> {
    let min_conf: f64 = args.required_parsed("min-conf")?;
    let limit: usize = args.parsed_or("limit", 20)?;
    let patterns = resp.get("patterns").and_then(Json::as_u64).unwrap_or(0);
    let segments = resp.get("segments").and_then(Json::as_u64).unwrap_or(0);
    let scans = resp.get("scans").and_then(Json::as_u64).unwrap_or(0);
    let period = resp.get("period").and_then(Json::as_u64).unwrap_or(0);
    writeln!(
        out,
        "{patterns} frequent patterns (period {period}, {segments} segments, \
         min_conf {min_conf}, {scans} scans); showing up to {limit}, longest first:",
    )?;
    for row in rows_of(resp) {
        let cells = match row.as_arr() {
            Some(cells) if cells.len() == 3 => cells,
            _ => continue,
        };
        let display = cells[0].as_str().unwrap_or("?");
        let count = cells[2].as_u64().unwrap_or(0);
        writeln!(
            out,
            "  {display}  count={count} conf={:.3}",
            count as f64 / segments as f64
        )?;
    }
    Ok(())
}

/// The response's `rows` array (empty when absent).
fn rows_of(resp: &Json) -> &[Json] {
    resp.get("rows").and_then(Json::as_arr).unwrap_or(&[])
}

#[cfg(test)]
mod tests {
    use crate::cmd::testutil::run_cli;

    #[test]
    fn append_rows_parse_the_compact_syntax() {
        let rows = super::parse_rows("a b;c;-").unwrap();
        let arr = rows.as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_arr().unwrap().len(), 2, "two features");
        assert_eq!(arr[1].as_arr().unwrap().len(), 1);
        assert_eq!(arr[2].as_arr().unwrap().len(), 0, "dash is empty");
        assert!(super::parse_rows("  ").is_err());
    }

    #[test]
    fn append_op_repeat_replicates_the_rows_client_side() {
        let parse = |repeat: &str| {
            let argv: Vec<String> = [
                "query", "--op", "append", "--store", "v", "--rows", "a;-", "--repeat", repeat,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            crate::args::Parsed::parse(&argv).unwrap()
        };
        let req = super::build_request("append", &parse("3")).unwrap();
        let rows = req.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 6, "two instants replicated three times");
        let err = super::build_request("append", &parse("0")).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn unknown_op_is_usage_error() {
        let err = run_cli("query --op launch --port 1").unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn missing_port_and_socket_is_usage_error() {
        let err = run_cli("query --op stats").unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn connection_refused_retries_then_exits_5() {
        // Port 1 is privileged and never our daemon. Even with a single
        // endpoint the bounded retry policy applies: the client makes its
        // rounds, then exits with the retries-exhausted code — not a
        // generic I/O failure on the first refusal.
        let err = run_cli("query --op stats --port 1 --retries 2 --backoff-ms 1").unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err}");
        assert!(err.to_string().contains("2 attempt(s)"), "{err}");
    }

    #[test]
    fn endpoints_flag_accepts_a_replica_list() {
        // Both replicas refuse; the client must rotate over both per
        // round (2 retries × 2 endpoints = 4 attempts) and then exit 5.
        let err = run_cli(
            "query --op stats --endpoints 127.0.0.1:1,127.0.0.1:2 --retries 2 --backoff-ms 1",
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err}");
        assert!(err.to_string().contains("4 attempt(s)"), "{err}");
    }

    #[test]
    fn empty_endpoints_list_is_usage_error() {
        let err = run_cli("query --op stats --endpoints ,").unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }
}
