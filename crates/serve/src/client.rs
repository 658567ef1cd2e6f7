//! The replication-aware client: retry, backoff, failover, hedging.
//!
//! One daemon can die, stall, or quarantine a store; a deployment runs
//! several. [`FailoverClient`] turns a list of replica endpoints into a
//! single reliable request path:
//!
//! * **Bounded retry with backoff + jitter** — transient trouble
//!   (connect refusal, truncated response, overload, a quarantined
//!   store) is retried in *rounds over all endpoints*: each round tries
//!   every replica once, then sleeps an exponentially growing, seeded
//!   jittered backoff. Typed errors that retrying cannot fix (bad
//!   request, internal failure, partial result) surface immediately.
//! * **Overload hints honored** — an `overload` frame carries the
//!   daemon's `retry_after_ms`; the next backoff sleeps at least that
//!   long, so a shedding daemon is never hammered.
//! * **Stickiness** — the endpoint that last answered is tried first on
//!   the next request; failover moves the preference.
//! * **Hedging** — optionally, if the preferred replica has not answered
//!   within a latency threshold, the same request is duplicated to the
//!   next replica and the first success wins. When both answer, the
//!   responses are compared byte-for-byte (after stripping the `cached`
//!   provenance field, the one place replicas legitimately differ) —
//!   the anti-monotone mining semantics guarantee replicas of the same
//!   store agree, and [`ClientError::Diverged`] reports when reality
//!   disagrees with the guarantee.
//!
//! Everything is deterministic under a fixed [`RetryPolicy::seed`]; the
//! chaos tests rely on that.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use ppm_observe::Json;

use crate::error::ErrorCode;
use crate::protocol;

/// One replica address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP `host:port`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses an endpoint string: `unix:/path` or anything containing a
    /// `/` is a Unix socket path; everything else is TCP `host:port`.
    pub fn parse(s: &str) -> Endpoint {
        if let Some(p) = s.strip_prefix("unix:") {
            Endpoint::Unix(PathBuf::from(p))
        } else if s.contains('/') {
            Endpoint::Unix(PathBuf::from(s))
        } else {
            Endpoint::Tcp(s.to_owned())
        }
    }

    fn connect(&self, timeout: Duration) -> io::Result<ClientStream> {
        match self {
            Endpoint::Tcp(addr) => {
                let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("{addr:?} resolves to no address"),
                    )
                })?;
                let s = TcpStream::connect_timeout(&resolved, timeout)?;
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))?;
                s.set_nodelay(true)?;
                Ok(ClientStream::Tcp(s))
            }
            Endpoint::Unix(path) => {
                let s = UnixStream::connect(path)?;
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))?;
                Ok(ClientStream::Unix(s))
            }
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(a) => write!(f, "{a}"),
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

enum ClientStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.read(buf),
            ClientStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.write(buf),
            ClientStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.flush(),
            ClientStream::Unix(s) => s.flush(),
        }
    }
}

/// How hard the client tries before giving up.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retry rounds; each round tries every endpoint once. At least 1.
    pub retries: u32,
    /// Base backoff between rounds (ms); doubles each round.
    pub backoff_ms: u64,
    /// Backoff ceiling (ms), jitter included.
    pub backoff_max_ms: u64,
    /// Per-connect and per-frame I/O timeout (ms).
    pub io_timeout_ms: u64,
    /// Hedge threshold (ms): duplicate the request to the next replica
    /// when the preferred one has not answered within this long. `None`
    /// disables hedging. Needs at least two endpoints to do anything.
    pub hedge_after_ms: Option<u64>,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 3,
            backoff_ms: 50,
            backoff_max_ms: 2_000,
            io_timeout_ms: 5_000,
            hedge_after_ms: None,
            seed: 0x5eed,
        }
    }
}

/// What the client did to get its answers (cumulative over requests).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientStats {
    /// Wire exchanges attempted (including hedges).
    pub attempts: u64,
    /// Attempts that moved to a different endpoint than the previous one.
    pub failovers: u64,
    /// Hedge requests launched.
    pub hedges: u64,
    /// Hedges whose duplicate answered first.
    pub hedge_wins: u64,
    /// Overload hints that stretched a backoff sleep.
    pub overloads_honored: u64,
    /// Backoff sleeps taken between rounds.
    pub backoffs: u64,
}

/// Why a request ultimately failed. A daemon's *typed* final error
/// (usage, internal, partial result) is not a `ClientError` — the raw
/// error frame is returned as the successful exchange it is, so callers
/// keep their full rendering of it; only transport-level defeat lands
/// here.
#[derive(Debug)]
pub enum ClientError {
    /// Every retry round failed with transient trouble.
    Exhausted {
        /// Wire exchanges attempted for this request.
        attempts: u64,
        /// The last failure observed.
        last: String,
        /// Whether the last transient failure was daemon overload (maps
        /// to exit code 6 rather than 5).
        overloaded: bool,
    },
    /// Two replicas answered the same request with different bytes.
    Diverged {
        /// Which replicas disagreed.
        endpoints: (String, String),
        /// The normalized responses that differed.
        detail: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Exhausted {
                attempts,
                last,
                overloaded,
            } => write!(
                f,
                "retries exhausted after {attempts} attempt(s){}; last failure: {last}",
                if *overloaded {
                    " (daemon overloaded)"
                } else {
                    ""
                }
            ),
            ClientError::Diverged { endpoints, detail } => write!(
                f,
                "replicas {} and {} diverged on the same request: {detail}",
                endpoints.0, endpoints.1
            ),
        }
    }
}

impl std::error::Error for ClientError {}

/// What one wire exchange produced.
enum Answer {
    /// A `result` frame.
    Result(Json),
    /// An `overload` frame with its retry hint (ms).
    Overload(u64),
    /// A typed error worth retrying elsewhere (quarantined store,
    /// retries-exhausted, overloaded).
    Transient(String),
    /// A typed error no retry can fix; the raw frame goes back to the
    /// caller for rendering.
    Final(Json),
}

/// Deterministic jitter (splitmix-style LCG; the workspace takes no
/// dependencies, and tests need reproducible sleeps).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// The failover client. Construct once, issue many requests; stats
/// accumulate across them.
pub struct FailoverClient {
    endpoints: Vec<Endpoint>,
    policy: RetryPolicy,
    stats: ClientStats,
    rng: Lcg,
    /// The endpoint that answered last (tried first next time).
    preferred: usize,
}

impl FailoverClient {
    /// A client over `endpoints` (at least one) with the given policy.
    pub fn new(endpoints: Vec<Endpoint>, policy: RetryPolicy) -> FailoverClient {
        let seed = policy.seed;
        FailoverClient {
            endpoints,
            policy,
            stats: ClientStats::default(),
            rng: Lcg(seed),
            preferred: 0,
        }
    }

    /// Cumulative stats.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The endpoints this client rotates over.
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// Issues one request, retrying/failing over per the policy, and
    /// returns the daemon's `result` frame.
    pub fn request(&mut self, req: &Json) -> Result<Json, ClientError> {
        if self.endpoints.is_empty() {
            return Err(ClientError::Exhausted {
                attempts: 0,
                last: "no endpoints configured".into(),
                overloaded: false,
            });
        }
        let rounds = self.policy.retries.max(1);
        let mut attempts = 0u64;
        let mut last = String::from("never attempted");
        let mut last_overloaded = false;
        let mut overload_hint_ms = 0u64;
        let mut prev_attempted: Option<usize> = None;
        for round in 0..rounds {
            if round > 0 {
                self.sleep_backoff(round, overload_hint_ms);
                overload_hint_ms = 0;
            }
            for k in 0..self.endpoints.len() {
                let idx = (self.preferred + k) % self.endpoints.len();
                if prev_attempted.is_some_and(|p| p != idx) {
                    self.stats.failovers += 1;
                    ppm_observe::counter("client.failover", 1);
                }
                prev_attempted = Some(idx);
                attempts += 1;
                self.stats.attempts += 1;
                let outcome = if k == 0 && self.endpoints.len() >= 2 {
                    self.maybe_hedged_exchange(idx, req)
                } else {
                    exchange(&self.endpoints[idx], self.policy.io_timeout_ms, req).map(|a| (a, idx))
                };
                match outcome {
                    Ok((Answer::Result(resp), winner)) => {
                        self.preferred = winner;
                        return Ok(resp);
                    }
                    Ok((Answer::Overload(ms), idx)) => {
                        last = format!("{} is overloaded", self.endpoints[idx]);
                        last_overloaded = true;
                        overload_hint_ms = overload_hint_ms.max(ms);
                        self.stats.overloads_honored += 1;
                    }
                    Ok((Answer::Transient(msg), _)) => {
                        last = msg;
                        last_overloaded = false;
                    }
                    Ok((Answer::Final(frame), winner)) => {
                        self.preferred = winner;
                        return Ok(frame);
                    }
                    Err(e) => {
                        if let Some(err) = e.diverged {
                            return Err(err);
                        }
                        last = e.message;
                        last_overloaded = false;
                    }
                }
            }
        }
        Err(ClientError::Exhausted {
            attempts,
            last,
            overloaded: last_overloaded,
        })
    }

    /// Exponential backoff with seeded jitter, stretched to at least the
    /// strongest overload hint seen since the last sleep.
    fn sleep_backoff(&mut self, round: u32, overload_hint_ms: u64) {
        let base = self
            .policy
            .backoff_ms
            .saturating_mul(1u64 << (round - 1).min(16))
            .min(self.policy.backoff_max_ms);
        let jitter = self.rng.next() % (base / 2 + 1);
        let ms = (base + jitter)
            .min(self.policy.backoff_max_ms)
            .max(overload_hint_ms);
        self.stats.backoffs += 1;
        std::thread::sleep(Duration::from_millis(ms));
    }

    /// One exchange against `primary`, hedged to the next replica if the
    /// policy says so and the primary is slow. Returns the winning answer
    /// and the index that produced it.
    fn maybe_hedged_exchange(
        &mut self,
        primary: usize,
        req: &Json,
    ) -> Result<(Answer, usize), ExchangeFailure> {
        let Some(hedge_after) = self.policy.hedge_after_ms else {
            return exchange(&self.endpoints[primary], self.policy.io_timeout_ms, req)
                .map(|a| (a, primary));
        };
        let secondary = (primary + 1) % self.endpoints.len();
        let io_ms = self.policy.io_timeout_ms;
        let (tx, rx) = mpsc::channel::<(usize, Result<Answer, ExchangeFailure>)>();
        spawn_exchange(
            tx.clone(),
            primary,
            self.endpoints[primary].clone(),
            io_ms,
            req,
        );
        match rx.recv_timeout(Duration::from_millis(hedge_after)) {
            Ok((idx, outcome)) => return outcome.map(|a| (a, idx)),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(ExchangeFailure::io("hedge channel closed".into()))
            }
        }
        // The primary is slow: duplicate the request to the next replica
        // and take the first success.
        self.stats.hedges += 1;
        self.stats.attempts += 1;
        ppm_observe::counter("client.hedge", 1);
        spawn_exchange(
            tx.clone(),
            secondary,
            self.endpoints[secondary].clone(),
            io_ms,
            req,
        );
        drop(tx);
        let overall = Duration::from_millis(io_ms.saturating_mul(2).max(hedge_after));
        let first = match rx.recv_timeout(overall) {
            Ok(got) => got,
            Err(_) => {
                return Err(ExchangeFailure::io(
                    "neither replica answered the hedged request".into(),
                ))
            }
        };
        // Give the straggler a short grace so byte-identity can actually
        // be checked when both replicas answer; don't stall on it.
        let straggler = rx.recv_timeout(Duration::from_millis(hedge_after)).ok();
        if let (Ok(Answer::Result(a)), Some((sidx, Ok(Answer::Result(b))))) = (&first.1, &straggler)
        {
            let (na, nb) = (normalized(a), normalized(b));
            if na != nb {
                return Err(ExchangeFailure::diverged(ClientError::Diverged {
                    endpoints: (
                        self.endpoints[first.0].to_string(),
                        self.endpoints[*sidx].to_string(),
                    ),
                    detail: format!("{na} != {nb}"),
                }));
            }
        }
        let (fidx, foutcome) = first;
        match foutcome {
            Ok(answer) => {
                if fidx != primary {
                    self.stats.hedge_wins += 1;
                    ppm_observe::counter("client.hedge_win", 1);
                }
                Ok((answer, fidx))
            }
            // The first arrival failed; fall back to the straggler if it
            // did better.
            Err(e) => match straggler {
                Some((sidx, Ok(answer))) => {
                    if sidx != primary {
                        self.stats.hedge_wins += 1;
                        ppm_observe::counter("client.hedge_win", 1);
                    }
                    Ok((answer, sidx))
                }
                _ => Err(e),
            },
        }
    }
}

/// A failed exchange: an I/O-level message, or a divergence verdict that
/// must surface as-is.
struct ExchangeFailure {
    message: String,
    diverged: Option<ClientError>,
}

impl ExchangeFailure {
    fn io(message: String) -> ExchangeFailure {
        ExchangeFailure {
            message,
            diverged: None,
        }
    }

    fn diverged(e: ClientError) -> ExchangeFailure {
        ExchangeFailure {
            message: e.to_string(),
            diverged: Some(e),
        }
    }
}

fn spawn_exchange(
    tx: mpsc::Sender<(usize, Result<Answer, ExchangeFailure>)>,
    idx: usize,
    endpoint: Endpoint,
    io_timeout_ms: u64,
    req: &Json,
) {
    let req = req.clone();
    std::thread::spawn(move || {
        let outcome = exchange(&endpoint, io_timeout_ms, &req);
        let _ = tx.send((idx, outcome));
    });
}

/// One connect → write → read exchange against one endpoint.
fn exchange(
    endpoint: &Endpoint,
    io_timeout_ms: u64,
    req: &Json,
) -> Result<Answer, ExchangeFailure> {
    let timeout = Duration::from_millis(io_timeout_ms.max(1));
    let mut stream = endpoint
        .connect(timeout)
        .map_err(|e| ExchangeFailure::io(format!("connect {endpoint}: {e}")))?;
    protocol::write_frame(&mut stream, req)
        .map_err(|e| ExchangeFailure::io(format!("write to {endpoint}: {e}")))?;
    match protocol::read_frame(&mut stream) {
        Ok(Some(resp)) => Ok(classify(endpoint, resp)),
        Ok(None) => Err(ExchangeFailure::io(format!(
            "{endpoint} closed the connection before answering"
        ))),
        Err(e) => Err(ExchangeFailure::io(format!("read from {endpoint}: {e}"))),
    }
}

/// Sorts a response frame into the retry taxonomy.
fn classify(endpoint: &Endpoint, resp: Json) -> Answer {
    match resp.get("type").and_then(Json::as_str) {
        Some("overload") => Answer::Overload(
            resp.get("retry_after_ms")
                .and_then(Json::as_u64)
                .unwrap_or(0),
        ),
        Some("error") => {
            let code = ErrorCode::from_wire(resp.get("code").and_then(Json::as_u64).unwrap_or(1));
            let message = resp
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("unspecified error")
                .to_owned();
            // A quarantined *store* is a replica-local disease — another
            // replica's copy may be healthy. Daemon-side retry exhaustion
            // and overload are likewise worth trying elsewhere. Usage,
            // internal, and partial-result errors are not.
            let store_quarantined = matches!(resp.get("store_quarantined"), Some(Json::Bool(true)));
            let transient = matches!(code, ErrorCode::RetriesExhausted | ErrorCode::Overloaded)
                || (code == ErrorCode::Quarantined && store_quarantined);
            if transient {
                Answer::Transient(format!("{endpoint}: {code}: {message}"))
            } else {
                Answer::Final(resp)
            }
        }
        _ => Answer::Result(resp),
    }
}

/// The byte-identity key for hedge comparison: the rendered frame minus
/// the `cached` provenance field (one replica may answer from its cache
/// while the other mined; the rows must still match exactly).
pub fn normalized(resp: &Json) -> String {
    match resp {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "cached")
                .cloned()
                .collect(),
        )
        .render(),
        other => other.render(),
    }
}

impl std::fmt::Debug for FailoverClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailoverClient")
            .field("endpoints", &self.endpoints)
            .field("preferred", &self.preferred)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_distinguishes_tcp_and_unix() {
        assert_eq!(
            Endpoint::parse("127.0.0.1:7070"),
            Endpoint::Tcp("127.0.0.1:7070".into())
        );
        assert_eq!(
            Endpoint::parse("unix:/tmp/ppm.sock"),
            Endpoint::Unix(PathBuf::from("/tmp/ppm.sock"))
        );
        assert_eq!(
            Endpoint::parse("/tmp/ppm.sock"),
            Endpoint::Unix(PathBuf::from("/tmp/ppm.sock"))
        );
    }

    #[test]
    fn tcp_endpoints_connect_with_nodelay_set() {
        let server = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let endpoint = Endpoint::Tcp(server.local_addr().unwrap().to_string());
        match endpoint.connect(Duration::from_secs(5)).unwrap() {
            ClientStream::Tcp(s) => assert!(s.nodelay().unwrap()),
            ClientStream::Unix(_) => panic!("a TCP endpoint connected over a Unix socket"),
        }
    }

    #[test]
    fn jitter_is_deterministic_under_a_seed() {
        let mut a = Lcg(42);
        let mut b = Lcg(42);
        let seq_a: Vec<u64> = (0..8).map(|_| a.next()).collect();
        let seq_b: Vec<u64> = (0..8).map(|_| b.next()).collect();
        assert_eq!(seq_a, seq_b);
        let mut c = Lcg(43);
        assert_ne!(seq_a[0], c.next(), "different seed, different stream");
    }

    #[test]
    fn classify_sorts_the_taxonomy() {
        let ep = Endpoint::Tcp("127.0.0.1:1".into());
        match classify(&ep, protocol::overload_response(250)) {
            Answer::Overload(250) => {}
            _ => panic!("overload frame should classify as Overload"),
        }
        let quarantined = protocol::error_response(
            ErrorCode::Quarantined,
            "store is quarantined".into(),
            vec![("store_quarantined".to_owned(), Json::Bool(true))],
        );
        assert!(matches!(classify(&ep, quarantined), Answer::Transient(_)));
        // Data-quarantine code 4 *without* the marker is final: it means
        // the query itself asked for quarantine handling and failed.
        let other4 =
            protocol::error_response(ErrorCode::Quarantined, "bad rows".into(), Vec::new());
        assert!(matches!(classify(&ep, other4), Answer::Final(_)));
        let usage = protocol::error_response(ErrorCode::Usage, "bad period".into(), Vec::new());
        assert!(matches!(classify(&ep, usage), Answer::Final(_)));
        let exhausted = protocol::error_response(
            ErrorCode::RetriesExhausted,
            "faults survived retries".into(),
            Vec::new(),
        );
        assert!(matches!(classify(&ep, exhausted), Answer::Transient(_)));
        let ok = protocol::result_response("mine", Vec::new());
        assert!(matches!(classify(&ep, ok), Answer::Result(_)));
    }

    #[test]
    fn normalization_strips_only_cache_provenance() {
        let a = protocol::result_response(
            "mine",
            vec![
                ("rows".to_owned(), Json::Arr(vec![Json::from_u64(1)])),
                ("cached".to_owned(), Json::Str("hit".to_owned())),
            ],
        );
        let b = protocol::result_response(
            "mine",
            vec![
                ("rows".to_owned(), Json::Arr(vec![Json::from_u64(1)])),
                ("cached".to_owned(), Json::Str("miss".to_owned())),
            ],
        );
        assert_eq!(normalized(&a), normalized(&b));
        let c = protocol::result_response(
            "mine",
            vec![("rows".to_owned(), Json::Arr(vec![Json::from_u64(2)]))],
        );
        assert_ne!(normalized(&a), normalized(&c));
    }

    #[test]
    fn dead_single_endpoint_exhausts_with_bounded_attempts() {
        // Port 1 on localhost refuses immediately; the client must make
        // exactly rounds × endpoints attempts and then report exhaustion.
        let mut client = FailoverClient::new(
            vec![Endpoint::Tcp("127.0.0.1:1".into())],
            RetryPolicy {
                retries: 3,
                backoff_ms: 1,
                backoff_max_ms: 2,
                io_timeout_ms: 200,
                hedge_after_ms: None,
                seed: 7,
            },
        );
        let req = protocol::result_response("mine", Vec::new());
        match client.request(&req) {
            Err(ClientError::Exhausted {
                attempts,
                overloaded,
                ..
            }) => {
                assert_eq!(attempts, 3);
                assert!(!overloaded);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert_eq!(client.stats().attempts, 3);
        assert_eq!(client.stats().backoffs, 2, "sleeps between rounds only");
    }
}
