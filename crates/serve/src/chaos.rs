//! A deterministic chaos proxy for torturing the wire path.
//!
//! [`ChaosProxy`] sits between a client and a daemon and misbehaves on
//! purpose: it delays responses, truncates them mid-frame, corrupts
//! their payload bytes, duplicates them, and severs connections before
//! or midway through an answer. Every decision comes from a seeded
//! counter-keyed generator — the same seed and connection order replay
//! the exact same faults, so a soak failure is reproducible by rerunning
//! with the seed it printed.
//!
//! The proxy disturbs only the *response* path. Requests are forwarded
//! verbatim: the point is to prove the client's retry/failover machinery
//! survives a hostile network, and a mangled request would test the
//! daemon instead (the wire-fuzz tests do that directly).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::accept;

/// Tuning for the proxy's misbehavior.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Percent of connections disturbed (0–100); the rest pass through.
    pub fault_percent: u8,
    /// How long a `delay` fault stalls the response (ms).
    pub delay_ms: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4405,
            fault_percent: 60,
            delay_ms: 100,
        }
    }
}

/// The faults the proxy can inject on one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// Forward everything untouched.
    Passthrough,
    /// Stall before forwarding the response.
    Delay,
    /// Forward only the first half of the response frame, then close.
    Truncate,
    /// Flip bytes inside the response payload (valid length, garbage
    /// JSON).
    Corrupt,
    /// Forward the response twice.
    Duplicate,
    /// Close the connection without forwarding any response at all.
    Sever,
}

impl ChaosFault {
    /// The stable lowercase name used in marks and logs.
    pub fn name(self) -> &'static str {
        match self {
            ChaosFault::Passthrough => "passthrough",
            ChaosFault::Delay => "delay",
            ChaosFault::Truncate => "truncate",
            ChaosFault::Corrupt => "corrupt",
            ChaosFault::Duplicate => "duplicate",
            ChaosFault::Sever => "sever",
        }
    }
}

/// The deterministic fault for connection number `index` under `config`.
/// Exposed so tests can predict (and assert) the schedule.
pub fn fault_for(config: &ChaosConfig, index: u64) -> ChaosFault {
    // splitmix64: counter-keyed draws stay well mixed even though the
    // inputs (seed + connection index) form an arithmetic progression —
    // a plain LCG over such inputs visibly biases the `% 5` below.
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut state = config
        .seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(state)
    };
    if next() % 100 >= config.fault_percent as u64 {
        return ChaosFault::Passthrough;
    }
    match next() % 5 {
        0 => ChaosFault::Delay,
        1 => ChaosFault::Truncate,
        2 => ChaosFault::Corrupt,
        3 => ChaosFault::Duplicate,
        _ => ChaosFault::Sever,
    }
}

/// The proxy. Bind, learn the local address, then [`run`](Self::run) it
/// (usually on its own thread); flip the stop handle to wind it down.
pub struct ChaosProxy {
    listener: TcpListener,
    local: SocketAddr,
    upstream: String,
    config: ChaosConfig,
    stop: Arc<AtomicBool>,
    conns: Arc<AtomicU64>,
}

impl ChaosProxy {
    /// Binds `127.0.0.1:0` (or the given listen address) in front of the
    /// TCP upstream `upstream`.
    pub fn bind(listen: &str, upstream: &str, config: ChaosConfig) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind(listen)?;
        let local = listener.local_addr()?;
        Ok(ChaosProxy {
            listener,
            local,
            upstream: upstream.to_owned(),
            config,
            stop: Arc::new(AtomicBool::new(false)),
            conns: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Store `true` to make [`run`](Self::run) return.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        self.stop.clone()
    }

    /// Total connections proxied so far.
    pub fn connections(&self) -> u64 {
        self.conns.load(Ordering::Relaxed)
    }

    /// Accepts and proxies until stopped. Each connection gets its own
    /// thread and its own deterministic fault.
    pub fn run(&self) -> io::Result<()> {
        accept::set_tick(&self.listener, accept::TICK)?;
        std::thread::scope(|scope| loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            if let Some(client) = accept::accepted_tcp(&self.listener, None) {
                let index = self.conns.fetch_add(1, Ordering::Relaxed);
                let fault = fault_for(&self.config, index);
                ppm_observe::mark("chaos.conn", || format!("conn {index}: {}", fault.name()));
                let upstream = self.upstream.clone();
                let delay = self.config.delay_ms;
                scope.spawn(move || {
                    let _ = proxy_conn(client, &upstream, fault, delay);
                });
            }
        });
        Ok(())
    }
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("local", &self.local)
            .field("upstream", &self.upstream)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Reads one raw length-prefixed frame (header + payload bytes).
/// `Ok(None)` on clean EOF before the first byte.
fn read_raw_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "closed mid-header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > crate::protocol::MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oversized frame through proxy",
        ));
    }
    let mut frame = vec![0u8; 4 + len];
    frame[..4].copy_from_slice(&header);
    r.read_exact(&mut frame[4..])?;
    Ok(Some(frame))
}

/// Both legs of one proxied connection: the accepted client and a fresh
/// upstream connection. Each gets its own timeouts, which also replace
/// the accept tick the client socket inherits from the listener, and
/// Nagle's algorithm off, like every other leg of the wire.
fn legs(client: TcpStream, upstream: &str) -> io::Result<(TcpStream, TcpStream)> {
    let timeout = Some(Duration::from_secs(10));
    let up = TcpStream::connect(upstream)?;
    for leg in [&client, &up] {
        leg.set_read_timeout(timeout)?;
        leg.set_write_timeout(timeout)?;
        leg.set_nodelay(true)?;
    }
    Ok((client, up))
}

/// Proxies one connection: forward each request verbatim, disturb the
/// response per the fault.
fn proxy_conn(
    client: TcpStream,
    upstream: &str,
    fault: ChaosFault,
    delay_ms: u64,
) -> io::Result<()> {
    let (mut client, mut up) = legs(client, upstream)?;
    loop {
        let Some(req) = read_raw_frame(&mut client)? else {
            return Ok(());
        };
        up.write_all(&req)?;
        up.flush()?;
        let Some(resp) = read_raw_frame(&mut up)? else {
            return Ok(());
        };
        match fault {
            ChaosFault::Passthrough => {
                client.write_all(&resp)?;
            }
            ChaosFault::Delay => {
                std::thread::sleep(Duration::from_millis(delay_ms));
                client.write_all(&resp)?;
            }
            ChaosFault::Truncate => {
                // Half the frame, then a hard close: the client sees a
                // clean header and a payload that ends mid-JSON.
                client.write_all(&resp[..resp.len() / 2])?;
                client.flush()?;
                return Ok(());
            }
            ChaosFault::Corrupt => {
                let mut bad = resp.clone();
                // Stomp payload bytes with invalid UTF-8 — the length
                // stays honest so the framer accepts the frame, and the
                // damage is *guaranteed* to be caught at the UTF-8/JSON
                // layer. (A bit flip that lands inside a string literal
                // can yield valid JSON with silently different data —
                // undetectable without an end-to-end checksum, and not
                // what this fault is for.)
                let start = 4 + (bad.len() - 4) / 3;
                for b in bad.iter_mut().skip(start).take(8) {
                    *b = 0xFF;
                }
                client.write_all(&bad)?;
            }
            ChaosFault::Duplicate => {
                client.write_all(&resp)?;
                client.write_all(&resp)?;
            }
            ChaosFault::Sever => {
                // Swallow the response entirely and drop the connection.
                return Ok(());
            }
        }
        client.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_proxy_legs_have_nodelay_set() {
        let front = TcpListener::bind("127.0.0.1:0").unwrap();
        let back = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(front.local_addr().unwrap()).unwrap();
        let (client, _) = front.accept().unwrap();
        let (client, up) = legs(client, &back.local_addr().unwrap().to_string()).unwrap();
        assert!(client.nodelay().unwrap());
        assert!(up.nodelay().unwrap());
    }

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let config = ChaosConfig {
            seed: 1234,
            fault_percent: 100,
            delay_ms: 1,
        };
        let a: Vec<ChaosFault> = (0..32).map(|i| fault_for(&config, i)).collect();
        let b: Vec<ChaosFault> = (0..32).map(|i| fault_for(&config, i)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        let other = ChaosConfig {
            seed: 4321,
            ..config.clone()
        };
        let c: Vec<ChaosFault> = (0..32).map(|i| fault_for(&other, i)).collect();
        assert_ne!(a, c, "different seed, different schedule");
        // At 100% every connection is disturbed.
        assert!(a.iter().all(|f| *f != ChaosFault::Passthrough));
        // And the generator visits every fault kind over 32 connections.
        for want in [
            ChaosFault::Delay,
            ChaosFault::Truncate,
            ChaosFault::Corrupt,
            ChaosFault::Duplicate,
            ChaosFault::Sever,
        ] {
            assert!(a.contains(&want), "schedule never picked {want:?}");
        }
    }

    #[test]
    fn zero_percent_is_all_passthrough() {
        let config = ChaosConfig {
            seed: 9,
            fault_percent: 0,
            delay_ms: 1,
        };
        assert!((0..64).all(|i| fault_for(&config, i) == ChaosFault::Passthrough));
    }

    #[test]
    fn an_idle_proxy_stops_within_a_second() {
        let proxy = ChaosProxy::bind("127.0.0.1:0", "127.0.0.1:9", ChaosConfig::default()).unwrap();
        let stop = proxy.stop_handle();
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || done.send(proxy.run().is_ok()).unwrap());
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::SeqCst);
        assert_eq!(finished.recv_timeout(Duration::from_secs(1)), Ok(true));
    }
}
