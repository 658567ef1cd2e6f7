//! Accept with a bounded wait, shared by the daemon and the chaos proxy.
//!
//! Both accept loops block in `accept()` until a connection arrives or
//! one [`TICK`] passes with none, then run their timers (stop flag,
//! flight dumps, metrics file, store re-verification) and block again. A
//! connection is admitted the moment it arrives, never on a later poll,
//! and shutdown is still seen within one tick on an idle listener.
//!
//! The tick is `SO_RCVTIMEO` on the listening socket, which Linux honours
//! for `accept(2)` (socket(7)). Like [`crate::signal`], this module
//! declares the one C symbol it needs instead of depending on `libc`.
//!
//! An accepted TCP socket inherits the listener's `SO_RCVTIMEO`. Every
//! consumer re-arms its own read and write timeouts before each I/O (the
//! daemon's per-phase connection deadlines, the proxy's per-leg
//! timeouts), so the tick never leaks into a connection.

#![allow(unsafe_code)]

use std::ffi::c_long;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How long one `accept()` waits before its loop comes back to its
/// timers; it bounds shutdown and `SIGUSR1` latency on an idle listener.
pub(crate) const TICK: Duration = Duration::from_millis(5);

/// `SOL_SOCKET` on every platform this workspace targets.
const SOL_SOCKET: i32 = 1;
/// `SO_RCVTIMEO` on every platform this workspace targets.
const SO_RCVTIMEO: i32 = 20;

/// `struct timeval`, the value `SO_RCVTIMEO` takes.
#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const Timeval, len: u32) -> i32;
}

/// Makes `accept()` on the (blocking) `listener` wait at most `tick`.
/// A zero `tick` means "wait forever", as for any socket timeout.
pub(crate) fn set_tick(listener: &impl AsRawFd, tick: Duration) -> io::Result<()> {
    let tv = Timeval {
        tv_sec: tick.as_secs() as c_long,
        tv_usec: tick.subsec_micros() as c_long,
    };
    // SAFETY: `tv` outlives the call, `len` is its exact size, and the fd
    // is borrowed from a live listener.
    let rc = unsafe {
        setsockopt(
            listener.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVTIMEO,
            &tv,
            std::mem::size_of::<Timeval>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// One `accept()` outcome: the connection, or `None` when the tick passed
/// with none. A real error (EMFILE, ENFILE, ...) also yields `None`, after
/// a one-tick back-off so the loop cannot spin on it; it is counted in
/// `errors` when the caller keeps a count.
pub(crate) fn accepted<T>(result: io::Result<T>, errors: Option<&AtomicU64>) -> Option<T> {
    match result {
        Ok(conn) => Some(conn),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
        Err(_) => {
            if let Some(errors) = errors {
                errors.fetch_add(1, Ordering::Relaxed);
            }
            std::thread::sleep(TICK);
            None
        }
    }
}

/// [`accepted`] on a TCP listener, with Nagle's algorithm off on the
/// accepted stream: every write on these connections is a whole frame
/// the peer waits for, so holding it back for a delayed ACK only adds
/// latency. A stream that refuses the option still works, so it is kept.
pub(crate) fn accepted_tcp(
    listener: &TcpListener,
    errors: Option<&AtomicU64>,
) -> Option<TcpStream> {
    let (stream, _) = accepted(listener.accept(), errors)?;
    stream.set_nodelay(true).ok();
    Some(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::time::Instant;

    const LONG: Duration = Duration::from_secs(30);

    #[test]
    fn a_connection_is_accepted_on_arrival_not_on_the_tick() {
        let tcp = TcpListener::bind("127.0.0.1:0").unwrap();
        set_tick(&tcp, LONG).unwrap();
        let addr = tcp.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            TcpStream::connect(addr).unwrap()
        });
        let t = Instant::now();
        assert!(accepted(tcp.accept(), None).is_some());
        assert!(t.elapsed() < LONG / 2, "accept waited for the tick");
        client.join().unwrap();

        let path = std::env::temp_dir().join(format!("ppm-accept-{}.sock", std::process::id()));
        std::fs::remove_file(&path).ok();
        let unix = UnixListener::bind(&path).unwrap();
        set_tick(&unix, LONG).unwrap();
        let p = path.clone();
        let client = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            UnixStream::connect(p).unwrap()
        });
        let t = Instant::now();
        assert!(accepted(unix.accept(), None).is_some());
        assert!(t.elapsed() < LONG / 2, "accept waited for the tick");
        client.join().unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn accepted_tcp_streams_have_nodelay_set() {
        let tcp = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(tcp.local_addr().unwrap()).unwrap();
        let stream = accepted_tcp(&tcp, None).expect("a pending connection");
        assert!(stream.nodelay().unwrap());
    }

    #[test]
    fn an_idle_tick_comes_back_empty_not_as_an_error() {
        let tick = Duration::from_millis(20);
        let tcp = TcpListener::bind("127.0.0.1:0").unwrap();
        set_tick(&tcp, tick).unwrap();
        let err = tcp.accept().expect_err("no one connected");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "{err}");
        assert!(accepted(tcp.accept(), None).is_none());

        let path =
            std::env::temp_dir().join(format!("ppm-accept-idle-{}.sock", std::process::id()));
        std::fs::remove_file(&path).ok();
        let unix = UnixListener::bind(&path).unwrap();
        set_tick(&unix, tick).unwrap();
        let err = unix.accept().expect_err("no one connected");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "{err}");
        assert!(accepted(unix.accept(), None).is_none());
        std::fs::remove_file(path).ok();
    }

    /// An accept that fails for want of descriptors yields no connection
    /// and is counted; an idle tick is not an error and is not.
    #[test]
    fn accept_errors_are_counted_and_idle_ticks_are_not() {
        const EMFILE: i32 = 24;
        let errors = AtomicU64::new(0);
        let idle = io::Error::from(io::ErrorKind::WouldBlock);
        assert!(accepted::<()>(Err(idle), Some(&errors)).is_none());
        assert_eq!(errors.load(Ordering::Relaxed), 0);
        let failed = io::Error::from_raw_os_error(EMFILE);
        assert!(accepted::<()>(Err(failed), Some(&errors)).is_none());
        assert_eq!(errors.load(Ordering::Relaxed), 1);
    }
}
