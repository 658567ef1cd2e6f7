//! `ppm chaos` — the deterministic chaos proxy, as a command.
//!
//! Stands a [`ppm_serve::ChaosProxy`] in front of a running daemon so
//! soak scripts (and curious operators) can watch the client's
//! retry/failover machinery absorb delayed, truncated, corrupted,
//! duplicated, and severed responses. The fault schedule is a pure
//! function of `--seed` and the connection order — print the seed,
//! rerun it, and the exact same connections misbehave the exact same
//! way.

use std::io::Write;

use ppm_serve::chaos::{ChaosConfig, ChaosProxy};

use crate::args::Parsed;
use crate::error::CliError;

/// The flags `ppm chaos` accepts; any other is a usage error.
pub(crate) const FLAGS: &[&str] = &["upstream port seed fault-percent delay-ms"];

/// Runs the proxy until SIGTERM/SIGINT.
pub fn run(args: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let upstream = args.required("upstream")?;
    let listen_port: u16 = args.parsed_or("port", 0)?;
    let listen = format!("127.0.0.1:{listen_port}");
    let defaults = ChaosConfig::default();
    let config = ChaosConfig {
        seed: args.parsed_or("seed", defaults.seed)?,
        fault_percent: args.parsed_or("fault-percent", defaults.fault_percent)?,
        delay_ms: args.parsed_or("delay-ms", defaults.delay_ms)?,
    };
    if config.fault_percent > 100 {
        return Err(CliError::Usage("--fault-percent is a 0-100 percent".into()));
    }

    let shutdown = ppm_serve::signal::install_termination_handler();
    let proxy = ChaosProxy::bind(&listen, upstream, config.clone())?;
    writeln!(
        out,
        "chaos: seed {} fault-percent {} delay-ms {} upstream {upstream}",
        config.seed, config.fault_percent, config.delay_ms
    )?;
    // The last banner line carries the resolved address — scripts parse
    // it exactly like `ppm serve`'s.
    writeln!(out, "listening on tcp {}", proxy.local_addr())?;
    out.flush()?;

    // The proxy checks its own stop handle once per accept tick; bridge
    // the signal flag to it from a sidecar thread so Ctrl-C lands within
    // one watcher period.
    let stop = proxy.stop_handle();
    let watcher = std::thread::spawn(move || loop {
        if shutdown.is_set() {
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    });
    proxy.run()?;
    watcher.join().ok();
    writeln!(
        out,
        "chaos proxy stopped ({} connections)",
        proxy.connections()
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::cmd::testutil::run_cli;

    #[test]
    fn missing_upstream_is_usage_error() {
        let err = run_cli("chaos --port 0").unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn fault_percent_is_validated() {
        let err = run_cli("chaos --upstream 127.0.0.1:1 --fault-percent 150").unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }
}
