//! CLI error type and the exit-code taxonomy.
//!
//! Exit codes are part of the tool's contract — scripts branch on them —
//! and they are shared with the daemon's wire-level error codes
//! ([`ppm_serve::ErrorCode`]), so `ppm query` against a daemon and `ppm
//! mine` against a file exit identically for the same failure:
//!
//! | code | meaning                                                       |
//! |------|---------------------------------------------------------------|
//! | 0    | success                                                       |
//! | 1    | internal failure (I/O, mining error, audit violation, panic)  |
//! | 2    | usage: unknown command, missing/invalid flag                  |
//! | 3    | partial result: a resource guard (deadline / tree budget)     |
//! |      | tripped; partial progress stats were reported                 |
//! | 4    | quarantined: input instants were skipped; reported counts are |
//! |      | sound lower bounds, not exact                                 |
//! | 5    | transient-I/O retries exhausted: the failure survived the     |
//! |      | retry policy and is probably environmental                    |
//! | 6    | overloaded: the daemon shed the query; retry after backoff    |

use std::fmt;

use ppm_serve::ErrorCode;

/// Errors surfaced to the terminal, each mapping onto the exit-code
/// taxonomy above.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation: unknown command, missing/invalid flag.
    Usage(String),
    /// I/O failure reading or writing files or the terminal.
    Io(std::io::Error),
    /// Failure from the series substrate.
    Series(ppm_timeseries::Error),
    /// Failure from the mining layer.
    Mining(ppm_core::Error),
    /// Verification found violations: the result (or an exported claim
    /// file) failed the invariant auditor or the differential oracle.
    Audit(String),
    /// Quarantine skipped input instants: results were printed but are
    /// lower bounds, and scripts get a distinct exit code saying so.
    Quarantined {
        /// How many instants were quarantined.
        skipped: usize,
    },
    /// The daemon shed this query at admission; retry after the hint.
    Overloaded {
        /// Backoff hint from the daemon's overload response.
        retry_after_ms: u64,
    },
    /// The daemon answered with a typed error frame; the code carries
    /// straight through to the exit status.
    Daemon(ErrorCode, String),
}

impl CliError {
    /// The process exit code this error maps to (see the module table).
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => ErrorCode::Usage.exit_code(),
            CliError::Quarantined { .. } => ErrorCode::Quarantined.exit_code(),
            CliError::Overloaded { .. } => ErrorCode::Overloaded.exit_code(),
            CliError::Daemon(code, _) => code.exit_code(),
            CliError::Mining(e) => {
                if e.partial_stats().is_some() {
                    ErrorCode::PartialResult.exit_code()
                } else if e.is_transient() {
                    ErrorCode::RetriesExhausted.exit_code()
                } else {
                    ErrorCode::Internal.exit_code()
                }
            }
            CliError::Series(e) => {
                // A transient error that reaches the top means every retry
                // was spent.
                if matches!(e, ppm_timeseries::Error::ReadOnlyVersion { .. }) {
                    ErrorCode::Usage.exit_code()
                } else if e.is_transient() {
                    ErrorCode::RetriesExhausted.exit_code()
                } else {
                    ErrorCode::Internal.exit_code()
                }
            }
            _ => ErrorCode::Internal.exit_code(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Series(e) => write!(f, "series error: {e}"),
            CliError::Mining(e) => write!(f, "mining error: {e}"),
            CliError::Audit(msg) => write!(f, "verification failed: {msg}"),
            CliError::Quarantined { skipped } => write!(
                f,
                "input quarantined: {skipped} instant(s) skipped; printed counts are lower bounds"
            ),
            CliError::Overloaded { retry_after_ms } => write!(
                f,
                "daemon overloaded: query shed at admission; retry after {retry_after_ms}ms"
            ),
            CliError::Daemon(code, msg) => write!(f, "daemon error [{code}]: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<ppm_timeseries::Error> for CliError {
    fn from(e: ppm_timeseries::Error) -> Self {
        CliError::Series(e)
    }
}

impl From<ppm_core::Error> for CliError {
    fn from(e: ppm_core::Error) -> Self {
        CliError::Mining(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn exit_codes() {
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        let io: CliError = std::io::Error::other("boom").into();
        assert_eq!(io.exit_code(), 1);
        assert!(io.to_string().contains("boom"));
        assert_eq!(CliError::Audit("claims".into()).exit_code(), 1);
        let read_only: CliError = ppm_timeseries::Error::ReadOnlyVersion { version: 2 }.into();
        assert_eq!(read_only.exit_code(), 2);
    }

    #[test]
    fn guard_trips_exit_3() {
        // A zero deadline trips immediately and carries partial stats.
        let mut cat = ppm_timeseries::FeatureCatalog::new();
        let a = cat.intern("a");
        let mut b = ppm_timeseries::SeriesBuilder::new();
        for _ in 0..8 {
            b.push_instant([a]);
            b.push_instant([]);
        }
        let series = b.finish();
        let config = ppm_core::MineConfig::new(0.5)
            .unwrap()
            .with_deadline(Duration::from_secs(0));
        let err = ppm_core::hitset::mine(&series, 2, &config).unwrap_err();
        assert!(err.partial_stats().is_some());
        assert_eq!(CliError::Mining(err).exit_code(), 3);
    }

    #[test]
    fn robustness_codes_are_distinct() {
        assert_eq!(CliError::Quarantined { skipped: 3 }.exit_code(), 4);
        assert_eq!(CliError::Overloaded { retry_after_ms: 50 }.exit_code(), 6);
        assert_eq!(
            CliError::Daemon(ErrorCode::PartialResult, "slow".into()).exit_code(),
            3
        );
        assert_eq!(
            CliError::Daemon(ErrorCode::Internal, "panicked".into()).exit_code(),
            1
        );
        let quarantined = CliError::Quarantined { skipped: 3 };
        assert!(
            quarantined.to_string().contains("lower bounds"),
            "{quarantined}"
        );
    }
}
