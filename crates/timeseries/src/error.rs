//! Error type shared by the time-series substrate.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by series construction, storage, and derivation.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// A stored series file is malformed: a structural check or checksum
    /// failed on bytes that are present.
    Corrupt {
        /// Human-readable description of what check failed.
        detail: String,
    },
    /// A stored series ended before the rows it commits: a file cut short
    /// under a scan (or a fault plan's injected cut). Fatal, like
    /// [`Error::Corrupt`]: a retry would read the same short file.
    Truncated {
        /// Human-readable description of where the data ran out.
        detail: String,
    },
    /// A text import line could not be parsed.
    Parse {
        /// 1-based line number within the input.
        line: usize,
        /// Human-readable description of the problem.
        detail: String,
    },
    /// A period of zero, or one longer than the series, was requested.
    InvalidPeriod {
        /// The offending period.
        period: usize,
        /// The length of the series it was applied to.
        series_len: usize,
    },
    /// A feature id not present in the catalog was referenced.
    UnknownFeature {
        /// The raw id that failed to resolve.
        id: u32,
    },
    /// Discretization was asked to produce zero bins or received no data.
    InvalidDiscretization {
        /// Human-readable description of the problem.
        detail: String,
    },
    /// A taxonomy edge would create a cycle or orphan.
    InvalidTaxonomy {
        /// Human-readable description of the problem.
        detail: String,
    },
    /// An append was asked of a `.ppmc` store older than version 3: only
    /// version 3 has the commit slots an in-place append publishes
    /// through. The store stays readable; `ppm convert` rewrites it as
    /// version 3.
    ReadOnlyVersion {
        /// The store's format version (1 or 2).
        version: u32,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Corrupt { detail } => write!(f, "corrupt series file: {detail}"),
            Error::Truncated { detail } => write!(f, "truncated series file: {detail}"),
            Error::Parse { line, detail } => write!(f, "parse error at line {line}: {detail}"),
            Error::InvalidPeriod { period, series_len } => write!(
                f,
                "invalid period {period} for series of length {series_len} \
                 (need 1 <= period <= length)"
            ),
            Error::UnknownFeature { id } => write!(f, "feature id {id} not in catalog"),
            Error::InvalidDiscretization { detail } => {
                write!(f, "invalid discretization: {detail}")
            }
            Error::InvalidTaxonomy { detail } => write!(f, "invalid taxonomy: {detail}"),
            Error::ReadOnlyVersion { version } => write!(
                f,
                ".ppmc version {version} store is read-only: appends need version 3 \
                 (rewrite it with `ppm convert --input STORE --out NEW.ppmc`)"
            ),
        }
    }
}

impl Error {
    /// Whether retrying the failed operation could plausibly succeed.
    ///
    /// Transient failures are I/O interruptions that clear on their own —
    /// an interrupted syscall, a timeout, a would-block on a busy volume.
    /// Everything else (corruption, truncation, missing files, semantic
    /// errors) is deterministic: retrying re-reads the same bad bytes, so
    /// sources like [`crate::retry::RetryingSource`] fail fast instead.
    pub fn is_transient(&self) -> bool {
        match self {
            Error::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
            ),
            _ => false,
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::InvalidPeriod {
            period: 0,
            series_len: 10,
        };
        assert!(e.to_string().contains("invalid period 0"));
        let e = Error::Parse {
            line: 3,
            detail: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let e = Error::Corrupt {
            detail: "bad magic".into(),
        };
        assert!(e.to_string().contains("bad magic"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        use std::error::Error as _;
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        let e: Error = io.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("eof"));
    }
}
