//! Automatic retry for transient scan failures.
//!
//! [`RetryingSource`] wraps any [`SeriesSource`] and turns transient I/O
//! failures (see [`Error::is_transient`](crate::Error::is_transient)) into silent re-scans, with capped
//! exponential backoff between attempts. Consumers see only complete,
//! in-order scans — or the final error once the [`RetryPolicy`] is
//! exhausted or a fatal error (corruption, truncation) appears.
//!
//! ## Replay without double delivery
//!
//! A failed scan may already have delivered a prefix of instants to the
//! visitor (a short read). Mining visitors are stateful — delivering
//! instant 17 twice would double-count it — so the wrapper keeps a
//! high-water mark of instants already forwarded and, on retry, re-scans
//! the inner source from the start while suppressing everything below the
//! mark. Memory stays O(1): nothing is buffered, the inner source's own
//! rewind (e.g. a file re-open) does the replay.
//!
//! [`SeriesSource::scans_performed`] reports *logical* (completed) scans,
//! so a miner running over a retried source produces statistics — and
//! therefore results — bit-identical to a fault-free run. Physical attempts
//! are available via [`RetryingSource::attempts`].

use std::time::Duration;

use crate::catalog::FeatureId;
use crate::error::Result;
use crate::source::SeriesSource;

/// When and how often to retry a failed scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum scan attempts per logical scan (including the first); at
    /// least 1.
    pub max_attempts: usize,
    /// Sleep before the first retry.
    pub initial_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// Three attempts, 10 ms initial backoff doubling up to 1 s.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts and the default backoff.
    pub fn with_max_attempts(max_attempts: usize) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..Self::default()
        }
    }

    /// Removes all backoff sleeps (useful in tests and for in-memory
    /// sources where waiting buys nothing).
    pub fn without_backoff(mut self) -> Self {
        self.initial_backoff = Duration::ZERO;
        self.max_backoff = Duration::ZERO;
        self
    }

    /// The sleep before retry number `retry` (0-based): capped exponential,
    /// `initial * 2^retry` clamped to `max_backoff`.
    pub fn backoff_for(&self, retry: u32) -> Duration {
        let exp = self
            .initial_backoff
            .saturating_mul(2u32.saturating_pow(retry));
        exp.min(self.max_backoff)
    }
}

/// A [`SeriesSource`] wrapper that retries transient scan failures
/// according to a [`RetryPolicy`]. See the module docs for the replay
/// semantics.
#[derive(Debug)]
pub struct RetryingSource<S> {
    inner: S,
    policy: RetryPolicy,
    logical_scans: usize,
    attempts: usize,
    retries: usize,
}

impl<S: SeriesSource> RetryingSource<S> {
    /// Wraps `inner` with `policy`.
    pub fn new(inner: S, policy: RetryPolicy) -> Self {
        RetryingSource {
            inner,
            policy,
            logical_scans: 0,
            attempts: 0,
            retries: 0,
        }
    }

    /// Total physical scan attempts, including failures.
    pub fn attempts(&self) -> usize {
        self.attempts
    }

    /// Number of retries performed (attempts beyond the first per scan).
    pub fn retries(&self) -> usize {
        self.retries
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps, returning the inner source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: SeriesSource> SeriesSource for RetryingSource<S> {
    fn instant_count(&self) -> usize {
        self.inner.instant_count()
    }

    fn width(&self) -> usize {
        self.inner.width()
    }

    fn scan(&mut self, visit: &mut dyn FnMut(usize, &[FeatureId])) -> Result<()> {
        // High-water mark: instants already delivered to `visit` during
        // this logical scan. Replayed attempts skip everything below it.
        let mut delivered = 0usize;
        let mut attempt = 0usize;
        loop {
            attempt += 1;
            self.attempts += 1;
            let result = self.inner.scan(&mut |t, feats| {
                if t >= delivered {
                    visit(t, feats);
                    delivered = t + 1;
                }
            });
            match result {
                Ok(()) => {
                    if attempt > 1 {
                        ppm_observe::mark("retry.recovered", || {
                            format!("logical scan completed after {attempt} attempts")
                        });
                    }
                    self.logical_scans += 1;
                    return Ok(());
                }
                Err(e) if e.is_transient() && attempt < self.policy.max_attempts => {
                    self.retries += 1;
                    let pause = self.policy.backoff_for((attempt - 1) as u32);
                    ppm_observe::counter("source.retries", 1);
                    ppm_observe::mark("retry.transient_error", || {
                        format!("attempt {attempt} failed ({e}); backing off {pause:?}")
                    });
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Completed *logical* scans — failed attempts are invisible, so scan
    /// statistics match a fault-free run exactly.
    fn scans_performed(&self) -> usize {
        self.logical_scans
    }
}

/// Convenience: wrap a source and immediately guard it against `Transient`
/// faults with the default policy minus backoff. Used by callers that want
/// resilience but have no latency to hide (tests, in-memory replays).
pub fn with_retries<S: SeriesSource>(inner: S, max_attempts: usize) -> RetryingSource<S> {
    RetryingSource::new(
        inner,
        RetryPolicy::with_max_attempts(max_attempts).without_backoff(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::fault::{Fault, FaultInjectingSource, FaultPlan};
    use crate::series::{FeatureSeries, SeriesBuilder};
    use crate::source::MemorySource;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    fn sample() -> FeatureSeries {
        let mut b = SeriesBuilder::new();
        for i in 0..6u32 {
            b.push_instant([fid(i), fid(100 + i)]);
        }
        b.finish()
    }

    fn collect(src: &mut impl SeriesSource) -> Result<Vec<(usize, Vec<FeatureId>)>> {
        let mut seen = Vec::new();
        src.scan(&mut |t, f| seen.push((t, f.to_vec())))?;
        Ok(seen)
    }

    #[test]
    fn clean_source_passes_through() {
        let series = sample();
        let mut src = with_retries(MemorySource::new(&series), 3);
        let seen = collect(&mut src).unwrap();
        assert_eq!(seen.len(), 6);
        assert_eq!(src.scans_performed(), 1);
        assert_eq!(src.attempts(), 1);
        assert_eq!(src.retries(), 0);
    }

    #[test]
    fn transient_failure_is_retried_invisibly() {
        let series = sample();
        let plan = FaultPlan::new()
            .fail_scan(0, Fault::TransientIo)
            .fail_scan(1, Fault::ShortRead { instants: 3 });
        let faulty = FaultInjectingSource::new(MemorySource::new(&series), plan);
        let mut src = with_retries(faulty, 5);

        let seen = collect(&mut src).unwrap();
        // Every instant delivered exactly once, in order.
        let expect: Vec<usize> = (0..6).collect();
        let got: Vec<usize> = seen.iter().map(|&(t, _)| t).collect();
        assert_eq!(got, expect);
        assert_eq!(seen[4].1, vec![fid(4), fid(104)]);

        // Logical count hides the two failed attempts.
        assert_eq!(src.scans_performed(), 1);
        assert_eq!(src.attempts(), 3);
        assert_eq!(src.retries(), 2);
    }

    #[test]
    fn short_read_prefix_is_not_redelivered() {
        let series = sample();
        let plan = FaultPlan::new().fail_scan(0, Fault::ShortRead { instants: 4 });
        let faulty = FaultInjectingSource::new(MemorySource::new(&series), plan);
        let mut src = with_retries(faulty, 3);
        let mut counts = vec![0usize; 6];
        src.scan(&mut |t, _| counts[t] += 1).unwrap();
        assert_eq!(counts, vec![1; 6], "each instant delivered exactly once");
    }

    #[test]
    fn attempts_exhausted_surfaces_the_error() {
        let series = sample();
        let plan = FaultPlan::new()
            .fail_scan(0, Fault::TransientIo)
            .fail_scan(1, Fault::TransientIo)
            .fail_scan(2, Fault::TransientIo);
        let faulty = FaultInjectingSource::new(MemorySource::new(&series), plan);
        let mut src = with_retries(faulty, 3);
        let err = collect(&mut src).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(src.attempts(), 3);
        assert_eq!(src.scans_performed(), 0);
        // A later scan (attempt 3 — no fault scheduled) succeeds.
        assert_eq!(collect(&mut src).unwrap().len(), 6);
        assert_eq!(src.scans_performed(), 1);
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        let series = sample();
        let plan = FaultPlan::new().fail_scan(0, Fault::Truncate { instants: 2 });
        let faulty = FaultInjectingSource::new(MemorySource::new(&series), plan);
        let mut src = with_retries(faulty, 5);
        let err = collect(&mut src).unwrap_err();
        assert!(matches!(err, Error::Truncated { .. }));
        assert_eq!(src.attempts(), 1, "fatal error must fail fast");
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(50),
        };
        assert_eq!(p.backoff_for(0), Duration::from_millis(10));
        assert_eq!(p.backoff_for(1), Duration::from_millis(20));
        assert_eq!(p.backoff_for(2), Duration::from_millis(40));
        assert_eq!(p.backoff_for(3), Duration::from_millis(50));
        assert_eq!(p.backoff_for(30), Duration::from_millis(50));
    }
}
