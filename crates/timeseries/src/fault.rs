//! Deterministic fault injection for scan sources.
//!
//! Out-of-core mining (paper §5) lives or dies on multi-scan I/O, and I/O
//! fails in practice: interrupted syscalls, flaky network mounts, files
//! truncated by a crashed writer, bit rot. [`FaultInjectingSource`] wraps
//! any [`SeriesSource`] and injects those failures *deterministically* — a
//! [`FaultPlan`] maps physical scan attempts to [`Fault`]s, so a test (or a
//! chaos run) reproduces byte-for-byte every time.
//!
//! The wrapper composes with [`crate::retry::RetryingSource`]: plant
//! transient faults on chosen attempts, wrap in a retrier, and assert the
//! mining result is bit-identical to the fault-free run.
//!
//! ```
//! use ppm_timeseries::{Fault, FaultInjectingSource, FaultPlan, MemorySource, SeriesSource};
//! use ppm_timeseries::SeriesBuilder;
//!
//! let mut b = SeriesBuilder::new();
//! b.push_instant([]);
//! let series = b.finish();
//! let plan = FaultPlan::new().fail_scan(0, Fault::TransientIo);
//! let mut src = FaultInjectingSource::new(MemorySource::new(&series), plan);
//! assert!(src.scan(&mut |_, _| {}).unwrap_err().is_transient()); // attempt 0 fails
//! assert!(src.scan(&mut |_, _| {}).is_ok()); // attempt 1 clean
//! assert_eq!(src.attempts(), 2);
//! assert_eq!(src.faults_injected(), 1);
//! ```

use std::collections::BTreeMap;

use crate::catalog::FeatureId;
use crate::error::{Error, Result};
use crate::source::SeriesSource;

/// One injected failure mode, applied to a single scan attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The scan fails immediately with a transient I/O error
    /// (`io::ErrorKind::Interrupted`), delivering nothing.
    TransientIo,
    /// A short read: the scan delivers the first `instants` instants, then
    /// fails with a transient I/O error.
    ShortRead {
        /// Number of instants delivered before the failure.
        instants: usize,
    },
    /// Silent corruption: every instant is delivered and the scan reports
    /// success, but the feature set of one instant has a bit flipped.
    /// Models data damaged *past* the storage layer's checksums.
    BitFlip {
        /// The instant whose features are corrupted.
        instant: usize,
    },
    /// Truncation: the scan delivers the first `instants` instants, then
    /// fails with the fatal [`Error::Truncated`].
    Truncate {
        /// Number of instants delivered before the cut.
        instants: usize,
    },
    /// Semantic garbage: one instant's feature set is delivered with a
    /// duplicated trailing id, violating the sorted-and-deduplicated scan
    /// contract while the scan still reports success. Models an upstream
    /// producer bug; [`crate::quarantine::QuarantiningSource`] catches it.
    Garbage {
        /// The instant whose features are malformed.
        instant: usize,
    },
}

/// A deterministic schedule of faults, keyed by physical scan attempt
/// (0-based: the first `scan()` call on the wrapper is attempt 0).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: BTreeMap<usize, Fault>,
}

impl FaultPlan {
    /// An empty plan: every scan passes through untouched.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `fault` for scan attempt `attempt` (replacing any fault
    /// already scheduled there).
    pub fn fail_scan(mut self, attempt: usize, fault: Fault) -> Self {
        self.faults.insert(attempt, fault);
        self
    }

    /// A seeded pseudo-random plan: each of the first `attempts` scan
    /// attempts independently gets a transient fault with probability
    /// `rate` (a short read at a pseudo-random cut point). Deterministic in
    /// `seed` — the same seed schedules the same faults on every run.
    pub fn seeded(seed: u64, attempts: usize, rate: f64) -> Self {
        // SplitMix64: the same dependency-free generator ppm-datagen uses.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut plan = FaultPlan::new();
        for attempt in 0..attempts {
            let coin = (next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let cut = next() as usize % 1024;
            if coin < rate {
                plan = plan.fail_scan(attempt, Fault::ShortRead { instants: cut });
            }
        }
        plan
    }

    /// The fault scheduled for `attempt`, if any.
    pub fn fault_for(&self, attempt: usize) -> Option<&Fault> {
        self.faults.get(&attempt)
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// A [`SeriesSource`] wrapper that injects the faults of a [`FaultPlan`]
/// into chosen scan attempts, passing all other scans through untouched.
#[derive(Debug)]
pub struct FaultInjectingSource<S> {
    inner: S,
    plan: FaultPlan,
    attempts: usize,
    injected: usize,
}

impl<S: SeriesSource> FaultInjectingSource<S> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultInjectingSource {
            inner,
            plan,
            attempts: 0,
            injected: 0,
        }
    }

    /// Total scan attempts observed (successful or failed).
    pub fn attempts(&self) -> usize {
        self.attempts
    }

    /// Number of faults actually injected so far.
    pub fn faults_injected(&self) -> usize {
        self.injected
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

impl<S: SeriesSource> SeriesSource for FaultInjectingSource<S> {
    fn instant_count(&self) -> usize {
        self.inner.instant_count()
    }

    fn width(&self) -> usize {
        self.inner.width()
    }

    fn scan(&mut self, visit: &mut dyn FnMut(usize, &[FeatureId])) -> Result<()> {
        let attempt = self.attempts;
        self.attempts += 1;
        let Some(fault) = self.plan.fault_for(attempt).cloned() else {
            return self.inner.scan(visit);
        };
        self.injected += 1;
        ppm_observe::counter("faults.injected", 1);
        ppm_observe::mark("fault.injected", || {
            format!("{fault:?} on scan attempt {attempt}")
        });
        match fault {
            Fault::TransientIo => Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!("injected transient i/o fault on scan attempt {attempt}"),
            ))),
            Fault::ShortRead { instants } => {
                // Forward a prefix, swallow the rest of the inner scan, then
                // report the interruption.
                self.inner.scan(&mut |t, feats| {
                    if t < instants {
                        visit(t, feats);
                    }
                })?;
                Err(Error::Io(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    format!(
                        "injected short read after {instants} instants \
                         on scan attempt {attempt}"
                    ),
                )))
            }
            Fault::BitFlip { instant } => {
                let mut scratch: Vec<FeatureId> = Vec::new();
                self.inner.scan(&mut |t, feats| {
                    if t == instant {
                        scratch.clear();
                        scratch.extend_from_slice(feats);
                        match scratch.first().copied() {
                            Some(f) => scratch[0] = FeatureId::from_raw(f.raw() ^ 1),
                            None => scratch.push(FeatureId::from_raw(0)),
                        }
                        scratch.sort_unstable();
                        scratch.dedup();
                        visit(t, &scratch);
                    } else {
                        visit(t, feats);
                    }
                })
            }
            Fault::Truncate { instants } => {
                self.inner.scan(&mut |t, feats| {
                    if t < instants {
                        visit(t, feats);
                    }
                })?;
                Err(Error::Truncated {
                    detail: format!(
                        "injected truncation after {instants} instants \
                         on scan attempt {attempt}"
                    ),
                })
            }
            Fault::Garbage { instant } => {
                let mut scratch: Vec<FeatureId> = Vec::new();
                self.inner.scan(&mut |t, feats| {
                    if t == instant {
                        scratch.clear();
                        scratch.extend_from_slice(feats);
                        // Duplicate the last id (or fabricate a pair): the
                        // set is now invalid however the original looked.
                        let dup = scratch.last().copied().unwrap_or(FeatureId::from_raw(0));
                        scratch.push(dup);
                        if scratch.len() == 1 {
                            scratch.push(dup);
                        }
                        visit(t, &scratch);
                    } else {
                        visit(t, feats);
                    }
                })
            }
        }
    }

    fn scans_performed(&self) -> usize {
        self.attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesBuilder;
    use crate::source::MemorySource;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    fn sample() -> crate::series::FeatureSeries {
        let mut b = SeriesBuilder::new();
        b.push_instant([fid(1)]);
        b.push_instant([fid(2), fid(3)]);
        b.push_instant([]);
        b.push_instant([fid(4)]);
        b.finish()
    }

    #[test]
    fn clean_plan_passes_through() {
        let series = sample();
        let mut src = FaultInjectingSource::new(MemorySource::new(&series), FaultPlan::new());
        let mut seen = Vec::new();
        src.scan(&mut |t, f| seen.push((t, f.to_vec()))).unwrap();
        assert_eq!(seen.len(), 4);
        assert_eq!(src.attempts(), 1);
        assert_eq!(src.faults_injected(), 0);
    }

    #[test]
    fn transient_fault_fires_once_then_clears() {
        let series = sample();
        let plan = FaultPlan::new().fail_scan(0, Fault::TransientIo);
        let mut src = FaultInjectingSource::new(MemorySource::new(&series), plan);
        let err = src.scan(&mut |_, _| {}).unwrap_err();
        assert!(err.is_transient(), "{err}");
        src.scan(&mut |_, _| {}).unwrap();
        assert_eq!(src.attempts(), 2);
        assert_eq!(src.faults_injected(), 1);
    }

    #[test]
    fn short_read_delivers_prefix() {
        let series = sample();
        let plan = FaultPlan::new().fail_scan(0, Fault::ShortRead { instants: 2 });
        let mut src = FaultInjectingSource::new(MemorySource::new(&series), plan);
        let mut seen = Vec::new();
        let err = src.scan(&mut |t, _| seen.push(t)).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn bit_flip_corrupts_one_instant_silently() {
        let series = sample();
        let plan = FaultPlan::new().fail_scan(0, Fault::BitFlip { instant: 1 });
        let mut src = FaultInjectingSource::new(MemorySource::new(&series), plan);
        let mut seen = Vec::new();
        src.scan(&mut |t, f| seen.push((t, f.to_vec()))).unwrap();
        assert_eq!(seen[0].1, vec![fid(1)]);
        assert_ne!(
            seen[1].1,
            vec![fid(2), fid(3)],
            "instant 1 should be corrupted"
        );
        assert_eq!(seen[3].1, vec![fid(4)]);
    }

    #[test]
    fn truncation_is_fatal() {
        let series = sample();
        let plan = FaultPlan::new().fail_scan(0, Fault::Truncate { instants: 1 });
        let mut src = FaultInjectingSource::new(MemorySource::new(&series), plan);
        let err = src.scan(&mut |_, _| {}).unwrap_err();
        assert!(!err.is_transient());
        assert!(matches!(err, Error::Truncated { .. }));
    }

    #[test]
    fn seeded_plan_is_deterministic() {
        let a = FaultPlan::seeded(99, 50, 0.3);
        let b = FaultPlan::seeded(99, 50, 0.3);
        assert!(!a.is_empty());
        for i in 0..50 {
            assert_eq!(a.fault_for(i), b.fault_for(i));
        }
        let c = FaultPlan::seeded(100, 50, 0.3);
        assert!((0..50).any(|i| a.fault_for(i) != c.fault_for(i)));
    }
}
