//! Input quarantine: isolating malformed instants instead of trusting them.
//!
//! The miners' correctness argument assumes every instant delivers a
//! sorted, deduplicated, in-range feature set — the invariant
//! [`SeriesSource::scan`] promises. Storage checksums catch *byte* damage,
//! but a buggy exporter, a schema drift, or corruption past the checksum
//! layer can deliver structurally well-formed bytes that violate the
//! *semantic* contract. [`QuarantiningSource`] validates every instant at
//! the scan boundary and, instead of letting bad data poison the counts:
//!
//! * in [`QuarantineMode::Quarantine`], replaces the offending instant with
//!   the **empty feature set** and records it (instant index, reason, raw
//!   bytes) in a [`QuarantineReport`]. An empty instant matches no letter,
//!   so every pattern count — and therefore every confidence — computed
//!   over a quarantined scan is a *sound lower bound* on the true value;
//! * in [`QuarantineMode::Reject`], completes the scan, then fails with a
//!   typed [`Error::Corrupt`] naming the first offending instant
//!   (fail-fast for pipelines that would rather abort than approximate).
//!
//! The wrapper composes with [`crate::fault::FaultInjectingSource`] (which
//! can plant [`crate::fault::Fault::Garbage`]) and
//! [`crate::retry::RetryingSource`] like any other source.
//!
//! ```
//! use ppm_timeseries::{Fault, FaultInjectingSource, FaultPlan, MemorySource};
//! use ppm_timeseries::{QuarantineMode, QuarantiningSource, SeriesSource, SeriesBuilder};
//!
//! let mut b = SeriesBuilder::new();
//! for _ in 0..4 {
//!     b.push_instant([ppm_timeseries::FeatureId::from_raw(1)]);
//! }
//! let series = b.finish();
//! let plan = FaultPlan::new().fail_scan(0, Fault::Garbage { instant: 2 });
//! let faulty = FaultInjectingSource::new(MemorySource::new(&series), plan);
//! let mut src = QuarantiningSource::new(faulty, QuarantineMode::Quarantine);
//! let mut widths = Vec::new();
//! src.scan(&mut |_, feats| widths.push(feats.len())).unwrap();
//! assert_eq!(widths[2], 0); // the garbage instant was emptied …
//! assert_eq!(src.report().len(), 1); // … and recorded.
//! ```

use std::collections::BTreeMap;
use std::fmt;

use crate::catalog::FeatureId;
use crate::error::{Error, Result};
use crate::source::SeriesSource;

/// How many leading feature ids of a malformed instant are preserved as
/// raw bytes in its [`QuarantinedInstant`] record.
const BYTES_CAP: usize = 16;

/// What a [`QuarantiningSource`] does when an instant fails validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuarantineMode {
    /// Skip the instant (deliver the empty feature set), record it, and
    /// keep scanning. Downstream counts are sound lower bounds.
    #[default]
    Quarantine,
    /// Finish the scan, then fail with [`Error::Corrupt`] naming the first
    /// malformed instant.
    Reject,
}

/// Why an instant was quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuarantineReason {
    /// A feature id was smaller than its predecessor — the set is not
    /// sorted, so the miners' merge logic would miscount.
    UnsortedFeatures {
        /// 0-based position of the out-of-order id within the instant.
        position: usize,
    },
    /// The same feature id appeared twice; a duplicate would double-count
    /// one letter's contribution to every containing pattern.
    DuplicateFeature {
        /// The repeated raw id.
        id: u32,
    },
    /// A feature id exceeded the declared catalog bound.
    FeatureOutOfRange {
        /// The offending raw id.
        id: u32,
        /// The largest raw id the policy admits.
        max: u32,
    },
    /// The instant carried more features than the policy's width limit —
    /// usually a framing error upstream, not real data.
    TooManyFeatures {
        /// How many features the instant carried.
        count: usize,
        /// The configured limit.
        limit: usize,
    },
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::UnsortedFeatures { position } => {
                write!(f, "features unsorted at position {position}")
            }
            QuarantineReason::DuplicateFeature { id } => {
                write!(f, "duplicate feature id {id}")
            }
            QuarantineReason::FeatureOutOfRange { id, max } => {
                write!(f, "feature id {id} out of range (max {max})")
            }
            QuarantineReason::TooManyFeatures { count, limit } => {
                write!(f, "{count} features exceeds width limit {limit}")
            }
        }
    }
}

/// One quarantined instant: everything needed to reproduce the decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedInstant {
    /// 0-based instant index within the series.
    pub instant: usize,
    /// Why it failed validation.
    pub reason: QuarantineReason,
    /// The first feature ids as delivered, little-endian `u32`s (at most
    /// 16 ids), so the offending payload survives in the report
    /// even after the source is gone.
    pub bytes: Vec<u8>,
}

/// The cumulative record of everything a [`QuarantiningSource`] skipped.
///
/// Entries are deduplicated by instant index (a two-scan mine sees the
/// same bad instant twice but reports it once); [`total_skips`] counts
/// every suppression including repeats.
///
/// [`total_skips`]: QuarantineReport::total_skips
#[derive(Debug, Clone, Default)]
pub struct QuarantineReport {
    entries: BTreeMap<usize, QuarantinedInstant>,
    total_skips: usize,
}

impl QuarantineReport {
    /// Number of distinct quarantined instants.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every suppression across all scans, repeats included.
    pub fn total_skips(&self) -> usize {
        self.total_skips
    }

    /// The quarantined instants in index order.
    pub fn entries(&self) -> impl Iterator<Item = &QuarantinedInstant> {
        self.entries.values()
    }

    fn record(&mut self, instant: usize, reason: QuarantineReason, feats: &[FeatureId]) {
        self.total_skips += 1;
        self.entries.entry(instant).or_insert_with(|| {
            let mut bytes = Vec::with_capacity(feats.len().min(BYTES_CAP) * 4);
            for f in feats.iter().take(BYTES_CAP) {
                bytes.extend_from_slice(&f.raw().to_le_bytes());
            }
            QuarantinedInstant {
                instant,
                reason,
                bytes,
            }
        });
    }
}

/// Checks one instant against the scan contract (strictly increasing
/// feature ids) and the optional policy bounds.
fn validate(
    feats: &[FeatureId],
    max_feature: Option<u32>,
    max_width: Option<usize>,
) -> Option<QuarantineReason> {
    if let Some(limit) = max_width {
        if feats.len() > limit {
            return Some(QuarantineReason::TooManyFeatures {
                count: feats.len(),
                limit,
            });
        }
    }
    for (i, pair) in feats.windows(2).enumerate() {
        if pair[1].raw() == pair[0].raw() {
            return Some(QuarantineReason::DuplicateFeature { id: pair[1].raw() });
        }
        if pair[1].raw() < pair[0].raw() {
            return Some(QuarantineReason::UnsortedFeatures { position: i + 1 });
        }
    }
    if let Some(max) = max_feature {
        for f in feats {
            if f.raw() > max {
                return Some(QuarantineReason::FeatureOutOfRange { id: f.raw(), max });
            }
        }
    }
    None
}

/// A [`SeriesSource`] wrapper that validates every instant and quarantines
/// (or rejects on) the ones that violate the scan contract.
#[derive(Debug)]
pub struct QuarantiningSource<S> {
    inner: S,
    mode: QuarantineMode,
    max_feature: Option<u32>,
    max_width: Option<usize>,
    report: QuarantineReport,
}

impl<S: SeriesSource> QuarantiningSource<S> {
    /// Wraps `inner` with contract validation only (sortedness and
    /// deduplication); no range or width bounds.
    pub fn new(inner: S, mode: QuarantineMode) -> Self {
        QuarantiningSource {
            inner,
            mode,
            max_feature: None,
            max_width: None,
            report: QuarantineReport::default(),
        }
    }

    /// Additionally quarantines instants carrying a feature id above
    /// `max` — use the catalog's largest interned id.
    pub fn with_max_feature(mut self, max: u32) -> Self {
        self.max_feature = Some(max);
        self
    }

    /// Additionally quarantines instants wider than `limit` features.
    pub fn with_max_width(mut self, limit: usize) -> Self {
        self.max_width = Some(limit);
        self
    }

    /// What has been quarantined so far.
    pub fn report(&self) -> &QuarantineReport {
        &self.report
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps, returning the inner source and the final report.
    pub fn into_parts(self) -> (S, QuarantineReport) {
        (self.inner, self.report)
    }
}

impl<S: SeriesSource> SeriesSource for QuarantiningSource<S> {
    fn instant_count(&self) -> usize {
        self.inner.instant_count()
    }

    fn width(&self) -> usize {
        self.inner.width()
    }

    fn scan(&mut self, visit: &mut dyn FnMut(usize, &[FeatureId])) -> Result<()> {
        let (max_feature, max_width) = (self.max_feature, self.max_width);
        let report = &mut self.report;
        let mut first_bad: Option<(usize, QuarantineReason)> = None;
        self.inner.scan(&mut |t, feats| {
            match validate(feats, max_feature, max_width) {
                None => visit(t, feats),
                Some(reason) => {
                    ppm_observe::counter("quarantine.skipped", 1);
                    ppm_observe::mark("quarantine.instant", || format!("instant {t}: {reason}"));
                    if first_bad.is_none() {
                        first_bad = Some((t, reason.clone()));
                    }
                    report.record(t, reason, feats);
                    // The empty set matches nothing: downstream counts
                    // become sound lower bounds instead of garbage.
                    visit(t, &[]);
                }
            }
        })?;
        match (self.mode, first_bad) {
            (QuarantineMode::Reject, Some((t, reason))) => Err(Error::Corrupt {
                detail: format!(
                    "instant {t} failed validation: {reason} \
                     (quarantine mode would skip it and continue)"
                ),
            }),
            _ => Ok(()),
        }
    }

    fn scans_performed(&self) -> usize {
        self.inner.scans_performed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultInjectingSource, FaultPlan};
    use crate::series::SeriesBuilder;
    use crate::source::MemorySource;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    fn sample() -> crate::series::FeatureSeries {
        let mut b = SeriesBuilder::new();
        b.push_instant([fid(1)]);
        b.push_instant([fid(2), fid(3)]);
        b.push_instant([fid(1), fid(4)]);
        b.push_instant([fid(2)]);
        b.finish()
    }

    #[test]
    fn validate_catches_each_contract_breach() {
        assert_eq!(validate(&[fid(1), fid(2)], None, None), None);
        assert_eq!(validate(&[], None, None), None);
        assert!(matches!(
            validate(&[fid(2), fid(1)], None, None),
            Some(QuarantineReason::UnsortedFeatures { position: 1 })
        ));
        assert!(matches!(
            validate(&[fid(2), fid(2)], None, None),
            Some(QuarantineReason::DuplicateFeature { id: 2 })
        ));
        assert!(matches!(
            validate(&[fid(1), fid(9)], Some(4), None),
            Some(QuarantineReason::FeatureOutOfRange { id: 9, max: 4 })
        ));
        assert!(matches!(
            validate(&[fid(1), fid(2), fid(3)], None, Some(2)),
            Some(QuarantineReason::TooManyFeatures { count: 3, limit: 2 })
        ));
    }

    #[test]
    fn clean_source_passes_through_unreported() {
        let series = sample();
        let mut src =
            QuarantiningSource::new(MemorySource::new(&series), QuarantineMode::Quarantine);
        let mut seen = Vec::new();
        src.scan(&mut |t, f| seen.push((t, f.to_vec()))).unwrap();
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[1].1, vec![fid(2), fid(3)]);
        assert!(src.report().is_empty());
    }

    #[test]
    fn garbage_instant_is_emptied_and_recorded() {
        let series = sample();
        let plan = FaultPlan::new()
            .fail_scan(0, Fault::Garbage { instant: 1 })
            .fail_scan(1, Fault::Garbage { instant: 1 });
        let faulty = FaultInjectingSource::new(MemorySource::new(&series), plan);
        let mut src = QuarantiningSource::new(faulty, QuarantineMode::Quarantine);
        for _ in 0..2 {
            let mut seen = Vec::new();
            src.scan(&mut |t, f| seen.push((t, f.to_vec()))).unwrap();
            assert_eq!(seen[1].1, Vec::<FeatureId>::new());
            assert_eq!(seen[0].1, vec![fid(1)]);
            assert_eq!(seen[3].1, vec![fid(2)]);
        }
        // Two scans, one distinct instant, two suppressions.
        let report = src.report();
        assert_eq!(report.len(), 1);
        assert_eq!(report.total_skips(), 2);
        let entry = report.entries().next().unwrap();
        assert_eq!(entry.instant, 1);
        assert!(!entry.bytes.is_empty());
        assert_eq!(entry.bytes.len() % 4, 0);
    }

    #[test]
    fn reject_mode_fails_with_typed_error_naming_the_instant() {
        let series = sample();
        let plan = FaultPlan::new().fail_scan(0, Fault::Garbage { instant: 2 });
        let faulty = FaultInjectingSource::new(MemorySource::new(&series), plan);
        let mut src = QuarantiningSource::new(faulty, QuarantineMode::Reject);
        let err = src.scan(&mut |_, _| {}).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }));
        assert!(err.to_string().contains("instant 2"), "{err}");
        assert!(!err.is_transient());
    }

    #[test]
    fn policy_bounds_quarantine_out_of_range_and_wide_instants() {
        let series = sample();
        let mut src =
            QuarantiningSource::new(MemorySource::new(&series), QuarantineMode::Quarantine)
                .with_max_feature(3)
                .with_max_width(1);
        let mut widths = Vec::new();
        src.scan(&mut |_, f| widths.push(f.len())).unwrap();
        // Instant 1 is too wide; instant 2 is too wide AND out of range.
        assert_eq!(widths, vec![1, 0, 0, 1]);
        let reasons: Vec<&QuarantineReason> = src.report().entries().map(|e| &e.reason).collect();
        assert_eq!(reasons.len(), 2);
        assert!(reasons
            .iter()
            .all(|r| matches!(r, QuarantineReason::TooManyFeatures { .. })));
    }

    #[test]
    fn display_strings_are_informative() {
        let reasons = [
            QuarantineReason::UnsortedFeatures { position: 3 },
            QuarantineReason::DuplicateFeature { id: 7 },
            QuarantineReason::FeatureOutOfRange { id: 9, max: 4 },
            QuarantineReason::TooManyFeatures { count: 5, limit: 2 },
        ];
        for r in &reasons {
            assert!(!r.to_string().is_empty());
        }
        assert!(reasons[0].to_string().contains("position 3"));
        assert!(reasons[2].to_string().contains("max 4"));
    }
}
