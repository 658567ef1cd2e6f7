//! Mining partial periodicity for a range of periods (paper §3.2).
//!
//! Patterns of interest often live at unexpected periods ("every 11 years,
//! or every 14 hours"), so the paper extends single-period mining to a
//! range `p_lo ..= p_hi`. Crucially, Apriori-style filtering **does not
//! transfer across periods**: the paper's `abab…` example shows a pattern
//! frequent at period 2 (`ab`) whose stretched form (`abab`) need not align
//! with frequent patterns of period 4, so each period must be mined in its
//! own right. Two strategies:
//!
//! * [`mine_periods_looping`] — **Algorithm 3.3**: run the hit-set miner
//!   per period (2 scans each, `2·k` total);
//! * [`mine_periods_shared`] — **Algorithm 3.4**: interleave all periods in
//!   the *same* two physical scans, trading memory (per-period count
//!   tables and trees held simultaneously) for I/O.
//!
//! [`mine_periods_scheduled`] runs Alg 3.3's per-period tasks over one
//! shared bitmap view, on a pool of workers or inline at one.

mod looping;
mod scheduler;
mod shared;

/// The sweep scheduler's engine choice: the crate's one [`Engine`](crate::Engine)
/// under the name the scheduler API used before engines were unified.
pub use crate::Engine as SweepEngine;
pub use looping::mine_periods_looping;
pub use scheduler::mine_periods_scheduled;
pub use shared::{mine_periods_shared, mine_periods_shared_view};

use crate::error::{Error, Result};
use crate::result::MiningResult;

/// An inclusive range of periods to mine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodRange {
    lo: usize,
    hi: usize,
}

impl PeriodRange {
    /// Creates a range; requires `1 <= lo <= hi`.
    pub fn new(lo: usize, hi: usize) -> Result<Self> {
        if lo == 0 || lo > hi {
            return Err(Error::InvalidPeriodRange { lo, hi });
        }
        Ok(PeriodRange { lo, hi })
    }

    /// A single-period "range".
    pub fn single(p: usize) -> Result<Self> {
        Self::new(p, p)
    }

    /// Lower bound (inclusive).
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// Upper bound (inclusive).
    pub fn hi(&self) -> usize {
        self.hi
    }

    /// Number of periods in the range.
    pub fn len(&self) -> usize {
        self.hi - self.lo + 1
    }

    /// Whether the range is empty (never true for a constructed range).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates the periods.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        self.lo..=self.hi
    }
}

/// A period whose task tripped a resource guard mid-sweep.
///
/// Produced by [`mine_periods_scheduled`]: instead of one runaway period
/// aborting the whole sweep, a guard trip ([`Error::DeadlineExceeded`] /
/// [`Error::TreeBudgetExceeded`]) is recorded here — the carried error
/// still holds the partial [`crate::MiningStats`] accumulated before the
/// abort — and the remaining periods keep mining.
#[derive(Debug)]
pub struct PeriodFailure {
    /// The period whose mining task was aborted.
    pub period: usize,
    /// The typed guard error, carrying partial stats
    /// (`error.partial_stats()` is always `Some` for recorded failures).
    pub error: Error,
}

/// Result of mining a period range: one [`MiningResult`] per period plus
/// the *physical* scan count over the series (the headline difference
/// between Algorithms 3.3 and 3.4).
#[derive(Debug)]
pub struct MultiPeriodResult {
    /// Per-period results, in ascending period order.
    pub results: Vec<MiningResult>,
    /// Physical scans over the time series performed in total.
    pub total_scans: usize,
    /// Periods whose tasks tripped a resource guard, in ascending period
    /// order. Empty for [`mine_periods_looping`] and the shared
    /// strategy, which abort on the first guard trip instead.
    pub failures: Vec<PeriodFailure>,
}

impl MultiPeriodResult {
    /// A result where every period completed (no per-period failures).
    pub fn complete(results: Vec<MiningResult>, total_scans: usize) -> Self {
        MultiPeriodResult {
            results,
            total_scans,
            failures: Vec::new(),
        }
    }

    /// The result for a specific period, if it was in the range.
    pub fn for_period(&self, period: usize) -> Option<&MiningResult> {
        self.results.iter().find(|r| r.period == period)
    }

    /// Total frequent patterns across all periods.
    pub fn total_patterns(&self) -> usize {
        self.results.iter().map(|r| r.len()).sum()
    }

    /// The period whose mining found the most frequent patterns — a crude
    /// but useful "most periodic" indicator for period discovery.
    pub fn densest_period(&self) -> Option<usize> {
        self.results
            .iter()
            .max_by_key(|r| r.len())
            .map(|r| r.period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_validation() {
        assert!(PeriodRange::new(0, 5).is_err());
        assert!(PeriodRange::new(6, 5).is_err());
        let r = PeriodRange::new(2, 4).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(PeriodRange::single(7).unwrap().len(), 1);
        assert!(!r.is_empty());
    }
}
