//! Self-verifying mining: invariant auditing and differential recounting.
//!
//! PR-level fault tolerance catches *loud* failures — I/O errors, guard
//! trips, crashes. Nothing there defends against a *silent* wrong answer:
//! a miscounted hit set, a dropped candidate, or an input instant damaged
//! past the checksum layer produces confidently wrong patterns with no
//! signal at all. The paper supplies cheap, machine-checkable ground truth,
//! and this module turns it into an independent result checker:
//!
//! * **Invariant auditing** (`invariants`) — structural laws any correct
//!   [`MiningResult`] obeys: anti-monotone counts (the §3.1 Apriori
//!   property: `count(sub) ≥ count(super)` whenever `sub ⊆ super`),
//!   downward closure of the frequent set, `min_count ≤ count ≤ m` (i.e.
//!   confidence ∈ `[min_conf, 1]`), every letter inside `C_max`, no
//!   duplicates, and the Property 3.2 hit-set bookkeeping bounds.
//! * **Differential oracle** (`oracle`) — a deliberately naive recount
//!   engine: each reported pattern is decoded to its symbolic form and
//!   recounted by direct segment matching ([`Pattern::matches_segment`]),
//!   sharing no code with the letter-projection/tree path the miners use.
//!   Full recount, or a deterministic sample for large results.
//! * **Cross-algorithm diff** ([`cross_check`]) — mines the same input
//!   with the hit-set (in memory and streamed, its tree counted by bitmap
//!   and by the paper's tree walk), Apriori and vertical engines and diffs
//!   the outputs; the algorithms are proved equivalent, so any
//!   disagreement is a bug in one of them.
//!
//! Every violation carries enough rendered context (pattern text, counts,
//! segment indices) to reproduce it by hand. Audit outcomes emit
//! [`ppm_observe`] marks (`audit.verdict`, `audit.violation`) and counters
//! (`audit.checks`, `audit.violations`) so traces show verification cost
//! next to mining cost.

mod diff;
mod invariants;
mod oracle;

pub use diff::{cross_check, cross_check_view, CrossCheck};
pub use invariants::check_invariants;
pub use oracle::{recount_patterns, verify_claims, MISMATCH_SEGMENT_LIMIT};

use std::fmt;

use ppm_timeseries::{FeatureCatalog, FeatureSeries};

use crate::error::Result;
use crate::pattern::Pattern;
use crate::result::MiningResult;

/// Default number of patterns the sampled oracle recounts.
pub const DEFAULT_SAMPLE: usize = 64;

/// How much recounting the differential oracle performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditMode {
    /// Recount every reported pattern and independently re-derive the
    /// frequent 1-patterns from the data.
    Full,
    /// Recount a deterministic sample of at most this many patterns
    /// (structural invariants are still checked in full).
    Sample(usize),
}

impl AuditMode {
    /// The sampled mode with the default budget.
    pub fn sample() -> AuditMode {
        AuditMode::Sample(DEFAULT_SAMPLE)
    }
}

/// One violated invariant, with enough context to reproduce it.
///
/// Pattern fields are pre-rendered with the run's feature catalog, so a
/// violation is meaningful on its own — no alphabet or catalog needed to
/// read it.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Violation {
    /// `sub ⊆ super` but `count(sub) < count(super)` — breaks the Apriori
    /// property (paper §3.1).
    AntiMonotonicity {
        /// The subpattern, rendered.
        sub: String,
        /// Its reported count.
        sub_count: u64,
        /// The superpattern, rendered.
        superpattern: String,
        /// Its reported count.
        super_count: u64,
    },
    /// A pattern's count exceeds the number of whole segments `m`
    /// (confidence would exceed 1).
    CountExceedsSegments {
        /// The pattern, rendered.
        pattern: String,
        /// Its reported count.
        count: u64,
        /// Number of whole segments `m`.
        segments: usize,
    },
    /// A reported pattern's count is below the frequency threshold
    /// (confidence would be below `min_conf`).
    BelowThreshold {
        /// The pattern, rendered.
        pattern: String,
        /// Its reported count.
        count: u64,
        /// The threshold it fails.
        min_count: u64,
    },
    /// The result's `min_count` does not equal `⌈min_conf · m⌉` as
    /// independently recomputed.
    ThresholdMismatch {
        /// The result's recorded threshold.
        min_count: u64,
        /// The independently recomputed threshold.
        expected: u64,
    },
    /// A pattern's letter set was built for a different universe than the
    /// result's alphabet — its letters cannot all lie inside `C_max`.
    ForeignLetters {
        /// Index of the offending pattern in `result.frequent`.
        pattern_index: usize,
        /// The set's universe size.
        universe: usize,
        /// The alphabet's letter count.
        alphabet_len: usize,
    },
    /// An empty pattern (no letters) was reported frequent.
    EmptyPattern {
        /// Index of the offending pattern in `result.frequent`.
        pattern_index: usize,
    },
    /// The same letter set appears more than once in the result.
    DuplicatePattern {
        /// The duplicated pattern, rendered.
        pattern: String,
    },
    /// A frequent pattern's immediate subpattern (one letter removed) is
    /// missing from the result — the frequent set must be downward closed
    /// (paper §3.1).
    MissingSubpattern {
        /// The frequent pattern, rendered.
        pattern: String,
        /// Its absent immediate subpattern, rendered.
        missing: String,
    },
    /// Hit-set statistics exceed the Property 3.2 bound
    /// `min(m, 2^|F1| − 1)`.
    HitSetBoundExceeded {
        /// Distinct hits the run recorded.
        distinct_hits: usize,
        /// The Property 3.2 bound.
        bound: u64,
    },
    /// More hit insertions than period segments — each segment contributes
    /// at most one hit (paper §3.1.2).
    ExcessHitInsertions {
        /// Hit insertions the run recorded.
        hit_insertions: u64,
        /// Number of whole segments `m`.
        segments: usize,
    },
    /// The oracle's independent recount disagrees with the reported count.
    CountMismatch {
        /// The pattern, rendered.
        pattern: String,
        /// The count the miner reported.
        reported: u64,
        /// The oracle's direct-match recount.
        recounted: u64,
        /// The first segment indices the oracle counts as matching (at
        /// most [`MISMATCH_SEGMENT_LIMIT`]) — reproduction starting points.
        segments: Vec<usize>,
    },
    /// A letter that is frequent in the data is missing from the result —
    /// a dropped candidate.
    MissingFrequentLetter {
        /// The letter as a 1-pattern, rendered.
        pattern: String,
        /// Its true count in the data.
        count: u64,
        /// The threshold it meets.
        min_count: u64,
    },
    /// Two algorithms disagree on the same input (cross-algorithm diff).
    AlgorithmMismatch {
        /// The baseline algorithm.
        left: &'static str,
        /// The disagreeing algorithm.
        right: &'static str,
        /// What differs, rendered.
        detail: String,
    },
    /// An exported claim's confidence field does not equal `count / m`.
    ConfidenceMismatch {
        /// The pattern, rendered.
        pattern: String,
        /// The confidence the export claims.
        claimed: f64,
        /// The confidence implied by its count.
        actual: f64,
    },
    /// An exported claim is internally inconsistent (letter or L-length
    /// fields disagree with its own pattern text).
    ClaimInconsistent {
        /// The pattern, rendered.
        pattern: String,
        /// What disagrees, rendered.
        detail: String,
    },
    /// An exported claim's pattern has a different period than the audit
    /// was asked to verify.
    ClaimPeriodMismatch {
        /// The pattern, rendered.
        pattern: String,
        /// The pattern's own period.
        pattern_period: usize,
        /// The period under verification.
        expected: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::AntiMonotonicity {
                sub,
                sub_count,
                superpattern,
                super_count,
            } => write!(
                f,
                "anti-monotonicity: subpattern `{sub}` has count {sub_count} < \
                 superpattern `{superpattern}` count {super_count}"
            ),
            Violation::CountExceedsSegments {
                pattern,
                count,
                segments,
            } => write!(
                f,
                "count exceeds segments: `{pattern}` count {count} > m = {segments}"
            ),
            Violation::BelowThreshold {
                pattern,
                count,
                min_count,
            } => write!(
                f,
                "below threshold: `{pattern}` count {count} < min_count {min_count}"
            ),
            Violation::ThresholdMismatch {
                min_count,
                expected,
            } => write!(
                f,
                "threshold mismatch: result records min_count {min_count}, \
                 recomputation gives {expected}"
            ),
            Violation::ForeignLetters {
                pattern_index,
                universe,
                alphabet_len,
            } => write!(
                f,
                "foreign letters: pattern #{pattern_index} uses universe {universe}, \
                 alphabet has {alphabet_len} letters"
            ),
            Violation::EmptyPattern { pattern_index } => {
                write!(f, "empty pattern reported frequent at #{pattern_index}")
            }
            Violation::DuplicatePattern { pattern } => {
                write!(f, "duplicate pattern: `{pattern}` reported more than once")
            }
            Violation::MissingSubpattern { pattern, missing } => write!(
                f,
                "missing subpattern: `{pattern}` is frequent but its subpattern \
                 `{missing}` is not reported"
            ),
            Violation::HitSetBoundExceeded {
                distinct_hits,
                bound,
            } => write!(
                f,
                "hit-set bound exceeded: {distinct_hits} distinct hits > \
                 Property 3.2 bound {bound}"
            ),
            Violation::ExcessHitInsertions {
                hit_insertions,
                segments,
            } => write!(
                f,
                "excess hit insertions: {hit_insertions} insertions > m = {segments} segments"
            ),
            Violation::CountMismatch {
                pattern,
                reported,
                recounted,
                segments,
            } => write!(
                f,
                "count mismatch: `{pattern}` reported {reported}, oracle recounted \
                 {recounted} (disagreeing segments: {segments:?})"
            ),
            Violation::MissingFrequentLetter {
                pattern,
                count,
                min_count,
            } => write!(
                f,
                "missing frequent letter: `{pattern}` occurs in {count} segments \
                 (≥ min_count {min_count}) but is not reported"
            ),
            Violation::AlgorithmMismatch {
                left,
                right,
                detail,
            } => write!(f, "algorithm mismatch: {left} vs {right}: {detail}"),
            Violation::ConfidenceMismatch {
                pattern,
                claimed,
                actual,
            } => write!(
                f,
                "confidence mismatch: `{pattern}` claims {claimed:.6}, \
                 count implies {actual:.6}"
            ),
            Violation::ClaimInconsistent { pattern, detail } => {
                write!(f, "inconsistent claim: `{pattern}`: {detail}")
            }
            Violation::ClaimPeriodMismatch {
                pattern,
                pattern_period,
                expected,
            } => write!(
                f,
                "claim period mismatch: `{pattern}` has period {pattern_period}, \
                 verifying period {expected}"
            ),
        }
    }
}

/// The outcome of one audit pass.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Total individual checks performed (a rough effort measure).
    pub checks: u64,
    /// Number of patterns the oracle recounted.
    pub recounted: usize,
    /// Whether the oracle sampled (`true`) or recounted everything.
    pub sampled: bool,
    /// Every violation found, in discovery order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// An empty report.
    pub fn new() -> Self {
        AuditReport {
            checks: 0,
            recounted: 0,
            sampled: false,
            violations: Vec::new(),
        }
    }

    /// Whether no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Records a violation (and its observability mark).
    pub(crate) fn push(&mut self, v: Violation) {
        ppm_observe::counter("audit.violations", 1);
        ppm_observe::mark("audit.violation", || v.to_string());
        self.violations.push(v);
    }

    /// One-line verdict for reports and logs.
    pub fn summary(&self) -> String {
        let mode = if self.sampled { "sampled" } else { "full" };
        if self.is_clean() {
            format!(
                "clean — {} checks, {} patterns recounted ({mode})",
                self.checks, self.recounted
            )
        } else {
            format!(
                "{} violations in {} checks, {} patterns recounted ({mode})",
                self.violations.len(),
                self.checks,
                self.recounted
            )
        }
    }

    /// Folds another report into this one.
    pub fn absorb(&mut self, other: AuditReport) {
        self.checks += other.checks;
        self.recounted += other.recounted;
        self.sampled |= other.sampled;
        self.violations.extend(other.violations);
    }
}

impl Default for AuditReport {
    fn default() -> Self {
        Self::new()
    }
}

/// Audits `result` against the series it was mined from: all structural
/// invariants, plus the differential oracle's recount under `mode`.
///
/// Returns an error only when the result's period is invalid for the
/// series (nothing can be recounted); violations — however damning — are
/// reported, not errored.
pub fn audit(
    series: &FeatureSeries,
    result: &MiningResult,
    catalog: &FeatureCatalog,
    mode: AuditMode,
) -> Result<AuditReport> {
    let span = ppm_observe::span("audit.run");
    let mut report = AuditReport::new();
    check_invariants(result, catalog, &mut report);
    recount_patterns(series, result, catalog, mode, &mut report)?;
    ppm_observe::counter("audit.checks", report.checks);
    ppm_observe::mark("audit.verdict", || report.summary());
    drop(span);
    Ok(report)
}

/// Renders a pattern for violation context, falling back to `f{raw}`
/// placeholders for ids the catalog does not know.
pub(crate) fn render(pattern: &Pattern, catalog: &FeatureCatalog) -> String {
    pattern.display(catalog).to_string()
}
