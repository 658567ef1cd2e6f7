//! Feature time-series substrate for partial periodic pattern mining.
//!
//! This crate provides the data layer that the mining algorithms in
//! `ppm-core` operate on. The central abstraction, taken from Han, Dong &
//! Yin (ICDE 1999), is the *feature time series*: a sequence of time
//! instants `D_1, D_2, …, D_N`, where each `D_t` is a **set of categorical
//! features** derived from whatever raw data was collected at instant `t`.
//!
//! The pieces:
//!
//! * [`FeatureCatalog`] — interns feature names into dense [`FeatureId`]s so
//!   the mining layer works on small integers instead of strings.
//! * [`FeatureSeries`] — a compact, immutable, CSR-encoded series of feature
//!   sets, built through [`SeriesBuilder`].
//! * [`EncodedSeries`] — an optional cache of per-instant feature *bitmaps*
//!   so repeated membership probes (multi-period mining, parallel workers,
//!   the vertical engine, audit re-mines) are single bit tests.
//! * [`segment`] — period-segment views (`m = ⌊N/p⌋` whole segments of a
//!   period `p`), the unit over which pattern confidence is defined.
//! * [`columnar`] — the one binary store, `.ppmc`, whose on-disk layout
//!   *is* the [`EncodedSeries`] layout: opening one loads straight into a
//!   borrowed [`EncodedSeriesView`] with zero per-row allocation, and a
//!   [`columnar::ColumnarSource`] re-scans it from disk on every pass, so a
//!   series larger than memory allows is mined out of core as the paper
//!   assumes in §5.
//! * [`storage`] — the line-oriented text import/export for small series
//!   and fixtures.
//! * [`fault`] / [`retry`] — deterministic fault injection and transparent
//!   retry wrappers around any [`SeriesSource`], so out-of-core mining
//!   survives flaky I/O and tests can reproduce failure sequences exactly.
//! * [`quarantine`] — scan-boundary validation: malformed instants are
//!   skipped and recorded (counts become sound lower bounds) or rejected
//!   fail-fast, instead of silently poisoning the mine.
//! * [`discretize`] — turning numeric series (power draw, stock prices, …)
//!   into single- or multi-level categorical features (paper §6).
//! * [`taxonomy`] — feature hierarchies for multi-level mining (paper §6).
//! * [`window`] — slot enlargement for perturbation-tolerant mining
//!   (paper §6): each instant absorbs the features of its neighbours.
//!
//! # Example
//!
//! ```
//! use ppm_timeseries::{FeatureCatalog, SeriesBuilder};
//!
//! let mut catalog = FeatureCatalog::new();
//! let coffee = catalog.intern("coffee");
//! let paper = catalog.intern("newspaper");
//!
//! let mut builder = SeriesBuilder::new();
//! builder.push_instant([coffee, paper]);
//! builder.push_instant([coffee]);
//! builder.push_instant([]);
//! let series = builder.finish();
//!
//! assert_eq!(series.len(), 3);
//! assert_eq!(series.instant(0), &[coffee, paper]);
//! assert!(series.instant(2).is_empty());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod catalog;
mod encoded;
mod error;
mod fnv;
mod series;

pub mod calendar;
pub mod columnar;
pub mod discretize;
pub mod events;
pub mod fault;
pub mod quarantine;
pub mod retry;
pub mod segment;
pub mod source;
pub mod storage;
pub mod taxonomy;
pub mod window;

pub use catalog::{FeatureCatalog, FeatureId};
pub use encoded::{EncodedSeries, EncodedSeriesView, FeatureBits};
pub use error::{Error, Result};
pub use fault::{Fault, FaultInjectingSource, FaultPlan};
pub use fnv::fnv64;
pub use quarantine::{
    QuarantineMode, QuarantineReason, QuarantineReport, QuarantinedInstant, QuarantiningSource,
};
pub use retry::{RetryPolicy, RetryingSource};
pub use segment::{Segment, SegmentIter, Segments};
pub use series::{FeatureSeries, InstantIter, SeriesBuilder, SeriesStats};
pub use source::{MemorySource, SeriesSource};
pub use taxonomy::Taxonomy;
