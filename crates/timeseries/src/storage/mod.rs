//! The text format for feature series.
//!
//! [`text`] is a line-oriented, human-editable format (one instant per
//! line, features separated by spaces), convenient for examples and
//! fixtures. It round-trips a [`crate::FeatureSeries`] up to feature-id
//! numbering: names are interned in order of first appearance.
//!
//! The one binary format is the columnar `.ppmc` store in
//! [`crate::columnar`]: the miners open it straight into their bitmap
//! view, a [`crate::columnar::ColumnarSource`] streams it from disk on
//! every scan, and a version-3 store takes appends in place, committing
//! them through two commit slots.

pub mod text;

pub use text::{parse_series, render_series};
