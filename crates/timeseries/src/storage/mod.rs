//! On-disk persistence for feature series and catalogs.
//!
//! Three formats:
//!
//! * [`binary`] — a compact, versioned, checksummed binary format (magic
//!   `PPMS`), suitable for the large synthetic series of the paper's
//!   performance study (§5: 100k–500k instants).
//! * [`stream`] — the record-oriented `.ppmstream` format (magic `PPMS2`):
//!   one self-delimiting record per instant and a checksummed trailer, so
//!   a [`FileSource`] scans it with one forward read instead of loading
//!   it, and [`salvage_series`] recovers the valid prefix of a truncated
//!   file.
//! * [`text`] — a line-oriented human-editable format (one instant per line,
//!   features separated by spaces), convenient for examples and fixtures.
//!
//! All three round-trip a [`crate::FeatureSeries`] exactly; the binary and
//! stream formats additionally embed the [`crate::FeatureCatalog`] so a
//! file is self-describing.
//!
//! The fourth format, the columnar `.ppmc` store the miners open straight
//! into their bitmap view, lives in [`crate::columnar`]. It is the only
//! one that grows after it is written: a version-3 store takes appends in
//! place, committing them through two commit slots, and older versions
//! through a whole-file rewrite.

pub mod binary;
pub mod stream;
pub mod text;

pub use binary::{read_series, write_series};
pub use stream::{salvage_series, FileSource, SalvageReport, StreamWriter};
pub use text::{parse_series, render_series};
