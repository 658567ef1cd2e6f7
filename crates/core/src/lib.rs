//! Partial periodic pattern mining in time-series databases.
//!
//! This crate implements the algorithms of **Han, Dong & Yin, "Efficient
//! Mining of Partial Periodic Patterns in Time Series Database" (ICDE
//! 1999)**, on top of the [`ppm_timeseries`] substrate:
//!
//! * [`apriori::mine`] — **Algorithm 3.1**: single-period level-wise
//!   Apriori (up to `period` scans of the series);
//! * [`hitset::mine`] — **Algorithm 3.2**: the max-subpattern hit-set
//!   method (exactly 2 scans), built on the max-subpattern tree of §4
//!   ([`hitset::MaxSubpatternTree`], Algorithms 4.1/4.2);
//! * [`multi::mine_periods_looping`] — **Algorithm 3.3**: a period range by
//!   looping the single-period miner;
//! * [`multi::mine_periods_shared`] — **Algorithm 3.4**: shared mining of a
//!   period range in 2 scans total.
//!
//! [`Engine`] names the single-period engines (the two above plus the
//! vertical bitmap engine) and [`run`] mines one
//! period with any of them, from any [`Input`]: packed rows held in
//! memory (a bitmap view, or a series encoded once on entry), or a
//! [`SeriesSource`] such as a disk-resident `.ppmc` store, re-scanned on
//! every pass (paper §5).
//!
//! [`SeriesSource`]: ppm_timeseries::SeriesSource
//!
//! Plus the extensions the paper sketches in §4 and §6: maximal-pattern
//! mining with MaxMiner-style lookahead ([`maximal`]), periodic association
//! rules ([`rules`]), perturbation-tolerant mining ([`perturb`]),
//! multi-level mining over feature taxonomies ([`multilevel`]), and a
//! perfect-periodicity miner with cycle elimination in the style of the
//! cyclic-association-rule work the paper contrasts itself with
//! ([`perfect`]).
//!
//! # Quickstart
//!
//! ```
//! use ppm_core::{hitset, MineConfig};
//! use ppm_timeseries::{FeatureCatalog, SeriesBuilder};
//!
//! // Jim reads the newspaper at offset 1 of every 3-slot "day".
//! let mut catalog = FeatureCatalog::new();
//! let paper = catalog.intern("newspaper");
//! let coffee = catalog.intern("coffee");
//! let mut builder = SeriesBuilder::new();
//! for day in 0..10 {
//!     builder.push_instant([coffee]);
//!     builder.push_instant(if day % 5 == 0 { vec![] } else { vec![paper] });
//!     builder.push_instant([]);
//! }
//! let series = builder.finish();
//!
//! let config = MineConfig::new(0.75).unwrap();
//! let result = hitset::mine(&series, 3, &config).unwrap();
//! for (pattern, count, conf) in result.patterns() {
//!     println!("{}  count={count} conf={conf:.2}", pattern.display(&catalog));
//! }
//! assert_eq!(result.stats.series_scans, 2);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod error;
mod guard;
mod letters;
mod pattern;
mod result;
mod rows;
mod scan;

pub mod apriori;
pub mod audit;
pub mod closed;
pub mod constraints;
pub mod evolution;
pub mod export;
pub mod hitset;
pub mod maximal;
pub mod multi;
pub mod multilevel;
pub mod perfect;
pub mod perturb;
pub mod rules;
pub mod stats;
pub mod vertical;

pub use engine::{run, Engine};
pub use error::{Error, Result};
pub use letters::{Alphabet, LetterIter, LetterSet};
pub use pattern::{Pattern, PatternDisplay, Symbol};
pub use result::{FrequentPattern, MiningResult};
pub use rows::Input;
pub use scan::{scan_frequent_letters, scan_frequent_letters_view, MineConfig, Scan1};
pub use stats::{hit_set_bound, MiningStats, StatsRollup};
pub use vertical::Kernel;
