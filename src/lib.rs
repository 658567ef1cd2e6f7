//! # partial-periodic
//!
//! A Rust implementation of **Han, Dong & Yin, "Efficient Mining of Partial
//! Periodic Patterns in Time Series Database" (ICDE 1999)** — the
//! max-subpattern hit-set method and its companions — with the time-series
//! substrate and workload generators needed to use and evaluate it.
//!
//! This crate is a facade: it re-exports the three library crates of the
//! workspace so applications can depend on one name.
//!
//! * [`core`] (`ppm-core`) — the mining algorithms: single-period Apriori
//!   (Alg 3.1), max-subpattern hit set (Alg 3.2, two scans), multi-period
//!   looping and shared mining (Algs 3.3/3.4), the max-subpattern tree
//!   (Algs 4.1/4.2), plus maximal patterns, periodic rules, perturbation
//!   tolerance, multi-level mining and a perfect-periodicity baseline.
//! * [`timeseries`] (`ppm-timeseries`) — feature catalogs, compact series
//!   storage (in memory and on disk), discretization, taxonomies, slot
//!   windows.
//! * [`datagen`] (`ppm-datagen`) — the paper's §5.1 synthetic generator and
//!   scripted domain workloads.
//! * [`observe`] (`ppm-observe`) — zero-dependency structured tracing and
//!   metrics: spans, counters, gauges, marks, and pluggable sinks; the
//!   miners are instrumented with it and it costs nothing when no sink is
//!   installed.
//! * [`serve`] (`ppm-serve`) — the fault-tolerant mining daemon behind
//!   `ppm serve`: shared zero-copy store registry, length-prefixed JSON
//!   wire protocol, admission control with load shedding, per-query panic
//!   containment, and a crash-safe anti-monotone result cache.
//!
//! The most common items are re-exported at the top level:
//!
//! ```
//! use partial_periodic::{hitset, FeatureCatalog, MineConfig, SeriesBuilder};
//!
//! let mut catalog = FeatureCatalog::new();
//! let tea = catalog.intern("tea");
//! let mut builder = SeriesBuilder::new();
//! for _ in 0..8 {
//!     builder.push_instant([tea]);
//!     builder.push_instant([]);
//! }
//! let series = builder.finish();
//! let result = hitset::mine(&series, 2, &MineConfig::new(0.9).unwrap()).unwrap();
//! assert_eq!(result.len(), 1); // "tea *" every period
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use ppm_core as core;
pub use ppm_datagen as datagen;
pub use ppm_observe as observe;
pub use ppm_serve as serve;
pub use ppm_timeseries as timeseries;

pub use ppm_core::{
    apriori, audit, closed, constraints, evolution, hitset, maximal, multi, multilevel, perfect,
    perturb, rules, run, stats, vertical, Engine, FrequentPattern, Input, MineConfig, MiningResult,
    Pattern, Symbol,
};
pub use ppm_datagen::SyntheticSpec;
pub use ppm_timeseries::{FeatureCatalog, FeatureId, FeatureSeries, SeriesBuilder};
