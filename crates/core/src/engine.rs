//! The engine vocabulary and the one dispatch over it.
//!
//! Four engines mine a single period: the paper's Algorithms 3.2
//! (hit set) and 3.1 (Apriori), and two recountings of the same
//! definition — the vertical bitmap engine and its incremental form.
//! All four return the same frequent set with the same counts (the audit
//! cross-check enforces it); they differ in scan count, memory and
//! speed. [`Engine`] names them once — every CLI flag, daemon request
//! field and cache key parses and prints through [`Engine::parse`] /
//! [`Engine::name`] — and [`run`] is the one place an engine becomes a
//! miner call.

use std::fmt;

use crate::error::Result;
use crate::result::MiningResult;
use crate::rows::Input;
use crate::scan::MineConfig;
use crate::vertical::ThreadedExecutor;

/// A single-period mining engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Algorithm 3.2: max-subpattern hit set, two scans total.
    #[default]
    HitSet,
    /// Algorithm 3.1: level-wise Apriori, one scan per level.
    Apriori,
    /// Per-letter segment bitmaps, AND + popcount per candidate; two scans.
    Vertical,
    /// The vertical engine maintained incrementally as segments append.
    /// Over a fixed input it is the cold vertical mine; a daemon keeps a
    /// live index per store instead.
    Incremental,
}

impl Engine {
    /// Every engine, in the order usage text lists them.
    pub const ALL: [Engine; 4] = [
        Engine::HitSet,
        Engine::Apriori,
        Engine::Vertical,
        Engine::Incremental,
    ];

    /// Parses an engine name as spelled on the CLI and the wire.
    pub fn parse(name: &str) -> Option<Engine> {
        Engine::ALL.into_iter().find(|e| e.name() == name)
    }

    /// The CLI / wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            Engine::HitSet => "hitset",
            Engine::Apriori => "apriori",
            Engine::Vertical => "vertical",
            Engine::Incremental => "incremental",
        }
    }

    /// Every engine name joined by `|` — the list usage errors and help
    /// text print.
    pub fn names() -> String {
        Engine::ALL.map(Engine::name).join("|")
    }

    /// Whether the engine's scan count is a constant 2, independent of
    /// the confidence threshold. For these engines a result mined at a
    /// lower confidence answers a higher one by filtering its rows
    /// (anti-monotonicity), echoed scan count included; Apriori's scan
    /// count varies with the threshold, so its answers only ever match
    /// exactly.
    pub fn has_constant_scans(self) -> bool {
        self != Engine::Apriori
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Mines `period` of `input` with `engine`. The input is fixed rows (a
/// `&FeatureSeries`, an [`EncodedSeriesView`](ppm_timeseries::EncodedSeriesView)
/// or [`Rows`](crate::Rows)) or a [`SeriesSource`](ppm_timeseries::SeriesSource)
/// re-scanned on every pass; the result is the same either way, and only
/// the data movement differs — `series_scans` counts the passes. With
/// `threads > 1` the vertical derive (and so the incremental engine's,
/// which over a fixed input is the cold vertical mine) shards its word
/// axis across a scoped pool when the index is wide enough to pay for
/// it; the hit-set and Apriori engines run single-threaded. Every
/// combination returns the same result.
pub fn run<'a>(
    engine: Engine,
    input: impl Into<Input<'a>>,
    period: usize,
    config: &MineConfig,
    threads: usize,
) -> Result<MiningResult> {
    let input = input.into();
    match engine {
        Engine::HitSet => {
            crate::hitset::mine_with_strategy(input, period, config, Default::default())
        }
        Engine::Apriori => crate::apriori::mine_input(input, period, config),
        Engine::Vertical | Engine::Incremental if threads > 1 => {
            let executor = ThreadedExecutor::new(threads);
            crate::vertical::mine_vertical_input(input, period, config, Some(&executor))
        }
        Engine::Vertical | Engine::Incremental => {
            crate::vertical::mine_vertical_input(input, period, config, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_unknown_names_fail() {
        for e in Engine::ALL {
            assert_eq!(Engine::parse(e.name()), Some(e));
            assert_eq!(e.to_string(), e.name());
        }
        assert_eq!(Engine::parse("parallel"), None);
        assert_eq!(Engine::names(), "hitset|apriori|vertical|incremental");
        assert_eq!(Engine::default(), Engine::HitSet);
    }

    #[test]
    fn only_apriori_has_a_threshold_dependent_scan_count() {
        let varying: Vec<_> = Engine::ALL
            .into_iter()
            .filter(|e| !e.has_constant_scans())
            .collect();
        assert_eq!(varying, [Engine::Apriori]);
    }
}
