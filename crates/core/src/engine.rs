//! The engine vocabulary and the one dispatch over it.
//!
//! Three engines mine a single period: the paper's Algorithms 3.2
//! (hit set) and 3.1 (Apriori), and a recounting of the same definition,
//! the vertical bitmap engine. All three return the same frequent set
//! with the same counts (the audit cross-check enforces it); they differ
//! in scan count, memory and speed. [`Engine`] names them once — every
//! CLI flag and daemon request field parses and prints through
//! [`Engine::parse`] / [`Engine::name`] — and [`run`] is the one place an
//! engine becomes a miner call. Engines name algorithms: where an answer
//! is read from, such as a daemon's live index, is not an engine.

use std::fmt;

use crate::error::Result;
use crate::result::MiningResult;
use crate::rows::Input;
use crate::scan::MineConfig;

/// A single-period mining engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Algorithm 3.2: max-subpattern hit set, two scans total.
    #[default]
    HitSet,
    /// Algorithm 3.1: level-wise Apriori, one scan per level.
    Apriori,
    /// Per-letter bitmaps over the distinct segment hits, one weight per
    /// word; AND + weighted popcount per candidate; two scans.
    Vertical,
}

impl Engine {
    /// Every engine, in the order usage text lists them.
    pub const ALL: [Engine; 3] = [Engine::HitSet, Engine::Apriori, Engine::Vertical];

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
        }
    }

    /// Every engine name joined by `|` — the list usage errors and help
    /// text print.
    pub fn names() -> String {
        Engine::ALL.map(Engine::name).join("|")
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Mines `period` of `input` with `engine`. The input is packed rows in
/// memory (an [`EncodedSeriesView`](ppm_timeseries::EncodedSeriesView), or
/// a `&FeatureSeries` encoded once on entry) or a
/// [`SeriesSource`](ppm_timeseries::SeriesSource) re-scanned on every pass;
/// the result is the same either way, and only the data movement differs
/// — `series_scans` counts the passes. Every engine mines on the calling
/// thread.
pub fn run<'a>(
    engine: Engine,
    input: impl Into<Input<'a>>,
    period: usize,
    config: &MineConfig,
) -> Result<MiningResult> {
    let input = input.into();
    match engine {
        Engine::HitSet => {
            crate::hitset::mine_with_strategy(input, period, config, Default::default())
        }
        Engine::Apriori => crate::apriori::mine_input(input, period, config),
        Engine::Vertical => crate::vertical::mine_vertical_input(input, period, config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::{FeatureId, FeatureSeries, MemorySource, SeriesBuilder, SeriesSource};

    use crate::error::Error;
    use crate::guard::ResourceGuard;
    use crate::rows::Passes;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    /// A series whose segment hits vary, so the tree actually grows.
    fn busy(n: usize) -> FeatureSeries {
        let mut b = SeriesBuilder::new();
        let mut x: u64 = 7;
        for _ in 0..n {
            let mut inst = Vec::new();
            for f in 0..4u32 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                if (x >> 33).is_multiple_of(2) {
                    inst.push(fid(f));
                }
            }
            b.push_instant(inst);
        }
        b.finish()
    }

    /// Mines `s` with `engine` over a fresh [`MemorySource`].
    fn streamed(
        engine: Engine,
        s: &FeatureSeries,
        period: usize,
        config: &MineConfig,
    ) -> Result<MiningResult> {
        run(engine, &mut MemorySource::new(s), period, config)
    }

    #[test]
    fn names_round_trip_and_unknown_names_fail() {
        for e in Engine::ALL {
            assert_eq!(Engine::parse(e.name()), Some(e));
            assert_eq!(e.to_string(), e.name());
        }
        assert_eq!(Engine::parse("parallel"), None);
        assert_eq!(Engine::parse("incremental"), None);
        assert_eq!(Engine::names(), "hitset|apriori|vertical");
        assert_eq!(Engine::default(), Engine::HitSet);
    }

    #[test]
    fn streaming_hitset_equals_in_memory() {
        let s = busy(400);
        let config = MineConfig::new(0.2).unwrap();
        let expect = crate::hitset::mine(&s, 8, &config).unwrap();
        let mut src = MemorySource::new(&s);
        let got = run(Engine::HitSet, &mut src, 8, &config).unwrap();
        assert_eq!(got.frequent, expect.frequent);
        assert_eq!(got.stats, expect.stats);
        assert_eq!(src.scans_performed(), 2);
    }

    #[test]
    fn streaming_apriori_equals_in_memory() {
        let s = busy(400);
        let config = MineConfig::new(0.2).unwrap();
        let expect = crate::apriori::mine(&s, 8, &config).unwrap();
        let mut src = MemorySource::new(&s);
        let got = run(Engine::Apriori, &mut src, 8, &config).unwrap();
        assert_eq!(got.frequent, expect.frequent);
        assert_eq!(got.stats, expect.stats);
        assert_eq!(src.scans_performed(), expect.stats.series_scans);
    }

    #[test]
    fn scan1_matches_in_memory() {
        let s = busy(300);
        let config = MineConfig::new(0.4).unwrap();
        let expect = crate::scan::scan_frequent_letters(&s, 5, &config).unwrap();
        let mut src = MemorySource::new(&s);
        let source: &mut dyn SeriesSource = &mut src;
        let mut passes = Passes::new(source.into(), ResourceGuard::unlimited(), "test.segments");
        let scan1 = passes.scan1(5, &config).unwrap();
        assert_eq!(scan1.alphabet, expect.alphabet);
        assert_eq!(scan1.letter_counts, expect.letter_counts);
        assert_eq!(scan1.segment_count, expect.segment_count);
        assert_eq!(src.scans_performed(), 1);
    }

    #[test]
    fn streaming_incremental_equals_in_memory() {
        // Over a source, as over fixed rows, the vertical engine that the
        // incremental index maintains mines in two passes.
        let s = busy(400);
        let config = MineConfig::new(0.2).unwrap();
        let expect = crate::vertical::mine_vertical(&s, 8, &config).unwrap();
        let mut src = MemorySource::new(&s);
        let got = run(Engine::Vertical, &mut src, 8, &config).unwrap();
        assert_eq!(got.frequent, expect.frequent);
        assert_eq!(got.stats, expect.stats);
        assert_eq!(src.scans_performed(), 2);
    }

    #[test]
    fn rejects_bad_period() {
        let s = busy(10);
        let config = MineConfig::default();
        for engine in Engine::ALL {
            let mut src = MemorySource::new(&s);
            assert!(run(engine, &mut src, 0, &config).is_err());
            assert!(run(engine, &mut src, 11, &config).is_err());
            assert_eq!(src.scans_performed(), 0, "{engine}");
        }
    }

    #[test]
    fn streaming_tree_budget_aborts_with_partial_stats() {
        let s = busy(400);
        let config = MineConfig::new(0.2).unwrap().with_max_tree_nodes(2);
        let in_memory = crate::hitset::mine(&s, 8, &config).unwrap_err();
        let err = streamed(Engine::HitSet, &s, 8, &config).unwrap_err();
        match err {
            Error::TreeBudgetExceeded {
                nodes,
                budget,
                stats,
            } => {
                assert_eq!(budget, 2);
                assert!(nodes > 2);
                assert!(stats.hit_insertions >= 1);
                // The muted scan 2 ran to the end, so it completed; in
                // memory the pass stopped at the abort.
                assert_eq!(stats.series_scans, 2);
                let mut expect = in_memory.partial_stats().unwrap().clone();
                assert_eq!(expect.series_scans, 1);
                expect.series_scans = 2;
                assert_eq!(*stats, expect, "same partial tree on both inputs");
            }
            other => panic!("expected TreeBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn streaming_zero_deadline_aborts() {
        let s = busy(400);
        let config = MineConfig::new(0.2)
            .unwrap()
            .with_deadline(std::time::Duration::ZERO);
        for engine in Engine::ALL {
            let err = streamed(engine, &s, 8, &config).unwrap_err();
            assert!(matches!(err, Error::DeadlineExceeded { .. }), "got {err:?}");
            assert_eq!(err.partial_stats().unwrap().series_scans, 1, "{engine}");
        }
    }
}
