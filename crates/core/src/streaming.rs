//! Out-of-core mining over a [`SeriesSource`].
//!
//! §5 of the paper: "In general, the time series of features may need to be
//! stored on disk … there would be a large amount of extra disk-IO
//! associated with Apriori, but not with max-subpattern hit-set since it
//! only requires two scans." Every engine makes that claim testable:
//! [`run`](crate::run) takes any [`SeriesSource`] — in particular the
//! disk-streaming [`ppm_timeseries::storage::stream::FileSource`] — and
//! then *every* pass over the data is a physical re-scan of the source.
//! The reported `stats.series_scans` is taken from the source itself. The
//! engines' code is the same as over fixed rows (the passes live in one
//! place), so the results are identical; only the data movement differs.
//!
//! What this module adds is recovery: [`ResumableHitsetMiner`] splits
//! Algorithm 3.2 into resumable steps that keep scan-2 progress across a
//! failed pass.

use std::ops::ControlFlow;

use ppm_timeseries::SeriesSource;

use crate::error::Result;
use crate::guard::ResourceGuard;
use crate::hitset::derive::CountStrategy;
use crate::hitset::MaxSubpatternTree;
use crate::result::MiningResult;
use crate::rows::Passes;
use crate::scan::{MineConfig, Scan1};
use crate::stats::MiningStats;

/// Algorithm 3.2 broken into resumable steps, with scan-2 progress tracked
/// at **segment granularity**.
///
/// [`run`](crate::run) over a source runs both scans inside one call, so
/// an interruption during scan 2 (source failure with retries exhausted,
/// operator abort) loses the whole pass. This miner keeps the
/// max-subpattern tree and a count of completed segments across failures: a
/// [`run_scan2`](Self::run_scan2) that errors out retains every segment it
/// finished, and the next call re-scans the source while *skipping* those
/// segments — work lost to an interruption is bounded by one segment.
///
/// The reported `series_scans` counts scan 1 plus one per physical
/// [`run_scan2`](Self::run_scan2) pass, so an uninterrupted run reports
/// exactly 2, and the [`MiningResult`] is then identical to the hit-set
/// engine's over the same source.
///
/// ```
/// use ppm_core::streaming::ResumableHitsetMiner;
/// use ppm_core::MineConfig;
/// use ppm_timeseries::{MemorySource, SeriesBuilder};
///
/// let mut b = SeriesBuilder::new();
/// for t in 0..12u32 {
///     b.push_instant([ppm_timeseries::FeatureId::from_raw(t % 3)]);
/// }
/// let series = b.finish();
/// let mut source = MemorySource::new(&series);
/// let config = MineConfig::new(0.9).unwrap();
///
/// let mut miner = ResumableHitsetMiner::start(&mut source, 3, &config).unwrap();
/// miner.run_scan2(&mut source).unwrap();
/// assert!(miner.scan2_complete());
/// let result = miner.finish();
/// assert_eq!(result.stats.series_scans, 2);
/// ```
#[derive(Debug, Clone)]
pub struct ResumableHitsetMiner {
    config: MineConfig,
    scan1: Scan1,
    tree: MaxSubpatternTree,
    segments_done: usize,
    scan2_passes: usize,
}

impl ResumableHitsetMiner {
    /// Runs scan 1 (one physical pass) and prepares an empty tree.
    pub fn start(
        source: &mut dyn SeriesSource,
        period: usize,
        config: &MineConfig,
    ) -> Result<Self> {
        let scan1 = unguarded(source).scan1(period, config)?;
        let tree = MaxSubpatternTree::new(scan1.alphabet.full_set());
        Ok(ResumableHitsetMiner {
            config: *config,
            scan1,
            tree,
            segments_done: 0,
            scan2_passes: 0,
        })
    }

    /// The mining period.
    pub fn period(&self) -> usize {
        self.scan1.alphabet.period()
    }

    /// Total whole segments scan 2 must process.
    pub fn segment_count(&self) -> usize {
        self.scan1.segment_count
    }

    /// Segments already folded into the tree — survives a failed
    /// [`run_scan2`](Self::run_scan2).
    pub fn segments_done(&self) -> usize {
        self.segments_done
    }

    /// Whether every segment has been processed.
    pub fn scan2_complete(&self) -> bool {
        self.segments_done >= self.scan1.segment_count
    }

    /// One physical scan-2 pass: re-scans `source` from the start, skips
    /// the segments already done, and folds the rest into the tree. On
    /// error, all segments completed before the failure are retained; call
    /// again (typically after the transient condition clears) to resume.
    /// A call when scan 2 is already complete performs no scan.
    pub fn run_scan2(&mut self, source: &mut dyn SeriesSource) -> Result<()> {
        if self.scan2_complete() {
            return Ok(());
        }
        let _span = ppm_observe::span("hitset.scan2");
        if self.segments_done > 0 {
            let done = self.segments_done;
            let total = self.scan1.segment_count;
            ppm_observe::mark("stream.resume", || {
                format!("resuming scan 2 at segment {done}/{total}")
            });
        }
        self.scan2_passes += 1;
        let tree = &mut self.tree;
        let done = &mut self.segments_done;
        let flow = unguarded(source).segments(&self.scan1, |j, hit| {
            if j >= *done {
                if hit.len() >= 2 {
                    tree.insert(hit);
                }
                *done = j + 1;
            }
            ControlFlow::Continue(())
        })?;
        debug_assert!(flow.is_continue(), "an unguarded pass never aborts");
        Ok(())
    }

    /// Derives the frequent patterns from scan 1 and the tree.
    ///
    /// Normally called once [`scan2_complete`](Self::scan2_complete); if
    /// called earlier the result reflects only the segments processed so
    /// far (a partial, degraded answer — pattern counts can only grow with
    /// more segments).
    pub fn finish(self) -> MiningResult {
        let stats = MiningStats {
            series_scans: 1 + self.scan2_passes,
            max_level: 1,
            ..Default::default()
        };
        crate::hitset::finish(
            &self.tree,
            self.scan1,
            &self.config,
            CountStrategy::default(),
            stats,
        )
    }
}

/// Passes over `source` with no guard: a resumable mine is bounded by
/// whoever drives it, not by a deadline.
fn unguarded(source: &mut dyn SeriesSource) -> Passes<'_> {
    Passes::new(source.into(), ResourceGuard::unlimited(), "hitset.segments")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::{FeatureId, FeatureSeries, MemorySource, SeriesBuilder};

    use crate::error::Error;
    use crate::{run, Engine};

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
        run(engine, &mut MemorySource::new(s), period, config, 1)
    }

    #[test]
    fn streaming_hitset_equals_in_memory() {
        let s = busy(400);
        let config = MineConfig::new(0.2).unwrap();
        let expect = crate::hitset::mine(&s, 8, &config).unwrap();
        let mut src = MemorySource::new(&s);
        let got = run(Engine::HitSet, &mut src, 8, &config, 1).unwrap();
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
        let got = run(Engine::Apriori, &mut src, 8, &config, 1).unwrap();
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
        let miner = ResumableHitsetMiner::start(&mut src, 5, &config).unwrap();
        assert_eq!(miner.scan1.alphabet, expect.alphabet);
        assert_eq!(miner.scan1.letter_counts, expect.letter_counts);
        assert_eq!(miner.segment_count(), expect.segment_count);
        assert_eq!(src.scans_performed(), 1);
    }

    #[test]
    fn streaming_incremental_equals_in_memory() {
        // Over a source, as over fixed rows, the incremental engine is
        // the cold vertical mine: two passes.
        let s = busy(400);
        let config = MineConfig::new(0.2).unwrap();
        let expect = crate::vertical::mine_vertical(&s, 8, &config).unwrap();
        for engine in [Engine::Vertical, Engine::Incremental] {
            let mut src = MemorySource::new(&s);
            let got = run(engine, &mut src, 8, &config, 1).unwrap();
            assert_eq!(got.frequent, expect.frequent, "{engine}");
            assert_eq!(got.stats, expect.stats, "{engine}");
            assert_eq!(src.scans_performed(), 2, "{engine}");
        }
    }

    #[test]
    fn rejects_bad_period() {
        let s = busy(10);
        let config = MineConfig::default();
        for engine in Engine::ALL {
            let mut src = MemorySource::new(&s);
            assert!(run(engine, &mut src, 0, &config, 1).is_err());
            assert!(run(engine, &mut src, 11, &config, 1).is_err());
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

    #[test]
    fn resumable_clean_run_matches_one_shot() {
        let s = busy(400);
        let config = MineConfig::new(0.2).unwrap();
        let expect = streamed(Engine::HitSet, &s, 8, &config).unwrap();

        let mut src = MemorySource::new(&s);
        let mut miner = ResumableHitsetMiner::start(&mut src, 8, &config).unwrap();
        assert_eq!(miner.segment_count(), 50);
        assert_eq!(miner.segments_done(), 0);
        miner.run_scan2(&mut src).unwrap();
        assert!(miner.scan2_complete());
        let got = miner.finish();
        assert_eq!(got.frequent, expect.frequent);
        assert_eq!(
            got.stats, expect.stats,
            "clean resumable run is bit-identical"
        );
    }

    #[test]
    fn resumable_interrupted_scan2_keeps_segment_progress() {
        use ppm_timeseries::{Fault, FaultInjectingSource, FaultPlan};

        let s = busy(400);
        let config = MineConfig::new(0.2).unwrap();
        let expect = streamed(Engine::HitSet, &s, 8, &config).unwrap();

        // Attempt 0 is scan 1 (clean); attempt 1 — the first scan-2 pass —
        // dies after 303 instants (37 whole segments of period 8).
        let plan = FaultPlan::new().fail_scan(1, Fault::ShortRead { instants: 303 });
        let mut src = FaultInjectingSource::new(MemorySource::new(&s), plan);

        let mut miner = ResumableHitsetMiner::start(&mut src, 8, &config).unwrap();
        let err = miner.run_scan2(&mut src).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(miner.segments_done(), 37, "progress survives the failure");
        assert!(!miner.scan2_complete());

        // The retry pass completes the remaining segments without
        // re-inserting the first 37.
        miner.run_scan2(&mut src).unwrap();
        assert!(miner.scan2_complete());
        let got = miner.finish();
        assert_eq!(got.frequent, expect.frequent);
        assert_eq!(got.stats.hit_insertions, expect.stats.hit_insertions);
        assert_eq!(
            got.stats.series_scans, 3,
            "scan 1 + two physical scan-2 passes"
        );
    }

    #[test]
    fn resumable_run_after_completion_is_a_no_op() {
        let s = busy(80);
        let config = MineConfig::new(0.2).unwrap();
        let mut src = MemorySource::new(&s);
        let mut miner = ResumableHitsetMiner::start(&mut src, 8, &config).unwrap();
        miner.run_scan2(&mut src).unwrap();
        let scans = src.scans_performed();
        miner.run_scan2(&mut src).unwrap();
        assert_eq!(src.scans_performed(), scans, "no extra physical scan");
        assert_eq!(miner.finish().stats.series_scans, 2);
    }
}
