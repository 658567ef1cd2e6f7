//! Algorithm 3.2: single-period mining via the max-subpattern hit set.

use std::ops::ControlFlow;

use ppm_timeseries::{EncodedSeriesView, FeatureSeries};

use crate::error::Result;
use crate::guard::{Abort, ResourceGuard};
use crate::hitset::derive::{derive_frequent, CountStrategy};
use crate::hitset::tree::MaxSubpatternTree;
use crate::letters::LetterSet;
use crate::result::MiningResult;
use crate::rows::{Input, Passes};
use crate::scan::{MineConfig, Scan1};
use crate::stats::MiningStats;

/// Mines all frequent partial periodic patterns of `period` in `series`
/// with the max-subpattern hit-set method (paper Algorithm 3.2), using the
/// default bitmap counting strategy: the tree's distinct hits counted by
/// AND + weighted popcount on the config's
/// [`Kernel`](crate::vertical::Kernel), as the vertical engine counts.
///
/// Exactly **two** scans of the series are performed, independent of the
/// period and of the length of the longest frequent pattern.
pub fn mine(series: &FeatureSeries, period: usize, config: &MineConfig) -> Result<MiningResult> {
    mine_with_strategy(series, period, config, CountStrategy::default())
}

/// [`mine`] over a borrowed bitmap view (an
/// [`EncodedSeries`](ppm_timeseries::EncodedSeries) cache or a columnar
/// file load): both scans probe the packed rows, so no
/// [`FeatureSeries`] needs to exist.
pub fn mine_view(
    view: EncodedSeriesView<'_>,
    period: usize,
    config: &MineConfig,
) -> Result<MiningResult> {
    mine_with_strategy(view, period, config, CountStrategy::default())
}

/// Algorithm 3.2 over any [`Input`] (a `&FeatureSeries`, an
/// [`EncodedSeriesView`], or a re-scanned
/// [`SeriesSource`](ppm_timeseries::SeriesSource)) with an explicit
/// counting strategy; the ablations and the `races` binary's
/// vertical-vs-tree-walk race pin one here.
pub fn mine_with_strategy<'a>(
    input: impl Into<Input<'a>>,
    period: usize,
    config: &MineConfig,
    strategy: CountStrategy,
) -> Result<MiningResult> {
    let _mine_span = ppm_observe::span("hitset.mine");
    let mut passes = Passes::new(input.into(), ResourceGuard::new(config), "hitset.segments");

    // Scan 1: frequent 1-patterns and C_max.
    let scan1 = {
        let _span = ppm_observe::span("hitset.scan1");
        passes.scan1(period, config)?
    };
    ppm_observe::gauge("hitset.segments_total", scan1.segment_count as u64);
    ppm_observe::gauge("hitset.f1_letters", scan1.alphabet.len() as u64);
    let mut stats = MiningStats {
        max_level: 1,
        ..Default::default()
    };
    passes.settle(passes.deadline(), &mut stats)?;

    // Scan 2: register each segment's maximal hit subpattern.
    let tree = {
        let _span = ppm_observe::span("hitset.scan2");
        grow_tree(&mut passes, &scan1, &mut stats)?
    };
    ppm_observe::gauge("tree.nodes", stats.tree_nodes as u64);
    ppm_observe::gauge("tree.distinct_hits", stats.distinct_hits as u64);

    // Derivation: 1-letter counts from scan 1, the rest from the tree.
    let _derive_span = ppm_observe::span("hitset.derive");
    Ok(finish(&tree, scan1, config, strategy, stats))
}

/// Algorithm 3.2's last step: the tree's size statistics, the 1-letter
/// patterns from scan 1, every longer one derived from the tree.
pub(crate) fn finish(
    tree: &MaxSubpatternTree,
    scan1: Scan1,
    config: &MineConfig,
    strategy: CountStrategy,
    mut stats: MiningStats,
) -> MiningResult {
    absorb_tree_stats(&mut stats, tree);
    let mut frequent = scan1.seed_singletons();
    derive_frequent(
        tree,
        &scan1,
        strategy,
        config.kernel(),
        &mut frequent,
        &mut stats,
    );
    scan1.into_result(config, frequent, stats)
}

/// Counts a pattern of any size: 0 letters → `m` (matches everything),
/// 1 letter → the exact scan-1 count, otherwise the tree.
///
/// The 1-letter special case matters: segments whose projection has a
/// single letter are *not* inserted in the tree (paper §4), so their counts
/// only exist in scan 1.
pub(crate) fn count_any(tree: &MaxSubpatternTree, scan1: &Scan1, set: &LetterSet) -> u64 {
    match set.len() {
        0 => scan1.segment_count as u64,
        1 => scan1.letter_counts[set.first().expect("non-empty")],
        _ => tree.count_superpatterns_walk(set),
    }
}

/// Scan 1 and scan 2 with no guards over `input`, for the miners that
/// answer from the tree alone (maximal, closed): the scan-1 result, the
/// tree, and stats recording the two passes and the tree's size.
pub(crate) fn scan_and_build_tree<'a>(
    input: impl Into<Input<'a>>,
    period: usize,
    config: &MineConfig,
) -> Result<(Scan1, MaxSubpatternTree, MiningStats)> {
    let mut passes = Passes::new(input.into(), ResourceGuard::unlimited(), "hitset.segments");
    let scan1 = passes.scan1(period, config)?;
    let mut stats = MiningStats {
        max_level: 1,
        ..Default::default()
    };
    let tree = grow_tree(&mut passes, &scan1, &mut stats)?;
    Ok((scan1, tree, stats))
}

/// Scan 2 under the pass's guards: projects every whole segment onto the
/// frequent-letter alphabet and inserts hits with at least two letters
/// into the tree (1-letter hits carry no information beyond scan 1; empty
/// hits none). The tree budget is checked after every insert, the deadline
/// by the pass. The tree's statistics and the passes completed land in
/// `stats` either way; on a violation the typed guard error carries them.
pub(crate) fn grow_tree(
    passes: &mut Passes<'_>,
    scan1: &Scan1,
    stats: &mut MiningStats,
) -> Result<MaxSubpatternTree> {
    let guard = passes.guard();
    let mut tree = MaxSubpatternTree::new(scan1.alphabet.full_set());
    let flow = passes.segments(scan1, |_, hit| {
        if hit.len() >= 2 {
            tree.insert(hit);
            if guard.tree_over_budget(tree.node_count()) {
                return ControlFlow::Break(Abort::TreeBudget);
            }
        }
        ControlFlow::Continue(())
    })?;
    absorb_tree_stats(stats, &tree);
    passes.settle(flow, stats)?;
    Ok(tree)
}

/// Records a (possibly partial) tree's size statistics into `stats`.
fn absorb_tree_stats(stats: &mut MiningStats, tree: &MaxSubpatternTree) {
    stats.tree_nodes = tree.node_count();
    stats.distinct_hits = tree.distinct_hits();
    stats.hit_insertions = tree.total_hits();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::{FeatureCatalog, FeatureId, SeriesBuilder};

    use crate::letters::LetterSet;
    use crate::pattern::Pattern;
    use crate::stats::hit_set_bound;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    /// The paper's §2 example series "a{b,c}b aeb ace d", period 3.
    fn example_series(cat: &mut FeatureCatalog) -> FeatureSeries {
        let a = cat.intern("a");
        let b = cat.intern("b");
        let c = cat.intern("c");
        let e = cat.intern("e");
        let d = cat.intern("d");
        let mut builder = SeriesBuilder::new();
        builder.push_instant([a]);
        builder.push_instant([b, c]);
        builder.push_instant([b]);
        builder.push_instant([a]);
        builder.push_instant([e]);
        builder.push_instant([b]);
        builder.push_instant([a]);
        builder.push_instant([c]);
        builder.push_instant([e]);
        builder.push_instant([d]);
        builder.finish()
    }

    #[test]
    fn mines_paper_example_identically_to_apriori() {
        let mut cat = FeatureCatalog::new();
        let series = example_series(&mut cat);
        let config = MineConfig::new(0.6).unwrap();
        let hitset = mine(&series, 3, &config).unwrap();
        let apriori = crate::apriori::mine(&series, 3, &config).unwrap();
        assert_eq!(hitset.frequent, apriori.frequent);
        // Spot-check: a*b frequent with count 2.
        let a_star_b = Pattern::parse("a * b", &mut cat).unwrap();
        assert_eq!(hitset.count_of(&a_star_b), Some(2));
    }

    #[test]
    fn always_two_scans() {
        let mut b = SeriesBuilder::new();
        for t in 0..300u32 {
            // A long embedded pattern so Apriori would need many levels.
            b.push_instant([fid(t % 10)]);
        }
        let s = b.finish();
        let result = mine(&s, 10, &MineConfig::new(0.9).unwrap()).unwrap();
        assert_eq!(result.stats.series_scans, 2);
        assert_eq!(result.max_letter_count(), 10);
        // Apriori needs 10 scans on the same input: one for F1 plus one per
        // level 2..=10 (the level-10 join yields no candidates, so no
        // further scan happens).
        let apriori = crate::apriori::mine(&s, 10, &MineConfig::new(0.9).unwrap()).unwrap();
        assert_eq!(apriori.stats.series_scans, 10);
        assert_eq!(apriori.frequent, result.frequent);
    }

    #[test]
    fn hit_set_respects_property_3_2_bound() {
        let mut b = SeriesBuilder::new();
        let mut x: u64 = 7;
        for _ in 0..400 {
            let mut inst = Vec::new();
            for f in 0..4u32 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                if (x >> 33).is_multiple_of(2) {
                    inst.push(fid(f));
                }
            }
            b.push_instant(inst);
        }
        let s = b.finish();
        let result = mine(&s, 8, &MineConfig::new(0.2).unwrap()).unwrap();
        let m = result.segment_count as u64;
        let f1 = result.alphabet.len() as u32;
        assert!(
            (result.stats.distinct_hits as u64) <= hit_set_bound(m, f1),
            "distinct hits {} exceed bound {}",
            result.stats.distinct_hits,
            hit_set_bound(m, f1)
        );
        assert!(result.stats.hit_insertions <= m);
    }

    #[test]
    fn one_letter_hits_are_not_inserted() {
        // Segments contain at most one frequent letter: tree stays trivial.
        let mut b = SeriesBuilder::new();
        for _ in 0..5 {
            b.push_instant([fid(0)]);
            b.push_instant([]);
        }
        let s = b.finish();
        let result = mine(&s, 2, &MineConfig::new(0.8).unwrap()).unwrap();
        assert_eq!(result.stats.hit_insertions, 0);
        assert_eq!(result.stats.tree_nodes, 1); // just the root
        assert_eq!(result.len(), 1); // the 1-pattern f0 at offset 0
    }

    /// A pseudo-random series with many distinct segment hits, to exercise
    /// tree growth.
    fn busy_series(n: usize) -> FeatureSeries {
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

    #[test]
    fn tree_budget_aborts_with_partial_stats() {
        use crate::error::Error;
        let s = busy_series(400);
        let config = MineConfig::new(0.2).unwrap().with_max_tree_nodes(2);
        let err = mine(&s, 8, &config).unwrap_err();
        match err {
            Error::TreeBudgetExceeded {
                nodes,
                budget,
                stats,
            } => {
                assert_eq!(budget, 2);
                assert!(nodes > 2);
                assert!(stats.hit_insertions >= 1, "partial progress recorded");
                assert_eq!(stats.series_scans, 1, "aborted during scan 2");
            }
            other => panic!("expected TreeBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn budget_abort_reports_the_partial_trees_totals() {
        let s = busy_series(400);
        let config = MineConfig::new(0.2).unwrap();
        let scan1 = crate::scan::scan_frequent_letters(&s, 8, &config).unwrap();
        let alphabet = &scan1.alphabet;
        for budget in [2, 5, 20] {
            // Replay scan 2 up to the insert that trips the budget.
            let mut tree = MaxSubpatternTree::new(alphabet.full_set());
            let mut inserted = 0u64;
            for seg in s.segments(8).unwrap() {
                let hit = LetterSet::from_indices(
                    alphabet.len(),
                    (0..8).flat_map(|o| {
                        seg.at(o)
                            .iter()
                            .filter_map(move |&f| alphabet.index_of(o, f))
                    }),
                );
                if hit.len() >= 2 {
                    tree.insert(&hit);
                    inserted += 1;
                    if tree.node_count() > budget {
                        break;
                    }
                }
            }
            assert_eq!(tree.total_hits(), inserted);
            let err = mine(&s, 8, &config.with_max_tree_nodes(budget)).unwrap_err();
            let stats = err.partial_stats().unwrap();
            assert_eq!(stats.hit_insertions, inserted, "budget {budget}");
            assert_eq!(stats.tree_nodes, tree.node_count(), "budget {budget}");
        }
    }

    #[test]
    fn scan2_deadline_abort_counts_completed_passes_on_each_input() {
        use crate::error::Error;
        use ppm_timeseries::MemorySource;
        // The deadline passes between the scans. Fixed rows stop scan 2
        // at its first poll, so only scan 1 completed; a source's muted
        // scan 2 still ran to the end.
        let s = busy_series(400);
        let config = MineConfig::new(0.2).unwrap();
        let guard = ResourceGuard::new(&config.with_deadline(std::time::Duration::ZERO));
        let mut source = MemorySource::new(&s);
        for (input, completed) in [(Input::from(&s), 1), (Input::from(&mut source), 2)] {
            let mut passes = Passes::new(input, guard, "hitset.segments");
            let scan1 = passes.scan1(8, &config).unwrap();
            let mut stats = MiningStats::default();
            let err = grow_tree(&mut passes, &scan1, &mut stats).unwrap_err();
            assert!(matches!(err, Error::DeadlineExceeded { .. }), "got {err:?}");
            let partial = err.partial_stats().unwrap();
            assert_eq!(partial.series_scans, completed);
            assert_eq!(partial.hit_insertions, 1, "one segment before the poll");
        }
    }

    #[test]
    fn zero_deadline_aborts_with_typed_error() {
        use crate::error::Error;
        let s = busy_series(400);
        let config = MineConfig::new(0.2)
            .unwrap()
            .with_deadline(std::time::Duration::ZERO);
        let err = mine(&s, 8, &config).unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded { .. }), "got {err:?}");
        assert!(err.partial_stats().is_some());
    }

    #[test]
    fn generous_guards_leave_results_unchanged() {
        let s = busy_series(400);
        let plain = MineConfig::new(0.2).unwrap();
        let guarded = plain
            .with_deadline(std::time::Duration::from_secs(3600))
            .with_max_tree_nodes(1 << 30);
        let a = mine(&s, 8, &plain).unwrap();
        let b = mine(&s, 8, &guarded).unwrap();
        assert_eq!(a.frequent, b.frequent);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn empty_alphabet_short_circuits() {
        let mut b = SeriesBuilder::new();
        for t in 0..10u32 {
            b.push_instant([fid(t)]);
        }
        let s = b.finish();
        let result = mine(&s, 2, &MineConfig::new(0.9).unwrap()).unwrap();
        assert!(result.is_empty());
        assert_eq!(result.stats.series_scans, 2);
    }

    #[test]
    fn bitmap_matches_tree_walk_on_dense_table1_data() {
        use crate::vertical::Kernel;
        // A dense Table-1 store (|F1| = 24, long planted patterns) mined
        // at the low threshold where derivation dominates.
        let g = ppm_datagen::SyntheticSpec::table1(6_000, 30, 12, 24).generate();
        let config = MineConfig::new(0.35).unwrap();
        let bitmap = mine(&g.series, 30, &config).unwrap();
        let walk = mine_with_strategy(&g.series, 30, &config, CountStrategy::TreeWalk).unwrap();
        assert!(bitmap.len() > 1_000, "{} patterns", bitmap.len());
        // Same patterns, counts and order, and the same statistics.
        assert_eq!(bitmap.frequent, walk.frequent);
        assert_eq!(bitmap.stats, walk.stats);
        // The scalar reference kernel counts the hit set identically.
        let scalar = mine(&g.series, 30, &config.with_kernel(Kernel::Scalar)).unwrap();
        assert_eq!(scalar.frequent, bitmap.frequent);
        assert_eq!(scalar.stats, bitmap.stats);
    }

    #[test]
    fn view_mine_equals_series_mine() {
        use ppm_timeseries::EncodedSeries;
        let s = busy_series(400);
        let encoded = EncodedSeries::encode(&s);
        let config = MineConfig::new(0.2).unwrap();
        for p in [4, 8] {
            let plain = mine(&s, p, &config).unwrap();
            let viewed = mine_view(encoded.view(), p, &config).unwrap();
            assert_eq!(plain.frequent, viewed.frequent, "period {p}");
            assert_eq!(plain.stats, viewed.stats, "period {p}");
        }
    }
}
