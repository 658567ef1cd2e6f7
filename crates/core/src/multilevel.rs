//! Multi-level partial periodicity mining over a feature taxonomy
//! (paper §6).
//!
//! "One can explore level-shared mining by first mining the periodicity at
//! a high level, and then progressively drilling-down with the discovered
//! periodic patterns to see whether they are still periodic at a lower
//! level."
//!
//! Concretely, [`mine_multilevel`] mines depth 0 (root features), then for
//! each deeper level `d` generalizes every feature to its depth-`d`
//! ancestor and — the drill-down filter — **drops any occurrence whose
//! depth-`(d−1)` generalization was not a frequent letter at the previous
//! level** at the same period offset. Infrequent high-level behaviour can
//! never become frequent at a finer level (generalization only merges
//! counts), so the filter is lossless for frequent patterns and shrinks the
//! work per level.

use ppm_timeseries::{FeatureId, FeatureSeries, SeriesBuilder, Taxonomy};

use crate::engine::{run, Engine};
use crate::error::Result;
use crate::result::MiningResult;
use crate::scan::MineConfig;

/// The mining result at one taxonomy depth.
#[derive(Debug, Clone)]
pub struct LevelResult {
    /// The taxonomy depth mined (0 = root features).
    pub depth: usize,
    /// Patterns over the depth-`depth` generalized features.
    pub result: MiningResult,
}

/// Generalizes `f` to its ancestor at taxonomy depth `d`; features at depth
/// ≤ `d` pass through unchanged.
fn generalize_to_depth(taxonomy: &Taxonomy, f: FeatureId, d: usize) -> FeatureId {
    let ancestors = taxonomy.ancestors(f); // nearest first; last is the root
    let own_depth = ancestors.len();
    if own_depth <= d {
        f
    } else {
        // Ancestor at depth d is the (own_depth - d)-th one, 1-based from
        // nearest — index own_depth - d - 1.
        ancestors[own_depth - d - 1]
    }
}

/// Mines levels `0 ..= max_depth` of the taxonomy at a fixed period,
/// drilling down with the previous level's frequent letters as a filter.
/// Levels whose alphabet comes up empty end the drill-down early.
pub fn mine_multilevel(
    series: &FeatureSeries,
    taxonomy: &Taxonomy,
    period: usize,
    max_depth: usize,
    config: &MineConfig,
    engine: Engine,
) -> Result<Vec<LevelResult>> {
    let mut out: Vec<LevelResult> = Vec::new();
    let mut prev_alphabet: Option<crate::letters::Alphabet> = None;

    for depth in 0..=max_depth {
        let mut builder = SeriesBuilder::with_capacity(series.len(), series.total_features());
        for (t, instant) in series.iter().enumerate() {
            let offset = t % period;
            builder.push_instant(instant.iter().filter_map(|&f| {
                let g = generalize_to_depth(taxonomy, f, depth);
                if let Some(prev) = &prev_alphabet {
                    // Drill-down filter: the coarser form of this occurrence
                    // must have been a frequent letter one level up.
                    let coarser = generalize_to_depth(taxonomy, f, depth - 1);
                    prev.index_of(offset, coarser)?;
                }
                Some(g)
            }));
        }
        let generalized = builder.finish();
        let result = run(engine, &generalized, period, config)?;
        let empty = result.is_empty();
        prev_alphabet = Some(result.alphabet.clone());
        out.push(LevelResult { depth, result });
        if empty {
            break; // nothing frequent survives at finer levels either
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::FeatureCatalog;

    use crate::pattern::Pattern;

    /// Taxonomy: espresso, latte -> coffee -> beverage; tea -> beverage.
    /// Series (period 2): offset 0 always has some coffee drink — espresso
    /// and latte alternating — offset 1 has tea in half the segments.
    fn setup() -> (FeatureCatalog, Taxonomy, FeatureSeries) {
        let mut cat = FeatureCatalog::new();
        let tax = Taxonomy::from_name_pairs(
            &[
                ("espresso", "coffee"),
                ("latte", "coffee"),
                ("coffee", "beverage"),
                ("tea", "beverage"),
            ],
            &mut cat,
        )
        .unwrap();
        let espresso = cat.get("espresso").unwrap();
        let latte = cat.get("latte").unwrap();
        let tea = cat.get("tea").unwrap();
        let mut b = SeriesBuilder::new();
        for j in 0..12 {
            b.push_instant([if j % 2 == 0 { espresso } else { latte }]);
            b.push_instant(if j % 2 == 0 { vec![tea] } else { vec![] });
        }
        (cat, tax, b.finish())
    }

    #[test]
    fn depth_zero_mines_roots() {
        let (mut cat, tax, series) = setup();
        let config = MineConfig::new(0.9).unwrap();
        let levels = mine_multilevel(&series, &tax, 2, 0, &config, Engine::HitSet).unwrap();
        assert_eq!(levels.len(), 1);
        // At the root level, offset 0 is "beverage" in every segment.
        let pat = Pattern::parse("beverage *", &mut cat).unwrap();
        assert_eq!(levels[0].result.count_of(&pat), Some(12));
    }

    #[test]
    fn drill_down_refines_until_confidence_breaks() {
        let (mut cat, tax, series) = setup();
        let config = MineConfig::new(0.9).unwrap();
        let levels = mine_multilevel(&series, &tax, 2, 2, &config, Engine::HitSet).unwrap();
        // Depth 1: "coffee *" still periodic (every segment); tea at
        // offset 1 only reaches 0.5 and drops out.
        let coffee = Pattern::parse("coffee *", &mut cat).unwrap();
        assert_eq!(levels[1].result.count_of(&coffee), Some(12));
        let tea = Pattern::parse("* tea", &mut cat).unwrap();
        assert_eq!(levels[1].result.count_of(&tea), None);
        // Depth 2: neither espresso nor latte alone is ≥ 0.9 — the level
        // exists but is empty, and the drill-down stops there.
        assert_eq!(levels.len(), 3);
        assert!(levels[2].result.is_empty());
    }

    #[test]
    fn filter_drops_occurrences_infrequent_at_coarser_level() {
        let (mut cat, tax, series) = setup();
        // With min_conf 0.9, tea@1 (conf 0.5) is infrequent at depth 1, so
        // at depth 2 the tea occurrences must have been filtered away
        // entirely: its letter cannot reappear.
        let config = MineConfig::new(0.9).unwrap();
        let levels = mine_multilevel(&series, &tax, 2, 2, &config, Engine::HitSet).unwrap();
        let tea = cat.intern("tea");
        assert!(levels[2].result.alphabet.index_of(1, tea).is_none());
    }

    #[test]
    fn lower_threshold_lets_fine_levels_survive() {
        let (mut cat, tax, series) = setup();
        let config = MineConfig::new(0.4).unwrap();
        let levels = mine_multilevel(&series, &tax, 2, 2, &config, Engine::HitSet).unwrap();
        assert_eq!(levels.len(), 3);
        // espresso appears in half the segments at offset 0: conf 0.5 ≥ 0.4.
        let espresso = Pattern::parse("espresso *", &mut cat).unwrap();
        assert_eq!(levels[2].result.count_of(&espresso), Some(6));
    }

    #[test]
    fn generalize_to_depth_walks_correctly() {
        let (mut cat, tax, _) = setup();
        let espresso = cat.intern("espresso");
        let coffee = cat.intern("coffee");
        let beverage = cat.intern("beverage");
        assert_eq!(generalize_to_depth(&tax, espresso, 0), beverage);
        assert_eq!(generalize_to_depth(&tax, espresso, 1), coffee);
        assert_eq!(generalize_to_depth(&tax, espresso, 2), espresso);
        assert_eq!(generalize_to_depth(&tax, espresso, 9), espresso);
        assert_eq!(generalize_to_depth(&tax, beverage, 0), beverage);
    }
}
