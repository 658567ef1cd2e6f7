//! Perturbation-tolerant mining (paper §6).
//!
//! Real periodic behaviour jitters: the 7:00 coffee sometimes happens at
//! 7:05. Exact offset matching then under-counts. The paper proposes to
//! "slightly enlarge the time slot to be examined" — equivalently, to let
//! each instant absorb the features of its neighbours before mining. This
//! module wires the substrate's slot enlargement into the miners.
//!
//! Semantics shift accordingly: a pattern mined with `half_width = w` reads
//! "feature f occurs within ±w slots of offset i", and confidences are
//! monotonically ≥ the exact-matching confidences (enlargement only adds
//! features). Both facts are tested below.

use ppm_timeseries::{window, FeatureSeries};

use crate::engine::{run, Engine};
use crate::error::Result;
use crate::result::MiningResult;
use crate::scan::MineConfig;

/// Mines `series` at `period` after enlarging every slot by `half_width`
/// neighbours on each side (paper §6's first perturbation remedy).
///
/// `half_width = 0` is exact mining. Large `half_width` (approaching the
/// period) makes everything smear together; callers typically use 1 or 2.
pub fn mine_with_slot_enlargement(
    series: &FeatureSeries,
    period: usize,
    half_width: usize,
    config: &MineConfig,
    engine: Engine,
) -> Result<MiningResult> {
    if half_width == 0 {
        return run(engine, series, period, config);
    }
    let enlarged = window::enlarge_slots(series, half_width);
    run(engine, &enlarged, period, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::{FeatureId, SeriesBuilder};

    use crate::pattern::Pattern;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    /// An event that fires at offset 3 ± 1 of a period-8 cycle, with the
    /// jitter alternating deterministically.
    fn jittered(n_periods: usize) -> FeatureSeries {
        let mut b = SeriesBuilder::new();
        for j in 0..n_periods {
            let fire_at = match j % 3 {
                0 => 2,
                1 => 3,
                _ => 4,
            };
            for o in 0..8 {
                if o == fire_at {
                    b.push_instant([fid(0)]);
                } else {
                    b.push_instant([]);
                }
            }
        }
        b.finish()
    }

    #[test]
    fn exact_mining_misses_the_jittered_event() {
        let s = jittered(30);
        let config = MineConfig::new(0.9).unwrap();
        let exact = run(Engine::HitSet, &s, 8, &config).unwrap();
        // Each of offsets 2, 3, 4 sees the event only 1/3 of the time.
        assert!(exact.is_empty());
    }

    #[test]
    fn enlargement_recovers_the_event() {
        let s = jittered(30);
        let config = MineConfig::new(0.9).unwrap();
        let tolerant = mine_with_slot_enlargement(&s, 8, 1, &config, Engine::HitSet).unwrap();
        // Offset 3 ± 1 always contains the event.
        let mut cat = ppm_timeseries::FeatureCatalog::new();
        cat.intern("f0");
        let pat = Pattern::parse("* * * f0 * * * *", &mut cat).unwrap();
        assert_eq!(tolerant.count_of(&pat), Some(30));
    }

    #[test]
    fn zero_width_equals_exact() {
        let s = jittered(12);
        let config = MineConfig::new(0.3).unwrap();
        let a = run(Engine::HitSet, &s, 8, &config).unwrap();
        let b = mine_with_slot_enlargement(&s, 8, 0, &config, Engine::HitSet).unwrap();
        assert_eq!(a.frequent, b.frequent);
    }

    #[test]
    fn confidence_is_monotone_in_width() {
        let s = jittered(30);
        let config = MineConfig::new(0.1).unwrap();
        let exact = run(Engine::HitSet, &s, 8, &config).unwrap();
        let wide = mine_with_slot_enlargement(&s, 8, 1, &config, Engine::HitSet).unwrap();
        // Every pattern frequent under exact matching stays frequent (with
        // count no smaller) under enlargement.
        for (pattern, count, _) in exact.patterns() {
            let wide_count = wide.count_of(&pattern).unwrap_or(0);
            assert!(wide_count >= count, "{pattern:?}: {wide_count} < {count}");
        }
    }

    #[test]
    fn works_with_apriori_too() {
        let s = jittered(15);
        let config = MineConfig::new(0.9).unwrap();
        let h = mine_with_slot_enlargement(&s, 8, 1, &config, Engine::HitSet).unwrap();
        let a = mine_with_slot_enlargement(&s, 8, 1, &config, Engine::Apriori).unwrap();
        assert_eq!(h.frequent, a.frequent);
    }
}
