//! Sample statistics, the seeded key generator and the reconciliation
//! arithmetic the workloads share.

use ppm_datagen::rng::{Rng, SplitMix64};

/// The arithmetic mean of `xs`; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The median of `xs` (mean of the middle pair for an even count); 0 for
/// no samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by linear interpolation between order
/// statistics; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The first and third quartiles as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), which is how run-to-run spread is judged.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| -> f64 {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // May be negative when the clamp raised j, exactly as in Python.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Samples beyond which a tail percentile must still have, so the
/// figure describes more than a handful of outliers.
pub const TAIL_BEYOND: usize = 10;

/// A tail figure: the highest percentile with at least [`TAIL_BEYOND`]
/// samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile: share of samples at or below `value`, in percent.
    pub pct: f64,
    /// Samples the figure was drawn from.
    pub n: usize,
    /// Samples strictly above it in rank.
    pub beyond: usize,
    /// False when there were too few samples for any percentile to have
    /// [`TAIL_BEYOND`] beyond it; `value` is then the maximum.
    pub rule_met: bool,
}

/// Computes the [`Tail`] of `xs`.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            pct: 0.0,
            n,
            beyond: 0,
            rule_met: false,
        };
    }
    if n <= TAIL_BEYOND {
        return Tail {
            value: v[n - 1],
            pct: 100.0,
            n,
            beyond: 0,
            rule_met: false,
        };
    }
    let k = n - 1 - TAIL_BEYOND;
    Tail {
        value: v[k],
        pct: 100.0 * (k + 1) as f64 / n as f64,
        n,
        beyond: n - 1 - k,
        rule_met: true,
    }
}

/// Wall time not covered by the measured layer spans. Saturates at zero:
/// spans nest inside the wall clock, so a positive excess of the parts can
/// only be timer truncation, never time to attribute.
pub fn unattributed_ns(wall_ns: u64, parts_ns: &[u64]) -> u64 {
    wall_ns.saturating_sub(parts_ns.iter().sum())
}

/// A seeded Zipf sampler over `n` keys whose popularity ranks are a
/// seeded permutation, so each seed gets a different hot set.
#[derive(Debug, Clone)]
pub struct ZipfKeys {
    cdf: Vec<f64>,
    rank_to_key: Vec<usize>,
    rng: SplitMix64,
}

impl ZipfKeys {
    /// `n` keys, exponent `s`, everything drawn from `seed`.
    pub fn new(n: usize, s: f64, seed: u64) -> ZipfKeys {
        assert!(n > 0, "a Zipf sampler needs at least one key");
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut rank_to_key: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            rank_to_key.swap(i, j);
        }
        ZipfKeys {
            cdf,
            rank_to_key,
            rng,
        }
    }

    /// The next key index in `0..n`.
    pub fn next_key(&mut self) -> usize {
        let u: f64 = self.rng.random();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.rank_to_key[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert!(t.rule_met);
        assert_eq!(t.n, 100);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);

        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.pct, t.beyond), (990.0, 99.0, 10));
    }

    #[test]
    fn tail_at_the_rule_boundary_and_below_it() {
        // Eleven samples: only the minimum has ten beyond it.
        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&xs);
        assert!(t.rule_met);
        assert_eq!((t.value, t.beyond, t.n), (0.0, 10, 11));

        // Ten samples: no percentile qualifies; the maximum is reported
        // and flagged.
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        let t = tail(&xs);
        assert!(!t.rule_met);
        assert_eq!((t.value, t.beyond, t.n, t.pct), (9.0, 0, 10, 100.0));

        assert_eq!(tail(&[]).n, 0);
    }

    #[test]
    fn unattributed_never_goes_negative() {
        assert_eq!(unattributed_ns(1_000, &[200, 300, 400]), 100);
        assert_eq!(unattributed_ns(1_000, &[600, 500]), 0);
        assert_eq!(unattributed_ns(0, &[1]), 0);
        let mut rng = SplitMix64::seed_from_u64(7);
        for _ in 0..10_000 {
            let wall = rng.random_range(0..5_000u64);
            let parts: Vec<u64> = (0..4).map(|_| rng.random_range(0..2_000u64)).collect();
            let u = unattributed_ns(wall, &parts);
            let sum: u64 = parts.iter().sum();
            if wall >= sum {
                assert_eq!(u + sum, wall, "parts + unattributed must equal the wall");
            } else {
                assert_eq!(u, 0);
            }
        }
    }

    #[test]
    fn zipf_keys_are_deterministic_per_seed_and_skewed() {
        let draw = |seed| {
            let mut z = ZipfKeys::new(160, 1.0, seed);
            (0..2_000).map(|_| z.next_key()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let xs = draw(3);
        assert!(xs.iter().all(|&k| k < 160));
        let mut counts = vec![0usize; 160];
        for &k in &xs {
            counts[k] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // The hottest key is drawn far more often than a uniform 1/160.
        assert!(counts[0] > 2_000 / 160 * 5, "{:?}", &counts[..5]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
