//! Experiment harness reproducing the paper's evaluation (§5) plus the
//! analysis-backed experiments of DESIGN.md.
//!
//! Each `run_*` function executes one experiment and returns structured
//! rows; the `experiments` binary renders them in the paper's table/series
//! shapes. Wall-clock numbers here are single-shot measurements (the paper
//! reports single runs on a Pentium 166; we care about curve *shape*, not
//! absolute seconds).
//!
//! The [`races`] module holds the repository's same-run performance races,
//! which the `races` binary runs with their floors and bands.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod races;

use std::time::Instant;

use ppm_core::hitset::derive::CountStrategy;
use ppm_core::multi::{mine_periods_looping, mine_periods_shared, PeriodRange};
use ppm_core::{apriori, hit_set_bound, hitset, maximal, Engine, MineConfig};
use ppm_datagen::SyntheticSpec;

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

// ------------------------------------------------------------- Figure 2

/// One point of the Figure 2 sweep.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Series length (the paper runs 100k and 500k).
    pub length: usize,
    /// MAX-PAT-LENGTH of the planted structure.
    pub max_pat_length: usize,
    /// Apriori (Alg 3.1) wall seconds.
    pub apriori_secs: f64,
    /// Hit-set (Alg 3.2) wall seconds.
    pub hitset_secs: f64,
    /// Apriori scans over the series.
    pub apriori_scans: usize,
    /// Hit-set scans over the series (always 2).
    pub hitset_scans: usize,
    /// Frequent patterns found (identical for both algorithms — verified).
    pub patterns: usize,
    /// Recovered maximal L-length (must equal `max_pat_length`).
    pub recovered_max_len: usize,
}

/// Runs the Figure 2 experiment: Apriori vs max-subpattern hit-set as
/// MAX-PAT-LENGTH grows, at the paper's `p = 50`, `|F1| = 12`.
///
/// Panics if the two algorithms disagree — the benchmark doubles as a
/// correctness check.
pub fn run_figure2(length: usize, max_pat_lengths: &[usize]) -> Vec<Fig2Row> {
    let mut rows = Vec::new();
    for &mpl in max_pat_lengths {
        let spec = SyntheticSpec::figure2(length, mpl);
        let data = spec.generate();
        let config = MineConfig::new(spec.recommended_min_conf()).unwrap();

        // Deterministic workload: report the minimum of three runs so a
        // stray scheduler hiccup cannot dent the curve.
        let mut apriori_secs = f64::INFINITY;
        let mut hitset_secs = f64::INFINITY;
        let mut ap = None;
        let mut hs = None;
        for _ in 0..3 {
            let (a, t) = timed(|| apriori::mine(&data.series, 50, &config).unwrap());
            apriori_secs = apriori_secs.min(t);
            ap = Some(a);
            let (h, t) = timed(|| hitset::mine(&data.series, 50, &config).unwrap());
            hitset_secs = hitset_secs.min(t);
            hs = Some(h);
        }
        let (ap, hs) = (ap.expect("ran"), hs.expect("ran"));
        assert_eq!(ap.frequent, hs.frequent, "algorithms disagree at MPL {mpl}");

        rows.push(Fig2Row {
            length,
            max_pat_length: mpl,
            apriori_secs,
            hitset_secs,
            apriori_scans: ap.stats.series_scans,
            hitset_scans: hs.stats.series_scans,
            patterns: hs.len(),
            recovered_max_len: hs.max_l_length(),
        });
    }
    rows
}

// ------------------------------------------------------------- Table 1

/// Generator self-check for one Table 1 parameter row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Requested series length.
    pub length: usize,
    /// Requested period.
    pub period: usize,
    /// Requested MAX-PAT-LENGTH.
    pub max_pat_length: usize,
    /// Requested |F1|.
    pub f1_count: usize,
    /// |F1| recovered by mining at the recommended threshold.
    pub recovered_f1: usize,
    /// MAX-PAT-LENGTH recovered by mining.
    pub recovered_max_len: usize,
    /// Mean features per instant in the generated series.
    pub mean_features: f64,
}

/// Validates that the generator honours the four Table 1 parameters by
/// mining its own output.
pub fn run_table1(rows: &[(usize, usize, usize, usize)]) -> Vec<Table1Row> {
    rows.iter()
        .map(|&(length, period, mpl, f1)| {
            let spec = SyntheticSpec::table1(length, period, mpl, f1);
            let data = spec.generate();
            let config = MineConfig::new(spec.recommended_min_conf()).unwrap();
            let result = hitset::mine(&data.series, period, &config).unwrap();
            Table1Row {
                length,
                period,
                max_pat_length: mpl,
                f1_count: f1,
                recovered_f1: result.alphabet.len(),
                recovered_max_len: result.max_l_length(),
                mean_features: data.series.stats().mean_features_per_instant,
            }
        })
        .collect()
}

// ------------------------------------------------------------- Scans (E4)

/// Scan counts per algorithm for one MAX-PAT-LENGTH.
#[derive(Debug, Clone)]
pub struct ScanRow {
    /// MAX-PAT-LENGTH of the planted structure.
    pub max_pat_length: usize,
    /// Apriori scans (1 + one per level).
    pub apriori: usize,
    /// Hit-set scans (always 2).
    pub hitset: usize,
}

/// Measures series scans as the longest pattern grows (§3 analysis).
pub fn run_scans(length: usize, max_pat_lengths: &[usize]) -> Vec<ScanRow> {
    max_pat_lengths
        .iter()
        .map(|&mpl| {
            let spec = SyntheticSpec::figure2(length, mpl);
            let data = spec.generate();
            let config = MineConfig::new(spec.recommended_min_conf()).unwrap();
            let ap = apriori::mine(&data.series, 50, &config).unwrap();
            let hs = hitset::mine(&data.series, 50, &config).unwrap();
            ScanRow {
                max_pat_length: mpl,
                apriori: ap.stats.series_scans,
                hitset: hs.stats.series_scans,
            }
        })
        .collect()
}

// ------------------------------------------------------------- Space (E5)

/// Hit-set sizes against the Property 3.2 bound.
#[derive(Debug, Clone)]
pub struct SpaceRow {
    /// |F1| of the planted structure.
    pub f1_count: usize,
    /// Number of whole segments m.
    pub segments: usize,
    /// Distinct hit patterns stored.
    pub distinct_hits: usize,
    /// Total tree nodes (incl. 0-count interior nodes).
    pub tree_nodes: usize,
    /// The Property 3.2 bound min(m, 2^|F1| − 1).
    pub bound: u64,
}

/// Sweeps |F1| and verifies Property 3.2 end to end.
pub fn run_space(length: usize, period: usize, f1_counts: &[usize]) -> Vec<SpaceRow> {
    f1_counts
        .iter()
        .map(|&f1| {
            let mpl = (f1 / 2).max(2);
            let spec = SyntheticSpec::table1(length, period, mpl, f1);
            let data = spec.generate();
            let config = MineConfig::new(spec.recommended_min_conf()).unwrap();
            let result = hitset::mine(&data.series, period, &config).unwrap();
            let bound = hit_set_bound(result.segment_count as u64, result.alphabet.len() as u32);
            assert!(
                result.stats.distinct_hits as u64 <= bound,
                "Property 3.2 violated: {} > {bound}",
                result.stats.distinct_hits
            );
            SpaceRow {
                f1_count: f1,
                segments: result.segment_count,
                distinct_hits: result.stats.distinct_hits,
                tree_nodes: result.stats.tree_nodes,
                bound,
            }
        })
        .collect()
}

// --------------------------------------------------------- Multi-period (E6)

/// Looping (Alg 3.3) vs shared (Alg 3.4) over a period range.
#[derive(Debug, Clone)]
pub struct MultiPeriodRow {
    /// Number of periods in the range.
    pub periods: usize,
    /// Looping wall seconds.
    pub looping_secs: f64,
    /// Shared wall seconds.
    pub shared_secs: f64,
    /// Looping scan count (2 per period).
    pub looping_scans: usize,
    /// Shared scan count (always 2).
    pub shared_scans: usize,
}

/// Compares Algorithms 3.3 and 3.4 on period ranges of growing width
/// centred on the planted period.
pub fn run_multiperiod(length: usize, widths: &[usize]) -> Vec<MultiPeriodRow> {
    let spec = SyntheticSpec::table1(length, 24, 4, 8);
    let data = spec.generate();
    let config = MineConfig::new(spec.recommended_min_conf()).unwrap();
    widths
        .iter()
        .map(|&w| {
            let range = PeriodRange::new(24 - w / 2, 24 + w.div_ceil(2)).unwrap();
            let (looped, looping_secs) = timed(|| {
                mine_periods_looping(&data.series, range, &config, Engine::HitSet).unwrap()
            });
            let (shared, shared_secs) =
                timed(|| mine_periods_shared(&data.series, range, &config).unwrap());
            for (a, b) in looped.results.iter().zip(&shared.results) {
                assert_eq!(a.frequent, b.frequent, "period {}", a.period);
            }
            MultiPeriodRow {
                periods: range.len(),
                looping_secs,
                shared_secs,
                looping_scans: looped.total_scans,
                shared_scans: shared.total_scans,
            }
        })
        .collect()
}

// ------------------------------------------------------------- Maximal (E8)

/// Full derivation vs MaxMiner-hybrid maximal mining vs closed mining.
#[derive(Debug, Clone)]
pub struct MaximalRow {
    /// MAX-PAT-LENGTH of the planted structure.
    pub max_pat_length: usize,
    /// Full derivation (all frequent patterns) wall seconds.
    pub full_secs: f64,
    /// MaxMiner hybrid wall seconds.
    pub maxminer_secs: f64,
    /// Closure-based closed mining wall seconds.
    pub closed_secs: f64,
    /// Total frequent patterns (full derivation).
    pub frequent: usize,
    /// Maximal patterns.
    pub maximal: usize,
    /// Closed patterns (lossless compression of the frequent set).
    pub closed: usize,
    /// Tree-count lookups performed by MaxMiner.
    pub maxminer_probes: u64,
}

/// The §4 hybrid: how much work look-ahead saves as patterns lengthen.
pub fn run_maximal(length: usize, max_pat_lengths: &[usize]) -> Vec<MaximalRow> {
    max_pat_lengths
        .iter()
        .map(|&mpl| {
            let spec = SyntheticSpec::figure2(length, mpl);
            let data = spec.generate();
            let config = MineConfig::new(spec.recommended_min_conf()).unwrap();
            let (full, full_secs) = timed(|| hitset::mine(&data.series, 50, &config).unwrap());
            let (max, maxminer_secs) =
                timed(|| maximal::mine_maximal(&data.series, 50, &config).unwrap());
            let (closed, closed_secs) =
                timed(|| ppm_core::closed::mine_closed(&data.series, 50, &config).unwrap());
            let reference = full.maximal();
            assert_eq!(max.maximal.len(), reference.len(), "maximal sets disagree");
            assert_eq!(
                closed.closed,
                ppm_core::closed::closed_of(&full),
                "closed sets disagree"
            );
            MaximalRow {
                max_pat_length: mpl,
                full_secs,
                maxminer_secs,
                closed_secs,
                frequent: full.len(),
                maximal: max.maximal.len(),
                closed: closed.closed.len(),
                maxminer_probes: max.stats.subset_tests,
            }
        })
        .collect()
}

// ----------------------------------------------------- Derivation ablation (E7)

/// Tree-walk vs linear-scan candidate counting.
#[derive(Debug, Clone)]
pub struct DeriveRow {
    /// Series length used.
    pub length: usize,
    /// Tree-walk derivation wall seconds (whole Alg 3.2 run).
    pub walk_secs: f64,
    /// Linear-scan derivation wall seconds (whole Alg 3.2 run).
    pub linear_secs: f64,
    /// Distinct hits in the tree.
    pub distinct_hits: usize,
}

/// Ablation: the paper's pruned trie traversal against a flat scan of the
/// hit set, as the hit set grows with series length.
pub fn run_derivation_ablation(lengths: &[usize]) -> Vec<DeriveRow> {
    lengths
        .iter()
        .map(|&length| {
            let spec = SyntheticSpec::figure2(length, 6);
            let data = spec.generate();
            let config = MineConfig::new(spec.recommended_min_conf()).unwrap();
            let (walk, walk_secs) = timed(|| {
                hitset::mine_with_strategy(&data.series, 50, &config, CountStrategy::TreeWalk)
                    .unwrap()
            });
            let (linear, linear_secs) = timed(|| {
                hitset::mine_with_strategy(&data.series, 50, &config, CountStrategy::LinearScan)
                    .unwrap()
            });
            assert_eq!(walk.frequent, linear.frequent);
            DeriveRow {
                length,
                walk_secs,
                linear_secs,
                distinct_hits: walk.stats.distinct_hits,
            }
        })
        .collect()
}

// ------------------------------------------------------------- Disk (E10)

/// Disk-resident mining: Apriori vs hit-set when every scan is real I/O.
#[derive(Debug, Clone)]
pub struct DiskRow {
    /// MAX-PAT-LENGTH of the planted structure.
    pub max_pat_length: usize,
    /// Streaming Apriori wall seconds (includes all file re-reads).
    pub apriori_secs: f64,
    /// Streaming hit-set wall seconds.
    pub hitset_secs: f64,
    /// Physical file scans by Apriori.
    pub apriori_scans: usize,
    /// Physical file scans by the hit-set method (always 2).
    pub hitset_scans: usize,
    /// File size in bytes.
    pub file_bytes: u64,
}

/// The §5 disk argument, made concrete: [`ppm_core::run`] both algorithms
/// over a `.ppmc` store through a
/// [`ColumnarSource`](ppm_timeseries::columnar::ColumnarSource), so
/// Apriori's extra levels become extra passes over the file. Results are
/// asserted equal to the in-memory miners.
pub fn run_disk(length: usize, max_pat_lengths: &[usize]) -> Vec<DiskRow> {
    use ppm_core::run;
    use ppm_timeseries::columnar::{write_columnar, ColumnarSource};
    use ppm_timeseries::SeriesSource as _;

    let dir = std::env::temp_dir().join(format!("ppm-disk-exp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut rows = Vec::new();
    for &mpl in max_pat_lengths {
        let spec = SyntheticSpec::figure2(length, mpl);
        let data = spec.generate();
        let config = MineConfig::new(spec.recommended_min_conf()).unwrap();
        let path = dir.join(format!("fig2-{length}-{mpl}.ppmc"));
        write_columnar(&path, &data.series, &data.catalog).expect("write store");
        let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

        let mut src = ColumnarSource::open(&path).expect("open store");
        let (ap, apriori_secs) = timed(|| run(Engine::Apriori, &mut src, 50, &config).unwrap());
        let apriori_scans = src.scans_performed();

        let mut src = ColumnarSource::open(&path).expect("open store");
        let (hs, hitset_secs) = timed(|| run(Engine::HitSet, &mut src, 50, &config).unwrap());
        let hitset_scans = src.scans_performed();

        assert_eq!(
            ap.frequent, hs.frequent,
            "disk algorithms disagree at MPL {mpl}"
        );
        let mem = hitset::mine(&data.series, 50, &config).unwrap();
        assert_eq!(
            hs.frequent, mem.frequent,
            "disk vs memory disagree at MPL {mpl}"
        );

        std::fs::remove_file(&path).ok();
        rows.push(DiskRow {
            max_pat_length: mpl,
            apriori_secs,
            hitset_secs,
            apriori_scans,
            hitset_scans,
            file_bytes,
        });
    }
    std::fs::remove_dir_all(&dir).ok();
    rows
}
