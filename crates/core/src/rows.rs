//! How a miner visits instants: the one place every engine reads its
//! input.
//!
//! Every engine's scans reduce to two passes — "count each feature at
//! its offset" (scan 1) and "project each whole segment onto the
//! frequent-letter alphabet" (scan 2, and each of Apriori's level
//! scans). [`Rows`] dispatches that work over either a
//! [`FeatureSeries`] (the CSR substrate) or a borrowed
//! [`EncodedSeriesView`] (the in-memory cache, or a `.ppmc` columnar file
//! loaded without materializing a series at all). [`Input`] adds the
//! third substrate, a [`SeriesSource`] that is physically re-scanned on
//! every pass (§5's disk-resident series), and `Passes` runs both passes
//! over any of them, so each miner has one implementation for every
//! input.
//!
//! Over packed rows both passes run word-wise: scan 1 counts through
//! [`RowCounts`]' carry planes and byte lanes, scan 2 projects each
//! segment through the alphabet's [`SegmentMasks`]. The per-instant
//! loops over a [`FeatureSeries`] are the reference both are tested
//! against.
//!
//! `Passes` also owns what every pass shares: the resource guard's
//! deadline poll (once per [`DEADLINE_CHECK_INTERVAL`] segments) and the
//! count of completed passes each miner reports as `series_scans`. On
//! fixed rows a pass stops at the first abort; a source's scan cannot be
//! cut short, so the rest of the pass is muted instead and still counts
//! as completed. A source reports its own scan count, so a retried scan
//! stays one logical scan.

use std::collections::HashMap;
use std::ops::ControlFlow;

use ppm_timeseries::{EncodedSeriesView, FeatureId, FeatureSeries, SeriesSource};

use crate::error::{Error, Result};
use crate::guard::{Abort, ResourceGuard, DEADLINE_CHECK_INTERVAL};
use crate::letters::{Alphabet, LetterSet, SegmentMasks};
use crate::scan::{scan1_from_counts, CountTable, MineConfig, Scan1};
use crate::stats::MiningStats;

/// The two in-memory row substrates the miners consume.
#[derive(Debug, Clone, Copy)]
pub enum Rows<'a> {
    /// Raw CSR feature slices.
    Series(&'a FeatureSeries),
    /// Packed per-instant bitmaps, borrowed from an [`EncodedSeries`]
    /// cache or a columnar file load.
    ///
    /// [`EncodedSeries`]: ppm_timeseries::EncodedSeries
    View(EncodedSeriesView<'a>),
}

impl<'a> Rows<'a> {
    /// Number of instants.
    pub(crate) fn len(&self) -> usize {
        match self {
            Rows::Series(s) => s.len(),
            Rows::View(v) => v.len(),
        }
    }

    /// Scan 1's counts of every `(offset, feature)` over the first
    /// `usable` instants (whole segments of `period`).
    fn count(&self, period: usize, usable: usize) -> CountTable {
        match self {
            Rows::Series(s) => {
                let mut counts = CountTable::with_width(period, CountTable::width_of(s));
                for t in 0..usable {
                    for &f in s.instant(t) {
                        counts.add((t % period) as u32, f);
                    }
                }
                counts
            }
            Rows::View(v) => {
                let mut counts = RowCounts::new(period, v.words_per_instant());
                counts.add_segments(&v.words()[..usable * v.words_per_instant()]);
                counts.finish()
            }
        }
    }

    /// Scan 2's projection of whole segments onto `alphabet`.
    fn projector<'s>(&self, alphabet: &'s Alphabet) -> Projector<'s>
    where
        'a: 's,
    {
        match *self {
            Rows::Series(s) => Projector::Series(s, alphabet),
            Rows::View(v) => Projector::View {
                words: v.words(),
                segment_words: alphabet.period() * v.words_per_instant(),
                masks: alphabet.segment_masks(v.words_per_instant()),
            },
        }
    }
}

/// How [`Passes::segments`] projects a whole segment of fixed rows.
enum Projector<'a> {
    /// Merge-walks each instant's feature slice against the alphabet.
    Series(&'a FeatureSeries, &'a Alphabet),
    /// One masked load per letter from the segment's packed words.
    View {
        words: &'a [u64],
        segment_words: usize,
        masks: SegmentMasks,
    },
}

impl Projector<'_> {
    /// Overwrites `hit` with the letters present in segment `j`.
    #[inline]
    fn project(&self, j: usize, hit: &mut LetterSet) {
        match self {
            Projector::Series(s, alphabet) => {
                let period = alphabet.period();
                hit.clear();
                for offset in 0..period {
                    alphabet.project_instant(offset, s.instant(j * period + offset), hit);
                }
            }
            Projector::View {
                words,
                segment_words,
                masks,
            } => masks.project(&words[j * segment_words..][..*segment_words], hit),
        }
    }
}

/// Any input a miner accepts: fixed in-memory [`Rows`], or a
/// [`SeriesSource`] re-scanned start to finish on every pass.
pub enum Input<'a> {
    /// A series or bitmap view held in memory.
    Rows(Rows<'a>),
    /// A source scanned once per pass — a `.ppmc` store on disk, or
    /// any retrying, fault-injecting or quarantining wrapper around one.
    Source(&'a mut dyn SeriesSource),
}

impl<'a> From<Rows<'a>> for Input<'a> {
    fn from(rows: Rows<'a>) -> Self {
        Input::Rows(rows)
    }
}

impl<'a> From<&'a FeatureSeries> for Input<'a> {
    fn from(series: &'a FeatureSeries) -> Self {
        Input::Rows(Rows::Series(series))
    }
}

impl<'a> From<EncodedSeriesView<'a>> for Input<'a> {
    fn from(view: EncodedSeriesView<'a>) -> Self {
        Input::Rows(Rows::View(view))
    }
}

impl<'a> From<&'a mut (dyn SeriesSource + 'a)> for Input<'a> {
    fn from(source: &'a mut (dyn SeriesSource + 'a)) -> Self {
        Input::Source(source)
    }
}

impl<'a, S: SeriesSource + 'a> From<&'a mut S> for Input<'a> {
    fn from(source: &'a mut S) -> Self {
        Input::Source(source)
    }
}

/// One mine's passes over its input, with the guard they poll and the
/// count of passes completed.
pub(crate) struct Passes<'a> {
    input: Input<'a>,
    guard: ResourceGuard,
    /// The counter each segment pass bumps (batched at the deadline
    /// cadence), e.g. `hitset.segments` for `mine --progress`.
    counter: &'static str,
    /// Fixed rows: passes completed. A source: its scan count at start.
    scans: usize,
}

impl<'a> Passes<'a> {
    /// Passes over `input`, polling `guard` and reporting segment
    /// progress as `counter`.
    pub(crate) fn new(input: Input<'a>, guard: ResourceGuard, counter: &'static str) -> Self {
        let scans = match &input {
            Input::Rows(_) => 0,
            Input::Source(source) => source.scans_performed(),
        };
        Passes {
            input,
            guard,
            counter,
            scans,
        }
    }

    /// The guard the passes poll.
    pub(crate) fn guard(&self) -> ResourceGuard {
        self.guard
    }

    /// Passes completed so far — the miners' `series_scans`.
    pub(crate) fn completed(&self) -> usize {
        match &self.input {
            Input::Rows(_) => self.scans,
            Input::Source(source) => source.scans_performed() - self.scans,
        }
    }

    /// [`Abort::Deadline`] if the deadline has passed — the check a
    /// miner makes between passes.
    pub(crate) fn deadline(&self) -> ControlFlow<Abort> {
        if self.guard.deadline_exceeded() {
            ControlFlow::Break(Abort::Deadline)
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Records the passes completed into `stats` and turns an abort into
    /// the guard's typed error carrying `stats` as partial progress.
    pub(crate) fn settle(&self, flow: ControlFlow<Abort>, stats: &mut MiningStats) -> Result<()> {
        stats.series_scans = self.completed();
        match flow {
            ControlFlow::Continue(()) => Ok(()),
            ControlFlow::Break(abort) => Err(self.guard.error(abort, stats)),
        }
    }

    /// Scan 1 for `period`: counts every `(offset, feature)` over the
    /// whole segments and keeps the pairs that reach the threshold.
    pub(crate) fn scan1(&mut self, period: usize, config: &MineConfig) -> Result<Scan1> {
        let n = match &self.input {
            Input::Rows(rows) => rows.len(),
            Input::Source(source) => source.instant_count(),
        };
        if period == 0 || period > n {
            return Err(Error::InvalidPeriod {
                period,
                series_len: n,
            });
        }
        let m = n / period;
        let usable = m * period;
        let counts = match &mut self.input {
            Input::Rows(rows) => {
                let counts = rows.count(period, usable);
                self.scans += 1;
                counts
            }
            Input::Source(source) => {
                // The width of a source is unknown before the scan.
                let mut counts = CountTable::Sparse(HashMap::new());
                scan_source(&mut **source, usable, &mut |t, features| {
                    for &f in features {
                        counts.add((t % period) as u32, f);
                    }
                })?;
                counts
            }
        };
        Ok(scan1_from_counts(&counts, period, m, config.min_count(m)))
    }

    /// One segment-hit pass: projects each whole segment `j` onto
    /// `scan1`'s alphabet and calls `visit(j, &hit)`, in segment order.
    ///
    /// The pass polls the deadline once per [`DEADLINE_CHECK_INTERVAL`]
    /// segments. The first abort — the deadline's, or one `visit` breaks
    /// with — ends the pass: fixed rows stop there, a source visits
    /// nothing more until its scan ends. Only a pass that ran to the end
    /// counts as completed, and a muted source scan does.
    pub(crate) fn segments(
        &mut self,
        scan1: &Scan1,
        mut visit: impl FnMut(usize, &LetterSet) -> ControlFlow<Abort>,
    ) -> Result<ControlFlow<Abort>> {
        let alphabet = &scan1.alphabet;
        let period = alphabet.period();
        let m = scan1.segment_count;
        let guard = self.guard;
        let counter = self.counter;
        let mut hit = alphabet.empty_set();
        // Counter increments batch at the deadline-check cadence so the
        // observability cost stays off the per-segment fast path.
        let mut pending: u64 = 0;
        let mut end_segment = |j: usize, hit: &LetterSet| {
            let flow = visit(j, hit);
            pending += 1;
            if flow.is_continue() && j.is_multiple_of(DEADLINE_CHECK_INTERVAL) {
                ppm_observe::counter(counter, std::mem::take(&mut pending));
                if guard.deadline_exceeded() {
                    return ControlFlow::Break(Abort::Deadline);
                }
            }
            flow
        };
        let flow = match &mut self.input {
            Input::Rows(rows) => {
                let projector = rows.projector(alphabet);
                let mut flow = ControlFlow::Continue(());
                for j in 0..m {
                    projector.project(j, &mut hit);
                    flow = end_segment(j, &hit);
                    if flow.is_break() {
                        break;
                    }
                }
                if flow.is_continue() {
                    self.scans += 1;
                }
                flow
            }
            Input::Source(source) => {
                let mut flow = ControlFlow::Continue(());
                scan_source(&mut **source, m * period, &mut |t, features| {
                    if flow.is_break() {
                        return;
                    }
                    let offset = t % period;
                    alphabet.project_instant(offset, features, &mut hit);
                    if offset == period - 1 {
                        flow = end_segment(t / period, &hit);
                        hit.clear();
                    }
                })?;
                flow
            }
        };
        ppm_observe::counter(counter, pending);
        Ok(flow)
    }
}

/// Eight 8-bit counters in one word: byte `b` of `SPREAD[x]` is bit `b`
/// of `x`, so adding `SPREAD[x]` counts all eight bits of byte `x` at
/// once, with no branch per bit.
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut x = 0;
    while x < 256 {
        let mut b = 0;
        while b < 8 {
            table[x] |= ((x as u64 >> b) & 1) << (8 * b);
            b += 1;
        }
        x += 1;
    }
    table
};

/// Carry planes per row word: bit `i` of plane `k` is bit `k` of a 4-bit
/// counter for bit `i` of the word.
const PLANES: usize = 4;

/// Segments the planes hold before they spread into the byte lanes: a
/// 4-bit counter reaches 15.
const PLANE_SEGMENTS: usize = (1 << PLANES) - 1;

/// Lanes are flushed before any can pass `u8::MAX`: each spread adds at
/// most [`PLANE_SEGMENTS`] to each lane, and 17 spreads are 255.
const LANE_FLUSH_SEGMENTS: usize = u8::MAX as usize;
const _: () = assert!(LANE_FLUSH_SEGMENTS.is_multiple_of(PLANE_SEGMENTS));

/// Ripple-adds `segment`'s words into their carry planes: bit `b` of
/// word `i` counts in bit `b` of `planes[k][i]`, `k` the bit weight. Per
/// word that is a 4-bit adder of AND / XOR, with no branch, which LLVM
/// vectorizes.
#[inline]
fn add_planes(planes: &mut [Vec<u64>; PLANES], segment: &[u64]) {
    let [p0, p1, p2, p3] = planes;
    let planes = p0.iter_mut().zip(p1.iter_mut()).zip(p2.iter_mut());
    for (((p0, p1), p2), (p3, &w)) in planes.zip(p3.iter_mut().zip(segment)) {
        let c0 = *p0 & w;
        *p0 ^= w;
        let c1 = *p1 & c0;
        *p1 ^= c0;
        let c2 = *p2 & c1;
        *p2 ^= c1;
        *p3 ^= c2;
    }
}

/// Adds every plane into the byte lanes and zeroes it: byte `b` of word
/// `i` of plane `k` adds `SPREAD[byte] << k` to lane `8i + b`, all four
/// planes in one read-modify-write of the lane.
fn spread_planes(planes: &mut [Vec<u64>; PLANES], lanes: &mut [u64]) {
    let [p0, p1, p2, p3] = planes;
    let planes = p0.iter_mut().zip(p1.iter_mut()).zip(p2.iter_mut());
    let lanes = p3.iter_mut().zip(lanes.chunks_exact_mut(8));
    for (((p0, p1), p2), (p3, lanes)) in planes.zip(lanes) {
        for (byte, lane) in lanes.iter_mut().enumerate() {
            let spread = |plane: &u64| SPREAD[usize::from((*plane >> (8 * byte)) as u8)];
            *lane += spread(p0) + (spread(p1) << 1) + (spread(p2) << 2) + (spread(p3) << 3);
        }
        (*p0, *p1, *p2, *p3) = (0, 0, 0, 0);
    }
}

/// Scan 1 over packed rows, fed whole segments in series order (never a
/// partial tail segment, which must not count).
///
/// Each `(offset, row word)` owns [`PLANES`] carry planes, a 4-bit counter
/// per bit, so a segment's words line up with their planes one to one: a
/// segment is one linear ripple-add, with no branch per bit and no
/// per-instant `t % period` (the positional popcount of Klarqvist, Muła
/// and Lemire, 2021). Every [`PLANE_SEGMENTS`] segments the planes spread
/// into byte lanes — one `u64` of eight 8-bit counters per `(offset, row
/// word, byte)` — which flush into the exact count table every
/// [`LANE_FLUSH_SEGMENTS`] segments. Bit `f` of a row counts as feature
/// `f`, bits past the view's width included, exactly as the per-instant
/// loop over the materialized series counts them.
///
/// Key spaces past the dense table's limit fall back to one
/// [`CountTable::add`] per set bit.
pub(crate) struct RowCounts {
    period: usize,
    words_per_instant: usize,
    kind: RowCountKind,
}

enum RowCountKind {
    Lanes {
        /// `planes[k][offset · words_per_instant + word]`: plane `k` of
        /// each row word.
        planes: [Vec<u64>; PLANES],
        /// `lanes[(offset · words_per_instant + word) · 8 + byte]`.
        lanes: Vec<u64>,
        /// Flushed totals, `counts[offset · 64 · words_per_instant + bit]`.
        counts: Vec<u64>,
        /// Segments added since the last lane flush.
        segments: usize,
    },
    Bits(CountTable),
}

impl RowCounts {
    /// Counts for `period` over rows of `words_per_instant` words.
    pub(crate) fn new(period: usize, words_per_instant: usize) -> Self {
        let kind = match CountTable::with_width(period, 64 * words_per_instant) {
            CountTable::Dense { counts, .. } => RowCountKind::Lanes {
                planes: std::array::from_fn(|_| vec![0; counts.len() / 64]),
                lanes: vec![0; counts.len() / 8],
                counts,
                segments: 0,
            },
            sparse => RowCountKind::Bits(sparse),
        };
        RowCounts {
            period,
            words_per_instant,
            kind,
        }
    }

    /// Counts whole segments' rows, row-major.
    pub(crate) fn add_segments(&mut self, words: &[u64]) {
        let wpi = self.words_per_instant;
        if wpi == 0 {
            return; // no bits, nothing to count
        }
        for segment in words.chunks_exact(self.period * wpi) {
            match &mut self.kind {
                RowCountKind::Lanes {
                    planes,
                    lanes,
                    counts,
                    segments,
                } => {
                    add_planes(planes, segment);
                    *segments += 1;
                    if segments.is_multiple_of(PLANE_SEGMENTS) {
                        spread_planes(planes, lanes);
                    }
                    if *segments == LANE_FLUSH_SEGMENTS {
                        flush(lanes, counts);
                        *segments = 0;
                    }
                }
                RowCountKind::Bits(table) => {
                    for (offset, row) in segment.chunks_exact(wpi).enumerate() {
                        for (i, &w) in row.iter().enumerate() {
                            let mut w = w;
                            while w != 0 {
                                let f = FeatureId::from_raw((i * 64) as u32 + w.trailing_zeros());
                                table.add(offset as u32, f);
                                w &= w - 1;
                            }
                        }
                    }
                }
            }
        }
    }

    /// The finished count table.
    pub(crate) fn finish(self) -> CountTable {
        match self.kind {
            RowCountKind::Lanes {
                mut planes,
                mut lanes,
                mut counts,
                ..
            } => {
                spread_planes(&mut planes, &mut lanes);
                flush(&mut lanes, &mut counts);
                CountTable::Dense {
                    width: 64 * self.words_per_instant,
                    counts,
                }
            }
            RowCountKind::Bits(table) => table,
        }
    }
}

/// Adds every lane into its total and zeroes it: lane `j`'s eight byte
/// counters go to `counts[8j..8j + 8]`.
fn flush(lanes: &mut [u64], counts: &mut [u64]) {
    for (lane, totals) in lanes.iter_mut().zip(counts.chunks_exact_mut(8)) {
        for (bit, total) in totals.iter_mut().enumerate() {
            *total += (*lane >> (8 * bit)) & 0xff;
        }
        *lane = 0;
    }
}

/// One physical scan of `source`, visiting the first `usable` instants
/// (the whole segments; a partial tail segment never counts).
fn scan_source(
    source: &mut dyn SeriesSource,
    usable: usize,
    visit: &mut dyn FnMut(usize, &[FeatureId]),
) -> Result<()> {
    source.scan(&mut |t, features| {
        if t < usable {
            visit(t, features);
        }
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    use ppm_timeseries::{EncodedSeries, EncodedSeriesView, MemorySource, SeriesBuilder};

    use crate::scan::{scan_frequent_letters, scan_frequent_letters_view};

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    fn sample(n: usize) -> FeatureSeries {
        let mut b = SeriesBuilder::new();
        let mut x: u64 = 3;
        for _ in 0..n {
            let mut inst = Vec::new();
            for f in 0..5u32 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                if (x >> 62) == 0 {
                    inst.push(fid(f));
                }
            }
            b.push_instant(inst);
        }
        b.finish()
    }

    /// Every segment's hit, collected through one pass over `input`.
    fn hits(input: Input<'_>, scan1: &Scan1) -> Vec<LetterSet> {
        let mut passes = Passes::new(input, ResourceGuard::unlimited(), "test.segments");
        let mut out = Vec::new();
        let flow = passes
            .segments(scan1, |j, hit| {
                assert_eq!(j, out.len());
                out.push(hit.clone());
                ControlFlow::Continue(())
            })
            .unwrap();
        assert!(flow.is_continue());
        assert_eq!(passes.completed(), 1);
        out
    }

    #[test]
    fn both_substrates_project_identically() {
        // 203 instants at period 4: a 3-instant tail no pass may count.
        let series = sample(203);
        let encoded = EncodedSeries::encode(&series);
        let config = MineConfig::new(0.2).unwrap();
        let scan1 = scan_frequent_letters(&series, 4, &config).unwrap();
        let mut source = MemorySource::new(&series);
        let mut from_source = Passes::new(
            Input::from(&mut source),
            ResourceGuard::unlimited(),
            "test.segments",
        );
        let got = from_source.scan1(4, &config).unwrap();
        assert_eq!(got.alphabet, scan1.alphabet);
        assert_eq!(got.letter_counts, scan1.letter_counts);
        assert_eq!(got.segment_count, 50);
        assert_eq!(from_source.completed(), 1);

        let expect = hits(Input::from(&series), &scan1);
        assert_eq!(expect.len(), 50);
        assert_eq!(hits(Input::from(encoded.view()), &scan1), expect);
        assert_eq!(hits(Input::from(&mut source), &scan1), expect);
    }

    /// A series whose feature universe is exactly `width` (feature
    /// `width − 1` occurs at instant 0), with `n` instants of xorshift
    /// noise; `all_ones` sets every feature at every instant instead.
    fn rows_of(width: u32, n: usize, seed: u64, all_ones: bool) -> FeatureSeries {
        let mut b = SeriesBuilder::new();
        let mut x = seed | 1;
        for t in 0..n {
            let inst: Vec<FeatureId> = (0..width)
                .filter(|&f| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    all_ones || (t == 0 && f == width - 1) || x % 5 < 2
                })
                .map(fid)
                .collect();
            b.push_instant(inst);
        }
        b.finish()
    }

    /// Every non-zero `(offset, feature)` count, in key order.
    fn table(counts: &CountTable) -> Vec<((usize, FeatureId), u64)> {
        let mut pairs = counts.frequent_pairs(1);
        pairs.sort();
        pairs
            .into_iter()
            .map(|(o, f)| ((o, f), counts.get(o as u32, f)))
            .collect()
    }

    /// The byte-lane scan 1 and the mask projection against the
    /// per-instant loops over the same instants as a series: across word
    /// boundaries, across the lane flush at 255 segments, with saturated
    /// lanes, and with a partial tail segment that must not count.
    #[test]
    fn lane_counts_and_mask_projection_match_the_series_loops() {
        let period = 3;
        for width in [1u32, 63, 64, 65, 128, 129] {
            for m in [254usize, 255, 256, 511] {
                for all_ones in [false, true] {
                    let n = m * period + 2;
                    let series = rows_of(width, n, u64::from(width) * 1000 + m as u64, all_ones);
                    let encoded = EncodedSeries::encode(&series);
                    let view = encoded.view();
                    assert_eq!(view.width(), width as usize);
                    let usable = m * period;
                    let lanes = Rows::View(view).count(period, usable);
                    let oracle = Rows::Series(&series).count(period, usable);
                    let got = table(&lanes);
                    assert_eq!(
                        got,
                        table(&oracle),
                        "width {width}, {m} segments, all ones {all_ones}"
                    );
                    if all_ones {
                        // Every lane saturated and flushed: each count is m.
                        assert_eq!(got.len(), period * width as usize);
                        assert!(got.iter().all(|&(_, c)| c == m as u64));
                    }

                    let config = MineConfig::new(0.3).unwrap();
                    let scan1 = scan_frequent_letters(&series, period, &config).unwrap();
                    assert!(!scan1.alphabet.is_empty());
                    let via_view = Passes::new(
                        Input::from(view),
                        ResourceGuard::unlimited(),
                        "test.segments",
                    )
                    .scan1(period, &config)
                    .unwrap();
                    assert_eq!(via_view.alphabet, scan1.alphabet);
                    assert_eq!(via_view.letter_counts, scan1.letter_counts);
                    let expect = hits(Input::from(&series), &scan1);
                    assert_eq!(expect.len(), m);
                    assert_eq!(hits(Input::from(view), &scan1), expect, "width {width}");
                }
            }
        }
    }

    /// Bits at or past the width in a row's last word count as the
    /// features they name, exactly as over the series the view
    /// materializes to.
    #[test]
    fn bits_past_the_width_count_as_over_the_materialized_series() {
        let (width, period, m) = (65usize, 4, 300);
        let n = m * period + 1;
        let mut words = vec![0u64; n * 2];
        for t in 0..n {
            words[2 * t] = (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            words[2 * t + 1] = if t % 3 == 0 { 1 << 63 | 1 } else { 1 << 1 };
        }
        let view = EncodedSeriesView::new(width, n, &words);
        let mut b = SeriesBuilder::new();
        for t in 0..n {
            b.push_instant(view.features_at(t));
        }
        let series = b.finish();
        assert_eq!(CountTable::width_of(&series), 128);
        let usable = m * period;
        let lanes = Rows::View(view).count(period, usable);
        let oracle = Rows::Series(&series).count(period, usable);
        assert_eq!(table(&lanes), table(&oracle));
        let config = MineConfig::new(0.3).unwrap();
        let scan1 = scan_frequent_letters(&series, period, &config).unwrap();
        assert!(scan1.alphabet.iter().any(|(_, _, f)| f.index() >= width));
        let via_view = scan_frequent_letters_view(view, period, &config).unwrap();
        assert_eq!(via_view.alphabet, scan1.alphabet);
        assert_eq!(via_view.letter_counts, scan1.letter_counts);
        assert_eq!(
            hits(Input::from(view), &scan1),
            hits(Input::from(&series), &scan1)
        );
    }

    /// A key space past the dense table's limit counts bit by bit, with
    /// the same result.
    #[test]
    fn sparse_key_spaces_count_bit_by_bit() {
        let period = 66_000; // 66 000 × 64 lanes > the dense limit
        let series = rows_of(3, period * 2 + 7, 11, false);
        let encoded = EncodedSeries::encode(&series);
        let lanes = Rows::View(encoded.view()).count(period, period * 2);
        assert!(matches!(lanes, CountTable::Sparse(_)));
        let oracle = Rows::Series(&series).count(period, period * 2);
        assert_eq!(table(&lanes), table(&oracle));
    }

    /// The byte-lane scan 1 the carry planes replaced: one [`SPREAD`] add
    /// per byte of every row word, flushed every [`LANE_FLUSH_SEGMENTS`]
    /// segments. The bit-identity reference for [`RowCounts`].
    fn byte_lane_counts(period: usize, wpi: usize, words: &[u64]) -> Vec<u64> {
        let mut lanes = vec![0u64; period * wpi * 8];
        let mut counts = vec![0u64; period * wpi * 64];
        for (j, segment) in words.chunks_exact(period * wpi).enumerate() {
            for (lanes, &w) in lanes.chunks_exact_mut(8).zip(segment) {
                for (byte, lane) in lanes.iter_mut().enumerate() {
                    *lane += SPREAD[usize::from((w >> (8 * byte)) as u8)];
                }
            }
            if (j + 1) % LANE_FLUSH_SEGMENTS == 0 {
                flush(&mut lanes, &mut counts);
            }
        }
        flush(&mut lanes, &mut counts);
        counts
    }

    /// The carry planes against the byte-lane reference, cut at and
    /// around both flush edges (every 15 segments into the lanes, every
    /// 255 into the totals), on all-ones rows — every plane carries at
    /// each spread — and on random rows, fed whole and one segment at a
    /// time as the shared sweep feeds them.
    #[test]
    fn carry_planes_match_the_byte_lane_reference() {
        let period = 3;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for wpi in 1..=3 {
            for m in [1, 14, 15, 16, 254, 255, 256, 271, 510] {
                for all_ones in [false, true] {
                    let words: Vec<u64> = (0..m * period * wpi)
                        .map(|_| {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            if all_ones {
                                u64::MAX
                            } else {
                                x
                            }
                        })
                        .collect();
                    let expect = byte_lane_counts(period, wpi, &words);
                    let mut whole = RowCounts::new(period, wpi);
                    whole.add_segments(&words);
                    let mut one_by_one = RowCounts::new(period, wpi);
                    for segment in words.chunks_exact(period * wpi) {
                        one_by_one.add_segments(segment);
                    }
                    for (feed, counts) in [("whole", whole), ("per segment", one_by_one)] {
                        let CountTable::Dense { counts, width } = counts.finish() else {
                            panic!("a dense key space");
                        };
                        assert_eq!(width, 64 * wpi);
                        let case = format!("{wpi} words, {m} segments, all ones {all_ones}");
                        assert_eq!(counts, expect, "{case}, fed {feed}");
                        if all_ones {
                            assert!(counts.iter().all(|&c| c == m as u64), "{case}");
                        }
                    }
                }
            }
        }
    }

    /// The word-wise passes are still the paper's two scans.
    #[test]
    fn view_mines_report_two_scans() {
        let series = rows_of(65, 3 * 300 + 2, 5, false);
        let encoded = EncodedSeries::encode(&series);
        let config = MineConfig::new(0.3).unwrap();
        let vertical = crate::vertical::mine_vertical_view(encoded.view(), 3, &config).unwrap();
        let hitset = crate::hitset::mine_view(encoded.view(), 3, &config).unwrap();
        assert_eq!(vertical.stats.series_scans, 2);
        assert_eq!(hitset.stats.series_scans, 2);
        assert_eq!(vertical.frequent, hitset.frequent);
        assert_eq!(
            hitset.frequent,
            crate::hitset::mine(&series, 3, &config).unwrap().frequent
        );
    }

    #[test]
    fn an_abort_stops_rows_and_mutes_a_source() {
        let series = sample(200);
        let config = MineConfig::new(0.2).unwrap();
        let scan1 = scan_frequent_letters(&series, 4, &config).unwrap();
        let mut source = MemorySource::new(&series);
        for input in [Input::from(&series), Input::from(&mut source)] {
            let is_source = matches!(input, Input::Source(_));
            let mut passes = Passes::new(input, ResourceGuard::unlimited(), "test.segments");
            let mut visited = 0;
            let flow = passes
                .segments(&scan1, |j, _| {
                    visited += 1;
                    if j == 9 {
                        ControlFlow::Break(Abort::TreeBudget)
                    } else {
                        ControlFlow::Continue(())
                    }
                })
                .unwrap();
            assert_eq!(flow, ControlFlow::Break(Abort::TreeBudget));
            assert_eq!(visited, 10, "no segment is visited after the abort");
            // Fixed rows stopped early; the source's muted scan completed.
            assert_eq!(passes.completed(), usize::from(is_source));
        }
    }
}
