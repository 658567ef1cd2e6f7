//! How a miner visits instants: the one place every engine reads its
//! input.
//!
//! Every engine's scans reduce to two passes — "count each feature at
//! its offset" (scan 1) and "project each whole segment onto the
//! frequent-letter alphabet" (scan 2, and each of Apriori's level
//! scans). Both passes run over one substrate, packed rows: one
//! `⌈width/64⌉`-word bitmap per instant. [`Input`] names where the rows
//! come from — a borrowed [`EncodedSeriesView`] (an [`EncodedSeries`]
//! cache, or a `.ppmc` columnar file loaded without materializing a
//! series), a [`FeatureSeries`] encoded once on entry, or a
//! [`SeriesSource`] physically re-scanned on every pass (§5's
//! disk-resident series). A source's instants are packed as they arrive
//! into one reused segment of row words, at the width the source
//! declares, so `Passes` has one implementation of each pass.
//!
//! Scan 1 counts whole segments through [`RowCounts`]' carry planes and
//! byte lanes; scan 2 projects each segment through the alphabet's
//! [`SegmentMasks`]. The per-instant loops over a [`FeatureSeries`] live
//! on only in this module's tests, as the reference both are checked
//! against.
//!
//! `Passes` also owns what every pass shares: the resource guard's
//! deadline poll (once per [`DEADLINE_CHECK_INTERVAL`] segments) and the
//! count of completed passes each miner reports as `series_scans`. On
//! in-memory rows a pass stops at the first abort; a source's scan cannot
//! be cut short, so the rest of the pass is muted instead and still
//! counts as completed. A source reports its own scan count, so a retried
//! scan stays one logical scan.

use std::ops::ControlFlow;

use ppm_timeseries::{EncodedSeries, EncodedSeriesView, FeatureId, FeatureSeries, SeriesSource};

use crate::error::{Error, Result};
use crate::guard::{Abort, ResourceGuard, DEADLINE_CHECK_INTERVAL};
use crate::letters::{LetterSet, SegmentMasks};
use crate::scan::{scan1_from_counts, CountTable, MineConfig, Scan1};
use crate::stats::MiningStats;

/// Any input a miner accepts: packed rows held in memory, or a
/// [`SeriesSource`] re-scanned start to finish on every pass.
pub enum Input<'a> {
    /// Packed rows borrowed from an [`EncodedSeries`] cache or a columnar
    /// file load.
    View(EncodedSeriesView<'a>),
    /// A series encoded once on entry (what `From<&FeatureSeries>`
    /// builds), mined as its view.
    Encoded(EncodedSeries),
    /// A source scanned once per pass — a `.ppmc` store on disk, or
    /// any retrying, fault-injecting or quarantining wrapper around one.
    Source(&'a mut dyn SeriesSource),
}

impl Input<'_> {
    /// The packed rows of an in-memory input; `None` for a source.
    fn view(&self) -> Option<EncodedSeriesView<'_>> {
        match self {
            Input::View(view) => Some(*view),
            Input::Encoded(encoded) => Some(encoded.view()),
            Input::Source(_) => None,
        }
    }

    /// Number of instants.
    fn len(&self) -> usize {
        match self {
            Input::View(view) => view.len(),
            Input::Encoded(encoded) => encoded.len(),
            Input::Source(source) => source.instant_count(),
        }
    }
}

impl<'a> From<&'a FeatureSeries> for Input<'a> {
    fn from(series: &'a FeatureSeries) -> Self {
        Input::Encoded(EncodedSeries::encode(series))
    }
}

impl<'a> From<EncodedSeriesView<'a>> for Input<'a> {
    fn from(view: EncodedSeriesView<'a>) -> Self {
        Input::View(view)
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
    /// In-memory rows: passes completed. A source: its scan count at start.
    scans: usize,
}

impl<'a> Passes<'a> {
    /// Passes over `input`, polling `guard` and reporting segment
    /// progress as `counter`.
    pub(crate) fn new(input: Input<'a>, guard: ResourceGuard, counter: &'static str) -> Self {
        let scans = match &input {
            Input::Source(source) => source.scans_performed(),
            _ => 0,
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
            Input::Source(source) => source.scans_performed() - self.scans,
            _ => self.scans,
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
        let n = self.input.len();
        if period == 0 || period > n {
            return Err(Error::InvalidPeriod {
                period,
                series_len: n,
            });
        }
        let m = n / period;
        let counts = match &mut self.input {
            Input::Source(source) => {
                let mut counts = RowCounts::new(period, source.width().div_ceil(64));
                // Scan 1 never breaks: the flow is always `Continue`.
                let _ = scan_segments(&mut **source, period, m, |_, segment| {
                    counts.add_segments(segment);
                    ControlFlow::Continue(())
                })?;
                counts
            }
            rows => {
                let view = rows.view().expect("in-memory rows have a view");
                let wpi = view.words_per_instant();
                let mut counts = RowCounts::new(period, wpi);
                counts.add_segments(&view.words()[..m * period * wpi]);
                self.scans += 1;
                counts
            }
        };
        Ok(scan1_from_counts(
            &counts.finish(),
            period,
            m,
            config.min_count(m),
        ))
    }

    /// One segment-hit pass: projects each whole segment `j` onto
    /// `scan1`'s alphabet and calls `visit(j, &hit)`, in segment order.
    ///
    /// The pass polls the deadline once per [`DEADLINE_CHECK_INTERVAL`]
    /// segments. The first abort — the deadline's, or one `visit` breaks
    /// with — ends the pass: in-memory rows stop there, a source visits
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
        let mut end_segment = |j: usize, masks: &SegmentMasks, segment: &[u64]| {
            masks.project(segment, &mut hit);
            let flow = visit(j, &hit);
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
            Input::Source(source) => {
                let masks = alphabet.segment_masks(source.width().div_ceil(64));
                scan_segments(&mut **source, period, m, |j, segment| {
                    end_segment(j, &masks, segment)
                })?
            }
            rows => {
                let view = rows.view().expect("in-memory rows have a view");
                let masks = alphabet.segment_masks(view.words_per_instant());
                let segment_words = period * view.words_per_instant();
                let mut flow = ControlFlow::Continue(());
                for j in 0..m {
                    let segment = &view.words()[j * segment_words..][..segment_words];
                    flow = end_segment(j, &masks, segment);
                    if flow.is_break() {
                        break;
                    }
                }
                if flow.is_continue() {
                    self.scans += 1;
                }
                flow
            }
        };
        ppm_observe::counter(counter, pending);
        Ok(flow)
    }
}

/// One physical scan of `source` for `period`: packs each instant of the
/// first `m` whole segments into one reused segment of row words, at the
/// width the source declares, and calls `visit(j, segment)` as segment `j`
/// completes (a partial tail segment never counts). Once `visit` breaks,
/// the rest of the scan is muted and the break is returned.
///
/// A feature at or past the declared width has no bit in the row: the
/// scan is muted there and fails with [`ppm_timeseries::Error::Corrupt`]
/// naming the instant.
fn scan_segments(
    source: &mut dyn SeriesSource,
    period: usize,
    m: usize,
    mut visit: impl FnMut(usize, &[u64]) -> ControlFlow<Abort>,
) -> Result<ControlFlow<Abort>> {
    let width = source.width();
    let wpi = width.div_ceil(64);
    let usable = m * period;
    let mut segment = vec![0u64; period * wpi];
    let mut flow = ControlFlow::Continue(());
    let mut past_width: Option<(usize, FeatureId)> = None;
    source.scan(&mut |t, features| {
        if t >= usable || flow.is_break() || past_width.is_some() {
            return;
        }
        let offset = t % period;
        let row = &mut segment[offset * wpi..][..wpi];
        row.fill(0);
        for &f in features {
            let idx = f.index();
            if idx >= width {
                past_width = Some((t, f));
                return;
            }
            row[idx / 64] |= 1u64 << (idx % 64);
        }
        if offset == period - 1 {
            flow = visit(t / period, &segment);
        }
    })?;
    match past_width {
        Some((t, f)) => Err(ppm_timeseries::Error::Corrupt {
            detail: format!(
                "instant {t} carries feature id {} past the source's width {width}",
                f.raw()
            ),
        }
        .into()),
        None => Ok(flow),
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

#[cfg(test)]
mod tests {
    use super::*;

    use ppm_timeseries::{
        Fault, FaultInjectingSource, FaultPlan, MemorySource, RetryPolicy, RetryingSource,
        SeriesBuilder,
    };

    use crate::letters::Alphabet;
    use crate::scan::{scan_frequent_letters, scan_frequent_letters_view};
    use crate::Engine;

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

    /// The reference scan 1: one [`CountTable::add`] per feature of every
    /// instant of the first `usable`, in a table as wide as the series.
    fn series_counts(series: &FeatureSeries, period: usize, usable: usize) -> CountTable {
        let width = series.max_feature_id().map_or(0, |f| f.index() + 1);
        let mut counts = CountTable::with_width(period, width);
        for t in 0..usable {
            for &f in series.instant(t) {
                counts.add((t % period) as u32, f);
            }
        }
        counts
    }

    /// The reference scan 2: each whole segment's hit, merge-walking every
    /// instant's features against the alphabet.
    fn series_hits(series: &FeatureSeries, alphabet: &Alphabet, m: usize) -> Vec<LetterSet> {
        let period = alphabet.period();
        (0..m)
            .map(|j| {
                let mut hit = alphabet.empty_set();
                for offset in 0..period {
                    alphabet.project_instant(offset, series.instant(j * period + offset), &mut hit);
                }
                hit
            })
            .collect()
    }

    /// Scan 1's carry-plane count of a view's first `usable` rows.
    fn packed_counts(view: EncodedSeriesView<'_>, period: usize, usable: usize) -> CountTable {
        let wpi = view.words_per_instant();
        let mut counts = RowCounts::new(period, wpi);
        counts.add_segments(&view.words()[..usable * wpi]);
        counts.finish()
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

        let expect = series_hits(&series, &scan1.alphabet, 50);
        assert_eq!(hits(Input::from(&series), &scan1), expect);
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
    /// lanes, and with a partial tail segment that must not count — over
    /// a view and over a source packed segment by segment.
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
                    let lanes = packed_counts(view, period, usable);
                    let oracle = series_counts(&series, period, usable);
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
                    let scan1 = scan1_from_counts(&oracle, period, m, config.min_count(m));
                    assert!(!scan1.alphabet.is_empty());
                    let mut source = MemorySource::new(&series);
                    for input in [Input::from(view), Input::from(&mut source)] {
                        let via = Passes::new(input, ResourceGuard::unlimited(), "test.segments")
                            .scan1(period, &config)
                            .unwrap();
                        assert_eq!(via.alphabet, scan1.alphabet);
                        assert_eq!(via.letter_counts, scan1.letter_counts);
                    }
                    let expect = series_hits(&series, &scan1.alphabet, m);
                    assert_eq!(hits(Input::from(view), &scan1), expect, "width {width}");
                    assert_eq!(hits(Input::from(&mut source), &scan1), expect);
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
        assert_eq!(series.max_feature_id(), Some(fid(127)));
        let usable = m * period;
        let lanes = packed_counts(view, period, usable);
        let oracle = series_counts(&series, period, usable);
        assert_eq!(table(&lanes), table(&oracle));
        let config = MineConfig::new(0.3).unwrap();
        let scan1 = scan1_from_counts(&oracle, period, m, config.min_count(m));
        assert!(scan1.alphabet.iter().any(|(_, _, f)| f.index() >= width));
        let via_view = scan_frequent_letters_view(view, period, &config).unwrap();
        assert_eq!(via_view.alphabet, scan1.alphabet);
        assert_eq!(via_view.letter_counts, scan1.letter_counts);
        assert_eq!(
            hits(Input::from(view), &scan1),
            series_hits(&series, &scan1.alphabet, m)
        );
    }

    /// A key space past the dense table's limit counts bit by bit, with
    /// the same result.
    #[test]
    fn sparse_key_spaces_count_bit_by_bit() {
        let period = 66_000; // 66 000 × 64 lanes > the dense limit
        let series = rows_of(3, period * 2 + 7, 11, false);
        let encoded = EncodedSeries::encode(&series);
        let lanes = packed_counts(encoded.view(), period, period * 2);
        assert!(matches!(lanes, CountTable::Sparse(_)));
        let oracle = series_counts(&series, period, period * 2);
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
            // In-memory rows stopped early; the source's muted scan completed.
            assert_eq!(passes.completed(), usize::from(is_source));
        }
    }

    /// A source that declares a narrower width than the features it
    /// delivers.
    struct Narrow<'a>(MemorySource<'a>, usize);

    impl SeriesSource for Narrow<'_> {
        fn instant_count(&self) -> usize {
            self.0.instant_count()
        }

        fn width(&self) -> usize {
            self.1
        }

        fn scan(
            &mut self,
            visit: &mut dyn FnMut(usize, &[FeatureId]),
        ) -> ppm_timeseries::Result<()> {
            self.0.scan(visit)
        }

        fn scans_performed(&self) -> usize {
            self.0.scans_performed()
        }
    }

    /// A feature at or past a source's declared width has no bit in the
    /// packed row: both passes fail with a typed `Corrupt` error naming
    /// the first such instant, never a miscount or a panic.
    #[test]
    fn a_feature_past_a_sources_width_is_corrupt_naming_the_instant() {
        let mut b = SeriesBuilder::new();
        for t in 0..40u32 {
            b.push_instant(if t == 7 {
                vec![fid(0), fid(64)]
            } else {
                vec![fid(t % 3)]
            });
        }
        let series = b.finish();
        let config = MineConfig::new(0.2).unwrap();
        for width in [3, 64] {
            let mut narrow = Narrow(MemorySource::new(&series), width);
            let err = crate::run(Engine::HitSet, &mut narrow, 4, &config).unwrap_err();
            match err {
                Error::Series(ppm_timeseries::Error::Corrupt { detail }) => {
                    assert!(detail.contains("instant 7"), "{detail}");
                    assert!(detail.contains("feature id 64"), "{detail}");
                }
                other => panic!("expected a Corrupt error, got {other:?}"),
            }
        }
        // Scan 2 checks too: a scan 1 over the honest rows, then a pass
        // over the narrow source.
        let scan1 = scan_frequent_letters(&series, 4, &config).unwrap();
        let mut narrow = Narrow(MemorySource::new(&series), 3);
        let mut passes = Passes::new(
            Input::from(&mut narrow),
            ResourceGuard::unlimited(),
            "test.segments",
        );
        let err = passes
            .segments(&scan1, |_, _| ControlFlow::Continue(()))
            .unwrap_err();
        assert!(err.to_string().contains("instant 7"), "{err}");
    }

    /// A scan cut short by a transient fault and replayed by
    /// [`RetryingSource`] packs every instant once, in order: every
    /// engine mines bit-identically to the in-memory rows.
    #[test]
    fn a_retried_short_read_mines_bit_identically() {
        let series = sample(203);
        let config = MineConfig::new(0.2).unwrap();
        for engine in Engine::ALL {
            let expect = crate::run(engine, &series, 4, &config).unwrap();
            // Attempt 0 cuts mid-segment, attempt 2 mid-way through scan 2.
            let plan = FaultPlan::new()
                .fail_scan(0, Fault::ShortRead { instants: 37 })
                .fail_scan(2, Fault::ShortRead { instants: 150 });
            let faulty = FaultInjectingSource::new(MemorySource::new(&series), plan);
            let policy = RetryPolicy::with_max_attempts(3).without_backoff();
            let mut retrying = RetryingSource::new(faulty, policy);
            let got = crate::run(engine, &mut retrying, 4, &config).unwrap();
            assert_eq!(got.frequent, expect.frequent, "{engine}");
            assert_eq!(got.stats, expect.stats, "{engine}");
            assert_eq!(retrying.inner().faults_injected(), 2, "{engine}");
        }
    }
}
