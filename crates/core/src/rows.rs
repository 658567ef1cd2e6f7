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
use crate::letters::{Alphabet, LetterSet};
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

impl Rows<'_> {
    /// Number of instants.
    pub(crate) fn len(&self) -> usize {
        match self {
            Rows::Series(s) => s.len(),
            Rows::View(v) => v.len(),
        }
    }

    /// The dense scan-1 key-space width: max feature id + 1.
    pub(crate) fn count_width(&self) -> usize {
        match self {
            Rows::Series(s) => CountTable::width_of(s),
            Rows::View(v) => v.width(),
        }
    }

    /// Counts every feature of instant `t` into `counts` at `offset`
    /// (the scan-1 inner loop).
    #[inline]
    pub(crate) fn add_counts(&self, t: usize, offset: u32, counts: &mut CountTable) {
        match self {
            Rows::Series(s) => {
                for &f in s.instant(t) {
                    counts.add(offset, f);
                }
            }
            Rows::View(v) => {
                for f in v.features_at(t) {
                    counts.add(offset, f);
                }
            }
        }
    }

    /// Projects whole segment `j` onto `alphabet`, setting the bits of the
    /// frequent letters present in `hit` (the scan-2 inner loop). The
    /// substrate is matched once per segment, not once per instant.
    #[inline]
    fn project_segment(&self, alphabet: &Alphabet, j: usize, hit: &mut LetterSet) {
        let period = alphabet.period();
        let base = j * period;
        match self {
            Rows::Series(s) => {
                for offset in 0..period {
                    alphabet.project_instant(offset, s.instant(base + offset), hit);
                }
            }
            Rows::View(v) => {
                for offset in 0..period {
                    alphabet.project_encoded(offset, v.instant_words(base + offset), hit);
                }
            }
        }
    }
}

/// Any input a miner accepts: fixed in-memory [`Rows`], or a
/// [`SeriesSource`] re-scanned start to finish on every pass.
pub enum Input<'a> {
    /// A series or bitmap view held in memory.
    Rows(Rows<'a>),
    /// A source scanned once per pass — a `.ppmstream` file on disk, or
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
                let mut counts = CountTable::with_width(period, rows.count_width());
                for t in 0..usable {
                    rows.add_counts(t, (t % period) as u32, &mut counts);
                }
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
                let mut flow = ControlFlow::Continue(());
                for j in 0..m {
                    hit.clear();
                    rows.project_segment(alphabet, j, &mut hit);
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

    use ppm_timeseries::{EncodedSeries, MemorySource, SeriesBuilder};

    use crate::scan::scan_frequent_letters;

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
