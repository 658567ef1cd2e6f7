//! Incremental sliding-window maintenance of the vertical index.
//!
//! The paper's miners assume a static series: every mine pays scan 1 +
//! scan 2 + a full derive. Continuous ingestion makes that wasteful — a
//! store that grows by one segment re-pays the whole derive for a window
//! that changed in exactly one column. This module keeps the window
//! *live* instead:
//!
//! * [`append_segment`](IncrementalVerticalIndex::append_segment) logs the
//!   `(offset, feature)` letters present in the new segment and bumps each
//!   one's F1 count — no scan;
//! * [`evict_oldest`](IncrementalVerticalIndex::evict_oldest) pops the
//!   retiring segment off the log and decrements its letters' counts;
//! * [`rederive_dirty`](IncrementalVerticalIndex::rederive_dirty) re-mines
//!   the window through the cold engines' own level loop
//!   (`derive_frequent_batched`), recounting only what could have
//!   changed: a candidate counted at the previous derive is
//!   delta-counted over just the **dirty words** (the 64-segment column
//!   words that actually changed) — its previous count, minus its count
//!   over those words as of that derive, plus its live count over them —
//!   on the shared blocked level counter and prefix cache (a lone dirty
//!   word is ANDed directly); only candidates never counted before
//!   (letters newly crossed over the F1 threshold, or the threshold
//!   itself moved) pay a full-width count. A candidate with no dirty
//!   letter reads equal counts before and after, so it keeps its count.
//!   The per-level Apriori joins are memoized across derives (exact
//!   input equality), so in the steady state the candidate lattice
//!   itself is not re-derived either — a re-mine after one appended
//!   segment touches one word per dense row and probes each candidate's
//!   count once.
//!
//! ## Dense rows and the segment log
//!
//! Every frequent pattern is a set of letters whose own F1 counts reach
//! `min_count` (the paper's `C_max` reduction), so only those letters
//! ever need a bitmap. The index keeps a **dense row** — one bit per live
//! segment, in 64-segment words — only for letters whose count has
//! reached the **floor**: the lowest `min_count` any derive on this index
//! has used (there is none before the first derive). Every letter's data
//! lives in the **segment log**: for each live segment, the ids of the
//! letters it contains, beside each letter's count. A derive first
//! lowers the floor to its own `min_count` if that is lower, then gives
//! every letter at or over the floor that has no row a dense row, built
//! in one pass over the log. Dense rows are never dropped.
//!
//! The invariant that keeps this exact: a letter in a derive's alphabet
//! has a count ≥ `min_count` ≥ floor, so it is dense before the derive
//! counts anything. A letter densified later was therefore in no earlier
//! alphabet: no candidate counted at an earlier derive contains it, and
//! reading 0 for it from a snapshot taken before it had a row is safe.
//!
//! Correctness leans on two more invariants. First, AND+popcount is
//! column-order invariant, so ring rotation never changes a count and
//! every state is bit-identical to a cold [`super::mine_vertical_view`]
//! of the same window (the audit cross-check runs this engine as one of
//! its arms). Second, counts over disjoint word ranges sum exactly, so
//! `new = prev − prev_dirty + live_dirty` needs only a per-word snapshot
//! of the dense rows taken lazily at first mutation since the last
//! derive.

use std::collections::{BTreeMap, VecDeque};
use std::mem::size_of;
use std::ops::Range;
use std::time::Instant;

use ppm_timeseries::{EncodedSeriesView, FeatureId};

use crate::apriori::join_candidates;
use crate::error::{Error, Result};
use crate::hitset::derive::derive_frequent_batched;
use crate::letters::{Alphabet, LetterSet, WordMap};
use crate::result::MiningResult;
use crate::scan::{MineConfig, Scan1};
use crate::stats::MiningStats;

use super::kernel::{count_level, Kernel, LevelBases, PrefixCache, Unit};

/// No letter id / no dense row.
const NONE: u32 = u32::MAX;

/// A candidate's count at the derive stamped in `gen`. Delta reuse is
/// valid only for entries from the immediately preceding derive —
/// `rederive_dirty` purges everything older, so a candidate that drops
/// out of the lattice and later returns pays a full count.
#[derive(Debug, Clone, Copy)]
struct PrevCount {
    count: u64,
    gen: u64,
}

/// One memoized Apriori join: `output = join(input)`, letter sets over
/// one derive's alphabet.
#[derive(Debug, Default, Clone)]
struct JoinLevel {
    input: Vec<LetterSet>,
    output: Vec<LetterSet>,
}

/// The letters whose counts changed since the last derive: a flag per
/// letter id and the flagged ids in first-touch order.
#[derive(Debug, Default, Clone)]
struct DirtyLetters {
    flags: Vec<bool>,
    list: Vec<u32>,
}

impl DirtyLetters {
    fn mark(&mut self, id: usize) {
        if !self.flags[id] {
            self.flags[id] = true;
            self.list.push(id as u32);
        }
    }

    fn clear(&mut self) {
        for &id in &self.list {
            self.flags[id as usize] = false;
        }
        self.list.clear();
    }
}

/// A sliding window of period segments: a log of each segment's letters,
/// plus live bitmaps for the letters that can be frequent.
///
/// Every `(offset, feature)` letter ever seen is interned to a stable
/// letter id with a maintained F1 count; the segment log holds each live
/// segment's letter ids, so appends and evictions cost the letters they
/// move. Letters at or over the floor (see the module docs) also hold a
/// dense row. Dense-row columns are segments: with a window capacity `C`
/// the columns are a ring — global segment `j` occupies slot `j % C`,
/// and appending at capacity first evicts the oldest segment. Without a
/// capacity the rows grow (re-laid-out, by at least an eighth, when a
/// new segment needs another word) and segments keep their global slot.
/// The alphabet is re-derived per mine from the maintained F1 counts, so
/// one index serves queries at any confidence.
#[derive(Debug, Clone)]
pub struct IncrementalVerticalIndex {
    period: usize,
    capacity: Option<usize>,
    /// Letter id per offset, indexed by raw feature id (`NONE` where
    /// never seen).
    letter_ids: Vec<Vec<u32>>,
    /// Letter id → `(offset, feature)`, in arrival order.
    letters: Vec<(usize, FeatureId)>,
    /// Maintained F1 count per letter id: the live segments holding it.
    counts: Vec<u64>,
    /// The segment log: every live segment's letter ids, oldest first.
    log: VecDeque<u32>,
    /// Letter ids per live segment, oldest first (the log's bounds).
    segment_lens: VecDeque<u32>,
    /// Letter id → dense row (`NONE` below the floor). Rows are
    /// numbered in densification order and never dropped, so a dense
    /// row id is as stable as a letter id.
    dense_row: Vec<u32>,
    /// Dense rows held.
    dense: usize,
    /// The lowest `min_count` any derive has used (`None` before the
    /// first derive).
    floor: Option<u64>,
    words_per_row: usize,
    /// Row-major dense bitmaps: `rows[r * words_per_row + w]`.
    rows: Vec<u64>,
    /// Segments ever appended (the next global segment index).
    appended: usize,
    /// Segments ever evicted (the oldest live global segment index).
    evicted: usize,
    /// Word → column snapshot of every dense row (indexed by dense row)
    /// taken at first mutation since the last derive. Rows densified
    /// later read as 0: they were in no alphabet that counted then.
    dirty: BTreeMap<usize, Vec<u64>>,
    /// Letters whose count changed since the last derive, dense or not.
    dirty_letters: DirtyLetters,
    /// Scratch: the letter ids of the segment being appended.
    pending: Vec<u32>,
    /// Counts of **every** candidate counted at the last derive (frequent
    /// and infrequent), keyed by the candidate's letter set over that
    /// derive's alphabet, whose letter `l` is dense row `key_rows[l]`. A
    /// derive whose alphabet maps letters to other rows (a letter
    /// crossed the threshold) re-keys the map through the stable row ids
    /// first, so counts survive alphabet reshuffles and threshold
    /// changes. Entries update in place (no per-derive rebuild); stale
    /// generations are purged at the end of each derive.
    prev_counts: WordMap<LetterSet, PrevCount>,
    /// Letter → dense row of the alphabet `prev_counts` is keyed over.
    key_rows: Vec<u32>,
    /// Monotonic derive counter stamping `prev_counts` entries.
    derive_gen: u64,
    /// Memoized joins per level.
    joins: JoinMemo,
}

impl IncrementalVerticalIndex {
    /// An empty index for `period`, optionally windowed to the most
    /// recent `window` segments (appends at capacity evict the oldest).
    ///
    /// # Panics
    ///
    /// If `period` is 0 or `window` is `Some(0)`.
    pub fn new(period: usize, window: Option<usize>) -> Self {
        assert!(period > 0, "period must be positive");
        if let Some(c) = window {
            assert!(c > 0, "window capacity must be positive");
        }
        let words_per_row = window.map_or(1, |c| c.div_ceil(64));
        IncrementalVerticalIndex {
            period,
            capacity: window,
            letter_ids: vec![Vec::new(); period],
            letters: Vec::new(),
            counts: Vec::new(),
            log: VecDeque::new(),
            segment_lens: VecDeque::new(),
            dense_row: Vec::new(),
            dense: 0,
            floor: None,
            words_per_row,
            rows: Vec::new(),
            appended: 0,
            evicted: 0,
            dirty: BTreeMap::new(),
            dirty_letters: DirtyLetters::default(),
            pending: Vec::new(),
            prev_counts: WordMap::default(),
            key_rows: Vec::new(),
            derive_gen: 0,
            joins: JoinMemo::default(),
        }
    }

    /// Builds an index and appends every whole segment of `view` (later
    /// segments evict earlier ones when they overflow `window`).
    pub fn from_view(view: EncodedSeriesView<'_>, period: usize, window: Option<usize>) -> Self {
        let mut index = IncrementalVerticalIndex::new(period, window);
        index.catch_up(view);
        index
    }

    /// The mining period (instants per segment).
    pub fn period(&self) -> usize {
        self.period
    }

    /// The window capacity in segments, if bounded.
    pub fn window(&self) -> Option<usize> {
        self.capacity
    }

    /// Segments currently in the window.
    pub fn live_segments(&self) -> usize {
        self.appended - self.evicted
    }

    /// Segments ever appended — the global index of the next append.
    pub fn appended_segments(&self) -> usize {
        self.appended
    }

    /// Segments ever evicted — the global index of the oldest live one.
    pub fn evicted_segments(&self) -> usize {
        self.evicted
    }

    /// Interned letters (every `(offset, feature)` ever seen in-window).
    pub fn n_letters(&self) -> usize {
        self.letters.len()
    }

    /// Letters holding a dense bitmap row (those whose count has reached
    /// the floor; see the module docs).
    pub fn dense_letters(&self) -> usize {
        self.dense
    }

    /// 64-segment column words mutated since the last derive.
    pub fn dirty_words(&self) -> usize {
        self.dirty.len()
    }

    /// Bytes the index holds: the segment log and its bounds, the letter
    /// table and counts, the dense rows, the dirty snapshots, the
    /// candidate counts of the last derive and the join memo (allocated
    /// capacity, plus each letter set's heap words).
    pub fn resident_bytes(&self) -> usize {
        let set_bytes = |s: &LetterSet| size_of::<LetterSet>() + s.heap_bytes();
        let log = (self.log.capacity() + self.segment_lens.capacity()) * size_of::<u32>();
        let letters = self
            .letter_ids
            .iter()
            .map(|t| t.capacity() * size_of::<u32>())
            .sum::<usize>()
            + self.letters.capacity() * size_of::<(usize, FeatureId)>()
            + self.counts.capacity() * size_of::<u64>()
            + self.dense_row.capacity() * size_of::<u32>()
            + self.dirty_letters.flags.capacity()
            + (self.dirty_letters.list.capacity() + self.pending.capacity()) * size_of::<u32>();
        let rows = self.rows.capacity() * size_of::<u64>();
        let snapshots: usize = self
            .dirty
            .values()
            .map(|s| size_of::<(usize, Vec<u64>)>() + s.capacity() * size_of::<u64>())
            .sum();
        let counted = self.prev_counts.capacity() * size_of::<(LetterSet, PrevCount)>()
            + self
                .prev_counts
                .keys()
                .map(LetterSet::heap_bytes)
                .sum::<usize>()
            + self.key_rows.capacity() * size_of::<u32>();
        let joins: usize = self
            .joins
            .0
            .iter()
            .flat_map(|j| j.input.iter().chain(&j.output))
            .map(set_bytes)
            .sum();
        log + letters + rows + snapshots + counted + joins
    }

    /// The maintained F1 count of one letter (0 if never seen).
    pub fn letter_count(&self, offset: usize, feature: FeatureId) -> u64 {
        self.letter_id(offset, feature)
            .map_or(0, |id| self.counts[id])
    }

    /// The largest maintained F1 count among letters whose counts changed
    /// since the last derive, dense or not (`None` when the index is
    /// clean). While this stays *below* `min_count`, no pattern touching a
    /// dirty letter can be frequent — which is what lets a result cache
    /// keep entries across an append instead of dropping them (the
    /// frequent set provably did not move as long as `min_count` itself
    /// did not).
    pub fn max_dirty_letter_count(&self) -> Option<u64> {
        self.dirty_letters
            .list
            .iter()
            .map(|&id| self.counts[id as usize])
            .max()
    }

    /// The letter id of `(offset, feature)`, if ever seen.
    fn letter_id(&self, offset: usize, feature: FeatureId) -> Option<usize> {
        let id = *self.letter_ids.get(offset)?.get(feature.index())?;
        (id != NONE).then_some(id as usize)
    }

    /// The ring slot of global segment `j`.
    fn slot(&self, j: usize) -> usize {
        ring_slot(self.capacity, j)
    }

    /// Grows the unbounded layout so column `slot` fits: to exactly the
    /// words it needs, or by an eighth if that is more, so appends
    /// re-lay the rows out rarely without doubling them.
    fn ensure_slot(&mut self, slot: usize) {
        let need = slot / 64 + 1;
        if need <= self.words_per_row {
            return;
        }
        let old = self.words_per_row;
        let new = need.max(old + old / 8);
        let mut rows = vec![0u64; self.dense * new];
        for r in 0..self.dense {
            rows[r * new..r * new + old].copy_from_slice(&self.rows[r * old..(r + 1) * old]);
        }
        self.rows = rows;
        self.words_per_row = new;
    }

    /// Snapshots column word `w` of every dense row before its first
    /// mutation since the last derive.
    fn touch(&mut self, w: usize) {
        if self.dirty.contains_key(&w) {
            return;
        }
        let wpr = self.words_per_row;
        let snap: Vec<u64> = (0..self.dense).map(|r| self.rows[r * wpr + w]).collect();
        self.dirty.insert(w, snap);
    }

    /// Interns `(offset, feature raw)` to a stable letter id, with a zero
    /// count and no dense row on first sight.
    fn intern(&mut self, offset: usize, raw: u32) -> u32 {
        let table = &mut self.letter_ids[offset];
        let f = raw as usize;
        if f >= table.len() {
            table.resize(f + 1, NONE);
        }
        if table[f] == NONE {
            table[f] = self.letters.len() as u32;
            self.letters.push((offset, FeatureId::from_raw(raw)));
            self.counts.push(0);
            self.dense_row.push(NONE);
            self.dirty_letters.flags.push(false);
        }
        table[f]
    }

    /// Makes room in the log for `additional` more ids: exactly, or by
    /// an eighth of the log if that is more, so a long-lived log never
    /// holds twice what it needs.
    fn reserve_log(&mut self, additional: usize) {
        if additional > self.log.capacity() - self.log.len() {
            self.log.reserve_exact(additional.max(self.log.len() / 8));
        }
    }

    /// Appends one segment whose distinct letter ids are `ids`: logs
    /// them, bumps their counts and sets their dense rows' bits. At
    /// window capacity the oldest segment is evicted first.
    fn push_segment(&mut self, mut ids: Vec<u32>) {
        if let Some(c) = self.capacity {
            if self.live_segments() == c {
                self.evict_oldest();
            }
        }
        let slot = self.slot(self.appended);
        self.ensure_slot(slot);
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        self.touch(w);
        let wpr = self.words_per_row;
        for &id in &ids {
            let id = id as usize;
            self.counts[id] += 1;
            self.dirty_letters.mark(id);
            if self.dense_row[id] != NONE {
                self.rows[self.dense_row[id] as usize * wpr + w] |= bit;
            }
        }
        self.reserve_log(ids.len());
        self.log.extend(ids.iter().copied());
        self.segment_lens.push_back(ids.len() as u32);
        ids.clear();
        self.pending = ids;
        self.appended += 1;
    }

    /// Appends whole segment `segment` of `view`, reading its letters
    /// straight from the packed rows.
    fn push_packed(&mut self, view: EncodedSeriesView<'_>, segment: usize) {
        let mut ids = std::mem::take(&mut self.pending);
        let base = segment * self.period;
        for offset in 0..self.period {
            for f in view.features_at(base + offset) {
                ids.push(self.intern(offset, f.raw()));
            }
        }
        self.push_segment(ids);
    }

    /// Appends one whole segment: its letters go on the log and each
    /// one's F1 count is bumped; only dense rows get a bit. At window
    /// capacity the oldest segment is evicted first. Cost is
    /// proportional to the features in the segment, not to the window.
    /// Letters are looked up in a table per offset indexed by raw feature
    /// id, so the index holds four bytes per offset for every id up to
    /// the largest one seen — as a packed row holds a bit for each.
    ///
    /// # Panics
    ///
    /// If `instants` does not yield exactly `period` instants.
    pub fn append_segment<I, F>(&mut self, instants: I)
    where
        I: IntoIterator<Item = F>,
        F: AsRef<[FeatureId]>,
    {
        let mut ids = std::mem::take(&mut self.pending);
        let mut seen = 0usize;
        for (offset, instant) in instants.into_iter().enumerate() {
            assert!(
                offset < self.period,
                "append_segment requires exactly one whole segment of {} instants",
                self.period
            );
            seen += 1;
            for &f in instant.as_ref() {
                ids.push(self.intern(offset, f.raw()));
            }
        }
        assert_eq!(
            seen, self.period,
            "append_segment requires exactly one whole segment of {} instants",
            self.period
        );
        // A feature listed twice in one instant is one letter occurrence.
        ids.sort_unstable();
        ids.dedup();
        self.push_segment(ids);
        ppm_observe::counter("incremental.appends", 1);
    }

    /// Appends whole segment `segment` (0-based over `view`) of an
    /// encoded series view, reading its packed rows directly.
    ///
    /// # Panics
    ///
    /// If the view does not contain that whole segment. Views of
    /// different widths may feed one index: widths merely pad with
    /// zeros, so a feature keeps its letter whatever the width.
    pub fn append_from_view(&mut self, view: EncodedSeriesView<'_>, segment: usize) {
        let base = segment * self.period;
        assert!(
            base + self.period <= view.len(),
            "segment {segment} not wholly contained in a view of {} instants",
            view.len()
        );
        self.push_packed(view, segment);
        ppm_observe::counter("incremental.appends", 1);
    }

    /// Appends every whole segment of `view` past
    /// [`appended_segments`](Self::appended_segments), straight from its
    /// packed rows — how an index follows a growing store. Returns the
    /// segments fed. The log is reserved up front for the segments that
    /// stay live, so its spare capacity is never touched.
    pub fn catch_up(&mut self, view: EncodedSeriesView<'_>) -> usize {
        let (first, end) = (self.appended, view.len() / self.period);
        if end <= first {
            return 0;
        }
        let kept = self
            .capacity
            .map_or(first, |c| end.saturating_sub(c).max(first));
        let row = self.period * view.words_per_instant();
        let occurrences = view.words()[kept * row..end * row]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        self.reserve_log(occurrences);
        self.segment_lens.reserve(end - kept);
        self.ensure_slot(self.slot(end - 1));
        for segment in first..end {
            self.push_packed(view, segment);
        }
        ppm_observe::counter("incremental.appends", (end - first) as u64);
        end - first
    }

    /// Evicts the oldest live segment: pops its letters off the log,
    /// decrements their F1 counts and clears their dense rows' bits.
    /// Returns `false` when the window is already empty. Evicted letters
    /// stay interned (and dense rows stay allocated); they simply drop
    /// out of the alphabet once their count falls below the threshold.
    pub fn evict_oldest(&mut self) -> bool {
        let Some(len) = self.segment_lens.pop_front() else {
            return false;
        };
        let slot = self.slot(self.evicted);
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        self.touch(w);
        let wpr = self.words_per_row;
        for id in self.log.drain(..len as usize) {
            let id = id as usize;
            self.counts[id] -= 1;
            self.dirty_letters.mark(id);
            if self.dense_row[id] != NONE {
                self.rows[self.dense_row[id] as usize * wpr + w] &= !bit;
            }
        }
        self.evicted += 1;
        true
    }

    /// Gives every letter whose count reaches `floor` and that has no row
    /// a dense row, filled in one pass over the segment log.
    fn densify(&mut self, floor: u64) {
        let first = self.dense;
        for (id, &count) in self.counts.iter().enumerate() {
            if count >= floor && self.dense_row[id] == NONE {
                self.dense_row[id] = self.dense as u32;
                self.dense += 1;
            }
        }
        if self.dense == first {
            return;
        }
        // Letter id → the new row it fills, or one scratch row past the
        // end for every other letter, so the pass below never branches.
        let scratch = self.dense as u32;
        let target: Vec<u32> = self
            .dense_row
            .iter()
            .map(|&r| {
                if r != NONE && r >= first as u32 {
                    r
                } else {
                    scratch
                }
            })
            .collect();
        let wpr = self.words_per_row;
        self.rows
            .reserve_exact((self.dense + 1) * wpr - self.rows.len());
        self.rows.resize((self.dense + 1) * wpr, 0);
        // One contiguous slice (a no-op unless a window wrapped the ring).
        let mut log: &[u32] = self.log.make_contiguous();
        for (k, &len) in self.segment_lens.iter().enumerate() {
            let slot = ring_slot(self.capacity, self.evicted + k);
            let (w, bit) = (slot / 64, 1u64 << (slot % 64));
            let (segment, rest) = log.split_at(len as usize);
            log = rest;
            for &id in segment {
                self.rows[target[id as usize] as usize * wpr + w] |= bit;
            }
        }
        self.rows.truncate(self.dense * wpr);
    }

    /// Re-mines the current window, recounting only what the appends and
    /// evictions since the last derive could have changed. The result —
    /// frequent set, counts, alphabet, parameters, *and* stats — is
    /// bit-identical to a cold [`super::mine_vertical_view`] of the same
    /// window at the same `config`.
    ///
    /// The confidence (and hence `min_count`) may differ from the
    /// previous derive's: previous counts are exact counts, not
    /// threshold-relative, so the delta count stays correct — a candidate
    /// generated now but never counted before simply pays a full count.
    /// A `min_count` under the floor lowers it, densifying the letters
    /// between the two.
    pub fn rederive_dirty(&mut self, config: &MineConfig) -> Result<MiningResult> {
        let _span = ppm_observe::span("incremental.rederive");
        let started = Instant::now();
        let m = self.live_segments();
        if m == 0 {
            return Err(Error::InvalidPeriod {
                period: self.period,
                series_len: 0,
            });
        }
        let min_count = config.min_count(m);
        ppm_observe::gauge("incremental.dirty_words", self.dirty.len() as u64);
        let floor = self.floor.map_or(min_count, |f| f.min(min_count));
        self.floor = Some(floor);
        self.densify(floor);

        // Scan-1 equivalent, straight from the maintained F1 counts.
        // `Alphabet::new` canonicalizes letter order, matching what a cold
        // scan over the same window builds. Every letter it admits is
        // dense: its count reaches `min_count`, hence the floor.
        let alphabet = Alphabet::new(
            self.period,
            self.letters
                .iter()
                .zip(&self.counts)
                .filter(|&(_, &count)| count >= min_count)
                .map(|(&letter, _)| letter),
        );
        let n_letters = alphabet.len();
        let mut letter_counts = Vec::with_capacity(n_letters);
        let mut rowmap = Vec::with_capacity(n_letters);
        for i in 0..n_letters {
            let (o, f) = alphabet.letter(i);
            let id = self.letter_id(o, f).expect("alphabet letters are interned");
            letter_counts.push(self.counts[id]);
            rowmap.push(self.dense_row[id]);
        }
        let scan1 = Scan1 {
            alphabet,
            letter_counts,
            segment_count: m,
            min_count,
        };

        // The shared level loop, with this index's join memo and dirty-word
        // counter plugged in: the result, stats included (the two logical
        // scans amortized into maintenance), matches the cold vertical mine
        // field for field.
        let mut stats = MiningStats {
            series_scans: 2,
            max_level: 1,
            ..Default::default()
        };
        let mut frequent = scan1.seed_singletons();
        self.derive_gen += 1;
        let gen = self.derive_gen;
        if self.key_rows != rowmap {
            self.rekey_prev_counts(&rowmap);
            self.key_rows = rowmap;
        }
        let mut counter = LevelCounter {
            kernel: config.kernel(),
            rows: &self.rows,
            words_per_row: self.words_per_row,
            row_of: &self.key_rows,
            dirty: &self.dirty,
            prev_counts: &mut self.prev_counts,
            gen,
            cache: PrefixCache::default(),
            and_ops: 0,
            delta: 0,
            full: 0,
        };
        derive_frequent_batched(
            |level| self.joins.join(level),
            |candidates| counter.count(candidates),
            &scan1,
            &mut frequent,
            &mut stats,
        );
        let (delta, full, and_ops) = (counter.delta, counter.full, counter.and_ops);

        // This derive becomes the new baseline: the window is clean and
        // every candidate just counted is delta-eligible next time.
        // Entries not restamped this derive fell out of the candidate
        // lattice; purging them keeps a later reappearance from reusing a
        // count that missed intervening mutations.
        self.prev_counts.retain(|_, e| e.gen == gen);
        self.dirty.clear();
        self.dirty_letters.clear();

        ppm_observe::gauge("incremental.delta_counts", delta);
        ppm_observe::gauge("incremental.full_counts", full);
        ppm_observe::gauge("incremental.and_ops", and_ops);
        ppm_observe::gauge(
            "incremental.rederive_us",
            started.elapsed().as_micros() as u64,
        );

        Ok(scan1.into_result(config, frequent, stats))
    }

    /// Moves every previous count onto the keys of this derive's
    /// alphabet, whose letter `l` is dense row `rowmap[l]`, dropping
    /// those with a letter that left the alphabet — no such candidate is
    /// generated now.
    fn rekey_prev_counts(&mut self, rowmap: &[u32]) {
        let mut row_to_letter = vec![u32::MAX; self.dense];
        for (i, &r) in rowmap.iter().enumerate() {
            row_to_letter[r as usize] = i as u32;
        }
        let old = std::mem::take(&mut self.prev_counts);
        self.prev_counts = old
            .into_iter()
            .filter_map(|(key, e)| {
                let mut set = LetterSet::new(rowmap.len());
                for l in key.iter() {
                    match row_to_letter[self.key_rows[l] as usize] {
                        u32::MAX => return None,
                        to => set.insert(to as usize),
                    }
                }
                Some((set, e))
            })
            .collect();
    }
}

/// The Apriori joins of earlier derives, one per level: entry `k - 1`
/// holds the join of some derive's frequent `k`-sets. The join is a pure
/// function of its input — which rows the letters stand for never enters
/// it — so exact input equality is the whole validity condition: in the
/// steady state of append-then-rederive the frequent levels barely move
/// and every level is a hit.
#[derive(Debug, Default, Clone)]
struct JoinMemo(Vec<JoinLevel>);

impl JoinMemo {
    /// The Apriori join of one non-empty frequent level: the cached
    /// candidates when an earlier derive joined exactly this level,
    /// [`join_candidates`] otherwise.
    fn join(&mut self, level: &[LetterSet]) -> Vec<LetterSet> {
        let k = level[0].len();
        if let Some(c) = self.0.get(k - 1) {
            if c.input.as_slice() == level {
                return c.output.clone();
            }
        }
        let out = join_candidates(level);
        if self.0.len() < k {
            self.0.resize_with(k, JoinLevel::default);
        }
        self.0[k - 1] = JoinLevel {
            input: level.to_vec(),
            output: out.clone(),
        };
        out
    }
}

/// One derive's candidate counter over the dense rows. A candidate
/// counted at the previous derive is delta-counted: its previous count,
/// minus its count over the dirty words as of that derive (from the
/// snapshots), plus its live count over the same words — exact, because
/// counts over disjoint word ranges sum exactly. Any other candidate is
/// counted over the full width.
struct LevelCounter<'a> {
    kernel: Kernel,
    rows: &'a [u64],
    words_per_row: usize,
    /// Letter → dense row of this derive's alphabet.
    row_of: &'a [u32],
    /// Dirty word → its snapshot of every dense row.
    dirty: &'a BTreeMap<usize, Vec<u64>>,
    prev_counts: &'a mut WordMap<LetterSet, PrevCount>,
    /// This derive's generation, stamped on every candidate it counts.
    gen: u64,
    cache: PrefixCache,
    and_ops: u64,
    /// Candidates delta-counted over the dirty words only.
    delta: u64,
    /// Candidates counted over the full width.
    full: u64,
}

impl LevelCounter<'_> {
    /// Counts one level's candidates, in order, and records each count
    /// for the next derive.
    fn count(&mut self, candidates: &[LetterSet]) -> Vec<u64> {
        let mut counts = vec![0u64; candidates.len()];
        // Known candidates and their previous counts; new ones.
        let (mut known, mut was, mut fresh) = (Vec::new(), Vec::new(), Vec::new());
        for (i, cand) in candidates.iter().enumerate() {
            // Every entry is from the previous derive (older ones were
            // purged), so one probe classifies and restamps.
            match self.prev_counts.get_mut(cand) {
                Some(e) => {
                    e.gen = self.gen;
                    let snapshot = |snap: &Vec<u64>| {
                        and_count(cand, self.row_of, |r| snap.get(r).copied().unwrap_or(0))
                    };
                    counts[i] = e.count - self.dirty.values().map(snapshot).sum::<u64>();
                    known.push(i);
                    was.push(e.count);
                }
                None => fresh.push(i),
            }
        }
        self.delta += known.len() as u64;
        self.full += fresh.len() as u64;

        // Live counts over just the dirty words. Single-word runs — the
        // common shape after one appended or evicted segment — AND the
        // column words directly; longer runs go through the blocked
        // level counter, like the full counts.
        let wpr = self.words_per_row;
        for run in dirty_runs(self.dirty) {
            if run.len() > 1 {
                self.count_blocked(candidates, &known, run, &mut counts);
            } else {
                for &i in &known {
                    self.and_ops += (candidates[i].len() - 1) as u64;
                    counts[i] += and_count(&candidates[i], self.row_of, |r| {
                        self.rows[r * wpr + run.start]
                    });
                }
            }
        }
        self.count_blocked(candidates, &fresh, 0..wpr, &mut counts);

        // Only counts that moved are written back; only new keys
        // allocate.
        for (&i, &before) in known.iter().zip(&was) {
            if counts[i] != before {
                self.prev_counts
                    .get_mut(&candidates[i])
                    .expect("probed")
                    .count = counts[i];
            }
        }
        for &i in &fresh {
            let entry = PrevCount {
                count: counts[i],
                gen: self.gen,
            };
            self.prev_counts.insert(candidates[i].clone(), entry);
        }
        counts
    }

    /// Adds the count over `words` of each candidate `which` names to
    /// its entry of `counts`, through the blocked level counter.
    fn count_blocked(
        &mut self,
        candidates: &[LetterSet],
        which: &[usize],
        words: Range<usize>,
        counts: &mut [u64],
    ) {
        let wpr = self.words_per_row;
        let level = LevelBases::new(which.iter().map(|&i| {
            let rows = candidates[i].iter();
            rows.map(|l| self.row_of[l] as usize * wpr)
        }));
        let mut partial = vec![0u64; which.len()];
        count_level(
            self.kernel,
            self.rows,
            Unit,
            &level,
            words,
            &mut partial,
            &mut self.and_ops,
            &mut self.cache,
        );
        for (&i, n) in which.iter().zip(partial) {
            counts[i] += n;
        }
    }
}

/// Maximal runs of consecutive dirty words, in ascending order.
fn dirty_runs(dirty: &BTreeMap<usize, Vec<u64>>) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::new();
    for &w in dirty.keys() {
        match runs.last_mut() {
            Some(run) if run.end == w => run.end = w + 1,
            _ => runs.push(w..w + 1),
        }
    }
    runs
}

/// The popcount of the AND of one word per letter of `cand`, `word(row)`
/// giving letter `l`'s word from its row `row_of[l]`. Live words count
/// the dirty range now; snapshot words count it as of the last derive,
/// where rows densified since read as 0 (no candidate counted then holds
/// them).
fn and_count(cand: &LetterSet, row_of: &[u32], word: impl Fn(usize) -> u64) -> u64 {
    let mut acc = u64::MAX;
    for l in cand.iter() {
        acc &= word(row_of[l] as usize);
        if acc == 0 {
            break;
        }
    }
    u64::from(acc.count_ones())
}

/// The column slot of global segment `j`: `j % capacity` in a ring,
/// `j` itself when unbounded.
fn ring_slot(capacity: Option<usize>, j: usize) -> usize {
    capacity.map_or(j, |c| j % c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertical::mine_vertical_view;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    /// Deterministic LCG feature stream: `n` instants over `features`
    /// features, ~half present each, encoded as packed words.
    fn lcg_words(n: usize, features: u32, seed: u64) -> (usize, Vec<u64>) {
        let width = features as usize;
        let wpi = width.div_ceil(64);
        let mut words = vec![0u64; n * wpi];
        let mut x: u64 = seed;
        for (t, row) in words.chunks_mut(wpi).enumerate() {
            for f in 0..features {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                if (x >> 33).is_multiple_of(2) {
                    row[f as usize / 64] |= 1u64 << (f % 64);
                }
            }
            let _ = t;
        }
        (width, words)
    }

    /// Cold-mines the window `[evicted, evicted + live)` segments of the
    /// packed series and asserts the incremental result is identical —
    /// frequent set, counts, alphabet, parameters, and stats.
    fn assert_matches_cold(
        index: &mut IncrementalVerticalIndex,
        width: usize,
        wpi: usize,
        words: &[u64],
        config: &MineConfig,
    ) {
        let period = index.period();
        let a = index.evicted_segments() * period;
        let b = index.appended_segments() * period;
        let window = &words[a * wpi..b * wpi];
        let view = EncodedSeriesView::new(width, b - a, window);
        let cold = mine_vertical_view(view, period, config);
        let incremental = index.rederive_dirty(config);
        match (cold, incremental) {
            (Ok(cold), Ok(incremental)) => {
                assert_eq!(incremental.frequent, cold.frequent, "frequent sets diverge");
                assert_eq!(incremental.alphabet, cold.alphabet);
                assert_eq!(incremental.segment_count, cold.segment_count);
                assert_eq!(incremental.min_count, cold.min_count);
                assert_eq!(incremental.stats, cold.stats);
            }
            (Err(_), Err(_)) => {}
            (cold, incremental) => {
                panic!("cold {cold:?} and incremental {incremental:?} disagree on fallibility")
            }
        }
    }

    #[test]
    fn appends_match_cold_mine_at_every_state() {
        let period = 5;
        let (width, words) = lcg_words(40 * period, 4, 7);
        let wpi = width.div_ceil(64);
        let view = EncodedSeriesView::new(width, 40 * period, &words);
        let config = MineConfig::new(0.4).unwrap();
        let mut index = IncrementalVerticalIndex::new(period, None);
        for segment in 0..40 {
            index.append_from_view(view, segment);
            assert_matches_cold(&mut index, width, wpi, &words, &config);
        }
    }

    #[test]
    fn one_shot_matches_cold_mine() {
        let period = 7;
        let (width, words) = lcg_words(50 * period + 3, 5, 21);
        let view = EncodedSeriesView::new(width, 50 * period + 3, &words);
        let config = MineConfig::new(0.5).unwrap();
        let cold = mine_vertical_view(view, period, &config).unwrap();
        let incremental = IncrementalVerticalIndex::from_view(view, period, None)
            .rederive_dirty(&config)
            .unwrap();
        assert_eq!(incremental.frequent, cold.frequent);
        assert_eq!(incremental.stats, cold.stats);
    }

    #[test]
    fn windowed_ring_matches_cold_mine_across_eviction() {
        // Window of 64 segments: appending segment 64 wraps the ring at
        // exactly a word boundary — the regression shape for slot math.
        let period = 4;
        let segments = 200;
        let (width, words) = lcg_words(segments * period, 3, 1234);
        let wpi = width.div_ceil(64);
        let view = EncodedSeriesView::new(width, segments * period, &words);
        let config = MineConfig::new(0.3).unwrap();
        let mut index = IncrementalVerticalIndex::new(period, Some(64));
        for segment in 0..segments {
            index.append_from_view(view, segment);
            if segment % 13 == 0 || (60..=70).contains(&segment) {
                assert_matches_cold(&mut index, width, wpi, &words, &config);
            }
        }
        assert_eq!(index.live_segments(), 64);
        assert_eq!(index.evicted_segments(), segments - 64);
    }

    #[test]
    fn explicit_eviction_matches_cold_mine() {
        let period = 3;
        let segments = 30;
        let (width, words) = lcg_words(segments * period, 4, 99);
        let wpi = width.div_ceil(64);
        let view = EncodedSeriesView::new(width, segments * period, &words);
        let config = MineConfig::new(0.25).unwrap();
        let mut index = IncrementalVerticalIndex::from_view(view, period, None);
        for _ in 0..segments {
            assert_matches_cold(&mut index, width, wpi, &words, &config);
            index.evict_oldest();
        }
        assert!(!index.evict_oldest(), "empty window has nothing to evict");
        assert!(
            index.rederive_dirty(&config).is_err(),
            "empty window mines like period > len"
        );
    }

    #[test]
    fn randomized_append_evict_interleaving_matches_cold() {
        let period = 6;
        let segments = 120;
        let (width, words) = lcg_words(segments * period, 4, 5005);
        let wpi = width.div_ceil(64);
        let view = EncodedSeriesView::new(width, segments * period, &words);
        let config = MineConfig::new(0.35).unwrap();
        let mut index = IncrementalVerticalIndex::new(period, None);
        let mut next = 0usize;
        let mut x: u64 = 424242;
        while next < segments {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            match x >> 61 {
                0..=3 => {
                    index.append_from_view(view, next);
                    next += 1;
                }
                4 | 5 => {
                    index.evict_oldest();
                }
                _ => assert_matches_cold(&mut index, width, wpi, &words, &config),
            }
        }
        assert_matches_cold(&mut index, width, wpi, &words, &config);
    }

    #[test]
    fn confidence_changes_between_rederives_stay_exact() {
        // min_count moves between derives, so previous counts are reused
        // under different thresholds and newly generated candidates pay
        // full counts — all states must still match a cold mine.
        let period = 5;
        let segments = 60;
        let (width, words) = lcg_words(segments * period, 4, 31337);
        let wpi = width.div_ceil(64);
        let view = EncodedSeriesView::new(width, segments * period, &words);
        let confs = [0.6, 0.2, 0.45, 0.2, 0.9, 0.3];
        let mut index = IncrementalVerticalIndex::new(period, None);
        for segment in 0..segments {
            index.append_from_view(view, segment);
            if segment % 7 == 0 {
                let config = MineConfig::new(confs[(segment / 7) % confs.len()]).unwrap();
                assert_matches_cold(&mut index, width, wpi, &words, &config);
            }
        }
    }

    #[test]
    fn empty_segments_and_threshold_crossers_match_cold() {
        // A letter that sits just below the threshold, then crosses it on
        // append, plus all-empty segments in between.
        let period = 2;
        let width = 2;
        let wpi = 1usize;
        let mut words: Vec<u64> = Vec::new();
        // 10 segments: 'a' at offset 0 in all, 'b' at offset 1 in 4.
        for j in 0..10 {
            words.push(0b01); // offset 0: feature 0
            words.push(if j < 4 { 0b10 } else { 0b00 });
        }
        // 4 empty segments.
        for _ in 0..4 {
            words.push(0);
            words.push(0);
        }
        let config = MineConfig::new(0.5).unwrap();
        let mut index = IncrementalVerticalIndex::new(period, None);
        for segment in 0..words.len() / (period * wpi) {
            let n = words.len();
            let view = EncodedSeriesView::new(width, n, &words);
            index.append_from_view(view, segment);
            assert_matches_cold(&mut index, width, wpi, &words, &config);
        }
        // Appending 10 more 'b'-bearing segments pushes 'b' back over the
        // threshold (it crossed below when the empties diluted m).
        for _ in 0..10 {
            index.append_segment([vec![fid(0)], vec![fid(1)]]);
            words.push(0b01);
            words.push(0b10);
            assert_matches_cold(&mut index, width, wpi, &words, &config);
        }
        assert!(index.letter_count(1, fid(1)) >= config.min_count(index.live_segments()));
    }

    #[test]
    fn window_widths_straddling_word_boundaries_match_cold() {
        // Ring capacities of 63/64/65 segments put the wrap-around slot
        // just below, exactly at, and just past a word boundary; segment
        // counts run past 2× capacity so every slot is reused.
        for capacity in [63usize, 64, 65] {
            let period = 3;
            let segments = capacity * 2 + 3;
            let (width, words) = lcg_words(segments * period, 3, 1000 + capacity as u64);
            let wpi = width.div_ceil(64);
            let view = EncodedSeriesView::new(width, segments * period, &words);
            let config = MineConfig::new(0.4).unwrap();
            let mut index = IncrementalVerticalIndex::new(period, Some(capacity));
            for segment in 0..segments {
                index.append_from_view(view, segment);
                let near_boundary =
                    (62..=66).contains(&segment) || segment.abs_diff(capacity * 2) <= 1;
                if near_boundary || segment % 29 == 0 {
                    assert_matches_cold(&mut index, width, wpi, &words, &config);
                }
            }
        }
    }

    #[test]
    fn kernels_agree_on_the_incremental_path() {
        let period = 4;
        let segments = 90;
        let (width, words) = lcg_words(segments * period, 6, 777);
        let view = EncodedSeriesView::new(width, segments * period, &words);
        let mut scalar_index = IncrementalVerticalIndex::new(period, None);
        let mut wide_index = IncrementalVerticalIndex::new(period, None);
        let scalar = MineConfig::new(0.3).unwrap().with_kernel(Kernel::Scalar);
        let wide = MineConfig::new(0.3).unwrap().with_kernel(Kernel::Wide);
        for segment in 0..segments {
            scalar_index.append_from_view(view, segment);
            wide_index.append_from_view(view, segment);
            if segment % 17 == 0 || segment == segments - 1 {
                let a = scalar_index.rederive_dirty(&scalar).unwrap();
                let b = wide_index.rederive_dirty(&wide).unwrap();
                assert_eq!(a.frequent, b.frequent);
            }
        }
    }

    /// One re-derive under a collector: its result and gauge maxima.
    fn observed_rederive(
        index: &mut IncrementalVerticalIndex,
        config: &MineConfig,
    ) -> (MiningResult, BTreeMap<String, u64>) {
        let collector = std::sync::Arc::new(ppm_observe::Collector::new());
        let result = {
            let _guard = ppm_observe::install(collector.clone());
            index.rederive_dirty(config).unwrap()
        };
        (result, collector.gauge_maxima())
    }

    #[test]
    fn rederive_is_idempotent_and_cheap_when_clean() {
        let period = 5;
        let (width, words) = lcg_words(31 * period, 4, 11);
        let wpi = width.div_ceil(64);
        let view = EncodedSeriesView::new(width, 31 * period, &words);
        let first_30 = EncodedSeriesView::new(width, 30 * period, &words[..30 * period * wpi]);
        let config = MineConfig::new(0.4).unwrap();
        let mut index = IncrementalVerticalIndex::from_view(first_30, period, None);
        let first = index.rederive_dirty(&config).unwrap();
        assert_eq!(index.dirty_words(), 0);
        let (second, gauges) = observed_rederive(&mut index, &config);
        assert_eq!(first.frequent, second.frequent);
        assert_eq!(first.stats, second.stats);
        // A clean re-derive ANDs no word and fully counts no candidate:
        // each keeps its previous count.
        assert_eq!(gauges["incremental.dirty_words"], 0);
        assert_eq!(gauges["incremental.and_ops"], 0);
        assert_eq!(gauges["incremental.full_counts"], 0);
        let counted = second.stats.candidates_generated;
        assert!(counted > 0);
        assert_eq!(gauges["incremental.delta_counts"], counted);

        // One appended segment that leaves the alphabet as it was: every
        // candidate is delta-counted over the one dirty word.
        index.append_from_view(view, 30);
        let (third, gauges) = observed_rederive(&mut index, &config);
        assert_eq!(third.alphabet, second.alphabet, "no letter crossed");
        assert_eq!(gauges["incremental.dirty_words"], 1);
        assert_eq!(gauges["incremental.full_counts"], 0);
        let counted = third.stats.candidates_generated;
        assert_eq!(gauges["incremental.delta_counts"], counted);
        assert!(gauges["incremental.and_ops"] > 0);
        let cold = mine_vertical_view(view, period, &config).unwrap();
        assert_eq!(third.frequent, cold.frequent);
    }

    /// Deterministic LCG stream where feature `f` is present with
    /// probability `(f + 1) / (features + 1)`: letter counts spread out,
    /// so each confidence admits a different alphabet.
    fn graded_words(n: usize, features: u32, seed: u64) -> (usize, Vec<u64>) {
        let width = features as usize;
        let wpi = width.div_ceil(64);
        let mut words = vec![0u64; n * wpi];
        let mut x: u64 = seed;
        for row in words.chunks_mut(wpi) {
            for f in 0..features {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                if (x >> 33) % u64::from(features + 1) <= u64::from(f) {
                    row[f as usize / 64] |= 1u64 << (f % 64);
                }
            }
        }
        (width, words)
    }

    /// Every letter whose count reaches the floor holds a dense row.
    fn assert_floor_letters_dense(index: &IncrementalVerticalIndex) {
        let floor = index.floor.expect("derived at least once");
        for (id, &count) in index.counts.iter().enumerate() {
            assert!(
                index.dense_row[id] != NONE || count < floor,
                "letter {id} has count {count} at floor {floor} but no row"
            );
        }
    }

    #[test]
    fn a_letter_below_the_floor_crosses_it_by_appends() {
        // 'a' (offset 0) in every segment; 'b' (offset 1) in 2 of the
        // first 10, then in every appended segment.
        let (period, width, wpi) = (2, 2, 1);
        let mut words: Vec<u64> = Vec::new();
        for j in 0..10 {
            words.push(0b01);
            words.push(if j < 2 { 0b10 } else { 0 });
        }
        let config = MineConfig::new(0.5).unwrap();
        let view = EncodedSeriesView::new(width, words.len(), &words);
        let mut index = IncrementalVerticalIndex::from_view(view, period, None);
        assert_eq!(index.dense_letters(), 0, "no floor before the first derive");
        assert_matches_cold(&mut index, width, wpi, &words, &config);
        assert_eq!(index.floor, Some(5));
        assert_eq!(index.dense_letters(), 1, "only 'a' reaches the floor");
        let mut dense_before_frequent = false;
        for _ in 0..20 {
            index.append_segment([vec![fid(0)], vec![fid(1)]]);
            words.push(0b01);
            words.push(0b10);
            let b = index.letter_count(1, fid(1));
            let min_count = config.min_count(index.live_segments());
            assert_matches_cold(&mut index, width, wpi, &words, &config);
            assert_eq!(index.floor, Some(5), "min_count only rose");
            assert_eq!(index.dense_letters(), if b >= 5 { 2 } else { 1 });
            dense_before_frequent |= b >= 5 && b < min_count;
        }
        assert!(
            dense_before_frequent,
            "'b' held a row before it was frequent"
        );
        assert!(index.letter_count(1, fid(1)) >= config.min_count(index.live_segments()));
    }

    #[test]
    fn a_lower_confidence_densifies_the_letters_between_the_two_floors() {
        let period = 3;
        let segments = 80;
        let (width, words) = graded_words(segments * period, 6, 4242);
        let wpi = width.div_ceil(64);
        let view = EncodedSeriesView::new(width, 60 * period, &words[..60 * period * wpi]);
        let (high, low) = (MineConfig::new(0.6).unwrap(), MineConfig::new(0.3).unwrap());
        let mut index = IncrementalVerticalIndex::from_view(view, period, None);
        assert_matches_cold(&mut index, width, wpi, &words, &high);
        let dense_high = index.dense_letters();
        assert!(dense_high > 0 && dense_high < index.n_letters());
        assert_floor_letters_dense(&index);
        assert_matches_cold(&mut index, width, wpi, &words, &low);
        assert!(index.dense_letters() > dense_high, "0.3 densified more");
        assert_eq!(index.floor, Some(low.min_count(60)));
        assert_floor_letters_dense(&index);
        // Appends between derives at either confidence stay exact: the
        // delta counts read rows densified at both floors.
        let full = EncodedSeriesView::new(width, segments * period, &words);
        for segment in 60..segments {
            index.append_from_view(full, segment);
            let config = if segment % 2 == 0 { &high } else { &low };
            assert_matches_cold(&mut index, width, wpi, &words, config);
            assert_floor_letters_dense(&index);
        }
    }

    #[test]
    fn evictions_that_shrink_the_window_lower_the_floor() {
        let period = 4;
        let capacity = 40;
        let segments = 100;
        let (width, words) = graded_words(segments * period, 5, 777);
        let wpi = width.div_ceil(64);
        let view = EncodedSeriesView::new(width, segments * period, &words);
        let config = MineConfig::new(0.5).unwrap();
        let mut index = IncrementalVerticalIndex::new(period, Some(capacity));
        for segment in 0..capacity {
            index.append_from_view(view, segment);
        }
        assert_matches_cold(&mut index, width, wpi, &words, &config);
        let (floor, dense) = (index.floor.unwrap(), index.dense_letters());
        for step in 0..30 {
            index.evict_oldest();
            if step % 3 == 2 {
                assert_matches_cold(&mut index, width, wpi, &words, &config);
                assert_floor_letters_dense(&index);
            }
        }
        assert!(index.floor.unwrap() < floor, "m fell, so min_count did");
        assert!(index.dense_letters() >= dense);
        // Refill the ring past capacity: slots wrap over rows densified
        // at both floors.
        for segment in capacity..segments {
            index.append_from_view(view, segment);
            if segment % 7 == 0 {
                assert_matches_cold(&mut index, width, wpi, &words, &config);
            }
        }
        assert_eq!(index.live_segments(), capacity);
        assert_matches_cold(&mut index, width, wpi, &words, &config);
    }

    #[test]
    fn rare_letters_hold_no_dense_row() {
        // Letter (0, f0) in every segment; 500 rare letters (offset
        // j % 10, feature 1 + (j / 10) % 50) appear twice each.
        let (period, width, segments) = (10, 60usize, 1000);
        let wpi = width.div_ceil(64);
        let mut words = vec![0u64; segments * period * wpi];
        for j in 0..segments {
            words[j * period * wpi] |= 1;
            let (o, f) = (j % period, 1 + (j / period) % 50);
            words[(j * period + o) * wpi + f / 64] |= 1u64 << (f % 64);
        }
        let view = EncodedSeriesView::new(width, segments * period, &words);
        let mut index = IncrementalVerticalIndex::from_view(view, period, None);
        let config = MineConfig::new(0.5).unwrap();
        assert_matches_cold(&mut index, width, wpi, &words, &config);
        assert_eq!(index.n_letters(), 501);
        assert_eq!(index.dense_letters(), 1);
        let full_matrix = index.n_letters() * segments.div_ceil(64) * 8;
        assert!(
            index.resident_bytes() < full_matrix,
            "{} resident bytes against a {full_matrix}-byte matrix",
            index.resident_bytes()
        );
    }

    #[test]
    fn resident_bytes_rise_on_appends_and_on_derives() {
        let period = 3;
        let (width, words) = lcg_words(40 * period, 4, 99);
        let view = EncodedSeriesView::new(width, 40 * period, &words);
        let mut index = IncrementalVerticalIndex::new(period, None);
        let empty = index.resident_bytes();
        index.append_from_view(view, 0);
        let one = index.resident_bytes();
        assert!(one > empty, "{one} after an append, {empty} before");
        index.catch_up(view);
        let fed = index.resident_bytes();
        assert!(fed > one, "{fed} after 39 more appends, {one} before");
        index
            .rederive_dirty(&MineConfig::new(0.2).unwrap())
            .unwrap();
        assert!(
            !index.prev_counts.is_empty(),
            "the derive counted candidates"
        );
        let derived = index.resident_bytes();
        assert!(derived > fed, "{derived} after the derive, {fed} before");
    }

    #[test]
    fn bulk_feeds_match_per_segment_appends() {
        let period = 4;
        let segments = 50;
        let n = segments * period;
        let (width, words) = graded_words(n, 5, 8);
        let view = EncodedSeriesView::new(width, n, &words);
        let instants: Vec<Vec<FeatureId>> = (0..n).map(|t| view.features_at(t).collect()).collect();
        // The same instants encoded 70 features wide: two words each.
        let mut wide_words = vec![0u64; n * 2];
        for (t, features) in instants.iter().enumerate() {
            for f in features {
                wide_words[t * 2 + f.index() / 64] |= 1u64 << (f.index() % 64);
            }
        }
        let wide = EncodedSeriesView::new(70, n, &wide_words);
        let half = 23 * period;
        let narrow_half = EncodedSeriesView::new(width, half, &words[..half]);
        for window in [None, Some(16)] {
            let mut by_segment = IncrementalVerticalIndex::new(period, window);
            for segment in instants.chunks(period) {
                by_segment.append_segment(segment);
            }
            let mut bulk = IncrementalVerticalIndex::from_view(view, period, window);
            let mut mixed = IncrementalVerticalIndex::from_view(narrow_half, period, window);
            assert_eq!(mixed.catch_up(wide), segments - 23);
            assert_eq!(mixed.catch_up(wide), 0, "nothing left to feed");
            for index in [&bulk, &mixed] {
                assert_eq!(index.appended_segments(), segments);
                assert_eq!(index.live_segments(), by_segment.live_segments());
                for o in 0..period {
                    for f in 0..70 {
                        assert_eq!(
                            index.letter_count(o, fid(f)),
                            by_segment.letter_count(o, fid(f)),
                            "({o}, {f}) under window {window:?}"
                        );
                    }
                }
            }
            for conf in [0.5, 0.25, 0.6] {
                let config = MineConfig::new(conf).unwrap();
                let want = by_segment.rederive_dirty(&config).unwrap();
                for index in [&mut bulk, &mut mixed] {
                    let got = index.rederive_dirty(&config).unwrap();
                    assert_eq!(got.frequent, want.frequent, "{conf} {window:?}");
                    assert_eq!(got.alphabet, want.alphabet);
                    assert_eq!(got.min_count, want.min_count);
                    assert_eq!(got.stats, want.stats);
                }
            }
        }
    }
}
