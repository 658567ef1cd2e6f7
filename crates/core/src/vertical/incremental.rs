//! Incremental sliding-window maintenance of the vertical index.
//!
//! The paper's miners assume a static series: every mine pays scan 1 +
//! scan 2 + a full derive. Continuous ingestion makes that wasteful — a
//! store that grows by one segment re-pays the whole derive for a window
//! that changed in exactly one column. This module keeps the vertical
//! bitmaps *live* instead:
//!
//! * [`append_segment`](IncrementalVerticalIndex::append_segment) sets one
//!   bit per `(offset, feature)` letter present in the new segment and
//!   bumps that letter's F1 count — no scan;
//! * [`evict_oldest`](IncrementalVerticalIndex::evict_oldest) clears the
//!   retiring segment's column and decrements the counts — the column
//!   store is a ring of fixed-width bitmap blocks, so eviction frees the
//!   slot the next append reuses;
//! * [`rederive_dirty`](IncrementalVerticalIndex::rederive_dirty) re-mines
//!   the window, recounting only what could have changed: candidates
//!   whose letters are all untouched since the last derive carry their
//!   previous count forward verbatim; candidates containing a touched
//!   letter are delta-recounted over just the **dirty word range** (the
//!   64-segment blocks that actually changed), reusing the wide
//!   AND+popcount kernel and its prefix cache on that range; only
//!   candidates never counted before (letters newly crossed over the F1
//!   threshold, or the threshold itself moved) pay a full-width count.
//!   The per-level Apriori joins are memoized across derives (exact
//!   input equality in stable row ids), so in the steady state the
//!   candidate lattice itself is not re-derived either — a re-mine after
//!   one appended segment touches one word per live row and hashes each
//!   candidate once.
//!
//! Correctness leans on two invariants. First, AND+popcount is
//! column-order invariant, so ring rotation never changes a count and
//! every state is bit-identical to a cold [`super::mine_vertical_view`]
//! of the same window (the audit cross-check runs this engine as its
//! sixth arm). Second, counts over disjoint word ranges sum exactly,
//! so `new = prev − prev_dirty + live_dirty` needs only a per-word
//! snapshot of the columns taken lazily at first mutation since the last
//! derive.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;
use std::time::Instant;

use ppm_timeseries::{EncodedSeriesView, FeatureId};

use crate::apriori::join_candidates;
use crate::error::{Error, Result};
use crate::letters::{Alphabet, LetterSet, WordMap};
use crate::result::{FrequentPattern, MiningResult};
use crate::scan::{MineConfig, Scan1};
use crate::stats::MiningStats;

use super::kernel::{count_dispatch_cached, Kernel, LevelBases, PrefixCache, Unit, BLOCK_WORDS};

/// Counts incremented by one level's worth of candidate classification,
/// reported as gauges after each re-derive.
#[derive(Debug, Default, Clone, Copy)]
struct DeriveTally {
    /// Candidates whose previous count carried forward unrecounted.
    carried: u64,
    /// Candidates delta-recounted over the dirty word range only.
    delta: u64,
    /// Candidates counted over the full window width.
    full: u64,
}

/// A candidate's count at the derive stamped in `gen`. Carry and delta
/// reuse are valid only for entries from the immediately preceding
/// derive — `rederive_dirty` purges everything older, so a candidate
/// that drops out of the lattice and later returns pays a full count.
#[derive(Debug, Clone, Copy)]
struct PrevCount {
    count: u64,
    gen: u64,
}

/// One memoized Apriori join: `output = join(input)`, letter sets over
/// one derive's alphabet. The join is a pure function of its input —
/// which rows the letters stand for never enters it — so exact input
/// equality is the whole validity condition: in the steady state the
/// frequent levels barely move between derives and every level is a
/// cache hit.
#[derive(Debug, Default, Clone)]
struct JoinLevel {
    input: Vec<LetterSet>,
    output: Vec<LetterSet>,
}

/// A sliding window of period segments held as live per-letter bitmaps.
///
/// Columns are segments. With a window capacity `C` the column store is a
/// ring: global segment `j` occupies slot `j % C`, and appending at
/// capacity first evicts the oldest segment. Without a capacity the store
/// grows (geometrically re-laid-out) and segments keep their global slot.
/// Every `(offset, feature)` letter ever seen in-window is interned to a
/// stable row id; the alphabet is re-derived per mine from the maintained
/// F1 counts, so the index itself is threshold-agnostic and one index
/// serves queries at any confidence.
#[derive(Debug, Clone)]
pub struct IncrementalVerticalIndex {
    period: usize,
    capacity: Option<usize>,
    words_per_row: usize,
    /// Row-major letter bitmaps: `rows[r * words_per_row + w]`.
    rows: Vec<u64>,
    /// Maintained F1 count per interned row (popcount of the row).
    row_counts: Vec<u64>,
    /// `(offset, feature raw)` → row id, assigned in arrival order.
    letter_ids: HashMap<(u32, u32), usize>,
    /// Row id → `(offset, feature)`.
    letters: Vec<(usize, FeatureId)>,
    /// Segments ever appended (the next global segment index).
    appended: usize,
    /// Segments ever evicted (the oldest live global segment index).
    evicted: usize,
    /// Word → full column snapshot (indexed by row id) taken at first
    /// mutation since the last derive. Rows interned later read as 0 —
    /// exactly their value at the last derive.
    dirty: BTreeMap<usize, Vec<u64>>,
    /// Rows with any bit changed since the last derive.
    dirty_rows: HashSet<usize>,
    /// Counts of **every** candidate counted at the last derive (frequent
    /// and infrequent), keyed by the candidate's letter set over that
    /// derive's alphabet, whose letter `l` is row `key_rows[l]`. A derive
    /// whose alphabet maps letters to other rows (a letter crossed the
    /// threshold) re-keys the map through the stable row ids first, so
    /// counts survive alphabet reshuffles and threshold changes. Entries
    /// update in place (no per-derive rebuild); stale generations are
    /// purged at the end of each derive.
    prev_counts: WordMap<LetterSet, PrevCount>,
    /// Letter → row id of the alphabet `prev_counts` is keyed over.
    key_rows: Vec<u32>,
    /// Monotonic derive counter stamping `prev_counts` entries.
    derive_gen: u64,
    /// Memoized joins per level (index `k - 1` holds the join of the
    /// frequent `k`-sets), keyed by exact input equality in row ids.
    join_cache: Vec<JoinLevel>,
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
            words_per_row,
            rows: Vec::new(),
            row_counts: Vec::new(),
            letter_ids: HashMap::new(),
            letters: Vec::new(),
            appended: 0,
            evicted: 0,
            dirty: BTreeMap::new(),
            dirty_rows: HashSet::new(),
            prev_counts: WordMap::default(),
            key_rows: Vec::new(),
            derive_gen: 0,
            join_cache: Vec::new(),
        }
    }

    /// Builds an index and appends every whole segment of `view` (later
    /// segments evict earlier ones when they overflow `window`).
    pub fn from_view(view: EncodedSeriesView<'_>, period: usize, window: Option<usize>) -> Self {
        let mut index = IncrementalVerticalIndex::new(period, window);
        for segment in 0..view.len() / period {
            index.append_from_view(view, segment);
        }
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

    /// 64-segment column words mutated since the last derive.
    pub fn dirty_words(&self) -> usize {
        self.dirty.len()
    }

    /// Bytes held by the live bitmap matrix.
    pub fn bitmap_bytes(&self) -> usize {
        self.rows.len() * 8
    }

    /// The maintained F1 count of one letter (0 if never seen).
    pub fn letter_count(&self, offset: usize, feature: FeatureId) -> u64 {
        self.letter_ids
            .get(&(offset as u32, feature.raw()))
            .map_or(0, |&r| self.row_counts[r])
    }

    /// The largest maintained F1 count among letters whose bitmaps changed
    /// since the last derive (`None` when the index is clean). While this
    /// stays *below* `min_count`, no pattern touching a dirty letter can be
    /// frequent — which is what lets a result cache keep entries across an
    /// append instead of dropping them (the frequent set provably did not
    /// move as long as `min_count` itself did not).
    pub fn max_dirty_letter_count(&self) -> Option<u64> {
        self.dirty_rows.iter().map(|&r| self.row_counts[r]).max()
    }

    /// The ring slot of global segment `j`.
    fn slot(&self, j: usize) -> usize {
        match self.capacity {
            Some(c) => j % c,
            None => j,
        }
    }

    /// Grows the unbounded layout so column `slot` fits.
    fn ensure_slot(&mut self, slot: usize) {
        let need = slot / 64 + 1;
        if need <= self.words_per_row {
            return;
        }
        let old = self.words_per_row;
        let new = need.max(old * 2);
        let n = self.letters.len();
        let mut rows = vec![0u64; n * new];
        for r in 0..n {
            rows[r * new..r * new + old].copy_from_slice(&self.rows[r * old..(r + 1) * old]);
        }
        self.rows = rows;
        self.words_per_row = new;
    }

    /// Snapshots column word `w` (all rows) before its first mutation
    /// since the last derive.
    fn touch(&mut self, w: usize) {
        if self.dirty.contains_key(&w) {
            return;
        }
        let wpr = self.words_per_row;
        let snap: Vec<u64> = (0..self.letters.len())
            .map(|r| self.rows[r * wpr + w])
            .collect();
        self.dirty.insert(w, snap);
    }

    /// Interns `(offset, feature)` to a stable row id, creating a zeroed
    /// row on first sight.
    fn intern(&mut self, offset: usize, feature: FeatureId) -> usize {
        let key = (offset as u32, feature.raw());
        if let Some(&r) = self.letter_ids.get(&key) {
            return r;
        }
        let r = self.letters.len();
        self.letter_ids.insert(key, r);
        self.letters.push((offset, feature));
        self.rows.resize(self.rows.len() + self.words_per_row, 0);
        self.row_counts.push(0);
        r
    }

    /// Appends one whole segment: one bit set per letter present, one F1
    /// count bump each. At window capacity the oldest segment is evicted
    /// first. Cost is proportional to the features in the segment, not to
    /// the window.
    ///
    /// # Panics
    ///
    /// If `instants` does not yield exactly `period` instants.
    pub fn append_segment<I, F>(&mut self, instants: I)
    where
        I: IntoIterator<Item = F>,
        F: AsRef<[FeatureId]>,
    {
        if let Some(c) = self.capacity {
            if self.live_segments() == c {
                self.evict_oldest();
            }
        }
        let slot = self.slot(self.appended);
        self.ensure_slot(slot);
        let w = slot / 64;
        let bit = 1u64 << (slot % 64);
        self.touch(w);
        let mut seen = 0usize;
        for (offset, instant) in instants.into_iter().enumerate() {
            seen += 1;
            for &f in instant.as_ref() {
                let r = self.intern(offset, f);
                let cell = &mut self.rows[r * self.words_per_row + w];
                if *cell & bit == 0 {
                    *cell |= bit;
                    self.row_counts[r] += 1;
                    self.dirty_rows.insert(r);
                }
            }
        }
        assert_eq!(
            seen, self.period,
            "append_segment requires exactly one whole segment of {} instants",
            self.period
        );
        self.appended += 1;
        ppm_observe::counter("incremental.appends", 1);
    }

    /// Appends whole segment `segment` (0-based over `view`) of an
    /// encoded series view.
    ///
    /// # Panics
    ///
    /// If the view does not contain that whole segment, or its width
    /// differs from previously appended encoded segments' width only in
    /// ways that change feature identity (widths merely pad with zeros,
    /// so differing widths are fine).
    pub fn append_from_view(&mut self, view: EncodedSeriesView<'_>, segment: usize) {
        let base = segment * self.period;
        assert!(
            base + self.period <= view.len(),
            "segment {segment} not wholly contained in a view of {} instants",
            view.len()
        );
        let period = self.period;
        self.append_segment(
            (0..period).map(|o| view.features_at(base + o).collect::<Vec<FeatureId>>()),
        );
    }

    /// Evicts the oldest live segment: clears its column and decrements
    /// the F1 counts of the letters it contained. Returns `false` when
    /// the window is already empty. Evicted letters stay interned (their
    /// rows may refill); they simply drop out of the alphabet once their
    /// count falls below the threshold.
    pub fn evict_oldest(&mut self) -> bool {
        if self.live_segments() == 0 {
            return false;
        }
        let slot = self.slot(self.evicted);
        let w = slot / 64;
        let bit = 1u64 << (slot % 64);
        self.touch(w);
        let wpr = self.words_per_row;
        for r in 0..self.letters.len() {
            let cell = &mut self.rows[r * wpr + w];
            if *cell & bit != 0 {
                *cell &= !bit;
                self.row_counts[r] -= 1;
                self.dirty_rows.insert(r);
            }
        }
        self.evicted += 1;
        true
    }

    /// Re-mines the current window, recounting only what the appends and
    /// evictions since the last derive could have changed. The result —
    /// frequent set, counts, alphabet, parameters, *and* stats — is
    /// bit-identical to a cold [`super::mine_vertical_view`] of the same
    /// window at the same `config`.
    ///
    /// The confidence (and hence `min_count`) may differ from the
    /// previous derive's: carried counts are exact counts, not
    /// threshold-relative, so classification stays correct — a candidate
    /// generated now but never counted before simply pays a full count.
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
        ppm_observe::gauge("vertical.dirty_words", self.dirty.len() as u64);

        // Scan-1 equivalent, straight from the maintained F1 counts.
        // `Alphabet::new` canonicalizes letter order, matching what a cold
        // scan over the same window builds.
        let alphabet = Alphabet::new(
            self.period,
            self.letters
                .iter()
                .enumerate()
                .filter(|&(r, _)| self.row_counts[r] >= min_count)
                .map(|(_, &(o, f))| (o, f)),
        );
        let n_letters = alphabet.len();
        let mut letter_counts = Vec::with_capacity(n_letters);
        let mut rowmap = Vec::with_capacity(n_letters);
        for i in 0..n_letters {
            let (o, f) = alphabet.letter(i);
            let row = self.letter_ids[&(o as u32, f.raw())];
            letter_counts.push(self.row_counts[row]);
            rowmap.push(row as u32);
        }
        let scan1 = Scan1 {
            alphabet,
            letter_counts,
            segment_count: m,
            min_count,
        };

        // Mirrors `derive_frequent_batched` exactly — candidate order,
        // stats accounting, threshold test — so the result (including
        // stats, with the two logical scans amortized into maintenance)
        // matches the cold vertical mine field for field.
        let mut stats = MiningStats {
            series_scans: 2,
            max_level: 1,
            ..Default::default()
        };
        let mut frequent = scan1.seed_singletons();
        let resolved = config.kernel();
        let mut and_ops = 0u64;
        let mut tally = DeriveTally::default();
        self.derive_gen += 1;
        let gen = self.derive_gen;

        // Row id → letter index for this derive's alphabet: re-keys the
        // carried counts if the alphabet moved, and marks the letters
        // whose rows changed since the last derive.
        let mut row_to_letter = vec![u32::MAX; self.letters.len()];
        for (i, &r) in rowmap.iter().enumerate() {
            row_to_letter[r as usize] = i as u32;
        }
        if self.key_rows != rowmap {
            self.rekey_prev_counts(&row_to_letter, n_letters);
            self.key_rows = rowmap;
        }
        let mut dirty_letters = LetterSet::new(n_letters);
        for &r in &self.dirty_rows {
            if row_to_letter[r] != u32::MAX {
                dirty_letters.insert(row_to_letter[r] as usize);
            }
        }

        let mut level: Vec<LetterSet> = (0..n_letters)
            .map(|i| LetterSet::from_indices(n_letters, [i]))
            .collect();
        let mut k = 1;
        while !level.is_empty() {
            let candidates = {
                let _span = ppm_observe::span("derive.join");
                self.joined_level(&level, k)
            };
            stats.candidates_generated += candidates.len() as u64;
            if candidates.is_empty() {
                break;
            }
            k += 1;
            stats.max_level = stats.max_level.max(k);
            stats.subset_tests += candidates.len() as u64;
            let counts = self.count_level_incremental(
                &candidates,
                k,
                &dirty_letters,
                resolved,
                gen,
                &mut and_ops,
                &mut tally,
            );
            level.clear();
            for (set, count) in candidates.into_iter().zip(counts) {
                if count >= min_count {
                    level.push(set.clone());
                    frequent.push(FrequentPattern {
                        letters: set,
                        count,
                    });
                }
            }
        }

        // This derive becomes the new baseline: the window is clean and
        // every candidate just counted is carry- or delta-eligible next
        // time. Entries not restamped this derive fell out of the
        // candidate lattice; purging them keeps a later reappearance
        // from carrying a count that missed intervening mutations.
        self.prev_counts.retain(|_, e| e.gen == gen);
        self.dirty.clear();
        self.dirty_rows.clear();

        ppm_observe::gauge("incremental.carried", tally.carried);
        ppm_observe::gauge("incremental.delta_counts", tally.delta);
        ppm_observe::gauge("incremental.full_counts", tally.full);
        ppm_observe::gauge("incremental.and_ops", and_ops);
        ppm_observe::gauge(
            "incremental.rederive_us",
            started.elapsed().as_micros() as u64,
        );

        Ok(scan1.into_result(config, frequent, stats))
    }

    /// Moves every carried count onto the keys of this derive's alphabet
    /// (`row_to_letter`, over `n_letters` letters), dropping those with a
    /// letter that left the alphabet — no such candidate is generated
    /// now.
    fn rekey_prev_counts(&mut self, row_to_letter: &[u32], n_letters: usize) {
        let old = std::mem::take(&mut self.prev_counts);
        self.prev_counts = old
            .into_iter()
            .filter_map(|(key, e)| {
                let mut set = LetterSet::new(n_letters);
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

    /// The Apriori join of one frequent `k`-letter level, memoized
    /// across derives. A hit — the exact same frequent `k`-sets as some
    /// earlier derive — returns the cached candidates without re-running
    /// the join's subset pruning; in the steady state of
    /// append-then-rederive the frequent set barely moves and every
    /// level hits.
    fn joined_level(&mut self, level: &[LetterSet], k: usize) -> Vec<LetterSet> {
        if let Some(c) = self.join_cache.get(k - 1) {
            if c.input.as_slice() == level {
                return c.output.clone();
            }
        }
        let out = join_candidates(level);
        if self.join_cache.len() < k {
            self.join_cache.resize_with(k, JoinLevel::default);
        }
        let entry = &mut self.join_cache[k - 1];
        entry.input = level.to_vec();
        entry.output = out.clone();
        out
    }

    /// Counts one level of `width`-letter candidates, classifying each
    /// as carried (no letter in `dirty_letters`), delta-recounted (known
    /// previous count, dirty letters — recount only the dirty words), or
    /// fully counted (never counted before).
    #[allow(clippy::too_many_arguments)]
    fn count_level_incremental(
        &mut self,
        candidates: &[LetterSet],
        width: usize,
        dirty_letters: &LetterSet,
        kernel: Kernel,
        gen: u64,
        and_ops: &mut u64,
        tally: &mut DeriveTally,
    ) -> Vec<u64> {
        let wpr = self.words_per_row;
        let row_of = &self.key_rows;
        let mut counts = vec![0u64; candidates.len()];
        let mut pending_delta = Vec::new();
        let mut pending_full = Vec::new();
        for (i, cand) in candidates.iter().enumerate() {
            match self.prev_counts.get_mut(cand) {
                Some(e) if e.gen + 1 == gen && cand.is_disjoint(dirty_letters) => {
                    e.gen = gen;
                    counts[i] = e.count;
                    tally.carried += 1;
                }
                Some(e) if e.gen + 1 == gen => {
                    // Disjoint-range decomposition: the previous count
                    // minus its dirty-word portion (from the snapshots)
                    // plus the live dirty-word portion.
                    let snapshot = |snap: &Vec<u64>| {
                        and_count(cand, row_of, |r| snap.get(r).copied().unwrap_or(0))
                    };
                    counts[i] = e.count - self.dirty.values().map(snapshot).sum::<u64>();
                    pending_delta.push(i);
                    tally.delta += 1;
                }
                _ => {
                    pending_full.push(i);
                    tally.full += 1;
                }
            }
        }

        // Live counts over just the dirty words. Single-word runs — the
        // common shape after one appended or evicted segment — AND the
        // column words directly; longer runs go through the blocked wide
        // kernel, like the full counts.
        for (lo, hi) in self.dirty_runs() {
            if hi - lo > 1 {
                self.count_blocked(
                    kernel,
                    candidates,
                    &pending_delta,
                    lo..hi,
                    &mut counts,
                    and_ops,
                );
                continue;
            }
            for &i in &pending_delta {
                *and_ops += (width - 1) as u64;
                counts[i] += and_count(&candidates[i], row_of, |r| self.rows[r * wpr + lo]);
            }
        }
        self.count_blocked(
            kernel,
            candidates,
            &pending_full,
            0..wpr,
            &mut counts,
            and_ops,
        );

        // Recounted candidates restamp in place; only genuinely new keys
        // allocate.
        for &i in pending_delta.iter().chain(pending_full.iter()) {
            let entry = PrevCount {
                count: counts[i],
                gen,
            };
            match self.prev_counts.get_mut(&candidates[i]) {
                Some(e) => *e = entry,
                None => {
                    self.prev_counts.insert(candidates[i].clone(), entry);
                }
            }
        }
        counts
    }

    /// Adds the count over `words` of each candidate `pending` names,
    /// through the blocked wide kernel, so the prefix cache reuses
    /// sibling candidates' shared ancestry on each block.
    fn count_blocked(
        &self,
        kernel: Kernel,
        candidates: &[LetterSet],
        pending: &[usize],
        words: Range<usize>,
        counts: &mut [u64],
        and_ops: &mut u64,
    ) {
        let wpr = self.words_per_row;
        let bases = LevelBases::new(pending.iter().map(|&i| {
            let rows = candidates[i].iter();
            rows.map(|l| self.key_rows[l] as usize * wpr)
        }));
        let mut cache = PrefixCache::default();
        for block in words.clone().step_by(BLOCK_WORDS) {
            let block = block..(block + BLOCK_WORDS).min(words.end);
            for (&i, bases) in pending.iter().zip(bases.iter()) {
                counts[i] += count_dispatch_cached(
                    kernel,
                    &self.rows,
                    Unit,
                    bases,
                    block.clone(),
                    and_ops,
                    &mut cache,
                );
            }
        }
    }

    /// Maximal runs of consecutive dirty words, in ascending order.
    fn dirty_runs(&self) -> Vec<(usize, usize)> {
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for &w in self.dirty.keys() {
            match runs.last_mut() {
                Some(run) if run.1 == w => run.1 = w + 1,
                _ => runs.push((w, w + 1)),
            }
        }
        runs
    }
}

/// The popcount of the AND of one word per letter of `cand`, `word(row)`
/// giving letter `l`'s word from its row `row_of[l]`. Live words count
/// the dirty range now; snapshot words count it as of the last derive,
/// where rows interned since read as 0 — their value then.
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
        // min_count moves between derives, so carried counts are reused
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

    #[test]
    fn rederive_is_idempotent_and_cheap_when_clean() {
        let period = 5;
        let (width, words) = lcg_words(30 * period, 4, 11);
        let view = EncodedSeriesView::new(width, 30 * period, &words);
        let config = MineConfig::new(0.4).unwrap();
        let mut index = IncrementalVerticalIndex::from_view(view, period, None);
        let first = index.rederive_dirty(&config).unwrap();
        assert_eq!(index.dirty_words(), 0);
        let second = index.rederive_dirty(&config).unwrap();
        assert_eq!(first.frequent, second.frequent);
        assert_eq!(first.stats, second.stats);
    }
}
