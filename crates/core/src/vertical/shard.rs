//! Word-axis sharding of the vertical derivation.
//!
//! The work-stealing sweep scheduler (PR 5) parallelizes *across* periods,
//! so one huge single-period mine still runs one core. This module splits
//! the counting itself: a [`ShardedCounter`] holds one derivation level's
//! candidates plus a partition of the index's word axis into disjoint
//! ranges, and any thread can claim-and-run a shard. Per-candidate totals
//! accumulate in atomics; because the word ranges are disjoint and every
//! weight belongs to its word, the partial counts sum **exactly**.
//!
//! Who runs the shards is abstracted behind [`ShardExecutor`]:
//!
//! * [`ThreadedExecutor`] — a scoped thread pool per level, used by
//!   [`run`](crate::run) with `threads > 1` (`mine`/`ppm serve` with
//!   `--threads`/`--mine-threads`) and the kernel race harness.
//! * The sweep scheduler's injector (in `crate::multi::scheduler`) — shard
//!   tasks are pushed onto the shared injector deque where idle workers
//!   steal them, so a single wide period fans out across the same pool
//!   that mines the other periods.
//!
//! Sharding only engages when the geometry pays for the per-level
//! coordination: at least `MIN_SHARD_WORDS` (64) words per shard and
//! `columns × letters ≥ SHARD_MIN_WORK` (2¹⁶). Below that, the plan
//! degenerates to a single range and the caller derives unsharded. The
//! columns are distinct hits, so a store whose segments repeat a few
//! thousand hits stays one range however long it is; noisy stores, where
//! nearly every segment is its own hit, are the ones that shard.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::letters::LetterSet;

use super::kernel::{count_dispatch_cached, Kernel, PrefixCache, RowBases};
use super::VerticalIndex;

/// Fewest index words (64-column blocks) a shard may cover: 64 words =
/// 4096 distinct hits. Narrower shards spend more time in claim/merge
/// bookkeeping than in the kernel.
pub(crate) const MIN_SHARD_WORDS: usize = 64;

/// Sharding work threshold on `columns × letters`: below this a level is
/// cheap enough that the per-level fan-out costs more than it saves.
pub(crate) const SHARD_MIN_WORK: u64 = 1 << 16;

/// Splits `words` index words into at most `parallelism` disjoint ranges
/// of at least `min_shard_words` each, provided the `columns × letters`
/// work product crosses [`SHARD_MIN_WORK`]. A plan of fewer than two
/// ranges means "derive unsharded".
pub(crate) fn plan_shards(
    words: usize,
    columns: usize,
    letters: usize,
    parallelism: usize,
    min_shard_words: usize,
) -> Vec<Range<usize>> {
    let work = columns as u64 * letters as u64;
    // min_shard_words == 0 means "no width floor" (test geometries).
    let max_by_width = words.checked_div(min_shard_words).unwrap_or(words);
    let shards = parallelism.min(max_by_width).max(1);
    if shards < 2 || work < SHARD_MIN_WORK.min(min_shard_words as u64 * 64) || words == 0 {
        return std::iter::once(0..words).collect();
    }
    let per = words.div_ceil(shards);
    (0..shards)
        .map(|i| (i * per).min(words)..((i + 1) * per).min(words))
        .filter(|r| !r.is_empty())
        .collect()
}

/// One derivation level's counting fanned out over word-range shards.
///
/// Threads call [`ShardedCounter::run_next`] to claim and execute one
/// shard at a time; the creator drains what nobody stole and then waits
/// for [`ShardedCounter::is_done`]. Totals are exact: each shard counts a
/// disjoint word range and the per-candidate sums are integer additions.
pub struct ShardedCounter {
    index: Arc<VerticalIndex>,
    kernel: Kernel,
    /// Row offsets resolved once per level (one per candidate, in the
    /// candidate order the totals are reported in), shared by every shard.
    bases: Vec<RowBases>,
    shards: Vec<Range<usize>>,
    totals: Vec<AtomicU64>,
    and_ops: AtomicU64,
    /// Next unclaimed shard.
    next: AtomicUsize,
    /// Completed shards.
    done: AtomicUsize,
    /// Per-shard wall time in µs, recorded by whichever thread ran it.
    shard_us: Vec<AtomicU64>,
    /// Shards run through [`ShardedCounter::run_stolen`] — i.e. by a
    /// thread other than the coordinating one.
    remote: AtomicU64,
}

impl ShardedCounter {
    /// A counter for one level: `candidates` counted against `index`
    /// over the disjoint word ranges of `shards`.
    pub(crate) fn new(
        index: Arc<VerticalIndex>,
        candidates: &[LetterSet],
        shards: Vec<Range<usize>>,
        kernel: Kernel,
    ) -> Arc<ShardedCounter> {
        let bases = candidates
            .iter()
            .map(|p| RowBases::from_pattern(p, index.words_per_row()))
            .collect();
        let totals = (0..candidates.len()).map(|_| AtomicU64::new(0)).collect();
        let shard_us = (0..shards.len()).map(|_| AtomicU64::new(0)).collect();
        Arc::new(ShardedCounter {
            index,
            kernel,
            bases,
            shards,
            totals,
            and_ops: AtomicU64::new(0),
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            shard_us,
            remote: AtomicU64::new(0),
        })
    }

    /// Number of shards in the plan.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Claims and runs one unclaimed shard. `false` means every shard is
    /// already claimed (not necessarily finished — see
    /// [`ShardedCounter::is_done`]).
    pub fn run_next(&self) -> bool {
        let s = self.next.fetch_add(1, Ordering::Relaxed);
        if s >= self.shards.len() {
            return false;
        }
        self.run_shard(s);
        true
    }

    /// [`ShardedCounter::run_next`] for a stealing thread: identical work,
    /// but the run is tallied in the remote-shard counter that proves a
    /// single-period mine used more than one worker.
    pub fn run_stolen(&self) -> bool {
        let ran = self.run_next();
        if ran {
            self.remote.fetch_add(1, Ordering::Relaxed);
        }
        ran
    }

    /// Whether every shard has finished (claimed **and** run).
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire) == self.shards.len()
    }

    /// Counts every candidate over shard `s`'s word range.
    fn run_shard(&self, s: usize) {
        let start = Instant::now();
        let range = self.shards[s].clone();
        let words = self.index.raw_words();
        let mut and_ops = 0u64;
        // Cache-blocked like the unsharded level loop: all candidates
        // answer against one block before the next is touched, and
        // sibling runs share their prefix AND through the cache.
        let mut cache = PrefixCache::default();
        let mut lo = range.start;
        while lo < range.end {
            let hi = (lo + super::kernel::BLOCK_WORDS).min(range.end);
            for (i, bases) in self.bases.iter().enumerate() {
                let slice = bases.as_slice();
                let add = if slice.is_empty() {
                    self.index.empty_pattern_weight(lo..hi)
                } else {
                    count_dispatch_cached(
                        self.kernel,
                        words,
                        self.index.weights(),
                        slice,
                        lo..hi,
                        &mut and_ops,
                        &mut cache,
                    )
                };
                if add != 0 {
                    self.totals[i].fetch_add(add, Ordering::Relaxed);
                }
            }
            lo = hi;
        }
        self.and_ops.fetch_add(and_ops, Ordering::Relaxed);
        self.shard_us[s].store(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        self.done.fetch_add(1, Ordering::Release);
    }

    /// The per-candidate totals; call only after [`ShardedCounter::is_done`].
    pub(crate) fn totals(&self) -> Vec<u64> {
        debug_assert!(self.is_done());
        self.totals
            .iter()
            .map(|t| t.load(Ordering::Acquire))
            .collect()
    }

    /// Word-level AND/popcount operations performed across all shards.
    pub(crate) fn and_ops(&self) -> u64 {
        self.and_ops.load(Ordering::Relaxed)
    }

    /// Per-shard latencies in µs (position = shard index).
    pub(crate) fn shard_latencies(&self) -> impl Iterator<Item = u64> + '_ {
        self.shard_us.iter().map(|us| us.load(Ordering::Relaxed))
    }

    /// Shards run by stealing threads (via [`ShardedCounter::run_stolen`]).
    pub(crate) fn remote_runs(&self) -> u64 {
        self.remote.load(Ordering::Relaxed)
    }
}

/// Counts every candidate against `index` under `executor`'s shard plan —
/// the standalone sharded-counting entry the bit-identity property tests
/// drive directly. Shards run even when the plan is a single range (the
/// counter just has one subtask), so callers can probe arbitrary split
/// geometries via [`ThreadedExecutor::with_min_shard_words`].
pub fn count_sharded(
    index: &Arc<VerticalIndex>,
    candidates: &[LetterSet],
    kernel: Kernel,
    executor: &dyn ShardExecutor,
) -> Vec<u64> {
    let plan = executor.plan(index.words_per_row(), index.n_columns(), index.n_letters());
    let counter = ShardedCounter::new(index.clone(), candidates, plan, kernel);
    executor.execute(&counter);
    debug_assert!(counter.is_done());
    counter.totals()
}

/// How a sharded derive recruits threads for its shard subtasks.
pub trait ShardExecutor: Sync {
    /// Partitions `words` index words (over `columns` counting columns
    /// and `letters` letter rows) into shard ranges. Fewer than two
    /// ranges ⇒ the caller derives unsharded.
    fn plan(&self, words: usize, columns: usize, letters: usize) -> Vec<Range<usize>>;

    /// Runs every shard of `counter` to completion before returning. The
    /// calling thread participates; implementations decide who else does.
    fn execute(&self, counter: &Arc<ShardedCounter>);
}

/// A [`ShardExecutor`] that spawns a scoped helper pool per level —
/// `threads − 1` helpers plus the calling thread, joined before the level
/// is filtered.
pub struct ThreadedExecutor {
    threads: usize,
    min_shard_words: usize,
}

impl ThreadedExecutor {
    /// An executor over `threads` threads (clamped to ≥ 1) with the
    /// default sharding threshold.
    pub fn new(threads: usize) -> ThreadedExecutor {
        ThreadedExecutor {
            threads: threads.max(1),
            min_shard_words: MIN_SHARD_WORDS,
        }
    }

    /// Lowers the words-per-shard floor so tests and the audit
    /// cross-check can force sharding on small indexes; counting is
    /// exact at any split, this just makes tiny geometries split at all.
    pub fn with_min_shard_words(threads: usize, min_shard_words: usize) -> ThreadedExecutor {
        ThreadedExecutor {
            threads: threads.max(1),
            min_shard_words,
        }
    }
}

impl ShardExecutor for ThreadedExecutor {
    fn plan(&self, words: usize, columns: usize, letters: usize) -> Vec<Range<usize>> {
        plan_shards(words, columns, letters, self.threads, self.min_shard_words)
    }

    fn execute(&self, counter: &Arc<ShardedCounter>) {
        // Helpers beyond the machine's actual parallelism only add
        // scheduling churn (a 2-thread pool on a 1-core box is strictly
        // slower than draining the shards serially), so the pool is
        // clamped to `available_parallelism`. The shard plan is
        // unaffected — partial counts sum exactly in any execution
        // order, on any number of threads.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let pool = self.threads.min(counter.n_shards()).min(cores);
        if pool <= 1 {
            while counter.run_next() {}
            return;
        }
        std::thread::scope(|scope| {
            for _ in 1..pool {
                scope.spawn(|| while counter.run_stolen() {});
            }
            while counter.run_next() {}
        });
        debug_assert!(counter.is_done());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic index with pseudo-random columns.
    fn synth_index(n_letters: usize, n_columns: usize, seed: u64) -> VerticalIndex {
        let mut x = seed;
        let columns: Vec<LetterSet> = (0..n_columns)
            .map(|_| {
                let mut set = LetterSet::new(n_letters);
                for l in 0..n_letters {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if (x >> 33).is_multiple_of(3) {
                        set.insert(l);
                    }
                }
                set
            })
            .collect();
        VerticalIndex::from_columns(n_letters, &columns)
    }

    #[test]
    fn plan_degenerates_below_the_threshold() {
        // 34 words × 24 letters over 2142 columns (the dense race shape):
        // under the work threshold, single range.
        let plan = plan_shards(34, 2142, 24, 8, MIN_SHARD_WORDS);
        assert_eq!(plan, vec![0..34]);
        // Wide enough and busy enough: splits.
        let plan = plan_shards(4096, 4096 * 64, 16, 8, MIN_SHARD_WORDS);
        assert_eq!(plan.len(), 8);
        assert_eq!(plan[0], 0..512);
        assert_eq!(plan[7], 3584..4096);
    }

    #[test]
    fn plan_covers_words_disjointly() {
        for (words, par) in [(129, 2), (4097, 8), (640, 3), (64, 9)] {
            let plan = plan_shards(words, words * 64, 8, par, 1);
            let mut covered = 0usize;
            for (i, r) in plan.iter().enumerate() {
                assert_eq!(r.start, covered, "shard {i} of {plan:?}");
                covered = r.end;
            }
            assert_eq!(covered, words);
        }
    }

    #[test]
    fn sharded_totals_equal_unsharded_counts() {
        let index = Arc::new(synth_index(9, 1000, 0xfeed));
        let cands: Vec<LetterSet> = vec![
            LetterSet::from_indices(9, [0, 3]),
            LetterSet::from_indices(9, [1, 2, 5]),
            LetterSet::from_indices(9, [6]),
            LetterSet::new(9), // empty pattern
            LetterSet::from_indices(9, [0, 1, 2, 3, 4, 5, 6, 7, 8]),
        ];
        // 1000 columns = 16 words; shard mid-block (16 / 3 ⇒ 6,6,4).
        let plan = plan_shards(16, 1000, 9, 3, 1);
        assert!(plan.len() > 1, "{plan:?}");
        for kernel in [Kernel::Scalar, Kernel::Wide] {
            let counter = ShardedCounter::new(index.clone(), &cands, plan.clone(), kernel);
            let ex = ThreadedExecutor::with_min_shard_words(3, 1);
            ex.execute(&counter);
            assert!(counter.is_done());
            let totals = counter.totals();
            for (i, p) in cands.iter().enumerate() {
                assert_eq!(totals[i], index.count(p), "candidate {i} ({kernel:?})");
            }
            assert_eq!(counter.shard_latencies().count(), plan.len());
        }
    }

    #[test]
    fn single_thread_executor_drains_inline() {
        let index = Arc::new(synth_index(5, 300, 7));
        let cands = vec![LetterSet::from_indices(5, [0, 1])];
        let plan = plan_shards(5, 300, 5, 4, 1);
        let counter = ShardedCounter::new(index.clone(), &cands, plan, Kernel::Wide);
        ThreadedExecutor::new(1).execute(&counter);
        assert!(counter.is_done());
        assert_eq!(counter.remote_runs(), 0);
        assert_eq!(counter.totals()[0], index.count(&cands[0]));
    }
}
