//! The daemon's hot-store registry: validated `.ppmc` loads kept open for
//! the process lifetime and shared read-only across every worker.
//!
//! Each store is one [`ColumnarReader`] behind a swap lock; queries clone
//! the current `Arc` and borrow its [`EncodedSeriesView`] concurrently
//! with zero copying. A reader a query holds is never changed: the lock
//! exists only so a *grown* file can be swapped in without restarting,
//! or — when no query holds the current reader — grown in place by an
//! append ([`Store::grow_reader`]).
//! Stores are addressed by their file stem — `trades.ppmc` serves as
//! `"trades"` — and each carries the content fingerprint the result
//! cache keys on.
//!
//! ## Health gating and legitimate growth
//!
//! Each store also carries a health bit. [`StoreRegistry::reverify_all`]
//! re-reads every backing file and judges it against the resident load
//! with [`ColumnarReader::reload`]: compare first, resume the checksum
//! for growth, and fall back to the full trailer-checksum validation for
//! anything else. Three verdicts:
//!
//! - **unchanged** — byte-identical to the resident load (or, after a
//!   full validation, the same fingerprint): healthy, nothing to do;
//! - **grown** — the file is the resident load plus appended whole
//!   instants, its checksum resumed from the resident midstate over the
//!   new rows: an appender published new instants. This is *not*
//!   corruption; the grown reader is swapped in (queries started on the
//!   old `Arc` finish on it) and the store stays healthy;
//! - **diverged** — vanished, corrupt, or rewritten with different
//!   content: **quarantined**. Queries against it get a typed error while
//!   every healthy store keeps serving; restoring the original content
//!   (or a valid extension of it) heals on the next re-verification.
//!
//! ## Live incremental indexes
//!
//! Each store lazily owns one [`IncrementalVerticalIndex`] per mined
//! period. [`Store::with_index`] creates the index from the current
//! reader on first use and *catches it up* — feeding any whole segments
//! appended since the index last saw the store — before handing it to
//! the caller, so both the `append` wire op and reverify-detected growth
//! leave the next incremental query sub-millisecond instead of cold.
//!
//! Every live index holds a full bitmap matrix over the whole store, so
//! the per-store table is a bounded LRU ([`MAX_LIVE_INDEXES`] periods):
//! a client iterating over many distinct periods recycles index slots
//! instead of inflating daemon memory without bound. Resident bytes are
//! exported as the `serve.index.bytes` / `serve.index.live` gauges and
//! surfaced in `stats` / the Prometheus exposition.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use ppm_core::vertical::incremental::IncrementalVerticalIndex;
use ppm_timeseries::columnar::{ColumnarReader, Growth, Reload};

/// Most live incremental indexes kept per store. Small on purpose: each
/// index is O(alphabet × instants) bits of resident memory, and a
/// period that falls out of the table merely re-mines cold once.
pub const MAX_LIVE_INDEXES: usize = 8;

/// The per-store table of live incremental indexes: an LRU bounded at
/// [`MAX_LIVE_INDEXES`] distinct periods. A `Vec` in recency order
/// (least-recent first) — linear scans are free at this capacity.
#[derive(Debug, Default)]
pub struct IndexTable {
    entries: Vec<(usize, IncrementalVerticalIndex)>,
}

impl IndexTable {
    /// The live index for `period`, if resident. Does not touch recency.
    pub fn get(&self, period: usize) -> Option<&IncrementalVerticalIndex> {
        self.entries
            .iter()
            .find(|(p, _)| *p == period)
            .map(|(_, idx)| idx)
    }

    /// The live index for `period`, creating it (and evicting the
    /// least-recently-used index past the cap) on first use. Marks the
    /// period most-recently used either way.
    pub fn get_or_create(&mut self, period: usize) -> &mut IncrementalVerticalIndex {
        if let Some(pos) = self.entries.iter().position(|(p, _)| *p == period) {
            let entry = self.entries.remove(pos);
            self.entries.push(entry);
        } else {
            if self.entries.len() >= MAX_LIVE_INDEXES {
                let (evicted, idx) = self.entries.remove(0);
                ppm_observe::counter("serve.index.evictions", 1);
                ppm_observe::mark("serve.index.evicted", || {
                    format!(
                        "live index for period {evicted} evicted (LRU, cap {}); \
                         freed {} bitmap bytes",
                        MAX_LIVE_INDEXES,
                        idx.bitmap_bytes()
                    )
                });
            }
            self.entries
                .push((period, IncrementalVerticalIndex::new(period, None)));
        }
        &mut self.entries.last_mut().expect("just pushed").1
    }

    /// Every resident index, in recency order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut IncrementalVerticalIndex> {
        self.entries.iter_mut().map(|(_, idx)| idx)
    }

    /// How many indexes are resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total resident bitmap bytes across every live index.
    pub fn bitmap_bytes(&self) -> usize {
        self.entries.iter().map(|(_, idx)| idx.bitmap_bytes()).sum()
    }

    /// Publishes the resident-size gauges. Called after any mutation.
    pub fn publish_gauges(&self) {
        ppm_observe::gauge("serve.index.live", self.len() as u64);
        ppm_observe::gauge("serve.index.bytes", self.bitmap_bytes() as u64);
    }
}

/// One open store.
#[derive(Debug)]
pub struct Store {
    /// The query-addressable name (the file stem).
    pub name: String,
    /// Where the store was loaded from.
    pub path: PathBuf,
    /// The current validated load. Swapped (never mutated) on growth.
    reader: RwLock<Arc<ColumnarReader>>,
    /// Health bit: `true` once checksum re-verification has failed (and
    /// until a later re-verification succeeds again).
    quarantined: AtomicBool,
    /// Live incremental vertical indexes: a bounded LRU per mined period.
    indexes: Mutex<IndexTable>,
    /// Serializes appenders: one publish to the backing file at a time.
    append_lock: Mutex<()>,
}

impl Store {
    fn new(name: String, path: PathBuf, reader: ColumnarReader) -> Store {
        Store {
            name,
            path,
            reader: RwLock::new(Arc::new(reader)),
            quarantined: AtomicBool::new(false),
            indexes: Mutex::new(IndexTable::default()),
            append_lock: Mutex::new(()),
        }
    }

    /// The current reader. The returned `Arc` is a stable snapshot: a
    /// concurrent growth swap never changes data under a running query.
    pub fn reader(&self) -> Arc<ColumnarReader> {
        self.reader.read().expect("reader lock poisoned").clone()
    }

    /// The store's content fingerprint (see
    /// [`ColumnarReader::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.reader().fingerprint()
    }

    /// Publishes a fresh reader (after an append) and returns the one it
    /// replaced.
    pub(crate) fn swap_reader(&self, fresh: ColumnarReader) -> Arc<ColumnarReader> {
        std::mem::replace(
            &mut *self.reader.write().expect("reader lock poisoned"),
            Arc::new(fresh),
        )
    }

    /// Brings the resident load up to an append the caller published.
    /// `base` is the caller's snapshot of the load the append was built
    /// on. A reader a query holds is never changed under it: while any
    /// query holds the current reader, a grown copy is swapped in (built
    /// outside the lock); when none does, the reader grows in place — the
    /// append then costs its own rows, not a copy of the store.
    pub(crate) fn grow_reader(
        &self,
        base: Arc<ColumnarReader>,
        growth: &Growth,
    ) -> ppm_timeseries::Result<()> {
        // The store's slot and `base` itself: anything more is a query.
        if Arc::strong_count(&base) <= 2 {
            let mut slot = self.reader.write().expect("reader lock poisoned");
            if Arc::ptr_eq(&slot, &base) {
                drop(base);
                return match Arc::get_mut(&mut slot) {
                    Some(resident) => growth.apply_to(resident),
                    // A query took a snapshot since the count was read.
                    None => {
                        *slot = Arc::new(growth.extend(&slot)?);
                        Ok(())
                    }
                };
            }
        }
        self.swap_reader(growth.extend(&base)?);
        Ok(())
    }

    /// Serializes append publishes to this store's backing file.
    pub(crate) fn append_guard(&self) -> MutexGuard<'_, ()> {
        self.append_lock.lock().expect("append lock poisoned")
    }

    /// The live per-period index table (callers hold the guard across
    /// catch-up + use so the pair is atomic w.r.t. other queries).
    /// The `append` op additionally holds it *across* the reader swap so
    /// no concurrent [`Store::with_index`] can catch an index up to the
    /// fresh reader — and clean its dirty state — before append's cache
    /// judgment has read it.
    pub(crate) fn indexes(&self) -> MutexGuard<'_, IndexTable> {
        self.indexes.lock().expect("index lock poisoned")
    }

    /// Resident live-index footprint: `(count, bitmap_bytes)`.
    pub fn index_stats(&self) -> (usize, usize) {
        let indexes = self.indexes();
        (indexes.len(), indexes.bitmap_bytes())
    }

    /// Feeds `index` every whole segment the reader holds beyond what the
    /// index has already consumed.
    pub(crate) fn catch_up(index: &mut IncrementalVerticalIndex, reader: &ColumnarReader) {
        let m = reader.len() / index.period();
        while index.appended_segments() < m {
            index.append_from_view(reader.view(), index.appended_segments());
        }
    }

    /// Runs `f` on the live incremental index for `period`, creating it
    /// from the current reader on first use and catching it up on every
    /// use (see module docs).
    pub fn with_index<R>(
        &self,
        period: usize,
        f: impl FnOnce(&mut IncrementalVerticalIndex) -> R,
    ) -> R {
        let mut indexes = self.indexes();
        // Snapshot the reader *under* the index guard: the append op
        // swaps the reader while holding this guard, so an index can
        // never be caught up past append's own dirty-state judgment.
        let reader = self.reader();
        let index = indexes.get_or_create(period);
        Self::catch_up(index, &reader);
        let out = f(index);
        indexes.publish_gauges();
        out
    }

    /// Whether the last checksum re-verification failed.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::SeqCst)
    }

    /// Re-validates the backing file against the resident load (see
    /// [`ColumnarReader::reload`]): a byte-identical file is healthy
    /// without re-hashing; a file that is the resident load plus appended
    /// rows is **growth** — its checksum is resumed over the new rows
    /// only, the grown reader is swapped in, and the store stays healthy;
    /// anything else takes the full checksummed re-open, and a vanished,
    /// corrupt or rewritten file is quarantined. Quarantine gates
    /// *serving*, not memory — the resident reader keeps answering
    /// nothing until the file heals.
    pub fn reverify(&self) -> Result<(), String> {
        let resident = self.reader();
        let verdict = match resident.reload(&self.path) {
            Err(e) => Err(format!("re-open failed: {e}")),
            Ok(Reload::Unchanged) => Ok(()),
            Ok(Reload::Extended(fresh)) => {
                let added = fresh.len() - resident.len();
                ppm_observe::mark("serve.store.grown", || {
                    format!(
                        "store {} grew by {added} instants ({:016x} -> {:016x}); \
                         swapped in the extended load",
                        self.name,
                        resident.fingerprint(),
                        fresh.fingerprint()
                    )
                });
                ppm_observe::counter("serve.store.growths", 1);
                self.swap_reader(fresh);
                Ok(())
            }
            Ok(Reload::Rewritten(fresh)) => Err(format!(
                "content diverged on disk: resident {:016x}, file {:016x} \
                 (not an extension)",
                resident.fingerprint(),
                fresh.fingerprint()
            )),
        };
        let was = self.quarantined.swap(verdict.is_err(), Ordering::SeqCst);
        match (&verdict, was) {
            (Err(why), false) => ppm_observe::mark("serve.store.quarantined", || {
                format!("store {} quarantined: {why}", self.name)
            }),
            (Ok(()), true) => ppm_observe::mark("serve.store.healed", || {
                format!("store {} healed by re-verification", self.name)
            }),
            _ => {}
        }
        verdict
    }
}

/// Every store the daemon serves, loaded and checksum-verified at startup.
#[derive(Debug)]
pub struct StoreRegistry {
    stores: Vec<Store>,
}

impl StoreRegistry {
    /// Opens every path, validating each as a `.ppmc` store. Fails fast on
    /// the first unopenable store or duplicate name — a daemon that
    /// silently served a subset would mask a deployment error.
    pub fn open(paths: &[impl AsRef<Path>]) -> Result<Self, String> {
        if paths.is_empty() {
            return Err("no stores given: pass at least one .ppmc path".into());
        }
        let mut stores: Vec<Store> = Vec::with_capacity(paths.len());
        for p in paths {
            let path = p.as_ref().to_path_buf();
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .filter(|s| !s.is_empty())
                .ok_or_else(|| format!("store path {} has no usable file stem", path.display()))?
                .to_owned();
            if stores.iter().any(|s| s.name == name) {
                return Err(format!(
                    "duplicate store name {name:?} ({})",
                    path.display()
                ));
            }
            let reader = ColumnarReader::open(&path)
                .map_err(|e| format!("cannot open store {}: {e}", path.display()))?;
            stores.push(Store::new(name, path, reader));
        }
        Ok(StoreRegistry { stores })
    }

    /// Re-verifies every store (see [`Store::reverify`]); returns the
    /// number currently quarantined.
    pub fn reverify_all(&self) -> usize {
        self.stores.iter().filter(|s| s.reverify().is_err()).count()
    }

    /// How many stores are currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.stores.iter().filter(|s| s.is_quarantined()).count()
    }

    /// The store named `name`, if loaded.
    pub fn get(&self, name: &str) -> Option<&Store> {
        self.stores.iter().find(|s| s.name == name)
    }

    /// Iterates every loaded store.
    pub fn iter(&self) -> impl Iterator<Item = &Store> {
        self.stores.iter()
    }

    /// Number of loaded stores.
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// Whether the registry is empty (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::columnar::{write_columnar, ColumnarAppender};
    use ppm_timeseries::{FeatureCatalog, SeriesBuilder};

    fn sample_store(tag: &str) -> PathBuf {
        let mut cat = FeatureCatalog::new();
        let a = cat.intern("alpha");
        let mut b = SeriesBuilder::new();
        for _ in 0..6 {
            b.push_instant([a]);
            b.push_instant([]);
        }
        let path =
            std::env::temp_dir().join(format!("ppm-serve-store-{}-{tag}.ppmc", std::process::id()));
        write_columnar(&path, &b.finish(), &cat).unwrap();
        path
    }

    #[test]
    fn registry_addresses_stores_by_stem() {
        let path = sample_store("stem");
        let reg = StoreRegistry::open(&[&path]).unwrap();
        assert_eq!(reg.len(), 1);
        let name = path.file_stem().unwrap().to_str().unwrap();
        let store = reg.get(name).unwrap();
        assert_eq!(store.reader().len(), 12);
        assert!(reg.get("nope").is_none());
        assert!(!reg.is_empty());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupting_the_file_quarantines_and_restoring_heals() {
        let path = sample_store("health");
        let reg = StoreRegistry::open(&[&path]).unwrap();
        let store = reg.iter().next().unwrap();
        assert!(!store.is_quarantined());
        assert_eq!(reg.reverify_all(), 0, "pristine file verifies clean");

        let good = std::fs::read(&path).unwrap();
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(reg.reverify_all(), 1, "corrupt file quarantines");
        assert!(store.is_quarantined());
        assert_eq!(reg.quarantined_count(), 1);
        // The resident view still works — quarantine gates serving only.
        assert_eq!(store.reader().len(), 12);

        std::fs::write(&path, &good).unwrap();
        assert_eq!(reg.reverify_all(), 0, "restored file heals");
        assert!(!store.is_quarantined());

        std::fs::remove_file(&path).ok();
        assert_eq!(reg.reverify_all(), 1, "vanished file quarantines");
    }

    #[test]
    fn appender_growth_swaps_the_reader_instead_of_quarantining() {
        let path = sample_store("growth");
        let reg = StoreRegistry::open(&[&path]).unwrap();
        let store = reg.iter().next().unwrap();
        let before = store.reader();

        // A legitimate appender publish: two more instants, valid trailer.
        let mut app = ColumnarAppender::open(&path).unwrap();
        let alpha = before.catalog().get("alpha").unwrap();
        app.append_instant(&[alpha]).unwrap();
        app.append_instant(&[]).unwrap();
        app.finish().unwrap();

        assert_eq!(reg.reverify_all(), 0, "growth is not corruption");
        assert!(!store.is_quarantined());
        let after = store.reader();
        assert_eq!(after.len(), 14, "the grown load was swapped in");
        assert_ne!(after.fingerprint(), before.fingerprint());
        // The pre-swap snapshot is untouched (in-flight queries finish).
        assert_eq!(before.len(), 12);

        // A rewrite with *different* content still quarantines.
        let mut cat = FeatureCatalog::new();
        let b = cat.intern("alpha");
        let mut sb = SeriesBuilder::new();
        for _ in 0..14 {
            sb.push_instant([b]);
        }
        write_columnar(&path, &sb.finish(), &cat).unwrap();
        assert_eq!(reg.reverify_all(), 1, "divergent rewrite quarantines");
        assert!(store.is_quarantined());
        std::fs::remove_file(path).ok();
    }

    /// Growth is judged by comparing the resident prefix and resuming
    /// the checksum over the new rows: a flip on either side of the old
    /// end-of-words must still quarantine, with the full open's error.
    #[test]
    fn grown_file_with_a_flipped_word_quarantines() {
        let path = sample_store("grown-flip");
        let reg = StoreRegistry::open(&[&path]).unwrap();
        let store = reg.iter().next().unwrap();
        let resident = store.reader();
        let old_len = std::fs::read(&path).unwrap().len();

        let mut app = ColumnarAppender::open(&path).unwrap();
        let alpha = resident.catalog().get("alpha").unwrap();
        for _ in 0..4 {
            app.append_instant(&[alpha]).unwrap();
        }
        app.finish().unwrap();
        let grown = std::fs::read(&path).unwrap();
        // Old prefix: the last resident word. New tail: the first
        // appended word (it starts where the old trailer was).
        for (at, side) in [(old_len - 16 - 8, "old prefix"), (old_len - 16, "new tail")] {
            let mut bad = grown.clone();
            bad[at] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            let why = store.reverify().unwrap_err();
            assert!(why.contains("checksum mismatch"), "{side}: {why}");
            assert!(store.is_quarantined(), "{side}");
            assert_eq!(store.reader().len(), 12, "{side}: nothing swapped in");
        }
        std::fs::write(&path, &grown).unwrap();
        assert_eq!(reg.reverify_all(), 0, "the intact growth heals");
        assert_eq!(store.reader().len(), 16);
        std::fs::remove_file(path).ok();
    }

    /// An append grows the resident load in place when no query holds it,
    /// and swaps in a grown copy when one does — the held snapshot stays
    /// exactly as it was. Either way the store equals a fresh open.
    #[test]
    fn grow_reader_copies_only_when_a_snapshot_is_held() {
        let path = sample_store("grow");
        let reg = StoreRegistry::open(&[&path]).unwrap();
        let store = reg.iter().next().unwrap();
        let alpha = store.reader().catalog().get("alpha").unwrap();
        let append = |base: &Arc<ColumnarReader>| {
            let mut app = ColumnarAppender::open_resident(&path, base).unwrap();
            app.append_instant(&[alpha]).unwrap();
            app.append_instant(&[]).unwrap();
            app.finish_growth(base).unwrap()
        };

        let base = store.reader();
        let before = Arc::as_ptr(&base);
        let growth = append(&base);
        store.grow_reader(base, &growth).unwrap();
        assert_eq!(Arc::as_ptr(&store.reader()), before, "grown in place");

        let held = store.reader();
        let growth = append(&held);
        store.grow_reader(held.clone(), &growth).unwrap();
        assert_eq!(held.len(), 14, "the held snapshot is unchanged");
        assert!(!Arc::ptr_eq(&held, &store.reader()), "a grown copy");

        let reopened = ColumnarReader::open(&path).unwrap();
        let grown = store.reader();
        assert_eq!(grown.len(), 16);
        assert_eq!(grown.fingerprint(), reopened.fingerprint());
        assert_eq!(grown.view(), reopened.view());
        assert_eq!(reg.reverify_all(), 0, "the file is byte-for-byte the load");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn with_index_catches_up_after_growth() {
        let path = sample_store("index");
        let reg = StoreRegistry::open(&[&path]).unwrap();
        let store = reg.iter().next().unwrap();
        store.with_index(2, |idx| assert_eq!(idx.appended_segments(), 6));

        let mut app = ColumnarAppender::open(&path).unwrap();
        let alpha = store.reader().catalog().get("alpha").unwrap();
        for _ in 0..4 {
            app.append_instant(&[alpha]).unwrap();
        }
        app.finish().unwrap();
        assert_eq!(reg.reverify_all(), 0);

        // The same index object absorbed exactly the two new segments.
        store.with_index(2, |idx| {
            assert_eq!(idx.appended_segments(), 8);
            assert!(idx.dirty_words() > 0, "new segments left dirty words");
        });
        std::fs::remove_file(path).ok();
    }

    /// The invariant the `append` op's cache judgment relies on: while
    /// one thread holds the index guard (as append does across reader
    /// swap + catch-up + cache rekey), a concurrent [`Store::with_index`]
    /// cannot catch an index up — so it can never clean the dirty state
    /// between append's swap and append's judgment.
    #[test]
    fn with_index_serializes_against_a_held_index_guard() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let path = sample_store("guard");
        let reg = Arc::new(StoreRegistry::open(&[&path]).unwrap());

        // Simulate append's critical section: hold the guard, swap in a
        // grown reader, and only then let the concurrent query through.
        let mut app = ColumnarAppender::open(&path).unwrap();
        let alpha = reg
            .iter()
            .next()
            .unwrap()
            .reader()
            .catalog()
            .get("alpha")
            .unwrap();
        app.append_instant(&[alpha]).unwrap();
        app.append_instant(&[alpha]).unwrap();
        app.finish().unwrap();
        let grown = ColumnarReader::open(&path).unwrap();

        let store = reg.iter().next().unwrap();
        store.with_index(2, |idx| assert_eq!(idx.appended_segments(), 6));

        let guard = store.indexes();
        let entered = Arc::new(AtomicBool::new(false));
        let query = {
            let reg = reg.clone();
            let entered = entered.clone();
            std::thread::spawn(move || {
                let store = reg.iter().next().unwrap();
                store.with_index(2, |idx| {
                    entered.store(true, Ordering::SeqCst);
                    idx.appended_segments()
                })
            })
        };
        store.swap_reader(grown);
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert!(
            !entered.load(Ordering::SeqCst),
            "with_index must block while the index guard is held"
        );
        drop(guard);
        // Once released, the query proceeds and sees the grown store.
        assert_eq!(query.join().unwrap(), 7);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn index_table_is_a_bounded_lru_over_periods() {
        let path = sample_store("lru");
        let reg = StoreRegistry::open(&[&path]).unwrap();
        let store = reg.iter().next().unwrap();

        // Fill the table to its cap, then touch the first period so it
        // is most-recently used.
        for period in 1..=MAX_LIVE_INDEXES {
            store.with_index(period, |_| ());
        }
        let (live, bytes) = store.index_stats();
        assert_eq!(live, MAX_LIVE_INDEXES);
        assert!(bytes > 0, "resident indexes hold bitmap bytes");
        store.with_index(1, |idx| assert_eq!(idx.period(), 1));

        // One more distinct period evicts the least-recently used
        // (period 2 — period 1 was just touched), not the table's size.
        store.with_index(MAX_LIVE_INDEXES + 1, |_| ());
        let indexes = store.indexes();
        assert_eq!(indexes.len(), MAX_LIVE_INDEXES);
        assert!(indexes.get(1).is_some(), "recently-used survives");
        assert!(indexes.get(2).is_none(), "least-recently-used evicted");
        assert!(indexes.get(MAX_LIVE_INDEXES + 1).is_some());
        drop(indexes);

        // A re-query of the evicted period simply rebuilds it.
        store.with_index(2, |idx| assert_eq!(idx.appended_segments(), 6));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn duplicate_names_and_missing_files_fail_fast() {
        let path = sample_store("dup");
        let err = StoreRegistry::open(&[&path, &path]).unwrap_err();
        assert!(err.contains("duplicate store name"), "{err}");
        let err = StoreRegistry::open(&["/nonexistent/missing.ppmc"]).unwrap_err();
        assert!(err.contains("cannot open store"), "{err}");
        let empty: [&str; 0] = [];
        let err = StoreRegistry::open(&empty).unwrap_err();
        assert!(err.contains("no stores"), "{err}");
        std::fs::remove_file(path).ok();
    }
}
