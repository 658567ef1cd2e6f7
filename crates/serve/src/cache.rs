//! The crash-safe result cache: mined answers keyed by
//! `(store fingerprint, period, min_conf)`, persisted with the
//! checksummed atomic-publish discipline, exploiting anti-monotonicity to
//! answer *stricter* queries from *looser* cached results.
//!
//! The key names an answer, not the engine that mined it: the two-scan
//! engines (hit set, vertical, and the daemon's live vertical index)
//! return the same rows, counts and scan count (Property 3.1, enforced by
//! the audit cross-check), so one entry answers all of them. Apriori's
//! echoed scan count depends on the threshold, so the daemon never
//! caches its answers.
//!
//! ## The anti-monotonicity rule
//!
//! A pattern is frequent at confidence `c` iff its segment count reaches
//! `min_count(c) = max(1, ceil(c · m))` over `m` segments, and
//! `min_count` is monotone in `c`. A cached result mined at `c_lo`
//! therefore contains a superset of every result at `c_hi ≥ c_lo` for the
//! same `(fingerprint, period)`: filtering its rows by
//! `count ≥ min_count(c_hi)` reproduces the direct mine *bit-identically*,
//! because rows are stored in the canonical report order (pattern length
//! desc, count desc) which filtering preserves. The daemon caches only
//! two-scan answers, so the echoed `scans` field matches too.
//!
//! ## Surviving appends
//!
//! An append changes the store fingerprint, which would strand every
//! entry. [`ResultCache::rekey_store`] lets the daemon migrate entries to
//! the new fingerprint selectively instead of dropping them all: a
//! caller-supplied policy inspects each old-fingerprint entry and either
//! re-keys it (optionally bumping the echoed segment count) or drops it.
//! The daemon's policy keeps an entry only when the frequent set is
//! *provably* unchanged — see the `append` op.
//!
//! ## Crash safety
//!
//! The file is line-oriented: a magic header, then one `entry <fnv16hex>
//! <json>` line per cached result, each line's checksum covering its own
//! JSON. Saves go through a same-directory temp file + fsync + atomic
//! rename + parent-dir fsync. On load, a damaged line is *rejected by
//! name* (the offending line number and, when parseable, its key are
//! reported) while intact entries survive — a torn tail after `kill -9`
//! costs at most the entry being written, never the warm cache. Files
//! written when entries were keyed by engine still load: a `hitset`,
//! `vertical` or `incremental` line loads into its shape's one entry, and
//! an `apriori` line is rejected like any other line the cache cannot use.
//!
//! ## Bounded growth
//!
//! The cache is capped by entry count *and* by approximate resident
//! bytes ([`CacheLimits`]). Past either cap, inserts evict via
//! second-chance (clock): a lookup that answered from an entry — exact
//! hit or anti-monotone donor — sets its referenced bit; the clock hand
//! gives each referenced entry one more round before evicting it.
//! Eviction rewrites the file through the same temp + atomic-rename
//! publish as every save, so `kill -9` mid-evict leaves either the old
//! complete file or the new complete file, never a hybrid.

use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ppm_core::MineConfig;
use ppm_observe::json::escaped_len;
use ppm_observe::Json;
use ppm_timeseries::fnv64;

const MAGIC: &str = "ppm-serve-cache v1";

/// A cache key. Confidence is keyed by its exact bit pattern — two
/// requests hit the same entry only when they asked for the same `f64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// The store's content fingerprint.
    pub fingerprint: u64,
    /// Mining period.
    pub period: usize,
    /// `min_conf.to_bits()`.
    pub conf_bits: u64,
}

impl CacheKey {
    fn conf(&self) -> f64 {
        f64::from_bits(self.conf_bits)
    }

    fn describe(&self) -> String {
        format!(
            "fp={:016x} period={} conf={}",
            self.fingerprint,
            self.period,
            self.conf()
        )
    }
}

/// One cached pattern row, in canonical report order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedRow {
    /// The rendered pattern (catalog names are fixed per fingerprint).
    pub display: String,
    /// Number of letters in the pattern (the primary sort key).
    pub letters: usize,
    /// Segment count of the pattern.
    pub count: u64,
}

/// A cached mining answer: everything a `mine` response needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResult {
    /// Segments the period divided the series into.
    pub segment_count: usize,
    /// Physical series scans the original mine performed.
    pub scans: usize,
    /// Every frequent pattern, sorted (letters desc, count desc).
    pub rows: Vec<CachedRow>,
}

/// The per-entry verdict a [`ResultCache::rekey_store`] policy returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rekey {
    /// Discard the entry: the append may have changed its answer.
    Drop,
    /// Migrate the entry to the new fingerprint; `segment_count` is the
    /// grown store's whole-segment count, which the entry echoes from now
    /// on (its rows are provably identical to a fresh mine).
    Keep {
        /// The segment count the re-keyed entry reports.
        segment_count: usize,
    },
}

/// How a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The exact key was cached.
    Hit,
    /// Derived from a lower-confidence entry by anti-monotone filtering.
    Derived,
    /// Not answerable from cache.
    Miss,
}

/// Counters the daemon's `stats` op exposes.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Exact-key hits.
    pub hits: u64,
    /// Anti-monotone derivations.
    pub derived: u64,
    /// Lookups that had to mine.
    pub misses: u64,
    /// Entries rejected as damaged at load time.
    pub rejected: u64,
    /// Entries evicted by the second-chance bound.
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
    /// Approximate resident bytes (serialized entry sizes).
    pub bytes: usize,
}

/// The growth bounds the cache enforces on every insert (and at load).
#[derive(Debug, Clone, Copy)]
pub struct CacheLimits {
    /// Maximum live entries; 0 disables caching entirely.
    pub max_entries: usize,
    /// Maximum approximate resident bytes (serialized entry sizes).
    pub max_bytes: usize,
}

impl Default for CacheLimits {
    fn default() -> Self {
        CacheLimits {
            max_entries: 1024,
            max_bytes: 16 << 20,
        }
    }
}

/// One resident entry plus its second-chance bookkeeping.
#[derive(Debug)]
struct Entry {
    key: CacheKey,
    /// Shared with every response built from it: a hit clones the pointer.
    value: Arc<CachedResult>,
    /// Serialized size, charged against [`CacheLimits::max_bytes`].
    bytes: usize,
    /// Second-chance bit: set when the entry answered a lookup (exact hit
    /// or anti-monotone donor), cleared when the clock hand passes it.
    referenced: bool,
}

/// The cache proper. All mutation goes through [`Self::insert`], which
/// persists immediately when a backing path is configured.
#[derive(Debug)]
pub struct ResultCache {
    path: Option<PathBuf>,
    entries: Vec<Entry>,
    limits: CacheLimits,
    /// The second-chance clock hand (index into `entries`).
    hand: usize,
    hits: u64,
    derived: u64,
    misses: u64,
    rejected: u64,
    evictions: u64,
}

impl ResultCache {
    /// An in-memory cache (no persistence) with default limits.
    pub fn in_memory() -> Self {
        Self::in_memory_with_limits(CacheLimits::default())
    }

    /// An in-memory cache with explicit growth bounds.
    pub fn in_memory_with_limits(limits: CacheLimits) -> Self {
        ResultCache {
            path: None,
            entries: Vec::new(),
            limits,
            hand: 0,
            hits: 0,
            derived: 0,
            misses: 0,
            rejected: 0,
            evictions: 0,
        }
    }

    /// Opens (or initializes) a persistent cache at `path` with default
    /// limits. See [`Self::open_with_limits`].
    pub fn open(path: impl AsRef<Path>) -> Self {
        Self::open_with_limits(path, CacheLimits::default())
    }

    /// Opens (or initializes) a persistent cache at `path`. A missing file
    /// starts empty; a present file is loaded entry by entry, rejecting
    /// damaged lines by name while keeping every intact one. A file that
    /// outgrew the configured limits (say, after a config change) is
    /// trimmed back under them immediately.
    pub fn open_with_limits(path: impl AsRef<Path>, limits: CacheLimits) -> Self {
        let path = path.as_ref().to_path_buf();
        let mut cache = ResultCache {
            path: Some(path.clone()),
            entries: Vec::new(),
            limits,
            hand: 0,
            hits: 0,
            derived: 0,
            misses: 0,
            rejected: 0,
            evictions: 0,
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => return cache,
        };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, first)) if first == MAGIC => {}
            _ => {
                ppm_observe::mark("serve.cache.rejected", || {
                    format!("cache {} has a bad header; starting cold", path.display())
                });
                cache.rejected += 1;
                return cache;
            }
        }
        for (lineno, line) in lines {
            if line.is_empty() {
                continue;
            }
            match Self::parse_entry(line) {
                Ok((key, value)) => {
                    // Files keyed by engine hold one line per engine for
                    // a shape; the last one stands for all of them.
                    cache.entries.retain(|e| e.key != key);
                    let bytes = Self::entry_bytes(&key, &value);
                    cache.entries.push(Entry {
                        key,
                        value: Arc::new(value),
                        bytes,
                        referenced: false,
                    });
                }
                Err(why) => {
                    cache.rejected += 1;
                    ppm_observe::mark("serve.cache.rejected", || {
                        format!("cache line {}: {why}", lineno + 1)
                    });
                }
            }
        }
        // A file written under looser limits must come back under ours.
        if cache.over_limit() {
            cache.evict_to_limit();
            cache.flush();
        }
        cache
    }

    /// Parses one `entry <fnv16hex> <json>` line.
    fn parse_entry(line: &str) -> Result<(CacheKey, CachedResult), String> {
        let rest = line
            .strip_prefix("entry ")
            .ok_or_else(|| format!("unrecognized line {line:?}"))?;
        let (sum_hex, json_text) = rest
            .split_once(' ')
            .ok_or_else(|| "missing checksum separator".to_owned())?;
        let stored = u64::from_str_radix(sum_hex, 16).map_err(|_| "bad checksum hex".to_owned())?;
        if fnv64(json_text.as_bytes()) != stored {
            // Name the damaged entry when its key is still readable.
            let named = Json::parse(json_text)
                .ok()
                .and_then(|j| Self::json_key(&j).ok())
                .map(|k| k.describe())
                .unwrap_or_else(|| "unreadable key".to_owned());
            return Err(format!("checksum mismatch, rejecting entry ({named})"));
        }
        let json = Json::parse(json_text).map_err(|e| format!("bad entry JSON: {e}"))?;
        let key = Self::json_key(&json)?;
        let segment_count = json
            .get("segments")
            .and_then(Json::as_u64)
            .ok_or("missing segments")? as usize;
        let scans = json
            .get("scans")
            .and_then(Json::as_u64)
            .ok_or("missing scans")? as usize;
        let rows = json
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("missing rows")?
            .iter()
            .map(|row| {
                let arr = row
                    .as_arr()
                    .filter(|a| a.len() == 3)
                    .ok_or("malformed row")?;
                Ok(CachedRow {
                    display: arr[0]
                        .as_str()
                        .ok_or("row display not a string")?
                        .to_owned(),
                    letters: arr[1].as_u64().ok_or("row letters not a number")? as usize,
                    count: arr[2].as_u64().ok_or("row count not a number")?,
                })
            })
            .collect::<Result<Vec<_>, &str>>()
            .map_err(str::to_owned)?;
        Ok((
            key,
            CachedResult {
                segment_count,
                scans,
                rows,
            },
        ))
    }

    fn json_key(json: &Json) -> Result<CacheKey, String> {
        // Older files name the engine that mined each entry. A two-scan
        // engine's answer is the shared entry; Apriori's scan count
        // depends on the threshold, so its line cannot answer.
        if let Some(engine) = json.get("engine") {
            if !matches!(engine.as_str(), Some("hitset" | "vertical" | "incremental")) {
                return Err(format!("engine {} answers are not cached", engine.render()));
            }
        }
        let hex = |field: &str| {
            json.get(field)
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("missing hex field {field:?}"))
        };
        Ok(CacheKey {
            fingerprint: hex("fp")?,
            period: json
                .get("period")
                .and_then(Json::as_u64)
                .ok_or("missing period")? as usize,
            conf_bits: hex("conf_bits")?,
        })
    }

    /// Looks up `key`. Exact hits return the entry itself (a pointer
    /// clone); otherwise a cached entry at a *lower* confidence answers
    /// by anti-monotone filtering (see module docs). Counters update
    /// accordingly.
    pub fn lookup(&mut self, key: &CacheKey) -> (Option<Arc<CachedResult>>, CacheOutcome) {
        if let Some(e) = self.entries.iter_mut().find(|e| &e.key == key) {
            e.referenced = true;
            self.hits += 1;
            return (Some(Arc::clone(&e.value)), CacheOutcome::Hit);
        }
        let conf = key.conf();
        // The best donor: the *highest* cached confidence not above the
        // query's, so the filter discards as little as possible.
        let donor = self
            .entries
            .iter_mut()
            .filter(|e| {
                e.key.fingerprint == key.fingerprint
                    && e.key.period == key.period
                    && e.key.conf() <= conf
            })
            .max_by(|a, b| a.key.conf().total_cmp(&b.key.conf()));
        match (donor, MineConfig::new(conf)) {
            (Some(e), Ok(config)) => {
                e.referenced = true;
                let min_count = config.min_count(e.value.segment_count);
                let rows = e.value.rows.iter().filter(|r| r.count >= min_count);
                let derived = CachedResult {
                    rows: rows.cloned().collect(),
                    ..*e.value
                };
                self.derived += 1;
                (Some(Arc::new(derived)), CacheOutcome::Derived)
            }
            _ => {
                self.misses += 1;
                (None, CacheOutcome::Miss)
            }
        }
    }

    /// Inserts (or replaces) an entry, evicts past the configured bounds
    /// (second-chance), and persists the cache when backed by a file.
    /// Persistence failures are reported as a mark, not an error — the
    /// cache is an accelerator, never a correctness gate.
    pub fn insert(&mut self, key: CacheKey, value: Arc<CachedResult>) {
        if self.limits.max_entries == 0 {
            return;
        }
        self.entries.retain(|e| e.key != key);
        let bytes = Self::entry_bytes(&key, &value);
        // A fresh entry starts referenced: it survives the first clock
        // sweep its own insert triggers, so inserting can never evict the
        // entry being inserted while older unreferenced ones remain.
        self.entries.push(Entry {
            key,
            value,
            bytes,
            referenced: true,
        });
        if self.over_limit() {
            self.evict_to_limit();
        }
        self.flush();
    }

    fn resident_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    fn over_limit(&self) -> bool {
        self.entries.len() > self.limits.max_entries
            || self.resident_bytes() > self.limits.max_bytes
    }

    /// Second-chance (clock) eviction down to the configured bounds. The
    /// hand sweeps the entry list; a referenced entry spends its bit and
    /// survives the round, an unreferenced one is evicted. Terminates
    /// because every sweep either evicts or clears a bit.
    fn evict_to_limit(&mut self) {
        while self.over_limit() && !self.entries.is_empty() {
            if self.hand >= self.entries.len() {
                self.hand = 0;
            }
            if self.entries[self.hand].referenced {
                self.entries[self.hand].referenced = false;
                self.hand += 1;
            } else {
                let victim = self.entries.remove(self.hand);
                self.evictions += 1;
                ppm_observe::counter("serve.cache.evictions", 1);
                ppm_observe::mark("serve.cache.evicted", || {
                    format!("evicted {} ({} bytes)", victim.key.describe(), victim.bytes)
                });
            }
        }
    }

    /// Migrates every entry keyed on `old_fp` after an append published
    /// `new_fp`. `decide` rules each entry individually: [`Rekey::Keep`]
    /// moves it under the new fingerprint (stamping the segment count the
    /// grown store reports), [`Rekey::Drop`] discards it. Returns
    /// `(kept, dropped)`; the file is republished once at the end.
    pub fn rekey_store(
        &mut self,
        old_fp: u64,
        new_fp: u64,
        mut decide: impl FnMut(&CacheKey, &CachedResult) -> Rekey,
    ) -> (usize, usize) {
        let mut kept = 0usize;
        let mut dropped = 0usize;
        self.entries.retain_mut(|e| {
            if e.key.fingerprint != old_fp {
                return true;
            }
            match decide(&e.key, &e.value) {
                Rekey::Drop => {
                    dropped += 1;
                    false
                }
                Rekey::Keep { segment_count } => {
                    e.key.fingerprint = new_fp;
                    Arc::make_mut(&mut e.value).segment_count = segment_count;
                    e.bytes = Self::entry_bytes(&e.key, &e.value);
                    kept += 1;
                    true
                }
            }
        });
        if kept + dropped > 0 {
            self.flush();
        }
        (kept, dropped)
    }

    /// Writes the cache file atomically (no-op for in-memory caches).
    pub fn flush(&self) {
        let Some(path) = &self.path else { return };
        if let Err(e) = self.save_to(path) {
            ppm_observe::mark("serve.cache.save_failed", || {
                format!("cache save to {} failed: {e}", path.display())
            });
        }
    }

    fn save_to(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(1024);
        text.push_str(MAGIC);
        text.push('\n');
        for e in &self.entries {
            let json = Self::entry_json(&e.key, &e.value).render();
            let _ = writeln!(text, "entry {:016x} {json}", fnv64(json.as_bytes()));
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        if let Err(e) = std::fs::rename(&tmp, path) {
            std::fs::remove_file(&tmp).ok();
            return Err(e);
        }
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                d.sync_all().ok();
            }
        }
        Ok(())
    }

    fn entry_json(key: &CacheKey, value: &CachedResult) -> Json {
        Json::Obj(vec![
            (
                "fp".to_owned(),
                Json::Str(format!("{:016x}", key.fingerprint)),
            ),
            ("period".to_owned(), Json::from_usize(key.period)),
            (
                "conf_bits".to_owned(),
                Json::Str(format!("{:016x}", key.conf_bits)),
            ),
            ("segments".to_owned(), Json::from_usize(value.segment_count)),
            ("scans".to_owned(), Json::from_usize(value.scans)),
            (
                "rows".to_owned(),
                Json::Arr(
                    value
                        .rows
                        .iter()
                        .map(|r| {
                            Json::Arr(vec![
                                Json::Str(r.display.clone()),
                                Json::from_usize(r.letters),
                                Json::from_u64(r.count),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The length of `entry_json(key, value).render()` — the size charged
    /// against [`CacheLimits::max_bytes`] — counted without building or
    /// rendering the JSON tree.
    fn entry_bytes(key: &CacheKey, value: &CachedResult) -> usize {
        // Everything but the values: the two hex fields are 16 digits each.
        const FRAME: &str = r#"{"fp":"","period":,"conf_bits":"","segments":,"scans":,"rows":[]}"#;
        let rows: usize = value
            .rows
            .iter()
            .map(|r| {
                // `[display,letters,count]`
                4 + escaped_len(&r.display) + num_len(r.letters as u64) + num_len(r.count)
            })
            .sum();
        FRAME.len()
            + 2 * 16
            + num_len(key.period as u64)
            + num_len(value.segment_count as u64)
            + num_len(value.scans as u64)
            + rows
            + value.rows.len().saturating_sub(1)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            derived: self.derived,
            misses: self.misses,
            rejected: self.rejected,
            evictions: self.evictions,
            entries: self.entries.len(),
            bytes: self.resident_bytes(),
        }
    }
}

/// The rendered length of [`Json::from_u64`]`(v)`: its decimal digits up
/// to 2⁵³, where a JSON number is still an exact integer.
fn num_len(v: u64) -> usize {
    if v <= 1 << 53 {
        v.checked_ilog10().map_or(1, |d| d as usize + 1)
    } else {
        Json::from_u64(v).render().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(conf: f64) -> CacheKey {
        CacheKey {
            fingerprint: 0xabcd,
            period: 3,
            conf_bits: conf.to_bits(),
        }
    }

    fn sample_value() -> Arc<CachedResult> {
        Arc::new(CachedResult {
            segment_count: 10,
            scans: 2,
            rows: vec![
                CachedRow {
                    display: "a b".into(),
                    letters: 2,
                    count: 5,
                },
                CachedRow {
                    display: "a *".into(),
                    letters: 1,
                    count: 9,
                },
                CachedRow {
                    display: "* b".into(),
                    letters: 1,
                    count: 5,
                },
            ],
        })
    }

    fn temp(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("ppm-serve-cache-{}-{tag}-{n}", std::process::id()))
    }

    /// The byte size charged for an entry is its rendered length, for
    /// names that need JSON escapes and numbers past exact `f64` range too.
    #[test]
    fn entry_bytes_equals_the_rendered_length() {
        let names = [
            "",
            "a {b,c} *",
            "quo\"te",
            "back\\slash",
            "new\nline\r\t",
            "ctl\u{1}\u{1f}",
            "caf\u{e9} \u{65e5}\u{672c} \u{1f600}",
        ];
        let counts = [0, 9, 10, 1 << 53, (1 << 53) + 1, u64::MAX];
        for i in 0..3 {
            let key = CacheKey {
                fingerprint: i as u64,
                period: 10usize.pow(i as u32),
                conf_bits: (0.1 * i as f64).to_bits(),
            };
            let rows = names
                .iter()
                .zip(counts.iter().cycle().skip(i))
                .map(|(name, &count)| CachedRow {
                    display: name.to_string(),
                    letters: count as usize,
                    count,
                })
                .take(i + 1)
                .collect();
            for value in [
                CachedResult {
                    segment_count: 0,
                    scans: 0,
                    rows: Vec::new(),
                },
                CachedResult {
                    segment_count: 123_456,
                    scans: 2,
                    rows,
                },
            ] {
                let rendered = ResultCache::entry_json(&key, &value).render().len();
                assert_eq!(
                    ResultCache::entry_bytes(&key, &value),
                    rendered,
                    "{value:?}"
                );
            }
        }
    }

    #[test]
    fn exact_hits_and_misses() {
        let mut c = ResultCache::in_memory();
        assert_eq!(c.lookup(&key(0.5)).1, CacheOutcome::Miss);
        c.insert(key(0.5), sample_value());
        let (got, outcome) = c.lookup(&key(0.5));
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(got.unwrap(), sample_value());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn higher_confidence_derives_by_filtering() {
        let mut c = ResultCache::in_memory();
        c.insert(key(0.4), sample_value());
        // min_count(0.9, 10) = 9: only the count-9 row survives.
        let (got, outcome) = c.lookup(&key(0.9));
        assert_eq!(outcome, CacheOutcome::Derived);
        let got = got.unwrap();
        assert_eq!(got.rows.len(), 1);
        assert_eq!(got.rows[0].display, "a *");
        assert_eq!(got.scans, 2, "scans echo the donor entry");
        // Lower confidence than any cached entry cannot be derived.
        assert_eq!(c.lookup(&key(0.1)).1, CacheOutcome::Miss);
    }

    /// Writes a cache file the way files keyed by engine did: one entry
    /// per `(engine, conf)` at the sample shape, each line re-sealed.
    fn engine_keyed_file(tag: &str, entries: &[(&str, f64)]) -> PathBuf {
        let path = temp(tag);
        {
            let mut c = ResultCache::open(&path);
            for &(_, conf) in entries {
                c.insert(key(conf), sample_value());
            }
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        for (line, &(engine, _)) in lines[1..].iter_mut().zip(entries) {
            let json = line.splitn(3, ' ').nth(2).unwrap();
            let tag = format!("\"engine\":\"{engine}\",\"segments\":");
            let json = json.replace("\"segments\":", &tag);
            *line = format!("entry {:016x} {json}", fnv64(json.as_bytes()));
        }
        std::fs::write(&path, lines.join("\n")).unwrap();
        path
    }

    /// An Apriori entry never donates: its scan count depends on the
    /// threshold it was mined at, so an engine-keyed file's Apriori line
    /// answers no key at all, while the two-scan entry beside it answers
    /// its exact key and derives only above its own confidence.
    #[test]
    fn apriori_entries_only_answer_exact_keys() {
        let path = engine_keyed_file("apriori", &[("apriori", 0.4), ("hitset", 0.6)]);
        let mut c = ResultCache::open(&path);
        assert_eq!((c.stats().entries, c.stats().rejected), (1, 1));
        assert_eq!(c.lookup(&key(0.4)).1, CacheOutcome::Miss);
        assert_eq!(
            c.lookup(&key(0.5)).1,
            CacheOutcome::Miss,
            "no Apriori donor"
        );
        assert_eq!(c.lookup(&key(0.6)).1, CacheOutcome::Hit);
        assert_eq!(c.lookup(&key(0.9)).1, CacheOutcome::Derived);
        std::fs::remove_file(path).ok();
    }

    /// An entry the daemon's live index mined loads as the shape's one
    /// entry and donates stricter answers like any two-scan entry.
    #[test]
    fn incremental_entries_donate_anti_monotone_answers() {
        let path = engine_keyed_file("incremental", &[("incremental", 0.4)]);
        let mut c = ResultCache::open(&path);
        assert_eq!((c.stats().entries, c.stats().rejected), (1, 0));
        assert_eq!(c.lookup(&key(0.4)).1, CacheOutcome::Hit);
        let (got, outcome) = c.lookup(&key(0.9));
        assert_eq!(outcome, CacheOutcome::Derived);
        assert_eq!(got.unwrap().rows.len(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rekey_store_migrates_selectively_and_spares_other_stores() {
        let path = temp("rekey");
        let mut c = ResultCache::open(&path);
        c.insert(key(0.5), sample_value());
        let mut other = key(0.5);
        other.period = 4;
        c.insert(other, sample_value());
        let mut foreign = key(0.5);
        foreign.fingerprint = 0x1111;
        c.insert(foreign.clone(), sample_value());

        let (kept, dropped) = c.rekey_store(0xabcd, 0xbeef, |k, v| {
            assert_eq!(v.segment_count, 10);
            if k.period == 3 {
                Rekey::Keep { segment_count: 11 }
            } else {
                Rekey::Drop
            }
        });
        assert_eq!((kept, dropped), (1, 1));
        assert_eq!(c.lookup(&key(0.5)).1, CacheOutcome::Miss, "old key gone");
        let mut moved = key(0.5);
        moved.fingerprint = 0xbeef;
        let (got, outcome) = c.lookup(&moved);
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(got.unwrap().segment_count, 11, "segment count bumped");
        assert_eq!(c.lookup(&foreign).1, CacheOutcome::Hit, "other store kept");
        drop(c);

        // The migration was persisted in one republish.
        let mut c = ResultCache::open(&path);
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.lookup(&moved).1, CacheOutcome::Hit);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn persists_and_reloads() {
        let path = temp("reload");
        {
            let mut c = ResultCache::open(&path);
            c.insert(key(0.5), sample_value());
        }
        let mut c = ResultCache::open(&path);
        let (got, outcome) = c.lookup(&key(0.5));
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(got.unwrap(), sample_value());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn damaged_entries_are_rejected_by_name_and_the_rest_survive() {
        let path = temp("damaged");
        {
            let mut c = ResultCache::open(&path);
            c.insert(key(0.5), sample_value());
            let mut other = key(0.7);
            other.period = 4;
            c.insert(other, sample_value());
        }
        // Corrupt the second entry's JSON tail.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        assert_eq!(lines.len(), 3);
        let n = lines[2].len();
        lines[2].replace_range(n - 3..n, "!!!");
        std::fs::write(&path, lines.join("\n")).unwrap();

        let mut c = ResultCache::open(&path);
        assert_eq!(c.stats().rejected, 1);
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.lookup(&key(0.5)).1, CacheOutcome::Hit);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unknown_engine_lines_are_rejected_by_line_number() {
        let path = temp("engine");
        {
            let mut c = ResultCache::open(&path);
            c.insert(key(0.5), sample_value());
            let mut other = key(0.7);
            other.period = 4;
            c.insert(other, sample_value());
        }
        // Name an unknown engine in the first entry, the way files keyed
        // by engine did, and re-seal its checksum, so only the engine name
        // is wrong.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let json = lines[1].splitn(3, ' ').nth(2).unwrap();
        let json = json.replace("\"segments\":", "\"engine\":\"parallel\",\"segments\":");
        lines[1] = format!("entry {:016x} {json}", fnv64(json.as_bytes()));
        std::fs::write(&path, lines.join("\n")).unwrap();

        let collector = std::sync::Arc::new(ppm_observe::Collector::new());
        let c = {
            let _guard = ppm_observe::install(collector.clone());
            ResultCache::open(&path)
        };
        assert_eq!(c.stats().rejected, 1);
        assert_eq!(c.stats().entries, 1);
        let named = collector.events().iter().any(|e| {
            matches!(e, ppm_observe::Event::Mark { name: "serve.cache.rejected", detail, .. }
                if detail.starts_with("cache line 2:") && detail.contains("\"parallel\""))
        });
        assert!(named, "{:?}", collector.events());
        std::fs::remove_file(path).ok();
    }

    /// A cache file keyed by engine (one line per engine at one shape)
    /// still loads: its three two-scan lines collapse into the shape's one
    /// entry, which answers exactly and derives stricter answers, and its
    /// Apriori line is rejected by line number.
    #[test]
    fn cache_file_with_string_engines_still_answers() {
        let path = temp("v1");
        std::fs::write(&path, include_str!("../testdata/engine-names-v1.ppmcache")).unwrap();
        let collector = std::sync::Arc::new(ppm_observe::Collector::new());
        let mut c = {
            let _guard = ppm_observe::install(collector.clone());
            ResultCache::open(&path)
        };
        assert_eq!(c.stats().rejected, 1);
        assert_eq!(c.stats().entries, 1);
        let named = collector.events().iter().any(|e| {
            matches!(e, ppm_observe::Event::Mark { name: "serve.cache.rejected", detail, .. }
                if detail.starts_with("cache line 3:") && detail.contains("\"apriori\""))
        });
        assert!(named, "{:?}", collector.events());
        let at = |conf: f64| CacheKey {
            fingerprint: 0x0016_9eea_5326_9749,
            period: 6,
            conf_bits: conf.to_bits(),
        };
        let (got, outcome) = c.lookup(&at(0.8));
        assert_eq!(outcome, CacheOutcome::Hit);
        let got = got.unwrap();
        assert_eq!((got.rows.len(), got.scans), (7, 2));
        assert_eq!(c.lookup(&at(0.9)).1, CacheOutcome::Derived);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn torn_tail_after_a_crash_keeps_the_prefix() {
        let path = temp("torn");
        {
            let mut c = ResultCache::open(&path);
            c.insert(key(0.5), sample_value());
            c.insert(key(0.6), sample_value());
        }
        let bytes = std::fs::read(&path).unwrap();
        // Simulate kill -9 mid-write: truncate at every byte; the loader
        // must never panic and always keep the intact prefix entries.
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let c = ResultCache::open(&path);
            assert!(c.stats().entries <= 2, "cut {cut}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_starts_cold() {
        let c = ResultCache::open(temp("missing"));
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().rejected, 0);
    }

    fn limits(max_entries: usize, max_bytes: usize) -> CacheLimits {
        CacheLimits {
            max_entries,
            max_bytes,
        }
    }

    #[test]
    fn entry_cap_is_enforced_on_every_insert() {
        let mut c = ResultCache::in_memory_with_limits(limits(3, usize::MAX));
        for period in 1..=10usize {
            let mut k = key(0.5);
            k.period = period;
            c.insert(k, sample_value());
            assert!(c.stats().entries <= 3, "after period {period}");
        }
        let s = c.stats();
        assert_eq!(s.entries, 3);
        assert_eq!(s.evictions, 7);
    }

    #[test]
    fn byte_cap_is_enforced_too() {
        let one_entry_bytes = {
            let mut c = ResultCache::in_memory();
            c.insert(key(0.5), sample_value());
            c.stats().bytes
        };
        // Room for two entries, not three.
        let mut c = ResultCache::in_memory_with_limits(limits(100, one_entry_bytes * 2 + 1));
        for period in 1..=5usize {
            let mut k = key(0.5);
            k.period = period;
            c.insert(k, sample_value());
        }
        let s = c.stats();
        assert!(s.entries <= 2, "{s:?}");
        assert!(s.bytes <= one_entry_bytes * 2 + 1, "{s:?}");
        assert!(s.evictions >= 3, "{s:?}");
    }

    #[test]
    fn second_chance_keeps_the_recently_answered_entry() {
        let mut c = ResultCache::in_memory_with_limits(limits(2, usize::MAX));
        let mut hot = key(0.5);
        hot.period = 1;
        let mut cold = key(0.5);
        cold.period = 2;
        c.insert(hot.clone(), sample_value());
        c.insert(cold.clone(), sample_value());
        // Spend both insert-time bits so only the lookup below re-arms one.
        c.entries.iter_mut().for_each(|e| e.referenced = false);
        assert_eq!(c.lookup(&hot).1, CacheOutcome::Hit);
        let mut third = key(0.5);
        third.period = 3;
        c.insert(third.clone(), sample_value());
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.lookup(&hot).1, CacheOutcome::Hit, "hot entry survived");
        assert_eq!(c.lookup(&third).1, CacheOutcome::Hit, "new entry resident");
        assert_eq!(c.lookup(&cold).1, CacheOutcome::Miss, "cold entry evicted");
    }

    #[test]
    fn zero_entry_limit_disables_caching() {
        let mut c = ResultCache::in_memory_with_limits(limits(0, usize::MAX));
        c.insert(key(0.5), sample_value());
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.lookup(&key(0.5)).1, CacheOutcome::Miss);
    }

    #[test]
    fn oversized_file_is_trimmed_at_load_and_eviction_is_crash_safe() {
        let path = temp("trim");
        {
            let mut c = ResultCache::open(&path);
            for period in 1..=6usize {
                let mut k = key(0.5);
                k.period = period;
                c.insert(k, sample_value());
            }
        }
        // Reopen under a tighter bound: trimmed immediately, and the
        // trimmed file is republished atomically.
        let c = ResultCache::open_with_limits(&path, limits(2, usize::MAX));
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.stats().evictions, 4);
        drop(c);
        // Simulate kill -9 at every byte of the post-evict publish: the
        // surviving file is always a loadable prefix within the bound.
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let c = ResultCache::open_with_limits(&path, limits(2, usize::MAX));
            assert!(c.stats().entries <= 2, "cut {cut}");
        }
        std::fs::remove_file(path).ok();
    }
}
