//! The binary columnar series store (`.ppmc`): an on-disk layout that *is*
//! the [`EncodedSeries`] layout.
//!
//! Every text or block-binary mine re-parses its input, rebuilds the CSR
//! series, and re-packs the per-instant bitmaps before any counting starts.
//! The columnar store skips all of that: the file body is the encoded
//! cache's row-major `u64` words verbatim, so opening a `.ppmc` is one
//! streamed pass — the file goes through one block buffer, and each block
//! is hashed and decoded into a single word vector, with no whole-file
//! byte copy and zero per-row allocation — and the result is borrowed
//! straight out as an [`EncodedSeriesView`] that the vertical engine, the
//! shared multi-period scan, and the audit oracle consume directly.
//!
//! Layout, version 2 (all integers little-endian):
//!
//! ```text
//! offset 0   magic            [u8; 4] = b"PPMC"
//! offset 4   version          u32     = 2
//! offset 8   width            u64     feature-id universe (max id + 1)
//! offset 16  words_per_instant u64    must equal ⌈width/64⌉
//! offset 24  n_names          u32     catalog size
//! offset 28  names            n_names × (u32 len, bytes)
//! …          padding          zero bytes up to a multiple of 8
//! …          words            n_instants × words_per_instant × u64, row-major
//! EOF−16     n_instants       u64     trailer, so appends are O(new rows)
//! EOF−8      checksum         u64     word hash over the u64s of [0, EOF−8)
//! ```
//!
//! The padding makes everything before the checksum a whole number of
//! `u64` words, and the checksum is a four-lane word hash over them (see
//! `WordHash`): any single changed word changes it, and it runs at memory
//! speed where a byte-serial hash cannot. Version 1 — no padding, FNV-1a
//! over the bytes `[0, EOF−8)` — is still read, and an append keeps a
//! store's version.
//!
//! The trailer placement is what makes [`ColumnarAppender`] cheap to
//! *assemble*: every [`ColumnarReader`] keeps the checksum state — a
//! streaming hash — over the bytes before its trailer, so an appender
//! built on a verified load hashes only the `k` appended rows (`O(k)`),
//! and [`ColumnarReader::reload`] checks a grown file by comparing the old
//! prefix byte for byte and resuming the hash over the new rows alone.
//! Publication is still a whole-file rewrite, crash-safe rather than
//! in-place: [`ColumnarAppender::finish`] writes the complete new store to
//! a same-directory temp file, fsyncs it, renames it over the original,
//! and fsyncs the parent directory — so a crash at any byte leaves either
//! the prior store or the fully-appended store on disk, never a torn
//! hybrid (the same publish discipline as the sweep checkpoint).
//!
//! Corruption is rejected with a named byte offset (`Error::Corrupt`), the
//! same policy as the checkpoint and stream-storage formats: a damaged
//! header, a flipped bitmap word, or a truncated trailer must never
//! mis-mine. The header and the trailer's instant count are checked
//! before the words are read, the checksum after.

use std::fs::File;
use std::io::{BufReader, BufWriter, Cursor, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::catalog::{FeatureCatalog, FeatureId};
use crate::encoded::{EncodedSeries, EncodedSeriesView};
use crate::error::{Error, Result};
use crate::series::{FeatureSeries, SeriesBuilder};
use crate::storage::binary::Fnv64;

const MAGIC: &[u8; 4] = b"PPMC";
/// The version [`columnar_bytes`] writes: padded header, word-hash trailer.
const VERSION: u32 = 2;
/// The first version: unpadded header, FNV-1a trailer.
const VERSION_V1: u32 = 1;
/// Fixed header bytes before the catalog names.
const FIXED_HEADER: usize = 4 + 4 + 8 + 8 + 4;
/// Trailer bytes: `n_instants` + checksum.
const TRAILER: usize = 8 + 8;
/// Words per block when a file is streamed (open, validate, compare).
const BLOCK_WORDS: usize = 1 << 16;

/// The version-2 trailer checksum: a resumable hash over little-endian
/// `u64` words, word `i` stepping lane `i mod 4`.
///
/// A step `lane ← rotl((lane ⊕ w) · K, 29)` is a bijection of the word for
/// a fixed lane and of the lane for a fixed word, and [`Self::finish`]
/// folds the lanes in with the same step, so changing any one word always
/// changes the hash. The lanes are independent multiply chains, so the
/// hash keeps up with the read where byte-serial FNV-1a does not.
#[derive(Debug, Clone)]
struct WordHash {
    lanes: [u64; HASH_LANES],
    /// Words hashed so far; the next word steps lane `words mod 4`.
    words: u64,
}

const HASH_LANES: usize = 4;
/// An odd multiplier (2⁶⁴/φ), so multiplying by it is a bijection.
const HASH_K: u64 = 0x9e37_79b9_7f4a_7c15;

impl WordHash {
    fn new() -> Self {
        WordHash {
            lanes: [
                0x243f_6a88_85a3_08d3,
                0x1319_8a2e_0370_7344,
                0xa409_3822_299f_31d0,
                0x082e_fa98_ec4e_6c89,
            ],
            words: 0,
        }
    }

    #[inline]
    fn step(lane: u64, word: u64) -> u64 {
        (lane ^ word).wrapping_mul(HASH_K).rotate_left(29)
    }

    fn push(&mut self, word: u64) {
        let lane = &mut self.lanes[(self.words % HASH_LANES as u64) as usize];
        *lane = Self::step(*lane, word);
        self.words += 1;
    }

    /// Hashes `bytes`, a whole number of little-endian words.
    fn update(&mut self, bytes: &[u8]) {
        assert!(
            bytes.len().is_multiple_of(8),
            "word hash fed a partial word"
        );
        // Single words until the next one is lane 0's, then four at once.
        let lead =
            ((HASH_LANES as u64 - self.words % HASH_LANES as u64) % HASH_LANES as u64) as usize;
        let (head, body) = bytes.split_at((lead * 8).min(bytes.len()));
        le_words(head).for_each(|w| self.push(w));
        let mut quads = body.chunks_exact(8 * HASH_LANES);
        let mut lanes = self.lanes;
        for quad in &mut quads {
            for (lane, w) in lanes.iter_mut().zip(le_words(quad)) {
                *lane = Self::step(*lane, w);
            }
        }
        self.lanes = lanes;
        self.words += (body.len() / (8 * HASH_LANES) * HASH_LANES) as u64;
        le_words(quads.remainder()).for_each(|w| self.push(w));
    }

    fn finish(&self) -> u64 {
        let h = self
            .lanes
            .iter()
            .fold(self.words.wrapping_mul(HASH_K), |h, &lane| {
                Self::step(h, lane)
            });
        h ^ (h >> 32)
    }
}

/// A store's running trailer checksum, in its format version's hash.
#[derive(Debug, Clone)]
enum Digest {
    /// Version 1: FNV-1a over bytes.
    Fnv(Fnv64),
    /// Version 2: the word hash.
    Words(WordHash),
}

impl Digest {
    fn for_version(version: u32) -> Self {
        if version == VERSION_V1 {
            Digest::Fnv(Fnv64::new())
        } else {
            Digest::Words(WordHash::new())
        }
    }

    fn update(&mut self, bytes: &[u8]) {
        match self {
            Digest::Fnv(h) => h.update(bytes),
            Digest::Words(h) => h.update(bytes),
        }
    }

    fn finish(&self) -> u64 {
        match self {
            Digest::Fnv(h) => h.finish(),
            Digest::Words(h) => h.finish(),
        }
    }

    /// The checksum of a store whose bytes before the trailer hash to
    /// `self` and whose trailer counts `n_instants`.
    fn sealed(&self, n_instants: usize) -> u64 {
        let mut h = self.clone();
        h.update(&(n_instants as u64).to_le_bytes());
        h.finish()
    }
}

/// Serializes `series` (and its catalog) into `.ppmc` bytes.
pub fn encode_columnar(series: &FeatureSeries, catalog: &FeatureCatalog) -> Vec<u8> {
    let encoded = EncodedSeries::encode(series);
    columnar_bytes(encoded.view(), catalog)
}

/// Serializes an already-encoded view (and a catalog) into version-2
/// `.ppmc` bytes.
pub fn columnar_bytes(view: EncodedSeriesView<'_>, catalog: &FeatureCatalog) -> Vec<u8> {
    let names: usize = catalog.iter().map(|(_, n)| n.len() + 4).sum();
    let header_len = (FIXED_HEADER + names).next_multiple_of(8);
    let mut buf = Vec::with_capacity(header_len + view.bytes() + TRAILER);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(view.width() as u64).to_le_bytes());
    buf.extend_from_slice(&(view.words_per_instant() as u64).to_le_bytes());
    buf.extend_from_slice(&(catalog.len() as u32).to_le_bytes());
    for (_, name) in catalog.iter() {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
    }
    buf.resize(header_len, 0);
    for t in 0..view.len() {
        for &w in view.instant_words(t) {
            buf.extend_from_slice(&w.to_le_bytes());
        }
    }
    let mut h = Digest::for_version(VERSION);
    h.update(&buf);
    let checksum = h.sealed(view.len());
    buf.extend_from_slice(&(view.len() as u64).to_le_bytes());
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Writes `series` (and its catalog) to `path` in the columnar format.
pub fn write_columnar(
    path: impl AsRef<Path>,
    series: &FeatureSeries,
    catalog: &FeatureCatalog,
) -> Result<()> {
    let bytes = encode_columnar(series, catalog);
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

fn corrupt(detail: String) -> Error {
    Error::Corrupt { detail }
}

/// Decodes a words section: little-endian `u64`s, 8 bytes each.
fn le_words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
}

/// Whether `bytes` encode exactly `words`. Each 512-word block ORs its
/// differences without branching, so the compare vectorizes.
fn words_equal(bytes: &[u8], words: &[u64]) -> bool {
    bytes.len() == words.len() * 8
        && bytes
            .chunks(4096)
            .zip(words.chunks(512))
            .all(|(b, w)| le_words(b).zip(w).fold(0, |diff, (x, &y)| diff | (x ^ y)) == 0)
}

/// Fills `buf` from `src`, whose next byte is file offset `at`. A file
/// that ends early was cut short while it was read.
fn read_at(src: &mut impl Read, buf: &mut [u8], at: usize) -> Result<()> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            corrupt(format!(
                "file shrank while reading: truncated at offset {at}"
            ))
        } else {
            e.into()
        }
    })
}

/// A fully validated columnar load: the bitmap words in one allocation,
/// borrowed out as [`EncodedSeriesView`]s.
#[derive(Debug, Clone)]
pub struct ColumnarReader {
    version: u32,
    width: usize,
    words_per_instant: usize,
    n_instants: usize,
    words: Vec<u64>,
    catalog: FeatureCatalog,
    /// The file's header, catalog and padding bytes, verbatim (the bytes
    /// before the words section).
    header: Vec<u8>,
    /// Checksum state over every byte before the trailer: what an append
    /// or a grown-file check resumes from instead of re-hashing the store.
    midstate: Digest,
    file_bytes: usize,
    checksum: u64,
}

/// What a re-read of a store's file shows against a resident load (see
/// [`ColumnarReader::reload`]).
#[derive(Debug)]
pub enum Reload {
    /// The file holds the resident load's content (byte for byte, or a
    /// fully validated file with the same fingerprint).
    Unchanged,
    /// The file is the resident load plus appended whole instants; the
    /// grown load.
    Extended(ColumnarReader),
    /// A valid store that is not the resident load or an extension of it.
    Rewritten(ColumnarReader),
}

impl ColumnarReader {
    /// Opens `path` in one streamed pass (see the module docs) and returns
    /// only once the checksum matched. Reports the file size through the
    /// `columnar.file_bytes` gauge.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let reader = Self::load_file(&File::open(path)?, true)?;
        ppm_observe::gauge("columnar.file_bytes", reader.file_bytes as u64);
        Ok(reader)
    }

    /// Validates and loads `.ppmc` bytes through the same pass as
    /// [`Self::open`]. Every rejection names the byte offset of the failed
    /// check.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::load(&mut Cursor::new(bytes), bytes.len(), true)
    }

    /// [`Self::load`] over an opened file.
    fn load_file(file: &File, decode: bool) -> Result<Self> {
        let len = file.metadata()?.len() as usize;
        Self::load(&mut BufReader::new(file), len, decode)
    }

    /// The one verifier every load goes through: reads `len` bytes of
    /// `.ppmc` from `src`. The trailer's instant count and the header are
    /// checked first, so the words section's size is known before any of
    /// it is read; then the words stream through one block buffer, each
    /// block hashed and (with `decode`) decoded into the word vector; the
    /// load is returned only if the checksum matches. Without `decode` the
    /// words are verified but not kept — for the appender, which copies
    /// the verified rows from the file itself.
    fn load<R: Read + Seek>(src: &mut R, len: usize, decode: bool) -> Result<Self> {
        if len < FIXED_HEADER + TRAILER {
            return Err(corrupt(format!(
                "file too short at offset {len}: need at least {} header+trailer bytes",
                FIXED_HEADER + TRAILER
            )));
        }
        let words_end = len - TRAILER;
        let mut trailer = [0u8; TRAILER];
        src.seek(SeekFrom::Start(words_end as u64))?;
        read_at(src, &mut trailer, words_end)?;
        let (count, sum) = trailer.split_at(8);
        let n_instants = u64::from_le_bytes(count.try_into().expect("8 bytes")) as usize;
        let stored_sum = u64::from_le_bytes(sum.try_into().expect("8 bytes"));
        src.seek(SeekFrom::Start(0))?;

        let mut header = vec![0u8; FIXED_HEADER];
        read_at(src, &mut header, 0)?;
        let magic: [u8; 4] = header[0..4].try_into().expect("4 bytes");
        if &magic != MAGIC {
            return Err(corrupt(format!("bad magic {magic:?} at offset 0")));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != VERSION && version != VERSION_V1 {
            return Err(corrupt(format!(
                "unsupported version {version} at offset 4"
            )));
        }
        let width = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes")) as usize;
        let words_per_instant =
            u64::from_le_bytes(header[16..24].try_into().expect("8 bytes")) as usize;
        if words_per_instant != width.div_ceil(64) {
            return Err(corrupt(format!(
                "words-per-instant {words_per_instant} does not match width {width} at offset 16"
            )));
        }
        let n_names = u32::from_le_bytes(header[24..28].try_into().expect("4 bytes")) as usize;

        let mut catalog = FeatureCatalog::new();
        for i in 0..n_names {
            let off = header.len();
            if off + 4 > words_end {
                return Err(corrupt(format!(
                    "truncated catalog entry {i} at offset {off}"
                )));
            }
            header.resize(off + 4, 0);
            read_at(src, &mut header[off..], off)?;
            let name_len = u32::from_le_bytes(header[off..].try_into().expect("4 bytes")) as usize;
            let off = off + 4;
            if off + name_len > words_end {
                return Err(corrupt(format!(
                    "truncated name in entry {i} at offset {off}"
                )));
            }
            header.resize(off + name_len, 0);
            read_at(src, &mut header[off..], off)?;
            let name = std::str::from_utf8(&header[off..])
                .map_err(|_| corrupt(format!("non-utf8 name in entry {i} at offset {off}")))?;
            catalog.intern(name);
        }
        if version == VERSION {
            let off = header.len();
            let end = off.next_multiple_of(8);
            if end > words_end {
                return Err(corrupt(format!("truncated header padding at offset {off}")));
            }
            header.resize(end, 0);
            read_at(src, &mut header[off..], off)?;
            if let Some(k) = header[off..].iter().position(|&b| b != 0) {
                return Err(corrupt(format!(
                    "non-zero header padding at offset {}",
                    off + k
                )));
            }
        }

        let off = header.len();
        let need = n_instants
            .checked_mul(words_per_instant)
            .and_then(|w| w.checked_mul(8))
            .ok_or_else(|| {
                corrupt(format!(
                    "instant count {n_instants} overflows the words section at offset {words_end}"
                ))
            })?;
        let have = words_end - off;
        if have != need {
            return Err(corrupt(format!(
                "words section is {have} bytes at offset {off}, need {need} \
                 ({n_instants} instants × {words_per_instant} words)"
            )));
        }

        // The one pass over the words: read a block, hash it, decode it.
        let mut midstate = Digest::for_version(version);
        midstate.update(&header);
        let mut words = Vec::with_capacity(if decode { have / 8 } else { 0 });
        let mut block = vec![0u8; have.min(BLOCK_WORDS * 8)];
        let mut at = off;
        while at < words_end {
            let bytes = &mut block[..(words_end - at).min(BLOCK_WORDS * 8)];
            read_at(src, bytes, at)?;
            midstate.update(bytes);
            if decode {
                words.extend(le_words(bytes));
            }
            at += bytes.len();
        }
        if midstate.sealed(n_instants) != stored_sum {
            return Err(corrupt(format!("checksum mismatch at offset {}", len - 8)));
        }
        Ok(ColumnarReader {
            version,
            width,
            words_per_instant,
            n_instants,
            words,
            catalog,
            header,
            midstate,
            file_bytes: len,
            checksum: stored_sum,
        })
    }

    /// The borrowed bitmap view over the loaded words.
    pub fn view(&self) -> EncodedSeriesView<'_> {
        EncodedSeriesView::new(self.width, self.n_instants, &self.words)
    }

    /// The embedded feature catalog.
    pub fn catalog(&self) -> &FeatureCatalog {
        &self.catalog
    }

    /// Number of stored instants.
    pub fn len(&self) -> usize {
        self.n_instants
    }

    /// Whether the store holds no instants.
    pub fn is_empty(&self) -> bool {
        self.n_instants == 0
    }

    /// The feature-id universe of the stored bitmaps.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total size of the backing file in bytes.
    pub fn file_bytes(&self) -> usize {
        self.file_bytes
    }

    /// The store's format version: 2 for every store this crate writes,
    /// 1 for an older store (appends keep it 1).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The store's content fingerprint: the verified trailer checksum
    /// (its version's hash over every byte before it). Two stores with the same
    /// fingerprint hold byte-identical headers, catalogs, and bitmap rows,
    /// so the fingerprint is a sound cache key for results derived from
    /// this store; any append or rewrite changes it.
    pub fn fingerprint(&self) -> u64 {
        self.checksum
    }

    /// Whether this store is `prefix` plus zero or more appended whole
    /// instants: identical width, identical catalog, and the first
    /// `prefix.len()` instants' words bit-identical. This is what
    /// distinguishes legitimate [`ColumnarAppender`] growth (both states
    /// independently checksum-valid; the older is a strict prefix of the
    /// newer) from a rewrite or corruption, which changes resident rows.
    pub fn extends(&self, prefix: &ColumnarReader) -> bool {
        self.width == prefix.width
            && self.words_per_instant == prefix.words_per_instant
            && self.n_instants >= prefix.n_instants
            && self.catalog.len() == prefix.catalog.len()
            && self
                .catalog
                .iter()
                .zip(prefix.catalog.iter())
                .all(|((id_a, name_a), (id_b, name_b))| id_a == id_b && name_a == name_b)
            && self.words[..prefix.words.len()] == prefix.words[..]
    }

    /// Re-reads the store at `path` and judges it against this load —
    /// compare, then resume, then fall back:
    ///
    /// - a file byte-for-byte equal to this load (header, catalog, words,
    ///   trailer) is [`Reload::Unchanged`] without hashing anything;
    /// - a file that starts with this load's header and words is checked
    ///   by resuming the checksum from this load's midstate over only the
    ///   new rows and the trailer: [`Reload::Extended`];
    /// - anything else gets the full validating [`Self::open`], so a
    ///   corrupt file fails with the same error, and a valid one is
    ///   classified by fingerprint and [`Self::extends`].
    ///
    /// The compare streams the file in blocks: only the bytes past this
    /// load are buffered. Byte equality with a load that was
    /// checksum-verified when it was taken is at least as strong as a
    /// re-hash: a re-hash could only miss a change that collides in 64
    /// bits, the compare misses none.
    pub fn reload(&self, path: impl AsRef<Path>) -> Result<Reload> {
        let path = path.as_ref();
        if let Some(rest) = self.read_past_load(&mut File::open(path)?)? {
            if rest == self.trailer() {
                return Ok(Reload::Unchanged);
            }
            if let Some(grown) = self.resume(&rest) {
                return Ok(Reload::Extended(grown));
            }
        }
        let fresh = Self::open(path)?;
        Ok(if fresh.checksum == self.checksum {
            Reload::Unchanged
        } else if fresh.extends(self) {
            Reload::Extended(fresh)
        } else {
            Reload::Rewritten(fresh)
        })
    }

    /// This load's trailer bytes: instant count, then checksum.
    fn trailer(&self) -> [u8; TRAILER] {
        let mut t = [0u8; TRAILER];
        t[..8].copy_from_slice(&(self.n_instants as u64).to_le_bytes());
        t[8..].copy_from_slice(&self.checksum.to_le_bytes());
        t
    }

    /// Streams `file` from its start against this load's header and
    /// words, one block at a time. `Some(rest)` — every byte after the
    /// words — when the file starts with them verbatim and leaves room for
    /// a trailer; `None` when it does not (including a file that shrinks
    /// while it is read).
    fn read_past_load(&self, file: &mut File) -> std::io::Result<Option<Vec<u8>>> {
        let len = file.metadata()?.len() as usize;
        let loaded = self.header.len() + self.words.len() * 8;
        if len < loaded + TRAILER {
            return Ok(None);
        }
        let mut block = vec![0u8; self.header.len().max(BLOCK_WORDS * 8)];
        let mut fill = |buf: &mut [u8]| match file.read_exact(buf) {
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
            r => r.map(|()| true),
        };
        let header = &mut block[..self.header.len()];
        if !fill(header)? || header[..] != self.header[..] {
            return Ok(None);
        }
        for words in self.words.chunks(BLOCK_WORDS) {
            let bytes = &mut block[..words.len() * 8];
            if !fill(bytes)? || !words_equal(bytes, words) {
                return Ok(None);
            }
        }
        let mut rest = vec![0u8; len - loaded];
        Ok(fill(&mut rest)?.then_some(rest))
    }

    /// This load plus the whole instants in `rest` (new rows, then a
    /// trailer), verified by resuming the checksum over `rest` alone;
    /// `None` if `rest` is anything else (the caller's full validation
    /// names the failure).
    fn resume(&self, rest: &[u8]) -> Option<ColumnarReader> {
        let row_bytes = self.words_per_instant * 8;
        let (new, trailer) = rest.split_at(rest.len().checked_sub(TRAILER)?);
        if row_bytes == 0 || new.is_empty() || !new.len().is_multiple_of(row_bytes) {
            return None;
        }
        let n_instants = self.n_instants + new.len() / row_bytes;
        let (count, sum) = trailer.split_at(8);
        if count != (n_instants as u64).to_le_bytes() {
            return None;
        }
        let mut midstate = self.midstate.clone();
        midstate.update(new);
        let checksum = u64::from_le_bytes(sum.try_into().expect("8 bytes"));
        if midstate.sealed(n_instants) != checksum {
            return None;
        }
        let growth = Growth {
            base_fingerprint: self.checksum,
            words: le_words(new).collect(),
            n_instants,
            checksum,
            midstate,
        };
        growth.extend(self).ok()
    }

    /// Materializes the bitmaps back into a CSR [`FeatureSeries`] — for
    /// consumers that still need raw feature slices (quarantine, export,
    /// the tree-walk engines on non-view paths).
    pub fn to_series(&self) -> FeatureSeries {
        let view = self.view();
        let mut b = SeriesBuilder::new();
        for t in 0..view.len() {
            b.push_instant(view.features_at(t));
        }
        b.finish()
    }
}

/// Incremental segment arrival: appends encoded rows to an existing
/// `.ppmc` file with crash-safe publication.
///
/// An appender is a verified load plus pending rows. It resumes the
/// load's checksum midstate, so each appended instant costs one row of
/// hashing: the hash cost of an append is O(new rows). [`Self::open`]
/// validates the file once; [`Self::open_resident`] hashes nothing when
/// the file is byte-for-byte a load the caller already holds. Either way
/// the appender keeps the opened file, not a copy of it, and the publish
/// copies the verified rows from it. The publish is still a whole-file
/// rewrite: [`Self::finish`] writes the complete new store to a
/// same-directory temp file, fsyncs, atomically renames it over the
/// original, and fsyncs the parent directory. A crash (or `kill -9`) at
/// any point leaves either the prior store or the finished store on disk
/// — both openable — never a half-written hybrid.
#[derive(Debug)]
pub struct ColumnarAppender {
    path: PathBuf,
    /// The opened store. Its bytes before the trailer were verified at
    /// open; the publish copies them from this handle, which a rename
    /// over `path` does not disturb.
    file: File,
    /// Length of the verified bytes before the trailer.
    prefix_len: u64,
    /// Checksum state over the verified bytes plus any pending rows, in
    /// the store's own version: an append never changes the version.
    hash: Digest,
    width: usize,
    words_per_instant: usize,
    n_instants: usize,
    /// Encoded rows not yet written, as raw LE bytes.
    pending: Vec<u8>,
    /// The fingerprint of the store as opened, before any append.
    opened_fingerprint: u64,
}

/// The staging path `finish` publishes through: `<store>.tmp`, always in
/// the store's own directory so the rename cannot cross filesystems.
fn staging_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

impl ColumnarAppender {
    /// Opens `path` for appending, validating the existing contents first
    /// (one checksum pass).
    ///
    /// A stale staging file (`<path>.tmp`) left behind by a crashed append
    /// is removed here: the rename never happened, so the original store is
    /// authoritative and the orphan holds nothing worth keeping.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let file = File::open(path)?;
        let base = ColumnarReader::load_file(&file, false)?;
        Ok(Self::on(path, file, &base))
    }

    /// Opens `path` for appending on top of `resident`, a verified load of
    /// it. If the file is byte-for-byte `resident`'s load (a streamed
    /// compare, see [`ColumnarReader::reload`]), the appender resumes
    /// `resident`'s checksum midstate and hashes nothing of the existing
    /// store. Any mismatch falls back to [`Self::open`]'s full validation
    /// — a corrupt file is rejected with the same error, and a valid but
    /// different one opens (so [`Self::finish_extending`] with `resident`
    /// then refuses it before writing).
    pub fn open_resident(path: impl AsRef<Path>, resident: &ColumnarReader) -> Result<Self> {
        let path = path.as_ref();
        let mut file = File::open(path)?;
        match resident.read_past_load(&mut file)? {
            Some(rest) if rest == resident.trailer() => Ok(Self::on(path, file, resident)),
            _ => Self::open(path),
        }
    }

    /// An appender on `file`, verified to hold `base` (whose `words` may
    /// be left undecoded).
    fn on(path: &Path, file: File, base: &ColumnarReader) -> Self {
        std::fs::remove_file(staging_path(path)).ok();
        ColumnarAppender {
            path: path.to_path_buf(),
            file,
            prefix_len: (base.file_bytes - TRAILER) as u64,
            hash: base.midstate.clone(),
            width: base.width,
            words_per_instant: base.words_per_instant,
            n_instants: base.n_instants,
            pending: Vec::new(),
            opened_fingerprint: base.checksum,
        }
    }

    /// The fingerprint of the store as it was opened, before any append.
    pub fn opened_fingerprint(&self) -> u64 {
        self.opened_fingerprint
    }

    /// The fingerprint the store *will* have once [`Self::finish`]
    /// publishes the pending rows — computed from the streaming FNV state
    /// without touching the file. Lets a live reader adopt the appended
    /// state (see [`Self::finish_extending`]) and lets caches be re-keyed
    /// before the publish lands.
    pub fn preview_fingerprint(&self) -> u64 {
        self.hash.sealed(self.n_instants)
    }

    /// The instant count after all appends so far.
    pub fn len(&self) -> usize {
        self.n_instants
    }

    /// Whether the store (including pending appends) holds no instants.
    pub fn is_empty(&self) -> bool {
        self.n_instants == 0
    }

    /// Appends one instant's feature set as an encoded row.
    ///
    /// Fails with [`Error::UnknownFeature`] if a feature id does not fit
    /// the store's fixed bitmap width — the layout cannot widen in place.
    pub fn append_instant(&mut self, features: &[FeatureId]) -> Result<()> {
        let mut row = vec![0u64; self.words_per_instant];
        for &f in features {
            let idx = f.index();
            if idx >= self.width {
                return Err(Error::UnknownFeature { id: f.raw() });
            }
            row[idx / 64] |= 1u64 << (idx % 64);
        }
        for w in row {
            let bytes = w.to_le_bytes();
            self.hash.update(&bytes);
            self.pending.extend_from_slice(&bytes);
        }
        self.n_instants += 1;
        Ok(())
    }

    /// Appends every instant of `series`.
    pub fn append_series(&mut self, series: &FeatureSeries) -> Result<()> {
        for t in 0..series.len() {
            self.append_instant(series.instant(t))?;
        }
        Ok(())
    }

    /// Publishes the appended store crash-safely; returns the new total
    /// instant count.
    ///
    /// The complete new file — the verified prefix copied from the opened
    /// file, pending rows, refreshed trailer — is written to `<path>.tmp`
    /// and fsynced *before* the atomic rename over `path`, then the parent
    /// directory is fsynced so the rename itself survives a power cut. If
    /// the opened file was cut short in place, or the rename fails, the
    /// staging file is removed and the original store is untouched.
    pub fn finish(mut self) -> Result<usize> {
        let count_bytes = (self.n_instants as u64).to_le_bytes();
        let checksum = self.hash.sealed(self.n_instants);

        let tmp = staging_path(&self.path);
        {
            let mut w = File::create(&tmp)?;
            self.file.seek(SeekFrom::Start(0))?;
            let copied = std::io::copy(&mut (&self.file).take(self.prefix_len), &mut w)?;
            if copied != self.prefix_len {
                std::fs::remove_file(&tmp).ok();
                return Err(corrupt(format!(
                    "store shrank while appending: truncated at offset {copied}"
                )));
            }
            w.write_all(&self.pending)?;
            w.write_all(&count_bytes)?;
            w.write_all(&checksum.to_le_bytes())?;
            w.sync_all()?;
        }
        if let Err(e) = std::fs::rename(&tmp, &self.path) {
            std::fs::remove_file(&tmp).ok();
            return Err(e.into());
        }
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                d.sync_all().ok();
            }
        }
        Ok(self.n_instants)
    }

    /// [`Self::finish`], keeping what the caller needs to bring a loaded
    /// reader up to the published file: the appended rows and the new
    /// trailer state, as a [`Growth`].
    ///
    /// `resident` must be a load of the store this appender opened
    /// (matching fingerprint); otherwise the growth would splice rows
    /// onto the wrong base, so the call fails with [`Error::Corrupt`]
    /// before writing anything and the caller should fall back to a full
    /// re-open.
    pub fn finish_growth(self, resident: &ColumnarReader) -> Result<Growth> {
        if resident.fingerprint() != self.opened_fingerprint {
            return Err(corrupt(format!(
                "resident reader fingerprint {:016x} is not the appender's base {:016x}",
                resident.fingerprint(),
                self.opened_fingerprint
            )));
        }
        let growth = Growth {
            base_fingerprint: self.opened_fingerprint,
            words: le_words(&self.pending).collect(),
            n_instants: self.n_instants,
            checksum: self.preview_fingerprint(),
            midstate: self.hash.clone(),
        };
        self.finish()?;
        Ok(growth)
    }

    /// [`Self::finish_growth`] applied to a copy of `resident`: publishes
    /// the appended store crash-safely and returns a new
    /// [`ColumnarReader`] equal to re-opening the published file — built
    /// by extending `resident`'s word vector with the pending rows instead
    /// of re-reading (and re-checksumming) the whole store.
    pub fn finish_extending(self, resident: &ColumnarReader) -> Result<(usize, ColumnarReader)> {
        let growth = self.finish_growth(resident)?;
        Ok((growth.instants(), growth.extend(resident)?))
    }
}

/// Whole instants appended to a verified load, with the trailer state
/// they give the store: what brings a [`ColumnarReader`] of the base up
/// to the grown file without re-reading it.
#[derive(Debug)]
pub struct Growth {
    base_fingerprint: u64,
    words: Vec<u64>,
    n_instants: usize,
    checksum: u64,
    /// Checksum state over the grown store's bytes before its trailer.
    midstate: Digest,
}

impl Growth {
    /// The instant count of the grown store.
    pub fn instants(&self) -> usize {
        self.n_instants
    }

    /// The grown store's fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.checksum
    }

    fn check_base(&self, base: &ColumnarReader) -> Result<()> {
        if base.checksum == self.base_fingerprint {
            Ok(())
        } else {
            Err(corrupt(format!(
                "reader fingerprint {:016x} is not the growth's base {:016x}",
                base.checksum, self.base_fingerprint
            )))
        }
    }

    /// Grows `base`, a load of the store the rows were appended to, in
    /// place. Fails with [`Error::Corrupt`], leaving `base` untouched, if
    /// it is a load of anything else.
    pub fn apply_to(&self, base: &mut ColumnarReader) -> Result<()> {
        self.check_base(base)?;
        base.words.extend_from_slice(&self.words);
        base.file_bytes += self.words.len() * 8;
        base.n_instants = self.n_instants;
        base.checksum = self.checksum;
        base.midstate = self.midstate.clone();
        Ok(())
    }

    /// A grown copy of `base`; `base` itself is left as it is.
    pub fn extend(&self, base: &ColumnarReader) -> Result<ColumnarReader> {
        self.check_base(base)?;
        let mut words = Vec::with_capacity(base.words.len() + self.words.len());
        words.extend_from_slice(&base.words);
        let mut grown = ColumnarReader {
            words,
            catalog: base.catalog.clone(),
            header: base.header.clone(),
            midstate: base.midstate.clone(),
            ..*base
        };
        self.apply_to(&mut grown)?;
        Ok(grown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesBuilder;

    fn fid(i: u32) -> FeatureId {
        FeatureId::from_raw(i)
    }

    fn sample() -> (FeatureSeries, FeatureCatalog) {
        let mut cat = FeatureCatalog::new();
        let a = cat.intern("alpha");
        let b = cat.intern("beta");
        let c = cat.intern("gamma");
        let mut builder = SeriesBuilder::new();
        builder.push_instant([a, c]);
        builder.push_instant([]);
        builder.push_instant([b]);
        builder.push_instant([a, b, c]);
        (builder.finish(), cat)
    }

    fn temp(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("ppmc-test-{}-{tag}-{n}.ppmc", std::process::id()))
    }

    #[test]
    fn round_trips_bit_identically_with_the_in_memory_encode() {
        let (s, cat) = sample();
        let bytes = encode_columnar(&s, &cat);
        let reader = ColumnarReader::from_bytes(&bytes).unwrap();
        let enc = EncodedSeries::encode(&s);
        assert_eq!(reader.view(), enc.view());
        assert_eq!(reader.to_series(), s);
        assert_eq!(reader.catalog().len(), 3);
        assert_eq!(
            reader.catalog().name(cat.get("alpha").unwrap()),
            Some("alpha")
        );
        assert_eq!(reader.file_bytes(), bytes.len());
    }

    #[test]
    fn finish_extending_matches_a_fresh_open_bit_for_bit() {
        let (s, cat) = sample();
        let path = temp("extend");
        write_columnar(&path, &s, &cat).unwrap();
        let resident = ColumnarReader::open(&path).unwrap();

        let mut app = ColumnarAppender::open(&path).unwrap();
        assert_eq!(app.opened_fingerprint(), resident.fingerprint());
        app.append_instant(&[fid(0), fid(2)]).unwrap();
        app.append_instant(&[]).unwrap();
        app.append_instant(&[fid(1)]).unwrap();
        let preview = app.preview_fingerprint();
        let (n, extended) = app.finish_extending(&resident).unwrap();
        assert_eq!(n, 7);

        let reopened = ColumnarReader::open(&path).unwrap();
        assert_eq!(extended.fingerprint(), preview);
        assert_eq!(extended.fingerprint(), reopened.fingerprint());
        assert_eq!(extended.len(), reopened.len());
        assert_eq!(extended.file_bytes(), reopened.file_bytes());
        assert_eq!(extended.view(), reopened.view());
        assert!(reopened.extends(&resident));
        assert!(extended.extends(&resident));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn finish_extending_rejects_a_mismatched_resident() {
        let (s, cat) = sample();
        let path = temp("extend-mismatch");
        let other_path = temp("extend-other");
        write_columnar(&path, &s, &cat).unwrap();
        // A different store (one more instant) is not the appender's base.
        let mut s2 = SeriesBuilder::new();
        for t in 0..s.len() {
            s2.push_instant(s.instant(t).to_vec());
        }
        s2.push_instant([fid(0)]);
        write_columnar(&other_path, &s2.finish(), &cat).unwrap();
        let other = ColumnarReader::open(&other_path).unwrap();

        let mut app = ColumnarAppender::open(&path).unwrap();
        app.append_instant(&[fid(1)]).unwrap();
        assert!(app.finish_extending(&other).is_err());
        // Nothing was published: the original store is untouched.
        assert_eq!(ColumnarReader::open(&path).unwrap().len(), s.len());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&other_path).ok();
    }

    /// Appends `rows` single-feature instants through a fresh appender.
    fn grow(path: &Path, rows: u32) {
        let mut app = ColumnarAppender::open(path).unwrap();
        for r in 0..rows {
            app.append_instant(&[fid(r % 3)]).unwrap();
        }
        app.finish().unwrap();
    }

    fn reload_err(resident: &ColumnarReader, path: &Path) -> String {
        match resident.reload(path) {
            Err(e) => e.to_string(),
            Ok(r) => panic!("reload accepted a damaged store: {r:?}"),
        }
    }

    #[test]
    fn reload_judges_unchanged_grown_and_rewritten_files() {
        let (s, cat) = sample();
        let path = temp("reload");
        write_columnar(&path, &s, &cat).unwrap();
        let resident = ColumnarReader::open(&path).unwrap();
        assert!(matches!(resident.reload(&path).unwrap(), Reload::Unchanged));

        // Growth resumes the checksum: the grown load equals a fresh open,
        // midstate included (a second growth resumes from it).
        grow(&path, 3);
        let rest = resident
            .read_past_load(&mut File::open(&path).unwrap())
            .unwrap()
            .expect("old prefix intact");
        assert!(
            resident.resume(&rest).is_some(),
            "growth takes the resume path"
        );
        let Reload::Extended(grown) = resident.reload(&path).unwrap() else {
            panic!("growth must reload as an extension");
        };
        let reopened = ColumnarReader::open(&path).unwrap();
        assert_eq!(grown.fingerprint(), reopened.fingerprint());
        assert_eq!(grown.file_bytes(), reopened.file_bytes());
        assert_eq!(grown.view(), reopened.view());
        grow(&path, 2);
        let Reload::Extended(again) = grown.reload(&path).unwrap() else {
            panic!("second growth must reload as an extension");
        };
        assert_eq!(
            again.fingerprint(),
            ColumnarReader::open(&path).unwrap().fingerprint()
        );
        assert_eq!(again.len(), 9);

        // A different valid store is a rewrite, not an extension.
        let mut other = SeriesBuilder::new();
        other.push_instant([fid(2)]);
        write_columnar(&path, &other.finish(), &cat).unwrap();
        assert!(matches!(
            resident.reload(&path).unwrap(),
            Reload::Rewritten(r) if r.len() == 1
        ));
        std::fs::remove_file(&path).ok();
        assert!(matches!(resident.reload(&path), Err(Error::Io(_))));
    }

    #[test]
    fn reload_rejects_a_flip_in_the_old_prefix_or_the_new_tail() {
        let (s, cat) = sample();
        let path = temp("reload-flip");
        write_columnar(&path, &s, &cat).unwrap();
        let resident = ColumnarReader::open(&path).unwrap();
        let words_at = resident.header.len();
        grow(&path, 4);
        let grown = std::fs::read(&path).unwrap();
        let tail_at = resident.file_bytes() - TRAILER;
        for (at, what) in [
            (words_at, "old prefix"),
            (tail_at, "new tail"),
            (grown.len() - 12, "trailer count"),
        ] {
            let mut bad = grown.clone();
            bad[at] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            let err = reload_err(&resident, &path);
            let want = ColumnarReader::from_bytes(&bad).unwrap_err().to_string();
            assert_eq!(err, want, "{what}: the full open's error, verbatim");
        }
        // A flip in an otherwise unchanged file.
        let mut bad = encode_columnar(&s, &cat);
        bad[words_at] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(reload_err(&resident, &path).contains("checksum mismatch"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_resident_resumes_the_midstate_and_falls_back_on_mismatch() {
        let (s, cat) = sample();
        let path = temp("open-resident");
        write_columnar(&path, &s, &cat).unwrap();
        let mut resident = ColumnarReader::open(&path).unwrap();
        // Chained appends, each built on the previous extended reader,
        // publish exactly the bytes a from-scratch encode would.
        let mut whole = SeriesBuilder::new();
        for t in 0..s.len() {
            whole.push_instant(s.instant(t).iter().copied());
        }
        for round in 0..5u32 {
            assert_eq!(
                resident
                    .read_past_load(&mut File::open(&path).unwrap())
                    .unwrap(),
                Some(resident.trailer().to_vec()),
                "round {round}: the extended reader is byte-for-byte the file"
            );
            let mut app = ColumnarAppender::open_resident(&path, &resident).unwrap();
            app.append_instant(&[fid(round % 3)]).unwrap();
            whole.push_instant([fid(round % 3)]);
            resident = app.finish_extending(&resident).unwrap().1;
        }
        let whole = whole.finish();
        assert_eq!(std::fs::read(&path).unwrap(), encode_columnar(&whole, &cat));
        let reopened = ColumnarReader::open(&path).unwrap();
        assert_eq!(resident.fingerprint(), reopened.fingerprint());
        assert_eq!(resident.view(), reopened.view());

        // A file that is not the resident load: corrupt is rejected with
        // the full open's error; valid-but-different opens, and
        // finish_extending refuses to splice onto the stale resident.
        let good = std::fs::read(&path).unwrap();
        let mut bad = good.clone();
        bad[resident.header.len()] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        let err = ColumnarAppender::open_resident(&path, &resident).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        std::fs::write(&path, &good).unwrap();
        grow(&path, 1);
        let grown = std::fs::read(&path).unwrap();
        let mut app = ColumnarAppender::open_resident(&path, &resident).unwrap();
        app.append_instant(&[fid(0)]).unwrap();
        assert!(app.finish_extending(&resident).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), grown, "nothing published");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn growth_applies_in_place_only_to_its_base() {
        let (s, cat) = sample();
        let path = temp("growth");
        write_columnar(&path, &s, &cat).unwrap();
        let mut resident = ColumnarReader::open(&path).unwrap();
        let stale = resident.clone();
        let mut app = ColumnarAppender::open_resident(&path, &resident).unwrap();
        app.append_instant(&[fid(2)]).unwrap();
        let growth = app.finish_growth(&resident).unwrap();
        growth.apply_to(&mut resident).unwrap();
        let reopened = ColumnarReader::open(&path).unwrap();
        assert_eq!(resident.fingerprint(), reopened.fingerprint());
        assert_eq!(resident.file_bytes(), reopened.file_bytes());
        assert_eq!(resident.view(), reopened.view());

        // Applying it again, or to another store, would splice rows onto
        // the wrong base: refused, and the reader is left as it was.
        let err = growth.apply_to(&mut resident).unwrap_err();
        assert!(err.to_string().contains("not the growth's base"), "{err}");
        assert_eq!(resident.len(), 5);
        assert_eq!(growth.extend(&stale).unwrap().view(), reopened.view());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn extends_rejects_rewrites_and_foreign_stores() {
        let (s, cat) = sample();
        let bytes = encode_columnar(&s, &cat);
        let base = ColumnarReader::from_bytes(&bytes).unwrap();
        assert!(base.extends(&base), "a store extends itself");

        // Same length but a flipped resident bit is a rewrite.
        let mut tampered = SeriesBuilder::new();
        tampered.push_instant([fid(0)]);
        for t in 1..s.len() {
            tampered.push_instant(s.instant(t).to_vec());
        }
        let tampered =
            ColumnarReader::from_bytes(&encode_columnar(&tampered.finish(), &cat)).unwrap();
        assert!(!tampered.extends(&base));

        // A different catalog is a different universe.
        let mut cat2 = FeatureCatalog::new();
        cat2.intern("alpha");
        cat2.intern("beta");
        cat2.intern("delta");
        let renamed = ColumnarReader::from_bytes(&encode_columnar(&s, &cat2)).unwrap();
        assert!(!renamed.extends(&base));
    }

    #[test]
    fn file_round_trip() {
        let (s, cat) = sample();
        let path = temp("roundtrip");
        write_columnar(&path, &s, &cat).unwrap();
        let reader = ColumnarReader::open(&path).unwrap();
        assert_eq!(reader.to_series(), s);
        assert_eq!(reader.len(), 4);
        assert!(!reader.is_empty());
        std::fs::remove_file(path).ok();
    }

    /// Satellite edge cases: widths 64 and 65 (word / inline-set boundary),
    /// the empty width-0 series, and a trailing partial segment — all
    /// bit-identical between the file-backed and in-memory paths.
    #[test]
    fn boundary_widths_round_trip_bit_identically() {
        for top in [63u32, 64u32] {
            let mut b = SeriesBuilder::new();
            b.push_instant([fid(0), fid(top)]);
            b.push_instant([fid(top)]);
            b.push_instant([]);
            b.push_instant([fid(1)]);
            b.push_instant([fid(0), fid(1), fid(top)]); // trailing partial segment at period 2
            let s = b.finish();
            let cat = FeatureCatalog::with_synthetic_features(top as usize + 1);
            let bytes = encode_columnar(&s, &cat);
            let reader = ColumnarReader::from_bytes(&bytes).unwrap();
            assert_eq!(reader.width(), top as usize + 1);
            assert_eq!(
                reader.view(),
                EncodedSeries::encode(&s).view(),
                "width {}",
                top + 1
            );
            assert_eq!(reader.to_series(), s, "width {}", top + 1);
        }
    }

    #[test]
    fn empty_series_round_trips_with_width_zero() {
        let s = SeriesBuilder::new().finish();
        let cat = FeatureCatalog::new();
        let bytes = encode_columnar(&s, &cat);
        let reader = ColumnarReader::from_bytes(&bytes).unwrap();
        assert!(reader.is_empty());
        assert_eq!(reader.width(), 0);
        assert_eq!(reader.to_series().len(), 0);
    }

    #[test]
    fn appender_extends_the_store_in_place() {
        let (s, cat) = sample();
        let path = temp("append");
        write_columnar(&path, &s, &cat).unwrap();

        let mut more = SeriesBuilder::new();
        more.push_instant([fid(1)]);
        more.push_instant([fid(0), fid(2)]);
        let more = more.finish();

        let mut appender = ColumnarAppender::open(&path).unwrap();
        assert_eq!(appender.len(), 4);
        assert!(!appender.is_empty());
        appender.append_series(&more).unwrap();
        assert_eq!(appender.finish().unwrap(), 6);

        // The appended store equals a from-scratch write of the whole series.
        let mut whole = SeriesBuilder::new();
        for t in 0..s.len() {
            whole.push_instant(s.instant(t).iter().copied());
        }
        for t in 0..more.len() {
            whole.push_instant(more.instant(t).iter().copied());
        }
        let whole = whole.finish();
        let reader = ColumnarReader::open(&path).unwrap();
        assert_eq!(reader.to_series(), whole);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            encode_columnar(&whole, &cat),
            "appended bytes must equal a fresh encode"
        );
        std::fs::remove_file(path).ok();
    }

    /// Kill-point fuzz for the crash-safe publish: simulate a crash at
    /// every byte of the staging write (original store + truncated
    /// `<path>.tmp` on disk) and assert the prior store still opens with
    /// its old contents; then simulate the post-rename state and assert
    /// the appended store opens. A fresh appender must also sweep the
    /// stale staging file away.
    #[test]
    fn crash_at_any_kill_point_leaves_an_openable_store() {
        let (s, cat) = sample();
        let path = temp("kill-points");
        write_columnar(&path, &s, &cat).unwrap();
        let original = std::fs::read(&path).unwrap();

        // The bytes a completed append would publish.
        let mut appender = ColumnarAppender::open(&path).unwrap();
        appender.append_instant(&[fid(1)]).unwrap();
        appender.append_instant(&[fid(0), fid(2)]).unwrap();
        appender.finish().unwrap();
        let finished = std::fs::read(&path).unwrap();
        assert_ne!(original, finished);

        let tmp = staging_path(&path);
        for cut in 0..finished.len() {
            // Crash state: rename never ran; tmp holds `cut` bytes.
            std::fs::write(&path, &original).unwrap();
            std::fs::write(&tmp, &finished[..cut]).unwrap();
            let reader = ColumnarReader::open(&path)
                .unwrap_or_else(|e| panic!("kill point {cut}: prior store must open: {e}"));
            assert_eq!(reader.len(), 4, "kill point {cut}");
            assert_eq!(reader.to_series(), s, "kill point {cut}");
            // Recovery: a fresh appender opens the prior store and sweeps
            // the orphaned staging file.
            let again = ColumnarAppender::open(&path)
                .unwrap_or_else(|e| panic!("kill point {cut}: reopen for append: {e}"));
            assert_eq!(again.len(), 4, "kill point {cut}");
            assert!(!tmp.exists(), "kill point {cut}: stale tmp must be swept");
        }

        // Crash state: rename completed, crash before anything else.
        std::fs::write(&path, &finished).unwrap();
        let reader = ColumnarReader::open(&path).unwrap();
        assert_eq!(reader.len(), 6, "post-rename store is the appended one");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_tracks_content_changes() {
        let (s, cat) = sample();
        let path = temp("fingerprint");
        write_columnar(&path, &s, &cat).unwrap();
        let before = ColumnarReader::open(&path).unwrap().fingerprint();
        // Identical bytes → identical fingerprint.
        assert_eq!(before, ColumnarReader::open(&path).unwrap().fingerprint());

        let mut appender = ColumnarAppender::open(&path).unwrap();
        appender.append_instant(&[fid(1)]).unwrap();
        appender.finish().unwrap();
        let after = ColumnarReader::open(&path).unwrap().fingerprint();
        assert_ne!(before, after, "an append must change the fingerprint");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn appender_rejects_features_past_the_width() {
        let (s, cat) = sample();
        let path = temp("append-wide");
        write_columnar(&path, &s, &cat).unwrap();
        let mut appender = ColumnarAppender::open(&path).unwrap();
        let err = appender.append_instant(&[fid(1000)]).unwrap_err();
        assert!(matches!(err, Error::UnknownFeature { id: 1000 }));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn appender_refuses_a_corrupt_store() {
        let (s, cat) = sample();
        let path = temp("append-corrupt");
        write_columnar(&path, &s, &cat).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(ColumnarAppender::open(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    // ---- Byte-flip / truncation fuzz (satellite: never mis-mine). ----

    #[test]
    fn every_single_byte_flip_is_rejected_with_an_offset() {
        let (s, cat) = sample();
        let bytes = encode_columnar(&s, &cat);
        let words_at = ColumnarReader::from_bytes(&bytes).unwrap().header.len();
        let count_at = bytes.len() - TRAILER;
        for idx in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = bytes.clone();
                bad[idx] ^= flip;
                let err = ColumnarReader::from_bytes(&bad)
                    .err()
                    .unwrap_or_else(|| panic!("flip {flip:#x} at {idx} accepted"))
                    .to_string();
                assert!(
                    err.contains("offset"),
                    "flip at {idx}: error names no offset: {err}"
                );
                // v2 words and the stored checksum are covered by the
                // checksum alone; the header and the count are structural
                // first, so either check may name them.
                if (words_at..count_at).contains(&idx) || idx >= count_at + 8 {
                    assert!(err.contains("checksum mismatch"), "flip at {idx}: {err}");
                }
            }
        }
    }

    #[test]
    fn word_hash_catches_every_single_word_change_and_resumes_anywhere() {
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let bytes: Vec<u8> = (0..37).flat_map(|_| next().to_le_bytes()).collect();
        let hash = |b: &[u8]| {
            let mut h = WordHash::new();
            h.update(b);
            h.finish()
        };
        let whole = hash(&bytes);
        // Resumable: any split into word-aligned pieces hashes the same.
        for cut in (0..=bytes.len()).step_by(8) {
            for cut2 in (cut..=bytes.len()).step_by(24) {
                let mut h = WordHash::new();
                h.update(&bytes[..cut]);
                h.update(&bytes[cut..cut2]);
                h.update(&bytes[cut2..]);
                assert_eq!(h.finish(), whole, "split at {cut}/{cut2}");
            }
        }
        // Any one word replaced, by any value, changes the hash.
        for w in 0..37 {
            for _ in 0..16 {
                let mut bad = bytes.clone();
                let old = u64::from_le_bytes(bad[w * 8..w * 8 + 8].try_into().unwrap());
                let new = next();
                if new == old {
                    continue;
                }
                bad[w * 8..w * 8 + 8].copy_from_slice(&new.to_le_bytes());
                assert_ne!(hash(&bad), whole, "word {w}");
            }
        }
        // Length is hashed: a trailing zero word is not a no-op.
        let mut longer = bytes.clone();
        longer.extend_from_slice(&[0; 8]);
        assert_ne!(hash(&longer), whole);
    }

    // ---- Version 1: a store written before the word hash. ----

    /// A 600-instant, 108-feature store written by the version-1 writer
    /// (`ppm generate --length 600 --period 12 --max-pat-length 4 --f1 8
    /// --seed 7`, then `ppm convert --to columnar`).
    const V1_FIXTURE: &[u8] = include_bytes!("../testdata/synthetic-p12-v1.ppmc");

    #[test]
    fn v1_store_opens_and_equals_its_v2_reconversion() {
        let v1 = ColumnarReader::from_bytes(V1_FIXTURE).unwrap();
        assert_eq!(v1.version(), 1);
        assert_eq!(v1.len(), 600);
        assert_eq!(v1.width(), 108);
        assert_ne!(v1.header.len() % 8, 0, "this v1 header is not word-aligned");
        let path = temp("v1-open");
        std::fs::write(&path, V1_FIXTURE).unwrap();
        let opened = ColumnarReader::open(&path).unwrap();
        assert_eq!(opened.version(), 1);
        assert_eq!(opened.fingerprint(), v1.fingerprint());
        assert_eq!(opened.view(), v1.view());
        std::fs::remove_file(&path).ok();

        let v2_bytes = columnar_bytes(v1.view(), v1.catalog());
        let v2 = ColumnarReader::from_bytes(&v2_bytes).unwrap();
        assert_eq!(v2.version(), 2);
        assert_eq!(v2.view(), v1.view());
        assert_eq!(v2.to_series(), v1.to_series());
        assert!(v2.catalog().iter().eq(v1.catalog().iter()));
        assert_ne!(v2.fingerprint(), v1.fingerprint(), "a different hash");
    }

    #[test]
    fn v1_appends_stay_v1_and_reload_as_extensions() {
        let path = temp("v1-append");
        std::fs::write(&path, V1_FIXTURE).unwrap();
        let resident = ColumnarReader::open(&path).unwrap();
        grow(&path, 24);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[4..8], &1u32.to_le_bytes(), "the append kept v1");
        assert_eq!(
            &bytes[..V1_FIXTURE.len() - TRAILER],
            &V1_FIXTURE[..V1_FIXTURE.len() - TRAILER]
        );

        // The grown v1 store reloads by resuming the FNV midstate.
        let rest = resident
            .read_past_load(&mut File::open(&path).unwrap())
            .unwrap()
            .expect("old prefix intact");
        assert!(
            resident.resume(&rest).is_some(),
            "growth takes the resume path"
        );
        let Reload::Extended(grown) = resident.reload(&path).unwrap() else {
            panic!("a grown v1 store must reload as an extension");
        };
        let reopened = ColumnarReader::open(&path).unwrap();
        assert_eq!(grown.version(), 1);
        assert_eq!(reopened.version(), 1);
        assert_eq!(grown.len(), 624);
        assert_eq!(grown.fingerprint(), reopened.fingerprint());
        assert_eq!(grown.view(), reopened.view());

        // A resident append chain resumes the v1 midstate too.
        let mut app = ColumnarAppender::open_resident(&path, &grown).unwrap();
        app.append_instant(&[fid(3), fid(100)]).unwrap();
        let preview = app.preview_fingerprint();
        let (n, extended) = app.finish_extending(&grown).unwrap();
        assert_eq!(n, 625);
        let reopened = ColumnarReader::open(&path).unwrap();
        assert_eq!(reopened.version(), 1);
        assert_eq!(reopened.fingerprint(), preview);
        assert_eq!(extended.fingerprint(), preview);
        assert_eq!(extended.view(), reopened.view());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_flips_are_rejected() {
        let words_at = ColumnarReader::from_bytes(V1_FIXTURE).unwrap().header.len();
        let mut bad = V1_FIXTURE.to_vec();
        bad[words_at + 8 * 300] ^= 0x04;
        let err = ColumnarReader::from_bytes(&bad).unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");
        // Every header and trailer byte, and a stride through the words.
        let n = V1_FIXTURE.len();
        let picks = (0..words_at)
            .chain((words_at..n - TRAILER).step_by(61))
            .chain(n - TRAILER..n);
        for idx in picks {
            let mut bad = V1_FIXTURE.to_vec();
            bad[idx] ^= 0xff;
            let err = ColumnarReader::from_bytes(&bad)
                .err()
                .unwrap_or_else(|| panic!("v1 flip at {idx} accepted"))
                .to_string();
            assert!(err.contains("offset"), "v1 flip at {idx}: {err}");
        }
    }

    #[test]
    fn every_truncation_is_rejected_with_an_offset() {
        let (s, cat) = sample();
        let bytes = encode_columnar(&s, &cat);
        for cut in 0..bytes.len() {
            let err = ColumnarReader::from_bytes(&bytes[..cut])
                .err()
                .unwrap_or_else(|| panic!("cut at {cut} accepted"));
            assert!(
                err.to_string().contains("offset"),
                "cut at {cut}: error names no offset: {err}"
            );
        }
    }

    #[test]
    fn structural_rejections_name_the_failed_field() {
        let (s, cat) = sample();
        let base = encode_columnar(&s, &cat);
        // Re-stamp the checksum after each structural edit so the named
        // structural check fires instead of the checksum gate.
        let restamp = |mut bytes: Vec<u8>| {
            let body = bytes.len() - 8;
            let mut h = Digest::for_version(VERSION);
            h.update(&bytes[..body]);
            let sum = h.finish().to_le_bytes();
            bytes[body..].copy_from_slice(&sum);
            bytes
        };

        let mut bad_magic = base.clone();
        bad_magic[0] = b'X';
        let err = ColumnarReader::from_bytes(&restamp(bad_magic)).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        assert!(err.to_string().contains("offset 0"), "{err}");

        let mut bad_version = base.clone();
        bad_version[4] = 99;
        let err = ColumnarReader::from_bytes(&restamp(bad_version)).unwrap_err();
        assert!(err.to_string().contains("unsupported version 99"), "{err}");
        assert!(err.to_string().contains("offset 4"), "{err}");

        let mut bad_wpi = base.clone();
        bad_wpi[16] = bad_wpi[16].wrapping_add(1);
        let err = ColumnarReader::from_bytes(&restamp(bad_wpi)).unwrap_err();
        assert!(err.to_string().contains("words-per-instant"), "{err}");
        assert!(err.to_string().contains("offset 16"), "{err}");

        // Lying instant count: the words section no longer adds up.
        let mut bad_count = base.clone();
        let count_off = base.len() - 16;
        bad_count[count_off] = bad_count[count_off].wrapping_add(1);
        let err = ColumnarReader::from_bytes(&restamp(bad_count)).unwrap_err();
        assert!(err.to_string().contains("words section"), "{err}");

        // Truncated trailer: cut into the final 16 bytes.
        let err = ColumnarReader::from_bytes(&base[..base.len() - 9]).unwrap_err();
        assert!(err.to_string().contains("offset"), "{err}");

        // v2 padding: 28 fixed bytes + "alpha", "beta", "gamma" with their
        // lengths is 54 bytes, so two zero bytes pad the words to 56.
        assert_eq!(ColumnarReader::from_bytes(&base).unwrap().header.len(), 56);
        assert_eq!(&base[54..56], &[0, 0]);
        for at in [54, 55] {
            let mut bad_pad = base.clone();
            bad_pad[at] = 0x20;
            let err = ColumnarReader::from_bytes(&restamp(bad_pad)).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("corrupt series file: non-zero header padding at offset {at}")
            );
        }
    }

    #[test]
    fn flipped_bitmap_word_is_caught_by_the_checksum() {
        let (s, cat) = sample();
        let bytes = encode_columnar(&s, &cat);
        // First word of the words section: right after the fixed header,
        // the three catalog names and the padding.
        let names_len: usize = ["alpha", "beta", "gamma"].iter().map(|n| 4 + n.len()).sum();
        let word0 = (FIXED_HEADER + names_len).next_multiple_of(8);
        let mut bad = bytes.clone();
        bad[word0] ^= 0x01;
        let err = ColumnarReader::from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = ColumnarReader::open("/nonexistent/definitely/missing.ppmc").unwrap_err();
        assert!(matches!(err, Error::Io(_)));
    }
}
