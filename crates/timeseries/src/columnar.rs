//! The binary columnar series store (`.ppmc`): an on-disk layout that *is*
//! the [`EncodedSeries`] layout, and the crate's one binary format.
//!
//! Every text mine re-parses its input, rebuilds the CSR series, and
//! re-packs the per-instant bitmaps before any counting starts. The
//! columnar store skips all of that: the file body is the encoded
//! cache's row-major `u64` words verbatim, so opening a `.ppmc` is one
//! streamed pass — the file goes through one block buffer, and each block
//! is hashed and decoded into a single word vector, with no whole-file
//! byte copy and zero per-row allocation — and the result is borrowed
//! straight out as an [`EncodedSeriesView`] that the vertical engine, the
//! shared multi-period scan, and the audit oracle consume directly.
//!
//! Layout, version 3 (all integers little-endian):
//!
//! ```text
//! offset 0   magic            [u8; 4] = b"PPMC"
//! offset 4   version          u32     = 3
//! offset 8   width            u64     feature-id universe (max id + 1)
//! offset 16  words_per_instant u64    must equal ⌈width/64⌉
//! offset 24  n_names          u32     catalog size
//! offset 28  names            n_names × (u32 len, bytes)
//! …          padding          zero bytes up to a multiple of 4096: H
//! H          commit slot 0    4096-byte block: seq, n_instants, checksum,
//!                             slot hash (u64 each), then ignored bytes
//! H+4096     commit slot 1    the same
//! H+8192     rows             n_instants × words_per_instant × u64,
//!                             row-major; bytes past them are an ignored,
//!                             uncommitted tail
//! ```
//!
//! The checksum is a four-lane word hash (see `WordHash`) over the header
//! words, then the committed rows, then `n_instants`: any single changed
//! word changes it, and it runs at memory speed where a byte-serial hash
//! cannot. The slots sit outside it. A slot is valid when its slot hash
//! (the word hash of a tag and its first three fields) checks and its
//! `seq` is odd for slot 1 and even for slot 0; the valid slot with the
//! highest `seq` is the store's commit. A store is written with its rows
//! committed in both slots (`seq` 0 and 1), so one damaged slot always
//! leaves a commit to open. A row-checksum mismatch under the chosen slot
//! is an error: the older slot is never tried silently.
//!
//! Version 2 has the same header, padded only to a multiple of 8, no
//! slots, and a trailer instead: `n_instants` at EOF−16 and the checksum
//! (the same word hash, over the bytes `[0, EOF−8)`) at EOF−8. Version 1
//! has no padding and an FNV-1a trailer checksum. Both are still read —
//! opened, mined, audited, reloaded — but take no appends: an appender
//! refuses them with [`Error::ReadOnlyVersion`] before it writes anything,
//! and `ppm convert` rewrites one as version 3.
//!
//! Every [`ColumnarReader`] keeps the checksum midstate over its header
//! and rows, so an appender built on a verified load hashes only the `k`
//! appended rows (`O(k)`), and [`ColumnarReader::reload`] checks a grown
//! version-3 file by comparing the old bytes and resuming the hash over
//! the new rows alone.
//!
//! **Publishing an append.** [`ColumnarAppender`] takes an exclusive
//! advisory lock on the file before it verifies the base, so two appenders
//! (a CLI and a daemon, say) never interleave, and holds it until it is
//! dropped. [`ColumnarAppender::finish`] writes in place, `O(appended)`
//! bytes in all: the new rows at the committed end, `fdatasync`, then the
//! next commit (`seq + 1`) over the *older* slot, `fdatasync`. A crash
//! before the slot write leaves the old commit, with the new rows as an
//! uncommitted tail; a torn slot write fails its slot hash, so the other
//! slot — the old commit — is opened, and [`ColumnarReader::commit`]
//! reports the rollback; a finished slot write commits the new rows,
//! which were synced first. Every state is exactly the old store or the
//! new one. The publish is one ordered plan of writes and syncs, which the
//! tests replay prefix by prefix.
//!
//! Corruption is rejected with a named byte offset (`Error::Corrupt`), the
//! same policy as the checkpoint format: a damaged header, a flipped
//! bitmap word, or a truncated store must never mis-mine. The header and
//! the commit (slots or trailer) are checked before the rows are read, the
//! checksum after. There is no partial recovery: an uncommitted tail is
//! ignored and a torn commit opens the older commit, but a damaged
//! committed row fails the whole store.
//!
//! **Out of core.** A [`ColumnarReader`] holds the rows in memory; a
//! [`ColumnarSource`] keeps only the header and commit, and streams the
//! committed rows from disk on every scan, re-verifying the same
//! checksum each time — the disk-resident series of the paper's §5.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Cursor, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};

use crate::catalog::{FeatureCatalog, FeatureId};
use crate::encoded::{EncodedSeries, EncodedSeriesView};
use crate::error::{Error, Result};
use crate::fnv::Fnv64;
use crate::series::{FeatureSeries, SeriesBuilder};
use crate::source::SeriesSource;

const MAGIC: &[u8; 4] = b"PPMC";
/// The version [`write_columnar`] writes: commit slots, in-place appends.
const VERSION: u32 = 3;
/// The second version: padded header, word-hash trailer.
const VERSION_V2: u32 = 2;
/// The first version: unpadded header, FNV-1a trailer.
const VERSION_V1: u32 = 1;
/// Fixed header bytes before the catalog names.
const FIXED_HEADER: usize = 4 + 4 + 8 + 8 + 4;
/// Version 1/2 trailer bytes: `n_instants` + checksum.
const TRAILER: usize = 8 + 8;
/// Version 3: the bytes each commit slot owns, and the header's alignment.
/// Two slots 4096 bytes apart never share a 4 KiB block, so one torn block
/// write cannot damage both.
const SLOT_BLOCK: usize = 4096;
/// Version 3: both commit slots.
const SLOTS: usize = 2 * SLOT_BLOCK;
/// Version 3: a slot's record, `seq, n_instants, checksum, slot hash`.
const SLOT_RECORD: usize = 4 * 8;
/// The first word a slot hash takes, so no other words hash alike.
const SLOT_TAG: u64 = u64::from_le_bytes(*b"PPMCSLOT");
/// Words per block when a file is streamed (open, validate, compare).
const BLOCK_WORDS: usize = 1 << 16;

/// The version-2/3 checksum: a resumable hash over little-endian `u64`
/// words, word `i` stepping lane `i mod 4`.
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

/// A store's running checksum, in its format version's hash.
#[derive(Debug, Clone)]
enum Digest {
    /// Version 1: FNV-1a over bytes.
    Fnv(Fnv64),
    /// Versions 2 and 3: the word hash.
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

    /// The checksum of a store whose header and rows hash to `self` and
    /// which holds `n_instants` rows.
    fn sealed(&self, n_instants: usize) -> u64 {
        let mut h = self.clone();
        h.update(&(n_instants as u64).to_le_bytes());
        h.finish()
    }
}

/// A version-3 commit record: which rows the store holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Commit {
    seq: u64,
    n_instants: u64,
    checksum: u64,
}

/// A version-3 store's two slots, `None` where a slot fails its check
/// (both `None` for versions 1 and 2).
type Slots = [Option<Commit>; 2];

impl Commit {
    /// The slot this commit lives in: `seq mod 2`, so each publish
    /// overwrites the older of the two.
    fn slot(&self) -> usize {
        (self.seq % 2) as usize
    }

    fn slot_hash(&self) -> u64 {
        let mut h = WordHash::new();
        for w in [SLOT_TAG, self.seq, self.n_instants, self.checksum] {
            h.push(w);
        }
        h.finish()
    }

    fn record(&self) -> [u8; SLOT_RECORD] {
        let mut r = [0u8; SLOT_RECORD];
        for (dst, w) in
            r.chunks_exact_mut(8)
                .zip([self.seq, self.n_instants, self.checksum, self.slot_hash()])
        {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        r
    }

    /// Decodes both slots from the `SLOTS` bytes that hold them.
    fn read_slots(block: &[u8]) -> Slots {
        [0, 1].map(|slot| {
            let mut w = le_words(&block[slot * SLOT_BLOCK..][..SLOT_RECORD]);
            let mut next = || w.next().expect("four words");
            let c = Commit {
                seq: next(),
                n_instants: next(),
                checksum: next(),
            };
            (next() == c.slot_hash() && c.slot() == slot).then_some(c)
        })
    }

    /// The newest valid commit.
    fn newest(slots: &Slots) -> Option<Commit> {
        slots.iter().flatten().max_by_key(|c| c.seq).copied()
    }
}

/// A version-3 store's commit, as [`ColumnarReader::commit`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitInfo {
    /// The commit's sequence number: 1 for a new store, one more per
    /// published append.
    pub seq: u64,
    /// The slot that holds it (`seq mod 2`).
    pub slot: usize,
    /// Whether the other slot fails its check. A torn commit write does
    /// that, so this load is the commit before an append that did not
    /// land: a rollback.
    pub rolled_back: bool,
}

/// Serializes `series` (and its catalog) into version-3 `.ppmc` bytes.
pub fn encode_columnar(series: &FeatureSeries, catalog: &FeatureCatalog) -> Vec<u8> {
    let encoded = EncodedSeries::encode(series);
    store_bytes(encoded.view(), catalog, VERSION)
}

/// The header's alignment: its padding ends on this boundary.
fn header_align(version: u32) -> usize {
    match version {
        VERSION_V1 => 1,
        VERSION_V2 => 8,
        _ => SLOT_BLOCK,
    }
}

/// Serializes `view` and `catalog` as a version-2 or version-3 store.
fn store_bytes(view: EncodedSeriesView<'_>, catalog: &FeatureCatalog, version: u32) -> Vec<u8> {
    let names: usize = catalog.iter().map(|(_, n)| n.len() + 4).sum();
    let header_len = (FIXED_HEADER + names).next_multiple_of(header_align(version));
    let slots = if version == VERSION { SLOTS } else { 0 };
    let mut buf = Vec::with_capacity(header_len + slots + view.bytes() + TRAILER);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&(view.width() as u64).to_le_bytes());
    buf.extend_from_slice(&(view.words_per_instant() as u64).to_le_bytes());
    buf.extend_from_slice(&(catalog.len() as u32).to_le_bytes());
    for (_, name) in catalog.iter() {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
    }
    buf.resize(header_len + slots, 0);
    for t in 0..view.len() {
        for &w in view.instant_words(t) {
            buf.extend_from_slice(&w.to_le_bytes());
        }
    }
    let mut h = Digest::for_version(version);
    h.update(&buf[..header_len]);
    h.update(&buf[header_len + slots..]);
    let checksum = h.sealed(view.len());
    if version == VERSION {
        for seq in [0, 1] {
            let c = Commit {
                seq,
                n_instants: view.len() as u64,
                checksum,
            };
            buf[header_len + c.slot() * SLOT_BLOCK..][..SLOT_RECORD].copy_from_slice(&c.record());
        }
    } else {
        buf.extend_from_slice(&(view.len() as u64).to_le_bytes());
        buf.extend_from_slice(&checksum.to_le_bytes());
    }
    buf
}

/// Writes `series` (and its catalog) to `path` as a version-3 store.
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

/// A store's layout as its header and commit state it: everything a rows
/// pass needs, checked before any row is read. [`ColumnarReader`]'s load
/// and every [`ColumnarSource`] scan stream the rows it names.
#[derive(Debug, Clone)]
struct Layout {
    version: u32,
    width: usize,
    words_per_instant: usize,
    /// The committed instant count.
    n_instants: usize,
    catalog: FeatureCatalog,
    /// The header, catalog and padding bytes, verbatim (the bytes before
    /// the slots, or before the rows of a slot-less store).
    header: Vec<u8>,
    /// The commit slots as read (version 3).
    slots: Slots,
    /// Where the rows start.
    rows_at: usize,
    /// Bytes of committed rows: `n_instants × words_per_instant × 8`.
    rows_bytes: usize,
    /// The commit's checksum over the header and the committed rows.
    checksum: u64,
    /// Where that checksum is stored, for the error that names it.
    checksum_at: usize,
}

impl Layout {
    /// The header-and-commit check over `len` bytes of `.ppmc` in `src`:
    /// the header and catalog, then the commit — a version-3 store's
    /// newest valid slot, an older store's trailer — and that the rows it
    /// commits fit the file. Leaves `src` at the first row. Every
    /// rejection names the byte offset of the failed check.
    fn read<R: Read + Seek>(src: &mut R, len: usize) -> Result<Self> {
        if len < FIXED_HEADER + TRAILER {
            return Err(corrupt(format!(
                "file too short at offset {len}: need at least {} header+trailer bytes",
                FIXED_HEADER + TRAILER
            )));
        }
        src.seek(SeekFrom::Start(0))?;
        let mut header = vec![0u8; FIXED_HEADER];
        read_at(src, &mut header, 0)?;
        let magic: [u8; 4] = header[0..4].try_into().expect("4 bytes");
        if &magic != MAGIC {
            return Err(corrupt(format!("bad magic {magic:?} at offset 0")));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if !(VERSION_V1..=VERSION).contains(&version) {
            return Err(corrupt(format!(
                "unsupported version {version} at offset 4"
            )));
        }
        // The bytes after the header: the slots, or the trailer.
        let tail = if version == VERSION { SLOTS } else { TRAILER };
        let header_end = len.checked_sub(tail).ok_or_else(|| {
            corrupt(format!(
                "file too short at offset {len}: version {version} needs {tail} bytes of commit"
            ))
        })?;
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
            if off + 4 > header_end {
                return Err(corrupt(format!(
                    "truncated catalog entry {i} at offset {off}"
                )));
            }
            header.resize(off + 4, 0);
            read_at(src, &mut header[off..], off)?;
            let name_len = u32::from_le_bytes(header[off..].try_into().expect("4 bytes")) as usize;
            let off = off + 4;
            if off + name_len > header_end {
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
        let off = header.len();
        let end = off.next_multiple_of(header_align(version));
        if end > header_end {
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

        // The commit: which rows the store holds, and their checksum.
        let at = header.len();
        let (slots, n_instants, checksum, checksum_at, rows_end) = if version == VERSION {
            let mut block = vec![0u8; SLOTS];
            read_at(src, &mut block, at)?;
            let slots = Commit::read_slots(&block);
            let c = Commit::newest(&slots)
                .ok_or_else(|| corrupt(format!("no valid commit slot at offset {at}")))?;
            let sum_at = at + c.slot() * SLOT_BLOCK + 16;
            (slots, c.n_instants as usize, c.checksum, sum_at, len)
        } else {
            let mut trailer = [0u8; TRAILER];
            src.seek(SeekFrom::Start(header_end as u64))?;
            read_at(src, &mut trailer, header_end)?;
            src.seek(SeekFrom::Start(at as u64))?;
            let (count, sum) = trailer.split_at(8);
            let n = u64::from_le_bytes(count.try_into().expect("8 bytes")) as usize;
            let sum = u64::from_le_bytes(sum.try_into().expect("8 bytes"));
            ([None; 2], n, sum, len - 8, header_end)
        };
        let rows_at = at + if version == VERSION { SLOTS } else { 0 };
        let rows_bytes = n_instants
            .checked_mul(words_per_instant)
            .and_then(|w| w.checked_mul(8))
            .ok_or_else(|| {
                corrupt(format!(
                    "instant count {n_instants} overflows the words section at offset {checksum_at}"
                ))
            })?;
        let have = rows_end - rows_at;
        if version == VERSION && have < rows_bytes {
            return Err(corrupt(format!(
                "committed rows end at offset {}, past the end of the file at offset {len} \
                 ({n_instants} instants × {words_per_instant} words)",
                rows_at + rows_bytes
            )));
        }
        if version != VERSION && have != rows_bytes {
            return Err(corrupt(format!(
                "words section is {have} bytes at offset {rows_at}, need {rows_bytes} \
                 ({n_instants} instants × {words_per_instant} words)"
            )));
        }

        Ok(Layout {
            version,
            width,
            words_per_instant,
            n_instants,
            catalog,
            header,
            slots,
            rows_at,
            rows_bytes,
            checksum,
            checksum_at,
        })
    }
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
    /// before the slots, or before the words of a slot-less store).
    header: Vec<u8>,
    /// The commit slots as verified (version 3).
    slots: Slots,
    /// Checksum state over the header and every row: what an append or a
    /// grown-file check resumes from instead of re-hashing the store.
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

/// A file that starts with a load's header and rows, as
/// [`ColumnarReader::read_past_load`] found it.
#[derive(Debug)]
struct Past {
    /// The file's length.
    len: usize,
    /// The file's commit slots (version 3).
    slots: Slots,
    /// Every byte after the load's rows.
    rest: Vec<u8>,
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
    /// `.ppmc` from `src`. [`Layout::read`] checks the header and the
    /// commit first, so the rows' size is known before any of them is
    /// read; then the rows stream through one block buffer, each block
    /// hashed and (with `decode`) decoded into the word vector; the load is
    /// returned only if the checksum matches. Without `decode` the words
    /// are verified but not kept — for the appender, which needs only the
    /// midstate.
    fn load<R: Read + Seek>(src: &mut R, len: usize, decode: bool) -> Result<Self> {
        let layout = Layout::read(src, len)?;
        let need = layout.rows_bytes;

        // The one pass over the rows: read a block, hash it, decode it.
        let mut midstate = Digest::for_version(layout.version);
        midstate.update(&layout.header);
        let rows_end = layout.rows_at + need;
        let mut words = Vec::with_capacity(if decode { need / 8 } else { 0 });
        let mut block = vec![0u8; need.min(BLOCK_WORDS * 8)];
        let mut at = layout.rows_at;
        while at < rows_end {
            let bytes = &mut block[..(rows_end - at).min(BLOCK_WORDS * 8)];
            read_at(src, bytes, at)?;
            midstate.update(bytes);
            if decode {
                words.extend(le_words(bytes));
            }
            at += bytes.len();
        }
        if midstate.sealed(layout.n_instants) != layout.checksum {
            return Err(corrupt(format!(
                "checksum mismatch at offset {}",
                layout.checksum_at
            )));
        }
        Ok(ColumnarReader {
            version: layout.version,
            width: layout.width,
            words_per_instant: layout.words_per_instant,
            n_instants: layout.n_instants,
            words,
            catalog: layout.catalog,
            header: layout.header,
            slots: layout.slots,
            midstate,
            file_bytes: len,
            checksum: layout.checksum,
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

    /// The store's format version: 3 for every store this crate writes
    /// with [`write_columnar`], 2 or 1 for an older, read-only store.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// A version-3 store's commit (`None` for versions 1 and 2).
    pub fn commit(&self) -> Option<CommitInfo> {
        Commit::newest(&self.slots).map(|c| CommitInfo {
            seq: c.seq,
            slot: c.slot(),
            rolled_back: self.slots.iter().any(Option::is_none),
        })
    }

    /// Bytes past a version-3 store's committed rows: the uncommitted tail
    /// an append that did not commit left behind (0 for versions 1 and 2).
    pub fn uncommitted_bytes(&self) -> usize {
        if self.version == VERSION {
            self.file_bytes - self.committed_end()
        } else {
            0
        }
    }

    /// Where the rows start.
    fn rows_at(&self) -> usize {
        self.header.len() + if self.version == VERSION { SLOTS } else { 0 }
    }

    /// Where the committed rows end.
    fn committed_end(&self) -> usize {
        self.rows_at() + self.n_instants * self.words_per_instant * 8
    }

    /// The store's content fingerprint: the verified checksum (its
    /// version's hash over the header and the committed rows). Two stores
    /// with the same fingerprint hold byte-identical headers, catalogs,
    /// and bitmap rows, so the fingerprint is a sound cache key for results
    /// derived from this store; any append or rewrite changes it, and a
    /// commit slot's `seq` does not enter it.
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

    /// Brings this load up to `ahead`, a later load of the same store that
    /// this one is a prefix of: copies only the rows this load lacks and
    /// takes `ahead`'s commit state, so a [`Growth`] built on `ahead`
    /// applies to this load afterwards. The prefix is the caller's
    /// guarantee and is not compared; `ahead` is refused with
    /// [`Error::Corrupt`], leaving this load untouched, if its header (and
    /// with it the version, the row width or the catalog) differs or it
    /// holds fewer instants.
    ///
    /// Returns whether the rows had to move to a larger allocation; one is
    /// reserved with room to double, as [`Growth::extend`] does.
    pub fn catch_up_to(&mut self, ahead: &ColumnarReader) -> Result<bool> {
        if self.header != ahead.header || self.n_instants > ahead.n_instants {
            return Err(corrupt(format!(
                "cannot catch a load of {} instants up to a load of {} instants: \
                 the headers differ or the target is behind",
                self.n_instants, ahead.n_instants
            )));
        }
        let moved = reserve_doubled(&mut self.words, ahead.words.len());
        self.words
            .extend_from_slice(&ahead.words[self.n_instants * self.words_per_instant..]);
        self.n_instants = ahead.n_instants;
        self.checksum = ahead.checksum;
        self.midstate = ahead.midstate.clone();
        self.slots = ahead.slots;
        self.file_bytes = ahead.file_bytes;
        Ok(moved)
    }

    /// Re-reads the store at `path` and judges it against this load —
    /// compare, then resume, then fall back:
    ///
    /// - a file byte-for-byte equal to this load (header, catalog, words,
    ///   and the same trailer or newest commit slot) is
    ///   [`Reload::Unchanged`] without hashing anything;
    /// - a version-3 file that starts with this load's header and words
    ///   and commits more rows is checked by resuming the checksum from
    ///   this load's midstate over only the new rows: [`Reload::Extended`];
    /// - anything else — a version-1/2 file another writer grew included —
    ///   gets the full validating [`Self::open`], so a corrupt file fails
    ///   with the same error, and a valid one is classified by fingerprint
    ///   and [`Self::extends`].
    ///
    /// The compare streams the file in blocks: only the bytes past this
    /// load are buffered. Byte equality with a load that was
    /// checksum-verified when it was taken is at least as strong as a
    /// re-hash: a re-hash could only miss a change that collides in 64
    /// bits, the compare misses none.
    pub fn reload(&self, path: impl AsRef<Path>) -> Result<Reload> {
        let path = path.as_ref();
        if let Some(past) = self.read_past_load(&mut File::open(path)?)? {
            if self.is_current(&past) {
                return Ok(Reload::Unchanged);
            }
            if let Some(grown) = self.resume(&past) {
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

    /// A slot-less load's trailer bytes: instant count, then checksum.
    fn trailer(&self) -> [u8; TRAILER] {
        let mut t = [0u8; TRAILER];
        t[..8].copy_from_slice(&(self.n_instants as u64).to_le_bytes());
        t[8..].copy_from_slice(&self.checksum.to_le_bytes());
        t
    }

    /// Whether a file that starts with this load commits exactly it: the
    /// same newest commit slot (bytes past the committed rows are an
    /// ignored tail), or, without slots, the same trailer.
    fn is_current(&self, past: &Past) -> bool {
        if self.version == VERSION {
            Commit::newest(&past.slots) == Commit::newest(&self.slots)
        } else {
            past.rest == self.trailer()
        }
    }

    /// Streams `file` from its start against this load's header and
    /// words, one block at a time. `Some` — the file's commit slots and
    /// every byte after the words — when the file starts with them
    /// verbatim; `None` when it does not (including a file that shrinks
    /// while it is read).
    fn read_past_load(&self, file: &mut File) -> std::io::Result<Option<Past>> {
        let len = file.metadata()?.len() as usize;
        let loaded = self.rows_at() + self.words.len() * 8;
        let trailer = if self.version == VERSION { 0 } else { TRAILER };
        if len < loaded + trailer {
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
        let mut slots = [None; 2];
        if self.version == VERSION {
            let bytes = &mut block[..SLOTS];
            if !fill(bytes)? {
                return Ok(None);
            }
            slots = Commit::read_slots(bytes);
        }
        for words in self.words.chunks(BLOCK_WORDS) {
            let bytes = &mut block[..words.len() * 8];
            if !fill(bytes)? || !words_equal(bytes, words) {
                return Ok(None);
            }
        }
        let mut rest = vec![0u8; len - loaded];
        Ok(fill(&mut rest)?.then_some(Past { len, slots, rest }))
    }

    /// This load plus the whole instants that follow it in `past`,
    /// verified by resuming the checksum over the new rows alone; `None`
    /// if `past` commits anything else, or has no commit slots (a
    /// version-1/2 file: the caller's full validation judges it).
    fn resume(&self, past: &Past) -> Option<ColumnarReader> {
        let c = Commit::newest(&past.slots)?;
        let row_bytes = self.words_per_instant * 8;
        if row_bytes == 0 {
            return None;
        }
        let n_instants = usize::try_from(c.n_instants).ok()?;
        let added = n_instants.checked_sub(self.n_instants)? * row_bytes;
        let new = past.rest.get(..added)?;
        if new.is_empty() {
            return None;
        }
        let mut midstate = self.midstate.clone();
        midstate.update(new);
        if midstate.sealed(n_instants) != c.checksum {
            return None;
        }
        let growth = Growth {
            base_fingerprint: self.checksum,
            words: le_words(new).collect(),
            n_instants,
            checksum: c.checksum,
            midstate,
            slots: past.slots,
            file_bytes: past.len,
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

/// A disk-resident [`SeriesSource`] over a `.ppmc` store: the paper's
/// §5 setting, where every scan is a pass over the file.
///
/// [`Self::open`] runs only the header-and-commit check; no row is read
/// or kept. Each [`SeriesSource::scan`] reopens the file and streams the
/// committed rows through one block buffer, hashing the header and the
/// rows with the store's own checksum and decoding each block through an
/// [`EncodedSeriesView`]. The checksum is checked at the end of every
/// scan, so a store damaged while a multi-scan mine is in flight fails
/// that scan with [`Error::Corrupt`], and a file cut short under it fails
/// with [`Error::Truncated`]; either names the scan.
///
/// A scan reads the rows the store committed when it was opened. A
/// version-3 append never writes over committed rows, so appends that
/// land during a mine are ignored until the next open.
#[derive(Debug)]
pub struct ColumnarSource {
    path: PathBuf,
    layout: Layout,
    scans: usize,
}

impl ColumnarSource {
    /// Opens the store at `path`: checks its header and commit only.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let len = file.metadata()?.len() as usize;
        let layout = Layout::read(&mut BufReader::new(&file), len)?;
        Ok(ColumnarSource {
            path,
            layout,
            scans: 0,
        })
    }

    /// The embedded feature catalog.
    pub fn catalog(&self) -> &FeatureCatalog {
        &self.layout.catalog
    }
}

impl SeriesSource for ColumnarSource {
    fn instant_count(&self) -> usize {
        self.layout.n_instants
    }

    fn width(&self) -> usize {
        self.layout.width
    }

    fn scan(&mut self, visit: &mut dyn FnMut(usize, &[FeatureId])) -> Result<()> {
        let _span = ppm_observe::span("storage.scan");
        self.scans += 1;
        let (scan, layout) = (self.scans, &self.layout);
        let file = File::open(&self.path)?;
        let fill = |buf: &mut [u8], at: usize| {
            file.read_exact_at(buf, at as u64).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    Error::Truncated {
                        detail: format!(
                            "scan {scan}: the file ends before offset {}, where its \
                             committed rows end",
                            layout.rows_at + layout.rows_bytes
                        ),
                    }
                } else {
                    e.into()
                }
            })
        };
        let mut digest = Digest::for_version(layout.version);
        let mut header = vec![0u8; layout.header.len()];
        fill(&mut header, 0)?;
        digest.update(&header);

        // Whole rows per block, so each block decodes as a view.
        let n = layout.n_instants;
        let row_bytes = layout.words_per_instant * 8;
        let block_rows = (BLOCK_WORDS * 8)
            .checked_div(row_bytes)
            .map_or(n, |rows| rows.max(1));
        let mut block = vec![0u8; block_rows.min(n) * row_bytes];
        let mut words = Vec::with_capacity(block.len() / 8);
        let mut features = Vec::new();
        let mut t = 0;
        while t < n {
            let rows = block_rows.min(n - t);
            let bytes = &mut block[..rows * row_bytes];
            fill(bytes, layout.rows_at + t * row_bytes)?;
            digest.update(bytes);
            words.clear();
            words.extend(le_words(bytes));
            let view = EncodedSeriesView::new(layout.width, rows, &words);
            for i in 0..rows {
                features.clear();
                features.extend(view.features_at(i));
                visit(t + i, &features);
            }
            t += rows;
        }
        if digest.sealed(n) != layout.checksum {
            return Err(corrupt(format!(
                "checksum mismatch at offset {} on scan {scan}",
                layout.checksum_at
            )));
        }
        Ok(())
    }

    fn scans_performed(&self) -> usize {
        self.scans
    }
}

/// Incremental segment arrival: appends encoded rows to an existing
/// version-3 `.ppmc` file with crash-safe publication.
///
/// An appender is a verified load plus pending rows, holding the file's
/// exclusive append lock from open until it is dropped. It resumes the
/// load's checksum midstate, so each appended instant costs one row of
/// hashing: the hash cost of an append is O(new rows). [`Self::open`]
/// validates the file once; [`Self::open_resident`] hashes nothing when
/// the file is byte-for-byte a load the caller already holds. Either way
/// the appender keeps the opened file, not a copy of it. Both refuse a
/// version-1/2 store with [`Error::ReadOnlyVersion`], releasing the lock
/// and writing nothing. [`Self::finish`] publishes in place — new rows,
/// sync, commit slot, sync (see the module docs). A crash (or `kill -9`)
/// at any point leaves either the prior store or the finished store on
/// disk — both openable — never a hybrid.
#[derive(Debug)]
pub struct ColumnarAppender {
    /// The opened store, locked for appending. Its header and committed
    /// rows were verified at open; the publish writes through this handle.
    file: File,
    /// Where the committed rows end: where the pending rows are written.
    prefix_len: u64,
    /// The file's length as opened.
    file_len: u64,
    /// The offset of slot 0.
    slots_at: u64,
    /// The commit slots as verified.
    slots: Slots,
    /// Checksum state over the verified bytes plus any pending rows.
    hash: Digest,
    width: usize,
    words_per_instant: usize,
    n_instants: usize,
    /// Encoded rows not yet written, as raw LE bytes.
    pending: Vec<u8>,
    /// The fingerprint of the store as opened, before any append.
    opened_fingerprint: u64,
    /// The verified load's feature catalog.
    catalog: FeatureCatalog,
}

/// One step of a publish. [`ColumnarAppender::finish`] runs its plan
/// (`ColumnarAppender::plan`) in order, and the tests replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Step {
    /// Write `bytes` at offset `at` of the store.
    Write { at: u64, bytes: Vec<u8> },
    /// Flush the store's written data to disk (`fdatasync`).
    Sync,
}

/// Opens `path` for reading and writing and takes its exclusive append
/// lock, waiting while another appender holds it.
fn lock_store(path: &Path) -> Result<File> {
    loop {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.lock()?;
        // Something may rename a new file over `path` (a `ppm convert`
        // into place, say) while this waits; a lock won on the file it
        // replaced guards nothing, so lock the new one.
        let (held, named) = (file.metadata()?, std::fs::metadata(path)?);
        if (held.dev(), held.ino()) == (named.dev(), named.ino()) {
            return Ok(file);
        }
    }
}

impl ColumnarAppender {
    /// Opens `path` for appending: takes the file's append lock, then
    /// validates the existing contents (one checksum pass).
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::verify(lock_store(path.as_ref())?)
    }

    /// Opens `path` for appending on top of `resident`, a verified load of
    /// it. Once the append lock is held, if the file is byte-for-byte
    /// `resident`'s load (a streamed compare, see
    /// [`ColumnarReader::reload`]), the appender resumes `resident`'s
    /// checksum midstate and hashes nothing of the existing store. Any
    /// mismatch falls back to [`Self::open`]'s full validation — a corrupt
    /// file is rejected with the same error, and a valid but different one
    /// opens (so [`Self::finish_growth`] with `resident` then refuses it
    /// before writing).
    pub fn open_resident(path: impl AsRef<Path>, resident: &ColumnarReader) -> Result<Self> {
        let mut file = lock_store(path.as_ref())?;
        match resident.read_past_load(&mut file)? {
            Some(past) if resident.is_current(&past) => {
                Self::on(file, resident, resident.catalog.clone(), past.len)
            }
            _ => Self::verify(file),
        }
    }

    /// An appender on `file` after a full validation of it.
    fn verify(file: File) -> Result<Self> {
        let mut base = ColumnarReader::load_file(&file, false)?;
        let catalog = std::mem::take(&mut base.catalog);
        Self::on(file, &base, catalog, base.file_bytes)
    }

    /// An appender on `file`, `len` bytes long, verified to hold `base`
    /// (whose `words` may be left undecoded) with `catalog`. A version-1/2
    /// `base` is refused, and dropping `file` releases the lock.
    fn on(file: File, base: &ColumnarReader, catalog: FeatureCatalog, len: usize) -> Result<Self> {
        if base.version != VERSION {
            return Err(Error::ReadOnlyVersion {
                version: base.version,
            });
        }
        Ok(ColumnarAppender {
            file,
            prefix_len: base.committed_end() as u64,
            file_len: len as u64,
            slots_at: base.header.len() as u64,
            slots: base.slots,
            hash: base.midstate.clone(),
            width: base.width,
            words_per_instant: base.words_per_instant,
            n_instants: base.n_instants,
            pending: Vec::new(),
            opened_fingerprint: base.checksum,
            catalog,
        })
    }

    /// The feature catalog of the store as verified at open: what feature
    /// names resolve against while the append lock is held.
    pub fn catalog(&self) -> &FeatureCatalog {
        &self.catalog
    }

    /// The fingerprint of the store as it was opened, before any append.
    pub fn opened_fingerprint(&self) -> u64 {
        self.opened_fingerprint
    }

    /// The fingerprint the store *will* have once [`Self::finish`]
    /// publishes the pending rows — sealed from the running checksum
    /// state (the store's own hash, resumed over the pending rows) without
    /// touching the file. Lets a live reader adopt the appended state (see
    /// [`Self::finish_growth`]) and lets caches be re-keyed before the
    /// publish lands.
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

    /// The commit the publish writes: the next `seq`, over the older slot.
    fn next_commit(&self) -> Commit {
        let last = Commit::newest(&self.slots).expect("a verified version-3 load has a commit");
        Commit {
            seq: last.seq + 1,
            n_instants: self.n_instants as u64,
            checksum: self.preview_fingerprint(),
        }
    }

    /// The publish, as the ordered writes and syncs [`Self::finish`] runs:
    /// the pending rows at the committed end, sync, the next commit over
    /// the older slot, sync.
    fn plan(&self) -> Vec<Step> {
        let next = self.next_commit();
        vec![
            Step::Write {
                at: self.prefix_len,
                bytes: self.pending.clone(),
            },
            Step::Sync,
            Step::Write {
                at: self.slots_at + (next.slot() * SLOT_BLOCK) as u64,
                bytes: next.record().to_vec(),
            },
            Step::Sync,
        ]
    }

    /// Publishes the appended store crash-safely, in place: `O(appended)`
    /// bytes and two `fdatasync`s, no temp file and no rename. Returns the
    /// new total instant count.
    pub fn finish(self) -> Result<usize> {
        self.publish(|_| Ok(()))
    }

    /// [`Self::finish`], calling `before` ahead of each step of the plan;
    /// an error from it fails the publish there, as the step itself
    /// failing would.
    fn publish(self, mut before: impl FnMut(&Step) -> std::io::Result<()>) -> Result<usize> {
        for step in &self.plan() {
            before(step)?;
            match step {
                Step::Write { at, bytes } => self.file.write_all_at(bytes, *at)?,
                Step::Sync => self.file.sync_data()?,
            }
        }
        Ok(self.n_instants)
    }

    /// [`Self::finish`], keeping what the caller needs to bring a loaded
    /// reader up to the published file: the appended rows and the new
    /// commit state, as a [`Growth`].
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
        let next = self.next_commit();
        let mut slots = self.slots;
        slots[next.slot()] = Some(next);
        let growth = Growth {
            base_fingerprint: self.opened_fingerprint,
            words: le_words(&self.pending).collect(),
            n_instants: self.n_instants,
            checksum: next.checksum,
            midstate: self.hash.clone(),
            slots,
            file_bytes: (self.prefix_len as usize + self.pending.len()).max(self.file_len as usize),
        };
        self.finish()?;
        Ok(growth)
    }
}

/// Makes room in `words` for `need` words. When that needs a larger
/// allocation, reserves room for `2 × need`, so the appends that follow
/// fit in place, and returns `true`: the words were copied.
fn reserve_doubled(words: &mut Vec<u64>, need: usize) -> bool {
    if words.capacity() >= need {
        return false;
    }
    words.reserve_exact(2 * need - words.len());
    true
}

/// Whole instants appended to a verified load, with the commit state
/// they give the store: what brings a [`ColumnarReader`] of the base up
/// to the grown file without re-reading it.
#[derive(Debug)]
pub struct Growth {
    base_fingerprint: u64,
    words: Vec<u64>,
    n_instants: usize,
    checksum: u64,
    /// Checksum state over the grown store's header and rows.
    midstate: Digest,
    /// The grown store's commit slots (version 3).
    slots: Slots,
    /// The grown file's length.
    file_bytes: usize,
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
        base.file_bytes = self.file_bytes;
        base.n_instants = self.n_instants;
        base.checksum = self.checksum;
        base.midstate = self.midstate.clone();
        base.slots = self.slots;
        Ok(())
    }

    /// A grown copy of `base`; `base` itself is left as it is.
    ///
    /// The copy is allocated with room to double, so the appends that
    /// follow grow it in place. Filled exactly, the next one would
    /// reallocate it — a third copy of the store while a query still
    /// holds `base` — and the allocator may keep the freed copy.
    pub fn extend(&self, base: &ColumnarReader) -> Result<ColumnarReader> {
        self.check_base(base)?;
        let mut words = Vec::new();
        reserve_doubled(&mut words, base.words.len() + self.words.len());
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
    use std::path::PathBuf;

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

    /// `s` as a version-2 store: the slot-less, read-only layout.
    fn v2_bytes(s: &FeatureSeries, cat: &FeatureCatalog) -> Vec<u8> {
        store_bytes(EncodedSeries::encode(s).view(), cat, VERSION_V2)
    }

    /// A version-3 store's bytes with both slot records zeroed: its
    /// header, rows and tail, whatever its commits' `seq`.
    fn unslotted(bytes: &[u8]) -> Vec<u8> {
        let at = ColumnarReader::from_bytes(bytes).unwrap().header.len();
        let mut b = bytes.to_vec();
        b[at..at + SLOTS].fill(0);
        b
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
    fn finish_growth_extends_a_copy_that_matches_a_fresh_open_bit_for_bit() {
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
        let growth = app.finish_growth(&resident).unwrap();
        assert_eq!(growth.instants(), 7);
        let extended = growth.extend(&resident).unwrap();

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
    fn finish_growth_rejects_a_mismatched_resident() {
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
        assert!(app.finish_growth(&other).is_err());
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

    /// `s` plus `rows` single-feature instants, the ones [`grow`] appends.
    fn grown_by(s: &FeatureSeries, rows: u32) -> FeatureSeries {
        let mut b = SeriesBuilder::new();
        for t in 0..s.len() {
            b.push_instant(s.instant(t).iter().copied());
        }
        for r in 0..rows {
            b.push_instant([fid(r % 3)]);
        }
        b.finish()
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
        std::fs::write(&path, v2_bytes(&s, &cat)).unwrap();
        let resident = ColumnarReader::open(&path).unwrap();
        let words_at = resident.header.len();
        let grown = v2_bytes(&grown_by(&s, 4), &cat);
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
        let mut bad = v2_bytes(&s, &cat);
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
            let past = resident
                .read_past_load(&mut File::open(&path).unwrap())
                .unwrap()
                .expect("the file starts with the extended reader");
            assert!(
                resident.is_current(&past) && past.rest.is_empty(),
                "round {round}: the extended reader is byte-for-byte the file"
            );
            let mut app = ColumnarAppender::open_resident(&path, &resident).unwrap();
            app.append_instant(&[fid(round % 3)]).unwrap();
            whole.push_instant([fid(round % 3)]);
            resident = app
                .finish_growth(&resident)
                .unwrap()
                .extend(&resident)
                .unwrap();
        }
        let whole = whole.finish();
        assert_eq!(
            unslotted(&std::fs::read(&path).unwrap()),
            unslotted(&encode_columnar(&whole, &cat))
        );
        let reopened = ColumnarReader::open(&path).unwrap();
        assert_eq!(reopened.commit().unwrap().seq, 6, "one commit per append");
        assert_eq!(resident.commit(), reopened.commit());
        assert_eq!(resident.fingerprint(), reopened.fingerprint());
        assert_eq!(resident.view(), reopened.view());

        // A file that is not the resident load: corrupt is rejected with
        // the full open's error; valid-but-different opens, and
        // finish_growth refuses to splice onto the stale resident.
        let good = std::fs::read(&path).unwrap();
        let mut bad = good.clone();
        bad[resident.rows_at()] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        let err = ColumnarAppender::open_resident(&path, &resident).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        std::fs::write(&path, &good).unwrap();
        grow(&path, 1);
        let grown = std::fs::read(&path).unwrap();
        let mut app = ColumnarAppender::open_resident(&path, &resident).unwrap();
        app.append_instant(&[fid(0)]).unwrap();
        assert!(app.finish_growth(&resident).is_err());
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
        let copy = growth.extend(&stale).unwrap();
        assert_eq!(copy.view(), reopened.view());
        assert!(
            copy.words.capacity() >= 2 * copy.words.len(),
            "room to grow"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A lagging load of a store catches up to a later load of it by
    /// copying the rows it lacks and taking its commit state — after
    /// which a growth built on the later load applies to it. A load of
    /// another store, or one that is ahead, is refused untouched.
    #[test]
    fn catch_up_to_copies_the_missing_rows_and_refuses_other_stores() {
        let (s, cat) = sample();
        let path = temp("catch-up");
        write_columnar(&path, &s, &cat).unwrap();
        let mut lagging = ColumnarReader::open(&path).unwrap();
        grow(&path, 3);
        let ahead = ColumnarReader::open(&path).unwrap();
        let mut app = ColumnarAppender::open_resident(&path, &ahead).unwrap();
        app.append_instant(&[fid(1)]).unwrap();
        let growth = app.finish_growth(&ahead).unwrap();

        let mut foreign = {
            let mut other = FeatureCatalog::new();
            other.intern("zeta");
            ColumnarReader::from_bytes(&encode_columnar(&s, &other)).unwrap()
        };
        let err = foreign.catch_up_to(&ahead).unwrap_err();
        assert!(err.to_string().contains("headers differ"), "{err}");
        assert_eq!(foreign.len(), 4, "refused untouched");
        let err = ahead.clone().catch_up_to(&lagging).unwrap_err();
        assert!(err.to_string().contains("target is behind"), "{err}");

        assert!(lagging.catch_up_to(&ahead).unwrap(), "an exact load moves");
        assert!(
            lagging.words.capacity() >= 2 * ahead.words.len(),
            "room to grow"
        );
        assert_eq!(lagging.fingerprint(), ahead.fingerprint());
        assert_eq!(lagging.view(), ahead.view());
        growth.apply_to(&mut lagging).unwrap();
        let reopened = ColumnarReader::open(&path).unwrap();
        assert_eq!(lagging.fingerprint(), reopened.fingerprint());
        assert_eq!(lagging.file_bytes(), reopened.file_bytes());
        assert_eq!(lagging.commit(), reopened.commit());
        assert_eq!(lagging.view(), reopened.view());
        assert!(!lagging.catch_up_to(&reopened).unwrap(), "nothing to copy");
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
            unslotted(&std::fs::read(&path).unwrap()),
            unslotted(&encode_columnar(&whole, &cat)),
            "appended header and rows must equal a fresh encode"
        );
        assert_eq!(reader.commit().unwrap().seq, 2);
        std::fs::remove_file(path).ok();
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
        let last_row_byte = bytes.len() - 1;
        bytes[last_row_byte] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(ColumnarAppender::open(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    // ---- Byte-flip / truncation fuzz (satellite: never mis-mine). ----

    #[test]
    fn every_single_byte_flip_is_rejected_with_an_offset() {
        let (s, cat) = sample();
        let bytes = v2_bytes(&s, &cat);
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

        let v2_bytes = store_bytes(v1.view(), v1.catalog(), VERSION_V2);
        let v2 = ColumnarReader::from_bytes(&v2_bytes).unwrap();
        assert_eq!(v2.version(), 2);
        assert_eq!(v2.view(), v1.view());
        assert_eq!(v2.to_series(), v1.to_series());
        assert!(v2.catalog().iter().eq(v1.catalog().iter()));
        assert_ne!(v2.fingerprint(), v1.fingerprint(), "a different hash");
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
        let base = v2_bytes(&s, &cat);
        // Re-stamp the checksum after each structural edit so the named
        // structural check fires instead of the checksum gate.
        let restamp = |mut bytes: Vec<u8>| {
            let body = bytes.len() - 8;
            let mut h = Digest::for_version(VERSION_V2);
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
        // First word of the rows: right after the fixed header, the three
        // catalog names, the padding and the two commit slots.
        let names_len: usize = ["alpha", "beta", "gamma"].iter().map(|n| 4 + n.len()).sum();
        let word0 = (FIXED_HEADER + names_len).next_multiple_of(SLOT_BLOCK) + SLOTS;
        let mut bad = bytes.clone();
        bad[word0] ^= 0x01;
        let err = ColumnarReader::from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    // ---- Version 3: commit slots and the in-place publish. ----

    /// Writes `b` at `at` of an in-memory file, growing it as a disk would.
    fn write_at(file: &mut Vec<u8>, at: usize, b: &[u8]) {
        if file.len() < at + b.len() {
            file.resize(at + b.len(), 0);
        }
        file[at..at + b.len()].copy_from_slice(b);
    }

    /// Replays `steps` onto `file` as the disk would hold them after a
    /// crash right past them: every write landed, a sync changes no byte.
    fn replay(file: &mut Vec<u8>, steps: &[Step]) {
        for step in steps {
            if let Step::Write { at, bytes } = step {
                write_at(file, *at as usize, bytes);
            }
        }
    }

    /// Whether `r` holds exactly `want`'s content.
    fn same(r: &ColumnarReader, want: &ColumnarReader) -> bool {
        r.fingerprint() == want.fingerprint() && r.view() == want.view()
    }

    #[test]
    fn v3_store_commits_its_rows_in_both_slots() {
        let (s, cat) = sample();
        let bytes = encode_columnar(&s, &cat);
        let r = ColumnarReader::from_bytes(&bytes).unwrap();
        assert_eq!(r.version(), 3);
        assert_eq!(
            r.header.len(),
            SLOT_BLOCK,
            "54 header bytes pad to one block"
        );
        assert_eq!(bytes.len(), SLOT_BLOCK + SLOTS + 4 * 8);
        let slots = Commit::read_slots(&bytes[SLOT_BLOCK..][..SLOTS]);
        assert_eq!(slots.map(|c| c.map(|c| c.seq)), [Some(0), Some(1)]);
        assert!(slots
            .iter()
            .flatten()
            .all(|c| c.n_instants == 4 && c.checksum == r.fingerprint()));
        assert_eq!(
            r.commit(),
            Some(CommitInfo {
                seq: 1,
                slot: 1,
                rolled_back: false
            })
        );
        assert_eq!(r.uncommitted_bytes(), 0);
        // Neither an empty slot block nor a record in the wrong slot is a
        // commit; without one the store does not open.
        assert_eq!(Commit::read_slots(&[0; SLOTS]), [None, None]);
        let mut moved = bytes.clone();
        let (slot0, slot1) = (SLOT_BLOCK, 2 * SLOT_BLOCK);
        moved.copy_within(slot1..slot1 + SLOT_RECORD, slot0);
        moved[slot1..slot1 + SLOT_RECORD].fill(0);
        let err = ColumnarReader::from_bytes(&moved).unwrap_err().to_string();
        assert!(err.contains("no valid commit slot at offset 4096"), "{err}");
        // Older versions have no commit slots.
        assert_eq!(
            ColumnarReader::from_bytes(&v2_bytes(&s, &cat))
                .unwrap()
                .commit(),
            None
        );
    }

    /// The write accounting of an in-place append: `k` rows write at most
    /// `k` rows plus one commit block, sync exactly twice, stage nothing,
    /// and the real publish runs exactly that plan.
    #[test]
    fn v3_append_writes_o_appended_bytes_and_syncs_twice() {
        let (s, cat) = sample();
        let path = temp("v3-plan");
        write_columnar(&path, &s, &cat).unwrap();
        let before = std::fs::read(&path).unwrap();
        for k in [1usize, 3, 64] {
            let mut app = ColumnarAppender::open(&path).unwrap();
            for r in 0..k {
                app.append_instant(&[fid(r as u32 % 3)]).unwrap();
            }
            let row_bytes = app.words_per_instant * 8;
            let plan = app.plan();
            let written: usize = plan
                .iter()
                .map(|step| match step {
                    Step::Write { bytes, .. } => bytes.len(),
                    _ => 0,
                })
                .sum();
            assert!(written <= k * row_bytes + SLOT_BLOCK, "{k} rows: {written}");
            assert_eq!(plan.iter().filter(|s| **s == Step::Sync).count(), 2);
            let mut ran = Vec::new();
            app.publish(|step| {
                ran.push(step.clone());
                Ok(())
            })
            .unwrap();
            assert_eq!(ran, plan, "{k} rows: the publish is the plan");
        }
        // The header and the old rows are byte-for-byte as they were.
        let after = std::fs::read(&path).unwrap();
        let rows_at = SLOT_BLOCK + SLOTS;
        assert_eq!(after[..SLOT_BLOCK], before[..SLOT_BLOCK]);
        assert_eq!(after[rows_at..before.len()], before[rows_at..]);
        let r = ColumnarReader::open(&path).unwrap();
        assert_eq!((r.len(), r.commit().unwrap().seq), (4 + 68, 4));
        std::fs::remove_file(&path).ok();
    }

    /// Crash proof for the in-place publish: every prefix of its plan, and
    /// each write torn after its first, middle and last byte, replayed on
    /// a copy of the old store, opens as exactly the old store or the new
    /// one. A torn commit record opens the older slot and reports the
    /// rollback, and the next append recovers from it.
    #[test]
    fn v3_crash_at_any_step_or_torn_write_opens_the_old_or_the_new_store() {
        let (s, cat) = sample();
        let path = temp("v3-crash");
        write_columnar(&path, &s, &cat).unwrap();
        grow(&path, 2); // both slots now hold different commits
        let old = std::fs::read(&path).unwrap();
        let old_r = ColumnarReader::from_bytes(&old).unwrap();
        let mut app = ColumnarAppender::open(&path).unwrap();
        for r in 0..3 {
            app.append_instant(&[fid(r), fid(2)]).unwrap();
        }
        let plan = app.plan();
        app.finish().unwrap();
        let new = std::fs::read(&path).unwrap();
        let new_r = ColumnarReader::from_bytes(&new).unwrap();
        assert_eq!(new_r.len(), 9);
        let mut whole = old.clone();
        replay(&mut whole, &plan);
        assert_eq!(whole, new, "the plan is the whole publish");

        let open = |disk: &[u8], what: &str| {
            let r = ColumnarReader::from_bytes(disk)
                .unwrap_or_else(|e| panic!("{what}: unopenable: {e}"));
            assert!(
                same(&r, &old_r) || same(&r, &new_r),
                "{what}: neither the old store nor the new one"
            );
            r
        };
        for p in 0..=plan.len() {
            let mut disk = old.clone();
            replay(&mut disk, &plan[..p]);
            let r = open(&disk, &format!("crash after step {p}"));
            assert_eq!(same(&r, &new_r), p >= 3, "step {p}: the slot write commits");
            assert!(!r.commit().unwrap().rolled_back, "step {p}");
        }
        let mut torn_commit = None;
        for (i, step) in plan.iter().enumerate() {
            let Step::Write { at, bytes } = step else {
                continue;
            };
            for cut in [1, bytes.len() / 2, bytes.len() - 1] {
                let what = format!("step {i} torn after {cut} of {} bytes", bytes.len());
                let mut disk = old.clone();
                replay(&mut disk, &plan[..i]);
                write_at(&mut disk, *at as usize, &bytes[..cut]);
                let r = open(&disk, &what);
                assert!(same(&r, &old_r), "{what}: a torn write commits nothing");
                let is_commit = i == 2;
                assert_eq!(r.commit().unwrap().rolled_back, is_commit, "{what}");
                if is_commit {
                    torn_commit = Some(disk);
                }
            }
        }
        // Recovery: an append on the torn store starts from the old
        // commit, overwrites the uncommitted rows and the torn slot.
        std::fs::write(&path, torn_commit.expect("a torn commit")).unwrap();
        let mut app = ColumnarAppender::open(&path).unwrap();
        assert_eq!(app.len(), 6);
        app.append_instant(&[fid(1)]).unwrap();
        app.finish().unwrap();
        let r = ColumnarReader::open(&path).unwrap();
        assert_eq!(r.len(), 7);
        assert_eq!(r.view().instant_words(6), &[1 << 1]);
        assert_eq!(r.view().instant_words(5), old_r.view().instant_words(5));
        let commit = r.commit().unwrap();
        assert_eq!(
            (commit.seq, commit.rolled_back),
            (3, false),
            "the torn seq 3, rewritten"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Every byte of a v3 store that has committed twice and carries an
    /// uncommitted tail, flipped: header, padding and committed rows are
    /// rejected with an offset; a damaged slot record rolls back to the
    /// other slot's commit and says so; slot filler and the tail change
    /// nothing.
    #[test]
    fn v3_every_single_byte_flip_is_rejected_or_rolls_back() {
        let (s, cat) = sample();
        let path = temp("v3-flips");
        write_columnar(&path, &s, &cat).unwrap();
        grow(&path, 1); // slot 0: seq 2, five rows; slot 1: seq 1, four
        let mut bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let base = ColumnarReader::from_bytes(&bytes).unwrap();
        let prior = ColumnarReader::from_bytes(&encode_columnar(&s, &cat)).unwrap();
        let committed = bytes.len();
        bytes.extend_from_slice(&[0xa5; 11]);
        let r = ColumnarReader::from_bytes(&bytes).unwrap();
        assert!(same(&r, &base));
        assert_eq!(r.uncommitted_bytes(), 11);
        let (slots_at, rows_at) = (base.header.len(), base.rows_at());
        for idx in 0..bytes.len() {
            for flip in [0x01u8, 0xff] {
                let mut bad = bytes.clone();
                bad[idx] ^= flip;
                let what = format!("flip {flip:#x} at {idx}");
                let got = ColumnarReader::from_bytes(&bad);
                if idx < slots_at || (rows_at..committed).contains(&idx) {
                    let err = got
                        .err()
                        .unwrap_or_else(|| panic!("{what} accepted"))
                        .to_string();
                    assert!(err.contains("offset"), "{what}: {err}");
                    if idx >= rows_at {
                        assert!(err.contains("checksum mismatch"), "{what}: {err}");
                    }
                    continue;
                }
                let r = got.unwrap_or_else(|e| panic!("{what}: {e}"));
                let in_record = idx < rows_at && (idx - slots_at) % SLOT_BLOCK < SLOT_RECORD;
                if in_record {
                    let slot = (idx - slots_at) / SLOT_BLOCK;
                    let (want, seq) = if slot == 0 { (&prior, 1) } else { (&base, 2) };
                    assert!(same(&r, want), "{what}: the other slot's commit");
                    assert_eq!(
                        r.commit(),
                        Some(CommitInfo {
                            seq,
                            slot: 1 - slot,
                            rolled_back: true
                        }),
                        "{what}"
                    );
                } else {
                    assert!(same(&r, &base), "{what}: an ignored byte");
                    assert_eq!(r.commit(), base.commit(), "{what}");
                }
            }
        }
    }

    #[test]
    fn v3_reload_resumes_growth_and_judges_damaged_slots() {
        let (s, cat) = sample();
        let path = temp("v3-reload");
        write_columnar(&path, &s, &cat).unwrap();
        let resident = ColumnarReader::open(&path).unwrap();
        grow(&path, 3);
        let grown_bytes = std::fs::read(&path).unwrap();
        let past = resident
            .read_past_load(&mut File::open(&path).unwrap())
            .unwrap()
            .expect("old rows intact");
        assert!(!resident.is_current(&past));
        assert!(
            resident.resume(&past).is_some(),
            "growth takes the resume path"
        );
        let Reload::Extended(grown) = resident.reload(&path).unwrap() else {
            panic!("growth must reload as an extension");
        };
        let reopened = ColumnarReader::open(&path).unwrap();
        assert!(same(&grown, &reopened));
        assert_eq!(grown.commit(), reopened.commit());
        assert_eq!(grown.file_bytes(), reopened.file_bytes());
        assert!(matches!(grown.reload(&path).unwrap(), Reload::Unchanged));

        // A flip in the old rows or the new ones: the full open's error.
        for at in [resident.rows_at(), resident.file_bytes()] {
            let mut bad = grown_bytes.clone();
            bad[at] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            let err = reload_err(&resident, &path);
            assert_eq!(
                err,
                ColumnarReader::from_bytes(&bad).unwrap_err().to_string()
            );
            assert!(err.contains("checksum mismatch"), "{err}");
        }
        // The newest slot damaged: the file commits the resident load
        // again, which the grown load sees as a rewrite, not growth.
        let newest = grown.header.len() + grown.commit().unwrap().slot * SLOT_BLOCK;
        let mut rolled = grown_bytes.clone();
        rolled[newest] ^= 0x01;
        std::fs::write(&path, &rolled).unwrap();
        assert!(matches!(resident.reload(&path).unwrap(), Reload::Unchanged));
        assert!(matches!(
            grown.reload(&path).unwrap(),
            Reload::Rewritten(r) if same(&r, &resident) && r.commit().unwrap().rolled_back
        ));
        // The older slot damaged: still the grown load's commit.
        let older = grown.header.len() + (1 - grown.commit().unwrap().slot) * SLOT_BLOCK;
        let mut damaged = grown_bytes.clone();
        damaged[older + 8] ^= 0x01;
        std::fs::write(&path, &damaged).unwrap();
        assert!(matches!(grown.reload(&path).unwrap(), Reload::Unchanged));
        std::fs::remove_file(&path).ok();
    }

    /// The append lock: an open appender holds it, and two appenders
    /// racing on one file commit one after the other, each over the
    /// other's rows — never the same slot twice, never mixed rows.
    #[test]
    fn v3_appenders_on_one_file_are_serialized_by_the_lock() {
        let (s, cat) = sample();
        let path = temp("v3-lock");
        write_columnar(&path, &s, &cat).unwrap();
        let probe = File::open(&path).unwrap();
        let app = ColumnarAppender::open(&path).unwrap();
        assert!(probe.try_lock().is_err(), "an open appender holds the lock");
        drop(app);
        probe.try_lock().expect("a dropped appender releases it");
        probe.unlock().unwrap();

        let r = race_two_appenders(&path);
        assert_eq!(r.commit().unwrap().seq, 3);
        std::fs::remove_file(&path).ok();
    }

    /// Two appenders released together on `path`, a four-instant sample
    /// store, each appending five rows of its own feature: both appends
    /// commit, one after the other, and no commit mixes their rows.
    fn race_two_appenders(path: &Path) -> ColumnarReader {
        let start = std::sync::Arc::new(std::sync::Barrier::new(2));
        let racers: Vec<_> = [0u32, 1]
            .into_iter()
            .map(|f| {
                let (path, start) = (path.to_path_buf(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    let mut app = ColumnarAppender::open(&path).unwrap();
                    for _ in 0..5 {
                        app.append_instant(&[fid(f)]).unwrap();
                        std::thread::yield_now();
                    }
                    app.finish().unwrap();
                })
            })
            .collect();
        for racer in racers {
            racer.join().unwrap();
        }
        let r = ColumnarReader::open(path).unwrap();
        assert_eq!(r.len(), 14, "both appends committed");
        let rows: Vec<u64> = (4..14).map(|t| r.view().instant_words(t)[0]).collect();
        assert!(
            rows[..5].iter().all(|&w| w == rows[0])
                && rows[5..].iter().all(|&w| w == rows[5])
                && rows[0] != rows[5],
            "each append's rows stay together: {rows:?}"
        );
        r
    }

    // ---- Version 2: a store written before the commit slots. ----

    /// A 600-instant, 108-feature store written by the version-2 writer
    /// (`ppm generate --length 600 --period 12 --max-pat-length 4 --f1 8
    /// --seed 7`, then `ppm convert --to columnar`): the data of the v1
    /// fixture.
    const V2_FIXTURE: &[u8] = include_bytes!("../testdata/synthetic-p12-v2.ppmc");

    #[test]
    fn v2_store_opens_and_equals_its_v3_twin() {
        let v2 = ColumnarReader::from_bytes(V2_FIXTURE).unwrap();
        assert_eq!((v2.version(), v2.len(), v2.width()), (2, 600, 108));
        assert_eq!(v2.header.len() % 8, 0);
        assert_eq!(v2.commit(), None);
        let v1 = ColumnarReader::from_bytes(V1_FIXTURE).unwrap();
        assert_eq!(v2.view(), v1.view(), "the v1 fixture's data");
        let path = temp("v2-open");
        std::fs::write(&path, V2_FIXTURE).unwrap();
        let opened = ColumnarReader::open(&path).unwrap();
        assert_eq!(opened.version(), 2);
        assert!(same(&opened, &v2));
        std::fs::remove_file(&path).ok();

        let v3 =
            ColumnarReader::from_bytes(&store_bytes(v2.view(), v2.catalog(), VERSION)).unwrap();
        assert_eq!(v3.version(), 3);
        assert_eq!(v3.view(), v2.view());
        assert_eq!(v3.to_series(), v2.to_series());
        assert!(v3.catalog().iter().eq(v2.catalog().iter()));
        assert_ne!(v3.fingerprint(), v2.fingerprint(), "a different header");
    }

    #[test]
    fn v2_flips_are_rejected() {
        let words_at = ColumnarReader::from_bytes(V2_FIXTURE).unwrap().header.len();
        let n = V2_FIXTURE.len();
        let picks = (0..words_at)
            .chain((words_at..n - TRAILER).step_by(61))
            .chain(n - TRAILER..n);
        for idx in picks {
            let mut bad = V2_FIXTURE.to_vec();
            bad[idx] ^= 0xff;
            let err = ColumnarReader::from_bytes(&bad)
                .err()
                .unwrap_or_else(|| panic!("v2 flip at {idx} accepted"))
                .to_string();
            assert!(err.contains("offset"), "v2 flip at {idx}: {err}");
        }
    }

    /// Both appender opens refuse a version-1/2 store with the typed
    /// error, before writing anything, and release the append lock.
    #[test]
    fn appenders_refuse_v1_and_v2_stores_and_release_the_lock() {
        for (version, fixture) in [(1, V1_FIXTURE), (2, V2_FIXTURE)] {
            let path = temp(&format!("v{version}-refuse"));
            std::fs::write(&path, fixture).unwrap();
            let resident = ColumnarReader::open(&path).unwrap();
            for attempt in 0..2 {
                let refused = if attempt == 0 {
                    ColumnarAppender::open(&path)
                } else {
                    ColumnarAppender::open_resident(&path, &resident)
                };
                let err = refused.unwrap_err();
                assert!(
                    matches!(err, Error::ReadOnlyVersion { version: v } if v == version),
                    "v{version}: {err}"
                );
                let text = err.to_string();
                assert!(text.contains(&format!("version {version}")), "{text}");
                assert!(text.contains("ppm convert"), "{text}");
                File::open(&path)
                    .unwrap()
                    .try_lock()
                    .expect("a refused appender holds no lock");
            }
            assert_eq!(std::fs::read(&path).unwrap(), fixture, "v{version}");
            std::fs::remove_file(&path).ok();
        }
    }

    /// A version-2 store grown by another writer (an older build's
    /// whole-file append) carries no slots to resume from, so reload judges
    /// it through the full open: still an extension, equal to a fresh open.
    #[test]
    fn slot_less_store_grown_by_another_writer_reloads_as_an_extension() {
        let (s, cat) = sample();
        let path = temp("v2-grown");
        std::fs::write(&path, v2_bytes(&s, &cat)).unwrap();
        let resident = ColumnarReader::open(&path).unwrap();
        std::fs::write(&path, v2_bytes(&grown_by(&s, 3), &cat)).unwrap();
        let past = resident
            .read_past_load(&mut File::open(&path).unwrap())
            .unwrap()
            .expect("old prefix intact");
        assert!(!resident.is_current(&past), "a new trailer");
        assert!(resident.resume(&past).is_none(), "no slots to resume");
        let Reload::Extended(grown) = resident.reload(&path).unwrap() else {
            panic!("a grown v2 store must reload as an extension");
        };
        let reopened = ColumnarReader::open(&path).unwrap();
        assert_eq!((grown.version(), grown.len()), (2, 7));
        assert!(same(&grown, &reopened));
        assert!(grown.extends(&resident));
        assert!(matches!(grown.reload(&path).unwrap(), Reload::Unchanged));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = ColumnarReader::open("/nonexistent/definitely/missing.ppmc").unwrap_err();
        assert!(matches!(err, Error::Io(_)));
        let err = ColumnarSource::open("/nonexistent/definitely/missing.ppmc").unwrap_err();
        assert!(matches!(err, Error::Io(_)));
    }

    // ---- ColumnarSource: the store streamed from disk on every scan. ----

    /// Every instant one scan of `src` visits, in order.
    fn scanned(src: &mut ColumnarSource) -> Result<FeatureSeries> {
        let mut b = SeriesBuilder::new();
        let mut next = 0;
        src.scan(&mut |t, feats| {
            assert_eq!(t, next, "instants arrive in order");
            next += 1;
            b.push_instant(feats.iter().copied());
        })?;
        Ok(b.finish())
    }

    #[test]
    fn source_scans_the_committed_rows_in_order_and_counts() {
        let (s, cat) = sample();
        let path = temp("source");
        write_columnar(&path, &s, &cat).unwrap();
        let mut src = ColumnarSource::open(&path).unwrap();
        assert_eq!(src.instant_count(), 4);
        assert_eq!(src.scans_performed(), 0);
        assert!(src.catalog().iter().eq(cat.iter()));
        assert_eq!(scanned(&mut src).unwrap(), s);
        assert_eq!(scanned(&mut src).unwrap(), s);
        assert_eq!(src.scans_performed(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn source_streams_an_empty_store() {
        let path = temp("source-empty");
        write_columnar(&path, &FeatureSeries::empty(), &FeatureCatalog::new()).unwrap();
        let mut src = ColumnarSource::open(&path).unwrap();
        assert_eq!(src.instant_count(), 0);
        let mut visited = 0;
        src.scan(&mut |_, _| visited += 1).unwrap();
        assert_eq!((visited, src.scans_performed()), (0, 1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn source_streams_widths_and_block_edges_like_the_reader() {
        // Rows of 0, 1 and 3 words; the 1-word store spans several blocks.
        for (width, n) in [(0usize, 5usize), (64, BLOCK_WORDS + 7), (129, 300)] {
            let mut b = SeriesBuilder::new();
            for t in 0..n {
                let feats: Vec<FeatureId> = (0..width as u32)
                    .filter(|f| (t as u32 + f).is_multiple_of(7))
                    .map(fid)
                    .collect();
                b.push_instant(feats);
            }
            let s = b.finish();
            let cat = FeatureCatalog::with_synthetic_features(width);
            let path = temp("source-widths");
            write_columnar(&path, &s, &cat).unwrap();
            let mut src = ColumnarSource::open(&path).unwrap();
            assert_eq!(scanned(&mut src).unwrap(), s, "width {width}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn source_streams_the_v1_and_v2_fixtures_like_the_reader() {
        for (version, fixture) in [(1, V1_FIXTURE), (2, V2_FIXTURE)] {
            let path = temp("source-fixture");
            std::fs::write(&path, fixture).unwrap();
            let reader = ColumnarReader::open(&path).unwrap();
            assert_eq!(reader.version(), version);
            let mut src = ColumnarSource::open(&path).unwrap();
            assert_eq!(src.instant_count(), reader.len());
            assert!(src.catalog().iter().eq(reader.catalog().iter()));
            for _ in 0..2 {
                assert_eq!(scanned(&mut src).unwrap(), reader.to_series(), "v{version}");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn source_rejects_a_flipped_row_word_on_the_next_scan() {
        let (s, cat) = sample();
        let path = temp("source-flip");
        write_columnar(&path, &s, &cat).unwrap();
        let rows_at = ColumnarReader::open(&path).unwrap().rows_at();
        let mut src = ColumnarSource::open(&path).unwrap();
        scanned(&mut src).unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        bytes[rows_at + 8 * 2] ^= 0x02;
        std::fs::write(&path, &bytes).unwrap();
        let err = scanned(&mut src).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("checksum mismatch") && msg.contains("scan 2"),
            "{msg}"
        );
        assert!(!err.is_transient());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn source_fails_a_scan_of_a_file_cut_short_under_it() {
        let (s, cat) = sample();
        let path = temp("source-cut");
        write_columnar(&path, &s, &cat).unwrap();
        let mut src = ColumnarSource::open(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let err = scanned(&mut src).unwrap_err();
        assert!(matches!(err, Error::Truncated { .. }), "{err}");
        assert!(err.to_string().contains("scan 1"), "{err}");
        assert!(!err.is_transient());
        // A cut store does not even open.
        assert!(ColumnarSource::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// A cut store does not open; a flipped row byte opens (the open checks
    /// the header and commit only) but fails the first scan.
    #[test]
    fn source_detects_truncation_and_corruption() {
        let (s, cat) = sample();
        let path = temp("source-damage");
        write_columnar(&path, &s, &cat).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [3usize, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(ColumnarSource::open(&path).is_err(), "cut {cut} accepted");
        }
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        let mut src = ColumnarSource::open(&path).unwrap();
        let err = scanned(&mut src).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn source_ignores_an_append_between_scans() {
        let (s, cat) = sample();
        let path = temp("source-append");
        write_columnar(&path, &s, &cat).unwrap();
        let mut src = ColumnarSource::open(&path).unwrap();
        assert_eq!(scanned(&mut src).unwrap(), s);
        grow(&path, 5);
        assert_eq!(ColumnarReader::open(&path).unwrap().len(), 9);
        assert_eq!(scanned(&mut src).unwrap(), s, "the rows committed at open");
        assert_eq!(src.instant_count(), 4);
        let mut reopened = ColumnarSource::open(&path).unwrap();
        assert_eq!(scanned(&mut reopened).unwrap(), grown_by(&s, 5));
        std::fs::remove_file(&path).ok();
    }
}
